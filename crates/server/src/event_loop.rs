//! The epoll-based serving loop: every socket on one thread.
//!
//! PR 2's thread-per-connection model spends two OS threads (reader +
//! writer) and two stacks per client; at thousands of idle connections the
//! scheduler, not the solver, becomes the cost. This loop replaces it with
//! readiness: one `dabs-net` thread owns the listener and every accepted
//! socket through a level-triggered [`mio::Poll`], doing non-blocking
//! accept/read/write and keeping per-connection state in a slab indexed by
//! poll token.
//!
//! Design points:
//!
//! * **Outbound is a queue behind a [`LineSink`].** Worker threads
//!   (incumbent fan-out, terminal notifications) enqueue encoded lines on
//!   [`ConnOutbound`] and nudge the loop through a [`Notifier`] (dirty
//!   token list + eventfd waker). Only the loop thread touches sockets.
//! * **Backpressure, both ways.** A connection whose outbound queue
//!   crosses [`HIGH_WATER`] stops being read until it drains below
//!   [`LOW_WATER`] — a slow consumer throttles itself, not the server.
//!   Reads are framed against the same [`MAX_REQUEST_LINE_BYTES`] cap as
//!   before; an oversized or non-UTF-8 line queues one coded error line
//!   and switches the connection to *draining*: input is discarded
//!   (bounded in bytes and time) so the close does not RST the error line
//!   off the wire, then the socket closes.
//! * **Write interest is registered only while there are bytes to
//!   flush** — the level-triggered pitfall of waking on every poll for
//!   writable-and-idle sockets cannot arise. A connection with nothing to
//!   read or write is deregistered entirely; the notifier re-arms it.
//! * **Half-close keeps subscriptions alive.** A client may shut down its
//!   write half and keep reading; the connection stays open while any job
//!   watcher still holds its sink (observed via `Arc::strong_count`), so
//!   `subscribe`/`result` streams outlive request EOF, as before.

use crate::chaos::{chaos_hit, FaultSite};
use crate::obs::net_obs;
use crate::protocol::{ErrorCode, Request, Response};
use crate::server::{ConnCtx, ServerState, MAX_REQUEST_LINE_BYTES};
use crate::sink::LineSink;
use mio::{Events, Interest, Poll, Token, Waker};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
/// Connection tokens are slab index + this offset.
const FIRST_CONN: usize = 2;

/// Outbound bytes queued on one connection beyond which its reads pause.
pub const HIGH_WATER: usize = 1024 * 1024;
/// Paused reads resume once the queue drains below this.
pub const LOW_WATER: usize = HIGH_WATER / 2;

/// Draining (post-fatal-error input discard) gives up after this much.
const DRAIN_BUDGET: usize = 64 * 1024 * 1024;
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Poll timeout: the loop's housekeeping cadence (drain deadlines,
/// close-eligibility sweeps) when no I/O is happening.
const SWEEP_EVERY: Duration = Duration::from_millis(50);

/// Wakes the loop for tokens whose outbound gained lines from another
/// thread.
pub(crate) struct Notifier {
    dirty: Mutex<Vec<usize>>,
    waker: Waker,
}

impl Notifier {
    fn notify(&self, token: usize) {
        self.dirty.lock().expect("dirty lock").push(token);
        let _ = self.waker.wake();
    }

    fn take_dirty(&self) -> Vec<usize> {
        std::mem::take(&mut *self.dirty.lock().expect("dirty lock"))
    }
}

struct OutboundQueue {
    lines: VecDeque<String>,
    queued_bytes: usize,
    closed: bool,
}

/// One connection's outbound line queue — the [`LineSink`] handed to
/// dispatch and job watchers. Enqueues never block; the loop thread flushes.
pub(crate) struct ConnOutbound {
    token: usize,
    q: Mutex<OutboundQueue>,
    notifier: Arc<Notifier>,
}

impl ConnOutbound {
    fn new(token: usize, notifier: Arc<Notifier>) -> Self {
        Self {
            token,
            q: Mutex::new(OutboundQueue {
                lines: VecDeque::new(),
                queued_bytes: 0,
                closed: false,
            }),
            notifier,
        }
    }

    fn pop_line(&self) -> Option<String> {
        let mut q = self.q.lock().expect("outbound lock");
        let line = q.lines.pop_front()?;
        q.queued_bytes -= line.len() + 1;
        Some(line)
    }

    fn mark_closed(&self) {
        let mut q = self.q.lock().expect("outbound lock");
        q.closed = true;
        q.lines.clear();
        q.queued_bytes = 0;
    }
}

impl LineSink for ConnOutbound {
    fn send_line(&self, line: String) -> bool {
        let was_empty = {
            let mut q = self.q.lock().expect("outbound lock");
            if q.closed {
                return false;
            }
            let was_empty = q.lines.is_empty();
            q.queued_bytes += line.len() + 1;
            q.lines.push_back(line);
            was_empty
        };
        // Wake the loop only on the empty→nonempty transition: while lines
        // are queued either a notify is already pending or the connection
        // holds write interest, so further wakes are redundant (and each
        // one costs an eventfd syscall — dispatch bursts queue thousands).
        if was_empty {
            self.notifier.notify(self.token);
        }
        true
    }

    fn queued_bytes(&self) -> usize {
        self.q.lock().expect("outbound lock").queued_bytes
    }
}

/// Post-fatal-error input discard state.
struct Draining {
    budget_left: usize,
    deadline: Instant,
    /// Input side exhausted (EOF, budget, or deadline) — close once the
    /// outbound (the error line) is flushed.
    input_done: bool,
}

struct Conn {
    stream: TcpStream,
    out: Arc<ConnOutbound>,
    ctx: ConnCtx,
    read_buf: Vec<u8>,
    /// Front line being flushed (newline included) and how far it got.
    front: Vec<u8>,
    front_pos: usize,
    /// Current epoll registration; `None` = deregistered (armed only by
    /// the notifier).
    registered: Option<Interest>,
    read_closed: bool,
    paused: bool,
    draining: Option<Draining>,
    dead: bool,
}

impl Conn {
    fn pending_write_bytes(&self) -> usize {
        (self.front.len() - self.front_pos) + self.out.queued_bytes()
    }

    fn wants_read(&self) -> bool {
        !self.read_closed && !self.dead && !self.paused
    }

    fn wants_write(&self) -> bool {
        !self.dead && self.pending_write_bytes() > 0
    }
}

/// Handle held by [`crate::server::Server`]: signals and joins the loop.
pub(crate) struct NetHandle {
    shutdown: Arc<AtomicBool>,
    notifier: Arc<Notifier>,
    handle: Option<JoinHandle<()>>,
}

impl NetHandle {
    /// Ask the loop to flush what it can and exit, then join it.
    pub(crate) fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        let _ = self.notifier.waker.wake();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    /// Block until the loop exits (`run_forever`).
    pub(crate) fn join(mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Start the `dabs-net` loop thread over a bound listener.
pub(crate) fn spawn(listener: TcpListener, state: Arc<ServerState>) -> io::Result<NetHandle> {
    listener.set_nonblocking(true)?;
    let poll = Poll::new()?;
    poll.register(&listener, LISTENER, Interest::READABLE)?;
    let waker = Waker::new(&poll, WAKER)?;
    let notifier = Arc::new(Notifier {
        dirty: Mutex::new(Vec::new()),
        waker,
    });
    let shutdown = Arc::new(AtomicBool::new(false));
    let handle = {
        let notifier = Arc::clone(&notifier);
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name("dabs-net".into())
            .spawn(move || run_loop(&poll, &listener, &state, &notifier, &shutdown))?
    };
    Ok(NetHandle {
        shutdown,
        notifier,
        handle: Some(handle),
    })
}

struct Slab {
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
}

impl Slab {
    fn get_mut(&mut self, idx: usize) -> Option<&mut Conn> {
        self.conns.get_mut(idx).and_then(Option::as_mut)
    }
}

fn run_loop(
    poll: &Poll,
    listener: &TcpListener,
    state: &Arc<ServerState>,
    notifier: &Arc<Notifier>,
    shutdown: &AtomicBool,
) {
    let mut events = Events::with_capacity(1024);
    let mut slab = Slab {
        conns: Vec::new(),
        free: Vec::new(),
    };
    let mut scratch = vec![0u8; 256 * 1024];
    let mut last_sweep = Instant::now();
    loop {
        let _ = poll.poll(&mut events, Some(SWEEP_EVERY));
        net_obs().polls.inc();
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        let mut touched: Vec<usize> = Vec::new();
        for ev in events.iter() {
            match ev.token() {
                LISTENER => accept_all(poll, listener, notifier, &mut slab, state),
                WAKER => notifier.waker.drain(),
                Token(t) => {
                    let idx = t - FIRST_CONN;
                    if let Some(conn) = slab.get_mut(idx) {
                        if ev.is_error() {
                            conn.dead = true;
                        }
                        // RDHUP is NOT handled by flagging read_closed here:
                        // the kernel may still hold buffered request bytes,
                        // and a half-close must not discard them. The read
                        // path observes EOF itself via `read() == 0`.
                        touched.push(idx);
                    }
                }
            }
        }
        touched.extend(notifier.take_dirty().iter().map(|t| t - FIRST_CONN));
        touched.sort_unstable();
        touched.dedup();
        for idx in touched {
            service(poll, &mut slab, idx, state, &mut scratch);
        }
        // Housekeeping on the poll cadence: drain deadlines, and conns
        // whose last watcher vanished without any I/O event.
        if last_sweep.elapsed() >= SWEEP_EVERY {
            last_sweep = Instant::now();
            for idx in 0..slab.conns.len() {
                if slab.conns[idx].is_some() {
                    service(poll, &mut slab, idx, state, &mut scratch);
                }
            }
        }
    }
    // Shutdown: best-effort flush of queued terminal lines, bounded, then
    // close everything.
    let flush_deadline = Instant::now() + Duration::from_millis(500);
    while Instant::now() < flush_deadline {
        let pending: Vec<usize> = (0..slab.conns.len())
            .filter(|&i| {
                slab.conns[i]
                    .as_ref()
                    .is_some_and(|c| !c.dead && c.pending_write_bytes() > 0)
            })
            .collect();
        if pending.is_empty() {
            break;
        }
        for idx in pending {
            if let Some(conn) = slab.get_mut(idx) {
                flush_writes(conn, state);
            }
        }
        let _ = poll.poll(&mut events, Some(Duration::from_millis(10)));
        // Drop the dirty marks: the pending scan above finds every
        // connection with queued bytes, including lines queued since.
        notifier.take_dirty();
    }
    for idx in 0..slab.conns.len() {
        close_conn(poll, &mut slab, idx);
    }
}

fn accept_all(
    poll: &Poll,
    listener: &TcpListener,
    notifier: &Arc<Notifier>,
    slab: &mut Slab,
    state: &Arc<ServerState>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Chaos: a faulted accept behaves like the kernel handing us
                // a connection that died before we could register it — the
                // stream is dropped (RST to the client) and the loop keeps
                // serving everyone else.
                if chaos_hit(&state.chaos, FaultSite::Accept) {
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let idx = slab.free.pop().unwrap_or_else(|| {
                    slab.conns.push(None);
                    slab.conns.len() - 1
                });
                let token = idx + FIRST_CONN;
                if poll
                    .register(&stream, Token(token), Interest::READABLE)
                    .is_err()
                {
                    slab.free.push(idx);
                    continue;
                }
                slab.conns[idx] = Some(Conn {
                    stream,
                    out: Arc::new(ConnOutbound::new(token, Arc::clone(notifier))),
                    ctx: ConnCtx::default(),
                    read_buf: Vec::new(),
                    front: Vec::new(),
                    front_pos: 0,
                    registered: Some(Interest::READABLE),
                    read_closed: false,
                    paused: false,
                    draining: None,
                    dead: false,
                });
                net_obs().accepted.inc();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

/// One full service pass over a connection: read + parse + dispatch, flush
/// writes, apply backpressure, update epoll interest, close if eligible.
fn service(poll: &Poll, slab: &mut Slab, idx: usize, state: &Arc<ServerState>, scratch: &mut [u8]) {
    let Some(conn) = slab.get_mut(idx) else {
        return;
    };
    if !conn.dead {
        if conn.draining.is_some() {
            drain_input(conn, scratch);
        } else if !conn.read_closed && !conn.paused {
            read_input(conn, state, scratch);
        }
        flush_writes(conn, state);
        apply_backpressure(conn);
        update_interest(poll, conn, idx);
    }
    if close_eligible(conn) {
        close_conn(poll, slab, idx);
    }
}

fn read_input(conn: &mut Conn, state: &Arc<ServerState>, scratch: &mut [u8]) {
    loop {
        // Chaos: a faulted read is indistinguishable from EIO off the
        // socket — the connection dies the same way the `Err(_)` arm below
        // kills it, and the client is expected to reconnect/retry.
        if chaos_hit(&state.chaos, FaultSite::Read) {
            conn.dead = true;
            break;
        }
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                net_obs().bytes_in.add(n as u64);
                conn.read_buf.extend_from_slice(&scratch[..n]);
                process_lines(conn, state);
                if conn.draining.is_some() || conn.paused || conn.dead {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
        // Mid-read backpressure check: a pipelining client must not force
        // unbounded dispatch output before we ever look at the queue.
        if conn.out.queued_bytes() > HIGH_WATER {
            break;
        }
    }
}

/// Split complete lines out of the read buffer and dispatch them. Enters
/// draining mode on a protocol-fatal line (too long, not UTF-8).
fn process_lines(conn: &mut Conn, state: &Arc<ServerState>) {
    let mut start = 0usize;
    while let Some(nl) = conn.read_buf[start..].iter().position(|&b| b == b'\n') {
        let end = start + nl;
        let fatal = handle_line(conn, state, start, end);
        start = end + 1;
        if fatal {
            conn.read_buf.clear();
            return;
        }
    }
    conn.read_buf.drain(..start);
    if conn.read_buf.len() > MAX_REQUEST_LINE_BYTES {
        // The line boundary is lost; nothing more can be parsed.
        enter_draining(
            conn,
            ErrorCode::LineTooLong,
            format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"),
        );
        conn.read_buf.clear();
    }
    // A burst of large lines can leave a huge allocation behind; give it
    // back once the buffer is quiet again.
    if conn.read_buf.capacity() > 2 * scratch_len() && conn.read_buf.len() < scratch_len() {
        conn.read_buf.shrink_to(scratch_len());
    }
}

/// Matches the loop's scratch read size: the read buffer's "normal"
/// footprint after shrinking.
const fn scratch_len() -> usize {
    256 * 1024
}

/// Parse and dispatch `read_buf[start..end]` as one line. Returns true if
/// the line was protocol-fatal (connection now draining).
fn handle_line(conn: &mut Conn, state: &Arc<ServerState>, start: usize, end: usize) -> bool {
    let Ok(text) = std::str::from_utf8(&conn.read_buf[start..end]) else {
        enter_draining(
            conn,
            ErrorCode::NotUtf8,
            "request line is not UTF-8".to_string(),
        );
        return true;
    };
    let line = text.trim();
    if line.is_empty() {
        return false;
    }
    net_obs().lines_in.inc();
    match Request::parse_line(line) {
        Ok(request) => {
            let sink: Arc<dyn LineSink> = Arc::clone(&conn.out) as Arc<dyn LineSink>;
            state.dispatch(request, &sink, &mut conn.ctx);
        }
        // A submit whose spec does not parse is refused like one that
        // fails validation: `rejected` with `bad_spec`.
        Err(e) if e.code == ErrorCode::BadSpec => {
            let _ = conn.out.send_line(
                Response::Rejected {
                    code: e.code,
                    reason: e.reason,
                }
                .encode(),
            );
        }
        Err(e) => {
            let _ = conn.out.send_line(
                Response::Error {
                    job: None,
                    code: e.code,
                    reason: e.reason,
                }
                .encode(),
            );
        }
    }
    false
}

fn enter_draining(conn: &mut Conn, code: ErrorCode, reason: String) {
    let _ = conn.out.send_line(
        Response::Error {
            job: None,
            code,
            reason,
        }
        .encode(),
    );
    conn.draining = Some(Draining {
        budget_left: DRAIN_BUDGET,
        deadline: Instant::now() + DRAIN_DEADLINE,
        input_done: false,
    });
}

/// Discard inbound bytes after a fatal error so the close does not RST the
/// queued error line off the wire. Bounded in bytes and time.
fn drain_input(conn: &mut Conn, scratch: &mut [u8]) {
    let Some(d) = &mut conn.draining else { return };
    if d.input_done {
        return;
    }
    if Instant::now() >= d.deadline {
        d.input_done = true;
        return;
    }
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.read_closed = true;
                d.input_done = true;
                break;
            }
            Ok(n) => {
                d.budget_left = d.budget_left.saturating_sub(n);
                if d.budget_left == 0 {
                    d.input_done = true;
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
}

fn flush_writes(conn: &mut Conn, state: &Arc<ServerState>) {
    loop {
        // Chaos: a faulted write is an EIO/EPIPE mid-flush; the line being
        // written is lost with the connection, exactly like the real error
        // arm below.
        if chaos_hit(&state.chaos, FaultSite::Write) {
            conn.dead = true;
            break;
        }
        if conn.front_pos == conn.front.len() {
            match conn.out.pop_line() {
                Some(line) => {
                    conn.front.clear();
                    conn.front.extend_from_slice(line.as_bytes());
                    conn.front.push(b'\n');
                    conn.front_pos = 0;
                    net_obs().lines_out.inc();
                }
                None => break,
            }
        }
        match conn.stream.write(&conn.front[conn.front_pos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.front_pos += n;
                net_obs().bytes_out.add(n as u64);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.front_pos == conn.front.len() && conn.front.capacity() > scratch_len() {
        conn.front = Vec::new();
        conn.front_pos = 0;
    }
}

fn apply_backpressure(conn: &mut Conn) {
    let queued = conn.pending_write_bytes();
    if !conn.paused && queued > HIGH_WATER {
        conn.paused = true;
        net_obs().read_pauses.inc();
    } else if conn.paused && queued < LOW_WATER {
        conn.paused = false;
    }
}

fn update_interest(poll: &Poll, conn: &mut Conn, idx: usize) {
    let desired = match (
        conn.wants_read() || conn.draining.is_some(),
        conn.wants_write(),
    ) {
        (true, true) => Some(Interest::READABLE.add(Interest::WRITABLE)),
        (true, false) => Some(Interest::READABLE),
        (false, true) => Some(Interest::WRITABLE),
        (false, false) => None,
    };
    // A draining conn whose input side finished stops reading.
    let desired = if conn.draining.as_ref().is_some_and(|d| d.input_done) {
        if conn.wants_write() {
            Some(Interest::WRITABLE)
        } else {
            None
        }
    } else {
        desired
    };
    if desired == conn.registered {
        return;
    }
    let token = Token(idx + FIRST_CONN);
    let ok = match (conn.registered, desired) {
        (None, Some(i)) => poll.register(&conn.stream, token, i).is_ok(),
        (Some(_), Some(i)) => poll.reregister(&conn.stream, token, i).is_ok(),
        (Some(_), None) => poll.deregister(&conn.stream).is_ok(),
        (None, None) => true,
    };
    if ok {
        conn.registered = desired;
    } else {
        conn.dead = true;
    }
}

fn close_eligible(conn: &Conn) -> bool {
    if conn.dead {
        return true;
    }
    let flushed = conn.front_pos == conn.front.len() && conn.out.queued_bytes() == 0;
    if let Some(d) = &conn.draining {
        // Fatal error path: once the error line is out (or undeliverable)
        // and input is consumed, close — watchers do not keep it alive.
        return d.input_done && flushed;
    }
    // Normal path: peer finished sending, everything flushed, and no job
    // watcher still holds the sink (the loop's own Arc is the last one) —
    // nothing can ever arrive for this connection again.
    conn.read_closed && flushed && Arc::strong_count(&conn.out) == 1
}

fn close_conn(poll: &Poll, slab: &mut Slab, idx: usize) {
    if let Some(conn) = slab.conns[idx].take() {
        if conn.registered.is_some() {
            let _ = poll.deregister(&conn.stream);
        }
        conn.out.mark_closed();
        slab.free.push(idx);
        net_obs().closed.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use crate::spec::{JobSpec, ProblemSpec};
    use std::io::{BufRead, BufReader};

    fn server() -> Server {
        Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                queue_capacity: 16,
                ..ServerConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn many_idle_connections_on_one_thread_still_serve() {
        let srv = server();
        let mut idle: Vec<TcpStream> = (0..128)
            .map(|_| TcpStream::connect(srv.local_addr()).unwrap())
            .collect();
        // A fresh connection still gets service behind all the idle ones.
        let mut active = TcpStream::connect(srv.local_addr()).unwrap();
        active.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(active.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(line.contains("pong"), "{line}");
        // And so does one of the idle ones.
        let one = &mut idle[63];
        one.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(one.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(line.contains("stats"), "{line}");
        srv.shutdown();
    }

    #[test]
    fn pipelined_requests_on_one_connection_all_answer() {
        let srv = server();
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        let mut batch = String::new();
        for _ in 0..50 {
            batch.push_str("{\"op\":\"ping\"}\n");
        }
        conn.write_all(batch.as_bytes()).unwrap();
        let reader = BufReader::new(conn.try_clone().unwrap());
        let mut got = 0;
        for line in reader.lines().take(50) {
            assert!(line.unwrap().contains("pong"));
            got += 1;
        }
        assert_eq!(got, 50);
        srv.shutdown();
    }

    #[test]
    fn split_writes_reassemble_into_one_request() {
        let srv = server();
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        // One request delivered a few bytes at a time across many packets.
        let msg = b"{\"op\":\"ping\"}\n";
        for chunk in msg.chunks(3) {
            conn.write_all(chunk).unwrap();
            conn.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut line = String::new();
        BufReader::new(conn.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(line.contains("pong"), "{line}");
        srv.shutdown();
    }

    #[test]
    fn subscription_outlives_request_eof() {
        let srv = server();
        let id = srv
            .state()
            .admit(
                JobSpec {
                    problem: ProblemSpec::random(24, 9),
                    max_batches: Some(400),
                    ..JobSpec::default()
                },
                &ConnCtx::default(),
            )
            .unwrap()
            .job;
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        conn.write_all(format!("{{\"op\":\"result\",\"job\":{id}}}\n").as_bytes())
            .unwrap();
        // Half-close: no more requests, but the done line must still come.
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut saw_done = false;
        for line in BufReader::new(conn).lines() {
            let Ok(line) = line else { break };
            saw_done |= line.contains("\"done\"");
        }
        assert!(saw_done, "done line must arrive after request EOF");
        srv.shutdown();
    }

    #[test]
    fn malformed_json_answers_with_code_and_keeps_connection() {
        let srv = server();
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        conn.write_all(b"this is not json\n{\"op\":\"ping\"}\n")
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("bad_json"), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("pong"),
            "malformed line must not kill the conn: {line}"
        );
        srv.shutdown();
    }

    #[test]
    fn non_utf8_line_gets_coded_error_then_close() {
        let srv = server();
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        conn.write_all(b"\xff\xfe garbage \xff\n").unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut lines = BufReader::new(conn).lines();
        let reply = lines.next().expect("error line").unwrap();
        assert!(reply.contains("not_utf8"), "{reply}");
        assert!(
            lines.next().is_none(),
            "connection must close after fatal error"
        );
        srv.shutdown();
    }

    #[test]
    fn slow_consumer_is_paused_not_ballooned() {
        let srv = server();
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        // Never read responses; hammer stats requests (each response is a
        // few hundred bytes). The server must stop reading once the
        // outbound queue crosses the high-water mark instead of buffering
        // without bound — observable as the write() here eventually
        // blocking (kernel socket buffer full because the server stopped
        // consuming).
        conn.set_nonblocking(true).unwrap();
        let req = b"{\"op\":\"stats\"}\n";
        // Pump requests until the pause counter moves (the counter is
        // global across tests, so watch for it to advance, not equal 1).
        let start_pauses = net_obs().read_pauses.get();
        let mut sent = 0usize;
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline && net_obs().read_pauses.get() == start_pauses {
            match conn.write(req) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("client write failed: {e}"),
            }
        }
        assert!(
            net_obs().read_pauses.get() > start_pauses,
            "server never paused reads (sent {sent} bytes without consuming them)"
        );
        srv.shutdown();
    }
}
