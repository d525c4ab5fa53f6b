//! Property-based tests of the server's durable job log: WAL records must
//! survive an encode → parse round trip exactly, for arbitrary job specs
//! and terminal outcomes — the replay path trusts this bijection.

use dabs::model::KernelChoice;
use dabs::server::{JobPhase, JobSpec, ProblemSpec, Wal, WalRecord};
use proptest::prelude::*;

/// Derive a full [`JobSpec`] from three unconstrained words: every field
/// of the spec — kind, sizes, kernel, inline text, budgets, lanes,
/// tenant, idempotency key — is a deterministic function of the draw,
/// covering the whole shape space without a combinatorial strategy tuple.
fn spec_from_words(a: u64, b: u64, c: u64) -> JobSpec {
    let kinds = ["random", "k2000", "g22", "tai"];
    let opt = |bit: u64, v: u64| if bit & 1 == 1 { Some(v) } else { None };
    JobSpec {
        problem: ProblemSpec {
            kind: kinds[(a % 4) as usize].to_string(),
            n: opt(a >> 2, 4 + (a >> 3) % 512).map(|v| v as usize),
            seed: b,
            inline: opt(a >> 33, 0)
                .map(|_| format!("c \"quoted\" {b}\np qubo 0 2 1 1\n0 0 -{}\n0 1 3\n", c % 9)),
            kernel: [KernelChoice::Auto, KernelChoice::Csr, KernelChoice::Dense]
                [(a >> 34) as usize % 3],
        },
        devices: 1 + (a >> 13) as usize % 8,
        seed: c,
        abs: a >> 20 & 1 == 1,
        target: opt(a >> 22, b % 2_000_000).map(|v| v as i64 - 1_000_000),
        time_ms: opt(a >> 36, 1 + c % 600_000),
        max_batches: opt(a >> 23, 1 + b % 100_000),
        priority: (a >> 24) as i32 % 10 - 5,
        deadline_unix_ms: opt(a >> 29, 1 + c % (u64::MAX / 2)),
        units: opt(a >> 30, 1 + c % 63).map(|v| v as u32),
        lanes: opt(a >> 37, [0, 64, 128, 192, 256][(a >> 38) as usize % 5]).map(|v| v as u32),
        tenant: opt(a >> 31, 0).map(|_| format!("tenant-{}", b % 97)),
        idempotency_key: opt(a >> 32, 0).map(|_| format!("key-{:x}-{:x}", b, c % 1_000)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Serialized u64 fields (ids, seeds) stay within i64::MAX: the JSON
    // wire stores integers as i64, and real ids are small sequential
    // values — the strategy documents the wire's numeric domain.
    #[test]
    fn admit_records_round_trip_exactly(
        job in 0u64..=i64::MAX as u64,
        a in any::<u64>(),
        b in 0u64..=i64::MAX as u64,
        c in 0u64..=i64::MAX as u64,
    ) {
        let spec = spec_from_words(a, b, c);
        let rec = WalRecord::Admit { job, spec: spec.clone() };
        let line = rec.encode();
        prop_assert!(!line.contains('\n'), "records are single lines");
        let back = WalRecord::parse_line(&line).expect("own encoding must parse");
        match back {
            WalRecord::Admit { job: j, spec: s } => {
                prop_assert_eq!(j, job);
                // The whole spec survives, field for field.
                prop_assert_eq!(&s, &spec);
            }
            other => prop_assert!(false, "wrong variant back: {:?}", other),
        }
    }

    #[test]
    fn terminal_records_round_trip_exactly(
        job in 0u64..=i64::MAX as u64,
        which in 0u64..4,
        err_word in any::<u64>(),
    ) {
        let phase = [
            JobPhase::Done,
            JobPhase::Cancelled,
            JobPhase::Expired,
            JobPhase::Failed,
        ][which as usize];
        let error = if err_word & 1 == 1 {
            Some(format!("unit failed: code {:#x} \"quoted\" \\slash", err_word))
        } else {
            None
        };
        let rec = WalRecord::Terminal { job, phase, result: None, error: error.clone() };
        let back = WalRecord::parse_line(&rec.encode()).expect("own encoding must parse");
        match back {
            WalRecord::Terminal { job: j, phase: p, error: e, result } => {
                prop_assert_eq!(j, job);
                prop_assert_eq!(p, phase);
                prop_assert_eq!(&e, &error);
                prop_assert!(result.is_none());
            }
            other => prop_assert!(false, "wrong variant back: {:?}", other),
        }
    }

    // A crash at the compaction boundary is the WAL's nastiest moment: the
    // old log may end in a torn record AND a half-written `jobs.wal.tmp`
    // from the interrupted rewrite is still on disk. Reopen must replay
    // from the old log only — every retained terminal and every unfinished
    // admit survives, the stale tmp is discarded, and the compaction that
    // reopen performs leaves a log that replays cleanly.
    #[test]
    fn compaction_boundary_crash_preserves_retained_state(
        seed in any::<u64>(),
        n_term in 1usize..6,
        n_live in 1usize..6,
        cut_word in any::<u64>(),
        tmp_garbage in collection::vec(any::<u8>(), 0..120),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "dabs-props-compact-{}-{seed:x}-{n_term}-{n_live}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Compacted shape: terminal pairs first, then live admits. Job 1 is
        // quarantined — that mark must also ride out the crash.
        let mut raw = String::new();
        for id in 1..=n_term as u64 {
            raw.push_str(&WalRecord::Admit { job: id, spec: spec_from_words(seed ^ id, id, 3) }.encode());
            raw.push('\n');
            raw.push_str(&WalRecord::Terminal { job: id, phase: JobPhase::Done, result: None, error: None }.encode());
            raw.push('\n');
        }
        raw.push_str(&WalRecord::Quarantine { job: 1 }.encode());
        raw.push('\n');
        for k in 0..n_live as u64 {
            let job = n_term as u64 + 1 + k;
            raw.push_str(&WalRecord::Admit { job, spec: spec_from_words(seed ^ job, job, 5) }.encode());
            raw.push('\n');
        }
        // Crash mid-append: a partial record with no newline at the tail.
        let torn = WalRecord::Admit { job: 99, spec: spec_from_words(7, 8, 9) }.encode();
        let cut = 1 + (cut_word as usize) % (torn.len() - 1);
        std::fs::write(dir.join("jobs.wal"), format!("{raw}{}", &torn[..cut])).unwrap();
        // Crash mid-compaction: the half-written tmp is still on disk.
        std::fs::write(dir.join("jobs.wal.tmp"), &tmp_garbage).unwrap();
        {
            let (_wal, replay) = Wal::open(&dir).unwrap();
            prop_assert_eq!(replay.terminals.len(), n_term);
            prop_assert_eq!(replay.live.len(), n_live);
            prop_assert_eq!(replay.max_job_id, (n_term + n_live) as u64);
            prop_assert!(replay.truncated_bytes > 0, "torn tail must be measured");
            prop_assert_eq!(&replay.quarantined, &vec![1]);
        }
        let (_wal, replay) = Wal::open(&dir).unwrap();
        prop_assert_eq!(replay.truncated_bytes, 0, "reopened log replays cleanly");
        prop_assert_eq!(replay.terminals.len(), n_term);
        prop_assert_eq!(replay.live.len(), n_live);
        prop_assert_eq!(&replay.quarantined, &vec![1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_lines_never_panic_the_parser(words in collection::vec(any::<u8>(), 0..200)) {
        // Torn tails and corrupt bytes reach this parser on every restart;
        // it must reject or accept, never panic.
        let line = String::from_utf8_lossy(&words).into_owned();
        let _ = WalRecord::parse_line(&line);
        // Prefixes of a valid record (the torn-write shape) likewise.
        let valid = WalRecord::Admit { job: 7, spec: spec_from_words(1, 2, 3) }.encode();
        let cut = (words.first().copied().unwrap_or(0) as usize) % valid.len();
        let _ = WalRecord::parse_line(&valid[..cut]);
    }
}
