//! Chrome `trace_event` JSON export.
//!
//! Emits the "JSON Object Format" understood by `chrome://tracing` and
//! Perfetto: `{"traceEvents": [...], "displayTimeUnit": "ms"}` where each
//! event carries `name`/`cat`/`ph`/`ts`/`pid`/`tid` (plus `dur` for
//! complete spans and an `args` object). Written by hand — this crate has
//! no serializer dependency — with full string escaping.

/// One exportable trace event with owned strings, so callers (e.g. a CLI
/// reconstructing a job timeline fetched over the wire) can build events
/// from dynamic data.
#[derive(Debug, Clone)]
pub struct ChromeEvent {
    /// Event name.
    pub name: String,
    /// Comma-separated category list.
    pub cat: String,
    /// Chrome phase code: `'X'` complete, `'i'` instant, `'B'`/`'E'`
    /// span open/close.
    pub ph: char,
    /// Timestamp in microseconds.
    pub ts_us: u64,
    /// Duration in microseconds (only emitted for `'X'`).
    pub dur_us: u64,
    /// Process lane.
    pub pid: u64,
    /// Thread lane.
    pub tid: u64,
    /// Numeric arguments, shown in the trace viewer's detail pane.
    pub args: Vec<(String, i64)>,
}

/// Escape `s` for inclusion in a JSON string literal. The output is pure
/// printable ASCII: control characters (C0, DEL, C1) and all non-ASCII
/// text go out as `\u` escapes, with astral-plane characters encoded as
/// UTF-16 surrogate pairs — a single `\u{:04x}` of the scalar value would
/// silently truncate anything above the BMP.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            ' '..='~' => out.push(c),
            c => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            }
        }
    }
}

fn write_event(out: &mut String, ev: &ChromeEvent) {
    out.push_str("{\"name\":\"");
    escape_into(out, &ev.name);
    out.push_str("\",\"cat\":\"");
    escape_into(out, &ev.cat);
    out.push_str("\",\"ph\":\"");
    escape_into(out, &ev.ph.to_string());
    out.push_str("\",\"ts\":");
    out.push_str(&ev.ts_us.to_string());
    if ev.ph == 'X' {
        out.push_str(",\"dur\":");
        out.push_str(&ev.dur_us.to_string());
    }
    if ev.ph == 'i' {
        // Instant scope: thread-local, the narrowest marker.
        out.push_str(",\"s\":\"t\"");
    }
    out.push_str(",\"pid\":");
    out.push_str(&ev.pid.to_string());
    out.push_str(",\"tid\":");
    out.push_str(&ev.tid.to_string());
    out.push_str(",\"args\":{");
    for (i, (k, v)) in ev.args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(out, k);
        out.push_str("\":");
        out.push_str(&v.to_string());
    }
    out.push_str("}}");
}

/// Render `events` as a complete Chrome trace document.
pub fn write_trace(events: &[ChromeEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 128);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_event(&mut out, ev);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChromeEvent {
        ChromeEvent {
            name: "unit_run".into(),
            cat: "pool".into(),
            ph: 'X',
            ts_us: 120,
            dur_us: 30,
            pid: 1,
            tid: 2,
            args: vec![("job".into(), 7)],
        }
    }

    #[test]
    fn complete_event_has_required_fields() {
        let doc = write_trace(&[sample()]);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        for field in [
            "\"name\":\"unit_run\"",
            "\"cat\":\"pool\"",
            "\"ph\":\"X\"",
            "\"ts\":120",
            "\"dur\":30",
            "\"pid\":1",
            "\"tid\":2",
            "\"args\":{\"job\":7}",
        ] {
            assert!(doc.contains(field), "missing {field} in {doc}");
        }
    }

    #[test]
    fn instant_event_omits_dur_and_scopes_to_thread() {
        let mut ev = sample();
        ev.ph = 'i';
        let doc = write_trace(&[ev]);
        assert!(!doc.contains("\"dur\""));
        assert!(doc.contains("\"s\":\"t\""));
    }

    #[test]
    fn strings_are_escaped() {
        let mut ev = sample();
        ev.name = "we\"ird\\name\n".into();
        let doc = write_trace(&[ev]);
        assert!(doc.contains("we\\\"ird\\\\name\\n"));
    }

    /// Decode a JSON string-literal body (no surrounding quotes) exactly
    /// as a spec-compliant parser would, combining surrogate pairs.
    fn unescape(s: &str) -> String {
        let mut out = String::new();
        let mut it = s.chars();
        while let Some(c) = it.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match it.next().unwrap() {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex4 = |it: &mut std::str::Chars| -> u32 {
                        (0..4).fold(0, |a, _| a * 16 + it.next().unwrap().to_digit(16).unwrap())
                    };
                    let hi = hex4(&mut it);
                    let cp = if (0xd800..0xdc00).contains(&hi) {
                        assert_eq!(it.next(), Some('\\'), "lone high surrogate");
                        assert_eq!(it.next(), Some('u'), "lone high surrogate");
                        let lo = hex4(&mut it);
                        assert!((0xdc00..0xe000).contains(&lo), "bad low surrogate {lo:04x}");
                        0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                    } else {
                        hi
                    };
                    out.push(char::from_u32(cp).unwrap());
                }
                other => panic!("unexpected escape \\{other}"),
            }
        }
        out
    }

    #[test]
    fn hostile_job_names_round_trip() {
        // DEL, C1 controls, BMP unicode, and astral-plane emoji — the
        // names a job spec can legally carry into the trace export.
        let hostile = [
            "job\u{7f}name",
            "c1\u{9c}control",
            "quote\"back\\slash\nnewline\ttab",
            "bmp: déjà vu — ✓",
            "astral: \u{1f600}\u{1F680} \u{10FFFF}",
        ];
        for name in hostile {
            let mut ev = sample();
            ev.name = name.into();
            let doc = write_trace(&[ev]);
            // Perfetto's JSON ingestion wants plain ASCII documents.
            assert!(doc.is_ascii(), "non-ASCII byte leaked for {name:?}");
            let body = doc
                .split("{\"name\":\"")
                .nth(1)
                .unwrap()
                .split("\",\"cat\"")
                .next()
                .unwrap();
            assert_eq!(unescape(body), name, "round-trip broke for {name:?}");
        }
        // The astral escape must be a surrogate pair, not a truncated
        // single \u of the scalar value.
        let mut ev = sample();
        ev.name = "\u{1f600}".into();
        let doc = write_trace(&[ev]);
        assert!(
            doc.contains("\\ud83d\\ude00"),
            "missing surrogate pair: {doc}"
        );
        assert!(!doc.contains("\\uf600"), "truncated astral escape: {doc}");
    }

    #[test]
    fn braces_balance_across_many_events() {
        let events: Vec<ChromeEvent> = (0..10).map(|_| sample()).collect();
        let doc = write_trace(&events);
        let open = doc.matches('{').count();
        let close = doc.matches('}').count();
        assert_eq!(open, close);
        assert_eq!(doc.matches("\"name\"").count(), 10);
    }
}
