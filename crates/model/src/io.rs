//! Plain-text instance I/O.
//!
//! A minimal interchange format compatible in spirit with the de-facto
//! `.qubo` conventions (qbsolv): comment lines start with `c`, a problem
//! line `p qubo 0 <n> <diag_count> <elem_count>` announces sizes, then one
//! line per non-zero term `i j w` (diagonal terms have `i == j`).
//!
//! ```
//! use dabs_model::{QuboBuilder, io};
//!
//! let mut b = QuboBuilder::new(3);
//! b.add_linear(0, -2).add_quadratic(0, 1, 5);
//! let q = b.build().unwrap();
//! let text = io::write_qubo(&q);
//! let back = io::parse_qubo(&text).unwrap();
//! assert_eq!(q, back);
//! ```

use crate::{QuboBuilder, QuboModel};
use std::fmt::Write as _;

/// Parse failure description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Serialise a QUBO model.
pub fn write_qubo(model: &QuboModel) -> String {
    let n = model.n();
    let diag_count = model.diag_slice().iter().filter(|&&d| d != 0).count();
    let mut out = String::new();
    let _ = writeln!(out, "c dabs-rs QUBO instance");
    let _ = writeln!(out, "p qubo 0 {n} {diag_count} {}", model.edge_count());
    for (i, &d) in model.diag_slice().iter().enumerate() {
        if d != 0 {
            let _ = writeln!(out, "{i} {i} {d}");
        }
    }
    for (i, j, w) in model.adjacency().iter_edges() {
        let _ = writeln!(out, "{i} {j} {w}");
    }
    out
}

/// Parse a QUBO model written by [`write_qubo`] (or hand-authored in the
/// same format).
pub fn parse_qubo(text: &str) -> Result<QuboModel, ParseError> {
    let (n, terms) = parse_body(text)?;
    let mut b = QuboBuilder::new(n);
    for (line, (i, j, w)) in terms {
        if i >= n || j >= n {
            return Err(ParseError {
                line,
                message: format!("index out of range: {i} {j} (n = {n})"),
            });
        }
        b.add_quadratic(i, j, w);
    }
    b.build().map_err(|e| ParseError {
        line: 0,
        message: e.to_string(),
    })
}

/// The variable count a document's `p` header line(s) declare, extracted
/// without parsing — or allocating — anything else. The full parsers let a
/// later `p` line overwrite an earlier one, so the maximum across all of
/// them is what bounds the eventual `vec![0; n]`. `None` when no
/// well-formed header exists (such a document fails in `parse_body`
/// before it allocates).
///
/// Kept next to `parse_body` so there is exactly one copy of the header
/// grammar: admission-control callers (the `dabs-server` job runtime) use
/// this to cap a client-declared `n` *before* handing the text to the real
/// parser, and the two must never drift.
pub fn declared_n(text: &str) -> Option<usize> {
    let mut declared: Option<usize> = None;
    for raw in text.lines() {
        let Some(rest) = raw.trim().strip_prefix('p') else {
            continue;
        };
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let n_pos = match fields.first() {
            Some(&"qubo") => 2,  // p qubo 0 <n> <diag> <elems>
            Some(&"ising") => 1, // p ising <n> <biases> <couplings>
            _ => continue,
        };
        if let Some(n) = fields.get(n_pos).and_then(|f| f.parse().ok()) {
            declared = Some(declared.map_or(n, |d: usize| d.max(n)));
        }
    }
    declared
}

/// The scanner behind [`parse_qubo`]: returns `n` and the
/// `(line_no, (i, j, w))` term list.
#[allow(clippy::type_complexity)]
fn parse_body(text: &str) -> Result<(usize, Vec<(usize, (usize, usize, i64))>), ParseError> {
    let mut n: Option<usize> = None;
    let mut terms = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('p') {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            if fields.first() != Some(&"qubo") {
                return Err(ParseError {
                    line: line_no,
                    message: format!("expected 'p qubo …' problem line, got {line:?}"),
                });
            }
            // p qubo 0 n dc ec
            let parsed = fields
                .get(2)
                .and_then(|f| f.parse::<usize>().ok())
                .ok_or_else(|| ParseError {
                    line: line_no,
                    message: "problem line missing variable count".into(),
                })?;
            n = Some(parsed);
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 3 {
            return Err(ParseError {
                line: line_no,
                message: format!("expected 'i j w', got {line:?}"),
            });
        }
        let parse_field = |f: &str, what: &str| -> Result<i64, ParseError> {
            f.parse().map_err(|_| ParseError {
                line: line_no,
                message: format!("cannot parse {what} {f:?}"),
            })
        };
        let i = parse_field(fields[0], "index")? as usize;
        let j = parse_field(fields[1], "index")? as usize;
        let w = parse_field(fields[2], "weight")?;
        terms.push((line_no, (i, j, w)));
    }
    let n = n.ok_or(ParseError {
        line: 0,
        message: "missing problem line".into(),
    })?;
    Ok((n, terms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Solution;
    use dabs_rng::{Rng64, Xorshift64Star};

    #[test]
    fn declared_n_matches_what_the_parsers_allocate() {
        // Single headers, both dialects.
        assert_eq!(declared_n("p qubo 0 7 0 0\n"), Some(7));
        assert_eq!(declared_n("c comment\np ising 9 0 0\n"), Some(9));
        // The parsers let a later header overwrite an earlier one, so the
        // maximum is what bounds the allocation.
        assert_eq!(
            declared_n("p qubo 0 4 0 0\np qubo 0 1000 0 0\n"),
            Some(1000)
        );
        assert_eq!(
            declared_n("p qubo 0 1000 0 0\np qubo 0 4 0 0\n"),
            Some(1000)
        );
        // No well-formed header → None, and the real parser must also
        // reject the document (before allocating anything).
        for text in ["", "0 0 5\n", "p qubo 0 huge 0 0\n", "p graph 12\n"] {
            assert_eq!(declared_n(text), None, "{text:?}");
            assert!(parse_qubo(text).is_err(), "{text:?}");
        }
        // A document the parser accepts always has a declared n.
        let q = parse_qubo("p qubo 0 3 1 1\n0 0 -2\n0 1 5\n").unwrap();
        assert_eq!(declared_n("p qubo 0 3 1 1\n0 0 -2\n0 1 5\n"), Some(q.n()));
    }

    fn random_model(n: usize, seed: u64) -> QuboModel {
        let mut rng = Xorshift64Star::new(seed);
        let mut b = QuboBuilder::new(n);
        for i in 0..n {
            b.add_linear(i, rng.next_range_i64(-9, 9));
            for j in (i + 1)..n {
                if rng.next_bool(0.3) {
                    b.add_quadratic(i, j, rng.next_range_i64(-9, 9));
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn qubo_roundtrip_exact() {
        let q = random_model(25, 401);
        let text = write_qubo(&q);
        let back = parse_qubo(&text).unwrap();
        assert_eq!(q, back);
    }

    #[test]
    fn qubo_roundtrip_preserves_energies() {
        let q = random_model(30, 402);
        let back = parse_qubo(&write_qubo(&q)).unwrap();
        let mut rng = Xorshift64Star::new(403);
        for _ in 0..10 {
            let x = Solution::random(30, &mut rng);
            assert_eq!(q.energy(&x), back.energy(&x));
        }
    }

    #[test]
    fn parses_hand_authored_text() {
        let text = "c a comment\n\np qubo 0 3 1 2\n0 0 -5\n0 1 2\n1 2 -3\n";
        let q = parse_qubo(text).unwrap();
        assert_eq!(q.n(), 3);
        assert_eq!(q.diag(0), -5);
        assert_eq!(q.weight(0, 1), 2);
        assert_eq!(q.weight(1, 2), -3);
    }

    #[test]
    fn duplicate_terms_accumulate() {
        let text = "p qubo 0 2 0 1\n0 1 2\n1 0 3\n0 0 1\n0 0 4\n";
        let q = parse_qubo(text).unwrap();
        assert_eq!(q.weight(0, 1), 5);
        assert_eq!(q.diag(0), 5);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_qubo("p qubo 0 2 0 1\n0 oops 3\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));

        let e = parse_qubo("p qubo 0 2 0 1\n0 5 3\n").unwrap_err();
        assert!(e.message.contains("out of range"));

        let e = parse_qubo("0 1 2\n").unwrap_err();
        assert!(e.message.contains("missing problem line"));

        let e = parse_qubo("p ising 3 0 0\n").unwrap_err();
        assert!(e.message.contains("expected 'p qubo"));
    }

    #[test]
    fn coefficients_beyond_the_bound_are_refused() {
        // M = 2^62 − 1 on both diagonals and the pair: all-ones has energy
        // 3M, which no i64 holds.
        let m = i64::MAX / 2;
        let text = format!("p qubo 0 2 2 1\n0 0 {m}\n1 1 {m}\n0 1 {m}\n");
        let e = parse_qubo(&text).unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
        // Duplicate diagonal terms whose sum leaves i64.
        let text = format!("p qubo 0 1 2 0\n0 0 {}\n0 0 1\n", i64::MAX);
        assert!(parse_qubo(&text).is_err());
    }

    #[test]
    fn rejects_malformed_term_lines() {
        let e = parse_qubo("p qubo 0 2 0 1\n0 1\n").unwrap_err();
        assert!(e.message.contains("expected 'i j w'"));
    }
}
