//! Minimal JSON data model, writer, and parser — the shim's stand-in for
//! `serde_json`.
//!
//! The workspace's wire formats (the `dabs-server` line protocol, the CLI's
//! `--json` output) need an actual serialization backend, not just the trait
//! names. Rather than pulling `serde_json` into an offline build, this module
//! provides a small self-describing [`Json`] value with a compact writer and
//! a strict recursive-descent parser. Wire types implement explicit
//! `to_json`/`from_json` conversions instead of derives — the set of types
//! that cross a process boundary is small and the explicit form doubles as
//! wire-format documentation.
//!
//! Integers are kept as `i64` (never routed through `f64`), so energies and
//! counters round-trip exactly.

use std::fmt;

/// A JSON value.
///
/// Object fields preserve insertion order (`Vec` of pairs, not a map): the
/// protocol cares about stable, readable output, and objects are tiny.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integer literal (no `.`/exponent). Exact for the full `i64` range.
    Int(i64),
    /// Any literal with a fraction or exponent.
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// Build an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Field lookup on an object (first match); `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    // Typed field accessors: `get` + coercion in one step, `None` when the
    // field is absent, null, or the wrong type.

    pub fn get_i64(&self, key: &str) -> Option<i64> {
        self.get(key).and_then(Json::as_i64)
    }

    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Json::as_u64)
    }

    pub fn get_bool(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(Json::as_bool)
    }

    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }

    /// Parse a complete JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}

impl From<u64> for Json {
    /// Saturates at `i64::MAX`: the `Int` payload is signed, and for the
    /// wire's unsigned fields (batch budgets, epoch-ms deadlines) a clamped
    /// huge value beats a silent wrap to a negative that `as_u64` would
    /// then drop entirely.
    fn from(v: u64) -> Self {
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<usize> for Json {
    /// Saturates at `i64::MAX` (see `From<u64>`).
    fn from(v: usize) -> Self {
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Json::Null)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Arr(v)
    }
}

/// Parse or structure error, with a byte offset for parse failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl fmt::Display for Json {
    /// Compact single-line form — exactly what the newline-delimited
    /// protocol needs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(f, "{i}"),
            Json::Float(x) => {
                if x.is_finite() {
                    // Keep a syntactic marker so the value re-parses as
                    // Float: integral floats get `.1` precision, and beyond
                    // 1e15 (where `{x:.1}` output gets unwieldy and Rust's
                    // plain Display would emit a bare integer literal)
                    // exponent form.
                    if x.fract() != 0.0 {
                        write!(f, "{x}")
                    } else if x.abs() < 1e15 {
                        write!(f, "{x:.1}")
                    } else {
                        write!(f, "{x:e}")
                    }
                } else {
                    f.write_str("null") // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_fmt(format_args!("{c}"))?,
        }
    }
    f.write_str("\"")
}

/// Maximum container nesting the parser accepts. The parser is recursive
/// and fed directly from untrusted TCP lines, so without a cap a request of
/// ~100k `[` characters overflows the connection thread's stack and aborts
/// the whole process. The protocol's real documents nest a handful of
/// levels; 128 is far above any legitimate message and far below any stack.
pub const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            message: msg.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("invalid literal, expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(self.err(format!("unexpected character {:?}", b as char))),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_PARSE_DEPTH}")));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        other => {
                            return Err(self.err(format!("invalid escape {:?}", other as char)))
                        }
                    }
                }
                _ => {
                    // Copy the whole run of plain bytes up to the next quote
                    // or backslash at once: both are ASCII, so they never
                    // split a multi-byte character, and each byte of the
                    // input is checked once — decode stays linear.
                    let start = self.pos - 1;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |k| start + k);
                    let plain = std::str::from_utf8(&self.bytes[start..run])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(plain);
                    self.pos = run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err(format!("invalid number {text:?}")))
        } else {
            match text.parse::<i64>() {
                Ok(i) => Ok(Json::Int(i)),
                // Out-of-range integer literal: degrade to f64 like serde_json
                // does with arbitrary_precision off.
                Err(_) => text
                    .parse::<f64>()
                    .map(Json::Float)
                    .map_err(|_| self.err(format!("invalid number {text:?}"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) -> Json {
        Json::parse(&v.to_string()).expect("round trip parse")
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(i64::MAX),
            Json::Int(i64::MIN),
            Json::Float(1.5),
            Json::Float(-2.25e10),
            Json::str(""),
            Json::str("hello"),
        ] {
            assert_eq!(round_trip(&v), v, "{v}");
        }
    }

    #[test]
    fn i64_extremes_are_exact() {
        let v = Json::parse("9223372036854775807").unwrap();
        assert_eq!(v.as_i64(), Some(i64::MAX));
        let v = Json::parse("-9223372036854775808").unwrap();
        assert_eq!(v.as_i64(), Some(i64::MIN));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\nd\te\u{1F600}µ";
        let v = Json::str(s);
        assert_eq!(round_trip(&v), v);
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\\ud83d\\ude00\"").unwrap(),
            Json::str("Aé😀")
        );
    }

    #[test]
    fn multibyte_text_mixed_with_every_escape_round_trips() {
        let s = "µ\"é\\漢/字\n😀\t\r\u{0008}\u{000C}\u{0001}ok\u{1F}Ω";
        let v = Json::str(s);
        assert_eq!(round_trip(&v), v);
        // Every escape the decoder knows, each between multibyte runs.
        let wire = "\"é\\\"ü\\\\漢\\/字\\bα\\fβ\\nγ\\rδ\\tε\\u00e9ζ\\ud83d\\ude00η\"";
        assert_eq!(
            Json::parse(wire).unwrap(),
            Json::str("é\"ü\\漢/字\u{0008}α\u{000C}β\nγ\rδ\tεéζ😀η")
        );
    }

    #[test]
    fn a_mebibyte_string_decodes_in_linear_time() {
        // Decode must stay linear in the line's length: a per-character
        // pass over the rest of the input turns this string into minutes
        // of work on the one event-loop thread.
        let mut s = String::with_capacity(1 << 20);
        while s.len() < 1 << 20 {
            s.push_str("0 1 -7\n1 2 µ\"9\"\t");
        }
        let line = Json::obj([("inline", Json::str(s.clone()))]).to_string();
        let start = std::time::Instant::now();
        let v = Json::parse(&line).unwrap();
        let took = start.elapsed();
        assert_eq!(v.get_str("inline"), Some(s.as_str()));
        assert!(
            took < std::time::Duration::from_secs(1),
            "1 MiB string took {took:?} to decode"
        );
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::obj([
            ("op", Json::str("submit")),
            ("ids", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            (
                "inner",
                Json::obj([("x", Json::Null), ("y", Json::Bool(true))]),
            ),
        ]);
        assert_eq!(round_trip(&v), v);
        assert_eq!(v.get_str("op"), Some("submit"));
        assert_eq!(v.get("ids").and_then(Json::as_arr).map(<[_]>::len), Some(2));
    }

    #[test]
    fn whitespace_tolerated_garbage_rejected() {
        assert!(Json::parse("  { \"a\" : [ 1 , 2 ] }\n").is_ok());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn floats_reparse_as_floats() {
        // The writer must keep a syntactic float marker for integral floats,
        // including magnitudes where Rust's plain Display would print a bare
        // integer literal (no '.', no exponent).
        for x in [
            3.0,
            -3.0,
            1e15,
            -1e15,
            1e16,
            9.007199254740992e18,
            1e300,
            f64::MAX,
        ] {
            let v = Json::Float(x);
            match round_trip(&v) {
                Json::Float(f) => assert_eq!(f, x, "{v}"),
                other => panic!("expected float for {x}, got {other:?}"),
            }
        }
    }

    #[test]
    fn nesting_depth_is_capped() {
        // One level under the cap parses; at the cap the parser must return
        // an error instead of recursing (a ~100k-deep document would
        // otherwise overflow the stack and abort the process).
        let ok = format!(
            "{}null{}",
            "[".repeat(MAX_PARSE_DEPTH),
            "]".repeat(MAX_PARSE_DEPTH)
        );
        assert!(Json::parse(&ok).is_ok());
        let deep = format!(
            "{}null{}",
            "[".repeat(MAX_PARSE_DEPTH + 1),
            "]".repeat(MAX_PARSE_DEPTH + 1)
        );
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let hostile = "[".repeat(100_000);
        assert!(Json::parse(&hostile).is_err());
        // Mixed containers count object levels too, and siblings do not
        // accumulate depth.
        let obj_deep = format!("{}1{}", "{\"k\":[".repeat(70), "]}".repeat(70));
        assert!(Json::parse(&obj_deep).is_err());
        let wide = format!("[{}]", vec!["[1]"; 1000].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn u64_conversion_saturates_instead_of_wrapping() {
        assert_eq!(Json::from(u64::MAX).as_i64(), Some(i64::MAX));
        assert_eq!(Json::from(u64::MAX).as_u64(), Some(i64::MAX as u64));
        assert_eq!(Json::from(7u64).as_u64(), Some(7));
    }

    #[test]
    fn typed_getters() {
        let v = Json::parse("{\"i\":-4,\"u\":7,\"b\":true,\"s\":\"x\",\"f\":0.5}").unwrap();
        assert_eq!(v.get_i64("i"), Some(-4));
        assert_eq!(v.get_u64("u"), Some(7));
        assert_eq!(v.get_u64("i"), None, "negative is not u64");
        assert_eq!(v.get_bool("b"), Some(true));
        assert_eq!(v.get_str("s"), Some("x"));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(0.5));
        assert_eq!(v.get_i64("missing"), None);
    }
}
