//! Dependency-free JSON value, writer, and parser.
//!
//! The build environment is offline (no `serde`), so run reports are
//! serialized through this minimal tree: enough of RFC 8259 to round-trip
//! everything a [`crate::RunReport`] contains — objects, arrays, strings
//! with escapes, integers, and floats. Object key order is preserved so
//! committed `BENCH_*.json` artifacts diff stably across runs.

use std::fmt::Write as _;

/// A JSON value. Numbers keep their integer-ness: `u64` counters must
/// survive a round trip exactly (floats above 2^53 would not).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (work counters, times, counts).
    Int(i64),
    /// An unsigned integer beyond `i64::MAX` is still representable.
    UInt(u64),
    /// A finite float; non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
    /// A pre-serialized JSON fragment, emitted verbatim by the writer.
    ///
    /// This is the splice point for response memoization: a serve-side
    /// result cache stores the exact bytes a fresh serialization once
    /// produced and replays them without re-walking a value tree. The
    /// fragment must itself be valid JSON — the writer does not check.
    /// Accessors (`get`, `as_u64`, …) treat it as opaque.
    Raw(std::sync::Arc<str>),
}

impl Json {
    /// Builds an object from key/value pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Self {
        Self::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds an array of unsigned integers (the time-series common case).
    #[must_use]
    pub fn uints(values: &[u64]) -> Self {
        Self::Arr(values.iter().map(|&v| Json::UInt(v)).collect())
    }

    /// Builds an array of strings.
    #[must_use]
    pub fn strings<S: AsRef<str>>(values: &[S]) -> Self {
        Self::Arr(
            values
                .iter()
                .map(|s| Json::Str(s.as_ref().to_string()))
                .collect(),
        )
    }

    /// Looks up a key in an object (`None` for non-objects/missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one (accepts `Int` ≥ 0
    /// and exact floats, which a parser may have produced).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Self::UInt(u) => Some(u),
            Self::Int(i) => u64::try_from(i).ok(),
            Self::Num(f) if f >= 0.0 && f.fract() == 0.0 && f <= 2f64.powi(53) => Some(f as u64),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Self::Num(f) => Some(f),
            Self::Int(i) => Some(i as f64),
            Self::UInt(u) => Some(u as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(v) => Some(v),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Self::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Self::Num(f) => {
                if f.is_finite() {
                    // `{f:?}` keeps enough digits to round-trip f64 exactly
                    // and always includes a decimal point or exponent.
                    let _ = write!(out, "{f:?}");
                } else {
                    out.push_str("null");
                }
            }
            Self::Str(s) => write_escaped(out, s),
            Self::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Self::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            Self::Raw(fragment) => out.push_str(fragment),
        }
    }
}

/// Serializes to a compact single-line string (JSON-lines friendly).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so an unbounded depth lets a short untrusted input
/// (100 KB of `[`) overflow the parsing thread's stack. Every document
/// this workspace writes nests fewer than ten levels.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document, requiring it to span the whole input.
///
/// # Errors
/// Fails on malformed input, trailing non-whitespace, or arrays/objects
/// nested more than 128 deep.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
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
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not needed for our
                            // reports; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid; copy bytes until the next
                    // char boundary).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Json::obj(vec![
            ("name", Json::Str("table1".into())),
            ("count", Json::UInt(u64::MAX)),
            ("delta", Json::Int(-42)),
            ("ratio", Json::Num(0.125)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "series",
                Json::Arr(vec![Json::UInt(1), Json::UInt(2), Json::UInt(3)]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn escapes_and_unescapes_strings() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".into());
        let text = v.to_string();
        assert_eq!(text, r#""a\"b\\c\nd\te\u0001""#);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn large_counters_survive_exactly() {
        // 2^53 + 1 is not representable as f64 — the Int/UInt split exists
        // for exactly this case.
        let big = (1u64 << 53) + 1;
        let text = Json::UInt(big).to_string();
        assert_eq!(parse(&text).unwrap().as_u64(), Some(big));
    }

    #[test]
    fn parses_whitespace_and_unicode() {
        let v = parse(" { \"k\" : [ 1 , 2.5 , \"héllo\" ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("k").unwrap().as_arr().unwrap()[2].as_str(),
            Some("héllo")
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"abc", "{}x"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let arrays = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        let objects = |d: usize| format!("{}0{}", "{\"k\":".repeat(d), "}".repeat(d));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        // 100,000 `[` used to overflow the parsing thread's stack.
        for deep in [
            arrays(MAX_DEPTH + 1),
            objects(MAX_DEPTH + 1),
            "[".repeat(100_000),
        ] {
            assert_eq!(parse(&deep).unwrap_err().msg, "nesting too deep");
        }
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn negative_and_exponent_numbers() {
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(parse("-2.5e-1").unwrap(), Json::Num(-0.25));
    }

    #[test]
    fn accessors() {
        let v = Json::obj(vec![("a", Json::UInt(3))]);
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(3.0));
        assert!(v.get("missing").is_none());
        assert_eq!(Json::Int(5).as_u64(), Some(5));
        assert_eq!(Json::Int(-5).as_u64(), None);
        assert_eq!(Json::Num(4.0).as_u64(), Some(4));
        assert_eq!(Json::Num(4.5).as_u64(), None);
    }
}
