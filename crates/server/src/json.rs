//! A minimal JSON value type with a strict parser and a deterministic
//! writer.
//!
//! The workspace is fully offline (no serde), and the service protocol
//! only needs plain JSON-lines: objects, arrays, strings, numbers, bools,
//! null. Object key order is *preserved* on both parse and write, and the
//! writer emits no whitespace, so serialising a value is a deterministic
//! byte-level operation — the property the protocol's byte-identical
//! response contract rests on.
//!
//! Integers are kept exact: non-negative integer literals parse to
//! [`Json::UInt`] (full `u64` range, so 64-bit seeds survive a round
//! trip), negative ones to [`Json::Int`], and everything else to
//! [`Json::Num`].

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer literal (exact; covers full `u64` seeds).
    UInt(u64),
    /// Negative integer literal (exact).
    Int(i64),
    /// Any other number (fraction or exponent present, or out of integer
    /// range).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in source (or construction) key order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

const MAX_DEPTH: usize = 128;

/// The parser, also driven piecewise from inside the crate: a caller that
/// wants one member decoded without building a [`Json`] for it walks the
/// document with [`Parser::open`], [`Parser::key`] and [`Parser::more`] and
/// hands every other value to [`Parser::value`]. Both ways go through the
/// same primitives, so a document fails at the same byte with the same
/// message whoever drives the parse.
pub(crate) struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Json {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser::new(text);
        let value = p.value(0)?;
        p.finish()?;
        Ok(value)
    }

    /// Object field lookup (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Exact non-negative integer view.
    ///
    /// The float bound is strict: `u64::MAX as f64` rounds *up* to 2^64,
    /// so accepting `<=` would let `Num(18446744073709551616.0)` through
    /// and the saturating `as u64` cast would silently turn it into
    /// `u64::MAX`. Every f64 strictly below 2^64 is integral-exact here.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(_) => None,
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// Numeric view (lossy for huge integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(u) => Some(*u as f64),
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serialises without any whitespace, preserving object key order.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(u) => write_u64(*u, out),
            Json::Int(i) => {
                if *i < 0 {
                    out.push('-');
                }
                write_u64(i.unsigned_abs(), out);
            }
            Json::Num(x) => write_f64(*x, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (k, (key, value)) in fields.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Writes the decimal digits of `v`, with no intermediate `String`. The
/// one integer writer of the crate: [`Json::write`] and the request
/// encoder in `codec.rs` both use it.
pub(crate) fn write_u64(mut v: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Finite floats print via Rust's shortest-roundtrip `Display`;
/// non-finite values (unrepresentable in JSON) degrade to `null`.
pub(crate) fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        write!(out, "{x}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

pub(crate) fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl<'a> Parser<'a> {
    /// A parser positioned at the first non-whitespace byte of `text`.
    pub(crate) fn new(text: &'a str) -> Parser<'a> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        p
    }

    /// The next byte, without consuming it.
    pub(crate) fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Ends the document: only whitespace may follow.
    pub(crate) fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after the document"));
        }
        Ok(())
    }

    /// Enters the array or object (`open` is `[` or `{`) of a value at
    /// `depth`. `Ok(true)` when a first member follows; `Ok(false)` when
    /// the container was empty and is already closed.
    pub(crate) fn open(&mut self, open: u8, depth: usize) -> Result<bool, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.expect(open)?;
        self.skip_ws();
        let close = if open == b'[' { b']' } else { b'}' };
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// After a member of the container that `close` ends: `Ok(true)` when
    /// a `,` announces another member, `Ok(false)` once `close` is read.
    pub(crate) fn more(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            Some(c) if c == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.err(format!("expected ',' or '{}'", close as char))),
        }
    }

    /// An object member's key, up to and past its `:`.
    pub(crate) fn key(&mut self) -> Result<String, JsonError> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    /// One whole value at nesting `depth` (the document is depth 0).
    pub(crate) fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        let mut items = Vec::new();
        if self.open(b'[', depth)? {
            loop {
                items.push(self.value(depth + 1)?);
                if !self.more(b']')? {
                    break;
                }
            }
        }
        Ok(Json::Arr(items))
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        let mut fields = Vec::new();
        if self.open(b'{', depth)? {
            loop {
                let key = self.key()?;
                fields.push((key, self.value(depth + 1)?));
                if !self.more(b'}')? {
                    break;
                }
            }
        }
        Ok(Json::Obj(fields))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 (it came from &str) and the run
                // stops only at ASCII delimiters, so the slice is valid.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 inside string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("unfinished escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a low surrogate must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(unit).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                        }
                        other => return Err(self.err(format!("bad escape \\{}", other as char))),
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
            value = (value << 4) | digit;
            self.pos += 1;
        }
        Ok(value)
    }

    /// A plain integer literal: digits only, no sign, fraction or
    /// exponent, within `u64`. Consumed and returned; anything else is
    /// left unconsumed for [`Parser::value`] to read or reject. This is
    /// how [`Parser::number`] reads such a literal too, so both ways
    /// agree on every input.
    pub(crate) fn uint(&mut self) -> Option<u64> {
        let rest = &self.bytes[self.pos..];
        let len = match rest.first() {
            Some(b'0') => 1,
            _ => rest.iter().take_while(|c| c.is_ascii_digit()).count(),
        };
        if len == 0 || matches!(rest.get(len), Some(b'.' | b'e' | b'E')) {
            return None;
        }
        let value = rest[..len].iter().try_fold(0u64, |v, &c| {
            v.checked_mul(10)?.checked_add(u64::from(c - b'0'))
        })?;
        self.pos += len;
        Some(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        if let Some(u) = self.uint() {
            return Ok(Json::UInt(u));
        }
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        } else {
            return Err(self.err("malformed number"));
        }
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("digit must follow '.'"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("digit must follow exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        let x: f64 = text.parse().map_err(|_| self.err("number out of range"))?;
        if !x.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(x))
    }
}

/// Convenience constructor: an object from key/value pairs, preserving
/// order.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("0.5").unwrap(), Json::Num(0.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn u64_seeds_round_trip_exactly() {
        let big = u64::MAX;
        let parsed = Json::parse(&big.to_string()).unwrap();
        assert_eq!(parsed, Json::UInt(big));
        assert_eq!(parsed.as_u64(), Some(big));
        assert_eq!(parsed.to_string(), big.to_string());
    }

    #[test]
    fn as_u64_rejects_floats_at_and_above_two_pow_64() {
        // `u64::MAX as f64` rounds UP to 2^64 exactly, so a `<=` bound
        // would accept this value and the saturating cast would silently
        // return u64::MAX. The bound must be strict.
        assert_eq!(Json::Num(18446744073709551616.0).as_u64(), None);
        assert_eq!(Json::Num(f64::INFINITY).as_u64(), None);
        // The largest f64 strictly below 2^64 is exact and must pass.
        let edge = 18446744073709549568.0_f64;
        assert!(edge < u64::MAX as f64);
        assert_eq!(Json::Num(edge).as_u64(), Some(18446744073709549568));
        // And a huge literal parses as UInt, never touching the float path.
        assert_eq!(
            Json::parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn parses_nested_structures_preserving_order() {
        let v = Json::parse(r#"{"b":1,"a":[true,{"x":null}],"c":"s"}"#).unwrap();
        assert_eq!(v.get("b"), Some(&Json::UInt(1)));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.to_string(), r#"{"b":1,"a":[true,{"x":null}],"c":"s"}"#);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::parse(r#""a\"b\\c\nd\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\"b\\c\ndAé😀");
        let reparsed = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, reparsed);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "01x",
            "1.",
            "\"unterminated",
            "nul",
            "[1]]",
            "{\"a\":1,}",
            "\"\\ud800\"",
            "--1",
            "1ee3",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_overlong_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn writes_deterministically_without_whitespace() {
        let v = obj(vec![
            ("id", Json::UInt(1)),
            ("x", Json::Num(0.03)),
            ("s", Json::Str("a\tb".into())),
            ("arr", Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"id":1,"x":0.03,"s":"a\tb","arr":[null,true]}"#
        );
    }

    #[test]
    fn integers_write_their_exact_digits() {
        for u in [0, 7, 10, 99, 100, 4294967295, u64::MAX] {
            assert_eq!(Json::UInt(u).to_string(), u.to_string());
        }
        for i in [i64::MIN, -4294967296, -10, -1, 0] {
            assert_eq!(Json::Int(i).to_string(), i.to_string());
        }
        assert_eq!(Json::parse("-0").unwrap().to_string(), "0");
    }

    #[test]
    fn non_finite_numbers_degrade_to_null() {
        let mut out = String::new();
        Json::Num(f64::NAN).write(&mut out);
        assert_eq!(out, "null");
    }
}
