//! The one JSON module: every JSON document the platform writes or
//! reads goes through here.
//!
//! The build environment is fully offline, so `serde_json` is not
//! available; this module provides the subset the platform needs:
//!
//! * [`JsonWriter`] — an incremental pretty-printer matching
//!   `serde_json`'s `to_string_pretty` layout (two-space indent,
//!   `"key": value`), behind [`ObsSnapshot::to_json`](crate::ObsSnapshot::to_json)
//!   and every pretty artifact;
//! * [`escape`] — one quoted JSON string, for the single-line encoders
//!   whose bytes goldens pin;
//! * [`parse`] — a recursive-descent reader into a [`JsonValue`] tree.
//!   Object keys stay in document order and numbers stay as their
//!   literal text, so a decoder can demand an exact key sequence
//!   ([`JsonValue::fields`]) and read a `u64` without an `f64` detour
//!   that would round a saturated histogram sum
//!   ([`JsonValue::as_u64`]). Nesting is bounded by [`MAX_DEPTH`], so
//!   no input can overflow the stack.

use std::fmt::{self, Write as _};

/// Deepest nesting of arrays and objects [`parse`] accepts. Every
/// document the platform writes nests at most six levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its literal text.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object's members, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Returns the value of the first member named `key` if this is an
    /// object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Returns the member values if this is an object whose keys are
    /// exactly `keys`, in that order: a missing, extra, repeated or
    /// reordered key yields `None`.
    #[must_use]
    pub fn fields<const N: usize>(&self, keys: [&str; N]) -> Option<[&JsonValue; N]> {
        let JsonValue::Obj(members) = self else { return None };
        if members.len() != N {
            return None;
        }
        let mut values = [&JsonValue::Null; N];
        for ((slot, want), (key, value)) in values.iter_mut().zip(keys).zip(members) {
            if key != want {
                return None;
            }
            *slot = value;
        }
        Some(values)
    }

    /// Returns the number if this is a numeric value.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// Returns the number if it is written as decimal digits only and
    /// fits a `u64`: no sign, fraction or exponent, and no rounding.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(text) if text.bytes().all(|b| b.is_ascii_digit()) => text.parse().ok(),
            _ => None,
        }
    }

    /// Returns the string if this is a string value.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the elements if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Error produced when parsing malformed JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a JSON document, tolerating whitespace between tokens.
///
/// # Errors
/// Returns a [`JsonError`] describing the first malformed construct,
/// including nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { input, pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    /// Byte offset of the next token; always on a character boundary.
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn rest(&self) -> &str {
        self.input.get(self.pos..).unwrap_or_default()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", char::from(byte))))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting deeper than MAX_DEPTH"));
                }
                self.depth += 1;
                let value = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.rest().starts_with(text) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{text}'")))
        }
    }

    /// Keeps the number's text; it must still read as an `f64`.
    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = self
            .input
            .get(start..self.pos)
            .filter(|t| t.parse::<f64>().is_ok())
            .ok_or_else(|| self.err("malformed number"))?;
        Ok(JsonValue::Num(text.to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
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
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self
                                .input
                                .get(self.pos..self.pos + 4)
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .ok_or_else(|| self.err("bad unicode escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let ch = self
                        .rest()
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("unterminated string"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Incremental pretty-printer producing serde_json-style output
/// (two-space indent, `"key": value`). Keys and string values are
/// escaped.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open object or array: whether it holds an item yet.
    open: Vec<bool>,
}

impl JsonWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn pad(&mut self) {
        for _ in 0..self.open.len() {
            self.out.push_str("  ");
        }
    }

    fn before_item(&mut self) {
        if let Some(has_items) = self.open.last_mut() {
            if *has_items {
                self.out.push(',');
            }
            *has_items = true;
            self.out.push('\n');
            self.pad();
        }
    }

    fn key(&mut self, key: &str) {
        self.before_item();
        push_escaped(&mut self.out, key);
        self.out.push_str(": ");
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.open.push(false);
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        if self.open.pop().unwrap_or(false) {
            self.out.push('\n');
            self.pad();
        }
        self.out.push(bracket);
        self
    }

    /// Opens the top-level (or a nested) object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.before_item();
        self.open('{')
    }

    /// Opens a named nested object.
    pub fn begin_named_object(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.open('{')
    }

    /// Closes the current object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens a named array.
    pub fn begin_named_array(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.open('[')
    }

    /// Closes the current array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Writes a `"key": value` field from the value's `Display` text.
    fn field(&mut self, key: &str, value: impl fmt::Display) -> &mut Self {
        self.key(key);
        // Writing to a String cannot fail.
        let _ = write!(self.out, "{value}");
        self
    }

    /// Writes a `"key": <unsigned>` field.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.field(key, value)
    }

    /// Writes a `"key": <signed>` field.
    pub fn field_i64(&mut self, key: &str, value: i64) -> &mut Self {
        self.field(key, value)
    }

    /// Writes a `"key": <unsigned>` field, or `"key": null` for `None`.
    pub fn field_opt_u64(&mut self, key: &str, value: Option<u64>) -> &mut Self {
        match value {
            Some(v) => self.field(key, v),
            None => self.field(key, "null"),
        }
    }

    /// Writes a `"key": <float>` field.
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.field(key, value)
    }

    /// Writes a `"key": "value"` field.
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        push_escaped(&mut self.out, value);
        self
    }

    /// Writes a `"key": true|false` field.
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.field(key, value)
    }

    /// Writes a bare unsigned array element.
    pub fn item_u64(&mut self, value: u64) -> &mut Self {
        self.before_item();
        let _ = write!(self.out, "{value}");
        self
    }

    /// Finishes and returns the document.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

/// Returns `s` as a quoted JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_escaped(&mut out, s);
    out
}

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_matches_pretty_layout() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("clips", 3).field_i64("skew", -2).field_opt_u64("top", None);
        w.begin_named_array("pair");
        w.item_u64(1).item_u64(2);
        w.end_array();
        w.begin_named_object("empty");
        w.end_object();
        w.end_object();
        let json = w.finish();
        assert_eq!(
            json,
            "{\n  \"clips\": 3,\n  \"skew\": -2,\n  \"top\": null,\n  \"pair\": [\n    1,\n    2\n  ],\n  \"empty\": {}\n}"
        );
        let v = parse(&json).unwrap();
        assert_eq!(v.get("clips").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(v.get("pair").and_then(JsonValue::as_arr).map(<[JsonValue]>::len), Some(2));
    }

    #[test]
    fn escape_handles_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
        assert_eq!(escape("plain"), "\"plain\"");
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse("{not json").is_err());
        assert!(parse("").is_err());
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1 2]").is_err());
    }

    #[test]
    fn malformed_numbers_and_strings_are_typed_errors() {
        // Regression for the `.expect("ascii slice")` / `.expect("non-
        // empty")` sites this replaced: every degenerate number or
        // string shape must come back as a JsonError, never a panic.
        for bad in ["-", "1e+e+", "--3", "[1,", "\"abc", "\"ab\\", "{\"k\"", "\"\\u12"] {
            let err = parse(bad).unwrap_err();
            assert!(!err.message.is_empty(), "input {bad:?} must yield a message");
        }
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse(r#"{"s": "a\"b\n", "arr": [1, {"x": -2.5}], "b": true, "n": null}"#).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("a\"b\n"));
        let arr = v.get("arr").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr[1].get("x").and_then(JsonValue::as_f64), Some(-2.5));
    }

    #[test]
    fn nesting_is_bounded() {
        // Without the limit, recursion on 100 000 unclosed brackets
        // overflows the stack and aborts the process.
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let over = format!("{{\"k\": {at_limit}}}");
        assert!(parse(&over).is_err());
    }

    #[test]
    fn fields_demand_the_exact_key_sequence() {
        let v = parse(r#"{"a": 1, "b": 2}"#).unwrap();
        let [a, b] = v.fields(["a", "b"]).unwrap();
        assert_eq!((a.as_u64(), b.as_u64()), (Some(1), Some(2)));
        assert_eq!(v.fields(["b", "a"]), None, "reordered");
        assert_eq!(v.fields(["a"]), None, "extra key");
        assert_eq!(v.fields(["a", "b", "c"]), None, "missing key");
        assert_eq!(parse("[1]").unwrap().fields(["a"]), None, "not an object");
    }

    #[test]
    fn as_u64_reads_digits_only() {
        let num = |text: &str| parse(text).unwrap();
        assert_eq!(num("18446744073709551615").as_u64(), Some(u64::MAX));
        for text in ["18446744073709551616", "-1", "1.0", "1e3", "-0"] {
            assert_eq!(num(text).as_u64(), None, "{text}");
        }
        assert_eq!(num("1e3").as_f64(), Some(1000.0));
    }
}
