//! A minimal JSON reader/writer for corpus interchange.
//!
//! Supports the full JSON value grammar (objects, arrays, strings with
//! escapes, numbers, booleans, null). Self-contained so the crate's only
//! dependency stays `rand`; the subset NVD, CWE and CAPEC extracts need is
//! exactly plain JSON.
//!
//! The parser also reads request bodies, so hostile input costs it no
//! more than its length: arrays and objects nest at most [`MAX_DEPTH`]
//! deep (the recursion never outgrows a worker's stack), and a string is
//! copied a run at a time.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (key order not preserved; keys sorted).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object map, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(map) => Some(map),
            _ => None,
        }
    }

    /// Object field lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object().and_then(|map| map.get(key))
    }
}

/// Error parsing JSON text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    at: usize,
    detail: String,
}

impl JsonError {
    fn new(at: usize, detail: impl Into<String>) -> Self {
        JsonError {
            at,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.detail)
    }
}

impl std::error::Error for JsonError {}

/// The deepest nesting of arrays and objects [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// [`JsonError`] with the byte offset of the problem, including nesting
/// deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut parser = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(JsonError::new(parser.pos, "trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(
                self.pos,
                format!("expected `{}`", byte as char),
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(JsonError::new(
                        self.pos,
                        format!("nesting deeper than {MAX_DEPTH}"),
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(JsonError::new(
                self.pos,
                format!("unexpected `{}`", other as char),
            )),
            None => Err(JsonError::new(self.pos, "unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(JsonError::new(self.pos, format!("expected `{text}`")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(JsonError::new(self.pos, "expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(JsonError::new(self.pos, "expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(JsonError::new(self.pos, "unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4(start)?;
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                // Surrogate pair.
                                if self.peek() != Some(b'\\') {
                                    return Err(JsonError::new(start, "lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(JsonError::new(start, "lone high surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4(start)?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(JsonError::new(start, "invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| JsonError::new(start, "invalid code point"))?
                            } else {
                                char::from_u32(code)
                                    .ok_or_else(|| JsonError::new(start, "invalid code point"))?
                            };
                            out.push(ch);
                            // hex4 leaves pos after the 4 digits; the
                            // shared increment below must not run.
                            continue;
                        }
                        _ => return Err(JsonError::new(self.pos, "invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next `"` or `\`. Both are
                    // ASCII, so the run ends on a char boundary.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |run| self.pos + run);
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self, start: usize) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| JsonError::new(start, "truncated \\u escape"))?;
        let text =
            std::str::from_utf8(digits).map_err(|_| JsonError::new(start, "invalid \\u escape"))?;
        let code = u32::from_str_radix(text, 16)
            .map_err(|_| JsonError::new(start, "invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::new(start, "invalid number"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| JsonError::new(start, "invalid number"))
    }
}

/// Writes a string with JSON escaping into `out`.
pub fn write_escaped(out: &mut String, text: &str) {
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
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
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("-1.5e2").unwrap(), JsonValue::Number(-150.0));
        assert_eq!(
            parse(r#""hello""#).unwrap(),
            JsonValue::String("hello".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let value = parse(r#"{"a": [1, {"b": "c"}], "d": null}"#).unwrap();
        assert_eq!(
            value.get("a").unwrap().as_array().unwrap()[0],
            JsonValue::Number(1.0)
        );
        assert_eq!(
            value.get("a").unwrap().as_array().unwrap()[1]
                .get("b")
                .unwrap()
                .as_str(),
            Some("c")
        );
        assert_eq!(value.get("d"), Some(&JsonValue::Null));
    }

    #[test]
    fn string_escapes_decode() {
        assert_eq!(
            parse(r#""a\n\t\"\\A""#).unwrap().as_str(),
            Some("a\n\t\"\\A")
        );
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("\u{1F600}"));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn unicode_passthrough() {
        assert_eq!(parse("\"caf\u{e9}\"").unwrap().as_str(), Some("café"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "tru", "\"open", "{\"a\" 1}", "1 2", "{,}"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}f\u{1F600}";
        let mut encoded = String::new();
        write_escaped(&mut encoded, nasty);
        assert_eq!(parse(&encoded).unwrap().as_str(), Some(nasty));
    }

    /// Parses `input` on a thread with a pool worker's 2 MiB stack.
    fn parse_on_worker_stack(input: String) -> Result<JsonValue, JsonError> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&input))
            .expect("spawn parser thread")
            .join()
            .expect("the parser never overflows its stack")
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("json error at byte {MAX_DEPTH}: nesting deeper than {MAX_DEPTH}")
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for depth in [10_000, 1_000_000] {
            let arrays = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            let objects = format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
            let unclosed = "[".repeat(depth);
            for input in [arrays, objects, unclosed] {
                let err = parse_on_worker_stack(input).unwrap_err().to_string();
                assert!(err.contains("nesting deeper than"), "{err}");
                assert!(!err.contains('\n'));
            }
        }
    }

    #[test]
    fn long_strings_keep_every_char_around_escapes() {
        let text = format!(
            "{}\\n{}\\u00e9",
            "caf\u{e9} ".repeat(1000),
            "\u{1F600}".repeat(1000)
        );
        let expected = format!(
            "{}\n{}\u{e9}",
            "caf\u{e9} ".repeat(1000),
            "\u{1F600}".repeat(1000)
        );
        assert_eq!(
            parse(&format!("\"{text}\"")).unwrap().as_str(),
            Some(expected.as_str())
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(BTreeMap::new()));
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(Vec::new()));
        assert_eq!(parse("  [ ]  ").unwrap(), JsonValue::Array(Vec::new()));
    }
}
