//! Recursive-descent JSON parser.
//!
//! Accepts RFC 8259 JSON. Duplicate object keys keep the last value (the
//! behaviour of most engines, and what the attribute-update code relies on).

use crate::number::Number;
use crate::value::{Json, JsonObject};
use std::fmt;

/// Error produced by [`parse`], carrying a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document. Trailing whitespace is allowed; any other
/// trailing content is an error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
        entries: Vec::new(),
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

/// Nesting depth cap: protects the parser against stack exhaustion on
/// adversarial inputs (attributes can come from untrusted clients).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// The entries of the objects being parsed, innermost last: an object
    /// collects its entries here and moves them into a block of its own
    /// length when it closes.
    entries: Vec<(String, Json)>,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(format!("expected keyword '{kw}'")))
        }
    }

    fn parse_value(&mut self) -> Result<Json, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("maximum nesting depth exceeded"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => {
                self.expect_keyword("true")?;
                Ok(Json::Bool(true))
            }
            Some(b'f') => {
                self.expect_keyword("false")?;
                Ok(Json::Bool(false))
            }
            Some(b'n') => {
                self.expect_keyword("null")?;
                Ok(Json::Null)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(JsonObject::new()));
        }
        let mark = self.entries.len();
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            self.entries.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or '}' in object"));
                }
            }
        }
        self.depth -= 1;
        Ok(Json::Object(self.entries.drain(mark..).collect()))
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => break,
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or ']' in array"));
                }
            }
        }
        self.depth -= 1;
        Ok(Json::Array(items))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        // Fast path: copy runs of plain bytes without per-byte pushes.
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // Safe: the input is a &str, and we only stopped at ASCII
                // boundaries, so the run is valid UTF-8.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 inside string"))?,
                );
            }
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => self.escape(&mut out)?,
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        match self.bump() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'b') => out.push('\u{0008}'),
            Some(b'f') => out.push('\u{000C}'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'u') => {
                let hi = self.hex4()?;
                let ch = if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: a low surrogate must follow.
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"))?
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("unexpected low surrogate"));
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                };
                out.push(ch);
            }
            _ => return Err(self.err("invalid escape sequence")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
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
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Num(Number::Int(v)));
            }
        }
        let v: f64 = text
            .parse()
            .map_err(|_| self.err("number out of representable range"))?;
        Ok(Json::Num(Number::Float(v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::int(42));
        assert_eq!(parse("-7").unwrap(), Json::int(-7));
        assert_eq!(parse("2.5").unwrap(), Json::float(2.5));
        assert_eq!(parse("1e3").unwrap(), Json::float(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::str("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a": [1, {"b": null}, "x"], "c": {"d": false}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().get_index(0), Some(&Json::int(1)));
        assert_eq!(
            doc.get("a").unwrap().get_index(1).unwrap().get("b"),
            Some(&Json::Null)
        );
        assert_eq!(doc.get_path(["c", "d"]), Some(&Json::Bool(false)));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            parse(r#""a\"b\\c\/d\n\tA""#).unwrap(),
            Json::str("a\"b\\c/d\n\tA")
        );
    }

    #[test]
    fn surrogate_pairs() {
        assert_eq!(parse(r#""😀""#).unwrap(), Json::str("😀"));
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn duplicate_keys_keep_last() {
        let doc = parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(doc.get("k"), Some(&Json::int(2)));
        assert_eq!(doc.as_object().unwrap().len(), 1);
        let doc = parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap();
        let keys: Vec<_> = doc.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["a", "b"], "a repeated key keeps its first position");
        assert_eq!(doc.get("a"), Some(&Json::int(3)));
    }

    #[test]
    fn parsed_objects_end_at_their_length() {
        for n in 1..=9 {
            let members: Vec<String> = (0..n).map(|i| format!(r#""k{i}": {{"x": {i}}}"#)).collect();
            let doc = parse(&format!("{{{}}}", members.join(", "))).unwrap();
            let obj = doc.as_object().unwrap();
            assert_eq!(obj.len(), n);
            assert_eq!(obj.capacity(), n, "{n} keys");
            for (_, inner) in obj.iter() {
                let inner = inner.as_object().unwrap();
                assert_eq!(inner.capacity(), inner.len(), "nested in {n} keys");
            }
        }
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "", "{", "[", "\"", "{]", "[1,]", "{\"a\":}", "tru", "01", "1.", "1e", "--1", "nullx",
            "[1] []",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_control_chars_in_strings() {
        assert!(parse("\"a\u{0001}b\"").is_err());
    }

    #[test]
    fn big_integer_falls_back_to_float() {
        let doc = parse("99999999999999999999").unwrap();
        assert!(matches!(doc, Json::Num(Number::Float(_))));
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn whitespace_everywhere() {
        let doc = parse(" \n\t { \"a\" : [ 1 , 2 ] } \r\n ").unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 2);
    }
}
