//! Reading a trace back: a minimal JSON parser and typed accessors.
//!
//! The workspace's vendored `serde_json` shim only *encodes*; this module is
//! the decoder for the one format the workspace produces — `trace.jsonl`
//! event lines. It is a small recursive-descent parser over the full JSON
//! grammar (objects, arrays, strings with escapes, numbers, literals), used
//! by the golden-trace regression test and any offline trace tooling.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object (`None` for other variants / missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric value as `u64` when it is an integer below 2^53. Numbers are
    /// held as `f64`, so a larger one (outside RFC 8259 §6's interoperable
    /// range) may already have been rounded to a neighbour: it is refused.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && *v < (1u64 << 53) as f64 => {
                let u = *v as u64;
                // Integer check without an exact float compare.
                if (u as f64 - *v).abs() < 1e-9 {
                    Some(u)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after JSON value"));
    }
    Ok(value)
}

/// Parse every non-empty line of a JSON-lines document, with the 1-based
/// line number attached to any error.
///
/// # Errors
///
/// Returns the first offending line's number and [`ParseError`].
pub fn parse_lines(input: &str) -> Result<Vec<Json>, (usize, ParseError)> {
    let mut out = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse(line) {
            Ok(v) => out.push(v),
            Err(e) => return Err((idx + 1, e)),
        }
    }
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ParseError {
        ParseError { at: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{text}'")))
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[')?;
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
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs are not produced by the sink;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid; take chars from the remainder).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    match s.chars().next() {
                        Some(c) => {
                            out.push(c);
                            self.pos += c.len_utf8();
                        }
                        None => return Err(self.error("unterminated string")),
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.error("invalid \\u escape")),
            };
            cp = cp * 16 + d;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v =
            parse(r#"{"a":1,"b":[true,null,"x\ny"],"c":{"d":-2.5e1}}"#).expect("well-formed input");
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        let arr = v.get("b").and_then(Json::as_arr).expect("array");
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1], Json::Null);
        assert_eq!(arr[2].as_str(), Some("x\ny"));
        let d = v.get("c").and_then(|c| c.get("d")).and_then(Json::as_f64).expect("num");
        assert!((d + 25.0).abs() < 1e-12);
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
        assert_eq!(Json::Num(9_007_199_254_740_992.0).as_u64(), None, "2^53 may be rounded");
        assert_eq!(Json::Num(9_007_199_254_740_991.0).as_u64(), Some(9_007_199_254_740_991));
    }

    #[test]
    fn unicode_escapes() {
        let v = parse(r#""café""#).expect("escape parses");
        assert_eq!(v.as_str(), Some("café"));
    }

    #[test]
    fn errors_carry_position() {
        let err = parse("{\"a\": }").expect_err("malformed");
        assert_eq!(err.at, 6);
        assert!(parse("[1,2").is_err());
        assert!(parse("1 2").is_err(), "trailing characters must error");
    }

    #[test]
    fn parse_lines_reports_line_numbers() {
        let ok = parse_lines("{\"a\":1}\n\n{\"b\":2}\n").expect("two lines");
        assert_eq!(ok.len(), 2);
        let (line, _) = parse_lines("{\"a\":1}\nnot json\n").expect_err("bad line");
        assert_eq!(line, 2);
    }

    #[test]
    fn round_trips_sink_output() {
        // Whatever the sink writes, the parser must read back.
        let _guard = crate::test_lock::hold();
        crate::reset();
        let buf = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        crate::enable_with_writer(Box::new(crate::sink::tests::SharedBuf(buf.clone())));
        crate::sink::emit(
            "demo",
            &[
                ("n", crate::sink::Field::U64(9)),
                ("s", crate::sink::Field::Str("a\"b".into())),
                ("f", crate::sink::Field::F64(f64::NAN)),
            ],
        );
        crate::registry::counter_add("demo.count", 3);
        let _ = crate::finish();
        crate::disable();
        let text = String::from_utf8(match buf.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        })
        .expect("utf8 trace");
        let events = parse_lines(&text).expect("sink output parses");
        assert_eq!(events.len(), 2, "{text}");
        assert_eq!(events[0].get("type").and_then(Json::as_str), Some("demo"));
        assert_eq!(events[0].get("n").and_then(Json::as_u64), Some(9));
        assert_eq!(events[0].get("s").and_then(Json::as_str), Some("a\"b"));
        assert_eq!(events[0].get("f"), Some(&Json::Null));
        assert_eq!(events[1].get("type").and_then(Json::as_str), Some("summary"));
        let counters = events[1].get("counters").and_then(Json::as_obj).expect("counters");
        assert_eq!(counters.get("demo.count").and_then(Json::as_u64), Some(3));
        crate::reset();
    }
}
