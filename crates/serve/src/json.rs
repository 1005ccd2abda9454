//! A minimal JSON value type with a hand-rolled serializer and parser.
//!
//! `setm-serve` speaks newline-delimited JSON over TCP and the workspace
//! takes no network or serialization dependencies (the `shims/` policy),
//! so this module carries the whole wire format: a [`Json`] tree,
//! `to_string` (compact, key order preserved, shortest-roundtrip floats)
//! and [`parse`] (recursive descent, full string-escape handling).
//!
//! Serialization is *canonical*: the same `Json` tree always produces the
//! same bytes, and `parse(to_string(v)) == v`. The end-to-end tests lean
//! on this — a served outcome is byte-identical to the locally serialized
//! one because both go through this serializer.

use std::fmt::Write as _;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All JSON numbers are carried as `f64`; every count this protocol
    /// ships is far below 2^53, so round-trips are exact.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Members in insertion order (serialization preserves it).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, preserving order.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(members: I) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value (exact for |n| < 2^53).
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// A `u64` value (debug-asserts it fits the f64 integer range).
    pub fn u64(n: u64) -> Json {
        debug_assert!(n < (1 << 53), "count {n} exceeds exact f64 range");
        Json::Num(n as f64)
    }

    /// Member lookup on an object (first match; `None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Serialization: compact (no whitespace), deterministic — the same
/// tree always produces the same bytes (`to_string` comes with it).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Integers print without a fractional part; other finite floats use
/// Rust's shortest-roundtrip formatting (deterministic). Non-finite
/// values have no JSON form and serialize as `null`.
fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < (1u64 << 53) as f64 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with its byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting accepted by [`parse`]. The parser is
/// recursive-descent — one stack frame per open `[`/`{` — so without a
/// bound a line of a few hundred thousand `[`s (well under the server's
/// request-line cap) would overflow the thread stack, which aborts the
/// whole process in Rust. Past this depth the input is rejected with a
/// [`JsonError`] instead; the protocol's own trees are ~4 levels deep.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
    }

    /// Bookkeeping on container entry; errors past [`MAX_DEPTH`]. The
    /// matching decrements sit on the containers' success exits (an
    /// error abandons the whole parse, so no unwinding is needed).
    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting exceeds {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(self.err(format!("bad escape \\{}", other as char)));
                        }
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so this is safe).
                    let start = self.pos;
                    let rest = &self.bytes[start..];
                    let len = utf8_len(rest[0]);
                    let s =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos += len;
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        // Surrogate pairs: \uD800-\uDBFF must be followed by \uDC00-\uDFFF.
        if (0xD800..=0xDBFF).contains(&first) {
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let second = self.hex4()?;
                if (0xDC00..=0xDFFF).contains(&second) {
                    let c = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("bad surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.err("bad \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError { offset: start, message: format!("bad number {text:?}") })
    }
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) {
        let text = v.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(&back, v, "round trip of {text}");
        // Canonical: re-serialization is byte-identical.
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-17.0),
            Json::Num(0.005),
            Json::Num(1e-9),
            Json::Num(9007199254740991.0), // 2^53 - 1
            Json::Str(String::new()),
            Json::str("plain"),
            Json::str("esc \" \\ \n \t \u{08} \u{0c} \r"),
            Json::str("unicode: ü → 🦀"),
            Json::str("\u{1}\u{1f}"),
        ] {
            round_trip(&v);
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::u64(59).to_string(), "59");
        assert_eq!(Json::Num(903.0).to_string(), "903");
        assert_eq!(Json::Num(0.3).to_string(), "0.3");
    }

    #[test]
    fn containers_round_trip_and_preserve_order() {
        let v = Json::obj([
            ("ok", Json::Bool(true)),
            ("items", Json::Arr(vec![Json::u64(1), Json::u64(2)])),
            ("nested", Json::obj([("z", Json::Null), ("a", Json::num(1.5))])),
        ]);
        round_trip(&v);
        assert_eq!(v.to_string(), r#"{"ok":true,"items":[1,2],"nested":{"z":null,"a":1.5}}"#);
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": 3, "b": "x", "c": [1.5], "d": true, "e": -1}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e").unwrap().as_u64(), None, "negative is not u64");
        assert_eq!(v.get("e").unwrap().as_f64(), Some(-1.0));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn whitespace_and_escapes_parse() {
        let v = parse(" { \"k\" : [ 1 , 2.5e1 , \"a\\u0041\\n\" ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_array().unwrap()[2].as_str(), Some("aA\n"));
        assert_eq!(v.get("k").unwrap().as_array().unwrap()[1].as_f64(), Some(25.0));
        let v = parse(r#""\ud83e\udd80""#).unwrap();
        assert_eq!(v.as_str(), Some("🦀"));
    }

    #[test]
    fn errors_carry_offsets() {
        for (text, offset_at_least) in [
            ("", 0),
            ("{", 1),
            ("[1,", 3),
            ("{\"a\" 1}", 5),
            ("tru", 0),
            ("\"abc", 4),
            ("1 2", 2),
            ("\"\\ud800\"", 1),
            ("{\"a\":}", 5),
        ] {
            let err = parse(text).unwrap_err();
            assert!(
                err.offset >= offset_at_least,
                "{text:?}: offset {} < {offset_at_least}",
                err.offset
            );
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Exactly at the limit parses.
        let at_limit = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&at_limit).is_ok());
        // One level deeper is a parse error, not a stack overflow.
        let over = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = parse(&over).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // The attack shape: a flood of opens with no closes, far past
        // the limit but well under the server's request-line cap.
        assert!(parse(&"[".repeat(200_000)).is_err());
        // Objects count toward the same budget.
        let objs = "{\"k\":".repeat(MAX_DEPTH + 1) + "null" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&objs).unwrap_err().message.contains("nesting"));
        // Depth is nesting, not container count: siblings don't add up.
        let wide = format!("[{}]", vec!["[1]"; 1000].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }
}
