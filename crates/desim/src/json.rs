//! Minimal JSON document model, writer, and parser.
//!
//! The harness serialises [`crate::record::RunRecord`]s to disk and the
//! golden-record regression test reads them back; with no external
//! crates available the (small) JSON subset we need lives here. Object
//! member order is preserved so written records diff cleanly.
//!
//! Non-finite numbers (which JSON cannot represent) are written as
//! `null`; the parser maps `null` back to [`Json::Null`].
//!
//! Both directions run in time linear in the document: the parser never
//! looks past the current token, and the writer formats each number
//! once. The parser is total: any input yields a value or a
//! [`JsonError`], with nesting capped at 128 levels so hostile input
//! cannot overflow the stack.

use std::fmt;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert (or replace) a member; builder-style.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    /// Insert (or replace) a member. Panics on non-objects.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        let Json::Obj(members) = self else {
            panic!("Json::set on a non-object")
        };
        let value = value.into();
        match members.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => members.push((key.to_string(), value)),
        }
    }

    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Integer value, if this is a number that is exactly integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Element slice, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].write(out, ind);
            }),
            Json::Obj(members) => write_seq(out, indent, '{', '}', members.len(), |out, i, ind| {
                write_string(out, &members[i].0);
                out.push_str(": ");
                members[i].1.write(out, ind);
            }),
        }
    }

    /// Parse a JSON document (must consume the full input).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(value)
    }
}

fn write_number(out: &mut String, x: f64) {
    use fmt::Write;
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
        write!(out, "{}", x as i64).unwrap();
    } else {
        // 17 significant digits round-trips every f64.
        let start = out.len();
        write!(out, "{x:.17e}").unwrap();
        debug_assert_eq!(out[start..].parse::<f64>(), Ok(x));
    }
}

fn write_string(out: &mut String, s: &str) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Start a new line indented two spaces per `depth`.
fn newline_indent(out: &mut String, depth: usize) {
    const SPACES: &str = "                                                                ";
    out.push('\n');
    let mut n = 2 * depth;
    while n > 0 {
        let k = n.min(SPACES.len());
        out.push_str(&SPACES[..k]);
        n -= k;
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|d| d + 1);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            newline_indent(out, d);
        }
        item(out, i, inner);
    }
    if let Some(d) = indent {
        newline_indent(out, d);
    }
    out.push(close);
}

/// Compact (single-line) serialisation.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(x)
        } else {
            Json::Null
        }
    }
}
impl From<u32> for Json {
    fn from(x: u32) -> Json {
        Json::Num(x as f64)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

/// Parse failure: message plus byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`Json::parse`] accepts. Records nest
/// a handful of levels; the cap turns hostile input (thousands of `[`)
/// into an error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote or
            // backslash in one go. Both are ASCII, so the run ends on a
            // char boundary of the (already valid UTF-8) input.
            let Some(run) = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            self.escape(&mut out)?;
        }
    }

    /// Decode the escape after a backslash into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape(out);
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        out.push(c);
        Ok(())
    }

    /// Decode the code point of a `\u` escape (its `u` already eaten).
    /// A UTF-16 high surrogate must be followed by an escaped low
    /// surrogate, and the pair decodes to one supplementary-plane char;
    /// a lone or misordered surrogate is an error.
    fn unicode_escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let high = self.hex4()?;
        let code = match high {
            0xD800..=0xDBFF => {
                if !self.bytes[self.pos..].starts_with(b"\\u") {
                    return Err(self.err("unpaired high surrogate"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.err("high surrogate not followed by a low one"));
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.err("unpaired low surrogate")),
            code => code,
        };
        out.push(char::from_u32(code).ok_or_else(|| self.err("bad \\u code point"))?);
        Ok(())
    }

    /// Exactly four hex digits (no sign, no shorter run).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let code = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|digits| {
                digits
                    .iter()
                    .try_fold(0, |acc, &b| Some((acc << 4) | (b as char).to_digit(16)?))
            })
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_nested_document() {
        let doc = Json::obj()
            .with("version", 1u64)
            .with("label", "ffbp spmd")
            .with("ok", true)
            .with("none", Json::Null)
            .with("time_ms", 12.345678901234567)
            .with(
                "phases",
                Json::Arr(vec![
                    Json::obj().with("name", "merge").with("index", 0u64),
                    Json::obj().with("name", "merge").with("index", 1u64),
                ]),
            );
        for text in [doc.to_string(), doc.to_string_pretty()] {
            let back = Json::parse(&text).unwrap();
            assert_eq!(back, doc, "failed on {text}");
        }
    }

    #[test]
    fn numbers_roundtrip_exactly() {
        for x in [
            0.0,
            -1.5,
            1e-300,
            123_456_789.123_456_78,
            f64::MIN_POSITIVE,
            2.0_f64.powi(60),
        ] {
            let text = Json::Num(x).to_string();
            let back = Json::parse(&text).unwrap();
            assert_eq!(back.as_f64().unwrap(), x, "{text}");
        }
        // Counters are u64 but stay below 2^53 in practice.
        let text = Json::from(9_007_199_254_740_992u64 - 1).to_string();
        assert_eq!(
            Json::parse(&text).unwrap().as_u64().unwrap(),
            9_007_199_254_740_991
        );
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line\nbreak \"quoted\" back\\slash \t tab £ λ";
        let text = Json::from(s).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_str().unwrap(), s);
        assert_eq!(Json::parse(r#""λ""#).unwrap().as_str().unwrap(), "λ");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::from(f64::NAN), Json::Null);
        assert_eq!(Json::from(f64::INFINITY), Json::Null);
    }

    #[test]
    fn parse_errors_carry_position() {
        let err = Json::parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("01x").is_err());
        assert!(Json::parse("{} extra").is_err());
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let objs = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(Json::parse(&objs).unwrap_err().message, "nesting too deep");
    }

    #[test]
    fn unicode_escapes_need_exactly_four_hex_digits() {
        assert_eq!(Json::parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
        assert_eq!(Json::parse(r#""\u00e9x""#).unwrap().as_str(), Some("éx"));
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u04""#,
            r#""\u004g""#,
            r#""\u"#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_fail() {
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("😀")
        );
        assert_eq!(
            Json::parse(r#""a\uD834\uDD1Eb""#).unwrap().as_str(),
            Some("a𝄞b")
        );
        for bad in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ude00\ud83d""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn set_replaces_and_get_finds() {
        let mut o = Json::obj().with("a", 1u64);
        o.set("a", 2u64);
        o.set("b", "x");
        assert_eq!(o.get("a").unwrap().as_u64(), Some(2));
        assert_eq!(o.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(o.get("missing"), None);
        assert_eq!(o.as_object().unwrap().len(), 2);
    }
}
