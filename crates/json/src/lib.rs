//! Minimal JSON support with zero dependencies.
//!
//! The workspace exchanges telemetry through a small, fixed JSON schema
//! (see `wp_telemetry::io`); this crate supplies just enough JSON — a
//! value type, a pull [`Reader`] with positional errors that both the
//! tree parser and typed decoders are built on, and compact/pretty
//! writers — to serve that schema offline, with no registry crates.
//! Nesting is bounded at [`MAX_DEPTH`] levels.
//!
//! Object member order is preserved (members are a `Vec`, not a map),
//! so emitted documents are deterministic and diffs stay readable.
//! Numbers are `f64`; non-finite values serialize as `null`, matching
//! the common interchange convention.

use std::borrow::Cow;
use std::fmt;

/// A JSON value. Object members keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered `(key, value)` members.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document, requiring it to span the whole input.
    /// Arrays and objects may nest at most [`MAX_DEPTH`] levels.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut reader = Reader::new(text);
        let value = reader.value()?;
        reader.finish()?;
        Ok(value)
    }

    /// Member lookup on objects; `None` for other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as a usize, if this is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= usize::MAX as f64 => {
                Some(*x as usize)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Serializes with 2-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.compact())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(f64::from(v))
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Builds a [`Json::Obj`] with literal syntax:
/// `obj! { "key" => value, "other" => value }`. Values go through
/// `Into<Json>`.
#[macro_export]
macro_rules! obj {
    ( $( $key:expr => $value:expr ),* $(,)? ) => {
        $crate::Json::Obj(vec![ $( ($key.to_string(), $crate::Json::from($value)) ),* ])
    };
}

fn write_value(out: &mut String, v: &Json, indent: Option<usize>, depth: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(x) => write_number(out, *x),
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => write_seq(
            out,
            items.iter(),
            items.len(),
            indent,
            depth,
            |out, item, ind, d| {
                write_value(out, item, ind, d);
            },
            ('[', ']'),
        ),
        Json::Obj(members) => write_seq(
            out,
            members.iter(),
            members.len(),
            indent,
            depth,
            |out, (key, value), ind, d| {
                write_string(out, key);
                out.push(':');
                if ind.is_some() {
                    out.push(' ');
                }
                write_value(out, value, ind, d);
            },
            ('{', '}'),
        ),
    }
}

fn write_seq<I: Iterator>(
    out: &mut String,
    items: I,
    len: usize,
    indent: Option<usize>,
    depth: usize,
    mut write_item: impl FnMut(&mut String, I::Item, Option<usize>, usize),
    (open, close): (char, char),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for (idx, item) in items.enumerate() {
        if idx > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            for _ in 0..step * (depth + 1) {
                out.push(' ');
            }
        }
        write_item(out, item, indent, depth + 1);
    }
    if let Some(step) = indent {
        out.push('\n');
        for _ in 0..step * depth {
            out.push(' ');
        }
    }
    out.push(close);
}

fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    if x == x.trunc() && x.abs() < 1e15 {
        // Integral values print without a fractional part or exponent.
        out.push_str(&format!("{}", x as i64));
    } else {
        // Rust's f64 Display is the shortest round-trip representation.
        out.push_str(&format!("{x}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// How deeply arrays and objects may nest in a parsed document. The
/// deepest document the workspace exchanges, a corpus file, nests 8
/// levels; the bound keeps a hostile body from exhausting the stack of
/// whatever thread builds or drops its tree.
pub const MAX_DEPTH: usize = 128;

/// A pull reader over one JSON document: the caller asks for the value
/// it expects next, and the reader checks and consumes it.
///
/// [`Json::parse`] is this reader asked for one [`Reader::value`], so a
/// typed decoder built on the other methods accepts the same grammar,
/// reports the same errors and shares one nesting bound with the tree.
/// Every method skips the whitespace before what it reads.
///
/// ```
/// use wp_json::Reader;
///
/// let mut r = Reader::new(r#"{"xs": [1, 2.5]}"#);
/// r.begin_object().unwrap();
/// assert_eq!(r.next_key().unwrap().as_deref(), Some("xs"));
/// r.begin_array().unwrap();
/// let mut xs = Vec::new();
/// while r.next_element().unwrap() {
///     xs.push(r.number().unwrap());
/// }
/// assert_eq!(r.next_key().unwrap(), None);
/// r.finish().unwrap();
/// assert_eq!(xs, [1.0, 2.5]);
/// ```
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open at the cursor.
    depth: usize,
    /// Whether the innermost open array or object has yet to be asked
    /// for its first element. One flag serves every level: a nested
    /// value is read to its end before its parent is asked again.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    /// Reads the next value, whatever its type, into a tree.
    pub fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(|s| Json::Str(s.into_owned())),
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.begin_object()?;
                let mut members = Vec::new();
                while let Some(key) = self.next_key()? {
                    let value = self.value()?;
                    members.push((key.into_owned(), value));
                }
                Ok(Json::Obj(members))
            }
            Some(b'-' | b'0'..=b'9') => self.scan_number().map(Json::Num),
            Some(b) => Err(self.unexpected(b)),
        }
    }

    /// Opens an array; [`Reader::next_element`] then walks it.
    pub fn begin_array(&mut self) -> Result<(), String> {
        self.open(b'[')
    }

    /// Whether the open array has another element, which the caller
    /// then reads. `false` once it has consumed the closing `]`.
    pub fn next_element(&mut self) -> Result<bool, String> {
        self.skip_ws();
        if !std::mem::take(&mut self.first) {
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    return Ok(true);
                }
                Some(b']') => {}
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        } else if self.peek() != Some(b']') {
            return Ok(true);
        }
        self.close();
        Ok(false)
    }

    /// Opens an object; [`Reader::next_key`] then walks it.
    pub fn begin_object(&mut self) -> Result<(), String> {
        self.open(b'{')
    }

    /// The key of the open object's next member, with its `:` consumed
    /// so the caller reads the value next; `None` once it has consumed
    /// the closing `}`. Keys without escapes borrow from the input.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        self.skip_ws();
        if !std::mem::take(&mut self.first) {
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.close();
                    return Ok(None);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        } else if self.peek() == Some(b'}') {
            self.close();
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Reads a number, converted by `str::parse::<f64>` from the longest
    /// run of number characters (so `1e400` reads as infinity).
    pub fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'-' | b'0'..=b'9') => self.scan_number(),
            Some(b) => Err(self.unexpected(b)),
        }
    }

    /// Reads a string. One without escapes borrows from the input.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            // Copy a run of plain bytes at once. It ends on an ASCII
            // byte, so it is a whole UTF-8 slice of the input.
            while let Some(&b) = bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            let run = &self.text[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(run);
                    self.pos += 1;
                    let ch = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{0008}',
                        Some(b'f') => '\u{000C}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            // `unicode_escape` leaves the cursor past it.
                            s.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    };
                    s.push(ch);
                    self.pos += 1;
                }
                Some(_) => return Err(format!("unescaped control byte at {}", self.pos)),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    /// Requires that only whitespace is left.
    pub fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(format!("trailing characters at byte {}", self.pos));
        }
        Ok(())
    }

    /// Bytes of input not yet read.
    pub fn remaining(&self) -> usize {
        self.text.len() - self.pos
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn unexpected(&self, b: u8) -> String {
        format!("unexpected character '{}' at byte {}", b as char, self.pos)
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Consumes `bracket` and enters the array or object it opens.
    fn open(&mut self, bracket: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(bracket) && self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.expect(bracket)?;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Leaves the array or object whose closing bracket is at the cursor.
    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
        self.first = false;
    }

    /// The escape after `\u`, a surrogate pair taking both halves.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = self.hex4()?;
        let ch = if (0xD800..0xDC00).contains(&code) {
            if !self.eat_literal("\\u") {
                return Err(format!("unpaired surrogate at byte {}", self.pos));
            }
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(format!("invalid low surrogate at byte {}", self.pos));
            }
            char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
        } else {
            char::from_u32(code)
        };
        ch.ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let bytes = self.text.as_bytes();
        if end > bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = std::str::from_utf8(&bytes[self.pos..end])
            .map_err(|_| format!("invalid \\u escape at byte {}", self.pos))?;
        let code = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("invalid \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(code)
    }

    /// Scans `-? digits (. digits)? ([eE] [+-]? digits)?`, every part
    /// but the sign allowed empty, and converts the run with
    /// `str::parse::<f64>`, which rejects what is not a number.
    fn scan_number(&mut self) -> Result<f64, String> {
        let bytes = self.text.as_bytes();
        let digits = |mut i: usize| {
            while bytes.get(i).is_some_and(u8::is_ascii_digit) {
                i += 1;
            }
            i
        };
        let start = self.pos;
        let mut end = digits(start + usize::from(bytes[start] == b'-'));
        if bytes.get(end) == Some(&b'.') {
            end = digits(end + 1);
        }
        if let Some(b'e' | b'E') = bytes.get(end) {
            end += 1;
            if let Some(b'+' | b'-') = bytes.get(end) {
                end += 1;
            }
            end = digits(end);
        }
        self.pos = end;
        let text = &self.text[start..end];
        text.parse::<f64>()
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "-7", "3.25", "1e3"] {
            let v = Json::parse(text).unwrap();
            let again = Json::parse(&v.compact()).unwrap();
            assert_eq!(v, again, "{text}");
        }
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
    }

    #[test]
    fn numbers_round_trip_shortest() {
        assert_eq!(Json::Num(1.0).compact(), "1");
        assert_eq!(Json::Num(-0.125).compact(), "-0.125");
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
        let x = 0.1 + 0.2;
        let back = Json::parse(&Json::Num(x).compact()).unwrap();
        assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line\nbreak \"quote\" back\\slash tab\t unicode ü 統 \u{1}";
        let v = Json::Str(s.to_string());
        assert_eq!(Json::parse(&v.compact()).unwrap(), v);
        assert_eq!(
            Json::parse(r#""ü 😀""#).unwrap(),
            Json::Str("ü 😀".to_string())
        );
    }

    #[test]
    fn objects_preserve_member_order() {
        let v = obj! { "zeta" => 1.0, "alpha" => 2.0, "mid" => "x" };
        assert_eq!(v.compact(), r#"{"zeta":1,"alpha":2,"mid":"x"}"#);
        let parsed = Json::parse(&v.pretty()).unwrap();
        assert_eq!(parsed, v);
        assert_eq!(parsed.get("alpha").and_then(Json::as_f64), Some(2.0));
        assert_eq!(parsed.get("missing"), None);
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = obj! { "a" => vec![1.0, 2.0], "b" => Json::Obj(vec![]) };
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {}\n}"
        );
    }

    #[test]
    fn parse_errors_carry_position() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("[1, 2").unwrap_err().contains("']'"));
        assert!(Json::parse("{\"a\" 1}").unwrap_err().contains("':'"));
        assert!(Json::parse("[1] trailing")
            .unwrap_err()
            .contains("trailing"));
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn nesting_is_bounded_in_the_tree_and_the_reader() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            assert!(
                Json::parse(&nested(open, close, MAX_DEPTH)).is_ok(),
                "{open}"
            );
            let err = Json::parse(&nested(open, close, MAX_DEPTH + 1)).unwrap_err();
            let at = open.len() * MAX_DEPTH;
            assert_eq!(
                err,
                format!("nesting deeper than {MAX_DEPTH} levels at byte {at}"),
            );
        }
        // Far past the bound, the error comes at the bound, not from a
        // stack overflow.
        let err = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than 128 levels"), "{err}");

        // A typed walk counts against the same bound as the values it
        // reads in the tree.
        let mut r = Reader::new("[[[1]]]");
        r.begin_array().unwrap();
        assert!(r.next_element().unwrap());
        r.depth = MAX_DEPTH - 1;
        assert!(r.value().unwrap_err().contains("nesting deeper"));
    }

    #[test]
    fn reader_walks_a_document_and_borrows_plain_strings() {
        let text = r#" { "plain" : "a" , "esc\u00e9" : [ -0 , 1e400 , 01 , 1. ] , "e" : {} } "#;
        let mut r = Reader::new(text);
        r.begin_object().unwrap();
        let key = r.next_key().unwrap().unwrap();
        assert!(matches!(key, Cow::Borrowed("plain")));
        assert!(matches!(r.string().unwrap(), Cow::Borrowed("a")));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("escé"));
        r.begin_array().unwrap();
        let mut xs = Vec::new();
        while r.next_element().unwrap() {
            xs.push(r.number().unwrap());
        }
        assert_eq!(xs[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(xs[1..], [f64::INFINITY, 1.0, 1.0]);
        assert_eq!(r.next_key().unwrap().as_deref(), Some("e"));
        assert_eq!(r.value().unwrap(), Json::Obj(vec![]));
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();

        // Asked for a number, the reader takes only what `value` would
        // read as one.
        for text in [".5", "+1", "\"1\"", "nan", ""] {
            assert!(Reader::new(text).number().is_err(), "{text}");
        }
        assert!(Reader::new("[1 2]").value().is_err());
        let mut r = Reader::new("{} x");
        r.value().unwrap();
        assert_eq!(r.finish().unwrap_err(), "trailing characters at byte 3");
    }

    #[test]
    fn as_usize_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(4.0).as_usize(), Some(4));
        assert_eq!(Json::Num(4.5).as_usize(), None);
        assert_eq!(Json::Num(-1.0).as_usize(), None);
        assert_eq!(Json::Str("4".into()).as_usize(), None);
    }
}
