//! A minimal self-contained JSON value type, writer and parser.
//!
//! The build environment is hermetic (no `serde`), and the artifact layer
//! needs only three things: a tree value type, a *canonical* writer (object
//! keys sorted, shortest round-trip float formatting) so that two runs of
//! the same plan render byte-identical documents, and a parser for the
//! tolerance-aware diff tool. All three live here in ~300 lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::HarnessError;

/// A JSON document node.
///
/// Integers and floats are kept distinct so that counters and seeds
/// round-trip exactly (an `u64` seed does not fit `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (wide enough for `u64` seeds and counters).
    Int(i128),
    /// A finite double. Non-finite values must be encoded as strings by the
    /// caller ([`Json::num`] does so).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; `BTreeMap` keeps key order canonical.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Encodes a float, mapping non-finite values to descriptive strings
    /// (plain JSON has no NaN/Infinity literals).
    #[must_use]
    pub fn num(value: f64) -> Json {
        if value.is_finite() {
            Json::Float(value)
        } else {
            Json::Str(format!("{value}"))
        }
    }

    /// An empty object.
    #[must_use]
    pub fn object() -> Json {
        Json::Object(BTreeMap::new())
    }

    /// Inserts `key` into an object node; panics on non-objects (caller
    /// bug).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not [`Json::Object`].
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Object(map) => {
                map.insert(key.to_owned(), value.into());
                self
            }
            // dpm-lint: allow(no_panic, reason = "documented API contract (see # Panics): set on a non-object is a caller bug, not a runtime condition")
            other => panic!("Json::set on non-object {other:?}"),
        }
    }

    /// Looks up `key` in an object node.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The node's float value, if it is numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            #[allow(clippy::cast_precision_loss)]
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The node's value as a `u64`, if it is an integer in range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The node's string value, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders the canonical compact-but-indented form.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the canonical single-line form — one value per line, as the
    /// checkpoint journal needs (one JSONL entry per completed task).
    #[must_use]
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                let _ = write!(out, "{f:?}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                // `{:?}` is Rust's shortest round-trip form ("1.0", "1e-12").
                let _ = write!(out, "{f:?}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    item.write_into(out, indent + 1);
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_into(out, indent + 1);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Json`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, HarnessError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters after document"));
        }
        Ok(value)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(i128::from(v))
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(i128::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i128)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Array(v)
    }
}

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn err(pos: usize, reason: &str) -> HarnessError {
    HarnessError::Json {
        offset: pos,
        reason: reason.to_owned(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while bytes
        .get(*pos)
        .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
    {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), HarnessError> {
    if bytes
        .get(*pos..)
        .is_some_and(|rest| rest.starts_with(token.as_bytes()))
    {
        *pos += token.len();
        Ok(())
    } else {
        Err(err(*pos, &format!("expected `{token}`")))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, HarnessError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(err(*pos, "expected `,` or `]`")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                map.insert(key, parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(map));
                    }
                    _ => return Err(err(*pos, "expected `,` or `}`")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, HarnessError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err(*pos, "non-ascii \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        out.push(
                            char::from_u32(code).ok_or_else(|| err(*pos, "invalid codepoint"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character.
                let rest = std::str::from_utf8(bytes.get(*pos..).unwrap_or(&[]))
                    .map_err(|_| err(*pos, "invalid utf-8"))?;
                let c = rest.chars().next().ok_or_else(|| err(*pos, "empty"))?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, HarnessError> {
    let start = *pos;
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' | b'-' | b'+' => *pos += 1,
            b'.' | b'e' | b'E' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(bytes.get(start..*pos).unwrap_or(&[]))
        .map_err(|_| err(start, "bad number"))?;
    if text.is_empty() {
        return Err(err(start, "expected a value"));
    }
    if is_float {
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| err(start, "bad float"))
    } else {
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|_| err(start, "bad integer"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_document() {
        let mut doc = Json::object();
        doc.set("b", 3u64);
        doc.set("a", 1.5);
        doc.set("list", vec![Json::Null, Json::Bool(true), Json::Int(-2)]);
        doc.set("text", "hi \"there\"\n");
        let rendered = doc.render();
        let parsed = Json::parse(&rendered).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn compact_form_is_single_line_and_round_trips() {
        let mut doc = Json::object();
        doc.set("b", 3u64);
        doc.set("a", 1.5);
        doc.set("list", vec![Json::Null, Json::Bool(true), Json::Int(-2)]);
        doc.set("text", "hi \"there\"\n");
        let compact = doc.render_compact();
        assert!(!compact.contains('\n'), "compact form must be one line");
        assert_eq!(Json::parse(&compact).unwrap(), doc);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn as_u64_accepts_only_in_range_integers() {
        assert_eq!(Json::Int(0).as_u64(), Some(0));
        assert_eq!(Json::Int(i128::from(u64::MAX)).as_u64(), Some(u64::MAX));
        assert_eq!(Json::Int(i128::from(u64::MAX) + 1).as_u64(), None);
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert_eq!(Json::Float(1.0).as_u64(), None);
        assert_eq!(Json::Str("1".to_owned()).as_u64(), None);
    }

    #[test]
    fn keys_render_sorted() {
        let mut doc = Json::object();
        doc.set("zeta", 1u64);
        doc.set("alpha", 2u64);
        let rendered = doc.render();
        assert!(rendered.find("alpha").unwrap() < rendered.find("zeta").unwrap());
    }

    #[test]
    fn u64_seed_round_trips_exactly() {
        let seed = u64::MAX - 3;
        let doc = Json::from(seed);
        let parsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(parsed, Json::Int(i128::from(seed)));
    }

    #[test]
    fn shortest_float_form_round_trips() {
        for v in [1.0, 0.1, 1e-12, 123456.789, -2.5e300] {
            let parsed = Json::parse(&Json::num(v).render()).unwrap();
            assert_eq!(parsed.as_f64().unwrap(), v);
        }
    }

    #[test]
    fn non_finite_floats_become_strings() {
        assert_eq!(Json::num(f64::NAN), Json::Str("NaN".to_owned()));
        assert_eq!(Json::num(f64::INFINITY), Json::Str("inf".to_owned()));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parses_nested_escapes() {
        let parsed = Json::parse(r#"{"k": "aA\n"}"#).unwrap();
        assert_eq!(parsed.get("k"), Some(&Json::Str("aA\n".to_owned())));
    }
}
