//! The one flat-JSON path in the workspace: a tiny ordered builder
//! ([`JsonObj`]) and the matching one-level parser
//! ([`parse_flat_jsonl`]). No JSON crate is sanctioned in this
//! air-gapped build, so every emitter (metrics snapshots, the
//! benchmark's result lines) renders through here and every consumer
//! (the JSONL event wire, CLI tests, snapshot round-trips) parses
//! through here — one serialization path instead of N hand-rolled
//! `format!` strings and scanners.

use std::fmt::Write as _;

/// A value in a flat JSON object.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// An unsigned integer (rendered without a decimal point).
    U64(u64),
    /// A float (non-finite values render as `0`, which keeps the line
    /// machine-parseable — telemetry must never poison its own feed).
    F64(f64),
    /// A string (escaped on render).
    Str(String),
    /// A boolean.
    Bool(bool),
    /// A parsed `null`. Nothing renders one; it exists so that a reader
    /// can tell "no value" from the number `0`.
    Null,
}

impl JsonValue {
    /// The value as `u64` if it is a non-negative integer reading.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(v) => Some(*v),
            JsonValue::F64(f) if f.fract() == 0.0 && *f >= 0.0 && *f <= u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// The value as `f64` if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::U64(v) => Some(*v as f64),
            JsonValue::F64(f) => Some(*f),
            _ => None,
        }
    }
}

/// An ordered flat JSON object under construction. Field order is
/// emission order — deterministic output for deterministic input.
#[derive(Debug, Clone, Default)]
pub struct JsonObj {
    fields: Vec<(String, JsonValue)>,
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an unsigned-integer field.
    pub fn u64(mut self, name: &str, v: u64) -> Self {
        self.fields.push((name.to_string(), JsonValue::U64(v)));
        self
    }

    /// Appends a float field.
    pub fn f64(mut self, name: &str, v: f64) -> Self {
        self.fields.push((name.to_string(), JsonValue::F64(v)));
        self
    }

    /// Appends a string field.
    pub fn str(mut self, name: &str, v: &str) -> Self {
        self.fields
            .push((name.to_string(), JsonValue::Str(v.to_string())));
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, name: &str, v: bool) -> Self {
        self.fields.push((name.to_string(), JsonValue::Bool(v)));
        self
    }

    /// The fields appended so far, in order.
    pub fn fields(&self) -> &[(String, JsonValue)] {
        &self.fields
    }

    /// Renders the object as one JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(16 + self.fields.len() * 24);
        out.push('{');
        for (i, (name, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_str(&mut out, name);
            out.push(':');
            match value {
                JsonValue::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                JsonValue::F64(f) if f.is_finite() => {
                    let _ = write!(out, "{f:?}");
                }
                JsonValue::F64(_) => out.push('0'),
                JsonValue::Str(s) => render_str(&mut out, s),
                JsonValue::Bool(b) => {
                    let _ = write!(out, "{b}");
                }
                JsonValue::Null => out.push_str("null"),
            }
        }
        out.push('}');
        out
    }
}

fn render_str(out: &mut String, s: &str) {
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

/// Parses one flat (non-nested) JSON object line into ordered
/// `(key, value)` pairs. Integers without sign/exponent/fraction parse
/// as [`JsonValue::U64`] — exact over all of `u64` — and other numbers
/// as [`JsonValue::F64`]; `null` parses as [`JsonValue::Null`]. Nested
/// objects/arrays are rejected — snapshot and event lines are flat by
/// design.
pub fn parse_flat_jsonl(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            fields.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing bytes after JSON object".into());
    }
    Ok(fields)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected '{}', got {other:?}", want as char)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + (d as char)
                                    .to_digit(16)
                                    .ok_or_else(|| format!("bad hex digit {:?}", d as char))?;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-assemble a UTF-8 sequence starting at `b`.
                    let start = self.pos - 1;
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.keyword("null", JsonValue::Null),
            Some(b'{' | b'[') => Err("nested values not allowed in flat JSONL".into()),
            Some(_) => self.number(),
            None => Err("expected a value".into()),
        }
    }

    fn keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected `{word}`"))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if text.bytes().all(|b| b.is_ascii_digit()) && !text.is_empty() {
            text.parse::<u64>()
                .map(JsonValue::U64)
                .map_err(|e| format!("bad integer `{text}`: {e}"))
        } else {
            text.parse::<f64>()
                .map(JsonValue::F64)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_render_parse_round_trip() {
        let line = JsonObj::new()
            .u64("seq", 3)
            .u64("events", 12_345_678_901_234)
            .f64("rate", 1234.5)
            .str("bench", "ingest \"smoke\"\n")
            .bool("lenient", false)
            .render();
        let fields = parse_flat_jsonl(&line).unwrap();
        assert_eq!(fields[0], ("seq".into(), JsonValue::U64(3)));
        assert_eq!(fields[1].1.as_u64(), Some(12_345_678_901_234));
        assert_eq!(fields[2].1.as_f64(), Some(1234.5));
        assert_eq!(
            fields[3].1,
            JsonValue::Str("ingest \"smoke\"\n".to_string())
        );
        assert_eq!(fields[4].1, JsonValue::Bool(false));
    }

    #[test]
    fn non_finite_floats_render_parseable() {
        let line = JsonObj::new()
            .f64("x", f64::NAN)
            .f64("y", f64::INFINITY)
            .render();
        let fields = parse_flat_jsonl(&line).unwrap();
        assert_eq!(fields[0].1.as_f64(), Some(0.0));
        assert_eq!(fields[1].1.as_f64(), Some(0.0));
    }

    #[test]
    fn rejects_nested_and_malformed() {
        assert!(parse_flat_jsonl("{\"a\":{\"b\":1}}").is_err());
        assert!(parse_flat_jsonl("{\"a\":[1]}").is_err());
        assert!(parse_flat_jsonl("{\"a\":1} extra").is_err());
        assert!(parse_flat_jsonl("{\"a\"1}").is_err());
        assert!(parse_flat_jsonl("").is_err());
    }

    #[test]
    fn integers_are_exact_and_null_is_not_a_number() {
        let fields = parse_flat_jsonl(r#"{"a":18446744073709551615,"b":null,"c":-1}"#).unwrap();
        assert_eq!(fields[0].1, JsonValue::U64(u64::MAX));
        assert_eq!(fields[1].1, JsonValue::Null);
        assert_eq!((fields[1].1.as_u64(), fields[1].1.as_f64()), (None, None));
        assert_eq!(fields[2].1, JsonValue::F64(-1.0));
        assert!(parse_flat_jsonl(r#"{"a":18446744073709551616}"#).is_err());
    }

    #[test]
    fn empty_object_parses() {
        assert_eq!(parse_flat_jsonl("{}").unwrap(), Vec::new());
        assert_eq!(JsonObj::new().render(), "{}");
    }

    #[test]
    fn unicode_survives_the_round_trip() {
        let line = JsonObj::new()
            .str("name", "Basık—Ferhatosmanoğlu ✓")
            .render();
        let fields = parse_flat_jsonl(&line).unwrap();
        assert_eq!(
            fields[0].1,
            JsonValue::Str("Basık—Ferhatosmanoğlu ✓".to_string())
        );
    }
}
