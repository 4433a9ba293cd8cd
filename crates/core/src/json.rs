//! One hand-rolled JSON value module for the whole workspace: emit *and*
//! parse.
//!
//! The workspace deliberately has no serde (see `crates/compat/README.md`);
//! before this module every layer grew its own emitter or parser — the
//! Chrome-trace schema checker in [`crate::obs`], the witness reader in
//! `hetchol-analyze::mc`, `Figure::to_json`, the bench-report validator.
//! They now share this one [`JsonValue`], and the job-API wire format of
//! the `hetchol-serve` crate is built directly on it.
//!
//! [`parse_json`] is a single O(bytes) pass: each run of unescaped string
//! bytes is copied as one slice of the input, so a 16 MB job log replays
//! in linear time. Arrays and objects may nest at most 128 levels deep
//! (serde_json's default); deeper input is an error naming its byte
//! offset, never a stack overflow, because the parser's recursion depth
//! is the document's nesting depth and the server parses request bodies
//! from untrusted clients.
//!
//! Numbers are `f64` throughout, like JSON itself: integers are exact up
//! to 2⁵³ (large identifiers such as content hashes should travel as hex
//! *strings*, see [`crate::hash`]). The compact renderer prints integral
//! floats without a fractional part, so `u64` counters and nanosecond
//! timestamps round-trip byte-identically through
//! [`JsonValue::render`] → [`parse_json`].
//!
//! ```
//! use hetchol_core::json::{parse_json, JsonValue};
//!
//! let v = JsonValue::Obj(vec![
//!     ("n".into(), JsonValue::Num(8.0)),
//!     ("scheduler".into(), JsonValue::Str("dmdas".into())),
//! ]);
//! let text = v.render();
//! assert_eq!(text, r#"{"n":8,"scheduler":"dmdas"}"#);
//! assert_eq!(parse_json(&text).unwrap(), v);
//! ```

use std::fmt;
use std::fmt::Write as _;

/// A parsed or to-be-emitted JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in key order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Member lookup that *requires* the member to exist (wire-format
    /// readers want an error message naming the missing key).
    pub fn field(&self, key: &str) -> Result<&JsonValue, String> {
        match self {
            JsonValue::Obj(members) => members
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {key:?}")),
            other => Err(format!(
                "expected an object with field {key:?}, got {other:?}"
            )),
        }
    }

    /// The value as a non-negative integer (exact, `fract() == 0`).
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Ok(*n as u64)
            }
            other => Err(format!("expected a non-negative integer, got {other:?}")),
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            JsonValue::Num(n) => Ok(*n),
            other => Err(format!("expected a number, got {other:?}")),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            JsonValue::Str(s) => Ok(s),
            other => Err(format!("expected a string, got {other:?}")),
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(format!("expected a bool, got {other:?}")),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[JsonValue], String> {
        match self {
            JsonValue::Arr(items) => Ok(items),
            other => Err(format!("expected an array, got {other:?}")),
        }
    }

    /// Shorthand string constructor.
    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::Str(s.into())
    }

    /// Shorthand number constructor for anything convertible to `f64`
    /// (integers are exact up to 2⁵³ — see the module docs).
    pub fn num(n: impl Into<f64>) -> JsonValue {
        JsonValue::Num(n.into())
    }

    /// A `u64` as a JSON number. Debug-asserts the value survives the
    /// `f64` crossing; counters and nanosecond times always do.
    pub fn uint(n: u64) -> JsonValue {
        let f = n as f64;
        debug_assert_eq!(f as u64, n, "u64 {n} not exactly representable; send hex");
        JsonValue::Num(f)
    }

    /// Render compactly (no whitespace), in member order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Append the compact rendering to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_num(*n, out),
            JsonValue::Str(s) => escape_into(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Append `s` as a quoted, escaped JSON string.
pub fn escape_into(s: &str, out: &mut String) {
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

/// Append a JSON number: finite values via Rust's shortest round-tripping
/// `{}` formatting (integral floats print bare, `123` not `123.0`);
/// NaN/infinity become `null`, as JSON requires.
pub fn write_num(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Deepest nesting of arrays and objects [`parse_json`] accepts.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document (strict: one value, nothing trailing,
/// at most 128 levels of nesting).
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    /// The document; string runs are copied out as slices of it.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.bytes.get(self.pos).map(|&c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(&open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|&c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    /// A string literal. Each run of unescaped bytes is copied with one
    /// `push_str`: a run ends only at an ASCII `"` or `\`, so both of its
    /// ends are char boundaries of `text`.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            self.pos += run;
            out.push_str(&self.text[start..self.pos]);
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            match self.bytes.get(self.pos) {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b't') => out.push('\t'),
                Some(b'r') => out.push('\r'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => out.push(self.unicode_escape()?),
                _ => return Err(format!("bad escape at byte {}", self.pos)),
            }
            self.pos += 1;
        }
    }

    /// The `\u` escape whose `u` is at `pos`, leaving `pos` on its last
    /// hex digit. A high surrogate directly followed by an escaped low
    /// surrogate decodes to their one scalar; an unpaired surrogate is
    /// U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let unit = hex4(self.bytes.get(at + 1..at + 5))
            .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
        self.pos += 4;
        let low = match unit {
            0xD800..=0xDBFF if self.bytes.get(self.pos + 1..self.pos + 3) == Some(&b"\\u"[..]) => {
                hex4(self.bytes.get(self.pos + 3..self.pos + 7))
                    .filter(|low| (0xDC00..=0xDFFF).contains(low))
            }
            _ => None,
        };
        let scalar = match low {
            Some(low) => {
                self.pos += 6;
                0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
            }
            None => unit,
        };
        Ok(char::from_u32(scalar).unwrap_or('\u{fffd}'))
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// The UTF-16 code unit spelled by exactly four hex digits (RFC 8259 §7).
fn hex4(digits: Option<&[u8]>) -> Option<u32> {
    digits?
        .iter()
        .try_fold(0, |unit, &b| Some(unit << 4 | char::from(b).to_digit(16)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let v = JsonValue::Obj(vec![
            (
                "a".into(),
                JsonValue::Arr(vec![
                    JsonValue::Num(1.0),
                    JsonValue::Num(-2.5),
                    JsonValue::Str("q\"\n".into()),
                    JsonValue::Null,
                    JsonValue::Bool(true),
                    JsonValue::Obj(Vec::new()),
                ]),
            ),
            ("b".into(), JsonValue::Num(1e300)),
        ]);
        let text = v.render();
        assert_eq!(parse_json(&text).unwrap(), v);
    }

    #[test]
    fn integral_floats_print_bare() {
        assert_eq!(JsonValue::uint(123).render(), "123");
        assert_eq!(JsonValue::Num(123.5).render(), "123.5");
        let ns = 86_400_000_000_000u64; // a day in nanoseconds
        assert_eq!(JsonValue::uint(ns).render(), ns.to_string());
        assert_eq!(parse_json(&ns.to_string()).unwrap().as_u64().unwrap(), ns);
    }

    #[test]
    fn non_finite_numbers_emit_null() {
        assert_eq!(JsonValue::Num(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn typed_accessors_report_errors() {
        let v = parse_json(r#"{"n": 4, "s": "x", "b": true, "a": [1]}"#).unwrap();
        assert_eq!(v.field("n").unwrap().as_u64().unwrap(), 4);
        assert_eq!(v.field("s").unwrap().as_str().unwrap(), "x");
        assert!(v.field("b").unwrap().as_bool().unwrap());
        assert_eq!(v.field("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.field("missing").is_err());
        assert!(v.field("s").unwrap().as_u64().is_err());
        assert!(JsonValue::Num(1.5).as_u64().is_err());
        assert!(JsonValue::Null.field("x").is_err());
    }

    #[test]
    fn strict_parse_rejects_trailing() {
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn nesting_is_capped_with_the_offending_offset() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        let (arr, obj) = (("[", "]"), (r#"{"k":"#, "}"));
        assert!(parse_json(&nested(arr.0, arr.1, MAX_DEPTH)).is_ok());
        assert!(parse_json(&nested(obj.0, obj.1, MAX_DEPTH)).is_ok());
        assert_eq!(
            parse_json(&nested(arr.0, arr.1, MAX_DEPTH + 1)),
            Err("nesting deeper than 128 levels at byte 128".to_string())
        );
        assert_eq!(
            parse_json(&nested(obj.0, obj.1, MAX_DEPTH + 1)),
            Err("nesting deeper than 128 levels at byte 640".to_string())
        );
        // Far past the cap: an error, not a stack overflow.
        let err = parse_json(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // Depth counts the containers open, not the containers seen.
        let wide = vec![nested(arr.0, arr.1, MAX_DEPTH - 1); 3].join(",");
        assert!(parse_json(&format!("[{wide}]")).is_ok());
    }

    #[test]
    fn unicode_escapes_follow_rfc_8259() {
        for (json, want) in [
            (r#""\u0041""#, "A"),
            (r#""\u00e9\u00E9""#, "éé"),
            (r#""\u20ac""#, "€"),
            (r#""\ud83d\ude00""#, "😀"),
            (r#""\uD834\uDD1E!""#, "𝄞!"),
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ude00""#, "\u{fffd}"),
            (r#""\ud83dx""#, "\u{fffd}x"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\ud83d\ude00""#, "\u{fffd}😀"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
            (r#""\ud83d\n""#, "\u{fffd}\n"),
        ] {
            assert_eq!(parse_json(json), Ok(JsonValue::str(want)), "{json}");
        }
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u12""#,
            r#""\u12g4""#,
            r#""\u12é""#,
            r#""\ud83d\u+e00""#,
            r#""\ud83d\ude0""#,
        ] {
            let err = parse_json(bad).unwrap_err();
            assert!(err.contains("bad \\u escape at byte"), "{bad}: {err}");
        }
    }

    #[test]
    fn malformed_strings_keep_their_errors() {
        assert_eq!(
            parse_json(r#""unterminated \"é"#),
            Err("unterminated string".to_string())
        );
        assert_eq!(
            parse_json(r#""é\x""#),
            Err("bad escape at byte 4".to_string())
        );
    }
}
