//! A minimal hand-rolled JSON document model.
//!
//! The offline build has no serde, so the engine carries its own value type with a compact
//! `Display` serialiser, a pretty printer and — since the tuning subsystem needs to load
//! configurations back from disk — a small recursive-descent parser ([`Json::parse`]).
//! Object keys keep insertion order, which keeps report files diff-stable across runs.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Non-finite values serialise as `null` (JSON has no NaN/Infinity).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// A numeric value.
    pub fn num(v: f64) -> Self {
        Json::Num(v)
    }

    /// An integer value. `u64` seeds do not fit f64 losslessly, so serialise those with
    /// [`Json::hex`] instead.
    pub fn int(v: usize) -> Self {
        Json::Num(v as f64)
    }

    /// A 64-bit value rendered as a lossless `"0x…"` hex string.
    pub fn hex(v: u64) -> Self {
        Json::Str(format!("{v:#018x}"))
    }

    /// An object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// An array from values.
    pub fn arr(items: Vec<Json>) -> Self {
        Json::Arr(items)
    }

    /// Serialises with two-space indentation and a trailing newline, for files meant to be
    /// read and diffed by humans.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    // Writing to a String cannot fail.
                    let _ = write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            // Writing to a String cannot fail.
            other => {
                let _ = write!(out, "{other}");
            }
        }
    }
    /// Parses a JSON document.
    ///
    /// Supports the full value model this writer emits — objects, arrays, strings (with
    /// `\uXXXX` escapes, including surrogate pairs), numbers, booleans and `null` — and
    /// rejects trailing garbage. Numbers are parsed as `f64`, plain integers of up to 15
    /// digits directly (they are exact) and the rest via Rust's grammar-compatible float
    /// parser, so everything the serialiser prints round-trips exactly.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Looks up a key in an object (`None` for other variants or missing keys). When a key
    /// repeats, the first occurrence wins — matching how the writer never emits duplicates.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
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

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Decodes a `"0x…"` hex string written by [`Json::hex`] back into a `u64`. Strict:
    /// only hex digits may follow the prefix (`from_str_radix` alone would also accept a
    /// sign character).
    pub fn as_hex_u64(&self) -> Option<u64> {
        let s = self.as_str()?.strip_prefix("0x")?;
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(s, 16).ok()
    }
}

/// A JSON parse failure: what went wrong and the byte offset it was noticed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonParseError {
        JsonParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{literal}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
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

    fn string(&mut self) -> Result<String, JsonParseError> {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let cp = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.error("invalid surrogate pair"))?
                                } else {
                                    return Err(self.error("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return Err(self.error("lone low surrogate"));
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash whole. Both are ASCII,
                    // so the run ends on a char boundary of the &str input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        // Exactly four hex digits: `from_str_radix` alone would also accept "+041".
        if !slice.iter().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.error("invalid \\u escape"));
        }
        let s = std::str::from_utf8(slice).map_err(|_| self.error("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > from
        };
        let int_start = self.pos;
        if !digits(self) {
            return Err(self.error("expected digits in number"));
        }
        if self.pos - int_start > 1 && self.bytes[int_start] == b'0' {
            return Err(self.error("leading zeros are not allowed"));
        }
        let int_end = self.pos;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.error("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.error("expected digits in exponent"));
            }
        }
        // A plain integer of at most 15 digits is below 2^53, so it converts to f64
        // exactly; negating it keeps `-0` as -0.0. Every other literal goes through
        // Rust's float parser.
        if self.pos == int_end && int_end - int_start <= 15 {
            let magnitude = self.bytes[int_start..int_end]
                .iter()
                .fold(0u64, |acc, &d| acc * 10 + u64::from(d - b'0'))
                as f64;
            return Ok(Json::Num(if start == int_start {
                magnitude
            } else {
                -magnitude
            }));
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("number out of range"))
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes `s` as a quoted JSON string. Every byte that needs an escape is ASCII, so the
/// runs between them are copied whole and stay on char boundaries.
fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        match escape {
            Some(escape) => out.write_str(escape)?,
            None => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

fn write_num(f: &mut fmt::Formatter<'_>, v: f64) -> fmt::Result {
    if !v.is_finite() {
        return write!(f, "null");
    }
    // Integral values within f64's exact range print without a fractional part (negative
    // zero as `-0`, which parses back to the same bits); everything else uses Rust's
    // shortest round-trip float formatting, which is valid JSON.
    if v == 0.0 && v.is_sign_negative() {
        write!(f, "-0")
    } else if v.fract() == 0.0 && v.abs() < 9_007_199_254_740_992.0 {
        write!(f, "{}", v as i64)
    } else {
        write!(f, "{v}")
    }
}

impl fmt::Display for Json {
    /// Compact (single-line) JSON serialisation.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(f, *v),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    item.fmt(f)?;
                }
                f.write_char(']')
            }
            Json::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_escaped(f, key)?;
                    f.write_char(':')?;
                    value.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_serialisation() {
        let doc = Json::obj(vec![
            ("name", Json::str("fig7")),
            ("ok", Json::Bool(true)),
            ("cells", Json::arr(vec![Json::num(1.5), Json::int(2)])),
            ("none", Json::Null),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"name":"fig7","ok":true,"cells":[1.5,2],"none":null}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::str("a\"b\\c\nd\te\u{1}");
        assert_eq!(s.to_string(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn numbers_render_like_json() {
        assert_eq!(Json::num(3.0).to_string(), "3");
        assert_eq!(Json::num(-2.25).to_string(), "-2.25");
        assert_eq!(Json::num(f64::NAN).to_string(), "null");
        assert_eq!(Json::num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn negative_zero_round_trips_bit_exactly() {
        assert_eq!(Json::num(-0.0).to_string(), "-0");
        assert_eq!(Json::num(0.0).to_string(), "0");
        for v in [-0.0f64, 0.0] {
            let back = Json::parse(&Json::num(v).to_string()).unwrap();
            assert_eq!(back.as_f64().map(f64::to_bits), Some(v.to_bits()));
        }
    }

    #[test]
    fn hex_round_trips_u64() {
        let v = u64::MAX - 12345;
        let Json::Str(s) = Json::hex(v) else {
            panic!("hex is a string")
        };
        let parsed = u64::from_str_radix(s.trim_start_matches("0x"), 16).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn parse_round_trips_compact_and_pretty() {
        let doc = Json::obj(vec![
            ("name", Json::str("fig7")),
            ("ok", Json::Bool(true)),
            ("cells", Json::arr(vec![Json::num(1.5), Json::int(2)])),
            ("none", Json::Null),
            ("nested", Json::obj(vec![("k", Json::arr(Vec::new()))])),
        ]);
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.to_pretty()).unwrap(), doc);
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let original = Json::str("a\"b\\c\nd\te\u{1} λ 🦀");
        assert_eq!(Json::parse(&original.to_string()).unwrap(), original);
        // Escaped forms the writer never emits still parse.
        assert_eq!(
            Json::parse(r#""\u0041\/\ud83e\udd80""#).unwrap(),
            Json::str("A/🦀")
        );
    }

    #[test]
    fn parse_numbers() {
        assert_eq!(Json::parse("3").unwrap(), Json::num(3.0));
        assert_eq!(Json::parse("0").unwrap(), Json::num(0.0));
        assert_eq!(Json::parse("0.5").unwrap(), Json::num(0.5));
        assert_eq!(Json::parse("-0").unwrap(), Json::num(-0.0));
        assert_eq!(Json::parse("-2.25").unwrap(), Json::num(-2.25));
        assert_eq!(Json::parse("1e3").unwrap(), Json::num(1000.0));
        assert_eq!(Json::parse("2.5E-2").unwrap(), Json::num(0.025));
        let shortest = format!("{}", 0.1f64 + 0.2f64);
        assert_eq!(
            Json::parse(&shortest).unwrap(),
            Json::num(0.1 + 0.2),
            "shortest-round-trip formatting parses back to the same f64"
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "truth",
            "nul",
            "1.2.3",
            "\"abc",
            "{\"a\" 1}",
            "[1] x",
            "01x",
            "01",
            "-007",
            "\"\\q\"",
            "\"\\ud800\"",
            "\"\\u+041\"",
            "--1",
            "1e",
            "5.",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn accessors_navigate_documents() {
        let doc =
            Json::parse(r#"{"a": {"b": [1, 2]}, "s": "x", "t": true, "h": "0x00000000000000ff"}"#)
                .unwrap();
        assert_eq!(
            doc.get("a")
                .and_then(|a| a.get("b"))
                .and_then(|b| b.as_array())
                .map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("t").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("h").and_then(Json::as_hex_u64), Some(255));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("a"), None);
        let hex = Json::hex(u64::MAX - 3);
        assert_eq!(hex.as_hex_u64(), Some(u64::MAX - 3));
        // Strictly hex digits after the prefix — no signs, no empty payload.
        assert_eq!(Json::str("0x+ff").as_hex_u64(), None);
        assert_eq!(Json::str("0x").as_hex_u64(), None);
    }

    #[test]
    fn pretty_printing_indents_and_terminates() {
        let doc = Json::obj(vec![
            ("a", Json::int(1)),
            ("b", Json::arr(vec![Json::int(2), Json::int(3)])),
            ("empty", Json::Arr(Vec::new())),
        ]);
        let text = doc.to_pretty();
        assert!(text.ends_with('\n'));
        assert!(text.contains("  \"a\": 1"));
        assert!(text.contains("\"empty\": []"));
    }

    #[test]
    fn strings_round_trip_with_multibyte_chars_and_escapes_at_run_edges() {
        for text in [
            "λ",
            "🦀",
            "λab🦀",
            "\"λ",
            "🦀\\",
            "\nλ\t",
            "λ\"🦀\"λ",
            "\\\\",
            "\u{1}🦀\u{1f}",
            "a\u{7f}b\u{a0}c",
            "",
        ] {
            let json = Json::str(text);
            let written = json.to_string();
            assert_eq!(Json::parse(&written).unwrap(), json, "{written}");
            let mut pretty = String::new();
            json.write_pretty(&mut pretty, 0);
            assert_eq!(pretty, written);
        }
        // Escapes as the first and the last thing inside the quotes.
        assert_eq!(Json::parse(r#""\u00e9λ\u00e9""#).unwrap(), Json::str("éλé"));
        assert_eq!(Json::parse(r#""\"""#).unwrap(), Json::str("\""));
        assert_eq!(Json::parse(r#""\\λ\n""#).unwrap(), Json::str("\\λ\n"));
        // As an object key too.
        let doc = Json::obj(vec![("🦀\"k\"λ", Json::str("\tv\u{2}"))]);
        assert_eq!(doc.to_string(), "{\"🦀\\\"k\\\"λ\":\"\\tv\\u0002\"}");
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn raw_control_bytes_inside_strings_are_kept() {
        // The writer escapes them; the parser takes them verbatim.
        assert_eq!(
            Json::parse("\"a\u{1}\tb\nc\u{1f}\"").unwrap(),
            Json::str("a\u{1}\tb\nc\u{1f}")
        );
    }

    #[test]
    fn malformed_strings_fail_at_the_same_offsets() {
        let error = |text: &str| Json::parse(text).unwrap_err();
        assert_eq!(error("\"abc").message, "unterminated string");
        assert_eq!(error("\"abc").offset, 4);
        assert_eq!(error("\"abc\\").message, "invalid escape sequence");
        assert_eq!(error("\"abc\\").offset, 5);
        assert_eq!(error("\"abc\\q\"").message, "invalid escape sequence");
        assert_eq!(error("\"abc\\q\"").offset, 5);
        assert_eq!(error("\"λλ").offset, 5);
        assert_eq!(error("[\"a\\u00\"]").message, "invalid \\u escape");
    }

    #[test]
    fn integer_literals_parse_like_the_float_parser() {
        let bits = |text: &str| Json::parse(text).unwrap().as_f64().unwrap().to_bits();
        let fifteen = "999999999999999";
        assert_eq!(bits(fifteen), 999_999_999_999_999f64.to_bits());
        assert_eq!(
            bits("-999999999999999"),
            (-999_999_999_999_999f64).to_bits()
        );
        assert_eq!(bits("9999999999999999"), 1e16f64.to_bits());
        // 2^53 + 1 has no f64: the float parser rounds it to 2^53.
        assert_eq!(bits("9007199254740993"), 9_007_199_254_740_992f64.to_bits());
        assert_eq!(bits("-0"), (-0.0f64).to_bits());
        assert_eq!(bits("0"), 0.0f64.to_bits());
        assert!(Json::parse("-007").is_err());
        // Every digit count on both sides of the 15-digit cut, and a spread of values.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for digits in 1..=19 {
            for _ in 0..200 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let text = (x % 10u64.pow(digits)).to_string();
                for text in [text.clone(), format!("-{text}")] {
                    assert_eq!(
                        bits(&text),
                        text.parse::<f64>().unwrap().to_bits(),
                        "{text}"
                    );
                }
            }
        }
    }
}
