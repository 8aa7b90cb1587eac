//! The engine's one JSON lexer and one JSON serialiser, and a small document model on top.
//!
//! The offline build has no serde, so the engine carries its own:
//!
//! * [`JsonReader`] — a strict pull parser over `&str`. Typed decoders ([`crate::codec`])
//!   read store records and wire frames through it straight into their values.
//! * [`JsonWriter`] — appends compact JSON to a reusable buffer. Typed encoders write
//!   through it; integers take a digit fast path and strings are copied in escape-free
//!   runs.
//! * [`Json`] — a value tree for documents read or written as a whole (reports, tune
//!   leaderboards, configurations on disk). [`Json::parse`] builds it with the reader and
//!   its `Display` writes it with the writer, so a tree and a typed value see the same
//!   bytes the same way. Object keys keep insertion order, which keeps report files
//!   diff-stable across runs.
//!
//! Arrays and objects may nest at most [`MAX_DEPTH`] deep; a deeper document is an error,
//! never a stack overflow.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// The deepest nesting of arrays and objects [`JsonReader`] accepts. The engine's deepest
/// document (a store record with a timeline) nests eight levels.
pub const MAX_DEPTH: usize = 128;

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
    #[inline]
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
        let mut w = JsonWriter::new();
        self.write_pretty(&mut w, 0);
        w.out.push('\n');
        w.out
    }

    fn write_pretty(&self, w: &mut JsonWriter, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                w.out.push('[');
                for (i, item) in items.iter().enumerate() {
                    w.out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(&mut w.out, depth + 1);
                    item.write_pretty(w, depth + 1);
                }
                w.out.push('\n');
                indent(&mut w.out, depth);
                w.out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                w.out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    w.out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(&mut w.out, depth + 1);
                    w.escaped(key);
                    w.out.push_str(": ");
                    value.write_pretty(w, depth + 1);
                }
                w.out.push('\n');
                indent(&mut w.out, depth);
                w.out.push('}');
            }
            other => {
                // A scalar or an empty container: the compact form, with no separator.
                w.fresh = true;
                w.value(other);
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// Supports the full value model this writer emits — objects, arrays, strings (with
    /// `\uXXXX` escapes, including surrogate pairs), numbers, booleans and `null` — and
    /// rejects trailing garbage and nesting deeper than [`MAX_DEPTH`]. Numbers are parsed
    /// as `f64`, plain integers of up to 15 digits directly (they are exact) and the rest
    /// via Rust's grammar-compatible float parser, so everything the serialiser prints
    /// round-trips exactly.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut r = JsonReader::new(text);
        let value = r.value()?;
        r.finish()?;
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
}

/// Reads a `"0x…"` hex string's contents back into a `u64`. Strict: only hex digits may
/// follow the prefix (`from_str_radix` alone would also accept a sign character).
pub fn hex_u64(s: &str) -> Option<u64> {
    let s = s.strip_prefix("0x")?;
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
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

/// A syntax error inside a typed decode reads as the decoder's own error text.
impl From<JsonParseError> for String {
    fn from(e: JsonParseError) -> String {
        e.to_string()
    }
}

// ---------------------------------------------------------------------------------------
// The reader.
// ---------------------------------------------------------------------------------------

/// A strict pull parser over one JSON document.
///
/// Values are read in document order: [`JsonReader::begin_object`] /
/// [`JsonReader::next_key`] walk an object, [`JsonReader::begin_array`] /
/// [`JsonReader::next_item`] an array, and the scalar readers consume one value each.
/// [`JsonReader::skip_value`] consumes a value without building it but checks its syntax
/// all the same, and [`JsonReader::finish`] rejects trailing bytes. Every syntax error
/// names the byte offset it was noticed at, exactly as [`Json::parse`] reports it: the
/// tree parser is this reader.
#[derive(Debug, Clone)]
pub struct JsonReader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// A saved reader position ([`JsonReader::mark`]), to come back to with
/// [`JsonReader::reset`].
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pos: usize,
    depth: usize,
}

/// Where a reader stands inside one object or array: before its first entry, between
/// entries, or past its end.
#[derive(Debug, Clone, Copy)]
pub struct Cursor {
    first: bool,
    done: bool,
}

impl Cursor {
    #[inline]
    fn open() -> Self {
        Self {
            first: true,
            done: false,
        }
    }
}

/// The spans of one number literal: `start..end` overall, `int_start..int_end` its
/// integer digits (`int_start > start` for a leading minus, `end > int_end` when a
/// fraction or an exponent follows).
struct NumberSpan {
    start: usize,
    int_start: usize,
    int_end: usize,
    end: usize,
}

const EXACT_INT_LIMIT: u64 = 1 << 53;

impl<'a> JsonReader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// The current position, to come back to with [`JsonReader::reset`].
    #[inline]
    pub fn mark(&self) -> Mark {
        Mark {
            pos: self.pos,
            depth: self.depth,
        }
    }

    /// Returns to a position taken with [`JsonReader::mark`] on this reader.
    #[inline]
    pub fn reset(&mut self, mark: Mark) {
        self.pos = mark.pos;
        self.depth = mark.depth;
    }

    fn error(&self, message: &str) -> JsonParseError {
        JsonParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    #[inline]
    fn byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        // Compact documents have no whitespace: one compare settles the common case.
        while let Some(&b) = self.bytes.get(self.pos) {
            if b > b' ' || !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                break;
            }
            self.pos += 1;
        }
    }

    /// The first byte of the next value, past any whitespace (`None` at the end).
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    /// Checks that only whitespace follows the document.
    pub fn finish(&mut self) -> Result<(), JsonParseError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing characters after the document"));
        }
        Ok(())
    }

    #[inline]
    fn eat(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.byte() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    #[inline]
    fn literal(&mut self, literal: &str) -> Result<(), JsonParseError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected '{literal}'")))
        }
    }

    #[inline]
    fn open(&mut self, bracket: u8) -> Result<Cursor, JsonParseError> {
        self.skip_ws();
        if self.byte() == Some(bracket) && self.depth == MAX_DEPTH {
            return Err(self.error(&format!(
                "arrays and objects nest deeper than {MAX_DEPTH} levels"
            )));
        }
        self.eat(bracket)?;
        self.depth += 1;
        Ok(Cursor::open())
    }

    /// Consumes the separator before the next entry of a container or its closing
    /// bracket; `false` at the close.
    #[inline]
    fn next_entry(
        &mut self,
        cursor: &mut Cursor,
        close: u8,
        unexpected: &str,
    ) -> Result<bool, JsonParseError> {
        if cursor.done {
            return Ok(false);
        }
        self.skip_ws();
        match self.byte() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                cursor.done = true;
                return Ok(false);
            }
            Some(b',') if !cursor.first => self.pos += 1,
            _ if cursor.first => {}
            _ => return Err(self.error(unexpected)),
        }
        cursor.first = false;
        self.skip_ws();
        Ok(true)
    }

    /// Consumes a `{` and returns the cursor to walk the object with.
    #[inline]
    pub fn begin_object(&mut self) -> Result<Cursor, JsonParseError> {
        self.open(b'{')
    }

    /// Like [`JsonReader::begin_object`], but a value that is not an object is skipped and
    /// walks as an empty object: every field of it reads as missing.
    #[inline]
    pub fn object(&mut self) -> Result<Cursor, JsonParseError> {
        if self.peek() == Some(b'{') {
            return self.begin_object();
        }
        self.skip_value()?;
        Ok(Cursor {
            first: false,
            done: true,
        })
    }

    /// The next key of the object `cursor` walks, with the reader left at its value, or
    /// `None` past the closing `}`.
    #[inline]
    pub fn next_key(
        &mut self,
        cursor: &mut Cursor,
    ) -> Result<Option<Cow<'a, str>>, JsonParseError> {
        if !self.next_entry(cursor, b'}', "expected ',' or '}' in object")? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':')?;
        self.skip_ws();
        Ok(Some(key))
    }

    /// Consumes a `[` and returns the cursor to walk the array with.
    #[inline]
    pub fn begin_array(&mut self) -> Result<Cursor, JsonParseError> {
        self.open(b'[')
    }

    /// Whether the array `cursor` walks has another item; the reader is left at it, or
    /// past the closing `]`.
    #[inline]
    pub fn next_item(&mut self, cursor: &mut Cursor) -> Result<bool, JsonParseError> {
        self.next_entry(cursor, b']', "expected ',' or ']' in array")
    }

    /// Reads a string, borrowed from the input unless it holds escapes.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonParseError> {
        self.skip_ws();
        self.eat(b'"')?;
        // Scan the run up to the next quote or backslash. Both are ASCII, so the run ends
        // on a char boundary of the &str input.
        let start = self.pos;
        let run_end = |p: &Self| {
            p.bytes[p.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map_or(p.bytes.len(), |n| p.pos + n)
        };
        self.pos = run_end(self);
        if self.byte() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.byte() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.byte() {
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
                            out.push(self.unicode_escape()?);
                            continue; // already past the digits
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    self.pos = run_end(self);
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// The character of a `\uXXXX` escape (a surrogate pair takes two), read from just
    /// past its `\u`.
    fn unicode_escape(&mut self) -> Result<char, JsonParseError> {
        let unit = self.hex4()?;
        if (0xD800..0xDC00).contains(&unit) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if self.byte() != Some(b'\\') {
                return Err(self.error("lone high surrogate"));
            }
            self.pos += 1;
            self.eat(b'u')?;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error("invalid low surrogate"));
            }
            let cp = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
            char::from_u32(cp).ok_or_else(|| self.error("invalid surrogate pair"))
        } else if (0xDC00..0xE000).contains(&unit) {
            Err(self.error("lone low surrogate"))
        } else {
            char::from_u32(unit).ok_or_else(|| self.error("invalid \\u escape"))
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
        let v = slice.iter().fold(0u32, |acc, &b| {
            acc * 16 + (b as char).to_digit(16).unwrap_or(0)
        });
        self.pos = end;
        Ok(v)
    }

    #[inline]
    fn number_span(&mut self) -> Result<NumberSpan, JsonParseError> {
        self.skip_ws();
        let bytes = self.bytes;
        let digits_from = |mut i: usize| {
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            i
        };
        let start = self.pos;
        let int_start = start + usize::from(bytes.get(start) == Some(&b'-'));
        let int_end = digits_from(int_start);
        self.pos = int_end;
        if int_end == int_start {
            return Err(self.error("expected digits in number"));
        }
        if int_end - int_start > 1 && bytes[int_start] == b'0' {
            return Err(self.error("leading zeros are not allowed"));
        }
        if bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            let end = digits_from(self.pos);
            if end == self.pos {
                return Err(self.error("expected digits after decimal point"));
            }
            self.pos = end;
        }
        if matches!(bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let end = digits_from(self.pos);
            if end == self.pos {
                return Err(self.error("expected digits in exponent"));
            }
            self.pos = end;
        }
        Ok(NumberSpan {
            start,
            int_start,
            int_end,
            end: self.pos,
        })
    }

    #[inline]
    fn span_f64(&self, n: &NumberSpan) -> Result<f64, JsonParseError> {
        // A plain integer of at most 15 digits is below 2^53, so it converts to f64
        // exactly; negating it keeps `-0` as -0.0. Every other literal goes through
        // Rust's float parser.
        if n.end == n.int_end && n.int_end - n.int_start <= 15 {
            let magnitude = self.digits(n) as f64;
            return Ok(if n.start == n.int_start {
                magnitude
            } else {
                -magnitude
            });
        }
        self.text[n.start..n.end]
            .parse::<f64>()
            .map_err(|_| self.error("number out of range"))
    }

    #[inline]
    fn digits(&self, n: &NumberSpan) -> u64 {
        self.bytes[n.int_start..n.int_end]
            .iter()
            .fold(0u64, |acc, &d| acc * 10 + u64::from(d - b'0'))
    }

    /// Reads a number as `f64`.
    #[inline]
    pub fn number(&mut self) -> Result<f64, JsonParseError> {
        let span = self.number_span()?;
        self.span_f64(&span)
    }

    /// Reads a number and returns it as a `u64` when its value is integral and inside
    /// f64's exact integer range `0..2^53` — the numbers [`JsonWriter::u64`] writes —
    /// whatever its spelling (`7`, `7.0`, `7e0` and `-0` all qualify).
    #[inline]
    pub fn exact_u64(&mut self) -> Result<Option<u64>, JsonParseError> {
        let span = self.number_span()?;
        if span.start == span.int_start && span.end == span.int_end {
            // A plain non-negative integer: exact below 2^53; at or past it (or past
            // u64's 20 digits) the f64 it parses to is at least 2^53 too.
            if span.int_end - span.int_start > 19 {
                return Ok(None);
            }
            let v = self.digits(&span);
            return Ok((v < EXACT_INT_LIMIT).then_some(v));
        }
        let f = self.span_f64(&span)?;
        let exact = f.fract() == 0.0 && (0.0..EXACT_INT_LIMIT as f64).contains(&f);
        Ok(exact.then_some(f as u64))
    }

    /// Reads `true` or `false`.
    #[inline]
    pub fn boolean(&mut self) -> Result<bool, JsonParseError> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Reads `null`.
    #[inline]
    pub fn null(&mut self) -> Result<(), JsonParseError> {
        self.skip_ws();
        self.literal("null")
    }

    /// Consumes one value of any kind, checking its syntax.
    pub fn skip_value(&mut self) -> Result<(), JsonParseError> {
        match self.peek() {
            Some(b'{') => {
                let mut cursor = self.begin_object()?;
                while self.next_key(&mut cursor)?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'[') => {
                let mut cursor = self.begin_array()?;
                while self.next_item(&mut cursor)? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'"') => self.string().map(drop),
            Some(b't' | b'f') => self.boolean().map(drop),
            Some(b'n') => self.null(),
            Some(b'-' | b'0'..=b'9') => self.number_span().map(drop),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Reads one value of any kind as a tree.
    pub fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'{') => {
                let mut cursor = self.begin_object()?;
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key(&mut cursor)? {
                    pairs.push((key.into_owned(), self.value()?));
                }
                Ok(Json::Obj(pairs))
            }
            Some(b'[') => {
                let mut cursor = self.begin_array()?;
                let mut items = Vec::new();
                while self.next_item(&mut cursor)? {
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't' | b'f') => self.boolean().map(Json::Bool),
            Some(b'n') => self.null().map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            _ => Err(self.error("expected a JSON value")),
        }
    }
}

// ---------------------------------------------------------------------------------------
// The writer.
// ---------------------------------------------------------------------------------------

/// Appends compact JSON to a reusable buffer.
///
/// Separators are the writer's business: a value or key written after another one in the
/// same container gets its comma automatically, so a typed encoder only says what comes
/// next. Every scalar writer produces the bytes `Display for Json` would for the same
/// value (it is the same code).
#[derive(Debug, Clone)]
pub struct JsonWriter {
    out: String,
    /// No comma is due before the next key or value: at the start, right after an
    /// opening bracket, or right after a key.
    fresh: bool,
}

impl Default for JsonWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self {
            out: String::new(),
            fresh: true,
        }
    }

    /// Empties the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.out.clear();
        self.fresh = true;
    }

    /// The text written so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// The text written, as bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.out.into_bytes()
    }

    #[inline]
    fn separate(&mut self) {
        if !self.fresh {
            self.out.push(',');
        }
        self.fresh = false;
    }

    /// Opens an object.
    #[inline]
    pub fn begin_object(&mut self) {
        self.separate();
        self.out.push('{');
        self.fresh = true;
    }

    /// Closes the innermost open object.
    #[inline]
    pub fn end_object(&mut self) {
        self.out.push('}');
        self.fresh = false;
    }

    /// Writes an object key; its value comes next.
    #[inline]
    pub fn key(&mut self, key: &str) {
        self.separate();
        self.escaped(key);
        self.out.push(':');
        self.fresh = true;
    }

    /// Opens an array.
    #[inline]
    pub fn begin_array(&mut self) {
        self.separate();
        self.out.push('[');
        self.fresh = true;
    }

    /// Closes the innermost open array.
    #[inline]
    pub fn end_array(&mut self) {
        self.out.push(']');
        self.fresh = false;
    }

    /// Writes `null`.
    #[inline]
    pub fn null(&mut self) {
        self.separate();
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    #[inline]
    pub fn boolean(&mut self, v: bool) {
        self.separate();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Writes a string, escaped.
    #[inline]
    pub fn string(&mut self, s: &str) {
        self.separate();
        self.escaped(s);
    }

    /// Writes a `u64` losslessly: a plain number inside f64's exact integer range, a
    /// `"0x…"` hex string beyond it.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        if v < EXACT_INT_LIMIT {
            self.separate();
            self.digits(v);
        } else {
            self.hex(v);
        }
    }

    /// Writes a `u64` as a `"0x…"` hex string of sixteen digits, whatever its size.
    #[inline]
    pub fn hex(&mut self, v: u64) {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        self.separate();
        self.out.push_str("\"0x");
        for shift in (0..16).rev() {
            self.out
                .push(DIGITS[(v >> (shift * 4)) as usize & 0xf] as char);
        }
        self.out.push('"');
    }

    /// Writes a number. Integral values within f64's exact range print without a
    /// fractional part (negative zero as `-0`, which parses back to the same bits);
    /// everything else uses Rust's shortest round-trip float formatting, which is valid
    /// JSON. Non-finite values write `null`.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.separate();
        if !v.is_finite() {
            self.out.push_str("null");
        } else if v == 0.0 && v.is_sign_negative() {
            self.out.push_str("-0");
        } else if v.fract() == 0.0 && v.abs() < EXACT_INT_LIMIT as f64 {
            if v < 0.0 {
                self.out.push('-');
            }
            self.digits(v.abs() as u64);
        } else {
            // Writing to a String cannot fail.
            let _ = write!(self.out, "{v}");
        }
    }

    /// Writes a tree.
    pub fn value(&mut self, j: &Json) {
        match j {
            Json::Null => self.null(),
            Json::Bool(b) => self.boolean(*b),
            Json::Num(v) => self.f64(*v),
            Json::Str(s) => self.string(s),
            Json::Arr(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array();
            }
            Json::Obj(pairs) => {
                self.begin_object();
                for (key, value) in pairs {
                    self.key(key);
                    self.value(value);
                }
                self.end_object();
            }
        }
    }

    #[inline]
    fn digits(&mut self, mut v: u64) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        for &d in &buf[i..] {
            self.out.push(d as char);
        }
    }

    /// Writes `s` as a quoted JSON string. Every byte that needs an escape is ASCII, so
    /// the runs between them are copied whole and stay on char boundaries.
    #[inline]
    fn escaped(&mut self, s: &str) {
        let out = &mut self.out;
        out.push('"');
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            out.push_str(&s[run..i]);
            if escape.is_empty() {
                let _ = write!(out, "\\u{b:04x}");
            } else {
                out.push_str(escape);
            }
            run = i + 1;
        }
        out.push_str(&s[run..]);
        out.push('"');
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

impl fmt::Display for Json {
    /// Compact (single-line) JSON serialisation, through [`JsonWriter`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = JsonWriter::new();
        w.value(self);
        f.write_str(w.as_str())
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
        assert_eq!(
            doc.get("h").and_then(Json::as_str).and_then(hex_u64),
            Some(255)
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("a"), None);
        let hex = Json::hex(u64::MAX - 3);
        assert_eq!(hex.as_str().and_then(hex_u64), Some(u64::MAX - 3));
        // Strictly hex digits after the prefix — no signs, no empty payload.
        assert_eq!(hex_u64("0x+ff"), None);
        assert_eq!(hex_u64("0x"), None);
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
            let mut pretty = JsonWriter::new();
            json.write_pretty(&mut pretty, 0);
            assert_eq!(pretty.as_str(), written);
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
