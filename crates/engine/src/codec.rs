//! The one codec every value crossing a process or disk boundary goes through.
//!
//! [`Codec`] streams a value straight to and from JSON text: [`Codec::write`] appends it
//! to a [`JsonWriter`] and [`Codec::read`] pulls it from a [`JsonReader`], with no
//! [`Json`] tree in between. The crate-private field-table macros generate both
//! directions from one list per type:
//!
//! * `codec_object!` — a struct as a JSON object keyed by field name;
//! * `codec_array!` — a struct of counters as a fixed-order array (compact: a
//!   timeline-bearing store record holds thousands of epoch rows);
//! * `codec_enum!` — an enum as an object tagged by a `"kind"` string;
//! * `codec_names!` — a fieldless enum as its one display spelling.
//!
//! Each table destructures its type exhaustively, so a field added later is a compile
//! error in exactly one place rather than a silently lossy record or frame. The tables
//! live next to the documents they describe: results in [`crate::report`], jobs and
//! configurations in [`crate::wire`].
//!
//! Encoding is lossless. A `u64` beyond f64's exact integer range falls back to a hex
//! string ([`JsonWriter::u64`]), and an `f64` relies on Rust's shortest-round-trip
//! formatting, which parses back to the same bits. Decoding is strict: a count that is
//! fractional, negative or out of range for its integer type is an error that names the
//! field.
//!
//! Reading accepts what a tree lookup would: object fields in any order, the first of a
//! repeated key wins, unknown keys are skipped (their syntax still checked), a missing
//! field reads as `null` (so an absent [`Option`] is `None`), and a value that is not an
//! object reads as an object with no fields. Within one value the first fault in
//! document order is the one reported. A whole document is read with [`read_envelope`]
//! and [`fill`], which keep each field's decode error until every field has been read,
//! so a syntax error anywhere outranks them and the caller checks fields in its own
//! order.

use std::borrow::Cow;
use std::path::PathBuf;

use crate::json::{hex_u64, Cursor, Json, JsonParseError, JsonReader, JsonWriter};

/// A value with a lossless JSON form: reading what [`Codec::write`] wrote gives the value
/// back, and writing the read value again gives the same bytes.
pub trait Codec: Sized {
    /// Appends the value to `w`.
    fn write(&self, w: &mut JsonWriter);
    /// Reads one value written by [`Codec::write`] from `r`. On an error the reader is
    /// left somewhere inside the value.
    fn read(r: &mut JsonReader<'_>) -> Result<Self, String>;

    /// The value as a tree, for callers that hold documents whole.
    fn encode(&self) -> Json {
        let mut w = JsonWriter::new();
        self.write(&mut w);
        Json::parse(w.as_str()).expect("the writer emits JSON the reader accepts")
    }

    /// Reads a value from a tree (for callers that hold documents whole): the tree's text
    /// through [`Codec::read`].
    fn decode(j: &Json) -> Result<Self, String> {
        Self::read(&mut JsonReader::new(&j.to_string()))
    }
}

/// A `u64` as a tree value, as [`JsonWriter::u64`] writes it: a plain number inside f64's
/// exact integer range, a hex string beyond it.
pub fn u64_json(v: u64) -> Json {
    if v < (1u64 << 53) {
        Json::num(v as f64)
    } else {
        Json::hex(v)
    }
}

/// A struct written as an object's fields, so a tagged enum can write a variant's payload
/// inline next to its `"kind"` (`codec_enum!`'s `V(..payload)` shape). `codec_object!`
/// implements it.
pub trait Fields: Sized {
    /// Writes the fields as keys and values into an object `w` has open.
    fn write_fields(&self, w: &mut JsonWriter);
    /// Reads the fields from the rest of the object `cursor` walks, through its closing
    /// `}`. A key the table does not know goes to `extra` first, which reads its value
    /// and returns `true` or leaves it to be skipped with `false`.
    fn read_fields<'a>(
        r: &mut JsonReader<'a>,
        cursor: &mut Cursor,
        extra: &mut dyn FnMut(&str, &mut JsonReader<'a>) -> Result<bool, String>,
    ) -> Result<Self, String>;
}

/// The `extra` of [`Fields::read_fields`] that takes no key.
pub fn no_extra(_: &str, _: &mut JsonReader<'_>) -> Result<bool, String> {
    Ok(false)
}

/// The value of an absent field: the type read from `null` (an [`Option`] is `None`), or
/// an error naming the field.
pub fn missing<T: Codec>(key: &str) -> Result<T, String> {
    T::read(&mut JsonReader::new("null")).map_err(|_| format!("missing field '{key}'"))
}

/// A field read into a slot by [`fill`], as a field-table lookup would decode it: errors
/// name the field, and an absent field reads as `null`.
pub fn take<T: Codec>(slot: Option<Result<T, String>>, key: &str) -> Result<T, String> {
    match slot {
        Some(value) => value.map_err(|e| format!("field '{key}': {e}")),
        None => missing(key),
    }
}

/// Reads the value at `r` into `slot` unless an earlier occurrence of its key already
/// filled it (the first wins; a later one is skipped). A decode error is kept in the slot
/// with the reader moved past the value; a syntax error ends the read.
pub fn fill<'a, T>(
    slot: &mut Option<Result<T, String>>,
    r: &mut JsonReader<'a>,
    read: impl FnOnce(&mut JsonReader<'a>) -> Result<T, String>,
) -> Result<(), JsonParseError> {
    if slot.is_some() {
        return r.skip_value();
    }
    let mark = r.mark();
    let value = read(r);
    if value.is_err() {
        r.reset(mark);
        r.skip_value()?;
    }
    *slot = Some(value);
    Ok(())
}

/// Walks the object at `r`, handing each key to `field`, which reads or skips its value
/// (with [`fill`] for the fields it wants). A value that is not an object walks as an
/// empty one. Only syntax errors end the walk.
pub fn read_envelope<'a>(
    r: &mut JsonReader<'a>,
    mut field: impl FnMut(&str, &mut JsonReader<'a>) -> Result<(), JsonParseError>,
) -> Result<(), JsonParseError> {
    let mut cursor = r.object()?;
    while let Some(key) = r.next_key(&mut cursor)? {
        field(&key, r)?;
    }
    Ok(())
}

/// Reads the `"kind"` tag of the object `cursor` walks, leaving the reader ready for the
/// rest of its fields. The writer puts the tag first; a tag further in is found by a
/// scan, after which the walk restarts at the object's first field (the tag then reads
/// as an unknown key).
pub fn read_kind<'a>(r: &mut JsonReader<'a>, cursor: &mut Cursor) -> Result<Cow<'a, str>, String> {
    let (start, start_cursor) = (r.mark(), *cursor);
    let mut first = true;
    while let Some(key) = r.next_key(cursor)? {
        if key == "kind" {
            if r.peek() != Some(b'"') {
                return Err("field 'kind': not a string".to_string());
            }
            let kind = r.string()?;
            if !first {
                r.reset(start);
                *cursor = start_cursor;
            }
            return Ok(kind);
        }
        first = false;
        r.skip_value()?;
    }
    Err("missing field 'kind'".to_string())
}

/// A `u64` carried as a `"0x…"` hex string whatever its size (seeds and hashes). Use it
/// in a field table as `field with hex`.
pub mod hex {
    use crate::json::{hex_u64, JsonReader, JsonWriter};

    /// Writes `v` as a hex string.
    pub fn write(v: &u64, w: &mut JsonWriter) {
        w.hex(*v);
    }

    /// Reads a hex string written by [`write()`].
    pub fn read(r: &mut JsonReader<'_>) -> Result<u64, String> {
        let v = match r.peek() {
            Some(b'"') => hex_u64(&r.string()?),
            _ => None,
        };
        v.ok_or_else(|| "not a \"0x…\" hex string".to_string())
    }
}

impl Codec for u64 {
    #[inline]
    fn write(&self, w: &mut JsonWriter) {
        w.u64(*self);
    }
    /// A plain integral number in f64's exact range, or a hex string.
    #[inline]
    fn read(r: &mut JsonReader<'_>) -> Result<Self, String> {
        let v = match r.peek() {
            Some(b'-' | b'0'..=b'9') => r.exact_u64()?,
            Some(b'"') => hex_u64(&r.string()?),
            _ => None,
        };
        v.ok_or_else(|| "not an unsigned integer".to_string())
    }
}

macro_rules! narrow_uint {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            #[inline]
            fn write(&self, w: &mut JsonWriter) {
                w.u64(*self as u64);
            }
            #[inline]
            fn read(r: &mut JsonReader<'_>) -> Result<Self, String> {
                u64::read(r)?
                    .try_into()
                    .map_err(|_| concat!("does not fit in ", stringify!($ty)).to_string())
            }
        }
    )*};
}

narrow_uint!(u32, usize);

impl Codec for f64 {
    #[inline]
    fn write(&self, w: &mut JsonWriter) {
        w.f64(*self);
    }
    #[inline]
    fn read(r: &mut JsonReader<'_>) -> Result<Self, String> {
        match r.peek() {
            Some(b'-' | b'0'..=b'9') => Ok(r.number()?),
            _ => Err("not a number".to_string()),
        }
    }
}

impl Codec for bool {
    #[inline]
    fn write(&self, w: &mut JsonWriter) {
        w.boolean(*self);
    }
    #[inline]
    fn read(r: &mut JsonReader<'_>) -> Result<Self, String> {
        match r.peek() {
            Some(b't' | b'f') => Ok(r.boolean()?),
            _ => Err("not a boolean".to_string()),
        }
    }
}

impl Codec for String {
    #[inline]
    fn write(&self, w: &mut JsonWriter) {
        w.string(self);
    }
    #[inline]
    fn read(r: &mut JsonReader<'_>) -> Result<Self, String> {
        match r.peek() {
            Some(b'"') => Ok(r.string()?.into_owned()),
            _ => Err("not a string".to_string()),
        }
    }
}

impl Codec for PathBuf {
    #[inline]
    fn write(&self, w: &mut JsonWriter) {
        w.string(&self.display().to_string());
    }
    #[inline]
    fn read(r: &mut JsonReader<'_>) -> Result<Self, String> {
        String::read(r).map(PathBuf::from)
    }
}

impl<T: Codec> Codec for Option<T> {
    #[inline]
    fn write(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write(w),
            None => w.null(),
        }
    }
    #[inline]
    fn read(r: &mut JsonReader<'_>) -> Result<Self, String> {
        if r.peek() == Some(b'n') {
            r.null()?;
            return Ok(None);
        }
        T::read(r).map(Some)
    }
}

impl<T: Codec> Codec for Vec<T> {
    #[inline]
    fn write(&self, w: &mut JsonWriter) {
        w.begin_array();
        for item in self {
            item.write(w);
        }
        w.end_array();
    }
    #[inline]
    fn read(r: &mut JsonReader<'_>) -> Result<Self, String> {
        if r.peek() != Some(b'[') {
            return Err("not an array".to_string());
        }
        let mut cursor = r.begin_array()?;
        let mut items = Vec::new();
        while r.next_item(&mut cursor)? {
            let i = items.len();
            items.push(T::read(r).map_err(|e| format!("entry {i}: {e}"))?);
        }
        Ok(items)
    }
}

impl<T: Codec> Codec for Box<T> {
    #[inline]
    fn write(&self, w: &mut JsonWriter) {
        T::write(self, w);
    }
    #[inline]
    fn read(r: &mut JsonReader<'_>) -> Result<Self, String> {
        T::read(r).map(Box::new)
    }
}

/// Reads the rest of the object `cursor` walks into a tuple of the listed fields, in
/// table order: each field's first occurrence decoded by its type's codec (or by
/// `module::read` for `name with module`), a field the table does not know offered to
/// `extra` and otherwise skipped, an absent field read as `null` (an error for a `with`
/// field). Errors return from the enclosing function.
macro_rules! read_fields {
    ($r:ident, $cursor:expr, $extra:expr, { $($f:ident $(with $via:ident)?),+ }) => {{
        $(let mut $f = None;)+
        while let Some(key) = $r.next_key($cursor)? {
            match &*key {
                $(stringify!($f) if $f.is_none() => {
                    $f = Some($crate::codec::read_fields!(@read $r $f $($via)?)
                        .map_err(|e| format!("field '{}': {e}", stringify!($f)))?);
                })+
                other => {
                    if !($extra)(other, &mut *$r)? {
                        $r.skip_value()?;
                    }
                }
            }
        }
        ($($crate::codec::read_fields!(@take $f $($via)?),)+)
    }};
    (@read $r:ident $f:ident) => { $crate::codec::Codec::read($r) };
    (@read $r:ident $f:ident $via:ident) => { $via::read($r) };
    (@take $f:ident) => {
        match $f {
            Some(v) => v,
            None => $crate::codec::missing(stringify!($f))?,
        }
    };
    (@take $f:ident $via:ident) => {
        $f.ok_or_else(|| format!("missing field '{}'", stringify!($f)))?
    };
}

/// Implements [`Codec`] and [`Fields`] for a struct as a JSON object keyed by field name,
/// in the listed order. A field written `name with module` goes through `module::write`
/// / `module::read` instead of its type's own codec (e.g. `seed with hex`).
macro_rules! codec_object {
    ($ty:ident { $($f:ident $(with $via:ident)?),+ $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            fn write(&self, w: &mut $crate::json::JsonWriter) {
                w.begin_object();
                $crate::codec::Fields::write_fields(self, w);
                w.end_object();
            }
            fn read(r: &mut $crate::json::JsonReader<'_>) -> Result<Self, String> {
                let mut cursor = r.object()?;
                $crate::codec::Fields::read_fields(r, &mut cursor, &mut $crate::codec::no_extra)
            }
        }
        impl $crate::codec::Fields for $ty {
            fn write_fields(&self, w: &mut $crate::json::JsonWriter) {
                let $ty { $($f),+ } = self;
                $(
                    w.key(stringify!($f));
                    $crate::codec::codec_object!(@write w $f $($via)?);
                )+
            }
            fn read_fields<'a>(
                r: &mut $crate::json::JsonReader<'a>,
                cursor: &mut $crate::json::Cursor,
                extra: &mut dyn FnMut(&str, &mut $crate::json::JsonReader<'a>)
                    -> Result<bool, String>,
            ) -> Result<Self, String> {
                let ($($f,)+) =
                    $crate::codec::read_fields!(r, cursor, extra, { $($f $(with $via)?),+ });
                Ok($ty { $($f),+ })
            }
        }
    };
    (@write $w:ident $f:ident) => { $crate::codec::Codec::write($f, $w) };
    (@write $w:ident $f:ident $via:ident) => { $via::write($f, $w) };
}

/// Implements [`Codec`] for a struct as a fixed-order array of its fields, in the listed
/// order.
macro_rules! codec_array {
    ($ty:ident { $($f:ident),+ $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            fn write(&self, w: &mut $crate::json::JsonWriter) {
                let $ty { $($f),+ } = self;
                w.begin_array();
                $($crate::codec::Codec::write($f, w);)+
                w.end_array();
            }
            fn read(r: &mut $crate::json::JsonReader<'_>) -> Result<Self, String> {
                const LEN: usize = [$(stringify!($f)),+].len();
                if r.peek() != Some(b'[') {
                    return Err("not an array".to_string());
                }
                let mut items = r.begin_array()?;
                let mut seen = 0;
                let value = $ty {
                    $($f: {
                        if !r.next_item(&mut items)? {
                            return Err(format!("holds {seen} entries, expected {LEN}"));
                        }
                        seen += 1;
                        $crate::codec::Codec::read(r)
                            .map_err(|e| format!("'{}': {e}", stringify!($f)))?
                    }),+
                };
                while r.next_item(&mut items)? {
                    r.skip_value()?;
                    seen += 1;
                }
                if seen != LEN {
                    return Err(format!("holds {seen} entries, expected {LEN}"));
                }
                Ok(value)
            }
        }
    };
}

/// Implements [`Codec`] for an enum as an object whose leading `"kind"` is the variant's
/// tag, followed by the variant's payload in one of three shapes:
///
/// * `V { a, b } = "tag"` — struct-variant fields, keyed by name;
/// * `V(key) = "tag"` — the payload nested under `key`;
/// * `V(..payload) = "tag"` — the payload's own object fields, inline (its type
///   implements [`Fields`]).
macro_rules! codec_enum {
    ($ty:ident { $($v:ident $shape:tt = $tag:literal),+ $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            fn write(&self, w: &mut $crate::json::JsonWriter) {
                w.begin_object();
                w.key("kind");
                match self {
                    $($crate::codec::codec_enum!(@pat $ty $v $shape) => {
                        w.string($tag);
                        $crate::codec::codec_enum!(@write w $shape);
                    })+
                }
                w.end_object();
            }
            fn read(r: &mut $crate::json::JsonReader<'_>) -> Result<Self, String> {
                let mut cursor = r.object()?;
                let kind = $crate::codec::read_kind(r, &mut cursor)?;
                Ok(match &*kind {
                    $($tag => $crate::codec::codec_enum!(@read r cursor $ty $v $shape),)+
                    other => return Err(format!(
                        "unknown {} kind '{other}'", stringify!($ty)
                    )),
                })
            }
        }
    };
    (@pat $ty:ident $v:ident { $($f:ident),+ }) => { $ty::$v { $($f),+ } };
    (@pat $ty:ident $v:ident (.. $p:ident)) => { $ty::$v($p) };
    (@pat $ty:ident $v:ident ($p:ident)) => { $ty::$v($p) };
    (@write $w:ident { $($f:ident),+ }) => {
        $($w.key(stringify!($f)); $crate::codec::Codec::write($f, $w);)+
    };
    (@write $w:ident (.. $p:ident)) => { $crate::codec::Fields::write_fields($p, $w) };
    (@write $w:ident ($p:ident)) => {
        $w.key(stringify!($p));
        $crate::codec::Codec::write($p, $w);
    };
    (@read $r:ident $cursor:ident $ty:ident $v:ident { $($f:ident),+ }) => {{
        let ($($f,)+) = $crate::codec::read_fields!(
            $r, &mut $cursor, $crate::codec::no_extra, { $($f),+ }
        );
        $ty::$v { $($f),+ }
    }};
    (@read $r:ident $cursor:ident $ty:ident $v:ident (.. $p:ident)) => {
        $ty::$v($crate::codec::Fields::read_fields(
            $r, &mut $cursor, &mut $crate::codec::no_extra
        )?)
    };
    (@read $r:ident $cursor:ident $ty:ident $v:ident ($p:ident)) => {{
        let ($p,) = $crate::codec::read_fields!(
            $r, &mut $cursor, $crate::codec::no_extra, { $p }
        );
        $ty::$v($p)
    }};
}

/// Implements [`Codec`] for a fieldless enum as a string: write with `spell`, read by
/// finding the value among `all` whose spelling matches, so each enum has one spelling.
macro_rules! codec_names {
    ($ty:ty, $what:literal, $all:expr, $spell:expr) => {
        impl $crate::codec::Codec for $ty {
            fn write(&self, w: &mut $crate::json::JsonWriter) {
                w.string(&($spell)(self));
            }
            fn read(r: &mut $crate::json::JsonReader<'_>) -> Result<Self, String> {
                if r.peek() != Some(b'"') {
                    return Err(concat!($what, " names must be strings").to_string());
                }
                let name = r.string()?;
                $all.into_iter()
                    .find(|v: &$ty| *($spell)(v) == *name)
                    .ok_or_else(|| format!(concat!("unknown ", $what, " '{}'"), name))
            }
        }
    };
}

pub(crate) use {codec_array, codec_enum, codec_names, codec_object, read_fields};
