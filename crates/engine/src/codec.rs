//! The one codec every value crossing a process or disk boundary goes through.
//!
//! [`Codec`] pairs an encoder with its decoder, and the crate-private field-table macros
//! generate both directions from one list per type:
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
//! string ([`u64_json`]), and an `f64` relies on Rust's shortest-round-trip formatting,
//! which parses back to the same bits. Decoding is strict: a count that is fractional,
//! negative or out of range for its integer type is an error that names the field.

use std::path::PathBuf;

use crate::json::Json;

/// A value with a lossless JSON form: `T::decode(&x.encode()) == Ok(x)`, and encoding the
/// decoded value again gives the same bytes.
pub trait Codec: Sized {
    /// The value as JSON.
    fn encode(&self) -> Json;
    /// Reads a value written by [`Codec::encode`].
    fn decode(j: &Json) -> Result<Self, String>;
}

/// Encodes a `u64` losslessly: a plain number inside f64's exact integer range, a hex
/// string beyond it.
pub fn u64_json(v: u64) -> Json {
    if v < (1u64 << 53) {
        Json::num(v as f64)
    } else {
        Json::hex(v)
    }
}

/// Reads a `u64` written by [`u64_json`] (plain integral number or hex string).
pub fn u64_value(j: &Json) -> Option<u64> {
    if let Some(v) = j.as_hex_u64() {
        return Some(v);
    }
    let f = j.as_f64()?;
    if f.fract() == 0.0 && (0.0..9_007_199_254_740_992.0).contains(&f) {
        Some(f as u64)
    } else {
        None
    }
}

/// The value under `key`, or an error naming the missing field.
pub fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

/// Decodes the value under `key`; errors name the field. A missing key reads as `null`,
/// so an absent [`Option`] field decodes as `None`.
pub fn get<T: Codec>(j: &Json, key: &str) -> Result<T, String> {
    match j.get(key) {
        Some(v) => T::decode(v).map_err(|e| format!("field '{key}': {e}")),
        None => T::decode(&Json::Null).map_err(|_| format!("missing field '{key}'")),
    }
}

/// A `u64` carried as a `"0x…"` hex string whatever its size (seeds and hashes). Use it
/// in a field table as `field with hex`.
pub mod hex {
    use crate::json::Json;

    /// Encodes `v` as a hex string.
    pub fn encode(v: &u64) -> Json {
        Json::hex(*v)
    }

    /// Reads a hex string written by [`encode`].
    pub fn decode(j: &Json) -> Result<u64, String> {
        j.as_hex_u64()
            .ok_or_else(|| "not a \"0x…\" hex string".to_string())
    }
}

impl Codec for u64 {
    fn encode(&self) -> Json {
        u64_json(*self)
    }
    fn decode(j: &Json) -> Result<Self, String> {
        u64_value(j).ok_or_else(|| "not an unsigned integer".to_string())
    }
}

macro_rules! narrow_uint {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            fn encode(&self) -> Json {
                u64_json(*self as u64)
            }
            fn decode(j: &Json) -> Result<Self, String> {
                u64::decode(j)?
                    .try_into()
                    .map_err(|_| concat!("does not fit in ", stringify!($ty)).to_string())
            }
        }
    )*};
}

narrow_uint!(u32, usize);

impl Codec for f64 {
    fn encode(&self) -> Json {
        Json::num(*self)
    }
    fn decode(j: &Json) -> Result<Self, String> {
        j.as_f64().ok_or_else(|| "not a number".to_string())
    }
}

impl Codec for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }
    fn decode(j: &Json) -> Result<Self, String> {
        j.as_bool().ok_or_else(|| "not a boolean".to_string())
    }
}

impl Codec for String {
    fn encode(&self) -> Json {
        Json::str(self)
    }
    fn decode(j: &Json) -> Result<Self, String> {
        j.as_str()
            .map(str::to_string)
            .ok_or_else(|| "not a string".to_string())
    }
}

impl Codec for PathBuf {
    fn encode(&self) -> Json {
        Json::str(self.display().to_string())
    }
    fn decode(j: &Json) -> Result<Self, String> {
        String::decode(j).map(PathBuf::from)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::encode)
    }
    fn decode(j: &Json) -> Result<Self, String> {
        match j {
            Json::Null => Ok(None),
            v => T::decode(v).map(Some),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(T::encode).collect())
    }
    fn decode(j: &Json) -> Result<Self, String> {
        j.as_array()
            .ok_or_else(|| "not an array".to_string())?
            .iter()
            .enumerate()
            .map(|(i, v)| T::decode(v).map_err(|e| format!("entry {i}: {e}")))
            .collect()
    }
}

impl<T: Codec> Codec for Box<T> {
    fn encode(&self) -> Json {
        T::encode(self)
    }
    fn decode(j: &Json) -> Result<Self, String> {
        T::decode(j).map(Box::new)
    }
}

/// Implements [`Codec`] for a struct as a JSON object keyed by field name, in the listed
/// order. A field written `name with module` goes through `module::encode` /
/// `module::decode` instead of its type's own codec (e.g. `seed with hex`).
macro_rules! codec_object {
    ($ty:ident { $($f:ident $(with $via:ident)?),+ $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            fn encode(&self) -> $crate::json::Json {
                let $ty { $($f),+ } = self;
                $crate::json::Json::obj(vec![
                    $((stringify!($f), $crate::codec::codec_object!(@enc $f $($via)?))),+
                ])
            }
            fn decode(j: &$crate::json::Json) -> Result<Self, String> {
                Ok($ty { $($f: $crate::codec::codec_object!(@dec j $f $($via)?)),+ })
            }
        }
    };
    (@enc $f:ident) => { $crate::codec::Codec::encode($f) };
    (@enc $f:ident $via:ident) => { $via::encode($f) };
    (@dec $j:ident $f:ident) => { $crate::codec::get($j, stringify!($f))? };
    (@dec $j:ident $f:ident $via:ident) => {
        $via::decode($crate::codec::field($j, stringify!($f))?)
            .map_err(|e| format!("field '{}': {e}", stringify!($f)))?
    };
}

/// Implements [`Codec`] for a struct as a fixed-order array of its fields, in the listed
/// order.
macro_rules! codec_array {
    ($ty:ident { $($f:ident),+ $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            fn encode(&self) -> $crate::json::Json {
                let $ty { $($f),+ } = self;
                $crate::json::Json::Arr(vec![$($crate::codec::Codec::encode($f)),+])
            }
            fn decode(j: &$crate::json::Json) -> Result<Self, String> {
                const LEN: usize = [$(stringify!($f)),+].len();
                let items = j.as_array().ok_or("not an array")?;
                if items.len() != LEN {
                    return Err(format!("holds {} entries, expected {LEN}", items.len()));
                }
                let mut items = items.iter();
                Ok($ty {
                    $($f: $crate::codec::Codec::decode(items.next().unwrap())
                        .map_err(|e| format!("'{}': {e}", stringify!($f)))?),+
                })
            }
        }
    };
}

/// Implements [`Codec`] for an enum as an object whose leading `"kind"` is the variant's
/// tag, followed by the variant's payload in one of three shapes:
///
/// * `V { a, b } = "tag"` — struct-variant fields, keyed by name;
/// * `V(key) = "tag"` — the payload nested under `key`;
/// * `V(..payload) = "tag"` — the payload's own object fields, inline.
macro_rules! codec_enum {
    ($ty:ident { $($v:ident $shape:tt = $tag:literal),+ $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            fn encode(&self) -> $crate::json::Json {
                let (tag, payload) = match self {
                    $($crate::codec::codec_enum!(@pat $ty $v $shape) =>
                        ($tag, $crate::codec::codec_enum!(@enc $shape)),)+
                };
                let $crate::json::Json::Obj(mut pairs) = payload else {
                    unreachable!("an enum payload encodes as an object")
                };
                pairs.insert(0, ("kind".to_string(), $crate::json::Json::str(tag)));
                $crate::json::Json::Obj(pairs)
            }
            fn decode(j: &$crate::json::Json) -> Result<Self, String> {
                let kind = $crate::codec::field(j, "kind")?
                    .as_str()
                    .ok_or("field 'kind': not a string")?;
                Ok(match kind {
                    $($tag => $crate::codec::codec_enum!(@dec j $ty $v $shape),)+
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
    (@enc { $($f:ident),+ }) => {
        $crate::json::Json::obj(vec![$((stringify!($f), $crate::codec::Codec::encode($f))),+])
    };
    (@enc (.. $p:ident)) => { $crate::codec::Codec::encode($p) };
    (@enc ($p:ident)) => {
        $crate::json::Json::obj(vec![(stringify!($p), $crate::codec::Codec::encode($p))])
    };
    (@dec $j:ident $ty:ident $v:ident { $($f:ident),+ }) => {
        $ty::$v { $($f: $crate::codec::get($j, stringify!($f))?),+ }
    };
    (@dec $j:ident $ty:ident $v:ident (.. $p:ident)) => {
        $ty::$v($crate::codec::Codec::decode($j)?)
    };
    (@dec $j:ident $ty:ident $v:ident ($p:ident)) => {
        $ty::$v($crate::codec::get($j, stringify!($p))?)
    };
}

/// Implements [`Codec`] for a fieldless enum as a string: encode with `spell`, decode by
/// finding the value among `all` whose spelling matches, so each enum has one spelling.
macro_rules! codec_names {
    ($ty:ty, $what:literal, $all:expr, $spell:expr) => {
        impl $crate::codec::Codec for $ty {
            fn encode(&self) -> $crate::json::Json {
                $crate::json::Json::str(($spell)(self))
            }
            fn decode(j: &$crate::json::Json) -> Result<Self, String> {
                let name = j.as_str().ok_or(concat!($what, " names must be strings"))?;
                $all.into_iter()
                    .find(|v: &$ty| ($spell)(v) == name)
                    .ok_or_else(|| format!(concat!("unknown ", $what, " '{}'"), name))
            }
        }
    };
}

pub(crate) use {codec_array, codec_enum, codec_names, codec_object};
