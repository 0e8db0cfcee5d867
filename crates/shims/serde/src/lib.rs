//! Offline stand-in for the [`serde`](https://crates.io/crates/serde) crate.
//!
//! The build environment has no crates-registry access, so the workspace
//! ships a small self-describing serialization framework under the `serde`
//! name.  It is intentionally much simpler than real serde:
//!
//! * [`Serialize`] converts a value into a [`Value`] tree,
//! * [`Deserialize`] reconstructs a value from a [`Value`] tree,
//! * `#[derive(Serialize, Deserialize)]` (re-exported from the companion
//!   `serde_derive` shim) supports structs with named fields, unit structs
//!   and enums with unit, newtype and struct variants, plus the field
//!   attributes `skip`, `default`, `skip_serializing_if` and `flatten` and
//!   the container
//!   attributes `tag` and `rename_all = "snake_case"` (see that crate's
//!   docs for the layouts, which are real serde's),
//! * the companion `serde_json` shim renders [`Value`] trees to JSON text and
//!   parses them back.
//!
//! The derive and the JSON grammar are compatible with what real
//! serde/serde_json produce for the types in this workspace (maps of named
//! fields, tagged enums, sequences as arrays), so swapping the shims for the
//! real crates later is a manifest-only change.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing data tree, the interchange format between
/// [`Serialize`], [`Deserialize`] and the `serde_json` shim.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-negative integer.
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// A sequence (JSON array).
    Seq(Vec<Value>),
    /// A map with string keys (JSON object); insertion-ordered.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in a [`Value::Map`]; `None` for other variants.
    pub fn get_field(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload of a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Error produced by deserialization (and by the `serde_json` parser).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// An error with a free-form message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }

    /// A struct field was absent from the input map.
    pub fn missing_field(field: &str) -> Self {
        Error(format!("missing field `{field}`"))
    }

    /// An enum tag named no variant; worded as real serde words it.
    pub fn unknown_variant(variant: &str, expected: &'static [&'static str]) -> Self {
        let quoted: Vec<String> = expected.iter().map(|v| format!("`{v}`")).collect();
        let expected = match quoted.as_slice() {
            [one] => one.clone(),
            [a, b] => format!("{a} or {b}"),
            all => format!("one of {}", all.join(", ")),
        };
        Error(format!("unknown variant `{variant}`, expected {expected}"))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Conversion into a [`Value`] tree (the shim's analogue of
/// `serde::Serialize`).
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

/// Reconstruction from a [`Value`] tree (the shim's analogue of
/// `serde::Deserialize`).
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a [`Value`], failing on shape or type mismatch.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! uint_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::UInt(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t)))),
                    Value::Int(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t)))),
                    _ => Err(Error::custom(concat!("expected integer for ", stringify!($t)))),
                }
            }
        }
    )*};
}

uint_impls!(u8, u16, u32, u64, usize);

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if *self >= 0 {
                    Value::UInt(*self as u64)
                } else {
                    Value::Int(*self as i64)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::UInt(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t)))),
                    Value::Int(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t)))),
                    _ => Err(Error::custom(concat!("expected integer for ", stringify!($t)))),
                }
            }
        }
    )*};
}

int_impls!(i8, i16, i32, i64, isize);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let f = *self as f64;
                if f.is_finite() {
                    Value::Float(f)
                } else {
                    // JSON has no non-finite numbers (the writer degrades
                    // `Float(inf)` to `null`), but fixpoint state crosses
                    // worker pipes as JSON and SSSP-style programs carry
                    // `f64::INFINITY` in their partials — spell the three
                    // non-finite values as strings so they round-trip.
                    Value::Str(if f.is_nan() {
                        "nan".to_string()
                    } else if f > 0.0 {
                        "inf".to_string()
                    } else {
                        "-inf".to_string()
                    })
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::UInt(n) => Ok(*n as $t),
                    Value::Int(n) => Ok(*n as $t),
                    Value::Str(s) => match s.as_str() {
                        "nan" => Ok(<$t>::NAN),
                        "inf" => Ok(<$t>::INFINITY),
                        "-inf" => Ok(<$t>::NEG_INFINITY),
                        _ => Err(Error::custom(concat!("expected number for ", stringify!($t)))),
                    },
                    _ => Err(Error::custom(concat!("expected number for ", stringify!($t)))),
                }
            }
        }
    )*};
}

float_impls!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected boolean")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::custom("expected string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

// ---------------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            _ => Err(Error::custom("expected sequence")),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) if items.len() == 2 => {
                Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
            }
            _ => Err(Error::custom("expected 2-element sequence")),
        }
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) if items.len() == 3 => Ok((
                A::from_value(&items[0])?,
                B::from_value(&items[1])?,
                C::from_value(&items[2])?,
            )),
            _ => Err(Error::custom("expected 3-element sequence")),
        }
    }
}

/// Types usable as map keys: rendered to/from JSON object-key strings.
pub trait MapKey: Sized {
    /// The key as a JSON object key.
    fn to_key(&self) -> String;
    /// Parses the key back.
    fn from_key(key: &str) -> Result<Self, Error>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(key: &str) -> Result<Self, Error> {
        Ok(key.to_string())
    }
}

macro_rules! numeric_map_key {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(key: &str) -> Result<Self, Error> {
                key.parse().map_err(|_| {
                    Error::custom(concat!("invalid map key for ", stringify!($t)))
                })
            }
        }
    )*};
}

numeric_map_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: MapKey + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_value()))
                .collect(),
        )
    }
}

impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((K::from_key(k)?, V::from_value(v)?)))
                .collect(),
            _ => Err(Error::custom("expected map")),
        }
    }
}

impl<K: MapKey + Eq + Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        // Sort entries so the output is deterministic despite hash ordering.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_key(), v.to_value()))
            .collect();
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        Value::Map(entries)
    }
}

impl<K: MapKey + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((K::from_key(k)?, V::from_value(v)?)))
                .collect(),
            _ => Err(Error::custom("expected map")),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

/// Helpers the `serde_derive` shim's generated code calls; not public API.
#[doc(hidden)]
pub mod __private {
    use super::{Deserialize, Error, Value};

    static NULL: Value = Value::Null;

    /// Appends a `#[serde(flatten)]` field's map entries (a unit adds none).
    pub fn flatten(entries: &mut Vec<(String, Value)>, value: Value) {
        match value {
            Value::Map(inner) => entries.extend(inner),
            Value::Null => {}
            other => panic!("can only flatten maps and units, not {other:?}"),
        }
    }

    /// An internally tagged variant: `tag: name` first, then the entries
    /// of its `content` map.
    pub fn tagged(tag: &str, name: &str, content: Value) -> Value {
        let mut entries = vec![(tag.to_string(), Value::Str(name.to_string()))];
        flatten(&mut entries, content);
        Value::Map(entries)
    }

    /// Deserializes the required field `key` of the map `v`.
    pub fn field<T: Deserialize>(v: &Value, key: &str) -> Result<T, Error> {
        T::from_value(v.get_field(key).ok_or_else(|| Error::missing_field(key))?)
    }

    /// Deserializes the `#[serde(default)]` field `key` of the map `v`.
    pub fn field_or_default<T: Deserialize + Default>(v: &Value, key: &str) -> Result<T, Error> {
        v.get_field(key)
            .map_or_else(|| Ok(T::default()), T::from_value)
    }

    /// An internally tagged enum's variant name: the string under `key`.
    pub fn tag<'v>(v: &'v Value, key: &str) -> Result<&'v str, Error> {
        v.get_field(key)
            .ok_or_else(|| Error::missing_field(key))?
            .as_str()
            .ok_or_else(|| Error::custom(format!("invalid type: `{key}` must be a string")))
    }

    /// An externally tagged enum's variant name and content: `"V"` (a unit
    /// variant, content `null`) or the one-entry map `{"V": content}`.
    pub fn external(v: &Value) -> Result<(&str, &Value), Error> {
        match v {
            Value::Str(name) => Ok((name, &NULL)),
            Value::Map(entries) if entries.len() == 1 => Ok((&entries[0].0, &entries[0].1)),
            _ => Err(Error::custom(
                "invalid type: expected a variant name or a one-entry map",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_null_round_trip() {
        assert_eq!(Option::<usize>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Some(3usize).to_value(), Value::UInt(3));
        assert_eq!(
            Option::<usize>::from_value(&Value::UInt(3)).unwrap(),
            Some(3)
        );
    }

    #[test]
    fn hash_map_keys_are_sorted() {
        let mut m = HashMap::new();
        m.insert(10u64, 1u32);
        m.insert(2u64, 2u32);
        match m.to_value() {
            Value::Map(entries) => {
                let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, vec!["10", "2"]); // lexicographic, deterministic
            }
            other => panic!("expected map, got {other:?}"),
        }
    }

    #[test]
    fn tuple_round_trip() {
        let v = (3u32, 4u32).to_value();
        assert_eq!(<(u32, u32)>::from_value(&v).unwrap(), (3, 4));
    }

    #[test]
    fn integer_range_errors() {
        assert!(u8::from_value(&Value::UInt(300)).is_err());
        assert!(u32::from_value(&Value::Str("x".into())).is_err());
    }
}
