//! Offline stand-in for `serde`.
//!
//! This workspace builds without network access, so instead of the real
//! serde it vendors a minimal replacement: a self-describing [`Value`] data
//! model plus [`Serialize`]/[`Deserialize`] traits that convert to and from
//! it. The derive macros re-exported from `serde_derive` cover exactly the
//! shapes this codebase uses (named structs, tuple structs, enums with unit,
//! tuple and struct variants, plus `#[serde(default)]` on struct fields) and
//! keep serde's external enum tagging, so a later switch to the real serde
//! is a manifest-only change.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

use std::fmt;

/// The self-describing value every serializable type converts through.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`; also what missing object keys deserialize from.
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-negative integer (kept exact; `f64` would lose `u64` range).
    Uint(u64),
    /// A negative integer.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    String(String),
    /// A sequence.
    Array(Vec<Value>),
    /// A key–value map, in insertion order.
    Object(Vec<(String, Value)>),
}

/// A `Null` to hand out by reference for missing object keys.
pub static NULL: Value = Value::Null;

impl Value {
    /// Look up a key in an [`Value::Object`], yielding `Null` when absent.
    pub fn get(&self, key: &str) -> &Value {
        match self {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

/// Error produced by deserialization (and by the JSON layer on top).
#[derive(Clone, Debug, PartialEq)]
pub struct Error(pub String);

impl Error {
    /// A "expected X while deserializing Y" error.
    pub fn expected(what: &str, ty: &str) -> Self {
        Error(format!("expected {what} while deserializing {ty}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Conversion into the [`Value`] data model.
pub trait Serialize {
    /// Represent `self` as a [`Value`].
    fn to_value(&self) -> Value;
}

/// Conversion out of the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Rebuild `Self` from a [`Value`].
    fn from_value(v: &Value) -> Result<Self, Error>;
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Uint(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Uint(n) => {
                        <$t>::try_from(*n).map_err(|_| Error::expected("fitting uint", stringify!($t)))
                    }
                    Value::Int(n) => {
                        <$t>::try_from(*n).map_err(|_| Error::expected("fitting uint", stringify!($t)))
                    }
                    _ => Err(Error::expected("integer", stringify!($t))),
                }
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n < 0 {
                    Value::Int(n)
                } else {
                    Value::Uint(n as u64)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Uint(n) => {
                        <$t>::try_from(*n).map_err(|_| Error::expected("fitting int", stringify!($t)))
                    }
                    Value::Int(n) => {
                        <$t>::try_from(*n).map_err(|_| Error::expected("fitting int", stringify!($t)))
                    }
                    _ => Err(Error::expected("integer", stringify!($t))),
                }
            }
        }
    )*};
}

impl_int!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Float(n) => Ok(*n as $t),
                    Value::Uint(n) => Ok(*n as $t),
                    Value::Int(n) => Ok(*n as $t),
                    _ => Err(Error::expected("number", stringify!($t))),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::expected("bool", "bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s.clone()),
            _ => Err(Error::expected("string", "String")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(Error::expected("array", "Vec")),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident : $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$i.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Array(items) => {
                        let mut it = items.iter();
                        Ok(($(
                            $t::from_value(it.next().ok_or_else(|| Error::expected("longer array", "tuple"))?)?,
                        )+))
                    }
                    _ => Err(Error::expected("array", "tuple")),
                }
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
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
