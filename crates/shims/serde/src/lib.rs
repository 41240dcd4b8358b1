//! Offline stand-in for `serde`.
//!
//! This workspace builds without network access, so instead of the real
//! serde it vendors a minimal replacement: a self-describing [`Value`] data
//! model plus a [`Serialize`] trait that converts into it. JSON goes one
//! way: the workspace writes its event logs and flight-recorder dumps and
//! reads no typed value back, so there is no `Deserialize`. The derive
//! re-exported from `serde_derive` covers exactly the shapes this codebase
//! uses (named structs, tuple structs, enums with unit, tuple and struct
//! variants) and keeps serde's external enum tagging, so a later switch to
//! the real serde is a manifest-only change.

#![forbid(unsafe_code)]

pub use serde_derive::Serialize;

use std::fmt;

/// The self-describing value every serializable type converts through.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`; also what [`Value::get`] yields for a missing key.
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

/// Error produced by the JSON layer on top.
#[derive(Clone, Debug, PartialEq)]
pub struct Error(pub String);

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

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Uint(*self as u64)
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
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

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}
