//! Offline stand-in for `serde`.
//!
//! This workspace builds without network access, so instead of the real
//! serde it vendors a minimal replacement: a self-describing [`Value`] data
//! model plus a [`Serialize`] trait that converts into it. JSON goes one
//! way: the workspace writes its event logs and flight-recorder dumps and
//! reads no typed value back, so there is no `Deserialize`. There is no
//! derive either: [`impl_serialize!`] writes each impl from the field and
//! variant names its invocation lists, covering exactly the shapes this
//! codebase uses (named structs, newtype structs, enums with unit, newtype
//! and named variants) and keeping serde's external enum tagging. Moving
//! to the real serde would mean replacing those invocations with derives.

#![forbid(unsafe_code)]

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

/// Implement [`Serialize`] for a type by naming its fields and variants
/// the way a pattern destructures them:
///
/// ```
/// # struct HostId(u8);
/// # struct Event { at_ns: u64, host: HostId }
/// # enum Target { Engine, Nsm(u8), Host { host: HostId } }
/// serde::impl_serialize!(struct HostId(id));
/// serde::impl_serialize!(struct Event { at_ns, host });
/// serde::impl_serialize!(enum Target { Engine, Nsm(id), Host { host } });
/// let event = Event { at_ns: 5, host: HostId(2) };
/// assert_eq!(serde::Serialize::to_value(&event).get("host"), &serde::Value::Uint(2));
/// ```
///
/// A named struct is an object whose keys follow the invocation's field
/// order; a newtype struct is its inner value. An enum is externally
/// tagged: a unit variant is its name as a string, any other variant a
/// one-key object from its name to its content. The impl destructures with
/// no `..`, so a field or variant the invocation leaves out fails to
/// compile.
#[macro_export]
macro_rules! impl_serialize {
    (struct $name:ident($inner:ident)) => {
        impl $crate::Serialize for $name {
            fn to_value(&self) -> $crate::Value {
                let Self($inner) = self;
                $crate::Serialize::to_value($inner)
            }
        }
    };
    (struct $name:ident { $($field:ident),* $(,)? }) => {
        impl $crate::Serialize for $name {
            fn to_value(&self) -> $crate::Value {
                let Self { $($field),* } = self;
                $crate::impl_serialize!(@object $($field),*)
            }
        }
    };
    (enum $name:ident {
        $($variant:ident $(($inner:ident))? $({ $($field:ident),* $(,)? })?),* $(,)?
    }) => {
        impl $crate::Serialize for $name {
            fn to_value(&self) -> $crate::Value {
                match self {
                    $(Self::$variant $(($inner))? $({ $($field),* })? => {
                        $crate::impl_serialize!(@tagged $variant $(($inner))? $({ $($field),* })?)
                    })*
                }
            }
        }
    };
    (@tagged $variant:ident) => {
        $crate::Value::String(String::from(stringify!($variant)))
    };
    (@tagged $variant:ident ($inner:ident)) => {
        $crate::Value::Object(vec![(
            String::from(stringify!($variant)),
            $crate::Serialize::to_value($inner),
        )])
    };
    (@tagged $variant:ident { $($field:ident),* }) => {
        $crate::Value::Object(vec![(
            String::from(stringify!($variant)),
            $crate::impl_serialize!(@object $($field),*),
        )])
    };
    (@object $($field:ident),*) => {
        $crate::Value::Object(vec![
            $((String::from(stringify!($field)), $crate::Serialize::to_value($field))),*
        ])
    };
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
