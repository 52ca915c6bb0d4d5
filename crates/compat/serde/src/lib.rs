//! Hermetic stand-in for `serde`: `Serialize`/`Deserialize` defined over
//! an owned JSON-like [`Value`] tree instead of serde's visitor
//! machinery. `serde_json` (the sibling stand-in) supplies parsing and
//! printing; `serde_derive` supplies `#[derive(Serialize, Deserialize)]`
//! for named-field structs, honouring `#[serde(default)]`.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};

/// An owned JSON value: the interchange tree both traits target.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Any JSON number (stored as `f64`, which covers every value this
    /// workspace serializes).
    Num(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object, preserving insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// True only for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Deserialization error: a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl DeError {
    /// Error for a missing required field.
    pub fn missing(field: &str) -> Self {
        DeError(format!("missing field `{field}`"))
    }

    /// Error for a type mismatch.
    pub fn expected(what: &str, got: &Value) -> Self {
        let kind = match got {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        };
        DeError(format!("expected {what}, found {kind}"))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can render themselves as a [`Value`].
pub trait Serialize {
    /// Convert to the interchange tree.
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuild from the interchange tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("boolean", other)),
        }
    }
}

macro_rules! num_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Num(n) => {
                        let cast = *n as $t;
                        if cast as f64 == *n {
                            Ok(cast)
                        } else {
                            Err(DeError(format!(
                                concat!("number {} out of range for ", stringify!($t)),
                                n
                            )))
                        }
                    }
                    other => Err(DeError::expected("number", other)),
                }
            }
        }
    )*};
}
num_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Num(n) => Ok(*n as $t),
                    other => Err(DeError::expected("number", other)),
                }
            }
        }
    )*};
}
float_impls!(f32, f64);

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
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

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("array", other)),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

macro_rules! tuple_impls {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Array(items) if items.len() == [$($idx),+].len() => {
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    other => Err(DeError::expected("tuple", other)),
                }
            }
        }
    )*};
}
tuple_impls! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7)
}

impl<K: ToString, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.to_string(), v.to_value())).collect())
    }
}

impl<K: ToString, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        let mut members: Vec<(String, Value)> =
            self.iter().map(|(k, v)| (k.to_string(), v.to_value())).collect();
        members.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u32::from_value(&42u32.to_value()), Ok(42));
        assert_eq!(f64::from_value(&1.5f64.to_value()), Ok(1.5));
        assert_eq!(bool::from_value(&true.to_value()), Ok(true));
        assert_eq!(String::from_value(&"hi".to_value()), Ok("hi".to_string()));
        assert_eq!(Option::<f64>::from_value(&Value::Null), Ok(None));
        assert_eq!(Option::<f64>::from_value(&Value::Num(2.0)), Ok(Some(2.0)));
    }

    #[test]
    fn numeric_range_checks() {
        assert!(u8::from_value(&Value::Num(300.0)).is_err());
        assert!(u64::from_value(&Value::Num(-1.0)).is_err());
        assert!(u64::from_value(&Value::Num(1.5)).is_err());
    }

    #[test]
    fn collections_and_tuples() {
        let v = vec![(1.0f64, 2.0f64), (3.0, 4.0)];
        match v.to_value() {
            Value::Array(items) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[0], Value::Array(vec![Value::Num(1.0), Value::Num(2.0)]));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(Vec::<(f64, f64)>::from_value(&v.to_value()), Ok(v));
        assert!(<(f64, f64)>::from_value(&Value::Array(vec![Value::Num(1.0)])).is_err());
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1.0f64);
        assert_eq!(m.to_value().get("a"), Some(&Value::Num(1.0)));
    }

    #[test]
    fn object_get() {
        let obj = Value::Object(vec![("k".into(), Value::Bool(true))]);
        assert_eq!(obj.get("k"), Some(&Value::Bool(true)));
        assert_eq!(obj.get("missing"), None);
        assert_eq!(Value::Null.get("k"), None);
    }
}
