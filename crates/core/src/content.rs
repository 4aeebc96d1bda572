//! Document content and property values.
//!
//! Content is an immutable byte buffer ([`bytes::Bytes`]) so cached entries,
//! repositories, and in-flight streams can share the same allocation.
//! [`PropertyValue`] is the small dynamic value type carried by static
//! properties and by active-property parameters (the registry instantiates
//! active properties from name + parameter map, which is how attach-by-name
//! works without recompiling).

use bytes::Bytes;
use std::collections::BTreeMap;
use std::fmt;

/// Immutable document content.
pub type Content = Bytes;

/// A dynamically typed value attached to a document as a static property or
/// passed as a parameter to an active-property factory.
#[derive(Debug, Clone, PartialEq)]
pub enum PropertyValue {
    /// A UTF-8 string, e.g. `"1999 workshop submission"`.
    Str(String),
    /// A signed integer, e.g. a deadline expressed as a day number.
    Int(i64),
    /// A boolean flag.
    Bool(bool),
    /// A floating point value, e.g. a QoS latency bound in milliseconds.
    Float(f64),
    /// Raw bytes, e.g. a saved version snapshot link.
    Blob(Bytes),
}

impl PropertyValue {
    /// Returns the string payload, if this is a [`PropertyValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            PropertyValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer payload, if this is an [`PropertyValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            PropertyValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the float payload, accepting ints as floats too.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            PropertyValue::Float(x) => Some(*x),
            PropertyValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }
}

impl From<&str> for PropertyValue {
    fn from(s: &str) -> Self {
        PropertyValue::Str(s.to_owned())
    }
}

impl From<String> for PropertyValue {
    fn from(s: String) -> Self {
        PropertyValue::Str(s)
    }
}

impl From<i64> for PropertyValue {
    fn from(i: i64) -> Self {
        PropertyValue::Int(i)
    }
}

impl From<bool> for PropertyValue {
    fn from(b: bool) -> Self {
        PropertyValue::Bool(b)
    }
}

impl From<f64> for PropertyValue {
    fn from(x: f64) -> Self {
        PropertyValue::Float(x)
    }
}

impl fmt::Display for PropertyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyValue::Str(s) => write!(f, "{s}"),
            PropertyValue::Int(i) => write!(f, "{i}"),
            PropertyValue::Bool(b) => write!(f, "{b}"),
            PropertyValue::Float(x) => write!(f, "{x}"),
            PropertyValue::Blob(b) => write!(f, "<{} bytes>", b.len()),
        }
    }
}

/// An ordered name → value map used as active-property parameters.
///
/// # Examples
///
/// ```
/// use placeless_core::content::Params;
///
/// let params = Params::new()
///     .with("language", "fr")
///     .with("sentences", 2i64);
/// assert_eq!(params.get_str("language"), Some("fr"));
/// assert_eq!(params.get_int("sentences"), Some(2));
/// assert_eq!(params.get_int("missing"), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params {
    entries: BTreeMap<String, PropertyValue>,
}

impl Params {
    /// Creates an empty parameter map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a parameter, builder style.
    pub fn with(mut self, name: &str, value: impl Into<PropertyValue>) -> Self {
        self.entries.insert(name.to_owned(), value.into());
        self
    }

    /// Inserts a parameter in place.
    pub fn set(&mut self, name: &str, value: impl Into<PropertyValue>) {
        self.entries.insert(name.to_owned(), value.into());
    }

    /// Looks up a parameter.
    pub fn get(&self, name: &str) -> Option<&PropertyValue> {
        self.entries.get(name)
    }

    /// Looks up a string parameter.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(PropertyValue::as_str)
    }

    /// Looks up an integer parameter.
    pub fn get_int(&self, name: &str) -> Option<i64> {
        self.get(name).and_then(PropertyValue::as_int)
    }

    /// Looks up a float parameter (ints coerce).
    pub fn get_float(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(|v| v.as_float())
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PropertyValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors_match_variants() {
        assert_eq!(PropertyValue::from("x").as_str(), Some("x"));
        assert_eq!(PropertyValue::from(3i64).as_int(), Some(3));
        assert_eq!(PropertyValue::from(2.5).as_float(), Some(2.5));
        assert_eq!(PropertyValue::from(3i64).as_float(), Some(3.0));
        assert_eq!(PropertyValue::from("x").as_int(), None);
    }

    #[test]
    fn value_display() {
        assert_eq!(PropertyValue::from("hi").to_string(), "hi");
        assert_eq!(PropertyValue::from(7i64).to_string(), "7");
        assert_eq!(
            PropertyValue::Blob(Bytes::from_static(b"abc")).to_string(),
            "<3 bytes>"
        );
    }

    #[test]
    fn params_builder_and_lookup() {
        let p = Params::new()
            .with("a", 1i64)
            .with("b", "two")
            .with("c", 0.5);
        assert_eq!(p.iter().count(), 3);
        assert_eq!(p.get_int("a"), Some(1));
        assert_eq!(p.get_str("b"), Some("two"));
        assert_eq!(p.get_float("c"), Some(0.5));
        assert!(p.get("d").is_none());
    }

    #[test]
    fn params_overwrite_and_iterate_in_order() {
        let mut p = Params::new().with("z", 1i64).with("a", 2i64);
        p.set("z", 3i64);
        let names: Vec<&str> = p.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "z"]);
        assert_eq!(p.get_int("z"), Some(3));
    }

    #[test]
    fn empty_params() {
        let p = Params::new();
        assert_eq!(p.iter().count(), 0);
    }
}
