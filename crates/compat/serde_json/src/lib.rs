//! Offline JSON for the DN-Hunter workspace: [`from_str`] parses a
//! document into an indexable [`Value`] tree, and `Value`'s `Display`
//! writes it back as compact JSON. It keeps the `serde_json` names the
//! benchmark and the tests call; nothing else is provided.

#![forbid(unsafe_code)]

use std::fmt;

mod parse;
mod value;

pub use value::{Number, Value};

/// Error raised by JSON decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.message)
    }
}

impl std::error::Error for Error {}

/// Parse a JSON document into a [`Value`].
pub fn from_str<T: From<Value>>(input: &str) -> Result<T, Error> {
    parse::parse(input).map(T::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_writes_compact_json() {
        let v: Value =
            from_str(r#"{"b": true, "n": [42, -7, 0.5, null], "s": "hi\"there\n"}"#).unwrap();
        assert_eq!(
            v.to_string(),
            r#"{"b":true,"n":[42,-7,0.5,null],"s":"hi\"there\n"}"#
        );
        assert_eq!(from_str::<Value>(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn value_indexing() {
        let v: Value = from_str(r#"{"a": {"b": [1, 2, 443]}, "s": "x"}"#).unwrap();
        assert_eq!(v["a"]["b"][2], 443);
        assert_eq!(v["s"], "x");
        assert!(v["missing"].is_null());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<Value>("{oops").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("\"open").is_err());
    }
}
