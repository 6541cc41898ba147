use std::fmt;

/// The value of a named output attribute.
///
/// Attributes are the per-identifier quantities that consistency
/// assertions require to match: a class index, a gender string, a flag.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttrValue {
    /// An integral attribute (e.g. a class index).
    Int(i64),
    /// A textual attribute (e.g. an identity name or hair color).
    Text(String),
    /// A Boolean attribute.
    Flag(bool),
}

impl AttrValue {
    /// Convenience constructor for text attributes.
    pub fn text<S: Into<String>>(s: S) -> Self {
        AttrValue::Text(s.into())
    }

    /// Convenience constructor for integral attributes (e.g. class ids).
    pub fn class(c: usize) -> Self {
        AttrValue::Int(c as i64)
    }

    /// The integral payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AttrValue::Int(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Text(s) => write!(f, "{s}"),
            AttrValue::Flag(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Text(s.to_string())
    }
}

impl From<bool> for AttrValue {
    fn from(b: bool) -> Self {
        AttrValue::Flag(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(AttrValue::class(3).as_int(), Some(3));
        assert_eq!(AttrValue::from(7i64), AttrValue::Int(7));
        assert_eq!(AttrValue::from("x"), AttrValue::Text("x".into()));
    }

    #[test]
    fn cross_type_accessors_are_none() {
        assert_eq!(AttrValue::text("a").as_int(), None);
    }

    #[test]
    fn equality_and_hash_usable_as_key() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(AttrValue::text("blonde"), 2);
        assert_eq!(m[&AttrValue::text("blonde")], 2);
    }

    #[test]
    fn display_forms() {
        assert_eq!(AttrValue::Int(5).to_string(), "5");
        assert_eq!(AttrValue::text("brown").to_string(), "brown");
        assert_eq!(AttrValue::Flag(false).to_string(), "false");
    }
}
