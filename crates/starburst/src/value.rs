//! Runtime values and their types.

use crate::{DbError, Result};
use qbism_lfm::LongFieldId;
use std::any::Any;
use std::sync::Arc;

/// Column/expression data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
    /// A long-field handle (REGION, VOLUME, mesh, raw study bytes, …).
    ///
    /// "Although the Starburst SQL query compiler sees our REGIONs and
    /// VOLUMEs as instances of the same long-field type, we 'encapsulate'
    /// these 'types' by using SQL functions to operate on them."
    Long,
    /// An immediate byte string: how a computed REGION travels between
    /// nested UDFs (`intersection` returns its answer's encoded bytes,
    /// which `extractVoxels` then opens) without materializing a long
    /// field, so intermediate answers cost no device I/O.
    Bytes,
    /// An opaque in-memory value a UDF built (see [`Value::Object`]).
    /// No column has this type, so it never enters a table.
    Object,
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "string",
            DataType::Bool => "bool",
            DataType::Long => "long",
            DataType::Bytes => "bytes",
            DataType::Object => "object",
        };
        f.write_str(name)
    }
}

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Long-field handle.
    Long(LongFieldId),
    /// Immediate byte string (see [`DataType::Bytes`]).
    Bytes(Vec<u8>),
    /// A typed value only the UDFs that made and read it understand —
    /// `extractVoxels`'s DATA_REGION, handed to the server as built.
    /// The engine passes it through projections and UDF arguments but
    /// never reads it: `=`, `<`, `IN`, GROUP BY, ORDER BY, MIN/MAX and
    /// join keys refuse it with [`DbError::Type`], and no table stores it.
    /// Equal only to itself (the same allocation).
    Object(Arc<dyn Any + Send + Sync>),
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            (Long(a), Long(b)) => a == b,
            (Bytes(a), Bytes(b)) => a == b,
            (Object(a), Object(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Value {
    /// The value's type, or `None` for NULL (which types as anything).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Long(_) => Some(DataType::Long),
            Value::Bytes(_) => Some(DataType::Bytes),
            Value::Object(_) => Some(DataType::Object),
        }
    }

    /// Whether this value can live in a column of type `ty`
    /// (NULL fits everywhere; ints coerce into float columns).
    pub fn fits(&self, ty: DataType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::Object(_), _) => false,
            (Value::Int(_), DataType::Float) => true,
            (v, t) => v.data_type() == Some(t),
        }
    }

    /// Numeric view (int or float), if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view, if the value is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view, if the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Long-field view, if the value is a long field.
    pub fn as_long(&self) -> Option<LongFieldId> {
        match self {
            Value::Long(id) => Some(*id),
            _ => None,
        }
    }

    /// Byte-string view, if the value is an immediate byte string.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Wraps a UDF's in-memory answer as an opaque [`Value::Object`].
    pub fn object<T: Any + Send + Sync>(value: T) -> Value {
        Value::Object(Arc::new(value))
    }

    /// Borrowed view of an opaque value, if it holds a `T`.
    pub fn as_object<T: Any>(&self) -> Option<&T> {
        match self {
            Value::Object(o) => o.downcast_ref(),
            _ => None,
        }
    }

    /// Another handle to the `T` an opaque value holds — the value
    /// itself is shared, not copied.
    pub fn as_shared<T: Any + Send + Sync>(&self) -> Option<Arc<T>> {
        match self {
            Value::Object(o) => Arc::clone(o).downcast().ok(),
            _ => None,
        }
    }

    /// The `T` an opaque value holds, moved out when this is its only
    /// handle (the answer a statement returns is), cloned otherwise.
    pub fn into_object<T: Any + Send + Sync + Clone>(self) -> Option<T> {
        match self {
            Value::Object(o) => o.downcast().ok().map(Arc::unwrap_or_clone),
            _ => None,
        }
    }

    /// `self`, or a type error naming `clause` if the engine cannot
    /// read the value there (it is opaque).
    pub(crate) fn readable(&self, clause: &str) -> Result<&Value> {
        match self {
            Value::Object(_) => Err(unreadable(clause)),
            v => Ok(v),
        }
    }

    /// SQL equality: NULL equals nothing (including NULL); numeric types
    /// compare by value across int/float; an opaque value is refused.
    pub fn sql_eq(&self, other: &Value) -> Result<Option<bool>> {
        Ok(match (self.readable("=")?, other.readable("=")?) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                Some(*a as f64 == *b)
            }
            (a, b) => Some(a == b),
        })
    }

    /// SQL ordering comparison; `None` when incomparable or NULL.
    pub fn sql_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Long(a), Long(b)) => Some(a.cmp(b)),
            (Bytes(a), Bytes(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// A sort key that groups values of one column: NULLs first, then by
    /// value.  Used by ORDER BY, where mixed types in one column are a
    /// schema-level impossibility.
    pub(crate) fn order_key_cmp(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Null, _) => Ordering::Less,
            (_, Value::Null) => Ordering::Greater,
            _ => self.sql_cmp(other).unwrap_or(Ordering::Equal),
        }
    }
}

/// The type error of an opaque value where `clause` would read it.
pub(crate) fn unreadable(clause: &str) -> DbError {
    DbError::Type(format!("{clause} cannot read an opaque value"))
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Long(id) => write!(f, "<long:{}>", id.0),
            Value::Bytes(b) => write!(f, "<bytes:{}>", b.len()),
            Value::Object(_) => write!(f, "<object>"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<LongFieldId> for Value {
    fn from(v: LongFieldId) -> Self {
        Value::Long(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typing_and_fits() {
        assert_eq!(Value::Int(3).data_type(), Some(DataType::Int));
        assert_eq!(Value::Null.data_type(), None);
        assert!(Value::Null.fits(DataType::Long));
        assert!(Value::Int(3).fits(DataType::Float), "int widens to float");
        assert!(!Value::Float(3.0).fits(DataType::Int), "float does not narrow");
        assert!(Value::Long(LongFieldId(9)).fits(DataType::Long));
        assert!(!Value::Str("x".into()).fits(DataType::Int));
    }

    #[test]
    fn equality_with_coercion_and_null() {
        assert_eq!(Value::Int(3).sql_eq(&Value::Float(3.0)), Ok(Some(true)));
        assert_eq!(Value::Int(3).sql_eq(&Value::Int(4)), Ok(Some(false)));
        assert_eq!(Value::Null.sql_eq(&Value::Null), Ok(None));
        assert_eq!(Value::Str("a".into()).sql_eq(&Value::Str("a".into())), Ok(Some(true)));
        assert_eq!(Value::Str("a".into()).sql_eq(&Value::Int(1)), Ok(Some(false)));
    }

    #[test]
    fn ordering_comparisons() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Int(2).sql_cmp(&Value::Float(2.5)), Some(Less));
        assert_eq!(Value::Str("abc".into()).sql_cmp(&Value::Str("abd".into())), Some(Less));
        assert_eq!(Value::Bool(false).sql_cmp(&Value::Bool(true)), Some(Less));
        assert_eq!(Value::Null.sql_cmp(&Value::Int(0)), None);
        assert_eq!(Value::Str("x".into()).sql_cmp(&Value::Int(0)), None);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_f64(), Some(5.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Str("s".into()).as_f64(), None);
        assert_eq!(Value::Int(5).as_i64(), Some(5));
        assert_eq!(Value::Str("hello".into()).as_str(), Some("hello"));
        assert_eq!(Value::Long(LongFieldId(3)).as_long(), Some(LongFieldId(3)));
    }

    #[test]
    fn bytes_value_roundtrip() {
        let v = Value::Bytes(vec![1, 2, 3]);
        assert_eq!(v.data_type(), Some(DataType::Bytes));
        assert_eq!(v.as_bytes(), Some(&[1u8, 2, 3][..]));
        assert!(v.fits(DataType::Bytes));
        assert_eq!(v.to_string(), "<bytes:3>");
        assert_eq!(v.sql_eq(&Value::Bytes(vec![1, 2, 3])), Ok(Some(true)));
        assert_eq!(
            Value::Bytes(vec![1]).sql_cmp(&Value::Bytes(vec![2])),
            Some(std::cmp::Ordering::Less)
        );
    }

    /// An opaque value is itself to its maker, nothing to SQL: equal
    /// only to its own allocation, typed nowhere a column is, refused
    /// by `=` even against NULL, and moved out without a copy when its
    /// handle is the only one.
    #[test]
    fn opaque_values_pass_through_unread() {
        let v = Value::object(vec![7u8; 3]);
        assert_eq!(v.as_object::<Vec<u8>>(), Some(&vec![7u8; 3]));
        assert_eq!(v.as_object::<String>(), None);
        assert_eq!(v.clone(), v);
        assert_ne!(Value::object(vec![7u8; 3]), v);
        assert_eq!(v.to_string(), "<object>");
        for ty in [DataType::Bytes, DataType::Long, DataType::Object] {
            assert!(!v.fits(ty), "{ty}");
        }
        for other in [Value::Null, Value::Int(1), v.clone()] {
            assert!(matches!(v.sql_eq(&other), Err(DbError::Type(_))));
            assert!(matches!(other.sql_eq(&v), Err(DbError::Type(_))));
        }
        assert_eq!(v.sql_cmp(&v), None);
        let held = v.as_object::<Vec<u8>>().map(|b| b.as_ptr());
        assert_eq!(v.into_object::<Vec<u8>>().map(|b| b.as_ptr()), held, "moved, not cloned");
        assert_eq!(Value::Int(1).into_object::<Vec<u8>>(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(-2).to_string(), "-2");
        assert_eq!(Value::Str("hi".into()).to_string(), "'hi'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Long(LongFieldId(7)).to_string(), "<long:7>");
        assert_eq!(DataType::Long.to_string(), "long");
    }
}
