//! The engine's dynamic value type.
//!
//! `Value` must serve three masters: expression evaluation (SQL semantics
//! with NULLs), join/distinct hashing (equality must be canonical across
//! `Int`/`Double`), and ordering (`ORDER BY`, B-tree indexes need a total
//! order). The canonical rules:
//!
//! * SQL comparisons involving `Null` are *unknown* (`None` from
//!   [`Value::sql_cmp`]); `WHERE` treats unknown as false.
//! * `Int(3)` and `Double(3.0)` are equal and hash identically.
//! * [`Value::total_cmp`] is a total order with `Null` first and types
//!   ranked `Null < Bool < numbers < Str < Json < Array`.

use crate::error::{Error, Result};
use sqlgraph_json::Json;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A dynamically typed SQL value.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// SQL NULL.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Double(f64),
    /// UTF-8 string; `Arc` so projection copies are cheap.
    Str(Arc<str>),
    /// JSON document column value.
    Json(Arc<Json>),
    /// Array value (used for traversal `path` tracking).
    Array(Arc<Vec<Value>>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Build a JSON value.
    pub fn json(j: Json) -> Value {
        Value::Json(Arc::new(j))
    }

    /// Build an array value.
    pub fn array(items: Vec<Value>) -> Value {
        Value::Array(Arc::new(items))
    }

    /// True for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer content, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric content widened to f64 (`Int` or `Double`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            _ => None,
        }
    }

    /// String content, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean content, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// JSON content, if this is a `Json`.
    pub fn as_json(&self) -> Option<&Json> {
        match self {
            Value::Json(j) => Some(j),
            _ => None,
        }
    }

    /// Array content, if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// How many arrays deep the value nests: 0 for a scalar or a JSON
    /// document (encoded as text), 1 + the deepest element for an array.
    /// [`crate::codec`] decodes at most [`crate::codec::MAX_DEPTH`].
    pub fn depth(&self) -> usize {
        match self {
            Value::Array(items) => 1 + items.iter().map(Value::depth).max().unwrap_or(0),
            _ => 0,
        }
    }

    /// Short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Bool(_) => "BOOLEAN",
            Value::Int(_) => "INTEGER",
            Value::Double(_) => "DOUBLE",
            Value::Str(_) => "TEXT",
            Value::Json(_) => "JSON",
            Value::Array(_) => "ARRAY",
        }
    }

    /// SQL comparison: `None` when either side is NULL or the types are
    /// incomparable (e.g. `1 < 'a'` is unknown, matching the engine's
    /// lenient dynamic typing).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Value::Json(a), Value::Json(b)) => Some(a.total_cmp(b)),
            (Value::Array(a), Value::Array(b)) => Some(cmp_arrays(a, b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.partial_cmp(&y),
                _ => None,
            },
        }
    }

    /// SQL equality with NULL semantics: `None` if either side is NULL.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Total order for sorting and B-tree keys. NULL sorts first; distinct
    /// type classes are ranked; numbers compare across Int/Double.
    ///
    /// This is the engine-wide ordering contract — `ORDER BY`, B-tree index
    /// keys, and MIN/MAX all route through it, so it must be total even on
    /// inputs SQL comparison calls *unknown*:
    ///
    /// * `NULL` is the smallest value. With `ASC` (the default) NULLs come
    ///   first; `DESC` reverses the whole ordering, so NULLs come last.
    /// * Mixed types rank `NULL < BOOLEAN < numbers < TEXT < JSON < ARRAY`.
    /// * `Int` and `Double` compare numerically (`1 < 1.5 < 2`) and
    ///   exactly: an `Int` past 2^53 is not rounded to a `Double` first, so
    ///   equality stays transitive (hash-index postings rely on it); `-0.0`
    ///   equals `0.0`; `NaN` compares greater than every other number and
    ///   equal to itself, so sorts never panic and ties stay stable.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Double(_) => 2,
                Value::Str(_) => 3,
                Value::Json(_) => 4,
                Value::Array(_) => 5,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.as_ref().cmp(b.as_ref()),
            (Value::Json(a), Value::Json(b)) => a.total_cmp(b),
            (Value::Array(a), Value::Array(b)) => cmp_arrays(a, b),
            (Value::Double(x), Value::Double(y)) => match x.partial_cmp(y) {
                Some(o) => o,
                None => y.is_nan().cmp(&x.is_nan()).reverse(),
            },
            (Value::Int(a), Value::Double(b)) => cmp_int_double(*a, *b),
            (Value::Double(a), Value::Int(b)) => cmp_int_double(*b, *a).reverse(),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Cast for `CAST(e AS T)` and the attribute micro-benchmark queries.
    pub fn cast(&self, target: CastType) -> Result<Value> {
        let fail = || {
            Err(Error::Type(format!(
                "cannot cast {} to {:?}",
                self.type_name(),
                target
            )))
        };
        match target {
            CastType::Integer => match self {
                Value::Null => Ok(Value::Null),
                Value::Int(v) => Ok(Value::Int(*v)),
                Value::Double(v) => Ok(Value::Int(*v as i64)),
                Value::Bool(b) => Ok(Value::Int(*b as i64)),
                Value::Str(s) => s
                    .trim()
                    .parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| Error::Type(format!("cannot cast '{s}' to INTEGER"))),
                _ => fail(),
            },
            CastType::Double => match self {
                Value::Null => Ok(Value::Null),
                Value::Int(v) => Ok(Value::Double(*v as f64)),
                Value::Double(v) => Ok(Value::Double(*v)),
                Value::Str(s) => s
                    .trim()
                    .parse::<f64>()
                    .map(Value::Double)
                    .map_err(|_| Error::Type(format!("cannot cast '{s}' to DOUBLE"))),
                _ => fail(),
            },
            CastType::Text => match self {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Str(s.clone())),
                other => Ok(Value::str(other.to_string())),
            },
            CastType::Boolean => match self {
                Value::Null => Ok(Value::Null),
                Value::Bool(b) => Ok(Value::Bool(*b)),
                Value::Int(v) => Ok(Value::Bool(*v != 0)),
                _ => fail(),
            },
        }
    }
}

/// Targets accepted by `CAST`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CastType {
    /// 64-bit integer.
    Integer,
    /// 64-bit float.
    Double,
    /// UTF-8 text.
    Text,
    /// Boolean.
    Boolean,
}

/// `a` against `b` without rounding `a` to an `f64`; `NaN` is greater than
/// every number.
fn cmp_int_double(a: i64, b: f64) -> Ordering {
    // 2^63, exact as an f64: every i64 is below it and at or above its
    // negation.
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if b.is_nan() || b >= TWO_63 {
        return Ordering::Less;
    }
    if b < -TWO_63 {
        return Ordering::Greater;
    }
    let whole = b.trunc();
    a.cmp(&(whole as i64))
        .then_with(|| 0.0.partial_cmp(&(b - whole)).expect("finite fraction"))
}

fn cmp_arrays(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let o = x.total_cmp(y);
        if o != Ordering::Equal {
            return o;
        }
    }
    a.len().cmp(&b.len())
}

/// Canonical equality used by hash joins, DISTINCT, and hash indexes:
/// equality agrees with `total_cmp == Equal` (so NULL == NULL here, unlike
/// SQL predicates — index keys need reflexive equality).
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

/// The canonical total order, [`Value::total_cmp`]: consistent with the
/// canonical equality, so B-tree index keys and slices of values order by
/// it.
impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // Numbers hash by canonical numeric value so Int(3) == Double(3.0)
            // hash identically.
            Value::Int(_) | Value::Double(_) => {
                state.write_u8(2);
                let f = self.as_f64().unwrap();
                if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 {
                    state.write_u8(0);
                    (f as i64).hash(state);
                } else {
                    state.write_u8(1);
                    let f = if f == 0.0 { 0.0 } else { f };
                    f.to_bits().hash(state);
                }
            }
            Value::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
            Value::Json(j) => {
                state.write_u8(4);
                j.hash(state);
            }
            Value::Array(a) => {
                state.write_u8(5);
                for v in a.iter() {
                    v.hash(state);
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Str(s) => f.write_str(s),
            Value::Json(j) => write!(f, "{j}"),
            Value::Array(a) => {
                f.write_str("[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
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
        Value::Double(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl From<Json> for Value {
    fn from(v: Json) -> Self {
        Value::json(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn null_semantics() {
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        // ... but canonical equality is reflexive for index keys.
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(3), Value::Double(3.0));
        assert_eq!(h(&Value::Int(3)), h(&Value::Double(3.0)));
        assert_eq!(Value::Int(3).sql_eq(&Value::Double(3.0)), Some(true));
        assert_eq!(
            Value::Int(3).sql_cmp(&Value::Double(3.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn mixed_numbers_compare_exactly_past_2_pow_53() {
        let big = 1i64 << 53;
        let (a, b, c) = (
            Value::Int(big + 1),
            Value::Double(big as f64),
            Value::Int(big),
        );
        // Rounding `big + 1` to an f64 would make a == b == c but a != c.
        assert_eq!(b, c);
        assert_ne!(a, b);
        assert_eq!(a.total_cmp(&b), Ordering::Greater);
        assert_eq!(b.total_cmp(&a), Ordering::Less);
        assert_eq!(h(&b), h(&c));
        assert_eq!(
            Value::Int(-3).total_cmp(&Value::Double(-3.5)),
            Ordering::Greater
        );
        assert_eq!(Value::Int(0), Value::Double(-0.0));
        assert_eq!(
            Value::Int(i64::MAX).total_cmp(&Value::Double(f64::INFINITY)),
            Ordering::Less
        );
        assert_eq!(
            Value::Int(i64::MIN).total_cmp(&Value::Double(f64::NEG_INFINITY)),
            Ordering::Greater
        );
        assert_eq!(Value::Int(i64::MIN), Value::Double(i64::MIN as f64));
        assert_eq!(
            Value::Int(i64::MAX).total_cmp(&Value::Double(f64::NAN)),
            Ordering::Less
        );
    }

    #[test]
    fn incomparable_types_are_unknown() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::str("a")), None);
        assert_eq!(Value::Bool(true).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_null_first() {
        let mut vals = [
            Value::str("a"),
            Value::Int(5),
            Value::Null,
            Value::Bool(true),
            Value::Double(2.5),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Double(2.5));
        assert_eq!(vals[3], Value::Int(5));
        assert_eq!(vals[4], Value::str("a"));
    }

    #[test]
    fn total_order_handles_nan_and_signed_zero() {
        let nan = Value::Double(f64::NAN);
        // NaN is greater than every other number and equal to itself.
        assert_eq!(
            nan.total_cmp(&Value::Double(f64::INFINITY)),
            Ordering::Greater
        );
        assert_eq!(Value::Int(i64::MAX).total_cmp(&nan), Ordering::Less);
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
        // ... but still below the string class.
        assert_eq!(nan.total_cmp(&Value::str("")), Ordering::Less);
        assert_eq!(
            Value::Double(-0.0).total_cmp(&Value::Double(0.0)),
            Ordering::Equal
        );
        assert_eq!(Value::Double(-0.0), Value::Int(0));
    }

    #[test]
    fn casts() {
        assert_eq!(
            Value::str("42").cast(CastType::Integer).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::str(" 2.5 ").cast(CastType::Double).unwrap(),
            Value::Double(2.5)
        );
        assert_eq!(Value::Int(7).cast(CastType::Text).unwrap(), Value::str("7"));
        assert_eq!(Value::Null.cast(CastType::Integer).unwrap(), Value::Null);
        assert!(Value::str("x").cast(CastType::Integer).is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(
            Value::array(vec![Value::Int(1), Value::str("a")]).to_string(),
            "[1, a]"
        );
    }
}
