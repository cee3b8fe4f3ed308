//! The owned JSON value model.

use crate::number::Number;
use std::cmp::Ordering;

/// An object: insertion-ordered key/value pairs.
///
/// Property graph attribute maps are small (a handful of keys), so a linear
/// vector beats a hash map on both footprint and probe cost, and preserves
/// the order attributes were written in — which keeps serialized documents
/// stable for tests and on-disk comparison.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct JsonObject {
    entries: Vec<(String, Json)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the object has no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries the object holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Mutable value for `key`, if present.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Insert or replace `key`, returning the previous value if any.
    pub fn insert(&mut self, key: impl Into<String>, value: Json) -> Option<Json> {
        let key = key.into();
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => Some(std::mem::replace(v, value)),
            None => {
                self.entries.push((key, value));
                None
            }
        }
    }

    /// Remove `key`, returning its value if present. Order of the remaining
    /// entries is preserved.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// True if `key` is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.entries.iter().any(|(k, _)| k == key)
    }

    /// Iterator over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Json)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterator over keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }
}

/// Allocated at the iterator's size hint, so an object collected from an
/// exact-size source ends at its length. A repeated key keeps its first
/// position and its last value, as [`JsonObject::insert`] does.
impl FromIterator<(String, Json)> for JsonObject {
    fn from_iter<T: IntoIterator<Item = (String, Json)>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let mut obj = JsonObject {
            entries: Vec::with_capacity(iter.size_hint().0),
        };
        for (k, v) in iter {
            obj.insert(k, v);
        }
        obj
    }
}

/// An owned JSON value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Json {
    /// `null`
    #[default]
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (integer-ness preserved; see [`Number`]).
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(JsonObject),
}

impl Json {
    /// Build an integer value.
    pub fn int(v: i64) -> Json {
        Json::Num(Number::Int(v))
    }

    /// Build a float value.
    pub fn float(v: f64) -> Json {
        Json::Num(Number::Float(v))
    }

    /// Build a string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// `true` for `Json::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Borrow as `&str` if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Value as `i64` if this is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => n.as_i64(),
            _ => None,
        }
    }

    /// Value as `f64` if this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Value as `bool` if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow as an object, if this is one.
    pub fn as_object(&self) -> Option<&JsonObject> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Mutably borrow as an object, if this is one.
    pub fn as_object_mut(&mut self) -> Option<&mut JsonObject> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Borrow as an array, if this is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Object member access: `doc.get("name")`. `None` on non-objects and
    /// missing keys — the shape `JSON_VAL` needs.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object().and_then(|o| o.get(key))
    }

    /// Array element access.
    pub fn get_index(&self, idx: usize) -> Option<&Json> {
        self.as_array().and_then(|a| a.get(idx))
    }

    /// Deep access along a `/`-free key path, e.g. `["a", "b"]`.
    pub fn get_path<'a, I>(&self, path: I) -> Option<&Json>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut cur = self;
        for key in path {
            cur = cur.get(key)?;
        }
        Some(cur)
    }

    /// A stable total order across all JSON values, used when JSON documents
    /// participate in SQL `ORDER BY`/`DISTINCT`. Order by type class first
    /// (null < bool < number < string < array < object), then by content.
    pub fn total_cmp(&self, other: &Json) -> Ordering {
        fn rank(j: &Json) -> u8 {
            match j {
                Json::Null => 0,
                Json::Bool(_) => 1,
                Json::Num(_) => 2,
                Json::Str(_) => 3,
                Json::Array(_) => 4,
                Json::Object(_) => 5,
            }
        }
        match (self, other) {
            (Json::Bool(a), Json::Bool(b)) => a.cmp(b),
            (Json::Num(a), Json::Num(b)) => a.cmp_num(b),
            (Json::Str(a), Json::Str(b)) => a.cmp(b),
            (Json::Array(a), Json::Array(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let o = x.total_cmp(y);
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Json::Object(a), Json::Object(b)) => {
                for ((ka, va), (kb, vb)) in a.iter().zip(b.iter()) {
                    let o = ka.cmp(kb).then_with(|| va.total_cmp(vb));
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::float(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::str(v)
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_insert_get_remove() {
        let mut obj = JsonObject::new();
        assert!(obj.insert("a", Json::int(1)).is_none());
        assert!(obj.insert("b", Json::str("x")).is_none());
        assert_eq!(obj.insert("a", Json::int(2)), Some(Json::int(1)));
        assert_eq!(obj.get("a"), Some(&Json::int(2)));
        assert_eq!(obj.len(), 2);
        assert_eq!(obj.remove("a"), Some(Json::int(2)));
        assert!(!obj.contains_key("a"));
        assert_eq!(obj.len(), 1);
    }

    #[test]
    fn object_preserves_insertion_order() {
        let mut obj = JsonObject::new();
        obj.insert("z", Json::Null);
        obj.insert("a", Json::Null);
        obj.insert("m", Json::Null);
        let keys: Vec<_> = obj.keys().collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn collected_objects_end_at_their_length() {
        for n in 1..=9 {
            let obj: JsonObject = (0..n).map(|i| (format!("k{i}"), Json::int(i))).collect();
            assert_eq!(obj.len(), n as usize);
            assert_eq!(obj.capacity(), obj.len(), "{n} keys");
        }
    }

    #[test]
    fn a_collected_duplicate_keeps_its_first_position_and_last_value() {
        let obj: JsonObject = [("a", 1), ("b", 2), ("a", 3), ("c", 4), ("b", 5)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::int(v)))
            .collect();
        let entries: Vec<_> = obj.iter().map(|(k, v)| (k, v.as_i64().unwrap())).collect();
        assert_eq!(entries, [("a", 3), ("b", 5), ("c", 4)]);
    }

    #[test]
    fn deep_path_access() {
        let mut inner = JsonObject::new();
        inner.insert("age", Json::int(29));
        let mut outer = JsonObject::new();
        outer.insert("who", Json::Object(inner));
        let doc = Json::Object(outer);
        assert_eq!(doc.get_path(["who", "age"]), Some(&Json::int(29)));
        assert_eq!(doc.get_path(["who", "nope"]), None);
        assert_eq!(doc.get_path(["who", "age", "deeper"]), None);
    }

    #[test]
    fn total_order_ranks_types() {
        let vals = [
            Json::Null,
            Json::Bool(false),
            Json::int(0),
            Json::str(""),
            Json::Array(vec![]),
            Json::Object(JsonObject::new()),
        ];
        for w in vals.windows(2) {
            assert_eq!(w[0].total_cmp(&w[1]), Ordering::Less);
        }
    }

    #[test]
    fn array_order_is_lexicographic() {
        let a = Json::Array(vec![Json::int(1), Json::int(2)]);
        let b = Json::Array(vec![Json::int(1), Json::int(3)]);
        let c = Json::Array(vec![Json::int(1)]);
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        assert_eq!(c.total_cmp(&a), Ordering::Less);
    }
}
