//! Secondary indexes: hash (point lookups) and B-tree (range scans).
//!
//! The paper's schema leans on exactly these: primary keys on `VID`/`EID`,
//! hash indexes on `VALID`, and the combined `(INV, LBL)` / `(OUTV, LBL)`
//! indexes that stand in for the SP/OP indexes of RDF stores.

use crate::error::{Error, Result};
use crate::hasher::FxHashMap;
use crate::value::Value;
use std::collections::BTreeMap;

/// Row identifier: position in the table's row slab.
pub type RowId = usize;

/// A totally ordered, hashable composite key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IndexKey(pub Vec<Value>);

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            let o = a.total_cmp(b);
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

/// Physical index kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Hash map: O(1) point lookups, no range scans.
    Hash,
    /// B-tree: point lookups plus ordered range scans.
    BTree,
}

#[derive(Debug)]
enum Map {
    Hash(FxHashMap<IndexKey, Vec<RowId>>),
    BTree(BTreeMap<IndexKey, Vec<RowId>>),
}

/// One component of an index key: a plain column, or a JSON member
/// extracted from a JSON column (a *functional* index — the paper's
/// "specialized indexes for attributes" over the JSON tables, §3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyPart {
    /// The column's value.
    Column(usize),
    /// `JSON_VAL(column, key)` of a JSON column.
    JsonKey(usize, String),
}

impl KeyPart {
    /// Column position this part reads.
    pub fn column(&self) -> usize {
        match self {
            KeyPart::Column(c) | KeyPart::JsonKey(c, _) => *c,
        }
    }

    /// Whether this part of `row` equals `key` — a plain column is compared
    /// in place, with no clone.
    fn matches(&self, row: &[Value], key: &Value) -> bool {
        match self {
            KeyPart::Column(c) => row[*c] == *key,
            KeyPart::JsonKey(..) => self.extract(row) == *key,
        }
    }

    /// Evaluate against a full table row.
    pub fn extract(&self, row: &[Value]) -> Value {
        match self {
            KeyPart::Column(c) => row[*c].clone(),
            KeyPart::JsonKey(c, key) => match &row[*c] {
                Value::Json(doc) => doc
                    .get(key)
                    .map(crate::expr::json_to_value)
                    .unwrap_or(Value::Null),
                _ => Value::Null,
            },
        }
    }
}

/// A secondary (or primary) index over one or more key parts.
#[derive(Debug)]
pub struct Index {
    /// Index name (unique within the database).
    pub name: String,
    /// Key parts, in key order.
    pub parts: Vec<KeyPart>,
    /// Plain column positions when every part is a column (the common
    /// case); empty if any part is functional. Kept for cheap planner
    /// matching.
    pub columns: Vec<usize>,
    /// Rejects duplicate keys when true.
    pub unique: bool,
    map: Map,
}

impl Index {
    /// Create an empty index over plain columns.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<usize>,
        unique: bool,
        kind: IndexKind,
    ) -> Index {
        let parts = columns.iter().map(|&c| KeyPart::Column(c)).collect();
        Index::with_parts(name, parts, unique, kind)
    }

    /// Create an empty index over arbitrary key parts.
    pub fn with_parts(
        name: impl Into<String>,
        parts: Vec<KeyPart>,
        unique: bool,
        kind: IndexKind,
    ) -> Index {
        let columns = if parts.iter().all(|p| matches!(p, KeyPart::Column(_))) {
            parts.iter().map(KeyPart::column).collect()
        } else {
            Vec::new()
        };
        Index {
            name: name.into(),
            parts,
            columns,
            unique,
            map: match kind {
                IndexKind::Hash => Map::Hash(FxHashMap::default()),
                IndexKind::BTree => Map::BTree(BTreeMap::new()),
            },
        }
    }

    /// The physical kind of this index.
    pub fn kind(&self) -> IndexKind {
        match self.map {
            Map::Hash(_) => IndexKind::Hash,
            Map::BTree(_) => IndexKind::BTree,
        }
    }

    /// Extract this index's key from a full table row.
    pub fn key_of(&self, row: &[Value]) -> IndexKey {
        IndexKey(self.parts.iter().map(|p| p.extract(row)).collect())
    }

    /// Whether `row`'s key equals `key`, compared part by part without
    /// building an [`IndexKey`].
    pub(crate) fn key_matches(&self, row: &[Value], key: &[Value]) -> bool {
        self.parts.len() == key.len() && self.parts.iter().zip(key).all(|(p, k)| p.matches(row, k))
    }

    /// Insert `row_id` under the key extracted from `row`.
    /// Unique violations report the index name.
    pub fn insert(&mut self, row: &[Value], row_id: RowId) -> Result<()> {
        let key = self.key_of(row);
        let entry = match &mut self.map {
            Map::Hash(m) => m.entry(key).or_default(),
            Map::BTree(m) => m.entry(key).or_default(),
        };
        if self.unique && !entry.is_empty() {
            return Err(Error::Schema(format!(
                "unique index '{}' violated",
                self.name
            )));
        }
        entry.push(row_id);
        Ok(())
    }

    /// Add a posting for `row_id` under `key` without the unique check.
    /// MVCC paths use this: a unique index legitimately holds postings for
    /// several *versions* carrying the same key, so uniqueness is enforced
    /// at the table level against version liveness instead.
    pub fn add(&mut self, key: IndexKey, row_id: RowId) {
        let entry = match &mut self.map {
            Map::Hash(m) => m.entry(key).or_default(),
            Map::BTree(m) => m.entry(key).or_default(),
        };
        entry.push(row_id);
    }

    /// Remove `row_id` under the key extracted from `row`. No-op if absent.
    pub fn remove(&mut self, row: &[Value], row_id: RowId) {
        let key = self.key_of(row);
        self.remove_key(&key, row_id);
    }

    /// Remove `row_id`'s posting under `key`. No-op if absent.
    pub fn remove_key(&mut self, key: &IndexKey, row_id: RowId) {
        let remove_from = |ids: &mut Vec<RowId>| {
            if let Some(pos) = ids.iter().position(|&id| id == row_id) {
                ids.swap_remove(pos);
            }
            ids.is_empty()
        };
        match &mut self.map {
            Map::Hash(m) => {
                if let Some(ids) = m.get_mut(key) {
                    if remove_from(ids) {
                        m.remove(key);
                    }
                }
            }
            Map::BTree(m) => {
                if let Some(ids) = m.get_mut(key) {
                    if remove_from(ids) {
                        m.remove(key);
                    }
                }
            }
        }
    }

    /// Row IDs exactly matching `key`.
    pub fn lookup(&self, key: &IndexKey) -> &[RowId] {
        match &self.map {
            Map::Hash(m) => m.get(key).map(Vec::as_slice).unwrap_or(&[]),
            Map::BTree(m) => m.get(key).map(Vec::as_slice).unwrap_or(&[]),
        }
    }

    /// The `(key, postings)` entries with keys in `[lo, hi]` (inclusive
    /// bounds; `None` = open), in key order. A chain whose versions carry
    /// several keys in range is posted under each: readers keep a row only
    /// under the key its visible version carries. Only B-tree indexes serve
    /// ranges; hash indexes return an error.
    pub fn range(
        &self,
        lo: Option<&IndexKey>,
        hi: Option<&IndexKey>,
    ) -> Result<Vec<(&IndexKey, &[RowId])>> {
        let m = match &self.map {
            Map::BTree(m) => m,
            Map::Hash(_) => {
                return Err(Error::Invalid(format!(
                    "index '{}' is a hash index and cannot serve range scans",
                    self.name
                )))
            }
        };
        if let (Some(lo), Some(hi)) = (lo, hi) {
            if lo > hi {
                return Ok(Vec::new());
            }
        }
        use std::ops::Bound;
        let lo = lo.map_or(Bound::Unbounded, |k| Bound::Included(k.clone()));
        let hi = hi.map_or(Bound::Unbounded, |k| Bound::Included(k.clone()));
        Ok(m.range((lo, hi))
            .map(|(k, ids)| (k, ids.as_slice()))
            .collect())
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        match &self.map {
            Map::Hash(m) => m.len(),
            Map::BTree(m) => m.len(),
        }
    }

    /// Iterate every (key, postings) entry. Hash indexes yield keys in
    /// arbitrary order, B-trees in key order; within an entry the postings
    /// keep their insertion order — the same order [`Index::lookup`]
    /// returns, which the CSR builder relies on for byte-identical results.
    pub fn entries(&self) -> Box<dyn Iterator<Item = (&IndexKey, &[RowId])> + '_> {
        match &self.map {
            Map::Hash(m) => Box::new(m.iter().map(|(k, v)| (k, v.as_slice()))),
            Map::BTree(m) => Box::new(m.iter().map(|(k, v)| (k, v.as_slice()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn hash_insert_lookup_remove() {
        let mut idx = Index::new("i", vec![0], false, IndexKind::Hash);
        idx.insert(&row(&[5, 10]), 0).unwrap();
        idx.insert(&row(&[5, 20]), 1).unwrap();
        idx.insert(&row(&[6, 30]), 2).unwrap();
        let key = IndexKey(vec![Value::Int(5)]);
        let mut ids = idx.lookup(&key).to_vec();
        ids.sort_unstable();
        assert_eq!(ids, [0, 1]);
        idx.remove(&row(&[5, 10]), 0);
        assert_eq!(idx.lookup(&key), [1]);
        idx.remove(&row(&[5, 20]), 1);
        assert!(idx.lookup(&key).is_empty());
        assert_eq!(idx.distinct_keys(), 1);
    }

    #[test]
    fn unique_violation() {
        let mut idx = Index::new("pk", vec![0], true, IndexKind::Hash);
        idx.insert(&row(&[1]), 0).unwrap();
        assert!(idx.insert(&row(&[1]), 1).is_err());
        // Distinct key is fine.
        idx.insert(&row(&[2]), 1).unwrap();
    }

    #[test]
    fn composite_keys() {
        let mut idx = Index::new("c", vec![0, 1], false, IndexKind::Hash);
        idx.insert(&row(&[1, 2]), 0).unwrap();
        idx.insert(&row(&[1, 3]), 1).unwrap();
        assert_eq!(
            idx.lookup(&IndexKey(vec![Value::Int(1), Value::Int(2)])),
            [0]
        );
        assert!(idx.lookup(&IndexKey(vec![Value::Int(1)])).is_empty());
    }

    /// The row ids of a range scan, in order.
    fn range_ids(idx: &Index, lo: Option<&IndexKey>, hi: Option<&IndexKey>) -> Vec<RowId> {
        let entries = idx.range(lo, hi).unwrap();
        entries
            .iter()
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect()
    }

    #[test]
    fn btree_range() {
        let mut idx = Index::new("b", vec![0], false, IndexKind::BTree);
        for (i, v) in [10, 20, 30, 40].iter().enumerate() {
            idx.insert(&row(&[*v]), i).unwrap();
        }
        let lo = IndexKey(vec![Value::Int(15)]);
        let hi = IndexKey(vec![Value::Int(35)]);
        assert_eq!(range_ids(&idx, Some(&lo), Some(&hi)), [1, 2]);
        assert_eq!(range_ids(&idx, None, Some(&lo)), [0]);
        assert_eq!(range_ids(&idx, Some(&hi), None), [3]);
        assert_eq!(range_ids(&idx, None, None).len(), 4);
        // An empty interval is empty, not a panic.
        assert!(range_ids(&idx, Some(&hi), Some(&lo)).is_empty());
    }

    #[test]
    fn hash_rejects_range() {
        let idx = Index::new("h", vec![0], false, IndexKind::Hash);
        assert!(idx.range(None, None).is_err());
    }

    #[test]
    fn mixed_type_keys_ordered() {
        let mut idx = Index::new("m", vec![0], false, IndexKind::BTree);
        idx.insert(&[Value::str("b")], 0).unwrap();
        idx.insert(&[Value::Int(1)], 1).unwrap();
        idx.insert(&[Value::Null], 2).unwrap();
        // Total order: NULL < numbers < strings.
        assert_eq!(range_ids(&idx, None, None), [2, 1, 0]);
    }
}
