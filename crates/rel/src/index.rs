//! Secondary indexes: hash (point lookups) and B-tree (range scans).
//!
//! The paper's schema leans on exactly these: primary keys on `VID`/`EID`,
//! hash indexes on `VALID`, and the combined `(INV, LBL)` / `(OUTV, LBL)`
//! indexes that stand in for the SP/OP indexes of RDF stores.
//!
//! Each distinct key is one slot of its map and, in the common case, owns
//! no heap block. The key is stored by the index's arity: a bare [`Value`]
//! for one part, `[Value; 2]` for two (every index the SQLGraph schema
//! creates has one or the other), a boxed slice beyond. Every form borrows,
//! hashes and orders as the slice of its parts, so a probe is a plain
//! `&[Value]`. A key's postings are one inline row id until it has two.

use crate::error::{Error, Result};
use crate::footprint::Usage;
use crate::hasher::FxHashMap;
use crate::storage::RowRef;
use crate::value::Value;
use std::borrow::Borrow;
use std::collections::{btree_map, hash_map, BTreeMap};
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::ops::Bound;

/// Row identifier: position in the table's row slab.
pub type RowId = usize;

/// Physical index kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Hash map: O(1) point lookups, no range scans.
    Hash,
    /// B-tree: point lookups plus ordered range scans.
    BTree,
}

/// One key's row ids: inline while there is one, a vector from two on.
/// `Many` never holds fewer than two, so a key that shrinks back to one
/// posting frees its vector.
#[derive(Debug)]
enum Postings {
    One(RowId),
    Many(Vec<RowId>),
}

impl Postings {
    fn as_slice(&self) -> &[RowId] {
        match self {
            Postings::One(id) => std::slice::from_ref(id),
            Postings::Many(ids) => ids,
        }
    }

    fn push(&mut self, id: RowId) {
        match self {
            Postings::One(first) => *self = Postings::Many(vec![*first, id]),
            Postings::Many(ids) => ids.push(id),
        }
    }

    /// Drop `id` (a no-op if absent). True when no posting is left.
    fn remove(&mut self, id: RowId) -> bool {
        match self {
            Postings::One(only) => *only == id,
            Postings::Many(ids) => {
                if let Some(pos) = ids.iter().position(|&r| r == id) {
                    ids.swap_remove(pos);
                    if let [last] = ids[..] {
                        *self = Postings::One(last);
                    }
                }
                false
            }
        }
    }

    fn heap(&self) -> Usage {
        match self {
            Postings::One(_) => Usage::default(),
            Postings::Many(ids) => Usage::block(ids.capacity() * size_of::<RowId>()),
        }
    }
}

/// A key as its slot stores it. Each form borrows as the slice of its
/// parts and hashes, compares and orders exactly as that slice does, so a
/// map of any form is probed with a `&[Value]`.
trait SlotKey: Borrow<[Value]> + Hash + Ord {
    /// The key `parts` extract from `row`.
    fn extract(parts: &[KeyPart], row: RowRef<'_>) -> Self;

    /// Heap the key owns itself, shared payloads aside.
    fn heap(&self) -> Usage {
        Usage::default()
    }
}

/// A one-part key: the bare value.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Single(Value);

impl Borrow<[Value]> for Single {
    fn borrow(&self) -> &[Value] {
        std::slice::from_ref(&self.0)
    }
}

impl Hash for Single {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // As the one-element slice hashes, so a slice probe finds it.
        std::slice::from_ref(&self.0).hash(state);
    }
}

impl SlotKey for Single {
    fn extract(parts: &[KeyPart], row: RowRef<'_>) -> Single {
        Single(parts[0].extract(row))
    }
}

impl SlotKey for [Value; 2] {
    fn extract(parts: &[KeyPart], row: RowRef<'_>) -> [Value; 2] {
        [parts[0].extract(row), parts[1].extract(row)]
    }
}

impl SlotKey for Box<[Value]> {
    fn extract(parts: &[KeyPart], row: RowRef<'_>) -> Box<[Value]> {
        parts.iter().map(|p| p.extract(row)).collect()
    }

    fn heap(&self) -> Usage {
        Usage::block(self.len() * size_of::<Value>())
    }
}

/// The slots of one key form, in a hash map or a B-tree.
#[derive(Debug)]
enum Slots<K> {
    Hash(FxHashMap<K, Postings>),
    BTree(BTreeMap<K, Postings>),
}

impl<K: SlotKey> Slots<K> {
    fn new(kind: IndexKind) -> Slots<K> {
        match kind {
            IndexKind::Hash => Slots::Hash(FxHashMap::default()),
            IndexKind::BTree => Slots::BTree(BTreeMap::new()),
        }
    }

    fn kind(&self) -> IndexKind {
        match self {
            Slots::Hash(_) => IndexKind::Hash,
            Slots::BTree(_) => IndexKind::BTree,
        }
    }

    /// Post `id` under `row`'s key. With `unique`, refuse (false) instead
    /// when the key already has a posting.
    fn post(&mut self, parts: &[KeyPart], row: RowRef<'_>, id: RowId, unique: bool) -> bool {
        let key = K::extract(parts, row);
        let postings = match self {
            Slots::Hash(m) => match m.entry(key) {
                hash_map::Entry::Vacant(e) => {
                    e.insert(Postings::One(id));
                    return true;
                }
                hash_map::Entry::Occupied(e) => e.into_mut(),
            },
            Slots::BTree(m) => match m.entry(key) {
                btree_map::Entry::Vacant(e) => {
                    e.insert(Postings::One(id));
                    return true;
                }
                btree_map::Entry::Occupied(e) => e.into_mut(),
            },
        };
        if unique {
            return false;
        }
        postings.push(id);
        true
    }

    /// Drop `id`'s posting under `row`'s key, and the slot if it empties.
    fn unpost(&mut self, parts: &[KeyPart], row: RowRef<'_>, id: RowId) {
        let key = K::extract(parts, row);
        let key: &[Value] = key.borrow();
        match self {
            Slots::Hash(m) => {
                if m.get_mut(key).is_some_and(|p| p.remove(id)) {
                    m.remove(key);
                }
            }
            Slots::BTree(m) => {
                if m.get_mut(key).is_some_and(|p| p.remove(id)) {
                    m.remove(key);
                }
            }
        }
    }

    fn get(&self, key: &[Value]) -> &[RowId] {
        match self {
            Slots::Hash(m) => m.get(key),
            Slots::BTree(m) => m.get(key),
        }
        .map_or(&[], Postings::as_slice)
    }

    fn get_row(&self, parts: &[KeyPart], row: RowRef<'_>) -> &[RowId] {
        self.get(K::extract(parts, row).borrow())
    }

    fn len(&self) -> usize {
        match self {
            Slots::Hash(m) => m.len(),
            Slots::BTree(m) => m.len(),
        }
    }

    fn entries(&self) -> Box<dyn Iterator<Item = (&[Value], &[RowId])> + '_> {
        match self {
            Slots::Hash(m) => Box::new(m.iter().map(|(k, p)| (k.borrow(), p.as_slice()))),
            Slots::BTree(m) => Box::new(m.iter().map(|(k, p)| (k.borrow(), p.as_slice()))),
        }
    }

    /// The entries between `lo` and `hi`, in key order; `None` for a hash.
    fn range(&self, lo: Bound<&[Value]>, hi: Bound<&[Value]>) -> Option<Vec<(&[Value], &[RowId])>> {
        match self {
            Slots::Hash(_) => None,
            Slots::BTree(m) => Some(
                m.range::<[Value], _>((lo, hi))
                    .map(|(k, p)| (k.borrow(), p.as_slice()))
                    .collect(),
            ),
        }
    }

    /// The map's own storage plus the blocks its keys and postings own.
    fn footprint(&self) -> Usage {
        let slot = size_of::<(K, Postings)>();
        let (map, owned) = match self {
            Slots::Hash(m) => (
                Usage::hash_table(m.capacity(), slot),
                m.iter().map(|(k, p)| k.heap() + p.heap()).sum(),
            ),
            Slots::BTree(m) => (
                Usage::btree(m.len(), slot),
                m.iter().map(|(k, p)| k.heap() + p.heap()).sum(),
            ),
        };
        map + owned
    }
}

/// An index's slots, by key arity.
#[derive(Debug)]
enum Map {
    One(Slots<Single>),
    Two(Slots<[Value; 2]>),
    Wide(Slots<Box<[Value]>>),
}

/// Evaluate `$body` with `$s` bound to the index's slots, whatever form its
/// keys take.
macro_rules! slots {
    ($map:expr, $s:ident => $body:expr) => {
        match $map {
            Map::One($s) => $body,
            Map::Two($s) => $body,
            Map::Wide($s) => $body,
        }
    };
}

/// Run `f` on the key of `n` parts that `part(i)` computes, built on the
/// stack when it has one or two parts. The first failing part stops it.
pub(crate) fn with_key<R>(
    n: usize,
    mut part: impl FnMut(usize) -> Result<Value>,
    f: impl FnOnce(&[Value]) -> R,
) -> Result<R> {
    Ok(match n {
        1 => f(&[part(0)?]),
        2 => f(&[part(0)?, part(1)?]),
        _ => f(&(0..n).map(part).collect::<Result<Vec<_>>>()?),
    })
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
    fn matches(&self, row: RowRef<'_>, key: &Value) -> bool {
        match self {
            KeyPart::Column(c) => row.get(*c) == key,
            KeyPart::JsonKey(..) => self.extract(row) == *key,
        }
    }

    /// Whether rows `a` and `b` carry the same value for this part.
    fn same(&self, a: RowRef<'_>, b: RowRef<'_>) -> bool {
        match self {
            KeyPart::Column(c) => a.get(*c) == b.get(*c),
            KeyPart::JsonKey(..) => self.extract(a) == self.extract(b),
        }
    }

    /// Evaluate against a table row.
    pub fn extract(&self, row: RowRef<'_>) -> Value {
        match self {
            KeyPart::Column(c) => row.get(*c).clone(),
            KeyPart::JsonKey(c, key) => match row.get(*c) {
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
        let map = match parts.len() {
            1 => Map::One(Slots::new(kind)),
            2 => Map::Two(Slots::new(kind)),
            _ => Map::Wide(Slots::new(kind)),
        };
        Index {
            name: name.into(),
            parts,
            unique,
            map,
        }
    }

    /// The physical kind of this index.
    pub fn kind(&self) -> IndexKind {
        slots!(&self.map, s => s.kind())
    }

    /// An owned copy of `row`'s key under this index. The index itself
    /// never builds one: it extracts straight into its slot form.
    pub fn key_of(&self, row: RowRef<'_>) -> Vec<Value> {
        self.parts.iter().map(|p| p.extract(row)).collect()
    }

    /// Whether `row`'s key equals `key`, compared part by part in place.
    pub(crate) fn key_matches(&self, row: RowRef<'_>, key: &[Value]) -> bool {
        self.parts.len() == key.len() && self.parts.iter().zip(key).all(|(p, k)| p.matches(row, k))
    }

    /// Whether rows `a` and `b` carry the same key, compared in place.
    pub(crate) fn same_key(&self, a: RowRef<'_>, b: RowRef<'_>) -> bool {
        self.parts.iter().all(|p| p.same(a, b))
    }

    /// Insert `row_id` under the key extracted from `row`.
    /// Unique violations report the index name.
    pub fn insert(&mut self, row: RowRef<'_>, row_id: RowId) -> Result<()> {
        let (parts, unique) = (&self.parts, self.unique);
        if slots!(&mut self.map, s => s.post(parts, row, row_id, unique)) {
            return Ok(());
        }
        Err(Error::Schema(format!(
            "unique index '{}' violated",
            self.name
        )))
    }

    /// Post `row_id` under `row`'s key without the unique check. MVCC
    /// paths use this: a unique index legitimately holds postings for
    /// several *versions* carrying the same key, so uniqueness is enforced
    /// at the table level against version liveness instead.
    pub fn add(&mut self, row: RowRef<'_>, row_id: RowId) {
        let parts = &self.parts;
        slots!(&mut self.map, s => s.post(parts, row, row_id, false));
    }

    /// Remove `row_id` under the key extracted from `row`. No-op if absent.
    pub fn remove(&mut self, row: RowRef<'_>, row_id: RowId) {
        let parts = &self.parts;
        slots!(&mut self.map, s => s.unpost(parts, row, row_id));
    }

    /// Row IDs posted under `row`'s key.
    pub(crate) fn postings_of(&self, row: RowRef<'_>) -> &[RowId] {
        slots!(&self.map, s => s.get_row(&self.parts, row))
    }

    /// Row IDs exactly matching `key`.
    pub fn lookup(&self, key: &[Value]) -> &[RowId] {
        if key.len() != self.parts.len() {
            return &[];
        }
        slots!(&self.map, s => s.get(key))
    }

    /// The `(key, postings)` entries with keys in `[lo, hi]` (inclusive
    /// bounds; `None` = open), in key order. A bound may be a prefix of the
    /// key: keys order part by part, a shorter key first. A chain whose
    /// versions carry several keys in range is posted under each: readers
    /// keep a row only under the key its visible version carries. Only
    /// B-tree indexes serve ranges; hash indexes return an error.
    pub fn range(
        &self,
        lo: Option<&[Value]>,
        hi: Option<&[Value]>,
    ) -> Result<Vec<(&[Value], &[RowId])>> {
        if self.kind() == IndexKind::Hash {
            return Err(Error::Invalid(format!(
                "index '{}' is a hash index and cannot serve range scans",
                self.name
            )));
        }
        if let (Some(lo), Some(hi)) = (lo, hi) {
            if lo > hi {
                return Ok(Vec::new());
            }
        }
        let (lo, hi) = (
            lo.map_or(Bound::Unbounded, Bound::Included),
            hi.map_or(Bound::Unbounded, Bound::Included),
        );
        Ok(slots!(&self.map, s => s.range(lo, hi)).unwrap_or_default())
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        slots!(&self.map, s => s.len())
    }

    /// Iterate every (key, postings) entry. Hash indexes yield keys in
    /// arbitrary order, B-trees in key order; within an entry the postings
    /// keep the order [`Index::lookup`] returns them in, which the CSR
    /// builder relies on for byte-identical results.
    pub fn entries(&self) -> Box<dyn Iterator<Item = (&[Value], &[RowId])> + '_> {
        slots!(&self.map, s => s.entries())
    }

    /// The heap this index holds: its map and the blocks its keys and
    /// postings own. Key values' shared payloads are the caller's to count.
    pub(crate) fn footprint(&self) -> Usage {
        slots!(&self.map, s => s.footprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    fn at(row: &[Value]) -> RowRef<'_> {
        RowRef::from(row)
    }

    #[test]
    fn hash_insert_lookup_remove() {
        let mut idx = Index::new("i", vec![0], false, IndexKind::Hash);
        idx.insert(at(&row(&[5, 10])), 0).unwrap();
        idx.insert(at(&row(&[5, 20])), 1).unwrap();
        idx.insert(at(&row(&[6, 30])), 2).unwrap();
        let key = [Value::Int(5)];
        let mut ids = idx.lookup(&key).to_vec();
        ids.sort_unstable();
        assert_eq!(ids, [0, 1]);
        idx.remove(at(&row(&[5, 10])), 0);
        assert_eq!(idx.lookup(&key), [1]);
        idx.remove(at(&row(&[5, 20])), 1);
        assert!(idx.lookup(&key).is_empty());
        assert_eq!(idx.distinct_keys(), 1);
    }

    #[test]
    fn unique_violation() {
        let mut idx = Index::new("pk", vec![0], true, IndexKind::Hash);
        idx.insert(at(&row(&[1])), 0).unwrap();
        assert!(idx.insert(at(&row(&[1])), 1).is_err());
        // Distinct key is fine.
        idx.insert(at(&row(&[2])), 1).unwrap();
    }

    #[test]
    fn composite_keys() {
        let mut idx = Index::new("c", vec![0, 1], false, IndexKind::Hash);
        idx.insert(at(&row(&[1, 2])), 0).unwrap();
        idx.insert(at(&row(&[1, 3])), 1).unwrap();
        assert_eq!(idx.lookup(&[Value::Int(1), Value::Int(2)]), [0]);
        assert!(idx.lookup(&[Value::Int(1)]).is_empty());
    }

    #[test]
    fn numeric_keys_are_canonical_in_every_form() {
        for cols in [vec![0], vec![0, 1], vec![0, 1, 2]] {
            for kind in [IndexKind::Hash, IndexKind::BTree] {
                let mut idx = Index::new("n", cols.clone(), false, kind);
                idx.insert(at(&row(&[3, 3, 3])), 0).unwrap();
                let probe = vec![Value::Double(3.0); cols.len()];
                assert_eq!(idx.lookup(&probe), [0], "{cols:?} {kind:?}");
            }
        }
    }

    /// The row ids of a range scan, in order.
    fn range_ids(idx: &Index, lo: Option<&[Value]>, hi: Option<&[Value]>) -> Vec<RowId> {
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
            idx.insert(at(&row(&[*v])), i).unwrap();
        }
        let lo = [Value::Int(15)];
        let hi = [Value::Int(35)];
        assert_eq!(range_ids(&idx, Some(&lo), Some(&hi)), [1, 2]);
        assert_eq!(range_ids(&idx, None, Some(&lo)), [0]);
        assert_eq!(range_ids(&idx, Some(&hi), None), [3]);
        assert_eq!(range_ids(&idx, None, None).len(), 4);
        // An empty interval is empty, not a panic.
        assert!(range_ids(&idx, Some(&hi), Some(&lo)).is_empty());
    }

    #[test]
    fn a_prefix_bound_orders_before_its_longer_keys() {
        let mut idx = Index::new("b2", vec![0, 1], false, IndexKind::BTree);
        for (i, (a, b)) in [(1, 5), (2, 1), (2, 9), (3, 0)].iter().enumerate() {
            idx.insert(at(&row(&[*a, *b])), i).unwrap();
        }
        let two = [Value::Int(2)];
        assert_eq!(range_ids(&idx, Some(&two), None), [1, 2, 3]);
        assert_eq!(range_ids(&idx, None, Some(&two)), [0]);
    }

    #[test]
    fn hash_rejects_range() {
        let idx = Index::new("h", vec![0], false, IndexKind::Hash);
        assert!(idx.range(None, None).is_err());
    }

    #[test]
    fn mixed_type_keys_ordered() {
        let mut idx = Index::new("m", vec![0], false, IndexKind::BTree);
        idx.insert(at(&[Value::str("b")]), 0).unwrap();
        idx.insert(at(&[Value::Int(1)]), 1).unwrap();
        idx.insert(at(&[Value::Null]), 2).unwrap();
        // Total order: NULL < numbers < strings.
        assert_eq!(range_ids(&idx, None, None), [2, 1, 0]);
    }

    #[test]
    fn slot_sizes() {
        assert_eq!(size_of::<Postings>(), 24);
        assert_eq!(size_of::<(Single, Postings)>(), 48);
        assert_eq!(size_of::<([Value; 2], Postings)>(), 72);
        assert_eq!(size_of::<(Box<[Value]>, Postings)>(), 40);
    }

    /// Heap blocks the entries own, the map's own table aside.
    fn owned_blocks(idx: &Index) -> usize {
        let table = slots!(&idx.map, s => match s {
            Slots::Hash(m) => Usage::hash_table(m.capacity(), 0).blocks,
            Slots::BTree(_) => unreachable!("hash indexes only"),
        });
        idx.footprint().blocks - table
    }

    #[test]
    fn one_posting_keys_of_one_or_two_parts_own_no_heap() {
        for cols in [vec![0], vec![0, 1]] {
            let mut idx = Index::new("k", cols, false, IndexKind::Hash);
            for i in 0..100 {
                idx.insert(at(&row(&[i, i])), i as RowId).unwrap();
            }
            assert_eq!(owned_blocks(&idx), 0);
        }
        let mut wide = Index::new("w", vec![0, 1, 2], false, IndexKind::Hash);
        wide.insert(at(&row(&[1, 2, 3])), 0).unwrap();
        assert_eq!(owned_blocks(&wide), 1, "a three-part key owns one block");
    }

    #[test]
    fn a_second_posting_spills_and_returns_inline() {
        let mut idx = Index::new("s", vec![0, 1], false, IndexKind::Hash);
        let r = row(&[1, 2]);
        idx.insert(at(&r), 7).unwrap();
        assert_eq!(owned_blocks(&idx), 0);
        idx.insert(at(&r), 8).unwrap();
        assert_eq!(owned_blocks(&idx), 1);
        idx.remove(at(&r), 8);
        assert_eq!(owned_blocks(&idx), 0);
        assert_eq!(idx.lookup(&r), [7]);
    }

    #[test]
    fn lookup_order_is_entry_order() {
        let mut idx = Index::new("o", vec![0], false, IndexKind::Hash);
        let check = |idx: &Index| {
            for (key, ids) in idx.entries() {
                assert_eq!(idx.lookup(key), ids);
            }
        };
        for id in 0..40 {
            idx.insert(at(&row(&[id as i64 % 3])), id).unwrap();
            check(&idx);
        }
        for id in (0..40).step_by(4) {
            idx.remove(at(&row(&[id as i64 % 3])), id);
            check(&idx);
        }
        for id in 0..40 {
            idx.remove(at(&row(&[id as i64 % 3])), id);
            check(&idx);
        }
        assert_eq!(idx.distinct_keys(), 0);
    }
}
