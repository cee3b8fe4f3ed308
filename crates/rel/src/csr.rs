//! Compressed sparse row (CSR) adjacency entries.
//!
//! A [`CsrEntry`] is a columnar, offset-delimited materialization of one
//! index's postings: for every distinct (non-NULL, single-part) key the
//! entry stores the *visible* matching rows' kept columns contiguously, so
//! an index-nested-loop probe becomes an O(1) group lookup plus a dense
//! range copy — no per-probe hashing over postings, no visibility re-checks,
//! no key re-validation. Integer columns (the common case: neighbor
//! vertex ids in the OPA/IPA adjacency tables) are stored delta-encoded and
//! null-suppressed ([`PackedIntVec`]) with per-group restarts.
//!
//! **Byte identity.** The builder filters postings exactly the way
//! `Access::Probe` execution does — `Table::get_posted(rid, snap, …)` with
//! an `Index::key_matches` re-check — and keeps the postings' order, so
//! expanding a probe key through a CSR entry yields the same rows in the
//! same order the row engine's index nested-loop join would produce.
//!
//! **MVCC validity.** An entry records the table's content version at build
//! time. The cache in [`crate::db::Database`] serves an entry only to
//! read-only snapshots (`token == 0`) taken at or past the table's newest
//! commit, and only while the content version is unchanged; in-transaction
//! readers build private entries against their own snapshot instead (see
//! `Database::csr_for`).

use crate::error::{Error, Result};
use crate::hasher::FxHashMap;
use crate::storage::Table;
use crate::txn::Snapshot;
use crate::value::Value;

/// Cache key: one entry per (table, index, kept-column set).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CsrKey {
    /// Table name (lowercase, as registered in the catalog).
    pub table: String,
    /// Index the adjacency is grouped by.
    pub index: String,
    /// Kept column positions, in output order.
    pub keep: Vec<usize>,
}

/// One kept column of a CSR entry.
#[derive(Debug)]
pub enum CsrCol {
    /// All-integer (or NULL) column: delta-encoded, null-suppressed.
    Packed(PackedIntVec),
    /// Anything else, stored as materialized values.
    Plain(Vec<Value>),
}

/// A built CSR adjacency entry (see module docs).
#[derive(Debug)]
pub struct CsrEntry {
    /// Probe key value → group ordinal.
    groups: FxHashMap<Value, u32>,
    /// Element range of group `g` is `offsets[g]..offsets[g+1]`.
    offsets: Vec<u32>,
    /// Kept columns, parallel to `CsrKey::keep`.
    cols: Vec<CsrCol>,
    /// Total element count.
    elems: usize,
    /// `Table::content_version` at build time.
    pub built_version: u64,
}

impl CsrEntry {
    /// Build an entry from `index_name`'s postings as seen by `snap`.
    /// The index must have a single key part.
    pub fn build(t: &Table, index_name: &str, keep: &[usize], snap: Snapshot) -> Result<CsrEntry> {
        let idx = t
            .indexes()
            .iter()
            .find(|i| i.name == index_name)
            .ok_or_else(|| Error::NotFound(format!("index '{index_name}'")))?;
        if idx.parts.len() != 1 {
            return Err(Error::Invalid(format!(
                "csr requires a single-part index; '{index_name}' has {} parts",
                idx.parts.len()
            )));
        }
        let mut groups = FxHashMap::default();
        let mut offsets: Vec<u32> = vec![0];
        let mut raw: Vec<Vec<Value>> = keep.iter().map(|_| Vec::new()).collect();
        let mut elems: u32 = 0;
        for (key, rids) in idx.entries() {
            let kv = &key.0[0];
            if kv.is_null() {
                // Probes skip NULL keys, so NULL groups can never be read.
                continue;
            }
            let before = elems;
            for &rid in rids {
                // A chain's visible version may carry a different key than
                // an older one that posts it; re-check like the probe path.
                let Some(row) = t.get_posted(rid, snap, |row| idx.key_matches(row, &key.0)) else {
                    continue;
                };
                for (ci, &col) in keep.iter().enumerate() {
                    raw[ci].push(row[col].clone());
                }
                elems += 1;
            }
            if elems == before {
                // Nothing visible under this key: same outcome as an absent
                // group, so don't store it.
                continue;
            }
            groups.insert(kv.clone(), offsets.len() as u32 - 1);
            offsets.push(elems);
        }
        let group_count = offsets.len() - 1;
        let cols = raw
            .into_iter()
            .map(|vals| {
                if vals
                    .iter()
                    .all(|v| matches!(v, Value::Int(_) | Value::Null))
                {
                    let mut w = PackedIntWriter::new();
                    for g in 0..group_count {
                        w.begin_group();
                        for v in &vals[offsets[g] as usize..offsets[g + 1] as usize] {
                            w.push(match v {
                                Value::Int(x) => Some(*x),
                                _ => None,
                            });
                        }
                    }
                    CsrCol::Packed(w.finish())
                } else {
                    CsrCol::Plain(vals)
                }
            })
            .collect();
        Ok(CsrEntry {
            groups,
            offsets,
            cols,
            elems: elems as usize,
            built_version: t.content_version(),
        })
    }

    /// Number of distinct probe keys with at least one visible row.
    pub fn group_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total stored elements across all groups.
    pub fn elem_count(&self) -> usize {
        self.elems
    }

    /// Append the elements under `key` to `out` (one `Vec<Value>` per kept
    /// column, in `keep` order) and return how many were appended. The
    /// element order is the index's posting order — the order the row
    /// engine's probe would have produced.
    pub fn expand_into(&self, key: &Value, out: &mut [Vec<Value>]) -> usize {
        let Some(&g) = self.groups.get(key) else {
            return 0;
        };
        let g = g as usize;
        let (lo, hi) = (self.offsets[g] as usize, self.offsets[g + 1] as usize);
        for (col, dst) in self.cols.iter().zip(out.iter_mut()) {
            match col {
                CsrCol::Packed(p) => {
                    dst.reserve(hi - lo);
                    p.for_each_in_group(g, lo, hi, |v| {
                        dst.push(v.map(Value::Int).unwrap_or(Value::Null))
                    });
                }
                CsrCol::Plain(vals) => dst.extend_from_slice(&vals[lo..hi]),
            }
        }
        hi - lo
    }

    /// Approximate heap footprint of the entry in bytes (compression
    /// observability; coarse for `Plain` columns).
    pub fn approx_bytes(&self) -> usize {
        let cols: usize = self
            .cols
            .iter()
            .map(|c| match c {
                CsrCol::Packed(p) => p.encoded_bytes(),
                CsrCol::Plain(vals) => vals.len() * std::mem::size_of::<Value>(),
            })
            .sum();
        cols + self.offsets.len() * 4 + self.groups.len() * std::mem::size_of::<(Value, u32)>()
    }
}

// ---------------------------------------------------------------------------
// Packed integer vectors (CSR neighbor storage)
// ---------------------------------------------------------------------------

#[inline]
fn bit(nulls: &Option<Vec<u64>>, i: usize) -> bool {
    match nulls {
        Some(words) => (words[i / 64] >> (i % 64)) & 1 == 1,
        None => false,
    }
}

#[inline]
fn set_bit(nulls: &mut Option<Vec<u64>>, len: usize, i: usize) {
    let words = nulls.get_or_insert_with(|| vec![0u64; len.div_ceil(64)]);
    if words.len() < len.div_ceil(64) {
        words.resize(len.div_ceil(64), 0);
    }
    words[i / 64] |= 1 << (i % 64);
}

#[inline]
fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn zigzag_decode(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// A delta-encoded, null-suppressed integer vector with per-group restarts —
/// the compressed neighbor storage behind the CSR adjacency cache.
///
/// Values are stored as zigzag-varint deltas against the previous non-null
/// value *within the same group*; the delta base resets to 0 at every group
/// boundary so any group can be decoded independently given its logical
/// element range and without touching earlier groups' bytes. Nulls occupy a
/// bit in the bitmap but carry **no** payload bytes (null suppression).
#[derive(Debug, Clone)]
pub struct PackedIntVec {
    /// Zigzag-varint encoded deltas of the non-null elements, group by group.
    data: Vec<u8>,
    /// Null bitmap over *logical* element positions (None = no nulls).
    nulls: Option<Vec<u64>>,
    /// Total logical element count.
    len: usize,
    /// Byte offset in `data` where each group's encoding begins.
    group_starts: Vec<u32>,
}

impl PackedIntVec {
    /// Logical element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of encoded groups.
    pub fn group_count(&self) -> usize {
        self.group_starts.len()
    }

    /// Heap footprint of the encoding in bytes (payload + bitmap + starts).
    pub fn encoded_bytes(&self) -> usize {
        self.data.len()
            + self.nulls.as_ref().map_or(0, |w| w.len() * 8)
            + self.group_starts.len() * 4
    }

    /// Decode group `g`, whose elements occupy logical positions
    /// `lo..hi`, invoking `f` once per element in order (`None` = NULL).
    pub fn for_each_in_group(
        &self,
        g: usize,
        lo: usize,
        hi: usize,
        mut f: impl FnMut(Option<i64>),
    ) {
        let mut pos = self.group_starts[g] as usize;
        let mut prev: i64 = 0;
        for i in lo..hi {
            if bit(&self.nulls, i) {
                f(None);
                continue;
            }
            // Unrolled LEB128 varint decode.
            let mut shift = 0u32;
            let mut raw = 0u64;
            loop {
                let b = self.data[pos];
                pos += 1;
                raw |= u64::from(b & 0x7f) << shift;
                if b & 0x80 == 0 {
                    break;
                }
                shift += 7;
            }
            let v = prev.wrapping_add(zigzag_decode(raw));
            prev = v;
            f(Some(v));
        }
    }
}

/// Incremental writer for [`PackedIntVec`]. Call [`PackedIntWriter::begin_group`]
/// at each group boundary, then [`PackedIntWriter::push`] the group's elements.
#[derive(Debug, Default)]
pub struct PackedIntWriter {
    data: Vec<u8>,
    nulls: Option<Vec<u64>>,
    len: usize,
    group_starts: Vec<u32>,
    prev: i64,
}

impl PackedIntWriter {
    /// Fresh writer with no groups.
    pub fn new() -> PackedIntWriter {
        PackedIntWriter::default()
    }

    /// Start a new group: records the byte restart point and resets the
    /// delta base, so the group decodes independently.
    pub fn begin_group(&mut self) {
        self.group_starts.push(self.data.len() as u32);
        self.prev = 0;
    }

    /// Append one element to the current group (`None` = NULL, no payload).
    pub fn push(&mut self, v: Option<i64>) {
        match v {
            None => {
                set_bit(&mut self.nulls, self.len + 1, self.len);
                self.len += 1;
            }
            Some(v) => {
                let mut raw = zigzag_encode(v.wrapping_sub(self.prev));
                self.prev = v;
                loop {
                    let byte = (raw & 0x7f) as u8;
                    raw >>= 7;
                    if raw == 0 {
                        self.data.push(byte);
                        break;
                    }
                    self.data.push(byte | 0x80);
                }
                self.len += 1;
            }
        }
    }

    /// Seal the encoding.
    pub fn finish(mut self) -> PackedIntVec {
        if let Some(words) = &mut self.nulls {
            words.resize(self.len.div_ceil(64), 0);
        }
        PackedIntVec {
            data: self.data,
            nulls: self.nulls,
            len: self.len,
            group_starts: self.group_starts,
        }
    }
}

#[cfg(test)]
mod packed_tests {
    use super::*;

    #[test]
    fn packed_roundtrip_with_nulls_and_groups() {
        let groups: Vec<Vec<Option<i64>>> = vec![
            vec![Some(5), Some(7), None, Some(6)],
            vec![],
            vec![None, None],
            vec![Some(-3), Some(i64::MAX), Some(i64::MIN), Some(0)],
            vec![Some(1_000_000_000_000), Some(1_000_000_000_001)],
        ];
        let mut w = PackedIntWriter::new();
        for g in &groups {
            w.begin_group();
            for &x in g {
                w.push(x);
            }
        }
        let packed = w.finish();
        assert_eq!(packed.group_count(), groups.len());
        assert_eq!(packed.len(), groups.iter().map(Vec::len).sum::<usize>());
        let mut lo = 0;
        for (gi, g) in groups.iter().enumerate() {
            let hi = lo + g.len();
            let mut got = Vec::new();
            packed.for_each_in_group(gi, lo, hi, |x| got.push(x));
            assert_eq!(&got, g, "group {gi}");
            lo = hi;
        }
    }

    #[test]
    fn packed_groups_decode_independently() {
        // Decoding a later group must not depend on having decoded earlier
        // ones: the delta base restarts per group.
        let mut w = PackedIntWriter::new();
        w.begin_group();
        for i in 0..100 {
            w.push(Some(i * 17));
        }
        w.begin_group();
        w.push(Some(42));
        w.push(Some(43));
        let packed = w.finish();
        let mut got = Vec::new();
        packed.for_each_in_group(1, 100, 102, |x| got.push(x));
        assert_eq!(got, vec![Some(42), Some(43)]);
    }

    #[test]
    fn packed_delta_encoding_compresses_sorted_runs() {
        // Sorted neighbor ids with small gaps should take ~1 byte each.
        let mut w = PackedIntWriter::new();
        w.begin_group();
        for i in 0..1000i64 {
            w.push(Some(5_000_000 + i * 3));
        }
        let packed = w.finish();
        // First value pays full varint width; the rest are 1-byte deltas.
        assert!(
            packed.encoded_bytes() < 1024 + 16,
            "expected ~1 byte/elem, got {}",
            packed.encoded_bytes()
        );
        // Nulls are suppressed: a null carries bitmap bits but no payload.
        let mut w = PackedIntWriter::new();
        w.begin_group();
        for i in 0..64 {
            w.push(if i % 2 == 0 { Some(i) } else { None });
        }
        let with_nulls = w.finish();
        assert!(with_nulls.encoded_bytes() <= 32 + 8 + 4);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexKind;
    use crate::schema::{Column, ColumnType, TableSchema};

    fn adjacency_table() -> Table {
        let col = |name: &str, ty: ColumnType| Column {
            name: name.into(),
            ty,
        };
        let schema = TableSchema::new(
            "adj",
            vec![
                col("id", ColumnType::Integer),
                col("src", ColumnType::Integer),
                col("dst", ColumnType::Integer),
                col("lbl", ColumnType::Text),
            ],
        )
        .unwrap();
        let mut t = Table::new(schema);
        t.create_index("adj_src", vec![1], false, IndexKind::Hash)
            .unwrap();
        for i in 0..60i64 {
            t.insert(vec![
                Value::Int(i),
                Value::Int(i % 7),
                Value::Int(1000 + i),
                Value::str(if i % 2 == 0 { "knows" } else { "likes" }),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn csr_matches_probe_order_and_visibility() {
        let t = adjacency_table();
        let snap = Snapshot::latest();
        let entry = CsrEntry::build(&t, "adj_src", &[2, 3], snap).unwrap();
        assert_eq!(entry.group_count(), 7);
        assert_eq!(entry.elem_count(), 60);
        for src in 0..7i64 {
            let key = Value::Int(src);
            // Reference: the probe path over postings.
            let idx = t.indexes().iter().find(|i| i.name == "adj_src").unwrap();
            let probe = crate::index::IndexKey(vec![key.clone()]);
            let mut want_dst = Vec::new();
            let mut want_lbl = Vec::new();
            for &rid in idx.lookup(&probe) {
                let Some(row) = t.get_visible(rid, snap) else {
                    continue;
                };
                if !idx.key_matches(row, &probe.0) {
                    continue;
                }
                want_dst.push(row[2].clone());
                want_lbl.push(row[3].clone());
            }
            let mut out = vec![Vec::new(), Vec::new()];
            let n = entry.expand_into(&key, &mut out);
            assert_eq!(n, want_dst.len());
            assert_eq!(out[0], want_dst);
            assert_eq!(out[1], want_lbl);
        }
        // Absent and NULL keys expand to nothing.
        let mut out = vec![Vec::new(), Vec::new()];
        assert_eq!(entry.expand_into(&Value::Int(99), &mut out), 0);
        assert_eq!(entry.expand_into(&Value::Null, &mut out), 0);
    }

    #[test]
    fn csr_packs_integer_columns() {
        let t = adjacency_table();
        let entry = CsrEntry::build(&t, "adj_src", &[2], Snapshot::latest()).unwrap();
        // 60 sorted-ish neighbor ids should encode far below the 24 bytes a
        // Value each would take.
        assert!(entry.approx_bytes() < 60 * 8);
        let deleted_version = entry.built_version;
        assert!(deleted_version > 0, "inserts bump the content version");
    }

    #[test]
    fn csr_skips_rows_invisible_to_snapshot() {
        let mut t = adjacency_table();
        let snap = Snapshot::latest();
        // Delete every 'likes' edge; a fresh build must not see them.
        let doomed: Vec<usize> = t
            .iter()
            .filter(|(_, row)| row[3] == Value::str("likes"))
            .map(|(id, _)| id)
            .collect();
        for id in doomed {
            t.delete(id).unwrap();
        }
        let entry = CsrEntry::build(&t, "adj_src", &[2, 3], snap).unwrap();
        assert_eq!(entry.elem_count(), 30);
        let mut out = vec![Vec::new(), Vec::new()];
        entry.expand_into(&Value::Int(0), &mut out);
        assert!(out[1].iter().all(|v| *v == Value::str("knows")));
    }
}
