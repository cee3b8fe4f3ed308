//! Table statistics for the cost-based planner.
//!
//! The planner (see `exec::plan_join_order`) needs two numbers per table:
//! a row count and, per key it filters or joins on, a distinct-value count
//! (ndv). Row counts are always live (`Table::len`). Ndv comes in two
//! qualities:
//!
//! * **seeded** — derived for free from existing indexes via
//!   [`crate::index::Index::distinct_keys`]; only keys that happen to be
//!   indexed are covered;
//! * **analyzed** — exact counts for *every* column (plus every functional
//!   `JSON_VAL` key that has an index), computed by a full scan when the
//!   user runs `ANALYZE [table]`.
//!
//! Analyzed statistics are stored on the table and go stale under
//! mutation by design (the classic trade-off); the planner therefore always
//! takes row counts from the live table and uses stats only for ndv, capped
//! at the live row count.

use crate::hasher::{FxHashMap, FxHashSet};
use crate::index::KeyPart;
use crate::storage::Table;
use crate::value::Value;

/// Per-table statistics: row count at collection time plus distinct-value
/// estimates per column / functional key.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    /// Live rows when the stats were collected.
    pub row_count: usize,
    /// Distinct-value estimate per column position (`None` = unknown).
    pub col_ndv: Vec<Option<usize>>,
    /// Distinct-value estimates for functional `JSON_VAL(col, key)` keys.
    pub json_ndv: FxHashMap<(usize, String), usize>,
    /// True when produced by `ANALYZE` (exact at collection time) rather
    /// than seeded from index cardinalities.
    pub analyzed: bool,
}

impl TableStats {
    /// Seed statistics from whatever single-part indexes the table has —
    /// free to compute, so usable on every query without an `ANALYZE`.
    pub fn seed(table: &Table) -> TableStats {
        let mut stats = TableStats {
            row_count: table.len(),
            col_ndv: vec![None; table.schema.arity()],
            json_ndv: FxHashMap::default(),
            analyzed: false,
        };
        for idx in table.indexes() {
            // Only single-part indexes measure one key's cardinality;
            // composite distinct counts say nothing about either part alone.
            if idx.parts.len() != 1 {
                continue;
            }
            let distinct = idx.distinct_keys();
            match &idx.parts[0] {
                KeyPart::Column(c) => {
                    let slot = &mut stats.col_ndv[*c];
                    // Keep the largest estimate if several indexes cover
                    // the same column (they should agree; be defensive).
                    *slot = Some(slot.unwrap_or(0).max(distinct));
                }
                KeyPart::JsonKey(c, key) => {
                    let e = stats.json_ndv.entry((*c, key.clone())).or_insert(0);
                    *e = (*e).max(distinct);
                }
            }
        }
        stats
    }

    /// Exact statistics via a full scan: distinct counts for every column,
    /// and for every functional key that has an index (the only functional
    /// keys queries can name cheaply).
    pub fn analyze(table: &Table) -> TableStats {
        let arity = table.schema.arity();
        let mut col_sets: Vec<FxHashSet<Value>> =
            (0..arity).map(|_| FxHashSet::default()).collect();
        let json_parts: Vec<KeyPart> = table
            .indexes()
            .iter()
            .flat_map(|i| i.parts.iter())
            .filter(|p| matches!(p, KeyPart::JsonKey(..)))
            .cloned()
            .collect();
        let mut json_sets: Vec<FxHashSet<Value>> = (0..json_parts.len())
            .map(|_| FxHashSet::default())
            .collect();
        for (_, row) in table.iter() {
            for (c, set) in col_sets.iter_mut().enumerate() {
                if !row[c].is_null() {
                    set.insert(row[c].clone());
                }
            }
            for (part, set) in json_parts.iter().zip(json_sets.iter_mut()) {
                let v = part.extract(row);
                if !v.is_null() {
                    set.insert(v);
                }
            }
        }
        let mut json_ndv = FxHashMap::default();
        for (part, set) in json_parts.iter().zip(&json_sets) {
            if let KeyPart::JsonKey(c, key) = part {
                json_ndv.insert((*c, key.clone()), set.len());
            }
        }
        TableStats {
            row_count: table.len(),
            col_ndv: col_sets.iter().map(|s| Some(s.len())).collect(),
            json_ndv,
            analyzed: true,
        }
    }

    /// Distinct-value estimate for a key part, if known.
    pub fn ndv_for_part(&self, part: &KeyPart) -> Option<usize> {
        match part {
            KeyPart::Column(c) => self.col_ndv.get(*c).copied().flatten(),
            KeyPart::JsonKey(c, key) => self.json_ndv.get(&(*c, key.clone())).copied(),
        }
    }

    /// Ndv with the System-R style default for unknown keys (1/10 of the
    /// rows), capped to `live_rows` and floored at 1.
    pub fn ndv_or_default(&self, part: &KeyPart, live_rows: usize) -> usize {
        ndv_with_default(self.ndv_for_part(part), live_rows)
    }

    /// What [`TableStats::seed`]`(table).ndv_for_part(part)` returns,
    /// without building the stats: the largest distinct-key count among
    /// the single-part indexes over `part`.
    pub(crate) fn seeded_ndv(table: &Table, part: &KeyPart) -> Option<usize> {
        table
            .indexes()
            .iter()
            .filter(|i| i.parts.len() == 1 && i.parts[0] == *part)
            .map(|i| i.distinct_keys())
            .max()
    }

    /// Estimated selectivity of `part = constant`.
    pub fn eq_selectivity(&self, part: &KeyPart, live_rows: usize) -> f64 {
        1.0 / self.ndv_or_default(part, live_rows) as f64
    }

    /// Estimated average rows per distinct value of `part` — the expected
    /// fanout of one adjacency expansion. Used by the planner's CSR gate:
    /// a compressed adjacency entry amortizes its build over
    /// `live / fanout` distinct probe groups, so very high fanout (few
    /// huge groups) still pays off while an all-unique key (fanout ≈ 1)
    /// degenerates to a point-lookup table the probe path already serves
    /// well. Stale stats (see [`TableStats::is_stale`]) are discarded by
    /// the caller before consulting this.
    pub fn avg_fanout(&self, part: &KeyPart, live_rows: usize) -> f64 {
        live_rows as f64 / self.ndv_or_default(part, live_rows) as f64
    }

    /// Whether the table has drifted more than 2× (either direction) from
    /// the row count recorded when these stats were collected. Stale ndv
    /// estimates mislead the planner, so it discards stats that fail this
    /// check and falls back to index-seeded values.
    pub fn is_stale(&self, live_rows: usize) -> bool {
        // A table that was empty at collection time has nothing to scale
        // from; any growth invalidates it.
        if self.row_count == 0 {
            return live_rows > 0;
        }
        live_rows > self.row_count * 2 || live_rows * 2 < self.row_count
    }
}

/// An ndv estimate with the System-R default for an unknown key (1/10 of
/// the rows), capped to `live_rows` and floored at 1.
pub(crate) fn ndv_with_default(ndv: Option<usize>, live_rows: usize) -> usize {
    ndv.unwrap_or_else(|| (live_rows / 10).max(1))
        .clamp(1, live_rows.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexKind;
    use crate::schema::{Column, ColumnType, TableSchema};

    fn table() -> Table {
        let schema = TableSchema::new(
            "t",
            vec![
                Column {
                    name: "id".into(),
                    ty: ColumnType::Integer,
                },
                Column {
                    name: "grp".into(),
                    ty: ColumnType::Integer,
                },
                Column {
                    name: "attr".into(),
                    ty: ColumnType::Json,
                },
            ],
        )
        .unwrap();
        let mut t = Table::new(schema);
        t.create_index("t_pk", vec![0], true, IndexKind::Hash)
            .unwrap();
        for i in 0..100i64 {
            let doc = sqlgraph_json::parse(&format!(r#"{{"tag":"t{}"}}"#, i % 5)).unwrap();
            t.insert(vec![Value::Int(i), Value::Int(i % 4), Value::json(doc)])
                .unwrap();
        }
        t
    }

    #[test]
    fn seeded_stats_cover_indexed_columns_only() {
        let t = table();
        let s = TableStats::seed(&t);
        assert!(!s.analyzed);
        assert_eq!(s.row_count, 100);
        assert_eq!(s.ndv_for_part(&KeyPart::Column(0)), Some(100));
        assert_eq!(s.ndv_for_part(&KeyPart::Column(1)), None);
        // The planner's per-part read agrees without building the stats.
        for part in [KeyPart::Column(0), KeyPart::Column(1)] {
            assert_eq!(TableStats::seeded_ndv(&t, &part), s.ndv_for_part(&part));
        }
        // Unknown keys get the 1/10 default.
        assert_eq!(s.ndv_or_default(&KeyPart::Column(1), 100), 10);
    }

    #[test]
    fn analyze_counts_every_column_and_indexed_json_keys() {
        let mut t = table();
        t.create_index_with_parts(
            "t_tag",
            vec![KeyPart::JsonKey(2, "tag".into())],
            false,
            IndexKind::Hash,
        )
        .unwrap();
        let s = TableStats::analyze(&t);
        assert!(s.analyzed);
        assert_eq!(s.ndv_for_part(&KeyPart::Column(0)), Some(100));
        assert_eq!(s.ndv_for_part(&KeyPart::Column(1)), Some(4));
        assert_eq!(s.ndv_for_part(&KeyPart::JsonKey(2, "tag".into())), Some(5));
        assert!((s.eq_selectivity(&KeyPart::Column(1), 100) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn staleness_is_two_times_drift_in_either_direction() {
        let t = table();
        let s = TableStats::seed(&t); // row_count = 100
        assert!(!s.is_stale(100));
        assert!(!s.is_stale(200)); // exactly 2× growth is still usable
        assert!(s.is_stale(201));
        assert!(!s.is_stale(50)); // exactly half is still usable
        assert!(s.is_stale(49));
        let empty = TableStats::default();
        assert!(!empty.is_stale(0));
        assert!(empty.is_stale(1));
    }

    #[test]
    fn ndv_is_capped_at_live_rows() {
        let t = table();
        let s = TableStats::seed(&t);
        // Pretend the table shrank after stats were taken.
        assert_eq!(s.ndv_or_default(&KeyPart::Column(0), 7), 7);
    }
}
