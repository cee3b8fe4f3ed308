//! Edge-label → column assignment by graph coloring (§3.2 of the paper,
//! after Bornea et al.).
//!
//! Two edge labels *co-occur* when some vertex's adjacency list contains
//! both. Labels that co-occur must land in different column triads of the
//! hash adjacency table or the vertex needs a spill row. The paper builds a
//! co-occurrence graph over a representative sample and colors it greedily;
//! the color is the column index. When the co-occurrence graph needs more
//! colors than the configured column budget, the least-conflicting color is
//! chosen and the residual conflicts become spill rows — Table 3 reports
//! exactly these statistics.

use sqlgraph_rel::Value;
use std::collections::{HashMap, HashSet};

/// Column assignment for a set of edge labels.
#[derive(Debug, Clone, Default)]
pub struct ColorMap {
    /// label → column index.
    assignment: HashMap<String, usize>,
    /// Number of columns (colors) in use.
    columns: usize,
    /// Maximum columns allowed (the hash table width budget).
    max_columns: usize,
}

impl ColorMap {
    /// The configured width budget.
    pub fn max_columns(&self) -> usize {
        self.max_columns.max(1)
    }
}

impl ColorMap {
    /// A pure-hash map with `columns` buckets and no colored assignments —
    /// the layout of a store built incrementally with no sample to color.
    pub fn hashed(columns: usize) -> ColorMap {
        ColorMap {
            assignment: HashMap::new(),
            columns: columns.max(1),
            max_columns: columns.max(1),
        }
    }

    /// Column for `label`: the colored assignment if the label was in the
    /// sample, otherwise a deterministic hash into the existing columns
    /// (the paper's behaviour for labels that appear after layout time).
    pub fn column(&self, label: &str) -> usize {
        if let Some(&c) = self.assignment.get(label) {
            return c;
        }
        if self.columns == 0 {
            return 0;
        }
        (fx_str(label) as usize) % self.columns
    }

    /// True if `label` was part of the colored sample.
    pub fn contains(&self, label: &str) -> bool {
        self.assignment.contains_key(label)
    }

    /// Number of columns (color classes).
    pub fn columns(&self) -> usize {
        self.columns.max(1)
    }

    /// Number of distinct labels assigned.
    pub fn labels(&self) -> usize {
        self.assignment.len()
    }

    /// Iterate `(label, column)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, usize)> {
        self.assignment.iter().map(|(l, c)| (l.as_str(), *c))
    }

    /// Histogram: how many labels share each column ("hashed bucket size").
    pub fn bucket_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.columns()];
        for &c in self.assignment.values() {
            sizes[c] += 1;
        }
        sizes
    }
}

/// Deterministic FxHash of a string (no RandomState — layouts must be
/// stable across runs).
fn fx_str(s: &str) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut hash: u64 = 0;
    for chunk in s.as_bytes().chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        hash = (hash.rotate_left(5) ^ u64::from_le_bytes(buf)).wrapping_mul(SEED);
    }
    hash
}

/// Build a [`ColorMap`] from a sample of adjacency-list label sets.
///
/// `lists` yields, per vertex, the set of labels in its (out- or in-)
/// adjacency list. `max_columns` bounds the table width.
///
/// Greedy largest-degree-first coloring: process labels by co-occurrence
/// degree, assign the smallest color unused by any already-colored
/// co-occurring label; if every color below `max_columns` conflicts, pick
/// the color with the fewest conflicting neighbors.
pub fn color_labels<I, S>(lists: I, max_columns: usize) -> ColorMap
where
    I: IntoIterator<Item = Vec<S>>,
    S: AsRef<str>,
{
    assert!(max_columns >= 1, "at least one column required");
    // Build the co-occurrence graph.
    let mut neighbors: HashMap<String, HashSet<String>> = HashMap::new();
    for list in lists {
        let labels: Vec<&str> = list.iter().map(|s| s.as_ref()).collect();
        for (i, a) in labels.iter().enumerate() {
            neighbors.entry((*a).to_string()).or_default();
            for b in &labels[i + 1..] {
                if a == b {
                    continue;
                }
                neighbors
                    .entry((*a).to_string())
                    .or_default()
                    .insert((*b).to_string());
                neighbors
                    .entry((*b).to_string())
                    .or_default()
                    .insert((*a).to_string());
            }
        }
    }

    // Largest degree first, ties broken lexicographically for determinism.
    let mut order: Vec<&String> = neighbors.keys().collect();
    order.sort_by(|a, b| {
        neighbors[*b]
            .len()
            .cmp(&neighbors[*a].len())
            .then_with(|| a.cmp(b))
    });

    let mut assignment: HashMap<String, usize> = HashMap::new();
    let mut used_colors = 0usize;
    for label in order {
        let mut conflicts = vec![0usize; max_columns];
        let mut taken = vec![false; max_columns];
        for n in &neighbors[label] {
            if let Some(&c) = assignment.get(n) {
                taken[c] = true;
                conflicts[c] += 1;
            }
        }
        // Smallest conflict-free color, bounded by max_columns; otherwise
        // the least-conflicting color.
        let color = match taken.iter().position(|t| !t) {
            Some(free) => free,
            None => conflicts
                .iter()
                .enumerate()
                .min_by_key(|(_, &c)| c)
                .map(|(i, _)| i)
                .unwrap_or(0),
        };
        used_colors = used_colors.max(color + 1);
        assignment.insert(label.clone(), color);
    }

    ColorMap {
        assignment,
        columns: used_colors.max(1),
        max_columns,
    }
}

/// The complete physical layout of a store: independent colorings for the
/// outgoing and incoming adjacency tables (the paper's Table 3 reports
/// separate bucket statistics for each) plus the configured table widths.
#[derive(Debug, Clone, Default)]
pub struct GraphLayout {
    /// Coloring for `OPA`.
    pub out: ColorMap,
    /// Coloring for `IPA`.
    pub incoming: ColorMap,
    /// `OPA` column-triad count.
    pub out_buckets: usize,
    /// `IPA` column-triad count.
    pub in_buckets: usize,
    /// One string value per bulk-loaded label, shared by every row and
    /// triad that carries the label, online writes included.
    pub(crate) labels: HashMap<String, Value>,
}

impl GraphLayout {
    /// A trivial layout (single-label hashing) for stores built
    /// incrementally rather than bulk-loaded.
    pub fn trivial(out_buckets: usize, in_buckets: usize) -> GraphLayout {
        GraphLayout {
            out: ColorMap::hashed(out_buckets),
            incoming: ColorMap::hashed(in_buckets),
            out_buckets,
            in_buckets,
            labels: HashMap::new(),
        }
    }

    /// `label` as a column value: the shared string of a bulk-loaded label,
    /// or a fresh one for a label the load did not see.
    pub(crate) fn label(&self, label: &str) -> Value {
        self.labels
            .get(label)
            .cloned()
            .unwrap_or_else(|| Value::str(label))
    }

    /// Column of `label` in `OPA`, clamped to the table width.
    pub fn out_column(&self, label: &str) -> usize {
        self.out.column(label) % self.out_buckets.max(1)
    }

    /// Column of `label` in `IPA`, clamped to the table width.
    pub fn in_column(&self, label: &str) -> usize {
        self.incoming.column(label) % self.in_buckets.max(1)
    }
}

/// Statistics about a layout against a dataset — the rows of the paper's
/// Table 3.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayoutStats {
    /// Distinct labels assigned ("No. of Hashed Labels").
    pub hashed_labels: usize,
    /// Largest number of labels sharing one column ("Hashed Bucket Size").
    pub max_bucket_size: usize,
    /// Rows that spilled because two co-occurring labels share a column.
    pub spill_rows: usize,
    /// Non-spill rows.
    pub primary_rows: usize,
    /// Rows in the multi-value overflow table.
    pub multi_value_rows: usize,
    /// Rows in the long-string overflow table (attribute layouts only).
    pub long_string_rows: usize,
}

impl LayoutStats {
    /// Spill percentage (matches Table 3's "Spill Rows Percentage").
    pub fn spill_percent(&self) -> f64 {
        let total = self.spill_rows + self.primary_rows;
        if total == 0 {
            0.0
        } else {
            100.0 * self.spill_rows as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lists(data: &[&[&str]]) -> Vec<Vec<String>> {
        data.iter()
            .map(|l| l.iter().map(|s| s.to_string()).collect())
            .collect()
    }

    #[test]
    fn cooccurring_labels_get_distinct_columns() {
        // From Figure 2: knows/created co-occur, likes/created co-occur —
        // knows and likes may share a column, created must differ from both.
        let cm = color_labels(lists(&[&["knows", "created"], &["likes", "created"]]), 4);
        assert_ne!(cm.column("knows"), cm.column("created"));
        assert_ne!(cm.column("likes"), cm.column("created"));
        assert!(cm.columns() <= 2);
    }

    #[test]
    fn independent_labels_share_columns() {
        let cm = color_labels(lists(&[&["a"], &["b"], &["c"], &["d"]]), 4);
        // No co-occurrence at all: everything can share column 0.
        assert_eq!(cm.columns(), 1);
        for l in ["a", "b", "c", "d"] {
            assert_eq!(cm.column(l), 0);
        }
    }

    #[test]
    fn clique_needs_as_many_colors_as_members() {
        let cm = color_labels(lists(&[&["a", "b", "c"]]), 8);
        let cols: HashSet<usize> = ["a", "b", "c"].iter().map(|l| cm.column(l)).collect();
        assert_eq!(cols.len(), 3);
    }

    #[test]
    fn budget_overflow_picks_least_conflicting() {
        // A 4-clique with only 2 columns: conflicts are unavoidable but the
        // assignment must stay within bounds.
        let cm = color_labels(lists(&[&["a", "b", "c", "d"]]), 2);
        for l in ["a", "b", "c", "d"] {
            assert!(cm.column(l) < 2);
        }
        assert_eq!(cm.columns(), 2);
    }

    #[test]
    fn unknown_labels_hash_deterministically() {
        let cm = color_labels(lists(&[&["a", "b"]]), 4);
        let c1 = cm.column("never-seen");
        let c2 = cm.column("never-seen");
        assert_eq!(c1, c2);
        assert!(c1 < cm.columns());
        assert!(!cm.contains("never-seen"));
    }

    #[test]
    fn deterministic_across_runs() {
        let data = lists(&[&["a", "b", "c"], &["b", "d"], &["c", "d", "e"], &["e", "a"]]);
        let cm1 = color_labels(data.clone(), 4);
        let cm2 = color_labels(data, 4);
        for l in ["a", "b", "c", "d", "e"] {
            assert_eq!(cm1.column(l), cm2.column(l));
        }
    }

    #[test]
    fn bucket_sizes_sum_to_label_count() {
        let cm = color_labels(lists(&[&["a", "b"], &["c"], &["d", "e", "f"]]), 3);
        assert_eq!(cm.bucket_sizes().iter().sum::<usize>(), cm.labels());
    }

    #[test]
    fn spill_percent_math() {
        let stats = LayoutStats {
            primary_rows: 97,
            spill_rows: 3,
            ..LayoutStats::default()
        };
        assert!((stats.spill_percent() - 3.0).abs() < 1e-9);
        assert_eq!(LayoutStats::default().spill_percent(), 0.0);
    }
}
