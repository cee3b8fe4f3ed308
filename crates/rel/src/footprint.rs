//! The store's heap footprint by structure: per table, the slab, the row
//! payloads, each index's entries and the shared string / JSON payloads,
//! each as bytes and heap blocks.
//!
//! Everything is computed from lengths and capacities, not by hooking the
//! allocator, so the numbers are what the structures *ask* for. Bytes are
//! glibc malloc chunk sizes (request + 8, rounded up to 16, at least 32),
//! the unit in which RSS grows. Hash tables are sized as hashbrown lays
//! them out (one block: slots, control bytes and a 16-byte group tail); a
//! B-tree's nodes are estimated, as its node count is not observable.
//! String, JSON and array payloads live behind `Arc`s that rows and index
//! keys share, so each is counted once per distinct `Arc`, by the first
//! table that reaches it.

use crate::hasher::FxHashSet;
use crate::value::Value;
use sqlgraph_json::Json;
use std::fmt;
use std::mem::size_of;
use std::ops::{Add, AddAssign};
use std::sync::Arc;

/// Heap bytes and the number of blocks they come in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// Malloc chunk bytes.
    pub bytes: usize,
    /// Heap blocks.
    pub blocks: usize,
}

impl Usage {
    /// One heap block of `size` requested bytes; nothing for zero.
    pub(crate) fn block(size: usize) -> Usage {
        if size == 0 {
            return Usage::default();
        }
        Usage {
            bytes: ((size + 8 + 15) & !15).max(32),
            blocks: 1,
        }
    }

    /// A hashbrown table of `capacity` usable slots of `slot` bytes each.
    pub(crate) fn hash_table(capacity: usize, slot: usize) -> Usage {
        let buckets = match capacity {
            0 => return Usage::default(),
            c if c < 8 => (c + 1).next_power_of_two(),
            c => c / 7 * 8,
        };
        Usage::block(buckets * slot + buckets + 16)
    }

    /// An estimate for a B-tree of `len` entries of `slot` bytes each:
    /// nodes of 11 entries filled to about two thirds, one internal node
    /// (with its 12 child pointers) per seven below it.
    pub(crate) fn btree(len: usize, slot: usize) -> Usage {
        let leaf = 16 + 11 * slot;
        let mut total = Usage::default();
        let mut nodes = len.div_ceil(7);
        let mut size = leaf;
        while nodes > 0 {
            total += Usage {
                bytes: Usage::block(size).bytes * nodes,
                blocks: nodes,
            };
            nodes = if nodes > 1 { nodes.div_ceil(7) } else { 0 };
            size = leaf + 12 * size_of::<usize>();
        }
        total
    }

    /// Bytes in MiB.
    pub fn mib(self) -> f64 {
        self.bytes as f64 / (1024.0 * 1024.0)
    }
}

impl Add for Usage {
    type Output = Usage;
    fn add(self, o: Usage) -> Usage {
        Usage {
            bytes: self.bytes + o.bytes,
            blocks: self.blocks + o.blocks,
        }
    }
}

impl AddAssign for Usage {
    fn add_assign(&mut self, o: Usage) {
        *self = *self + o;
    }
}

impl std::iter::Sum for Usage {
    fn sum<I: Iterator<Item = Usage>>(it: I) -> Usage {
        it.fold(Usage::default(), Add::add)
    }
}

/// The shared payloads seen so far, by `Arc` address.
#[derive(Default)]
pub(crate) struct Payloads {
    seen: FxHashSet<usize>,
}

impl Payloads {
    /// The heap behind `v`'s `Arc` the first time that `Arc` is met, and
    /// nothing after; nothing for inline values.
    pub(crate) fn value(&mut self, v: &Value) -> Usage {
        // An `Arc`'s block is its two counts and the value.
        const COUNTS: usize = 2 * size_of::<usize>();
        match v {
            Value::Str(s) if self.first(Arc::as_ptr(s).cast::<u8>()) => {
                Usage::block(COUNTS + s.len())
            }
            Value::Json(j) if self.first(Arc::as_ptr(j).cast::<u8>()) => {
                Usage::block(COUNTS + size_of::<Json>()) + json_heap(j)
            }
            Value::Array(a) if self.first(Arc::as_ptr(a).cast::<u8>()) => {
                let items: Usage = a.iter().map(|x| self.value(x)).sum();
                Usage::block(COUNTS + size_of::<Vec<Value>>())
                    + Usage::block(a.capacity() * size_of::<Value>())
                    + items
            }
            _ => Usage::default(),
        }
    }

    fn first(&mut self, p: *const u8) -> bool {
        self.seen.insert(p as usize)
    }
}

/// The heap a JSON document owns below its root.
fn json_heap(j: &Json) -> Usage {
    match j {
        Json::Str(s) => Usage::block(s.capacity()),
        Json::Array(items) => {
            Usage::block(items.capacity() * size_of::<Json>())
                + items.iter().map(json_heap).sum::<Usage>()
        }
        Json::Object(o) => {
            Usage::block(o.capacity() * size_of::<(String, Json)>())
                + o.iter()
                    .map(|(k, v)| Usage::block(k.len()) + json_heap(v))
                    .sum::<Usage>()
        }
        Json::Null | Json::Bool(_) | Json::Num(_) => Usage::default(),
    }
}

/// One table's heap, by structure.
#[derive(Debug, Clone, Default)]
pub struct TableFootprint {
    /// Table name.
    pub name: String,
    /// The slot vector, spilled version chains and the vacuum list.
    pub slab: Usage,
    /// Each version's boxed row.
    pub rows: Usage,
    /// Each index's map and the blocks its entries own, by index name.
    pub indexes: Vec<(String, Usage)>,
    /// String, JSON and array payloads first reached from this table.
    pub payloads: Usage,
}

impl TableFootprint {
    /// Everything this table accounts for.
    pub fn total(&self) -> Usage {
        self.slab + self.rows + self.payloads + self.indexes.iter().map(|(_, u)| *u).sum()
    }
}

/// A database's heap, by table and structure
/// ([`crate::Database::footprint`]).
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    /// Tables in name order.
    pub tables: Vec<TableFootprint>,
}

impl Footprint {
    /// Everything accounted for.
    pub fn total(&self) -> Usage {
        self.tables.iter().map(TableFootprint::total).sum()
    }

    /// Every index of every table.
    pub fn indexes(&self) -> Usage {
        self.tables
            .iter()
            .flat_map(|t| t.indexes.iter().map(|(_, u)| *u))
            .sum()
    }
}

impl fmt::Display for Footprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let line = |f: &mut fmt::Formatter<'_>, table: &str, part: &str, u: Usage| {
            writeln!(
                f,
                "{table:<8} {part:<32} {:>10.2} {:>10}",
                u.mib(),
                u.blocks
            )
        };
        writeln!(
            f,
            "{:<8} {:<32} {:>10} {:>10}",
            "table", "structure", "MiB", "blocks"
        )?;
        for t in &self.tables {
            line(f, &t.name, "slab", t.slab)?;
            line(f, &t.name, "rows", t.rows)?;
            for (name, u) in &t.indexes {
                line(f, &t.name, &format!("index {name}"), *u)?;
            }
            line(f, &t.name, "payloads", t.payloads)?;
        }
        line(f, "all", "indexes", self.indexes())?;
        line(f, "all", "total", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_round_to_glibc_chunks() {
        assert_eq!(Usage::block(0), Usage::default());
        assert_eq!(Usage::block(1).bytes, 32);
        assert_eq!(Usage::block(24).bytes, 32);
        assert_eq!(Usage::block(25).bytes, 48);
        assert_eq!(Usage::block(48).bytes, 64);
    }

    #[test]
    fn a_shared_payload_counts_once() {
        let mut p = Payloads::default();
        let s = Value::str("knows");
        let first = p.value(&s);
        assert_eq!(first.blocks, 1);
        assert_eq!(p.value(&s.clone()), Usage::default());
        assert_eq!(p.value(&Value::str("knows")).blocks, 1);
        assert_eq!(p.value(&Value::Int(7)), Usage::default());
    }
}
