//! In-memory table storage: an append-only slab of row *version chains*,
//! kept consistent with the table's indexes on every mutation.
//!
//! Each slab slot holds the versions of one logical row, oldest → newest,
//! stamped with `begin`/`end` commit timestamps (see [`crate::txn`]). A
//! snapshot sees at most one version per chain. An empty chain is a
//! tombstone. `RowId`s are slab positions and stay stable for index
//! entries and the transaction journal.
//!
//! A version stores its row only up to the last non-NULL column: the wide
//! `OPA`/`IPA` rows of §3.2 are mostly empty label triads, and a NULL past
//! the last value costs nothing. Readers never see the stored prefix
//! itself, only a [`RowRef`], which reads NULL from there to the table's
//! arity.
//!
//! Every write goes through the **MVCC** API (`mvcc_insert`/`mvcc_delete`/
//! `mvcc_update` plus the `rollback_*` inverses, `stamp_commit`, and
//! `vacuum`): it grows chains with provisional versions stamped by a
//! transaction token, enforcing first-updater-wins at write time. Live
//! commits and WAL replay both use it. Bulk load and tests add committed
//! rows with [`Table::insert`], and checkpoint restore installs them with
//! [`Table::from_slots`].
//!
//! A chain's index postings are exactly the distinct keys of its versions:
//! every mutation adds the keys a new version brings and drops the keys no
//! surviving version carries (`unindex_unless_shared`). So a reader at any
//! snapshot finds its version through the index, and read paths re-check
//! visibility and — for chains of more than one version only — the key
//! ([`Table::get_posted`]).

use crate::error::{Error, Result};
use crate::footprint::{Payloads, TableFootprint, Usage};
use crate::index::{Index, IndexKind, KeyPart, RowId};
use crate::schema::TableSchema;
use crate::txn::{self, Snapshot};
use crate::value::Value;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a stored row reads past its stored prefix.
static NULL: Value = Value::Null;

/// A stored row as readers see it: the stored prefix, then NULL up to the
/// table's arity. It indexes and iterates as the full-width row.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    stored: &'a [Value],
    arity: usize,
}

impl<'a> RowRef<'a> {
    /// The number of columns: the table's arity.
    pub fn len(self) -> usize {
        self.arity
    }

    /// True for a row of no columns.
    pub fn is_empty(self) -> bool {
        self.arity == 0
    }

    /// Column `i`, NULL past the stored prefix. Panics at or past the
    /// arity, as a slice index does.
    #[inline]
    pub fn get(self, i: usize) -> &'a Value {
        match self.stored.get(i) {
            Some(v) => v,
            None => {
                assert!(i < self.arity, "column {i} of a row of {}", self.arity);
                &NULL
            }
        }
    }

    /// Every column, in order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = &'a Value> {
        (0..self.arity).map(move |i| self.get(i))
    }

    /// An owned copy of the full-width row.
    pub fn to_vec(self) -> Vec<Value> {
        let mut row = Vec::with_capacity(self.arity);
        row.extend_from_slice(self.stored);
        row.resize(self.arity, Value::Null);
        row
    }

    /// The full-width row as a slice: the stored prefix itself when it has
    /// every column, else a NULL-padded copy in `buf`, which the caller
    /// reuses from row to row.
    pub(crate) fn as_full<'b>(self, buf: &'b mut Vec<Value>) -> &'b [Value]
    where
        'a: 'b,
    {
        if self.stored.len() == self.arity {
            return self.stored;
        }
        buf.clear();
        buf.extend_from_slice(self.stored);
        buf.resize(self.arity, Value::Null);
        buf
    }
}

/// A full-width row, not yet stored.
impl<'a> From<&'a [Value]> for RowRef<'a> {
    fn from(row: &'a [Value]) -> RowRef<'a> {
        RowRef {
            stored: row,
            arity: row.len(),
        }
    }
}

impl std::ops::Index<usize> for RowRef<'_> {
    type Output = Value;

    fn index(&self, i: usize) -> &Value {
        self.get(i)
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One version of a row: the stored prefix plus its validity interval.
///
/// `begin`/`end` are atomics so commit stamping (marker → timestamp) can
/// run under a table *read* lock while scans proceed; the stores are
/// simple releases, and every transition is from-marker-to-final.
#[derive(Debug)]
struct Version {
    begin: AtomicU64,
    end: AtomicU64,
    /// The row up to its last non-NULL column.
    row: Box<[Value]>,
}

impl Version {
    /// A version of the full-width `row`, stamped `begin`. Only the values
    /// up to the last non-NULL column are kept, in a block of exactly that
    /// length: a fresh one (a `Drain` is never collected in place), since
    /// shrinking `row`'s block would leave a hole the next full-width row
    /// cannot reuse. An all-NULL row keeps no block at all.
    fn new(mut row: Vec<Value>, begin: u64) -> Version {
        let n = row.iter().rposition(|v| !v.is_null()).map_or(0, |i| i + 1);
        let row = if n == row.len() {
            row.into_boxed_slice()
        } else {
            row.truncate(n);
            row.drain(..).collect()
        };
        Version {
            begin: AtomicU64::new(begin),
            end: AtomicU64::new(txn::TS_INF),
            row,
        }
    }

    fn committed(row: Vec<Value>) -> Version {
        Version::new(row, 0)
    }

    fn provisional(row: Vec<Value>, token: u64) -> Version {
        Version::new(row, txn::marker(token))
    }

    /// The row, read at `arity` columns.
    fn row(&self, arity: usize) -> RowRef<'_> {
        RowRef {
            stored: &self.row,
            arity,
        }
    }

    /// Creation stamp: commit timestamp or provisional marker.
    fn begin(&self) -> u64 {
        self.begin.load(Ordering::Acquire)
    }

    /// Deletion stamp: `TS_INF` while live.
    fn end(&self) -> u64 {
        self.end.load(Ordering::Acquire)
    }

    /// Whether `snap` sees this version.
    fn visible(&self, snap: Snapshot) -> bool {
        snap.sees(self.begin(), self.end())
    }

    /// Whether no snapshot at or after `watermark` sees this version: it
    /// has a committed end no later than that.
    fn dead(&self, watermark: u64) -> bool {
        let e = self.end();
        e != txn::TS_INF && !txn::is_marker(e) && e <= watermark
    }
}

/// One version of a stored chain, for introspection ([`Table::slots`]).
#[derive(Clone, Copy)]
pub struct VersionRef<'a> {
    version: &'a Version,
    arity: usize,
}

impl<'a> VersionRef<'a> {
    /// Creation stamp: commit timestamp or provisional marker.
    pub fn begin(self) -> u64 {
        self.version.begin()
    }

    /// Deletion stamp: `TS_INF` while live.
    pub fn end(self) -> u64 {
        self.version.end()
    }

    /// The version's row.
    pub fn row(self) -> RowRef<'a> {
        self.version.row(self.arity)
    }
}

/// One slab slot's version chain, for introspection ([`Table::slots`]).
#[derive(Clone, Copy)]
pub struct SlotRef<'a> {
    slot: &'a Slot,
    arity: usize,
}

impl<'a> SlotRef<'a> {
    /// The chain's versions, oldest → newest; none for a tombstone.
    pub fn versions(self) -> impl ExactSizeIterator<Item = VersionRef<'a>> {
        let arity = self.arity;
        self.slot
            .versions()
            .iter()
            .map(move |version| VersionRef { version, arity })
    }
}

/// A row's version chain, oldest → newest. Empty = tombstone.
///
/// A chain of exactly one version — nearly every row that is not being
/// rewritten — lives inline in its slab slot, so reading it touches one
/// slab entry and no heap vector; longer chains spill to a `Vec`. Every
/// mutation keeps that normal form: `Many` never holds exactly one version.
#[derive(Debug)]
struct Slot(Chain);

#[derive(Debug)]
enum Chain {
    One(Version),
    Many(Vec<Version>),
}

impl Default for Slot {
    fn default() -> Slot {
        Slot(Chain::Many(Vec::new()))
    }
}

impl Slot {
    /// The chain `vs`, in normal form.
    fn from_versions(mut vs: Vec<Version>) -> Slot {
        match vs.len() {
            1 => Slot(Chain::One(vs.pop().expect("one version"))),
            _ => Slot(Chain::Many(vs)),
        }
    }

    /// The version `snap` sees, if any. At most one version of a chain is
    /// visible to a given snapshot; scan newest-first since recent
    /// snapshots want recent versions.
    fn visible(&self, snap: Snapshot) -> Option<&Version> {
        self.versions().iter().rev().find(|v| v.visible(snap))
    }

    /// All versions, oldest → newest.
    fn versions(&self) -> &[Version] {
        match &self.0 {
            Chain::One(v) => std::slice::from_ref(v),
            Chain::Many(vs) => vs,
        }
    }

    fn latest(&self) -> Option<&Version> {
        self.versions().last()
    }

    /// Append `v` as the newest version.
    fn push(&mut self, v: Version) {
        *self = match std::mem::take(self).0 {
            Chain::One(old) => Slot(Chain::Many(vec![old, v])),
            Chain::Many(mut vs) => {
                vs.push(v);
                Slot::from_versions(vs)
            }
        };
    }

    /// Remove and return the newest version.
    fn pop(&mut self) -> Option<Version> {
        match std::mem::take(self).0 {
            Chain::One(v) => Some(v),
            Chain::Many(mut vs) => {
                let v = vs.pop();
                *self = Slot::from_versions(vs);
                v
            }
        }
    }

    /// Empty the chain (a tombstone), returning its versions oldest →
    /// newest.
    fn take(&mut self) -> Vec<Version> {
        match std::mem::take(self).0 {
            Chain::One(v) => vec![v],
            Chain::Many(vs) => vs,
        }
    }
}

/// First-updater-wins admission: may the transaction `(token, snap)`
/// modify a chain whose newest version is `v`?
///
/// Rejecting at write time (rather than validating at commit) means a
/// transaction never wastes work building on a row it cannot commit.
fn check_write(v: &Version, token: u64, snap: Snapshot) -> Result<()> {
    let own = txn::marker(token);
    let e = v.end();
    if e != txn::TS_INF {
        // Newest version already superseded: by us (logic error upstream),
        // by another in-flight transaction, or by a commit we may not even
        // see yet. All are write-write conflicts under first-updater-wins.
        return Err(if e == own {
            Error::Invalid("row already deleted in this transaction".into())
        } else {
            Error::TxnConflict("row is being written by a concurrent transaction".into())
        });
    }
    let b = v.begin();
    if txn::is_marker(b) {
        if b != own {
            return Err(Error::TxnConflict(
                "row was inserted by a concurrent uncommitted transaction".into(),
            ));
        }
    } else if b > snap.ts {
        return Err(Error::TxnConflict(
            "row was modified after this transaction's snapshot".into(),
        ));
    }
    Ok(())
}

/// A stored table: schema + version-chain slab + indexes.
#[derive(Debug)]
pub struct Table {
    /// The table's schema.
    pub schema: TableSchema,
    rows: Vec<Slot>,
    indexes: Vec<Index>,
    live: usize,
    /// Analyzed statistics (`ANALYZE`), if collected. Deliberately not
    /// invalidated on mutation — stats go stale, the planner compensates by
    /// capping ndv at the live row count.
    stats: Option<crate::stats::TableStats>,
    /// Installs of `stats` so far (see [`Table::stats_epoch`]).
    stats_installs: u64,
    /// Physical-content counter: bumped on every mutation of the version
    /// slab or indexes (inserts, deletes, updates, MVCC stamps/rollbacks,
    /// vacuum pruning, index DDL) and on `ANALYZE`. Derived caches (the CSR
    /// adjacency cache) key their validity on it: an unchanged counter
    /// proves the bytes the cache was built from are untouched.
    version: std::sync::atomic::AtomicU64,
    /// Highest commit timestamp stamped into this table (0 = none). A
    /// snapshot at `ts >= last_commit_ts` sees every committed version and
    /// no in-flight ones, so caches built under one such snapshot can be
    /// served to any other.
    last_commit_ts: std::sync::atomic::AtomicU64,
    /// Rows whose newest version `mvcc_update`/`mvcc_delete` end-stamped
    /// since the last vacuum, or that a vacuum left with a version still
    /// ending (a marker, or an end above its watermark); unsorted, with
    /// repeats. Only these chains can hold a version a vacuum reclaims, so
    /// [`Table::vacuum`] visits them and nothing else.
    ending: Vec<RowId>,
}

impl Table {
    /// Create an empty table.
    pub fn new(schema: TableSchema) -> Table {
        Table {
            schema,
            rows: Vec::new(),
            indexes: Vec::new(),
            live: 0,
            stats: None,
            stats_installs: 0,
            version: std::sync::atomic::AtomicU64::new(0),
            last_commit_ts: std::sync::atomic::AtomicU64::new(0),
            ending: Vec::new(),
        }
    }

    /// Rebuild a table from a serialized slab (checkpoint load): slots are
    /// installed verbatim — tombstones included — so physical `RowId`s and
    /// scan order match the snapshotted table exactly. Every restored row
    /// is a single committed version. Rows are validated against the
    /// schema; indexes must be created afterwards (they backfill on
    /// creation).
    pub fn from_slots(schema: TableSchema, slots: Vec<Option<Vec<Value>>>) -> Result<Table> {
        let mut live = 0;
        let mut rows = Vec::with_capacity(slots.len());
        for slot in slots {
            match slot {
                None => rows.push(Slot::default()),
                Some(mut row) => {
                    schema.check_row(&mut row)?;
                    rows.push(Slot(Chain::One(Version::committed(row))));
                    live += 1;
                }
            }
        }
        Ok(Table {
            schema,
            rows,
            indexes: Vec::new(),
            live,
            stats: None,
            stats_installs: 0,
            version: std::sync::atomic::AtomicU64::new(0),
            last_commit_ts: std::sync::atomic::AtomicU64::new(0),
            ending: Vec::new(),
        })
    }

    /// The number of columns every row reads at.
    fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Install analyzed statistics (see [`crate::stats::TableStats`]).
    /// Counts as a content-version bump: `ANALYZE` marks a point where
    /// derived caches built from the pre-analyze table must be rebuilt.
    pub fn set_stats(&mut self, stats: crate::stats::TableStats) {
        self.stats = Some(stats);
        self.stats_installs += 1;
        self.bump_version();
    }

    /// Which statistics the planner reads for this table, as a number that
    /// changes when they do: every `ANALYZE` moves it, and so does the live
    /// count crossing the 2× drift line past which analyzed stats are
    /// ignored ([`crate::stats::TableStats::is_stale`]).
    pub fn stats_epoch(&self) -> u64 {
        let stale = self.stats.as_ref().is_some_and(|s| s.is_stale(self.live));
        self.stats_installs << 1 | u64::from(stale)
    }

    /// Current physical-content version (see the field docs).
    pub fn content_version(&self) -> u64 {
        self.version.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Highest commit timestamp stamped into this table (0 = none).
    pub fn last_commit_ts(&self) -> u64 {
        self.last_commit_ts
            .load(std::sync::atomic::Ordering::Acquire)
    }

    #[inline]
    fn bump_version(&self) {
        self.version
            .fetch_add(1, std::sync::atomic::Ordering::AcqRel);
    }

    /// Analyzed statistics, if `ANALYZE` has been run on this table.
    pub fn stats(&self) -> Option<&crate::stats::TableStats> {
        self.stats.as_ref()
    }

    /// Number of live rows. Counts committed-live rows plus uncommitted
    /// inserts minus uncommitted deletes — an estimate for the planner and
    /// the exact count in any single-writer window.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Upper bound of row ids ever allocated (including tombstones).
    pub fn slab_len(&self) -> usize {
        self.rows.len()
    }

    /// Fetch a row as of the all-committed view.
    pub fn get(&self, id: RowId) -> Option<RowRef<'_>> {
        self.get_visible(id, Snapshot::latest())
    }

    /// Fetch the version of row `id` visible to `snap`, if any.
    pub fn get_visible(&self, id: RowId, snap: Snapshot) -> Option<RowRef<'_>> {
        let arity = self.arity();
        self.rows.get(id)?.visible(snap).map(|v| v.row(arity))
    }

    /// The version of row `id` that `snap` sees, if `matches` accepts it.
    /// Index reads reach row `id` through a posting under some key and pass
    /// `matches` to re-check that key against the version. A one-version
    /// chain skips the re-check: a chain's postings are exactly its
    /// versions' keys, so its only version carries every key that posts it.
    pub(crate) fn get_posted(
        &self,
        id: RowId,
        snap: Snapshot,
        matches: impl FnOnce(RowRef<'_>) -> bool,
    ) -> Option<RowRef<'_>> {
        let arity = self.arity();
        match &self.rows.get(id)?.0 {
            Chain::One(v) => v.visible(snap).then(|| v.row(arity)),
            Chain::Many(vs) => vs
                .iter()
                .rev()
                .find(|v| v.visible(snap))
                .map(|v| v.row(arity))
                .filter(|&row| matches(row)),
        }
    }

    /// The version `snap` sees of each slot in `range`, in slab order:
    /// `None` for a slot it sees none of. Morsel-parallel scans read
    /// disjoint ranges, so together they visit rows in `iter()`'s order.
    pub(crate) fn scan(
        &self,
        range: Range<RowId>,
        snap: Snapshot,
    ) -> impl Iterator<Item = Option<RowRef<'_>>> {
        let arity = self.arity();
        self.rows[range]
            .iter()
            .map(move |s| s.visible(snap).map(|v| v.row(arity)))
    }

    /// Every slab slot's version chain, in row-id order: an introspection
    /// view for invariant checks.
    pub fn slots(&self) -> impl ExactSizeIterator<Item = SlotRef<'_>> {
        let arity = self.arity();
        self.rows.iter().map(move |slot| SlotRef { slot, arity })
    }

    /// Iterate `(RowId, row)` over rows in the all-committed view.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, RowRef<'_>)> {
        self.scan(0..self.slab_len(), Snapshot::latest())
            .enumerate()
            .filter_map(|(id, row)| Some((id, row?)))
    }

    /// Insert a row (validated/coerced against the schema) as a single
    /// committed version, updating all indexes: bulk load, which runs with
    /// no snapshot active, needs no history. Returns the new row's id.
    ///
    /// On a unique violation the row is not inserted and previously updated
    /// indexes are rolled back, so the table stays consistent.
    pub fn insert(&mut self, mut row: Vec<Value>) -> Result<RowId> {
        self.schema.check_row(&mut row)?;
        let id = self.rows.len();
        let full = RowRef::from(&row[..]);
        for i in 0..self.indexes.len() {
            if let Err(e) = self.indexes[i].insert(full, id) {
                for j in 0..i {
                    self.indexes[j].remove(full, id);
                }
                return Err(e);
            }
        }
        self.rows.push(Slot(Chain::One(Version::committed(row))));
        self.live += 1;
        self.bump_version();
        Ok(id)
    }

    // ------------------------------------------------------------------
    // MVCC API: provisional versions under a transaction token, with
    // first-updater-wins conflict detection. Callers hold the table's
    // write lock for mutation; `stamp_commit` needs only a read lock.
    // ------------------------------------------------------------------

    /// Uniqueness under MVCC: a key is taken if any version carrying it is
    /// live (`end == TS_INF`) in the *current state* — the newest committed
    /// or provisionally written state, not the transaction's snapshot —
    /// matching the write-time first-updater-wins discipline.
    fn check_unique_mvcc(&self, idx_i: usize, row: RowRef<'_>, token: u64) -> Result<()> {
        let idx = &self.indexes[idx_i];
        if !idx.unique {
            return Ok(());
        }
        let arity = self.arity();
        let own = txn::marker(token);
        for &rid in idx.postings_of(row) {
            for v in self.rows[rid].versions() {
                if !idx.same_key(v.row(arity), row) {
                    continue;
                }
                let e = v.end();
                if e == txn::TS_INF {
                    let b = v.begin();
                    return Err(if txn::is_marker(b) && b != own {
                        // Someone else's uncommitted insert holds the key;
                        // whether it commits is undecided.
                        Error::TxnConflict(format!(
                            "concurrent insert contends unique index '{}'",
                            idx.name
                        ))
                    } else {
                        Error::Schema(format!("unique index '{}' violated", idx.name))
                    });
                }
                if txn::is_marker(e) && e != own {
                    // Another in-flight transaction is deleting the holder;
                    // if it rolls back the key is taken again.
                    return Err(Error::TxnConflict(format!(
                        "unique key contended on index '{}'",
                        idx.name
                    )));
                }
                // Committed delete or our own provisional delete: key free.
            }
        }
        Ok(())
    }

    /// Insert a provisional row version for transaction `token`: checked
    /// against every unique index, then posted.
    pub fn mvcc_insert(&mut self, mut row: Vec<Value>, token: u64) -> Result<RowId> {
        self.schema.check_row(&mut row)?;
        for i in 0..self.indexes.len() {
            self.check_unique_mvcc(i, RowRef::from(&row[..]), token)?;
        }
        let id = self.rows.len();
        for idx in &mut self.indexes {
            idx.add(RowRef::from(&row[..]), id);
        }
        self.rows
            .push(Slot(Chain::One(Version::provisional(row, token))));
        self.live += 1;
        self.bump_version();
        Ok(id)
    }

    /// Provisionally delete row `id`: stamp the newest version's `end`
    /// with the transaction's marker. Fails with [`Error::TxnConflict`]
    /// if another transaction got there first.
    pub fn mvcc_delete(&mut self, id: RowId, token: u64, snap: Snapshot) -> Result<()> {
        let v = self
            .rows
            .get(id)
            .and_then(Slot::latest)
            .ok_or_else(|| Error::Invalid(format!("row {id} not live")))?;
        check_write(v, token, snap)?;
        v.end.store(txn::marker(token), Ordering::Release);
        self.ending.push(id);
        self.live -= 1;
        self.bump_version();
        Ok(())
    }

    /// Provisionally replace row `id`: end-stamp the newest version with
    /// the transaction's marker and append a provisional successor.
    pub fn mvcc_update(
        &mut self,
        id: RowId,
        mut new_row: Vec<Value>,
        token: u64,
        snap: Snapshot,
    ) -> Result<()> {
        self.schema.check_row(&mut new_row)?;
        let arity = self.arity();
        let new = RowRef::from(&new_row[..]);
        {
            let v = self
                .rows
                .get(id)
                .and_then(Slot::latest)
                .ok_or_else(|| Error::Invalid(format!("row {id} not live")))?;
            check_write(v, token, snap)?;
            for i in 0..self.indexes.len() {
                if !self.indexes[i].unique {
                    continue;
                }
                if self.indexes[i].same_key(v.row(arity), new) {
                    continue;
                }
                self.check_unique_mvcc(i, new, token)?;
            }
        }
        // Postings only for keys the chain doesn't already cover.
        let to_add: Vec<usize> = (0..self.indexes.len())
            .filter(|&i| {
                let idx = &self.indexes[i];
                !self.rows[id]
                    .versions()
                    .iter()
                    .any(|v| idx.same_key(v.row(arity), new))
            })
            .collect();
        let own = txn::marker(token);
        let slot = &mut self.rows[id];
        slot.latest()
            .expect("liveness checked above")
            .end
            .store(own, Ordering::Release);
        slot.push(Version::provisional(new_row, token));
        let new = slot.latest().expect("just pushed").row(arity);
        for i in to_add {
            self.indexes[i].add(new, id);
        }
        self.ending.push(id);
        self.bump_version();
        Ok(())
    }

    /// Undo a provisional insert: pop the version and drop its postings.
    pub fn rollback_insert(&mut self, id: RowId, token: u64) {
        let v = self.rows[id]
            .pop()
            .expect("rollback insert: version exists");
        debug_assert_eq!(v.begin(), txn::marker(token));
        self.unindex_unless_shared(id, &v);
        self.live -= 1;
        self.bump_version();
    }

    /// Undo a provisional delete: clear the marker back to live.
    pub fn rollback_delete(&mut self, id: RowId, token: u64) {
        let v = self.rows[id]
            .latest()
            .expect("rollback delete: version exists");
        debug_assert_eq!(v.end(), txn::marker(token));
        v.end.store(txn::TS_INF, Ordering::Release);
        self.live += 1;
        self.bump_version();
    }

    /// Undo a provisional update: pop the successor, drop its unshared
    /// postings, revive the predecessor.
    pub fn rollback_update(&mut self, id: RowId, token: u64) {
        let v = self.rows[id]
            .pop()
            .expect("rollback update: successor exists");
        debug_assert_eq!(v.begin(), txn::marker(token));
        self.unindex_unless_shared(id, &v);
        let prev = self.rows[id]
            .latest()
            .expect("rollback update: predecessor exists");
        debug_assert_eq!(prev.end(), txn::marker(token));
        prev.end.store(txn::TS_INF, Ordering::Release);
        self.bump_version();
    }

    /// Replace transaction `token`'s markers on row `id` with commit
    /// timestamp `ts`. Idempotent; needs only a shared table guard — the
    /// stamps are atomics and chain structure is untouched. Records `ts`
    /// as the table's newest commit and bumps the content version so
    /// derived caches built before the commit are invalidated.
    pub fn stamp_commit(&self, id: RowId, token: u64, ts: u64) {
        let own = txn::marker(token);
        let Some(slot) = self.rows.get(id) else {
            return;
        };
        for v in slot.versions() {
            if v.begin.load(Ordering::Acquire) == own {
                v.begin.store(ts, Ordering::Release);
            }
            if v.end.load(Ordering::Acquire) == own {
                v.end.store(ts, Ordering::Release);
            }
        }
        self.last_commit_ts.fetch_max(ts, Ordering::AcqRel);
        self.bump_version();
    }

    /// Reclaim versions invisible to every present and future snapshot:
    /// committed `end <= watermark`. Returns the number pruned.
    ///
    /// Only a version that was end-stamped can be reclaimed, and every end
    /// stamp is made by `mvcc_update`/`mvcc_delete`, which list the row. So
    /// this visits the listed rows, in row order, and keeps listed those
    /// that still hold a version with an end (a marker, or a timestamp
    /// above `watermark`); a rolled-back stamp leaves the list here.
    pub fn vacuum(&mut self, watermark: u64) -> usize {
        let dead = |v: &Version| v.dead(watermark);
        let mut ending = std::mem::take(&mut self.ending);
        ending.sort_unstable();
        ending.dedup();
        let mut pruned = 0;
        ending.retain(|&id| {
            if self.rows[id].versions().iter().any(dead) {
                pruned += self.prune(id, dead);
            }
            self.rows[id]
                .versions()
                .iter()
                .any(|v| v.end() != txn::TS_INF)
        });
        self.ending = ending;
        if pruned > 0 {
            self.bump_version();
        }
        pruned
    }

    /// Remove row `id`'s versions that `dead` accepts, and the postings no
    /// survivor shares. Returns how many went.
    fn prune(&mut self, id: RowId, dead: impl Fn(&Version) -> bool) -> usize {
        let (removed, kept): (Vec<Version>, Vec<Version>) =
            self.rows[id].take().into_iter().partition(dead);
        self.rows[id] = Slot::from_versions(kept);
        for v in &removed {
            self.unindex_unless_shared(id, v);
        }
        removed.len()
    }

    /// Drop row `id`'s postings for the keys of `gone`, a version no longer
    /// in its chain, unless a surviving version still carries the key.
    fn unindex_unless_shared(&mut self, id: RowId, gone: &Version) {
        let arity = self.arity();
        let row = gone.row(arity);
        let survivors = self.rows[id].versions();
        for idx in &mut self.indexes {
            if !survivors.iter().any(|v| idx.same_key(v.row(arity), row)) {
                idx.remove(row, id);
            }
        }
    }

    /// Create and backfill an index over `columns`.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        columns: Vec<usize>,
        unique: bool,
        kind: IndexKind,
    ) -> Result<()> {
        self.create_index_with_parts(
            name,
            columns.into_iter().map(KeyPart::Column).collect(),
            unique,
            kind,
        )
    }

    /// Create and backfill an index over arbitrary key parts (plain columns
    /// or `JSON_VAL` extractions — functional indexes). Backfill posts
    /// every version's key once per chain. A unique index is violated only
    /// by two chains whose committed-live versions (those
    /// `Snapshot::latest` sees) carry one key: a superseded or deleted
    /// version's key is posted but holds nothing.
    pub fn create_index_with_parts(
        &mut self,
        name: impl Into<String>,
        parts: Vec<KeyPart>,
        unique: bool,
        kind: IndexKind,
    ) -> Result<()> {
        let name = name.into();
        if self.indexes.iter().any(|i| i.name == name) {
            return Err(Error::Schema(format!("index '{name}' already exists")));
        }
        let arity = self.arity();
        if parts.iter().any(|p| p.column() >= arity) {
            return Err(Error::Schema(format!(
                "index '{name}' references a column out of range"
            )));
        }
        let mut idx = Index::with_parts(name, parts, unique, kind);
        for (id, slot) in self.rows.iter().enumerate() {
            if unique {
                // Chains before this one are posted: a live one holding
                // this chain's live key is a duplicate.
                if let Some(row) = self.get(id) {
                    let taken = idx
                        .postings_of(row)
                        .iter()
                        .any(|&other| self.get(other).is_some_and(|o| idx.same_key(o, row)));
                    if taken {
                        return Err(Error::Schema(format!(
                            "unique index '{}' violated",
                            idx.name
                        )));
                    }
                }
            }
            post_chain(&mut idx, slot.versions(), id, arity);
        }
        self.indexes.push(idx);
        self.bump_version();
        Ok(())
    }

    /// Remove the index named `name`. Returns whether it existed. Used by
    /// transaction rollback to undo a journaled `CREATE INDEX`.
    pub fn drop_index(&mut self, name: &str) -> bool {
        let before = self.indexes.len();
        self.indexes.retain(|i| i.name != name);
        if self.indexes.len() != before {
            self.bump_version();
            return true;
        }
        false
    }

    /// All indexes (for introspection / stats).
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Row ids matching `key` on the index named `index`. Postings may
    /// cover non-current versions; callers re-check visibility.
    pub fn index_lookup(&self, index: &str, key: &[Value]) -> Result<Vec<RowId>> {
        let idx = self
            .indexes
            .iter()
            .find(|i| i.name == index)
            .ok_or_else(|| Error::NotFound(format!("index '{index}'")))?;
        Ok(idx.lookup(key).to_vec())
    }

    /// This table's heap by structure (see [`crate::footprint`]). Shared
    /// payloads already in `payloads` are not counted again. A row counts
    /// its stored prefix only.
    pub(crate) fn footprint(&self, payloads: &mut Payloads) -> TableFootprint {
        let mut fp = TableFootprint {
            name: self.schema.name.clone(),
            slab: Usage::block(self.rows.capacity() * std::mem::size_of::<Slot>())
                + Usage::block(self.ending.capacity() * std::mem::size_of::<RowId>()),
            ..TableFootprint::default()
        };
        for slot in &self.rows {
            if let Chain::Many(vs) = &slot.0 {
                fp.slab += Usage::block(vs.capacity() * std::mem::size_of::<Version>());
            }
            for v in slot.versions() {
                fp.rows += Usage::block(v.row.len() * std::mem::size_of::<Value>());
                fp.payloads += v.row.iter().map(|x| payloads.value(x)).sum();
            }
        }
        for idx in &self.indexes {
            fp.indexes.push((idx.name.clone(), idx.footprint()));
            fp.payloads += idx
                .entries()
                .flat_map(|(key, _)| key)
                .map(|x| payloads.value(x))
                .sum();
        }
        fp
    }
}

/// Post row `id` under each distinct key among `versions`, once per key.
fn post_chain(idx: &mut Index, versions: &[Version], id: RowId, arity: usize) {
    for (i, v) in versions.iter().enumerate() {
        let row = v.row(arity);
        if !versions[..i]
            .iter()
            .any(|w| idx.same_key(w.row(arity), row))
        {
            idx.add(row, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};

    fn table() -> Table {
        let schema = TableSchema::new(
            "t",
            vec![
                Column {
                    name: "id".into(),
                    ty: ColumnType::Integer,
                },
                Column {
                    name: "v".into(),
                    ty: ColumnType::Any,
                },
            ],
        )
        .unwrap();
        let mut t = Table::new(schema);
        t.create_index("t_pk", vec![0], true, IndexKind::Hash)
            .unwrap();
        t
    }

    #[test]
    fn insert_get_iter() {
        let mut t = table();
        let a = t.insert(vec![Value::Int(1), Value::str("a")]).unwrap();
        let b = t.insert(vec![Value::Int(2), Value::str("b")]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a).unwrap()[1], Value::str("a"));
        let ids: Vec<_> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, [a, b]);
    }

    #[test]
    fn delete_tombstones_and_indexes() {
        let mut t = table();
        let a = t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        t.insert(vec![Value::Int(2), Value::Null]).unwrap();
        t.mvcc_delete(a, 1, snap(0, 1)).unwrap();
        t.stamp_commit(a, 1, 1);
        assert_eq!(t.vacuum(1), 1);
        assert_eq!(t.len(), 1);
        assert!(t.get(a).is_none());
        assert_eq!(chain_len(&t, a), 0);
        assert!(t.mvcc_delete(a, 2, snap(1, 2)).is_err());
        // id 1 is reusable now via the unique index.
        t.insert(vec![Value::Int(1), Value::str("again")]).unwrap();
    }

    #[test]
    fn unique_violation_leaves_table_consistent() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        assert!(t.insert(vec![Value::Int(1), Value::Null]).is_err());
        assert_eq!(t.len(), 1);
        let key = [Value::Int(1)];
        assert_eq!(t.index_lookup("t_pk", &key).unwrap().len(), 1);
    }

    #[test]
    fn update_moves_index_entries() {
        let mut t = table();
        let a = t.insert(vec![Value::Int(1), Value::str("x")]).unwrap();
        t.mvcc_update(a, vec![Value::Int(9), Value::str("y")], 1, snap(0, 1))
            .unwrap();
        t.stamp_commit(a, 1, 1);
        assert_eq!(t.vacuum(1), 1);
        assert!(t.index_lookup("t_pk", &[Value::Int(1)]).unwrap().is_empty());
        assert_eq!(t.index_lookup("t_pk", &[Value::Int(9)]).unwrap(), [a]);
    }

    #[test]
    fn update_unique_conflict_restores_old_state() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        let b = t.insert(vec![Value::Int(2), Value::str("keep")]).unwrap();
        assert!(t
            .mvcc_update(b, vec![Value::Int(1), Value::Null], 1, snap(0, 1))
            .is_err());
        // b unchanged and still findable under its old key.
        assert_eq!(t.get(b).unwrap()[1], Value::str("keep"));
        assert_eq!(t.index_lookup("t_pk", &[Value::Int(2)]).unwrap(), [b]);
    }

    #[test]
    fn backfilled_index() {
        let mut t = table();
        for i in 0..10 {
            t.insert(vec![Value::Int(i), Value::Int(i % 3)]).unwrap();
        }
        t.create_index("t_v", vec![1], false, IndexKind::BTree)
            .unwrap();
        let ids = t.index_lookup("t_v", &[Value::Int(0)]).unwrap();
        assert_eq!(ids.len(), 4); // 0, 3, 6, 9
        assert!(t
            .create_index("t_v", vec![1], false, IndexKind::Hash)
            .is_err());
    }

    // ---------------- MVCC ----------------

    fn snap(ts: u64, token: u64) -> Snapshot {
        Snapshot { ts, token }
    }

    fn chain_len(t: &Table, id: RowId) -> usize {
        t.rows[id].versions().len()
    }

    #[test]
    fn mvcc_insert_visible_only_to_owner_until_stamped() {
        let mut t = table();
        let id = t
            .mvcc_insert(vec![Value::Int(1), Value::str("a")], 7)
            .unwrap();
        assert_eq!(t.len(), 1, "live counter includes provisional inserts");
        assert!(t.get_visible(id, snap(0, 7)).is_some(), "owner sees it");
        assert!(t.get_visible(id, snap(0, 8)).is_none(), "others do not");
        assert!(t.get(id).is_none(), "all-committed view does not");
        t.stamp_commit(id, 7, 5);
        assert!(t.get_visible(id, snap(5, 0)).is_some());
        assert!(t.get_visible(id, snap(4, 0)).is_none(), "older snapshot");
        assert!(t.get(id).is_some());
    }

    #[test]
    fn mvcc_update_builds_chain_and_keeps_old_version_readable() {
        let mut t = table();
        let id = t.insert(vec![Value::Int(1), Value::str("old")]).unwrap();
        let s = snap(0, 3);
        t.mvcc_update(id, vec![Value::Int(1), Value::str("new")], 3, s)
            .unwrap();
        // Owner sees the new version; a plain snapshot still sees the old.
        assert_eq!(t.get_visible(id, s).unwrap()[1], Value::str("new"));
        assert_eq!(t.get_visible(id, snap(0, 0)).unwrap()[1], Value::str("old"));
        t.stamp_commit(id, 3, 4);
        assert_eq!(t.get_visible(id, snap(3, 0)).unwrap()[1], Value::str("old"));
        assert_eq!(t.get_visible(id, snap(4, 0)).unwrap()[1], Value::str("new"));
    }

    #[test]
    fn first_updater_wins_conflicts() {
        let mut t = table();
        let id = t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        let s1 = snap(0, 1);
        let s2 = snap(0, 2);
        t.mvcc_update(id, vec![Value::Int(1), Value::str("a")], 1, s1)
            .unwrap();
        // A second writer hits the in-flight marker.
        assert!(matches!(
            t.mvcc_update(id, vec![Value::Int(1), Value::str("b")], 2, s2),
            Err(Error::TxnConflict(_))
        ));
        assert!(matches!(
            t.mvcc_delete(id, 2, s2),
            Err(Error::TxnConflict(_))
        ));
        // After commit at ts 5, a snapshot from before the commit still
        // conflicts (it would overwrite a version it cannot see).
        t.stamp_commit(id, 1, 5);
        assert!(matches!(
            t.mvcc_delete(id, 2, snap(0, 2)),
            Err(Error::TxnConflict(_))
        ));
        // A snapshot at/after the commit may proceed.
        t.mvcc_delete(id, 2, snap(5, 2)).unwrap();
    }

    #[test]
    fn rollbacks_restore_prior_state() {
        let mut t = table();
        let a = t.insert(vec![Value::Int(1), Value::str("keep")]).unwrap();
        let s = snap(0, 9);
        let b = t.mvcc_insert(vec![Value::Int(2), Value::Null], 9).unwrap();
        t.mvcc_update(a, vec![Value::Int(7), Value::str("tmp")], 9, s)
            .unwrap();
        // Undo in reverse order, as the journal does.
        t.rollback_update(a, 9);
        t.rollback_insert(b, 9);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(a).unwrap()[1], Value::str("keep"));
        assert_eq!(t.index_lookup("t_pk", &[Value::Int(1)]).unwrap(), [a]);
        assert!(t.index_lookup("t_pk", &[Value::Int(7)]).unwrap().is_empty());
        assert!(t.index_lookup("t_pk", &[Value::Int(2)]).unwrap().is_empty());

        let s2 = snap(0, 11);
        t.mvcc_delete(a, 11, s2).unwrap();
        assert_eq!(t.len(), 0);
        t.rollback_delete(a, 11);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(a).unwrap()[0], Value::Int(1));
    }

    #[test]
    fn mvcc_unique_respects_liveness_not_history() {
        let mut t = table();
        let a = t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        // Live key blocks an MVCC insert.
        assert!(matches!(
            t.mvcc_insert(vec![Value::Int(1), Value::Null], 2),
            Err(Error::Schema(_))
        ));
        // Delete committed at ts 3: the key is free for current writers
        // even though the old version is still readable at ts <= 2.
        t.mvcc_delete(a, 1, snap(0, 1)).unwrap();
        t.stamp_commit(a, 1, 3);
        let b = t
            .mvcc_insert(vec![Value::Int(1), Value::str("new")], 2)
            .unwrap();
        t.stamp_commit(b, 2, 4);
        assert_eq!(t.get_visible(a, snap(2, 0)).unwrap()[0], Value::Int(1));
        assert_eq!(t.get_visible(b, snap(4, 0)).unwrap()[1], Value::str("new"));
        // An uncommitted foreign insert holding the key is a conflict, not
        // a hard schema error.
        let mut t2 = table();
        t2.mvcc_insert(vec![Value::Int(5), Value::Null], 1).unwrap();
        assert!(matches!(
            t2.mvcc_insert(vec![Value::Int(5), Value::Null], 2),
            Err(Error::TxnConflict(_))
        ));
    }

    #[test]
    fn vacuum_prunes_below_watermark() {
        let mut t = table();
        let id = t.insert(vec![Value::Int(1), Value::str("v0")]).unwrap();
        t.mvcc_update(id, vec![Value::Int(2), Value::str("v1")], 1, snap(0, 1))
            .unwrap();
        t.stamp_commit(id, 1, 2);
        t.mvcc_update(id, vec![Value::Int(3), Value::str("v2")], 2, snap(2, 2))
            .unwrap();
        t.stamp_commit(id, 2, 4);
        assert_eq!(chain_len(&t, id), 3);
        // Watermark 1: v0 (end=2) still visible to a snapshot at ts 1.
        assert_eq!(t.vacuum(1), 0);
        // Watermark 2: v0 dead everywhere, v1 (end=4) still needed.
        assert_eq!(t.vacuum(2), 1);
        assert_eq!(chain_len(&t, id), 2);
        assert!(t.index_lookup("t_pk", &[Value::Int(1)]).unwrap().is_empty());
        // Watermark 4: only the live version remains; its key survives.
        assert_eq!(t.vacuum(4), 1);
        assert_eq!(chain_len(&t, id), 1);
        assert_eq!(t.index_lookup("t_pk", &[Value::Int(3)]).unwrap(), [id]);
        // A fully deleted chain vacuums to an empty tombstone.
        let d = t.insert(vec![Value::Int(9), Value::Null]).unwrap();
        t.mvcc_delete(d, 3, snap(4, 3)).unwrap();
        t.stamp_commit(d, 3, 5);
        assert_eq!(t.vacuum(5), 1);
        assert_eq!(chain_len(&t, d), 0);
        assert!(t.index_lookup("t_pk", &[Value::Int(9)]).unwrap().is_empty());
    }

    #[test]
    fn vacuum_keeps_listed_only_rows_with_a_pending_end() {
        let mut t = table();
        let a = t.insert(vec![Value::Int(1), Value::str("a")]).unwrap();
        let b = t.insert(vec![Value::Int(2), Value::str("b")]).unwrap();
        let c = t.insert(vec![Value::Int(3), Value::str("c")]).unwrap();
        assert!(t.ending.is_empty(), "a plain insert ends no version");
        // A committed update; a delete and an update rolled back; then a
        // committed delete.
        t.mvcc_update(a, vec![Value::Int(4), Value::str("a1")], 1, snap(0, 1))
            .unwrap();
        t.stamp_commit(a, 1, 2);
        t.mvcc_delete(b, 2, snap(2, 2)).unwrap();
        t.rollback_delete(b, 2);
        t.mvcc_update(c, vec![Value::Int(5), Value::str("c1")], 3, snap(2, 3))
            .unwrap();
        t.rollback_update(c, 3);
        t.mvcc_delete(c, 4, snap(2, 4)).unwrap();
        t.stamp_commit(c, 4, 5);
        assert_eq!(t.ending, [a, b, c, c]);
        // Nothing is dead at 1, but the rolled-back `b` leaves the list.
        assert_eq!(t.vacuum(1), 0);
        assert_eq!(t.ending, [a, c]);
        // At 5 `a`'s old version and `c`'s last one go, and so does the list.
        assert_eq!(t.vacuum(5), 2);
        assert!(t.ending.is_empty());
        // An open writer's marker keeps its row listed until it rolls back.
        t.mvcc_update(a, vec![Value::Int(6), Value::str("a2")], 6, snap(5, 6))
            .unwrap();
        assert_eq!(t.vacuum(5), 0);
        assert_eq!(t.ending, [a]);
        t.rollback_update(a, 6);
        assert_eq!(t.vacuum(5), 0);
        assert!(t.ending.is_empty());
        assert_eq!(t.get(a).unwrap()[1], Value::str("a1"));
    }

    fn inline(t: &Table, id: RowId) -> bool {
        matches!(t.rows[id].0, Chain::One(_))
    }

    #[test]
    fn one_version_chains_live_inline() {
        let mut t = table();
        let id = t.insert(vec![Value::Int(1), Value::str("a")]).unwrap();
        assert!(inline(&t, id));
        t.mvcc_update(id, vec![Value::Int(2), Value::str("b")], 1, snap(0, 1))
            .unwrap();
        assert!(!inline(&t, id));
        t.rollback_update(id, 1);
        assert!(inline(&t, id), "a pop back to one version moves it inline");
        t.mvcc_update(id, vec![Value::Int(2), Value::str("b")], 2, snap(0, 2))
            .unwrap();
        t.stamp_commit(id, 2, 3);
        assert_eq!(t.vacuum(3), 1);
        assert!(inline(&t, id), "so does a vacuum");
        assert_eq!(t.get(id).unwrap()[1], Value::str("b"));
        let b = t.mvcc_insert(vec![Value::Int(5), Value::Null], 4).unwrap();
        assert!(inline(&t, b));
        t.rollback_insert(b, 4);
        assert_eq!(chain_len(&t, b), 0);
        t.mvcc_delete(id, 5, snap(3, 5)).unwrap();
        t.stamp_commit(id, 5, 6);
        assert_eq!(t.vacuum(6), 1);
        assert_eq!(chain_len(&t, id), 0);
    }

    #[test]
    fn only_multi_version_chains_recheck_the_posted_key() {
        let mut t = table();
        let id = t.insert(vec![Value::Int(1), Value::str("a")]).unwrap();
        let latest = Snapshot::latest();
        // One version: its only posting is its own key, so no re-check.
        assert!(t.get_posted(id, latest, |_| false).is_some());
        t.mvcc_update(id, vec![Value::Int(2), Value::str("b")], 1, snap(0, 1))
            .unwrap();
        assert_eq!(t.index_lookup("t_pk", &[Value::Int(1)]).unwrap(), [id]);
        assert_eq!(t.index_lookup("t_pk", &[Value::Int(2)]).unwrap(), [id]);
        assert!(t.get_posted(id, snap(0, 1), |_| false).is_none());
        let idx = &t.indexes()[0];
        let seen = t.get_posted(id, snap(0, 1), |row| idx.key_matches(row, &[Value::Int(2)]));
        assert_eq!(seen.unwrap()[1], Value::str("b"));
        assert!(t
            .get_posted(id, snap(0, 1), |row| idx.key_matches(row, &[Value::Int(1)]))
            .is_none());
        // Another snapshot sees the old version of the same chain.
        let old = t.get_posted(id, snap(0, 9), |row| idx.key_matches(row, &[Value::Int(1)]));
        assert_eq!(old.unwrap()[1], Value::str("a"));
        assert!(t.get_posted(99, latest, |_| true).is_none());
    }

    #[test]
    fn key_cycling_updates_keep_postings_deduplicated() {
        let mut t = table();
        let id = t.insert(vec![Value::Int(1), Value::str("a")]).unwrap();
        let s = snap(0, 1);
        // 1 -> 2 -> 1: the chain covers key 1 twice but posts it once.
        t.mvcc_update(id, vec![Value::Int(2), Value::str("b")], 1, s)
            .unwrap();
        t.mvcc_update(id, vec![Value::Int(1), Value::str("c")], 1, s)
            .unwrap();
        assert_eq!(t.index_lookup("t_pk", &[Value::Int(1)]).unwrap(), [id]);
        // Rolling back the chain leaves exactly the original posting.
        t.rollback_update(id, 1);
        t.rollback_update(id, 1);
        assert_eq!(t.index_lookup("t_pk", &[Value::Int(1)]).unwrap(), [id]);
        assert!(t.index_lookup("t_pk", &[Value::Int(2)]).unwrap().is_empty());
        assert_eq!(t.get(id).unwrap()[1], Value::str("a"));
    }

    // ---------------- stored prefix ----------------

    /// `(id, a, b, c, d)`: `c` and `d` are the trailing triad-like columns,
    /// `d` indexed by a B-tree.
    fn wide() -> Table {
        let col = |name: &str| Column {
            name: name.into(),
            ty: ColumnType::Any,
        };
        let schema =
            TableSchema::new("w", vec![col("id"), col("a"), col("b"), col("c"), col("d")]).unwrap();
        let mut t = Table::new(schema);
        t.create_index("w_pk", vec![0], true, IndexKind::Hash)
            .unwrap();
        t.create_index("w_d", vec![4], false, IndexKind::BTree)
            .unwrap();
        t
    }

    fn ints(vals: &[Option<i64>]) -> Vec<Value> {
        vals.iter()
            .map(|v| v.map_or(Value::Null, Value::Int))
            .collect()
    }

    /// Values each version of row `id`'s chain stores, oldest first.
    fn stored(t: &Table, id: RowId) -> Vec<usize> {
        t.rows[id].versions().iter().map(|v| v.row.len()).collect()
    }

    #[test]
    fn a_row_stores_up_to_its_last_non_null_column() {
        let mut t = wide();
        let a = t
            .insert(ints(&[Some(1), Some(2), None, None, None]))
            .unwrap();
        let b = t
            .insert(ints(&[Some(2), None, Some(3), None, Some(4)]))
            .unwrap();
        assert_eq!(stored(&t, a), [2]);
        assert_eq!(stored(&t, b), [5], "no NULL tail: every column");
        // Reads run to the arity, NULL past the prefix.
        let row = t.get(a).unwrap();
        assert_eq!(row.len(), 5);
        assert_eq!(row[4], Value::Null);
        assert_eq!(row.get(2), &Value::Null);
        assert_eq!(row.to_vec(), ints(&[Some(1), Some(2), None, None, None]));
        assert_eq!(row.iter().count(), 5);
        let mut buf = Vec::new();
        assert_eq!(
            row.as_full(&mut buf),
            &ints(&[Some(1), Some(2), None, None, None])[..]
        );
        let full = t.get(b).unwrap();
        assert!(
            std::ptr::eq(full.as_full(&mut buf), full.stored),
            "borrowed"
        );
        assert_eq!(format!("{row:?}"), "[Int(1), Int(2), Null, Null, Null]");
    }

    #[test]
    #[should_panic(expected = "column 5 of a row of 5")]
    fn a_read_past_the_arity_panics() {
        let mut t = wide();
        let a = t.insert(ints(&[Some(1), None, None, None, None])).unwrap();
        let _ = &t.get(a).unwrap()[5];
    }

    #[test]
    fn an_all_null_row_owns_no_block() {
        let mut t = wide();
        let mut payloads = Payloads::default();
        let before = t.footprint(&mut payloads).rows;
        let a = t.insert(ints(&[None; 5])).unwrap();
        assert_eq!(stored(&t, a), [0]);
        assert_eq!(t.footprint(&mut payloads).rows, before);
        assert_eq!(t.get(a).unwrap().to_vec(), ints(&[None; 5]));
        assert_eq!(t.index_lookup("w_d", &[Value::Null]).unwrap(), [a]);
    }

    #[test]
    fn updates_resize_the_new_version_and_survivors_keep_theirs() {
        let mut t = wide();
        let id = t
            .insert(ints(&[Some(1), Some(1), Some(1), Some(1), Some(1)]))
            .unwrap();
        // Clearing the trailing columns shrinks the successor.
        t.mvcc_update(
            id,
            ints(&[Some(1), Some(1), None, None, None]),
            1,
            snap(0, 1),
        )
        .unwrap();
        assert_eq!(stored(&t, id), [5, 2]);
        t.rollback_update(id, 1);
        assert_eq!(stored(&t, id), [5], "rollback keeps the survivor whole");
        t.mvcc_update(
            id,
            ints(&[Some(1), Some(1), None, None, None]),
            2,
            snap(0, 2),
        )
        .unwrap();
        t.stamp_commit(id, 2, 3);
        // Setting a trailing column again grows the next one.
        t.mvcc_update(
            id,
            ints(&[Some(1), None, None, Some(7), None]),
            3,
            snap(3, 3),
        )
        .unwrap();
        t.stamp_commit(id, 3, 4);
        assert_eq!(stored(&t, id), [5, 2, 4]);
        assert_eq!(t.vacuum(3), 1);
        assert_eq!(
            stored(&t, id),
            [2, 4],
            "vacuum keeps each survivor's length"
        );
        assert_eq!(t.get_visible(id, snap(3, 0)).unwrap()[4], Value::Null);
        assert_eq!(t.get(id).unwrap()[3], Value::Int(7));
    }

    #[test]
    fn an_index_on_a_trailing_column_answers_every_read() {
        let mut t = wide();
        let a = t
            .insert(ints(&[Some(1), Some(1), None, None, None]))
            .unwrap();
        let b = t
            .insert(ints(&[Some(2), Some(1), None, None, Some(5)]))
            .unwrap();
        let c = t
            .insert(ints(&[Some(3), None, None, None, Some(9)]))
            .unwrap();
        let latest = Snapshot::latest();
        let idx = &t.indexes()[1];
        // Point: the NULL-tailed row is posted under NULL, the others under
        // their stored value.
        assert_eq!(t.index_lookup("w_d", &[Value::Int(5)]).unwrap(), [b]);
        assert_eq!(t.index_lookup("w_d", &[Value::Null]).unwrap(), [a]);
        // Range.
        let lo = [Value::Int(1)];
        let ids: Vec<RowId> = idx
            .range(Some(&lo), None)
            .unwrap()
            .iter()
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect();
        assert_eq!(ids, [b, c]);
        // Probe with the key re-check a multi-version chain takes.
        t.mvcc_update(
            a,
            ints(&[Some(1), Some(1), None, None, Some(9)]),
            1,
            snap(0, 1),
        )
        .unwrap();
        let idx = &t.indexes()[1];
        let key = [Value::Int(9)];
        let seen: Vec<RowId> = idx
            .lookup(&key)
            .iter()
            .copied()
            .filter(|&rid| {
                t.get_posted(rid, snap(0, 1), |row| idx.key_matches(row, &key))
                    .is_some()
            })
            .collect();
        assert_eq!(seen, [c, a]);
        let null = [Value::Null];
        assert!(t
            .get_posted(a, snap(0, 1), |row| idx.key_matches(row, &null))
            .is_none());
        assert!(t
            .get_posted(a, latest, |row| idx.key_matches(row, &null))
            .is_some());
    }
}
