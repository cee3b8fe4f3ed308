//! In-memory table storage: an append-only slab of row *version chains*,
//! kept consistent with the table's indexes on every mutation.
//!
//! Each slab slot holds the versions of one logical row, oldest → newest,
//! stamped with `begin`/`end` commit timestamps (see [`crate::txn`]). A
//! snapshot sees at most one version per chain. An empty chain is a
//! tombstone. `RowId`s are slab positions and stay stable for index
//! entries and undo logs.
//!
//! Two mutation APIs coexist:
//!
//! * the **destructive** API (`insert`/`delete`/`update`) edits
//!   chains as single committed versions — WAL replay, checkpoint restore,
//!   and bulk load run single-threaded with no snapshots active, so they
//!   need no history;
//! * the **MVCC** API (`mvcc_insert`/`mvcc_delete`/`mvcc_update` plus the
//!   `rollback_*` inverses, `stamp_commit`, and `vacuum`) grows chains with
//!   provisional versions stamped by a transaction token, enforcing
//!   first-updater-wins at write time.
//!
//! A chain's index postings are exactly the distinct keys of its versions:
//! every mutation adds the keys a new version brings and drops the keys no
//! surviving version carries (`unindex_unless_shared`). So a reader at any
//! snapshot finds its version through the index, and read paths re-check
//! visibility and — for chains of more than one version only — the key
//! ([`Table::get_posted`]).

use crate::error::{Error, Result};
use crate::index::{Index, IndexKey, IndexKind, KeyPart, RowId};
use crate::schema::TableSchema;
use crate::txn::{self, Snapshot};
use crate::value::Value;
use std::sync::atomic::{AtomicU64, Ordering};

/// One version of a row: the payload plus its validity interval.
///
/// `begin`/`end` are atomics so commit stamping (marker → timestamp) can
/// run under a table *read* lock while scans proceed; the stores are
/// simple releases, and every transition is from-marker-to-final.
#[derive(Debug)]
pub struct Version {
    begin: AtomicU64,
    end: AtomicU64,
    row: Box<[Value]>,
}

impl Version {
    fn committed(row: Box<[Value]>) -> Version {
        Version {
            begin: AtomicU64::new(0),
            end: AtomicU64::new(txn::TS_INF),
            row,
        }
    }

    fn provisional(row: Box<[Value]>, token: u64) -> Version {
        Version {
            begin: AtomicU64::new(txn::marker(token)),
            end: AtomicU64::new(txn::TS_INF),
            row,
        }
    }

    /// The row payload.
    pub fn row(&self) -> &[Value] {
        &self.row
    }

    /// Creation stamp: commit timestamp or provisional marker.
    pub fn begin(&self) -> u64 {
        self.begin.load(Ordering::Acquire)
    }

    /// Deletion stamp: `TS_INF` while live.
    pub fn end(&self) -> u64 {
        self.end.load(Ordering::Acquire)
    }

    /// Whether `snap` sees this version.
    pub fn visible(&self, snap: Snapshot) -> bool {
        snap.sees(self.begin(), self.end())
    }
}

/// A row's version chain, oldest → newest. Empty = tombstone.
///
/// A chain of exactly one version — nearly every row that is not being
/// rewritten — lives inline in its slab slot, so reading it touches one
/// slab entry and no heap vector; longer chains spill to a `Vec`. Every
/// mutation keeps that normal form: `Many` never holds exactly one version.
#[derive(Debug)]
pub struct Slot(Chain);

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
    pub fn visible(&self, snap: Snapshot) -> Option<&[Value]> {
        self.versions()
            .iter()
            .rev()
            .find(|v| v.visible(snap))
            .map(Version::row)
    }

    /// All versions, oldest → newest.
    pub fn versions(&self) -> &[Version] {
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
                    rows.push(Slot(Chain::One(Version::committed(row.into_boxed_slice()))));
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
        })
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
    pub fn get(&self, id: RowId) -> Option<&[Value]> {
        self.get_visible(id, Snapshot::latest())
    }

    /// Fetch the version of row `id` visible to `snap`, if any.
    pub fn get_visible(&self, id: RowId, snap: Snapshot) -> Option<&[Value]> {
        self.rows.get(id).and_then(|s| s.visible(snap))
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
        matches: impl FnOnce(&[Value]) -> bool,
    ) -> Option<&[Value]> {
        match &self.rows.get(id)?.0 {
            Chain::One(v) => v.visible(snap).then(|| v.row()),
            Chain::Many(vs) => vs
                .iter()
                .rev()
                .find(|v| v.visible(snap))
                .map(Version::row)
                .filter(|row| matches(row)),
        }
    }

    /// Raw slab access for morsel-parallel scans: slot `i` is row id `i`'s
    /// version chain. Workers slice disjoint ranges of this slab so a
    /// parallel scan visits rows in exactly `iter()`'s order.
    pub fn slots(&self) -> &[Slot] {
        &self.rows
    }

    /// Iterate `(RowId, row)` over rows in the all-committed view.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &[Value])> {
        self.iter_snap(Snapshot::latest())
    }

    /// Iterate `(RowId, row)` over rows visible to `snap`.
    pub fn iter_snap(&self, snap: Snapshot) -> impl Iterator<Item = (RowId, &[Value])> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(move |(id, s)| s.visible(snap).map(|row| (id, row)))
    }

    // ------------------------------------------------------------------
    // Destructive API: single committed versions, no history. WAL replay,
    // checkpoint restore, and bulk load — single-threaded, no snapshots.
    // ------------------------------------------------------------------

    /// Insert a row (validated/coerced against the schema) as a single
    /// committed version, updating all indexes. Returns the new row's id.
    ///
    /// On a unique violation the row is not inserted and previously updated
    /// indexes are rolled back, so the table stays consistent.
    pub fn insert(&mut self, mut row: Vec<Value>) -> Result<RowId> {
        self.schema.check_row(&mut row)?;
        let id = self.rows.len();
        for i in 0..self.indexes.len() {
            if let Err(e) = self.indexes[i].insert(&row, id) {
                for j in 0..i {
                    self.indexes[j].remove(&row, id);
                }
                return Err(e);
            }
        }
        self.rows
            .push(Slot(Chain::One(Version::committed(row.into_boxed_slice()))));
        self.live += 1;
        self.bump_version();
        Ok(id)
    }

    /// Delete a row by id, discarding its whole version chain. Returns the
    /// newest version's values.
    pub fn delete(&mut self, id: RowId) -> Result<Vec<Value>> {
        if id >= self.rows.len() {
            return Err(Error::Invalid(format!("row {id} out of range")));
        }
        let mut versions = self.rows[id].take();
        if versions.is_empty() {
            return Err(Error::Invalid(format!("row {id} already deleted")));
        }
        for v in &versions {
            for idx in &mut self.indexes {
                // Postings are deduplicated per chain; removing a key twice
                // is a no-op.
                idx.remove(v.row(), id);
            }
        }
        let newest = versions.pop().expect("chain checked non-empty");
        if newest.end() == txn::TS_INF {
            self.live -= 1;
        }
        self.bump_version();
        Ok(newest.row.into_vec())
    }

    /// Replace a row in place with a single committed version, updating
    /// indexes. Returns the newest old values.
    pub fn update(&mut self, id: RowId, mut new_row: Vec<Value>) -> Result<Vec<Value>> {
        self.schema.check_row(&mut new_row)?;
        if self
            .rows
            .get(id)
            .and_then(Slot::latest)
            .is_none_or(|v| v.end() != txn::TS_INF)
        {
            return Err(Error::Invalid(format!("row {id} not live")));
        }
        // Drop the old chain's postings, then insert the new key set with
        // unique checks; on a violation restore the old postings verbatim.
        let old_keys: Vec<Vec<IndexKey>> = self
            .indexes
            .iter()
            .map(|idx| {
                let mut keys: Vec<IndexKey> = self.rows[id]
                    .versions()
                    .iter()
                    .map(|v| idx.key_of(v.row()))
                    .collect();
                keys.sort();
                keys.dedup();
                keys
            })
            .collect();
        for (i, keys) in old_keys.iter().enumerate() {
            for key in keys {
                self.indexes[i].remove_key(key, id);
            }
        }
        for i in 0..self.indexes.len() {
            if let Err(e) = self.indexes[i].insert(&new_row, id) {
                for j in 0..i {
                    self.indexes[j].remove(&new_row, id);
                }
                for (j, keys) in old_keys.iter().enumerate() {
                    for key in keys {
                        self.indexes[j].add(key.clone(), id);
                    }
                }
                return Err(e);
            }
        }
        let newest = std::mem::replace(
            &mut self.rows[id],
            Slot(Chain::One(Version::committed(new_row.into_boxed_slice()))),
        )
        .pop()
        .expect("liveness checked above");
        self.bump_version();
        Ok(newest.row.into_vec())
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
    fn check_unique_mvcc(&self, idx_i: usize, key: &IndexKey, token: u64) -> Result<()> {
        let idx = &self.indexes[idx_i];
        if !idx.unique {
            return Ok(());
        }
        let own = txn::marker(token);
        for &rid in idx.lookup(key) {
            for v in self.rows[rid].versions() {
                if !idx.key_matches(v.row(), &key.0) {
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

    /// Insert a provisional row version for transaction `token`.
    pub fn mvcc_insert(&mut self, mut row: Vec<Value>, token: u64) -> Result<RowId> {
        self.schema.check_row(&mut row)?;
        for i in 0..self.indexes.len() {
            let key = self.indexes[i].key_of(&row);
            self.check_unique_mvcc(i, &key, token)?;
        }
        let id = self.rows.len();
        for idx in &mut self.indexes {
            let key = idx.key_of(&row);
            idx.add(key, id);
        }
        self.rows.push(Slot(Chain::One(Version::provisional(
            row.into_boxed_slice(),
            token,
        ))));
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
                let new_key = self.indexes[i].key_of(&new_row);
                if self.indexes[i].key_matches(v.row(), &new_key.0) {
                    continue;
                }
                self.check_unique_mvcc(i, &new_key, token)?;
            }
        }
        // Postings only for keys the chain doesn't already cover.
        let to_add: Vec<(usize, IndexKey)> = self
            .indexes
            .iter()
            .enumerate()
            .filter_map(|(i, idx)| {
                let key = idx.key_of(&new_row);
                let covered = self.rows[id]
                    .versions()
                    .iter()
                    .any(|v| idx.key_matches(v.row(), &key.0));
                (!covered).then_some((i, key))
            })
            .collect();
        let own = txn::marker(token);
        let slot = &mut self.rows[id];
        slot.latest()
            .expect("liveness checked above")
            .end
            .store(own, Ordering::Release);
        slot.push(Version::provisional(new_row.into_boxed_slice(), token));
        for (i, key) in to_add {
            self.indexes[i].add(key, id);
        }
        self.bump_version();
        Ok(())
    }

    /// Undo a provisional insert: pop the version and drop its postings.
    pub fn rollback_insert(&mut self, id: RowId, token: u64) {
        let v = self.rows[id]
            .pop()
            .expect("rollback insert: version exists");
        debug_assert_eq!(v.begin(), txn::marker(token));
        self.unindex_unless_shared(id, v.row());
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
        self.unindex_unless_shared(id, v.row());
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
    pub fn vacuum(&mut self, watermark: u64) -> usize {
        let mut pruned = 0;
        for id in 0..self.rows.len() {
            let dead = |v: &Version| {
                let e = v.end();
                e != txn::TS_INF && !txn::is_marker(e) && e <= watermark
            };
            if !self.rows[id].versions().iter().any(dead) {
                continue;
            }
            let (removed, kept): (Vec<Version>, Vec<Version>) =
                self.rows[id].take().into_iter().partition(dead);
            self.rows[id] = Slot::from_versions(kept);
            for v in &removed {
                self.unindex_unless_shared(id, v.row());
            }
            pruned += removed.len();
        }
        if pruned > 0 {
            self.bump_version();
        }
        pruned
    }

    /// Drop row `id`'s postings for `row`'s keys, unless another surviving
    /// version of the chain still carries the key.
    fn unindex_unless_shared(&mut self, id: RowId, row: &[Value]) {
        for i in 0..self.indexes.len() {
            let key = self.indexes[i].key_of(row);
            let shared = self.rows[id]
                .versions()
                .iter()
                .any(|v| self.indexes[i].key_matches(v.row(), &key.0));
            if !shared {
                self.indexes[i].remove_key(&key, id);
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
    /// or `JSON_VAL` extractions — functional indexes). Backfill covers
    /// every version of every chain (deduplicated per chain); unique
    /// enforcement applies to the committed-live version of each chain.
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
        if parts.iter().any(|p| p.column() >= self.schema.arity()) {
            return Err(Error::Schema(format!(
                "index '{name}' references a column out of range"
            )));
        }
        let latest = Snapshot::latest();
        let mut idx = Index::with_parts(name, parts, unique, kind);
        for (id, slot) in self.rows.iter().enumerate() {
            let mut seen: Vec<IndexKey> = Vec::new();
            for v in slot.versions().iter().rev() {
                let key = idx.key_of(v.row());
                if seen.contains(&key) {
                    continue;
                }
                seen.push(key.clone());
                if v.visible(latest) {
                    idx.insert(v.row(), id)?;
                } else {
                    idx.add(key, id);
                }
            }
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

    /// Find an index whose *first* key column is `column` and that can serve
    /// point lookups on a prefix. Used by the planner for single-column
    /// equality predicates.
    pub fn index_with_prefix(&self, column: usize) -> Option<&Index> {
        // Exact single-column index preferred; otherwise a composite whose
        // key starts with `column` can still narrow a B-tree range.
        self.indexes
            .iter()
            .find(|i| i.columns.len() == 1 && i.columns[0] == column)
            .or_else(|| {
                self.indexes
                    .iter()
                    .find(|i| i.columns.first() == Some(&column) && i.kind() == IndexKind::BTree)
            })
    }

    /// All indexes (for introspection / stats).
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Row ids matching `key` on the index named `index`. Postings may
    /// cover non-current versions; callers re-check visibility.
    pub fn index_lookup(&self, index: &str, key: &IndexKey) -> Result<Vec<RowId>> {
        let idx = self
            .indexes
            .iter()
            .find(|i| i.name == index)
            .ok_or_else(|| Error::NotFound(format!("index '{index}'")))?;
        Ok(idx.lookup(key).to_vec())
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
        let removed = t.delete(a).unwrap();
        assert_eq!(removed[0], Value::Int(1));
        assert_eq!(t.len(), 1);
        assert!(t.get(a).is_none());
        assert!(t.delete(a).is_err());
        // id 1 is reusable now via the unique index.
        t.insert(vec![Value::Int(1), Value::str("again")]).unwrap();
    }

    #[test]
    fn unique_violation_leaves_table_consistent() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        assert!(t.insert(vec![Value::Int(1), Value::Null]).is_err());
        assert_eq!(t.len(), 1);
        let key = IndexKey(vec![Value::Int(1)]);
        assert_eq!(t.index_lookup("t_pk", &key).unwrap().len(), 1);
    }

    #[test]
    fn update_moves_index_entries() {
        let mut t = table();
        let a = t.insert(vec![Value::Int(1), Value::str("x")]).unwrap();
        t.update(a, vec![Value::Int(9), Value::str("y")]).unwrap();
        assert!(t
            .index_lookup("t_pk", &IndexKey(vec![Value::Int(1)]))
            .unwrap()
            .is_empty());
        assert_eq!(
            t.index_lookup("t_pk", &IndexKey(vec![Value::Int(9)]))
                .unwrap(),
            [a]
        );
    }

    #[test]
    fn update_unique_conflict_restores_old_state() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        let b = t.insert(vec![Value::Int(2), Value::str("keep")]).unwrap();
        assert!(t.update(b, vec![Value::Int(1), Value::Null]).is_err());
        // b unchanged and still findable under its old key.
        assert_eq!(t.get(b).unwrap()[1], Value::str("keep"));
        assert_eq!(
            t.index_lookup("t_pk", &IndexKey(vec![Value::Int(2)]))
                .unwrap(),
            [b]
        );
    }

    #[test]
    fn backfilled_index() {
        let mut t = table();
        for i in 0..10 {
            t.insert(vec![Value::Int(i), Value::Int(i % 3)]).unwrap();
        }
        t.create_index("t_v", vec![1], false, IndexKind::BTree)
            .unwrap();
        let ids = t
            .index_lookup("t_v", &IndexKey(vec![Value::Int(0)]))
            .unwrap();
        assert_eq!(ids.len(), 4); // 0, 3, 6, 9
        assert!(t
            .create_index("t_v", vec![1], false, IndexKind::Hash)
            .is_err());
    }

    // ---------------- MVCC ----------------

    fn snap(ts: u64, token: u64) -> Snapshot {
        Snapshot { ts, token }
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
        assert_eq!(
            t.index_lookup("t_pk", &IndexKey(vec![Value::Int(1)]))
                .unwrap(),
            [a]
        );
        assert!(t
            .index_lookup("t_pk", &IndexKey(vec![Value::Int(7)]))
            .unwrap()
            .is_empty());
        assert!(t
            .index_lookup("t_pk", &IndexKey(vec![Value::Int(2)]))
            .unwrap()
            .is_empty());

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
        assert_eq!(t.slots()[id].versions().len(), 3);
        // Watermark 1: v0 (end=2) still visible to a snapshot at ts 1.
        assert_eq!(t.vacuum(1), 0);
        // Watermark 2: v0 dead everywhere, v1 (end=4) still needed.
        assert_eq!(t.vacuum(2), 1);
        assert_eq!(t.slots()[id].versions().len(), 2);
        assert!(t
            .index_lookup("t_pk", &IndexKey(vec![Value::Int(1)]))
            .unwrap()
            .is_empty());
        // Watermark 4: only the live version remains; its key survives.
        assert_eq!(t.vacuum(4), 1);
        assert_eq!(t.slots()[id].versions().len(), 1);
        assert_eq!(
            t.index_lookup("t_pk", &IndexKey(vec![Value::Int(3)]))
                .unwrap(),
            [id]
        );
        // A fully deleted chain vacuums to an empty tombstone.
        let d = t.insert(vec![Value::Int(9), Value::Null]).unwrap();
        t.mvcc_delete(d, 3, snap(4, 3)).unwrap();
        t.stamp_commit(d, 3, 5);
        assert_eq!(t.vacuum(5), 1);
        assert!(t.slots()[d].versions().is_empty());
        assert!(t
            .index_lookup("t_pk", &IndexKey(vec![Value::Int(9)]))
            .unwrap()
            .is_empty());
    }

    fn inline(t: &Table, id: RowId) -> bool {
        matches!(t.slots()[id].0, Chain::One(_))
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
        assert!(t.slots()[b].versions().is_empty());
        t.update(id, vec![Value::Int(3), Value::str("c")]).unwrap();
        assert!(inline(&t, id));
        t.delete(id).unwrap();
        assert!(t.slots()[id].versions().is_empty());
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
        assert_eq!(
            t.index_lookup("t_pk", &IndexKey(vec![Value::Int(1)]))
                .unwrap(),
            [id]
        );
        assert_eq!(
            t.index_lookup("t_pk", &IndexKey(vec![Value::Int(2)]))
                .unwrap(),
            [id]
        );
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
        assert_eq!(
            t.index_lookup("t_pk", &IndexKey(vec![Value::Int(1)]))
                .unwrap(),
            [id]
        );
        // Rolling back the chain leaves exactly the original posting.
        t.rollback_update(id, 1);
        t.rollback_update(id, 1);
        assert_eq!(
            t.index_lookup("t_pk", &IndexKey(vec![Value::Int(1)]))
                .unwrap(),
            [id]
        );
        assert!(t
            .index_lookup("t_pk", &IndexKey(vec![Value::Int(2)]))
            .unwrap()
            .is_empty());
        assert_eq!(t.get(id).unwrap()[1], Value::str("a"));
    }
}
