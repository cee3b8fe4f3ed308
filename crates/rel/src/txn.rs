//! Multi-version concurrency control: snapshot-isolation transactions.
//!
//! The paper's concurrency claim — LinkBench throughput 10–30× over the
//! graph-native stores — rests on the relational engine letting readers
//! proceed while writers commit. This module supplies that engine layer:
//!
//! * a **commit clock** (`u64` timestamps, 0 = "always committed"), owned
//!   by the database's [`TxnManager`] together with its allocator,
//! * per-transaction **snapshots** (`ts` = last commit visible, `token` =
//!   this transaction's provisional-write marker),
//! * the **visibility predicate** every read path evaluates against a row
//!   version's `begin`/`end` stamps,
//! * the **active-snapshot registry** whose minimum drives the vacuum
//!   watermark (versions dead to every present and future snapshot are
//!   reclaimable).
//!
//! ## Version stamps
//!
//! A row version (see [`crate::storage::Version`]) carries two atomic
//! timestamps. While a transaction's write is uncommitted the stamp holds a
//! *marker* — the transaction's token with the high bit set — and flips to
//! the real commit timestamp when the transaction commits (plain atomic
//! stores; no locks on the read side). `end == TS_INF` means "live".
//!
//! ## Commit protocol
//!
//! Commits serialize on a single mutex: reserve the next timestamp `ts`,
//! append the journal's records + `Commit{ts}` to the WAL, stamp every
//! provisional version to `ts`, and only then advance the applied clock.
//! Snapshots read the applied clock *first*, so a snapshot either predates
//! a commit entirely (its versions still carry markers or a larger `ts` —
//! invisible either way) or postdates it entirely (fully stamped). Readers
//! never block.

use crate::unpoison;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// High bit marking a provisional (uncommitted) stamp: `TXN_BIT | token`.
pub const TXN_BIT: u64 = 1 << 63;
/// `end` stamp of a live (undeleted) version.
pub const TS_INF: u64 = u64::MAX;
/// Largest possible commit timestamp: a snapshot at `TS_LATEST` sees every
/// committed version and no provisional one.
pub const TS_LATEST: u64 = TXN_BIT - 1;

/// The provisional stamp for a transaction token.
#[inline]
pub fn marker(token: u64) -> u64 {
    TXN_BIT | token
}

/// Whether a stamp is a provisional marker (not a commit ts, not `TS_INF`).
#[inline]
pub fn is_marker(ts: u64) -> bool {
    ts & TXN_BIT != 0 && ts != TS_INF
}

/// A transaction's view of the database: every version committed at or
/// before `ts`, plus this transaction's own provisional writes (`token`).
///
/// Tokens start at 1; `token == 0` denotes a read-only snapshot that owns
/// no provisional writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Last commit timestamp visible to this snapshot.
    pub ts: u64,
    /// This transaction's write token (0 = none).
    pub token: u64,
}

impl Snapshot {
    /// The all-committed view: sees every committed version, no provisional
    /// ones. The view of single-version (pre-MVCC style) storage paths —
    /// bulk load, WAL replay, checkpoint encode.
    pub fn latest() -> Snapshot {
        Snapshot {
            ts: TS_LATEST,
            token: 0,
        }
    }

    /// The MVCC visibility predicate over a version's stamps.
    #[inline]
    pub fn sees(&self, begin: u64, end: u64) -> bool {
        // Created: either our own provisional write, or committed at or
        // before our snapshot.
        let created = if is_marker(begin) {
            begin == marker(self.token)
        } else {
            begin <= self.ts
        };
        if !created {
            return false;
        }
        // Not yet deleted: live, provisionally deleted by *someone else*
        // (their delete is invisible to us), or deleted after our snapshot.
        if end == TS_INF {
            return true;
        }
        if is_marker(end) {
            return end != marker(self.token);
        }
        end > self.ts
    }
}

/// The per-database transaction state: commit-timestamp allocator,
/// applied-commit clock, token allocator, active-snapshot registry, and the
/// commit serialization point.
///
/// Allocation and the applied clock are separate: a commit reserves its
/// timestamp under `commit_mutex`, appends to the WAL, stamps its versions
/// and only then advances `applied`. Allocation holes — timestamps reserved
/// by commits that later failed — are harmless: replay and visibility only
/// care about the stamps actually written.
#[derive(Debug)]
pub struct TxnManager {
    /// Last allocated commit timestamp.
    allocated: AtomicU64,
    /// Last commit timestamp fully stamped. Advanced *after* a commit is
    /// stamped, so any snapshot taken at the new value sees all of it.
    /// Always ≤ `allocated`.
    applied: AtomicU64,
    /// Next write token (starts at 1; 0 is the read-only token).
    next_token: AtomicU64,
    /// Registered snapshot timestamps → refcount. The minimum key is the
    /// vacuum watermark.
    active: Mutex<BTreeMap<u64, usize>>,
    /// Serializes commits: ts reservation + WAL append + stamping + clock
    /// advance happen atomically with respect to other commits.
    pub(crate) commit_mutex: Mutex<()>,
}

impl Default for TxnManager {
    fn default() -> TxnManager {
        TxnManager::new()
    }
}

impl TxnManager {
    /// A fresh manager at clock 0.
    pub fn new() -> TxnManager {
        TxnManager {
            allocated: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            next_token: AtomicU64::new(1),
            active: Mutex::new(BTreeMap::new()),
            commit_mutex: Mutex::new(()),
        }
    }

    /// Current applied-commit clock (the last stamped commit).
    pub fn now(&self) -> u64 {
        self.applied.load(Ordering::Acquire)
    }

    /// Reserve the next commit timestamp — strictly increasing, never 0
    /// (caller holds `commit_mutex`).
    pub(crate) fn allocate_ts(&self) -> u64 {
        self.allocated.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Advance the applied clock to `ts` (commit path, last step).
    pub(crate) fn advance_clock(&self, ts: u64) {
        self.applied.fetch_max(ts, Ordering::AcqRel);
    }

    /// Ratchet the clock *and* the allocator up to at least `ts` (recovery:
    /// replayed commits must never collide with future allocations).
    pub(crate) fn restore_clock(&self, ts: u64) {
        self.applied.fetch_max(ts, Ordering::AcqRel);
        self.allocated.fetch_max(ts, Ordering::AcqRel);
    }

    /// Begin a writing transaction: fresh token, snapshot registered in the
    /// active set so vacuum cannot reclaim versions it can still see.
    pub fn begin(&self) -> Snapshot {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        self.register(token)
    }

    /// Begin a read-only snapshot (token 0, registered).
    pub fn read_snapshot(&self) -> Snapshot {
        self.register(0)
    }

    fn register(&self, token: u64) -> Snapshot {
        // Read the clock under the registry lock so the watermark can never
        // pass a timestamp that is about to be registered.
        let mut active = unpoison(self.active.lock());
        let ts = self.now();
        *active.entry(ts).or_insert(0) += 1;
        Snapshot { ts, token }
    }

    /// Release a snapshot previously returned by [`TxnManager::begin`] /
    /// [`TxnManager::read_snapshot`].
    pub fn release(&self, snap: Snapshot) {
        let mut active = unpoison(self.active.lock());
        if let Some(n) = active.get_mut(&snap.ts) {
            *n -= 1;
            if *n == 0 {
                active.remove(&snap.ts);
            }
        }
    }

    /// The vacuum watermark: the oldest active snapshot timestamp, or the
    /// clock when nothing is active. A version whose committed `end` is at
    /// or below the watermark is invisible to every present and future
    /// snapshot (`end > ts` fails for all of them) and can be reclaimed.
    pub fn watermark(&self) -> u64 {
        let active = unpoison(self.active.lock());
        active.keys().next().copied().unwrap_or_else(|| self.now())
    }

    /// Number of registered active snapshots (test/introspection hook).
    pub fn active_snapshots(&self) -> usize {
        unpoison(self.active.lock()).values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_and_stamp_classification() {
        assert!(is_marker(marker(1)));
        assert!(is_marker(marker(0)));
        assert!(!is_marker(TS_INF));
        assert!(!is_marker(0));
        assert!(!is_marker(TS_LATEST));
    }

    #[test]
    fn visibility_predicate() {
        let snap = Snapshot { ts: 5, token: 3 };
        // Committed at/before the snapshot, live.
        assert!(snap.sees(5, TS_INF));
        assert!(snap.sees(0, TS_INF));
        // Committed after the snapshot.
        assert!(!snap.sees(6, TS_INF));
        // Own provisional insert; someone else's provisional insert.
        assert!(snap.sees(marker(3), TS_INF));
        assert!(!snap.sees(marker(4), TS_INF));
        // Deleted after the snapshot (still visible), at it (gone).
        assert!(snap.sees(1, 6));
        assert!(!snap.sees(1, 5));
        // Own provisional delete hides the row; a foreign one does not.
        assert!(!snap.sees(1, marker(3)));
        assert!(snap.sees(1, marker(4)));
        // The all-committed view ignores provisional writes entirely.
        let latest = Snapshot::latest();
        assert!(latest.sees(12345, TS_INF));
        assert!(!latest.sees(marker(1), TS_INF));
        assert!(latest.sees(1, marker(7)));
    }

    #[test]
    fn watermark_tracks_oldest_active() {
        let mgr = TxnManager::new();
        assert_eq!(mgr.watermark(), 0);
        let a = mgr.begin();
        mgr.advance_clock(10);
        let b = mgr.read_snapshot();
        assert_eq!(a.ts, 0);
        assert_eq!(b.ts, 10);
        assert_eq!(mgr.watermark(), 0, "oldest active snapshot pins it");
        mgr.release(a);
        assert_eq!(mgr.watermark(), 10);
        mgr.release(b);
        assert_eq!(mgr.watermark(), 10, "idle watermark = clock");
        assert_eq!(mgr.active_snapshots(), 0);
    }

    #[test]
    fn tokens_are_unique_and_nonzero() {
        let mgr = TxnManager::new();
        let a = mgr.begin();
        let b = mgr.begin();
        assert_ne!(a.token, 0);
        assert_ne!(a.token, b.token);
    }
}
