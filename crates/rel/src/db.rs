//! The `Database` facade: catalog, statement execution, transactions and
//! WAL-backed recovery.
//!
//! Concurrency model: MVCC with snapshot isolation (see [`crate::txn`]).
//! Every statement — and every multi-statement transaction begun with
//! [`Database::begin`] — reads through a snapshot of the commit clock, so
//! readers take only brief shared table locks and never wait for a
//! transaction to commit: a reader waits only for one statement's apply to
//! a table whose write lock is held or queued. Writers install
//! *provisional* row versions under their transaction token, holding a
//! table's write lock only while applying one statement's mutations to
//! that table; write-write races fail fast with
//! [`Error::TxnConflict`] (first-updater-wins). Each write makes one
//! journal entry, its WAL record. Commits serialize on the transaction
//! manager: the journal's records are appended to the WAL with the commit
//! timestamp, the versions they name are stamped, and the clock advances
//! last. Rollback walks the journal in reverse. Recovery replays each
//! logged commit through the same MVCC writes and stamps. Old versions are
//! reclaimed by [`Database::vacuum`] below the oldest-active-snapshot
//! watermark.
//!
//! Two residual locking rules keep the rare multi-lock paths safe: a
//! write statement runs its subqueries and its `INSERT … SELECT` source
//! (which may read other tables) *before* taking the target's write lock, and
//! checkpoints exclude commits via `commit_lock`. No thread takes a lock it
//! already holds: `std`'s `RwLock` queues a new reader behind a waiting
//! writer, so a second shared acquisition can deadlock (DESIGN.md, *Lock
//! inventory*).

use crate::cache::ClockCache;
use crate::checkpoint::{self, CheckpointReport, RecoveryReport};
use crate::error::{Error, Result};
use crate::exec::{run_select, run_stmt, subquery_sets, target_rows, Env, Relation, Row};
use crate::expr::{Binds, Expr};
use crate::hasher::FxHashMap;
use crate::index::{IndexKind, KeyPart, RowId};
use crate::io::{StdFs, Vfs};
use crate::plan::FromPlan;
use crate::prepared::{self, DmlPlan, DmlSlot, InsertInto, Plans, Prepared, Target};
use crate::schema::{Column, ColumnType, TableSchema};
use crate::sql::ast::{self, Statement};
use crate::sql::parse_statement;
use crate::storage::Table;
use crate::txn::{Snapshot, TxnManager};
use crate::unpoison;
use crate::value::Value;
use crate::wal::{segment_path, Wal, WalRecord};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard};

/// An embedded relational database.
pub struct Database {
    tables: RwLock<FxHashMap<String, Arc<RwLock<Table>>>>,
    wal: Option<Mutex<Wal>>,
    /// Prepared-statement cache: SQL text → parsed statement and the plans
    /// of its SELECT cores (see [`crate::prepared`]). Bounded by
    /// [`STMT_CACHE_CAP`]; a plan goes when its statement does.
    stmt_cache: ClockCache<Arc<str>, Arc<Prepared>>,
    /// Plan epoch: moves whenever something planning reads, other than the
    /// statement, its binds and the join-order cardinalities, may have
    /// changed — the catalog (CREATE/DROP TABLE, CREATE INDEX, their
    /// rollback, every raw [`Database::write_table`] — bulk loads), the CSR
    /// switch, and any table's [`crate::plan::table_epoch`] (an engine write
    /// that runs `ANALYZE` or crosses the 2× drift or CSR size line; see
    /// `Database::table_mut`). Cached plans are keyed on it, so checking one
    /// reads no table.
    plan_epoch: std::sync::atomic::AtomicU64,
    /// Cached-core executions served by a current plan, and those that had
    /// to plan (first run, or a stale plan).
    plan_hits: std::sync::atomic::AtomicU64,
    plan_replans: std::sync::atomic::AtomicU64,
    /// Intra-query parallelism: 0 = auto (planner picks a DOP from table
    /// statistics), 1 = serial, n > 1 = pin every eligible operator to n.
    parallelism: std::sync::atomic::AtomicUsize,
    /// Commit vs checkpoint exclusion. Commits hold this shared across the
    /// WAL append + version stamping, so a checkpoint (exclusive) never
    /// snapshots table state whose WAL records would land in the
    /// post-snapshot segment (which replay would then double-apply).
    /// Autocommit DDL additionally holds it shared across catalog
    /// application, since catalog changes are not versioned.
    commit_lock: RwLock<()>,
    /// MVCC state: commit clock, token allocator, active snapshots.
    txns: TxnManager,
    /// Commits since the last automatic vacuum.
    commits_since_vacuum: std::sync::atomic::AtomicU64,
    /// CSR adjacency access path switch (on by default). Off = probes run
    /// index nested-loop row-at-a-time. The one ablation switch the engine
    /// keeps: it is read in one place (`plan::csr_eligible`) and neither
    /// arm dominates (`repro longpath`: 0.7–0.9× on short low-fanout paths,
    /// 5–28× on long ones), so a cost rule needs the off arm to be judged.
    csr: std::sync::atomic::AtomicBool,
    /// Lazily built CSR adjacency entries, keyed by (table, index, kept
    /// columns, folded unpivot). Entries are validated against the table's
    /// content version and commit clock on every lookup (see
    /// [`Database::csr_for`]) so a stale entry is never served.
    csr_cache: RwLock<FxHashMap<crate::csr::CsrKey, Arc<crate::csr::CsrEntry>>>,
    /// Total CSR builds performed (cache-miss observability for tests).
    csr_builds: std::sync::atomic::AtomicU64,
    /// What recovery found, when this database was opened from a log.
    recovery: Option<RecoveryReport>,
}

/// Statement-cache capacity.
pub const STMT_CACHE_CAP: usize = 4096;

/// Automatic vacuum cadence: reclaim dead row versions after this many
/// commits (checkpoints also vacuum, so long-lived databases converge
/// even with a quieter write load).
const VACUUM_EVERY_COMMITS: u64 = 4096;

/// Pinned DOP from `SQLGRAPH_TEST_DOP` (used by CI to force every
/// eligible operator parallel); 0 = auto when unset or unparsable.
fn env_test_dop() -> usize {
    use std::sync::OnceLock;
    static DOP: OnceLock<usize> = OnceLock::new();
    *DOP.get_or_init(|| {
        std::env::var("SQLGRAPH_TEST_DOP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    })
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.table_names())
            .field("wal", &self.wal.is_some())
            .finish()
    }
}

/// One journal entry per write, in the order the writes ran: what a commit
/// logs and stamps and what rollback undoes, walking the entries in
/// reverse. A row write is its WAL record alone — the version chains hold
/// the row images, so rollback pops the provisional version (or clears the
/// provisional delete marker) of the record's table and row id.
#[derive(Debug)]
enum Entry {
    Row(WalRecord),
    /// A DDL statement: its logged text and how rollback reverses it.
    Ddl(WalRecord, UndoDdl),
}

/// How rollback reverses a catalog change.
#[derive(Debug)]
enum UndoDdl {
    CreateTable {
        table: String,
    },
    CreateIndex {
        table: String,
        index: String,
    },
    DropTable {
        table: String,
        handle: Arc<RwLock<Table>>,
    },
}

impl Entry {
    fn record(&self) -> &WalRecord {
        match self {
            Entry::Row(record) | Entry::Ddl(record, _) => record,
        }
    }
}

/// The table and slab slot a row record wrote.
fn row_written(record: &WalRecord) -> Option<(&str, RowId)> {
    match record {
        WalRecord::Insert { table, row_id, .. }
        | WalRecord::Update { table, row_id, .. }
        | WalRecord::Delete { table, row_id } => Some((table, *row_id)),
        WalRecord::Ddl { .. } | WalRecord::Commit { .. } => None,
    }
}

/// The execution state of one open transaction: its MVCC snapshot (which
/// also carries the provisional-write token), held in the active-snapshot
/// set until it is released exactly once, and its journal.
/// Owned by a [`Txn`] handle or by one autocommit statement.
#[derive(Debug)]
struct TxnState {
    snap: Snapshot,
    journal: Vec<Entry>,
}

impl Database {
    /// A fresh in-memory database (no durability).
    pub fn new() -> Database {
        Database {
            tables: RwLock::new(FxHashMap::default()),
            wal: None,
            stmt_cache: ClockCache::new(STMT_CACHE_CAP),
            plan_epoch: std::sync::atomic::AtomicU64::new(0),
            plan_hits: std::sync::atomic::AtomicU64::new(0),
            plan_replans: std::sync::atomic::AtomicU64::new(0),
            parallelism: std::sync::atomic::AtomicUsize::new(env_test_dop()),
            commit_lock: RwLock::new(()),
            txns: TxnManager::new(),
            commits_since_vacuum: std::sync::atomic::AtomicU64::new(0),
            csr: std::sync::atomic::AtomicBool::new(true),
            csr_cache: RwLock::new(FxHashMap::default()),
            csr_builds: std::sync::atomic::AtomicU64::new(0),
            recovery: None,
        }
    }

    /// The MVCC transaction manager (clock, active snapshots, watermark).
    pub fn txns(&self) -> &TxnManager {
        &self.txns
    }

    /// Whether the CSR adjacency access path is enabled.
    pub fn csr_enabled(&self) -> bool {
        self.csr.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Toggle the CSR adjacency access path (on by default). When off, the
    /// planner falls back to row-at-a-time index nested-loop probes —
    /// byte-identical output, for A/B and differential testing. Drops every
    /// cached CSR entry; cached statements stay, and their plans — keyed on
    /// this switch — re-plan on their next execution.
    pub fn set_csr_enabled(&self, on: bool) {
        self.csr.store(on, std::sync::atomic::Ordering::Relaxed);
        self.plan_inputs_changed();
        unpoison(self.csr_cache.write()).clear();
    }

    /// Number of cached CSR adjacency entries (test hook).
    pub fn csr_cache_len(&self) -> usize {
        unpoison(self.csr_cache.read()).len()
    }

    /// Total CSR entries built since startup, cached or private (test hook:
    /// a cache hit leaves this unchanged, an invalidation forces a rebuild
    /// and increments it).
    pub fn csr_builds(&self) -> u64 {
        self.csr_builds.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Drop every cached CSR entry built over `table` (case-insensitive),
    /// unpivot entries included.
    /// Called on `ANALYZE` and `DROP TABLE`: both mark points where caches
    /// derived from the old table contents must not linger.
    pub fn invalidate_csr(&self, table: &str) {
        let lower = table.to_ascii_lowercase();
        unpoison(self.csr_cache.write()).retain(|k, _| k.table != lower);
    }

    /// Fetch or build the CSR entry for (`table`, `index`, `keep`,
    /// `unpivot`) as seen by `snap`, where `t` is `table`, read under its
    /// lock.
    ///
    /// Cache discipline (the MVCC contract):
    /// * Only read-only snapshots (`token == 0`) touch the shared cache.
    ///   A reader inside a transaction gets a **private** entry built
    ///   against its own snapshot, so it can never observe a CSR rebuilt
    ///   past that snapshot by a concurrent committer.
    /// * A cached entry is served only while the table's content version
    ///   still equals the entry's build version (any insert/delete/update,
    ///   commit stamp, rollback, vacuum prune, index DDL, or `ANALYZE`
    ///   bumps it — this is also what invalidates an entry when the row
    ///   count drifts past the stats-staleness threshold) **and** the
    ///   snapshot is at or past the table's newest commit timestamp.
    /// * A freshly built entry is published only under the same
    ///   conditions; otherwise it stays private to the calling query.
    pub(crate) fn csr_for(
        &self,
        t: &Table,
        table: &str,
        index: &str,
        keep: &[usize],
        unpivot: Option<&crate::csr::Unpivot>,
        snap: Snapshot,
    ) -> Result<Arc<crate::csr::CsrEntry>> {
        let key = crate::csr::CsrKey {
            table: table.to_string(),
            index: index.to_string(),
            keep: keep.to_vec(),
            unpivot: unpivot.map(|u| u.key.clone()),
        };
        // The caller holds the table's read lock, so the content version
        // cannot change while we validate, build, or publish.
        let version = t.content_version();
        let cacheable = snap.token == 0 && snap.ts >= t.last_commit_ts();
        if snap.token == 0 {
            let hit = unpoison(self.csr_cache.read()).get(&key).cloned();
            if let Some(entry) = hit {
                if entry.built_version == version && cacheable {
                    return Ok(entry);
                }
                // Stale: evict so the cache length reflects reality.
                let mut cache = unpoison(self.csr_cache.write());
                if cache.get(&key).is_some_and(|e| e.built_version != version) {
                    cache.remove(&key);
                }
            }
        }
        let entry = Arc::new(crate::csr::CsrEntry::build(t, index, keep, unpivot, snap)?);
        self.csr_builds
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if cacheable {
            unpoison(self.csr_cache.write()).insert(key, entry.clone());
        }
        Ok(entry)
    }

    /// Set intra-query parallelism: `0` = auto ([`Database::dop_for`]
    /// picks each operator's DOP from its input row count: serial below
    /// [`crate::parallel::AUTO_PARALLEL_MIN_ROWS`] rows, else
    /// [`crate::parallel::max_workers`]), `1` = force serial, `n > 1` =
    /// pin every eligible operator to a logical DOP of `n` regardless of
    /// input size (for differential testing). The logical DOP sets the
    /// morsel fan-out and the hash join's partition count; the threads a
    /// call runs on are still capped at `max_workers()`.
    pub fn set_parallelism(&self, n: usize) {
        self.parallelism
            .store(n, std::sync::atomic::Ordering::Relaxed);
    }

    /// Current parallelism setting (see [`Database::set_parallelism`]).
    pub fn parallelism(&self) -> usize {
        self.parallelism.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Degree of parallelism for an operator over `rows` input rows. In
    /// auto mode small inputs run serial (thread handoff would dominate);
    /// a pinned DOP applies to everything but trivial inputs so tests can
    /// drive the parallel operators with tiny corpora.
    pub fn dop_for(&self, rows: usize) -> usize {
        match self.parallelism() {
            1 => 1,
            0 if rows >= crate::parallel::AUTO_PARALLEL_MIN_ROWS => crate::parallel::max_workers(),
            0 => 1,
            n if rows >= 2 => n.min(64),
            _ => 1,
        }
    }

    /// Parse `sql`, consulting the prepared-statement cache first. DDL,
    /// EXPLAIN and ANALYZE are never cached (rare, and DDL must observe
    /// catalog changes).
    fn parse_cached(&self, sql: &str) -> Result<Arc<Prepared>> {
        if let Some(prepared) = self.stmt_cache.get(sql) {
            return Ok(prepared);
        }
        let prepared = Arc::new(Prepared::new(parse_statement(sql)?));
        let cacheable = matches!(
            &**prepared.statement(),
            Statement::Select(_)
                | Statement::Insert { .. }
                | Statement::Update { .. }
                | Statement::Delete { .. }
        );
        if cacheable {
            self.stmt_cache.insert(sql.into(), prepared.clone());
        }
        Ok(prepared)
    }

    /// Validate `sql` and warm the shared prepared-statement cache (the
    /// wire server's `Prepare` path). Parse errors surface here rather
    /// than at execute time; later executions of the same text — from any
    /// session — hit the cache.
    pub fn prepare(&self, sql: &str) -> Result<()> {
        self.parse_cached(sql).map(|_| ())
    }

    /// Number of cached prepared statements (test hook).
    pub fn stmt_cache_len(&self) -> usize {
        self.stmt_cache.len()
    }

    /// Plan-cache counters: `(hits, replans)`. Every execution of a SELECT
    /// core of a prepared statement ([`Database::execute_prepared`], the
    /// statement cache) counts once: a hit when its cached plan was
    /// current, a re-plan when it had none yet or a stale one.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        (
            self.plan_hits.load(std::sync::atomic::Ordering::Relaxed),
            self.plan_replans.load(std::sync::atomic::Ordering::Relaxed),
        )
    }

    pub(crate) fn count_plan(&self, hit: bool) {
        let counter = match hit {
            true => &self.plan_hits,
            false => &self.plan_replans,
        };
        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// The plan epoch (see the field docs). Planning reads it before it
    /// reads anything else, so a change racing a plan leaves the plan keyed
    /// on the older epoch.
    pub(crate) fn plan_epoch(&self) -> u64 {
        self.plan_epoch.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Move the plan epoch — once the change it marks is visible, or while
    /// the lock a planner would need to see it is still held. The release
    /// half of this `AcqRel` pairs with [`Database::plan_epoch`]'s acquire:
    /// a planner that reads the new epoch sees the change (e.g. the CSR
    /// switch, stored before it).
    fn plan_inputs_changed(&self) {
        self.plan_epoch
            .fetch_add(1, std::sync::atomic::Ordering::AcqRel);
    }

    /// Open a database backed by the log rooted at `wal_path`: the latest
    /// checkpoint snapshot (if any) is loaded, the WAL segments it anchors
    /// are replayed commit-by-commit, torn/corrupt/commit-less tails are
    /// truncated away, and new commits append to the active segment.
    pub fn open(wal_path: impl AsRef<Path>) -> Result<Database> {
        Database::open_with_vfs(wal_path, Arc::new(StdFs))
    }

    /// [`Database::open`] over an explicit file-system layer — the entry
    /// point for deterministic crash testing with [`crate::io::SimFs`].
    pub fn open_with_vfs(wal_path: impl AsRef<Path>, vfs: Arc<dyn Vfs>) -> Result<Database> {
        let base = wal_path.as_ref().to_path_buf();
        let mut report = RecoveryReport::default();
        let mut db = Database::new();

        // 1. Snapshot, if a checkpoint was ever taken. A stray temp file
        //    from an interrupted checkpoint is ignored (and cleaned up).
        let mut start_gen = 0;
        if let Some(snap) = checkpoint::load_snapshot(vfs.as_ref(), &base)? {
            report.snapshot_gen = Some(snap.gen);
            report.snapshot_tables = snap.tables.len();
            start_gen = snap.gen;
            db.txns.restore_clock(snap.clock);
            let mut tables = unpoison(db.tables.write());
            for t in snap.tables {
                tables.insert(t.schema.name.clone(), Arc::new(RwLock::new(t)));
            }
        }
        let tmp = checkpoint::snapshot_tmp_path(&base);
        if vfs.exists(&tmp) {
            let _ = vfs.remove(&tmp);
        }
        // Segments older than the snapshot are fully covered by it; retire
        // leftovers from a checkpoint that crashed before deleting them.
        for gen in 0..start_gen {
            let stale = segment_path(&base, gen);
            if vfs.exists(&stale) {
                let _ = vfs.remove(&stale);
            }
        }

        // 2. Tail replay: segments are created in order, so walk forward
        //    from the snapshot generation until one is missing.
        let mut active_gen = start_gen;
        let mut gen = start_gen;
        loop {
            let path = segment_path(&base, gen);
            if !vfs.exists(&path) {
                break;
            }
            let scan = Wal::scan_segment(vfs.as_ref(), &path)?;
            report.segments_scanned += 1;
            report.commits_replayed += scan.commits.len();
            report.records_replayed += scan.commits.iter().map(|(_, r)| r.len()).sum::<usize>();
            report.dangling_records += scan.dangling_records;
            report.bytes_truncated += scan.file_len - scan.valid_len;
            db.replay_commits(scan.commits)?;
            // Truncate past the last commit marker *before* appending:
            // anything left there (torn tail, corrupt record, commit-less
            // batch) would make every later commit unreadable on the next
            // replay, silently losing acknowledged transactions.
            if scan.file_len > scan.valid_len {
                vfs.truncate(&path, scan.valid_len)
                    .map_err(|e| Error::Wal(format!("truncate torn tail: {e}")))?;
            }
            active_gen = gen;
            gen += 1;
        }
        // Replay leaves the versions its updates and deletes ended; no
        // snapshot can see them, so the store opens without them.
        db.vacuum();

        db.wal = Some(Mutex::new(Wal::open_segment(vfs, &base, active_gen)?));
        db.recovery = Some(report);
        Ok(db)
    }

    /// What recovery found when this database was opened from a log;
    /// `None` for in-memory databases.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Turn on fsync-per-commit durability (off by default for benchmarks).
    pub fn set_sync_on_commit(&self, sync: bool) {
        if let Some(wal) = &self.wal {
            unpoison(wal.lock()).sync_on_commit = sync;
        }
    }

    /// Checkpoint: atomically install a full-state snapshot and rotate the
    /// WAL to a fresh segment, bounding the next recovery to the snapshot
    /// plus the post-checkpoint tail. Old segments are retired afterwards
    /// (best-effort; leftovers are cleaned up on the next open).
    ///
    /// Crash-safe at every step: the snapshot only becomes visible through
    /// the final rename, and commits are excluded for the duration, so the
    /// snapshot/segment boundary is exact.
    pub fn checkpoint(&self) -> Result<CheckpointReport> {
        // Reclaim dead versions first (outside the commit lock — vacuum
        // takes table write locks of its own): the snapshot encodes only
        // latest-committed versions anyway, and a trimmed slab is cheaper
        // to serialize.
        self.vacuum();
        let _commit = unpoison(self.commit_lock.write());
        let wal_slot = self
            .wal
            .as_ref()
            .ok_or_else(|| Error::Invalid("checkpoint: in-memory database has no WAL".into()))?;
        let mut wal = unpoison(wal_slot.lock());
        let vfs = wal.vfs();
        let base = wal.base().to_path_buf();
        let old_gen = wal.gen();
        let new_gen = old_gen + 1;

        // Open the fresh segment first: if this fails nothing has changed,
        // and a stray empty segment file is harmless to recovery (it scans
        // as zero commits).
        let new_file = vfs
            .append(&segment_path(&base, new_gen))
            .map_err(|e| Error::Wal(format!("checkpoint: open segment {new_gen}: {e}")))?;

        // Serialize a consistent image: the exclusive commit lock keeps
        // every writer out, and read locks, taken in name order, cover
        // concurrent readers.
        let names = self.table_names();
        let handles: Vec<Arc<RwLock<Table>>> = names
            .iter()
            .map(|n| self.table_handle(n))
            .collect::<Result<_>>()?;
        let guards: Vec<RwLockReadGuard<'_, Table>> =
            handles.iter().map(|h| unpoison(h.read())).collect();
        let refs: Vec<&Table> = guards.iter().map(|g| &**g).collect();
        let bytes = checkpoint::encode_snapshot(new_gen, self.txns.now(), &refs);
        let written = checkpoint::install_snapshot(vfs.as_ref(), &base, &bytes)?;

        // The snapshot is durable and anchors generation `new_gen`; switch
        // the writer (infallible) and retire covered segments.
        wal.install_segment(new_gen, new_file);
        let mut retired = 0;
        for gen in (0..new_gen).rev() {
            let old = segment_path(&base, gen);
            if !vfs.exists(&old) {
                break;
            }
            if vfs.remove(&old).is_ok() {
                retired += 1;
            }
        }
        Ok(CheckpointReport {
            gen: new_gen,
            bytes: written,
            tables: names.len(),
            retired_segments: retired,
        })
    }

    /// Apply recovered commits the way a live commit applies them: each
    /// under a transaction token through the MVCC writes, stamped with its
    /// logged timestamp, with the live vacuum cadence. Each operation
    /// targets the physical row id recorded at commit time; ids are
    /// remapped when replay assigns a different slab slot than the original
    /// run did (the original slab may contain tombstones from rolled-back
    /// transactions, which the WAL — correctly — knows nothing about). The
    /// commit clock ends at the highest replayed timestamp.
    fn replay_commits(&mut self, commits: Vec<(u64, Vec<WalRecord>)>) -> Result<()> {
        let mut id_map: FxHashMap<(String, RowId), RowId> = FxHashMap::default();
        for (ts, mut commit) in commits {
            let snap = self.txns.begin();
            for record in &mut commit {
                match record {
                    WalRecord::Ddl { sql } => {
                        // An autocommit DDL can be logged by a checkpoint's
                        // covering snapshot *and* sit in the replayed tail
                        // when the checkpoint raced a multi-statement
                        // transaction; re-creating is then a benign no-op.
                        match self.execute(sql) {
                            Ok(_) => {}
                            Err(Error::Schema(msg)) if msg.contains("already exists") => {}
                            Err(e) => return Err(e),
                        }
                    }
                    WalRecord::Insert { table, row_id, row } => {
                        let row = std::mem::take(row);
                        let id = self.table_mut(table, |t| t.mvcc_insert(row, snap.token))?;
                        id_map.insert((table.clone(), *row_id), id);
                        *row_id = id;
                    }
                    WalRecord::Update { table, row_id, new } => {
                        let logged = *row_id;
                        *row_id = id_map
                            .get(&(table.clone(), logged))
                            .copied()
                            .unwrap_or(logged);
                        let (id, new) = (*row_id, std::mem::take(new));
                        self.table_mut(table, |t| t.mvcc_update(id, new, snap.token, snap))
                            .map_err(|e| {
                                Error::Wal(format!("replay update {table}[{logged}]: {e}"))
                            })?;
                    }
                    WalRecord::Delete { table, row_id } => {
                        let logged = *row_id;
                        *row_id = id_map.remove(&(table.clone(), logged)).unwrap_or(logged);
                        let id = *row_id;
                        self.table_mut(table, |t| t.mvcc_delete(id, snap.token, snap))
                            .map_err(|e| {
                                Error::Wal(format!("replay delete {table}[{logged}]: {e}"))
                            })?;
                    }
                    // Commit markers are consumed by the segment scanner;
                    // tolerate one appearing in a group defensively.
                    WalRecord::Commit { .. } => {}
                }
            }
            self.stamp(commit.iter(), snap.token, ts);
            self.txns.restore_clock(ts);
            self.txns.release(snap);
            self.maybe_vacuum();
        }
        Ok(())
    }

    // ---- catalog ----

    /// Handle to a table's lock. The catalog lock is released before the
    /// caller takes the table's, so no thread holds both.
    fn table_handle(&self, name: &str) -> Result<Arc<RwLock<Table>>> {
        let tables = unpoison(self.tables.read());
        // Plans name tables in lower case already: skip the allocation.
        let found = match name.bytes().any(|b| b.is_ascii_uppercase()) {
            true => tables.get(&name.to_ascii_lowercase()),
            false => tables.get(name),
        };
        found
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("table '{name}'")))
    }

    /// Run `f` on a table under its read lock.
    pub fn read_table<R>(&self, name: &str, f: impl FnOnce(&Table) -> Result<R>) -> Result<R> {
        let handle = self.table_handle(name)?;
        let table = unpoison(handle.read());
        f(&table)
    }

    /// Run `f` on a table under its write lock, for writing it directly
    /// (bulk loads): `f` can change anything the planner reads, so this
    /// moves the plan epoch and every cached plan re-plans.
    pub fn write_table<R>(&self, name: &str, f: impl FnOnce(&mut Table) -> Result<R>) -> Result<R> {
        let handle = self.table_handle(name)?;
        let mut table = unpoison(handle.write());
        // Planning reads the epoch before it takes this table's lock, which
        // it cannot get until `f` returns.
        self.plan_inputs_changed();
        f(&mut table)
    }

    /// [`Database::write_table`] for the engine's own writers (DML, replay,
    /// rollback, vacuum, ANALYZE, CREATE INDEX): the plan epoch moves only
    /// if `f` moved the table's [`crate::plan::table_epoch`] (stats
    /// installed, the live count across the 2× drift or CSR size line) —
    /// and before the lock is released, so no planner reads the new table
    /// under the old epoch.
    fn table_mut<R>(&self, name: &str, f: impl FnOnce(&mut Table) -> Result<R>) -> Result<R> {
        let handle = self.table_handle(name)?;
        let mut table = unpoison(handle.write());
        let epoch = crate::plan::table_epoch(&table);
        let result = f(&mut table);
        if crate::plan::table_epoch(&table) != epoch {
            self.plan_inputs_changed();
        }
        result
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = unpoison(self.tables.read()).keys().cloned().collect();
        names.sort();
        names
    }

    /// Live row count of a table.
    pub fn table_len(&self, name: &str) -> Result<usize> {
        self.read_table(name, |t| Ok(t.len()))
    }

    /// Rough in-memory footprint of all row data in bytes — the analogue of
    /// the paper's on-disk size comparison (§5.1).
    pub fn estimated_bytes(&self) -> usize {
        let mut total = 0;
        for name in self.table_names() {
            let bytes = self.read_table(&name, |t| {
                Ok(t.iter()
                    .map(|(_, row)| row.iter().map(value_bytes).sum::<usize>())
                    .sum::<usize>())
            });
            total += bytes.unwrap_or(0);
        }
        total
    }

    /// The heap the tables hold, by table and structure: slab, row
    /// payloads, each index, and the shared string / JSON payloads counted
    /// once per distinct `Arc` (see [`crate::footprint`]).
    pub fn footprint(&self) -> crate::Footprint {
        let mut payloads = crate::footprint::Payloads::default();
        let tables = self
            .table_names()
            .into_iter()
            .filter_map(|name| {
                self.read_table(&name, |t| Ok(t.footprint(&mut payloads)))
                    .ok()
            })
            .collect();
        crate::Footprint { tables }
    }

    // ---- statement execution ----

    /// Parse and execute one statement in auto-commit mode.
    pub fn execute(&self, sql: &str) -> Result<Relation> {
        self.execute_with_params(sql, &[])
    }

    /// Parse and execute one statement with positional `?` parameters.
    /// Statements are cached by SQL text, with their plans.
    pub fn execute_with_params(&self, sql: &str, params: &[Value]) -> Result<Relation> {
        let prepared = self.parse_cached(sql)?;
        self.run_autocommit(prepared.statement(), prepared.plans(), params, Some(sql))
    }

    /// Execute a prepared statement in autocommit mode with `params` bound
    /// to its `?`s: each SELECT core runs its cached plan when that is
    /// current and is planned (and cached) otherwise.
    pub fn execute_prepared(&self, prepared: &Prepared, params: &[Value]) -> Result<Relation> {
        self.run_autocommit(prepared.statement(), prepared.plans(), params, None)
    }

    /// Execute a pre-parsed statement in autocommit mode, planning it
    /// afresh: reads run lock-free against a fresh snapshot; writes run as
    /// a one-statement MVCC transaction (begin, apply provisionally,
    /// commit).
    pub fn execute_statement(
        &self,
        stmt: &Statement,
        params: &[Value],
        sql_text: Option<&str>,
    ) -> Result<Relation> {
        self.run_autocommit(stmt, None, params, sql_text)
    }

    fn run_autocommit(
        &self,
        stmt: &Statement,
        plans: Option<&Plans>,
        params: &[Value],
        sql_text: Option<&str>,
    ) -> Result<Relation> {
        if matches!(
            stmt,
            Statement::Select(_) | Statement::Explain(_) | Statement::ExplainAnalyze(_)
        ) {
            // Read-only fast path: an active read snapshot (token 0),
            // nothing to journal, nothing to commit.
            let mut state = TxnState {
                snap: self.txns.read_snapshot(),
                journal: Vec::new(),
            };
            let result = self.execute_in(stmt, plans, params, sql_text, &mut state);
            self.release_state(state);
            return result;
        }
        // Catalog changes are not versioned, so an autocommit DDL holds
        // the commit lock shared across application + commit — a
        // checkpoint can then never snapshot a catalog state whose DDL
        // commit lands in the post-snapshot segment (or gets rolled back).
        // The commit runs under this same guard: taking the lock shared a
        // second time would queue behind a waiting checkpoint.
        let ddl_guard = matches!(
            stmt,
            Statement::CreateTable { .. }
                | Statement::CreateIndex { .. }
                | Statement::DropTable { .. }
        )
        .then(|| unpoison(self.commit_lock.read()));
        let mut state = self.begin_state();
        match self.execute_in(stmt, plans, params, sql_text, &mut state) {
            Ok(rel) => self.commit_under(state, ddl_guard).map(|()| rel),
            Err(e) => {
                self.rollback_state(state);
                Err(e)
            }
        }
    }

    /// Begin a multi-statement snapshot-isolation transaction. Dropping
    /// the returned handle without [`Txn::commit`] rolls it back.
    pub fn begin(&self) -> Txn<'_> {
        Txn {
            db: self,
            stmts: 0,
            state: Some(self.begin_state()),
        }
    }

    /// Run `f` inside a transaction: every statement executed through the
    /// provided [`Txn`] shares one snapshot and journal; on `Ok` the
    /// journal commits to the WAL, on `Err` all changes are rolled back.
    pub fn transaction<T>(&self, f: impl FnOnce(&mut Txn<'_>) -> Result<T>) -> Result<T> {
        let mut txn = self.begin();
        match f(&mut txn) {
            Ok(v) => txn.commit().map(|()| v),
            Err(e) => {
                txn.rollback();
                Err(e)
            }
        }
    }

    fn begin_state(&self) -> TxnState {
        TxnState {
            snap: self.txns.begin(),
            journal: Vec::new(),
        }
    }

    /// Commit protocol: serialize on the transaction manager, reserve a
    /// fresh timestamp from its allocator, append the journal's records +
    /// `Commit{ts}` to the WAL, stamp every provisional version with `ts`
    /// (shared table guards — stamps are atomics), and advance the applied
    /// clock *last* so any snapshot at the new clock value observes the
    /// commit in full. `held` is the commit lock's shared guard when the
    /// caller already holds one (autocommit DDL); it is taken here only
    /// when there is none.
    fn commit_under(&self, state: TxnState, held: Option<RwLockReadGuard<'_, ()>>) -> Result<()> {
        if state.journal.is_empty() {
            self.release_state(state);
            return Ok(());
        }
        {
            let _commit = held.unwrap_or_else(|| unpoison(self.commit_lock.read()));
            let serial = unpoison(self.txns.commit_mutex.lock());
            let ts = self.txns.allocate_ts();
            if let Some(wal) = &self.wal {
                let records = state.journal.iter().map(Entry::record);
                if let Err(e) = unpoison(wal.lock()).append_commit(records, ts) {
                    // A failed commit must not leave its mutations visible:
                    // the caller got an error, so the in-memory state rolls
                    // back — still under the commit lock, so no checkpoint
                    // cuts between the failed append and the rollback. (The
                    // WAL may still hold the transaction — an errored
                    // commit is indeterminate until the next open.)
                    drop(serial);
                    self.rollback_state(state);
                    return Err(e);
                }
            }
            let rows = state.journal.iter().map(Entry::record);
            self.stamp(rows, state.snap.token, ts);
            self.txns.advance_clock(ts);
        }
        self.release_state(state);
        self.maybe_vacuum();
        Ok(())
    }

    /// Stamp the versions transaction `token` wrote through `records` with
    /// commit timestamp `ts`: a live commit's and a replayed one's.
    fn stamp<'r>(&self, records: impl Iterator<Item = &'r WalRecord>, token: u64, ts: u64) {
        for (table, row_id) in records.filter_map(row_written) {
            // The table can be gone if this transaction also dropped it;
            // its versions are unreachable then.
            let _ = self.read_table(table, |t| {
                t.stamp_commit(row_id, token, ts);
                Ok(())
            });
        }
    }

    fn rollback_state(&self, state: TxnState) {
        let TxnState { snap, journal } = state;
        for entry in journal.into_iter().rev() {
            // Rollback must not fail; violations here indicate a bug, and
            // panicking beats silently corrupting state.
            match entry {
                Entry::Row(record) => {
                    let (table, row_id) = row_written(&record).expect("a row record");
                    self.table_mut(table, |t| {
                        match record {
                            WalRecord::Insert { .. } => t.rollback_insert(row_id, snap.token),
                            WalRecord::Update { .. } => t.rollback_update(row_id, snap.token),
                            _ => t.rollback_delete(row_id, snap.token),
                        }
                        Ok(())
                    })
                    .expect("table exists during rollback");
                }
                Entry::Ddl(_, UndoDdl::CreateTable { table }) => {
                    unpoison(self.tables.write()).remove(&table);
                    self.plan_inputs_changed();
                }
                Entry::Ddl(_, UndoDdl::CreateIndex { table, index }) => {
                    let dropped = self
                        .table_mut(&table, |t| Ok(t.drop_index(&index)))
                        .expect("table exists during rollback");
                    assert!(dropped, "undo create index");
                    self.plan_inputs_changed();
                }
                Entry::Ddl(_, UndoDdl::DropTable { table, handle }) => {
                    unpoison(self.tables.write()).insert(table, handle);
                    self.plan_inputs_changed();
                }
            }
        }
        self.txns.release(snap);
    }

    fn release_state(&self, state: TxnState) {
        self.txns.release(state.snap);
    }

    /// Reclaim row versions no active (or future) snapshot can see — those
    /// with a committed `end` at or below the oldest-active-snapshot
    /// watermark. Returns the number of versions pruned. Runs
    /// automatically every [`VACUUM_EVERY_COMMITS`] commits and at the
    /// start of every checkpoint.
    pub fn vacuum(&self) -> usize {
        let watermark = self.txns.watermark();
        let mut pruned = 0;
        for name in self.table_names() {
            pruned += self
                .table_mut(&name, |t| Ok(t.vacuum(watermark)))
                .unwrap_or(0);
        }
        pruned
    }

    fn maybe_vacuum(&self) {
        let n = self
            .commits_since_vacuum
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            + 1;
        if n.is_multiple_of(VACUUM_EVERY_COMMITS) {
            self.vacuum();
        }
    }

    /// Execute `stmt` inside `state`. With `plans` (those of a
    /// [`Prepared`]), a SELECT's cores run their cached plans and a DML
    /// statement its cached compiled target.
    fn execute_in(
        &self,
        stmt: &Statement,
        plans: Option<&Plans>,
        params: &[Value],
        sql_text: Option<&str>,
        state: &mut TxnState,
    ) -> Result<Relation> {
        let snap = state.snap;
        match stmt {
            Statement::Select(select) => {
                let env = Env::with_snap(self, params, snap);
                match plans.and_then(Plans::select) {
                    Some(plans) => run_stmt(&env, select, Some(plans)),
                    // A bare statement: inlined here, as a prepared one was.
                    None => run_stmt(&env, &prepared::inlined(select), None),
                }
            }
            Statement::Explain(select) | Statement::ExplainAnalyze(select) => {
                // Plans afresh: EXPLAIN shows what planning does now.
                let trace = std::cell::RefCell::new(Vec::new());
                let mut env = Env::with_snap(self, params, snap);
                env.trace = Some(&trace);
                env.analyze = matches!(stmt, Statement::ExplainAnalyze(_));
                let rel = run_select(&env, &prepared::inlined(select))?;
                let mut rows: Vec<Row> = trace
                    .into_inner()
                    .into_iter()
                    .map(|line| vec![Value::str(line)])
                    .collect();
                rows.push(vec![Value::str(format!("result: {} rows", rel.rows.len()))]);
                Ok(Relation {
                    columns: vec!["plan".into()],
                    rows,
                })
            }
            Statement::Insert { .. } | Statement::Update { .. } | Statement::Delete { .. } => {
                self.exec_dml(stmt, plans.and_then(Plans::dml), params, state)
            }
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                let created = self.create_table_internal(name, columns, *if_not_exists)?;
                if created {
                    let sql = sql_text
                        .map(str::to_owned)
                        .unwrap_or_else(|| render_create_table(name, columns));
                    state.journal.push(Entry::Ddl(
                        WalRecord::Ddl { sql },
                        UndoDdl::CreateTable {
                            table: name.to_ascii_lowercase(),
                        },
                    ));
                }
                Ok(Relation::count(created as i64))
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
                unique,
                kind,
                if_not_exists,
            } => {
                let created = self.create_index_internal(
                    name,
                    table,
                    columns,
                    *unique,
                    *kind,
                    *if_not_exists,
                )?;
                if created {
                    let sql = sql_text.map(str::to_owned).unwrap_or_else(|| {
                        render_create_index(name, table, columns, *unique, *kind)
                    });
                    state.journal.push(Entry::Ddl(
                        WalRecord::Ddl { sql },
                        UndoDdl::CreateIndex {
                            table: table.to_ascii_lowercase(),
                            index: name.to_ascii_lowercase(),
                        },
                    ));
                }
                Ok(Relation::count(created as i64))
            }
            Statement::DropTable { name, if_exists } => {
                let lower = name.to_ascii_lowercase();
                let removed = unpoison(self.tables.write()).remove(&lower);
                if removed.is_none() && !*if_exists {
                    return Err(Error::NotFound(format!("table '{name}'")));
                }
                let dropped = removed.is_some();
                if let Some(handle) = removed {
                    // Cached plans re-plan on the new plan epoch, so the
                    // flush is not needed for correctness; it keeps
                    // statements over a dropped table from occupying the
                    // cache. CSR entries were built from the table's rows
                    // and must go.
                    self.plan_inputs_changed();
                    self.stmt_cache.clear();
                    self.invalidate_csr(&lower);
                    state.journal.push(Entry::Ddl(
                        WalRecord::Ddl {
                            sql: format!("DROP TABLE IF EXISTS {lower}"),
                        },
                        UndoDdl::DropTable {
                            table: lower,
                            handle,
                        },
                    ));
                }
                Ok(Relation::count(dropped as i64))
            }
            Statement::Analyze { table } => {
                // Full-scan statistics collection; not journaled or WAL'd —
                // stats are derived state, rebuilt by re-running ANALYZE.
                let names = match table {
                    Some(t) => vec![t.to_ascii_lowercase()],
                    None => self.table_names(),
                };
                let mut rows = Vec::new();
                for name in names {
                    let count = self.table_mut(&name, |t| {
                        let stats = crate::stats::TableStats::analyze(t);
                        let count = stats.row_count as i64;
                        t.set_stats(stats);
                        Ok(count)
                    })?;
                    rows.push(vec![Value::str(name.clone()), Value::Int(count)]);
                    // Fresh statistics mark a reload/bulk-change boundary:
                    // drop any CSR adjacency entries built from the old
                    // table contents (set_stats also bumped the content
                    // version, so a lingering entry could never be served —
                    // this keeps the cache from pinning dead memory).
                    self.invalidate_csr(&name);
                }
                Ok(Relation {
                    columns: vec!["table".into(), "rows".into()],
                    rows,
                })
            }
        }
    }

    // ---- DML ----

    /// Run an INSERT, UPDATE or DELETE: its compiled target (from `slot`
    /// while current, else compiled afresh), then its IN subqueries and an
    /// `INSERT … SELECT`'s source — all before the target's write lock, so
    /// two writers cannot deadlock on inverted table orders and a statement
    /// reading its own target cannot wedge itself — then the write.
    fn exec_dml(
        &self,
        stmt: &Statement,
        slot: Option<&DmlSlot>,
        params: &[Value],
        state: &mut TxnState,
    ) -> Result<Relation> {
        let env = Env::with_snap(self, params, state.snap);
        let compile = || DmlPlan::compile(&env, stmt);
        let plan = match slot {
            Some(slot) => slot.plan(&env, compile)?,
            None => Arc::new(compile()?),
        };
        let sets = match slot {
            Some(slot) if slot.subqueries.is_empty() => FxHashMap::default(),
            _ => {
                let queries = prepared::dml_subqueries(stmt).into_iter();
                let plans = (0..).map(|n| slot.map(|s| &s.subqueries[n]));
                subquery_sets(&env, queries.zip(plans))?
            }
        };
        let binds = Binds { params, sets };
        match &plan.target {
            Target::Insert { values, into } => {
                let Statement::Insert {
                    table,
                    columns,
                    source,
                } = stmt
                else {
                    unreachable!("an INSERT plan comes from an INSERT");
                };
                let rows = match source {
                    ast::InsertSource::Select(query) => {
                        run_stmt(&env, query, slot.and_then(|s| s.source.as_ref()))?.rows
                    }
                    ast::InsertSource::Values(_) => values
                        .iter()
                        .map(|row| row.iter().map(|e| e.bound(&binds)?.eval(&[])).collect())
                        .collect::<Result<_>>()?,
                };
                self.exec_insert(table, columns.as_deref(), into, rows, state)
            }
            Target::Update {
                table,
                from,
                assignments,
            } => {
                let assignments: Vec<(usize, std::borrow::Cow<'_, Expr>)> = assignments
                    .iter()
                    .map(|(col, e)| Ok((*col, e.bound(&binds)?)))
                    .collect::<Result<_>>()?;
                self.exec_update(table, from, &binds, &assignments, state)
            }
            Target::Delete { table, from } => self.exec_delete(table, from, &binds, state),
        }
    }

    /// Insert `rows` into `table`, through `columns` when the statement
    /// lists them; `into` caches their resolution against the table.
    fn exec_insert(
        &self,
        table: &str,
        columns: Option<&[String]>,
        into: &OnceLock<InsertInto>,
        rows: Vec<Row>,
        state: &mut TxnState,
    ) -> Result<Relation> {
        let token = state.snap.token;
        let inserted = self.table_mut(table, |t| {
            let into = match into.get() {
                Some(into) => into,
                None => {
                    let resolved = InsertInto::resolve(&t.schema, columns)?;
                    into.get_or_init(|| resolved)
                }
            };
            let mut inserted = 0i64;
            for src in rows {
                let full = match &into.mapping {
                    None => src,
                    Some(map) => {
                        if src.len() != map.len() {
                            return Err(Error::Schema(format!(
                                "INSERT provides {} values for {} columns",
                                src.len(),
                                map.len()
                            )));
                        }
                        let mut full = vec![Value::Null; into.arity];
                        for (v, &target) in src.into_iter().zip(map) {
                            full[target] = v;
                        }
                        full
                    }
                };
                let row_image = full.clone();
                let row_id = t.mvcc_insert(full, token)?;
                state.journal.push(Entry::Row(WalRecord::Insert {
                    table: into.table.clone(),
                    row_id,
                    row: row_image,
                }));
                inserted += 1;
            }
            Ok(inserted)
        })?;
        Ok(Relation::count(inserted))
    }

    fn exec_update(
        &self,
        table: &str,
        from: &FromPlan,
        binds: &Binds<'_>,
        assignments: &[(usize, std::borrow::Cow<'_, Expr>)],
        state: &mut TxnState,
    ) -> Result<Relation> {
        let snap = state.snap;
        let updated = self.table_mut(table, |t| {
            let targets = target_rows(t, from, binds, snap)?;
            let mut updated = 0i64;
            for row_id in targets {
                let mut buf = Vec::new();
                let old = t
                    .get_visible(row_id, snap)
                    .expect("target visible under write lock")
                    .as_full(&mut buf);
                let mut new = old.to_vec();
                for (idx, e) in assignments {
                    new[*idx] = e.eval(old)?;
                }
                t.mvcc_update(row_id, new.clone(), snap.token, snap)?;
                state.journal.push(Entry::Row(WalRecord::Update {
                    table: table.to_string(),
                    row_id,
                    new,
                }));
                updated += 1;
            }
            Ok(updated)
        })?;
        Ok(Relation::count(updated))
    }

    fn exec_delete(
        &self,
        table: &str,
        from: &FromPlan,
        binds: &Binds<'_>,
        state: &mut TxnState,
    ) -> Result<Relation> {
        let snap = state.snap;
        let deleted = self.table_mut(table, |t| {
            let targets = target_rows(t, from, binds, snap)?;
            let mut deleted = 0i64;
            for row_id in targets {
                t.mvcc_delete(row_id, snap.token, snap)?;
                state.journal.push(Entry::Row(WalRecord::Delete {
                    table: table.to_string(),
                    row_id,
                }));
                deleted += 1;
            }
            Ok(deleted)
        })?;
        Ok(Relation::count(deleted))
    }

    /// Programmatic table creation.
    pub fn create_table(&self, schema: TableSchema, primary_key: Option<&str>) -> Result<()> {
        let columns: Vec<(String, ColumnType, bool)> = schema
            .columns
            .iter()
            .map(|c| {
                (
                    c.name.clone(),
                    c.ty,
                    primary_key.is_some_and(|pk| pk.eq_ignore_ascii_case(&c.name)),
                )
            })
            .collect();
        self.create_table_internal(&schema.name, &columns, false)?;
        Ok(())
    }

    fn create_table_internal(
        &self,
        name: &str,
        columns: &[(String, ColumnType, bool)],
        if_not_exists: bool,
    ) -> Result<bool> {
        let lower = name.to_ascii_lowercase();
        let mut tables = unpoison(self.tables.write());
        if tables.contains_key(&lower) {
            if if_not_exists {
                return Ok(false);
            }
            return Err(Error::Schema(format!("table '{name}' already exists")));
        }
        let schema = TableSchema::new(
            lower.clone(),
            columns
                .iter()
                .map(|(n, ty, _)| Column {
                    name: n.to_ascii_lowercase(),
                    ty: *ty,
                })
                .collect(),
        )?;
        let mut table = Table::new(schema);
        for (i, (col, _, pk)) in columns.iter().enumerate() {
            if *pk {
                table.create_index(format!("{lower}_pk_{col}"), vec![i], true, IndexKind::Hash)?;
            }
        }
        tables.insert(lower, Arc::new(RwLock::new(table)));
        self.plan_inputs_changed();
        Ok(true)
    }

    fn create_index_internal(
        &self,
        name: &str,
        table: &str,
        columns: &[ast::IndexColumn],
        unique: bool,
        kind: IndexKind,
        if_not_exists: bool,
    ) -> Result<bool> {
        self.table_mut(table, |t| {
            let parts: Vec<KeyPart> = columns
                .iter()
                .map(|c| {
                    let pos = t
                        .schema
                        .column_index(&c.column)
                        .ok_or_else(|| Error::NotFound(format!("column '{}'", c.column)))?;
                    Ok(match &c.json_key {
                        Some(member) => KeyPart::JsonKey(pos, member.clone()),
                        None => KeyPart::Column(pos),
                    })
                })
                .collect::<Result<_>>()?;
            let lname = name.to_ascii_lowercase();
            if t.indexes().iter().any(|i| i.name == lname) {
                if if_not_exists {
                    return Ok(false);
                }
                return Err(Error::Schema(format!("index '{name}' already exists")));
            }
            t.create_index_with_parts(lname, parts, unique, kind)?;
            self.plan_inputs_changed();
            Ok(true)
        })
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

/// A transaction handle: statements executed through it share one MVCC
/// snapshot and one journal. Dropping the handle without
/// [`Txn::commit`] rolls the transaction back.
pub struct Txn<'a> {
    db: &'a Database,
    /// `Some` while the transaction is open; taken by commit/rollback.
    state: Option<TxnState>,
    /// Statements executed through this handle — benchmarks use the count
    /// to charge one client round trip per statement.
    stmts: u64,
}

impl Txn<'_> {
    /// How many statements have executed through this handle.
    pub fn statements_executed(&self) -> u64 {
        self.stmts
    }

    /// Execute a statement inside this transaction.
    pub fn execute(&mut self, sql: &str) -> Result<Relation> {
        self.execute_with_params(sql, &[])
    }

    /// Execute a parameterized statement inside this transaction.
    pub fn execute_with_params(&mut self, sql: &str, params: &[Value]) -> Result<Relation> {
        let prepared = self.db.parse_cached(sql)?;
        self.run(prepared.statement(), prepared.plans(), params, Some(sql))
    }

    /// Execute a prepared statement inside this transaction (see
    /// [`Database::execute_prepared`]).
    pub fn execute_prepared(&mut self, prepared: &Prepared, params: &[Value]) -> Result<Relation> {
        self.run(prepared.statement(), prepared.plans(), params, None)
    }

    fn run(
        &mut self,
        stmt: &Statement,
        plans: Option<&Plans>,
        params: &[Value],
        sql_text: Option<&str>,
    ) -> Result<Relation> {
        let state = self.state.as_mut().expect("transaction is open");
        self.stmts += 1;
        self.db.execute_in(stmt, plans, params, sql_text, state)
    }

    /// Commit: append the journal to the WAL with a fresh commit timestamp
    /// and make every provisional version visible. Consumes the handle.
    pub fn commit(mut self) -> Result<()> {
        let state = self.state.take().expect("transaction is open");
        self.db.commit_under(state, None)
    }

    /// Roll back every change made through this handle. Consumes it.
    /// (Dropping the handle without committing does the same.)
    pub fn rollback(mut self) {
        if let Some(state) = self.state.take() {
            self.db.rollback_state(state);
        }
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            self.db.rollback_state(state);
        }
    }
}

fn render_create_table(name: &str, columns: &[(String, ColumnType, bool)]) -> String {
    let cols: Vec<String> = columns
        .iter()
        .map(|(n, ty, pk)| {
            format!(
                "{} {}{}",
                n,
                match ty {
                    ColumnType::Integer => "INTEGER",
                    ColumnType::Double => "DOUBLE",
                    ColumnType::Text => "TEXT",
                    ColumnType::Json => "JSON",
                    ColumnType::Boolean => "BOOLEAN",
                    ColumnType::Any => "ANY",
                },
                if *pk { " PRIMARY KEY" } else { "" }
            )
        })
        .collect();
    format!("CREATE TABLE {} ({})", name, cols.join(", "))
}

fn render_create_index(
    name: &str,
    table: &str,
    columns: &[ast::IndexColumn],
    unique: bool,
    kind: IndexKind,
) -> String {
    let keys: Vec<String> = columns
        .iter()
        .map(|c| match &c.json_key {
            Some(m) => format!("JSON_VAL({}, '{}')", c.column, m.replace('\'', "''")),
            None => c.column.clone(),
        })
        .collect();
    format!(
        "CREATE {}INDEX {} ON {} ({}) USING {}",
        if unique { "UNIQUE " } else { "" },
        name,
        table,
        keys.join(", "),
        match kind {
            IndexKind::Hash => "HASH",
            IndexKind::BTree => "BTREE",
        }
    )
}

fn value_bytes(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Double(_) => 8,
        Value::Str(s) => s.len() + 8,
        Value::Json(j) => j.to_string().len() + 8,
        Value::Array(a) => a.iter().map(value_bytes).sum::<usize>() + 8,
    }
}
