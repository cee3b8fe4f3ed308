//! Crash-matrix recovery tests: every durability claim in `rel::wal` /
//! `rel::checkpoint` is checked by actually crashing at every mutating
//! file-system operation and reopening.
//!
//! The harness runs a workload once on a clean [`SimFs`] to enumerate its
//! operation sequence, then re-runs it from scratch once per (operation,
//! fault) pair. After each induced crash it "reboots" the file system
//! (rolling every file back to what a real disk would hold), reopens the
//! database, and asserts the recovered state equals a *commit-prefix
//! consistent* reference:
//!
//! * no acked transaction is lost (fsync-on-commit was on and honest),
//! * no unacked transaction appears unless its bytes fully reached disk
//!   (the in-flight commit may legitimately survive a crash),
//! * no partial transaction is ever visible, and
//! * the reopened database accepts and persists new commits (the recovered
//!   log tail is appendable).
//!
//! `SQLGRAPH_CRASH_SEED=<u64>` pins the randomized-workload test to a
//! single seed for verbatim local reproduction of a CI failure.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlgraph_rel::wal::{segment_path, Wal, WalRecord};
use sqlgraph_rel::{Database, Fault, FaultKind, SimFs, Value, Vfs};

/// One step of a workload: a transaction's statements, or a checkpoint.
#[derive(Debug, Clone)]
enum Step {
    Txn(Vec<String>),
    Checkpoint,
}

fn txn(stmts: &[&str]) -> Step {
    Step::Txn(stmts.iter().map(|s| s.to_string()).collect())
}

/// Logical database state: table name → slab rows *with their physical
/// row ids*. Comparing ids as well as values asserts that recovery
/// preserves physical row identity and scan order, not just content.
type State = BTreeMap<String, Vec<(usize, Vec<Value>)>>;

fn dump(db: &Database) -> State {
    db.table_names()
        .into_iter()
        .map(|name| {
            let rows = db
                .read_table(&name, |t| {
                    Ok(t.iter().map(|(id, r)| (id, r.to_vec())).collect())
                })
                .unwrap();
            (name, rows)
        })
        .collect()
}

fn apply_txn(db: &Database, stmts: &[String]) -> sqlgraph_rel::Result<()> {
    db.transaction(|tx| {
        for s in stmts {
            tx.execute(s)?;
        }
        Ok(())
    })
}

/// Reference state after applying exactly the transactions whose indices
/// appear in `include`, in workload order, on an in-memory database (no
/// WAL, no faults). A transaction that errored at *commit* still executed
/// cleanly, so replaying its SQL here reproduces its WAL records' effect.
fn state_for(steps: &[Step], include: &[usize]) -> State {
    let db = Database::new();
    let mut ti = 0;
    for step in steps {
        if let Step::Txn(stmts) = step {
            if include.contains(&ti) {
                apply_txn(&db, stmts).expect("reference workload must be valid");
            }
            ti += 1;
        }
    }
    dump(&db)
}

/// What a faulted run acked and where it first failed.
struct RunResult {
    /// Indices of transactions that returned `Ok`. After the first failure
    /// only *effect-free* transactions (empty redo: nothing touches the
    /// WAL) can still ack — everything effectful fails on the poisoned log
    /// or the downed file system.
    acked: Vec<usize>,
    /// First transaction that returned `Err` — the only one whose bytes
    /// can be (partially or fully) on disk without an ack.
    first_err: Option<usize>,
}

impl RunResult {
    /// The states recovery may legally land on. Always: exactly the acked
    /// set. With `in_flight`: also acked-before-the-failure plus the failed
    /// transaction (its commit batch may have fully reached disk). With
    /// `lost_last`: also the acked set minus its last member (a dropped
    /// fsync means the disk lied about that one).
    fn candidates(&self, steps: &[Step], in_flight: bool, lost_last: bool) -> Vec<State> {
        let mut cands = vec![state_for(steps, &self.acked)];
        if in_flight {
            if let Some(i) = self.first_err {
                let mut inc: Vec<usize> = self.acked.iter().copied().filter(|&a| a < i).collect();
                inc.push(i);
                cands.push(state_for(steps, &inc));
            }
        }
        if lost_last {
            if let Some((_, rest)) = self.acked.split_last() {
                cands.push(state_for(steps, rest));
            }
        }
        cands
    }
}

/// Run the workload against a WAL-backed database on `fs`. Every step is
/// attempted even after a failure (a crashed fs just errors).
fn run_steps(fs: &SimFs, base: &Path, steps: &[Step]) -> RunResult {
    let mut res = RunResult {
        acked: Vec::new(),
        first_err: None,
    };
    let db = match Database::open_with_vfs(base, Arc::new(fs.clone())) {
        Ok(db) => db,
        Err(_) => return res,
    };
    db.set_sync_on_commit(true);
    let mut ti = 0;
    for step in steps {
        match step {
            Step::Txn(stmts) => {
                match apply_txn(&db, stmts) {
                    Ok(()) => res.acked.push(ti),
                    Err(_) => {
                        res.first_err.get_or_insert(ti);
                    }
                }
                ti += 1;
            }
            // Checkpoint failure is not a transaction failure: commits
            // continue on the old segment.
            Step::Checkpoint => {
                let _ = db.checkpoint();
            }
        }
    }
    res
}

/// Reopen after a (simulated) reboot and assert the recovered state equals
/// one of `candidates`. Then commit a probe row and reopen again, proving
/// the recovered log accepts and persists appends.
fn check_recovery(fs: &SimFs, base: &Path, candidates: &[State], context: &str) {
    let trace = fs.trace();
    fs.recover();
    let db = Database::open_with_vfs(base, Arc::new(fs.clone())).unwrap_or_else(|e| {
        panic!(
            "recovery must not fail ({context}): {e}\ntrace:\n{}",
            trace.join("\n")
        )
    });
    let got = dump(&db);
    let matched = candidates
        .iter()
        .find(|c| **c == got)
        .unwrap_or_else(|| {
            panic!(
                "recovered state is not commit-consistent ({context})\n\
                 got: {got:?}\ncandidates: {candidates:?}\ntrace:\n{}",
                trace.join("\n")
            )
        })
        .clone();
    // Stray checkpoint temp files must not survive recovery.
    let tmp = PathBuf::from(format!("{}.ckpt.tmp", base.display()));
    assert!(
        !fs.exists(&tmp),
        "stray snapshot temp file after recovery ({context})"
    );

    // The recovered database must keep working: a fresh commit must
    // survive another clean reopen, and the pre-probe tables must be
    // byte-identical afterwards (the truncated tail was really truncated).
    db.set_sync_on_commit(true);
    db.execute("CREATE TABLE probe (x INTEGER)").unwrap();
    db.execute("INSERT INTO probe VALUES (42)").unwrap();
    drop(db);
    let db = Database::open_with_vfs(base, Arc::new(fs.clone())).unwrap();
    let mut expected = matched;
    expected.insert("probe".into(), vec![(0, vec![Value::Int(42)])]);
    assert_eq!(
        dump(&db),
        expected,
        "probe commit lost or pre-probe state changed after reopen ({context})"
    );
}

/// Number of transactions in a workload.
fn txn_count(steps: &[Step]) -> usize {
    steps.iter().filter(|s| matches!(s, Step::Txn(_))).count()
}

/// Fault-free discovery run: returns the op count and sanity-checks that
/// the workload commits everything.
fn discover_ops(base: &Path, steps: &[Step]) -> (u64, Vec<String>) {
    let fs = SimFs::new();
    let res = run_steps(&fs, base, steps);
    assert_eq!(
        res.acked.len(),
        txn_count(steps),
        "clean run must ack every transaction"
    );
    assert!(res.first_err.is_none());
    (fs.op_count(), fs.trace())
}

/// Crash at every operation with every torn-tail size in `keep_tails`.
fn crash_matrix(steps: &[Step], keep_tails: &[usize]) {
    let base = PathBuf::from("db.wal");
    let (total_ops, _) = discover_ops(&base, steps);
    assert!(total_ops > 0);
    for at_op in 0..total_ops {
        for &keep_tail in keep_tails {
            let fs = SimFs::new();
            fs.schedule_fault(Fault {
                at_op,
                kind: FaultKind::Crash { keep_tail },
            });
            let res = run_steps(&fs, &base, steps);
            assert!(fs.crashed(), "crash fault at op {at_op} never fired");
            // No acked txn may be lost; the in-flight txn may survive only
            // if its bytes fully reached disk, which requires a surviving
            // torn tail.
            let candidates = res.candidates(steps, keep_tail > 0, false);
            check_recovery(
                &fs,
                &base,
                &candidates,
                &format!("crash at op {at_op}, keep_tail {keep_tail}"),
            );
        }
    }
}

/// Fail (transiently) every operation, then reopen twice: once after a
/// simulated power loss (unsynced bytes gone — the errored commit must
/// vanish) and once more cleanly (the errored commit's bytes may have
/// reached the file intact: an errored commit is *indeterminate*, and
/// either outcome must be a consistent prefix).
fn fail_op_matrix(steps: &[Step]) {
    let base = PathBuf::from("db.wal");
    let (total_ops, _) = discover_ops(&base, steps);
    for at_op in 0..total_ops {
        // Scenario A: power loss right after the run. The errored commit's
        // bytes were never synced, so only the acked set may survive.
        let fs = SimFs::new();
        fs.schedule_fault(Fault {
            at_op,
            kind: FaultKind::FailOp,
        });
        let res = run_steps(&fs, &base, steps);
        let candidates = res.candidates(steps, false, false);
        check_recovery(
            &fs,
            &base,
            &candidates,
            &format!("fail-op at op {at_op} + power loss"),
        );

        // Scenario B: clean process restart, page cache intact — the
        // errored commit may have reached the file whole (indeterminate).
        let fs = SimFs::new();
        fs.schedule_fault(Fault {
            at_op,
            kind: FaultKind::FailOp,
        });
        let res = run_steps(&fs, &base, steps);
        // No recover(): reopen sees everything written, synced or not.
        let db = Database::open_with_vfs(&base, Arc::new(fs.clone())).unwrap();
        let got = dump(&db);
        let candidates = res.candidates(steps, true, false);
        assert!(
            candidates.contains(&got),
            "clean reopen after fail-op at {at_op}: state is not commit-consistent\n\
             got: {got:?}\ncandidates: {candidates:?}"
        );
    }
}

/// Drop each honest WAL fsync, then crash at every later operation. The
/// falsely-acked transaction may be lost (the disk lied), but recovery
/// must still land on a consistent commit prefix and never resurrect
/// anything beyond what was attempted.
fn drop_sync_matrix(steps: &[Step]) {
    let base = PathBuf::from("db.wal");
    let (total_ops, trace) = discover_ops(&base, steps);
    let sync_ops: Vec<u64> = trace
        .iter()
        .enumerate()
        // Only WAL-segment syncs: dropping the checkpoint temp file's sync
        // means the *snapshot* is corrupt after a crash, which is
        // unrecoverable by design (old segments are already retired).
        .filter(|(_, line)| line.contains(" sync ") && !line.contains(".ckpt"))
        .map(|(i, _)| i as u64)
        .collect();
    assert!(!sync_ops.is_empty());
    for &sync_op in &sync_ops {
        for at_op in (sync_op + 1)..total_ops {
            let fs = SimFs::new();
            fs.schedule_fault(Fault {
                at_op: sync_op,
                kind: FaultKind::DropSync,
            });
            fs.schedule_fault(Fault {
                at_op,
                kind: FaultKind::Crash { keep_tail: 0 },
            });
            let res = run_steps(&fs, &base, steps);
            assert!(fs.crashed());
            // The falsely-synced (last acked) txn may be lost; the torn
            // tail keeps nothing, so the in-flight txn cannot appear.
            let candidates = res.candidates(steps, false, true);
            check_recovery(
                &fs,
                &base,
                &candidates,
                &format!("dropped sync at op {sync_op}, crash at op {at_op}"),
            );
        }
    }
}

/// The scripted 3-transaction workload from the acceptance criteria:
/// DDL + inserts, an update + insert, a delete + update + insert — all
/// index-maintained, with duplicate row images in play.
fn scripted_workload() -> Vec<Step> {
    vec![
        txn(&[
            "CREATE TABLE acct (id INTEGER, owner TEXT, bal INTEGER)",
            "CREATE INDEX acct_id ON acct (id)",
            "INSERT INTO acct VALUES (1, 'ada', 100), (2, 'bob', 50), (3, 'cy', 50)",
        ]),
        txn(&[
            "UPDATE acct SET bal = 70 WHERE id = 1",
            "INSERT INTO acct VALUES (4, 'dee', 50)",
        ]),
        txn(&[
            "DELETE FROM acct WHERE id = 2",
            "UPDATE acct SET bal = 0 WHERE id = 3",
            "INSERT INTO acct VALUES (5, 'eve', 50)",
        ]),
    ]
}

/// Same workload with a checkpoint between T2 and T3, so the matrix also
/// crashes inside every checkpoint step (temp-file create, write, sync,
/// rename, old-segment retirement).
fn scripted_workload_with_checkpoint() -> Vec<Step> {
    let mut steps = scripted_workload();
    steps.insert(2, Step::Checkpoint);
    steps
}

#[test]
fn crash_matrix_scripted() {
    crash_matrix(&scripted_workload(), &[0, 1, 13, usize::MAX]);
}

#[test]
fn crash_matrix_scripted_with_checkpoint() {
    crash_matrix(
        &scripted_workload_with_checkpoint(),
        &[0, 1, 13, usize::MAX],
    );
}

#[test]
fn fail_op_matrix_scripted() {
    fail_op_matrix(&scripted_workload());
    fail_op_matrix(&scripted_workload_with_checkpoint());
}

#[test]
fn drop_sync_matrix_scripted() {
    drop_sync_matrix(&scripted_workload());
    drop_sync_matrix(&scripted_workload_with_checkpoint());
}

/// One transaction writing rows several times over: it inserts a row and
/// updates it twice (moving its indexed key once), updates a second row it
/// inserted, and deletes a third. Recovery replays every write of one row
/// inside one commit, and the versions the commit ended must be gone.
fn rewrite_workload() -> Vec<Step> {
    vec![
        txn(&[
            "CREATE TABLE acct (id INTEGER, owner TEXT, bal INTEGER)",
            "CREATE INDEX acct_id ON acct (id)",
            "INSERT INTO acct VALUES (1, 'ada', 100)",
        ]),
        txn(&[
            "INSERT INTO acct VALUES (2, 'bob', 50)",
            "UPDATE acct SET bal = 60 WHERE id = 2",
            "UPDATE acct SET id = 20, bal = 70 WHERE id = 2",
            "INSERT INTO acct VALUES (3, 'cy', 10), (4, 'dee', 5)",
            "UPDATE acct SET bal = 11 WHERE id = 3",
            "DELETE FROM acct WHERE id = 4",
        ]),
        txn(&[
            "UPDATE acct SET bal = 0 WHERE id = 20",
            "INSERT INTO acct VALUES (5, 'eve', 1)",
        ]),
    ]
}

#[test]
fn crash_matrix_one_transaction_rewriting_its_rows() {
    crash_matrix(&rewrite_workload(), &[0, 1, 13, usize::MAX]);
    fail_op_matrix(&rewrite_workload());
    drop_sync_matrix(&rewrite_workload());
}

// ------------------------------------------------------- randomized runs --

/// A random workload over one indexed table: inserts (with deliberate
/// duplicate row images), key updates, deletes, and occasional
/// checkpoints.
fn random_steps(seed: u64, txns: usize) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut steps = vec![txn(&[
        "CREATE TABLE kv (k INTEGER, v TEXT)",
        "CREATE INDEX kv_k ON kv (k)",
        // Duplicate images from the start: replay must track physical rows.
        "INSERT INTO kv VALUES (0, 'dup'), (0, 'dup')",
    ])];
    for t in 0..txns {
        if rng.gen_range(0..4usize) == 0 {
            steps.push(Step::Checkpoint);
        }
        let mut stmts = Vec::new();
        for _ in 0..rng.gen_range(1..4usize) {
            let k = rng.gen_range(0..4i64);
            match rng.gen_range(0..3usize) {
                0 => stmts.push(format!("INSERT INTO kv VALUES ({k}, 'dup')")),
                1 => stmts.push(format!("UPDATE kv SET v = 'u{t}' WHERE k = {k}")),
                _ => stmts.push(format!("DELETE FROM kv WHERE k = {k}")),
            }
        }
        steps.push(Step::Txn(stmts));
    }
    steps
}

fn crash_seeds() -> Vec<u64> {
    match std::env::var("SQLGRAPH_CRASH_SEED") {
        Ok(s) => vec![s.trim().parse().expect("SQLGRAPH_CRASH_SEED must be a u64")],
        Err(_) => (0..4).map(|i| 0xC0FFEE ^ (i * 7919)).collect(),
    }
}

#[test]
fn crash_matrix_randomized() {
    for seed in crash_seeds() {
        eprintln!("crash_matrix_randomized: SQLGRAPH_CRASH_SEED={seed} reruns this workload");
        crash_matrix(&random_steps(seed, 5), &[0, usize::MAX]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property form of the matrix: arbitrary workload seeds, crash at
    /// every fault point, torn tail drops the whole unsynced write.
    #[test]
    fn proptest_random_workloads_recover(seed in any::<u64>()) {
        crash_matrix(&random_steps(seed, 3), &[0]);
    }
}

// ------------------------------------------------- targeted regressions --

/// Torn-tail append regression: garbage after the last commit must be
/// truncated on open, so commits appended *after* recovery are readable on
/// the next open. (Before the fix, new commits were appended after the
/// garbage and lost.)
#[test]
fn appending_after_torn_tail_preserves_new_commits() {
    let fs = SimFs::new();
    let base = PathBuf::from("db.wal");
    {
        let db = Database::open_with_vfs(&base, Arc::new(fs.clone())).unwrap();
        db.set_sync_on_commit(true);
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
    }
    // Simulate a torn tail: half a record of garbage past the last commit.
    let mut bytes = fs.contents(&base).unwrap();
    bytes.extend_from_slice(&[0xAB; 7]);
    fs.install(&base, bytes.clone());

    {
        let db = Database::open_with_vfs(&base, Arc::new(fs.clone())).unwrap();
        let report = db.recovery_report().unwrap();
        assert_eq!(report.bytes_truncated, 7);
        db.set_sync_on_commit(true);
        db.execute("INSERT INTO t VALUES (2)").unwrap();
    }
    // The file must have been physically truncated before the append.
    assert_eq!(
        &fs.contents(&base).unwrap()[..bytes.len() - 7],
        &bytes[..bytes.len() - 7]
    );

    let db = Database::open_with_vfs(&base, Arc::new(fs.clone())).unwrap();
    let rel = db.execute("SELECT a FROM t ORDER BY a").unwrap();
    assert_eq!(rel.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
}

/// Replay must target physical rows, not row images: with two identical
/// rows in the log, a delete/update of one specific row id must hit that
/// slot and no other.
#[test]
fn replay_resolves_duplicate_row_images_by_physical_id() {
    let fs = SimFs::new();
    let base = PathBuf::from("db.wal");
    let dup = vec![Value::Int(1), Value::str("dup")];
    {
        let mut wal = Wal::open_segment(Arc::new(fs.clone()), &base, 0).unwrap();
        wal.append_commit(
            &[WalRecord::Ddl {
                sql: "CREATE TABLE t (a INTEGER, b TEXT)".into(),
            }],
            1,
        )
        .unwrap();
        wal.append_commit(
            &[
                WalRecord::Insert {
                    table: "t".into(),
                    row_id: 0,
                    row: dup.clone(),
                },
                WalRecord::Insert {
                    table: "t".into(),
                    row_id: 1,
                    row: dup.clone(),
                },
                WalRecord::Insert {
                    table: "t".into(),
                    row_id: 2,
                    row: vec![Value::Int(2), Value::str("other")],
                },
            ],
            2,
        )
        .unwrap();
        // Delete the SECOND duplicate; an image-based replay would remove
        // whichever it finds first.
        wal.append_commit(
            &[WalRecord::Delete {
                table: "t".into(),
                row_id: 1,
            }],
            3,
        )
        .unwrap();
        // Update the FIRST duplicate by id.
        wal.append_commit(
            &[WalRecord::Update {
                table: "t".into(),
                row_id: 0,
                new: vec![Value::Int(1), Value::str("first-updated")],
            }],
            4,
        )
        .unwrap();
    }
    let db = Database::open_with_vfs(&base, Arc::new(fs.clone())).unwrap();
    let rows: Vec<(usize, Vec<Value>)> = db
        .read_table("t", |t| {
            Ok(t.iter().map(|(id, r)| (id, r.to_vec())).collect())
        })
        .unwrap();
    assert_eq!(
        rows,
        vec![
            (0, vec![Value::Int(1), Value::str("first-updated")]),
            (2, vec![Value::Int(2), Value::str("other")]),
        ]
    );
}

/// Duplicate rows created through SQL survive a crash with their physical
/// identity and scan order intact.
#[test]
fn duplicate_rows_survive_crash_in_order() {
    let fs = SimFs::new();
    let base = PathBuf::from("db.wal");
    {
        let db = Database::open_with_vfs(&base, Arc::new(fs.clone())).unwrap();
        db.set_sync_on_commit(true);
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'dup'), (1, 'dup'), (1, 'dup')")
            .unwrap();
        // Crash the very next operation: nothing after this survives.
        fs.schedule_fault(Fault {
            at_op: fs.op_count(),
            kind: FaultKind::Crash { keep_tail: 0 },
        });
        assert!(db.execute("INSERT INTO t VALUES (9, 'lost')").is_err());
    }
    fs.recover();
    let db = Database::open_with_vfs(&base, Arc::new(fs.clone())).unwrap();
    db.read_table("t", |t| {
        let ids: Vec<usize> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(t.iter().all(|(_, r)| r[1] == Value::str("dup")));
        Ok(())
    })
    .unwrap();
}

/// Bit-flip every byte of a multi-commit log. Recovery must never panic,
/// never surface any row from at or past the corrupted commit, and must
/// report the truncation exactly.
#[test]
fn bit_flip_sweep_truncates_at_corruption() {
    let fs = SimFs::new();
    let base = PathBuf::from("db.wal");
    let steps = scripted_workload();
    // `states[j]` = reference state after the first `j` transactions.
    let states: Vec<State> = (0..=txn_count(&steps))
        .map(|j| state_for(&steps, &(0..j).collect::<Vec<_>>()))
        .collect();
    let res = run_steps(&fs, &base, &steps);
    assert_eq!(res.acked.len(), 3);
    let pristine = fs.contents(&base).unwrap();
    // Byte offset of the end of each commit (DDL and DML share commits per
    // transaction, so boundaries == reference states).
    let boundaries = commit_boundaries(&base, &steps);
    assert_eq!(boundaries.len(), states.len());
    assert_eq!(*boundaries.last().unwrap(), pristine.len());

    for i in 0..pristine.len() {
        for mask in [0x01u8, 0x80] {
            let mut corrupt = pristine.clone();
            corrupt[i] ^= mask;
            let fs2 = SimFs::new();
            fs2.install(&base, corrupt);
            let db = Database::open_with_vfs(&base, Arc::new(fs2.clone())).unwrap();
            // The flip kills the commit containing byte i and everything
            // after it.
            let j = boundaries.iter().filter(|&&b| b <= i).count() - 1;
            assert_eq!(
                dump(&db),
                states[j],
                "flip at byte {i} (mask {mask:#x}) must recover exactly {j} commits"
            );
            let report = db.recovery_report().unwrap();
            // Each transaction in the scripted workload is one commit.
            assert_eq!(report.commits_replayed, j);
            assert_eq!(
                report.bytes_truncated,
                (pristine.len() - boundaries[j]) as u64,
                "flip at byte {i}: truncation must start at the last valid commit"
            );
        }
    }
}

/// End offsets of each commit in the log (offset 0 first), reconstructed
/// by re-running the workload and sampling the file length after each
/// transaction.
fn commit_boundaries(base: &Path, steps: &[Step]) -> Vec<usize> {
    let fs = SimFs::new();
    let db = Database::open_with_vfs(base, Arc::new(fs.clone())).unwrap();
    db.set_sync_on_commit(true);
    let mut boundaries = vec![0usize];
    for step in steps {
        if let Step::Txn(stmts) = step {
            apply_txn(&db, stmts).unwrap();
            boundaries.push(fs.contents(base).unwrap().len());
        }
    }
    boundaries
}

/// A failed append poisons the log: later commits fail fast with a clear
/// error instead of interleaving with a half-written transaction, and the
/// errored commit is *indeterminate* — rolled back in memory, but replayed
/// after reopen if its bytes did reach the file intact.
#[test]
fn failed_append_poisons_log_until_reopen() {
    let fs = SimFs::new();
    let base = PathBuf::from("db.wal");
    let db = Database::open_with_vfs(&base, Arc::new(fs.clone())).unwrap();
    db.set_sync_on_commit(true);
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();

    // Fail the fsync of the next commit: its bytes are written but the
    // commit errors and rolls back in memory.
    fs.schedule_fault(Fault {
        at_op: fs.op_count() + 1,
        kind: FaultKind::FailOp,
    });
    assert!(db.execute("INSERT INTO t VALUES (2)").is_err());
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
        Value::Int(1)
    );

    // Poisoned: the next commit fails without touching the file.
    let before = fs.contents(&base).unwrap().len();
    let err = db.execute("INSERT INTO t VALUES (3)").unwrap_err();
    assert!(err.to_string().contains("poisoned"), "got: {err}");
    assert_eq!(fs.contents(&base).unwrap().len(), before);

    // Clean reopen: the errored commit's bytes reached the file intact, so
    // it replays — the indeterminate commit resolved to "durable".
    drop(db);
    let db = Database::open_with_vfs(&base, Arc::new(fs.clone())).unwrap();
    let rel = db.execute("SELECT a FROM t ORDER BY a").unwrap();
    assert_eq!(rel.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
}

/// After a checkpoint, recovery loads the snapshot and replays only the
/// post-checkpoint tail; pre-checkpoint segments are gone.
#[test]
fn checkpoint_bounds_recovery_to_the_tail() {
    let fs = SimFs::new();
    let base = PathBuf::from("db.wal");
    {
        let db = Database::open_with_vfs(&base, Arc::new(fs.clone())).unwrap();
        db.set_sync_on_commit(true);
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        for i in 0..10 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        let report = db.checkpoint().unwrap();
        assert_eq!(report.gen, 1);
        assert_eq!(report.tables, 1);
        assert_eq!(report.retired_segments, 1);
        db.execute("INSERT INTO t VALUES (100)").unwrap();
    }
    // Generation-0 segment is retired; the active segment is .g1.
    assert!(!fs.exists(&segment_path(&base, 0)));
    assert!(fs.exists(&segment_path(&base, 1)));

    let db = Database::open_with_vfs(&base, Arc::new(fs.clone())).unwrap();
    let report = db.recovery_report().unwrap().clone();
    assert_eq!(report.snapshot_gen, Some(1));
    assert_eq!(report.snapshot_tables, 1);
    assert_eq!(report.segments_scanned, 1);
    assert_eq!(
        report.commits_replayed, 1,
        "only the post-checkpoint tail replays"
    );
    assert_eq!(report.records_replayed, 1);
    let rel = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rel.rows[0][0], Value::Int(11));
}

/// Transactions that are still open (statements executed, no commit) when
/// the machine dies must be invisible after recovery: MVCC buffers their
/// writes as provisional versions and appends nothing to the WAL until
/// commit, so a crash leaves no trace of them. Committed transactions
/// that raced the open ones must survive in full.
#[test]
fn uncommitted_transactions_are_invisible_after_crash() {
    let fs = SimFs::new();
    let base = PathBuf::from("db.wal");
    let db = Database::open_with_vfs(&base, Arc::new(fs.clone())).unwrap();
    db.set_sync_on_commit(true);
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();

    // Two in-flight transactions with executed-but-uncommitted writes:
    // one updating the committed row and inserting, one only inserting.
    let mut open_txn = db.begin();
    open_txn.execute("UPDATE t SET a = 99 WHERE a = 1").unwrap();
    open_txn.execute("INSERT INTO t VALUES (100)").unwrap();
    let mut second_txn = db.begin();
    second_txn.execute("INSERT INTO t VALUES (200)").unwrap();

    // A concurrent autocommit transaction commits while both are open.
    db.execute("INSERT INTO t VALUES (2)").unwrap();

    // Crash with the transactions still open. A real crash never runs
    // rollback, so the handles are forgotten, not dropped.
    std::mem::forget(open_txn);
    std::mem::forget(second_txn);
    std::mem::forget(db);
    fs.recover();

    let db = Database::open_with_vfs(&base, Arc::new(fs.clone())).unwrap();
    assert_eq!(
        db.execute("SELECT a FROM t ORDER BY a").unwrap().rows,
        vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        "uncommitted transaction leaked into the recovered state"
    );
    // The recovered database still takes commits.
    db.set_sync_on_commit(true);
    db.execute("UPDATE t SET a = 3 WHERE a = 2").unwrap();
    drop(db);
    let db = Database::open_with_vfs(&base, Arc::new(fs.clone())).unwrap();
    assert_eq!(
        db.execute("SELECT a FROM t ORDER BY a").unwrap().rows,
        vec![vec![Value::Int(1)], vec![Value::Int(3)]]
    );
}
