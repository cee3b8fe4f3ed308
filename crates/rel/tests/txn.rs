//! Transaction-subsystem integration tests.
//!
//! Covers the MVCC guarantees end to end:
//!
//! * cross-table write statements cannot deadlock (source tables are read
//!   and released before the target's write lock is taken),
//! * `DROP TABLE` evicts cached statements, so a recreated table with a
//!   different shape never executes against a stale plan,
//! * a concurrent writer/reader hammer over the simulated file system:
//!   every snapshot — single-statement or spanning statements — observes
//!   a commit-prefix-consistent state (the bank-transfer sum invariant),
//!   and the invariant survives a crash + recovery,
//! * differential check: the same serial workload produces byte-identical
//!   state (values *and* physical row ids) under autocommit MVCC,
//!   explicit `BEGIN`/`COMMIT` sessions and closure transactions,
//! * UPDATE/DELETE target lookup through a composite index, own provisional
//!   rows included,
//! * first-updater-wins conflicts and vacuum's watermark discipline.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use sqlgraph_rel::{Database, Error, SimFs, Value};

/// Worker count for the hammer, pinned by CI via `SQLGRAPH_TEST_DOP`.
fn dop() -> usize {
    std::env::var("SQLGRAPH_TEST_DOP")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(4)
}

fn int(rel: &sqlgraph_rel::Relation) -> i64 {
    rel.rows[0][0].as_int().expect("integer scalar")
}

/// Full physical state: table name → rows with their slab ids. Comparing
/// ids as well as values asserts identical physical layout, not just
/// identical query answers.
type PhysicalState = Vec<(String, Vec<(usize, Vec<Value>)>)>;

fn dump(db: &Database) -> PhysicalState {
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

// ---------------------------------------------------- deadlock regression --

/// Two writers whose statements touch the same two tables in inverted
/// order (`a` reading `b`, `b` reading `a`). With whole-statement
/// two-lock acquisition this wedges; with source-reads-first it cannot.
/// The watchdog turns a deadlock into a test failure instead of a hang.
#[test]
fn cross_table_write_statements_do_not_deadlock() {
    const ROUNDS: i64 = 120;
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE a (id INTEGER, v INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE b (id INTEGER, v INTEGER)")
        .unwrap();
    db.execute("INSERT INTO a VALUES (1, 0)").unwrap();
    db.execute("INSERT INTO b VALUES (1, 0)").unwrap();
    let (done_tx, done_rx) = mpsc::channel();
    for flip in [false, true] {
        let db = Arc::clone(&db);
        let done = done_tx.clone();
        std::thread::spawn(move || {
            let (target, source) = if flip { ("a", "b") } else { ("b", "a") };
            let sql = format!(
                "UPDATE {target} SET v = v + 1 \
                 WHERE id IN (SELECT id FROM {source} WHERE v >= 0)"
            );
            for _ in 0..ROUNDS {
                loop {
                    match db.execute(&sql) {
                        Ok(_) => break,
                        // Autocommit MVCC writers can lose the
                        // first-updater race; retrying is the contract.
                        Err(Error::TxnConflict(_)) => std::thread::yield_now(),
                        Err(e) => panic!("writer failed: {e}"),
                    }
                }
            }
            let _ = done.send(());
        });
    }
    for _ in 0..2 {
        done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("cross-table writers deadlocked");
    }
    for t in ["a", "b"] {
        assert_eq!(
            int(&db.execute(&format!("SELECT v FROM {t}")).unwrap()),
            ROUNDS,
            "lost update on {t}"
        );
    }
}

/// Autocommit DDL holds the commit lock shared from catalog change through
/// commit, and a checkpoint takes it exclusively. A thread that took the
/// shared side a second time would wedge behind a queued checkpoint on a
/// lock that makes new readers wait for a waiting writer. Workers race
/// CREATE TABLE / CREATE INDEX / INSERT / DROP TABLE commits against a
/// checkpoint loop on a WAL-backed database, under the watchdog.
#[test]
fn autocommit_ddl_and_checkpoints_do_not_deadlock() {
    const ROUNDS: i64 = 150;
    let fs = SimFs::new();
    let base = PathBuf::from("ddl.wal");
    let db = Arc::new(Database::open_with_vfs(&base, Arc::new(fs.clone())).unwrap());
    let stop = Arc::new(AtomicBool::new(false));
    let (done_tx, done_rx) = mpsc::channel();
    let workers = dop().max(2);
    let mut handles = Vec::new();
    for w in 0..workers {
        let (db, done) = (Arc::clone(&db), done_tx.clone());
        handles.push(std::thread::spawn(move || {
            let t = format!("ddl{w}");
            for i in 0..ROUNDS {
                db.execute(&format!("CREATE TABLE {t} (id INTEGER, v INTEGER)"))
                    .unwrap();
                db.execute(&format!("CREATE INDEX {t}_id ON {t} (id)"))
                    .unwrap();
                db.execute_with_params(
                    &format!("INSERT INTO {t} VALUES (?, ?)"),
                    &[Value::Int(i), Value::Int(w as i64)],
                )
                .unwrap();
                db.execute(&format!("DROP TABLE {t}")).unwrap();
            }
            let _ = done.send(());
        }));
    }
    {
        let (db, stop, done) = (Arc::clone(&db), Arc::clone(&stop), done_tx.clone());
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                db.checkpoint().unwrap();
            }
            let _ = done.send(());
        }));
    }
    for _ in 0..workers {
        done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("autocommit DDL deadlocked against a checkpoint");
    }
    stop.store(true, Ordering::Relaxed);
    done_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("checkpoint loop did not finish");
    for h in handles {
        h.join().unwrap();
    }
    let db = Arc::into_inner(db).expect("every worker has exited");
    db.execute("CREATE TABLE after (id INTEGER)").unwrap();
    drop(db);
    // Every DDL commit is on a checkpoint or in the tail after it.
    let db = Database::open_with_vfs(&base, Arc::new(fs)).unwrap();
    assert_eq!(db.table_names(), ["after"]);
}

// -------------------------------------------------- plan-cache eviction --

/// `DROP TABLE` must evict every cached statement that compiled against
/// the old definition; a recreated table with a different column order
/// would otherwise execute stale plans against wrong slots.
#[test]
fn drop_table_evicts_cached_plans() {
    let db = Database::new();
    db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 'x')").unwrap();
    let select = "SELECT b FROM t WHERE a = 1";
    let insert = "INSERT INTO t VALUES (?, ?, ?)";
    assert_eq!(
        db.execute(select).unwrap().rows,
        vec![vec![Value::str("x")]]
    );
    db.execute("DROP TABLE t").unwrap();

    // Same name, different shape: extra column, inverted order, an index.
    db.execute("CREATE TABLE t (b TEXT, x INTEGER, a INTEGER)")
        .unwrap();
    db.execute("CREATE INDEX t_a ON t (a)").unwrap();
    db.execute("INSERT INTO t VALUES ('y', 9, 1)").unwrap();
    assert_eq!(
        db.execute(select).unwrap().rows,
        vec![vec![Value::str("y")]],
        "stale cached plan read the old column layout"
    );
    db.execute_with_params(insert, &[Value::str("z"), Value::Int(8), Value::Int(2)])
        .unwrap();
    assert_eq!(
        db.execute("SELECT b, x FROM t WHERE a = 2").unwrap().rows,
        vec![vec![Value::str("z"), Value::Int(8)]],
        "stale cached insert plan wrote the old column layout"
    );
}

// ------------------------------------------------------------- the hammer --

/// N writers × M readers over a SimFs-backed database. Writers move money
/// between accounts in multi-statement transactions (retrying conflicts);
/// readers continuously assert the sum invariant through both a
/// single-statement aggregate and an explicit multi-statement snapshot.
/// Afterwards the file system "crashes": the recovered state must be a
/// commit prefix, so the invariant must still hold.
#[test]
fn concurrent_hammer_keeps_snapshots_consistent() {
    const ACCTS: i64 = 8;
    const START: i64 = 100;
    const TOTAL: i64 = ACCTS * START;
    const TXNS_PER_WRITER: usize = 120;

    let fs = SimFs::new();
    let base = PathBuf::from("db.wal");
    let db = Database::open_with_vfs(&base, Arc::new(fs.clone())).unwrap();
    db.set_sync_on_commit(true);
    db.execute("CREATE TABLE acct (id INTEGER, bal INTEGER)")
        .unwrap();
    db.execute("CREATE INDEX acct_id ON acct (id)").unwrap();
    for id in 0..ACCTS {
        db.execute_with_params(
            "INSERT INTO acct VALUES (?, ?)",
            &[Value::Int(id), Value::Int(START)],
        )
        .unwrap();
    }

    let writers = dop().max(2);
    let readers = dop().max(2);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let mut writer_handles = Vec::new();
        for w in 0..writers {
            let db = &db;
            writer_handles.push(s.spawn(move || {
                // Deterministic per-thread account pairs (xorshift).
                let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(w as u64 + 1) | 1;
                let mut step = || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % ACCTS as u64) as i64
                };
                for _ in 0..TXNS_PER_WRITER {
                    let from = step();
                    let to = step();
                    loop {
                        let moved = db.transaction(|tx| {
                            let bal = tx.execute_with_params(
                                "SELECT bal FROM acct WHERE id = ?",
                                &[Value::Int(from)],
                            )?;
                            let bal = bal.rows[0][0].as_int().unwrap();
                            if bal == 0 {
                                return Ok(false); // overdraft: commit nothing
                            }
                            tx.execute_with_params(
                                "UPDATE acct SET bal = bal - 1 WHERE id = ?",
                                &[Value::Int(from)],
                            )?;
                            tx.execute_with_params(
                                "UPDATE acct SET bal = bal + 1 WHERE id = ?",
                                &[Value::Int(to)],
                            )?;
                            Ok(true)
                        });
                        match moved {
                            Ok(_) => break,
                            Err(Error::TxnConflict(_)) => std::thread::yield_now(),
                            Err(e) => panic!("transfer failed: {e}"),
                        }
                    }
                }
            }));
        }
        for _ in 0..readers {
            let (db, stop) = (&db, &stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    // One statement = one snapshot: the aggregate must
                    // never observe half a transfer.
                    let sum = int(&db.execute("SELECT SUM(bal) FROM acct").unwrap());
                    assert_eq!(sum, TOTAL, "aggregate read saw a torn transfer");
                    // A snapshot must also span statements: reading the
                    // accounts one by one inside a transaction while
                    // writers commit between the reads.
                    let mut tx = db.begin();
                    let mut by_parts = 0;
                    for id in 0..ACCTS {
                        by_parts += int(&tx
                            .execute_with_params(
                                "SELECT bal FROM acct WHERE id = ?",
                                &[Value::Int(id)],
                            )
                            .unwrap());
                    }
                    drop(tx); // read-only; rollback is a no-op
                    assert_eq!(by_parts, TOTAL, "snapshot did not span statements");
                }
            });
        }
        for h in writer_handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(
        int(&db.execute("SELECT SUM(bal) FROM acct").unwrap()),
        TOTAL
    );

    // Crash: unsynced bytes are dropped. Recovery lands on a commit
    // prefix, and every committed transfer preserved the invariant.
    drop(db);
    fs.recover();
    let db = Database::open_with_vfs(&base, Arc::new(fs.clone())).unwrap();
    assert_eq!(
        int(&db.execute("SELECT SUM(bal) FROM acct").unwrap()),
        TOTAL,
        "recovered state is not a commit prefix"
    );
}

// ------------------------------------------------------ differential runs --

/// A deterministic DML workload in statement groups (each group is one
/// transaction where the mode has transactions).
fn corpus() -> Vec<Vec<String>> {
    let mut groups = vec![vec![
        "INSERT INTO kv VALUES (0, 'a', 10), (1, 'b', 20), (2, 'c', 30)".to_string(),
    ]];
    for t in 0..12 {
        let k = t % 4;
        groups.push(vec![
            format!("INSERT INTO kv VALUES ({}, 'g{t}', {t})", t + 3),
            format!("UPDATE kv SET v = v + 1 WHERE k = {k}"),
            format!("DELETE FROM kv WHERE v % 7 = {}", t % 7),
            format!(
                "UPDATE kv SET tag = 'touched' \
                 WHERE k IN (SELECT k FROM kv WHERE v > {})",
                10 + t
            ),
        ]);
    }
    groups
}

const CORPUS_DDL: &str = "CREATE TABLE kv (k INTEGER, tag TEXT, v INTEGER)";

/// The same serial workload must leave byte-identical state — physical
/// row ids included — whether statements autocommit under MVCC, run in
/// explicit `begin`/`commit` handles, or run in closure transactions.
/// Transaction scope must change *nothing* about serial execution.
#[test]
fn serial_runs_are_identical_across_transaction_modes() {
    let groups = corpus();

    let autocommit = {
        let db = Database::new();
        db.execute(CORPUS_DDL).unwrap();
        for g in &groups {
            for s in g {
                db.execute(s).unwrap();
            }
        }
        dump(&db)
    };
    let handle_txns = {
        let db = Database::new();
        db.execute(CORPUS_DDL).unwrap();
        for g in &groups {
            let mut tx = db.begin();
            for s in g {
                tx.execute(s).unwrap();
            }
            tx.commit().unwrap();
        }
        dump(&db)
    };
    let closure_txns = {
        let db = Database::new();
        db.execute(CORPUS_DDL).unwrap();
        for g in &groups {
            db.transaction(|tx| {
                for s in g {
                    tx.execute(s)?;
                }
                Ok(())
            })
            .unwrap();
        }
        dump(&db)
    };

    assert_eq!(autocommit, handle_txns, "handle transactions diverged");
    assert_eq!(autocommit, closure_txns, "closure transactions diverged");
}

// ------------------------------------------------------ DML target lookup --

/// UPDATE/DELETE find their rows through the widest hash index whose
/// columns the `col = const` conjuncts all bind — here `(valid, val)`
/// beside the single-column index on `valid` — and hit exactly the rows
/// the whole predicate selects: committed rows and the transaction's own
/// provisional inserts alike. A NULL bind matches nothing.
#[test]
fn dml_targets_through_the_widest_bound_hash_index() {
    let db = Database::new();
    for ddl in [
        "CREATE TABLE sa (valid INTEGER, eid INTEGER, val INTEGER)",
        "CREATE INDEX sa_valid ON sa (valid)",
        "CREATE INDEX sa_valid_val ON sa (valid, val)",
    ] {
        db.execute(ddl).unwrap();
    }
    // Lists 7 and 8, each (eid, val) = (i, i % 3) for i in 0..30.
    for valid in [7, 8] {
        for i in 0..30 {
            db.execute_with_params(
                "INSERT INTO sa VALUES (?, ?, ?)",
                &[Value::Int(valid), Value::Int(i), Value::Int(i % 3)],
            )
            .unwrap();
        }
    }
    let ints = |v: &[i64]| v.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>();
    let mut txn = db.begin();
    txn.execute_with_params("INSERT INTO sa VALUES (?, ?, ?)", &ints(&[7, 100, 1]))
        .unwrap();
    // valid 7, val 1: eids 1, 4, …, 28 and the transaction's own 100.
    let update = "UPDATE sa SET eid = eid + 1000 WHERE valid = ? AND val = ?";
    assert_eq!(
        int(&txn.execute_with_params(update, &ints(&[7, 1])).unwrap()),
        11
    );
    let delete = "DELETE FROM sa WHERE valid = ? AND val = ? AND eid = ?";
    for eid in [1100, 1004] {
        assert_eq!(
            int(&txn
                .execute_with_params(delete, &ints(&[7, 1, eid]))
                .unwrap()),
            1,
            "eid {eid}"
        );
    }
    for null in 0..3 {
        let mut params = ints(&[7, 1, 1001]);
        params[null] = Value::Null;
        assert_eq!(
            int(&txn.execute_with_params(delete, &params).unwrap()),
            0,
            "NULL in bind {null}"
        );
    }
    // Only `valid` bound: the single-column index serves it.
    assert_eq!(
        int(&txn
            .execute("DELETE FROM sa WHERE valid = 8 AND eid < 5")
            .unwrap()),
        5
    );
    txn.commit().unwrap();

    let eids = |sql: &str| db.execute(sql).unwrap().int_column();
    let want: Vec<i64> = (0..30)
        .filter(|i| i % 3 == 1 && *i != 4)
        .map(|i| i + 1000)
        .collect();
    assert_eq!(
        eids("SELECT eid FROM sa WHERE valid = 7 AND val = 1 ORDER BY eid"),
        want
    );
    assert_eq!(eids("SELECT COUNT(*) FROM sa WHERE valid = 7"), [29]);
    assert_eq!(eids("SELECT eid FROM sa WHERE valid = 8 ORDER BY eid"), {
        (5..30).collect::<Vec<i64>>()
    });
}

// --------------------------------------------------- conflicts and vacuum --

#[test]
fn first_updater_wins_and_loser_rolls_back_cleanly() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 0)").unwrap();

    let mut t1 = db.begin();
    let mut t2 = db.begin();
    t1.execute("UPDATE t SET v = 1 WHERE id = 1").unwrap();
    // t2 is the second updater of the same row: it must fail *now*, not
    // at commit.
    match t2.execute("UPDATE t SET v = 2 WHERE id = 1") {
        Err(Error::TxnConflict(_)) => {}
        other => panic!("second updater must conflict, got {other:?}"),
    }
    drop(t2);
    // The loser's rollback must not disturb the winner's provisional write.
    t1.commit().unwrap();
    assert_eq!(int(&db.execute("SELECT v FROM t WHERE id = 1").unwrap()), 1);
    // The row is writable again once the winner committed.
    db.execute("UPDATE t SET v = 3 WHERE id = 1").unwrap();
    assert_eq!(int(&db.execute("SELECT v FROM t WHERE id = 1").unwrap()), 3);
}

/// Vacuum must not reclaim versions an open snapshot can still see, and
/// must reclaim them once the snapshot is released.
#[test]
fn vacuum_respects_the_snapshot_watermark() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 0)").unwrap();

    let mut reader = db.begin();
    assert_eq!(
        int(&reader.execute("SELECT v FROM t WHERE id = 1").unwrap()),
        0
    );
    for i in 1..=5 {
        db.execute(&format!("UPDATE t SET v = {i} WHERE id = 1"))
            .unwrap();
    }
    db.vacuum();
    // The version the open snapshot reads survived the vacuum.
    assert_eq!(
        int(&reader.execute("SELECT v FROM t WHERE id = 1").unwrap()),
        0,
        "vacuum reclaimed a version below the watermark"
    );
    drop(reader);
    let reclaimed = db.vacuum();
    assert!(
        reclaimed > 0,
        "dropping the last old snapshot must free dead versions"
    );
    assert_eq!(int(&db.execute("SELECT v FROM t WHERE id = 1").unwrap()), 5);
}

#[test]
fn create_unique_index_counts_only_live_versions_as_key_holders() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INTEGER, k INTEGER)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
    // An open snapshot keeps the superseded versions from being reclaimed.
    let mut reader = db.begin();
    assert_eq!(int(&reader.execute("SELECT COUNT(*) FROM t").unwrap()), 2);
    db.execute("UPDATE t SET k = 30 WHERE id = 1").unwrap();
    db.execute("UPDATE t SET k = 10 WHERE id = 2").unwrap();
    // Row 1's old version still carries k = 10, but the live keys are
    // {30, 10}.
    db.execute("CREATE UNIQUE INDEX t_k ON t (k)").unwrap();
    let rel = db.execute("SELECT id FROM t WHERE k = 10").unwrap();
    assert_eq!(rel.rows, vec![vec![Value::Int(2)]]);
    // The snapshot still reads its versions through the new index.
    let rel = reader.execute("SELECT id FROM t WHERE k = 10").unwrap();
    assert_eq!(rel.rows, vec![vec![Value::Int(1)]]);
    drop(reader);
    assert!(db.vacuum() > 0);
    db.execute("CREATE UNIQUE INDEX t_k2 ON t (k)").unwrap();
    // A true live duplicate still fails, with the same message.
    db.execute("CREATE TABLE u (id INTEGER, k INTEGER)")
        .unwrap();
    db.execute("INSERT INTO u VALUES (1, 5), (2, 5)").unwrap();
    match db.execute("CREATE UNIQUE INDEX u_k ON u (k)") {
        Err(Error::Schema(msg)) => assert_eq!(msg, "unique index 'u_k' violated"),
        other => panic!("expected a unique violation, got {other:?}"),
    }
}
