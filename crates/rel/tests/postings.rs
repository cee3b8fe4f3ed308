//! Index postings under MVCC.
//!
//! * A chain's postings are *exactly* the distinct keys of its versions —
//!   the invariant that lets an index read skip the key re-check on a
//!   one-version chain — after every step of random transaction histories
//!   (inserts, key-changing updates, deletes, each rolled back or
//!   committed, autocommits, and vacuums at random watermarks).
//! * Every point, probe and range read through those indexes — keys of one,
//!   two and three parts, NULL probe keys among them — returns what a full
//!   scan with the same predicate returns, at every open snapshot.
//! * The last column `d` is nullable and set and cleared by updates, so rows
//!   are stored with and without a NULL tail, and a version's stored length
//!   changes along its chain.
//! * An index read returns the numeric variant the column stores, whatever
//!   variant the probe value has.
//! * Each vacuum prunes exactly the versions a walk over every chain finds
//!   ended at or below its watermark, and leaves the rest as they were.
//! * Reopening a durable store after such a history replays its log through
//!   the same MVCC writes: the live rows, exact postings, nothing to vacuum.

use proptest::prelude::*;
use sqlgraph_rel::txn::{is_marker, TS_INF};
use sqlgraph_rel::{Database, Relation, SimFs, Txn, Value};
use std::cmp::Ordering;
use std::path::Path;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Begin,
    Insert {
        tx: usize,
        id: i64,
        a: i64,
        b: i64,
        c: i64,
        d: Option<i64>,
    },
    /// Moves every indexed key of row `id`, the unique one included, and
    /// sets or clears the trailing `d`.
    Update {
        tx: usize,
        id: i64,
        to: i64,
        a: i64,
        b: i64,
        c: i64,
        d: Option<i64>,
    },
    Delete {
        tx: usize,
        id: i64,
    },
    Commit {
        tx: usize,
    },
    Rollback {
        tx: usize,
    },
    /// Vacuum at `quarter`/4 of the safe watermark.
    Vacuum {
        quarter: u64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Begin),
        ((0usize..4, 0i64..10, 0i64..3, 0i64..2, 0i64..6), arb_opt(3))
            .prop_map(|((tx, id, a, b, c), d)| Op::Insert { tx, id, a, b, c, d }),
        (
            (0usize..4, 0i64..10),
            (0i64..10, 0i64..3, 0i64..2, 0i64..6),
            arb_opt(3)
        )
            .prop_map(|((tx, id), (to, a, b, c), d)| Op::Update {
                tx,
                id,
                to,
                a,
                b,
                c,
                d
            }),
        (0usize..4, 0i64..10).prop_map(|(tx, id)| Op::Delete { tx, id }),
        (0usize..4).prop_map(|tx| Op::Commit { tx }),
        (0usize..4).prop_map(|tx| Op::Rollback { tx }),
        (0u64..5).prop_map(|quarter| Op::Vacuum { quarter }),
    ]
}

/// `Some` of `0..n`, or `None` one time in `n + 1`.
fn arb_opt(n: i64) -> impl Strategy<Value = Option<i64>> {
    (0..n + 1).prop_map(move |v| (v < n).then_some(v))
}

/// Read parameters for one step: `(a, b, id, lo, hi, d)`. The point keys
/// `a`, `b`, `id` and `d` are sometimes NULL.
fn arb_read() -> impl Strategy<Value = Reads> {
    (
        (arb_opt(3), arb_opt(2), arb_opt(10)),
        (0i64..6, 0i64..6, arb_opt(3)),
    )
        .prop_map(|((a, b, id), (lo, hi, d))| (a, b, id, lo, hi, d))
}

type Reads = (Option<i64>, Option<i64>, Option<i64>, i64, i64, Option<i64>);

fn int(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

fn fresh_db() -> Database {
    with_schema(Database::new())
}

fn with_schema(db: Database) -> Database {
    db.execute("CREATE TABLE t (id INTEGER, a INTEGER, b TEXT, c INTEGER, d INTEGER)")
        .unwrap();
    db.execute("CREATE UNIQUE INDEX t_id ON t (id) USING HASH")
        .unwrap();
    db.execute("CREATE INDEX t_ab ON t (a, b) USING HASH")
        .unwrap();
    db.execute("CREATE INDEX t_c ON t (c) USING BTREE").unwrap();
    // A three-part key: the one form whose slot owns a heap block.
    db.execute("CREATE INDEX t_abc ON t (a, b, c) USING HASH")
        .unwrap();
    // The trailing column, NULL in rows stored without it.
    db.execute("CREATE INDEX t_d ON t (d) USING HASH").unwrap();
    // Probe keys for the index nested-loop read.
    db.execute("CREATE TABLE k (x INTEGER, y TEXT)").unwrap();
    db.execute("INSERT INTO k VALUES (0, 'b0'), (1, 'b1'), (2, 'b0')")
        .unwrap();
    db
}

fn label(b: impl Into<Option<i64>>) -> Value {
    b.into()
        .map_or(Value::Null, |b| Value::str(format!("b{b}")))
}

/// One write through transaction `tx` of `open`, or autocommit when `tx`
/// names none. Conflicts and unique violations are part of the history.
fn write(db: &Database, open: &mut [Txn<'_>], tx: usize, sql: &str, params: &[Value]) {
    let _ = run(db, open, tx, sql, params);
}

/// [`write`], returning what the statement returned.
fn run(
    db: &Database,
    open: &mut [Txn<'_>],
    tx: usize,
    sql: &str,
    params: &[Value],
) -> sqlgraph_rel::Result<Relation> {
    match open.get_mut(tx) {
        Some(t) => t.execute_with_params(sql, params),
        None => db.execute_with_params(sql, params),
    }
}

fn read(db: &Database, txn: Option<&mut Txn<'_>>, sql: &str, params: &[Value]) -> Vec<Vec<Value>> {
    let rel: Relation = match txn {
        Some(t) => t.execute_with_params(sql, params),
        None => db.execute_with_params(sql, params),
    }
    .unwrap_or_else(|e| panic!("{sql}: {e}"));
    let mut rows = rel.rows;
    rows.sort_by(|x, y| {
        x.iter()
            .zip(y)
            .map(|(p, q)| p.total_cmp(q))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
    });
    rows
}

/// Every slot's postings on every index are exactly the distinct keys of
/// its versions: none missing, none extra, none twice.
fn check_postings(db: &Database) -> Result<(), TestCaseError> {
    db.read_table("t", |t| {
        for idx in t.indexes() {
            let mut posted: Vec<Vec<Vec<Value>>> = vec![Vec::new(); t.slab_len()];
            for (key, rids) in idx.entries() {
                for &rid in rids {
                    posted[rid].push(key.to_vec());
                }
            }
            for (rid, slot) in t.slots().enumerate() {
                let mut keys: Vec<Vec<Value>> = Vec::new();
                for v in slot.versions() {
                    let k = idx.key_of(v.row());
                    if !keys.contains(&k) {
                        keys.push(k);
                    }
                }
                let got = &posted[rid];
                let exact = got.len() == keys.len() && keys.iter().all(|k| got.contains(k));
                assert!(
                    exact,
                    "index {} slot {rid}: postings {got:?}, version keys {keys:?}",
                    idx.name
                );
            }
        }
        Ok(())
    })
    .map_err(|e| TestCaseError::fail(e.to_string()))
}

/// Vacuum `t` at `watermark`, against the walk over every chain it must
/// equal: the versions with a committed end at or below the watermark go,
/// every other version stays as it was, in order.
fn check_vacuum(db: &Database, watermark: u64) -> Result<(), TestCaseError> {
    let dead = |end: u64| end != TS_INF && !is_marker(end) && end <= watermark;
    db.write_table("t", |t| {
        let chains = |t: &sqlgraph_rel::storage::Table| -> Vec<Vec<(u64, u64, Vec<Value>)>> {
            t.slots()
                .map(|s| {
                    s.versions()
                        .map(|v| (v.begin(), v.end(), v.row().to_vec()))
                        .collect()
                })
                .collect()
        };
        let before = chains(t);
        let want: usize = before.iter().flatten().filter(|v| dead(v.1)).count();
        let survivors: Vec<Vec<_>> = before
            .into_iter()
            .map(|c| c.into_iter().filter(|v| !dead(v.1)).collect())
            .collect();
        let pruned = t.vacuum(watermark);
        assert_eq!(pruned, want, "pruned at watermark {watermark}");
        assert_eq!(chains(t), survivors, "chains after vacuum at {watermark}");
        Ok(())
    })
    .map_err(|e| TestCaseError::fail(e.to_string()))
}

/// Each index read against the same predicate spelled so no index serves
/// it (`+ 0`), as `txn` (or autocommit) sees the table.
fn check_reads(
    db: &Database,
    mut txn: Option<&mut Txn<'_>>,
    (a, b, id, lo, hi, d): Reads,
) -> Result<(), TestCaseError> {
    let pairs: [(&str, &str, Vec<Value>); 6] = [
        (
            "SELECT id, a, b, c, d FROM t WHERE a = ? AND b = ?",
            "SELECT id, a, b, c, d FROM t WHERE a + 0 = ? AND b = ?",
            vec![int(a), label(b)],
        ),
        (
            "SELECT id, a, b, c, d FROM t WHERE a = ? AND b = ? AND c = ?",
            "SELECT id, a, b, c, d FROM t WHERE a + 0 = ? AND b = ? AND c = ?",
            vec![int(a), label(b), Value::Int(lo)],
        ),
        (
            "SELECT id, a, b, c, d FROM t WHERE id = ?",
            "SELECT id, a, b, c, d FROM t WHERE id + 0 = ?",
            vec![int(id)],
        ),
        (
            "SELECT id, a, b, c, d FROM t WHERE c >= ? AND c <= ?",
            "SELECT id, a, b, c, d FROM t WHERE c + 0 >= ? AND c + 0 <= ?",
            vec![Value::Int(lo), Value::Int(hi)],
        ),
        (
            "SELECT t.id, t.a, t.b, t.c, t.d FROM k, t WHERE t.a = k.x AND t.b = k.y",
            "SELECT t.id, t.a, t.b, t.c, t.d FROM k, t WHERE t.a + 0 = k.x AND t.b = k.y",
            vec![],
        ),
        (
            "SELECT id, a, b, c, d FROM t WHERE d = ?",
            "SELECT id, a, b, c, d FROM t WHERE d + 0 = ?",
            vec![int(d)],
        ),
    ];
    for (indexed, scanned, params) in &pairs {
        let got = read(db, txn.as_deref_mut(), indexed, params);
        let want = read(db, txn.as_deref_mut(), scanned, params);
        prop_assert_eq!(got, want, "{} {:?}", indexed, params);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn postings_are_exactly_the_version_keys(
        steps in prop::collection::vec((arb_op(), arb_read()), 1..60),
    ) {
        let db = fresh_db();
        let mut open: Vec<Txn<'_>> = Vec::new();
        for (op, reads) in steps {
            match op {
                Op::Begin if open.len() < 3 => open.push(db.begin()),
                Op::Begin => {}
                Op::Insert { tx, id, a, b, c, d } => write(
                    &db,
                    &mut open,
                    tx,
                    "INSERT INTO t VALUES (?, ?, ?, ?, ?)",
                    &[Value::Int(id), Value::Int(a), label(b), Value::Int(c), int(d)],
                ),
                Op::Update { tx, id, to, a, b, c, d } => write(
                    &db,
                    &mut open,
                    tx,
                    "UPDATE t SET id = ?, a = ?, b = ?, c = ?, d = ? WHERE id = ?",
                    &[Value::Int(to), Value::Int(a), label(b), Value::Int(c), int(d), Value::Int(id)],
                ),
                Op::Delete { tx, id } => {
                    write(&db, &mut open, tx, "DELETE FROM t WHERE id = ?", &[Value::Int(id)])
                }
                Op::Commit { tx } if tx < open.len() => {
                    let _ = open.remove(tx).commit();
                }
                Op::Rollback { tx } if tx < open.len() => open.remove(tx).rollback(),
                Op::Commit { .. } | Op::Rollback { .. } => {}
                Op::Vacuum { quarter } => {
                    check_vacuum(&db, db.txns().watermark() * quarter / 4)?;
                }
            }
            check_postings(&db)?;
            check_reads(&db, None, reads)?;
            for t in open.iter_mut() {
                check_reads(&db, Some(t), reads)?;
            }
        }
    }
}

/// Binds for one UPDATE/DELETE filter: the point keys `(a, b, id)` and the
/// range bounds and `d` key `(lo, hi, d)`, each sometimes NULL.
type DmlKeys = (
    (Option<i64>, Option<i64>, Option<i64>),
    (Option<i64>, Option<i64>, Option<i64>),
);

fn arb_dml_keys() -> impl Strategy<Value = DmlKeys> {
    (
        (arb_opt(3), arb_opt(2), arb_opt(10)),
        (arb_opt(6), arb_opt(6), arb_opt(3)),
    )
}

/// UPDATE/DELETE filter `shape`: as written, in its `+ 0` spelling that no
/// index serves, and its binds.
fn dml_filter(
    shape: usize,
    ((a, b, id), (lo, hi, d)): DmlKeys,
) -> (&'static str, &'static str, Vec<Value>) {
    match shape {
        0 => ("id = ?", "id + 0 = ?", vec![int(id)]),
        1 => (
            "a = ? AND b = ?",
            "a + 0 = ? AND b = ?",
            vec![int(a), label(b)],
        ),
        2 => (
            "a = ? AND b = ? AND c = ?",
            "a + 0 = ? AND b = ? AND c = ?",
            vec![int(a), label(b), int(lo)],
        ),
        3 => (
            "c >= ? AND c <= ?",
            "c + 0 >= ? AND c + 0 <= ?",
            vec![int(lo), int(hi)],
        ),
        4 => ("d = ?", "d + 0 = ?", vec![int(d)]),
        _ => (
            "id IN (SELECT x FROM k)",
            "id + 0 IN (SELECT x FROM k)",
            vec![],
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The same histories on two stores, every UPDATE and DELETE filter
    /// written as is on one and in its `+ 0` spelling on the other: the
    /// rows each writes, and so every snapshot's table, are the same.
    #[test]
    fn dml_through_an_index_writes_what_the_scan_spelling_writes(
        steps in prop::collection::vec((arb_op(), 0usize..6, arb_dml_keys()), 1..60),
    ) {
        let (indexed_db, scanned_db) = (fresh_db(), fresh_db());
        let mut indexed_open: Vec<Txn<'_>> = Vec::new();
        let mut scanned_open: Vec<Txn<'_>> = Vec::new();
        for (op, shape, keys) in steps {
            let (indexed, scanned, binds) = dml_filter(shape, keys);
            // (tx, statement as written, its `+ 0` spelling, binds)
            let stmt = match op {
                Op::Begin if indexed_open.len() < 3 => {
                    indexed_open.push(indexed_db.begin());
                    scanned_open.push(scanned_db.begin());
                    None
                }
                Op::Begin => None,
                Op::Insert { tx, id, a, b, c, d } => {
                    let sql = "INSERT INTO t VALUES (?, ?, ?, ?, ?)".to_string();
                    let row = vec![Value::Int(id), Value::Int(a), label(b), Value::Int(c), int(d)];
                    Some((tx, sql.clone(), sql, row))
                }
                Op::Update { tx, to, a, b, c, d, .. } => {
                    let mut params = vec![Value::Int(a), label(b), Value::Int(c), int(d)];
                    // Only the one-row filter moves the unique `id`.
                    let set = if shape == 0 {
                        params.insert(0, Value::Int(to));
                        "id = ?, a = ?, b = ?, c = ?, d = ?"
                    } else {
                        "a = ?, b = ?, c = ?, d = ?"
                    };
                    params.extend(binds);
                    Some((
                        tx,
                        format!("UPDATE t SET {set} WHERE {indexed}"),
                        format!("UPDATE t SET {set} WHERE {scanned}"),
                        params,
                    ))
                }
                Op::Delete { tx, .. } => Some((
                    tx,
                    format!("DELETE FROM t WHERE {indexed}"),
                    format!("DELETE FROM t WHERE {scanned}"),
                    binds,
                )),
                Op::Commit { tx } if tx < indexed_open.len() => {
                    let got = indexed_open.remove(tx).commit();
                    let want = scanned_open.remove(tx).commit();
                    prop_assert_eq!(got.is_ok(), want.is_ok(), "commit");
                    None
                }
                Op::Rollback { tx } if tx < indexed_open.len() => {
                    indexed_open.remove(tx).rollback();
                    scanned_open.remove(tx).rollback();
                    None
                }
                Op::Commit { .. } | Op::Rollback { .. } => None,
                Op::Vacuum { quarter } => {
                    for db in [&indexed_db, &scanned_db] {
                        check_vacuum(db, db.txns().watermark() * quarter / 4)?;
                    }
                    None
                }
            };
            if let Some((tx, indexed_sql, scanned_sql, params)) = stmt {
                let got = run(&indexed_db, &mut indexed_open, tx, &indexed_sql, &params);
                let want = run(&scanned_db, &mut scanned_open, tx, &scanned_sql, &params);
                match (&got, &want) {
                    (Ok(got), Ok(want)) => {
                        prop_assert_eq!(&got.rows, &want.rows, "{} {:?}", indexed_sql, params)
                    }
                    _ => prop_assert_eq!(
                        got.is_ok(),
                        want.is_ok(),
                        "{} {:?}: {:?} / {:?}",
                        indexed_sql,
                        params,
                        got.as_ref().err(),
                        want.as_ref().err()
                    ),
                }
                // A statement that fails inside a transaction keeps what it
                // wrote before failing, and the two spellings visit their
                // targets in different orders: the transaction goes.
                if got.is_err() && tx < indexed_open.len() {
                    indexed_open.remove(tx).rollback();
                    scanned_open.remove(tx).rollback();
                }
            }
            check_postings(&indexed_db)?;
            check_postings(&scanned_db)?;
            let all = "SELECT * FROM t";
            prop_assert_eq!(read(&indexed_db, None, all, &[]), read(&scanned_db, None, all, &[]));
            for (i, s) in indexed_open.iter_mut().zip(scanned_open.iter_mut()) {
                prop_assert_eq!(read(&indexed_db, Some(i), all, &[]), read(&scanned_db, Some(s), all, &[]));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A random history on a durable store — commits, rollbacks, updates
    /// of rows the same transaction inserted, deletes — then a reopen that
    /// replays it. Rows compare by content: a rolled-back insert leaves a
    /// slab slot live that the log never names.
    #[test]
    fn replay_equals_live(steps in prop::collection::vec(arb_op(), 1..60)) {
        let fs = SimFs::new();
        let base = Path::new("/db.wal");
        let db = with_schema(Database::open_with_vfs(base, Arc::new(fs.clone())).unwrap());
        let mut open: Vec<Txn<'_>> = Vec::new();
        for op in steps {
            match op {
                Op::Begin if open.len() < 3 => open.push(db.begin()),
                Op::Begin => {}
                Op::Insert { tx, id, a, b, c, d } => write(
                    &db,
                    &mut open,
                    tx,
                    "INSERT INTO t VALUES (?, ?, ?, ?, ?)",
                    &[Value::Int(id), Value::Int(a), label(b), Value::Int(c), int(d)],
                ),
                Op::Update { tx, id, to, a, b, c, d } => write(
                    &db,
                    &mut open,
                    tx,
                    "UPDATE t SET id = ?, a = ?, b = ?, c = ?, d = ? WHERE id = ?",
                    &[Value::Int(to), Value::Int(a), label(b), Value::Int(c), int(d), Value::Int(id)],
                ),
                Op::Delete { tx, id } => {
                    write(&db, &mut open, tx, "DELETE FROM t WHERE id = ?", &[Value::Int(id)])
                }
                Op::Commit { tx } if tx < open.len() => {
                    let _ = open.remove(tx).commit();
                }
                Op::Rollback { tx } if tx < open.len() => open.remove(tx).rollback(),
                Op::Commit { .. } | Op::Rollback { .. } => {}
                Op::Vacuum { quarter } => {
                    check_vacuum(&db, db.txns().watermark() * quarter / 4)?;
                }
            }
        }
        drop(open);
        let reopened = Database::open_with_vfs(base, Arc::new(fs.clone())).unwrap();
        prop_assert_eq!(reopened.table_names(), db.table_names());
        for table in db.table_names() {
            let all = format!("SELECT * FROM {table}");
            prop_assert_eq!(read(&reopened, None, &all, &[]), read(&db, None, &all, &[]));
        }
        check_postings(&reopened)?;
        prop_assert_eq!(reopened.vacuum(), 0);
    }
}

#[test]
fn a_range_read_returns_a_row_whose_key_moved_inside_the_range_once() {
    let db = fresh_db();
    db.execute("INSERT INTO t VALUES (1, 0, 'b0', 1, NULL)")
        .unwrap();
    let mut tx = db.begin();
    // The chain now carries c = 1 and c = 4: posted under both keys.
    tx.execute("UPDATE t SET c = 4 WHERE id = 1").unwrap();
    let sql = "SELECT id, c FROM t WHERE c >= 1 AND c <= 4";
    let want = vec![vec![Value::Int(1), Value::Int(4)]];
    assert_eq!(tx.execute(sql).unwrap().rows, want);
    tx.commit().unwrap();
    assert_eq!(db.execute(sql).unwrap().rows, want);
    // An empty interval reads nothing.
    let rel = db
        .execute("SELECT id FROM t WHERE c >= 4 AND c <= 1")
        .unwrap();
    assert!(rel.rows.is_empty());
}

#[test]
fn the_probe_read_is_an_index_nested_loop() {
    let db = fresh_db();
    for id in 0..10 {
        db.execute_with_params(
            "INSERT INTO t VALUES (?, ?, ?, ?, NULL)",
            &[
                Value::Int(id),
                Value::Int(id % 3),
                label(id % 2),
                Value::Int(id % 6),
            ],
        )
        .unwrap();
    }
    let plan = db
        .execute("EXPLAIN SELECT t.id FROM k, t WHERE t.a = k.x AND t.b = k.y")
        .unwrap()
        .strings()
        .join("\n");
    assert!(
        plan.contains("IndexJoin t [t] (index t_ab, 2 key parts)"),
        "{plan}"
    );
}

#[test]
fn index_reads_return_the_stored_numeric_variant() {
    let db = Database::new();
    db.execute("CREATE TABLE n (i INTEGER, d DOUBLE, tag INTEGER)")
        .unwrap();
    db.execute("CREATE INDEX n_i ON n (i) USING HASH").unwrap();
    db.execute("CREATE INDEX n_d ON n (d) USING BTREE").unwrap();
    db.execute("INSERT INTO n VALUES (3, 3.0, 1), (4, 4.5, 2)")
        .unwrap();
    db.execute("CREATE TABLE p (x DOUBLE)").unwrap();
    db.execute("INSERT INTO p VALUES (3.0)").unwrap();
    db.execute("CREATE TABLE q (y INTEGER)").unwrap();
    db.execute("INSERT INTO q VALUES (3)").unwrap();
    for dop in [1, 4] {
        db.set_parallelism(dop);
        let one = |sql: &str, param: Value| -> Vec<Value> {
            let rel = db.execute_with_params(sql, &[param]).unwrap();
            assert_eq!(rel.rows.len(), 1, "{sql}");
            rel.rows[0].clone()
        };
        // An INTEGER column probed with a DOUBLE returns the stored INTEGER.
        let row = one("SELECT i, tag FROM n WHERE i = ?", Value::Double(3.0));
        assert!(matches!(row[..], [Value::Int(3), Value::Int(1)]), "{row:?}");
        let row = one(
            "SELECT i FROM n WHERE i = ? AND tag = 1",
            Value::Double(3.0),
        );
        assert!(matches!(row[..], [Value::Int(3)]), "{row:?}");
        // A DOUBLE column probed with an INTEGER returns the stored DOUBLE.
        let row = one("SELECT d, tag FROM n WHERE d = ?", Value::Int(3));
        assert!(
            matches!(row[..], [Value::Double(d), Value::Int(1)] if d == 3.0),
            "{row:?}"
        );
        let row = one("SELECT d FROM n WHERE d >= ? AND d <= 3", Value::Int(3));
        assert!(matches!(row[..], [Value::Double(d)] if d == 3.0), "{row:?}");
        // The same through index nested-loop probes.
        let rel = db
            .execute("SELECT n.i, n.d FROM p, n WHERE n.i = p.x")
            .unwrap();
        assert!(
            matches!(rel.rows[..], [ref r] if matches!(r[..], [Value::Int(3), Value::Double(_)])),
            "{:?}",
            rel.rows
        );
        let rel = db.execute("SELECT n.d FROM q, n WHERE n.d = q.y").unwrap();
        assert!(
            matches!(rel.rows[..], [ref r] if matches!(r[..], [Value::Double(d)] if d == 3.0)),
            "{:?}",
            rel.rows
        );
        // A column read only by the consumed equality is not copied; what is
        // projected is still the stored variant.
        let rel = db
            .execute_with_params("SELECT COUNT(*) FROM n WHERE i = ?", &[Value::Double(3.0)])
            .unwrap();
        assert_eq!(rel.rows, vec![vec![Value::Int(1)]]);
    }
}

#[test]
fn a_three_part_key_is_read_through_its_index() {
    let db = fresh_db();
    db.execute("INSERT INTO t VALUES (1, 0, 'b0', 1, NULL), (2, 0, 'b0', 2, NULL)")
        .unwrap();
    let sql = "SELECT id FROM t WHERE a = 0 AND b = 'b0' AND c = 2";
    let plan = db
        .execute(&format!("EXPLAIN {sql}"))
        .unwrap()
        .strings()
        .join("\n");
    assert!(plan.contains("t_abc"), "{plan}");
    assert_eq!(db.execute(sql).unwrap().rows, vec![vec![Value::Int(2)]]);
}
