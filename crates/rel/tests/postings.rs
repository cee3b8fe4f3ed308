//! Index postings under MVCC.
//!
//! * A chain's postings are *exactly* the distinct keys of its versions —
//!   the invariant that lets an index read skip the key re-check on a
//!   one-version chain — after every step of random transaction histories
//!   (inserts, key-changing updates, deletes, each rolled back or
//!   committed, autocommits, and vacuums at random watermarks).
//! * Every point, probe and range read through those indexes returns what a
//!   full scan with the same predicate returns, at every open snapshot.
//! * An index read returns the numeric variant the column stores, whatever
//!   variant the probe value has.

use proptest::prelude::*;
use sqlgraph_rel::index::IndexKey;
use sqlgraph_rel::{Database, Relation, Txn, Value};
use std::cmp::Ordering;

#[derive(Debug, Clone)]
enum Op {
    Begin,
    Insert {
        tx: usize,
        id: i64,
        a: i64,
        b: i64,
        c: i64,
    },
    /// Moves every indexed key of row `id`, the unique one included.
    Update {
        tx: usize,
        id: i64,
        to: i64,
        a: i64,
        b: i64,
        c: i64,
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
        (0usize..4, 0i64..10, 0i64..3, 0i64..2, 0i64..6).prop_map(|(tx, id, a, b, c)| Op::Insert {
            tx,
            id,
            a,
            b,
            c
        }),
        ((0usize..4, 0i64..10), (0i64..10, 0i64..3, 0i64..2, 0i64..6)).prop_map(
            |((tx, id), (to, a, b, c))| Op::Update {
                tx,
                id,
                to,
                a,
                b,
                c
            }
        ),
        (0usize..4, 0i64..10).prop_map(|(tx, id)| Op::Delete { tx, id }),
        (0usize..4).prop_map(|tx| Op::Commit { tx }),
        (0usize..4).prop_map(|tx| Op::Rollback { tx }),
        (0u64..5).prop_map(|quarter| Op::Vacuum { quarter }),
    ]
}

/// Read parameters for one step: `(a, b, id, lo, hi)`.
fn arb_read() -> impl Strategy<Value = (i64, i64, i64, i64, i64)> {
    (0i64..3, 0i64..2, 0i64..10, 0i64..6, 0i64..6)
}

fn fresh_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INTEGER, a INTEGER, b TEXT, c INTEGER)")
        .unwrap();
    db.execute("CREATE UNIQUE INDEX t_id ON t (id) USING HASH")
        .unwrap();
    db.execute("CREATE INDEX t_ab ON t (a, b) USING HASH")
        .unwrap();
    db.execute("CREATE INDEX t_c ON t (c) USING BTREE").unwrap();
    // Probe keys for the index nested-loop read.
    db.execute("CREATE TABLE k (x INTEGER, y TEXT)").unwrap();
    db.execute("INSERT INTO k VALUES (0, 'b0'), (1, 'b1'), (2, 'b0')")
        .unwrap();
    db
}

fn label(b: i64) -> Value {
    Value::str(format!("b{b}"))
}

/// One write through transaction `tx` of `open`, or autocommit when `tx`
/// names none. Conflicts and unique violations are part of the history.
fn write(db: &Database, open: &mut [Txn<'_>], tx: usize, sql: &str, params: &[Value]) {
    let _ = match open.get_mut(tx) {
        Some(t) => t.execute_with_params(sql, params),
        None => db.execute_with_params(sql, params),
    };
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
            let mut posted: Vec<Vec<IndexKey>> = vec![Vec::new(); t.slab_len()];
            for (key, rids) in idx.entries() {
                for &rid in rids {
                    posted[rid].push(key.clone());
                }
            }
            for (rid, slot) in t.slots().iter().enumerate() {
                let mut keys: Vec<IndexKey> = Vec::new();
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

/// Each index read against the same predicate spelled so no index serves
/// it (`+ 0`), as `txn` (or autocommit) sees the table.
fn check_reads(
    db: &Database,
    mut txn: Option<&mut Txn<'_>>,
    (a, b, id, lo, hi): (i64, i64, i64, i64, i64),
) -> Result<(), TestCaseError> {
    let pairs: [(&str, &str, Vec<Value>); 4] = [
        (
            "SELECT id, a, b, c FROM t WHERE a = ? AND b = ?",
            "SELECT id, a, b, c FROM t WHERE a + 0 = ? AND b = ?",
            vec![Value::Int(a), label(b)],
        ),
        (
            "SELECT id, a, b, c FROM t WHERE id = ?",
            "SELECT id, a, b, c FROM t WHERE id + 0 = ?",
            vec![Value::Int(id)],
        ),
        (
            "SELECT id, a, b, c FROM t WHERE c >= ? AND c <= ?",
            "SELECT id, a, b, c FROM t WHERE c + 0 >= ? AND c + 0 <= ?",
            vec![Value::Int(lo), Value::Int(hi)],
        ),
        (
            "SELECT t.id, t.a, t.b, t.c FROM k, t WHERE t.a = k.x AND t.b = k.y",
            "SELECT t.id, t.a, t.b, t.c FROM k, t WHERE t.a + 0 = k.x AND t.b = k.y",
            vec![],
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
                Op::Insert { tx, id, a, b, c } => write(
                    &db,
                    &mut open,
                    tx,
                    "INSERT INTO t VALUES (?, ?, ?, ?)",
                    &[Value::Int(id), Value::Int(a), label(b), Value::Int(c)],
                ),
                Op::Update { tx, id, to, a, b, c } => write(
                    &db,
                    &mut open,
                    tx,
                    "UPDATE t SET id = ?, a = ?, b = ?, c = ? WHERE id = ?",
                    &[Value::Int(to), Value::Int(a), label(b), Value::Int(c), Value::Int(id)],
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
                    let watermark = db.txns().watermark() * quarter / 4;
                    db.write_table("t", |t| Ok(t.vacuum(watermark))).unwrap();
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

#[test]
fn a_range_read_returns_a_row_whose_key_moved_inside_the_range_once() {
    let db = fresh_db();
    db.execute("INSERT INTO t VALUES (1, 0, 'b0', 1)").unwrap();
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
            "INSERT INTO t VALUES (?, ?, ?, ?)",
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
