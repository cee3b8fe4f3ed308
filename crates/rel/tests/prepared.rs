//! Prepared DML: an INSERT, UPDATE or DELETE compiles against its table
//! once and is bound per execution.
//!
//! * A cached statement follows its table through DROP and CREATE with the
//!   columns in another order: it writes the columns it names.
//! * An IN subquery in a cached statement runs on every execution.
//! * A bare `execute_statement` compiles afresh, and an unknown column
//!   fails as it always has: the filter first, then each assignment.

use sqlgraph_rel::sql::parse_statement;
use sqlgraph_rel::{Database, Error, Prepared, Value};

fn prepare(sql: &str) -> Prepared {
    Prepared::new(parse_statement(sql).unwrap())
}

fn rows(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    db.execute(sql).unwrap().rows
}

fn s(text: &str) -> Value {
    Value::str(text)
}

fn count(n: i64) -> Vec<Vec<Value>> {
    vec![vec![Value::Int(n)]]
}

#[test]
fn cached_dml_writes_the_columns_it_names_after_the_table_is_recreated() {
    let db = Database::new();
    let insert = prepare("INSERT INTO t (a, b, c) VALUES (?, ?, ?)");
    let positional = prepare("INSERT INTO t VALUES (?, ?, ?)");
    let update = prepare("UPDATE t SET b = ?, c = c + 1 WHERE a = ?");
    let delete = prepare("DELETE FROM t WHERE c = ?");
    let i = Value::Int;
    for layout in [
        "CREATE TABLE t (a INTEGER, b TEXT, c INTEGER)",
        "CREATE TABLE t (c INTEGER, b TEXT, a INTEGER)",
    ] {
        db.execute("DROP TABLE IF EXISTS t").unwrap();
        db.execute(layout).unwrap();
        for n in 1..=3 {
            let got = db
                .execute_prepared(&insert, &[i(n), s(&format!("v{n}")), i(10 * n)])
                .unwrap();
            assert_eq!(got.rows, count(1), "{layout}");
        }
        let got = db.execute_prepared(&update, &[s("new"), i(2)]).unwrap();
        assert_eq!(got.rows, count(1), "{layout}");
        let got = db.execute_prepared(&delete, &[i(30)]).unwrap();
        assert_eq!(got.rows, count(1), "{layout}");
        assert_eq!(
            rows(&db, "SELECT a, b, c FROM t"),
            vec![vec![i(1), s("v1"), i(10)], vec![i(2), s("new"), i(21)]],
            "{layout}"
        );
        // A statement without a column list fills the table's columns in
        // their current order.
        db.execute_prepared(&positional, &[i(7), s("w"), i(9)])
            .unwrap_or_else(|e| panic!("{layout}: {e}"));
        let last = rows(&db, "SELECT * FROM t WHERE a = 7 OR a = 9");
        assert_eq!(last, vec![vec![i(7), s("w"), i(9)]], "{layout}");
    }
    // Inside a transaction, the same cached statements.
    let mut tx = db.begin();
    tx.execute_prepared(&update, &[s("txn"), i(1)]).unwrap();
    tx.execute_prepared(&delete, &[i(21)]).unwrap();
    tx.commit().unwrap();
    assert_eq!(
        rows(&db, "SELECT a, b, c FROM t WHERE b = 'txn'"),
        vec![vec![i(1), s("txn"), i(11)]]
    );
    assert!(rows(&db, "SELECT a FROM t WHERE a = 2").is_empty());
}

#[test]
fn cached_texts_follow_their_table_through_the_statement_cache() {
    let db = Database::new();
    let i = Value::Int;
    let update = "UPDATE t SET b = ? WHERE a = ?";
    for layout in [
        "CREATE TABLE t (a INTEGER, b TEXT)",
        "CREATE TABLE t (b TEXT, a INTEGER)",
    ] {
        db.execute("DROP TABLE IF EXISTS t").unwrap();
        db.execute(layout).unwrap();
        db.execute("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
            .unwrap();
        for value in ["p", "q"] {
            db.execute_with_params(update, &[s(value), i(2)]).unwrap();
            assert_eq!(
                rows(&db, "SELECT a, b FROM t ORDER BY a"),
                vec![vec![i(1), s("x")], vec![i(2), s(value)]],
                "{layout}"
            );
        }
    }
}

#[test]
fn an_in_subquery_in_cached_dml_reads_its_rows_on_every_execution() {
    let db = Database::new();
    db.execute("CREATE TABLE t (a INTEGER, n INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 0), (2, 0), (3, 0)")
        .unwrap();
    db.execute("CREATE TABLE pick (x INTEGER)").unwrap();
    let bump = prepare("UPDATE t SET n = n + 1 WHERE a IN (SELECT x FROM pick)");
    let drop = prepare("DELETE FROM t WHERE a IN (SELECT x FROM pick WHERE x > ?)");
    let n = |db: &Database| -> Vec<i64> {
        db.execute("SELECT n FROM t ORDER BY a")
            .unwrap()
            .int_column()
    };
    assert_eq!(db.execute_prepared(&bump, &[]).unwrap().rows, count(0));
    db.execute("INSERT INTO pick VALUES (2)").unwrap();
    assert_eq!(db.execute_prepared(&bump, &[]).unwrap().rows, count(1));
    assert_eq!(n(&db), [0, 1, 0]);
    db.execute("INSERT INTO pick VALUES (3)").unwrap();
    assert_eq!(db.execute_prepared(&bump, &[]).unwrap().rows, count(2));
    assert_eq!(n(&db), [0, 2, 1]);
    db.execute("DELETE FROM pick WHERE x = 2").unwrap();
    assert_eq!(db.execute_prepared(&bump, &[]).unwrap().rows, count(1));
    assert_eq!(n(&db), [0, 2, 2]);
    assert_eq!(
        db.execute_prepared(&drop, &[Value::Int(3)]).unwrap().rows,
        count(0)
    );
    assert_eq!(
        db.execute_prepared(&drop, &[Value::Int(2)]).unwrap().rows,
        count(1)
    );
    assert_eq!(
        db.execute("SELECT a FROM t ORDER BY a")
            .unwrap()
            .int_column(),
        [1, 2]
    );
}

#[test]
fn a_bare_statement_compiles_afresh() {
    let db = Database::new();
    db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
    let run = |sql: &str, params: &[Value]| {
        db.execute_statement(&parse_statement(sql).unwrap(), params, None)
            .unwrap()
            .rows
    };
    assert_eq!(
        run(
            "INSERT INTO t VALUES (?, ?), (2, 'b')",
            &[Value::Int(1), Value::str("a")]
        ),
        count(2)
    );
    assert_eq!(
        run(
            "UPDATE t SET b = ? WHERE a = ?",
            &[Value::str("z"), Value::Int(2)]
        ),
        count(1)
    );
    assert_eq!(run("DELETE FROM t WHERE a = ?", &[Value::Int(1)]), count(1));
    assert_eq!(
        rows(&db, "SELECT a, b FROM t"),
        vec![vec![Value::Int(2), Value::str("z")]]
    );
    assert_eq!(
        db.stmt_cache_len(),
        1,
        "only the SELECT went through the cache"
    );
}

#[test]
fn unknown_columns_fail_in_statement_order() {
    let db = Database::new();
    db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 'x')").unwrap();
    for (sql, missing) in [
        (
            "UPDATE t SET nosuch1 = 1 WHERE nosuch2 = 1",
            "column 'nosuch2'",
        ),
        (
            "UPDATE t SET nosuch1 = nosuch3 WHERE a = 1",
            "column 'nosuch1'",
        ),
        ("UPDATE t SET b = nosuch3, nosuch1 = 1", "column 'nosuch3'"),
        (
            "UPDATE t SET b = 'y', nosuch1 = nosuch3",
            "column 'nosuch1'",
        ),
        (
            "UPDATE t SET b = 'y' WHERE t.nosuch = 1",
            "column 't.nosuch'",
        ),
        (
            "DELETE FROM t WHERE a = 1 AND nosuch = 1",
            "column 'nosuch'",
        ),
        ("INSERT INTO t (a, nosuch) VALUES (1, 2)", "column 'nosuch'"),
        // An INSERT's source runs before its table and columns resolve.
        (
            "INSERT INTO t (nosuch) VALUES (1 IN (SELECT a FROM missing))",
            "table 'missing'",
        ),
        (
            "INSERT INTO nosuch SELECT * FROM missing",
            "table 'missing'",
        ),
        (
            "INSERT INTO t (nosuch) SELECT nosuch2 FROM t",
            "column 'nosuch2'",
        ),
        ("INSERT INTO Nosuch VALUES (1)", "table 'Nosuch'"),
        ("UPDATE nosuch SET a = 1", "table 'nosuch'"),
    ] {
        // Cached, then again from the cache, then bare.
        for _ in 0..2 {
            let err = db.execute(sql).unwrap_err();
            assert!(matches!(err, Error::NotFound(_)), "{sql}: {err:?}");
            assert_eq!(err.to_string(), format!("not found: {missing}"), "{sql}");
        }
        let err = db
            .execute_statement(&parse_statement(sql).unwrap(), &[], None)
            .unwrap_err();
        assert_eq!(err.to_string(), format!("not found: {missing}"), "{sql}");
    }
    // Nothing was written, and a statement that failed to compile compiles
    // once its column exists.
    assert_eq!(
        rows(&db, "SELECT a, b FROM t"),
        vec![vec![Value::Int(1), Value::str("x")]]
    );
    let fix = prepare("UPDATE t SET c = 5");
    assert!(db.execute_prepared(&fix, &[]).is_err());
    db.execute("DROP TABLE t").unwrap();
    db.execute("CREATE TABLE t (a INTEGER, c INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 0)").unwrap();
    assert_eq!(db.execute_prepared(&fix, &[]).unwrap().rows, count(1));
    assert_eq!(
        rows(&db, "SELECT a, c FROM t"),
        vec![vec![Value::Int(1), Value::Int(5)]]
    );
}

#[test]
fn a_held_dml_plan_re_plans_when_its_json_member_bind_moves() {
    let setup = |db: &Database| {
        db.execute("CREATE TABLE t (id INTEGER, j JSON, c INTEGER)")
            .unwrap();
        db.execute("CREATE INDEX t_jk ON t (JSON_VAL(j, 'k')) USING HASH")
            .unwrap();
        let docs = [
            r#"{"k":1}"#,
            r#"{"m":1}"#,
            r#"{"k":1,"m":2}"#,
            r#"{"k":2,"m":1}"#,
        ];
        for (id, doc) in (1..).zip(docs) {
            let doc = Value::json(sqlgraph_json::parse(doc).unwrap());
            db.execute_with_params("INSERT INTO t VALUES (?, ?, 0)", &[Value::Int(id), doc])
                .unwrap();
        }
    };
    let sql = "UPDATE t SET c = c + 1 WHERE JSON_VAL(j, ?) = ?";
    let (held, fresh) = (Database::new(), Database::new());
    setup(&held);
    setup(&fresh);
    let update = prepare(sql);
    let statement = parse_statement(sql).unwrap();
    // `k` reads the functional index, `m` has none: each bind of the member
    // must run the plan it would get planned afresh.
    for member in ["k", "m", "k"] {
        let params = [s(member), Value::Int(1)];
        let got = held.execute_prepared(&update, &params).unwrap();
        let want = fresh.execute_statement(&statement, &params, None).unwrap();
        assert_eq!(got.rows, want.rows, "member {member}");
        let all = "SELECT id, c FROM t ORDER BY id";
        assert_eq!(rows(&held, all), rows(&fresh, all), "member {member}");
    }
    assert_eq!(
        rows(&held, "SELECT c FROM t ORDER BY id"),
        vec![
            vec![Value::Int(2)],
            vec![Value::Int(1)],
            vec![Value::Int(2)],
            vec![Value::Int(1)]
        ]
    );
}
