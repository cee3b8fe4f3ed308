//! Prepared DML: an INSERT, UPDATE or DELETE compiles against its table
//! once and is bound per execution.
//!
//! * A cached statement follows its table through DROP and CREATE with the
//!   columns in another order: it writes the columns it names.
//! * An IN subquery in a cached statement runs on every execution.
//! * A bare `execute_statement` compiles afresh, and an unknown column
//!   fails as it always has: the filter first, then each assignment.
//!
//! A cached SELECT plan runs in place, its bind slots read where each step
//! uses them: every bind position answers as the same text with its
//! literals written inline, at DOP 1 and 4, on plan hits.

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

/// `params` written into `sql` as literals, one per `?` in order.
fn inline(sql: &str, params: &[Value]) -> String {
    let mut values = params.iter();
    let mut out = String::new();
    for (i, piece) in sql.split('?').enumerate() {
        if i > 0 {
            out += &match values.next().expect("one value per ?") {
                Value::Null => "NULL".to_string(),
                Value::Int(n) => n.to_string(),
                Value::Str(s) => format!("'{s}'"),
                other => panic!("no literal for {other:?}"),
            };
        }
        out += piece;
    }
    out
}

/// One bind position: a statement with a `?` there, the operator its
/// EXPLAIN shows (so the position is really exercised), and three bind
/// sets. `replans` lists the runs after the first whose guarded binds
/// change, so they plan afresh; every other later run is a plan hit.
struct BindCase {
    sql: &'static str,
    node: &'static str,
    binds: [Vec<Value>; 3],
    csr: bool,
    replans: &'static [usize],
}

fn bind_fixture() -> Database {
    let db = Database::new();
    for ddl in [
        "CREATE TABLE v (id INTEGER PRIMARY KEY, k INTEGER, s TEXT, c INTEGER, tag INTEGER)",
        "CREATE INDEX v_ks ON v (k, s) USING HASH",
        "CREATE INDEX v_c ON v (c) USING BTREE",
        "CREATE TABLE e (src INTEGER, dst INTEGER, w INTEGER)",
        "CREATE INDEX e_src ON e (src) USING HASH",
        "CREATE TABLE p (src INTEGER, w INTEGER, dst INTEGER)",
        "CREATE INDEX p_src_w ON p (src, w) USING HASH",
        "CREATE TABLE h (x INTEGER, y INTEGER)",
    ] {
        db.execute(ddl).unwrap();
    }
    for id in 0..300i64 {
        let c = match id % 37 {
            0 => Value::Null,
            _ => Value::Int(id % 50),
        };
        let s = ["a", "b", "c"][(id % 3) as usize];
        db.execute_with_params(
            "INSERT INTO v VALUES (?, ?, ?, ?, ?)",
            &[
                Value::Int(id),
                Value::Int(id % 10),
                Value::str(s),
                c,
                Value::Int(id % 4),
            ],
        )
        .unwrap();
    }
    for i in 0..600i64 {
        let (src, dst, w) = (
            Value::Int(i % 300),
            Value::Int(i * 7 % 300),
            Value::Int(i % 5),
        );
        db.execute_with_params(
            "INSERT INTO e VALUES (?, ?, ?)",
            &[src.clone(), dst.clone(), w.clone()],
        )
        .unwrap();
        db.execute_with_params("INSERT INTO p VALUES (?, ?, ?)", &[src, w, dst])
            .unwrap();
    }
    for i in 0..40i64 {
        db.execute_with_params(
            "INSERT INTO h VALUES (?, ?)",
            &[Value::Int(i % 20), Value::Int(i)],
        )
        .unwrap();
    }
    db.execute("ANALYZE").unwrap();
    db
}

fn bind_cases() -> Vec<BindCase> {
    let (i, n, t) = (Value::Int, Value::Null, s);
    let case = |sql, node, binds, csr, replans| BindCase {
        sql,
        node,
        binds,
        csr,
        replans,
    };
    vec![
        case(
            "SELECT id, s FROM v WHERE id = ?",
            "point, 1 key parts",
            [vec![i(5)], vec![i(17)], vec![n.clone()]],
            false,
            &[],
        ),
        case(
            "SELECT id, c FROM v WHERE k = ? AND s = ?",
            "point, 2 key parts",
            [
                vec![i(3), t("a")],
                vec![i(4), t("b")],
                vec![i(3), n.clone()],
            ],
            false,
            &[],
        ),
        case(
            "SELECT v.id, p.dst FROM v, p WHERE v.k = ? AND p.src = v.id AND p.w = ?",
            "IndexJoin p [p] (index p_src_w, 2 key parts)",
            [vec![i(2), i(1)], vec![i(7), i(3)], vec![i(2), n.clone()]],
            false,
            &[],
        ),
        case(
            "SELECT v.id, e.dst FROM v, e WHERE v.k = ? AND e.src = v.id + ?",
            "CsrExpand e [e] (index e_src",
            [vec![i(1), i(0)], vec![i(4), i(2)], vec![i(9), n.clone()]],
            true,
            &[],
        ),
        // A NULL bound is no range bound: the third run plans afresh.
        case(
            "SELECT id, c FROM v WHERE c >= ? AND c <= ?",
            "(index v_c, range",
            [
                vec![i(10), i(20)],
                vec![i(15), i(33)],
                vec![n.clone(), i(12)],
            ],
            false,
            &[2],
        ),
        case(
            "SELECT id, c FROM v WHERE c IN (?, ?, ?)",
            "pushed filters",
            [
                vec![i(1), i(1), n.clone()],
                vec![i(2), n.clone(), n.clone()],
                vec![i(3), i(4), i(3)],
            ],
            false,
            &[],
        ),
        case(
            "SELECT v.id, h.y FROM v, h WHERE v.tag = h.x AND v.c + h.y > ?",
            "Filter (1 predicates)",
            [vec![i(40)], vec![i(70)], vec![n.clone()]],
            false,
            &[],
        ),
        case(
            "SELECT 1 AS one WHERE ? > 2",
            "Filter (1 residual predicates)",
            [vec![i(3)], vec![i(1)], vec![n.clone()]],
            false,
            &[],
        ),
        case(
            "SELECT v.id, h.y FROM v, h WHERE h.x = v.tag + ?",
            "HashJoin",
            [vec![i(1)], vec![i(15)], vec![n.clone()]],
            false,
            &[],
        ),
        case(
            "SELECT v.id, h.y FROM v LEFT JOIN h ON h.x = v.tag AND h.y + v.id > ? WHERE v.id < 12",
            "left outer, 1 ON predicates",
            [vec![i(20)], vec![i(45)], vec![n.clone()]],
            false,
            &[],
        ),
        case(
            "SELECT v.id, t.x FROM v, TABLE(VALUES (v.c + ?), (?)) AS t(x) WHERE v.id < 8",
            "Values t",
            [
                vec![i(1), i(9)],
                vec![i(100), n.clone()],
                vec![n.clone(), i(-4)],
            ],
            false,
            &[],
        ),
        case(
            "WITH q AS (SELECT id, c FROM v WHERE tag = 1) SELECT id FROM q WHERE c > ?",
            "Rel q",
            [vec![i(30)], vec![i(45)], vec![n.clone()]],
            false,
            &[],
        ),
        case(
            "SELECT id FROM v WHERE tag = ? AND c IN (SELECT y FROM h WHERE x < ?)",
            "Scan v",
            [vec![i(1), i(7)], vec![i(2), i(12)], vec![i(3), n]],
            false,
            // `h.x` has no B-tree: `x < NULL` changes no choice, no re-plan.
            &[],
        ),
    ]
}

#[test]
fn a_cached_select_plan_reads_every_bind_position_like_inline_literals() {
    let db = bind_fixture();
    for case in bind_cases() {
        db.set_csr_enabled(case.csr);
        for dop in [1, 4] {
            db.set_parallelism(dop);
            let explain = format!("EXPLAIN {}", case.sql);
            let plan = db.execute_with_params(&explain, &case.binds[0]).unwrap();
            let plan: Vec<String> = plan.rows.iter().map(|r| format!("{:?}", r[0])).collect();
            assert!(
                plan.iter().any(|line| line.contains(case.node)),
                "{}: no `{}` in\n{}",
                case.sql,
                case.node,
                plan.join("\n")
            );
            let prepared = prepare(case.sql);
            let mut cores = 0;
            for (run, params) in case.binds.iter().enumerate() {
                let (hits, replans) = db.plan_cache_stats();
                let got = db.execute_prepared(&prepared, params).unwrap();
                let (hit, replan) = db.plan_cache_stats();
                let (hit, replan) = (hit - hits, replan - replans);
                let what = format!("{} {params:?} at dop {dop}", case.sql);
                if run == 0 {
                    assert_eq!(hit, 0, "{what}");
                    cores = replan;
                } else if case.replans.contains(&run) {
                    assert!(replan > 0 && hit + replan == cores, "{what}");
                } else {
                    assert_eq!((hit, replan), (cores, 0), "{what}: a plan hit");
                }
                let want = db.execute(&inline(case.sql, params)).unwrap();
                assert_eq!(got.columns, want.columns, "{what}");
                assert_eq!(got.rows, want.rows, "{what}");
            }
        }
    }
}

/// A NULL bind re-plans a cached core only where it could have been a
/// B-tree range bound: `tag` and `h.x` have no index, so flipping either
/// to NULL changes no choice, while `c` has one (`v_c`).
#[test]
fn a_null_bind_re_plans_only_where_it_could_bound_a_b_tree_range() {
    let db = bind_fixture();
    let (i, n) = (Value::Int, Value::Null);
    let cases = [
        (
            "SELECT id FROM v WHERE tag = ? AND c IN (SELECT y FROM h WHERE x < ?)",
            [
                vec![i(1), i(7)],
                vec![n.clone(), i(7)],
                vec![i(2), n.clone()],
                vec![n.clone(), n.clone()],
            ],
            false,
        ),
        (
            "SELECT id, c FROM v WHERE c >= ? AND c <= ?",
            [
                vec![i(10), i(20)],
                vec![n.clone(), i(20)],
                vec![i(10), n.clone()],
                vec![n.clone(), n.clone()],
            ],
            true,
        ),
    ];
    for (sql, binds, range) in cases {
        let prepared = prepare(sql);
        for (run, params) in binds.iter().enumerate() {
            let (_, replans) = db.plan_cache_stats();
            let got = db.execute_prepared(&prepared, params).unwrap();
            let replanned = db.plan_cache_stats().1 > replans;
            // Every run after the first flips a range bind's NULL-ness.
            assert_eq!(replanned, run == 0 || range, "{sql} {params:?}");
            let want = db.execute(&inline(sql, params)).unwrap();
            assert_eq!(got.rows, want.rows, "{sql} {params:?}");
        }
    }
}
