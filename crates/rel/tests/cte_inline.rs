//! CTE inlining, pinned by explicit expected rows.
//!
//! A CTE read once, as a comma FROM item of a later core, whose body is a
//! select-project-join with bare-column projections, is merged into that
//! core when the statement becomes executable (DESIGN, *CTE inlining*).
//! Every case here runs through the statement cache, through a held
//! [`Prepared`] and through a bare `execute_statement`, at DOP 1 and 4 with
//! the CSR access path on and off, and must return exactly the listed rows
//! (sorted: inlining may change the join order and with it the row order).
//! `EXPLAIN` then shows which cores absorbed which CTEs, and that each
//! refused shape kept its CTE.

use sqlgraph_rel::sql::parse_statement;
use sqlgraph_rel::{Database, Prepared, Value};

/// Fixture. `p.k` and `v.pk` both carry NULLs and duplicates; `v` has
/// 300 rows (at the CSR size line) and an index on `pk`.
///
/// ```text
/// p(id, k,    name)      v(id, pk, w) for i in 0..300:
/// 1  10    'a'             (i, NULL if i % 7 = 0 else (i % 5) * 10, i)
/// 2  20    'b'
/// 3  NULL  'c'
/// 4  20    'd'
/// 5  30    NULL
/// 6  40    'f'
/// ```
fn fixture() -> Database {
    let db = Database::new();
    for ddl in [
        "CREATE TABLE p (id INTEGER PRIMARY KEY, k INTEGER, name TEXT)",
        "CREATE TABLE v (id INTEGER PRIMARY KEY, pk INTEGER, w INTEGER)",
        "CREATE INDEX v_pk ON v (pk)",
        "INSERT INTO p VALUES (1, 10, 'a'), (2, 20, 'b'), (3, NULL, 'c'), (4, 20, 'd'), \
         (5, 30, NULL), (6, 40, 'f')",
    ] {
        db.execute(ddl).unwrap();
    }
    for i in 0..300i64 {
        let pk = match i % 7 {
            0 => Value::Null,
            _ => Value::Int(i % 5 * 10),
        };
        db.execute_with_params(
            "INSERT INTO v VALUES (?, ?, ?)",
            &[Value::Int(i), pk, Value::Int(i)],
        )
        .unwrap();
    }
    db
}

/// A cell: `i(3)`, `t("a")` or [`NULL`].
fn i(v: i64) -> Value {
    Value::Int(v)
}

fn t(s: &str) -> Value {
    Value::str(s)
}

const NULL: Value = Value::Null;

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

/// Run `sql` with `params` every way a statement runs, at DOP 1 and 4 with
/// CSR on and off, and require exactly `want` (as a multiset).
fn check_with(db: &Database, sql: &str, params: &[Value], want: &[Vec<Value>]) {
    let want = sorted(want.to_vec());
    let held = Prepared::new(parse_statement(sql).unwrap());
    for csr in [true, false] {
        db.set_csr_enabled(csr);
        for dop in [1, 4] {
            db.set_parallelism(dop);
            let runs = [
                ("cached", db.execute_with_params(sql, params)),
                ("prepared", db.execute_prepared(&held, params)),
                (
                    "statement",
                    db.execute_statement(&parse_statement(sql).unwrap(), params, None),
                ),
            ];
            for (how, got) in runs {
                let got = got.unwrap_or_else(|e| panic!("{how}, csr {csr}, dop {dop}: {e}\n{sql}"));
                assert_eq!(sorted(got.rows), want, "{how}, csr {csr}, dop {dop}\n{sql}");
            }
        }
    }
}

fn check(sql: &str, want: &[Vec<Value>]) {
    check_with(&fixture(), sql, &[], want);
}

/// The inlined cases: each is merged into its consumer (see
/// `explain_names_each_absorbed_cte`).
const COLLISION: &str = "WITH c AS (SELECT p.id AS id, v.w AS w FROM p p, v v \
     WHERE v.pk = p.k AND p.name IS NOT NULL) \
     SELECT p.name, v.w FROM c v, p p WHERE v.id = p.id AND v.w < 20";
const UNQUALIFIED: &str = "WITH c AS (SELECT id, k AS kv FROM p WHERE k IS NOT NULL) \
     SELECT kv, COUNT(*) AS n FROM c WHERE id > 1 GROUP BY kv";
const WILDCARDS: &str = "WITH c AS (SELECT p.id AS id, p.name AS name FROM p p WHERE p.k >= 20), \
     d AS (SELECT x.* FROM c x WHERE x.id < 6) SELECT * FROM d";
const CHAIN: &str = "WITH t1 AS (SELECT v.pk AS val, v.w AS w FROM v v WHERE v.w < 100), \
     t2 AS (SELECT t.val AS val, t.w AS w FROM t1 t, p p WHERE t.val = p.k AND p.id <> 4), \
     t3 AS (SELECT q.val AS val FROM t2 q WHERE q.w >= 50) \
     SELECT val, COUNT(*) AS n FROM t3 GROUP BY val";
const BINDS: &str = "WITH c AS (SELECT v.id AS id, v.pk AS pk FROM v v \
     WHERE v.w < ? AND v.pk IN (SELECT p.k FROM p p WHERE p.name IS NOT NULL)) \
     SELECT c.pk, COUNT(*) AS n FROM c WHERE c.id >= ? GROUP BY c.pk";
const NULL_JOIN: &str = "WITH c AS (SELECT p.k AS k, p.name AS name FROM p p) \
     SELECT c.name, q.id FROM c, p q WHERE c.k = q.k";
/// A body whose only projection is `a.*`, over a base table and over a
/// kept CTE (the translation's filter step, `SELECT v.* FROM va p, t v`).
const STAR_TABLE: &str = "WITH c AS (SELECT q.* FROM p q WHERE q.k = 20) SELECT * FROM c";
const STAR_CTE: &str = "WITH k AS (SELECT p.k + 0 AS val, p.id AS id FROM p p), \
     f AS (SELECT x.* FROM v w, k x WHERE x.val = w.pk AND w.w < 10) \
     SELECT f.id, COUNT(*) AS n FROM f GROUP BY f.id";
const NULL_GROUP: &str = "WITH c AS (SELECT v.pk AS pk FROM v v WHERE v.w < 30) \
     SELECT pk, COUNT(*) AS n FROM c GROUP BY pk";

/// The refused cases: each keeps its CTE materialized.
const TWICE: &str = "WITH c AS (SELECT p.id AS id, p.k AS k FROM p p WHERE p.k IS NOT NULL) \
     SELECT a.id, b.id FROM c a, c b WHERE a.k = b.k AND a.id < b.id";
const JOIN_OPERAND: &str = "WITH c AS (SELECT p.id AS id, p.k AS k FROM p p WHERE p.id <= 3) \
     SELECT c.id, q.id FROM c LEFT OUTER JOIN p q ON c.k = q.k";
const DISTINCT_BODY: &str =
    "WITH c AS (SELECT DISTINCT p.k AS k FROM p p) SELECT COUNT(*) AS n FROM c";
const AGGREGATE_BODY: &str = "WITH c AS (SELECT p.k AS k, COUNT(*) AS n FROM p p GROUP BY p.k) \
     SELECT c.k FROM c WHERE c.n > 1";
const COMPUTED: &str =
    "WITH c AS (SELECT p.id + 100 AS id FROM p p WHERE p.k = 20) SELECT id FROM c";
const LIMITED: &str = "WITH c AS (SELECT p.id AS id FROM p p WHERE p.k = 20) \
     SELECT id FROM c LIMIT 5";
const IN_SUBQUERY: &str = "WITH c AS (SELECT p.k AS k FROM p p WHERE p.id > 4) \
     SELECT q.id FROM p q WHERE q.k IN (SELECT c.k FROM c)";

#[test]
fn aliases_the_consumer_also_uses_keep_their_meaning() {
    // The body's `p`/`v` are `p`/`v` of its own join; the consumer's `v`
    // is the CTE and its `p` the outer copy of `p`.
    check(
        COLLISION,
        &[
            vec![t("a"), i(1)],
            vec![t("a"), i(6)],
            vec![t("a"), i(11)],
            vec![t("a"), i(16)],
            vec![t("b"), i(2)],
            vec![t("b"), i(12)],
            vec![t("b"), i(17)],
            vec![t("d"), i(2)],
            vec![t("d"), i(12)],
            vec![t("d"), i(17)],
            vec![t("f"), i(4)],
            vec![t("f"), i(9)],
            vec![t("f"), i(19)],
        ],
    );
}

#[test]
fn unqualified_columns_in_the_body_and_the_consumer() {
    check(
        UNQUALIFIED,
        &[vec![i(20), i(2)], vec![i(30), i(1)], vec![i(40), i(1)]],
    );
}

#[test]
fn table_and_bare_wildcards_expand_to_the_cte_columns() {
    check(
        WILDCARDS,
        &[vec![i(2), t("b")], vec![i(4), t("d")], vec![i(5), NULL]],
    );
    // The output names are the CTE's, whatever the body's columns were.
    let rel = fixture().execute(WILDCARDS).unwrap();
    assert_eq!(rel.columns, ["id", "name"]);
}

#[test]
fn a_body_star_reads_through_to_its_table() {
    check(
        STAR_TABLE,
        &[vec![i(2), i(20), t("b")], vec![i(4), i(20), t("d")]],
    );
    let rel = fixture().execute(STAR_TABLE).unwrap();
    assert_eq!(rel.columns, ["id", "k", "name"]);
    check(
        STAR_CTE,
        &[
            vec![i(1), i(2)],
            vec![i(2), i(1)],
            vec![i(4), i(1)],
            vec![i(5), i(2)],
            vec![i(6), i(2)],
        ],
    );
}

#[test]
fn a_chain_of_three_ctes_collapses_into_one_core() {
    check(
        CHAIN,
        &[
            vec![i(10), i(8)],
            vec![i(20), i(9)],
            vec![i(30), i(8)],
            vec![i(40), i(9)],
        ],
    );
}

#[test]
fn parameters_and_in_subqueries_in_the_body_rebind() {
    let db = fixture();
    check_with(
        &db,
        BINDS,
        &[i(30), i(10)],
        &[vec![i(10), i(3)], vec![i(20), i(4)], vec![i(40), i(3)]],
    );
    check_with(
        &db,
        BINDS,
        &[i(60), i(45)],
        &[vec![i(10), i(2)], vec![i(20), i(3)], vec![i(40), i(2)]],
    );
    // One held statement, rebound back and forth.
    let held = Prepared::new(parse_statement(BINDS).unwrap());
    for _ in 0..2 {
        let a = db.execute_prepared(&held, &[i(30), i(10)]).unwrap();
        assert_eq!(
            sorted(a.rows),
            [vec![i(10), i(3)], vec![i(20), i(4)], vec![i(40), i(3)]]
        );
        let b = db.execute_prepared(&held, &[i(60), i(45)]).unwrap();
        assert_eq!(
            sorted(b.rows),
            [vec![i(10), i(2)], vec![i(20), i(3)], vec![i(40), i(2)]]
        );
    }
}

#[test]
fn null_keys_join_nothing_and_group_together() {
    check(
        NULL_JOIN,
        &[
            vec![t("a"), i(1)],
            vec![t("b"), i(2)],
            vec![t("b"), i(4)],
            vec![t("d"), i(2)],
            vec![t("d"), i(4)],
            vec![NULL, i(5)],
            vec![t("f"), i(6)],
        ],
    );
    check(
        NULL_GROUP,
        &[
            vec![NULL, i(5)],
            vec![i(0), i(5)],
            vec![i(10), i(5)],
            vec![i(20), i(5)],
            vec![i(30), i(5)],
            vec![i(40), i(5)],
        ],
    );
}

#[test]
fn refused_shapes_return_their_rows() {
    check(TWICE, &[vec![i(2), i(4)]]);
    check(
        JOIN_OPERAND,
        &[
            vec![i(1), i(1)],
            vec![i(2), i(2)],
            vec![i(2), i(4)],
            vec![i(3), NULL],
        ],
    );
    check(DISTINCT_BODY, &[vec![i(5)]]);
    check(AGGREGATE_BODY, &[vec![i(20)]]);
    check(COMPUTED, &[vec![i(102)], vec![i(104)]]);
    check(LIMITED, &[vec![i(2)], vec![i(4)]]);
    check(IN_SUBQUERY, &[vec![i(5)], vec![i(6)]]);
}

/// The `plan:` lines of `sql`'s EXPLAIN, one per core that ran.
fn plan_lines(db: &Database, sql: &str, params: &[Value]) -> Vec<String> {
    let rel = db
        .execute_with_params(&format!("EXPLAIN {sql}"), params)
        .unwrap();
    rel.strings()
        .into_iter()
        .filter(|l| l.starts_with("plan:"))
        .collect()
}

#[test]
fn explain_names_each_absorbed_cte() {
    let db = fixture();
    for (sql, params, want) in [
        (COLLISION, &[][..], &["plan: [inlined c]"][..]),
        (UNQUALIFIED, &[], &["plan: [inlined c]"]),
        (WILDCARDS, &[], &["plan: [inlined c, d]"]),
        (CHAIN, &[], &["plan: [inlined t1, t2, t3]"]),
        // The IN subquery moved with the body and still runs as a core.
        (BINDS, &[i(30), i(10)], &["plan:", "plan: [inlined c]"]),
        (NULL_JOIN, &[], &["plan: [inlined c]"]),
        (STAR_TABLE, &[], &["plan: [inlined c]"]),
        (STAR_CTE, &[], &["plan:", "plan: [inlined f]"]),
        (NULL_GROUP, &[], &["plan: [inlined c]"]),
        (TWICE, &[], &["plan:", "plan:"]),
        (JOIN_OPERAND, &[], &["plan:", "plan:"]),
        (DISTINCT_BODY, &[], &["plan:", "plan:"]),
        (AGGREGATE_BODY, &[], &["plan:", "plan:"]),
        (COMPUTED, &[], &["plan:", "plan:"]),
        (LIMITED, &[], &["plan:", "plan:"]),
        (IN_SUBQUERY, &[], &["plan:", "plan:", "plan:"]),
    ] {
        assert_eq!(plan_lines(&db, sql, params), want, "{sql}");
    }
    // EXPLAIN ANALYZE puts the list before the output shape's time.
    let analyzed = db.execute(&format!("EXPLAIN ANALYZE {CHAIN}")).unwrap();
    let head = analyzed
        .strings()
        .into_iter()
        .find(|l| l.starts_with("plan:"));
    let head = head.expect("a plan line");
    assert!(
        head.starts_with("plan: [inlined t1, t2, t3] [output "),
        "{head}"
    );
}

#[test]
fn an_inlined_statement_plans_one_core_per_execution() {
    let db = fixture();
    let held = Prepared::new(parse_statement(CHAIN).unwrap());
    let (hits, replans) = db.plan_cache_stats();
    db.execute_prepared(&held, &[]).unwrap();
    db.execute_prepared(&held, &[]).unwrap();
    assert_eq!(db.plan_cache_stats(), (hits + 1, replans + 1));
}
