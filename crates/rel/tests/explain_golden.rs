//! Golden-file EXPLAIN tests.
//!
//! Each query's full EXPLAIN output — planner notes, the physical operator
//! tree, and the result row count — is compared against a checked-in
//! golden file under `tests/golden/`. The fixture data, statistics, and
//! parallelism are pinned so the plans are fully deterministic.
//!
//! To regenerate after an intentional planner or EXPLAIN-format change:
//!
//! ```text
//! SQLGRAPH_BLESS=1 cargo test -p sqlgraph-rel --test explain_golden
//! ```
//!
//! then review the golden diffs like any other code change.

use sqlgraph_rel::{Database, Value};
use std::path::PathBuf;

/// Deterministic fixture: a fact table with a composite-key index, a small
/// dimension table, a two-triad adjacency table in the paper's OPA shape,
/// and fresh ANALYZE statistics. Parallelism is pinned to
/// 4 so per-node `dop` values do not depend on the host's core count.
fn fixture() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE fact (id INTEGER PRIMARY KEY, k INTEGER, v DOUBLE)")
        .unwrap();
    db.execute("CREATE TABLE dim (k INTEGER PRIMARY KEY, tag INTEGER)")
        .unwrap();
    db.execute("CREATE INDEX fact_k ON fact (k)").unwrap();
    db.execute("CREATE INDEX fact_k_v ON fact (k, v) USING BTREE")
        .unwrap();
    for i in 0..500i64 {
        db.execute_with_params(
            "INSERT INTO fact VALUES (?, ?, ?)",
            &[
                Value::Int(i),
                Value::Int(i % 20),
                Value::Double((i % 7) as f64),
            ],
        )
        .unwrap();
    }
    for k in 0..20i64 {
        db.execute_with_params(
            "INSERT INTO dim VALUES (?, ?)",
            &[Value::Int(k), Value::Int(k % 2)],
        )
        .unwrap();
    }
    db.execute("CREATE TABLE opa (vid INTEGER, lbl0 TEXT, val0 INTEGER, lbl1 TEXT, val1 INTEGER)")
        .unwrap();
    db.execute("CREATE INDEX opa_vid ON opa (vid)").unwrap();
    for i in 0..300i64 {
        let triad = |on: bool, v: i64| match on {
            true => [Value::str("e"), Value::Int(v)],
            false => [Value::Null, Value::Null],
        };
        let mut row = vec![Value::Int(i % 20)];
        row.extend(triad(i % 3 != 0, i % 11));
        row.extend(triad(i % 4 == 0, i % 7));
        db.execute_with_params("INSERT INTO opa VALUES (?, ?, ?, ?, ?)", &row)
            .unwrap();
    }
    db.execute("ANALYZE").unwrap();
    db.set_parallelism(4);
    db
}

/// The fixed query set: one per plan shape the EXPLAIN output must keep
/// rendering faithfully.
const GOLDEN_QUERIES: &[(&str, &str)] = &[
    (
        "full_scan_pushdown",
        "SELECT fact.id FROM fact WHERE fact.v > 3.0",
    ),
    ("index_point", "SELECT fact.id FROM fact WHERE fact.k = 7"),
    (
        "index_range",
        "SELECT fact.id FROM fact WHERE fact.k = 7 AND fact.v >= 2.0 AND fact.v < 5.0",
    ),
    (
        "hash_join_reordered",
        "SELECT COUNT(*) FROM fact, dim WHERE fact.k = dim.k AND dim.tag = 1",
    ),
    (
        "index_join",
        "SELECT dim.tag FROM dim, fact WHERE fact.k = dim.k AND dim.k = 3",
    ),
    (
        "aggregate_sort",
        "SELECT fact.k, COUNT(*), SUM(fact.v) FROM fact WHERE fact.v > 1.0 \
         GROUP BY fact.k ORDER BY fact.k",
    ),
    // The paper's hop ending: a frontier CTE, LEFT OUTER JOINed to the
    // overflow table through its index.
    (
        "left_outer_join",
        "WITH t AS (SELECT dim.k AS val FROM dim WHERE dim.tag = 1) \
         SELECT COALESCE(s.v, p.val) AS val FROM t p LEFT OUTER JOIN fact s ON p.val = s.k",
    ),
    // The paper's unlabeled hop: the lateral unpivot fused into the CSR
    // expansion, `t.val IS NOT NULL` folded into its entry, `t.val + 0 > 3`
    // (not a column against a constant) left a step filter.
    (
        "csr_unpivot",
        "SELECT t.val, COUNT(*) FROM dim, opa p, \
         TABLE(VALUES (p.lbl0, p.val0), (p.lbl1, p.val1)) AS t(lbl, val) \
         WHERE dim.k = p.vid AND dim.tag = 1 AND t.val IS NOT NULL AND t.val + 0 > 3 \
         GROUP BY t.val",
    ),
];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

#[test]
fn explain_matches_golden_files() {
    let db = fixture();
    let bless = std::env::var_os("SQLGRAPH_BLESS").is_some();
    let mut diffs = Vec::new();
    for (name, sql) in GOLDEN_QUERIES {
        let got = db
            .execute(&format!("EXPLAIN {sql}"))
            .unwrap()
            .strings()
            .join("\n")
            + "\n";
        let path = golden_path(name);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run with SQLGRAPH_BLESS=1 to create it",
                path.display()
            )
        });
        if got != want {
            diffs.push(format!(
                "== {name} ==\n--- golden\n{want}\n--- actual\n{got}"
            ));
        }
    }
    assert!(
        diffs.is_empty(),
        "EXPLAIN output drifted from golden files (re-bless with SQLGRAPH_BLESS=1 if intentional):\n{}",
        diffs.join("\n")
    );
}

#[test]
fn golden_files_capture_key_plan_facts() {
    // Independent of exact formatting, the golden corpus must keep showing
    // the planner's headline behaviours: join reordering, predicate
    // pushdown, per-node parallelism, per-step cardinalities, and the outer
    // join as a planned node.
    let all: String = GOLDEN_QUERIES
        .iter()
        .map(|(name, _)| {
            std::fs::read_to_string(golden_path(name)).unwrap_or_else(|e| {
                panic!("missing golden file for {name} ({e}); run with SQLGRAPH_BLESS=1")
            })
        })
        .collect();
    assert!(all.contains("(reordered)"), "no join-order note in goldens");
    let node = |what: &str, fact: &str| {
        assert!(
            all.lines().any(|l| l.contains(what) && l.contains(fact)),
            "no `{what}` node stating `{fact}` in goldens"
        );
    };
    node(
        "Scan fact [fact] (full, ",
        "pushed filters: 500 -> 213 rows",
    );
    node("Scan fact [fact] (full, ", "dop 4");
    node("CsrExpand fact", "[estimated 250 rows, actual 250 (list)]");
    node("IndexJoin s [fact]", "left outer, index fact_k");
}
