//! Cost-based planner tests: ANALYZE statistics, join reordering under
//! skewed cardinalities and skewed ndv, predicate pushdown, and join
//! results checked against rows recomputed from the data's formulas.

use sqlgraph_rel::{Database, Value};

fn plan_of(db: &Database, sql: &str) -> String {
    db.execute(&format!("EXPLAIN {sql}"))
        .unwrap()
        .strings()
        .join("\n")
}

/// Sort rows for order-insensitive comparison.
fn canon(rel: &sqlgraph_rel::Relation) -> Vec<String> {
    let mut rows: Vec<String> = rel.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

#[test]
fn analyze_reports_row_counts() {
    let db = Database::new();
    db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE b (id INTEGER PRIMARY KEY)")
        .unwrap();
    for i in 0..7i64 {
        db.execute_with_params(
            "INSERT INTO a VALUES (?, ?)",
            &[Value::Int(i), Value::Int(i % 3)],
        )
        .unwrap();
    }
    db.execute("INSERT INTO b VALUES (1)").unwrap();

    // Single-table form returns one row with the analyzed count.
    let rel = db.execute("ANALYZE a").unwrap();
    assert_eq!(rel.columns, ["table", "rows"]);
    assert_eq!(rel.rows, vec![vec![Value::str("a"), Value::Int(7)]]);

    // Bare ANALYZE covers every table.
    let rel = db.execute("ANALYZE").unwrap();
    let mut names: Vec<String> = rel.rows.iter().map(|r| format!("{:?}", r[0])).collect();
    names.sort();
    assert_eq!(rel.rows.len(), 2, "{rel:?}");
    assert!(
        names[0].contains('a') && names[1].contains('b'),
        "{names:?}"
    );

    // Unknown tables error rather than silently no-op.
    assert!(db.execute("ANALYZE nope").is_err());
}

#[test]
fn join_reordered_smallest_first() {
    let db = Database::new();
    db.execute("CREATE TABLE big (id INTEGER PRIMARY KEY, k INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE small (k INTEGER PRIMARY KEY)")
        .unwrap();
    for i in 0..300i64 {
        db.execute_with_params(
            "INSERT INTO big VALUES (?, ?)",
            &[Value::Int(i), Value::Int(i % 5)],
        )
        .unwrap();
    }
    for k in 0..5i64 {
        db.execute_with_params("INSERT INTO small VALUES (?)", &[Value::Int(k)])
            .unwrap();
    }
    db.execute("ANALYZE").unwrap();

    // Textual order starts with the big table; the planner must flip it.
    let plan = plan_of(&db, "SELECT big.id FROM big, small WHERE big.k = small.k");
    assert!(
        plan.contains("join order: small, big (reordered)"),
        "{plan}"
    );
    // Estimated and actual cardinalities are reported on each step's node.
    for (node, cardinality) in [
        ("Scan small", "[estimated 5 rows, actual 5]"),
        ("HashJoin (build big", "[estimated 300 rows, actual 300]"),
    ] {
        let line = plan.lines().find(|l| l.contains(node)).expect(node);
        assert!(line.contains(cardinality), "{plan}");
    }

    // The reordered plan returns exactly the rows of the textual order.
    let rel = db
        .execute("SELECT big.id FROM big, small WHERE big.k = small.k ORDER BY big.id")
        .unwrap();
    assert_eq!(rel.rows.len(), 300);
}

#[test]
fn skewed_ndv_drives_join_order() {
    let db = Database::new();
    // t_uniq: 100 rows, c all-distinct => `c = const` keeps ~1 row.
    // t_dup: 60 rows, c two-valued   => `c = const` keeps ~30 rows.
    // Pure row counts would start with t_dup; ndv statistics must start
    // with t_uniq instead.
    db.execute("CREATE TABLE t_uniq (id INTEGER PRIMARY KEY, c INTEGER, j INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE t_dup (id INTEGER PRIMARY KEY, c INTEGER, j INTEGER)")
        .unwrap();
    for i in 0..100i64 {
        db.execute_with_params(
            "INSERT INTO t_uniq VALUES (?, ?, ?)",
            &[Value::Int(i), Value::Int(i), Value::Int(i % 10)],
        )
        .unwrap();
    }
    for i in 0..60i64 {
        db.execute_with_params(
            "INSERT INTO t_dup VALUES (?, ?, ?)",
            &[Value::Int(i), Value::Int(i % 2), Value::Int(i % 10)],
        )
        .unwrap();
    }
    db.execute("ANALYZE").unwrap();

    let sql = "SELECT t_dup.id FROM t_dup, t_uniq \
               WHERE t_dup.j = t_uniq.j AND t_dup.c = 1 AND t_uniq.c = 42";
    let plan = plan_of(&db, sql);
    assert!(
        plan.contains("join order: t_uniq, t_dup (reordered)"),
        "ndv skew should start from the all-distinct table:\n{plan}"
    );

    // And the answer is unchanged by the reorder.
    let rel = db.execute(sql).unwrap();
    let expected: Vec<i64> = (0..60)
        .filter(|i| i % 2 == 1 && 42 % 10 == i % 10)
        .collect();
    let mut got: Vec<i64> = rel
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Int(i) => *i,
            other => panic!("{other:?}"),
        })
        .collect();
    got.sort_unstable();
    assert_eq!(got, expected);
}

#[test]
fn constant_predicates_pushed_below_join() {
    let db = Database::new();
    db.execute("CREATE TABLE l (id INTEGER PRIMARY KEY, k INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE r (id INTEGER PRIMARY KEY, k INTEGER, tag TEXT)")
        .unwrap();
    for i in 0..50i64 {
        db.execute_with_params(
            "INSERT INTO l VALUES (?, ?)",
            &[Value::Int(i), Value::Int(i % 4)],
        )
        .unwrap();
        db.execute_with_params(
            "INSERT INTO r VALUES (?, ?, ?)",
            &[
                Value::Int(i),
                Value::Int(i % 4),
                Value::str(if i % 2 == 0 { "even" } else { "odd" }),
            ],
        )
        .unwrap();
    }
    db.execute("ANALYZE").unwrap();

    let sql = "SELECT l.id, r.id FROM l, r WHERE l.k = r.k AND r.tag = 'even' AND l.id < 10";
    let plan = plan_of(&db, sql);
    for scan in ["Scan l [l]", "Scan r [r]"] {
        let line = plan.lines().find(|l| l.contains(scan)).expect(scan);
        assert!(
            line.contains("pushed filters: 50 -> "),
            "constant conjuncts filter base tables:\n{plan}"
        );
    }

    // Cross-check rows against a straightforward recomputation.
    let rel = db.execute(sql).unwrap();
    let mut expect = 0usize;
    for l in 0..10i64 {
        for r in (0..50i64).filter(|r| r % 2 == 0) {
            if l % 4 == r % 4 {
                expect += 1;
            }
        }
    }
    assert_eq!(rel.rows.len(), expect);
}

#[test]
fn join_queries_return_rows_from_generating_formulas() {
    let db = Database::new();
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY, grp INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE e (src INTEGER, dst INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE names (id INTEGER PRIMARY KEY, label TEXT)")
        .unwrap();
    for i in 0..40i64 {
        db.execute_with_params(
            "INSERT INTO v VALUES (?, ?)",
            &[Value::Int(i), Value::Int(i % 6)],
        )
        .unwrap();
        db.execute_with_params(
            "INSERT INTO e VALUES (?, ?)",
            &[Value::Int(i), Value::Int((i * 7) % 40)],
        )
        .unwrap();
        db.execute_with_params(
            "INSERT INTO names VALUES (?, ?)",
            &[Value::Int(i), Value::str(format!("n{i}"))],
        )
        .unwrap();
    }
    db.execute("CREATE INDEX e_src ON e (src)").unwrap();
    db.execute("ANALYZE").unwrap();

    // Mix of comma joins, an explicit JOIN (flattened and reordered like
    // the comma form), constant filters, and SELECT * (column-order
    // sensitivity). Expected rows come from the generating formulas above:
    // grp = i % 6, dst = 7i % 40 (a bijection on 0..40), label = n{i}.
    let label = |i: i64| Value::str(format!("n{i}"));

    let star = db
        .execute(
            "SELECT * FROM v, e, names \
             WHERE v.id = e.src AND e.dst = names.id AND v.grp = 2",
        )
        .unwrap();
    assert_eq!(star.columns, ["id", "grp", "src", "dst", "id", "label"]);
    let mut expected: Vec<String> = (0..40i64)
        .filter(|i| i % 6 == 2)
        .map(|i| {
            let dst = (i * 7) % 40;
            let row = vec![
                Value::Int(i),
                Value::Int(2),
                Value::Int(i),
                Value::Int(dst),
                Value::Int(dst),
                label(dst),
            ];
            format!("{row:?}")
        })
        .collect();
    expected.sort();
    assert_eq!(canon(&star), expected);

    let joined = db
        .execute(
            "SELECT names.label FROM names JOIN e ON names.id = e.dst JOIN v ON e.src = v.id \
             WHERE v.grp < 3 ORDER BY names.label",
        )
        .unwrap();
    let mut labels: Vec<String> = (0..40i64)
        .filter(|i| i % 6 < 3)
        .map(|i| format!("n{}", (i * 7) % 40))
        .collect();
    labels.sort();
    let expected: Vec<Vec<Value>> = labels.into_iter().map(|l| vec![Value::str(l)]).collect();
    assert_eq!(joined.rows, expected);

    let point = db
        .execute(
            "SELECT v.id, names.label FROM v, names WHERE v.id = names.id AND names.label = 'n7'",
        )
        .unwrap();
    assert_eq!(point.rows, vec![vec![Value::Int(7), label(7)]]);
}

#[test]
fn explain_three_table_join_shows_cardinalities() {
    let db = Database::new();
    db.execute("CREATE TABLE f (a INTEGER, b INTEGER)").unwrap();
    db.execute("CREATE TABLE d1 (a INTEGER PRIMARY KEY)")
        .unwrap();
    db.execute("CREATE TABLE d2 (b INTEGER PRIMARY KEY)")
        .unwrap();
    for i in 0..200i64 {
        db.execute_with_params(
            "INSERT INTO f VALUES (?, ?)",
            &[Value::Int(i % 20), Value::Int(i % 3)],
        )
        .unwrap();
    }
    for a in 0..20i64 {
        db.execute_with_params("INSERT INTO d1 VALUES (?)", &[Value::Int(a)])
            .unwrap();
    }
    for b in 0..3i64 {
        db.execute_with_params("INSERT INTO d2 VALUES (?)", &[Value::Int(b)])
            .unwrap();
    }
    db.execute("ANALYZE").unwrap();

    let plan = plan_of(
        &db,
        "SELECT f.a FROM f, d1, d2 WHERE f.a = d1.a AND f.b = d2.b",
    );
    // Three-table join: the tiny d2 leads, f connects, d1 last.
    assert!(plan.contains("join order: d2, f, d1 (reordered)"), "{plan}");
    // Every planned step's node reports estimated vs. actual cardinality.
    let steps = plan
        .lines()
        .skip_while(|l| *l != "plan:")
        .filter(|l| l.contains("estimated") && l.contains("actual"))
        .count();
    assert_eq!(steps, 3, "{plan}");
}

#[test]
fn left_outer_join_is_planned_like_any_other_unit() {
    let db = Database::new();
    db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, x INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE b (id INTEGER PRIMARY KEY, y INTEGER)")
        .unwrap();
    db.execute("CREATE INDEX b_y ON b (y)").unwrap();
    db.execute("INSERT INTO a VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50)")
        .unwrap();
    db.execute("INSERT INTO b VALUES (1, 20), (2, 20), (3, 50)")
        .unwrap();
    let sql = "SELECT a.id, b.id FROM a LEFT OUTER JOIN b ON a.x = b.y WHERE a.id = 2";
    let plan = plan_of(&db, sql);
    // The preserved side's WHERE conjunct reaches its scan: one primary-key
    // lookup, not a filter over a join of every row of `a`.
    assert!(
        plan.contains("Scan a [a] (index a_pk_id, point, 1 key parts)"),
        "{plan}"
    );
    assert!(
        plan.contains("IndexJoin b [b] (left outer, index b_y, 1 key parts) [actual 2]"),
        "{plan}"
    );
    assert!(!plan.contains("Filter"), "{plan}");
    assert_eq!(
        db.execute(sql).unwrap().rows,
        [
            [Value::Int(2), Value::Int(1)],
            [Value::Int(2), Value::Int(2)]
        ]
    );
}

/// An uncorrelated `IN (SELECT …)` runs once per execution of the statement
/// — not once per attempt to compile the conjunct holding it, of which the
/// planner makes several (key gathering, pushdown, hash-key picking, the
/// after-step sweep). EXPLAIN shows every run of the subquery's scan.
#[test]
fn in_subquery_runs_once_per_statement() {
    let db = Database::new();
    for ddl in [
        "CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)",
        "CREATE TABLE w (id INTEGER PRIMARY KEY, z INTEGER)",
        "CREATE TABLE u (y INTEGER)",
        "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)",
        "INSERT INTO w VALUES (1, 10), (2, 25), (3, 30)",
        "INSERT INTO u VALUES (10), (30)",
    ] {
        db.execute(ddl).unwrap();
    }
    for (sql, want) in [
        (
            "SELECT a.x FROM t a, w b WHERE a.id = b.id AND b.z IN (SELECT y FROM u) ORDER BY a.x",
            vec![10, 30],
        ),
        (
            "SELECT a.x FROM t a WHERE a.x IN (SELECT y FROM u) ORDER BY a.x",
            vec![10, 30],
        ),
    ] {
        let plan = plan_of(&db, sql);
        let scans = plan.lines().filter(|l| l.contains("Scan u [u]")).count();
        assert_eq!(scans, 1, "the subquery ran {scans} times:\n{plan}");
        assert_eq!(db.execute(sql).unwrap().int_column(), want, "{sql}");
    }
}

#[test]
fn leading_scan_is_not_reported_as_a_cross_join() {
    let db = Database::new();
    db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, x INTEGER)")
        .unwrap();
    db.execute("INSERT INTO a VALUES (1, 10), (2, 20)").unwrap();
    let plan = plan_of(&db, "SELECT a.x FROM a WHERE a.id = 2");
    assert!(!plan.to_lowercase().contains("cross"), "{plan}");
}
