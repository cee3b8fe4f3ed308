//! Morsel-driven parallel execution: differential tests proving parallel
//! operators return row-identical results to serial at every DOP, the
//! EXPLAIN DOP display, statement-cache bounding, and stats staleness.

use sqlgraph_rel::{Database, Value};

fn plan_of(db: &Database, sql: &str) -> String {
    db.execute(&format!("EXPLAIN {sql}"))
        .unwrap()
        .strings()
        .join("\n")
}

/// Build the planner test schema: a small graph-ish mix of tables that
/// exercises full scans, hash joins, pushdown filters, and aggregation.
fn build_corpus_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY, grp INTEGER, score DOUBLE)")
        .unwrap();
    db.execute("CREATE TABLE e (src INTEGER, dst INTEGER, w INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE names (id INTEGER PRIMARY KEY, label TEXT)")
        .unwrap();
    for i in 0..120i64 {
        db.execute_with_params(
            "INSERT INTO v VALUES (?, ?, ?)",
            &[
                Value::Int(i),
                Value::Int(i % 7),
                Value::Double(i as f64 * 0.31),
            ],
        )
        .unwrap();
        db.execute_with_params(
            "INSERT INTO e VALUES (?, ?, ?)",
            &[Value::Int(i), Value::Int((i * 13) % 120), Value::Int(i % 5)],
        )
        .unwrap();
        db.execute_with_params(
            "INSERT INTO names VALUES (?, ?)",
            &[Value::Int(i), Value::str(format!("n{}", i % 11))],
        )
        .unwrap();
    }
    db.execute("CREATE INDEX e_src ON e (src)").unwrap();
    db.execute("ANALYZE").unwrap();
    db
}

/// The planner test corpus: joins (reorderable and explicit), constant
/// filters, wildcard projections, aggregates with GROUP BY and DISTINCT,
/// float accumulation, ORDER BY, and cross joins.
const CORPUS: &[&str] = &[
    "SELECT * FROM v, e, names WHERE v.id = e.src AND e.dst = names.id AND v.grp = 2",
    "SELECT names.label FROM names JOIN e ON names.id = e.dst JOIN v ON e.src = v.id \
     WHERE v.grp < 3 ORDER BY names.label",
    "SELECT v.id, names.label FROM v, names WHERE v.id = names.id AND names.label = 'n7'",
    "SELECT v.grp, COUNT(*), SUM(v.score), AVG(v.score), MIN(v.id), MAX(v.score) \
     FROM v WHERE v.id < 100 GROUP BY v.grp ORDER BY v.grp",
    "SELECT COUNT(DISTINCT names.label) FROM names, e WHERE names.id = e.dst AND e.w = 1",
    "SELECT v.grp, COUNT(*) FROM v, e WHERE v.id = e.src GROUP BY v.grp \
     HAVING COUNT(*) > 10 ORDER BY v.grp",
    "SELECT v.id FROM v WHERE v.score > 20.0 ORDER BY v.id DESC LIMIT 7",
    "SELECT a.id, b.id FROM v a, v b WHERE a.grp = b.grp AND a.id < 5 AND b.id < 5 \
     ORDER BY a.id, b.id",
];

#[test]
fn parallel_matches_serial_row_for_row() {
    let db = build_corpus_db();
    for sql in CORPUS {
        db.set_parallelism(1);
        let serial = db.execute(sql).unwrap();
        for dop in [2usize, 4, 8] {
            db.set_parallelism(dop);
            let parallel = db.execute(sql).unwrap();
            assert_eq!(serial.columns, parallel.columns, "{sql} (dop {dop})");
            assert_eq!(
                serial.rows, parallel.rows,
                "parallel dop {dop} diverged on: {sql}"
            );
        }
    }
    db.set_parallelism(0);
}

const FACT_ROWS: i64 = 12_000;
const DIM_ROWS: i64 = 600;

/// `fact.k` and `fact.v` of fact row `i`.
fn fact(i: i64) -> (i64, f64) {
    ((i * 17) % DIM_ROWS, i as f64 * 0.003)
}

/// `fact.x` (NULL every fifth row, else NaN every seventh) and `fact.s` of
/// fact row `i`.
fn fact_xs(i: i64) -> (Option<f64>, String) {
    let x = match i {
        _ if i % 5 == 0 => None,
        _ if i % 7 == 0 => Some(f64::NAN),
        _ => Some((i % 100) as f64),
    };
    (x, format!("s{:04}", (i * 7) % 1000))
}

/// A fact table above the auto-parallel threshold and twelve morsels long,
/// joined to a dim table: loaded with multi-row INSERTs so a debug build
/// stays fast.
fn build_fact_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE fact (id INTEGER PRIMARY KEY, k INTEGER, v DOUBLE, x DOUBLE, s TEXT)")
        .unwrap();
    db.execute("CREATE TABLE dim (k INTEGER PRIMARY KEY, tag INTEGER)")
        .unwrap();
    for start in (0..FACT_ROWS).step_by(1_000) {
        let rows: Vec<String> = (start..start + 1_000)
            .map(|i| {
                let (x, s) = fact_xs(i);
                let x = match x {
                    None => "NULL".to_string(),
                    Some(x) if x.is_nan() => "0.0 / 0.0".to_string(),
                    Some(x) => format!("{x:?}"),
                };
                format!("({i}, {}, {:?}, {x}, '{s}')", fact(i).0, fact(i).1)
            })
            .collect();
        db.execute(&format!("INSERT INTO fact VALUES {}", rows.join(", ")))
            .unwrap();
    }
    let rows: Vec<String> = (0..DIM_ROWS).map(|k| format!("({k}, {})", k % 3)).collect();
    db.execute(&format!("INSERT INTO dim VALUES {}", rows.join(", ")))
        .unwrap();
    db.execute("ANALYZE").unwrap();
    db
}

#[test]
fn multi_morsel_scan_agg_and_joins_match_the_formulas_at_every_dop() {
    // A predicate-heavy scan + grouped aggregation: every group has partials
    // in several morsels, so the merge order decides group order and the
    // float SUM.
    const SCAN_AGG: &str = "SELECT fact.k, COUNT(*), SUM(fact.v) FROM fact \
                            WHERE fact.v > 1.0 AND fact.id % 3 = 0 GROUP BY fact.k";
    // A hash join with no usable index. The planner builds on fact and
    // probes with 200 dim rows, one morsel, so two more shapes put each
    // join operator across morsels: the outer join takes the partitioned
    // build over 8 666 fact rows, the self-join probes with 4 000.
    const JOIN: &str = "SELECT COUNT(*) FROM fact, dim \
                        WHERE fact.k = dim.k AND dim.tag = 1 AND fact.v > 10.0";
    const OUTER: &str = "SELECT COUNT(*), SUM(fact.v) FROM dim \
                         LEFT OUTER JOIN fact ON fact.k = dim.k AND fact.v > 10.0";
    const SELF: &str = "SELECT COUNT(*) FROM fact a, fact b \
                        WHERE a.k = b.k AND a.v > 30.0 AND b.id % 3 = 0";
    // One pushed filter per predicate shape the full scan evaluates, each
    // paired with the ids it must keep: modulo (by zero, NULL, too), NULL
    // tests, an Int column against a Double constant, a Double column
    // holding NaN (every comparison with NaN is false), string order.
    type Keep = fn(i64) -> bool;
    let filters: [(&str, Keep); 8] = [
        ("fact.id % 7 = 3", |i| i % 7 == 3),
        ("fact.id % 0 = 0", |_| false),
        ("fact.x IS NULL", |i| fact_xs(i).0.is_none()),
        ("fact.x IS NOT NULL", |i| fact_xs(i).0.is_some()),
        ("fact.k >= 299.5", |i| fact(i).0 >= 300),
        ("fact.x > 50.0", |i| fact_xs(i).0.is_some_and(|x| x > 50.0)),
        ("fact.x <> 10.0", |i| {
            fact_xs(i).0.is_some_and(|x| x != 10.0 && !x.is_nan())
        }),
        ("fact.s < 's0100'", |i| fact_xs(i).1.as_str() < "s0100"),
    ];
    let filter_sql: Vec<String> = filters
        .iter()
        .map(|(p, _)| format!("SELECT fact.id FROM fact WHERE {p}"))
        .collect();
    let db = build_fact_db();
    assert!(FACT_ROWS as usize >= 10 * sqlgraph_rel::parallel::MORSEL_ROWS);
    assert!(FACT_ROWS as usize > sqlgraph_rel::parallel::AUTO_PARALLEL_MIN_ROWS);

    db.set_parallelism(1);
    let mut queries = vec![SCAN_AGG, JOIN, OUTER, SELF];
    queries.extend(filter_sql.iter().map(String::as_str));
    let serial: Vec<_> = queries.iter().map(|q| db.execute(q).unwrap()).collect();
    for dop in [2usize, 4, 8, 0] {
        db.set_parallelism(dop);
        for (q, want) in queries.iter().zip(&serial) {
            assert_eq!(db.execute(q).unwrap().rows, want.rows, "dop {dop}: {q}");
        }
    }
    db.set_parallelism(0);

    let rows = || (0..FACT_ROWS).map(|i| (i, fact(i).0, fact(i).1));
    let close = |got: &Value, want: f64| (got.as_f64().unwrap() - want).abs() <= 1e-9 * want;

    // Groups in first-appearance row order, with their counts and sums.
    let mut groups: Vec<(i64, i64, f64)> = Vec::new();
    for (_, k, v) in rows().filter(|&(i, _, v)| v > 1.0 && i % 3 == 0) {
        match groups.iter_mut().find(|g| g.0 == k) {
            Some(g) => {
                g.1 += 1;
                g.2 += v;
            }
            None => groups.push((k, 1, v)),
        }
    }
    assert_eq!(serial[0].rows.len(), groups.len());
    for (row, &(k, n, sum)) in serial[0].rows.iter().zip(&groups) {
        assert_eq!(row[0], Value::Int(k), "group order is first appearance");
        assert_eq!(row[1], Value::Int(n), "count of group {k}");
        assert!(close(&row[2], sum), "sum of group {k}: {:?}", row[2]);
    }

    let joined = rows().filter(|&(_, k, v)| k % 3 == 1 && v > 10.0).count();
    assert_eq!(serial[1].scalar(), Some(&Value::Int(joined as i64)));

    // Every dim key matches some fact row with v > 10, so no row is padded.
    let matched: Vec<f64> = rows().filter(|r| r.2 > 10.0).map(|r| r.2).collect();
    assert_eq!(serial[2].rows[0][0], Value::Int(matched.len() as i64));
    assert!(close(&serial[2].rows[0][1], matched.iter().sum()));

    let mut late_per_key = vec![0i64; DIM_ROWS as usize];
    for (_, k, _) in rows().filter(|r| r.2 > 30.0) {
        late_per_key[k as usize] += 1;
    }
    let pairs: i64 = rows()
        .filter(|r| r.0 % 3 == 0)
        .map(|r| late_per_key[r.1 as usize])
        .sum();
    assert_eq!(serial[3].scalar(), Some(&Value::Int(pairs)));

    for ((p, keep), (sql, got)) in filters.iter().zip(filter_sql.iter().zip(&serial[4..])) {
        let want: Vec<i64> = (0..FACT_ROWS).filter(|&i| keep(i)).collect();
        assert_eq!(got.int_column(), want, "{p}");
        let plan = plan_of(&db, sql);
        let pushed = format!("(full, {FACT_ROWS} rows, ");
        let counted = format!("1 pushed filters: {FACT_ROWS} -> {} rows", want.len());
        assert!(
            plan.contains(&pushed) && plan.contains(&counted),
            "{p}:\n{plan}"
        );
    }
}

#[test]
fn parallel_survives_concurrent_writes() {
    // Not a determinism check (writers race the scan) — a sanity check
    // that morsel workers reading a table while another thread writes it
    // neither panic nor deadlock, and every returned row is well-formed.
    let db = std::sync::Arc::new(build_corpus_db());
    db.set_parallelism(4);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer_db = db.clone();
        let stop_ref = &stop;
        s.spawn(move || {
            let mut i = 1000i64;
            while !stop_ref.load(std::sync::atomic::Ordering::Relaxed) {
                writer_db
                    .execute_with_params(
                        "INSERT INTO v VALUES (?, ?, ?)",
                        &[Value::Int(i), Value::Int(i % 7), Value::Double(0.5)],
                    )
                    .unwrap();
                writer_db
                    .execute_with_params("DELETE FROM v WHERE id = ?", &[Value::Int(i)])
                    .unwrap();
                i += 1;
            }
        });
        for _ in 0..40 {
            let rel = db
                .execute("SELECT v.grp, COUNT(*) FROM v, e WHERE v.id = e.src GROUP BY v.grp")
                .unwrap();
            for row in &rel.rows {
                assert_eq!(row.len(), 2);
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    db.set_parallelism(0);
}

#[test]
fn explain_reports_chosen_dop() {
    let db = build_corpus_db();
    db.set_parallelism(4);
    let plan = plan_of(&db, "SELECT COUNT(*) FROM e WHERE e.w = 2");
    let scan_line = |plan: &str| {
        let line = plan.lines().find(|l| l.contains("Scan e [e] (full, "));
        line.unwrap_or_else(|| panic!("no full scan:\n{plan}"))
            .to_string()
    };
    assert!(scan_line(&plan).contains("dop 4"), "{plan}");
    assert!(
        plan.contains("aggregate (") && plan.contains("dop 4)"),
        "{plan}"
    );
    // Serial pin shows dop 1 on the same steps.
    db.set_parallelism(1);
    let plan = plan_of(&db, "SELECT COUNT(*) FROM e WHERE e.w = 2");
    assert!(scan_line(&plan).contains("dop 1"), "{plan}");
    // Auto mode stays serial below the row threshold.
    db.set_parallelism(0);
    let plan = plan_of(&db, "SELECT COUNT(*) FROM e WHERE e.w = 2");
    assert!(
        scan_line(&plan).contains("dop 1"),
        "small tables must not pay thread overhead:\n{plan}"
    );
}

#[test]
fn stmt_cache_is_bounded_under_distinct_statements() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    // A hot statement, re-executed throughout so its used bit stays set.
    let hot = "SELECT id FROM t WHERE id = 1";
    for i in 0..9000i64 {
        db.execute(&format!("SELECT id FROM t WHERE id = {i}"))
            .unwrap();
        if i % 64 == 0 {
            db.execute(hot).unwrap();
        }
    }
    // Unbounded growth would put all ~9000 texts in the cache.
    assert!(
        db.stmt_cache_len() <= 4096,
        "stmt cache leaked: {} entries",
        db.stmt_cache_len()
    );
    db.execute(hot).unwrap();
}

#[test]
fn stale_stats_are_discarded_by_the_planner() {
    let db = Database::new();
    db.execute("CREATE TABLE t1 (id INTEGER PRIMARY KEY, c INTEGER, j INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE t2 (id INTEGER PRIMARY KEY, c INTEGER, j INTEGER)")
        .unwrap();
    // t1: 40 rows, c all-distinct (analyzed ndv 40 → `c = 1` keeps ~1 row).
    // t2: 40 rows, c eight-valued (analyzed ndv 8 → `c = 1` keeps ~5 rows).
    for i in 0..40i64 {
        db.execute_with_params(
            "INSERT INTO t1 VALUES (?, ?, ?)",
            &[Value::Int(i), Value::Int(i), Value::Int(i % 4)],
        )
        .unwrap();
        db.execute_with_params(
            "INSERT INTO t2 VALUES (?, ?, ?)",
            &[Value::Int(i), Value::Int(i % 8), Value::Int(i % 4)],
        )
        .unwrap();
    }
    db.execute("ANALYZE").unwrap();

    // Fresh stats: t1's est (~1 row) beats t2's (~5), so the textual order
    // t2, t1 is flipped.
    let sql = "SELECT t1.id FROM t2, t1 WHERE t1.j = t2.j AND t1.c = 1 AND t2.c = 1";
    let plan = plan_of(&db, sql);
    assert!(plan.contains("join order: t1, t2 (reordered)"), "{plan}");

    // Grow t1 to 140 rows (>2× the analyzed 40) with a constant c. The
    // analyzed ndv now wildly misrepresents `c = 1`; the staleness check
    // must discard it and fall back to seeded stats, under which t2 leads
    // (textual order — no reorder note).
    for i in 40..140i64 {
        db.execute_with_params(
            "INSERT INTO t1 VALUES (?, ?, ?)",
            &[Value::Int(i), Value::Int(1), Value::Int(i % 4)],
        )
        .unwrap();
    }
    let plan = plan_of(&db, sql);
    assert!(
        !plan.contains("(reordered)"),
        "stale analyzed ndv should no longer drive the join order:\n{plan}"
    );

    // Re-ANALYZE refreshes the stats; they are trusted again.
    db.execute("ANALYZE").unwrap();
    let plan = plan_of(&db, sql);
    assert!(plan.contains("estimated"), "{plan}");

    // And in every configuration the answer itself is unchanged.
    let rel = db.execute(sql).unwrap();
    assert!(!rel.rows.is_empty());
}
