//! Byte-identity of the CSR access path and list-based (factorized)
//! execution against the row engine's index nested-loop joins.
//!
//! Every test runs the same SQL with the CSR path enabled and disabled and
//! requires identical rows in identical order — multi-hop chains extend the
//! factored representation level by level, so these cover level extension,
//! list-wise after-filters, the flatten points (projection, ORDER BY),
//! aggregation reading the factor in place (over enough leaves that
//! per-morsel partial groups merge), and zero-kept-column expansions.

use sqlgraph_rel::{Database, Value};

/// A two-table adjacency fixture big enough for the planner's CSR gate:
/// `adj` has 420 rows fanned out over 30 sources, plus a `seed` table of
/// starting points. `adj.dst` wraps back into the source id space so the
/// join can chain multiple hops.
fn graph_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE seed (sid INTEGER PRIMARY KEY)")
        .unwrap();
    db.execute(
        "CREATE TABLE adj (id INTEGER PRIMARY KEY, src INTEGER, dst INTEGER, w INTEGER, tag TEXT)",
    )
    .unwrap();
    db.execute("CREATE INDEX adj_src ON adj (src)").unwrap();
    for i in 0..6 {
        db.execute_with_params("INSERT INTO seed VALUES (?)", &[Value::Int(i)])
            .unwrap();
    }
    for i in 0..420i64 {
        db.execute_with_params(
            "INSERT INTO adj VALUES (?, ?, ?, ?, ?)",
            &[
                Value::Int(i),
                Value::Int(i % 30),
                Value::Int((i * 7) % 30),
                Value::Int(i % 5),
                Value::str(if i % 3 == 0 { "a" } else { "b" }),
            ],
        )
        .unwrap();
    }
    db.execute("ANALYZE").unwrap();
    db
}

/// Run `sql` with CSR off then on; require byte-identical results and that
/// the CSR run actually exercised the CSR path.
fn assert_csr_identical(db: &Database, sql: &str) {
    db.set_csr_enabled(false);
    let row = db
        .execute(sql)
        .unwrap_or_else(|e| panic!("row engine failed: {e}\nSQL: {sql}"));
    db.set_csr_enabled(true);
    let builds = db.csr_builds();
    let csr = db
        .execute(sql)
        .unwrap_or_else(|e| panic!("csr engine failed: {e}\nSQL: {sql}"));
    assert!(
        db.csr_builds() > builds || db.csr_cache_len() > 0,
        "query never took the CSR path: {sql}"
    );
    assert_eq!(csr.rows, row.rows, "csr diverged on: {sql}");
    assert_eq!(csr.columns, row.columns);
}

#[test]
fn single_hop_projection_flattens_identically() {
    let db = graph_db();
    assert_csr_identical(
        &db,
        "SELECT s.sid, a.dst FROM seed s, adj a WHERE s.sid = a.src",
    );
}

#[test]
fn chained_hops_extend_the_factor_level_by_level() {
    let db = graph_db();
    assert_csr_identical(
        &db,
        "SELECT a1.dst, a2.dst FROM seed s, adj a1, adj a2 \
         WHERE s.sid = a1.src AND a1.dst = a2.src",
    );
    assert_csr_identical(
        &db,
        "SELECT a3.dst FROM seed s, adj a1, adj a2, adj a3 \
         WHERE s.sid = a1.src AND a1.dst = a2.src AND a2.dst = a3.src",
    );
}

#[test]
fn after_filter_on_expansion_columns_is_listwise() {
    let db = graph_db();
    // w/tag live in the last expansion level: the filter runs list-wise.
    assert_csr_identical(
        &db,
        "SELECT a.dst FROM seed s, adj a WHERE s.sid = a.src AND a.w > 2",
    );
    assert_csr_identical(
        &db,
        "SELECT a2.dst FROM seed s, adj a1, adj a2 \
         WHERE s.sid = a1.src AND a1.dst = a2.src AND a2.tag = 'a'",
    );
}

#[test]
fn cross_level_filter_falls_back_to_flatten() {
    let db = graph_db();
    // The predicate reads both levels: the factor must flatten, and the
    // result must still match the row engine exactly.
    assert_csr_identical(
        &db,
        "SELECT a1.dst, a2.dst FROM seed s, adj a1, adj a2 \
         WHERE s.sid = a1.src AND a1.dst = a2.src AND a1.w < a2.w",
    );
}

#[test]
fn order_by_flattens_identically() {
    let db = graph_db();
    assert_csr_identical(
        &db,
        "SELECT a2.dst FROM seed s, adj a1, adj a2 \
         WHERE s.sid = a1.src AND a1.dst = a2.src \
         ORDER BY a2.dst DESC, a2.id",
    );
}

#[test]
fn aggregates_over_factors_match() {
    let db = graph_db();
    // Factorized count (no flatten) ...
    assert_csr_identical(
        &db,
        "SELECT COUNT(*) FROM seed s, adj a1, adj a2 \
         WHERE s.sid = a1.src AND a1.dst = a2.src",
    );
    // ... grouped aggregation (reads the factor in place) ...
    assert_csr_identical(
        &db,
        "SELECT a2.dst, COUNT(*), SUM(a2.w) FROM seed s, adj a1, adj a2 \
         WHERE s.sid = a1.src AND a1.dst = a2.src GROUP BY a2.dst ORDER BY a2.dst",
    );
    // ... and DISTINCT over the flattened expansion.
    assert_csr_identical(
        &db,
        "SELECT DISTINCT a2.dst FROM seed s, adj a1, adj a2 \
         WHERE s.sid = a1.src AND a1.dst = a2.src ORDER BY a2.dst",
    );
}

#[test]
fn zero_kept_columns_preserve_multiplicity() {
    let db = graph_db();
    // Nothing from `adj` is projected, but each match must still contribute
    // one row — the factor level has width 0 yet counts elements.
    assert_csr_identical(&db, "SELECT s.sid FROM seed s, adj a WHERE s.sid = a.src");
    assert_csr_identical(
        &db,
        "SELECT COUNT(*) FROM seed s, adj a WHERE s.sid = a.src",
    );
}

#[test]
fn csr_results_identical_across_dop() {
    let db = graph_db();
    let sql = "SELECT a2.dst FROM seed s, adj a1, adj a2 \
               WHERE s.sid = a1.src AND a1.dst = a2.src";
    db.set_parallelism(1);
    let serial = db.execute(sql).unwrap();
    for dop in [2usize, 4, 8] {
        db.set_parallelism(dop);
        let parallel = db.execute(sql).unwrap();
        assert_eq!(serial.rows, parallel.rows, "csr diverged at dop {dop}");
    }
    db.set_parallelism(0);
}

/// A two-hop fixture whose factor has more than three morsels of leaves, so
/// grouped aggregation over it merges per-morsel partials: every source of
/// `adj` is a seed, 600 edges fan out 20 per source, and `x` is a DOUBLE
/// (NULL on every 11th edge) whose sums depend on the order they are added
/// in.
fn multi_morsel_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE seed (sid INTEGER PRIMARY KEY)")
        .unwrap();
    db.execute(
        "CREATE TABLE adj (id INTEGER PRIMARY KEY, src INTEGER, dst INTEGER, \
         w INTEGER, x DOUBLE, tag TEXT)",
    )
    .unwrap();
    db.execute("CREATE INDEX adj_src ON adj (src)").unwrap();
    for i in 0..30 {
        db.execute_with_params("INSERT INTO seed VALUES (?)", &[Value::Int(i)])
            .unwrap();
    }
    for i in 0..600i64 {
        let x = if i % 11 == 0 {
            Value::Null
        } else {
            Value::Double(i as f64 * 0.1 + 1.0 / 3.0)
        };
        db.execute_with_params(
            "INSERT INTO adj VALUES (?, ?, ?, ?, ?, ?)",
            &[
                Value::Int(i),
                Value::Int(i % 30),
                Value::Int((i * 7) % 30),
                Value::Int(i % 5),
                x,
                Value::str(["a", "b", "c"][(i % 3) as usize]),
            ],
        )
        .unwrap();
    }
    db.execute("ANALYZE").unwrap();
    db
}

#[test]
fn grouped_aggregates_over_a_multi_morsel_factor_match_at_every_dop() {
    let db = multi_morsel_db();
    let hops = "FROM seed s, adj a1, adj a2 WHERE s.sid = a1.src AND a1.dst = a2.src";
    let leaves = db.execute(&format!("SELECT COUNT(*) {hops}")).unwrap();
    let leaves = leaves.scalar().and_then(Value::as_int).unwrap() as usize;
    assert!(
        leaves >= 3 * sqlgraph_rel::parallel::MORSEL_ROWS,
        "{leaves} leaves"
    );
    let queries = [
        // Float SUM/AVG, one argument from an earlier level.
        format!("SELECT a2.dst, SUM(a2.x), AVG(a1.x), COUNT(*) {hops} GROUP BY a2.dst"),
        // COUNT(DISTINCT), MIN/MAX.
        format!(
            "SELECT a2.tag, COUNT(DISTINCT a1.dst), MIN(a2.x), MAX(a1.w), MAX(a2.tag) \
             {hops} GROUP BY a2.tag"
        ),
        // A two-column key: a base column and a leaf column.
        format!("SELECT s.sid, a2.w, COUNT(a2.x), SUM(a2.w) {hops} GROUP BY s.sid, a2.w"),
        // HAVING.
        format!("SELECT a2.dst, COUNT(*) {hops} GROUP BY a2.dst HAVING SUM(a2.x) > 1000"),
        // Non-grouped projected columns come from each group's first row.
        format!("SELECT a2.dst, a1.id, s.sid, a2.id, COUNT(*) {hops} GROUP BY a2.dst"),
        // Scalar aggregates over the whole factor.
        format!("SELECT SUM(a2.x), AVG(a1.x), COUNT(DISTINCT a2.dst), COUNT(a1.x) {hops}"),
        // Empty input, grouped and scalar.
        format!("SELECT a2.dst, SUM(a2.x) {hops} AND a2.w > 100 GROUP BY a2.dst"),
        format!("SELECT SUM(a2.x), COUNT(*), MIN(a2.w), s.sid {hops} AND a2.w > 100"),
    ];
    for sql in &queries {
        db.set_parallelism(1);
        let serial = db.execute(sql).unwrap();
        for dop in [1usize, 2, 4, 8] {
            db.set_parallelism(dop);
            assert_csr_identical(&db, sql);
            let csr = db.execute(sql).unwrap();
            assert_eq!(csr.rows, serial.rows, "dop {dop} diverged on: {sql}");
        }
    }
    db.set_parallelism(0);
}

#[test]
fn null_probe_keys_expand_to_nothing() {
    let db = graph_db();
    db.execute("INSERT INTO seed VALUES (100)").unwrap();
    db.execute("INSERT INTO adj VALUES (9000, NULL, 1, 0, 'a')")
        .unwrap();
    // NULL never matches: neither as a probe key nor as an index entry.
    assert_csr_identical(
        &db,
        "SELECT s.sid, a.dst FROM seed s, adj a WHERE s.sid = a.src",
    );
}

/// A wide adjacency table in the paper's OPA shape: per vertex a row of four
/// `(lbl, val)` triads, plus spill rows for vertices whose edges do not fit
/// in one — 320 rows, so the table clears the CSR floor and its `vid` index
/// is non-unique. A third of the triads are NULL, every 17th row has none at
/// all, and neither has any row of a vertex divisible by 13. `front` probes vertices 0..139 (120..139 have no row) and NULL;
/// the rows of vertices 1000 and up are never probed, and their labels are
/// not numbers.
fn wide_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE front (fid INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    db.execute(
        "CREATE TABLE wadj (id INTEGER PRIMARY KEY, vid INTEGER, spill INTEGER, \
         lbl0 TEXT, val0 INTEGER, lbl1 TEXT, val1 INTEGER, \
         lbl2 TEXT, val2 INTEGER, lbl3 TEXT, val3 INTEGER)",
    )
    .unwrap();
    db.execute("CREATE INDEX wadj_vid ON wadj (vid)").unwrap();
    for i in 0..=140i64 {
        let v = if i == 140 { Value::Null } else { Value::Int(i) };
        db.execute_with_params("INSERT INTO front VALUES (?, ?)", &[Value::Int(i), v])
            .unwrap();
    }
    for i in 0..320i64 {
        let vid = if i < 300 { i % 120 } else { 1000 + i };
        let mut row = vec![
            Value::Int(i),
            Value::Int(vid),
            Value::Int((i >= 120) as i64),
        ];
        for j in 0..4i64 {
            if i % 17 == 0 || vid % 13 == 0 || (i + j) % 3 == 0 {
                row.extend([Value::Null, Value::Null]);
            } else {
                let lbl = if vid >= 1000 {
                    "x"
                } else {
                    ["1", "2", "3"][((i * (j + 1)) % 3) as usize]
                };
                row.extend([Value::str(lbl), Value::Int((i * 7 + j * 13) % 150)]);
            }
        }
        db.execute_with_params(
            "INSERT INTO wadj VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            &row,
        )
        .unwrap();
    }
    db.execute("ANALYZE").unwrap();
    db
}

/// One unlabeled hop over [`wide_db`]: probe, unpivot, then the `AND`s.
const HOP: &str = "FROM front f, wadj p, TABLE(VALUES (p.lbl0, p.val0), (p.lbl1, p.val1), \
                   (p.lbl2, p.val2), (p.lbl3, p.val3)) AS t(lbl, val) WHERE f.v = p.vid";

/// [`assert_csr_identical`] at DOP 1 and 4, with the unpivot fused into the
/// CSR step on the CSR side.
fn assert_fused_identical(db: &Database, sql: &str) {
    for dop in [1, 4] {
        db.set_parallelism(dop);
        assert_csr_identical(db, sql);
        assert_fused(db, sql, &[]);
    }
    db.set_parallelism(0);
}

/// `sql`'s EXPLAIN shows the lateral `t` fused into a CSR step.
fn assert_fused(db: &Database, sql: &str, params: &[Value]) {
    let plan = db
        .execute_with_params(&format!("EXPLAIN {sql}"), params)
        .unwrap()
        .strings()
        .join("\n");
    assert!(
        plan.contains("CsrExpand p [wadj] (index wadj_vid, unpivot ("),
        "not fused: {sql}\n{plan}"
    );
}

#[test]
fn a_fused_unpivot_matches_the_lateral_step() {
    let db = wide_db();
    let queries = [
        // The unlabeled hop: only `t.val` is read, nothing of `p`.
        format!("SELECT t.val {HOP} AND t.val IS NOT NULL"),
        // A constant label, folded into the entry too.
        format!("SELECT f.fid, t.lbl, t.val {HOP} AND t.val IS NOT NULL AND t.lbl = '2'"),
        // `p`'s own columns beside the unpivot's.
        format!("SELECT p.vid, p.spill, t.val {HOP} AND t.val IS NOT NULL AND t.lbl IN ('1', '3')"),
        // No conjunct at all: every tuple, NULL triads included.
        format!("SELECT f.fid, t.lbl, t.val {HOP}"),
        // Zero surviving tuples for every probe key.
        format!("SELECT f.fid, t.val {HOP} AND t.val > 1000"),
        // A conjunct that is not a column against a constant stays a filter.
        format!("SELECT t.val {HOP} AND t.val IS NOT NULL AND t.val + 1 > 60"),
        // Aggregation reads the fused level in place.
        format!("SELECT COUNT(*), SUM(t.val), MAX(f.fid) {HOP} AND t.val IS NOT NULL"),
        format!("SELECT t.val, COUNT(*) {HOP} AND t.val IS NOT NULL GROUP BY t.val ORDER BY t.val"),
        // Two hops: the second probes with the first's unpivoted values.
        "SELECT f.fid, t2.val FROM front f, wadj p, \
         TABLE(VALUES (p.lbl0, p.val0), (p.lbl1, p.val1), (p.lbl2, p.val2), (p.lbl3, p.val3)) AS t(lbl, val), \
         wadj p2, TABLE(VALUES (p2.lbl0, p2.val0), (p2.lbl3, p2.val3)) AS t2(lbl, val) \
         WHERE f.v = p.vid AND t.val IS NOT NULL AND t.val = p2.vid AND t2.val IS NOT NULL"
            .to_string(),
    ];
    for sql in &queries {
        assert_fused_identical(&db, sql);
    }
    // Probe keys with no row, and with rows but no surviving tuple, occur.
    let sql = format!("SELECT COUNT(DISTINCT f.fid) {HOP} AND t.val IS NOT NULL");
    let reached = db.execute(&sql).unwrap().scalar().and_then(Value::as_int);
    assert_eq!(reached, Some(120 - 10));
}

#[test]
fn a_bound_label_filter_is_not_folded_and_one_entry_serves_every_bind() {
    let db = wide_db();
    let sql = format!("SELECT f.fid, t.val {HOP} AND t.val IS NOT NULL AND t.lbl IN (?, ?)");
    let binds = [
        vec![Value::str("1"), Value::str("3")],
        vec![Value::str("2"), Value::Null],
    ];
    for dop in [1, 4] {
        db.set_parallelism(dop);
        for params in &binds {
            db.set_csr_enabled(false);
            let row = db.execute_with_params(&sql, params).unwrap();
            db.set_csr_enabled(true);
            let csr = db.execute_with_params(&sql, params).unwrap();
            assert_eq!(csr.rows, row.rows, "diverged at dop {dop} on {params:?}");
            assert_fused(&db, &sql, params);
        }
        // Both bind sets read one entry: the bound filter stays a step filter.
        let builds = db.csr_builds();
        for params in &binds {
            db.execute_with_params(&sql, params).unwrap();
        }
        assert_eq!(db.csr_builds(), builds, "a bind set built its own entry");
    }
    db.set_parallelism(0);
}

#[test]
fn a_conjunct_that_can_fail_is_never_folded_into_the_entry() {
    let db = wide_db();
    // The CAST fails on the labels of the rows no probe reaches, which an
    // entry would read: only a step filter, run on probed rows, succeeds.
    for sql in [
        format!("SELECT t.val {HOP} AND t.val IS NOT NULL AND CAST(t.lbl AS INTEGER) > 1"),
        format!("SELECT t.val {HOP} AND CAST(t.lbl AS INTEGER) > 1 AND t.val IS NOT NULL"),
    ] {
        assert_fused_identical(&db, &sql);
    }
    let everywhere = "SELECT COUNT(*) FROM wadj p WHERE CAST(p.lbl1 AS INTEGER) > 1";
    assert!(
        db.execute(everywhere).is_err(),
        "the fixture holds no failing row"
    );
}
