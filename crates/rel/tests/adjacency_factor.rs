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
