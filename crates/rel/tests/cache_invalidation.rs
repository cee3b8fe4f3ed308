//! What engine reconfiguration must and must not invalidate. The
//! prepared-statement cache holds parsed ASTs that are planned afresh on
//! every execution, so it survives `set_parallelism` / `set_csr_enabled`
//! and the replayed statement honours the new setting; CSR entries are
//! derived data and are dropped (by the switch, `ANALYZE`, and every
//! mutation). The statement cache itself is bounded: a full insert evicts
//! one entry, never a sweep.

use sqlgraph_rel::db::STMT_CACHE_CAP;
use sqlgraph_rel::{Database, Value};

fn primed_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)")
        .unwrap();
    for i in 0..16 {
        db.execute_with_params(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Int(i), Value::Int(i % 3)],
        )
        .unwrap();
    }
    // Populate the cache with a SELECT (INSERT statements are cached too).
    db.execute("SELECT COUNT(*) FROM t WHERE k = 1").unwrap();
    assert!(db.stmt_cache_len() > 0, "cache should be primed");
    db
}

#[test]
fn cached_statement_survives_set_parallelism() {
    let db = primed_db();
    let cached = db.stmt_cache_len();
    db.set_parallelism(4);
    assert_eq!(db.stmt_cache_len(), cached);
    // The cached AST replays under the new DOP.
    let rel = db.execute("SELECT COUNT(*) FROM t WHERE k = 1").unwrap();
    assert_eq!(rel.scalar(), Some(&Value::Int(5)));
    assert_eq!(db.stmt_cache_len(), cached);
}

/// A database whose `adj` table is large enough (≥ 256 rows) and shaped
/// right (non-unique hash index) for the planner to pick the CSR access
/// path, primed so the CSR cache holds one entry.
fn csr_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE seed (sid INTEGER PRIMARY KEY)")
        .unwrap();
    db.execute("CREATE TABLE adj (id INTEGER PRIMARY KEY, src INTEGER, dst INTEGER)")
        .unwrap();
    db.execute("CREATE INDEX adj_src ON adj (src)").unwrap();
    for i in 0..20 {
        db.execute_with_params("INSERT INTO seed VALUES (?)", &[Value::Int(i)])
            .unwrap();
    }
    for i in 0..400 {
        db.execute_with_params(
            "INSERT INTO adj VALUES (?, ?, ?)",
            &[Value::Int(i), Value::Int(i % 20), Value::Int(1000 + i)],
        )
        .unwrap();
    }
    let rel = db
        .execute("SELECT COUNT(*) FROM seed s, adj a WHERE s.sid = a.src")
        .unwrap();
    assert_eq!(rel.scalar(), Some(&Value::Int(400)));
    assert!(db.csr_cache_len() > 0, "csr cache should be primed");
    db
}

#[test]
fn set_csr_enabled_drops_csr_cache_and_replans_cached_statements() {
    let db = csr_db();
    let cached = db.stmt_cache_len();
    assert!(cached > 0);
    db.set_csr_enabled(false);
    assert_eq!(db.stmt_cache_len(), cached, "parsed ASTs name no plan");
    assert_eq!(db.csr_cache_len(), 0);
    let rel = db
        .execute("SELECT COUNT(*) FROM seed s, adj a WHERE s.sid = a.src")
        .unwrap();
    assert_eq!(rel.scalar(), Some(&Value::Int(400)));
    assert_eq!(db.csr_cache_len(), 0, "csr disabled: nothing rebuilt");
    db.set_csr_enabled(true);
    db.execute("SELECT COUNT(*) FROM seed s, adj a WHERE s.sid = a.src")
        .unwrap();
    assert!(db.csr_cache_len() > 0, "re-enabled: csr rebuilt");
}

#[test]
fn analyze_invalidates_cached_csr() {
    let db = csr_db();
    assert!(db.csr_cache_len() > 0);
    db.execute("ANALYZE adj").unwrap();
    assert_eq!(
        db.csr_cache_len(),
        0,
        "ANALYZE adj must drop the table's cached CSR entries"
    );
    // The next query rebuilds against current contents.
    let builds = db.csr_builds();
    let rel = db
        .execute("SELECT COUNT(*) FROM seed s, adj a WHERE s.sid = a.src")
        .unwrap();
    assert_eq!(rel.scalar(), Some(&Value::Int(400)));
    assert!(db.csr_builds() > builds, "post-ANALYZE query rebuilds CSR");
}

#[test]
fn row_drift_past_staleness_threshold_rebuilds_csr() {
    // The >2x drift that invalidates analyzed statistics is mutation-driven,
    // and every mutation bumps the table content version — so a CSR built
    // before the drift can never be served after it.
    let db = csr_db();
    db.execute("ANALYZE adj").unwrap();
    db.execute("SELECT COUNT(*) FROM seed s, adj a WHERE s.sid = a.src")
        .unwrap();
    assert!(db.csr_cache_len() > 0);
    let builds = db.csr_builds();
    // Triple the table: well past the 2x staleness threshold.
    for i in 400..1200 {
        db.execute_with_params(
            "INSERT INTO adj VALUES (?, ?, ?)",
            &[Value::Int(i), Value::Int(i % 20), Value::Int(1000 + i)],
        )
        .unwrap();
    }
    let rel = db
        .execute("SELECT COUNT(*) FROM seed s, adj a WHERE s.sid = a.src")
        .unwrap();
    assert_eq!(rel.scalar(), Some(&Value::Int(1200)));
    assert!(
        db.csr_builds() > builds,
        "stale CSR must be rebuilt, not served"
    );
}

#[test]
fn every_mutation_invalidates_cached_csr() {
    let db = csr_db();
    let count = || {
        db.execute("SELECT COUNT(*) FROM seed s, adj a WHERE s.sid = a.src")
            .unwrap()
            .scalar()
            .cloned()
    };
    db.execute("DELETE FROM adj WHERE id = 0").unwrap();
    assert_eq!(count(), Some(Value::Int(399)));
    db.execute("UPDATE adj SET src = 19 WHERE id = 1").unwrap();
    assert_eq!(count(), Some(Value::Int(399)));
    db.execute("INSERT INTO adj VALUES (2000, 0, 42)").unwrap();
    assert_eq!(count(), Some(Value::Int(400)));
}

#[test]
fn reconfigured_query_results_match() {
    // Run a query, reconfigure, re-run the identical (now cached) SQL
    // string, and require the same answer.
    let db = primed_db();
    let before = db
        .execute("SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k")
        .unwrap();
    db.set_parallelism(2);
    let after = db
        .execute("SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k")
        .unwrap();
    assert_eq!(before.rows, after.rows);
}

#[test]
fn full_statement_cache_evicts_one_entry_per_insert() {
    let db = primed_db();
    let mut last = db.stmt_cache_len();
    for i in 0..STMT_CACHE_CAP + 1000 {
        db.prepare(&format!("SELECT k FROM t WHERE id = {i}"))
            .unwrap();
        let len = db.stmt_cache_len();
        assert!(len <= STMT_CACHE_CAP, "cache grew to {len}");
        assert!(len >= last, "insert {i} evicted {} entries", last + 1 - len);
        last = len;
    }
    assert_eq!(last, STMT_CACHE_CAP);
    // Still a cache: a statement prepared again is not inserted again.
    db.prepare("SELECT k FROM t WHERE id = 0").unwrap();
    let rel = db.execute("SELECT k FROM t WHERE id = 7").unwrap();
    assert_eq!(rel.scalar(), Some(&Value::Int(1)));
    assert_eq!(db.stmt_cache_len(), STMT_CACHE_CAP);
}
