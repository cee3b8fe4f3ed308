//! What engine reconfiguration must and must not invalidate. The
//! prepared-statement cache holds parsed statements with the plans of
//! their SELECT cores; the statements survive `set_parallelism` /
//! `set_csr_enabled`, and a plan re-plans exactly when planning afresh
//! would build a different one — after DDL, `ANALYZE`, a > 2× row drift,
//! the CSR switch, a bulk load, or when the join order the current counts
//! give has moved — so its answer is always a fresh database's. CSR entries
//! are derived data and are dropped (by the switch, `ANALYZE`, and every
//! mutation). The statement cache itself is bounded: a full insert evicts
//! one entry, never a sweep.

use sqlgraph_rel::db::STMT_CACHE_CAP;
use sqlgraph_rel::sql::parse_statement;
use sqlgraph_rel::{Database, Prepared, Relation, Value};

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
    assert_eq!(
        db.stmt_cache_len(),
        cached,
        "statements stay; plans re-plan"
    );
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
fn a_committed_write_rebuilds_the_unpivot_entry_and_an_open_txn_keeps_its_snapshot() {
    // `csr_db`'s seeds probing a two-triad adjacency table: the lateral
    // unpivot fuses into the CSR step, so its entry is an unpivot entry.
    let db = csr_db();
    db.execute("CREATE TABLE wadj (vid INTEGER, lbl0 TEXT, val0 INTEGER, lbl1 TEXT, val1 INTEGER)")
        .unwrap();
    db.execute("CREATE INDEX wadj_vid ON wadj (vid)").unwrap();
    for i in 0..300 {
        let val1 = if i % 3 == 0 {
            Value::Int(i)
        } else {
            Value::Null
        };
        let row = [
            Value::Int(i % 20),
            Value::str("a"),
            Value::Int(i),
            Value::str("b"),
            val1,
        ];
        db.execute_with_params("INSERT INTO wadj VALUES (?, ?, ?, ?, ?)", &row)
            .unwrap();
    }
    let sql = "SELECT COUNT(*), SUM(t.val) FROM seed s, wadj p, \
               TABLE(VALUES (p.lbl0, p.val0), (p.lbl1, p.val1)) AS t(lbl, val) \
               WHERE s.sid = p.vid AND t.val IS NOT NULL";
    let plan = db
        .execute(&format!("EXPLAIN {sql}"))
        .unwrap()
        .strings()
        .join("\n");
    assert!(plan.contains("unpivot ("), "not fused:\n{plan}");
    let answer = |count: i64, sum: i64| vec![vec![Value::Int(count), Value::Int(sum)]];
    let before = answer(400, 44850 + 14850);
    assert_eq!(db.execute(sql).unwrap().rows, before);
    let (builds, entries) = (db.csr_builds(), db.csr_cache_len());
    assert_eq!(db.execute(sql).unwrap().rows, before);
    assert_eq!(
        db.csr_builds(),
        builds,
        "the unpivot entry is served from the cache"
    );

    let mut txn = db.begin();
    assert_eq!(txn.execute(sql).unwrap().rows, before);
    db.execute("INSERT INTO wadj VALUES (3, 'a', 1000, NULL, NULL)")
        .unwrap();
    let after = answer(401, 44850 + 14850 + 1000);
    assert_eq!(db.execute(sql).unwrap().rows, after, "the write is seen");
    assert!(
        db.csr_builds() > builds,
        "a committed write rebuilds the entry"
    );
    assert_eq!(db.csr_cache_len(), entries, "the stale entry was replaced");
    assert_eq!(
        txn.execute(sql).unwrap().rows,
        before,
        "the txn keeps its snapshot"
    );
    txn.rollback();
    db.set_csr_enabled(false);
    assert_eq!(
        db.execute(sql).unwrap().rows,
        after,
        "the row engine agrees"
    );
    db.set_csr_enabled(true);
    db.execute(sql).unwrap();
    db.execute("SELECT COUNT(*) FROM seed s, adj a WHERE s.sid = a.src")
        .unwrap();
    assert_eq!(db.csr_cache_len(), 2);
    db.execute("ANALYZE wadj").unwrap();
    assert_eq!(
        db.csr_cache_len(),
        1,
        "ANALYZE drops the unpivot entry; adj's stays"
    );
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

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

/// A frontier CTE joined to `adj` (≥ 256 rows, non-unique hash index: a CSR
/// probe) — two cores, a join order to choose, an access path the size
/// rule decides. The computed column keeps the CTE materialized (a
/// bare-column body would be inlined into its reader: see
/// `single_use_bare_column_ctes_run_as_one_core`).
const FRONTIER_SQL: &str = "WITH f AS (SELECT s.sid + 0 AS sid FROM seed s WHERE s.sid < ?) \
     SELECT COUNT(*), SUM(a.dst) FROM f, adj a WHERE f.sid = a.src";

/// [`FRONTIER_SQL`] with a bare-column CTE, which is inlined.
const FRONTIER_INLINED: &str = "WITH f AS (SELECT s.sid AS sid FROM seed s WHERE s.sid < ?) \
     SELECT COUNT(*), SUM(a.dst) FROM f, adj a WHERE f.sid = a.src";

fn prepared(sql: &str) -> Prepared {
    Prepared::new(parse_statement(sql).unwrap())
}

fn text(rel: &Relation) -> String {
    format!("{rel:?}")
}

fn insert_adj(db: &Database, ids: std::ops::Range<i64>) {
    for i in ids {
        db.execute_with_params(
            "INSERT INTO adj VALUES (?, ?, ?)",
            &[Value::Int(i), Value::Int(i % 20), Value::Int(1000 + i)],
        )
        .unwrap();
    }
}

type Change = fn(&Database);

/// Each change moves something the frontier query's plan was built from.
/// The held statement's next execution re-plans both of its cores and
/// answers what a fresh database in the same state answers; the execution
/// after that is a hit again.
#[test]
fn plan_cache_replans_on_each_planning_input_change() {
    let changes: [(&str, Change, Change); 6] = [
        (
            "CREATE INDEX",
            |_| {},
            |db| {
                db.execute("CREATE INDEX adj_dst ON adj (dst)").unwrap();
            },
        ),
        (
            "DROP + CREATE TABLE",
            |_| {},
            |db| {
                db.execute("DROP TABLE adj").unwrap();
                db.execute("CREATE TABLE adj (id INTEGER PRIMARY KEY, src INTEGER, dst INTEGER)")
                    .unwrap();
                insert_adj(db, 0..30);
            },
        ),
        (
            "ANALYZE",
            |_| {},
            |db| {
                db.execute("ANALYZE adj").unwrap();
            },
        ),
        (
            "> 2x drift",
            |db| {
                db.execute("ANALYZE adj").unwrap();
            },
            |db| insert_adj(db, 400..900),
        ),
        ("set_csr_enabled", |_| {}, |db| db.set_csr_enabled(false)),
        (
            "bulk load",
            |_| {},
            |db| {
                db.write_table("adj", |t| {
                    for i in 400..500i64 {
                        t.insert(vec![
                            Value::Int(i),
                            Value::Int(i % 20),
                            Value::Int(1000 + i),
                        ])?;
                    }
                    Ok(())
                })
                .unwrap();
            },
        ),
    ];
    let binds = [Value::Int(10)];
    for (name, setup, change) in changes {
        let db = csr_db();
        setup(&db);
        let held = prepared(FRONTIER_SQL);
        db.execute_prepared(&held, &binds).unwrap();
        let (hits, replans) = db.plan_cache_stats();
        db.execute_prepared(&held, &binds).unwrap();
        assert_eq!(db.plan_cache_stats(), (hits + 2, replans), "{name}: warm");

        change(&db);
        let got = db.execute_prepared(&held, &binds).unwrap();
        assert_eq!(
            db.plan_cache_stats(),
            (hits + 2, replans + 2),
            "{name}: both cores re-plan"
        );
        let fresh = csr_db();
        setup(&fresh);
        change(&fresh);
        let want = fresh
            .execute_prepared(&prepared(FRONTIER_SQL), &binds)
            .unwrap();
        assert_eq!(text(&got), text(&want), "{name}");
        db.execute_prepared(&held, &binds).unwrap();
        assert_eq!(
            db.plan_cache_stats(),
            (hits + 4, replans + 2),
            "{name}: warm again"
        );
    }
}

/// Writes that move no planning input leave the plans alone: rows added
/// short of the 2× drift line (and on the same side of the CSR size line)
/// change no stats epoch and no join order.
#[test]
fn plan_cache_survives_writes_short_of_the_drift_line() {
    let db = csr_db();
    db.execute("ANALYZE adj").unwrap();
    let held = prepared(FRONTIER_SQL);
    db.execute_prepared(&held, &[Value::Int(10)]).unwrap();
    let (hits, replans) = db.plan_cache_stats();
    insert_adj(&db, 400..700);
    db.execute("DELETE FROM adj WHERE id < 100").unwrap();
    let got = db.execute_prepared(&held, &[Value::Int(10)]).unwrap();
    assert_eq!(db.plan_cache_stats(), (hits + 2, replans));
    let fresh = db
        .execute_statement(
            &parse_statement(FRONTIER_SQL).unwrap(),
            &[Value::Int(10)],
            None,
        )
        .unwrap();
    assert_eq!(text(&got), text(&fresh));
}

/// The greedy join order reads a CTE's size, so the same statement with
/// another bind can order its units differently (EXPLAIN shows the flip).
/// The CTE's computed column keeps it materialized.
/// The rebound execution re-plans the core whose order moved — only that
/// one — and matches the inline text byte for byte.
#[test]
fn plan_cache_replans_when_a_bind_flips_the_join_order() {
    let db = Database::new();
    db.execute("CREATE TABLE big (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE grp (id INTEGER PRIMARY KEY, k INTEGER)")
        .unwrap();
    for i in 0..50i64 {
        db.execute_with_params(
            "INSERT INTO big VALUES (?, ?)",
            &[Value::Int(i), Value::Int(i * 7 % 13)],
        )
        .unwrap();
    }
    // `c` holds the ids below its bound, in descending order; `big` the
    // first 50 ascending — so the two orders also emit different row
    // orders.
    for i in (0..200i64).rev() {
        db.execute_with_params(
            "INSERT INTO grp VALUES (?, ?)",
            &[Value::Int(i), Value::Int(i)],
        )
        .unwrap();
    }
    let sql = |k: &str| {
        format!(
            "WITH c AS (SELECT g.id + 0 AS id FROM grp g WHERE g.k < {k}) \
             SELECT b.id, b.v FROM big b, c WHERE b.id = c.id"
        )
    };
    let held = prepared(&sql("?"));
    let mut last: Option<bool> = None;
    // Fewer CTE rows than `big`'s 50 put the CTE first.
    for (k, reordered) in [(10, true), (150, false), (30, true), (199, false)] {
        let inline = sql(&k.to_string());
        let plan = db
            .execute(&format!("EXPLAIN {inline}"))
            .unwrap()
            .strings()
            .join("\n");
        assert_eq!(
            plan.contains("join order: c, b (reordered)"),
            reordered,
            "k < {k}:\n{plan}"
        );
        let (hits, replans) = db.plan_cache_stats();
        let bound = db.execute_prepared(&held, &[Value::Int(k)]).unwrap();
        let want = match last {
            None => (hits, replans + 2),
            // The CTE core's plan holds; the body's order moved.
            Some(prev) => {
                assert_ne!(prev, reordered);
                (hits + 1, replans + 1)
            }
        };
        assert_eq!(db.plan_cache_stats(), want, "k < {k}");
        assert_eq!(text(&bound), text(&db.execute(&inline).unwrap()), "k < {k}");
        last = Some(reordered);
    }
}

/// Eight threads run one cached statement, each with its own binds, while a
/// ninth inserts and deletes a row under them. Every answer is one the
/// tables held; afterwards every bind answers what fresh planning answers.
/// Each execution binds its own copy of the shared plan — the executor
/// records what it observed beside the plan, never in it.
#[test]
fn plan_cache_eight_readers_share_one_statement_while_a_writer_mutates() {
    let db = Database::new();
    for ddl in [
        "CREATE TABLE owners (id INTEGER PRIMARY KEY, team INTEGER)",
        "CREATE TABLE items (id INTEGER PRIMARY KEY, owner INTEGER)",
        "CREATE INDEX items_owner ON items (owner)",
    ] {
        db.execute(ddl).unwrap();
    }
    for o in 0..40i64 {
        db.execute_with_params(
            "INSERT INTO owners VALUES (?, ?)",
            &[Value::Int(o), Value::Int(o % 8)],
        )
        .unwrap();
    }
    for i in 0..160i64 {
        db.execute_with_params(
            "INSERT INTO items VALUES (?, ?)",
            &[Value::Int(i), Value::Int(i % 40)],
        )
        .unwrap();
    }
    // The computed column keeps the CTE materialized: two cores.
    let sql = "WITH g AS (SELECT o.id + 0 AS id FROM owners o WHERE o.team = ?) \
               SELECT COUNT(*) FROM g, items i WHERE i.owner = g.id";
    let count = |rel: Relation| rel.int_column()[0];
    // Five owners a team, four items an owner.
    let base = 20;
    let (hits0, replans0) = db.plan_cache_stats();
    let start = std::sync::Barrier::new(9);
    let rounds = 300i64;
    std::thread::scope(|scope| {
        for reader in 0..8i64 {
            let (db, start) = (&db, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..rounds {
                    let team = (reader + round) % 8;
                    let got = count(db.execute_with_params(sql, &[Value::Int(team)]).unwrap());
                    assert!(
                        got == base || got == base + 1,
                        "team {team}: {got}, expected {base} or {}",
                        base + 1
                    );
                }
            });
        }
        let (db, start) = (&db, &start);
        scope.spawn(move || {
            start.wait();
            for round in 0..rounds {
                let id = Value::Int(1000 + round);
                db.execute_with_params(
                    "INSERT INTO items VALUES (?, ?)",
                    &[id.clone(), Value::Int(round % 40)],
                )
                .unwrap();
                db.execute_with_params("DELETE FROM items WHERE id = ?", &[id])
                    .unwrap();
            }
        });
    });
    let fresh = parse_statement(sql).unwrap();
    for team in 0..8 {
        let cached = db.execute_with_params(sql, &[Value::Int(team)]).unwrap();
        let planned = db
            .execute_statement(&fresh, &[Value::Int(team)], None)
            .unwrap();
        assert_eq!(text(&cached), text(&planned), "team {team}");
        assert_eq!(count(cached), base);
    }
    assert_eq!(db.txns().active_snapshots(), 0);
    let (hits, replans) = db.plan_cache_stats();
    let executions = (8 * rounds + 8) as u64;
    assert_eq!(hits + replans - hits0 - replans0, 2 * executions);
    // Threads that raced on the cold statement may each have planned it.
    assert!(
        (2..=16).contains(&(replans - replans0)),
        "replans {}",
        replans - replans0
    );
}

/// The plan-cache tests above keep their CTEs materialized with a computed
/// column. Their single-use bare-column forms are inlined into the reader:
/// EXPLAIN names the CTE on the one remaining core, each execution plans
/// or hits one core, and the answers are the materialized forms'.
#[test]
fn single_use_bare_column_ctes_run_as_one_core() {
    let sorted = |rel: Relation| {
        let mut rows = rel.rows;
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    };
    let frontier = csr_db();
    let flip = Database::new();
    for ddl in [
        "CREATE TABLE big (id INTEGER PRIMARY KEY, v INTEGER)",
        "CREATE TABLE grp (id INTEGER PRIMARY KEY, k INTEGER)",
        "INSERT INTO big VALUES (1, 7), (2, 1), (3, 8), (40, 2)",
        "INSERT INTO grp VALUES (3, 3), (2, 2), (1, 1), (99, 0)",
    ] {
        flip.execute(ddl).unwrap();
    }
    let flip_sql = |id: &str| {
        format!(
            "WITH c AS (SELECT g.id{id} AS id FROM grp g WHERE g.k < ?) \
             SELECT b.id, b.v FROM big b, c WHERE b.id = c.id"
        )
    };
    let owners = Database::new();
    for ddl in [
        "CREATE TABLE owners (id INTEGER PRIMARY KEY, team INTEGER)",
        "CREATE TABLE items (id INTEGER PRIMARY KEY, owner INTEGER)",
        "CREATE INDEX items_owner ON items (owner)",
        "INSERT INTO owners VALUES (1, 2), (2, 2), (3, 10), (4, 1)",
        "INSERT INTO items VALUES (1, 1), (2, 1), (3, 2), (4, 3), (5, 4), (6, 9)",
    ] {
        owners.execute(ddl).unwrap();
    }
    let owners_sql = |id: &str| {
        format!(
            "WITH g AS (SELECT o.id{id} AS id FROM owners o WHERE o.team = ?) \
             SELECT COUNT(*) FROM g, items i WHERE i.owner = g.id"
        )
    };
    let cases = [
        (
            &frontier,
            FRONTIER_INLINED.to_string(),
            FRONTIER_SQL.to_string(),
            "f",
        ),
        (&flip, flip_sql(""), flip_sql(" + 0"), "c"),
        (&owners, owners_sql(""), owners_sql(" + 0"), "g"),
    ];
    for (db, inlined, materialized, cte) in cases {
        for bound in [2, 10] {
            let binds = [Value::Int(bound)];
            let explain = db
                .execute_with_params(&format!("EXPLAIN {inlined}"), &binds)
                .unwrap()
                .strings();
            let plans: Vec<&String> = explain.iter().filter(|l| l.starts_with("plan:")).collect();
            assert_eq!(plans, [&format!("plan: [inlined {cte}]")], "{inlined}");
            let held = prepared(&inlined);
            let (hits, replans) = db.plan_cache_stats();
            let got = db.execute_prepared(&held, &binds).unwrap();
            db.execute_prepared(&held, &binds).unwrap();
            assert_eq!(db.plan_cache_stats(), (hits + 1, replans + 1), "{inlined}");
            let want = db.execute_with_params(&materialized, &binds).unwrap();
            assert_eq!(sorted(got), sorted(want), "{inlined}");
        }
    }
}
