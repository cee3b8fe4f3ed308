//! End-to-end tests of the SQL engine: DDL, DML, joins, CTE pipelines,
//! lateral VALUES, set ops, aggregates — including the exact query shapes
//! the SQLGraph Gremlin→SQL translation emits.

use sqlgraph_rel::{Database, Value};

fn db_with_people() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE people (id INTEGER PRIMARY KEY, name TEXT, age INTEGER)")
        .unwrap();
    db.execute(
        "INSERT INTO people VALUES (1, 'marko', 29), (2, 'vadas', 27), (3, 'josh', 32), (4, 'peter', 35)",
    )
    .unwrap();
    db.execute("CREATE TABLE knows (src INTEGER, dst INTEGER, weight DOUBLE)")
        .unwrap();
    db.execute("CREATE INDEX knows_src ON knows (src)").unwrap();
    db.execute("INSERT INTO knows VALUES (1, 2, 0.5), (1, 3, 1.0), (3, 4, 0.2)")
        .unwrap();
    db
}

#[test]
fn basic_select_and_filter() {
    let db = db_with_people();
    let rel = db
        .execute("SELECT name FROM people WHERE age > 28 ORDER BY name")
        .unwrap();
    assert_eq!(rel.strings(), ["josh", "marko", "peter"]);
}

#[test]
fn projection_aliases_and_exprs() {
    let db = db_with_people();
    let rel = db
        .execute("SELECT name, age + 1 AS next_age FROM people WHERE id = 1")
        .unwrap();
    assert_eq!(rel.columns, ["name", "next_age"]);
    assert_eq!(rel.rows[0][1], Value::Int(30));
}

#[test]
fn inner_join_comma_style_uses_index() {
    let db = db_with_people();
    let rel = db
        .execute(
            "SELECT p2.name FROM people p1, knows k, people p2 \
             WHERE p1.name = 'marko' AND p1.id = k.src AND k.dst = p2.id ORDER BY p2.name",
        )
        .unwrap();
    assert_eq!(rel.strings(), ["josh", "vadas"]);
}

#[test]
fn explicit_joins_inner_and_left_outer() {
    let db = db_with_people();
    let rel = db
        .execute(
            "SELECT p.name, k.dst FROM people p LEFT OUTER JOIN knows k ON p.id = k.src \
             ORDER BY p.id, k.dst",
        )
        .unwrap();
    // marko has 2 edges, vadas/peter have none (NULL), josh has 1.
    assert_eq!(rel.rows.len(), 5);
    assert_eq!(rel.rows[0][0], Value::str("marko"));
    let vadas_row = rel
        .rows
        .iter()
        .find(|r| r[0] == Value::str("vadas"))
        .unwrap();
    assert!(vadas_row[1].is_null());
}

#[test]
fn cte_pipeline_like_gremlin_translation() {
    // Mirrors Figure 7: each CTE consumes the previous one's `val` column.
    let db = db_with_people();
    let rel = db
        .execute(
            "WITH temp_1 AS (SELECT id AS val FROM people WHERE name = 'marko'), \
             temp_2 AS (SELECT k.dst AS val FROM temp_1 v, knows k WHERE v.val = k.src), \
             temp_3 AS (SELECT DISTINCT val FROM temp_2) \
             SELECT COUNT(*) FROM temp_3",
        )
        .unwrap();
    assert_eq!(rel.scalar(), Some(&Value::Int(2)));
}

#[test]
fn lateral_table_values_unnest() {
    // The paper's device for turning hash-bucket column triads back into rows.
    let db = Database::new();
    db.execute("CREATE TABLE opa (vid INTEGER PRIMARY KEY, val0 INTEGER, val1 INTEGER)")
        .unwrap();
    db.execute("INSERT INTO opa VALUES (1, 10, 20), (2, 30, NULL)")
        .unwrap();
    let rel = db
        .execute(
            "SELECT t.val FROM opa p, TABLE(VALUES(p.val0),(p.val1)) AS t(val) \
             WHERE t.val IS NOT NULL ORDER BY t.val",
        )
        .unwrap();
    assert_eq!(rel.int_column(), [10, 20, 30]);
}

#[test]
fn union_all_and_distinct_set_ops() {
    let db = db_with_people();
    let rel = db
        .execute("SELECT id FROM people WHERE id <= 2 UNION ALL SELECT id FROM people WHERE id = 2")
        .unwrap();
    assert_eq!(rel.rows.len(), 3);
    let rel = db
        .execute("SELECT id FROM people WHERE id <= 2 UNION SELECT id FROM people WHERE id = 2")
        .unwrap();
    assert_eq!(rel.rows.len(), 2);
    let rel = db
        .execute("SELECT id FROM people INTERSECT SELECT src FROM knows")
        .unwrap();
    let mut ids = rel.int_column();
    ids.sort_unstable();
    assert_eq!(ids, [1, 3]);
    let rel = db
        .execute("SELECT id FROM people EXCEPT SELECT src FROM knows")
        .unwrap();
    let mut ids = rel.int_column();
    ids.sort_unstable();
    assert_eq!(ids, [2, 4]);
}

#[test]
fn aggregates_group_by_having() {
    let db = db_with_people();
    let rel = db
        .execute(
            "SELECT src, COUNT(*) AS n, SUM(weight) AS total FROM knows GROUP BY src \
             HAVING COUNT(*) > 1",
        )
        .unwrap();
    assert_eq!(rel.rows.len(), 1);
    assert_eq!(rel.rows[0][0], Value::Int(1));
    assert_eq!(rel.rows[0][1], Value::Int(2));
    assert_eq!(rel.rows[0][2], Value::Double(1.5));
}

#[test]
fn scalar_aggregates_over_empty_input() {
    let db = db_with_people();
    let rel = db
        .execute("SELECT COUNT(*), MIN(age), AVG(age) FROM people WHERE id > 99")
        .unwrap();
    assert_eq!(rel.rows.len(), 1);
    assert_eq!(rel.rows[0][0], Value::Int(0));
    assert!(rel.rows[0][1].is_null());
    assert!(rel.rows[0][2].is_null());
}

#[test]
fn count_distinct() {
    let db = db_with_people();
    let rel = db.execute("SELECT COUNT(DISTINCT src) FROM knows").unwrap();
    assert_eq!(rel.scalar(), Some(&Value::Int(2)));
}

#[test]
fn in_list_and_in_subquery() {
    let db = db_with_people();
    let rel = db
        .execute("SELECT name FROM people WHERE id IN (1, 3) ORDER BY id")
        .unwrap();
    assert_eq!(rel.strings(), ["marko", "josh"]);
    let rel = db
        .execute("SELECT name FROM people WHERE id NOT IN (SELECT dst FROM knows) ORDER BY id")
        .unwrap();
    assert_eq!(rel.strings(), ["marko"]);
}

#[test]
fn like_and_between() {
    let db = db_with_people();
    let rel = db
        .execute("SELECT name FROM people WHERE name LIKE '%o' ORDER BY name")
        .unwrap();
    assert_eq!(rel.strings(), ["marko"]);
    let rel = db
        .execute("SELECT name FROM people WHERE age BETWEEN 27 AND 29 ORDER BY age")
        .unwrap();
    assert_eq!(rel.strings(), ["vadas", "marko"]);
}

#[test]
fn limit_offset_and_order_desc() {
    let db = db_with_people();
    let rel = db
        .execute("SELECT name FROM people ORDER BY age DESC LIMIT 2 OFFSET 1")
        .unwrap();
    assert_eq!(rel.strings(), ["josh", "marko"]);
}

#[test]
fn json_column_and_json_val() {
    let db = Database::new();
    db.execute("CREATE TABLE va (vid INTEGER PRIMARY KEY, attr JSON)")
        .unwrap();
    let doc = sqlgraph_json::parse(r#"{"name":"marko","age":29,"lang":null}"#).unwrap();
    db.execute_with_params(
        "INSERT INTO va VALUES (?, ?)",
        &[Value::Int(1), Value::json(doc)],
    )
    .unwrap();
    let rel = db
        .execute("SELECT JSON_VAL(attr, 'age') FROM va WHERE JSON_VAL(attr, 'name') = 'marko'")
        .unwrap();
    assert_eq!(rel.scalar(), Some(&Value::Int(29)));
    // Missing key and JSON null both surface as SQL NULL.
    let rel = db
        .execute("SELECT COUNT(*) FROM va WHERE JSON_VAL(attr, 'lang') IS NULL")
        .unwrap();
    assert_eq!(rel.scalar(), Some(&Value::Int(1)));
}

#[test]
fn path_arrays_concat_and_subscript() {
    let db = db_with_people();
    let rel = db
        .execute(
            "WITH t0 AS (SELECT id AS val, ARRAY() AS path FROM people WHERE name = 'marko'), \
             t1 AS (SELECT k.dst AS val, (v.path || v.val) AS path FROM t0 v, knows k WHERE v.val = k.src) \
             SELECT val, path[0] FROM t1 ORDER BY val",
        )
        .unwrap();
    assert_eq!(rel.rows.len(), 2);
    assert_eq!(rel.rows[0][1], Value::Int(1));
}

#[test]
fn update_and_delete_with_index_targeting() {
    let db = db_with_people();
    let n = db
        .execute("UPDATE people SET age = age + 1 WHERE id = 1")
        .unwrap();
    assert_eq!(n.scalar(), Some(&Value::Int(1)));
    let rel = db.execute("SELECT age FROM people WHERE id = 1").unwrap();
    assert_eq!(rel.scalar(), Some(&Value::Int(30)));

    // After the update: marko 30, vadas 27, josh 32, peter 35.
    let n = db.execute("DELETE FROM people WHERE age > 30").unwrap();
    assert_eq!(n.scalar(), Some(&Value::Int(2)));
    assert_eq!(db.table_len("people").unwrap(), 2);
}

#[test]
fn delete_count_is_exact() {
    let db = db_with_people();
    let n = db.execute("DELETE FROM people WHERE age > 30").unwrap();
    assert_eq!(n.scalar(), Some(&Value::Int(2)));
    assert_eq!(db.table_len("people").unwrap(), 2);
}

#[test]
fn insert_select_and_column_lists() {
    let db = db_with_people();
    db.execute("CREATE TABLE names (id INTEGER, name TEXT)")
        .unwrap();
    db.execute("INSERT INTO names SELECT id, name FROM people WHERE age < 30")
        .unwrap();
    assert_eq!(db.table_len("names").unwrap(), 2);
    db.execute("INSERT INTO names (name) VALUES ('ghost')")
        .unwrap();
    let rel = db
        .execute("SELECT id FROM names WHERE name = 'ghost'")
        .unwrap();
    assert!(rel.rows[0][0].is_null());
}

#[test]
fn unique_index_rejects_duplicates() {
    let db = db_with_people();
    let err = db
        .execute("INSERT INTO people VALUES (1, 'dup', 0)")
        .unwrap_err();
    assert!(err.to_string().contains("unique"));
    // Table unchanged.
    assert_eq!(db.table_len("people").unwrap(), 4);
}

#[test]
fn statement_atomicity_on_midway_failure() {
    let db = db_with_people();
    // Second row violates the PK; the first must be rolled back.
    let err = db.execute("INSERT INTO people VALUES (10, 'a', 1), (1, 'dup', 2)");
    assert!(err.is_err());
    assert_eq!(db.table_len("people").unwrap(), 4);
    let rel = db
        .execute("SELECT COUNT(*) FROM people WHERE id = 10")
        .unwrap();
    assert_eq!(rel.scalar(), Some(&Value::Int(0)));
}

#[test]
fn transactions_commit_and_rollback() {
    let db = db_with_people();
    // Committed transaction.
    db.transaction(|tx| {
        tx.execute("INSERT INTO people VALUES (5, 'ripple', 1)")?;
        tx.execute("UPDATE people SET age = 99 WHERE id = 5")?;
        Ok(())
    })
    .unwrap();
    assert_eq!(db.table_len("people").unwrap(), 5);

    // Rolled-back transaction: all statements undone.
    let r: Result<(), _> = db.transaction(|tx| {
        tx.execute("DELETE FROM people WHERE id = 5")?;
        tx.execute("INSERT INTO people VALUES (6, 'gone', 1)")?;
        Err(sqlgraph_rel::Error::RolledBack("test".into()))
    });
    assert!(r.is_err());
    assert_eq!(db.table_len("people").unwrap(), 5);
    let rel = db.execute("SELECT name FROM people WHERE id = 5").unwrap();
    assert_eq!(rel.strings(), ["ripple"]);
}

/// SQL text has no transaction control and no stored procedures: a
/// transaction is a `Txn` handle (`Database::begin` / `transaction`), and
/// `BEGIN` / `COMMIT` / `ROLLBACK` / `CALL` are parse errors wherever
/// they are executed.
#[test]
fn transaction_control_and_call_are_not_sql() {
    let db = db_with_people();
    let texts = ["BEGIN", "COMMIT", "ROLLBACK", "CALL p(1)"];
    for sql in texts {
        let err = db.execute(sql).unwrap_err();
        assert!(
            matches!(err, sqlgraph_rel::Error::Parse { .. }),
            "{sql}: {err:?}"
        );
    }
    let mut tx = db.begin();
    tx.execute("INSERT INTO people VALUES (5, 'ripple', 1)")
        .unwrap();
    for sql in texts {
        let err = tx.execute(sql).unwrap_err();
        assert!(
            matches!(err, sqlgraph_rel::Error::Parse { .. }),
            "{sql}: {err:?}"
        );
    }
    // A refused statement leaves the transaction open and intact.
    tx.commit().unwrap();
    assert_eq!(db.table_len("people").unwrap(), 5);
}

#[test]
fn parameters_positional() {
    let db = db_with_people();
    let rel = db
        .execute_with_params(
            "SELECT name FROM people WHERE age > ? AND age < ?",
            &[Value::Int(28), Value::Int(33)],
        )
        .unwrap();
    let mut names = rel.strings();
    names.sort();
    assert_eq!(names, ["josh", "marko"]);
}

#[test]
fn table_less_select() {
    let db = Database::new();
    let rel = db.execute("SELECT 1 + 2 AS three, 'x'").unwrap();
    assert_eq!(rel.rows[0][0], Value::Int(3));
    assert_eq!(rel.rows[0][1], Value::str("x"));
}

#[test]
fn wal_recovery_round_trip() {
    let mut path = std::env::temp_dir();
    path.push(format!("sqlgraph-rel-recovery-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let db = Database::open(&path).unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            .unwrap();
        db.execute("CREATE INDEX t_v ON t (v)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
            .unwrap();
        db.execute("UPDATE t SET v = 'z' WHERE id = 2").unwrap();
        db.execute("DELETE FROM t WHERE id = 3").unwrap();
    }
    {
        let db = Database::open(&path).unwrap();
        let rel = db.execute("SELECT v FROM t ORDER BY id").unwrap();
        assert_eq!(rel.strings(), ["a", "z"]);
        // Indexes were rebuilt by DDL replay.
        let rel = db.execute("SELECT id FROM t WHERE v = 'z'").unwrap();
        assert_eq!(rel.int_column(), [2]);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn rolled_back_changes_never_hit_the_wal() {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "sqlgraph-rel-rollback-wal-{}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    {
        let db = Database::open(&path).unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        let _ = db.transaction(|tx| {
            tx.execute("INSERT INTO t VALUES (2)")?;
            Err::<(), _>(sqlgraph_rel::Error::RolledBack("nope".into()))
        });
    }
    {
        let db = Database::open(&path).unwrap();
        assert_eq!(db.table_len("t").unwrap(), 1);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn composite_index_join_strategy() {
    // The (INV, LBL) composite index pattern from the paper's EA table.
    let db = Database::new();
    db.execute("CREATE TABLE ea (eid INTEGER PRIMARY KEY, inv INTEGER, outv INTEGER, lbl TEXT)")
        .unwrap();
    db.execute("CREATE INDEX ea_inv_lbl ON ea (inv, lbl)")
        .unwrap();
    for i in 0..100 {
        db.execute_with_params(
            "INSERT INTO ea VALUES (?, ?, ?, ?)",
            &[
                Value::Int(i),
                Value::Int(i % 10),
                Value::Int(i % 7),
                Value::str(if i % 2 == 0 { "knows" } else { "likes" }),
            ],
        )
        .unwrap();
    }
    db.execute("CREATE TABLE seeds (val INTEGER)").unwrap();
    db.execute("INSERT INTO seeds VALUES (3)").unwrap();
    let rel = db
        .execute(
            "SELECT p.outv FROM seeds v, ea p WHERE v.val = p.inv AND p.lbl = 'likes' ORDER BY p.eid",
        )
        .unwrap();
    // inv = 3 happens for eids 3,13,...,93; 'likes' = odd eids: 3,13,33,43,53,63,73,83,93 odd ones.
    assert!(!rel.rows.is_empty());
    for row in &rel.rows {
        assert!(row[0].as_int().is_some());
    }
    // Cross-check against a scan-only equivalent query.
    let expect = db
        .execute("SELECT p.outv FROM ea p WHERE p.inv = 3 AND p.lbl = 'likes' ORDER BY p.eid")
        .unwrap();
    assert_eq!(rel.rows, expect.rows);
}

#[test]
fn table_wildcard_and_qualified_star() {
    let db = db_with_people();
    let rel = db
        .execute("SELECT p.* FROM people p, knows k WHERE p.id = k.src AND k.dst = 4")
        .unwrap();
    assert_eq!(rel.columns, ["id", "name", "age"]);
    assert_eq!(rel.rows.len(), 1);
    assert_eq!(rel.rows[0][1], Value::str("josh"));
}

#[test]
fn ambiguous_column_is_an_error() {
    let db = db_with_people();
    db.execute("CREATE TABLE other (id INTEGER)").unwrap();
    let err = db.execute("SELECT id FROM people, other").unwrap_err();
    assert!(err.to_string().contains("ambiguous"));
}

#[test]
fn drop_table() {
    let db = db_with_people();
    db.execute("DROP TABLE knows").unwrap();
    assert!(db.execute("SELECT * FROM knows").is_err());
    assert!(db.execute("DROP TABLE knows").is_err());
    db.execute("DROP TABLE IF EXISTS knows").unwrap();
}

#[test]
fn lateral_json_edges_unnest() {
    // JSON-adjacency traversal: the Figure 2c representation.
    let db = Database::new();
    db.execute("CREATE TABLE ja (vid INTEGER PRIMARY KEY, edges JSON)")
        .unwrap();
    let doc = sqlgraph_json::parse(
        r#"{"knows":[{"eid":7,"val":2},{"eid":8,"val":4}],"created":[{"eid":9,"val":3}]}"#,
    )
    .unwrap();
    db.execute_with_params(
        "INSERT INTO ja VALUES (?, ?)",
        &[Value::Int(1), Value::json(doc)],
    )
    .unwrap();
    let rel = db
        .execute(
            "SELECT t.val FROM ja p, TABLE(JSON_EDGES(p.edges)) AS t(lbl, eid, val) \
             WHERE p.vid = 1 ORDER BY t.val",
        )
        .unwrap();
    assert_eq!(rel.int_column(), [2, 3, 4]);
    let rel = db
        .execute(
            "SELECT t.eid FROM ja p, TABLE(JSON_EDGES(p.edges, 'knows')) AS t(lbl, eid, val) \
             ORDER BY t.eid",
        )
        .unwrap();
    assert_eq!(rel.int_column(), [7, 8]);
}

#[test]
fn lateral_unnest_array() {
    let db = Database::new();
    let rel = db
        .execute(
            "SELECT t.val FROM (SELECT ARRAY(1, 2, 3) AS a) s, TABLE(UNNEST(s.a)) AS t(val) \
             ORDER BY t.val",
        )
        .unwrap();
    assert_eq!(rel.int_column(), [1, 2, 3]);
}

#[test]
fn functional_index_on_json_member() {
    // The paper's "specialized indexes for attributes" (§3.3): an index on
    // JSON_VAL(attr, 'name') must serve equality lookups and joins.
    let db = Database::new();
    db.execute("CREATE TABLE va (vid INTEGER PRIMARY KEY, attr JSON)")
        .unwrap();
    for i in 0..500i64 {
        let doc = sqlgraph_json::parse(&format!(
            r#"{{"name":"person-{}","age":{}}}"#,
            i % 50,
            i % 90
        ))
        .unwrap();
        db.execute_with_params(
            "INSERT INTO va VALUES (?, ?)",
            &[Value::Int(i), Value::json(doc)],
        )
        .unwrap();
    }
    db.execute("CREATE INDEX va_name ON va (JSON_VAL(attr, 'name'))")
        .unwrap();

    let rel = db
        .execute("SELECT vid FROM va WHERE JSON_VAL(attr, 'name') = 'person-7' ORDER BY vid")
        .unwrap();
    assert_eq!(rel.rows.len(), 10);
    assert_eq!(rel.int_column()[0], 7);

    // Functional index also serves probe joins.
    db.execute("CREATE TABLE seeds (n TEXT)").unwrap();
    db.execute("INSERT INTO seeds VALUES ('person-3'), ('person-7')")
        .unwrap();
    let rel = db
        .execute("SELECT COUNT(*) FROM seeds s, va p WHERE JSON_VAL(p.attr, 'name') = s.n")
        .unwrap();
    assert_eq!(rel.scalar(), Some(&Value::Int(20)));

    // Stays consistent under updates.
    let doc = sqlgraph_json::parse(r#"{"name":"renamed"}"#).unwrap();
    db.execute_with_params("UPDATE va SET attr = ? WHERE vid = 7", &[Value::json(doc)])
        .unwrap();
    let rel = db
        .execute("SELECT COUNT(*) FROM va WHERE JSON_VAL(attr, 'name') = 'person-7'")
        .unwrap();
    assert_eq!(rel.scalar(), Some(&Value::Int(9)));
    let rel = db
        .execute("SELECT vid FROM va WHERE JSON_VAL(attr, 'name') = 'renamed'")
        .unwrap();
    assert_eq!(rel.int_column(), [7]);
    // And under deletes.
    db.execute("DELETE FROM va WHERE vid = 57").unwrap();
    let rel = db
        .execute("SELECT COUNT(*) FROM va WHERE JSON_VAL(attr, 'name') = 'person-7'")
        .unwrap();
    assert_eq!(rel.scalar(), Some(&Value::Int(8)));
}

#[test]
fn functional_index_survives_wal_recovery() {
    let mut path = std::env::temp_dir();
    path.push(format!("sqlgraph-rel-funcidx-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let db = Database::open(&path).unwrap();
        db.execute("CREATE TABLE va (vid INTEGER PRIMARY KEY, attr JSON)")
            .unwrap();
        db.execute("CREATE INDEX va_k ON va (JSON_VAL(attr, 'k'))")
            .unwrap();
        let doc = sqlgraph_json::parse(r#"{"k":"x"}"#).unwrap();
        db.execute_with_params("INSERT INTO va VALUES (1, ?)", &[Value::json(doc)])
            .unwrap();
    }
    {
        let db = Database::open(&path).unwrap();
        let rel = db
            .execute("SELECT vid FROM va WHERE JSON_VAL(attr, 'k') = 'x'")
            .unwrap();
        assert_eq!(rel.int_column(), [1]);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn explain_reports_access_paths() {
    let db = db_with_people();
    // Index nested-loop join expected on knows.src.
    let rel = db
        .execute(
            "EXPLAIN SELECT p2.name FROM people p1, knows k, people p2 \
             WHERE p1.id = 1 AND p1.id = k.src AND k.dst = p2.id",
        )
        .unwrap();
    let plan = rel.strings().join("\n");
    assert!(
        plan.contains("index"),
        "expected an index access path:\n{plan}"
    );
    assert!(
        plan.contains("result:"),
        "plan ends with result row:\n{plan}"
    );

    // Full scan reported when no index applies.
    let rel = db
        .execute("EXPLAIN SELECT * FROM people WHERE age > 1")
        .unwrap();
    let plan = rel.strings().join("\n");
    assert!(
        plan.contains("Scan people [people] (full, "),
        "expected a full scan:\n{plan}"
    );
}

#[test]
fn btree_range_pushdown() {
    let db = Database::new();
    db.execute("CREATE TABLE m (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    for i in 0..1000i64 {
        db.execute_with_params(
            "INSERT INTO m VALUES (?, ?)",
            &[Value::Int(i), Value::Int(i * 2)],
        )
        .unwrap();
    }
    db.execute("CREATE INDEX m_v ON m (v) USING BTREE").unwrap();
    // Range predicates must be served by the B-tree, visible in EXPLAIN.
    let plan = db
        .execute("EXPLAIN SELECT id FROM m WHERE v >= 100 AND v < 120")
        .unwrap()
        .strings()
        .join("\n");
    assert!(plan.contains("Scan m [m] (index m_v, range, "), "{plan}");
    // And the results are exact, including the exclusive upper bound.
    let rel = db
        .execute("SELECT id FROM m WHERE v >= 100 AND v < 120 ORDER BY id")
        .unwrap();
    assert_eq!(rel.int_column(), (50..60).collect::<Vec<i64>>());
    // One-sided ranges.
    let rel = db.execute("SELECT COUNT(*) FROM m WHERE v > 1990").unwrap();
    assert_eq!(rel.scalar(), Some(&Value::Int(4)));
    // BETWEEN desugars into the same pushdown.
    let plan = db
        .execute("EXPLAIN SELECT id FROM m WHERE v BETWEEN 10 AND 20")
        .unwrap()
        .strings()
        .join("\n");
    assert!(plan.contains("Scan m [m] (index m_v, range, "), "{plan}");
}

#[test]
fn functional_btree_range_on_json() {
    let db = Database::new();
    db.execute("CREATE TABLE va (vid INTEGER PRIMARY KEY, attr JSON)")
        .unwrap();
    for i in 0..200i64 {
        let doc = sqlgraph_json::parse(&format!(r#"{{"bucket":{i}}}"#)).unwrap();
        db.execute_with_params(
            "INSERT INTO va VALUES (?, ?)",
            &[Value::Int(i), Value::json(doc)],
        )
        .unwrap();
    }
    db.execute("CREATE INDEX va_bucket ON va (JSON_VAL(attr, 'bucket')) USING BTREE")
        .unwrap();
    let plan = db
        .execute(
            "EXPLAIN SELECT vid FROM va WHERE JSON_VAL(attr, 'bucket') >= 0 \
             AND JSON_VAL(attr, 'bucket') < 50",
        )
        .unwrap()
        .strings()
        .join("\n");
    assert!(
        plan.contains("Scan va [va] (index va_bucket, range, "),
        "{plan}"
    );
    let rel = db
        .execute(
            "SELECT COUNT(*) FROM va WHERE JSON_VAL(attr, 'bucket') >= 0 \
             AND JSON_VAL(attr, 'bucket') < 50",
        )
        .unwrap();
    assert_eq!(rel.scalar(), Some(&Value::Int(50)));
}
