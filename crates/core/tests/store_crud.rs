//! CRUD and schema-maintenance tests for `SqlGraph`.

use sqlgraph_core::{GraphData, SchemaConfig, SqlGraph};
use sqlgraph_json::Json;
use sqlgraph_rel::Value;

fn sample() -> SqlGraph {
    let g = SqlGraph::new_in_memory();
    let marko = g
        .add_vertex([("name", "marko".into()), ("age", 29i64.into())])
        .unwrap();
    let vadas = g
        .add_vertex([("name", "vadas".into()), ("age", 27i64.into())])
        .unwrap();
    let lop = g
        .add_vertex([("name", "lop".into()), ("lang", "java".into())])
        .unwrap();
    let josh = g
        .add_vertex([("name", "josh".into()), ("age", 32i64.into())])
        .unwrap();
    g.add_edge(marko, vadas, "knows", [("weight", 0.5f64.into())])
        .unwrap();
    g.add_edge(marko, josh, "knows", [("weight", 1.0f64.into())])
        .unwrap();
    g.add_edge(marko, lop, "created", [("weight", 0.4f64.into())])
        .unwrap();
    g.add_edge(josh, vadas, "likes", [("weight", 0.2f64.into())])
        .unwrap();
    g.add_edge(josh, lop, "created", [("weight", 0.8f64.into())])
        .unwrap();
    g
}

fn sorted_ints(rel: &sqlgraph_rel::Relation) -> Vec<i64> {
    let mut v = rel.int_column();
    v.sort_unstable();
    v
}

#[test]
fn incremental_build_and_query() {
    let g = sample();
    let out = g.query("g.V.count()").unwrap();
    assert_eq!(out.scalar(), Some(&Value::Int(4)));
    let out = g.query("g.v(1).out('knows')").unwrap();
    assert_eq!(sorted_ints(&out), [2, 4]);
    // Multi-valued label went through the OSA migration (marko has two
    // 'knows' edges).
    let osa = g.database().table_len("osa").unwrap();
    assert_eq!(osa, 2);
}

#[test]
fn multi_step_traversal_over_hash_tables() {
    let g = sample();
    let out = g.query("g.v(1).out('knows').out('created')").unwrap();
    assert_eq!(sorted_ints(&out), [3]);
    let out = g.query("g.v(1).out.out.count()").unwrap();
    assert_eq!(out.scalar(), Some(&Value::Int(2))); // josh -> vadas, lop
}

#[test]
fn remove_edge_updates_both_directions() {
    let g = sample();
    // Edge 1 is marko-knows->vadas.
    g.query("g.removeEdge(g.e(1))").unwrap();
    let out = g.query("g.v(1).out('knows')").unwrap();
    assert_eq!(sorted_ints(&out), [4]);
    let out = g.query("g.v(2).in('knows')").unwrap();
    assert!(sorted_ints(&out).is_empty());
    // EA row gone.
    assert_eq!(g.database().table_len("ea").unwrap(), 4);
    // Removing again errors.
    assert!(g.query("g.removeEdge(g.e(1))").is_err());
}

#[test]
fn remove_vertex_marks_and_cleans_neighbors() {
    let g = sample();
    g.query("g.removeVertex(g.v(2))").unwrap(); // vadas
                                                // vadas no longer visible anywhere.
    let out = g.query("g.V.count()").unwrap();
    assert_eq!(out.scalar(), Some(&Value::Int(3)));
    let out = g.query("g.v(1).out('knows')").unwrap();
    assert_eq!(sorted_ints(&out), [4]);
    let out = g.query("g.v(4).out('likes')").unwrap();
    assert!(out.rows.is_empty());
    // Incident EA rows were deleted.
    assert_eq!(g.database().table_len("ea").unwrap(), 3);
    // The logical rows remain (marked negative) until vacuum.
    let marked = g
        .database()
        .execute("SELECT COUNT(*) FROM va WHERE vid < 0")
        .unwrap();
    assert_eq!(marked.scalar(), Some(&Value::Int(1)));
    let removed = g.vacuum().unwrap();
    assert!(removed >= 1);
    let marked = g
        .database()
        .execute("SELECT COUNT(*) FROM va WHERE vid < 0")
        .unwrap();
    assert_eq!(marked.scalar(), Some(&Value::Int(0)));
}

#[test]
fn vertex_ids_are_not_reused_after_delete() {
    let g = sample();
    g.query("g.removeVertex(g.v(4))").unwrap();
    let new_id = g.add_vertex([("name", "peter".into())]).unwrap();
    assert_eq!(new_id, 5);
}

#[test]
fn set_properties() {
    let g = sample();
    g.query("g.v(1).setProperty('age', 30)").unwrap();
    let out = g.query("g.v(1).values('age')").unwrap();
    assert_eq!(out.scalar(), Some(&Value::Int(30)));
    g.query("g.e(1).setProperty('weight', 0.9)").unwrap();
    let out = g
        .database()
        .execute("SELECT JSON_VAL(attr, 'weight') FROM ea WHERE eid = 1")
        .unwrap();
    assert_eq!(out.scalar(), Some(&Value::Double(0.9)));
}

#[test]
fn add_edge_to_missing_vertex_fails_atomically() {
    let g = sample();
    let before_ea = g.database().table_len("ea").unwrap();
    assert!(g.add_edge(1, 999, "knows", []).is_err());
    assert_eq!(g.database().table_len("ea").unwrap(), before_ea);
}

#[test]
fn bulk_load_round_trip() {
    let g = SqlGraph::with_config(SchemaConfig {
        out_buckets: 3,
        in_buckets: 3,
    })
    .unwrap();
    let mut data = GraphData::default();
    for v in 1..=50 {
        data.vertices.push((v, vec![("n".into(), Json::int(v))]));
    }
    let mut eid = 0;
    for v in 1..=49 {
        eid += 1;
        data.edges.push((eid, v, v + 1, "next".into(), vec![]));
        if v % 5 == 0 {
            eid += 1;
            data.edges.push((
                eid,
                v,
                1,
                "home".into(),
                vec![("w".into(), Json::float(0.5))],
            ));
        }
    }
    g.bulk_load(&data).unwrap();
    assert_eq!(
        g.query("g.V.count()").unwrap().scalar(),
        Some(&Value::Int(50))
    );
    // 3-hop chain traversal.
    let out = g
        .query("g.v(1).out('next').out('next').out('next')")
        .unwrap();
    assert_eq!(sorted_ints(&out), [4]);
    // Updates after bulk load keep working (ids continue past loaded max).
    let v = g.add_vertex([("n", Json::int(51))]).unwrap();
    assert_eq!(v, 51);
    let e = g.add_edge(50, 51, "next", []).unwrap();
    assert!(e > eid);
    let out = g.query("g.v(50).out('next')").unwrap();
    assert_eq!(sorted_ints(&out), [51]);
    // Table 3 statistics exist.
    let (out_stats, in_stats) = g.load_stats().unwrap();
    assert_eq!(out_stats.primary_rows, 49); // 49 vertices with out-edges
    assert!(in_stats.primary_rows > 0);
}

#[test]
fn spill_rows_appear_when_buckets_overflow() {
    // 1 bucket forces every second co-occurring label to spill.
    let g = SqlGraph::with_config(SchemaConfig {
        out_buckets: 1,
        in_buckets: 1,
    })
    .unwrap();
    let a = g.add_vertex([]).unwrap();
    let b = g.add_vertex([]).unwrap();
    let c = g.add_vertex([]).unwrap();
    g.add_edge(a, b, "x", []).unwrap();
    g.add_edge(a, c, "y", []).unwrap(); // same column → spill row
    let spills = g
        .database()
        .execute("SELECT COUNT(*) FROM opa WHERE spill = 1")
        .unwrap();
    assert_eq!(spills.scalar(), Some(&Value::Int(1)));
    // Traversal still finds both.
    let out = g.query("g.v(1).out.dedup()").unwrap();
    assert_eq!(sorted_ints(&out), [2, 3]);
}

#[test]
fn wal_backed_store_recovers() {
    let mut path = std::env::temp_dir();
    path.push(format!("sqlgraph-core-recover-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let g = SqlGraph::open(&path, SchemaConfig::default()).unwrap();
        let a = g.add_vertex([("name", "a".into())]).unwrap();
        let b = g.add_vertex([("name", "b".into())]).unwrap();
        g.add_edge(a, b, "knows", []).unwrap();
    }
    {
        let g = SqlGraph::open(&path, SchemaConfig::default()).unwrap();
        assert_eq!(
            g.query("g.V.count()").unwrap().scalar(),
            Some(&Value::Int(2))
        );
        assert_eq!(g.query("g.v(1).out('knows')").unwrap().int_column(), [2]);
        // Counters resumed: new ids do not collide.
        let c = g.add_vertex([]).unwrap();
        assert_eq!(c, 3);
    }
    std::fs::remove_file(&path).unwrap();
}

/// A panic mid-write must not wedge the store: a graph transaction and a
/// raw table write (under its table lock) both unwind mid-flight. Afterwards mutations, queries and
/// checkpoints run as before, and the panicked transaction is rolled back.
#[test]
fn a_panic_under_a_lock_leaves_the_store_usable() {
    let fs = std::sync::Arc::new(sqlgraph_rel::SimFs::new());
    let g = SqlGraph::open_with_vfs("poison.wal", SchemaConfig::default(), fs).unwrap();
    let a = g.add_vertex([("name", "a".into())]).unwrap();
    std::thread::scope(|s| {
        let in_txn = s.spawn(|| {
            let mut tx = g.transaction();
            tx.add_vertex(&[("name".into(), "ghost".into())]).unwrap();
            panic!("panic inside a graph transaction");
        });
        assert!(in_txn.join().is_err());
        let in_write = s.spawn(|| {
            g.database()
                .write_table("va", |_va| -> sqlgraph_rel::Result<()> {
                    panic!("panic under a table write lock")
                })
        });
        assert!(in_write.join().is_err());
    });
    let b = g.add_vertex([("name", "b".into())]).unwrap();
    g.add_edge(a, b, "knows", []).unwrap();
    let out = g.query(&format!("g.v({a}).out('knows')")).unwrap();
    assert_eq!(out.int_column(), [b]);
    assert_eq!(
        g.query("g.V.has('name', 'ghost').count()")
            .unwrap()
            .scalar(),
        Some(&Value::Int(0))
    );
    assert_eq!(
        g.query("g.V.count()").unwrap().scalar(),
        Some(&Value::Int(2))
    );
    g.checkpoint().unwrap();
}

#[test]
fn translation_is_used_not_fallback() {
    let g = sample();
    g.query("g.V.has('age', T.gt, 28).out('created').dedup().count()")
        .unwrap();
    assert_eq!(g.fallback_count(), 0);
    // Dynamic loop falls back.
    g.query("g.v(1).out.loop(1){it.weight < 2}").unwrap();
    assert_eq!(g.fallback_count(), 1);
}

#[test]
fn deleted_vertices_never_returned() {
    let g = sample();
    g.query("g.removeVertex(g.v(3))").unwrap(); // lop
    for q in [
        "g.V",
        "g.V.has('name','lop')",
        "g.v(3)",
        "g.v(1).out('created')",
        "g.v(4).out('created')",
    ] {
        let out = g.query(q).unwrap();
        assert!(
            !out.int_column().contains(&3),
            "deleted vertex leaked from {q}"
        );
    }
}

#[test]
fn explain_shows_index_usage() {
    let g = sample();
    g.create_vertex_property_index("name").unwrap();
    let plan = g
        .explain_query("g.V.has('name','marko').out('knows')")
        .unwrap()
        .strings()
        .join("\n");
    // The GraphQuery start merges into the scan... the has() filter joins
    // va; either way the EA hop must probe an index.
    assert!(plan.contains("index"), "expected index access:\n{plan}");
}

#[test]
fn property_index_accelerated_start() {
    let g = sample();
    g.create_vertex_property_index("name").unwrap();
    // GraphQuery start uses the functional index (visible in EXPLAIN).
    let plan = g
        .explain_query("g.V('name','marko').out('created')")
        .unwrap();
    let text = plan.strings().join("\n");
    assert!(
        text.contains("va_attr_name"),
        "expected functional index in plan:\n{text}"
    );
    // And produces correct results.
    let out = g
        .query("g.V('name','marko').out('created').values('name')")
        .unwrap();
    assert_eq!(out.strings(), ["lop"]);
}

#[test]
fn vacuum_reclaims_orphaned_secondary_lists() {
    let g = sample();
    // marko's two 'knows' edges live in an OSA list.
    assert_eq!(g.database().table_len("osa").unwrap(), 2);
    g.query("g.removeVertex(g.v(1))").unwrap(); // marko
                                                // The list is unreferenced once marko's OPA row is vacuumed.
    g.vacuum().unwrap();
    assert_eq!(g.database().table_len("osa").unwrap(), 0);
    // Remaining graph still queryable and consistent.
    let out = g.query("g.v(4).out('created').values('name')").unwrap();
    assert_eq!(out.strings(), ["lop"]);
}

/// Removing a vertex detaches each incident edge from the *other*
/// endpoint: a hub with an N-entry in-list of one label lists N − 1 after
/// one of its sources goes, and the hub's traversals agree. (The removed
/// vertex's own lists are left to the tombstone and `vacuum`.)
#[test]
fn removing_a_source_shrinks_the_hubs_in_list_by_one() {
    const N: i64 = 6;
    let g = SqlGraph::new_in_memory();
    let hub = g.add_vertex([("name", "hub".into())]).unwrap();
    let sources: Vec<i64> = (0..N)
        .map(|_| g.add_vertex([("name", "src".into())]).unwrap())
        .collect();
    for &s in &sources {
        g.add_edge(s, hub, "follows", Vec::new()).unwrap();
    }
    let c = g.layout().in_column("follows");
    let in_list = |g: &SqlGraph| {
        g.database()
            .execute_with_params(
                &format!(
                    "SELECT COUNT(*) FROM ipa p, isa s WHERE p.vid = ? AND s.valid = p.val{c} \
                     AND p.lbl{c} = 'follows'"
                ),
                &[Value::Int(hub)],
            )
            .unwrap()
            .int_column()
    };
    assert_eq!(in_list(&g), [N]);

    g.query(&format!("g.removeVertex(g.v({}))", sources[0]))
        .unwrap();
    assert_eq!(in_list(&g), [N - 1]);
    let expected: Vec<i64> = sources[1..].to_vec();
    assert_eq!(
        sorted_ints(&g.query(&format!("g.v({hub}).in('follows')")).unwrap()),
        expected
    );
    assert_eq!(
        g.query(&format!("g.v({hub}).inE('follows').count()"))
            .unwrap()
            .int_column(),
        [N - 1]
    );
    g.vacuum().unwrap();
    assert_eq!(in_list(&g), [N - 1]);
}

// ------------------------------------------------------ graph transactions --

/// A multi-step graph transaction commits atomically: none of its
/// vertices, edges, or property writes are visible to queries until
/// `commit`, and all of them are after.
#[test]
fn graph_transaction_commits_atomically() {
    let g = sample();
    let before = g.query("g.V().count()").unwrap().int_column()[0];

    let mut tx = g.transaction();
    let a = tx
        .add_vertex(&[("name".to_string(), Json::str("peter"))])
        .unwrap();
    let b = tx
        .add_vertex(&[("name".to_string(), Json::str("ripple"))])
        .unwrap();
    let e = tx.add_edge(a, b, "created", &[]).unwrap();
    tx.set_vertex_property(a, "age", &Json::int(35)).unwrap();
    tx.set_edge_property(e, "weight", &Json::float(0.9))
        .unwrap();
    tx.commit().unwrap();

    assert_eq!(
        g.query("g.V().count()").unwrap().int_column()[0],
        before + 2
    );
    let names = g.query(&format!("g.v({a}).out('created').values('name')"));
    assert_eq!(names.unwrap().strings(), ["ripple"]);
    assert_eq!(
        g.query(&format!("g.v({a}).values('age')"))
            .unwrap()
            .int_column(),
        [35]
    );
}

/// Rolling back (or dropping) a graph transaction leaves no trace — the
/// §4.5.2 vertex delete included: its incident-edge removals and
/// negative-ID marks must all be undone.
#[test]
fn graph_transaction_rolls_back_all_steps() {
    let g = sample();
    let snapshot = |g: &SqlGraph| {
        let mut t = (
            g.query("g.V().count()").unwrap().int_column()[0],
            g.query("g.E().count()").unwrap().int_column()[0],
            g.query("g.v(1).out().values('name')").unwrap().strings(),
        );
        t.2.sort();
        t
    };
    let before = snapshot(&g);

    let mut tx = g.transaction();
    let v = tx
        .add_vertex(&[("name".to_string(), Json::str("doomed"))])
        .unwrap();
    tx.add_edge(1, v, "knows", &[]).unwrap();
    // Vertex delete inside the transaction: removes incident edges and
    // marks the vertex rows with the negative-ID tombstone.
    tx.remove_vertex(3).unwrap();
    tx.set_vertex_property(1, "age", &Json::int(99)).unwrap();
    tx.rollback();

    assert_eq!(snapshot(&g), before, "rollback left residue");
    assert_eq!(g.query("g.v(1).values('age')").unwrap().int_column(), [29]);
    // The store still accepts new work after the rollback.
    let v2 = g.add_vertex([("name", "fresh".into())]).unwrap();
    assert!(v2 > v, "vertex ids must not be reused after rollback");
}

/// In-transaction reads observe the transaction's own writes, while
/// autocommit readers on other "connections" never see them pre-commit.
#[test]
fn graph_transaction_reads_its_own_writes() {
    let g = sample();
    let mut tx = g.transaction();
    let v = tx
        .add_vertex(&[("name".to_string(), Json::str("temp"))])
        .unwrap();
    tx.add_edge(1, v, "knows", &[]).unwrap();
    let rel = tx
        .sql_with_params(
            "SELECT JSON_VAL(attr, 'name') FROM va WHERE vid = ?",
            &[Value::Int(v)],
        )
        .unwrap();
    assert_eq!(rel.rows[0][0], Value::str("temp"));
    let out = tx.query("g.v(1).out('knows').id()").unwrap();
    assert!(
        out.int_column().contains(&v),
        "snapshot must include own writes"
    );
    tx.commit().unwrap();
    assert!(g
        .query("g.v(1).out('knows').id()")
        .unwrap()
        .int_column()
        .contains(&v));
}

/// The LinkBench reads and `detach`'s list-emptiness probe copy only the
/// columns they return: the index consumes `vid`/`inv`/`lbl`/`valid`, and
/// EXPLAIN's `Scan` line counts the rest.
#[test]
fn linkbench_reads_copy_only_the_columns_they_return() {
    let g = sample();
    let db = g.database();
    let i = |n: i64| Value::Int(n);
    let reads: [(&str, Vec<Value>, &str); 6] = [
        ("SELECT attr FROM va WHERE vid = ?", vec![i(1)], "1/2 cols"),
        (
            "SELECT COUNT(*) FROM ea WHERE inv = ? AND lbl = ?",
            vec![i(1), "knows".into()],
            "0/5 cols",
        ),
        (
            "SELECT eid, outv FROM ea WHERE inv = ? AND lbl = ? AND outv IN (?, ?, ?)",
            vec![i(1), "knows".into(), i(0), i(1), i(2)],
            "2/5 cols",
        ),
        (
            "SELECT eid, outv, attr FROM ea WHERE inv = ? AND lbl = ?",
            vec![i(1), "knows".into()],
            "3/5 cols",
        ),
        (
            "SELECT eid FROM ea WHERE inv = ? AND outv = ? AND lbl = ?",
            vec![i(1), i(0), "knows".into()],
            "2/5 cols",
        ),
        (
            "SELECT 1 FROM isa WHERE valid = ? LIMIT 1",
            vec![i(1)],
            "0/3 cols",
        ),
    ];
    for (sql, params, cols) in reads {
        let plan = db
            .execute_with_params(&format!("EXPLAIN {sql}"), &params)
            .unwrap()
            .strings()
            .join("\n");
        assert!(plan.contains("point, "), "{sql}: {plan}");
        assert!(plan.contains(cols), "{sql}: want {cols}\n{plan}");
    }
}

/// Heap blocks of the shared string / JSON payloads the store holds.
fn payload_blocks(g: &SqlGraph) -> usize {
    g.database()
        .footprint()
        .tables
        .iter()
        .map(|t| t.payloads.blocks)
        .sum()
}

/// Online edges with a bulk-loaded label reuse its one string in the `ea`
/// row and in both adjacency triads: each adds only its JSON document.
#[test]
fn online_edges_share_a_loaded_labels_string() {
    let g = SqlGraph::with_config(SchemaConfig {
        out_buckets: 2,
        in_buckets: 2,
    })
    .unwrap();
    let mut data = GraphData::default();
    for v in 1..=20 {
        data.vertices.push((v, vec![]));
    }
    for v in 1..=10 {
        data.edges.push((
            v,
            v,
            v + 1,
            if v % 2 == 0 { "a" } else { "b" }.into(),
            vec![],
        ));
    }
    g.bulk_load(&data).unwrap();
    let before = payload_blocks(&g);
    // New adjacency rows, free triads, and single → multi migrations.
    let edges = [
        (12, 13, "a"),
        (1, 3, "b"),
        (1, 4, "b"),
        (14, 2, "a"),
        (2, 5, "b"),
        (15, 16, "a"),
    ];
    for (src, dst, label) in edges {
        g.add_edge(src, dst, label, []).unwrap();
    }
    assert_eq!(
        payload_blocks(&g) - before,
        edges.len(),
        "one JSON document per edge"
    );
    // A label the load did not see gets strings of its own.
    let before = payload_blocks(&g);
    g.add_edge(3, 4, "fresh", []).unwrap();
    assert_eq!(
        payload_blocks(&g) - before,
        4,
        "a document and three strings"
    );
    assert_eq!(g.query("g.v(1).out('b')").unwrap().int_column().len(), 3);
}
