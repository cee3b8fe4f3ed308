//! Differential testing: for every query in a broad corpus, the SQL
//! translation executed by the relational engine must produce the same
//! multiset of results as (a) the step-at-a-time interpreter running over
//! SqlGraph's Blueprints API and (b) the same interpreter over the MemGraph
//! oracle — on both a hand-built graph and randomized graphs.

mod common;

use common::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlgraph_core::{SchemaConfig, SqlGraph};
use sqlgraph_gremlin::{interp, parse_query, Blueprints, MemGraph};
use sqlgraph_json::Json;

/// Returns the translated statement's result, when the query translates.
fn check_query(sql: &SqlGraph, mem: &MemGraph, query: &str) -> Option<sqlgraph_rel::Relation> {
    let pipeline = parse_query(query).unwrap();
    let oracle = canon_elems(&interp::eval(mem, &pipeline).unwrap());
    let chatty = canon_elems(&interp::eval(sql, &pipeline).unwrap());
    assert_eq!(
        chatty, oracle,
        "interpreter-over-SqlGraph diverged on {query}"
    );
    match sql.translate_query(query) {
        Ok(sql_text) => {
            let translated = sql.database().execute(&sql_text).unwrap_or_else(|e| {
                panic!("generated SQL failed for {query}: {e}\nSQL: {sql_text}")
            });
            assert_eq!(
                canon_values(&translated.rows),
                oracle,
                "translation diverged on {query}\nSQL: {sql_text}"
            );
            Some(translated)
        }
        // Fallback path must still match (covered by `chatty` above).
        Err(_) => None,
    }
}

#[test]
fn corpus_on_figure2_graph() {
    let data = figure2_graph();
    let (sql, mem) = build_stores(&data);
    for query in CORPUS {
        check_query(&sql, &mem, query);
    }
}

#[test]
fn corpus_has_good_translation_coverage() {
    // Guard against silently falling back to the interpreter everywhere.
    let data = figure2_graph();
    let (sql, _) = build_stores(&data);
    let mut translated = 0;
    for query in CORPUS {
        if sql.translate_query(query).is_ok() {
            translated += 1;
        }
    }
    assert!(
        translated * 10 >= CORPUS.len() * 9,
        "only {translated}/{} queries translated to SQL",
        CORPUS.len()
    );
}

#[test]
fn corpus_on_random_graphs() {
    for seed in 0..4u64 {
        let data = random_graph(seed, 25, 60);
        let (sql, mem) = build_stores(&data);
        for query in CORPUS {
            check_query(&sql, &mem, query);
        }
    }
}

#[test]
fn corpus_survives_updates() {
    // Apply the same random update sequence to SqlGraph and MemGraph, then
    // re-check the corpus: exercises attach/detach/migration/deletion.
    // Assigned ids must match exactly, edge removals included.
    let data = figure2_graph();
    let (sql, mem) = build_stores(&data);
    let mut rng = StdRng::seed_from_u64(23);
    let mut live_vertices: Vec<i64> = vec![1, 2, 3, 4];
    let mut live_edges: Vec<i64> = vec![1, 2, 3, 4, 5];
    for step in 0..60 {
        match rng.gen_range(0..6) {
            0 => {
                let props = vec![
                    ("name".to_string(), Json::str("new")),
                    ("age".to_string(), Json::int(rng.gen_range(10..60))),
                ];
                let a = Blueprints::add_vertex(&sql, &props).unwrap();
                let b = mem.add_vertex(&props).unwrap();
                assert_eq!(a, b, "vertex id diverged at step {step}");
                live_vertices.push(a);
            }
            1 | 2 => {
                if live_vertices.len() < 2 {
                    continue;
                }
                let src = live_vertices[rng.gen_range(0..live_vertices.len())];
                let dst = live_vertices[rng.gen_range(0..live_vertices.len())];
                let label = ["knows", "created", "likes"][rng.gen_range(0..3usize)];
                let props = vec![("weight".to_string(), Json::float(0.5))];
                let a = Blueprints::add_edge(&sql, src, dst, label, &props).unwrap();
                let b = mem.add_edge(src, dst, label, &props).unwrap();
                assert_eq!(a, b, "edge id diverged at step {step}");
                live_edges.push(a);
            }
            3 => {
                if live_vertices.len() <= 2 {
                    continue;
                }
                let idx = rng.gen_range(0..live_vertices.len());
                let v = live_vertices.swap_remove(idx);
                Blueprints::remove_vertex(&sql, v).unwrap();
                mem.remove_vertex(v).unwrap();
                // Incident edges went with the vertex.
                live_edges.retain(|&e| mem.edge_exists(e));
            }
            4 => {
                if live_edges.is_empty() {
                    continue;
                }
                let idx = rng.gen_range(0..live_edges.len());
                let e = live_edges.swap_remove(idx);
                Blueprints::remove_edge(&sql, e).unwrap();
                mem.remove_edge(e).unwrap();
            }
            _ => {
                if let Some(&v) = live_vertices.first() {
                    let val = Json::int(rng.gen_range(10..60));
                    Blueprints::set_vertex_property(&sql, v, "age", &val).unwrap();
                    mem.set_vertex_property(v, "age", &val).unwrap();
                }
            }
        }
    }
    let sorted = |mut ids: Vec<i64>| {
        ids.sort_unstable();
        ids
    };
    assert_eq!(sorted(sql.vertex_ids()), sorted(mem.vertex_ids()));
    assert_eq!(sorted(sql.edge_ids()), sorted(mem.edge_ids()));
    // Ids are aligned, so edge-id queries are re-checked too. Range is
    // skipped: after deletes the store's traversal order legitimately
    // differs from MemGraph's insertion order, so a positional slice picks
    // different elements.
    for query in CORPUS.iter().filter(|q| !q.contains(".range(")) {
        check_query(&sql, &mem, query);
    }
}

#[test]
fn corpus_survives_crash_and_reopen() {
    // Graph CRUD through a crash: build the Figure-2 graph through the
    // Blueprints mutation path on a WAL-backed store over SimFs, mutate it
    // (property update, extra vertex/edge, vertex deletion), checkpoint,
    // crash mid-mutation, reopen — Gremlin results must still match the
    // MemGraph oracle on the full corpus.
    use sqlgraph_rel::{Fault, FaultKind, SimFs};
    use std::sync::Arc;

    let fs = SimFs::new();
    let base = std::path::PathBuf::from("graph.wal");
    let config = SchemaConfig {
        out_buckets: 3,
        in_buckets: 3,
    };
    let mem = MemGraph::new();
    {
        let sql = SqlGraph::open_with_vfs(&base, config, Arc::new(fs.clone())).unwrap();
        sql.set_sync_on_commit(true);
        let data = figure2_graph();
        for (vid, props) in &data.vertices {
            assert_eq!(Blueprints::add_vertex(&sql, props).unwrap(), *vid);
            assert_eq!(mem.add_vertex(props).unwrap(), *vid);
        }
        for (eid, src, dst, label, props) in &data.edges {
            assert_eq!(
                Blueprints::add_edge(&sql, *src, *dst, label, props).unwrap(),
                *eid
            );
            assert_eq!(mem.add_edge(*src, *dst, label, props).unwrap(), *eid);
        }
        // Property update + new vertex/edge on both stores.
        let age = Json::int(30);
        Blueprints::set_vertex_property(&sql, 1, "age", &age).unwrap();
        mem.set_vertex_property(1, "age", &age).unwrap();
        let props = vec![("name".to_string(), Json::str("ripple"))];
        assert_eq!(Blueprints::add_vertex(&sql, &props).unwrap(), 5);
        assert_eq!(mem.add_vertex(&props).unwrap(), 5);
        assert_eq!(Blueprints::add_edge(&sql, 4, 5, "created", &[]).unwrap(), 6);
        assert_eq!(mem.add_edge(4, 5, "created", &[]).unwrap(), 6);

        // Bound recovery: everything so far comes back from the snapshot.
        let report = sql.checkpoint().unwrap();
        assert_eq!(report.gen, 1);

        // Post-checkpoint tail: delete a vertex (and its incident edges).
        Blueprints::remove_vertex(&sql, 2).unwrap();
        mem.remove_vertex(2).unwrap();

        // Crash the next file-system operation: this mutation must ack on
        // neither store.
        fs.schedule_fault(Fault {
            at_op: fs.op_count(),
            kind: FaultKind::Crash { keep_tail: 0 },
        });
        assert!(Blueprints::add_vertex(&sql, &props).is_err());
    }
    fs.recover();
    let sql = SqlGraph::open_with_vfs(&base, config, Arc::new(fs.clone())).unwrap();
    let report = sql.recovery_report().unwrap();
    assert_eq!(report.snapshot_gen, Some(1));
    for query in CORPUS {
        check_query(&sql, &mem, query);
    }
    // The reopened store keeps working: mutate and re-check a query.
    let props = vec![("name".to_string(), Json::str("peter"))];
    let vid = Blueprints::add_vertex(&sql, &props).unwrap();
    assert_eq!(mem.add_vertex(&props).unwrap(), vid);
    check_query(&sql, &mem, "g.V.count()");
}

#[test]
fn corpus_parallel_vs_serial() {
    // The serial result is tied to the interpreter over MemGraph, and
    // morsel-parallel execution must be not just multiset-equal but
    // row-identical to serial: parallel operators concatenate morsel
    // outputs in morsel order, so even unsorted results keep serial row
    // order. Checked at DOP 2/4/8, on index-seeded statistics (seed 0) and
    // on fresh ANALYZE statistics.
    for seed in 0..2u64 {
        let data = random_graph(seed, 25, 60);
        let (sql, mem) = build_stores(&data);
        if seed > 0 {
            sql.database().execute("ANALYZE").unwrap();
        }
        for query in CORPUS {
            sql.database().set_parallelism(1);
            let Some(serial) = check_query(&sql, &mem, query) else {
                continue;
            };
            let sql_text = sql.translate_query(query).unwrap();
            for dop in [2usize, 4, 8] {
                sql.database().set_parallelism(dop);
                let parallel = sql.database().execute(&sql_text).unwrap_or_else(|e| {
                    panic!("dop {dop} execution failed for {query}: {e}\nSQL: {sql_text}")
                });
                assert_eq!(
                    serial.rows, parallel.rows,
                    "dop {dop} diverged on {query}\nSQL: {sql_text}"
                );
            }
        }
        sql.database().set_parallelism(0);
    }
}

#[test]
fn corpus_csr_on_vs_off() {
    // The CSR adjacency access path plus list-based execution must be
    // byte-identical to the row engine's index nested-loop joins — same
    // rows, same order — for every translatable corpus query at DOP
    // 1/2/4/8. The graph is sized so the adjacency tables clear the
    // planner's CSR row-count floor (the tiny corpus graphs never would).
    let data = random_graph(42, 400, 1100);
    let (sql, _mem) = build_stores(&data);
    sql.database().execute("ANALYZE").unwrap();
    for query in CORPUS {
        let Ok(sql_text) = sql.translate_query(query) else {
            continue;
        };
        for dop in [1usize, 2, 4, 8] {
            sql.database().set_parallelism(dop);
            sql.database().set_csr_enabled(false);
            let row = sql.database().execute(&sql_text).unwrap_or_else(|e| {
                panic!("csr-off execution failed for {query}: {e}\nSQL: {sql_text}")
            });
            sql.database().set_csr_enabled(true);
            let csr = sql.database().execute(&sql_text).unwrap_or_else(|e| {
                panic!("csr-on execution failed for {query}: {e}\nSQL: {sql_text}")
            });
            assert_eq!(
                csr.rows, row.rows,
                "csr path diverged (dop {dop}) on {query}\nSQL: {sql_text}"
            );
            assert_eq!(csr.columns, row.columns, "column names diverged on {query}");
        }
    }
    assert!(
        sql.database().csr_builds() > 0,
        "corpus never exercised the CSR access path"
    );
    sql.database().set_parallelism(0);
}

#[test]
fn txn_reader_never_sees_csr_rebuilt_past_its_snapshot() {
    // A CSR entry is keyed to the table's content version; a transaction's
    // snapshot must keep seeing pre-transaction adjacency even after
    // concurrent commits invalidate and rebuild the shared cache entry.
    let data = random_graph(7, 400, 1100);
    let (sql, _mem) = build_stores(&data);
    let db = sql.database();
    let count_sql = sql.translate_query("g.V.out.out.count()").unwrap();
    let before = db.execute(&count_sql).unwrap().rows.clone();
    assert!(db.csr_cache_len() > 0, "autocommit read should prime CSR");

    let mut txn = db.begin();
    let in_txn_first = txn.execute(&count_sql).unwrap().rows;
    assert_eq!(in_txn_first, before);

    // Concurrent autocommit writer: new edges through the graph update
    // procedures (they rewrite OPA/IPA/OSA/ISA/EA consistently).
    for i in 0..10 {
        Blueprints::add_edge(&sql, 1 + i, 2 + i, "knows", &[]).unwrap();
    }
    // The shared cache must not serve the stale entry to new readers...
    let after_write = db.execute(&count_sql).unwrap().rows.clone();
    assert_ne!(after_write, before, "writer's commit must be visible");
    // ...and the rebuilt entry must not leak into the open transaction.
    let in_txn_second = txn.execute(&count_sql).unwrap().rows;
    assert_eq!(
        in_txn_second, before,
        "snapshot reader observed a CSR rebuilt past its snapshot"
    );
    txn.rollback();
    assert_eq!(db.execute(&count_sql).unwrap().rows, after_write);
}
