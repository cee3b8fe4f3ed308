//! Concurrency integration tests: hammer SQLGraph from many threads with
//! the LinkBench mix, then verify the store's cross-table invariants.

use sqlgraph::core::{GraphData, SqlGraph};
use sqlgraph::datagen::linkbench::{self, LinkBenchConfig, Op, Workload};
use sqlgraph::gremlin::Blueprints;
use sqlgraph::rel::Value;

fn apply(g: &SqlGraph, op: &Op) {
    // Races (concurrent deletes etc.) are expected; only panics are bugs.
    match op {
        Op::AddNode { props } => {
            let _ = Blueprints::add_vertex(g, props);
        }
        Op::UpdateNode { id } => {
            let _ = Blueprints::set_vertex_property(g, *id, "version", &2i64.into());
        }
        Op::DeleteNode { id } => {
            let _ = Blueprints::remove_vertex(g, *id);
        }
        Op::GetNode { id } => {
            let _ = Blueprints::vertex_property(g, *id, "data");
        }
        Op::AddLink { src, dst, ltype } => {
            let _ = Blueprints::add_edge(g, *src, *dst, ltype, &[]);
        }
        Op::DeleteLink { src, dst, ltype } => {
            let found = Blueprints::edges_of(
                g,
                *src,
                sqlgraph::gremlin::Direction::Out,
                &[ltype.to_string()],
            )
            .into_iter()
            .find(|&e| Blueprints::edge_target(g, e) == Some(*dst));
            if let Some(e) = found {
                let _ = Blueprints::remove_edge(g, e);
            }
        }
        Op::UpdateLink { .. } | Op::CountLink { .. } | Op::MultigetLink { .. } => {}
        Op::GetLinkList { id, ltype } => {
            let _ = Blueprints::adjacent(
                g,
                *id,
                sqlgraph::gremlin::Direction::Out,
                &[ltype.to_string()],
            );
        }
    }
}

#[test]
fn concurrent_linkbench_storm_preserves_invariants() {
    let config = LinkBenchConfig {
        nodes: 300,
        ..LinkBenchConfig::default()
    };
    let data = linkbench::generate(&config);
    let g = SqlGraph::new_in_memory();
    g.bulk_load(&GraphData {
        vertices: data.vertices.clone(),
        edges: data.edges.clone(),
    })
    .unwrap();

    std::thread::scope(|scope| {
        for r in 0..8u64 {
            let g = &g;
            scope.spawn(move || {
                let mut wl = Workload::new(13, r, config.nodes, 8);
                for _ in 0..400 {
                    apply(g, &wl.next_op());
                }
            });
        }
    });

    let db = g.database();
    // Invariant 1: every EA edge's endpoints are live (non-negative vids).
    let dangling = db
        .execute(
            "SELECT COUNT(*) FROM ea WHERE inv NOT IN (SELECT vid FROM va WHERE vid >= 0) \
             OR outv NOT IN (SELECT vid FROM va WHERE vid >= 0)",
        )
        .unwrap();
    assert_eq!(
        dangling.scalar(),
        Some(&Value::Int(0)),
        "dangling EA endpoints"
    );

    // Invariant 2: adjacency-table traversal agrees with the EA triple
    // table for every live vertex (out direction, all labels).
    use sqlgraph::core::{AdjacencyStrategy, TranslateOptions};
    let hash = TranslateOptions {
        adjacency: AdjacencyStrategy::ForceHash,
        factorize: false,
    };
    let ea = TranslateOptions {
        adjacency: AdjacencyStrategy::ForceEa,
        factorize: false,
    };
    let vids = db
        .execute("SELECT vid FROM va WHERE vid >= 0")
        .unwrap()
        .int_column();
    for &v in vids.iter().step_by(7) {
        let q = format!("g.v({v}).out");
        let mut a = g.query_with(&q, hash).unwrap().int_column();
        let mut b = g.query_with(&q, ea).unwrap().int_column();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "adjacency mismatch at vertex {v}");
    }

    // Invariant 3: every multi-value pointer in OPA resolves to OSA rows.
    let orphans = db
        .execute(
            "SELECT COUNT(*) FROM opa p, TABLE(VALUES (p.val0),(p.val1),(p.val2),(p.val3),\
             (p.val4),(p.val5),(p.val6),(p.val7)) AS t(v) \
             WHERE t.v >= 1000000000000 AND t.v NOT IN (SELECT valid FROM osa)",
        )
        .unwrap();
    assert_eq!(
        orphans.scalar(),
        Some(&Value::Int(0)),
        "orphaned multi-value pointers"
    );
}

#[test]
fn parallel_queries_survive_concurrent_linkbench_storm() {
    // The LinkBench hammer mutates the store from writer threads while
    // other threads run analytic queries pinned to DOP 4 — so morsel
    // workers hold table read guards while writers contend for the write
    // locks. Only panics and deadlocks are bugs; row contents shift under
    // the race, but every result must stay well-formed.
    let config = LinkBenchConfig {
        nodes: 300,
        ..LinkBenchConfig::default()
    };
    let data = linkbench::generate(&config);
    let g = SqlGraph::new_in_memory();
    g.bulk_load(&GraphData {
        vertices: data.vertices.clone(),
        edges: data.edges.clone(),
    })
    .unwrap();
    g.database().set_parallelism(4);

    std::thread::scope(|scope| {
        for r in 0..4u64 {
            let g = &g;
            scope.spawn(move || {
                let mut wl = Workload::new(29, r, config.nodes, 8);
                for _ in 0..300 {
                    apply(g, &wl.next_op());
                }
            });
        }
        for _ in 0..4 {
            let g = &g;
            scope.spawn(move || {
                for _ in 0..60 {
                    let db = g.database();
                    let groups = db
                        .execute(
                            "SELECT ea.lbl, COUNT(*) FROM ea, va \
                             WHERE ea.outv = va.vid GROUP BY ea.lbl",
                        )
                        .unwrap();
                    for row in &groups.rows {
                        assert_eq!(row.len(), 2, "malformed aggregate row: {row:?}");
                    }
                    let scanned = db
                        .execute("SELECT COUNT(*) FROM va WHERE vid >= 0")
                        .unwrap();
                    assert!(scanned.scalar().and_then(Value::as_int).is_some());
                }
            });
        }
    });
    g.database().set_parallelism(0);
}

#[test]
fn concurrent_readers_and_writers_make_progress() {
    let g = SqlGraph::new_in_memory();
    let hub = g.add_vertex([("name", "hub".into())]).unwrap();
    for _ in 0..50 {
        let v = g.add_vertex([]).unwrap();
        g.add_edge(hub, v, "spoke", []).unwrap();
    }
    std::thread::scope(|scope| {
        // Writers keep adding spokes...
        for _ in 0..2 {
            let g = &g;
            scope.spawn(move || {
                for _ in 0..100 {
                    let v = g.add_vertex([]).unwrap();
                    g.add_edge(hub, v, "spoke", []).unwrap();
                }
            });
        }
        // ...while readers traverse.
        for _ in 0..4 {
            let g = &g;
            scope.spawn(move || {
                for _ in 0..100 {
                    let n = g
                        .query("g.v(1).out('spoke').count()")
                        .unwrap()
                        .scalar()
                        .and_then(Value::as_int)
                        .unwrap();
                    assert!(n >= 50);
                }
            });
        }
    });
    let final_count = g
        .query("g.v(1).out('spoke').count()")
        .unwrap()
        .scalar()
        .and_then(Value::as_int)
        .unwrap();
    assert_eq!(final_count, 250);
}
