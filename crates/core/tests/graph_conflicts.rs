//! Graph writes that race: each test interleaves two graph transactions
//! (or a transaction and an autocommit call) on one thread, so no timing
//! is involved. Every change to a vertex's adjacency writes the vertex's
//! primary adjacency row in that direction, and vertex removal marks all
//! its rows, so each race below is a write-write conflict: exactly one
//! side commits, the other gets `TxnConflict`, and the store's cross-table
//! invariants hold afterwards.

use sqlgraph_core::{
    AdjacencyStrategy, CoreError, GraphData, GraphTxn, SchemaConfig, SqlGraph, TranslateOptions,
    MV_BASE,
};
use sqlgraph_json::Json;
use sqlgraph_rel::{Error as RelError, Value};

/// One side of a race: a step run inside an open transaction.
type Step<'s> = Box<dyn Fn(&mut GraphTxn<'_>) -> Result<(), CoreError> + 's>;

/// When the second transaction writes relative to the first one's commit.
#[derive(Debug, Clone, Copy)]
enum Order {
    /// Both write, then both try to commit: the second writer meets the
    /// first one's uncommitted version.
    BothOpen,
    /// The first commits before the second writes: the second meets a
    /// version committed after its snapshot.
    FirstCommitted,
}

fn is_conflict(e: &CoreError) -> bool {
    matches!(e, CoreError::Rel(RelError::TxnConflict(_)))
}

/// Run `first` and `second` in two transactions that both begin before
/// either writes; returns which of them committed. A side that fails must
/// fail with a conflict.
fn race(g: &SqlGraph, order: Order, first: &Step<'_>, second: &Step<'_>) -> [bool; 2] {
    let mut t1 = g.transaction();
    let mut t2 = g.transaction();
    let finish = |tx: GraphTxn<'_>, wrote: Result<(), CoreError>| -> bool {
        match wrote.and_then(|()| tx.commit()) {
            Ok(()) => true,
            Err(e) => {
                assert!(is_conflict(&e), "{order:?}: expected a conflict, got {e}");
                false
            }
        }
    };
    let r1 = first(&mut t1);
    match order {
        Order::BothOpen => {
            let r2 = second(&mut t2);
            [finish(t1, r1), finish(t2, r2)]
        }
        Order::FirstCommitted => {
            let c1 = finish(t1, r1);
            let r2 = second(&mut t2);
            [c1, finish(t2, r2)]
        }
    }
}

/// Race `a` against `b` in both orders and both interleavings, each on a
/// fresh store from `setup`; assert one winner and the invariants.
fn race_all(setup: impl Fn() -> SqlGraph, a: &Step<'_>, b: &Step<'_>, after: impl Fn(&SqlGraph)) {
    for order in [Order::BothOpen, Order::FirstCommitted] {
        for (first, second, name) in [(a, b, "a first"), (b, a, "b first")] {
            let g = setup();
            let committed = race(&g, order, first, second);
            assert_eq!(
                committed.iter().filter(|&&c| c).count(),
                1,
                "{order:?}, {name}: committed {committed:?}"
            );
            after(&g);
            check_invariants(&g);
        }
    }
}

/// The three invariants `tests/concurrency.rs` checks after its storm,
/// over every live vertex and both directions.
fn check_invariants(g: &SqlGraph) {
    let db = g.database();
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

    let with = |adjacency| TranslateOptions {
        adjacency,
        factorize: false,
    };
    let vids = db
        .execute("SELECT vid FROM va WHERE vid >= 0")
        .unwrap()
        .int_column();
    for v in vids {
        for step in ["out", "in"] {
            let q = format!("g.v({v}).{step}");
            let mut hash = g
                .query_with(&q, with(AdjacencyStrategy::ForceHash))
                .unwrap()
                .int_column();
            let mut ea = g
                .query_with(&q, with(AdjacencyStrategy::ForceEa))
                .unwrap()
                .int_column();
            hash.sort_unstable();
            ea.sort_unstable();
            assert_eq!(hash, ea, "adjacency mismatch at {q}");
        }
    }

    let config = SchemaConfig::default();
    for (pa, sa, buckets) in [
        ("opa", "osa", config.out_buckets),
        ("ipa", "isa", config.in_buckets),
    ] {
        let triads: Vec<String> = (0..buckets).map(|i| format!("(p.val{i})")).collect();
        let orphans = db
            .execute(&format!(
                "SELECT COUNT(*) FROM {pa} p, TABLE(VALUES {}) AS t(v) \
                 WHERE t.v >= {MV_BASE} AND t.v NOT IN (SELECT valid FROM {sa})",
                triads.join(", ")
            ))
            .unwrap();
        assert_eq!(
            orphans.scalar(),
            Some(&Value::Int(0)),
            "orphaned {pa} lists"
        );
    }
}

fn vertices(g: &SqlGraph, n: usize) -> Vec<i64> {
    (0..n)
        .map(|i| {
            g.add_vertex([("name", Json::str(format!("v{i}")))])
                .unwrap()
        })
        .collect()
}

fn edge(g: &SqlGraph, src: i64, dst: i64, label: &str) -> i64 {
    g.add_edge(src, dst, label, []).unwrap()
}

fn step<'s>(f: impl Fn(&mut GraphTxn<'_>) -> Result<(), CoreError> + 's) -> Step<'s> {
    Box::new(f)
}

fn add_edge(src: i64, dst: i64, label: &str) -> Step<'_> {
    step(move |tx| tx.add_edge(src, dst, label, &[]).map(|_| ()))
}

/// `a -knows-> b` and `a -knows-> c`: `knows` is multi-valued on `a`.
fn multi_valued() -> SqlGraph {
    let g = SqlGraph::new_in_memory();
    let v = vertices(&g, 4);
    edge(&g, v[0], v[1], "knows");
    edge(&g, v[0], v[2], "knows");
    g
}

#[test]
fn add_edge_to_a_multi_valued_label_conflicts_with_removing_its_endpoint() {
    let (a, d) = (1, 4);
    race_all(
        multi_valued,
        &add_edge(a, d, "knows"),
        &step(move |tx| tx.remove_vertex(a)),
        |_| {},
    );
}

#[test]
fn autocommit_remove_vertex_loses_to_an_open_add_edge() {
    let g = multi_valued();
    let (a, d) = (1, 4);
    let mut tx = g.transaction();
    tx.add_edge(a, d, "knows", &[]).unwrap();
    // Retried against the open transaction until the bound, then reported.
    let err = g.query(&format!("g.removeVertex({a})")).unwrap_err();
    assert!(is_conflict(&err), "got {err}");
    tx.commit().unwrap();
    assert_eq!(
        g.query(&format!("g.v({a}).out.count()")).unwrap().scalar(),
        Some(&Value::Int(3))
    );
    check_invariants(&g);
}

#[test]
fn two_add_edges_needing_a_spill_row_for_one_label_conflict() {
    // `held` takes the column `new` hashes to on `a`'s primary row, so
    // each `a -new-> …` edge needs a spill row for `new`.
    let layout = SqlGraph::new_in_memory().layout();
    let held = "held";
    let new = (0..)
        .map(|i| format!("spill{i}"))
        .find(|l| layout.out_column(l) == layout.out_column(held))
        .unwrap();
    let setup = || {
        let g = SqlGraph::new_in_memory();
        let v = vertices(&g, 3);
        edge(&g, v[0], v[1], held);
        g
    };
    let (a, b, c) = (1, 2, 3);
    race_all(setup, &add_edge(a, b, &new), &add_edge(a, c, &new), |g| {
        remove_out_edges_newest_first(g, a, &new)
    });
}

/// Removing `v`'s `label` edges newest first must leave no adjacency
/// behind: with two rows holding one label, the newer edge's removal
/// would find the older edge's row and detach nothing.
fn remove_out_edges_newest_first(g: &SqlGraph, v: i64, label: &str) {
    let mut edges = g
        .query(&format!("g.v({v}).outE('{label}').id()"))
        .unwrap()
        .int_column();
    edges.sort_unstable();
    for e in edges.into_iter().rev() {
        g.query(&format!("g.removeEdge({e})")).unwrap();
    }
    check_invariants(g);
}

#[test]
fn a_vertex_without_adjacency_rows_is_claimed_through_its_attribute_row() {
    // Bulk-loaded `a` has an in-edge but no out-adjacency row, so an
    // `a -x-> …` edge inserts `a`'s first `opa` row: there is no row yet
    // that a removal of `a`, or a second such edge, would also write.
    let setup = || {
        let g = SqlGraph::new_in_memory();
        g.bulk_load(&GraphData {
            vertices: (1..=3).map(|v| (v, vec![])).collect(),
            edges: vec![(1, 2, 1, "seed".into(), vec![])],
        })
        .unwrap();
        g
    };
    let (a, b, c) = (1, 2, 3);
    race_all(
        setup,
        &add_edge(a, c, "x"),
        &step(move |tx| tx.remove_vertex(a)),
        |_| {},
    );
    race_all(setup, &add_edge(a, b, "x"), &add_edge(a, c, "x"), |g| {
        remove_out_edges_newest_first(g, a, "x")
    });
}

#[test]
fn remove_edge_emptying_a_list_conflicts_with_add_edge_appending_to_it() {
    // `a -knows-> b` is the last entry of `a`'s multi-valued `knows` list:
    // removing it empties the list and clears the triad.
    let setup = || {
        let g = multi_valued();
        let ac = g.query("g.v(1).outE('knows').id()").unwrap().int_column()[1];
        g.query(&format!("g.removeEdge({ac})")).unwrap();
        g
    };
    let ab = setup()
        .query("g.v(1).outE('knows').id()")
        .unwrap()
        .int_column()[0];
    let (a, d) = (1, 4);
    race_all(
        setup,
        &step(move |tx| tx.remove_edge(ab)),
        &add_edge(a, d, "knows"),
        |_| {},
    );
}

#[test]
fn set_vertex_property_conflicts_with_remove_vertex() {
    let a = 1;
    race_all(
        multi_valued,
        &step(move |tx| tx.set_vertex_property(a, "age", &Json::int(7))),
        &step(move |tx| tx.remove_vertex(a)),
        |_| {},
    );
}

#[test]
fn a_missing_endpoint_changes_nothing() {
    let g = multi_valued();
    let before = g.query("g.v(1).out.count()").unwrap().rows;
    let mut tx = g.transaction();
    let err = tx.add_edge(1, 99, "knows", &[]).unwrap_err();
    assert!(
        matches!(&err, CoreError::Graph(e) if e.to_string().ends_with("no vertex 99")),
        "got {err}"
    );
    let err = tx.remove_vertex(99).unwrap_err();
    assert!(
        matches!(&err, CoreError::Graph(e) if e.to_string().ends_with("no vertex 99")),
        "got {err}"
    );
    tx.commit().unwrap();
    assert_eq!(g.query("g.v(1).out.count()").unwrap().rows, before);
    assert_eq!(
        g.query("g.V.count()").unwrap().scalar(),
        Some(&Value::Int(4))
    );
    check_invariants(&g);
}

#[test]
fn a_transaction_that_lost_a_conflict_cannot_commit() {
    let g = multi_valued();
    let (a, d) = (1, 4);
    let mut t1 = g.transaction();
    let mut t2 = g.transaction();
    t1.add_edge(a, d, "knows", &[]).unwrap();
    // `t2` inserts its `ea` row, then loses the conflict on `a`'s
    // adjacency: committing it would leave an edge no adjacency lists.
    let err = t2.add_edge(a, d, "knows", &[]).unwrap_err();
    assert!(is_conflict(&err), "got {err}");
    let err = t2.commit().unwrap_err();
    assert!(is_conflict(&err), "got {err}");
    t1.commit().unwrap();
    assert_eq!(
        g.query(&format!("g.v({a}).outE('knows').count()"))
            .unwrap()
            .scalar(),
        Some(&Value::Int(3))
    );
    check_invariants(&g);
}
