//! Differential test: queries executed through real client sockets must be
//! byte-identical to in-process execution — the full Gremlin/SQL corpus,
//! then N concurrent sessions mixing autocommit statements with explicit
//! transactions, including first-updater-wins conflicts surfacing as typed
//! error frames.

use sqlgraph_core::{GraphData, SqlGraph};
use sqlgraph_json::Json;
use sqlgraph_rel::codec::MAX_DEPTH;
use sqlgraph_rel::{Error as RelError, Relation, Value};
use sqlgraph_server::{Client, ErrorCode, Server};
use std::sync::Arc;

/// Canonical rendering of a result multiset for comparison.
fn canon(rel: &Relation) -> Vec<String> {
    let mut out: Vec<String> = rel
        .rows
        .iter()
        .map(|r| r.iter().map(render_value).collect::<Vec<_>>().join("|"))
        .collect();
    out.sort();
    out
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("i:{i}"),
        Value::Double(f) => format!("f:{f}"),
        Value::Str(s) => format!("s:{s}"),
        Value::Bool(b) => format!("b:{b}"),
        Value::Null => "null".into(),
        Value::Json(j) => format!("j:{j}"),
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(render_value).collect();
            format!("a:[{}]", inner.join(","))
        }
    }
}

fn figure2_graph() -> GraphData {
    GraphData {
        vertices: vec![
            (
                1,
                vec![
                    ("name".into(), "marko".into()),
                    ("age".into(), Json::int(29)),
                ],
            ),
            (
                2,
                vec![
                    ("name".into(), "vadas".into()),
                    ("age".into(), Json::int(27)),
                ],
            ),
            (
                3,
                vec![
                    ("name".into(), "lop".into()),
                    ("lang".into(), "java".into()),
                ],
            ),
            (
                4,
                vec![
                    ("name".into(), "josh".into()),
                    ("age".into(), Json::int(32)),
                ],
            ),
        ],
        edges: vec![
            (
                1,
                1,
                2,
                "knows".into(),
                vec![("weight".into(), Json::float(0.5))],
            ),
            (
                2,
                1,
                4,
                "knows".into(),
                vec![("weight".into(), Json::float(1.0))],
            ),
            (
                3,
                1,
                3,
                "created".into(),
                vec![("weight".into(), Json::float(0.4))],
            ),
            (
                4,
                4,
                2,
                "likes".into(),
                vec![("weight".into(), Json::float(0.2))],
            ),
            (
                5,
                4,
                3,
                "created".into(),
                vec![("weight".into(), Json::float(0.8))],
            ),
        ],
    }
}

/// The same pipe-family corpus the in-process differential suite runs.
const CORPUS: &[&str] = &[
    "g.V",
    "g.E",
    "g.v(1)",
    "g.v(99)",
    "g.e(3)",
    "g.V.count()",
    "g.E.count()",
    "g.v(1).out",
    "g.v(1).out('knows')",
    "g.v(1).out('knows','created')",
    "g.v(3).in",
    "g.v(2).in('likes')",
    "g.v(4).both",
    "g.v(1).outE",
    "g.v(1).outE('knows')",
    "g.v(2).inE",
    "g.v(4).bothE",
    "g.v(1).outE('knows').inV",
    "g.e(4).outV",
    "g.e(4).inV",
    "g.e(4).bothV",
    "g.v(1).out.out",
    "g.v(1).out.out.count()",
    "g.v(1).out.in.dedup()",
    "g.V.has('age')",
    "g.V.hasNot('age')",
    "g.V.has('age', 29)",
    "g.V.has('age', T.gt, 28)",
    "g.V.has('age', T.lte, 29)",
    "g.V.has('age', T.neq, 29)",
    "g.V.has('name', 'lop')",
    "g.V('name','lop')",
    "g.V('name','lop').in('created')",
    "g.V.filter{it.age > 27 && it.age < 32}",
    "g.V.filter{it.name == 'lop' || it.name == 'vadas'}",
    "g.V.filter{it.name.contains('a')}",
    "g.V.interval('age', 27, 32)",
    "g.V.out.dedup()",
    "g.V.out.dedup().count()",
    "g.v(1).out('knows').values('name')",
    "g.v(1).values('age')",
    "g.v(1).outE.label.dedup()",
    "g.v(2).id",
    "g.E.has('weight', T.gte, 0.8)",
    "g.E.has('weight', T.lt, 0.5).inV",
    "g.v(1).out('knows').out.path",
    "g.v(1).out.both.simplePath.count()",
    "g.V.as('x').out('created').back('x')",
    "g.V.out('created').back(1)",
    "g.V.as('x').out('created').back('x').values('name')",
    "g.v(1).aggregate(x).out('knows').out.except(x)",
    "g.v(2).aggregate(x).in('knows').out.retain(x)",
    "g.V.and(_().out('knows'), _().out('created'))",
    "g.V.or(_().out('knows'), _().out('created'))",
    "g.v(1).copySplit(_().out('knows'), _().out('created')).fairMerge",
    "g.v(1).out.loop(1){it.loops < 2}",
    "g.v(1).out.loop(1){it.loops < 3}.count()",
    "g.V.as('s').out.loop('s'){it.loops < 2}.dedup()",
    "g.V.groupBy{it.name}{it}.count()",
    "g.V.table(t1).out.count()",
    "g.V.filter{it.tag=='w'}.both.dedup().count()",
    "g.V.has('age').ifThenElse{it.age > 28}{it.name}{it.age}",
];

fn figure2_server() -> (Arc<SqlGraph>, Server) {
    let graph = Arc::new(SqlGraph::new_in_memory());
    graph.bulk_load(&figure2_graph()).unwrap();
    let server = Server::start_local(Arc::clone(&graph)).unwrap();
    (graph, server)
}

#[test]
fn gremlin_corpus_matches_in_process_over_socket() {
    let (graph, server) = figure2_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for query in CORPUS {
        let local = graph.query(query).unwrap();
        let remote = client.query_gremlin(query).unwrap();
        assert_eq!(
            canon(&remote),
            canon(&local),
            "socket execution diverged on {query}"
        );
        // Column names travel too.
        assert_eq!(remote.columns, local.columns, "columns diverged on {query}");
    }
    client.close().unwrap();
    server.shutdown();
}

#[test]
fn sql_queries_match_in_process_over_socket() {
    let (graph, server) = figure2_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let queries = [
        "SELECT vid, attr FROM va",
        "SELECT COUNT(*) FROM ea",
        "SELECT eid, outv, attr FROM ea WHERE inv = 1 AND lbl = 'knows'",
        "SELECT attr FROM va WHERE vid = 3",
    ];
    for sql in queries {
        let local = graph.database().execute(sql).unwrap();
        let remote = client.query_sql(sql).unwrap();
        assert_eq!(canon(&remote), canon(&local), "diverged on {sql}");
    }
    // Parameterized form through prepare/execute.
    let stmt = client.prepare("SELECT attr FROM va WHERE vid = ?").unwrap();
    for vid in 1..=4i64 {
        let local = graph
            .database()
            .execute_with_params("SELECT attr FROM va WHERE vid = ?", &[Value::Int(vid)])
            .unwrap();
        let remote = client.execute(stmt, &[Value::Int(vid)]).unwrap();
        assert_eq!(canon(&remote), canon(&local), "diverged on vid {vid}");
    }
    server.shutdown();
}

#[test]
fn sql_errors_reconstruct_the_engine_error() {
    let (graph, server) = figure2_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let bad = [
        "SELECT FROM nothing",
        "SELECT * FROM no_such_table",
        "INSERT INTO va VALUES (1)",
    ];
    for sql in bad {
        let local = graph.database().execute(sql).unwrap_err();
        let remote = client.query_sql(sql).unwrap_err();
        let rebuilt = remote
            .as_rel_error()
            .unwrap_or_else(|| panic!("no rel error for {sql}: {remote}"));
        assert_eq!(rebuilt, local, "error diverged on {sql}");
    }
    server.shutdown();
}

/// An array the codec cannot decode is never built: nesting `ARRAY(…)` one
/// level past the bound is the same typed error embedded and over the
/// socket, and at the bound the row comes back the same both ways.
#[test]
fn nested_arrays_at_the_codec_bound_agree_over_socket() {
    let (graph, server) = figure2_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let nested = |depth: usize| format!("SELECT {}1{}", "ARRAY(".repeat(depth), ")".repeat(depth));
    let at_bound = nested(MAX_DEPTH);
    let local = graph.database().execute(&at_bound).unwrap();
    let remote = client.query_sql(&at_bound).unwrap();
    assert_eq!(local.rows[0][0].depth(), MAX_DEPTH);
    assert_eq!(canon(&remote), canon(&local));
    assert_eq!(remote.columns, local.columns);
    let past = nested(MAX_DEPTH + 1);
    let local = graph.database().execute(&past).unwrap_err();
    assert!(matches!(local, RelError::Type(_)), "{local}");
    let remote = client.query_sql(&past).unwrap_err();
    assert_eq!(remote.as_rel_error(), Some(local));
    server.shutdown();
}

#[test]
fn gremlin_crud_inside_remote_transaction() {
    let (graph, server) = figure2_server();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Rolled-back work is invisible.
    client.begin().unwrap();
    client
        .query_gremlin("g.addVertex(['name':'phantom'])")
        .unwrap();
    assert_eq!(
        canon(&client.query_gremlin("g.V.count()").unwrap()),
        ["i:5"]
    );
    client.rollback().unwrap();
    assert_eq!(canon(&graph.query("g.V.count()").unwrap()), ["i:4"]);
    assert_eq!(
        canon(&client.query_gremlin("g.V.count()").unwrap()),
        ["i:4"]
    );

    // Committed work is visible both in-process and remotely. Vertex id
    // counters survive rollback, so use the id the server returns.
    client.begin().unwrap();
    let added = client
        .query_gremlin("g.addVertex(['name':'ripple','lang':'java'])")
        .unwrap();
    let Value::Int(vid) = added.rows[0][0] else {
        panic!("addVertex should return the new id, got {added:?}");
    };
    client
        .query_gremlin(&format!("g.addEdge(4, {vid}, 'created', ['weight':1.0])"))
        .unwrap();
    client.commit().unwrap();
    assert_eq!(canon(&graph.query("g.V.count()").unwrap()), ["i:5"]);
    assert_eq!(
        canon(&graph.query("g.v(4).out('created').values('name')").unwrap()),
        ["s:lop", "s:ripple"]
    );
    assert_eq!(
        canon(
            &client
                .query_gremlin("g.v(4).out('created').values('name')")
                .unwrap()
        ),
        ["s:lop", "s:ripple"]
    );
    server.shutdown();
}

#[test]
fn first_updater_wins_conflict_comes_back_as_typed_error_frame() {
    let (graph, server) = figure2_server();
    let mut txn_client = Client::connect(server.local_addr()).unwrap();
    let mut other = Client::connect(server.local_addr()).unwrap();

    // Open a remote transaction (snapshot taken now).
    txn_client.begin().unwrap();
    assert_eq!(
        canon(
            &txn_client
                .query_sql("SELECT vid FROM va WHERE vid = 2")
                .unwrap()
        ),
        ["i:2"]
    );
    // A second session updates the same row via autocommit SQL (this path
    // does not take the graph mutation lock, so it runs concurrently).
    other
        .query_sql_with_params(
            "UPDATE va SET attr = ? WHERE vid = 2",
            &[Value::json(
                sqlgraph_json::parse("{\"name\":\"vadas2\"}").unwrap(),
            )],
        )
        .unwrap();
    // The open transaction is now the second updater: first-updater-wins
    // must surface as a typed TxnConflict error frame, and the server
    // must roll the transaction back.
    let err = txn_client
        .query_sql_with_params(
            "UPDATE va SET attr = ? WHERE vid = 2",
            &[Value::json(
                sqlgraph_json::parse("{\"name\":\"vadas3\"}").unwrap(),
            )],
        )
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::TxnConflict), "got {err}");
    assert!(matches!(
        err.as_rel_error(),
        Some(sqlgraph_rel::Error::TxnConflict(_))
    ));
    assert!(!txn_client.in_transaction());

    // The session is usable again in autocommit mode, the other writer's
    // update survived, and no snapshot leaked.
    assert_eq!(
        canon(
            &txn_client
                .query_sql("SELECT attr FROM va WHERE vid = 2")
                .unwrap()
        ),
        canon(
            &graph
                .database()
                .execute("SELECT attr FROM va WHERE vid = 2")
                .unwrap()
        )
    );
    assert_eq!(graph.database().txns().active_snapshots(), 0);
    server.shutdown();
}

#[test]
fn concurrent_sessions_mixing_autocommit_and_transactions() {
    let (graph, server) = figure2_server();
    let addr = server.local_addr();
    let readers = 6;
    let writers = 2;

    std::thread::scope(|s| {
        // Readers hammer the corpus' read-only prefix through sockets.
        for t in 0..readers {
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..15 {
                    let q = CORPUS[(t * 7 + round * 3) % 40]; // read-only prefix
                    client.query_gremlin(q).unwrap();
                }
                client.close().unwrap();
            });
        }
        // Writers run explicit transactions; the store's mutation lock
        // serializes them, so each either commits or observes Busy when
        // the acquire deadline passes under contention.
        for w in 0..writers {
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..5 {
                    client.begin().unwrap();
                    client
                        .query_gremlin(&format!("g.addVertex(['name':'w{w}r{round}'])"))
                        .unwrap();
                    if round % 2 == 0 {
                        client.commit().unwrap();
                    } else {
                        client.rollback().unwrap();
                    }
                }
                client.close().unwrap();
            });
        }
    });

    // 2 writers × 3 committed rounds each (0, 2, 4) on top of 4 vertices.
    assert_eq!(canon(&graph.query("g.V.count()").unwrap()), ["i:10"]);
    assert_eq!(graph.database().txns().active_snapshots(), 0);
    assert_eq!(server.open_transactions(), 0);
    server.shutdown();
}
