//! Connection churn leaves nothing behind: no registered session, no
//! transaction slot, no snapshot and no thread.
//!
//! This is the only test in its file on purpose — the thread count read
//! from `/proc/self/status` is process-wide, and the other suites run
//! their cases (each with its own server and clients) on parallel threads
//! of one process.

use sqlgraph_core::SqlGraph;
use sqlgraph_json::Json;
use sqlgraph_rel::Value;
use sqlgraph_server::{Client, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `Threads:` line of `/proc/self/status`; `None` off Linux.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

/// Poll `cond` for up to two seconds.
fn eventually(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !cond() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn connection_churn_leaks_no_session_transaction_or_thread() {
    let graph = Arc::new(SqlGraph::new_in_memory());
    graph.add_vertex([("name", Json::str("v"))]).unwrap();
    let server = Server::start_local(Arc::clone(&graph)).unwrap();
    let addr = server.local_addr();
    // One warm-up connection so lazily started threads exist before the
    // baseline is read.
    Client::connect(addr).unwrap().close().unwrap();
    eventually("warm-up connection never closed", || {
        server.active_connections() == 0
    });
    let threads_before = thread_count();

    for _ in 0..300 {
        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap();
        client.close().unwrap();
    }
    // Abrupt disconnects: no Close frame, half of them inside a
    // transaction that has already written.
    for i in 0..50 {
        let mut client = Client::connect(addr).unwrap();
        if i % 2 == 0 {
            client.begin().unwrap();
            client
                .query_gremlin("g.addVertex(['name':'abandoned'])")
                .unwrap();
        } else {
            client.ping().unwrap();
        }
        drop(client);
    }

    eventually("sessions or transactions leaked", || {
        server.active_connections() == 0
            && server.open_transactions() == 0
            && graph.database().txns().active_snapshots() == 0
    });
    if let Some(before) = threads_before {
        // `<=`: the warm-up session's thread may still have been exiting
        // when the baseline was read.
        eventually("session threads leaked", || {
            thread_count().is_some_and(|now| now <= before)
        });
    }
    assert_eq!(server.worker_panics(), 0);
    assert_eq!(
        graph.query("g.V.count()").unwrap().rows,
        vec![vec![Value::Int(1)]],
        "an abandoned transaction's write survived"
    );
    server.shutdown();
}
