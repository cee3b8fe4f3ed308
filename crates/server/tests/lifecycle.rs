//! Server lifecycle: graceful shutdown drains in-flight queries and rolls
//! back open transactions; killing the store mid-commit over the simulated
//! file system and reopening recovers commit-prefix-consistent state.

use sqlgraph_core::{SchemaConfig, SqlGraph};
use sqlgraph_json::Json;
use sqlgraph_rel::{Fault, FaultKind, SimFs, Value};
use sqlgraph_server::{Client, ClientError, ErrorCode, Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn small_graph() -> Arc<SqlGraph> {
    let graph = Arc::new(SqlGraph::new_in_memory());
    for i in 0..50 {
        graph
            .add_vertex([("name", Json::str(format!("v{i}")))])
            .unwrap();
    }
    for i in 1..50 {
        graph
            .add_edge(i, (i % 50) + 1, "next", [("weight", Json::float(1.0))])
            .unwrap();
    }
    graph
}

#[test]
fn graceful_shutdown_drains_in_flight_queries() {
    let graph = small_graph();
    let server = Server::start_local(Arc::clone(&graph)).unwrap();
    let addr = server.local_addr();
    let expected = graph.query("g.V.out.out.count()").unwrap().rows.clone();

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let stop = Arc::clone(&stop);
        let expected = expected.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut completed = 0u64;
            loop {
                match client.query_gremlin("g.V.out.out.count()") {
                    // A response that arrives must be complete and correct —
                    // a drain may refuse work but never truncate results.
                    Ok(rel) => {
                        assert_eq!(rel.rows, expected);
                        completed += 1;
                    }
                    Err(ClientError::Server { code, .. }) => {
                        assert_eq!(code, ErrorCode::ShuttingDown);
                        break;
                    }
                    Err(ClientError::Io(_)) => break, // socket closed post-drain
                    Err(other) => panic!("unexpected failure: {other}"),
                }
                if stop.load(Ordering::Relaxed) {
                    // Keep issuing a few more to race the drain itself.
                    if completed > 0 {
                        break;
                    }
                }
            }
            completed
        }));
    }
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed);
    server.shutdown();
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0, "no query completed before the drain");
}

#[test]
fn shutdown_rolls_back_open_transactions() {
    let graph = small_graph();
    let server = Server::start_local(Arc::clone(&graph)).unwrap();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    client.begin().unwrap();
    client
        .query_gremlin("g.addVertex(['name':'provisional'])")
        .unwrap();
    assert_eq!(server.open_transactions(), 1);

    server.shutdown();

    // The transaction rolled back during the drain: no snapshot leaked,
    // no provisional row survived.
    assert_eq!(graph.database().txns().active_snapshots(), 0);
    assert_eq!(
        graph.query("g.V.count()").unwrap().rows,
        vec![vec![Value::Int(50)]]
    );
}

#[test]
fn shutdown_refuses_new_begins_but_finishes_the_drain() {
    let graph = small_graph();
    let cfg = ServerConfig {
        drain_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&graph), cfg).unwrap();
    let addr = server.local_addr();

    // A committed transaction before shutdown sticks.
    let mut client = Client::connect(addr).unwrap();
    client.begin().unwrap();
    client
        .query_gremlin("g.addVertex(['name':'durable'])")
        .unwrap();
    client.commit().unwrap();
    server.shutdown();
    assert_eq!(
        graph.query("g.V.count()").unwrap().rows,
        vec![vec![Value::Int(51)]]
    );
}

#[test]
fn kill_mid_commit_then_reopen_recovers_commit_prefix() {
    let fs = SimFs::new();
    let base = std::path::PathBuf::from("server.wal");
    let config = SchemaConfig {
        out_buckets: 3,
        in_buckets: 3,
    };

    let committed: Vec<String> = {
        let graph = Arc::new(SqlGraph::open_with_vfs(&base, config, Arc::new(fs.clone())).unwrap());
        graph.set_sync_on_commit(true);
        let server = Server::start_local(Arc::clone(&graph)).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        // A prefix of committed remote transactions.
        let mut names = Vec::new();
        for i in 0..5 {
            client.begin().unwrap();
            let name = format!("committed{i}");
            client
                .query_gremlin(&format!("g.addVertex(['name':'{name}'])"))
                .unwrap();
            client.commit().unwrap();
            names.push(format!("s:{name}"));
        }

        // Crash the file system at the next operation: the in-flight
        // commit must fail with a typed WAL error frame, not a hang or a
        // torn acknowledgement.
        client.begin().unwrap();
        client
            .query_gremlin("g.addVertex(['name':'lost'])")
            .unwrap();
        fs.schedule_fault(Fault {
            at_op: fs.op_count(),
            kind: FaultKind::Crash { keep_tail: 0 },
        });
        let err = client.commit().unwrap_err();
        match &err {
            ClientError::Server { code, .. } => assert_eq!(*code, ErrorCode::Wal, "got {err}"),
            other => panic!("expected WAL error frame, got {other}"),
        }
        server.shutdown();
        names
    };

    // Reopen from the surviving bytes: every acknowledged commit is
    // there, the failed one is not.
    fs.recover();
    let graph = SqlGraph::open_with_vfs(&base, config, Arc::new(fs.clone())).unwrap();
    let rel = graph.query("g.V.values('name')").unwrap();
    let mut names: Vec<String> = rel
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Str(s) => format!("s:{s}"),
            other => panic!("unexpected value {other:?}"),
        })
        .collect();
    names.sort();
    assert_eq!(names, committed);
}

#[test]
fn connection_cap_refuses_excess_sockets_without_harming_existing_ones() {
    let graph = small_graph();
    let cfg = ServerConfig {
        max_connections: 4,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&graph), cfg).unwrap();
    let addr = server.local_addr();

    let mut clients: Vec<Client> = (0..4).map(|_| Client::connect(addr).unwrap()).collect();
    for c in &mut clients {
        c.ping().unwrap();
    }
    // The fifth connection is refused (connect may succeed at the TCP
    // level before the server closes it; the handshake must fail).
    let refused = Client::connect(addr);
    assert!(refused.is_err(), "connection over the cap must be refused");
    // Existing sessions keep working.
    for c in &mut clients {
        c.ping().unwrap();
    }
    server.shutdown();
}

#[test]
fn connection_cap_holds_under_a_connect_burst() {
    let graph = small_graph();
    let cfg = ServerConfig {
        max_connections: 4,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&graph), cfg).unwrap();
    let addr = server.local_addr();

    // 64 clients connect and handshake at the same instant. The cap is
    // counted where the socket is accepted, so no burst can slip past it.
    let burst = 64;
    let barrier = Barrier::new(burst);
    let done = AtomicBool::new(false);
    let (survivors, peak) = std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::Acquire) {
                peak = peak.max(server.active_connections());
                std::thread::yield_now();
            }
            peak
        });
        let handles: Vec<_> = (0..burst)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    Client::connect(addr).ok()
                })
            })
            .collect();
        let survivors: Vec<Client> = handles
            .into_iter()
            .filter_map(|h| h.join().unwrap())
            .collect();
        done.store(true, Ordering::Release);
        (survivors, watcher.join().unwrap())
    });

    assert!(peak <= 4, "{peak} connections were active under a cap of 4");
    assert!(server.active_connections() <= 4);
    assert!(
        (1..=4).contains(&survivors.len()),
        "{} handshakes succeeded under a cap of 4",
        survivors.len()
    );
    for mut c in survivors {
        c.ping().unwrap();
    }
    server.shutdown();
}

#[test]
fn two_sessions_hold_transactions_at_once() {
    let graph = small_graph();
    let server = Server::start_local(Arc::clone(&graph)).unwrap();
    let mut a = Client::connect(server.local_addr()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();
    let name = |v: i64| {
        graph
            .query(&format!("g.v({v}).values('name')"))
            .unwrap()
            .strings()
    };

    // Disjoint writes: both transactions are open at once and both commit.
    a.begin().unwrap();
    b.begin().unwrap();
    assert_eq!(server.open_transactions(), 2);
    a.query_gremlin("g.v(1).setProperty('name', 'a1')").unwrap();
    b.query_gremlin("g.v(2).setProperty('name', 'b2')").unwrap();
    b.commit().unwrap();
    a.commit().unwrap();
    assert_eq!((name(1), name(2)), (vec!["a1".into()], vec!["b2".into()]));

    // The same row: the second writer gets a typed conflict, and the
    // server rolls its transaction back.
    a.begin().unwrap();
    b.begin().unwrap();
    a.query_gremlin("g.v(3).setProperty('name', 'a3')").unwrap();
    let err = b
        .query_gremlin("g.v(3).setProperty('name', 'b3')")
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::TxnConflict), "got {err}");
    assert!(!b.in_transaction());
    assert_eq!(server.open_transactions(), 1);
    a.commit().unwrap();
    assert_eq!(server.open_transactions(), 0);
    assert_eq!(name(3), ["a3"]);

    // The losing session stays usable: its retry from BEGIN commits.
    b.ping().unwrap();
    b.begin().unwrap();
    b.query_gremlin("g.v(3).setProperty('name', 'b3')").unwrap();
    b.commit().unwrap();
    assert_eq!(name(3), ["b3"]);
    assert_eq!(server.open_transactions(), 0);
    assert_eq!(graph.database().txns().active_snapshots(), 0);
    server.shutdown();
}
