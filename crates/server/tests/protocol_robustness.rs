//! Protocol-robustness suite: feed a live server truncated, oversized,
//! and bit-flipped frames plus mid-frame disconnects. The server must
//! never panic, never leak sessions or snapshots, and never corrupt
//! another connection's results. Mirrors the byte-by-byte corruption
//! sweep style of the WAL crash matrix.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlgraph_core::SqlGraph;
use sqlgraph_json::Json;
use sqlgraph_rel::Value;
use sqlgraph_server::{protocol, Client, ErrorCode, Request, Server, ServerConfig, PROTO_VERSION};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_graph() -> Arc<SqlGraph> {
    let graph = Arc::new(SqlGraph::new_in_memory());
    for i in 0..4 {
        graph
            .add_vertex([("name", Json::str(format!("v{i}")))])
            .unwrap();
    }
    graph.add_edge(1, 2, "knows", []).unwrap();
    graph
}

fn start_server() -> (Arc<SqlGraph>, Server) {
    let graph = small_graph();
    let cfg = ServerConfig {
        max_frame: 64 * 1024,
        txn_idle_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&graph), cfg).unwrap();
    (graph, server)
}

/// Raw frame write: length prefix + body.
fn send_raw(sock: &mut TcpStream, body: &[u8]) -> std::io::Result<()> {
    sock.write_all(&(body.len() as u32).to_le_bytes())?;
    sock.write_all(body)
}

fn read_response(sock: &mut TcpStream) -> Option<Vec<u8>> {
    let mut len = [0u8; 4];
    sock.read_exact(&mut len).ok()?;
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    sock.read_exact(&mut body).ok()?;
    Some(body)
}

fn hello_body() -> Vec<u8> {
    Request::Hello {
        proto: PROTO_VERSION,
        token: String::new(),
    }
    .encode()
}

/// The control connection proves the server still works and nothing
/// cross-contaminated: a known query must keep returning the same rows.
fn assert_healthy(client: &mut Client) {
    let rel = client.query_sql("SELECT COUNT(*) FROM va").unwrap();
    assert_eq!(rel.rows, vec![vec![Value::Int(4)]]);
}

/// Wait for the server's connection gauge to drain back to `n`.
fn wait_active(server: &Server, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.active_connections() > n {
        assert!(
            Instant::now() < deadline,
            "connections leaked: {} > {n}",
            server.active_connections()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn truncated_frames_never_kill_the_server() {
    let (_graph, server) = start_server();
    let addr = server.local_addr();
    let mut control = Client::connect(addr).unwrap();

    let valid = Request::QuerySql {
        sql: "SELECT vid FROM va WHERE vid = ?".into(),
        params: vec![Value::Int(1)],
    }
    .encode();

    // Every truncation point of a handshake-plus-query exchange.
    for cut in 0..valid.len() {
        let mut sock = TcpStream::connect(addr).unwrap();
        send_raw(&mut sock, &hello_body()).unwrap();
        assert!(read_response(&mut sock).is_some(), "handshake failed");
        // Announce the full length but send only a prefix, then slam the
        // connection shut mid-frame.
        sock.write_all(&(valid.len() as u32).to_le_bytes()).unwrap();
        sock.write_all(&valid[..cut]).unwrap();
        drop(sock);
    }

    // The opposite of a truncation: the whole exchange arrives, but one
    // byte per segment. Frame assembly must not depend on how the bytes
    // were cut up on the way.
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_nodelay(true).unwrap();
    for body in [&hello_body(), &valid] {
        let mut frame = Vec::new();
        protocol::write_frame(&mut frame, body).unwrap();
        for byte in frame {
            sock.write_all(&[byte]).unwrap();
        }
    }
    assert!(read_response(&mut sock).is_some(), "handshake failed");
    let answer = read_response(&mut sock).expect("dribbled query unanswered");
    match protocol::Response::decode(&answer).unwrap() {
        protocol::Response::ResultSet { rel, .. } => {
            assert_eq!(rel.rows, vec![vec![Value::Int(1)]])
        }
        other => panic!("expected a result set, got {other:?}"),
    }
    drop(sock);

    assert_healthy(&mut control);
    wait_active(&server, 1); // only the control connection remains
    assert_eq!(server.worker_panics(), 0);
    server.shutdown();
}

#[test]
fn bitflipped_frames_get_typed_errors_not_panics() {
    let (graph, server) = start_server();
    let addr = server.local_addr();
    let mut control = Client::connect(addr).unwrap();

    let valid = Request::QueryGremlin {
        gremlin: "g.v(1).out('knows')".into(),
    }
    .encode();

    // Flip every bit of the body; the server must answer every frame
    // (typed error or a successful result for still-valid mutations) and
    // survive. Reconnect only when the server closes the connection.
    let mut sock = TcpStream::connect(addr).unwrap();
    send_raw(&mut sock, &hello_body()).unwrap();
    read_response(&mut sock).unwrap();
    for bit in 0..valid.len() * 8 {
        let mut body = valid.clone();
        body[bit / 8] ^= 1 << (bit % 8);
        if send_raw(&mut sock, &body).is_err() || read_response(&mut sock).is_none() {
            // Server dropped the connection after a protocol error — that
            // is allowed; it must keep accepting new ones.
            sock = TcpStream::connect(addr).unwrap();
            send_raw(&mut sock, &hello_body()).unwrap();
            read_response(&mut sock).unwrap();
        }
    }
    drop(sock);
    assert_healthy(&mut control);
    assert_eq!(server.worker_panics(), 0);
    assert_eq!(graph.database().txns().active_snapshots(), 0);
    server.shutdown();
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let (_graph, server) = start_server();
    let addr = server.local_addr();
    let mut control = Client::connect(addr).unwrap();

    for len in [64 * 1024 + 1, u32::MAX as usize, 1 << 30] {
        let mut sock = TcpStream::connect(addr).unwrap();
        send_raw(&mut sock, &hello_body()).unwrap();
        read_response(&mut sock).unwrap();
        sock.write_all(&(len as u32).to_le_bytes()).unwrap();
        // The server must answer with TooLarge and close, without waiting
        // for (or allocating) the announced body.
        let resp = read_response(&mut sock).expect("expected TooLarge frame");
        let decoded = protocol::Response::decode(&resp).unwrap();
        match decoded {
            protocol::Response::Error { code, .. } => {
                assert_eq!(code, ErrorCode::TooLarge)
            }
            other => panic!("expected error frame, got {other:?}"),
        }
    }
    assert_healthy(&mut control);
    wait_active(&server, 1);
    server.shutdown();
}

#[test]
fn random_garbage_streams_never_panic() {
    let (_graph, server) = start_server();
    let addr = server.local_addr();
    let mut control = Client::connect(addr).unwrap();
    let mut rng = StdRng::seed_from_u64(0xBAD_F00D);

    for _ in 0..40 {
        let mut sock = TcpStream::connect(addr).unwrap();
        // Sometimes complete the handshake first so garbage reaches the
        // request decoder, not just the handshake gate.
        if rng.gen_bool(0.5) {
            send_raw(&mut sock, &hello_body()).unwrap();
            read_response(&mut sock).unwrap();
        }
        let n = rng.gen_range(1..200);
        let garbage: Vec<u8> = (0..n).map(|_| rng.gen_range(0..256u16) as u8).collect();
        let _ = sock.write_all(&garbage);
        // Half the time linger long enough for the server to process.
        if rng.gen_bool(0.5) {
            sock.set_read_timeout(Some(Duration::from_millis(50)))
                .unwrap();
            let mut buf = [0u8; 256];
            let _ = sock.read(&mut buf);
        }
        drop(sock);
    }
    assert_healthy(&mut control);
    wait_active(&server, 1);
    assert_eq!(server.worker_panics(), 0);
    server.shutdown();
}

#[test]
fn requests_before_handshake_are_rejected() {
    let (_graph, server) = start_server();
    let addr = server.local_addr();
    let mut sock = TcpStream::connect(addr).unwrap();
    let body = Request::QuerySql {
        sql: "SELECT 1".into(),
        params: vec![],
    }
    .encode();
    send_raw(&mut sock, &body).unwrap();
    let resp = read_response(&mut sock).unwrap();
    match protocol::Response::decode(&resp).unwrap() {
        protocol::Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected protocol error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn bad_token_is_rejected_with_auth_error() {
    let graph = small_graph();
    let cfg = ServerConfig {
        auth_token: "sesame".into(),
        ..ServerConfig::default()
    };
    let server = Server::start(graph, cfg).unwrap();
    let addr = server.local_addr();

    let err = Client::connect_with(addr, "wrong").unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Auth));
    let mut ok = Client::connect_with(addr, "sesame").unwrap();
    ok.ping().unwrap();
    server.shutdown();
}

#[test]
fn mid_frame_disconnect_with_open_transaction_rolls_back() {
    let (graph, server) = start_server();
    let addr = server.local_addr();
    let mut control = Client::connect(addr).unwrap();

    // Open a transaction over a raw socket, mutate, then vanish mid-frame.
    let mut sock = TcpStream::connect(addr).unwrap();
    send_raw(&mut sock, &hello_body()).unwrap();
    read_response(&mut sock).unwrap();
    send_raw(&mut sock, &Request::Begin.encode()).unwrap();
    read_response(&mut sock).unwrap();
    let add = Request::QueryGremlin {
        gremlin: "g.addVertex(['name':'doomed'])".into(),
    }
    .encode();
    send_raw(&mut sock, &add).unwrap();
    read_response(&mut sock).unwrap();
    // Announce a frame, send half, disappear.
    let next = Request::Commit.encode();
    sock.write_all(&(next.len() as u32).to_le_bytes()).unwrap();
    sock.write_all(&next[..next.len() / 2]).unwrap();
    drop(sock);

    // The provisional vertex must vanish with the session.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let n = graph.database().txns().active_snapshots();
        if n == 0 && server.open_transactions() == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "transaction leaked");
        std::thread::sleep(Duration::from_millis(10));
    }
    let count = control.query_gremlin("g.V.count()").unwrap();
    assert_eq!(count.rows, vec![vec![Value::Int(4)]], "rollback lost");
    assert_healthy(&mut control);
    server.shutdown();
}

#[test]
fn stalled_transaction_hits_idle_timeout_and_rolls_back() {
    let (graph, server) = start_server(); // txn_idle_timeout = 300ms
    let addr = server.local_addr();
    let mut control = Client::connect(addr).unwrap();

    let mut txn = Client::connect(addr).unwrap();
    txn.begin().unwrap();
    txn.query_gremlin("g.addVertex(['name':'stale'])").unwrap();
    // Stall past the transaction idle timeout: the server must roll back
    // the stalled transaction so its writes never become visible.
    std::thread::sleep(Duration::from_millis(800));
    control.begin().unwrap();
    control
        .query_gremlin("g.addVertex(['name':'fresh'])")
        .unwrap();
    control.commit().unwrap();
    let count = control.query_gremlin("g.V.count()").unwrap();
    assert_eq!(count.rows, vec![vec![Value::Int(5)]]);
    assert_eq!(graph.database().txns().active_snapshots(), 0);
    server.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (_graph, server) = start_server();
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    // `send_raw` is two writes; without this each lockstep exchange below
    // would sit out a delayed ACK between them.
    sock.set_nodelay(true).unwrap();
    send_raw(&mut sock, &hello_body()).unwrap();
    read_response(&mut sock).unwrap();

    let requests: Vec<Vec<u8>> = (0..200i64)
        .map(|i| match i % 4 {
            0 => Request::Ping,
            1 => Request::QueryGremlin {
                gremlin: format!("g.v({}).out('knows')", i % 5),
            },
            2 => Request::QuerySql {
                sql: "SELECT no_such_column FROM va".into(),
                params: vec![],
            },
            _ => Request::QuerySql {
                sql: "SELECT vid FROM va WHERE vid = ?".into(),
                params: vec![Value::Int(i % 6)],
            },
        })
        .map(|req| req.encode())
        .collect();

    // Reference answers: one request, one response, in lockstep.
    let expected: Vec<Vec<u8>> = requests
        .iter()
        .map(|body| {
            send_raw(&mut sock, body).unwrap();
            read_response(&mut sock).unwrap()
        })
        .collect();

    // The same frames written back to back before any read: every one is
    // answered, in request order, with the same bytes.
    let mut stream = Vec::new();
    for body in &requests {
        protocol::write_frame(&mut stream, body).unwrap();
    }
    sock.write_all(&stream).unwrap();
    for (i, want) in expected.iter().enumerate() {
        let got = read_response(&mut sock).unwrap_or_else(|| panic!("response {i} missing"));
        assert_eq!(&got, want, "response {i} out of order or different");
    }
    assert_eq!(server.worker_panics(), 0);
    server.shutdown();
}

#[test]
fn idle_autocommit_session_gets_a_typed_timeout_then_eof() {
    let graph = small_graph();
    let cfg = ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let server = Server::start(graph, cfg).unwrap();
    let before = server.active_connections();

    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    send_raw(&mut sock, &hello_body()).unwrap();
    read_response(&mut sock).unwrap();
    // Say nothing: the server speaks next.
    let frame = read_response(&mut sock).expect("expected a Timeout frame");
    match protocol::Response::decode(&frame).unwrap() {
        protocol::Response::Error { code, .. } => assert_eq!(code, ErrorCode::Timeout),
        other => panic!("expected an error frame, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(sock.read_to_end(&mut rest).unwrap(), 0, "expected EOF");
    wait_active(&server, before);
    server.shutdown();
}

#[test]
fn a_client_that_stops_reading_does_not_delay_other_connections() {
    let (_graph, server) = start_server();
    let addr = server.local_addr();
    let mut control = Client::connect(addr).unwrap();

    // 4^6 rows of six integers: ~220 KB per response. Each stalled client
    // asks for far more than loopback socket buffers hold and never
    // reads, so the server ends up blocked writing to every one of them.
    let big = Request::QuerySql {
        sql: "SELECT a.vid, b.vid, c.vid, d.vid, e.vid, f.vid \
              FROM va a, va b, va c, va d, va e, va f"
            .into(),
        params: vec![],
    }
    .encode();
    let stalled: Vec<TcpStream> = (0..ServerConfig::default().workers + 1)
        .map(|_| {
            let mut sock = TcpStream::connect(addr).unwrap();
            send_raw(&mut sock, &hello_body()).unwrap();
            read_response(&mut sock).unwrap();
            for _ in 0..150 {
                send_raw(&mut sock, &big).unwrap();
            }
            sock
        })
        .collect();

    let mut worst = Duration::ZERO;
    for _ in 0..200 {
        let t0 = Instant::now();
        control.ping().unwrap();
        worst = worst.max(t0.elapsed());
        std::thread::sleep(Duration::from_millis(2));
    }
    // A healthy ping takes well under a millisecond, one queued behind a
    // blocked write the server's 10 s write timeout; one second tells them
    // apart on any host.
    assert!(
        worst < Duration::from_secs(1),
        "a ping waited {worst:?} behind clients that do not read"
    );
    assert_healthy(&mut control);
    drop(stalled);
    wait_active(&server, 1);
    server.shutdown();
}
