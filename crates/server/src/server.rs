//! The wire-protocol server: an accept thread and one blocking session
//! thread per connection.
//!
//! ## Threading model
//!
//! * **Accept thread** — blocking `accept`. It checks the connection cap
//!   and registers the socket *before* the session starts, so the cap and
//!   [`Server::active_connections`] are exact however fast sockets arrive,
//!   then spawns the session.
//! * **Session threads** — one per connection, and the only thread that
//!   ever touches it: the socket, the handshake flag, the prepared
//!   statements and the open `GraphTxn` are plain locals. The loop is
//!   *read one frame → decode → `handle` → write the response in one
//!   `write_all`*, all blocking, so a request crosses no queue and no
//!   other thread. Responses come back in request order; pipelined frames
//!   wait in the kernel's socket buffer. The socket's read timeout is the
//!   idle timeout (the shorter transaction one while a transaction is
//!   open), its write timeout bounds how long a client that stopped
//!   reading can hold its own thread — and nobody else's.
//! * **Execution permits** — threads scale with connections, execution
//!   does not: a statement (`QuerySql`, `Execute`, `QueryGremlin`,
//!   `Prepare`), inside a transaction or not, runs holding one of
//!   `workers` permits.
//!   The bound is deliberately small (default ≲ the core count): hundreds
//!   of mostly parked sockets share it, and the statements themselves can
//!   fan out through `rel::parallel`'s morsel workers, so more would
//!   oversubscribe the machine and put every connection's result set in
//!   memory at once. It is a counter rather than a worker pool because a
//!   pool needs a queue and a hand-off each way, while a permit is taken
//!   and returned by the thread that already holds the request.
//!   `Hello`/`Ping`/`Close`, `BEGIN`, `COMMIT` and `ROLLBACK` take none.
//!   No statement waits on another transaction: writers that touch the
//!   same rows conflict (first-updater-wins), they do not queue.
//! * **`BEGIN`** opens a store transaction on the session's own thread,
//!   and never blocks. Open transactions run concurrently; one that loses
//!   a write-write conflict is answered with a `TxnConflict` frame and
//!   rolled back, and the client retries from `BEGIN`.
//!
//! ## Shutdown
//!
//! Dropping the [`Server`] (or calling [`Server::shutdown`]) drains by
//! notification, not by timer: set the flag, wake `accept` with a
//! throwaway connection, then `shutdown(Read)` every registered socket. A
//! session parked in `read` sees end-of-stream, finds the flag, rolls its
//! transaction back, says `ShuttingDown` and exits; a session in the
//! middle of a request finishes it and flushes the response first. The
//! caller waits on a condvar for the registry to empty, up to
//! `drain_timeout`, then closes the stragglers' sockets and joins them.

use crate::protocol::{
    control_request, read_frame, ErrorCode, Request, Response, MAX_FRAME_DEFAULT, PROTO_VERSION,
};
use sqlgraph_core::{CoreError, GraphTxn, SqlGraph};
use sqlgraph_rel::Value;
use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server knobs. `Default` is sized for tests and the bench harness.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub bind: SocketAddr,
    /// Execution permits: how many autocommit statements may run at once,
    /// however many connections are open.
    pub workers: usize,
    /// Per-frame body size limit (both directions).
    pub max_frame: usize,
    /// Expected handshake token (empty = accept any empty token).
    pub auth_token: String,
    /// Close connections idle longer than this (no open transaction).
    pub idle_timeout: Duration,
    /// Roll back and close a session whose open transaction sits idle
    /// longer than this — a stalled client cannot pin its snapshot (and
    /// the rows it has written) forever.
    pub txn_idle_timeout: Duration,
    /// Refuse sockets beyond this many concurrent connections.
    pub max_connections: usize,
    /// Refuse `BEGIN` beyond this many concurrently open transactions.
    pub max_txn_sessions: usize,
    /// Upper bound on the graceful drain at shutdown.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ServerConfig {
            bind: "127.0.0.1:0".parse().expect("literal addr"),
            workers: cores.clamp(2, 8),
            max_frame: MAX_FRAME_DEFAULT,
            auth_token: String::new(),
            idle_timeout: Duration::from_secs(60),
            txn_idle_timeout: Duration::from_secs(5),
            max_connections: 2048,
            max_txn_sessions: 64,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// How long one response write may block on a client that is not reading.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// Longest wait for a session to exit after `accept` itself failed.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Monotone counters exposed for tests and monitoring.
#[derive(Debug, Default)]
struct Stats {
    accepted: AtomicU64,
    open_txns: AtomicUsize,
    frames: AtomicU64,
    proto_errors: AtomicU64,
    panics: AtomicU64,
}

/// A live connection as the accept thread registered it: the socket, so
/// shutdown can wake its reader, and the session thread's handle, so
/// shutdown can join it.
type Registration = (Arc<TcpStream>, JoinHandle<()>);

struct Shared {
    engine: Arc<SqlGraph>,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    stats: Stats,
    /// Free execution permits (`cfg.workers` at rest).
    permits: Mutex<usize>,
    permit_freed: Condvar,
    /// Every live connection by session id; its length *is* the connection
    /// count. Only the accept thread inserts (holding the lock across the
    /// cap check and the spawn); a session's exit guard removes.
    sessions: Mutex<HashMap<u64, Registration>>,
    session_exited: Condvar,
}

/// Lock ignoring poison: both guarded values (a counter, a map of handles)
/// are valid after every single update, and the callers include `Drop`s,
/// which must not panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One of the `workers` execution permits, returned on drop.
struct Permit<'a>(&'a Shared);

impl Shared {
    /// Block until an execution permit is free and take it.
    fn permit(&self) -> Permit<'_> {
        let mut free = self
            .permit_freed
            .wait_while(lock(&self.permits), |free| *free == 0)
            .unwrap_or_else(PoisonError::into_inner);
        *free -= 1;
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *lock(&self.0.permits) += 1;
        self.0.permit_freed.notify_one();
    }
}

/// A running server. Dropping it performs a graceful shutdown.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving `engine` with default configuration on an
    /// ephemeral loopback port.
    pub fn start_local(engine: Arc<SqlGraph>) -> std::io::Result<Server> {
        Server::start(engine, ServerConfig::default())
    }

    /// Bind and start serving.
    pub fn start(engine: Arc<SqlGraph>, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(cfg.bind)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            permits: Mutex::new(cfg.workers.max(1)),
            cfg,
            shutdown: AtomicBool::new(false),
            stats: Stats::default(),
            permit_freed: Condvar::new(),
            sessions: Mutex::new(HashMap::new()),
            session_exited: Condvar::new(),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sqlgraph-accept".into())
                .spawn(move || accept_loop(&shared, listener))?
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of execution permits: the bound on autocommit statements
    /// running at once.
    pub fn worker_count(&self) -> usize {
        self.shared.cfg.workers.max(1)
    }

    /// Currently open connections.
    pub fn active_connections(&self) -> usize {
        lock(&self.shared.sessions).len()
    }

    /// Currently open explicit transactions.
    pub fn open_transactions(&self) -> usize {
        self.shared.stats.open_txns.load(Ordering::Acquire)
    }

    /// Total request frames read.
    pub fn frames_processed(&self) -> u64 {
        self.shared.stats.frames.load(Ordering::Acquire)
    }

    /// Malformed frames / handshake violations seen.
    pub fn protocol_errors(&self) -> u64 {
        self.shared.stats.proto_errors.load(Ordering::Acquire)
    }

    /// Request handlers that panicked (each replied `Internal` and closed
    /// only its own connection).
    pub fn worker_panics(&self) -> u64 {
        self.shared.stats.panics.load(Ordering::Acquire)
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish
    /// and flush their responses, roll back open transactions, close
    /// sockets, join every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(accept) = self.accept.take() else {
            return; // already shut down
        };
        self.shared.shutdown.store(true, Ordering::Release);
        // `accept` has no timeout; a throwaway connection makes it return
        // and see the flag. Should the connect fail, leave the thread
        // parked rather than hang here: it registers nothing once the flag
        // is set.
        if TcpStream::connect(self.addr).is_ok() {
            let _ = accept.join();
        }

        // A reader parked in `read` returns 0 and finds the flag; a session
        // mid-request finds it when it next comes round its loop.
        let sessions = lock(&self.shared.sessions);
        for (sock, _) in sessions.values() {
            let _ = sock.shutdown(Shutdown::Read);
        }
        let (mut sessions, _) = self
            .shared
            .session_exited
            .wait_timeout_while(sessions, self.shared.cfg.drain_timeout, |s| !s.is_empty())
            .unwrap_or_else(PoisonError::into_inner);
        // Past the drain bound: fail the stragglers' socket calls, then
        // wait for whatever statement they are still executing.
        let stragglers: Vec<Registration> = sessions.drain().map(|(_, reg)| reg).collect();
        drop(sessions);
        for (sock, session) in stragglers {
            let _ = sock.shutdown(Shutdown::Both);
            let _ = session.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

// ---------------------------------------------------------------------
// Accept thread
// ---------------------------------------------------------------------

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    let mut next_id: u64 = 1;
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut sessions = lock(&shared.sessions);
        let sock = match accepted {
            Ok((sock, _)) if sessions.len() < shared.cfg.max_connections => Arc::new(sock),
            Ok(_) => continue, // refuse: over the cap
            Err(_) => {
                // Usually descriptor exhaustion, which a session exit
                // cures: wait for one (bounded, the cause may be another).
                let _ = shared.session_exited.wait_timeout(sessions, ACCEPT_BACKOFF);
                continue;
            }
        };
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        let id = next_id;
        next_id += 1;
        let spawned = {
            let shared = Arc::clone(shared);
            let sock = Arc::clone(&sock);
            std::thread::Builder::new()
                .name("sqlgraph-session".into())
                .spawn(move || session(&shared, id, &sock))
        };
        // The session cannot deregister before this insert: its exit guard
        // needs the lock held here. A failed spawn refuses the connection.
        if let Ok(handle) = spawned {
            sessions.insert(id, (sock, handle));
        }
    }
}

// ---------------------------------------------------------------------
// Session threads
// ---------------------------------------------------------------------

/// Takes the session out of the registry on every exit path, a panic
/// included, and wakes a shutdown waiting for the registry to empty.
struct Registered<'a> {
    shared: &'a Shared,
    id: u64,
}

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        // The entry holds this thread's own `JoinHandle`; dropping it here,
        // as the thread's last act, leaves nothing a join could observe.
        lock(&self.shared.sessions).remove(&self.id);
        self.shared.session_exited.notify_all();
    }
}

/// Gives back a slot in `open_txns` on drop.
struct TxnSlot<'a>(&'a Shared);

impl Drop for TxnSlot<'_> {
    fn drop(&mut self) {
        self.0.stats.open_txns.fetch_sub(1, Ordering::AcqRel);
    }
}

/// An open explicit transaction and its slot. The transaction comes (and
/// so drops) first: the slot is given back once the rollback is done.
type OpenTxn<'g> = Option<(GraphTxn<'g>, TxnSlot<'g>)>;

/// One connection's state, owned by its session thread.
struct Session<'g> {
    id: u64,
    hello: bool,
    next_stmt: u32,
    stmts: HashMap<u32, String>,
    txn: OpenTxn<'g>,
}

/// A response and whether the connection closes after it.
type Outcome = (Response, bool);
const KEEP: bool = false;
const CLOSE: bool = true;

fn error(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        aux: 0,
        message: message.into(),
    }
}

fn shutting_down() -> Response {
    error(ErrorCode::ShuttingDown, "server shutting down")
}

fn session(shared: &Shared, id: u64, sock: &TcpStream) {
    let _registered = Registered { shared, id };
    // A socket error ends the session; everything it held unwinds with it.
    let _ = serve(shared, id, sock);
}

fn serve(shared: &Shared, id: u64, mut sock: &TcpStream) -> std::io::Result<()> {
    // Responses go out whole and at once; without this a small one would
    // wait on Nagle's algorithm for the client's delayed ACK.
    sock.set_nodelay(true)?;
    sock.set_write_timeout(Some(WRITE_TIMEOUT))?;
    sock.set_read_timeout(Some(shared.cfg.idle_timeout))?;
    let mut sess = Session {
        id,
        hello: false,
        next_stmt: 1,
        stmts: HashMap::new(),
        txn: None,
    };

    let goodbye = loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break Some(shutting_down());
        }
        // Refuses a length prefix over the limit before allocating for it.
        let body = match read_frame(&mut sock, shared.cfg.max_frame) {
            Ok(body) => body,
            Err(e) => {
                break match e.kind() {
                    // `read_frame`'s own error; a socket read never yields it.
                    ErrorKind::InvalidData => {
                        shared.stats.proto_errors.fetch_add(1, Ordering::Relaxed);
                        Some(error(ErrorCode::TooLarge, e.to_string()))
                    }
                    ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                        // In a transaction this is a stalled client pinning
                        // its snapshot: roll back and kick it.
                        let message = match sess.txn {
                            Some(_) => "transaction idle timeout; rolled back",
                            None => "idle timeout",
                        };
                        Some(error(ErrorCode::Timeout, message))
                    }
                    // End of stream: shutdown's wake-up call, or the client left.
                    _ if shared.shutdown.load(Ordering::Acquire) => Some(shutting_down()),
                    _ => None,
                };
            }
        };
        shared.stats.frames.fetch_add(1, Ordering::Relaxed);

        let in_txn = sess.txn.is_some();
        let handled = catch_unwind(AssertUnwindSafe(|| {
            let (resp, close) = handle(shared, &mut sess, &body);
            (resp.encode_frame(), close)
        }));
        let (frame, close) = handled.unwrap_or_else(|_| {
            shared.stats.panics.fetch_add(1, Ordering::Relaxed);
            let resp = error(ErrorCode::Internal, "request handler panicked");
            (resp.encode_frame(), CLOSE)
        });
        sock.write_all(&frame)?;
        if close {
            break None;
        }
        if sess.txn.is_some() != in_txn {
            let cfg = &shared.cfg;
            let idle = if in_txn {
                cfg.idle_timeout
            } else {
                cfg.txn_idle_timeout
            };
            sock.set_read_timeout(Some(idle))?;
        }
    };

    // Roll back before the last word, so what it says is already true.
    drop(sess);
    if let Some(resp) = goodbye {
        sock.write_all(&resp.encode_frame())?;
    }
    Ok(())
}

/// Handle one frame, inside the session's transaction or outside it.
fn handle<'g>(shared: &'g Shared, sess: &mut Session<'g>, body: &[u8]) -> Outcome {
    let mut req = match Request::decode(body) {
        Ok(req) => req,
        Err(e) => {
            shared.stats.proto_errors.fetch_add(1, Ordering::Relaxed);
            return (error(ErrorCode::Protocol, e.to_string()), CLOSE);
        }
    };

    // Handshake gate.
    if !sess.hello {
        let Request::Hello { proto, token } = req else {
            shared.stats.proto_errors.fetch_add(1, Ordering::Relaxed);
            let message = "handshake required before requests";
            return (error(ErrorCode::Protocol, message), CLOSE);
        };
        if proto != PROTO_VERSION {
            let message = format!("unsupported protocol version {proto}");
            return (error(ErrorCode::Auth, message), CLOSE);
        }
        if token != shared.cfg.auth_token {
            return (error(ErrorCode::Auth, "bad token"), CLOSE);
        }
        sess.hello = true;
        return (Response::HelloOk { session: sess.id }, KEEP);
    }

    // SQL text forms of the transaction-control frames, for clients that
    // speak plain SQL.
    if let Request::QuerySql { sql, .. } = &req {
        if let Some(control) = control_request(sql) {
            req = control;
        }
    }
    match req {
        Request::Hello { .. } => (error(ErrorCode::Protocol, "duplicate handshake"), CLOSE),
        Request::Ping => {
            let stmts = match &sess.txn {
                Some((txn, _)) => txn.statements_executed(),
                None => 0,
            };
            (Response::Ok { stmts }, KEEP)
        }
        Request::Close => {
            if let Some((txn, _slot)) = sess.txn.take() {
                txn.rollback();
            }
            (Response::Ok { stmts: 0 }, CLOSE)
        }
        Request::Prepare { sql } => {
            let _permit = shared.permit();
            match shared.engine.database().prepare(&sql) {
                Ok(()) => {
                    let stmt = sess.next_stmt;
                    sess.next_stmt += 1;
                    sess.stmts.insert(stmt, sql);
                    (Response::PrepareOk { stmt }, KEEP)
                }
                Err(e) => (Response::from_rel_error(&e), KEEP),
            }
        }
        Request::Begin => begin(shared, sess),
        Request::Commit => end_txn(sess, true),
        Request::Rollback => end_txn(sess, false),
        Request::QuerySql { sql, params } => {
            statement(shared, &mut sess.txn, Stmt::Sql(&sql, &params))
        }
        Request::Execute { stmt, params } => match sess.stmts.get(&stmt) {
            Some(sql) => statement(shared, &mut sess.txn, Stmt::Sql(sql, &params)),
            None => {
                let message = format!("unknown prepared statement {stmt}");
                (error(ErrorCode::Invalid, message), KEEP)
            }
        },
        Request::QueryGremlin { gremlin } => {
            statement(shared, &mut sess.txn, Stmt::Gremlin(&gremlin))
        }
    }
}

/// Reserve a transaction slot and open the store transaction.
fn begin<'g>(shared: &'g Shared, sess: &mut Session<'g>) -> Outcome {
    if sess.txn.is_some() {
        return (error(ErrorCode::Invalid, "transaction already open"), KEEP);
    }
    let cap = shared.cfg.max_txn_sessions;
    let taken = shared.stats.open_txns.fetch_add(1, Ordering::AcqRel);
    let slot = TxnSlot(shared);
    if taken >= cap {
        let message = format!("open-transaction limit ({cap}) reached");
        return (error(ErrorCode::Busy, message), KEEP);
    }
    sess.txn = Some((shared.engine.transaction(), slot));
    (Response::Ok { stmts: 0 }, KEEP)
}

/// `COMMIT` / `ROLLBACK`: the slot is back before the reply goes out.
fn end_txn(sess: &mut Session<'_>, commit: bool) -> Outcome {
    let Some((txn, _slot)) = sess.txn.take() else {
        return (error(ErrorCode::Invalid, "no open transaction"), KEEP);
    };
    let stmts = txn.statements_executed();
    if !commit {
        txn.rollback();
    } else if let Err(e) = txn.commit() {
        return (Response::from_core_error(&e), KEEP);
    }
    (Response::Ok { stmts }, KEEP)
}

enum Stmt<'a> {
    Sql(&'a str, &'a [Value]),
    Gremlin(&'a str),
}

/// Run one statement under an execution permit: inside the session's
/// transaction if it has one, otherwise in autocommit. In a transaction,
/// recoverable errors (bad SQL, missing vertex, …) leave it open, matching
/// in-process `GraphTxn` semantics; a first-updater-wins conflict aborts
/// it — the snapshot can no longer commit, so the server rolls back and
/// the client retries from `BEGIN`.
fn statement<'g>(shared: &'g Shared, open: &mut OpenTxn<'g>, stmt: Stmt<'_>) -> Outcome {
    let Some((txn, _)) = open else {
        let _permit = shared.permit();
        let db = shared.engine.database();
        let result = match stmt {
            Stmt::Sql(sql, params) => db.execute_with_params(sql, params).map_err(CoreError::from),
            Stmt::Gremlin(gremlin) => shared.engine.query(gremlin),
        };
        return match result {
            Ok(rel) => (Response::ResultSet { stmts: 1, rel }, KEEP),
            Err(e) => (Response::from_core_error(&e), KEEP),
        };
    };
    let _permit = shared.permit();
    let result = match stmt {
        Stmt::Sql(sql, params) => txn.sql_with_params(sql, params),
        Stmt::Gremlin(gremlin) => txn.query(gremlin),
    };
    match result {
        Ok(rel) => {
            let stmts = txn.statements_executed();
            (Response::ResultSet { stmts, rel }, KEEP)
        }
        Err(e) => {
            let fatal = matches!(
                &e,
                CoreError::Rel(
                    sqlgraph_rel::Error::TxnConflict(_)
                        | sqlgraph_rel::Error::RolledBack(_)
                        | sqlgraph_rel::Error::Wal(_)
                )
            );
            if fatal {
                *open = None; // rolls back
            }
            (Response::from_core_error(&e), KEEP)
        }
    }
}
