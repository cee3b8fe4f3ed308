//! Blocking client for the SQLGraph wire protocol.
//!
//! One [`Client`] wraps one TCP connection and one server-side session.
//! The API mirrors the in-process surface: autocommit queries, prepared
//! statements, and explicit transactions driven by `begin`/`commit`/
//! `rollback`. Server-side failures come back as
//! [`ClientError::Server`]; for error codes 1–8 the original
//! [`sqlgraph_rel::Error`] can be reconstructed with
//! [`ClientError::as_rel_error`], which is what the differential tests
//! use to compare remote against in-process execution.

use crate::protocol::{
    control_request, read_frame, write_frame, ErrorCode, Request, Response, MAX_FRAME_DEFAULT,
    PROTO_VERSION,
};
use sqlgraph_rel::{Relation, Value};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failure: transport, server-reported, or protocol breakage.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connection refused, reset, timeout).
    Io(std::io::Error),
    /// The server replied with a typed error frame.
    Server {
        code: ErrorCode,
        aux: u32,
        message: String,
    },
    /// The server replied with something the client cannot interpret.
    Protocol(String),
}

impl ClientError {
    /// Reconstruct the engine error for server codes 1–8, `None` for
    /// store/server-level codes.
    pub fn as_rel_error(&self) -> Option<sqlgraph_rel::Error> {
        match self {
            ClientError::Server { code, aux, message } => {
                sqlgraph_rel::Error::from_wire(*code as u8, *aux, message)
            }
            _ => None,
        }
    }

    /// The server-reported error code, if this is a server error.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Server { code, message, .. } => {
                write!(f, "server error {code:?}: {message}")
            }
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

pub type Result<T> = std::result::Result<T, ClientError>;

/// A query result: the relation plus the session's cumulative
/// statement-execution count (used by the parity tests to check that
/// remote accounting matches in-process `Txn::statements_executed`).
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub rel: Relation,
    pub stmts: u64,
}

/// Blocking connection to a `sqlgraph-server`.
pub struct Client {
    sock: TcpStream,
    session: u64,
    max_frame: usize,
    /// Statement count reported by the most recent response.
    last_stmts: u64,
    /// True while an explicit transaction is open client-side.
    in_txn: bool,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("session", &self.session)
            .field("in_txn", &self.in_txn)
            .finish_non_exhaustive()
    }
}

impl Client {
    /// Connect with an empty auth token.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Client::connect_with(addr, "")
    }

    /// Connect and handshake with `token`.
    pub fn connect_with(addr: impl ToSocketAddrs, token: &str) -> Result<Client> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true).ok();
        sock.set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut client = Client {
            sock,
            session: 0,
            max_frame: MAX_FRAME_DEFAULT,
            last_stmts: 0,
            in_txn: false,
        };
        match client.roundtrip(&Request::Hello {
            proto: PROTO_VERSION,
            token: token.to_string(),
        })? {
            Response::HelloOk { session } => {
                client.session = session;
                Ok(client)
            }
            other => Err(unexpected(&other)),
        }
    }

    /// The server-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// Statement count from the most recent response: cumulative within
    /// an open transaction, `1` per autocommit statement.
    pub fn statements_executed(&self) -> u64 {
        self.last_stmts
    }

    /// True while `begin` (or `BEGIN` text through `query_sql`) has
    /// succeeded and no commit/rollback has ended the transaction
    /// (server-side aborts also clear it).
    pub fn in_transaction(&self) -> bool {
        self.in_txn
    }

    /// Run one SQL statement (autocommit outside a transaction).
    pub fn query_sql(&mut self, sql: &str) -> Result<Relation> {
        self.query_sql_with_params(sql, &[])
    }

    /// Run one parameterized SQL statement. Transaction-control text
    /// (`BEGIN`, `COMMIT WORK;`, …) runs as [`Client::begin`] /
    /// [`Client::commit`] / [`Client::rollback`] and returns no rows.
    pub fn query_sql_with_params(&mut self, sql: &str, params: &[Value]) -> Result<Relation> {
        if let Some(control) = control_request(sql) {
            self.control(&control)?;
            return Ok(Relation::new(Vec::new(), Vec::new()));
        }
        let resp = self.roundtrip(&Request::QuerySql {
            sql: sql.to_string(),
            params: params.to_vec(),
        })?;
        self.result_set(resp)
    }

    /// Run one Gremlin traversal or CRUD statement.
    pub fn query_gremlin(&mut self, gremlin: &str) -> Result<Relation> {
        let resp = self.roundtrip(&Request::QueryGremlin {
            gremlin: gremlin.to_string(),
        })?;
        self.result_set(resp)
    }

    /// Register `sql` as a prepared statement; returns its handle.
    pub fn prepare(&mut self, sql: &str) -> Result<u32> {
        match self.roundtrip(&Request::Prepare {
            sql: sql.to_string(),
        })? {
            Response::PrepareOk { stmt } => Ok(stmt),
            other => Err(unexpected(&other)),
        }
    }

    /// Execute a prepared statement.
    pub fn execute(&mut self, stmt: u32, params: &[Value]) -> Result<Relation> {
        let resp = self.roundtrip(&Request::Execute {
            stmt,
            params: params.to_vec(),
        })?;
        self.result_set(resp)
    }

    /// Open an explicit transaction. Until `commit`/`rollback`, every
    /// statement on this connection runs inside it.
    pub fn begin(&mut self) -> Result<()> {
        self.control(&Request::Begin).map(|_| ())
    }

    /// Commit the open transaction.
    pub fn commit(&mut self) -> Result<u64> {
        self.control(&Request::Commit)
    }

    /// Roll back the open transaction.
    pub fn rollback(&mut self) -> Result<u64> {
        self.control(&Request::Rollback)
    }

    /// Send `Begin`, `Commit` or `Rollback`; returns the statement count
    /// the server reports. A commit or rollback ends the transaction
    /// client-side even when the server refuses it.
    fn control(&mut self, req: &Request) -> Result<u64> {
        let opens = *req == Request::Begin;
        if !opens {
            self.in_txn = false;
        }
        match self.roundtrip(req)? {
            Response::Ok { stmts } => {
                self.last_stmts = stmts;
                self.in_txn = opens;
                Ok(stmts)
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Liveness probe; returns the session's current statement count.
    pub fn ping(&mut self) -> Result<u64> {
        match self.roundtrip(&Request::Ping)? {
            Response::Ok { stmts } => Ok(stmts),
            other => Err(unexpected(&other)),
        }
    }

    /// Polite goodbye; the server acknowledges then closes the session.
    pub fn close(mut self) -> Result<()> {
        match self.roundtrip(&Request::Close)? {
            Response::Ok { .. } => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    fn result_set(&mut self, resp: Response) -> Result<Relation> {
        match resp {
            Response::ResultSet { stmts, rel } => {
                self.last_stmts = stmts;
                Ok(rel)
            }
            other => Err(unexpected(&other)),
        }
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response> {
        write_frame(&mut self.sock, &req.encode())?;
        let body = read_frame(&mut self.sock, self.max_frame)?;
        let resp = Response::decode(&body).map_err(|e| ClientError::Protocol(e.to_string()))?;
        if let Response::Error { code, aux, message } = resp {
            // Transaction-fatal errors end the server-side transaction.
            if matches!(
                code,
                ErrorCode::TxnConflict
                    | ErrorCode::RolledBack
                    | ErrorCode::Wal
                    | ErrorCode::Timeout
                    | ErrorCode::ShuttingDown
            ) {
                self.in_txn = false;
            }
            return Err(ClientError::Server { code, aux, message });
        }
        Ok(resp)
    }
}

fn unexpected(resp: &Response) -> ClientError {
    ClientError::Protocol(format!("unexpected response frame: {resp:?}"))
}
