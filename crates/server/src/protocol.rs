//! Wire protocol: length-prefixed frames with a one-byte opcode.
//!
//! ## Frame grammar
//!
//! `str`, `value` and `values` are [`sqlgraph_rel::codec`]'s encoding, the
//! one the WAL and the checkpoint use; decoding shares its guards.
//!
//! ```text
//! frame    := len:u32le body              (len = body length in bytes)
//! body     := opcode:u8 payload
//! ```
//!
//! Requests (client → server):
//!
//! ```text
//! 0x01 Hello        proto:u8 token:str
//! 0x02 QuerySql     sql:str params:values
//! 0x03 QueryGremlin gremlin:str
//! 0x04 Prepare      sql:str
//! 0x05 Execute      stmt:u32le params:values
//! 0x06 Begin | 0x07 Commit | 0x08 Rollback | 0x09 Ping | 0x0A Close
//! ```
//!
//! Responses (server → client):
//!
//! ```text
//! 0x81 HelloOk      session:u64le
//! 0x82 ResultSet    stmts:u64le ncols:u32le col:str*ncols nrows:u32le row:value*ncols*nrows
//! 0x83 Error        code:u8 aux:u32le message:str
//! 0x84 PrepareOk    stmt:u32le
//! 0x85 Ok           stmts:u64le
//! ```
//!
//! `stmts` is the session's transaction statement counter after the
//! request (cumulative while an explicit transaction is open, the
//! statement count of the request itself in autocommit) — the client uses
//! it to charge round trips exactly like the in-process
//! `Txn::statements_executed` accounting.
//!
//! Error codes 1–8 are `sqlgraph_rel::Error`'s `wire_code` space; the
//! server layers store- and protocol-level codes above it (see
//! [`ErrorCode`]).

use sqlgraph_core::CoreError;
use sqlgraph_rel::codec::{put_str, put_u32, put_u64, put_value, put_values, CodecError, Cursor};
use sqlgraph_rel::{Error as RelError, Relation, Value};
use std::io::{Read, Write};

/// Default cap on one frame's body (both sides enforce it).
pub const MAX_FRAME_DEFAULT: usize = 4 << 20;

/// Protocol version spoken by this crate.
pub const PROTO_VERSION: u8 = 1;

/// Typed error-frame codes. 1–8 mirror [`sqlgraph_rel::Error::wire_code`];
/// the rest are store/server level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// SQL parse error (aux = byte offset).
    Parse = 1,
    /// Unknown table/column/index/procedure.
    NotFound = 2,
    /// Schema violation.
    Schema = 3,
    /// Type mismatch.
    Type = 4,
    /// Invalid request (bad parameter, BEGIN inside a transaction, …).
    Invalid = 5,
    /// WAL I/O or corruption: the commit's durability is indeterminate
    /// until the store is reopened.
    Wal = 6,
    /// Transaction rolled back.
    RolledBack = 7,
    /// First-updater-wins snapshot-isolation conflict; the server rolled
    /// the transaction back, retry from `BEGIN`.
    TxnConflict = 8,
    /// Gremlin query not translatable in this context.
    Unsupported = 20,
    /// Graph-level error (missing vertex/edge, …).
    Graph = 21,
    /// Gremlin parse error.
    Gremlin = 22,
    /// Malformed frame; the server closes the connection after sending.
    Protocol = 30,
    /// Handshake rejected.
    Auth = 31,
    /// Frame exceeds the size limit; connection closed after sending.
    TooLarge = 32,
    /// Server at a concurrency limit (e.g. open-transaction cap); retry.
    Busy = 33,
    /// Server is draining; no new work accepted.
    ShuttingDown = 34,
    /// Session or transaction idle timeout; connection closed.
    Timeout = 35,
    /// The worker servicing the request panicked; the request's effects
    /// (if any) were rolled back with the session.
    Internal = 36,
}

impl ErrorCode {
    /// Decode a wire byte.
    pub fn from_u8(code: u8) -> Option<ErrorCode> {
        Some(match code {
            1 => ErrorCode::Parse,
            2 => ErrorCode::NotFound,
            3 => ErrorCode::Schema,
            4 => ErrorCode::Type,
            5 => ErrorCode::Invalid,
            6 => ErrorCode::Wal,
            7 => ErrorCode::RolledBack,
            8 => ErrorCode::TxnConflict,
            20 => ErrorCode::Unsupported,
            21 => ErrorCode::Graph,
            22 => ErrorCode::Gremlin,
            30 => ErrorCode::Protocol,
            31 => ErrorCode::Auth,
            32 => ErrorCode::TooLarge,
            33 => ErrorCode::Busy,
            34 => ErrorCode::ShuttingDown,
            35 => ErrorCode::Timeout,
            36 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A client request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake: protocol version + auth token (stub: compared against
    /// the server's configured token, empty by default).
    Hello { proto: u8, token: String },
    /// One SQL statement with positional `?` parameters.
    QuerySql { sql: String, params: Vec<Value> },
    /// One Gremlin statement (traversal or CRUD).
    QueryGremlin { gremlin: String },
    /// Validate a statement and bind it to a session-local id.
    Prepare { sql: String },
    /// Execute a previously prepared statement.
    Execute { stmt: u32, params: Vec<Value> },
    /// Open an explicit transaction.
    Begin,
    /// Commit the open transaction.
    Commit,
    /// Roll back the open transaction.
    Rollback,
    /// Liveness probe.
    Ping,
    /// Graceful connection end.
    Close,
}

/// A server response frame.
#[derive(Debug, Clone)]
pub enum Response {
    /// Handshake accepted.
    HelloOk { session: u64 },
    /// Rows from a query, plus the statement counter (see module docs).
    ResultSet { stmts: u64, rel: Relation },
    /// Typed error.
    Error {
        code: ErrorCode,
        aux: u32,
        message: String,
    },
    /// Statement prepared.
    PrepareOk { stmt: u32 },
    /// Statement-less success (Begin/Commit/Rollback/Ping/Close).
    Ok { stmts: u64 },
}

/// Malformed frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed frame: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

impl From<CodecError> for DecodeError {
    fn from(e: CodecError) -> DecodeError {
        DecodeError(e.0)
    }
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

impl Request {
    /// Encode to a frame body (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Hello { proto, token } => {
                out.push(0x01);
                out.push(*proto);
                put_str(&mut out, token);
            }
            Request::QuerySql { sql, params } => {
                out.push(0x02);
                put_str(&mut out, sql);
                put_values(&mut out, params);
            }
            Request::QueryGremlin { gremlin } => {
                out.push(0x03);
                put_str(&mut out, gremlin);
            }
            Request::Prepare { sql } => {
                out.push(0x04);
                put_str(&mut out, sql);
            }
            Request::Execute { stmt, params } => {
                out.push(0x05);
                put_u32(&mut out, *stmt);
                put_values(&mut out, params);
            }
            Request::Begin => out.push(0x06),
            Request::Commit => out.push(0x07),
            Request::Rollback => out.push(0x08),
            Request::Ping => out.push(0x09),
            Request::Close => out.push(0x0A),
        }
        out
    }

    /// Decode a frame body.
    pub fn decode(body: &[u8]) -> Result<Request, DecodeError> {
        let mut c = Cursor::new(body);
        let req = match c.u8()? {
            0x01 => Request::Hello {
                proto: c.u8()?,
                token: c.str()?.to_string(),
            },
            0x02 => Request::QuerySql {
                sql: c.str()?.to_string(),
                params: c.values()?,
            },
            0x03 => Request::QueryGremlin {
                gremlin: c.str()?.to_string(),
            },
            0x04 => Request::Prepare {
                sql: c.str()?.to_string(),
            },
            0x05 => Request::Execute {
                stmt: c.u32()?,
                params: c.values()?,
            },
            0x06 => Request::Begin,
            0x07 => Request::Commit,
            0x08 => Request::Rollback,
            0x09 => Request::Ping,
            0x0A => Request::Close,
            op => return Err(DecodeError(format!("unknown request opcode {op:#04x}"))),
        };
        c.finish()?;
        Ok(req)
    }
}

/// The transaction-control frame a SQL text stands for: `BEGIN`, `COMMIT`
/// or `ROLLBACK`, optionally followed by `TRANSACTION` or `WORK`, in any
/// case, with an optional trailing `;`. The engine's SQL has no
/// transaction control, so this is where such text is recognised: the
/// server answers a `QuerySql` carrying it as the frame, and the client
/// sends the frame instead.
pub(crate) fn control_request(sql: &str) -> Option<Request> {
    let mut words = sql
        .trim_end()
        .trim_end_matches(';')
        .split_ascii_whitespace();
    let verb = words.next()?;
    let req = [
        ("begin", Request::Begin),
        ("commit", Request::Commit),
        ("rollback", Request::Rollback),
    ]
    .into_iter()
    .find_map(|(word, req)| verb.eq_ignore_ascii_case(word).then_some(req))?;
    let noise = |w: &str| w.eq_ignore_ascii_case("transaction") || w.eq_ignore_ascii_case("work");
    (words.next().is_none_or(noise) && words.next().is_none()).then_some(req)
}

impl Response {
    /// Encode to a frame body (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encode to a whole frame, length prefix and body in one buffer, so
    /// the sender hands it to the socket in a single write. (A prefix
    /// written on its own is a 4-byte segment; with Nagle's algorithm on,
    /// the body then waits for the peer's delayed ACK of it.)
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut out = vec![0u8; 4];
        self.encode_into(&mut out);
        let len = (out.len() - 4) as u32;
        out[..4].copy_from_slice(&len.to_le_bytes());
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::HelloOk { session } => {
                out.push(0x81);
                put_u64(out, *session);
            }
            Response::ResultSet { stmts, rel } => {
                out.push(0x82);
                put_u64(out, *stmts);
                put_u32(out, rel.columns.len() as u32);
                for col in &rel.columns {
                    put_str(out, col);
                }
                put_u32(out, rel.rows.len() as u32);
                for row in &rel.rows {
                    for v in row {
                        put_value(out, v);
                    }
                }
            }
            Response::Error { code, aux, message } => {
                out.push(0x83);
                out.push(*code as u8);
                put_u32(out, *aux);
                put_str(out, message);
            }
            Response::PrepareOk { stmt } => {
                out.push(0x84);
                put_u32(out, *stmt);
            }
            Response::Ok { stmts } => {
                out.push(0x85);
                put_u64(out, *stmts);
            }
        }
    }

    /// Decode a frame body.
    pub fn decode(body: &[u8]) -> Result<Response, DecodeError> {
        let mut c = Cursor::new(body);
        let resp = match c.u8()? {
            0x81 => Response::HelloOk { session: c.u64()? },
            0x82 => {
                let stmts = c.u64()?;
                let ncols = c.count()?;
                let columns = (0..ncols)
                    .map(|_| Ok(c.str()?.to_string()))
                    .collect::<Result<_, DecodeError>>()?;
                // Not `count()`: a zero-column row encodes to no bytes.
                let nrows = c.u32()? as usize;
                if nrows > body.len() {
                    return Err(c.err("row count exceeds frame").into());
                }
                let mut rows = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    let mut row = Vec::with_capacity(ncols);
                    for _ in 0..ncols {
                        row.push(c.value()?);
                    }
                    rows.push(row);
                }
                Response::ResultSet {
                    stmts,
                    rel: Relation::new(columns, rows),
                }
            }
            0x83 => {
                let raw = c.u8()?;
                let code = ErrorCode::from_u8(raw)
                    .ok_or_else(|| DecodeError(format!("unknown error code {raw}")))?;
                Response::Error {
                    code,
                    aux: c.u32()?,
                    message: c.str()?.to_string(),
                }
            }
            0x84 => Response::PrepareOk { stmt: c.u32()? },
            0x85 => Response::Ok { stmts: c.u64()? },
            op => return Err(DecodeError(format!("unknown response opcode {op:#04x}"))),
        };
        c.finish()?;
        Ok(resp)
    }

    /// The typed error frame for a store error.
    pub fn from_core_error(e: &CoreError) -> Response {
        match e {
            CoreError::Rel(rel) => Response::from_rel_error(rel),
            CoreError::Gremlin(g) => Response::Error {
                code: ErrorCode::Gremlin,
                aux: 0,
                message: g.to_string(),
            },
            CoreError::Graph(g) => Response::Error {
                code: ErrorCode::Graph,
                aux: 0,
                message: g.to_string(),
            },
            CoreError::Unsupported(msg) => Response::Error {
                code: ErrorCode::Unsupported,
                aux: 0,
                message: msg.clone(),
            },
        }
    }

    /// The typed error frame for an engine error.
    pub fn from_rel_error(e: &RelError) -> Response {
        Response::Error {
            code: ErrorCode::from_u8(e.wire_code()).expect("rel codes are 1-8"),
            aux: e.wire_aux(),
            message: e.wire_message().to_string(),
        }
    }
}

// ---------------------------------------------------------------------
// Blocking frame I/O (the client, the server's session threads and tests)
// ---------------------------------------------------------------------

/// Write one frame: length prefix + body, in one write. Two writes would
/// be two segments on a `TCP_NODELAY` socket, and a blocking reader woken
/// by the prefix alone goes back to sleep to wait for the body.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)
}

/// Read one frame body, rejecting bodies over `max` bytes.
pub fn read_frame(r: &mut impl Read, max: usize) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > max {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds limit {max}"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Double(2.5),
            Value::Double(f64::NAN),
            Value::str("héllo 'quoted'"),
            Value::json(sqlgraph_json::parse(r#"{"a":[1,2.5,"x"],"b":null}"#).unwrap()),
            Value::Array(Arc::new(vec![Value::Int(1), Value::str("two")])),
        ]
    }

    #[test]
    fn request_roundtrip() {
        let reqs = vec![
            Request::Hello {
                proto: PROTO_VERSION,
                token: "secret".into(),
            },
            Request::QuerySql {
                sql: "SELECT * FROM va WHERE vid = ?".into(),
                params: sample_values(),
            },
            Request::QueryGremlin {
                gremlin: "g.V.out('knows').name".into(),
            },
            Request::Prepare {
                sql: "SELECT 1".into(),
            },
            Request::Execute {
                stmt: 7,
                params: vec![Value::Int(3)],
            },
            Request::Begin,
            Request::Commit,
            Request::Rollback,
            Request::Ping,
            Request::Close,
        ];
        for req in reqs {
            let body = req.encode();
            let back = Request::decode(&body).unwrap();
            // NaN != NaN under PartialEq; compare debug renderings.
            assert_eq!(format!("{back:?}"), format!("{req:?}"));
        }
    }

    #[test]
    fn control_text_maps_to_frames() {
        for (sql, req) in [
            ("BEGIN", Request::Begin),
            ("  begin transaction ;", Request::Begin),
            ("Commit Work;", Request::Commit),
            ("commit", Request::Commit),
            ("ROLLBACK\tTRANSACTION", Request::Rollback),
            ("rollback work", Request::Rollback),
        ] {
            assert_eq!(control_request(sql), Some(req), "{sql}");
        }
        for sql in [
            "",
            ";",
            "BEGINNING",
            "BEGIN WORK TRANSACTION",
            "COMMIT NOW",
            "ROLLBACK TO s1",
            "SELECT 1",
            "END",
        ] {
            assert_eq!(control_request(sql), None, "{sql}");
        }
    }

    #[test]
    fn response_roundtrip() {
        let resps = vec![
            Response::HelloOk { session: 12 },
            Response::ResultSet {
                stmts: 3,
                rel: Relation::new(
                    vec!["a".into(), "b".into()],
                    vec![
                        vec![Value::Int(1), Value::str("x")],
                        vec![Value::Null, Value::Double(0.5)],
                    ],
                ),
            },
            Response::Error {
                code: ErrorCode::TxnConflict,
                aux: 0,
                message: "vid 3".into(),
            },
            Response::PrepareOk { stmt: 9 },
            Response::Ok { stmts: 5 },
        ];
        for resp in resps {
            let body = resp.encode();
            let mut frame = (body.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&body);
            assert_eq!(resp.encode_frame(), frame);
            // `Relation` has no `PartialEq`; Debug strings are faithful.
            assert_eq!(
                format!("{:?}", Response::decode(&body).unwrap()),
                format!("{resp:?}")
            );
        }
    }

    #[test]
    fn rel_error_codes_roundtrip() {
        let errs = vec![
            RelError::Parse {
                offset: 17,
                message: "bad token".into(),
            },
            RelError::NotFound("table q".into()),
            RelError::TxnConflict("vid 9".into()),
        ];
        for e in errs {
            let frame = Response::from_rel_error(&e);
            let Response::Error { code, aux, message } = &frame else {
                panic!("not an error frame");
            };
            let back = RelError::from_wire(*code as u8, *aux, message).unwrap();
            assert_eq!(back, e);
        }
    }

    #[test]
    fn truncation_never_panics() {
        // Every prefix of a valid frame decodes to a clean error.
        let body = Request::QuerySql {
            sql: "SELECT attr FROM va WHERE vid = ?".into(),
            params: sample_values(),
        }
        .encode();
        for cut in 0..body.len() {
            assert!(Request::decode(&body[..cut]).is_err());
        }
        let body = Response::ResultSet {
            stmts: 1,
            rel: Relation::new(vec!["v".into()], vec![vec![Value::str("x")]]),
        }
        .encode();
        for cut in 0..body.len() {
            assert!(Response::decode(&body[..cut]).is_err());
        }
    }

    #[test]
    fn bitflips_never_panic() {
        let body = Request::QuerySql {
            sql: "SELECT 1".into(),
            params: vec![Value::Int(5), Value::str("abc")],
        }
        .encode();
        for i in 0..body.len() {
            for bit in 0..8 {
                let mut mutated = body.clone();
                mutated[i] ^= 1 << bit;
                // Must not panic; decoding may succeed (benign flip) or fail.
                let _ = Request::decode(&mutated);
            }
        }
    }

    #[test]
    fn oversized_count_rejected_without_allocation() {
        // values-count field claims 4 billion entries; decode must reject
        // rather than try to allocate.
        let mut body = vec![0x02];
        put_str(&mut body, "SELECT 1");
        put_u32(&mut body, u32::MAX);
        assert!(Request::decode(&body).is_err());
    }
}
