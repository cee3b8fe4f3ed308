//! LinkBench operation drivers.
//!
//! [`LinkOps`] is the store-facing interface for one LinkBench operation.
//! The blanket Blueprints implementation executes each operation the way a
//! Blueprints-based store does — several API calls per compound operation
//! (the paper's point about "atomic graph operations in sequence"). The
//! [`SqlLinkOps`] wrapper gives SQLGraph its paper behaviour: reads become
//! one indexed SQL statement, writes run as the multi-table stored
//! procedures.

use sqlgraph_core::{CoreError, GraphTxn, SqlGraph};
use sqlgraph_datagen::linkbench::Op;
use sqlgraph_gremlin::{Blueprints, Direction};
use sqlgraph_json::Json;
use sqlgraph_rel::{Database, Error, Relation, Value};
use sqlgraph_server::{Client, ClientError};

/// Execute one LinkBench operation. Errors from racing requesters (e.g.
/// the node was deleted concurrently) are normal and reported as `Ok(false)`.
pub trait LinkOps: Sync {
    /// Apply the operation; `Ok(true)` if it did real work.
    fn apply(&self, op: &Op) -> Result<bool, String>;
}

/// Find the edge id of `(src) -ltype-> (dst)` via Blueprints calls.
fn find_link<G: Blueprints + ?Sized>(g: &G, src: i64, dst: i64, ltype: &str) -> Option<i64> {
    let labels = [ltype.to_string()];
    g.edges_of(src, Direction::Out, &labels)
        .into_iter()
        .find(|&e| g.edge_target(e) == Some(dst))
}

impl<G: Blueprints + ?Sized> LinkOps for G {
    fn apply(&self, op: &Op) -> Result<bool, String> {
        match op {
            Op::AddNode { props } => {
                self.add_vertex(props).map_err(|e| e.to_string())?;
                Ok(true)
            }
            Op::UpdateNode { id } => {
                if !self.vertex_exists(*id) {
                    return Ok(false);
                }
                let version = self
                    .vertex_property(*id, "version")
                    .and_then(|v| v.as_i64())
                    .unwrap_or(0);
                self.set_vertex_property(*id, "version", &Json::int(version + 1))
                    .map_err(|e| e.to_string())?;
                Ok(true)
            }
            Op::DeleteNode { id } => {
                if !self.vertex_exists(*id) {
                    return Ok(false);
                }
                // Racing delete is fine.
                Ok(self.remove_vertex(*id).is_ok())
            }
            Op::GetNode { id } => {
                let _ = self.vertex_property(*id, "data");
                Ok(true)
            }
            Op::AddLink { src, dst, ltype } => {
                if !self.vertex_exists(*src) || !self.vertex_exists(*dst) {
                    return Ok(false);
                }
                let props = vec![
                    ("visibility".to_string(), Json::int(1)),
                    ("timestamp".to_string(), Json::int(1_500_000_000)),
                ];
                Ok(self.add_edge(*src, *dst, ltype, &props).is_ok())
            }
            Op::DeleteLink { src, dst, ltype } => match find_link(self, *src, *dst, ltype) {
                Some(e) => Ok(self.remove_edge(e).is_ok()),
                None => Ok(false),
            },
            Op::UpdateLink { src, dst, ltype } => match find_link(self, *src, *dst, ltype) {
                Some(e) => Ok(self
                    .set_edge_property(e, "timestamp", &Json::int(1_600_000_000))
                    .is_ok()),
                None => Ok(false),
            },
            Op::CountLink { id, ltype } => {
                let _ = self
                    .edges_of(*id, Direction::Out, &[ltype.to_string()])
                    .len();
                Ok(true)
            }
            Op::MultigetLink { src, dsts, ltype } => {
                for dst in dsts {
                    let _ = find_link(self, *src, *dst, ltype);
                }
                Ok(true)
            }
            Op::GetLinkList { id, ltype } => {
                // One call for the edge list, one per edge for attributes —
                // the chatty access pattern of Blueprints stores.
                let edges = self.edges_of(*id, Direction::Out, &[ltype.to_string()]);
                for e in edges {
                    let _ = self.edge_property(e, "timestamp");
                    let _ = self.edge_target(e);
                }
                Ok(true)
            }
        }
    }
}

/// Busy-wait for `d`: the simulated client/server round trip (sub-100µs
/// sleeps are too coarse for it).
pub(crate) fn spin(d: std::time::Duration) {
    if d.is_zero() {
        return;
    }
    let start = std::time::Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// A LinkBench read as its single indexed statement, handed to `run` with
/// its positional parameters.
fn read_with(
    op: &Op,
    run: impl FnOnce(&str, &[Value]) -> Result<Relation, String>,
) -> Result<bool, String> {
    match op {
        Op::GetNode { id } => run("SELECT attr FROM va WHERE vid = ?", &[Value::Int(*id)]),
        Op::CountLink { id, ltype } => run(
            "SELECT COUNT(*) FROM ea WHERE inv = ? AND lbl = ?",
            &[Value::Int(*id), Value::str(*ltype)],
        ),
        Op::MultigetLink { src, dsts, ltype } => {
            let list = dsts
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            run(
                &format!("SELECT eid, outv FROM ea WHERE inv = ? AND lbl = ? AND outv IN ({list})"),
                &[Value::Int(*src), Value::str(*ltype)],
            )
        }
        Op::GetLinkList { id, ltype } => run(
            "SELECT eid, outv, attr FROM ea WHERE inv = ? AND lbl = ?",
            &[Value::Int(*id), Value::str(*ltype)],
        ),
        other => Err(format!("{} is not a read op", other.name())),
    }?;
    Ok(true)
}

/// Run a LinkBench read against `db`: one statement, one round trip.
fn read_op(db: &Database, op: &Op) -> Result<bool, String> {
    read_with(op, |sql, params| {
        db.execute_with_params(sql, params)
            .map_err(|e| e.to_string())
    })
}

/// SQLGraph's set-oriented LinkBench driver: one SQL statement per read,
/// stored-procedure transactions per write. `overhead` is charged once per
/// operation — the single client/server round trip.
pub struct SqlLinkOps<'g> {
    /// The store.
    pub graph: &'g SqlGraph,
    /// One round trip per operation.
    pub overhead: std::time::Duration,
}

impl LinkOps for SqlLinkOps<'_> {
    fn apply(&self, op: &Op) -> Result<bool, String> {
        spin(self.overhead);
        if op.is_write() {
            // Blueprints impl of SqlGraph already routes through the
            // stored procedures; reuse it for writes.
            return <SqlGraph as LinkOps>::apply(self.graph, op);
        }
        read_op(self.graph.database(), op)
    }
}

// ---------------------------------------------------------------------------
// Mixed read/write drivers: one write script, two transports
// ---------------------------------------------------------------------------

/// How many times a mixed write op runs from `BEGIN` while it keeps
/// losing first-updater-wins conflicts.
const OP_RETRIES: usize = 16;

/// One open transaction the mixed write script can drive, independent of
/// transport: the in-process [`GraphTxn`] or a wire-protocol session with
/// an open transaction. Having exactly one script run over both is what
/// lets `remote_parity` assert that `statements_executed` accounting
/// matches between embedded and remote execution. Errors are the
/// engine's, so both transports report a conflict as
/// [`Error::TxnConflict`].
pub trait MixedTxn {
    /// Run one SQL statement inside the transaction.
    fn sql(&mut self, sql: &str, params: &[Value]) -> Result<Relation, Error>;
    /// Run one Gremlin CRUD statement inside the transaction.
    fn gremlin(&mut self, q: &str) -> Result<Relation, Error>;
    /// The transaction's cumulative statement counter.
    fn stmts(&self) -> u64;
}

/// The engine error behind a store error; any other failure (Gremlin,
/// graph, unsupported) as [`Error::Invalid`] with its message.
fn engine_error(e: CoreError) -> Error {
    match e {
        CoreError::Rel(e) => e,
        other => Error::Invalid(other.to_string()),
    }
}

/// [`engine_error`] for a failure reported over the wire.
fn remote_error(e: ClientError) -> Error {
    e.as_rel_error()
        .unwrap_or_else(|| Error::Invalid(e.to_string()))
}

impl MixedTxn for GraphTxn<'_> {
    fn sql(&mut self, sql: &str, params: &[Value]) -> Result<Relation, Error> {
        self.sql_with_params(sql, params).map_err(engine_error)
    }
    fn gremlin(&mut self, q: &str) -> Result<Relation, Error> {
        self.query(q).map_err(engine_error)
    }
    fn stmts(&self) -> u64 {
        self.statements_executed()
    }
}

/// A [`Client`] whose session currently has an explicit transaction open.
pub struct RemoteTxn<'c>(pub &'c mut Client);

impl MixedTxn for RemoteTxn<'_> {
    fn sql(&mut self, sql: &str, params: &[Value]) -> Result<Relation, Error> {
        self.0
            .query_sql_with_params(sql, params)
            .map_err(remote_error)
    }
    fn gremlin(&mut self, q: &str) -> Result<Relation, Error> {
        self.0.query_gremlin(q).map_err(remote_error)
    }
    fn stmts(&self) -> u64 {
        self.0.statements_executed()
    }
}

/// Gremlin literal for a property value.
fn gremlin_lit(j: &Json) -> String {
    match j {
        Json::Num(n) if n.is_int() => n.as_i64().unwrap_or(0).to_string(),
        Json::Num(n) => format!("{:?}", n.as_f64()),
        Json::Str(s) => format!("'{}'", s.replace('\\', "\\\\").replace('\'', "\\'")),
        other => format!("'{other}'"),
    }
}

/// Gremlin map literal for a property list.
fn gremlin_map(props: &[(String, Json)]) -> String {
    props
        .iter()
        .map(|(k, v)| format!("'{k}':{}", gremlin_lit(v)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// `eid` of `(src) -ltype-> (dst)` read inside the transaction.
fn find_link_tx<T: MixedTxn>(
    tx: &mut T,
    src: i64,
    dst: i64,
    ltype: &str,
) -> Result<Option<i64>, Error> {
    let rel = tx.sql(
        "SELECT eid FROM ea WHERE inv = ? AND outv = ? AND lbl = ?",
        &[Value::Int(src), Value::Int(dst), Value::str(ltype)],
    )?;
    Ok(rel.rows.first().and_then(|r| r[0].as_int()))
}

/// A mutation whose failure is LinkBench's no-op (the row is gone):
/// `Ok(false)`. A lost conflict is not a no-op; it stays an error, so the
/// op can run again.
fn effective(done: Result<Relation, Error>) -> Result<bool, Error> {
    match done {
        Ok(_) => Ok(true),
        Err(e @ Error::TxnConflict(_)) => Err(e),
        Err(_) => Ok(false),
    }
}

/// The mixed benchmark's write script: the op's statements inside an
/// already-open transaction. The caller commits on `Ok(true)` and rolls
/// back on `Ok(false)` / `Err`; an [`Error::TxnConflict`] asks it to run
/// the op again from `BEGIN`. Statement-for-statement identical over
/// both transports, so `MixedTxn::stmts` must agree at every step.
pub fn apply_mixed_write<T: MixedTxn>(tx: &mut T, op: &Op) -> Result<bool, Error> {
    match op {
        Op::AddNode { props } => {
            tx.gremlin(&format!("g.addVertex([{}])", gremlin_map(props)))?;
            Ok(true)
        }
        Op::UpdateNode { id } => {
            let rel = tx.sql(
                "SELECT JSON_VAL(attr, 'version') FROM va WHERE vid = ?",
                &[Value::Int(*id)],
            )?;
            let Some(row) = rel.rows.first() else {
                return Ok(false);
            };
            let version = row[0].as_int().unwrap_or(0);
            tx.gremlin(&format!(
                "g.v({id}).setProperty('version', {})",
                version + 1
            ))?;
            Ok(true)
        }
        Op::DeleteNode { id } => {
            // Racing delete is fine; the §4.5.2 procedure itself is
            // several statements (edge deletes + negative-ID marks).
            effective(tx.gremlin(&format!("g.removeVertex({id})")))
        }
        Op::AddLink { src, dst, ltype } => {
            let q = format!(
                "g.addEdge({src}, {dst}, '{ltype}', ['visibility':1, 'timestamp':1500000000])"
            );
            effective(tx.gremlin(&q))
        }
        Op::DeleteLink { src, dst, ltype } => match find_link_tx(tx, *src, *dst, ltype)? {
            Some(e) => effective(tx.gremlin(&format!("g.removeEdge({e})"))),
            None => Ok(false),
        },
        Op::UpdateLink { src, dst, ltype } => match find_link_tx(tx, *src, *dst, ltype)? {
            Some(e) => {
                effective(tx.gremlin(&format!("g.e({e}).setProperty('timestamp', 1600000000)")))
            }
            None => Ok(false),
        },
        _ => Err(Error::Invalid(format!("{} is not a write op", op.name()))),
    }
}

/// Run one write op (`attempt` opens, scripts and ends its transaction)
/// until it does not lose a conflict, at most [`OP_RETRIES`] times.
/// Returns the outcome and how many attempts lost a conflict.
fn retry_op(mut attempt: impl FnMut() -> Result<bool, Error>) -> (Result<bool, String>, u64) {
    let mut conflicts = 0;
    loop {
        match attempt() {
            Err(Error::TxnConflict(_)) if conflicts + 1 < OP_RETRIES as u64 => conflicts += 1,
            Err(e) => {
                conflicts += u64::from(matches!(e, Error::TxnConflict(_)));
                return (Err(e.to_string()), conflicts);
            }
            Ok(done) => return (Ok(done), conflicts),
        }
    }
}

/// In-process mixed driver: reads are single SQL statements
/// ([`SqlLinkOps`] behaviour), writes run the shared script inside a
/// [`SqlGraph::transaction`].
pub struct MixedSqlOps<'g> {
    /// The store.
    pub graph: &'g SqlGraph,
}

impl LinkOps for MixedSqlOps<'_> {
    fn apply(&self, op: &Op) -> Result<bool, String> {
        if !op.is_write() {
            return read_op(self.graph.database(), op);
        }
        retry_op(|| {
            let mut tx = self.graph.transaction();
            // An error drops `tx`, which rolls it back.
            if !apply_mixed_write(&mut tx, op)? {
                tx.rollback();
                return Ok(false);
            }
            tx.commit().map_err(engine_error)?;
            Ok(true)
        })
        .0
    }
}

/// Remote mixed driver: the same operations through a wire-protocol
/// session — real socket round trips instead of the simulated
/// `thread::sleep` ones this replaced. One instance per client thread
/// (a [`Client`] is one connection).
pub struct RemoteMixedOps {
    /// The connection; `pub` so harnesses can reuse it for setup.
    pub client: Client,
    /// Write attempts that lost a first-updater-wins conflict, retried or
    /// not.
    pub(crate) conflicts: u64,
}

impl RemoteMixedOps {
    /// Connect a fresh session to a running server.
    pub fn connect(addr: std::net::SocketAddr) -> Result<RemoteMixedOps, String> {
        Ok(RemoteMixedOps {
            client: Client::connect(addr).map_err(|e| e.to_string())?,
            conflicts: 0,
        })
    }

    /// Apply one LinkBench operation over the wire. A write that loses a
    /// conflict runs again from `BEGIN`, a bounded number of times.
    pub fn apply(&mut self, op: &Op) -> Result<bool, String> {
        if !op.is_write() {
            return self.apply_read(op);
        }
        let (done, conflicts) = retry_op(|| self.write_once(op));
        self.conflicts += conflicts;
        done
    }

    fn write_once(&mut self, op: &Op) -> Result<bool, Error> {
        self.client.begin().map_err(remote_error)?;
        let outcome = apply_mixed_write(&mut RemoteTxn(&mut self.client), op);
        match outcome {
            Ok(true) => {
                self.client.commit().map_err(remote_error)?;
                Ok(true)
            }
            Ok(false) => {
                let _ = self.client.rollback();
                Ok(false)
            }
            Err(e) => {
                // The server has already aborted a transaction that lost a
                // conflict; a failed rollback of a closed one is fine.
                if self.client.in_transaction() {
                    let _ = self.client.rollback();
                }
                Err(e)
            }
        }
    }

    /// Reads: the same single indexed statements [`SqlLinkOps`] issues,
    /// as one wire round trip each.
    fn apply_read(&mut self, op: &Op) -> Result<bool, String> {
        read_with(op, |sql, params| {
            self.client
                .query_sql_with_params(sql, params)
                .map_err(|e| e.to_string())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlgraph_baselines::NativeGraph;
    use sqlgraph_datagen::linkbench::{generate, LinkBenchConfig, Workload};

    #[test]
    fn drivers_agree_on_a_small_run() {
        let config = LinkBenchConfig {
            nodes: 60,
            ..LinkBenchConfig::default()
        };
        let data = generate(&config);

        let sql = SqlGraph::new_in_memory();
        data.load_blueprints(&sql).unwrap();
        let native = NativeGraph::new();
        data.load_blueprints(&native).unwrap();

        let sql_ops = SqlLinkOps {
            graph: &sql,
            overhead: std::time::Duration::ZERO,
        };
        let mut wl = Workload::new(11, 0, config.nodes, 8);
        for _ in 0..300 {
            let op = wl.next_op();
            let a = sql_ops.apply(&op).unwrap();
            let b = LinkOps::apply(&native, &op).unwrap();
            // Write effectiveness must agree so the stores stay in sync.
            if op.is_write() {
                assert_eq!(a, b, "write disagreement on {op:?}");
            }
        }
        // Final edge counts agree.
        assert_eq!(sql.database().table_len("ea").unwrap(), native.edge_count());
    }
}
