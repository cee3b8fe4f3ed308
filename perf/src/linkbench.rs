//! The three LinkBench workloads: `lb_read` (embedded point reads),
//! `lb_mixed` (the Table 6 mix on a durable store) and `lb_remote` (the
//! read stream over the wire protocol).

use crate::countfs::{CountingFs, IoCounts, IoSnapshot};
use crate::host;
use crate::inputs::{
    self, in_memory_store, op_kind, read_call, write_script, ReadReq, OP_KINDS, SCHEMA,
};
use crate::measure::{check, metric, timed, Cfg, Check, Metric, Window, Workload};
use crate::stats;
use crate::trace::{Name, Spans, Tracer};
use sqlgraph_core::{GraphData, SqlGraph};
use sqlgraph_datagen::linkbench::Op;
use sqlgraph_rel::{Database, Relation, StdFs, Value};
use sqlgraph_server::{Client, Request, Response, Server};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Distinct reads generated per stream; longer windows replay them, so
/// the stream's memory stays small beside the store's.
const READ_BLOCK: usize = 200_000;

fn embedded_read(db: &Database, op: &Op) -> Result<Relation, String> {
    read_call(op, |sql, params| db.execute_with_params(sql, params)).map_err(|e| e.to_string())
}

fn kind_names<S: Spans>(spans: &mut S) -> [Name; 10] {
    KIND_SPANS.map(|n| spans.name(n))
}

/// The request span of each op kind, in [`OP_KINDS`] order.
const KIND_SPANS: [&str; 10] = [
    "rel.db.execute.get_node",
    "rel.db.execute.count_link",
    "rel.db.execute.multiget_link",
    "rel.db.execute.get_link_list",
    "core.store.add_node",
    "core.store.update_node",
    "core.store.delete_node",
    "core.store.add_link",
    "core.store.delete_link",
    "core.store.update_link",
];

/// The dataset and read stream shared by `lb_read` and `lb_remote`.
struct ReadInputs {
    data: GraphData,
    block: Vec<ReadReq>,
}

impl ReadInputs {
    fn new(cfg: &Cfg, ops: usize) -> Result<ReadInputs, String> {
        let data = inputs::linkbench_graph();
        inputs::guard(
            "the LinkBench dataset",
            inputs::hash_graph(&data),
            inputs::PINNED_LB_GRAPH,
        )?;
        let block = inputs::read_ops(cfg.seed, ops.clamp(inputs::GUARD_OPS, READ_BLOCK), &data);
        if cfg.default_inputs() {
            inputs::guard(
                "the LinkBench read stream",
                inputs::hash_ops(&block),
                inputs::PINNED_LB_READ_OPS,
            )?;
        }
        Ok(ReadInputs { data, block })
    }

    fn req(&self, i: usize) -> &ReadReq {
        &self.block[i % self.block.len()]
    }
}

// ---------------------------------------------------------------------------
// lb_read
// ---------------------------------------------------------------------------

pub struct LbRead {
    inputs: ReadInputs,
    ops: usize,
}

impl LbRead {
    const FULL_OPS: usize = 9_000_000;
    const WARMUP_OPS: usize = 20_000;
    /// Calls per micro-measurement of a single engine entry point.
    const MICRO_CALLS: usize = 1_000_000;
    /// Fresh statement texts parsed; fewer than the statement cache
    /// holds, so no eviction is mixed into the parse time.
    const FRESH_TEXTS: usize = 2_000;

    pub fn new(cfg: &Cfg) -> Result<LbRead, String> {
        let ops = cfg.scaled(Self::FULL_OPS);
        Ok(LbRead {
            inputs: ReadInputs::new(cfg, ops)?,
            ops,
        })
    }
}

impl Workload for LbRead {
    type Store = SqlGraph;
    const NAME: &'static str = "lb_read";

    fn facts(&self) -> Vec<(String, String)> {
        vec![
            ("ops".into(), self.ops.to_string()),
            ("distinct_ops".into(), self.inputs.block.len().to_string()),
            ("warmup_ops".into(), Self::WARMUP_OPS.to_string()),
            ("store".into(), "in memory, no WAL".into()),
            ("pinned_cpu".into(), "unpinned: by design".into()),
        ]
    }

    fn ops(&self) -> usize {
        self.ops
    }

    fn setup(&self, _traced: bool) -> Result<SqlGraph, String> {
        let graph = in_memory_store(&self.inputs.data)?;
        for i in 0..Self::WARMUP_OPS {
            embedded_read(graph.database(), &self.inputs.req(i).op)?;
        }
        Ok(graph)
    }

    fn window<S: Spans>(&self, graph: &mut SqlGraph, spans: &mut S) -> Window {
        let db = graph.database();
        let names = kind_names(spans);
        timed(
            self.ops,
            1,
            |i| {
                let op = &self.inputs.req(i).op;
                spans.span(names[op_kind(op)], || embedded_read(db, op))
            },
            |i, out| out.is_ok_and(|rel| self.inputs.req(i).answered_by(&rel)),
        )
    }

    fn verify(&self, graph: &SqlGraph, _window: &Window) -> Vec<Check> {
        let db = graph.database();
        let (cached, active) = (db.stmt_cache_len(), db.txns().active_snapshots());
        vec![
            check(
                "four_statement_shapes",
                cached == 4,
                format!("stmt_cache_len = {cached}"),
            ),
            check(
                "no_snapshot_left_registered",
                active == 0,
                format!("active_snapshots = {active}"),
            ),
        ]
    }

    fn layers(
        &self,
        graph: SqlGraph,
        tracer: &Tracer,
        _window: &Window,
    ) -> Result<(Vec<Metric>, Vec<Check>), String> {
        let db = graph.database();
        let mut out: Vec<Metric> = OP_KINDS[..4]
            .iter()
            .zip(&KIND_SPANS[..4])
            .map(|(kind, span)| {
                metric(
                    format!("rel.db.execute.{kind}_us"),
                    tracer.agg(span).mean_us(),
                    "us",
                )
            })
            .collect();

        let lists = (0..self.ops)
            .map(|i| self.inputs.req(i))
            .filter(|r| matches!(r.op, Op::GetLinkList { .. }));
        let (rows, calls) = lists.fold((0u64, 0u64), |(rows, calls), r| {
            (rows + u64::from(r.expect), calls + 1)
        });
        out.push(metric(
            "rel.db.rows_per_get_link_list",
            rows as f64 / calls.max(1) as f64,
            "rows",
        ));
        out.push(metric(
            "rel.db.stmt_cache_len",
            db.stmt_cache_len() as f64,
            "count",
        ));

        // Single entry points, each in a loop of its own.
        let per_call_ns =
            |calls: usize, start: Instant| start.elapsed().as_nanos() as f64 / calls as f64;
        let start = Instant::now();
        for _ in 0..Self::MICRO_CALLS {
            let snap = db.txns().read_snapshot();
            db.txns().release(std::hint::black_box(snap));
        }
        out.push(metric(
            "rel.txn.snapshot_pair_ns",
            per_call_ns(Self::MICRO_CALLS, start),
            "ns",
        ));

        let start = Instant::now();
        for _ in 0..Self::MICRO_CALLS {
            db.prepare(std::hint::black_box(inputs::GET_LINK_LIST_SQL))
                .map_err(|e| e.to_string())?;
        }
        out.push(metric(
            "rel.db.stmt_cache_hit_ns",
            per_call_ns(Self::MICRO_CALLS, start),
            "ns",
        ));

        let fresh: Vec<String> = (1..=Self::FRESH_TEXTS)
            .map(|i| format!("{} AND eid <> -{i}", inputs::GET_LINK_LIST_SQL))
            .collect();
        let start = Instant::now();
        for sql in &fresh {
            db.prepare(sql).map_err(|e| e.to_string())?;
        }
        out.push(metric(
            "rel.sql.parse_us",
            per_call_ns(Self::FRESH_TEXTS, start) / 1e3,
            "us",
        ));
        out.push(metric(
            "rel.txn.active_snapshots",
            db.txns().active_snapshots() as f64,
            "count",
        ));
        Ok((out, Vec::new()))
    }
}

// ---------------------------------------------------------------------------
// lb_mixed
// ---------------------------------------------------------------------------

pub struct LbMixed {
    data: GraphData,
    /// Warm-up ops, then the window's.
    stream: Vec<Op>,
    ops: usize,
    dir: PathBuf,
    /// The final-state digest to expect, when this run's shape has one.
    pinned_digest: Option<Digest>,
}

/// |VA|, |EA| and Σ `version`: the state the window's writes leave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub vertices: i64,
    pub edges: i64,
    pub versions: i64,
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "|VA|={} |EA|={} sum(version)={}",
            self.vertices, self.edges, self.versions
        )
    }
}

fn digest(db: &Database) -> Result<Digest, String> {
    let int = |sql: &str| -> Result<i64, String> {
        let rel = db.execute(sql).map_err(|e| format!("{sql}: {e}"))?;
        rel.scalar()
            .and_then(Value::as_int)
            .ok_or_else(|| format!("{sql}: no integer"))
    };
    Ok(Digest {
        vertices: int("SELECT COUNT(*) FROM va WHERE vid >= 0")?,
        edges: int("SELECT COUNT(*) FROM ea")?,
        versions: int(
            "SELECT SUM(CAST(JSON_VAL(attr, 'version') AS INTEGER)) FROM va WHERE vid >= 0",
        )?,
    })
}

/// A durable store in a directory of its own, removed on drop.
pub struct Durable {
    graph: Option<SqlGraph>,
    dir: PathBuf,
    io: Option<Arc<IoCounts>>,
    /// Filled in by the window.
    tally: WriteTally,
}

#[derive(Debug, Clone, Copy, Default)]
struct WriteTally {
    writes: u64,
    commits: u64,
    noops: u64,
    user_bytes: u64,
    io: IoSnapshot,
}

impl Durable {
    fn graph(&self) -> &SqlGraph {
        self.graph.as_ref().expect("store is open")
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join("graph.wal")
    }
}

impl Drop for Durable {
    fn drop(&mut self) {
        drop(self.graph.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl LbMixed {
    const FULL_OPS: usize = 600_000;
    const WARMUP_OPS: usize = 5_000;
    /// Final state after the default seed's default window.
    const PINNED: (u32, Digest) = (
        crate::DEFAULT_SECONDS,
        Digest {
            vertices: 54_852,
            edges: 167_797,
            versions: 76_397,
        },
    );

    pub fn new(cfg: &Cfg) -> Result<LbMixed, String> {
        let ops = cfg.scaled(Self::FULL_OPS);
        let data = inputs::linkbench_graph();
        inputs::guard(
            "the LinkBench dataset",
            inputs::hash_graph(&data),
            inputs::PINNED_LB_GRAPH,
        )?;
        let stream = inputs::mixed_ops(cfg.seed, (Self::WARMUP_OPS + ops).max(inputs::GUARD_OPS));
        if cfg.default_inputs() {
            inputs::guard(
                "the LinkBench mixed stream",
                inputs::hash_ops(&stream),
                inputs::PINNED_LB_MIXED_OPS,
            )?;
        }
        let default_shape = cfg.default_inputs() && !cfg.smoke && cfg.seconds == Self::PINNED.0;
        Ok(LbMixed {
            data,
            stream,
            ops,
            dir: cfg.out_dir.join("tmp"),
            pinned_digest: default_shape.then_some(Self::PINNED.1),
        })
    }

    /// One op of the mix: reads as in `lb_read`, writes as the script
    /// inside `transaction()` … `commit()`. `Ok(false)` is a no-op write.
    fn apply<S: Spans>(
        graph: &SqlGraph,
        op: &Op,
        spans: &mut S,
        names: &MixedNames,
        tally: &mut WriteTally,
    ) -> Result<bool, String> {
        let kind = names.kinds[op_kind(op)];
        if !op.is_write() {
            return spans
                .span(kind, || embedded_read(graph.database(), op))
                .map(|_| true);
        }
        tally.writes += 1;
        spans.enter(kind);
        let mut tx = spans.span(names.begin, || graph.transaction());
        let scripted = spans.span(names.stmts, || write_script(&mut tx, op));
        let out = match scripted {
            Ok(Some(bytes)) => spans
                .span(names.commit, || tx.commit())
                .map(|()| {
                    tally.commits += 1;
                    tally.user_bytes += bytes as u64;
                    true
                })
                .map_err(|e| e.to_string()),
            Ok(None) => {
                spans.span(names.rollback, || tx.rollback());
                tally.noops += 1;
                Ok(false)
            }
            Err(e) => {
                spans.span(names.rollback, || tx.rollback());
                Err(e)
            }
        };
        spans.exit();
        out
    }
}

struct MixedNames {
    kinds: [Name; 10],
    begin: Name,
    stmts: Name,
    commit: Name,
    rollback: Name,
}

impl MixedNames {
    fn new<S: Spans>(spans: &mut S) -> MixedNames {
        MixedNames {
            kinds: kind_names(spans),
            begin: spans.name("core.store.txn_begin"),
            stmts: spans.name("core.store.txn_stmts"),
            commit: spans.name("core.store.txn_commit"),
            rollback: spans.name("core.store.txn_rollback"),
        }
    }
}

impl Workload for LbMixed {
    type Store = Durable;
    const NAME: &'static str = "lb_mixed";

    fn facts(&self) -> Vec<(String, String)> {
        vec![
            ("ops".into(), self.ops.to_string()),
            ("warmup_ops".into(), Self::WARMUP_OPS.to_string()),
            (
                "flush_policy".into(),
                "WAL on StdFs, set_sync_on_commit(false): write per commit, no fsync".into(),
            ),
            ("pinned_cpu".into(), "unpinned: by design".into()),
        ]
    }

    fn ops(&self) -> usize {
        self.ops
    }

    fn setup(&self, traced: bool) -> Result<Durable, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = self.dir.join(format!(
            "lb_mixed-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut store = Durable {
            graph: None,
            dir,
            io: None,
            tally: WriteTally::default(),
        };
        let graph = if traced {
            let fs = CountingFs::new(StdFs);
            store.io = Some(fs.counts());
            SqlGraph::open_with_vfs(store.wal_path(), SCHEMA, Arc::new(fs))
        } else {
            SqlGraph::open(store.wal_path(), SCHEMA)
        }
        .map_err(|e| format!("open: {e}"))?;
        graph.set_sync_on_commit(false);
        inputs::bulk_load(&graph, &self.data)?;
        graph.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
        let names = MixedNames::new(&mut crate::trace::Off);
        let mut tally = WriteTally::default();
        for op in &self.stream[..Self::WARMUP_OPS] {
            Self::apply(&graph, op, &mut crate::trace::Off, &names, &mut tally)?;
        }
        store.graph = Some(graph);
        Ok(store)
    }

    fn window<S: Spans>(&self, store: &mut Durable, spans: &mut S) -> Window {
        let names = MixedNames::new(spans);
        let ops = &self.stream[Self::WARMUP_OPS..Self::WARMUP_OPS + self.ops];
        let mut tally = WriteTally::default();
        let io_before = store.io.as_ref().map(|io| io.snapshot());
        let graph = store.graph();
        let window = timed(
            ops.len(),
            1,
            |i| Self::apply(graph, &ops[i], spans, &names, &mut tally),
            |_, out| out.is_ok(),
        );
        if let (Some(io), Some(before)) = (&store.io, io_before) {
            tally.io = io.snapshot().since(&before);
        }
        store.tally = tally;
        window
    }

    fn verify(&self, store: &Durable, _window: &Window) -> Vec<Check> {
        let got = digest(store.graph().database());
        let detail = match (&got, self.pinned_digest) {
            (Ok(d), Some(p)) => format!("{d} (pinned {p})"),
            (Ok(d), None) => format!("{d} (not the pinned shape: seed, seconds or --smoke differ)"),
            (Err(e), _) => e.clone(),
        };
        let ok = match (got, self.pinned_digest) {
            (Ok(d), Some(p)) => d == p,
            (Ok(_), None) => true,
            (Err(_), _) => false,
        };
        vec![check("final_state_digest", ok, detail)]
    }

    fn layers(
        &self,
        mut store: Durable,
        tracer: &Tracer,
        window: &Window,
    ) -> Result<(Vec<Metric>, Vec<Check>), String> {
        let t = store.tally;
        let mut out: Vec<Metric> = OP_KINDS[4..]
            .iter()
            .zip(&KIND_SPANS[4..])
            .map(|(kind, span)| {
                metric(
                    format!("core.store.{kind}_us"),
                    tracer.agg(span).mean_us(),
                    "us",
                )
            })
            .collect();
        for part in ["txn_begin", "txn_stmts", "txn_commit"] {
            out.push(metric(
                format!("core.store.{part}_us"),
                tracer.agg(&format!("core.store.{part}")).mean_us(),
                "us",
            ));
        }
        let per_commit = |v: u64| v as f64 / t.commits.max(1) as f64;
        out.extend([
            metric(
                "core.store.noop_frac",
                t.noops as f64 / t.writes.max(1) as f64,
                "ratio",
            ),
            metric(
                "core.store.rate_decay",
                window.decile_rate(9) / window.decile_rate(0),
                "ratio",
            ),
            metric(
                "rel.io.write_calls_per_commit",
                per_commit(t.io.write_calls),
                "count",
            ),
            metric("rel.io.bytes_per_commit", per_commit(t.io.bytes), "B"),
            metric(
                "rel.io.write_us_per_commit",
                per_commit(t.io.write_ns) / 1e3,
                "us",
            ),
            metric("rel.io.sync_calls", t.io.sync_calls as f64, "count"),
            metric(
                "rel.wal.bytes_per_user_byte",
                t.io.bytes as f64 / t.user_bytes.max(1) as f64,
                "ratio",
            ),
        ]);

        // Recovery: reopen from the set-up checkpoint plus the WAL the
        // window wrote, and find the same state.
        let before = digest(store.graph().database())?;
        drop(store.graph.take());
        let start = Instant::now();
        let reopened =
            SqlGraph::open(store.wal_path(), SCHEMA).map_err(|e| format!("reopen: {e}"))?;
        let reopen_ms = start.elapsed().as_secs_f64() * 1e3;
        inputs::force_serial(&reopened);
        let after = digest(reopened.database())?;
        let replayed = reopened.recovery_report().map_or(0, |r| r.commits_replayed);
        let checks = vec![check(
            "digest_survives_reopen",
            before == after,
            format!("{after} after replaying {replayed} commits"),
        )];

        let start = Instant::now();
        let reclaimed = reopened.database().vacuum();
        let vacuum_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let report = reopened
            .checkpoint()
            .map_err(|e| format!("checkpoint: {e}"))?;
        let checkpoint_ms = start.elapsed().as_secs_f64() * 1e3;
        out.extend([
            metric("rel.txn.vacuum_ms", vacuum_ms, "ms"),
            metric("rel.txn.vacuum_reclaimed", reclaimed as f64, "count"),
            metric("rel.checkpoint.write_ms", checkpoint_ms, "ms"),
            metric("rel.checkpoint.bytes", report.bytes as f64, "B"),
            metric("rel.checkpoint.reopen_ms", reopen_ms, "ms"),
            metric(
                "rel.db.estimated_bytes_mb",
                reopened.database().estimated_bytes() as f64 / (1 << 20) as f64,
                "MiB",
            ),
        ]);
        store.graph = Some(reopened);
        Ok((out, checks))
    }
}

// ---------------------------------------------------------------------------
// lb_remote
// ---------------------------------------------------------------------------

pub struct LbRemote {
    inputs: ReadInputs,
    ops: usize,
    pinned_cpu: String,
}

/// A server on loopback with one connected client.
pub struct Remote {
    graph: Arc<SqlGraph>,
    server: Option<Server>,
    client: Option<Client>,
}

impl Remote {
    fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until drop")
    }
}

impl Drop for Remote {
    fn drop(&mut self) {
        if let Some(client) = self.client.take() {
            let _ = client.close();
        }
        if let Some(server) = self.server.take() {
            server.shutdown(); // joins every server thread
        }
    }
}

impl LbRemote {
    const FULL_OPS: usize = 280_000;
    const WARMUP_OPS: usize = 2_000;
    /// One op in this many is compared with the embedded result.
    const COMPARE_EVERY: usize = 1_024;
    const PINGS: usize = 2_000;
    /// Ops re-run embedded, and encoded/decoded, after the window.
    const BODY_OPS: usize = 20_000;

    /// Pins the whole process to one CPU: the request path hops client →
    /// dispatcher → worker → client, and where the scheduler puts those
    /// threads otherwise decides the result. Server threads inherit it.
    pub fn new(cfg: &Cfg) -> Result<LbRemote, String> {
        let pinned_cpu = host::pin_to_one_cpu();
        let ops = cfg.scaled(Self::FULL_OPS);
        Ok(LbRemote {
            inputs: ReadInputs::new(cfg, ops)?,
            ops,
            pinned_cpu,
        })
    }
}

fn remote_read(client: &mut Client, op: &Op) -> Result<Relation, String> {
    read_call(op, |sql, params| client.query_sql_with_params(sql, params))
        .map_err(|e| e.to_string())
}

fn same_relation(a: &Relation, b: &Relation) -> bool {
    a.columns == b.columns && a.rows == b.rows
}

impl Workload for LbRemote {
    type Store = Remote;
    const NAME: &'static str = "lb_remote";

    fn facts(&self) -> Vec<(String, String)> {
        vec![
            ("ops".into(), self.ops.to_string()),
            ("distinct_ops".into(), self.inputs.block.len().to_string()),
            ("warmup_ops".into(), Self::WARMUP_OPS.to_string()),
            ("store".into(), "in memory, no WAL".into()),
            ("pinned_cpu".into(), self.pinned_cpu.clone()),
            ("transport".into(), "TCP loopback, 1 connection".into()),
        ]
    }

    fn ops(&self) -> usize {
        self.ops
    }

    fn setup(&self, _traced: bool) -> Result<Remote, String> {
        let graph = Arc::new(in_memory_store(&self.inputs.data)?);
        let server = Server::start_local(Arc::clone(&graph)).map_err(|e| format!("server: {e}"))?;
        let mut remote = Remote {
            graph,
            client: None,
            server: Some(server),
        };
        let mut client =
            Client::connect(remote.server().local_addr()).map_err(|e| format!("connect: {e}"))?;
        for i in 0..Self::WARMUP_OPS {
            remote_read(&mut client, &self.inputs.req(i).op)?;
        }
        remote.client = Some(client);
        Ok(remote)
    }

    fn window<S: Spans>(&self, remote: &mut Remote, spans: &mut S) -> Window {
        let rtt = spans.name("server.query_rtt");
        let db = remote.graph.database();
        let client = remote.client.as_mut().expect("connected in set-up");
        timed(
            self.ops,
            1,
            |i| spans.span(rtt, || remote_read(client, &self.inputs.req(i).op)),
            |i, out| {
                let req = self.inputs.req(i);
                out.is_ok_and(|rel| {
                    req.answered_by(&rel)
                        && (i % Self::COMPARE_EVERY != 0
                            || embedded_read(db, &req.op).is_ok_and(|e| same_relation(&e, &rel)))
                })
            },
        )
    }

    fn verify(&self, remote: &Remote, _window: &Window) -> Vec<Check> {
        let (errors, panics) = (
            remote.server().protocol_errors(),
            remote.server().worker_panics(),
        );
        vec![check(
            "server_saw_no_protocol_error_or_panic",
            errors == 0 && panics == 0,
            format!("protocol_errors = {errors}, worker_panics = {panics}"),
        )]
    }

    fn layers(
        &self,
        mut remote: Remote,
        tracer: &Tracer,
        _window: &Window,
    ) -> Result<(Vec<Metric>, Vec<Check>), String> {
        let client = remote.client.as_mut().expect("connected in set-up");
        let mut pings_us = Vec::with_capacity(Self::PINGS);
        for _ in 0..Self::PINGS {
            let t = Instant::now();
            client.ping().map_err(|e| format!("ping: {e}"))?;
            pings_us.push(t.elapsed().as_secs_f64() * 1e6);
        }

        // The same ops embedded, and their real bodies through the codec.
        let db = remote.graph.database();
        let n = Self::BODY_OPS.min(self.ops);
        let (mut embedded_ns, mut resp_bytes) = (0u128, 0usize);
        let mut codec_ns = [0u128; 4];
        for i in 0..n {
            let op = &self.inputs.req(i).op;
            let t = Instant::now();
            let rel = embedded_read(db, op)?;
            embedded_ns += t.elapsed().as_nanos();

            let request = read_call(op, |sql, params| Request::QuerySql {
                sql: sql.to_string(),
                params: params.to_vec(),
            });
            let response = Response::ResultSet { stmts: 1, rel };
            let t = Instant::now();
            let req_body = request.encode();
            codec_ns[0] += t.elapsed().as_nanos();
            let t = Instant::now();
            let decoded = Request::decode(std::hint::black_box(&req_body));
            codec_ns[1] += t.elapsed().as_nanos();
            let t = Instant::now();
            let resp_body = response.encode();
            codec_ns[2] += t.elapsed().as_nanos();
            let t = Instant::now();
            let round_trip = Response::decode(std::hint::black_box(&resp_body));
            codec_ns[3] += t.elapsed().as_nanos();
            if decoded.is_err() || round_trip.is_err() {
                return Err(format!("codec rejected its own body for op {i}"));
            }
            resp_bytes += resp_body.len();
        }
        let mean = |total: u128| total as f64 / n as f64;

        let server = remote.server();
        let query_rtt_us = tracer.agg("server.query_rtt").mean_us();
        let mut out = vec![
            metric("server.ping_rtt_us", stats::median(&pings_us), "us"),
            metric("server.query_rtt_us", query_rtt_us, "us"),
            metric(
                "server.overhead_us",
                query_rtt_us - mean(embedded_ns) / 1e3,
                "us",
            ),
        ];
        for (part, ns) in ["req_encode", "req_decode", "resp_encode", "resp_decode"]
            .iter()
            .zip(codec_ns)
        {
            out.push(metric(format!("server.protocol.{part}_ns"), mean(ns), "ns"));
        }
        out.extend([
            metric(
                "server.resp_bytes_per_op",
                resp_bytes as f64 / n as f64,
                "B",
            ),
            metric(
                "server.frames_processed",
                server.frames_processed() as f64,
                "count",
            ),
            metric(
                "server.protocol_errors",
                server.protocol_errors() as f64,
                "count",
            ),
            metric(
                "server.worker_panics",
                server.worker_panics() as f64,
                "count",
            ),
            metric("server.worker_count", server.worker_count() as f64, "count"),
        ]);
        Ok((out, Vec::new()))
    }
}
