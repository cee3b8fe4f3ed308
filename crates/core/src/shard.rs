//! Hash-partitioned graph shards with scatter-gather execution.
//!
//! [`ShardedGraph`] splits the six-table store across N inner [`SqlGraph`]
//! instances by hashing vertex ids ([`shard_of`]). Placement follows the
//! vertex: a vertex's attribute row (`VA`) and **both** of its adjacency
//! directions (`OPA`/`OSA` and `IPA`/`ISA`) live on its owner shard, while
//! an edge's `EA` row lives on its *source* vertex's shard. Any hop that
//! starts from a vertex therefore touches exactly one shard — out-hops read
//! the local `EA` triple rows, in-hops read the local `IPA`/`ISA` hash
//! tables — and single-VID point lookups route to exactly one shard.
//!
//! Reads fan out through the shared [`sqlgraph_rel::parallel`] worker pool
//! (one pool for the whole process, not N×DOP threads; per-shard SQL runs
//! serially inside a pool worker). Per-shard results are merged
//! deterministically — sorted by `(input position, eid)` for hops, by id
//! for global scans, and terminal `count()` reduces per-shard `COUNT(*)`
//! partials — so the same query returns byte-identical rows at every shard
//! count. Pipes outside the scatter subset fall back to the step-at-a-time
//! interpreter over this type's [`Blueprints`] implementation, mirroring
//! the unsharded store's stored-procedure fallback (§4.4 of the paper).
//!
//! Writes that touch one shard commit locally. A cross-shard edge insert or
//! the §4.5.2 negative-ID vertex delete spans shards: every participating
//! shard's transaction is committed by [`sqlgraph_rel::commit_many`] under
//! **one** timestamp drawn from the [`TsOracle`] all shards were built
//! over, with WAL appends in ascending shard order. A crash between the
//! appends is repaired at [`ShardedGraph::open`] by reconciliation: the
//! `EA` row is the commit record for an edge (shards missing their
//! adjacency half are rolled forward; adjacency entries whose `EA` row
//! never became durable are rolled back), and a vertex tombstone wins over
//! any surviving incident edge.

use crate::layout::GraphLayout;
use crate::schema::{deleted_id, SchemaConfig, MV_BASE};
use crate::store::{
    elems_to_relation, layout_for, props_to_json, to_graph_error, GraphData, SqlGraph,
};
use crate::translate::{cmp_sql, label_in_list, sql_json, sql_str};
use crate::CoreError;
use parking_lot::{Mutex, RwLock};
use sqlgraph_gremlin::ast::{GremlinStatement, Pipe};
use sqlgraph_gremlin::blueprints::{Blueprints, Direction, GraphError, GraphResult};
use sqlgraph_gremlin::{interp, parse};
use sqlgraph_json::Json;
use sqlgraph_rel::{commit_many, Relation, TsOracle, Txn, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Retry budget for sharded mutations that lose a first-updater-wins
/// conflict (same policy as the unsharded store).
const TXN_RETRIES: usize = 16;

/// How many ids go into one `IN (...)` list when a frontier is shipped to a
/// shard. Bounds generated-SQL size; larger frontiers issue several probes.
const FRONTIER_CHUNK: usize = 256;

/// Hash-partition a vertex id onto one of `n` shards.
///
/// Seed-free splitmix64 finalizer: the assignment is a pure function of
/// `(vid, n)`, identical across processes and restarts, so a shard
/// directory written by one run can be reopened by any other.
pub fn shard_of(vid: i64, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    let mut x = vid as u64;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % n as u64) as usize
}

/// A property graph hash-partitioned across N inner [`SqlGraph`] stores.
///
/// Presents the same query/CRUD surface as [`SqlGraph`]: Gremlin via
/// [`ShardedGraph::query`], the chatty [`Blueprints`] API, bulk load,
/// checkpoint, and vacuum. See the module docs for placement and execution.
pub struct ShardedGraph {
    shards: Vec<SqlGraph>,
    config: SchemaConfig,
    /// Cross-shard vertex deletion must not interleave with other sharded
    /// mutations (same dangling-edge hazard as the unsharded store, now
    /// across shards). Deletion takes this exclusively; every other
    /// sharded mutation takes it shared.
    mutation_lock: RwLock<()>,
    /// Shard-global id allocators (each shard's own counters only track
    /// its local maxima).
    next_vid: AtomicI64,
    next_eid: AtomicI64,
    fallbacks: AtomicU64,
}

impl std::fmt::Debug for ShardedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedGraph")
            .field("shards", &self.shards.len())
            .field("config", &self.config)
            .finish()
    }
}

impl ShardedGraph {
    /// A fresh in-memory sharded store with the default layout.
    pub fn new_in_memory(n: usize) -> ShardedGraph {
        ShardedGraph::with_config(n, SchemaConfig::default()).expect("default schema is valid")
    }

    /// A fresh in-memory sharded store with explicit bucket counts. All
    /// shards draw commit timestamps from one shared [`TsOracle`].
    pub fn with_config(n: usize, config: SchemaConfig) -> Result<ShardedGraph, CoreError> {
        let oracle = Arc::new(TsOracle::new());
        let shards = (0..n.max(1))
            .map(|_| SqlGraph::with_config_oracle(config, oracle.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedGraph::assemble(shards, config))
    }

    /// Open (or create) a WAL-backed sharded store. Shard `i` keeps its
    /// WAL and checkpoints under `dir/shard-i/`; each shard recovers
    /// independently by replay, then cross-shard reconciliation repairs
    /// any commit that a crash left durable on only some shards.
    pub fn open(
        dir: impl AsRef<Path>,
        n: usize,
        config: SchemaConfig,
    ) -> Result<ShardedGraph, CoreError> {
        let dir = dir.as_ref();
        for i in 0..n.max(1) {
            std::fs::create_dir_all(dir.join(format!("shard-{i}")))
                .map_err(|e| CoreError::Rel(sqlgraph_rel::Error::Wal(e.to_string())))?;
        }
        ShardedGraph::open_with_vfs(dir, n, config, Arc::new(sqlgraph_rel::StdFs))
    }

    /// [`ShardedGraph::open`] over an explicit file-system layer (all
    /// shards share `vfs`), for deterministic crash testing with
    /// [`sqlgraph_rel::SimFs`].
    pub fn open_with_vfs(
        dir: impl AsRef<Path>,
        n: usize,
        config: SchemaConfig,
        vfs: Arc<dyn sqlgraph_rel::Vfs>,
    ) -> Result<ShardedGraph, CoreError> {
        let dir = dir.as_ref();
        let oracle = Arc::new(TsOracle::new());
        let shards = (0..n.max(1))
            .map(|i| {
                SqlGraph::open_with_vfs_oracle(
                    dir.join(format!("shard-{i}")).join("wal"),
                    config,
                    vfs.clone(),
                    oracle.clone(),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let graph = ShardedGraph::assemble(shards, config);
        if graph.shards.len() > 1 {
            graph.reconcile()?;
        }
        Ok(graph)
    }

    fn assemble(shards: Vec<SqlGraph>, config: SchemaConfig) -> ShardedGraph {
        let next_vid = shards
            .iter()
            .map(SqlGraph::next_vid_hint)
            .max()
            .unwrap_or(1);
        let next_eid = shards
            .iter()
            .map(SqlGraph::next_eid_hint)
            .max()
            .unwrap_or(1);
        ShardedGraph {
            shards,
            config,
            mutation_lock: RwLock::new(()),
            next_vid: AtomicI64::new(next_vid),
            next_eid: AtomicI64::new(next_eid),
            fallbacks: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The inner stores (inspection, benchmarks).
    pub fn shards(&self) -> &[SqlGraph] {
        &self.shards
    }

    /// The shard that owns vertex `vid`.
    pub fn shard_for(&self, vid: i64) -> &SqlGraph {
        &self.shards[shard_of(vid, self.shards.len())]
    }

    /// Number of queries that used the interpreter fallback.
    pub fn fallback_count(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Fsync every shard's WAL on commit.
    pub fn set_sync_on_commit(&self, sync: bool) {
        for s in &self.shards {
            s.set_sync_on_commit(sync);
        }
    }

    /// Set intra-query parallelism on every shard (0 = auto).
    pub fn set_parallelism(&self, n: usize) {
        for s in &self.shards {
            s.database().set_parallelism(n);
        }
    }

    /// Checkpoint every shard (each rotates its own WAL).
    pub fn checkpoint(&self) -> Result<Vec<sqlgraph_rel::CheckpointReport>, CoreError> {
        self.shards.iter().map(SqlGraph::checkpoint).collect()
    }

    /// Physically remove tombstoned rows on every shard (§4.5.2 offline
    /// cleanup); returns the total rows reclaimed.
    pub fn vacuum(&self) -> Result<usize, CoreError> {
        let mut total = 0;
        for s in &self.shards {
            total += s.vacuum()?;
        }
        Ok(total)
    }

    /// Bulk-load a complete graph, partitioned: the §3.2 coloring layout is
    /// computed once from the full data (so every shard colors labels
    /// identically), then shards load their slices in parallel.
    pub fn bulk_load(&self, data: &GraphData) -> Result<(), CoreError> {
        let n = self.shards.len();
        let layout = layout_for(&self.config, [data]);
        self.fan_out(|i| {
            let part = if n == 1 { None } else { Some((n, i)) };
            self.shards[i].bulk_load_with_layout(data, &layout, part)
        })?;
        let max_vid = data.vertices.iter().map(|(v, _)| *v).max().unwrap_or(0);
        let max_eid = data.edges.iter().map(|(e, ..)| *e).max().unwrap_or(0);
        self.next_vid.fetch_max(max_vid + 1, Ordering::SeqCst);
        self.next_eid.fetch_max(max_eid + 1, Ordering::SeqCst);
        Ok(())
    }

    /// Create the functional vertex-attribute index on every shard.
    pub fn create_vertex_property_index(&self, key: &str) -> Result<(), CoreError> {
        for s in &self.shards {
            s.create_vertex_property_index(key)?;
        }
        Ok(())
    }

    /// Create the functional edge-attribute index on every shard.
    pub fn create_edge_property_index(&self, key: &str) -> Result<(), CoreError> {
        for s in &self.shards {
            s.create_edge_property_index(key)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Scatter-gather fan-out
    // ------------------------------------------------------------------

    /// Run `f(shard_index)` for every shard through the shared worker
    /// pool; the calling thread participates. Results come back in shard
    /// order; the first error wins.
    fn fan_out<R: Send>(
        &self,
        f: impl Fn(usize) -> Result<R, CoreError> + Sync,
    ) -> Result<Vec<R>, CoreError> {
        let n = self.shards.len();
        if n == 1 {
            return Ok(vec![f(0)?]);
        }
        let slots: Vec<Mutex<Option<Result<R, CoreError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        sqlgraph_rel::parallel::run_scoped(n, |_| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            *slots[i].lock() = Some(f(i));
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("every shard task ran"))
            .collect()
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Execute a Gremlin statement. Traversals in the scatter subset run
    /// scatter-gather across shards; others fall back to the interpreter
    /// over this store's Blueprints API; CRUD statements route to the
    /// sharded mutation paths.
    pub fn query(&self, gremlin: &str) -> Result<Relation, CoreError> {
        let stmt = parse(gremlin)?;
        match &stmt {
            GremlinStatement::Query(pipeline) => {
                if scatter_supported(&pipeline.pipes) {
                    self.exec_scatter(&pipeline.pipes)
                } else {
                    self.fallbacks.fetch_add(1, Ordering::Relaxed);
                    let elems = interp::eval(self, pipeline)?;
                    Ok(elems_to_relation(elems))
                }
            }
            GremlinStatement::AddVertex { props } => {
                let id = self.add_vertex_props(props)?;
                Ok(Relation::new(
                    vec!["val".into()],
                    vec![vec![Value::Int(id)]],
                ))
            }
            GremlinStatement::AddEdge {
                src,
                dst,
                label,
                props,
            } => {
                let id = self.add_edge_props(*src, *dst, label, props)?;
                Ok(Relation::new(
                    vec!["val".into()],
                    vec![vec![Value::Int(id)]],
                ))
            }
            GremlinStatement::RemoveVertex { id } => {
                self.remove_vertex_impl(*id)?;
                Ok(Relation::new(vec!["val".into()], vec![]))
            }
            GremlinStatement::RemoveEdge { id } => {
                self.remove_edge_impl(*id)?;
                Ok(Relation::new(vec!["val".into()], vec![]))
            }
            GremlinStatement::SetVertexProperty { id, key, value } => {
                self.set_vertex_property_impl(*id, key, value)?;
                Ok(Relation::new(vec!["val".into()], vec![]))
            }
            GremlinStatement::SetEdgeProperty { id, key, value } => {
                self.set_edge_property_impl(*id, key, value)?;
                Ok(Relation::new(vec!["val".into()], vec![]))
            }
        }
    }

    /// Evaluate a traversal with the step-at-a-time interpreter over the
    /// sharded Blueprints API (differential testing).
    pub fn query_interpreted(&self, gremlin: &str) -> Result<Relation, CoreError> {
        let stmt = parse(gremlin)?;
        let elems = interp::execute(self, &stmt)?;
        Ok(elems_to_relation(elems))
    }

    fn exec_scatter(&self, pipes: &[Pipe]) -> Result<Relation, CoreError> {
        // Terminal count() over a start or a single hop reduces per-shard
        // COUNT partials instead of materializing the frontier (the
        // mergeable-aggregate path).
        if pipes.len() == 2 && matches!(pipes[1], Pipe::Count) {
            if let Some(total) = self.count_start(&pipes[0])? {
                return Ok(count_relation(total));
            }
        }
        let mut frontier = self.exec_start(&pipes[0])?;
        let mut i = 1;
        while i < pipes.len() {
            // …and count() right after a vertex hop at the end of the
            // pipeline: each shard counts its slice (multi-value lists
            // included) and the driver sums.
            if i + 2 == pipes.len() && matches!(pipes[i + 1], Pipe::Count) {
                if let (Frontier::Vertices(vids), Some((out_dir, labels))) =
                    (&frontier, hop_shape(&pipes[i]))
                {
                    let mut total = 0i64;
                    if out_dir != Some(false) {
                        total += self.count_hop(vids, true, labels)?;
                    }
                    if out_dir != Some(true) {
                        total += self.count_hop(vids, false, labels)?;
                    }
                    return Ok(count_relation(total));
                }
            }
            frontier = self.exec_step(frontier, &pipes[i])?;
            i += 1;
        }
        Ok(frontier.into_relation())
    }

    fn exec_start(&self, pipe: &Pipe) -> Result<Frontier, CoreError> {
        match pipe {
            Pipe::Vertices { filter } => {
                let cond = match filter {
                    None => String::new(),
                    Some((key, value)) => format!(
                        " AND JSON_VAL(attr, {}) = {}",
                        sql_str(key),
                        sql_json(&value.value).map_err(|u| CoreError::Unsupported(u.reason))?
                    ),
                };
                let sql = format!("SELECT vid FROM va WHERE vid >= 0{cond}");
                let parts =
                    self.fan_out(|i| Ok(self.shards[i].database().execute(&sql)?.int_column()))?;
                let mut all: Vec<i64> = parts.into_iter().flatten().collect();
                all.sort_unstable();
                Ok(Frontier::Vertices(all))
            }
            Pipe::Edges => {
                let parts = self.fan_out(|i| {
                    Ok(self.shards[i]
                        .database()
                        .execute("SELECT eid FROM ea")?
                        .int_column())
                })?;
                let mut all: Vec<(i64, usize)> = parts
                    .into_iter()
                    .enumerate()
                    .flat_map(|(i, eids)| eids.into_iter().map(move |e| (e, i)))
                    .collect();
                all.sort_unstable();
                Ok(Frontier::Edges(all))
            }
            Pipe::VertexById(id) => {
                let rel = self.shard_for(id.value).database().execute_with_params(
                    "SELECT vid FROM va WHERE vid = ?",
                    &[Value::Int(id.value)],
                )?;
                Ok(Frontier::Vertices(rel.int_column()))
            }
            Pipe::EdgeById(id) => {
                let parts = self.fan_out(|i| {
                    let rel = self.shards[i].database().execute_with_params(
                        "SELECT eid FROM ea WHERE eid = ?",
                        &[Value::Int(id.value)],
                    )?;
                    Ok(rel.int_column())
                })?;
                let hits: Vec<(i64, usize)> = parts
                    .into_iter()
                    .enumerate()
                    .flat_map(|(i, eids)| eids.into_iter().map(move |e| (e, i)))
                    .collect();
                Ok(Frontier::Edges(hits))
            }
            _ => unreachable!("scatter_supported admits only start pipes first"),
        }
    }

    fn exec_step(&self, frontier: Frontier, pipe: &Pipe) -> Result<Frontier, CoreError> {
        match (pipe, frontier) {
            // ---- vertex hops ----
            (Pipe::Out(labels), Frontier::Vertices(vids)) => {
                let rows = self.vertex_hop(&vids, true, labels)?;
                Ok(Frontier::Vertices(rows.into_iter().map(|r| r.2).collect()))
            }
            (Pipe::In(labels), Frontier::Vertices(vids)) => {
                let rows = self.vertex_hop(&vids, false, labels)?;
                Ok(Frontier::Vertices(rows.into_iter().map(|r| r.2).collect()))
            }
            (Pipe::Both(labels), Frontier::Vertices(vids)) => {
                let out_rows = self.vertex_hop(&vids, true, labels)?;
                let in_rows = self.vertex_hop(&vids, false, labels)?;
                let merged = merge_by_pos(out_rows, in_rows, vids.len());
                Ok(Frontier::Vertices(
                    merged.into_iter().map(|r| r.2).collect(),
                ))
            }
            (Pipe::OutE(labels), Frontier::Vertices(vids)) => {
                let n = self.shards.len();
                let rows = self.vertex_hop(&vids, true, labels)?;
                // An out-edge's EA row lives on its source's shard.
                Ok(Frontier::Edges(
                    rows.into_iter()
                        .map(|(pos, eid, _)| (eid, shard_of(vids[pos], n)))
                        .collect(),
                ))
            }
            (Pipe::InE(labels), Frontier::Vertices(vids)) => {
                let n = self.shards.len();
                let rows = self.vertex_hop(&vids, false, labels)?;
                // An in-edge's EA row lives on its *source* (the hop
                // result) vertex's shard.
                Ok(Frontier::Edges(
                    rows.into_iter()
                        .map(|(_, eid, src)| (eid, shard_of(src, n)))
                        .collect(),
                ))
            }
            (Pipe::BothE(labels), Frontier::Vertices(vids)) => {
                let n = self.shards.len();
                let out_rows = self.vertex_hop(&vids, true, labels)?;
                let in_rows = self.vertex_hop(&vids, false, labels)?;
                let out_owner: Vec<(usize, i64, i64)> = out_rows
                    .into_iter()
                    .map(|(pos, eid, _)| (pos, eid, shard_of(vids[pos], n) as i64))
                    .collect();
                let in_owner: Vec<(usize, i64, i64)> = in_rows
                    .into_iter()
                    .map(|(pos, eid, src)| (pos, eid, shard_of(src, n) as i64))
                    .collect();
                let merged = merge_by_pos(out_owner, in_owner, vids.len());
                Ok(Frontier::Edges(
                    merged
                        .into_iter()
                        .map(|(_, eid, owner)| (eid, owner as usize))
                        .collect(),
                ))
            }

            // ---- edge → vertex ----
            (Pipe::OutV, Frontier::Edges(edges)) => {
                let ends = self.edge_endpoints(&edges)?;
                Ok(Frontier::Vertices(
                    apply_map(&edges, &ends, |&(src, _)| src).collect(),
                ))
            }
            (Pipe::InV, Frontier::Edges(edges)) => {
                let ends = self.edge_endpoints(&edges)?;
                Ok(Frontier::Vertices(
                    apply_map(&edges, &ends, |&(_, dst)| dst).collect(),
                ))
            }
            (Pipe::BothV, Frontier::Edges(edges)) => {
                let ends = self.edge_endpoints(&edges)?;
                let mut vids = Vec::with_capacity(edges.len() * 2);
                for (eid, _) in &edges {
                    if let Some((src, dst)) = ends.get(eid) {
                        vids.push(*src);
                        vids.push(*dst);
                    }
                }
                Ok(Frontier::Vertices(vids))
            }

            // ---- projections ----
            (Pipe::Id, Frontier::Vertices(vids)) => {
                Ok(Frontier::Values(vids.into_iter().map(Value::Int).collect()))
            }
            (Pipe::Id, Frontier::Edges(edges)) => Ok(Frontier::Values(
                edges.into_iter().map(|(e, _)| Value::Int(e)).collect(),
            )),
            (Pipe::Label, Frontier::Edges(edges)) => {
                let map = self.edge_scalar_map(&edges, "p.lbl", "")?;
                Ok(Frontier::Values(
                    edges
                        .iter()
                        .filter_map(|(eid, _)| map.get(eid).cloned())
                        .collect(),
                ))
            }
            (Pipe::Values(key), Frontier::Vertices(vids)) => {
                let expr = format!("JSON_VAL(v.attr, {})", sql_str(key));
                let map =
                    self.vertex_scalar_map(&vids, &expr, &format!(" AND {expr} IS NOT NULL"))?;
                Ok(Frontier::Values(
                    vids.iter().filter_map(|v| map.get(v).cloned()).collect(),
                ))
            }
            (Pipe::Values(key), Frontier::Edges(edges)) => {
                let expr = format!("JSON_VAL(p.attr, {})", sql_str(key));
                let map =
                    self.edge_scalar_map(&edges, &expr, &format!(" AND {expr} IS NOT NULL"))?;
                Ok(Frontier::Values(
                    edges
                        .iter()
                        .filter_map(|(eid, _)| map.get(eid).cloned())
                        .collect(),
                ))
            }

            // ---- filters ----
            (Pipe::Has { key, cmp, value }, frontier) => {
                let cond = match value {
                    None => format!("JSON_VAL({{attr}}, {}) IS NOT NULL", sql_str(key)),
                    Some(v) => format!(
                        "JSON_VAL({{attr}}, {}) {} {}",
                        sql_str(key),
                        cmp_sql(*cmp),
                        sql_json(&v.value).map_err(|u| CoreError::Unsupported(u.reason))?
                    ),
                };
                self.filter_frontier(frontier, &cond)
            }
            (Pipe::HasNot { key }, frontier) => {
                let cond = format!("JSON_VAL({{attr}}, {}) IS NULL", sql_str(key));
                self.filter_frontier(frontier, &cond)
            }
            (Pipe::Interval { key, lo, hi }, frontier) => {
                let k = sql_str(key);
                let lo = sql_json(&lo.value).map_err(|u| CoreError::Unsupported(u.reason))?;
                let hi = sql_json(&hi.value).map_err(|u| CoreError::Unsupported(u.reason))?;
                let cond =
                    format!("JSON_VAL({{attr}}, {k}) >= {lo} AND JSON_VAL({{attr}}, {k}) < {hi}");
                self.filter_frontier(frontier, &cond)
            }

            // ---- driver-side pipes ----
            (Pipe::Dedup, frontier) => Ok(frontier.dedup()),
            (Pipe::Range { lo, hi }, frontier) => {
                if *lo < 0 || *hi < *lo {
                    return Err(CoreError::Unsupported("invalid range bounds".into()));
                }
                Ok(frontier.slice(*lo as usize, (*hi - *lo + 1) as usize))
            }
            (Pipe::Count, frontier) => {
                Ok(Frontier::Values(vec![Value::Int(frontier.len() as i64)]))
            }

            (pipe, _) => unreachable!("scatter_supported admitted unsupported pipe {pipe:?}"),
        }
    }

    /// One traversal hop from `vids`, returning `(input position, eid,
    /// neighbor)` rows sorted by `(position, eid)` — the deterministic
    /// merge order. Out-hops probe the local `EA` triple rows; in-hops
    /// unnest the local `IPA` triads and resolve multi-value lists through
    /// `ISA` (both directions of a vertex's adjacency live on its shard).
    fn vertex_hop(
        &self,
        vids: &[i64],
        out: bool,
        labels: &[String],
    ) -> Result<Vec<(usize, i64, i64)>, CoreError> {
        let groups = self.group_vertices(vids);
        let parts = self.fan_out(|i| {
            let (distinct, pos_of) = &groups[i];
            let shard = &self.shards[i];
            let mut rows: Vec<(usize, i64, i64)> = Vec::new();
            for chunk in distinct.chunks(FRONTIER_CHUNK) {
                let found = if out {
                    self.out_probe(shard, chunk, labels)?
                } else {
                    self.in_probe(shard, chunk, labels)?
                };
                for (vid, eid, other) in found {
                    for &pos in &pos_of[&vid] {
                        rows.push((pos, eid, other));
                    }
                }
            }
            Ok(rows)
        })?;
        let mut rows: Vec<(usize, i64, i64)> = parts.into_iter().flatten().collect();
        rows.sort_unstable();
        Ok(rows)
    }

    /// Out-adjacency of `vids` on `shard` via its local EA rows:
    /// `(src, eid, dst)` tuples.
    fn out_probe(
        &self,
        shard: &SqlGraph,
        vids: &[i64],
        labels: &[String],
    ) -> Result<Vec<(i64, i64, i64)>, CoreError> {
        let sql = format!(
            "SELECT p.inv, p.eid, p.outv FROM ea p WHERE p.inv IN ({}){}",
            int_list(vids),
            label_in_list("p.lbl", labels),
        );
        let rel = shard.database().execute(&sql)?;
        Ok(rel
            .rows
            .iter()
            .filter_map(|r| Some((r[0].as_int()?, r[1].as_int()?, r[2].as_int()?)))
            .collect())
    }

    /// In-adjacency of `vids` on `shard` via its local IPA/ISA hash
    /// tables: `(dst, eid, src)` tuples.
    fn in_probe(
        &self,
        shard: &SqlGraph,
        vids: &[i64],
        labels: &[String],
    ) -> Result<Vec<(i64, i64, i64)>, CoreError> {
        let layout = shard.layout();
        let cols = in_buckets_for(&layout, labels);
        let triads: Vec<String> = cols
            .iter()
            .map(|c| format!("(p.lbl{c}, p.eid{c}, p.val{c})"))
            .collect();
        let sql = format!(
            "SELECT p.vid, t.eid, t.val FROM ipa p, TABLE(VALUES {}) AS t(lbl, eid, val) \
             WHERE p.vid IN ({}) AND t.val IS NOT NULL{}",
            triads.join(", "),
            int_list(vids),
            label_in_list("t.lbl", labels),
        );
        let rel = shard.database().execute(&sql)?;
        let mut rows: Vec<(i64, i64, i64)> = Vec::new();
        let mut lists: Vec<(i64, i64)> = Vec::new(); // (dst, valid)
        for r in &rel.rows {
            let dst = r[0].as_int().unwrap_or(-1);
            match (r[1].as_int(), r[2].as_int()) {
                (Some(eid), Some(src)) => rows.push((dst, eid, src)),
                (None, Some(valid)) if valid >= MV_BASE => lists.push((dst, valid)),
                _ => {}
            }
        }
        if !lists.is_empty() {
            let valids: Vec<i64> = lists.iter().map(|&(_, v)| v).collect();
            let mut members: BTreeMap<i64, Vec<(i64, i64)>> = BTreeMap::new();
            for chunk in valids.chunks(FRONTIER_CHUNK) {
                let rel = shard.database().execute(&format!(
                    "SELECT valid, eid, val FROM isa WHERE valid IN ({})",
                    int_list(chunk)
                ))?;
                for r in &rel.rows {
                    if let (Some(valid), Some(eid), Some(src)) =
                        (r[0].as_int(), r[1].as_int(), r[2].as_int())
                    {
                        members.entry(valid).or_default().push((eid, src));
                    }
                }
            }
            for (dst, valid) in lists {
                if let Some(entries) = members.get(&valid) {
                    for &(eid, src) in entries {
                        rows.push((dst, eid, src));
                    }
                }
            }
        }
        Ok(rows)
    }

    /// Per-shard `COUNT` partials for one terminal hop: each shard counts
    /// its frontier slice's adjacency (multi-value list lengths included)
    /// and the driver sums — no frontier materialization.
    fn count_hop(&self, vids: &[i64], out: bool, labels: &[String]) -> Result<i64, CoreError> {
        let groups = self.group_vertices(vids);
        let parts = self.fan_out(|i| {
            let (distinct, pos_of) = &groups[i];
            let shard = &self.shards[i];
            let mut total = 0i64;
            for chunk in distinct.chunks(FRONTIER_CHUNK) {
                let found = if out {
                    self.out_probe(shard, chunk, labels)?
                } else {
                    self.in_probe(shard, chunk, labels)?
                };
                for (vid, ..) in found {
                    total += pos_of[&vid].len() as i64;
                }
            }
            Ok(total)
        })?;
        Ok(parts.into_iter().sum())
    }

    fn count_start(&self, pipe: &Pipe) -> Result<Option<i64>, CoreError> {
        let sql = match pipe {
            Pipe::Vertices { filter: None } => {
                "SELECT COUNT(*) AS val FROM va WHERE vid >= 0".to_string()
            }
            Pipe::Vertices {
                filter: Some((key, value)),
            } => format!(
                "SELECT COUNT(*) AS val FROM va WHERE vid >= 0 AND JSON_VAL(attr, {}) = {}",
                sql_str(key),
                sql_json(&value.value).map_err(|u| CoreError::Unsupported(u.reason))?
            ),
            Pipe::Edges => "SELECT COUNT(*) AS val FROM ea".to_string(),
            _ => return Ok(None),
        };
        let parts = self.fan_out(|i| {
            Ok(self.shards[i]
                .database()
                .execute(&sql)?
                .scalar()
                .and_then(Value::as_int)
                .unwrap_or(0))
        })?;
        Ok(Some(parts.into_iter().sum()))
    }

    /// Group a vertex frontier by owner shard: per shard, the distinct
    /// vids plus each vid's input positions (duplicates preserved).
    #[allow(clippy::type_complexity)]
    fn group_vertices(&self, vids: &[i64]) -> Vec<(Vec<i64>, BTreeMap<i64, Vec<usize>>)> {
        let n = self.shards.len();
        let mut groups: Vec<(Vec<i64>, BTreeMap<i64, Vec<usize>>)> =
            (0..n).map(|_| (Vec::new(), BTreeMap::new())).collect();
        for (pos, &vid) in vids.iter().enumerate() {
            let (distinct, pos_of) = &mut groups[shard_of(vid, n)];
            let slot = pos_of.entry(vid).or_default();
            if slot.is_empty() {
                distinct.push(vid);
            }
            slot.push(pos);
        }
        groups
    }

    /// `eid → (src, dst)` for an edge frontier, queried on owner shards.
    fn edge_endpoints(
        &self,
        edges: &[(i64, usize)],
    ) -> Result<BTreeMap<i64, (i64, i64)>, CoreError> {
        let groups = self.group_edges(edges);
        let parts = self.fan_out(|i| {
            let mut found = Vec::new();
            for chunk in groups[i].chunks(FRONTIER_CHUNK) {
                let rel = self.shards[i].database().execute(&format!(
                    "SELECT p.eid, p.inv, p.outv FROM ea p WHERE p.eid IN ({})",
                    int_list(chunk)
                ))?;
                for r in &rel.rows {
                    if let (Some(eid), Some(src), Some(dst)) =
                        (r[0].as_int(), r[1].as_int(), r[2].as_int())
                    {
                        found.push((eid, (src, dst)));
                    }
                }
            }
            Ok(found)
        })?;
        Ok(parts.into_iter().flatten().collect())
    }

    /// `eid → scalar` over an edge frontier: `expr` is selected from `ea
    /// p` rows, `extra` appended to the WHERE clause.
    fn edge_scalar_map(
        &self,
        edges: &[(i64, usize)],
        expr: &str,
        extra: &str,
    ) -> Result<BTreeMap<i64, Value>, CoreError> {
        let groups = self.group_edges(edges);
        let parts = self.fan_out(|i| {
            let mut found = Vec::new();
            for chunk in groups[i].chunks(FRONTIER_CHUNK) {
                let rel = self.shards[i].database().execute(&format!(
                    "SELECT p.eid, {expr} FROM ea p WHERE p.eid IN ({}){extra}",
                    int_list(chunk)
                ))?;
                for r in &rel.rows {
                    if let Some(eid) = r[0].as_int() {
                        found.push((eid, r[1].clone()));
                    }
                }
            }
            Ok(found)
        })?;
        Ok(parts.into_iter().flatten().collect())
    }

    /// `vid → scalar` over a vertex frontier (`expr` over `va v` rows).
    fn vertex_scalar_map(
        &self,
        vids: &[i64],
        expr: &str,
        extra: &str,
    ) -> Result<BTreeMap<i64, Value>, CoreError> {
        let groups = self.group_vertices(vids);
        let parts = self.fan_out(|i| {
            let mut found = Vec::new();
            for chunk in groups[i].0.chunks(FRONTIER_CHUNK) {
                let rel = self.shards[i].database().execute(&format!(
                    "SELECT v.vid, {expr} FROM va v WHERE v.vid IN ({}){extra}",
                    int_list(chunk)
                ))?;
                for r in &rel.rows {
                    if let Some(vid) = r[0].as_int() {
                        found.push((vid, r[1].clone()));
                    }
                }
            }
            Ok(found)
        })?;
        Ok(parts.into_iter().flatten().collect())
    }

    /// Keep frontier elements whose attribute document satisfies `cond`
    /// (with `{attr}` standing for the JSON column).
    fn filter_frontier(&self, frontier: Frontier, cond: &str) -> Result<Frontier, CoreError> {
        match frontier {
            Frontier::Vertices(vids) => {
                let cond = cond.replace("{attr}", "v.attr");
                let survivors = self.vertex_scalar_map(&vids, "1", &format!(" AND {cond}"))?;
                Ok(Frontier::Vertices(
                    vids.into_iter()
                        .filter(|v| survivors.contains_key(v))
                        .collect(),
                ))
            }
            Frontier::Edges(edges) => {
                let cond = cond.replace("{attr}", "p.attr");
                let survivors = self.edge_scalar_map(&edges, "1", &format!(" AND {cond}"))?;
                Ok(Frontier::Edges(
                    edges
                        .into_iter()
                        .filter(|(e, _)| survivors.contains_key(e))
                        .collect(),
                ))
            }
            Frontier::Values(_) => {
                unreachable!("scatter_supported rejects attribute filters on values")
            }
        }
    }

    fn group_edges(&self, edges: &[(i64, usize)]) -> Vec<Vec<i64>> {
        let n = self.shards.len();
        let mut groups: Vec<Vec<i64>> = (0..n).map(|_| Vec::new()).collect();
        for &(eid, owner) in edges {
            if !groups[owner].contains(&eid) {
                groups[owner].push(eid);
            }
        }
        groups
    }

    // ------------------------------------------------------------------
    // Sharded CRUD
    // ------------------------------------------------------------------

    /// Retry a sharded mutation when it loses a first-updater-wins
    /// conflict; each attempt rebuilds every participant transaction.
    fn retry_sharded<T>(&self, f: impl Fn() -> Result<T, CoreError>) -> Result<T, CoreError> {
        let mut attempts = 0usize;
        loop {
            match f() {
                Err(CoreError::Rel(sqlgraph_rel::Error::TxnConflict(msg))) => {
                    attempts += 1;
                    if attempts >= TXN_RETRIES {
                        return Err(CoreError::Rel(sqlgraph_rel::Error::TxnConflict(msg)));
                    }
                    std::thread::yield_now();
                }
                other => return other,
            }
        }
    }

    fn add_vertex_props(&self, props: &[(String, Json)]) -> Result<i64, CoreError> {
        let _shared = self.mutation_lock.read();
        let vid = self.next_vid.fetch_add(1, Ordering::SeqCst);
        let attr = Value::json(props_to_json(props));
        let owner = self.shard_for(vid);
        owner.retry_txn(|tx| owner.add_vertex_in(tx, vid, &attr))?;
        Ok(vid)
    }

    fn add_edge_props(
        &self,
        src: i64,
        dst: i64,
        label: &str,
        props: &[(String, Json)],
    ) -> Result<i64, CoreError> {
        let _shared = self.mutation_lock.read();
        for v in [src, dst] {
            if !self.shard_for(v).vertex_exists_internal(v)? {
                return Err(CoreError::Graph(GraphError::new(format!("no vertex {v}"))));
            }
        }
        let eid = self.next_eid.fetch_add(1, Ordering::SeqCst);
        let attr = Value::json(props_to_json(props));
        let n = self.shards.len();
        let (a, b) = (shard_of(src, n), shard_of(dst, n));
        if a == b {
            let owner = &self.shards[a];
            let layout = owner.layout();
            owner.retry_txn(|tx| owner.add_edge_in(tx, &layout, eid, src, dst, label, &attr))?;
            return Ok(eid);
        }
        // Two-shard atomic commit: EA + out-adjacency on the source's
        // shard, in-adjacency on the target's, one shared timestamp.
        self.retry_sharded(|| {
            let (sa, sb) = (&self.shards[a], &self.shards[b]);
            let mut ta = sa.database().begin();
            let mut tb = sb.database().begin();
            ta.execute_with_params(
                "INSERT INTO ea VALUES (?, ?, ?, ?, ?)",
                &[
                    Value::Int(eid),
                    Value::Int(src),
                    Value::Int(dst),
                    Value::str(label),
                    attr.clone(),
                ],
            )?;
            sa.attach(&mut ta, &sa.layout(), true, src, label, eid, dst)?;
            sb.attach(&mut tb, &sb.layout(), false, dst, label, eid, src)?;
            // Ascending shard order — the global commit_many lock order.
            let parts = if a < b { vec![ta, tb] } else { vec![tb, ta] };
            commit_many(parts)?;
            Ok(())
        })?;
        Ok(eid)
    }

    fn remove_edge_impl(&self, eid: i64) -> Result<(), CoreError> {
        let _shared = self.mutation_lock.read();
        // Locate the edge: its EA row lives on its source's shard.
        let mut found: Option<(usize, i64, i64, String)> = None;
        for (i, s) in self.shards.iter().enumerate() {
            let rel = s.database().execute_with_params(
                "SELECT inv, outv, lbl FROM ea WHERE eid = ?",
                &[Value::Int(eid)],
            )?;
            if let Some(row) = rel.rows.first() {
                found = Some((
                    i,
                    row[0].as_int().unwrap_or(-1),
                    row[1].as_int().unwrap_or(-1),
                    row[2].as_str().unwrap_or("").to_string(),
                ));
                break;
            }
        }
        let Some((a, src, dst, label)) = found else {
            return Err(CoreError::Rel(sqlgraph_rel::Error::NotFound(format!(
                "edge {eid}"
            ))));
        };
        let b = shard_of(dst, self.shards.len());
        if a == b {
            let owner = &self.shards[a];
            let layout = owner.layout();
            return owner.retry_txn(|tx| owner.remove_edge_in(tx, &layout, eid));
        }
        self.retry_sharded(|| {
            let (sa, sb) = (&self.shards[a], &self.shards[b]);
            let mut ta = sa.database().begin();
            let mut tb = sb.database().begin();
            ta.execute_with_params("DELETE FROM ea WHERE eid = ?", &[Value::Int(eid)])?;
            sa.detach(&mut ta, &sa.layout(), true, src, &label, eid, dst)?;
            sb.detach(&mut tb, &sb.layout(), false, dst, &label, eid, src)?;
            let parts = if a < b { vec![ta, tb] } else { vec![tb, ta] };
            commit_many(parts)?;
            Ok(())
        })
    }

    fn remove_vertex_impl(&self, vid: i64) -> Result<(), CoreError> {
        let _exclusive = self.mutation_lock.write();
        let n = self.shards.len();
        let owner_idx = shard_of(vid, n);
        if !self.shards[owner_idx].vertex_exists_internal(vid)? {
            return Err(CoreError::Graph(GraphError::new(format!(
                "no vertex {vid}"
            ))));
        }
        // Incident edges: out-edges from the owner's EA; in-edges from
        // every shard's EA (each lives on its own source's shard).
        let mut incident: Vec<(i64, i64, i64, String)> = Vec::new();
        for s in &self.shards {
            for key in ["inv", "outv"] {
                let rel = s.database().execute_with_params(
                    &format!("SELECT eid, inv, outv, lbl FROM ea WHERE {key} = ?"),
                    &[Value::Int(vid)],
                )?;
                for row in &rel.rows {
                    incident.push((
                        row[0].as_int().unwrap_or(-1),
                        row[1].as_int().unwrap_or(-1),
                        row[2].as_int().unwrap_or(-1),
                        row[3].as_str().unwrap_or("").to_string(),
                    ));
                }
            }
        }
        incident.sort_by_key(|(e, ..)| *e);
        incident.dedup_by_key(|(e, ..)| *e);

        self.retry_sharded(|| {
            // One transaction per participating shard, committed together
            // under a single timestamp (the sharded §4.5.2 procedure).
            let mut txns: Vec<Option<Txn<'_>>> = (0..n).map(|_| None).collect();
            for (eid, src, dst, label) in &incident {
                let (sa, sb) = (shard_of(*src, n), shard_of(*dst, n));
                tx_for(&self.shards, &mut txns, sa)
                    .execute_with_params("DELETE FROM ea WHERE eid = ?", &[Value::Int(*eid)])?;
                let layout = self.shards[sa].layout();
                self.shards[sa].detach(
                    tx_for(&self.shards, &mut txns, sa),
                    &layout,
                    true,
                    *src,
                    label,
                    *eid,
                    *dst,
                )?;
                let layout = self.shards[sb].layout();
                self.shards[sb].detach(
                    tx_for(&self.shards, &mut txns, sb),
                    &layout,
                    false,
                    *dst,
                    label,
                    *eid,
                    *src,
                )?;
            }
            // Negative-ID tombstone on the owner (§4.5.2).
            let marked = Value::Int(deleted_id(vid));
            let tx = tx_for(&self.shards, &mut txns, owner_idx);
            tx.execute_with_params(
                "UPDATE va SET vid = ? WHERE vid = ?",
                &[marked.clone(), Value::Int(vid)],
            )?;
            for pa in ["opa", "ipa"] {
                tx.execute_with_params(
                    &format!("UPDATE {pa} SET vid = ? WHERE vid = ?"),
                    &[marked.clone(), Value::Int(vid)],
                )?;
            }
            // Ascending shard order by construction.
            commit_many(txns.into_iter().flatten().collect())?;
            Ok(())
        })
    }

    fn set_vertex_property_impl(&self, vid: i64, key: &str, value: &Json) -> Result<(), CoreError> {
        let _shared = self.mutation_lock.read();
        self.shard_for(vid)
            .retry_txn(|tx| SqlGraph::set_property_in(tx, "va", "vid", vid, key, value))
    }

    fn set_edge_property_impl(&self, eid: i64, key: &str, value: &Json) -> Result<(), CoreError> {
        let _shared = self.mutation_lock.read();
        for s in &self.shards {
            let rel = s
                .database()
                .execute_with_params("SELECT eid FROM ea WHERE eid = ?", &[Value::Int(eid)])?;
            if !rel.rows.is_empty() {
                return s
                    .retry_txn(|tx| SqlGraph::set_property_in(tx, "ea", "eid", eid, key, value));
            }
        }
        Err(CoreError::Rel(sqlgraph_rel::Error::NotFound(format!(
            "edge {eid}"
        ))))
    }

    // ------------------------------------------------------------------
    // Cross-shard reconciliation (crash repair at open)
    // ------------------------------------------------------------------

    /// Repair commits that a crash left durable on only some shards.
    ///
    /// Each shard's WAL replay is prefix-consistent on its own; a
    /// cross-shard commit appends to the participants' WALs in ascending
    /// shard order, so a crash between appends leaves the commit on a
    /// proper subset. Rules, applied in eid order:
    ///
    /// 1. **Tombstone wins**: an `EA` row either of whose endpoints is
    ///    dead on its owner shard is removed (with both adjacency halves)
    ///    — the vertex delete committed somewhere, so it finishes.
    /// 2. **Roll forward**: an `EA` row whose target shard is missing the
    ///    in-adjacency entry gets it attached — the `EA` row is the
    ///    edge's commit record.
    /// 3. **Roll back**: an in-adjacency entry whose eid has no `EA` row
    ///    anywhere is detached — the edge insert never became durable on
    ///    its owner.
    fn reconcile(&self) -> Result<usize, CoreError> {
        let n = self.shards.len();
        // Every EA row, keyed by eid.
        let mut ea: BTreeMap<i64, (usize, i64, i64, String)> = BTreeMap::new();
        for (i, s) in self.shards.iter().enumerate() {
            let rel = s.database().execute("SELECT eid, inv, outv, lbl FROM ea")?;
            for r in &rel.rows {
                if let (Some(eid), Some(src), Some(dst)) =
                    (r[0].as_int(), r[1].as_int(), r[2].as_int())
                {
                    let lbl = r[3].as_str().unwrap_or("").to_string();
                    ea.insert(eid, (i, src, dst, lbl));
                }
            }
        }
        // Every in-adjacency posting: eid → (shard, dst, label, src).
        let mut postings: BTreeMap<i64, (usize, i64, String, i64)> = BTreeMap::new();
        for (i, s) in self.shards.iter().enumerate() {
            let layout = s.layout();
            let mut lists: Vec<(i64, String, i64)> = Vec::new(); // (dst, lbl, valid)
            for c in 0..layout.in_buckets {
                let rel = s.database().execute(&format!(
                    "SELECT vid, lbl{c}, eid{c}, val{c} FROM ipa \
                     WHERE vid >= 0 AND lbl{c} IS NOT NULL"
                ))?;
                for r in &rel.rows {
                    let dst = r[0].as_int().unwrap_or(-1);
                    let lbl = r[1].as_str().unwrap_or("").to_string();
                    match (r[2].as_int(), r[3].as_int()) {
                        (Some(eid), src) => {
                            postings.insert(eid, (i, dst, lbl, src.unwrap_or(-1)));
                        }
                        (None, Some(valid)) if valid >= MV_BASE => lists.push((dst, lbl, valid)),
                        _ => {}
                    }
                }
            }
            if !lists.is_empty() {
                let rel = s.database().execute("SELECT valid, eid, val FROM isa")?;
                let mut members: BTreeMap<i64, Vec<(i64, i64)>> = BTreeMap::new();
                for r in &rel.rows {
                    if let (Some(valid), Some(eid)) = (r[0].as_int(), r[1].as_int()) {
                        let src = r[2].as_int().unwrap_or(-1);
                        members.entry(valid).or_default().push((eid, src));
                    }
                }
                for (dst, lbl, valid) in lists {
                    for (eid, src) in members.get(&valid).cloned().unwrap_or_default() {
                        postings.insert(eid, (i, dst, lbl.clone(), src));
                    }
                }
            }
        }
        let alive = |v: i64| -> Result<bool, CoreError> {
            self.shards[shard_of(v, n)].vertex_exists_internal(v)
        };
        let mut repairs = 0usize;
        // Rule 1 + 2 over EA rows (BTreeMap iterates in eid order).
        for (&eid, &(owner, src, dst, ref lbl)) in &ea {
            if !alive(src)? || !alive(dst)? {
                let s = &self.shards[owner];
                s.retry_txn(|tx| {
                    tx.execute_with_params("DELETE FROM ea WHERE eid = ?", &[Value::Int(eid)])?;
                    s.detach(tx, &s.layout(), true, src, lbl, eid, dst)
                })?;
                let sd = &self.shards[shard_of(dst, n)];
                sd.retry_txn(|tx| sd.detach(tx, &sd.layout(), false, dst, lbl, eid, src))?;
                repairs += 1;
                continue;
            }
            let target = shard_of(dst, n);
            let posted = postings
                .get(&eid)
                .is_some_and(|&(i, d, _, _)| i == target && d == dst);
            if !posted {
                let sd = &self.shards[target];
                sd.retry_txn(|tx| sd.attach(tx, &sd.layout(), false, dst, lbl, eid, src))?;
                repairs += 1;
            }
        }
        // Rule 3 over postings without an EA row.
        for (&eid, &(i, dst, ref lbl, src)) in &postings {
            if !ea.contains_key(&eid) {
                let s = &self.shards[i];
                s.retry_txn(|tx| s.detach(tx, &s.layout(), false, dst, lbl, eid, src))?;
                repairs += 1;
            }
        }
        Ok(repairs)
    }
}

// ----------------------------------------------------------------------
// Frontier
// ----------------------------------------------------------------------

/// The elements flowing between scatter-gather steps.
enum Frontier {
    /// Vertex ids (owner shard is a hash of the id).
    Vertices(Vec<i64>),
    /// Edge ids with the shard holding each edge's `EA` row.
    Edges(Vec<(i64, usize)>),
    /// Computed values (terminal projections).
    Values(Vec<Value>),
}

impl Frontier {
    fn len(&self) -> usize {
        match self {
            Frontier::Vertices(v) => v.len(),
            Frontier::Edges(e) => e.len(),
            Frontier::Values(v) => v.len(),
        }
    }

    /// First-occurrence deduplication (deterministic regardless of shard
    /// count, since frontiers are already deterministically ordered).
    fn dedup(self) -> Frontier {
        fn uniq<T: Clone + PartialEq, K: Ord + Clone>(
            items: Vec<T>,
            key: impl Fn(&T) -> K,
        ) -> Vec<T> {
            let mut seen = std::collections::BTreeSet::new();
            items.into_iter().filter(|x| seen.insert(key(x))).collect()
        }
        match self {
            Frontier::Vertices(v) => Frontier::Vertices(uniq(v, |&x| x)),
            Frontier::Edges(e) => Frontier::Edges(uniq(e, |&(eid, _)| eid)),
            Frontier::Values(vals) => {
                let mut seen: Vec<Value> = Vec::new();
                Frontier::Values(
                    vals.into_iter()
                        .filter(|v| {
                            if seen.contains(v) {
                                false
                            } else {
                                seen.push(v.clone());
                                true
                            }
                        })
                        .collect(),
                )
            }
        }
    }

    fn slice(self, skip: usize, take: usize) -> Frontier {
        match self {
            Frontier::Vertices(v) => {
                Frontier::Vertices(v.into_iter().skip(skip).take(take).collect())
            }
            Frontier::Edges(e) => Frontier::Edges(e.into_iter().skip(skip).take(take).collect()),
            Frontier::Values(v) => Frontier::Values(v.into_iter().skip(skip).take(take).collect()),
        }
    }

    fn into_relation(self) -> Relation {
        let rows: Vec<Vec<Value>> = match self {
            Frontier::Vertices(v) => v.into_iter().map(|x| vec![Value::Int(x)]).collect(),
            Frontier::Edges(e) => e
                .into_iter()
                .map(|(eid, _)| vec![Value::Int(eid)])
                .collect(),
            Frontier::Values(vals) => vals.into_iter().map(|v| vec![v]).collect(),
        };
        Relation::new(vec!["val".into()], rows)
    }
}

/// Which pipes the scatter-gather executor handles; anything else falls
/// back to the interpreter. Tracks the element kind like the translator
/// does, so kind-mismatched pipes (e.g. `out` on edges) also fall back.
fn scatter_supported(pipes: &[Pipe]) -> bool {
    #[derive(Clone, Copy, PartialEq)]
    enum K {
        V,
        E,
        Val,
    }
    let scalar = |v: &Json| matches!(v, Json::Null | Json::Bool(_) | Json::Num(_) | Json::Str(_));
    let Some(first) = pipes.first() else {
        return false;
    };
    let mut kind = match first {
        Pipe::Vertices { filter: None } | Pipe::VertexById(_) => K::V,
        Pipe::Vertices {
            filter: Some((_, v)),
        } if scalar(&v.value) => K::V,
        Pipe::Edges | Pipe::EdgeById(_) => K::E,
        _ => return false,
    };
    for pipe in &pipes[1..] {
        kind = match (pipe, kind) {
            (Pipe::Out(_) | Pipe::In(_) | Pipe::Both(_), K::V) => K::V,
            (Pipe::OutE(_) | Pipe::InE(_) | Pipe::BothE(_), K::V) => K::E,
            (Pipe::OutV | Pipe::InV | Pipe::BothV, K::E) => K::V,
            (Pipe::Id, K::V | K::E) => K::Val,
            (Pipe::Label, K::E) => K::Val,
            (Pipe::Values(_), K::V | K::E) => K::Val,
            (Pipe::Has { value: None, .. }, K::V | K::E) => kind,
            (Pipe::Has { value: Some(v), .. }, K::V | K::E) if scalar(&v.value) => kind,
            (Pipe::HasNot { .. }, K::V | K::E) => kind,
            (Pipe::Interval { lo, hi, .. }, K::V | K::E)
                if scalar(&lo.value) && scalar(&hi.value) =>
            {
                kind
            }
            (Pipe::Dedup | Pipe::Range { .. }, _) => kind,
            (Pipe::Count, _) => K::Val,
            _ => return false,
        };
    }
    true
}

/// `(out?, labels)` for a vertex hop pipe; `out = None` means both
/// directions.
#[allow(clippy::type_complexity)]
fn hop_shape(pipe: &Pipe) -> Option<(Option<bool>, &[String])> {
    match pipe {
        Pipe::Out(l) | Pipe::OutE(l) => Some((Some(true), l)),
        Pipe::In(l) | Pipe::InE(l) => Some((Some(false), l)),
        Pipe::Both(l) | Pipe::BothE(l) => Some((None, l)),
        _ => None,
    }
}

/// Lazily start a transaction on shard `i` (cross-shard mutations only
/// begin transactions on the shards they actually touch).
fn tx_for<'a, 'b>(
    shards: &'a [SqlGraph],
    txns: &'b mut [Option<Txn<'a>>],
    i: usize,
) -> &'b mut Txn<'a> {
    if txns[i].is_none() {
        txns[i] = Some(shards[i].database().begin());
    }
    txns[i].as_mut().expect("just initialized")
}

fn count_relation(total: i64) -> Relation {
    Relation::new(vec!["val".into()], vec![vec![Value::Int(total)]])
}

/// Render ids as a SQL `IN` list body.
fn int_list(ids: &[i64]) -> String {
    let mut s = String::with_capacity(ids.len() * 8);
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&id.to_string());
    }
    s
}

/// IPA bucket columns to unnest for `labels` (all buckets when empty).
fn in_buckets_for(layout: &GraphLayout, labels: &[String]) -> Vec<usize> {
    if labels.is_empty() {
        return (0..layout.in_buckets).collect();
    }
    let mut cols: Vec<usize> = labels.iter().map(|l| layout.in_column(l)).collect();
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// Merge two `(pos, a, b)` row sets sorted by position: for each input
/// position, the first set's rows then the second's (the per-element
/// ordering of the interpreter's `both`).
fn merge_by_pos(
    first: Vec<(usize, i64, i64)>,
    second: Vec<(usize, i64, i64)>,
    positions: usize,
) -> Vec<(usize, i64, i64)> {
    let mut merged = Vec::with_capacity(first.len() + second.len());
    let (mut fi, mut si) = (0, 0);
    for pos in 0..positions {
        while fi < first.len() && first[fi].0 == pos {
            merged.push(first[fi]);
            fi += 1;
        }
        while si < second.len() && second[si].0 == pos {
            merged.push(second[si]);
            si += 1;
        }
    }
    merged
}

/// Project an endpoint map over an edge frontier, preserving order.
fn apply_map<'a, T>(
    edges: &'a [(i64, usize)],
    map: &'a BTreeMap<i64, T>,
    f: impl Fn(&T) -> i64 + 'a,
) -> impl Iterator<Item = i64> + 'a {
    edges
        .iter()
        .filter_map(move |(eid, _)| map.get(eid).map(&f))
}

// ----------------------------------------------------------------------
// Blueprints: the chatty per-call API, routed by shard.
// ----------------------------------------------------------------------

impl Blueprints for ShardedGraph {
    fn vertex_ids(&self) -> Vec<i64> {
        let mut all: Vec<i64> = self.shards.iter().flat_map(|s| s.vertex_ids()).collect();
        all.sort_unstable();
        all
    }

    fn edge_ids(&self) -> Vec<i64> {
        let mut all: Vec<i64> = self.shards.iter().flat_map(|s| s.edge_ids()).collect();
        all.sort_unstable();
        all
    }

    fn vertex_exists(&self, v: i64) -> bool {
        self.shard_for(v).vertex_exists(v)
    }

    fn edge_exists(&self, e: i64) -> bool {
        self.shards.iter().any(|s| s.edge_exists(e))
    }

    fn edges_of(&self, v: i64, dir: Direction, labels: &[String]) -> Vec<i64> {
        let mut out = Vec::new();
        if matches!(dir, Direction::Out | Direction::Both) {
            // Out-edges all live on v's shard, in unsharded row order.
            out.extend(self.shard_for(v).edges_of(v, Direction::Out, labels));
        }
        if matches!(dir, Direction::In | Direction::Both) {
            // In-edges are spread over their sources' shards; merge in eid
            // order (insertion order, matching the unsharded scan).
            let mut ins: Vec<i64> = self
                .shards
                .iter()
                .flat_map(|s| s.edges_of(v, Direction::In, labels))
                .collect();
            ins.sort_unstable();
            out.extend(ins);
        }
        out
    }

    fn adjacent(&self, v: i64, dir: Direction, labels: &[String]) -> Vec<i64> {
        let mut out = Vec::new();
        if matches!(dir, Direction::Out | Direction::Both) {
            out.extend(self.shard_for(v).adjacent(v, Direction::Out, labels));
        }
        if matches!(dir, Direction::In | Direction::Both) {
            // Collect (eid, source) across shards, order by eid.
            let lbl = label_in_list("lbl", labels);
            let mut rows: Vec<(i64, i64)> = Vec::new();
            for s in &self.shards {
                if let Ok(r) = s.database().execute_with_params(
                    &format!("SELECT eid, inv FROM ea WHERE outv = ?{lbl}"),
                    &[Value::Int(v)],
                ) {
                    rows.extend(
                        r.rows
                            .iter()
                            .filter_map(|row| Some((row[0].as_int()?, row[1].as_int()?))),
                    );
                }
            }
            rows.sort_unstable();
            out.extend(rows.into_iter().map(|(_, src)| src));
        }
        out
    }

    fn edge_label(&self, e: i64) -> Option<String> {
        self.shards.iter().find_map(|s| s.edge_label(e))
    }

    fn edge_source(&self, e: i64) -> Option<i64> {
        self.shards.iter().find_map(|s| s.edge_source(e))
    }

    fn edge_target(&self, e: i64) -> Option<i64> {
        self.shards.iter().find_map(|s| s.edge_target(e))
    }

    fn vertex_property(&self, v: i64, key: &str) -> Option<Json> {
        self.shard_for(v).vertex_property(v, key)
    }

    fn edge_property(&self, e: i64, key: &str) -> Option<Json> {
        self.shards.iter().find_map(|s| s.edge_property(e, key))
    }

    fn vertices_by_property(&self, key: &str, value: &Json) -> Vec<i64> {
        let mut all: Vec<i64> = self
            .shards
            .iter()
            .flat_map(|s| s.vertices_by_property(key, value))
            .collect();
        all.sort_unstable();
        all
    }

    fn add_vertex(&self, props: &[(String, Json)]) -> GraphResult<i64> {
        self.add_vertex_props(props).map_err(to_graph_error)
    }

    fn add_edge(
        &self,
        src: i64,
        dst: i64,
        label: &str,
        props: &[(String, Json)],
    ) -> GraphResult<i64> {
        self.add_edge_props(src, dst, label, props)
            .map_err(to_graph_error)
    }

    fn remove_vertex(&self, v: i64) -> GraphResult<()> {
        self.remove_vertex_impl(v).map_err(to_graph_error)
    }

    fn remove_edge(&self, e: i64) -> GraphResult<()> {
        self.remove_edge_impl(e).map_err(to_graph_error)
    }

    fn set_vertex_property(&self, v: i64, key: &str, value: &Json) -> GraphResult<()> {
        self.set_vertex_property_impl(v, key, value)
            .map_err(to_graph_error)
    }

    fn set_edge_property(&self, e: i64, key: &str, value: &Json) -> GraphResult<()> {
        self.set_edge_property_impl(e, key, value)
            .map_err(to_graph_error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioner_is_stable_and_total() {
        for n in [1, 2, 3, 4, 8] {
            for vid in [0i64, 1, 42, -7, i64::MAX, i64::MIN] {
                let s = shard_of(vid, n);
                assert!(s < n);
                assert_eq!(s, shard_of(vid, n), "same inputs, same shard");
            }
        }
        assert_eq!(shard_of(123, 1), 0);
    }

    #[test]
    fn sharded_crud_round_trip() {
        let g = ShardedGraph::new_in_memory(4);
        let a = g.add_vertex(&[("name".into(), Json::str("a"))]).unwrap();
        let b = g.add_vertex(&[("name".into(), Json::str("b"))]).unwrap();
        let c = g.add_vertex(&[("name".into(), Json::str("c"))]).unwrap();
        let e1 = g.add_edge(a, b, "knows", &[]).unwrap();
        let _e2 = g.add_edge(b, c, "knows", &[]).unwrap();
        assert_eq!(g.vertex_ids(), vec![a, b, c]);
        assert!(g.edge_exists(e1));
        assert_eq!(g.adjacent(a, Direction::Out, &[]), vec![b]);
        assert_eq!(g.adjacent(b, Direction::In, &[]), vec![a]);
        let out = g.query("g.V.count()").unwrap();
        assert_eq!(out.rows[0][0], Value::Int(3));
        let names = g
            .query("g.v(1).out('knows').values('name')")
            .unwrap()
            .strings();
        assert_eq!(names, ["b"]);
        g.remove_vertex(b).unwrap();
        assert_eq!(g.vertex_ids(), vec![a, c]);
        assert_eq!(g.edge_ids(), Vec::<i64>::new());
        assert_eq!(g.adjacent(a, Direction::Out, &[]), Vec::<i64>::new());
    }
}
