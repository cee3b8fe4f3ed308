//! `SqlGraph`: the property graph store.
//!
//! Holds the six-table hybrid schema inside an embedded relational
//! database. Reads go through the Gremlin→SQL translator (one statement per
//! traversal); the paper's graph update operations run as transactions
//! spanning the adjacency, attribute, and edge tables — the stored
//! procedures of §4.5.2, including the negative-ID vertex deletion
//! optimization and its offline [`SqlGraph::vacuum`] counterpart.

use crate::layout::{color_labels, GraphLayout, LayoutStats};
use crate::schema::{create_tables, deleted_id, SchemaConfig, MV_BASE};
use crate::translate::{translate_template, translate_with, TranslateOptions};
use crate::CoreError;
use sqlgraph_gremlin::ast::{GremlinStatement, Pipeline};
use sqlgraph_gremlin::blueprints::{
    Blueprints, Direction, GraphError, GraphResult, GraphTransaction,
};
use sqlgraph_gremlin::{interp, parse, parse_lifted, Lifted};
use sqlgraph_json::{Json, JsonObject};
use sqlgraph_rel::expr::json_to_value;
use sqlgraph_rel::sql::ast::Statement;
use sqlgraph_rel::sql::parser::parse_statement_with_params;
use sqlgraph_rel::storage::Table;
use sqlgraph_rel::{ClockCache, Database, Prepared, Relation, Txn, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, LockResult, PoisonError, RwLock};

/// Per-vertex adjacency grouped by label: vid → label → [(eid, other)].
type AdjacencyMap<'a> = BTreeMap<i64, BTreeMap<&'a str, Vec<(i64, i64)>>>;

/// How many times an autocommit graph mutation is retried when it loses a
/// first-updater-wins conflict against a concurrent writer. Graph CRUD
/// touches disjoint vertices in the common case, so a handful of retries
/// absorbs transient hot-vertex collisions (e.g. two edges added to one
/// vertex at once). Retry `n` first pauses `2^(n-1)` µs, at most 512: the
/// winner usually holds the row until it commits, so an immediate retry
/// would only meet the same conflict.
const TXN_RETRIES: usize = 16;

/// Take a lock whatever a panicking holder left behind: the store's locks
/// guard no state an unwind can tear (the layout and load stats are
/// replaced whole), so a panicked caller does not wedge later ones.
fn unpoison<G>(locked: LockResult<G>) -> G {
    locked.unwrap_or_else(PoisonError::into_inner)
}

/// One vertex for bulk loading: `(vertex id, properties)`.
pub type VertexSpec = (i64, Vec<(String, Json)>);
/// One edge for bulk loading: `(edge id, source, target, label, properties)`.
pub type EdgeSpec = (i64, i64, i64, String, Vec<(String, Json)>);

/// Bulk-load input: a complete property graph.
#[derive(Debug, Clone, Default)]
pub struct GraphData {
    /// Vertices — ids must be unique and non-negative.
    pub vertices: Vec<VertexSpec>,
    /// Edges.
    pub edges: Vec<EdgeSpec>,
}

/// How many traversal templates a store keeps. A workload runs tens of
/// shapes; a stream of one-off shapes turns the cache over instead of
/// growing it.
pub const TEMPLATE_CACHE_CAP: usize = 1024;

/// What a traversal template is cached under: the Gremlin shape (labels,
/// keys, `range`/`loop` bounds, closures and literal types, with the
/// values of the lifted literals left out) and everything else the
/// translation reads. The layout is not in the key; replacing it clears
/// the cache.
#[derive(Clone, PartialEq, Eq, Hash)]
struct TemplateKey {
    shape: String,
    options: TranslateOptions,
}

/// A translated, parsed traversal, ready to execute once bound; its
/// statement's plans are cached with it.
#[derive(Clone)]
struct Template {
    prepared: Arc<Prepared>,
    /// `slots[i]` is the lifted literal that `?` number `i` binds.
    slots: Arc<[usize]>,
}

/// The SQLGraph property graph store.
pub struct SqlGraph {
    db: Database,
    config: SchemaConfig,
    layout: RwLock<Arc<GraphLayout>>,
    /// Traversal templates by shape, so a repeated shape is neither
    /// translated nor parsed as SQL again.
    templates: ClockCache<TemplateKey, Template>,
    template_hits: AtomicU64,
    template_misses: AtomicU64,
    next_vid: AtomicI64,
    next_eid: AtomicI64,
    next_valid: AtomicI64,
    next_rowno: AtomicI64,
    /// Queries that fell back to the interpreter (the stored-procedure
    /// fallback path of §4.4).
    fallbacks: AtomicU64,
    /// Stats captured at bulk-load time (Table 3).
    load_stats: RwLock<Option<(LayoutStats, LayoutStats)>>,
}

impl std::fmt::Debug for SqlGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SqlGraph")
            .field("config", &self.config)
            .field("vertices", &self.db.table_len("va").unwrap_or(0))
            .field("edges", &self.db.table_len("ea").unwrap_or(0))
            .finish()
    }
}

impl SqlGraph {
    /// A fresh in-memory store with the default layout.
    pub fn new_in_memory() -> SqlGraph {
        SqlGraph::with_config(SchemaConfig::default()).expect("default schema is valid")
    }

    /// A fresh in-memory store with explicit bucket counts.
    pub fn with_config(config: SchemaConfig) -> Result<SqlGraph, CoreError> {
        let db = Database::new();
        create_tables(&db, &config)?;
        Ok(SqlGraph::from_db(db, config))
    }

    /// Open (or create) a WAL-backed store at `wal_path`. Existing data is
    /// recovered by replay; id counters resume past the recovered maxima.
    pub fn open(wal_path: impl AsRef<Path>, config: SchemaConfig) -> Result<SqlGraph, CoreError> {
        SqlGraph::from_recovered(Database::open(wal_path)?, config)
    }

    /// [`SqlGraph::open`] over an explicit file-system layer, for
    /// deterministic crash testing with [`sqlgraph_rel::SimFs`].
    pub fn open_with_vfs(
        wal_path: impl AsRef<Path>,
        config: SchemaConfig,
        vfs: std::sync::Arc<dyn sqlgraph_rel::Vfs>,
    ) -> Result<SqlGraph, CoreError> {
        SqlGraph::from_recovered(Database::open_with_vfs(wal_path, vfs)?, config)
    }

    fn from_recovered(db: Database, config: SchemaConfig) -> Result<SqlGraph, CoreError> {
        if !db.table_names().contains(&"va".to_string()) {
            create_tables(&db, &config)?;
        }
        let store = SqlGraph::from_db(db, config);
        store.resync_counters()?;
        Ok(store)
    }

    /// Snapshot the full graph state and rotate the WAL, bounding the next
    /// open to the snapshot plus the post-checkpoint tail. The engine cuts
    /// a commit-consistent image: a graph transaction is in it whole or
    /// not at all.
    pub fn checkpoint(&self) -> Result<sqlgraph_rel::CheckpointReport, CoreError> {
        Ok(self.db.checkpoint()?)
    }

    /// Fsync the WAL on every commit (off by default for benchmarks).
    pub fn set_sync_on_commit(&self, sync: bool) {
        self.db.set_sync_on_commit(sync);
    }

    /// What recovery found when this store was opened from a log.
    pub fn recovery_report(&self) -> Option<&sqlgraph_rel::RecoveryReport> {
        self.db.recovery_report()
    }

    fn from_db(db: Database, config: SchemaConfig) -> SqlGraph {
        SqlGraph {
            db,
            config,
            layout: RwLock::new(Arc::new(GraphLayout::trivial(
                config.out_buckets,
                config.in_buckets,
            ))),
            templates: ClockCache::new(TEMPLATE_CACHE_CAP),
            template_hits: AtomicU64::new(0),
            template_misses: AtomicU64::new(0),
            next_vid: AtomicI64::new(1),
            next_eid: AtomicI64::new(1),
            next_valid: AtomicI64::new(1),
            next_rowno: AtomicI64::new(1),
            fallbacks: AtomicU64::new(0),
            load_stats: RwLock::new(None),
        }
    }

    fn resync_counters(&self) -> Result<(), CoreError> {
        let max_of = |sql: &str| -> Result<i64, CoreError> {
            Ok(self
                .db
                .execute(sql)?
                .scalar()
                .and_then(Value::as_int)
                .unwrap_or(0))
        };
        // ABS folds the negative deleted markers back into the live range.
        let max_live = max_of("SELECT MAX(vid) FROM va")?;
        let max_deleted = max_of("SELECT MAX(ABS(vid + 1)) FROM va WHERE vid < 0")?;
        self.next_vid
            .store(max_live.max(max_deleted) + 1, Ordering::SeqCst);
        self.next_eid
            .store(max_of("SELECT MAX(eid) FROM ea")? + 1, Ordering::SeqCst);
        let max_valid =
            max_of("SELECT MAX(valid) FROM osa")?.max(max_of("SELECT MAX(valid) FROM isa")?);
        self.next_valid
            .store((max_valid - MV_BASE).max(0) + 1, Ordering::SeqCst);
        let max_rowno =
            max_of("SELECT MAX(rowno) FROM opa")?.max(max_of("SELECT MAX(rowno) FROM ipa")?);
        self.next_rowno.store(max_rowno + 1, Ordering::SeqCst);
        Ok(())
    }

    /// The underlying relational database (inspection, ad-hoc SQL).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The current physical layout.
    pub fn layout(&self) -> Arc<GraphLayout> {
        unpoison(self.layout.read()).clone()
    }

    /// Number of queries that used the interpreter fallback.
    pub fn fallback_count(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Traversal-template cache counters: `(hits, misses, entries)`. A
    /// traversal is a hit when a template of its shape was cached, a miss
    /// when it had to be translated (or turned out untranslatable).
    pub fn template_cache_stats(&self) -> (u64, u64, usize) {
        (
            self.template_hits.load(Ordering::Relaxed),
            self.template_misses.load(Ordering::Relaxed),
            self.templates.len(),
        )
    }

    /// Layout statistics from the last bulk load (out, in) — Table 3.
    pub fn load_stats(&self) -> Option<(LayoutStats, LayoutStats)> {
        unpoison(self.load_stats.read()).clone()
    }

    // ------------------------------------------------------------------
    // Bulk load
    // ------------------------------------------------------------------

    /// Bulk-load a complete graph: computes the coloring layout from the
    /// data (§3.2), then writes all six tables directly.
    ///
    /// Bulk loading bypasses the WAL (standard bulk-import semantics); use
    /// it on a fresh store.
    pub fn bulk_load(&self, data: &GraphData) -> Result<(), CoreError> {
        let layout = layout_for(&self.config, data);
        // 1. Adjacency, grouped by vertex and label.
        let mut out_adj: AdjacencyMap<'_> = AdjacencyMap::new();
        let mut in_adj: AdjacencyMap<'_> = AdjacencyMap::new();
        for (eid, src, dst, label, _) in &data.edges {
            out_adj
                .entry(*src)
                .or_default()
                .entry(label)
                .or_default()
                .push((*eid, *dst));
            in_adj
                .entry(*dst)
                .or_default()
                .entry(label)
                .or_default()
                .push((*eid, *src));
        }

        // 2. Write VA.
        self.db.write_table("va", |va| {
            for (vid, props) in &data.vertices {
                va.insert(vec![Value::Int(*vid), Value::json(props_to_json(props))])?;
            }
            Ok(())
        })?;
        // 3. Write EA. Every row and triad carrying a label shares that
        // label's one string (`GraphLayout::label`).
        self.db.write_table("ea", |ea| {
            for (eid, src, dst, label, props) in &data.edges {
                ea.insert(vec![
                    Value::Int(*eid),
                    Value::Int(*src),
                    Value::Int(*dst),
                    layout.label(label),
                    Value::json(props_to_json(props)),
                ])?;
            }
            Ok(())
        })?;
        // 4. Shred adjacency, collecting Table 3 stats.
        let mut stats_out = LayoutStats {
            hashed_labels: layout.out.labels(),
            max_bucket_size: layout.out.bucket_sizes().into_iter().max().unwrap_or(0),
            ..LayoutStats::default()
        };
        let mut stats_in = LayoutStats {
            hashed_labels: layout.incoming.labels(),
            max_bucket_size: layout
                .incoming
                .bucket_sizes()
                .into_iter()
                .max()
                .unwrap_or(0),
            ..LayoutStats::default()
        };
        self.shred_direction(&layout, &out_adj, true, &mut stats_out)?;
        self.shred_direction(&layout, &in_adj, false, &mut stats_in)?;

        // 5. Counters and layout.
        let max_vid = data.vertices.iter().map(|(v, _)| *v).max().unwrap_or(0);
        let max_eid = data.edges.iter().map(|(e, ..)| *e).max().unwrap_or(0);
        self.next_vid.fetch_max(max_vid + 1, Ordering::SeqCst);
        self.next_eid.fetch_max(max_eid + 1, Ordering::SeqCst);
        {
            // Templates were translated against the old label → column
            // assignment. Cleared under the layout lock, which a `prepared`
            // that missed holds from reading the layout to inserting its
            // template, so none built on the old layout lands afterwards.
            let mut current = unpoison(self.layout.write());
            *current = Arc::new(layout);
            self.templates.clear();
        }
        *unpoison(self.load_stats.write()) = Some((stats_out, stats_in));
        Ok(())
    }

    fn shred_direction(
        &self,
        layout: &GraphLayout,
        adj: &AdjacencyMap<'_>,
        out: bool,
        stats: &mut LayoutStats,
    ) -> Result<(), CoreError> {
        let buckets = if out {
            self.config.out_buckets
        } else {
            self.config.in_buckets
        };
        let (pa, sa) = if out { ("opa", "osa") } else { ("ipa", "isa") };
        let arity = 3 + 3 * buckets;
        let empty_row = |rowno: i64, vid: i64, spill: bool| {
            let mut row = vec![Value::Null; arity];
            row[0] = Value::Int(rowno);
            row[1] = Value::Int(vid);
            row[2] = Value::Int(spill as i64);
            row
        };
        // Both tables are written under their locks at once, `pa` first.
        let mut shred = |pa_table: &mut Table, sa_table: &mut Table| {
            for (&vid, labels) in adj {
                let mut rows: Vec<Vec<Value>> = vec![empty_row(
                    self.next_rowno.fetch_add(1, Ordering::Relaxed),
                    vid,
                    false,
                )];
                for (label, entries) in labels {
                    let col = if out {
                        layout.out_column(label)
                    } else {
                        layout.in_column(label)
                    };
                    let (lbl_i, eid_i, val_i) = (3 + 3 * col, 4 + 3 * col, 5 + 3 * col);
                    // First row whose triad is free; else a new spill row.
                    let row_idx = match rows.iter().position(|r| r[lbl_i].is_null()) {
                        Some(i) => i,
                        None => {
                            rows.push(empty_row(
                                self.next_rowno.fetch_add(1, Ordering::Relaxed),
                                vid,
                                true,
                            ));
                            rows.len() - 1
                        }
                    };
                    let row = &mut rows[row_idx];
                    row[lbl_i] = layout.label(label);
                    if entries.len() == 1 {
                        row[eid_i] = Value::Int(entries[0].0);
                        row[val_i] = Value::Int(entries[0].1);
                    } else {
                        let valid = MV_BASE + self.next_valid.fetch_add(1, Ordering::Relaxed);
                        row[val_i] = Value::Int(valid);
                        for (eid, other) in entries {
                            sa_table.insert(vec![
                                Value::Int(valid),
                                Value::Int(*eid),
                                Value::Int(*other),
                            ])?;
                            stats.multi_value_rows += 1;
                        }
                    }
                }
                stats.primary_rows += 1;
                stats.spill_rows += rows.len() - 1;
                for row in rows {
                    pa_table.insert(row)?;
                }
            }
            Ok(())
        };
        self.db.write_table(pa, |pa_table| {
            self.db
                .write_table(sa, |sa_table| shred(pa_table, sa_table))
        })?;
        // Vertices with no adjacency in this direction get their primary
        // row lazily from attach(); nothing to write for them here.
        Ok(())
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Execute a Gremlin statement. Side-effect-free traversals compile to
    /// a single SQL statement; non-translatable queries fall back to the
    /// step-at-a-time interpreter; CRUD statements run as transactions.
    pub fn query(&self, gremlin: &str) -> Result<Relation, CoreError> {
        let (statement, lifted) = parse_lifted(gremlin)?;
        match &statement {
            GremlinStatement::Query(pipeline) => {
                match self.prepared(pipeline, lifted, TranslateOptions::default()) {
                    Ok((prepared, binds)) => Ok(self.db.execute_prepared(&prepared, &binds)?),
                    Err(CoreError::Unsupported(_)) => {
                        self.fallbacks.fetch_add(1, Ordering::Relaxed);
                        let elems = interp::eval(self, pipeline)?;
                        Ok(elems_to_relation(elems))
                    }
                    Err(e) => Err(e),
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

    /// The SQL a Gremlin traversal compiles to (for inspection/tests).
    pub fn translate_query(&self, gremlin: &str) -> Result<String, CoreError> {
        self.translate_query_with(gremlin, TranslateOptions::default())
    }

    /// Translate with explicit physical-strategy options (Table 4 /
    /// Figure 6 ablations).
    pub fn translate_query_with(
        &self,
        gremlin: &str,
        options: TranslateOptions,
    ) -> Result<String, CoreError> {
        match parse(gremlin)? {
            GremlinStatement::Query(pipeline) => translate_with(&pipeline, &self.layout(), options)
                .map_err(|u| CoreError::Unsupported(u.reason)),
            _ => Err(CoreError::Unsupported("not a traversal query".into())),
        }
    }

    /// Execute a traversal with explicit physical-strategy options.
    pub fn query_with(
        &self,
        gremlin: &str,
        options: TranslateOptions,
    ) -> Result<Relation, CoreError> {
        let (prepared, binds) = self.prepared_query(gremlin, options)?;
        Ok(self.db.execute_prepared(&prepared, &binds)?)
    }

    /// The statement a traversal executes as and the values bound to its
    /// `?` parameters — what [`SqlGraph::query`] hands to
    /// [`Database::execute_prepared`]. It is the statement
    /// [`SqlGraph::translate_query_with`] prints after preparation has
    /// merged each single-use, column-only CTE into its reader
    /// ([`sqlgraph_rel::Prepared::statement`]): with the binds written in
    /// place of the `?`s it has fewer CTEs than the printed text, and the
    /// merged bodies' tables read under fresh aliases (`r"a`) no SQL text
    /// can spell.
    pub fn prepare_query(
        &self,
        gremlin: &str,
        options: TranslateOptions,
    ) -> Result<(Arc<Statement>, Vec<Value>), CoreError> {
        let (prepared, binds) = self.prepared_query(gremlin, options)?;
        Ok((prepared.statement().clone(), binds))
    }

    fn prepared_query(
        &self,
        gremlin: &str,
        options: TranslateOptions,
    ) -> Result<(Arc<Prepared>, Vec<Value>), CoreError> {
        match parse_lifted(gremlin)? {
            (GremlinStatement::Query(pipeline), lifted) => {
                self.prepared(&pipeline, lifted, options)
            }
            _ => Err(CoreError::Unsupported("not a traversal query".into())),
        }
    }

    /// The one way a traversal becomes an executable statement: look its
    /// shape up in the template cache — on a miss translate it with `?` at
    /// every lifted literal, parse that SQL once and cache the result (its
    /// plans are cached with it as it runs) — then bind this traversal's
    /// literals. `lifted` is what [`parse_lifted`] returned beside
    /// `pipeline`. Untranslatable pipelines return
    /// [`CoreError::Unsupported`] and cache nothing.
    fn prepared(
        &self,
        pipeline: &Pipeline,
        lifted: Lifted,
        options: TranslateOptions,
    ) -> Result<(Arc<Prepared>, Vec<Value>), CoreError> {
        let Lifted { shape, literals } = lifted;
        let key = TemplateKey { shape, options };
        let template = match self.templates.get(&key) {
            Some(template) => {
                self.template_hits.fetch_add(1, Ordering::Relaxed);
                template
            }
            None => {
                self.template_misses.fetch_add(1, Ordering::Relaxed);
                // Held from reading the layout to inserting the template:
                // see `bulk_load`.
                let layout = unpoison(self.layout.read());
                let (sql, slots) = translate_template(pipeline, &layout, options)
                    .map_err(|u| CoreError::Unsupported(u.reason))?;
                let (statement, params) = parse_statement_with_params(&sql)?;
                if params != slots.len() {
                    return Err(CoreError::Unsupported(format!(
                        "template has {params} parameters for {} lifted literals",
                        slots.len()
                    )));
                }
                let template = Template {
                    prepared: Arc::new(Prepared::new(statement)),
                    slots: slots.into(),
                };
                self.templates.insert(key, template.clone());
                template
            }
        };
        let binds = template
            .slots
            .iter()
            .map(|&slot| json_to_value(&literals[slot]))
            .collect();
        Ok((template.prepared, binds))
    }

    /// Evaluate a Gremlin traversal with the step-at-a-time interpreter
    /// over this store's Blueprints API (the chatty mode; used for
    /// differential testing and the Blueprints-style comparison).
    pub fn query_interpreted(&self, gremlin: &str) -> Result<Relation, CoreError> {
        let stmt = parse(gremlin)?;
        let elems = interp::execute(self, &stmt)?;
        Ok(elems_to_relation(elems))
    }

    // ------------------------------------------------------------------
    // CRUD (the paper's stored procedures)
    // ------------------------------------------------------------------

    /// Run `f` as one autocommit transaction, retrying a bounded number of
    /// times when it loses a first-updater-wins conflict. Each attempt
    /// re-runs the closure against a fresh snapshot, so its reads observe
    /// whatever the winning writer committed.
    fn retry_txn<T>(
        &self,
        f: impl Fn(&mut Txn<'_>) -> Result<T, CoreError>,
    ) -> Result<T, CoreError> {
        let mut retries = 0;
        loop {
            let mut tx = self.db.begin();
            // On an error `tx` drops unused, which rolls it back.
            match f(&mut tx).and_then(|v| Ok(tx.commit().map(|()| v)?)) {
                Err(CoreError::Rel(sqlgraph_rel::Error::TxnConflict(_)))
                    if retries + 1 < TXN_RETRIES =>
                {
                    std::thread::sleep(std::time::Duration::from_micros(1 << retries.min(9)));
                    retries += 1;
                }
                done => return done,
            }
        }
    }

    /// Open a multi-statement graph transaction.
    ///
    /// Every mutation issued through the returned handle is provisional
    /// until [`GraphTxn::commit`]; reads through the handle see the
    /// snapshot taken here plus the transaction's own writes, and nothing
    /// from writers that commit later (snapshot isolation). Dropping the
    /// handle rolls back. Any number of graph transactions and autocommit
    /// mutations run at once; see [`GraphTxn`] for how they conflict.
    pub fn transaction(&self) -> GraphTxn<'_> {
        GraphTxn {
            txn: self.db.begin(),
            layout: self.layout(),
            graph: self,
            conflicted: false,
        }
    }

    /// Add a vertex with properties; returns its id.
    pub fn add_vertex<'p>(
        &self,
        props: impl IntoIterator<Item = (&'p str, Json)>,
    ) -> Result<i64, CoreError> {
        let props: Vec<(String, Json)> =
            props.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        self.add_vertex_props(&props)
    }

    fn add_vertex_props(&self, props: &[(String, Json)]) -> Result<i64, CoreError> {
        let vid = self.next_vid.fetch_add(1, Ordering::SeqCst);
        let attr = Value::json(props_to_json(props));
        self.retry_txn(|tx| self.add_vertex_in(tx, vid, &attr))?;
        Ok(vid)
    }

    /// Insert the vertex attribute row and both empty primary adjacency
    /// rows inside `tx`.
    fn add_vertex_in(&self, tx: &mut Txn<'_>, vid: i64, attr: &Value) -> Result<(), CoreError> {
        tx.execute_with_params(
            "INSERT INTO va VALUES (?, ?)",
            &[Value::Int(vid), attr.clone()],
        )?;
        for pa in ["opa", "ipa"] {
            let rowno = self.next_rowno.fetch_add(1, Ordering::Relaxed);
            tx.execute_with_params(
                &format!("INSERT INTO {pa} (rowno, vid, spill) VALUES (?, ?, 0)"),
                &[Value::Int(rowno), Value::Int(vid)],
            )?;
        }
        Ok(())
    }

    /// Add an edge `src -label-> dst`; returns its id.
    pub fn add_edge<'p>(
        &self,
        src: i64,
        dst: i64,
        label: &str,
        props: impl IntoIterator<Item = (&'p str, Json)>,
    ) -> Result<i64, CoreError> {
        let props: Vec<(String, Json)> =
            props.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        self.add_edge_props(src, dst, label, &props)
    }

    fn add_edge_props(
        &self,
        src: i64,
        dst: i64,
        label: &str,
        props: &[(String, Json)],
    ) -> Result<i64, CoreError> {
        let attr = Value::json(props_to_json(props));
        let layout = self.layout();
        self.retry_txn(|tx| self.add_edge_in(tx, &layout, src, dst, label, &attr))
    }

    /// Check both endpoints, then insert the edge attribute/triple row and
    /// both adjacency entries inside `tx`; returns the new edge's id,
    /// allocated once both endpoints are known to exist.
    fn add_edge_in(
        &self,
        tx: &mut Txn<'_>,
        layout: &GraphLayout,
        src: i64,
        dst: i64,
        label: &str,
        attr: &Value,
    ) -> Result<i64, CoreError> {
        // The check reads the rows `attach` writes: a live vertex's rows
        // carry its id, a removed vertex's the negative mark. A vertex
        // with no row in a direction yet is checked and claimed by
        // rewriting its attribute row, which removal marks too.
        let src_rows = adjacency_rows(tx, layout, true, src, label)?;
        let dst_rows = adjacency_rows(tx, layout, false, dst, label)?;
        for (v, rows) in [(src, &src_rows), (dst, &dst_rows)] {
            if rows.is_empty() {
                let sql = "UPDATE va SET attr = attr WHERE vid = ?";
                let claimed = tx.execute_with_params(sql, &[Value::Int(v)])?;
                if claimed.scalar().and_then(Value::as_int).unwrap_or(0) == 0 {
                    return Err(no_vertex(v));
                }
            }
        }
        let eid = self.next_eid.fetch_add(1, Ordering::SeqCst);
        tx.execute_with_params(
            "INSERT INTO ea VALUES (?, ?, ?, ?, ?)",
            &[
                Value::Int(eid),
                Value::Int(src),
                Value::Int(dst),
                layout.label(label),
                attr.clone(),
            ],
        )?;
        self.attach(tx, layout, true, src, label, eid, dst, &src_rows)?;
        self.attach(tx, layout, false, dst, label, eid, src, &dst_rows)?;
        Ok(eid)
    }

    /// Insert `(label, eid, other)` into one direction's adjacency tables,
    /// given `vid`'s rows there ([`adjacency_rows`]).
    #[allow(clippy::too_many_arguments)] // (txn, layout, direction, vid, label, eid, other, rows) is the natural shape
    fn attach(
        &self,
        tx: &mut Txn<'_>,
        layout: &GraphLayout,
        out: bool,
        vid: i64,
        label: &str,
        eid: i64,
        other: i64,
        rows: &[Vec<Value>],
    ) -> sqlgraph_rel::Result<()> {
        let (pa, sa) = if out { ("opa", "osa") } else { ("ipa", "isa") };
        let col = if out {
            layout.out_column(label)
        } else {
            layout.in_column(label)
        };
        let written = if let Some(row) = rows.iter().find(|r| r[2].as_str() == Some(label)) {
            if row[3].is_null() {
                // Already multi-valued: append to the secondary table.
                tx.execute_with_params(
                    &format!("INSERT INTO {sa} VALUES (?, ?, ?)"),
                    &[row[4].clone(), Value::Int(eid), Value::Int(other)],
                )?;
                None
            } else {
                // Single → multi migration.
                let valid = MV_BASE + self.next_valid.fetch_add(1, Ordering::Relaxed);
                tx.execute_with_params(
                    &format!("INSERT INTO {sa} VALUES (?, ?, ?), (?, ?, ?)"),
                    &[
                        Value::Int(valid),
                        row[3].clone(),
                        row[4].clone(),
                        Value::Int(valid),
                        Value::Int(eid),
                        Value::Int(other),
                    ],
                )?;
                tx.execute_with_params(
                    &format!("UPDATE {pa} SET eid{col} = NULL, val{col} = ? WHERE rowno = ?"),
                    &[Value::Int(valid), row[0].clone()],
                )?;
                Some(&row[0])
            }
        } else if let Some(row) = rows.iter().find(|r| r[2].is_null()) {
            // Free triad on an existing row.
            tx.execute_with_params(
                &format!(
                    "UPDATE {pa} SET lbl{col} = ?, eid{col} = ?, val{col} = ? WHERE rowno = ?"
                ),
                &[
                    layout.label(label),
                    Value::Int(eid),
                    Value::Int(other),
                    row[0].clone(),
                ],
            )?;
            Some(&row[0])
        } else {
            // New row: primary if the vertex had none yet, spill otherwise.
            let spill = i64::from(!rows.is_empty());
            let rowno = self.next_rowno.fetch_add(1, Ordering::Relaxed);
            tx.execute_with_params(
                &format!(
                    "INSERT INTO {pa} (rowno, vid, spill, lbl{col}, eid{col}, val{col}) \
                     VALUES (?, ?, {spill}, ?, ?, ?)"
                ),
                &[
                    Value::Int(rowno),
                    Value::Int(vid),
                    layout.label(label),
                    Value::Int(eid),
                    Value::Int(other),
                ],
            )?;
            None
        };
        claim_primary(tx, pa, rows, written)
    }

    /// Remove `eid` (which joins `vid` to `other`) from one direction's
    /// adjacency tables.
    #[allow(clippy::too_many_arguments)] // (txn, layout, direction, vid, label, eid, other) is the natural shape
    fn detach(
        &self,
        tx: &mut Txn<'_>,
        layout: &GraphLayout,
        out: bool,
        vid: i64,
        label: &str,
        eid: i64,
        other: i64,
    ) -> sqlgraph_rel::Result<()> {
        let (pa, sa) = if out { ("opa", "osa") } else { ("ipa", "isa") };
        let col = if out {
            layout.out_column(label)
        } else {
            layout.in_column(label)
        };
        let rows = adjacency_rows(tx, layout, out, vid, label)?;
        let Some(row) = rows.iter().find(|r| r[2].as_str() == Some(label)) else {
            return Ok(()); // already detached (idempotent)
        };
        let clear = format!(
            "UPDATE {pa} SET lbl{col} = NULL, eid{col} = NULL, val{col} = NULL WHERE rowno = ?"
        );
        let written = if row[3].is_null() {
            // Multi-valued list: remove this edge's entry. Naming the
            // other endpoint lets the `(valid, val)` index find it without
            // walking the whole list.
            let valid = row[4].clone();
            tx.execute_with_params(
                &format!("DELETE FROM {sa} WHERE valid = ? AND val = ? AND eid = ?"),
                &[valid.clone(), Value::Int(other), Value::Int(eid)],
            )?;
            // An existence probe: the scan stops at the first entry left.
            let left = tx.execute_with_params(
                &format!("SELECT 1 FROM {sa} WHERE valid = ? LIMIT 1"),
                &[valid],
            )?;
            if left.rows.is_empty() {
                tx.execute_with_params(&clear, &[row[0].clone()])?;
                Some(&row[0])
            } else {
                None
            }
        } else if row[3].as_int() == Some(eid) {
            tx.execute_with_params(&clear, &[row[0].clone()])?;
            Some(&row[0])
        } else {
            None
        };
        claim_primary(tx, pa, &rows, written)
    }

    fn remove_edge_impl(&self, eid: i64) -> Result<(), CoreError> {
        let layout = self.layout();
        self.retry_txn(|tx| self.remove_edge_in(tx, &layout, eid))
    }

    /// Delete the edge row and detach both endpoints inside `tx`.
    fn remove_edge_in(
        &self,
        tx: &mut Txn<'_>,
        layout: &GraphLayout,
        eid: i64,
    ) -> Result<(), CoreError> {
        let rel = tx.execute_with_params(
            "SELECT inv, outv, lbl FROM ea WHERE eid = ?",
            &[Value::Int(eid)],
        )?;
        let Some(row) = rel.rows.first() else {
            return Err(sqlgraph_rel::Error::NotFound(format!("edge {eid}")).into());
        };
        let (src, dst) = (row[0].as_int().unwrap_or(-1), row[1].as_int().unwrap_or(-1));
        let label = row[2].as_str().unwrap_or("").to_string();
        tx.execute_with_params("DELETE FROM ea WHERE eid = ?", &[Value::Int(eid)])?;
        self.detach(tx, layout, true, src, &label, eid, dst)?;
        self.detach(tx, layout, false, dst, &label, eid, src)?;
        Ok(())
    }

    fn remove_vertex_impl(&self, vid: i64) -> Result<(), CoreError> {
        let layout = self.layout();
        self.retry_txn(|tx| self.remove_vertex_in(tx, &layout, vid))
    }

    /// The §4.5.2 vertex-removal procedure inside `tx`: mark the vertex's
    /// attribute row with the negative-ID tombstone, delete every incident
    /// edge and detach it from the *other* endpoint's adjacency, then mark
    /// the vertex's adjacency rows. The vertex's own adjacency is not
    /// detached edge by edge — the tombstone hides it, and
    /// [`SqlGraph::vacuum`] reclaims its lists.
    fn remove_vertex_in(
        &self,
        tx: &mut Txn<'_>,
        layout: &GraphLayout,
        vid: i64,
    ) -> Result<(), CoreError> {
        // Negative-ID marking (§4.5.2): cheap logical deletion of the
        // vertex's own rows; vacuum() removes them physically. Marking the
        // attribute row first is the existence check.
        let marked = Value::Int(deleted_id(vid));
        let rel = tx.execute_with_params(
            "UPDATE va SET vid = ? WHERE vid = ?",
            &[marked.clone(), Value::Int(vid)],
        )?;
        if rel.scalar().and_then(Value::as_int).unwrap_or(0) == 0 {
            return Err(no_vertex(vid));
        }
        // All incident edges via the redundant EA triple table.
        let mut incident: Vec<(i64, i64, i64, String)> = Vec::new();
        for key in ["inv", "outv"] {
            let rel = tx.execute_with_params(
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
        incident.sort_by_key(|(e, ..)| *e);
        incident.dedup_by_key(|(e, ..)| *e);
        for (eid, src, dst, label) in incident {
            tx.execute_with_params("DELETE FROM ea WHERE eid = ?", &[Value::Int(eid)])?;
            if src != vid {
                self.detach(tx, layout, true, src, &label, eid, dst)?;
            }
            if dst != vid {
                self.detach(tx, layout, false, dst, &label, eid, src)?;
            }
        }
        for pa in ["opa", "ipa"] {
            tx.execute_with_params(
                &format!("UPDATE {pa} SET vid = ? WHERE vid = ?"),
                &[marked.clone(), Value::Int(vid)],
            )?;
        }
        Ok(())
    }

    fn set_vertex_property_impl(&self, vid: i64, key: &str, value: &Json) -> Result<(), CoreError> {
        self.retry_txn(|tx| Self::set_property_in(tx, "va", "vid", vid, key, value))
    }

    fn set_edge_property_impl(&self, eid: i64, key: &str, value: &Json) -> Result<(), CoreError> {
        self.retry_txn(|tx| Self::set_property_in(tx, "ea", "eid", eid, key, value))
    }

    /// Read-modify-write of one element's JSON attribute document inside
    /// `tx`. `table`/`id_col` select the element kind (`va`/`vid` or
    /// `ea`/`eid`). Writing the row is what makes it conflict with a
    /// concurrent removal.
    fn set_property_in(
        tx: &mut Txn<'_>,
        table: &str,
        id_col: &str,
        id: i64,
        key: &str,
        value: &Json,
    ) -> Result<(), CoreError> {
        let rel = tx.execute_with_params(
            &format!("SELECT attr FROM {table} WHERE {id_col} = ?"),
            &[Value::Int(id)],
        )?;
        let Some(Value::Json(doc)) = rel.rows.first().and_then(|r| r.first()) else {
            let kind = if table == "va" { "vertex" } else { "edge" };
            return Err(sqlgraph_rel::Error::NotFound(format!("{kind} {id}")).into());
        };
        let mut doc = (**doc).clone();
        if let Some(obj) = doc.as_object_mut() {
            obj.insert(key, value.clone());
        }
        tx.execute_with_params(
            &format!("UPDATE {table} SET attr = ? WHERE {id_col} = ?"),
            &[Value::json(doc), Value::Int(id)],
        )?;
        Ok(())
    }

    /// Run a traversal under `EXPLAIN`: returns the relational engine's
    /// access-path decisions for the generated SQL.
    pub fn explain_query(&self, gremlin: &str) -> Result<Relation, CoreError> {
        let sql = self.translate_query(gremlin)?;
        Ok(self.db.execute(&format!("EXPLAIN {sql}"))?)
    }

    /// Create a functional index on a vertex attribute —
    /// `JSON_VAL(va.attr, key)` — the paper's "specialized indexes for
    /// attributes" (§3.3). Speeds `has('key', v)` filters, `g.V('key', v)`
    /// starts, and `vertices_by_property`.
    pub fn create_vertex_property_index(&self, key: &str) -> Result<(), CoreError> {
        let name = format!("va_attr_{}", sanitize_index_name(key));
        self.db.execute(&format!(
            "CREATE INDEX IF NOT EXISTS {name} ON va (JSON_VAL(attr, '{}')) USING BTREE",
            key.replace('\'', "''")
        ))?;
        Ok(())
    }

    /// Create a functional index on an edge attribute.
    pub fn create_edge_property_index(&self, key: &str) -> Result<(), CoreError> {
        let name = format!("ea_attr_{}", sanitize_index_name(key));
        self.db.execute(&format!(
            "CREATE INDEX IF NOT EXISTS {name} ON ea (JSON_VAL(attr, '{}')) USING BTREE",
            key.replace('\'', "''")
        ))?;
        Ok(())
    }

    /// Offline cleanup (§4.5.2): physically remove rows marked deleted.
    /// Each step is one ordinary autocommit statement.
    pub fn vacuum(&self) -> Result<usize, CoreError> {
        let mut removed = 0usize;
        for table in ["va", "opa", "ipa"] {
            let rel = self
                .db
                .execute(&format!("DELETE FROM {table} WHERE vid < 0"))?;
            removed += rel.scalar().and_then(Value::as_int).unwrap_or(0) as usize;
        }
        // Reclaim secondary-adjacency lists whose owning primary row is
        // gone (their list ids are no longer referenced by any triad).
        for (pa, sa, buckets) in [
            ("opa", "osa", self.config.out_buckets),
            ("ipa", "isa", self.config.in_buckets),
        ] {
            let triads: Vec<String> = (0..buckets).map(|i| format!("(p.val{i})")).collect();
            let rel = self.db.execute(&format!(
                "DELETE FROM {sa} WHERE valid NOT IN (                 SELECT t.v FROM {pa} p, TABLE(VALUES {}) AS t(v)                  WHERE t.v >= {MV_BASE})",
                triads.join(", "),
            ))?;
            removed += rel.scalar().and_then(Value::as_int).unwrap_or(0) as usize;
        }
        Ok(removed)
    }
}

/// `vid`'s rows in one direction's primary adjacency table, each as
/// `[rowno, spill, lbl, eid, val]` with `label`'s triad.
fn adjacency_rows(
    tx: &mut Txn<'_>,
    layout: &GraphLayout,
    out: bool,
    vid: i64,
    label: &str,
) -> sqlgraph_rel::Result<Vec<Vec<Value>>> {
    let (pa, col) = if out {
        ("opa", layout.out_column(label))
    } else {
        ("ipa", layout.in_column(label))
    };
    let rel = tx.execute_with_params(
        &format!("SELECT rowno, spill, lbl{col}, eid{col}, val{col} FROM {pa} WHERE vid = ?"),
        &[Value::Int(vid)],
    )?;
    Ok(rel.rows)
}

/// Finish an `attach` or `detach` of a vertex whose rows in `pa` are
/// `rows` by making sure it wrote the vertex's primary row (`spill = 0`):
/// rewrite that row unchanged unless the change was to it (`written`).
/// This materializes the conflict (Fekete et al., *Making Snapshot
/// Isolation Serializable*, TODS 2005) that [`GraphTxn`] describes:
/// without it, an `add_edge` appending to a multi-valued list writes only
/// the secondary table, and could slip past a removal of its endpoint.
fn claim_primary(
    tx: &mut Txn<'_>,
    pa: &str,
    rows: &[Vec<Value>],
    written: Option<&Value>,
) -> sqlgraph_rel::Result<()> {
    let Some(primary) = rows.iter().find(|r| r[1].as_int() == Some(0)) else {
        return Ok(());
    };
    if written != Some(&primary[0]) {
        tx.execute_with_params(
            &format!("UPDATE {pa} SET spill = 0 WHERE rowno = ?"),
            &[primary[0].clone()],
        )?;
    }
    Ok(())
}

fn no_vertex(vid: i64) -> CoreError {
    CoreError::Graph(GraphError::new(format!("no vertex {vid}")))
}

/// Compute the §3.2 coloring layout from a graph's per-vertex label sets.
fn layout_for(config: &SchemaConfig, data: &GraphData) -> GraphLayout {
    let mut out_labels: BTreeMap<i64, BTreeSet<&str>> = BTreeMap::new();
    let mut in_labels: BTreeMap<i64, BTreeSet<&str>> = BTreeMap::new();
    let mut labels = HashMap::new();
    for (_, src, dst, label, _) in &data.edges {
        out_labels.entry(*src).or_default().insert(label);
        in_labels.entry(*dst).or_default().insert(label);
        if !labels.contains_key(label) {
            labels.insert(label.clone(), Value::str(label));
        }
    }
    GraphLayout {
        out: color_labels(
            out_labels
                .values()
                .map(|s| s.iter().copied().collect::<Vec<_>>()),
            config.out_buckets,
        ),
        incoming: color_labels(
            in_labels
                .values()
                .map(|s| s.iter().copied().collect::<Vec<_>>()),
            config.in_buckets,
        ),
        out_buckets: config.out_buckets,
        in_buckets: config.in_buckets,
        labels,
    }
}

// ----------------------------------------------------------------------
// Multi-statement graph transactions
// ----------------------------------------------------------------------

/// A multi-statement graph transaction with snapshot isolation.
///
/// Created by [`SqlGraph::transaction`]. Mutations buffer provisionally in
/// the underlying relational transaction and become visible atomically at
/// [`GraphTxn::commit`]; [`GraphTxn::query`] runs traversals against the
/// transaction's snapshot plus its own writes. Dropping the handle without
/// committing rolls everything back — including a partially applied
/// vertex-removal procedure, which is exactly the multi-table update the
/// paper runs as a stored-procedure transaction (§4.5.2).
///
/// Graph transactions run concurrently with each other and with autocommit
/// mutations; the engine's first-updater-wins check is the only
/// concurrency control. Every change to a vertex's adjacency writes the
/// vertex's primary adjacency row in that direction, and vertex removal
/// marks all its rows, so two transactions that change one vertex's
/// adjacency in one direction, or change it and remove the vertex,
/// conflict: the later writer's call, or its commit, fails with
/// [`sqlgraph_rel::Error::TxnConflict`]. Such a transaction cannot commit
/// (its `commit` returns the conflict and rolls back); retry it from
/// [`SqlGraph::transaction`]. Autocommit mutations retry by themselves.
pub struct GraphTxn<'g> {
    graph: &'g SqlGraph,
    txn: Txn<'g>,
    /// Layout frozen at `transaction()`. Only `bulk_load` replaces the
    /// layout, and it is meant for a fresh store, not one in use.
    layout: Arc<GraphLayout>,
    /// A call lost a write-write conflict, possibly after writing part of
    /// a graph procedure (an `ea` row without its adjacency, say), so the
    /// transaction must not commit.
    conflicted: bool,
}

impl<'g> GraphTxn<'g> {
    /// Add a vertex with properties; returns its id.
    ///
    /// The id is allocated eagerly from the store's counter; rolling the
    /// transaction back leaves a gap in the id space (standard sequence
    /// semantics).
    pub fn add_vertex(&mut self, props: &[(String, Json)]) -> Result<i64, CoreError> {
        let vid = self.graph.next_vid.fetch_add(1, Ordering::SeqCst);
        let attr = Value::json(props_to_json(props));
        self.graph.add_vertex_in(&mut self.txn, vid, &attr)?;
        Ok(vid)
    }

    /// Add an edge `src -label-> dst`; returns its id. Endpoints created
    /// earlier in this transaction are valid targets.
    pub fn add_edge(
        &mut self,
        src: i64,
        dst: i64,
        label: &str,
        props: &[(String, Json)],
    ) -> Result<i64, CoreError> {
        let attr = Value::json(props_to_json(props));
        let added = self
            .graph
            .add_edge_in(&mut self.txn, &self.layout, src, dst, label, &attr);
        self.noting(added)
    }

    /// Remove a vertex and all incident edges (the §4.5.2 negative-ID
    /// procedure), atomically with the rest of this transaction.
    pub fn remove_vertex(&mut self, vid: i64) -> Result<(), CoreError> {
        let removed = self
            .graph
            .remove_vertex_in(&mut self.txn, &self.layout, vid);
        self.noting(removed)
    }

    /// Remove an edge.
    pub fn remove_edge(&mut self, eid: i64) -> Result<(), CoreError> {
        let removed = self.graph.remove_edge_in(&mut self.txn, &self.layout, eid);
        self.noting(removed)
    }

    /// Set (or replace) a vertex property.
    pub fn set_vertex_property(
        &mut self,
        vid: i64,
        key: &str,
        value: &Json,
    ) -> Result<(), CoreError> {
        let set = SqlGraph::set_property_in(&mut self.txn, "va", "vid", vid, key, value);
        self.noting(set)
    }

    /// Set (or replace) an edge property.
    pub fn set_edge_property(
        &mut self,
        eid: i64,
        key: &str,
        value: &Json,
    ) -> Result<(), CoreError> {
        let set = SqlGraph::set_property_in(&mut self.txn, "ea", "eid", eid, key, value);
        self.noting(set)
    }

    /// Execute a Gremlin statement inside this transaction. Traversals
    /// compile to a single SQL statement evaluated against the
    /// transaction's snapshot (plus its own writes); CRUD statements route
    /// to the transactional mutation methods. The interpreter fallback is
    /// not available here — it reads through the autocommit Blueprints
    /// API, which would escape the snapshot — so non-translatable
    /// traversals return [`CoreError::Unsupported`].
    pub fn query(&mut self, gremlin: &str) -> Result<Relation, CoreError> {
        let (statement, lifted) = parse_lifted(gremlin)?;
        match statement {
            GremlinStatement::Query(pipeline) => {
                let (prepared, binds) =
                    self.graph
                        .prepared(&pipeline, lifted, TranslateOptions::default())?;
                Ok(self.txn.execute_prepared(&prepared, &binds)?)
            }
            GremlinStatement::AddVertex { props } => {
                let id = self.add_vertex(&props)?;
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
                let id = self.add_edge(src, dst, &label, &props)?;
                Ok(Relation::new(
                    vec!["val".into()],
                    vec![vec![Value::Int(id)]],
                ))
            }
            GremlinStatement::RemoveVertex { id } => {
                self.remove_vertex(id)?;
                Ok(Relation::new(vec!["val".into()], vec![]))
            }
            GremlinStatement::RemoveEdge { id } => {
                self.remove_edge(id)?;
                Ok(Relation::new(vec!["val".into()], vec![]))
            }
            GremlinStatement::SetVertexProperty { id, key, value } => {
                self.set_vertex_property(id, &key, &value)?;
                Ok(Relation::new(vec!["val".into()], vec![]))
            }
            GremlinStatement::SetEdgeProperty { id, key, value } => {
                self.set_edge_property(id, &key, &value)?;
                Ok(Relation::new(vec!["val".into()], vec![]))
            }
        }
    }

    /// Run raw SQL inside this transaction (inspection, tests).
    pub fn sql(&mut self, statement: &str) -> Result<Relation, CoreError> {
        self.sql_with_params(statement, &[])
    }

    /// Run raw SQL with positional `?` parameters inside this transaction.
    pub fn sql_with_params(
        &mut self,
        statement: &str,
        params: &[Value],
    ) -> Result<Relation, CoreError> {
        let ran = self.txn.execute_with_params(statement, params);
        self.noting(ran.map_err(CoreError::from))
    }

    /// Pass `result` through, remembering a lost conflict.
    fn noting<T>(&mut self, result: Result<T, CoreError>) -> Result<T, CoreError> {
        if let Err(CoreError::Rel(sqlgraph_rel::Error::TxnConflict(_))) = &result {
            self.conflicted = true;
        }
        result
    }

    /// SQL statements executed so far in this transaction. Graph calls
    /// like [`GraphTxn::add_edge`] run several; benchmarks that model a
    /// plain-SQL client charge one round trip per statement.
    pub fn statements_executed(&self) -> u64 {
        self.txn.statements_executed()
    }

    /// Make every buffered mutation visible atomically. After a call lost
    /// a conflict this rolls back and returns the conflict instead.
    pub fn commit(self) -> Result<(), CoreError> {
        if self.conflicted {
            let lost = "an earlier call of this transaction lost a write-write conflict";
            return Err(sqlgraph_rel::Error::TxnConflict(lost.into()).into());
        }
        Ok(self.txn.commit()?)
    }

    /// Discard every buffered mutation (also what `Drop` does).
    pub fn rollback(self) {
        self.txn.rollback();
    }
}

impl GraphTransaction for GraphTxn<'_> {
    fn add_vertex(&mut self, props: &[(String, Json)]) -> GraphResult<i64> {
        GraphTxn::add_vertex(self, props).map_err(to_graph_error)
    }

    fn add_edge(
        &mut self,
        src: i64,
        dst: i64,
        label: &str,
        props: &[(String, Json)],
    ) -> GraphResult<i64> {
        GraphTxn::add_edge(self, src, dst, label, props).map_err(to_graph_error)
    }

    fn remove_vertex(&mut self, v: i64) -> GraphResult<()> {
        GraphTxn::remove_vertex(self, v).map_err(to_graph_error)
    }

    fn remove_edge(&mut self, e: i64) -> GraphResult<()> {
        GraphTxn::remove_edge(self, e).map_err(to_graph_error)
    }

    fn set_vertex_property(&mut self, v: i64, key: &str, value: &Json) -> GraphResult<()> {
        GraphTxn::set_vertex_property(self, v, key, value).map_err(to_graph_error)
    }

    fn set_edge_property(&mut self, e: i64, key: &str, value: &Json) -> GraphResult<()> {
        GraphTxn::set_edge_property(self, e, key, value).map_err(to_graph_error)
    }

    fn commit(self: Box<Self>) -> GraphResult<()> {
        GraphTxn::commit(*self).map_err(to_graph_error)
    }

    fn rollback(self: Box<Self>) {
        GraphTxn::rollback(*self);
    }
}

/// Lower-case alphanumeric identifier fragment from a property key.
fn sanitize_index_name(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// Properties → a JSON object document.
pub fn props_to_json(props: &[(String, Json)]) -> Json {
    Json::Object(
        props
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect::<JsonObject>(),
    )
}

/// Engine value → JSON (for Blueprints property reads).
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::int(*i),
        Value::Double(f) => Json::float(*f),
        Value::Str(s) => Json::str(s.as_ref()),
        Value::Json(j) => (**j).clone(),
        Value::Array(items) => Json::Array(items.iter().map(value_to_json).collect()),
    }
}

pub(crate) fn elems_to_relation(elems: Vec<interp::Elem>) -> Relation {
    Relation::new(
        vec!["val".into()],
        elems
            .into_iter()
            .map(|e| {
                vec![match e {
                    interp::Elem::Vertex(v) | interp::Elem::Edge(v) => Value::Int(v),
                    interp::Elem::Value(j) => sqlgraph_rel::expr::json_to_value(&j),
                }]
            })
            .collect(),
    )
}

// ----------------------------------------------------------------------
// Blueprints: the chatty per-call API over the same tables.
// ----------------------------------------------------------------------

impl Blueprints for SqlGraph {
    fn vertex_ids(&self) -> Vec<i64> {
        self.db
            .execute("SELECT vid FROM va WHERE vid >= 0")
            .map(|r| r.int_column())
            .unwrap_or_default()
    }

    fn edge_ids(&self) -> Vec<i64> {
        self.db
            .execute("SELECT eid FROM ea")
            .map(|r| r.int_column())
            .unwrap_or_default()
    }

    fn vertex_exists(&self, v: i64) -> bool {
        self.db
            .execute_with_params("SELECT vid FROM va WHERE vid = ?", &[Value::Int(v)])
            .map(|r| !r.rows.is_empty())
            .unwrap_or(false)
    }

    fn edge_exists(&self, e: i64) -> bool {
        self.db
            .execute_with_params("SELECT eid FROM ea WHERE eid = ?", &[Value::Int(e)])
            .map(|r| !r.rows.is_empty())
            .unwrap_or(false)
    }

    fn edges_of(&self, v: i64, dir: Direction, labels: &[String]) -> Vec<i64> {
        let mut out = Vec::new();
        let lbl_filter = if labels.is_empty() {
            String::new()
        } else {
            let list: Vec<String> = labels
                .iter()
                .map(|l| format!("'{}'", l.replace('\'', "''")))
                .collect();
            format!(" AND lbl IN ({})", list.join(", "))
        };
        if matches!(dir, Direction::Out | Direction::Both) {
            if let Ok(r) = self.db.execute_with_params(
                &format!("SELECT eid FROM ea WHERE inv = ?{lbl_filter}"),
                &[Value::Int(v)],
            ) {
                out.extend(r.int_column());
            }
        }
        if matches!(dir, Direction::In | Direction::Both) {
            if let Ok(r) = self.db.execute_with_params(
                &format!("SELECT eid FROM ea WHERE outv = ?{lbl_filter}"),
                &[Value::Int(v)],
            ) {
                out.extend(r.int_column());
            }
        }
        out
    }

    fn adjacent(&self, v: i64, dir: Direction, labels: &[String]) -> Vec<i64> {
        // Single-hop neighbor lookups use the redundant EA table (§3.5).
        let mut out = Vec::new();
        let lbl_filter = if labels.is_empty() {
            String::new()
        } else {
            let list: Vec<String> = labels
                .iter()
                .map(|l| format!("'{}'", l.replace('\'', "''")))
                .collect();
            format!(" AND lbl IN ({})", list.join(", "))
        };
        if matches!(dir, Direction::Out | Direction::Both) {
            if let Ok(r) = self.db.execute_with_params(
                &format!("SELECT outv FROM ea WHERE inv = ?{lbl_filter}"),
                &[Value::Int(v)],
            ) {
                out.extend(r.int_column());
            }
        }
        if matches!(dir, Direction::In | Direction::Both) {
            if let Ok(r) = self.db.execute_with_params(
                &format!("SELECT inv FROM ea WHERE outv = ?{lbl_filter}"),
                &[Value::Int(v)],
            ) {
                out.extend(r.int_column());
            }
        }
        out
    }

    fn edge_label(&self, e: i64) -> Option<String> {
        self.db
            .execute_with_params("SELECT lbl FROM ea WHERE eid = ?", &[Value::Int(e)])
            .ok()?
            .rows
            .first()
            .and_then(|r| r[0].as_str().map(str::to_string))
    }

    fn edge_source(&self, e: i64) -> Option<i64> {
        self.db
            .execute_with_params("SELECT inv FROM ea WHERE eid = ?", &[Value::Int(e)])
            .ok()?
            .rows
            .first()
            .and_then(|r| r[0].as_int())
    }

    fn edge_target(&self, e: i64) -> Option<i64> {
        self.db
            .execute_with_params("SELECT outv FROM ea WHERE eid = ?", &[Value::Int(e)])
            .ok()?
            .rows
            .first()
            .and_then(|r| r[0].as_int())
    }

    fn vertex_property(&self, v: i64, key: &str) -> Option<Json> {
        let rel = self
            .db
            .execute_with_params(
                "SELECT JSON_VAL(attr, ?) FROM va WHERE vid = ?",
                &[Value::str(key), Value::Int(v)],
            )
            .ok()?;
        let value = rel.rows.first()?.first()?;
        if value.is_null() {
            None
        } else {
            Some(value_to_json(value))
        }
    }

    fn edge_property(&self, e: i64, key: &str) -> Option<Json> {
        let rel = self
            .db
            .execute_with_params(
                "SELECT JSON_VAL(attr, ?) FROM ea WHERE eid = ?",
                &[Value::str(key), Value::Int(e)],
            )
            .ok()?;
        let value = rel.rows.first()?.first()?;
        if value.is_null() {
            None
        } else {
            Some(value_to_json(value))
        }
    }

    fn vertices_by_property(&self, key: &str, value: &Json) -> Vec<i64> {
        let engine_value = sqlgraph_rel::expr::json_to_value(value);
        self.db
            .execute_with_params(
                "SELECT vid FROM va WHERE vid >= 0 AND JSON_VAL(attr, ?) = ?",
                &[Value::str(key), engine_value],
            )
            .map(|r| r.int_column())
            .unwrap_or_default()
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

pub(crate) fn to_graph_error(e: CoreError) -> GraphError {
    GraphError::new(e.to_string())
}
