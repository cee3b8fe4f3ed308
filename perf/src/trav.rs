//! `trav`: Gremlin traversals on the DBpedia-like graph, in groups of
//! three point traversals and one set traversal.
//!
//! The two classes stress different layers and, by construction, land in
//! different metrics: `p50_us` is a point traversal (front-end-bound:
//! every text is new, so each pays Gremlin parse → translate → SQL parse
//! → plan), `p95_us` is a set traversal, and
//! `ops_per_s` is almost all set-class time (CSR, factorized, batch and
//! hash-join executors).

use crate::host;
use crate::inputs::{self, TravPlan, POINTS_PER_GROUP, POINT_TEMPLATES, SET_TEMPLATES};
use crate::measure::{check, metric, timed, Cfg, Check, Metric, Window, Workload};
use crate::stats::{self, P50, P95, P99};
use crate::trace::{Name, Spans, Tracer, COVERAGE_FLOOR};
use sqlgraph_core::{translate, GraphData, SqlGraph};
use sqlgraph_gremlin::GremlinStatement;
use sqlgraph_rel::Relation;
use std::collections::HashMap;
use std::time::Instant;

/// Vertex attribute keys the paper indexes (§3.3) and the queries use.
const INDEXED_KEYS: [&str; 7] = [
    "uri",
    "name",
    "national",
    "genre",
    "regionAffiliation",
    "wikiPageID",
    "bucket",
];

/// Ops the p50 and p95 ranks must keep on either side inside their class.
const MIN_RANK_MARGIN: usize = 10;

pub struct Trav {
    data: GraphData,
    plan: TravPlan,
    /// `result_digest` of the interpreter's answer, per op.
    expected: Vec<u64>,
    placement: stats::Placement,
    /// One traversal of every template: the warm-up pass.
    warmup: Vec<String>,
    /// lq9's text, for the CSR rebuild measurement.
    lq9: String,
}

/// The store, and what a traced window counted beside its spans.
pub struct TravStore {
    graph: SqlGraph,
    /// SQL bytes translated, by class.
    sql_bytes: [u64; 2],
    /// Process CPU seconds spent in set-class requests.
    set_cpu_s: f64,
}

fn build_store(data: &GraphData) -> Result<SqlGraph, String> {
    let graph = inputs::in_memory_store(data)?;
    for key in INDEXED_KEYS {
        graph
            .create_vertex_property_index(key)
            .map_err(|e| format!("index on {key}: {e}"))?;
    }
    Ok(graph)
}

impl Trav {
    const FULL_GROUPS: usize = 1_260;

    pub fn new(cfg: &Cfg) -> Result<Trav, String> {
        let groups = cfg.scaled(Self::FULL_GROUPS);
        // Smoke runs are too short to place a percentile; they only show
        // that the harness works.
        let margin = if cfg.smoke { 0 } else { MIN_RANK_MARGIN };
        let placement =
            stats::trav_placement(groups.max(SET_TEMPLATES.len()), POINTS_PER_GROUP, margin)
                .map_err(|e| format!("trav cannot place its percentiles: {e}"))?;

        let mut graph = inputs::dbpedia_graph();
        let data = inputs::take_data(&mut graph);
        inputs::guard(
            "the DBpedia-like dataset",
            inputs::hash_graph(&data),
            inputs::PINNED_DBPEDIA_GRAPH,
        )?;
        let plan = inputs::trav_plan(&graph, cfg.seed, groups.max(SET_TEMPLATES.len()));
        if cfg.default_inputs() {
            inputs::guard(
                "the traversal stream",
                inputs::hash_trav_ops(&graph, cfg.seed),
                inputs::PINNED_TRAV_OPS,
            )?;
        }

        // The oracle: the step-at-a-time interpreter's answer to every
        // distinct text, computed once on a store of its own. This is the
        // benchmark's cost, not the system's, so it is outside `setup_s`.
        let oracle_store = build_store(&data)?;
        let mut by_text: HashMap<&str, u64> = HashMap::new();
        let mut expected = Vec::with_capacity(plan.ops.len());
        for op in &plan.ops {
            let digest = match by_text.get(op.gremlin.as_str()) {
                Some(d) => *d,
                None => {
                    let rel = oracle_store
                        .query_interpreted(&op.gremlin)
                        .map_err(|e| format!("interpreter on {}: {e}", op.gremlin))?;
                    let d = inputs::result_digest(&rel);
                    by_text.insert(&op.gremlin, d);
                    d
                }
            };
            expected.push(digest);
        }
        drop(by_text);
        Ok(Trav {
            warmup: inputs::trav_warmup(&graph),
            lq9: inputs::set_gremlin(&graph, "lq9"),
            data,
            plan,
            expected,
            placement,
        })
    }
}

const CLASSES: [&str; 2] = ["point", "set"];

/// Span names: per class, and the execute span per set template.
struct TravNames {
    request: [Name; 2],
    parse: [Name; 2],
    translate: [Name; 2],
    prepare: [Name; 2],
    /// Execute spans by template; every point template shares one.
    execute: Vec<Name>,
}

const REQUEST_SPANS: [&str; 2] = ["trav.request.point", "trav.request.set"];
const PARSE_SPANS: [&str; 2] = ["gremlin.parse.point", "gremlin.parse.set"];
const TRANSLATE_SPANS: [&str; 2] = ["core.translate.point", "core.translate.set"];
const PREPARE_SPANS: [&str; 2] = ["rel.sql.parse.point", "rel.sql.parse.set"];
const POINT_EXECUTE_SPAN: &str = "rel.db.execute.point";

/// The execute span of each set template, in [`SET_TEMPLATES`] order.
const SET_EXECUTE_SPANS: [&str; 20] = [
    "rel.db.execute.lq1",
    "rel.db.execute.lq2",
    "rel.db.execute.lq3",
    "rel.db.execute.lq4",
    "rel.db.execute.lq5",
    "rel.db.execute.lq6",
    "rel.db.execute.lq8",
    "rel.db.execute.lq9",
    "rel.db.execute.lq10",
    "rel.db.execute.lq11",
    "rel.db.execute.dq5",
    "rel.db.execute.dq6",
    "rel.db.execute.dq8",
    "rel.db.execute.dq9",
    "rel.db.execute.dq10",
    "rel.db.execute.dq12",
    "rel.db.execute.dq14",
    "rel.db.execute.dq15",
    "rel.db.execute.dq18",
    "rel.db.execute.dq19",
];

impl TravNames {
    fn new<S: Spans>(spans: &mut S, plan: &TravPlan) -> TravNames {
        let execute = (0..plan.templates.len())
            .map(|t| match t.checked_sub(POINT_TEMPLATES.len()) {
                None => spans.name(POINT_EXECUTE_SPAN),
                Some(set) => spans.name(SET_EXECUTE_SPANS[set]),
            })
            .collect();
        TravNames {
            request: REQUEST_SPANS.map(|n| spans.name(n)),
            parse: PARSE_SPANS.map(|n| spans.name(n)),
            translate: TRANSLATE_SPANS.map(|n| spans.name(n)),
            prepare: PREPARE_SPANS.map(|n| spans.name(n)),
            execute,
        }
    }
}

impl Workload for Trav {
    type Store = TravStore;
    const NAME: &'static str = "trav";

    fn facts(&self) -> Vec<(String, String)> {
        let p = self.placement;
        vec![
            ("ops".into(), self.plan.ops.len().to_string()),
            (
                "groups".into(),
                format!(
                    "{} x ({POINTS_PER_GROUP} point + 1 set)",
                    self.plan.ops.len() / (POINTS_PER_GROUP + 1)
                ),
            ),
            (
                "dataset".into(),
                format!(
                    "{} vertices, {} edges",
                    self.data.vertices.len(),
                    self.data.edges.len()
                ),
            ),
            ("store".into(), "in memory, no WAL".into()),
            ("pinned_cpu".into(), "unpinned: by design".into()),
            (
                "rank_margins".into(),
                format!(
                    "p50 {}/{} inside the point class, p95 {}/{} inside the set class",
                    p.p50.0, p.p50.1, p.p95.0, p.p95.1
                ),
            ),
        ]
    }

    fn ops(&self) -> usize {
        self.plan.ops.len()
    }

    fn setup(&self, _traced: bool) -> Result<TravStore, String> {
        let graph = build_store(&self.data)?;
        for q in &self.warmup {
            graph.query(q).map_err(|e| format!("warm-up {q}: {e}"))?;
        }
        Ok(TravStore {
            graph,
            sql_bytes: [0; 2],
            set_cpu_s: 0.0,
        })
    }

    fn window<S: Spans>(&self, store: &mut TravStore, spans: &mut S) -> Window {
        let names = TravNames::new(spans, &self.plan);
        let graph = &store.graph;
        let db = graph.database();
        let (mut sql_bytes, mut set_cpu_s) = ([0u64; 2], 0.0);
        // With tracing on, a request is the public calls `SqlGraph::query`
        // makes, one span each; with it off, `query` itself.
        let mut traced_query = |spans: &mut S, q: &str, t: usize| -> Result<Relation, String> {
            let c = usize::from(!self.plan.is_point(t));
            spans.enter(names.request[c]);
            let mut calls = || {
                let stmt = spans
                    .span(names.parse[c], || sqlgraph_gremlin::parse(q))
                    .map_err(|e| e.to_string())?;
                let GremlinStatement::Query(pipeline) = stmt else {
                    return Err(format!("{q} is not a traversal"));
                };
                let sql = spans
                    .span(names.translate[c], || translate(&pipeline, &graph.layout()))
                    .map_err(|e| format!("{q} is not translatable: {e}"))?;
                sql_bytes[c] += sql.len() as u64;
                spans
                    .span(names.prepare[c], || db.prepare(&sql))
                    .map_err(|e| e.to_string())?;
                spans
                    .span(names.execute[t], || db.execute(&sql))
                    .map_err(|e| e.to_string())
            };
            let out = calls();
            spans.exit();
            out
        };
        // One cycle of the set templates is the stream's repeating unit.
        let window = timed(
            self.plan.ops.len(),
            SET_TEMPLATES.len() * (POINTS_PER_GROUP + 1),
            |i| {
                let op = &self.plan.ops[i];
                if !S::ON {
                    return graph.query(&op.gremlin).map_err(|e| e.to_string());
                }
                if self.plan.is_point(op.template) {
                    return traced_query(spans, &op.gremlin, op.template);
                }
                let cpu0 = host::process_cpu_seconds();
                let out = traced_query(spans, &op.gremlin, op.template);
                set_cpu_s += host::process_cpu_seconds() - cpu0;
                out
            },
            |i, out| out.is_ok_and(|rel| inputs::result_digest(&rel) == self.expected[i]),
        );
        (store.sql_bytes, store.set_cpu_s) = (sql_bytes, set_cpu_s);
        window
    }

    fn verify(&self, store: &TravStore, window: &Window) -> Vec<Check> {
        let graph = &store.graph;
        // Which templates actually sit at the percentile ranks.
        let mut order: Vec<usize> = (0..window.lat_ns.len()).collect();
        order.sort_unstable_by_key(|&i| window.lat_ns[i]);
        let template_at = |p| {
            let i = order[stats::rank(order.len(), p) - 1];
            self.plan.templates[self.plan.ops[i].template]
        };
        let fallbacks = graph.fallback_count();
        let slowest_point = order
            .iter()
            .rev()
            .find(|&&i| self.plan.is_point(self.plan.ops[i].template))
            .map_or(0, |&i| window.lat_ns[i]);
        vec![
            check(
                "no_interpreter_fallback",
                fallbacks == 0,
                format!("core.store.fallbacks = {fallbacks}"),
            ),
            // Informative: which template sits at a rank is the engine's doing.
            check(
                "rank_templates",
                true,
                format!(
                    "p50 sample is a {}, p95 a {}, p99 a {}; slowest point traversal {} us; \
                     stmt_cache_len = {}",
                    template_at(P50),
                    template_at(P95),
                    template_at(P99),
                    slowest_point / 1_000,
                    graph.database().stmt_cache_len()
                ),
            ),
        ]
    }

    fn layers(
        &self,
        store: TravStore,
        tracer: &Tracer,
        _window: &Window,
    ) -> Result<(Vec<Metric>, Vec<Check>), String> {
        let graph = &store.graph;
        let db = graph.database();
        let mut out = Vec::new();
        let set_total = SET_EXECUTE_SPANS.iter().fold((0u64, 0u64), |(ns, n), s| {
            let a = tracer.agg(s);
            (ns + a.total_ns, n + a.count)
        });
        for (c, class) in CLASSES.iter().enumerate() {
            let requests = tracer.agg(REQUEST_SPANS[c]).count.max(1);
            let execute_us = if c == 0 {
                tracer.agg(POINT_EXECUTE_SPAN).mean_us()
            } else {
                set_total.0 as f64 / set_total.1.max(1) as f64 / 1e3
            };
            out.extend([
                metric(
                    format!("gremlin.parse_us.{class}"),
                    tracer.agg(PARSE_SPANS[c]).mean_us(),
                    "us",
                ),
                metric(
                    format!("core.translate_us.{class}"),
                    tracer.agg(TRANSLATE_SPANS[c]).mean_us(),
                    "us",
                ),
                metric(
                    format!("core.translate.sql_bytes.{class}"),
                    store.sql_bytes[c] as f64 / requests as f64,
                    "B",
                ),
                metric(
                    format!("rel.sql.parse_us.{class}"),
                    tracer.agg(PREPARE_SPANS[c]).mean_us(),
                    "us",
                ),
                metric(format!("rel.db.execute_us.{class}"), execute_us, "us"),
            ]);
        }
        for (t, span) in SET_TEMPLATES.iter().zip(SET_EXECUTE_SPANS) {
            if LAYER_TEMPLATES.contains(t) {
                out.push(metric(
                    format!("rel.db.execute_ms.{t}"),
                    tracer.agg(span).mean_us() / 1e3,
                    "ms",
                ));
            }
        }

        let set_wall_s = tracer.agg(REQUEST_SPANS[1]).total_ns as f64 / 1e9;
        out.extend([
            metric("rel.csr.builds", db.csr_builds() as f64, "count"),
            metric("rel.csr.cache_len", db.csr_cache_len() as f64, "count"),
            metric(
                "rel.parallel.cpu_wall_ratio",
                store.set_cpu_s / set_wall_s.max(1e-9),
                "ratio",
            ),
            metric(
                "core.store.fallbacks",
                graph.fallback_count() as f64,
                "count",
            ),
        ]);

        // Rebuilding the adjacency lists lq9 expands through (CSR entries
        // over OPA and IPA): lq9 right after invalidation, minus lq9 warm.
        let time_ms = || -> Result<f64, String> {
            let t = Instant::now();
            graph.query(&self.lq9).map_err(|e| e.to_string())?;
            Ok(t.elapsed().as_secs_f64() * 1e3)
        };
        let warm = stats::median(&[time_ms()?, time_ms()?, time_ms()?]);
        let builds = db.csr_builds();
        db.invalidate_csr("opa");
        db.invalidate_csr("ipa");
        let cold = time_ms()?;
        out.push(metric("rel.csr.rebuild_ms", cold - warm, "ms"));
        let rebuilt = db.csr_builds() - builds;

        let coverage = tracer.coverage(&REQUEST_SPANS);
        let checks = vec![
            check(
                "invalidation_forced_a_csr_rebuild",
                rebuilt > 0,
                format!("lq9 rebuilt {rebuilt} CSR entries after invalidate_csr(opa, ipa)"),
            ),
            // An interrupt that lands between two child spans is charged to
            // the request itself; a few requests in a thousand meet one.
            check(
                "child_spans_cover_requests",
                coverage >= COVERAGE_FLOOR && tracer.under_covered() * 100 <= tracer.requests(),
                format!(
                    "parse + translate + prepare + execute cover {:.2} % of request time; \
                 {} of {} requests under {:.0} %",
                    coverage * 100.0,
                    tracer.under_covered(),
                    tracer.requests(),
                    COVERAGE_FLOOR * 100.0
                ),
            ),
        ];
        Ok((out, checks))
    }
}

/// Set templates whose execute time is a per-layer metric of its own:
/// the long-path queries the CSR rule decides, and the heaviest query.
const LAYER_TEMPLATES: [&str; 11] = [
    "lq1", "lq2", "lq3", "lq4", "lq5", "lq6", "lq8", "lq9", "lq10", "lq11", "dq15",
];
