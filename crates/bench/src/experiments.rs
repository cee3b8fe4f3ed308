//! One function per paper artifact: each builds the workload, runs every
//! system, and returns a printable report. The `repro` binary is a thin
//! dispatcher over these.

use crate::linkops::{spin, LinkOps, RemoteMixedOps, SqlLinkOps};
use crate::setup::{build_kvgraph, build_nativegraph, build_sqlgraph, to_graph_data};
use crate::timing::{mean_time, ms, LatencyStats};
use sqlgraph_baselines::RemoteGraph;
use sqlgraph_core::alt::{JsonAdjacency, ShreddedAttrs};
use sqlgraph_core::{AdjacencyStrategy, SqlGraph, TranslateOptions};
use sqlgraph_datagen::dbpedia::{
    adjacency_queries, attribute_queries, benchmark_queries, generate as gen_dbpedia, path_queries,
    AttrFilter, DbpediaConfig, DbpediaGraph,
};
use sqlgraph_datagen::linkbench::{self, LinkBenchConfig, Workload};
use sqlgraph_gremlin::{interp, parse_query};
use sqlgraph_rel::Value;
use sqlgraph_server::Server;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrd};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Harness-wide knobs.
#[derive(Debug, Clone)]
pub struct ReproConfig {
    /// Scale multiplier on the DBpedia-like dataset.
    pub scale: f64,
    /// Timed runs per query (after one discarded warm-up).
    pub runs: usize,
    /// LinkBench graph sizes (node counts) for the throughput sweep.
    pub lb_nodes: Vec<usize>,
    /// Operations per requester in the throughput runs.
    pub lb_ops: usize,
    /// Requester counts.
    pub lb_requesters: Vec<usize>,
    /// Per-call overhead (µs) charged to the Blueprints baselines, and once
    /// per query/operation to SQLGraph — the documented stand-in for the
    /// 2015-era disk + JVM + server cost per storage access that our
    /// idealized in-memory baselines do not otherwise pay. Set to 0 for the
    /// fully idealized in-memory comparison.
    pub call_overhead_us: u64,
    /// Client counts for the connection-scalability sweep (`conn-sweep`).
    pub conn_counts: Vec<usize>,
}

impl Default for ReproConfig {
    fn default() -> Self {
        ReproConfig {
            scale: 1.0,
            runs: 3,
            lb_nodes: vec![1_000, 5_000, 20_000],
            lb_ops: 400,
            lb_requesters: vec![1, 10, 100],
            call_overhead_us: 20,
            conn_counts: vec![1, 8, 64, 256, 1024],
        }
    }
}

impl ReproConfig {
    /// A fast configuration for smoke tests.
    pub fn quick() -> ReproConfig {
        ReproConfig {
            scale: 0.15,
            runs: 1,
            lb_nodes: vec![500],
            lb_ops: 100,
            lb_requesters: vec![1, 4],
            call_overhead_us: 20,
            conn_counts: vec![1, 8, 64],
        }
    }

    fn dbpedia(&self) -> DbpediaGraph {
        gen_dbpedia(&DbpediaConfig::default().scaled(self.scale))
    }
}

fn count_of(rel: &sqlgraph_rel::Relation) -> i64 {
    rel.scalar()
        .and_then(Value::as_int)
        .unwrap_or(rel.rows.len() as i64)
}

// ---------------------------------------------------------------------------
// Figure 3 / Table 1 — adjacency micro-benchmark
// ---------------------------------------------------------------------------

/// Hash-shredded adjacency vs JSON-document adjacency on the 11 Table 1
/// traversals.
pub fn fig3(cfg: &ReproConfig) -> String {
    let g = cfg.dbpedia();
    let sql = build_sqlgraph(&g.data);
    let ja = JsonAdjacency::new().expect("schema");
    ja.load(&to_graph_data(&g.data)).expect("load");

    let force_hash = TranslateOptions {
        adjacency: AdjacencyStrategy::ForceHash,
        factorize: false,
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 3 / Table 1 — adjacency micro-benchmark ({} vertices, {} edges)",
        g.data.vertex_count(),
        g.data.edge_count()
    );
    let _ = writeln!(
        out,
        "{:<4} {:>5} {:>7} {:>10} {:>12} {:>12} {:>8}",
        "Q", "hops", "input", "result", "hash_ms", "json_ms", "ratio"
    );
    for q in adjacency_queries(&g) {
        // Hash arm: the Gremlin translation over OPA/OSA.
        let hash_result = sql.query_with(&q.gremlin, force_hash).expect("hash arm");
        let hash_count = count_of(&hash_result);
        let hash_t = mean_time(cfg.runs, || {
            let _ = sql.query_with(&q.gremlin, force_hash).expect("hash arm");
        });
        // JSON arm: the same traversal over the adjacency documents.
        let (seed, label, both) = json_arm_spec(&g, q.id, q.input_size);
        let json_result = if both {
            ja.khop_both(&seed, Some(label), q.hops).expect("json arm")
        } else {
            ja.khop(&seed, Some(label), q.hops).expect("json arm")
        };
        let json_count = count_of(&json_result);
        assert_eq!(
            hash_count, json_count,
            "arms disagree on query {} ({hash_count} vs {json_count})",
            q.id
        );
        let json_t = mean_time(cfg.runs, || {
            let _ = if both {
                ja.khop_both(&seed, Some(label), q.hops)
            } else {
                ja.khop(&seed, Some(label), q.hops)
            }
            .expect("json arm");
        });
        let ratio = json_t.as_secs_f64() / hash_t.as_secs_f64().max(1e-9);
        let _ = writeln!(
            out,
            "{:<4} {:>5} {:>7} {:>10} {:>12} {:>12} {:>7.1}x",
            q.id,
            q.hops,
            q.input_size,
            hash_count,
            ms(hash_t),
            ms(json_t),
            ratio
        );
    }
    let _ = writeln!(
        out,
        "(paper: hash mean 3.2s vs JSON mean 18.0s — JSON slower throughout)"
    );
    out
}

/// The JSON-arm seed filter matching each Table 1 query's Gremlin start.
fn json_arm_spec(g: &DbpediaGraph, id: usize, input: usize) -> (String, &'static str, bool) {
    if id <= 6 {
        (
            format!("JSON_VAL(attr, 'bucket') >= 0 AND JSON_VAL(attr, 'bucket') < {input}"),
            "isPartOf",
            false,
        )
    } else if input == 1 {
        (format!("vid = {}", g.ids.players.0), "team", true)
    } else {
        (
            format!(
                "JSON_VAL(attr, 'wikiPageID') < {}",
                20_000_000 + input as i64
            ),
            "team",
            true,
        )
    }
}

// ---------------------------------------------------------------------------
// Figure 4 / Table 2 — attribute lookup micro-benchmark
// ---------------------------------------------------------------------------

/// JSON attribute table vs shredded relational attribute table on the 16
/// Table 2 lookups.
pub fn fig4(cfg: &ReproConfig) -> String {
    let g = cfg.dbpedia();
    let sql = build_sqlgraph(&g.data);
    let shredded = ShreddedAttrs::build(&g.data.vertices, 6).expect("shred");

    let mut out = String::new();
    let _ = writeln!(out, "Figure 4 / Table 2 — vertex attribute lookups");
    let _ = writeln!(
        out,
        "{:<4} {:<22} {:<12} {:>8} {:>12} {:>12}",
        "Q", "attribute", "filter", "result", "json_ms", "hash_ms"
    );
    for q in attribute_queries() {
        let (json_sql, shred_sql, filter_name) = match &q.filter {
            AttrFilter::NotNull => (
                format!(
                    "SELECT COUNT(*) FROM va WHERE JSON_VAL(attr, '{}') IS NOT NULL",
                    q.key
                ),
                shredded.count_not_null_sql(q.key),
                "not null".to_string(),
            ),
            AttrFilter::Like(p) => (
                format!(
                    "SELECT COUNT(*) FROM va WHERE JSON_VAL(attr, '{}') LIKE '{p}'",
                    q.key
                ),
                shredded.count_like_sql(q.key, p),
                format!("like {p}"),
            ),
            AttrFilter::NumericEq(v) => (
                format!(
                    "SELECT COUNT(*) FROM va WHERE JSON_VAL(attr, '{}') = {v}",
                    q.key
                ),
                shredded.count_numeric_eq_sql(q.key, *v),
                format!("= {v}"),
            ),
            AttrFilter::IntEq(v) => (
                format!(
                    "SELECT COUNT(*) FROM va WHERE JSON_VAL(attr, '{}') = {v}",
                    q.key
                ),
                shredded.count_numeric_eq_sql(q.key, *v as f64),
                format!("= {v}"),
            ),
            AttrFilter::StrEq(v) => (
                format!(
                    "SELECT COUNT(*) FROM va WHERE JSON_VAL(attr, '{}') = '{v}'",
                    q.key
                ),
                shredded.count_string_eq_sql(q.key, v),
                format!("= {v}"),
            ),
        };
        let json_count = count_of(&sql.database().execute(&json_sql).expect("json arm"));
        let shred_count = count_of(&shredded.run(&shred_sql).expect("shred arm"));
        assert_eq!(
            json_count, shred_count,
            "arms disagree on attribute query {}",
            q.id
        );
        let json_t = mean_time(cfg.runs, || {
            let _ = sql.database().execute(&json_sql).expect("json arm");
        });
        let shred_t = mean_time(cfg.runs, || {
            let _ = shredded.run(&shred_sql).expect("shred arm");
        });
        let _ = writeln!(
            out,
            "{:<4} {:<22} {:<12} {:>8} {:>12} {:>12}",
            q.id,
            q.key,
            filter_name,
            json_count,
            ms(json_t),
            ms(shred_t)
        );
    }
    let _ = writeln!(
        out,
        "(paper: JSON mean 92ms vs shredded 265ms; ties on not-null)"
    );
    out
}

// ---------------------------------------------------------------------------
// Table 3 — hash table characteristics
// ---------------------------------------------------------------------------

/// The layout statistics table.
pub fn table3(cfg: &ReproConfig) -> String {
    let g = cfg.dbpedia();
    let sql = build_sqlgraph(&g.data);
    let (out_stats, in_stats) = sql.load_stats().expect("bulk load records stats");
    let attr_stats = ShreddedAttrs::build(&g.data.vertices, 6)
        .expect("shred")
        .stats()
        .clone();

    let mut out = String::new();
    let _ = writeln!(out, "Table 3 — hash table characteristics");
    let _ = writeln!(
        out,
        "{:<28} {:>14} {:>16} {:>16}",
        "", "VertexAttr", "OutAdjacency", "InAdjacency"
    );
    let rows: [(&str, String, String, String); 5] = [
        (
            "No. of Hashed Labels",
            attr_stats.hashed_labels.to_string(),
            out_stats.hashed_labels.to_string(),
            in_stats.hashed_labels.to_string(),
        ),
        (
            "Hashed Bucket Size",
            attr_stats.max_bucket_size.to_string(),
            out_stats.max_bucket_size.to_string(),
            in_stats.max_bucket_size.to_string(),
        ),
        (
            "Spill Rows Percentage",
            format!("{:.1}%", attr_stats.spill_percent()),
            format!("{:.1}%", out_stats.spill_percent()),
            format!("{:.1}%", in_stats.spill_percent()),
        ),
        (
            "Long String Table Rows",
            attr_stats.long_string_rows.to_string(),
            "0".into(),
            "0".into(),
        ),
        (
            "Multi-Value Table Rows",
            attr_stats.multi_value_rows.to_string(),
            out_stats.multi_value_rows.to_string(),
            in_stats.multi_value_rows.to_string(),
        ),
    ];
    for (name, a, b, c) in rows {
        let _ = writeln!(out, "{name:<28} {a:>14} {b:>16} {c:>16}");
    }
    let _ = writeln!(
        out,
        "(paper shape: attr table has spills/long strings/multi-values; adjacency mostly clean)"
    );
    out
}

// ---------------------------------------------------------------------------
// Table 4 — neighbors lookup: EA vs IPA+ISA by selectivity
// ---------------------------------------------------------------------------

/// Vertex-neighbor queries at increasing fan-in.
pub fn table4(cfg: &ReproConfig) -> String {
    let g = cfg.dbpedia();
    let sql = build_sqlgraph(&g.data);
    // Candidate start vertices with escalating in-degree: an entity, a mid
    // place, a team, ..., and the class vertices (type hubs).
    let candidates = [
        g.ids.entities.0,
        g.ids.places.0 + 1,
        g.ids.teams.0,
        g.ids.teams.0 + 1,
        g.ids.classes.2,
        g.ids.classes.1,
        g.ids.classes.0,
    ];
    let ea = TranslateOptions {
        adjacency: AdjacencyStrategy::ForceEa,
        factorize: false,
    };
    let hash = TranslateOptions {
        adjacency: AdjacencyStrategy::ForceHash,
        factorize: false,
    };
    let mut out = String::new();
    let _ = writeln!(out, "Table 4 — neighbors of a vertex: EA vs IPA+ISA");
    let _ = writeln!(
        out,
        "{:<4} {:>10} {:>12} {:>12}",
        "Q", "result", "EA_ms", "IPA+ISA_ms"
    );
    for (i, &v) in candidates.iter().enumerate() {
        let q = format!("g.v({v}).in.count()");
        let n = count_of(&sql.query_with(&q, ea).expect("EA arm"));
        let n2 = count_of(&sql.query_with(&q, hash).expect("hash arm"));
        assert_eq!(n, n2, "strategy arms disagree at vertex {v}");
        let t_ea = mean_time(cfg.runs, || {
            let _ = sql.query_with(&q, ea).expect("EA arm");
        });
        let t_hash = mean_time(cfg.runs, || {
            let _ = sql.query_with(&q, hash).expect("hash arm");
        });
        let _ = writeln!(
            out,
            "{:<4} {:>10} {:>12} {:>12}",
            i + 1,
            n,
            ms(t_ea),
            ms(t_hash)
        );
    }
    let _ = writeln!(
        out,
        "(paper shape: comparable at low fan-in; IPA+ISA degrades at very high fan-in)"
    );
    out
}

// ---------------------------------------------------------------------------
// Figure 6 — path computation: OPA+OSA vs EA self-joins
// ---------------------------------------------------------------------------

/// The 11 long-path queries under both physical strategies.
pub fn fig6(cfg: &ReproConfig) -> String {
    let g = cfg.dbpedia();
    let sql = build_sqlgraph(&g.data);
    let ea = TranslateOptions {
        adjacency: AdjacencyStrategy::ForceEa,
        factorize: false,
    };
    let hash = TranslateOptions {
        adjacency: AdjacencyStrategy::ForceHash,
        factorize: false,
    };
    let mut out = String::new();
    let _ = writeln!(out, "Figure 6 — long paths: OPA+OSA joins vs EA self-joins");
    let _ = writeln!(
        out,
        "{:<5} {:>12} {:>12} {:>8}",
        "lq", "OPA+OSA_ms", "EA_ms", "ratio"
    );
    let mut hash_total = 0.0;
    let mut ea_total = 0.0;
    for (i, q) in path_queries(&g).iter().enumerate() {
        let a = count_of(&sql.query_with(q, hash).expect("hash"));
        let b = count_of(&sql.query_with(q, ea).expect("ea"));
        assert_eq!(a, b, "strategies disagree on lq{}", i + 1);
        let t_hash = mean_time(cfg.runs, || {
            let _ = sql.query_with(q, hash).expect("hash");
        });
        let t_ea = mean_time(cfg.runs, || {
            let _ = sql.query_with(q, ea).expect("ea");
        });
        hash_total += t_hash.as_secs_f64();
        ea_total += t_ea.as_secs_f64();
        let _ = writeln!(
            out,
            "lq{:<3} {:>12} {:>12} {:>7.1}x",
            i + 1,
            ms(t_hash),
            ms(t_ea),
            t_ea.as_secs_f64() / t_hash.as_secs_f64().max(1e-9)
        );
    }
    let _ = writeln!(
        out,
        "mean: OPA+OSA {:.1} ms vs EA {:.1} ms (paper: 8.8s vs 17.8s — shredding wins long paths)",
        1e3 * hash_total / 11.0,
        1e3 * ea_total / 11.0
    );
    out
}

// ---------------------------------------------------------------------------
// Figure 8 — DBpedia benchmark across the three systems
// ---------------------------------------------------------------------------

struct SystemTimes {
    name: &'static str,
    times_ms: Vec<f64>,
}

fn run_query_set(
    cfg: &ReproConfig,
    sql: &SqlGraph,
    kv: &sqlgraph_baselines::KvGraph,
    native: &sqlgraph_baselines::NativeGraph,
    queries: &[String],
    check_agreement: bool,
) -> Vec<SystemTimes> {
    // Server-mode cost model (§5): every Blueprints call on the baselines
    // pays the per-access overhead; SQLGraph pays it once per query (its
    // whole traversal is one statement).
    let overhead = Duration::from_micros(cfg.call_overhead_us);
    let kv = RemoteGraph::new(kv, overhead);
    let native = RemoteGraph::new(native, overhead);
    let mut sql_times = Vec::new();
    let mut kv_times = Vec::new();
    let mut native_times = Vec::new();
    for q in queries {
        let pipeline = parse_query(q).expect("query parses");
        // Cross-system agreement (counts only, when the query is a count).
        if check_agreement {
            let a = count_of(&sql.query(q).expect("sqlgraph"));
            let b = interp::eval(*kv.inner(), &pipeline).expect("kv").len() as i64;
            let c = interp::eval(*native.inner(), &pipeline)
                .expect("native")
                .len() as i64;
            // For count() queries the interpreter returns one element whose
            // value is the count; compare against SQLGraph's scalar.
            if q.ends_with("count()") {
                let bv = interp::eval(*kv.inner(), &pipeline).expect("kv")[0]
                    .to_json()
                    .as_i64()
                    .unwrap_or(-1);
                let cv = interp::eval(*native.inner(), &pipeline).expect("native")[0]
                    .to_json()
                    .as_i64()
                    .unwrap_or(-1);
                assert_eq!(a, bv, "kv disagrees on {q}");
                assert_eq!(a, cv, "native disagrees on {q}");
            } else {
                let rows = sql.query(q).expect("sqlgraph").rows.len() as i64;
                assert_eq!(rows, b, "kv disagrees on {q}");
                assert_eq!(rows, c, "native disagrees on {q}");
            }
        }
        let t = mean_time(cfg.runs, || {
            spin(overhead); // one round trip
            let _ = sql.query(q).expect("sqlgraph");
        });
        sql_times.push(t.as_secs_f64() * 1e3);
        let t = mean_time(cfg.runs, || {
            let _ = interp::eval(&kv, &pipeline).expect("kv");
        });
        kv_times.push(t.as_secs_f64() * 1e3);
        let t = mean_time(cfg.runs, || {
            let _ = interp::eval(&native, &pipeline).expect("native");
        });
        native_times.push(t.as_secs_f64() * 1e3);
    }
    vec![
        SystemTimes {
            name: "SQLGraph",
            times_ms: sql_times,
        },
        SystemTimes {
            name: "Titan-like(KV)",
            times_ms: kv_times,
        },
        SystemTimes {
            name: "Neo4j-like",
            times_ms: native_times,
        },
    ]
}

/// Figures 8a, 8b, 8d: benchmark queries, path queries, and the summary.
pub fn fig8(cfg: &ReproConfig) -> String {
    let g = cfg.dbpedia();
    let sql = build_sqlgraph(&g.data);
    let kv = build_kvgraph(&g.data);
    let native = build_nativegraph(&g.data);

    let bench = benchmark_queries(&g);
    let paths = path_queries(&g);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 8a — DBpedia benchmark queries ({} vertices, {} edges)",
        g.data.vertex_count(),
        g.data.edge_count()
    );
    let bench_times = run_query_set(cfg, &sql, &kv, &native, &bench, true);
    let _ = writeln!(
        out,
        "{:<5} {:>14} {:>16} {:>14}",
        "dq", "SQLGraph_ms", "Titan-like_ms", "Neo4j-like_ms"
    );
    for i in 0..bench.len() {
        let _ = writeln!(
            out,
            "dq{:<3} {:>14.3} {:>16.3} {:>14.3}",
            i + 1,
            bench_times[0].times_ms[i],
            bench_times[1].times_ms[i],
            bench_times[2].times_ms[i]
        );
    }
    let _ = writeln!(out, "\nFigure 8b — path queries");
    let path_times = run_query_set(cfg, &sql, &kv, &native, &paths, true);
    let _ = writeln!(
        out,
        "{:<5} {:>14} {:>16} {:>14}",
        "lq", "SQLGraph_ms", "Titan-like_ms", "Neo4j-like_ms"
    );
    for i in 0..paths.len() {
        let _ = writeln!(
            out,
            "lq{:<3} {:>14.3} {:>16.3} {:>14.3}",
            i + 1,
            path_times[0].times_ms[i],
            path_times[1].times_ms[i],
            path_times[2].times_ms[i]
        );
    }

    // Figure 8d: summary means. "Adjusted" excludes query 15 (index 14).
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let mean_excl = |v: &[f64], skip: usize| {
        let total: f64 = v
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .map(|(_, x)| x)
            .sum();
        total / (v.len() - 1) as f64
    };
    let _ = writeln!(out, "\nFigure 8d — summary (mean ms)");
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>12}",
        "system", "benchmark", "adjusted", "path"
    );
    for i in 0..3 {
        let _ = writeln!(
            out,
            "{:<16} {:>12.3} {:>12.3} {:>12.3}",
            bench_times[i].name,
            mean(&bench_times[i].times_ms),
            mean_excl(&bench_times[i].times_ms, 14),
            mean(&path_times[i].times_ms)
        );
    }
    let _ = writeln!(
        out,
        "(paper: SQLGraph ~2x faster than Titan, ~8x faster than Neo4j)"
    );
    out
}

/// Figure 8c substitute: all stores here are in-memory, so the paper's
/// RAM-budget sweep becomes a dataset-scale sweep (documented in
/// EXPERIMENTS.md). The shape to hold: SQLGraph stays fastest at every
/// point.
pub fn fig8c(cfg: &ReproConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 8c (substituted) — mean query time vs dataset scale"
    );
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>14} {:>16} {:>14}",
        "scale", "edges", "SQLGraph_ms", "Titan-like_ms", "Neo4j-like_ms"
    );
    for factor in [0.25, 0.5, 1.0] {
        let scale = cfg.scale * factor;
        let g = gen_dbpedia(&DbpediaConfig::default().scaled(scale));
        let sql = build_sqlgraph(&g.data);
        let kv = build_kvgraph(&g.data);
        let native = build_nativegraph(&g.data);
        let queries: Vec<String> = benchmark_queries(&g)
            .into_iter()
            .chain(path_queries(&g))
            .collect();
        let times = run_query_set(cfg, &sql, &kv, &native, &queries, false);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let _ = writeln!(
            out,
            "{:<8.2} {:>10} {:>14.3} {:>16.3} {:>14.3}",
            factor,
            g.data.edge_count(),
            mean(&times[0].times_ms),
            mean(&times[1].times_ms),
            mean(&times[2].times_ms)
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 9 / Tables 6-7 — LinkBench
// ---------------------------------------------------------------------------

/// Throughput + per-op latency of one store under `requesters` threads.
fn run_linkbench<S: LinkOps>(
    store: &S,
    nodes: usize,
    requesters: usize,
    ops_per_requester: usize,
    seed: u64,
) -> (f64, Vec<(&'static str, LatencyStats)>, u64) {
    let collected: Mutex<Vec<(&'static str, LatencyStats)>> = Mutex::new(Vec::new());
    let lost = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for r in 0..requesters {
            let (collected, lost) = (&collected, &lost);
            scope.spawn(move || {
                let mut wl = Workload::new(seed, r as u64, nodes, 32);
                let mut local: std::collections::HashMap<&'static str, LatencyStats> =
                    std::collections::HashMap::new();
                for _ in 0..ops_per_requester {
                    let op = wl.next_op();
                    let t0 = Instant::now();
                    if let Err(e) = store.apply(&op) {
                        if lost_conflict(&e) {
                            lost.fetch_add(1, AtomicOrd::Relaxed);
                        }
                    }
                    local.entry(op.name()).or_default().record(t0.elapsed());
                }
                let mut guard = collected.lock().expect("no poisoning");
                for (name, stats) in local {
                    guard.push((name, stats));
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let total_ops = requesters * ops_per_requester;
    let mut merged: std::collections::HashMap<&'static str, LatencyStats> =
        std::collections::HashMap::new();
    for (name, stats) in collected.into_inner().expect("no poisoning") {
        merged.entry(name).or_default().merge(&stats);
    }
    let mut per_op: Vec<(&'static str, LatencyStats)> = merged.into_iter().collect();
    per_op.sort_by_key(|(name, _)| *name);
    (total_ops as f64 / elapsed, per_op, lost.into_inner())
}

/// Whether an op's error is a write that lost a first-updater-wins
/// conflict on its last try. `LinkOps` reports errors as text, and every
/// transport keeps the engine's rendering of the conflict in it.
fn lost_conflict(err: &str) -> bool {
    err.contains(&sqlgraph_rel::Error::TxnConflict(String::new()).to_string())
}

/// Merge per-operation latency sets into one distribution for tail
/// reporting.
fn merged_latency(per_op: &[(&'static str, LatencyStats)]) -> LatencyStats {
    let mut all = LatencyStats::default();
    for (_, s) in per_op {
        all.merge(s);
    }
    all
}

/// `p50/p95/p99` of a latency distribution, in ms columns.
fn tail_columns(all: &LatencyStats) -> String {
    format!(
        "{:>9} {:>9} {:>9}",
        ms(all.percentile(50.0)),
        ms(all.percentile(95.0)),
        ms(all.percentile(99.0))
    )
}

/// The lock baseline of the mixed run: a readers/writer lock that serves
/// requests first come, first served. A write transaction (`BEGIN` …
/// `COMMIT`, every round trip of it) holds it exclusively and a read
/// request holds it shared, so readers queue behind open write
/// transactions — the discipline of a non-versioned store, kept in the
/// harness so the engine carries no such mode.
///
/// A general-purpose readers/writer lock cannot stand in (EXPERIMENTS.md,
/// *throughput-mixed*, has the runs). Holds here last whole round trips and
/// every client asks again at once: a reader-preferring lock admitted
/// readers until none was left, so the writer never ran (2–3 wr/s
/// measured), and `std`'s lets the releasing writer take the lock back
/// before a woken reader moves, so the readers never finished. In arrival
/// order each waiting reader gets one request in between two write
/// transactions.
#[derive(Default)]
struct FifoRwLock {
    state: Mutex<FifoState>,
    turn: Condvar,
}

#[derive(Default)]
struct FifoState {
    next_ticket: u64,
    serving: u64,
    readers: usize,
    writer: bool,
}

/// Run one client request under the mixed run's lock discipline; without
/// a lock (MVCC) nobody waits.
fn under_lock<T>(lock: Option<&FifoRwLock>, write: bool, request: impl FnOnce() -> T) -> T {
    const HEALTHY: &str = "the harness lock is never held across a panic";
    let Some(lock) = lock else { return request() };
    let mut s = lock.state.lock().expect(HEALTHY);
    let ticket = s.next_ticket;
    s.next_ticket += 1;
    s = lock
        .turn
        .wait_while(s, |s| {
            s.serving != ticket || s.writer || (write && s.readers > 0)
        })
        .expect(HEALTHY);
    s.serving += 1;
    if write {
        s.writer = true;
    } else {
        s.readers += 1;
    }
    drop(s);
    if !write {
        // The next ticket may be a reader that can share the lock.
        lock.turn.notify_all();
    }
    let out = request();
    let mut s = lock.state.lock().expect(HEALTHY);
    if write {
        s.writer = false;
    } else {
        s.readers -= 1;
    }
    drop(s);
    lock.turn.notify_all();
    out
}

/// One mixed run: `readers` client connections work through a fixed quota
/// of read operations while `writers` connections stream write
/// transactions continuously until the readers finish — every operation a
/// real socket round trip against the wire-protocol server at `addr`
/// (writes are explicit BEGIN … COMMIT sessions, one round trip per
/// statement). Returns aggregate (read ops/sec, committed writes/sec,
/// write attempts that lost a conflict). Dedicated
/// roles keep the writer pressure constant — in a closed-loop mix, blocked
/// readers would stop issuing writes too, hiding exactly the
/// reader/writer interference this experiment measures.
///
/// `lock_baseline` runs the cell under one [`FifoRwLock`] that every
/// reader request takes shared and a writer client holds exclusively from
/// `BEGIN` to `COMMIT`.
fn run_mixed(
    addr: SocketAddr,
    nodes: usize,
    readers: usize,
    writers: usize,
    reads_per_thread: usize,
    seed: u64,
    lock_baseline: bool,
) -> (f64, f64, u64) {
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    let lock = lock_baseline.then(FifoRwLock::default);
    let lock = lock.as_ref();
    let stop = AtomicBool::new(false);
    let wrote = AtomicU64::new(0);
    let conflicts = AtomicU64::new(0);
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..writers {
            let (stop, wrote, conflicts) = (&stop, &wrote, &conflicts);
            scope.spawn(move || {
                let mut ops = RemoteMixedOps::connect(addr).expect("writer connects");
                let mut wl = Workload::new(seed, 1_000 + w as u64, nodes, 32);
                while !stop.load(AtomicOrd::Relaxed) {
                    let op = wl.next_op_mixed(1000);
                    if under_lock(lock, true, || ops.apply(&op)) == Ok(true) {
                        wrote.fetch_add(1, AtomicOrd::Relaxed);
                    }
                }
                conflicts.fetch_add(ops.conflicts, AtomicOrd::Relaxed);
            });
        }
        for r in 0..readers {
            let (stop, done) = (&stop, &done);
            scope.spawn(move || {
                let mut ops = RemoteMixedOps::connect(addr).expect("reader connects");
                let mut wl = Workload::new(seed, r as u64, nodes, 32);
                for _ in 0..reads_per_thread {
                    let op = wl.next_op_mixed(0);
                    let _ = under_lock(lock, false, || ops.apply(&op));
                }
                if done.fetch_add(1, AtomicOrd::Relaxed) + 1 == readers {
                    stop.store(true, AtomicOrd::Relaxed);
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (
        (readers * reads_per_thread) as f64 / secs,
        wrote.into_inner() as f64 / secs,
        conflicts.into_inner(),
    )
}

/// Mixed read/write LinkBench: MVCC snapshot reads vs the per-table-lock
/// baseline.
///
/// Reader connections run LinkBench read operations against one shared
/// store behind the wire-protocol server while writer connections
/// continuously execute client-driven write transactions
/// (multi-statement, one real socket round trip per statement — see
/// [`RemoteMixedOps`]). The *lock* columns re-run each cell under the
/// harness-side lock baseline (see [`run_mixed`]): a write transaction
/// holds the lock from begin to commit and readers queue behind it. Under
/// MVCC, readers execute against their snapshots and never wait on the
/// writers — the `rd gain` column is this reproduction's headline.
pub fn throughput_mixed(cfg: &ReproConfig) -> String {
    let mut out = String::new();
    let nodes = cfg.lb_nodes.first().copied().unwrap_or(1_000);
    let data = linkbench::generate(&LinkBenchConfig::with_nodes(nodes));
    // Reader quota per connection: large enough that each cell measures a
    // window of hundreds of milliseconds, not scheduler noise. Real
    // loopback round trips are slower than the simulated ones this
    // replaced, so the multiplier is smaller.
    let reads_per_thread = cfg.lb_ops.max(100) * 5;
    let _ = writeln!(
        out,
        "Mixed read/write LinkBench — MVCC snapshot reads vs per-table-lock baseline\n\
         scale: {} nodes, {} edges; {} read ops per reader connection; writers stream\n\
         client-driven transactions over the wire protocol (one TCP round trip per\n\
         statement, loopback)",
        data.vertex_count(),
        data.edge_count(),
        reads_per_thread
    );
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>12} {:>8} {:>14} {:>12} {:>10}",
        "rd/wr", "lock rd/s", "mvcc rd/s", "rd gain", "lock wr/s", "mvcc wr/s", "conflicts"
    );
    let mut headline = 0.0f64;
    // (readers, writers): 8-thread cells model the 90/10 and 50/50 mixes
    // by role split; smaller cells chart the trend.
    for &(readers, writers) in &[(1usize, 1usize), (3, 1), (7, 1), (4, 4)] {
        // Fresh store and server per cell and mode so earlier mutations
        // (and accumulated version chains) don't skew later cells.
        let run = |lock_baseline: bool| {
            let sql = Arc::new(build_sqlgraph(&data));
            let server = Server::start_local(Arc::clone(&sql)).expect("server starts");
            let result = run_mixed(
                server.local_addr(),
                nodes,
                readers,
                writers,
                reads_per_thread,
                13,
                lock_baseline,
            );
            server.shutdown();
            result
        };
        let (lock_rd, lock_wr, _) = run(true);
        let (mvcc_rd, mvcc_wr, conflicts) = run(false);
        let gain = mvcc_rd / lock_rd.max(1e-9);
        if (readers, writers) == (7, 1) {
            headline = gain;
        }
        let _ = writeln!(
            out,
            "{:<10} {:>14.0} {:>12.0} {:>7.2}x {:>14.0} {:>12.0} {:>10}",
            format!("{readers}rd/{writers}wr"),
            lock_rd,
            mvcc_rd,
            gain,
            lock_wr,
            mvcc_wr,
            conflicts
        );
    }
    let _ = writeln!(
        out,
        "(headline: 8 threads, 7 readers + 1 writer (~90/10): MVCC reader throughput \
         is {headline:.1}x the per-table-lock baseline. wr/s counts committed writes; \
         conflicts: MVCC write attempts that lost a write-write conflict (an op runs \
         again from BEGIN, up to 16 times) — the lock arm serializes its writers)"
    );
    out
}

/// Connection-scalability sweep: aggregate LinkBench read throughput and
/// tail latency against one wire-protocol server as the number of
/// concurrent client sockets grows (default 1/8/64/256/1024).
///
/// Every client is a real TCP connection issuing §5.2 read operations as
/// framed round trips; the server gives each its own blocking session
/// thread but lets only a bounded number of statements execute at once,
/// so past that bound the sweep measures the cost of many threads — the
/// scheduler's fairness and the wait for an execution permit — rather
/// than engine parallelism. The total operation budget is fixed per row, so
/// high-connection rows measure many mostly-idle sockets (the LinkBench
/// requester model) rather than proportionally more work.
pub fn conn_sweep(cfg: &ReproConfig) -> String {
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    let mut out = String::new();
    let nodes = cfg.lb_nodes.first().copied().unwrap_or(1_000);
    let data = linkbench::generate(&LinkBenchConfig::with_nodes(nodes));
    let sql = Arc::new(build_sqlgraph(&data));
    let server = Server::start_local(Arc::clone(&sql)).expect("server starts");
    let addr = server.local_addr();
    // Fixed total budget per row, with a floor so the widest rows still
    // give every connection a few timed operations.
    let total_ops = cfg.lb_ops.max(100) * 16;
    let _ = writeln!(
        out,
        "Connection sweep — LinkBench reads over the wire protocol, one server\n\
         scale: {} nodes, {} edges; ~{} total ops per row; {} execution permits",
        data.vertex_count(),
        data.edge_count(),
        total_ops,
        server.worker_count()
    );
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>12} {:>10} {:>9} {:>9} {:>9}",
        "clients", "ops each", "ops/sec", "vs N=1", "p50 ms", "p95 ms", "p99 ms"
    );
    let mut base = 0.0f64;
    for &n in &cfg.conn_counts {
        let ops_each = (total_ops / n).max(8);
        let collected = Arc::new(Mutex::new(LatencyStats::default()));
        let connect_failures = Arc::new(AtomicUsize::new(0));
        // All clients connect before the clock starts; the barrier holds
        // them at the line so the timed window is pure steady state.
        let barrier = Arc::new(Barrier::new(n + 1));
        let handles: Vec<_> = (0..n)
            .map(|r| {
                let collected = Arc::clone(&collected);
                let connect_failures = Arc::clone(&connect_failures);
                let barrier = Arc::clone(&barrier);
                std::thread::Builder::new()
                    .name(format!("conn-sweep-{r}"))
                    // Client threads only shuttle frames; small stacks
                    // keep 1024 of them cheap.
                    .stack_size(256 * 1024)
                    .spawn(move || {
                        // Retry the connect: a thousand simultaneous
                        // SYNs can outrun the accept loop's backlog.
                        let deadline = Instant::now() + Duration::from_secs(20);
                        let mut ops = loop {
                            match RemoteMixedOps::connect(addr) {
                                Ok(c) => break Some(c),
                                Err(_) if Instant::now() < deadline => {
                                    std::thread::sleep(Duration::from_millis(10))
                                }
                                Err(_) => break None,
                            }
                        };
                        barrier.wait();
                        let Some(ops) = ops.as_mut() else {
                            connect_failures.fetch_add(1, AtomicOrd::Relaxed);
                            return 0usize;
                        };
                        let mut wl = Workload::new(23, r as u64, nodes, 32);
                        let mut local = LatencyStats::default();
                        let mut done = 0usize;
                        for _ in 0..ops_each {
                            let op = wl.next_op_mixed(0);
                            let t0 = Instant::now();
                            if ops.apply(&op).is_ok() {
                                done += 1;
                            }
                            local.record(t0.elapsed());
                        }
                        collected.lock().expect("no poisoning").merge(&local);
                        done
                    })
            })
            .collect::<std::io::Result<Vec<_>>>()
            .expect("spawn client threads");
        barrier.wait();
        let start = Instant::now();
        let completed: usize = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum();
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        let failures = connect_failures.load(AtomicOrd::Relaxed);
        let tput = completed as f64 / elapsed;
        if n == cfg.conn_counts[0] {
            base = tput;
        }
        let stats = collected.lock().expect("no poisoning").clone();
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>12.0} {:>9.2}x {}{}",
            n,
            ops_each,
            tput,
            tput / base.max(1e-9),
            tail_columns(&stats),
            if failures > 0 {
                format!("  ({failures} connects failed)")
            } else {
                String::new()
            }
        );
    }
    server.shutdown();
    let _ = writeln!(
        out,
        "(every client is a real TCP socket with its own server thread; execution\n\
         permits are bounded, so rows past that bound measure scheduling and the wait\n\
         for a permit, not engine parallelism)"
    );
    out
}

/// Figure 9 and the §5.2 concurrency claim: LinkBench throughput across
/// scales and requester counts, one fresh store per cell. The SQLGraph
/// columns add its scaling against the first requester count and its
/// p50/p95/p99 latency.
pub fn fig9(cfg: &ReproConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 9 — LinkBench throughput (op/sec)");
    for &nodes in &cfg.lb_nodes {
        let data = linkbench::generate(&LinkBenchConfig::with_nodes(nodes));
        let _ = writeln!(
            out,
            "\nscale: {} nodes, {} edges",
            data.vertex_count(),
            data.edge_count()
        );
        let _ = writeln!(
            out,
            "{:<12} {:>12} {:>9} {:>9} {:>9} {:>9} {:>16} {:>14}",
            "requesters",
            "SQLGraph",
            format!("vs N={}", cfg.lb_requesters[0]),
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "Titan-like(KV)",
            "Neo4j-like"
        );
        let mut first = None;
        for &req in &cfg.lb_requesters {
            let ops = cfg.lb_ops;
            let overhead = Duration::from_micros(cfg.call_overhead_us);
            let sql = build_sqlgraph(&data);
            let sql_ops = SqlLinkOps {
                graph: &sql,
                overhead,
            };
            let (sql_tput, sql_lat, _) = run_linkbench(&sql_ops, nodes, req, ops, 5);
            let base = *first.get_or_insert(sql_tput);
            let kv = RemoteGraph::new(build_kvgraph(&data), overhead);
            let (kv_tput, ..) = run_linkbench(&kv, nodes, req, ops, 5);
            let native = RemoteGraph::new(build_nativegraph(&data), overhead);
            let (native_tput, ..) = run_linkbench(&native, nodes, req, ops, 5);
            let _ = writeln!(
                out,
                "{:<12} {:>12.0} {:>8.2}x {} {:>16.0} {:>14.0}",
                req,
                sql_tput,
                sql_tput / base.max(1e-9),
                tail_columns(&merged_latency(&sql_lat)),
                kv_tput,
                native_tput
            );
        }
    }
    let _ = writeln!(
        out,
        "(paper shape: SQLGraph throughput scales with requesters; others flatten. \
         Scaling flattens at the machine's core count — {} available here)",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    out
}

/// Tables 6/7: per-operation latency mean(max). `large` selects the last
/// (largest) configured scale and the highest requester count.
pub fn table67(cfg: &ReproConfig, large: bool) -> String {
    let nodes = if large {
        *cfg.lb_nodes.last().expect("non-empty")
    } else {
        cfg.lb_nodes[cfg.lb_nodes.len() / 2]
    };
    let requesters = if large {
        *cfg.lb_requesters.last().expect("non-empty")
    } else {
        cfg.lb_requesters[cfg.lb_requesters.len() / 2]
    };
    let data = linkbench::generate(&LinkBenchConfig::with_nodes(nodes));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table {} — per-operation latency in ms, mean(max): {} nodes, {} requesters",
        if large { 7 } else { 6 },
        nodes,
        requesters
    );

    let overhead = Duration::from_micros(cfg.call_overhead_us);
    let sql = build_sqlgraph(&data);
    let sql_ops = SqlLinkOps {
        graph: &sql,
        overhead,
    };
    let (_, sql_lat, sql_lost) = run_linkbench(&sql_ops, nodes, requesters, cfg.lb_ops, 6);
    let native = RemoteGraph::new(build_nativegraph(&data), overhead);
    let (_, native_lat, _) = run_linkbench(&native, nodes, requesters, cfg.lb_ops, 6);
    let kv = RemoteGraph::new(build_kvgraph(&data), overhead);
    let (_, kv_lat, _) = run_linkbench(&kv, nodes, requesters, cfg.lb_ops, 6);

    let find = |set: &[(&'static str, LatencyStats)], name: &str| -> String {
        set.iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| format!("{}({})", ms(s.mean()), ms(s.max())))
            .unwrap_or_else(|| "-".into())
    };
    let _ = writeln!(
        out,
        "{:<16} {:>20} {:>20} {:>20}",
        "operation", "SQLGraph", "Titan-like(KV)", "Neo4j-like"
    );
    for op in [
        "add node",
        "update node",
        "delete node",
        "get node",
        "add link",
        "delete link",
        "update link",
        "count link",
        "multiget link",
        "get link list",
    ] {
        let _ = writeln!(
            out,
            "{:<16} {:>20} {:>20} {:>20}",
            op,
            find(&sql_lat, op),
            find(&kv_lat, op),
            find(&native_lat, op)
        );
    }
    let _ = writeln!(out, "{:<16} {:>20}", "conflicts", sql_lost);
    let _ = writeln!(
        out,
        "(paper shape: SQLGraph slower on delete node/add link/update link at mid scale, \
         fastest reads; wins everything at the largest scale. conflicts: SQLGraph writes \
         that still lost a write-write conflict after the store's retries; the \
         lock-based baselines cannot conflict)"
    );
    out
}

// ---------------------------------------------------------------------------
// §5.1 — storage footprint comparison
// ---------------------------------------------------------------------------

/// Approximate storage footprints for the DBpedia-like graph, then the
/// SQLGraph heap by table and structure for that store and for the
/// LinkBench store `perf` loads, each beside the VmRSS growth of its load.
pub fn sizes(cfg: &ReproConfig) -> String {
    let g = cfg.dbpedia();
    let rss_before = vm_rss();
    let sql = build_sqlgraph(&g.data);
    let sql_rss = rss_before.zip(vm_rss()).map(|(a, b)| b as f64 - a as f64);
    let kv = build_kvgraph(&g.data);
    let native = build_nativegraph(&g.data);
    let mut out = String::new();
    let _ = writeln!(out, "§5.1 — storage footprint (approximate bytes)");
    let _ = writeln!(out, "{:<16} {:>14}", "system", "bytes");
    let _ = writeln!(
        out,
        "{:<16} {:>14}",
        "SQLGraph",
        sql.database().estimated_bytes()
    );
    let _ = writeln!(out, "{:<16} {:>14}", "Titan-like(KV)", kv.approx_bytes());
    let _ = writeln!(out, "{:<16} {:>14}", "Neo4j-like", native.approx_bytes());
    let _ = writeln!(
        out,
        "(paper: SQLGraph 66GB < Neo4j 98GB < Titan 301GB on DBpedia — redundancy \
         is cheaper than KV blow-up)"
    );
    drop((kv, native));
    let title = format!(
        "SQLGraph heap — DBpedia store ({} vertices, {} edges)",
        g.data.vertex_count(),
        g.data.edge_count()
    );
    heap_report(&mut out, &title, &sql, sql_rss);
    drop(sql);

    // The LinkBench store `perf` loads (50 000 nodes at full scale).
    let nodes = ((50_000.0 * cfg.scale) as usize).max(500);
    let data = linkbench::generate(&LinkBenchConfig::with_nodes(nodes));
    let graph_data = to_graph_data(&data);
    let lb = SqlGraph::with_config(sqlgraph_core::SchemaConfig {
        out_buckets: 16,
        in_buckets: 16,
    })
    .expect("schema");
    let rss_before = vm_rss();
    lb.bulk_load(&graph_data).expect("bulk load");
    let lb_rss = rss_before.zip(vm_rss()).map(|(a, b)| b as f64 - a as f64);
    let title = format!(
        "SQLGraph heap — LinkBench store ({} nodes, {} links)",
        data.vertex_count(),
        data.edge_count()
    );
    heap_report(&mut out, &title, &lb, lb_rss);
    out
}

/// The store's heap by table and structure, beside how much the process's
/// resident set grew while it was built (`rss_delta`, bytes).
fn heap_report(out: &mut String, title: &str, graph: &SqlGraph, rss_delta: Option<f64>) {
    let fp = graph.database().footprint();
    let mib = |b: f64| b / (1024.0 * 1024.0);
    let _ = writeln!(out, "\n{title}");
    let _ = write!(out, "{fp}");
    match rss_delta {
        Some(delta) if mib(delta) >= fp.total().mib() => {
            let _ = writeln!(
                out,
                "VmRSS grew {:.1} MiB over the load; the heap above is {:.1} MiB; \
                 unexplained {:.1} MiB",
                mib(delta),
                fp.total().mib(),
                mib(delta) - fp.total().mib()
            );
        }
        Some(delta) => {
            let _ = writeln!(
                out,
                "VmRSS grew {:.1} MiB over the load, less than the heap above: the \
                 load reused memory freed earlier in this process (run `repro sizes` \
                 on its own to attribute RSS)",
                mib(delta)
            );
        }
        None => {
            let _ = writeln!(out, "(VmRSS not available: no /proc/self/status)");
        }
    }
}

/// The process's resident set in bytes, where `/proc/self/status` exists.
fn vm_rss() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

// ---------------------------------------------------------------------------
// Durability — recovery time: cold WAL replay vs snapshot + tail
// ---------------------------------------------------------------------------

/// Crash-recovery cost as a function of log length: reopen a database whose
/// entire history lives in one WAL segment (cold replay is O(ops)), then the
/// same history with a checkpoint taken just before the last few commits
/// (reopen is snapshot load + O(tail)).
pub fn recovery(cfg: &ReproConfig) -> String {
    use sqlgraph_rel::Database;

    let tail_ops = 100usize;
    let op_counts: Vec<usize> = [10_000usize, 100_000, 1_000_000]
        .iter()
        .map(|&n| ((n as f64 * cfg.scale) as usize).max(1_000))
        .collect();

    let dir = std::env::temp_dir().join(format!("sqlgraph-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");

    // One committed transaction per op: mostly inserts, with updates and
    // deletes mixed in so replay exercises every record kind.
    let build = |path: &std::path::Path, ops: usize, checkpoint_at: Option<usize>| -> u64 {
        let db = Database::open(path).expect("open for build");
        db.execute("CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
            .expect("ddl");
        db.execute("CREATE INDEX kv_v ON kv (v)").expect("ddl");
        for i in 0..ops {
            if checkpoint_at == Some(i) {
                db.checkpoint().expect("checkpoint");
            }
            let sql = match i % 20 {
                18 if i > 0 => format!("UPDATE kv SET v = 'u{i}' WHERE id = {}", i - 1),
                19 if i > 1 => format!("DELETE FROM kv WHERE id = {}", i - 2),
                _ => format!("INSERT INTO kv VALUES ({i}, 'v{i}')"),
            };
            db.execute(&sql).expect("op");
        }
        drop(db);
        // Size of the gen-0 segment (the builds without a checkpoint keep
        // their whole history there).
        std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
    };

    let mut out = String::new();
    let _ = writeln!(out, "Durability — recovery time (reopen latency)");
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>16} {:>20} {:>12}",
        "ops", "wal bytes", "cold replay ms", "snapshot+tail ms", "tail commits"
    );
    for (idx, &ops) in op_counts.iter().enumerate() {
        // Cold: the whole history is one WAL segment.
        let cold_path = dir.join(format!("cold-{idx}.wal"));
        let wal_bytes = build(&cold_path, ops, None);
        let start = Instant::now();
        let db = Database::open(&cold_path).expect("cold reopen");
        let cold = start.elapsed();
        let cold_commits = db.recovery_report().expect("report").commits_replayed;
        assert_eq!(cold_commits as usize, ops + 2, "cold replay covers all ops");
        drop(db);

        // Checkpointed: same history, snapshot taken `tail_ops` before the end.
        let ckpt_path = dir.join(format!("ckpt-{idx}.wal"));
        build(&ckpt_path, ops, Some(ops.saturating_sub(tail_ops)));
        let start = Instant::now();
        let db = Database::open(&ckpt_path).expect("ckpt reopen");
        let warm = start.elapsed();
        let report = db.recovery_report().expect("report").clone();
        assert!(report.snapshot_gen.is_some(), "snapshot must be used");
        assert_eq!(
            report.commits_replayed as usize, tail_ops,
            "checkpointed reopen replays only the post-checkpoint tail"
        );
        drop(db);

        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>16} {:>20} {:>12}",
            ops,
            wal_bytes,
            ms(cold),
            ms(warm),
            report.commits_replayed
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = writeln!(
        out,
        "(cold replay re-executes every committed operation; a checkpointed \
         database deserializes the final state and replays only the \
         post-checkpoint tail — O(state + delta), not O(history))"
    );
    out
}

// ---------------------------------------------------------------------------
// Longpath — CSR adjacency + factorized execution vs the row templates
// ---------------------------------------------------------------------------

/// The 11 long-path queries (lq1–lq11) plus dq15 (`g.V.out.out.dedup().count()`)
/// under two configurations of the *same* store: the baseline arm disables the
/// CSR access path and the factorized translator (pure row-at-a-time index
/// joins, the paper's templates), the optimized arm enables both. Counts must
/// agree exactly; the report shows per-query speedup.
pub fn longpath(cfg: &ReproConfig) -> String {
    let g = cfg.dbpedia();
    let sql = build_sqlgraph(&g.data);
    let row_opts = TranslateOptions {
        adjacency: AdjacencyStrategy::Auto,
        factorize: false,
    };
    let fact_opts = TranslateOptions::default();

    let mut queries: Vec<(String, String)> = path_queries(&g)
        .into_iter()
        .enumerate()
        .map(|(i, q)| (format!("lq{}", i + 1), q))
        .collect();
    queries.push(("dq15".into(), benchmark_queries(&g)[14].clone()));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Longpath — row-at-a-time index joins vs CSR + factorized lists"
    );
    let _ = writeln!(
        out,
        "{:<5} {:>12} {:>12} {:>9}",
        "q", "row_ms", "csr_ms", "speedup"
    );
    let mut row_total = 0.0;
    let mut csr_total = 0.0;
    for (name, q) in &queries {
        // Correctness first: both arms must return the same answer.
        sql.database().set_csr_enabled(false);
        let a = count_of(&sql.query_with(q, row_opts).expect("row"));
        sql.database().set_csr_enabled(true);
        let b = count_of(&sql.query_with(q, fact_opts).expect("csr"));
        assert_eq!(a, b, "csr/factorized arm disagrees on {name}");

        sql.database().set_csr_enabled(false);
        let t_row = mean_time(cfg.runs, || {
            let _ = sql.query_with(q, row_opts).expect("row");
        });
        sql.database().set_csr_enabled(true);
        let _ = sql.query_with(q, fact_opts); // warm the CSR cache
        let t_csr = mean_time(cfg.runs, || {
            let _ = sql.query_with(q, fact_opts).expect("csr");
        });
        row_total += t_row.as_secs_f64();
        csr_total += t_csr.as_secs_f64();
        let _ = writeln!(
            out,
            "{:<5} {:>12} {:>12} {:>8.1}x",
            name,
            ms(t_row),
            ms(t_csr),
            t_row.as_secs_f64() / t_csr.as_secs_f64().max(1e-9)
        );
    }
    let _ = writeln!(
        out,
        "total: row {:.1} ms vs csr {:.1} ms ({:.1}x) — targets: >=5x on lq9/lq11, >=2x on dq15",
        1e3 * row_total,
        1e3 * csr_total,
        row_total / csr_total.max(1e-9)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlgraph_datagen::linkbench::Op;
    use std::sync::mpsc;

    /// Open a remote write transaction under `lock`, then issue one reader
    /// request under it from a second connection. Returns whether the read
    /// completed within `patience` while the transaction was still open.
    fn reader_finishes_while_write_txn_open(lock: Option<&FifoRwLock>, patience: Duration) -> bool {
        let data = linkbench::generate(&LinkBenchConfig::with_nodes(50));
        let server = Server::start_local(Arc::new(build_sqlgraph(&data))).expect("server starts");
        let addr = server.local_addr();
        let (opened_tx, opened_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (read_tx, read_rx) = mpsc::channel();
        let early = std::thread::scope(|s| {
            s.spawn(move || {
                let mut writer = RemoteMixedOps::connect(addr).expect("writer connects");
                under_lock(lock, true, || {
                    writer.client.begin().expect("begin");
                    writer
                        .client
                        .query_gremlin("g.addVertex(['type':1])")
                        .expect("write inside the transaction");
                    opened_tx.send(()).expect("main waits");
                    release_rx.recv().expect("main releases");
                    writer.client.commit().expect("commit");
                });
            });
            opened_rx.recv().expect("writer opens its transaction");
            s.spawn(move || {
                let mut reader = RemoteMixedOps::connect(addr).expect("reader connects");
                let read = under_lock(lock, false, || reader.apply(&Op::GetNode { id: 1 }));
                read_tx.send(read).expect("main waits");
            });
            let early = read_rx.recv_timeout(patience).ok();
            release_tx.send(()).expect("writer waits");
            let read = early.clone().unwrap_or_else(|| {
                read_rx
                    .recv_timeout(Duration::from_secs(60))
                    .expect("the read completes once the transaction commits")
            });
            assert_eq!(read, Ok(true));
            early.is_some()
        });
        server.shutdown();
        early
    }

    #[test]
    fn harness_lock_makes_a_reader_wait_for_an_open_write_transaction() {
        let lock = FifoRwLock::default();
        assert!(
            !reader_finishes_while_write_txn_open(Some(&lock), Duration::from_millis(300)),
            "lock baseline: the read must queue behind the open transaction"
        );
        assert!(
            reader_finishes_while_write_txn_open(None, Duration::from_secs(60)),
            "MVCC: the read must not wait for the open transaction"
        );
    }
}
