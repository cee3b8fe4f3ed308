//! The benchmark's inputs: the two fixed datasets, the seeded operation
//! streams, and the harness's own copy of the LinkBench statements and
//! write script (kept here, not imported from `sqlgraph-bench`, so a
//! refactor there cannot silently change what is measured).

use sqlgraph_core::{GraphData, GraphTxn, SchemaConfig, SqlGraph};
use sqlgraph_datagen::dbpedia::{self, DbpediaConfig, DbpediaGraph};
use sqlgraph_datagen::linkbench::{self, LinkBenchConfig, Op, Workload, ASSOC_TYPES};
use sqlgraph_json::Json;
use sqlgraph_rel::{Relation, Value};
use std::collections::HashMap;
use std::fmt::Write;

/// The seed used when `--seed` is not given; pinned digests apply to it.
pub const DEFAULT_SEED: u64 = 1;

/// LinkBench objects in the store.
pub const LB_NODES: usize = 50_000;
const LB_PAYLOAD: usize = 32;

/// Ops hashed per stream by the drift guard.
pub const GUARD_OPS: usize = 10_000;

/// Every store the harness builds runs its queries at DOP 1. On auto,
/// scans of 8 192 rows and more fan out to `rel::parallel`'s pool, whose
/// completion latch is notified after the lock that guards it is
/// released: the waiting thread may already have returned and reused
/// that stack memory, and about one `trav` run in fifty then waited for
/// ever (README, "Findings"). A benchmark that hangs measures nothing,
/// so the pool stays out of it until that is fixed.
pub fn force_serial(graph: &SqlGraph) {
    graph.database().set_parallelism(1);
}

/// 16 column triads per adjacency table, as the paper's wide tables.
pub const SCHEMA: SchemaConfig = SchemaConfig {
    out_buckets: 16,
    in_buckets: 16,
};

/// A fresh in-memory store with `data` bulk-loaded.
pub fn in_memory_store(data: &GraphData) -> Result<SqlGraph, String> {
    let graph = SqlGraph::with_config(SCHEMA).map_err(|e| e.to_string())?;
    bulk_load(&graph, data)?;
    Ok(graph)
}

pub fn bulk_load(graph: &SqlGraph, data: &GraphData) -> Result<(), String> {
    force_serial(graph);
    graph.bulk_load(data).map_err(|e| format!("bulk load: {e}"))
}

// ---------------------------------------------------------------------------
// Hashing for the drift guard
// ---------------------------------------------------------------------------

/// FNV-1a, fed through `fmt::Write` so values stream in without buffers.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn hash_props(h: &mut Fnv, props: &[(String, Json)]) {
    for (k, v) in props {
        let _ = write!(h, "{k}={v};");
    }
}

/// Hash of a whole dataset: every id, endpoint, label and property.
pub fn hash_graph(data: &GraphData) -> u64 {
    let mut h = Fnv::new();
    for (vid, props) in &data.vertices {
        let _ = write!(h, "v{vid}:");
        hash_props(&mut h, props);
    }
    for (eid, src, dst, label, props) in &data.edges {
        let _ = write!(h, "e{eid}:{src}>{dst}:{label}:");
        hash_props(&mut h, props);
    }
    h.0
}

/// Hash of the first [`GUARD_OPS`] ops of a stream.
pub fn hash_ops<T: std::fmt::Debug>(ops: &[T]) -> u64 {
    let mut h = Fnv::new();
    for item in ops.iter().take(GUARD_OPS) {
        let _ = write!(h, "{item:?}|");
    }
    h.0
}

// ---------------------------------------------------------------------------
// LinkBench
// ---------------------------------------------------------------------------

/// The LinkBench social graph every `lb_*` workload loads.
pub fn linkbench_graph() -> GraphData {
    let data = linkbench::generate(&LinkBenchConfig::with_nodes(LB_NODES));
    GraphData {
        vertices: data.vertices,
        edges: data.edges,
    }
}

/// The Table 6 mix (≈31 % writes) for one requester.
pub fn mixed_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut wl = Workload::new(seed, 0, LB_NODES, LB_PAYLOAD);
    (0..n).map(|_| wl.next_op()).collect()
}

/// One read with what the loaded (never written) store answers: the
/// count for `count_link`, the number of rows for the other reads.
#[derive(Debug)]
pub struct ReadReq {
    pub op: Op,
    pub expect: u32,
}

impl ReadReq {
    /// Whether `rel` is the answer the dataset implies.
    pub fn answered_by(&self, rel: &Relation) -> bool {
        match self.op {
            Op::CountLink { .. } => {
                rel.scalar().and_then(Value::as_int) == Some(i64::from(self.expect))
            }
            _ => rel.rows.len() == self.expect as usize,
        }
    }
}

/// The read-only part of the Table 6 mix, each op with its expected
/// answer computed from the dataset.
pub fn read_ops(seed: u64, n: usize, data: &GraphData) -> Vec<ReadReq> {
    let ltype_index = |l: &str| {
        ASSOC_TYPES
            .iter()
            .position(|t| *t == l)
            .expect("known type")
    };
    let mut out_links: HashMap<(i64, usize), Vec<i64>> = HashMap::new();
    for (_, src, dst, label, _) in &data.edges {
        out_links
            .entry((*src, ltype_index(label)))
            .or_default()
            .push(*dst);
    }
    let links = |id: i64, ltype: &str| {
        out_links
            .get(&(id, ltype_index(ltype)))
            .map_or(&[][..], Vec::as_slice)
    };
    let mut wl = Workload::new(seed, 0, LB_NODES, LB_PAYLOAD);
    (0..n)
        .map(|_| {
            let op = wl.next_op_mixed(0);
            let expect = match &op {
                Op::GetNode { .. } => 1,
                Op::CountLink { id, ltype } | Op::GetLinkList { id, ltype } => {
                    links(*id, ltype).len()
                }
                Op::MultigetLink { src, dsts, ltype } => links(*src, ltype)
                    .iter()
                    .filter(|d| dsts.contains(d))
                    .count(),
                other => unreachable!("{} in a read-only stream", other.name()),
            };
            ReadReq {
                op,
                expect: expect as u32,
            }
        })
        .collect()
}

/// The ten operation kinds, reads first; indexes per-kind tables.
pub const OP_KINDS: [&str; 10] = [
    "get_node",
    "count_link",
    "multiget_link",
    "get_link_list",
    "add_node",
    "update_node",
    "delete_node",
    "add_link",
    "delete_link",
    "update_link",
];

pub fn op_kind(op: &Op) -> usize {
    match op {
        Op::GetNode { .. } => 0,
        Op::CountLink { .. } => 1,
        Op::MultigetLink { .. } => 2,
        Op::GetLinkList { .. } => 3,
        Op::AddNode { .. } => 4,
        Op::UpdateNode { .. } => 5,
        Op::DeleteNode { .. } => 6,
        Op::AddLink { .. } => 7,
        Op::DeleteLink { .. } => 8,
        Op::UpdateLink { .. } => 9,
    }
}

pub const GET_NODE_SQL: &str = "SELECT attr FROM va WHERE vid = ?";
pub const GET_LINK_LIST_SQL: &str = "SELECT eid, outv, attr FROM ea WHERE inv = ? AND lbl = ?";

/// Run a LinkBench read as its single SQL statement through `run` (the
/// embedded database or a wire client). Four statement texts in all, so
/// they fit the statement cache: `multiget_link` binds its candidates
/// instead of spelling them into the text.
pub fn read_call<R>(op: &Op, run: impl FnOnce(&str, &[Value]) -> R) -> R {
    match op {
        Op::GetNode { id } => run(GET_NODE_SQL, &[Value::Int(*id)]),
        Op::CountLink { id, ltype } => run(
            "SELECT COUNT(*) FROM ea WHERE inv = ? AND lbl = ?",
            &[Value::Int(*id), Value::str(*ltype)],
        ),
        Op::MultigetLink { src, dsts, ltype } => {
            assert_eq!(dsts.len(), 3, "the generator draws three candidates");
            run(
                "SELECT eid, outv FROM ea WHERE inv = ? AND lbl = ? AND outv IN (?, ?, ?)",
                &[
                    Value::Int(*src),
                    Value::str(*ltype),
                    Value::Int(dsts[0]),
                    Value::Int(dsts[1]),
                    Value::Int(dsts[2]),
                ],
            )
        }
        Op::GetLinkList { id, ltype } => {
            run(GET_LINK_LIST_SQL, &[Value::Int(*id), Value::str(*ltype)])
        }
        other => unreachable!("{} is not a read", other.name()),
    }
}

fn gremlin_lit(j: &Json) -> String {
    match j {
        Json::Num(n) if n.is_int() => n.as_i64().unwrap_or(0).to_string(),
        Json::Num(n) => format!("{:?}", n.as_f64()),
        Json::Str(s) => format!("'{}'", s.replace('\\', "\\\\").replace('\'', "\\'")),
        other => format!("'{other}'"),
    }
}

fn find_link(
    tx: &mut GraphTxn<'_>,
    src: i64,
    dst: i64,
    ltype: &str,
) -> Result<Option<i64>, String> {
    let rel = tx
        .sql_with_params(
            "SELECT eid FROM ea WHERE inv = ? AND outv = ? AND lbl = ?",
            &[Value::Int(src), Value::Int(dst), Value::str(ltype)],
        )
        .map_err(|e| e.to_string())?;
    Ok(rel.rows.first().and_then(|r| r[0].as_int()))
}

/// The write script: `op`'s statements inside an open transaction.
/// `Ok(Some(bytes))` asks the caller to commit, `bytes` being the length
/// of the mutating statement a client sent (the run's "user bytes");
/// `Ok(None)` is LinkBench's no-op on a missing row and rolls back.
pub fn write_script(tx: &mut GraphTxn<'_>, op: &Op) -> Result<Option<usize>, String> {
    let mutate = |tx: &mut GraphTxn<'_>, q: String| match tx.query(&q) {
        Ok(_) => Some(q.len()),
        Err(_) => None,
    };
    match op {
        Op::AddNode { props } => {
            let map: Vec<String> = props
                .iter()
                .map(|(k, v)| format!("'{k}':{}", gremlin_lit(v)))
                .collect();
            let q = format!("g.addVertex([{}])", map.join(", "));
            tx.query(&q).map_err(|e| e.to_string())?;
            Ok(Some(q.len()))
        }
        Op::UpdateNode { id } => {
            let rel = tx
                .sql_with_params(
                    "SELECT JSON_VAL(attr, 'version') FROM va WHERE vid = ?",
                    &[Value::Int(*id)],
                )
                .map_err(|e| e.to_string())?;
            let Some(row) = rel.rows.first() else {
                return Ok(None);
            };
            let version = row[0].as_int().unwrap_or(0) + 1;
            let q = format!("g.v({id}).setProperty('version', {version})");
            tx.query(&q).map_err(|e| e.to_string())?;
            Ok(Some(q.len()))
        }
        // Deleting a node that is already gone is a no-op, not a failure.
        Op::DeleteNode { id } => Ok(mutate(tx, format!("g.removeVertex({id})"))),
        Op::AddLink { src, dst, ltype } => Ok(mutate(
            tx,
            format!("g.addEdge({src}, {dst}, '{ltype}', ['visibility':1, 'timestamp':1500000000])"),
        )),
        Op::DeleteLink { src, dst, ltype } => Ok(match find_link(tx, *src, *dst, ltype)? {
            Some(e) => mutate(tx, format!("g.removeEdge({e})")),
            None => None,
        }),
        Op::UpdateLink { src, dst, ltype } => Ok(match find_link(tx, *src, *dst, ltype)? {
            Some(e) => mutate(tx, format!("g.e({e}).setProperty('timestamp', 1600000000)")),
            None => None,
        }),
        other => unreachable!("{} is not a write", other.name()),
    }
}

// ---------------------------------------------------------------------------
// DBpedia traversals
// ---------------------------------------------------------------------------

/// Point traversals per group, then one set traversal.
pub const POINTS_PER_GROUP: usize = 3;

/// Set-class templates, cycled in this order.
pub const SET_TEMPLATES: [&str; 20] = [
    "lq1", "lq2", "lq3", "lq4", "lq5", "lq6", "lq8", "lq9", "lq10", "lq11", "dq5", "dq6", "dq8",
    "dq9", "dq10", "dq12", "dq14", "dq15", "dq18", "dq19",
];

/// Point-class templates, cycled in this order.
pub const POINT_TEMPLATES: [&str; 8] =
    ["dq3", "dq4", "dq7", "dq11", "dq13", "dq16", "dq17", "both2"];

/// The DBpedia-like knowledge graph `trav` loads.
pub fn dbpedia_graph() -> DbpediaGraph {
    dbpedia::generate(&DbpediaConfig::default().scaled(2.0))
}

/// Move the dataset out of `g`, leaving the id layout the templates need.
pub fn take_data(g: &mut DbpediaGraph) -> GraphData {
    let data = std::mem::take(&mut g.data);
    GraphData {
        vertices: data.vertices,
        edges: data.edges,
    }
}

/// One traversal of the `trav` stream.
#[derive(Debug, Clone)]
pub struct TravOp {
    /// Index into [`TravPlan::templates`].
    pub template: usize,
    pub gremlin: String,
}

/// The `trav` op stream: `groups` × (3 point + 1 set).
pub struct TravPlan {
    /// Point templates first, then the set templates.
    pub templates: Vec<&'static str>,
    pub ops: Vec<TravOp>,
}

impl TravPlan {
    pub fn is_point(&self, template: usize) -> bool {
        template < POINT_TEMPLATES.len()
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded walk over an inclusive id range that visits every id once
/// before repeating, so each template's start vertices — and with them
/// its Gremlin and SQL texts — are distinct.
struct IdWalk {
    lo: i64,
    len: u64,
    at: u64,
    step: u64,
}

impl IdWalk {
    fn new(range: (i64, i64), rng: &mut u64) -> IdWalk {
        let len = (range.1 - range.0 + 1) as u64;
        let gcd = |mut a: u64, mut b: u64| {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        };
        let mut step = splitmix(rng) % len;
        while gcd(step, len) != 1 {
            step = (step + 1) % len;
        }
        IdWalk {
            lo: range.0,
            len,
            at: splitmix(rng) % len,
            step,
        }
    }

    fn next(&mut self) -> i64 {
        self.at = (self.at + self.step) % self.len;
        self.lo + self.at as i64
    }
}

fn point_gremlin(template: &str, v: i64) -> String {
    match template {
        "dq3" => format!("g.v({v}).out('team').values('title')"),
        "dq4" => format!("g.v({v}).out('team').in('team').dedup().count()"),
        "dq7" => format!("g.v({v}).copySplit(_().out('team'), _().out('type')).fairMerge.count()"),
        "dq11" => format!("g.v({v}).out('isPartOf').out('isPartOf').out('isPartOf').path"),
        "dq13" => format!("g.v({v}).outE.label.dedup()"),
        "dq16" => format!(
            "g.v({v}).aggregate(x).both('team').both('team').except(x).dedup().count()"
        ),
        "dq17" => format!(
            "g.v({v}).out('http://dbpedia.org/property/p0','http://dbpedia.org/property/p1').count()"
        ),
        "both2" => format!("g.v({v}).both('team').both('team').count()"),
        other => unreachable!("no point template {other}"),
    }
}

/// `sqlgraph-datagen`'s text of set template `lqN` / `dqN`.
pub fn set_gremlin(g: &DbpediaGraph, name: &str) -> String {
    let n: usize = name[2..].parse().expect("template number");
    let queries = if name.starts_with("lq") {
        dbpedia::path_queries(g)
    } else {
        dbpedia::benchmark_queries(g)
    };
    queries[n - 1].clone()
}

/// Build the stream. The set templates are `sqlgraph-datagen`'s own
/// query texts; the point templates are its single-vertex queries with
/// the start vertex drawn from `seed`.
pub fn trav_plan(g: &DbpediaGraph, seed: u64, groups: usize) -> TravPlan {
    let set_texts: Vec<String> = SET_TEMPLATES.iter().map(|t| set_gremlin(g, t)).collect();
    let mut rng = seed ^ 0x7472_6176; // "trav"
    let mut walks: Vec<IdWalk> = POINT_TEMPLATES
        .iter()
        .map(|t| {
            let range = match *t {
                "dq11" | "dq13" => g.ids.places,
                "dq17" => g.ids.entities,
                _ => g.ids.players,
            };
            IdWalk::new(range, &mut rng)
        })
        .collect();
    let mut ops = Vec::with_capacity(groups * (POINTS_PER_GROUP + 1));
    for group in 0..groups {
        for slot in 0..POINTS_PER_GROUP {
            let t = (group * POINTS_PER_GROUP + slot) % POINT_TEMPLATES.len();
            ops.push(TravOp {
                template: t,
                gremlin: point_gremlin(POINT_TEMPLATES[t], walks[t].next()),
            });
        }
        let t = group % SET_TEMPLATES.len();
        ops.push(TravOp {
            template: POINT_TEMPLATES.len() + t,
            gremlin: set_texts[t].clone(),
        });
    }
    TravPlan {
        templates: POINT_TEMPLATES
            .iter()
            .chain(&SET_TEMPLATES)
            .copied()
            .collect(),
        ops,
    }
}

/// One traversal of every template: the warm-up pass of `trav`'s set-up,
/// the same whatever `--seed` says.
pub fn trav_warmup(g: &DbpediaGraph) -> Vec<String> {
    let plan = trav_plan(g, 0, SET_TEMPLATES.len());
    let mut seen = vec![false; plan.templates.len()];
    plan.ops
        .into_iter()
        .filter(|op| !std::mem::replace(&mut seen[op.template], true))
        .map(|op| op.gremlin)
        .collect()
}

/// One value in a form that does not depend on whether the engine or the
/// interpreter produced it: a path is a `Value::Array` from SQL and a
/// JSON array from the interpreter.
fn canon_value(v: &Value, out: &mut String) {
    match v {
        Value::Json(j) => canon_json(j, out),
        Value::Array(items) => {
            out.push('[');
            for item in items.iter() {
                canon_value(item, out);
                out.push(',');
            }
            out.push(']');
        }
        Value::Int(i) => {
            let _ = write!(out, "i{i}");
        }
        Value::Str(s) => {
            let _ = write!(out, "s{s}");
        }
        other => {
            let _ = write!(out, "{other}");
        }
    }
}

fn canon_json(j: &Json, out: &mut String) {
    match j {
        Json::Array(items) => {
            out.push('[');
            for item in items {
                canon_json(item, out);
                out.push(',');
            }
            out.push(']');
        }
        Json::Num(n) if n.is_int() => {
            let _ = write!(out, "i{}", n.as_i64().unwrap_or(0));
        }
        Json::Str(s) => {
            let _ = write!(out, "s{s}");
        }
        other => {
            let _ = write!(out, "{other}");
        }
    }
}

/// A result as an order-free digest: traversal results are multisets.
pub fn result_digest(rel: &Relation) -> u64 {
    let mut rows: Vec<String> = rel
        .rows
        .iter()
        .map(|row| {
            let mut s = String::new();
            for v in row {
                canon_value(v, &mut s);
                s.push('\u{1f}');
            }
            s
        })
        .collect();
    rows.sort_unstable();
    let mut h = Fnv::new();
    for r in &rows {
        let _ = write!(h, "{r}\u{1e}");
    }
    h.0
}

// ---------------------------------------------------------------------------
// Drift guard
// ---------------------------------------------------------------------------

/// Hashes of the generated inputs for [`DEFAULT_SEED`]. If
/// `sqlgraph-datagen` ever generates something else, numbers measured
/// before and after are not comparable and the harness refuses to run.
pub const PINNED_LB_GRAPH: u64 = 0xd817_5944_a5f1_09d0;
pub const PINNED_LB_READ_OPS: u64 = 0x613e_a06e_bbf0_91d0;
pub const PINNED_LB_MIXED_OPS: u64 = 0x695b_53d7_9ff9_b340;
pub const PINNED_DBPEDIA_GRAPH: u64 = 0x77c8_8cf6_b436_308e;
pub const PINNED_TRAV_OPS: u64 = 0xac1a_4917_fdf3_a3b7;

/// Hashes a stream of its own, [`GUARD_OPS`] long whatever the window.
pub fn hash_trav_ops(g: &DbpediaGraph, seed: u64) -> u64 {
    hash_ops(&trav_plan(g, seed, GUARD_OPS / (POINTS_PER_GROUP + 1)).ops)
}

/// Compare a computed input hash with its pin.
pub fn guard(what: &str, got: u64, pinned: u64) -> Result<(), String> {
    if got == pinned {
        Ok(())
    } else {
        Err(format!(
            "input drift: {what} hashes to {got:#018x}, pinned {pinned:#018x} — \
             sqlgraph-datagen changed what it generates, so results are not \
             comparable with earlier ones; re-pin only in a change that re-measures the baseline"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_walk_visits_every_id_once() {
        let mut rng = 9;
        let mut walk = IdWalk::new((100, 129), &mut rng);
        let mut seen: Vec<i64> = (0..30).map(|_| walk.next()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (100..=129).collect::<Vec<_>>());
    }

    #[test]
    fn trav_stream_shape() {
        let g = dbpedia::generate(&DbpediaConfig::tiny());
        let plan = trav_plan(&g, 1, 40);
        assert_eq!(plan.ops.len(), 160);
        assert_eq!(plan.templates.len(), 28);
        for (i, op) in plan.ops.iter().enumerate() {
            assert_eq!(plan.is_point(op.template), i % 4 != 3, "op {i}");
        }
        // Set templates cycle in order.
        assert_eq!(plan.templates[plan.ops[4 * 17 + 3].template], "dq15");
        assert_eq!(plan.ops[3].gremlin, plan.ops[83].gremlin);
        // Point texts are all distinct.
        let mut texts: Vec<&str> = plan
            .ops
            .iter()
            .filter(|op| plan.is_point(op.template))
            .map(|op| op.gremlin.as_str())
            .collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), 120);
        // Another seed moves the start vertices only.
        let other = trav_plan(&g, 2, 40);
        assert_ne!(plan.ops[0].gremlin, other.ops[0].gremlin);
        assert_eq!(plan.ops[3].gremlin, other.ops[3].gremlin);
        assert_eq!(trav_warmup(&g).len(), 28);
    }

    #[test]
    fn read_expectations_follow_the_dataset() {
        let data = linkbench_graph();
        let ops = read_ops(DEFAULT_SEED, 2_000, &data);
        assert!(ops.iter().all(|r| !r.op.is_write()));
        let listed: u32 = ops
            .iter()
            .filter(|r| matches!(r.op, Op::GetLinkList { .. }))
            .map(|r| r.expect)
            .sum();
        assert!(listed > 0);
        assert_eq!(
            hash_ops(&ops),
            hash_ops(&read_ops(DEFAULT_SEED, 2_000, &data))
        );
        assert_ne!(hash_ops(&ops), hash_ops(&read_ops(2, 2_000, &data)));
    }

    #[test]
    fn digests_ignore_row_order() {
        let a = Relation::new(
            vec!["val".into()],
            vec![vec![Value::Int(1)], vec![Value::str("x")]],
        );
        let b = Relation::new(
            vec!["val".into()],
            vec![vec![Value::str("x")], vec![Value::Int(1)]],
        );
        let c = Relation::new(vec!["val".into()], vec![vec![Value::Int(1)]]);
        assert_eq!(result_digest(&a), result_digest(&b));
        assert_ne!(result_digest(&a), result_digest(&c));
        // A path reads the same from the engine and from the interpreter.
        let path = |v: Value| Relation::new(vec!["val".into()], vec![vec![v]]);
        let engine = path(Value::array(vec![Value::Int(1), Value::Int(2)]));
        let interp = path(Value::json(Json::Array(vec![Json::int(1), Json::int(2)])));
        assert_eq!(result_digest(&engine), result_digest(&interp));
        assert_ne!(
            result_digest(&engine),
            result_digest(&path(Value::array(vec![Value::Int(2), Value::Int(1)])))
        );
    }
}
