//! Shared by the differential suites: the 63-query corpus, the graphs it
//! runs on, and the canonical result rendering the oracles compare.
#![allow(dead_code)] // each test crate uses its own subset

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlgraph_core::{GraphData, SchemaConfig, SqlGraph};
use sqlgraph_gremlin::{Blueprints, Elem, MemGraph};
use sqlgraph_json::Json;
use sqlgraph_rel::Value;

/// Canonical rendering of a result multiset for comparison.
pub fn canon_values(rows: &[Vec<Value>]) -> Vec<String> {
    let mut out: Vec<String> = rows
        .iter()
        .map(|r| render_value(r.first().expect("one column")))
        .collect();
    out.sort();
    out
}

pub fn render_value(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("i:{i}"),
        Value::Double(f) => format!("f:{f}"),
        Value::Str(s) => format!("s:{s}"),
        Value::Bool(b) => format!("b:{b}"),
        Value::Null => "null".into(),
        Value::Json(j) => format!("j:{j}"),
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(render_value).collect();
            format!("a:[{}]", inner.join(","))
        }
    }
}

pub fn canon_elems(elems: &[Elem]) -> Vec<String> {
    let mut out: Vec<String> = elems
        .iter()
        .map(|e| match e {
            Elem::Vertex(v) | Elem::Edge(v) => format!("i:{v}"),
            Elem::Value(j) => render_json(j),
        })
        .collect();
    out.sort();
    out
}

pub fn render_json(j: &Json) -> String {
    match j {
        Json::Num(n) if n.is_int() => format!("i:{}", n.as_i64().unwrap()),
        Json::Num(n) => format!("f:{}", n.as_f64()),
        Json::Str(s) => format!("s:{s}"),
        Json::Bool(b) => format!("b:{b}"),
        Json::Null => "null".into(),
        Json::Array(items) => {
            let inner: Vec<String> = items.iter().map(render_json).collect();
            format!("a:[{}]", inner.join(","))
        }
        other => format!("j:{other}"),
    }
}

/// Build the same graph in all three stores.
pub fn build_stores(data: &GraphData) -> (SqlGraph, MemGraph) {
    let sql = SqlGraph::with_config(SchemaConfig {
        out_buckets: 3,
        in_buckets: 3,
    })
    .unwrap();
    sql.bulk_load(data).unwrap();
    let mem = MemGraph::new();
    for (vid, props) in &data.vertices {
        let got = mem.add_vertex(props).unwrap();
        assert_eq!(got, *vid, "MemGraph ids must align");
    }
    // MemGraph assigns edge ids sequentially; data must be in eid order.
    for (eid, src, dst, label, props) in &data.edges {
        let got = mem.add_edge(*src, *dst, label, props).unwrap();
        assert_eq!(got, *eid, "MemGraph edge ids must align");
    }
    (sql, mem)
}

pub fn figure2_graph() -> GraphData {
    GraphData {
        vertices: vec![
            (
                1,
                vec![
                    ("name".into(), "marko".into()),
                    ("age".into(), Json::int(29)),
                ],
            ),
            (
                2,
                vec![
                    ("name".into(), "vadas".into()),
                    ("age".into(), Json::int(27)),
                ],
            ),
            (
                3,
                vec![
                    ("name".into(), "lop".into()),
                    ("lang".into(), "java".into()),
                ],
            ),
            (
                4,
                vec![
                    ("name".into(), "josh".into()),
                    ("age".into(), Json::int(32)),
                ],
            ),
        ],
        edges: vec![
            (
                1,
                1,
                2,
                "knows".into(),
                vec![("weight".into(), Json::float(0.5))],
            ),
            (
                2,
                1,
                4,
                "knows".into(),
                vec![("weight".into(), Json::float(1.0))],
            ),
            (
                3,
                1,
                3,
                "created".into(),
                vec![("weight".into(), Json::float(0.4))],
            ),
            (
                4,
                4,
                2,
                "likes".into(),
                vec![("weight".into(), Json::float(0.2))],
            ),
            (
                5,
                4,
                3,
                "created".into(),
                vec![("weight".into(), Json::float(0.8))],
            ),
        ],
    }
}

/// The query corpus: every pipe family the translator supports.
pub const CORPUS: &[&str] = &[
    "g.V",
    "g.E",
    "g.v(1)",
    "g.v(99)",
    "g.e(3)",
    "g.V.count()",
    "g.E.count()",
    "g.v(1).out",
    "g.v(1).out('knows')",
    "g.v(1).out('knows','created')",
    "g.v(3).in",
    "g.v(2).in('likes')",
    "g.v(4).both",
    "g.v(1).outE",
    "g.v(1).outE('knows')",
    "g.v(2).inE",
    "g.v(4).bothE",
    "g.v(1).outE('knows').inV",
    "g.e(4).outV",
    "g.e(4).inV",
    "g.e(4).bothV",
    "g.v(1).out.out",
    "g.v(1).out.out.count()",
    "g.v(1).out.in.dedup()",
    "g.V.has('age')",
    "g.V.hasNot('age')",
    "g.V.has('age', 29)",
    "g.V.has('age', T.gt, 28)",
    "g.V.has('age', T.lte, 29)",
    "g.V.has('age', T.neq, 29)",
    "g.V.has('name', 'lop')",
    "g.V('name','lop')",
    "g.V('name','lop').in('created')",
    "g.V.filter{it.age > 27 && it.age < 32}",
    "g.V.filter{it.name == 'lop' || it.name == 'vadas'}",
    "g.V.filter{it.name.contains('a')}",
    "g.V.interval('age', 27, 32)",
    "g.V.out.dedup()",
    "g.V.out.dedup().count()",
    "g.v(1).out('knows').values('name')",
    "g.v(1).values('age')",
    "g.v(1).outE.label.dedup()",
    "g.v(2).id",
    "g.E.has('weight', T.gte, 0.8)",
    "g.E.has('weight', T.lt, 0.5).inV",
    "g.v(1).out('knows').out.path",
    "g.v(1).out.both.simplePath.count()",
    "g.V.as('x').out('created').back('x')",
    "g.V.out('created').back(1)",
    "g.V.as('x').out('created').back('x').values('name')",
    "g.v(1).aggregate(x).out('knows').out.except(x)",
    "g.v(2).aggregate(x).in('knows').out.retain(x)",
    "g.V.and(_().out('knows'), _().out('created'))",
    "g.V.or(_().out('knows'), _().out('created'))",
    "g.v(1).copySplit(_().out('knows'), _().out('created')).fairMerge",
    "g.v(1).out.loop(1){it.loops < 2}",
    "g.v(1).out.loop(1){it.loops < 3}.count()",
    "g.V.as('s').out.loop('s'){it.loops < 2}.dedup()",
    "g.V.groupBy{it.name}{it}.count()",
    "g.V.table(t1).out.count()",
    "g.V.filter{it.tag=='w'}.both.dedup().count()",
    "g.V.has('age').ifThenElse{it.age > 28}{it.name}{it.age}",
];

pub fn random_graph(seed: u64, vertices: usize, edges: usize) -> GraphData {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels = ["knows", "created", "likes", "isPartOf", "team"];
    let names = ["alpha", "beta", "gamma", "delta"];
    let mut data = GraphData::default();
    for v in 1..=vertices as i64 {
        let mut props: Vec<(String, Json)> = vec![(
            "name".into(),
            Json::str(names[rng.gen_range(0..names.len())]),
        )];
        if rng.gen_bool(0.7) {
            props.push(("age".into(), Json::int(rng.gen_range(10..60))));
        }
        if rng.gen_bool(0.3) {
            props.push((
                "tag".into(),
                Json::str(if rng.gen_bool(0.5) { "w" } else { "z" }),
            ));
        }
        data.vertices.push((v, props));
    }
    for e in 1..=edges as i64 {
        let src = rng.gen_range(1..=vertices as i64);
        let dst = rng.gen_range(1..=vertices as i64);
        let label = labels[rng.gen_range(0..labels.len())];
        let mut props: Vec<(String, Json)> = Vec::new();
        if rng.gen_bool(0.5) {
            props.push((
                "weight".into(),
                Json::float((rng.gen_range(0..100) as f64) / 100.0),
            ));
        }
        data.edges.push((e, src, dst, label.into(), props));
    }
    data
}
