//! Property-based differential testing: arbitrary generated pipelines over
//! arbitrary graphs — the SQL translation must agree with the interpreter
//! oracle on every one.

use proptest::prelude::*;
use sqlgraph_core::{GraphData, SchemaConfig, SqlGraph, TranslateOptions};
use sqlgraph_gremlin::ast::{BackTarget, Closure, Cmp, GremlinStatement, Pipe, Pipeline};
use sqlgraph_gremlin::{interp, Blueprints, Elem, MemGraph};
use sqlgraph_json::Json;
use sqlgraph_rel::sql::ast::Statement;
use sqlgraph_rel::Value;

/// One edge: `(eid, src, dst, label, props)`.
type TestEdge = (i64, i64, i64, String, Vec<(String, Json)>);

/// A small random graph: vertices with `name`/`age`, labeled edges.
#[derive(Debug, Clone)]
struct TestGraph {
    vertices: Vec<(i64, Vec<(String, Json)>)>,
    edges: Vec<TestEdge>,
}

fn arb_graph() -> impl Strategy<Value = TestGraph> {
    (3usize..10, 0usize..25).prop_flat_map(|(nv, ne)| {
        let vertex_props = prop::collection::vec(
            (prop::sample::select(vec!["a", "b", "c"]), 0i64..5),
            nv..=nv,
        );
        let edges = prop::collection::vec(
            (
                1..=nv as i64,
                1..=nv as i64,
                prop::sample::select(vec!["knows", "likes", "made"]),
            ),
            ne..=ne,
        );
        (vertex_props, edges).prop_map(|(vp, es)| TestGraph {
            vertices: vp
                .into_iter()
                .enumerate()
                .map(|(i, (name, age))| {
                    (
                        i as i64 + 1,
                        vec![
                            ("name".to_string(), Json::str(name)),
                            ("age".to_string(), Json::int(age)),
                        ],
                    )
                })
                .collect(),
            edges: es
                .into_iter()
                .enumerate()
                .map(|(i, (s, d, l))| (i as i64 + 1, s, d, l.to_string(), vec![]))
                .collect(),
        })
    })
}

fn arb_pipe() -> impl Strategy<Value = Pipe> {
    let label = prop::sample::select(vec!["knows", "likes", "made"]);
    let labels = || {
        prop::collection::vec(label.clone(), 0..2)
            .prop_map(|ls| ls.into_iter().map(str::to_string).collect::<Vec<_>>())
    };
    prop_oneof![
        labels().prop_map(Pipe::Out),
        labels().prop_map(Pipe::In),
        labels().prop_map(Pipe::Both),
        Just(Pipe::Dedup),
        Just(Pipe::Id),
        (0i64..3, 2i64..6).prop_map(|(lo, hi)| Pipe::Range { lo, hi: lo + hi }),
        prop::sample::select(vec!["name", "age", "zzz"]).prop_map(|k| Pipe::Has {
            key: k.to_string(),
            cmp: Cmp::Eq,
            value: None,
        }),
        (prop::sample::select(vec!["a", "b", "c"])).prop_map(|v| Pipe::Has {
            key: "name".to_string(),
            cmp: Cmp::Eq,
            value: Some(Json::str(v).into()),
        }),
        (0i64..5).prop_map(|v| Pipe::Has {
            key: "age".to_string(),
            cmp: Cmp::Gt,
            value: Some(Json::int(v).into()),
        }),
        Just(Pipe::Values("name".to_string())),
        Just(Pipe::Filter(Closure::Compare(
            Cmp::Lt,
            Box::new(Closure::Prop("age".to_string())),
            Box::new(Closure::Literal(Json::int(3))),
        ))),
        Just(Pipe::Back(BackTarget::Steps(1))),
        Just(Pipe::SimplePath),
        Just(Pipe::Path),
    ]
}

fn arb_pipeline() -> impl Strategy<Value = Pipeline> {
    let start = prop_oneof![
        Just(Pipe::Vertices { filter: None }),
        (1i64..8).prop_map(|id| Pipe::VertexById(id.into())),
    ];
    (
        start,
        prop::collection::vec(arb_pipe(), 0..5),
        any::<bool>(),
    )
        .prop_map(|(start, mut pipes, count)| {
            pipes.insert(0, start);
            if count {
                pipes.push(Pipe::Count);
            }
            Pipeline { pipes }
        })
}

/// Gremlin text of a generated pipeline (the pipes [`arb_pipe`] makes), so
/// it can enter the store the way a client's query does: through the
/// parser, which numbers the literals a template binds.
fn gremlin_text(p: &Pipeline) -> String {
    let labels = |ls: &[String]| {
        let quoted: Vec<String> = ls.iter().map(|l| format!("'{l}'")).collect();
        quoted.join(",")
    };
    let mut text = String::from("g");
    for pipe in &p.pipes {
        text.push('.');
        text.push_str(&match pipe {
            Pipe::Vertices { filter: None } => "V".to_string(),
            Pipe::VertexById(id) => format!("v({})", id.value),
            Pipe::Out(ls) => format!("out({})", labels(ls)),
            Pipe::In(ls) => format!("in({})", labels(ls)),
            Pipe::Both(ls) => format!("both({})", labels(ls)),
            Pipe::Dedup => "dedup()".to_string(),
            Pipe::Id => "id".to_string(),
            Pipe::Range { lo, hi } => format!("range({lo},{hi})"),
            Pipe::Has {
                key, value: None, ..
            } => format!("has('{key}')"),
            Pipe::Has {
                key,
                cmp: Cmp::Eq,
                value: Some(v),
            } => format!("has('{key}',{})", v.value),
            Pipe::Has {
                key,
                cmp: Cmp::Gt,
                value: Some(v),
            } => format!("has('{key}',T.gt,{})", v.value),
            Pipe::Values(key) => format!("values('{key}')"),
            Pipe::Filter(_) => "filter{it.age < 3}".to_string(),
            Pipe::Back(BackTarget::Steps(n)) => format!("back({n})"),
            Pipe::SimplePath => "simplePath".to_string(),
            Pipe::Path => "path".to_string(),
            Pipe::Count => "count()".to_string(),
            other => unreachable!("arb_pipe does not generate {other:?}"),
        });
    }
    text
}

/// Pipelines whose semantics depend on element kinds the generator cannot
/// track (e.g. `values` after `id`) fail kind checks in both engines; only
/// compare when the oracle accepts the pipeline.
fn oracle_result(mem: &MemGraph, p: &Pipeline) -> Option<Vec<String>> {
    interp::eval(mem, p).ok().map(canon_elems)
}

fn canon_elems(elems: Vec<Elem>) -> Vec<String> {
    let mut out: Vec<String> = elems.iter().map(|e| format!("{:?}", e.to_json())).collect();
    out.sort();
    out
}

fn canon_rel(rel: &sqlgraph_rel::Relation) -> Vec<String> {
    let mut out: Vec<String> = rel
        .rows
        .iter()
        .map(|r| format!("{:?}", value_to_json(&r[0])))
        .collect();
    out.sort();
    out
}

fn value_to_json(v: &Value) -> Json {
    sqlgraph_core::value_to_json(v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn translation_matches_interpreter(g in arb_graph(), p in arb_pipeline()) {
        // Range pipes depend on input order, which neither engine defines;
        // only compare cardinality for those.
        let has_range = p.pipes.iter().any(|x| matches!(x, Pipe::Range { .. }));

        let mem = MemGraph::new();
        for (vid, props) in &g.vertices {
            let got = mem.add_vertex(props).unwrap();
            prop_assert_eq!(got, *vid);
        }
        for (eid, s, d, l, props) in &g.edges {
            let got = mem.add_edge(*s, *d, l, props).unwrap();
            prop_assert_eq!(got, *eid);
        }
        let Some(want) = oracle_result(&mem, &p) else {
            return Ok(()); // kind-invalid pipeline; both sides reject
        };

        let sql = SqlGraph::with_config(SchemaConfig { out_buckets: 2, in_buckets: 2 }).unwrap();
        sql.bulk_load(&GraphData { vertices: g.vertices.clone(), edges: g.edges.clone() }).unwrap();

        // Interpreter over SqlGraph's Blueprints API must agree exactly.
        let stmt = GremlinStatement::Query(p.clone());
        let chatty = canon_elems(interp::execute(&sql, &stmt).unwrap());
        prop_assert_eq!(&chatty, &want, "chatty mode diverged on {:?}", p);

        // Translated SQL (when the pipeline is translatable) must agree.
        let layout = sql.layout();
        if let Ok(text) = sqlgraph_core::translate(&p, &layout) {
            let rel = sql.database().execute(&text);
            let rel = match rel {
                Ok(r) => r,
                Err(e) => return Err(TestCaseError::fail(format!(
                    "generated SQL failed on {p:?}: {e}\n{text}"
                ))),
            };
            if has_range {
                prop_assert_eq!(rel.rows.len(), want.len(), "cardinality diverged on {:?}", p);
            } else {
                prop_assert_eq!(canon_rel(&rel), want, "translation diverged on {:?}\n{}", p, text);
            }

            // The store runs the same translation as a template with the
            // literals bound: same relation, row for row, and the same plan.
            let gremlin = gremlin_text(&p);
            let (stmt, binds) = sql.prepare_query(&gremlin, TranslateOptions::default()).unwrap();
            let bound = sql.database().execute_statement(&stmt, &binds, None).unwrap();
            prop_assert_eq!(
                format!("{bound:?}"),
                format!("{rel:?}"),
                "template diverged from inline SQL on {}",
                &gremlin
            );
            let Statement::Select(select) = &*stmt else {
                return Err(TestCaseError::fail(format!("{gremlin} is not a SELECT")));
            };
            let plan_bound = sql
                .database()
                .execute_statement(&Statement::Explain(select.clone()), &binds, None)
                .unwrap();
            let plan_inline = sql.database().execute(&format!("EXPLAIN {text}")).unwrap();
            prop_assert_eq!(plan_bound.strings(), plan_inline.strings(), "plans differ on {}", &gremlin);
        }
    }
}
