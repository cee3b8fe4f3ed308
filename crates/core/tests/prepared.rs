//! Prepared traversals: `SqlGraph::query` runs a traversal as a cached
//! statement template with the lifted literals bound. A wrong slot mapping
//! is invisible when a warm run repeats the cold run's values, so every
//! case here runs a shape cold (miss), then the *same shape with other
//! literals* warm (hit), and checks each against the interpreter.

mod common;

use common::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlgraph_core::store::TEMPLATE_CACHE_CAP;
use sqlgraph_core::{GraphData, SchemaConfig, SqlGraph, TranslateOptions};
use sqlgraph_gremlin::{interp, parse_query, Blueprints};
use sqlgraph_json::Json;
use sqlgraph_rel::sql::ast::Statement;
use sqlgraph_rel::Relation;

fn interpreted(sql: &SqlGraph, query: &str) -> Vec<String> {
    canon_elems(&interp::eval(sql, &parse_query(query).unwrap()).unwrap())
}

/// Run `query` through the store and compare with the interpreter.
fn check(sql: &SqlGraph, query: &str) -> Relation {
    let got = sql.query(query).unwrap_or_else(|e| panic!("{query}: {e}"));
    assert_eq!(
        canon_values(&got.rows),
        interpreted(sql, query),
        "store diverged from the interpreter on {query}"
    );
    got
}

/// The join orders fresh planning picks for `query`: EXPLAIN's
/// `join order:` notes, one per reordered core, in execution order.
fn join_orders(sql: &SqlGraph, query: &str) -> Vec<String> {
    let plan = sql.explain_query(query).unwrap().strings();
    plan.into_iter()
        .filter(|l| l.starts_with("join order:"))
        .collect()
}

/// `check`, asserting the traversal was served from a cached template.
fn check_hit(sql: &SqlGraph, query: &str) -> Relation {
    let (hits, misses, len) = sql.template_cache_stats();
    let got = check(sql, query);
    assert_eq!(
        sql.template_cache_stats(),
        (hits + 1, misses, len),
        "{query} should have hit a cached template"
    );
    got
}

/// `check`, asserting the traversal's shape was new and is now cached.
fn check_miss(sql: &SqlGraph, query: &str) -> Relation {
    let (hits, misses, len) = sql.template_cache_stats();
    let got = check(sql, query);
    assert_eq!(
        sql.template_cache_stats(),
        (hits, misses + 1, len + 1),
        "{query} should have been a new shape"
    );
    got
}

/// `query` with the value of every lifted literal changed and nothing else:
/// the ids of `g.v(..)` / `g.e(..)` and the value arguments of `g.V(k, v)`,
/// `has(k, [T.op,] v)` and `interval(k, lo, hi)`. Assumes those argument
/// lists hold no `,` or `)` inside strings (true of every query here).
fn rebound(query: &str) -> String {
    fn vary(lit: &str) -> String {
        if lit.starts_with('\'') {
            return if lit == "'lop'" { "'josh'" } else { "'lop'" }.to_string();
        }
        if let Ok(n) = lit.parse::<i64>() {
            return (n - 2).to_string();
        }
        match lit.parse::<f64>() {
            Ok(f) => format!("{:?}", f + 0.25),
            Err(_) => lit.to_string(), // T.op, true/false/null
        }
    }
    let mut out = String::new();
    let mut rest = query;
    loop {
        let next = [".v(", ".e(", ".V(", ".has(", ".interval("]
            .iter()
            .filter_map(|pat| rest.find(pat).map(|at| (at, *pat)))
            .min();
        let Some((at, pat)) = next else {
            out.push_str(rest);
            return out;
        };
        let args_at = at + pat.len();
        let close = args_at + rest[args_at..].find(')').expect("closed argument list");
        out.push_str(&rest[..args_at]);
        let args: Vec<String> = rest[args_at..close]
            .split(',')
            .enumerate()
            .map(|(i, arg)| match pat {
                ".v(" => (arg.trim().parse::<i64>().unwrap() % 4 + 1).to_string(),
                ".e(" => (arg.trim().parse::<i64>().unwrap() % 5 + 1).to_string(),
                _ if i == 0 => arg.to_string(), // the property key
                _ => vary(arg.trim()),
            })
            .collect();
        out.push_str(&args.join(", "));
        rest = &rest[close..];
    }
}

#[test]
fn rebound_changes_lifted_literals_only() {
    assert_eq!(rebound("g.v(1).out('knows')"), "g.v(2).out('knows')");
    assert_eq!(rebound("g.e(4).bothV"), "g.e(5).bothV");
    assert_eq!(
        rebound("g.V('name','lop').in('created')"),
        "g.V('name', 'josh').in('created')"
    );
    assert_eq!(
        rebound("g.E.has('weight', T.gte, 0.8)"),
        "g.E.has('weight', T.gte, 1.05)"
    );
    assert_eq!(
        rebound("g.V.interval('age', 27, 32)"),
        "g.V.interval('age', 25, 30)"
    );
    assert_eq!(
        rebound("g.V.filter{it.age > 27}.has('age')"),
        "g.V.filter{it.age > 27}.has('age')"
    );
    assert_eq!(
        rebound("g.v(1).out.loop(1){it.loops < 3}.count()"),
        "g.v(2).out.loop(1){it.loops < 3}.count()"
    );
}

/// Every corpus query cold, then rebound warm — on the paper's Figure 2
/// graph and on random graphs — each compared with the interpreter, with
/// the cache counters showing the warm run really was a hit.
#[test]
fn corpus_cold_then_rebound_warm_matches_the_interpreter() {
    let graphs = [
        figure2_graph(),
        random_graph(11, 25, 60),
        random_graph(12, 25, 60),
    ];
    for data in &graphs {
        let (sql, _) = build_stores(data);
        for query in CORPUS {
            let translatable = sql.translate_query(query).is_ok();
            let fallbacks = sql.fallback_count();
            let (hits, misses, _) = sql.template_cache_stats();
            check(&sql, query);
            let (hits1, misses1, len1) = sql.template_cache_stats();
            assert_eq!(hits1 + misses1, hits + misses + 1, "one lookup: {query}");
            let warm = rebound(query);
            if translatable {
                // The rebound run reuses the cores' plans too — all of them
                // unless its binds make planning order some join another
                // way (EXPLAIN's join-order notes differ), which must
                // re-plan that core.
                let (plan_hits, replans) = sql.database().plan_cache_stats();
                sql.query(&warm).unwrap();
                let (plan_hits1, replans1) = sql.database().plan_cache_stats();
                assert!(plan_hits1 > plan_hits, "{warm}: no plan reused");
                if join_orders(&sql, query) == join_orders(&sql, &warm) {
                    assert_eq!(replans1, replans, "{warm} re-planned");
                }
                check_hit(&sql, &warm);
                assert_eq!(sql.fallback_count(), fallbacks);
            } else {
                // Untranslatable: interpreted both times, never cached.
                check(&sql, &warm);
                assert_eq!(
                    sql.template_cache_stats(),
                    (hits1, misses1 + 1, len1),
                    "{warm}"
                );
                assert_eq!(sql.fallback_count(), fallbacks + 2);
            }
        }
    }
}

/// For every corpus query the template with its binds and the inline text
/// `translate` prints give the same relation, byte for byte, and the same
/// EXPLAIN, line for line.
#[test]
fn corpus_template_and_inline_text_agree_on_rows_and_plans() {
    let (sql, _) = build_stores(&random_graph(13, 25, 60));
    let db = sql.database();
    for query in CORPUS
        .iter()
        .map(|q| q.to_string())
        .chain(CORPUS.iter().map(|q| rebound(q)))
    {
        let Ok(text) = sql.translate_query(&query) else {
            continue;
        };
        let (stmt, binds) = sql
            .prepare_query(&query, TranslateOptions::default())
            .unwrap();
        let inline = db.execute(&text).unwrap();
        let bound = db.execute_statement(&stmt, &binds, None).unwrap();
        assert_eq!(format!("{bound:?}"), format!("{inline:?}"), "{query}");
        let Statement::Select(select) = &*stmt else {
            panic!("{query} did not translate to a SELECT");
        };
        let plan_bound = db
            .execute_statement(&Statement::Explain(select.clone()), &binds, None)
            .unwrap();
        let plan_inline = db.execute(&format!("EXPLAIN {text}")).unwrap();
        assert_eq!(plan_bound.strings(), plan_inline.strings(), "{query}");
    }
}

/// A graph with the labels and the `title` property the eight `perf`
/// point templates name.
fn point_template_graph() -> GraphData {
    let mut rng = StdRng::seed_from_u64(5);
    let labels = [
        "team",
        "type",
        "isPartOf",
        "http://dbpedia.org/property/p0",
        "http://dbpedia.org/property/p1",
    ];
    let mut data = GraphData::default();
    for v in 1..=40i64 {
        data.vertices
            .push((v, vec![("title".into(), Json::str(format!("t{}", v % 7)))]));
    }
    for e in 1..=160i64 {
        let label = labels[rng.gen_range(0..labels.len())];
        let (src, dst) = (rng.gen_range(1..=40), rng.gen_range(1..=40));
        data.edges.push((e, src, dst, label.into(), vec![]));
    }
    data
}

/// `perf`'s point templates (perf/src/inputs.rs, `point_gremlin`).
fn point_template(name: &str, v: i64) -> String {
    match name {
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

const POINT_TEMPLATES: [&str; 8] = ["dq3", "dq4", "dq7", "dq11", "dq13", "dq16", "dq17", "both2"];

#[test]
fn perf_point_templates_rebind_their_start_vertex() {
    let (sql, _) = build_stores(&point_template_graph());
    for name in POINT_TEMPLATES {
        check_miss(&sql, &point_template(name, 1));
        for v in [2, 17, 40, 41] {
            check_hit(&sql, &point_template(name, v));
        }
    }
    assert_eq!(sql.template_cache_stats().2, POINT_TEMPLATES.len());
    assert_eq!(sql.fallback_count(), 0);
}

/// The `trav` op stream in miniature: N traversals over k shapes are k
/// misses and N − k hits, and none of them touches `rel`'s statement cache.
#[test]
fn n_traversals_over_k_shapes_are_k_misses_and_the_rest_hits() {
    let (sql, _) = build_stores(&point_template_graph());
    let stmt_cache_len = sql.database().stmt_cache_len();
    let mut n = 0u64;
    for round in 0..25i64 {
        for name in POINT_TEMPLATES {
            sql.query(&point_template(name, round + 1)).unwrap();
            n += 1;
        }
        // A set-class shape: no lifted literal at all.
        sql.query("g.V.out('team').dedup().count()").unwrap();
        n += 1;
    }
    let k = POINT_TEMPLATES.len() as u64 + 1;
    assert_eq!(sql.template_cache_stats(), (n - k, k, k as usize));
    assert_eq!(sql.database().stmt_cache_len(), stmt_cache_len);
    assert_eq!(sql.fallback_count(), 0);
}

/// Vertices 1..=8 where `age` of vertex `v` is `v` for 5 and 7 for 6 (so
/// `g.v(5).has('age',5)` binds two equal values), `k` takes one value of
/// each scalar type, and one name holds a quote.
fn typed_graph() -> GraphData {
    let mut data = GraphData::default();
    let ks = [
        Json::int(1),
        Json::str("1"),
        Json::float(1.5),
        Json::int(-3),
        Json::Bool(true),
    ];
    for v in 1..=8i64 {
        let mut props = vec![
            ("age".to_string(), Json::int(if v == 6 { 7 } else { v })),
            (
                "name".to_string(),
                Json::str(if v == 2 { "o'brien" } else { "d'arcy" }),
            ),
        ];
        if let Some(k) = ks.get(v as usize - 1) {
            props.push(("k".to_string(), k.clone()));
        }
        data.vertices.push((v, props));
    }
    let edges = [
        (1, 2, "a"),
        (1, 3, "b"),
        (2, 5, "a"),
        (3, 6, "a"),
        (3, 7, "b"),
        (5, 8, "a"),
        (6, 8, "b"),
        (7, 1, "a"),
    ];
    for (i, (src, dst, label)) in edges.iter().enumerate() {
        data.edges
            .push((i as i64 + 1, *src, *dst, label.to_string(), vec![]));
    }
    data
}

#[test]
fn equal_values_at_populate_time_keep_their_own_slots() {
    let (sql, _) = build_stores(&typed_graph());
    // Cold: id and value are both 5. A template that bound one slot twice
    // would still answer this one right.
    assert_eq!(check_miss(&sql, "g.v(5).has('age',5)").rows.len(), 1);
    assert_eq!(check_hit(&sql, "g.v(6).has('age',7)").rows.len(), 1);
    assert_eq!(check_hit(&sql, "g.v(7).has('age',6)").rows.len(), 0);
}

#[test]
fn literal_types_are_shape_and_bind_like_inline_text() {
    let (sql, _) = build_stores(&typed_graph());
    let db = sql.database();
    for (query, rows) in [
        ("g.V.has('k',1)", Some(1)),
        ("g.V.has('k','1')", Some(1)),
        ("g.V.has('k',1.5)", Some(1)),
        ("g.V.has('k',true)", Some(1)),
        ("g.V.has('k',null)", None),
    ] {
        let (_, _, len) = sql.template_cache_stats();
        let got = sql.query(query).unwrap();
        assert_eq!(
            sql.template_cache_stats().2,
            len + 1,
            "{query}: each type is its own template"
        );
        let inline = db.execute(&sql.translate_query(query).unwrap()).unwrap();
        assert_eq!(format!("{got:?}"), format!("{inline:?}"), "{query}");
        if let Some(rows) = rows {
            assert_eq!(got.rows.len(), rows, "{query}");
            assert_eq!(canon_values(&got.rows), interpreted(&sql, query), "{query}");
        }
    }
    // Same types, other values: hits.
    check_hit(&sql, "g.V.has('k',-3)");
    check_hit(&sql, "g.V.has('k','x')");
    check_hit(&sql, "g.V.has('k',2.5)");
}

#[test]
fn quotes_and_negative_numbers_bind_verbatim() {
    let (sql, _) = build_stores(&typed_graph());
    assert_eq!(
        check_miss(&sql, r#"g.V.has('name', "o'brien")"#).rows.len(),
        1
    );
    assert_eq!(check_hit(&sql, r"g.V.has('name', 'd\'arcy')").rows.len(), 7);
    assert_eq!(check_hit(&sql, r#"g.V.has('name', "it's")"#).rows.len(), 0);
    assert_eq!(check_miss(&sql, "g.v(3)").rows.len(), 1);
    assert_eq!(check_hit(&sql, "g.v(-3)").rows.len(), 0);
    assert_eq!(check_miss(&sql, "g.V.has('k', T.lt, 0)").rows.len(), 1);
    assert_eq!(check_hit(&sql, "g.V.has('k', T.lt, -3)").rows.len(), 0);
    // The comparison operator is shape.
    assert_eq!(check_miss(&sql, "g.V.has('k', T.lte, -3)").rows.len(), 1);
}

#[test]
fn a_literal_emitted_twice_binds_its_slot_twice() {
    let (sql, _) = build_stores(&typed_graph());
    // `loop(2)` unrolls `out.has(..)` once more: two `?` for one literal.
    check_miss(&sql, "g.v(1).out.has('age', T.gt, 1).loop(2){it.loops < 2}");
    check_hit(&sql, "g.v(3).out.has('age', T.gt, 7).loop(2){it.loops < 2}");
    check_hit(&sql, "g.v(2).out.has('age', T.gt, 4).loop(2){it.loops < 2}");
    // Both copySplit branches, a literal in each, after the start id.
    check_miss(
        &sql,
        "g.v(1).copySplit(_().out('a').has('age', 2), _().out('b').has('name', 'x')).fairMerge",
    );
    check_hit(
        &sql,
        "g.v(3).copySplit(_().out('a').has('age', 7), _().out('b').has('name', 'd\\'arcy')).fairMerge",
    );
    // `both` reads the start id in two arms.
    check_miss(&sql, "g.v(3).both.both.has('age', T.gte, 5)");
    check_hit(&sql, "g.v(8).both.both.has('age', T.gte, 2)");
    check_miss(&sql, "g.V.interval('age', 2, 5)");
    check_hit(&sql, "g.V.interval('age', 7, 9)");
    check_miss(&sql, "g.V('age', 7).out");
    check_hit(&sql, "g.V('age', 3).out");
    check_miss(&sql, "g.e(2).outV");
    check_hit(&sql, "g.e(7).outV");
}

#[test]
fn labels_keys_and_bounds_are_shape_never_binds() {
    let (sql, _) = build_stores(&typed_graph());
    let a = check_miss(&sql, "g.v(3).out('a')");
    let b = check_miss(&sql, "g.v(3).out('b')");
    assert_eq!(a.int_column(), [6]);
    assert_eq!(b.int_column(), [7]);
    check_miss(&sql, "g.v(3).out('a').out('a')");
    check_miss(&sql, "g.v(3).out('a').out('b')");
    check_miss(&sql, "g.V.has('age', 3)");
    check_miss(&sql, "g.V.has('k', 3)");
    // Range and loop bounds change the CTE chain.
    assert_eq!(sql.query("g.V[0..1]").unwrap().rows.len(), 2);
    assert_eq!(sql.query("g.V[0..2]").unwrap().rows.len(), 3);
    check_miss(&sql, "g.v(1).out.loop(1){it.loops < 2}");
    check_miss(&sql, "g.v(1).out.loop(1){it.loops < 3}");
    // Closure literals translate by value (`contains` into a LIKE pattern).
    check_miss(&sql, "g.V.filter{it.name.contains('bri')}");
    check_miss(&sql, "g.V.filter{it.name.contains('arc')}");
    check_miss(&sql, "g.V.filter{it.age > 3}");
    check_miss(&sql, "g.V.filter{it.age > 4}");
    // Spelling is not shape.
    check_hit(&sql, "g.v( 1 ).out( \"a\" )");
    check_hit(&sql, "g.v(1).out('a');");
}

#[test]
fn a_hit_inside_a_transaction_sees_the_transactions_own_writes() {
    let (sql, _) = build_stores(&typed_graph());
    assert_eq!(
        check_miss(&sql, "g.v(1).out('a').count()").int_column(),
        [1]
    );
    let (hits, misses, len) = sql.template_cache_stats();
    let mut txn = sql.transaction();
    txn.add_edge(3, 4, "a", &[]).unwrap();
    let inside = txn.query("g.v(3).out('a').count()").unwrap();
    assert_eq!(inside.int_column(), [2]);
    assert_eq!(sql.template_cache_stats(), (hits + 1, misses, len));
    txn.rollback();
    assert_eq!(check_hit(&sql, "g.v(3).out('a').count()").int_column(), [1]);
    // The transactional path has no interpreter fallback and caches no
    // failure.
    let mut txn = sql.transaction();
    assert!(txn.query("g.v(1).out.loop(1){it.age < 3}").is_err());
    assert_eq!(sql.template_cache_stats().2, len);
}

#[test]
fn bulk_load_replaces_the_layout_and_clears_the_templates() {
    let sql = SqlGraph::with_config(SchemaConfig {
        out_buckets: 2,
        in_buckets: 2,
    })
    .unwrap();
    let queries = [
        "g.v(1).out('a').out('b')",
        "g.v(3).out('b').in('a')",
        "g.v(1).out('a','b').out('c').count()",
        "g.V.out('c').in('c').dedup()",
    ];
    // Translated against the empty store's trivial layout.
    for q in queries {
        assert!(check_miss(&sql, q)
            .rows
            .iter()
            .all(|r| r[0].as_int() == Some(0)));
    }
    // Labels a, b, c co-occur on vertices, so the coloring assigns columns
    // the trivial layout's hash did not.
    let mut data = typed_graph();
    let mut eid = data.edges.len() as i64;
    for (src, dst, label) in [
        (1, 4, "c"),
        (2, 4, "c"),
        (3, 4, "c"),
        (5, 1, "c"),
        (6, 3, "c"),
    ] {
        eid += 1;
        data.edges.push((eid, src, dst, label.to_string(), vec![]));
    }
    sql.bulk_load(&data).unwrap();
    assert_eq!(
        sql.template_cache_stats().2,
        0,
        "a new layout invalidates every template"
    );
    for q in queries {
        check_miss(&sql, q);
        check_hit(&sql, &rebound(q));
    }
}

#[test]
fn untranslatable_pipelines_fall_back_and_are_not_cached() {
    let (sql, _) = build_stores(&typed_graph());
    let (hits, misses, len) = sql.template_cache_stats();
    for (i, v) in [1, 2, 3].iter().enumerate() {
        check(&sql, &format!("g.v({v}).out.loop(1){{it.age < 7}}"));
        assert_eq!(sql.fallback_count(), i as u64 + 1);
        assert_eq!(
            sql.template_cache_stats(),
            (hits, misses + i as u64 + 1, len)
        );
    }
}

/// Fill the template cache to capacity + 1 000 shapes: the bound holds, a
/// shape that keeps being hit survives, and a full insert evicts one entry.
#[test]
fn template_cache_is_bounded_and_keeps_what_is_hit() {
    let (sql, _) = build_stores(&typed_graph());
    let hot = |v: i64| format!("g.v({v}).out('a').values('name')");
    check_miss(&sql, &hot(1));
    let mut last = sql.template_cache_stats().2;
    for i in 0..TEMPLATE_CACHE_CAP + 1000 {
        check_hit(&sql, &hot(i as i64 % 8 + 1));
        sql.query(&format!("g.v(1).out('l{i}')")).unwrap();
        let len = sql.template_cache_stats().2;
        assert!(len <= TEMPLATE_CACHE_CAP, "cache grew to {len}");
        assert!(len >= last, "insert {i} evicted {} entries", last + 1 - len);
        last = len;
    }
    assert_eq!(last, TEMPLATE_CACHE_CAP);
    // The first one-shot shapes are long gone: running one again is a miss
    // that replaces a victim.
    let (hits, misses, len) = sql.template_cache_stats();
    check(&sql, "g.v(1).out('l0')");
    assert_eq!(sql.template_cache_stats(), (hits, misses + 1, len));
}

/// Eight readers on one template with distinct start ids while a ninth
/// thread adds and removes edges on the queried vertices. Every result
/// must be one the store could have held: compared against the
/// interpreter's answers with the toggled edge absent and present.
#[test]
fn eight_readers_share_one_template_while_a_writer_mutates() {
    let (sql, _) = build_stores(&typed_graph());
    let query = |v: i64| format!("g.v({v}).out('a').count()");
    // Per start vertex: the count without the writer's edge.
    let base: Vec<i64> = (1..=8)
        .map(|v| sql.query_interpreted(&query(v)).unwrap().int_column()[0])
        .collect();
    let (hits0, misses0, len0) = sql.template_cache_stats();
    let start = std::sync::Barrier::new(9);
    let rounds = 300;
    std::thread::scope(|scope| {
        for reader in 0..8i64 {
            let (sql, start, base, query) = (&sql, &start, &base, &query);
            scope.spawn(move || {
                start.wait();
                for round in 0..rounds {
                    let v = (reader + round) % 8 + 1;
                    let got = sql.query(&query(v)).unwrap().int_column()[0];
                    let without = base[v as usize - 1];
                    assert!(
                        got == without || got == without + 1,
                        "g.v({v}): {got}, expected {without} or {}",
                        without + 1
                    );
                }
            });
        }
        let (sql, start) = (&sql, &start);
        scope.spawn(move || {
            start.wait();
            for round in 0..rounds {
                let v = round % 8 + 1;
                let eid = sql.add_edge(v, v % 8 + 1, "a", Vec::new()).unwrap();
                sql.remove_edge(eid).unwrap();
            }
        });
    });
    // Quiesced: every answer equals the interpreter's, nothing leaked, and
    // 2 400 traversals shared one template.
    for v in 1..=8 {
        assert_eq!(
            check_hit(&sql, &query(v)).int_column(),
            [base[v as usize - 1]]
        );
    }
    assert_eq!(sql.database().txns().active_snapshots(), 0);
    let (hits, misses, len) = sql.template_cache_stats();
    assert_eq!(len, len0 + 1, "one shape, one template");
    assert_eq!(hits + misses, hits0 + misses0 + 8 * rounds as u64 + 8);
    // Readers that raced on the first lookup may each have missed once.
    assert!((1..=8).contains(&(misses - misses0)), "misses {misses}");
}
