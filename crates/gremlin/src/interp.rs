//! The step-at-a-time reference interpreter.
//!
//! Evaluates a [`Pipeline`] over any [`Blueprints`] store the way the
//! TinkerPop stack does: each pipe pulls elements through, issuing one
//! Blueprints call per element per step. This is (a) the execution model of
//! the baseline stores the paper compares against, and (b) the semantics
//! oracle that the SQL translation is differential-tested against.

use crate::ast::{BackTarget, Closure, Cmp, GremlinStatement, Pipe, Pipeline};
use crate::blueprints::{Blueprints, Direction, GraphError, GraphResult};
use sqlgraph_json::Json;
use std::collections::{HashMap, HashSet};

/// A traversal result element.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Elem {
    /// A vertex id.
    Vertex(i64),
    /// An edge id.
    Edge(i64),
    /// A computed value (count, property, id, path array...).
    Value(Json),
}

impl Elem {
    /// The element id, if a vertex or edge.
    pub fn id(&self) -> Option<i64> {
        match self {
            Elem::Vertex(v) | Elem::Edge(v) => Some(*v),
            Elem::Value(_) => None,
        }
    }

    /// The element as a JSON value (ids become integers).
    pub fn to_json(&self) -> Json {
        match self {
            Elem::Vertex(v) | Elem::Edge(v) => Json::int(*v),
            Elem::Value(j) => j.clone(),
        }
    }
}

#[derive(Debug, Clone)]
struct Traverser {
    elem: Elem,
    /// Elements visited at each transform step (for `path`, `back`,
    /// `simplePath`).
    trail: Vec<Elem>,
    /// `as('name')` marks.
    marks: HashMap<String, Elem>,
    /// Loop counter for the innermost `loop`.
    loops: u32,
}

impl Traverser {
    fn start(elem: Elem) -> Traverser {
        Traverser {
            elem,
            trail: Vec::new(),
            marks: HashMap::new(),
            loops: 1,
        }
    }

    /// Move to a new element, recording the old one on the trail.
    fn step_to(&self, elem: Elem) -> Traverser {
        let mut t = self.clone();
        t.trail.push(t.elem.clone());
        t.elem = elem;
        t
    }
}

/// Per-query mutable state: named aggregate bags.
#[derive(Default)]
struct QueryState {
    bags: HashMap<String, HashSet<Elem>>,
}

/// Evaluate a read-only pipeline over a Blueprints store.
pub fn eval<G: Blueprints + ?Sized>(graph: &G, pipeline: &Pipeline) -> GraphResult<Vec<Elem>> {
    let mut state = QueryState::default();
    let out = run_pipes(graph, &pipeline.pipes, Vec::new(), true, &mut state)?;
    Ok(out.into_iter().map(|t| t.elem).collect())
}

/// Execute any Gremlin statement (query or CRUD) over a Blueprints store.
pub fn execute<G: Blueprints + ?Sized>(
    graph: &G,
    stmt: &GremlinStatement,
) -> GraphResult<Vec<Elem>> {
    match stmt {
        GremlinStatement::Query(p) => eval(graph, p),
        GremlinStatement::AddVertex { props } => {
            let id = graph.add_vertex(props)?;
            Ok(vec![Elem::Vertex(id)])
        }
        GremlinStatement::AddEdge {
            src,
            dst,
            label,
            props,
        } => {
            let id = graph.add_edge(*src, *dst, label, props)?;
            Ok(vec![Elem::Edge(id)])
        }
        GremlinStatement::RemoveVertex { id } => {
            graph.remove_vertex(*id)?;
            Ok(vec![])
        }
        GremlinStatement::RemoveEdge { id } => {
            graph.remove_edge(*id)?;
            Ok(vec![])
        }
        GremlinStatement::SetVertexProperty { id, key, value } => {
            graph.set_vertex_property(*id, key, value)?;
            Ok(vec![])
        }
        GremlinStatement::SetEdgeProperty { id, key, value } => {
            graph.set_edge_property(*id, key, value)?;
            Ok(vec![])
        }
    }
}

fn run_pipes<G: Blueprints + ?Sized>(
    graph: &G,
    pipes: &[Pipe],
    mut current: Vec<Traverser>,
    is_root: bool,
    state: &mut QueryState,
) -> GraphResult<Vec<Traverser>> {
    let mut idx = 0;
    while idx < pipes.len() {
        let pipe = &pipes[idx];
        current = match pipe {
            Pipe::Loop { back, cond } => {
                let seg_start = loop_segment_start(pipes, idx, back)?;
                let segment = &pipes[seg_start..idx];
                let mut emitted = Vec::new();
                let mut looping = current;
                // Guard against non-terminating conditions.
                let mut rounds = 0u32;
                while !looping.is_empty() {
                    rounds += 1;
                    if rounds > 1_000 {
                        return Err(GraphError::new("loop exceeded 1000 iterations"));
                    }
                    if looping.len() + emitted.len() > 200_000 {
                        return Err(GraphError::new(
                            "loop produced more than 200k traversers; aborting",
                        ));
                    }
                    let mut continuing = Vec::new();
                    for t in looping {
                        if closure_truthy(graph, cond, &t)? {
                            continuing.push(t);
                        } else {
                            emitted.push(t);
                        }
                    }
                    looping = run_pipes(graph, segment, continuing, false, state)?
                        .into_iter()
                        .map(|mut t| {
                            t.loops += 1;
                            t
                        })
                        .collect();
                }
                emitted
            }
            other => run_one_pipe(graph, other, current, is_root && idx == 0, state)?,
        };
        idx += 1;
    }
    Ok(current)
}

fn loop_segment_start(pipes: &[Pipe], loop_idx: usize, back: &BackTarget) -> GraphResult<usize> {
    match back {
        BackTarget::Steps(n) => loop_idx
            .checked_sub(*n)
            .ok_or_else(|| GraphError::new("loop rewinds past the start of the pipeline")),
        BackTarget::Named(name) => {
            for (i, p) in pipes[..loop_idx].iter().enumerate() {
                if matches!(p, Pipe::As(n) if n == name) {
                    return Ok(i + 1);
                }
            }
            Err(GraphError::new(format!(
                "loop target as('{name}') not found"
            )))
        }
    }
}

fn run_one_pipe<G: Blueprints + ?Sized>(
    graph: &G,
    pipe: &Pipe,
    input: Vec<Traverser>,
    is_start: bool,
    state: &mut QueryState,
) -> GraphResult<Vec<Traverser>> {
    let mut out = Vec::new();
    match pipe {
        // ---- start pipes ----
        Pipe::Vertices { filter } => {
            let _ = is_start; // start pipes ignore any (empty) input
            match filter {
                None => {
                    for v in graph.vertex_ids() {
                        out.push(Traverser::start(Elem::Vertex(v)));
                    }
                }
                Some((key, value)) => {
                    for v in graph.vertices_by_property(key, &value.value) {
                        out.push(Traverser::start(Elem::Vertex(v)));
                    }
                }
            }
        }
        Pipe::Edges => {
            for e in graph.edge_ids() {
                out.push(Traverser::start(Elem::Edge(e)));
            }
        }
        Pipe::VertexById(id) => {
            if graph.vertex_exists(id.value) {
                out.push(Traverser::start(Elem::Vertex(id.value)));
            }
        }
        Pipe::EdgeById(id) => {
            if graph.edge_exists(id.value) {
                out.push(Traverser::start(Elem::Edge(id.value)));
            }
        }

        // ---- vertex-to-vertex transforms ----
        Pipe::Out(labels) | Pipe::In(labels) | Pipe::Both(labels) => {
            let dir = match pipe {
                Pipe::Out(_) => Direction::Out,
                Pipe::In(_) => Direction::In,
                _ => Direction::Both,
            };
            for t in &input {
                let Elem::Vertex(v) = t.elem else {
                    return Err(GraphError::new("out/in/both requires vertices"));
                };
                for u in graph.adjacent(v, dir, labels) {
                    out.push(t.step_to(Elem::Vertex(u)));
                }
            }
        }
        Pipe::OutE(labels) | Pipe::InE(labels) | Pipe::BothE(labels) => {
            let dir = match pipe {
                Pipe::OutE(_) => Direction::Out,
                Pipe::InE(_) => Direction::In,
                _ => Direction::Both,
            };
            for t in &input {
                let Elem::Vertex(v) = t.elem else {
                    return Err(GraphError::new("outE/inE/bothE requires vertices"));
                };
                for e in graph.edges_of(v, dir, labels) {
                    out.push(t.step_to(Elem::Edge(e)));
                }
            }
        }
        Pipe::OutV | Pipe::InV | Pipe::BothV => {
            for t in &input {
                let Elem::Edge(e) = t.elem else {
                    return Err(GraphError::new("outV/inV/bothV requires edges"));
                };
                match pipe {
                    Pipe::OutV => {
                        if let Some(v) = graph.edge_source(e) {
                            out.push(t.step_to(Elem::Vertex(v)));
                        }
                    }
                    Pipe::InV => {
                        if let Some(v) = graph.edge_target(e) {
                            out.push(t.step_to(Elem::Vertex(v)));
                        }
                    }
                    _ => {
                        if let Some(v) = graph.edge_source(e) {
                            out.push(t.step_to(Elem::Vertex(v)));
                        }
                        if let Some(v) = graph.edge_target(e) {
                            out.push(t.step_to(Elem::Vertex(v)));
                        }
                    }
                }
            }
        }
        Pipe::Id => {
            for t in &input {
                let id = t
                    .elem
                    .id()
                    .ok_or_else(|| GraphError::new("id() requires a graph element"))?;
                out.push(t.step_to(Elem::Value(Json::int(id))));
            }
        }
        Pipe::Label => {
            for t in &input {
                let Elem::Edge(e) = t.elem else {
                    return Err(GraphError::new("label requires edges"));
                };
                let label = graph
                    .edge_label(e)
                    .ok_or_else(|| GraphError::new(format!("edge {e} has no label")))?;
                out.push(t.step_to(Elem::Value(Json::Str(label))));
            }
        }
        Pipe::Values(key) => {
            for t in &input {
                let value = element_property(graph, &t.elem, key)?;
                if let Some(v) = value {
                    out.push(t.step_to(Elem::Value(v)));
                }
            }
        }
        Pipe::Path => {
            for t in &input {
                let mut items: Vec<Json> = t.trail.iter().map(Elem::to_json).collect();
                items.push(t.elem.to_json());
                out.push(t.step_to(Elem::Value(Json::Array(items))));
            }
        }
        Pipe::Back(target) => {
            for t in &input {
                let elem = match target {
                    BackTarget::Named(name) => t
                        .marks
                        .get(name)
                        .cloned()
                        .ok_or_else(|| GraphError::new(format!("no mark as('{name}')")))?,
                    BackTarget::Steps(n) => {
                        if *n == 0 || t.trail.len() < *n {
                            return Err(GraphError::new("back(n) rewinds past the start"));
                        }
                        t.trail[t.trail.len() - n].clone()
                    }
                };
                out.push(t.step_to(elem));
            }
        }

        // ---- filters ----
        Pipe::Has { key, cmp, value } => {
            for t in input {
                let prop = element_property(graph, &t.elem, key)?;
                let keep = match (value, prop) {
                    (None, p) => p.is_some(),
                    (Some(_), None) => false,
                    (Some(want), Some(got)) => json_compare(&got, &want.value)
                        .map(|o| cmp_matches(*cmp, o))
                        .unwrap_or(false),
                };
                if keep {
                    out.push(t);
                }
            }
        }
        Pipe::HasNot { key } => {
            for t in input {
                if element_property(graph, &t.elem, key)?.is_none() {
                    out.push(t);
                }
            }
        }
        Pipe::Filter(closure) => {
            for t in input {
                if closure_truthy(graph, closure, &t)? {
                    out.push(t);
                }
            }
        }
        Pipe::Interval { key, lo, hi } => {
            for t in input {
                let Some(got) = element_property(graph, &t.elem, key)? else {
                    continue;
                };
                let ge_lo =
                    json_compare(&got, &lo.value).is_some_and(|o| o != std::cmp::Ordering::Less);
                let lt_hi =
                    json_compare(&got, &hi.value).is_some_and(|o| o == std::cmp::Ordering::Less);
                if ge_lo && lt_hi {
                    out.push(t);
                }
            }
        }
        Pipe::Range { lo, hi } => {
            for (i, t) in input.into_iter().enumerate() {
                let i = i as i64;
                if i >= *lo && i <= *hi {
                    out.push(t);
                }
            }
        }
        Pipe::Dedup => {
            let mut seen = HashSet::new();
            for t in input {
                if seen.insert(t.elem.clone()) {
                    out.push(t);
                }
            }
        }
        Pipe::Except(var) => {
            let bag = state.bags.entry(var.clone()).or_default().clone();
            for t in input {
                if !bag.contains(&t.elem) {
                    out.push(t);
                }
            }
        }
        Pipe::Retain(var) => {
            let bag = state.bags.entry(var.clone()).or_default().clone();
            for t in input {
                if bag.contains(&t.elem) {
                    out.push(t);
                }
            }
        }
        Pipe::SimplePath => {
            for t in input {
                let mut seen = HashSet::new();
                let simple = t
                    .trail
                    .iter()
                    .chain(std::iter::once(&t.elem))
                    .all(|e| seen.insert(e.clone()));
                if simple {
                    out.push(t);
                }
            }
        }
        Pipe::And(branches) | Pipe::Or(branches) => {
            let want_all = matches!(pipe, Pipe::And(_));
            for t in input {
                let mut hits = 0usize;
                for b in branches {
                    let res = run_pipes(graph, &b.pipes, vec![t.clone()], false, state)?;
                    if !res.is_empty() {
                        hits += 1;
                    }
                }
                let keep = if want_all {
                    hits == branches.len()
                } else {
                    hits > 0
                };
                if keep {
                    out.push(t);
                }
            }
        }

        // ---- side effects ----
        Pipe::As(name) => {
            for mut t in input {
                t.marks.insert(name.clone(), t.elem.clone());
                out.push(t);
            }
        }
        Pipe::Aggregate(var) => {
            // Barrier: fill the bag greedily, pass everything through.
            let bag = state.bags.entry(var.clone()).or_default();
            for t in &input {
                bag.insert(t.elem.clone());
            }
            out = input;
        }
        Pipe::SideEffect(_) => {
            out = input;
        }

        // ---- branches ----
        Pipe::IfThenElse { test, then, els } => {
            for t in &input {
                let branch = if closure_truthy(graph, test, t)? {
                    then
                } else {
                    els
                };
                let value = closure_value(graph, branch, t)?;
                out.push(t.step_to(Elem::Value(value)));
            }
        }
        Pipe::CopySplit(branches) => {
            for t in &input {
                for b in branches {
                    let res = run_pipes(graph, &b.pipes, vec![t.clone()], false, state)?;
                    out.extend(res);
                }
            }
        }
        Pipe::Loop { .. } => {
            unreachable!("Loop handled by run_pipes")
        }

        // ---- reduce ----
        Pipe::Count => {
            let n = input.len() as i64;
            out.push(Traverser::start(Elem::Value(Json::int(n))));
        }
    }
    Ok(out)
}

fn element_property<G: Blueprints + ?Sized>(
    graph: &G,
    elem: &Elem,
    key: &str,
) -> GraphResult<Option<Json>> {
    match elem {
        Elem::Vertex(v) => Ok(graph.vertex_property(*v, key)),
        Elem::Edge(e) => Ok(graph.edge_property(*e, key)),
        Elem::Value(_) => Err(GraphError::new("property access requires a graph element")),
    }
}

/// Compare two JSON scalars with numeric coercion; `None` when the types
/// are incomparable (mirrors the SQL engine's unknown semantics).
pub fn json_compare(a: &Json, b: &Json) -> Option<std::cmp::Ordering> {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => Some(x.cmp_num(y)),
        (Json::Str(x), Json::Str(y)) => Some(x.cmp(y)),
        (Json::Bool(x), Json::Bool(y)) => Some(x.cmp(y)),
        _ => None,
    }
}

fn cmp_matches(cmp: Cmp, o: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match cmp {
        Cmp::Eq => o == Equal,
        Cmp::Neq => o != Equal,
        Cmp::Lt => o == Less,
        Cmp::Lte => o != Greater,
        Cmp::Gt => o == Greater,
        Cmp::Gte => o != Less,
    }
}

fn closure_truthy<G: Blueprints + ?Sized>(
    graph: &G,
    c: &Closure,
    t: &Traverser,
) -> GraphResult<bool> {
    Ok(matches!(closure_value(graph, c, t)?, Json::Bool(true)))
}

fn closure_value<G: Blueprints + ?Sized>(
    graph: &G,
    c: &Closure,
    t: &Traverser,
) -> GraphResult<Json> {
    Ok(match c {
        Closure::Literal(v) => v.clone(),
        Closure::It => t.elem.to_json(),
        Closure::Loops => Json::int(t.loops as i64),
        Closure::Prop(key) => element_property(graph, &t.elem, key)?.unwrap_or(Json::Null),
        Closure::Compare(cmp, l, r) => {
            let lv = closure_value(graph, l, t)?;
            let rv = closure_value(graph, r, t)?;
            match json_compare(&lv, &rv) {
                Some(o) => Json::Bool(cmp_matches(*cmp, o)),
                // Equality on incomparable/missing values is decidable.
                None => match cmp {
                    Cmp::Eq => Json::Bool(lv == rv),
                    Cmp::Neq => Json::Bool(lv != rv),
                    _ => Json::Bool(false),
                },
            }
        }
        Closure::And(l, r) => {
            Json::Bool(closure_truthy(graph, l, t)? && closure_truthy(graph, r, t)?)
        }
        Closure::Or(l, r) => {
            Json::Bool(closure_truthy(graph, l, t)? || closure_truthy(graph, r, t)?)
        }
        Closure::Not(x) => Json::Bool(!closure_truthy(graph, x, t)?),
        Closure::Contains(hay, needle) => {
            let h = closure_value(graph, hay, t)?;
            let n = closure_value(graph, needle, t)?;
            match (h, n) {
                (Json::Str(h), Json::Str(n)) => Json::Bool(h.contains(&n)),
                _ => Json::Bool(false),
            }
        }
    })
}
