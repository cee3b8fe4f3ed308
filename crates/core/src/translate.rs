//! Gremlin → SQL translation (§4 and Table 8 of the paper).
//!
//! A side-effect-free pipeline compiles into **one** SQL statement: a chain
//! of CTEs, each the translation `[e]` of one pipe, threaded through a
//! mandatory `val` column and (when any pipe needs history) a `path` array
//! column — the `[e]p` variants of the paper. The relational engine then
//! executes the whole traversal in a single set-oriented pass.
//!
//! Key template choices, following §3.5 and §4.5:
//! * A traversal whose *only* adjacency step is a single `out`/`in`/`both`
//!   uses the redundant `EA` triple table (Table 4 shows it wins for
//!   selective lookups); multi-step traversals join the `OPA`/`OSA`
//!   (`IPA`/`ISA`) hash tables, which win for long paths (Figure 6).
//! * `g.V` followed by attribute filters merges into the start scan — the
//!   GraphQuery rewrite.
//! * Fixed-depth `loop` pipes unroll into repeated CTE segments; dynamic
//!   loops are reported as [`Unsupported`] and the store falls back to the
//!   interpreter (the paper's stored-procedure fallback).
//! * Every generated vertex scan carries the `vid >= 0` deletion guard.
//! * The scalar pipe arguments the Gremlin parser lifts ([`Lit`]) are the
//!   only part of a pipeline that does not change the statement's shape.
//!   `translate_template` renders each as `?` and reports which literal
//!   every `?` binds, so the store caches one parsed statement per shape;
//!   [`translate`] prints the same translation with the literals inline.

use crate::layout::GraphLayout;
use sqlgraph_gremlin::ast::{BackTarget, Closure, Cmp, Lit, Pipe, Pipeline};
use sqlgraph_json::Json;
use std::collections::HashMap;
use std::fmt::Write;

/// Why a pipeline could not be translated (→ interpreter fallback).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsupported {
    /// Reason, for logs and tests.
    pub reason: String,
}

impl Unsupported {
    fn new(reason: impl Into<String>) -> Unsupported {
        Unsupported {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "not translatable to SQL: {}", self.reason)
    }
}

/// Physical strategy for adjacency steps (Table 4 / Figure 6 ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AdjacencyStrategy {
    /// The paper's rule: EA for a single-step lookup, hash tables otherwise.
    #[default]
    Auto,
    /// Always join OPA/OSA (IPA/ISA) — the Figure 6 "OPA+OSA" arm.
    ForceHash,
    /// Always probe the EA triple table — the Figure 6 "EA" arm.
    ForceEa,
}

/// Translation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TranslateOptions {
    /// Which physical tables serve `out`/`in`/`both`.
    pub adjacency: AdjacencyStrategy,
    /// Rewrite trailing multi-hop counting traversals into multiplicity
    /// (factorized) form: the frontier is compressed to distinct vertices
    /// with a path-count column after every hop, so intermediate
    /// cardinality is bounded by the vertex count instead of the path
    /// count. Counts are unchanged; disable to force one-row-per-path
    /// execution (the Figure 6 row templates).
    pub factorize: bool,
}

impl Default for TranslateOptions {
    fn default() -> TranslateOptions {
        TranslateOptions {
            adjacency: AdjacencyStrategy::default(),
            factorize: true,
        }
    }
}

/// What kind of element flows out of a pipe (resolves `has`/`values` to the
/// right attribute table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Vertex,
    Edge,
    Value,
}

struct Ctx<'a> {
    layout: &'a GraphLayout,
    ctes: Vec<(String, String)>,
    /// Current result table.
    cur: String,
    kind: Kind,
    /// Whether CTEs carry a `path` column.
    path: bool,
    /// Transform-step counter (trail length).
    transforms: usize,
    /// `as('name')` → (transforms at mark, kind at mark).
    marks: HashMap<String, (usize, Kind)>,
    /// `aggregate(x)` → CTE holding the bag.
    bags: HashMap<String, String>,
    /// Fresh-name counter (shared with branch translations).
    counter: usize,
    /// Total adjacency steps in the top-level pipeline (for the EA
    /// single-step optimization).
    traversal_steps: usize,
    options: TranslateOptions,
    /// `None` prints lifted literals inline. `Some` makes the statement a
    /// template: each lifted literal prints as `?`, and entry `i` is the
    /// slot ([`Lit::slot`]) of the literal that parameter `i` binds.
    binds: Option<Vec<usize>>,
}

impl<'a> Ctx<'a> {
    fn fresh(&mut self) -> String {
        self.counter += 1;
        format!("t{}", self.counter)
    }

    fn push_cte(&mut self, sql: String) -> String {
        let name = self.fresh();
        self.ctes.push((name.clone(), sql));
        self.cur = name.clone();
        name
    }

    /// SQL for a lifted pipe argument — the one place such a literal is
    /// rendered, as its inline text or as the next `?`. The SQL parser
    /// numbers `?`s in text order, so a caller must push the CTE holding
    /// the returned text before it renders into another CTE. A literal
    /// emitted more than once (an unrolled `loop` segment) binds its slot
    /// once per emission.
    fn literal(&mut self, slot: usize, inline: String) -> String {
        match &mut self.binds {
            Some(slots) => {
                slots.push(slot);
                "?".to_string()
            }
            None => inline,
        }
    }

    fn value(&mut self, lit: &Lit) -> Result<String, Unsupported> {
        let inline = sql_json(&lit.value)?;
        Ok(self.literal(lit.slot, inline))
    }

    fn id(&mut self, lit: &Lit<i64>) -> String {
        self.literal(lit.slot, lit.value.to_string())
    }

    /// Projection suffix continuing the path column through a transform.
    fn path_step(&self) -> &'static str {
        if self.path {
            ", ARRAY_APPEND(v.path, v.val) AS path"
        } else {
            ""
        }
    }
}

/// Print the SQL statement a pipeline translates to, literals inline, with
/// default options. The store executes the same translation as a cached
/// template with the lifted literals bound (`translate_template`); this
/// text is what that statement is with its binds written in — for EXPLAIN,
/// the paper's Table 8 examples, and inspection.
pub fn translate(pipeline: &Pipeline, layout: &GraphLayout) -> Result<String, Unsupported> {
    translate_with(pipeline, layout, TranslateOptions::default())
}

/// [`translate`] with explicit physical-strategy options.
pub fn translate_with(
    pipeline: &Pipeline,
    layout: &GraphLayout,
    options: TranslateOptions,
) -> Result<String, Unsupported> {
    Ok(translate_pipeline(pipeline, layout, options, None)?.0)
}

/// Translate a pipeline parsed by [`sqlgraph_gremlin::parse_lifted`] into a
/// statement template: the SQL with `?` for every lifted literal, and for
/// each `?` in order the slot of the literal it binds. The template depends
/// only on the pipeline's shape, the layout and the options.
pub(crate) fn translate_template(
    pipeline: &Pipeline,
    layout: &GraphLayout,
    options: TranslateOptions,
) -> Result<(String, Vec<usize>), Unsupported> {
    translate_pipeline(pipeline, layout, options, Some(Vec::new()))
}

fn translate_pipeline(
    pipeline: &Pipeline,
    layout: &GraphLayout,
    options: TranslateOptions,
    binds: Option<Vec<usize>>,
) -> Result<(String, Vec<usize>), Unsupported> {
    let needs_path = pipeline_needs_path(&pipeline.pipes);
    let mut ctx = Ctx {
        layout,
        ctes: Vec::new(),
        cur: String::new(),
        kind: Kind::Vertex,
        path: needs_path,
        transforms: 0,
        marks: HashMap::new(),
        bags: HashMap::new(),
        counter: 0,
        traversal_steps: count_traversal_steps(&pipeline.pipes),
        options,
        binds,
    };
    // Trailing `.out/.in/.both × k (.dedup)? .count()` runs compress the
    // frontier to (vertex, multiplicity) after every hop — but only when no
    // pipe needs per-path history and the hops use the hash tables.
    let span = if options.factorize
        && !needs_path
        && !matches!(options.adjacency, AdjacencyStrategy::ForceEa)
    {
        multiplicity_span(&pipeline.pipes)
    } else {
        None
    };
    match span {
        Some(start) if start > 0 => {
            translate_pipes(&mut ctx, &pipeline.pipes[..start])?;
            if ctx.kind == Kind::Vertex {
                translate_multiplicity(&mut ctx, &pipeline.pipes[start..])?;
            } else {
                translate_pipes(&mut ctx, &pipeline.pipes[start..])?;
            }
        }
        _ => translate_pipes(&mut ctx, &pipeline.pipes)?,
    }
    if ctx.ctes.is_empty() {
        return Err(Unsupported::new("empty pipeline"));
    }
    let mut sql = String::from("WITH ");
    for (i, (name, body)) in ctx.ctes.iter().enumerate() {
        if i > 0 {
            sql.push_str(", ");
        }
        write!(sql, "{name} AS ({body})").expect("write to string");
    }
    write!(sql, " SELECT val FROM {}", ctx.cur).expect("write to string");
    Ok((sql, ctx.binds.unwrap_or_default()))
}

fn pipeline_needs_path(pipes: &[Pipe]) -> bool {
    pipes.iter().any(|p| match p {
        Pipe::Path | Pipe::SimplePath | Pipe::Back(_) => true,
        Pipe::CopySplit(branches) => branches.iter().any(|b| pipeline_needs_path(&b.pipes)),
        _ => false,
    })
}

fn count_traversal_steps(pipes: &[Pipe]) -> usize {
    pipes
        .iter()
        .map(|p| match p {
            Pipe::Out(_)
            | Pipe::In(_)
            | Pipe::Both(_)
            | Pipe::OutE(_)
            | Pipe::InE(_)
            | Pipe::BothE(_)
            | Pipe::OutV
            | Pipe::InV
            | Pipe::BothV => 1,
            Pipe::Loop { .. } => 10, // loops always use the hash tables
            Pipe::CopySplit(bs) | Pipe::And(bs) | Pipe::Or(bs) => {
                bs.iter().map(|b| count_traversal_steps(&b.pipes)).sum()
            }
            _ => 0,
        })
        .sum()
}

fn translate_pipes(ctx: &mut Ctx<'_>, pipes: &[Pipe]) -> Result<(), Unsupported> {
    let mut idx = 0;
    while idx < pipes.len() {
        match &pipes[idx] {
            Pipe::Loop { back, cond } => {
                let extra = loop_unroll_count(cond)?;
                let seg_start = match back {
                    BackTarget::Steps(n) => idx
                        .checked_sub(*n)
                        .ok_or_else(|| Unsupported::new("loop rewinds past pipeline start"))?,
                    BackTarget::Named(name) => {
                        let mut found = None;
                        for (i, p) in pipes[..idx].iter().enumerate() {
                            if matches!(p, Pipe::As(n) if n == name) {
                                found = Some(i + 1);
                            }
                        }
                        found.ok_or_else(|| {
                            Unsupported::new(format!("loop target as('{name}') not found"))
                        })?
                    }
                };
                let segment: Vec<Pipe> = pipes[seg_start..idx].to_vec();
                if segment.iter().any(|p| matches!(p, Pipe::Loop { .. })) {
                    return Err(Unsupported::new("nested loops"));
                }
                for _ in 0..extra {
                    translate_pipes(ctx, &segment)?;
                }
            }
            pipe => translate_one(ctx, pipe)?,
        }
        idx += 1;
    }
    Ok(())
}

/// `it.loops < k` → k-1 extra unrolled passes; `it.loops <= k` → k.
fn loop_unroll_count(cond: &Closure) -> Result<usize, Unsupported> {
    if let Closure::Compare(cmp, l, r) = cond {
        if let (Closure::Loops, Closure::Literal(Json::Num(n))) = (l.as_ref(), r.as_ref()) {
            if let Some(k) = n.as_i64() {
                return match cmp {
                    Cmp::Lt if k >= 1 => Ok((k - 1) as usize),
                    Cmp::Lte if k >= 0 => Ok(k as usize),
                    _ => Err(Unsupported::new("loop condition not a static bound")),
                };
            }
        }
    }
    Err(Unsupported::new(
        "dynamic loop condition (stored-procedure fallback)",
    ))
}

pub(crate) fn sql_str(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

pub(crate) fn sql_json(v: &Json) -> Result<String, Unsupported> {
    Ok(match v {
        Json::Null => "NULL".to_string(),
        Json::Bool(true) => "TRUE".to_string(),
        Json::Bool(false) => "FALSE".to_string(),
        Json::Num(n) => n.to_string(),
        Json::Str(s) => sql_str(s),
        other => return Err(Unsupported::new(format!("non-scalar literal {other}"))),
    })
}

pub(crate) fn label_in_list(column: &str, labels: &[String]) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        let list: Vec<String> = labels.iter().map(|l| sql_str(l)).collect();
        format!(" AND {column} IN ({})", list.join(", "))
    }
}

/// Buckets to unnest for `labels` in the out/in adjacency table.
fn buckets_for(ctx: &Ctx<'_>, labels: &[String], out: bool) -> Vec<usize> {
    let total = if out {
        ctx.layout.out_buckets
    } else {
        ctx.layout.in_buckets
    };
    if labels.is_empty() {
        return (0..total).collect();
    }
    let mut cols: Vec<usize> = labels
        .iter()
        .map(|l| {
            if out {
                ctx.layout.out_column(l)
            } else {
                ctx.layout.in_column(l)
            }
        })
        .collect();
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// The paper's multi-step adjacency template: unnest OPA/IPA triads,
/// left-outer-join the secondary table, COALESCE single vs multi values.
fn adjacency_hash_step(ctx: &mut Ctx<'_>, labels: &[String], out: bool) {
    let (pa, sa) = if out { ("opa", "osa") } else { ("ipa", "isa") };
    let cols = buckets_for(ctx, labels, out);
    let path_a = if ctx.path {
        ", ARRAY_APPEND(v.path, v.val) AS path"
    } else {
        ""
    };
    if cols.len() == 1 && !labels.is_empty() {
        // Every requested label hashes to one triad: project that column
        // directly — no unnest required.
        let c = cols[0];
        let a = format!(
            "SELECT p.val{c} AS val{path_a} FROM {cur} v, {pa} p \
             WHERE v.val = p.vid AND p.val{c} IS NOT NULL{lbl_filter}",
            cur = ctx.cur,
            lbl_filter = label_in_list(&format!("p.lbl{c}"), labels),
        );
        ctx.push_cte(a);
    } else {
        let triads: Vec<String> = cols
            .iter()
            .map(|c| format!("(p.lbl{c}, p.val{c})"))
            .collect();
        let a = format!(
            "SELECT t.val AS val{path_a} FROM {cur} v, {pa} p, \
             TABLE(VALUES {triads}) AS t(lbl, val) \
             WHERE v.val = p.vid AND t.val IS NOT NULL{lbl_filter}",
            cur = ctx.cur,
            triads = triads.join(", "),
            lbl_filter = label_in_list("t.lbl", labels),
        );
        ctx.push_cte(a);
    }
    let path_b = if ctx.path { ", p.path AS path" } else { "" };
    let b = format!(
        "SELECT COALESCE(s.val, p.val) AS val{path_b} FROM {cur} p \
         LEFT OUTER JOIN {sa} s ON p.val = s.valid",
        cur = ctx.cur,
    );
    ctx.push_cte(b);
}

/// The EA single-lookup template (§3.5): one indexed probe per input.
fn adjacency_ea_step(ctx: &mut Ctx<'_>, labels: &[String], out: bool) {
    let (key, value) = if out {
        ("inv", "outv")
    } else {
        ("outv", "inv")
    };
    let sql = format!(
        "SELECT p.{value} AS val{path} FROM {cur} v, ea p WHERE v.val = p.{key}{lbl}",
        path = ctx.path_step(),
        cur = ctx.cur,
        lbl = label_in_list("p.lbl", labels),
    );
    ctx.push_cte(sql);
}

/// Start of the longest rewritable suffix for multiplicity mode: at least
/// two consecutive `out`/`in`/`both` hops, optionally one `dedup`, then a
/// terminal `count`. Returns the index of the first hop.
fn multiplicity_span(pipes: &[Pipe]) -> Option<usize> {
    if !matches!(pipes.last(), Some(Pipe::Count)) {
        return None;
    }
    let mut hop_end = pipes.len() - 1; // index of Count
    if hop_end >= 1 && matches!(pipes[hop_end - 1], Pipe::Dedup) {
        hop_end -= 1;
    }
    let mut start = hop_end;
    while start > 0 && matches!(pipes[start - 1], Pipe::Out(_) | Pipe::In(_) | Pipe::Both(_)) {
        start -= 1;
    }
    (hop_end - start >= 2).then_some(start)
}

/// Translate a multiplicity span (see [`multiplicity_span`]): the frontier
/// carries `(val, m)` — a distinct vertex and how many traversal paths
/// reach it — so each hop joins over distinct vertices only. `dedup` drops
/// `m` (distinct vertices are exactly the deduplicated result) and `count`
/// totals `SUM(m)` (or `COUNT(*)` after a dedup).
fn translate_multiplicity(ctx: &mut Ctx<'_>, pipes: &[Pipe]) -> Result<(), Unsupported> {
    // Seed: collapse the incoming frontier to distinct vertices.
    ctx.push_cte(format!(
        "SELECT val, COUNT(*) AS m FROM {cur} GROUP BY val",
        cur = ctx.cur
    ));
    let mut deduped = false;
    for pipe in pipes {
        match pipe {
            Pipe::Out(labels) | Pipe::In(labels) => {
                multiplicity_arm(ctx, labels, matches!(pipe, Pipe::Out(_)));
                multiplicity_compress(ctx);
                ctx.transforms += 1;
            }
            Pipe::Both(labels) => {
                let input = ctx.cur.clone();
                multiplicity_arm(ctx, labels, true);
                let out_tbl = ctx.cur.clone();
                ctx.cur = input;
                multiplicity_arm(ctx, labels, false);
                let in_tbl = ctx.cur.clone();
                ctx.push_cte(format!(
                    "SELECT * FROM {out_tbl} UNION ALL SELECT * FROM {in_tbl}"
                ));
                multiplicity_compress(ctx);
                ctx.transforms += 1;
            }
            Pipe::Dedup => {
                ctx.push_cte(format!("SELECT DISTINCT val FROM {cur}", cur = ctx.cur));
                deduped = true;
            }
            Pipe::Count => {
                if deduped {
                    ctx.push_cte(format!("SELECT COUNT(*) AS val FROM {cur}", cur = ctx.cur));
                } else {
                    // SUM over an empty frontier is NULL; a count must be 0.
                    ctx.push_cte(format!("SELECT SUM(m) AS val FROM {cur}", cur = ctx.cur));
                    ctx.push_cte(format!(
                        "SELECT COALESCE(val, 0) AS val FROM {cur}",
                        cur = ctx.cur
                    ));
                }
                ctx.kind = Kind::Value;
            }
            other => {
                return Err(Unsupported::new(format!(
                    "pipe {other:?} inside a multiplicity span"
                )))
            }
        }
    }
    Ok(())
}

/// One directional hop in multiplicity mode: the OPA/IPA probe fused with
/// the per-target `SUM(m)` regroup, then the OSA/ISA multi-value resolve
/// (which forwards `m` unchanged — re-collisions are compressed by the
/// caller via [`multiplicity_compress`]).
fn multiplicity_arm(ctx: &mut Ctx<'_>, labels: &[String], out: bool) {
    let (pa, sa) = if out { ("opa", "osa") } else { ("ipa", "isa") };
    let cols = buckets_for(ctx, labels, out);
    if cols.len() == 1 && !labels.is_empty() {
        let c = cols[0];
        let a = format!(
            "SELECT p.val{c} AS val, SUM(v.m) AS m FROM {cur} v, {pa} p \
             WHERE v.val = p.vid AND p.val{c} IS NOT NULL{lbl_filter} GROUP BY p.val{c}",
            cur = ctx.cur,
            lbl_filter = label_in_list(&format!("p.lbl{c}"), labels),
        );
        ctx.push_cte(a);
    } else {
        let triads: Vec<String> = cols
            .iter()
            .map(|c| format!("(p.lbl{c}, p.val{c})"))
            .collect();
        let a = format!(
            "SELECT t.val AS val, SUM(v.m) AS m FROM {cur} v, {pa} p, \
             TABLE(VALUES {triads}) AS t(lbl, val) \
             WHERE v.val = p.vid AND t.val IS NOT NULL{lbl_filter} GROUP BY t.val",
            cur = ctx.cur,
            triads = triads.join(", "),
            lbl_filter = label_in_list("t.lbl", labels),
        );
        ctx.push_cte(a);
    }
    let b = format!(
        "SELECT COALESCE(s.val, p.val) AS val, p.m AS m FROM {cur} p \
         LEFT OUTER JOIN {sa} s ON p.val = s.valid",
        cur = ctx.cur,
    );
    ctx.push_cte(b);
}

/// Re-compress a multiplicity frontier to one row per distinct vertex.
fn multiplicity_compress(ctx: &mut Ctx<'_>) {
    ctx.push_cte(format!(
        "SELECT val, SUM(m) AS m FROM {cur} GROUP BY val",
        cur = ctx.cur
    ));
}

/// Attribute-table alias for the current element kind.
fn attr_join(ctx: &Ctx<'_>) -> Result<(&'static str, &'static str), Unsupported> {
    match ctx.kind {
        Kind::Vertex => Ok(("va", "vid")),
        Kind::Edge => Ok(("ea", "eid")),
        Kind::Value => Err(Unsupported::new("attribute access on a computed value")),
    }
}

fn translate_one(ctx: &mut Ctx<'_>, pipe: &Pipe) -> Result<(), Unsupported> {
    match pipe {
        // ---- starts ----
        Pipe::Vertices { filter } => {
            let path = if ctx.path { ", ARRAY() AS path" } else { "" };
            let mut sql = format!("SELECT vid AS val{path} FROM va WHERE vid >= 0");
            if let Some((key, value)) = filter {
                let value = ctx.value(value)?;
                write!(sql, " AND JSON_VAL(attr, {}) = {value}", sql_str(key)).expect("write");
            }
            ctx.push_cte(sql);
            ctx.kind = Kind::Vertex;
        }
        Pipe::Edges => {
            let path = if ctx.path { ", ARRAY() AS path" } else { "" };
            ctx.push_cte(format!("SELECT eid AS val{path} FROM ea"));
            ctx.kind = Kind::Edge;
        }
        Pipe::VertexById(id) => {
            let path = if ctx.path { ", ARRAY() AS path" } else { "" };
            let id = ctx.id(id);
            ctx.push_cte(format!("SELECT vid AS val{path} FROM va WHERE vid = {id}"));
            ctx.kind = Kind::Vertex;
        }
        Pipe::EdgeById(id) => {
            let path = if ctx.path { ", ARRAY() AS path" } else { "" };
            let id = ctx.id(id);
            ctx.push_cte(format!("SELECT eid AS val{path} FROM ea WHERE eid = {id}"));
            ctx.kind = Kind::Edge;
        }

        // ---- vertex transforms ----
        Pipe::Out(labels) | Pipe::In(labels) | Pipe::Both(labels) => {
            if ctx.kind != Kind::Vertex {
                return Err(Unsupported::new("out/in/both on a non-vertex"));
            }
            let single_lookup = match ctx.options.adjacency {
                AdjacencyStrategy::Auto => ctx.traversal_steps == 1,
                AdjacencyStrategy::ForceHash => false,
                AdjacencyStrategy::ForceEa => true,
            };
            match pipe {
                Pipe::Out(_) => {
                    if single_lookup {
                        adjacency_ea_step(ctx, labels, true);
                    } else {
                        adjacency_hash_step(ctx, labels, true);
                    }
                }
                Pipe::In(_) => {
                    if single_lookup {
                        adjacency_ea_step(ctx, labels, false);
                    } else {
                        adjacency_hash_step(ctx, labels, false);
                    }
                }
                _ => {
                    // both = out UNION ALL in, from the same input.
                    let input = ctx.cur.clone();
                    if single_lookup {
                        adjacency_ea_step(ctx, labels, true);
                    } else {
                        adjacency_hash_step(ctx, labels, true);
                    }
                    let out_tbl = ctx.cur.clone();
                    ctx.cur = input;
                    if single_lookup {
                        adjacency_ea_step(ctx, labels, false);
                    } else {
                        adjacency_hash_step(ctx, labels, false);
                    }
                    let in_tbl = ctx.cur.clone();
                    ctx.push_cte(format!(
                        "SELECT * FROM {out_tbl} UNION ALL SELECT * FROM {in_tbl}"
                    ));
                }
            }
            ctx.transforms += 1;
            ctx.kind = Kind::Vertex;
        }
        Pipe::OutE(labels) | Pipe::InE(labels) | Pipe::BothE(labels) => {
            if ctx.kind != Kind::Vertex {
                return Err(Unsupported::new("outE/inE/bothE on a non-vertex"));
            }
            let mk = |ctx: &Ctx<'_>, key: &str, labels: &[String]| {
                format!(
                    "SELECT p.eid AS val{path} FROM {cur} v, ea p WHERE v.val = p.{key}{lbl}",
                    path = ctx.path_step(),
                    cur = ctx.cur,
                    lbl = label_in_list("p.lbl", labels),
                )
            };
            match pipe {
                Pipe::OutE(_) => {
                    let sql = mk(ctx, "inv", labels);
                    ctx.push_cte(sql);
                }
                Pipe::InE(_) => {
                    let sql = mk(ctx, "outv", labels);
                    ctx.push_cte(sql);
                }
                _ => {
                    let input = ctx.cur.clone();
                    let sql = mk(ctx, "inv", labels);
                    ctx.push_cte(sql);
                    let out_tbl = ctx.cur.clone();
                    ctx.cur = input;
                    let sql = mk(ctx, "outv", labels);
                    ctx.push_cte(sql);
                    let in_tbl = ctx.cur.clone();
                    ctx.push_cte(format!(
                        "SELECT * FROM {out_tbl} UNION ALL SELECT * FROM {in_tbl}"
                    ));
                }
            }
            ctx.transforms += 1;
            ctx.kind = Kind::Edge;
        }
        Pipe::OutV | Pipe::InV | Pipe::BothV => {
            if ctx.kind != Kind::Edge {
                return Err(Unsupported::new("outV/inV/bothV on a non-edge"));
            }
            let mk = |ctx: &Ctx<'_>, value: &str| {
                format!(
                    "SELECT p.{value} AS val{path} FROM {cur} v, ea p WHERE v.val = p.eid",
                    path = ctx.path_step(),
                    cur = ctx.cur,
                )
            };
            match pipe {
                Pipe::OutV => {
                    let sql = mk(ctx, "inv");
                    ctx.push_cte(sql);
                }
                Pipe::InV => {
                    let sql = mk(ctx, "outv");
                    ctx.push_cte(sql);
                }
                _ => {
                    let input = ctx.cur.clone();
                    let sql = mk(ctx, "inv");
                    ctx.push_cte(sql);
                    let a = ctx.cur.clone();
                    ctx.cur = input;
                    let sql = mk(ctx, "outv");
                    ctx.push_cte(sql);
                    let b = ctx.cur.clone();
                    ctx.push_cte(format!("SELECT * FROM {a} UNION ALL SELECT * FROM {b}"));
                }
            }
            ctx.transforms += 1;
            ctx.kind = Kind::Vertex;
        }
        Pipe::Id => {
            if ctx.kind == Kind::Value {
                return Err(Unsupported::new("id() on a computed value"));
            }
            let sql = format!(
                "SELECT v.val AS val{path} FROM {cur} v",
                path = ctx.path_step(),
                cur = ctx.cur
            );
            ctx.push_cte(sql);
            ctx.transforms += 1;
            ctx.kind = Kind::Value;
        }
        Pipe::Label => {
            if ctx.kind != Kind::Edge {
                return Err(Unsupported::new("label on a non-edge"));
            }
            let sql = format!(
                "SELECT p.lbl AS val{path} FROM {cur} v, ea p WHERE v.val = p.eid",
                path = ctx.path_step(),
                cur = ctx.cur
            );
            ctx.push_cte(sql);
            ctx.transforms += 1;
            ctx.kind = Kind::Value;
        }
        Pipe::Values(key) => {
            let (table, id_col) = attr_join(ctx)?;
            let sql = format!(
                "SELECT JSON_VAL(p.attr, {k}) AS val{path} FROM {cur} v, {table} p \
                 WHERE v.val = p.{id_col} AND JSON_VAL(p.attr, {k}) IS NOT NULL",
                k = sql_str(key),
                path = ctx.path_step(),
                cur = ctx.cur,
            );
            ctx.push_cte(sql);
            ctx.transforms += 1;
            ctx.kind = Kind::Value;
        }
        Pipe::Path => {
            let sql = format!(
                "SELECT ARRAY_APPEND(v.path, v.val) AS val, ARRAY_APPEND(v.path, v.val) AS path FROM {cur} v",
                cur = ctx.cur
            );
            ctx.push_cte(sql);
            ctx.transforms += 1;
            ctx.kind = Kind::Value;
        }
        Pipe::Back(target) => {
            let (mark_transforms, mark_kind) = match target {
                BackTarget::Named(name) => *ctx
                    .marks
                    .get(name)
                    .ok_or_else(|| Unsupported::new(format!("no mark as('{name}')")))?,
                BackTarget::Steps(n) => {
                    let m = ctx
                        .transforms
                        .checked_sub(*n)
                        .ok_or_else(|| Unsupported::new("back(n) rewinds past the start"))?;
                    // The kind that far back is unknowable without a full
                    // re-walk; vertices dominate real queries.
                    (m, Kind::Vertex)
                }
            };
            if mark_transforms == ctx.transforms {
                return Ok(()); // back to the current step: identity
            }
            let sql = format!(
                "SELECT v.path[{m}] AS val, ARRAY_APPEND(v.path, v.val) AS path FROM {cur} v",
                m = mark_transforms,
                cur = ctx.cur
            );
            ctx.push_cte(sql);
            ctx.transforms += 1;
            ctx.kind = mark_kind;
        }

        // ---- filters ----
        Pipe::Has { key, cmp, value } => {
            let (table, id_col) = attr_join(ctx)?;
            let cond = match value {
                None => format!("JSON_VAL(p.attr, {}) IS NOT NULL", sql_str(key)),
                Some(v) => format!(
                    "JSON_VAL(p.attr, {}) {} {}",
                    sql_str(key),
                    cmp_sql(*cmp),
                    ctx.value(v)?
                ),
            };
            // The attribute table is written first in textual order; the
            // relational planner reorders the join from table statistics, so
            // translation no longer hand-tunes which side leads.
            let sql = format!(
                "SELECT v.* FROM {table} p, {cur} v WHERE v.val = p.{id_col} AND {cond}",
                cur = ctx.cur,
            );
            ctx.push_cte(sql);
        }
        Pipe::HasNot { key } => {
            let (table, id_col) = attr_join(ctx)?;
            let sql = format!(
                "SELECT v.* FROM {table} p, {cur} v WHERE v.val = p.{id_col} \
                 AND JSON_VAL(p.attr, {k}) IS NULL",
                cur = ctx.cur,
                k = sql_str(key),
            );
            ctx.push_cte(sql);
        }
        Pipe::Filter(closure) => {
            let uses_props = closure_uses_props(closure);
            if uses_props {
                let (table, id_col) = attr_join(ctx)?;
                let cond = closure_sql(closure, "p.attr", "v.val")?;
                let sql = format!(
                    "SELECT v.* FROM {table} p, {cur} v WHERE v.val = p.{id_col} \
                     AND COALESCE(({cond}), FALSE)",
                    cur = ctx.cur,
                );
                ctx.push_cte(sql);
            } else {
                let cond = closure_sql(closure, "p.attr", "v.val")?;
                let sql = format!(
                    "SELECT v.* FROM {cur} v WHERE COALESCE(({cond}), FALSE)",
                    cur = ctx.cur
                );
                ctx.push_cte(sql);
            }
        }
        Pipe::Interval { key, lo, hi } => {
            let (table, id_col) = attr_join(ctx)?;
            let (lo, hi) = (ctx.value(lo)?, ctx.value(hi)?);
            let sql = format!(
                "SELECT v.* FROM {table} p, {cur} v WHERE v.val = p.{id_col} \
                 AND JSON_VAL(p.attr, {k}) >= {lo} AND JSON_VAL(p.attr, {k}) < {hi}",
                cur = ctx.cur,
                k = sql_str(key),
            );
            ctx.push_cte(sql);
        }
        Pipe::Range { lo, hi } => {
            if *lo < 0 || *hi < *lo {
                return Err(Unsupported::new("invalid range bounds"));
            }
            let sql = format!(
                "SELECT * FROM {cur} LIMIT {limit} OFFSET {lo}",
                cur = ctx.cur,
                limit = hi - lo + 1,
            );
            ctx.push_cte(sql);
        }
        Pipe::Dedup => {
            let sql = if ctx.path {
                format!(
                    "SELECT val, MIN(path) AS path FROM {cur} GROUP BY val",
                    cur = ctx.cur
                )
            } else {
                format!("SELECT DISTINCT val FROM {cur}", cur = ctx.cur)
            };
            ctx.push_cte(sql);
        }
        Pipe::Except(var) | Pipe::Retain(var) => {
            let bag = ctx
                .bags
                .get(var)
                .cloned()
                .ok_or_else(|| Unsupported::new(format!("unknown aggregate bag '{var}'")))?;
            let not = if matches!(pipe, Pipe::Except(_)) {
                "NOT "
            } else {
                ""
            };
            let sql = format!(
                "SELECT v.* FROM {cur} v WHERE v.val {not}IN (SELECT val FROM {bag})",
                cur = ctx.cur,
            );
            ctx.push_cte(sql);
        }
        Pipe::SimplePath => {
            let sql = format!(
                "SELECT v.* FROM {cur} v WHERE IS_SIMPLE_PATH(ARRAY_APPEND(v.path, v.val)) = 1",
                cur = ctx.cur
            );
            ctx.push_cte(sql);
        }
        Pipe::And(branches) | Pipe::Or(branches) => {
            let input = ctx.cur.clone();
            let mut membership = Vec::new();
            for branch in branches {
                let out = translate_branch(ctx, &input, branch)?;
                membership.push(format!(
                    "v.val IN (SELECT COALESCE(p.path[0], p.val) FROM {out} p)"
                ));
            }
            let joiner = if matches!(pipe, Pipe::And(_)) {
                " AND "
            } else {
                " OR "
            };
            let sql = format!(
                "SELECT v.* FROM {input} v WHERE {}",
                membership.join(joiner)
            );
            ctx.push_cte(sql);
        }

        // ---- side effects ----
        Pipe::As(name) => {
            ctx.marks.insert(name.clone(), (ctx.transforms, ctx.kind));
        }
        Pipe::Aggregate(var) => {
            ctx.bags.insert(var.clone(), ctx.cur.clone());
        }
        Pipe::SideEffect(_) => {}

        // ---- branches ----
        Pipe::IfThenElse { test, then, els } => {
            let (table, id_col) = attr_join(ctx)?;
            let test_sql = closure_sql(test, "p.attr", "v.val")?;
            let then_sql = closure_value_sql(then, "p.attr", "v.val")?;
            let els_sql = closure_value_sql(els, "p.attr", "v.val")?;
            let path = ctx.path_step();
            let sql = format!(
                "SELECT {then_sql} AS val{path} FROM {cur} v, {table} p \
                 WHERE v.val = p.{id_col} AND COALESCE(({test_sql}), FALSE) \
                 UNION ALL \
                 SELECT {els_sql} AS val{path} FROM {cur} v, {table} p \
                 WHERE v.val = p.{id_col} AND NOT COALESCE(({test_sql}), FALSE)",
                cur = ctx.cur,
            );
            ctx.push_cte(sql);
            ctx.transforms += 1;
            ctx.kind = Kind::Value;
        }
        Pipe::CopySplit(branches) => {
            let input = ctx.cur.clone();
            let in_kind = ctx.kind;
            let mut outs = Vec::new();
            let mut kinds = Vec::new();
            for branch in branches {
                // Branches continue the parent's path mode.
                let saved_transforms = ctx.transforms;
                let saved_marks = ctx.marks.clone();
                ctx.cur = input.clone();
                ctx.kind = in_kind;
                translate_pipes(ctx, &branch.pipes)?;
                outs.push(ctx.cur.clone());
                kinds.push(ctx.kind);
                ctx.transforms = saved_transforms;
                ctx.marks = saved_marks;
            }
            let union: Vec<String> = outs.iter().map(|o| format!("SELECT * FROM {o}")).collect();
            ctx.push_cte(union.join(" UNION ALL "));
            ctx.kind = if kinds.iter().all(|k| *k == kinds[0]) {
                kinds[0]
            } else {
                Kind::Value
            };
            // Path lengths may differ per branch; treat as one transform.
            ctx.transforms += 1;
        }
        Pipe::Loop { .. } => unreachable!("handled in translate_pipes"),

        // ---- reduce ----
        Pipe::Count => {
            let sql = format!("SELECT COUNT(*) AS val FROM {cur}", cur = ctx.cur);
            ctx.push_cte(sql);
            ctx.kind = Kind::Value;
            ctx.path = false;
        }
    }
    Ok(())
}

/// Translate a branch pipeline with a fresh path (for origin correlation).
fn translate_branch(
    ctx: &mut Ctx<'_>,
    input: &str,
    branch: &Pipeline,
) -> Result<String, Unsupported> {
    let saved = (
        ctx.cur.clone(),
        ctx.kind,
        ctx.path,
        ctx.transforms,
        ctx.marks.clone(),
    );
    // Branch input: reset path so path[0] is the branch origin.
    ctx.push_cte(format!("SELECT val, ARRAY() AS path FROM {input}"));
    ctx.path = true;
    ctx.transforms = 0;
    ctx.marks = HashMap::new();
    translate_pipes(ctx, &branch.pipes)?;
    let out = ctx.cur.clone();
    let (cur, kind, path, transforms, marks) = saved;
    ctx.cur = cur;
    ctx.kind = kind;
    ctx.path = path;
    ctx.transforms = transforms;
    ctx.marks = marks;
    Ok(out)
}

pub(crate) fn cmp_sql(cmp: Cmp) -> &'static str {
    match cmp {
        Cmp::Eq => "=",
        Cmp::Neq => "<>",
        Cmp::Lt => "<",
        Cmp::Lte => "<=",
        Cmp::Gt => ">",
        Cmp::Gte => ">=",
    }
}

fn closure_uses_props(c: &Closure) -> bool {
    match c {
        Closure::Prop(_) => true,
        Closure::Compare(_, l, r)
        | Closure::And(l, r)
        | Closure::Or(l, r)
        | Closure::Contains(l, r) => closure_uses_props(l) || closure_uses_props(r),
        Closure::Not(x) => closure_uses_props(x),
        _ => false,
    }
}

/// Render a boolean closure as a SQL condition. `attr` is the JSON
/// attribute column of the joined table, `val` the element id column.
fn closure_sql(c: &Closure, attr: &str, val: &str) -> Result<String, Unsupported> {
    Ok(match c {
        Closure::Compare(cmp, l, r) => format!(
            "{} {} {}",
            closure_value_sql(l, attr, val)?,
            cmp_sql(*cmp),
            closure_value_sql(r, attr, val)?
        ),
        Closure::And(l, r) => format!(
            "({}) AND ({})",
            closure_sql(l, attr, val)?,
            closure_sql(r, attr, val)?
        ),
        Closure::Or(l, r) => format!(
            "({}) OR ({})",
            closure_sql(l, attr, val)?,
            closure_sql(r, attr, val)?
        ),
        Closure::Not(x) => format!("NOT COALESCE(({}), FALSE)", closure_sql(x, attr, val)?),
        Closure::Contains(hay, needle) => {
            let h = closure_value_sql(hay, attr, val)?;
            match needle.as_ref() {
                Closure::Literal(Json::Str(s)) => {
                    if s.contains('%') || s.contains('_') {
                        return Err(Unsupported::new("contains() needle with LIKE wildcards"));
                    }
                    format!("{h} LIKE {}", sql_str(&format!("%{s}%")))
                }
                _ => return Err(Unsupported::new("contains() needs a string literal")),
            }
        }
        Closure::Literal(Json::Bool(b)) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        other => {
            return Err(Unsupported::new(format!(
                "closure {other:?} is not boolean"
            )))
        }
    })
}

/// Render a value-producing closure as a SQL expression.
fn closure_value_sql(c: &Closure, attr: &str, val: &str) -> Result<String, Unsupported> {
    Ok(match c {
        Closure::Prop(key) => format!("JSON_VAL({attr}, {})", sql_str(key)),
        Closure::It => val.to_string(),
        Closure::Literal(v) => sql_json(v)?,
        Closure::Loops => return Err(Unsupported::new("it.loops outside a static loop bound")),
        other => closure_sql(other, attr, val)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlgraph_gremlin::parse_query;

    fn layout() -> GraphLayout {
        GraphLayout::trivial(4, 4)
    }

    fn tr(q: &str) -> Result<String, Unsupported> {
        translate(&parse_query(q).unwrap(), &layout())
    }

    #[test]
    fn figure7_shape() {
        // The paper's running example compiles to a CTE chain ending in a
        // COUNT over a dedup.
        let sql = tr("g.V.filter{it.tag=='w'}.both.dedup().count()").unwrap();
        assert!(sql.starts_with("WITH "));
        assert!(sql.contains("JSON_VAL(p.attr, 'tag') = 'w'"));
        assert!(sql.contains("UNION ALL"));
        assert!(sql.contains("SELECT DISTINCT val"));
        assert!(sql.contains("SELECT COUNT(*) AS val"));
        assert!(sql.contains("vid >= 0"));
    }

    #[test]
    fn single_step_uses_ea() {
        let sql = tr("g.v(5).out('knows')").unwrap();
        assert!(sql.contains("ea p"), "single hop should use EA: {sql}");
        assert!(!sql.contains("opa"));
        assert!(sql.contains("p.lbl IN ('knows')"));
    }

    #[test]
    fn multi_step_uses_hash_tables() {
        let sql = tr("g.v(5).out('a').out('b')").unwrap();
        assert!(sql.contains("opa p"), "multi hop should use OPA: {sql}");
        assert!(sql.contains("LEFT OUTER JOIN osa"));
    }

    #[test]
    fn labeled_traversal_prunes_buckets() {
        let sql = tr("g.v(5).out('x').out('x')").unwrap();
        // With 4 buckets but one label, only one triad should be unnested.
        let count = sql.matches("p.lbl").count();
        // one lbl per unnest + IN filters; far fewer than 4 buckets × 2 steps
        assert!(count <= 6, "bucket pruning failed: {sql}");
    }

    #[test]
    fn unlabeled_traversal_unnests_all_buckets() {
        let sql = tr("g.v(5).out.out").unwrap();
        assert!(sql.contains("p.lbl3"), "all 4 buckets expected: {sql}");
    }

    #[test]
    fn graph_query_merges_start_filter() {
        let sql = tr("g.V('uri','x').in('type')").unwrap();
        assert!(sql.contains("JSON_VAL(attr, 'uri') = 'x'"));
    }

    #[test]
    fn path_tracking_enabled_on_demand() {
        let with_path = tr("g.v(1).out.out.path").unwrap();
        assert!(with_path.contains("ARRAY() AS path"));
        assert!(with_path.contains("ARRAY_APPEND(v.path, v.val)"));
        let without = tr("g.v(1).out.out").unwrap();
        assert!(!without.contains("path"));
    }

    #[test]
    fn loops_unroll() {
        let sql = tr("g.v(1).out.loop(1){it.loops < 3}").unwrap();
        // out + 2 unrolled = 3 adjacency steps (each = 2 CTEs).
        assert_eq!(sql.matches("opa p").count(), 3);
    }

    #[test]
    fn dynamic_loops_are_unsupported() {
        let err = tr("g.v(1).out.loop(1){it.weight < 3}").unwrap_err();
        assert!(err.reason.contains("loop"));
    }

    #[test]
    fn back_uses_path_index() {
        let sql = tr("g.V.as('x').out('a').back('x')").unwrap();
        assert!(sql.contains("v.path[0] AS val"), "{sql}");
    }

    #[test]
    fn aggregate_except() {
        let sql = tr("g.v(1).aggregate(x).out.out.except(x)").unwrap();
        assert!(sql.contains("NOT IN (SELECT val FROM t1)"), "{sql}");
    }

    #[test]
    fn deletion_guard_present_on_v_scan() {
        let sql = tr("g.V").unwrap();
        assert!(sql.contains("vid >= 0"));
    }

    #[test]
    fn count_star_terminal() {
        let sql = tr("g.V.count()").unwrap();
        assert!(sql.ends_with("SELECT val FROM t2"));
    }

    #[test]
    fn multihop_count_uses_multiplicities() {
        let sql = tr("g.V.out.out.count()").unwrap();
        assert!(
            sql.contains("COUNT(*) AS m"),
            "seed compress missing: {sql}"
        );
        assert!(
            sql.contains("SUM(v.m) AS m"),
            "fused hop regroup missing: {sql}"
        );
        assert!(
            sql.contains("SELECT COALESCE(val, 0) AS val"),
            "empty-frontier count guard missing: {sql}"
        );
    }

    #[test]
    fn multihop_dedup_count_drops_multiplicity_at_dedup() {
        let sql = tr("g.V.out.out.dedup().count()").unwrap();
        assert!(sql.contains("SUM(v.m) AS m"), "{sql}");
        assert!(sql.contains("SELECT DISTINCT val"), "{sql}");
        assert!(sql.contains("SELECT COUNT(*) AS val"), "{sql}");
        assert!(!sql.contains("SUM(m) AS val"), "dedup must drop m: {sql}");
    }

    #[test]
    fn single_hop_count_keeps_row_template() {
        let sql = tr("g.V.out.count()").unwrap();
        assert!(!sql.contains(" AS m"), "{sql}");
    }

    #[test]
    fn factorize_off_keeps_row_templates() {
        let opts = TranslateOptions {
            factorize: false,
            ..TranslateOptions::default()
        };
        let sql = translate_with(
            &parse_query("g.V.out.out.count()").unwrap(),
            &layout(),
            opts,
        )
        .unwrap();
        assert!(!sql.contains(" AS m"), "{sql}");
    }

    #[test]
    fn force_ea_disables_multiplicities() {
        let opts = TranslateOptions {
            adjacency: AdjacencyStrategy::ForceEa,
            factorize: true,
        };
        let sql = translate_with(
            &parse_query("g.V.out.out.count()").unwrap(),
            &layout(),
            opts,
        )
        .unwrap();
        assert!(!sql.contains(" AS m"), "{sql}");
        assert!(sql.contains("ea p"), "{sql}");
    }

    #[test]
    fn template_is_the_inline_text_with_binds_lifted_out() {
        for q in [
            "g.v(5).out('knows')",
            "g.e(3).outV.has('name', 'x')",
            "g.V('uri', 'x').in('type').interval('age', 1.5, 30)",
            // `loops < 3` emits the segment three times: one literal, three `?`.
            "g.v(5).out.has('age', T.gt, 30).loop(2){it.loops < 3}.has('n', null)",
            "g.v(1).copySplit(_().out('a').has('k', 1), _().both('b').has('k', true)).fairMerge",
            "g.V.filter{it.age > 27}.has('age', 27)",
        ] {
            let (statement, lifted) = sqlgraph_gremlin::parse_lifted(q).unwrap();
            let sqlgraph_gremlin::GremlinStatement::Query(pipeline) = &statement else {
                panic!("{q} is a traversal");
            };
            let options = TranslateOptions::default();
            let (template, slots) = translate_template(pipeline, &layout(), options).unwrap();
            assert_eq!(template.matches('?').count(), slots.len(), "{template}");
            let mut inline = String::new();
            let mut pieces = template.split('?');
            inline.push_str(pieces.next().unwrap());
            for (piece, slot) in pieces.zip(&slots) {
                inline.push_str(&sql_json(&lifted.literals[*slot]).unwrap());
                inline.push_str(piece);
            }
            assert_eq!(inline, translate(pipeline, &layout()).unwrap(), "{q}");
        }
        let pipeline =
            parse_query("g.v(5).out.has('age', T.gt, 30).loop(2){it.loops < 3}.has('n', 7)")
                .unwrap();
        let (_, slots) =
            translate_template(&pipeline, &layout(), TranslateOptions::default()).unwrap();
        assert_eq!(slots, [0, 1, 1, 1, 2]);
    }

    #[test]
    fn path_queries_never_use_multiplicities() {
        let sql = tr("g.v(1).out.out.path").unwrap();
        assert!(!sql.contains(" AS m"), "{sql}");
    }
}
