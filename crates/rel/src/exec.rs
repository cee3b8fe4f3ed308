//! Query execution over the physical plan IR.
//!
//! Planning lives in [`crate::plan`]: `plan_from` turns a FROM list + WHERE
//! into an explicit [`plan::FromPlan`] operator tree (join order, access
//! paths, pushdown, pruning — every decision), and [`Shape`] compiles the
//! output stage. A core's plan comes from its prepared statement's cache
//! when there is one ([`crate::prepared`]) and is bound to this execution's
//! values. This module only *executes*: [`exec_from`] walks the bound plan
//! step by step, [`run_aggregate`] / [`Shape::run`] shape the output, and
//! set ops / ORDER BY / LIMIT compose on top. The executor makes no
//! planning choices of its own.
//!
//! Data flows between steps as materialized rows, or — once a CSR step has
//! expanded adjacency lists — as a factorized [`Factored`] intermediate
//! that flattens to exactly the rows the row engine would have produced.
//! Morsel-parallel operators (full scans, filters, joins, aggregation)
//! concatenate their outputs in morsel order, so results are byte-identical
//! at any DOP.

use crate::db::Database;
use crate::error::{Error, Result};
use crate::expr::{self, in_set, BinaryOp, Binds, Expr};
use crate::hasher::{FxHashMap, FxHashSet, FxHasher};
use crate::index::IndexKey;
use crate::plan::{self, Access, Attach, FromPlan, RelInput, Step, StepExec, StepKind};
use crate::prepared::{self, CorePlan, CoreSlot, SetPlans, StmtPlans};
use crate::sql::ast;
use crate::storage::Table;
use crate::txn::Snapshot;
use crate::value::Value;
use std::hash::{Hash, Hasher};
use std::slice;
use std::sync::Arc;

/// An executor row.
pub type Row = Vec<Value>;

/// A materialized relation: named columns plus rows.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    /// Lower-cased output column names.
    pub columns: Vec<String>,
    /// Row data.
    pub rows: Vec<Row>,
}

impl Relation {
    /// Build a relation, lower-casing column names.
    pub fn new(columns: Vec<String>, rows: Vec<Row>) -> Relation {
        Relation {
            columns: columns
                .into_iter()
                .map(|c| c.to_ascii_lowercase())
                .collect(),
            rows,
        }
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.columns.iter().position(|c| *c == lower)
    }

    /// Single-value convenience: the first column of the first row.
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }

    /// First column of every row as i64 (skipping non-ints).
    pub fn int_column(&self) -> Vec<i64> {
        self.rows
            .iter()
            .filter_map(|r| r.first().and_then(Value::as_int))
            .collect()
    }

    /// First column of every row rendered as strings.
    pub fn strings(&self) -> Vec<String> {
        self.rows
            .iter()
            .filter_map(|r| r.first())
            .map(|v| v.to_string())
            .collect()
    }

    /// The single-cell `count` relation DML statements return.
    pub fn count(n: i64) -> Relation {
        Relation {
            columns: vec!["count".into()],
            rows: vec![vec![Value::Int(n)]],
        }
    }
}

/// One entry of the name-resolution scope: `(alias, column names)`.
#[derive(Debug, Clone)]
pub(crate) struct ScopeEntry {
    alias: String,
    columns: Vec<String>,
    offset: usize,
}

/// Name-resolution scope for a FROM list.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scope {
    pub(crate) entries: Vec<ScopeEntry>,
    pub(crate) width: usize,
}

impl Scope {
    pub(crate) fn push(&mut self, alias: &str, columns: Vec<String>) {
        let offset = self.width;
        self.width += columns.len();
        self.entries.push(ScopeEntry {
            alias: alias.to_ascii_lowercase(),
            columns,
            offset,
        });
    }

    /// Remove the last entry pushed.
    pub(crate) fn pop(&mut self) {
        if let Some(e) = self.entries.pop() {
            self.width = e.offset;
        }
    }

    /// Resolve a possibly-qualified column to a flat offset.
    fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize> {
        let lname = name.to_ascii_lowercase();
        match table {
            Some(t) => {
                let lt = t.to_ascii_lowercase();
                let entry = self
                    .entries
                    .iter()
                    .find(|e| e.alias == lt)
                    .ok_or_else(|| Error::NotFound(format!("table alias '{t}'")))?;
                let col = entry
                    .columns
                    .iter()
                    .position(|c| *c == lname)
                    .ok_or_else(|| Error::NotFound(format!("column '{t}.{name}'")))?;
                Ok(entry.offset + col)
            }
            None => {
                let mut found = None;
                for entry in &self.entries {
                    if let Some(col) = entry.columns.iter().position(|c| *c == lname) {
                        if found.is_some() {
                            return Err(Error::Invalid(format!("ambiguous column '{name}'")));
                        }
                        found = Some(entry.offset + col);
                    }
                }
                found.ok_or_else(|| Error::NotFound(format!("column '{name}'")))
            }
        }
    }
}

/// Execution environment: the database plus visible CTE bindings.
pub struct Env<'a> {
    /// Catalog / storage access.
    pub db: &'a Database,
    /// CTEs visible to the query being executed (lower-cased names).
    pub ctes: FxHashMap<String, Arc<Relation>>,
    /// Positional parameter values.
    pub params: &'a [Value],
    /// When set, the executor records access-path decisions here
    /// (`EXPLAIN` support).
    pub trace: Option<&'a std::cell::RefCell<Vec<String>>>,
    /// MVCC snapshot every table read resolves against. `Snapshot::latest`
    /// sees all committed state (no in-flight provisional versions).
    pub snap: Snapshot,
}

impl<'a> Env<'a> {
    /// New environment with no CTEs, reading latest-committed state.
    pub fn new(db: &'a Database, params: &'a [Value]) -> Env<'a> {
        Env::with_snap(db, params, Snapshot::latest())
    }

    /// New environment reading through an explicit MVCC snapshot.
    pub fn with_snap(db: &'a Database, params: &'a [Value], snap: Snapshot) -> Env<'a> {
        Env {
            db,
            ctes: FxHashMap::default(),
            params,
            trace: None,
            snap,
        }
    }

    /// Record one access-path decision (no-op unless tracing).
    pub fn note(&self, line: impl FnOnce() -> String) {
        if let Some(t) = self.trace {
            t.borrow_mut().push(line());
        }
    }
}

/// Run a full query, planning every core afresh.
pub fn run_select(env: &Env<'_>, stmt: &ast::SelectStmt) -> Result<Relation> {
    run_stmt(env, stmt, None)
}

/// Run a full query; with `plans`, each core's plan comes from (and goes
/// to) its slot there.
pub(crate) fn run_stmt(
    env: &Env<'_>,
    stmt: &ast::SelectStmt,
    plans: Option<&StmtPlans>,
) -> Result<Relation> {
    // Materialize CTEs in order; each sees the previous ones. A statement
    // without CTEs of its own (every CTE body of a translated traversal)
    // runs in the enclosing environment.
    let with_ctes;
    let env2 = if stmt.ctes.is_empty() {
        env
    } else {
        let mut inner = Env {
            db: env.db,
            ctes: env.ctes.clone(),
            params: env.params,
            trace: env.trace,
            snap: env.snap,
        };
        for (i, (name, query)) in stmt.ctes.iter().enumerate() {
            let rel = run_stmt(&inner, query, plans.map(|p| &p.ctes[i]))?;
            inner.ctes.insert(name.to_ascii_lowercase(), Arc::new(rel));
        }
        with_ctes = inner;
        &with_ctes
    };
    let body_plans = plans.map(|p| &p.body);
    // An invalid LIMIT/OFFSET is reported after the body has run, as if it
    // were applied to the finished relation.
    let bounds = limit_bounds(env2, stmt.limit.as_ref(), stmt.offset.as_ref());
    // A single-core body handles ORDER BY internally so sort keys may
    // reference input columns that are not projected; set-op bodies sort on
    // output columns only. An unsorted core may stop reading after the
    // rows LIMIT keeps.
    let mut rel = match &stmt.body {
        ast::SetExpr::Select(core) => {
            let cap = match &bounds {
                Ok((offset, Some(limit))) if stmt.order_by.is_empty() => {
                    offset.saturating_add(*limit)
                }
                _ => usize::MAX,
            };
            run_core(
                env2,
                core,
                &stmt.order_by,
                body_plans.and_then(SetPlans::core),
                cap,
            )?
        }
        body => {
            let mut rel = run_set_expr(env2, body, body_plans)?;
            if !stmt.order_by.is_empty() {
                sort_relation(env2, &mut rel, &stmt.order_by)?;
            }
            rel
        }
    };
    let (offset, limit) = bounds?;
    rel.rows.drain(..offset.min(rel.rows.len()));
    if let Some(limit) = limit {
        rel.rows.truncate(limit);
    }
    Ok(rel)
}

/// A statement's `(OFFSET, LIMIT)` row counts (0 and `None` when absent).
fn limit_bounds(
    env: &Env<'_>,
    limit: Option<&ast::Expr>,
    offset: Option<&ast::Expr>,
) -> Result<(usize, Option<usize>)> {
    let eval_n = |e: &ast::Expr| -> Result<usize> {
        compile_scalar(env, e)?
            .eval(&[])?
            .as_int()
            .filter(|n| *n >= 0)
            .map(|n| n as usize)
            .ok_or_else(|| Error::Invalid("LIMIT/OFFSET must be a non-negative integer".into()))
    };
    let offset = offset.map(eval_n).transpose()?.unwrap_or(0);
    Ok((offset, limit.map(eval_n).transpose()?))
}

fn sort_relation(env: &Env<'_>, rel: &mut Relation, keys: &[(ast::Expr, bool)]) -> Result<()> {
    // ORDER BY resolves against the output columns; bare integers are
    // 1-based output positions.
    let mut scope = Scope::default();
    scope.push("", rel.columns.clone());
    let mut compiled = Vec::with_capacity(keys.len());
    for (e, desc) in keys {
        let ce = match e {
            ast::Expr::Literal(Value::Int(n)) if *n >= 1 && (*n as usize) <= rel.columns.len() => {
                Expr::Col(*n as usize - 1)
            }
            // Qualified references (`ORDER BY p2.name`) resolve by bare
            // column name against the output, matching common SQL practice.
            ast::Expr::Column {
                table: Some(_),
                name,
            } => compile_expr(
                &scope,
                &ast::Expr::Column {
                    table: None,
                    name: name.clone(),
                },
            )?,
            other => compile_bound(env, &scope, other)?,
        };
        compiled.push((ce, *desc));
    }
    // Precompute sort keys to keep comparisons cheap and fallible code out
    // of the comparator.
    let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rel.rows.len());
    for row in rel.rows.drain(..) {
        let mut k = Vec::with_capacity(compiled.len());
        for (ce, _) in &compiled {
            k.push(ce.eval(&row)?);
        }
        keyed.push((k, row));
    }
    keyed.sort_by(|(ka, _), (kb, _)| {
        for ((a, b), (_, desc)) in ka.iter().zip(kb.iter()).zip(&compiled) {
            let o = a.total_cmp(b);
            if o != std::cmp::Ordering::Equal {
                return if *desc { o.reverse() } else { o };
            }
        }
        std::cmp::Ordering::Equal
    });
    rel.rows = keyed.into_iter().map(|(_, r)| r).collect();
    Ok(())
}

fn run_set_expr(env: &Env<'_>, body: &ast::SetExpr, plans: Option<&SetPlans>) -> Result<Relation> {
    match body {
        ast::SetExpr::Select(core) => {
            run_core(env, core, &[], plans.and_then(SetPlans::core), usize::MAX)
        }
        ast::SetExpr::Op {
            op,
            all,
            left,
            right,
        } => {
            let (lp, rp) = match plans {
                Some(SetPlans::Op(l, r)) => (Some(&**l), Some(&**r)),
                _ => (None, None),
            };
            let l = run_set_expr(env, left, lp)?;
            let r = run_set_expr(env, right, rp)?;
            if l.columns.len() != r.columns.len() {
                return Err(Error::Invalid(format!(
                    "set operands have different arities ({} vs {})",
                    l.columns.len(),
                    r.columns.len()
                )));
            }
            let width = l.columns.len();
            let mut out = Relation {
                columns: l.columns,
                rows: Vec::new(),
            };
            if *op == ast::SetOp::Union {
                out.rows = l.rows;
                out.rows.extend(r.rows);
                if !*all {
                    dedup_rows(&mut out.rows, width);
                }
                return Ok(out);
            }
            // The right operand's rows move into the table as its first
            // groups.
            let mut table = GroupTable::new(width);
            for mut row in r.rows {
                table.insert_hashed(hash_key(&row), &mut row);
            }
            if *op == ast::SetOp::Intersect {
                let mut emitted = vec![false; table.len()];
                for row in l.rows {
                    if let Some(g) = table.find(&row) {
                        if !std::mem::replace(&mut emitted[g], true) {
                            out.rows.push(row);
                        }
                    }
                }
            } else {
                // EXCEPT: a left row that opens a new group is in neither the
                // right operand nor the rows emitted before it.
                for row in l.rows {
                    if table.insert(&row).1 {
                        out.rows.push(row);
                    }
                }
            }
            Ok(out)
        }
    }
}

/// Keep the first of each set of equal rows (`width` columns each).
fn dedup_rows(rows: &mut Vec<Row>, width: usize) {
    let mut seen = GroupTable::new(width);
    rows.retain(|r| seen.insert(r).1);
}

// ---------------------------------------------------------------------------
// SELECT core
// ---------------------------------------------------------------------------

/// Run one SELECT core: run its derived tables, take its plan (from `slot`
/// when it is current, else planned afresh), run its IN subqueries, bind,
/// execute. Derived tables run before planning because the join order
/// reads their sizes; each subquery runs once, whatever the plan's shape.
/// Only the first `cap` output rows are wanted: a core whose output rows
/// are its FROM rows in order stops its FROM there.
fn run_core(
    env: &Env<'_>,
    core: &ast::SelectCore,
    order_by: &[(ast::Expr, bool)],
    slot: Option<&CoreSlot>,
    cap: usize,
) -> Result<Relation> {
    let mut derived = Vec::new();
    for (n, query) in prepared::core_derived(core).into_iter().enumerate() {
        let rel = run_stmt(env, query, slot.map(|s| &s.derived[n]))?;
        derived.push(Arc::new(rel));
    }
    let build = || plan_core(env, core, order_by, &derived);
    let plan = match slot {
        Some(slot) => slot.plan(env, &derived, build)?,
        None => Arc::new(build()?),
    };
    let sets = match slot {
        Some(slot) if slot.subqueries.is_empty() => FxHashMap::default(),
        _ => {
            let queries = prepared::core_subqueries(core, order_by).into_iter();
            let plans = (0..).map(|n| slot.map(|s| &s.subqueries[n]));
            subquery_sets(env, queries.zip(plans))?
        }
    };
    let binds = Binds {
        params: env.params,
        sets,
    };
    let bound = plan.from.bind(&binds)?;
    let from = bound.as_ref().unwrap_or(&plan.from);
    let shape = plan.shape.bound(&binds)?;
    let mut execs = vec![StepExec::default(); from.steps.len()];
    let cap = if shape.streams() { cap } else { usize::MAX };
    let data = exec_from(env, from, &derived, &mut execs, cap)?;
    let rel = shape.run(env, data)?;
    if env.trace.is_some() {
        // EXPLAIN: render the physical operator tree that just ran.
        plan::render_tree(env, from, &execs, &shape.wrappers());
    }
    Ok(rel)
}

/// Plan a SELECT core: the FROM pipeline (join order, access paths,
/// predicate pushdown, projection pruning) and the output [`Shape`].
/// Planning makes every decision; execution only follows the IR.
fn plan_core(
    env: &Env<'_>,
    core: &ast::SelectCore,
    order_by: &[(ast::Expr, bool)],
    derived: &[Arc<Relation>],
) -> Result<CorePlan> {
    // Read before planning reads anything: a change racing this plan then
    // leaves it keyed on the older epoch, to be re-planned.
    let epoch = env.db.plan_epoch();
    let needs = plan::collect_needs(core, order_by);
    let mut guards = Vec::new();
    let planned = plan::plan_from(
        env,
        &core.from,
        core.filter.as_ref(),
        &needs,
        derived,
        &mut guards,
    )?;
    let shape = Shape::compile(&planned.scope, core, order_by)?;
    Ok(CorePlan {
        from: planned.from,
        shape: Arc::new(shape),
        epoch,
        guards,
        order: planned.order,
    })
}

/// Run each IN subquery once (with its plan slots, if any) and collect its
/// result set under its id.
fn subquery_sets<'q>(
    env: &Env<'_>,
    queries: impl IntoIterator<Item = (&'q ast::SelectStmt, Option<&'q StmtPlans>)>,
) -> Result<FxHashMap<usize, Arc<FxHashSet<Value>>>> {
    let mut sets = FxHashMap::default();
    for (query, plans) in queries {
        let rel = run_stmt(env, query, plans)?;
        if rel.columns.len() != 1 {
            return Err(Error::Invalid(
                "IN subquery must return exactly one column".into(),
            ));
        }
        let values = rel
            .rows
            .into_iter()
            .map(|row| row.into_iter().next().expect("one column"));
        sets.insert(prepared::subquery_id(query), in_set(values));
    }
    Ok(sets)
}

/// A SELECT core's output stage compiled against its FROM scope: the
/// projection or aggregation, DISTINCT, and the ORDER BY keys, which are
/// computed as hidden trailing columns so they may reference unprojected
/// inputs.
#[derive(Clone)]
pub(crate) struct Shape {
    /// Output column names.
    names: Vec<String>,
    kind: ShapeKind,
    distinct: bool,
    /// Per ORDER BY key: descending.
    descs: Vec<bool>,
    /// Width of the FROM rows.
    width: usize,
    /// Whether an expression holds a bind slot.
    slots: bool,
}

#[derive(Clone)]
enum ShapeKind {
    /// Plain projection: one expression per output column, then the sort
    /// keys.
    Project(Vec<Expr>),
    Aggregate(AggPlan),
}

/// A compiled aggregation: group keys, aggregate calls, and the output
/// expressions over `input row ++ aggregate values` (sort keys last).
#[derive(Clone)]
struct AggPlan {
    group: Vec<Expr>,
    aggs: Vec<AggSpec>,
    proj: Vec<Expr>,
    having: Option<Expr>,
}

impl Shape {
    fn compile(
        scope: &Scope,
        core: &ast::SelectCore,
        order_by: &[(ast::Expr, bool)],
    ) -> Result<Shape> {
        let needs_agg = !core.group_by.is_empty()
            || core.projections.iter().any(|p| match p {
                ast::Projection::Expr { expr, .. } => contains_aggregate(expr),
                _ => false,
            });
        let (names, kind) = if needs_agg {
            let (names, agg) = compile_aggregate(scope, core, order_by)?;
            (names, ShapeKind::Aggregate(agg))
        } else {
            let (names, mut exprs) = compile_projections(scope, &core.projections)?;
            let visible = exprs.len();
            for (key, _) in order_by {
                let ke = compile_order_key(scope, key, &names, &exprs[..visible], None)?;
                exprs.push(ke);
            }
            (names, ShapeKind::Project(exprs))
        };
        let mut shape = Shape {
            names,
            kind,
            distinct: core.distinct,
            descs: order_by.iter().map(|(_, d)| *d).collect(),
            width: scope.width,
            slots: false,
        };
        shape.slots = shape.exprs_mut().into_iter().any(|e| e.has_slots());
        Ok(shape)
    }

    /// Every expression of the shape.
    fn exprs_mut(&mut self) -> Vec<&mut Expr> {
        match &mut self.kind {
            ShapeKind::Project(exprs) => exprs.iter_mut().collect(),
            ShapeKind::Aggregate(a) => a
                .group
                .iter_mut()
                .chain(a.aggs.iter_mut().filter_map(|s| s.arg.as_mut()))
                .chain(&mut a.proj)
                .chain(&mut a.having)
                .collect(),
        }
    }

    /// This shape with its bind slots filled (itself when it has none).
    fn bound(self: &Arc<Shape>, b: &Binds<'_>) -> Result<Arc<Shape>> {
        if !self.slots {
            return Ok(self.clone());
        }
        let mut shape = (**self).clone();
        for e in shape.exprs_mut() {
            *e = e.bind(b)?;
        }
        shape.slots = false;
        Ok(Arc::new(shape))
    }

    /// Shape the FROM pipeline's output into the core's relation.
    fn run(&self, env: &Env<'_>, data: Data) -> Result<Relation> {
        let rows = match &self.kind {
            ShapeKind::Aggregate(agg) => run_aggregate(env, self.width, data, agg)?,
            ShapeKind::Project(exprs) => {
                let rows = data.into_rows();
                let mut out_rows = Vec::with_capacity(rows.len());
                for row in &rows {
                    let mut out = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        out.push(e.eval(row)?);
                    }
                    out_rows.push(out);
                }
                out_rows
            }
        };
        let mut rel = Relation {
            columns: self.names.clone(),
            rows,
        };
        let visible = rel.columns.len();
        if self.distinct {
            // Deduplicate on the visible prefix, keeping the first occurrence.
            let mut seen = GroupTable::new(visible);
            rel.rows.retain(|r| seen.insert(&r[..visible]).1);
        }
        if !self.descs.is_empty() {
            sort_rows_by_hidden(&mut rel.rows, visible, &self.descs);
            for row in &mut rel.rows {
                row.truncate(visible);
            }
        }
        Ok(rel)
    }

    /// Whether output row `i` is the projection of FROM row `i`: no
    /// aggregate, DISTINCT or sort.
    fn streams(&self) -> bool {
        matches!(self.kind, ShapeKind::Project(_)) && !self.distinct && self.descs.is_empty()
    }

    /// EXPLAIN's operators above the FROM tree, outermost first.
    fn wrappers(&self) -> Vec<String> {
        let mut wrappers = Vec::new();
        if !self.descs.is_empty() {
            wrappers.push(format!("Sort ({} keys)", self.descs.len()));
        }
        if self.distinct {
            wrappers.push("Distinct".to_string());
        }
        if matches!(self.kind, ShapeKind::Aggregate(_)) {
            wrappers.push("Aggregate".to_string());
        }
        wrappers
    }
}

/// Stable sort by the hidden key columns appended after `visible`.
///
/// Ordering follows [`Value::total_cmp`]'s engine-wide contract: NULLs
/// first ascending / last descending, mixed types ranked by class, NaN
/// greater than every other number. Stability means ties preserve the
/// executor's deterministic row order, so sorted output is byte-identical
/// at every DOP.
fn sort_rows_by_hidden(rows: &mut [Row], visible: usize, descs: &[bool]) {
    rows.sort_by(|a, b| {
        for (i, desc) in descs.iter().enumerate() {
            let o = a[visible + i].total_cmp(&b[visible + i]);
            if o != std::cmp::Ordering::Equal {
                return if *desc { o.reverse() } else { o };
            }
        }
        std::cmp::Ordering::Equal
    });
}

/// Compile one ORDER BY key against, in priority order: a matching output
/// alias (reusing that projection's expression), a 1-based output position,
/// or the input scope directly. `agg` is used for aggregate queries.
fn compile_order_key(
    scope: &Scope,
    key: &ast::Expr,
    names: &[String],
    exprs: &[Expr],
    aggs: Option<&mut Vec<AggSpec>>,
) -> Result<Expr> {
    // Positional: ORDER BY 2.
    if let ast::Expr::Literal(Value::Int(n)) = key {
        if *n >= 1 && (*n as usize) <= exprs.len() {
            return Ok(exprs[*n as usize - 1].clone());
        }
    }
    // Output alias (possibly qualified — qualifier ignored per SQL habit).
    if let ast::Expr::Column { name, .. } = key {
        let lower = name.to_ascii_lowercase();
        if let Some(i) = names.iter().position(|n| *n == lower) {
            return Ok(exprs[i].clone());
        }
    }
    match aggs {
        Some(aggs) => compile_with_aggs(scope, key, aggs),
        None => compile_expr(scope, key),
    }
}

fn compile_projections(
    scope: &Scope,
    projections: &[ast::Projection],
) -> Result<(Vec<String>, Vec<Expr>)> {
    let mut names = Vec::new();
    let mut exprs = Vec::new();
    for p in projections {
        match p {
            ast::Projection::Wildcard => {
                for entry in &scope.entries {
                    for (i, c) in entry.columns.iter().enumerate() {
                        names.push(c.clone());
                        exprs.push(Expr::Col(entry.offset + i));
                    }
                }
            }
            ast::Projection::TableWildcard(t) => {
                let lt = t.to_ascii_lowercase();
                let entry = scope
                    .entries
                    .iter()
                    .find(|e| e.alias == lt)
                    .ok_or_else(|| Error::NotFound(format!("table alias '{t}'")))?;
                for (i, c) in entry.columns.iter().enumerate() {
                    names.push(c.clone());
                    exprs.push(Expr::Col(entry.offset + i));
                }
            }
            ast::Projection::Expr { expr, alias } => {
                let name = alias
                    .clone()
                    .or_else(|| match expr {
                        ast::Expr::Column { name, .. } => Some(name.clone()),
                        _ => None,
                    })
                    .unwrap_or_else(|| format!("col{}", names.len()));
                names.push(name.to_ascii_lowercase());
                exprs.push(compile_expr(scope, expr)?);
            }
        }
    }
    Ok((names, exprs))
}

// ---------------------------------------------------------------------------
// Grouping table
// ---------------------------------------------------------------------------

/// End of a [`GroupTable`] collision chain or a [`JoinTable`] key chain.
const NONE: u32 = u32::MAX;

/// A group or entry number as stored in a chain.
fn to_id(n: usize) -> u32 {
    u32::try_from(n)
        .ok()
        .filter(|&id| id != NONE)
        .expect("fewer than 2^32 - 1 groups or entries")
}

/// The hash a [`GroupTable`] files `key` under.
fn hash_key(key: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    for v in key {
        v.hash(&mut h);
    }
    h.finish()
}

/// The hash table behind GROUP BY, DISTINCT, set-op dedup and hash-join
/// builds. Keys of `width` values are numbered `0, 1, …` in first-appearance
/// order and stored back to back in one arena, so a new group allocates
/// nothing of its own. A key is found through a key-hash → newest-group map
/// plus, per group, the next older group with the same hash. Keys compare
/// by `Value`'s `Eq`/`Hash`: `Int(3)` and `Double(3.0)` are one key, and
/// NULL is a key like any other. A zero-width table — a keyless aggregate —
/// holds at most the empty key and never builds the map.
struct GroupTable {
    width: usize,
    len: usize,
    /// Group `g`'s key is `keys[g * width..(g + 1) * width]`.
    keys: Vec<Value>,
    /// Per group: its key's hash, and the next older group with that hash
    /// (`NONE` at the end of the chain).
    hashes: Vec<u64>,
    older: Vec<u32>,
    newest: FxHashMap<u64, u32>,
}

impl GroupTable {
    fn new(width: usize) -> GroupTable {
        GroupTable {
            width,
            len: 0,
            keys: Vec::new(),
            hashes: Vec::new(),
            older: Vec::new(),
            newest: FxHashMap::default(),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The group of `key`, if it has one.
    fn find(&self, key: &[Value]) -> Option<usize> {
        self.find_hashed(hash_key(key), key)
    }

    fn find_hashed(&self, hash: u64, key: &[Value]) -> Option<usize> {
        debug_assert_eq!(key.len(), self.width);
        if self.width == 0 {
            return (self.len > 0).then_some(0);
        }
        let mut g = *self.newest.get(&hash)?;
        while g != NONE {
            let at = g as usize * self.width;
            if self.keys[at..at + self.width] == *key {
                return Some(g as usize);
            }
            g = self.older[g as usize];
        }
        None
    }

    /// The group of `key` and whether it is new; a new key is cloned in.
    fn insert(&mut self, key: &[Value]) -> (usize, bool) {
        let hash = hash_key(key);
        match self.find_hashed(hash, key) {
            Some(g) => (g, false),
            None => (self.push(hash, key.iter().cloned()), true),
        }
    }

    /// [`GroupTable::insert`] for a key that hashes to `hash`; a new key's
    /// values are moved in, leaving NULLs behind.
    fn insert_hashed(&mut self, hash: u64, key: &mut [Value]) -> (usize, bool) {
        match self.find_hashed(hash, key) {
            Some(g) => (g, false),
            None => (self.push(hash, key.iter_mut().map(std::mem::take)), true),
        }
    }

    /// Add a group for an absent key.
    fn push(&mut self, hash: u64, key: impl Iterator<Item = Value>) -> usize {
        let g = self.len;
        self.len += 1;
        if self.width > 0 {
            self.keys.extend(key);
            self.hashes.push(hash);
            let older = self.newest.insert(hash, to_id(g));
            self.older.push(older.unwrap_or(NONE));
        }
        g
    }

    /// Insert `other`'s keys in its group order, moving them, and call
    /// `each(group, new)` for each: the group the key has here, and whether
    /// that group is new.
    fn absorb(&mut self, mut other: GroupTable, mut each: impl FnMut(usize, bool)) {
        let w = other.width;
        for j in 0..other.len {
            let hash = if w == 0 { 0 } else { other.hashes[j] };
            let (g, new) = self.insert_hashed(hash, &mut other.keys[j * w..(j + 1) * w]);
            each(g, new);
        }
    }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggFn {
    CountStar,
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFn {
    fn parse(name: &str) -> Option<AggFn> {
        Some(match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggFn::Count,
            "SUM" => AggFn::Sum,
            "MIN" => AggFn::Min,
            "MAX" => AggFn::Max,
            "AVG" => AggFn::Avg,
            _ => return None,
        })
    }
}

#[derive(Clone)]
struct AggSpec {
    func: AggFn,
    arg: Option<Expr>,
    distinct: bool,
}

fn contains_aggregate(e: &ast::Expr) -> bool {
    match e {
        ast::Expr::CountStar => true,
        ast::Expr::Call { name, args, .. } => {
            AggFn::parse(name).is_some() || args.iter().any(contains_aggregate)
        }
        ast::Expr::Unary(_, x) | ast::Expr::IsNull(x, _) | ast::Expr::Cast(x, _) => {
            contains_aggregate(x)
        }
        ast::Expr::Binary(_, l, r) | ast::Expr::Subscript(l, r) => {
            contains_aggregate(l) || contains_aggregate(r)
        }
        ast::Expr::Like { expr, pattern, .. } => {
            contains_aggregate(expr) || contains_aggregate(pattern)
        }
        ast::Expr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        ast::Expr::Between { expr, lo, hi, .. } => {
            contains_aggregate(expr) || contains_aggregate(lo) || contains_aggregate(hi)
        }
        _ => false,
    }
}

/// Compile an expression that may contain aggregate calls: each aggregate
/// becomes a reference to a slot *after* the input row (the executor
/// evaluates groups into `input_row ++ agg_values`).
fn compile_with_aggs(scope: &Scope, e: &ast::Expr, aggs: &mut Vec<AggSpec>) -> Result<Expr> {
    match e {
        ast::Expr::CountStar => {
            aggs.push(AggSpec {
                func: AggFn::CountStar,
                arg: None,
                distinct: false,
            });
            Ok(Expr::Col(scope.width + aggs.len() - 1))
        }
        ast::Expr::Call {
            name,
            args,
            distinct,
        } if AggFn::parse(name).is_some() => {
            let func = AggFn::parse(name).unwrap();
            if args.len() != 1 {
                return Err(Error::Invalid(format!("{name} takes exactly one argument")));
            }
            let arg = compile_expr(scope, &args[0])?;
            aggs.push(AggSpec {
                func,
                arg: Some(arg),
                distinct: *distinct,
            });
            Ok(Expr::Col(scope.width + aggs.len() - 1))
        }
        ast::Expr::Unary(op, x) => Ok(Expr::Unary(
            *op,
            Box::new(compile_with_aggs(scope, x, aggs)?),
        )),
        ast::Expr::Binary(op, l, r) => Ok(Expr::Binary(
            *op,
            Box::new(compile_with_aggs(scope, l, aggs)?),
            Box::new(compile_with_aggs(scope, r, aggs)?),
        )),
        // Aggregates inside other constructs are rare; compile without.
        other => compile_expr(scope, other),
    }
}

/// Compile a core's aggregation: output names and the [`AggPlan`].
fn compile_aggregate(
    scope: &Scope,
    core: &ast::SelectCore,
    order_by: &[(ast::Expr, bool)],
) -> Result<(Vec<String>, AggPlan)> {
    let group: Vec<Expr> = core
        .group_by
        .iter()
        .map(|e| compile_expr(scope, e))
        .collect::<Result<_>>()?;

    let mut aggs: Vec<AggSpec> = Vec::new();
    let mut names = Vec::new();
    let mut proj_exprs = Vec::new();
    for p in &core.projections {
        match p {
            ast::Projection::Expr { expr, alias } => {
                let name = alias
                    .clone()
                    .or_else(|| match expr {
                        ast::Expr::Column { name, .. } => Some(name.clone()),
                        _ => None,
                    })
                    .unwrap_or_else(|| format!("col{}", names.len()));
                names.push(name.to_ascii_lowercase());
                proj_exprs.push(compile_with_aggs(scope, expr, &mut aggs)?);
            }
            _ => {
                return Err(Error::Invalid(
                    "wildcard projections are not allowed with GROUP BY/aggregates".into(),
                ))
            }
        }
    }
    let having = core
        .having
        .as_ref()
        .map(|h| compile_with_aggs(scope, h, &mut aggs))
        .transpose()?;
    let visible = proj_exprs.len();
    for (key, _) in order_by {
        let snapshot = proj_exprs[..visible].to_vec();
        let ke = compile_order_key(scope, key, &names, &snapshot, Some(&mut aggs))?;
        proj_exprs.push(ke);
    }
    let agg = AggPlan {
        group,
        aggs,
        proj: proj_exprs,
        having,
    };
    Ok((names, agg))
}

impl AggPlan {
    /// Which of the `width` input columns the aggregation reads: group
    /// keys, aggregate arguments, HAVING and the output expressions.
    fn columns(&self, width: usize) -> Vec<bool> {
        let mut read = vec![false; width];
        let args = self.aggs.iter().filter_map(|s| s.arg.as_ref());
        for e in self
            .group
            .iter()
            .chain(args)
            .chain(&self.proj)
            .chain(&self.having)
        {
            e.visit_columns(&mut |c| {
                if c < width {
                    read[c] = true;
                }
            });
        }
        read
    }

    /// A group's output row from its representative row extended with its
    /// aggregate values, or `None` when HAVING rejects the group.
    fn output(&self, extended: &[Value]) -> Result<Option<Row>> {
        if let Some(h) = &self.having {
            if !h.eval_bool(extended)? {
                return Ok(None);
            }
        }
        let row: Result<Row> = self.proj.iter().map(|e| e.eval(extended)).collect();
        row.map(Some)
    }
}

/// Aggregate `data` (rows of `width` columns) per `agg` into output rows.
fn run_aggregate(env: &Env<'_>, width: usize, data: Data, agg: &AggPlan) -> Result<Vec<Row>> {
    // Only a factor's leaf reader needs to know which columns are read.
    let read = match &data {
        Data::Factor(_) => agg.columns(width),
        Data::Rows(_) => Vec::new(),
    };
    let mut extended: Row = Vec::with_capacity(width + agg.aggs.len());

    // Factorized COUNT(*): a count-only scalar aggregate over a factored
    // input needs just the leaf count plus the first path as the group
    // representative — the expansion lists are never flattened.
    if let Data::Factor(f) = &data {
        if agg.group.is_empty()
            && !agg.aggs.is_empty()
            && agg
                .aggs
                .iter()
                .all(|s| s.func == AggFn::CountStar && !s.distinct)
        {
            let n = f.leaf_count();
            env.note(|| format!("aggregate (factorized count, {n} paths)"));
            match n {
                0 => extended.resize(width, Value::Null),
                _ => extended.extend_from_slice(LeafReader::new(f, &read).read(0)),
            }
            extended.extend(agg.aggs.iter().map(|_| Value::Int(n as i64)));
            return Ok(agg.output(&extended)?.into_iter().collect());
        }
    }

    // Group rows morsel by morsel into per-worker partial accumulators,
    // then merge partials in morsel order. The decomposition depends only
    // on input size — never on the DOP — so serial and parallel runs fold
    // the same values in the same order and agree bit-for-bit even on
    // float accumulations. A factor's leaves are read in place.
    let total = data.len();
    let dop = env.db.dop_for(total);
    let partials = crate::parallel::ordered_map(
        dop,
        total,
        crate::parallel::MORSEL_ROWS,
        |range| -> Result<Groups> {
            let mut groups = Groups::new(agg.group.len());
            let mut key = Vec::with_capacity(agg.group.len());
            let mut rows = data.reader(&read);
            for i in range {
                groups.fold(agg, &mut key, i, rows.read(i))?;
            }
            Ok(groups)
        },
    );

    // Merge in morsel order: group order is first appearance across the
    // morsel sequence (= first appearance in row order), the representative
    // row is the earliest morsel's (= the group's first row).
    let mut partials = partials.into_iter();
    let mut merged = match partials.next() {
        Some(first) => first?,
        None => Groups::new(agg.group.len()),
    };
    for later in partials {
        merged.merge(later?, &agg.aggs);
    }
    // A scalar aggregate over zero rows still yields one group.
    if merged.reps.is_empty() && agg.group.is_empty() {
        merged.reps.push(usize::MAX);
        merged.accs.extend(agg.aggs.iter().map(AggAcc::new));
    }
    let groups = merged.reps.len();
    env.note(|| format!("aggregate ({total} rows -> {groups} groups, dop {dop})"));

    let mut rows = data.reader(&read);
    let mut accs = merged.accs.into_iter();
    let mut out_rows = Vec::with_capacity(groups);
    for rep in merged.reps {
        // Representative row: first of group, or all-NULL for empty input.
        extended.clear();
        match rep {
            usize::MAX => extended.resize(width, Value::Null),
            _ => extended.extend_from_slice(rows.read(rep)),
        }
        let values = accs.by_ref().take(agg.aggs.len()).zip(&agg.aggs);
        extended.extend(values.map(|(acc, spec)| acc.finish(spec)));
        out_rows.extend(agg.output(&extended)?);
    }
    Ok(out_rows)
}

/// Grouped aggregation state over one morsel of input (or, merged, over
/// all of it): the group keys, each group's representative — the index of
/// its first input row, since projections may read non-grouped columns —
/// and each group's accumulators, one per aggregate, back to back.
struct Groups {
    keys: GroupTable,
    reps: Vec<usize>,
    accs: Vec<AggAcc>,
}

impl Groups {
    fn new(width: usize) -> Groups {
        Groups {
            keys: GroupTable::new(width),
            reps: Vec::new(),
            accs: Vec::new(),
        }
    }

    /// Fold input row `i` into its group; `key` is scratch space.
    fn fold(&mut self, agg: &AggPlan, key: &mut Vec<Value>, i: usize, row: &[Value]) -> Result<()> {
        key.clear();
        for g in &agg.group {
            key.push(g.eval(row)?);
        }
        let (g, new) = self.keys.insert_hashed(hash_key(key), key);
        if new {
            self.reps.push(i);
            self.accs.extend(agg.aggs.iter().map(AggAcc::new));
        }
        let n = agg.aggs.len();
        for (acc, spec) in self.accs[g * n..(g + 1) * n].iter_mut().zip(&agg.aggs) {
            acc.update(spec, row)?;
        }
        Ok(())
    }

    /// Merge a later morsel's groups in, in their order, moving their keys
    /// and accumulators.
    fn merge(&mut self, later: Groups, aggs: &[AggSpec]) {
        let n = aggs.len();
        let mut reps = later.reps.into_iter();
        let mut accs = later.accs.into_iter();
        self.keys.absorb(later.keys, |g, new| {
            let rep = reps.next().expect("one representative per group");
            let part = accs.by_ref().take(n);
            if new {
                self.reps.push(rep);
                self.accs.extend(part);
            } else {
                let dst = self.accs[g * n..(g + 1) * n].iter_mut();
                for ((acc, p), spec) in dst.zip(part).zip(aggs) {
                    acc.merge(spec, p);
                }
            }
        });
    }
}

/// A mergeable aggregate accumulator. Serial and parallel aggregation both
/// run through these, so the two paths cannot drift.
enum AggAcc {
    CountStar(i64),
    Count(i64),
    CountDistinct(FxHashSet<Value>),
    /// SUM and AVG: integer and float lanes accumulated separately, mixed
    /// only at `finish` (matching SQL's int-stays-int SUM semantics).
    Sum {
        sum_i: i64,
        sum_f: f64,
        any_f: bool,
        n: i64,
    },
    MinMax(Option<Value>),
}

impl AggAcc {
    fn new(spec: &AggSpec) -> AggAcc {
        match spec.func {
            AggFn::CountStar => AggAcc::CountStar(0),
            AggFn::Count if spec.distinct => AggAcc::CountDistinct(FxHashSet::default()),
            AggFn::Count => AggAcc::Count(0),
            AggFn::Sum | AggFn::Avg => AggAcc::Sum {
                sum_i: 0,
                sum_f: 0.0,
                any_f: false,
                n: 0,
            },
            AggFn::Min | AggFn::Max => AggAcc::MinMax(None),
        }
    }

    /// Fold one input row into the accumulator.
    fn update(&mut self, spec: &AggSpec, row: &[Value]) -> Result<()> {
        let v = match &spec.arg {
            None => Value::Null,
            Some(arg) => arg.eval(row)?,
        };
        match self {
            AggAcc::CountStar(n) => *n += 1,
            AggAcc::Count(n) => {
                if !v.is_null() {
                    *n += 1;
                }
            }
            AggAcc::CountDistinct(seen) => {
                if !v.is_null() {
                    seen.insert(v);
                }
            }
            AggAcc::Sum {
                sum_i,
                sum_f,
                any_f,
                n,
            } => match v {
                Value::Null => {}
                Value::Int(x) => {
                    *sum_i = sum_i.wrapping_add(x);
                    *n += 1;
                }
                Value::Double(x) => {
                    *sum_f += x;
                    *any_f = true;
                    *n += 1;
                }
                other => return Err(Error::Type(format!("cannot SUM a {}", other.type_name()))),
            },
            AggAcc::MinMax(best) => {
                if v.is_null() {
                    return Ok(());
                }
                let keep_new = match best {
                    None => true,
                    Some(b) => {
                        let ord = v.total_cmp(b);
                        match spec.func {
                            AggFn::Min => ord == std::cmp::Ordering::Less,
                            _ => ord == std::cmp::Ordering::Greater,
                        }
                    }
                };
                if keep_new {
                    *best = Some(v);
                }
            }
        }
        Ok(())
    }

    /// Fold another partial (from a later morsel of the same group) in.
    fn merge(&mut self, spec: &AggSpec, other: AggAcc) {
        match (self, other) {
            (AggAcc::CountStar(a), AggAcc::CountStar(b)) => *a += b,
            (AggAcc::Count(a), AggAcc::Count(b)) => *a += b,
            (AggAcc::CountDistinct(a), AggAcc::CountDistinct(b)) => a.extend(b),
            (
                AggAcc::Sum {
                    sum_i,
                    sum_f,
                    any_f,
                    n,
                },
                AggAcc::Sum {
                    sum_i: bi,
                    sum_f: bf,
                    any_f: ba,
                    n: bn,
                },
            ) => {
                *sum_i = sum_i.wrapping_add(bi);
                *sum_f += bf;
                *any_f |= ba;
                *n += bn;
            }
            (AggAcc::MinMax(a), AggAcc::MinMax(b)) => {
                if let Some(bv) = b {
                    let keep_new = match &a {
                        None => true,
                        Some(av) => {
                            let ord = bv.total_cmp(av);
                            match spec.func {
                                AggFn::Min => ord == std::cmp::Ordering::Less,
                                _ => ord == std::cmp::Ordering::Greater,
                            }
                        }
                    };
                    if keep_new {
                        *a = Some(bv);
                    }
                }
            }
            _ => unreachable!("mismatched accumulator kinds"),
        }
    }

    fn finish(self, spec: &AggSpec) -> Value {
        match self {
            AggAcc::CountStar(n) | AggAcc::Count(n) => Value::Int(n),
            AggAcc::CountDistinct(seen) => Value::Int(seen.len() as i64),
            AggAcc::Sum {
                sum_i,
                sum_f,
                any_f,
                n,
            } => {
                if n == 0 {
                    Value::Null
                } else if spec.func == AggFn::Sum {
                    if any_f {
                        Value::Double(sum_f + sum_i as f64)
                    } else {
                        Value::Int(sum_i)
                    }
                } else {
                    Value::Double((sum_f + sum_i as f64) / n as f64)
                }
            }
            AggAcc::MinMax(best) => best.unwrap_or(Value::Null),
        }
    }
}

// ---------------------------------------------------------------------------
// Plan execution
// ---------------------------------------------------------------------------
//
// The planning half of the old interleaved FROM pipeline lives in
// `crate::plan` now. The executor below consumes the finished
// [`plan::FromPlan`] without making any planning decisions of its own: it
// follows access paths, attach strategies, and pushed filters exactly as
// planned, and records observed cardinalities into each step's
// [`plan::StepExec`] for EXPLAIN.

/// Intermediate data flowing between plan steps.
pub(crate) enum Data {
    /// Materialized rows, one `Vec<Value>` each.
    Rows(Vec<Row>),
    /// List-based (factorized) representation produced by CSR adjacency
    /// expansion: base rows plus one offset-delimited expansion level per
    /// CSR step. Flattening reproduces the row engine's nested-loop output
    /// exactly, so any operator may fall back via `into_rows`.
    Factor(Factored),
}

/// One expansion level of a [`Factored`] intermediate: element `e` belongs
/// to parent `p` (a base row for level 0, an element of the previous level
/// otherwise) iff `offsets[p] <= e < offsets[p + 1]`. Elements keep the
/// index's posting order, so a depth-first walk visits exactly the rows the
/// row engine's index nested-loop join would produce, in the same order.
pub(crate) struct Level {
    /// `parent_count + 1` offsets into the element arrays.
    offsets: Vec<u32>,
    /// One value vector per kept column (may be empty when the step keeps
    /// zero columns; `len` still counts elements).
    cols: Vec<Vec<Value>>,
    /// Element count (`offsets.last()`), tracked separately because `cols`
    /// can be empty.
    len: usize,
}

/// Factorized intermediate data: `base` rows and a chain of expansion
/// [`Level`]s. Each leaf element has exactly one ancestor chain, so the
/// logical row count is the last level's element count and per-leaf
/// filtering equals per-flattened-row filtering.
pub(crate) struct Factored {
    base: Vec<Row>,
    /// Width of every base row (kept explicitly so an empty base still
    /// knows its scope width).
    base_width: usize,
    /// Invariant: never empty — a factor exists only once a CSR step has
    /// expanded at least one level.
    levels: Vec<Level>,
}

impl Factored {
    /// Logical (flattened) row count: one row per leaf element.
    fn leaf_count(&self) -> usize {
        self.levels.last().map_or(self.base.len(), |l| l.len)
    }

    /// Column offset where the last level's values start in a flattened row.
    fn last_level_start(&self) -> usize {
        self.base_width
            + self.levels[..self.levels.len() - 1]
                .iter()
                .map(|l| l.cols.len())
                .sum::<usize>()
    }

    /// Depth-first flatten: for each base row in order, expand each level's
    /// elements in order — byte-identical to the nested index-probe loops
    /// the plan would otherwise run.
    fn flatten(self) -> Vec<Row> {
        fn rec(levels: &[Level], parent: usize, prefix: &mut Row, out: &mut Vec<Row>) {
            let (lv, rest) = levels.split_first().expect("levels never empty here");
            let (lo, hi) = (lv.offsets[parent] as usize, lv.offsets[parent + 1] as usize);
            let w = prefix.len();
            for e in lo..hi {
                prefix.extend(lv.cols.iter().map(|col| col[e].clone()));
                if rest.is_empty() {
                    out.push(prefix.clone());
                } else {
                    rec(rest, e, prefix, out);
                }
                prefix.truncate(w);
            }
        }
        let mut out = Vec::with_capacity(self.leaf_count());
        let mut prefix: Row = Vec::new();
        for (b, row) in self.base.iter().enumerate() {
            prefix.clear();
            prefix.extend_from_slice(row);
            rec(&self.levels, b, &mut prefix, &mut out);
        }
        out
    }

    /// Leaf-wise evaluation. When every one of `exprs` reads only the last
    /// level's columns, each leaf element stands for its whole flattened
    /// row: call `f` once per leaf, in order, on a full-width scratch row —
    /// NULLs (which `exprs` never read) before the leaf's own columns — and
    /// return `true`. Otherwise return `false` without calling `f`; the
    /// caller has to flatten.
    fn try_each_leaf<'e>(
        &self,
        exprs: impl IntoIterator<Item = &'e Expr>,
        mut f: impl FnMut(&Row) -> Result<()>,
    ) -> Result<bool> {
        let start = self.last_level_start();
        let last = self.levels.last().expect("factor levels never empty");
        let own = start..start + last.cols.len();
        let mut leaf_only = true;
        for e in exprs {
            e.visit_columns(&mut |c| leaf_only &= own.contains(&c));
        }
        if !leaf_only {
            return Ok(false);
        }
        let mut row: Row = vec![Value::Null; start];
        for e in 0..last.len {
            row.truncate(start);
            row.extend(last.cols.iter().map(|col| col[e].clone()));
            f(&row)?;
        }
        Ok(true)
    }
}

/// See [`Data::reader`].
enum RowReader<'d> {
    Rows(&'d [Row]),
    Leaves(LeafReader<'d>),
}

impl RowReader<'_> {
    fn read(&mut self, i: usize) -> &[Value] {
        match self {
            RowReader::Rows(rows) => &rows[i],
            RowReader::Leaves(leaves) => leaves.read(i),
        }
    }
}

/// Reads a factor's flattened rows one leaf at a time without flattening
/// it: each leaf's row is assembled in one full-width scratch row in which
/// only the columns marked in `read` are written — the rest stay NULL —
/// and only at the depths whose element changed since the previous read.
struct LeafReader<'f> {
    f: &'f Factored,
    /// Per depth (0: the base rows, `d + 1`: level `d`): its first column in
    /// a flattened row, and which of its columns to write.
    cols: Vec<(usize, Vec<usize>)>,
    /// The current leaf's element at each depth; the leaf itself is last.
    path: Vec<usize>,
    /// The element at each depth whose columns `row` holds (`usize::MAX`:
    /// none yet).
    written: Vec<usize>,
    row: Row,
}

impl<'f> LeafReader<'f> {
    fn new(f: &'f Factored, read: &[bool]) -> LeafReader<'f> {
        let widths = std::iter::once(f.base_width).chain(f.levels.iter().map(|l| l.cols.len()));
        let mut start = 0;
        let cols: Vec<_> = widths
            .map(|w| {
                let first = start;
                start += w;
                (first, (0..w).filter(|c| read[first + c]).collect())
            })
            .collect();
        LeafReader {
            f,
            path: vec![0; cols.len()],
            written: vec![usize::MAX; cols.len()],
            cols,
            row: vec![Value::Null; read.len()],
        }
    }

    /// Leaf `leaf`'s flattened row. A later leaf than the previous read is
    /// reached by walking the level offsets forward, any other by binary
    /// search: the parent of element `e` is the last offset at or below `e`.
    fn read(&mut self, leaf: usize) -> &[Value] {
        let last = self.path.len() - 1;
        let forward = self.written[last] != usize::MAX && leaf >= self.path[last];
        self.path[last] = leaf;
        for d in (1..=last).rev() {
            let offsets = &self.f.levels[d - 1].offsets;
            let e = self.path[d];
            let parent = if forward {
                let mut p = self.path[d - 1];
                while offsets[p + 1] as usize <= e {
                    p += 1;
                }
                if p == self.path[d - 1] {
                    break; // nothing above this depth moved either
                }
                p
            } else {
                offsets.partition_point(|&o| o as usize <= e) - 1
            };
            self.path[d - 1] = parent;
        }
        for (d, (first, cols)) in self.cols.iter().enumerate() {
            let e = self.path[d];
            if self.written[d] == e {
                continue;
            }
            self.written[d] = e;
            for &c in cols {
                self.row[first + c] = match d {
                    0 => self.f.base[e][c].clone(),
                    _ => self.f.levels[d - 1].cols[c][e].clone(),
                };
            }
        }
        &self.row
    }
}

impl Data {
    /// Logical row count (leaf paths for factors).
    fn len(&self) -> usize {
        match self {
            Data::Rows(r) => r.len(),
            Data::Factor(f) => f.leaf_count(),
        }
    }

    /// Materialize to rows — the row-engine boundary.
    fn into_rows(self) -> Vec<Row> {
        match self {
            Data::Rows(r) => r,
            Data::Factor(f) => f.flatten(),
        }
    }

    /// Logical rows by index, without materializing: a factor's leaves are
    /// read in place, with only the columns marked in `read` written.
    fn reader<'d>(&'d self, read: &[bool]) -> RowReader<'d> {
        match self {
            Data::Rows(rows) => RowReader::Rows(rows),
            Data::Factor(f) => RowReader::Leaves(LeafReader::new(f, read)),
        }
    }

    /// The identity seed (`[[]]`) a FROM pipeline starts from.
    fn is_identity(&self) -> bool {
        matches!(self, Data::Rows(r) if r.len() == 1 && r[0].is_empty())
    }
}

/// Control flow out of [`exec_step`]'s produce phase: `Right` hands the
/// unit's rows to the attach phase; `Done` consumed the accumulated rows
/// already (index probes and laterals combine while producing).
enum Produced {
    Right(Vec<Row>),
    Done(Data),
}

/// Execute a bound FROM pipeline over its `derived` tables, recording what
/// each step observed in `execs` (one per step). Only the first `cap` rows
/// are wanted: a pipeline of one unfiltered step reads no further.
fn exec_from(
    env: &Env<'_>,
    plan: &FromPlan,
    derived: &[Arc<Relation>],
    execs: &mut [StepExec],
    cap: usize,
) -> Result<Data> {
    let one_step =
        plan.steps.len() == 1 && plan.steps[0].after.is_empty() && plan.residual.is_empty();
    let cap = if one_step { cap } else { usize::MAX };
    let mut data = Data::Rows(vec![Vec::new()]); // identity row
    for (step, x) in plan.steps.iter().zip(execs) {
        let was_factor = matches!(&data, Data::Factor(_));
        data = exec_step(env, step, x, derived, data, cap)?;
        for p in &step.after {
            data = filter_data(env, data, p)?;
        }
        // EXPLAIN's per-step list-vs-flat mode: a step whose output stays
        // factorized runs in list mode; the step that materializes a
        // factored input back to rows is the flatten point.
        if matches!(&data, Data::Factor(_)) {
            x.list_out = Some(true);
        } else if was_factor {
            x.list_out = Some(false);
        }
        x.actual = Some(data.len());
    }
    for p in &plan.residual {
        data = filter_data(env, data, p)?;
    }
    Ok(data)
}

fn find_index<'t>(t: &'t Table, name: &str) -> Result<&'t crate::index::Index> {
    // Plans hold index *names*; re-resolve at execution time so a plan never
    // outlives the index it chose (DDL between plan and run surfaces as a
    // clean error).
    t.indexes()
        .iter()
        .find(|i| i.name == name)
        .ok_or_else(|| Error::NotFound(format!("index '{name}'")))
}

/// Copy the kept columns of each candidate version into a unit row and
/// keep the rows every local passes, in candidate order, stopping once
/// `cap` rows are kept. `counts[i]` gathers local `i`'s rows in and out.
fn scan_rows<'r>(
    cands: impl Iterator<Item = &'r [Value]>,
    keep: &[usize],
    locals: &[Expr],
    cap: usize,
    counts: &mut [(usize, usize)],
) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    if cap == 0 {
        return Ok(out);
    }
    // A rejected row's buffer is reused for the next.
    let mut row: Row = Vec::with_capacity(keep.len());
    'rows: for r in cands {
        row.clear();
        row.extend(keep.iter().map(|&i| r[i].clone()));
        for (p, c) in locals.iter().zip(counts.iter_mut()) {
            c.0 += 1;
            if !p.eval_bool(&row)? {
                continue 'rows;
            }
            c.1 += 1;
        }
        out.push(std::mem::replace(&mut row, Vec::with_capacity(keep.len())));
        if out.len() >= cap {
            break;
        }
    }
    Ok(out)
}

/// Execute one step: produce the unit's rows per [`plan::StepKind`] /
/// [`plan::Access`], then combine with the accumulated rows per
/// [`plan::Attach`]. A scan stops after `cap` rows.
fn exec_step(
    env: &Env<'_>,
    step: &Step,
    x: &mut StepExec,
    derived: &[Arc<Relation>],
    left: Data,
    cap: usize,
) -> Result<Data> {
    let mut left = Some(left);
    let produced = match &step.kind {
        StepKind::Scan {
            table,
            keep,
            access,
            locals,
        } => {
            env.db.read_table(table, |t| {
                Ok(match access {
                    Access::Probe { index, parts } => {
                        // Index nested-loop join: build a key per accumulated
                        // row, probe, and emit combined rows directly.
                        let idx = find_index(t, index)?;
                        let keep: &[usize] = keep;
                        let lrows = left.take().expect("left consumed once").into_rows();
                        let mut out = Vec::new();
                        for l in lrows {
                            let mut key = Vec::with_capacity(parts.len());
                            for p in parts.iter() {
                                let v = p.eval(&l)?;
                                if v.is_null() {
                                    break;
                                }
                                key.push(v);
                            }
                            // A NULL key part equals nothing: no candidates.
                            let probe = (key.len() == parts.len()).then_some(IndexKey(key));
                            let cands = probe.iter().flat_map(|probe| {
                                idx.lookup(probe).iter().filter_map(move |&rid| {
                                    // Older versions of a chain may carry a
                                    // different key than the visible one.
                                    let row = t.get_posted(rid, env.snap, |row| {
                                        idx.key_matches(row, &probe.0)
                                    })?;
                                    Some(keep.iter().map(move |&i| row[i].clone()))
                                })
                            });
                            emit_matches(step.outer.as_ref(), &l, cands, &mut out)?;
                        }
                        Produced::Done(Data::Rows(out))
                    }
                    Access::Csr { index, part } => {
                        // CSR adjacency expansion: probe keys resolve through a
                        // compressed per-key grouping of the index's postings
                        // (cached across statements when the snapshot allows —
                        // see `Database::csr_for`). Output stays factorized:
                        // the expansion is appended as an offset-delimited
                        // level instead of materializing one row per match.
                        let entry = env.db.csr_for(t, table, index, keep, env.snap)?;
                        x.csr_groups = Some(entry.group_count());
                        let ldata = left.take().expect("left consumed once");
                        let mut offsets: Vec<u32> = vec![0];
                        let mut cols: Vec<Vec<Value>> = keep.iter().map(|_| Vec::new()).collect();
                        let mut total = 0usize;
                        let mut expand = |l: &Row| -> Result<()> {
                            let key = part.eval(l)?;
                            if !key.is_null() {
                                total += entry.expand_into(&key, &mut cols);
                            }
                            offsets.push(total as u32);
                            Ok(())
                        };
                        // A factored input extends in place when the probe key
                        // only reads the last level's columns (each leaf then
                        // owns its key); otherwise flatten first.
                        let mut f = match ldata {
                            Data::Factor(f) if f.try_each_leaf([part], &mut expand)? => f,
                            other => {
                                let base = other.into_rows();
                                for l in &base {
                                    expand(l)?;
                                }
                                Factored {
                                    base_width: base.first().map_or(0, Vec::len),
                                    base,
                                    levels: Vec::new(),
                                }
                            }
                        };
                        f.levels.push(Level {
                            offsets,
                            cols,
                            len: total,
                        });
                        Produced::Done(Data::Factor(f))
                    }
                    Access::Point { index, key } => {
                        let idx = find_index(t, index)?;
                        let probe =
                            IndexKey(key.iter().map(|e| e.eval(&[])).collect::<Result<_>>()?);
                        let cands = idx.lookup(&probe).iter().filter_map(|&rid| {
                            t.get_posted(rid, env.snap, |row| idx.key_matches(row, &probe.0))
                        });
                        x.local_counts = vec![(0, 0); locals.len()];
                        Produced::Right(scan_rows(cands, keep, locals, cap, &mut x.local_counts)?)
                    }
                    Access::Range { index, lo, hi } => {
                        let idx = find_index(t, index)?;
                        let bound = |e: &Option<Expr>| -> Result<Option<IndexKey>> {
                            Ok(match e {
                                Some(e) => Some(IndexKey(vec![e.eval(&[])?])),
                                None => None,
                            })
                        };
                        let (lo_key, hi_key) = (bound(lo)?, bound(hi)?);
                        let entries = idx.range(lo_key.as_ref(), hi_key.as_ref())?;
                        let mut in_range = 0;
                        let cands = entries
                            .iter()
                            .flat_map(|(key, rids)| {
                                rids.iter().filter_map(|&rid| {
                                    // A chain is posted under every key its
                                    // versions carry: keep it under its visible
                                    // version's.
                                    t.get_posted(rid, env.snap, |row| idx.key_matches(row, &key.0))
                                })
                            })
                            .inspect(|_| in_range += 1);
                        x.local_counts = vec![(0, 0); locals.len()];
                        let scanned = scan_rows(cands, keep, locals, cap, &mut x.local_counts)?;
                        // EXPLAIN's range-scan count is rows before locals.
                        x.scan_rows = Some(in_range);
                        Produced::Right(scanned)
                    }
                    Access::Full => {
                        // Full scan fused with the pushed-down predicates, split
                        // into morsels when the table is large enough (or
                        // parallelism is pinned). Each morsel copies the kept
                        // columns of its slab range's visible versions and keeps
                        // the rows every local passes. Morsels cover disjoint
                        // slab ranges and outputs concatenate in slab order, so
                        // the result is identical at every DOP. A capped scan
                        // runs its morsels in order on one worker, each taking
                        // only what the cap has left.
                        let snap = env.snap;
                        let live = t.len();
                        let dop = if cap == usize::MAX {
                            env.db.dop_for(live)
                        } else {
                            1
                        };
                        x.scan_rows = Some(live);
                        x.scan_dop = Some(dop);
                        let kept = std::sync::atomic::AtomicUsize::new(0);
                        let chunks = crate::parallel::ordered_map(
                            dop,
                            t.slots().len(),
                            crate::parallel::MORSEL_ROWS,
                            |range| -> Result<Vec<Row>> {
                                let left = cap - kept.load(std::sync::atomic::Ordering::Relaxed);
                                let cands = t.slots()[range].iter().filter_map(|s| s.visible(snap));
                                let mut counts = vec![(0, 0); locals.len()];
                                let out = scan_rows(cands, keep, locals, left, &mut counts)?;
                                kept.fetch_add(out.len(), std::sync::atomic::Ordering::Relaxed);
                                Ok(out)
                            },
                        );
                        let mut scanned = Vec::new();
                        for chunk in chunks {
                            scanned.extend(chunk?);
                        }
                        if !locals.is_empty() {
                            x.local_counts.push((live, scanned.len()));
                        }
                        Produced::Right(scanned)
                    }
                })
            })?
        }
        StepKind::Rel { input, pushed } => {
            let rel: &Relation = match input {
                RelInput::Cte(name) => env
                    .ctes
                    .get(name)
                    .ok_or_else(|| Error::NotFound(format!("CTE '{name}'")))?,
                RelInput::Derived(n) => &derived[*n],
            };
            // The first pushed filter picks the rows copied out of the
            // shared relation; the rest filter the copy.
            let mut rows = match pushed.first() {
                None => rel.rows.clone(),
                Some(p) => {
                    let mut kept = Vec::new();
                    for row in &rel.rows {
                        if p.eval_bool(row)? {
                            kept.push(row.clone());
                        }
                    }
                    x.local_counts.push((rel.rows.len(), kept.len()));
                    kept
                }
            };
            for p in pushed.iter().skip(1) {
                let before = rows.len();
                rows = filter_rows(rows, p)?;
                x.local_counts.push((before, rows.len()));
            }
            x.scan_rows = Some(rows.len());
            Produced::Right(rows)
        }
        StepKind::LateralValues {
            rows: compiled_rows,
            arity,
        } => {
            let ldata = left.take().expect("left consumed once");
            let k = compiled_rows.len();
            // Only a factored input can fill `cols` (one value per leaf and
            // VALUES row); the row path below never touches them.
            let leaves = match &ldata {
                Data::Factor(f) => f.leaf_count(),
                _ => 0,
            };
            let mut offsets: Vec<u32> = vec![0];
            let mut cols: Vec<Vec<Value>> = (0..*arity)
                .map(|_| Vec::with_capacity(leaves * k))
                .collect();
            let mut unpivot = |leaf: &Row| -> Result<()> {
                for cr in compiled_rows.iter() {
                    for (j, expr) in cr.iter().enumerate() {
                        cols[j].push(expr.eval(leaf)?);
                    }
                }
                offsets.push((offsets.len() * k) as u32);
                Ok(())
            };
            match ldata {
                // A factored input stays factored when every row expression
                // reads only the last level's columns (the unpivot then
                // nests as one more offset-delimited level instead of
                // materializing the full-width cross product). Flatten
                // order is preserved: each leaf's lateral rows nest under
                // it in VALUES order.
                Data::Factor(mut f)
                    if f.try_each_leaf(compiled_rows.iter().flatten(), &mut unpivot)? =>
                {
                    let len = (offsets.len() - 1) * k;
                    f.levels.push(Level { offsets, cols, len });
                    Produced::Done(Data::Factor(f))
                }
                other => {
                    let lrows = other.into_rows();
                    let mut out = Vec::with_capacity(lrows.len() * k);
                    for row in lrows {
                        for cr in compiled_rows.iter() {
                            let mut extended = row.clone();
                            for e in cr {
                                extended.push(e.eval(&row)?);
                            }
                            out.push(extended);
                        }
                    }
                    Produced::Done(Data::Rows(out))
                }
            }
        }
        StepKind::LateralFunc {
            func,
            args,
            arity: _,
        } => {
            let lrows = left.take().expect("left consumed once").into_rows();
            let mut out = Vec::new();
            for row in lrows {
                let mut arg_values = Vec::with_capacity(args.len());
                for e in args.iter() {
                    arg_values.push(e.eval(&row)?);
                }
                for produced in func.invoke(&arg_values)? {
                    let mut extended = row.clone();
                    extended.extend(produced);
                    out.push(extended);
                }
            }
            Produced::Done(Data::Rows(out))
        }
    };
    match produced {
        Produced::Done(data) => Ok(data),
        Produced::Right(right) => exec_attach(
            env,
            step,
            x,
            left.take().expect("left consumed once"),
            right,
        ),
    }
}

/// The match-time half of every row join loop: emit `l` joined with each
/// candidate unit row, in candidate order. For an outer step a pair must
/// also pass what is left of the ON clause, and an `l` that nothing joined
/// comes out once, NULL-padded.
fn emit_matches<C: IntoIterator<Item = Value>>(
    outer: Option<&plan::Outer>,
    l: &Row,
    cands: impl Iterator<Item = C>,
    out: &mut Vec<Row>,
) -> Result<()> {
    let before = out.len();
    'cands: for cand in cands {
        let mut combined = l.clone();
        combined.extend(cand);
        for p in outer.iter().flat_map(|o| &o.on) {
            if !p.eval_bool(&combined)? {
                continue 'cands;
            }
        }
        out.push(combined);
    }
    if let (Some(o), true) = (outer, out.len() == before) {
        let mut padded = l.clone();
        padded.resize(l.len() + o.width, Value::Null);
        out.push(padded);
    }
    Ok(())
}

/// Combine the accumulated rows with a step's produced unit rows.
fn exec_attach(
    env: &Env<'_>,
    step: &Step,
    x: &mut StepExec,
    left: Data,
    rrows: Vec<Row>,
) -> Result<Data> {
    let outer = step.outer.as_ref();
    match &step.attach {
        Attach::Hash { lkey, rkey } => {
            let dop = env.db.dop_for(rrows.len().max(left.len()));
            x.join_rows = Some(rrows.len());
            x.join_dop = Some(dop);
            let lrows = left.into_rows();
            if dop <= 1 {
                // Serial build in row order, probe in row order.
                let mut table = JoinTable::new();
                for (i, r) in rrows.iter().enumerate() {
                    let k = rkey.eval(r)?;
                    if !k.is_null() {
                        table.push(hash_key(slice::from_ref(&k)), k, i);
                    }
                }
                let mut out = Vec::new();
                for l in lrows {
                    let k = lkey.eval(&l)?;
                    let cands = table.matches(hash_key(slice::from_ref(&k)), &k);
                    let cands = cands.map(|i| rrows[i].iter().cloned());
                    emit_matches(outer, &l, cands, &mut out)?;
                }
                Ok(Data::Rows(out))
            } else {
                Ok(Data::Rows(parallel_hash_join(
                    dop, &lrows, &rrows, lkey, rkey, outer,
                )?))
            }
        }
        Attach::Cross => {
            if left.is_identity() {
                // Leading unit: crossing the identity row is a passthrough.
                return Ok(Data::Rows(rrows));
            }
            let lrows = left.into_rows();
            let dop = env.db.dop_for(lrows.len());
            x.join_rows = Some(rrows.len());
            x.join_dop = Some(dop);
            let left_ref = &lrows;
            let right_ref = &rrows;
            let chunks = crate::parallel::ordered_map(
                dop,
                lrows.len(),
                crate::parallel::MORSEL_ROWS,
                |range| -> Result<Vec<Row>> {
                    let mut out = Vec::with_capacity(range.len() * right_ref.len());
                    for l in &left_ref[range] {
                        let cands = right_ref.iter().map(|r| r.iter().cloned());
                        emit_matches(outer, l, cands, &mut out)?;
                    }
                    Ok(out)
                },
            );
            let mut out = Vec::new();
            for chunk in chunks {
                out.extend(chunk?);
            }
            Ok(Data::Rows(out))
        }
        Attach::Probe | Attach::Flatten => {
            unreachable!("probe/flatten attaches combine inside exec_step")
        }
    }
}

/// Apply one compiled predicate to intermediate data. Rows filter through
/// the morsel-parallel row filter; a factor filters its leaves list-wise
/// when it can.
fn filter_data(env: &Env<'_>, data: Data, p: &Expr) -> Result<Data> {
    match data {
        Data::Rows(rows) => Ok(Data::Rows(filter_rows_par(env, rows, p)?)),
        Data::Factor(mut f) => {
            // A predicate that only reads the last level's columns filters
            // leaf elements list-wise (each leaf is exactly one flattened
            // row, so dropping an element drops exactly that row); anything
            // touching earlier columns falls back to flattening.
            // Survivors are copied into fresh columns: compacting the old
            // ones in place (`retain`) measured 15 % slower on dq15, whose
            // unpivot level keeps one leaf in six.
            let start = f.last_level_start();
            let width = f.levels.last().map_or(0, |l| l.cols.len());
            let mut alive: Vec<bool> = Vec::with_capacity(f.leaf_count());
            let mut cols: Vec<Vec<Value>> = (0..width).map(|_| Vec::new()).collect();
            let listwise = f.try_each_leaf([p], |leaf| {
                let pass = p.eval_bool(leaf)?;
                if pass {
                    for (col, v) in cols.iter_mut().zip(&leaf[start..]) {
                        col.push(v.clone());
                    }
                }
                alive.push(pass);
                Ok(())
            })?;
            if !listwise {
                return Ok(Data::Rows(filter_rows_par(env, f.flatten(), p)?));
            }
            let last = f.levels.last_mut().expect("factor levels never empty");
            let mut kept = 0usize;
            last.offsets = std::iter::once(0)
                .chain(last.offsets.windows(2).map(|w| {
                    let of_parent = &alive[w[0] as usize..w[1] as usize];
                    kept += of_parent.iter().filter(|a| **a).count();
                    kept as u32
                }))
                .collect();
            last.cols = cols;
            last.len = kept;
            Ok(Data::Factor(f))
        }
    }
}

/// Built-in lateral table functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TableFunc {
    /// `JSON_EDGES(doc [, label])`: unnest a JSON adjacency document
    /// `{"label": [{"eid": e, "val": v}, ...]}` into `(lbl, eid, val)` rows.
    JsonEdges,
    /// `JSON_EACH(doc)`: unnest a JSON object into `(key, value)` rows.
    JsonEach,
    /// `UNNEST(array)`: one row per array element, column `(val)`.
    Unnest,
}

impl TableFunc {
    pub(crate) fn parse(name: &str) -> Result<TableFunc> {
        match name.to_ascii_uppercase().as_str() {
            "JSON_EDGES" => Ok(TableFunc::JsonEdges),
            "JSON_EACH" => Ok(TableFunc::JsonEach),
            "UNNEST" => Ok(TableFunc::Unnest),
            other => Err(Error::NotFound(format!("table function '{other}'"))),
        }
    }

    fn invoke(&self, args: &[Value]) -> Result<Vec<Row>> {
        match self {
            TableFunc::JsonEdges => {
                // Accepts a parsed JSON value or serialized text. The text
                // form decodes per call — the document-store cost model the
                // adjacency micro-benchmark measures.
                let parsed;
                let doc = match args.first() {
                    Some(Value::Json(j)) => &**j,
                    Some(Value::Str(s)) => {
                        parsed = sqlgraph_json::parse(s)
                            .map_err(|e| Error::Type(format!("JSON_EDGES: {e}")))?;
                        &parsed
                    }
                    Some(Value::Null) | None => return Ok(Vec::new()),
                    Some(other) => {
                        return Err(Error::Type(format!(
                            "JSON_EDGES expects a JSON document, got {}",
                            other.type_name()
                        )))
                    }
                };
                let label_filter = match args.get(1) {
                    None | Some(Value::Null) => None,
                    Some(Value::Str(s)) => Some(s.as_ref()),
                    Some(other) => {
                        return Err(Error::Type(format!(
                            "JSON_EDGES label must be TEXT, got {}",
                            other.type_name()
                        )))
                    }
                };
                let Some(obj) = doc.as_object() else {
                    return Ok(Vec::new());
                };
                let mut out = Vec::new();
                for (label, edges) in obj.iter() {
                    if label_filter.is_some_and(|want| want != label) {
                        continue;
                    }
                    let Some(arr) = edges.as_array() else {
                        continue;
                    };
                    for entry in arr {
                        let eid = entry
                            .get("eid")
                            .map(crate::expr::json_to_value)
                            .unwrap_or(Value::Null);
                        let val = entry
                            .get("val")
                            .map(crate::expr::json_to_value)
                            .unwrap_or(Value::Null);
                        out.push(vec![Value::str(label), eid, val]);
                    }
                }
                Ok(out)
            }
            TableFunc::JsonEach => {
                let doc = match args.first() {
                    Some(Value::Json(j)) => j,
                    Some(Value::Null) | None => return Ok(Vec::new()),
                    Some(other) => {
                        return Err(Error::Type(format!(
                            "JSON_EACH expects a JSON document, got {}",
                            other.type_name()
                        )))
                    }
                };
                let Some(obj) = doc.as_object() else {
                    return Ok(Vec::new());
                };
                Ok(obj
                    .iter()
                    .map(|(k, v)| vec![Value::str(k), crate::expr::json_to_value(v)])
                    .collect())
            }
            TableFunc::Unnest => match args.first() {
                Some(Value::Array(items)) => Ok(items.iter().map(|v| vec![v.clone()]).collect()),
                Some(Value::Null) | None => Ok(Vec::new()),
                Some(other) => Err(Error::Type(format!(
                    "UNNEST expects an array, got {}",
                    other.type_name()
                ))),
            },
        }
    }

    pub(crate) fn arity(&self) -> usize {
        match self {
            TableFunc::JsonEdges => 3,
            TableFunc::JsonEach => 2,
            TableFunc::Unnest => 1,
        }
    }
}

/// A hash join's build side: its distinct non-NULL keys in a one-column
/// [`GroupTable`] and, per key, the chain of build rows that carry it, in
/// build order.
struct JoinTable {
    keys: GroupTable,
    /// Per key group: its first and last entry.
    ends: Vec<(u32, u32)>,
    /// Per entry: its build row, and the next entry of its key (`NONE` at
    /// the end of the chain).
    entries: Vec<(u32, u32)>,
}

impl JoinTable {
    fn new() -> JoinTable {
        JoinTable {
            keys: GroupTable::new(1),
            ends: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Append build row `row`, whose non-NULL key `key` hashes to `hash`.
    fn push(&mut self, hash: u64, key: Value, row: usize) {
        let e = to_id(self.entries.len());
        self.entries.push((to_id(row), NONE));
        match self.keys.insert_hashed(hash, &mut [key]) {
            (_, true) => self.ends.push((e, e)),
            (g, false) => {
                let last = std::mem::replace(&mut self.ends[g].1, e);
                self.entries[last as usize].1 = e;
            }
        }
    }

    /// The build rows whose key equals `key` (which hashes to `hash`), in
    /// build order; none for NULL.
    fn matches(&self, hash: u64, key: &Value) -> impl Iterator<Item = usize> + '_ {
        let first = match key {
            Value::Null => None,
            _ => self.keys.find_hashed(hash, slice::from_ref(key)),
        };
        let next = |&e: &u32| Some(self.entries[e as usize].1).filter(|&n| n != NONE);
        std::iter::successors(first.map(|g| self.ends[g].0), next)
            .map(|e| self.entries[e as usize].0 as usize)
    }
}

/// Partitioned parallel hash join.
///
/// Build pass 1 splits the build side into morsels; each worker hashes its
/// morsel's keys into `dop` partition buckets. Pass 2 gives each worker
/// whole partitions; it assembles that partition's [`JoinTable`] by
/// scanning the morsel buckets **in morsel order**, so every key's chain
/// holds build-row indexes in exactly the order the serial build would
/// produce. The probe pass then splits the probe side into morsels and
/// concatenates outputs in morsel order — making the join's output
/// byte-identical to the serial nested loop at any DOP.
fn parallel_hash_join(
    dop: usize,
    probe_rows: &[Row],
    build_rows: &[Row],
    lkey: &Expr,
    rkey: &Expr,
    outer: Option<&plan::Outer>,
) -> Result<Vec<Row>> {
    let parts = dop;
    type Bucket = Vec<(u64, Value, usize)>;

    // Pass 1: per-morsel, per-partition (hash, key, build row) buckets.
    let morsel_buckets = crate::parallel::ordered_map(
        dop,
        build_rows.len(),
        crate::parallel::MORSEL_ROWS,
        |range| -> Result<Vec<Bucket>> {
            let mut buckets: Vec<Bucket> = vec![Vec::new(); parts];
            for i in range {
                let k = rkey.eval(&build_rows[i])?;
                if !k.is_null() {
                    let h = hash_key(slice::from_ref(&k));
                    buckets[h as usize % parts].push((h, k, i));
                }
            }
            Ok(buckets)
        },
    );
    let mut checked: Vec<Vec<Bucket>> = Vec::with_capacity(morsel_buckets.len());
    for b in morsel_buckets {
        checked.push(b?);
    }

    // Pass 2: one table per partition, filled in morsel order.
    let checked_ref = &checked;
    let tables: Vec<JoinTable> = crate::parallel::ordered_map(dop, parts, 1, |range| {
        let p = range.start;
        let mut table = JoinTable::new();
        for morsel in checked_ref {
            for (h, k, i) in &morsel[p] {
                table.push(*h, k.clone(), *i);
            }
        }
        table
    });

    // Probe pass: morsels over the probe side, outputs in morsel order.
    let tables_ref = &tables;
    let chunks = crate::parallel::ordered_map(
        dop,
        probe_rows.len(),
        crate::parallel::MORSEL_ROWS,
        |range| -> Result<Vec<Row>> {
            let mut out = Vec::new();
            for l in &probe_rows[range] {
                let k = lkey.eval(l)?;
                let h = hash_key(slice::from_ref(&k));
                let cands = tables_ref[h as usize % parts].matches(h, &k);
                let cands = cands.map(|i| build_rows[i].iter().cloned());
                emit_matches(outer, l, cands, &mut out)?;
            }
            Ok(out)
        },
    );
    let mut out = Vec::new();
    for chunk in chunks {
        out.extend(chunk?);
    }
    Ok(out)
}

pub(crate) fn filter_rows(rows: Vec<Row>, predicate: &Expr) -> Result<Vec<Row>> {
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        if predicate.eval_bool(&row)? {
            out.push(row);
        }
    }
    Ok(out)
}

/// Morsel-parallel filter. Predicate evaluation fans out over morsels;
/// surviving rows are then moved (not cloned) into the output in row
/// order, so the result matches [`filter_rows`] exactly.
fn filter_rows_par(env: &Env<'_>, rows: Vec<Row>, predicate: &Expr) -> Result<Vec<Row>> {
    let dop = env.db.dop_for(rows.len());
    if dop <= 1 {
        return filter_rows(rows, predicate);
    }
    let rows_ref = &rows;
    let kept = crate::parallel::ordered_map(
        dop,
        rows.len(),
        crate::parallel::MORSEL_ROWS,
        |range| -> Result<Vec<u32>> {
            let mut keep = Vec::new();
            for i in range {
                if predicate.eval_bool(&rows_ref[i])? {
                    keep.push(i as u32);
                }
            }
            Ok(keep)
        },
    );
    let mut keep_all = Vec::new();
    for chunk in kept {
        keep_all.extend(chunk?);
    }
    let mut out = Vec::with_capacity(keep_all.len());
    let mut rows = rows;
    for i in keep_all {
        out.push(std::mem::take(&mut rows[i as usize]));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Expression compilation
// ---------------------------------------------------------------------------

/// Compile an expression with no columns in scope (INSERT VALUES rows,
/// LIMIT/OFFSET), bound to `env`'s values.
pub fn compile_scalar(env: &Env<'_>, e: &ast::Expr) -> Result<Expr> {
    compile_bound(env, &Scope::default(), e)
}

/// Compile an expression against a single table's columns (UPDATE/DELETE
/// predicates and assignments), bound to `env`'s values. The table is
/// addressable by its own name.
pub fn compile_table_expr(
    env: &Env<'_>,
    schema: &crate::schema::TableSchema,
    e: &ast::Expr,
) -> Result<Expr> {
    let mut scope = Scope::default();
    scope.push(
        &schema.name,
        schema.columns.iter().map(|c| c.name.clone()).collect(),
    );
    compile_bound(env, &scope, e)
}

/// Compile `e` for immediate use: its IN subqueries run now (once each)
/// and every bind slot is filled.
fn compile_bound(env: &Env<'_>, scope: &Scope, e: &ast::Expr) -> Result<Expr> {
    let compiled = compile_expr(scope, e)?;
    let mut queries = Vec::new();
    prepared::expr_subqueries(e, &mut queries);
    let binds = Binds {
        params: env.params,
        sets: subquery_sets(env, queries.into_iter().map(|q| (q, None)))?,
    };
    compiled.bind(&binds)
}

/// Compile a name-based expression against `scope`. Parameters become bind
/// slots ([`Expr::Param`]), and so does an IN subquery's result set
/// ([`Expr::InSubquery`], keyed by [`prepared::subquery_id`]): compiling
/// reads no execution's values and runs nothing.
pub(crate) fn compile_expr(scope: &Scope, e: &ast::Expr) -> Result<Expr> {
    Ok(match e {
        ast::Expr::Literal(v) => Expr::Const(v.clone()),
        ast::Expr::Param(i) => Expr::Param(*i),
        ast::Expr::Column { table, name } => Expr::Col(scope.resolve(table.as_deref(), name)?),
        ast::Expr::Unary(op, x) => Expr::Unary(*op, Box::new(compile_expr(scope, x)?)),
        ast::Expr::Binary(op, l, r) => Expr::Binary(
            *op,
            Box::new(compile_expr(scope, l)?),
            Box::new(compile_expr(scope, r)?),
        ),
        ast::Expr::IsNull(x, negated) => Expr::IsNull(Box::new(compile_expr(scope, x)?), *negated),
        ast::Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(compile_expr(scope, expr)?),
            pattern: Box::new(compile_expr(scope, pattern)?),
            negated: *negated,
        },
        ast::Expr::InList {
            expr,
            list,
            negated,
        } => {
            let scrutinee = Box::new(compile_expr(scope, expr)?);
            let compiled: Vec<Expr> = list
                .iter()
                .map(|i| compile_expr(scope, i))
                .collect::<Result<_>>()?;
            if compiled.iter().all(|c| matches!(c, Expr::Const(_))) {
                let values = compiled.into_iter().map(|c| match c {
                    Expr::Const(v) => v,
                    _ => unreachable!("checked constant"),
                });
                Expr::InSet {
                    expr: scrutinee,
                    set: in_set(values),
                    negated: *negated,
                }
            } else if compiled
                .iter()
                .all(|c| matches!(c, Expr::Const(_) | Expr::Param(_)))
            {
                Expr::InParams {
                    expr: scrutinee,
                    list: compiled,
                    negated: *negated,
                }
            } else {
                // Non-constant list: desugar to an OR chain.
                let mut acc: Option<Expr> = None;
                for c in compiled {
                    let eq = Expr::Binary(BinaryOp::Eq, scrutinee.clone(), Box::new(c));
                    acc = Some(match acc {
                        None => eq,
                        Some(prev) => Expr::Binary(BinaryOp::Or, Box::new(prev), Box::new(eq)),
                    });
                }
                let inner = acc.unwrap_or(Expr::Const(Value::Bool(false)));
                if *negated {
                    Expr::Unary(crate::expr::UnaryOp::Not, Box::new(inner))
                } else {
                    inner
                }
            }
        }
        ast::Expr::InSubquery {
            expr,
            query,
            negated,
        } => Expr::InSubquery {
            expr: Box::new(compile_expr(scope, expr)?),
            query: prepared::subquery_id(query),
            negated: *negated,
        },
        ast::Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let x = compile_expr(scope, expr)?;
            let lo = compile_expr(scope, lo)?;
            let hi = compile_expr(scope, hi)?;
            let ge = Expr::Binary(BinaryOp::Ge, Box::new(x.clone()), Box::new(lo));
            let le = Expr::Binary(BinaryOp::Le, Box::new(x), Box::new(hi));
            let and = Expr::Binary(BinaryOp::And, Box::new(ge), Box::new(le));
            if *negated {
                Expr::Unary(crate::expr::UnaryOp::Not, Box::new(and))
            } else {
                and
            }
        }
        ast::Expr::Call {
            name,
            args,
            distinct,
        } => {
            if *distinct {
                return Err(Error::Invalid(format!(
                    "DISTINCT is only valid in aggregate calls, not {name}"
                )));
            }
            if AggFn::parse(name).is_some() {
                return Err(Error::Invalid(format!(
                    "aggregate {name} is not allowed here"
                )));
            }
            let func = expr::Func::parse(name)
                .ok_or_else(|| Error::NotFound(format!("function '{name}'")))?;
            let compiled: Vec<Expr> = args
                .iter()
                .map(|a| compile_expr(scope, a))
                .collect::<Result<_>>()?;
            Expr::Call(func, compiled)
        }
        ast::Expr::CountStar => return Err(Error::Invalid("COUNT(*) is not allowed here".into())),
        ast::Expr::Cast(x, ty) => Expr::Cast(Box::new(compile_expr(scope, x)?), *ty),
        ast::Expr::Subscript(x, i) => Expr::Subscript(
            Box::new(compile_expr(scope, x)?),
            Box::new(compile_expr(scope, i)?),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn group_table_numbers_keys_in_first_appearance_order() {
        let mut t = GroupTable::new(1);
        let got: Vec<(usize, bool)> = [5, 3, 5, 9, 3]
            .iter()
            .map(|&k| t.insert(&key(&[k])))
            .collect();
        assert_eq!(
            got,
            [(0, true), (1, true), (0, false), (2, true), (1, false)]
        );
        assert_eq!(t.len(), 3);
        assert_eq!(t.find(&key(&[9])), Some(2));
        assert_eq!(t.find(&key(&[4])), None);
    }

    #[test]
    fn group_table_keys_follow_value_equality() {
        let mut t = GroupTable::new(1);
        assert_eq!(t.insert(&[Value::Int(3)]), (0, true));
        assert_eq!(t.insert(&[Value::Double(3.0)]), (0, false));
        assert_eq!(t.insert(&[Value::Double(3.5)]), (1, true));
        assert_eq!(t.insert(&[Value::str("3")]), (2, true));
        // NULL is a key like any other.
        assert_eq!(t.insert(&[Value::Null]), (3, true));
        assert_eq!(t.insert(&[Value::Null]), (3, false));
        assert_eq!(t.find(&[Value::Null]), Some(3));
        assert_eq!(t.find(&[Value::Double(3.0)]), Some(0));
    }

    #[test]
    fn group_table_multi_column_keys() {
        let mut t = GroupTable::new(2);
        assert_eq!(t.insert(&key(&[1, 2])), (0, true));
        assert_eq!(t.insert(&key(&[2, 1])), (1, true));
        assert_eq!(t.insert(&key(&[1, 2])), (0, false));
        assert_eq!(t.insert(&[Value::Null, Value::Int(1)]), (2, true));
        assert_eq!(t.insert(&[Value::Int(1), Value::Null]), (3, true));
        assert_eq!(t.insert(&[Value::Null, Value::Int(1)]), (2, false));
        assert_eq!(t.find(&key(&[1, 1])), None);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn group_table_without_key_columns_has_one_group_and_no_map() {
        let mut t = GroupTable::new(0);
        assert_eq!(t.find(&[]), None);
        assert_eq!(t.insert(&[]), (0, true));
        assert_eq!(t.insert_hashed(0, &mut []), (0, false));
        assert_eq!(t.find(&[]), Some(0));
        assert_eq!(t.len(), 1);
        assert_eq!(t.newest.capacity(), 0);
        assert!(t.keys.is_empty() && t.hashes.is_empty() && t.older.is_empty());
    }

    #[test]
    fn group_table_chains_distinct_keys_on_one_hash() {
        let mut t = GroupTable::new(1);
        for (k, g) in [(1, 0), (2, 1), (3, 2)] {
            assert_eq!(t.insert_hashed(7, &mut key(&[k])), (g, true));
        }
        assert_eq!(t.insert_hashed(7, &mut key(&[1])), (0, false));
        assert_eq!(t.insert_hashed(7, &mut key(&[2])), (1, false));
        assert_eq!(t.find_hashed(7, &key(&[3])), Some(2));
        assert_eq!(t.find_hashed(7, &key(&[4])), None);
        assert_eq!(t.newest.len(), 1, "one hash, one map entry");
        // A new key's values are moved in.
        let mut k = [Value::str("x")];
        assert_eq!(t.insert_hashed(8, &mut k), (3, true));
        assert!(k[0].is_null());
        assert_eq!(t.find_hashed(8, &[Value::str("x")]), Some(3));
    }

    #[test]
    fn group_table_absorb_keeps_first_appearance_order() {
        let mut a = GroupTable::new(1);
        let mut b = GroupTable::new(1);
        for k in [4, 2] {
            a.insert(&key(&[k]));
        }
        for k in [2, 7, 4, 8] {
            b.insert(&key(&[k]));
        }
        let mut seen = Vec::new();
        a.absorb(b, |g, new| seen.push((g, new)));
        assert_eq!(seen, [(1, false), (2, true), (0, false), (3, true)]);
        let order: Vec<Option<usize>> = [4, 2, 7, 8].iter().map(|&k| a.find(&key(&[k]))).collect();
        assert_eq!(order, [Some(0), Some(1), Some(2), Some(3)]);
    }
}
