//! Physical plan IR: the planning half of the former monolithic executor.
//!
//! [`plan_from`] turns a FROM list + WHERE clause into a [`FromPlan`] — an
//! explicit, fully-decided physical operator tree. Every decision the old
//! interleaved executor made mid-flight lives here now: join order (the
//! cost-based [`plan_join_order`]), access-path selection per table
//! ([`Access`]: index probe, point, range, or full scan), predicate
//! pushdown (scan-local filters), hash-key extraction ([`Attach::Hash`]),
//! and projection pruning ([`Needs`]). The executor (`exec::exec_from`)
//! consumes the IR without making any planning choices of its own, and
//! EXPLAIN renders the same tree that runs. Explicit JOIN chains — inner and
//! LEFT OUTER — flatten into the same units as comma items
//! ([`flatten_joins`]), so this one pipeline plans every FROM clause; no join
//! runs before planning ends.
//!
//! A plan is a function of the statement, not of one execution: `?`s compile
//! to bind slots ([`Expr::Param`]), an IN subquery to a slot its result fills
//! ([`Expr::InSubquery`]), and CTEs and derived tables are referenced
//! ([`RelInput`]) rather than copied in — their pushed filters run at
//! execution. The executor runs a plan in place, cached or fresh: each
//! execution reads its bind values where a step uses them ([`Binds`]),
//! once per step and never by copying the plan. What planning did read
//! that can change while the statement does not is recorded ([`Guard`],
//! [`OrderModel`]) so a cached plan can be checked against it.
//!
//! The planning pass mirrors the retired in-line planner *decision for
//! decision* — the same conjunct-retirement order, the same compile-attempt
//! semantics (a conjunct that fails to compile against the current scope is
//! simply retried after the next unit extends the scope), the same
//! inclusive-range + residual-filter treatment of B-tree bounds — so planned
//! results are byte-identical to the seed engine's.

use crate::csr::Unpivot;
use crate::error::{Error, Result};
use crate::exec::{compile_expr, Env, Relation, Scope, TableFunc};
use crate::expr::{bound_all, BinaryOp, Binds, Expr};
use crate::hasher::{FxHashMap, FxHashSet};
use crate::index::KeyPart;
use crate::sql::ast;
use crate::stats::{ndv_with_default, TableStats};
use crate::storage::Table;
use crate::value::Value;
use std::borrow::Cow;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// The physical plan IR
// ---------------------------------------------------------------------------

/// A fully-planned FROM pipeline: an ordered list of attach steps and
/// residual filters that run after the last attach.
pub(crate) struct FromPlan {
    /// Attach steps in execution order (post join-reorder).
    pub(crate) steps: Vec<Step>,
    /// Conjuncts that resolve only against the full scope, compiled, in
    /// original conjunct order.
    pub(crate) residual: Vec<Expr>,
}

/// One unit attachment: produce the unit's rows ([`StepKind`]) and combine
/// them with the rows accumulated so far ([`Attach`]).
pub(crate) struct Step {
    /// Display label (the unit's alias).
    pub(crate) label: String,
    /// Planner's estimated cumulative cardinality after this step.
    pub(crate) est: Option<f64>,
    pub(crate) kind: StepKind,
    pub(crate) attach: Attach,
    /// `Some` when the unit is the right operand of a LEFT OUTER JOIN.
    pub(crate) outer: Option<Outer>,
    /// Ready conjuncts applied to the combined rows right after the attach
    /// (combined layout), in conjunct order.
    pub(crate) after: Vec<Expr>,
}

/// The null-supplying half of a LEFT OUTER JOIN step. The join key ([`Access`]
/// probe parts or [`Attach::Hash`] keys) and the filters pushed into the
/// unit's scan come from the join's ON clause alone; whatever is left of it
/// is `on`. An accumulated row that no unit row joins with comes out once,
/// padded with `width` NULLs — so a WHERE conjunct that reads this unit can
/// only ever run after the step, never inside it.
#[derive(Clone)]
pub(crate) struct Outer {
    /// ON conjuncts that are neither the join key nor pushed into the scan,
    /// checked per candidate pair (combined layout), in ON order.
    pub(crate) on: Vec<Expr>,
    /// Column count of the unit's rows.
    pub(crate) width: usize,
}

/// Cardinalities and DOPs observed while executing a [`Step`]. One per step
/// per execution, beside the plan: a plan is never written while it runs.
#[derive(Debug, Default)]
pub(crate) struct StepExec {
    /// Combined rows after the attach and `after` filters.
    pub(crate) actual: Option<usize>,
    /// Rows seen by the scan (live table rows for full scans, matched rows
    /// for range scans, rows after pushdown for relations).
    pub(crate) scan_rows: Option<usize>,
    /// Morsel DOP used by a full scan.
    pub(crate) scan_dop: Option<usize>,
    /// Per-pushed-filter (rows before, rows after). Full scans fuse all
    /// locals into one entry.
    pub(crate) local_counts: Vec<(usize, usize)>,
    /// Hash-join build rows, or cross-join right-side rows.
    pub(crate) join_rows: Option<usize>,
    /// DOP used by the hash/cross join.
    pub(crate) join_dop: Option<usize>,
    /// Distinct probe groups in the CSR entry a csr scan went through.
    pub(crate) csr_groups: Option<usize>,
    /// Whether a csr step emitted factorized lists (`true`) or had to
    /// flatten into rows (`false`). `None` for non-csr steps.
    pub(crate) list_out: Option<bool>,
    /// Wall time of the step and its `after` filters (EXPLAIN only).
    pub(crate) elapsed: Option<std::time::Duration>,
}

/// How a step produces its unit rows.
pub(crate) enum StepKind {
    /// Base-table scan (pruned to `keep` columns) with a chosen access path
    /// and fused local filters (unit layout).
    Scan {
        /// Lower-cased table name.
        table: String,
        keep: Vec<usize>,
        access: Access,
        locals: Vec<Expr>,
    },
    /// A materialized relation — a CTE's, or a derived table's (a subquery
    /// is a statement of its own, run to completion before this one plans).
    /// The `pushed` filters (unit layout) run as its rows are copied out.
    Rel { input: RelInput, pushed: Vec<Expr> },
    /// Lateral `TABLE (VALUES ...)`: value expressions compiled against the
    /// *prior* scope, evaluated once per accumulated row. A tuple is kept
    /// only if each of `filter` (slot-free, over the tuple alone) passes.
    LateralValues {
        rows: Vec<Vec<Expr>>,
        arity: usize,
        filter: Vec<Expr>,
    },
    /// Lateral table function call.
    LateralFunc {
        func: TableFunc,
        args: Vec<Expr>,
        arity: usize,
    },
}

/// Where a [`StepKind::Rel`] step's rows come from.
pub(crate) enum RelInput {
    /// The CTE of this (lower-cased) name in the executing environment.
    Cte(String),
    /// The `n`-th derived table of the FROM list, in FROM order (run per
    /// execution, before the plan is fetched or built).
    Derived(usize),
}

/// Access path of a base-table scan. Key expressions that come before the
/// scan — a probe part that is a constant, a point key, a range bound — are
/// constants or bind slots.
pub(crate) enum Access {
    /// Index nested-loop join: per accumulated row, evaluate `parts`
    /// (combined layout) into a key and probe `index`. Consumes the left
    /// side inside the scan.
    Probe { index: String, parts: Vec<Expr> },
    /// Compressed adjacency probe: like `Probe`, but through a cached CSR
    /// entry ([`crate::csr::CsrEntry`]) built lazily from the index — an
    /// O(1) group lookup plus a dense range copy per accumulated row, with
    /// the expansion kept as offset-delimited lists (factorized) until an
    /// operator needs row semantics. Byte-identical to `Probe`.
    Csr {
        index: String,
        /// The single probe-key expression (combined layout).
        part: Expr,
        /// A lateral VALUES over the row, fused into the entry: the step's
        /// unit row is its kept columns, then the unpivot's.
        unpivot: Option<Unpivot>,
    },
    /// Constant-key index lookup.
    Point { index: String, key: Vec<Expr> },
    /// Single-part B-tree range scan (inclusive bounds; exact predicates
    /// remain in `locals`).
    Range {
        index: String,
        lo: Option<Expr>,
        hi: Option<Expr>,
    },
    /// Full (morsel-parallel) scan.
    Full,
}

/// How the unit rows combine with the accumulated rows. The same three join
/// strategies serve comma units, inner JOIN operands and — with
/// [`Step::outer`] set — LEFT OUTER JOIN operands.
pub(crate) enum Attach {
    /// Handled inside the scan ([`Access::Probe`]).
    Probe,
    /// Hash equi-join; `rkey` is already re-based onto the unit layout.
    Hash { lkey: Expr, rkey: Expr },
    /// Cartesian product.
    Cross,
    /// Lateral flatten (one unit row set per accumulated row).
    Flatten,
}

impl Outer {
    /// This half with its ON residue's bind slots filled from `b`, borrowed
    /// when the residue has none.
    pub(crate) fn bound(&self, b: &Binds<'_>) -> Result<Cow<'_, Outer>> {
        Ok(match bound_all(&self.on, b)? {
            Cow::Borrowed(_) => Cow::Borrowed(self),
            Cow::Owned(on) => Cow::Owned(Outer {
                on,
                width: self.width,
            }),
        })
    }
}

// ---------------------------------------------------------------------------
// What a plan read
// ---------------------------------------------------------------------------

/// Minimum live rows before the planner routes a probe through the CSR
/// adjacency cache: below this the O(table) lazy build cannot beat plain
/// index nested-loop probes even with perfect reuse.
const CSR_MIN_ROWS: usize = 256;

/// What planning reads of one base table's *data*, as a number that moves
/// when it does: the table's [`Table::stats_epoch`], and which side of the
/// CSR size rule ([`csr_eligible`]) its live count is on. (Its catalog is
/// covered by the plan epoch directly; its cardinalities by the join-order
/// check.) A change moves the database's plan epoch.
pub(crate) fn table_epoch(t: &Table) -> u64 {
    t.stats_epoch() << 1 | u64::from(t.len() >= CSR_MIN_ROWS)
}

/// A fact about one bind value that a planning decision depended on.
pub(crate) enum Guard {
    /// Parameter `i` was (not) NULL: a NULL bound is no range bound.
    Null(usize, bool),
    /// Parameter `i` had this value: it named a JSON member, and the member
    /// picks the functional index.
    Value(usize, Option<Value>),
}

impl Guard {
    /// Whether `params` satisfy the fact.
    pub(crate) fn holds(&self, params: &[Value]) -> bool {
        match self {
            Guard::Null(i, null) => params.get(*i).is_some_and(Value::is_null) == *null,
            Guard::Value(i, v) => params.get(*i) == v.as_ref(),
        }
    }
}

/// Whether parameter `i` is NULL, recorded in `guards`.
fn param_is_null(env: &Env<'_>, guards: &mut Vec<Guard>, i: usize) -> bool {
    let null = env.params.get(i).is_some_and(Value::is_null);
    guards.push(Guard::Null(i, null));
    null
}

/// Parameter `i`'s value, recorded in `guards`.
fn param_value<'e>(env: &Env<'e>, guards: &mut Vec<Guard>, i: usize) -> Option<&'e Value> {
    let v = env.params.get(i);
    guards.push(Guard::Value(i, v.cloned()));
    v
}

// ---------------------------------------------------------------------------
// Projection pruning
// ---------------------------------------------------------------------------

/// Projection-pruning analysis of a SELECT core: which columns of each
/// FROM alias the statement can reference, and how often.
///
/// An unqualified name counts as a reference to the column of that name of
/// every FROM alias that has one: a superset of what resolution will pick,
/// so pruning to it is always safe.
#[derive(Debug, Default)]
pub(crate) struct Needs {
    /// Qualified references per (lower-cased) alias and column.
    per_alias: FxHashMap<String, FxHashMap<String, usize>>,
    /// Unqualified references per (lower-cased) name.
    bare: FxHashMap<String, usize>,
    /// Aliases that need every column (`t.*`).
    all_for: FxHashSet<String>,
    /// A bare `*` appeared: every alias needs every column.
    disable: bool,
}

impl Needs {
    /// Every column of every alias: no pruning.
    pub(crate) fn all() -> Needs {
        Needs {
            disable: true,
            ..Needs::default()
        }
    }

    /// How many references `alias.column` may receive.
    fn refs(&self, alias: &str, column: &str) -> usize {
        let qualified = self.per_alias.get(alias).and_then(|m| m.get(column));
        qualified.copied().unwrap_or(0) + self.bare.get(column).copied().unwrap_or(0)
    }

    /// Whether `alias`'s columns may be pruned: no `*` or `alias.*` reads
    /// them all.
    fn prunes(&self, alias: &str) -> bool {
        !self.disable && !self.all_for.contains(alias)
    }

    /// Pruned column list for `alias` given the table's full column list,
    /// or `None` when pruning is not applicable.
    fn pruned(&self, alias: &str, columns: &[String]) -> Option<Vec<usize>> {
        if !self.prunes(alias) {
            return None;
        }
        Some(
            columns
                .iter()
                .enumerate()
                .filter(|(_, c)| self.refs(alias, c) > 0)
                .map(|(i, _)| i)
                .collect(),
        )
    }
}

/// Gather the pruning analysis for a SELECT core.
pub(crate) fn collect_needs(core: &ast::SelectCore, order_by: &[(ast::Expr, bool)]) -> Needs {
    let mut needs = Needs::default();
    for p in &core.projections {
        match p {
            ast::Projection::Wildcard => needs.disable = true,
            ast::Projection::TableWildcard(t) => {
                needs.all_for.insert(t.to_ascii_lowercase());
            }
            ast::Projection::Expr { expr, .. } => collect_expr_needs(expr, &mut needs),
        }
    }
    if let Some(f) = &core.filter {
        collect_expr_needs(f, &mut needs);
    }
    for e in &core.group_by {
        collect_expr_needs(e, &mut needs);
    }
    if let Some(h) = &core.having {
        collect_expr_needs(h, &mut needs);
    }
    for (e, _) in order_by {
        collect_expr_needs(e, &mut needs);
    }
    for item in &core.from {
        collect_from_needs(item, &mut needs);
    }
    needs
}

fn collect_from_needs(item: &ast::FromItem, needs: &mut Needs) {
    match item {
        ast::FromItem::LateralValues { rows, .. } => {
            for row in rows {
                for e in row {
                    collect_expr_needs(e, needs);
                }
            }
        }
        ast::FromItem::LateralFunc { args, .. } => {
            for e in args {
                collect_expr_needs(e, needs);
            }
        }
        ast::FromItem::Join {
            left, right, on, ..
        } => {
            collect_from_needs(left, needs);
            collect_from_needs(right, needs);
            collect_expr_needs(on, needs);
        }
        ast::FromItem::Table { .. } | ast::FromItem::Subquery { .. } => {}
    }
}

fn collect_expr_needs(e: &ast::Expr, needs: &mut Needs) {
    match e {
        ast::Expr::Column { table, name } => {
            let refs = match table {
                Some(t) => needs.per_alias.entry(t.to_ascii_lowercase()).or_default(),
                None => &mut needs.bare,
            };
            *refs.entry(name.to_ascii_lowercase()).or_default() += 1;
        }
        ast::Expr::Literal(_) | ast::Expr::Param(_) | ast::Expr::CountStar => {}
        ast::Expr::Unary(_, x) | ast::Expr::IsNull(x, _) | ast::Expr::Cast(x, _) => {
            collect_expr_needs(x, needs)
        }
        ast::Expr::Binary(_, l, r) | ast::Expr::Subscript(l, r) => {
            collect_expr_needs(l, needs);
            collect_expr_needs(r, needs);
        }
        ast::Expr::Like { expr, pattern, .. } => {
            collect_expr_needs(expr, needs);
            collect_expr_needs(pattern, needs);
        }
        ast::Expr::InList { expr, list, .. } => {
            collect_expr_needs(expr, needs);
            for i in list {
                collect_expr_needs(i, needs);
            }
        }
        ast::Expr::InSubquery { expr, .. } => collect_expr_needs(expr, needs),
        ast::Expr::Between { expr, lo, hi, .. } => {
            collect_expr_needs(expr, needs);
            collect_expr_needs(lo, needs);
            collect_expr_needs(hi, needs);
        }
        ast::Expr::Call { args, .. } => {
            for a in args {
                collect_expr_needs(a, needs);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// FROM units
// ---------------------------------------------------------------------------

/// A FROM unit before access-path planning.
struct Unit<'q> {
    alias: String,
    src: Source<'q>,
    /// The ON conjuncts when this unit is the right operand of a LEFT OUTER
    /// JOIN. They alone may key the join or be pushed into the unit's scan.
    outer_on: Option<Vec<&'q ast::Expr>>,
}

/// Where a unit's rows come from.
enum Source<'q> {
    /// Base table or CTE reference (lower-cased name).
    Named(String),
    /// The `n`-th derived table of the FROM list, materialized before
    /// planning.
    Derived(usize),
    /// Lateral VALUES rows (expressions compiled later, against the
    /// accumulated scope).
    Lateral {
        rows: &'q [Vec<ast::Expr>],
        columns: Vec<String>,
    },
    /// Lateral table function (args compiled against the accumulated scope).
    LateralFn {
        func: TableFunc,
        args: &'q [ast::Expr],
        columns: Vec<String>,
    },
}

/// Flatten a FROM item — the grammar makes it a left-deep chain
/// `unit (JOIN unit ON ...)*` — into units in textual order, so every join
/// is planned like a comma unit. An inner join's ON conjuncts go to
/// `conjuncts`: they are equivalent to WHERE conjuncts, and the optimizer
/// may use them for any unit. A LEFT OUTER JOIN's stay with its right
/// operand ([`Unit::outer_on`]). Derived tables are numbered in the order
/// met, the order [`crate::prepared::core_derived`] lists them in.
fn flatten_joins<'q>(
    item: &'q ast::FromItem,
    units: &mut Vec<Unit<'q>>,
    conjuncts: &mut Vec<&'q ast::Expr>,
) -> Result<()> {
    let lower = |columns: &[String]| columns.iter().map(|c| c.to_ascii_lowercase()).collect();
    let (alias, src) = match item {
        ast::FromItem::Join {
            left,
            right,
            kind,
            on,
        } => {
            // Left-deep only: the chain on the left, one table or subquery
            // on the right.
            let unit = |i: &ast::FromItem| {
                matches!(
                    i,
                    ast::FromItem::Table { .. } | ast::FromItem::Subquery { .. }
                )
            };
            if !unit(right) || !(unit(left) || matches!(**left, ast::FromItem::Join { .. })) {
                return Err(Error::Invalid(
                    "a JOIN operand must be a table or a subquery; \
                     use TABLE(...) items as comma FROM items"
                        .into(),
                ));
            }
            flatten_joins(left, units, conjuncts)?;
            flatten_joins(right, units, conjuncts)?;
            match kind {
                ast::JoinKind::Inner => collect_conjuncts(on, conjuncts),
                ast::JoinKind::LeftOuter => {
                    let mut own = Vec::new();
                    collect_conjuncts(on, &mut own);
                    units.last_mut().expect("right operand pushed").outer_on = Some(own);
                }
            }
            return Ok(());
        }
        ast::FromItem::Table { name, alias } => (
            alias.clone().unwrap_or_else(|| name.clone()),
            Source::Named(name.to_ascii_lowercase()),
        ),
        ast::FromItem::Subquery { alias, .. } => {
            let n = units
                .iter()
                .filter(|u| matches!(u.src, Source::Derived(_)))
                .count();
            (alias.clone(), Source::Derived(n))
        }
        ast::FromItem::LateralValues {
            rows,
            alias,
            columns,
        } => (
            alias.clone(),
            Source::Lateral {
                rows,
                columns: lower(columns),
            },
        ),
        ast::FromItem::LateralFunc {
            func,
            args,
            alias,
            columns,
        } => (
            alias.clone(),
            Source::LateralFn {
                func: TableFunc::parse(func)?,
                args,
                columns: lower(columns),
            },
        ),
    };
    units.push(Unit {
        alias,
        src,
        outer_on: None,
    });
    Ok(())
}

/// Split an AST expression into top-level AND conjuncts.
fn collect_conjuncts<'q>(e: &'q ast::Expr, out: &mut Vec<&'q ast::Expr>) {
    if let ast::Expr::Binary(BinaryOp::And, l, r) = e {
        collect_conjuncts(l, out);
        collect_conjuncts(r, out);
    } else {
        out.push(e);
    }
}

/// Visit the top-level AND conjuncts of a compiled expression.
fn visit_conjuncts(e: &Expr, f: &mut impl FnMut(&Expr)) {
    if let Expr::Binary(BinaryOp::And, l, r) = e {
        visit_conjuncts(l, f);
        visit_conjuncts(r, f);
    } else {
        f(e);
    }
}

/// A value known before any row is read: a literal or a bind slot.
fn is_constant(e: &Expr) -> bool {
    matches!(e, Expr::Const(_) | Expr::Param(_))
}

/// If `on` includes a conjunct `expr_l = expr_r` where `expr_l` touches only
/// columns `< lwidth` and `expr_r` only columns `>= lwidth` (or vice versa),
/// return `(left_key, right_key)`.
fn find_equi_split(on: &Expr, lwidth: usize) -> Option<(Expr, Expr)> {
    let mut found = None;
    visit_conjuncts(on, &mut |c| {
        if found.is_some() {
            return;
        }
        if let Expr::Binary(BinaryOp::Eq, a, b) = c {
            let side = |e: &Expr| -> Option<bool> {
                // Some(true) = pure left, Some(false) = pure right.
                let mut all_left = true;
                let mut all_right = true;
                let mut any = false;
                e.visit_columns(&mut |i| {
                    any = true;
                    if i < lwidth {
                        all_right = false;
                    } else {
                        all_left = false;
                    }
                });
                if !any {
                    return None;
                }
                if all_left {
                    Some(true)
                } else if all_right {
                    Some(false)
                } else {
                    None
                }
            };
            match (side(a), side(b)) {
                (Some(true), Some(false)) => found = Some(((**a).clone(), (**b).clone())),
                (Some(false), Some(true)) => found = Some(((**b).clone(), (**a).clone())),
                _ => {}
            }
        }
    });
    found
}

// ---------------------------------------------------------------------------
// Cost-based join ordering
// ---------------------------------------------------------------------------

/// Cross joins are strongly discouraged: attaching an unconnected unit costs
/// its full Cartesian product, deferred until a join key becomes available.
const CROSS_JOIN_PENALTY: f64 = 10.0;
/// Mild preference for attaching base tables whose join key is indexed —
/// they probe per row instead of materializing a hash build side.
const INDEX_JOIN_BONUS: f64 = 0.8;

/// One step of the planned attachment order.
struct PlannedUnit {
    /// Index into the unit list.
    idx: usize,
    /// Estimated cumulative row count after this unit attaches and its
    /// filters apply (`None` when the planner did not estimate it).
    est: Option<f64>,
}

/// The inputs of the greedy join order over a FROM list's movable prefix,
/// resolved against the catalog once — which key part each estimate reads
/// the ndv of, which join keys are indexed — so that deriving the order
/// again reads only counts: live rows, CTE and derived-table sizes,
/// distinct keys. A cached plan keeps its model and the order it gave.
pub(crate) struct OrderModel {
    /// The movable prefix of the unit list, in textual order.
    units: Vec<UnitModel>,
    edges: Vec<EdgeModel>,
}

/// One unit of an [`OrderModel`].
struct UnitModel {
    rows: RowSource,
    /// Key expressions the estimates read, resolved to this unit's key
    /// parts (`None` when not a plain or `JSON_VAL` column of a table).
    keys: Vec<Option<KeyPart>>,
    /// Per key: it is the whole key of a single-part index.
    indexed: Vec<bool>,
    /// The unit's single-unit conjuncts, in conjunct order.
    sels: Vec<Sel>,
}

/// Where a unit's cardinality comes from.
enum RowSource {
    /// A base table (lower-cased name): its live count.
    Table(String),
    /// A CTE of the environment: its row count.
    Cte(String),
    /// The `n`-th derived table: its row count.
    Derived(usize),
}

/// The selectivity estimate of one single-unit conjunct.
enum Sel {
    /// `key = constant`: 1 / ndv of key number `n`.
    Eq(usize),
    /// Any other predicate: the classic 0.3.
    Guess,
}

/// An equi-join conjunct linking two units: `keys[a_key]` of unit `a` and
/// `keys[b_key]` of unit `b`.
struct EdgeModel {
    a: usize,
    b: usize,
    a_key: usize,
    b_key: usize,
}

/// The counts an [`OrderModel`] reads for one unit, as of now.
struct UnitFacts {
    /// Unfiltered cardinality.
    rows: f64,
    /// Cardinality after single-unit constant predicates.
    est: f64,
    /// Per key, its ndv estimate; `None` without statistics (anything but
    /// an existing base table) — the estimates fall back to a tenth of the
    /// rows then.
    ndv: Option<Vec<Option<usize>>>,
}

impl UnitFacts {
    /// Distinct-value estimate of key `n`. Falls back to the System-R
    /// tenth-of-the-rows default when no statistic applies.
    fn side_ndv(&self, n: usize) -> f64 {
        match self.ndv.as_ref().and_then(|ndv| ndv[n]) {
            Some(ndv) => ndv as f64,
            None => (self.rows / 10.0).max(1.0),
        }
    }
}

/// Collect the set of alias qualifiers in `e` into `out`. Returns `false`
/// when the expression is not analyzable (unqualified columns, subqueries).
fn expr_aliases(e: &ast::Expr, out: &mut FxHashSet<String>) -> bool {
    match e {
        ast::Expr::Column { table: Some(t), .. } => {
            out.insert(t.to_ascii_lowercase());
            true
        }
        ast::Expr::Column { table: None, .. } => false,
        ast::Expr::Literal(_) | ast::Expr::Param(_) | ast::Expr::CountStar => true,
        ast::Expr::Unary(_, x) | ast::Expr::IsNull(x, _) | ast::Expr::Cast(x, _) => {
            expr_aliases(x, out)
        }
        ast::Expr::Binary(_, l, r) | ast::Expr::Subscript(l, r) => {
            expr_aliases(l, out) && expr_aliases(r, out)
        }
        ast::Expr::Like { expr, pattern, .. } => {
            expr_aliases(expr, out) && expr_aliases(pattern, out)
        }
        ast::Expr::InList { expr, list, .. } => {
            expr_aliases(expr, out) && list.iter().all(|i| expr_aliases(i, out))
        }
        ast::Expr::InSubquery { .. } => false,
        ast::Expr::Between { expr, lo, hi, .. } => {
            expr_aliases(expr, out) && expr_aliases(lo, out) && expr_aliases(hi, out)
        }
        ast::Expr::Call { args, .. } => args.iter().all(|a| expr_aliases(a, out)),
    }
}

/// The single alias `e` reads, if it reads exactly one.
fn single_alias(e: &ast::Expr) -> Option<String> {
    let mut aliases = FxHashSet::default();
    if !expr_aliases(e, &mut aliases) || aliases.len() != 1 {
        return None;
    }
    aliases.into_iter().next()
}

/// A constant operand from the planner's point of view (parameters bind
/// to constants).
fn is_const_operand(e: &ast::Expr) -> bool {
    matches!(e, ast::Expr::Literal(_) | ast::Expr::Param(_))
}

/// Resolve an AST expression to an index key part of `schema`'s table: a
/// qualified bare column or `JSON_VAL(col, 'member')` over one.
fn ast_key_part(schema: &crate::schema::TableSchema, e: &ast::Expr) -> Option<KeyPart> {
    match e {
        ast::Expr::Column {
            table: Some(_),
            name,
        } => schema.column_index(name).map(KeyPart::Column),
        ast::Expr::Call { name, args, .. } if name.eq_ignore_ascii_case("JSON_VAL") => {
            match (args.first(), args.get(1)) {
                (
                    Some(ast::Expr::Column {
                        table: Some(_),
                        name: col,
                    }),
                    Some(ast::Expr::Literal(Value::Str(member))),
                ) => schema
                    .column_index(col)
                    .map(|c| KeyPart::JsonKey(c, member.to_string())),
                _ => None,
            }
        }
        _ => None,
    }
}

impl OrderModel {
    /// Resolve the model of `units` (the movable prefix) against the
    /// catalog; never executes a unit (base tables are inspected under a
    /// briefly-held read lock, one at a time).
    fn new<'q>(env: &Env<'_>, units: &[Unit<'q>], pending: &[Option<&'q ast::Expr>]) -> OrderModel {
        let aliases: Vec<String> = units.iter().map(|u| u.alias.to_ascii_lowercase()).collect();
        // Key expressions per unit, resolved below.
        let mut keys: Vec<Vec<&'q ast::Expr>> = vec![Vec::new(); units.len()];
        let mut key = |unit: usize, e: &'q ast::Expr| {
            keys[unit].push(e);
            keys[unit].len() - 1
        };
        let mut sels: Vec<Vec<Sel>> = (0..units.len()).map(|_| Vec::new()).collect();
        for (unit, alias) in aliases.iter().enumerate() {
            for c in pending.iter().flatten().copied() {
                if single_alias(c).as_ref() != Some(alias) {
                    continue;
                }
                sels[unit].push(match c {
                    ast::Expr::Binary(BinaryOp::Eq, a, b) if is_const_operand(b) => {
                        Sel::Eq(key(unit, a))
                    }
                    ast::Expr::Binary(BinaryOp::Eq, a, b) if is_const_operand(a) => {
                        Sel::Eq(key(unit, b))
                    }
                    _ => Sel::Guess,
                });
            }
        }
        let owner_of = |alias: &str| aliases.iter().position(|a| a == alias);
        let mut edges = Vec::new();
        for c in pending.iter().flatten().copied() {
            let ast::Expr::Binary(BinaryOp::Eq, l, r) = c else {
                continue;
            };
            let (Some(la), Some(ra)) = (single_alias(l), single_alias(r)) else {
                continue;
            };
            let (Some(a), Some(b)) = (owner_of(&la), owner_of(&ra)) else {
                continue;
            };
            if a != b {
                let (a_key, b_key) = (key(a, l), key(b, r));
                edges.push(EdgeModel { a, b, a_key, b_key });
            }
        }
        let units = units
            .iter()
            .zip(keys)
            .zip(sels)
            .map(|((unit, exprs), sels)| {
                let rows = match &unit.src {
                    Source::Named(name) if env.ctes.contains_key(name) => {
                        RowSource::Cte(name.clone())
                    }
                    Source::Named(name) => RowSource::Table(name.clone()),
                    Source::Derived(n) => RowSource::Derived(*n),
                    Source::Lateral { .. } | Source::LateralFn { .. } => {
                        unreachable!("laterals end the movable prefix")
                    }
                };
                let resolve = |t: &Table| {
                    Ok(exprs
                        .iter()
                        .map(|e| {
                            let part = ast_key_part(&t.schema, e);
                            let indexed = part.as_ref().is_some_and(|p| {
                                t.indexes()
                                    .iter()
                                    .any(|i| i.parts.len() == 1 && i.parts[0] == *p)
                            });
                            (part, indexed)
                        })
                        .unzip())
                };
                let resolved = match &rows {
                    RowSource::Table(name) => env.db.read_table(name, resolve).ok(),
                    _ => None,
                };
                let (keys, indexed) =
                    resolved.unwrap_or_else(|| (vec![None; exprs.len()], vec![false; exprs.len()]));
                UnitModel {
                    rows,
                    keys,
                    indexed,
                    sels,
                }
            })
            .collect();
        OrderModel { units, edges }
    }

    /// The counts the estimates read, as of now. Nothing is cloned: a base
    /// table's ndv per key comes from its fresh analyzed stats, or else from
    /// its single-part indexes (what [`TableStats::seed`] would report).
    fn facts(&self, env: &Env<'_>, derived: &[Arc<Relation>]) -> Vec<UnitFacts> {
        self.units
            .iter()
            .map(|unit| {
                let (rows, ndv) = match &unit.rows {
                    RowSource::Cte(name) => (env.ctes.get(name).map_or(0, |r| r.rows.len()), None),
                    RowSource::Derived(n) => (derived[*n].rows.len(), None),
                    RowSource::Table(name) => env
                        .db
                        .read_table(name, |t| {
                            let live = t.len();
                            let stats = t.stats().filter(|s| !s.is_stale(live));
                            let ndv = unit
                                .keys
                                .iter()
                                .map(|part| {
                                    let part = part.as_ref()?;
                                    let known = match stats {
                                        Some(s) => s.ndv_for_part(part),
                                        None => TableStats::seeded_ndv(t, part),
                                    };
                                    Some(ndv_with_default(known, live))
                                })
                                .collect();
                            Ok((live, Some(ndv)))
                        })
                        // Missing table: the attach step will surface the
                        // error; give the planner a neutral placeholder.
                        .unwrap_or((1, None)),
                };
                let mut facts = UnitFacts {
                    rows: rows as f64,
                    est: 0.0,
                    ndv,
                };
                // Single-unit constant predicates: `key = const` uses 1/ndv,
                // any other recognized predicate the classic 0.3 guess.
                let mut sel = 1.0;
                for s in &unit.sels {
                    sel *= match s {
                        Sel::Eq(n) => 1.0 / facts.side_ndv(*n),
                        Sel::Guess => 0.3,
                    };
                }
                facts.est = facts.rows * sel;
                facts
            })
            .collect()
    }

    /// Greedy smallest-first order over the model's units. Starts from the
    /// unit with the smallest filtered estimate, then repeatedly attaches
    /// the unit minimizing the estimated intermediate result — penalizing
    /// cross joins, mildly preferring index-probe attachments.
    fn order(&self, env: &Env<'_>, derived: &[Arc<Relation>]) -> Vec<PlannedUnit> {
        let facts = self.facts(env, derived);
        let prefix = facts.len();
        // (a, b, selectivity, a's key indexed, b's key indexed)
        let edges: Vec<(usize, usize, f64, bool, bool)> = self
            .edges
            .iter()
            .map(|e| {
                let ndv = facts[e.a]
                    .side_ndv(e.a_key)
                    .max(facts[e.b].side_ndv(e.b_key));
                let indexed = |u: usize, k: usize| self.units[u].indexed[k];
                (
                    e.a,
                    e.b,
                    1.0 / ndv,
                    indexed(e.a, e.a_key),
                    indexed(e.b, e.b_key),
                )
            })
            .collect();

        let mut order: Vec<PlannedUnit> = Vec::with_capacity(prefix);
        let mut used = vec![false; prefix];
        let first = (0..prefix)
            .min_by(|&i, &j| facts[i].est.total_cmp(&facts[j].est))
            .expect("prefix >= 2");
        used[first] = true;
        let mut cur = facts[first].est;
        order.push(PlannedUnit {
            idx: first,
            est: Some(cur),
        });

        while order.len() < prefix {
            let mut best: Option<(usize, f64, f64)> = None; // (unit, cost, result rows)
            for j in 0..prefix {
                if used[j] {
                    continue;
                }
                let mut sel = 1.0;
                let mut connected = false;
                let mut probes_index = false;
                for &(a, b, edge_sel, a_indexed, b_indexed) in &edges {
                    let (other, j_side_indexed) = if a == j {
                        (b, a_indexed)
                    } else if b == j {
                        (a, b_indexed)
                    } else {
                        continue;
                    };
                    if !used[other] {
                        continue;
                    }
                    connected = true;
                    sel *= edge_sel;
                    probes_index |= j_side_indexed;
                }
                let result = cur * facts[j].est * sel;
                let mut cost = result;
                if !connected {
                    cost *= CROSS_JOIN_PENALTY;
                } else if probes_index && facts[j].ndv.is_some() {
                    cost *= INDEX_JOIN_BONUS;
                }
                if best.as_ref().is_none_or(|(_, bc, _)| cost < *bc) {
                    best = Some((j, cost, result));
                }
            }
            let (j, _, result) = best.expect("unused unit remains");
            used[j] = true;
            cur = result;
            order.push(PlannedUnit {
                idx: j,
                est: Some(cur),
            });
        }
        order
    }

    /// The order the current counts give, as unit indexes — what a cached
    /// plan compares with the order it was built in.
    pub(crate) fn current(&self, env: &Env<'_>, derived: &[Arc<Relation>]) -> Vec<usize> {
        self.order(env, derived).iter().map(|p| p.idx).collect()
    }
}

/// Pick the attachment order: the greedy order ([`OrderModel::order`]) over
/// the maximal leading run of movable units; units at or after the first
/// lateral or outer unit keep their textual positions. Returns the model
/// too when there was an order to choose.
fn plan_join_order(
    env: &Env<'_>,
    units: &[Unit<'_>],
    pending: &[Option<&ast::Expr>],
    derived: &[Arc<Relation>],
) -> (Vec<PlannedUnit>, Option<OrderModel>) {
    // A lateral unit reads earlier units' columns, and an outer join does
    // not commute with what precedes it: neither moves, nor does anything
    // after it.
    let prefix = units
        .iter()
        .position(|u| {
            u.outer_on.is_some()
                || matches!(u.src, Source::Lateral { .. } | Source::LateralFn { .. })
        })
        .unwrap_or(units.len());
    let textual = |range: std::ops::Range<usize>| range.map(|idx| PlannedUnit { idx, est: None });
    if prefix < 2 {
        return (textual(0..units.len()).collect(), None);
    }
    let model = OrderModel::new(env, &units[..prefix], pending);
    let mut order = model.order(env, derived);
    // The immovable suffix attaches in textual order.
    order.extend(textual(prefix..units.len()));
    (order, Some(model))
}

// ---------------------------------------------------------------------------
// The planning pass
// ---------------------------------------------------------------------------

/// A planned FROM list.
pub(crate) struct Planned {
    pub(crate) from: FromPlan,
    /// Final scope, entries in textual order (offsets point at the physical
    /// row layout, which follows execution order): what the SELECT list and
    /// the rest of the core compile against.
    pub(crate) scope: Scope,
    /// When units were ordered by cost: the model and the order it gave
    /// (unit indexes of the movable prefix).
    pub(crate) order: Option<(OrderModel, Vec<usize>)>,
}

/// Plan a FROM list + WHERE clause. Performs every planning decision (join
/// order, access paths, pushdown, hash keys) and compiles every predicate;
/// the executor only follows the plan. `derived` are the FROM list's
/// derived tables, already run (planning reads their sizes); each bind
/// value a decision looks at is recorded in `guards`.
pub(crate) fn plan_from(
    env: &Env<'_>,
    from: &[ast::FromItem],
    filter: Option<&ast::Expr>,
    needs: &Needs,
    derived: &[Arc<Relation>],
    guards: &mut Vec<Guard>,
) -> Result<Planned> {
    // Table-less SELECT: no steps; the WHERE (if any) gates the identity row.
    if from.is_empty() {
        let scope = Scope::default();
        let residual = match filter {
            Some(f) => vec![compile_expr(&scope, f)?],
            None => Vec::new(),
        };
        return Ok(Planned {
            from: FromPlan {
                steps: Vec::new(),
                residual,
            },
            scope,
            order: None,
        });
    }

    // Phase 1: turn FROM items into units; JOIN chains flatten into theirs,
    // so the optimizer plans (and, for inner joins, reorders) across
    // explicit JOIN syntax too.
    let mut units: Vec<Unit<'_>> = Vec::with_capacity(from.len());
    let mut conjuncts: Vec<&ast::Expr> = Vec::new();
    for item in from {
        flatten_joins(item, &mut units, &mut conjuncts)?;
    }

    // Phase 2: split WHERE into conjuncts (kept as AST; compiled when their
    // tables are all bound). Inner-join ON conjuncts come first so equi keys
    // are found before residual predicates.
    if let Some(f) = filter {
        collect_conjuncts(f, &mut conjuncts);
    }
    let mut pending: Vec<Option<&ast::Expr>> = conjuncts.into_iter().map(Some).collect();

    // Phase 3: pick an attachment order.
    let (planned, model) = plan_join_order(env, &units, &pending, derived);
    if planned.iter().enumerate().any(|(pos, p)| pos != p.idx) {
        env.note(|| {
            let names: Vec<&str> = planned
                .iter()
                .map(|p| units[p.idx].alias.as_str())
                .collect();
            format!("join order: {} (reordered)", names.join(", "))
        });
    }
    let order = model.map(|m| {
        let prefix = planned.iter().take(m.units.len()).map(|p| p.idx).collect();
        (m, prefix)
    });

    // Phase 4: plan each attach step in execution order.
    let mut scope = Scope::default();
    let mut slots: Vec<Option<Unit<'_>>> = units.into_iter().map(Some).collect();
    let mut steps: Vec<Step> = Vec::with_capacity(slots.len());

    for p in &planned {
        let Unit {
            alias,
            src,
            outer_on,
        } = slots[p.idx].take().expect("each unit plans exactly once");
        let before_width = scope.width;
        // An outer unit picks its key and pushed filters from its own ON
        // conjuncts only; every other unit from everything still pending.
        let mut own: Option<Vec<Option<&ast::Expr>>> =
            outer_on.map(|on| on.into_iter().map(Some).collect());
        let is_outer = own.is_some();
        let usable: &mut [Option<&ast::Expr>] = match &mut own {
            Some(on) => on,
            None => &mut pending,
        };
        let lateral = match &src {
            Source::Lateral { rows, .. } => Some(*rows),
            _ => None,
        };
        let (kind, attach) = match src {
            Source::Lateral {
                rows: value_rows,
                columns,
            } => {
                // Compile row expressions against a scope extended with the
                // lateral's own columns *excluded* — they may only reference
                // earlier units.
                let arity = columns.len();
                let mut compiled_rows = Vec::with_capacity(value_rows.len());
                for vr in value_rows {
                    let mut cr = Vec::with_capacity(vr.len());
                    for e in vr {
                        cr.push(compile_expr(&scope, e)?);
                    }
                    compiled_rows.push(cr);
                }
                scope.push(&alias, columns);
                (
                    StepKind::LateralValues {
                        rows: compiled_rows,
                        arity,
                        filter: Vec::new(),
                    },
                    Attach::Flatten,
                )
            }
            Source::LateralFn {
                func,
                args,
                columns,
            } => {
                if columns.len() != func.arity() {
                    return Err(Error::Invalid(format!(
                        "{func:?} produces {} columns, alias declares {}",
                        func.arity(),
                        columns.len()
                    )));
                }
                let compiled: Vec<Expr> = args
                    .iter()
                    .map(|e| compile_expr(&scope, e))
                    .collect::<Result<_>>()?;
                let arity = columns.len();
                scope.push(&alias, columns);
                (
                    StepKind::LateralFunc {
                        func,
                        args: compiled,
                        arity,
                    },
                    Attach::Flatten,
                )
            }
            Source::Derived(n) => {
                let columns = derived[n].columns.clone();
                plan_rel_step(&mut scope, RelInput::Derived(n), columns, &alias, usable)
            }
            Source::Named(name) => match env.ctes.get(&name) {
                Some(cte) => {
                    let columns = cte.columns.clone();
                    plan_rel_step(&mut scope, RelInput::Cte(name), columns, &alias, usable)
                }
                None => env.db.read_table(&name, |table| {
                    plan_base_table(
                        env, table, &mut scope, &name, &alias, usable, needs, is_outer, guards,
                    )
                })?,
            },
        };
        // What the unit did not use of its ON clause is checked per
        // candidate pair; a conjunct that does not resolve here never will.
        let outer = match own {
            Some(unused) => Some(Outer {
                on: unused
                    .into_iter()
                    .flatten()
                    .map(|c| compile_expr(&scope, c))
                    .collect::<Result<_>>()?,
                width: scope.width - before_width,
            }),
            None => None,
        };

        // Ready conjuncts: everything now fully resolvable applies to the
        // combined rows right after this attach, in conjunct order.
        let mut after = Vec::new();
        let mut after_ast = Vec::new();
        for slot in pending.iter_mut() {
            let Some(c) = slot else { continue };
            if let Ok(compiled) = compile_expr(&scope, c) {
                let mut max_col = 0;
                let mut any = false;
                compiled.visit_columns(&mut |i| {
                    any = true;
                    max_col = max_col.max(i);
                });
                if !any || max_col < scope.width {
                    after.push(compiled);
                    after_ast.push(*c);
                    *slot = None;
                }
            }
            // Compile failures reference columns not yet in scope; retry
            // after the next unit extends it.
        }
        steps.push(Step {
            label: alias,
            est: p.est,
            kind,
            attach,
            outer,
            after,
        });
        if let Some(rows) = lateral {
            finish_lateral(needs, &mut scope, &mut steps, &after_ast, rows);
        }
    }

    // Each step pushed one scope entry. Restore the entries to textual order
    // so `SELECT *` column order is unaffected by the planner; offsets keep
    // pointing at the physical row layout, which is what name resolution
    // uses.
    let mut entries: Vec<(usize, crate::exec::ScopeEntry)> = planned
        .iter()
        .map(|p| p.idx)
        .zip(std::mem::take(&mut scope.entries))
        .collect();
    entries.sort_by_key(|(idx, _)| *idx);
    scope.entries = entries.into_iter().map(|(_, e)| e).collect();

    // Any conjunct still unresolved references unknown columns — surface the
    // resolution error.
    let mut residual = Vec::new();
    for c in pending.into_iter().flatten() {
        residual.push(compile_expr(&scope, c)?);
    }
    Ok(Planned {
        from: FromPlan { steps, residual },
        scope,
        order,
    })
}

/// Whether evaluating `e` can never raise an error: a column tested against
/// a constant — `IS [NOT] NULL`, a comparison, `IN` a set.
fn infallible(e: &Expr) -> bool {
    use BinaryOp::*;
    let (col, con) = (
        |e: &Expr| matches!(e, Expr::Col(_)),
        |e: &Expr| matches!(e, Expr::Const(_)),
    );
    match e {
        Expr::IsNull(x, _) | Expr::InSet { expr: x, .. } => col(x),
        Expr::Binary(Eq | Ne | Lt | Le | Gt | Ge, l, r) => col(l) && con(r) || con(l) && col(r),
        _ => false,
    }
}

/// Finish the lateral VALUES step just pushed: the leading run of its
/// `after` conjuncts (`after_ast` their sources) that read only its own
/// columns and hold no bind slot moves into the step, so a tuple they reject
/// is never materialized. When its `value_rows` are plain columns of the
/// CSR step just before it, the two fuse into that CSR step, whose entry
/// unpivots ([`Unpivot`]) and folds in the leading infallible run of those
/// conjuncts; of both units the scope then keeps only what something
/// outside the unpivot reads, and the rest of `after` is re-based onto it.
fn finish_lateral(
    needs: &Needs,
    scope: &mut Scope,
    steps: &mut Vec<Step>,
    after_ast: &[&ast::Expr],
    value_rows: &[Vec<ast::Expr>],
) {
    let mut step = steps.pop().expect("the lateral step");
    let StepKind::LateralValues {
        rows,
        arity,
        filter,
    } = &mut step.kind
    else {
        unreachable!("a lateral VALUES step")
    };
    let start = scope.width - *arity;
    let own = step.after.iter().take_while(|c| {
        let mut first = usize::MAX;
        c.visit_columns(&mut |i| first = first.min(i));
        !c.has_slots() && (start..usize::MAX).contains(&first)
    });
    let own = own.count();
    let rebase = |mut e: Expr| {
        e.map_columns(&mut |c| c - start);
        e
    };
    let p_start = match steps.last() {
        Some(Step {
            kind:
                StepKind::Scan {
                    keep,
                    access: Access::Csr { unpivot: None, .. },
                    ..
                },
            outer: None,
            after,
            ..
        }) if after.is_empty() => start - keep.len(),
        _ => start,
    };
    let plain = |e: &Expr| matches!(e, Expr::Col(c) if (p_start..start).contains(c));
    if !rows.iter().flatten().all(plain) {
        *filter = step.after.drain(..own).map(rebase).collect();
        steps.push(step);
        return;
    }
    let fold = step.after[..own].iter().take_while(|c| infallible(c));
    let fold = fold.count();
    let p = steps.last_mut().expect("the CSR step");
    let StepKind::Scan {
        keep,
        access: Access::Csr { unpivot, .. },
        ..
    } = &mut p.kind
    else {
        unreachable!("a CSR step")
    };
    // A column stays only if something besides the unpivot (for `p`) or the
    // folded conjuncts (for the lateral) may read it.
    let (mut by_rows, mut by_folded) = (Needs::default(), Needs::default());
    let in_rows = value_rows.iter().flatten();
    in_rows.for_each(|e| collect_expr_needs(e, &mut by_rows));
    let folded = after_ast[..fold].iter();
    folded.for_each(|e| collect_expr_needs(e, &mut by_folded));
    let out = |alias: &str, names: &[String], used: &Needs| -> Vec<usize> {
        let alias = alias.to_ascii_lowercase();
        let read =
            |n: &String| !needs.prunes(&alias) || needs.refs(&alias, n) > used.refs(&alias, n);
        (0..names.len()).filter(|&i| read(&names[i])).collect()
    };
    let (t_names, p_names) = (scope.pop(), scope.pop());
    let p_out = out(&p.label, &p_names, &by_rows);
    let t_out = out(&step.label, &t_names, &by_folded);
    let at = |out: &[usize], c: usize| out.iter().position(|&i| i == c).expect("a read column");
    let mut relocate = |c: usize| match c {
        c if c < p_start => c,
        c if c < start => p_start + at(&p_out, c - p_start),
        c => p_start + p_out.len() + at(&t_out, c - start),
    };
    let folded: Vec<Expr> = step.after.drain(..fold).map(rebase).collect();
    p.after = step.after;
    p.after
        .iter_mut()
        .for_each(|c| c.map_columns(&mut relocate));
    p.est = step.est;
    let pick = |names: &[String], out: &[usize]| out.iter().map(|&i| names[i].clone()).collect();
    scope.push(&p.label, pick(&p_names, &p_out));
    scope.push(&step.label, pick(&t_names, &t_out));
    let col = |e: &Expr| match e {
        Expr::Col(c) => keep[c - p_start],
        _ => unreachable!("a plain column"),
    };
    let rows: Vec<Vec<usize>> = rows.iter().map(|r| r.iter().map(col).collect()).collect();
    let key = format!("{rows:?} {folded:?} {t_out:?}");
    *keep = p_out.iter().map(|&j| keep[j]).collect();
    *unpivot = Some(Unpivot {
        rows,
        filter: folded,
        keep: t_out,
        key,
    });
}

/// Plan the attachment of a materialized relation with `columns`: push its
/// alias, take the filters to push into it, pick the hash key.
fn plan_rel_step(
    scope: &mut Scope,
    input: RelInput,
    columns: Vec<String>,
    alias: &str,
    pending: &mut [Option<&ast::Expr>],
) -> (StepKind, Attach) {
    let before_width = scope.width;
    let arity = columns.len();
    scope.push(alias, columns);
    let pushed = take_locals(scope, before_width, arity, pending);
    let attach = pick_attach(scope, before_width, pending);
    (StepKind::Rel { input, pushed }, attach)
}

/// Take every pending conjunct local to the unit at `before_width` and
/// return it re-based onto the bare unit row, retiring the pending slot.
/// The executor evaluates these predicates inside the scan (fused
/// scan + filter) instead of materializing unfiltered rows first.
fn take_locals(
    scope: &Scope,
    before_width: usize,
    arity: usize,
    pending: &mut [Option<&ast::Expr>],
) -> Vec<Expr> {
    let mut out = Vec::new();
    for slot in pending.iter_mut() {
        let Some(c) = slot else { continue };
        let Ok(compiled) = compile_expr(scope, c) else {
            continue;
        };
        let mut any = false;
        let mut local = true;
        compiled.visit_columns(&mut |i| {
            any = true;
            if i < before_width || i >= before_width + arity {
                local = false;
            }
        });
        if !any || !local {
            continue;
        }
        let mut rebased = compiled;
        rebased.map_columns(&mut |i| i - before_width);
        out.push(rebased);
        *slot = None;
    }
    out
}

/// Pick the attach strategy for the unit just pushed at `before_width`:
/// hash join on the first usable pending equi conjunct, else cross product.
fn pick_attach(scope: &Scope, before_width: usize, pending: &mut [Option<&ast::Expr>]) -> Attach {
    for slot in pending.iter_mut() {
        let Some(c) = slot else { continue };
        let Ok(compiled) = compile_expr(scope, c) else {
            continue;
        };
        if let Some((lkey, rkey)) = find_equi_split(&compiled, before_width) {
            // Keys must not reference columns beyond the current width.
            let mut max_col = 0;
            lkey.visit_columns(&mut |i| max_col = max_col.max(i));
            rkey.visit_columns(&mut |i| max_col = max_col.max(i));
            if max_col < scope.width {
                *slot = None;
                // `find_equi_split` guarantees side purity: the build key
                // re-bases onto the bare unit row, the probe key evaluates
                // on the accumulated row directly.
                let mut rkey = rkey;
                rkey.map_columns(&mut |c| c - before_width);
                return Attach::Hash { lkey, rkey };
            }
        }
    }
    Attach::Cross
}

/// Whether a probe-side index nested-loop scan should go through the CSR
/// compressed-adjacency path instead: the scan must be adjacency-shaped —
/// a single probed key part over a non-unique hash index (unique indexes
/// are 1:1 point lookups that the probe path already serves optimally, and
/// B-trees also answer range scans the flat CSR layout cannot) — over a
/// table big enough to amortize the lazy build. An outer step pads per
/// accumulated row, which the list representation has no element for.
fn csr_eligible(
    env: &Env<'_>,
    table: &Table,
    idx: &crate::index::Index,
    single_probe: bool,
    outer: bool,
) -> bool {
    env.db.csr_enabled()
        && !outer
        && single_probe
        && !idx.unique
        && idx.kind() == crate::index::IndexKind::Hash
        && table.len() >= CSR_MIN_ROWS
}

/// Estimated average rows per probe group, for EXPLAIN: analyzed (fresh)
/// statistics when available, otherwise the index's exact distinct-key
/// count.
fn csr_est_fanout(table: &Table, idx: &crate::index::Index) -> f64 {
    let live = table.len();
    match table.stats().filter(|s| !s.is_stale(live)) {
        Some(s) => s.avg_fanout(&idx.parts[0], live),
        None => live as f64 / idx.distinct_keys().max(1) as f64,
    }
}

/// Plan a base-table attach over `table`, read under its lock: choose index
/// probe / point / range / full scan, scoop local filters, and pick the join
/// strategy — all from `pending`, the conjuncts this unit may use (for an
/// `outer` unit, its own ON clause).
#[allow(clippy::too_many_arguments)] // one unit's whole planning context
fn plan_base_table(
    env: &Env<'_>,
    table: &Table,
    scope: &mut Scope,
    name: &str,
    alias: &str,
    pending: &mut [Option<&ast::Expr>],
    needs: &Needs,
    outer: bool,
    guards: &mut Vec<Guard>,
) -> Result<(StepKind, Attach)> {
    let all_names: Vec<String> = table
        .schema
        .columns
        .iter()
        .map(|c| c.name.clone())
        .collect();
    // Projection pruning: materialize only the columns the statement can
    // reference. `keep` maps pruned position -> original position.
    let lower_alias = alias.to_ascii_lowercase();
    let pruned = needs.pruned(&lower_alias, &all_names);
    let prunable = pruned.is_some();
    let keep: Vec<usize> = pruned.unwrap_or_else(|| (0..all_names.len()).collect());
    let col_names: Vec<String> = keep.iter().map(|&i| all_names[i].clone()).collect();
    let before_width = scope.width;
    scope.push(alias, col_names);
    let arity = keep.len();

    // Gather, for this unit: constant equality pairs (key part -> constant
    // or bind slot) and probe equality pairs (key part -> left-side key
    // expression). A key part is a plain column or `JSON_VAL(json_col,
    // 'member')` — the latter matches functional indexes; a member that is
    // a bind slot is looked at (and guarded).
    let in_unit = |idx: usize| idx >= before_width && idx < before_width + arity;
    let as_key_part = |e: &Expr, guards: &mut Vec<Guard>| -> Option<KeyPart> {
        match e {
            // Map the pruned position back to the original column.
            Expr::Col(idx) if in_unit(*idx) => Some(KeyPart::Column(keep[*idx - before_width])),
            Expr::Call(crate::expr::Func::JsonVal, args) => match (args.first(), args.get(1)) {
                (Some(Expr::Col(idx)), Some(member)) if in_unit(*idx) => {
                    let member = match member {
                        Expr::Const(Value::Str(m)) => m.to_string(),
                        Expr::Param(i) => match param_value(env, guards, *i) {
                            Some(Value::Str(m)) => m.to_string(),
                            _ => return None,
                        },
                        _ => return None,
                    };
                    Some(KeyPart::JsonKey(keep[*idx - before_width], member))
                }
                _ => None,
            },
            _ => None,
        }
    };
    let mut const_eq: Vec<(KeyPart, Expr, usize)> = Vec::new();
    let mut probe_eq: Vec<(KeyPart, Expr, usize)> = Vec::new();
    for (i, slot) in pending.iter().enumerate() {
        let Some(c) = slot else { continue };
        let Ok(compiled) = compile_expr(scope, c) else {
            continue;
        };
        // Only consider plain equality conjuncts.
        let Expr::Binary(BinaryOp::Eq, a, b) = &compiled else {
            continue;
        };
        let is_bound = |e: &Expr| -> bool {
            let mut ok = true;
            e.visit_columns(&mut |i| {
                if i >= before_width {
                    ok = false;
                }
            });
            ok
        };
        let (part, other) = match (as_key_part(a, guards), as_key_part(b, guards)) {
            (Some(p), None) if is_bound(b) => (p, (**b).clone()),
            (None, Some(p)) if is_bound(a) => (p, (**a).clone()),
            _ => continue,
        };
        if is_constant(&other) {
            const_eq.push((part, other, i));
        } else {
            probe_eq.push((part, other, i));
        }
    }

    // Strategy 1: index nested loop. Find an index whose key parts are all
    // covered by probe/const pairs, preferring indexes that use a probe.
    // (index, key part expressions, conjuncts used, uses a probe)
    let mut best: Option<(&crate::index::Index, Vec<Expr>, Vec<usize>, bool)> = None;
    for idx in table.indexes() {
        let mut parts = Vec::with_capacity(idx.parts.len());
        let mut used = Vec::new();
        let mut ok = true;
        let mut uses_probe = false;
        for part in &idx.parts {
            if let Some((_, key_expr, pi)) = probe_eq.iter().find(|(pp, _, _)| pp == part) {
                parts.push(key_expr.clone());
                used.push(*pi);
                uses_probe = true;
            } else if let Some((_, v, pi)) = const_eq.iter().find(|(cp, _, _)| cp == part) {
                parts.push(v.clone());
                used.push(*pi);
            } else {
                ok = false;
                break;
            }
        }
        if !ok {
            continue;
        }
        let better = match &best {
            None => true,
            Some((bidx, _, _, b_probe)) => {
                // Prefer probe-using, then longer keys, then unique.
                (uses_probe && !b_probe)
                    || (uses_probe == *b_probe && idx.parts.len() > bidx.parts.len())
            }
        };
        if better {
            best = Some((idx, parts, used, uses_probe));
        }
    }

    if let Some((idx, mut parts, used, uses_probe)) = best {
        // A column read only by the equalities the index consumes is not
        // copied: the index lookup and its key re-check decide them.
        let mut consumed = Needs::default();
        for pi in &used {
            if let Some(c) = pending[*pi].take() {
                collect_expr_needs(c, &mut consumed);
            }
        }
        let keep: Vec<usize> = if prunable {
            keep.into_iter()
                .filter(|&c| {
                    let name = &all_names[c];
                    needs.refs(&lower_alias, name) > consumed.refs(&lower_alias, name)
                })
                .collect()
        } else {
            keep
        };
        let arity = keep.len();
        scope.pop();
        scope.push(alias, keep.iter().map(|&i| all_names[i].clone()).collect());
        if uses_probe {
            let single_probe = parts.len() == 1;
            let access = if csr_eligible(env, table, idx, single_probe, outer) {
                Access::Csr {
                    index: idx.name.clone(),
                    part: parts.pop().expect("one probe part"),
                    unpivot: None,
                }
            } else {
                Access::Probe {
                    index: idx.name.clone(),
                    parts,
                }
            };
            return Ok((
                StepKind::Scan {
                    table: name.to_string(),
                    keep,
                    access,
                    locals: Vec::new(),
                },
                Attach::Probe,
            ));
        }
        // Const-only index: point scan, then join the scanned rows.
        let index = idx.name.clone();
        let locals = take_locals(scope, before_width, arity, pending);
        let attach = pick_attach(scope, before_width, pending);
        return Ok((
            StepKind::Scan {
                table: name.to_string(),
                keep,
                access: Access::Point { index, key: parts },
                locals,
            },
            attach,
        ));
    }

    // Strategy 2: B-tree range scan for comparison predicates on an indexed
    // key part. Bounds are applied inclusively; the bounding conjuncts stay
    // pending — `take_locals` scoops them, so exclusive endpoints are
    // filtered exactly. Only a comparison on a part with a single-part
    // B-tree can bound one, so only its bind's NULL-ness is guarded.
    let btree = |part: &KeyPart| {
        table.indexes().iter().find(|i| {
            i.parts.len() == 1 && i.parts[0] == *part && i.kind() == crate::index::IndexKind::BTree
        })
    };
    let mut range_access: Option<Access> = None;
    {
        let mut lo: Option<(KeyPart, Expr)> = None;
        let mut hi: Option<(KeyPart, Expr)> = None;
        for slot in pending.iter() {
            let Some(c) = slot else { continue };
            let Ok(compiled) = compile_expr(scope, c) else {
                continue;
            };
            // BETWEEN desugars to `a AND b` inside one conjunct: split at
            // the compiled level too.
            visit_conjuncts(&compiled, &mut |leaf| {
                let Expr::Binary(
                    op @ (BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge),
                    a,
                    b,
                ) = leaf
                else {
                    return;
                };
                // Normalize to `part OP constant`.
                let (part, value, op) = match (as_key_part(a, guards), as_key_part(b, guards)) {
                    (Some(p), _) if is_constant(b) => (p, (**b).clone(), *op),
                    (_, Some(p)) if is_constant(a) => {
                        // Flip: constant OP part becomes part OP' constant.
                        let flipped = match *op {
                            BinaryOp::Lt => BinaryOp::Gt,
                            BinaryOp::Le => BinaryOp::Ge,
                            BinaryOp::Gt => BinaryOp::Lt,
                            BinaryOp::Ge => BinaryOp::Le,
                            other => other,
                        };
                        (p, (**a).clone(), flipped)
                    }
                    _ => return,
                };
                if btree(&part).is_none() {
                    return;
                }
                let null = match &value {
                    Expr::Param(i) => param_is_null(env, guards, *i),
                    Expr::Const(v) => v.is_null(),
                    _ => unreachable!("a constant operand"),
                };
                if null {
                    return;
                }
                match op {
                    BinaryOp::Gt | BinaryOp::Ge if lo.as_ref().is_none_or(|(p, _)| *p == part) => {
                        lo = Some((part, value));
                    }
                    BinaryOp::Lt | BinaryOp::Le if hi.as_ref().is_none_or(|(p, _)| *p == part) => {
                        hi = Some((part, value));
                    }
                    _ => {}
                }
            });
        }
        // Bounds must target one part.
        let part = match (&lo, &hi) {
            (Some((p1, _)), Some((p2, _))) if p1 == p2 => Some(p1.clone()),
            (Some((p, _)), None) | (None, Some((p, _))) => Some(p.clone()),
            _ => None,
        };
        if let Some(part) = part {
            if let Some(idx) = btree(&part) {
                let bound =
                    |b: Option<(KeyPart, Expr)>| b.filter(|(p, _)| *p == part).map(|(_, v)| v);
                range_access = Some(Access::Range {
                    index: idx.name.clone(),
                    lo: bound(lo),
                    hi: bound(hi),
                });
            }
        }
    }
    if let Some(access) = range_access {
        let locals = take_locals(scope, before_width, arity, pending);
        let attach = pick_attach(scope, before_width, pending);
        return Ok((
            StepKind::Scan {
                table: name.to_string(),
                keep,
                access,
                locals,
            },
            attach,
        ));
    }

    // Strategy 3: full scan fused with the unit's pushed-down predicates.
    let locals = take_locals(scope, before_width, arity, pending);
    let attach = pick_attach(scope, before_width, pending);
    Ok((
        StepKind::Scan {
            table: name.to_string(),
            keep,
            access: Access::Full,
            locals,
        },
        attach,
    ))
}

// ---------------------------------------------------------------------------
// EXPLAIN rendering
// ---------------------------------------------------------------------------

/// Render the physical operator tree (the IR that actually ran, with what
/// each step observed in `execs`) into the trace: outer `wrappers`
/// (Sort/Distinct/Aggregate, outermost first), then the left-deep join
/// tree. Each fact is stated once, on the node it belongs to: access path,
/// pushed-filter row counts and scan DOP on the source line; join kind,
/// build/right rows and join DOP on the join line; `estimated … actual` on
/// the topmost line of the step. Under `EXPLAIN ANALYZE` each step's wall
/// time follows its `actual`, and the output shape's (`shaped`: projection,
/// aggregation, DISTINCT and sort) is on the `plan:` line, after the CTEs
/// the core absorbed (`inlined`).
pub(crate) fn render_tree(
    env: &Env<'_>,
    plan: &FromPlan,
    execs: &[StepExec],
    wrappers: &[String],
    inlined: &[String],
    shaped: std::time::Duration,
) {
    let mut head = "plan:".to_string();
    if !inlined.is_empty() {
        head += &format!(" [inlined {}]", inlined.join(", "));
    }
    if env.analyze {
        head += &format!(" [output {:.3} ms]", shaped.as_secs_f64() * 1e3);
    }
    let mut lines: Vec<String> = vec![head];
    let mut depth = 1usize;
    for w in wrappers {
        lines.push(format!("{}{w}", "  ".repeat(depth)));
        depth += 1;
    }
    if !plan.residual.is_empty() {
        lines.push(format!(
            "{}Filter ({} residual predicates)",
            "  ".repeat(depth),
            plan.residual.len()
        ));
        depth += 1;
    }
    if plan.steps.is_empty() {
        lines.push(format!("{}Values (1 row)", "  ".repeat(depth)));
    } else {
        tree_into(
            env,
            &plan.steps,
            execs,
            plan.steps.len() - 1,
            depth,
            &mut lines,
        );
    }
    for line in lines {
        env.note(|| line);
    }
}

/// Recursive left-deep tree render of `steps[..=i]`.
fn tree_into(
    env: &Env<'_>,
    steps: &[Step],
    execs: &[StepExec],
    i: usize,
    depth: usize,
    out: &mut Vec<String>,
) {
    let step = &steps[i];
    let x = &execs[i];
    let top = out.len();
    let mut depth = depth;
    if !step.after.is_empty() {
        out.push(format!(
            "{}Filter ({} predicates)",
            "  ".repeat(depth),
            step.after.len()
        ));
        depth += 1;
    }
    let pad = "  ".repeat(depth);
    let source = source_label(env, step, x);
    let outer = outer_note(step);
    let join = match &step.attach {
        Attach::Hash { .. } => Some(format!(
            "HashJoin ({outer}build {}, {} build rows, dop {})",
            step.label,
            x.join_rows.unwrap_or_default(),
            x.join_dop.unwrap_or(1)
        )),
        Attach::Cross => Some(format!(
            "CrossJoin ({outer}{} right rows, dop {})",
            x.join_rows.unwrap_or_default(),
            x.join_dop.unwrap_or(1)
        )),
        Attach::Flatten => Some(format!("Flatten {}", step.label)),
        // An index probe fuses join and scan into the source line.
        Attach::Probe => None,
    };
    if i == 0 {
        // The leading step's attach against the identity row is a
        // passthrough: the source alone is the node.
        out.push(format!("{pad}{source}"));
    } else if let Some(join) = join {
        out.push(format!("{pad}{join}"));
        tree_into(env, steps, execs, i - 1, depth + 1, out);
        out.push(format!("{pad}  {source}"));
    } else {
        out.push(format!("{pad}{source}"));
        tree_into(env, steps, execs, i - 1, depth + 1, out);
    }
    let mode = match x.list_out {
        Some(true) => " (list)",
        Some(false) => " (flat)",
        None => "",
    };
    let time = match x.elapsed.filter(|_| env.analyze) {
        Some(t) => format!(", {:.3} ms", t.as_secs_f64() * 1e3),
        None => String::new(),
    };
    match (step.est, x.actual) {
        (Some(est), Some(actual)) => {
            out[top] += &format!(" [estimated {est:.0} rows, actual {actual}{mode}{time}]")
        }
        (None, Some(actual)) => out[top] += &format!(" [actual {actual}{mode}{time}]"),
        (_, None) => {}
    }
}

/// `left outer, ` (plus the ON conjuncts checked per candidate pair, if any)
/// for an outer step's join line; empty otherwise.
fn outer_note(step: &Step) -> String {
    match &step.outer {
        Some(o) if o.on.is_empty() => "left outer, ".to_string(),
        Some(o) => format!("left outer, {} ON predicates, ", o.on.len()),
        None => String::new(),
    }
}

/// One-line description of a step's row source. A `Scan` states how many
/// of the table's columns it copies per row ([`scan_cols`]).
fn source_label(env: &Env<'_>, step: &Step, x: &StepExec) -> String {
    match &step.kind {
        StepKind::Scan {
            table,
            access,
            locals,
            keep,
        } => match access {
            Access::Probe { index, parts } => format!(
                "IndexJoin {} [{table}] ({}index {index}, {} key parts)",
                step.label,
                outer_note(step),
                parts.len()
            ),
            Access::Csr { index, unpivot, .. } => {
                let fanout = env.db.read_table(table, |t| {
                    let idx = t.indexes().iter().find(|i| &i.name == index);
                    Ok(idx.map(|idx| csr_est_fanout(t, idx)))
                });
                let unpivot = unpivot.as_ref().map_or(String::new(), |u| {
                    format!(
                        ", unpivot ({} rows, {}/{} cols, {} folded filters)",
                        u.rows.len(),
                        u.keep.len(),
                        u.rows.first().map_or(0, Vec::len),
                        u.filter.len()
                    )
                });
                format!(
                    "CsrExpand {} [{table}] (index {index}{unpivot}, {} groups, est fanout {:.1})",
                    step.label,
                    x.csr_groups.unwrap_or_default(),
                    fanout.ok().flatten().unwrap_or(0.0)
                )
            }
            Access::Point { index, key } => format!(
                "Scan {} [{table}] (index {index}, point, {} key parts, {}{})",
                step.label,
                key.len(),
                scan_cols(env, table, keep),
                filters_suffix(locals.len(), &x.local_counts)
            ),
            Access::Range { index, .. } => format!(
                "Scan {} [{table}] (index {index}, range, {} rows, {}{})",
                step.label,
                x.scan_rows.unwrap_or_default(),
                scan_cols(env, table, keep),
                filters_suffix(locals.len(), &x.local_counts)
            ),
            Access::Full => format!(
                "Scan {} [{table}] (full, {} rows, {}, dop {}{})",
                step.label,
                x.scan_rows.unwrap_or_default(),
                scan_cols(env, table, keep),
                x.scan_dop.unwrap_or(1),
                filters_suffix(locals.len(), &x.local_counts)
            ),
        },
        StepKind::Rel { pushed, .. } => format!(
            "Rel {} ({} rows{})",
            step.label,
            x.scan_rows.unwrap_or_default(),
            filters_suffix(pushed.len(), &x.local_counts)
        ),
        StepKind::LateralValues {
            rows,
            arity,
            filter,
        } => format!(
            "Values {} ({} rows, {arity} cols{})",
            step.label,
            rows.len(),
            filters_suffix(filter.len(), &x.local_counts)
        ),
        StepKind::LateralFunc { func, arity, .. } => {
            format!("Call {} ({func:?}, {arity} cols)", step.label)
        }
    }
}

/// `k/n cols`: a scan copies `k` of `table`'s `n` columns per row.
fn scan_cols(env: &Env<'_>, table: &str, keep: &[usize]) -> String {
    let arity = env.db.read_table(table, |t| Ok(t.schema.arity()));
    format!("{}/{} cols", keep.len(), arity.unwrap_or_default())
}

/// `, N pushed filters: before -> after[ -> after…] rows`. `counts` holds one
/// (before, after) pair per filter, or one pair for all of a full scan's.
fn filters_suffix(n: usize, counts: &[(usize, usize)]) -> String {
    let Some((first, _)) = counts.first() else {
        return String::new();
    };
    let mut s = format!(", {n} pushed filters: {first}");
    for (_, after) in counts {
        s += &format!(" -> {after}");
    }
    s + " rows"
}
