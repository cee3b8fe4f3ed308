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
//! The planning pass mirrors the retired in-line planner *decision for
//! decision* — the same conjunct-retirement order, the same compile-attempt
//! semantics (a conjunct that fails to compile against the current scope is
//! simply retried after the next unit extends the scope), the same
//! inclusive-range + residual-filter treatment of B-tree bounds — so planned
//! results are byte-identical to the seed engine's.

use crate::error::{Error, Result};
use crate::exec::{compile_expr, filter_rows, run_select, Env, Relation, Scope, TableFunc};
use crate::expr::{BinaryOp, Expr};
use crate::hasher::{FxHashMap, FxHashSet};
use crate::sql::ast;
use crate::value::Value;

// ---------------------------------------------------------------------------
// The physical plan IR
// ---------------------------------------------------------------------------

/// A fully-planned FROM pipeline: an ordered list of attach steps, the final
/// name-resolution scope (restored to textual order), and residual filters
/// that run after the last attach.
pub(crate) struct FromPlan {
    /// Attach steps in execution order (post join-reorder).
    pub(crate) steps: Vec<Step>,
    /// Final scope, entries in textual order (offsets point at the physical
    /// row layout, which follows execution order).
    pub(crate) scope: Scope,
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
    /// Execution-time observations, filled by the executor and read by the
    /// EXPLAIN renderer.
    pub(crate) exec: StepExec,
}

/// The null-supplying half of a LEFT OUTER JOIN step. The join key ([`Access`]
/// probe parts or [`Attach::Hash`] keys) and the filters pushed into the
/// unit's scan come from the join's ON clause alone; whatever is left of it
/// is `on`. An accumulated row that no unit row joins with comes out once,
/// padded with `width` NULLs — so a WHERE conjunct that reads this unit can
/// only ever run after the step, never inside it.
pub(crate) struct Outer {
    /// ON conjuncts that are neither the join key nor pushed into the scan,
    /// checked per candidate pair (combined layout), in ON order.
    pub(crate) on: Vec<Expr>,
    /// Column count of the unit's rows.
    pub(crate) width: usize,
}

/// Cardinalities and DOPs observed while executing a [`Step`].
#[derive(Debug, Default, Clone)]
pub(crate) struct StepExec {
    /// Combined rows after the attach and `after` filters.
    pub(crate) actual: Option<usize>,
    /// Rows seen by the scan (live table rows for full scans, matched rows
    /// for range scans).
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
    /// Pre-materialized relation (CTE clone or derived table — a subquery is
    /// a statement of its own, run to completion before this one plans),
    /// with plan-time pushdown already applied. `pushed` records per-filter
    /// (before, after) counts and `rows` the final cardinality, both for
    /// EXPLAIN.
    Rel {
        rel: Relation,
        pushed: Vec<(usize, usize)>,
        rows: usize,
    },
    /// Lateral `TABLE (VALUES ...)`: value expressions compiled against the
    /// *prior* scope, evaluated once per accumulated row.
    LateralValues { rows: Vec<Vec<Expr>>, arity: usize },
    /// Lateral table function call.
    LateralFunc {
        func: TableFunc,
        args: Vec<Expr>,
        arity: usize,
    },
}

/// Access path of a base-table scan.
pub(crate) enum Access {
    /// Index nested-loop join: per accumulated row, build a key from
    /// `parts` and probe `index`. Consumes the left side inside the scan.
    Probe {
        index: String,
        parts: Vec<ProbePart>,
    },
    /// Compressed adjacency probe: like `Probe`, but through a cached CSR
    /// entry ([`crate::csr::CsrEntry`]) built lazily from the index — an
    /// O(1) group lookup plus a dense range copy per accumulated row, with
    /// the expansion kept as offset-delimited lists (factorized) until an
    /// operator needs row semantics. Byte-identical to `Probe`.
    Csr {
        index: String,
        /// The single probe-key expression (combined layout).
        part: Expr,
    },
    /// Constant-key index lookup.
    Point {
        index: String,
        key: Vec<Value>,
        parts: usize,
    },
    /// Single-part B-tree range scan (inclusive bounds; exact predicates
    /// remain in `locals`).
    Range {
        index: String,
        lo: Option<Value>,
        hi: Option<Value>,
    },
    /// Full (morsel-parallel) scan.
    Full,
}

/// One component of an index-probe key.
pub(crate) enum ProbePart {
    Const(Value),
    /// Expression over already-attached columns (combined layout).
    Probe(Expr),
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

// ---------------------------------------------------------------------------
// Projection pruning
// ---------------------------------------------------------------------------

/// Projection-pruning analysis of a SELECT core: which columns of each
/// FROM alias the statement can reference.
#[derive(Debug, Default)]
pub(crate) struct Needs {
    /// Qualified references per (lower-cased) alias.
    per_alias: FxHashMap<String, FxHashSet<String>>,
    /// Aliases that need every column (`t.*`).
    all_for: FxHashSet<String>,
    /// An unqualified reference or bare `*` appeared: pruning is unsafe.
    disable: bool,
}

impl Needs {
    /// Pruned column list for `alias` given the table's full column list,
    /// or `None` when pruning is not applicable.
    fn pruned(&self, alias: &str, columns: &[String]) -> Option<Vec<usize>> {
        if self.disable || self.all_for.contains(alias) {
            return None;
        }
        let wanted = self.per_alias.get(alias)?;
        Some(
            columns
                .iter()
                .enumerate()
                .filter(|(_, c)| wanted.contains(*c))
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
        ast::Expr::Column {
            table: Some(t),
            name,
        } => {
            needs
                .per_alias
                .entry(t.to_ascii_lowercase())
                .or_default()
                .insert(name.to_ascii_lowercase());
        }
        ast::Expr::Column { table: None, .. } => needs.disable = true,
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
    /// Derived table, materialized eagerly.
    Derived(Relation),
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
/// operand ([`Unit::outer_on`]).
fn flatten_joins<'q>(
    env: &Env<'_>,
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
            flatten_joins(env, left, units, conjuncts)?;
            flatten_joins(env, right, units, conjuncts)?;
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
        ast::FromItem::Subquery { query, alias } => {
            (alias.clone(), Source::Derived(run_select(env, query)?))
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

/// Planning facts for one FROM unit, gathered without executing it.
struct UnitFacts {
    /// The unit's alias (lower-cased).
    alias: String,
    /// Unfiltered cardinality.
    rows: f64,
    /// Cardinality after single-unit constant predicates.
    est: f64,
    /// Statistics (base tables only): stored `ANALYZE` stats or index-seeded.
    stats: Option<crate::stats::TableStats>,
    /// Lower-cased column name → position (base tables only).
    col_index: FxHashMap<String, usize>,
    /// Key parts covered by a single-part index (base tables only).
    indexed_parts: Vec<crate::index::KeyPart>,
    /// Live row count at planning time (base tables only; caps ndv).
    live: usize,
}

/// An equi-join conjunct linking two units, with its estimated selectivity.
struct JoinEdge {
    a: usize,
    b: usize,
    sel: f64,
    /// The `a`/`b`-side key is a single-part-indexed key of that unit.
    a_indexed: bool,
    b_indexed: bool,
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

/// A constant operand from the planner's point of view (parameters are
/// inlined as constants at compile time).
fn is_const_operand(e: &ast::Expr) -> bool {
    matches!(e, ast::Expr::Literal(_) | ast::Expr::Param(_))
}

/// Resolve an AST expression to an index key part of `facts`' table: a
/// qualified bare column or `JSON_VAL(col, 'member')` over one.
fn ast_key_part(facts: &UnitFacts, e: &ast::Expr) -> Option<crate::index::KeyPart> {
    use crate::index::KeyPart;
    match e {
        ast::Expr::Column {
            table: Some(_),
            name,
        } => facts
            .col_index
            .get(&name.to_ascii_lowercase())
            .map(|&c| KeyPart::Column(c)),
        ast::Expr::Call { name, args, .. } if name.eq_ignore_ascii_case("JSON_VAL") => {
            match (args.first(), args.get(1)) {
                (
                    Some(ast::Expr::Column {
                        table: Some(_),
                        name: col,
                    }),
                    Some(ast::Expr::Literal(Value::Str(member))),
                ) => facts
                    .col_index
                    .get(&col.to_ascii_lowercase())
                    .map(|&c| KeyPart::JsonKey(c, member.to_string())),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Distinct-value estimate for one side of a join conjunct. Falls back to
/// the System-R tenth-of-the-rows default when no statistic applies.
fn side_ndv(facts: &UnitFacts, e: &ast::Expr) -> f64 {
    if let (Some(part), Some(stats)) = (ast_key_part(facts, e), facts.stats.as_ref()) {
        return stats.ndv_or_default(&part, facts.live) as f64;
    }
    (facts.rows / 10.0).max(1.0)
}

/// Selectivity of a single-unit conjunct: `key = const` uses 1/ndv, any
/// other recognized predicate the classic 0.3 guess.
fn conjunct_selectivity(facts: &UnitFacts, c: &ast::Expr) -> f64 {
    if let ast::Expr::Binary(BinaryOp::Eq, a, b) = c {
        let key = if is_const_operand(b) {
            Some(a)
        } else if is_const_operand(a) {
            Some(b)
        } else {
            None
        };
        if let Some(key) = key {
            if let (Some(part), Some(stats)) = (ast_key_part(facts, key), facts.stats.as_ref()) {
                return stats.eq_selectivity(&part, facts.live);
            }
            return 1.0 / (facts.rows / 10.0).max(1.0);
        }
    }
    0.3
}

/// Gather planning facts for every unit; estimates never execute a unit
/// (base tables are inspected under a briefly-held read lock).
fn gather_unit_facts(
    env: &Env<'_>,
    units: &[Unit<'_>],
    pending: &[Option<&ast::Expr>],
) -> Vec<UnitFacts> {
    // A unit the planner knows only a row count for.
    let opaque = |unit: &Unit<'_>, rows: usize| UnitFacts {
        alias: unit.alias.to_ascii_lowercase(),
        rows: rows as f64,
        est: rows as f64,
        stats: None,
        col_index: FxHashMap::default(),
        indexed_parts: Vec::new(),
        live: 0,
    };
    let mut all: Vec<UnitFacts> = units
        .iter()
        .map(|unit| match &unit.src {
            Source::Named(name) => {
                if let Some(cte) = env.ctes.get(name) {
                    return opaque(unit, cte.rows.len());
                }
                // Missing table: the attach step will surface the error;
                // give the planner a neutral placeholder.
                let Ok(t) = env.db.read_table(name) else {
                    return opaque(unit, 1);
                };
                let live = t.len();
                // Analyzed stats whose recorded row count has drifted >2×
                // from the live table mislead more than they help; fall
                // back to seeded stats.
                let stats = t
                    .stats()
                    .filter(|s| !s.is_stale(live))
                    .cloned()
                    .unwrap_or_else(|| crate::stats::TableStats::seed(&t));
                UnitFacts {
                    stats: Some(stats),
                    col_index: t
                        .schema
                        .columns
                        .iter()
                        .enumerate()
                        .map(|(i, c)| (c.name.clone(), i))
                        .collect(),
                    indexed_parts: t
                        .indexes()
                        .iter()
                        .filter(|i| i.parts.len() == 1)
                        .map(|i| i.parts[0].clone())
                        .collect(),
                    live,
                    ..opaque(unit, live)
                }
            }
            Source::Derived(rel) => opaque(unit, rel.rows.len()),
            Source::Lateral { .. } | Source::LateralFn { .. } => opaque(unit, 1),
        })
        .collect();

    // Apply single-unit constant predicates to the estimates.
    for facts in &mut all {
        let mut sel = 1.0;
        for c in pending.iter().flatten() {
            let mut aliases = FxHashSet::default();
            if expr_aliases(c, &mut aliases) && aliases.len() == 1 && aliases.contains(&facts.alias)
            {
                sel *= conjunct_selectivity(facts, c);
            }
        }
        facts.est = facts.rows * sel;
    }
    all
}

/// Extract equi-join edges between reorderable units from the pending
/// conjuncts.
fn extract_join_edges(
    facts: &[UnitFacts],
    pending: &[Option<&ast::Expr>],
    prefix: usize,
) -> Vec<JoinEdge> {
    let owner_of =
        |alias: &str| -> Option<usize> { facts[..prefix].iter().position(|f| f.alias == alias) };
    let mut edges = Vec::new();
    for c in pending.iter().flatten() {
        let ast::Expr::Binary(BinaryOp::Eq, l, r) = c else {
            continue;
        };
        let mut la = FxHashSet::default();
        let mut ra = FxHashSet::default();
        if !expr_aliases(l, &mut la) || !expr_aliases(r, &mut ra) {
            continue;
        }
        if la.len() != 1 || ra.len() != 1 {
            continue;
        }
        let (la, ra) = (
            la.iter().next().expect("len checked").clone(),
            ra.iter().next().expect("len checked").clone(),
        );
        let (Some(a), Some(b)) = (owner_of(&la), owner_of(&ra)) else {
            continue;
        };
        if a == b {
            continue;
        }
        let sel = 1.0 / side_ndv(&facts[a], l).max(side_ndv(&facts[b], r));
        let a_indexed =
            ast_key_part(&facts[a], l).is_some_and(|p| facts[a].indexed_parts.contains(&p));
        let b_indexed =
            ast_key_part(&facts[b], r).is_some_and(|p| facts[b].indexed_parts.contains(&p));
        edges.push(JoinEdge {
            a,
            b,
            sel,
            a_indexed,
            b_indexed,
        });
    }
    edges
}

/// Greedy smallest-first join ordering over the maximal leading run of
/// movable units. Starts from the unit with the smallest filtered
/// estimate, then repeatedly attaches the unit minimizing the estimated
/// intermediate result — penalizing cross joins, mildly preferring
/// index-probe attachments. Units at or after the first lateral or outer
/// unit keep their textual positions.
fn plan_join_order(
    env: &Env<'_>,
    units: &[Unit<'_>],
    pending: &[Option<&ast::Expr>],
) -> Vec<PlannedUnit> {
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
    if prefix < 2 {
        return (0..units.len())
            .map(|idx| PlannedUnit { idx, est: None })
            .collect();
    }
    let facts = gather_unit_facts(env, units, pending);
    let edges = extract_join_edges(&facts, pending, prefix);

    let mut order: Vec<PlannedUnit> = Vec::with_capacity(units.len());
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
            for e in &edges {
                let (other, j_side_indexed) = if e.a == j {
                    (e.b, e.a_indexed)
                } else if e.b == j {
                    (e.a, e.b_indexed)
                } else {
                    continue;
                };
                if !used[other] {
                    continue;
                }
                connected = true;
                sel *= e.sel;
                probes_index |= j_side_indexed;
            }
            let result = cur * facts[j].est * sel;
            let mut cost = result;
            if !connected {
                cost *= CROSS_JOIN_PENALTY;
            } else if probes_index && facts[j].stats.is_some() {
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
    // The immovable suffix attaches in textual order.
    order.extend((prefix..units.len()).map(|idx| PlannedUnit { idx, est: None }));
    order
}

// ---------------------------------------------------------------------------
// The planning pass
// ---------------------------------------------------------------------------

/// Plan a FROM list + WHERE clause into a [`FromPlan`]. Performs every
/// planning decision (join order, access paths, pushdown, hash keys) and
/// compiles every predicate; the executor only follows the plan.
pub(crate) fn plan_from(
    env: &Env<'_>,
    from: &[ast::FromItem],
    filter: Option<&ast::Expr>,
    needs: &Needs,
) -> Result<FromPlan> {
    // Table-less SELECT: no steps; the WHERE (if any) gates the identity row.
    if from.is_empty() {
        let scope = Scope::default();
        let residual = match filter {
            Some(f) => vec![compile_expr(env, &scope, f)?],
            None => Vec::new(),
        };
        return Ok(FromPlan {
            steps: Vec::new(),
            scope,
            residual,
        });
    }

    // Phase 1: turn FROM items into units; JOIN chains flatten into theirs,
    // so the optimizer plans (and, for inner joins, reorders) across
    // explicit JOIN syntax too.
    let mut units: Vec<Unit<'_>> = Vec::with_capacity(from.len());
    let mut conjuncts: Vec<&ast::Expr> = Vec::new();
    for item in from {
        flatten_joins(env, item, &mut units, &mut conjuncts)?;
    }

    // Phase 2: split WHERE into conjuncts (kept as AST; compiled when their
    // tables are all bound). Inner-join ON conjuncts come first so equi keys
    // are found before residual predicates.
    if let Some(f) = filter {
        collect_conjuncts(f, &mut conjuncts);
    }
    let mut pending: Vec<Option<&ast::Expr>> = conjuncts.into_iter().map(Some).collect();

    // Phase 3: pick an attachment order.
    let planned = plan_join_order(env, &units, &pending);
    if planned.iter().enumerate().any(|(pos, p)| pos != p.idx) {
        env.note(|| {
            let names: Vec<&str> = planned
                .iter()
                .map(|p| units[p.idx].alias.as_str())
                .collect();
            format!("join order: {} (reordered)", names.join(", "))
        });
    }

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
                        cr.push(compile_expr(env, &scope, e)?);
                    }
                    compiled_rows.push(cr);
                }
                scope.push(&alias, columns);
                (
                    StepKind::LateralValues {
                        rows: compiled_rows,
                        arity,
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
                    .map(|e| compile_expr(env, &scope, e))
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
            Source::Derived(rel) => plan_rel_step(env, &mut scope, rel, &alias, usable)?,
            Source::Named(name) => match env.ctes.get(&name) {
                Some(cte) => plan_rel_step(env, &mut scope, (**cte).clone(), &alias, usable)?,
                None => plan_base_table(env, &mut scope, &name, &alias, usable, needs, is_outer)?,
            },
        };
        // What the unit did not use of its ON clause is checked per
        // candidate pair; a conjunct that does not resolve here never will.
        let outer = match own {
            Some(unused) => Some(Outer {
                on: unused
                    .into_iter()
                    .flatten()
                    .map(|c| compile_expr(env, &scope, c))
                    .collect::<Result<_>>()?,
                width: scope.width - before_width,
            }),
            None => None,
        };

        // Ready conjuncts: everything now fully resolvable applies to the
        // combined rows right after this attach, in conjunct order.
        let mut after = Vec::new();
        for slot in pending.iter_mut() {
            let Some(c) = slot else { continue };
            if let Ok(compiled) = compile_expr(env, &scope, c) {
                let mut max_col = 0;
                let mut any = false;
                compiled.visit_columns(&mut |i| {
                    any = true;
                    max_col = max_col.max(i);
                });
                if !any || max_col < scope.width {
                    after.push(compiled);
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
            exec: StepExec::default(),
        });
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
        residual.push(compile_expr(env, &scope, c)?);
    }
    Ok(FromPlan {
        steps,
        scope,
        residual,
    })
}

/// Plan the attachment of a pre-materialized relation: push its alias,
/// apply plan-time pushdown (the relation's rows exist already), pick the
/// hash key.
fn plan_rel_step(
    env: &Env<'_>,
    scope: &mut Scope,
    mut rel: Relation,
    alias: &str,
    pending: &mut [Option<&ast::Expr>],
) -> Result<(StepKind, Attach)> {
    let before_width = scope.width;
    let arity = rel.columns.len();
    scope.push(alias, rel.columns.clone());
    let mut pushed = Vec::new();
    for p in &take_locals(env, scope, before_width, arity, pending) {
        let before = rel.rows.len();
        rel.rows = filter_rows(std::mem::take(&mut rel.rows), p)?;
        pushed.push((before, rel.rows.len()));
    }
    let rows = rel.rows.len();
    let attach = pick_attach(env, scope, before_width, pending);
    Ok((StepKind::Rel { rel, pushed, rows }, attach))
}

/// Take every pending conjunct local to the unit at `before_width` and
/// return it re-based onto the bare unit row, retiring the pending slot.
/// The executor evaluates these predicates inside the scan (fused
/// scan + filter) instead of materializing unfiltered rows first.
fn take_locals(
    env: &Env<'_>,
    scope: &Scope,
    before_width: usize,
    arity: usize,
    pending: &mut [Option<&ast::Expr>],
) -> Vec<Expr> {
    let mut out = Vec::new();
    for slot in pending.iter_mut() {
        let Some(c) = slot else { continue };
        let Ok(compiled) = compile_expr(env, scope, c) else {
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
fn pick_attach(
    env: &Env<'_>,
    scope: &Scope,
    before_width: usize,
    pending: &mut [Option<&ast::Expr>],
) -> Attach {
    for slot in pending.iter_mut() {
        let Some(c) = slot else { continue };
        let Ok(compiled) = compile_expr(env, scope, c) else {
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

/// Minimum live rows before the planner routes a probe through the CSR
/// adjacency cache: below this the O(table) lazy build cannot beat plain
/// index nested-loop probes even with perfect reuse.
const CSR_MIN_ROWS: usize = 256;

/// Whether a probe-side index nested-loop scan should go through the CSR
/// compressed-adjacency path instead: the scan must be adjacency-shaped —
/// a single probed key part over a non-unique hash index (unique indexes
/// are 1:1 point lookups that the probe path already serves optimally, and
/// B-trees also answer range scans the flat CSR layout cannot) — over a
/// table big enough to amortize the lazy build. An outer step pads per
/// accumulated row, which the list representation has no element for.
fn csr_eligible(
    env: &Env<'_>,
    table: &crate::storage::Table,
    idx: &crate::index::Index,
    parts: &[ProbePart],
    outer: bool,
) -> bool {
    env.db.csr_enabled()
        && !outer
        && parts.len() == 1
        && matches!(parts[0], ProbePart::Probe(_))
        && !idx.unique
        && idx.kind() == crate::index::IndexKind::Hash
        && table.len() >= CSR_MIN_ROWS
}

/// Estimated average rows per probe group, for EXPLAIN: analyzed (fresh)
/// statistics when available, otherwise the index's exact distinct-key
/// count.
fn csr_est_fanout(table: &crate::storage::Table, idx: &crate::index::Index) -> f64 {
    let live = table.len();
    match table.stats().filter(|s| !s.is_stale(live)) {
        Some(s) => s.avg_fanout(&idx.parts[0], live),
        None => live as f64 / idx.distinct_keys().max(1) as f64,
    }
}

/// Plan a base-table attach: choose index probe / point / range / full scan
/// (the same strategy ladder the in-line executor used), scoop local
/// filters, and pick the join strategy — all from `pending`, the conjuncts
/// this unit may use (for an `outer` unit, its own ON clause).
fn plan_base_table(
    env: &Env<'_>,
    scope: &mut Scope,
    name: &str,
    alias: &str,
    pending: &mut [Option<&ast::Expr>],
    needs: &Needs,
    outer: bool,
) -> Result<(StepKind, Attach)> {
    let guard = env.db.read_table(name)?;
    let table: &crate::storage::Table = &guard;
    let all_names: Vec<String> = table
        .schema
        .columns
        .iter()
        .map(|c| c.name.clone())
        .collect();
    // Projection pruning: materialize only the columns the statement can
    // reference. `keep` maps pruned position -> original position.
    let keep: Vec<usize> = needs
        .pruned(&alias.to_ascii_lowercase(), &all_names)
        .unwrap_or_else(|| (0..all_names.len()).collect());
    let col_names: Vec<String> = keep.iter().map(|&i| all_names[i].clone()).collect();
    let before_width = scope.width;
    scope.push(alias, col_names);
    let arity = keep.len();

    // Gather, for this unit: constant equality pairs (key part -> const)
    // and probe equality pairs (key part -> left-side key expression).
    // A key part is a plain column or `JSON_VAL(json_col, 'member')` — the
    // latter matches functional indexes.
    use crate::index::KeyPart;
    let as_key_part = |e: &Expr| -> Option<KeyPart> {
        match e {
            Expr::Col(idx) if *idx >= before_width && *idx < before_width + arity => {
                // Map the pruned position back to the original column.
                Some(KeyPart::Column(keep[*idx - before_width]))
            }
            Expr::Call(crate::expr::Func::JsonVal, args) => match (args.first(), args.get(1)) {
                (Some(Expr::Col(idx)), Some(Expr::Const(Value::Str(member))))
                    if *idx >= before_width && *idx < before_width + arity =>
                {
                    Some(KeyPart::JsonKey(
                        keep[*idx - before_width],
                        member.to_string(),
                    ))
                }
                _ => None,
            },
            _ => None,
        }
    };
    let mut const_eq: Vec<(KeyPart, Value, usize)> = Vec::new();
    let mut probe_eq: Vec<(KeyPart, Expr, usize)> = Vec::new();
    for (i, slot) in pending.iter().enumerate() {
        let Some(c) = slot else { continue };
        let Ok(compiled) = compile_expr(env, scope, c) else {
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
        let (part, other) = match (as_key_part(a), as_key_part(b)) {
            (Some(p), None) if is_bound(b) => (p, (**b).clone()),
            (None, Some(p)) if is_bound(a) => (p, (**a).clone()),
            _ => continue,
        };
        if let Expr::Const(v) = &other {
            const_eq.push((part, v.clone(), i));
        } else {
            probe_eq.push((part, other, i));
        }
    }

    // Strategy 1: index nested loop. Find an index whose key parts are all
    // covered by probe/const pairs, preferring indexes that use a probe.
    let mut best: Option<(&crate::index::Index, Vec<ProbePart>, Vec<usize>)> = None;
    for idx in table.indexes() {
        let mut parts = Vec::with_capacity(idx.parts.len());
        let mut used = Vec::new();
        let mut ok = true;
        let mut uses_probe = false;
        for part in &idx.parts {
            if let Some((_, key_expr, pi)) = probe_eq.iter().find(|(pp, _, _)| pp == part) {
                parts.push(ProbePart::Probe(key_expr.clone()));
                used.push(*pi);
                uses_probe = true;
            } else if let Some((_, v, pi)) = const_eq.iter().find(|(cp, _, _)| cp == part) {
                parts.push(ProbePart::Const(v.clone()));
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
            Some((bidx, _, _)) => {
                // Prefer probe-using, then longer keys, then unique.
                let b_probe = bidx
                    .parts
                    .iter()
                    .any(|p| probe_eq.iter().any(|(pp, _, _)| pp == p));
                (uses_probe && !b_probe)
                    || (uses_probe == b_probe && idx.parts.len() > bidx.parts.len())
            }
        };
        if better {
            best = Some((idx, parts, used));
        }
    }

    if let Some((idx, parts, used)) = best {
        let uses_probe = parts.iter().any(|p| matches!(p, ProbePart::Probe(_)));
        for pi in &used {
            pending[*pi] = None;
        }
        if uses_probe {
            let access = if csr_eligible(env, table, idx, &parts, outer) {
                let Some(ProbePart::Probe(part)) = parts.into_iter().next() else {
                    unreachable!("eligibility requires a single probe part")
                };
                Access::Csr {
                    index: idx.name.clone(),
                    part,
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
        let key: Vec<Value> = parts
            .iter()
            .map(|p| match p {
                ProbePart::Const(v) => v.clone(),
                ProbePart::Probe(_) => unreachable!("no probes in const-only path"),
            })
            .collect();
        let n_parts = parts.len();
        let index = idx.name.clone();
        drop(guard);
        let locals = take_locals(env, scope, before_width, arity, pending);
        let attach = pick_attach(env, scope, before_width, pending);
        return Ok((
            StepKind::Scan {
                table: name.to_string(),
                keep,
                access: Access::Point {
                    index,
                    key,
                    parts: n_parts,
                },
                locals,
            },
            attach,
        ));
    }

    // Strategy 2: B-tree range scan for comparison predicates on an indexed
    // key part. Bounds are applied inclusively; the bounding conjuncts stay
    // pending — `take_locals` scoops them, so exclusive endpoints are
    // filtered exactly.
    let mut range_access: Option<Access> = None;
    {
        let mut lo: Option<(KeyPart, Value)> = None;
        let mut hi: Option<(KeyPart, Value)> = None;
        for slot in pending.iter() {
            let Some(c) = slot else { continue };
            let Ok(compiled) = compile_expr(env, scope, c) else {
                continue;
            };
            // BETWEEN desugars to `a AND b` inside one conjunct: split at
            // the compiled level too.
            visit_conjuncts(&compiled, &mut |leaf| {
                let Expr::Binary(op, a, b) = leaf else { return };
                // Normalize to `part OP const`.
                let (part, value, op) =
                    match (as_key_part(a), b.as_ref(), as_key_part(b), a.as_ref()) {
                        (Some(p), Expr::Const(v), _, _) => (p, v.clone(), *op),
                        (_, _, Some(p), Expr::Const(v)) => {
                            // Flip: const OP part becomes part OP' const.
                            let flipped = match *op {
                                BinaryOp::Lt => BinaryOp::Gt,
                                BinaryOp::Le => BinaryOp::Ge,
                                BinaryOp::Gt => BinaryOp::Lt,
                                BinaryOp::Ge => BinaryOp::Le,
                                other => other,
                            };
                            (p, v.clone(), flipped)
                        }
                        _ => return,
                    };
                if value.is_null() {
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
        // Bounds must target one part with a single-part B-tree index.
        let part = match (&lo, &hi) {
            (Some((p1, _)), Some((p2, _))) if p1 == p2 => Some(p1.clone()),
            (Some((p, _)), None) | (None, Some((p, _))) => Some(p.clone()),
            _ => None,
        };
        if let Some(part) = part {
            let found = table.indexes().iter().find(|i| {
                i.parts.len() == 1
                    && i.parts[0] == part
                    && i.kind() == crate::index::IndexKind::BTree
            });
            if let Some(idx) = found {
                range_access = Some(Access::Range {
                    index: idx.name.clone(),
                    lo: lo
                        .as_ref()
                        .filter(|(p, _)| *p == part)
                        .map(|(_, v)| v.clone()),
                    hi: hi
                        .as_ref()
                        .filter(|(p, _)| *p == part)
                        .map(|(_, v)| v.clone()),
                });
            }
        }
    }
    drop(guard);
    if let Some(access) = range_access {
        let locals = take_locals(env, scope, before_width, arity, pending);
        let attach = pick_attach(env, scope, before_width, pending);
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
    let locals = take_locals(env, scope, before_width, arity, pending);
    let attach = pick_attach(env, scope, before_width, pending);
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

/// Render the physical operator tree (the IR that actually ran) into the
/// trace: outer `wrappers` (Sort/Distinct/Aggregate, outermost first), then
/// the left-deep join tree. Each fact is stated once, on the node it
/// belongs to: access path, pushed-filter row counts and scan DOP on the
/// source line; join kind, build/right rows and join DOP on the join line;
/// `estimated … actual` on the topmost line of the step.
pub(crate) fn render_tree(env: &Env<'_>, plan: &FromPlan, wrappers: &[String]) {
    let mut lines: Vec<String> = vec!["plan:".to_string()];
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
        tree_into(env, &plan.steps, plan.steps.len() - 1, depth, &mut lines);
    }
    for line in lines {
        env.note(|| line);
    }
}

/// Recursive left-deep tree render of `steps[..=i]`.
fn tree_into(env: &Env<'_>, steps: &[Step], i: usize, depth: usize, out: &mut Vec<String>) {
    let step = &steps[i];
    let x = &step.exec;
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
    let source = source_label(env, step);
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
        tree_into(env, steps, i - 1, depth + 1, out);
        out.push(format!("{pad}  {source}"));
    } else {
        out.push(format!("{pad}{source}"));
        tree_into(env, steps, i - 1, depth + 1, out);
    }
    let mode = match x.list_out {
        Some(true) => " (list)",
        Some(false) => " (flat)",
        None => "",
    };
    match (step.est, x.actual) {
        (Some(est), Some(actual)) => {
            out[top] += &format!(" [estimated {est:.0} rows, actual {actual}{mode}]")
        }
        (None, Some(actual)) => out[top] += &format!(" [actual {actual}{mode}]"),
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

/// One-line description of a step's row source.
fn source_label(env: &Env<'_>, step: &Step) -> String {
    let x = &step.exec;
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
            Access::Csr { index, .. } => {
                let fanout = env.db.read_table(table).ok().and_then(|t| {
                    let idx = t.indexes().iter().find(|i| &i.name == index)?;
                    Some(csr_est_fanout(&t, idx))
                });
                format!(
                    "CsrExpand {} [{table}] (index {index}, {} groups, est fanout {:.1})",
                    step.label,
                    x.csr_groups.unwrap_or_default(),
                    fanout.unwrap_or(0.0)
                )
            }
            Access::Point { index, parts, .. } => format!(
                "Scan {} [{table}] (index {index}, point, {parts} key parts{})",
                step.label,
                filters_suffix(locals.len(), &x.local_counts)
            ),
            Access::Range { index, .. } => format!(
                "Scan {} [{table}] (index {index}, range, {} rows{})",
                step.label,
                x.scan_rows.unwrap_or_default(),
                filters_suffix(locals.len(), &x.local_counts)
            ),
            Access::Full => format!(
                "Scan {} [{table}] (full, {} rows, {} cols, dop {}{})",
                step.label,
                x.scan_rows.unwrap_or_default(),
                keep.len(),
                x.scan_dop.unwrap_or(1),
                filters_suffix(locals.len(), &x.local_counts)
            ),
        },
        StepKind::Rel { rows, pushed, .. } => format!(
            "Rel {} ({rows} rows{})",
            step.label,
            filters_suffix(pushed.len(), pushed)
        ),
        StepKind::LateralValues { rows, arity } => {
            format!("Values {} ({} rows, {arity} cols)", step.label, rows.len())
        }
        StepKind::LateralFunc { func, arity, .. } => {
            format!("Call {} ({func:?}, {arity} cols)", step.label)
        }
    }
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
