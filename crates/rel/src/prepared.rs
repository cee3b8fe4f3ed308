//! Prepared statements: a parsed statement plus the physical plan of each
//! of its SELECT cores — or, for INSERT, UPDATE and DELETE, its compiled
//! target — made on first execution and bound on every one.
//!
//! The paper compiles a traversal into one SQL statement so that the
//! relational optimizer sees the whole traversal once; DB2 prepares that
//! statement once and binds it per call. A [`Prepared`] is that: the
//! statement cache (`Database`) holds one per SQL text, and `core`'s
//! traversal templates one per Gremlin shape. Every SELECT core of the
//! statement — each CTE body, each set-operation arm, the main body, each
//! derived table and IN subquery — has a [`CoreSlot`] in a tree that
//! mirrors the statement, holding its [`CorePlan`].
//!
//! A plan holds no execution's data: parameters and IN-subquery results
//! are bind slots, CTEs and derived tables are referenced by name and
//! position (see [`crate::plan`]). What planning read that can change while
//! the statement does not is kept with the plan and re-checked before the
//! plan runs ([`CorePlan::is_current`]):
//!
//! * the database's plan epoch, which moves on catalog changes
//!   (CREATE/DROP TABLE, CREATE INDEX, a raw `Database::write_table` — bulk
//!   loads), on `set_csr_enabled`, and when an engine write moves a table's
//!   stats epoch (`ANALYZE`, the 2× drift line) or CSR size class
//!   ([`crate::plan::table_epoch`]);
//! * the bind values a decision looked at ([`crate::plan::Guard`]);
//! * the join order: re-derived from the current counts, it must come out
//!   the same.
//!
//! Any mismatch re-plans the core in place, so a cached plan only ever runs
//! where planning afresh would build the same plan. EXPLAIN always plans
//! afresh. Parallelism is not in the key: DOP is chosen at execution.
//!
//! A DML statement has one [`DmlSlot`] instead: its target table's name,
//! its filter and assignments (UPDATE, DELETE) or column mapping and VALUES
//! rows (INSERT), compiled against the table's columns with the same bind
//! slots, and checked against the plan epoch alone — every DDL that could
//! move a column moves it. Which rows it writes is still decided per
//! execution, by `find_target_rows` in [`crate::db`].

use crate::db::Database;
use crate::error::{Error, Result};
use crate::exec::{compile_expr, Env, Relation, Scope, Shape};
use crate::expr::Expr;
use crate::plan::{FromPlan, Guard, OrderModel};
use crate::schema::TableSchema;
use crate::sql::ast::{self, Statement};
use crate::unpoison;
use std::sync::{Arc, OnceLock, RwLock};

/// A parsed statement and its plan slots — the unit `Database`'s statement
/// cache and `core`'s traversal templates hold.
pub struct Prepared {
    statement: Arc<Statement>,
    plans: Option<Plans>,
}

impl Prepared {
    /// Prepare `statement`. Its plans are made by its first execution
    /// ([`crate::Database::execute_prepared`]).
    pub fn new(statement: Statement) -> Prepared {
        let plans = match &statement {
            Statement::Select(select) => Some(Plans::Select(StmtPlans::new(select))),
            Statement::Insert { .. } | Statement::Update { .. } | Statement::Delete { .. } => {
                Some(Plans::Dml(DmlSlot::new(&statement)))
            }
            _ => None,
        };
        Prepared {
            statement: Arc::new(statement),
            plans,
        }
    }

    /// The parsed statement.
    pub fn statement(&self) -> &Arc<Statement> {
        &self.statement
    }

    pub(crate) fn plans(&self) -> Option<&Plans> {
        self.plans.as_ref()
    }
}

/// The plan slots of a prepared statement, by kind.
pub(crate) enum Plans {
    Select(StmtPlans),
    Dml(DmlSlot),
}

impl Plans {
    pub(crate) fn select(&self) -> Option<&StmtPlans> {
        match self {
            Plans::Select(plans) => Some(plans),
            Plans::Dml(_) => None,
        }
    }

    pub(crate) fn dml(&self) -> Option<&DmlSlot> {
        match self {
            Plans::Dml(slot) => Some(slot),
            Plans::Select(_) => None,
        }
    }
}

/// The plan slots of one `SELECT` statement, mirroring its AST.
pub(crate) struct StmtPlans {
    /// One per CTE, in order.
    pub(crate) ctes: Vec<StmtPlans>,
    pub(crate) body: SetPlans,
}

/// The plan slots of a statement body.
pub(crate) enum SetPlans {
    Core(Box<CoreSlot>),
    Op(Box<SetPlans>, Box<SetPlans>),
}

/// One SELECT core's cached plan, and the slots of the statements nested
/// in it.
pub(crate) struct CoreSlot {
    /// A `std` lock: read on every core execution, where an uncontended
    /// read must cost no more than an atomic. A writer only swaps the
    /// `Arc`, so a poisoned lock still holds a valid plan.
    plan: RwLock<Option<Arc<CorePlan>>>,
    /// One per derived table, in [`core_derived`] order.
    pub(crate) derived: Vec<StmtPlans>,
    /// One per IN subquery, in [`core_subqueries`] order.
    pub(crate) subqueries: Vec<StmtPlans>,
}

impl StmtPlans {
    fn new(stmt: &ast::SelectStmt) -> StmtPlans {
        StmtPlans {
            ctes: stmt.ctes.iter().map(|(_, q)| StmtPlans::new(q)).collect(),
            body: SetPlans::new(&stmt.body, &stmt.order_by),
        }
    }
}

impl SetPlans {
    /// `order_by` is the statement's when `body` is its single core (the
    /// core then compiles the sort keys), empty for set-operation arms.
    fn new(body: &ast::SetExpr, order_by: &[(ast::Expr, bool)]) -> SetPlans {
        match body {
            ast::SetExpr::Select(core) => SetPlans::Core(Box::new(CoreSlot {
                plan: RwLock::new(None),
                derived: core_derived(core).into_iter().map(StmtPlans::new).collect(),
                subqueries: core_subqueries(core, order_by)
                    .into_iter()
                    .map(StmtPlans::new)
                    .collect(),
            })),
            ast::SetExpr::Op { left, right, .. } => SetPlans::Op(
                Box::new(SetPlans::new(left, &[])),
                Box::new(SetPlans::new(right, &[])),
            ),
        }
    }

    /// The slot of a single-core body.
    pub(crate) fn core(&self) -> Option<&CoreSlot> {
        match self {
            SetPlans::Core(slot) => Some(slot),
            SetPlans::Op(..) => None,
        }
    }
}

/// A SELECT core compiled for execution — its FROM plan and output
/// [`Shape`], both with bind slots — and what it was planned from.
pub(crate) struct CorePlan {
    pub(crate) from: FromPlan,
    pub(crate) shape: Arc<Shape>,
    /// The database's plan epoch, read before planning began.
    pub(crate) epoch: u64,
    /// The bind values planning looked at.
    pub(crate) guards: Vec<Guard>,
    /// The join-order model and the order it gave, if there was a choice.
    pub(crate) order: Option<(OrderModel, Vec<usize>)>,
}

impl CorePlan {
    /// Whether planning afresh now — with these binds and `derived` tables
    /// — would build this plan again (see the module docs).
    fn is_current(&self, env: &Env<'_>, derived: &[Arc<Relation>]) -> bool {
        self.epoch == env.db.plan_epoch()
            && self.guards.iter().all(|g| g.holds(env.params))
            && self
                .order
                .as_ref()
                .is_none_or(|(model, order)| model.current(env, derived) == *order)
    }
}

impl CoreSlot {
    /// The core's plan for this execution: the cached one when it is
    /// current, else a fresh one from `build`, which replaces it.
    pub(crate) fn plan(
        &self,
        env: &Env<'_>,
        derived: &[Arc<Relation>],
        build: impl FnOnce() -> Result<CorePlan>,
    ) -> Result<Arc<CorePlan>> {
        let cached = unpoison(self.plan.read()).clone();
        if let Some(plan) = cached {
            if plan.is_current(env, derived) {
                env.db.count_plan(true);
                return Ok(plan);
            }
        }
        env.db.count_plan(false);
        let plan = Arc::new(build()?);
        *unpoison(self.plan.write()) = Some(plan.clone());
        Ok(plan)
    }
}

/// One DML statement's compiled target, and the slots of the statements
/// nested in it.
pub(crate) struct DmlSlot {
    /// As [`CoreSlot`]'s: read on every execution, swapped on a recompile.
    plan: RwLock<Option<Arc<DmlPlan>>>,
    /// One per IN subquery, in [`dml_subqueries`] order.
    pub(crate) subqueries: Vec<StmtPlans>,
    /// An `INSERT … SELECT`'s source.
    pub(crate) source: Option<StmtPlans>,
}

/// A DML statement compiled against its target table's columns, with bind
/// slots for parameters and IN-subquery results.
pub(crate) struct DmlPlan {
    pub(crate) target: Target,
    /// The database's plan epoch, read before compiling began.
    epoch: u64,
}

/// What a [`DmlPlan`] does to its table.
pub(crate) enum Target {
    Insert {
        /// The VALUES rows (none for `INSERT … SELECT`).
        values: Vec<Vec<Expr>>,
        /// The table's columns, resolved by the first execution that gets
        /// as far as writing.
        into: OnceLock<InsertInto>,
    },
    Update {
        /// The table's lower-cased name.
        table: String,
        filter: Option<Expr>,
        /// `(column, value)` per assignment, in statement order.
        assignments: Vec<(usize, Expr)>,
    },
    Delete {
        table: String,
        filter: Option<Expr>,
    },
}

/// Where an INSERT's source values go. It is resolved under the table's
/// write lock, after the source rows are made, so a failing source is
/// reported before an unknown table or column.
pub(crate) struct InsertInto {
    /// The table's lower-cased name.
    pub(crate) table: String,
    /// The table column of each value of a source row, when the statement
    /// lists columns.
    pub(crate) mapping: Option<Vec<usize>>,
    /// The table's column count.
    pub(crate) arity: usize,
}

impl InsertInto {
    pub(crate) fn resolve(schema: &TableSchema, columns: Option<&[String]>) -> Result<InsertInto> {
        let mapping = columns
            .map(|cols| cols.iter().map(|c| column(schema, c)).collect())
            .transpose()?;
        Ok(InsertInto {
            table: schema.name.clone(),
            mapping,
            arity: schema.arity(),
        })
    }
}

impl DmlSlot {
    fn new(stmt: &Statement) -> DmlSlot {
        let source = match stmt {
            Statement::Insert {
                source: ast::InsertSource::Select(query),
                ..
            } => Some(StmtPlans::new(query)),
            _ => None,
        };
        DmlSlot {
            plan: RwLock::new(None),
            subqueries: dml_subqueries(stmt)
                .into_iter()
                .map(StmtPlans::new)
                .collect(),
            source,
        }
    }

    /// The statement's plan for this execution: the cached one while the
    /// plan epoch has not moved, else a fresh one from `build`, which
    /// replaces it.
    pub(crate) fn plan(
        &self,
        db: &Database,
        build: impl FnOnce() -> Result<DmlPlan>,
    ) -> Result<Arc<DmlPlan>> {
        let cached = unpoison(self.plan.read()).clone();
        if let Some(plan) = cached {
            if plan.epoch == db.plan_epoch() {
                return Ok(plan);
            }
        }
        let plan = Arc::new(build()?);
        *unpoison(self.plan.write()) = Some(plan.clone());
        Ok(plan)
    }
}

impl DmlPlan {
    /// Compile `stmt`, an INSERT, UPDATE or DELETE. An UPDATE or DELETE
    /// compiles against its table's columns as they are now, in statement
    /// order — the filter, then each assignment's column and value — so the
    /// first unknown one is the one reported. An INSERT compiles only its
    /// VALUES here; its table and columns resolve at the write
    /// ([`InsertInto`]).
    pub(crate) fn compile(db: &Database, stmt: &Statement) -> Result<DmlPlan> {
        let epoch = db.plan_epoch();
        let target = match stmt {
            Statement::Insert { source, .. } => {
                let values = match source {
                    ast::InsertSource::Values(rows) => {
                        let none = Scope::default();
                        rows.iter()
                            .map(|row| row.iter().map(|e| compile_expr(&none, e)).collect())
                            .collect::<Result<_>>()?
                    }
                    ast::InsertSource::Select(_) => Vec::new(),
                };
                Target::Insert {
                    values,
                    into: OnceLock::new(),
                }
            }
            Statement::Update { table, filter, .. } | Statement::Delete { table, filter } => {
                db.read_table(table, |t| {
                    // The table is addressable by its own name.
                    let mut scope = Scope::default();
                    let names = t.schema.columns.iter().map(|c| c.name.clone());
                    scope.push(&t.schema.name, names.collect());
                    let filter = filter
                        .as_ref()
                        .map(|f| compile_expr(&scope, f))
                        .transpose()?;
                    let table = t.schema.name.clone();
                    Ok(match stmt {
                        Statement::Update { assignments, .. } => Target::Update {
                            table,
                            filter,
                            assignments: assignments
                                .iter()
                                .map(|(c, e)| Ok((column(&t.schema, c)?, compile_expr(&scope, e)?)))
                                .collect::<Result<_>>()?,
                        },
                        _ => Target::Delete { table, filter },
                    })
                })?
            }
            _ => unreachable!("DmlPlan::compile takes INSERT, UPDATE or DELETE"),
        };
        Ok(DmlPlan { target, epoch })
    }
}

fn column(schema: &TableSchema, name: &str) -> Result<usize> {
    schema
        .column_index(name)
        .ok_or_else(|| Error::NotFound(format!("column '{name}'")))
}

/// A DML statement's IN subqueries in a fixed order: the filter's, then
/// each assignment's, or each VALUES row's in turn.
pub(crate) fn dml_subqueries(stmt: &Statement) -> Vec<&ast::SelectStmt> {
    let mut out = Vec::new();
    match stmt {
        Statement::Update {
            assignments,
            filter,
            ..
        } => {
            let exprs = filter.iter().chain(assignments.iter().map(|(_, e)| e));
            exprs.for_each(|e| expr_subqueries(e, &mut out));
        }
        Statement::Delete { filter, .. } => {
            filter.iter().for_each(|e| expr_subqueries(e, &mut out));
        }
        Statement::Insert {
            source: ast::InsertSource::Values(rows),
            ..
        } => rows
            .iter()
            .flatten()
            .for_each(|e| expr_subqueries(e, &mut out)),
        _ => {}
    }
    out
}

/// The identity of an IN subquery within its statement: the address of its
/// AST node. Plans record it in [`crate::expr::Expr::InSubquery`]; a plan is
/// only ever bound against the statement it was built from, which its
/// cache entry keeps alive and unchanged.
pub(crate) fn subquery_id(query: &ast::SelectStmt) -> usize {
    query as *const ast::SelectStmt as usize
}

/// A core's derived tables (FROM subqueries), in FROM order — the order
/// planning numbers them in.
pub(crate) fn core_derived(core: &ast::SelectCore) -> Vec<&ast::SelectStmt> {
    fn walk<'q>(item: &'q ast::FromItem, out: &mut Vec<&'q ast::SelectStmt>) {
        match item {
            ast::FromItem::Join { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
            ast::FromItem::Subquery { query, .. } => out.push(query),
            _ => {}
        }
    }
    let mut out = Vec::new();
    for item in &core.from {
        walk(item, &mut out);
    }
    out
}

/// A core's IN subqueries in a fixed order: the projections, the FROM
/// list, WHERE, GROUP BY, HAVING, then `order_by`. Subqueries nested inside
/// one of them belong to that subquery's own cores.
pub(crate) fn core_subqueries<'q>(
    core: &'q ast::SelectCore,
    order_by: &'q [(ast::Expr, bool)],
) -> Vec<&'q ast::SelectStmt> {
    fn from<'q>(item: &'q ast::FromItem, out: &mut Vec<&'q ast::SelectStmt>) {
        match item {
            ast::FromItem::Join {
                left, right, on, ..
            } => {
                from(left, out);
                from(right, out);
                expr_subqueries(on, out);
            }
            ast::FromItem::LateralValues { rows, .. } => {
                rows.iter().flatten().for_each(|e| expr_subqueries(e, out))
            }
            ast::FromItem::LateralFunc { args, .. } => {
                args.iter().for_each(|e| expr_subqueries(e, out))
            }
            ast::FromItem::Table { .. } | ast::FromItem::Subquery { .. } => {}
        }
    }
    let mut out = Vec::new();
    for p in &core.projections {
        if let ast::Projection::Expr { expr, .. } = p {
            expr_subqueries(expr, &mut out);
        }
    }
    for item in &core.from {
        from(item, &mut out);
    }
    let clauses = core.filter.iter().chain(&core.group_by).chain(&core.having);
    for e in clauses.chain(order_by.iter().map(|(e, _)| e)) {
        expr_subqueries(e, &mut out);
    }
    out
}

/// The IN subqueries of `e`, outermost first.
pub(crate) fn expr_subqueries<'q>(e: &'q ast::Expr, out: &mut Vec<&'q ast::SelectStmt>) {
    match e {
        ast::Expr::InSubquery { expr, query, .. } => {
            out.push(query);
            expr_subqueries(expr, out);
        }
        ast::Expr::Literal(_)
        | ast::Expr::Param(_)
        | ast::Expr::Column { .. }
        | ast::Expr::CountStar => {}
        ast::Expr::Unary(_, x) | ast::Expr::IsNull(x, _) | ast::Expr::Cast(x, _) => {
            expr_subqueries(x, out)
        }
        ast::Expr::Binary(_, l, r) | ast::Expr::Subscript(l, r) => {
            expr_subqueries(l, out);
            expr_subqueries(r, out);
        }
        ast::Expr::Like { expr, pattern, .. } => {
            expr_subqueries(expr, out);
            expr_subqueries(pattern, out);
        }
        ast::Expr::InList { expr, list, .. } => {
            expr_subqueries(expr, out);
            list.iter().for_each(|i| expr_subqueries(i, out));
        }
        ast::Expr::Between { expr, lo, hi, .. } => {
            expr_subqueries(expr, out);
            expr_subqueries(lo, out);
            expr_subqueries(hi, out);
        }
        ast::Expr::Call { args, .. } => args.iter().for_each(|a| expr_subqueries(a, out)),
    }
}
