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
//! A DML statement has one [`DmlSlot`] instead. An UPDATE or DELETE plans
//! its filter as the WHERE of a one-table SELECT core over its target, by
//! the same [`crate::plan::plan_from`] — access path, pushed filters and
//! residual — with nothing pruned, and compiles its assignments against
//! that core's scope; an INSERT compiles its VALUES rows. The plan has the
//! same bind slots and is checked the same way, against the plan epoch and
//! its guards. Its rows are found through the same index lookups and key
//! re-checks as a SELECT scan's ([`crate::exec::target_rows`]).

use crate::error::{Error, Result};
use crate::exec::{compile_expr, Env, Relation, Scope, Shape};
use crate::expr::Expr;
use crate::plan::{self, FromPlan, Guard, Needs, OrderModel};
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
    pub(crate) shape: Shape,
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

/// A DML statement compiled against its target table, with bind slots for
/// parameters and IN-subquery results.
pub(crate) struct DmlPlan {
    pub(crate) target: Target,
    /// The database's plan epoch, read before compiling began.
    epoch: u64,
    /// The bind values planning the filter looked at.
    guards: Vec<Guard>,
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
        /// The filter's one-table plan: which rows are written.
        from: FromPlan,
        /// `(column, value)` per assignment, in statement order.
        assignments: Vec<(usize, Expr)>,
    },
    Delete {
        table: String,
        from: FromPlan,
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
    /// plan epoch has not moved and its guards hold for these binds, else a
    /// fresh one from `build`, which replaces it. Not counted in
    /// [`Database::plan_cache_stats`](crate::Database::plan_cache_stats),
    /// which counts SELECT cores.
    pub(crate) fn plan(
        &self,
        env: &Env<'_>,
        build: impl FnOnce() -> Result<DmlPlan>,
    ) -> Result<Arc<DmlPlan>> {
        let cached = unpoison(self.plan.read()).clone();
        if let Some(plan) = cached {
            let guarded = plan.guards.iter().all(|g| g.holds(env.params));
            if plan.epoch == env.db.plan_epoch() && guarded {
                return Ok(plan);
            }
        }
        let plan = Arc::new(build()?);
        *unpoison(self.plan.write()) = Some(plan.clone());
        Ok(plan)
    }
}

impl DmlPlan {
    /// Compile `stmt`, an INSERT, UPDATE or DELETE, with `env`'s binds. An
    /// UPDATE or DELETE plans against its table as it is now, in statement
    /// order — the filter, then each assignment's column and value — so the
    /// first unknown one is the one reported. An INSERT compiles only its
    /// VALUES here; its table and columns resolve at the write
    /// ([`InsertInto`]).
    pub(crate) fn compile(env: &Env<'_>, stmt: &Statement) -> Result<DmlPlan> {
        let epoch = env.db.plan_epoch();
        let mut guards = Vec::new();
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
                // The filter is the WHERE of `SELECT * FROM table`: every
                // column is kept, as rows are checked and written whole.
                // Planning takes the table's read lock itself.
                let item = ast::FromItem::Table {
                    name: table.clone(),
                    alias: None,
                };
                let from = std::slice::from_ref(&item);
                let planned =
                    plan::plan_from(env, from, filter.as_ref(), &Needs::all(), &[], &mut guards)?;
                let from = planned.from;
                let table = table.to_ascii_lowercase();
                match stmt {
                    Statement::Update { assignments, .. } => Target::Update {
                        table,
                        from,
                        assignments: assignments
                            .iter()
                            .map(|(c, e)| {
                                let col = planned.scope.resolve(None, c)?;
                                Ok((col, compile_expr(&planned.scope, e)?))
                            })
                            .collect::<Result<_>>()?,
                    },
                    _ => Target::Delete { table, from },
                }
            }
            _ => unreachable!("DmlPlan::compile takes INSERT, UPDATE or DELETE"),
        };
        Ok(DmlPlan {
            target,
            epoch,
            guards,
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::plan::{Access, StepKind};
    use crate::sql::parse_statement;
    use crate::txn::Snapshot;
    use crate::value::Value;

    /// The tables `core::schema::create_tables` makes, with one triad, plus
    /// a B-tree functional index on a vertex attribute.
    fn store_db() -> Database {
        let db = Database::new();
        for sql in [
            "CREATE TABLE opa (rowno INTEGER, vid INTEGER, spill INTEGER, \
             lbl0 TEXT, eid0 INTEGER, val0 INTEGER)",
            "CREATE UNIQUE INDEX opa_rowno ON opa (rowno) USING HASH",
            "CREATE INDEX opa_vid ON opa (vid) USING HASH",
            "CREATE TABLE osa (valid INTEGER, eid INTEGER, val INTEGER)",
            "CREATE INDEX osa_valid ON osa (valid) USING HASH",
            "CREATE INDEX osa_valid_val ON osa (valid, val) USING HASH",
            "CREATE TABLE va (vid INTEGER PRIMARY KEY, attr JSON)",
            "CREATE TABLE ea (eid INTEGER PRIMARY KEY, inv INTEGER, outv INTEGER, \
             lbl TEXT, attr JSON)",
            "CREATE INDEX ea_inv_lbl ON ea (inv, lbl) USING HASH",
            "CREATE INDEX ea_outv_lbl ON ea (outv, lbl) USING HASH",
            "CREATE INDEX va_attr_age ON va (JSON_VAL(attr, 'age')) USING BTREE",
        ] {
            db.execute(sql).unwrap();
        }
        db
    }

    /// The access path of `sql`'s target plan, its index, how many filters
    /// its candidates pass through, and whether planning looked at a bind.
    fn target(db: &Database, sql: &str, params: &[Value]) -> (&'static str, String, usize, bool) {
        let env = Env::with_snap(db, params, Snapshot::latest());
        let plan = DmlPlan::compile(&env, &parse_statement(sql).unwrap()).unwrap();
        let (Target::Update { from, .. } | Target::Delete { from, .. }) = &plan.target else {
            panic!("{sql}: not an UPDATE or DELETE");
        };
        let StepKind::Scan { access, locals, .. } = &from.steps[0].kind else {
            panic!("{sql}: not a scan");
        };
        let filters = locals.len() + from.steps[0].after.len() + from.residual.len();
        let (path, index) = match access {
            Access::Point { index, .. } => ("point", index.clone()),
            Access::Range { index, .. } => ("range", index.clone()),
            Access::Full => ("full", String::new()),
            Access::Probe { index, .. } | Access::Csr { index, .. } => ("probe", index.clone()),
        };
        (path, index, filters, !plan.guards.is_empty())
    }

    #[test]
    fn prepared_dml_targets_of_the_store_take_the_planned_access_path() {
        let db = store_db();
        let i = Value::Int;
        let two = [i(1), i(2)];
        let three = [i(1), i(2), i(3)];
        let cleanup = "DELETE FROM osa WHERE valid NOT IN (SELECT t.v FROM opa p, \
                       TABLE(VALUES (p.val0)) AS t(v) WHERE t.v >= 1000)";
        for (sql, params, want) in [
            (
                "UPDATE opa SET eid0 = NULL, val0 = ? WHERE rowno = ?",
                &two[..],
                ("point", "opa_rowno", 0),
            ),
            (
                "UPDATE opa SET lbl0 = NULL, eid0 = NULL, val0 = NULL WHERE rowno = ?",
                &two[..1],
                ("point", "opa_rowno", 0),
            ),
            (
                "DELETE FROM osa WHERE valid = ? AND val = ? AND eid = ?",
                &three[..],
                ("point", "osa_valid_val", 1),
            ),
            (
                "DELETE FROM ea WHERE eid = ?",
                &two[..1],
                ("point", "ea_pk_eid", 0),
            ),
            // A key computed from no column plans as a probe, which the
            // target scan reads as a point.
            (
                "DELETE FROM ea WHERE eid = -1",
                &[],
                ("probe", "ea_pk_eid", 0),
            ),
            (
                "UPDATE ea SET attr = ? WHERE eid = ?",
                &two[..],
                ("point", "ea_pk_eid", 0),
            ),
            (
                "UPDATE va SET vid = ? WHERE vid = ?",
                &two[..],
                ("point", "va_pk_vid", 0),
            ),
            (
                "UPDATE opa SET vid = ? WHERE vid = ?",
                &two[..],
                ("point", "opa_vid", 0),
            ),
            // `vid` has hash indexes only: a range over it is a full scan.
            ("DELETE FROM va WHERE vid < 0", &[], ("full", "", 1)),
            ("DELETE FROM opa WHERE vid < 0", &[], ("full", "", 1)),
            (cleanup, &[], ("full", "", 1)),
            // A B-tree serves a range on its key.
            (
                "DELETE FROM va WHERE JSON_VAL(attr, 'age') > ? AND JSON_VAL(attr, 'age') <= ?",
                &two[..],
                ("range", "va_attr_age", 2),
            ),
        ] {
            let (path, index, filters, _) = target(&db, sql, params);
            assert_eq!((path, index.as_str(), filters), want, "{sql}");
        }
        // The probe finds its row as a point does.
        db.execute("INSERT INTO ea VALUES (-1, 0, 0, 'l', NULL), (1, 0, 0, 'l', NULL)")
            .unwrap();
        let deleted = db.execute("DELETE FROM ea WHERE eid = -1").unwrap().rows;
        assert_eq!(deleted, vec![vec![i(1)]]);
        // A bound JSON member picks the functional index, and is guarded.
        let sql = "UPDATE va SET attr = NULL WHERE JSON_VAL(attr, ?) = ?";
        let age = target(&db, sql, &[Value::str("age"), i(3)]);
        assert_eq!(age, ("point", "va_attr_age".into(), 0, true), "{sql}");
        let name = target(&db, sql, &[Value::str("name"), i(3)]);
        assert_eq!(name, ("full", String::new(), 1, true), "{sql}");
    }
}
