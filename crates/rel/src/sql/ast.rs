//! Parsed (name-based) SQL abstract syntax.

use crate::expr::{BinaryOp, UnaryOp};
use crate::index::IndexKind;
use crate::schema::ColumnType;
use crate::value::{CastType, Value};

/// A complete SQL statement.
#[derive(Debug, Clone)]
pub enum Statement {
    /// `SELECT ...` (possibly with a `WITH` prologue).
    Select(SelectStmt),
    /// `INSERT INTO t [(cols)] VALUES ... | SELECT ...`
    Insert {
        /// Target table name.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// Row source.
        source: InsertSource,
    },
    /// `UPDATE t SET c = e, ... [WHERE p]`
    Update {
        /// Target table.
        table: String,
        /// Column assignments.
        assignments: Vec<(String, Expr)>,
        /// Optional predicate.
        filter: Option<Expr>,
    },
    /// `DELETE FROM t [WHERE p]`
    Delete {
        /// Target table.
        table: String,
        /// Optional predicate.
        filter: Option<Expr>,
    },
    /// `CREATE TABLE [IF NOT EXISTS] t (col TYPE [PRIMARY KEY], ...)`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions; the bool marks PRIMARY KEY.
        columns: Vec<(String, ColumnType, bool)>,
        /// Suppress the duplicate-table error.
        if_not_exists: bool,
    },
    /// `CREATE [UNIQUE] INDEX [IF NOT EXISTS] i ON t (key, ...) [USING
    /// HASH|BTREE]` — each key is a column or `JSON_VAL(col, 'member')`
    /// (functional index).
    CreateIndex {
        /// Index name.
        name: String,
        /// Table name.
        table: String,
        /// Key definitions in order.
        columns: Vec<IndexColumn>,
        /// Unique constraint.
        unique: bool,
        /// Physical kind (default hash).
        kind: IndexKind,
        /// Suppress the duplicate-index error.
        if_not_exists: bool,
    },
    /// `DROP TABLE [IF EXISTS] t`
    DropTable {
        /// Table name.
        name: String,
        /// Suppress the missing-table error.
        if_exists: bool,
    },
    /// `EXPLAIN SELECT ...` — run the query, returning the executor's
    /// access-path decisions instead of the rows.
    Explain(SelectStmt),
    /// `EXPLAIN ANALYZE SELECT ...` — `EXPLAIN` with each operator's wall
    /// time.
    ExplainAnalyze(SelectStmt),
    /// `ANALYZE [t]` — collect exact per-column distinct-value statistics
    /// for one table (or every table) to feed the cost-based planner.
    Analyze {
        /// Target table; `None` analyzes every table.
        table: Option<String>,
    },
}

/// One index key definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexColumn {
    /// The column indexed.
    pub column: String,
    /// `Some(member)` for a `JSON_VAL(column, 'member')` functional key.
    pub json_key: Option<String>,
}

/// Row source for INSERT.
#[derive(Debug, Clone)]
pub enum InsertSource {
    /// Literal rows.
    Values(Vec<Vec<Expr>>),
    /// Rows produced by a query.
    Select(Box<SelectStmt>),
}

/// A query: optional CTEs, a set-expression body, and trailing clauses.
#[derive(Debug, Clone)]
pub struct SelectStmt {
    /// `WITH name AS (query), ...` — each CTE may reference earlier ones.
    pub ctes: Vec<(String, SelectStmt)>,
    /// The body.
    pub body: SetExpr,
    /// `ORDER BY expr [DESC], ...`
    pub order_by: Vec<(Expr, bool)>,
    /// `LIMIT n`
    pub limit: Option<Expr>,
    /// `OFFSET n`
    pub offset: Option<Expr>,
}

/// Body of a query: a single SELECT core or a set operation tree.
#[derive(Debug, Clone)]
pub enum SetExpr {
    /// A plain `SELECT`.
    Select(Box<SelectCore>),
    /// `left UNION [ALL] right`, etc. Set ops without ALL deduplicate.
    Op {
        /// Which set operation.
        op: SetOp,
        /// Keep duplicates (only meaningful for UNION).
        all: bool,
        /// Left input.
        left: Box<SetExpr>,
        /// Right input.
        right: Box<SetExpr>,
    },
}

/// Set operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// UNION.
    Union,
    /// INTERSECT.
    Intersect,
    /// EXCEPT.
    Except,
}

/// One `SELECT ... FROM ... WHERE ... GROUP BY ...` block.
#[derive(Debug, Clone)]
pub struct SelectCore {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Projection list.
    pub projections: Vec<Projection>,
    /// Comma-separated FROM items (each possibly a JOIN tree). Empty for
    /// table-less selects (`SELECT 1`).
    pub from: Vec<FromItem>,
    /// WHERE predicate.
    pub filter: Option<Expr>,
    /// GROUP BY keys (empty + aggregates in projection = scalar aggregate).
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// The CTEs `prepared::inlined` merged into this core (none if parsed).
    pub inlined: Vec<String>,
}

/// One element of the projection list.
#[derive(Debug, Clone)]
pub enum Projection {
    /// `*`
    Wildcard,
    /// `t.*`
    TableWildcard(String),
    /// `expr [AS alias]`
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional alias.
        alias: Option<String>,
    },
}

/// A FROM-clause item.
#[derive(Debug, Clone)]
pub enum FromItem {
    /// A named table (base table or CTE) with optional alias.
    Table {
        /// Table or CTE name.
        name: String,
        /// Alias (defaults to the name).
        alias: Option<String>,
    },
    /// A parenthesized subquery with mandatory alias.
    Subquery {
        /// The subquery.
        query: Box<SelectStmt>,
        /// Alias for the derived table.
        alias: String,
    },
    /// `TABLE (VALUES (e), (e), ...) AS t(c)` — a *lateral* row constructor:
    /// the expressions may reference columns of FROM items to the left.
    /// This is the unnest device the paper's adjacency templates use to turn
    /// the `VAL0..VALn` column triads back into rows.
    LateralValues {
        /// One row per parenthesized group; all rows must have equal arity.
        rows: Vec<Vec<Expr>>,
        /// Alias.
        alias: String,
        /// Output column names.
        columns: Vec<String>,
    },
    /// `TABLE (FUNC(args...)) AS t(c, ...)` — a lateral table function.
    /// Arguments may reference columns of FROM items to the left; the
    /// function emits zero or more rows per input row. The built-in
    /// `JSON_EDGES(doc [, label])` unnests a JSON adjacency document of the
    /// form `{"label": [{"eid": e, "val": v}, ...]}` into `(lbl, eid, val)`
    /// rows — the query device for the paper's JSON-adjacency comparison.
    LateralFunc {
        /// Function name.
        func: String,
        /// Argument expressions (lateral: may reference earlier FROM items).
        args: Vec<Expr>,
        /// Alias.
        alias: String,
        /// Output column names.
        columns: Vec<String>,
    },
    /// An explicit JOIN tree.
    Join {
        /// Left input.
        left: Box<FromItem>,
        /// Right input.
        right: Box<FromItem>,
        /// Join kind.
        kind: JoinKind,
        /// ON predicate.
        on: Expr,
    },
}

/// Join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// INNER JOIN.
    Inner,
    /// LEFT [OUTER] JOIN.
    LeftOuter,
}

/// A name-based expression (pre-resolution).
#[derive(Debug, Clone)]
pub enum Expr {
    /// Literal.
    Literal(Value),
    /// `?` positional parameter (0-based index).
    Param(usize),
    /// Column reference, optionally qualified.
    Column {
        /// Qualifier (table alias).
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// Unary op.
    Unary(UnaryOp, Box<Expr>),
    /// Binary op.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// `IS [NOT] NULL`.
    IsNull(Box<Expr>, bool),
    /// `[NOT] LIKE`.
    Like {
        /// Scrutinee.
        expr: Box<Expr>,
        /// Pattern.
        pattern: Box<Expr>,
        /// NOT LIKE.
        negated: bool,
    },
    /// `[NOT] IN (e, e, ...)`.
    InList {
        /// Scrutinee.
        expr: Box<Expr>,
        /// Candidate expressions.
        list: Vec<Expr>,
        /// NOT IN.
        negated: bool,
    },
    /// `[NOT] IN (SELECT ...)`.
    InSubquery {
        /// Scrutinee.
        expr: Box<Expr>,
        /// Single-column subquery.
        query: Box<SelectStmt>,
        /// NOT IN.
        negated: bool,
    },
    /// `[NOT] BETWEEN lo AND hi`.
    Between {
        /// Scrutinee.
        expr: Box<Expr>,
        /// Low bound (inclusive).
        lo: Box<Expr>,
        /// High bound (inclusive).
        hi: Box<Expr>,
        /// NOT BETWEEN.
        negated: bool,
    },
    /// Function call — scalar or aggregate, disambiguated by the planner.
    Call {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// `COUNT(DISTINCT e)` flag.
        distinct: bool,
    },
    /// `COUNT(*)`.
    CountStar,
    /// `CAST(e AS T)`.
    Cast(Box<Expr>, CastType),
    /// Array subscript `e[i]`.
    Subscript(Box<Expr>, Box<Expr>),
}
