//! Compiled (column-resolved) expressions and their evaluator.
//!
//! The SQL parser produces name-based expressions (`crate::sql::ast::Expr`);
//! the planner resolves names against the FROM scope and emits this compact
//! form where column references are offsets into the executor's flattened
//! row. Evaluation is row-at-a-time.

use crate::codec::MAX_DEPTH;
use crate::error::{Error, Result};
use crate::hasher::{FxHashMap, FxHashSet};
use crate::value::{CastType, Value};
use sqlgraph_json::Json;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean NOT (three-valued: NOT NULL is NULL).
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer / integer stays integral; division by zero is NULL).
    Div,
    /// Modulo.
    Mod,
    /// Equality (`=`).
    Eq,
    /// Inequality (`<>` / `!=`).
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical AND (three-valued).
    And,
    /// Logical OR (three-valued).
    Or,
    /// `||`: string concatenation, or array append/concatenation.
    Concat,
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    /// `JSON_VAL(doc, key)`: extract a scalar from a JSON document.
    JsonVal,
    /// `COALESCE(a, b, ...)`: first non-NULL argument.
    Coalesce,
    /// `LENGTH(s)`: string length in characters, or array length.
    Length,
    /// `LOWER(s)`.
    Lower,
    /// `UPPER(s)`.
    Upper,
    /// `SUBSTR(s, start1, len)`: 1-based start, like SQL.
    Substr,
    /// `ABS(n)`.
    Abs,
    /// `ARRAY(a, b, ...)`: construct an array value.
    Array,
    /// `IS_SIMPLE_PATH(arr)`: 1 if the array has no repeated elements —
    /// the UDF backing Gremlin's `simplePath()` (paper §4.3, filter pipes).
    IsSimplePath,
    /// `JSON_KEYS(doc)`: array of the document's top-level keys.
    JsonKeys,
    /// `ELEMENT_AT(arr, i)`: 0-based array access (NULL out of range).
    ElementAt,
    /// `ARRAY_APPEND(arr, v)`: append `v` as a single element (unlike `||`,
    /// which concatenates when `v` is itself an array). This is the path
    /// accumulator in the Gremlin translation.
    ArrayAppend,
}

impl Func {
    /// Resolve a function name (case-insensitive).
    pub fn parse(name: &str) -> Option<Func> {
        Some(match name.to_ascii_uppercase().as_str() {
            "JSON_VAL" => Func::JsonVal,
            "COALESCE" => Func::Coalesce,
            "LENGTH" => Func::Length,
            "LOWER" => Func::Lower,
            "UPPER" => Func::Upper,
            "SUBSTR" | "SUBSTRING" => Func::Substr,
            "ABS" => Func::Abs,
            "ARRAY" => Func::Array,
            "IS_SIMPLE_PATH" | "ISSIMPLEPATH" => Func::IsSimplePath,
            "JSON_KEYS" => Func::JsonKeys,
            "ELEMENT_AT" => Func::ElementAt,
            "ARRAY_APPEND" => Func::ArrayAppend,
            _ => return None,
        })
    }
}

/// A compiled expression.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Literal constant.
    Const(Value),
    /// Column offset into the executor row.
    Col(usize),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// `e IS NULL` / `e IS NOT NULL` (negated = true).
    IsNull(Box<Expr>, bool),
    /// `e LIKE pattern` (pattern evaluated per row; usually constant).
    Like {
        /// Scrutinee.
        expr: Box<Expr>,
        /// Pattern with `%`/`_` wildcards.
        pattern: Box<Expr>,
        /// True for NOT LIKE.
        negated: bool,
    },
    /// `e IN (v1, v2, ...)` against a precomputed set (list literals and
    /// materialized subqueries both compile to this).
    InSet {
        /// Scrutinee.
        expr: Box<Expr>,
        /// The membership set (canonical Value equality).
        set: Arc<FxHashSet<Value>>,
        /// True for NOT IN.
        negated: bool,
    },
    /// Scalar function call.
    Call(Func, Vec<Expr>),
    /// `CAST(e AS T)`.
    Cast(Box<Expr>, CastType),
    /// Array subscript `e[i]`, 0-based.
    Subscript(Box<Expr>, Box<Expr>),
    /// A bind slot: the `?` parameter with this 0-based index. Plans are
    /// compiled with slots so they outlive one execution's values;
    /// [`Expr::bind`] fills them.
    Param(usize),
    /// A bind slot for `e IN (v, ?, …)` whose list holds parameters:
    /// [`Expr::bind`] turns it into the [`Expr::InSet`] that inline values
    /// compile to.
    InParams {
        /// Scrutinee.
        expr: Box<Expr>,
        /// Constants and [`Expr::Param`]s.
        list: Vec<Expr>,
        /// True for NOT IN.
        negated: bool,
    },
    /// A bind slot for `e IN (SELECT …)`: the uncorrelated subquery runs
    /// once per execution and [`Expr::bind`] installs its result as an
    /// [`Expr::InSet`].
    InSubquery {
        /// Scrutinee.
        expr: Box<Expr>,
        /// Which subquery: [`Binds::sets`] is keyed by this id.
        query: usize,
        /// True for NOT IN.
        negated: bool,
    },
}

/// What one execution fills a plan's bind slots with.
pub(crate) struct Binds<'a> {
    /// Positional parameter values.
    pub(crate) params: &'a [Value],
    /// The result set of each IN subquery, by subquery id.
    pub(crate) sets: FxHashMap<usize, Arc<FxHashSet<Value>>>,
}

/// [`Expr::bound`] of each of `exprs`, borrowing the slice itself when none
/// has a slot.
pub(crate) fn bound_all<'e>(exprs: &'e [Expr], b: &Binds<'_>) -> Result<Cow<'e, [Expr]>> {
    Ok(match exprs.iter().any(Expr::has_slots) {
        true => Cow::Owned(exprs.iter().map(|e| e.bind(b)).collect::<Result<_>>()?),
        false => Cow::Borrowed(exprs),
    })
}

/// The membership set `IN` compiles to: NULLs can never match, so they are
/// left out.
pub(crate) fn in_set(values: impl IntoIterator<Item = Value>) -> Arc<FxHashSet<Value>> {
    Arc::new(values.into_iter().filter(|v| !v.is_null()).collect())
}

impl Expr {
    /// Whether the expression holds a bind slot ([`Expr::Param`],
    /// [`Expr::InParams`], [`Expr::InSubquery`]).
    pub(crate) fn has_slots(&self) -> bool {
        match self {
            Expr::Param(_) | Expr::InParams { .. } | Expr::InSubquery { .. } => true,
            Expr::Const(_) | Expr::Col(_) => false,
            Expr::Unary(_, e) | Expr::IsNull(e, _) | Expr::Cast(e, _) => e.has_slots(),
            Expr::Binary(_, l, r) | Expr::Subscript(l, r) => l.has_slots() || r.has_slots(),
            Expr::Like { expr, pattern, .. } => expr.has_slots() || pattern.has_slots(),
            Expr::InSet { expr, .. } => expr.has_slots(),
            Expr::Call(_, args) => args.iter().any(Expr::has_slots),
        }
    }

    /// A copy with every bind slot filled from `b`: the expression planning
    /// would have compiled had the values been written inline.
    pub(crate) fn bind(&self, b: &Binds<'_>) -> Result<Expr> {
        let bx = |e: &Expr| e.bind(b).map(Box::new);
        Ok(match self {
            Expr::Const(_) | Expr::Col(_) => self.clone(),
            Expr::Param(i) => Expr::Const(
                b.params
                    .get(*i)
                    .cloned()
                    .ok_or_else(|| Error::Invalid(format!("missing parameter ${}", i + 1)))?,
            ),
            Expr::InParams {
                expr,
                list,
                negated,
            } => {
                let mut values = Vec::with_capacity(list.len());
                for item in list {
                    match item.bind(b)? {
                        Expr::Const(v) => values.push(v),
                        other => unreachable!("IN list slot holds {other:?}"),
                    }
                }
                Expr::InSet {
                    expr: bx(expr)?,
                    set: in_set(values),
                    negated: *negated,
                }
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => Expr::InSet {
                expr: bx(expr)?,
                set: b
                    .sets
                    .get(query)
                    .cloned()
                    .ok_or_else(|| Error::Invalid("IN subquery was not evaluated".into()))?,
                negated: *negated,
            },
            Expr::Unary(op, e) => Expr::Unary(*op, bx(e)?),
            Expr::Binary(op, l, r) => Expr::Binary(*op, bx(l)?, bx(r)?),
            Expr::IsNull(e, negated) => Expr::IsNull(bx(e)?, *negated),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: bx(expr)?,
                pattern: bx(pattern)?,
                negated: *negated,
            },
            Expr::InSet { expr, set, negated } => Expr::InSet {
                expr: bx(expr)?,
                set: set.clone(),
                negated: *negated,
            },
            Expr::Call(f, args) => {
                Expr::Call(*f, args.iter().map(|a| a.bind(b)).collect::<Result<_>>()?)
            }
            Expr::Cast(e, ty) => Expr::Cast(bx(e)?, *ty),
            Expr::Subscript(e, i) => Expr::Subscript(bx(e)?, bx(i)?),
        })
    }

    /// [`Expr::bind`], borrowing the expression itself when it has no slot.
    pub(crate) fn bound(&self, b: &Binds<'_>) -> Result<Cow<'_, Expr>> {
        Ok(match self.has_slots() {
            true => Cow::Owned(self.bind(b)?),
            false => Cow::Borrowed(self),
        })
    }

    /// Evaluate against a flattened row.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        match self {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Col(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| Error::Invalid(format!("column offset {i} out of range"))),
            Expr::Unary(op, e) => eval_unary(*op, e.eval(row)?),
            Expr::Binary(op, l, r) => {
                // Short-circuit AND/OR before evaluating the right side.
                match op {
                    BinaryOp::And | BinaryOp::Or => eval_logic(*op, l, r, row),
                    _ => eval_binary(*op, l.eval(row)?, r.eval(row)?),
                }
            }
            Expr::IsNull(e, negated) => {
                let v = e.eval(row)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval(row)?;
                let p = pattern.eval(row)?;
                match (v, p) {
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    (Value::Str(s), Value::Str(p)) => {
                        Ok(Value::Bool(like_match(&s, &p) != *negated))
                    }
                    (v, p) => Err(Error::Type(format!(
                        "LIKE requires strings, got {} LIKE {}",
                        v.type_name(),
                        p.type_name()
                    ))),
                }
            }
            Expr::InSet { expr, set, negated } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let found = set.contains(&v);
                // SQL subtlety: `x NOT IN (set containing NULL)` is NULL
                // when x is absent; our sets never contain NULL (filtered at
                // build time), so plain boolean logic is correct.
                Ok(Value::Bool(found != *negated))
            }
            Expr::Call(func, args) => eval_call(*func, args, row),
            Expr::Param(_) | Expr::InParams { .. } | Expr::InSubquery { .. } => Err(
                Error::Invalid("evaluating an unbound plan (bind it first)".into()),
            ),
            Expr::Cast(e, ty) => e.eval(row)?.cast(*ty),
            Expr::Subscript(e, i) => {
                let v = e.eval(row)?;
                let idx = i.eval(row)?;
                match (&v, idx.as_int()) {
                    (Value::Null, _) => Ok(Value::Null),
                    (Value::Array(a), Some(i)) if i >= 0 => {
                        Ok(a.get(i as usize).cloned().unwrap_or(Value::Null))
                    }
                    (Value::Array(_), _) => Ok(Value::Null),
                    _ => Err(Error::Type(format!("cannot subscript a {}", v.type_name()))),
                }
            }
        }
    }

    /// Evaluate as a WHERE predicate: NULL (unknown) is false.
    pub fn eval_bool(&self, row: &[Value]) -> Result<bool> {
        Ok(matches!(self.eval(row)?, Value::Bool(true)))
    }

    /// Visit all column offsets referenced by the expression.
    pub fn visit_columns(&self, f: &mut impl FnMut(usize)) {
        match self {
            Expr::Const(_) | Expr::Param(_) => {}
            Expr::Col(i) => f(*i),
            Expr::Unary(_, e) | Expr::IsNull(e, _) | Expr::Cast(e, _) => e.visit_columns(f),
            Expr::Binary(_, l, r) | Expr::Subscript(l, r) => {
                l.visit_columns(f);
                r.visit_columns(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.visit_columns(f);
                pattern.visit_columns(f);
            }
            // IN lists of binds hold no columns.
            Expr::InSet { expr, .. }
            | Expr::InParams { expr, .. }
            | Expr::InSubquery { expr, .. } => expr.visit_columns(f),
            Expr::Call(_, args) => {
                for a in args {
                    a.visit_columns(f);
                }
            }
        }
    }

    /// Rewrite every column offset through `f` — used to re-base a compiled
    /// expression onto a different row layout (e.g. pushing a scan-local
    /// predicate from the combined join layout down onto the bare table row).
    pub fn map_columns(&mut self, f: &mut impl FnMut(usize) -> usize) {
        match self {
            Expr::Const(_) | Expr::Param(_) => {}
            Expr::Col(i) => *i = f(*i),
            Expr::Unary(_, e) | Expr::IsNull(e, _) | Expr::Cast(e, _) => e.map_columns(f),
            Expr::Binary(_, l, r) | Expr::Subscript(l, r) => {
                l.map_columns(f);
                r.map_columns(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.map_columns(f);
                pattern.map_columns(f);
            }
            Expr::InSet { expr, .. }
            | Expr::InParams { expr, .. }
            | Expr::InSubquery { expr, .. } => expr.map_columns(f),
            Expr::Call(_, args) => {
                for a in args {
                    a.map_columns(f);
                }
            }
        }
    }
}

fn eval_unary(op: UnaryOp, v: Value) -> Result<Value> {
    match op {
        UnaryOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
            Value::Double(f) => Ok(Value::Double(-f)),
            other => Err(Error::Type(format!("cannot negate {}", other.type_name()))),
        },
        UnaryOp::Not => match v {
            Value::Null => Ok(Value::Null),
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(Error::Type(format!(
                "NOT requires a boolean, got {}",
                other.type_name()
            ))),
        },
    }
}

fn eval_logic(op: BinaryOp, l: &Expr, r: &Expr, row: &[Value]) -> Result<Value> {
    let lv = l.eval(row)?;
    let lb = match &lv {
        Value::Null => None,
        Value::Bool(b) => Some(*b),
        other => {
            return Err(Error::Type(format!(
                "logical operand must be boolean, got {}",
                other.type_name()
            )))
        }
    };
    // Three-valued short circuit.
    match (op, lb) {
        (BinaryOp::And, Some(false)) => return Ok(Value::Bool(false)),
        (BinaryOp::Or, Some(true)) => return Ok(Value::Bool(true)),
        _ => {}
    }
    let rv = r.eval(row)?;
    let rb = match &rv {
        Value::Null => None,
        Value::Bool(b) => Some(*b),
        other => {
            return Err(Error::Type(format!(
                "logical operand must be boolean, got {}",
                other.type_name()
            )))
        }
    };
    let out = match op {
        BinaryOp::And => match (lb, rb) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        BinaryOp::Or => match (lb, rb) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        _ => unreachable!("eval_logic only handles AND/OR"),
    };
    Ok(out.map(Value::Bool).unwrap_or(Value::Null))
}

fn eval_binary(op: BinaryOp, l: Value, r: Value) -> Result<Value> {
    use BinaryOp::*;
    match op {
        Eq | Ne | Lt | Le | Gt | Ge => {
            let cmp = l.sql_cmp(&r);
            Ok(match cmp {
                None => Value::Null,
                Some(o) => Value::Bool(match op {
                    Eq => o == Ordering::Equal,
                    Ne => o != Ordering::Equal,
                    Lt => o == Ordering::Less,
                    Le => o != Ordering::Greater,
                    Gt => o == Ordering::Greater,
                    Ge => o != Ordering::Less,
                    _ => unreachable!(),
                }),
            })
        }
        Add | Sub | Mul | Div | Mod => arith(op, l, r),
        Concat => concat(l, r),
        And | Or => unreachable!("handled in eval_logic"),
    }
}

fn arith(op: BinaryOp, l: Value, r: Value) -> Result<Value> {
    use BinaryOp::*;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (&l, &r) {
        (Value::Int(a), Value::Int(b)) => {
            let (a, b) = (*a, *b);
            Ok(match op {
                Add => Value::Int(a.wrapping_add(b)),
                Sub => Value::Int(a.wrapping_sub(b)),
                Mul => Value::Int(a.wrapping_mul(b)),
                Div => {
                    if b == 0 {
                        Value::Null
                    } else {
                        Value::Int(a.wrapping_div(b))
                    }
                }
                Mod => {
                    if b == 0 {
                        Value::Null
                    } else {
                        Value::Int(a.wrapping_rem(b))
                    }
                }
                _ => unreachable!(),
            })
        }
        _ => {
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(Error::Type(format!(
                        "arithmetic on {} and {}",
                        l.type_name(),
                        r.type_name()
                    )))
                }
            };
            Ok(Value::Double(match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => a / b,
                Mod => a % b,
                _ => unreachable!(),
            }))
        }
    }
}

fn concat(l: Value, r: Value) -> Result<Value> {
    match (l, r) {
        (Value::Null, v) | (v, Value::Null) if !v.is_null() => Ok(Value::Null),
        (Value::Null, Value::Null) => Ok(Value::Null),
        // Array || Array = concatenation; Array || scalar = append.
        (Value::Array(a), Value::Array(b)) => {
            let mut out = Vec::with_capacity(a.len() + b.len());
            out.extend(a.iter().cloned());
            out.extend(b.iter().cloned());
            Ok(Value::array(out))
        }
        (Value::Array(a), v) => {
            let mut out = Vec::with_capacity(a.len() + 1);
            out.extend(a.iter().cloned());
            out.push(v);
            Ok(Value::array(out))
        }
        (v, Value::Array(b)) => {
            let mut out = Vec::with_capacity(b.len() + 1);
            out.push(v);
            out.extend(b.iter().cloned());
            Ok(Value::array(out))
        }
        (l, r) => {
            let mut s = l.to_string();
            s.push_str(&r.to_string());
            Ok(Value::str(s))
        }
    }
}

/// Convert a JSON scalar into an engine value; containers stay JSON.
pub fn json_to_value(j: &Json) -> Value {
    match j {
        Json::Null => Value::Null,
        Json::Bool(b) => Value::Bool(*b),
        Json::Num(n) => match n.as_i64() {
            Some(i) if n.is_int() => Value::Int(i),
            _ => Value::Double(n.as_f64()),
        },
        Json::Str(s) => Value::str(s.as_str()),
        other => Value::json(other.clone()),
    }
}

fn eval_call(func: Func, args: &[Expr], row: &[Value]) -> Result<Value> {
    let need = |n: usize| -> Result<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(Error::Invalid(format!(
                "{func:?} expects {n} arguments, got {}",
                args.len()
            )))
        }
    };
    match func {
        Func::JsonVal => {
            need(2)?;
            let doc = args[0].eval(row)?;
            let key = args[1].eval(row)?;
            match (&doc, &key) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Json(j), Value::Str(k)) => {
                    Ok(j.get(k).map(json_to_value).unwrap_or(Value::Null))
                }
                _ => Err(Error::Type(format!(
                    "JSON_VAL requires (JSON, TEXT), got ({}, {})",
                    doc.type_name(),
                    key.type_name()
                ))),
            }
        }
        Func::Coalesce => {
            for a in args {
                let v = a.eval(row)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        Func::Length => {
            need(1)?;
            match args[0].eval(row)? {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                Value::Array(a) => Ok(Value::Int(a.len() as i64)),
                other => Err(Error::Type(format!("LENGTH of {}", other.type_name()))),
            }
        }
        Func::Lower | Func::Upper => {
            need(1)?;
            match args[0].eval(row)? {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::str(if func == Func::Lower {
                    s.to_lowercase()
                } else {
                    s.to_uppercase()
                })),
                other => Err(Error::Type(format!("{func:?} of {}", other.type_name()))),
            }
        }
        Func::Substr => {
            need(3)?;
            let s = args[0].eval(row)?;
            let start = args[1].eval(row)?;
            let len = args[2].eval(row)?;
            match (s, start.as_int(), len.as_int()) {
                (Value::Null, _, _) => Ok(Value::Null),
                (Value::Str(s), Some(start), Some(len)) if start >= 1 && len >= 0 => {
                    let out: String = s
                        .chars()
                        .skip(start as usize - 1)
                        .take(len as usize)
                        .collect();
                    Ok(Value::str(out))
                }
                _ => Err(Error::Type(
                    "SUBSTR requires (TEXT, start>=1, len>=0)".into(),
                )),
            }
        }
        Func::Abs => {
            need(1)?;
            match args[0].eval(row)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
                Value::Double(f) => Ok(Value::Double(f.abs())),
                other => Err(Error::Type(format!("ABS of {}", other.type_name()))),
            }
        }
        Func::Array => {
            let mut out = Vec::with_capacity(args.len());
            for a in args {
                out.push(a.eval(row)?);
            }
            let array = Value::array(out);
            check_depth(func, array.depth())?;
            Ok(array)
        }
        Func::IsSimplePath => {
            need(1)?;
            match args[0].eval(row)? {
                Value::Null => Ok(Value::Null),
                Value::Array(a) => {
                    let mut seen = FxHashSet::default();
                    let simple = a.iter().all(|v| seen.insert(v.clone()));
                    Ok(Value::Int(simple as i64))
                }
                other => Err(Error::Type(format!(
                    "IS_SIMPLE_PATH of {}",
                    other.type_name()
                ))),
            }
        }
        Func::JsonKeys => {
            need(1)?;
            match args[0].eval(row)? {
                Value::Null => Ok(Value::Null),
                Value::Json(j) => match j.as_object() {
                    Some(o) => Ok(Value::array(o.keys().map(Value::str).collect())),
                    None => Ok(Value::array(Vec::new())),
                },
                other => Err(Error::Type(format!("JSON_KEYS of {}", other.type_name()))),
            }
        }
        Func::ElementAt => {
            need(2)?;
            Expr::Subscript(Box::new(args[0].clone()), Box::new(args[1].clone())).eval(row)
        }
        Func::ArrayAppend => {
            need(2)?;
            let arr = args[0].eval(row)?;
            let item = args[1].eval(row)?;
            match arr {
                Value::Null => Ok(Value::Null),
                Value::Array(a) => {
                    check_depth(func, 1 + item.depth())?;
                    let mut out = Vec::with_capacity(a.len() + 1);
                    out.extend(a.iter().cloned());
                    out.push(item);
                    Ok(Value::array(out))
                }
                other => Err(Error::Type(format!(
                    "ARRAY_APPEND requires an array, got {}",
                    other.type_name()
                ))),
            }
        }
    }
}

/// Refuse to build an array nested deeper than the codec can decode, so
/// every value a query returns can be logged and sent over the wire.
fn check_depth(func: Func, depth: usize) -> Result<()> {
    if depth > MAX_DEPTH {
        return Err(Error::Type(format!(
            "{func:?} would nest arrays {depth} deep; the limit is {MAX_DEPTH}"
        )));
    }
    Ok(())
}

/// SQL LIKE matcher: `%` = any run, `_` = any single character.
/// Works on characters, not bytes, so multi-byte text is safe.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    // Iterative two-pointer algorithm with backtracking to the last `%`.
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s) = (usize::MAX, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_p = pi;
            star_s = si;
            pi += 1;
        } else if star_p != usize::MAX {
            pi = star_p + 1;
            star_s += 1;
            si = star_s;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: impl Into<Value>) -> Expr {
        Expr::Const(v.into())
    }

    fn bin(op: BinaryOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary(op, Box::new(l), Box::new(r))
    }

    #[test]
    fn arithmetic() {
        let row = [];
        assert_eq!(
            bin(BinaryOp::Add, c(2i64), c(3i64)).eval(&row).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            bin(BinaryOp::Div, c(7i64), c(2i64)).eval(&row).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            bin(BinaryOp::Div, c(7i64), c(0i64)).eval(&row).unwrap(),
            Value::Null
        );
        assert_eq!(
            bin(BinaryOp::Mul, c(2i64), c(1.5f64)).eval(&row).unwrap(),
            Value::Double(3.0)
        );
        assert_eq!(
            bin(BinaryOp::Add, c(1i64), Expr::Const(Value::Null))
                .eval(&row)
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn three_valued_logic() {
        let row = [];
        let null = || Expr::Const(Value::Null);
        let t = || c(true);
        let f = || c(false);
        assert_eq!(
            bin(BinaryOp::And, f(), null()).eval(&row).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            bin(BinaryOp::And, t(), null()).eval(&row).unwrap(),
            Value::Null
        );
        assert_eq!(
            bin(BinaryOp::Or, t(), null()).eval(&row).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            bin(BinaryOp::Or, f(), null()).eval(&row).unwrap(),
            Value::Null
        );
        assert_eq!(
            Expr::Unary(UnaryOp::Not, Box::new(null()))
                .eval(&row)
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn short_circuit_avoids_rhs_errors() {
        // false AND <type error> must not error.
        let row = [];
        let bad = bin(BinaryOp::Add, c(true), c(1i64));
        assert_eq!(
            bin(BinaryOp::And, c(false), bad).eval(&row).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn comparisons_with_nulls() {
        let row = [];
        assert_eq!(
            bin(BinaryOp::Eq, c(1i64), Expr::Const(Value::Null))
                .eval(&row)
                .unwrap(),
            Value::Null
        );
        assert!(!bin(BinaryOp::Eq, c(1i64), Expr::Const(Value::Null))
            .eval_bool(&row)
            .unwrap());
        assert_eq!(
            bin(BinaryOp::Le, c(1i64), c(1.0f64)).eval(&row).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "%ell%"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("", "%"));
        assert!(!like_match("hello", "h_lo"));
        assert!(!like_match("hello", "hello_"));
        assert!(like_match("abcabc", "%abc"));
        assert!(like_match("résumé", "r_sum_"));
        assert!(like_match("Montreal Carabins@en", "%@en"));
    }

    #[test]
    fn json_val_extraction() {
        let doc = sqlgraph_json::parse(r#"{"name":"marko","age":29,"w":0.5,"ok":true,"tags":[1]}"#)
            .unwrap();
        let row = [Value::json(doc)];
        let jv = |key: &str| {
            Expr::Call(Func::JsonVal, vec![Expr::Col(0), c(key)])
                .eval(&row)
                .unwrap()
        };
        assert_eq!(jv("name"), Value::str("marko"));
        assert_eq!(jv("age"), Value::Int(29));
        assert_eq!(jv("w"), Value::Double(0.5));
        assert_eq!(jv("ok"), Value::Bool(true));
        assert_eq!(jv("missing"), Value::Null);
        assert!(matches!(jv("tags"), Value::Json(_)));
    }

    #[test]
    fn array_concat_and_subscript() {
        let row = [];
        let arr = bin(
            BinaryOp::Concat,
            Expr::Call(Func::Array, vec![c(1i64)]),
            c(2i64),
        );
        let v = arr.eval(&row).unwrap();
        assert_eq!(v, Value::array(vec![Value::Int(1), Value::Int(2)]));
        let sub = Expr::Subscript(Box::new(Expr::Const(v)), Box::new(c(0i64)));
        assert_eq!(sub.eval(&row).unwrap(), Value::Int(1));
    }

    #[test]
    fn simple_path_udf() {
        let row = [];
        let mk = |items: Vec<i64>| {
            Expr::Call(
                Func::IsSimplePath,
                vec![Expr::Const(Value::array(
                    items.into_iter().map(Value::Int).collect(),
                ))],
            )
        };
        assert_eq!(mk(vec![1, 2, 3]).eval(&row).unwrap(), Value::Int(1));
        assert_eq!(mk(vec![1, 2, 1]).eval(&row).unwrap(), Value::Int(0));
    }

    #[test]
    fn string_functions() {
        let row = [];
        assert_eq!(
            Expr::Call(Func::Substr, vec![c("hello"), c(2i64), c(3i64)])
                .eval(&row)
                .unwrap(),
            Value::str("ell")
        );
        assert_eq!(
            Expr::Call(Func::Lower, vec![c("AbC")]).eval(&row).unwrap(),
            Value::str("abc")
        );
        assert_eq!(
            Expr::Call(Func::Length, vec![c("héllo")])
                .eval(&row)
                .unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            Expr::Call(Func::Coalesce, vec![Expr::Const(Value::Null), c(7i64)])
                .eval(&row)
                .unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn in_set() {
        let row = [];
        let mut set = FxHashSet::default();
        set.insert(Value::Int(1));
        set.insert(Value::str("a"));
        let e = Expr::InSet {
            expr: Box::new(c(1i64)),
            set: Arc::new(set.clone()),
            negated: false,
        };
        assert_eq!(e.eval(&row).unwrap(), Value::Bool(true));
        let e2 = Expr::InSet {
            expr: Box::new(c(2i64)),
            set: Arc::new(set),
            negated: true,
        };
        assert_eq!(e2.eval(&row).unwrap(), Value::Bool(true));
    }
}
