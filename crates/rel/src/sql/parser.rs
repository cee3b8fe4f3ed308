//! Recursive-descent SQL parser for the engine's dialect.
//!
//! Grammar (informal):
//!
//! ```text
//! statement   := select | insert | update | delete | create | drop | call
//! select      := [WITH cte ("," cte)*] set_expr
//!                [ORDER BY expr [DESC] ("," ...)*] [LIMIT e] [OFFSET e]
//! set_expr    := core ((UNION [ALL] | INTERSECT | EXCEPT) core)*
//! core        := SELECT [DISTINCT] proj ("," proj)*
//!                [FROM from ("," from)*] [WHERE e]
//!                [GROUP BY e ("," e)*] [HAVING e]
//!              | "(" select ")"
//! from        := unit (join)*
//! unit        := name [AS? alias]
//!              | "(" select ")" AS? alias
//!              | TABLE "(" VALUES row ("," row)* ")" AS? alias "(" cols ")"
//! join        := [LEFT [OUTER] | INNER] JOIN unit ON e
//! ```
//!
//! Expression precedence (loosest first): `OR`, `AND`, `NOT`, comparison
//! (`= <> < <= > >= LIKE IN BETWEEN IS`), additive (`+ - ||`),
//! multiplicative (`* / %`), unary, postfix subscript, primary.

use crate::error::{Error, Result};
use crate::expr::{BinaryOp, UnaryOp};
use crate::index::IndexKind;
use crate::schema::ColumnType;
use crate::sql::ast::*;
use crate::sql::lexer::{tokenize, Symbol, Token, TokenKind};
use crate::value::{CastType, Value};

/// Parse one SQL statement (an optional trailing `;` is accepted).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        params: 0,
    };
    let stmt = p.statement()?;
    p.eat_symbol(Symbol::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a statement and report how many `?` parameters it uses.
pub fn parse_statement_with_params(sql: &str) -> Result<(Statement, usize)> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        params: 0,
    };
    let stmt = p.statement()?;
    p.eat_symbol(Symbol::Semicolon);
    p.expect_eof()?;
    Ok((stmt, p.params))
}

const RESERVED: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "GROUP",
    "BY",
    "HAVING",
    "ORDER",
    "LIMIT",
    "OFFSET",
    "UNION",
    "INTERSECT",
    "EXCEPT",
    "ALL",
    "DISTINCT",
    "AS",
    "ON",
    "JOIN",
    "LEFT",
    "INNER",
    "OUTER",
    "AND",
    "OR",
    "NOT",
    "NULL",
    "TRUE",
    "FALSE",
    "IN",
    "IS",
    "LIKE",
    "BETWEEN",
    "CAST",
    "VALUES",
    "TABLE",
    "WITH",
    "INSERT",
    "INTO",
    "UPDATE",
    "SET",
    "DELETE",
    "CREATE",
    "UNIQUE",
    "INDEX",
    "USING",
    "DROP",
    "IF",
    "EXISTS",
    "CALL",
    "PRIMARY",
    "KEY",
    "WHEN",
    "CASE",
];

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    params: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn err(&self, message: impl Into<String>) -> Error {
        Error::Parse {
            offset: self.offset(),
            message: message.into(),
        }
    }

    fn advance(&mut self) -> TokenKind {
        let k = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        k
    }

    /// True if the current token is the keyword `kw` (case-insensitive).
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw}")))
        }
    }

    fn at_symbol(&self, s: Symbol) -> bool {
        matches!(self.peek(), TokenKind::Symbol(sym) if *sym == s)
    }

    fn eat_symbol(&mut self, s: Symbol) -> bool {
        if self.at_symbol(s) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: Symbol) -> Result<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected {s:?}")))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.err("unexpected trailing tokens"))
        }
    }

    /// Expect any identifier (reserved words allowed when quoted).
    fn ident(&mut self) -> Result<String> {
        match self.peek() {
            TokenKind::Ident(_) => match self.advance() {
                TokenKind::Ident(s) => Ok(s),
                _ => unreachable!(),
            },
            _ => Err(self.err("expected identifier")),
        }
    }

    /// An identifier usable as an alias: rejects reserved words so clause
    /// keywords terminate FROM lists.
    fn alias_ident(&mut self) -> Option<String> {
        if let TokenKind::Ident(s) = self.peek() {
            if !RESERVED.iter().any(|k| s.eq_ignore_ascii_case(k)) {
                let s = s.clone();
                self.advance();
                return Some(s);
            }
        }
        None
    }

    // ---- statements ----

    fn statement(&mut self) -> Result<Statement> {
        if self.at_keyword("SELECT") || self.at_keyword("WITH") || self.at_symbol(Symbol::LParen) {
            return Ok(Statement::Select(self.select_stmt()?));
        }
        if self.eat_keyword("INSERT") {
            return self.insert_stmt();
        }
        if self.eat_keyword("UPDATE") {
            return self.update_stmt();
        }
        if self.eat_keyword("DELETE") {
            return self.delete_stmt();
        }
        if self.eat_keyword("CREATE") {
            return self.create_stmt();
        }
        if self.eat_keyword("DROP") {
            return self.drop_stmt();
        }
        if self.eat_keyword("EXPLAIN") {
            if self.eat_keyword("ANALYZE") {
                return Ok(Statement::ExplainAnalyze(self.select_stmt()?));
            }
            return Ok(Statement::Explain(self.select_stmt()?));
        }
        if self.eat_keyword("ANALYZE") {
            let table = if matches!(self.peek(), TokenKind::Ident(_)) {
                Some(self.ident()?)
            } else {
                None
            };
            return Ok(Statement::Analyze { table });
        }
        Err(self.err("expected a statement"))
    }

    fn insert_stmt(&mut self) -> Result<Statement> {
        self.expect_keyword("INTO")?;
        let table = self.ident()?;
        let mut columns = None;
        if self.at_symbol(Symbol::LParen) {
            // Lookahead: `(` may start a column list or a parenthesized SELECT.
            let save = self.pos;
            self.advance();
            if matches!(self.peek(), TokenKind::Ident(s) if !s.eq_ignore_ascii_case("SELECT")) {
                let mut cols = vec![self.ident()?];
                while self.eat_symbol(Symbol::Comma) {
                    cols.push(self.ident()?);
                }
                self.expect_symbol(Symbol::RParen)?;
                columns = Some(cols);
            } else {
                self.pos = save;
            }
        }
        let source = if self.eat_keyword("VALUES") {
            let mut rows = vec![self.paren_expr_list()?];
            while self.eat_symbol(Symbol::Comma) {
                rows.push(self.paren_expr_list()?);
            }
            InsertSource::Values(rows)
        } else {
            InsertSource::Select(Box::new(self.select_stmt()?))
        };
        Ok(Statement::Insert {
            table,
            columns,
            source,
        })
    }

    fn update_stmt(&mut self) -> Result<Statement> {
        let table = self.ident()?;
        self.expect_keyword("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_symbol(Symbol::Eq)?;
            let value = self.expr()?;
            assignments.push((col, value));
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        let filter = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            filter,
        })
    }

    fn delete_stmt(&mut self) -> Result<Statement> {
        self.expect_keyword("FROM")?;
        let table = self.ident()?;
        let filter = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    fn create_stmt(&mut self) -> Result<Statement> {
        let unique = self.eat_keyword("UNIQUE");
        if self.eat_keyword("TABLE") {
            if unique {
                return Err(self.err("UNIQUE applies to indexes, not tables"));
            }
            let if_not_exists = self.if_not_exists()?;
            let name = self.ident()?;
            self.expect_symbol(Symbol::LParen)?;
            let mut columns = Vec::new();
            loop {
                let col = self.ident()?;
                let ty = ColumnType::parse(&self.ident()?)?;
                let mut pk = false;
                if self.eat_keyword("PRIMARY") {
                    self.expect_keyword("KEY")?;
                    pk = true;
                }
                columns.push((col, ty, pk));
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            });
        }
        if self.eat_keyword("INDEX") {
            let if_not_exists = self.if_not_exists()?;
            let name = self.ident()?;
            self.expect_keyword("ON")?;
            let table = self.ident()?;
            self.expect_symbol(Symbol::LParen)?;
            let mut columns = vec![self.index_key()?];
            while self.eat_symbol(Symbol::Comma) {
                columns.push(self.index_key()?);
            }
            self.expect_symbol(Symbol::RParen)?;
            let kind = if self.eat_keyword("USING") {
                match self.ident()?.to_ascii_uppercase().as_str() {
                    "HASH" => IndexKind::Hash,
                    "BTREE" => IndexKind::BTree,
                    other => return Err(self.err(format!("unknown index kind '{other}'"))),
                }
            } else {
                IndexKind::Hash
            };
            return Ok(Statement::CreateIndex {
                name,
                table,
                columns,
                unique,
                kind,
                if_not_exists,
            });
        }
        Err(self.err("expected TABLE or INDEX after CREATE"))
    }

    /// One index key: `col` or `JSON_VAL(col, 'member')`.
    fn index_key(&mut self) -> Result<IndexColumn> {
        let first = self.ident()?;
        if first.eq_ignore_ascii_case("JSON_VAL") && self.eat_symbol(Symbol::LParen) {
            let column = self.ident()?;
            self.expect_symbol(Symbol::Comma)?;
            let member = match self.peek() {
                TokenKind::Str(_) => match self.advance() {
                    TokenKind::Str(s) => s,
                    _ => unreachable!(),
                },
                _ => return Err(self.err("JSON_VAL index key needs a string member")),
            };
            self.expect_symbol(Symbol::RParen)?;
            return Ok(IndexColumn {
                column,
                json_key: Some(member),
            });
        }
        Ok(IndexColumn {
            column: first,
            json_key: None,
        })
    }

    fn if_not_exists(&mut self) -> Result<bool> {
        if self.eat_keyword("IF") {
            self.expect_keyword("NOT")?;
            self.expect_keyword("EXISTS")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn drop_stmt(&mut self) -> Result<Statement> {
        self.expect_keyword("TABLE")?;
        let if_exists = if self.eat_keyword("IF") {
            self.expect_keyword("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        Ok(Statement::DropTable { name, if_exists })
    }

    // ---- queries ----

    fn select_stmt(&mut self) -> Result<SelectStmt> {
        let mut ctes: Vec<(String, SelectStmt)> = Vec::new();
        if self.eat_keyword("WITH") {
            loop {
                let at = self.offset();
                let name = self.ident()?;
                // As in PostgreSQL: a second CTE of one name would shadow the first.
                if ctes.iter().any(|(n, _)| n.eq_ignore_ascii_case(&name)) {
                    return Err(Error::Parse {
                        offset: at,
                        message: format!("WITH query name \"{name}\" specified more than once"),
                    });
                }
                self.expect_keyword("AS")?;
                self.expect_symbol(Symbol::LParen)?;
                let query = self.select_stmt()?;
                self.expect_symbol(Symbol::RParen)?;
                ctes.push((name, query));
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }
        let body = self.set_expr()?;
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let e = self.expr()?;
                let desc = if self.eat_keyword("DESC") {
                    true
                } else {
                    self.eat_keyword("ASC");
                    false
                };
                order_by.push((e, desc));
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("LIMIT") {
            Some(self.expr()?)
        } else {
            None
        };
        let offset = if self.eat_keyword("OFFSET") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(SelectStmt {
            ctes,
            body,
            order_by,
            limit,
            offset,
        })
    }

    fn set_expr(&mut self) -> Result<SetExpr> {
        let mut left = self.set_core()?;
        loop {
            let op = if self.eat_keyword("UNION") {
                SetOp::Union
            } else if self.eat_keyword("INTERSECT") {
                SetOp::Intersect
            } else if self.eat_keyword("EXCEPT") {
                SetOp::Except
            } else {
                break;
            };
            let all = self.eat_keyword("ALL");
            let right = self.set_core()?;
            left = SetExpr::Op {
                op,
                all,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn set_core(&mut self) -> Result<SetExpr> {
        if self.eat_symbol(Symbol::LParen) {
            // Parenthesized query used as a set operand: inline its body.
            // (ORDER BY/LIMIT inside set operands are not supported.)
            let inner = self.select_stmt()?;
            self.expect_symbol(Symbol::RParen)?;
            if !inner.ctes.is_empty() || !inner.order_by.is_empty() || inner.limit.is_some() {
                return Err(self.err(
                    "WITH/ORDER BY/LIMIT are not supported inside parenthesized set operands",
                ));
            }
            return Ok(inner.body);
        }
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let mut projections = vec![self.projection()?];
        while self.eat_symbol(Symbol::Comma) {
            projections.push(self.projection()?);
        }
        let mut from = Vec::new();
        if self.eat_keyword("FROM") {
            from.push(self.parse_from_item()?);
            while self.eat_symbol(Symbol::Comma) {
                from.push(self.parse_from_item()?);
            }
        }
        let filter = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.expr()?);
            while self.eat_symbol(Symbol::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let having = if self.eat_keyword("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(SetExpr::Select(Box::new(SelectCore {
            distinct,
            projections,
            from,
            filter,
            group_by,
            having,
            inlined: Vec::new(),
        })))
    }

    fn projection(&mut self) -> Result<Projection> {
        if self.eat_symbol(Symbol::Star) {
            return Ok(Projection::Wildcard);
        }
        // `t.*`
        if let TokenKind::Ident(name) = self.peek() {
            let name = name.clone();
            if matches!(
                self.tokens.get(self.pos + 1).map(|t| &t.kind),
                Some(TokenKind::Symbol(Symbol::Dot))
            ) && matches!(
                self.tokens.get(self.pos + 2).map(|t| &t.kind),
                Some(TokenKind::Symbol(Symbol::Star))
            ) {
                self.advance();
                self.advance();
                self.advance();
                return Ok(Projection::TableWildcard(name));
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_keyword("AS") {
            Some(self.ident()?)
        } else {
            self.alias_ident()
        };
        Ok(Projection::Expr { expr, alias })
    }

    fn parse_from_item(&mut self) -> Result<FromItem> {
        let mut item = self.parse_from_unit()?;
        loop {
            let kind = if self.eat_keyword("LEFT") {
                self.eat_keyword("OUTER");
                self.expect_keyword("JOIN")?;
                JoinKind::LeftOuter
            } else if self.eat_keyword("INNER") {
                self.expect_keyword("JOIN")?;
                JoinKind::Inner
            } else if self.eat_keyword("JOIN") {
                JoinKind::Inner
            } else {
                break;
            };
            let right = self.parse_from_unit()?;
            self.expect_keyword("ON")?;
            let on = self.expr()?;
            item = FromItem::Join {
                left: Box::new(item),
                right: Box::new(right),
                kind,
                on,
            };
        }
        Ok(item)
    }

    fn parse_from_unit(&mut self) -> Result<FromItem> {
        if self.eat_keyword("TABLE") {
            self.expect_symbol(Symbol::LParen)?;
            // `TABLE(FUNC(args...))` — lateral table function.
            if !self.at_keyword("VALUES") {
                let func = self.ident()?;
                self.expect_symbol(Symbol::LParen)?;
                let mut args = Vec::new();
                if !self.at_symbol(Symbol::RParen) {
                    args.push(self.expr()?);
                    while self.eat_symbol(Symbol::Comma) {
                        args.push(self.expr()?);
                    }
                }
                self.expect_symbol(Symbol::RParen)?;
                self.expect_symbol(Symbol::RParen)?;
                self.eat_keyword("AS");
                let alias = self.ident()?;
                self.expect_symbol(Symbol::LParen)?;
                let mut columns = vec![self.ident()?];
                while self.eat_symbol(Symbol::Comma) {
                    columns.push(self.ident()?);
                }
                self.expect_symbol(Symbol::RParen)?;
                return Ok(FromItem::LateralFunc {
                    func,
                    args,
                    alias,
                    columns,
                });
            }
            self.expect_keyword("VALUES")?;
            let mut rows = vec![self.paren_expr_list()?];
            while self.eat_symbol(Symbol::Comma) {
                rows.push(self.paren_expr_list()?);
            }
            self.expect_symbol(Symbol::RParen)?;
            self.eat_keyword("AS");
            let alias = self.ident()?;
            self.expect_symbol(Symbol::LParen)?;
            let mut columns = vec![self.ident()?];
            while self.eat_symbol(Symbol::Comma) {
                columns.push(self.ident()?);
            }
            self.expect_symbol(Symbol::RParen)?;
            let arity = rows[0].len();
            if rows.iter().any(|r| r.len() != arity) || columns.len() != arity {
                return Err(self.err("TABLE(VALUES ...) rows and column list must agree in arity"));
            }
            return Ok(FromItem::LateralValues {
                rows,
                alias,
                columns,
            });
        }
        if self.eat_symbol(Symbol::LParen) {
            let query = self.select_stmt()?;
            self.expect_symbol(Symbol::RParen)?;
            self.eat_keyword("AS");
            let alias = self
                .alias_ident()
                .ok_or_else(|| self.err("derived table requires an alias"))?;
            return Ok(FromItem::Subquery {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.ident()?;
        let alias = if self.eat_keyword("AS") {
            Some(self.ident()?)
        } else {
            self.alias_ident()
        };
        Ok(FromItem::Table { name, alias })
    }

    fn paren_expr_list(&mut self) -> Result<Vec<Expr>> {
        self.expect_symbol(Symbol::LParen)?;
        let mut out = vec![self.expr()?];
        while self.eat_symbol(Symbol::Comma) {
            out.push(self.expr()?);
        }
        self.expect_symbol(Symbol::RParen)?;
        Ok(out)
    }

    // ---- expressions ----

    /// Entry point: lowest precedence (OR).
    fn expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_keyword("OR") {
            let right = self.and_expr()?;
            left = Expr::Binary(BinaryOp::Or, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_keyword("AND") {
            let right = self.not_expr()?;
            left = Expr::Binary(BinaryOp::And, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_keyword("NOT") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary(UnaryOp::Not, Box::new(inner)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull(Box::new(left), negated));
        }
        // [NOT] LIKE / IN / BETWEEN
        let negated = self.eat_keyword("NOT");
        if self.eat_keyword("LIKE") {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if self.eat_keyword("IN") {
            self.expect_symbol(Symbol::LParen)?;
            if self.at_keyword("SELECT") || self.at_keyword("WITH") {
                let query = self.select_stmt()?;
                self.expect_symbol(Symbol::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(query),
                    negated,
                });
            }
            let mut list = vec![self.expr()?];
            while self.eat_symbol(Symbol::Comma) {
                list.push(self.expr()?);
            }
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_keyword("BETWEEN") {
            let lo = self.additive()?;
            self.expect_keyword("AND")?;
            let hi = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated,
            });
        }
        if negated {
            return Err(self.err("expected LIKE, IN, or BETWEEN after NOT"));
        }
        let op = if self.eat_symbol(Symbol::Eq) {
            BinaryOp::Eq
        } else if self.eat_symbol(Symbol::Ne) {
            BinaryOp::Ne
        } else if self.eat_symbol(Symbol::Le) {
            BinaryOp::Le
        } else if self.eat_symbol(Symbol::Lt) {
            BinaryOp::Lt
        } else if self.eat_symbol(Symbol::Ge) {
            BinaryOp::Ge
        } else if self.eat_symbol(Symbol::Gt) {
            BinaryOp::Gt
        } else {
            return Ok(left);
        };
        let right = self.additive()?;
        Ok(Expr::Binary(op, Box::new(left), Box::new(right)))
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = if self.eat_symbol(Symbol::Plus) {
                BinaryOp::Add
            } else if self.eat_symbol(Symbol::Minus) {
                BinaryOp::Sub
            } else if self.eat_symbol(Symbol::Concat) {
                BinaryOp::Concat
            } else {
                break;
            };
            let right = self.multiplicative()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = if self.eat_symbol(Symbol::Star) {
                BinaryOp::Mul
            } else if self.eat_symbol(Symbol::Slash) {
                BinaryOp::Div
            } else if self.eat_symbol(Symbol::Percent) {
                BinaryOp::Mod
            } else {
                break;
            };
            let right = self.unary()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_symbol(Symbol::Minus) {
            let inner = self.unary()?;
            return Ok(Expr::Unary(UnaryOp::Neg, Box::new(inner)));
        }
        if self.eat_symbol(Symbol::Plus) {
            return self.unary();
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr> {
        let mut e = self.primary()?;
        while self.eat_symbol(Symbol::LBracket) {
            let idx = self.expr()?;
            self.expect_symbol(Symbol::RBracket)?;
            e = Expr::Subscript(Box::new(e), Box::new(idx));
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::Number(v) => {
                self.advance();
                Ok(Expr::Literal(v))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::Literal(Value::str(s)))
            }
            TokenKind::Param => {
                self.advance();
                let idx = self.params;
                self.params += 1;
                Ok(Expr::Param(idx))
            }
            TokenKind::Symbol(Symbol::LParen) => {
                self.advance();
                // Scalar subquery is not supported; parenthesized expression.
                let e = self.expr()?;
                self.expect_symbol(Symbol::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                if name.eq_ignore_ascii_case("NULL") {
                    self.advance();
                    return Ok(Expr::Literal(Value::Null));
                }
                if name.eq_ignore_ascii_case("TRUE") {
                    self.advance();
                    return Ok(Expr::Literal(Value::Bool(true)));
                }
                if name.eq_ignore_ascii_case("FALSE") {
                    self.advance();
                    return Ok(Expr::Literal(Value::Bool(false)));
                }
                if name.eq_ignore_ascii_case("CAST") {
                    self.advance();
                    self.expect_symbol(Symbol::LParen)?;
                    let e = self.expr()?;
                    self.expect_keyword("AS")?;
                    let ty_name = self.ident()?;
                    let ty = match ColumnType::parse(&ty_name)? {
                        ColumnType::Integer => CastType::Integer,
                        ColumnType::Double => CastType::Double,
                        ColumnType::Text => CastType::Text,
                        ColumnType::Boolean => CastType::Boolean,
                        other => return Err(self.err(format!("cannot CAST to {other:?}"))),
                    };
                    self.expect_symbol(Symbol::RParen)?;
                    return Ok(Expr::Cast(Box::new(e), ty));
                }
                if RESERVED.iter().any(|k| name.eq_ignore_ascii_case(k)) {
                    return Err(self.err(format!("unexpected keyword '{name}' in expression")));
                }
                self.advance();
                // Function call?
                if self.at_symbol(Symbol::LParen) {
                    self.advance();
                    // COUNT(*) special case.
                    if name.eq_ignore_ascii_case("COUNT") && self.eat_symbol(Symbol::Star) {
                        self.expect_symbol(Symbol::RParen)?;
                        return Ok(Expr::CountStar);
                    }
                    let distinct = self.eat_keyword("DISTINCT");
                    let mut args = Vec::new();
                    if !self.at_symbol(Symbol::RParen) {
                        args.push(self.expr()?);
                        while self.eat_symbol(Symbol::Comma) {
                            args.push(self.expr()?);
                        }
                    }
                    self.expect_symbol(Symbol::RParen)?;
                    return Ok(Expr::Call {
                        name,
                        args,
                        distinct,
                    });
                }
                // Qualified column `t.c`?
                if self.at_symbol(Symbol::Dot) {
                    self.advance();
                    let col = self.ident()?;
                    return Ok(Expr::Column {
                        table: Some(name),
                        name: col,
                    });
                }
                Ok(Expr::Column { table: None, name })
            }
            other => Err(self.err(format!("unexpected token {other:?} in expression"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let s = sel("SELECT a, b AS x FROM t WHERE a = 1");
        let SetExpr::Select(core) = &s.body else {
            panic!()
        };
        assert_eq!(core.projections.len(), 2);
        assert_eq!(core.from.len(), 1);
        assert!(core.filter.is_some());
    }

    #[test]
    fn with_ctes_and_set_ops() {
        let s = sel("WITH t1 AS (SELECT 1 AS v), t2 AS (SELECT 2 AS v) \
             SELECT v FROM t1 UNION ALL SELECT v FROM t2 ORDER BY v DESC LIMIT 5 OFFSET 1");
        assert_eq!(s.ctes.len(), 2);
        assert!(matches!(
            s.body,
            SetExpr::Op {
                op: SetOp::Union,
                all: true,
                ..
            }
        ));
        assert_eq!(s.order_by.len(), 1);
        assert!(s.order_by[0].1);
        assert!(s.limit.is_some() && s.offset.is_some());
    }

    #[test]
    fn joins() {
        let s = sel("SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.y JOIN c ON c.z = a.x");
        let SetExpr::Select(core) = &s.body else {
            panic!()
        };
        let FromItem::Join { kind, left, .. } = &core.from[0] else {
            panic!()
        };
        assert_eq!(*kind, JoinKind::Inner);
        let FromItem::Join { kind, .. } = left.as_ref() else {
            panic!()
        };
        assert_eq!(*kind, JoinKind::LeftOuter);
    }

    #[test]
    fn lateral_values() {
        let s = sel(
            "SELECT t.val FROM opa p, TABLE(VALUES(p.val0),(p.val1)) AS t(val) WHERE t.val IS NOT NULL",
        );
        let SetExpr::Select(core) = &s.body else {
            panic!()
        };
        assert_eq!(core.from.len(), 2);
        let FromItem::LateralValues { rows, columns, .. } = &core.from[1] else {
            panic!("expected lateral values")
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(columns, &["val"]);
    }

    #[test]
    fn expressions() {
        let s = sel(
            "SELECT CAST(x AS INTEGER), COUNT(*), COUNT(DISTINCT y), JSON_VAL(a, 'k'), \
             p.path[0], -x + 2 * 3, a || b FROM t \
             WHERE x LIKE '%en' AND y NOT IN (1, 2) AND z BETWEEN 1 AND 5 \
             AND w IS NOT NULL AND v IN (SELECT q FROM u) OR NOT flag",
        );
        let SetExpr::Select(core) = &s.body else {
            panic!()
        };
        assert_eq!(core.projections.len(), 7);
        assert!(core.filter.is_some());
    }

    #[test]
    fn ddl_and_dml() {
        assert!(matches!(
            parse_statement("CREATE TABLE t (id INTEGER PRIMARY KEY, attr JSON)").unwrap(),
            Statement::CreateTable { ref columns, .. } if columns.len() == 2 && columns[0].2
        ));
        assert!(matches!(
            parse_statement("CREATE UNIQUE INDEX i ON t (a, b) USING BTREE").unwrap(),
            Statement::CreateIndex { unique: true, kind: IndexKind::BTree, ref columns, .. }
                if columns.len() == 2
        ));
        assert!(matches!(
            parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap(),
            Statement::Insert { columns: Some(ref c), source: InsertSource::Values(ref v), .. }
                if c.len() == 2 && v.len() == 2
        ));
        assert!(matches!(
            parse_statement("INSERT INTO t SELECT * FROM u").unwrap(),
            Statement::Insert {
                source: InsertSource::Select(_),
                ..
            }
        ));
        assert!(matches!(
            parse_statement("UPDATE t SET a = a + 1 WHERE id = ?").unwrap(),
            Statement::Update { ref assignments, .. } if assignments.len() == 1
        ));
        assert!(matches!(
            parse_statement("DELETE FROM t WHERE id < 0").unwrap(),
            Statement::Delete { .. }
        ));
        assert!(matches!(
            parse_statement("DROP TABLE IF EXISTS t").unwrap(),
            Statement::DropTable {
                if_exists: true,
                ..
            }
        ));
    }

    #[test]
    fn params_counted() {
        let (_, n) = parse_statement_with_params("SELECT * FROM t WHERE a = ? AND b = ?").unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn derived_table_requires_alias() {
        assert!(parse_statement("SELECT * FROM (SELECT 1 AS v)").is_err());
        assert!(parse_statement("SELECT * FROM (SELECT 1 AS v) d").is_ok());
    }

    #[test]
    fn keyword_does_not_become_alias() {
        let s = sel("SELECT a FROM t WHERE a = 1");
        let SetExpr::Select(core) = &s.body else {
            panic!()
        };
        let FromItem::Table { alias, .. } = &core.from[0] else {
            panic!()
        };
        assert!(alias.is_none());
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "SELECT",
            "SELECT FROM t",
            "SELECT * FROM",
            "SELEC * FROM t",
            "SELECT * FROM t WHERE",
            "INSERT t VALUES (1)",
            "CREATE TABLE t",
        ] {
            assert!(parse_statement(bad).is_err(), "should reject {bad:?}");
        }
    }
}
