//! Recursive-descent parser for the Gremlin pipe dialect.

use crate::ast::*;
use crate::lex::{tokenize, GremlinError, Tok, Token};
use sqlgraph_json::{Json, Number};
use std::fmt::Write;

/// Parse one Gremlin statement (query or CRUD operation).
pub fn parse(src: &str) -> Result<GremlinStatement, GremlinError> {
    Ok(Parser::run(src)?.0)
}

/// Parse a query; errors if the statement is a CRUD operation.
pub fn parse_query(src: &str) -> Result<Pipeline, GremlinError> {
    match parse(src)? {
        GremlinStatement::Query(p) => Ok(p),
        other => Err(GremlinError {
            offset: 0,
            message: format!("expected a traversal query, found {other:?}"),
        }),
    }
}

/// What a prepared traversal is looked up and bound by: the side tables
/// [`parse_lifted`] returns beside the statement (see [`Lit`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Lifted {
    /// The traversal's canonical token text with every lifted literal
    /// replaced by its type tag (`?i ?f ?s ?b ?n`). Traversals with equal
    /// shapes differ only in the values of their lifted literals, so one
    /// translated statement serves them all. Empty for CRUD statements.
    pub shape: String,
    /// The lifted literals in text order: `literals[lit.slot]` is
    /// `lit.value` for every [`Lit`] in the statement.
    pub literals: Vec<Json>,
}

/// [`parse`], also returning the statement's shape and lifted literals.
pub fn parse_lifted(src: &str) -> Result<(GremlinStatement, Lifted), GremlinError> {
    let (statement, parser) = Parser::run(src)?;
    let Parser { tokens, lifted, .. } = parser;
    let literals: Vec<Json> = lifted
        .iter()
        .map(|&at| scalar(&tokens[at].kind).expect("only literal tokens are lifted"))
        .collect();
    let mut shape = String::new();
    if matches!(statement, GremlinStatement::Query(_)) {
        shape.reserve(2 * src.len());
        let mut slots = lifted.iter().zip(&literals).peekable();
        for (at, token) in tokens.iter().enumerate() {
            match slots.next_if(|(&lifted_at, _)| lifted_at == at) {
                Some((_, literal)) => shape.push_str(match literal {
                    Json::Num(n) if n.is_int() => "?i",
                    Json::Num(_) => "?f",
                    Json::Str(_) => "?s",
                    Json::Bool(_) => "?b",
                    _ => "?n",
                }),
                None if matches!(token.kind, Tok::Semicolon | Tok::Eof) => continue,
                None => write!(shape, "{}", token.kind).expect("write to string"),
            }
            shape.push(' ');
        }
    }
    Ok((statement, Lifted { shape, literals }))
}

/// The scalar a literal token denotes.
fn scalar(tok: &Tok) -> Option<Json> {
    Some(match tok {
        Tok::Int(v) => Json::int(*v),
        Tok::Float(v) => Json::float(*v),
        Tok::Str(s) => Json::Str(s.clone()),
        Tok::Ident(name) => match name.as_str() {
            "true" => Json::Bool(true),
            "false" => Json::Bool(false),
            "null" => Json::Null,
            _ => return None,
        },
        _ => return None,
    })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Token index of each lifted literal, in text order; a literal's slot
    /// is its position here.
    lifted: Vec<usize>,
}

impl Parser {
    fn run(src: &str) -> Result<(GremlinStatement, Parser), GremlinError> {
        let mut p = Parser {
            tokens: tokenize(src)?,
            pos: 0,
            lifted: Vec::new(),
        };
        let stmt = p.statement()?;
        p.eat(&Tok::Semicolon);
        p.expect_eof()?;
        Ok((stmt, p))
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn err(&self, message: impl Into<String>) -> GremlinError {
        GremlinError {
            offset: self.tokens[self.pos].offset,
            message: message.into(),
        }
    }

    fn advance(&mut self) -> Tok {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), GremlinError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn expect_eof(&self) -> Result<(), GremlinError> {
        if matches!(self.peek(), Tok::Eof) {
            Ok(())
        } else {
            Err(self.err("unexpected trailing tokens"))
        }
    }

    fn ident(&mut self) -> Result<String, GremlinError> {
        match self.peek() {
            Tok::Ident(_) => match self.advance() {
                Tok::Ident(s) => Ok(s),
                _ => unreachable!(),
            },
            _ => Err(self.err("expected identifier")),
        }
    }

    fn string(&mut self) -> Result<String, GremlinError> {
        match self.peek() {
            Tok::Str(_) => match self.advance() {
                Tok::Str(s) => Ok(s),
                _ => unreachable!(),
            },
            _ => Err(self.err("expected string literal")),
        }
    }

    fn int(&mut self) -> Result<i64, GremlinError> {
        match self.peek() {
            Tok::Int(_) => match self.advance() {
                Tok::Int(v) => Ok(v),
                _ => unreachable!(),
            },
            _ => Err(self.err("expected integer literal")),
        }
    }

    fn literal(&mut self) -> Result<Json, GremlinError> {
        match scalar(self.peek()) {
            Some(v) => {
                self.advance();
                Ok(v)
            }
            None => Err(self.err(format!("expected literal, found {:?}", self.peek()))),
        }
    }

    /// A literal in a bindable position (see [`Lit`]).
    fn lifted(&mut self) -> Result<Lit, GremlinError> {
        let at = self.pos;
        let value = self.literal()?;
        Ok(self.lift(at, value))
    }

    /// An element id in a bindable position.
    fn lifted_id(&mut self) -> Result<Lit<i64>, GremlinError> {
        let at = self.pos;
        let value = self.int()?;
        Ok(self.lift(at, value))
    }

    fn lift<T>(&mut self, at: usize, value: T) -> Lit<T> {
        self.lifted.push(at);
        Lit {
            value,
            slot: self.lifted.len() - 1,
        }
    }

    // ---- statements ----

    fn statement(&mut self) -> Result<GremlinStatement, GremlinError> {
        // Everything starts with `g.`.
        let g = self.ident()?;
        if g != "g" {
            return Err(self.err("Gremlin statements start with 'g.'"));
        }
        self.expect(&Tok::Dot)?;
        match self.peek().clone() {
            Tok::Ident(m) if m == "addVertex" => {
                self.advance();
                self.expect(&Tok::LParen)?;
                let props = if matches!(self.peek(), Tok::RParen) {
                    Vec::new()
                } else {
                    self.map_literal()?
                };
                self.expect(&Tok::RParen)?;
                Ok(GremlinStatement::AddVertex { props })
            }
            Tok::Ident(m) if m == "addEdge" => {
                self.advance();
                self.expect(&Tok::LParen)?;
                let src = self.vertex_ref()?;
                self.expect(&Tok::Comma)?;
                let dst = self.vertex_ref()?;
                self.expect(&Tok::Comma)?;
                let label = self.string()?;
                let props = if self.eat(&Tok::Comma) {
                    self.map_literal()?
                } else {
                    Vec::new()
                };
                self.expect(&Tok::RParen)?;
                Ok(GremlinStatement::AddEdge {
                    src,
                    dst,
                    label,
                    props,
                })
            }
            Tok::Ident(m) if m == "removeVertex" => {
                self.advance();
                self.expect(&Tok::LParen)?;
                let id = self.vertex_ref()?;
                self.expect(&Tok::RParen)?;
                Ok(GremlinStatement::RemoveVertex { id })
            }
            Tok::Ident(m) if m == "removeEdge" => {
                self.advance();
                self.expect(&Tok::LParen)?;
                let id = self.edge_ref()?;
                self.expect(&Tok::RParen)?;
                Ok(GremlinStatement::RemoveEdge { id })
            }
            _ => {
                let start = self.start_pipe()?;
                // `g.v(1).setProperty('k', v)` / `g.e(1).setProperty(...)`.
                if matches!(self.peek(), Tok::Dot)
                    && matches!(self.peek2(), Tok::Ident(n) if n == "setProperty")
                {
                    self.advance(); // .
                    self.advance(); // setProperty
                    self.expect(&Tok::LParen)?;
                    let key = self.string()?;
                    self.expect(&Tok::Comma)?;
                    let value = self.literal()?;
                    self.expect(&Tok::RParen)?;
                    return match start {
                        Pipe::VertexById(id) => Ok(GremlinStatement::SetVertexProperty {
                            id: id.value,
                            key,
                            value,
                        }),
                        Pipe::EdgeById(id) => Ok(GremlinStatement::SetEdgeProperty {
                            id: id.value,
                            key,
                            value,
                        }),
                        _ => Err(self.err("setProperty requires g.v(id) or g.e(id)")),
                    };
                }
                let mut pipes = vec![start];
                self.pipe_chain(&mut pipes)?;
                Ok(GremlinStatement::Query(Pipeline { pipes }))
            }
        }
    }

    fn vertex_ref(&mut self) -> Result<i64, GremlinError> {
        // `g.v(id)` or a bare integer id.
        if matches!(self.peek(), Tok::Int(_)) {
            return self.int();
        }
        let g = self.ident()?;
        if g != "g" {
            return Err(self.err("expected g.v(id)"));
        }
        self.expect(&Tok::Dot)?;
        let m = self.ident()?;
        if m != "v" {
            return Err(self.err("expected g.v(id)"));
        }
        self.expect(&Tok::LParen)?;
        let id = self.int()?;
        self.expect(&Tok::RParen)?;
        Ok(id)
    }

    fn edge_ref(&mut self) -> Result<i64, GremlinError> {
        if matches!(self.peek(), Tok::Int(_)) {
            return self.int();
        }
        let g = self.ident()?;
        if g != "g" {
            return Err(self.err("expected g.e(id)"));
        }
        self.expect(&Tok::Dot)?;
        let m = self.ident()?;
        if m != "e" {
            return Err(self.err("expected g.e(id)"));
        }
        self.expect(&Tok::LParen)?;
        let id = self.int()?;
        self.expect(&Tok::RParen)?;
        Ok(id)
    }

    /// `[k:'v', n:1]` — Groovy map literal; `[:]` is empty.
    fn map_literal(&mut self) -> Result<Vec<(String, Json)>, GremlinError> {
        self.expect(&Tok::LBracket)?;
        let mut props = Vec::new();
        if self.eat(&Tok::Colon) {
            self.expect(&Tok::RBracket)?;
            return Ok(props);
        }
        loop {
            let key = match self.peek().clone() {
                Tok::Ident(_) => self.ident()?,
                Tok::Str(_) => self.string()?,
                other => return Err(self.err(format!("expected map key, found {other:?}"))),
            };
            self.expect(&Tok::Colon)?;
            let value = self.literal()?;
            props.push((key, value));
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::RBracket)?;
        Ok(props)
    }

    // ---- pipes ----

    fn start_pipe(&mut self) -> Result<Pipe, GremlinError> {
        let name = self.ident()?;
        match name.as_str() {
            "V" => {
                let mut filter = None;
                if self.eat(&Tok::LParen) {
                    if !matches!(self.peek(), Tok::RParen) {
                        let key = self.string()?;
                        self.expect(&Tok::Comma)?;
                        filter = Some((key, self.lifted()?));
                    }
                    self.expect(&Tok::RParen)?;
                }
                Ok(Pipe::Vertices { filter })
            }
            "E" => {
                if self.eat(&Tok::LParen) {
                    self.expect(&Tok::RParen)?;
                }
                Ok(Pipe::Edges)
            }
            "v" => {
                self.expect(&Tok::LParen)?;
                let id = self.lifted_id()?;
                self.expect(&Tok::RParen)?;
                Ok(Pipe::VertexById(id))
            }
            "e" => {
                self.expect(&Tok::LParen)?;
                let id = self.lifted_id()?;
                self.expect(&Tok::RParen)?;
                Ok(Pipe::EdgeById(id))
            }
            other => Err(self.err(format!("unknown start pipe '{other}'"))),
        }
    }

    fn pipe_chain(&mut self, pipes: &mut Vec<Pipe>) -> Result<(), GremlinError> {
        loop {
            if self.eat(&Tok::LBracket) {
                // Positional range `[lo..hi]`.
                let lo = self.int()?;
                self.expect(&Tok::DotDot)?;
                let hi = self.int()?;
                self.expect(&Tok::RBracket)?;
                pipes.push(Pipe::Range { lo, hi });
                continue;
            }
            if !self.eat(&Tok::Dot) {
                break;
            }
            let pipe = self.pipe()?;
            if let Some(p) = pipe {
                pipes.push(p);
            }
        }
        Ok(())
    }

    fn string_list(&mut self) -> Result<Vec<String>, GremlinError> {
        // Optional parenthesized list of string labels.
        let mut labels = Vec::new();
        if self.eat(&Tok::LParen) {
            if !matches!(self.peek(), Tok::RParen) {
                labels.push(self.string()?);
                while self.eat(&Tok::Comma) {
                    labels.push(self.string()?);
                }
            }
            self.expect(&Tok::RParen)?;
        }
        Ok(labels)
    }

    fn empty_parens(&mut self) -> Result<(), GremlinError> {
        if self.eat(&Tok::LParen) {
            self.expect(&Tok::RParen)?;
        }
        Ok(())
    }

    fn back_target(&mut self) -> Result<BackTarget, GremlinError> {
        match self.peek().clone() {
            Tok::Int(n) if n >= 0 => {
                self.advance();
                Ok(BackTarget::Steps(n as usize))
            }
            Tok::Str(_) => Ok(BackTarget::Named(self.string()?)),
            other => Err(self.err(format!("expected step count or name, found {other:?}"))),
        }
    }

    fn sub_pipelines(&mut self) -> Result<Vec<Pipeline>, GremlinError> {
        // `(_()..., _()..., ...)`
        self.expect(&Tok::LParen)?;
        let mut out = Vec::new();
        loop {
            self.expect(&Tok::Underscore)?;
            self.expect(&Tok::LParen)?;
            self.expect(&Tok::RParen)?;
            let mut pipes = Vec::new();
            self.pipe_chain(&mut pipes)?;
            out.push(Pipeline { pipes });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(out)
    }

    fn closure_block(&mut self) -> Result<Closure, GremlinError> {
        self.expect(&Tok::LBrace)?;
        let c = self.closure_or()?;
        self.expect(&Tok::RBrace)?;
        Ok(c)
    }

    /// Returns `None` for pure side-effect pipes with ignorable arguments.
    fn pipe(&mut self) -> Result<Option<Pipe>, GremlinError> {
        let name = self.ident()?;
        Ok(Some(match name.as_str() {
            "out" => Pipe::Out(self.string_list()?),
            "in" => Pipe::In(self.string_list()?),
            "both" => Pipe::Both(self.string_list()?),
            "outE" => Pipe::OutE(self.string_list()?),
            "inE" => Pipe::InE(self.string_list()?),
            "bothE" => Pipe::BothE(self.string_list()?),
            "outV" => {
                self.empty_parens()?;
                Pipe::OutV
            }
            "inV" => {
                self.empty_parens()?;
                Pipe::InV
            }
            "bothV" => {
                self.empty_parens()?;
                Pipe::BothV
            }
            "id" => {
                self.empty_parens()?;
                Pipe::Id
            }
            "label" => {
                self.empty_parens()?;
                Pipe::Label
            }
            "values" | "property" => {
                self.expect(&Tok::LParen)?;
                let key = self.string()?;
                self.expect(&Tok::RParen)?;
                Pipe::Values(key)
            }
            "path" => {
                self.empty_parens()?;
                Pipe::Path
            }
            "back" => {
                self.expect(&Tok::LParen)?;
                let target = self.back_target()?;
                self.expect(&Tok::RParen)?;
                Pipe::Back(target)
            }
            "has" => {
                self.expect(&Tok::LParen)?;
                let key = self.string()?;
                let (cmp, value) = if self.eat(&Tok::Comma) {
                    // `has('k', v)` or `has('k', T.op, v)`.
                    if matches!(self.peek(), Tok::Ident(t) if t == "T") {
                        self.advance();
                        self.expect(&Tok::Dot)?;
                        let op = self.ident()?;
                        let cmp = match op.as_str() {
                            "eq" => Cmp::Eq,
                            "neq" => Cmp::Neq,
                            "lt" => Cmp::Lt,
                            "lte" => Cmp::Lte,
                            "gt" => Cmp::Gt,
                            "gte" => Cmp::Gte,
                            other => return Err(self.err(format!("unknown T.{other}"))),
                        };
                        self.expect(&Tok::Comma)?;
                        (cmp, Some(self.lifted()?))
                    } else {
                        (Cmp::Eq, Some(self.lifted()?))
                    }
                } else {
                    (Cmp::Eq, None)
                };
                self.expect(&Tok::RParen)?;
                Pipe::Has { key, cmp, value }
            }
            "hasNot" => {
                self.expect(&Tok::LParen)?;
                let key = self.string()?;
                self.expect(&Tok::RParen)?;
                Pipe::HasNot { key }
            }
            "filter" => Pipe::Filter(self.closure_block()?),
            "interval" => {
                self.expect(&Tok::LParen)?;
                let key = self.string()?;
                self.expect(&Tok::Comma)?;
                let lo = self.lifted()?;
                self.expect(&Tok::Comma)?;
                let hi = self.lifted()?;
                self.expect(&Tok::RParen)?;
                Pipe::Interval { key, lo, hi }
            }
            "range" => {
                self.expect(&Tok::LParen)?;
                let lo = self.int()?;
                self.expect(&Tok::Comma)?;
                let hi = self.int()?;
                self.expect(&Tok::RParen)?;
                Pipe::Range { lo, hi }
            }
            "dedup" => {
                self.empty_parens()?;
                Pipe::Dedup
            }
            "except" => {
                self.expect(&Tok::LParen)?;
                let var = self.var_name()?;
                self.expect(&Tok::RParen)?;
                Pipe::Except(var)
            }
            "retain" => {
                self.expect(&Tok::LParen)?;
                let var = self.var_name()?;
                self.expect(&Tok::RParen)?;
                Pipe::Retain(var)
            }
            "simplePath" => {
                self.empty_parens()?;
                Pipe::SimplePath
            }
            "and" => Pipe::And(self.sub_pipelines()?),
            "or" => Pipe::Or(self.sub_pipelines()?),
            "as" => {
                self.expect(&Tok::LParen)?;
                let name = self.string()?;
                self.expect(&Tok::RParen)?;
                Pipe::As(name)
            }
            "aggregate" => {
                self.expect(&Tok::LParen)?;
                let var = self.var_name()?;
                self.expect(&Tok::RParen)?;
                Pipe::Aggregate(var)
            }
            "ifThenElse" => {
                let test = self.closure_block()?;
                let then = self.closure_block()?;
                let els = self.closure_block()?;
                Pipe::IfThenElse { test, then, els }
            }
            "copySplit" => Pipe::CopySplit(self.sub_pipelines()?),
            "fairMerge" | "exhaustMerge" => {
                self.empty_parens()?;
                return Ok(None); // merge is implicit in CopySplit's semantics
            }
            "loop" => {
                self.expect(&Tok::LParen)?;
                let back = self.back_target()?;
                self.expect(&Tok::RParen)?;
                let cond = self.closure_block()?;
                Pipe::Loop { back, cond }
            }
            "count" => {
                self.empty_parens()?;
                Pipe::Count
            }
            // Recognized side-effect pipes: identity semantics (§4.4).
            "groupBy" | "groupCount" | "table" | "cap" | "iterate" | "tree" | "store"
            | "sideEffect" | "optional" => {
                self.skip_args()?;
                Pipe::SideEffect(name)
            }
            other => return Err(self.err(format!("unknown pipe '{other}'"))),
        }))
    }

    fn var_name(&mut self) -> Result<String, GremlinError> {
        match self.peek().clone() {
            Tok::Ident(_) => self.ident(),
            Tok::Str(_) => self.string(),
            other => Err(self.err(format!("expected variable name, found {other:?}"))),
        }
    }

    /// Consume and discard a side-effect pipe's arguments: any balanced
    /// `(...)` and/or `{...}` blocks.
    fn skip_args(&mut self) -> Result<(), GremlinError> {
        loop {
            match self.peek() {
                Tok::LParen => self.skip_balanced(&Tok::LParen, &Tok::RParen)?,
                Tok::LBrace => self.skip_balanced(&Tok::LBrace, &Tok::RBrace)?,
                _ => break,
            }
        }
        Ok(())
    }

    fn skip_balanced(&mut self, open: &Tok, close: &Tok) -> Result<(), GremlinError> {
        self.expect(open)?;
        let mut depth = 1usize;
        loop {
            match self.peek() {
                Tok::Eof => return Err(self.err("unbalanced delimiters")),
                t if t == open => {
                    depth += 1;
                    self.advance();
                }
                t if t == close => {
                    depth -= 1;
                    self.advance();
                    if depth == 0 {
                        return Ok(());
                    }
                }
                _ => {
                    self.advance();
                }
            }
        }
    }

    // ---- closures ----

    fn closure_or(&mut self) -> Result<Closure, GremlinError> {
        let mut left = self.closure_and()?;
        while self.eat(&Tok::OrOr) {
            let right = self.closure_and()?;
            left = Closure::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn closure_and(&mut self) -> Result<Closure, GremlinError> {
        let mut left = self.closure_cmp()?;
        while self.eat(&Tok::AndAnd) {
            let right = self.closure_cmp()?;
            left = Closure::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn closure_cmp(&mut self) -> Result<Closure, GremlinError> {
        let left = self.closure_unary()?;
        let cmp = match self.peek() {
            Tok::EqEq => Cmp::Eq,
            Tok::Neq => Cmp::Neq,
            Tok::Lt => Cmp::Lt,
            Tok::Lte => Cmp::Lte,
            Tok::Gt => Cmp::Gt,
            Tok::Gte => Cmp::Gte,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.closure_unary()?;
        Ok(Closure::Compare(cmp, Box::new(left), Box::new(right)))
    }

    fn closure_unary(&mut self) -> Result<Closure, GremlinError> {
        if self.eat(&Tok::Bang) {
            return Ok(Closure::Not(Box::new(self.closure_unary()?)));
        }
        self.closure_primary()
    }

    fn closure_primary(&mut self) -> Result<Closure, GremlinError> {
        if self.eat(&Tok::LParen) {
            let inner = self.closure_or()?;
            self.expect(&Tok::RParen)?;
            return Ok(inner);
        }
        if let Tok::Ident(name) = self.peek().clone() {
            if name == "it" {
                self.advance();
                if self.eat(&Tok::Dot) {
                    let prop = self.ident()?;
                    if prop == "loops" {
                        return Ok(Closure::Loops);
                    }
                    // `it.key.contains('x')`
                    if matches!(self.peek(), Tok::Dot)
                        && matches!(self.peek2(), Tok::Ident(m) if m == "contains")
                    {
                        self.advance(); // .
                        self.advance(); // contains
                        self.expect(&Tok::LParen)?;
                        let needle = self.literal()?;
                        self.expect(&Tok::RParen)?;
                        return Ok(Closure::Contains(
                            Box::new(Closure::Prop(prop)),
                            Box::new(Closure::Literal(needle)),
                        ));
                    }
                    return Ok(Closure::Prop(prop));
                }
                return Ok(Closure::It);
            }
        }
        Ok(Closure::Literal(self.literal()?))
    }
}

/// Convenience: build an integer JSON literal (used by tests/translators).
pub fn json_int(v: i64) -> Json {
    Json::Num(Number::Int(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_example_query() {
        // §4.1: g.V.filter{it.tag=='w'}.both.dedup().count()
        let q = parse_query("g.V.filter{it.tag=='w'}.both.dedup().count()").unwrap();
        assert_eq!(q.pipes.len(), 5);
        assert!(matches!(q.pipes[0], Pipe::Vertices { filter: None }));
        assert!(matches!(q.pipes[1], Pipe::Filter(_)));
        assert!(matches!(q.pipes[2], Pipe::Both(ref l) if l.is_empty()));
        assert!(matches!(q.pipes[3], Pipe::Dedup));
        assert!(matches!(q.pipes[4], Pipe::Count));
    }

    #[test]
    fn labeled_traversals_and_has() {
        let q = parse_query("g.V.has('name','marko').out('knows','created')[0..9]").unwrap();
        assert!(matches!(
            q.pipes[1],
            Pipe::Has { ref key, cmp: Cmp::Eq, value: Some(_) } if key == "name"
        ));
        assert!(matches!(q.pipes[2], Pipe::Out(ref l) if l.len() == 2));
        assert!(matches!(q.pipes[3], Pipe::Range { lo: 0, hi: 9 }));
    }

    #[test]
    fn has_with_comparator() {
        let q = parse_query("g.V.has('age', T.gt, 29)").unwrap();
        assert!(matches!(
            q.pipes[1],
            Pipe::Has {
                cmp: Cmp::Gt,
                value: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn graph_query_start_filter() {
        let q = parse_query("g.V('uri', 'http://dbpedia.org/ontology/Person').in('type')").unwrap();
        assert!(matches!(q.pipes[0], Pipe::Vertices { filter: Some(_) }));
    }

    #[test]
    fn loop_and_back() {
        let q = parse_query("g.v(1).as('x').out('isPartOf').loop('x'){it.loops < 4}.path").unwrap();
        assert!(matches!(q.pipes[1], Pipe::As(ref n) if n == "x"));
        assert!(matches!(
            q.pipes[3],
            Pipe::Loop { back: BackTarget::Named(ref n), .. } if n == "x"
        ));
        assert!(matches!(q.pipes[4], Pipe::Path));
        let q = parse_query("g.v(1).out.loop(1){it.loops < 3}").unwrap();
        assert!(matches!(
            q.pipes[2],
            Pipe::Loop {
                back: BackTarget::Steps(1),
                ..
            }
        ));
    }

    #[test]
    fn branch_pipes() {
        let q =
            parse_query("g.v(1).copySplit(_().out('a'), _().in('b')).fairMerge.dedup()").unwrap();
        assert!(matches!(q.pipes[1], Pipe::CopySplit(ref branches) if branches.len() == 2));
        // fairMerge is folded into CopySplit.
        assert!(matches!(q.pipes[2], Pipe::Dedup));

        let q = parse_query("g.V.and(_().out('a'), _().out('b'))").unwrap();
        assert!(matches!(q.pipes[1], Pipe::And(ref b) if b.len() == 2));
    }

    #[test]
    fn if_then_else() {
        let q = parse_query("g.V.ifThenElse{it.age > 30}{it.name}{it.age}").unwrap();
        assert!(matches!(q.pipes[1], Pipe::IfThenElse { .. }));
    }

    #[test]
    fn aggregate_except_retain() {
        let q = parse_query("g.v(1).aggregate(x).out.except(x)").unwrap();
        assert!(matches!(q.pipes[1], Pipe::Aggregate(ref v) if v == "x"));
        assert!(matches!(q.pipes[3], Pipe::Except(ref v) if v == "x"));
    }

    #[test]
    fn side_effect_pipes_are_identity() {
        let q = parse_query("g.V.groupBy{it.name}{it}.out.table(t1).iterate()").unwrap();
        assert!(matches!(q.pipes[1], Pipe::SideEffect(ref n) if n == "groupBy"));
        assert!(matches!(q.pipes[3], Pipe::SideEffect(ref n) if n == "table"));
    }

    #[test]
    fn crud_statements() {
        assert_eq!(
            parse("g.addVertex([name:'marko', age:29])").unwrap(),
            GremlinStatement::AddVertex {
                props: vec![
                    ("name".into(), Json::str("marko")),
                    ("age".into(), Json::int(29))
                ],
            }
        );
        assert_eq!(
            parse("g.addEdge(g.v(1), g.v(2), 'knows', [weight:0.5])").unwrap(),
            GremlinStatement::AddEdge {
                src: 1,
                dst: 2,
                label: "knows".into(),
                props: vec![("weight".into(), Json::float(0.5))],
            }
        );
        assert_eq!(
            parse("g.removeVertex(g.v(3))").unwrap(),
            GremlinStatement::RemoveVertex { id: 3 }
        );
        assert_eq!(
            parse("g.removeEdge(g.e(7))").unwrap(),
            GremlinStatement::RemoveEdge { id: 7 }
        );
        assert_eq!(
            parse("g.v(1).setProperty('age', 30)").unwrap(),
            GremlinStatement::SetVertexProperty {
                id: 1,
                key: "age".into(),
                value: Json::int(30)
            }
        );
    }

    #[test]
    fn empty_map_literal() {
        assert_eq!(
            parse("g.addVertex([:])").unwrap(),
            GremlinStatement::AddVertex { props: vec![] }
        );
        assert_eq!(
            parse("g.addVertex()").unwrap(),
            GremlinStatement::AddVertex { props: vec![] }
        );
    }

    #[test]
    fn closure_operators() {
        let q = parse_query("g.V.filter{it.age >= 18 && (it.name == 'x' || !(it.flag == true))}")
            .unwrap();
        let Pipe::Filter(c) = &q.pipes[1] else {
            panic!()
        };
        assert!(matches!(c, Closure::And(_, _)));
    }

    #[test]
    fn contains_closure() {
        let q = parse_query("g.V.filter{it.label.contains('en')}").unwrap();
        assert!(matches!(q.pipes[1], Pipe::Filter(Closure::Contains(_, _))));
    }

    #[test]
    fn lifted_literals_are_numbered_in_text_order() {
        let (statement, l) = parse_lifted(
            "g.v(7).has('age', T.gt, 30).copySplit(_().interval('w', 0.5, 2), _().has('n', 'x'))",
        )
        .unwrap();
        assert_eq!(
            l.literals,
            [
                Json::int(7),
                Json::int(30),
                Json::float(0.5),
                Json::int(2),
                Json::str("x")
            ]
        );
        let GremlinStatement::Query(q) = &statement else {
            panic!()
        };
        assert_eq!(q.pipes[0], Pipe::VertexById(Lit { value: 7, slot: 0 }));
        let Pipe::CopySplit(branches) = &q.pipes[2] else {
            panic!()
        };
        assert!(matches!(
            &branches[0].pipes[0],
            Pipe::Interval {
                lo: Lit { slot: 2, .. },
                hi: Lit { slot: 3, .. },
                ..
            }
        ));
        assert!(matches!(
            &branches[1].pipes[0],
            Pipe::Has {
                value: Some(Lit { slot: 4, .. }),
                ..
            }
        ));
        // `parse` is the same parse without the side tables.
        assert_eq!(
            parse("g.v(7).has('age', T.gt, 30)").unwrap(),
            parse_lifted("g.v(7).has('age', T.gt, 30)").unwrap().0
        );
    }

    #[test]
    fn shape_keeps_everything_but_the_values_of_lifted_literals() {
        let shape = |q: &str| parse_lifted(q).unwrap().1.shape;
        assert_eq!(
            shape("g.v(7).out('team')[0..9].has('age', T.gt, 30)"),
            "g . v ( ?i ) . out ( \"team\" ) [ 0 .. 9 ] . has ( \"age\" , T . gt , ?i ) "
        );
        // Values, quoting, spacing and a trailing `;` are not shape.
        assert_eq!(
            shape("g.v(7).has('n','a')"),
            shape("g.v( -8 ).has(\"n\", 'b\\'c');")
        );
        assert_eq!(shape("g.V('k', 1.5)"), shape("g.V('k', 0.25)"));
        // Literal types, labels, keys, operators, bounds and closures are.
        let distinct = [
            "g.V.has('k', 1)",
            "g.V.has('k', 1.0)",
            "g.V.has('k', '1')",
            "g.V.has('k', true)",
            "g.V.has('k', null)",
            "g.V.has('j', 1)",
            "g.V.has('k', T.neq, 1)",
            "g.V.has('k')",
            "g.V.out('k')",
            "g.V.out(\"j\")",
            "g.V.out",
            "g.V[0..1]",
            "g.V[0..2]",
            "g.V.range(0, 2)",
            "g.V.out.loop(1){it.loops < 2}",
            "g.V.out.loop(1){it.loops < 3}",
            "g.V.filter{it.k == 1}",
            "g.V.filter{it.k == 2}",
            "g.V.filter{it.k.contains('a')}",
            "g.V.filter{it.k.contains('b')}",
        ];
        let shapes: std::collections::BTreeSet<String> =
            distinct.iter().map(|q| shape(q)).collect();
        assert_eq!(shapes.len(), distinct.len());
        // CRUD statements are not templates.
        let (_, crud) = parse_lifted("g.v(1).setProperty('age', 30)").unwrap();
        assert_eq!(crud.shape, "");
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "g",
            "g.",
            "g.W",
            "x.V",
            "g.V.unknownPipe",
            "g.V.has(",
            "g.v()",
            "g.V.loop(1)",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }
}
