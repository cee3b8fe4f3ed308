//! # sqlgraph-gremlin — Gremlin front end and reference interpreter
//!
//! From-scratch tooling for the Gremlin 1.x pipe dialect used by the
//! SQLGraph paper (SIGMOD 2015): a tokenizer and parser producing a pipe
//! AST ([`ast::Pipeline`]), the Blueprints-style property graph trait
//! ([`Blueprints`]) every store in this workspace implements, and a
//! step-at-a-time interpreter ([`interp::eval`]) that executes pipelines
//! the way the TinkerPop stack does — one store call per element per step.
//!
//! The interpreter has two roles: it is the execution engine of the
//! baseline comparator stores, and it is the semantics oracle that the
//! Gremlin→SQL translation in `sqlgraph-core` is differential-tested
//! against.
//!
//! ```
//! use sqlgraph_gremlin::{parse_query, interp, MemGraph};
//!
//! let g = MemGraph::sample();
//! let q = parse_query("g.V.has('name','marko').out('knows').count()").unwrap();
//! let out = interp::eval(&g, &q).unwrap();
//! assert_eq!(out[0].to_json().as_i64(), Some(2));
//! ```

pub mod ast;
pub mod blueprints;
pub mod interp;
pub mod lex;
pub mod memgraph;
pub mod parse;

pub use ast::{GremlinStatement, Pipeline};
pub use blueprints::{Blueprints, Direction, GraphError, GraphResult, GraphTransaction};
pub use interp::Elem;
pub use lex::GremlinError;
pub use memgraph::MemGraph;
pub use parse::{parse, parse_lifted, parse_query, Lifted};
