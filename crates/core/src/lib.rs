//! # sqlgraph-core — the SQLGraph property graph store
//!
//! Rust reproduction of the primary contribution of *"SQLGraph: An
//! Efficient Relational-Based Property Graph Store"* (SIGMOD 2015):
//!
//! * the hybrid physical schema — relational hash tables (`OPA`/`OSA`/
//!   `IPA`/`ISA`) for adjacency, JSON documents (`VA`/`EA`) for vertex and
//!   edge attributes, with `EA` doubling as a redundant triple table
//!   ([`schema`]),
//! * edge-label → column assignment by graph coloring of the label
//!   co-occurrence graph ([`layout`]),
//! * compilation of side-effect-free Gremlin pipelines into a **single**
//!   SQL statement of chained CTEs ([`translate`]), with an interpreter
//!   fallback for dynamic loops (the paper's stored-procedure path),
//! * transactional graph updates including the negative-ID vertex deletion
//!   optimization and offline [`SqlGraph::vacuum`] (§4.5.2).
//!
//! # Quickstart
//!
//! ```
//! use sqlgraph_core::SqlGraph;
//!
//! let g = SqlGraph::new_in_memory();
//! let marko = g.add_vertex([("name", "marko".into()), ("age", 29i64.into())]).unwrap();
//! let vadas = g.add_vertex([("name", "vadas".into()), ("age", 27i64.into())]).unwrap();
//! g.add_edge(marko, vadas, "knows", [("weight", 0.5f64.into())]).unwrap();
//!
//! // One Gremlin query → one SQL statement.
//! let out = g.query("g.V.has('name','marko').out('knows').values('name')").unwrap();
//! assert_eq!(out.strings(), ["vadas"]);
//! ```

pub mod alt;
pub mod layout;
pub mod schema;
pub mod store;
pub mod translate;

// The rel executor now runs morsel workers inside queries, and the bench
// harness drives one `SqlGraph` from many client threads — the store's
// read paths must be `Sync`-clean. Enforced at compile time so a stray
// `Rc`/`RefCell` fails here, not in a race.
const _: () = {
    const fn sync_clean<T: Send + Sync>() {}
    sync_clean::<store::SqlGraph>();
    sync_clean::<store::GraphData>();
};

pub use layout::{color_labels, ColorMap, GraphLayout, LayoutStats};
pub use schema::{deleted_id, SchemaConfig, MV_BASE};
pub use store::{props_to_json, value_to_json, GraphData, GraphTxn, SqlGraph};
pub use translate::{translate, translate_with, AdjacencyStrategy, TranslateOptions, Unsupported};

use sqlgraph_gremlin::{GraphError, GremlinError};
use sqlgraph_rel::Error as RelError;

/// Errors from the SQLGraph store.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Relational engine error.
    Rel(RelError),
    /// Gremlin lex/parse error.
    Gremlin(GremlinError),
    /// Property graph operation error.
    Graph(GraphError),
    /// A query outside the translatable subset where no fallback applies.
    Unsupported(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Rel(e) => write!(f, "{e}"),
            CoreError::Gremlin(e) => write!(f, "{e}"),
            CoreError::Graph(e) => write!(f, "{e}"),
            CoreError::Unsupported(r) => write!(f, "unsupported: {r}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<RelError> for CoreError {
    fn from(e: RelError) -> Self {
        CoreError::Rel(e)
    }
}

impl From<GremlinError> for CoreError {
    fn from(e: GremlinError) -> Self {
        CoreError::Gremlin(e)
    }
}

impl From<GraphError> for CoreError {
    fn from(e: GraphError) -> Self {
        CoreError::Graph(e)
    }
}
