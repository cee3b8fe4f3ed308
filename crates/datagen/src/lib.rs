//! # sqlgraph-datagen — datasets and workloads for the SQLGraph evaluation
//!
//! The paper evaluates on two converted benchmarks that cannot be
//! redistributed at their original scale: DBpedia 3.8 (a 300M+ edge RDF
//! dump converted to a property graph, §3.1) and LinkBench (Facebook's
//! social-graph benchmark, §5.2). This crate generates scaled synthetic
//! graphs that preserve the *structural characteristics* those experiments
//! exercise, plus the exact query and operation mixes:
//!
//! * [`dbpedia`] — a knowledge-graph generator with `isPartOf` containment
//!   trees, player↔team bipartite relations, a large skewed edge-label
//!   vocabulary, datatype properties (including long strings and
//!   multi-valued keys), and provenance edge attributes; together with the
//!   Table 1 traversal queries, Table 2 attribute queries, and the
//!   DBpedia/SPARQL-derived Gremlin benchmark query set.
//! * [`linkbench`] — LinkBench's object/association model with power-law
//!   degrees and the Table 6 operation mix.
//!
//! All generation is seeded and deterministic.

pub mod dbpedia;
pub mod linkbench;

use sqlgraph_gremlin::{Blueprints, GraphResult};
use sqlgraph_json::Json;

/// One vertex: `(vertex id, properties)`; ids are dense starting at 1.
pub type VertexSpec = (i64, Vec<(String, Json)>);
/// One edge: `(edge id, source, target, label, properties)`.
pub type EdgeSpec = (i64, i64, i64, String, Vec<(String, Json)>);

/// A generated property graph, store-agnostic.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Vertices.
    pub vertices: Vec<VertexSpec>,
    /// Edges.
    pub edges: Vec<EdgeSpec>,
}

impl Dataset {
    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Load into any Blueprints store, asserting the store assigns the same
    /// dense ids (true for all stores in this workspace when fresh).
    pub fn load_blueprints<G: Blueprints + ?Sized>(&self, g: &G) -> GraphResult<()> {
        for (vid, props) in &self.vertices {
            let got = g.add_vertex(props)?;
            debug_assert_eq!(got, *vid, "store must assign dense vertex ids");
        }
        for (eid, src, dst, label, props) in &self.edges {
            let got = g.add_edge(*src, *dst, label, props)?;
            debug_assert_eq!(got, *eid, "store must assign dense edge ids");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlgraph_gremlin::MemGraph;

    #[test]
    fn load_into_memgraph() {
        let mut data = Dataset::default();
        data.vertices.push((1, vec![("a".into(), Json::int(1))]));
        data.vertices.push((2, vec![]));
        data.edges.push((1, 1, 2, "x".into(), vec![]));
        let g = MemGraph::new();
        data.load_blueprints(&g).unwrap();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }
}
