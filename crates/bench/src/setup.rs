//! Store construction from generated datasets.

use sqlgraph_baselines::{KvGraph, NativeGraph};
use sqlgraph_core::{GraphData, SchemaConfig, SqlGraph};
use sqlgraph_datagen::Dataset;

/// Convert a generated dataset into SQLGraph's bulk-load form.
pub fn to_graph_data(data: &Dataset) -> GraphData {
    GraphData {
        vertices: data.vertices.clone(),
        edges: data.edges.clone(),
    }
}

/// Build a SQLGraph store (bulk load: coloring computed from the data).
/// 16 column triads per adjacency table — the paper's tables are wide
/// enough that adjacency spills are rare (Table 3).
pub fn build_sqlgraph(data: &Dataset) -> SqlGraph {
    let g = SqlGraph::with_config(SchemaConfig {
        out_buckets: 16,
        in_buckets: 16,
    })
    .expect("schema");
    g.bulk_load(&to_graph_data(data)).expect("bulk load");
    // The paper adds specialized attribute indexes for queried keys
    // (§3.3); `uri` serves the typed GraphQuery starts, the rest the
    // Table 2 lookups.
    for key in [
        "uri",
        "name",
        "national",
        "genre",
        "regionAffiliation",
        "wikiPageID",
        "bucket",
    ] {
        g.create_vertex_property_index(key).expect("property index");
    }
    g
}

/// Build the Titan-style baseline.
pub fn build_kvgraph(data: &Dataset) -> KvGraph {
    let g = KvGraph::new();
    data.load_blueprints(&g).expect("load");
    g
}

/// Build the Neo4j-style baseline.
pub fn build_nativegraph(data: &Dataset) -> NativeGraph {
    let g = NativeGraph::new();
    data.load_blueprints(&g).expect("load");
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlgraph_datagen::dbpedia::{generate, DbpediaConfig};
    use sqlgraph_gremlin::Blueprints;

    #[test]
    fn all_stores_load_the_same_graph() {
        let g = generate(&DbpediaConfig::tiny());
        let sql = build_sqlgraph(&g.data);
        let kv = build_kvgraph(&g.data);
        let native = build_nativegraph(&g.data);
        let n = g.data.vertex_count();
        assert_eq!(sql.database().table_len("va").unwrap(), n);
        assert_eq!(kv.vertex_count(), n);
        assert_eq!(native.vertex_count(), n);
    }
}
