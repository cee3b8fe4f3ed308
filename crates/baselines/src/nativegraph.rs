//! `NativeGraph`: the Neo4j-style comparator.
//!
//! Record-based native graph storage: fixed vertex records pointing at the
//! head of per-vertex linked chains of edge records, exactly the Neo4j 1.x
//! store layout. Traversal is pointer chasing (chain walks); attribute
//! access reads the record's property map; a Lucene-like property index
//! serves `g.V('key', value)` starts.
//!
//! Concurrency mirrors the era's behaviour for the LinkBench shape: one
//! store-wide RwLock — concurrent readers scale, writers serialize.

use crate::unpoison;
use sqlgraph_gremlin::blueprints::{Blueprints, Direction, GraphError, GraphResult};
use sqlgraph_json::Json;
use std::collections::HashMap;
use std::sync::RwLock;

type EdgePtr = Option<usize>;

#[derive(Debug, Clone)]
struct VertexRec {
    first_out: EdgePtr,
    first_in: EdgePtr,
    props: HashMap<String, Json>,
}

#[derive(Debug, Clone)]
struct EdgeRec {
    src: i64,
    dst: i64,
    label: u32,
    next_out: EdgePtr,
    prev_out: EdgePtr,
    next_in: EdgePtr,
    prev_in: EdgePtr,
    props: HashMap<String, Json>,
}

#[derive(Debug, Default)]
struct Inner {
    vertices: Vec<Option<VertexRec>>,
    edges: Vec<Option<EdgeRec>>,
    labels: Vec<String>,
    label_ids: HashMap<String, u32>,
    /// Lucene-analogue property index: (key, rendered value) → vertex ids.
    prop_index: HashMap<(String, String), Vec<i64>>,
}

impl Inner {
    fn label_id(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.label_ids.get(label) {
            return id;
        }
        let id = self.labels.len() as u32;
        self.labels.push(label.to_string());
        self.label_ids.insert(label.to_string(), id);
        id
    }

    fn vertex(&self, v: i64) -> Option<&VertexRec> {
        if v < 1 {
            return None;
        }
        self.vertices.get(v as usize - 1)?.as_ref()
    }

    fn index_put(&mut self, key: &str, value: &Json, vid: i64) {
        self.prop_index
            .entry((key.to_string(), value.to_string()))
            .or_default()
            .push(vid);
    }

    fn index_del(&mut self, key: &str, value: &Json, vid: i64) {
        if let Some(ids) = self
            .prop_index
            .get_mut(&(key.to_string(), value.to_string()))
        {
            ids.retain(|&x| x != vid);
        }
    }

    /// Unlink an edge record from both chains and free it.
    fn unlink_edge(&mut self, eid0: usize) {
        let Some(rec) = self.edges[eid0].take() else {
            return;
        };
        // Out chain.
        match rec.prev_out {
            Some(p) => {
                if let Some(Some(prev)) = self.edges.get_mut(p) {
                    prev.next_out = rec.next_out;
                }
            }
            None => {
                if let Some(Some(v)) = self.vertices.get_mut(rec.src as usize - 1) {
                    v.first_out = rec.next_out;
                }
            }
        }
        if let Some(n) = rec.next_out {
            if let Some(Some(next)) = self.edges.get_mut(n) {
                next.prev_out = rec.prev_out;
            }
        }
        // In chain.
        match rec.prev_in {
            Some(p) => {
                if let Some(Some(prev)) = self.edges.get_mut(p) {
                    prev.next_in = rec.next_in;
                }
            }
            None => {
                if let Some(Some(v)) = self.vertices.get_mut(rec.dst as usize - 1) {
                    v.first_in = rec.next_in;
                }
            }
        }
        if let Some(n) = rec.next_in {
            if let Some(Some(next)) = self.edges.get_mut(n) {
                next.prev_in = rec.prev_in;
            }
        }
    }
}

/// The Neo4j-style store.
#[derive(Debug, Default)]
pub struct NativeGraph {
    inner: RwLock<Inner>,
}

impl NativeGraph {
    /// An empty graph.
    pub fn new() -> NativeGraph {
        NativeGraph::default()
    }

    /// Approximate storage footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        let inner = unpoison(self.inner.read());
        let vbytes: usize = inner
            .vertices
            .iter()
            .flatten()
            .map(|v| {
                24 + v
                    .props
                    .iter()
                    .map(|(k, j)| k.len() + j.to_string().len())
                    .sum::<usize>()
            })
            .sum();
        let ebytes: usize = inner
            .edges
            .iter()
            .flatten()
            .map(|e| {
                56 + e
                    .props
                    .iter()
                    .map(|(k, j)| k.len() + j.to_string().len())
                    .sum::<usize>()
            })
            .sum();
        vbytes + ebytes
    }
}

impl Blueprints for NativeGraph {
    fn vertex_ids(&self) -> Vec<i64> {
        let inner = unpoison(self.inner.read());
        inner
            .vertices
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|_| i as i64 + 1))
            .collect()
    }

    fn edge_ids(&self) -> Vec<i64> {
        let inner = unpoison(self.inner.read());
        inner
            .edges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|_| i as i64 + 1))
            .collect()
    }

    fn vertex_exists(&self, v: i64) -> bool {
        unpoison(self.inner.read()).vertex(v).is_some()
    }

    fn edge_exists(&self, e: i64) -> bool {
        e >= 1
            && unpoison(self.inner.read())
                .edges
                .get(e as usize - 1)
                .is_some_and(Option::is_some)
    }

    fn edges_of(&self, v: i64, dir: Direction, labels: &[String]) -> Vec<i64> {
        let inner = unpoison(self.inner.read());
        let Some(rec) = inner.vertex(v) else {
            return Vec::new();
        };
        let label_ids: Vec<u32> = labels
            .iter()
            .filter_map(|l| inner.label_ids.get(l).copied())
            .collect();
        if !labels.is_empty() && label_ids.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut walk = |mut cur: EdgePtr, out_chain: bool| {
            while let Some(idx) = cur {
                let Some(e) = inner.edges.get(idx).and_then(Option::as_ref) else {
                    break;
                };
                if labels.is_empty() || label_ids.contains(&e.label) {
                    out.push(idx as i64 + 1);
                }
                cur = if out_chain { e.next_out } else { e.next_in };
            }
        };
        if matches!(dir, Direction::Out | Direction::Both) {
            walk(rec.first_out, true);
        }
        if matches!(dir, Direction::In | Direction::Both) {
            walk(rec.first_in, false);
        }
        out
    }

    fn edge_label(&self, e: i64) -> Option<String> {
        let inner = unpoison(self.inner.read());
        let rec = inner.edges.get(e as usize - 1)?.as_ref()?;
        inner.labels.get(rec.label as usize).cloned()
    }

    fn edge_source(&self, e: i64) -> Option<i64> {
        unpoison(self.inner.read())
            .edges
            .get(e as usize - 1)?
            .as_ref()
            .map(|r| r.src)
    }

    fn edge_target(&self, e: i64) -> Option<i64> {
        unpoison(self.inner.read())
            .edges
            .get(e as usize - 1)?
            .as_ref()
            .map(|r| r.dst)
    }

    fn vertex_property(&self, v: i64, key: &str) -> Option<Json> {
        unpoison(self.inner.read())
            .vertex(v)?
            .props
            .get(key)
            .cloned()
    }

    fn edge_property(&self, e: i64, key: &str) -> Option<Json> {
        unpoison(self.inner.read())
            .edges
            .get(e as usize - 1)?
            .as_ref()?
            .props
            .get(key)
            .cloned()
    }

    fn vertices_by_property(&self, key: &str, value: &Json) -> Vec<i64> {
        unpoison(self.inner.read())
            .prop_index
            .get(&(key.to_string(), value.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    fn add_vertex(&self, props: &[(String, Json)]) -> GraphResult<i64> {
        let mut inner = unpoison(self.inner.write());
        inner.vertices.push(Some(VertexRec {
            first_out: None,
            first_in: None,
            props: props.iter().cloned().collect(),
        }));
        let vid = inner.vertices.len() as i64;
        for (k, v) in props {
            inner.index_put(k, v, vid);
        }
        Ok(vid)
    }

    fn add_edge(
        &self,
        src: i64,
        dst: i64,
        label: &str,
        props: &[(String, Json)],
    ) -> GraphResult<i64> {
        let mut inner = unpoison(self.inner.write());
        if inner.vertex(src).is_none() {
            return Err(GraphError::new(format!("no vertex {src}")));
        }
        if inner.vertex(dst).is_none() {
            return Err(GraphError::new(format!("no vertex {dst}")));
        }
        let label = inner.label_id(label);
        let idx = inner.edges.len();
        let old_out = inner.vertices[src as usize - 1].as_ref().unwrap().first_out;
        let old_in = inner.vertices[dst as usize - 1].as_ref().unwrap().first_in;
        inner.edges.push(Some(EdgeRec {
            src,
            dst,
            label,
            next_out: old_out,
            prev_out: None,
            next_in: old_in,
            prev_in: None,
            props: props.iter().cloned().collect(),
        }));
        if let Some(o) = old_out {
            if let Some(Some(e)) = inner.edges.get_mut(o) {
                e.prev_out = Some(idx);
            }
        }
        if let Some(i) = old_in {
            if let Some(Some(e)) = inner.edges.get_mut(i) {
                e.prev_in = Some(idx);
            }
        }
        inner.vertices[src as usize - 1].as_mut().unwrap().first_out = Some(idx);
        inner.vertices[dst as usize - 1].as_mut().unwrap().first_in = Some(idx);
        Ok(idx as i64 + 1)
    }

    fn remove_vertex(&self, v: i64) -> GraphResult<()> {
        let mut inner = unpoison(self.inner.write());
        let Some(rec) = inner.vertex(v).cloned() else {
            return Err(GraphError::new(format!("no vertex {v}")));
        };
        // Collect incident edges by chain walks, then unlink each.
        let mut incident = Vec::new();
        let mut cur = rec.first_out;
        while let Some(idx) = cur {
            let e = inner.edges[idx].as_ref().expect("chain intact");
            incident.push(idx);
            cur = e.next_out;
        }
        let mut cur = rec.first_in;
        while let Some(idx) = cur {
            let e = inner.edges[idx].as_ref().expect("chain intact");
            incident.push(idx);
            cur = e.next_in;
        }
        incident.sort_unstable();
        incident.dedup();
        for idx in incident {
            inner.unlink_edge(idx);
        }
        for (k, val) in rec.props.iter() {
            inner.index_del(k, val, v);
        }
        inner.vertices[v as usize - 1] = None;
        Ok(())
    }

    fn remove_edge(&self, e: i64) -> GraphResult<()> {
        let mut inner = unpoison(self.inner.write());
        if e < 1 || inner.edges.get(e as usize - 1).is_none_or(Option::is_none) {
            return Err(GraphError::new(format!("no edge {e}")));
        }
        inner.unlink_edge(e as usize - 1);
        Ok(())
    }

    fn set_vertex_property(&self, v: i64, key: &str, value: &Json) -> GraphResult<()> {
        let mut inner = unpoison(self.inner.write());
        if inner.vertex(v).is_none() {
            return Err(GraphError::new(format!("no vertex {v}")));
        }
        let old = inner.vertices[v as usize - 1]
            .as_mut()
            .unwrap()
            .props
            .insert(key.to_string(), value.clone());
        if let Some(old) = old {
            inner.index_del(key, &old, v);
        }
        inner.index_put(key, value, v);
        Ok(())
    }

    fn set_edge_property(&self, e: i64, key: &str, value: &Json) -> GraphResult<()> {
        let mut inner = unpoison(self.inner.write());
        let Some(Some(rec)) = inner.edges.get_mut(e as usize - 1) else {
            return Err(GraphError::new(format!("no edge {e}")));
        };
        rec.props.insert(key.to_string(), value.clone());
        Ok(())
    }
}
