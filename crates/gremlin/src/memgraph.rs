//! A minimal in-memory property graph: the simplest possible [`Blueprints`]
//! implementation. Used as the semantics oracle in differential tests and
//! as a scratch graph in examples. Not optimized — correctness reference
//! only.

use crate::blueprints::{Blueprints, Direction, GraphError, GraphResult};
use sqlgraph_json::Json;
use std::collections::HashMap;
use unpoisoned::Mutex;

/// Tiny std-Mutex wrapper so this crate stays dependency-free.
mod unpoisoned {
    /// `std::sync::Mutex` with poisoning folded away (lock poisoning on a
    /// panicking test thread should not cascade).
    #[derive(Debug, Default)]
    pub struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        /// Lock, ignoring poisoning.
        pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
            match self.0.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            }
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    next_vid: i64,
    next_eid: i64,
    vertices: HashMap<i64, HashMap<String, Json>>,
    edges: HashMap<i64, EdgeRec>,
    out_edges: HashMap<i64, Vec<i64>>,
    in_edges: HashMap<i64, Vec<i64>>,
}

#[derive(Debug, Clone)]
struct EdgeRec {
    src: i64,
    dst: i64,
    label: String,
    props: HashMap<String, Json>,
}

/// The in-memory reference graph.
#[derive(Debug, Default)]
pub struct MemGraph {
    inner: Mutex<Inner>,
}

impl MemGraph {
    /// An empty graph.
    pub fn new() -> MemGraph {
        MemGraph::default()
    }

    /// Build the six-vertex sample graph of the paper's Figure 2a.
    pub fn sample() -> MemGraph {
        let g = MemGraph::new();
        let props = |pairs: &[(&str, Json)]| -> Vec<(String, Json)> {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect()
        };
        let v1 = g
            .add_vertex(&props(&[
                ("name", Json::str("marko")),
                ("age", Json::int(29)),
            ]))
            .unwrap();
        let v2 = g
            .add_vertex(&props(&[
                ("name", Json::str("vadas")),
                ("age", Json::int(27)),
            ]))
            .unwrap();
        let v3 = g
            .add_vertex(&props(&[
                ("name", Json::str("lop")),
                ("lang", Json::str("java")),
            ]))
            .unwrap();
        let v4 = g
            .add_vertex(&props(&[
                ("name", Json::str("josh")),
                ("age", Json::int(32)),
            ]))
            .unwrap();
        g.add_edge(v1, v2, "knows", &props(&[("weight", Json::float(0.5))]))
            .unwrap();
        g.add_edge(v1, v4, "knows", &props(&[("weight", Json::float(1.0))]))
            .unwrap();
        g.add_edge(v1, v3, "created", &props(&[("weight", Json::float(0.4))]))
            .unwrap();
        g.add_edge(v4, v2, "likes", &props(&[("weight", Json::float(0.2))]))
            .unwrap();
        g.add_edge(v4, v3, "created", &props(&[("weight", Json::float(0.8))]))
            .unwrap();
        g
    }
}

impl Blueprints for MemGraph {
    fn vertex_ids(&self) -> Vec<i64> {
        let mut ids: Vec<i64> = self.inner.lock().vertices.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn edge_ids(&self) -> Vec<i64> {
        let mut ids: Vec<i64> = self.inner.lock().edges.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn vertex_exists(&self, v: i64) -> bool {
        self.inner.lock().vertices.contains_key(&v)
    }

    fn edge_exists(&self, e: i64) -> bool {
        self.inner.lock().edges.contains_key(&e)
    }

    fn edges_of(&self, v: i64, dir: Direction, labels: &[String]) -> Vec<i64> {
        let inner = self.inner.lock();
        let mut out = Vec::new();
        let matches = |e: &i64| -> bool {
            labels.is_empty()
                || inner
                    .edges
                    .get(e)
                    .is_some_and(|rec| labels.contains(&rec.label))
        };
        if matches!(dir, Direction::Out | Direction::Both) {
            if let Some(es) = inner.out_edges.get(&v) {
                out.extend(es.iter().filter(|e| matches(e)));
            }
        }
        if matches!(dir, Direction::In | Direction::Both) {
            if let Some(es) = inner.in_edges.get(&v) {
                out.extend(es.iter().filter(|e| matches(e)));
            }
        }
        out
    }

    fn edge_label(&self, e: i64) -> Option<String> {
        self.inner.lock().edges.get(&e).map(|r| r.label.clone())
    }

    fn edge_source(&self, e: i64) -> Option<i64> {
        self.inner.lock().edges.get(&e).map(|r| r.src)
    }

    fn edge_target(&self, e: i64) -> Option<i64> {
        self.inner.lock().edges.get(&e).map(|r| r.dst)
    }

    fn vertex_property(&self, v: i64, key: &str) -> Option<Json> {
        self.inner.lock().vertices.get(&v)?.get(key).cloned()
    }

    fn edge_property(&self, e: i64, key: &str) -> Option<Json> {
        self.inner.lock().edges.get(&e)?.props.get(key).cloned()
    }

    fn add_vertex(&self, props: &[(String, Json)]) -> GraphResult<i64> {
        let mut inner = self.inner.lock();
        inner.next_vid += 1;
        let id = inner.next_vid;
        inner.vertices.insert(id, props.iter().cloned().collect());
        Ok(id)
    }

    fn add_edge(
        &self,
        src: i64,
        dst: i64,
        label: &str,
        props: &[(String, Json)],
    ) -> GraphResult<i64> {
        let mut inner = self.inner.lock();
        if !inner.vertices.contains_key(&src) {
            return Err(GraphError::new(format!("no vertex {src}")));
        }
        if !inner.vertices.contains_key(&dst) {
            return Err(GraphError::new(format!("no vertex {dst}")));
        }
        inner.next_eid += 1;
        let id = inner.next_eid;
        inner.edges.insert(
            id,
            EdgeRec {
                src,
                dst,
                label: label.to_string(),
                props: props.iter().cloned().collect(),
            },
        );
        inner.out_edges.entry(src).or_default().push(id);
        inner.in_edges.entry(dst).or_default().push(id);
        Ok(id)
    }

    fn remove_vertex(&self, v: i64) -> GraphResult<()> {
        let mut inner = self.inner.lock();
        if inner.vertices.remove(&v).is_none() {
            return Err(GraphError::new(format!("no vertex {v}")));
        }
        let incident: Vec<i64> = inner
            .out_edges
            .remove(&v)
            .unwrap_or_default()
            .into_iter()
            .chain(inner.in_edges.remove(&v).unwrap_or_default())
            .collect();
        for e in incident {
            if let Some(rec) = inner.edges.remove(&e) {
                if let Some(es) = inner.out_edges.get_mut(&rec.src) {
                    es.retain(|x| *x != e);
                }
                if let Some(es) = inner.in_edges.get_mut(&rec.dst) {
                    es.retain(|x| *x != e);
                }
            }
        }
        Ok(())
    }

    fn remove_edge(&self, e: i64) -> GraphResult<()> {
        let mut inner = self.inner.lock();
        let rec = inner
            .edges
            .remove(&e)
            .ok_or_else(|| GraphError::new(format!("no edge {e}")))?;
        if let Some(es) = inner.out_edges.get_mut(&rec.src) {
            es.retain(|x| *x != e);
        }
        if let Some(es) = inner.in_edges.get_mut(&rec.dst) {
            es.retain(|x| *x != e);
        }
        Ok(())
    }

    fn set_vertex_property(&self, v: i64, key: &str, value: &Json) -> GraphResult<()> {
        let mut inner = self.inner.lock();
        let props = inner
            .vertices
            .get_mut(&v)
            .ok_or_else(|| GraphError::new(format!("no vertex {v}")))?;
        props.insert(key.to_string(), value.clone());
        Ok(())
    }

    fn set_edge_property(&self, e: i64, key: &str, value: &Json) -> GraphResult<()> {
        let mut inner = self.inner.lock();
        let rec = inner
            .edges
            .get_mut(&e)
            .ok_or_else(|| GraphError::new(format!("no edge {e}")))?;
        rec.props.insert(key.to_string(), value.clone());
        Ok(())
    }
}
