//! `KvGraph`: the Titan-on-BerkeleyDB comparator.
//!
//! Titan lays the property graph out in an ordered key-value store:
//! vertices and edges are records under id-prefixed keys, adjacency lives
//! in key *ranges* (`o/<vid>/<label>/<eid>`), and property lookups go
//! through a composite index keyspace. Every Gremlin step performed by the
//! interpreter becomes point gets and range scans here — the per-element,
//! per-step cost profile the paper measures against.
//!
//! Writes serialize through the KV store's writer lock plus a store-level
//! mutation lock (BerkeleyDB's single-writer behaviour), which is what caps
//! its concurrent update throughput in the LinkBench experiments.

use crate::kv::{decode_i64, encode_i64, KvStore};
use crate::unpoison;
use sqlgraph_gremlin::blueprints::{Blueprints, Direction, GraphError, GraphResult};
use sqlgraph_json::{parse as parse_json, Json, JsonObject};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Mutex;

/// Key space prefixes.
const P_VERTEX: u8 = b'v';
const P_EDGE: u8 = b'e';
const P_OUT: u8 = b'o';
const P_IN: u8 = b'i';
const P_PROP: u8 = b'p';

/// The Titan-style store.
pub struct KvGraph {
    kv: KvStore,
    next_vid: AtomicI64,
    next_eid: AtomicI64,
    /// Store-wide mutation lock: BerkeleyDB-backed Titan serializes writes.
    write_lock: Mutex<()>,
}

impl Default for KvGraph {
    fn default() -> Self {
        KvGraph::new()
    }
}

impl KvGraph {
    /// An empty graph.
    pub fn new() -> KvGraph {
        KvGraph {
            kv: KvStore::new(),
            next_vid: AtomicI64::new(1),
            next_eid: AtomicI64::new(1),
            write_lock: Mutex::new(()),
        }
    }

    /// Approximate storage footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.kv.approx_bytes()
    }

    fn vertex_key(v: i64) -> Vec<u8> {
        let mut k = vec![P_VERTEX];
        k.extend_from_slice(&encode_i64(v));
        k
    }

    fn edge_key(e: i64) -> Vec<u8> {
        let mut k = vec![P_EDGE];
        k.extend_from_slice(&encode_i64(e));
        k
    }

    /// `o/<vid>/<label>\0<eid>` — label embedded so labeled scans are a
    /// tighter range.
    fn adj_key(prefix: u8, v: i64, label: &str, e: i64) -> Vec<u8> {
        let mut k = vec![prefix];
        k.extend_from_slice(&encode_i64(v));
        k.extend_from_slice(label.as_bytes());
        k.push(0);
        k.extend_from_slice(&encode_i64(e));
        k
    }

    fn adj_prefix(prefix: u8, v: i64, label: Option<&str>) -> Vec<u8> {
        let mut k = vec![prefix];
        k.extend_from_slice(&encode_i64(v));
        if let Some(l) = label {
            k.extend_from_slice(l.as_bytes());
            k.push(0);
        }
        k
    }

    fn prop_key(key: &str, value: &Json, id: i64) -> Vec<u8> {
        let mut k = vec![P_PROP];
        k.extend_from_slice(key.as_bytes());
        k.push(0);
        k.extend_from_slice(value.to_string().as_bytes());
        k.push(0);
        k.extend_from_slice(&encode_i64(id));
        k
    }

    fn prop_prefix(key: &str, value: &Json) -> Vec<u8> {
        let mut k = vec![P_PROP];
        k.extend_from_slice(key.as_bytes());
        k.push(0);
        k.extend_from_slice(value.to_string().as_bytes());
        k.push(0);
        k
    }

    fn load_doc(&self, key: &[u8]) -> Option<Json> {
        let bytes = self.kv.get(key)?;
        parse_json(std::str::from_utf8(&bytes).ok()?).ok()
    }

    fn store_doc(&self, key: Vec<u8>, doc: &Json) {
        self.kv.put(key, doc.to_string().into_bytes());
    }

    fn edge_doc(&self, e: i64) -> Option<Json> {
        self.load_doc(&Self::edge_key(e))
    }

    fn eid_from_adj_key(key: &[u8]) -> i64 {
        decode_i64(&key[key.len() - 8..])
    }
}

fn props_doc(props: &[(String, Json)]) -> Json {
    Json::Object(props.iter().cloned().collect::<JsonObject>())
}

impl Blueprints for KvGraph {
    fn vertex_ids(&self) -> Vec<i64> {
        self.kv
            .scan_keys(&[P_VERTEX])
            .into_iter()
            .map(|k| decode_i64(&k[1..]))
            .collect()
    }

    fn edge_ids(&self) -> Vec<i64> {
        self.kv
            .scan_keys(&[P_EDGE])
            .into_iter()
            .map(|k| decode_i64(&k[1..]))
            .collect()
    }

    fn vertex_exists(&self, v: i64) -> bool {
        self.kv.contains(&Self::vertex_key(v))
    }

    fn edge_exists(&self, e: i64) -> bool {
        self.kv.contains(&Self::edge_key(e))
    }

    fn edges_of(&self, v: i64, dir: Direction, labels: &[String]) -> Vec<i64> {
        let mut out = Vec::new();
        let scan = |prefix_byte: u8, out: &mut Vec<i64>| {
            if labels.is_empty() {
                for k in self.kv.scan_keys(&Self::adj_prefix(prefix_byte, v, None)) {
                    out.push(Self::eid_from_adj_key(&k));
                }
            } else {
                for label in labels {
                    for k in self
                        .kv
                        .scan_keys(&Self::adj_prefix(prefix_byte, v, Some(label)))
                    {
                        out.push(Self::eid_from_adj_key(&k));
                    }
                }
            }
        };
        if matches!(dir, Direction::Out | Direction::Both) {
            scan(P_OUT, &mut out);
        }
        if matches!(dir, Direction::In | Direction::Both) {
            scan(P_IN, &mut out);
        }
        out
    }

    fn edge_label(&self, e: i64) -> Option<String> {
        self.edge_doc(e)?.get("lbl")?.as_str().map(str::to_string)
    }

    fn edge_source(&self, e: i64) -> Option<i64> {
        self.edge_doc(e)?.get("src")?.as_i64()
    }

    fn edge_target(&self, e: i64) -> Option<i64> {
        self.edge_doc(e)?.get("dst")?.as_i64()
    }

    fn vertex_property(&self, v: i64, key: &str) -> Option<Json> {
        self.load_doc(&Self::vertex_key(v))?.get(key).cloned()
    }

    fn edge_property(&self, e: i64, key: &str) -> Option<Json> {
        self.edge_doc(e)?.get("props")?.get(key).cloned()
    }

    fn vertices_by_property(&self, key: &str, value: &Json) -> Vec<i64> {
        // Composite index range scan.
        self.kv
            .scan_keys(&Self::prop_prefix(key, value))
            .into_iter()
            .map(|k| decode_i64(&k[k.len() - 8..]))
            .collect()
    }

    fn add_vertex(&self, props: &[(String, Json)]) -> GraphResult<i64> {
        let _guard = unpoison(self.write_lock.lock());
        let id = self.next_vid.fetch_add(1, Ordering::SeqCst);
        self.store_doc(Self::vertex_key(id), &props_doc(props));
        for (k, v) in props {
            self.kv.put(Self::prop_key(k, v, id), Vec::new());
        }
        Ok(id)
    }

    fn add_edge(
        &self,
        src: i64,
        dst: i64,
        label: &str,
        props: &[(String, Json)],
    ) -> GraphResult<i64> {
        let _guard = unpoison(self.write_lock.lock());
        if !self.vertex_exists(src) {
            return Err(GraphError::new(format!("no vertex {src}")));
        }
        if !self.vertex_exists(dst) {
            return Err(GraphError::new(format!("no vertex {dst}")));
        }
        let id = self.next_eid.fetch_add(1, Ordering::SeqCst);
        let mut doc = JsonObject::new();
        doc.insert("src", Json::int(src));
        doc.insert("dst", Json::int(dst));
        doc.insert("lbl", Json::str(label));
        doc.insert("props", props_doc(props));
        self.store_doc(Self::edge_key(id), &Json::Object(doc));
        self.kv
            .put(Self::adj_key(P_OUT, src, label, id), Vec::new());
        self.kv.put(Self::adj_key(P_IN, dst, label, id), Vec::new());
        Ok(id)
    }

    fn remove_vertex(&self, v: i64) -> GraphResult<()> {
        let _guard = unpoison(self.write_lock.lock());
        let Some(doc) = self.load_doc(&Self::vertex_key(v)) else {
            return Err(GraphError::new(format!("no vertex {v}")));
        };
        // Incident edges from both adjacency ranges.
        let mut incident: Vec<i64> = Vec::new();
        for p in [P_OUT, P_IN] {
            for k in self.kv.scan_keys(&Self::adj_prefix(p, v, None)) {
                incident.push(Self::eid_from_adj_key(&k));
            }
        }
        incident.sort_unstable();
        incident.dedup();
        for e in incident {
            self.remove_edge_locked(e)?;
        }
        // Property index entries.
        if let Some(obj) = doc.as_object() {
            for (k, val) in obj.iter() {
                self.kv.delete(&Self::prop_key(k, val, v));
            }
        }
        self.kv.delete(&Self::vertex_key(v));
        self.kv.delete_prefix(&Self::adj_prefix(P_OUT, v, None));
        self.kv.delete_prefix(&Self::adj_prefix(P_IN, v, None));
        Ok(())
    }

    fn remove_edge(&self, e: i64) -> GraphResult<()> {
        let _guard = unpoison(self.write_lock.lock());
        self.remove_edge_locked(e)
    }

    fn set_vertex_property(&self, v: i64, key: &str, value: &Json) -> GraphResult<()> {
        let _guard = unpoison(self.write_lock.lock());
        let Some(mut doc) = self.load_doc(&Self::vertex_key(v)) else {
            return Err(GraphError::new(format!("no vertex {v}")));
        };
        if let Some(obj) = doc.as_object_mut() {
            if let Some(old) = obj.get(key).cloned() {
                self.kv.delete(&Self::prop_key(key, &old, v));
            }
            obj.insert(key, value.clone());
        }
        self.kv.put(Self::prop_key(key, value, v), Vec::new());
        self.store_doc(Self::vertex_key(v), &doc);
        Ok(())
    }

    fn set_edge_property(&self, e: i64, key: &str, value: &Json) -> GraphResult<()> {
        let _guard = unpoison(self.write_lock.lock());
        let Some(mut doc) = self.edge_doc(e) else {
            return Err(GraphError::new(format!("no edge {e}")));
        };
        if let Some(props) = doc.as_object_mut().and_then(|o| o.get_mut("props")) {
            if let Some(obj) = props.as_object_mut() {
                obj.insert(key, value.clone());
            }
        }
        self.store_doc(Self::edge_key(e), &doc);
        Ok(())
    }
}

impl KvGraph {
    fn remove_edge_locked(&self, e: i64) -> GraphResult<()> {
        let Some(doc) = self.edge_doc(e) else {
            return Err(GraphError::new(format!("no edge {e}")));
        };
        let src = doc.get("src").and_then(Json::as_i64).unwrap_or(-1);
        let dst = doc.get("dst").and_then(Json::as_i64).unwrap_or(-1);
        let label = doc
            .get("lbl")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        self.kv.delete(&Self::adj_key(P_OUT, src, &label, e));
        self.kv.delete(&Self::adj_key(P_IN, dst, &label, e));
        self.kv.delete(&Self::edge_key(e));
        Ok(())
    }
}
