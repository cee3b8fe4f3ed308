//! # sqlgraph-baselines — comparator property graph stores
//!
//! The two systems the SQLGraph paper evaluates against, rebuilt with their
//! essential storage and concurrency characteristics:
//!
//! * [`KvGraph`] — Titan on BerkeleyDB: graph laid out in an ordered
//!   key-value store ([`kv::KvStore`]); adjacency in key ranges, properties
//!   in record payloads, a composite property index, and a store-wide
//!   single-writer lock.
//! * [`NativeGraph`] — Neo4j: record-based native storage with linked edge
//!   chains, pointer-chasing traversal, and a coarse reader/writer lock.
//!
//! Both implement [`sqlgraph_gremlin::Blueprints`] and are queried
//! step-at-a-time by the Gremlin interpreter — the per-element,
//! call-per-step model the paper's single-SQL translation eliminates.
//! [`RemoteGraph`] optionally charges a per-call latency to model the
//! client/server deployment (Rexster / Neo4j REST).

pub mod kv;
pub mod kvgraph;
pub mod nativegraph;
pub mod remote;

/// Take a lock whatever a panicking holder left behind, so one panicked
/// call does not wedge a store's later callers.
fn unpoison<G>(locked: std::sync::LockResult<G>) -> G {
    locked.unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use kv::KvStore;
pub use kvgraph::KvGraph;
pub use nativegraph::NativeGraph;
pub use remote::RemoteGraph;
