//! # sqlgraph-rel — embedded relational engine
//!
//! A from-scratch relational database engine built as the substrate for the
//! SQLGraph reproduction (SIGMOD 2015). The paper runs on a commercial
//! RDBMS; this crate supplies the features its schema and Gremlin→SQL
//! translation actually exercise:
//!
//! * typed tables with hash and B-tree indexes (including composite keys),
//! * a SQL subset — `WITH` CTE pipelines, joins (inner/left-outer,
//!   index-nested-loop and hash), lateral `TABLE(VALUES …)` unnest,
//!   `UNION [ALL]`/`INTERSECT`/`EXCEPT`, `DISTINCT`, aggregates,
//!   `ORDER BY`/`LIMIT`/`OFFSET`, and the `JSON_VAL` accessor over JSON
//!   columns,
//! * MVCC snapshot-isolation transactions: lock-free snapshot reads over
//!   row version chains, multi-statement transactions via
//!   [`Database::begin`] / [`Database::transaction`], first-updater-wins
//!   conflict detection, and watermark-driven vacuum,
//! * DML atomicity and durability from one journal entry per write:
//!   rollback undoes it, commit appends it to a checksummed WAL with the
//!   commit timestamp, and recovery replays it through the MVCC writes.
//!
//! # Example
//!
//! ```
//! use sqlgraph_rel::{Database, Value};
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE va (vid INTEGER PRIMARY KEY, attr JSON)").unwrap();
//! db.execute_with_params(
//!     "INSERT INTO va VALUES (?, ?)",
//!     &[Value::Int(1), Value::json(sqlgraph_json::parse(r#"{"name":"marko"}"#).unwrap())],
//! ).unwrap();
//! let rel = db.execute("SELECT JSON_VAL(attr, 'name') FROM va WHERE vid = 1").unwrap();
//! assert_eq!(rel.strings(), ["marko"]);
//! ```

pub(crate) mod cache;
pub(crate) mod checkpoint;
pub mod codec;
pub(crate) mod csr;
pub mod db;
pub(crate) mod error;
pub(crate) mod exec;
pub mod expr;
pub(crate) mod footprint;
pub(crate) mod hasher;
pub(crate) mod index;
pub mod io;
pub mod parallel;
pub(crate) mod plan;
pub(crate) mod prepared;
pub(crate) mod schema;
pub mod sql;
pub(crate) mod stats;
pub mod storage;
pub mod txn;
pub(crate) mod value;
pub mod wal;

// Morsel workers share the store's read paths across threads: tables (via
// read guards), values, and compiled expressions must stay `Sync`-clean.
// Breaking this (e.g. an `Rc` or `RefCell` inside `Value`) is a
// compile-time error here rather than a trait-bound error deep inside the
// parallel executor.
const _: () = {
    const fn sync_clean<T: Send + Sync>() {}
    sync_clean::<db::Database>();
    sync_clean::<storage::Table>();
    sync_clean::<value::Value>();
    sync_clean::<expr::Expr>();
    sync_clean::<exec::Relation>();
    sync_clean::<stats::TableStats>();
    // One prepared statement's plans serve every thread that runs it.
    sync_clean::<prepared::Prepared>();
};

/// Take a `std::sync` lock whatever a panicking holder left behind: every
/// engine lock folds poisoning away, so one panicked statement (the
/// server's `catch_unwind` survives it) does not wedge later callers.
fn unpoison<G>(locked: std::sync::LockResult<G>) -> G {
    locked.unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use cache::ClockCache;
pub use checkpoint::{CheckpointReport, RecoveryReport};
pub use db::{Database, Txn};
pub use error::{Error, Result};
pub use exec::Relation;
pub use footprint::{Footprint, TableFootprint, Usage};
pub use io::{Fault, FaultKind, SimFs, StdFs, Vfs};
pub use prepared::Prepared;
pub use schema::{Column, ColumnType, TableSchema};
pub use stats::TableStats;
pub use txn::Snapshot;
pub use value::Value;
