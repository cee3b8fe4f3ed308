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
//!   [`Database::begin`] / SQL `BEGIN`/`COMMIT`/`ROLLBACK` (see
//!   [`txn::Session`]), first-updater-wins conflict detection, and
//!   watermark-driven vacuum,
//! * DML atomicity (undo journal) and durability (checksummed WAL with
//!   commit timestamps + replay recovery),
//! * stored procedures (registered Rust closures) for the multi-table graph
//!   update operations.
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

pub mod cache;
pub mod checkpoint;
pub mod codec;
pub mod csr;
pub mod db;
pub mod error;
pub mod exec;
pub mod expr;
pub mod hasher;
pub mod index;
pub mod io;
pub mod parallel;
pub mod plan;
pub mod prepared;
pub mod schema;
pub mod sql;
pub mod stats;
pub mod storage;
pub mod txn;
pub mod value;
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

pub use cache::ClockCache;
pub use checkpoint::{CheckpointReport, RecoveryReport};
pub use db::{Database, Txn};
pub use error::{Error, Result};
pub use exec::Relation;
pub use io::{Fault, FaultKind, SimFs, StdFs, Vfs};
pub use prepared::Prepared;
pub use schema::{Column, ColumnType, TableSchema};
pub use stats::TableStats;
pub use txn::{Session, Snapshot};
pub use value::Value;
