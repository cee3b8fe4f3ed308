//! # sqlgraph-server — framed TCP front end for the SQLGraph store
//!
//! SQLGraph's engine (`sqlgraph-core` over `sqlgraph-rel`) is an
//! embedded library; this crate puts a wire protocol in front of it so
//! many client processes can share one store, and so the benchmark
//! harness measures *real* network round trips instead of simulated
//! ones.
//!
//! * [`protocol`] — the length-prefixed frame grammar: requests
//!   (handshake, SQL/Gremlin queries, prepared statements,
//!   begin/commit/rollback) and typed responses (result sets with a
//!   binary value codec, structured error frames).
//! * [`Server`] — an accept thread and one blocking session thread per
//!   connection; a request is read, executed and answered on that one
//!   thread. A bounded number of execution permits, not the number of
//!   sockets, limits how many statements run at once. Transactions run
//!   concurrently; a write-write conflict is a typed `TxnConflict` frame.
//! * [`Client`] — a blocking connection used by tests and the
//!   `repro -- conn-sweep` / `throughput-mixed` drivers.
//!
//! The protocol is deliberately minimal (no TLS, a shared-token auth
//! stub) — the point is protocol *shape* and connection scalability, not
//! production hardening.

mod client;
pub mod protocol;
mod server;

pub use client::{Client, ClientError, QueryResult};
pub use protocol::{ErrorCode, Request, Response, MAX_FRAME_DEFAULT, PROTO_VERSION};
pub use server::{Server, ServerConfig};

#[cfg(test)]
mod sync_assertions {
    use super::*;
    const fn assert_send_sync<T: Send + Sync>() {}
    #[allow(dead_code)]
    const _: () = {
        assert_send_sync::<Server>();
        assert_send_sync::<ServerConfig>();
    };
    #[allow(dead_code)]
    const fn assert_send<T: Send>() {}
    #[allow(dead_code)]
    const _: () = assert_send::<Client>();
}
