//! # l2q-service — concurrent multi-session harvest serving
//!
//! The batch crates answer "run one harvest to completion". This crate
//! answers "serve many harvests at once over one corpus": a session
//! manager tracks live (entity, aspect, selector) harvests, a fixed
//! worker pool executes their steps from a bounded queue, every session
//! reads one shared [`ServingBundle`] (corpus + index + oracle behind a
//! single `Arc`), and a line-delimited JSON protocol over TCP exposes the
//! whole thing (`l2q-serve` / `l2q-client` binaries).
//!
//! Layers, bottom-up:
//!
//! * [`bundle`] — the immutable shared substrate plus two memoization
//!   layers: a sharded LRU cache of retrieval results and memoized
//!   domain-phase solves keyed by entity set.
//! * [`session`] — per-harvest lifecycle (create → step* → snapshot →
//!   close), budgets, idle-timeout eviction.
//! * [`scheduler`] — the crossbeam worker pool; a full queue rejects
//!   with a retry hint instead of buffering unboundedly, and a panicking
//!   step batch fails only its own session (the worker survives).
//! * [`framing`] — bounded, timeout-tolerant line framing shared by both
//!   ends of the wire.
//! * [`proto`] / [`server`] / [`client`] — the wire front end, hardened
//!   against slow, oversized, and misbehaving peers (see `server` docs).
//! * [`ops`] — op handling `l2q-router` shares with the server: per-op
//!   instrumentation, the `metrics` op, and the local `trace` lookup.
//! * [`cli`] — the argv parser every binary in the workspace declares
//!   its flags to.
//!
//! Concurrency does not change harvest outcomes: sessions only share
//! immutable state and caches whose hits are bit-identical to their
//! misses, so a session's gathered pages match a single-threaded
//! [`l2q_core::Harvester`] run with the same inputs exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod cli;
pub mod client;
pub mod framing;
pub mod ops;
pub mod proto;
pub mod reactor;
pub mod scheduler;
pub mod server;
pub mod session;

pub use bundle::{BundleConfig, DomainCache, ServingBundle};
pub use client::{Client, ClientConfig, ClientError};
pub use framing::{Frame, LineBuffer, LineReader, ReadOutcome};
pub use proto::{
    FleetStatusBody, Request, Response, SessionEntryBody, ShardStatusBody, StatsBody,
    SupervisedShardBody,
};
pub use scheduler::Scheduler;
pub use server::{HarvestServer, ServerConfig, ServerHandle};
pub use session::{
    SelectorKind, ServiceError, ServiceMetrics, Session, SessionEntry, SessionManager, SessionSpec,
    SessionStatus, StepReport,
};

#[cfg(test)]
mod tests {
    use super::*;

    /// Compile-time audit that every type shared across server threads is
    /// `Send + Sync` — the properties the `Arc`-based serving design
    /// depends on (no `Rc`, no `RefCell`, no thread-bound interior state
    /// anywhere in the shared graph).
    #[test]
    fn shared_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}

        // Upstream building blocks.
        assert_send_sync::<l2q_corpus::Corpus>();
        assert_send_sync::<l2q_retrieval::SearchEngine>();
        assert_send_sync::<l2q_retrieval::ShardedQueryCache>();
        assert_send_sync::<l2q_aspect::AspectModel>();
        assert_send_sync::<l2q_aspect::RelevanceOracle>();
        assert_send_sync::<l2q_core::DomainModel>();

        // Service layers.
        assert_send_sync::<ServingBundle>();
        assert_send_sync::<DomainCache>();
        // A session owns its selector (`Box<dyn QuerySelector>`, `Send`
        // but deliberately not `Sync`); it crosses threads only inside
        // `Arc<Mutex<_>>`, which needs exactly `Send`.
        assert_send::<Session>();
        assert_send_sync::<SessionManager>();
        assert_send_sync::<Scheduler>();
        assert_send_sync::<ServiceMetrics>();
        assert_send_sync::<ServerHandle>();
    }
}
