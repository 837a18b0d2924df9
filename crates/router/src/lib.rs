//! # l2q-router — sharded session fleet front door
//!
//! One `l2q-serve` process caps out at one machine's cores and memory.
//! This crate scales the serving layer horizontally without changing the
//! protocol: a router accepts the same line-delimited JSON requests,
//! consistent-hashes each session id onto a fleet of registered shards,
//! and proxies over pooled connections. Clients keep speaking to one
//! address; the fleet behind it grows, shrinks, and restarts underneath
//! them.
//!
//! Layers:
//!
//! * [`ring`] — consistent-hash ring with virtual nodes. Adding or
//!   removing a shard remaps only ~1/N of the keyspace, so resident
//!   sessions mostly stay put across topology changes.
//! * [`shard`] — a registered shard: address, health state machine
//!   (healthy → suspect → dead, plus administrative draining), and a
//!   small pool of reusable client connections.
//! * [`router`] — the dispatch core: session ops proxied with failover
//!   down the ring's preference order, fleet admin ops (`fleet_status`,
//!   `join_shard`, `drain_shard`, `migrate`), aggregated `stats`,
//!   merged `list_sessions`, stitched `trace`, and the merged
//!   `fleet_metrics` plane.
//! * [`metrics`] — reads each shard's `metrics` JSON back into an
//!   [`l2q_obs::RegistrySnapshot`]. There is no second merge or
//!   renderer: `fleet_metrics` merges those snapshots and the router's
//!   own with [`l2q_obs::RegistrySnapshot::merge`] (counters and gauges
//!   become `shard`-labeled series, never silently summed; histograms
//!   merge bucket-wise, so fleet percentiles come from the same
//!   quantile kernel a single shard uses) and renders the result like
//!   any snapshot.
//! * [`server`] — the TCP front door, the jittered health prober, and
//!   the background load rebalancer (opt-in via
//!   `RouterConfig::rebalance_interval`).
//! * [`supervise`] — the shard supervisor: spawns `l2q-serve` children
//!   from `--supervise` specs, auto-restarts crashes with capped
//!   exponential backoff, trips a crash-loop circuit breaker after
//!   repeated rapid crashes, and rejoins recovered shards to routing.
//!
//! ## Why failover needs no handoff protocol
//!
//! Every shard opens the same durable store directory (`--data-dir`).
//! When a shard dies, the ring's next-best shard restores the session
//! from its last committed step on first touch and **fences** the store
//! generation, so a zombie of the old owner can no longer commit behind
//! the new owner's back. A step that was in flight on the dead shard
//! either committed (the new owner resumes after it) or did not (the new
//! owner re-executes it); harvesting is deterministic given the committed
//! prefix, so the fired-query trajectory is bit-identical either way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lock;
pub mod metrics;
pub mod ring;
pub mod router;
pub mod server;
pub mod shard;
pub mod supervise;

pub use ring::HashRing;
pub use router::{RouterConfig, RouterCore};
pub use server::{RouterHandle, RouterServer};
pub use shard::{Health, Shard};
pub use supervise::{ShardSpec, Supervisor, SupervisorConfig};
