//! # l2q-store — durable session checkpointing
//!
//! An embedded durability subsystem for harvest sessions: no external
//! database, no registry dependencies — just files under a data
//! directory, in two complementary forms per session:
//!
//! * a **write-ahead log** ([`wal`]) of per-step records (fired query,
//!   retrieved page ids, collective-utility state), length-prefixed and
//!   CRC-checksummed, appended in group-committed batches under a
//!   configurable [`FsyncPolicy`];
//! * periodic **compacting snapshots** ([`snapshot`]) of the full
//!   portable session state, written atomically; each snapshot makes the
//!   WAL prefix redundant, so the log is truncated after one.
//!
//! **Recovery** ([`SessionStore::load`]) = newest valid snapshot + WAL
//! tail replay. A brand-new session that has never been snapshotted is
//! bootstrapped from the *genesis* record its first batch carried
//! ([`WalRecord::genesis`]). A torn/truncated final record (the `kill -9`
//! shape) is discarded without failing boot; a complete record with a bad
//! CRC marks corruption and replay stops at the last good prefix. Both
//! paths are counted in the global metrics registry
//! (`store_torn_tail_discards_total`, `store_wal_crc_failures_total`).
//!
//! Layout under the data directory:
//!
//! ```text
//! <data-dir>/sessions/<id>/wal.log           the session's WAL
//! <data-dir>/sessions/<id>/snap-<steps>.snap snapshots (newest wins)
//! ```
//!
//! The unit of state is [`PortableSession`]: the serving-layer session
//! envelope (selector, budgets) around [`l2q_core::PortableHarvestState`]
//! — everything needed to rebuild a live session that continues
//! bit-identically (see `l2q_core::checkpoint`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use crc::crc32;
pub use snapshot::{read_snapshot, write_snapshot, SNAPSHOT_MAGIC};
pub use store::{RecoveredSession, SessionStore, StoreConfig};
pub use wal::{scan_bytes, scan_wal, FsyncPolicy, Wal, WalRecord, WalScan, MAX_FRAME_BYTES};

use l2q_core::{PortableHarvestState, PortableIteration};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Current session-envelope format version.
pub const SESSION_FORMAT_VERSION: u32 = 1;

/// The durable unit: one serving-layer session. Wraps the core harvest
/// checkpoint with the serving parameters needed to rebuild the selector
/// and domain model on restore.
#[derive(Serialize, Deserialize, Clone, Debug, PartialEq)]
pub struct PortableSession {
    /// Envelope format version ([`SESSION_FORMAT_VERSION`]).
    pub version: u32,
    /// Session id (also the directory name).
    pub id: u64,
    /// Selector wire name (`l2qp`, `l2qr`, `l2qbal`, `l2qw=<w>`).
    pub selector: String,
    /// Domain peer-set size the session was created with.
    pub domain_size: u64,
    /// Effective per-session query budget.
    pub n_queries: u64,
    /// The harvest state itself.
    pub state: PortableHarvestState,
}

/// Outcome of folding one WAL record into a [`PortableSession`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Replay {
    /// The record extended the session by one step (or sealed its stop).
    Applied,
    /// The record predates the snapshot (already compacted); skipped.
    Stale,
    /// The record contradicts the session (wrong id, gap in step indices,
    /// step after finish); replay must stop.
    Mismatch,
}

/// Fold one WAL record into the portable session state. Records are
/// replayed in append order; [`Replay::Mismatch`] means the log and the
/// snapshot disagree and the remaining tail must be discarded.
pub fn apply_record(s: &mut PortableSession, rec: &WalRecord) -> Replay {
    if rec.session != s.id {
        return Replay::Mismatch;
    }
    if rec.genesis.is_some() {
        // A genesis record re-states a base the replayer already holds
        // (the snapshot, or the WAL head it was parsed from); it never
        // extends a session.
        return Replay::Stale;
    }
    let steps = s.state.iterations.len() as u64;
    if let Some(reason) = &rec.finished {
        if s.state.finished.is_some() {
            return Replay::Stale;
        }
        if rec.step_index < steps {
            return Replay::Stale;
        }
        if rec.step_index > steps {
            return Replay::Mismatch;
        }
        s.state.finished = Some(reason.clone());
        return Replay::Applied;
    }
    if rec.step_index < steps {
        return Replay::Stale;
    }
    if s.state.finished.is_some() || rec.step_index > steps || rec.query.is_empty() {
        return Replay::Mismatch;
    }
    s.state.iterations.push(PortableIteration {
        query: rec.query.clone(),
        new_pages: rec.new_pages.clone(),
    });
    s.state.selection_time_nanos = rec.selection_time_nanos;
    s.state.collective = rec.collective.clone();
    Replay::Applied
}

/// Resolved-once handles into the global metrics registry (the serving
/// stack surfaces these through the `metrics` wire op).
pub(crate) struct StoreObs {
    pub(crate) wal_appends: Arc<l2q_obs::Counter>,
    pub(crate) wal_batches: Arc<l2q_obs::Counter>,
    pub(crate) wal_bytes: Arc<l2q_obs::Counter>,
    pub(crate) fsync_seconds: Arc<l2q_obs::Histogram>,
    pub(crate) wal_append_seconds: Arc<l2q_obs::Histogram>,
    pub(crate) snapshot_seconds: Arc<l2q_obs::Histogram>,
    pub(crate) load_seconds: Arc<l2q_obs::Histogram>,
    pub(crate) snapshots: Arc<l2q_obs::Counter>,
    pub(crate) snapshot_bytes: Arc<l2q_obs::Histogram>,
    pub(crate) snapshot_rejects: Arc<l2q_obs::Counter>,
    pub(crate) recoveries: Arc<l2q_obs::Counter>,
    pub(crate) replayed_steps: Arc<l2q_obs::Counter>,
    pub(crate) torn_tails: Arc<l2q_obs::Counter>,
    pub(crate) crc_failures: Arc<l2q_obs::Counter>,
    pub(crate) discarded_records: Arc<l2q_obs::Counter>,
    pub(crate) fences: Arc<l2q_obs::Counter>,
    pub(crate) fence_rejections: Arc<l2q_obs::Counter>,
}

pub(crate) fn store_obs() -> &'static StoreObs {
    static M: OnceLock<StoreObs> = OnceLock::new();
    M.get_or_init(|| {
        let reg = l2q_obs::global();
        StoreObs {
            wal_appends: reg.counter("store_wal_appends_total"),
            wal_batches: reg.counter("store_wal_batches_total"),
            wal_bytes: reg.counter("store_wal_bytes_total"),
            fsync_seconds: reg.histogram("store_fsync_seconds"),
            wal_append_seconds: reg.histogram("store_wal_append_seconds"),
            snapshot_seconds: reg.histogram("store_snapshot_seconds"),
            load_seconds: reg.histogram("store_load_seconds"),
            snapshots: reg.counter("store_snapshots_total"),
            snapshot_bytes: reg.histogram_with_bounds(
                "store_snapshot_bytes",
                l2q_obs::Histogram::counts().bounds().to_vec(),
            ),
            snapshot_rejects: reg.counter("store_snapshot_rejects_total"),
            recoveries: reg.counter("store_recoveries_total"),
            replayed_steps: reg.counter("store_replayed_steps_total"),
            torn_tails: reg.counter("store_torn_tail_discards_total"),
            crc_failures: reg.counter("store_wal_crc_failures_total"),
            discarded_records: reg.counter("store_wal_discarded_records_total"),
            fences: reg.counter("store_fences_total"),
            fence_rejections: reg.counter("store_fence_rejections_total"),
        }
    })
}

/// A fresh per-test scratch directory under the system temp dir.
#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("l2q-store-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
