//! The [`SessionStore`]: per-session directories of WAL + snapshots under
//! one data directory, with recovery = newest valid snapshot + WAL tail
//! replay.

use crate::snapshot::{read_snapshot, write_snapshot};
use crate::wal::{scan_wal, FsyncPolicy, Wal, WalRecord};
use crate::{apply_record, store_obs, PortableSession, Replay};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Durability knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreConfig {
    /// When WAL batches reach the platter.
    pub fsync: FsyncPolicy,
    /// Take a compacting snapshot after this many WAL-logged steps.
    pub snapshot_every: usize,
    /// Snapshot generations to keep (older ones are pruned).
    pub keep_snapshots: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            fsync: FsyncPolicy::default(),
            snapshot_every: 8,
            keep_snapshots: 2,
        }
    }
}

/// Per-session file state.
struct SessionFiles {
    /// The open WAL, or `None` once [`SessionStore::release`] closed it
    /// (the next write reopens it).
    wal: Option<Wal>,
    steps_since_snapshot: usize,
    /// Generation token this process owns for the session. Writes are
    /// rejected once the on-disk generation moves past it (another shard
    /// fenced the session away). `0` = the pre-fencing world: no `gen`
    /// file exists and every writer is accepted.
    owned_gen: u64,
}

impl SessionFiles {
    /// The session's WAL under `dir`, reopened if it was released.
    fn wal(&mut self, dir: &Path, policy: FsyncPolicy) -> io::Result<&mut Wal> {
        if self.wal.is_none() {
            self.wal = Some(Wal::open(dir.join("wal.log"), policy)?);
        }
        Ok(self.wal.as_mut().expect("opened above"))
    }
}

/// Read the session's on-disk generation token (0 when none exists).
fn read_gen(dir: &Path) -> u64 {
    fs::read_to_string(dir.join("gen"))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Persist a generation token atomically (tmp + rename).
fn write_gen(dir: &Path, generation: u64, sync: bool) -> io::Result<()> {
    let tmp = dir.join("gen.tmp");
    fs::write(&tmp, generation.to_string())?;
    if sync {
        fs::File::open(&tmp)?.sync_all()?;
    }
    fs::rename(&tmp, dir.join("gen"))
}

/// A session recovered from disk.
#[derive(Debug)]
pub struct RecoveredSession {
    /// The reassembled portable session.
    pub session: PortableSession,
    /// WAL records replayed on top of the snapshot.
    pub replayed_steps: usize,
}

/// The store: one directory per session under `<root>/sessions/`, each
/// holding a WAL and a bounded set of snapshots. All methods take `&self`;
/// per-session file state lives behind a mutex so the serving layer can
/// share one store across its worker threads. A session's WAL stays open
/// while it is resident and is closed by [`SessionStore::release`].
pub struct SessionStore {
    root: PathBuf,
    cfg: StoreConfig,
    open: Mutex<HashMap<u64, SessionFiles>>,
}

impl SessionStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>, cfg: StoreConfig) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(root.join("sessions"))?;
        Ok(Self {
            root,
            cfg,
            open: Mutex::new(HashMap::new()),
        })
    }

    /// The store's data directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The durability knobs this store was opened with.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    fn session_dir(&self, id: u64) -> PathBuf {
        self.root.join("sessions").join(id.to_string())
    }

    /// Ids of every session with on-disk state, ascending.
    pub fn list_sessions(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = fs::read_dir(self.root.join("sessions"))
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter_map(|e| e.file_name().to_str().and_then(|s| s.parse().ok()))
                    .collect()
            })
            .unwrap_or_default();
        ids.sort_unstable();
        ids
    }

    /// The highest stored session id (so a restarted server can hand out
    /// fresh ids above every recovered one).
    pub fn max_session_id(&self) -> Option<u64> {
        self.list_sessions().into_iter().max()
    }

    /// Whether the session has any on-disk state.
    pub fn contains(&self, id: u64) -> bool {
        self.session_dir(id).is_dir()
    }

    fn with_files<T>(
        &self,
        id: u64,
        f: impl FnOnce(&mut SessionFiles) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut open = self.open.lock().expect("store lock");
        if let std::collections::hash_map::Entry::Vacant(slot) = open.entry(id) {
            let dir = self.session_dir(id);
            fs::create_dir_all(&dir)?;
            // Inherit whatever generation is on disk at open time: a
            // single-store deployment never bumps it, and a fleet shard
            // acquires ownership explicitly through `fence` before writing.
            let owned_gen = read_gen(&dir);
            slot.insert(SessionFiles {
                wal: None,
                steps_since_snapshot: 0,
                owned_gen,
            });
        }
        f(open.get_mut(&id).expect("just inserted"))
    }

    /// Fail with `PermissionDenied` when another store instance has fenced
    /// the session away since this one acquired (or inherited) its token.
    fn check_fence(&self, id: u64, files: &SessionFiles) -> io::Result<()> {
        let disk = read_gen(&self.session_dir(id));
        if disk != files.owned_gen {
            store_obs().fence_rejections.inc();
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                format!(
                    "session {id} fenced: on-disk generation {disk} != owned {}",
                    files.owned_gen
                ),
            ));
        }
        Ok(())
    }

    /// Acquire write ownership of the session by bumping its on-disk
    /// generation token. Any other store instance (e.g. a shard the
    /// session is migrating away from) that still holds the old token has
    /// its subsequent `append_steps`/`snapshot` calls rejected with
    /// `PermissionDenied`.
    ///
    /// Call this **before** [`SessionStore::load`]: appends committed by
    /// the old owner before the bump land in the WAL scan; appends
    /// attempted after it are fenced off. (Within one process the store's
    /// open-file mutex makes the bump atomic with respect to in-flight
    /// batches; across processes the check is advisory with a small
    /// window, which the router closes by draining the source shard —
    /// or by the source being dead — before restoring elsewhere.)
    pub fn fence(&self, id: u64) -> io::Result<u64> {
        self.with_files(id, |files| {
            let dir = self.session_dir(id);
            let next = read_gen(&dir) + 1;
            write_gen(&dir, next, self.cfg.fsync != FsyncPolicy::Never)?;
            files.owned_gen = next;
            store_obs().fences.inc();
            Ok(next)
        })
    }

    /// Group-commit a batch of step records to the session's WAL.
    pub fn append_steps(&self, id: u64, records: &[WalRecord]) -> io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let obs = store_obs();
        self.with_files(id, |files| {
            self.check_fence(id, files)?;
            let wal = files.wal(&self.session_dir(id), self.cfg.fsync)?;
            let bytes = wal.append_batch(records)?;
            files.steps_since_snapshot += records
                .iter()
                .filter(|r| r.finished.is_none() && r.genesis.is_none())
                .count();
            obs.wal_appends.add(records.len() as u64);
            obs.wal_batches.inc();
            obs.wal_bytes.add(bytes);
            Ok(())
        })
    }

    /// Whether enough steps accumulated since the last snapshot that the
    /// caller should take one ([`StoreConfig::snapshot_every`]).
    pub fn needs_snapshot(&self, id: u64) -> bool {
        let open = self.open.lock().expect("store lock");
        open.get(&id)
            .is_some_and(|f| f.steps_since_snapshot >= self.cfg.snapshot_every)
    }

    /// Write a compacting snapshot of `session`, prune old generations,
    /// and truncate the now-redundant WAL.
    pub fn snapshot(&self, id: u64, session: &PortableSession) -> io::Result<()> {
        let obs = store_obs();
        self.with_files(id, |files| {
            self.check_fence(id, files)?;
            let dir = self.session_dir(id);
            let steps = session.state.iterations.len();
            let path = dir.join(format!("snap-{steps:012}.snap"));
            let sync = self.cfg.fsync != FsyncPolicy::Never;
            let bytes = write_snapshot(&path, session, sync)?;
            obs.snapshots.inc();
            obs.snapshot_bytes.record(bytes as f64);

            // Snapshot names zero-pad the step count, so the lexicographic
            // order of `snaps` is also the generation order.
            let mut snaps: Vec<PathBuf> = fs::read_dir(&dir)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| {
                    p.extension().is_some_and(|x| x == "snap")
                        && p.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.starts_with("snap-"))
                })
                .collect();
            snaps.sort();
            let keep = self.cfg.keep_snapshots.max(1);
            if snaps.len() > keep {
                for old in &snaps[..snaps.len() - keep] {
                    fs::remove_file(old).ok();
                }
            }

            // A fresh session's WAL is already empty — skip the
            // truncate-and-sync on the create path.
            let wal = files.wal(&dir, self.cfg.fsync)?;
            if wal.len_bytes()? > 0 {
                wal.truncate()?;
            }
            files.steps_since_snapshot = 0;
            Ok(())
        })
    }

    /// Recover a session: newest valid snapshot (falling back to older
    /// generations when one is damaged) plus WAL tail replay. `Ok(None)`
    /// means no recoverable state exists. A torn final WAL record is
    /// discarded silently; a corrupt mid-log record stops replay at the
    /// last good prefix. Both are counted in the metrics registry.
    pub fn load(&self, id: u64) -> io::Result<Option<RecoveredSession>> {
        let dir = self.session_dir(id);
        if !dir.is_dir() {
            return Ok(None);
        }
        let obs = store_obs();

        let mut snaps: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "snap"))
            .collect();
        snaps.sort();
        let mut session = None;
        for path in snaps.iter().rev() {
            match read_snapshot(path)? {
                Some(s) => {
                    session = Some(s);
                    break;
                }
                None => obs.snapshot_rejects.inc(),
            }
        }

        let scan = scan_wal(&dir.join("wal.log"))?;
        if scan.torn_tail {
            obs.torn_tails.inc();
        }
        if scan.corrupt {
            obs.crc_failures.inc();
        }
        if scan.torn_tail || scan.corrupt {
            // Cut the bad tail off now: the WAL is opened in append mode,
            // so without this, post-recovery batches would land after the
            // garbage and every later scan would stop short of them —
            // silently dropping acknowledged writes on the next recovery.
            self.with_files(id, |files| {
                files
                    .wal(&dir, self.cfg.fsync)?
                    .truncate_to(scan.valid_bytes)
            })?;
        }

        // No valid snapshot: bootstrap from the genesis record the
        // session's first batch carried.
        if session.is_none() {
            session = scan
                .records
                .iter()
                .find_map(|r| r.genesis.as_deref())
                .and_then(|json| serde_json::from_str::<PortableSession>(json).ok())
                .filter(|s| s.id == id);
        }
        let Some(mut session) = session else {
            return Ok(None);
        };
        let mut replayed = 0usize;
        for rec in &scan.records {
            match apply_record(&mut session, rec) {
                Replay::Applied => replayed += 1,
                Replay::Stale => {}
                Replay::Mismatch => {
                    obs.discarded_records.inc();
                    break;
                }
            }
        }
        obs.recoveries.inc();
        obs.replayed_steps.add(replayed as u64);

        // Remember how far past a snapshot the session is, so the caller's
        // snapshot cadence resumes correctly. with_files creates the
        // open-file entry — in a fresh process nothing has opened this
        // session yet, so updating an existing entry alone would leave the
        // cadence at zero and let the WAL grow an extra snapshot_every
        // steps past its compaction point.
        self.with_files(id, |files| {
            files.steps_since_snapshot = replayed;
            Ok(())
        })?;
        Ok(Some(RecoveredSession {
            session,
            replayed_steps: replayed,
        }))
    }

    /// Close the session's WAL once it is no longer resident in this
    /// process (detached or evicted), so a long-lived server holds one
    /// open log per resident session, not one per session it ever
    /// served. The generation token stays: a batch still queued for the
    /// departed copy is fenced exactly as before, and the next write
    /// reopens the log.
    pub fn release(&self, id: u64) {
        if let Some(files) = self.open.lock().expect("store lock").get_mut(&id) {
            files.wal = None;
        }
    }

    /// Delete every trace of the session (closed and not worth keeping).
    pub fn remove(&self, id: u64) -> io::Result<()> {
        self.open.lock().expect("store lock").remove(&id);
        match fs::remove_dir_all(self.session_dir(id)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2q_core::PortableHarvestState;

    fn base_session(id: u64) -> PortableSession {
        PortableSession {
            version: crate::SESSION_FORMAT_VERSION,
            id,
            selector: "l2qbal".into(),
            domain_size: 4,
            n_queries: 10,
            state: PortableHarvestState {
                version: 1,
                entity: 2,
                aspect: "RESEARCH".into(),
                seed_query: vec!["alice".into(), "smith".into()],
                seed_results: vec![3, 4, 5],
                iterations: Vec::new(),
                selection_time_nanos: 0,
                finished: None,
                collective: None,
            },
        }
    }

    fn step(id: u64, i: u64) -> WalRecord {
        WalRecord {
            session: id,
            step_index: i,
            query: vec![format!("w{i}")],
            new_pages: vec![100 + i as u32],
            selection_time_nanos: 500 * (i + 1),
            collective: None,
            finished: None,
            genesis: None,
        }
    }

    fn genesis(base: &PortableSession) -> WalRecord {
        WalRecord {
            session: base.id,
            step_index: 0,
            query: Vec::new(),
            new_pages: Vec::new(),
            selection_time_nanos: 0,
            collective: None,
            finished: None,
            genesis: Some(serde_json::to_string(base).unwrap()),
        }
    }

    #[test]
    fn snapshot_plus_wal_tail_recovers() {
        let dir = crate::test_dir("store-recover");
        let store = SessionStore::open(&dir, StoreConfig::default()).unwrap();

        let mut s = base_session(9);
        store.snapshot(9, &s).unwrap();
        let recs: Vec<WalRecord> = (0..3).map(|i| step(9, i)).collect();
        store.append_steps(9, &recs).unwrap();
        for r in &recs {
            assert_eq!(apply_record(&mut s, r), Replay::Applied);
        }

        let got = store.load(9).unwrap().unwrap();
        assert_eq!(got.replayed_steps, 3);
        assert_eq!(got.session, s);
        assert_eq!(store.list_sessions(), vec![9]);
        assert_eq!(store.max_session_id(), Some(9));
        assert!(store.contains(9) && !store.contains(8));

        store.remove(9).unwrap();
        assert!(store.load(9).unwrap().is_none());
        assert!(store.list_sessions().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshots_compact_the_wal_and_prune_old_generations() {
        let dir = crate::test_dir("store-compact");
        let store = SessionStore::open(
            &dir,
            StoreConfig {
                snapshot_every: 2,
                keep_snapshots: 2,
                ..StoreConfig::default()
            },
        )
        .unwrap();

        let mut s = base_session(1);
        store.snapshot(1, &s).unwrap();
        for round in 0u64..3 {
            let recs: Vec<WalRecord> = (0..2).map(|i| step(1, round * 2 + i)).collect();
            store.append_steps(1, &recs).unwrap();
            for r in &recs {
                apply_record(&mut s, r);
            }
            assert!(store.needs_snapshot(1));
            store.snapshot(1, &s).unwrap();
            assert!(!store.needs_snapshot(1));
        }

        let snap_count = std::fs::read_dir(store.root().join("sessions/1"))
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "snap"))
            .count();
        assert_eq!(snap_count, 2, "old generations pruned");

        // WAL was truncated by the last snapshot; recovery replays nothing.
        let got = store.load(1).unwrap().unwrap();
        assert_eq!(got.replayed_steps, 0);
        assert_eq!(got.session.state.iterations.len(), 6);
        assert_eq!(got.session, s);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A session that never reached a snapshot — its base state rides the
    /// WAL head as a genesis record — recovers fully from the log alone.
    #[test]
    fn genesis_record_bootstraps_recovery_without_any_snapshot() {
        let dir = crate::test_dir("store-genesis");
        let store = SessionStore::open(&dir, StoreConfig::default()).unwrap();

        let mut s = base_session(3);
        let mut batch = vec![genesis(&s)];
        batch.extend((0..2).map(|i| step(3, i)));
        store.append_steps(3, &batch).unwrap();
        for r in &batch[1..] {
            assert_eq!(apply_record(&mut s, r), Replay::Applied);
        }

        let got = store.load(3).unwrap().unwrap();
        assert_eq!(got.replayed_steps, 2);
        assert_eq!(got.session, s);

        // A genesis replayed onto an existing base is stale, not an error.
        assert_eq!(
            apply_record(&mut s, &genesis(&base_session(3))),
            Replay::Stale
        );

        // Once a snapshot exists, it wins and the genesis is redundant.
        store.snapshot(3, &s).unwrap();
        let got = store.load(3).unwrap().unwrap();
        assert_eq!(got.replayed_steps, 0);
        assert_eq!(got.session, s);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: after a torn-tail recovery the WAL must be truncated to
    /// its valid prefix — the file is opened in append mode, so otherwise
    /// the recovered session's new batches land after the garbage and the
    /// *next* recovery silently drops every one of them.
    #[test]
    fn recovery_truncates_torn_tail_so_later_appends_survive_next_recovery() {
        let dir = crate::test_dir("store-truncate-tail");
        {
            let store = SessionStore::open(&dir, StoreConfig::default()).unwrap();
            store.snapshot(7, &base_session(7)).unwrap();
            store.append_steps(7, &[step(7, 0), step(7, 1)]).unwrap();
        }
        // Tear the tail mid-way through the last frame.
        let wal = dir.join("sessions/7/wal.log");
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();

        // Crash-recover: the torn step 1 is discarded and the garbage cut
        // off, so the continued session appends onto the valid prefix.
        let store = SessionStore::open(&dir, StoreConfig::default()).unwrap();
        let got = store.load(7).unwrap().unwrap();
        assert_eq!(got.replayed_steps, 1);
        store.append_steps(7, &[step(7, 1), step(7, 2)]).unwrap();

        // The next recovery must replay every post-recovery step.
        let store = SessionStore::open(&dir, StoreConfig::default()).unwrap();
        let got = store.load(7).unwrap().unwrap();
        assert_eq!(got.replayed_steps, 3, "post-recovery appends survive");
        let mut expect = base_session(7);
        for i in 0..3 {
            assert_eq!(apply_record(&mut expect, &step(7, i)), Replay::Applied);
        }
        assert_eq!(got.session, expect);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: recovery must seed the snapshot cadence with the
    /// replayed step count (creating the open-file entry — a fresh process
    /// has none), so a recovered session compacts on schedule instead of
    /// letting the WAL grow an extra `snapshot_every` steps.
    #[test]
    fn recovery_resumes_snapshot_cadence_from_replayed_steps() {
        let dir = crate::test_dir("store-cadence");
        let cfg = StoreConfig {
            snapshot_every: 2,
            ..StoreConfig::default()
        };
        {
            let store = SessionStore::open(&dir, cfg).unwrap();
            store.snapshot(11, &base_session(11)).unwrap();
            store.append_steps(11, &[step(11, 0), step(11, 1)]).unwrap();
        }
        // Fresh process: recovery replays 2 steps — already at the
        // threshold, so the very next commit must compact.
        let store = SessionStore::open(&dir, cfg).unwrap();
        let got = store.load(11).unwrap().unwrap();
        assert_eq!(got.replayed_steps, 2);
        assert!(
            store.needs_snapshot(11),
            "cadence resumes at the replayed count"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Shared-dir fencing: once another store instance fences a session,
    /// the old owner's appends and snapshots are rejected instead of
    /// silently interleaving two writers into one WAL.
    #[test]
    fn fence_rejects_stale_writer_appends_and_snapshots() {
        let dir = crate::test_dir("store-fence");
        let shard_a = SessionStore::open(&dir, StoreConfig::default()).unwrap();
        let shard_b = SessionStore::open(&dir, StoreConfig::default()).unwrap();

        // Shard A writes the session's first batch (genesis + 2 steps).
        let mut s = base_session(21);
        let mut batch = vec![genesis(&s)];
        batch.extend((0..2).map(|i| step(21, i)));
        shard_a.append_steps(21, &batch).unwrap();
        for r in &batch[1..] {
            assert_eq!(apply_record(&mut s, r), Replay::Applied);
        }

        // Shard B takes over: fence first, then load — committed appends
        // are in the scan, and A's future writes are rejected.
        let generation = shard_b.fence(21).unwrap();
        assert_eq!(generation, 1);
        let got = shard_b.load(21).unwrap().unwrap();
        assert_eq!(got.session, s);

        let err = shard_a.append_steps(21, &[step(21, 2)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        let err = shard_a.snapshot(21, &s).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);

        // The new owner writes freely; a second fence by A reclaims.
        shard_b.append_steps(21, &[step(21, 2)]).unwrap();
        assert_eq!(shard_a.fence(21).unwrap(), 2);
        shard_a.append_steps(21, &[step(21, 3)]).unwrap();
        let err = shard_b.append_steps(21, &[step(21, 4)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);

        // Everything committed before each handover survives recovery.
        let fresh = SessionStore::open(&dir, StoreConfig::default()).unwrap();
        let got = fresh.load(21).unwrap().unwrap();
        assert_eq!(got.session.state.iterations.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A released session keeps its generation token: after another
    /// store fences it, the departed copy's next write reopens the WAL and
    /// is still refused, while the new owner writes across its own
    /// release.
    #[test]
    fn released_session_stays_fenced() {
        let dir = crate::test_dir("store-release");
        let shard_a = SessionStore::open(&dir, StoreConfig::default()).unwrap();
        let shard_b = SessionStore::open(&dir, StoreConfig::default()).unwrap();
        shard_a.fence(31).unwrap();
        let batch = [genesis(&base_session(31)), step(31, 0)];
        shard_a.append_steps(31, &batch).unwrap();
        shard_a.release(31);

        shard_b.fence(31).unwrap();
        let err = shard_a.append_steps(31, &[step(31, 1)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);

        shard_b.release(31);
        shard_b.append_steps(31, &[step(31, 1)]).unwrap();
        assert_eq!(shard_b.load(31).unwrap().unwrap().replayed_steps, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A store that never fences (the single-shard world) is unaffected:
    /// no `gen` file is created and writes always pass the check.
    #[test]
    fn unfenced_sessions_behave_as_before() {
        let dir = crate::test_dir("store-unfenced");
        let store = SessionStore::open(&dir, StoreConfig::default()).unwrap();
        let s = base_session(4);
        store.snapshot(4, &s).unwrap();
        store.append_steps(4, &[step(4, 0)]).unwrap();
        assert!(!store.root().join("sessions/4/gen").exists());

        // A reopened store inherits the on-disk generation (fenced once,
        // then reopened by the same shard) and keeps writing.
        store.fence(4).unwrap();
        let reopened = SessionStore::open(&dir, StoreConfig::default()).unwrap();
        reopened.append_steps(4, &[step(4, 1)]).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_and_mismatched_records_are_filtered_on_replay() {
        let mut s = base_session(5);
        // Stale: record 0 twice (as after a snapshot that already covers it).
        assert_eq!(apply_record(&mut s, &step(5, 0)), Replay::Applied);
        assert_eq!(apply_record(&mut s, &step(5, 0)), Replay::Stale);
        // Gap: step 3 when only 1 exists.
        assert_eq!(apply_record(&mut s, &step(5, 3)), Replay::Mismatch);
        // Wrong session.
        assert_eq!(apply_record(&mut s, &step(6, 1)), Replay::Mismatch);
        // Finish seals the session; steps after it mismatch.
        let finish = WalRecord {
            session: 5,
            step_index: 1,
            query: Vec::new(),
            new_pages: Vec::new(),
            selection_time_nanos: 0,
            collective: None,
            finished: Some("budget_exhausted".into()),
            genesis: None,
        };
        assert_eq!(apply_record(&mut s, &finish), Replay::Applied);
        assert_eq!(s.state.finished.as_deref(), Some("budget_exhausted"));
        assert_eq!(apply_record(&mut s, &finish), Replay::Stale);
        assert_eq!(apply_record(&mut s, &step(5, 1)), Replay::Mismatch);
    }
}
