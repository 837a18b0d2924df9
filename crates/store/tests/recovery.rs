//! Crash-recovery guarantees, exercised through the public API:
//!
//! * truncating the WAL at **every byte offset** of the final record
//!   recovers exactly the last fully-committed step (torn-tail tolerance);
//! * a corrupt mid-log record (CRC failure) stops replay at the last good
//!   prefix instead of failing the boot;
//! * both paths increment their metrics counters, which the serving stack
//!   surfaces through the `metrics` wire op.

use l2q_core::{PortableCollective, PortableHarvestState};
use l2q_store::{
    apply_record, scan_wal, PortableSession, Replay, SessionStore, StoreConfig, WalRecord,
    SESSION_FORMAT_VERSION,
};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// The metrics counters these tests assert exact deltas on are
/// process-global, and every test here bumps them, so the tests of this
/// file run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("l2q-store-recovery-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn base_session(id: u64) -> PortableSession {
    PortableSession {
        version: SESSION_FORMAT_VERSION,
        id,
        selector: "l2qbal".into(),
        domain_size: 4,
        n_queries: 16,
        state: PortableHarvestState {
            version: 1,
            entity: 1,
            aspect: "RESEARCH".into(),
            seed_query: vec!["alice".into()],
            seed_results: vec![0, 1],
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
        query: vec![format!("word{i}"), "shared".into()],
        new_pages: vec![10 + i as u32, 40 + i as u32],
        selection_time_nanos: 1_000 * (i + 1),
        collective: Some(PortableCollective {
            r_phi: format!("{:016x}", (0.25 + i as f64).to_bits()),
            rstar_phi: format!("{:016x}", (0.5 + i as f64).to_bits()),
        }),
        finished: None,
        genesis: None,
    }
}

/// Torn-tail tolerance: cut the WAL at every byte offset inside the final
/// record and assert recovery lands on the last *fully committed* step,
/// never errors, and never resurrects partial data.
#[test]
fn truncation_at_every_offset_of_final_record_recovers_committed_prefix() {
    let _serial = serial();
    let dir = test_dir("every-offset");
    let store = SessionStore::open(&dir, StoreConfig::default()).unwrap();

    const STEPS: u64 = 4;
    let mut s = base_session(1);
    store.snapshot(1, &s).unwrap();
    let recs: Vec<WalRecord> = (0..STEPS).map(|i| step(1, i)).collect();
    store.append_steps(1, &recs).unwrap();
    for r in &recs {
        assert_eq!(apply_record(&mut s, r), Replay::Applied);
    }

    let wal_path = dir.join("sessions/1/wal.log");
    let full = std::fs::read(&wal_path).unwrap();
    let prefix_len = scan_wal(&wal_path).unwrap().valid_bytes as usize;
    assert_eq!(prefix_len, full.len(), "log is fully valid before surgery");
    let last_frame_start = {
        // Re-scan the first STEPS-1 records to find where the final frame begins.
        let mut off = 0usize;
        for _ in 0..STEPS - 1 {
            let len = u32::from_le_bytes(full[off..off + 4].try_into().unwrap()) as usize;
            off += 8 + len;
        }
        off
    };

    for cut in last_frame_start..full.len() {
        // A fresh store per cut so no cached file handles mask the surgery.
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        let store = SessionStore::open(&dir, StoreConfig::default()).unwrap();
        let got = store
            .load(1)
            .unwrap()
            .unwrap_or_else(|| panic!("cut at {cut} must still recover"));
        assert_eq!(
            got.replayed_steps,
            STEPS as usize - 1,
            "cut at {cut}: only fully-committed steps replay"
        );
        let mut expect = base_session(1);
        for r in &recs[..STEPS as usize - 1] {
            apply_record(&mut expect, r);
        }
        assert_eq!(got.session, expect, "cut at {cut}");
    }

    // And the uncut log recovers everything.
    std::fs::write(&wal_path, &full).unwrap();
    let got = SessionStore::open(&dir, StoreConfig::default())
        .unwrap()
        .load(1)
        .unwrap()
        .unwrap();
    assert_eq!(got.replayed_steps, STEPS as usize);
    assert_eq!(got.session, s);
    std::fs::remove_dir_all(&dir).ok();
}

/// CRC corruption mid-log: replay stops at the last good prefix; recovery
/// still succeeds; the failure is counted.
#[test]
fn corrupt_mid_log_record_is_rejected_and_counted() {
    let _serial = serial();
    let dir = test_dir("crc-reject");
    let store = SessionStore::open(&dir, StoreConfig::default()).unwrap();

    let mut s = base_session(2);
    store.snapshot(2, &s).unwrap();
    let recs: Vec<WalRecord> = (0..3).map(|i| step(2, i)).collect();
    store.append_steps(2, &recs).unwrap();
    apply_record(&mut s, &recs[0]);

    let wal_path = dir.join("sessions/2/wal.log");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    // Flip a payload byte inside the second frame.
    let target = 8 + first_len + 8 + 4;
    bytes[target] ^= 0x20;
    std::fs::write(&wal_path, &bytes).unwrap();

    let crc_before = l2q_obs::global()
        .counter("store_wal_crc_failures_total")
        .get();
    let store = SessionStore::open(&dir, StoreConfig::default()).unwrap();
    let got = store.load(2).unwrap().unwrap();
    assert_eq!(got.replayed_steps, 1, "replay stops before the bad frame");
    assert_eq!(got.session, s);
    let crc_after = l2q_obs::global()
        .counter("store_wal_crc_failures_total")
        .get();
    assert_eq!(crc_after, crc_before + 1, "CRC failure counted");
    std::fs::remove_dir_all(&dir).ok();
}

/// Torn-tail discards increment their counter, and recoveries are counted.
#[test]
fn torn_tail_and_recoveries_are_counted() {
    let _serial = serial();
    let dir = test_dir("torn-metrics");
    let store = SessionStore::open(&dir, StoreConfig::default()).unwrap();

    let s = base_session(3);
    store.snapshot(3, &s).unwrap();
    store.append_steps(3, &[step(3, 0)]).unwrap();

    let wal_path = dir.join("sessions/3/wal.log");
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..bytes.len() - 2]).unwrap();

    let reg = l2q_obs::global();
    let torn_before = reg.counter("store_torn_tail_discards_total").get();
    let rec_before = reg.counter("store_recoveries_total").get();
    let got = SessionStore::open(&dir, StoreConfig::default())
        .unwrap()
        .load(3)
        .unwrap()
        .unwrap();
    assert_eq!(got.replayed_steps, 0);
    assert_eq!(
        reg.counter("store_torn_tail_discards_total").get(),
        torn_before + 1
    );
    assert_eq!(reg.counter("store_recoveries_total").get(), rec_before + 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A damaged newest snapshot falls back to the previous generation and the
/// WAL tail still replays on top of it.
#[test]
fn damaged_newest_snapshot_falls_back_to_older_generation() {
    let _serial = serial();
    let dir = test_dir("snap-fallback");
    let store = SessionStore::open(
        &dir,
        StoreConfig {
            keep_snapshots: 2,
            ..StoreConfig::default()
        },
    )
    .unwrap();

    let mut s = base_session(4);
    store.snapshot(4, &s).unwrap(); // generation 0 (0 steps)
    let older = s.clone();
    store.append_steps(4, &[step(4, 0), step(4, 1)]).unwrap();
    apply_record(&mut s, &step(4, 0));
    apply_record(&mut s, &step(4, 1));
    store.snapshot(4, &s).unwrap(); // generation 1 (2 steps), truncates WAL
    store.append_steps(4, &[step(4, 2)]).unwrap();

    // Vandalize the newest snapshot.
    let newest = dir.join("sessions/4/snap-000000000002.snap");
    let mut bytes = std::fs::read(&newest).unwrap();
    let n = bytes.len();
    bytes[n - 7] ^= 0xff;
    std::fs::write(&newest, &bytes).unwrap();

    let reg = l2q_obs::global();
    let rejects_before = reg.counter("store_snapshot_rejects_total").get();
    let store = SessionStore::open(&dir, StoreConfig::default()).unwrap();
    let got = store.load(4).unwrap().unwrap();
    assert_eq!(
        reg.counter("store_snapshot_rejects_total").get(),
        rejects_before + 1
    );

    // Fallback base = older snapshot; WAL now only holds step 2, which is a
    // gap relative to 0 steps, so replay keeps the committed prefix it can
    // prove: the older snapshot itself.
    assert_eq!(got.session, older);
    std::fs::remove_dir_all(&dir).ok();
}

/// Each WAL append (fsync included), snapshot and load is one sample of
/// its latency histogram.
#[test]
fn appends_snapshots_and_loads_are_timed_once_per_call() {
    let _serial = serial();
    let dir = test_dir("latency");
    let store = SessionStore::open(&dir, StoreConfig::default()).unwrap();
    let reg = l2q_obs::global();
    let samples = || {
        [
            "store_wal_append_seconds",
            "store_snapshot_seconds",
            "store_load_seconds",
        ]
        .map(|name| reg.histogram(name).count())
    };
    let before = samples();
    store.snapshot(5, &base_session(5)).unwrap();
    store.append_steps(5, &[step(5, 0)]).unwrap();
    store.append_steps(5, &[step(5, 1), step(5, 2)]).unwrap();
    let got = store.load(5).unwrap().unwrap();
    assert_eq!(got.replayed_steps, 3);
    assert_eq!(samples(), [before[0] + 2, before[1] + 1, before[2] + 1]);
    std::fs::remove_dir_all(&dir).ok();
}
