//! Durable-store integration: spill-on-evict with Φ intact, refuse-evict
//! without a store, server restart over the same data dir, and the
//! `persist`/`restore`/`list_sessions` wire ops.

use l2q_aspect::RelevanceOracle;
use l2q_core::L2qConfig;
use l2q_corpus::{generate, researchers_domain, Corpus, CorpusConfig, EntityId};
use l2q_service::{
    BundleConfig, Client, HarvestServer, SelectorKind, ServerConfig, ServerHandle, ServiceMetrics,
    ServingBundle, SessionManager, SessionSpec,
};
use l2q_store::{FsyncPolicy, SessionStore, StoreConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("l2q-durability-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bundle() -> Arc<ServingBundle> {
    let corpus: Arc<Corpus> = Arc::new(
        generate(
            &researchers_domain(),
            &CorpusConfig {
                n_entities: 12,
                pages_per_entity: 10,
                seed: 11,
                ..CorpusConfig::tiny()
            },
        )
        .unwrap(),
    );
    let oracle = RelevanceOracle::from_truth(&corpus);
    Arc::new(ServingBundle::with_oracle(
        corpus,
        Vec::new(),
        oracle,
        L2qConfig::default(),
        BundleConfig::default(),
    ))
}

fn manager(
    b: &Arc<ServingBundle>,
    idle: Duration,
    store: Option<Arc<SessionStore>>,
) -> SessionManager {
    SessionManager::with_store(b.clone(), idle, Arc::new(ServiceMetrics::default()), store)
}

fn spec(b: &Arc<ServingBundle>) -> SessionSpec {
    SessionSpec {
        entity: EntityId(1),
        aspect: b.corpus.aspect_by_name("RESEARCH").unwrap(),
        selector: SelectorKind::L2qbal,
        n_queries: Some(6),
        domain_size: 3,
    }
}

/// The satellite regression: a session evicted for idleness and then
/// touched again resumes with its full prior context Φ (fired queries and
/// gathered pages) intact — the store made eviction a spill, not a loss.
#[test]
fn evicted_session_resumes_with_prior_context_intact() {
    let dir = test_dir("spill-resume");
    let b = bundle();
    let store = Arc::new(SessionStore::open(&dir, StoreConfig::default()).unwrap());
    let m = manager(&b, Duration::from_millis(20), Some(store));

    let status = m.create(&spec(&b)).unwrap();
    let slot = m.get(status.id).unwrap();
    let report = slot.lock().unwrap().run_steps(2);
    assert!(report.advanced > 0, "session must make progress");
    let (pages_before, queries_before) = slot.lock().unwrap().snapshot();
    drop(slot);

    std::thread::sleep(Duration::from_millis(40));
    assert_eq!(m.evict_idle(), 1, "idle session spills to the store");
    assert_eq!(m.active(), 0);

    // Touch restores transparently; Φ is intact.
    let slot = m.get(status.id).unwrap();
    let (pages_after, queries_after) = slot.lock().unwrap().snapshot();
    assert_eq!(pages_after, pages_before, "gathered pages survive eviction");
    assert_eq!(
        queries_after, queries_before,
        "fired queries survive eviction"
    );

    // And the restored session still steps (continues, not restarts).
    let resumed = slot.lock().unwrap().run_steps(8);
    assert!(resumed.status.finished.is_some(), "budget finishes the run");
    assert!(resumed.status.steps_taken >= report.status.steps_taken);
    std::fs::remove_dir_all(&dir).ok();
}

/// Open file descriptors of this process.
#[cfg(target_os = "linux")]
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// A session that leaves residency closes its WAL: create → step →
/// detach and create → step → idle-eviction cycles leave the process's
/// fd count flat instead of keeping one `wal.log` open per session ever
/// served. Other tests in this binary open files concurrently, so the
/// bound is on growth per cycle.
#[cfg(target_os = "linux")]
#[test]
fn sessions_leaving_residency_close_their_wal() {
    const CYCLES: usize = 200;
    let dir = test_dir("fd-flat");
    let b = bundle();
    let cfg = StoreConfig {
        fsync: FsyncPolicy::Never,
        ..StoreConfig::default()
    };
    let store = Arc::new(SessionStore::open(&dir, cfg).unwrap());
    let m = manager(&b, Duration::ZERO, Some(store));

    let before = open_fds();
    for cycle in 0..CYCLES {
        let id = m.create(&spec(&b)).unwrap().id;
        let report = m.get(id).unwrap().lock().unwrap().run_steps(1);
        assert_eq!(report.advanced, 1);
        if cycle % 2 == 0 {
            m.detach(id).unwrap();
        } else {
            assert_eq!(m.evict_idle(), 1);
        }
    }
    assert_eq!(m.active(), 0);
    let grown = open_fds().saturating_sub(before);
    assert!(
        grown * 4 < CYCLES,
        "{grown} more open fds after {CYCLES} sessions left residency"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Without a store, evicting a session with stepped progress would lose
/// data — the sweeper must refuse (and still evict fresh sessions).
#[test]
fn eviction_without_store_refuses_sessions_with_progress() {
    let b = bundle();
    let m = manager(&b, Duration::from_millis(20), None);

    let stepped = m.create(&spec(&b)).unwrap();
    m.get(stepped.id).unwrap().lock().unwrap().run_steps(1);
    let fresh = m.create(&spec(&b)).unwrap();

    std::thread::sleep(Duration::from_millis(40));
    assert_eq!(m.evict_idle(), 1, "only the fresh session is evictable");
    assert!(m.get(stepped.id).is_ok(), "stepped session must survive");
    assert!(m.get(fresh.id).is_err());
}

/// A second manager over the same data dir (a server restart) sees the
/// first manager's sessions, restores them, and hands out non-colliding
/// ids. High snapshot_every keeps steps in the WAL so the restart
/// exercises tail replay, not just snapshot reads.
#[test]
fn restart_recovers_sessions_from_wal_tail() {
    let dir = test_dir("restart");
    let b = bundle();
    let store_cfg = StoreConfig {
        fsync: FsyncPolicy::Always,
        snapshot_every: 1000, // never snapshot mid-run: recovery must replay the WAL
        keep_snapshots: 2,
    };

    let (id, pages_before, queries_before) = {
        let store = Arc::new(SessionStore::open(&dir, store_cfg).unwrap());
        let m = manager(&b, Duration::from_secs(300), Some(store));
        let status = m.create(&spec(&b)).unwrap();
        let slot = m.get(status.id).unwrap();
        slot.lock().unwrap().run_steps(3);
        let (p, q) = slot.lock().unwrap().snapshot();
        assert!(!q.is_empty(), "need WAL-logged steps for this test");
        (status.id, p, q)
        // Manager dropped: simulates the process going away. The WAL was
        // fsynced per batch, so everything survives.
    };

    let store = Arc::new(SessionStore::open(&dir, store_cfg).unwrap());
    let m2 = manager(&b, Duration::from_secs(300), Some(store));
    let entries = m2.list();
    assert!(
        entries.iter().any(|e| e.id == id && !e.resident),
        "restarted manager lists the stored session"
    );

    let slot = m2.get(id).unwrap();
    let (pages_after, queries_after) = slot.lock().unwrap().snapshot();
    assert_eq!(pages_after, pages_before, "WAL replay restores pages");
    assert_eq!(queries_after, queries_before, "WAL replay restores queries");

    // New ids start above every recovered one.
    let fresh = m2.create(&spec(&b)).unwrap();
    assert!(fresh.id > id);

    // Close removes the durable state too.
    m2.close(id).unwrap();
    let m3 = manager(
        &b,
        Duration::from_secs(300),
        Some(Arc::new(SessionStore::open(&dir, store_cfg).unwrap())),
    );
    assert!(m3.get(id).is_err(), "closed session is gone for good");
    std::fs::remove_dir_all(&dir).ok();
}

/// Fleet regression: a `restore` and a `step` racing on the same stored
/// id (a router retrying against a shard while another client touches the
/// session) must serialize onto ONE resident instance — both touches see
/// the same `Arc`, the restore is counted once, and the step lands on the
/// shared instance rather than a doomed duplicate rebuild.
#[test]
fn concurrent_restore_and_step_share_one_resident_instance() {
    let dir = test_dir("restore-step-race");
    let b = bundle();
    let store = Arc::new(SessionStore::open(&dir, StoreConfig::default()).unwrap());
    let metrics = Arc::new(ServiceMetrics::default());
    let m = Arc::new(SessionManager::with_store(
        b.clone(),
        Duration::from_secs(300),
        metrics.clone(),
        Some(store),
    ));

    let id = m.create(&spec(&b)).unwrap().id;
    m.get(id).unwrap().lock().unwrap().run_steps(2);
    m.detach(id).unwrap();
    assert_eq!(m.active(), 0, "detach dropped residency");
    let restored_before = ServiceMetrics::load(&metrics.sessions_restored);

    // Both threads touch the stored session through the same path the
    // wire ops use (`restore` and `step` both go through manager.get).
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let restorer = {
        let (m, barrier) = (m.clone(), barrier.clone());
        std::thread::spawn(move || {
            barrier.wait();
            m.get(id).expect("concurrent restore")
        })
    };
    let stepper = {
        let (m, barrier) = (m.clone(), barrier.clone());
        std::thread::spawn(move || {
            barrier.wait();
            let slot = m.get(id).expect("concurrent step touch");
            let report = slot.lock().unwrap().run_steps(1);
            (slot, report)
        })
    };
    let restored_slot = restorer.join().unwrap();
    let (stepped_slot, report) = stepper.join().unwrap();

    assert!(
        Arc::ptr_eq(&restored_slot, &stepped_slot),
        "both racers must share one resident instance"
    );
    assert!(Arc::ptr_eq(&restored_slot, &m.get(id).unwrap()));
    assert_eq!(m.active(), 1, "exactly one resident copy");
    assert_eq!(
        ServiceMetrics::load(&metrics.sessions_restored),
        restored_before + 1,
        "the race counts as one restore, not two"
    );
    assert!(
        report.status.steps_taken >= 3,
        "the step advanced the restored state (got {})",
        report.status.steps_taken
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn start_server(store: Option<Arc<SessionStore>>) -> ServerHandle {
    HarvestServer::spawn_with_store(
        bundle(),
        ServerConfig {
            workers: 2,
            queue_cap: 16,
            ..ServerConfig::default()
        },
        store,
        "127.0.0.1:0",
    )
    .expect("bind ephemeral port")
}

/// The wire surface: persist / restore / list_sessions round-trip over
/// TCP, and a second server over the same data dir serves the session
/// with identical results.
#[test]
fn wire_persist_restore_and_list_sessions() {
    let dir = test_dir("wire");
    let store = Arc::new(SessionStore::open(&dir, StoreConfig::default()).unwrap());
    let mut server = start_server(Some(store));
    let mut client = Client::connect(server.addr()).unwrap();

    let session = client.create(1, "RESEARCH", "l2qbal", Some(6), 3).unwrap();
    client.step(session, 2, 40).unwrap();
    let persisted = client.persist(session).unwrap();
    assert_eq!(persisted.steps_taken, Some(2));

    let listed = client.list_sessions().unwrap().sessions.unwrap();
    let entry = listed.iter().find(|e| e.session == session).unwrap();
    assert!(entry.resident);
    assert_eq!(entry.steps_taken, Some(2));

    let before = client.snapshot(session).unwrap();
    server.shutdown();

    // Second server, same data dir: the session is stored, restorable,
    // and bit-identical.
    let store = Arc::new(SessionStore::open(&dir, StoreConfig::default()).unwrap());
    let mut server2 = start_server(Some(store));
    let mut client2 = Client::connect(server2.addr()).unwrap();

    let listed = client2.list_sessions().unwrap().sessions.unwrap();
    let entry = listed.iter().find(|e| e.session == session).unwrap();
    assert!(!entry.resident, "not yet touched on the new server");

    let restored = client2.restore(session).unwrap();
    assert_eq!(restored.steps_taken, Some(2));
    let after = client2.snapshot(session).unwrap();
    assert_eq!(after.pages, before.pages);
    assert_eq!(after.queries, before.queries);

    // Stepping continues where the old server stopped.
    let resp = client2.step(session, 64, 40).unwrap();
    assert_ne!(resp.state.as_deref(), Some("running"));

    // Store metrics are reachable through the wire metrics op.
    let metrics = client2.metrics("text").unwrap().metrics_text.unwrap();
    assert!(metrics.contains("store_wal_appends_total"));
    assert!(metrics.contains("store_recoveries_total"));

    client2.close(session).unwrap();
    server2.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// persist / restore / list_sessions against a store-less server: the two
/// session ops refuse cleanly; list still reports residents.
#[test]
fn wire_store_ops_without_data_dir() {
    let mut server = start_server(None);
    let mut client = Client::connect(server.addr()).unwrap();
    let session = client.create(1, "RESEARCH", "l2qbal", Some(3), 0).unwrap();

    let err = client.persist(session).unwrap_err();
    assert!(err.to_string().contains("--data-dir"), "got: {err}");
    let err = client.restore(session).unwrap_err();
    assert!(err.to_string().contains("--data-dir"), "got: {err}");

    let listed = client.list_sessions().unwrap().sessions.unwrap();
    assert!(listed.iter().any(|e| e.session == session && e.resident));
    server.shutdown();
}

/// A deposed shard surfaces fencing instead of lying: once another store
/// handle fences the session away (what a failover/migration restore
/// does), the old server's next step answers a clean `ok:false` error
/// naming the fence — not an `ok:true` whose advance silently never
/// became durable — and the fenced resident refuses spills.
#[test]
fn fenced_session_surfaces_clean_error_instead_of_silent_ok() {
    let dir = test_dir("fenced");
    let store = Arc::new(SessionStore::open(&dir, StoreConfig::default()).unwrap());
    let mut server = start_server(Some(store));
    let mut client = Client::connect(server.addr()).unwrap();

    let session = client.create(1, "RESEARCH", "l2qbal", Some(6), 3).unwrap();
    client.step(session, 2, 40).unwrap();

    // Another shard takes ownership: its own store handle over the same
    // directory bumps the fence generation (restore-side discipline).
    let usurper = SessionStore::open(&dir, StoreConfig::default()).unwrap();
    usurper.fence(session).expect("fence the session away");

    let fenced_before = l2q_obs::global()
        .counter("service_sessions_fenced_total")
        .get();
    let err = client
        .step(session, 1, 40)
        .expect_err("deposed shard must refuse the step");
    assert!(
        err.to_string().contains("fenced"),
        "error names the fence: {err}"
    );
    assert!(
        l2q_obs::global()
            .counter("service_sessions_fenced_total")
            .get()
            > fenced_before,
        "fence not accounted in metrics"
    );

    // The connection is not poisoned and the server keeps serving; the
    // fenced resident keeps refusing (and refuses persist too — a spill
    // would write over the new owner's state).
    let err = client.step(session, 1, 40).expect_err("still fenced");
    assert!(err.to_string().contains("fenced"), "got: {err}");
    let err = client.persist(session).expect_err("spill must refuse");
    assert!(err.to_string().contains("fenced"), "got: {err}");
    let healthy = client.create(2, "RESEARCH", "l2qbal", Some(3), 0).unwrap();
    client.step(healthy, 1, 40).expect("server keeps serving");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
