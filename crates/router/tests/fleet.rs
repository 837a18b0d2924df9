//! Fleet integration: a real router in front of real `l2q-serve` shards
//! (in-process, ephemeral ports, one shared store directory).
//!
//! The acceptance-critical properties live here:
//!
//! * killing a shard mid-harvest fails its sessions over to a survivor
//!   with a **bit-identical** fired-query trajectory vs an uninterrupted
//!   single-server run;
//! * live migration loses zero steps and lands the session on the
//!   requested shard;
//! * draining a shard empties it while its sessions keep stepping.

use l2q_aspect::RelevanceOracle;
use l2q_core::L2qConfig;
use l2q_corpus::{generate, researchers_domain, Corpus, CorpusConfig};
use l2q_router::{
    HashRing, Health, RouterConfig, RouterCore, RouterHandle, RouterServer, ShardSpec, Supervisor,
    SupervisorConfig,
};
use l2q_service::{
    BundleConfig, Client, ClientConfig, HarvestServer, Request, Response, ServerConfig,
    ServerHandle, ServingBundle,
};
use l2q_store::{SessionStore, StoreConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Duration;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("l2q-fleet-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bundle() -> Arc<ServingBundle> {
    let corpus: Arc<Corpus> = Arc::new(
        generate(
            &researchers_domain(),
            &CorpusConfig {
                n_entities: 8,
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

/// One in-process shard over the shared fleet store directory. Each shard
/// opens its **own** `SessionStore` handle, exactly like separate
/// processes sharing a directory would.
fn start_shard(b: &Arc<ServingBundle>, dir: &Path, shard_id: &str) -> ServerHandle {
    let store = Arc::new(SessionStore::open(dir, StoreConfig::default()).unwrap());
    HarvestServer::spawn_with_store(
        b.clone(),
        ServerConfig {
            workers: 2,
            queue_cap: 16,
            shard_id: Some(shard_id.to_owned()),
            ..ServerConfig::default()
        },
        Some(store),
        "127.0.0.1:0",
    )
    .expect("bind shard")
}

fn start_router(shards: &[(&str, std::net::SocketAddr)]) -> (Arc<RouterCore>, RouterHandle) {
    let core = Arc::new(RouterCore::new(RouterConfig {
        probe_interval: Duration::from_millis(200),
        client: ClientConfig {
            connect_timeout: Duration::from_millis(500),
            ..ClientConfig::default()
        },
        ..RouterConfig::default()
    }));
    for (name, addr) in shards {
        core.add_shard(name, &addr.to_string()).unwrap();
    }
    let handle = RouterServer::spawn(core.clone(), "127.0.0.1:0").expect("bind router");
    (core, handle)
}

/// Step one-at-a-time until the session finishes; returns the last
/// response. Small batches keep interleaving interesting and give
/// failover/migration a live, mid-harvest session to work with.
fn step_to_completion(client: &mut Client, session: u64) -> Response {
    for _ in 0..64 {
        let resp = client.step(session, 1, 40).expect("step");
        if resp.state.as_deref() != Some("running") {
            return resp;
        }
    }
    panic!("session {session} did not finish within 64 steps");
}

fn counter(name: &str) -> u64 {
    l2q_obs::global().counter(name).get()
}

fn histogram_count(name: &str) -> u64 {
    l2q_obs::global().histogram(name).count()
}

/// The uninterrupted reference: one plain server, no router, no store.
/// Determinism means every fleet scenario must reproduce these exact
/// fired queries and pages for the same session spec.
fn reference_trajectory(b: &Arc<ServingBundle>) -> (Vec<u32>, Vec<String>) {
    let mut server = HarvestServer::spawn(
        b.clone(),
        ServerConfig {
            workers: 2,
            queue_cap: 16,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let id = client.create(1, "RESEARCH", "l2qbal", Some(6), 3).unwrap();
    step_to_completion(&mut client, id);
    let snap = client.snapshot(id).unwrap();
    server.shutdown();
    (snap.pages.unwrap(), snap.queries.unwrap())
}

/// Routed basics: sessions land on the ring-predicted shard, both shards
/// serve traffic, every session finishes, and fleet admin ops answer.
#[test]
fn routed_sessions_land_on_ring_owners_and_finish() {
    let dir = test_dir("routed-basic");
    let b = bundle();
    let shard_a = start_shard(&b, &dir, "alpha");
    let shard_b = start_shard(&b, &dir, "beta");
    let (_core, mut router) = start_router(&[("alpha", shard_a.addr()), ("beta", shard_b.addr())]);
    let mut client = Client::connect(router.addr()).unwrap();

    // The ring the router built is reproducible from the same names.
    let mut ring = HashRing::new(l2q_router::ring::DEFAULT_VNODES);
    ring.add("alpha");
    ring.add("beta");

    let mut served: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut sessions = Vec::new();
    for i in 0..8u32 {
        let mut req = l2q_service::Request::op("create");
        req.entity = Some(i % 8);
        req.aspect = Some("RESEARCH".into());
        req.selector = Some("l2qbal".into());
        req.n_queries = Some(4);
        req.domain_size = Some(0);
        let resp = client.request(&req).unwrap();
        let id = resp.session.unwrap();
        let shard = resp.shard.clone().unwrap();
        assert_eq!(
            shard,
            ring.route(id).unwrap(),
            "create routed to the ring owner"
        );
        served.insert(shard);
        sessions.push(id);
    }
    assert_eq!(served.len(), 2, "8 sessions spread across both shards");

    for &id in &sessions {
        let last = step_to_completion(&mut client, id);
        assert_eq!(
            last.shard.as_deref(),
            ring.route(id),
            "steps stay on the owner"
        );
    }

    // Aggregated stats see the whole fleet's work.
    let stats = client.stats().unwrap().stats.unwrap();
    assert_eq!(stats.sessions_created, 8);
    assert!(stats.steps_executed > 0);
    assert_eq!(stats.workers, 4, "2 workers per shard, summed");

    // fleet_status: both shards healthy, resident counts add up.
    let fleet = client.fleet_status().unwrap().fleet.unwrap();
    assert_eq!(fleet.shards.len(), 2);
    assert!(fleet.shards.iter().all(|s| s.health == "healthy"));
    assert_eq!(
        fleet
            .shards
            .iter()
            .map(|s| s.active_sessions.unwrap())
            .sum::<u64>(),
        8
    );

    // Merged list_sessions: every session exactly once, resident.
    let listed = client.list_sessions().unwrap().sessions.unwrap();
    assert_eq!(listed.len(), 8);
    assert!(listed
        .iter()
        .all(|e| e.health.as_deref() == Some("resident")));

    router.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The headline guarantee: kill the owning shard mid-harvest; the session
/// resumes on the survivor from its last committed step and finishes with
/// a fired-query trajectory **bit-identical** to an uninterrupted run.
#[test]
fn shard_death_fails_over_with_bit_identical_trajectory() {
    let dir = test_dir("failover");
    let b = bundle();
    let (ref_pages, ref_queries) = reference_trajectory(&b);

    let shard_a = start_shard(&b, &dir, "alpha");
    let shard_b = start_shard(&b, &dir, "beta");
    let mut handles = std::collections::HashMap::from([("alpha", shard_a), ("beta", shard_b)]);
    let (_core, mut router) = start_router(&[
        ("alpha", handles["alpha"].addr()),
        ("beta", handles["beta"].addr()),
    ]);
    let mut client = Client::connect(router.addr()).unwrap();

    let id = client.create(1, "RESEARCH", "l2qbal", Some(6), 3).unwrap();
    let owner = client.status(id).unwrap().shard.unwrap();
    let survivor = if owner == "alpha" { "beta" } else { "alpha" };

    // A couple of committed steps, then the owner dies mid-harvest.
    client.step(id, 1, 40).unwrap();
    client.step(id, 1, 40).unwrap();
    let failovers_before = counter("router_failovers_total");
    handles.remove(owner.as_str()).unwrap().shutdown();

    // The very next step fails over transparently within one request.
    let resp = client.step(id, 1, 40).expect("failover step");
    assert_eq!(
        resp.shard.as_deref(),
        Some(survivor),
        "session restored on the survivor"
    );
    assert!(resp.steps_taken.unwrap() >= 3, "no committed step was lost");
    assert!(
        counter("router_failovers_total") > failovers_before,
        "failover was counted"
    );

    let last = step_to_completion(&mut client, id);
    assert_eq!(last.shard.as_deref(), Some(survivor));

    let snap = client.snapshot(id).unwrap();
    assert_eq!(snap.pages.unwrap(), ref_pages, "pages bit-identical");
    assert_eq!(snap.queries.unwrap(), ref_queries, "queries bit-identical");

    router.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Live migration: drain on the source, restore on the explicit target,
/// zero lost steps, and the trajectory still matches the reference.
#[test]
fn live_migration_loses_no_steps_and_sticks_to_target() {
    let dir = test_dir("migrate");
    let b = bundle();
    let (ref_pages, ref_queries) = reference_trajectory(&b);

    let shard_a = start_shard(&b, &dir, "alpha");
    let shard_b = start_shard(&b, &dir, "beta");
    let (_core, mut router) = start_router(&[("alpha", shard_a.addr()), ("beta", shard_b.addr())]);
    let mut client = Client::connect(router.addr()).unwrap();

    let id = client.create(1, "RESEARCH", "l2qbal", Some(6), 3).unwrap();
    client.step(id, 1, 40).unwrap();
    let before = client.status(id).unwrap();
    let owner = before.shard.unwrap();
    let target = if owner == "alpha" { "beta" } else { "alpha" };

    let migrations_before = counter("router_migrations_total");
    let pauses_before = histogram_count("router_migration_pause_seconds");
    let moved = client.migrate(id, Some(target)).unwrap();
    assert_eq!(moved.shard.as_deref(), Some(target), "landed on the target");
    assert_eq!(moved.migrated, Some(1));
    assert!(
        moved.steps_taken.unwrap() >= before.steps_taken.unwrap(),
        "migration lost a step: {:?} -> {:?}",
        before.steps_taken,
        moved.steps_taken
    );
    assert!(counter("router_migrations_total") > migrations_before);
    // Other tests in this binary migrate too, so the pause count only
    // has a floor.
    assert!(
        histogram_count("router_migration_pause_seconds") > pauses_before,
        "migration pause not recorded"
    );

    // Routing now sticks to the target (placement override beats ring).
    let resp = client.step(id, 1, 40).unwrap();
    assert_eq!(resp.shard.as_deref(), Some(target));

    let last = step_to_completion(&mut client, id);
    assert_eq!(last.shard.as_deref(), Some(target));
    let snap = client.snapshot(id).unwrap();
    assert_eq!(snap.pages.unwrap(), ref_pages, "pages bit-identical");
    assert_eq!(snap.queries.unwrap(), ref_queries, "queries bit-identical");

    // Close clears durable state fleet-wide and the placement override.
    client.close(id).unwrap();
    let listed = client.list_sessions().unwrap().sessions.unwrap();
    assert!(listed.iter().all(|e| e.session != id));

    router.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `drain_shard` moves every resident session off the shard, marks it
/// draining (unroutable), and the moved sessions keep stepping elsewhere.
#[test]
fn drain_shard_empties_it_and_sessions_keep_stepping() {
    let dir = test_dir("drain");
    let b = bundle();
    let shard_a = start_shard(&b, &dir, "alpha");
    let shard_b = start_shard(&b, &dir, "beta");
    let (_core, mut router) = start_router(&[("alpha", shard_a.addr()), ("beta", shard_b.addr())]);
    let mut client = Client::connect(router.addr()).unwrap();

    // Enough sessions that both shards certainly hold a few.
    let mut sessions = Vec::new();
    for i in 0..6u32 {
        let id = client
            .create(i % 8, "RESEARCH", "l2qbal", Some(6), 0)
            .unwrap();
        client.step(id, 1, 40).unwrap();
        sessions.push(id);
    }
    let drained = "alpha";
    let on_drained = sessions
        .iter()
        .filter(|&&id| client.status(id).unwrap().shard.as_deref() == Some(drained))
        .count() as u64;
    assert!(on_drained > 0, "test needs residents on the drained shard");

    let resp = client.drain_shard(drained).unwrap();
    assert_eq!(resp.migrated, Some(on_drained), "every resident moved");

    let fleet = client.fleet_status().unwrap().fleet.unwrap();
    let row = |name: &str| fleet.shards.iter().find(|s| s.name == name).unwrap();
    assert_eq!(row("alpha").health, "draining");
    assert_eq!(row("alpha").active_sessions, Some(0), "shard emptied");
    assert_eq!(row("beta").health, "healthy");
    assert_eq!(row("beta").active_sessions, Some(6));

    // Draining shards take no new traffic; everything still finishes.
    for &id in &sessions {
        let last = step_to_completion(&mut client, id);
        assert_eq!(last.shard.as_deref(), Some("beta"));
    }

    router.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Tentpole acceptance: one traced step through router → shard comes
/// back as a **single tree** — one trace id, every non-root span's
/// parent resolves within the set — covering router dispatch, scheduler
/// queue wait, the harvest step, graph solve, and retrieval search.
#[test]
fn traced_step_through_router_stitches_one_tree() {
    let dir = test_dir("traced-step");
    let b = bundle();
    let shard_a = start_shard(&b, &dir, "alpha");
    let shard_b = start_shard(&b, &dir, "beta");
    let (_core, mut router) = start_router(&[("alpha", shard_a.addr()), ("beta", shard_b.addr())]);
    let mut client = Client::connect(router.addr()).unwrap();

    // A fresh session on an entity nobody else queried in this process:
    // its seed query cannot be in the retrieval cache, so the traced
    // step is guaranteed to reach the search engine (retrieval_search).
    let id = client.create(7, "RESEARCH", "l2qbal", Some(6), 3).unwrap();
    let resp = client.step_traced(id, 1, 40).expect("traced step");
    let trace_id = resp.trace_id.expect("traced step echoes a trace id");

    let fetched = client.trace_by_id(trace_id).expect("fetch trace");
    assert_eq!(fetched.trace_id, Some(trace_id));
    let spans = fetched.spans.expect("stitched spans");
    assert!(
        spans.len() >= 5,
        "expected at least 5 spans, got {}: {:?}",
        spans.len(),
        spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
    );

    // One trace: every span carries the requested id.
    assert!(
        spans.iter().all(|s| s.trace_id == trace_id),
        "span from a foreign trace leaked into the stitch"
    );
    // One tree: exactly one root, and every non-root parent resolves.
    let roots: Vec<_> = spans
        .iter()
        .filter(|s| s.parent_span_id.is_none())
        .collect();
    assert_eq!(
        roots.len(),
        1,
        "expected a single root span, got {:?}",
        roots.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
    );
    assert_eq!(roots[0].name, "router_dispatch", "the router is the edge");
    for s in &spans {
        if let Some(parent) = s.parent_span_id {
            assert!(
                spans.iter().any(|p| p.span_id == parent),
                "span '{}' has an unresolved parent {parent:#x}",
                s.name
            );
        }
    }
    // Span ids are unique after the router's dedup (the in-process
    // fleet shares one ring buffer between router and shards).
    let mut ids: Vec<u64> = spans.iter().map(|s| s.span_id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), spans.len(), "duplicate span ids in the stitch");

    // The tree covers every layer the issue names.
    for required in [
        "router_dispatch",
        "router_forward",
        "wire_request",
        "scheduler_queue_wait",
        "scheduler_batch",
        "harvest_step",
        "graph_solve",
        "retrieval_search",
    ] {
        assert!(
            spans.iter().any(|s| s.name == required),
            "missing span '{required}' in {:?}",
            spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
        );
    }
    // The forward span names the shard it went to.
    let forward = spans.iter().find(|s| s.name == "router_forward").unwrap();
    let labels = forward.labels.as_deref().unwrap_or("");
    assert!(
        labels.contains("shard=alpha") || labels.contains("shard=beta"),
        "router_forward labels: {labels:?}"
    );

    // An untraced step stays untraced: no trace id comes back.
    let plain = client.step(id, 1, 40).unwrap();
    assert_eq!(plain.trace_id, None, "untraced step must not allocate");

    router.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The fleet metrics plane: `fleet_metrics` merges every shard's
/// registry with the router's — counters become `shard`-labeled series,
/// histograms merge bucket-wise with finite, ordered percentiles.
#[test]
fn fleet_metrics_merges_shards_under_labels() {
    let dir = test_dir("fleet-metrics");
    let b = bundle();
    let shard_a = start_shard(&b, &dir, "alpha");
    let shard_b = start_shard(&b, &dir, "beta");
    let (_core, mut router) = start_router(&[("alpha", shard_a.addr()), ("beta", shard_b.addr())]);
    let mut client = Client::connect(router.addr()).unwrap();

    // Put some work through the fleet so histograms have samples.
    for i in 0..4u32 {
        let id = client
            .create(i % 8, "RESEARCH", "l2qbal", Some(4), 0)
            .unwrap();
        client.step(id, 1, 40).unwrap();
    }

    let resp = client.fleet_metrics("json").expect("fleet_metrics");
    let body = resp.metrics.expect("merged metrics body");
    let counters = body
        .get("counters")
        .and_then(|v| v.as_object())
        .expect("counters section");
    // Every counter series is shard-labeled; both shards and the router
    // itself appear, and no unlabeled (silently summed) series exists.
    assert!(
        counters.iter().all(|(k, _)| k.contains("shard=\"")),
        "unlabeled counter series in the fleet view"
    );
    for source in ["alpha", "beta", "router"] {
        assert!(
            counters
                .iter()
                .any(|(k, _)| k.contains(&format!("shard=\"{source}\""))),
            "no counter series labeled shard={source}"
        );
    }

    // Histograms merged under their original series names, with sane
    // ordered percentiles from the shared quantile kernel.
    let hist = body
        .get("histograms")
        .and_then(|v| v.get("wire_request_seconds{op=\"step\"}"))
        .expect("merged step-latency histogram");
    let q = |key: &str| hist.get(key).and_then(|v| v.as_f64()).unwrap();
    assert!(hist.get("count").and_then(|v| v.as_u64()).unwrap() > 0);
    assert!(q("p50") > 0.0 && q("p50") <= q("p95") && q("p95") <= q("p99"));

    // The text rendering is Prometheus-shaped for scrapers.
    let text = client
        .fleet_metrics("text")
        .unwrap()
        .metrics_text
        .expect("text body");
    assert!(text.contains("# TYPE"));
    assert!(text.contains("shard=\"alpha\""));

    router.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `join_shard` grows the ring at runtime: the new shard immediately
/// shows in `fleet_status` and starts owning a share of new sessions.
#[test]
fn join_shard_expands_the_fleet_at_runtime() {
    let dir = test_dir("join");
    let b = bundle();
    let shard_a = start_shard(&b, &dir, "alpha");
    let (_core, mut router) = start_router(&[("alpha", shard_a.addr())]);
    let mut client = Client::connect(router.addr()).unwrap();

    let _shard_b = start_shard(&b, &dir, "beta");
    client
        .join_shard("beta", &_shard_b.addr().to_string())
        .unwrap();
    let fleet = client.fleet_status().unwrap().fleet.unwrap();
    assert_eq!(fleet.shards.len(), 2);

    // Duplicate joins are refused.
    let err = client
        .join_shard("beta", &_shard_b.addr().to_string())
        .unwrap_err();
    assert!(err.to_string().contains("already registered"), "got: {err}");

    // With both shards on the ring, a batch of creates reaches beta too.
    let mut served = std::collections::HashSet::new();
    for i in 0..8u32 {
        let mut req = l2q_service::Request::op("create");
        req.entity = Some(i % 8);
        req.aspect = Some("RESEARCH".into());
        req.selector = Some("l2qbal".into());
        req.n_queries = Some(3);
        req.domain_size = Some(0);
        served.insert(client.request(&req).unwrap().shard.unwrap());
    }
    assert!(served.contains("beta"), "joined shard serves new sessions");

    router.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Shard names become metric label values and trace sources, so the wire
/// `join_shard` refuses any name outside `[A-Za-z0-9_.-]+` — here one
/// that would forge an `op` label in the router's text scrape — and
/// leaves the ring untouched, while the names fleets use still join.
#[test]
fn join_shard_refuses_a_name_outside_the_label_charset() {
    let dir = test_dir("join-name");
    let b = bundle();
    let shard = start_shard(&b, &dir, "alpha");
    let addr = shard.addr().to_string();
    let (_core, mut router) = start_router(&[]);
    let mut client = Client::connect(router.addr()).unwrap();

    let shard_names = |client: &mut Client| -> Vec<String> {
        let fleet = client.fleet_status().unwrap().fleet.unwrap();
        fleet.shards.into_iter().map(|s| s.name).collect()
    };
    for bad in ["a\"b,op=\"x", "a b", "alpha}", "\u{3b2}eta"] {
        let err = client.join_shard(bad, &addr).unwrap_err().to_string();
        assert!(err.contains("may only contain"), "{bad:?}: {err}");
    }
    assert!(shard_names(&mut client).is_empty());

    client.join_shard("alpha-1.eu_W", &addr).unwrap();
    assert_eq!(shard_names(&mut client), ["alpha-1.eu_W"]);

    router.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Split-brain failover: **two** routers independently walk their rings
/// for the same dead session and restore it on *different* survivors.
/// Store fencing must pick exactly one owner — the survivor fenced last
/// wins, the deposed one answers a clean `ok:false` wire error naming
/// the fence (never a panic, never a silent `ok:true` whose step the
/// real owner will not see) — and the winner still finishes with the
/// bit-identical reference trajectory.
#[test]
fn concurrent_failover_fences_exactly_one_owner() {
    let dir = test_dir("fence-race");
    let b = bundle();
    let (ref_pages, ref_queries) = reference_trajectory(&b);

    let mut shard_a = start_shard(&b, &dir, "alpha");
    let shard_b = start_shard(&b, &dir, "beta");
    let shard_c = start_shard(&b, &dir, "gamma");
    // Two routers with overlapping-but-different fleet views: both know
    // the eventual victim, each knows a different survivor. Their rings
    // therefore walk the same dead session onto different shards.
    let (_c1, mut router1) = start_router(&[("alpha", shard_a.addr()), ("beta", shard_b.addr())]);
    let (_c2, mut router2) = start_router(&[("alpha", shard_a.addr()), ("gamma", shard_c.addr())]);
    let mut client1 = Client::connect(router1.addr()).unwrap();
    let mut client2 = Client::connect(router2.addr()).unwrap();

    // A session that lives on alpha (router1's ring decides; retry until
    // the hash lands there), stepped twice so durable state exists.
    let mut session = None;
    for _ in 0..32 {
        let id = client1.create(1, "RESEARCH", "l2qbal", Some(6), 3).unwrap();
        if client1.status(id).unwrap().shard.as_deref() == Some("alpha") {
            session = Some(id);
            break;
        }
        client1.close(id).unwrap();
    }
    let id = session.expect("a session landing on alpha within 32 tries");
    client1.step(id, 1, 40).unwrap();
    client1.step(id, 1, 40).unwrap();

    // The owner dies mid-harvest; both routers fail over independently
    // before either learns of the other: beta restores (fences the old
    // generation), then gamma restores (fencing beta's in turn).
    shard_a.shutdown();
    let resp1 = client1.step(id, 1, 40).expect("failover step via router1");
    assert_eq!(
        resp1.shard.as_deref(),
        Some("beta"),
        "router1 lands on beta"
    );
    assert!(resp1.steps_taken.unwrap() >= 3, "no committed step lost");
    let resp2 = client2.step(id, 1, 40).expect("failover step via router2");
    assert_eq!(
        resp2.shard.as_deref(),
        Some("gamma"),
        "router2 lands on gamma"
    );
    assert!(
        resp2.steps_taken.unwrap() > resp1.steps_taken.unwrap(),
        "gamma restored beta's committed step before advancing"
    );

    // Beta is now the deposed half of the split brain: its next commit
    // hits the bumped fence generation and the step comes back as a
    // clean structured error naming the fence — the connection stays
    // usable and nothing panics.
    let fenced_before = counter("service_sessions_fenced_total");
    let err = client1
        .step(id, 1, 40)
        .expect_err("deposed survivor must refuse");
    assert!(
        err.to_string().contains("fenced"),
        "error names the fence: {err}"
    );
    assert!(counter("service_sessions_fenced_total") > fenced_before);
    let err = client1
        .step(id, 1, 40)
        .expect_err("still fenced, still clean");
    assert!(err.to_string().contains("fenced"), "got: {err}");

    // Exactly one owner: the winner finishes on gamma with the exact
    // reference trajectory (two failovers lost and duplicated nothing).
    let last = step_to_completion(&mut client2, id);
    assert_eq!(last.shard.as_deref(), Some("gamma"));
    let snap = client2.snapshot(id).unwrap();
    assert_eq!(snap.pages.unwrap(), ref_pages, "pages bit-identical");
    assert_eq!(snap.queries.unwrap(), ref_queries, "queries bit-identical");

    router1.shutdown();
    router2.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A router core without a served front door (and crucially without the
/// prober, so tests fully control health transitions).
fn bare_core(shards: &[(&str, std::net::SocketAddr)]) -> Arc<RouterCore> {
    let core = Arc::new(RouterCore::new(RouterConfig {
        client: ClientConfig {
            connect_timeout: Duration::from_millis(300),
            ..ClientConfig::default()
        },
        ..RouterConfig::default()
    }));
    for (name, addr) in shards {
        core.add_shard(name, &addr.to_string()).unwrap();
    }
    core
}

fn create_via(core: &RouterCore, entity: u32) -> (u64, String) {
    let mut req = Request::op("create");
    req.entity = Some(entity);
    req.aspect = Some("RESEARCH".into());
    req.selector = Some("l2qbal".into());
    req.n_queries = Some(6);
    req.domain_size = Some(3);
    let resp = core.dispatch(&req);
    assert!(resp.ok, "create failed: {:?}", resp.error);
    (resp.session.unwrap(), resp.shard.unwrap())
}

fn step_via(core: &RouterCore, session: u64) -> Response {
    let mut req = Request::for_session("step", session);
    req.steps = Some(1);
    core.dispatch(&req)
}

fn resident_count(addr: std::net::SocketAddr) -> usize {
    let mut client = Client::connect(addr).unwrap();
    client
        .list_sessions()
        .unwrap()
        .sessions
        .unwrap_or_default()
        .iter()
        .filter(|r| r.health.as_deref() == Some("resident"))
        .count()
}

/// Regression for the stale-placement bug: a `migrate` override whose
/// target shard dies must be dropped, not honored — and in particular a
/// later **revival** of that shard (a supervisor restart) must not
/// resurrect the stale route and fence the session's current owner. The
/// seed router kept overrides until `close`, so the revived target
/// would be preferred again.
#[test]
fn stale_placement_to_a_dead_shard_is_dropped_and_never_resurrects() {
    let dir = test_dir("stale-placement");
    let b = bundle();
    let shard_a = start_shard(&b, &dir, "alpha");
    let shard_b = start_shard(&b, &dir, "beta");
    let core = bare_core(&[("alpha", shard_a.addr()), ("beta", shard_b.addr())]);

    // A session whose natural ring owner is alpha (try a few entities).
    let (session, _) = (0..8)
        .map(|e| create_via(&core, e))
        .find(|(_, shard)| shard == "alpha")
        .expect("some session lands on alpha");

    // Pin it to beta with an explicit migration.
    let mut migrate = Request::for_session("migrate", session);
    migrate.shard = Some("beta".into());
    let resp = core.dispatch(&migrate);
    assert!(resp.ok, "migrate failed: {:?}", resp.error);
    assert_eq!(step_via(&core, session).shard.as_deref(), Some("beta"));

    // Beta dies (no prober on a bare core: the state is ours to set).
    core.shard("beta").unwrap().set_health(Health::Dead);
    let stale_before = counter("router_stale_placements_cleared_total");
    let resp = step_via(&core, session);
    assert!(resp.ok, "step after target death failed: {:?}", resp.error);
    assert_eq!(
        resp.shard.as_deref(),
        Some("alpha"),
        "session must fall back to the ring walk"
    );
    assert!(
        counter("router_stale_placements_cleared_total") > stale_before,
        "stale override was not cleared"
    );

    // Beta comes back: the cleared override must NOT resurrect — the
    // session stays with its current owner instead of bouncing back and
    // fencing alpha.
    core.shard("beta").unwrap().set_health(Health::Healthy);
    for _ in 0..3 {
        let resp = step_via(&core, session);
        assert!(resp.ok, "step after revival failed: {:?}", resp.error);
        assert_eq!(
            resp.shard.as_deref(),
            Some("alpha"),
            "stale placement resurrected after target revival"
        );
    }
}

/// `router_supervisor_restarts_total` is process-global: the tests that
/// respawn children take this lock, so one test's respawns never land in
/// another's counted delta.
static RESTARTS: Mutex<()> = Mutex::new(());

/// Supervisor crash loop: a child that dies instantly is restarted on
/// the capped exponential backoff schedule until the circuit breaker
/// trips, at which point the supervisor gives up and removes the shard
/// from the ring. The restart counter records every respawn.
#[test]
fn supervisor_crash_loop_trips_the_breaker_after_the_backoff_schedule() {
    let _serial = RESTARTS.lock().unwrap_or_else(|e| e.into_inner());
    let core = bare_core(&[]);
    let restarts_before = counter("router_supervisor_restarts_total");

    // The schedule the supervisor must follow (pure, asserted exactly).
    let base = Duration::from_millis(10);
    let cap = Duration::from_millis(40);
    let schedule: Vec<u64> = (1..=4)
        .map(|streak| l2q_router::supervise::respawn_backoff(base, cap, streak).as_millis() as u64)
        .collect();
    assert_eq!(schedule, vec![10, 20, 40, 40]);

    let spec = ShardSpec::parse("crashy=127.0.0.1:1=/bin/false").unwrap();
    let sup = Supervisor::start(
        core.clone(),
        vec![spec],
        SupervisorConfig {
            backoff_base: base,
            backoff_cap: cap,
            breaker_threshold: 3,
            min_uptime: Duration::from_secs(10),
            poll_interval: Duration::from_millis(10),
        },
    )
    .expect("start supervisor");
    assert!(core.shard("crashy").is_some(), "spec registered as a shard");

    // Crash 1 (initial spawn) + 3 respawns within the threshold, then
    // crash 4 trips the breaker. Total wait is bounded by the schedule
    // (~70ms of backoff) plus poll slop.
    let mut row = None;
    for _ in 0..300 {
        std::thread::sleep(Duration::from_millis(10));
        let status = sup.status();
        if status[0].breaker_open {
            row = Some(status[0].clone());
            break;
        }
    }
    let row = row.expect("breaker never opened");
    assert_eq!(row.restarts, 3, "respawns must stop at the threshold");
    assert!(row.pid.is_none(), "no child may survive an open breaker");
    assert_eq!(row.last_exit.as_deref(), Some("exit code 1"));
    assert_eq!(
        counter("router_supervisor_restarts_total") - restarts_before,
        3,
        "restart counter must record each respawn"
    );
    // Giving up removes the shard from the fleet entirely.
    assert!(
        core.shard("crashy").is_none(),
        "breaker must remove the shard from the ring"
    );
    sup.shutdown();
}

/// Supervisor recovery path: killing a long-lived child makes the
/// supervisor respawn it (one restart, breaker closed, fresh pid).
#[test]
fn supervisor_respawns_a_killed_child() {
    let _serial = RESTARTS.lock().unwrap_or_else(|e| e.into_inner());
    let core = bare_core(&[]);
    let spec = ShardSpec::parse("sleeper=127.0.0.1:1=/bin/sleep 600").unwrap();
    let sup = Supervisor::start(
        core.clone(),
        vec![spec],
        SupervisorConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(40),
            breaker_threshold: 5,
            min_uptime: Duration::from_millis(50),
            poll_interval: Duration::from_millis(10),
        },
    )
    .expect("start supervisor");

    let first_pid = sup.status()[0].pid.expect("child running");
    assert!(std::process::Command::new("kill")
        .args(["-9", &first_pid.to_string()])
        .status()
        .expect("kill")
        .success());

    let mut respawned = None;
    for _ in 0..300 {
        std::thread::sleep(Duration::from_millis(10));
        let row = sup.status()[0].clone();
        if row.restarts == 1 {
            if let Some(pid) = row.pid {
                respawned = Some((pid, row));
                break;
            }
        }
    }
    let (new_pid, row) = respawned.expect("child never respawned");
    assert_ne!(new_pid, first_pid, "respawn must be a fresh process");
    assert!(!row.breaker_open, "one kill must not trip the breaker");
    assert_eq!(row.last_exit.as_deref(), Some("killed by signal"));
    sup.shutdown();
}

/// Rebalancer convergence: a fleet skewed entirely onto one shard
/// reaches balance within the per-pass migration budget and then stops
/// — repeated passes on a balanced fleet migrate nothing (no
/// ping-pong), because hysteresis only acts while the hot/cold gap
/// exceeds `rebalance_min_gap`.
#[test]
fn rebalancer_converges_a_skewed_fleet_without_ping_pong() {
    let dir = test_dir("rebalance");
    let b = bundle();
    let shard_a = start_shard(&b, &dir, "alpha");
    let shard_b = start_shard(&b, &dir, "beta");
    let core = bare_core(&[("alpha", shard_a.addr()), ("beta", shard_b.addr())]);

    // Eight live mid-harvest sessions, all pinned onto alpha.
    let migrated_before = counter("router_rebalancer_migrations_total");
    for entity in 0..8u32 {
        let (session, _) = create_via(&core, entity);
        assert!(step_via(&core, session).ok);
        let mut migrate = Request::for_session("migrate", session);
        migrate.shard = Some("alpha".into());
        assert!(core.dispatch(&migrate).ok);
    }
    assert_eq!(resident_count(shard_a.addr()), 8);
    assert_eq!(resident_count(shard_b.addr()), 0);

    // One pass converges: gap 8 → moves until the hot/cold gap is at
    // most min_gap (2), within the budget of 4.
    let moved = core.rebalance_once();
    assert_eq!(moved, 3, "8/0 converges to 5/3 in one pass");
    assert_eq!(resident_count(shard_a.addr()), 5);
    assert_eq!(resident_count(shard_b.addr()), 3);
    assert_eq!(
        counter("router_rebalancer_migrations_total") - migrated_before,
        3
    );

    // A balanced fleet stays put: no ping-pong on further passes.
    for _ in 0..3 {
        assert_eq!(core.rebalance_once(), 0, "balanced fleet must not churn");
    }
    assert_eq!(resident_count(shard_a.addr()), 5);
    assert_eq!(resident_count(shard_b.addr()), 3);

    // Moved sessions keep stepping where they landed.
    let listed = {
        let mut client = Client::connect(shard_b.addr()).unwrap();
        client.list_sessions().unwrap().sessions.unwrap()
    };
    let on_beta: Vec<u64> = listed
        .iter()
        .filter(|r| r.health.as_deref() == Some("resident"))
        .map(|r| r.session)
        .collect();
    for session in on_beta {
        let resp = step_via(&core, session);
        assert!(resp.ok, "rebalanced session step failed: {:?}", resp.error);
        assert_eq!(resp.shard.as_deref(), Some("beta"), "override must stick");
    }
}

/// Rolling restart on an unsupervised in-process fleet: every shard is
/// drained, waited healthy, and undrained in turn; sessions keep
/// stepping afterwards and the drain-duration histogram fills.
#[test]
fn rolling_restart_cycles_every_shard_and_keeps_sessions_stepping() {
    let dir = test_dir("rolling");
    let b = bundle();
    let shard_a = start_shard(&b, &dir, "alpha");
    let shard_b = start_shard(&b, &dir, "beta");
    let core = bare_core(&[("alpha", shard_a.addr()), ("beta", shard_b.addr())]);

    let mut sessions = Vec::new();
    for entity in 0..4u32 {
        let (session, _) = create_via(&core, entity);
        assert!(step_via(&core, session).ok);
        sessions.push(session);
    }

    let restarts_before = counter("router_rolling_restarts_total");
    let drains_before = histogram_count("router_drain_seconds");
    let resp = core.rolling_restart();
    assert!(resp.ok, "rolling restart failed: {:?}", resp.error);
    assert_eq!(resp.state.as_deref(), Some("completed"));
    assert_eq!(resp.restarted, Some(2));
    assert_eq!(
        counter("router_rolling_restarts_total") - restarts_before,
        2
    );
    // One drain pause per cycled shard; other tests in this binary drain
    // too, so this is a floor.
    assert!(
        histogram_count("router_drain_seconds") - drains_before >= 2,
        "drain pauses not recorded for both shards"
    );

    // The whole fleet is routable again and sessions still step.
    for shard in core.all_shards() {
        assert_eq!(
            shard.health(),
            Health::Healthy,
            "{} not rejoined",
            shard.name()
        );
    }
    for session in sessions {
        assert!(
            step_via(&core, session).ok,
            "session {session} lost after restart"
        );
    }

    // Quorum guard: with beta forced dead, taking alpha down would drop
    // the fleet below majority — the restart must refuse to start.
    core.shard("beta").unwrap().set_health(Health::Dead);
    let resp = core.rolling_restart();
    assert!(!resp.ok, "restart below quorum must abort");
    assert_eq!(resp.state.as_deref(), Some("aborted"));
    assert_eq!(resp.restarted, Some(0));
}

/// One response line off a raw socket (empty once the peer has closed).
fn read_raw_line(conn: &TcpStream) -> std::io::Result<String> {
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut line = String::new();
    BufReader::new(conn).read_line(&mut line)?;
    Ok(line)
}

fn raw_ping(conn: &mut TcpStream) -> std::io::Result<String> {
    conn.write_all(b"{\"op\":\"ping\"}\n")?;
    read_raw_line(conn)
}

/// The router's front door admits up to `max_connections`: the next
/// connection gets the `"router at capacity"` refusal with a retry hint
/// and a clean close, a freed slot admits again, and nothing is served
/// after shutdown. No shards are needed: `ping` runs inline.
#[test]
fn router_front_door_refuses_past_the_cap() {
    let core = Arc::new(RouterCore::new(RouterConfig {
        max_connections: 2,
        ..RouterConfig::default()
    }));
    let mut router = RouterServer::spawn(core, "127.0.0.1:0").expect("bind router");
    let addr = router.addr();

    let mut held: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
    for conn in held.iter_mut() {
        let resp = raw_ping(conn).expect("pong");
        assert!(resp.contains("\"ok\":true"), "holder not served: {resp}");
    }

    let extra = TcpStream::connect(addr).unwrap();
    let refusal = read_raw_line(&extra).expect("refusal line");
    assert!(
        refusal.contains("router at capacity"),
        "expected capacity refusal: {refusal}"
    );
    assert!(
        refusal.contains("\"retry_after_ms\":"),
        "no retry hint: {refusal}"
    );
    let mut rest = Vec::new();
    assert!(
        (&extra).read_to_end(&mut rest).is_ok() && rest.is_empty(),
        "refused connection not closed cleanly"
    );

    // The reactor releases the slot once it reads the holder's FIN.
    drop(held.pop());
    let admitted = (0..50).any(|_| {
        std::thread::sleep(Duration::from_millis(20));
        let mut conn = TcpStream::connect(addr).unwrap();
        raw_ping(&mut conn).is_ok_and(|resp| resp.contains("\"ok\":true"))
    });
    assert!(admitted, "freed slot never re-admitted a connection");

    router.shutdown();
    let served = TcpStream::connect(addr)
        .is_ok_and(|mut conn| raw_ping(&mut conn).is_ok_and(|resp| !resp.is_empty()));
    assert!(!served, "a connection was served after shutdown");
}

/// A wedged shard's address: connections complete in the kernel's
/// accept backlog and no request is ever answered.
fn wedged_listener() -> TcpListener {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    listener
}

/// Take every connection waiting on a [`wedged_listener`] into `held`,
/// which keeps it open and unanswered.
fn hold_waiting(listener: &TcpListener, held: &mut Vec<TcpStream>) {
    while let Ok((conn, _)) = listener.accept() {
        held.push(conn);
    }
}

/// A relay for the one connection a bare core keeps pooled to
/// `upstream`. It passes requests and replies through unchanged, and on
/// join (after the core is dropped) returns every request line it saw.
fn recording_relay(
    upstream: std::net::SocketAddr,
) -> (std::net::SocketAddr, std::thread::JoinHandle<Vec<String>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let relay = std::thread::spawn(move || {
        let (router, _) = listener.accept().unwrap();
        let mut shard = TcpStream::connect(upstream).unwrap();
        let mut replies = BufReader::new(shard.try_clone().unwrap());
        let mut lines = Vec::new();
        for line in BufReader::new(&router).lines().map_while(Result::ok) {
            writeln!(shard, "{line}").unwrap();
            let mut reply = String::new();
            replies.read_line(&mut reply).unwrap();
            (&router).write_all(reply.as_bytes()).unwrap();
            lines.push(line);
        }
        lines
    });
    (addr, relay)
}

/// The fleet-wide reads (`stats`, `fleet_metrics`, `trace` by id,
/// `list_sessions` and `fleet_status`) share one fan-out. It must skip a
/// `Dead` shard without connecting to it (this one never answers, so
/// asking it would stall the op for the 2 s response timeout) and must
/// still ask a `Draining` shard, whose resident sessions, metrics and
/// spans belong to the fleet until the drain moves them.
#[test]
fn fleet_reads_skip_dead_shards_and_include_draining_ones() {
    let dir = test_dir("fan-out");
    let b = bundle();
    let shard_a = start_shard(&b, &dir, "alpha");
    let shard_b = start_shard(&b, &dir, "beta");
    let (beta_addr, relay) = recording_relay(shard_b.addr());
    let ghost = wedged_listener();
    let core = Arc::new(RouterCore::new(RouterConfig {
        client: ClientConfig {
            connect_timeout: Duration::from_millis(300),
            response_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        },
        ..RouterConfig::default()
    }));
    core.add_shard("alpha", &shard_a.addr().to_string())
        .unwrap();
    core.add_shard("beta", &beta_addr.to_string()).unwrap();
    // Registering the ghost waits out one response timeout.
    core.add_shard("ghost", &ghost.local_addr().unwrap().to_string())
        .unwrap();
    core.shard("ghost").unwrap().set_health(Health::Dead);
    let mut held = Vec::new();
    hold_waiting(&ghost, &mut held);
    let registered = held.len();

    // One session, resident on beta, with a traced step behind it.
    let (session, _) = create_via(&core, 1);
    let mut migrate = Request::for_session("migrate", session);
    migrate.shard = Some("beta".into());
    assert!(core.dispatch(&migrate).ok, "migrate to beta");
    let mut traced = Request::for_session("step", session);
    traced.steps = Some(1);
    traced.trace = Some(true);
    let stepped = core.dispatch(&traced);
    assert_eq!(stepped.shard.as_deref(), Some("beta"));
    let trace_id = stepped.trace_id.expect("traced step echoes a trace id");
    core.shard("beta").unwrap().set_health(Health::Draining);

    let timed = |req: Request| {
        let started = std::time::Instant::now();
        let resp = core.dispatch(&req);
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_secs(2),
            "{} took {waited:?}",
            req.op
        );
        assert!(resp.ok, "{} failed: {:?}", req.op, resp.error);
        resp
    };

    let stats = timed(Request::op("stats")).stats.unwrap();
    assert_eq!(stats.active_sessions, 1, "beta's resident session counted");
    assert_eq!(stats.workers, 4, "2 workers on each live shard");

    let mut fleet_metrics = Request::op("fleet_metrics");
    fleet_metrics.format = Some("json".into());
    let body = timed(fleet_metrics).metrics.unwrap();
    let counters = body.get("counters").and_then(|v| v.as_object()).unwrap();
    for source in ["alpha", "beta"] {
        assert!(
            counters
                .iter()
                .any(|(k, _)| k.contains(&format!("shard=\"{source}\""))),
            "no counter series from {source}"
        );
    }
    assert!(!counters.iter().any(|(k, _)| k.contains("shard=\"ghost\"")));

    let mut trace = Request::op("trace");
    trace.trace_id = Some(trace_id);
    trace.mode = Some("by_id".into());
    let spans = timed(trace).spans.unwrap();
    assert!(spans.iter().any(|s| s.name == "harvest_step"));

    let listed = timed(Request::op("list_sessions")).sessions.unwrap();
    let row = listed.iter().find(|r| r.session == session).unwrap();
    assert_eq!(row.health.as_deref(), Some("resident"), "beta's row wins");

    let fleet = timed(Request::op("fleet_status")).fleet.unwrap();
    assert_eq!(fleet.vnodes, 64);
    let row = |name: &str| fleet.shards.iter().find(|s| s.name == name).unwrap();
    assert_eq!(row("alpha").active_sessions, Some(0));
    assert_eq!(row("beta").health, "draining");
    assert_eq!(row("beta").active_sessions, Some(1));
    assert_eq!(row("ghost").health, "dead");
    assert_eq!(row("ghost").active_sessions, None);

    hold_waiting(&ghost, &mut held);
    assert_eq!(held.len(), registered, "the dead shard was contacted");
    // In-process, every span sits in one buffer, so only the relay shows
    // that the trace lookup reached the draining shard.
    drop(core);
    let lines = relay.join().expect("relay");
    assert!(
        lines.iter().any(|l| l.contains("\"op\":\"trace\"")),
        "trace never reached the draining shard"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The supervisor pings a respawned child outside its `children` lock.
/// A child that accepts connections and never answers holds each ping
/// for the client's response timeout (2 s here); `status()`, and with it
/// `supervisor_status`, rolling restarts and crash detection for every
/// other child, must not wait that out.
#[test]
fn supervisor_status_does_not_wait_on_a_wedged_child() {
    let child = wedged_listener();
    let core = Arc::new(RouterCore::new(RouterConfig {
        client: ClientConfig {
            connect_timeout: Duration::from_millis(300),
            response_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        },
        ..RouterConfig::default()
    }));
    let addr = child.local_addr().unwrap();
    let spec = ShardSpec::parse(&format!("wedged={addr}=/bin/sleep 600")).unwrap();
    // Registration's own request waits out one response timeout; the
    // monitor starts after it.
    let sup = Supervisor::start(
        core,
        vec![spec],
        SupervisorConfig {
            poll_interval: Duration::from_millis(10),
            ..SupervisorConfig::default()
        },
    )
    .expect("start supervisor");

    // The second connection is the monitor's recovery ping, now waiting.
    let mut held = Vec::new();
    for _ in 0..300 {
        hold_waiting(&child, &mut held);
        if held.len() >= 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(held.len() >= 2, "the monitor never pinged the child");

    let started = std::time::Instant::now();
    let status = sup.status();
    let waited = started.elapsed();
    assert_eq!(status.len(), 1);
    assert!(
        waited < Duration::from_secs(1),
        "status() waited {waited:?} behind a wedged child's ping"
    );
    sup.shutdown();
}
