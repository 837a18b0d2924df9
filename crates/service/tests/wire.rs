//! End-to-end wire-protocol tests: a real `HarvestServer` on an
//! ephemeral port, driven by concurrent TCP clients, checked for
//! bit-identical outcomes against single-threaded in-process harvests.

use l2q_aspect::RelevanceOracle;
use l2q_core::{learn_domain, Harvester, L2qConfig, L2qSelector};
use l2q_corpus::{generate, researchers_domain, Corpus, CorpusConfig, EntityId};
use l2q_retrieval::SearchEngine;
use l2q_service::{
    BundleConfig, Client, HarvestServer, Request, ServerConfig, ServerHandle, ServingBundle,
};
use std::sync::Arc;
use std::time::Duration;

const N_QUERIES: u32 = 4;
const DOMAIN_SIZE: u32 = 3;

fn corpus() -> Arc<Corpus> {
    Arc::new(
        generate(
            &researchers_domain(),
            &CorpusConfig {
                n_entities: 16,
                pages_per_entity: 12,
                seed: 7,
                ..CorpusConfig::tiny()
            },
        )
        .unwrap(),
    )
}

fn start_server(corpus: Arc<Corpus>) -> ServerHandle {
    let oracle = RelevanceOracle::from_truth(&corpus);
    let bundle = Arc::new(ServingBundle::with_oracle(
        corpus,
        Vec::new(),
        oracle,
        L2qConfig::default(),
        BundleConfig::default(),
    ));
    HarvestServer::spawn(
        bundle,
        ServerConfig {
            workers: 2,
            queue_cap: 32,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind ephemeral port")
}

/// Drive one session over the wire to completion; returns its harvested
/// pages and fired queries.
fn harvest_over_wire(
    addr: std::net::SocketAddr,
    entity: u32,
    aspect: &str,
) -> (Vec<u32>, Vec<String>) {
    let mut client = Client::connect(addr).expect("connect");
    let session = client
        .create(entity, aspect, "l2qbal", Some(N_QUERIES), DOMAIN_SIZE)
        .expect("create session");
    loop {
        let resp = client.step(session, 2, 200).expect("step");
        if resp.state.as_deref() != Some("running") {
            break;
        }
    }
    let snap = client.snapshot(session).expect("snapshot");
    client.close(session).expect("close");
    (snap.pages.unwrap(), snap.queries.unwrap())
}

/// The same harvest, single-threaded and in-process, from scratch.
fn harvest_in_process(corpus: &Arc<Corpus>, entity: u32, aspect: &str) -> Vec<u32> {
    let oracle = RelevanceOracle::from_truth(corpus);
    let engine = SearchEngine::with_defaults(corpus.clone());
    let target = EntityId(entity);
    let peers: Vec<EntityId> = corpus
        .entity_ids()
        .filter(|&e| e != target)
        .take(DOMAIN_SIZE as usize)
        .collect();
    // The server solves the domain phase with the bundle's default config
    // and applies the per-session budget only to the harvest itself.
    let domain = learn_domain(corpus, &peers, &oracle, &L2qConfig::default());
    let harvester = Harvester {
        corpus,
        engine: &engine,
        oracle: &oracle,
        domain: Some(&domain),
        cfg: L2qConfig::default().with_n_queries(N_QUERIES as usize),
    };
    let mut sel = L2qSelector::l2qbal();
    let rec = harvester.run(target, corpus.aspect_by_name(aspect).unwrap(), &mut sel);
    rec.gathered.iter().map(|p| p.0).collect()
}

#[test]
fn concurrent_wire_sessions_match_in_process_harvests_exactly() {
    let corpus = corpus();
    let mut handle = start_server(corpus.clone());
    let addr = handle.addr();

    // 8 concurrent sessions: entities 3..11, so every one shares the
    // same domain peer set {0,1,2} and alternating aspects force both
    // fresh and repeated retrieval work.
    let aspects = ["RESEARCH", "AWARD"];
    let specs: Vec<(u32, &str)> = (3u32..11).map(|e| (e, aspects[e as usize % 2])).collect();

    let wire_results: Vec<(u32, &str, Vec<u32>, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = specs
            .iter()
            .map(|&(entity, aspect)| {
                s.spawn(move || {
                    let (pages, queries) = harvest_over_wire(addr, entity, aspect);
                    (entity, aspect, pages, queries)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (entity, aspect, pages, queries) in &wire_results {
        assert!(!pages.is_empty(), "entity {entity}: no pages harvested");
        assert!(
            queries.len() <= N_QUERIES as usize,
            "entity {entity}: budget exceeded"
        );
        let reference = harvest_in_process(&corpus, *entity, aspect);
        assert_eq!(
            pages, &reference,
            "entity {entity}/{aspect}: concurrent serving changed the harvest outcome"
        );
    }

    // Service-wide stats after the fleet: every session created and
    // closed, real work executed, and the domain solve shared 8 ways.
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats").stats.unwrap();
    assert_eq!(stats.sessions_created, 8);
    assert_eq!(stats.sessions_closed, 8);
    assert_eq!(stats.active_sessions, 0);
    assert!(stats.steps_executed > 0);
    assert!(stats.queries_fired >= 8, "at least one seed per session");
    assert_eq!(stats.workers, 2);
    // All 8 sessions share one domain peer set. Concurrent first
    // requests may each solve (the solve runs outside the cache lock),
    // so hit/miss split is timing-dependent — but every lookup is
    // accounted for and at least one solve happened.
    assert_eq!(stats.domain_cache_hits + stats.domain_cache_misses, 8);
    assert!(stats.domain_cache_misses >= 1);

    // A repeat of an already-served harvest re-fires identical queries:
    // they must all land in the retrieval cache.
    let misses_before = stats.retrieval_cache_misses;
    let (entity, aspect) = specs[0];
    let (pages, _) = harvest_over_wire(addr, entity, aspect);
    assert_eq!(pages, wire_results[0].2, "repeat harvest must match");
    let stats = client.stats().expect("stats").stats.unwrap();
    assert_eq!(
        stats.retrieval_cache_misses, misses_before,
        "repeat harvest must be served entirely from the retrieval cache"
    );
    assert!(stats.retrieval_cache_hits > 0);
    assert!(stats.retrieval_cache_hit_rate > 0.0);

    handle.shutdown();
}

#[test]
fn bad_requests_get_structured_errors_not_disconnects() {
    let corpus = corpus();
    let mut handle = start_server(corpus);
    let mut client = Client::connect(handle.addr()).expect("connect");

    client.request(&Request::op("ping")).expect("ping");

    let err = client
        .create(9999, "RESEARCH", "l2qbal", None, 0)
        .unwrap_err();
    assert!(err.to_string().contains("unknown entity"));
    let err = client.create(0, "NOPE", "l2qbal", None, 0).unwrap_err();
    assert!(err.to_string().contains("unknown aspect"));
    let err = client.create(0, "RESEARCH", "bogus", None, 0).unwrap_err();
    assert!(err.to_string().contains("unknown selector"));
    let err = client.status(424242).unwrap_err();
    assert!(err.to_string().contains("no such session"));
    let err = client.request(&Request::op("frobnicate")).unwrap_err();
    assert!(err.to_string().contains("unknown op"));
    // A router-chosen session id at the top of the range: the local
    // allocator could not move past it.
    let mut create = Request::op("create");
    create.session = Some(u64::MAX);
    create.entity = Some(0);
    create.aspect = Some("RESEARCH".into());
    let err = client.request(&create).unwrap_err();
    assert!(err.to_string().contains("session id"), "{err}");
    // The query budget is a stopping rule, so the largest one the wire
    // takes is a valid create: nothing may be sized from it.
    client
        .create(0, "RESEARCH", "l2qbal", Some(u32::MAX), 0)
        .expect("create with the largest budget");

    // The connection survived all six refusals, and the server the
    // largest budget.
    client.request(&Request::op("ping")).expect("ping again");
    handle.shutdown();
}

#[test]
fn client_shutdown_op_stops_the_server() {
    let corpus = corpus();
    let handle = start_server(corpus);
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.shutdown_server().expect("shutdown");
    // `wait` is what `l2q-serve` blocks in: it returns once the op has
    // stopped the reactor and the service threads are joined.
    let (done, waited) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.wait();
        done.send(()).ok();
    });
    waited
        .recv_timeout(Duration::from_secs(10))
        .expect("server did not stop after the shutdown op");
}
