//! The system under test, spawned in-process: a store-backed pair of
//! `l2q-serve` shards behind one `l2q-router`, sharing one data
//! directory, plus the in-process reference harvests the fleet's output
//! is checked against.

use crate::plan::{Spec, SELECTORS};
use l2q_aspect::RelevanceOracle;
use l2q_core::{learn_domain, DomainModel, HarvestState, Harvester, L2qConfig, L2qSelector};
use l2q_core::{QuerySelector, SelectionInput};
use l2q_corpus::{generate, researchers_domain, CorpusConfig, EntityId, PageId};
use l2q_retrieval::{SearchBackend, SearchEngine};
use l2q_router::{RouterConfig, RouterCore, RouterHandle, RouterServer};
use l2q_service::{BundleConfig, HarvestServer, ServerConfig, ServerHandle, ServingBundle};
use l2q_store::{SessionStore, StoreConfig};
use l2q_text::Sym;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The corpus every workload harvests: paper-like ~50 pages per entity.
/// It is fixed, not seeded, so seeds vary the requests and not the data.
pub fn corpus_config() -> CorpusConfig {
    CorpusConfig {
        n_entities: 24,
        pages_per_entity: 50,
        seed: 42,
        ..CorpusConfig::default()
    }
}

pub const SHARDS: [&str; 2] = ["alpha", "beta"];
pub const SHARD_WORKERS: usize = 2;

pub struct Fleet {
    pub bundle: Arc<ServingBundle>,
    pub addr: std::net::SocketAddr,
    shards: Vec<ServerHandle>,
    router: RouterHandle,
}

/// Set-up time of one fleet and its parts, in seconds.
pub struct SetupTimes {
    pub total: f64,
    pub generate: f64,
}

/// The domain peers of a session: the first `domain_size` entities other
/// than the target, sorted (the server's domain-cache key).
pub fn peers(entity: u32, domain_size: u32, n_entities: u32) -> Vec<EntityId> {
    (0..n_entities)
        .filter(|&e| e != entity)
        .take(domain_size as usize)
        .map(EntityId)
        .collect()
}

impl Fleet {
    /// Generate the corpus, build the bundle, spawn the shards and the
    /// router, and learn every domain model the workloads use.
    pub fn spawn(dir: &Path, domain_size: u32) -> (Fleet, SetupTimes) {
        let t0 = Instant::now();
        let corpus = Arc::new(generate(&researchers_domain(), &corpus_config()).expect("corpus"));
        let generate_s = t0.elapsed().as_secs_f64();
        let oracle = RelevanceOracle::from_truth(&corpus);
        let bundle = Arc::new(ServingBundle::with_oracle(
            corpus,
            Vec::new(),
            oracle,
            L2qConfig::default(),
            BundleConfig::default(),
        ));
        std::fs::create_dir_all(dir).expect("create fleet data dir");
        let shards: Vec<ServerHandle> = SHARDS
            .iter()
            .map(|name| {
                let store =
                    Arc::new(SessionStore::open(dir, StoreConfig::default()).expect("open store"));
                HarvestServer::spawn_with_store(
                    bundle.clone(),
                    ServerConfig {
                        workers: SHARD_WORKERS,
                        queue_cap: 64,
                        shard_id: Some((*name).to_owned()),
                        ..ServerConfig::default()
                    },
                    Some(store),
                    "127.0.0.1:0",
                )
                .expect("bind shard")
            })
            .collect();
        let core = Arc::new(RouterCore::new(RouterConfig::default()));
        for (name, shard) in SHARDS.iter().zip(&shards) {
            core.add_shard(name, &shard.addr().to_string())
                .expect("add shard");
        }
        let router = RouterServer::spawn(core, "127.0.0.1:0").expect("bind router");
        let n = bundle.corpus.entities.len() as u32;
        for e in 0..n {
            bundle.domain_model(&peers(e, domain_size, n));
        }
        let fleet = Fleet {
            addr: router.addr(),
            bundle,
            shards,
            router,
        };
        let total = t0.elapsed().as_secs_f64();
        (
            fleet,
            SetupTimes {
                total,
                generate: generate_s,
            },
        )
    }

    /// Stop the router and the shards and wait for their threads.
    pub fn shutdown(mut self) {
        self.router.shutdown();
        for s in &mut self.shards {
            s.shutdown();
        }
    }
}

/// A harvest as the wire reports it: fired queries and gathered pages.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trajectory {
    pub queries: Vec<String>,
    pub pages: Vec<u32>,
}

/// Time spent in each core layer while computing references.
#[derive(Clone, Debug, Default)]
pub struct CoreTimes {
    pub steps: u64,
    pub step_s: f64,
    pub select_s: f64,
    pub searches: u64,
    pub search_s: f64,
    pub domain_learns: u64,
    pub domain_learn_s: f64,
}

impl CoreTimes {
    fn add(&mut self, o: &CoreTimes) {
        self.steps += o.steps;
        self.step_s += o.step_s;
        self.select_s += o.select_s;
        self.searches += o.searches;
        self.search_s += o.search_s;
        self.domain_learns += o.domain_learns;
        self.domain_learn_s += o.domain_learn_s;
    }
}

/// Times every `select` of the selector it wraps.
struct TimedSelector {
    inner: L2qSelector,
    seconds: f64,
}

impl QuerySelector for TimedSelector {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
    fn select(&mut self, input: &SelectionInput<'_>) -> Option<l2q_core::Query> {
        let t = Instant::now();
        let q = self.inner.select(input);
        self.seconds += t.elapsed().as_secs_f64();
        q
    }
    fn collective_state(&self) -> Option<l2q_core::CollectiveState> {
        self.inner.collective_state()
    }
    fn restore_collective(&mut self, state: l2q_core::CollectiveState) {
        self.inner.restore_collective(state)
    }
}

/// Times every `search` of the engine it wraps.
struct TimedSearch<'a> {
    engine: &'a SearchEngine,
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl SearchBackend for TimedSearch<'_> {
    fn search(&self, entity: EntityId, query: &[Sym]) -> Vec<PageId> {
        let t = Instant::now();
        let r = self.engine.search(entity, query);
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        r
    }
}

fn selector(i: usize) -> L2qSelector {
    match SELECTORS[i] {
        "l2qp" => L2qSelector::l2qp(),
        "l2qr" => L2qSelector::l2qr(),
        _ => L2qSelector::l2qbal(),
    }
}

/// Reference harvests computed in-process with a fresh `HarvestState`,
/// the uncached engine and freshly learned domain models — nothing the
/// fleet's caches could have touched. `depths` maps each spec to the
/// number of steps to run; a spec's trajectory at any depth is a prefix
/// of its full harvest. Work is split over `threads`.
pub fn references(
    bundle: &ServingBundle,
    depths: &BTreeMap<Spec, usize>,
    threads: usize,
) -> (BTreeMap<Spec, Trajectory>, CoreTimes) {
    let corpus = &bundle.corpus;
    let n = corpus.entities.len() as u32;
    // Learn each distinct domain once, timing `learn_domain`.
    let mut domains: BTreeMap<Vec<EntityId>, DomainModel> = BTreeMap::new();
    let mut times = CoreTimes::default();
    for spec in depths.keys() {
        let key = peers(spec.entity, spec.domain_size, n);
        if let std::collections::btree_map::Entry::Vacant(slot) = domains.entry(key) {
            let t = Instant::now();
            let model = learn_domain(corpus, slot.key(), &bundle.oracle, &bundle.cfg);
            times.domain_learn_s += t.elapsed().as_secs_f64();
            times.domain_learns += 1;
            slot.insert(model);
        }
    }
    let work: Vec<(&Spec, usize)> = depths.iter().map(|(s, &d)| (s, d)).collect();
    let results: Vec<(Vec<(Spec, Trajectory)>, CoreTimes)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|t| {
                let work = &work;
                let domains = &domains;
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut times = CoreTimes::default();
                    for &(spec, depth) in work.iter().skip(t).step_by(threads.max(1)) {
                        let domain = &domains[&peers(spec.entity, spec.domain_size, n)];
                        out.push((
                            spec.clone(),
                            harvest(bundle, domain, spec, depth, &mut times),
                        ));
                    }
                    (out, times)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread"))
            .collect()
    });
    let mut trajectories = BTreeMap::new();
    for (out, t) in results {
        trajectories.extend(out);
        times.add(&t);
    }
    (trajectories, times)
}

fn harvest(
    bundle: &ServingBundle,
    domain: &DomainModel,
    spec: &Spec,
    depth: usize,
    times: &mut CoreTimes,
) -> Trajectory {
    let corpus = &bundle.corpus;
    let h = Harvester {
        corpus,
        engine: &bundle.engine,
        oracle: &bundle.oracle,
        domain: (spec.domain_size > 0).then_some(domain),
        cfg: bundle.cfg.with_n_queries(spec.n_queries as usize),
    };
    let aspect = corpus.aspects().nth(spec.aspect).expect("aspect index");
    let backend = TimedSearch {
        engine: &bundle.engine,
        calls: AtomicU64::new(0),
        nanos: AtomicU64::new(0),
    };
    let mut sel = TimedSelector {
        inner: selector(spec.selector),
        seconds: 0.0,
    };
    sel.reset();
    let mut state = HarvestState::begin_with(&h, EntityId(spec.entity), aspect, &backend);
    let (seed_calls, seed_nanos) = (
        backend.calls.load(Ordering::Relaxed),
        backend.nanos.load(Ordering::Relaxed),
    );
    while state.steps_taken() < depth && !state.is_finished() {
        let t = Instant::now();
        let before = state.steps_taken();
        state.step_with(&h, &mut sel, &backend);
        if state.steps_taken() > before {
            times.steps += 1;
            times.step_s += t.elapsed().as_secs_f64();
        }
    }
    times.select_s += sel.seconds;
    times.searches += backend.calls.load(Ordering::Relaxed) - seed_calls;
    times.search_s += (backend.nanos.load(Ordering::Relaxed) - seed_nanos) as f64 * 1e-9;
    Trajectory {
        queries: state
            .iterations()
            .iter()
            .map(|it| it.query.render(&corpus.symbols))
            .collect(),
        pages: state.gathered().iter().map(|p| p.0).collect(),
    }
}

/// Whether a wire trajectory matches its reference: equal when the
/// harvest completed, a prefix of it when the run ended mid-harvest.
pub fn matches(wire: &Trajectory, reference: &Trajectory, completed: bool) -> bool {
    if completed {
        return wire == reference;
    }
    let q = wire.queries.len();
    q <= reference.queries.len()
        && wire.queries[..] == reference.queries[..q]
        && wire.pages.len() <= reference.pages.len()
        && wire.pages[..] == reference.pages[..wire.pages.len()]
}

/// A fresh directory under the run's scratch root.
pub fn fresh_dir(root: &Path, name: &str) -> PathBuf {
    let dir = root.join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}
