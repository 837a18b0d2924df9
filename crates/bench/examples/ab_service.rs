//! Within-machine A/B of the selection hot path through the serving
//! layer: the same 8-session fleet (the `service_throughput/fleet_of_8`
//! shape) driven under the cold-serial configuration, the incremental +
//! warm-start path without pruning, and the full default path. Absolute medians from different machines or sessions are not
//! comparable; this driver exists so before/after numbers always come
//! from one process on one box.
//!
//! Run with `cargo run -p l2q-bench --release --example ab_service`.

use l2q_aspect::RelevanceOracle;
use l2q_core::L2qConfig;
use l2q_corpus::{generate, researchers_domain, CorpusConfig, EntityId};
use l2q_service::{
    BundleConfig, Scheduler, SelectorKind, ServiceMetrics, ServingBundle, SessionManager,
    SessionSpec,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn bundle(cfg: L2qConfig) -> Arc<ServingBundle> {
    let corpus = Arc::new(
        generate(
            &researchers_domain(),
            &CorpusConfig {
                n_entities: 24,
                pages_per_entity: 16,
                ..CorpusConfig::default()
            },
        )
        .unwrap(),
    );
    let oracle = RelevanceOracle::from_truth(&corpus);
    Arc::new(ServingBundle::with_oracle(
        corpus,
        Vec::new(),
        oracle,
        cfg,
        BundleConfig::default(),
    ))
}

/// One fleet pass: 8 concurrent sessions stepped round-robin to completion.
fn drive(manager: &SessionManager, scheduler: &Scheduler) {
    let aspect = manager.bundle().corpus.aspect_by_name("RESEARCH").unwrap();
    let mut open: Vec<u64> = (0..8)
        .map(|i| {
            manager
                .create(&SessionSpec {
                    entity: EntityId(3 + i),
                    aspect,
                    selector: SelectorKind::L2qbal,
                    n_queries: Some(4),
                    domain_size: 3,
                })
                .unwrap()
                .id
        })
        .collect();
    while !open.is_empty() {
        let mut still = Vec::new();
        for id in open {
            let r = scheduler.run(manager.get(id).unwrap(), 2).unwrap();
            if r.status.finished.is_none() {
                still.push(id);
            } else {
                manager.close(id).unwrap();
            }
        }
        open = still;
    }
}

fn run(label: &str, cfg: L2qConfig) {
    let metrics = Arc::new(ServiceMetrics::default());
    let manager = SessionManager::new(bundle(cfg), Duration::from_secs(300), metrics.clone());
    let scheduler = Scheduler::new(1, 64, metrics);
    drive(&manager, &scheduler); // warmup: fills the retrieval/domain caches
    let mut ts = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        drive(&manager, &scheduler);
        ts.push(t0.elapsed().as_millis());
    }
    ts.sort_unstable();
    println!("{label}: median {} ms (all: {ts:?})", ts[1]);
}

fn main() {
    run("cold_serial", L2qConfig::default().cold_serial());
    run(
        "incremental+warm (unpruned)",
        L2qConfig::default().with_prune(false),
    );
    run("default (all on)", L2qConfig::default());
}
