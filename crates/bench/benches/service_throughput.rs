//! Criterion bench: serving throughput — harvest steps/sec through the
//! scheduler's worker pool as the pool grows.
//!
//! Each iteration creates a fresh batch of sessions over the shared
//! bundle and drives every one to completion through the bounded queue,
//! so the measured time covers session creation, scheduling, selector
//! iterations, and cache traffic — the serving hot path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use l2q_aspect::RelevanceOracle;
use l2q_core::L2qConfig;
use l2q_corpus::{generate, researchers_domain, CorpusConfig, EntityId};
use l2q_service::{
    BundleConfig, Scheduler, SelectorKind, ServiceMetrics, ServingBundle, SessionManager,
    SessionSpec,
};
use std::sync::Arc;
use std::time::Duration;

const SESSIONS: u32 = 8;
const N_QUERIES: usize = 4;

fn bundle() -> Arc<ServingBundle> {
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
        L2qConfig::default(),
        BundleConfig::default(),
    ))
}

/// Create `SESSIONS` sessions and run all of them to completion through
/// the scheduler, interleaving 2-step batches round-robin the way the
/// wire front end does.
fn drive_fleet(manager: &SessionManager, scheduler: &Scheduler) {
    let aspect = manager.bundle().corpus.aspect_by_name("RESEARCH").unwrap();
    let ids: Vec<u64> = (0..SESSIONS)
        .map(|i| {
            manager
                .create(&SessionSpec {
                    entity: EntityId(3 + i),
                    aspect,
                    selector: SelectorKind::L2qbal,
                    n_queries: Some(N_QUERIES),
                    domain_size: 3,
                })
                .expect("create session")
                .id
        })
        .collect();
    let mut open = ids;
    while !open.is_empty() {
        let mut still_open = Vec::with_capacity(open.len());
        for id in open {
            let report = scheduler
                .run(manager.get(id).expect("session"), 2)
                .expect("step batch");
            if report.status.finished.is_none() {
                still_open.push(id);
            } else {
                manager.close(id).expect("close");
            }
        }
        open = still_open;
    }
}

fn bench_steps_vs_workers(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);
    for workers in [1usize, 2, 4] {
        // Fresh bundle per pool size: each measurement starts cold and
        // warms its own caches, so pool sizes see identical workloads.
        let bundle = bundle();
        let metrics = Arc::new(ServiceMetrics::default());
        let manager = SessionManager::new(bundle, Duration::from_secs(300), metrics.clone());
        let scheduler = Scheduler::new(workers, 64, metrics);
        group.bench_with_input(BenchmarkId::new("fleet_of_8", workers), &workers, |b, _| {
            b.iter(|| drive_fleet(&manager, &scheduler))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_steps_vs_workers);
criterion_main!(benches);
