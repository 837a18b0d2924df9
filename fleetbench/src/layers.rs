//! Per-layer attribution for the traced run. Each layer is measured from
//! outside: by timing calls into its public entry points (the service
//! and store probe below, and the wrapped selector and search backend of
//! the reference harvests), or by the change over the traced rounds in
//! the registry counters and histograms the program already exports.

use crate::drive::{Op, Tally};
use crate::fleet::CoreTimes;
use crate::plan::{Spec, SELECTORS};
use crate::stats::{coverage, ratio, self_times, Delta};
use l2q_corpus::EntityId;
use l2q_service::session::lock_recover;
use l2q_service::{
    Scheduler, SelectorKind, ServiceMetrics, ServingBundle, SessionManager, SessionSpec,
};
use l2q_store::{SessionStore, StoreConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric: name, unit, whether higher is better, and the
/// end-to-end metric it should move on which workload.
pub const LAYER_METRICS: [(&str, &str, bool, &str); 34] = [
    (
        "router.step_self_ms",
        "ms",
        false,
        "step_p50_ms on session_churn; flat on steady_harvest",
    ),
    (
        "router.migrate_ms",
        "ms",
        false,
        "migrate_p50_ms on migration_storm",
    ),
    (
        "service.queue_wait_p50_ms",
        "ms",
        false,
        "step_p99_ms on every workload; ~0 while the closed loops stay below the workers' capacity",
    ),
    (
        "service.queue_wait_p99_ms",
        "ms",
        false,
        "step_p99_ms on every workload; ~0 while the closed loops stay below the workers' capacity",
    ),
    (
        "service.batch_ms",
        "ms",
        false,
        "step_p50_ms on steady_harvest",
    ),
    (
        "service.create_ms",
        "ms",
        false,
        "create_p50_ms and sessions_per_s on session_churn",
    ),
    (
        "service.close_ms",
        "ms",
        false,
        "sessions_per_s on session_churn",
    ),
    (
        "service.restore_ms",
        "ms",
        false,
        "migrate_p50_ms on migration_storm",
    ),
    (
        "service.retrieval_cache_hit_ratio",
        "ratio",
        true,
        "create_p50_ms on session_churn",
    ),
    (
        "service.domain_cache_misses",
        "count",
        false,
        "setup_s and create_p99_ms",
    ),
    ("core.step_ms", "ms", false, "step_p50_ms on steady_harvest"),
    (
        "core.select_ms",
        "ms",
        false,
        "step_p50_ms and steps_per_s on steady_harvest",
    ),
    (
        "core.enumerate_ms",
        "ms",
        false,
        "step_p50_ms on steady_harvest",
    ),
    (
        "core.candidates_per_step",
        "count",
        false,
        "step_p50_ms on steady_harvest",
    ),
    (
        "core.pruned_fraction",
        "ratio",
        true,
        "step_p50_ms on steady_harvest",
    ),
    (
        "core.exact_solve_fraction",
        "ratio",
        false,
        "step_p50_ms on steady_harvest",
    ),
    (
        "core.phase_reuse_ratio",
        "ratio",
        true,
        "high on steady_harvest, low on session_churn; resume_step_p50_ms on migration_storm",
    ),
    ("core.domain_learn_ms", "ms", false, "setup_s"),
    (
        "graph.solve_p50_ms",
        "ms",
        false,
        "step_p50_ms on steady_harvest; resume_step_p50_ms on migration_storm",
    ),
    (
        "graph.solve_p99_ms",
        "ms",
        false,
        "step_p99_ms on steady_harvest",
    ),
    (
        "graph.solves_per_step",
        "count",
        false,
        "step_p50_ms on steady_harvest; resume_step_p50_ms on migration_storm",
    ),
    (
        "graph.sweeps_per_solve",
        "count",
        false,
        "step_p50_ms on steady_harvest",
    ),
    (
        "retrieval.search_us",
        "us",
        false,
        "create_p50_ms on session_churn; flat elsewhere",
    ),
    (
        "retrieval.queries_per_step",
        "count",
        false,
        "create_p50_ms on session_churn; flat elsewhere",
    ),
    (
        "store.append_ms",
        "ms",
        false,
        "step_p99_ms and sessions_per_s on session_churn",
    ),
    (
        "store.wal_bytes_per_step",
        "bytes",
        false,
        "step_p99_ms and sessions_per_s on session_churn",
    ),
    (
        "store.fsyncs_per_step",
        "count",
        false,
        "step_p99_ms and sessions_per_s on session_churn",
    ),
    (
        "store.fsync_ms",
        "ms",
        false,
        "step_p99_ms and sessions_per_s on session_churn",
    ),
    (
        "store.snapshot_ms",
        "ms",
        false,
        "migrate_p50_ms on migration_storm",
    ),
    (
        "store.load_ms",
        "ms",
        false,
        "migrate_p50_ms on migration_storm",
    ),
    (
        "store.replayed_steps",
        "count",
        false,
        "migrate_p50_ms on migration_storm",
    ),
    ("corpus.generate_s", "s", false, "setup_s"),
    (
        "obs.trace_overhead_pct",
        "%",
        false,
        "none: bounds the cost of tracing",
    ),
    (
        "obs.coverage",
        "ratio",
        true,
        "none: unattributed time is reported, not hidden",
    ),
];

/// Mean times of the service and store entry points, in ms.
#[derive(Clone, Debug, Default)]
pub struct ProbeTimes {
    pub create_ms: f64,
    pub close_ms: f64,
    pub restore_ms: f64,
    pub snapshot_ms: f64,
    pub load_ms: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Drive `SessionManager::{create, restore, close}`, `Scheduler::run`
/// and `SessionStore::{snapshot, load}` directly, once per spec, over a
/// store of its own in `dir`.
pub fn service_probe(bundle: &Arc<ServingBundle>, dir: &Path, specs: &[Spec]) -> ProbeTimes {
    let store = Arc::new(SessionStore::open(dir, StoreConfig::default()).expect("probe store"));
    let metrics = Arc::new(ServiceMetrics::default());
    let manager = SessionManager::with_store(
        bundle.clone(),
        Duration::from_secs(300),
        metrics.clone(),
        Some(store.clone()),
    );
    let mut scheduler = Scheduler::new(1, 8, metrics);
    let mut t = ProbeTimes::default();
    for (k, spec) in specs.iter().enumerate() {
        let session = SessionSpec {
            entity: EntityId(spec.entity),
            aspect: bundle.corpus.aspects().nth(spec.aspect).expect("aspect"),
            selector: SelectorKind::parse(SELECTORS[spec.selector]).expect("selector"),
            n_queries: Some(spec.n_queries as usize),
            domain_size: spec.domain_size as usize,
        };
        let t0 = Instant::now();
        let id = manager.create(&session).expect("probe create").id;
        t.create_ms += ms_since(t0);
        let slot = manager.get(id).expect("probe session");
        scheduler.run(slot.clone(), 2).expect("probe steps");
        let portable = lock_recover(&slot).export();
        drop(slot);
        let copy = 1_000_000 + k as u64;
        let t0 = Instant::now();
        store.snapshot(copy, &portable).expect("probe snapshot");
        t.snapshot_ms += ms_since(t0);
        let t0 = Instant::now();
        store.load(copy).expect("probe load").expect("stored");
        t.load_ms += ms_since(t0);
        store.remove(copy).expect("probe remove");
        manager.detach(id).expect("probe detach");
        let t0 = Instant::now();
        manager.restore(id).expect("probe restore");
        t.restore_ms += ms_since(t0);
        let t0 = Instant::now();
        manager.close(id).expect("probe close");
        t.close_ms += ms_since(t0);
    }
    scheduler.shutdown();
    let n = specs.len().max(1) as f64;
    ProbeTimes {
        create_ms: t.create_ms / n,
        close_ms: t.close_ms / n,
        restore_ms: t.restore_ms / n,
        snapshot_ms: t.snapshot_ms / n,
        load_ms: t.load_ms / n,
    }
}

/// Ops the shards serve for the generator (not the router's probes).
fn generator_wire_op(labels: &str) -> bool {
    !matches!(labels, "op=ping" | "op=stats" | "op=metrics" | "op=trace")
}

/// The latency budget of the traced rounds: each layer's self time, in
/// seconds summed over every request, with the client's unattributed
/// rest first.
pub fn budget(delta: &Delta, traced: &Tally) -> Vec<(String, f64)> {
    let gen_ops = |l: &str| {
        ["create", "step", "migrate", "snapshot", "close"]
            .iter()
            .any(|op| l == format!("op={op}"))
    };
    let nodes = [
        ("client_unattributed", traced.rtt_s, None),
        (
            "router",
            delta.histogram_where("router_op_seconds", gen_ops).sum,
            Some(0),
        ),
        (
            "service.queue_wait",
            delta.histogram("scheduler_queue_wait_seconds").sum,
            Some(1),
        ),
        (
            "service.wire",
            delta
                .histogram_where("wire_request_seconds", generator_wire_op)
                .sum,
            Some(1),
        ),
        (
            "service.batch",
            delta.histogram("scheduler_batch_seconds").sum,
            Some(3),
        ),
        (
            "core.step",
            delta.histogram("harvest_step_seconds").sum,
            Some(4),
        ),
        (
            "core.select",
            delta.histogram("harvest_select_seconds").sum,
            Some(5),
        ),
        (
            "graph.solve",
            delta.histogram("graph_solve_seconds").sum,
            Some(6),
        ),
        (
            "retrieval.search",
            delta.histogram("harvest_search_seconds").sum,
            Some(5),
        ),
        (
            "store.fsync",
            delta.histogram("store_fsync_seconds").sum,
            Some(4),
        ),
    ];
    self_times(&nodes)
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    pub delta: &'a Delta,
    pub traced: &'a Tally,
    pub core: &'a CoreTimes,
    pub probe: &'a ProbeTimes,
    pub generate_s: f64,
    pub domain_misses: f64,
    pub trace_overhead_pct: f64,
}

/// Every per-layer metric, in [`LAYER_METRICS`] order.
pub fn per_layer(x: &LayerInputs<'_>) -> Vec<(&'static str, &'static str, f64)> {
    let d = x.delta;
    let steps = d.counter("harvest_steps_total");
    let step_rtt_s: f64 = x.traced.lat[Op::Step as usize]
        .iter()
        .filter(|v| v.is_finite())
        .sum::<f64>()
        / 1e3;
    let step_wire = d.histogram_where("wire_request_seconds", |l| l == "op=step");
    let queue = d.histogram("scheduler_queue_wait_seconds");
    let batch = d.histogram("scheduler_batch_seconds");
    let step = d.histogram("harvest_step_seconds");
    let candidates = d.histogram("harvest_candidates");
    let solves = d.histogram("graph_solve_seconds");
    let sweeps = d.histogram("graph_solve_sweeps");
    let fsync = d.histogram("store_fsync_seconds");
    let hits = d.counter("retrieval_cache_hits_total");
    let misses = d.counter("retrieval_cache_misses_total");
    // The selector splits each step's query candidates into pruned ones
    // and ones whose utilities needed the exact solve.
    let pruned = d.counter("selection_candidates_pruned_total");
    let exact = d.counter("selection_exact_solves_total");
    let reuses = d.counter("entity_phase_incremental_reuses_total");
    let rebuilds = d.counter("entity_phase_rebuilds_total");
    let c = x.core;
    let budget = budget(d, x.traced);
    let attributed: Vec<(String, f64)> = budget[1..].to_vec();
    let values = [
        ratio(step_rtt_s - step_wire.sum, step_wire.count as f64) * 1e3,
        d.histogram_where("router_op_seconds", |l| l == "op=migrate")
            .mean()
            * 1e3,
        queue.quantile(0.5) * 1e3,
        queue.quantile(0.99) * 1e3,
        batch.mean() * 1e3,
        x.probe.create_ms,
        x.probe.close_ms,
        x.probe.restore_ms,
        ratio(hits, hits + misses),
        x.domain_misses,
        ratio(c.step_s, c.steps as f64) * 1e3,
        ratio(c.select_s, c.steps as f64) * 1e3,
        ratio(c.step_s - c.select_s - c.search_s, c.steps as f64) * 1e3,
        candidates.mean(),
        ratio(pruned, pruned + exact),
        ratio(exact, pruned + exact),
        ratio(reuses, reuses + rebuilds),
        ratio(c.domain_learn_s, c.domain_learns as f64) * 1e3,
        solves.quantile(0.5) * 1e3,
        solves.quantile(0.99) * 1e3,
        ratio(solves.count as f64, steps),
        sweeps.mean(),
        ratio(c.search_s, c.searches as f64) * 1e6,
        ratio(c.searches as f64, c.steps as f64),
        ratio(batch.sum - step.sum, batch.count as f64) * 1e3,
        ratio(d.counter("store_wal_bytes_total"), steps),
        ratio(fsync.count as f64, steps),
        fsync.mean() * 1e3,
        x.probe.snapshot_ms,
        x.probe.load_ms,
        d.counter("store_replayed_steps_total"),
        x.generate_s,
        x.trace_overhead_pct,
        coverage(&attributed, x.traced.rtt_s),
    ];
    LAYER_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), v)| (name, unit, v))
        .collect()
}
