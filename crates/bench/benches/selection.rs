//! Selection-path benchmark: end-to-end query selection cost — the
//! Fig. 14 "Selection" column as a microbenchmark — with comparison
//! groups for the incremental/warm/pruned hot path:
//!
//! * `select_*` — one selection by a fresh selector, i.e. a build from
//!   an empty candidate table (a session's first step).
//! * `selection_step/{cold,incremental,pruned}` — median ns per harvest
//!   step under the cold serial path (the selector restarted before
//!   every step: an empty-table build and cold walks, no pruning), the
//!   carried table with warm starts and context walks solved to
//!   convergence, and the bound-and-prune path (certified early-stopped
//!   walk solves over the carried table; the default configuration).
//! * `context_walks` — the three context walks of one selection, solved
//!   to convergence by the fused solver.
//! * exact solver sweeps per solve, cold vs warm-started, and the share
//!   of each that stops at the sweep cap (`WalkConfig::max_iters`).
//! * query classes per query vertex over every fused solve of the run
//!   (`graph_fused_classes_total` / `graph_fused_queries_total`).
//!
//! This bench owns its `main` (the vendored criterion harness doesn't
//! expose medians programmatically) and always writes a canonical
//! `BENCH_selection.json` at the repo root so future changes have a perf
//! trajectory to compare against. Flags: `--quick` shrinks the corpus and
//! sample counts for CI; `--emit-metrics` embeds the full observability
//! registry dump (the CI gate asserts `graph_solve_sweeps` activity and
//! warm ≤ cold sweep medians from it).

use l2q_aspect::RelevanceOracle;
use l2q_core::{
    learn_domain, DomainModel, EntityPhase, EntityPhaseState, HarvestState, Harvester, L2qConfig,
    L2qSelector, Query, QuerySelector, SelectionInput, StepOutcome,
};
use l2q_corpus::spec::DomainSpec;
use l2q_corpus::{
    cars_domain, generate, researchers_domain, Corpus, CorpusConfig, EntityId, PageId,
};
use l2q_retrieval::SearchEngine;
use std::time::Instant;

struct Fixture {
    corpus: std::sync::Arc<Corpus>,
    oracle: RelevanceOracle,
    cfg: L2qConfig,
}

fn fixture(quick: bool) -> Fixture {
    let corpus = std::sync::Arc::new(
        generate(
            &researchers_domain(),
            &CorpusConfig {
                n_entities: if quick { 16 } else { 40 },
                ..CorpusConfig::default()
            },
        )
        .unwrap(),
    );
    let oracle = RelevanceOracle::from_truth(&corpus);
    Fixture {
        corpus,
        oracle,
        cfg: L2qConfig::default(),
    }
}

fn med_of(results: &[(String, u128, usize)], name: &str) -> u128 {
    results
        .iter()
        .find(|(n, _, _)| n == name)
        .map(|&(_, med, _)| med)
        .unwrap_or(0)
}

fn median_ns(mut samples: Vec<u128>) -> u128 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn human(ns: u128) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Time `routine` `samples` times (after one warmup call) and report the
/// median in criterion-like one-line form.
fn bench<F: FnMut()>(name: &str, samples: usize, mut routine: F) -> (String, u128, usize) {
    routine(); // warmup
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        routine();
        times.push(t0.elapsed().as_nanos());
    }
    let n = times.len();
    let med = median_ns(times);
    println!("{name:<50} time: [{} median, {n} samples]", human(med));
    (name.to_string(), med, n)
}

/// Drive full harvest sessions under `cfg` and return the wall-clock of
/// every *advancing* step (selection + fire + bookkeeping). The median is
/// dominated by warm steps when the budget allows several iterations.
/// With `restarted`, each step runs on a fresh selector that gets the
/// previous Φ, as after a restore: an empty-table build, every walk cold.
fn step_times(
    f: &Fixture,
    domain: &DomainModel,
    cfg: L2qConfig,
    restarted: bool,
    sessions: usize,
) -> Vec<u128> {
    let engine = SearchEngine::with_defaults(f.corpus.clone());
    let harvester = Harvester {
        corpus: &f.corpus,
        engine: &engine,
        oracle: &f.oracle,
        domain: Some(domain),
        cfg,
    };
    let aspect = f.corpus.aspect_by_name("RESEARCH").unwrap();
    let entity = EntityId(f.corpus.entity_ids().count() as u32 - 2);
    let mut out = Vec::new();
    for _ in 0..sessions {
        let mut sel = L2qSelector::l2qbal();
        sel.reset();
        let mut state = HarvestState::begin(&harvester, entity, aspect);
        loop {
            if restarted {
                let phi = sel.collective_state();
                sel = L2qSelector::l2qbal();
                if let Some(phi) = phi {
                    sel.restore_collective(phi);
                }
            }
            let t0 = Instant::now();
            let outcome = state.step(&harvester, &mut sel);
            let dt = t0.elapsed().as_nanos();
            match outcome {
                StepOutcome::Advanced { .. } => out.push(dt),
                StepOutcome::Finished(_) => break,
            }
        }
    }
    out
}

/// Exact solver sweeps per walk solve while the page set grows. Both
/// sides build over the *same* page prefixes: one from a fresh table each
/// time (every solve cold) and one through a persistent table (warm
/// starts from the previous build's solves) — so cold and warm sweeps
/// are compared at matched graph sizes. The first build (no previous
/// fixpoint to start from, so cold on both sides) is excluded. Returns
/// `(cold, warm)` sweep counts.
fn sweep_counts(f: &Fixture, cfg: &L2qConfig) -> (Vec<u64>, Vec<u64>) {
    let aspect = f.corpus.aspect_by_name("RESEARCH").unwrap();
    let entity = EntityId(f.corpus.entity_ids().count() as u32 - 2);
    let all_pages: Vec<PageId> = f.corpus.pages_of(entity).iter().map(|p| p.id).collect();
    let seed = Query::new(f.corpus.seed_query(entity));
    let fired = vec![seed];

    let mut state_warm = EntityPhaseState::new();
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for (i, k) in (2..=all_pages.len()).enumerate() {
        let pages = &all_pages[..k];
        let mut fresh = EntityPhaseState::new();
        for (state, into) in [(&mut fresh, &mut cold), (&mut state_warm, &mut warm)] {
            let candidates = l2q_core::selector::page_candidates(&f.corpus, pages, &fired, cfg);
            let phase = EntityPhase::build_incremental(
                &f.corpus,
                aspect,
                pages,
                &f.oracle,
                &candidates,
                &fired,
                None,
                true,
                cfg,
                state,
            );
            let _ = phase.precision_with(Some(state));
            let _ = phase.recall_with(Some(state));
            if i > 0 {
                for s in state.last_sweeps().iter().flatten() {
                    into.push(*s as u64);
                }
            }
        }
    }
    (cold, warm)
}

fn median_u64(mut v: Vec<u64>) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    v[v.len() / 2]
}

/// Share of `sweeps` that stopped at the sweep cap `max_iters`.
fn maxed_share(sweeps: &[u64], max_iters: usize) -> f64 {
    let maxed = sweeps.iter().filter(|&&s| s >= max_iters as u64).count();
    maxed as f64 / sweeps.len().max(1) as f64
}

/// Bit-identity spot check for the JSON artifact: the pruned and
/// unpruned paths must fire exactly the same query sequence on a small
/// harvest of `spec`. (The exhaustive version lives in
/// `crates/core/tests/determinism.rs`; this one feeds the CI gate.)
fn pruned_trajectory_matches(spec: &DomainSpec) -> bool {
    let corpus = std::sync::Arc::new(generate(spec, &CorpusConfig::tiny()).unwrap());
    let engine = SearchEngine::with_defaults(corpus.clone());
    let oracle = RelevanceOracle::from_truth(&corpus);
    let run = |cfg: L2qConfig| -> Vec<String> {
        let domain_entities: Vec<EntityId> = corpus.entity_ids().take(4).collect();
        let domain = learn_domain(&corpus, &domain_entities, &oracle, &cfg);
        let harvester = Harvester {
            corpus: &corpus,
            engine: &engine,
            oracle: &oracle,
            domain: Some(&domain),
            cfg,
        };
        let mut fired = Vec::new();
        for aspect in corpus.aspects() {
            for mut sel in [
                L2qSelector::l2qp(),
                L2qSelector::l2qr(),
                L2qSelector::l2qbal(),
            ] {
                let rec = harvester.run(EntityId(6), aspect, &mut sel);
                fired.extend(rec.queries().map(|q| format!("{}/{q:?}", sel.name())));
            }
        }
        fired
    };
    run(L2qConfig::default().with_prune(true)) == run(L2qConfig::default().with_prune(false))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let emit_metrics = args.iter().any(|a| a == "--emit-metrics");
    let sessions = if quick { 3 } else { 10 };
    let samples = if quick { 5 } else { 20 };

    let f = fixture(quick);
    let engine = SearchEngine::with_defaults(f.corpus.clone());
    let n_domain = if quick { 8 } else { 20 };
    let domain_entities: Vec<EntityId> = f.corpus.entity_ids().take(n_domain).collect();
    let domain = learn_domain(&f.corpus, &domain_entities, &f.oracle, &f.cfg);

    let entity = EntityId(f.corpus.entity_ids().count() as u32 - 2);
    let aspect = f.corpus.aspect_by_name("RESEARCH").unwrap();
    let seed = Query::new(f.corpus.seed_query(entity));
    let gathered: Vec<PageId> = engine.search(entity, f.corpus.seed_query(entity));
    let relevant: Vec<bool> = gathered
        .iter()
        .map(|&p| f.oracle.is_relevant(aspect, p))
        .collect();
    let fired = vec![seed];
    let page_candidates = l2q_core::selector::page_candidates(&f.corpus, &gathered, &fired, &f.cfg);

    let mut results: Vec<(String, u128, usize)> = Vec::new();

    results.push(bench("candidate_enumeration", samples, || {
        let _ = l2q_core::selector::page_candidates(&f.corpus, &gathered, &fired, &f.cfg);
    }));

    // Single-shot selections by a fresh selector, so each builds from an
    // empty table (a session's first step). Pruning is pinned off so
    // these names keep measuring the unpruned solve.
    let unpruned_cfg = f.cfg.with_prune(false);
    let input = SelectionInput {
        corpus: &f.corpus,
        entity,
        aspect,
        gathered: &gathered,
        relevant: &relevant,
        fired: &fired,
        page_candidates: &page_candidates,
        domain: Some(&domain),
        oracle: &f.oracle,
        engine: &engine,
        cfg: &unpruned_cfg,
    };
    results.push(bench("select_l2qp", samples, || {
        let mut sel = L2qSelector::l2qp();
        let _ = sel.select(&input);
    }));
    results.push(bench("select_l2qbal", samples, || {
        let mut sel = L2qSelector::l2qbal();
        let _ = sel.select(&input);
    }));
    results.push(bench("select_p_plus_t", samples, || {
        let mut sel = L2qSelector::precision_templates();
        let _ = sel.select(&input);
    }));

    // The same one-shot selections through the bound-and-prune path.
    let input_pruned = SelectionInput {
        cfg: &f.cfg,
        ..input
    };
    results.push(bench("select_l2qp_pruned", samples, || {
        let mut sel = L2qSelector::l2qp();
        let _ = sel.select(&input_pruned);
    }));
    results.push(bench("select_l2qbal_pruned", samples, || {
        let mut sel = L2qSelector::l2qbal();
        let _ = sel.select(&input_pruned);
    }));

    // Cold vs incremental vs pruned per-step medians. Each variant
    // drives complete sessions; per-step times are collected
    // individually so the median lands on a representative (warm) step.
    let budget = L2qConfig::default().with_n_queries(6);
    // Counter deltas around the pruned group give its exact-solve
    // fraction (everything before it pins pruning off).
    let reg = l2q_obs::global();
    let (c_pruned, c_exact) = (
        reg.counter("selection_candidates_pruned_total"),
        reg.counter("selection_exact_solves_total"),
    );
    let (pruned0, exact0) = (c_pruned.get(), c_exact.get());
    for (name, cfg, restarted) in [
        ("selection_step/cold", budget.with_prune(false), true),
        (
            "selection_step/incremental",
            budget.with_prune(false),
            false,
        ),
        // Bound-and-prune over the carried table — the apples-to-apples
        // comparison for `selection_step/incremental`.
        ("selection_step/pruned", budget.with_prune(true), false),
    ] {
        let times = step_times(&f, &domain, cfg, restarted, sessions);
        let n = times.len();
        let med = median_ns(times);
        println!("{name:<50} time: [{} median, {n} steps]", human(med));
        results.push((name.to_string(), med, n));
    }
    let d_exact = c_exact.get() - exact0;
    let d_pruned = c_pruned.get() - pruned0;
    let exact_solve_fraction = if d_exact + d_pruned == 0 {
        1.0
    } else {
        d_exact as f64 / (d_exact + d_pruned) as f64
    };
    println!("selection_step/pruned exact_solve_fraction        {exact_solve_fraction:.4}");

    // The context walks of one frozen phase, solved to convergence.
    let phase_candidates = {
        let mut sel_pool = page_candidates.clone();
        sel_pool.extend(domain.frequent_queries().cloned());
        sel_pool.sort();
        sel_pool.dedup();
        sel_pool
    };
    let phase = EntityPhase::build(
        &f.corpus,
        aspect,
        &gathered,
        &f.oracle,
        &phase_candidates,
        &[],
        Some(&domain),
        true,
        &f.cfg,
    );
    results.push(bench("context_walks", samples, || {
        let _ = phase.context_walks_certified(None, |_| false);
    }));

    // Exact sweeps per solve, cold vs warm-started.
    let (cold_sweeps, warm_sweeps) = sweep_counts(&f, &f.cfg);
    let max_iters = f.cfg.walk.max_iters;
    let cold_maxed = maxed_share(&cold_sweeps, max_iters);
    let warm_maxed = maxed_share(&warm_sweeps, max_iters);
    let cold_med = median_u64(cold_sweeps);
    let warm_med = median_u64(warm_sweeps);
    println!("sweeps_per_solve/cold                              median: {cold_med}, at the {max_iters} cap: {cold_maxed:.3}");
    println!("sweeps_per_solve/warm                              median: {warm_med}, at the {max_iters} cap: {warm_maxed:.3}");

    // The bit-identity contract, checked end to end on both domains.
    let trajectory_match_researchers = pruned_trajectory_matches(&researchers_domain());
    let trajectory_match_cars = pruned_trajectory_matches(&cars_domain());
    println!("pruned_trajectory_match/researchers                {trajectory_match_researchers}");
    println!("pruned_trajectory_match/cars                       {trajectory_match_cars}");
    let classes = reg.counter("graph_fused_classes_total").get();
    let queries = reg.counter("graph_fused_queries_total").get();
    println!("fused_solve classes/queries                        {classes}/{queries}");

    // Canonical perf-trajectory artifact at the repo root.
    use serde_json::Value;
    let result_entries: Vec<(String, Value)> = results
        .iter()
        .map(|(name, med, n)| {
            (
                name.clone(),
                Value::Object(vec![
                    ("median_ns".into(), Value::Num(*med as f64)),
                    ("samples".into(), Value::Num(*n as f64)),
                ]),
            )
        })
        .collect();
    let mut doc = vec![
        ("bench".to_string(), Value::Str("selection".into())),
        ("quick".to_string(), Value::Bool(quick)),
        ("results".to_string(), Value::Object(result_entries)),
        (
            "sweeps".to_string(),
            Value::Object(vec![
                ("cold_median".into(), Value::Num(cold_med as f64)),
                ("warm_median".into(), Value::Num(warm_med as f64)),
                ("max_iters".into(), Value::Num(max_iters as f64)),
                ("cold_maxed_share".into(), Value::Num(cold_maxed)),
                ("warm_maxed_share".into(), Value::Num(warm_maxed)),
            ]),
        ),
        (
            "pruning".to_string(),
            Value::Object(vec![
                (
                    "pruned_median_ns".into(),
                    Value::Num(med_of(&results, "selection_step/pruned") as f64),
                ),
                (
                    "incremental_median_ns".into(),
                    Value::Num(med_of(&results, "selection_step/incremental") as f64),
                ),
                (
                    "exact_solve_fraction".into(),
                    Value::Num(exact_solve_fraction),
                ),
                (
                    "trajectory_match_researchers".into(),
                    Value::Bool(trajectory_match_researchers),
                ),
                (
                    "trajectory_match_cars".into(),
                    Value::Bool(trajectory_match_cars),
                ),
            ]),
        ),
    ];
    if emit_metrics {
        let rendered = l2q_obs::global().snapshot().render_json();
        doc.push((
            "metrics".to_string(),
            serde_json::parse_value(&rendered).unwrap_or(Value::Null),
        ));
    }
    let doc = Value::Object(doc);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_selection.json");
    std::fs::write(out, serde_json::to_string_pretty(&doc).unwrap()).expect("write bench json");
    println!("wrote {out}");
}
