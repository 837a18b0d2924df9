//! Regression gate for the incremental/warm/pruned selection path: with
//! every speed knob on (the default), a harvest must make exactly the
//! same decisions as the from-scratch, cold-start, unpruned path — same
//! fired-query sequence, same gathered pages, same per-iteration gains —
//! across both corpus domains and all three full L2Q strategies.
//!
//! Selections are argmaxes over solved utilities: the incremental build is
//! bit-identical by construction (the graph is assembled in the cold
//! build's edge order), and warm starts converge to the same fixpoint
//! within the solver tolerance — so the argmax (with its lexicographic
//! tie-break) lands on the same query. Bound-and-prune only stops a solve
//! early when certified score intervals prove the winner, falling back to
//! the exact solve otherwise. This test is the end-to-end proof. Both
//! sides solve the context walks with the same fused kernel; its
//! equality with per-walk solo solves is pinned in `l2q-graph`.

use l2q_aspect::RelevanceOracle;
use l2q_core::{learn_domain, HarvestRecord, Harvester, L2qConfig, L2qSelector, QuerySelector};
use l2q_corpus::spec::DomainSpec;
use l2q_corpus::{cars_domain, generate, researchers_domain, CorpusConfig, EntityId};
use l2q_retrieval::SearchEngine;
use std::sync::Arc;

fn harvest_all(spec: &DomainSpec, cfg: L2qConfig) -> Vec<(String, HarvestRecord)> {
    let corpus = Arc::new(generate(spec, &CorpusConfig::tiny()).unwrap());
    let engine = SearchEngine::with_defaults(corpus.clone());
    let oracle = RelevanceOracle::from_truth(&corpus);
    let domain_entities: Vec<EntityId> = corpus.entity_ids().take(4).collect();
    let domain = learn_domain(&corpus, &domain_entities, &oracle, &cfg);
    let harvester = Harvester {
        corpus: &corpus,
        engine: &engine,
        oracle: &oracle,
        domain: Some(&domain),
        cfg,
    };

    let mut out = Vec::new();
    for aspect in corpus.aspects() {
        for mut sel in [
            L2qSelector::l2qp(),
            L2qSelector::l2qr(),
            L2qSelector::l2qbal(),
        ] {
            // A non-domain entity, like the paper's train/test split.
            let rec = harvester.run(EntityId(6), aspect, &mut sel);
            out.push((format!("{}/{:?}", sel.name(), aspect), rec));
        }
    }
    out
}

fn assert_identical_runs(spec: &DomainSpec, domain_name: &str) {
    let fast = harvest_all(spec, L2qConfig::default());
    let cold = harvest_all(spec, L2qConfig::default().cold_serial());
    assert_eq!(fast.len(), cold.len());
    for ((label, f), (_, c)) in fast.iter().zip(&cold) {
        let fq: Vec<_> = f.queries().collect();
        let cq: Vec<_> = c.queries().collect();
        assert_eq!(fq, cq, "{domain_name}/{label}: fired queries diverged");
        assert_eq!(
            f.gathered, c.gathered,
            "{domain_name}/{label}: gathered pages diverged"
        );
        assert_eq!(f.seed_results, c.seed_results);
        assert_eq!(f.iterations.len(), c.iterations.len());
        for (fi, ci) in f.iterations.iter().zip(&c.iterations) {
            assert_eq!(
                fi.new_pages, ci.new_pages,
                "{domain_name}/{label}: per-step page gains diverged"
            );
            assert_eq!(fi.gathered_after, ci.gathered_after);
        }
    }
}

#[test]
fn researchers_selections_match_the_cold_serial_path() {
    assert_identical_runs(&researchers_domain(), "researchers");
}

#[test]
fn cars_selections_match_the_cold_serial_path() {
    assert_identical_runs(&cars_domain(), "cars");
}

/// The knobs are independent: each one alone must also preserve the
/// outcome (catches a knob silently depending on another).
#[test]
fn each_speed_knob_is_individually_lossless() {
    let spec = researchers_domain();
    let base = harvest_all(&spec, L2qConfig::default().cold_serial());
    for cfg in [
        L2qConfig::default()
            .cold_serial()
            .with_incremental_phase(true),
        L2qConfig::default()
            .cold_serial()
            .with_incremental_phase(true)
            .with_warm_start(true),
        // Bound-and-prune alone: truncated-but-certified walk solves on
        // top of cold from-scratch builds.
        L2qConfig::default().cold_serial().with_prune(true),
        // Pruning over incremental warm-started builds: every knob on.
        L2qConfig::default()
            .cold_serial()
            .with_incremental_phase(true)
            .with_warm_start(true)
            .with_prune(true),
    ] {
        let runs = harvest_all(&spec, cfg);
        for ((label, a), (_, b)) in runs.iter().zip(&base) {
            let qa: Vec<_> = a.queries().collect();
            let qb: Vec<_> = b.queries().collect();
            assert_eq!(qa, qb, "{label}: fired queries diverged");
            assert_eq!(a.gathered, b.gathered, "{label}: gathered diverged");
        }
    }
}
