//! Regression gate for the default selection path: an L2Q selector that
//! carries its candidate table from step to step, warm-starts every walk
//! from the previous solve and prunes the context solve must make exactly
//! the same decisions as the reference — the selector restarted before
//! every step (`common::Restarted`: an empty table and cold walks at
//! every build) with pruning off — same fired-query sequence, same
//! gathered pages, same per-iteration gains — across both corpus domains
//! and all three full L2Q strategies.
//!
//! Selections are argmaxes over solved utilities: a carried build is
//! bit-identical to an empty-table one by construction (the graph is
//! assembled in the from-scratch build's edge order), and warm starts
//! converge to the same fixpoint within the solver tolerance — so the
//! argmax (with its lexicographic tie-break) lands on the same query.
//! Bound-and-prune only stops a solve early when certified score
//! intervals prove the winner, falling back to the exact solve otherwise.
//! This test is the end-to-end proof. Both sides solve the context walks
//! with the same fused kernel; its equality with per-walk solo solves is
//! pinned in `l2q-graph`.

mod common;

use common::Restarted;
use l2q_aspect::RelevanceOracle;
use l2q_core::selector::page_candidates;
use l2q_core::{
    learn_domain, pages_queries, CollectiveState, EntityPhase, EntityPhaseState, HarvestRecord,
    HarvestState, Harvester, L2qConfig, L2qSelector, Query, QuerySelector, SelectionInput,
};
use l2q_corpus::spec::DomainSpec;
use l2q_corpus::{cars_domain, generate, researchers_domain, CorpusConfig, EntityId};
use l2q_retrieval::SearchEngine;
use std::collections::HashSet;
use std::sync::Arc;

/// Harvest entity 6 for every aspect with L2QP, L2QR and L2QBAL, each
/// selector carried through the harvest or, with `restarted`, restarted
/// before every step.
fn harvest_all(spec: &DomainSpec, cfg: L2qConfig, restarted: bool) -> Vec<(String, HarvestRecord)> {
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
        for make in [L2qSelector::l2qp, L2qSelector::l2qr, L2qSelector::l2qbal] {
            let mut sel: Box<dyn QuerySelector> = if restarted {
                Box::new(Restarted::new(make))
            } else {
                Box::new(make())
            };
            // A non-domain entity, like the paper's train/test split.
            let rec = harvester.run(EntityId(6), aspect, sel.as_mut());
            out.push((format!("{}/{:?}", sel.name(), aspect), rec));
        }
    }
    out
}

/// The cold serial path, the reference: restarted selectors (every build
/// from an empty table, every walk cold), no pruning.
fn reference(spec: &DomainSpec) -> Vec<(String, HarvestRecord)> {
    harvest_all(spec, L2qConfig::default().with_prune(false), true)
}

fn assert_identical_runs(spec: &DomainSpec, domain_name: &str) {
    let fast = harvest_all(spec, L2qConfig::default(), false);
    let cold = reference(spec);
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

/// Carrying the table and pruning are independent: each one alone must
/// also preserve the outcome (catches one silently depending on the
/// other).
#[test]
fn each_speed_knob_is_individually_lossless() {
    let spec = researchers_domain();
    let base = reference(&spec);
    let (pruned, unpruned) = (L2qConfig::default(), L2qConfig::default().with_prune(false));
    for (name, cfg, restarted) in [
        // Truncated-but-certified walk solves on empty-table cold builds.
        ("restarted, pruned", pruned, true),
        // Carried tables and warm starts, context walks to convergence.
        ("carried, unpruned", unpruned, false),
        // Both: the default path.
        ("carried, pruned", pruned, false),
    ] {
        let runs = harvest_all(&spec, cfg, restarted);
        for ((label, a), (_, b)) in runs.iter().zip(&base) {
            let qa: Vec<_> = a.queries().collect();
            let qb: Vec<_> = b.queries().collect();
            assert_eq!(qa, qb, "{name} {label}: fired queries diverged");
            assert_eq!(a.gathered, b.gathered, "{name} {label}: gathered diverged");
        }
    }
}

/// Checks, at every selection, that the page candidates the harvester
/// hands over are the cold `selector::page_candidates` over the same
/// pages and fired queries, in the same order, and that an empty-table
/// `EntityPhase::build_incremental` (a session's first build) equals the
/// from-scratch `EntityPhase::build` on the selection's inputs bit for
/// bit; then selects with the wrapped L2Q selector. Also counts fired
/// queries that no gathered page enumerated when they fired but a later
/// page does: the live list has to keep those out without ever having
/// listed them.
struct ColdChecked {
    inner: L2qSelector,
    label: String,
    /// Fired queries no gathered page had enumerated yet.
    unlisted: Vec<Query>,
    selections: usize,
    enumerated_after_firing: usize,
}

impl ColdChecked {
    fn new(inner: L2qSelector, label: String) -> Self {
        Self {
            inner,
            label,
            unlisted: Vec::new(),
            selections: 0,
            enumerated_after_firing: 0,
        }
    }
}

impl QuerySelector for ColdChecked {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.unlisted.clear();
    }

    fn select(&mut self, input: &SelectionInput<'_>) -> Option<Query> {
        let cold = page_candidates(input.corpus, input.gathered, input.fired, input.cfg);
        assert_eq!(
            input.page_candidates,
            &cold[..],
            "{}: live page candidates diverged from the cold list after {} fired",
            self.label,
            input.fired.len()
        );
        assert_empty_table_build_is_the_cold_build(input, &self.label);
        let enumerated: HashSet<Query> = pages_queries(
            input.corpus,
            input.gathered.iter().map(|&p| input.corpus.page(p)),
            input.cfg.candidates.max_len,
        )
        .into_iter()
        .collect();
        let before = self.unlisted.len();
        self.unlisted.retain(|q| !enumerated.contains(q));
        self.enumerated_after_firing += before - self.unlisted.len();
        self.selections += 1;
        let chosen = self.inner.select(input);
        if let Some(q) = chosen.as_ref().filter(|q| !enumerated.contains(*q)) {
            self.unlisted.push(q.clone());
        }
        chosen
    }

    fn collective_state(&self) -> Option<CollectiveState> {
        self.inner.collective_state()
    }

    fn restore_collective(&mut self, state: CollectiveState) {
        self.inner.restore_collective(state)
    }
}

/// An empty-table build and the from-scratch build on `input` (the
/// wrapped selectors are all domain-aware) agree bit for bit: pool,
/// shape, connectivity, the precision walk and the uncertified context
/// walks.
fn assert_empty_table_build_is_the_cold_build(input: &SelectionInput<'_>, label: &str) {
    let inc = EntityPhase::build_incremental(
        input.corpus,
        input.aspect,
        input.gathered,
        input.oracle,
        input.page_candidates,
        input.fired,
        input.domain,
        true,
        input.cfg,
        &mut EntityPhaseState::new(),
    );
    let cold = EntityPhase::build(
        input.corpus,
        input.aspect,
        input.gathered,
        input.oracle,
        input.page_candidates,
        input.fired,
        input.domain,
        true,
        input.cfg,
    );
    let at = format!("{label} after {} fired", input.fired.len());
    assert_eq!(inc.candidates(), cold.candidates(), "{at}: pool");
    assert_eq!(inc.shape(), cold.shape(), "{at}: shape");
    assert_eq!(inc.connected(), cold.connected(), "{at}: connected");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&inc.precision()),
        bits(&cold.precision()),
        "{at}: precision"
    );
    let walks = |phase: &EntityPhase<'_>| {
        let (w, _) = phase.context_walks_certified(None, |_| false);
        [
            bits(&w.recall),
            bits(&w.recall_gathered),
            bits(&w.recall_all),
        ]
    };
    assert_eq!(walks(&inc), walks(&cold), "{at}: context walks");
}

/// The harvester's live candidate list equals its cold reference at every
/// step: full harvests of every non-domain entity on both domains with
/// all three L2Q selectors, plus one session exported and re-imported
/// mid-harvest (its restored list is rebuilt from scratch, then carried
/// again). At a 10-query budget, cars harvests fire domain queries that
/// a later page enumerates.
#[test]
fn live_page_candidates_match_the_cold_list_at_every_step() {
    let (mut selections, mut enumerated_after_firing) = (0, 0);
    for (spec, name) in [
        (researchers_domain(), "researchers"),
        (cars_domain(), "cars"),
    ] {
        let cfg = L2qConfig::default();
        let corpus = Arc::new(generate(&spec, &CorpusConfig::tiny()).unwrap());
        let engine = SearchEngine::with_defaults(corpus.clone());
        let oracle = RelevanceOracle::from_truth(&corpus);
        let domain_entities: Vec<EntityId> = corpus.entity_ids().take(4).collect();
        let domain = learn_domain(&corpus, &domain_entities, &oracle, &cfg);
        let harvester = Harvester {
            corpus: &corpus,
            engine: &engine,
            oracle: &oracle,
            domain: Some(&domain),
            cfg: cfg.with_n_queries(10),
        };
        for aspect in corpus.aspects() {
            for (entity, inner) in (4..8).flat_map(|e| {
                [
                    L2qSelector::l2qp(),
                    L2qSelector::l2qr(),
                    L2qSelector::l2qbal(),
                ]
                .map(|s| (EntityId(e), s))
            }) {
                let label = format!("{name}/{}/{aspect:?}/{entity:?}", inner.name());
                let mut sel = ColdChecked::new(inner, label);
                let _ = harvester.run(entity, aspect, &mut sel);
                selections += sel.selections;
                enumerated_after_firing += sel.enumerated_after_firing;
            }
        }

        // Export after two steps, import, and continue on fresh caches.
        let aspect = corpus.aspects().next().unwrap();
        let mut sel = ColdChecked::new(L2qSelector::l2qbal(), format!("{name}/restored"));
        sel.reset();
        let mut state = HarvestState::begin(&harvester, EntityId(6), aspect);
        for _ in 0..2 {
            state.step(&harvester, &mut sel);
        }
        let json = state.export_json(&corpus, sel.collective_state());
        let (mut state, collective) = HarvestState::import_json(&json, &corpus).unwrap();
        let mut sel = ColdChecked::new(L2qSelector::l2qbal(), format!("{name}/restored"));
        sel.reset();
        if let Some(c) = collective {
            sel.restore_collective(c);
        }
        while !state.is_finished() {
            state.step(&harvester, &mut sel);
        }
        assert!(sel.selections > 1, "{name}: the restored session stepped");
        selections += sel.selections;
    }
    assert!(selections > 0);
    assert!(
        enumerated_after_firing > 0,
        "no fired query was first enumerated on a later page: the \
         fired-before-enumerated case went unexercised"
    );
}
