//! The durability contract: interrupt → export → import → continue must
//! produce exactly the run that was never interrupted — same fired
//! queries, same gathered pages, same per-iteration gains — across both
//! corpus domains, on the default path (carried candidate table, warm
//! starts, pruning).
//!
//! Why this holds: the checkpoint persists only discrete decisions (fired
//! queries, page gains) plus the collective-recall recursion state as
//! exact f64 bit patterns; every derived cache rebuilds cold, and the
//! cold rebuild is bit-identical for a given page prefix (the
//! `determinism` suite's invariant). On the cold serial path (a selector
//! restarted before every step, no pruning) every selector score is a
//! pure function of that discrete state, so there the continuation's
//! collective state is asserted bit-for-bit too.

mod common;

use common::Restarted;
use l2q_aspect::RelevanceOracle;
use l2q_core::{
    learn_domain, HarvestRecord, HarvestState, Harvester, L2qConfig, L2qSelector, QuerySelector,
    StepOutcome,
};
use l2q_corpus::spec::DomainSpec;
use l2q_corpus::{cars_domain, generate, researchers_domain, Corpus, CorpusConfig, EntityId};
use l2q_retrieval::SearchEngine;
use std::sync::Arc;

struct Fixture {
    corpus: Arc<Corpus>,
    engine: SearchEngine,
    oracle: RelevanceOracle,
    domain: l2q_core::DomainModel,
    cfg: L2qConfig,
    /// Builds the L2QBAL selector of a run (and of each restore).
    selector: fn() -> Box<dyn QuerySelector>,
}

impl Fixture {
    fn new(spec: &DomainSpec, cfg: L2qConfig, selector: fn() -> Box<dyn QuerySelector>) -> Self {
        let corpus = Arc::new(generate(spec, &CorpusConfig::tiny()).unwrap());
        let engine = SearchEngine::with_defaults(corpus.clone());
        let oracle = RelevanceOracle::from_truth(&corpus);
        let domain_entities: Vec<EntityId> = corpus.entity_ids().take(4).collect();
        let domain = learn_domain(&corpus, &domain_entities, &oracle, &cfg);
        Self {
            corpus,
            engine,
            oracle,
            domain,
            cfg,
            selector,
        }
    }

    fn harvester(&self) -> Harvester<'_> {
        Harvester {
            corpus: &self.corpus,
            engine: &self.engine,
            oracle: &self.oracle,
            domain: Some(&self.domain),
            cfg: self.cfg,
        }
    }
}

/// Run to completion with no interruption.
fn uninterrupted(
    f: &Fixture,
    entity: EntityId,
    aspect: l2q_corpus::AspectId,
) -> (HarvestRecord, Option<l2q_core::CollectiveState>) {
    let h = f.harvester();
    let mut sel = (f.selector)();
    let rec = h.run(entity, aspect, sel.as_mut());
    (rec, sel.collective_state())
}

/// Step `interrupt_after` times, checkpoint through the portable JSON
/// form, rebuild state *and* selector from scratch, and continue.
fn interrupted(
    f: &Fixture,
    entity: EntityId,
    aspect: l2q_corpus::AspectId,
    interrupt_after: usize,
) -> (HarvestRecord, Option<l2q_core::CollectiveState>) {
    let h = f.harvester();
    let mut sel = (f.selector)();
    sel.reset();
    let mut state = HarvestState::begin(&h, entity, aspect);
    for _ in 0..interrupt_after {
        if matches!(state.step(&h, sel.as_mut()), StepOutcome::Finished(_)) {
            break;
        }
    }

    // The "crash": everything live is dropped; only the JSON survives.
    let json = state.export_json(&f.corpus, sel.collective_state());
    drop(state);

    let (mut state, collective) = HarvestState::import_json(&json, &f.corpus).unwrap();
    let mut sel = (f.selector)();
    sel.reset();
    if let Some(c) = collective {
        sel.restore_collective(c);
    }
    while !state.is_finished() {
        state.step(&h, sel.as_mut());
    }
    (state.finish(), sel.collective_state())
}

fn assert_same_record(a: &HarvestRecord, b: &HarvestRecord, label: &str) {
    let aq: Vec<_> = a.queries().collect();
    let bq: Vec<_> = b.queries().collect();
    assert_eq!(aq, bq, "{label}: fired queries diverged");
    assert_eq!(a.gathered, b.gathered, "{label}: gathered pages diverged");
    assert_eq!(a.seed_results, b.seed_results, "{label}: seed diverged");
    assert_eq!(
        a.iterations.len(),
        b.iterations.len(),
        "{label}: step count"
    );
    for (ai, bi) in a.iterations.iter().zip(&b.iterations) {
        assert_eq!(ai.new_pages, bi.new_pages, "{label}: per-step gains");
        assert_eq!(ai.gathered_after, bi.gathered_after, "{label}");
    }
}

fn assert_interrupt_is_invisible(spec: &DomainSpec, domain_name: &str, cfg: L2qConfig) {
    let f = Fixture::new(spec, cfg, || Box::new(L2qSelector::l2qbal()));
    // A non-domain entity, like the paper's train/test split.
    let entity = EntityId(6);
    for aspect in f.corpus.aspects() {
        let (base, _) = uninterrupted(&f, entity, aspect);
        for cut in [1, 2, 3] {
            let (resumed, _) = interrupted(&f, entity, aspect, cut);
            assert_same_record(
                &base,
                &resumed,
                &format!("{domain_name}/{aspect:?} cut@{cut}"),
            );
        }
    }
}

#[test]
fn researchers_interrupt_restore_continue_is_bit_identical() {
    assert_interrupt_is_invisible(&researchers_domain(), "researchers", L2qConfig::default());
}

#[test]
fn cars_interrupt_restore_continue_is_bit_identical() {
    assert_interrupt_is_invisible(&cars_domain(), "cars", L2qConfig::default());
}

/// On the cold serial path (the selector restarted before every step, no
/// pruning) every score is a pure function of the discrete state, so
/// even the collective-recall recursion lands on exactly the same f64
/// bits after interrupt + restore + continue.
#[test]
fn cold_serial_collective_state_matches_bit_for_bit() {
    let f = Fixture::new(
        &researchers_domain(),
        L2qConfig::default().with_prune(false),
        || Box::new(Restarted::new(L2qSelector::l2qbal)),
    );
    let entity = EntityId(6);
    let aspect = f.corpus.aspects().next().unwrap();
    let (base, base_coll) = uninterrupted(&f, entity, aspect);
    let (resumed, resumed_coll) = interrupted(&f, entity, aspect, 2);
    assert_same_record(&base, &resumed, "cold-serial");
    let (a, b) = (base_coll.unwrap(), resumed_coll.unwrap());
    assert_eq!(a.recall_phi().to_bits(), b.recall_phi().to_bits());
    assert_eq!(a.recall_star_phi().to_bits(), b.recall_star_phi().to_bits());
}
