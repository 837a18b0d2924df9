//! Shared experiment harness: builds corpora, trains aspect classifiers,
//! materializes Y, learns domain models per split and evaluates selectors.

use crate::opts::BenchOpts;
use l2q_aspect::{train_aspect_models, AspectModel, RelevanceOracle, TrainConfig};
use l2q_core::{learn_domain, DomainModel, L2qConfig, QuerySelector};
use l2q_corpus::{cars_domain, generate, researchers_domain, Corpus, CorpusConfig, EntityId};
use l2q_eval::{evaluate_selector, make_splits, EvalContext, IdealBounds, MethodEval, Split};
use l2q_retrieval::SearchEngine;

/// Which of the paper's two domains to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DomainKind {
    /// 996 prolific DBLP researchers (paper scale).
    Researchers,
    /// 143 consumer car models (paper scale).
    Cars,
}

impl DomainKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DomainKind::Researchers => "Researcher",
            DomainKind::Cars => "Car",
        }
    }

    /// Both domains, in the paper's presentation order.
    pub fn both() -> [DomainKind; 2] {
        [DomainKind::Researchers, DomainKind::Cars]
    }
}

/// A fully prepared domain: corpus, trained classifiers and materialized Y.
pub struct DomainSetup {
    /// Which domain.
    pub kind: DomainKind,
    /// The generated corpus.
    pub corpus: std::sync::Arc<Corpus>,
    /// Per-aspect trained classifiers with held-out accuracy (Fig. 9).
    pub models: Vec<AspectModel>,
    /// Materialized Y from the classifiers (the paper's ground truth).
    pub oracle: RelevanceOracle,
}

/// Build a domain per the options: generate the corpus, train one
/// classifier per aspect and materialize the relevance oracle from them —
/// exactly the paper's experimental setup.
pub fn build_domain(kind: DomainKind, opts: &BenchOpts) -> DomainSetup {
    let spec = match kind {
        DomainKind::Researchers => researchers_domain(),
        DomainKind::Cars => cars_domain(),
    };
    let (paper_n, bench_n) = match kind {
        DomainKind::Researchers => (996, 150),
        DomainKind::Cars => (143, 100),
    };
    let config = CorpusConfig {
        n_entities: opts.entity_count(paper_n, bench_n),
        pages_per_entity: opts.pages_per_entity(),
        seed: opts.seed,
        ..CorpusConfig::default()
    };
    let corpus = std::sync::Arc::new(generate(&spec, &config).expect("corpus generation"));
    let models = train_aspect_models(&corpus, &TrainConfig::default());
    let oracle = RelevanceOracle::from_models(&corpus, &models);
    DomainSetup {
        kind,
        corpus,
        models,
        oracle,
    }
}

impl DomainSetup {
    /// The paper's evaluation splits for this corpus.
    pub fn splits(&self, opts: &BenchOpts) -> Vec<Split> {
        make_splits(self.corpus.entities.len(), opts.splits, opts.seed ^ 0x51)
    }

    /// The L2Q configuration used by the figure binaries: paper defaults
    /// with a slightly looser walk budget (converged well past ranking
    /// stability; see DESIGN.md §6).
    pub fn l2q_config(&self) -> L2qConfig {
        let mut cfg = L2qConfig::default();
        cfg.walk.max_iters = 60;
        cfg.walk.tolerance = 1e-7;
        cfg
    }
}

/// One split, prepared for evaluation: domain model, engine, ideal bounds.
pub struct SplitEval<'a> {
    setup: &'a DomainSetup,
    engine: SearchEngine,
    /// The learned domain model for this split.
    pub domain_model: DomainModel,
    /// Test entities (capped per options).
    pub test_entities: Vec<EntityId>,
    /// Validation entities.
    pub validation_entities: Vec<EntityId>,
    bounds: IdealBounds,
    cfg: L2qConfig,
}

impl<'a> SplitEval<'a> {
    /// Prepare a split: learn the domain model from its domain entities and
    /// compute the ideal bounds over its (capped) test entities.
    pub fn prepare(
        setup: &'a DomainSetup,
        split: &Split,
        opts: &BenchOpts,
        cfg: L2qConfig,
    ) -> Self {
        Self::prepare_with_engine(
            setup,
            split,
            opts,
            cfg,
            l2q_retrieval::EngineConfig::default(),
        )
    }

    /// Like [`Self::prepare`] but with an explicit engine configuration
    /// (e.g. `SeedMode::SoftAppend` for the seed-focusing ablation).
    pub fn prepare_with_engine(
        setup: &'a DomainSetup,
        split: &Split,
        opts: &BenchOpts,
        cfg: L2qConfig,
        engine_cfg: l2q_retrieval::EngineConfig,
    ) -> Self {
        let engine = SearchEngine::new(setup.corpus.clone(), engine_cfg);
        let domain_model = learn_domain(&setup.corpus, &split.domain, &setup.oracle, &cfg);
        let mut test_entities = split.test.clone();
        test_entities.truncate(opts.max_test_entities);
        let mut validation_entities = split.validation.clone();
        validation_entities.truncate(opts.max_test_entities.min(4));

        let ctx = EvalContext {
            corpus: &setup.corpus,
            engine: &engine,
            oracle: &setup.oracle,
        };
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let bounds = l2q_eval::ideal_bounds_parallel(
            &ctx,
            Some(&domain_model),
            &test_entities,
            &cfg,
            threads,
        );

        Self {
            setup,
            engine,
            domain_model,
            test_entities,
            validation_entities,
            bounds,
            cfg,
        }
    }

    /// The evaluation context.
    pub fn ctx(&self) -> EvalContext<'_> {
        EvalContext {
            corpus: &self.setup.corpus,
            engine: &self.engine,
            oracle: &self.setup.oracle,
        }
    }

    /// The L2Q configuration in force.
    pub fn cfg(&self) -> &L2qConfig {
        &self.cfg
    }

    /// Evaluate one selector over this split's test pairs, normalized
    /// against the ideal bounds. `with_domain` controls whether the
    /// selector sees the domain model (RND/P/R must not).
    pub fn evaluate(&self, selector: &mut dyn QuerySelector, with_domain: bool) -> MethodEval {
        self.evaluate_with_cfg(selector, with_domain, self.cfg)
    }

    /// Like [`Self::evaluate`] but with a per-method configuration (e.g. a
    /// cross-validated r0). The walk/candidate settings must match the
    /// split's (bounds do not depend on r0, so normalization stays valid).
    pub fn evaluate_with_cfg(
        &self,
        selector: &mut dyn QuerySelector,
        with_domain: bool,
        cfg: L2qConfig,
    ) -> MethodEval {
        evaluate_selector(
            &self.ctx(),
            if with_domain {
                Some(&self.domain_model)
            } else {
                None
            },
            &self.test_entities,
            None,
            selector,
            &cfg,
            &self.bounds,
        )
    }

    /// Parallel variant of [`Self::evaluate`]: one selector per worker
    /// thread from `factory`, entities split across threads. Identical
    /// results, lower wall-clock.
    pub fn evaluate_parallel(
        &self,
        factory: &(dyn Fn() -> Box<dyn QuerySelector> + Sync),
        with_domain: bool,
        threads: usize,
    ) -> MethodEval {
        l2q_eval::evaluate_selector_parallel(
            &self.ctx(),
            if with_domain {
                Some(&self.domain_model)
            } else {
                None
            },
            &self.test_entities,
            None,
            factory,
            &self.cfg,
            &self.bounds,
            threads,
        )
    }

    /// Cross-validate r0 on this split's validation entities for an L2Q
    /// strategy, scoring by the metric that strategy optimizes (the
    /// paper: "We selected the seed query parameter r0 … by cross
    /// validating on the validation set").
    pub fn validated_r0(&self, strategy: l2q_core::Strategy) -> f64 {
        use l2q_core::{L2qSelector, Strategy};
        let grid = [0.1, 0.3, 0.5, 0.7, 0.9];
        let score: fn(&l2q_eval::Metrics) -> f64 = match strategy {
            Strategy::Precision => |m| m.precision,
            Strategy::Recall => |m| m.recall,
            Strategy::Balanced | Strategy::Weighted { .. } => |m| m.f1,
        };
        l2q_eval::validate_r0(
            &self.ctx(),
            Some(&self.domain_model),
            &self.validation_entities,
            &mut || Box::new(L2qSelector::custom(strategy, true, true)),
            &self.cfg,
            &grid,
            score,
        )
    }

    /// Evaluate a full L2Q strategy with its cross-validated r0.
    pub fn evaluate_l2q(&self, strategy: l2q_core::Strategy) -> MethodEval {
        let r0 = self.validated_r0(strategy);
        let mut sel = l2q_core::L2qSelector::custom(strategy, true, true);
        self.evaluate_with_cfg(&mut sel, true, self.cfg.with_r0(r0))
    }
}

/// Honor `--emit-metrics PATH`: dump the global metrics registry (counters,
/// gauges, latency histograms accumulated during the run) as JSON. Called
/// by the figure binaries after their run; a no-op without the flag.
pub fn emit_metrics_if_requested(opts: &BenchOpts) {
    let Some(path) = opts.emit_metrics.as_deref() else {
        return;
    };
    let body = l2q_obs::global().snapshot().render_json();
    match std::fs::write(path, &body) {
        Ok(()) => eprintln!("metrics written to {path}"),
        Err(e) => eprintln!("failed to write metrics to {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2q_baselines::RndSelector;

    fn tiny_opts() -> BenchOpts {
        BenchOpts {
            quick: true,
            splits: 1,
            max_test_entities: 3,
            entities: Some(24),
            ..BenchOpts::default()
        }
    }

    #[test]
    fn harness_builds_and_evaluates_end_to_end() {
        let opts = tiny_opts();
        let setup = build_domain(DomainKind::Researchers, &opts);
        assert_eq!(setup.corpus.entities.len(), 24);
        assert_eq!(setup.models.len(), 7);

        let splits = setup.splits(&opts);
        assert_eq!(splits.len(), 1);
        let se = SplitEval::prepare(&setup, &splits[0], &opts, setup.l2q_config());
        assert!(!se.test_entities.is_empty());
        assert!(se.domain_model.query_count() > 0);

        let mut sel = RndSelector::new(1);
        let eval = se.evaluate(&mut sel, false);
        assert_eq!(eval.per_iter.len(), se.cfg().n_queries);
        assert!(eval.per_iter[0].pairs > 0);
    }
}
