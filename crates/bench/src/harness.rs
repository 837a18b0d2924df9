//! Shared experiment harness: builds corpora, trains aspect classifiers,
//! materializes Y and draws the splits that `l2q_eval::SplitEval`
//! prepares and evaluates.

use crate::opts::BenchOpts;
use l2q_aspect::{train_aspect_models, AspectModel, RelevanceOracle, TrainConfig};
use l2q_core::L2qConfig;
use l2q_corpus::{cars_domain, generate, researchers_domain, Corpus, CorpusConfig};
use l2q_eval::{make_splits, Split};
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

/// A fully prepared domain: corpus, search engine, trained classifiers
/// and materialized Y.
pub struct DomainSetup {
    /// Which domain.
    pub kind: DomainKind,
    /// The generated corpus.
    pub corpus: std::sync::Arc<Corpus>,
    /// The default search engine over the corpus.
    pub engine: SearchEngine,
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
        engine: SearchEngine::with_defaults(corpus.clone()),
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
    use l2q_eval::{Method, SplitEval};

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
        let se = SplitEval::prepare(
            &setup.engine,
            &setup.oracle,
            &splits[0],
            opts.max_test_entities,
            setup.l2q_config(),
        );
        assert_eq!(se.test_entities().len(), 3);
        assert!(se.domain_model().query_count() > 0);

        let eval = se.evaluate(Method::named("rnd", 1).unwrap());
        assert_eq!(eval.per_iter.len(), setup.l2q_config().n_queries);
        assert!(eval.per_iter[0].pairs > 0);
    }
}
