//! The experiment runner: prepare a split (domain model, capped test and
//! validation entities, ideal bounds), harvest every (test entity,
//! aspect) pair with a method, measure cumulative quality after each
//! query, and normalize against the ideal-solution upper bound — the
//! paper's evaluation loop.
//!
//! Every harvest of a split — the ideal bounds, r0 cross-validation and
//! each method's evaluation — is spread over `min(cores, entities)`
//! workers, each with a selector of its own, and the results are folded
//! in entity order. Selectors reset per harvest run and entity runs are
//! independent, so every result is bit-identical for any worker count.
//! This is the paper's own efficiency note made concrete: "they can be
//! further improved by various techniques, such as parallelizing over
//! entities".

use crate::ideal::IdealSelector;
use crate::methods::Method;
use crate::metrics::{page_metrics, Metrics, MetricsAccumulator};
use crate::protocol::Split;
use l2q_aspect::RelevanceOracle;
use l2q_core::{
    learn_domain, DomainModel, Harvester, L2qConfig, L2qSelector, QuerySelector, Strategy,
};
use l2q_corpus::{AspectId, EntityId};
use l2q_retrieval::SearchEngine;
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::time::Duration;

/// Validation entities kept per split: r0 cross-validation harvests each
/// of their pairs once per grid value.
const MAX_VALIDATION_ENTITIES: usize = 4;

/// The r0 values cross-validation chooses from.
const R0_GRID: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// Builds one worker's selector.
type Factory<'f> = &'f (dyn Fn() -> Box<dyn QuerySelector> + Sync);

/// Ideal-solution metrics per (entity, aspect) and iteration count
/// (index 0 = seed only, index i = after i queries).
struct IdealBounds {
    map: HashMap<(EntityId, AspectId), Vec<Metrics>>,
}

impl IdealBounds {
    /// Upper-bound metrics for a pair at an iteration count, if the pair
    /// was evaluated.
    fn get(&self, e: EntityId, a: AspectId, iters: usize) -> Option<Metrics> {
        self.map.get(&(e, a)).and_then(|v| v.get(iters)).copied()
    }
}

/// Aggregated per-iteration statistics of one method.
#[derive(Clone, Debug)]
pub struct IterStats {
    /// Number of queries fired (excluding the seed).
    pub n_queries: usize,
    /// Mean raw metrics across pairs.
    pub raw: Metrics,
    /// Mean normalized metrics (method / ideal, component-wise).
    pub normalized: Metrics,
    /// Number of (entity, aspect) pairs contributing.
    pub pairs: usize,
}

/// Full evaluation result of one method.
#[derive(Clone, Debug)]
pub struct MethodEval {
    /// Selector display name.
    pub name: String,
    /// Stats for 1..=n_queries fired queries (index 0 ↦ 1 query).
    pub per_iter: Vec<IterStats>,
    /// Total selection wall-clock across all runs.
    pub selection_time: Duration,
    /// Number of harvest runs executed.
    pub runs: usize,
}

impl MethodEval {
    /// Stats after `n` queries (1-based).
    pub fn at(&self, n_queries: usize) -> Option<&IterStats> {
        self.per_iter.get(n_queries.checked_sub(1)?)
    }

    /// Mean selection time per query selection.
    pub fn selection_time_per_query(&self) -> Duration {
        let total_selections: u32 = (self.runs * self.per_iter.len()).max(1) as u32;
        self.selection_time / total_selections
    }
}

/// Metrics of one harvested pair after 1..=n_queries fired queries: the
/// raw metrics, or None where the pair has none, each with its
/// normalized metrics, or None where the ideal has no bound.
type PairRun = Vec<Option<(Metrics, Option<Metrics>)>>;

/// One split, prepared for evaluation: the domain model learned from its
/// domain entities, its capped test and validation entities, and the
/// ideal bounds over the test pairs.
pub struct SplitEval<'a> {
    engine: &'a SearchEngine,
    oracle: &'a RelevanceOracle,
    domain_model: DomainModel,
    /// The first `max_test` of the split's test entities.
    test_entities: Vec<EntityId>,
    /// The first `min(max_test, 4)` of the split's validation entities.
    validation_entities: Vec<EntityId>,
    /// Over the test pairs.
    bounds: IdealBounds,
    cfg: L2qConfig,
    cores: usize,
}

impl<'a> SplitEval<'a> {
    /// Prepare a split over `engine`'s corpus: learn the domain model from
    /// its domain entities and compute the ideal bounds over its first
    /// `max_test` test entities.
    pub fn prepare(
        engine: &'a SearchEngine,
        oracle: &'a RelevanceOracle,
        split: &Split,
        max_test: usize,
        cfg: L2qConfig,
    ) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        Self::prepare_on(engine, oracle, split, max_test, cfg, cores)
    }

    /// [`Self::prepare`] with every harvest spread over at most `cores`
    /// workers.
    pub(crate) fn prepare_on(
        engine: &'a SearchEngine,
        oracle: &'a RelevanceOracle,
        split: &Split,
        max_test: usize,
        cfg: L2qConfig,
        cores: usize,
    ) -> Self {
        let corpus = engine.corpus();
        let first = |ids: &[EntityId], n: usize| ids[..n.min(ids.len())].to_vec();
        let domain_model = learn_domain(corpus, &split.domain, oracle, &cfg);
        let test_entities = first(&split.test, max_test);
        let harvester = Harvester {
            corpus,
            engine,
            oracle,
            domain: Some(&domain_model),
            cfg,
        };
        let bounds = per_entity(
            &test_entities,
            cores,
            &|| Box::new(IdealSelector::new()),
            |selector, e| {
                corpus
                    .aspects()
                    .filter_map(|a| {
                        let rec = harvester.run(e, a, selector);
                        let per_iter: Option<Vec<Metrics>> = (0..=cfg.n_queries)
                            .map(|i| page_metrics(corpus, oracle, e, a, &rec.cumulative(i)))
                            .collect();
                        Some(((e, a), per_iter?))
                    })
                    .collect::<Vec<_>>()
            },
        );
        Self {
            engine,
            oracle,
            validation_entities: first(&split.validation, max_test.min(MAX_VALIDATION_ENTITIES)),
            bounds: IdealBounds {
                map: bounds.into_iter().flatten().collect(),
            },
            domain_model,
            test_entities,
            cfg,
            cores,
        }
    }

    /// The domain model learned from the split's domain entities.
    pub fn domain_model(&self) -> &DomainModel {
        &self.domain_model
    }

    /// The test entities evaluated: the first `max_test` of the split's.
    pub fn test_entities(&self) -> &[EntityId] {
        &self.test_entities
    }

    /// Evaluate `method` over this split's test pairs at the split's
    /// configuration, normalized against the ideal bounds. The method
    /// sees the domain model if its table row says so.
    pub fn evaluate(&self, method: Method) -> MethodEval {
        self.evaluate_with(
            &|| method.selector(),
            method.domain(&self.domain_model),
            self.cfg,
        )
    }

    /// Evaluate a full L2Q strategy with r0 cross-validated on the
    /// validation entities, scored by the metric the strategy optimizes
    /// (the paper: "We selected the seed query parameter r0 … by cross
    /// validating on the validation set"). Bounds do not depend on r0,
    /// so the normalization stays valid.
    pub fn evaluate_l2q(&self, strategy: Strategy) -> MethodEval {
        let r0 = self.validated_r0(strategy);
        self.evaluate_with(
            &|| Box::new(L2qSelector::full(strategy)),
            Some(&self.domain_model),
            self.cfg.with_r0(r0),
        )
    }

    /// The grid value of r0 that maximizes the strategy's metric, averaged
    /// over the validation pairs.
    fn validated_r0(&self, strategy: Strategy) -> f64 {
        let score: fn(&Metrics) -> f64 = match strategy {
            Strategy::Precision => |m| m.precision,
            Strategy::Recall => |m| m.recall,
            Strategy::Balanced | Strategy::Weighted { .. } => |m| m.f1,
        };
        let corpus = self.engine.corpus();
        let mut best = (f64::MIN, self.cfg.r0);
        for r0 in R0_GRID {
            let harvester = self.harvester(Some(&self.domain_model), self.cfg.with_r0(r0));
            let gathered = per_entity(
                &self.validation_entities,
                self.cores,
                &|| Box::new(L2qSelector::full(strategy)),
                |selector, e| {
                    corpus
                        .aspects()
                        .filter_map(|a| {
                            let rec = harvester.run(e, a, selector);
                            page_metrics(corpus, self.oracle, e, a, &rec.gathered)
                        })
                        .collect::<Vec<_>>()
                },
            );
            let mut acc = MetricsAccumulator::new();
            for m in gathered.into_iter().flatten() {
                acc.push(m);
            }
            let s = score(&acc.mean());
            if s > best.0 {
                best = (s, r0);
            }
        }
        best.1
    }

    /// Harvest each test pair that has an ideal bound, then average the
    /// pairs in entity-then-aspect order (float sums depend on their
    /// order).
    fn evaluate_with(
        &self,
        make: Factory<'_>,
        domain: Option<&DomainModel>,
        cfg: L2qConfig,
    ) -> MethodEval {
        let harvester = self.harvester(domain, cfg);
        let corpus = self.engine.corpus();
        let bounds = &self.bounds;
        let harvested = per_entity(&self.test_entities, self.cores, make, |selector, e| {
            corpus
                .aspects()
                // Skip pairs without an ideal bound (no relevant pages).
                .filter(|&a| bounds.get(e, a, 0).is_some())
                .map(|a| {
                    let rec = harvester.run(e, a, selector);
                    let run: PairRun = (1..=cfg.n_queries)
                        .map(|i| {
                            let m = page_metrics(corpus, self.oracle, e, a, &rec.cumulative(i))?;
                            Some((m, bounds.get(e, a, i).map(|ideal| normalize(m, ideal))))
                        })
                        .collect();
                    (run, rec.selection_time)
                })
                .collect::<Vec<_>>()
        });

        let mut raw_acc = vec![MetricsAccumulator::new(); cfg.n_queries];
        let mut norm_acc = vec![MetricsAccumulator::new(); cfg.n_queries];
        let mut selection_time = Duration::ZERO;
        let mut runs = 0;
        for (run, time) in harvested.iter().flatten() {
            selection_time += *time;
            runs += 1;
            for (i, metrics) in run.iter().enumerate() {
                let Some((raw, normalized)) = metrics else {
                    continue;
                };
                raw_acc[i].push(*raw);
                if let Some(n) = normalized {
                    norm_acc[i].push(*n);
                }
            }
        }
        let per_iter = (1..=cfg.n_queries)
            .map(|i| IterStats {
                n_queries: i,
                raw: raw_acc[i - 1].mean(),
                normalized: norm_acc[i - 1].mean(),
                pairs: norm_acc[i - 1].count(),
            })
            .collect();
        MethodEval {
            name: make().name(),
            per_iter,
            selection_time,
            runs,
        }
    }

    fn harvester<'h>(&'h self, domain: Option<&'h DomainModel>, cfg: L2qConfig) -> Harvester<'h> {
        Harvester {
            corpus: self.engine.corpus(),
            engine: self.engine,
            oracle: self.oracle,
            domain,
            cfg,
        }
    }
}

/// Run `job` on every entity: contiguous chunks of `entities` go to
/// `min(cores, entities)` scoped workers, each with its own selector from
/// `make`, and the results come back in entity order.
fn per_entity<T: Send>(
    entities: &[EntityId],
    cores: usize,
    make: Factory<'_>,
    job: impl Fn(&mut dyn QuerySelector, EntityId) -> T + Sync,
) -> Vec<T> {
    let workers = cores.clamp(1, entities.len().max(1));
    let chunk = entities.len().div_ceil(workers).max(1);
    let job = &job;
    std::thread::scope(|scope| {
        let handles: Vec<_> = entities
            .chunks(chunk)
            .map(|slice| {
                scope.spawn(move || {
                    let mut selector = make();
                    slice
                        .iter()
                        .map(|&e| job(selector.as_mut(), e))
                        .collect::<Vec<T>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("evaluation worker panicked"))
            .collect()
    })
}

/// Component-wise normalization against the ideal. A zero ideal component
/// means the pair is degenerate at this budget (even the cheating bound
/// achieved nothing) — every method is credited 1.0 there rather than
/// dividing by zero.
fn normalize(m: Metrics, ideal: Metrics) -> Metrics {
    let div = |x: f64, d: f64| if d > 1e-12 { x / d } else { 1.0 };
    Metrics {
        precision: div(m.precision, ideal.precision),
        recall: div(m.recall, ideal.recall),
        f1: div(m.f1, ideal.f1),
    }
}

/// Merge per-split [`MethodEval`]s (pair-count weighted).
pub fn merge_method_evals(parts: &[MethodEval]) -> MethodEval {
    assert!(!parts.is_empty(), "nothing to merge");
    let n_iters = parts.iter().map(|e| e.per_iter.len()).max().unwrap_or(0);
    let mut per_iter = Vec::with_capacity(n_iters);
    for i in 0..n_iters {
        let mut raw = MetricsAccumulator::new();
        let mut norm = MetricsAccumulator::new();
        let mut pairs = 0usize;
        for e in parts {
            if let Some(it) = e.per_iter.get(i) {
                for _ in 0..it.pairs {
                    raw.push(it.raw);
                    norm.push(it.normalized);
                }
                pairs += it.pairs;
            }
        }
        per_iter.push(IterStats {
            n_queries: i + 1,
            raw: raw.mean(),
            normalized: norm.mean(),
            pairs,
        });
    }
    MethodEval {
        name: parts[0].name.clone(),
        per_iter,
        selection_time: parts.iter().map(|e| e.selection_time).sum(),
        runs: parts.iter().map(|e| e.runs).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2q_corpus::{generate, researchers_domain, CorpusConfig};
    use std::sync::Arc;

    struct Fixture {
        engine: SearchEngine,
        oracle: RelevanceOracle,
    }

    fn fixture() -> Fixture {
        let corpus = Arc::new(generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap());
        let oracle = RelevanceOracle::from_truth(&corpus);
        Fixture {
            engine: SearchEngine::with_defaults(corpus),
            oracle,
        }
    }

    /// Entities 4..8 are the domain; the first `n_test` are the test
    /// entities and entities 2 and 3 the validation entities.
    fn prepare(f: &Fixture, n_test: u32, cores: usize) -> SplitEval<'_> {
        let ids = |r: std::ops::Range<u32>| r.map(EntityId).collect::<Vec<_>>();
        let split = Split {
            domain: ids(4..8),
            validation: ids(2..4),
            test: ids(0..n_test),
        };
        SplitEval::prepare_on(
            &f.engine,
            &f.oracle,
            &split,
            usize::MAX,
            L2qConfig::default(),
            cores,
        )
    }

    fn method(name: &str, seed: u64) -> Method {
        Method::named(name, seed).unwrap()
    }

    #[test]
    fn bounds_and_evaluation_have_consistent_shapes() {
        let f = fixture();
        let se = prepare(&f, 3, 2);
        assert!(!se.bounds.map.is_empty());

        let eval = se.evaluate(method("rnd", 1));
        assert_eq!(eval.name, "RND");
        assert_eq!(eval.per_iter.len(), L2qConfig::default().n_queries);
        for (i, it) in eval.per_iter.iter().enumerate() {
            assert_eq!(it.n_queries, i + 1);
            assert!(it.pairs > 0);
            assert!(it.raw.precision >= 0.0 && it.raw.precision <= 1.0);
            assert!(it.normalized.recall >= 0.0);
        }
        assert!(eval.at(1).is_some());
        assert!(eval.at(99).is_none());
    }

    #[test]
    fn ideal_normalizes_to_one_against_itself() {
        let f = fixture();
        let eval = prepare(&f, 2, 2).evaluate(method("ideal", 0));
        for it in &eval.per_iter {
            assert!(
                (it.normalized.f1 - 1.0).abs() < 1e-9,
                "ideal vs ideal must be 1.0, got {}",
                it.normalized.f1
            );
        }
    }

    #[test]
    fn normalized_scores_do_not_exceed_one_for_f_product_bound() {
        // Not a theorem (the ideal greedily optimizes precision×coverage,
        // not F), but on tiny corpora methods should stay at or below ~1.
        let f = fixture();
        let eval = prepare(&f, 3, 2).evaluate(method("rnd", 2));
        for it in &eval.per_iter {
            assert!(it.normalized.f1 <= 1.5, "suspicious normalization");
        }
    }

    #[test]
    fn parallel_evaluation_matches_sequential() {
        let f = fixture();
        let bits = |m: &Metrics| [m.precision, m.recall, m.f1].map(f64::to_bits);
        let run = |cores: usize| {
            let se = prepare(&f, 4, cores);
            let mut bounds: Vec<_> = se
                .bounds
                .map
                .iter()
                .map(|(pair, per_iter)| (*pair, per_iter.iter().map(bits).collect::<Vec<_>>()))
                .collect();
            bounds.sort();
            let r0 = se.validated_r0(Strategy::Precision);
            (bounds, r0.to_bits(), se.evaluate(method("l2qp", 0)))
        };
        let (bounds, r0, eval) = run(1);
        assert!(!bounds.is_empty());
        for cores in 2..=4 {
            let (par_bounds, par_r0, par) = run(cores);
            assert_eq!(bounds, par_bounds, "{cores} workers, ideal bounds");
            assert_eq!(r0, par_r0, "{cores} workers, validated r0");
            assert_eq!(eval.name, par.name);
            assert_eq!(eval.runs, par.runs, "{cores} workers");
            assert_eq!(eval.per_iter.len(), par.per_iter.len());
            for (a, b) in eval.per_iter.iter().zip(&par.per_iter) {
                assert_eq!(a.pairs, b.pairs, "{cores} workers");
                assert_eq!(bits(&a.raw), bits(&b.raw), "{cores} workers, raw");
                assert_eq!(
                    bits(&a.normalized),
                    bits(&b.normalized),
                    "{cores} workers, normalized"
                );
            }
        }
    }

    #[test]
    fn r0_validation_returns_grid_value() {
        let f = fixture();
        let se = prepare(&f, 1, 2);
        assert!(R0_GRID.contains(&se.validated_r0(Strategy::Recall)));
    }

    #[test]
    fn merge_weights_by_pairs() {
        let mk = |p: f64, pairs: usize| MethodEval {
            name: "X".into(),
            per_iter: vec![IterStats {
                n_queries: 1,
                raw: Metrics::new(p, p),
                normalized: Metrics::new(p, p),
                pairs,
            }],
            selection_time: Duration::from_millis(1),
            runs: pairs,
        };
        let merged = merge_method_evals(&[mk(1.0, 1), mk(0.0, 3)]);
        assert!((merged.per_iter[0].normalized.precision - 0.25).abs() < 1e-12);
        assert_eq!(merged.per_iter[0].pairs, 4);
        assert_eq!(merged.runs, 4);
        assert_eq!(merged.selection_time, Duration::from_millis(2));
    }
}
