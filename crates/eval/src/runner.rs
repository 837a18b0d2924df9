//! The experiment runner: harvests every (test entity, aspect) pair with a
//! selector, measures cumulative quality after each query, and normalizes
//! against the ideal-solution upper bound — the paper's evaluation loop.

use crate::ideal::IdealSelector;
use crate::metrics::{page_metrics, Metrics, MetricsAccumulator};
use l2q_aspect::RelevanceOracle;
use l2q_core::{DomainModel, Harvester, L2qConfig, QuerySelector};
use l2q_corpus::{AspectId, Corpus, EntityId};
use l2q_retrieval::SearchEngine;
use serde::Serialize;
use std::collections::HashMap;
use std::time::Duration;

/// Shared evaluation context for one corpus.
pub struct EvalContext<'a> {
    /// The frozen corpus.
    pub corpus: &'a Corpus,
    /// Search engine over the corpus.
    pub engine: &'a SearchEngine,
    /// Materialized Y.
    pub oracle: &'a RelevanceOracle,
}

/// Ideal-solution metrics per (entity, aspect) and iteration count
/// (index 0 = seed only, index i = after i queries).
pub struct IdealBounds {
    map: HashMap<(EntityId, AspectId), Vec<Metrics>>,
}

impl IdealBounds {
    /// Upper-bound metrics for a pair at an iteration count, if the pair
    /// was evaluated.
    pub fn get(&self, e: EntityId, a: AspectId, iters: usize) -> Option<Metrics> {
        self.map.get(&(e, a)).and_then(|v| v.get(iters)).copied()
    }

    /// Number of evaluated pairs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no pairs were evaluated.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Compute the ideal bounds for all (entity, aspect) pairs.
pub fn ideal_bounds(
    ctx: &EvalContext<'_>,
    domain: Option<&DomainModel>,
    entities: &[EntityId],
    cfg: &L2qConfig,
) -> IdealBounds {
    let harvester = Harvester {
        corpus: ctx.corpus,
        engine: ctx.engine,
        oracle: ctx.oracle,
        domain,
        cfg: *cfg,
    };
    let mut map = HashMap::new();
    for &e in entities {
        for a in ctx.corpus.aspects() {
            let mut sel = IdealSelector::new();
            let rec = harvester.run(e, a, &mut sel);
            let mut per_iter = Vec::with_capacity(cfg.n_queries + 1);
            let mut skip = false;
            for i in 0..=cfg.n_queries {
                match page_metrics(ctx.corpus, ctx.oracle, e, a, &rec.cumulative(i)) {
                    Some(m) => per_iter.push(m),
                    None => {
                        skip = true;
                        break;
                    }
                }
            }
            if !skip {
                map.insert((e, a), per_iter);
            }
        }
    }
    IdealBounds { map }
}

/// Parallel variant of [`ideal_bounds`]: entities split across worker
/// threads (the ideal selector is stateless per run, so results are
/// identical).
pub fn ideal_bounds_parallel(
    ctx: &EvalContext<'_>,
    domain: Option<&DomainModel>,
    entities: &[EntityId],
    cfg: &L2qConfig,
    threads: usize,
) -> IdealBounds {
    let threads = threads.max(1).min(entities.len().max(1));
    let chunk = entities.len().div_ceil(threads);
    let chunks: Vec<&[EntityId]> = entities.chunks(chunk.max(1)).collect();
    let partials: Vec<IdealBounds> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|slice| scope.spawn(move |_| ideal_bounds(ctx, domain, slice, cfg)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
    .expect("scope");

    let mut map = HashMap::new();
    for p in partials {
        map.extend(p.map);
    }
    IdealBounds { map }
}

/// Aggregated per-iteration statistics of one method.
#[derive(Clone, Debug, Serialize)]
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
#[derive(Clone, Debug, Serialize)]
pub struct MethodEval {
    /// Selector display name.
    pub name: String,
    /// Stats for 1..=n_queries fired queries (index 0 ↦ 1 query).
    pub per_iter: Vec<IterStats>,
    /// Total selection wall-clock across all runs.
    #[serde(skip)]
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

/// Evaluate a selector over all (entity, aspect) pairs of `entities`,
/// restricted to `aspects` if given. Normalization uses `bounds` (pairs
/// without a bound are skipped entirely, matching the paper's
/// per-entity normalization).
#[allow(clippy::too_many_arguments)]
pub fn evaluate_selector(
    ctx: &EvalContext<'_>,
    domain: Option<&DomainModel>,
    entities: &[EntityId],
    aspects: Option<&[AspectId]>,
    selector: &mut dyn QuerySelector,
    cfg: &L2qConfig,
    bounds: &IdealBounds,
) -> MethodEval {
    let harvested = harvest_pairs(ctx, domain, entities, aspects, selector, cfg, bounds);
    fold_pairs(harvested, cfg.n_queries)
}

/// Metrics of one harvested pair after 1..=n_queries fired queries: the
/// raw metrics, or None where the pair has none, each with its
/// normalized metrics, or None where the ideal has no bound.
type PairRun = Vec<Option<(Metrics, Option<Metrics>)>>;

/// Every harvested pair of one selector, in entity-then-aspect order.
struct Harvested {
    name: String,
    pairs: Vec<PairRun>,
    selection_time: Duration,
}

/// Harvest each (entity, aspect) pair that has an ideal bound and keep
/// its per-budget metrics unaggregated, so that callers can average them
/// in one fixed order.
#[allow(clippy::too_many_arguments)]
fn harvest_pairs(
    ctx: &EvalContext<'_>,
    domain: Option<&DomainModel>,
    entities: &[EntityId],
    aspects: Option<&[AspectId]>,
    selector: &mut dyn QuerySelector,
    cfg: &L2qConfig,
    bounds: &IdealBounds,
) -> Harvested {
    let harvester = Harvester {
        corpus: ctx.corpus,
        engine: ctx.engine,
        oracle: ctx.oracle,
        domain,
        cfg: *cfg,
    };
    let aspect_list: Vec<AspectId> = match aspects {
        Some(list) => list.to_vec(),
        None => ctx.corpus.aspects().collect(),
    };

    let mut pairs = Vec::new();
    let mut selection_time = Duration::ZERO;
    for &e in entities {
        for &a in &aspect_list {
            // Skip pairs without an ideal bound (no relevant pages).
            if bounds.get(e, a, 0).is_none() {
                continue;
            }
            let rec = harvester.run(e, a, selector);
            selection_time += rec.selection_time;
            pairs.push(
                (1..=cfg.n_queries)
                    .map(|i| {
                        let m = page_metrics(ctx.corpus, ctx.oracle, e, a, &rec.cumulative(i))?;
                        Some((m, bounds.get(e, a, i).map(|ideal| normalize(m, ideal))))
                    })
                    .collect(),
            );
        }
    }
    Harvested {
        name: selector.name(),
        pairs,
        selection_time,
    }
}

/// Average harvested pairs in the order given. Float sums depend on
/// their order, so both evaluators fold in entity order.
fn fold_pairs(harvested: Harvested, n_queries: usize) -> MethodEval {
    let mut raw_acc: Vec<MetricsAccumulator> = vec![MetricsAccumulator::new(); n_queries];
    let mut norm_acc: Vec<MetricsAccumulator> = vec![MetricsAccumulator::new(); n_queries];
    for run in &harvested.pairs {
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

    let per_iter = (1..=n_queries)
        .map(|i| IterStats {
            n_queries: i,
            raw: raw_acc[i - 1].mean(),
            normalized: norm_acc[i - 1].mean(),
            pairs: norm_acc[i - 1].count(),
        })
        .collect();

    MethodEval {
        name: harvested.name,
        per_iter,
        selection_time: harvested.selection_time,
        runs: harvested.pairs.len(),
    }
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

/// Parallel variant of [`evaluate_selector`]: splits the entities across
/// worker threads, each with its own selector from `factory`. Workers
/// only harvest; the caller averages their pairs in entity order, so the
/// result is bit-identical to the sequential version for any thread
/// count (selectors are reset per harvest run; entity runs are
/// independent).
///
/// This is the paper's own efficiency note made concrete: "they can be
/// further improved by various techniques, such as parallelizing over
/// entities".
#[allow(clippy::too_many_arguments)]
pub fn evaluate_selector_parallel(
    ctx: &EvalContext<'_>,
    domain: Option<&DomainModel>,
    entities: &[EntityId],
    aspects: Option<&[AspectId]>,
    factory: &(dyn Fn() -> Box<dyn QuerySelector> + Sync),
    cfg: &L2qConfig,
    bounds: &IdealBounds,
    threads: usize,
) -> MethodEval {
    let threads = threads.max(1).min(entities.len().max(1));
    let chunk = entities.len().div_ceil(threads);
    let chunks: Vec<&[EntityId]> = entities.chunks(chunk.max(1)).collect();

    let partials: Vec<Harvested> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|slice| {
                scope.spawn(move |_| {
                    let mut selector = factory();
                    harvest_pairs(ctx, domain, slice, aspects, selector.as_mut(), cfg, bounds)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
    .expect("scope");

    let mut partials = partials.into_iter();
    let mut all = partials.next().expect("nothing to evaluate");
    for part in partials {
        all.pairs.extend(part.pairs);
        all.selection_time += part.selection_time;
    }
    fold_pairs(all, cfg.n_queries)
}

/// Merge per-chunk [`MethodEval`]s (pair-count weighted).
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

/// Cross-validate the seed recall parameter r0 on the validation entities:
/// pick, from `grid`, the value maximizing the mean raw metric selected by
/// `score` (paper: "We selected the seed query parameter r0 … by cross
/// validating on the validation set").
#[allow(clippy::too_many_arguments)]
pub fn validate_r0(
    ctx: &EvalContext<'_>,
    domain: Option<&DomainModel>,
    validation: &[EntityId],
    make_selector: &mut dyn FnMut() -> Box<dyn QuerySelector>,
    cfg: &L2qConfig,
    grid: &[f64],
    score: fn(&Metrics) -> f64,
) -> f64 {
    let mut best = (f64::MIN, cfg.r0);
    for &r0 in grid {
        let trial_cfg = cfg.with_r0(r0);
        let harvester = Harvester {
            corpus: ctx.corpus,
            engine: ctx.engine,
            oracle: ctx.oracle,
            domain,
            cfg: trial_cfg,
        };
        let mut acc = MetricsAccumulator::new();
        let mut selector = make_selector();
        for &e in validation {
            for a in ctx.corpus.aspects() {
                let rec = harvester.run(e, a, selector.as_mut());
                if let Some(m) = page_metrics(ctx.corpus, ctx.oracle, e, a, &rec.gathered) {
                    acc.push(m);
                }
            }
        }
        let s = score(&acc.mean());
        if s > best.0 {
            best = (s, r0);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2q_baselines::RndSelector;
    use l2q_core::{learn_domain, L2qSelector};
    use l2q_corpus::{generate, researchers_domain, CorpusConfig};

    struct Fixture {
        corpus: std::sync::Arc<Corpus>,
        oracle: RelevanceOracle,
    }

    fn fixture() -> Fixture {
        let corpus =
            std::sync::Arc::new(generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap());
        let oracle = RelevanceOracle::from_truth(&corpus);
        Fixture { corpus, oracle }
    }

    #[test]
    fn bounds_and_evaluation_have_consistent_shapes() {
        let f = fixture();
        let engine = SearchEngine::with_defaults(f.corpus.clone());
        let ctx = EvalContext {
            corpus: &f.corpus,
            engine: &engine,
            oracle: &f.oracle,
        };
        let cfg = L2qConfig::default();
        let entities: Vec<EntityId> = f.corpus.entity_ids().take(3).collect();
        let bounds = ideal_bounds(&ctx, None, &entities, &cfg);
        assert!(!bounds.is_empty());

        let mut sel = RndSelector::new(1);
        let eval = evaluate_selector(&ctx, None, &entities, None, &mut sel, &cfg, &bounds);
        assert_eq!(eval.name, "RND");
        assert_eq!(eval.per_iter.len(), cfg.n_queries);
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
        let engine = SearchEngine::with_defaults(f.corpus.clone());
        let ctx = EvalContext {
            corpus: &f.corpus,
            engine: &engine,
            oracle: &f.oracle,
        };
        let cfg = L2qConfig::default();
        let entities: Vec<EntityId> = f.corpus.entity_ids().take(2).collect();
        let bounds = ideal_bounds(&ctx, None, &entities, &cfg);
        let mut sel = IdealSelector::new();
        let eval = evaluate_selector(&ctx, None, &entities, None, &mut sel, &cfg, &bounds);
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
        let engine = SearchEngine::with_defaults(f.corpus.clone());
        let ctx = EvalContext {
            corpus: &f.corpus,
            engine: &engine,
            oracle: &f.oracle,
        };
        let cfg = L2qConfig::default();
        let entities: Vec<EntityId> = f.corpus.entity_ids().take(3).collect();
        let bounds = ideal_bounds(&ctx, None, &entities, &cfg);
        let mut sel = RndSelector::new(2);
        let eval = evaluate_selector(&ctx, None, &entities, None, &mut sel, &cfg, &bounds);
        for it in &eval.per_iter {
            assert!(it.normalized.f1 <= 1.5, "suspicious normalization");
        }
    }

    #[test]
    fn parallel_evaluation_matches_sequential() {
        let f = fixture();
        let engine = SearchEngine::with_defaults(f.corpus.clone());
        let ctx = EvalContext {
            corpus: &f.corpus,
            engine: &engine,
            oracle: &f.oracle,
        };
        let cfg = L2qConfig::default();
        let entities: Vec<EntityId> = f.corpus.entity_ids().take(4).collect();
        let bounds = ideal_bounds(&ctx, None, &entities, &cfg);

        let mut sequential_sel = L2qSelector::precision_templates();
        let seq = evaluate_selector(
            &ctx,
            None,
            &entities,
            None,
            &mut sequential_sel,
            &cfg,
            &bounds,
        );
        let bits = |m: &Metrics| [m.precision, m.recall, m.f1].map(f64::to_bits);
        for threads in 1..=4 {
            let par = evaluate_selector_parallel(
                &ctx,
                None,
                &entities,
                None,
                &|| Box::new(L2qSelector::precision_templates()),
                &cfg,
                &bounds,
                threads,
            );
            assert_eq!(seq.name, par.name);
            assert_eq!(seq.runs, par.runs, "{threads} threads");
            assert_eq!(seq.per_iter.len(), par.per_iter.len());
            for (a, b) in seq.per_iter.iter().zip(&par.per_iter) {
                assert_eq!(a.pairs, b.pairs, "{threads} threads");
                assert_eq!(bits(&a.raw), bits(&b.raw), "{threads} threads, raw");
                assert_eq!(
                    bits(&a.normalized),
                    bits(&b.normalized),
                    "{threads} threads, normalized"
                );
            }
        }
    }

    #[test]
    fn r0_validation_returns_grid_value() {
        let f = fixture();
        let engine = SearchEngine::with_defaults(f.corpus.clone());
        let ctx = EvalContext {
            corpus: &f.corpus,
            engine: &engine,
            oracle: &f.oracle,
        };
        let cfg = L2qConfig::default();
        let domain_entities: Vec<EntityId> = f.corpus.entity_ids().take(3).collect();
        let dm = learn_domain(&f.corpus, &domain_entities, &f.oracle, &cfg);
        let validation: Vec<EntityId> = f.corpus.entity_ids().skip(4).take(1).collect();
        let grid = [0.2, 0.6];
        let r0 = validate_r0(
            &ctx,
            Some(&dm),
            &validation,
            &mut || Box::new(L2qSelector::l2qr()),
            &cfg,
            &grid,
            |m| m.recall,
        );
        assert!(grid.contains(&r0));
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
