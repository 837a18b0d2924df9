//! Page-set quality metrics.
//!
//! "We evaluate the retrieved pages in terms of their actual precision and
//! recall (and eventually F-score) for every target entity and aspect"
//! (paper Sect. VI-A). The relevance universe of an (entity, aspect) pair
//! is the oracle-materialized Y over the entity's corpus slice.

use l2q_aspect::RelevanceOracle;
use l2q_corpus::{AspectId, Corpus, EntityId, PageId};
use std::collections::HashSet;

/// Precision / recall / F1 of a gathered page set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Fraction of gathered pages that are relevant.
    pub precision: f64,
    /// Fraction of the entity's relevant pages that were gathered.
    pub recall: f64,
    /// Harmonic mean.
    pub f1: f64,
}

impl Metrics {
    /// Compose from precision and recall.
    pub fn new(precision: f64, recall: f64) -> Self {
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        Self {
            precision,
            recall,
            f1,
        }
    }
}

/// Metrics of `gathered` w.r.t. the oracle's relevant set for
/// (entity, aspect). Returns `None` when the entity has no relevant pages
/// at all (recall undefined — the pair is skipped in averaging, which is
/// what per-entity normalization requires anyway).
pub fn page_metrics(
    corpus: &Corpus,
    oracle: &RelevanceOracle,
    entity: EntityId,
    aspect: AspectId,
    gathered: &[PageId],
) -> Option<Metrics> {
    let relevant: HashSet<PageId> = oracle
        .relevant_pages(corpus, entity, aspect)
        .into_iter()
        .collect();
    if relevant.is_empty() {
        return None;
    }
    if gathered.is_empty() {
        return Some(Metrics::new(0.0, 0.0));
    }
    let distinct: HashSet<PageId> = gathered.iter().copied().collect();
    let hit = distinct.iter().filter(|p| relevant.contains(p)).count();
    let precision = hit as f64 / distinct.len() as f64;
    let recall = hit as f64 / relevant.len() as f64;
    Some(Metrics::new(precision, recall))
}

/// A running average over optional metric observations.
#[derive(Clone, Copy, Debug, Default)]
pub struct MetricsAccumulator {
    sum_p: f64,
    sum_r: f64,
    sum_f: f64,
    n: usize,
}

impl MetricsAccumulator {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one observation.
    pub fn push(&mut self, m: Metrics) {
        self.sum_p += m.precision;
        self.sum_r += m.recall;
        self.sum_f += m.f1;
        self.n += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.n
    }

    /// The mean metrics (zeros if empty).
    pub fn mean(&self) -> Metrics {
        if self.n == 0 {
            return Metrics::default();
        }
        let n = self.n as f64;
        Metrics {
            precision: self.sum_p / n,
            recall: self.sum_r / n,
            f1: self.sum_f / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2q_corpus::{generate, researchers_domain, CorpusConfig};

    #[test]
    fn f1_is_harmonic_mean() {
        let m = Metrics::new(0.5, 1.0);
        assert!((m.f1 - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(Metrics::new(0.0, 0.0).f1, 0.0);
    }

    #[test]
    fn metrics_against_truth_oracle() {
        let c = generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap();
        let o = RelevanceOracle::from_truth(&c);
        let e = EntityId(0);
        let a = c.aspect_by_name("RESEARCH").unwrap();
        let relevant = o.relevant_pages(&c, e, a);
        assert!(!relevant.is_empty());

        // Gathering exactly the relevant set gives perfect metrics.
        let m = page_metrics(&c, &o, e, a, &relevant).unwrap();
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f1, 1.0);

        // Gathering everything: recall 1, precision = share of relevant.
        let all: Vec<PageId> = c.pages_of(e).iter().map(|p| p.id).collect();
        let m = page_metrics(&c, &o, e, a, &all).unwrap();
        assert_eq!(m.recall, 1.0);
        assert!((m.precision - relevant.len() as f64 / all.len() as f64).abs() < 1e-12);

        // Empty gathering.
        let m = page_metrics(&c, &o, e, a, &[]).unwrap();
        assert_eq!(m.precision, 0.0);
        assert_eq!(m.recall, 0.0);
    }

    #[test]
    fn duplicates_in_gathered_do_not_inflate() {
        let c = generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap();
        let o = RelevanceOracle::from_truth(&c);
        let e = EntityId(1);
        let a = c.aspect_by_name("CONTACT").unwrap();
        let relevant = o.relevant_pages(&c, e, a);
        let doubled: Vec<PageId> = relevant.iter().chain(relevant.iter()).copied().collect();
        let m = page_metrics(&c, &o, e, a, &doubled).unwrap();
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
    }

    #[test]
    fn accumulator_averages_and_counts() {
        let mut a = MetricsAccumulator::new();
        a.push(Metrics::new(1.0, 0.0));
        a.push(Metrics::new(0.0, 1.0));
        let m = a.mean();
        assert!((m.precision - 0.5).abs() < 1e-12);
        assert!((m.recall - 0.5).abs() < 1e-12);
        assert_eq!(a.count(), 2);

        assert_eq!(MetricsAccumulator::new().mean(), Metrics::default());
    }
}
