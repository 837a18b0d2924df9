//! L2Q configuration: the paper's parameters with their published defaults.

use crate::candidates::CandidateConfig;
use crate::template::TemplateMode;
use l2q_graph::WalkConfig;

/// All knobs of the L2Q pipeline (paper Sect. VI-A "Settings").
#[derive(Clone, Copy, Debug)]
pub struct L2qConfig {
    /// Random-walk settings; `walk.alpha` is the paper's regularization
    /// parameter α = 0.15.
    pub walk: WalkConfig,
    /// Candidate enumeration settings (L = 3 etc.).
    pub candidates: CandidateConfig,
    /// Template enumeration policy.
    pub template_mode: TemplateMode,
    /// Adaptation parameter λ = 10 controlling "how much we adapt from the
    /// domain entities" (Eq. 21–22).
    pub lambda: f64,
    /// Seed-query recall parameter r0 ∈ (0, 1) — the base case of the
    /// collective-recall recursion, "chosen by cross validation".
    pub r0: f64,
    /// Number of queries per harvest beyond the seed (paper varies 2–5,
    /// default 3).
    pub n_queries: usize,
    /// Bound-and-prune the context-aware selection argmax: stop the walk
    /// solves early once certified error bounds prove the winner, instead
    /// of converging every candidate's utility to full tolerance. The
    /// pruned path certifies, never approximates — whenever the bounds
    /// cannot prove the winner it falls back to the exact solve — so the
    /// fired-query sequence stays bit-identical to the unpruned path,
    /// which the determinism suite and the selection bench keep as their
    /// reference.
    pub prune: bool,
}

impl Default for L2qConfig {
    fn default() -> Self {
        Self {
            walk: WalkConfig::default(),
            candidates: CandidateConfig::default(),
            template_mode: TemplateMode::default(),
            lambda: 10.0,
            r0: 0.3,
            n_queries: 3,
            prune: true,
        }
    }
}

impl L2qConfig {
    /// Builder-style override of the query budget.
    pub fn with_n_queries(mut self, n: usize) -> Self {
        self.n_queries = n;
        self
    }

    /// Builder-style override of the seed recall parameter.
    pub fn with_r0(mut self, r0: f64) -> Self {
        self.r0 = r0;
        self
    }

    /// Builder-style override of λ.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Builder-style override of the bound-and-prune knob.
    pub fn with_prune(mut self, on: bool) -> Self {
        self.prune = on;
        self
    }

    /// Validate ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0 < self.r0 && self.r0 < 1.0) {
            return Err(format!("r0 must be in (0,1), got {}", self.r0));
        }
        if self.lambda <= 0.0 {
            return Err(format!("lambda must be positive, got {}", self.lambda));
        }
        if self.candidates.max_len == 0 {
            return Err("max query length must be ≥ 1".into());
        }
        if self.n_queries == 0 {
            return Err("n_queries must be ≥ 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = L2qConfig::default();
        assert_eq!(c.walk.alpha, 0.15);
        assert_eq!(c.lambda, 10.0);
        assert_eq!(c.candidates.max_len, 3);
        assert_eq!(c.n_queries, 3);
        assert!(c.prune);
        c.validate().unwrap();
    }

    #[test]
    fn builders_compose() {
        let c = L2qConfig::default()
            .with_n_queries(5)
            .with_r0(0.4)
            .with_lambda(2.0);
        assert_eq!(c.n_queries, 5);
        assert_eq!(c.r0, 0.4);
        assert_eq!(c.lambda, 2.0);
        c.validate().unwrap();
    }

    #[test]
    fn bad_values_rejected() {
        assert!(L2qConfig::default().with_r0(0.0).validate().is_err());
        assert!(L2qConfig::default().with_r0(1.0).validate().is_err());
        assert!(L2qConfig::default().with_lambda(-1.0).validate().is_err());
        assert!(L2qConfig::default().with_n_queries(0).validate().is_err());
    }
}
