//! Per-aspect classifier training over a corpus.
//!
//! Mirrors the paper's setup: "we trained one classifier for each Y …
//! which can classify a paragraph as relevant to Y or not. Our aspect
//! classifiers can achieve a high level of accuracy … and thus their
//! output is taken as the ground truth." (Sect. VI-A, Fig. 9.)
//!
//! Training data are the corpus's labelled paragraphs; a held-out split
//! measures the accuracy reported in the Fig. 9 reproduction, and the
//! trained model then materializes Y over *all* pages via the
//! [`crate::oracle::RelevanceOracle`].

use crate::classifier::{accuracy, prf, BinaryClassifier, Example, Prf};
use crate::logistic::{Logistic, LogisticParams};
use l2q_corpus::{AspectId, Corpus};
use l2q_text::Bow;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training configuration of the logistic model (the CRF stand-in).
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Fraction of paragraphs used for training (rest evaluates accuracy).
    pub train_fraction: f64,
    /// Cap on negative examples per positive in the *training* split
    /// (evaluation is never subsampled).
    pub max_neg_per_pos: usize,
    /// Split/shuffle seed.
    pub seed: u64,
    /// Logistic hyper-parameters.
    pub logistic: LogisticParams,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            train_fraction: 0.7,
            max_neg_per_pos: 4,
            seed: 17,
            logistic: LogisticParams::default(),
        }
    }
}

/// A trained per-aspect model with its held-out quality metrics.
pub struct AspectModel {
    /// The aspect this model detects.
    pub aspect: AspectId,
    /// Held-out accuracy (the Fig. 9 "Accuracy" column).
    pub accuracy: f64,
    /// Held-out positive-class precision/recall/F1.
    pub prf: Prf,
    /// Number of training examples used.
    pub train_size: usize,
    /// Number of evaluation examples.
    pub eval_size: usize,
    clf: Logistic,
}

impl BinaryClassifier for AspectModel {
    fn prob(&self, bow: &Bow) -> f64 {
        self.clf.prob(bow)
    }
}

/// Train one model per aspect of the corpus.
pub fn train_aspect_models(corpus: &Corpus, config: &TrainConfig) -> Vec<AspectModel> {
    corpus
        .aspects()
        .map(|a| train_one(corpus, a, config))
        .collect()
}

/// Train the model for a single aspect.
pub fn train_one(corpus: &Corpus, aspect: AspectId, config: &TrainConfig) -> AspectModel {
    // Collect all paragraphs as labelled examples.
    let mut examples: Vec<Example> = Vec::new();
    for page in &corpus.pages {
        for para in &page.paragraphs {
            examples.push(Example {
                bow: Bow::from_words(&para.words),
                label: para.label.is_relevant_to(aspect),
            });
        }
    }

    let mut rng = StdRng::seed_from_u64(config.seed ^ u64::from(aspect.0));
    examples.shuffle(&mut rng);
    let split = ((examples.len() as f64) * config.train_fraction).round() as usize;
    let (train_all, eval) = examples.split_at(split.min(examples.len()));

    // Subsample training negatives for balance and speed.
    let n_pos = train_all.iter().filter(|e| e.label).count();
    let max_neg = n_pos.max(1) * config.max_neg_per_pos;
    let mut train: Vec<Example> = Vec::with_capacity(n_pos + max_neg);
    let mut neg_taken = 0usize;
    for e in train_all {
        if e.label {
            train.push(e.clone());
        } else if neg_taken < max_neg {
            train.push(e.clone());
            neg_taken += 1;
        }
    }

    let clf = Logistic::train(&train, config.logistic);

    let model = AspectModel {
        aspect,
        accuracy: 0.0,
        prf: Prf::default(),
        train_size: train.len(),
        eval_size: eval.len(),
        clf,
    };
    let acc = accuracy(&model, eval);
    let metrics = prf(&model, eval);
    AspectModel {
        accuracy: acc,
        prf: metrics,
        ..model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2q_corpus::{generate, researchers_domain, CorpusConfig};

    fn corpus() -> Corpus {
        generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap()
    }

    #[test]
    fn trained_models_are_accurate_like_fig9() {
        let c = corpus();
        let models = train_aspect_models(&c, &TrainConfig::default());
        assert_eq!(models.len(), c.aspect_count());
        for m in &models {
            assert!(
                m.accuracy >= 0.85,
                "aspect {} accuracy {:.3} below the paper's weakest classifier",
                c.aspect_name(m.aspect),
                m.accuracy
            );
            assert!(m.train_size > 0);
            assert!(m.eval_size > 0);
        }
    }

    #[test]
    fn training_is_deterministic() {
        let c = corpus();
        let research = c.aspect_by_name("RESEARCH").unwrap();
        let a = train_one(&c, research, &TrainConfig::default());
        let b = train_one(&c, research, &TrainConfig::default());
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.prf, b.prf);
    }
}
