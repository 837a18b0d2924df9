//! Maximum-entropy (logistic regression) classifier.
//!
//! The paper's per-aspect classifiers are "based on conditional random
//! fields"; for *paragraph-level* (non-sequence) binary classification the
//! CRF reduces to exactly this log-linear model. Training is mini-epoch SGD
//! with L2 regularization over sparse binary-presence features.

use crate::classifier::{BinaryClassifier, Example};
use l2q_text::{Bow, Sym};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// Training hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct LogisticParams {
    /// SGD epochs.
    pub epochs: usize,
    /// Initial learning rate (decayed as 1/(1+t·decay)).
    pub learning_rate: f64,
    /// Learning-rate decay per epoch.
    pub decay: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for LogisticParams {
    fn default() -> Self {
        Self {
            epochs: 8,
            learning_rate: 0.5,
            decay: 0.5,
            l2: 1e-4,
            seed: 13,
        }
    }
}

/// A trained logistic-regression binary classifier (sparse weights).
#[derive(Debug, Clone)]
pub struct Logistic {
    weights: HashMap<Sym, f64>,
    bias: f64,
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl Logistic {
    /// Train with the given hyper-parameters.
    pub fn train(examples: &[Example], params: LogisticParams) -> Self {
        let mut weights: HashMap<Sym, f64> = HashMap::new();
        let mut bias = 0.0f64;
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut rng = StdRng::seed_from_u64(params.seed);

        for epoch in 0..params.epochs {
            order.shuffle(&mut rng);
            let lr = params.learning_rate / (1.0 + params.decay * epoch as f64);
            for &i in &order {
                let e = &examples[i];
                let mut z = bias;
                for (w, _) in e.bow.iter() {
                    z += weights.get(&w).copied().unwrap_or(0.0);
                }
                let y = if e.label { 1.0 } else { 0.0 };
                let err = sigmoid(z) - y;
                bias -= lr * err;
                for (w, _) in e.bow.iter() {
                    let entry = weights.entry(w).or_insert(0.0);
                    *entry -= lr * (err + params.l2 * *entry);
                }
            }
        }

        Self { weights, bias }
    }

    /// Train with default hyper-parameters.
    pub fn train_default(examples: &[Example]) -> Self {
        Self::train(examples, LogisticParams::default())
    }

    /// Raw decision score (pre-sigmoid).
    pub fn score(&self, bow: &Bow) -> f64 {
        let mut z = self.bias;
        for (w, _) in bow.iter() {
            z += self.weights.get(&w).copied().unwrap_or(0.0);
        }
        z
    }
}

impl BinaryClassifier for Logistic {
    fn prob(&self, bow: &Bow) -> f64 {
        sigmoid(self.score(bow))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::accuracy;

    fn ex(ids: &[u32], label: bool) -> Example {
        Example {
            bow: ids.iter().copied().map(Sym).collect(),
            label,
        }
    }

    fn separable() -> Vec<Example> {
        let mut data = Vec::new();
        for i in 0..20 {
            data.push(ex(&[1, 5 + (i % 3)], true));
            data.push(ex(&[2, 5 + (i % 3)], false));
        }
        data
    }

    #[test]
    fn learns_separable_data() {
        let data = separable();
        let clf = Logistic::train_default(&data);
        assert_eq!(accuracy(&clf, &data), 1.0);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn training_is_deterministic() {
        let data = separable();
        let a = Logistic::train_default(&data);
        let b = Logistic::train_default(&data);
        let bow: Bow = [Sym(1), Sym(5)].into_iter().collect();
        assert_eq!(a.prob(&bow), b.prob(&bow));
    }

    #[test]
    fn empty_training_predicts_half() {
        let clf = Logistic::train_default(&[]);
        let bow: Bow = [Sym(1)].into_iter().collect();
        assert!((clf.prob(&bow) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn class_imbalance_shifts_bias() {
        let mut data = vec![ex(&[7], false); 30];
        data.push(ex(&[7], true));
        let clf = Logistic::train_default(&data);
        let bow: Bow = [Sym(7)].into_iter().collect();
        assert!(clf.prob(&bow) < 0.5);
    }
}
