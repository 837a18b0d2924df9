//! Property-based tests for the classifier substrate.

use l2q_aspect::{accuracy, prf, BinaryClassifier, Example, Logistic};
use l2q_text::{Bow, Sym};
use proptest::prelude::*;

fn arb_examples() -> impl Strategy<Value = Vec<Example>> {
    proptest::collection::vec(
        (proptest::collection::vec(0u32..20, 1..12), any::<bool>()),
        1..40,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(ids, label)| Example {
                bow: ids.into_iter().map(Sym).collect(),
                label,
            })
            .collect()
    })
}

proptest! {
    /// The classifier always emits probabilities in [0, 1] on arbitrary
    /// training data and arbitrary inputs.
    #[test]
    fn probabilities_are_bounded(data in arb_examples(),
                                 input in proptest::collection::vec(0u32..24, 0..16)) {
        let bow: Bow = input.into_iter().map(Sym).collect();
        let p = Logistic::train_default(&data).prob(&bow);
        prop_assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        prop_assert!(p.is_finite());
    }

    /// Accuracy and PRF metrics are within [0, 1] and mutually consistent:
    /// accuracy of a constant-false classifier equals the negative rate.
    #[test]
    fn metrics_are_consistent(data in arb_examples()) {
        struct Never;
        impl BinaryClassifier for Never {
            fn prob(&self, _: &Bow) -> f64 { 0.0 }
        }
        let acc = accuracy(&Never, &data);
        let neg_rate = data.iter().filter(|e| !e.label).count() as f64 / data.len() as f64;
        prop_assert!((acc - neg_rate).abs() < 1e-12);
        let m = prf(&Never, &data);
        prop_assert_eq!(m.precision, 0.0);
        prop_assert_eq!(m.recall, 0.0);
    }

    /// Perfectly separable data (a disjoint marker word per class) is
    /// learned exactly.
    #[test]
    fn separable_data_is_learned(n in 4usize..30) {
        let mut data = Vec::new();
        for i in 0..n {
            data.push(Example {
                bow: [Sym(1), Sym(10 + (i % 4) as u32)].into_iter().collect(),
                label: true,
            });
            data.push(Example {
                bow: [Sym(2), Sym(10 + (i % 4) as u32)].into_iter().collect(),
                label: false,
            });
        }
        let lr = Logistic::train_default(&data);
        prop_assert_eq!(accuracy(&lr, &data), 1.0);
    }
}
