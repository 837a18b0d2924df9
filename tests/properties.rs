//! Cross-crate property-based tests (proptest) on the system's key
//! invariants.

use l2q::core::Query;
use l2q::graph::{solve, GraphBuilder, Phase, Regularization, UtilityKind, WalkConfig};
use l2q::text::{ngrams, Bow, Sym};
use proptest::prelude::*;

/// Generate a random bipartite page–query graph plus a relevance vector.
fn arb_graph() -> impl Strategy<Value = (Vec<(u32, u32)>, usize, usize, Vec<bool>)> {
    (2usize..12, 2usize..20).prop_flat_map(|(n_pages, n_queries)| {
        let edges = proptest::collection::vec(
            (0..n_pages as u32, 0..n_queries as u32),
            1..(n_pages * n_queries).min(60),
        );
        let relevant = proptest::collection::vec(any::<bool>(), n_pages);
        (edges, Just(n_pages), Just(n_queries), relevant)
    })
}

proptest! {
    /// Probabilistic precision lives in [0, 1] for any graph and any
    /// 0/1 page regularization.
    #[test]
    fn precision_is_bounded((edges, n_pages, n_queries, relevant) in arb_graph()) {
        let mut b = GraphBuilder::new(n_pages, n_queries, 0);
        for (p, q) in &edges {
            b.page_query(*p, *q);
        }
        let g = b.build();
        let reg = Regularization::precision_from_relevance(&g, &relevant);
        let u = solve(&g, UtilityKind::Precision, &reg, &WalkConfig::default(), Phase::Entity);
        for v in u.pages.iter().chain(&u.queries) {
            prop_assert!((0.0..=1.0 + 1e-9).contains(v), "precision {v} out of [0,1]");
        }
    }

    /// The recall walk never creates mass: total query recall is bounded
    /// by the unit mass injected by regularization.
    #[test]
    fn recall_mass_is_conserved((edges, n_pages, n_queries, relevant) in arb_graph()) {
        let mut b = GraphBuilder::new(n_pages, n_queries, 0);
        for (p, q) in &edges {
            b.page_query(*p, *q);
        }
        let g = b.build();
        let reg = Regularization::recall_from_relevance(&g, &relevant);
        let u = solve(&g, UtilityKind::Recall, &reg, &WalkConfig::default(), Phase::Entity);
        let total: f64 = u.queries.iter().sum();
        prop_assert!(total <= 1.0 + 1e-6, "query recall mass {total} > 1");
        for v in u.pages.iter().chain(&u.queries) {
            prop_assert!(*v >= 0.0);
        }
    }

    /// An all-relevant regularization dominates any sub-relevance:
    /// adding relevant pages never lowers any query's precision... not a
    /// theorem in general, but scaling the regularization up scales the
    /// fixpoint up (linearity in Û).
    #[test]
    fn fixpoint_is_linear_in_regularization((edges, n_pages, n_queries, relevant) in arb_graph()) {
        let mut b = GraphBuilder::new(n_pages, n_queries, 0);
        for (p, q) in &edges {
            b.page_query(*p, *q);
        }
        let g = b.build();
        let reg1 = Regularization::precision_from_relevance(&g, &relevant);
        let mut reg2 = reg1.clone();
        for v in &mut reg2.pages {
            *v *= 2.0;
        }
        let cfg = WalkConfig { max_iters: 300, ..Default::default() };
        let u1 = solve(&g, UtilityKind::Precision, &reg1, &cfg, Phase::Entity);
        let u2 = solve(&g, UtilityKind::Precision, &reg2, &cfg, Phase::Entity);
        for (a, b) in u1.queries.iter().zip(&u2.queries) {
            prop_assert!((2.0 * a - b).abs() < 1e-6, "not linear: {a} vs {b}");
        }
    }

    /// Bow::contains_all agrees with element-wise tf comparison.
    #[test]
    fn bow_containment_semantics(big in proptest::collection::vec(0u32..12, 0..30),
                                 small in proptest::collection::vec(0u32..12, 0..8)) {
        let big_bow: Bow = big.iter().map(|&i| Sym(i)).collect();
        let small_bow: Bow = small.iter().map(|&i| Sym(i)).collect();
        let expected = (0u32..12).all(|w| big_bow.tf(Sym(w)) >= small_bow.tf(Sym(w)));
        prop_assert_eq!(big_bow.contains_all(&small_bow), expected);
    }

    /// Every n-gram of a word sequence is contained in the sequence's bag.
    #[test]
    fn ngrams_are_contained_in_page_bag(words in proptest::collection::vec(0u32..50, 0..40),
                                        max_len in 1usize..5) {
        let syms: Vec<Sym> = words.iter().map(|&i| Sym(i)).collect();
        let bag = Bow::from_words(&syms);
        for gram in ngrams(&syms, max_len) {
            let gram_bag = Bow::from_words(gram);
            prop_assert!(bag.contains_all(&gram_bag));
        }
    }

    /// Query canonicalization: construction order never matters.
    #[test]
    fn query_is_order_insensitive(mut words in proptest::collection::vec(0u32..100, 1..6)) {
        let syms: Vec<Sym> = words.iter().map(|&i| Sym(i)).collect();
        let q1 = Query::new(&syms);
        words.reverse();
        let syms_rev: Vec<Sym> = words.iter().map(|&i| Sym(i)).collect();
        let q2 = Query::new(&syms_rev);
        prop_assert_eq!(q1, q2);
    }
}
