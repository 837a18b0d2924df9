//! Headline-shape regression test.
//!
//! Asserts the orderings the reproduction stands on, at a reduced scale:
//! L2QBAL must beat RND and the template-free ablation on normalized F,
//! and L2QP must beat every domain-blind baseline on normalized
//! precision. Ignored by default (it runs a full evaluation); execute
//! with:
//!
//! ```text
//! cargo test --release --test headline_shape -- --ignored
//! ```

use l2q::aspect::{train_aspect_models, RelevanceOracle, TrainConfig};
use l2q::core::L2qConfig;
use l2q::corpus::{generate, researchers_domain, CorpusConfig};
use l2q::eval::{make_splits, Method, SplitEval};
use l2q::retrieval::SearchEngine;

#[test]
#[ignore = "full evaluation; run in release with -- --ignored"]
fn l2q_beats_uninformed_and_template_free_baselines() {
    let corpus = generate(&researchers_domain(), &CorpusConfig::with_entities(60)).unwrap();
    let corpus = std::sync::Arc::new(corpus);
    let models = train_aspect_models(&corpus, &TrainConfig::default());
    let oracle = RelevanceOracle::from_models(&corpus, &models);
    let engine = SearchEngine::with_defaults(corpus.clone());
    let cfg = L2qConfig::default();

    let split = make_splits(corpus.entities.len(), 1, 3).pop().unwrap();
    let se = SplitEval::prepare(&engine, &oracle, &split, 8, cfg);

    let run = |name: &str| {
        let eval = se.evaluate(Method::named(name, 5).unwrap());
        let it = eval.at(cfg.n_queries).expect("default budget");
        (it.normalized.precision, it.normalized.f1)
    };

    let (_, f_bal) = run("l2qbal");
    let (p_l2qp, _) = run("l2qp");
    let (p_rnd, f_rnd) = run("rnd");
    let (p_lm, _) = run("lm");
    let (_, f_p_only) = run("p");

    assert!(
        f_bal > f_rnd,
        "L2QBAL F ({f_bal:.3}) must beat RND ({f_rnd:.3})"
    );
    assert!(
        f_bal > f_p_only,
        "L2QBAL F ({f_bal:.3}) must beat the template-free ablation ({f_p_only:.3})"
    );
    assert!(
        p_l2qp > p_rnd && p_l2qp > p_lm,
        "L2QP precision ({p_l2qp:.3}) must beat RND ({p_rnd:.3}) and LM ({p_lm:.3})"
    );
}
