//! Baseline shoot-out: run every selector in the repository on the same
//! harvesting task, evaluated exactly like the paper (normalized against
//! the infeasible ideal upper bound), and print a leaderboard.
//!
//! ```text
//! cargo run --release --example baseline_shootout
//! ```
//!
//! Compares the full L2Q family (L2QP, L2QR, L2QBAL), the paper's
//! ablations (P, R, P+q, R+q, P+t, R+t), the published baselines
//! (LM, AQ, HR, MQ) and a random reference (RND), averaged over test
//! researchers and all seven aspects.

use l2q::aspect::{train_aspect_models, RelevanceOracle, TrainConfig};
use l2q::core::L2qConfig;
use l2q::corpus::{generate, researchers_domain, CorpusConfig};
use l2q::eval::{make_splits, Method, SplitEval};
use l2q::retrieval::SearchEngine;

fn main() {
    let corpus = generate(&researchers_domain(), &CorpusConfig::with_entities(80))
        .expect("corpus generation");
    let corpus = std::sync::Arc::new(corpus);
    let models = train_aspect_models(&corpus, &TrainConfig::default());
    let oracle = RelevanceOracle::from_models(&corpus, &models);
    let engine = SearchEngine::with_defaults(corpus.clone());
    let cfg = L2qConfig::default();

    // The paper's protocol: half the entities are peers (domain phase),
    // a quarter test; normalize against the ideal solution.
    let split = make_splits(corpus.entities.len(), 1, 7)
        .pop()
        .expect("split");
    let se = SplitEval::prepare(&engine, &oracle, &split, 10, cfg);

    println!(
        "shoot-out: {} test entities × {} aspects, {} queries, normalized vs ideal\n",
        se.test_entities().len(),
        corpus.aspect_count(),
        cfg.n_queries
    );

    let mut board: Vec<(String, f64, f64, f64)> = Vec::new();
    for name in Method::names() {
        let eval = se.evaluate(Method::named(name, 7).expect("a method in the table"));
        if let Some(it) = eval.at(cfg.n_queries) {
            board.push((
                eval.name.clone(),
                it.normalized.precision,
                it.normalized.recall,
                it.normalized.f1,
            ));
        }
    }

    board.sort_by(|a, b| b.3.partial_cmp(&a.3).unwrap_or(std::cmp::Ordering::Equal));
    println!(
        "{:10} {:>10} {:>8} {:>8}",
        "method", "precision", "recall", "F1"
    );
    for (name, p, r, f) in &board {
        println!("{name:10} {p:>10.3} {r:>8.3} {f:>8.3}");
    }
    println!("\n(IDEAL fires every candidate through the engine — an infeasible upper bound;\n normalized against itself it scores 1.0 by construction.)");
}
