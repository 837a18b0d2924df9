//! Fig. 10 — validation of domain and context awareness.
//!
//! Reproduces the paper's bar chart: normalized precision of
//! {RND, P, P+q, P+t, L2QP} and normalized recall of
//! {RND, R, R+q, R+t, L2QR} on both domains at the default 3 queries.
//!
//! Expected shape (paper Sect. VI-B): P+t > P (templates help),
//! P+t > P+q (templates beat raw domain queries under entity variation),
//! L2QP > P+t (context helps); mirrored for recall.

use l2q_bench::{build_domain, BenchOpts, DomainKind};
use l2q_core::Strategy;
use l2q_eval::{merge_method_evals, render_table, Method, MethodEval, Series, SplitEval};

/// RND's seed.
const RND_SEED: u64 = 11;

/// How a method is run per split.
enum Run {
    /// A method from the table at the split's configuration.
    Plain(&'static str),
    /// Full L2Q with per-split cross-validated r0.
    L2q(Strategy),
}

/// Evaluate one method across all splits and return its merged result.
fn run_method(splits: &[SplitEval<'_>], run: &Run) -> MethodEval {
    let per_split: Vec<MethodEval> = splits
        .iter()
        .map(|se| match run {
            Run::Plain(name) => {
                se.evaluate(Method::named(name, RND_SEED).expect("a method in the table"))
            }
            Run::L2q(strategy) => se.evaluate_l2q(*strategy),
        })
        .collect();
    merge_method_evals(&per_split)
}

fn main() {
    let opts = BenchOpts::from_args();
    println!("Fig. 10 — validation of domain and context awareness");
    println!(
        "(normalized against the ideal solution; 3 queries; {} split(s))\n",
        opts.splits
    );

    for kind in DomainKind::both() {
        let setup = build_domain(kind, &opts);
        let cfg = setup.l2q_config();
        let raw_splits = setup.splits(&opts);
        let splits: Vec<SplitEval<'_>> = raw_splits
            .iter()
            .map(|s| {
                SplitEval::prepare(&setup.engine, &setup.oracle, s, opts.max_test_entities, cfg)
            })
            .collect();

        let precision_side = [
            ("RND", Run::Plain("rnd")),
            ("P", Run::Plain("p")),
            ("P+q", Run::Plain("p+q")),
            ("P+t", Run::Plain("p+t")),
            ("L2QP", Run::L2q(Strategy::Precision)),
        ];
        let recall_side = [
            ("RND", Run::Plain("rnd")),
            ("R", Run::Plain("r")),
            ("R+q", Run::Plain("r+q")),
            ("R+t", Run::Plain("r+t")),
            ("L2QR", Run::L2q(Strategy::Recall)),
        ];

        let mut prec_rows = Vec::new();
        for (label, run) in &precision_side {
            let merged = run_method(&splits, run);
            let at = merged.at(cfg.n_queries).expect("evaluated budget");
            prec_rows.push(Series {
                label: (*label).to_string(),
                values: vec![at.normalized.precision],
            });
        }
        let mut rec_rows = Vec::new();
        for (label, run) in &recall_side {
            let merged = run_method(&splits, run);
            let at = merged.at(cfg.n_queries).expect("evaluated budget");
            rec_rows.push(Series {
                label: (*label).to_string(),
                values: vec![at.normalized.recall],
            });
        }

        println!(
            "{}",
            render_table(
                &format!("(a) {} — normalized precision", kind.name()),
                &["precision".into()],
                &prec_rows
            )
        );
        println!(
            "{}",
            render_table(
                &format!("(b) {} — normalized recall", kind.name()),
                &["recall".into()],
                &rec_rows
            )
        );
    }

    l2q_bench::harness::emit_metrics_if_requested(&opts);
}
