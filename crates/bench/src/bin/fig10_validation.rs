//! Fig. 10 — validation of domain and context awareness.
//!
//! Reproduces the paper's bar chart: normalized precision of
//! {RND, P, P+q, P+t, L2QP} and normalized recall of
//! {RND, R, R+q, R+t, L2QR} on both domains at the default 3 queries.
//!
//! Expected shape (paper Sect. VI-B): P+t > P (templates help),
//! P+t > P+q (templates beat raw domain queries under entity variation),
//! L2QP > P+t (context helps); mirrored for recall.

use l2q_baselines::{DomainQuerySelector, RndSelector};
use l2q_bench::{build_domain, BenchOpts, DomainKind, SplitEval};
use l2q_core::{L2qSelector, QuerySelector, Strategy};
use l2q_eval::{merge_method_evals, render_table, MethodEval, Series};

type Factory = Box<dyn Fn() -> Box<dyn QuerySelector> + Sync>;

/// How a method is run per split.
enum Method {
    /// Fresh selector per split, with/without domain model.
    Plain(bool, Factory),
    /// Full L2Q with per-split cross-validated r0.
    L2q(Strategy),
}

/// Evaluate one method across all splits and return its merged result.
fn run_method(splits: &[SplitEval<'_>], method: &Method) -> MethodEval {
    let per_split: Vec<MethodEval> = splits
        .iter()
        .map(|se| match method {
            Method::Plain(with_domain, factory) => {
                let threads = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4);
                se.evaluate_parallel(factory.as_ref(), *with_domain, threads)
            }
            Method::L2q(strategy) => se.evaluate_l2q(*strategy),
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
            .map(|s| SplitEval::prepare(&setup, s, &opts, cfg))
            .collect();

        let precision_side: Vec<(&str, Method)> = vec![
            (
                "RND",
                Method::Plain(false, Box::new(|| Box::new(RndSelector::new(11)))),
            ),
            (
                "P",
                Method::Plain(false, Box::new(|| Box::new(L2qSelector::precision_only()))),
            ),
            (
                "P+q",
                Method::Plain(
                    true,
                    Box::new(|| Box::new(DomainQuerySelector::precision())),
                ),
            ),
            (
                "P+t",
                Method::Plain(
                    true,
                    Box::new(|| Box::new(L2qSelector::precision_templates())),
                ),
            ),
            ("L2QP", Method::L2q(Strategy::Precision)),
        ];
        let recall_side: Vec<(&str, Method)> = vec![
            (
                "RND",
                Method::Plain(false, Box::new(|| Box::new(RndSelector::new(11)))),
            ),
            (
                "R",
                Method::Plain(false, Box::new(|| Box::new(L2qSelector::recall_only()))),
            ),
            (
                "R+q",
                Method::Plain(true, Box::new(|| Box::new(DomainQuerySelector::recall()))),
            ),
            (
                "R+t",
                Method::Plain(true, Box::new(|| Box::new(L2qSelector::recall_templates()))),
            ),
            ("L2QR", Method::L2q(Strategy::Recall)),
        ];

        let mut prec_rows = Vec::new();
        for (label, method) in &precision_side {
            let merged = run_method(&splits, method);
            let at = merged.at(cfg.n_queries).expect("evaluated budget");
            prec_rows.push(Series {
                label: (*label).to_string(),
                values: vec![at.normalized.precision],
            });
        }
        let mut rec_rows = Vec::new();
        for (label, method) in &recall_side {
            let merged = run_method(&splits, method);
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
