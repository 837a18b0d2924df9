//! Fig. 12 — precision and recall vs. number of queries (2–5) for L2QP,
//! L2QR and the independent baselines LM, AQ, HR, MQ, on both domains.
//!
//! Expected shape (paper Sect. VI-C): L2QP best in precision everywhere
//! (beating the best algorithmic baseline by ~28% and MQ by ~14% on
//! average), L2QR best in recall (by ~11% and ~14%); L2QP/MQ precision
//! drifts slightly down with more queries as the pool of relevant pages
//! saturates.

use l2q_bench::{build_domain, BenchOpts, DomainKind};
use l2q_core::Strategy;
use l2q_eval::{merge_method_evals, render_table, Method, MethodEval, Series, SplitEval};

const MAX_QUERIES: usize = 5;

/// The independent baselines, in the paper's order.
const BASELINES: [&str; 4] = ["lm", "aq", "hr", "mq"];

fn main() {
    let opts = BenchOpts::from_args();
    println!("Fig. 12 — comparison of precision and recall vs number of queries");
    println!("(2..5 queries; normalized; {} split(s))\n", opts.splits);

    let x_labels: Vec<String> = (2..=MAX_QUERIES).map(|n| n.to_string()).collect();

    for kind in DomainKind::both() {
        let setup = build_domain(kind, &opts);
        let mut cfg = setup.l2q_config();
        cfg.n_queries = MAX_QUERIES;
        let splits_raw = setup.splits(&opts);
        let splits: Vec<SplitEval<'_>> = splits_raw
            .iter()
            .map(|s| {
                SplitEval::prepare(&setup.engine, &setup.oracle, s, opts.max_test_entities, cfg)
            })
            .collect();

        // L2QP / L2QR with cross-validated r0.
        let l2qp = merge_method_evals(
            &splits
                .iter()
                .map(|se| se.evaluate_l2q(Strategy::Precision))
                .collect::<Vec<_>>(),
        );
        let l2qr = merge_method_evals(
            &splits
                .iter()
                .map(|se| se.evaluate_l2q(Strategy::Recall))
                .collect::<Vec<_>>(),
        );

        let mut evals: Vec<MethodEval> = vec![l2qp, l2qr];
        for name in BASELINES {
            let method = Method::named(name, 0).expect("a method in the table");
            evals.push(merge_method_evals(
                &splits
                    .iter()
                    .map(|se| se.evaluate(method))
                    .collect::<Vec<_>>(),
            ));
        }

        let series = |metric: fn(&l2q_eval::IterStats) -> f64| -> Vec<Series> {
            evals
                .iter()
                .map(|e| Series {
                    label: e.name.clone(),
                    values: e.per_iter[1..].iter().map(metric).collect(),
                })
                .collect()
        };

        println!(
            "{}",
            render_table(
                &format!("(a) {} — normalized precision", kind.name()),
                &x_labels,
                &series(|it| it.normalized.precision)
            )
        );
        println!(
            "{}",
            render_table(
                &format!("(b) {} — normalized recall", kind.name()),
                &x_labels,
                &series(|it| it.normalized.recall)
            )
        );
    }

    l2q_bench::harness::emit_metrics_if_requested(&opts);
}
