//! Fig. 12 — precision and recall vs. number of queries (2–5) for L2QP,
//! L2QR and the independent baselines LM, AQ, HR, MQ, on both domains.
//!
//! Expected shape (paper Sect. VI-C): L2QP best in precision everywhere
//! (beating the best algorithmic baseline by ~28% and MQ by ~14% on
//! average), L2QR best in recall (by ~11% and ~14%); L2QP/MQ precision
//! drifts slightly down with more queries as the pool of relevant pages
//! saturates.

use l2q_baselines::{AqSelector, HrSelector, LmSelector, MqSelector};
use l2q_bench::{build_domain, BenchOpts, DomainKind, SplitEval};
use l2q_core::{QuerySelector, Strategy};
use l2q_eval::{merge_method_evals, render_table, MethodEval, Series};

const MAX_QUERIES: usize = 5;

type Factory = Box<dyn Fn() -> Box<dyn QuerySelector> + Sync>;

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
            .map(|s| SplitEval::prepare(&setup, s, &opts, cfg))
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

        // Baselines (HR gets the domain model — "only HR exploits domain
        // data"; LM/AQ/MQ do not).
        let baselines: Vec<(bool, Factory)> = vec![
            (false, Box::new(|| Box::new(LmSelector::new()))),
            (false, Box::new(|| Box::new(AqSelector::new()))),
            (true, Box::new(|| Box::new(HrSelector::new()))),
            (false, Box::new(|| Box::new(MqSelector::new()))),
        ];
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let mut evals: Vec<MethodEval> = vec![l2qp, l2qr];
        for (with_domain, factory) in &baselines {
            let merged = merge_method_evals(
                &splits
                    .iter()
                    .map(|se| se.evaluate_parallel(factory.as_ref(), *with_domain, threads))
                    .collect::<Vec<_>>(),
            );
            evals.push(merged);
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
