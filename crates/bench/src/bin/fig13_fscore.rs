//! Fig. 13 — F-scores of the balanced strategy L2QBAL vs LM, AQ, HR, MQ
//! across 2–5 queries, on both domains.
//!
//! L2QBAL "select\[s\] queries based on the geometric mean of the collective
//! precision and recall". Expected shape: L2QBAL consistently above every
//! baseline; the paper reports +16% over the best algorithmic baseline and
//! +10% over the manual one in average F-score — the headline numbers.

use l2q_bench::{build_domain, BenchOpts, DomainKind};
use l2q_core::Strategy;
use l2q_eval::{merge_method_evals, render_table, Method, MethodEval, Series, SplitEval};

const MAX_QUERIES: usize = 5;

/// The independent baselines, in the paper's order.
const BASELINES: [&str; 4] = ["lm", "aq", "hr", "mq"];

fn main() {
    let opts = BenchOpts::from_args();
    println!("Fig. 13 — comparison of F-scores with the balanced strategy");
    println!("(2..5 queries; normalized; {} split(s))\n", opts.splits);

    let x_labels: Vec<String> = (2..=MAX_QUERIES).map(|n| n.to_string()).collect();
    let mut headline: Vec<(String, f64, f64, f64)> = Vec::new();

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

        let l2qbal = merge_method_evals(
            &splits
                .iter()
                .map(|se| se.evaluate_l2q(Strategy::Balanced))
                .collect::<Vec<_>>(),
        );

        let mut evals: Vec<MethodEval> = vec![l2qbal];
        for name in BASELINES {
            let method = Method::named(name, 0).expect("a method in the table");
            evals.push(merge_method_evals(
                &splits
                    .iter()
                    .map(|se| se.evaluate(method))
                    .collect::<Vec<_>>(),
            ));
        }

        let rows: Vec<Series> = evals
            .iter()
            .map(|e| Series {
                label: e.name.clone(),
                values: e.per_iter[1..].iter().map(|it| it.normalized.f1).collect(),
            })
            .collect();
        println!(
            "{}",
            render_table(
                &format!("{} — normalized F-score", kind.name()),
                &x_labels,
                &rows
            )
        );

        // Headline: average F over 2..5 queries.
        let avg = |e: &MethodEval| {
            let v: Vec<f64> = e.per_iter[1..].iter().map(|it| it.normalized.f1).collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let bal = avg(&evals[0]);
        let best_algo = evals[1..4].iter().map(&avg).fold(f64::MIN, f64::max);
        let mq = avg(&evals[4]);
        headline.push((kind.name().to_string(), bal, best_algo, mq));
    }

    println!("Headline (average normalized F over 2..5 queries):");
    for (domain, bal, best_algo, mq) in &headline {
        println!(
            "  {domain}: L2QBAL={bal:.4}  best algorithmic baseline={best_algo:.4} \
             (+{:.0}%)  MQ={mq:.4} (+{:.0}%)",
            100.0 * (bal / best_algo - 1.0),
            100.0 * (bal / mq - 1.0),
        );
    }
    let n = headline.len() as f64;
    let (bal, algo, mq) = headline.iter().fold((0.0, 0.0, 0.0), |acc, h| {
        (acc.0 + h.1 / n, acc.1 + h.2 / n, acc.2 + h.3 / n)
    });
    println!(
        "  overall: L2QBAL beats best algorithmic baseline by {:.0}% (paper: 16%) \
         and MQ by {:.0}% (paper: 10%)",
        100.0 * (bal / algo - 1.0),
        100.0 * (bal / mq - 1.0),
    );

    l2q_bench::harness::emit_metrics_if_requested(&opts);
}
