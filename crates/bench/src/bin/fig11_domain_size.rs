//! Fig. 11 — effect of domain size on the full approaches.
//!
//! Reproduces the paper's curves: normalized precision of L2QP and
//! normalized recall of L2QR as the fraction of domain entities used in
//! the domain phase grows through 0%, 5%, 10%, 25%, 100%. Expected shape:
//! monotone-ish improvement, with the steepest gain between 0% and 5% —
//! "even a small number of domain entities can be quite useful".

use l2q_bench::{build_domain, BenchOpts, DomainKind};
use l2q_core::Strategy;
use l2q_eval::{merge_method_evals, render_table, Series, SplitEval};

const FRACTIONS: [f64; 5] = [0.0, 0.05, 0.10, 0.25, 1.0];

fn main() {
    let opts = BenchOpts::from_args();
    println!("Fig. 11 — effect of domain size on full approaches");
    println!(
        "(domain-entity fraction 0%..100%; 3 queries; {} split(s))\n",
        opts.splits
    );

    let x_labels: Vec<String> = FRACTIONS
        .iter()
        .map(|f| format!("{:.0}%", f * 100.0))
        .collect();

    let mut prec_rows: Vec<Series> = Vec::new();
    let mut rec_rows: Vec<Series> = Vec::new();

    for kind in DomainKind::both() {
        let setup = build_domain(kind, &opts);
        let cfg = setup.l2q_config();
        let splits = setup.splits(&opts);

        let mut prec_values = Vec::with_capacity(FRACTIONS.len());
        let mut rec_values = Vec::with_capacity(FRACTIONS.len());
        for &fraction in &FRACTIONS {
            let (evals_p, evals_r): (Vec<_>, Vec<_>) = splits
                .iter()
                .map(|s| {
                    let sub = s.with_domain_fraction(fraction);
                    let se = SplitEval::prepare(
                        &setup.engine,
                        &setup.oracle,
                        &sub,
                        opts.max_test_entities,
                        cfg,
                    );
                    (
                        se.evaluate_l2q(Strategy::Precision),
                        se.evaluate_l2q(Strategy::Recall),
                    )
                })
                .unzip();
            prec_values.push(
                merge_method_evals(&evals_p)
                    .at(cfg.n_queries)
                    .map(|it| it.normalized.precision)
                    .unwrap_or(0.0),
            );
            rec_values.push(
                merge_method_evals(&evals_r)
                    .at(cfg.n_queries)
                    .map(|it| it.normalized.recall)
                    .unwrap_or(0.0),
            );
        }
        prec_rows.push(Series {
            label: kind.name().to_string(),
            values: prec_values,
        });
        rec_rows.push(Series {
            label: kind.name().to_string(),
            values: rec_values,
        });
    }

    println!(
        "{}",
        render_table("(a) Precision for L2QP", &x_labels, &prec_rows)
    );
    println!(
        "{}",
        render_table("(b) Recall for L2QR", &x_labels, &rec_rows)
    );

    l2q_bench::harness::emit_metrics_if_requested(&opts);
}
