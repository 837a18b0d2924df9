//! Fig. 14 — average time cost per query (seconds): selection vs fetch.
//!
//! The paper reports per-query *selection* time (CPU-bound, 1.4–2.4 s on
//! a 2.2 GHz core for their corpus scale) against *fetch* time (I/O-bound,
//! ~8–18 s of remote downloading) and concludes selection "only impose\[s\]
//! a minor overhead over the fetch time". Our selection is measured
//! directly; fetch is simulated with the paper's reported per-domain
//! latency since there is no remote server in the loop (DESIGN.md §2).

use l2q_bench::{build_domain, BenchOpts, DomainKind};
use l2q_eval::{merge_method_evals, Method, SplitEval};

/// Paper-reported fetch latency per query (seconds): researchers ~18,
/// cars ~8.
fn simulated_fetch_seconds(kind: DomainKind) -> f64 {
    match kind {
        DomainKind::Researchers => 18.0,
        DomainKind::Cars => 8.0,
    }
}

fn main() {
    let opts = BenchOpts::from_args();
    println!("Fig. 14 — average time cost per query (seconds)");
    println!("(selection measured; fetch simulated at the paper's reported latency)\n");
    println!(
        "{:12} {:>10} {:>10} {:>10} {:>12}",
        "Domain", "L2QP", "L2QR", "L2QBAL", "Fetch (sim)"
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

        let mut cols = Vec::new();
        for name in ["l2qp", "l2qr", "l2qbal"] {
            let method = Method::named(name, 0).expect("a method in the table");
            let evals: Vec<_> = splits.iter().map(|se| se.evaluate(method)).collect();
            let merged = merge_method_evals(&evals);
            cols.push(merged.selection_time_per_query().as_secs_f64());
        }

        println!(
            "{:12} {:>10.4} {:>10.4} {:>10.4} {:>12.1}",
            kind.name(),
            cols[0],
            cols[1],
            cols[2],
            simulated_fetch_seconds(kind),
        );
    }
    println!(
        "\nShape check: selection is a minor overhead relative to fetch, as in the paper.\n\
         (Absolute numbers are far below the paper's 1.4–2.4 s — our corpus slice per\n\
         entity is smaller and 2026 hardware is faster than a 2.2 GHz core from 2016.)"
    );

    l2q_bench::harness::emit_metrics_if_requested(&opts);
}
