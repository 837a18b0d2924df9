//! Ablation study over the design choices DESIGN.md §5 calls out:
//!
//! * `page_template_balance` — the paper's "balanced influence" (0.5)
//!   between a query's page-side and template-side estimates, vs leaning
//!   on either side;
//! * `missing_side_is_zero` — whether a query lacking one neighbor class
//!   is damped (the plain reading of "taking their average") or the
//!   present side is renormalized to full weight;
//! * `TemplateMode` — one maximal-abstraction template per query vs every
//!   subset of typed positions;
//! * λ — the domain-adaptation strength (paper: 10).
//!
//! For each variant, reports L2QBAL's normalized F at the default 3-query
//! budget on the researchers domain.

use l2q_bench::{build_domain, BenchOpts, DomainKind};
use l2q_core::TemplateMode;
use l2q_eval::{Method, SplitEval};

fn main() {
    let opts = BenchOpts::from_args();
    let setup = build_domain(DomainKind::Researchers, &opts);
    let base_cfg = setup.l2q_config();
    let splits = setup.splits(&opts);
    let l2qbal = Method::named("l2qbal", 0).expect("a method in the table");

    println!("Ablation study — L2QBAL normalized F on researchers, 3 queries\n");
    println!("{:44} {:>8}", "variant", "F");

    let run = |label: &str, cfg: l2q_core::L2qConfig| {
        let mut f_sum = 0.0f64;
        let mut n = 0.0f64;
        for split in &splits {
            let se = SplitEval::prepare(
                &setup.engine,
                &setup.oracle,
                split,
                opts.max_test_entities,
                cfg,
            );
            let eval = se.evaluate(l2qbal);
            if let Some(it) = eval.at(cfg.n_queries) {
                f_sum += it.normalized.f1;
                n += 1.0;
            }
        }
        println!("{:44} {:>8.4}", label, f_sum / n.max(1.0));
    };

    run("baseline (paper defaults)", base_cfg);

    for balance in [0.0, 0.25, 0.75, 1.0] {
        let mut cfg = base_cfg;
        cfg.walk.page_template_balance = balance;
        run(&format!("page/template balance = {balance}"), cfg);
    }

    {
        let mut cfg = base_cfg;
        cfg.walk.missing_side_is_zero = false;
        run("missing side renormalized (not damped)", cfg);
    }

    {
        let mut cfg = base_cfg;
        cfg.template_mode = TemplateMode::AllSubsets;
        run("templates: all typed-position subsets", cfg);
    }

    for lambda in [1.0, 3.0, 30.0] {
        let cfg = base_cfg.with_lambda(lambda);
        run(&format!("lambda = {lambda}"), cfg);
    }

    for alpha in [0.05, 0.3, 0.5] {
        let mut cfg = base_cfg;
        cfg.walk.alpha = alpha;
        run(&format!("alpha = {alpha}"), cfg);
    }

    l2q_bench::harness::emit_metrics_if_requested(&opts);
}
