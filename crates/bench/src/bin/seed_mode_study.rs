//! Seed-focusing ablation (extension; DESIGN.md §5).
//!
//! The paper assumes the seed query "uniquely identifies" the target
//! entity, which our default engine realizes as a hard scope to the
//! entity's corpus slice. On a real search engine the seed is merely
//! *appended* to every query and other entities' pages can leak into the
//! results. This study compares the two modes for L2QBAL and MQ: the
//! *shape* to expect is a drop in absolute precision under SoftAppend
//! (leaked pages are irrelevant by definition) while the method ordering
//! is preserved — query selection is robust to the focusing mechanism.

use l2q_bench::{build_domain, BenchOpts, DomainKind};
use l2q_eval::{merge_method_evals, Method, SplitEval};
use l2q_retrieval::{EngineConfig, SearchEngine, SeedMode};

fn main() {
    let opts = BenchOpts::from_args();
    println!("Seed-focusing ablation — HardFilter vs SoftAppend (3 queries)\n");
    println!(
        "{:12} {:14} {:>10} {:>10} {:>10}",
        "Domain", "mode", "L2QBAL F", "MQ F", "pairs"
    );

    let l2qbal = Method::named("l2qbal", 0).expect("a method in the table");
    let mq = Method::named("mq", 0).expect("a method in the table");
    for kind in DomainKind::both() {
        let setup = build_domain(kind, &opts);
        let cfg = setup.l2q_config();
        let splits = setup.splits(&opts);

        for (label, mode) in [
            ("HardFilter", SeedMode::HardFilter),
            ("SoftAppend", SeedMode::SoftAppend),
        ] {
            let engine = SearchEngine::new(
                setup.corpus.clone(),
                EngineConfig {
                    seed_mode: mode,
                    ..EngineConfig::default()
                },
            );
            let mut bal_evals = Vec::new();
            let mut mq_evals = Vec::new();
            for split in &splits {
                let se =
                    SplitEval::prepare(&engine, &setup.oracle, split, opts.max_test_entities, cfg);
                bal_evals.push(se.evaluate(l2qbal));
                mq_evals.push(se.evaluate(mq));
            }
            let at = |evals: &[l2q_eval::MethodEval]| {
                merge_method_evals(evals)
                    .at(cfg.n_queries)
                    .map(|it| (it.normalized.f1, it.pairs))
                    .unwrap_or((0.0, 0))
            };
            let (bf, pairs) = at(&bal_evals);
            let (mf, _) = at(&mq_evals);
            println!(
                "{:12} {:14} {:>10.4} {:>10.4} {:>10}",
                kind.name(),
                label,
                bf,
                mf,
                pairs
            );
        }
    }

    l2q_bench::harness::emit_metrics_if_requested(&opts);
}
