//! Criterion bench: random-walk solver scaling on synthetic reinforcement
//! graphs (the per-iteration cost is O(|V| + |E|), paper Sect. III).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use l2q_graph::{solve, GraphBuilder, Phase, Regularization, UtilityKind, WalkConfig};

/// Build a synthetic tripartite graph: `n` pages, 4n queries, n/2
/// templates, ~3 edges per query.
fn synthetic(n: usize) -> l2q_graph::ReinforcementGraph {
    let n_pages = n;
    let n_queries = 4 * n;
    let n_templates = (n / 2).max(1);
    let mut b = GraphBuilder::new(n_pages, n_queries, n_templates);
    let mut x = 0x2545F4914F6CDD1Du64;
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for q in 0..n_queries {
        let deg = 1 + (rand() % 3) as usize;
        for _ in 0..deg {
            b.page_query((rand() % n_pages as u64) as u32, q as u32);
        }
        if rand() % 2 == 0 {
            b.query_template(q as u32, (rand() % n_templates as u64) as u32);
        }
    }
    b.build()
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_solve");
    for n in [100usize, 1_000, 10_000] {
        let g = synthetic(n);
        let relevant: Vec<bool> = (0..g.n_pages()).map(|i| i % 3 == 0).collect();
        let cfg = WalkConfig::default();
        group.bench_with_input(BenchmarkId::new("precision", n), &n, |bench, _| {
            let reg = Regularization::precision_from_relevance(&g, &relevant);
            bench.iter(|| solve(&g, UtilityKind::Precision, &reg, &cfg, Phase::Entity));
        });
        group.bench_with_input(BenchmarkId::new("recall", n), &n, |bench, _| {
            let reg = Regularization::recall_from_relevance(&g, &relevant);
            bench.iter(|| solve(&g, UtilityKind::Recall, &reg, &cfg, Phase::Entity));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solver);
criterion_main!(benches);
