//! Iterative solver for the regularized utility-inference fixpoint
//! (paper Eq. 13): `U(v) = (1−α)·F({U(v′) | v′ ∈ N(v)}) + α·Û(v)`.
//!
//! Two aggregation kernels instantiate `F`:
//!
//! * **Precision** (backward walk, Eq. 6/8/15/17): each vertex takes the
//!   *average* of its neighbors' utilities — the sum over its row divided
//!   by its own degree, the row's length.
//! * **Recall** (forward walk, Eq. 7/9/16/18): each vertex takes the sum of
//!   neighbor utilities where every neighbor *splits* its utility across
//!   its own edges — each edge's coefficient is `1 / deg(sender)`,
//!   precomputed beside the graph's rows.
//!
//! Query vertices have two neighbor classes (pages and templates); their
//! aggregate is the balanced combination of the page-side and
//! template-side estimates (paper Sect. IV-A: "we only consider a balanced
//! influence from pages and from templates"), with the balance exposed as
//! a config knob for the ablation bench.
//!
//! Both walks are the paper's random walks with restart: the restart
//! probability is α and the preference vector is the utility
//! regularization Û. The solver runs standard iterative updating to the
//! stationary distribution — "it typically converges in 50 iterations",
//! and each iteration is `O(|V| + |E|)`.
//!
//! There are two solvers, each with one synchronous (Jacobi) sweep
//! kernel. `step` updates a single system of either kind behind [`solve`]
//! and [`solve_detailed`]; it is the reference. [`crate::FusedTruncatedSolver`]
//! updates the three Recall context walks at once, interleaved, over
//! classes of queries whose iterates are bitwise-identical at every sweep
//! (see [`crate::bounds`]). It repeats the solo kernel's per-vertex
//! arithmetic in the same edge order and folds its convergence deltas in
//! the solo order, so the two agree bit for bit.

use crate::graph::ReinforcementGraph;
use std::sync::OnceLock;

/// The pipeline phase a solo solve serves (paper Sect. IV), the `phase`
/// label of its `graph_solve_seconds` sample: the domain graph, learned
/// once from the domain entities, or an entity graph, built at every
/// query selection. The two differ in size and in how often they run, so
/// they are timed apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// The domain phase (Sect. IV-B).
    Domain,
    /// The entity phase (Sect. IV-C).
    Entity,
}

impl Phase {
    fn label(self) -> &'static str {
        match self {
            Phase::Domain => "domain",
            Phase::Entity => "entity",
        }
    }
}

/// Which utility the walk infers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UtilityKind {
    /// Probabilistic precision `P` (backward walk).
    Precision,
    /// Probabilistic recall `R` (forward walk).
    Recall,
}

/// Walk configuration.
#[derive(Clone, Copy, Debug)]
pub struct WalkConfig {
    /// Restart / regularization parameter α (paper default 0.15).
    pub alpha: f64,
    /// Maximum iterations (paper: "typically converges in 50").
    pub max_iters: usize,
    /// L1-change convergence threshold.
    pub tolerance: f64,
    /// Weight of the page-side estimate in a query's combination with the
    /// template side (0.5 = the paper's balanced influence).
    pub page_template_balance: f64,
    /// How a query with only one neighbor class combines: `true` (default,
    /// the paper's plain "taking their average") treats the missing side
    /// as zero, damping queries that lack page evidence or lack a
    /// template; `false` renormalizes so the present side gets full
    /// weight. The ablation bench compares both.
    pub missing_side_is_zero: bool,
}

impl Default for WalkConfig {
    fn default() -> Self {
        Self {
            alpha: 0.15,
            max_iters: 100,
            tolerance: 1e-9,
            page_template_balance: 0.5,
            missing_side_is_zero: true,
        }
    }
}

/// Inferred utilities for every vertex class.
#[derive(Clone, Debug, Default)]
pub struct Utilities {
    /// Per-page utility.
    pub pages: Vec<f64>,
    /// Per-query utility.
    pub queries: Vec<f64>,
    /// Per-template utility.
    pub templates: Vec<f64>,
}

impl Utilities {
    /// All-zero utilities shaped for `g` (a sweep's output buffer).
    pub(crate) fn zeros(g: &ReinforcementGraph) -> Self {
        Self {
            pages: vec![0.0; g.n_pages()],
            queries: vec![0.0; g.n_queries()],
            templates: vec![0.0; g.n_templates()],
        }
    }
}

/// Utility regularization Û per vertex class (entries default to 0 = "no
/// regularization", paper Sect. III).
#[derive(Clone, Debug, Default)]
pub struct Regularization {
    /// Û over pages.
    pub pages: Vec<f64>,
    /// Û over queries.
    pub queries: Vec<f64>,
    /// Û over templates.
    pub templates: Vec<f64>,
}

impl Regularization {
    /// All-zero regularization shaped for `g`.
    pub fn zeros(g: &ReinforcementGraph) -> Self {
        Self {
            pages: vec![0.0; g.n_pages()],
            queries: vec![0.0; g.n_queries()],
            templates: vec![0.0; g.n_templates()],
        }
    }

    /// Precision regularization from page relevance: `P̂(p) = Y(p)`
    /// (paper Eq. 11).
    pub fn precision_from_relevance(g: &ReinforcementGraph, relevant: &[bool]) -> Self {
        assert_eq!(relevant.len(), g.n_pages());
        let mut r = Self::zeros(g);
        for (i, &rel) in relevant.iter().enumerate() {
            r.pages[i] = if rel { 1.0 } else { 0.0 };
        }
        r
    }

    /// Recall regularization from page relevance:
    /// `R̂(p) = Y(p) / Σ_{p'} Y(p')` (paper Eq. 12). All-zero if no page is
    /// relevant.
    pub fn recall_from_relevance(g: &ReinforcementGraph, relevant: &[bool]) -> Self {
        assert_eq!(relevant.len(), g.n_pages());
        let mut r = Self::zeros(g);
        let total = relevant.iter().filter(|&&x| x).count();
        if total > 0 {
            let share = 1.0 / total as f64;
            for (i, &rel) in relevant.iter().enumerate() {
                if rel {
                    r.pages[i] = share;
                }
            }
        }
        r
    }
}

/// Solve the fixpoint for the requested utility from a cold start.
pub fn solve(
    g: &ReinforcementGraph,
    kind: UtilityKind,
    reg: &Regularization,
    cfg: &WalkConfig,
    phase: Phase,
) -> Utilities {
    solve_detailed(g, kind, reg, cfg, None, phase).0
}

/// Sweeps-executed histogram of the global metrics registry (count-shaped
/// buckets; the latency span around the whole solve lives in
/// `graph_solve_seconds`, labelled by `phase` and `solver`).
pub(crate) fn sweeps_histogram() -> &'static std::sync::Arc<l2q_obs::Histogram> {
    static H: OnceLock<std::sync::Arc<l2q_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        l2q_obs::global().histogram_with_bounds(
            "graph_solve_sweeps",
            (0..10).map(|i| f64::powi(2.0, i)).collect(),
        )
    })
}

/// Solve the fixpoint with an optional warm-start iterate, returning the
/// fixpoint plus the number of sweeps executed.
///
/// `warm` replaces the default cold start (the regularization vector).
/// Because the update map is a contraction with a unique fixed point, any
/// start converges to the same fixpoint within `cfg.tolerance`; a start
/// near the fixpoint — e.g. the previous harvest step's solution mapped
/// onto the current vertex set — just gets there in fewer sweeps.
///
/// The solve is a `graph_solve` span, timed into `graph_solve_seconds`
/// under `phase` and `solver="solo"`.
pub fn solve_detailed(
    g: &ReinforcementGraph,
    kind: UtilityKind,
    reg: &Regularization,
    cfg: &WalkConfig,
    warm: Option<Utilities>,
    phase: Phase,
) -> (Utilities, usize) {
    let mut span = l2q_obs::span!("graph_solve", "phase" => phase.label(), "solver" => "solo");
    let mut cur = start_iterate(g, reg, cfg, warm);
    let mut next = Utilities::zeros(g);
    let mut sweeps = 0usize;
    let mut converged = false;
    for _ in 0..cfg.max_iters {
        step(g, kind, reg, cfg, &cur, &mut next);
        sweeps += 1;
        let delta = l1_delta(&cur, &next);
        std::mem::swap(&mut cur, &mut next);
        if delta < cfg.tolerance {
            converged = true;
            break;
        }
    }
    if !converged {
        // Surfaces in the traced span (not the histogram): this solve hit
        // the sweep cap before crossing the tolerance.
        span.set_status("maxed");
    }
    sweeps_histogram().record(sweeps as f64);
    (cur, sweeps)
}

/// Check one system's inputs against `g` and return the iterate its solve
/// starts from: `warm` when given, else the regularization (any start
/// converges; the regularization is closest to the fixpoint among cheap
/// cold starts).
pub(crate) fn start_iterate(
    g: &ReinforcementGraph,
    reg: &Regularization,
    cfg: &WalkConfig,
    warm: Option<Utilities>,
) -> Utilities {
    assert_eq!(reg.pages.len(), g.n_pages(), "page regularization shape");
    assert_eq!(
        reg.queries.len(),
        g.n_queries(),
        "query regularization shape"
    );
    assert_eq!(
        reg.templates.len(),
        g.n_templates(),
        "template regularization shape"
    );
    assert!((0.0..=1.0).contains(&cfg.alpha), "alpha out of range");
    match warm {
        Some(w) => {
            assert_eq!(w.pages.len(), g.n_pages(), "warm-start page shape");
            assert_eq!(w.queries.len(), g.n_queries(), "warm-start query shape");
            assert_eq!(
                w.templates.len(),
                g.n_templates(),
                "warm-start template shape"
            );
            w
        }
        None => Utilities {
            pages: reg.pages.clone(),
            queries: reg.queries.clone(),
            templates: reg.templates.clone(),
        },
    }
}

/// One synchronous update of all vertices.
fn step(
    g: &ReinforcementGraph,
    kind: UtilityKind,
    reg: &Regularization,
    cfg: &WalkConfig,
    cur: &Utilities,
    next: &mut Utilities,
) {
    let a = cfg.alpha;
    let keep = 1.0 - a;
    let sides = |page, template| {
        combine(
            page,
            template,
            cfg.page_template_balance,
            cfg.missing_side_is_zero,
        )
    };

    match kind {
        UtilityKind::Precision => {
            // Pages: average over their query neighbors (Eq. 8).
            for p in 0..g.n_pages() {
                let f = mean(g.page_queries(p), &cur.queries).unwrap_or(0.0);
                next.pages[p] = keep * f + a * reg.pages[p];
            }
            // Templates: average over their query neighbors (Eq. 15).
            for t in 0..g.n_templates() {
                let f = mean(g.template_queries(t), &cur.queries).unwrap_or(0.0);
                next.templates[t] = keep * f + a * reg.templates[t];
            }
            // Queries: balanced combination of the page-side average
            // (Eq. 6) and template-side average (Eq. 17).
            for q in 0..g.n_queries() {
                let f = sides(
                    mean(g.query_pages(q), &cur.pages),
                    mean(g.query_templates(q), &cur.templates),
                );
                next.queries[q] = keep * f + a * reg.queries[q];
            }
        }
        UtilityKind::Recall => {
            // Pages receive from queries, each query splitting over its
            // page neighbors (Eq. 9) — the split coefficient is the
            // graph's precomputed `1 / deg(sender)`.
            for p in 0..g.n_pages() {
                let f = split_sum(g.page_query.row(p), &cur.queries);
                next.pages[p] = keep * f + a * reg.pages[p];
            }
            // Templates receive from queries, each query splitting over
            // its template neighbors (Eq. 16).
            for t in 0..g.n_templates() {
                let f = split_sum(g.template_query.row(t), &cur.queries);
                next.templates[t] = keep * f + a * reg.templates[t];
            }
            // Queries receive from pages (each page splitting over its
            // query neighbors, Eq. 7) and from templates (each template
            // splitting over its query neighbors, Eq. 18); a side without
            // edges is missing.
            let side = |(to, coef): (&[u32], &[f64]), x: &[f64]| {
                (!to.is_empty()).then(|| split_sum((to, coef), x))
            };
            for q in 0..g.n_queries() {
                let f = sides(
                    side(g.query_page.row(q), &cur.pages),
                    side(g.query_template.row(q), &cur.templates),
                );
                next.queries[q] = keep * f + a * reg.queries[q];
            }
        }
    }
}

/// The average of `x` over a row's neighbours (the precision walk's
/// receiver-normalized aggregate); `None` for an empty row.
fn mean(row: &[u32], x: &[f64]) -> Option<f64> {
    (!row.is_empty()).then(|| row.iter().map(|&v| x[v as usize]).sum::<f64>() / row.len() as f64)
}

/// `Σ coef · x` over a row (the recall walk's aggregate: each neighbour
/// splits its value over its own edges).
fn split_sum((row, coef): (&[u32], &[f64]), x: &[f64]) -> f64 {
    row.iter().zip(coef).map(|(&v, &c)| c * x[v as usize]).sum()
}

/// Combine page-side and template-side estimates with balance `b` (share
/// of the page side). With `missing_zero` a missing side contributes 0 to
/// the average; otherwise the present side takes full weight.
pub(crate) fn combine(page: Option<f64>, template: Option<f64>, b: f64, missing_zero: bool) -> f64 {
    match (page, template) {
        (Some(p), Some(t)) => b * p + (1.0 - b) * t,
        (Some(p), None) => {
            if missing_zero {
                b * p
            } else {
                p
            }
        }
        (None, Some(t)) => {
            if missing_zero {
                (1.0 - b) * t
            } else {
                t
            }
        }
        (None, None) => 0.0,
    }
}

/// L1 distance between two iterates of one vertex block.
fn l1(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).map(|(u, v)| (u - v).abs()).sum()
}

fn l1_delta(a: &Utilities, b: &Utilities) -> f64 {
    l1(&a.pages, &b.pages) + l1(&a.queries, &b.queries) + l1(&a.templates, &b.templates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// The paper's Fig. 2 running example (no templates): 6 pages, 5
    /// queries, Y = RESEARCH relevant for p1..p4 (0-indexed 0..=3).
    fn fig2_graph() -> ReinforcementGraph {
        let mut b = GraphBuilder::new(6, 5, 0);
        // q1 parallel research -> p1 p2 p3
        b.page_query(0, 0).page_query(1, 0).page_query(2, 0);
        // q2 hpc research -> p1 p2
        b.page_query(0, 1).page_query(1, 1);
        // q3 complexity -> p3 p4
        b.page_query(2, 2).page_query(3, 2);
        // q4 u illinois -> p4 p5 p6
        b.page_query(3, 3).page_query(4, 3).page_query(5, 3);
        // q5 ibm -> p6
        b.page_query(5, 4);
        b.build()
    }

    fn fig2_relevance() -> Vec<bool> {
        vec![true, true, true, true, false, false]
    }

    #[test]
    fn precision_ranks_focused_queries_above_generic_ones() {
        let g = fig2_graph();
        let reg = Regularization::precision_from_relevance(&g, &fig2_relevance());
        let u = solve(
            &g,
            UtilityKind::Precision,
            &reg,
            &WalkConfig::default(),
            Phase::Entity,
        );
        // q1, q2, q3 retrieve only relevant pages; q4 retrieves 1/3
        // relevant; q5 only irrelevant.
        assert!(u.queries[0] > u.queries[3], "q1 > q4");
        assert!(u.queries[1] > u.queries[3], "q2 > q4");
        assert!(u.queries[2] > u.queries[3], "q3 > q4");
        assert!(u.queries[3] > u.queries[4], "q4 > q5");
    }

    #[test]
    fn recall_ranks_broad_relevant_queries_highest() {
        let g = fig2_graph();
        let reg = Regularization::recall_from_relevance(&g, &fig2_relevance());
        let u = solve(
            &g,
            UtilityKind::Recall,
            &reg,
            &WalkConfig::default(),
            Phase::Entity,
        );
        // q1 covers 3 of 4 relevant pages; q2 and q3 cover 2; q5 covers 0.
        assert!(u.queries[0] > u.queries[1], "q1 > q2");
        assert!(u.queries[0] > u.queries[2], "q1 > q3");
        assert!(u.queries[1] > u.queries[4], "q2 > q5");
        assert!(u.queries[2] > u.queries[4], "q3 > q5");
    }

    #[test]
    fn precision_stays_within_unit_interval() {
        let g = fig2_graph();
        let reg = Regularization::precision_from_relevance(&g, &fig2_relevance());
        let u = solve(
            &g,
            UtilityKind::Precision,
            &reg,
            &WalkConfig::default(),
            Phase::Entity,
        );
        for v in u.pages.iter().chain(&u.queries) {
            assert!((0.0..=1.0).contains(v), "precision out of bounds: {v}");
        }
    }

    #[test]
    fn recall_mass_is_bounded_by_total_regularization() {
        let g = fig2_graph();
        let reg = Regularization::recall_from_relevance(&g, &fig2_relevance());
        let u = solve(
            &g,
            UtilityKind::Recall,
            &reg,
            &WalkConfig::default(),
            Phase::Entity,
        );
        let total_q: f64 = u.queries.iter().sum();
        // The forward walk redistributes at most the unit mass injected by
        // regularization.
        assert!(total_q <= 1.0 + 1e-9, "query recall mass {total_q} > 1");
        for v in u.pages.iter().chain(&u.queries) {
            assert!(*v >= 0.0);
        }
    }

    /// The paper's Fig. 6 domain-phase example: Andrew Ng with 3 pages, 3
    /// queries and 2 templates. The precision model must give
    /// P(t1) > P(t3) (t3 covers irrelevant p9) and the recall model
    /// R(t1) < R(t3) (t1 misses relevant p8).
    #[test]
    fn fig6_template_utilities_match_paper() {
        // pages: p7=0 (rel), p8=1 (rel), p9=2 (irrel)
        // queries: q6 "ai research"=0 -> p7; q7 "baidu"=1 -> p7;
        //          q8 "stanford"=2 -> p8, p9
        // templates: t1 "<topic> research"=0 abstracts q6;
        //            t3 "<institute>"=1 abstracts q7, q8
        let mut b = GraphBuilder::new(3, 3, 2);
        b.page_query(0, 0);
        b.page_query(0, 1);
        b.page_query(1, 2).page_query(2, 2);
        b.query_template(0, 0);
        b.query_template(1, 1).query_template(2, 1);
        let g = b.build();
        let relevant = vec![true, true, false];

        let cfg = WalkConfig::default();
        let preg = Regularization::precision_from_relevance(&g, &relevant);
        let p = solve(&g, UtilityKind::Precision, &preg, &cfg, Phase::Entity);
        assert!(
            p.templates[0] > p.templates[1],
            "P(t1)={} must exceed P(t3)={}",
            p.templates[0],
            p.templates[1]
        );

        let rreg = Regularization::recall_from_relevance(&g, &relevant);
        let r = solve(&g, UtilityKind::Recall, &rreg, &cfg, Phase::Entity);
        assert!(
            r.templates[0] < r.templates[1],
            "R(t1)={} must be below R(t3)={}",
            r.templates[0],
            r.templates[1]
        );
    }

    #[test]
    fn isolated_vertices_get_only_regularization() {
        let g = GraphBuilder::new(2, 1, 1).build(); // no edges at all
        let mut reg = Regularization::zeros(&g);
        reg.pages[0] = 1.0;
        let cfg = WalkConfig::default();
        let u = solve(&g, UtilityKind::Precision, &reg, &cfg, Phase::Entity);
        assert!((u.pages[0] - cfg.alpha).abs() < 1e-9);
        assert_eq!(u.pages[1], 0.0);
        assert_eq!(u.queries[0], 0.0);
        assert_eq!(u.templates[0], 0.0);
    }

    #[test]
    fn solver_is_deterministic_and_converges() {
        let g = fig2_graph();
        let reg = Regularization::precision_from_relevance(&g, &fig2_relevance());
        let a = solve(
            &g,
            UtilityKind::Precision,
            &reg,
            &WalkConfig::default(),
            Phase::Entity,
        );
        let b = solve(
            &g,
            UtilityKind::Precision,
            &reg,
            &WalkConfig::default(),
            Phase::Entity,
        );
        assert_eq!(a.queries, b.queries);
        // Extra iterations change nothing beyond the geometric tail
        // (contraction factor 1−α per iteration).
        let more = solve(
            &g,
            UtilityKind::Precision,
            &reg,
            &WalkConfig {
                max_iters: 400,
                ..Default::default()
            },
            Phase::Entity,
        );
        for (x, y) in a.queries.iter().zip(&more.queries) {
            assert!((x - y).abs() < 1e-6, "residual {}", (x - y).abs());
        }
    }

    #[test]
    fn template_regularization_flows_to_queries() {
        // One page (irrelevant), two queries, two templates; template 0
        // regularized high.
        let mut b = GraphBuilder::new(1, 2, 2);
        b.page_query(0, 0).page_query(0, 1);
        b.query_template(0, 0).query_template(1, 1);
        let g = b.build();
        let mut reg = Regularization::zeros(&g);
        reg.templates[0] = 1.0;
        let u = solve(
            &g,
            UtilityKind::Precision,
            &reg,
            &WalkConfig::default(),
            Phase::Entity,
        );
        assert!(
            u.queries[0] > u.queries[1],
            "query abstracted by the regularized template must score higher"
        );
    }

    #[test]
    fn warm_start_reaches_the_same_fixpoint_in_fewer_sweeps() {
        let g = fig2_graph();
        let cfg = WalkConfig::default();
        for kind in [UtilityKind::Precision, UtilityKind::Recall] {
            let reg = match kind {
                UtilityKind::Precision => {
                    Regularization::precision_from_relevance(&g, &fig2_relevance())
                }
                UtilityKind::Recall => Regularization::recall_from_relevance(&g, &fig2_relevance()),
            };
            let (cold, cold_sweeps) = solve_detailed(&g, kind, &reg, &cfg, None, Phase::Entity);
            // Restarting from the converged fixpoint must stay there.
            let (warm, warm_sweeps) =
                solve_detailed(&g, kind, &reg, &cfg, Some(cold.clone()), Phase::Entity);
            assert!(
                warm_sweeps <= cold_sweeps,
                "warm {warm_sweeps} vs cold {cold_sweeps} sweeps"
            );
            assert!(
                warm_sweeps <= 2,
                "fixpoint restart took {warm_sweeps} sweeps"
            );
            for (a, b) in cold
                .pages
                .iter()
                .chain(&cold.queries)
                .chain(&cold.templates)
                .zip(
                    warm.pages
                        .iter()
                        .chain(&warm.queries)
                        .chain(&warm.templates),
                )
            {
                assert!((a - b).abs() < cfg.tolerance, "warm drifted: {a} vs {b}");
            }
        }
    }

    #[test]
    fn warm_start_from_a_bad_iterate_still_converges() {
        let g = fig2_graph();
        let cfg = WalkConfig::default();
        let reg = Regularization::precision_from_relevance(&g, &fig2_relevance());
        let (cold, _) = solve_detailed(&g, UtilityKind::Precision, &reg, &cfg, None, Phase::Entity);
        let bad = Utilities {
            pages: vec![0.9; g.n_pages()],
            queries: vec![0.1; g.n_queries()],
            templates: vec![0.0; g.n_templates()],
        };
        let (warm, _) = solve_detailed(
            &g,
            UtilityKind::Precision,
            &reg,
            &cfg,
            Some(bad),
            Phase::Entity,
        );
        for (a, b) in cold.queries.iter().zip(&warm.queries) {
            assert!((a - b).abs() < 1e-6, "fixpoint not unique? {a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "warm-start page shape")]
    fn warm_start_shape_mismatch_panics() {
        let g = fig2_graph();
        let reg = Regularization::precision_from_relevance(&g, &fig2_relevance());
        solve_detailed(
            &g,
            UtilityKind::Precision,
            &reg,
            &WalkConfig::default(),
            Some(Utilities::default()),
            Phase::Entity,
        );
    }

    /// The fused truncated solver, never stopped early.
    fn fused_to_completion(
        g: &ReinforcementGraph,
        regs: &[Regularization; 3],
        cfg: &WalkConfig,
        warms: [Option<Utilities>; 3],
    ) -> [(Utilities, usize); 3] {
        let mut s = crate::bounds::tests::fused(g, regs.clone(), cfg, warms);
        s.run_to_completion();
        crate::bounds::tests::per_walk(s.finish())
    }

    #[test]
    fn fused_solves_match_solo_solves_bitwise() {
        let g = fig2_graph();
        let cfg = WalkConfig::default();
        // Three Recall systems with genuinely different regularizations —
        // the shape the context walks produce.
        let mut regs = [
            Regularization::recall_from_relevance(&g, &fig2_relevance()),
            Regularization::recall_from_relevance(&g, &[true, false, true, false, true, false]),
            Regularization::recall_from_relevance(&g, &vec![true; g.n_pages()]),
        ];
        regs[0].queries[1] = 0.25; // break any accidental symmetry
        let solo_solve = |r: &Regularization, w: Option<Utilities>| {
            solve_detailed(&g, UtilityKind::Recall, r, &cfg, w, Phase::Entity)
        };
        let solo: Vec<(Utilities, usize)> = regs.iter().map(|r| solo_solve(r, None)).collect();
        let fused = fused_to_completion(&g, &regs, &cfg, [None, None, None]);
        for ((su, ss), (fu, fs)) in solo.iter().zip(&fused) {
            assert_eq!(ss, fs, "sweep counts diverged");
            assert_eq!(su.pages, fu.pages);
            assert_eq!(su.queries, fu.queries);
            assert_eq!(su.templates, fu.templates);
        }

        // Mixed starts: one warm (from another system's fixpoint), one
        // cold, one at its own fixpoint. The systems converge at
        // different sweeps, so the later sweeps run with converged
        // systems whose new iterates must be discarded.
        let warms = [Some(solo[1].0.clone()), None, Some(solo[2].0.clone())];
        let solo_warm: Vec<(Utilities, usize)> = regs
            .iter()
            .zip(warms.clone())
            .map(|(r, w)| solo_solve(r, w))
            .collect();
        let fused_warm = fused_to_completion(&g, &regs, &cfg, warms);
        let counts: Vec<usize> = fused_warm.iter().map(|(_, s)| *s).collect();
        assert!(
            counts.iter().any(|&c| c != counts[0]),
            "mixed starts must converge at different sweeps: {counts:?}"
        );
        for ((su, ss), (fu, fs)) in solo_warm.iter().zip(&fused_warm) {
            assert_eq!(ss, fs, "warm sweep counts diverged");
            assert_eq!(su.pages, fu.pages);
            assert_eq!(su.queries, fu.queries);
            assert_eq!(su.templates, fu.templates);
        }
    }

    #[test]
    fn solve_records_latency_and_sweep_metrics() {
        let g = fig2_graph();
        let reg = Regularization::precision_from_relevance(&g, &fig2_relevance());
        let lat = l2q_obs::global().histogram_with(
            "graph_solve_seconds",
            &[("phase", "entity"), ("solver", "solo")],
        );
        let sweeps = super::sweeps_histogram();
        let (lat_before, sweeps_before) = (lat.count(), sweeps.count());
        solve(
            &g,
            UtilityKind::Precision,
            &reg,
            &WalkConfig::default(),
            Phase::Entity,
        );
        // The registry is process-global, so assert monotone growth.
        assert!(lat.count() > lat_before, "solve latency not recorded");
        assert!(sweeps.count() > sweeps_before, "sweep count not recorded");
        assert!(sweeps.sum() >= 1.0, "at least one sweep must run");
    }

    #[test]
    #[should_panic(expected = "page regularization shape")]
    fn shape_mismatch_panics() {
        let g = fig2_graph();
        let reg = Regularization::default();
        solve(
            &g,
            UtilityKind::Precision,
            &reg,
            &WalkConfig::default(),
            Phase::Entity,
        );
    }
}
