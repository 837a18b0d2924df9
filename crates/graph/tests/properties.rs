//! Property-based tests for the reinforcement-graph solver on tripartite
//! (page–query–template) graphs with weighted edges.

use l2q_graph::{
    solve, solve_detailed, FusedSolution, FusedTruncatedSolver, GraphBuilder, Interleaved, Phase,
    QueryClasses, QueryRows, Regularization, ReinforcementGraph, Utilities, UtilityKind,
    WalkConfig,
};
use proptest::prelude::*;

type Tripartite = (
    usize,
    usize,
    usize,
    Vec<(u32, u32, f64)>,
    Vec<(u32, u32, f64)>,
    Vec<bool>,
);

/// Random tripartite graph with weighted edges.
fn arb_tripartite() -> impl Strategy<Value = Tripartite> {
    (2usize..8, 2usize..14, 1usize..6).prop_flat_map(|(np, nq, nt)| {
        let pq = proptest::collection::vec((0..np as u32, 0..nq as u32, 0.1f64..5.0), 1..40);
        let qt = proptest::collection::vec((0..nq as u32, 0..nt as u32, 0.1f64..5.0), 0..20);
        let rel = proptest::collection::vec(any::<bool>(), np);
        (Just(np), Just(nq), Just(nt), pq, qt, rel)
    })
}

fn build(
    np: usize,
    nq: usize,
    nt: usize,
    pq: &[(u32, u32, f64)],
    qt: &[(u32, u32, f64)],
) -> l2q_graph::ReinforcementGraph {
    let mut b = GraphBuilder::new(np, nq, nt);
    for &(p, q, w) in pq {
        b.page_query(p, q, w);
    }
    for &(q, t, w) in qt {
        b.query_template(q, t, w);
    }
    b.build()
}

proptest! {
    /// All utilities are finite and non-negative for both walks, for any
    /// weighted tripartite graph.
    #[test]
    fn utilities_are_finite_and_nonnegative(
        (np, nq, nt, pq, qt, rel) in arb_tripartite()
    ) {
        let g = build(np, nq, nt, &pq, &qt);
        for kind in [UtilityKind::Precision, UtilityKind::Recall] {
            let reg = match kind {
                UtilityKind::Precision =>
                    Regularization::precision_from_relevance(&g, &rel),
                UtilityKind::Recall =>
                    Regularization::recall_from_relevance(&g, &rel),
            };
            let u = solve(&g, kind, &reg, &WalkConfig::default(), Phase::Entity);
            for v in u.pages.iter().chain(&u.queries).chain(&u.templates) {
                prop_assert!(v.is_finite() && *v >= 0.0, "bad utility {v}");
            }
        }
    }

    /// Scaling all edge weights uniformly never changes the fixpoint (both
    /// kernels normalize weights).
    #[test]
    fn fixpoint_is_scale_invariant(
        (np, nq, nt, pq, qt, rel) in arb_tripartite(),
        scale in 0.5f64..4.0
    ) {
        let g1 = build(np, nq, nt, &pq, &qt);
        let pq2: Vec<_> = pq.iter().map(|&(p, q, w)| (p, q, w * scale)).collect();
        let qt2: Vec<_> = qt.iter().map(|&(q, t, w)| (q, t, w * scale)).collect();
        let g2 = build(np, nq, nt, &pq2, &qt2);
        let cfg = WalkConfig { max_iters: 200, ..Default::default() };
        for kind in [UtilityKind::Precision, UtilityKind::Recall] {
            let reg1 = match kind {
                UtilityKind::Precision =>
                    Regularization::precision_from_relevance(&g1, &rel),
                UtilityKind::Recall => Regularization::recall_from_relevance(&g1, &rel),
            };
            let reg2 = match kind {
                UtilityKind::Precision =>
                    Regularization::precision_from_relevance(&g2, &rel),
                UtilityKind::Recall => Regularization::recall_from_relevance(&g2, &rel),
            };
            let u1 = solve(&g1, kind, &reg1, &cfg, Phase::Entity);
            let u2 = solve(&g2, kind, &reg2, &cfg, Phase::Entity);
            for (a, b) in u1.queries.iter().zip(&u2.queries) {
                prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
    }

    /// With all-zero regularization, the fixpoint is identically zero.
    #[test]
    fn zero_regularization_yields_zero(
        (np, nq, nt, pq, qt, _rel) in arb_tripartite()
    ) {
        let g = build(np, nq, nt, &pq, &qt);
        let reg = Regularization::zeros(&g);
        for kind in [UtilityKind::Precision, UtilityKind::Recall] {
            let u = solve(&g, kind, &reg, &WalkConfig::default(), Phase::Entity);
            for v in u.pages.iter().chain(&u.queries).chain(&u.templates) {
                prop_assert_eq!(*v, 0.0);
            }
        }
    }

    /// Monotonicity in relevance: marking one more page relevant never
    /// decreases any precision utility (precision regularization is
    /// monotone and the update is a monotone map).
    #[test]
    fn precision_is_monotone_in_relevance(
        (np, nq, nt, pq, qt, rel) in arb_tripartite()
    ) {
        prop_assume!(rel.iter().any(|&r| !r));
        let g = build(np, nq, nt, &pq, &qt);
        let mut more = rel.clone();
        let flip = more.iter().position(|&r| !r).unwrap();
        more[flip] = true;
        let cfg = WalkConfig { max_iters: 200, ..Default::default() };
        let u1 = solve(
            &g,
            UtilityKind::Precision,
            &Regularization::precision_from_relevance(&g, &rel),
            &cfg,
            Phase::Entity,
        );
        let u2 = solve(
            &g,
            UtilityKind::Precision,
            &Regularization::precision_from_relevance(&g, &more),
            &cfg,
            Phase::Entity,
        );
        for (a, b) in u1.queries.iter().zip(&u2.queries) {
            prop_assert!(*b >= *a - 1e-9, "precision dropped: {a} -> {b}");
        }
    }
}

/// A tightly converged Recall fixpoint (well below the solver's operating
/// tolerance, so it can stand in for the true fixpoint).
fn exact(g: &l2q_graph::ReinforcementGraph, reg: &Regularization) -> Utilities {
    let tight = WalkConfig {
        max_iters: 4000,
        tolerance: 1e-14,
        ..Default::default()
    };
    solve_detailed(g, UtilityKind::Recall, reg, &tight, None, Phase::Entity).0
}

/// The fused solver on per-walk regularizations and warm starts (each
/// walk starts at its warm start, else at its regularization, as a solo
/// solve does), over the canonical classes.
fn fused(
    g: &ReinforcementGraph,
    regs: [Regularization; 3],
    cfg: &WalkConfig,
    warms: [Option<Utilities>; 3],
) -> FusedTruncatedSolver {
    let mut warms = warms.into_iter();
    let starts = regs.clone().map(|reg| match warms.next().flatten() {
        Some(u) => Regularization {
            pages: u.pages,
            queries: u.queries,
            templates: u.templates,
        },
        None => reg,
    });
    let (reg, start) = (
        Interleaved::from_walks(&regs),
        Interleaved::from_walks(&starts),
    );
    let classes = QueryClasses::canonical(g, &start.queries, &reg.queries);
    FusedTruncatedSolver::with_classes(g, reg, start, classes, cfg)
}

/// A finished fused solve as one `(utilities, sweeps)` per walk.
fn per_walk(sol: FusedSolution) -> [(Utilities, usize); 3] {
    std::array::from_fn(|w| {
        let lane = |block: &[[f64; 3]]| block.iter().map(|x| x[w]).collect();
        let u = Utilities {
            pages: lane(&sol.pages),
            queries: (0..sol.query_classes.class_of().len())
                .map(|q| sol.query(q)[w])
                .collect(),
            templates: lane(&sol.templates),
        };
        (u, sol.sweeps[w])
    })
}

/// A class-level quantity of a fused solve spread over the query
/// vertices.
fn per_query(s: &FusedTruncatedSolver, f: impl Fn(usize) -> f64) -> Vec<f64> {
    s.class_of().iter().map(|&c| f(c as usize)).collect()
}

/// Static upper bounds of `reg`'s walk, from a fused solver set up with
/// it in all three systems.
fn static_bounds(
    g: &l2q_graph::ReinforcementGraph,
    reg: &Regularization,
    cfg: &WalkConfig,
) -> Vec<f64> {
    let regs = [reg.clone(), reg.clone(), reg.clone()];
    let s = fused(g, regs, cfg, [None, None, None]);
    per_query(&s, |c| s.class_bounds(c)[0])
}

/// After every sweep of `s`, each system's query iterate is within its
/// per-query tails of the true fixpoint, and those within the block
/// tail.
fn assert_tails_dominate(
    mut s: FusedTruncatedSolver,
    fixpoints: &[Utilities],
) -> Result<(), TestCaseError> {
    while s.sweep() {
        for (i, fixpoint) in fixpoints.iter().enumerate() {
            let tail = s.tail(i);
            let values = per_query(&s, |c| s.class_values(c)[i]);
            let qtails = per_query(&s, |c| s.class_tail(i, c));
            let mut err = 0.0f64;
            for (q, ((&a, &b), &tq)) in values
                .iter()
                .zip(&fixpoint.queries)
                .zip(&qtails)
                .enumerate()
            {
                let e = (a - b).abs();
                err = err.max(e);
                prop_assert!(
                    e <= tq * (1.0 + 1e-9) + 1e-12,
                    "system {i} q{q}: error {e} above query tail {tq}"
                );
                prop_assert!(tq <= tail, "query tails refine the block tail");
            }
            prop_assert!(
                err <= tail * (1.0 + 1e-9) + 1e-12,
                "system {i}: true error {err} above tail {tail}"
            );
        }
    }
    Ok(())
}

/// The three-system regularization shape the context walks produce.
fn walk_regs(g: &l2q_graph::ReinforcementGraph, rel: &[bool]) -> [Regularization; 3] {
    let inverted: Vec<bool> = rel.iter().map(|&r| !r).collect();
    [
        Regularization::recall_from_relevance(g, rel),
        Regularization::recall_from_relevance(g, &inverted),
        Regularization::recall_from_relevance(g, &vec![true; g.n_pages()]),
    ]
}

proptest! {
    /// The static per-query upper bound dominates the solved Recall
    /// utility on any weighted tripartite graph.
    #[test]
    fn static_bounds_dominate_solved_utilities(
        (np, nq, nt, pq, qt, rel) in arb_tripartite()
    ) {
        let g = build(np, nq, nt, &pq, &qt);
        let reg = Regularization::recall_from_relevance(&g, &rel);
        let ub = static_bounds(&g, &reg, &WalkConfig::default());
        let u = exact(&g, &reg);
        for (q, (&b, &x)) in ub.iter().zip(&u.queries).enumerate() {
            prop_assert!(b >= x - 1e-12, "q{q}: bound {b} below utility {x}");
        }
    }

    /// The truncated solver's tail bound dominates the true distance to
    /// the fixpoint after every sweep, cold-started.
    #[test]
    fn truncation_tails_dominate_the_true_error(
        (np, nq, nt, pq, qt, rel) in arb_tripartite()
    ) {
        let g = build(np, nq, nt, &pq, &qt);
        let cfg = WalkConfig::default();
        let regs = walk_regs(&g, &rel);
        let fixpoints: Vec<Utilities> = regs.iter().map(|r| exact(&g, r)).collect();
        let s = fused(&g, regs, &cfg, [None, None, None]);
        assert_tails_dominate(s, &fixpoints)?;
    }

    /// Tails stay valid when the solve warm-starts from an adversarially
    /// perturbed previous fixpoint (the incremental phase's shape).
    #[test]
    fn truncation_tails_survive_warm_start_perturbations(
        (np, nq, nt, pq, qt, rel) in arb_tripartite(),
        noise in proptest::collection::vec(-0.4f64..0.4, 2..14),
    ) {
        let g = build(np, nq, nt, &pq, &qt);
        let cfg = WalkConfig::default();
        let regs = walk_regs(&g, &rel);
        let fixpoints: Vec<Utilities> = regs.iter().map(|r| exact(&g, r)).collect();
        // Perturb every block of the first system's fixpoint; leave the
        // second cold and the third exactly at its fixpoint.
        let mut bad = fixpoints[0].clone();
        for (i, v) in bad
            .pages
            .iter_mut()
            .chain(&mut bad.queries)
            .chain(&mut bad.templates)
            .enumerate()
        {
            *v = (*v + noise[i % noise.len()]).max(0.0);
        }
        let warms = [Some(bad), None, Some(fixpoints[2].clone())];
        let s = fused(&g, regs, &cfg, warms);
        assert_tails_dominate(s, &fixpoints)?;
    }
}

/// Each system solved on its own — the independent reference the fused
/// solver must reproduce.
fn solo_solves(
    g: &l2q_graph::ReinforcementGraph,
    regs: &[Regularization],
    cfg: &WalkConfig,
    warms: [Option<Utilities>; 3],
) -> Vec<(Utilities, usize)> {
    regs.iter()
        .zip(warms)
        .map(|(r, w)| solve_detailed(g, UtilityKind::Recall, r, cfg, w, Phase::Entity))
        .collect()
}

/// Every utility of a solve as raw bits, so equality is bitwise.
fn bits(u: &Utilities) -> Vec<u64> {
    u.pages
        .iter()
        .chain(&u.queries)
        .chain(&u.templates)
        .map(|v| v.to_bits())
        .collect()
}

proptest! {
    /// The fused truncated solver run to completion is bitwise equal to
    /// per-system solo solves — every utility and every sweep count — on
    /// any weighted tripartite graph, from cold starts and from mixed
    /// starts (one warm, one at its fixpoint, one cold).
    #[test]
    fn fused_solver_matches_solo_solves_bitwise(
        (np, nq, nt, pq, qt, rel) in arb_tripartite(),
        noise in proptest::collection::vec(-0.4f64..0.4, 2..14),
    ) {
        let g = build(np, nq, nt, &pq, &qt);
        let cfg = WalkConfig::default();
        let regs = walk_regs(&g, &rel);
        let cold = solo_solves(&g, &regs, &cfg, [None, None, None]);
        let mut warm = cold[0].0.clone();
        for (i, v) in warm
            .pages
            .iter_mut()
            .chain(&mut warm.queries)
            .chain(&mut warm.templates)
            .enumerate()
        {
            *v = (*v + noise[i % noise.len()]).max(0.0);
        }
        // The cold system is the all-pages walk: its first sweep moves
        // its page block by 1 − α, so it runs long after the system
        // started at its fixpoint has converged.
        let mixed = [Some(warm), Some(cold[1].0.clone()), None];
        for (warms, is_mixed) in [([None, None, None], false), (mixed, true)] {
            let want = solo_solves(&g, &regs, &cfg, warms.clone());
            let mut s = fused(&g, regs.clone(), &cfg, warms);
            s.run_to_completion();
            let got = per_walk(s.finish());
            if is_mixed {
                prop_assert!(
                    got.iter().any(|(_, n)| *n != got[0].1),
                    "mixed starts must converge at different sweeps"
                );
            }
            for (i, ((gu, gs), (wu, ws))) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(gs, ws, "system {}: sweep counts diverged", i);
                prop_assert!(bits(gu) == bits(wu), "system {}: utilities diverged", i);
            }
        }
    }
}

/// Tripartite graph whose queries draw their neighbourhood from a few
/// shared ones, all with unit weights: queries of one neighbourhood have
/// the same neighbour ids and coefficient bits, so they form real
/// multi-member classes. Each neighbourhood is `(pages, templates)`;
/// `nq` exceeds the neighbourhood count, so at least one is shared.
type SharedNeighbourhoods = (
    usize,
    usize,
    Vec<(Vec<u32>, Vec<u32>)>,
    Vec<usize>,
    Vec<bool>,
);

fn arb_shared_neighbourhoods() -> impl Strategy<Value = SharedNeighbourhoods> {
    (2usize..7, 1usize..4, 1usize..5).prop_flat_map(|(np, nt, k)| {
        let hood = (
            proptest::collection::vec(0..np as u32, 0..4),
            proptest::collection::vec(0..nt as u32, 0..3),
        );
        let hoods = proptest::collection::vec(hood, k);
        let owners = proptest::collection::vec(0..k, k + 1..16);
        let rel = proptest::collection::vec(any::<bool>(), np);
        (Just(np), Just(nt), hoods, owners, rel)
    })
}

proptest! {
    /// The fused solver equals three solo solves bit for bit — every
    /// utility and every sweep count — on graphs whose classes have
    /// several members: from cold starts, and from warm starts that
    /// split structural classes by moving some of their members, under
    /// both `missing_side_is_zero` settings.
    #[test]
    fn fused_solver_matches_solo_solves_bitwise_on_shared_neighbourhoods(
        (np, nt, hoods, owners, rel) in arb_shared_neighbourhoods(),
        moved in proptest::collection::vec(any::<bool>(), 16),
    ) {
        let nq = owners.len();
        let mut b = GraphBuilder::new(np, nq, nt);
        for (q, &h) in owners.iter().enumerate() {
            let (pages, templates) = &hoods[h];
            for &p in pages {
                b.page_query(p, q as u32, 1.0);
            }
            for &t in templates {
                b.query_template(q as u32, t, 1.0);
            }
        }
        let g = b.build();
        for missing_side_is_zero in [true, false] {
            let cfg = WalkConfig { missing_side_is_zero, ..Default::default() };
            let regs = walk_regs(&g, &rel);
            let cold = solo_solves(&g, &regs, &cfg, [None, None, None]);
            let mut warm = cold[2].0.clone();
            for (v, &m) in warm.queries.iter_mut().zip(&moved) {
                if m {
                    *v += 0.125;
                }
            }
            let warms = [Some(cold[0].0.clone()), None, Some(warm)];
            let mut n_classes = Vec::new();
            for warms in [[None, None, None], warms] {
                let want = solo_solves(&g, &regs, &cfg, warms.clone());
                let mut s = fused(&g, regs.clone(), &cfg, warms);
                n_classes.push(s.n_classes());
                s.run_to_completion();
                let got = per_walk(s.finish());
                for (i, ((gu, gs), (wu, ws))) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(gs, ws, "system {}: sweep counts diverged", i);
                    prop_assert!(bits(gu) == bits(wu), "system {}: utilities diverged", i);
                }
            }
            prop_assert!(
                n_classes[0] <= hoods.len() && hoods.len() < nq,
                "cold classes {} must collapse {} queries onto {} neighbourhoods",
                n_classes[0], nq, hoods.len()
            );
            prop_assert!(n_classes[1] >= n_classes[0], "a warm start only splits classes");
        }
    }
}

/// Zero-weight edges are dropped at build time, so a candidate attached
/// only by weightless edges is genuinely disconnected: its bound — and
/// its fixpoint — collapse to the regularization share exactly.
#[test]
fn zero_weight_edges_leave_bounds_at_the_disconnected_value() {
    let mut with_zero = GraphBuilder::new(3, 3, 1);
    with_zero.page_query(0, 0, 1.0).page_query(1, 0, 1.0);
    with_zero.page_query(2, 1, 0.0); // dropped: weightless
    with_zero.query_template(1, 0, 0.0); // dropped too
    let g1 = with_zero.build();

    let mut without = GraphBuilder::new(3, 3, 1);
    without.page_query(0, 0, 1.0).page_query(1, 0, 1.0);
    let g2 = without.build();

    let cfg = WalkConfig::default();
    let mut reg = Regularization::zeros(&g1);
    reg.pages = vec![1.0, 0.0, 1.0];
    reg.queries = vec![0.0, 0.3, 0.7];
    let ub1 = static_bounds(&g1, &reg, &cfg);
    let ub2 = static_bounds(&g2, &reg, &cfg);
    assert_eq!(ub1, ub2, "weightless edges changed the bounds");
    // Queries 1 and 2 are disconnected: the bound is the fixpoint.
    let u = solve(&g1, UtilityKind::Recall, &reg, &cfg, Phase::Entity);
    assert_eq!(ub1[1], cfg.alpha * 0.3);
    assert_eq!(u.queries[1], ub1[1]);
    assert_eq!(ub1[2], cfg.alpha * 0.7);
    assert_eq!(u.queries[2], ub1[2]);
}

/// Random query-major unit-weight rows: `(n_pages, n_templates, page
/// rows, template rows)`. Rows may be empty and may repeat a neighbour;
/// the last page and the last template are never listed.
fn arb_unit_rows() -> impl Strategy<Value = (usize, usize, Vec<Vec<u32>>, Vec<Vec<u32>>)> {
    (1usize..8, 1usize..5, 0usize..12).prop_flat_map(|(np, nt, nq)| {
        let pages = proptest::collection::vec(proptest::collection::vec(0..np as u32, 0..np), nq);
        let templates =
            proptest::collection::vec(proptest::collection::vec(0..nt as u32, 0..3), nq);
        (Just(np + 1), Just(nt + 1), pages, templates)
    })
}

/// A [`GraphBuilder`] fed `pages` and `templates` query-major with
/// weight 1.
fn builder_of_rows(
    np: usize,
    nt: usize,
    pages: &[Vec<u32>],
    templates: &[Vec<u32>],
) -> ReinforcementGraph {
    let mut b = GraphBuilder::new(np, pages.len(), nt);
    for (q, row) in pages.iter().enumerate() {
        for &p in row {
            b.page_query(p, q as u32, 1.0);
        }
    }
    for (q, row) in templates.iter().enumerate() {
        for &t in row {
            b.query_template(q as u32, t, 1.0);
        }
    }
    b.build()
}

fn rows_of(rows: &[Vec<u32>]) -> QueryRows {
    let mut r = QueryRows::with_capacity(rows.len(), rows.iter().map(Vec::len).sum());
    for row in rows {
        r.to.extend_from_slice(row);
        r.end_row();
    }
    r
}

proptest! {
    /// The row-based constructor equals a `GraphBuilder` fed the same
    /// edges query-major with weight 1, field for field.
    #[test]
    fn unit_rows_equal_the_builder_field_for_field(
        (np, nt, pages, templates) in arb_unit_rows(),
        repeat in any::<bool>(),
    ) {
        let mut templates = templates;
        if repeat {
            // A repeated template id (a parallel edge) on the first row.
            if let Some(row) = templates.first_mut() {
                row.extend([0, 0]);
            }
        }
        let want = builder_of_rows(np, nt, &pages, &templates);
        let got = ReinforcementGraph::from_unit_rows(np, nt, rows_of(&pages), rows_of(&templates));
        prop_assert_eq!(&got, &want);
        prop_assert!(got.page_queries(np - 1).is_empty(), "an unlisted page has no edge");
        prop_assert!(got.template_queries(nt - 1).is_empty());
    }
}

/// Empty rows, a repeated template id and pages no query reaches, spelled
/// out: the row-based graph equals the builder's.
#[test]
fn unit_rows_cover_empty_rows_repeats_and_unreached_pages() {
    let pages = vec![vec![0, 2], vec![], vec![2], vec![]];
    let templates = vec![vec![1, 1], vec![0], vec![], vec![]];
    let g = ReinforcementGraph::from_unit_rows(4, 3, rows_of(&pages), rows_of(&templates));
    assert_eq!(g, builder_of_rows(4, 3, &pages, &templates));
    assert_eq!(g.template_deg, [1.0, 2.0, 0.0]);
    assert_eq!(g.query_templates_nrm(0), [0.5, 0.5]);
    assert!(g.page_queries(1).is_empty() && g.page_queries(3).is_empty());
    assert_eq!(g.n_edges(), 6);
}
