//! Property-based tests for the reinforcement-graph solver on tripartite
//! (page–query–template) graphs, and the solvers' pinned bits.

use l2q_graph::{
    solve, solve_detailed, FusedSolution, FusedTruncatedSolver, GraphBuilder, Interleaved, Phase,
    QueryClasses, Regularization, ReinforcementGraph, Rows, Utilities, UtilityKind, WalkConfig,
};
use proptest::prelude::*;

type Tripartite = (
    usize,
    usize,
    usize,
    Vec<(u32, u32)>,
    Vec<(u32, u32)>,
    Vec<bool>,
);

/// Random tripartite graph; an edge drawn twice is a parallel edge.
fn arb_tripartite() -> impl Strategy<Value = Tripartite> {
    (2usize..8, 2usize..14, 1usize..6).prop_flat_map(|(np, nq, nt)| {
        let pq = proptest::collection::vec((0..np as u32, 0..nq as u32), 1..40);
        let qt = proptest::collection::vec((0..nq as u32, 0..nt as u32), 0..20);
        let rel = proptest::collection::vec(any::<bool>(), np);
        (Just(np), Just(nq), Just(nt), pq, qt, rel)
    })
}

fn build(
    np: usize,
    nq: usize,
    nt: usize,
    pq: &[(u32, u32)],
    qt: &[(u32, u32)],
) -> l2q_graph::ReinforcementGraph {
    let mut b = GraphBuilder::new(np, nq, nt);
    for &(p, q) in pq {
        b.page_query(p, q);
    }
    for &(q, t) in qt {
        b.query_template(q, t);
    }
    b.build()
}

proptest! {
    /// All utilities are finite and non-negative for both walks, for any
    /// tripartite graph.
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
    /// utility on any tripartite graph.
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
    /// any tripartite graph, from cold starts and from mixed
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
/// shared ones: queries of one neighbourhood have the same neighbour ids
/// (and so the same coefficient bits), so they form real
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
                b.page_query(p, q as u32);
            }
            for &t in templates {
                b.query_template(q as u32, t);
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

/// Random query-major rows: `(n_pages, n_templates, page
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

/// A [`GraphBuilder`] fed `pages` and `templates` query-major.
fn builder_of_rows(
    np: usize,
    nt: usize,
    pages: &[Vec<u32>],
    templates: &[Vec<u32>],
) -> ReinforcementGraph {
    let mut b = GraphBuilder::new(np, pages.len(), nt);
    for (q, row) in pages.iter().enumerate() {
        for &p in row {
            b.page_query(p, q as u32);
        }
    }
    for (q, row) in templates.iter().enumerate() {
        for &t in row {
            b.query_template(q as u32, t);
        }
    }
    b.build()
}

fn rows_of(rows: &[Vec<u32>]) -> Rows {
    let mut r = Rows::with_capacity(rows.len(), rows.iter().map(Vec::len).sum());
    for row in rows {
        r.to.extend_from_slice(row);
        r.end_row();
    }
    r
}

proptest! {
    /// The row-based constructor equals a `GraphBuilder` fed the same
    /// edges query-major, field for field.
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
    assert_eq!(g.template_queries(0), [1]);
    assert_eq!(g.template_queries(1), [0, 0]);
    assert!(g.template_queries(2).is_empty());
    assert!(g.page_queries(1).is_empty() && g.page_queries(3).is_empty());
    assert_eq!(g.n_edges(), 6);
}

/// A fixed seeded graph: query 0 retrieves page 0 twice and query 1 is
/// abstracted by template 1 twice (parallel edges), query 5 has no edge,
/// queries 11–13 copy query 2's neighbourhood (one class), and four
/// templates are shared among the rest.
fn pinned_graph() -> ReinforcementGraph {
    let (np, nq, nt) = (9u32, 14u32, 4u32);
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut draw = move |n: u32| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % u64::from(n)) as u32
    };
    let mut rows: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
    for q in 0..11 {
        let mut pages: Vec<u32> = (0..1 + draw(4)).map(|_| draw(np)).collect();
        let mut templates: Vec<u32> = (0..draw(3)).map(|_| draw(nt)).collect();
        match q {
            0 => pages.extend([0, 0]),
            1 => templates.extend([1, 1]),
            5 => (pages, templates) = (vec![], vec![]),
            _ => {}
        }
        rows.push((pages, templates));
    }
    while rows.len() < nq as usize {
        rows.push(rows[2].clone());
    }
    let mut b = GraphBuilder::new(np as usize, nq as usize, nt as usize);
    for (q, (pages, templates)) in rows.iter().enumerate() {
        for &p in pages {
            b.page_query(p, q as u32);
        }
        for &t in templates {
            b.query_template(q as u32, t);
        }
    }
    b.build()
}

/// FNV-1a over 64-bit words.
fn fold_bits(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A solo solve's utilities and sweep count, folded.
fn fold_solve((u, sweeps): (Utilities, usize)) -> u64 {
    fold_bits(bits(&u).into_iter().chain([sweeps as u64]))
}

/// A fused solve's iterates and sweep counts, per walk, folded.
fn fold_fused(sol: FusedSolution) -> u64 {
    fold_bits(per_walk(sol).into_iter().map(fold_solve))
}

/// The solo kernels, the fused kernel, its tails and its static bounds
/// on a fixed graph, pinned to fixed bits. The proptests compare the
/// solvers with each other; this test catches a change that moves both
/// the same way.
#[test]
fn kernels_reproduce_their_pinned_bits() {
    let g = pinned_graph();
    let cfg = WalkConfig::default();
    let rel = [true, false, true, true, false, false, true, false, false];
    let warm = Utilities {
        pages: (0..g.n_pages()).map(|p| p as f64 / 8.0).collect(),
        queries: (0..g.n_queries()).map(|q| 1.0 / (1.0 + q as f64)).collect(),
        templates: vec![0.25; g.n_templates()],
    };
    let solo = |kind, reg: &Regularization, w: Option<Utilities>| {
        fold_solve(solve_detailed(&g, kind, reg, &cfg, w, Phase::Entity))
    };
    let mut preg = Regularization::precision_from_relevance(&g, &rel);
    preg.templates[2] = 0.5;
    let rreg = Regularization::recall_from_relevance(&g, &rel);
    let mut regs = walk_regs(&g, &rel);
    regs[1].templates[0] = 0.4;

    let mut completed = fused(&g, regs.clone(), &cfg, [Some(warm.clone()), None, None]);
    completed.run_to_completion();
    let mut stopped = fused(&g, regs, &cfg, [None, None, None]);
    for _ in 0..4 {
        assert!(stopped.sweep(), "the pinned graph needs more than 4 sweeps");
    }
    let certificates = fold_bits((0..stopped.n_classes()).flat_map(|c| {
        let s = &stopped;
        (0..3).flat_map(move |i| {
            [
                s.class_values(c)[i],
                s.class_tail(i, c),
                s.class_bounds(c)[i],
                s.tail(i),
            ]
            .map(f64::to_bits)
        })
    }));
    let got = [
        solo(UtilityKind::Precision, &preg, None),
        solo(UtilityKind::Precision, &preg, Some(warm.clone())),
        solo(UtilityKind::Recall, &rreg, None),
        solo(UtilityKind::Recall, &rreg, Some(warm)),
        fold_fused(completed.finish()),
        certificates,
        fold_fused(stopped.finish()),
    ];
    let want: [u64; 7] = [
        0xf8e1_ff22_6a69_f84f,
        0x9a7d_4241_4285_6314,
        0x3508_745d_99c8_5a34,
        0xc91e_3867_2c94_f8ab,
        0x2dc8_b84f_c4fc_16b5,
        0xdbe5_abf8_b691_fcd3,
        0x65d1_9e66_839f_b1b7,
    ];
    assert_eq!(
        got.map(|h| format!("{h:#018x}")),
        want.map(|h| format!("{h:#018x}")),
        "kernel bits moved"
    );
}
