//! Certified truncation bounds for the context walks' fixpoints.
//!
//! The selection argmax only ever consumes the *query* block of the three
//! Recall context walks, and the Jacobi update map is a restart-damped
//! contraction. Both facts combine into cheap, rigorous control over a
//! truncated solve:
//!
//! * [`FusedTruncatedSolver`] solves the three walks on one graph
//!   together, one caller-paced Jacobi sweep at a time: each sweep loads
//!   every edge once and applies it to all three systems, and afterwards
//!   exposes a **certified tail bound** on how far each system's current
//!   query iterate can still move before convergence. Run to completion
//!   it is bitwise identical to per-system
//!   [`solve_detailed`](crate::solve_detailed) — a system's update reads
//!   only its own iterate, its per-vertex accumulation runs over edges in
//!   the solo sweep's order, and it stops the moment its own L1 delta
//!   crosses the tolerance (later sweeps still compute its new iterate
//!   but never swap it in) — so a caller that stops early only ever
//!   trades a *known* error for sweeps, never correctness.
//! * [`StaticBoundsContext`] bounds each query's true fixpoint utility
//!   from per-vertex in-strengths of the graph alone, without running a
//!   single sweep.
//!
//! Tail-bound derivation. Write one Jacobi sweep's block L1 deltas as
//! `d_P, d_Q, d_T` (pages / queries / templates; Recall's
//! sender-normalized coefficient columns sum to 1, so block L1 norms
//! contract). With `keep = 1 − α` and page/template side weights
//! `B_P, B_T` (the balance split when a missing side contributes zero,
//! else 1), one more sweep contracts the blocks jointly:
//!
//! ```text
//! d_P' ≤ keep·d_Q      d_T' ≤ keep·d_Q      d_Q' ≤ keep·(B_P·d_P + B_T·d_T)
//! ```
//!
//! so query deltas two sweeps apart shrink by `ρ = keep²·(B_P + B_T)`.
//! Summing the geometric series of all future query deltas gives the
//! distance from the current query iterate to the fixpoint:
//!
//! ```text
//! tail = (keep·(B_P·d_P + B_T·d_T) + ρ·d_Q) / (1 − ρ)      (ρ < 1)
//! ```
//!
//! With the defaults (α = 0.15, balanced sides) ρ = 0.7225. When ρ ≥ 1
//! (e.g. `missing_side_is_zero: false`, where both sides can carry full
//! weight) the bound degenerates to ∞ and callers must fall back to the
//! exact solve — truncation is then never certified, still never wrong.
//!
//! The block tail bounds the *sum* of all query errors, which is wildly
//! conservative for any single query. [`FusedTruncatedSolver::query_tails_into`]
//! refines it per query: query `q`'s update touches its neighbors'
//! iterates through coefficients no larger than `mx_q` (its maximum
//! incoming coefficient), so each of its future per-sweep moves is at
//! most `keep · mx_q ·` (the sending block's L1 delta), and summing the
//! same geometric series over *block* L1 deltas gives
//!
//! ```text
//! tail_q = keep·(B_P·mxP_q·S_P + B_T·mxT_q·S_T)
//! S_P = d_P + keep·(d_Q + tail)        S_T = d_T + keep·(d_Q + tail)
//! ```
//!
//! (`S_P, S_T` bound the sums of all present-and-future page/template
//! block deltas). `tail_q ≤ tail` whenever `mx_q` is small — the common
//! case, since sender normalization spreads each page's unit mass over
//! all its candidate queries.

use crate::graph::ReinforcementGraph;
use crate::solver::{
    l1, start_iterate, step_fused3_recall, sweeps_histogram, Regularization, Utilities, WalkConfig,
};

/// Per-block L1 movement of one sweep, summed in the solo solver's
/// convergence order so `total()` reproduces its decision bit for bit.
#[derive(Clone, Copy, Debug)]
struct BlockDeltas {
    pages: f64,
    queries: f64,
    templates: f64,
}

impl BlockDeltas {
    fn between(a: &Utilities, b: &Utilities) -> Self {
        Self {
            pages: l1(&a.pages, &b.pages),
            queries: l1(&a.queries, &b.queries),
            templates: l1(&a.templates, &b.templates),
        }
    }

    fn total(&self) -> f64 {
        self.pages + self.queries + self.templates
    }
}

/// Effective page/template side weights of a query update and the
/// two-sweep query contraction factor ρ.
fn side_weights(cfg: &WalkConfig) -> (f64, f64, f64) {
    let keep = 1.0 - cfg.alpha;
    let (bp, bt) = if cfg.missing_side_is_zero {
        (cfg.page_template_balance, 1.0 - cfg.page_template_balance)
    } else {
        // A lone side takes full weight, so neither side's coefficient
        // can be assumed below 1.
        (1.0, 1.0)
    };
    (bp, bt, keep * keep * (bp + bt))
}

/// The three Recall context walks on one graph, solved together in
/// caller-paced fused Jacobi sweeps with a certified per-sweep tail
/// bound on each system's query block (see the module docs).
pub struct FusedTruncatedSolver<'g> {
    g: &'g ReinforcementGraph,
    regs: [Regularization; 3],
    cfg: WalkConfig,
    curs: [Utilities; 3],
    nexts: [Utilities; 3],
    sweeps: [usize; 3],
    active: [bool; 3],
    deltas: [Option<BlockDeltas>; 3],
    iters: usize,
    span: l2q_obs::SpanTimer,
    /// Per-query maximum incoming coefficient from the page / template
    /// side (the per-query tail refinement needs them).
    mx_page_in: Vec<f64>,
    mx_tmpl_in: Vec<f64>,
}

impl<'g> FusedTruncatedSolver<'g> {
    /// Start the three Recall systems exactly as [`solve_detailed`]
    /// would start each one: warm iterate when given, else the
    /// regularization vector.
    ///
    /// [`solve_detailed`]: crate::solve_detailed
    pub fn new(
        g: &'g ReinforcementGraph,
        regs: [Regularization; 3],
        cfg: &WalkConfig,
        mut warms: [Option<Utilities>; 3],
    ) -> Self {
        let span = l2q_obs::span!("graph_solve");
        let curs = std::array::from_fn(|i| start_iterate(g, &regs[i], cfg, warms[i].take()));
        let nexts = std::array::from_fn(|_| Utilities::zeros(g));
        // Max incoming coefficient per *sender*, not per edge: parallel
        // edges from the same page (or template) act as one sender whose
        // coefficients add, and the bound must cover that sum.
        let mut acc = vec![0.0f64; g.n_pages().max(g.n_templates())];
        let mut mx = |edges: &[crate::graph::Edge], nrm: &[f64]| -> f64 {
            for (e, &c) in edges.iter().zip(nrm) {
                acc[e.to as usize] += c;
            }
            let mut m = 0.0f64;
            for e in edges {
                let s = &mut acc[e.to as usize];
                m = m.max(*s);
                *s = 0.0;
            }
            m
        };
        let mx_page_in = (0..g.n_queries())
            .map(|q| mx(g.query_pages(q), g.query_pages_nrm(q)))
            .collect();
        let mx_tmpl_in = (0..g.n_queries())
            .map(|q| mx(g.query_templates(q), g.query_templates_nrm(q)))
            .collect();
        Self {
            g,
            regs,
            cfg: *cfg,
            curs,
            nexts,
            sweeps: [0; 3],
            active: [true; 3],
            deltas: [None; 3],
            iters: 0,
            span,
            mx_page_in,
            mx_tmpl_in,
        }
    }

    /// Execute one fused Jacobi sweep. Returns `false` — without
    /// sweeping — once every system converged or the sweep cap is hit,
    /// mirroring a solo solve's loop exit conditions.
    pub fn sweep(&mut self) -> bool {
        if self.iters >= self.cfg.max_iters || self.all_converged() {
            return false;
        }
        step_fused3_recall(self.g, &self.regs, &self.cfg, &self.curs, &mut self.nexts);
        self.iters += 1;
        for i in 0..3 {
            if !self.active[i] {
                // Converged: this sweep's new iterate is discarded.
                continue;
            }
            self.sweeps[i] += 1;
            let d = BlockDeltas::between(&self.curs[i], &self.nexts[i]);
            std::mem::swap(&mut self.curs[i], &mut self.nexts[i]);
            if d.total() < self.cfg.tolerance {
                self.active[i] = false;
            }
            self.deltas[i] = Some(d);
        }
        true
    }

    /// True once every system's L1 delta crossed the tolerance.
    pub fn all_converged(&self) -> bool {
        !self.active.iter().any(|&x| x)
    }

    /// System `i`'s current query iterate.
    pub fn queries(&self, i: usize) -> &[f64] {
        &self.curs[i].queries
    }

    /// Certified bound on `max_q |queries(i)[q] − fixpoint_q|`: no query
    /// utility of system `i` is farther than this from its true
    /// fixpoint value. `INFINITY` before the system's first sweep or
    /// when the contraction factor ρ ≥ 1 (see module docs).
    pub fn tail(&self, i: usize) -> f64 {
        let Some(d) = &self.deltas[i] else {
            return f64::INFINITY;
        };
        let keep = 1.0 - self.cfg.alpha;
        let (bp, bt, rho) = side_weights(&self.cfg);
        if !rho.is_finite() || rho >= 1.0 {
            return f64::INFINITY;
        }
        (keep * (bp * d.pages + bt * d.templates) + rho * d.queries) / (1.0 - rho)
    }

    /// Scalar coefficients `(a, b)` of system `i`'s per-query tail
    /// refinement: `tail_q = min(a·mxP_q + b·mxT_q, tail(i))` with the
    /// per-query maxima from [`Self::max_in_coeffs`] — so one sweep's
    /// refinement costs O(1) per inspected query instead of O(n).
    /// `None` when the refinement doesn't apply (ρ ≥ 1 or no sweep
    /// yet): every query then falls back to the block tail.
    pub fn query_tail_coeffs(&self, i: usize) -> Option<(f64, f64)> {
        let t = self.tail(i);
        let d = self.deltas[i].as_ref().filter(|_| t.is_finite())?;
        let keep = 1.0 - self.cfg.alpha;
        let (bp, bt, _) = side_weights(&self.cfg);
        let s_p = d.pages + keep * (d.queries + t);
        let s_t = d.templates + keep * (d.queries + t);
        Some((keep * bp * s_p, keep * bt * s_t))
    }

    /// Per-query maximum incoming coefficient from the page / template
    /// side.
    pub fn max_in_coeffs(&self) -> (&[f64], &[f64]) {
        (&self.mx_page_in, &self.mx_tmpl_in)
    }

    /// Per-query certified tails of system `i`, written into `out` (one
    /// entry per query, `min(block tail, per-query refinement)`; see the
    /// module docs). Falls back to the block tail for every query when
    /// the refinement doesn't apply (ρ ≥ 1 or no sweep yet).
    pub fn query_tails_into(&self, i: usize, out: &mut Vec<f64>) {
        let t = self.tail(i);
        out.clear();
        let n = self.g.n_queries();
        match self.query_tail_coeffs(i) {
            Some((a, b)) => {
                out.extend((0..n).map(|q| (a * self.mx_page_in[q] + b * self.mx_tmpl_in[q]).min(t)))
            }
            None => out.extend(std::iter::repeat_n(t, n)),
        }
    }

    /// Sweep the remaining systems to convergence (or the cap). After
    /// this, each system's iterate matches its solo [`solve_detailed`]
    /// bit for bit.
    ///
    /// [`solve_detailed`]: crate::solve_detailed
    pub fn run_to_completion(&mut self) {
        while self.sweep() {}
    }

    /// Finish the solve: record per-system sweep counts, mark the span
    /// `truncated` (stopped early by the caller) or `maxed` (hit the
    /// sweep cap), and hand back `(utilities, sweeps)` in input order.
    pub fn finish(mut self) -> [(Utilities, usize); 3] {
        if !self.all_converged() {
            self.span.set_status(if self.iters >= self.cfg.max_iters {
                "maxed"
            } else {
                "truncated"
            });
        }
        for &s in &self.sweeps {
            sweeps_histogram().record(s as f64);
        }
        let Self {
            curs, sweeps, span, ..
        } = self;
        drop(span); // records graph_solve_seconds for the whole solve
        let [c0, c1, c2] = curs;
        [(c0, sweeps[0]), (c1, sweeps[1]), (c2, sweeps[2])]
    }
}

/// `c * m` treating an absent contribution (`c == 0`) as exactly zero
/// even when the bound `m` is infinite.
fn mul0(c: f64, m: f64) -> f64 {
    if c == 0.0 {
        0.0
    } else {
        c * m
    }
}

/// Per-query upper bounds on the *true fixpoint* query utilities of the
/// Recall walks over one graph, from graph structure and regularization
/// alone (no sweeps).
///
/// Let `s_in(v)` be a vertex's incoming coefficient sum (the sum of
/// sender-normalized weights into `v`). Taking block maxima
/// `M_P, M_Q, M_T` of the fixpoint and bounding each update by
/// in-strength × block max yields a linear system in the maxima whose
/// solution gives, per query `q` with side in-strengths `sP_q, sT_q`:
///
/// ```text
/// ub_q = keep·(B_P·sP_q·M_P + B_T·sT_q·M_T) + α·Û_q
/// ```
///
/// Requires non-negative regularization (all of this crate's
/// regularizations are); on dense graphs the linear system can be
/// singular-or-worse (`denom ≤ 0`), in which case connected queries get
/// `INFINITY` — a valid, useless bound. A disconnected query's bound is
/// exactly its fixpoint `α·Û_q`.
///
/// The in-strengths and their block maxima are graph constants, so the
/// context is built once per graph and each walk's bounds derive from its
/// regularization maxima alone — an O(pages + templates + queries) scan
/// instead of an O(edges) sweep per walk.
pub struct StaticBoundsContext {
    alpha: f64,
    bp: f64,
    bt: f64,
    n_pages: usize,
    n_templates: usize,
    /// Per-query page-side / template-side in-strengths.
    s_q_pages: Vec<f64>,
    s_q_templates: Vec<f64>,
    /// Block maxima of the receiver in-strengths.
    c_p: f64,
    c_t: f64,
    i_p: f64,
    i_t: f64,
}

impl StaticBoundsContext {
    /// Scan the graph's in-strengths once.
    pub fn new(g: &ReinforcementGraph, cfg: &WalkConfig) -> Self {
        let s_pages: Vec<f64> = (0..g.n_pages())
            .map(|p| g.page_queries_nrm(p).iter().sum())
            .collect();
        let s_templates: Vec<f64> = (0..g.n_templates())
            .map(|t| g.template_queries_nrm(t).iter().sum())
            .collect();
        let s_q_pages: Vec<f64> = (0..g.n_queries())
            .map(|q| g.query_pages_nrm(q).iter().sum())
            .collect();
        let s_q_templates: Vec<f64> = (0..g.n_queries())
            .map(|q| g.query_templates_nrm(q).iter().sum())
            .collect();
        let max = |v: &[f64]| v.iter().fold(0.0f64, |m, &x| m.max(x));
        let (bp, bt, _) = side_weights(cfg);
        Self {
            alpha: cfg.alpha,
            bp,
            bt,
            n_pages: g.n_pages(),
            n_templates: g.n_templates(),
            c_p: max(&s_pages), // strongest page receiver
            c_t: max(&s_templates),
            i_p: max(&s_q_pages), // strongest query page-side receiver
            i_t: max(&s_q_templates),
            s_q_pages,
            s_q_templates,
        }
    }

    /// Bounds for one walk's regularization over the context's graph.
    pub fn query_upper_bounds(&self, reg: &Regularization) -> Vec<f64> {
        assert_eq!(reg.pages.len(), self.n_pages, "page regularization shape");
        assert_eq!(
            reg.queries.len(),
            self.s_q_pages.len(),
            "query regularization shape"
        );
        assert_eq!(
            reg.templates.len(),
            self.n_templates,
            "template regularization shape"
        );
        assert!(
            reg.pages
                .iter()
                .chain(&reg.queries)
                .chain(&reg.templates)
                .all(|&x| x >= 0.0),
            "static bounds need non-negative regularization"
        );

        let a = self.alpha;
        let keep = 1.0 - a;
        let (bp, bt) = (self.bp, self.bt);
        let (c_p, c_t, i_p, i_t) = (self.c_p, self.c_t, self.i_p, self.i_t);
        let max = |v: &[f64]| v.iter().fold(0.0f64, |m, &x| m.max(x));
        let mr_p = max(&reg.pages);
        let mr_t = max(&reg.templates);
        let mr_q = max(&reg.queries);

        // Fixpoint block maxima: M_P ≤ keep·c_p·M_Q + α·mr_p (same for
        // templates), M_Q ≤ keep·(B_P·i_p·M_P + B_T·i_t·M_T) + α·mr_q.
        let denom = 1.0 - keep * keep * (bp * i_p * c_p + bt * i_t * c_t);
        let m_q = if denom > 0.0 {
            (keep * a * (bp * i_p * mr_p + bt * i_t * mr_t) + a * mr_q) / denom
        } else {
            f64::INFINITY
        };
        let m_p = mul0(keep * c_p, m_q) + a * mr_p;
        let m_t = mul0(keep * c_t, m_q) + a * mr_t;

        (0..self.s_q_pages.len())
            .map(|q| {
                keep * (mul0(bp * self.s_q_pages[q], m_p) + mul0(bt * self.s_q_templates[q], m_t))
                    + a * reg.queries[q]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::solver::{solve_detailed, UtilityKind};

    /// Fig. 2 pages/queries plus two templates so every block is live.
    fn fixture() -> ReinforcementGraph {
        let mut b = GraphBuilder::new(6, 5, 2);
        b.page_query(0, 0, 1.0)
            .page_query(1, 0, 1.0)
            .page_query(2, 0, 1.0);
        b.page_query(0, 1, 1.0).page_query(1, 1, 1.0);
        b.page_query(2, 2, 1.0).page_query(3, 2, 1.0);
        b.page_query(3, 3, 1.0)
            .page_query(4, 3, 1.0)
            .page_query(5, 3, 1.0);
        b.page_query(5, 4, 1.0);
        b.query_template(0, 0, 1.0).query_template(1, 0, 1.0);
        b.query_template(3, 1, 1.0).query_template(4, 1, 1.0);
        b.build()
    }

    fn relevance() -> Vec<bool> {
        vec![true, true, true, true, false, false]
    }

    fn context_regs(g: &ReinforcementGraph) -> [Regularization; 3] {
        let mut regs = [
            Regularization::recall_from_relevance(g, &relevance()),
            Regularization::recall_from_relevance(g, &[true, false, true, false, true, false]),
            Regularization::recall_from_relevance(g, &vec![true; g.n_pages()]),
        ];
        regs[1].templates[0] = 0.4; // exercise the template block
        regs
    }

    /// Each system solved on its own, the reference the fused solver
    /// must reproduce bit for bit.
    fn solo_solves(
        g: &ReinforcementGraph,
        regs: &[Regularization],
        cfg: &WalkConfig,
        warms: [Option<Utilities>; 3],
    ) -> Vec<(Utilities, usize)> {
        regs.iter()
            .zip(warms)
            .map(|(r, w)| solve_detailed(g, UtilityKind::Recall, r, cfg, w))
            .collect()
    }

    #[test]
    fn run_to_completion_matches_solo_solves_bitwise() {
        let g = fixture();
        let cfg = WalkConfig::default();
        let regs = context_regs(&g);
        let reference = solo_solves(&g, &regs, &cfg, [None, None, None]);
        // Mixed warm/cold second round, as the incremental phase produces.
        let warms = [Some(reference[0].0.clone()), None, None];
        let reference_warm = solo_solves(&g, &regs, &cfg, warms.clone());

        for (warm_set, want) in [([None, None, None], &reference), (warms, &reference_warm)] {
            let mut s = FusedTruncatedSolver::new(&g, context_regs(&g), &cfg, warm_set);
            s.run_to_completion();
            let got = s.finish();
            for ((gu, gs), (wu, ws)) in got.iter().zip(want.iter()) {
                assert_eq!(gs, ws, "sweep counts diverged");
                assert_eq!(gu.pages, wu.pages);
                assert_eq!(gu.queries, wu.queries);
                assert_eq!(gu.templates, wu.templates);
            }
        }
    }

    /// A solve far below the operating tolerance, standing in for the
    /// true fixpoint.
    fn exact(g: &ReinforcementGraph, reg: &Regularization) -> Utilities {
        let tight = WalkConfig {
            max_iters: 2000,
            tolerance: 1e-14,
            ..WalkConfig::default()
        };
        solve_detailed(g, UtilityKind::Recall, reg, &tight, None).0
    }

    #[test]
    fn tail_dominates_the_true_truncation_error_at_every_sweep() {
        let g = fixture();
        let cfg = WalkConfig::default();
        let regs = context_regs(&g);
        let fixpoints: Vec<Utilities> = regs.iter().map(|r| exact(&g, r)).collect();
        let mut s = FusedTruncatedSolver::new(&g, regs, &cfg, [None, None, None]);
        assert!(s.tail(0).is_infinite(), "no bound before the first sweep");
        let mut prev = [f64::INFINITY; 3];
        let mut qtails = Vec::new();
        while s.sweep() {
            for i in 0..3 {
                let tail = s.tail(i);
                s.query_tails_into(i, &mut qtails);
                for (q, ((&a, &b), &tq)) in s
                    .queries(i)
                    .iter()
                    .zip(&fixpoints[i].queries)
                    .zip(&qtails)
                    .enumerate()
                {
                    let err = (a - b).abs();
                    assert!(
                        err <= tail,
                        "system {i}: true error {err} above tail {tail}"
                    );
                    assert!(
                        err <= tq,
                        "system {i} q{q}: error {err} above query tail {tq}"
                    );
                    assert!(tq <= tail, "query tails refine the block tail");
                }
                // Monotone up to float rounding in the delta folds.
                assert!(
                    tail <= prev[i] * (1.0 + 1e-12),
                    "tail must shrink monotonically"
                );
                prev[i] = tail;
            }
        }
    }

    #[test]
    fn early_stop_then_completion_still_lands_on_the_fixpoint() {
        let g = fixture();
        let cfg = WalkConfig::default();
        let regs = context_regs(&g);
        let want = solo_solves(&g, &regs, &cfg, [None, None, None]);
        let mut s = FusedTruncatedSolver::new(&g, regs, &cfg, [None, None, None]);
        for _ in 0..5 {
            assert!(s.sweep(), "fixture needs more than 5 sweeps");
        }
        // A caller that inspected tails and declined to certify resumes.
        s.run_to_completion();
        let got = s.finish();
        for ((gu, gs), (wu, ws)) in got.iter().zip(want.iter()) {
            assert_eq!(gs, ws);
            assert_eq!(gu.queries, wu.queries);
        }
    }

    #[test]
    fn static_bounds_dominate_the_solved_utilities() {
        let g = fixture();
        let ctx = StaticBoundsContext::new(&g, &WalkConfig::default());
        for reg in context_regs(&g) {
            let ub = ctx.query_upper_bounds(&reg);
            let u = exact(&g, &reg);
            for (q, (&b, &x)) in ub.iter().zip(&u.queries).enumerate() {
                assert!(b >= x, "q{q}: bound {b} below utility {x}");
            }
        }
    }

    #[test]
    fn disconnected_query_bound_is_exactly_its_regularization_share() {
        let mut b = GraphBuilder::new(2, 3, 1);
        b.page_query(0, 0, 1.0).page_query(1, 1, 1.0);
        b.query_template(0, 0, 1.0);
        let g = b.build(); // query 2 has no edges at all
        let cfg = WalkConfig::default();
        let mut reg = Regularization::zeros(&g);
        reg.queries[2] = 0.8;
        let ub = StaticBoundsContext::new(&g, &cfg).query_upper_bounds(&reg);
        assert_eq!(ub[2], cfg.alpha * 0.8);
        let u = solve_detailed(&g, UtilityKind::Recall, &reg, &cfg, None).0;
        assert_eq!(u.queries[2], ub[2], "disconnected bound must be tight");
    }

    #[test]
    fn unbounded_contraction_disables_tails_but_not_the_solve() {
        let g = fixture();
        let cfg = WalkConfig {
            missing_side_is_zero: false, // ρ = 2·keep² > 1
            ..WalkConfig::default()
        };
        let regs = context_regs(&g);
        let want = solo_solves(&g, &regs, &cfg, [None, None, None]);
        let mut s = FusedTruncatedSolver::new(&g, regs, &cfg, [None, None, None]);
        while s.sweep() {
            for i in 0..3 {
                assert!(s.tail(i).is_infinite(), "ρ ≥ 1 must never certify");
            }
        }
        let got = s.finish();
        for ((gu, _), (wu, _)) in got.iter().zip(want.iter()) {
            assert_eq!(gu.queries, wu.queries);
        }
    }
}
