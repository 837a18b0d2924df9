//! The three Recall context walks, solved together over classes of
//! interchangeable queries, with certified truncation bounds.
//!
//! The selection argmax only ever consumes the *query* block of the three
//! Recall context walks, and the Jacobi update map is a restart-damped
//! contraction. Both facts combine into cheap, rigorous control over a
//! truncated solve: [`FusedTruncatedSolver`] solves the three walks on
//! one graph together, one caller-paced Jacobi sweep at a time, and after
//! each sweep exposes a **certified tail bound** on how far each walk's
//! current query iterate can still move before convergence, plus static
//! upper bounds on every query's fixpoint.
//!
//! ## Query classes
//!
//! Many candidate queries are interchangeable: they retrieve the same
//! pages and are abstracted by the same templates. Two queries with the
//! same page and template neighbour ids in edge order, and the same start
//! value and query regularization bits in all three walks, receive
//! bitwise-identical updates at every sweep (by induction over the
//! sweeps: a Jacobi update reads only the neighbours' previous iterates,
//! in edge order). Every edge weighs 1, so an edge's coefficient,
//! `1 / deg(sender)`, follows from its neighbour id: equal ids mean equal
//! coefficients. The solver updates one representative per class of such
//! queries. Pages and templates keep one vertex each and read their query
//! neighbours' classes, edge by edge in the graph's order.
//!
//! [`QueryClasses`] are numbered in order of their first member. The
//! canonical partition, [`QueryClasses::canonical`], compares exactly
//! that signature: candidates are bucketed by a hash of it and compared
//! exactly within a bucket, so a hash collision can split a bucket but
//! never merge two classes. [`FusedTruncatedSolver::with_classes`] takes
//! the partition from its caller, who may know it without comparing
//! edges — the entity phase's candidate table names each distinct (page
//! list, template list) pair — and debug builds check it against the
//! canonical one.
//!
//! ## Layout and fold order
//!
//! The three walks are interleaved: each page, template and class holds
//! one `[f64; 3]`, so one edge load feeds all three walks. The sweep
//! reads four tables in the graph's own CSR layout (neighbour rows with
//! the coefficients beside them): page → class, template → class, and
//! each class's representative's page and template rows. A sweep runs
//! pages, then templates, then classes, reading only the previous
//! iterate. The block L1 deltas are folded into those loops: pages and
//! templates in vertex order, and the query block in candidate order
//! through the class map (each candidate adds its class's movement), so
//! every sum runs over the same operands in the same order as a solo
//! sweep's `l1`. After the first sweep the query fold skips the members
//! of edgeless classes: such a class updates to `α·Û` on sweep 1 and
//! stays there, so each later sweep it adds exactly +0.0, which leaves a
//! non-negative sum unchanged bit for bit. Run to completion the solver
//! is therefore bitwise identical to per-walk
//! [`solve_detailed`](crate::solve_detailed) —
//! utilities and sweep counts: each walk stops the moment its own L1
//! delta crosses the tolerance and keeps its converged iterate while the
//! others sweep on. A caller that stops early only ever trades a *known*
//! error for sweeps, never correctness. The adjacency copies are
//! solve-local; [`FusedTruncatedSolver::finish`] hands the interleaved
//! iterates back as a [`FusedSolution`].
//!
//! ## Tail bounds
//!
//! Write one Jacobi sweep's block L1 deltas as `d_P, d_Q, d_T` (pages /
//! queries / templates; Recall's sender-normalized coefficient columns
//! sum to 1, so block L1 norms contract). With `keep = 1 − α` and
//! page/template side weights `B_P, B_T` (the balance split when a
//! missing side contributes zero, else 1), one more sweep contracts the
//! blocks jointly:
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
//! conservative for any single query. [`FusedTruncatedSolver::class_tail`]
//! refines it per class: a query `q`'s update touches its neighbours'
//! iterates through coefficients no larger than `mx_q` (its maximum
//! incoming coefficient per sender), so each of its future per-sweep
//! moves is at most `keep · mx_q ·` (the sending block's L1 delta), and
//! summing the same geometric series over *block* L1 deltas gives
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
//!
//! ## Static bounds
//!
//! [`FusedTruncatedSolver::class_bounds`] bounds each class's true
//! fixpoint from in-strengths alone, without running a single sweep. Let
//! `s_in(v)` be a vertex's incoming coefficient sum. Taking block maxima
//! `M_P, M_Q, M_T` of the fixpoint and bounding each update by
//! in-strength × block max yields a linear system in the maxima whose
//! solution gives, per query `q` with side in-strengths `sP_q, sT_q`:
//!
//! ```text
//! ub_q = keep·(B_P·sP_q·M_P + B_T·sT_q·M_T) + α·Û_q
//! ```
//!
//! It requires non-negative regularization (all of this crate's
//! regularizations are). On dense graphs the linear system can be
//! singular-or-worse (`denom ≤ 0`), in which case connected queries get
//! `INFINITY` — a valid, useless bound. A disconnected query's bound is
//! exactly its fixpoint `α·Û_q`.

use crate::graph::{Adjacency, ReinforcementGraph};
use crate::solver::{combine, sweeps_histogram, Regularization, WalkConfig};
use std::sync::{Arc, OnceLock};

/// One value per walk, side by side.
type Tri = [f64; 3];

/// The three walks' values on every page, query and template, one
/// `[f64; 3]` per vertex (walk order as given to the solver).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Interleaved {
    /// Per page.
    pub pages: Vec<[f64; 3]>,
    /// Per query.
    pub queries: Vec<[f64; 3]>,
    /// Per template.
    pub templates: Vec<[f64; 3]>,
}

impl Interleaved {
    /// Three walks side by side: lane `w` of every vertex is
    /// `walks[w]`'s value.
    pub fn from_walks(walks: &[Regularization; 3]) -> Self {
        let [a, b, c] = walks;
        Self {
            pages: interleave([&a.pages, &b.pages, &c.pages]),
            queries: interleave([&a.queries, &b.queries, &c.queries]),
            templates: interleave([&a.templates, &b.templates, &c.templates]),
        }
    }

    fn assert_shaped_for(&self, g: &ReinforcementGraph, what: &str) {
        assert_eq!(self.pages.len(), g.n_pages(), "{what} page shape");
        assert_eq!(self.queries.len(), g.n_queries(), "{what} query shape");
        assert_eq!(
            self.templates.len(),
            g.n_templates(),
            "{what} template shape"
        );
    }
}

/// A partition of a graph's query vertices into classes, numbered in
/// order of their first member (see the module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryClasses {
    class_of: Vec<u32>,
    first: Vec<u32>,
}

impl QueryClasses {
    /// The classes of the equivalence `same` over `0..n`, numbered in
    /// order of their first item. Items are placed by `fingerprint`
    /// (equal for items of one class) in an open-addressing table and
    /// compared with `same` only against classes of equal fingerprint,
    /// so a fingerprint collision splits a bucket and never merges two
    /// classes.
    pub fn partition(
        n: usize,
        fingerprint: impl Fn(usize) -> u64,
        same: impl Fn(usize, usize) -> bool,
    ) -> Self {
        if n == 0 {
            return Self::default();
        }
        assert!(n < u32::MAX as usize, "{n} items overflow u32 class ids");
        // At least twice as many slots as items: probing always ends.
        let slots = (2 * n).next_power_of_two();
        let shift = 64 - slots.trailing_zeros();
        let mut table = vec![u32::MAX; slots];
        let mut class_fp: Vec<u64> = Vec::new();
        let mut first: Vec<u32> = Vec::new();
        let mut class_of = Vec::with_capacity(n);
        for item in 0..n {
            let fp = fingerprint(item);
            let mut slot = (fp.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize;
            let class = loop {
                let c = table[slot];
                if c == u32::MAX {
                    table[slot] = first.len() as u32;
                    class_fp.push(fp);
                    first.push(item as u32);
                    break table[slot];
                }
                if class_fp[c as usize] == fp && same(first[c as usize] as usize, item) {
                    break c;
                }
                slot = (slot + 1) & (slots - 1);
            };
            class_of.push(class);
        }
        Self { class_of, first }
    }

    /// The canonical partition of `g`'s queries: equal page and template
    /// neighbour ids in edge order, and equal start and regularization
    /// bits in all three walks. (The coefficients follow from the ids.)
    pub fn canonical(g: &ReinforcementGraph, start: &[[f64; 3]], reg: &[[f64; 3]]) -> Self {
        let sides = |q: usize| [g.query_pages(q), g.query_templates(q)];
        let bits = |x: &Tri| x.map(f64::to_bits);
        let fingerprint = |q: usize| -> u64 {
            let mut h = 0u64;
            for ids in sides(q) {
                h = mix(h, ids.len() as u64);
                for &id in ids {
                    h = mix(h, u64::from(id));
                }
            }
            for b in bits(&start[q]).into_iter().chain(bits(&reg[q])) {
                h = mix(h, b);
            }
            h
        };
        let same = |a: usize, b: usize| -> bool {
            bits(&start[a]) == bits(&start[b])
                && bits(&reg[a]) == bits(&reg[b])
                && sides(a) == sides(b)
        };
        Self::partition(g.n_queries(), fingerprint, same)
    }

    /// The class of each query.
    pub fn class_of(&self) -> &[u32] {
        &self.class_of
    }
}

/// A finished fused solve: each walk's iterate on every page, template
/// and query class, and each walk's sweep count.
#[derive(Debug)]
pub struct FusedSolution {
    /// Per page.
    pub pages: Vec<[f64; 3]>,
    /// Per template.
    pub templates: Vec<[f64; 3]>,
    /// Per class; query `q` holds `classes[class_of()[q]]`.
    pub classes: Vec<[f64; 3]>,
    /// The query classes the solve swept.
    pub query_classes: QueryClasses,
    /// Sweeps each walk ran.
    pub sweeps: [usize; 3],
}

impl FusedSolution {
    /// Query `q`'s iterate in each walk.
    pub fn query(&self, q: usize) -> [f64; 3] {
        self.classes[self.query_classes.class_of[q] as usize]
    }
}

/// Per-block L1 movement of one sweep, summed in the solo solver's
/// convergence order so `total()` reproduces its decision bit for bit.
#[derive(Clone, Copy, Debug)]
struct BlockDeltas {
    pages: f64,
    queries: f64,
    templates: f64,
}

impl BlockDeltas {
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

/// Class and query-vertex counters of the fused solves, resolved once.
fn class_counters() -> &'static (Arc<l2q_obs::Counter>, Arc<l2q_obs::Counter>) {
    static C: OnceLock<(Arc<l2q_obs::Counter>, Arc<l2q_obs::Counter>)> = OnceLock::new();
    C.get_or_init(|| {
        let reg = l2q_obs::global();
        (
            reg.counter("graph_fused_classes_total"),
            reg.counter("graph_fused_queries_total"),
        )
    })
}

/// The three walks' values on every page, template and query class.
struct Blocks {
    pages: Vec<Tri>,
    templates: Vec<Tri>,
    classes: Vec<Tri>,
}

/// Interleave three per-vertex vectors into one `[f64; 3]` per vertex.
fn interleave(v: [&[f64]; 3]) -> Vec<Tri> {
    (0..v[0].len())
        .map(|i| [v[0][i], v[1][i], v[2][i]])
        .collect()
}

/// Fold one word into a fingerprint. The multiply depends only on the
/// word, so it stays off the running hash's dependency chain.
#[inline]
fn mix(h: u64, word: u64) -> u64 {
    h.rotate_left(5) ^ word.wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Maximum incoming coefficient per *sender*, not per edge: parallel
/// edges from the same page (or template) act as one sender whose
/// coefficients add, and the bound must cover that sum. `acc` is zeroed
/// scratch indexed by sender, left zeroed.
fn max_per_sender((senders, coef): (&[u32], &[f64]), acc: &mut [f64]) -> f64 {
    for (&v, &c) in senders.iter().zip(coef) {
        acc[v as usize] += c;
    }
    let mut m = 0.0f64;
    for &v in senders {
        let s = &mut acc[v as usize];
        m = m.max(*s);
        *s = 0.0;
    }
    m
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

/// Largest value of `values` (0 when empty), asserting the static
/// bounds' non-negativity requirement on the way.
fn max_nonneg(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0f64, |m, x| {
        assert!(x >= 0.0, "static bounds need non-negative regularization");
        m.max(x)
    })
}

/// Static upper bounds on each class's true fixpoint in each walk (see
/// the module docs): `strength[c]` holds the class's page-side and
/// template-side in-strengths, `receivers` the strongest page and
/// template in-strengths.
fn static_bounds(
    cfg: &WalkConfig,
    reg: &Blocks,
    strength: &[[f64; 2]],
    receivers: [f64; 2],
) -> Vec<Tri> {
    let a = cfg.alpha;
    let keep = 1.0 - a;
    let (bp, bt, _) = side_weights(cfg);
    let [c_p, c_t] = receivers;
    let i_p = strength.iter().fold(0.0f64, |m, s| m.max(s[0]));
    let i_t = strength.iter().fold(0.0f64, |m, s| m.max(s[1]));
    let block_max = |w: usize| -> (f64, f64) {
        let mr_p = max_nonneg(reg.pages.iter().map(|r| r[w]));
        let mr_t = max_nonneg(reg.templates.iter().map(|r| r[w]));
        let mr_q = max_nonneg(reg.classes.iter().map(|r| r[w]));
        // Fixpoint block maxima: M_P ≤ keep·c_p·M_Q + α·mr_p (same for
        // templates), M_Q ≤ keep·(B_P·i_p·M_P + B_T·i_t·M_T) + α·mr_q.
        let denom = 1.0 - keep * keep * (bp * i_p * c_p + bt * i_t * c_t);
        let m_q = if denom > 0.0 {
            (keep * a * (bp * i_p * mr_p + bt * i_t * mr_t) + a * mr_q) / denom
        } else {
            f64::INFINITY
        };
        (
            mul0(keep * c_p, m_q) + a * mr_p,
            mul0(keep * c_t, m_q) + a * mr_t,
        )
    };
    let maxima: [(f64, f64); 3] = std::array::from_fn(block_max);
    strength
        .iter()
        .zip(&reg.classes)
        .map(|(s, r)| {
            std::array::from_fn(|w| {
                let (m_p, m_t) = maxima[w];
                keep * (mul0(bp * s[0], m_p) + mul0(bt * s[1], m_t)) + a * r[w]
            })
        })
        .collect()
}

/// The three Recall context walks on one graph, solved together over
/// classes of interchangeable queries in caller-paced Jacobi sweeps, with
/// a certified per-sweep tail bound on each walk's query block (see the
/// module docs).
pub struct FusedTruncatedSolver {
    cfg: WalkConfig,
    classes: QueryClasses,
    /// Member count of each class.
    class_len: Vec<u32>,
    /// The class of each member of a connected class, in query order: the
    /// query-block fold after the first sweep.
    moving: Vec<u32>,
    /// Pages and templates read their query neighbours' classes; each
    /// class reads its first member's page and template neighbours.
    page_classes: Adjacency,
    template_classes: Adjacency,
    class_pages: Adjacency,
    class_templates: Adjacency,
    reg: Blocks,
    cur: Blocks,
    next: Blocks,
    /// Each class's movement in the last sweep, folded in candidate order.
    class_delta: Vec<Tri>,
    /// Per class: maximum incoming coefficient per sender from the page
    /// and the template side (the per-class tail refinement needs them).
    mx_in: Vec<[f64; 2]>,
    /// Per class: static upper bound on the true fixpoint of each walk.
    bounds: Vec<Tri>,
    sweeps: [usize; 3],
    active: [bool; 3],
    deltas: [Option<BlockDeltas>; 3],
    /// Each walk's block tail and per-class refinement coefficients after
    /// the last sweep.
    tails: Tri,
    tail_coeffs: [Option<(f64, f64)>; 3],
    iters: usize,
    span: l2q_obs::SpanTimer,
}

impl FusedTruncatedSolver {
    /// Start the three Recall systems from interleaved regularizations
    /// and start iterates, sweeping one vertex per class of `classes`,
    /// which must be the canonical partition of `g` under these starts
    /// and regularizations (checked in debug builds). The set-up pass
    /// (`graph_solve_setup` span) copies the adjacency the sweeps read
    /// and derives the static bounds.
    ///
    /// # Panics
    /// On blocks or classes not shaped for `g`, and on negative
    /// regularization, which the static bounds rule out.
    pub fn with_classes(
        g: &ReinforcementGraph,
        reg: Interleaved,
        start: Interleaved,
        classes: QueryClasses,
        cfg: &WalkConfig,
    ) -> Self {
        // Only the entity phase solves context walks.
        let span = l2q_obs::span!("graph_solve", "phase" => "entity", "solver" => "fused");
        let setup = l2q_obs::span!("graph_solve_setup");
        reg.assert_shaped_for(g, "regularization");
        start.assert_shaped_for(g, "start");
        assert_eq!(classes.class_of.len(), g.n_queries(), "class map shape");
        assert!((0.0..=1.0).contains(&cfg.alpha), "alpha out of range");
        debug_assert_eq!(
            classes,
            QueryClasses::canonical(g, &start.queries, &reg.queries),
            "classes must be the canonical partition"
        );
        let QueryClasses { class_of, first } = &classes;
        let mut class_len = vec![0u32; first.len()];
        for &c in class_of {
            class_len[c as usize] += 1;
        }
        let (n_classes, n_queries) = class_counters();
        n_classes.add(first.len() as u64);
        n_queries.add(class_of.len() as u64);

        let rep = |c: usize| first[c] as usize;
        let class = |q: u32| class_of[q as usize];
        let page_classes = Adjacency::remapped(g.n_pages(), |p| g.page_query.row(p), class);
        let template_classes =
            Adjacency::remapped(g.n_templates(), |t| g.template_query.row(t), class);
        let class_pages = Adjacency::remapped(first.len(), |c| g.query_page.row(rep(c)), |p| p);
        let class_templates =
            Adjacency::remapped(first.len(), |c| g.query_template.row(rep(c)), |t| t);
        let connected: Vec<bool> = (0..first.len())
            .map(|c| class_pages.rows.degree(c) > 0 || class_templates.rows.degree(c) > 0)
            .collect();
        let moving = (class_of.iter().copied())
            .filter(|&c| connected[c as usize])
            .collect();

        let mut acc = vec![0.0f64; g.n_pages().max(g.n_templates())];
        let mut strength = Vec::with_capacity(first.len());
        let mut mx_in = Vec::with_capacity(first.len());
        for c in 0..first.len() {
            let (pages, templates) = (class_pages.row(c), class_templates.row(c));
            strength.push([pages.1.iter().sum(), templates.1.iter().sum()]);
            mx_in.push([
                max_per_sender(pages, &mut acc),
                max_per_sender(templates, &mut acc),
            ]);
        }
        // The strongest page and template receivers.
        let receivers = [&g.page_query, &g.template_query]
            .map(|adj| (0..adj.rows.len()).fold(0.0f64, |m, v| m.max(adj.row(v).1.iter().sum())));

        let reg = Blocks {
            classes: first.iter().map(|&q| reg.queries[q as usize]).collect(),
            pages: reg.pages,
            templates: reg.templates,
        };
        let cur = Blocks {
            classes: first.iter().map(|&q| start.queries[q as usize]).collect(),
            pages: start.pages,
            templates: start.templates,
        };
        let next = Blocks {
            pages: vec![[0.0; 3]; cur.pages.len()],
            templates: vec![[0.0; 3]; cur.templates.len()],
            classes: vec![[0.0; 3]; cur.classes.len()],
        };
        let bounds = static_bounds(cfg, &reg, &strength, receivers);
        setup.finish();
        Self {
            cfg: *cfg,
            class_delta: vec![[0.0; 3]; first.len()],
            classes,
            class_len,
            moving,
            page_classes,
            template_classes,
            class_pages,
            class_templates,
            reg,
            cur,
            next,
            mx_in,
            bounds,
            sweeps: [0; 3],
            active: [true; 3],
            deltas: [None; 3],
            tails: [f64::INFINITY; 3],
            tail_coeffs: [None; 3],
            iters: 0,
            span,
        }
    }

    /// Execute one fused Jacobi sweep. Returns `false` — without
    /// sweeping — once every system converged or the sweep cap is hit,
    /// mirroring a solo solve's loop exit conditions.
    pub fn sweep(&mut self) -> bool {
        if self.iters >= self.cfg.max_iters || self.all_converged() {
            return false;
        }
        let deltas = self.sweep_blocks();
        std::mem::swap(&mut self.cur, &mut self.next);
        self.iters += 1;
        for (i, d) in deltas.into_iter().enumerate() {
            if !self.active[i] {
                // Converged: this sweep kept its iterate.
                continue;
            }
            self.sweeps[i] += 1;
            if d.total() < self.cfg.tolerance {
                self.active[i] = false;
            }
            self.deltas[i] = Some(d);
        }
        for i in 0..3 {
            self.tails[i] = self.block_tail(i);
            self.tail_coeffs[i] = self.class_tail_coeffs(i);
        }
        true
    }

    /// One Jacobi sweep of every active walk from `cur` into `next`; a
    /// converged walk's lane of `next` copies `cur`. Returns each walk's
    /// block L1 deltas.
    fn sweep_blocks(&mut self) -> [BlockDeltas; 3] {
        let a = self.cfg.alpha;
        let keep = 1.0 - a;
        let (bal, zero) = (
            self.cfg.page_template_balance,
            self.cfg.missing_side_is_zero,
        );
        let active = self.active;
        let update = |old: Tri, f: Tri, r: Tri| -> Tri {
            std::array::from_fn(|w| {
                if active[w] {
                    keep * f[w] + a * r[w]
                } else {
                    old[w]
                }
            })
        };
        let (cur, next, reg) = (&self.cur, &mut self.next, &self.reg);
        let d_pages = gather(
            &self.page_classes,
            &cur.classes,
            &cur.pages,
            &reg.pages,
            &mut next.pages,
            update,
        );
        let d_templates = gather(
            &self.template_classes,
            &cur.classes,
            &cur.templates,
            &reg.templates,
            &mut next.templates,
            update,
        );
        for c in 0..cur.classes.len() {
            let (pages, pk) = self.class_pages.row(c);
            let mut from_pages = [0.0f64; 3];
            for (&p, &k) in pages.iter().zip(pk) {
                let x = &cur.pages[p as usize];
                from_pages[0] += k * x[0];
                from_pages[1] += k * x[1];
                from_pages[2] += k * x[2];
            }
            let (templates, tk) = self.class_templates.row(c);
            let mut from_templates = [0.0f64; 3];
            for (&t, &k) in templates.iter().zip(tk) {
                let x = &cur.templates[t as usize];
                from_templates[0] += k * x[0];
                from_templates[1] += k * x[1];
                from_templates[2] += k * x[2];
            }
            // A side is present when its row is not empty (the solo
            // sweep's test).
            let (has_p, has_t) = (!pages.is_empty(), !templates.is_empty());
            let f = std::array::from_fn(|w| {
                combine(
                    has_p.then_some(from_pages[w]),
                    has_t.then_some(from_templates[w]),
                    bal,
                    zero,
                )
            });
            let old = cur.classes[c];
            let new = update(old, f, reg.classes[c]);
            next.classes[c] = new;
            self.class_delta[c] = std::array::from_fn(|w| (old[w] - new[w]).abs());
        }
        // Edgeless classes stop moving after the first sweep (module docs).
        let fold = if self.iters == 0 {
            &self.classes.class_of
        } else {
            &self.moving
        };
        let mut d_queries = [0.0f64; 3];
        for &c in fold {
            let d = &self.class_delta[c as usize];
            d_queries[0] += d[0];
            d_queries[1] += d[1];
            d_queries[2] += d[2];
        }
        std::array::from_fn(|w| BlockDeltas {
            pages: d_pages[w],
            queries: d_queries[w],
            templates: d_templates[w],
        })
    }

    /// True once every system's L1 delta crossed the tolerance.
    pub fn all_converged(&self) -> bool {
        !self.active.iter().any(|&x| x)
    }

    /// Number of query classes.
    pub fn n_classes(&self) -> usize {
        self.class_len.len()
    }

    /// The class of each query vertex; classes are numbered in order of
    /// their first member.
    pub fn class_of(&self) -> &[u32] {
        &self.classes.class_of
    }

    /// Number of query vertices in class `c`.
    pub fn class_len(&self, c: usize) -> usize {
        self.class_len[c] as usize
    }

    /// Whether class `c`'s queries have any page or template edge.
    pub fn class_connected(&self, c: usize) -> bool {
        self.class_pages.rows.degree(c) > 0 || self.class_templates.rows.degree(c) > 0
    }

    /// Class `c`'s current iterate in each system — the iterate of every
    /// query in the class.
    pub fn class_values(&self, c: usize) -> [f64; 3] {
        self.cur.classes[c]
    }

    /// Static upper bounds on class `c`'s true fixpoint in each system
    /// (see the module docs).
    pub fn class_bounds(&self, c: usize) -> [f64; 3] {
        self.bounds[c]
    }

    /// Certified bound on `max_q |queries(i)[q] − fixpoint_q|`: no query
    /// utility of system `i` is farther than this from its true
    /// fixpoint value. `INFINITY` before the system's first sweep or
    /// when the contraction factor ρ ≥ 1 (see module docs).
    pub fn tail(&self, i: usize) -> f64 {
        self.tails[i]
    }

    /// Certified distance of class `c`'s system-`i` iterate from its
    /// true fixpoint: `min(tail(i), a·mxP_c + b·mxT_c)` (see the module
    /// docs), in O(1). The block tail when the refinement doesn't apply
    /// (ρ ≥ 1 or no sweep yet).
    pub fn class_tail(&self, i: usize, c: usize) -> f64 {
        match self.tail_coeffs[i] {
            Some((a, b)) => {
                let [mp, mt] = self.mx_in[c];
                (a * mp + b * mt).min(self.tails[i])
            }
            None => self.tails[i],
        }
    }

    fn block_tail(&self, i: usize) -> f64 {
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

    /// Scalar coefficients `(a, b)` of system `i`'s per-class tail
    /// refinement; `None` when it doesn't apply.
    fn class_tail_coeffs(&self, i: usize) -> Option<(f64, f64)> {
        let t = self.tails[i];
        let d = self.deltas[i].as_ref().filter(|_| t.is_finite())?;
        let keep = 1.0 - self.cfg.alpha;
        let (bp, bt, _) = side_weights(&self.cfg);
        let s_p = d.pages + keep * (d.queries + t);
        let s_t = d.templates + keep * (d.queries + t);
        Some((keep * bp * s_p, keep * bt * s_t))
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
    /// sweep cap), and hand back every walk's iterate and sweep count.
    pub fn finish(mut self) -> FusedSolution {
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
            cur,
            classes,
            sweeps,
            span,
            ..
        } = self;
        drop(span); // records graph_solve_seconds for the whole solve
        FusedSolution {
            pages: cur.pages,
            templates: cur.templates,
            classes: cur.classes,
            query_classes: classes,
            sweeps,
        }
    }
}

/// Update one page or template block from the class iterates, each
/// vertex summing over its edges in order; returns the block's L1 delta
/// per walk, folded in vertex order.
fn gather(
    adj: &Adjacency,
    classes: &[Tri],
    cur: &[Tri],
    reg: &[Tri],
    next: &mut [Tri],
    update: impl Fn(Tri, Tri, Tri) -> Tri,
) -> Tri {
    let mut d = [0.0f64; 3];
    for (v, ((&old, &r), out)) in cur.iter().zip(reg).zip(next.iter_mut()).enumerate() {
        let (to, coef) = adj.row(v);
        let mut acc = [0.0f64; 3];
        for (&c, &k) in to.iter().zip(coef) {
            let x = &classes[c as usize];
            acc[0] += k * x[0];
            acc[1] += k * x[1];
            acc[2] += k * x[2];
        }
        let new = update(old, acc, r);
        *out = new;
        for ((d, o), n) in d.iter_mut().zip(old).zip(new) {
            *d += (o - n).abs();
        }
    }
    d
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::solver::{solve_detailed, start_iterate, Phase, Utilities, UtilityKind};

    /// The fused solver on per-walk regularizations and warm starts, each
    /// walk started as [`solve_detailed`] starts it, over the canonical
    /// classes.
    pub(crate) fn fused(
        g: &ReinforcementGraph,
        regs: [Regularization; 3],
        cfg: &WalkConfig,
        mut warms: [Option<Utilities>; 3],
    ) -> FusedTruncatedSolver {
        let starts: [Regularization; 3] = std::array::from_fn(|i| {
            let u = start_iterate(g, &regs[i], cfg, warms[i].take());
            Regularization {
                pages: u.pages,
                queries: u.queries,
                templates: u.templates,
            }
        });
        let (reg, start) = (
            Interleaved::from_walks(&regs),
            Interleaved::from_walks(&starts),
        );
        let classes = QueryClasses::canonical(g, &start.queries, &reg.queries);
        FusedTruncatedSolver::with_classes(g, reg, start, classes, cfg)
    }

    /// A finished solve split into one `(utilities, sweeps)` per walk,
    /// the layout of [`solve_detailed`].
    pub(crate) fn per_walk(sol: FusedSolution) -> [(Utilities, usize); 3] {
        let lane = |block: &[Tri], w: usize| block.iter().map(|x| x[w]).collect();
        std::array::from_fn(|w| {
            let u = Utilities {
                pages: lane(&sol.pages, w),
                queries: (0..sol.query_classes.class_of.len())
                    .map(|q| sol.query(q)[w])
                    .collect(),
                templates: lane(&sol.templates, w),
            };
            (u, sol.sweeps[w])
        })
    }

    /// Fig. 2 pages/queries plus two templates so every block is live.
    fn fixture() -> ReinforcementGraph {
        let mut b = GraphBuilder::new(6, 5, 2);
        b.page_query(0, 0).page_query(1, 0).page_query(2, 0);
        b.page_query(0, 1).page_query(1, 1);
        b.page_query(2, 2).page_query(3, 2);
        b.page_query(3, 3).page_query(4, 3).page_query(5, 3);
        b.page_query(5, 4);
        b.query_template(0, 0).query_template(1, 0);
        b.query_template(3, 1).query_template(4, 1);
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
            .map(|(r, w)| solve_detailed(g, UtilityKind::Recall, r, cfg, w, Phase::Entity))
            .collect()
    }

    /// A class-level quantity spread over the query vertices.
    fn per_query(s: &FusedTruncatedSolver, f: impl Fn(usize) -> f64) -> Vec<f64> {
        s.class_of().iter().map(|&c| f(c as usize)).collect()
    }

    fn assert_matches_solo(got: &[(Utilities, usize); 3], want: &[(Utilities, usize)]) {
        for ((gu, gs), (wu, ws)) in got.iter().zip(want) {
            assert_eq!(gs, ws, "sweep counts diverged");
            assert_eq!(gu.pages, wu.pages);
            assert_eq!(gu.queries, wu.queries);
            assert_eq!(gu.templates, wu.templates);
        }
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
            let mut s = fused(&g, context_regs(&g), &cfg, warm_set);
            s.run_to_completion();
            assert_matches_solo(&per_walk(s.finish()), want);
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
        solve_detailed(g, UtilityKind::Recall, reg, &tight, None, Phase::Entity).0
    }

    #[test]
    fn tail_dominates_the_true_truncation_error_at_every_sweep() {
        let g = fixture();
        let cfg = WalkConfig::default();
        let regs = context_regs(&g);
        let fixpoints: Vec<Utilities> = regs.iter().map(|r| exact(&g, r)).collect();
        let mut s = fused(&g, regs, &cfg, [None, None, None]);
        assert!(s.tail(0).is_infinite(), "no bound before the first sweep");
        let mut prev = [f64::INFINITY; 3];
        while s.sweep() {
            for (i, fixpoint) in fixpoints.iter().enumerate() {
                let tail = s.tail(i);
                let values = per_query(&s, |c| s.class_values(c)[i]);
                let qtails = per_query(&s, |c| s.class_tail(i, c));
                for (q, ((&a, &b), &tq)) in values
                    .iter()
                    .zip(&fixpoint.queries)
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
        let mut s = fused(&g, regs, &cfg, [None, None, None]);
        for _ in 0..5 {
            assert!(s.sweep(), "fixture needs more than 5 sweeps");
        }
        // A caller that inspected tails and declined to certify resumes.
        s.run_to_completion();
        assert_matches_solo(&per_walk(s.finish()), &want);
    }

    #[test]
    fn static_bounds_dominate_the_solved_utilities() {
        let g = fixture();
        let regs = context_regs(&g);
        let s = fused(&g, regs.clone(), &WalkConfig::default(), [None, None, None]);
        for (i, reg) in regs.iter().enumerate() {
            let ub = per_query(&s, |c| s.class_bounds(c)[i]);
            let u = exact(&g, reg);
            for (q, (&b, &x)) in ub.iter().zip(&u.queries).enumerate() {
                assert!(b >= x, "system {i} q{q}: bound {b} below utility {x}");
            }
        }
    }

    #[test]
    fn disconnected_query_bound_is_exactly_its_regularization_share() {
        let mut b = GraphBuilder::new(2, 3, 1);
        b.page_query(0, 0).page_query(1, 1);
        b.query_template(0, 0);
        let g = b.build(); // query 2 has no edges at all
        let cfg = WalkConfig::default();
        let mut reg = Regularization::zeros(&g);
        reg.queries[2] = 0.8;
        let regs = [reg.clone(), reg.clone(), reg.clone()];
        let s = fused(&g, regs, &cfg, [None, None, None]);
        let ub = per_query(&s, |c| s.class_bounds(c)[0]);
        assert_eq!(ub[2], cfg.alpha * 0.8);
        assert!(!s.class_connected(s.class_of()[2] as usize));
        let u = solve_detailed(&g, UtilityKind::Recall, &reg, &cfg, None, Phase::Entity).0;
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
        let mut s = fused(&g, regs, &cfg, [None, None, None]);
        while s.sweep() {
            for i in 0..3 {
                assert!(s.tail(i).is_infinite(), "ρ ≥ 1 must never certify");
                assert!(s.class_tail(i, 0).is_infinite());
            }
        }
        assert_matches_solo(&per_walk(s.finish()), &want);
    }

    /// Colliding fingerprints split a bucket instead of merging classes,
    /// and classes are numbered in order of their first member.
    #[test]
    fn partition_resolves_fingerprint_collisions_exactly() {
        let same = |a: usize, b: usize| a % 3 == b % 3;
        let partition = |n, fp: fn(usize) -> u64| {
            let c = QueryClasses::partition(n, fp, same);
            (c.class_of, c.first)
        };
        let expected = (vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0], vec![0, 1, 2]);
        assert_eq!(partition(10, |_| 0), expected, "all collide");
        assert_eq!(partition(10, |i| (i % 3) as u64), expected);
        assert_eq!(
            partition(10, |i| u64::from(i % 3 == 2)),
            expected,
            "a bucket holding two classes"
        );
        assert_eq!(partition(0, |_| 0), (vec![], vec![]));
    }

    /// Queries with one neighbourhood share a class and one update; a
    /// warm start that moves one of them splits it off. Either way the
    /// solve equals three solo solves bit for bit.
    #[test]
    fn interchangeable_queries_share_a_class_until_a_start_splits_them() {
        // q0, q1 and q3 retrieve pages 0 and 1 and share template 0; q2
        // retrieves page 2; q4 has no edge.
        let mut b = GraphBuilder::new(3, 5, 1);
        for q in [0, 1, 3] {
            b.page_query(0, q).page_query(1, q).query_template(q, 0);
        }
        b.page_query(2, 2);
        let g = b.build();
        let cfg = WalkConfig::default();
        let regs = [
            Regularization::recall_from_relevance(&g, &[true, false, true]),
            Regularization::recall_from_relevance(&g, &[false, true, false]),
            Regularization::recall_from_relevance(&g, &[true; 3]),
        ];
        let cold = fused(&g, regs.clone(), &cfg, [None, None, None]);
        assert_eq!(cold.class_of(), [0, 0, 1, 0, 2]);
        assert_eq!(
            (0..3).map(|c| cold.class_len(c)).collect::<Vec<_>>(),
            [3, 1, 1]
        );
        assert!(cold.class_connected(0) && cold.class_connected(1) && !cold.class_connected(2));
        let want = solo_solves(&g, &regs, &cfg, [None, None, None]);
        let mut cold = cold;
        cold.run_to_completion();
        assert_matches_solo(&per_walk(cold.finish()), &want);

        let mut moved = want[1].0.clone();
        moved.queries[1] += 0.25;
        let warms = [None, Some(moved), None];
        let mut split = fused(&g, regs.clone(), &cfg, warms.clone());
        assert_eq!(split.class_of(), [0, 1, 2, 0, 3]);
        let want = solo_solves(&g, &regs, &cfg, warms);
        split.run_to_completion();
        assert_matches_solo(&per_walk(split.finish()), &want);
    }
}
