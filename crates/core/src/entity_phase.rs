//! The entity phase (paper Sect. IV-C): infer candidate-query utilities for
//! the target entity, once per query selection.
//!
//! The entity graph spans the current result pages PE, the candidate
//! queries QE (enumerated from PE plus the frequent domain queries) and the
//! templates TE abstracting QE. Regularization comes from two sides:
//! pages carry their aspect relevance Y (Eq. 11–12), and templates carry
//! their domain-phase utilities scaled by the adaptation parameter λ
//! (Eq. 21–22). Solving the fixpoint (Eq. 20) yields `U_E(q)` for every
//! candidate.
//!
//! Besides the standard precision/recall walks, the phase exposes the two
//! auxiliary recall walks the context-aware model needs (Sect. V):
//!
//! * recall w.r.t. Ỹ (relevant *gathered* pages, page regularization
//!   only) — the redundancy estimator `R^(Ỹ)(q)` in Δ(Φ,q). Template
//!   regularization is deliberately omitted here: Ỹ is a statement about
//!   the pages already gathered, so aspect-level domain knowledge must
//!   not leak into the overlap estimate.
//! * recall w.r.t. Y* (every page relevant) — the denominator of
//!   collective precision. This walk carries its own domain knowledge,
//!   λ·R*_D(t) (domain recall with every page relevant), so that the
//!   numerator and denominator of the precision ratio are estimated
//!   symmetrically; regularizing only the numerator would make any
//!   template-backed query look precise regardless of what it retrieves.
//!
//! ## Incremental rebuilds and warm starts
//!
//! A harvest step adds at most top-k new pages and removes one fired
//! candidate, yet the naive phase re-tests every (candidate, page)
//! containment pair and re-enumerates every template on every step. An
//! [`EntityPhaseState`] carried across steps memoizes both: only new
//! pages × all candidates and new candidates × all pages are
//! containment-tested, and `templates_of` runs once per distinct
//! candidate. The graph itself is reassembled each step by replaying the
//! cached edges in exactly the cold build's insertion order (candidates
//! in pool order, each candidate's pages ascending, templates in
//! first-occurrence order over the pool), so solver float summation —
//! and therefore every utility — is bit-identical to a from-scratch
//! build. The state also keeps each walk's previous fixpoint; mapped
//! onto the current vertex set it becomes a warm start for
//! [`l2q_graph::solve_detailed`], which converges to the same fixpoint
//! (the update map is a contraction) in far fewer sweeps.
//!
//! The state invalidates itself — falling back to a full rebuild — when
//! the aspect or template mode changes, or when the cached page list is
//! no longer a prefix of the current one.

use crate::config::L2qConfig;
use crate::domain_phase::DomainModel;
use crate::fxhash::FxHashMap;
use crate::query::Query;
use crate::template::{templates_of, Template, TemplateMode};
use l2q_aspect::RelevanceOracle;
use l2q_corpus::{AspectId, Corpus, PageId};
use l2q_graph::{
    solve_detailed, FusedTruncatedSolver, GraphBuilder, Regularization, ReinforcementGraph,
    StaticBoundsContext, Utilities, UtilityKind,
};
use l2q_text::Bow;
use std::sync::{Arc, OnceLock};

/// Resolved-once metric handles for the phase-build hot path.
struct PhaseMetrics {
    reuses: Arc<l2q_obs::Counter>,
    rebuilds: Arc<l2q_obs::Counter>,
    sweeps_saved: Arc<l2q_obs::Histogram>,
}

fn phase_metrics() -> &'static PhaseMetrics {
    static M: OnceLock<PhaseMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let reg = l2q_obs::global();
        PhaseMetrics {
            reuses: reg.counter("entity_phase_incremental_reuses_total"),
            rebuilds: reg.counter("entity_phase_rebuilds_total"),
            sweeps_saved: reg.histogram_with_bounds(
                "solver_warm_start_sweeps_saved",
                (0..10).map(|i| f64::powi(2.0, i)).collect(),
            ),
        }
    })
}

/// The four walks the phase can run, used as warm-start slot indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Walk {
    Precision = 0,
    Recall = 1,
    RecallGathered = 2,
    RecallAll = 3,
}

const N_WALKS: usize = 4;

/// Per-candidate memo inside [`EntityPhaseState`].
#[derive(Debug)]
struct QueryCacheEntry {
    /// The candidate's own bag (left operand of containment tests).
    bow: Bow,
    /// Ascending indices (into the cached page list) of pages whose bag
    /// contains this candidate.
    pages: Vec<u32>,
    /// How many cached pages have been containment-tested (a prefix).
    tested: usize,
    /// Memoized `templates_of` output (`None` until first needed).
    templates: Option<Vec<Template>>,
    /// Pool index at generation `idx_gen` (for warm-start remapping).
    idx: u32,
    idx_gen: u64,
}

/// A walk's converged fixpoint, tagged with the build it belongs to.
#[derive(Debug)]
struct WarmFixpoint {
    generation: u64,
    u: Utilities,
}

/// Warm-start init mapped onto the *current* build's vertex set. Pages
/// are a stable prefix; `None` marks a vertex with no previous value
/// (it initializes at its regularization, exactly like a cold start).
#[derive(Debug)]
struct WarmInit {
    pages: Vec<f64>,
    queries: Vec<Option<f64>>,
    templates: Vec<Option<f64>>,
}

/// Persistent cross-step cache for [`EntityPhase::build_incremental`].
///
/// Owned by whoever owns the harvest loop (the harvester keeps one per
/// session inside `HarvestState`); a default/empty state is always valid
/// and simply makes the first build a full one.
#[derive(Debug, Default)]
pub struct EntityPhaseState {
    aspect: Option<AspectId>,
    template_mode: Option<TemplateMode>,
    /// Pages diffed so far — must stay a prefix of each step's page list.
    pages: Vec<PageId>,
    relevant: Vec<bool>,
    queries: FxHashMap<Query, QueryCacheEntry>,
    /// Template → vertex index of the previous build.
    prev_template_index: FxHashMap<Template, u32>,
    /// Per-walk previous fixpoint.
    warm: [Option<WarmFixpoint>; N_WALKS],
    /// Sweep count of each walk's first (cold) solve in this session —
    /// the baseline for the `solver_warm_start_sweeps_saved` histogram.
    cold_sweeps: [Option<usize>; N_WALKS],
    /// Sweep count of each walk's most recent solve.
    last_sweeps: [Option<usize>; N_WALKS],
    /// Completed build count (0 = never built).
    generation: u64,
}

impl EntityPhaseState {
    /// An empty state (the first build through it is a full one).
    pub fn new() -> Self {
        Self::default()
    }

    /// How many incremental builds have gone through this state.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of distinct candidates ever cached.
    pub fn cached_queries(&self) -> usize {
        self.queries.len()
    }

    /// Sweep counts of each walk's first (cold) solve, indexed
    /// [precision, recall, recall-gathered, recall-all].
    pub fn cold_sweeps(&self) -> [Option<usize>; N_WALKS] {
        self.cold_sweeps
    }

    /// Sweep counts of each walk's most recent solve (same indexing as
    /// [`EntityPhaseState::cold_sweeps`]) — the benches read these to
    /// report exact cold-vs-warm solver effort.
    pub fn last_sweeps(&self) -> [Option<usize>; N_WALKS] {
        self.last_sweeps
    }
}

/// Template regularization from the domain (Eq. 21–22): λ·P_D(t),
/// λ·R_D(t), and λ·R*_D(t) per template, zero where the domain is silent.
fn template_regs(
    templates: &[Template],
    aspect: AspectId,
    domain: Option<&DomainModel>,
    cfg: &L2qConfig,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut treg_p = vec![0.0; templates.len()];
    let mut treg_r = vec![0.0; templates.len()];
    let mut treg_star = vec![0.0; templates.len()];
    if let Some(dm) = domain {
        for (i, t) in templates.iter().enumerate() {
            if let Some(u) = dm.template_utility(aspect, t) {
                treg_p[i] = cfg.lambda * u.precision;
                treg_r[i] = cfg.lambda * u.recall;
            }
            if let Some(rs) = dm.template_recall_star(t) {
                treg_star[i] = cfg.lambda * rs;
            }
        }
    }
    (treg_p, treg_r, treg_star)
}

/// Query scores of the three walks a context-aware selection needs.
#[derive(Clone, Debug)]
pub struct ContextWalks {
    /// `R_E(q)` per candidate.
    pub recall: Vec<f64>,
    /// `R^(Ỹ)_E(q)` per candidate.
    pub recall_gathered: Vec<f64>,
    /// `R^(Y*)_E(q)` per candidate.
    pub recall_all: Vec<f64>,
}

/// A mid-solve snapshot of the three context walks, handed to the
/// certification callback of [`EntityPhase::context_walks_certified`]
/// after every fused sweep.
pub struct ContextProbe<'a> {
    /// Current (truncated) query iterate of the `R_E` walk.
    pub recall: &'a [f64],
    /// Current iterate of the `R^(Ỹ)_E` walk.
    pub recall_gathered: &'a [f64],
    /// Current iterate of the `R^(Y*)_E` walk.
    pub recall_all: &'a [f64],
    /// Certified max-per-query distance of each iterate from its true
    /// fixpoint, indexed `[recall, recall_gathered, recall_all]`
    /// (`INFINITY` while uncertifiable).
    pub tails: [f64; 3],
    /// Scalar coefficients of each walk's per-query tail refinement
    /// (see [`ContextProbe::qtail`]); `None` when a walk's refinement
    /// doesn't apply and the block tail stands for every query.
    qtail_coeffs: [Option<(f64, f64)>; 3],
    /// Per-candidate maximum incoming coefficient from the page /
    /// template side (shared by all three walks — same graph).
    mx_page_in: &'a [f64],
    mx_tmpl_in: &'a [f64],
    /// Static per-query upper bounds on each walk's true fixpoint, same
    /// indexing as `tails`.
    pub bounds: [&'a [f64]; 3],
}

impl ContextProbe<'_> {
    /// Certified distance of candidate `q`'s walk-`w` iterate from its
    /// true fixpoint — the per-candidate refinement of `tails[w]`
    /// (always ≤ it), in O(1).
    pub fn qtail(&self, w: usize, q: usize) -> f64 {
        match self.qtail_coeffs[w] {
            Some((a, b)) => (a * self.mx_page_in[q] + b * self.mx_tmpl_in[q]).min(self.tails[w]),
            None => self.tails[w],
        }
    }
}

/// A frozen entity graph ready to solve.
pub struct EntityPhase<'a> {
    cfg: &'a L2qConfig,
    aspect: AspectId,
    pages: Vec<PageId>,
    relevant: Vec<bool>,
    candidates: Vec<Query>,
    templates: Vec<Template>,
    graph: ReinforcementGraph,
    /// λ·P_D(t), λ·R_D(t) per template (0 where the domain has no utility).
    template_reg: (Vec<f64>, Vec<f64>),
    /// λ·R*_D(t) per template — domain knowledge for the Y*-walk, so the
    /// collective-precision denominator is estimated with the same
    /// machinery as its numerator.
    template_reg_star: Vec<f64>,
    /// Per-walk warm-start inits mapped from the previous step's
    /// fixpoints (populated by [`EntityPhase::build_incremental`]).
    warm: [Option<WarmInit>; N_WALKS],
    /// Graph-constant half of the static bound computation, built on
    /// the first context-walk solve.
    bounds_ctx: OnceLock<StaticBoundsContext>,
}

impl<'a> EntityPhase<'a> {
    /// Build the entity graph from scratch.
    ///
    /// `pages` are the current result pages PE (deduplicated, in gathering
    /// order); `candidates` the query pool QE (the caller decides whether
    /// frequent domain queries are included — that is what distinguishes
    /// the domain-aware selectors from the Sect. III ablations). When
    /// `domain` is `None` (or `use_templates` is false via an empty
    /// candidate template set) the graph degenerates to the paper's
    /// template-free Sect. III model.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's Eq. 20 inputs
    pub fn build(
        corpus: &Corpus,
        aspect: AspectId,
        pages: &[PageId],
        oracle: &RelevanceOracle,
        candidates: Vec<Query>,
        domain: Option<&DomainModel>,
        use_templates: bool,
        cfg: &'a L2qConfig,
    ) -> Self {
        // Lean one-shot assembly: no cache bookkeeping, no warm-start
        // remapping — but the same insertion order as the incremental
        // path (candidates in pool order, each candidate's pages
        // ascending, templates in first-occurrence order), so the two
        // builds are bit-identical. `incremental_build_matches_cold_build_bitwise`
        // holds the paths together.
        let n_pages = pages.len();
        let relevant: Vec<bool> = pages
            .iter()
            .map(|&p| oracle.is_relevant(aspect, p))
            .collect();
        let bows: Vec<&Bow> = pages.iter().map(|&p| corpus.page(p).bow()).collect();

        let mut templates: Vec<Template> = Vec::new();
        let mut template_index: FxHashMap<Template, u32> = FxHashMap::default();
        let mut qt_edges: Vec<(u32, u32)> = Vec::new();
        let mut pq: Vec<u32> = Vec::new();
        let mut pq_off: Vec<usize> = Vec::with_capacity(candidates.len() + 1);
        pq_off.push(0);
        for (qi, q) in candidates.iter().enumerate() {
            let qbow = Bow::from_words(q.words());
            for (pi, bow) in bows.iter().enumerate() {
                if bow.contains_all(&qbow) {
                    pq.push(pi as u32);
                }
            }
            pq_off.push(pq.len());
            if use_templates {
                for t in templates_of(q, corpus, cfg.template_mode) {
                    let ti = *template_index.entry(t.clone()).or_insert_with(|| {
                        templates.push(t);
                        (templates.len() - 1) as u32
                    });
                    qt_edges.push((qi as u32, ti));
                }
            }
        }

        let mut builder = GraphBuilder::new(n_pages, candidates.len(), templates.len());
        builder.reserve(pq.len(), qt_edges.len());
        for qi in 0..candidates.len() {
            for &pi in &pq[pq_off[qi]..pq_off[qi + 1]] {
                builder.page_query(pi, qi as u32, 1.0);
            }
        }
        for &(q, t) in &qt_edges {
            builder.query_template(q, t, 1.0);
        }
        let graph = builder.build();

        let (treg_p, treg_r, treg_star) = template_regs(&templates, aspect, domain, cfg);

        Self {
            cfg,
            aspect,
            pages: pages.to_vec(),
            relevant,
            candidates,
            templates,
            graph,
            template_reg: (treg_p, treg_r),
            template_reg_star: treg_star,
            warm: [None, None, None, None],
            bounds_ctx: OnceLock::new(),
        }
    }

    /// Build the entity graph, diffing against `state` from the previous
    /// step: only new pages × all candidates and new candidates × all
    /// pages are containment-tested, and template enumeration runs once
    /// per distinct candidate. The resulting graph — and every utility
    /// solved on it — is bit-identical to [`EntityPhase::build`] on the
    /// same inputs.
    ///
    /// A state that cannot be reused (different aspect or template mode,
    /// or a page list the cached one is not a prefix of) is reset and the
    /// build falls back to a full one, counted by
    /// `entity_phase_rebuilds_total`.
    #[allow(clippy::too_many_arguments)] // the Eq. 20 inputs plus the cache
    pub fn build_incremental(
        corpus: &Corpus,
        aspect: AspectId,
        pages: &[PageId],
        oracle: &RelevanceOracle,
        candidates: Vec<Query>,
        domain: Option<&DomainModel>,
        use_templates: bool,
        cfg: &'a L2qConfig,
        state: &mut EntityPhaseState,
    ) -> Self {
        let m = phase_metrics();
        let reusable = state.generation > 0
            && state.aspect == Some(aspect)
            && state.template_mode == Some(cfg.template_mode)
            && pages.len() >= state.pages.len()
            && pages[..state.pages.len()] == state.pages[..];
        if reusable {
            m.reuses.inc();
        } else {
            *state = EntityPhaseState::new();
            state.aspect = Some(aspect);
            state.template_mode = Some(cfg.template_mode);
            m.rebuilds.inc();
        }

        // Extend the diffed page prefix (and its relevance labels) with
        // this step's new pages.
        for &p in &pages[state.pages.len()..] {
            state.relevant.push(oracle.is_relevant(aspect, p));
            state.pages.push(p);
        }
        let n_pages = pages.len();
        let bows: Vec<&Bow> = pages.iter().map(|&p| corpus.page(p).bow()).collect();

        let prev_gen = state.generation;
        let new_gen = prev_gen + 1;

        // Pass 1 — cache update: containment-test only untested
        // (candidate, page) combinations, enumerate templates once per
        // distinct candidate, and record each candidate's previous pool
        // index for warm-start remapping.
        let mut prev_query_of: Vec<Option<u32>> = Vec::with_capacity(candidates.len());
        let mut templates: Vec<Template> = Vec::new();
        let mut template_index: FxHashMap<Template, u32> = FxHashMap::default();
        let mut qt_edges: Vec<(u32, u32)> = Vec::new();
        let mut n_pq_edges = 0usize;
        for (qi, q) in candidates.iter().enumerate() {
            if !state.queries.contains_key(q) {
                state.queries.insert(
                    q.clone(),
                    QueryCacheEntry {
                        bow: Bow::from_words(q.words()),
                        pages: Vec::new(),
                        tested: 0,
                        templates: None,
                        idx: 0,
                        idx_gen: 0,
                    },
                );
            }
            let entry = state.queries.get_mut(q).expect("inserted above");
            prev_query_of.push((prev_gen > 0 && entry.idx_gen == prev_gen).then_some(entry.idx));
            entry.idx = qi as u32;
            entry.idx_gen = new_gen;
            for (pi, bow) in bows.iter().enumerate().skip(entry.tested) {
                if bow.contains_all(&entry.bow) {
                    entry.pages.push(pi as u32);
                }
            }
            entry.tested = n_pages;
            n_pq_edges += entry.pages.len();
            if use_templates {
                let ts = entry
                    .templates
                    .get_or_insert_with(|| templates_of(q, corpus, cfg.template_mode));
                for t in ts.iter() {
                    let ti = *template_index.entry(t.clone()).or_insert_with(|| {
                        templates.push(t.clone());
                        (templates.len() - 1) as u32
                    });
                    qt_edges.push((qi as u32, ti));
                }
            }
        }

        // Pass 2 — graph assembly: replay the cached edges in exactly the
        // cold build's insertion order (candidates in pool order, each
        // candidate's pages ascending) so solver float summation is
        // bit-identical to a from-scratch build.
        let mut builder = GraphBuilder::new(n_pages, candidates.len(), templates.len());
        builder.reserve(n_pq_edges, qt_edges.len());
        for (qi, q) in candidates.iter().enumerate() {
            for &pi in &state.queries[q].pages {
                builder.page_query(pi, qi as u32, 1.0);
            }
        }
        for &(q, t) in &qt_edges {
            builder.query_template(q, t, 1.0);
        }
        let graph = builder.build();

        let (treg_p, treg_r, treg_star) = template_regs(&templates, aspect, domain, cfg);

        // Map the previous step's fixpoints onto the new vertex set:
        // pages are a stable prefix, queries map via their previous pool
        // index, templates via the previous template index. Vertices new
        // to this build stay `None` and cold-start at their
        // regularization.
        let mut warm: [Option<WarmInit>; N_WALKS] = [None, None, None, None];
        if cfg.warm_start && prev_gen > 0 {
            for (slot, fix) in state.warm.iter().enumerate() {
                let Some(fix) = fix else { continue };
                if fix.generation != prev_gen {
                    continue;
                }
                warm[slot] = Some(WarmInit {
                    pages: fix.u.pages.clone(),
                    queries: prev_query_of
                        .iter()
                        .map(|p| p.map(|j| fix.u.queries[j as usize]))
                        .collect(),
                    templates: templates
                        .iter()
                        .map(|t| {
                            state
                                .prev_template_index
                                .get(t)
                                .map(|&j| fix.u.templates[j as usize])
                        })
                        .collect(),
                });
            }
        }
        state.prev_template_index = template_index;
        state.generation = new_gen;

        Self {
            cfg,
            aspect,
            pages: pages.to_vec(),
            relevant: state.relevant.clone(),
            candidates,
            templates,
            graph,
            template_reg: (treg_p, treg_r),
            template_reg_star: treg_star,
            warm,
            bounds_ctx: OnceLock::new(),
        }
    }

    /// The candidate queries (vertex order of all per-query outputs).
    pub fn candidates(&self) -> &[Query] {
        &self.candidates
    }

    /// The pages PE of the graph.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Y over PE.
    pub fn relevant(&self) -> &[bool] {
        &self.relevant
    }

    /// The aspect being harvested.
    pub fn aspect(&self) -> AspectId {
        self.aspect
    }

    /// Templates in the graph.
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    /// Whether each candidate has at least one edge (page containment or
    /// template). Unconnected candidates carry no evidence at all; the
    /// context-aware selector must skip them — their collective scores
    /// would be the meaningless "status quo" ratio.
    pub fn connected(&self) -> Vec<bool> {
        (0..self.candidates.len())
            .map(|q| self.graph.query_page_deg[q] > 0.0 || self.graph.query_template_deg[q] > 0.0)
            .collect()
    }

    /// Graph statistics `(pages, queries, templates, edges)`.
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (
            self.graph.n_pages(),
            self.graph.n_queries(),
            self.graph.n_templates(),
            self.graph.n_edges(),
        )
    }

    /// The (kind, regularization) pair of one walk.
    fn reg_for(&self, walk: Walk) -> (UtilityKind, Regularization) {
        match walk {
            Walk::Precision => {
                let mut reg = Regularization::precision_from_relevance(&self.graph, &self.relevant);
                reg.templates.clone_from(&self.template_reg.0);
                (UtilityKind::Precision, reg)
            }
            Walk::Recall => {
                let mut reg = Regularization::recall_from_relevance(&self.graph, &self.relevant);
                reg.templates.clone_from(&self.template_reg.1);
                (UtilityKind::Recall, reg)
            }
            Walk::RecallGathered => (
                UtilityKind::Recall,
                Regularization::recall_from_relevance(&self.graph, &self.relevant),
            ),
            Walk::RecallAll => {
                let all = vec![true; self.pages.len()];
                let mut reg = Regularization::recall_from_relevance(&self.graph, &all);
                reg.templates.clone_from(&self.template_reg_star);
                (UtilityKind::Recall, reg)
            }
        }
    }

    /// Materialize a walk's warm-start vector: previous values where the
    /// vertex existed last step, the regularization (= cold init) where
    /// it did not.
    fn warm_vector(&self, walk: Walk, reg: &Regularization) -> Option<Utilities> {
        let w = self.warm[walk as usize].as_ref()?;
        let mut u = Utilities {
            pages: reg.pages.clone(),
            queries: reg.queries.clone(),
            templates: reg.templates.clone(),
        };
        u.pages[..w.pages.len()].copy_from_slice(&w.pages);
        for (dst, src) in u.queries.iter_mut().zip(&w.queries) {
            if let Some(v) = src {
                *dst = *v;
            }
        }
        for (dst, src) in u.templates.iter_mut().zip(&w.templates) {
            if let Some(v) = src {
                *dst = *v;
            }
        }
        Some(u)
    }

    /// Run one walk to its fixpoint, warm-started when an init is
    /// available. Returns `(fixpoint, sweeps, warm_started)`.
    fn run_walk(&self, walk: Walk) -> (Utilities, usize, bool) {
        let (kind, reg) = self.reg_for(walk);
        let warm = self.warm_vector(walk, &reg);
        let warmed = warm.is_some();
        let (u, sweeps) = solve_detailed(&self.graph, kind, &reg, &self.cfg.walk, warm);
        (u, sweeps, warmed)
    }

    /// Fold a solved walk back into the cross-step state: remember the
    /// fixpoint for next step's warm start and record sweeps saved
    /// against this session's cold baseline.
    fn note_solved(
        &self,
        state: &mut EntityPhaseState,
        walk: Walk,
        u: &Utilities,
        sweeps: usize,
        warmed: bool,
    ) {
        let slot = walk as usize;
        state.last_sweeps[slot] = Some(sweeps);
        match state.cold_sweeps[slot] {
            None => state.cold_sweeps[slot] = Some(sweeps),
            Some(cold) if warmed => {
                phase_metrics()
                    .sweeps_saved
                    .record(cold.saturating_sub(sweeps) as f64);
            }
            Some(_) => {}
        }
        state.warm[slot] = Some(WarmFixpoint {
            generation: state.generation,
            u: u.clone(),
        });
    }

    /// Run one walk, optionally threading the cross-step state.
    fn walk_with(&self, walk: Walk, state: Option<&mut EntityPhaseState>) -> Vec<f64> {
        let (u, sweeps, warmed) = self.run_walk(walk);
        if let Some(st) = state {
            self.note_solved(st, walk, &u, sweeps, warmed);
        }
        u.queries
    }

    /// `P_E(q)` per candidate — precision walk with page relevance and
    /// domain-template regularization.
    pub fn precision(&self) -> Vec<f64> {
        self.precision_with(None)
    }

    /// [`EntityPhase::precision`], saving the fixpoint into `state` for
    /// next step's warm start.
    pub fn precision_with(&self, state: Option<&mut EntityPhaseState>) -> Vec<f64> {
        self.walk_with(Walk::Precision, state)
    }

    /// `R_E(q)` per candidate — recall walk with page relevance and
    /// domain-template regularization.
    pub fn recall(&self) -> Vec<f64> {
        self.recall_with(None)
    }

    /// [`EntityPhase::recall`], saving the fixpoint into `state` for next
    /// step's warm start.
    pub fn recall_with(&self, state: Option<&mut EntityPhaseState>) -> Vec<f64> {
        self.walk_with(Walk::Recall, state)
    }

    /// `R^(Ỹ)_E(q)` per candidate — recall walk regularized on the
    /// relevant *gathered* pages only (no template regularization).
    pub fn recall_gathered(&self) -> Vec<f64> {
        self.walk_with(Walk::RecallGathered, None)
    }

    /// `R^(Y*)_E(q)` per candidate — recall walk where *every* page is
    /// relevant, with the Y*-side domain-template regularization
    /// (λ·R*_D(t)) so numerator and denominator of collective precision
    /// see symmetric domain knowledge.
    pub fn recall_all(&self) -> Vec<f64> {
        self.walk_with(Walk::RecallAll, None)
    }

    /// The three walks a context-aware selection needs (R, R^(Ỹ),
    /// R^(Y*)), solved together by one fused traversal that updates all
    /// three systems per edge load, with a certified early exit: after
    /// every sweep, `certified` inspects the truncated iterates and their
    /// error bounds (see [`ContextProbe`]) and returns `true` to stop the
    /// solve early. Returns the walks plus whether the solve was
    /// truncated.
    ///
    /// A callback that never certifies (`|_| false`) is the full solve:
    /// bit for bit, sweep counts included, the same as three solo
    /// [`EntityPhase::recall`]-style walks. A callback that certifies
    /// trades the remaining sweeps for query scores that are provably
    /// within `tails[w]` of the full solve's.
    pub fn context_walks_certified(
        &self,
        state: Option<&mut EntityPhaseState>,
        mut certified: impl FnMut(&ContextProbe<'_>) -> bool,
    ) -> (ContextWalks, bool) {
        const WALKS: [Walk; 3] = [Walk::Recall, Walk::RecallGathered, Walk::RecallAll];
        let regs: [Regularization; 3] = WALKS.map(|w| {
            let (kind, reg) = self.reg_for(w);
            debug_assert_eq!(kind, UtilityKind::Recall);
            // The grouping in `certifiable_groups` relies on the
            // query side carrying no regularization.
            debug_assert!(reg.queries.iter().all(|&x| x == 0.0));
            reg
        });
        let warms: [Option<Utilities>; 3] =
            std::array::from_fn(|i| self.warm_vector(WALKS[i], &regs[i]));
        let warmed: [bool; 3] = std::array::from_fn(|i| warms[i].is_some());
        // The in-strength half of the bound is a graph constant: scan
        // the edges once per phase and derive each walk's bounds from
        // its regularization.
        let ctx = self
            .bounds_ctx
            .get_or_init(|| StaticBoundsContext::new(&self.graph, &self.cfg.walk));
        let bounds: Vec<Vec<f64>> = regs.iter().map(|reg| ctx.query_upper_bounds(reg)).collect();
        let mut solver = FusedTruncatedSolver::new(&self.graph, regs, &self.cfg.walk, warms);
        let mut early = false;
        while solver.sweep() {
            if solver.all_converged() {
                break;
            }
            let (mx_page_in, mx_tmpl_in) = solver.max_in_coeffs();
            let probe = ContextProbe {
                recall: solver.queries(0),
                recall_gathered: solver.queries(1),
                recall_all: solver.queries(2),
                tails: [solver.tail(0), solver.tail(1), solver.tail(2)],
                qtail_coeffs: [
                    solver.query_tail_coeffs(0),
                    solver.query_tail_coeffs(1),
                    solver.query_tail_coeffs(2),
                ],
                mx_page_in,
                mx_tmpl_in,
                bounds: [&bounds[0], &bounds[1], &bounds[2]],
            };
            if certified(&probe) {
                early = true;
                break;
            }
        }
        let results = solver.finish();
        if let Some(st) = state {
            for ((&w, &warm), (u, sweeps)) in WALKS.iter().zip(&warmed).zip(&results) {
                self.note_solved(st, w, u, *sweeps, warm);
            }
        }
        let [(recall, _), (recall_gathered, _), (recall_all, _)] = results;
        (
            ContextWalks {
                recall: recall.queries,
                recall_gathered: recall_gathered.queries,
                recall_all: recall_all.queries,
            },
            early,
        )
    }

    /// Partition the *connected* candidates into classes whose context
    /// walk iterates are provably bitwise-identical at every sweep: same
    /// incident edge targets with the same sender-normalized
    /// coefficients (compared exactly, by bits) and the same warm-start
    /// init value in all three walks. By induction over Jacobi sweeps,
    /// two such candidates receive the same floating-point update
    /// forever — so one representative's scores and bounds stand for the
    /// whole class, and a selection tie inside a class resolves the same
    /// way in the pruned and unpruned paths.
    ///
    /// Classes are sorted by their lowest member; members ascend.
    pub fn certifiable_groups(&self) -> Vec<Vec<usize>> {
        let connected = self.connected();
        let mut classes: FxHashMap<Vec<u64>, Vec<usize>> = FxHashMap::default();
        for (q, &conn) in connected.iter().enumerate() {
            if !conn {
                continue;
            }
            let pe = self.graph.query_pages(q);
            let te = self.graph.query_templates(q);
            let mut key: Vec<u64> = Vec::with_capacity(2 * (pe.len() + te.len()) + 5);
            key.push(pe.len() as u64);
            for (e, &c) in pe.iter().zip(self.graph.query_pages_nrm(q)) {
                key.push(e.to as u64);
                key.push(c.to_bits());
            }
            key.push(te.len() as u64);
            for (e, &c) in te.iter().zip(self.graph.query_templates_nrm(q)) {
                key.push(e.to as u64);
                key.push(c.to_bits());
            }
            for walk in [Walk::Recall, Walk::RecallGathered, Walk::RecallAll] {
                // Init at the warm value where one exists, else at the
                // regularization — which is 0 on the query side of every
                // context walk (asserted in the certified solve).
                let init = self.warm[walk as usize]
                    .as_ref()
                    .and_then(|w| w.queries.get(q).copied().flatten())
                    .unwrap_or(0.0);
                key.push(init.to_bits());
            }
            classes.entry(key).or_default().push(q);
        }
        let mut groups: Vec<Vec<usize>> = classes.into_values().collect();
        groups.sort_by_key(|g| g[0]);
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{pages_queries, StopwordCache};
    use crate::domain_phase::learn_domain;
    use l2q_corpus::{generate, researchers_domain, CorpusConfig, EntityId};

    fn setup() -> (Corpus, RelevanceOracle) {
        let c = generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap();
        let o = RelevanceOracle::from_truth(&c);
        (c, o)
    }

    fn phase_for(
        corpus: &Corpus,
        _oracle: &RelevanceOracle,
        cfg: &L2qConfig,
        with_domain: Option<&DomainModel>,
    ) -> (Vec<PageId>, Vec<Query>) {
        let e = EntityId(6);
        let pages: Vec<PageId> = corpus.pages_of(e).iter().take(8).map(|p| p.id).collect();
        let mut stops = StopwordCache::new();
        let page_refs: Vec<_> = pages.iter().map(|&p| corpus.page(p)).collect();
        let mut candidates = pages_queries(
            corpus,
            page_refs.iter().copied(),
            cfg.candidates.max_len,
            &mut stops,
        );
        if let Some(dm) = with_domain {
            for q in dm.frequent_queries() {
                candidates.push(q.clone());
            }
            candidates.sort();
            candidates.dedup();
        }
        (pages, candidates)
    }

    fn candidates_for(corpus: &Corpus, pages: &[PageId], cfg: &L2qConfig) -> Vec<Query> {
        let mut stops = StopwordCache::new();
        let page_refs: Vec<_> = pages.iter().map(|&p| corpus.page(p)).collect();
        pages_queries(
            corpus,
            page_refs.iter().copied(),
            cfg.candidates.max_len,
            &mut stops,
        )
    }

    #[test]
    fn phase_builds_and_solves() {
        let (c, o) = setup();
        let cfg = L2qConfig::default();
        let aspect = c.aspect_by_name("RESEARCH").unwrap();
        let (pages, candidates) = phase_for(&c, &o, &cfg, None);
        let phase = EntityPhase::build(&c, aspect, &pages, &o, candidates, None, true, &cfg);
        let (np, nq, nt, ne) = phase.shape();
        assert_eq!(np, pages.len());
        assert!(nq > 50);
        assert!(nt > 0);
        assert!(ne > nq, "each query should touch at least one page");
        let p = phase.precision();
        let r = phase.recall();
        assert_eq!(p.len(), nq);
        assert_eq!(r.len(), nq);
        assert!(p.iter().all(|v| v.is_finite() && *v >= 0.0));
        assert!(r.iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn queries_in_relevant_pages_score_higher_precision() {
        let (c, o) = setup();
        let cfg = L2qConfig::default();
        let aspect = c.aspect_by_name("RESEARCH").unwrap();
        let (pages, candidates) = phase_for(&c, &o, &cfg, None);
        let phase = EntityPhase::build(&c, aspect, &pages, &o, candidates, None, true, &cfg);
        let p = phase.precision();

        // Average precision of queries contained only in relevant pages
        // should beat queries contained only in irrelevant pages.
        let mut only_rel = Vec::new();
        let mut only_irr = Vec::new();
        for (qi, q) in phase.candidates().iter().enumerate() {
            let qbow = Bow::from_words(q.words());
            let mut in_rel = false;
            let mut in_irr = false;
            for (pi, &pid) in phase.pages().iter().enumerate() {
                if c.page(pid).bow().contains_all(&qbow) {
                    if phase.relevant()[pi] {
                        in_rel = true;
                    } else {
                        in_irr = true;
                    }
                }
            }
            match (in_rel, in_irr) {
                (true, false) => only_rel.push(p[qi]),
                (false, true) => only_irr.push(p[qi]),
                _ => {}
            }
        }
        assert!(!only_rel.is_empty() && !only_irr.is_empty());
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            avg(&only_rel) > avg(&only_irr),
            "relevant-only queries {:.4} must out-score irrelevant-only {:.4}",
            avg(&only_rel),
            avg(&only_irr)
        );
    }

    #[test]
    fn domain_templates_boost_matching_candidates() {
        let (c, o) = setup();
        let cfg = L2qConfig::default();
        let aspect = c.aspect_by_name("RESEARCH").unwrap();
        let domain_entities: Vec<EntityId> = c.entity_ids().take(4).collect();
        let dm = learn_domain(&c, &domain_entities, &o, &cfg);
        let (pages, candidates) = phase_for(&c, &o, &cfg, Some(&dm));

        let with = EntityPhase::build(
            &c,
            aspect,
            &pages,
            &o,
            candidates.clone(),
            Some(&dm),
            true,
            &cfg,
        );
        let without = EntityPhase::build(&c, aspect, &pages, &o, candidates, None, true, &cfg);
        let pw = with.precision();
        let po = without.precision();
        // Domain regularization must change the scores of some candidates.
        let changed = pw
            .iter()
            .zip(&po)
            .filter(|(a, b)| (*a - *b).abs() > 1e-9)
            .count();
        assert!(changed > 0, "domain regularization had no effect");
    }

    #[test]
    fn auxiliary_walks_have_expected_shape() {
        let (c, o) = setup();
        let cfg = L2qConfig::default();
        let aspect = c.aspect_by_name("CONTACT").unwrap();
        let (pages, candidates) = phase_for(&c, &o, &cfg, None);
        let phase = EntityPhase::build(&c, aspect, &pages, &o, candidates, None, true, &cfg);
        let r_all = phase.recall_all();
        let r_gathered = phase.recall_gathered();
        assert_eq!(r_all.len(), phase.candidates().len());
        assert_eq!(r_gathered.len(), phase.candidates().len());
        // Y* puts mass on all pages, so broad queries accumulate at least
        // as much recall as under the aspect-restricted Ỹ on average.
        let sum_all: f64 = r_all.iter().sum();
        let sum_gathered: f64 = r_gathered.iter().sum();
        assert!(sum_all > 0.0 && sum_gathered > 0.0);
    }

    #[test]
    fn disabling_templates_removes_template_vertices() {
        let (c, o) = setup();
        let cfg = L2qConfig::default();
        let aspect = c.aspect_by_name("RESEARCH").unwrap();
        let (pages, candidates) = phase_for(&c, &o, &cfg, None);
        let phase = EntityPhase::build(&c, aspect, &pages, &o, candidates, None, false, &cfg);
        let (_, _, nt, _) = phase.shape();
        assert_eq!(nt, 0);
        assert!(phase.precision().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_pages_is_safe() {
        let (c, o) = setup();
        let cfg = L2qConfig::default();
        let aspect = c.aspect_by_name("RESEARCH").unwrap();
        let phase = EntityPhase::build(&c, aspect, &[], &o, Vec::new(), None, true, &cfg);
        assert!(phase.precision().is_empty());
        assert!(phase.recall().is_empty());
    }

    /// Growing the page set step by step through one persistent state must
    /// reproduce the cold build bit for bit: same shape, same edges, same
    /// solved utilities (graph assembly replays the cold insertion order).
    #[test]
    fn incremental_build_matches_cold_build_bitwise() {
        let (c, o) = setup();
        // Warm starts off: this test isolates the incremental *assembly*;
        // the warm-start path is covered separately (it converges to the
        // same fixpoint within tolerance, not bitwise).
        let cfg = L2qConfig::default().with_warm_start(false);
        let aspect = c.aspect_by_name("RESEARCH").unwrap();
        let all_pages: Vec<PageId> = c.pages_of(EntityId(6)).iter().map(|p| p.id).collect();
        assert!(all_pages.len() >= 6);

        let mut state = EntityPhaseState::new();
        for k in [2usize, 4, 5, all_pages.len().min(8)] {
            let pages = &all_pages[..k];
            let candidates = candidates_for(&c, pages, &cfg);
            let inc = EntityPhase::build_incremental(
                &c,
                aspect,
                pages,
                &o,
                candidates.clone(),
                None,
                true,
                &cfg,
                &mut state,
            );
            let cold = EntityPhase::build(&c, aspect, pages, &o, candidates, None, true, &cfg);
            assert_eq!(inc.shape(), cold.shape(), "shape diverged at k={k}");
            assert_eq!(inc.relevant(), cold.relevant());
            assert_eq!(inc.templates(), cold.templates());
            assert_eq!(inc.connected(), cold.connected());
            // Bitwise equality of every walk.
            assert_eq!(inc.precision(), cold.precision(), "precision at k={k}");
            assert_eq!(inc.recall(), cold.recall(), "recall at k={k}");
            assert_eq!(
                inc.recall_gathered(),
                cold.recall_gathered(),
                "recall_gathered at k={k}"
            );
            assert_eq!(inc.recall_all(), cold.recall_all(), "recall_all at k={k}");
        }
        assert_eq!(state.generation(), 4);
        assert!(state.cached_queries() > 0);
    }

    /// Warm-started solves must land on the cold fixpoint (same graph,
    /// same regularization, unique fixpoint) within solver tolerance.
    #[test]
    fn warm_started_walks_converge_to_the_cold_fixpoint() {
        let (c, o) = setup();
        let cfg = L2qConfig::default();
        assert!(cfg.warm_start, "warm starts are the default");
        let aspect = c.aspect_by_name("RESEARCH").unwrap();
        let all_pages: Vec<PageId> = c.pages_of(EntityId(6)).iter().map(|p| p.id).collect();

        let mut state = EntityPhaseState::new();
        for k in [3usize, 5, all_pages.len().min(8)] {
            let pages = &all_pages[..k];
            let candidates = candidates_for(&c, pages, &cfg);
            let inc = EntityPhase::build_incremental(
                &c,
                aspect,
                pages,
                &o,
                candidates.clone(),
                None,
                true,
                &cfg,
                &mut state,
            );
            let warm_p = inc.precision_with(Some(&mut state));
            let warm_r = inc.recall_with(Some(&mut state));
            let cold = EntityPhase::build(&c, aspect, pages, &o, candidates, None, true, &cfg);
            let cold_p = cold.precision();
            let cold_r = cold.recall();
            for (a, b) in warm_p.iter().zip(&cold_p) {
                assert!((a - b).abs() < 1e-7, "precision drifted: {a} vs {b}");
            }
            for (a, b) in warm_r.iter().zip(&cold_r) {
                assert!((a - b).abs() < 1e-7, "recall drifted: {a} vs {b}");
            }
        }
    }

    /// With a callback that never certifies, the fused context-walk
    /// solve is the full solve: bitwise equal to the three solo walks,
    /// warm starts and recorded sweep counts included, across warm
    /// incremental builds.
    #[test]
    fn uncertified_context_walks_match_solo_walks_bitwise() {
        let (c, o) = setup();
        let cfg = L2qConfig::default();
        let aspect = c.aspect_by_name("RESEARCH").unwrap();
        let all_pages: Vec<PageId> = c.pages_of(EntityId(6)).iter().map(|p| p.id).collect();

        let mut st_solo = EntityPhaseState::new();
        let mut st_fused = EntityPhaseState::new();
        for k in [3, 5, all_pages.len()] {
            let pages = &all_pages[..k];
            let candidates = candidates_for(&c, pages, &cfg);
            let solo_phase = EntityPhase::build_incremental(
                &c,
                aspect,
                pages,
                &o,
                candidates.clone(),
                None,
                true,
                &cfg,
                &mut st_solo,
            );
            let solo: Vec<Vec<f64>> = [Walk::Recall, Walk::RecallGathered, Walk::RecallAll]
                .into_iter()
                .map(|w| solo_phase.walk_with(w, Some(&mut st_solo)))
                .collect();
            let (fused, early) = EntityPhase::build_incremental(
                &c,
                aspect,
                pages,
                &o,
                candidates,
                None,
                true,
                &cfg,
                &mut st_fused,
            )
            .context_walks_certified(Some(&mut st_fused), |_| false);
            assert!(!early);
            assert_eq!(solo[0], fused.recall, "recall at k={k}");
            assert_eq!(solo[1], fused.recall_gathered, "recall_gathered at k={k}");
            assert_eq!(solo[2], fused.recall_all, "recall_all at k={k}");
            assert_eq!(st_solo.last_sweeps(), st_fused.last_sweeps(), "k={k}");
        }
        assert_eq!(st_fused.generation(), 3);
    }

    /// A state whose cached pages are not a prefix of the new page list
    /// must reset and still produce the correct (cold-equal) result.
    #[test]
    fn non_prefix_pages_invalidate_the_state() {
        let (c, o) = setup();
        let cfg = L2qConfig::default();
        let aspect = c.aspect_by_name("RESEARCH").unwrap();
        let all_pages: Vec<PageId> = c.pages_of(EntityId(6)).iter().map(|p| p.id).collect();

        let mut state = EntityPhaseState::new();
        let first = &all_pages[..4];
        let _ = EntityPhase::build_incremental(
            &c,
            aspect,
            first,
            &o,
            candidates_for(&c, first, &cfg),
            None,
            true,
            &cfg,
            &mut state,
        );
        assert_eq!(state.generation(), 1);

        // Reversed pages: cached list is no longer a prefix.
        let reversed: Vec<PageId> = all_pages[..4].iter().rev().copied().collect();
        let candidates = candidates_for(&c, &reversed, &cfg);
        let rebuilds_before = phase_metrics().rebuilds.get();
        let inc = EntityPhase::build_incremental(
            &c,
            aspect,
            &reversed,
            &o,
            candidates.clone(),
            None,
            true,
            &cfg,
            &mut state,
        );
        assert!(phase_metrics().rebuilds.get() > rebuilds_before);
        assert_eq!(state.generation(), 1, "reset state restarts generations");
        let cold = EntityPhase::build(&c, aspect, &reversed, &o, candidates, None, true, &cfg);
        assert_eq!(inc.precision(), cold.precision());
    }

    /// Changing the aspect mid-state must also invalidate.
    #[test]
    fn aspect_change_invalidates_the_state() {
        let (c, o) = setup();
        let cfg = L2qConfig::default();
        let research = c.aspect_by_name("RESEARCH").unwrap();
        let contact = c.aspect_by_name("CONTACT").unwrap();
        let pages: Vec<PageId> = c
            .pages_of(EntityId(6))
            .iter()
            .take(5)
            .map(|p| p.id)
            .collect();
        let candidates = candidates_for(&c, &pages, &cfg);

        let mut state = EntityPhaseState::new();
        let _ = EntityPhase::build_incremental(
            &c,
            research,
            &pages,
            &o,
            candidates.clone(),
            None,
            true,
            &cfg,
            &mut state,
        );
        let inc = EntityPhase::build_incremental(
            &c,
            contact,
            &pages,
            &o,
            candidates.clone(),
            None,
            true,
            &cfg,
            &mut state,
        );
        let cold = EntityPhase::build(&c, contact, &pages, &o, candidates, None, true, &cfg);
        assert_eq!(inc.precision(), cold.precision());
        assert_eq!(inc.relevant(), cold.relevant());
    }

    /// Reuse/rebuild counters move as documented.
    #[test]
    fn phase_metrics_count_reuses_and_rebuilds() {
        let (c, o) = setup();
        let cfg = L2qConfig::default().with_warm_start(false);
        let aspect = c.aspect_by_name("RESEARCH").unwrap();
        let all_pages: Vec<PageId> = c.pages_of(EntityId(6)).iter().map(|p| p.id).collect();
        let m = phase_metrics();
        let (reuses0, rebuilds0) = (m.reuses.get(), m.rebuilds.get());

        let mut state = EntityPhaseState::new();
        for k in [3usize, 4, 5] {
            let pages = &all_pages[..k.min(all_pages.len())];
            let _ = EntityPhase::build_incremental(
                &c,
                aspect,
                pages,
                &o,
                candidates_for(&c, pages, &cfg),
                None,
                true,
                &cfg,
                &mut state,
            );
        }
        // One fresh build + two incremental reuses (the registry is
        // process-global, so assert growth by at least this test's share).
        assert!(m.rebuilds.get() > rebuilds0);
        assert!(m.reuses.get() >= reuses0 + 2);
    }

    /// A certification callback that never fires makes the certified
    /// solve bit-identical to the solo walks; one that fires early
    /// truncates within its reported tails.
    #[test]
    fn certified_walks_without_certification_match_solo_walks_bitwise() {
        let (c, o) = setup();
        let cfg = L2qConfig::default();
        let aspect = c.aspect_by_name("RESEARCH").unwrap();
        let (pages, candidates) = phase_for(&c, &o, &cfg, None);
        let phase = EntityPhase::build(&c, aspect, &pages, &o, candidates, None, true, &cfg);
        let full = ContextWalks {
            recall: phase.recall(),
            recall_gathered: phase.recall_gathered(),
            recall_all: phase.recall_all(),
        };

        let mut probes = 0usize;
        let (walks, early) = phase.context_walks_certified(None, |p| {
            probes += 1;
            assert!(p.tails.iter().all(|t| *t >= 0.0));
            for w in 0..3 {
                let scores = [p.recall, p.recall_gathered, p.recall_all][w];
                for (q, &s) in scores.iter().enumerate() {
                    assert!(p.bounds[w][q] >= 0.0 && s <= p.bounds[w][q] + p.tails[w]);
                    assert!(
                        p.qtail(w, q) >= 0.0 && p.qtail(w, q) <= p.tails[w],
                        "per-query tail must refine the block tail"
                    );
                }
            }
            false
        });
        assert!(!early);
        assert!(probes > 2, "callback must see intermediate sweeps");
        assert_eq!(walks.recall, full.recall);
        assert_eq!(walks.recall_gathered, full.recall_gathered);
        assert_eq!(walks.recall_all, full.recall_all);

        // Truncate once every tail drops below 1e-6: the walks must agree
        // with the full solve to that tolerance.
        let (truncated, early) =
            phase.context_walks_certified(None, |p| p.tails.iter().all(|t| *t <= 1e-6));
        assert!(early, "tails must eventually certify");
        for (a, b) in truncated
            .recall
            .iter()
            .chain(&truncated.recall_gathered)
            .chain(&truncated.recall_all)
            .zip(
                full.recall
                    .iter()
                    .chain(&full.recall_gathered)
                    .chain(&full.recall_all),
            )
        {
            assert!((a - b).abs() <= 2e-6, "truncation drifted: {a} vs {b}");
        }
    }

    /// Candidate classes group only provably identical candidates: the
    /// solved walk scores inside one class are bitwise equal, and every
    /// connected candidate appears in exactly one class.
    #[test]
    fn certifiable_groups_partition_connected_candidates_into_equal_scores() {
        let (c, o) = setup();
        let cfg = L2qConfig::default();
        let aspect = c.aspect_by_name("RESEARCH").unwrap();
        let (pages, candidates) = phase_for(&c, &o, &cfg, None);
        let phase = EntityPhase::build(&c, aspect, &pages, &o, candidates, None, true, &cfg);
        let groups = phase.certifiable_groups();
        let connected = phase.connected();
        let n_connected = connected.iter().filter(|&&x| x).count();
        assert_eq!(groups.iter().map(|g| g.len()).sum::<usize>(), n_connected);
        let mut seen = std::collections::HashSet::new();
        for g in &groups {
            for &q in g {
                assert!(connected[q]);
                assert!(seen.insert(q), "candidate {q} in two classes");
            }
        }
        let (walks, _) = phase.context_walks_certified(None, |_| false);
        for g in &groups {
            for &q in &g[1..] {
                assert_eq!(walks.recall[g[0]], walks.recall[q]);
                assert_eq!(walks.recall_gathered[g[0]], walks.recall_gathered[q]);
                assert_eq!(walks.recall_all[g[0]], walks.recall_all[q]);
            }
        }
    }
}
