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
//! A harvest step adds at most top-k new pages and a few dozen new
//! candidates and fires one query, yet a from-scratch phase re-derives
//! the pool QE, containment-tests every (candidate, page) pair and
//! enumerates and looks up every template on every step. An
//! [`EntityPhaseState`] carried across a session's steps is a
//! per-session candidate table instead. Each distinct candidate gets one
//! slot the first time it enters the pool — its bag, its page-containment
//! list and its interned template ids — and each distinct template one
//! slot holding its λ-scaled domain regularization, looked up once. The
//! pool is carried too. Its page part follows the harvester's live
//! candidate list, which only drops fired queries and appends new ones,
//! so a merge keeps every surviving slot. Its domain part (the frequent
//! domain queries that are not fired, not seed subsets and not page
//! candidates) only ever loses the query that fires and the queries a
//! new page enumerates. A step therefore containment-tests only new
//! pages × all candidates and new candidates × all pages, hashes only
//! new candidates and templates, and otherwise makes plain array passes.
//!
//! The graph is reassembled each step by replaying the table in exactly
//! the cold build's insertion order (candidates in pool order, each
//! candidate's pages ascending, templates in first-occurrence order over
//! the pool), so solver float summation — and therefore every utility —
//! is bit-identical to a from-scratch [`EntityPhase::build`]. The state
//! also keeps each walk's previous fixpoint; mapped onto the current
//! vertex set it becomes a warm start for [`l2q_graph::solve_detailed`],
//! which converges to the same fixpoint (the update map is a
//! contraction) in far fewer sweeps.
//!
//! The state resets itself — the build falls back to a full one — when
//! any input its table depends on changes: the aspect, the template
//! mode, the domain model, λ, a fired list that does not extend the
//! previous one, a page list the cached one is not a prefix of, or page
//! candidates that changed other than by dropping newly fired queries
//! and appending. A restored session starts from an empty state, so its
//! first step is a full build.

use crate::config::L2qConfig;
use crate::domain_phase::DomainModel;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::query::Query;
use crate::selector::subset_of_seed;
use crate::template::{templates_of, Template, TemplateMode};
use l2q_aspect::RelevanceOracle;
use l2q_corpus::{AspectId, Corpus, PageId};
use l2q_graph::{
    solve_detailed, FusedTruncatedSolver, GraphBuilder, Regularization, ReinforcementGraph,
    Utilities, UtilityKind,
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

/// The walks of a context-aware selection, in [`ContextProbe`] order.
const CONTEXT_WALKS: [Walk; 3] = [Walk::Recall, Walk::RecallGathered, Walk::RecallAll];

/// The inputs an [`EntityPhaseState`]'s table is derived from, besides
/// the page, fired and page-candidate lists (checked as prefixes); any
/// change resets the state.
#[derive(Clone, Copy, Debug, PartialEq)]
struct TableKey {
    aspect: AspectId,
    template_mode: TemplateMode,
    /// [`DomainModel::id`] of the domain, if any.
    domain: Option<u64>,
    /// λ, compared by bits.
    lambda_bits: u64,
}

/// One distinct candidate of a session, created the first time it
/// enters the pool.
#[derive(Debug)]
struct Slot {
    query: Query,
    /// The candidate's own bag (left operand of containment tests).
    bow: Bow,
    /// Ascending indices (into the state's page list) of pages whose bag
    /// contains this candidate.
    pages: Vec<u32>,
    /// How many of the state's pages have been containment-tested (a
    /// prefix).
    tested: usize,
    /// Interned template ids (into `EntityPhaseState::templates`),
    /// enumerated the first time the candidate's templates are needed.
    templates: Option<Box<[u32]>>,
    /// Pool index in build `pos_gen`: the previous build's index maps
    /// warm starts, the current build's marks pool membership.
    pos: u32,
    pos_gen: u64,
}

/// One distinct template of a session.
#[derive(Debug)]
struct TemplateSlot {
    template: Template,
    /// [`template_reg`] of the template.
    reg: [f64; 3],
    /// Vertex index in build `vertex_gen` (same role as `Slot::pos`).
    vertex: u32,
    vertex_gen: u64,
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

/// Persistent cross-step cache for [`EntityPhase::build_incremental`]:
/// the session's candidate table (see the module docs) plus each walk's
/// previous fixpoint.
///
/// Owned by whoever owns the harvest loop (the harvester keeps one per
/// session inside `HarvestState`); a default/empty state is always valid
/// and simply makes the first build a full one.
#[derive(Debug, Default)]
pub struct EntityPhaseState {
    key: Option<TableKey>,
    /// Fired queries of the last build; the next build's must extend them.
    fired: Vec<Query>,
    /// Pages diffed so far — must stay a prefix of each step's page list.
    pages: Vec<PageId>,
    relevant: Vec<bool>,
    slots: Vec<Slot>,
    slot_of: FxHashMap<Query, u32>,
    templates: Vec<TemplateSlot>,
    template_of: FxHashMap<Template, u32>,
    /// Slots of the last build's page candidates, in order.
    page_part: Vec<u32>,
    /// The last build's domain part: `(slot, index into the domain's
    /// frequent queries)`, in frequency order.
    domain_part: Vec<(u32, u32)>,
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
        self.slots.len()
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

    /// The slot of `q`, created on first sight.
    fn slot(&mut self, q: &Query) -> u32 {
        if let Some(&s) = self.slot_of.get(q) {
            return s;
        }
        let s = self.slots.len() as u32;
        self.slots.push(Slot {
            query: q.clone(),
            bow: Bow::from_words(q.words()),
            pages: Vec::new(),
            tested: 0,
            templates: None,
            pos: 0,
            pos_gen: 0,
        });
        self.slot_of.insert(q.clone(), s);
        s
    }

    /// The interned id of `t`, created (and its regularization looked
    /// up) on first sight.
    fn template(
        &mut self,
        t: Template,
        aspect: AspectId,
        domain: Option<&DomainModel>,
        lambda: f64,
    ) -> u32 {
        if let Some(&i) = self.template_of.get(&t) {
            return i;
        }
        let i = self.templates.len() as u32;
        self.template_of.insert(t.clone(), i);
        self.templates.push(TemplateSlot {
            reg: template_reg(&t, aspect, domain, lambda),
            template: t,
            vertex: 0,
            vertex_gen: 0,
        });
        i
    }

    /// Carry the last build's page part over to `page_candidates`: each
    /// candidate still in place keeps its slot (pushed to `kept`), and
    /// every one that dropped out must be newly fired. `false` when the
    /// list changed any other way.
    fn carry_page_part(
        &self,
        page_candidates: &[Query],
        newly_fired: &[Query],
        kept: &mut Vec<u32>,
    ) -> bool {
        for &s in &self.page_part {
            let q = &self.slots[s as usize].query;
            if page_candidates.get(kept.len()) == Some(q) {
                kept.push(s);
            } else if !newly_fired.contains(q) {
                return false;
            }
        }
        true
    }
}

/// Template regularization from the domain (Eq. 21–22): λ·P_D(t),
/// λ·R_D(t) and λ·R*_D(t), zero where the domain is silent.
fn template_reg(
    t: &Template,
    aspect: AspectId,
    domain: Option<&DomainModel>,
    lambda: f64,
) -> [f64; 3] {
    let mut reg = [0.0; 3];
    if let Some(dm) = domain {
        if let Some(u) = dm.template_utility(aspect, t) {
            reg[0] = lambda * u.precision;
            reg[1] = lambda * u.recall;
        }
        if let Some(rs) = dm.template_recall_star(t) {
            reg[2] = lambda * rs;
        }
    }
    reg
}

/// The candidate pool QE, from scratch: the page candidates (fired
/// queries already removed, see [`crate::selector::page_candidates`]),
/// then, with a domain, each frequent domain query that is not fired,
/// not a seed subset and not already pooled, in frequency order.
fn candidate_pool<'q>(
    corpus: &Corpus,
    page_candidates: &'q [Query],
    fired: &[Query],
    domain: Option<&'q DomainModel>,
) -> Vec<&'q Query> {
    let mut pool: Vec<&Query> = page_candidates.iter().collect();
    if let Some(dm) = domain {
        let seed = fired.first();
        let fired: FxHashSet<&Query> = fired.iter().collect();
        let mut seen: FxHashSet<&Query> = pool.iter().copied().collect();
        for q in dm.frequent_queries() {
            if fired.contains(q) || seed.is_some_and(|s| subset_of_seed(q, s, corpus)) {
                continue;
            }
            if seen.insert(q) {
                pool.push(q);
            }
        }
    }
    pool
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
/// after every fused sweep. It reads the solver's query classes:
/// candidates whose iterates are bitwise-identical at every sweep (see
/// [`FusedTruncatedSolver`]), so one score, tail and bound stands for
/// every member of a class. Walks are indexed `[recall,
/// recall_gathered, recall_all]`.
pub struct ContextProbe<'a> {
    solver: &'a FusedTruncatedSolver,
    classes: &'a [u32],
}

impl ContextProbe<'_> {
    /// The classes of connected candidates, in order of their first
    /// member. Candidates without an edge carry no evidence and belong
    /// to none of them.
    pub fn classes(&self) -> &[u32] {
        self.classes
    }

    /// Number of candidates in class `c`.
    pub fn class_len(&self, c: u32) -> usize {
        self.solver.class_len(c as usize)
    }

    /// Current (truncated) iterate of class `c` in each walk.
    pub fn scores(&self, c: u32) -> [f64; 3] {
        self.solver.class_values(c as usize)
    }

    /// Static upper bounds on class `c`'s true fixpoint in each walk.
    pub fn bounds(&self, c: u32) -> [f64; 3] {
        self.solver.class_bounds(c as usize)
    }

    /// Certified max-per-candidate distance of each walk's iterate from
    /// its true fixpoint (`INFINITY` while uncertifiable).
    pub fn tails(&self) -> [f64; 3] {
        std::array::from_fn(|w| self.solver.tail(w))
    }

    /// Certified distance of class `c`'s walk-`w` iterate from its true
    /// fixpoint — the per-class refinement of `tails()[w]` (always ≤
    /// it), in O(1).
    pub fn qtail(&self, w: usize, c: u32) -> f64 {
        self.solver.class_tail(w, c as usize)
    }
}

/// A frozen entity graph ready to solve.
pub struct EntityPhase<'a> {
    cfg: &'a L2qConfig,
    aspect: AspectId,
    pages: Vec<PageId>,
    relevant: Vec<bool>,
    candidates: Vec<&'a Query>,
    templates: Vec<Template>,
    graph: ReinforcementGraph,
    /// λ·P_D(t), λ·R_D(t) and λ·R*_D(t) per template (0 where the domain
    /// has no utility). The last one is domain knowledge for the
    /// Y*-walk, so the collective-precision denominator is estimated
    /// with the same machinery as its numerator.
    template_reg: [Vec<f64>; 3],
    /// Per-walk warm-start inits mapped from the previous step's
    /// fixpoints (populated by [`EntityPhase::build_incremental`]).
    warm: [Option<WarmInit>; N_WALKS],
}

impl<'a> EntityPhase<'a> {
    /// Build the entity graph from scratch.
    ///
    /// `pages` are the current result pages PE (deduplicated, in gathering
    /// order). The query pool QE is `page_candidates` (fired queries
    /// already removed) plus, when `domain` is given, the frequent domain
    /// queries that are not fired (`fired[0]` is the seed) and not seed
    /// subsets — the caller passes `domain: None` for the Sect. III
    /// ablations. When `domain` is `None` (or `use_templates` is false)
    /// the graph degenerates to the paper's template-free Sect. III model.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's Eq. 20 inputs
    pub fn build(
        corpus: &Corpus,
        aspect: AspectId,
        pages: &[PageId],
        oracle: &RelevanceOracle,
        page_candidates: &'a [Query],
        fired: &[Query],
        domain: Option<&'a DomainModel>,
        use_templates: bool,
        cfg: &'a L2qConfig,
    ) -> Self {
        // Lean one-shot assembly: no cache bookkeeping, no warm-start
        // remapping — but the same insertion order as the incremental
        // path (candidates in pool order, each candidate's pages
        // ascending, templates in first-occurrence order), so the two
        // builds are bit-identical. `incremental_build_matches_cold_build_bitwise`
        // holds the paths together.
        let candidates = candidate_pool(corpus, page_candidates, fired, domain);
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

        let regs: Vec<[f64; 3]> = templates
            .iter()
            .map(|t| template_reg(t, aspect, domain, cfg.lambda))
            .collect();

        Self {
            cfg,
            aspect,
            pages: pages.to_vec(),
            relevant,
            candidates,
            templates,
            graph,
            template_reg: std::array::from_fn(|w| regs.iter().map(|r| r[w]).collect()),
            warm: [None, None, None, None],
        }
    }

    /// Build the entity graph through `state`, the session's candidate
    /// table from the previous step (see the module docs): only new
    /// pages × all candidates and new candidates × all pages are
    /// containment-tested, and only new candidates and templates are
    /// looked up. The resulting pool, graph and every utility solved on
    /// it are bit-identical to [`EntityPhase::build`] on the same inputs.
    ///
    /// A state that cannot be carried over (another aspect, template
    /// mode, domain or λ; a page or fired list the cached one is not a
    /// prefix of; page candidates that changed other than by dropping
    /// newly fired queries and appending) is reset and the build falls
    /// back to a full one, counted by `entity_phase_rebuilds_total`.
    #[allow(clippy::too_many_arguments)] // the Eq. 20 inputs plus the cache
    pub fn build_incremental(
        corpus: &Corpus,
        aspect: AspectId,
        pages: &[PageId],
        oracle: &RelevanceOracle,
        page_candidates: &'a [Query],
        fired: &[Query],
        domain: Option<&'a DomainModel>,
        use_templates: bool,
        cfg: &'a L2qConfig,
        state: &mut EntityPhaseState,
    ) -> Self {
        let m = phase_metrics();
        let key = TableKey {
            aspect,
            template_mode: cfg.template_mode,
            domain: domain.map(DomainModel::id),
            lambda_bits: cfg.lambda.to_bits(),
        };
        let mut page_part: Vec<u32> = Vec::with_capacity(page_candidates.len());
        let reusable = state.generation > 0
            && state.key == Some(key)
            && pages.starts_with(&state.pages)
            && fired.starts_with(&state.fired)
            && state.carry_page_part(page_candidates, &fired[state.fired.len()..], &mut page_part);
        if reusable {
            m.reuses.inc();
        } else {
            *state = EntityPhaseState {
                key: Some(key),
                ..EntityPhaseState::new()
            };
            page_part.clear();
            m.rebuilds.inc();
        }
        let newly_fired = &fired[state.fired.len()..];
        state.fired.extend_from_slice(newly_fired);

        // Extend the diffed page prefix (and its relevance labels) with
        // this step's new pages.
        for &p in &pages[state.pages.len()..] {
            state.relevant.push(oracle.is_relevant(aspect, p));
            state.pages.push(p);
        }
        let n_pages = pages.len();
        let bows: Vec<&Bow> = pages.iter().map(|&p| corpus.page(p).bow()).collect();

        let prev_gen = state.generation;
        let gen = prev_gen + 1;

        // Pool, page part: the carried slots, then the appended page
        // candidates (looked up, or new slots). Each pooled slot records
        // its previous pool index for warm-start remapping.
        for q in &page_candidates[page_part.len()..] {
            let s = state.slot(q);
            page_part.push(s);
        }
        let mut pool: Vec<u32> = Vec::with_capacity(page_part.len() + state.domain_part.len());
        let mut prev_pos: Vec<Option<u32>> = Vec::with_capacity(pool.capacity());
        let mut enter = |slot: &mut Slot, pool: &mut Vec<u32>, s: u32| {
            prev_pos.push((prev_gen > 0 && slot.pos_gen == prev_gen).then_some(slot.pos));
            slot.pos = pool.len() as u32;
            slot.pos_gen = gen;
            pool.push(s);
        };
        for &s in &page_part {
            enter(&mut state.slots[s as usize], &mut pool, s);
        }
        // Pool, domain part: derived once per table; after that only the
        // newly fired query and the queries new pages enumerate leave it.
        let mut domain_part = std::mem::take(&mut state.domain_part);
        if let Some(dm) = domain {
            if prev_gen == 0 {
                let seed = fired.first();
                let fired: FxHashSet<&Query> = fired.iter().collect();
                for (k, q) in dm.frequent_queries().enumerate() {
                    if fired.contains(q) || seed.is_some_and(|s| subset_of_seed(q, s, corpus)) {
                        continue;
                    }
                    let s = state.slot(q);
                    if state.slots[s as usize].pos_gen != gen {
                        enter(&mut state.slots[s as usize], &mut pool, s);
                        domain_part.push((s, k as u32));
                    }
                }
            } else {
                domain_part.retain(|&(s, _)| {
                    let slot = &state.slots[s as usize];
                    slot.pos_gen != gen && !newly_fired.contains(&slot.query)
                });
                for &(s, _) in &domain_part {
                    enter(&mut state.slots[s as usize], &mut pool, s);
                }
            }
        }
        let mut candidates: Vec<&'a Query> = page_candidates.iter().collect();
        if let Some(dm) = domain {
            candidates.extend(
                domain_part
                    .iter()
                    .map(|&(_, k)| dm.frequent_query(k as usize)),
            );
        }

        // Table update: containment-test the untested (candidate, page)
        // pairs and intern the templates of candidates that have none
        // yet.
        let mut n_pq_edges = 0usize;
        for &s in &pool {
            let slot = &mut state.slots[s as usize];
            for (pi, bow) in bows.iter().enumerate().skip(slot.tested) {
                if bow.contains_all(&slot.bow) {
                    slot.pages.push(pi as u32);
                }
            }
            slot.tested = n_pages;
            n_pq_edges += slot.pages.len();
            if use_templates && slot.templates.is_none() {
                let ts = templates_of(&slot.query, corpus, cfg.template_mode);
                let ids = ts
                    .into_iter()
                    .map(|t| state.template(t, aspect, domain, cfg.lambda))
                    .collect();
                state.slots[s as usize].templates = Some(ids);
            }
        }
        // Template vertices in first-occurrence order over the pool.
        let mut build_templates: Vec<u32> = Vec::new();
        let mut prev_vertex: Vec<Option<u32>> = Vec::new();
        let mut qt_edges: Vec<(u32, u32)> = Vec::new();
        if use_templates {
            for (qi, &s) in pool.iter().enumerate() {
                for &t in state.slots[s as usize]
                    .templates
                    .as_deref()
                    .unwrap_or_default()
                {
                    let ts = &mut state.templates[t as usize];
                    if ts.vertex_gen != gen {
                        prev_vertex
                            .push((prev_gen > 0 && ts.vertex_gen == prev_gen).then_some(ts.vertex));
                        ts.vertex = build_templates.len() as u32;
                        ts.vertex_gen = gen;
                        build_templates.push(t);
                    }
                    qt_edges.push((qi as u32, ts.vertex));
                }
            }
        }

        // Graph assembly: replay the table in exactly the cold build's
        // insertion order (candidates in pool order, each candidate's
        // pages ascending) so solver float summation is bit-identical to
        // a from-scratch build.
        let mut builder = GraphBuilder::new(n_pages, pool.len(), build_templates.len());
        builder.reserve(n_pq_edges, qt_edges.len());
        for (qi, &s) in pool.iter().enumerate() {
            for &pi in &state.slots[s as usize].pages {
                builder.page_query(pi, qi as u32, 1.0);
            }
        }
        for &(q, t) in &qt_edges {
            builder.query_template(q, t, 1.0);
        }
        let graph = builder.build();

        // Map the previous step's fixpoints onto the new vertex set:
        // pages are a stable prefix, queries and templates map via their
        // previous vertex index. Vertices new to this build stay `None`
        // and cold-start at their regularization.
        let mut warm: [Option<WarmInit>; N_WALKS] = [None, None, None, None];
        if cfg.warm_start && prev_gen > 0 {
            for (slot, fix) in state.warm.iter().enumerate() {
                let Some(fix) = fix else { continue };
                if fix.generation != prev_gen {
                    continue;
                }
                warm[slot] = Some(WarmInit {
                    pages: fix.u.pages.clone(),
                    queries: prev_pos
                        .iter()
                        .map(|p| p.map(|j| fix.u.queries[j as usize]))
                        .collect(),
                    templates: prev_vertex
                        .iter()
                        .map(|p| p.map(|j| fix.u.templates[j as usize]))
                        .collect(),
                });
            }
        }
        let template_reg = std::array::from_fn(|w| {
            build_templates
                .iter()
                .map(|&t| state.templates[t as usize].reg[w])
                .collect()
        });
        let templates = build_templates
            .iter()
            .map(|&t| state.templates[t as usize].template.clone())
            .collect();
        state.page_part = page_part;
        state.domain_part = domain_part;
        state.generation = gen;

        Self {
            cfg,
            aspect,
            pages: pages.to_vec(),
            relevant: state.relevant.clone(),
            candidates,
            templates,
            graph,
            template_reg,
            warm,
        }
    }

    /// The candidate queries (vertex order of all per-query outputs).
    pub fn candidates(&self) -> &[&'a Query] {
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
            .map(|q| self.is_connected(q))
            .collect()
    }

    fn is_connected(&self, q: usize) -> bool {
        self.graph.query_page_deg[q] > 0.0 || self.graph.query_template_deg[q] > 0.0
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
                reg.templates.clone_from(&self.template_reg[0]);
                (UtilityKind::Precision, reg)
            }
            Walk::Recall => {
                let mut reg = Regularization::recall_from_relevance(&self.graph, &self.relevant);
                reg.templates.clone_from(&self.template_reg[1]);
                (UtilityKind::Recall, reg)
            }
            Walk::RecallGathered => (
                UtilityKind::Recall,
                Regularization::recall_from_relevance(&self.graph, &self.relevant),
            ),
            Walk::RecallAll => {
                let all = vec![true; self.pages.len()];
                let mut reg = Regularization::recall_from_relevance(&self.graph, &all);
                reg.templates.clone_from(&self.template_reg[2]);
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
    /// three walks of each class of interchangeable candidates at once,
    /// with a certified early exit: after every sweep, `certified`
    /// inspects the truncated iterates and their error bounds (see
    /// [`ContextProbe`]) and returns `true` to stop the solve early.
    /// Returns the walks plus whether the solve was truncated.
    ///
    /// A callback that never certifies (`|_| false`) is the full solve:
    /// bit for bit, sweep counts included, the same as three solo
    /// [`EntityPhase::recall`]-style walks. A callback that certifies
    /// trades the remaining sweeps for query scores that are provably
    /// within `tails()[w]` of the full solve's.
    pub fn context_walks_certified(
        &self,
        state: Option<&mut EntityPhaseState>,
        mut certified: impl FnMut(&ContextProbe<'_>) -> bool,
    ) -> (ContextWalks, bool) {
        let (mut solver, warmed) = self.context_solver();
        let classes = self.connected_classes(&solver);
        let mut early = false;
        while solver.sweep() {
            if solver.all_converged() {
                break;
            }
            let probe = ContextProbe {
                solver: &solver,
                classes: &classes,
            };
            if certified(&probe) {
                early = true;
                break;
            }
        }
        let results = solver.finish();
        if let Some(st) = state {
            for ((&w, &warm), (u, sweeps)) in CONTEXT_WALKS.iter().zip(&warmed).zip(&results) {
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

    /// The fused solver of the context walks, set up from their
    /// regularizations and warm starts, and which walks start warm.
    fn context_solver(&self) -> (FusedTruncatedSolver, [bool; 3]) {
        let regs: [Regularization; 3] = CONTEXT_WALKS.map(|w| {
            let (kind, reg) = self.reg_for(w);
            debug_assert_eq!(kind, UtilityKind::Recall);
            reg
        });
        let warms: [Option<Utilities>; 3] =
            std::array::from_fn(|i| self.warm_vector(CONTEXT_WALKS[i], &regs[i]));
        let warmed = std::array::from_fn(|i| warms[i].is_some());
        (
            FusedTruncatedSolver::new(&self.graph, regs, &self.cfg.walk, warms),
            warmed,
        )
    }

    /// The solver's classes of connected candidates, the field the
    /// certifier races, in class order.
    fn connected_classes(&self, solver: &FusedTruncatedSolver) -> Vec<u32> {
        (0..solver.n_classes() as u32)
            .filter(|&c| solver.class_connected(c as usize))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{pages_queries, StopwordCache};
    use crate::domain_phase::learn_domain;
    use crate::selector::subset_of_seed;
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
        let phase = EntityPhase::build(&c, aspect, &pages, &o, &candidates, &[], None, true, &cfg);
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
        let phase = EntityPhase::build(&c, aspect, &pages, &o, &candidates, &[], None, true, &cfg);
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
            &candidates,
            &[],
            Some(&dm),
            true,
            &cfg,
        );
        let without =
            EntityPhase::build(&c, aspect, &pages, &o, &candidates, &[], None, true, &cfg);
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
        let phase = EntityPhase::build(&c, aspect, &pages, &o, &candidates, &[], None, true, &cfg);
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
        let phase = EntityPhase::build(&c, aspect, &pages, &o, &candidates, &[], None, false, &cfg);
        let (_, _, nt, _) = phase.shape();
        assert_eq!(nt, 0);
        assert!(phase.precision().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_pages_is_safe() {
        let (c, o) = setup();
        let cfg = L2qConfig::default();
        let aspect = c.aspect_by_name("RESEARCH").unwrap();
        let phase = EntityPhase::build(&c, aspect, &[], &o, &[], &[], None, true, &cfg);
        assert!(phase.precision().is_empty());
        assert!(phase.recall().is_empty());
    }

    /// Growing the page set step by step through one persistent state must
    /// reproduce the cold build bit for bit: same pool, shape, edges and
    /// solved utilities (graph assembly replays the cold insertion order).
    /// Without a domain, and with one while a query fires every step
    /// (alternately the pool's first and last candidate), so the carried
    /// pool loses fired queries from both its page and domain parts.
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
        let domain_entities: Vec<EntityId> = c.entity_ids().take(4).collect();
        let dm = learn_domain(&c, &domain_entities, &o, &cfg);

        for domain in [None, Some(&dm)] {
            let mut fired = vec![Query::new(c.seed_query(EntityId(6)))];
            let mut state = EntityPhaseState::new();
            for (i, k) in [2usize, 4, 5, all_pages.len().min(8)]
                .into_iter()
                .enumerate()
            {
                let pages = &all_pages[..k];
                let candidates = crate::selector::page_candidates(
                    &c,
                    pages,
                    &fired,
                    &cfg,
                    &mut StopwordCache::new(),
                );
                let inc = EntityPhase::build_incremental(
                    &c,
                    aspect,
                    pages,
                    &o,
                    &candidates,
                    &fired,
                    domain,
                    true,
                    &cfg,
                    &mut state,
                );
                let cold = EntityPhase::build(
                    &c,
                    aspect,
                    pages,
                    &o,
                    &candidates,
                    &fired,
                    domain,
                    true,
                    &cfg,
                );
                let label = format!("k={k} domain={}", domain.is_some());
                assert_eq!(inc.relevant(), cold.relevant(), "{label}");
                assert_same_phase(&inc, &cold, &mut state, &label);
                let pick = if i % 2 == 0 {
                    cold.candidates().first()
                } else {
                    cold.candidates().last()
                };
                fired.push((*pick.expect("non-empty pool")).clone());
            }
            // A reset restarts the count: the table was carried every step.
            assert_eq!(state.generation(), 4);
            assert!(state.cached_queries() > 0);
        }
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
                &candidates,
                &[],
                None,
                true,
                &cfg,
                &mut state,
            );
            let warm_p = inc.precision_with(Some(&mut state));
            let warm_r = inc.recall_with(Some(&mut state));
            let cold =
                EntityPhase::build(&c, aspect, pages, &o, &candidates, &[], None, true, &cfg);
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
                &candidates,
                &[],
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
                &candidates,
                &[],
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
            &candidates_for(&c, first, &cfg),
            &[],
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
            &candidates,
            &[],
            None,
            true,
            &cfg,
            &mut state,
        );
        assert!(phase_metrics().rebuilds.get() > rebuilds_before);
        assert_eq!(state.generation(), 1, "reset state restarts generations");
        let cold = EntityPhase::build(
            &c,
            aspect,
            &reversed,
            &o,
            &candidates,
            &[],
            None,
            true,
            &cfg,
        );
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
            &candidates,
            &[],
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
            &candidates,
            &[],
            None,
            true,
            &cfg,
            &mut state,
        );
        let cold = EntityPhase::build(&c, contact, &pages, &o, &candidates, &[], None, true, &cfg);
        assert_eq!(inc.precision(), cold.precision());
        assert_eq!(inc.relevant(), cold.relevant());
    }

    /// Two builds agree bit for bit: pool, graph, templates, classes and
    /// every walk. `state` threads the incremental build's fixpoints, so
    /// a table wrongly carried over would also show in its warm starts.
    fn assert_same_phase(
        inc: &EntityPhase<'_>,
        cold: &EntityPhase<'_>,
        state: &mut EntityPhaseState,
        label: &str,
    ) {
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(inc.candidates(), cold.candidates(), "{label}: pool");
        assert_eq!(inc.shape(), cold.shape(), "{label}: shape");
        assert_eq!(inc.templates(), cold.templates(), "{label}: templates");
        assert_eq!(inc.connected(), cold.connected(), "{label}: connected");
        assert_eq!(
            certifier_classes(inc),
            certifier_classes(cold),
            "{label}: classes"
        );
        assert_eq!(
            bits(inc.precision_with(Some(state))),
            bits(cold.precision()),
            "{label}: precision"
        );
        let (a, _) = inc.context_walks_certified(Some(state), |_| false);
        let (b, _) = cold.context_walks_certified(None, |_| false);
        assert_eq!(bits(a.recall), bits(b.recall), "{label}: recall");
        assert_eq!(
            bits(a.recall_gathered),
            bits(b.recall_gathered),
            "{label}: recall_gathered"
        );
        assert_eq!(
            bits(a.recall_all),
            bits(b.recall_all),
            "{label}: recall_all"
        );
    }

    /// The per-session table must not outlive its inputs. One state fed
    /// domain A, then domain B, then no domain, then another λ — and,
    /// from a carried build on domain B, each input changed alone:
    /// another domain, no domain, another λ, another seed, and another
    /// fired query with the same page candidates (a fired list that does
    /// not extend the last one). Every build must equal a cold build on
    /// the new inputs, bit for bit, and be a rebuild.
    #[test]
    fn table_memo_cannot_outlive_its_inputs() {
        let (c, o) = setup();
        let cfg = L2qConfig::default();
        let other_lambda = cfg.with_lambda(2.5);
        let aspect = c.aspect_by_name("RESEARCH").unwrap();
        let entities: Vec<EntityId> = c.entity_ids().collect();
        let dm_a = learn_domain(&c, &entities[..4], &o, &cfg);
        let dm_b = learn_domain(&c, &entities[2..6], &o, &cfg);
        let entity = EntityId(6);
        let all_pages: Vec<PageId> = c.pages_of(entity).iter().map(|p| p.id).collect();
        let seed = Query::new(c.seed_query(entity));
        let other_seed = Query::new(c.seed_query(EntityId(7)));
        // Two pooled domain queries no page of the first five lists.
        let listed = crate::selector::page_candidates(
            &c,
            &all_pages[..5],
            std::slice::from_ref(&seed),
            &cfg,
            &mut StopwordCache::new(),
        );
        let unlisted: Vec<&Query> = dm_b
            .frequent_queries()
            .filter(|q| !listed.contains(q) && !subset_of_seed(q, &seed, &c))
            .take(2)
            .collect();
        assert_eq!(unlisted.len(), 2, "domain B pools two unlisted queries");
        let fired_one = vec![seed.clone(), unlisted[0].clone()];
        let fired_other = vec![seed.clone(), unlisted[1].clone()];
        let just_seed = vec![seed.clone()];
        let just_other_seed = vec![other_seed];
        let base = ("domain B", Some(&dm_b), &cfg, &just_seed);
        let sequences = [
            vec![
                ("domain A", Some(&dm_a), &cfg, &just_seed),
                base,
                ("no domain", None, &cfg, &just_seed),
                ("other lambda", None, &other_lambda, &just_seed),
            ],
            vec![base, ("domain A", Some(&dm_a), &cfg, &just_seed)],
            vec![base, ("no domain", None, &cfg, &just_seed)],
            vec![
                base,
                ("other lambda", Some(&dm_b), &other_lambda, &just_seed),
            ],
            vec![base, ("other seed", Some(&dm_b), &cfg, &just_other_seed)],
            vec![
                ("one fired", Some(&dm_b), &cfg, &fired_one),
                ("another fired", Some(&dm_b), &cfg, &fired_other),
            ],
        ];
        for sequence in sequences {
            let mut state = EntityPhaseState::new();
            for (k, (label, domain, cfg, fired)) in sequence.into_iter().enumerate() {
                // The page list keeps growing, so only the changed input
                // can stop the table from being carried over.
                let pages = &all_pages[..4 + k];
                let candidates = crate::selector::page_candidates(
                    &c,
                    pages,
                    fired,
                    cfg,
                    &mut StopwordCache::new(),
                );
                let inc = EntityPhase::build_incremental(
                    &c,
                    aspect,
                    pages,
                    &o,
                    &candidates,
                    fired,
                    domain,
                    true,
                    cfg,
                    &mut state,
                );
                let cold = EntityPhase::build(
                    &c,
                    aspect,
                    pages,
                    &o,
                    &candidates,
                    fired,
                    domain,
                    true,
                    cfg,
                );
                assert_same_phase(&inc, &cold, &mut state, label);
                assert_eq!(state.generation(), 1, "{label}: table carried over");
            }
        }
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
                &candidates_for(&c, pages, &cfg),
                &[],
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
        let phase = EntityPhase::build(&c, aspect, &pages, &o, &candidates, &[], None, true, &cfg);
        let full = ContextWalks {
            recall: phase.recall(),
            recall_gathered: phase.recall_gathered(),
            recall_all: phase.recall_all(),
        };

        let mut probes = 0usize;
        let (walks, early) = phase.context_walks_certified(None, |p| {
            probes += 1;
            let tails = p.tails();
            assert!(tails.iter().all(|t| *t >= 0.0));
            assert!(!p.classes().is_empty());
            for &c in p.classes() {
                let (scores, bounds) = (p.scores(c), p.bounds(c));
                for (w, (&s, &ub)) in scores.iter().zip(&bounds).enumerate() {
                    assert!(ub >= 0.0 && s <= ub + tails[w]);
                    assert!(
                        p.qtail(w, c) >= 0.0 && p.qtail(w, c) <= tails[w],
                        "per-class tail must refine the block tail"
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
            phase.context_walks_certified(None, |p| p.tails().iter().all(|t| *t <= 1e-6));
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

    /// The classes the certifier races on `phase`'s context solve, as
    /// ascending member lists in class order.
    fn certifier_classes(phase: &EntityPhase<'_>) -> Vec<Vec<usize>> {
        let (solver, _) = phase.context_solver();
        let mut members = vec![Vec::new(); solver.n_classes()];
        for (q, &c) in solver.class_of().iter().enumerate() {
            members[c as usize].push(q);
        }
        phase
            .connected_classes(&solver)
            .into_iter()
            .map(|c| std::mem::take(&mut members[c as usize]))
            .collect()
    }

    /// The O(n²) reference partition of the connected candidates: equal
    /// page and template neighbour ids and coefficient bits in edge
    /// order, and equal start bits in all three context walks, in order
    /// of each class's first member.
    fn brute_force_classes(phase: &EntityPhase<'_>) -> Vec<Vec<usize>> {
        let g = &phase.graph;
        let starts: Vec<Vec<f64>> = CONTEXT_WALKS
            .iter()
            .map(|&w| {
                let reg = phase.reg_for(w).1;
                phase
                    .warm_vector(w, &reg)
                    .map_or(reg.queries, |u| u.queries)
            })
            .collect();
        let side = |edges: &[l2q_graph::Edge], nrm: &[f64]| -> Vec<(u32, u64)> {
            edges
                .iter()
                .zip(nrm)
                .map(|(e, c)| (e.to, c.to_bits()))
                .collect()
        };
        let key = |q: usize| {
            (
                side(g.query_pages(q), g.query_pages_nrm(q)),
                side(g.query_templates(q), g.query_templates_nrm(q)),
                starts.iter().map(|s| s[q].to_bits()).collect::<Vec<_>>(),
            )
        };
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for q in (0..phase.candidates().len()).filter(|&q| phase.is_connected(q)) {
            match classes.iter_mut().find(|c| key(c[0]) == key(q)) {
                Some(c) => c.push(q),
                None => classes.push(vec![q]),
            }
        }
        classes
    }

    /// The certifier's classes group only provably identical candidates:
    /// they equal the brute-force partition, the solved walk scores
    /// inside one class are bitwise equal, and every connected candidate
    /// appears in exactly one class. Checked on a cold phase, on a
    /// warm-started one, and on one whose warm starts split every
    /// structural class with several members.
    #[test]
    fn certifier_classes_partition_connected_candidates_into_equal_scores() {
        let (c, o) = setup();
        let cfg = L2qConfig::default();
        let aspect = c.aspect_by_name("RESEARCH").unwrap();
        let (pages, candidates) = phase_for(&c, &o, &cfg, None);
        let cold = EntityPhase::build(&c, aspect, &pages, &o, &candidates, &[], None, true, &cfg);

        let all_pages: Vec<PageId> = c.pages_of(EntityId(6)).iter().map(|p| p.id).collect();
        let mut state = EntityPhaseState::new();
        let first = candidates_for(&c, &all_pages[..4], &cfg);
        EntityPhase::build_incremental(
            &c,
            aspect,
            &all_pages[..4],
            &o,
            &first,
            &[],
            None,
            true,
            &cfg,
            &mut state,
        )
        .context_walks_certified(Some(&mut state), |_| false);
        let second = candidates_for(&c, &all_pages[..6], &cfg);
        let warm = EntityPhase::build_incremental(
            &c,
            aspect,
            &all_pages[..6],
            &o,
            &second,
            &[],
            None,
            true,
            &cfg,
            &mut state,
        );
        assert!(
            warm.warm.iter().any(Option::is_some),
            "second build starts warm"
        );
        // Warm starts that move the first member of every structural
        // class with several members: each such class must split.
        let structural = certifier_classes(&cold);
        let mut moved = vec![None; cold.candidates().len()];
        for g in structural.iter().filter(|g| g.len() > 1) {
            moved[g[0]] = Some(0.5);
        }
        let mut split =
            EntityPhase::build(&c, aspect, &pages, &o, &candidates, &[], None, true, &cfg);
        for w in CONTEXT_WALKS {
            split.warm[w as usize] = Some(WarmInit {
                pages: Vec::new(),
                queries: moved.clone(),
                templates: Vec::new(),
            });
        }
        let n_split = structural.iter().filter(|g| g.len() > 1).count();
        assert_eq!(certifier_classes(&split).len(), structural.len() + n_split);

        for (label, phase) in [("cold", &cold), ("warm", &warm), ("split", &split)] {
            let groups = certifier_classes(phase);
            assert_eq!(groups, brute_force_classes(phase), "{label}");
            assert!(
                groups.iter().any(|g| g.len() > 1),
                "{label}: no class has several members"
            );
            let connected = phase.connected();
            let n_connected = connected.iter().filter(|&&x| x).count();
            assert_eq!(groups.iter().map(|g| g.len()).sum::<usize>(), n_connected);
            let mut seen = std::collections::HashSet::new();
            for g in &groups {
                for &q in g {
                    assert!(connected[q]);
                    assert!(seen.insert(q), "{label}: candidate {q} in two classes");
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
}
