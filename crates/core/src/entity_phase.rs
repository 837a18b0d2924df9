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
//! ## The candidate table
//!
//! A harvest step adds at most top-k new pages and a few dozen new
//! candidates and fires one query, yet a from-scratch phase re-derives
//! the pool QE, containment-tests every (candidate, page) pair and
//! enumerates and looks up every template on every step. An
//! [`EntityPhaseState`] carried across a session's steps is a
//! per-session candidate table instead. Each distinct candidate gets one
//! slot the first time it enters the pool — the index rows of its
//! distinct words, its ascending page-containment list and its interned
//! template ids — and each distinct template one slot holding its
//! λ-scaled domain regularization, looked up once. The pool is carried
//! too. Its page part follows the harvester's live candidate list, which
//! only drops fired queries and appends new ones, so a merge keeps every
//! surviving slot. Its domain part (the frequent domain queries that are
//! not fired, not seed subsets and not page candidates) only ever loses
//! the query that fires and the queries a new page enumerates.
//!
//! Containment is page-major. The table keeps a word → page-bitset
//! index over its pages (one bit per page, 64 pages to a block), which a
//! page's words extend once, when it joins. A slot's containment over
//! the pages it has not tested yet is the AND of its distinct words'
//! bitsets; only a candidate with a repeated word also compares counts
//! on the page's bag. A step therefore tests only new pages × all
//! candidates and new candidates × all pages, each as a few word-wide
//! ANDs, hashes only new candidates, templates and page words, and
//! otherwise makes plain array passes — and a full build (the first step
//! of a session, a restore or a migration) costs a pass over the page
//! words plus one AND per candidate word and 64 pages, not a bag test
//! per (candidate, page) pair.
//!
//! Each step assembles its graph and its certified context solve from
//! the table in one pass over the pool:
//!
//! * **Rows.** Each slot's page list and template ids (renumbered in
//!   first-occurrence order over the pool) are the graph's query rows;
//!   they move into [`ReinforcementGraph::from_unit_rows`], which
//!   transposes them once. Rows in pool order and pages ascending are
//!   the cold build's edge order, so solver float summation — and
//!   therefore every utility — is bit-identical to a from-scratch
//!   [`EntityPhase::build`].
//! * **Classes.** Each slot carries a structure id naming its (template
//!   list, page list) pair: a node of a trie over template ids, then
//!   pages, so it advances only when a new page joins the slot's list.
//!   Two candidates with one structure have the same neighbours (and,
//!   every edge weighing 1, the same coefficients), so the context
//!   solve's query classes (see [`l2q_graph::QueryClasses`]) are the
//!   pool partitioned by structure id and start bits in the three walks.
//!   No walk regularizes a query, so that is the solver's whole
//!   signature; debug builds check the partition against the canonical
//!   one.
//! * **Starts.** Each slot, template slot and page keeps its last
//!   iterate per walk, written back per slot after every solve. A build
//!   gathers the iterates of the vertices the previous build had; a walk
//!   solved on that build lays them over its regularization, so every
//!   other vertex starts at its regularization, exactly like a cold
//!   start. The solver converges to the same fixpoint (the update map is
//!   a contraction) in far fewer sweeps.
//!
//! The state resets itself — the build falls back to a full one — when
//! any input its table depends on changes: the aspect, the template
//! mode, whether templates are used, the domain model, λ, a fired list
//! that does not extend the previous one, a page list the cached one is
//! not a prefix of, or page candidates that changed other than by
//! dropping newly fired queries and appending. A restored session starts
//! from an empty state, so its first step is a full build.

use crate::config::L2qConfig;
use crate::domain_phase::DomainModel;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::query::Query;
use crate::selector::subset_of_seed;
use crate::template::{templates_of, Template, TemplateMode};
use l2q_aspect::RelevanceOracle;
use l2q_corpus::{AspectId, Corpus, PageId};
use l2q_graph::{
    solve_detailed, FusedSolution, FusedTruncatedSolver, Interleaved, Phase, QueryClasses,
    Regularization, ReinforcementGraph, Rows, Utilities, UtilityKind,
};
use l2q_text::{Bow, Sym};
use std::ops::Range;
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

/// The four walks the phase can run, used as iterate lane indices.
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
    use_templates: bool,
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
    /// Where the [`PageIndex`] rows of the candidate's distinct words
    /// sit in the index's slot rows.
    rows: Range<u32>,
    /// Whether a word repeats in the candidate, so that containment also
    /// compares counts on the page bag.
    repeated: bool,
    /// Ascending indices (into the state's page list) of pages whose bag
    /// contains this candidate.
    pages: Vec<u32>,
    /// How many of the state's pages have been containment-tested (a
    /// prefix).
    tested: usize,
    /// Interned template ids (into `EntityPhaseState::templates`),
    /// enumerated the first time the candidate's templates are needed.
    templates: Option<Box<[u32]>>,
    /// Structure id of (`templates`, `pages`): two slots share one
    /// exactly when both lists are equal.
    structure: u32,
    /// The last build that pooled this slot.
    build: u64,
    /// Last iterate per walk; lane `w` is from build
    /// `EntityPhaseState::solved[w]` if this slot was part of it.
    iterate: [f64; N_WALKS],
}

impl Slot {
    /// Append each page from `tested` on whose bag holds the candidate,
    /// ascending, and mark every indexed page tested. `bag` gives a
    /// page's bag; it is read only when a word repeats in the candidate.
    fn test_pages<'b>(&mut self, index: &PageIndex, bag: impl Fn(usize) -> &'b Bow) {
        index.containing(self.rows.clone(), self.tested, |p| {
            if !self.repeated || holds_counts(bag(p), self.query.words()) {
                self.pages.push(p as u32);
            }
        });
        self.tested = index.pages;
    }
}

/// One distinct template of a session.
#[derive(Debug)]
struct TemplateSlot {
    /// [`template_reg`] of the template.
    reg: [f64; 3],
    /// Vertex index in build `build`.
    vertex: u32,
    build: u64,
    /// Last iterate per walk (same rule as `Slot::iterate`).
    iterate: [f64; N_WALKS],
}

/// Structure-trie edge labels: template ids carry this bit, pages do not.
const TEMPLATE_LABEL: u32 = 1 << 31;

/// The child of trie node `node` along `label`, created on first sight.
/// Node 0 is the root: no template, no page.
fn child(trie: &mut FxHashMap<(u32, u32), u32>, node: u32, label: u32) -> u32 {
    let next = trie.len() as u32 + 1;
    *trie.entry((node, label)).or_insert(next)
}

/// Word → page bitset index over a table's pages. Every word a page
/// or a slot has shown gets a row, and bit `p % 64` of
/// `blocks[p / 64][row]` is set when page `p`'s bag holds the row's word.
/// Pages join by appending, so the index only ever grows.
#[derive(Debug, Default)]
struct PageIndex {
    row_of: FxHashMap<Sym, u32>,
    /// One word of bits per row for each 64 pages.
    blocks: Vec<Vec<u64>>,
    pages: usize,
    /// Every slot's rows, back to back (one allocation, not one a slot).
    slot_rows: Vec<u32>,
}

impl PageIndex {
    /// The row of `w`, created without pages on first sight.
    fn row(&mut self, w: Sym) -> usize {
        let next = self.row_of.len() as u32;
        let row = *self.row_of.entry(w).or_insert(next);
        if row == next {
            for block in &mut self.blocks {
                block.push(0);
            }
        }
        row as usize
    }

    /// Append the rows of the distinct words of `words` (sorted) to the
    /// slot rows, returning where they sit.
    fn rows(&mut self, words: &[Sym]) -> Range<u32> {
        let start = self.slot_rows.len() as u32;
        for (i, &w) in words.iter().enumerate() {
            if i == 0 || words[i - 1] != w {
                let row = self.row(w) as u32;
                self.slot_rows.push(row);
            }
        }
        start..self.slot_rows.len() as u32
    }

    /// Append a page with bag `bag`.
    fn push(&mut self, bag: &Bow) {
        let (block, bit) = (self.pages / 64, 1u64 << (self.pages % 64));
        if block == self.blocks.len() {
            self.blocks.push(vec![0; self.row_of.len()]);
        }
        for (w, _) in bag.iter() {
            let row = self.row(w);
            self.blocks[block][row] |= bit;
        }
        self.pages += 1;
    }

    /// Hand `found` each page from `from` on, ascending, whose bag holds
    /// the word of every row in the slot rows `rows`: the AND of the
    /// rows' bitsets.
    fn containing(&self, rows: Range<u32>, from: usize, mut found: impl FnMut(usize)) {
        let rows = &self.slot_rows[rows.start as usize..rows.end as usize];
        for b in from / 64..self.blocks.len() {
            let block = &self.blocks[b];
            let mut bits = !0u64 << (from.max(64 * b) - 64 * b);
            if self.pages - 64 * b < 64 {
                bits &= (1u64 << (self.pages - 64 * b)) - 1;
            }
            for &row in rows {
                bits &= block[row as usize];
            }
            while bits != 0 {
                found(64 * b + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// Whether `bag` holds each word of `words` (sorted) at least as often
/// as `words` repeats it.
fn holds_counts(bag: &Bow, words: &[Sym]) -> bool {
    words
        .chunk_by(|a, b| a == b)
        .all(|run| bag.tf(run[0]) as usize >= run.len())
}

/// Persistent cross-step cache for [`EntityPhase::build_incremental`]:
/// the session's candidate table, with each vertex's last iterates (see
/// the module docs).
///
/// Owned by the session's [`crate::L2qSelector`]; a default/empty state
/// is always valid and simply makes the first build a full one.
#[derive(Debug, Default)]
pub struct EntityPhaseState {
    key: Option<TableKey>,
    /// Fired queries of the last build; the next build's must extend them.
    fired: Vec<Query>,
    /// Pages diffed so far — must stay a prefix of each step's page list.
    pages: Vec<PageId>,
    relevant: Vec<bool>,
    /// The words of `pages`, as bitsets.
    index: PageIndex,
    /// Last iterate per walk of each page (same rule as `Slot::iterate`).
    page_iterate: Vec<[f64; N_WALKS]>,
    slots: Vec<Slot>,
    slot_of: FxHashMap<Query, u32>,
    templates: Vec<TemplateSlot>,
    template_of: FxHashMap<Template, u32>,
    /// The structure trie: `(node, label) → child`.
    structures: FxHashMap<(u32, u32), u32>,
    /// Slots of the last build's page candidates, in order.
    page_part: Vec<u32>,
    /// The last build's domain part: `(slot, index into the domain's
    /// frequent queries)`, in frequency order.
    domain_part: Vec<(u32, u32)>,
    /// The build each walk was last solved on (0 = never).
    solved: [u64; N_WALKS],
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
            rows: self.index.rows(q.words()),
            repeated: q.words().windows(2).any(|w| w[0] == w[1]),
            pages: Vec::new(),
            tested: 0,
            templates: None,
            structure: 0,
            build: 0,
            iterate: [0.0; N_WALKS],
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
        assert!(
            i < TEMPLATE_LABEL,
            "template ids overflow the structure trie"
        );
        self.templates.push(TemplateSlot {
            reg: template_reg(&t, aspect, domain, lambda),
            vertex: 0,
            build: 0,
            iterate: [0.0; N_WALKS],
        });
        self.template_of.insert(t, i);
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

/// Where an incremental build's vertices live in its table.
struct TableLink {
    /// The build's generation: results are written back only to the
    /// table in that same build.
    generation: u64,
    /// The slot of each query vertex.
    slots: Vec<u32>,
    /// The template slot of each template vertex.
    templates: Vec<u32>,
    /// The structure id of each query vertex.
    structure: Vec<u32>,
}

/// Each vertex's previous iterate in every walk, where the vertex was
/// part of the previous build (`None` elsewhere).
struct Starts {
    pages: Vec<Option<[f64; N_WALKS]>>,
    queries: Vec<Option<[f64; N_WALKS]>>,
    templates: Vec<Option<[f64; N_WALKS]>>,
}

/// A frozen entity graph ready to solve.
pub struct EntityPhase<'a> {
    cfg: &'a L2qConfig,
    aspect: AspectId,
    pages: Vec<PageId>,
    relevant: Vec<bool>,
    candidates: Vec<&'a Query>,
    graph: ReinforcementGraph,
    /// λ·P_D(t), λ·R_D(t) and λ·R*_D(t) per template (0 where the domain
    /// has no utility). The last one is domain knowledge for the
    /// Y*-walk, so the collective-precision denominator is estimated
    /// with the same machinery as its numerator.
    template_reg: [Vec<f64>; 3],
    /// The table an incremental build came from.
    table: Option<TableLink>,
    /// Which walks start warm (from the previous build's iterates).
    warm: [bool; N_WALKS],
    /// Gathered when some walk starts warm. A walk that does starts each
    /// carried vertex at its iterate and every other vertex at its
    /// regularization, exactly like a cold start.
    starts: Option<Starts>,
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
        // Lean one-shot assembly: no table, no warm starts — but the same
        // rows as the incremental path (candidates in pool order, each
        // candidate's pages ascending, templates in first-occurrence
        // order), so the two builds are bit-identical.
        // `incremental_build_matches_cold_build_bitwise` holds the paths
        // together.
        let candidates = candidate_pool(corpus, page_candidates, fired, domain);
        let relevant: Vec<bool> = pages
            .iter()
            .map(|&p| oracle.is_relevant(aspect, p))
            .collect();
        let bows: Vec<&Bow> = pages.iter().map(|&p| corpus.page(p).bow()).collect();

        let mut templates: Vec<Template> = Vec::new();
        let mut template_index: FxHashMap<Template, u32> = FxHashMap::default();
        let mut qp = Rows::with_capacity(candidates.len(), 0);
        let mut qt = Rows::with_capacity(candidates.len(), candidates.len());
        for q in &candidates {
            let qbow = Bow::from_words(q.words());
            for (pi, bow) in bows.iter().enumerate() {
                if bow.contains_all(&qbow) {
                    qp.to.push(pi as u32);
                }
            }
            qp.end_row();
            if use_templates {
                for t in templates_of(q, corpus, cfg.template_mode) {
                    let ti = *template_index.entry(t.clone()).or_insert_with(|| {
                        templates.push(t);
                        (templates.len() - 1) as u32
                    });
                    qt.to.push(ti);
                }
            }
            qt.end_row();
        }
        let graph = ReinforcementGraph::from_unit_rows(pages.len(), templates.len(), qp, qt);
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
            graph,
            template_reg: std::array::from_fn(|w| regs.iter().map(|r| r[w]).collect()),
            table: None,
            warm: [false; N_WALKS],
            starts: None,
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
    /// mode, template use, domain or λ; a page or fired list the cached
    /// one is not a prefix of; page candidates that changed other than by
    /// dropping newly fired queries and appending) is reset and the build
    /// falls back to a full one, counted by `entity_phase_rebuilds_total`.
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
            use_templates,
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
        // this step's new pages; the previous build had the old prefix.
        let prev_pages = state.pages.len();
        for &p in &pages[prev_pages..] {
            state.relevant.push(oracle.is_relevant(aspect, p));
            state.index.push(corpus.page(p).bow());
            state.pages.push(p);
        }
        let n_pages = pages.len();
        assert!(
            n_pages < TEMPLATE_LABEL as usize,
            "page count overflows the structure trie"
        );

        let prev_gen = state.generation;
        let gen = prev_gen + 1;
        // A walk starts warm when it was solved on the previous build (so
        // `prev_gen > 0`, and a vertex that build had carries it).
        let warm: [bool; N_WALKS] =
            std::array::from_fn(|w| prev_gen > 0 && state.solved[w] == prev_gen);
        let warming = warm.contains(&true);

        // Pool, page part: the carried slots, then the appended page
        // candidates (looked up, or new slots). Each pooled slot is
        // marked with this build; a warm build first takes the previous
        // iterates of the slots the previous build pooled.
        for q in &page_candidates[page_part.len()..] {
            let s = state.slot(q);
            page_part.push(s);
        }
        let mut pool: Vec<u32> = Vec::with_capacity(page_part.len() + state.domain_part.len());
        let mut query_starts: Vec<Option<[f64; N_WALKS]>> = Vec::new();
        let mut enter = |slot: &mut Slot, pool: &mut Vec<u32>, s: u32| {
            if warming {
                query_starts.push((slot.build == prev_gen).then_some(slot.iterate));
            }
            slot.build = gen;
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
                    if state.slots[s as usize].build != gen {
                        enter(&mut state.slots[s as usize], &mut pool, s);
                        domain_part.push((s, k as u32));
                    }
                }
            } else {
                domain_part.retain(|&(s, _)| {
                    let slot = &state.slots[s as usize];
                    slot.build != gen && !newly_fired.contains(&slot.query)
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

        // One pass over the pool: intern the templates of candidates that
        // have none yet, containment-test the untested (candidate, page)
        // pairs, advance each structure id along its new pages, and emit
        // the slot's rows — pages ascending, template vertices numbered in
        // first-occurrence order over the pool. A full build inserts
        // about one trie node per candidate (0.3–2.2, 1.2 on average, over
        // the restored builds of a 24 × 50-page researchers family), so it
        // reserves that many instead of growing the trie from empty.
        if prev_gen == 0 {
            state.structures.reserve(pool.len());
        }
        let mut qp = Rows::with_capacity(pool.len(), 4 * pool.len());
        let mut qt = Rows::with_capacity(pool.len(), pool.len());
        let mut structure: Vec<u32> = Vec::with_capacity(pool.len());
        let mut build_templates: Vec<u32> = Vec::new();
        let mut template_starts: Vec<Option<[f64; N_WALKS]>> = Vec::new();
        for &s in &pool {
            if use_templates && state.slots[s as usize].templates.is_none() {
                let ts = templates_of(&state.slots[s as usize].query, corpus, cfg.template_mode);
                let ids: Box<[u32]> = ts
                    .into_iter()
                    .map(|t| state.template(t, aspect, domain, cfg.lambda))
                    .collect();
                let slot = &mut state.slots[s as usize];
                let labels = ids
                    .iter()
                    .map(|&t| TEMPLATE_LABEL | t)
                    .chain(slot.pages.iter().copied());
                slot.structure = labels.fold(0, |n, l| child(&mut state.structures, n, l));
                slot.templates = Some(ids);
            }
            let slot = &mut state.slots[s as usize];
            let known = slot.pages.len();
            slot.test_pages(&state.index, |p| corpus.page(pages[p]).bow());
            for &p in &slot.pages[known..] {
                slot.structure = child(&mut state.structures, slot.structure, p);
            }
            qp.to.extend_from_slice(&slot.pages);
            qp.end_row();
            structure.push(slot.structure);
            for &t in slot.templates.as_deref().unwrap_or_default() {
                let ts = &mut state.templates[t as usize];
                if ts.build != gen {
                    if warming {
                        template_starts.push((ts.build == prev_gen).then_some(ts.iterate));
                    }
                    ts.vertex = build_templates.len() as u32;
                    ts.build = gen;
                    build_templates.push(t);
                }
                qt.to.push(ts.vertex);
            }
            qt.end_row();
        }
        let graph = ReinforcementGraph::from_unit_rows(n_pages, build_templates.len(), qp, qt);
        let template_reg = std::array::from_fn(|w| {
            build_templates
                .iter()
                .map(|&t| state.templates[t as usize].reg[w])
                .collect()
        });
        let starts = warming.then(|| Starts {
            pages: (0..n_pages)
                .map(|p| (p < prev_pages).then(|| state.page_iterate[p]))
                .collect(),
            queries: query_starts,
            templates: template_starts,
        });
        state.page_part = page_part;
        state.domain_part = domain_part;
        state.generation = gen;

        Self {
            cfg,
            aspect,
            pages: pages.to_vec(),
            relevant: state.relevant.clone(),
            candidates,
            graph,
            template_reg,
            table: Some(TableLink {
                generation: gen,
                slots: pool,
                templates: build_templates,
                structure,
            }),
            warm,
            starts,
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
        !self.graph.query_pages(q).is_empty() || !self.graph.query_templates(q).is_empty()
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

    /// A vertex's start in `walk`: its gathered iterate when it was
    /// carried and the walk starts warm, else its regularization `reg`.
    fn start(&self, walk: Walk, carried: &Option<[f64; N_WALKS]>, reg: f64) -> f64 {
        match carried {
            Some(x) if self.warm[walk as usize] => x[walk as usize],
            _ => reg,
        }
    }

    /// A walk's warm start over its regularization `reg`, when it starts
    /// warm.
    fn warm_vector(&self, walk: Walk, reg: &Regularization) -> Option<Utilities> {
        let s = self.starts.as_ref().filter(|_| self.warm[walk as usize])?;
        let lay = |reg: &[f64], carried: &[Option<[f64; N_WALKS]>]| {
            (reg.iter().zip(carried))
                .map(|(&r, c)| self.start(walk, c, r))
                .collect()
        };
        Some(Utilities {
            pages: lay(&reg.pages, &s.pages),
            queries: lay(&reg.queries, &s.queries),
            templates: lay(&reg.templates, &s.templates),
        })
    }

    /// Run one walk to its fixpoint, warm-started when the phase has a
    /// start for it. Returns `(fixpoint, sweeps, warm_started)`.
    fn run_walk(&self, walk: Walk) -> (Utilities, usize, bool) {
        let (kind, reg) = self.reg_for(walk);
        let warm = self.warm_vector(walk, &reg);
        let warmed = warm.is_some();
        let (u, sweeps) =
            solve_detailed(&self.graph, kind, &reg, &self.cfg.walk, warm, Phase::Entity);
        (u, sweeps, warmed)
    }

    /// Record a walk's sweeps against this session's cold baseline.
    fn note_sweeps(state: &mut EntityPhaseState, walk: Walk, sweeps: usize, warmed: bool) {
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
    }

    /// Write a solve's iterates of `walks` back to the table this phase
    /// was built from, per page, slot and template slot, for the next
    /// build's warm starts. `page`, `query` and `template` give each
    /// vertex's iterates in `walks` order. Nothing is kept for a cold
    /// build, or once the table has moved on since this build.
    fn remember<const K: usize>(
        &self,
        state: &mut EntityPhaseState,
        walks: [Walk; K],
        page: impl Fn(usize) -> [f64; K],
        query: impl Fn(usize) -> [f64; K],
        template: impl Fn(usize) -> [f64; K],
    ) {
        let Some(table) = self
            .table
            .as_ref()
            .filter(|t| t.generation == state.generation)
        else {
            return;
        };
        let store = |dst: &mut [f64; N_WALKS], v: [f64; K]| {
            for (w, x) in walks.iter().zip(v) {
                dst[*w as usize] = x;
            }
        };
        state.page_iterate.resize(self.pages.len(), [0.0; N_WALKS]);
        for (p, dst) in state.page_iterate.iter_mut().enumerate() {
            store(dst, page(p));
        }
        for (q, &s) in table.slots.iter().enumerate() {
            store(&mut state.slots[s as usize].iterate, query(q));
        }
        for (t, &s) in table.templates.iter().enumerate() {
            store(&mut state.templates[s as usize].iterate, template(t));
        }
        for w in walks {
            state.solved[w as usize] = table.generation;
        }
    }

    /// Run one walk, optionally threading the cross-step state.
    fn walk_with(&self, walk: Walk, state: Option<&mut EntityPhaseState>) -> Vec<f64> {
        let (u, sweeps, warmed) = self.run_walk(walk);
        if let Some(st) = state {
            Self::note_sweeps(st, walk, sweeps, warmed);
            self.remember(
                st,
                [walk],
                |p| [u.pages[p]],
                |q| [u.queries[q]],
                |t| [u.templates[t]],
            );
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
        certified: impl FnMut(&ContextProbe<'_>) -> bool,
    ) -> (ContextWalks, bool) {
        let (sol, early) = self.solve_context(state, certified);
        (context_walks(&sol), early)
    }

    /// [`EntityPhase::context_walks_certified`] with every page, class
    /// and template iterate of the solve.
    fn solve_context(
        &self,
        state: Option<&mut EntityPhaseState>,
        mut certified: impl FnMut(&ContextProbe<'_>) -> bool,
    ) -> (FusedSolution, bool) {
        let mut solver = self.context_solver();
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
        let sol = solver.finish();
        if let Some(st) = state {
            for (i, &w) in CONTEXT_WALKS.iter().enumerate() {
                Self::note_sweeps(st, w, sol.sweeps[i], self.warm[w as usize]);
            }
            self.remember(
                st,
                CONTEXT_WALKS,
                |p| sol.pages[p],
                |q| sol.query(q),
                |t| sol.templates[t],
            );
        }
        (sol, early)
    }

    /// The context walks' regularizations and starts, interleaved in
    /// [`CONTEXT_WALKS`] order.
    fn context_blocks(&self) -> (Interleaved, Interleaved) {
        let regs = CONTEXT_WALKS.map(|w| {
            let (kind, reg) = self.reg_for(w);
            debug_assert_eq!(kind, UtilityKind::Recall);
            reg
        });
        let reg = Interleaved::from_walks(&regs);
        let Some(s) = &self.starts else {
            return (reg.clone(), reg);
        };
        let lay = |reg: &[[f64; 3]], carried: &[Option<[f64; N_WALKS]>]| {
            (reg.iter().zip(carried))
                .map(|(r, c)| std::array::from_fn(|i| self.start(CONTEXT_WALKS[i], c, r[i])))
                .collect()
        };
        let start = Interleaved {
            pages: lay(&reg.pages, &s.pages),
            queries: lay(&reg.queries, &s.queries),
            templates: lay(&reg.templates, &s.templates),
        };
        (reg, start)
    }

    /// The fused solver of the context walks, set up from their
    /// regularizations and starts. A table's build partitions its
    /// queries by structure id and start bits; a cold build takes the
    /// canonical partition.
    fn context_solver(&self) -> FusedTruncatedSolver {
        let (reg, start) = self.context_blocks();
        let classes = match &self.table {
            Some(t) => table_classes(&t.structure, &start.queries),
            None => QueryClasses::canonical(&self.graph, &start.queries, &reg.queries),
        };
        FusedTruncatedSolver::with_classes(&self.graph, reg, start, classes, &self.cfg.walk)
    }

    /// The solver's classes of connected candidates, the field the
    /// certifier races, in class order.
    fn connected_classes(&self, solver: &FusedTruncatedSolver) -> Vec<u32> {
        (0..solver.n_classes() as u32)
            .filter(|&c| solver.class_connected(c as usize))
            .collect()
    }
}

/// The classes of a table's pool: equal structure id and equal start
/// bits in the three context walks, numbered in order of first member.
fn table_classes(structure: &[u32], start: &[[f64; 3]]) -> QueryClasses {
    let key = |q: usize| {
        let [a, b, c] = start[q].map(f64::to_bits);
        (structure[q], a, b, c)
    };
    let fingerprint = |q: usize| {
        let (s, a, b, c) = key(q);
        [a, b, c].into_iter().fold(u64::from(s), |h, x| {
            (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
        })
    };
    QueryClasses::partition(structure.len(), fingerprint, |a, b| key(a) == key(b))
}

/// The per-query walks of a finished context solve.
fn context_walks(sol: &FusedSolution) -> ContextWalks {
    let lane = |w: usize| {
        sol.query_classes
            .class_of()
            .iter()
            .map(|&c| sol.classes[c as usize][w])
            .collect()
    };
    ContextWalks {
        recall: lane(0),
        recall_gathered: lane(1),
        recall_all: lane(2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::pages_queries;
    use crate::context::CollectiveState;
    use crate::domain_phase::learn_domain;
    use crate::harvester::{HarvestState, Harvester};
    use crate::selector::{subset_of_seed, L2qSelector, QuerySelector, SelectionInput};
    use l2q_corpus::{cars_domain, generate, researchers_domain, CorpusConfig, EntityId};
    use l2q_retrieval::SearchEngine;
    use std::collections::HashMap;

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
        let page_refs: Vec<_> = pages.iter().map(|&p| corpus.page(p)).collect();
        let mut candidates =
            pages_queries(corpus, page_refs.iter().copied(), cfg.candidates.max_len);
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
        let page_refs: Vec<_> = pages.iter().map(|&p| corpus.page(p)).collect();
        pages_queries(corpus, page_refs.iter().copied(), cfg.candidates.max_len)
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A slot's containment through the page index equals multiset
        /// containment (`Bow::contains_all`) on random page bags and
        /// queries: words repeat (within a query and a page), some query
        /// words are on no page, pages join in batches as across builds,
        /// slots join before and between batches, and there are more than
        /// 64 pages, so every run crosses a bitset block.
        #[test]
        fn page_index_containment_is_bag_containment(
            bags in proptest::collection::vec(proptest::collection::vec(0u32..12, 0..10), 65..150),
            queries in proptest::collection::vec(proptest::collection::vec(0u32..14, 1..4), 2..24),
            cuts in proptest::collection::vec(0usize..150, 0..5),
        ) {
            let syms = |v: &[u32]| v.iter().map(|&w| Sym(w)).collect::<Vec<_>>();
            let bags: Vec<Bow> = bags.iter().map(|b| Bow::from_words(&syms(b))).collect();
            let queries: Vec<Query> = queries.iter().map(|q| Query::new(&syms(q))).collect();
            let mut ends: Vec<usize> = cuts.iter().map(|&c| c % (bags.len() + 1)).collect();
            ends.push(bags.len());
            ends.sort_unstable();
            let (early, late) = queries.split_at(queries.len() / 2);
            let mut state = EntityPhaseState::new();
            for q in early {
                state.slot(q);
            }
            for (batch, &end) in ends.iter().enumerate() {
                while state.index.pages < end {
                    state.index.push(&bags[state.index.pages]);
                }
                if batch == 0 {
                    for q in late {
                        state.slot(q);
                    }
                }
                for slot in &mut state.slots {
                    slot.test_pages(&state.index, |p| &bags[p]);
                    let bag = Bow::from_words(slot.query.words());
                    let want: Vec<u32> = (0..end as u32)
                        .filter(|&p| bags[p as usize].contains_all(&bag))
                        .collect();
                    proptest::prop_assert_eq!(&slot.pages, &want);
                }
            }
        }
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
        // The walks are solved without the table, so every build starts
        // cold: this test isolates the incremental *assembly*; the
        // warm-start path is covered separately (it converges to the
        // same fixpoint within tolerance, not bitwise).
        let cfg = L2qConfig::default();
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
                let candidates = crate::selector::page_candidates(&c, pages, &fired, &cfg);
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
                assert_same_phase(&c, &inc, &cold, &mut state, false, &label);
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
        )
        .context_walks_certified(Some(&mut state), |_| false);
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
        // Only the aspect changed, yet the reset table starts every walk
        // cold and still partitions canonically.
        assert_eq!(state.generation(), 1);
        assert!(inc.starts.is_none() && !inc.warm.contains(&true));
        let cold = EntityPhase::build(&c, contact, &pages, &o, &candidates, &[], None, true, &cfg);
        assert_eq!(certifier_classes(&inc), certifier_classes(&cold));
        assert_eq!(inc.precision(), cold.precision());
        assert_eq!(inc.relevant(), cold.relevant());
    }

    /// The templates of `phase`'s template vertices, in vertex order, as
    /// its table names them.
    fn table_templates(phase: &EntityPhase<'_>, state: &EntityPhaseState) -> Vec<Template> {
        let name: FxHashMap<u32, &Template> =
            state.template_of.iter().map(|(t, &i)| (i, t)).collect();
        let table = phase.table.as_ref().expect("an incremental build");
        table.templates.iter().map(|i| name[i].clone()).collect()
    }

    /// The templates of `phase`'s candidates in first-occurrence order:
    /// the template vertices of a build over that pool.
    fn vertex_templates(corpus: &Corpus, phase: &EntityPhase<'_>) -> Vec<Template> {
        let mut seen = std::collections::HashSet::new();
        phase
            .candidates()
            .iter()
            .flat_map(|q| templates_of(q, corpus, phase.cfg.template_mode))
            .filter(|t| seen.insert(t.clone()))
            .collect()
    }

    /// Two builds agree bit for bit: pool, graph, templates, classes and
    /// every walk. With `carry`, `state` threads the incremental build's
    /// fixpoints, so a table wrongly carried over would also show in its
    /// warm starts; without it the next build through `state` starts cold.
    fn assert_same_phase(
        corpus: &Corpus,
        inc: &EntityPhase<'_>,
        cold: &EntityPhase<'_>,
        state: &mut EntityPhaseState,
        carry: bool,
        label: &str,
    ) {
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(inc.candidates(), cold.candidates(), "{label}: pool");
        assert_eq!(inc.shape(), cold.shape(), "{label}: shape");
        assert_eq!(
            table_templates(inc, state),
            vertex_templates(corpus, cold),
            "{label}: templates"
        );
        assert_eq!(inc.connected(), cold.connected(), "{label}: connected");
        assert_eq!(
            certifier_classes(inc),
            certifier_classes(cold),
            "{label}: classes"
        );
        assert_eq!(
            bits(inc.precision_with(carry.then_some(&mut *state))),
            bits(cold.precision()),
            "{label}: precision"
        );
        let (a, _) = inc.context_walks_certified(carry.then_some(state), |_| false);
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
                let candidates = crate::selector::page_candidates(&c, pages, fired, cfg);
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
                assert_same_phase(&c, &inc, &cold, &mut state, true, label);
                assert_eq!(state.generation(), 1, "{label}: table carried over");
            }
        }
    }

    /// Reuse/rebuild counters move as documented.
    #[test]
    fn phase_metrics_count_reuses_and_rebuilds() {
        let (c, o) = setup();
        let cfg = L2qConfig::default();
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
        let solver = phase.context_solver();
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
    /// page and template neighbour ids in edge order, and equal start
    /// bits in all three context walks, in order of each class's first
    /// member.
    fn brute_force_classes(phase: &EntityPhase<'_>) -> Vec<Vec<usize>> {
        let g = &phase.graph;
        let starts: Vec<Vec<f64>> = CONTEXT_WALKS
            .iter()
            .map(|&w| {
                let (_, reg) = phase.reg_for(w);
                phase
                    .warm_vector(w, &reg)
                    .map_or(reg.queries, |u| u.queries)
            })
            .collect();
        let key = |q: usize| {
            (
                g.query_pages(q),
                g.query_templates(q),
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
        assert!(warm.warm.contains(&true), "second build starts warm");
        // Warm starts that move the first member of every structural
        // class with several members: each such class must split.
        let structural = certifier_classes(&cold);
        let mut moved = vec![None; cold.candidates().len()];
        for g in structural.iter().filter(|g| g.len() > 1) {
            moved[g[0]] = Some([0.5; N_WALKS]);
        }
        let mut split =
            EntityPhase::build(&c, aspect, &pages, &o, &candidates, &[], None, true, &cfg);
        let (n_pages, _, n_templates, _) = split.shape();
        split.starts = Some(Starts {
            pages: vec![None; n_pages],
            queries: moved,
            templates: vec![None; n_templates],
        });
        split.warm = [true; N_WALKS];
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

    /// A solve's context-walk fixpoints, by page, query and template.
    struct Fixpoints {
        pages: HashMap<PageId, [f64; 3]>,
        queries: HashMap<Query, [f64; 3]>,
        templates: HashMap<Template, [f64; 3]>,
    }

    /// Wraps an L2Q selector. Before each selection it drives a table of
    /// its own through the selection's inputs: it builds, checks the
    /// build's classes against the canonical partition and its starts
    /// against the previous solve's fixpoints, then solves with a
    /// certified early exit and keeps the fixpoints by identity. The
    /// table outlives `reset`, so the next harvest's first build resets
    /// it (another aspect, entity or seed).
    struct TableChecked {
        inner: L2qSelector,
        label: String,
        table: EntityPhaseState,
        prev: Option<Fixpoints>,
        builds: usize,
        warm_builds: usize,
        resets: usize,
    }

    impl TableChecked {
        fn new(inner: L2qSelector, label: String) -> Self {
            Self {
                inner,
                label,
                table: EntityPhaseState::new(),
                prev: None,
                builds: 0,
                warm_builds: 0,
                resets: 0,
            }
        }

        fn check(&mut self, input: &SelectionInput<'_>) {
            let phase = EntityPhase::build_incremental(
                input.corpus,
                input.aspect,
                input.gathered,
                input.oracle,
                input.page_candidates,
                input.fired,
                input.domain,
                true,
                input.cfg,
                &mut self.table,
            );
            self.builds += 1;
            if self.table.generation() == 1 {
                self.prev = None;
                self.resets += 1;
            }
            let label = format!("{} build {}", self.label, self.builds);
            let (reg, start) = phase.context_blocks();
            let table = phase.table.as_ref().expect("an incremental build");
            assert_eq!(
                table_classes(&table.structure, &start.queries),
                QueryClasses::canonical(&phase.graph, &start.queries, &reg.queries),
                "{label}: table classes"
            );
            let templates = vertex_templates(input.corpus, &phase);
            let bits = |x: [f64; 3]| x.map(f64::to_bits);
            match &self.prev {
                None => assert!(
                    phase.starts.is_none() && !phase.warm.contains(&true),
                    "{label}: a table's first build starts cold"
                ),
                Some(prev) => {
                    self.warm_builds += 1;
                    assert!(phase.warm[1..].iter().all(|&w| w), "{label}: warm walks");
                    for (p, id) in phase.pages().iter().enumerate() {
                        let want = prev.pages.get(id).copied().unwrap_or(reg.pages[p]);
                        assert_eq!(bits(start.pages[p]), bits(want), "{label}: page {p}");
                    }
                    for (q, query) in phase.candidates().iter().enumerate() {
                        let want = prev.queries.get(*query).copied().unwrap_or(reg.queries[q]);
                        assert_eq!(bits(start.queries[q]), bits(want), "{label}: query {q}");
                    }
                    for (t, template) in templates.iter().enumerate() {
                        let want = prev.templates.get(template).copied();
                        let want = want.unwrap_or(reg.templates[t]);
                        assert_eq!(
                            bits(start.templates[t]),
                            bits(want),
                            "{label}: template {t}"
                        );
                    }
                }
            }
            let (sol, _) = phase.solve_context(Some(&mut self.table), |p| {
                p.tails().iter().all(|t| *t <= 1e-7)
            });
            self.prev = Some(Fixpoints {
                pages: phase
                    .pages()
                    .iter()
                    .enumerate()
                    .map(|(p, &id)| (id, sol.pages[p]))
                    .collect(),
                queries: (phase.candidates().iter().enumerate())
                    .map(|(q, &query)| (query.clone(), sol.query(q)))
                    .collect(),
                templates: (templates.into_iter().enumerate())
                    .map(|(t, template)| (template, sol.templates[t]))
                    .collect(),
            });
        }
    }

    impl QuerySelector for TableChecked {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn reset(&mut self) {
            self.inner.reset();
        }

        fn select(&mut self, input: &SelectionInput<'_>) -> Option<Query> {
            self.check(input);
            self.inner.select(input)
        }

        fn collective_state(&self) -> Option<CollectiveState> {
            self.inner.collective_state()
        }

        fn restore_collective(&mut self, state: CollectiveState) {
            self.inner.restore_collective(state)
        }
    }

    /// At every step of 10-query harvests of every non-domain entity and
    /// aspect, on both domains, under all three context selectors, the
    /// table's classes are the canonical partition, and each build's
    /// starts are the previous solve's fixpoints at the same page, query
    /// and template, and the regularization for vertices new to the
    /// build. Each harvest after the first resets the table (another
    /// aspect or entity). A session exported after two steps and
    /// imported again starts from a fresh table: its first build is cold,
    /// later ones warm.
    #[test]
    fn table_classes_and_starts_match_their_references_at_every_step() {
        for (spec, name) in [
            (researchers_domain(), "researchers"),
            (cars_domain(), "cars"),
        ] {
            let cfg = L2qConfig::default();
            let corpus = Arc::new(generate(&spec, &CorpusConfig::tiny()).unwrap());
            let engine = SearchEngine::with_defaults(corpus.clone());
            let oracle = RelevanceOracle::from_truth(&corpus);
            let domain_entities: Vec<EntityId> = corpus.entity_ids().take(4).collect();
            let domain = learn_domain(&corpus, &domain_entities, &oracle, &cfg);
            let harvester = Harvester {
                corpus: &corpus,
                engine: &engine,
                oracle: &oracle,
                domain: Some(&domain),
                cfg: cfg.with_n_queries(10),
            };
            let n_harvests = corpus.aspects().count() * (corpus.entity_ids().count() - 4);
            for inner in [
                L2qSelector::l2qp(),
                L2qSelector::l2qr(),
                L2qSelector::l2qbal(),
            ] {
                let label = format!("{name}/{}", inner.name());
                let mut sel = TableChecked::new(inner, label.clone());
                for entity in corpus.entity_ids().skip(4) {
                    for aspect in corpus.aspects() {
                        let _ = harvester.run(entity, aspect, &mut sel);
                    }
                }
                assert_eq!(sel.resets, n_harvests, "{label}: one table per harvest");
                assert!(
                    sel.warm_builds + sel.resets == sel.builds && sel.warm_builds > sel.builds / 2,
                    "{label}: {} of {} builds warm",
                    sel.warm_builds,
                    sel.builds
                );
            }

            let aspect = corpus.aspects().next().unwrap();
            let label = format!("{name}/restored");
            let mut sel = TableChecked::new(L2qSelector::l2qbal(), label.clone());
            sel.reset();
            let mut state = HarvestState::begin(&harvester, EntityId(6), aspect);
            for _ in 0..2 {
                state.step(&harvester, &mut sel);
            }
            assert_eq!(
                (sel.builds, sel.warm_builds),
                (2, 1),
                "{label}: before export"
            );
            let json = state.export_json(&corpus, sel.collective_state());
            let (mut state, collective) = HarvestState::import_json(&json, &corpus).unwrap();
            let mut sel = TableChecked::new(L2qSelector::l2qbal(), label.clone());
            if let Some(c) = collective {
                sel.restore_collective(c);
            }
            while !state.is_finished() {
                state.step(&harvester, &mut sel);
            }
            assert!(sel.builds > 2, "{label}: the restored session stepped");
            assert_eq!(
                sel.resets, 1,
                "{label}: the first build after the restore is full"
            );
            assert_eq!(
                sel.warm_builds,
                sel.builds - 1,
                "{label}: later builds are warm"
            );
        }
    }
}
