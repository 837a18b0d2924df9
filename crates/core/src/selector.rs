//! Query selection: the [`QuerySelector`] trait shared by L2Q and all
//! baselines, and the [`L2qSelector`] family (P, R, P+t, R+t, L2QP, L2QR,
//! L2QBAL — the strategies of the paper's Sect. VI-B/C).
//!
//! An [`L2qSelector`] owns its session's candidate table (an
//! [`EntityPhaseState`], see [`crate::entity_phase`]): every selection
//! builds the entity graph through it, so a step only diffs what changed
//! since the previous one, and warm-starts each walk from the previous
//! solve. [`QuerySelector::reset`] clears the table; a restored or
//! migrated session builds a new selector, whose first step is a full
//! build from an empty table.

use crate::config::L2qConfig;
use crate::context::CollectiveState;
use crate::domain_phase::DomainModel;
use crate::entity_phase::{ContextProbe, EntityPhase, EntityPhaseState};
use crate::fxhash::FxHashSet;
use crate::query::Query;
use l2q_aspect::RelevanceOracle;
use l2q_corpus::{AspectId, Corpus, EntityId, PageId};
use l2q_graph::UtilityKind;
use std::sync::{Arc, OnceLock};

/// Everything a selector may consult when choosing the next query.
pub struct SelectionInput<'a> {
    /// The corpus.
    pub corpus: &'a Corpus,
    /// Target entity.
    pub entity: EntityId,
    /// Target aspect.
    pub aspect: AspectId,
    /// Current result pages PE, in gathering order (deduplicated).
    pub gathered: &'a [PageId],
    /// Y over `gathered` (classifier-materialized, like the paper).
    pub relevant: &'a [bool],
    /// The context Φ: every query fired so far, seed first.
    pub fired: &'a [Query],
    /// Candidates enumerated from the current pages, fired ones and
    /// seed subsets removed ([`page_candidates`]). The harvester hands
    /// over its live list, which only drops fired queries and appends
    /// new ones from step to step.
    pub page_candidates: &'a [Query],
    /// The learned domain model, if the pipeline is domain-aware.
    pub domain: Option<&'a DomainModel>,
    /// The relevance oracle (materialized Y for any page).
    pub oracle: &'a RelevanceOracle,
    /// The search engine. L2Q and the published baselines must NOT fire
    /// candidates through it (utilities are inferred "without actually
    /// firing any candidate query") — it exists for the evaluation's ideal
    /// upper-bound selector, which is explicitly allowed to cheat.
    pub engine: &'a l2q_retrieval::SearchEngine,
    /// Pipeline configuration.
    pub cfg: &'a L2qConfig,
}

/// A query-selection policy (one `select` call per harvest iteration).
///
/// Selectors are `Send` so evaluations can parallelize over entities (the
/// paper's own efficiency suggestion, Sect. VI-C).
pub trait QuerySelector: Send {
    /// Short display name (`L2QP`, `LM`, …).
    fn name(&self) -> String;

    /// Reset per (entity, aspect) harvest run.
    fn reset(&mut self) {}

    /// Choose the next query, or `None` if no candidate is available.
    fn select(&mut self, input: &SelectionInput<'_>) -> Option<Query>;

    /// The collective-recall recursion state, for selectors that carry one
    /// (checkpointing hook; context-free selectors have none).
    fn collective_state(&self) -> Option<CollectiveState> {
        None
    }

    /// Restore a previously exported collective state (checkpoint
    /// restore). Context-free selectors ignore it.
    fn restore_collective(&mut self, _state: CollectiveState) {}
}

/// Resolved-once handles for the selection spans and the bound-and-prune
/// selection metrics.
struct SelectionMetrics {
    /// Pool and phase update (`harvest_select_phase` span), from an empty
    /// or reset table (`build="full"`) ...
    phase_full_seconds: Arc<l2q_obs::Histogram>,
    /// ... or carried from the previous selection (`build="carried"`).
    phase_carried_seconds: Arc<l2q_obs::Histogram>,
    /// Scores, argmax and Φ commit (`harvest_select_score` span).
    score_seconds: Arc<l2q_obs::Histogram>,
    pruned: Arc<l2q_obs::Counter>,
    exact: Arc<l2q_obs::Counter>,
    fallbacks: Arc<l2q_obs::Counter>,
    active_fraction: Arc<l2q_obs::Histogram>,
}

fn selection_metrics() -> &'static SelectionMetrics {
    static M: OnceLock<SelectionMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let reg = l2q_obs::global();
        SelectionMetrics {
            phase_full_seconds: reg
                .histogram_with("harvest_select_phase_seconds", &[("build", "full")]),
            phase_carried_seconds: reg
                .histogram_with("harvest_select_phase_seconds", &[("build", "carried")]),
            score_seconds: reg.histogram("harvest_select_score_seconds"),
            pruned: reg.counter("selection_candidates_pruned_total"),
            exact: reg.counter("selection_exact_solves_total"),
            fallbacks: reg.counter("selection_bound_fallbacks_total"),
            active_fraction: reg.histogram_with_bounds(
                "selection_active_set_fraction",
                vec![0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 0.9, 1.0],
            ),
        }
    })
}

/// The winner's per-query walk tails must drop below this before the
/// certifier may stop the solve: the truncated `r/r̃/r*` triple the
/// selector then commits to Φ sits within this distance of the fully
/// converged one. 1e-4 keeps the committed drift two orders of
/// magnitude below the ~1e-2 score gaps that separate distinct
/// candidate classes on either benchmark domain — far too small to
/// flip any later argmax, which the determinism suite's bit-identical
/// fired-sequence checks gate empirically — while letting the solve
/// stop a handful of sweeps after the argmax separates instead of
/// riding the contraction three more decades. (Kills need no such
/// gate: an interval comparison is valid at any tail width.)
const COMMIT_TOL: f64 = 1e-4;

/// Safety margin separating "provably worse" from "too close to call".
/// Covers the residual (≈6·tolerance at the default 1e-9) that even the
/// fully converged scores carry relative to the true fixpoint, so a
/// pruned kill is also valid about the unpruned path's scores.
const CERT_MARGIN: f64 = 1e-8;

/// Field size below which racing every sweep is cheaper than skipping.
const CHEAP_FIELD: usize = 16;

/// Active-set state of one pruned selection: the solver's classes of
/// connected candidates (see [`ContextProbe::classes`]) race against
/// each other on certified score intervals; a class is killed when its
/// best possible primary score provably trails some class's worst
/// possible one, and the walk solves stop the moment a single class
/// survives.
struct Certifier {
    state: CollectiveState,
    strategy: Strategy,
    /// Whether each of the probe's classes is still in the race (filled
    /// from the first probe).
    alive: Option<Vec<bool>>,
    n_alive: usize,
    /// Tail level that triggers the next full interval race while the
    /// field is still wide (halving cadence).
    next_race_tail: f64,
    /// Member count of the winning class once certified.
    winner: Option<usize>,
}

impl Certifier {
    fn new(state: CollectiveState, strategy: Strategy) -> Self {
        Self {
            state,
            strategy,
            alive: None,
            n_alive: 0,
            next_race_tail: f64::INFINITY,
            winner: None,
        }
    }

    /// Inspect one sweep's probe; `true` ends the solve with a certified
    /// winner. Kills are permanent — they are statements about the true
    /// fixpoint scores, which do not move between sweeps.
    fn check(&mut self, probe: &ContextProbe<'_>) -> bool {
        let classes = probe.classes();
        let alive = self.alive.get_or_insert_with(|| {
            self.n_alive = classes.len();
            vec![true; classes.len()]
        });
        if classes.is_empty() {
            // No connected candidate: the selection returns None either
            // way; let the solve run to convergence (exact fallback).
            return false;
        }
        let tails = probe.tails();
        let tmax = tails.iter().fold(0.0f64, |m, &t| m.max(t));
        if !tmax.is_finite() {
            // Uncertifiable sweep (ρ ≥ 1 or warm-up): every interval
            // would span [0, ub] and nothing can be killed.
            return false;
        }
        // Racing a wide field is O(alive) per sweep; while the field is
        // large, only race when the tails have halved since the last
        // attempt (walk scores live in [0, ~1], so tails above 0.25
        // cannot separate anything either). Kill statements are about
        // the fixpoint, so skipped sweeps forfeit nothing but latency.
        if self.n_alive > CHEAP_FIELD && tmax > self.next_race_tail.min(0.25) {
            return false;
        }
        self.next_race_tail = tmax * 0.5;
        let mut best_lo = f64::NEG_INFINITY;
        let mut his: Vec<(usize, f64)> = Vec::with_capacity(self.n_alive);
        for (i, &c) in classes.iter().enumerate() {
            if !alive[i] {
                continue;
            }
            let (scores, bounds) = (probe.scores(c), probe.bounds(c));
            let [r, rt, rs] =
                std::array::from_fn(|w| interval(scores[w], probe.qtail(w, c), bounds[w]));
            let (lo, hi) = primary_interval(&self.state, self.strategy, r, rt, rs);
            if lo > best_lo {
                best_lo = lo;
            }
            his.push((i, hi));
        }
        for &(i, hi) in &his {
            if hi + CERT_MARGIN < best_lo {
                alive[i] = false;
                self.n_alive -= 1;
            }
        }
        if self.n_alive == 1 {
            let c = classes[alive.iter().position(|&a| a).expect("one alive")];
            // Stop only once the lone survivor's own committed scores
            // are converged to within COMMIT_TOL.
            if (0..3).all(|w| probe.qtail(w, c) <= COMMIT_TOL) {
                self.winner = Some(probe.class_len(c));
                return true;
            }
        }
        false
    }
}

/// Enclose a walk score: the iterate ± its certified tail, clipped to
/// `[0, static upper bound]` (walk utilities are non-negative and the
/// static bound dominates the fixpoint).
fn interval(x: f64, tail: f64, ub: f64) -> (f64, f64) {
    ((x - tail).max(0.0), (x + tail).min(ub))
}

/// Certified interval of a strategy's *primary* score given intervals on
/// the three walk scores, via interval arithmetic over the collective
/// utilities' monotonicities: `cr` is nondecreasing in `r` and
/// nonincreasing in `r̃`; `cr*` is nondecreasing in `r*`; `cp = cr/cr*`.
fn primary_interval(
    state: &CollectiveState,
    strategy: Strategy,
    r: (f64, f64),
    rt: (f64, f64),
    rs: (f64, f64),
) -> (f64, f64) {
    let cr_lo = state.collective_recall(r.0, rt.1);
    let cr_hi = state.collective_recall(r.1, rt.0);
    if matches!(strategy, Strategy::Recall) {
        return (cr_lo, cr_hi);
    }
    let den_lo = state.collective_recall_star(rs.0);
    let den_hi = state.collective_recall_star(rs.1);
    if den_lo <= f64::EPSILON {
        // `collective_precision` clamps to 0 somewhere inside this
        // interval; make the group impossible to kill or to win.
        return (f64::NEG_INFINITY, f64::INFINITY);
    }
    let cp_lo = cr_lo / den_hi;
    let cp_hi = cr_hi / den_lo;
    match strategy {
        Strategy::Precision => (cp_lo, cp_hi),
        Strategy::Recall => unreachable!("handled above"),
        Strategy::Balanced => ((cp_lo * cr_lo).sqrt(), (cp_hi * cr_hi).sqrt()),
        Strategy::Weighted { precision_weight } => {
            let w = precision_weight.clamp(0.0, 1.0);
            (
                cp_lo.max(0.0).powf(w) * cr_lo.max(0.0).powf(1.0 - w),
                cp_hi.max(0.0).powf(w) * cr_hi.max(0.0).powf(1.0 - w),
            )
        }
    }
}

/// Which utility the selector optimizes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Strategy {
    /// Optimize (collective) precision.
    Precision,
    /// Optimize (collective) recall.
    Recall,
    /// Geometric mean of collective precision and recall (L2QBAL —
    /// "we select queries based on the geometric mean of the collective
    /// precision and recall").
    Balanced,
    /// Weighted geometric mean `cp^w · cr^(1−w)` — the paper leaves "a
    /// more thorough and principled approach" to combining the two
    /// utilities as future work; this is the natural one-parameter
    /// family containing L2QBAL (w = 0.5), L2QP (w → 1) and L2QR
    /// (w → 0).
    Weighted {
        /// Share of collective precision, in `[0, 1]`.
        precision_weight: f64,
    },
}

/// The L2Q selector family: utility inference on the entity graph, with
/// optional domain awareness (templates + frequent domain queries) and
/// optional context awareness (collective utilities).
pub struct L2qSelector {
    mode: Mode,
    state: Option<CollectiveState>,
    /// The session's candidate table, carried from selection to
    /// selection.
    table: EntityPhaseState,
}

/// How an [`L2qSelector`] scores its candidates: one of the paper's
/// seven configurations, or the weighted extension.
#[derive(Clone, Copy, Debug)]
enum Mode {
    /// L2QP, L2QR, L2QBAL and L2QW(w): collective utilities on the
    /// domain-aware entity graph (Sect. V).
    Context(Strategy),
    /// P, R, P+t and R+t: one entity walk's utilities, on the graph with
    /// templates (Sect. IV) or without them (Sect. III).
    Walk { kind: UtilityKind, templates: bool },
}

impl L2qSelector {
    /// Full L2QP: precision with domain + context awareness.
    pub fn l2qp() -> Self {
        Self::full(Strategy::Precision)
    }

    /// Full L2QR: recall with domain + context awareness.
    pub fn l2qr() -> Self {
        Self::full(Strategy::Recall)
    }

    /// Full L2QBAL: balanced combination with domain + context awareness.
    pub fn l2qbal() -> Self {
        Self::full(Strategy::Balanced)
    }

    /// The domain- and context-aware selector that optimizes `strategy`.
    pub fn full(strategy: Strategy) -> Self {
        Self::with_mode(Mode::Context(strategy))
    }

    /// Ablation `P`: precision only (Sect. III model).
    pub fn precision_only() -> Self {
        Self::walk(UtilityKind::Precision, false)
    }

    /// Ablation `R`: recall only (Sect. III model).
    pub fn recall_only() -> Self {
        Self::walk(UtilityKind::Recall, false)
    }

    /// Ablation `P+t`: precision with template-based domain learning but
    /// no context.
    pub fn precision_templates() -> Self {
        Self::walk(UtilityKind::Precision, true)
    }

    /// Ablation `R+t`: recall with templates, no context.
    pub fn recall_templates() -> Self {
        Self::walk(UtilityKind::Recall, true)
    }

    /// Weighted balanced strategy (extension; see [`Strategy::Weighted`]).
    pub fn balanced_weighted(precision_weight: f64) -> Self {
        Self::full(Strategy::Weighted { precision_weight })
    }

    fn walk(kind: UtilityKind, templates: bool) -> Self {
        Self::with_mode(Mode::Walk { kind, templates })
    }

    fn with_mode(mode: Mode) -> Self {
        Self {
            mode,
            state: None,
            table: EntityPhaseState::new(),
        }
    }

    /// Whether this selector uses the domain model.
    pub fn is_domain_aware(&self) -> bool {
        !matches!(
            self.mode,
            Mode::Walk {
                templates: false,
                ..
            }
        )
    }

    /// Whether this selector uses collective utilities.
    pub fn is_context_aware(&self) -> bool {
        matches!(self.mode, Mode::Context(_))
    }
}

impl QuerySelector for L2qSelector {
    fn name(&self) -> String {
        match self.mode {
            Mode::Context(Strategy::Precision) => "L2QP".into(),
            Mode::Context(Strategy::Recall) => "L2QR".into(),
            Mode::Context(Strategy::Balanced) => "L2QBAL".into(),
            Mode::Context(Strategy::Weighted { precision_weight }) => {
                format!("L2QW({precision_weight:.2})")
            }
            Mode::Walk { kind, templates } => {
                let walk = match kind {
                    UtilityKind::Precision => "P",
                    UtilityKind::Recall => "R",
                };
                if templates {
                    format!("{walk}+t")
                } else {
                    walk.into()
                }
            }
        }
    }

    fn reset(&mut self) {
        self.state = None;
        self.table = EntityPhaseState::new();
    }

    fn collective_state(&self) -> Option<CollectiveState> {
        self.state
    }

    fn restore_collective(&mut self, state: CollectiveState) {
        self.state = Some(state);
    }

    fn select(&mut self, input: &SelectionInput<'_>) -> Option<Query> {
        let m = selection_metrics();
        let domain_aware = self.is_domain_aware();
        let mut phase_span =
            l2q_obs::SpanTimer::start_named(m.phase_full_seconds.clone(), "harvest_select_phase");
        let phase = EntityPhase::build_incremental(
            input.corpus,
            input.aspect,
            input.gathered,
            input.oracle,
            input.page_candidates,
            input.fired,
            input.domain.filter(|_| domain_aware),
            domain_aware,
            input.cfg,
            &mut self.table,
        );
        // The generation restarts at 1 when a build starts from an empty
        // or reset table; any later one carried the table over.
        if self.table.generation() > 1 {
            phase_span.set_histogram(m.phase_carried_seconds.clone());
        }
        phase_span.finish();
        if phase.candidates().is_empty() {
            return None;
        }

        let strategy = match self.mode {
            Mode::Context(strategy) => strategy,
            Mode::Walk { kind, .. } => {
                let scores = match kind {
                    UtilityKind::Precision => phase.precision_with(Some(&mut self.table)),
                    UtilityKind::Recall => phase.recall_with(Some(&mut self.table)),
                };
                let _score_span = l2q_obs::SpanTimer::start_named(
                    m.score_seconds.clone(),
                    "harvest_select_score",
                );
                return argmax(&scores, phase.candidates()).map(|i| phase.candidates()[i].clone());
            }
        };
        let state = *self
            .state
            .get_or_insert_with(|| CollectiveState::new(input.cfg.r0));
        let walks = if input.cfg.prune {
            let mut cert = Certifier::new(state, strategy);
            let (walks, _early) =
                phase.context_walks_certified(Some(&mut self.table), |p| cert.check(p));
            let total = phase.candidates().len() as u64;
            match cert.winner {
                Some(members) => {
                    // Certified: only the winner class's utilities
                    // were needed at (near-)full accuracy.
                    let exact = members as u64;
                    m.exact.add(exact);
                    m.pruned.add(total - exact);
                    if total > 0 {
                        m.active_fraction.record(exact as f64 / total as f64);
                    }
                }
                None => {
                    // Bounds never separated a winner: the solve ran
                    // to convergence, i.e. the exact path.
                    m.exact.add(total);
                    m.fallbacks.inc();
                    m.active_fraction.record(1.0);
                }
            }
            walks
        } else {
            phase
                .context_walks_certified(Some(&mut self.table), |_| false)
                .0
        };
        let _score_span =
            l2q_obs::SpanTimer::start_named(m.score_seconds.clone(), "harvest_select_score");
        let (r, r_tilde, rstar) = (walks.recall, walks.recall_gathered, walks.recall_all);
        let connected = phase.connected();
        // Primary score per strategy, with the complementary collective
        // utility as a secondary tie-break key (many candidates tie on
        // the primary early on, when the seed results are uniform).
        let scores: Vec<(f64, f64)> = (0..phase.candidates().len())
            .map(|i| {
                if !connected[i] {
                    return (f64::MIN, f64::MIN);
                }
                let cp = state.collective_precision(r[i], r_tilde[i], rstar[i]);
                let cr = state.collective_recall(r[i], r_tilde[i]);
                match strategy {
                    Strategy::Precision => (cp, cr),
                    Strategy::Recall => (cr, cp),
                    Strategy::Balanced => ((cp * cr).sqrt(), cr),
                    Strategy::Weighted { precision_weight } => {
                        let w = precision_weight.clamp(0.0, 1.0);
                        (cp.max(0.0).powf(w) * cr.max(0.0).powf(1.0 - w), cr)
                    }
                }
            })
            .collect();
        let best = argmax_pairs(&scores, phase.candidates())?;
        if scores[best].0 == f64::MIN {
            return None;
        }
        // Commit the chosen query's contribution to Φ.
        let st = self.state.as_mut().expect("state initialized above");
        st.commit(r[best], r_tilde[best], rstar[best]);
        Some(phase.candidates()[best].clone())
    }
}

/// Argmax over (primary, secondary) score pairs; final ties break toward
/// the lexicographically smallest query so selection is deterministic.
pub(crate) fn argmax_pairs(scores: &[(f64, f64)], queries: &[&Query]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for i in 0..scores.len() {
        match best {
            None => best = Some(i),
            Some(b) => {
                let cand = (scores[i].0, scores[i].1);
                let cur = (scores[b].0, scores[b].1);
                if cand > cur || (cand == cur && queries[i] < queries[b]) {
                    best = Some(i);
                }
            }
        }
    }
    best
}

/// Index of the maximum score; ties break toward the lexicographically
/// smallest query so selection is deterministic.
pub(crate) fn argmax(scores: &[f64], queries: &[&Query]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for i in 0..scores.len() {
        match best {
            None => best = Some(i),
            Some(b) => {
                if scores[i] > scores[b] || (scores[i] == scores[b] && queries[i] < queries[b]) {
                    best = Some(i);
                }
            }
        }
    }
    best
}

/// Whether every word of `q` already occurs in the seed query — or is a
/// stopword. Such a candidate is pure redundancy: the seed "is appended
/// to subsequent queries when submitting them to the search engine", so
/// firing a subset of it (padded with function words) retrieves nothing
/// the seed did not.
pub fn subset_of_seed(q: &Query, seed: &Query, corpus: &Corpus) -> bool {
    q.words()
        .iter()
        .all(|&w| seed.words().contains(&w) || corpus.is_stop_sym(w))
}

/// A helper used by the harvester: enumerate page candidates from the
/// gathered pages, excluding fired queries and seed-subset queries
/// (`fired[0]` is the seed).
pub fn page_candidates(
    corpus: &Corpus,
    gathered: &[PageId],
    fired: &[Query],
    cfg: &L2qConfig,
) -> Vec<Query> {
    let pages = gathered.iter().map(|&p| corpus.page(p));
    let fired_set: FxHashSet<&Query> = fired.iter().collect();
    let seed = fired.first();
    crate::candidates::pages_queries(corpus, pages, cfg.candidates.max_len)
        .into_iter()
        .filter(|q| !fired_set.contains(q))
        .filter(|q| seed.map(|s| !subset_of_seed(q, s, corpus)).unwrap_or(true))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_intervals_enclose_the_exact_scores() {
        let state = CollectiveState::new(0.3);
        let strategies = [
            Strategy::Precision,
            Strategy::Recall,
            Strategy::Balanced,
            Strategy::Weighted {
                precision_weight: 0.7,
            },
        ];
        // Exact point scores must always land inside the interval built
        // from enclosing walk-score intervals.
        let points = [
            (0.0, 0.0, 0.0),
            (0.2, 0.1, 0.4),
            (0.9, 0.8, 0.95),
            (1.0, 1.0, 1.0),
        ];
        for strategy in strategies {
            for &(r, rt, rs) in &points {
                let pad = 1e-3;
                let iv = |x: f64| ((x - pad).max(0.0), (x + pad).min(1.0));
                let (lo, hi) = primary_interval(&state, strategy, iv(r), iv(rt), iv(rs));
                assert!(lo <= hi, "{strategy:?}: empty interval at {r} {rt} {rs}");
                let cp = state.collective_precision(r, rt, rs);
                let cr = state.collective_recall(r, rt);
                let exact = match strategy {
                    Strategy::Precision => cp,
                    Strategy::Recall => cr,
                    Strategy::Balanced => (cp * cr).sqrt(),
                    Strategy::Weighted { precision_weight } => {
                        let w = precision_weight.clamp(0.0, 1.0);
                        cp.max(0.0).powf(w) * cr.max(0.0).powf(1.0 - w)
                    }
                };
                assert!(
                    lo - 1e-12 <= exact && exact <= hi + 1e-12,
                    "{strategy:?}: exact {exact} outside [{lo}, {hi}] at {r} {rt} {rs}"
                );
            }
        }
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(L2qSelector::l2qp().name(), "L2QP");
        assert_eq!(L2qSelector::l2qr().name(), "L2QR");
        assert_eq!(L2qSelector::l2qbal().name(), "L2QBAL");
        assert_eq!(L2qSelector::precision_only().name(), "P");
        assert_eq!(L2qSelector::recall_only().name(), "R");
        assert_eq!(L2qSelector::precision_templates().name(), "P+t");
        assert_eq!(L2qSelector::recall_templates().name(), "R+t");
    }

    #[test]
    fn argmax_breaks_ties_lexicographically() {
        use l2q_text::Sym;
        let queries = [
            Query::new(&[Sym(5)]),
            Query::new(&[Sym(2)]),
            Query::new(&[Sym(9)]),
        ];
        let queries: Vec<&Query> = queries.iter().collect();
        let scores = vec![1.0, 1.0, 0.5];
        assert_eq!(argmax(&scores, &queries), Some(1));
        assert_eq!(argmax(&[], &[]), None);
    }

    #[test]
    fn flags_are_exposed() {
        assert!(L2qSelector::l2qp().is_domain_aware());
        assert!(L2qSelector::l2qp().is_context_aware());
        assert!(!L2qSelector::precision_only().is_domain_aware());
        assert!(!L2qSelector::precision_templates().is_context_aware());
    }

    #[test]
    fn subset_of_seed_covers_stopword_padding() {
        use l2q_corpus::{generate, researchers_domain, CorpusConfig};
        let mut corpus = generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap();
        let name = corpus.symbols.intern("marc");
        let inst = corpus.symbols.intern("uiuc");
        let the = corpus.symbols.intern("the");
        let research = corpus.symbols.intern("research");
        let seed = Query::new(&[name, inst]);

        assert!(subset_of_seed(&Query::new(&[name]), &seed, &corpus));
        assert!(subset_of_seed(&Query::new(&[inst, name]), &seed, &corpus));
        assert!(
            subset_of_seed(&Query::new(&[the, name]), &seed, &corpus),
            "stopword + seed word is still redundant"
        );
        assert!(
            !subset_of_seed(&Query::new(&[research, name]), &seed, &corpus),
            "a content word outside the seed is not redundant"
        );
        assert!(
            subset_of_seed(&Query::new(&[the]), &seed, &corpus),
            "all-stopword queries are degenerate"
        );
    }

    #[test]
    fn page_candidates_exclude_fired_and_seed_subsets() {
        use l2q_corpus::{generate, researchers_domain, CorpusConfig, EntityId};
        let corpus = generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap();
        let cfg = L2qConfig::default();
        let entity = EntityId(0);
        let gathered: Vec<_> = corpus
            .pages_of(entity)
            .iter()
            .take(4)
            .map(|p| p.id)
            .collect();
        let seed = Query::new(corpus.seed_query(entity));

        let first = page_candidates(&corpus, &gathered, std::slice::from_ref(&seed), &cfg);
        assert!(!first.is_empty());
        for q in &first {
            assert!(!subset_of_seed(q, &seed, &corpus));
        }

        // Fire the first candidate: it must disappear from the next pool.
        let fired = vec![seed, first[0].clone()];
        let second = page_candidates(&corpus, &gathered, &fired, &cfg);
        assert!(!second.contains(&first[0]));
    }
}
