//! The iterative harvest loop (paper Fig. 1).
//!
//! Starting from the seed query, each iteration asks the selector for the
//! next query, fires it at the search engine and folds the results into
//! the current page set. The run records per-iteration snapshots so the
//! evaluation can measure cumulative quality after every query, and the
//! wall-clock time spent inside selection (the Fig. 14 "Selection" column).
//!
//! Two entry points share one implementation:
//!
//! * [`Harvester::run`] — run-to-completion, the evaluation's driver.
//! * [`HarvestState`] — a resumable session: [`HarvestState::begin`] fires
//!   the seed, each [`HarvestState::step`] fires exactly one selected
//!   query, and [`HarvestState::finish`] yields the same [`HarvestRecord`]
//!   a `run` would have produced. The serving layer schedules thousands of
//!   interleaved steps from different sessions over one shared engine, and
//!   can route the fired queries through a retrieval cache by passing a
//!   [`SearchBackend`].
//!
//! A session keeps its page candidates live across its steps, so a
//! step's enumeration is proportional to what changed since the previous
//! step: [`IncrementalCandidates`] enumerates only the pages the last
//! query gathered, seed-tests each new candidate once and drops the fired
//! query, and hands the selector a slice that equals
//! [`crate::selector::page_candidates`] over everything (the cold
//! reference). The L2Q selector carries its own per-session candidate
//! table on top of that (see [`crate::L2qSelector`]).
//!
//! Neither is persisted: a restored session starts with an empty list
//! and a new selector, and its first step rebuilds both from scratch.

use crate::candidates::IncrementalCandidates;
use crate::config::L2qConfig;
use crate::domain_phase::DomainModel;
use crate::query::Query;
use crate::selector::{QuerySelector, SelectionInput};
use l2q_aspect::RelevanceOracle;
use l2q_corpus::{AspectId, Corpus, EntityId, PageId};
use l2q_retrieval::{SearchBackend, SearchEngine};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Resolved-once handles into the global metrics registry, so the hot
/// step path pays a few relaxed atomics instead of a registry lookup.
struct HarvestMetrics {
    sessions: Arc<l2q_obs::Counter>,
    steps: Arc<l2q_obs::Counter>,
    queries_fired: Arc<l2q_obs::Counter>,
    pages_gained: Arc<l2q_obs::Counter>,
    step_seconds: Arc<l2q_obs::Histogram>,
    select_seconds: Arc<l2q_obs::Histogram>,
    search_seconds: Arc<l2q_obs::Histogram>,
    candidates: Arc<l2q_obs::Histogram>,
}

fn harvest_metrics() -> &'static HarvestMetrics {
    static M: OnceLock<HarvestMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let reg = l2q_obs::global();
        HarvestMetrics {
            sessions: reg.counter("harvest_sessions_total"),
            steps: reg.counter("harvest_steps_total"),
            queries_fired: reg.counter("harvest_queries_fired_total"),
            pages_gained: reg.counter("harvest_pages_gained_total"),
            step_seconds: reg.histogram("harvest_step_seconds"),
            select_seconds: reg.histogram("harvest_select_seconds"),
            search_seconds: reg.histogram("harvest_search_seconds"),
            candidates: reg.histogram_with_bounds(
                "harvest_candidates",
                l2q_obs::Histogram::counts().bounds().to_vec(),
            ),
        }
    })
}

/// One iteration's outcome.
#[derive(Clone, Debug)]
pub struct IterationSnapshot {
    /// The query the selector chose.
    pub query: Query,
    /// Pages newly added by this query (not seen before).
    pub new_pages: Vec<PageId>,
    /// Cumulative gathered-page count after this iteration.
    pub gathered_after: usize,
}

/// A complete harvest run for one (entity, aspect).
#[derive(Clone, Debug)]
pub struct HarvestRecord {
    /// Entity harvested.
    pub entity: EntityId,
    /// Aspect harvested.
    pub aspect: AspectId,
    /// Pages retrieved by the seed query.
    pub seed_results: Vec<PageId>,
    /// Per-iteration snapshots (≤ `cfg.n_queries`; fewer if candidates ran
    /// out).
    pub iterations: Vec<IterationSnapshot>,
    /// All gathered pages in first-retrieval order.
    pub gathered: Vec<PageId>,
    /// Total wall-clock time spent inside `selector.select`.
    pub selection_time: Duration,
}

impl HarvestRecord {
    /// Cumulative gathered pages after `n_iters` selector iterations
    /// (0 = seed only). Clamps to the final state.
    pub fn cumulative(&self, n_iters: usize) -> Vec<PageId> {
        let mut out = self.seed_results.clone();
        for it in self.iterations.iter().take(n_iters) {
            out.extend_from_slice(&it.new_pages);
        }
        out
    }

    /// All fired queries (excluding the seed).
    pub fn queries(&self) -> impl Iterator<Item = &Query> {
        self.iterations.iter().map(|it| &it.query)
    }
}

/// The harvest driver wiring corpus, engine, oracle and domain model.
pub struct Harvester<'a> {
    /// The corpus being harvested.
    pub corpus: &'a Corpus,
    /// The search engine.
    pub engine: &'a SearchEngine,
    /// Materialized Y.
    pub oracle: &'a RelevanceOracle,
    /// Learned domain model (None disables domain awareness everywhere).
    pub domain: Option<&'a DomainModel>,
    /// Pipeline configuration.
    pub cfg: L2qConfig,
}

impl<'a> Harvester<'a> {
    /// Run one harvest for (entity, aspect) with the given selector.
    pub fn run(
        &self,
        entity: EntityId,
        aspect: AspectId,
        selector: &mut dyn QuerySelector,
    ) -> HarvestRecord {
        selector.reset();
        let mut state = HarvestState::begin(self, entity, aspect);
        while !state.is_finished() {
            state.step(self, selector);
        }
        state.finish()
    }
}

/// Why a harvest session stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The `n_queries` budget is spent.
    BudgetExhausted,
    /// The selector returned no query (candidates ran out).
    SelectorExhausted,
}

impl StopReason {
    /// A stable snake_case name (used as a metric label and in the wire
    /// protocol's session-state strings).
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::BudgetExhausted => "budget_exhausted",
            StopReason::SelectorExhausted => "selector_exhausted",
        }
    }

    /// Parse the [`StopReason::as_str`] form back (checkpoint import).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "budget_exhausted" => Some(StopReason::BudgetExhausted),
            "selector_exhausted" => Some(StopReason::SelectorExhausted),
            _ => None,
        }
    }
}

/// Outcome of one [`HarvestState::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// One query fired, adding `new_pages` previously unseen pages.
    Advanced {
        /// Number of pages first retrieved by this step's query.
        new_pages: usize,
    },
    /// The session is complete (already was, or became so this call).
    Finished(StopReason),
}

/// A resumable harvest for one (entity, aspect): the loop of
/// [`Harvester::run`], unrolled so a scheduler can interleave steps from
/// many sessions.
#[derive(Debug)]
pub struct HarvestState {
    pub(crate) entity: EntityId,
    pub(crate) aspect: AspectId,
    pub(crate) seed_results: Vec<PageId>,
    pub(crate) fired: Vec<Query>,
    pub(crate) gathered: Vec<PageId>,
    pub(crate) seen: HashSet<PageId>,
    pub(crate) iterations: Vec<IterationSnapshot>,
    pub(crate) selection_time: Duration,
    /// Live page-candidate list (gathered pages and fired queries only
    /// ever grow by appending, so it stays equal to `page_candidates`).
    pub(crate) enumerated: IncrementalCandidates,
    pub(crate) finished: Option<StopReason>,
}

impl HarvestState {
    /// Open a session and fire the seed query through the harvester's own
    /// engine. Does not touch any selector; callers driving a fresh
    /// selector should `reset()` it first (as [`Harvester::run`] does).
    pub fn begin(h: &Harvester<'_>, entity: EntityId, aspect: AspectId) -> Self {
        Self::begin_with(h, entity, aspect, h.engine)
    }

    /// Open a session, firing the seed through an explicit backend (e.g. a
    /// shared retrieval cache).
    pub fn begin_with(
        h: &Harvester<'_>,
        entity: EntityId,
        aspect: AspectId,
        search: &dyn SearchBackend,
    ) -> Self {
        let m = harvest_metrics();
        m.sessions.inc();
        m.queries_fired.inc(); // the seed query below
        let seed = Query::new(h.corpus.seed_query(entity));
        let seed_results = search.search(entity, seed.words());
        let mut gathered = Vec::new();
        let mut seen = HashSet::new();
        for p in &seed_results {
            if seen.insert(*p) {
                gathered.push(*p);
            }
        }
        Self {
            entity,
            aspect,
            seed_results,
            fired: vec![seed],
            gathered,
            seen,
            // Not sized from `n_queries`: the budget is a stopping rule,
            // and a client may ask for up to `u32::MAX` queries.
            iterations: Vec::new(),
            selection_time: Duration::ZERO,
            enumerated: IncrementalCandidates::new(),
            finished: None,
        }
    }

    /// Select and fire exactly one query through the harvester's engine.
    pub fn step(&mut self, h: &Harvester<'_>, selector: &mut dyn QuerySelector) -> StepOutcome {
        self.step_with(h, selector, h.engine)
    }

    /// Select and fire exactly one query, routing the fire through an
    /// explicit backend. Selector-internal probing still uses `h.engine`
    /// directly (selectors inspect index statistics, not cached result
    /// lists), so a caching backend changes no outcome — only cost.
    pub fn step_with(
        &mut self,
        h: &Harvester<'_>,
        selector: &mut dyn QuerySelector,
        search: &dyn SearchBackend,
    ) -> StepOutcome {
        if let Some(reason) = self.finished {
            return StepOutcome::Finished(reason);
        }
        if self.iterations.len() >= h.cfg.n_queries {
            return self.finish_with(StopReason::BudgetExhausted);
        }
        let m = harvest_metrics();
        let step_timer = l2q_obs::SpanTimer::start_named(m.step_seconds.clone(), "harvest_step");

        // Fold in only the pages gathered and the query fired since the
        // last step: the live list is identical to `page_candidates` over
        // everything (see `IncrementalCandidates`).
        let pages = self.gathered.iter().map(|&p| h.corpus.page(p));
        self.enumerated
            .update(h.corpus, pages, &self.fired, h.cfg.candidates.max_len);
        let candidates = self.enumerated.queries();
        let relevant: Vec<bool> = self
            .gathered
            .iter()
            .map(|&p| h.oracle.is_relevant(self.aspect, p))
            .collect();
        let input = SelectionInput {
            corpus: h.corpus,
            entity: self.entity,
            aspect: self.aspect,
            gathered: &self.gathered,
            relevant: &relevant,
            fired: &self.fired,
            page_candidates: candidates,
            domain: h.domain,
            oracle: h.oracle,
            engine: h.engine,
            cfg: &h.cfg,
        };

        let select_span =
            l2q_obs::SpanTimer::start_named(m.select_seconds.clone(), "harvest_select");
        let chosen = selector.select(&input);
        let select_elapsed = select_span.finish();
        self.selection_time += select_elapsed;
        m.candidates.record(candidates.len() as f64);

        let Some(query) = chosen else {
            return self.finish_with(StopReason::SelectorExhausted);
        };
        let search_span =
            l2q_obs::SpanTimer::start_named(m.search_seconds.clone(), "harvest_search");
        let results = search.search(self.entity, query.words());
        search_span.finish();
        m.queries_fired.inc();
        let mut new_pages = Vec::new();
        for p in results {
            if self.seen.insert(p) {
                self.gathered.push(p);
                new_pages.push(p);
            }
        }
        self.fired.push(query.clone());
        let n_new = new_pages.len();
        m.steps.inc();
        m.pages_gained.add(n_new as u64);
        drop(step_timer); // record the step's full wall-clock
        self.iterations.push(IterationSnapshot {
            query,
            new_pages,
            gathered_after: self.gathered.len(),
        });
        StepOutcome::Advanced { new_pages: n_new }
    }

    fn finish_with(&mut self, reason: StopReason) -> StepOutcome {
        self.finished = Some(reason);
        l2q_obs::global()
            .counter_with("harvest_stops_total", &[("reason", reason.as_str())])
            .inc();
        StepOutcome::Finished(reason)
    }

    /// Whether the session can make no further progress.
    pub fn is_finished(&self) -> bool {
        self.finished.is_some()
    }

    /// Why the session stopped, once finished.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.finished
    }

    /// Entity under harvest.
    pub fn entity(&self) -> EntityId {
        self.entity
    }

    /// Aspect under harvest.
    pub fn aspect(&self) -> AspectId {
        self.aspect
    }

    /// Selector iterations completed so far.
    pub fn steps_taken(&self) -> usize {
        self.iterations.len()
    }

    /// Pages gathered so far (seed included), first-retrieval order.
    pub fn gathered(&self) -> &[PageId] {
        &self.gathered
    }

    /// Per-iteration snapshots so far.
    pub fn iterations(&self) -> &[IterationSnapshot] {
        &self.iterations
    }

    /// Cumulative wall-clock spent inside query selection so far.
    pub fn selection_time(&self) -> Duration {
        self.selection_time
    }

    /// Close the session into the record [`Harvester::run`] would return.
    pub fn finish(self) -> HarvestRecord {
        HarvestRecord {
            entity: self.entity,
            aspect: self.aspect,
            seed_results: self.seed_results,
            iterations: self.iterations,
            gathered: self.gathered,
            selection_time: self.selection_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain_phase::learn_domain;
    use crate::selector::L2qSelector;
    use l2q_corpus::{generate, researchers_domain, CorpusConfig};
    use std::sync::Arc;

    struct Fixture {
        corpus: Arc<Corpus>,
        oracle: RelevanceOracle,
    }

    fn fixture() -> Fixture {
        let corpus = Arc::new(generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap());
        let oracle = RelevanceOracle::from_truth(&corpus);
        Fixture { corpus, oracle }
    }

    #[test]
    fn harvest_runs_and_accumulates_pages() {
        let f = fixture();
        let engine = SearchEngine::with_defaults(f.corpus.clone());
        let cfg = L2qConfig::default();
        let harvester = Harvester {
            corpus: &f.corpus,
            engine: &engine,
            oracle: &f.oracle,
            domain: None,
            cfg,
        };
        let aspect = f.corpus.aspect_by_name("RESEARCH").unwrap();
        let mut sel = L2qSelector::precision_only();
        let rec = harvester.run(EntityId(0), aspect, &mut sel);

        assert!(!rec.seed_results.is_empty(), "seed must retrieve pages");
        assert!(
            rec.iterations.len() <= cfg.n_queries,
            "at most n_queries iterations"
        );
        // Gathered pages are distinct and owned by the entity.
        let set: HashSet<_> = rec.gathered.iter().collect();
        assert_eq!(set.len(), rec.gathered.len());
        for &p in &rec.gathered {
            assert_eq!(f.corpus.page(p).entity, EntityId(0));
        }
        // Cumulative reconstruction matches.
        assert_eq!(
            rec.cumulative(rec.iterations.len()).len(),
            rec.gathered.len()
        );
        assert_eq!(rec.cumulative(0), rec.seed_results);
    }

    /// A session's first selection builds its table from empty and every
    /// later one carries it over; `harvest_select_phase_seconds` keeps
    /// the two populations apart under its `build` label.
    #[test]
    fn phase_builds_are_labelled_full_or_carried() {
        let f = fixture();
        let engine = SearchEngine::with_defaults(f.corpus.clone());
        let harvester = Harvester {
            corpus: &f.corpus,
            engine: &engine,
            oracle: &f.oracle,
            domain: None,
            cfg: L2qConfig::default().with_n_queries(4),
        };
        let phase = |build| {
            l2q_obs::global().histogram_with("harvest_select_phase_seconds", &[("build", build)])
        };
        let (full, carried) = (phase("full"), phase("carried"));
        // The registry is process-global, so assert growth, not counts.
        let (full_before, carried_before) = (full.count(), carried.count());
        let aspect = f.corpus.aspect_by_name("RESEARCH").unwrap();
        let rec = harvester.run(EntityId(2), aspect, &mut L2qSelector::recall_only());
        let steps = rec.iterations.len() as u64;
        assert!(steps >= 2, "the harvest must carry its table at least once");
        assert!(full.count() > full_before);
        assert!(carried.count() >= carried_before + steps - 1);
    }

    #[test]
    fn fired_queries_are_never_repeated() {
        let f = fixture();
        let engine = SearchEngine::with_defaults(f.corpus.clone());
        let harvester = Harvester {
            corpus: &f.corpus,
            engine: &engine,
            oracle: &f.oracle,
            domain: None,
            cfg: L2qConfig::default().with_n_queries(5),
        };
        let aspect = f.corpus.aspect_by_name("CONTACT").unwrap();
        let mut sel = L2qSelector::recall_only();
        let rec = harvester.run(EntityId(2), aspect, &mut sel);
        let queries: Vec<_> = rec.queries().collect();
        let set: HashSet<_> = queries.iter().collect();
        assert_eq!(set.len(), queries.len(), "repeated query fired");
    }

    #[test]
    fn full_l2q_with_domain_runs() {
        let f = fixture();
        let engine = SearchEngine::with_defaults(f.corpus.clone());
        let cfg = L2qConfig::default();
        let domain_entities: Vec<EntityId> = f.corpus.entity_ids().take(4).collect();
        let dm = learn_domain(&f.corpus, &domain_entities, &f.oracle, &cfg);
        let harvester = Harvester {
            corpus: &f.corpus,
            engine: &engine,
            oracle: &f.oracle,
            domain: Some(&dm),
            cfg,
        };
        let aspect = f.corpus.aspect_by_name("RESEARCH").unwrap();
        for mut sel in [
            L2qSelector::l2qp(),
            L2qSelector::l2qr(),
            L2qSelector::l2qbal(),
        ] {
            // Harvest a non-domain entity.
            let rec = harvester.run(EntityId(6), aspect, &mut sel);
            assert!(
                !rec.iterations.is_empty(),
                "{} selected no queries",
                sel.name()
            );
            assert!(rec.gathered.len() >= rec.seed_results.len());
        }
    }

    #[test]
    fn weighted_strategy_runs_and_interpolates() {
        use crate::selector::L2qSelector;
        let f = fixture();
        let engine = SearchEngine::with_defaults(f.corpus.clone());
        let harvester = Harvester {
            corpus: &f.corpus,
            engine: &engine,
            oracle: &f.oracle,
            domain: None,
            cfg: L2qConfig::default(),
        };
        let aspect = f.corpus.aspect_by_name("RESEARCH").unwrap();
        for w in [0.0, 0.5, 1.0] {
            let mut sel = L2qSelector::balanced_weighted(w);
            let rec = harvester.run(EntityId(1), aspect, &mut sel);
            assert!(!rec.iterations.is_empty(), "w={w} selected nothing");
        }
        assert_eq!(L2qSelector::balanced_weighted(0.25).name(), "L2QW(0.25)");
    }

    #[test]
    fn harvest_is_deterministic() {
        let f = fixture();
        let engine = SearchEngine::with_defaults(f.corpus.clone());
        let harvester = Harvester {
            corpus: &f.corpus,
            engine: &engine,
            oracle: &f.oracle,
            domain: None,
            cfg: L2qConfig::default(),
        };
        let aspect = f.corpus.aspect_by_name("AWARD").unwrap();
        let mut s1 = L2qSelector::precision_only();
        let mut s2 = L2qSelector::precision_only();
        let a = harvester.run(EntityId(3), aspect, &mut s1);
        let b = harvester.run(EntityId(3), aspect, &mut s2);
        assert_eq!(a.gathered, b.gathered);
        let qa: Vec<_> = a.queries().collect();
        let qb: Vec<_> = b.queries().collect();
        assert_eq!(qa, qb);
    }

    #[test]
    fn step_api_reproduces_run_exactly() {
        let f = fixture();
        let engine = SearchEngine::with_defaults(f.corpus.clone());
        let harvester = Harvester {
            corpus: &f.corpus,
            engine: &engine,
            oracle: &f.oracle,
            domain: None,
            cfg: L2qConfig::default(),
        };
        let aspect = f.corpus.aspect_by_name("RESEARCH").unwrap();

        let mut run_sel = L2qSelector::l2qbal();
        let via_run = harvester.run(EntityId(4), aspect, &mut run_sel);

        let mut step_sel = L2qSelector::l2qbal();
        step_sel.reset();
        let mut state = HarvestState::begin(&harvester, EntityId(4), aspect);
        let mut advanced = 0usize;
        while let StepOutcome::Advanced { .. } = state.step(&harvester, &mut step_sel) {
            advanced += 1;
            assert_eq!(state.steps_taken(), advanced);
        }
        assert!(state.is_finished());
        assert!(state.stop_reason().is_some());
        let via_steps = state.finish();

        assert_eq!(via_steps.gathered, via_run.gathered);
        assert_eq!(via_steps.seed_results, via_run.seed_results);
        let qa: Vec<_> = via_steps.queries().collect();
        let qb: Vec<_> = via_run.queries().collect();
        assert_eq!(qa, qb);
    }

    #[test]
    fn steps_record_metrics_and_stop_reason() {
        let f = fixture();
        let engine = SearchEngine::with_defaults(f.corpus.clone());
        let harvester = Harvester {
            corpus: &f.corpus,
            engine: &engine,
            oracle: &f.oracle,
            domain: None,
            cfg: L2qConfig::default().with_n_queries(3),
        };
        let aspect = f.corpus.aspect_by_name("RESEARCH").unwrap();
        let m = harvest_metrics();
        let (sessions0, steps0, fired0, pages0) = (
            m.sessions.get(),
            m.steps.get(),
            m.queries_fired.get(),
            m.pages_gained.get(),
        );
        let (step_h0, sel_h0) = (m.step_seconds.count(), m.select_seconds.count());
        let mut sel = L2qSelector::precision_only();
        let rec = harvester.run(EntityId(5), aspect, &mut sel);
        // The registry is process-global (other tests also harvest), so
        // assert growth by at least this run's contribution.
        let n = rec.iterations.len() as u64;
        assert!(n >= 1);
        assert!(m.sessions.get() > sessions0);
        assert!(m.steps.get() >= steps0 + n);
        assert!(m.queries_fired.get() > fired0 + n, "seed counts too");
        assert!(m.pages_gained.get() >= pages0);
        assert!(m.step_seconds.count() >= step_h0 + n);
        assert!(m.select_seconds.count() >= sel_h0 + n);
        // Every stop increments a reason-labeled counter.
        let stops: u64 = [StopReason::BudgetExhausted, StopReason::SelectorExhausted]
            .iter()
            .map(|r| {
                l2q_obs::global()
                    .counter_with("harvest_stops_total", &[("reason", r.as_str())])
                    .get()
            })
            .sum();
        assert!(stops >= 1, "the finished run must have recorded a stop");
    }

    #[test]
    fn cached_backend_changes_no_outcome() {
        use l2q_retrieval::{CachedSearch, ShardedQueryCache};
        let f = fixture();
        let engine = SearchEngine::with_defaults(f.corpus.clone());
        let harvester = Harvester {
            corpus: &f.corpus,
            engine: &engine,
            oracle: &f.oracle,
            domain: None,
            cfg: L2qConfig::default(),
        };
        let aspect = f.corpus.aspect_by_name("CONTACT").unwrap();

        let mut plain_sel = L2qSelector::l2qp();
        let plain = harvester.run(EntityId(1), aspect, &mut plain_sel);

        let cache = ShardedQueryCache::new(2, 128);
        let backend = CachedSearch::new(&engine, &cache);
        let mut cached_sel = L2qSelector::l2qp();
        cached_sel.reset();
        let mut state = HarvestState::begin_with(&harvester, EntityId(1), aspect, &backend);
        while !state.is_finished() {
            state.step_with(&harvester, &mut cached_sel, &backend);
        }
        let cached = state.finish();
        assert_eq!(cached.gathered, plain.gathered);
        assert!(cache.misses() > 0, "queries must flow through the cache");
    }
}
