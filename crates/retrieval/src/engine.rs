//! The search engine facade over a frozen corpus.
//!
//! "For each query, pages in the corpus are ranked and the top 5 are
//! returned" (paper Sect. VI-A). The engine supports the paper's entity
//! focusing: the seed query "uniquely identifies" the target entity and "is
//! appended to subsequent queries when submitting them to the search
//! engine, in order to focus on the target entity". Two modes implement
//! this:
//!
//! * [`SeedMode::HardFilter`] (default) — retrieval is scoped to the target
//!   entity's corpus slice, the idealization the paper's evaluation uses
//!   (its corpus is organized per entity).
//! * [`SeedMode::SoftAppend`] — seed words are merged into the query and
//!   retrieval runs over the whole corpus; other entities' pages can leak
//!   into results, as on a real search engine.

use crate::index::{DocId, InvertedIndex};
use crate::lm::{top_k, DirichletParams};
use l2q_corpus::{Corpus, EntityId, PageId};
use l2q_text::{Bow, Sym};
use std::sync::Arc;

/// How the seed query focuses retrieval on the target entity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SeedMode {
    /// Retrieve only from the target entity's pages.
    #[default]
    HardFilter,
    /// Append seed words to the query and search the whole corpus.
    SoftAppend,
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Results per query (paper: 5).
    pub top_k: usize,
    /// Dirichlet smoothing parameters.
    pub dirichlet: DirichletParams,
    /// Entity-focusing mode.
    pub seed_mode: SeedMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            top_k: 5,
            dirichlet: DirichletParams::default(),
            seed_mode: SeedMode::default(),
        }
    }
}

/// A search engine over one corpus: global index plus one per entity.
///
/// The engine holds its corpus behind an [`Arc`], so a built engine is a
/// self-contained, immutable, `Send + Sync` value: the serving layer wraps
/// one engine in an `Arc` and shares it across every session worker.
pub struct SearchEngine {
    corpus: Arc<Corpus>,
    cfg: EngineConfig,
    global: InvertedIndex,
    per_entity: Vec<InvertedIndex>,
    /// First PageId of each entity slice (to map local DocIds back).
    entity_base: Vec<u32>,
}

impl SearchEngine {
    /// Build the engine (indexes every page once). Accepts anything that
    /// converts into a shared corpus handle: an owned [`Corpus`] or an
    /// existing `Arc<Corpus>` (pass `corpus.clone()` to keep your handle).
    pub fn new(corpus: impl Into<Arc<Corpus>>, cfg: EngineConfig) -> Self {
        let corpus = corpus.into();
        let global = InvertedIndex::build(corpus.pages.iter().map(|p| p.bow()));
        let mut per_entity = Vec::with_capacity(corpus.entities.len());
        let mut entity_base = Vec::with_capacity(corpus.entities.len());
        for e in corpus.entity_ids() {
            let pages = corpus.pages_of(e);
            entity_base.push(pages.first().map(|p| p.id.0).unwrap_or(0));
            per_entity.push(InvertedIndex::build(pages.iter().map(|p| p.bow())));
        }
        Self {
            corpus,
            cfg,
            global,
            per_entity,
            entity_base,
        }
    }

    /// Build with default configuration.
    pub fn with_defaults(corpus: impl Into<Arc<Corpus>>) -> Self {
        Self::new(corpus, EngineConfig::default())
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The corpus this engine serves.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Fire `query` for `entity`, returning up to `top_k` page ids, best
    /// first. The seed query is applied per the configured [`SeedMode`].
    pub fn search(&self, entity: EntityId, query: &[Sym]) -> Vec<PageId> {
        fn queries_total() -> &'static std::sync::Arc<l2q_obs::Counter> {
            static C: std::sync::OnceLock<std::sync::Arc<l2q_obs::Counter>> =
                std::sync::OnceLock::new();
            C.get_or_init(|| l2q_obs::global().counter("retrieval_queries_total"))
        }
        queries_total().inc();
        let mut span = l2q_obs::span!("retrieval_search");
        let results = match self.cfg.seed_mode {
            SeedMode::HardFilter => {
                let idx = &self.per_entity[entity.index()];
                let bow = Bow::from_words(query);
                let base = self.entity_base[entity.index()];
                top_k(idx, self.cfg.dirichlet, &bow, self.cfg.top_k)
                    .into_iter()
                    .map(|(d, _)| PageId(base + d.0))
                    .collect::<Vec<PageId>>()
            }
            SeedMode::SoftAppend => {
                let mut words: Vec<Sym> = query.to_vec();
                words.extend_from_slice(self.corpus.seed_query(entity));
                let bow = Bow::from_words(&words);
                top_k(&self.global, self.cfg.dirichlet, &bow, self.cfg.top_k)
                    .into_iter()
                    .map(|(d, _)| PageId(d.0))
                    .collect::<Vec<PageId>>()
            }
        };
        if results.is_empty() {
            // Surfaces in the traced span: a fired query that matched
            // nothing is the usual culprit behind a stalling harvest.
            span.set_status("empty");
        }
        results
    }

    /// Map an entity-local [`DocId`] to its corpus [`PageId`].
    pub fn to_page_id(&self, entity: EntityId, d: DocId) -> PageId {
        PageId(self.entity_base[entity.index()] + d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2q_corpus::{generate, researchers_domain, CorpusConfig};

    fn corpus() -> Arc<Corpus> {
        Arc::new(generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap())
    }

    #[test]
    fn hard_filter_returns_only_target_entity_pages() {
        let c = corpus();
        let engine = SearchEngine::with_defaults(c.clone());
        for e in c.entity_ids() {
            let seed = c.seed_query(e).to_vec();
            let res = engine.search(e, &seed);
            assert!(!res.is_empty(), "seed query must retrieve pages");
            for p in res {
                assert_eq!(c.page(p).entity, e);
            }
        }
    }

    #[test]
    fn results_respect_top_k() {
        let c = corpus();
        let engine = SearchEngine::with_defaults(c.clone());
        let e = EntityId(0);
        let seed = c.seed_query(e).to_vec();
        let res = engine.search(e, &seed);
        assert!(res.len() <= engine.config().top_k);
    }

    #[test]
    fn soft_append_searches_globally() {
        let c = corpus();
        let engine = SearchEngine::new(
            c.clone(),
            EngineConfig {
                seed_mode: SeedMode::SoftAppend,
                ..Default::default()
            },
        );
        let e = EntityId(0);
        let seed = c.seed_query(e).to_vec();
        let res = engine.search(e, &seed);
        assert!(!res.is_empty());
        // Seed contains the unique entity name, so the top result should
        // still be the target entity's page.
        assert_eq!(c.page(res[0]).entity, e);
    }

    #[test]
    fn nonsense_query_retrieves_nothing() {
        let c = corpus();
        let engine = SearchEngine::with_defaults(c);
        // A symbol id beyond anything interned.
        let res = engine.search(EntityId(0), &[Sym(10_000_000)]);
        assert!(res.is_empty());
    }

    #[test]
    fn doc_id_mapping_round_trips() {
        let c = corpus();
        let engine = SearchEngine::with_defaults(c.clone());
        let e = EntityId(1);
        let first = c.pages_of(e)[0].id;
        assert_eq!(engine.to_page_id(e, DocId(0)), first);
    }
}
