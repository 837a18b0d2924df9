//! # l2q-core — Learning to Query
//!
//! The paper's primary contribution: utility inference for queries over a
//! page–query–template reinforcement graph, made **domain-aware** through
//! templates learned from peer entities (Sect. IV) and **context-aware**
//! through collective utilities over the fired-query context (Sect. V),
//! driving the iterative harvest loop of Fig. 1.
//!
//! Typical use:
//!
//! ```
//! use l2q_corpus::{generate, researchers_domain, CorpusConfig, EntityId};
//! use l2q_retrieval::SearchEngine;
//! use l2q_aspect::RelevanceOracle;
//! use l2q_core::{learn_domain, Harvester, L2qConfig, L2qSelector};
//!
//! let corpus = std::sync::Arc::new(generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap());
//! let engine = SearchEngine::with_defaults(corpus.clone());
//! let oracle = RelevanceOracle::from_truth(&corpus);
//! let cfg = L2qConfig::default();
//!
//! // Domain phase: learn template utilities from peer entities, once.
//! let domain_entities: Vec<EntityId> = corpus.entity_ids().take(4).collect();
//! let domain = learn_domain(&corpus, &domain_entities, &oracle, &cfg);
//!
//! // Entity phase: harvest a target entity's aspect.
//! let harvester = Harvester {
//!     corpus: &corpus, engine: &engine, oracle: &oracle,
//!     domain: Some(&domain), cfg,
//! };
//! let aspect = corpus.aspect_by_name("RESEARCH").unwrap();
//! let mut selector = L2qSelector::l2qbal();
//! let record = harvester.run(EntityId(6), aspect, &mut selector);
//! assert!(!record.gathered.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidates;
pub mod checkpoint;
pub mod config;
pub mod context;
pub mod domain_phase;
pub mod entity_phase;
pub mod fxhash;
pub mod harvester;
pub mod portable;
pub mod query;
pub mod selector;
pub mod template;

pub use candidates::{page_queries, pages_queries, CandidateConfig, IncrementalCandidates};
pub use checkpoint::{
    f64_from_hex, f64_to_hex, PortableCollective, PortableHarvestState, PortableIteration,
    CHECKPOINT_VERSION,
};
pub use config::L2qConfig;
pub use context::CollectiveState;
pub use domain_phase::{learn_domain, AspectDomainData, DomainModel, UtilityPair};
pub use entity_phase::{ContextWalks, EntityPhase, EntityPhaseState};
pub use harvester::{
    HarvestRecord, HarvestState, Harvester, IterationSnapshot, StepOutcome, StopReason,
};
pub use portable::{ImportError, ImportStats, PortableDomainModel, PortableUnit};
pub use query::Query;
pub use selector::{L2qSelector, QuerySelector, SelectionInput, Strategy};
pub use template::{templates_of, Template, TemplateMode, Unit};
