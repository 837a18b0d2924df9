//! # l2q-retrieval — the search-engine substrate
//!
//! An inverted index plus a query-likelihood language model with Dirichlet
//! smoothing — the same retrieval model the paper's own experiments use
//! ("we used a language model with Dirichlet smoothing as the search
//! engine", Sect. VI-A) — and a [`SearchEngine`] facade that applies the
//! paper's seed-query entity focusing and returns the top-5 pages.
//!
//! ```
//! use std::sync::Arc;
//! use l2q_corpus::{generate, researchers_domain, CorpusConfig, EntityId};
//! use l2q_retrieval::SearchEngine;
//! let corpus = Arc::new(generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap());
//! let engine = SearchEngine::with_defaults(corpus.clone());
//! let e = EntityId(0);
//! let seed = corpus.seed_query(e).to_vec();
//! let pages = engine.search(e, &seed);
//! assert!(!pages.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod index;
pub mod lm;

pub use cache::{CachedSearch, SearchBackend, ShardedQueryCache};
pub use engine::{EngineConfig, SearchEngine, SeedMode};
pub use index::{DocId, InvertedIndex, Posting};
pub use lm::{doc_prob, score_doc, top_k, DirichletParams};
