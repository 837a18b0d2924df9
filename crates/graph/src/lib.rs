//! # l2q-graph — the reinforcement graph and its random walks
//!
//! The paper's utility-inference model (Sect. III–IV): pages, queries and
//! templates form a tripartite *reinforcement graph*; probabilistic
//! precision is the stationary distribution of the backward random walk
//! with restart, probabilistic recall of the forward walk, with the restart
//! probability α acting as utility regularization.
//!
//! ```
//! use l2q_graph::{GraphBuilder, Phase, Regularization, solve, UtilityKind, WalkConfig};
//! // Two pages (first relevant), one query retrieving both.
//! let mut b = GraphBuilder::new(2, 1, 0);
//! b.page_query(0, 0, 1.0).page_query(1, 0, 1.0);
//! let g = b.build();
//! let reg = Regularization::precision_from_relevance(&g, &[true, false]);
//! let u = solve(&g, UtilityKind::Precision, &reg, &WalkConfig::default(), Phase::Entity);
//! assert!(u.queries[0] > 0.0 && u.queries[0] < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod graph;
pub mod solver;

pub use bounds::{FusedSolution, FusedTruncatedSolver, Interleaved, QueryClasses};
pub use graph::{
    Edge, GraphBuilder, PageIdx, QueryIdx, QueryRows, ReinforcementGraph, TemplateIdx,
};
pub use solver::{
    solve, solve_detailed, Phase, Regularization, Utilities, UtilityKind, WalkConfig,
};
