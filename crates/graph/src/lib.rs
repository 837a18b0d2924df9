//! # l2q-graph — the reinforcement graph and its random walks
//!
//! The paper's utility-inference model (Sect. III–IV): pages, queries and
//! templates form a tripartite *reinforcement graph*; probabilistic
//! precision is the stationary distribution of the backward random walk
//! with restart, probabilistic recall of the forward walk, with the restart
//! probability α acting as utility regularization.
//!
//! Every edge weighs 1 (the paper's plain retrievability), so a degree is
//! a row length. The graph stores each adjacency direction as CSR
//! [`Rows`] with each edge's recall coefficient beside them, and the
//! fused context solver sweeps tables of the same layout.
//!
//! ```
//! use l2q_graph::{Phase, Regularization, ReinforcementGraph, Rows, solve, UtilityKind, WalkConfig};
//! // Two pages (the first relevant) and one query retrieving both: one
//! // page row and one (empty) template row per query.
//! let mut pages = Rows::with_capacity(1, 2);
//! pages.to.extend([0, 1]);
//! pages.end_row();
//! let mut templates = Rows::with_capacity(1, 0);
//! templates.end_row();
//! let g = ReinforcementGraph::from_unit_rows(2, 0, pages, templates);
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
pub use graph::{GraphBuilder, PageIdx, QueryIdx, ReinforcementGraph, Rows, TemplateIdx};
pub use solver::{
    solve, solve_detailed, Phase, Regularization, Utilities, UtilityKind, WalkConfig,
};
