//! # l2q-eval — the paper's evaluation methodology
//!
//! * [`metrics`] — actual precision/recall/F of gathered pages per
//!   (entity, aspect).
//! * [`ideal`] — the infeasible ideal-solution selector used as the
//!   normalization upper bound.
//! * [`protocol`] — the split protocol: half the entities become domain
//!   entities, the rest split into validation/test, repeated randomly.
//! * [`methods`] — the method table: every selector by name, and whether
//!   it sees the domain model.
//! * [`runner`] — prepare a split, harvest every test pair with a method
//!   on every core, normalize against the ideal, cross-validate r0 on the
//!   validation split.
//! * [`report`] — table rendering for the figure binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ideal;
pub mod methods;
pub mod metrics;
pub mod protocol;
pub mod report;
pub mod runner;

pub use ideal::IdealSelector;
pub use methods::Method;
pub use metrics::{page_metrics, Metrics, MetricsAccumulator};
pub use protocol::{make_splits, Split};
pub use report::{render_table, Series};
pub use runner::{merge_method_evals, IterStats, MethodEval, SplitEval};
