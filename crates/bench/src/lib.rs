//! # l2q-bench — the benchmark harness regenerating every figure/table of
//! the paper
//!
//! One binary per experiment (see DESIGN.md §4):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig09_aspects` | Fig. 9 — aspect frequency & classifier accuracy |
//! | `fig10_validation` | Fig. 10 — domain & context awareness ablations |
//! | `fig11_domain_size` | Fig. 11 — effect of domain size |
//! | `fig12_precision_recall` | Fig. 12 — precision/recall vs #queries |
//! | `fig13_fscore` | Fig. 13 — F-score of L2QBAL vs baselines |
//! | `fig14_timing` | Fig. 14 — selection vs fetch time |
//!
//! Beyond the paper's figures:
//!
//! | Binary | Purpose |
//! |---|---|
//! | `ablation_study` | design-choice ablations (balance, λ, α, templates) |
//! | `seed_mode_study` | hard vs soft seed focusing |
//!
//! All binaries accept `--quick` (small corpus, 1 split), `--paper-scale`
//! (the paper's 996/143 entities × 50 pages), `--seed N` and
//! `--splits N`. The default is a laptop-scale configuration whose
//! *orderings* reproduce the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod opts;

pub use harness::{build_domain, DomainKind, DomainSetup};
pub use opts::BenchOpts;
