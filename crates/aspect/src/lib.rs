//! # l2q-aspect — aspect classifiers materializing the target function Y
//!
//! The paper models the target aspect as a relevance function `Y : P → {1,0}`
//! and materializes it with one pre-trained paragraph classifier per aspect,
//! whose output the evaluation then treats as ground truth (Sect. VI-A,
//! Fig. 9). This crate provides:
//!
//! * [`Logistic`] — a maximum-entropy model, the non-sequential core of the
//!   paper's CRF classifiers (paragraph classification is not a sequence-
//!   labelling task, so the linear-chain structure contributes nothing);
//! * [`trainer`] — per-aspect training over a corpus with held-out
//!   accuracy (reproducing Fig. 9's accuracy column);
//! * [`RelevanceOracle`] — the materialized Y: page-level relevance for
//!   every (aspect, page) pair, from models or from generator truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classifier;
pub mod logistic;
pub mod oracle;
pub mod trainer;

pub use classifier::{accuracy, prf, BinaryClassifier, Example, Prf};
pub use logistic::{Logistic, LogisticParams};
pub use oracle::RelevanceOracle;
pub use trainer::{train_aspect_models, train_one, AspectModel, TrainConfig};
