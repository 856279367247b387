//! Workload similarity computation (§5).
//!
//! Two sub-problems, mirroring the paper's decomposition:
//!
//! * **Data representation** — [`repr`] extracts per-feature observation
//!   series from experiment runs and builds the three representations:
//!   raw multivariate time-series ([`repr::mts`]), histogram-based
//!   fingerprints ([`histfp`]), and phase-level statistical fingerprints
//!   ([`phasefp`], backed by Bayesian online change-point detection in
//!   [`bcpd`]). The [`fingerprinter::Fingerprinter`] strategy trait puts
//!   the three behind one joint / corpus-stable construction interface.
//! * **Similarity computation** — [`norms`] implements the matrix norms
//!   (L1,1 / L2,1 / Frobenius / Canberra / Chi² / Correlation), [`dtw`]
//!   and [`lcss`] the elastic time-series measures (dependent and
//!   independent variants), and [`measure`] the unified dispatch enum.
//!
//! [`robustness`] provides the noise / outlier / missing-data injectors
//! behind the robustness dimension, and [`eval`] scores a similarity method along the paper's three dimensions:
//! reliability (1-NN accuracy, mAP), discrimination power (NDCG), and
//! robustness (spread across repeated runs).

#![warn(missing_docs)]

pub mod bcpd;
pub mod cluster;
pub mod dtw;
pub mod eval;
pub mod fingerprinter;
pub mod histfp;
pub mod lcss;
pub mod measure;
pub mod norms;
pub mod phasefp;
pub mod repr;
pub mod robustness;

pub use eval::{mean_average_precision, ndcg, one_nn_accuracy};
pub use fingerprinter::{fingerprinter, fitted, FingerprintConfig, Fingerprinter};
pub use measure::{try_distance_matrix, Measure, Norm};
pub use repr::Representation;
