//! From-scratch supervised learning substrate.
//!
//! This crate replaces the scikit-learn / R model zoo the paper's study is
//! built on. Each model family used anywhere in the evaluation has a
//! dedicated module:
//!
//! * [`linreg`] — ordinary least squares, ridge, and polynomial regression.
//! * [`lasso`] — Lasso and Elastic-Net coordinate descent plus
//!   regularization paths (Figure 3).
//! * [`logreg`] — binary and one-vs-rest multinomial logistic regression
//!   (the estimator behind `RFE LogReg` / `SFS LogReg`).
//! * [`tree`] — CART decision trees (regressor and classifier) with
//!   impurity-based feature importances.
//! * [`forest`] — random forests (bagging + feature subsampling).
//! * [`gbm`] — least-squares gradient boosting.
//! * [`svm`] — ε-SVR trained with SMO, linear and RBF kernels.
//! * [`mlp`] — multi-layer perceptron regressor (Adam optimizer).
//! * [`mars`] — multivariate adaptive regression splines.
//! * [`lmm`] — linear mixed-effects model (random intercept + slope per
//!   group).
//! * [`pca`] — principal component analysis (the Appendix C
//!   dimensionality-reduction alternative to feature selection).
//! * [`info`] — mutual information and one-way ANOVA F statistics for the
//!   filter-based feature selectors.
//! * [`metrics`], [`cv`] — evaluation metrics (RMSE/NRMSE/MAPE/R²/accuracy)
//!   and k-fold cross-validation.

#![warn(missing_docs)]

pub mod cv;
pub mod forest;
pub mod gbm;
pub mod info;
pub mod lasso;
pub mod linreg;
pub mod lmm;
pub mod logreg;
pub mod mars;
pub mod metrics;
pub mod mlp;
pub mod pca;
pub mod svm;
pub mod traits;
pub mod tree;

pub use traits::{Classifier, Regressor};
pub use wp_linalg::Matrix;
