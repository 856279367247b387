//! Least-squares gradient boosting with CART regression trees
//! (Friedman 2001/2002), the best-performing Table 6 strategy.
//!
//! Each stage fits a shallow tree to the current residuals and adds a
//! shrunken copy to the ensemble; optional stochastic row subsampling
//! implements the "stochastic gradient boosting" variant.

use wp_linalg::{Matrix, Rng64};

use crate::traits::{check_fit_inputs, Regressor};
use crate::tree::{DecisionTreeRegressor, TreeConfig};

/// Gradient-boosting hyper-parameters.
#[derive(Debug, Clone)]
pub struct GradientBoostingConfig {
    /// Number of boosting stages.
    pub n_estimators: usize,
    /// Shrinkage applied to each stage's contribution.
    pub learning_rate: f64,
    /// Row subsampling fraction per stage (1.0 = deterministic boosting).
    pub subsample: f64,
    /// Weak-learner settings (depth 3 by default).
    pub tree: TreeConfig,
    /// Subsampling seed.
    pub seed: u64,
}

impl Default for GradientBoostingConfig {
    fn default() -> Self {
        Self {
            n_estimators: 100,
            learning_rate: 0.1,
            subsample: 1.0,
            tree: TreeConfig {
                max_depth: 3,
                ..TreeConfig::default()
            },
            seed: 0,
        }
    }
}

/// Gradient-boosted regression trees.
#[derive(Debug, Clone, Default)]
pub struct GradientBoostingRegressor {
    /// Hyper-parameters.
    pub config: GradientBoostingConfig,
    base_prediction: f64,
    stages: Vec<DecisionTreeRegressor>,
}

impl GradientBoostingRegressor {
    /// Creates an unfitted booster with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an unfitted booster with the given settings.
    pub fn with_config(config: GradientBoostingConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }
}

impl Regressor for GradientBoostingRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        check_fit_inputs(x, y.len());
        assert!(
            self.config.subsample > 0.0 && self.config.subsample <= 1.0,
            "subsample must be in (0, 1]"
        );
        self.base_prediction = wp_linalg::stats::mean(y);
        self.stages = Vec::with_capacity(self.config.n_estimators);
        let mut rng = Rng64::new(self.config.seed);
        let mut current = vec![self.base_prediction; x.rows()];
        let n_sub = ((x.rows() as f64) * self.config.subsample).ceil() as usize;

        for stage in 0..self.config.n_estimators {
            // Negative gradient of squared loss = residual.
            let residuals: Vec<f64> = y.iter().zip(&current).map(|(t, c)| t - c).collect();
            let (xs, rs): (Matrix, Vec<f64>) = if n_sub < x.rows() {
                let mut idx: Vec<usize> = (0..x.rows()).collect();
                rng.shuffle(&mut idx);
                idx.truncate(n_sub);
                (
                    x.select_rows(&idx),
                    idx.iter().map(|&i| residuals[i]).collect(),
                )
            } else {
                (x.clone(), residuals)
            };
            let mut tree = DecisionTreeRegressor::with_config(TreeConfig {
                seed: self.config.seed.wrapping_add(stage as u64),
                ..self.config.tree.clone()
            });
            tree.fit(&xs, &rs);
            for (c, p) in current.iter_mut().zip(tree.predict(x)) {
                *c += self.config.learning_rate * p;
            }
            self.stages.push(tree);
        }
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        assert!(!self.stages.is_empty(), "predict called before fit");
        let mut out = vec![self.base_prediction; x.rows()];
        for tree in &self.stages {
            for (o, p) in out.iter_mut().zip(tree.predict(x)) {
                *o += self.config.learning_rate * p;
            }
        }
        out
    }

    fn feature_importances(&self) -> Option<Vec<f64>> {
        let per_stage: Vec<Vec<f64>> = self
            .stages
            .iter()
            .filter_map(|t| t.feature_importances())
            .collect();
        if per_stage.is_empty() {
            return None;
        }
        let p = per_stage[0].len();
        let mut out = vec![0.0; p];
        for imp in &per_stage {
            for (o, v) in out.iter_mut().zip(imp) {
                *o += v;
            }
        }
        let total: f64 = out.iter().sum();
        if total > 0.0 {
            for o in &mut out {
                *o /= total;
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;

    fn noisy_sine(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = Rng64::new(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let t = i as f64 / n as f64 * 6.0;
            rows.push(vec![t]);
            y.push(t.sin() * 3.0 + rng.range(-0.05, 0.05));
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn boosting_fits_nonlinear_function() {
        let (x, y) = noisy_sine(200, 1);
        let mut gb = GradientBoostingRegressor::new();
        gb.fit(&x, &y);
        assert!(rmse(&y, &gb.predict(&x)) < 0.3);
    }

    #[test]
    fn subsampled_boosting_still_learns() {
        let (x, y) = noisy_sine(200, 3);
        let mut gb = GradientBoostingRegressor::with_config(GradientBoostingConfig {
            subsample: 0.6,
            ..GradientBoostingConfig::default()
        });
        gb.fit(&x, &y);
        assert!(rmse(&y, &gb.predict(&x)) < 0.5);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = noisy_sine(100, 4);
        let cfg = GradientBoostingConfig {
            subsample: 0.7,
            seed: 11,
            n_estimators: 20,
            ..GradientBoostingConfig::default()
        };
        let mut a = GradientBoostingRegressor::with_config(cfg.clone());
        a.fit(&x, &y);
        let mut b = GradientBoostingRegressor::with_config(cfg);
        b.fit(&x, &y);
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn importances_sum_to_one() {
        let (x, y) = noisy_sine(100, 5);
        let mut gb = GradientBoostingRegressor::new();
        gb.fit(&x, &y);
        let imp = gb.feature_importances().unwrap();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "subsample must be in (0, 1]")]
    fn invalid_subsample_rejected() {
        let (x, y) = noisy_sine(50, 6);
        let mut gb = GradientBoostingRegressor::with_config(GradientBoostingConfig {
            subsample: 0.0,
            ..GradientBoostingConfig::default()
        });
        gb.fit(&x, &y);
    }
}
