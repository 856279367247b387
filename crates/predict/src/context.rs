//! Modeling contexts (§6.1.1): single vs pairwise scaling models.
//!
//! A **single** model fits one curve `performance = f(#CPUs)` across the
//! whole SKU range. A **pairwise** model fits, for every ordered SKU pair
//! `(a, b)`, a map from performance observed on `a` to performance on `b`
//! — the paper's preferred context (Insight 5), because the transition
//! between *specific* hardware configurations deviates from any single
//! smooth curve.

use std::collections::HashMap;

use wp_linalg::Matrix;

use crate::strategies::{FittedModel, ModelStrategy};

/// Which modeling context to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelContext {
    /// One model over all SKUs.
    Single,
    /// One model per ordered SKU pair.
    Pairwise,
}

impl ModelContext {
    /// Display label matching Table 6.
    pub fn label(self) -> &'static str {
        match self {
            ModelContext::Single => "Single",
            ModelContext::Pairwise => "Pairwise",
        }
    }
}

/// A single scaling model: `performance = f(cpus)`.
#[derive(Debug, Clone)]
pub struct SingleScalingModel {
    /// The strategy that produced `model`.
    pub strategy: ModelStrategy,
    model: FittedModel,
}

impl SingleScalingModel {
    /// Fits on `(cpus, value)` observations with optional data groups.
    pub fn fit(
        strategy: ModelStrategy,
        cpus: &[f64],
        values: &[f64],
        groups: Option<&[usize]>,
    ) -> Self {
        assert_eq!(cpus.len(), values.len(), "one value per cpu observation");
        assert!(!cpus.is_empty(), "need training data");
        let x = Matrix::column_vector(cpus);
        let model = strategy.fit(&x, values, groups);
        Self { strategy, model }
    }

    /// Predicts the performance at a CPU count.
    pub fn predict(&self, cpus: f64) -> f64 {
        self.model.predict(&Matrix::column_vector(&[cpus]))[0]
    }
}

/// Integer key for a CPU level (levels are small integers in practice).
fn level_key(cpus: f64) -> u32 {
    cpus.round() as u32
}

/// A set of pairwise scaling models, one per ordered `(from, to)` pair of
/// CPU levels.
#[derive(Debug, Clone)]
pub struct PairwiseScalingModel {
    /// The strategy behind every pair model.
    pub strategy: ModelStrategy,
    models: HashMap<(u32, u32), FittedModel>,
    /// Mean training input per pair, used for scale-free transfer.
    train_means: HashMap<(u32, u32), f64>,
}

impl PairwiseScalingModel {
    /// Fits pair models from aligned per-level observations.
    ///
    /// `levels[i]` is a CPU count and `values[i]` its observation vector;
    /// all vectors must be aligned (observation `j` of every level stems
    /// from the same run/sub-sample) and equally long. A model is fit for
    /// every ordered pair with `from != to`.
    pub fn fit(
        strategy: ModelStrategy,
        levels: &[f64],
        values: &[Vec<f64>],
        groups: Option<&[usize]>,
    ) -> Self {
        assert_eq!(levels.len(), values.len(), "one value vector per level");
        assert!(levels.len() >= 2, "pairwise context needs >= 2 levels");
        let n = values[0].len();
        assert!(n > 0, "need observations");
        for v in values {
            assert_eq!(v.len(), n, "observation vectors must be aligned");
        }
        if let Some(g) = groups {
            assert_eq!(g.len(), n, "one group per observation");
        }

        let mut models = HashMap::new();
        let mut train_means = HashMap::new();
        for (i, &from) in levels.iter().enumerate() {
            for (j, &to) in levels.iter().enumerate() {
                if i == j {
                    continue;
                }
                let x = Matrix::column_vector(&values[i]);
                let fitted = strategy.fit(&x, &values[j], groups);
                let key = (level_key(from), level_key(to));
                models.insert(key, fitted);
                train_means.insert(key, wp_linalg::stats::mean(&values[i]));
            }
        }
        Self {
            strategy,
            models,
            train_means,
        }
    }

    /// The ordered pairs with fitted models.
    pub fn pairs(&self) -> Vec<(u32, u32)> {
        let mut p: Vec<(u32, u32)> = self.models.keys().copied().collect();
        p.sort_unstable();
        p
    }

    /// Direct regression prediction: performance on `to` given the
    /// observed performance `value` on `from`. `None` when the pair has no
    /// model.
    pub fn predict_value(&self, from: f64, to: f64, value: f64) -> Option<f64> {
        let m = self.models.get(&(level_key(from), level_key(to)))?;
        Some(m.predict(&Matrix::column_vector(&[value]))[0])
    }

    /// Scale-free transfer (§6.2.3): evaluates the pair model's scaling
    /// *factor* at its training regime and applies that factor to `value`.
    ///
    /// This is what makes a pairwise model trained on workload A (e.g.
    /// TPC-C) usable for workload B (e.g. YCSB) whose absolute throughput
    /// is different: the model contributes the ratio, the new workload
    /// contributes the level.
    ///
    /// A same-level transfer (`from == to` after rounding) is the
    /// identity: no pair model exists (fitting skips `i == j`), and the
    /// only consistent scaling factor is 1.
    pub fn predict_transfer(&self, from: f64, to: f64, value: f64) -> Option<f64> {
        if level_key(from) == level_key(to) {
            return Some(value);
        }
        let key = (level_key(from), level_key(to));
        let m = self.models.get(&key)?;
        let x_ref = self.train_means[&key];
        if x_ref == 0.0 {
            return None;
        }
        let y_ref = m.predict(&Matrix::column_vector(&[x_ref]))[0];
        Some(value * (y_ref / x_ref))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Aligned observations at levels 2/4/8 with a known 1.5× per-step
    /// scaling factor and small observation spread.
    fn data() -> (Vec<f64>, Vec<Vec<f64>>, Vec<usize>) {
        let levels = vec![2.0, 4.0, 8.0];
        let base: Vec<f64> = (0..12).map(|i| 100.0 + i as f64).collect();
        let values = vec![
            base.clone(),
            base.iter().map(|v| v * 1.5).collect(),
            base.iter().map(|v| v * 2.25).collect(),
        ];
        let groups: Vec<usize> = (0..12).map(|i| i % 3).collect();
        (levels, values, groups)
    }

    #[test]
    fn single_model_tracks_curve() {
        let cpus: Vec<f64> = vec![2.0, 4.0, 8.0, 2.0, 4.0, 8.0];
        let vals = vec![100.0, 150.0, 225.0, 102.0, 148.0, 223.0];
        let m = SingleScalingModel::fit(ModelStrategy::Regression, &cpus, &vals, None);
        let p4 = m.predict(4.0);
        assert!((p4 - 150.0).abs() < 20.0, "p4 = {p4}");
    }

    #[test]
    fn pairwise_fits_all_ordered_pairs() {
        let (levels, values, groups) = data();
        let m =
            PairwiseScalingModel::fit(ModelStrategy::Regression, &levels, &values, Some(&groups));
        assert_eq!(m.pairs().len(), 6);
        assert!(m.pairs().contains(&(2, 8)));
        assert!(m.pairs().contains(&(8, 2)));
    }

    #[test]
    fn pairwise_predicts_known_ratio() {
        let (levels, values, groups) = data();
        let m =
            PairwiseScalingModel::fit(ModelStrategy::Regression, &levels, &values, Some(&groups));
        let p = m.predict_value(2.0, 8.0, 105.0).unwrap();
        assert!((p - 105.0 * 2.25).abs() < 2.0, "p = {p}");
    }

    #[test]
    fn transfer_is_scale_free() {
        let (levels, values, groups) = data();
        let m = PairwiseScalingModel::fit(ModelStrategy::Svm, &levels, &values, Some(&groups));
        // apply the 2→8 factor (2.25×) to a workload with 10× the volume
        let p = m.predict_transfer(2.0, 8.0, 1000.0).unwrap();
        assert!((p - 2250.0).abs() < 200.0, "p = {p}");
    }

    #[test]
    fn unknown_pair_returns_none() {
        let (levels, values, _) = data();
        let m = PairwiseScalingModel::fit(ModelStrategy::Regression, &levels, &values, None);
        assert!(m.predict_value(2.0, 16.0, 100.0).is_none());
        assert!(m.predict_transfer(3.0, 8.0, 100.0).is_none());
    }

    #[test]
    fn context_labels() {
        assert_eq!(ModelContext::Single.label(), "Single");
        assert_eq!(ModelContext::Pairwise.label(), "Pairwise");
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_observations_rejected() {
        let levels = vec![2.0, 4.0];
        let values = vec![vec![1.0, 2.0], vec![1.0]];
        let _ = PairwiseScalingModel::fit(ModelStrategy::Regression, &levels, &values, None);
    }
}
