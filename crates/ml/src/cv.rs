//! K-fold cross-validation.
//!
//! The paper performs 5-fold cross-validation for every Table 6 model
//! (§6.2); the splitter here is deterministic given a seed so experiments
//! are reproducible run-to-run.

use wp_linalg::{Matrix, Rng64};

use crate::traits::Regressor;

/// Deterministic k-fold splitter.
#[derive(Debug, Clone)]
pub struct KFold {
    /// Number of folds (≥ 2).
    pub k: usize,
    /// Shuffle seed; `None` keeps the original order.
    pub seed: Option<u64>,
}

impl KFold {
    /// Creates a shuffled k-fold splitter.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k >= 2, "k-fold needs k >= 2");
        Self {
            k,
            seed: Some(seed),
        }
    }

    /// Produces `(train_indices, test_indices)` pairs, one per fold.
    ///
    /// Every sample appears in exactly one test fold; fold sizes differ by
    /// at most one.
    pub fn split(&self, n: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
        assert!(
            n >= self.k,
            "cannot split {n} samples into {} folds",
            self.k
        );
        let mut idx: Vec<usize> = (0..n).collect();
        if let Some(seed) = self.seed {
            Rng64::new(seed).shuffle(&mut idx);
        }
        let base = n / self.k;
        let extra = n % self.k;
        let mut folds = Vec::with_capacity(self.k);
        let mut start = 0;
        for f in 0..self.k {
            let size = base + usize::from(f < extra);
            let test: Vec<usize> = idx[start..start + size].to_vec();
            let train: Vec<usize> = idx[..start]
                .iter()
                .chain(&idx[start + size..])
                .copied()
                .collect();
            folds.push((train, test));
            start += size;
        }
        folds
    }
}

/// Score returned by [`cross_validate`] for a single fold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoldScore {
    /// Fold index `0..k`.
    pub fold: usize,
    /// Metric value on the held-out fold.
    pub score: f64,
}

/// Runs k-fold cross-validation of `model` on `(x, y)` with `metric`
/// evaluated on each held-out fold (e.g. [`crate::metrics::nrmse`]).
///
/// `make_model` is called once per fold so each fold trains a fresh model.
/// Folds are evaluated in parallel on the `wp_runtime` pool; scores come
/// back in fold order, identical to the sequential loop.
pub fn cross_validate<M: Regressor>(
    make_model: impl Fn() -> M + Sync,
    x: &Matrix,
    y: &[f64],
    kfold: &KFold,
    metric: impl Fn(&[f64], &[f64]) -> f64 + Sync,
) -> Vec<FoldScore> {
    assert_eq!(x.rows(), y.len(), "cross_validate dimension mismatch");
    let folds = kfold.split(x.rows());
    wp_runtime::par_map_indexed(folds.len(), |fold| {
        let (train, test) = &folds[fold];
        let x_train = x.select_rows(train);
        let y_train: Vec<f64> = train.iter().map(|&i| y[i]).collect();
        let x_test = x.select_rows(test);
        let y_test: Vec<f64> = test.iter().map(|&i| y[i]).collect();
        let mut model = make_model();
        model.fit(&x_train, &y_train);
        let pred = model.predict(&x_test);
        FoldScore {
            fold,
            score: metric(&y_test, &pred),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linreg::LinearRegression;

    #[test]
    fn folds_partition_all_samples() {
        let kf = KFold::new(5, 7);
        let folds = kf.split(23);
        assert_eq!(folds.len(), 5);
        let mut seen = [false; 23];
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), 23);
            for &i in test {
                assert!(!seen[i], "sample {i} appears in two test folds");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fold_sizes_balanced() {
        let kf = KFold::new(4, 0);
        let folds = kf.split(10);
        let sizes: Vec<usize> = folds.iter().map(|(_, t)| t.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3));
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let a = KFold::new(3, 42).split(9);
        let b = KFold::new(3, 42).split(9);
        assert_eq!(a, b);
        let c = KFold::new(3, 43).split(9);
        assert_ne!(a, c);
    }

    #[test]
    fn cross_validation_on_exact_linear_data_scores_zero_error() {
        // y = 3x + 1, perfectly linear, so each fold should fit exactly.
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let x = Matrix::from_rows(&rows);
        let y: Vec<f64> = (0..20).map(|i| 3.0 * i as f64 + 1.0).collect();
        let scores = cross_validate(
            LinearRegression::new,
            &x,
            &y,
            &KFold::new(5, 1),
            crate::metrics::rmse,
        );
        assert_eq!(scores.len(), 5);
        let mean = scores.iter().map(|s| s.score).sum::<f64>() / 5.0;
        assert!(mean < 1e-8, "scores: {scores:?}");
    }

    #[test]
    #[should_panic(expected = "k-fold needs k >= 2")]
    fn kfold_rejects_k1() {
        let _ = KFold::new(1, 0);
    }
}
