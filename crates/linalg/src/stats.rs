//! Descriptive statistics and feature scalers.

use crate::matrix::Matrix;

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    a.iter().sum::<f64>() / a.len() as f64
}

/// Population variance (divide by `n`); `0.0` for fewer than 1 element.
pub fn variance(a: &[f64]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / a.len() as f64
}

/// Sample variance (divide by `n - 1`); `0.0` for fewer than 2 elements.
pub fn sample_variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (a.len() - 1) as f64
}

/// Population standard deviation.
pub fn stddev(a: &[f64]) -> f64 {
    variance(a).sqrt()
}

/// Population covariance of two equal-length slices.
pub fn covariance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "covariance length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    let ma = mean(a);
    let mb = mean(b);
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - ma) * (y - mb))
        .sum::<f64>()
        / a.len() as f64
}

/// Pearson correlation coefficient in `[-1, 1]`.
///
/// Returns `0.0` when either input is constant (undefined correlation),
/// which is the convention the paper's filter-based feature selection
/// needs: a constant feature carries no information about the target.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let sa = stddev(a);
    let sb = stddev(b);
    if sa == 0.0 || sb == 0.0 {
        return 0.0;
    }
    (covariance(a, b) / (sa * sb)).clamp(-1.0, 1.0)
}

/// Minimum; `NaN` elements are ignored, empty slice gives `f64::INFINITY`.
pub fn min(a: &[f64]) -> f64 {
    a.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(f64::INFINITY, f64::min)
}

/// Maximum; `NaN` elements are ignored, empty slice gives `f64::NEG_INFINITY`.
pub fn max(a: &[f64]) -> f64 {
    a.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Median (average of middle pair for even lengths); `0.0` if empty.
pub fn median(a: &[f64]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    let mut v = a.to_vec();
    v.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Linear-interpolation quantile, `q ∈ [0, 1]`.
pub fn quantile(a: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if a.is_empty() {
        return 0.0;
    }
    let mut v = a.to_vec();
    v.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Nearest-rank percentile over an ascending-sorted integer sample,
/// `p ∈ [0, 100]`; `0` for an empty slice.
///
/// The load generator's report uses it: the value at rank `⌈p/100 · n⌉`
/// (1-based), so every reported percentile is an actually observed
/// sample, never an interpolation. `wp-server`'s `/stats` takes the
/// same rank over its latency histogram's buckets.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Column-wise means of a matrix, in one row-major pass. Each column
/// is summed in row order from the value `Iterator::sum` starts at, so
/// `col_means(m)[c]` equals `mean(&m.col(c))` bit for bit, the sign of
/// an all-`-0.0` column's zero included.
pub fn col_means(m: &Matrix) -> Vec<f64> {
    if m.rows() == 0 {
        return vec![0.0; m.cols()];
    }
    let mut out = vec![std::iter::empty::<f64>().sum::<f64>(); m.cols()];
    for row in m.iter_rows() {
        for (o, &x) in out.iter_mut().zip(row) {
            *o += x;
        }
    }
    for o in &mut out {
        *o /= m.rows() as f64;
    }
    out
}

/// Column-wise population standard deviations of a matrix.
pub fn col_stddevs(m: &Matrix) -> Vec<f64> {
    let means = col_means(m);
    let mut out = vec![0.0; m.cols()];
    if m.rows() == 0 {
        return out;
    }
    for row in m.iter_rows() {
        for ((o, &x), &mu) in out.iter_mut().zip(row).zip(&means) {
            *o += (x - mu) * (x - mu);
        }
    }
    for o in &mut out {
        *o = (*o / m.rows() as f64).sqrt();
    }
    out
}

/// Z-score scaler fit on training data, reusable on new data.
///
/// Constant columns (σ = 0) are mapped to zero rather than NaN.
#[derive(Debug, Clone)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Learns per-column mean and standard deviation.
    pub fn fit(m: &Matrix) -> Self {
        Self {
            means: col_means(m),
            stds: col_stddevs(m),
        }
    }

    /// Applies the learned transform, returning a new matrix.
    pub fn transform(&self, m: &Matrix) -> Matrix {
        assert_eq!(m.cols(), self.means.len(), "scaler column mismatch");
        let mut out = m.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for (j, x) in row.iter_mut().enumerate() {
                *x = if self.stds[j] > 0.0 {
                    (*x - self.means[j]) / self.stds[j]
                } else {
                    0.0
                };
            }
        }
        out
    }

    /// Fit + transform in one call.
    pub fn fit_transform(m: &Matrix) -> (Self, Matrix) {
        let s = Self::fit(m);
        let t = s.transform(m);
        (s, t)
    }

    /// Learned column means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Learned column standard deviations.
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }
}

/// Min-max scaler mapping each column into `[0, 1]`.
///
/// The paper normalizes each feature's value space to `[0, 1]` using the
/// observed min/max before histogramming (§4.3); this type implements that
/// normalization with train/apply separation.
#[derive(Debug, Clone)]
pub struct MinMaxScaler {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl MinMaxScaler {
    /// Learns per-column min and max.
    pub fn fit(m: &Matrix) -> Self {
        let mut mins = vec![f64::INFINITY; m.cols()];
        let mut maxs = vec![f64::NEG_INFINITY; m.cols()];
        for row in m.iter_rows() {
            for j in 0..row.len() {
                mins[j] = mins[j].min(row[j]);
                maxs[j] = maxs[j].max(row[j]);
            }
        }
        if m.rows() == 0 {
            mins.iter_mut().for_each(|v| *v = 0.0);
            maxs.iter_mut().for_each(|v| *v = 1.0);
        }
        Self { mins, maxs }
    }

    /// Applies the learned transform; values outside the training range are
    /// clamped to `[0, 1]`, and constant columns map to `0.0`.
    pub fn transform(&self, m: &Matrix) -> Matrix {
        assert_eq!(m.cols(), self.mins.len(), "scaler column mismatch");
        let mut out = m.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for (j, x) in row.iter_mut().enumerate() {
                let range = self.maxs[j] - self.mins[j];
                *x = if range > 0.0 {
                    ((*x - self.mins[j]) / range).clamp(0.0, 1.0)
                } else {
                    0.0
                };
            }
        }
        out
    }

    /// Fit + transform in one call.
    pub fn fit_transform(m: &Matrix) -> (Self, Matrix) {
        let s = Self::fit(m);
        let t = s.transform(m);
        (s, t)
    }

    /// Learned column minima.
    pub fn mins(&self) -> &[f64] {
        &self.mins
    }

    /// Learned column maxima.
    pub fn maxs(&self) -> &[f64] {
        &self.maxs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let a = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&a) - 5.0).abs() < 1e-12);
        assert!((variance(&a) - 4.0).abs() < 1e-12);
        assert!((stddev(&a) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sample_variance_bessel() {
        let a = [1.0, 2.0, 3.0];
        assert!((sample_variance(&a) - 1.0).abs() < 1e-12);
        assert_eq!(sample_variance(&[5.0]), 0.0);
    }

    #[test]
    fn pearson_perfect_and_constant() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        let c = [5.0, 3.0, 1.0, -1.0];
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&a, &[1.0; 4]), 0.0);
    }

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&a, 0.0), 1.0);
        assert_eq!(quantile(&a, 1.0), 5.0);
        assert_eq!(quantile(&a, 0.5), 3.0);
        assert!((quantile(&a, 0.25) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_matches_definition() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&sorted, 50.0), 50);
        assert_eq!(nearest_rank(&sorted, 95.0), 95);
        assert_eq!(nearest_rank(&sorted, 99.0), 99);
        assert_eq!(nearest_rank(&sorted, 100.0), 100);
        assert_eq!(nearest_rank(&sorted, 0.0), 1);
        assert_eq!(nearest_rank(&[7], 50.0), 7);
        assert_eq!(nearest_rank(&[], 99.0), 0);
    }

    #[test]
    fn min_max_ignore_nan() {
        assert_eq!(min(&[3.0, f64::NAN, 1.0]), 1.0);
        assert_eq!(max(&[3.0, f64::NAN, 1.0]), 3.0);
    }

    #[test]
    fn column_stats() {
        let m = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 10.0]]);
        assert_eq!(col_means(&m), vec![2.0, 10.0]);
        // Each column's mean is `mean` of the column, bit for bit: an
        // all -0.0 column keeps its sign, a mixed one does not.
        let zeros = Matrix::from_rows(&[vec![-0.0, -0.0], vec![-0.0, 0.0]]);
        for (c, got) in col_means(&zeros).into_iter().enumerate() {
            assert_eq!(got.to_bits(), mean(&zeros.col(c)).to_bits(), "column {c}");
        }
        assert!(col_means(&zeros)[0].is_sign_negative());
        let s = col_stddevs(&m);
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert_eq!(s[1], 0.0);
    }

    #[test]
    fn standard_scaler_centers_and_scales() {
        let m = Matrix::from_rows(&[vec![1.0, 5.0], vec![3.0, 5.0]]);
        let (_, t) = StandardScaler::fit_transform(&m);
        assert!((t[(0, 0)] + 1.0).abs() < 1e-12);
        assert!((t[(1, 0)] - 1.0).abs() < 1e-12);
        // constant column maps to zero
        assert_eq!(t[(0, 1)], 0.0);
    }

    #[test]
    fn minmax_scaler_unit_interval_and_clamp() {
        let m = Matrix::from_rows(&[vec![0.0], vec![10.0]]);
        let (s, t) = MinMaxScaler::fit_transform(&m);
        assert_eq!(t[(0, 0)], 0.0);
        assert_eq!(t[(1, 0)], 1.0);
        let unseen = Matrix::from_rows(&[vec![20.0], vec![-5.0]]);
        let u = s.transform(&unseen);
        assert_eq!(u[(0, 0)], 1.0);
        assert_eq!(u[(1, 0)], 0.0);
    }
}
