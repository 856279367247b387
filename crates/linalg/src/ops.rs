//! Slice-level vector kernels.
//!
//! These free functions operate on `&[f64]` so the ML crates can use them
//! on matrix rows, columns, and plain vectors alike without conversions.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance between two points.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sq_dist length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// `y ← y + alpha * x` (BLAS `axpy`).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scales `x` in place by `alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Element-wise difference `a - b` as a new vector.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Element-wise sum `a + b` as a new vector.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Soft-thresholding operator `sign(z) * max(|z| - gamma, 0)` used by the
/// Lasso / elastic-net coordinate-descent updates.
#[inline]
pub fn soft_threshold(z: f64, gamma: f64) -> f64 {
    if z > gamma {
        z - gamma
    } else if z < -gamma {
        z + gamma
    } else {
        0.0
    }
}

/// Logistic sigmoid, numerically stable for large `|x|`.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Index of the maximum element; ties broken toward the lower index.
///
/// Returns `None` for an empty slice.
pub fn argmax(a: &[f64]) -> Option<usize> {
    if a.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, &x) in a.iter().enumerate().skip(1) {
        if x > a[best] {
            best = i;
        }
    }
    Some(best)
}

/// Index of the minimum element; ties broken toward the lower index.
pub fn argmin(a: &[f64]) -> Option<usize> {
    if a.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, &x) in a.iter().enumerate().skip(1) {
        if x < a[best] {
            best = i;
        }
    }
    Some(best)
}

/// Indices that would sort `a` descending (stable).
pub fn argsort_desc(a: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..a.len()).collect();
    idx.sort_by(|&i, &j| a[j].partial_cmp(&a[i]).unwrap_or(std::cmp::Ordering::Equal));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn distances() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(-0.5, 1.0), 0.0);
    }

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        let x = 2.3;
        assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arg_extrema() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmin(&[1.0, 3.0, 0.5]), Some(2));
        assert_eq!(argmax(&[]), None);
        // ties go to the first occurrence
        assert_eq!(argmax(&[2.0, 2.0]), Some(0));
    }

    #[test]
    fn argsort_orders() {
        assert_eq!(argsort_desc(&[3.0, 1.0, 2.0]), vec![0, 2, 1]);
    }
}
