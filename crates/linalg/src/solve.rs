//! Linear system solvers: Cholesky for SPD systems, Householder QR for
//! general least squares, and a ridge-stabilized `lstsq` convenience used
//! throughout `wp-ml`.

use crate::matrix::Matrix;

/// Error raised when a Cholesky factorization encounters a non-positive
/// pivot, i.e. the input was not (numerically) positive definite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CholeskyError {
    /// Index of the failing pivot.
    pub pivot: usize,
}

impl std::fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not positive definite (non-positive pivot at {})",
            self.pivot
        )
    }
}

impl std::error::Error for CholeskyError {}

/// Computes the lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// `a` must be square and symmetric positive definite.
pub fn cholesky(a: &Matrix) -> Result<Matrix, CholeskyError> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "cholesky requires a square matrix");
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(CholeskyError { pivot: i });
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Solves `A x = b` for symmetric positive definite `A` via Cholesky.
pub fn cholesky_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, CholeskyError> {
    let l = cholesky(a)?;
    let n = a.rows();
    assert_eq!(b.len(), n, "rhs length mismatch");
    // forward solve L y = b
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[(i, k)] * y[k];
        }
        y[i] = sum / l[(i, i)];
    }
    // back solve Lᵀ x = y
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in i + 1..n {
            sum -= l[(k, i)] * x[k];
        }
        x[i] = sum / l[(i, i)];
    }
    Ok(x)
}

/// Solves the least-squares problem `min ‖X β − y‖₂` via Householder QR.
///
/// Works for any `rows ≥ cols` full-column-rank `X`. Rank deficiency
/// surfaces as a tiny diagonal in `R`; callers that cannot guarantee full
/// rank should prefer [`lstsq`], which adds a small ridge.
pub fn qr_solve(x: &Matrix, y: &[f64]) -> Vec<f64> {
    let m = x.rows();
    let n = x.cols();
    assert!(m >= n, "qr_solve needs rows >= cols ({m} < {n})");
    assert_eq!(y.len(), m, "rhs length mismatch");

    // Householder QR applied simultaneously to X (stored in r) and y (in qty)
    let mut r = x.clone();
    let mut qty = y.to_vec();
    for k in 0..n {
        // Build the Householder vector for column k below the diagonal.
        let mut alpha = 0.0;
        for i in k..m {
            alpha += r[(i, k)] * r[(i, k)];
        }
        let mut alpha = alpha.sqrt();
        if alpha == 0.0 {
            continue; // column already zero below the diagonal
        }
        if r[(k, k)] > 0.0 {
            alpha = -alpha;
        }
        let mut v = vec![0.0; m - k];
        v[0] = r[(k, k)] - alpha;
        for i in k + 1..m {
            v[i - k] = r[(i, k)];
        }
        let vnorm2: f64 = v.iter().map(|a| a * a).sum();
        if vnorm2 == 0.0 {
            continue;
        }
        // Apply H = I - 2 v vᵀ / (vᵀ v) to the trailing columns of r.
        for j in k..n {
            let mut s = 0.0;
            for i in k..m {
                s += v[i - k] * r[(i, j)];
            }
            let f = 2.0 * s / vnorm2;
            for i in k..m {
                r[(i, j)] -= f * v[i - k];
            }
        }
        // ... and to the rhs.
        let mut s = 0.0;
        for i in k..m {
            s += v[i - k] * qty[i];
        }
        let f = 2.0 * s / vnorm2;
        for i in k..m {
            qty[i] -= f * v[i - k];
        }
    }

    // Back substitution on the upper-triangular R.
    let mut beta = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = qty[i];
        for j in i + 1..n {
            sum -= r[(i, j)] * beta[j];
        }
        let d = r[(i, i)];
        beta[i] = if d.abs() < 1e-12 { 0.0 } else { sum / d };
    }
    beta
}

/// Least squares with a tiny ridge for numerical robustness.
///
/// Solves `(XᵀX + λI) β = Xᵀ y` with `λ = ridge`. With `ridge = 0` this
/// falls back to QR. This is the default solver for the regression models:
/// collinear telemetry features (e.g. `CPU_UTILIZATION` vs
/// `CPU_EFFECTIVE`) frequently make the plain normal equations singular.
pub fn lstsq(x: &Matrix, y: &[f64], ridge: f64) -> Vec<f64> {
    assert_eq!(x.rows(), y.len(), "lstsq dimension mismatch");
    if ridge == 0.0 && x.rows() >= x.cols() {
        return qr_solve(x, y);
    }
    let mut g = x.gram();
    for i in 0..g.rows() {
        g[(i, i)] += ridge;
    }
    let rhs = x.t_matvec(y);
    match cholesky_solve(&g, &rhs) {
        Ok(beta) => beta,
        Err(_) => {
            // escalate the ridge until the system becomes SPD
            let mut lambda = ridge.max(1e-8);
            for _ in 0..12 {
                lambda *= 10.0;
                let mut g2 = x.gram();
                for i in 0..g2.rows() {
                    g2[(i, i)] += lambda;
                }
                if let Ok(beta) = cholesky_solve(&g2, &rhs) {
                    return beta;
                }
            }
            vec![0.0; x.cols()]
        }
    }
}

/// Solves a general square system `A x = b` by Gaussian elimination with
/// partial pivoting. Returns `None` when `A` is numerically singular.
pub fn lu_solve(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "lu_solve requires a square matrix");
    assert_eq!(b.len(), n, "rhs length mismatch");
    let mut m = a.clone();
    let mut x = b.to_vec();
    for k in 0..n {
        // partial pivot
        let mut p = k;
        for i in k + 1..n {
            if m[(i, k)].abs() > m[(p, k)].abs() {
                p = i;
            }
        }
        if m[(p, k)].abs() < 1e-14 {
            return None;
        }
        if p != k {
            for j in 0..n {
                let t = m[(k, j)];
                m[(k, j)] = m[(p, j)];
                m[(p, j)] = t;
            }
            x.swap(k, p);
        }
        for i in k + 1..n {
            let f = m[(i, k)] / m[(k, k)];
            if f == 0.0 {
                continue;
            }
            for j in k..n {
                let v = m[(k, j)];
                m[(i, j)] -= f * v;
            }
            x[i] -= f * x[k];
        }
    }
    for i in (0..n).rev() {
        let mut sum = x[i];
        for j in i + 1..n {
            sum -= m[(i, j)] * x[j];
        }
        x[i] = sum / m[(i, i)];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd() -> Matrix {
        // A = Bᵀ B + I is SPD for any B
        let b = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let mut g = b.gram();
        g[(0, 0)] += 1.0;
        g[(1, 1)] += 1.0;
        g
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd();
        let l = cholesky(&a).unwrap();
        let rec = l.matmul(&l.transpose());
        for i in 0..2 {
            for j in 0..2 {
                assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert!(cholesky(&a).is_err());
    }

    #[test]
    fn cholesky_solve_roundtrip() {
        let a = spd();
        let x_true = vec![2.0, -1.0];
        let b = a.matvec(&x_true);
        let x = cholesky_solve(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] + 1.0).abs() < 1e-10);
    }

    #[test]
    fn qr_solves_exact_system() {
        let x = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 2.0], vec![1.0, 3.0]]);
        let y = vec![6.0, 8.0, 10.0]; // y = 4 + 2 t
        let beta = qr_solve(&x, &y);
        assert!((beta[0] - 4.0).abs() < 1e-10, "{beta:?}");
        assert!((beta[1] - 2.0).abs() < 1e-10, "{beta:?}");
    }

    #[test]
    fn qr_least_squares_residual_is_orthogonal() {
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
        ]);
        let y = vec![1.0, 2.0, 2.0, 4.0];
        let beta = qr_solve(&x, &y);
        let pred = x.matvec(&beta);
        let resid: Vec<f64> = y.iter().zip(&pred).map(|(a, b)| a - b).collect();
        // residual must be orthogonal to the column space
        let xt_r = x.t_matvec(&resid);
        assert!(xt_r.iter().all(|v| v.abs() < 1e-9), "{xt_r:?}");
    }

    #[test]
    fn lstsq_handles_collinear_columns() {
        // second column is an exact copy of the first
        let x = Matrix::from_rows(&[
            vec![1.0, 1.0],
            vec![2.0, 2.0],
            vec![3.0, 3.0],
            vec![4.0, 4.0],
        ]);
        let y = vec![2.0, 4.0, 6.0, 8.0];
        let beta = lstsq(&x, &y, 1e-6);
        let pred = x.matvec(&beta);
        for (p, t) in pred.iter().zip(&y) {
            assert!((p - t).abs() < 1e-3, "{beta:?} -> {pred:?}");
        }
    }

    #[test]
    fn lu_solve_general_system() {
        let a = Matrix::from_rows(&[vec![0.0, 2.0], vec![1.0, 1.0]]); // needs pivoting
        let x = lu_solve(&a, &[4.0, 3.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lu_solve_singular_returns_none() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(lu_solve(&a, &[1.0, 2.0]).is_none());
    }
}
