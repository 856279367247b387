//! Principal component analysis (Appendix C).
//!
//! The paper discusses dimensionality reduction (PCA/SVD) as the
//! alternative to feature selection and notes its drawbacks: components
//! mix the original predictors (losing interpretability) and the
//! projection ignores the modeling objective. This implementation lets
//! `exp_appendix_pca` quantify that trade-off.
//!
//! Eigendecomposition of the covariance matrix is computed with the
//! cyclic Jacobi method — exact enough for the ≤ 29-dimensional telemetry
//! covariance matrices this crate encounters.

use wp_linalg::{Matrix, StandardScaler};

/// A fitted PCA transform.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Number of retained components.
    pub n_components: usize,
    /// Component matrix: `n_components × n_features`, rows are unit-norm
    /// principal directions, strongest first.
    pub components: Matrix,
    /// Variance explained by each retained component.
    pub explained_variance: Vec<f64>,
    scaler: StandardScaler,
}

/// Jacobi eigendecomposition of a symmetric matrix: returns
/// `(eigenvalues, eigenvectors)` with eigenvectors in columns, sorted by
/// descending eigenvalue.
fn symmetric_eigen(a: &Matrix) -> (Vec<f64>, Matrix) {
    let n = a.rows();
    assert_eq!(n, a.cols(), "need a square matrix");
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    for _sweep in 0..100 {
        // largest off-diagonal element
        let mut off = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                off += m[(i, j)] * m[(i, j)];
            }
        }
        if off.sqrt() < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                if m[(p, q)].abs() < 1e-14 {
                    continue;
                }
                let theta = (m[(q, q)] - m[(p, p)]) / (2.0 * m[(p, q)]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // rotate rows/cols p and q
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m[(i, i)], i)).collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let eigenvalues: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
        for r in 0..n {
            vectors[(r, new_col)] = v[(r, old_col)];
        }
    }
    (eigenvalues, vectors)
}

impl Pca {
    /// Fits PCA on standardized data, retaining `n_components`.
    ///
    /// # Panics
    ///
    /// Panics when `n_components` exceeds the feature count or the input
    /// is empty.
    pub fn fit(x: &Matrix, n_components: usize) -> Self {
        assert!(x.rows() > 1, "PCA needs at least two samples");
        assert!(
            (1..=x.cols()).contains(&n_components),
            "n_components must be in 1..=n_features"
        );
        let (scaler, xs) = StandardScaler::fit_transform(x);
        // covariance of standardized data = correlation matrix
        let cov = xs.gram().scale(1.0 / (x.rows() as f64 - 1.0));
        let (eigenvalues, vectors) = symmetric_eigen(&cov);
        let mut components = Matrix::zeros(n_components, x.cols());
        for c in 0..n_components {
            for f in 0..x.cols() {
                components[(c, f)] = vectors[(f, c)];
            }
        }
        Self {
            n_components,
            components,
            explained_variance: eigenvalues.into_iter().take(n_components).collect(),
            scaler,
        }
    }

    /// Projects data into the component space (`rows × n_components`).
    pub fn transform(&self, x: &Matrix) -> Matrix {
        let xs = self.scaler.transform(x);
        xs.matmul(&self.components.transpose())
    }

    /// Fraction of total variance captured by the retained components
    /// (total = feature count on standardized data).
    pub fn explained_variance_ratio(&self) -> Vec<f64> {
        let total = self.components.cols() as f64;
        self.explained_variance.iter().map(|v| v / total).collect()
    }

    /// The |loading| of each original feature on component `c` — what a
    /// practitioner must inspect to interpret a component (the Appendix C
    /// interpretability complaint: this mixes all features).
    pub fn loadings(&self, c: usize) -> Vec<f64> {
        assert!(c < self.n_components, "component out of range");
        self.components.row(c).iter().map(|v| v.abs()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_linalg::Rng64;

    /// Data with variance concentrated along (1, 1, 0).
    fn correlated_data(n: usize) -> Matrix {
        let mut rng = Rng64::new(5);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let t: f64 = rng.range(-3.0, 3.0);
                vec![
                    t + rng.range(-0.1, 0.1),
                    t + rng.range(-0.1, 0.1),
                    rng.range(-0.3, 0.3),
                ]
            })
            .collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn first_component_captures_correlated_direction() {
        let x = correlated_data(200);
        let pca = Pca::fit(&x, 2);
        let c0 = pca.components.row(0);
        // direction ≈ (±1/√2, ±1/√2, 0)
        assert!((c0[0].abs() - 0.707).abs() < 0.05, "{c0:?}");
        assert!((c0[1].abs() - 0.707).abs() < 0.05, "{c0:?}");
        assert!(c0[2].abs() < 0.2, "{c0:?}");
    }

    #[test]
    fn explained_variance_is_descending_and_dominant() {
        let x = correlated_data(200);
        let pca = Pca::fit(&x, 3);
        let ev = &pca.explained_variance;
        assert!(ev[0] >= ev[1] && ev[1] >= ev[2]);
        let ratio = pca.explained_variance_ratio();
        assert!(ratio[0] > 0.5, "{ratio:?}");
        let total: f64 = ratio.iter().sum();
        assert!(
            (total - 1.0).abs() < 0.05,
            "standardized total ≈ 1: {total}"
        );
    }

    #[test]
    fn components_are_orthonormal() {
        let x = correlated_data(100);
        let pca = Pca::fit(&x, 3);
        for i in 0..3 {
            let ri = pca.components.row(i);
            let norm: f64 = ri.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-8, "row {i} norm {norm}");
            for j in i + 1..3 {
                let dot = wp_linalg::ops::dot(ri, pca.components.row(j));
                assert!(dot.abs() < 1e-8, "rows {i},{j} not orthogonal: {dot}");
            }
        }
    }

    #[test]
    fn transform_shape_and_variance_ordering() {
        let x = correlated_data(150);
        let pca = Pca::fit(&x, 2);
        let t = pca.transform(&x);
        assert_eq!(t.shape(), (150, 2));
        let v0 = wp_linalg::stats::variance(&t.col(0));
        let v1 = wp_linalg::stats::variance(&t.col(1));
        assert!(v0 > v1);
    }

    #[test]
    fn loadings_mix_features() {
        // the Appendix C point: a component loads on several features
        let x = correlated_data(100);
        let pca = Pca::fit(&x, 1);
        let loadings = pca.loadings(0);
        let active = loadings.iter().filter(|l| **l > 0.3).count();
        assert!(active >= 2, "component should mix features: {loadings:?}");
    }

    #[test]
    #[should_panic(expected = "n_components must be in")]
    fn too_many_components_rejected() {
        let x = correlated_data(10);
        let _ = Pca::fit(&x, 4);
    }
}
