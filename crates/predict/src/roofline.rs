//! Roofline-augmented prediction (Appendix B / Figure 12).
//!
//! A plain linear model extrapolates past the hardware's performance
//! ceiling; the Roofline model clips the prediction at the ceiling,
//! producing the piecewise-linear "blue line" of Figure 12: throughput
//! grows with CPUs while the workload is compute-bound and flattens once
//! memory becomes the bottleneck.

use wp_linalg::Matrix;
use wp_ml::linreg::LinearRegression;
use wp_ml::traits::Regressor;

/// A linear scaling model clipped at a performance ceiling.
#[derive(Debug, Clone)]
pub struct RooflineModel {
    /// The unclipped linear component.
    pub linear: LinearRegression,
    /// The performance ceiling (e.g. the memory-bound throughput).
    pub ceiling: f64,
}

impl RooflineModel {
    /// Fits the linear component on `(cpus, value)` points and installs
    /// the given ceiling.
    pub fn fit(cpus: &[f64], values: &[f64], ceiling: f64) -> Self {
        assert!(ceiling > 0.0, "ceiling must be positive");
        assert_eq!(cpus.len(), values.len(), "one value per cpu point");
        let x = Matrix::column_vector(cpus);
        let mut linear = LinearRegression::new();
        linear.fit(&x, values);
        Self { linear, ceiling }
    }

    /// Unclipped linear prediction.
    pub fn predict_linear(&self, cpus: f64) -> f64 {
        self.linear.predict(&Matrix::column_vector(&[cpus]))[0]
    }

    /// Roofline prediction: the linear component clipped at the ceiling.
    pub fn predict(&self, cpus: f64) -> f64 {
        self.predict_linear(cpus).min(self.ceiling)
    }

    /// The CPU count where the linear component meets the ceiling — the
    /// compute-bound → memory-bound crossover (the Figure 12 "knee").
    pub fn knee(&self) -> Option<f64> {
        let slope = *self.linear.coefficients.first()?;
        if slope <= 0.0 {
            return None;
        }
        Some((self.ceiling - self.linear.intercept) / slope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> RooflineModel {
        // throughput = 50·cpus measured on 1..3 CPUs, ceiling at 150
        RooflineModel::fit(&[1.0, 2.0, 3.0], &[50.0, 100.0, 150.0], 150.0)
    }

    #[test]
    fn below_knee_is_linear() {
        let m = model();
        assert!((m.predict(2.0) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn above_knee_is_clipped() {
        let m = model();
        // Figure 12's point: 4 CPUs predicts the same as 3 CPUs
        assert!((m.predict(4.0) - 150.0).abs() < 1e-6);
        assert!((m.predict(4.0) - m.predict(3.0)).abs() < 1e-6);
        // the unclipped line keeps growing (and would be wrong)
        assert!(m.predict_linear(4.0) > 190.0);
    }

    #[test]
    fn knee_location() {
        let m = model();
        let k = m.knee().unwrap();
        assert!((k - 3.0).abs() < 1e-6, "knee at {k}");
    }

    #[test]
    fn flat_line_has_no_knee() {
        let m = RooflineModel::fit(&[1.0, 2.0, 3.0], &[100.0, 100.0, 100.0], 200.0);
        assert!(m.knee().is_none());
    }

    #[test]
    #[should_panic(expected = "ceiling must be positive")]
    fn invalid_ceiling_rejected() {
        let _ = RooflineModel::fit(&[1.0], &[1.0], 0.0);
    }
}
