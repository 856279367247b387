//! Multi-layer perceptron regressor.
//!
//! Mirrors the paper's NNet strategy: a scikit-learn style MLP regressor
//! (§6.1.2 uses a 6-layer MLP) trained with Adam on mini-batches of the
//! full dataset (the scaling datasets are tiny). The paper's own finding —
//! that the MLP is the *worst* Table 6 strategy on these small datasets —
//! is reproduced precisely because the model family is too flexible for 30
//! observations, so faithful behaviour matters more than accuracy here.

use wp_linalg::{Matrix, Rng64, StandardScaler};

use crate::traits::{check_fit_inputs, Regressor};

/// Activation applied to every hidden layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// tanh(x)
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    fn apply(&self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => wp_linalg::ops::sigmoid(x),
        }
    }

    /// Derivative expressed in terms of the activation *output* `a`.
    fn derivative_from_output(&self, a: f64) -> f64 {
        match self {
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - a * a,
            Activation::Sigmoid => a * (1.0 - a),
        }
    }
}

/// MLP hyper-parameters.
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Hidden layer widths; the paper's setup uses six hidden layers.
    pub hidden_layers: Vec<usize>,
    /// Hidden-layer activation.
    pub activation: Activation,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Full-batch epochs.
    pub epochs: usize,
    /// L2 weight decay.
    pub l2: f64,
    /// Weight-initialization seed.
    pub seed: u64,
    /// Standardize the target before training (and invert afterwards).
    ///
    /// scikit-learn's `MLPRegressor` — the paper's NNet — does *not*
    /// scale targets, which is a large part of why it fails on raw
    /// throughput values (Table 6); set this to `false` to reproduce that
    /// behaviour.
    pub standardize_target: bool,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            hidden_layers: vec![32, 32, 16, 16, 8, 8],
            activation: Activation::Relu,
            learning_rate: 1e-3,
            epochs: 300,
            l2: 1e-4,
            seed: 0,
            standardize_target: true,
        }
    }
}

/// One dense layer with Adam state.
#[derive(Debug, Clone)]
struct Layer {
    /// `out × in` weight matrix.
    w: Matrix,
    b: Vec<f64>,
    // Adam moments
    mw: Matrix,
    vw: Matrix,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Layer {
    fn new(n_in: usize, n_out: usize, rng: &mut Rng64) -> Self {
        // He-style initialization
        let scale = (2.0 / n_in as f64).sqrt();
        let mut w = Matrix::zeros(n_out, n_in);
        for r in 0..n_out {
            for c in 0..n_in {
                w[(r, c)] = rng.range(-scale, scale);
            }
        }
        Self {
            mw: Matrix::zeros(n_out, n_in),
            vw: Matrix::zeros(n_out, n_in),
            mb: vec![0.0; n_out],
            vb: vec![0.0; n_out],
            b: vec![0.0; n_out],
            w,
        }
    }

    fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut out = self.b.clone();
        for (r, o) in out.iter_mut().enumerate() {
            *o += wp_linalg::ops::dot(self.w.row(r), input);
        }
        out
    }
}

/// Multi-layer perceptron regressor trained with Adam.
#[derive(Debug, Clone)]
pub struct MlpRegressor {
    /// Hyper-parameters.
    pub config: MlpConfig,
    layers: Vec<Layer>,
    scaler: Option<StandardScaler>,
    y_offset: f64,
    y_scale: f64,
    adam_t: usize,
}

impl Default for MlpRegressor {
    fn default() -> Self {
        Self::new(MlpConfig::default())
    }
}

impl MlpRegressor {
    /// Creates an unfitted MLP with the given settings.
    pub fn new(config: MlpConfig) -> Self {
        assert!(
            !config.hidden_layers.is_empty(),
            "MLP needs at least one hidden layer"
        );
        assert!(
            config.hidden_layers.iter().all(|&w| w > 0),
            "hidden layer widths must be positive"
        );
        Self {
            config,
            layers: Vec::new(),
            scaler: None,
            y_offset: 0.0,
            y_scale: 1.0,
            adam_t: 0,
        }
    }

    /// Forward pass returning activations of every layer (input included).
    fn forward_all(&self, input: &[f64]) -> Vec<Vec<f64>> {
        let mut acts = vec![input.to_vec()];
        let n_layers = self.layers.len();
        for (li, layer) in self.layers.iter().enumerate() {
            let mut z = layer.forward(acts.last().unwrap());
            if li + 1 < n_layers {
                for v in &mut z {
                    *v = self.config.activation.apply(*v);
                }
            }
            acts.push(z);
        }
        acts
    }

    fn adam_step(t: usize, lr: f64, grad: f64, m: &mut f64, v: &mut f64, param: &mut f64) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        *m = B1 * *m + (1.0 - B1) * grad;
        *v = B2 * *v + (1.0 - B2) * grad * grad;
        let mh = *m / (1.0 - B1.powi(t as i32));
        let vh = *v / (1.0 - B2.powi(t as i32));
        *param -= lr * mh / (vh.sqrt() + EPS);
    }
}

impl Regressor for MlpRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        check_fit_inputs(x, y.len());
        let (scaler, xs) = StandardScaler::fit_transform(x);
        if self.config.standardize_target {
            self.y_offset = wp_linalg::stats::mean(y);
            let sd = wp_linalg::stats::stddev(y);
            self.y_scale = if sd > 0.0 { sd } else { 1.0 };
        } else {
            self.y_offset = 0.0;
            self.y_scale = 1.0;
        }
        let yn: Vec<f64> = y
            .iter()
            .map(|v| (v - self.y_offset) / self.y_scale)
            .collect();

        let mut rng = Rng64::new(self.config.seed);
        let mut sizes = vec![x.cols()];
        sizes.extend(&self.config.hidden_layers);
        sizes.push(1);
        self.layers = sizes
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], &mut rng))
            .collect();
        self.adam_t = 0;

        let n = xs.rows() as f64;
        for _ in 0..self.config.epochs {
            self.adam_t += 1;
            // Accumulate full-batch gradients.
            let mut gw: Vec<Matrix> = self
                .layers
                .iter()
                .map(|l| Matrix::zeros(l.w.rows(), l.w.cols()))
                .collect();
            let mut gb: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();

            for (r, target) in yn.iter().enumerate() {
                let acts = self.forward_all(xs.row(r));
                let output = acts.last().unwrap()[0];
                // dL/d output for squared loss (halved)
                let mut delta = vec![output - target];
                for li in (0..self.layers.len()).rev() {
                    let input_act = &acts[li];
                    // accumulate gradients for this layer
                    for (o, &d) in delta.iter().enumerate() {
                        gb[li][o] += d;
                        for (c, &a) in input_act.iter().enumerate() {
                            gw[li][(o, c)] += d * a;
                        }
                    }
                    if li == 0 {
                        break;
                    }
                    // propagate delta to the previous layer's activations
                    let mut new_delta = vec![0.0; self.layers[li].w.cols()];
                    for (o, &d) in delta.iter().enumerate() {
                        let wrow = self.layers[li].w.row(o);
                        for (c, nd) in new_delta.iter_mut().enumerate() {
                            *nd += d * wrow[c];
                        }
                    }
                    for (c, nd) in new_delta.iter_mut().enumerate() {
                        *nd *= self.config.activation.derivative_from_output(acts[li][c]);
                    }
                    delta = new_delta;
                }
            }

            // Adam update with weight decay.
            let t = self.adam_t;
            let lr = self.config.learning_rate;
            let l2 = self.config.l2;
            for (li, layer) in self.layers.iter_mut().enumerate() {
                for rr in 0..layer.w.rows() {
                    for cc in 0..layer.w.cols() {
                        let g = gw[li][(rr, cc)] / n + l2 * layer.w[(rr, cc)];
                        let (mut m, mut v, mut p) =
                            (layer.mw[(rr, cc)], layer.vw[(rr, cc)], layer.w[(rr, cc)]);
                        Self::adam_step(t, lr, g, &mut m, &mut v, &mut p);
                        layer.mw[(rr, cc)] = m;
                        layer.vw[(rr, cc)] = v;
                        layer.w[(rr, cc)] = p;
                    }
                }
                for (o, &g_raw) in gb[li].iter().enumerate() {
                    let g = g_raw / n;
                    let (mut m, mut v, mut p) = (layer.mb[o], layer.vb[o], layer.b[o]);
                    Self::adam_step(t, lr, g, &mut m, &mut v, &mut p);
                    layer.mb[o] = m;
                    layer.vb[o] = v;
                    layer.b[o] = p;
                }
            }
        }
        self.scaler = Some(scaler);
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        let scaler = self.scaler.as_ref().expect("predict called before fit");
        let xs = scaler.transform(x);
        xs.iter_rows()
            .map(|row| {
                let acts = self.forward_all(row);
                acts.last().unwrap()[0] * self.y_scale + self.y_offset
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;

    #[test]
    fn learns_linear_function() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 10.0]).collect();
        let x = Matrix::from_rows(&rows);
        let y: Vec<f64> = (0..40).map(|i| 2.0 * (i as f64 / 10.0) + 1.0).collect();
        let mut m = MlpRegressor::new(MlpConfig {
            hidden_layers: vec![16, 16],
            epochs: 800,
            learning_rate: 5e-3,
            ..MlpConfig::default()
        });
        m.fit(&x, &y);
        let pred = m.predict(&x);
        let range = 8.0;
        assert!(rmse(&y, &pred) / range < 0.1, "rmse {}", rmse(&y, &pred));
    }

    #[test]
    fn learns_nonlinear_function() {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 10.0]).collect();
        let x = Matrix::from_rows(&rows);
        let y: Vec<f64> = (0..60).map(|i| ((i as f64) / 10.0).powi(2)).collect();
        let mut m = MlpRegressor::new(MlpConfig {
            hidden_layers: vec![32, 32],
            epochs: 1500,
            learning_rate: 5e-3,
            ..MlpConfig::default()
        });
        m.fit(&x, &y);
        let pred = m.predict(&x);
        let baseline = rmse(&y, &vec![wp_linalg::stats::mean(&y); y.len()]);
        assert!(rmse(&y, &pred) < baseline * 0.3);
    }

    #[test]
    fn deterministic_given_seed() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0]]);
        let y = vec![1.0, 2.0, 3.0, 4.0];
        let cfg = MlpConfig {
            hidden_layers: vec![8],
            epochs: 50,
            ..MlpConfig::default()
        };
        let mut a = MlpRegressor::new(cfg.clone());
        a.fit(&x, &y);
        let mut b = MlpRegressor::new(cfg);
        b.fit(&x, &y);
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn six_layer_default_matches_paper_setup() {
        assert_eq!(MlpConfig::default().hidden_layers.len(), 6);
    }

    #[test]
    fn predictions_finite_on_tiny_dataset() {
        // Table 6 trains on ~24 points; the net must not blow up.
        let x = Matrix::from_rows(&[vec![2.0], vec![4.0], vec![8.0], vec![16.0]]);
        let y = vec![100.0, 180.0, 300.0, 420.0];
        let mut m = MlpRegressor::default();
        m.fit(&x, &y);
        let pred = m.predict(&x);
        assert!(pred.iter().all(|p| p.is_finite()), "{pred:?}");
    }

    #[test]
    #[should_panic(expected = "at least one hidden layer")]
    fn empty_hidden_layers_rejected() {
        let _ = MlpRegressor::new(MlpConfig {
            hidden_layers: vec![],
            ..MlpConfig::default()
        });
    }
}
