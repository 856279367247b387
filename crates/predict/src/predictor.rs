//! End-to-end scaling predictor (§6.2.3): build pairwise scaling models
//! from a *reference* workload's observations across SKUs, then transfer
//! the learned scaling factor to a new workload that has only been
//! observed on a single SKU.

use wp_workloads::engine::Simulator;
use wp_workloads::sku::Sku;
use wp_workloads::spec::WorkloadSpec;

use crate::context::PairwiseScalingModel;
use crate::evaluation::ScalingData;
use crate::strategies::ModelStrategy;

/// Builds aligned [`ScalingData`] for one workload setting by simulating
/// `runs` repetitions on every SKU and splitting each run into `n_sub`
/// sub-experiments (the paper's 3 runs × 10 sub-samples = 30 observation
/// slots).
pub fn scaling_data_from_simulation(
    sim: &Simulator,
    spec: &WorkloadSpec,
    skus: &[Sku],
    terminals: usize,
    runs: usize,
    n_sub: usize,
) -> ScalingData {
    assert!(skus.len() >= 2, "need at least two SKUs");
    let mut levels: Vec<f64> = skus.iter().map(|s| s.cpus as f64).collect();
    let mut order: Vec<usize> = (0..skus.len()).collect();
    order.sort_by(|&a, &b| levels[a].partial_cmp(&levels[b]).unwrap());
    levels.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let mut values = Vec::with_capacity(skus.len());
    let mut groups = Vec::new();
    for (oi, &si) in order.iter().enumerate() {
        let mut level_values = Vec::with_capacity(runs * n_sub);
        for r in 0..runs {
            let obs = sim.observations(spec, &skus[si], terminals, r, r % 3, n_sub);
            for (s, &t) in obs.throughput.iter().enumerate() {
                level_values.push(t);
                if oi == 0 {
                    let _ = s;
                    groups.push(r % 3);
                }
            }
        }
        values.push(level_values);
    }
    let data = ScalingData {
        levels,
        values,
        groups,
    };
    data.validate();
    data
}

/// A fitted end-to-end scaling predictor built from a reference workload.
#[derive(Debug, Clone)]
pub struct ScalingPredictor {
    /// The reference workload whose scaling behaviour is transferred.
    pub reference_workload: String,
    /// The modeling strategy behind the pair models.
    pub strategy: ModelStrategy,
    model: PairwiseScalingModel,
}

impl ScalingPredictor {
    /// Fits pairwise models on the reference workload's scaling data.
    pub fn fit(
        reference_workload: impl Into<String>,
        strategy: ModelStrategy,
        data: &ScalingData,
    ) -> Self {
        data.validate();
        let model =
            PairwiseScalingModel::fit(strategy, &data.levels, &data.values, Some(&data.groups));
        Self {
            reference_workload: reference_workload.into(),
            strategy,
            model,
        }
    }

    /// Predicts a target workload's performance on `to_cpus` from its
    /// observed performance `observed` on `from_cpus`, using scale-free
    /// transfer of the reference workload's pair model.
    pub fn predict(&self, from_cpus: f64, to_cpus: f64, observed: f64) -> Option<f64> {
        self.model.predict_transfer(from_cpus, to_cpus, observed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_workloads::benchmarks;

    fn sim() -> Simulator {
        let mut s = Simulator::new(21);
        s.config.samples = 60;
        s
    }

    fn grid() -> Vec<Sku> {
        vec![
            Sku::new("cpu2", 2, 64.0),
            Sku::new("cpu4", 4, 64.0),
            Sku::new("cpu8", 8, 64.0),
        ]
    }

    #[test]
    fn scaling_data_is_aligned_and_plausible() {
        let sim = sim();
        let data = scaling_data_from_simulation(&sim, &benchmarks::tpcc(), &grid(), 8, 3, 10);
        assert_eq!(data.levels, vec![2.0, 4.0, 8.0]);
        assert_eq!(data.n_observations(), 30);
        // throughput grows with CPU level
        let means: Vec<f64> = data
            .values
            .iter()
            .map(|v| wp_linalg::stats::mean(v))
            .collect();
        assert!(means[1] > means[0] && means[2] > means[1], "{means:?}");
    }

    #[test]
    fn predictor_transfers_scaling_to_other_workload() {
        let sim = sim();
        let ref_data = scaling_data_from_simulation(&sim, &benchmarks::tpcc(), &grid(), 8, 3, 10);
        let predictor = ScalingPredictor::fit("TPC-C", ModelStrategy::Svm, &ref_data);

        // target: YCSB, observed at 2 CPUs, predicted at 8
        let ycsb = benchmarks::ycsb();
        let obs2 = sim.observations(&ycsb, &grid()[0], 8, 0, 0, 10);
        let observed = wp_linalg::stats::mean(&obs2.throughput);
        let predicted = predictor.predict(2.0, 8.0, observed).unwrap();

        let actual = sim.observations(&ycsb, &grid()[2], 8, 0, 0, 10);
        let actual_mean = wp_linalg::stats::mean(&actual.throughput);
        let err = (predicted - actual_mean).abs() / actual_mean;
        assert!(err < 0.6, "prediction {predicted} vs actual {actual_mean}");
        assert!(
            predicted > observed,
            "scaling up should increase throughput"
        );
    }

    #[test]
    fn unknown_pair_yields_none() {
        let sim = sim();
        let data = scaling_data_from_simulation(&sim, &benchmarks::tpcc(), &grid(), 8, 2, 5);
        let p = ScalingPredictor::fit("TPC-C", ModelStrategy::Regression, &data);
        assert!(p.predict(2.0, 16.0, 100.0).is_none());
    }
}
