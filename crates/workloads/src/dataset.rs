//! Flattening experiment runs and observation sets into the matrices the
//! feature-selection and similarity stages consume.

use wp_linalg::stats::col_means;
use wp_linalg::Matrix;
use wp_telemetry::{ExperimentRun, FeatureId, PlanFeature, ResourceFeature, N_FEATURES};

use crate::engine::ObservationSet;

/// A labeled feature dataset: one row per observation, 29 columns in
/// global catalog order, a class label (workload index), and a regression
/// target (throughput).
#[derive(Debug, Clone)]
pub struct LabeledDataset {
    /// `n × 29` feature matrix.
    pub features: Matrix,
    /// Workload index per row (into `workload_names`).
    pub labels: Vec<usize>,
    /// Throughput target per row.
    pub throughput: Vec<f64>,
    /// Distinct workload names, indexed by label.
    pub workload_names: Vec<String>,
}

impl LabeledDataset {
    /// Builds the dataset from per-run observation sets; rows from the
    /// same workload share a label.
    pub fn from_observation_sets(sets: &[ObservationSet]) -> Self {
        let mut workload_names: Vec<String> = Vec::new();
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut labels = Vec::new();
        let mut throughput = Vec::new();
        for set in sets {
            let label = match workload_names.iter().position(|w| *w == set.workload) {
                Some(i) => i,
                None => {
                    workload_names.push(set.workload.clone());
                    workload_names.len() - 1
                }
            };
            for r in 0..set.features.rows() {
                rows.push(set.features.row(r).to_vec());
                labels.push(label);
                throughput.push(set.throughput[r]);
            }
        }
        Self {
            features: if rows.is_empty() {
                Matrix::zeros(0, N_FEATURES)
            } else {
                Matrix::from_rows(&rows)
            },
            labels,
            throughput,
            workload_names,
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.features.rows()
    }

    /// True when no observations are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Restricts the dataset to the given features (column subset), in
    /// the given order.
    pub fn select_features(&self, features: &[FeatureId]) -> LabeledDataset {
        let cols: Vec<usize> = features.iter().map(|f| f.global_index()).collect();
        LabeledDataset {
            features: self.features.select_cols(&cols),
            labels: self.labels.clone(),
            throughput: self.throughput.clone(),
            workload_names: self.workload_names.clone(),
        }
    }
}

/// Summarizes a run into one 29-dimensional aggregate vector: resource
/// features are means over the series, plan features are means over the
/// queries, each taken in one row-major pass and equal bit for bit to
/// the mean of its column. Stage 1 of the offline pipeline builds its
/// dataset from these; diagnostics and the quickstart example use them
/// too.
pub fn aggregate_run(run: &ExperimentRun) -> Vec<f64> {
    let mut v = Vec::with_capacity(N_FEATURES);
    v.extend_from_slice(&col_means(&run.resources.data)[..ResourceFeature::ALL.len()]);
    v.extend_from_slice(&col_means(&run.plans.data)[..PlanFeature::ALL.len()]);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;
    use crate::engine::Simulator;
    use crate::sku::Sku;
    use wp_telemetry::PlanFeature;

    fn sim() -> Simulator {
        let mut s = Simulator::new(3);
        s.config.samples = 40;
        s
    }

    #[test]
    fn dataset_assembles_labels_and_rows() {
        let sim = sim();
        let sku = Sku::new("cpu16", 16, 64.0);
        let sets = vec![
            sim.observations(&benchmarks::tpcc(), &sku, 8, 0, 0, 5),
            sim.observations(&benchmarks::tpch(), &sku, 1, 0, 0, 5),
            sim.observations(&benchmarks::tpcc(), &sku, 8, 1, 1, 5),
        ];
        let ds = LabeledDataset::from_observation_sets(&sets);
        assert_eq!(ds.len(), 15);
        assert_eq!(ds.workload_names, vec!["TPC-C", "TPC-H"]);
        assert_eq!(&ds.labels[0..5], &[0; 5]);
        assert_eq!(&ds.labels[5..10], &[1; 5]);
        assert_eq!(&ds.labels[10..15], &[0; 5]);
    }

    #[test]
    fn select_features_reorders_columns() {
        let sim = sim();
        let sku = Sku::new("cpu4", 4, 64.0);
        let sets = vec![sim.observations(&benchmarks::ycsb(), &sku, 8, 0, 0, 4)];
        let ds = LabeledDataset::from_observation_sets(&sets);
        let sub = ds.select_features(&[
            FeatureId::Plan(PlanFeature::AvgRowSize),
            FeatureId::Resource(ResourceFeature::CpuUtilization),
        ]);
        assert_eq!(sub.features.cols(), 2);
        let avg_row_idx = FeatureId::Plan(PlanFeature::AvgRowSize).global_index();
        assert_eq!(sub.features[(0, 0)], ds.features[(0, avg_row_idx)]);
        assert_eq!(sub.features[(0, 1)], ds.features[(0, 0)]);
    }

    #[test]
    fn aggregate_run_has_29_dims() {
        let sim = sim();
        let run = sim.simulate(&benchmarks::twitter(), &Sku::new("cpu2", 2, 64.0), 4, 0, 0);
        let agg = aggregate_run(&run);
        assert_eq!(agg.len(), 29);
        assert!(agg.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn aggregate_run_takes_each_feature_mean_bit_for_bit() {
        // The default serving corpus: TPC-C, TPC-H and Twitter, three
        // 360-sample runs each on both SKUs of the paper's pair.
        let sim = Simulator::new(0xEDB7_2025);
        let mut runs = Vec::new();
        for spec in [
            benchmarks::tpcc(),
            benchmarks::tpch(),
            benchmarks::twitter(),
        ] {
            let terminals = if spec.name == "TPC-H" { 1 } else { 8 };
            for sku in [Sku::new("cpu2", 2, 64.0), Sku::new("cpu8", 8, 64.0)] {
                runs.extend((0..3).map(|r| sim.simulate(&spec, &sku, terminals, r, r % 3)));
            }
        }
        // A column of -0.0 sums to -0.0 from `Iterator::sum`'s start.
        let mut zeroed = runs[0].clone();
        for row in 0..zeroed.resources.data.rows() {
            zeroed.resources.data[(row, 1)] = -0.0;
        }
        runs.push(zeroed);
        for run in &runs {
            let expected: Vec<u64> = ResourceFeature::ALL
                .iter()
                .map(|&f| wp_linalg::stats::mean(&run.resources.feature(f)))
                .chain(
                    PlanFeature::ALL
                        .iter()
                        .map(|&f| wp_linalg::stats::mean(&run.plans.feature(f))),
                )
                .map(f64::to_bits)
                .collect();
            let got: Vec<u64> = aggregate_run(run).into_iter().map(f64::to_bits).collect();
            assert_eq!(got, expected, "{:?}", run.key);
        }
        assert!(aggregate_run(&runs[runs.len() - 1])[1].is_sign_negative());
    }

    #[test]
    fn empty_dataset() {
        let ds = LabeledDataset::from_observation_sets(&[]);
        assert!(ds.is_empty());
        assert_eq!(ds.features.cols(), N_FEATURES);
    }
}
