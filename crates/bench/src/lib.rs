//! Shared setup for the experiment binaries (`src/bin/exp_*`).
//!
//! Every binary regenerates one table or figure from the paper, or one
//! committed trajectory (`exp_speedup`, `exp_index`, `exp_recommend`);
//! this library centralizes the corpus construction so all experiments
//! see the same simulated telemetry.

pub mod indexbench;
pub mod selection;
pub mod table3;

use wp_similarity::repr::extract;
use wp_telemetry::{ExperimentRun, FeatureId};
use wp_workloads::dataset::LabeledDataset;
use wp_workloads::engine::{paper_terminals, Simulator};
use wp_workloads::sku::Sku;
use wp_workloads::spec::WorkloadSpec;

/// Master seed shared by every experiment binary.
pub const MASTER_SEED: u64 = 0xEDB7_2025;

/// The default simulator (full 360-sample runs).
pub fn default_sim() -> Simulator {
    Simulator::new(MASTER_SEED)
}

/// A labeled run corpus: runs, workload label per run, and label names.
#[derive(Debug, Clone)]
pub struct RunCorpus {
    /// The simulated runs.
    pub runs: Vec<ExperimentRun>,
    /// Workload index per run.
    pub labels: Vec<usize>,
    /// Workload names, indexed by label.
    pub names: Vec<String>,
}

impl RunCorpus {
    /// Runs belonging to one workload label.
    pub fn runs_of(&self, label: usize) -> Vec<&ExperimentRun> {
        self.runs
            .iter()
            .zip(&self.labels)
            .filter(|(_, &l)| l == label)
            .map(|(r, _)| r)
            .collect()
    }
}

/// Simulates the identification corpus on one SKU: every workload in
/// `specs` with the paper's terminal policy, `runs` repetitions each.
pub fn corpus_on_sku(sim: &Simulator, specs: &[WorkloadSpec], sku: &Sku, runs: usize) -> RunCorpus {
    let mut out = RunCorpus {
        runs: Vec::new(),
        labels: Vec::new(),
        names: specs.iter().map(|s| s.name.clone()).collect(),
    };
    for (li, spec) in specs.iter().enumerate() {
        for &t in &paper_terminals(spec) {
            for r in 0..runs {
                out.runs.push(sim.simulate(spec, sku, t, r, r % 3));
                out.labels.push(li);
            }
        }
    }
    out
}

/// Like [`corpus_on_sku`] but with one fixed terminal count per workload
/// (TPC-H still runs serially), used by the similarity experiments that
/// compare one experiment per workload.
pub fn corpus_fixed_terminals(
    sim: &Simulator,
    specs: &[WorkloadSpec],
    sku: &Sku,
    terminals: usize,
    runs: usize,
) -> RunCorpus {
    let mut out = RunCorpus {
        runs: Vec::new(),
        labels: Vec::new(),
        names: specs.iter().map(|s| s.name.clone()).collect(),
    };
    for (li, spec) in specs.iter().enumerate() {
        let t = if spec.name == "TPC-H" { 1 } else { terminals };
        for r in 0..runs {
            out.runs.push(sim.simulate(spec, sku, t, r, r % 3));
            out.labels.push(li);
        }
    }
    out
}

/// Builds the feature-selection observation dataset on one SKU: per
/// workload × terminal count × run, ten sub-experiment observations.
pub fn observation_dataset(
    sim: &Simulator,
    specs: &[WorkloadSpec],
    sku: &Sku,
    runs: usize,
    n_sub: usize,
) -> LabeledDataset {
    let mut sets = Vec::new();
    for spec in specs {
        for &t in &paper_terminals(spec) {
            for r in 0..runs {
                sets.push(sim.observations(spec, sku, t, r, r % 3, n_sub));
            }
        }
    }
    LabeledDataset::from_observation_sets(&sets)
}

/// Extracts per-run feature data restricted to a feature list, for the
/// similarity experiments.
pub fn feature_data(
    runs: &[&ExperimentRun],
    features: &[FeatureId],
) -> Vec<wp_similarity::repr::RunFeatureData> {
    runs.iter().map(|r| extract(r, features)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_workloads::benchmarks;

    #[test]
    fn corpus_shape() {
        let mut sim = default_sim();
        sim.config.samples = 40;
        let specs = vec![benchmarks::tpcc(), benchmarks::tpch()];
        let sku = Sku::new("cpu16", 16, 64.0);
        let c = corpus_on_sku(&sim, &specs, &sku, 2);
        // TPC-C: 3 terminal counts × 2 runs; TPC-H: 1 × 2
        assert_eq!(c.runs.len(), 8);
        assert_eq!(c.runs_of(0).len(), 6);
        assert_eq!(c.names, vec!["TPC-C", "TPC-H"]);
    }

    #[test]
    fn observation_dataset_shape() {
        let mut sim = default_sim();
        sim.config.samples = 40;
        let specs = vec![benchmarks::twitter()];
        let ds = observation_dataset(&sim, &specs, &Sku::new("cpu4", 4, 64.0), 2, 5);
        // 3 terminal counts × 2 runs × 5 sub-experiments
        assert_eq!(ds.len(), 30);
    }
}
