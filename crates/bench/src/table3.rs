//! The Table 3 study. `exp_table3` prints Table 3 from it and classifies
//! its accuracy curves for Figure 4.

use std::time::Instant;

use wp_featsel::aggregate::aggregate_rankings;
use wp_featsel::evaluate::subset_accuracy;
use wp_featsel::wrapper::WrapperConfig;
use wp_featsel::Strategy;
use wp_telemetry::FeatureId;
use wp_workloads::benchmarks;
use wp_workloads::engine::Simulator;
use wp_workloads::sku::Sku;

use crate::{corpus_on_sku, observation_dataset, RunCorpus};

/// One Table 3 row.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// The strategy behind this row.
    pub strategy: Strategy,
    /// `(k, accuracy)` for k ∈ {1, 3, 7, 15}.
    pub curve: Vec<(usize, f64)>,
    /// Selection wall-clock time in seconds.
    pub seconds: f64,
}

/// The full Table 3 result.
#[derive(Debug, Clone)]
pub struct Table3Result {
    /// All strategy rows, Table 3 order.
    pub rows: Vec<Table3Row>,
    /// Accuracy when all 29 features are used.
    pub all_features_accuracy: f64,
    /// Number of runs in the identification corpus.
    pub n_runs: usize,
}

/// The Table 3 top-k grid.
pub const TABLE3_KS: [usize; 4] = [1, 3, 7, 15];

/// Runs the complete Table 3 study on the given SKU.
pub fn run_table3(sim: &Simulator, sku: &Sku, runs: usize) -> Table3Result {
    let specs = benchmarks::standardized();
    let corpus: RunCorpus = corpus_on_sku(sim, &specs, sku, runs);
    let ds = observation_dataset(sim, &specs, sku, runs, 10);
    let universe = FeatureId::all();
    let config = WrapperConfig::default();

    let all_features_accuracy = subset_accuracy(&corpus.runs, &corpus.labels, &universe);

    let rows = Strategy::all()
        .into_iter()
        .map(|strategy| {
            let t0 = Instant::now();
            let mut rankings = Vec::new();
            for r in 0..runs {
                let idx: Vec<usize> = (0..ds.len()).filter(|i| (i / 10) % runs == r).collect();
                let x = ds.features.select_rows(&idx);
                let labels: Vec<usize> = idx.iter().map(|&i| ds.labels[i]).collect();
                rankings.push(strategy.rank(&x, &labels, &universe, &config));
            }
            let agg = aggregate_rankings(&rankings);
            let seconds = t0.elapsed().as_secs_f64();
            let curve = TABLE3_KS
                .iter()
                .map(|&k| {
                    (
                        k,
                        subset_accuracy(&corpus.runs, &corpus.labels, &agg.top_k(k)),
                    )
                })
                .collect();
            Table3Row {
                strategy,
                curve,
                seconds,
            }
        })
        .collect();

    Table3Result {
        rows,
        all_features_accuracy,
        n_runs: corpus.runs.len(),
    }
}
