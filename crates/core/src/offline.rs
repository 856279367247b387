//! Offline pipeline: the three stages over *pre-collected* telemetry.
//!
//! [`Pipeline`](crate::Pipeline) drives the simulator; deployments that
//! collect their own telemetry (via `wp_telemetry::io` or any custom
//! collector) instead assemble an [`OfflineCorpus`] of reference runs and
//! call [`run_offline`]. The stages are identical — only the telemetry
//! source differs.

use std::sync::Arc;

use wp_featsel::aggregate::aggregate_rankings;
use wp_featsel::Ranking;
use wp_predict::context::PairwiseScalingModel;
use wp_telemetry::{ExperimentRun, FeatureId, N_FEATURES};
use wp_workloads::dataset::{aggregate_run, LabeledDataset};
use wp_workloads::engine::ObservationSet;

use crate::pipeline::{find_most_similar, PipelineConfig, PipelineOutcome, SimilarityVerdict};

/// Pre-collected reference telemetry for one workload: repeated runs on
/// the source SKU plus aligned run pairs across the `(from, to)` SKU pair
/// (same run index measured on both).
#[derive(Debug, Clone)]
pub struct OfflineReference {
    /// Workload name.
    pub name: String,
    /// Runs on the *source* SKU (used for similarity).
    pub runs_from: Vec<ExperimentRun>,
    /// Runs on the *destination* SKU, aligned with `runs_from` by index
    /// (used for the scaling model).
    pub runs_to: Vec<ExperimentRun>,
}

impl OfflineReference {
    /// The reference's scaling observations, aligned by run index: the
    /// throughputs on the source SKU, those on the destination SKU, and
    /// each pair's data group (read off its source run).
    pub fn scaling_pairs(&self) -> (Vec<f64>, Vec<f64>, Vec<usize>) {
        let throughputs = |runs: &[ExperimentRun]| runs.iter().map(|r| r.throughput).collect();
        (
            throughputs(&self.runs_from),
            throughputs(&self.runs_to),
            self.runs_from.iter().map(|r| r.key.data_group).collect(),
        )
    }

    /// Validates alignment and every run. Non-panicking so long-running
    /// consumers (the `wp-server` HTTP service) can map a bad corpus to a
    /// client error instead of killing a worker thread.
    ///
    /// Rejected adversarial shapes, each with a structured message naming
    /// the reference and run: mismatched from/to SKU pair counts, and any
    /// run [`ExperimentRun::validate`] rejects (zero-length series, wrong
    /// column counts, non-finite samples or throughput, …).
    pub fn validate(&self) -> Result<(), String> {
        if self.runs_from.is_empty() {
            return Err(format!("{}: needs runs", self.name));
        }
        if self.runs_from.len() != self.runs_to.len() {
            return Err(format!(
                "{}: from/to runs must be aligned ({} vs {})",
                self.name,
                self.runs_from.len(),
                self.runs_to.len()
            ));
        }
        for (side, runs) in [("runs_from", &self.runs_from), ("runs_to", &self.runs_to)] {
            for (i, run) in runs.iter().enumerate() {
                run.validate()
                    .map_err(|e| format!("{}: {side}[{i}]: {e}", self.name))?;
            }
        }
        Ok(())
    }
}

/// A corpus of offline references.
///
/// Each reference sits behind an [`Arc`], so a clone of the corpus, and
/// every index or engine built from it, shares one copy of each run.
/// Change one reference through [`Arc::make_mut`], which copies it only
/// while it is shared.
#[derive(Debug, Clone, Default)]
pub struct OfflineCorpus {
    /// One entry per reference workload.
    pub references: Vec<Arc<OfflineReference>>,
}

impl OfflineCorpus {
    /// Validates every reference (see [`OfflineReference::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.references.is_empty() {
            return Err("corpus needs references".to_string());
        }
        let mut names = std::collections::HashSet::new();
        for r in &self.references {
            r.validate()?;
            if !names.insert(r.name.as_str()) {
                return Err(format!("{}: duplicate reference name", r.name));
            }
        }
        Ok(())
    }
}

/// Builds a feature-selection dataset from the corpus: one aggregate
/// observation per reference run (resource means over the series, plan
/// means over the queries), labeled by workload.
fn corpus_dataset(corpus: &OfflineCorpus) -> LabeledDataset {
    let sets: Vec<ObservationSet> = corpus
        .references
        .iter()
        .map(|r| {
            let rows: Vec<Vec<f64>> = r.runs_from.iter().map(aggregate_run).collect();
            ObservationSet {
                workload: r.name.clone(),
                features: wp_linalg::Matrix::from_rows(&rows),
                throughput: r.runs_from.iter().map(|run| run.throughput).collect(),
            }
        })
        .collect();
    LabeledDataset::from_observation_sets(&sets)
}

/// Stage 1 on offline telemetry: one ranking per run index (aggregated),
/// falling back to a single pooled ranking when runs are too few.
///
/// Returns `Err` when the corpus fails [`OfflineCorpus::validate`].
pub fn select_features_offline(
    corpus: &OfflineCorpus,
    config: &PipelineConfig,
) -> Result<Vec<FeatureId>, String> {
    corpus.validate()?;
    let ds = corpus_dataset(corpus);
    let universe = FeatureId::all();
    assert_eq!(ds.features.cols(), N_FEATURES);
    let ranking: Ranking =
        config
            .selection
            .rank(&ds.features, &ds.labels, &universe, &config.wrapper);
    Ok(aggregate_rankings(&[ranking]).top_k(config.top_k))
}

/// Runs the full offline pipeline: select features on the corpus, find
/// the reference most similar to `target_runs_from`, fit that reference's
/// pairwise scaling model from its aligned run pairs, and transfer the
/// factor to the target's observed throughput.
///
/// `from_cpus` / `to_cpus` label the SKU pair for the scaling model.
/// The returned outcome's `actual_throughput` is `NaN` (unknown until the
/// workload actually migrates) and `mape` is `NaN` accordingly.
///
/// Returns `Err` for an invalid corpus or an empty target-run set —
/// request-sized problems a serving layer reports to the client rather
/// than panicking over.
pub fn run_offline(
    corpus: &OfflineCorpus,
    target_runs_from: &[ExperimentRun],
    from_cpus: f64,
    to_cpus: f64,
    config: &PipelineConfig,
) -> Result<PipelineOutcome, String> {
    corpus.validate()?;
    if target_runs_from.is_empty() {
        return Err("need target runs".to_string());
    }

    // Stage 1
    let selected = select_features_offline(corpus, config)?;

    // Stage 2
    let reference_runs: Vec<(String, Vec<ExperimentRun>)> = corpus
        .references
        .iter()
        .map(|r| (r.name.clone(), r.runs_from.clone()))
        .collect();
    let similarity: Vec<SimilarityVerdict> =
        find_most_similar(target_runs_from, &reference_runs, &selected, config)?;
    let most_similar = similarity[0].workload.clone();
    let reference = corpus
        .references
        .iter()
        .find(|r| r.name == most_similar)
        .expect("verdict names come from the corpus");

    // Stage 3: pairwise model from the aligned run pairs
    let (from_values, to_values, groups) = reference.scaling_pairs();
    let model = PairwiseScalingModel::fit(
        config.model,
        &[from_cpus, to_cpus],
        &[from_values, to_values],
        Some(&groups),
    );
    let observed = wp_linalg::stats::mean(
        &target_runs_from
            .iter()
            .map(|r| r.throughput)
            .collect::<Vec<_>>(),
    );
    let predicted = model
        .predict_transfer(from_cpus, to_cpus, observed)
        .expect("pair model exists by construction");

    Ok(PipelineOutcome {
        selected_features: selected,
        similarity,
        most_similar,
        observed_throughput: observed,
        predicted_throughput: predicted,
        actual_throughput: f64::NAN,
        mape: f64::NAN,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_featsel::Strategy;
    use wp_workloads::engine::Simulator;
    use wp_workloads::{benchmarks, Sku};

    /// Builds an offline corpus by simulating, serializing through the
    /// JSON interchange, and deserializing — proving the external path.
    fn corpus_via_interchange(sim: &Simulator, from: &Sku, to: &Sku) -> OfflineCorpus {
        let mut corpus = OfflineCorpus::default();
        for spec in [
            benchmarks::tpcc(),
            benchmarks::tpch(),
            benchmarks::twitter(),
        ] {
            let terminals = if spec.name == "TPC-H" { 1 } else { 8 };
            let runs_from: Vec<ExperimentRun> = (0..3)
                .map(|r| sim.simulate(&spec, from, terminals, r, r % 3))
                .collect();
            let runs_to: Vec<ExperimentRun> = (0..3)
                .map(|r| sim.simulate(&spec, to, terminals, r, r % 3))
                .collect();
            // round-trip through the interchange format
            let json = wp_telemetry::io::runs_to_json(&runs_from);
            let runs_from = wp_telemetry::io::runs_from_json(&json).unwrap();
            corpus.references.push(Arc::new(OfflineReference {
                name: spec.name.clone(),
                runs_from,
                runs_to,
            }));
        }
        corpus
    }

    fn fast_config() -> PipelineConfig {
        PipelineConfig {
            selection: Strategy::FAnova,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn offline_pipeline_matches_simulator_pipeline_findings() {
        let mut sim = Simulator::new(0xEDB7_2025);
        sim.config.samples = 60;
        let from = Sku::new("cpu2", 2, 64.0);
        let to = Sku::new("cpu8", 8, 64.0);
        let corpus = corpus_via_interchange(&sim, &from, &to);

        let target_runs: Vec<ExperimentRun> = (0..3)
            .map(|r| sim.simulate(&benchmarks::ycsb(), &from, 8, r, r % 3))
            .collect();
        let outcome = run_offline(&corpus, &target_runs, 2.0, 8.0, &fast_config()).unwrap();

        assert_eq!(outcome.most_similar, "TPC-C", "{:?}", outcome.similarity);
        assert_eq!(outcome.selected_features.len(), 7);
        assert!(outcome.predicted_throughput > outcome.observed_throughput);
        assert!(outcome.actual_throughput.is_nan());

        // sanity: the prediction lands near the simulator's ground truth
        let actual = wp_linalg::stats::mean(
            &(0..3)
                .map(|r| {
                    sim.simulate(&benchmarks::ycsb(), &to, 8, r, r % 3)
                        .throughput
                })
                .collect::<Vec<_>>(),
        );
        let err = (outcome.predicted_throughput - actual).abs() / actual;
        assert!(err < 0.5, "err {err}");
    }

    #[test]
    fn select_features_offline_returns_k_features() {
        let mut sim = Simulator::new(3);
        sim.config.samples = 40;
        let from = Sku::new("cpu4", 4, 64.0);
        let corpus = corpus_via_interchange(&sim, &from, &Sku::new("cpu8", 8, 64.0));
        let features = select_features_offline(&corpus, &fast_config()).unwrap();
        assert_eq!(features.len(), 7);
    }

    #[test]
    fn misaligned_reference_rejected() {
        let mut sim = Simulator::new(3);
        sim.config.samples = 40;
        let from = Sku::new("cpu4", 4, 64.0);
        let mut corpus = corpus_via_interchange(&sim, &from, &Sku::new("cpu8", 8, 64.0));
        Arc::make_mut(&mut corpus.references[0]).runs_to.pop();
        let err = corpus.validate().unwrap_err();
        assert!(err.contains("from/to runs must be aligned"), "{err}");
        // the pipeline entry points surface the same error instead of
        // panicking
        let target = vec![sim.simulate(&benchmarks::ycsb(), &from, 8, 0, 0)];
        assert!(run_offline(&corpus, &target, 4.0, 8.0, &fast_config()).is_err());
        assert!(select_features_offline(&corpus, &fast_config()).is_err());
    }

    #[test]
    fn empty_and_duplicate_corpora_rejected() {
        assert!(OfflineCorpus::default().validate().is_err());
        let mut sim = Simulator::new(3);
        sim.config.samples = 40;
        let from = Sku::new("cpu4", 4, 64.0);
        let mut corpus = corpus_via_interchange(&sim, &from, &Sku::new("cpu8", 8, 64.0));
        let dup = Arc::clone(&corpus.references[0]);
        corpus.references.push(dup);
        let err = corpus.validate().unwrap_err();
        assert!(err.contains("duplicate reference name"), "{err}");
        // an empty run list on one reference is also rejected
        corpus.references.pop();
        let emptied = Arc::make_mut(&mut corpus.references[1]);
        emptied.runs_from.clear();
        emptied.runs_to.clear();
        assert!(corpus.validate().is_err());
    }
}
