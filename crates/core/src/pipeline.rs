//! Pipeline orchestration.

use std::ops::Range;

use wp_featsel::aggregate::aggregate_rankings;
use wp_featsel::wrapper::WrapperConfig;
use wp_featsel::Strategy;
use wp_linalg::Matrix;
use wp_predict::predictor::{scaling_data_from_simulation, ScalingPredictor};
use wp_predict::ModelStrategy;
use wp_similarity::fingerprinter::{fingerprinter, FingerprintConfig};
use wp_similarity::measure::{normalize_distances, try_distance_matrix, Measure, Norm};
use wp_similarity::repr::{extract, Representation};
use wp_telemetry::{ExperimentRun, FeatureId};
use wp_workloads::dataset::LabeledDataset;
use wp_workloads::engine::Simulator;
use wp_workloads::sku::Sku;
use wp_workloads::spec::WorkloadSpec;

/// Pipeline configuration; the defaults follow the paper's §6.2.3
/// end-to-end setup (RFE-LogReg top-7, Hist-FP with the L2,1 norm,
/// pairwise SVM scaling models).
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Feature-selection strategy.
    pub selection: Strategy,
    /// How many features to keep.
    pub top_k: usize,
    /// Data representation runs are fingerprinted in.
    pub representation: Representation,
    /// Similarity measure over the fingerprints.
    pub measure: Measure,
    /// Histogram bins for Hist-FP.
    pub nbins: usize,
    /// Scaling-model strategy.
    pub model: ModelStrategy,
    /// Wrapper-selector tuning.
    pub wrapper: WrapperConfig,
    /// Repetitions per experiment (the paper's 3).
    pub runs: usize,
    /// Sub-experiments per run (the paper's 10).
    pub sub_experiments: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            selection: Strategy::Rfe(wp_featsel::wrapper::Estimator::LogisticRegression),
            top_k: 7,
            representation: Representation::HistFp,
            measure: Measure::Norm(Norm::L21),
            nbins: 10,
            model: ModelStrategy::Svm,
            wrapper: WrapperConfig::default(),
            runs: 3,
            sub_experiments: 10,
        }
    }
}

impl PipelineConfig {
    /// The fingerprint-construction parameters implied by this pipeline
    /// configuration (currently just the bin count on top of the
    /// per-representation defaults).
    pub fn fingerprint_config(&self) -> FingerprintConfig {
        FingerprintConfig {
            nbins: self.nbins,
            ..FingerprintConfig::default()
        }
    }
}

/// Distance from the target workload to one reference workload.
#[derive(Debug, Clone)]
pub struct SimilarityVerdict {
    /// Reference workload name.
    pub workload: String,
    /// Mean normalized distance between the target's runs and the
    /// reference's runs.
    pub distance: f64,
}

/// Everything the pipeline produced for one prediction request.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// Features the selection stage kept (best first).
    pub selected_features: Vec<FeatureId>,
    /// Normalized distance to every reference workload, ascending.
    pub similarity: Vec<SimilarityVerdict>,
    /// The most similar reference workload.
    pub most_similar: String,
    /// Mean observed target throughput on the source SKU.
    pub observed_throughput: f64,
    /// Predicted target throughput on the destination SKU.
    pub predicted_throughput: f64,
    /// Simulated ground-truth throughput on the destination SKU
    /// (available because the substrate is a simulator; real deployments
    /// obtain it only after migrating).
    pub actual_throughput: f64,
    /// `|actual − predicted| / actual`.
    pub mape: f64,
}

/// Stage 1: rank features on a labeled reference corpus and keep the
/// top-k. Rankings are computed per (workload, run) experiment and
/// aggregated by rank sum (§4.2).
pub fn select_features(
    sim: &Simulator,
    references: &[WorkloadSpec],
    sku: &Sku,
    terminals: impl Fn(&WorkloadSpec) -> usize,
    config: &PipelineConfig,
) -> Vec<FeatureId> {
    let universe = FeatureId::all();
    // one labeled dataset across all references (needed by label-aware
    // strategies), built per run so each experiment yields a ranking
    let mut rankings = Vec::new();
    for r in 0..config.runs {
        let sets: Vec<_> = references
            .iter()
            .map(|spec| {
                sim.observations(spec, sku, terminals(spec), r, r % 3, config.sub_experiments)
            })
            .collect();
        let ds = LabeledDataset::from_observation_sets(&sets);
        rankings.push(
            config
                .selection
                .rank(&ds.features, &ds.labels, &universe, &config.wrapper),
        );
    }
    aggregate_rankings(&rankings).top_k(config.top_k)
}

/// Stage 2: find the reference workload most similar to the target.
///
/// `target_runs` and each entry of `reference_runs` are repeated
/// executions on the *same* hardware; distances are computed between
/// fingerprints of the configured representation (Hist-FP by default) on
/// the selected features and averaged over run pairs, then min-max
/// normalized across references.
///
/// Errors on an empty target/reference set or fingerprints the measure
/// cannot compare. For a corpus that is queried repeatedly, the indexed
/// variant in [`crate::retrieval`] avoids the full pairwise matrix.
pub fn find_most_similar(
    target_runs: &[ExperimentRun],
    reference_runs: &[(String, Vec<ExperimentRun>)],
    features: &[FeatureId],
    config: &PipelineConfig,
) -> Result<Vec<SimilarityVerdict>, String> {
    if target_runs.is_empty() {
        return Err("need target runs".to_string());
    }
    if reference_runs.is_empty() {
        return Err("need reference runs".to_string());
    }

    // Build one fingerprint per run, jointly normalized.
    let mut all_runs: Vec<&ExperimentRun> = target_runs.iter().collect();
    let mut ref_spans = Vec::new();
    for (name, runs) in reference_runs {
        let start = all_runs.len();
        all_runs.extend(runs.iter());
        ref_spans.push((name.as_str(), start..all_runs.len()));
    }
    let data: Vec<_> = all_runs.iter().map(|r| extract(r, features)).collect();
    let fps =
        fingerprinter(config.representation, &config.fingerprint_config()).fingerprints(&data);
    rank_by_mean_distance(&fps, config.measure, target_runs.len(), &ref_spans)
}

/// The ranking step of [`find_most_similar`], shared with every caller
/// that builds the joint fingerprints itself.
///
/// `fps` holds the `n_target` target fingerprints first; each entry of
/// `references` names a reference and the span of `fps` holding its
/// runs. Computes the pairwise distance matrix under `measure`, min-max
/// normalizes it, averages each reference's target-to-reference
/// distances, and sorts ascending (stable, so ties keep the order of
/// `references`). Errors only when `measure` cannot compare the
/// fingerprints.
pub fn rank_by_mean_distance(
    fps: &[Matrix],
    measure: Measure,
    n_target: usize,
    references: &[(&str, Range<usize>)],
) -> Result<Vec<SimilarityVerdict>, String> {
    let d = normalize_distances(&try_distance_matrix(fps, measure)?);
    let mut verdicts: Vec<SimilarityVerdict> = references
        .iter()
        .map(|(name, span)| {
            let mut total = 0.0;
            let mut count = 0usize;
            for t in 0..n_target {
                for r in span.clone() {
                    total += d[(t, r)];
                    count += 1;
                }
            }
            SimilarityVerdict {
                workload: name.to_string(),
                distance: total / count.max(1) as f64,
            }
        })
        .collect();
    verdicts.sort_by(|a, b| {
        a.distance
            .partial_cmp(&b.distance)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(verdicts)
}

/// Stage 3: fit a scaling predictor on the chosen reference workload and
/// transfer its `from → to` factor to the target's observation.
pub fn predict_scaling(
    sim: &Simulator,
    reference: &WorkloadSpec,
    from_sku: &Sku,
    to_sku: &Sku,
    terminals: usize,
    observed: f64,
    config: &PipelineConfig,
) -> f64 {
    let data = scaling_data_from_simulation(
        sim,
        reference,
        &[from_sku.clone(), to_sku.clone()],
        terminals,
        config.runs,
        config.sub_experiments,
    );
    let predictor = ScalingPredictor::fit(reference.name.clone(), config.model, &data);
    predictor
        .predict(from_sku.cpus as f64, to_sku.cpus as f64, observed)
        .expect("pair model exists by construction")
}

/// The assembled pipeline.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    /// Stage configuration.
    pub config: PipelineConfig,
    /// Telemetry source.
    pub sim: Simulator,
}

impl Pipeline {
    /// Creates a pipeline with default configuration over a seeded
    /// simulator.
    pub fn new(seed: u64) -> Self {
        Self {
            config: PipelineConfig::default(),
            sim: Simulator::new(seed),
        }
    }

    /// Full end-to-end prediction (§6.2.3): observe `target` on
    /// `from_sku` only, select features on the references, find the most
    /// similar reference, and predict the target's throughput on
    /// `to_sku`.
    pub fn run(
        &self,
        references: &[WorkloadSpec],
        target: &WorkloadSpec,
        from_sku: &Sku,
        to_sku: &Sku,
        terminals: usize,
    ) -> PipelineOutcome {
        assert!(!references.is_empty(), "need reference workloads");
        let cfg = &self.config;
        let ref_terminals = |spec: &WorkloadSpec| if spec.name == "TPC-H" { 1 } else { terminals };

        // Stage 1 — feature selection on the reference corpus.
        let selected = select_features(&self.sim, references, from_sku, ref_terminals, cfg);

        // Stage 2 — similarity between target and references on from_sku.
        let target_runs: Vec<ExperimentRun> = (0..cfg.runs)
            .map(|r| self.sim.simulate(target, from_sku, terminals, r, r % 3))
            .collect();
        let reference_runs: Vec<(String, Vec<ExperimentRun>)> = references
            .iter()
            .map(|spec| {
                let runs = (0..cfg.runs)
                    .map(|r| {
                        self.sim
                            .simulate(spec, from_sku, ref_terminals(spec), r, r % 3)
                    })
                    .collect();
                (spec.name.clone(), runs)
            })
            .collect();
        let similarity = find_most_similar(&target_runs, &reference_runs, &selected, cfg)
            .expect("simulated runs always produce comparable fingerprints");
        let most_similar = similarity[0].workload.clone();
        let reference = references
            .iter()
            .find(|s| s.name == most_similar)
            .expect("verdict names come from references");

        // Stage 3 — scaling prediction.
        let observed =
            wp_linalg::stats::mean(&target_runs.iter().map(|r| r.throughput).collect::<Vec<_>>());
        let predicted = predict_scaling(
            &self.sim,
            reference,
            from_sku,
            to_sku,
            ref_terminals(reference),
            observed,
            cfg,
        );

        // Ground truth for verification.
        let actual = wp_linalg::stats::mean(
            &(0..cfg.runs)
                .map(|r| {
                    self.sim
                        .simulate(target, to_sku, terminals, r, r % 3)
                        .throughput
                })
                .collect::<Vec<_>>(),
        );

        PipelineOutcome {
            selected_features: selected,
            similarity,
            most_similar,
            observed_throughput: observed,
            predicted_throughput: predicted,
            actual_throughput: actual,
            mape: (actual - predicted).abs() / actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_workloads::benchmarks;

    fn fast_pipeline() -> Pipeline {
        let mut p = Pipeline::new(5);
        p.sim.config.samples = 60;
        // keep the wrapper selector cheap in unit tests
        p.config.selection = Strategy::FAnova;
        p.config.wrapper.cv_folds = 2;
        p
    }

    #[test]
    fn end_to_end_ycsb_prediction() {
        let p = fast_pipeline();
        let references = vec![
            benchmarks::tpcc(),
            benchmarks::tpch(),
            benchmarks::twitter(),
        ];
        let outcome = p.run(
            &references,
            &benchmarks::ycsb(),
            &Sku::new("cpu2", 2, 64.0),
            &Sku::new("cpu8", 8, 64.0),
            8,
        );
        assert_eq!(outcome.selected_features.len(), 7);
        assert_eq!(outcome.similarity.len(), 3);
        // the paper's §6.2.3 finding: YCSB is most similar to TPC-C
        assert_eq!(outcome.most_similar, "TPC-C", "{:?}", outcome.similarity);
        assert!(outcome.predicted_throughput > outcome.observed_throughput);
        assert!(outcome.mape < 0.6, "mape {}", outcome.mape);
    }

    #[test]
    fn similarity_stage_identifies_same_workload() {
        let p = fast_pipeline();
        let sku = Sku::new("cpu16", 16, 64.0);
        let target: Vec<ExperimentRun> = (3..5)
            .map(|r| p.sim.simulate(&benchmarks::tpcc(), &sku, 8, r, r % 3))
            .collect();
        let refs: Vec<(String, Vec<ExperimentRun>)> = [
            benchmarks::tpcc(),
            benchmarks::tpch(),
            benchmarks::twitter(),
        ]
        .iter()
        .map(|spec| {
            let terminals = if spec.name == "TPC-H" { 1 } else { 8 };
            let runs = (0..3)
                .map(|r| p.sim.simulate(spec, &sku, terminals, r, r % 3))
                .collect();
            (spec.name.clone(), runs)
        })
        .collect();
        let verdicts = find_most_similar(&target, &refs, &FeatureId::all(), &p.config).unwrap();
        assert_eq!(verdicts[0].workload, "TPC-C", "{verdicts:?}");
    }

    #[test]
    fn verdicts_are_sorted_ascending() {
        let p = fast_pipeline();
        let sku = Sku::new("cpu4", 4, 64.0);
        let target: Vec<ExperimentRun> = (0..2)
            .map(|r| p.sim.simulate(&benchmarks::ycsb(), &sku, 8, r, r % 3))
            .collect();
        let refs: Vec<(String, Vec<ExperimentRun>)> = [benchmarks::tpcc(), benchmarks::tpch()]
            .iter()
            .map(|spec| {
                let terminals = if spec.name == "TPC-H" { 1 } else { 8 };
                (
                    spec.name.clone(),
                    (0..2)
                        .map(|r| p.sim.simulate(spec, &sku, terminals, r, r % 3))
                        .collect(),
                )
            })
            .collect();
        let verdicts = find_most_similar(&target, &refs, &FeatureId::all(), &p.config).unwrap();
        assert!(verdicts[0].distance <= verdicts[1].distance);
    }

    #[test]
    fn select_features_returns_k_unique_features() {
        let p = fast_pipeline();
        let refs = vec![benchmarks::tpcc(), benchmarks::twitter()];
        let selected = select_features(
            &p.sim,
            &refs,
            &Sku::new("cpu16", 16, 64.0),
            |_| 8,
            &p.config,
        );
        assert_eq!(selected.len(), 7);
        let mut dedup = selected.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 7);
    }

    #[test]
    fn default_config_matches_paper_setup() {
        let c = PipelineConfig::default();
        assert_eq!(c.top_k, 7);
        assert_eq!(c.runs, 3);
        assert_eq!(c.sub_experiments, 10);
        assert_eq!(c.model, ModelStrategy::Svm);
    }
}
