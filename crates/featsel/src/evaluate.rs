//! Evaluating feature subsets via similarity computation (§4.1, §4.3):
//! "we base our similarity computation on the selected feature set and
//! compare it with the ground truth" — the accuracy of a strategy's top-k
//! subset is the 1-NN workload-identification accuracy using the L2,1
//! norm on Hist-FP fingerprints built from those features.

use wp_similarity::histfp::histfp;
use wp_similarity::measure::{try_distance_matrix, Measure, Norm};
use wp_similarity::repr::extract;
use wp_telemetry::{ExperimentRun, FeatureId};

/// Default histogram bins (paper: n = 10).
pub const EVAL_BINS: usize = 10;

/// 1-NN workload-identification accuracy of a feature subset over a set
/// of runs. `labels[i]` is the ground-truth workload index of `runs[i]`.
pub fn subset_accuracy(runs: &[ExperimentRun], labels: &[usize], features: &[FeatureId]) -> f64 {
    assert_eq!(runs.len(), labels.len(), "one label per run");
    assert!(!features.is_empty(), "need at least one feature");
    let data: Vec<_> = runs.iter().map(|r| extract(r, features)).collect();
    let fps = histfp(&data, EVAL_BINS);
    let d =
        try_distance_matrix(&fps, Measure::Norm(Norm::L21)).expect("fingerprints share a shape");
    wp_similarity::eval::one_nn_accuracy(&d, labels)
}

/// The Figure 4 accuracy-development patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccuracyPattern {
    /// Accuracy keeps improving as features are added.
    Increasing,
    /// Accuracy peaks at an intermediate subset size, then declines.
    Peaking,
    /// No conclusive relationship.
    Inconclusive,
}

/// Classifies an accuracy-vs-k curve into the paper's three patterns.
///
/// `curve` holds `(k, accuracy)` pairs in increasing `k`. The heuristic:
/// a `Peaking` curve rises to an interior maximum that beats both
/// endpoints by more than `tol`; an `Increasing` curve is (weakly)
/// monotone with its final value within `tol` of the maximum; everything
/// else is `Inconclusive`.
pub fn classify_pattern(curve: &[(usize, f64)], tol: f64) -> AccuracyPattern {
    assert!(curve.len() >= 2, "need at least two points");
    let first = curve[0].1;
    let last = curve.last().unwrap().1;
    let (peak_idx, peak) = curve
        .iter()
        .enumerate()
        .map(|(i, (_, a))| (i, *a))
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .unwrap();
    let interior = peak_idx > 0 && peak_idx + 1 < curve.len();
    let monotone = curve.windows(2).all(|w| w[1].1 >= w[0].1 - tol);
    if interior && peak > last + tol && peak > first + tol {
        AccuracyPattern::Peaking
    } else if monotone && last >= peak - tol {
        AccuracyPattern::Increasing
    } else {
        AccuracyPattern::Inconclusive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_workloads::engine::Simulator;
    use wp_workloads::{benchmarks, Sku};

    fn runs_and_labels() -> (Vec<ExperimentRun>, Vec<usize>) {
        let mut sim = Simulator::new(17);
        sim.config.samples = 60;
        let sku = Sku::new("cpu16", 16, 64.0);
        let specs = [
            benchmarks::tpcc(),
            benchmarks::tpch(),
            benchmarks::twitter(),
        ];
        let mut runs = Vec::new();
        let mut labels = Vec::new();
        for (li, spec) in specs.iter().enumerate() {
            let terminals = if spec.name == "TPC-H" { 1 } else { 8 };
            for r in 0..3 {
                runs.push(sim.simulate(spec, &sku, terminals, r, r % 3));
                labels.push(li);
            }
        }
        (runs, labels)
    }

    #[test]
    fn all_features_identify_workloads() {
        let (runs, labels) = runs_and_labels();
        let acc = subset_accuracy(&runs, &labels, &FeatureId::all());
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn discriminative_single_feature_beats_lock_wait() {
        use wp_telemetry::{PlanFeature, ResourceFeature};
        let (runs, labels) = runs_and_labels();
        let good = subset_accuracy(
            &runs,
            &labels,
            &[FeatureId::Plan(PlanFeature::TableCardinality)],
        );
        let bad = subset_accuracy(
            &runs,
            &labels,
            &[FeatureId::Resource(ResourceFeature::LockWaitAbs)],
        );
        assert!(good > bad, "good {good} vs bad {bad}");
    }

    #[test]
    fn pattern_classification() {
        let inc = [(1, 0.5), (3, 0.7), (7, 0.9), (15, 0.95)];
        assert_eq!(classify_pattern(&inc, 0.01), AccuracyPattern::Increasing);
        let peak = [(1, 0.5), (3, 0.9), (7, 0.95), (15, 0.8)];
        assert_eq!(classify_pattern(&peak, 0.01), AccuracyPattern::Peaking);
        let noisy = [(1, 0.9), (3, 0.5), (7, 0.8), (15, 0.85)];
        assert_eq!(
            classify_pattern(&noisy, 0.01),
            AccuracyPattern::Inconclusive
        );
    }

    #[test]
    #[should_panic(expected = "at least one feature")]
    fn empty_subset_rejected() {
        let (runs, labels) = runs_and_labels();
        let _ = subset_accuracy(&runs, &labels, &[]);
    }
}
