//! Phase-level statistical fingerprinting (Phase-FP, §5.1.1 / Appendix A).
//!
//! Each feature's observation series is segmented into phases by BCPD;
//! each phase is summarized by statistics (mean, median, variance by
//! default, matching §5.2). Features with fewer phases than the maximum
//! are zero-padded, yielding a `features × (max_phases · n_stats)` matrix
//! per run (the flattened form of Appendix A's 3-D fingerprint). Values
//! are normalized to global per-feature `[0, 1]` ranges *before*
//! segmentation statistics, so fingerprints are comparable across runs.
//!
//! Plan features are treated as single-phase (the paper: "the query plan
//! features have only a single phase"): their per-query observations form
//! one segment.

use wp_linalg::Matrix;
use wp_telemetry::FeatureId;

use crate::bcpd::{segments, BcpdConfig};
use crate::repr::{global_ranges, norm01, RunFeatureData};

/// Which summary statistics each phase records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseStat {
    /// Arithmetic mean.
    Mean,
    /// Median.
    Median,
    /// Population variance.
    Variance,
}

impl PhaseStat {
    /// §5.2's default statistic set.
    pub const DEFAULT: [PhaseStat; 3] = [PhaseStat::Mean, PhaseStat::Median, PhaseStat::Variance];

    fn eval(self, values: &[f64]) -> f64 {
        match self {
            PhaseStat::Mean => wp_linalg::stats::mean(values),
            PhaseStat::Median => wp_linalg::stats::median(values),
            PhaseStat::Variance => wp_linalg::stats::variance(values),
        }
    }
}

/// Phase-FP configuration.
#[derive(Debug, Clone)]
pub struct PhaseFpConfig {
    /// Change-point detector settings.
    pub bcpd: BcpdConfig,
    /// Statistics recorded per phase.
    pub stats: Vec<PhaseStat>,
}

impl Default for PhaseFpConfig {
    fn default() -> Self {
        Self {
            bcpd: BcpdConfig::default(),
            stats: PhaseStat::DEFAULT.to_vec(),
        }
    }
}

/// Builds one Phase-FP fingerprint per run.
///
/// All runs share the same `max_phases` (the maximum phase count observed
/// anywhere), so the resulting matrices are directly comparable.
pub fn phasefp(data: &[RunFeatureData], config: &PhaseFpConfig) -> Vec<Matrix> {
    assert!(!config.stats.is_empty(), "need at least one statistic");
    let ranges = global_ranges(data);
    let segmented: Vec<RunSegments> = data
        .iter()
        .map(|run| segment_run(run, &ranges, &config.bcpd))
        .collect();
    let max_phases = max_phases(&segmented);
    segmented
        .into_iter()
        .map(|segs| emit(segs, max_phases, &config.stats))
        .collect()
}

/// One run's normalized observations split into phases:
/// `segments[feature][phase]` holds that phase's values.
pub(crate) type RunSegments = Vec<Vec<Vec<f64>>>;

/// Normalizes each of `run`'s series into `[0, 1]` under `ranges` and
/// splits it into phases by BCPD; plan features stay a single phase.
///
/// # Panics
///
/// Panics when the run's feature count differs from `ranges`.
pub(crate) fn segment_run(
    run: &RunFeatureData,
    ranges: &[(f64, f64)],
    bcpd: &BcpdConfig,
) -> RunSegments {
    assert_eq!(
        run.series.len(),
        ranges.len(),
        "run feature count must match the frozen ranges"
    );
    run.series
        .iter()
        .enumerate()
        .map(|(f, series)| {
            let normed: Vec<f64> = series.iter().map(|&v| norm01(v, ranges[f])).collect();
            if matches!(run.features[f], FeatureId::Plan(_)) {
                vec![normed]
            } else {
                segments(&normed, bcpd)
                    .into_iter()
                    .map(<[f64]>::to_vec)
                    .collect()
            }
        })
        .collect()
}

/// The largest phase count of any feature in any of the runs, and at
/// least 1 — the phase dimension every emitted matrix is padded to.
pub(crate) fn max_phases(segmented: &[RunSegments]) -> usize {
    segmented.iter().flatten().map(Vec::len).fold(1, usize::max)
}

/// Emits one run's `features × (max_phases · n_stats)` fingerprint,
/// zero-padded past each feature's last phase.
///
/// A feature with more than `max_phases` phases (a query noisier than
/// anything in the corpus the phase count was frozen over) has the
/// overflow merged into its last retained phase, so no observation is
/// dropped and the shape stays fixed.
pub(crate) fn emit(mut segs: RunSegments, max_phases: usize, stats: &[PhaseStat]) -> Matrix {
    let n_stats = stats.len();
    let mut m = Matrix::zeros(segs.len(), max_phases * n_stats);
    for (f, phases) in segs.iter_mut().enumerate() {
        if phases.len() > max_phases {
            let overflow: Vec<f64> = phases.drain(max_phases..).flatten().collect();
            phases[max_phases - 1].extend(overflow);
        }
        for (p, seg) in phases.iter().enumerate() {
            for (s, stat) in stats.iter().enumerate() {
                m[(f, p * n_stats + s)] = stat.eval(seg);
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_telemetry::{PlanFeature, ResourceFeature};

    fn resource_rfd(series: Vec<Vec<f64>>) -> RunFeatureData {
        let features = series
            .iter()
            .enumerate()
            .map(|(i, _)| FeatureId::Resource(ResourceFeature::ALL[i]))
            .collect();
        RunFeatureData { features, series }
    }

    fn step(n1: usize, n2: usize, m1: f64, m2: f64) -> Vec<f64> {
        let jitter = |i: usize| ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
        (0..n1)
            .map(|i| m1 + 0.2 * jitter(i))
            .chain((0..n2).map(|i| m2 + 0.2 * jitter(i + n1)))
            .collect()
    }

    #[test]
    fn fingerprint_shape_padded_to_max_phases() {
        // feature 0: two phases; feature 1: stationary
        let a = resource_rfd(vec![step(60, 60, 0.0, 5.0), vec![1.0; 120]]);
        let fps = phasefp(&[a], &PhaseFpConfig::default());
        assert_eq!(fps.len(), 1);
        let m = &fps[0];
        assert_eq!(m.rows(), 2);
        assert!(m.cols() >= 2 * 3, "expect at least 2 phases x 3 stats");
        // stationary feature zero-padded beyond phase 0
        for c in 3..m.cols() {
            assert_eq!(m[(1, c)], 0.0);
        }
    }

    #[test]
    fn two_phase_feature_has_distinct_phase_means() {
        let a = resource_rfd(vec![step(60, 60, 0.0, 5.0)]);
        let fps = phasefp(&[a], &PhaseFpConfig::default());
        let m = &fps[0];
        let mean0 = m[(0, 0)];
        let mean1 = m[(0, 3)];
        assert!(mean1 > mean0 + 0.3, "phase means: {mean0} vs {mean1}");
    }

    #[test]
    fn plan_features_are_single_phase() {
        let run = RunFeatureData {
            features: vec![FeatureId::Plan(PlanFeature::AvgRowSize)],
            series: vec![step(30, 30, 0.0, 5.0)], // would be 2 phases if resource
        };
        let fps = phasefp(&[run], &PhaseFpConfig::default());
        let m = &fps[0];
        assert_eq!(m.cols(), 3, "single phase x 3 stats");
    }

    #[test]
    fn runs_share_max_phase_dimension() {
        let a = resource_rfd(vec![step(60, 60, 0.0, 5.0)]);
        let b = resource_rfd(vec![vec![0.5; 120]]);
        let fps = phasefp(&[a, b], &PhaseFpConfig::default());
        assert_eq!(fps[0].shape(), fps[1].shape());
    }

    #[test]
    fn identical_runs_identical_fingerprints() {
        let a = resource_rfd(vec![step(50, 50, 1.0, 3.0)]);
        let b = resource_rfd(vec![step(50, 50, 1.0, 3.0)]);
        let fps = phasefp(&[a, b], &PhaseFpConfig::default());
        assert_eq!(fps[0], fps[1]);
    }

    #[test]
    fn custom_stat_set() {
        let a = resource_rfd(vec![vec![1.0, 2.0, 3.0, 4.0]]);
        let cfg = PhaseFpConfig {
            stats: vec![PhaseStat::Mean],
            ..PhaseFpConfig::default()
        };
        let fps = phasefp(&[a], &cfg);
        assert_eq!(fps[0].cols(), 1);
    }
}
