//! Feature extraction and the raw MTS representation.
//!
//! Every representation starts from the same primitive: for each run and
//! each selected feature, a vector of observations — the time-series
//! samples for resource features, the per-query values for plan features
//! (Appendix A, Table 7). Normalization happens *jointly across the
//! compared runs* (global per-feature min/max), otherwise histograms and
//! distances would not be comparable between workloads.

use wp_linalg::Matrix;
use wp_telemetry::{ExperimentRun, FeatureId};

/// Which data representation a similarity computation uses (§5.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Representation {
    /// Raw multivariate time-series (resource features only).
    Mts,
    /// Histogram-based fingerprinting (equi-width cumulative histograms).
    HistFp,
    /// Phase-level statistical fingerprinting (BCPD phases × statistics).
    PhaseFp,
}

impl Representation {
    /// Every representation, in paper order.
    pub const ALL: [Representation; 3] = [
        Representation::Mts,
        Representation::HistFp,
        Representation::PhaseFp,
    ];

    /// Display label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Representation::Mts => "MTS",
            Representation::HistFp => "Hist-FP",
            Representation::PhaseFp => "Phase-FP",
        }
    }

    /// Parses the short names used by the CLI and the HTTP API
    /// (`mts`, `hist`, `phase`).
    pub fn parse(s: &str) -> Option<Representation> {
        match s {
            "mts" => Some(Representation::Mts),
            "hist" => Some(Representation::HistFp),
            "phase" => Some(Representation::PhaseFp),
            _ => None,
        }
    }
}

/// Per-run observation vectors for a fixed feature list: `series[f]` holds
/// the observations of feature `f` (time samples or per-query values).
#[derive(Debug, Clone)]
pub struct RunFeatureData {
    /// The features, in the order of `series`.
    pub features: Vec<FeatureId>,
    /// One observation vector per feature.
    pub series: Vec<Vec<f64>>,
}

/// Extracts observation vectors for the given features from a run,
/// applying a signed `sign(x)·ln(1 + |x|)` transform.
///
/// Telemetry features span eight orders of magnitude (estimated row
/// counts in the tens of millions next to utilization fractions), so a
/// joint min-max normalization of *raw* values would be dominated by the
/// largest workload and collapse every other workload into the lowest
/// histogram bin. The log transform keeps relative differences visible at
/// every magnitude; use [`extract_raw`] to opt out.
///
/// The transform is odd: negative observations (delta-valued features
/// such as change rates) keep their sign instead of being silently
/// clamped to zero, while non-negative values map exactly as the plain
/// `ln(1 + x)` always did — existing fingerprints of non-negative
/// telemetry are bit-identical.
pub fn extract(run: &ExperimentRun, features: &[FeatureId]) -> RunFeatureData {
    let mut data = extract_raw(run, features);
    for series in &mut data.series {
        for v in series {
            // not `signum()`: -0.0 must map to +0.0 like before
            let sign = if *v < 0.0 { -1.0 } else { 1.0 };
            *v = sign * (1.0 + v.abs()).ln();
        }
    }
    data
}

/// Extracts observation vectors without any value transform.
pub fn extract_raw(run: &ExperimentRun, features: &[FeatureId]) -> RunFeatureData {
    let series = features
        .iter()
        .map(|f| match f {
            FeatureId::Resource(rf) => run.resources.feature(*rf),
            FeatureId::Plan(pf) => run.plans.feature(*pf),
        })
        .collect();
    RunFeatureData {
        features: features.to_vec(),
        series,
    }
}

/// Global per-feature `[min, max]` across all runs' observations.
pub fn global_ranges(data: &[RunFeatureData]) -> Vec<(f64, f64)> {
    assert!(!data.is_empty(), "need at least one run");
    let nf = data[0].features.len();
    let mut ranges = vec![(f64::INFINITY, f64::NEG_INFINITY); nf];
    for run in data {
        assert_eq!(run.features.len(), nf, "feature lists must match");
        for (f, series) in run.series.iter().enumerate() {
            for &v in series {
                ranges[f].0 = ranges[f].0.min(v);
                ranges[f].1 = ranges[f].1.max(v);
            }
        }
    }
    ranges
}

/// Normalizes one value into `[0, 1]` given a range; constant ranges map
/// to `0.0`.
pub fn norm01(v: f64, (lo, hi): (f64, f64)) -> f64 {
    if hi > lo {
        ((v - lo) / (hi - lo)).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// Builds the MTS representation: per run, a `samples × features` matrix
/// of globally min-max-normalized observations.
///
/// All features must have the same observation count within a run (true
/// for resource features, which share the sampling clock). Plan features
/// have per-query observation counts instead, which is why the paper uses
/// MTS with resource features only; mixing lengths panics.
pub fn mts(data: &[RunFeatureData]) -> Vec<Matrix> {
    let ranges = global_ranges(data);
    data.iter()
        .map(|run| mts_with_ranges(run, &ranges))
        .collect()
}

/// One run's MTS matrix with caller-supplied per-feature `(lo, hi)`
/// ranges — the per-run step of [`mts`], and the corpus-stable form when
/// the ranges are frozen over a reference corpus.
///
/// # Panics
///
/// Panics when the run's feature count differs from `ranges` or its
/// features have unequal observation counts.
pub(crate) fn mts_with_ranges(run: &RunFeatureData, ranges: &[(f64, f64)]) -> Matrix {
    assert_eq!(
        run.series.len(),
        ranges.len(),
        "run feature count must match the frozen ranges"
    );
    let n = run.series.first().map_or(0, Vec::len);
    for (i, s) in run.series.iter().enumerate() {
        assert_eq!(
            s.len(),
            n,
            "MTS requires equal observation counts (feature {i})"
        );
    }
    let mut m = Matrix::zeros(n, run.series.len());
    for (f, s) in run.series.iter().enumerate() {
        for (t, &v) in s.iter().enumerate() {
            m[(t, f)] = norm01(v, ranges[f]);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rfd(series: Vec<Vec<f64>>) -> RunFeatureData {
        let features = (0..series.len())
            .map(FeatureId::from_global_index)
            .collect();
        RunFeatureData { features, series }
    }

    #[test]
    fn global_ranges_span_all_runs() {
        let a = rfd(vec![vec![0.0, 1.0], vec![5.0, 5.0]]);
        let b = rfd(vec![vec![2.0, 3.0], vec![4.0, 6.0]]);
        let r = global_ranges(&[a, b]);
        assert_eq!(r[0], (0.0, 3.0));
        assert_eq!(r[1], (4.0, 6.0));
    }

    #[test]
    fn norm01_behaviour() {
        assert_eq!(norm01(5.0, (0.0, 10.0)), 0.5);
        assert_eq!(norm01(-1.0, (0.0, 10.0)), 0.0);
        assert_eq!(norm01(11.0, (0.0, 10.0)), 1.0);
        assert_eq!(norm01(7.0, (7.0, 7.0)), 0.0);
    }

    #[test]
    fn mts_normalizes_jointly() {
        let a = rfd(vec![vec![0.0, 10.0]]);
        let b = rfd(vec![vec![5.0, 20.0]]);
        let ms = mts(&[a, b]);
        // global range is [0, 20]
        assert_eq!(ms[0][(0, 0)], 0.0);
        assert_eq!(ms[0][(1, 0)], 0.5);
        assert_eq!(ms[1][(0, 0)], 0.25);
        assert_eq!(ms[1][(1, 0)], 1.0);
    }

    #[test]
    fn mts_allows_different_lengths_across_runs() {
        let a = rfd(vec![vec![0.0, 1.0, 2.0]]);
        let b = rfd(vec![vec![0.0, 2.0]]);
        let ms = mts(&[a, b]);
        assert_eq!(ms[0].rows(), 3);
        assert_eq!(ms[1].rows(), 2);
    }

    #[test]
    #[should_panic(expected = "equal observation counts")]
    fn mts_rejects_ragged_features_within_run() {
        let a = rfd(vec![vec![0.0, 1.0], vec![0.0]]);
        let _ = mts(&[a]);
    }

    #[test]
    fn representation_labels() {
        assert_eq!(Representation::Mts.label(), "MTS");
        assert_eq!(Representation::HistFp.label(), "Hist-FP");
        assert_eq!(Representation::PhaseFp.label(), "Phase-FP");
    }

    #[test]
    fn representation_parse_knows_the_short_names() {
        for (name, repr) in [
            ("mts", Representation::Mts),
            ("hist", Representation::HistFp),
            ("phase", Representation::PhaseFp),
        ] {
            assert_eq!(Representation::parse(name), Some(repr));
        }
        assert_eq!(Representation::parse("nope"), None);
        assert_eq!(Representation::parse("embed"), None);
    }

    fn run_with_first_resource(values: &[f64]) -> wp_telemetry::ExperimentRun {
        use wp_telemetry::{PlanStats, ResourceSeries, RunKey};
        let rows: Vec<Vec<f64>> = values
            .iter()
            .map(|&v| {
                let mut row = vec![1.0; 7];
                row[0] = v;
                row
            })
            .collect();
        wp_telemetry::ExperimentRun {
            key: RunKey {
                workload: "w".into(),
                sku: "s".into(),
                terminals: 1,
                run_index: 0,
                data_group: 0,
            },
            resources: ResourceSeries::new(Matrix::from_rows(&rows), 1.0),
            plans: PlanStats::new(Matrix::from_rows(&[vec![0.5; 22]]), vec!["Q".into()]),
            throughput: 1.0,
            latency_ms: 1.0,
            per_query_latency_ms: vec![1.0],
        }
    }

    #[test]
    fn extract_log_transform_unchanged_for_non_negative_values() {
        // bit-level pin: non-negative telemetry (everything the paper's
        // features produce) must fingerprint exactly as before the
        // signed-log fix, -0.0 included
        let run = run_with_first_resource(&[0.0, -0.0, 0.5, 3.0, 1e7]);
        let features = [FeatureId::Resource(wp_telemetry::ResourceFeature::ALL[0])];
        let got = &extract(&run, &features).series[0];
        let expected: Vec<f64> = [0.0f64, -0.0, 0.5, 3.0, 1e7]
            .iter()
            .map(|v| (1.0 + v.max(0.0)).ln())
            .collect();
        let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
        let expected_bits: Vec<u64> = expected.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got_bits, expected_bits);
    }

    #[test]
    fn extract_keeps_sign_of_negative_values() {
        // delta-valued features must not collapse to zero: the signed
        // log is odd, so -x and x land symmetrically around zero
        let run = run_with_first_resource(&[-3.0, 3.0, -0.25]);
        let features = [FeatureId::Resource(wp_telemetry::ResourceFeature::ALL[0])];
        let got = &extract(&run, &features).series[0];
        assert_eq!(got[0], -(4.0f64).ln());
        assert_eq!(got[1], (4.0f64).ln());
        assert_eq!(got[0], -got[1]);
        assert!(got[2] < 0.0, "small negatives must stay negative");
    }
}
