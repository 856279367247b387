//! Histogram-based fingerprinting (Hist-FP, §5.1.1 / Appendix A).
//!
//! Each feature's observations are binned into an equi-width histogram
//! over the feature's *global* range (shared across the compared runs),
//! normalized to relative frequencies, and converted to the cumulative
//! form so entry-wise norms see distribution *shape* (the `H1/H2/H3`
//! argument of Appendix A). A run's fingerprint is the `bins × features`
//! matrix of cumulative frequencies.

use wp_linalg::hist::histogram;
use wp_linalg::Matrix;

use crate::repr::{global_ranges, RunFeatureData};

/// Default bin count used throughout the paper's experiments (§5.2).
pub const DEFAULT_BINS: usize = 10;

/// Builds one Hist-FP fingerprint per run: a `nbins × features` matrix of
/// cumulative relative frequencies with globally shared bin ranges.
pub fn histfp(data: &[RunFeatureData], nbins: usize) -> Vec<Matrix> {
    histfp_with_ranges(data, &global_ranges(data), nbins)
}

/// [`histfp`] with caller-supplied per-feature `(lo, hi)` bin ranges
/// instead of ranges derived from `data` itself.
///
/// This is what makes fingerprints *corpus-stable*: `wp-index` freezes
/// the ranges over the reference corpus at build time, so a query run's
/// fingerprint does not depend on which other runs it is compared
/// against (values outside the frozen range clamp into the boundary
/// bins). Plain [`histfp`] re-derives ranges per call, which is the
/// paper's joint-normalization semantics but is query-dependent.
///
/// # Panics
///
/// Panics when `nbins == 0` or a run has a different feature count than
/// `ranges`.
pub fn histfp_with_ranges(
    data: &[RunFeatureData],
    ranges: &[(f64, f64)],
    nbins: usize,
) -> Vec<Matrix> {
    assert!(nbins > 0, "need at least one bin");
    data.iter()
        .map(|run| {
            assert_eq!(
                run.series.len(),
                ranges.len(),
                "run feature count must match the frozen ranges"
            );
            let mut m = Matrix::zeros(nbins, run.series.len());
            for (f, series) in run.series.iter().enumerate() {
                let (lo, hi) = ranges[f];
                let cum = histogram(series, lo, hi, nbins).cumulative();
                for (b, &v) in cum.iter().enumerate() {
                    m[(b, f)] = v;
                }
            }
            m
        })
        .collect()
}

/// Raw (non-cumulative) variant: the frequency histograms Appendix A
/// argues against, kept so the similarity integration tests can check
/// that argument against [`histfp`].
pub fn histfp_raw(data: &[RunFeatureData], nbins: usize) -> Vec<Matrix> {
    assert!(nbins > 0, "need at least one bin");
    let ranges = global_ranges(data);
    data.iter()
        .map(|run| {
            let mut m = Matrix::zeros(nbins, run.series.len());
            for (f, series) in run.series.iter().enumerate() {
                let (lo, hi) = ranges[f];
                let h = histogram(series, lo, hi, nbins);
                for (b, &v) in h.bins.iter().enumerate() {
                    m[(b, f)] = v;
                }
            }
            m
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repr::RunFeatureData;
    use wp_telemetry::FeatureId;

    fn rfd(series: Vec<Vec<f64>>) -> RunFeatureData {
        let features = (0..series.len())
            .map(FeatureId::from_global_index)
            .collect();
        RunFeatureData { features, series }
    }

    #[test]
    fn fingerprint_shape() {
        let a = rfd(vec![vec![0.0, 1.0, 2.0], vec![5.0, 6.0, 7.0]]);
        let fps = histfp(&[a], 10);
        assert_eq!(fps.len(), 1);
        assert_eq!(fps[0].shape(), (10, 2));
    }

    #[test]
    fn cumulative_final_bin_is_one() {
        let a = rfd(vec![vec![0.0, 0.5, 1.0]]);
        let fps = histfp(&[a], 5);
        assert!((fps[0][(4, 0)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identical_runs_have_identical_fingerprints() {
        let a = rfd(vec![vec![1.0, 2.0, 3.0, 4.0]]);
        let b = rfd(vec![vec![1.0, 2.0, 3.0, 4.0]]);
        let fps = histfp(&[a, b], 8);
        assert_eq!(fps[0], fps[1]);
    }

    #[test]
    fn shared_bins_separate_shifted_distributions() {
        // run A concentrates low, run B concentrates high; with shared
        // ranges their cumulative histograms must differ.
        let a = rfd(vec![vec![0.0, 0.1, 0.2]]);
        let b = rfd(vec![vec![0.8, 0.9, 1.0]]);
        let fps = histfp(&[a, b], 10);
        let diff: f64 = (0..10)
            .map(|i| (fps[0][(i, 0)] - fps[1][(i, 0)]).abs())
            .sum();
        assert!(diff > 3.0, "diff {diff}");
    }

    #[test]
    fn different_observation_counts_are_comparable() {
        // the core motivation for fingerprints: 360 resource samples vs 5
        // plan observations can both be histogrammed
        let a = rfd(vec![(0..360).map(|i| i as f64 / 360.0).collect()]);
        let b = rfd(vec![vec![0.1, 0.3, 0.5, 0.7, 0.9]]);
        let fps = histfp(&[a, b], 10);
        // both approximately uniform → cumulative ≈ linear ramp, close
        let diff: f64 = (0..10)
            .map(|i| (fps[0][(i, 0)] - fps[1][(i, 0)]).abs())
            .sum();
        assert!(diff < 1.0, "diff {diff}");
    }

    #[test]
    fn frozen_ranges_match_global_ranges_on_same_data() {
        let runs = vec![
            rfd(vec![vec![0.0, 1.0, 2.0], vec![5.0, 6.0, 7.0]]),
            rfd(vec![vec![0.5, 1.5, 2.5], vec![5.5, 6.5, 7.5]]),
        ];
        let ranges = crate::repr::global_ranges(&runs);
        assert_eq!(histfp(&runs, 10), histfp_with_ranges(&runs, &ranges, 10));
    }

    #[test]
    fn frozen_ranges_make_fingerprints_query_independent() {
        let q = rfd(vec![vec![0.2, 0.4, 0.6]]);
        let other = rfd(vec![vec![-10.0, 10.0, 0.0]]);
        let ranges = [(0.0, 1.0)];
        // the fingerprint of q does not change when computed alongside a
        // wildly ranged other run
        let alone = histfp_with_ranges(std::slice::from_ref(&q), &ranges, 8);
        let together = histfp_with_ranges(&[q, other], &ranges, 8);
        assert_eq!(alone[0], together[0]);
    }

    #[test]
    fn raw_variant_sums_to_one_per_feature() {
        let a = rfd(vec![vec![0.0, 0.25, 0.5, 1.0]]);
        let fps = histfp_raw(&[a], 4);
        let total: f64 = (0..4).map(|i| fps[0][(i, 0)]).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
