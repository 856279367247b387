//! The representation strategy trait.
//!
//! [`Fingerprinter`] packages the two construction modes every
//! representation needs:
//!
//! * **joint** ([`Fingerprinter::fingerprints`]) — the paper's semantics:
//!   normalization state (global ranges, phase counts) is derived from
//!   exactly the runs being compared, so a fingerprint depends on the
//!   whole closed set.
//! * **corpus-stable** ([`Fingerprinter::fit`] then
//!   [`Fingerprinter::fingerprint`]) — the state is frozen over a
//!   reference corpus once; afterwards a query's fingerprint depends only
//!   on the frozen state and the query itself. This is what makes
//!   incremental index inserts byte-identical to full rebuilds.
//!
//! Both modes of every representation run the same per-run code and
//! differ only in which runs the state is derived from: MTS and Hist-FP
//! build each matrix in `repr::mts_with_ranges` and
//! [`crate::histfp::histfp_with_ranges`], and Phase-FP shares its
//! segment, phase-count and emit steps with
//! [`crate::phasefp::phasefp`]. Joint fingerprints therefore equal `fit`
//! over the batch followed by `fingerprint` on each run, bit for bit.

use std::sync::Arc;

use wp_linalg::Matrix;

use crate::histfp::{histfp, histfp_with_ranges, DEFAULT_BINS};
use crate::phasefp::{emit, max_phases, phasefp, segment_run, PhaseFpConfig, RunSegments};
use crate::repr::{global_ranges, mts, mts_with_ranges, Representation, RunFeatureData};

/// Construction parameters for every representation, so call sites can
/// carry one config regardless of which representation is selected.
#[derive(Debug, Clone)]
pub struct FingerprintConfig {
    /// Histogram bin count (Hist-FP).
    pub nbins: usize,
    /// Phase segmentation and statistics (Phase-FP).
    pub phase: PhaseFpConfig,
}

impl Default for FingerprintConfig {
    fn default() -> Self {
        Self {
            nbins: DEFAULT_BINS,
            phase: PhaseFpConfig::default(),
        }
    }
}

/// One data representation's fingerprint constructor (see the module
/// docs for the joint vs. corpus-stable contract).
pub trait Fingerprinter: Send + Sync {
    /// Freezes corpus-dependent state (ranges, phase counts) over the
    /// reference corpus.
    fn fit(&mut self, corpus: &[RunFeatureData]);

    /// True once [`Fingerprinter::fit`] has supplied corpus state.
    fn is_fitted(&self) -> bool;

    /// Corpus-stable fingerprint of one run under the frozen state.
    ///
    /// # Panics
    ///
    /// Panics when called before [`Fingerprinter::fit`].
    fn fingerprint(&self, run: &RunFeatureData) -> Matrix;

    /// Joint fingerprints over a closed set of runs (the paper's
    /// semantics: normalization state derived from exactly these runs).
    fn fingerprints(&self, data: &[RunFeatureData]) -> Vec<Matrix>;
}

/// Builds the fingerprinter for a representation. The result is
/// unfitted; call [`Fingerprinter::fit`] (or use [`fitted`]) before
/// asking for corpus-stable fingerprints.
pub fn fingerprinter(repr: Representation, config: &FingerprintConfig) -> Box<dyn Fingerprinter> {
    match repr {
        Representation::Mts => Box::new(MtsFingerprinter::new()),
        Representation::HistFp => Box::new(HistFpFingerprinter::new(config.nbins)),
        Representation::PhaseFp => Box::new(PhaseFpFingerprinter::new(config.phase.clone())),
    }
}

/// Builds and fits a fingerprinter over a corpus in one step, returning
/// it frozen behind an `Arc` so index builders and rebuilders can share
/// the identical state.
pub fn fitted(
    repr: Representation,
    config: &FingerprintConfig,
    corpus: &[RunFeatureData],
) -> Arc<dyn Fingerprinter> {
    let mut fp = fingerprinter(repr, config);
    fp.fit(corpus);
    Arc::from(fp)
}

/// Raw MTS: globally min-max-normalized `samples × features` matrices.
#[derive(Debug, Clone, Default)]
pub struct MtsFingerprinter {
    ranges: Option<Vec<(f64, f64)>>,
}

impl MtsFingerprinter {
    /// An unfitted MTS fingerprinter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Fingerprinter for MtsFingerprinter {
    fn fit(&mut self, corpus: &[RunFeatureData]) {
        self.ranges = Some(global_ranges(corpus));
    }

    fn is_fitted(&self) -> bool {
        self.ranges.is_some()
    }

    fn fingerprint(&self, run: &RunFeatureData) -> Matrix {
        let ranges = self.ranges.as_ref().expect("MTS fingerprinter not fitted");
        mts_with_ranges(run, ranges)
    }

    fn fingerprints(&self, data: &[RunFeatureData]) -> Vec<Matrix> {
        mts(data)
    }
}

/// Hist-FP: cumulative equi-width histograms over shared bin ranges.
#[derive(Debug, Clone)]
pub struct HistFpFingerprinter {
    nbins: usize,
    ranges: Option<Vec<(f64, f64)>>,
}

impl HistFpFingerprinter {
    /// An unfitted Hist-FP fingerprinter with the given bin count.
    pub fn new(nbins: usize) -> Self {
        assert!(nbins > 0, "need at least one bin");
        Self {
            nbins,
            ranges: None,
        }
    }
}

impl Fingerprinter for HistFpFingerprinter {
    fn fit(&mut self, corpus: &[RunFeatureData]) {
        self.ranges = Some(global_ranges(corpus));
    }

    fn is_fitted(&self) -> bool {
        self.ranges.is_some()
    }

    fn fingerprint(&self, run: &RunFeatureData) -> Matrix {
        let ranges = self
            .ranges
            .as_ref()
            .expect("Hist-FP fingerprinter not fitted");
        histfp_with_ranges(std::slice::from_ref(run), ranges, self.nbins)
            .pop()
            .expect("one run in, one fingerprint out")
    }

    fn fingerprints(&self, data: &[RunFeatureData]) -> Vec<Matrix> {
        histfp(data, self.nbins)
    }
}

/// Phase-FP: BCPD phase statistics over globally normalized series.
#[derive(Debug, Clone)]
pub struct PhaseFpFingerprinter {
    config: PhaseFpConfig,
    ranges: Option<Vec<(f64, f64)>>,
    max_phases: usize,
}

impl PhaseFpFingerprinter {
    /// An unfitted Phase-FP fingerprinter.
    pub fn new(config: PhaseFpConfig) -> Self {
        Self {
            config,
            ranges: None,
            max_phases: 1,
        }
    }
}

impl Fingerprinter for PhaseFpFingerprinter {
    fn fit(&mut self, corpus: &[RunFeatureData]) {
        let ranges = global_ranges(corpus);
        let segmented: Vec<RunSegments> = corpus
            .iter()
            .map(|run| segment_run(run, &ranges, &self.config.bcpd))
            .collect();
        self.max_phases = max_phases(&segmented);
        self.ranges = Some(ranges);
    }

    fn is_fitted(&self) -> bool {
        self.ranges.is_some()
    }

    fn fingerprint(&self, run: &RunFeatureData) -> Matrix {
        let ranges = self
            .ranges
            .as_ref()
            .expect("Phase-FP fingerprinter not fitted");
        let segs = segment_run(run, ranges, &self.config.bcpd);
        emit(segs, self.max_phases, &self.config.stats)
    }

    fn fingerprints(&self, data: &[RunFeatureData]) -> Vec<Matrix> {
        phasefp(data, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_telemetry::{FeatureId, PlanFeature, ResourceFeature};

    fn resource_run(series: Vec<Vec<f64>>) -> RunFeatureData {
        let features = series
            .iter()
            .enumerate()
            .map(|(i, _)| FeatureId::Resource(ResourceFeature::ALL[i]))
            .collect();
        RunFeatureData { features, series }
    }

    fn mixed_run(shift: f64) -> RunFeatureData {
        // two resource series plus three plan features over 5 queries
        let features = vec![
            FeatureId::Resource(ResourceFeature::ALL[0]),
            FeatureId::Resource(ResourceFeature::ALL[1]),
            FeatureId::Plan(PlanFeature::ALL[0]),
            FeatureId::Plan(PlanFeature::ALL[1]),
            FeatureId::Plan(PlanFeature::ALL[2]),
        ];
        let series = vec![
            (0..12).map(|i| i as f64 * 0.1 + shift).collect(),
            (0..12).map(|i| (12 - i) as f64 * 0.2).collect(),
            (0..5).map(|q| q as f64 + shift).collect(),
            (0..5).map(|q| q as f64 * 2.0 - shift).collect(),
            (0..5).map(|q| (q as f64 - shift).abs()).collect(),
        ];
        RunFeatureData { features, series }
    }

    /// `mixed_run` with a level shift halfway through both resource
    /// series, so BCPD splits each into at least two phases.
    fn phased_run(shift: f64) -> RunFeatureData {
        let mut run = mixed_run(shift);
        for (f, series) in run.series[..2].iter_mut().enumerate() {
            *series = (0..120usize)
                .map(|t| {
                    let jitter = ((t * 2_654_435_761) % 1000) as f64 / 1000.0 - 0.5;
                    let level = if t < 60 {
                        shift
                    } else {
                        shift + 5.0 + f as f64
                    };
                    level + 0.2 * jitter
                })
                .collect();
        }
        run
    }

    /// Shapes and bit patterns, so `-0.0` vs `0.0` or a NaN payload
    /// counts as a difference.
    fn bits(fps: &[Matrix]) -> Vec<((usize, usize), Vec<u64>)> {
        fps.iter()
            .map(|m| {
                (
                    m.shape(),
                    m.as_slice().iter().map(|v| v.to_bits()).collect(),
                )
            })
            .collect()
    }

    /// FNV-1a over [`bits`].
    fn digest(fps: &[Matrix]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for ((rows, cols), values) in bits(fps) {
            for word in [rows as u64, cols as u64].into_iter().chain(values) {
                for b in word.to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Joint mode is fit-then-fingerprint over the same batch, bit for
    /// bit, for every representation; the digests pin the joint bits so
    /// a change to the shared per-run code cannot drift both modes
    /// together unnoticed.
    #[test]
    fn joint_fingerprints_equal_fit_then_fingerprint_bit_for_bit() {
        const PINNED: [(Representation, u64); 3] = [
            (Representation::Mts, 0xc243_19da_ba21_8bc0),
            (Representation::HistFp, 0x1f34_4e29_87ca_abee),
            (Representation::PhaseFp, 0x0bd5_0e43_b31b_24d9),
        ];
        let cfg = FingerprintConfig::default();
        let phased: Vec<RunFeatureData> = (0..3).map(|i| phased_run(i as f64)).collect();
        for (repr, pinned) in PINNED {
            // MTS needs one shared clock: the resource series only
            let batch: Vec<RunFeatureData> = if repr == Representation::Mts {
                phased
                    .iter()
                    .map(|r| RunFeatureData {
                        features: r.features[..2].to_vec(),
                        series: r.series[..2].to_vec(),
                    })
                    .collect()
            } else {
                phased.clone()
            };
            let joint = fingerprinter(repr, &cfg).fingerprints(&batch);
            let frozen = fitted(repr, &cfg, &batch);
            let one_by_one: Vec<Matrix> = batch.iter().map(|r| frozen.fingerprint(r)).collect();
            assert_eq!(bits(&joint), bits(&one_by_one), "{}", repr.label());
            assert_eq!(
                digest(&joint),
                pinned,
                "{}: joint bits drifted",
                repr.label()
            );
        }
        let phase = fingerprinter(Representation::PhaseFp, &cfg).fingerprints(&phased);
        assert!(
            phase[0].cols() >= 2 * cfg.phase.stats.len(),
            "test series must split into at least two phases"
        );
    }

    #[test]
    fn hist_joint_matches_primitive_bit_for_bit() {
        let data = vec![mixed_run(0.0), mixed_run(1.5), mixed_run(3.0)];
        let via_trait = fingerprinter(Representation::HistFp, &FingerprintConfig::default())
            .fingerprints(&data);
        assert_eq!(via_trait, histfp(&data, DEFAULT_BINS));
    }

    #[test]
    fn phase_joint_matches_primitive_bit_for_bit() {
        let data = vec![mixed_run(0.0), mixed_run(2.0)];
        let via_trait = fingerprinter(Representation::PhaseFp, &FingerprintConfig::default())
            .fingerprints(&data);
        assert_eq!(via_trait, phasefp(&data, &PhaseFpConfig::default()));
    }

    #[test]
    fn mts_joint_matches_primitive_bit_for_bit() {
        let data = vec![
            resource_run(vec![vec![0.0, 1.0, 2.0], vec![3.0, 4.0, 5.0]]),
            resource_run(vec![vec![0.5, 1.5, 2.5], vec![3.5, 4.5, 5.5]]),
        ];
        let via_trait =
            fingerprinter(Representation::Mts, &FingerprintConfig::default()).fingerprints(&data);
        assert_eq!(via_trait, mts(&data));
    }

    #[test]
    fn hist_frozen_fingerprint_matches_ranged_primitive() {
        let corpus = vec![mixed_run(0.0), mixed_run(2.0)];
        let fp = fitted(
            Representation::HistFp,
            &FingerprintConfig::default(),
            &corpus,
        );
        let query = mixed_run(5.0);
        let ranges = global_ranges(&corpus);
        let direct = histfp_with_ranges(std::slice::from_ref(&query), &ranges, DEFAULT_BINS);
        assert_eq!(fp.fingerprint(&query), direct[0]);
    }

    #[test]
    fn frozen_fingerprints_are_query_independent() {
        // the corpus-stable contract, per representation (MTS gets
        // resource-only runs: its raw form needs one shared clock)
        for repr in Representation::ALL {
            let data: Vec<RunFeatureData> = if repr == Representation::Mts {
                (0..4)
                    .map(|i| {
                        resource_run(vec![
                            (0..12).map(|t| t as f64 + i as f64).collect(),
                            (0..12).map(|t| (t * 2) as f64 - i as f64).collect(),
                        ])
                    })
                    .collect()
            } else {
                (0..4).map(|i| mixed_run(i as f64)).collect()
            };
            let (corpus, rest) = data.split_at(3);
            let fp = fitted(repr, &FingerprintConfig::default(), corpus);
            let a = fp.fingerprint(&rest[0]);
            let b = fp.fingerprint(&rest[0]);
            assert_eq!(a, b, "{}: fingerprint must be pure", repr.label());
        }
    }

    #[test]
    fn phase_frozen_handles_phase_overflow() {
        // corpus with calm series freezes max_phases low; a noisy query
        // must still produce a fingerprint of the frozen shape
        let calm: Vec<RunFeatureData> = (0..2)
            .map(|i| resource_run(vec![vec![i as f64; 60]]))
            .collect();
        let fp = fitted(
            Representation::PhaseFp,
            &FingerprintConfig::default(),
            &calm,
        );
        let shape = fp.fingerprint(&calm[0]).shape();
        let noisy = resource_run(vec![(0..60)
            .map(|t| if (t / 10) % 2 == 0 { 0.0 } else { 1.0 })
            .collect()]);
        assert_eq!(fp.fingerprint(&noisy).shape(), shape);
    }
}
