//! Summaries: nearest-rank percentiles (the service's own
//! `wp_linalg::stats::nearest_rank`), always carried with their sample
//! count.

use wp_linalg::stats::nearest_rank;

/// A set of nanosecond samples, sorted once.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<u64>,
}

impl Dist {
    pub fn new(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        Self { sorted: samples }
    }

    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// The `p`-th nearest-rank percentile in nanoseconds (0 when empty).
    pub fn pct(&self, p: f64) -> u64 {
        nearest_rank(&self.sorted, p)
    }

    /// The `p`-th percentile with its sample count, in `unit_ns`
    /// nanoseconds per unit (1e6 for milliseconds).
    pub fn quantile(&self, p: f64, unit_ns: f64) -> Quantile {
        Quantile {
            value: self.pct(p) as f64 / unit_ns,
            n: self.n(),
        }
    }
}

/// One reported percentile and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub value: f64,
    pub n: usize,
}

/// Median of floats by nearest rank; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let rank = (0.5 * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_and_carry_their_count() {
        let d = Dist::new((1..=200).rev().map(|x| x * 1_000).collect());
        assert_eq!(d.pct(50.0), 100_000);
        assert_eq!(d.pct(99.0), 198_000);
        assert_eq!(d.pct(100.0), 200_000);
        let q = d.quantile(99.0, 1e3);
        assert_eq!(
            q,
            Quantile {
                value: 198.0,
                n: 200
            }
        );
        assert_eq!(Dist::default().quantile(50.0, 1.0).n, 0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
