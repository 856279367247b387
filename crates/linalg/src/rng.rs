//! Seedable xorshift64* pseudo-random numbers.
//!
//! One small, fast, fully deterministic generator shared by the whole
//! workspace: the simulator, bootstrap sampling, feature subsampling in
//! the tree learner, weight initialisation in the MLP, shuffling in
//! cross-validation, and the randomized tests. Promoted here from the
//! two private copies that used to live in `wp_ml::tree` and
//! `wp_telemetry::sampling`.
//!
//! xorshift64* (Vigna, 2016) passes the statistical tests that matter
//! for simulation and subsampling, needs eight bytes of state, and has
//! no platform-dependent behaviour — identical sequences on every
//! architecture, which the determinism contract of `wp-runtime` relies
//! on.

/// A seedable xorshift64* generator.
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Creates a generator from a seed. Distinct seeds — including 0 —
    /// yield distinct, well-mixed streams.
    pub fn new(seed: u64) -> Self {
        // Golden-ratio mixing so that small consecutive seeds (0, 1, 2…)
        // do not produce correlated streams; +1 guards the all-zero state
        // xorshift cannot leave.
        Self {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut s = self.state;
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        self.state = s;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw from `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw from `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index draw from `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is an empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::new(0);
        let mut b = Rng64::new(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn unit_stays_in_half_open_interval() {
        let mut rng = Rng64::new(7);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
        }
        // The stream actually spreads across the interval.
        assert!(lo < 0.05 && hi > 0.95, "lo={lo} hi={hi}");
    }

    #[test]
    fn below_covers_the_range() {
        let mut rng = Rng64::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.below(10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng64::new(5);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }
}
