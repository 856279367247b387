//! Randomized property tests for the linear-algebra substrate.
//!
//! Seeded [`Rng64`] case loops stand in for an external property-testing
//! framework: each test draws `CASES` random instances from a fixed seed,
//! so failures are reproducible and the suite needs no registry crates.

use wp_linalg::{cholesky_solve, lstsq, Matrix, Rng64};

const CASES: usize = 64;

fn matrix(rng: &mut Rng64, rows: usize, cols: usize) -> Matrix {
    let data: Vec<f64> = (0..rows * cols).map(|_| rng.range(-100.0, 100.0)).collect();
    Matrix::from_vec(rows, cols, data)
}

fn vector(rng: &mut Rng64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.range(lo, hi)).collect()
}

#[test]
fn transpose_is_involution() {
    let mut rng = Rng64::new(0x11);
    for _ in 0..CASES {
        let m = matrix(&mut rng, 4, 6);
        assert_eq!(m.transpose().transpose(), m);
    }
}

#[test]
fn matmul_distributes_over_addition() {
    let mut rng = Rng64::new(0x12);
    for _ in 0..CASES {
        let a = matrix(&mut rng, 3, 4);
        let b = matrix(&mut rng, 4, 2);
        let c = matrix(&mut rng, 4, 2);
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }
}

#[test]
fn gram_is_symmetric_psd_diagonal() {
    let mut rng = Rng64::new(0x13);
    for _ in 0..CASES {
        let g = matrix(&mut rng, 5, 3).gram();
        for i in 0..3 {
            assert!(g[(i, i)] >= -1e-9, "diagonal must be non-negative");
            for j in 0..3 {
                assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn frobenius_triangle_inequality() {
    let mut rng = Rng64::new(0x14);
    for _ in 0..CASES {
        let a = matrix(&mut rng, 3, 3);
        let b = matrix(&mut rng, 3, 3);
        let lhs = a.add(&b).frobenius_norm();
        let rhs = a.frobenius_norm() + b.frobenius_norm();
        assert!(lhs <= rhs + 1e-9);
    }
}

#[test]
fn cholesky_solve_recovers_solution() {
    let mut rng = Rng64::new(0x15);
    for _ in 0..CASES {
        let b = matrix(&mut rng, 4, 3);
        let x = vector(&mut rng, 3, -10.0, 10.0);
        // A = BᵀB + I is always SPD
        let mut a = b.gram();
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        let rhs = a.matvec(&x);
        let solved = cholesky_solve(&a, &rhs).unwrap();
        for (s, t) in solved.iter().zip(&x) {
            assert!((s - t).abs() < 1e-6, "{s} vs {t}");
        }
    }
}

#[test]
fn lstsq_residual_not_worse_than_zero_vector() {
    let mut rng = Rng64::new(0x16);
    for _ in 0..CASES {
        let x = matrix(&mut rng, 8, 3);
        let y = vector(&mut rng, 8, -10.0, 10.0);
        let beta = lstsq(&x, &y, 1e-9);
        let pred = x.matvec(&beta);
        let rss: f64 = y.iter().zip(&pred).map(|(a, b)| (a - b) * (a - b)).sum();
        let tss: f64 = y.iter().map(|a| a * a).sum();
        // least squares can never be worse than predicting zero
        assert!(rss <= tss + 1e-6, "rss {rss} > tss {tss}");
    }
}

#[test]
fn minmax_scaler_output_in_unit_interval() {
    let mut rng = Rng64::new(0x17);
    for _ in 0..CASES {
        let m = matrix(&mut rng, 6, 4);
        let (_, t) = wp_linalg::MinMaxScaler::fit_transform(&m);
        for v in t.as_slice() {
            assert!((0.0..=1.0).contains(v));
        }
    }
}

#[test]
fn standard_scaler_centers_columns() {
    let mut rng = Rng64::new(0x18);
    for _ in 0..CASES {
        let m = matrix(&mut rng, 10, 3);
        let (_, t) = wp_linalg::StandardScaler::fit_transform(&m);
        for j in 0..3 {
            let mean = wp_linalg::stats::mean(&t.col(j));
            assert!(mean.abs() < 1e-8, "column {j} mean {mean}");
        }
    }
}

#[test]
fn histogram_cumulative_is_monotone() {
    let mut rng = Rng64::new(0x19);
    for _ in 0..CASES {
        let len = 1 + rng.below(59);
        let values = vector(&mut rng, len, -50.0, 50.0);
        let nbins = 1 + rng.below(19);
        let c = wp_linalg::cumulative_histogram(&values, nbins);
        assert_eq!(c.len(), nbins);
        for w in c.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
        assert!((c[nbins - 1] - 1.0).abs() < 1e-9);
    }
}

#[test]
fn quantile_between_min_and_max() {
    let mut rng = Rng64::new(0x1A);
    for _ in 0..CASES {
        let len = 1 + rng.below(39);
        let values = vector(&mut rng, len, -50.0, 50.0);
        let q = rng.unit();
        let v = wp_linalg::quantile(&values, q);
        assert!(v >= wp_linalg::min(&values) - 1e-12);
        assert!(v <= wp_linalg::max(&values) + 1e-12);
    }
}

#[test]
fn pearson_bounded() {
    let mut rng = Rng64::new(0x1B);
    for _ in 0..CASES {
        let len = 5 + rng.below(25);
        let a = vector(&mut rng, len, -50.0, 50.0);
        let b: Vec<f64> = a.iter().map(|x| x * 2.0 + 1.0).collect();
        let r = wp_linalg::pearson(&a, &b);
        assert!((-1.0..=1.0).contains(&r));
    }
}

#[test]
fn nearest_rank_returns_an_observed_sample() {
    let mut rng = Rng64::new(0x1C);
    for _ in 0..CASES {
        let len = 1 + rng.below(200);
        let mut sorted: Vec<u64> = (0..len).map(|_| rng.below(10_000) as u64).collect();
        sorted.sort_unstable();
        let p = rng.unit() * 100.0;
        let v = wp_linalg::stats::nearest_rank(&sorted, p);
        // Never an interpolation: the convention shared by the server's
        // /stats endpoint and the load generator's report promises every
        // reported percentile is a sample that actually happened.
        assert!(sorted.contains(&v), "{v} not in {sorted:?} (p={p})");
    }
}

#[test]
fn nearest_rank_is_monotone_in_p() {
    let mut rng = Rng64::new(0x1D);
    for _ in 0..CASES {
        let len = 1 + rng.below(100);
        let mut sorted: Vec<u64> = (0..len).map(|_| rng.below(1_000) as u64).collect();
        sorted.sort_unstable();
        let mut a = rng.unit() * 100.0;
        let mut b = rng.unit() * 100.0;
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let lo = wp_linalg::stats::nearest_rank(&sorted, a);
        let hi = wp_linalg::stats::nearest_rank(&sorted, b);
        assert!(lo <= hi, "p{a} gave {lo} > p{b} gave {hi} over {sorted:?}");
    }
}

#[test]
fn nearest_rank_edge_cases() {
    let mut rng = Rng64::new(0x1E);
    // empty: the documented zero sentinel, at every percentile
    for p in [0.0, 50.0, 100.0] {
        assert_eq!(wp_linalg::stats::nearest_rank(&[], p), 0);
    }
    for _ in 0..CASES {
        let x = rng.below(10_000) as u64;
        let p = rng.unit() * 100.0;
        // single element: every percentile is that element
        assert_eq!(wp_linalg::stats::nearest_rank(&[x], p), x);
        // all-equal: ties collapse to the common value
        let ties = vec![x; 1 + rng.below(50)];
        assert_eq!(wp_linalg::stats::nearest_rank(&ties, p), x);
    }
    // p=0 is the minimum (rank clamps to 1), p=100 the maximum
    for _ in 0..CASES {
        let len = 1 + rng.below(50);
        let mut sorted: Vec<u64> = (0..len).map(|_| rng.below(1_000) as u64).collect();
        sorted.sort_unstable();
        assert_eq!(wp_linalg::stats::nearest_rank(&sorted, 0.0), sorted[0]);
        assert_eq!(
            wp_linalg::stats::nearest_rank(&sorted, 100.0),
            *sorted.last().unwrap()
        );
    }
}

#[test]
fn try_from_vec_validates_length() {
    let ok = Matrix::try_from_vec(2, 3, vec![0.0; 6]);
    assert!(ok.is_ok());
    let err = Matrix::try_from_vec(2, 3, vec![0.0; 5]).unwrap_err();
    assert!(err.contains("does not match"), "{err}");
    // 2^32 × 2^32 wraps to 0 on 64-bit targets: not the length of [].
    let side = 1usize << (usize::BITS / 2);
    let err = Matrix::try_from_vec(side, side, vec![]).unwrap_err();
    assert!(err.contains("does not match"), "{err}");
}
