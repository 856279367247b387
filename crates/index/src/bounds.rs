//! The lower bounds behind the pruning cascade.
//!
//! Every function here returns a value that provably never exceeds the
//! exact distance it stands in for — that is the whole exactness
//! argument of [`crate::Index`]: a candidate is discarded only when a
//! *lower bound* on its distance already reaches the current k-th best
//! exact distance.
//!
//! | bound | measure | cost | idea |
//! |---|---|---|---|
//! | pivot | metric norms | O(P) | triangle inequality via reference points |
//! | PAA | L1,1 / L2,1 / Frobenius | O(S·K) | Jensen / Cauchy-Schwarz per segment |
//! | LB_Kim | DTW | O(K) | endpoints are always on the warping path |
//! | LB_Keogh | DTW | O(T·K) | per-point distance to the band envelope |
//! | match-count | LCSS | O(T·K) | points outside the ε-envelope never match |

use wp_linalg::Matrix;
use wp_similarity::Norm;

/// Piecewise aggregate approximation: `nseg` segment means of length
/// `seg` per column. Rows beyond `nseg * seg` are ignored — dropping
/// terms from the (non-negative) per-row sums keeps every bound below
/// a lower bound of the full distance.
pub(crate) fn paa(fp: &Matrix, seg: usize, nseg: usize) -> Matrix {
    let cols = fp.cols();
    let mut out = Matrix::zeros(nseg, cols);
    for s in 0..nseg {
        for k in 0..cols {
            let mut acc = 0.0;
            for i in s * seg..(s + 1) * seg {
                acc += fp[(i, k)];
            }
            out[(s, k)] = acc / seg as f64;
        }
    }
    out
}

/// Lower-bounds `norm(A, B)` from the PAA summaries of `A` and `B`.
///
/// Per segment of length `s` and column `k`:
/// * L1,1: `Σ_i |a_i − b_i| ≥ |Σ_i (a_i − b_i)| = s·|ā − b̄|` (Jensen),
/// * Frobenius / L2,1: `Σ_i (a_i − b_i)² ≥ (Σ_i (a_i − b_i))² / s
///   = s·(ā − b̄)²` (Cauchy-Schwarz).
///
/// Only these three norms have a PAA bound; the caller never asks for
/// the others.
pub(crate) fn paa_lower_bound(norm: Norm, qp: &Matrix, ep: &Matrix, seg: usize) -> f64 {
    let s = seg as f64;
    match norm {
        Norm::L11 => {
            let mut acc = 0.0;
            for i in 0..qp.rows() {
                for k in 0..qp.cols() {
                    acc += (qp[(i, k)] - ep[(i, k)]).abs();
                }
            }
            s * acc
        }
        Norm::Frobenius => {
            let mut acc = 0.0;
            for i in 0..qp.rows() {
                for k in 0..qp.cols() {
                    let d = qp[(i, k)] - ep[(i, k)];
                    acc += d * d;
                }
            }
            (s * acc).sqrt()
        }
        Norm::L21 => {
            let mut total = 0.0;
            for k in 0..qp.cols() {
                let mut acc = 0.0;
                for i in 0..qp.rows() {
                    let d = qp[(i, k)] - ep[(i, k)];
                    acc += d * d;
                }
                total += (s * acc).sqrt();
            }
            total
        }
        _ => 0.0,
    }
}

/// True when the norm satisfies the triangle inequality (pivot pruning
/// is sound). Chi² and 1−correlation do not.
pub(crate) fn is_metric(norm: Norm) -> bool {
    matches!(
        norm,
        Norm::L11 | Norm::L21 | Norm::Frobenius | Norm::Canberra
    )
}

/// True when the norm has a PAA lower bound.
pub(crate) fn has_paa(norm: Norm) -> bool {
    matches!(norm, Norm::L11 | Norm::L21 | Norm::Frobenius)
}

/// LB_Kim for dependent DTW: every warping path matches the first points
/// and the last points, so their squared distances (distinct path cells
/// unless both series have length 1) lower-bound the accumulated cost.
pub(crate) fn lb_kim_dependent(q: &Matrix, e: &Matrix) -> f64 {
    let (m, n) = (q.rows(), e.rows());
    if m == 0 || n == 0 {
        return 0.0;
    }
    let mut acc = wp_linalg::ops::sq_dist(q.row(0), e.row(0));
    if (m, n) != (1, 1) {
        acc += wp_linalg::ops::sq_dist(q.row(m - 1), e.row(n - 1));
    }
    acc.sqrt()
}

/// LB_Kim for independent DTW: the per-dimension endpoint bound, summed
/// after the square root exactly like the exact measure sums the
/// per-dimension distances.
pub(crate) fn lb_kim_independent(q: &Matrix, e: &Matrix) -> f64 {
    let (m, n) = (q.rows(), e.rows());
    if m == 0 || n == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for k in 0..q.cols() {
        let d0 = q[(0, k)] - e[(0, k)];
        let mut acc = d0 * d0;
        if (m, n) != (1, 1) {
            let d1 = q[(m - 1, k)] - e[(n - 1, k)];
            acc += d1 * d1;
        }
        total += acc.sqrt();
    }
    total
}

/// Per-column running min/max envelope of a series under a Sakoe-Chiba
/// half-width `w`: `lower[i][k] = min_{|j−i|≤w} e[j][k]` and the
/// symmetric max. `w >= rows` degenerates to the global min/max, which
/// is the correct envelope for unbanded DTW.
#[derive(Clone)]
pub(crate) struct Envelope {
    pub(crate) lower: Matrix,
    pub(crate) upper: Matrix,
}

/// Streaming (Lemire) envelope: one monotonic deque per extremum keeps
/// the window minimum/maximum as the window slides, so each element is
/// pushed and popped at most once — O(rows) per column instead of the
/// O(rows·w) rescans of [`naive_envelope`]. Element-wise identical to
/// the naive scan (both report the exact window extremum; no arithmetic
/// is involved, only comparisons).
pub(crate) fn envelope(fp: &Matrix, w: usize) -> Envelope {
    let (rows, cols) = fp.shape();
    let mut lower = Matrix::zeros(rows, cols);
    let mut upper = Matrix::zeros(rows, cols);
    // deques hold row indices; values at minq indices are increasing,
    // at maxq indices decreasing — the front is the window extremum
    let mut minq: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut maxq: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for k in 0..cols {
        minq.clear();
        maxq.clear();
        let mut arrived = 0usize; // rows pushed into the deques so far
        for i in 0..rows {
            let hi = (i + w).min(rows - 1);
            while arrived <= hi {
                let v = fp[(arrived, k)];
                while matches!(minq.back(), Some(&b) if fp[(b, k)] > v) {
                    minq.pop_back();
                }
                minq.push_back(arrived);
                while matches!(maxq.back(), Some(&b) if fp[(b, k)] < v) {
                    maxq.pop_back();
                }
                maxq.push_back(arrived);
                arrived += 1;
            }
            let lo = i.saturating_sub(w);
            while matches!(minq.front(), Some(&f) if f < lo) {
                minq.pop_front();
            }
            while matches!(maxq.front(), Some(&f) if f < lo) {
                maxq.pop_front();
            }
            lower[(i, k)] = fp[(minq[0], k)];
            upper[(i, k)] = fp[(maxq[0], k)];
        }
    }
    Envelope { lower, upper }
}

/// Reference O(rows·w) envelope: rescans the full window per row. Kept
/// as the oracle the streaming implementation is property-tested
/// against.
#[cfg(test)]
pub(crate) fn naive_envelope(fp: &Matrix, w: usize) -> Envelope {
    let (rows, cols) = fp.shape();
    let mut lower = Matrix::zeros(rows, cols);
    let mut upper = Matrix::zeros(rows, cols);
    for i in 0..rows {
        let lo = i.saturating_sub(w);
        let hi = (i + w).min(rows.saturating_sub(1));
        for k in 0..cols {
            let mut mn = f64::INFINITY;
            let mut mx = f64::NEG_INFINITY;
            for j in lo..=hi {
                mn = mn.min(fp[(j, k)]);
                mx = mx.max(fp[(j, k)]);
            }
            lower[(i, k)] = mn;
            upper[(i, k)] = mx;
        }
    }
    Envelope { lower, upper }
}

/// LB_Keogh for dependent DTW (equal lengths only — the caller guards):
/// a query point `q_i` is matched, on any path inside the band, to some
/// candidate point within the envelope window of `i`, so its squared
/// distance to that point is at least its squared distance to the
/// envelope. Summing over all `i` and all dimensions lower-bounds the
/// accumulated squared cost of the *banded* DTW.
pub(crate) fn lb_keogh_dependent(q: &Matrix, env: &Envelope) -> f64 {
    let mut acc = 0.0;
    for i in 0..q.rows() {
        for k in 0..q.cols() {
            let v = q[(i, k)];
            let u = env.upper[(i, k)];
            let l = env.lower[(i, k)];
            if v > u {
                acc += (v - u) * (v - u);
            } else if v < l {
                acc += (l - v) * (l - v);
            }
        }
    }
    acc.sqrt()
}

/// LB_Keogh for independent DTW: the per-dimension envelope bound,
/// summed after the square root.
pub(crate) fn lb_keogh_independent(q: &Matrix, env: &Envelope) -> f64 {
    let mut total = 0.0;
    for k in 0..q.cols() {
        let mut acc = 0.0;
        for i in 0..q.rows() {
            let v = q[(i, k)];
            let u = env.upper[(i, k)];
            let l = env.lower[(i, k)];
            if v > u {
                acc += (v - u) * (v - u);
            } else if v < l {
                acc += (l - v) * (l - v);
            }
        }
        total += acc.sqrt();
    }
    total
}

/// LCSS match-count bound, dependent variant: a query row can only ever
/// match a candidate row if every dimension lies within `ε` of the
/// candidate's global per-dimension range, and matched query rows are
/// distinct — so the match length is at most the count of matchable
/// rows, and `1 − min(cnt, denom)/denom` lower-bounds the distance.
pub(crate) fn lb_lcss_dependent(q: &Matrix, minmax: &[(f64, f64)], epsilon: f64, n: usize) -> f64 {
    let m = q.rows();
    let denom = m.min(n);
    if denom == 0 {
        return 0.0;
    }
    let mut cnt = 0usize;
    for i in 0..m {
        let matchable = (0..q.cols()).all(|k| {
            let v = q[(i, k)];
            v >= minmax[k].0 - epsilon && v <= minmax[k].1 + epsilon
        });
        if matchable {
            cnt += 1;
        }
    }
    1.0 - cnt.min(denom) as f64 / denom as f64
}

/// LCSS match-count bound, independent variant: the per-dimension bound
/// averaged over dimensions, mirroring the exact measure.
pub(crate) fn lb_lcss_independent(
    q: &Matrix,
    minmax: &[(f64, f64)],
    epsilon: f64,
    n: usize,
) -> f64 {
    let m = q.rows();
    let denom = m.min(n);
    let cols = q.cols();
    if denom == 0 || cols == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for (k, &(lo, hi)) in minmax.iter().enumerate() {
        let mut cnt = 0usize;
        for i in 0..m {
            let v = q[(i, k)];
            if v >= lo - epsilon && v <= hi + epsilon {
                cnt += 1;
            }
        }
        total += 1.0 - cnt.min(denom) as f64 / denom as f64;
    }
    total / cols as f64
}

/// Per-column global `(min, max)` of a fingerprint — the ε-envelope
/// anchor for the LCSS bound.
pub(crate) fn column_minmax(fp: &Matrix) -> Vec<(f64, f64)> {
    (0..fp.cols())
        .map(|k| {
            let mut mn = f64::INFINITY;
            let mut mx = f64::NEG_INFINITY;
            for i in 0..fp.rows() {
                mn = mn.min(fp[(i, k)]);
                mx = mx.max(fp[(i, k)]);
            }
            (mn, mx)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_similarity::measure::Measure;

    fn mat(seed: u64, rows: usize, cols: usize) -> Matrix {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(7);
        let rows_v: Vec<Vec<f64>> = (0..rows)
            .map(|_| {
                (0..cols)
                    .map(|_| {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        (s % 2_000) as f64 / 1_000.0 - 1.0
                    })
                    .collect()
            })
            .collect();
        Matrix::from_rows(&rows_v)
    }

    #[test]
    fn paa_bounds_never_exceed_exact_norms() {
        for seed in 0..20u64 {
            let a = mat(seed, 17, 3);
            let b = mat(seed + 1000, 17, 3);
            let seg = 4;
            let nseg = 4; // 16 of 17 rows covered
            let pa = paa(&a, seg, nseg);
            let pb = paa(&b, seg, nseg);
            for norm in [Norm::L11, Norm::L21, Norm::Frobenius] {
                let lb = paa_lower_bound(norm, &pa, &pb, seg);
                let exact = norm.apply(&a, &b);
                assert!(lb <= exact + 1e-9, "{norm:?}: lb {lb} > exact {exact}");
            }
        }
    }

    #[test]
    fn kim_and_keogh_bound_banded_dtw() {
        for seed in 0..20u64 {
            let a = mat(seed, 25, 2);
            let b = mat(seed + 500, 25, 2);
            for band in [Some(3), Some(10), None] {
                let w = band.unwrap_or(a.rows());
                let env = envelope(&b, w);
                let dep = Measure::DtwDependent.apply_banded(&a, &b, band);
                let ind = Measure::DtwIndependent.apply_banded(&a, &b, band);
                assert!(lb_kim_dependent(&a, &b) <= dep + 1e-9);
                assert!(lb_keogh_dependent(&a, &env) <= dep + 1e-9);
                assert!(lb_kim_independent(&a, &b) <= ind + 1e-9);
                assert!(lb_keogh_independent(&a, &env) <= ind + 1e-9);
            }
        }
    }

    #[test]
    fn keogh_is_exactly_zero_for_points_inside_the_envelope() {
        let b = mat(3, 12, 2);
        let env = envelope(&b, 12);
        // b itself lies inside its own envelope
        assert_eq!(lb_keogh_dependent(&b, &env), 0.0);
    }

    #[test]
    fn lcss_bounds_never_exceed_exact() {
        for seed in 0..20u64 {
            let a = mat(seed, 14, 3);
            let b = mat(seed + 77, 19, 3);
            let eps = 0.1;
            let mm = column_minmax(&b);
            let dep = Measure::LcssDependent { epsilon: eps }.apply(&a, &b);
            let ind = Measure::LcssIndependent { epsilon: eps }.apply(&a, &b);
            assert!(lb_lcss_dependent(&a, &mm, eps, b.rows()) <= dep + 1e-9);
            assert!(lb_lcss_independent(&a, &mm, eps, b.rows()) <= ind + 1e-9);
        }
    }

    #[test]
    fn streaming_envelope_matches_naive_elementwise() {
        // the Lemire deque envelope must agree with the O(rows·w)
        // rescan on every element, for random series, shapes, and band
        // widths (including w = 0, w >= rows, and single-row series)
        for seed in 0..30u64 {
            for &(rows, cols) in &[(1usize, 1usize), (2, 3), (13, 2), (40, 4), (64, 1)] {
                let fp = mat(seed.wrapping_add(rows as u64 * 101), rows, cols);
                for w in [0usize, 1, 2, 5, rows / 2, rows, rows + 7] {
                    let fast = envelope(&fp, w);
                    let slow = naive_envelope(&fp, w);
                    for i in 0..rows {
                        for k in 0..cols {
                            assert_eq!(
                                fast.lower[(i, k)].to_bits(),
                                slow.lower[(i, k)].to_bits(),
                                "lower seed={seed} {rows}x{cols} w={w} at ({i},{k})"
                            );
                            assert_eq!(
                                fast.upper[(i, k)].to_bits(),
                                slow.upper[(i, k)].to_bits(),
                                "upper seed={seed} {rows}x{cols} w={w} at ({i},{k})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn envelope_full_width_is_global_minmax() {
        let b = mat(9, 10, 2);
        let env = envelope(&b, b.rows());
        let mm = column_minmax(&b);
        for i in 0..b.rows() {
            for (k, &(lo, hi)) in mm.iter().enumerate() {
                assert_eq!(env.lower[(i, k)], lo);
                assert_eq!(env.upper[(i, k)], hi);
            }
        }
    }
}
