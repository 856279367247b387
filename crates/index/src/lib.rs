//! `wp-index` — exact top-k nearest-neighbor retrieval over workload
//! fingerprints with a cheap-to-expensive lower-bound pruning cascade.
//!
//! Brute-force similarity scoring (the paper's §5 workflow, and what
//! `/similar` shipped with) computes the exact measure against *every*
//! corpus fingerprint — O(n) exact distances per query, each O(T²) for
//! the elastic measures. This crate keeps the *results* of brute force
//! and removes most of its *work*: every candidate first has to survive
//! a cascade of provable lower bounds, ordered by cost, and only the
//! survivors pay for the exact measure.
//!
//! ```text
//!             query
//!               │
//!   ┌───────────▼───────────┐
//!   │ 1. pivot bound  O(P)  │  metric norms (L1,1 L2,1 Fro Canberra)
//!   │    |d(q,p) − d(x,p)|  │  triangle inequality over P pivots
//!   ├───────────────────────┤
//!   │ 2. PAA bound    O(S·K)│  L1,1 / L2,1 / Frobenius
//!   │    segment means      │  Jensen / Cauchy-Schwarz per segment
//!   ├───────────────────────┤
//!   │ 3. LB_Kim       O(K)  │  DTW: endpoint distances
//!   ├───────────────────────┤
//!   │ 4. LB_Keogh     O(T·K)│  DTW: Sakoe-Chiba band envelopes
//!   ├───────────────────────┤
//!   │ 5. ε-envelope   O(T·K)│  LCSS: matchable-point count
//!   ├───────────────────────┤
//!   │ 6. exact measure      │  only for survivors; DTW survivors run
//!   └───────────────────────┘  the early-abandoning kernel, which may
//!                              still bail mid-table (stage "ea")
//! ```
//!
//! **Exactness.** A candidate is pruned only when a lower bound on its
//! distance already reaches the current k-th best *exact* distance.
//! Candidates are scanned in corpus order and ranked by `(distance,
//! index)` under `f64::total_cmp`, the same order brute force sorts by,
//! so [`Index::search_k`] returns *bit-identical* indices and distances
//! to [`brute_force_k`] — for every measure, every seed, and every
//! `WP_THREADS` setting. Measures with no applicable bound (Chi²,
//! 1−correlation) degrade gracefully to a scan with zero pruning.
//!
//! **Banding.** LB_Keogh tightens with a Sakoe-Chiba band, but a banded
//! envelope only lower-bounds the *banded* DTW — so the band lives in
//! [`IndexConfig`] and the index's exact fallback is
//! [`Measure::apply_banded`] under that same window. The default
//! (`band: None`) reproduces the unconstrained measures bit-for-bit.

#![warn(missing_docs)]

mod bounds;

use std::cmp::Ordering;

use wp_linalg::Matrix;
use wp_obs::LazyCounter;
use wp_similarity::measure::validate_fingerprints;
use wp_similarity::Measure;

use bounds::Envelope;

/// Searches answered through the cascade.
static OBS_SEARCHES: LazyCounter = LazyCounter::new("wp_index_searches_total");
/// Candidates considered across all searches.
static OBS_CANDIDATES: LazyCounter = LazyCounter::new("wp_index_candidates_total");
/// Candidates that survived every bound and paid for an exact distance.
static OBS_EXACT: LazyCounter = LazyCounter::new("wp_index_exact_total");
/// Candidates discarded, by the cascade stage whose bound fired.
static OBS_PRUNED: [LazyCounter; 6] = [
    LazyCounter::new("wp_index_pruned_total{stage=\"pivot\"}"),
    LazyCounter::new("wp_index_pruned_total{stage=\"paa\"}"),
    LazyCounter::new("wp_index_pruned_total{stage=\"kim\"}"),
    LazyCounter::new("wp_index_pruned_total{stage=\"keogh\"}"),
    LazyCounter::new("wp_index_pruned_total{stage=\"lcss\"}"),
    LazyCounter::new("wp_index_pruned_total{stage=\"ea\"}"),
];

/// Tuning knobs for [`Index::build`]. The defaults are safe for every
/// measure; none of them affect *which* results a search returns, only
/// how much work it takes to find them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexConfig {
    /// Optional Sakoe-Chiba half-width for the DTW measures. When set,
    /// the index computes (and exactly matches brute force on) the
    /// *banded* distance — see [`Measure::apply_banded`].
    pub band: Option<usize>,
    /// Target number of PAA segments per fingerprint column.
    pub paa_segments: usize,
    /// Number of triangle-inequality pivots for metric norms.
    pub pivots: usize,
    /// Run the early-abandoning DTW kernel for cascade survivors,
    /// passing the current k-th best distance as the abandon threshold.
    /// Never changes results (the kernel abandons only when the distance
    /// provably exceeds the threshold *strictly*, and a threshold tie
    /// loses to the smaller corpus index already in the top-k); on by
    /// default, switchable off for A/B benchmarking.
    pub early_abandon: bool,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self {
            band: None,
            paa_segments: 8,
            pivots: 4,
            early_abandon: true,
        }
    }
}

/// One search result: the corpus position of a fingerprint and its exact
/// distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Position in the corpus (build order, then insertion order).
    pub index: usize,
    /// Exact (banded, if configured) distance to the query.
    pub distance: f64,
}

/// Per-search accounting of how far each candidate got through the
/// cascade. `candidates == pruned() + exact` always holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Corpus fingerprints considered.
    pub candidates: usize,
    /// Discarded by the pivot (triangle-inequality) bound.
    pub pruned_pivot: usize,
    /// Discarded by the PAA segment-mean bound.
    pub pruned_paa: usize,
    /// Discarded by LB_Kim (DTW endpoints).
    pub pruned_kim: usize,
    /// Discarded by LB_Keogh (DTW band envelopes).
    pub pruned_keogh: usize,
    /// Discarded by the LCSS ε-envelope match-count bound.
    pub pruned_lcss: usize,
    /// Discarded mid-table by the early-abandoning DTW kernel: the
    /// partial warping table already proved the distance exceeds the
    /// k-th best, so the evaluation stopped without a full exact
    /// computation.
    pub pruned_ea: usize,
    /// Completed exact distance computations (including the
    /// query-to-pivot distances, which double as exact candidate
    /// distances).
    pub exact: usize,
}

impl SearchStats {
    /// Total candidates discarded without a *completed* exact
    /// computation (early-abandoned evaluations count as pruned).
    pub fn pruned(&self) -> usize {
        self.pruned_pivot
            + self.pruned_paa
            + self.pruned_kim
            + self.pruned_keogh
            + self.pruned_lcss
            + self.pruned_ea
    }

    /// Fraction of candidates discarded without an exact computation,
    /// in `[0, 1]` (`0` for an empty corpus).
    pub fn pruned_fraction(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.pruned() as f64 / self.candidates as f64
        }
    }

    /// Flushes this search's counters into the global `wp-obs` registry
    /// (no-op while observability is disabled). Called once per search,
    /// so the serve path surfaces pruning behavior without threading the
    /// stats through every caller.
    fn record_obs(&self) {
        if !wp_obs::is_enabled() {
            return;
        }
        OBS_SEARCHES.add(1);
        OBS_CANDIDATES.add(self.candidates as u64);
        OBS_EXACT.add(self.exact as u64);
        for (counter, pruned) in OBS_PRUNED.iter().zip([
            self.pruned_pivot,
            self.pruned_paa,
            self.pruned_kim,
            self.pruned_keogh,
            self.pruned_lcss,
            self.pruned_ea,
        ]) {
            counter.add(pruned as u64);
        }
    }

    /// Accumulates another search's counters into this one.
    pub fn merge(&mut self, other: &SearchStats) {
        self.candidates += other.candidates;
        self.pruned_pivot += other.pruned_pivot;
        self.pruned_paa += other.pruned_paa;
        self.pruned_kim += other.pruned_kim;
        self.pruned_keogh += other.pruned_keogh;
        self.pruned_lcss += other.pruned_lcss;
        self.pruned_ea += other.pruned_ea;
        self.exact += other.exact;
    }
}

/// Precomputed per-fingerprint pruning state.
#[derive(Clone)]
struct Entry {
    fp: Matrix,
    /// PAA segment means (norm measures with a PAA bound).
    paa: Option<Matrix>,
    /// Sakoe-Chiba band envelope (DTW measures).
    env: Option<Envelope>,
    /// Per-column global min/max (LCSS measures).
    minmax: Option<Vec<(f64, f64)>>,
    /// Exact distance to each pivot (metric norms).
    pivot_d: Vec<f64>,
}

/// An exact top-k nearest-neighbor index over a fingerprint corpus for
/// one fixed [`Measure`]. See the crate docs for the cascade and the
/// exactness argument.
#[derive(Clone)]
pub struct Index {
    measure: Measure,
    config: IndexConfig,
    entries: Vec<Entry>,
    /// Corpus positions serving as pivots (metric norms only).
    pivots: Vec<usize>,
    /// PAA segment length (norm measures; fixed row count).
    paa_seg: usize,
    /// Number of PAA segments actually used.
    paa_nseg: usize,
}

impl Index {
    /// Builds an index over `fingerprints` for `measure`. Per-entry
    /// summaries (PAA, envelopes, ε-ranges) are computed in parallel on
    /// the [`wp_runtime`] pool; pivot selection is a deterministic
    /// farthest-first sweep, so the index is bit-identical regardless of
    /// `WP_THREADS`.
    ///
    /// Fingerprint requirements match
    /// [`wp_similarity::measure::try_distance_matrix`]: identical shapes
    /// for norms, a shared column count for the elastic measures. An
    /// empty corpus is allowed (searches return nothing).
    pub fn build(
        fingerprints: Vec<Matrix>,
        measure: Measure,
        config: IndexConfig,
    ) -> Result<Index, String> {
        if !fingerprints.is_empty() {
            validate_fingerprints(&fingerprints, measure)?;
        }
        let (paa_seg, paa_nseg) = match fingerprints.first() {
            Some(fp) => paa_layout(measure, fp.rows(), config.paa_segments),
            None => (1, 0),
        };
        let summaries = wp_runtime::par_map_indexed(fingerprints.len(), |i| {
            summarize(&fingerprints[i], measure, &config, paa_seg, paa_nseg)
        });
        let mut entries: Vec<Entry> = fingerprints
            .into_iter()
            .zip(summaries)
            .map(|(fp, (paa, env, minmax))| Entry {
                fp,
                paa,
                env,
                minmax,
                pivot_d: Vec::new(),
            })
            .collect();

        let mut index = Index {
            measure,
            config,
            entries: Vec::new(),
            pivots: Vec::new(),
            paa_seg,
            paa_nseg,
        };
        index.choose_pivots(&mut entries);
        index.entries = entries;
        Ok(index)
    }

    /// Deterministic farthest-first pivot selection with the full
    /// pivot-distance table. Pivots only help measures with a triangle
    /// inequality; for the rest this is a no-op.
    fn choose_pivots(&mut self, entries: &mut [Entry]) {
        let p_want = match self.measure {
            Measure::Norm(n) if bounds::is_metric(n) => self.config.pivots.min(entries.len()),
            _ => 0,
        };
        if p_want == 0 {
            return;
        }
        let n = entries.len();
        let mut min_dist = vec![f64::INFINITY; n];
        let mut next = 0usize; // farthest-first, seeded at corpus position 0
        for _ in 0..p_want {
            self.pivots.push(next);
            let d = wp_runtime::par_map_indexed(n, |i| {
                self.measure
                    .apply_banded(&entries[next].fp, &entries[i].fp, self.config.band)
            });
            for (i, (e, &di)) in entries.iter_mut().zip(&d).enumerate() {
                e.pivot_d.push(di);
                if di < min_dist[i] {
                    min_dist[i] = di;
                }
            }
            // next pivot: the entry farthest from every chosen pivot
            // (ties break to the lowest index; argmax via total_cmp so a
            // NaN-producing measure still picks deterministically)
            next = (0..n)
                .max_by(|&a, &b| {
                    min_dist[a].total_cmp(&min_dist[b]).then(b.cmp(&a)) // prefer the smaller index on ties
                })
                .unwrap_or(0);
            if min_dist[next] <= 0.0 {
                break; // every remaining entry duplicates a pivot
            }
        }
    }

    /// Appends one fingerprint to the corpus, returning its position.
    /// Summaries and pivot distances are computed immediately; pivots
    /// themselves are fixed at build time, so insertion is O(P) exact
    /// distances plus one summary pass — no rebuild.
    pub fn insert(&mut self, fingerprint: Matrix) -> Result<usize, String> {
        if let Some(first) = self.entries.first() {
            match self.measure {
                Measure::Norm(_) => {
                    if fingerprint.shape() != first.fp.shape() {
                        return Err(format!(
                            "fingerprint has shape {:?} but the index holds {:?}; \
                             norms need identical shapes",
                            fingerprint.shape(),
                            first.fp.shape()
                        ));
                    }
                }
                _ => {
                    if fingerprint.cols() != first.fp.cols() {
                        return Err(format!(
                            "fingerprint has {} features but the index holds {}; \
                             elastic measures need a shared feature count",
                            fingerprint.cols(),
                            first.fp.cols()
                        ));
                    }
                }
            }
        } else {
            let (seg, nseg) =
                paa_layout(self.measure, fingerprint.rows(), self.config.paa_segments);
            self.paa_seg = seg;
            self.paa_nseg = nseg;
        }
        let (paa, env, minmax) = summarize(
            &fingerprint,
            self.measure,
            &self.config,
            self.paa_seg,
            self.paa_nseg,
        );
        let pivot_d = self
            .pivots
            .iter()
            .map(|&p| {
                self.measure
                    .apply_banded(&fingerprint, &self.entries[p].fp, self.config.band)
            })
            .collect();
        self.entries.push(Entry {
            fp: fingerprint,
            paa,
            env,
            minmax,
            pivot_d,
        });
        Ok(self.entries.len() - 1)
    }

    /// Number of indexed fingerprints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The measure this index answers queries for.
    pub fn measure(&self) -> Measure {
        self.measure
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> IndexConfig {
        self.config
    }

    /// The fingerprint stored at corpus position `i`.
    pub fn fingerprint(&self, i: usize) -> &Matrix {
        &self.entries[i].fp
    }

    /// Exact top-k search. See [`Index::search_k_with_stats`].
    pub fn search_k(&self, query: &Matrix, k: usize) -> Result<Vec<Hit>, String> {
        self.search_k_with_stats(query, k).map(|(hits, _)| hits)
    }

    /// Exact top-k search with cascade accounting: returns the `k`
    /// nearest fingerprints, sorted ascending by `(distance, index)` —
    /// bit-identical to [`brute_force_k`] over the same corpus.
    pub fn search_k_with_stats(
        &self,
        query: &Matrix,
        k: usize,
    ) -> Result<(Vec<Hit>, SearchStats), String> {
        let mut stats = SearchStats::default();
        if k == 0 || self.entries.is_empty() {
            return Ok((Vec::new(), stats));
        }
        // No answer holds more than the whole corpus, and any larger `k`
        // keeps the pruning threshold infinite exactly as `k = len` does;
        // capping first keeps a client-supplied `k` from sizing `best`.
        let k = k.min(self.entries.len());
        self.validate_query(query)?;
        stats.candidates = self.entries.len();

        // Query-side summaries.
        let qpaa = match self.measure {
            Measure::Norm(n) if bounds::has_paa(n) && self.paa_nseg > 0 => {
                Some(bounds::paa(query, self.paa_seg, self.paa_nseg))
            }
            _ => None,
        };
        // Exact query-to-pivot distances; reused verbatim when the scan
        // reaches the pivot's own corpus position.
        let mut exact_at: Vec<Option<f64>> = vec![None; self.entries.len()];
        let mut q_pivot = Vec::with_capacity(self.pivots.len());
        for &p in &self.pivots {
            let d = self.exact(query, &self.entries[p].fp);
            stats.exact += 1;
            exact_at[p] = Some(d);
            q_pivot.push(d);
        }

        let mut best: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
        for (i, entry) in self.entries.iter().enumerate() {
            if let Some(d) = exact_at[i] {
                push_best(&mut best, k, d, i);
                continue;
            }
            // Pruning is sound against the k-th best *exact* distance:
            // every entry already in `best` has a smaller corpus index,
            // so a candidate whose lower bound reaches the threshold can
            // at best tie — and ties lose to smaller indices.
            let threshold = if best.len() == k {
                best[k - 1].0
            } else {
                f64::INFINITY
            };
            if self.prune(entry, query, &q_pivot, qpaa.as_ref(), threshold, &mut stats) {
                continue;
            }
            // Survivors pay for the exact measure — through the
            // early-abandoning kernel when the measure supports it, with
            // the same k-th best as the abandon threshold. Abandoning is
            // tie-safe: it only fires when the distance *strictly*
            // exceeds the threshold, and a candidate that merely ties
            // completes and then loses to the smaller corpus index
            // already in the top-k.
            match self.exact_or_abandon(query, &entry.fp, threshold) {
                Some(d) => {
                    stats.exact += 1;
                    push_best(&mut best, k, d, i);
                }
                None => stats.pruned_ea += 1,
            }
        }
        let hits = best
            .into_iter()
            .map(|(distance, index)| Hit { index, distance })
            .collect();
        stats.record_obs();
        Ok((hits, stats))
    }

    /// Runs the cascade for one candidate. Returns `true` when some
    /// lower bound reaches `threshold` (the candidate cannot enter the
    /// top-k) and records which stage fired.
    fn prune(
        &self,
        entry: &Entry,
        query: &Matrix,
        q_pivot: &[f64],
        qpaa: Option<&Matrix>,
        threshold: f64,
        stats: &mut SearchStats,
    ) -> bool {
        // 1. pivot bound: |d(q,p) − d(x,p)| ≤ d(q,x) for metrics.
        if !q_pivot.is_empty() {
            let lb = q_pivot
                .iter()
                .zip(&entry.pivot_d)
                .map(|(qd, xd)| (qd - xd).abs())
                .fold(0.0f64, f64::max);
            if lb >= threshold {
                stats.pruned_pivot += 1;
                return true;
            }
        }
        // 2. PAA bound.
        if let (Some(qp), Some(ep), Measure::Norm(n)) = (qpaa, entry.paa.as_ref(), self.measure) {
            if bounds::paa_lower_bound(n, qp, ep, self.paa_seg) >= threshold {
                stats.pruned_paa += 1;
                return true;
            }
        }
        match self.measure {
            // 3 + 4. DTW bounds.
            Measure::DtwDependent | Measure::DtwIndependent => {
                let independent = self.measure == Measure::DtwIndependent;
                let kim = if independent {
                    bounds::lb_kim_independent(query, &entry.fp)
                } else {
                    bounds::lb_kim_dependent(query, &entry.fp)
                };
                if kim >= threshold {
                    stats.pruned_kim += 1;
                    return true;
                }
                // LB_Keogh envelopes are aligned per row: equal lengths only.
                if let Some(env) = entry
                    .env
                    .as_ref()
                    .filter(|_| query.rows() == entry.fp.rows())
                {
                    let keogh = if independent {
                        bounds::lb_keogh_independent(query, env)
                    } else {
                        bounds::lb_keogh_dependent(query, env)
                    };
                    if keogh >= threshold {
                        stats.pruned_keogh += 1;
                        return true;
                    }
                }
            }
            // 5. LCSS ε-envelope bound.
            Measure::LcssDependent { epsilon } | Measure::LcssIndependent { epsilon } => {
                if let Some(mm) = entry.minmax.as_ref() {
                    let independent = matches!(self.measure, Measure::LcssIndependent { .. });
                    let lb = if independent {
                        bounds::lb_lcss_independent(query, mm, epsilon, entry.fp.rows())
                    } else {
                        bounds::lb_lcss_dependent(query, mm, epsilon, entry.fp.rows())
                    };
                    if lb >= threshold {
                        stats.pruned_lcss += 1;
                        return true;
                    }
                }
            }
            Measure::Norm(_) => {}
        }
        false
    }

    /// The exact (banded, if configured) measure the index serves.
    fn exact(&self, query: &Matrix, fp: &Matrix) -> f64 {
        self.measure.apply_banded(query, fp, self.config.band)
    }

    /// Exact distance through the early-abandoning DTW kernel when
    /// enabled and applicable; `None` when the kernel proved the
    /// distance strictly exceeds `threshold`. Completed evaluations are
    /// bit-identical to [`Index::exact`]. An infinite threshold (top-k
    /// not yet full) never abandons; the EA kernel is still preferred
    /// there because it evaluates dimensions sequentially — one
    /// candidate is a poor unit of nested parallelism inside the
    /// already-sequential scan loop.
    fn exact_or_abandon(&self, query: &Matrix, fp: &Matrix, threshold: f64) -> Option<f64> {
        use wp_similarity::dtw;
        if self.config.early_abandon {
            match self.measure {
                Measure::DtwDependent => {
                    return dtw::dtw_dependent_banded_ea(query, fp, self.config.band, threshold)
                        .exact();
                }
                Measure::DtwIndependent => {
                    return dtw::dtw_independent_banded_ea(query, fp, self.config.band, threshold)
                        .exact();
                }
                _ => {}
            }
        }
        Some(self.exact(query, fp))
    }

    fn validate_query(&self, query: &Matrix) -> Result<(), String> {
        let first = &self.entries[0].fp;
        match self.measure {
            Measure::Norm(_) => {
                if query.shape() != first.shape() {
                    return Err(format!(
                        "query has shape {:?} but the index holds {:?}; \
                         norms need identical shapes",
                        query.shape(),
                        first.shape()
                    ));
                }
            }
            _ => {
                if query.cols() != first.cols() {
                    return Err(format!(
                        "query has {} features but the index holds {}; \
                         elastic measures need a shared feature count",
                        query.cols(),
                        first.cols()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// PAA layout for a fingerprint with `rows` rows: segment length and
/// segment count (`0` segments disables the bound). Only norm measures
/// with a PAA bound get a layout.
fn paa_layout(measure: Measure, rows: usize, target_segments: usize) -> (usize, usize) {
    match measure {
        Measure::Norm(n) if bounds::has_paa(n) && rows > 0 => {
            let seg = (rows / target_segments.max(1)).max(1);
            (seg, rows / seg)
        }
        _ => (1, 0),
    }
}

/// Computes the per-entry summaries the cascade needs for `measure`.
#[allow(clippy::type_complexity)]
fn summarize(
    fp: &Matrix,
    measure: Measure,
    config: &IndexConfig,
    paa_seg: usize,
    paa_nseg: usize,
) -> (Option<Matrix>, Option<Envelope>, Option<Vec<(f64, f64)>>) {
    match measure {
        Measure::Norm(n) if bounds::has_paa(n) && paa_nseg > 0 => {
            (Some(bounds::paa(fp, paa_seg, paa_nseg)), None, None)
        }
        Measure::Norm(_) => (None, None, None),
        Measure::DtwDependent | Measure::DtwIndependent => {
            let w = config.band.unwrap_or(fp.rows().max(1));
            (None, Some(bounds::envelope(fp, w)), None)
        }
        Measure::LcssDependent { .. } | Measure::LcssIndependent { .. } => {
            (None, None, Some(bounds::column_minmax(fp)))
        }
    }
}

/// Inserts `(d, i)` into the ascending `(distance, index)` top-k list,
/// dropping the worst entry when the list would exceed `k`.
fn push_best(best: &mut Vec<(f64, usize)>, k: usize, d: f64, i: usize) {
    let pos = best.partition_point(|&(bd, bi)| match bd.total_cmp(&d) {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => bi < i,
    });
    if pos < k {
        best.insert(pos, (d, i));
        best.truncate(k);
    }
}

/// Reference implementation: exact distances to every fingerprint
/// (evaluated in parallel on the [`wp_runtime`] pool), sorted ascending
/// by `(distance, index)` under `f64::total_cmp`, truncated to `k`.
/// [`Index::search_k`] is bit-identical to this by construction.
pub fn brute_force_k(
    fingerprints: &[Matrix],
    measure: Measure,
    band: Option<usize>,
    query: &Matrix,
    k: usize,
) -> Vec<Hit> {
    let distances = wp_runtime::par_map_indexed(fingerprints.len(), |i| {
        measure.apply_banded(query, &fingerprints[i], band)
    });
    let mut all: Vec<(f64, usize)> = distances.into_iter().zip(0..).collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all.truncate(k);
    all.into_iter()
        .map(|(distance, index)| Hit { index, distance })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_similarity::measure::DEFAULT_LCSS_EPSILON;
    use wp_similarity::Norm;

    fn mat(seed: u64, rows: usize, cols: usize) -> Matrix {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(11);
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

    fn corpus(n: usize, rows: usize, cols: usize) -> Vec<Matrix> {
        (0..n).map(|i| mat(i as u64, rows, cols)).collect()
    }

    fn assert_identical(hits: &[Hit], brute: &[Hit], ctx: &str) {
        assert_eq!(hits.len(), brute.len(), "{ctx}: result count");
        for (h, b) in hits.iter().zip(brute) {
            assert_eq!(h.index, b.index, "{ctx}: index");
            assert_eq!(
                h.distance.to_bits(),
                b.distance.to_bits(),
                "{ctx}: distance bits"
            );
        }
    }

    #[test]
    fn search_matches_brute_force_for_every_measure() {
        let fps = corpus(24, 16, 3);
        let query = mat(999, 16, 3);
        for measure in Measure::mts_suite() {
            let index = Index::build(fps.clone(), measure, IndexConfig::default()).unwrap();
            for k in [1, 3, 24, 30] {
                let hits = index.search_k(&query, k).unwrap();
                let brute = brute_force_k(&fps, measure, None, &query, k);
                assert_identical(&hits, &brute, &format!("{} k={k}", measure.label()));
            }
        }
    }

    /// A client-supplied `k` must never size an allocation: any `k` at or
    /// past the corpus size answers exactly as `k = len` does, hits and
    /// cascade counters alike.
    #[test]
    fn huge_k_answers_like_k_equal_to_the_corpus_size() {
        let fps = corpus(12, 10, 2);
        let query = mat(4242, 10, 2);
        for measure in [Measure::Norm(Norm::L21), Measure::DtwIndependent] {
            let index = Index::build(fps.clone(), measure, IndexConfig::default()).unwrap();
            let (whole, whole_stats) = index.search_k_with_stats(&query, fps.len()).unwrap();
            for k in [usize::MAX, 1_000_000_000_000_000] {
                let (hits, stats) = index.search_k_with_stats(&query, k).unwrap();
                let ctx = format!("{} k={k}", measure.label());
                assert_identical(&hits, &whole, &ctx);
                assert_eq!(stats, whole_stats, "{ctx}: cascade counters");
            }
        }
    }

    #[test]
    fn banded_search_matches_banded_brute_force() {
        let fps = corpus(16, 20, 2);
        let query = mat(777, 20, 2);
        let config = IndexConfig {
            band: Some(3),
            ..IndexConfig::default()
        };
        for measure in [Measure::DtwDependent, Measure::DtwIndependent] {
            let index = Index::build(fps.clone(), measure, config).unwrap();
            let hits = index.search_k(&query, 4).unwrap();
            let brute = brute_force_k(&fps, measure, Some(3), &query, 4);
            assert_identical(&hits, &brute, &measure.label());
        }
    }

    #[test]
    fn insert_matches_a_fresh_scan() {
        let fps = corpus(20, 12, 2);
        let query = mat(555, 12, 2);
        for measure in [
            Measure::Norm(Norm::L21),
            Measure::DtwIndependent,
            Measure::LcssDependent {
                epsilon: DEFAULT_LCSS_EPSILON,
            },
        ] {
            let mut index =
                Index::build(fps[..10].to_vec(), measure, IndexConfig::default()).unwrap();
            for fp in &fps[10..] {
                index.insert(fp.clone()).unwrap();
            }
            assert_eq!(index.len(), 20);
            let hits = index.search_k(&query, 5).unwrap();
            let brute = brute_force_k(&fps, measure, None, &query, 5);
            assert_identical(&hits, &brute, &measure.label());
        }
    }

    #[test]
    fn build_from_empty_then_insert() {
        let mut index =
            Index::build(Vec::new(), Measure::Norm(Norm::L11), IndexConfig::default()).unwrap();
        assert!(index.is_empty());
        assert!(index.search_k(&mat(1, 4, 2), 3).unwrap().is_empty());
        for i in 0..6 {
            index.insert(mat(i, 4, 2)).unwrap();
        }
        let query = mat(42, 4, 2);
        let fps: Vec<Matrix> = (0..6).map(|i| mat(i, 4, 2)).collect();
        let hits = index.search_k(&query, 2).unwrap();
        let brute = brute_force_k(&fps, Measure::Norm(Norm::L11), None, &query, 2);
        assert_identical(&hits, &brute, "grown from empty");
    }

    #[test]
    fn duplicate_fingerprints_tie_break_by_index() {
        let fp = mat(3, 8, 2);
        let fps = vec![fp.clone(), fp.clone(), fp.clone(), mat(9, 8, 2)];
        let index = Index::build(
            fps.clone(),
            Measure::Norm(Norm::Frobenius),
            IndexConfig::default(),
        )
        .unwrap();
        let hits = index.search_k(&fp, 2).unwrap();
        assert_eq!(hits[0].index, 0);
        assert_eq!(hits[1].index, 1);
        assert_eq!(hits[0].distance, 0.0);
    }

    #[test]
    fn unequal_length_corpus_works_for_elastic_measures() {
        let fps = vec![mat(0, 10, 2), mat(1, 14, 2), mat(2, 7, 2), mat(3, 10, 2)];
        let query = mat(50, 10, 2);
        for measure in [
            Measure::DtwDependent,
            Measure::LcssIndependent {
                epsilon: DEFAULT_LCSS_EPSILON,
            },
        ] {
            let index = Index::build(fps.clone(), measure, IndexConfig::default()).unwrap();
            let hits = index.search_k(&query, 3).unwrap();
            let brute = brute_force_k(&fps, measure, None, &query, 3);
            assert_identical(&hits, &brute, &measure.label());
        }
    }

    #[test]
    fn near_duplicate_corpus_prunes_most_candidates() {
        // clusters around two centers: searching near one center should
        // prune most of the other cluster via the cascade
        let base_a = mat(1, 16, 3);
        let base_b = mat(2, 16, 3);
        let mut fps = Vec::new();
        for i in 0..64 {
            let noise = mat(100 + i, 16, 3);
            let base = if i % 4 == 0 { &base_a } else { &base_b };
            let rows: Vec<Vec<f64>> = (0..16)
                .map(|r| {
                    (0..3)
                        .map(|c| base[(r, c)] + 0.01 * noise[(r, c)])
                        .collect()
                })
                .collect();
            fps.push(Matrix::from_rows(&rows));
        }
        let index = Index::build(fps, Measure::Norm(Norm::L21), IndexConfig::default()).unwrap();
        let (hits, stats) = index.search_k_with_stats(&base_a, 3).unwrap();
        assert_eq!(hits.len(), 3);
        assert_eq!(stats.candidates, stats.pruned() + stats.exact);
        assert!(
            stats.pruned() > stats.candidates / 2,
            "expected >50% pruning, got {stats:?}"
        );
    }

    #[test]
    fn rejects_mismatched_queries() {
        let index = Index::build(
            corpus(4, 8, 2),
            Measure::Norm(Norm::L21),
            IndexConfig::default(),
        )
        .unwrap();
        let err = index.search_k(&mat(0, 9, 2), 1).unwrap_err();
        assert!(err.contains("identical shapes"), "{err}");
        let elastic = Index::build(
            corpus(4, 8, 2),
            Measure::DtwDependent,
            IndexConfig::default(),
        )
        .unwrap();
        let err = elastic.search_k(&mat(0, 8, 3), 1).unwrap_err();
        assert!(err.contains("shared feature count"), "{err}");
    }

    #[test]
    fn rejects_mismatched_inserts() {
        let mut index = Index::build(
            corpus(4, 8, 2),
            Measure::Norm(Norm::L21),
            IndexConfig::default(),
        )
        .unwrap();
        assert!(index.insert(mat(0, 9, 2)).is_err());
    }

    #[test]
    fn search_is_thread_count_invariant() {
        let fps = corpus(20, 16, 3);
        let query = mat(321, 16, 3);
        for measure in Measure::mts_suite() {
            let h1 = wp_runtime::with_thread_count(1, || {
                let index = Index::build(fps.clone(), measure, IndexConfig::default()).unwrap();
                index.search_k(&query, 5).unwrap()
            });
            let h8 = wp_runtime::with_thread_count(8, || {
                let index = Index::build(fps.clone(), measure, IndexConfig::default()).unwrap();
                index.search_k(&query, 5).unwrap()
            });
            assert_identical(&h1, &h8, &measure.label());
        }
    }

    #[test]
    fn stats_account_for_every_candidate() {
        let fps = corpus(30, 16, 3);
        let query = mat(888, 16, 3);
        for measure in Measure::mts_suite() {
            let index = Index::build(fps.clone(), measure, IndexConfig::default()).unwrap();
            let (_, stats) = index.search_k_with_stats(&query, 3).unwrap();
            assert_eq!(
                stats.candidates,
                stats.pruned() + stats.exact,
                "{}: {stats:?}",
                measure.label()
            );
        }
    }

    /// Embedding-style fingerprints — single-row 1×k vectors — must flow
    /// through the metric-norm pivot/PAA cascade byte-identically to
    /// brute force.
    #[test]
    fn embedding_vectors_flow_through_the_metric_cascade() {
        let fps = corpus(40, 1, 4);
        let query = mat(4242, 1, 4);
        let mut pruned_somewhere = false;
        for norm in [Norm::L11, Norm::L21, Norm::Frobenius, Norm::Canberra] {
            let measure = Measure::Norm(norm);
            let index = Index::build(fps.clone(), measure, IndexConfig::default()).unwrap();
            let (hits, stats) = index.search_k_with_stats(&query, 5).unwrap();
            let brute = brute_force_k(&fps, measure, None, &query, 5);
            assert_identical(&hits, &brute, &format!("embed {}", measure.label()));
            assert_eq!(
                stats.candidates,
                stats.pruned() + stats.exact,
                "embed {}: {stats:?}",
                measure.label()
            );
            pruned_somewhere |= stats.pruned_pivot > 0 || stats.pruned_paa > 0;
        }
        assert!(
            pruned_somewhere,
            "the cascade never pruned a 1×k candidate — bounds inactive for embeddings"
        );
    }
}
