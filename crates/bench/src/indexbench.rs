//! Brute-force vs. indexed top-k retrieval benchmark (`exp_index`).
//!
//! Each scenario fixes a fingerprint representation and a measure, then
//! for a range of corpus sizes times the same top-k queries through
//! [`wp_index::brute_force_k`] and through [`wp_index::Index::search_k`],
//! verifies the two result lists are byte-identical (indices *and*
//! distance bits — the index's exactness guarantee), and reports the
//! cascade's pruning counters.

use std::time::Instant;

use wp_index::{brute_force_k, Index, IndexConfig, SearchStats};
use wp_json::{obj, Json};
use wp_linalg::Matrix;
use wp_similarity::histfp::histfp;
use wp_similarity::repr::{extract, mts, RunFeatureData};
use wp_similarity::Measure;
use wp_telemetry::FeatureSet;
use wp_workloads::engine::paper_terminals;
use wp_workloads::engine::Simulator;
use wp_workloads::Sku;

/// Timed passes per approach; the fastest pass is reported so scheduler
/// noise does not distort the comparison.
const ROUNDS: usize = 3;

/// One (scenario, corpus size) measurement.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario label, e.g. `"Hist-FP"`.
    pub scenario: String,
    /// Measure label, e.g. `"L2,1-Norm"`.
    pub measure: String,
    /// Number of indexed fingerprints.
    pub corpus_size: usize,
    /// Number of query fingerprints (each searched once per pass).
    pub queries: usize,
    /// Results per query.
    pub k: usize,
    /// Wall time of [`Index::build`], milliseconds.
    pub build_ms: f64,
    /// Fastest brute-force pass over all queries, milliseconds.
    pub brute_ms: f64,
    /// Fastest indexed pass over all queries, milliseconds.
    pub indexed_ms: f64,
    /// Cascade counters summed over every query of one pass.
    pub stats: SearchStats,
}

impl ScenarioResult {
    /// `brute_ms / indexed_ms`.
    pub fn speedup(&self) -> f64 {
        self.brute_ms / self.indexed_ms
    }

    /// The `BENCH_index.json` record for this measurement.
    pub fn to_json(&self) -> Json {
        obj! {
            "scenario" => self.scenario.clone(),
            "measure" => self.measure.clone(),
            "corpus_size" => self.corpus_size,
            "queries" => self.queries,
            "k" => self.k,
            "build_ms" => self.build_ms,
            "brute_ms" => self.brute_ms,
            "indexed_ms" => self.indexed_ms,
            "speedup" => self.speedup(),
            "candidates" => self.stats.candidates,
            "pruned_pivot" => self.stats.pruned_pivot,
            "pruned_paa" => self.stats.pruned_paa,
            "pruned_kim" => self.stats.pruned_kim,
            "pruned_keogh" => self.stats.pruned_keogh,
            "pruned_lcss" => self.stats.pruned_lcss,
            "pruned_ea" => self.stats.pruned_ea,
            "exact" => self.stats.exact,
            "pruned_fraction" => self.stats.pruned_fraction(),
            // run_scenario asserts byte-identical brute vs indexed
            // top-k before a result exists, so a serialized record
            // implies the check passed
            "exact_topk_verified" => true,
        }
    }
}

/// Simulates `n` runs cycling the standardized workloads, their paper
/// terminal counts, and run indices, and extracts the resource features
/// — the raw material for both fingerprint representations.
pub fn simulated_feature_data(sim: &Simulator, n: usize) -> Vec<RunFeatureData> {
    let sku = Sku::new("cpu8", 8, 64.0);
    let specs = wp_workloads::benchmarks::standardized();
    let features = FeatureSet::ResourceOnly.features();
    let mut data = Vec::with_capacity(n);
    let mut round = 0;
    'outer: loop {
        for spec in &specs {
            for &t in &paper_terminals(spec) {
                if data.len() == n {
                    break 'outer;
                }
                let run = sim.simulate(spec, &sku, t, round, round % 3);
                data.push(extract(&run, &features));
            }
        }
        round += 1;
    }
    data
}

/// Builds `(corpus, queries)` fingerprints under one representation so
/// both sides of the comparison see identical matrices.
pub fn fingerprints(
    sim: &Simulator,
    corpus_size: usize,
    n_queries: usize,
    representation: &str,
) -> (Vec<Matrix>, Vec<Matrix>) {
    let data = simulated_feature_data(sim, corpus_size + n_queries);
    let mut fps = match representation {
        "Hist-FP" => histfp(&data, 10),
        "MTS" => mts(&data),
        other => panic!("unknown representation '{other}'"),
    };
    let queries = fps.split_off(corpus_size);
    (fps, queries)
}

/// Runs one scenario at one corpus size: builds the index, times both
/// approaches, and asserts byte-identical top-k (panicking on any
/// mismatch — the benchmark doubles as an exactness check).
pub fn run_scenario(
    scenario: &str,
    measure: Measure,
    config: IndexConfig,
    corpus: &[Matrix],
    queries: &[Matrix],
    k: usize,
) -> ScenarioResult {
    let start = Instant::now();
    let index = Index::build(corpus.to_vec(), measure, config).expect("benchmark corpus is valid");
    let build_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut brute_ms = f64::INFINITY;
    let mut brute_hits = Vec::new();
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let hits: Vec<_> = queries
            .iter()
            .map(|q| brute_force_k(corpus, measure, config.band, q, k))
            .collect();
        brute_ms = brute_ms.min(start.elapsed().as_secs_f64() * 1e3);
        brute_hits = hits;
    }

    let mut indexed_ms = f64::INFINITY;
    let mut stats = SearchStats::default();
    let mut indexed_hits = Vec::new();
    for _ in 0..ROUNDS {
        let mut pass_stats = SearchStats::default();
        let start = Instant::now();
        let hits: Vec<_> = queries
            .iter()
            .map(|q| {
                let (hits, s) = index
                    .search_k_with_stats(q, k)
                    .expect("query matches the corpus shape");
                pass_stats.merge(&s);
                hits
            })
            .collect();
        indexed_ms = indexed_ms.min(start.elapsed().as_secs_f64() * 1e3);
        stats = pass_stats;
        indexed_hits = hits;
    }

    for (qi, (b, ix)) in brute_hits.iter().zip(&indexed_hits).enumerate() {
        assert_eq!(b.len(), ix.len(), "query {qi}: result count differs");
        for (rank, (bh, ih)) in b.iter().zip(ix).enumerate() {
            assert_eq!(
                bh.index, ih.index,
                "query {qi} rank {rank}: index differs (brute {bh:?} vs indexed {ih:?})"
            );
            assert_eq!(
                bh.distance.to_bits(),
                ih.distance.to_bits(),
                "query {qi} rank {rank}: distance bits differ"
            );
        }
    }

    ScenarioResult {
        scenario: scenario.to_string(),
        measure: measure.label(),
        corpus_size: corpus.len(),
        queries: queries.len(),
        k,
        build_ms,
        brute_ms,
        indexed_ms,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_sim;
    use wp_similarity::Norm;

    #[test]
    fn scenario_verifies_and_accounts() {
        let mut sim = default_sim();
        sim.config.samples = 40;
        let (corpus, queries) = fingerprints(&sim, 24, 3, "Hist-FP");
        let r = run_scenario(
            "Hist-FP",
            Measure::Norm(Norm::L21),
            IndexConfig::default(),
            &corpus,
            &queries,
            5,
        );
        assert_eq!(r.corpus_size, 24);
        assert_eq!(r.queries, 3);
        assert_eq!(r.stats.candidates, 24 * 3);
        assert_eq!(r.stats.candidates, r.stats.pruned() + r.stats.exact);
        assert!(r.build_ms >= 0.0 && r.brute_ms > 0.0 && r.indexed_ms > 0.0);
        let json = r.to_json();
        assert_eq!(json.get("corpus_size").and_then(Json::as_usize), Some(24));
    }

    #[test]
    fn mts_fingerprints_feed_elastic_measures() {
        let mut sim = default_sim();
        sim.config.samples = 30;
        let (corpus, queries) = fingerprints(&sim, 12, 2, "MTS");
        assert_eq!(corpus.len(), 12);
        assert_eq!(corpus[0].rows(), 30);
        let r = run_scenario(
            "MTS",
            Measure::DtwDependent,
            IndexConfig {
                band: Some(6),
                ..IndexConfig::default()
            },
            &corpus,
            &queries,
            3,
        );
        assert_eq!(r.stats.candidates, r.stats.pruned() + r.stats.exact);
    }
}
