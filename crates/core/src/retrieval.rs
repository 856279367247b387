//! Indexed similarity retrieval over a fixed reference corpus.
//!
//! [`crate::pipeline::find_most_similar`] follows the paper's §5 recipe
//! to the letter: fingerprints are *jointly* normalized over the target
//! and reference runs, and distances are min-max normalized over the
//! full pairwise matrix — both steps depend on the query, so every call
//! recomputes everything, including all reference-to-reference
//! distances. That is fine for one-shot experiments and wrong for a
//! serving path.
//!
//! [`CorpusIndex`] is the serving-path variant: the representation's
//! corpus state (histogram ranges or phase counts) is *frozen over the
//! corpus* at build time through the [`wp_similarity::Fingerprinter`]
//! strategy trait, so every reference fingerprint is computed exactly
//! once, a query fingerprint depends only on the query, and top-k
//! retrieval goes through the [`wp_index::Index`] pruning cascade
//! instead of a full scan. The trade-off is explicit: distances are the
//! *raw* measure values (no query-dependent min-max pass), so they are
//! comparable across queries but not bit-identical to the
//! joint-normalization path.
//!
//! Frozen state reaches an index only as a fitted
//! [`wp_similarity::Fingerprinter`]:
//! [`CorpusIndex::from_reference_runs`] fits one over the references it
//! indexes, and [`CorpusIndex::from_reference_runs_with_fingerprinter`]
//! takes one already fitted, which is how a rebuild shares the state of
//! the index it replaces. Any [`wp_similarity::Representation`] can back
//! the index.

use std::sync::Arc;

use wp_index::{Hit, Index, IndexConfig, SearchStats};
use wp_obs::LazySpan;
use wp_similarity::fingerprinter::{fitted, Fingerprinter};
use wp_similarity::repr::{extract, RunFeatureData};
use wp_telemetry::{ExperimentRun, FeatureId};

use crate::offline::OfflineCorpus;
use crate::pipeline::{PipelineConfig, SimilarityVerdict};

/// Wall time of one [`CorpusIndex::rank_references_with_stats`] call —
/// the serve path behind `POST /similar` `"mode":"indexed"`.
static OBS_RANK_SPAN: LazySpan = LazySpan::new("wp_core_retrieval_rank");
/// Wall time of fingerprinting one query run under the frozen ranges.
static OBS_FP_SPAN: LazySpan = LazySpan::new("wp_core_retrieval_fingerprint");

/// One retrieved corpus run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunHit {
    /// Name of the reference workload the run belongs to.
    pub reference: String,
    /// Position of the run within that reference's source runs.
    pub run: usize,
    /// Exact measure distance between the query and the run fingerprint.
    pub distance: f64,
}

/// A [`wp_index::Index`] over the fingerprints of every reference run,
/// plus the frozen state a query needs to be fingerprinted the same way:
/// the selected features and the fitted [`Fingerprinter`] (which carries
/// the representation's corpus state — histogram ranges or phase
/// counts).
#[derive(Clone)]
pub struct CorpusIndex {
    index: Index,
    /// Maps a corpus position to `(reference, run-within-reference)`.
    run_refs: Vec<(usize, usize)>,
    names: Vec<String>,
    features: Vec<FeatureId>,
    fingerprinter: Arc<dyn Fingerprinter>,
}

impl CorpusIndex {
    /// Builds the index over `corpus` (one entry per `runs_from` run of
    /// every reference) using the features selected at startup and the
    /// pipeline's measure and bin count. Fingerprint summaries are
    /// computed in parallel on the deterministic `wp_runtime` pool.
    pub fn build(
        corpus: &OfflineCorpus,
        features: &[FeatureId],
        config: &PipelineConfig,
        index_config: IndexConfig,
    ) -> Result<Self, String> {
        corpus.validate()?;
        let refs: Vec<(String, &[ExperimentRun])> = corpus
            .references
            .iter()
            .map(|r| (r.name.clone(), r.runs_from.as_slice()))
            .collect();
        Self::from_reference_runs(&refs, features, config, index_config)
    }

    /// Builds the index from bare `(name, runs)` pairs — the shape
    /// [`crate::pipeline::find_most_similar`] takes. The configured
    /// representation's corpus state is frozen over the given runs.
    pub fn from_reference_runs(
        reference_runs: &[(String, &[ExperimentRun])],
        features: &[FeatureId],
        config: &PipelineConfig,
        index_config: IndexConfig,
    ) -> Result<Self, String> {
        if reference_runs.is_empty() {
            return Err("need reference runs".to_string());
        }
        let mut data: Vec<RunFeatureData> = Vec::new();
        for (name, runs) in reference_runs {
            if runs.is_empty() {
                return Err(format!("reference '{name}' has no runs"));
            }
            for run in runs.iter() {
                data.push(extract(run, features));
            }
        }
        let fingerprinter = fitted(config.representation, &config.fingerprint_config(), &data);
        Self::from_reference_runs_with_fingerprinter(
            reference_runs,
            features,
            fingerprinter,
            config,
            index_config,
        )
    }

    /// The frozen-state constructor: fingerprints every reference run
    /// under an already-fitted [`Fingerprinter`] and indexes them.
    ///
    /// This is the constructor a *mutable* corpus needs: the streaming
    /// ingest path freezes the fingerprinter once over the startup
    /// corpus, then every later mutation — incremental
    /// [`CorpusIndex::insert_reference`] calls and full rebuilds after a
    /// windowed eviction — fingerprints under the same frozen state, so
    /// an incrementally evolved index and a from-scratch rebuild over the
    /// same references answer queries byte-identically.
    pub fn from_reference_runs_with_fingerprinter(
        reference_runs: &[(String, &[ExperimentRun])],
        features: &[FeatureId],
        fingerprinter: Arc<dyn Fingerprinter>,
        config: &PipelineConfig,
        index_config: IndexConfig,
    ) -> Result<Self, String> {
        if reference_runs.is_empty() {
            return Err("need reference runs".to_string());
        }
        if !fingerprinter.is_fitted() {
            return Err("fingerprinter must be fitted before indexing".to_string());
        }
        let mut run_refs = Vec::new();
        let mut fps = Vec::new();
        for (ri, (name, runs)) in reference_runs.iter().enumerate() {
            if runs.is_empty() {
                return Err(format!("reference '{name}' has no runs"));
            }
            for (pos, run) in runs.iter().enumerate() {
                run_refs.push((ri, pos));
                fps.push(fingerprinter.fingerprint(&extract(run, features)));
            }
        }
        let index = Index::build(fps, config.measure, index_config)?;
        Ok(Self {
            index,
            run_refs,
            names: reference_runs.iter().map(|(n, _)| n.clone()).collect(),
            features: features.to_vec(),
            fingerprinter,
        })
    }

    /// The fitted fingerprinter, shareable with a rebuild so both
    /// indexes fingerprint under identical frozen state.
    pub fn fingerprinter(&self) -> Arc<dyn Fingerprinter> {
        Arc::clone(&self.fingerprinter)
    }

    /// The features fingerprints are extracted on.
    pub fn features(&self) -> &[FeatureId] {
        &self.features
    }

    /// Reference names in corpus-position order.
    pub fn reference_names(&self) -> &[String] {
        &self.names
    }

    /// Adds a new reference (or more runs of a known one) to the corpus
    /// without rebuilding: each run is fingerprinted under the *frozen*
    /// corpus state and appended via [`Index::insert`]. For Hist-FP,
    /// values outside the frozen ranges clamp into the boundary bins.
    pub fn insert_reference(&mut self, name: &str, runs: &[ExperimentRun]) -> Result<(), String> {
        if runs.is_empty() {
            return Err(format!("reference '{name}' has no runs"));
        }
        let ri = match self.names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name.to_string());
                self.names.len() - 1
            }
        };
        let next_pos = self
            .run_refs
            .iter()
            .filter(|(r, _)| *r == ri)
            .map(|(_, pos)| pos + 1)
            .max()
            .unwrap_or(0);
        let data: Vec<RunFeatureData> = runs.iter().map(|r| extract(r, &self.features)).collect();
        for (offset, data_run) in data.iter().enumerate() {
            self.index
                .insert(self.fingerprinter.fingerprint(data_run))?;
            self.run_refs.push((ri, next_pos + offset));
        }
        Ok(())
    }

    /// Number of indexed runs.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no runs are indexed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The underlying fingerprint index.
    pub fn index(&self) -> &Index {
        &self.index
    }

    /// Fingerprints one query run under the frozen corpus state — the
    /// same trait dispatch every indexed run went through, so query and
    /// corpus fingerprints are always comparable.
    pub fn query_fingerprint(&self, run: &ExperimentRun) -> wp_linalg::Matrix {
        let _span = OBS_FP_SPAN.start();
        let data = extract(run, &self.features);
        self.fingerprinter.fingerprint(&data)
    }

    /// The `k` corpus runs nearest to `run` — exact top-k through the
    /// pruning cascade, ascending by `(distance, corpus position)`.
    pub fn nearest_runs(&self, run: &ExperimentRun, k: usize) -> Result<Vec<RunHit>, String> {
        let fp = self.query_fingerprint(run);
        let hits = self.index.search_k(&fp, k)?;
        Ok(self.to_run_hits(&hits))
    }

    fn to_run_hits(&self, hits: &[Hit]) -> Vec<RunHit> {
        hits.iter()
            .map(|h| {
                let (ri, pos) = self.run_refs[h.index];
                RunHit {
                    reference: self.names[ri].clone(),
                    run: pos,
                    distance: h.distance,
                }
            })
            .collect()
    }

    /// Ranks the references by their nearest runs: each target run
    /// retrieves its top-k corpus runs, hit distances are averaged per
    /// reference, and references without a retrieved run are omitted.
    /// Ascending by `(mean distance, name)`; distances are raw measure
    /// values (see the module docs for how this differs from
    /// [`crate::pipeline::find_most_similar`]).
    pub fn rank_references(
        &self,
        target_runs: &[ExperimentRun],
        k: usize,
    ) -> Result<Vec<SimilarityVerdict>, String> {
        self.rank_references_with_stats(target_runs, k)
            .map(|(v, _)| v)
    }

    /// [`CorpusIndex::rank_references`] plus the cascade counters summed
    /// over all per-run searches.
    pub fn rank_references_with_stats(
        &self,
        target_runs: &[ExperimentRun],
        k: usize,
    ) -> Result<(Vec<SimilarityVerdict>, SearchStats), String> {
        let _span = OBS_RANK_SPAN.start();
        if target_runs.is_empty() {
            return Err("need target runs".to_string());
        }
        if k == 0 {
            return Err("k must be positive".to_string());
        }
        let mut total = vec![0.0; self.names.len()];
        let mut count = vec![0usize; self.names.len()];
        let mut stats = SearchStats::default();
        for run in target_runs {
            let fp = self.query_fingerprint(run);
            let (hits, s) = self.index.search_k_with_stats(&fp, k)?;
            stats.merge(&s);
            for h in hits {
                let (ri, _) = self.run_refs[h.index];
                total[ri] += h.distance;
                count[ri] += 1;
            }
        }
        let mut verdicts: Vec<SimilarityVerdict> = self
            .names
            .iter()
            .enumerate()
            .filter(|(ri, _)| count[*ri] > 0)
            .map(|(ri, name)| SimilarityVerdict {
                workload: name.clone(),
                distance: total[ri] / count[ri] as f64,
            })
            .collect();
        verdicts.sort_by(|a, b| {
            a.distance
                .total_cmp(&b.distance)
                .then_with(|| a.workload.cmp(&b.workload))
        });
        Ok((verdicts, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_workloads::benchmarks;
    use wp_workloads::engine::Simulator;
    use wp_workloads::sku::Sku;

    fn sim_runs(sim: &Simulator, name: &str, first_run: usize, n: usize) -> Vec<ExperimentRun> {
        let spec = match name {
            "TPC-C" => benchmarks::tpcc(),
            "TPC-H" => benchmarks::tpch(),
            "Twitter" => benchmarks::twitter(),
            _ => benchmarks::ycsb(),
        };
        let terminals = if name == "TPC-H" { 1 } else { 8 };
        let sku = Sku::new("cpu2", 2, 64.0);
        (first_run..first_run + n)
            .map(|r| sim.simulate(&spec, &sku, terminals, r, r % 3))
            .collect()
    }

    fn reference_runs(sim: &Simulator) -> Vec<(String, Vec<ExperimentRun>)> {
        ["TPC-C", "TPC-H", "Twitter"]
            .iter()
            .map(|n| (n.to_string(), sim_runs(sim, n, 0, 3)))
            .collect()
    }

    fn small_sim() -> Simulator {
        let mut sim = Simulator::new(0xEDB7_2025);
        sim.config.samples = 40;
        sim
    }

    #[test]
    fn ranks_the_same_workload_first() {
        let sim = small_sim();
        let refs = reference_runs(&sim);
        let refs_sliced: Vec<(String, &[ExperimentRun])> = refs
            .iter()
            .map(|(n, r)| (n.clone(), r.as_slice()))
            .collect();
        let config = PipelineConfig::default();
        let index = CorpusIndex::from_reference_runs(
            &refs_sliced,
            &FeatureId::all(),
            &config,
            IndexConfig::default(),
        )
        .unwrap();
        assert_eq!(index.len(), 9);
        for name in ["TPC-C", "Twitter"] {
            let target = sim_runs(&sim, name, 3, 2);
            let verdicts = index.rank_references(&target, 3).unwrap();
            assert_eq!(verdicts[0].workload, name, "{verdicts:?}");
        }
    }

    #[test]
    fn indexed_search_matches_brute_force_over_the_corpus() {
        let sim = small_sim();
        let refs = reference_runs(&sim);
        let refs_sliced: Vec<(String, &[ExperimentRun])> = refs
            .iter()
            .map(|(n, r)| (n.clone(), r.as_slice()))
            .collect();
        let config = PipelineConfig::default();
        let index = CorpusIndex::from_reference_runs(
            &refs_sliced,
            &FeatureId::all(),
            &config,
            IndexConfig::default(),
        )
        .unwrap();
        let target = sim_runs(&sim, "YCSB", 0, 1);
        let fp = index.query_fingerprint(&target[0]);
        let corpus_fps: Vec<wp_linalg::Matrix> = (0..index.len())
            .map(|i| index.index().fingerprint(i).clone())
            .collect();
        let brute = wp_index::brute_force_k(&corpus_fps, config.measure, None, &fp, 4);
        let hits = index.index().search_k(&fp, 4).unwrap();
        assert_eq!(hits.len(), brute.len());
        for (h, b) in hits.iter().zip(&brute) {
            assert_eq!(h.index, b.index);
            assert_eq!(h.distance.to_bits(), b.distance.to_bits());
        }
    }

    #[test]
    fn insert_reference_extends_retrieval() {
        let sim = small_sim();
        let refs = reference_runs(&sim);
        let refs_sliced: Vec<(String, &[ExperimentRun])> = refs[..2]
            .iter()
            .map(|(n, r)| (n.clone(), r.as_slice()))
            .collect();
        let config = PipelineConfig::default();
        let mut index = CorpusIndex::from_reference_runs(
            &refs_sliced,
            &FeatureId::all(),
            &config,
            IndexConfig::default(),
        )
        .unwrap();
        index.insert_reference("Twitter", &refs[2].1).unwrap();
        assert_eq!(index.len(), 9);
        let target = sim_runs(&sim, "Twitter", 3, 2);
        let verdicts = index.rank_references(&target, 3).unwrap();
        assert_eq!(verdicts[0].workload, "Twitter", "{verdicts:?}");
        // nearest_runs resolves to the inserted reference's runs
        let hits = index.nearest_runs(&target[0], 2).unwrap();
        assert_eq!(hits.len(), 2);
        assert!(hits[0].distance <= hits[1].distance);
    }

    /// A corpus grown by N incremental [`CorpusIndex::insert_reference`]
    /// calls must answer `rank_references` byte-identically to an index
    /// rebuilt from scratch over the same references under the same
    /// fitted fingerprinter — the contract the streaming ingest path
    /// leans on.
    #[test]
    fn incremental_inserts_match_a_from_scratch_rebuild_byte_for_byte() {
        let sim = small_sim();
        let refs = reference_runs(&sim);
        let refs_sliced: Vec<(String, &[ExperimentRun])> = refs
            .iter()
            .map(|(n, r)| (n.clone(), r.as_slice()))
            .collect();
        let config = PipelineConfig::default();

        // Fit over the full reference set, then grow one index
        // incrementally (first reference at build time, the rest via
        // insert_reference, one call per reference) and build the other
        // in one shot over everything.
        let full = CorpusIndex::from_reference_runs(
            &refs_sliced,
            &FeatureId::all(),
            &config,
            IndexConfig::default(),
        )
        .unwrap();
        let mut incremental = CorpusIndex::from_reference_runs_with_fingerprinter(
            &refs_sliced[..1],
            &FeatureId::all(),
            full.fingerprinter(),
            &config,
            IndexConfig::default(),
        )
        .unwrap();
        for (name, runs) in &refs[1..] {
            incremental.insert_reference(name, runs).unwrap();
        }
        assert_eq!(incremental.len(), full.len());
        assert_eq!(incremental.reference_names(), full.reference_names());

        for (w, (target_name, k)) in [("TPC-C", 3), ("Twitter", 2), ("TPC-H", 5), ("YCSB", 9)]
            .into_iter()
            .enumerate()
        {
            let target = sim_runs(&sim, target_name, 3 + w, 2);
            let a = incremental.rank_references(&target, k).unwrap();
            let b = full.rank_references(&target, k).unwrap();
            assert_eq!(a.len(), b.len(), "target {target_name}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.workload, y.workload, "target {target_name}");
                assert_eq!(
                    x.distance.to_bits(),
                    y.distance.to_bits(),
                    "target {target_name}: {} vs {}",
                    x.distance,
                    y.distance
                );
            }
        }
    }

    #[test]
    fn indexed_ranking_agrees_with_exact_on_the_winner() {
        let sim = small_sim();
        let refs = reference_runs(&sim);
        let refs_sliced: Vec<(String, &[ExperimentRun])> = refs
            .iter()
            .map(|(n, r)| (n.clone(), r.as_slice()))
            .collect();
        let config = PipelineConfig::default();
        let target = sim_runs(&sim, "TPC-C", 3, 2);
        let indexed = CorpusIndex::from_reference_runs(
            &refs_sliced,
            &FeatureId::all(),
            &config,
            IndexConfig::default(),
        )
        .unwrap()
        .rank_references(&target, 9)
        .unwrap();
        let exact =
            crate::pipeline::find_most_similar(&target, &refs, &FeatureId::all(), &config).unwrap();
        assert_eq!(indexed[0].workload, exact[0].workload);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let sim = small_sim();
        let refs = reference_runs(&sim);
        let refs_sliced: Vec<(String, &[ExperimentRun])> = refs
            .iter()
            .map(|(n, r)| (n.clone(), r.as_slice()))
            .collect();
        let config = PipelineConfig::default();
        assert!(CorpusIndex::from_reference_runs(
            &[],
            &FeatureId::all(),
            &config,
            IndexConfig::default()
        )
        .is_err());
        let index = CorpusIndex::from_reference_runs(
            &refs_sliced,
            &FeatureId::all(),
            &config,
            IndexConfig::default(),
        )
        .unwrap();
        assert!(index.rank_references(&[], 3).is_err());
        let target = sim_runs(&sim, "YCSB", 0, 1);
        assert!(index.rank_references(&target, 0).is_err());
    }

    /// Every representation yields a working index through the trait
    /// constructor, and its query path stays thread-count invariant.
    #[test]
    fn every_representation_indexes_and_ranks_thread_invariantly() {
        use wp_similarity::Representation;
        let sim = small_sim();
        let refs = reference_runs(&sim);
        let refs_sliced: Vec<(String, &[ExperimentRun])> = refs
            .iter()
            .map(|(n, r)| (n.clone(), r.as_slice()))
            .collect();
        let target = sim_runs(&sim, "Twitter", 3, 2);
        // MTS needs one shared observation count, so it gets the
        // resource features; the others take the full mixed set.
        for repr in [
            Representation::HistFp,
            Representation::PhaseFp,
            Representation::Mts,
        ] {
            let features: Vec<FeatureId> = match repr {
                Representation::Mts => wp_telemetry::ResourceFeature::ALL
                    .iter()
                    .map(|&f| FeatureId::Resource(f))
                    .collect(),
                _ => FeatureId::all(),
            };
            let config = PipelineConfig {
                representation: repr,
                ..PipelineConfig::default()
            };
            let build_and_rank = || {
                let index = CorpusIndex::from_reference_runs(
                    &refs_sliced,
                    &features,
                    &config,
                    IndexConfig::default(),
                )
                .unwrap();
                index.rank_references(&target, 3).unwrap()
            };
            let v1 = wp_runtime::with_thread_count(1, build_and_rank);
            let v8 = wp_runtime::with_thread_count(8, build_and_rank);
            assert_eq!(v1.len(), v8.len(), "{repr:?}");
            for (a, b) in v1.iter().zip(&v8) {
                assert_eq!(a.workload, b.workload, "{repr:?}");
                assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "{repr:?}");
            }
        }
    }
}
