//! Streaming telemetry ingest: the live, time-evolving corpus.
//!
//! The offline pipeline assumes a corpus that is loaded once and never
//! changes; production workloads drift. This crate turns the static
//! [`CorpusIndex`] into a mutable one fed by batched telemetry:
//!
//! * **Per-tenant sliding windows** — ingested runs accumulate per
//!   tenant; once a tenant has [`StreamConfig::min_runs`] runs it
//!   materializes as a live reference named `live:<tenant>` next to the
//!   startup corpus, and older runs are evicted past
//!   [`StreamConfig::window`].
//! * **Incremental corpus evolution** — the fingerprinter is fitted
//!   (ranges frozen) over the startup corpus and shared as an
//!   `Arc<dyn Fingerprinter>`, so new runs are appended via
//!   [`CorpusIndex::insert_reference`] without touching existing
//!   fingerprints; an eviction invalidates indexed runs and triggers a
//!   full rebuild under the *same* frozen fingerprinter
//!   ([`CorpusIndex::from_reference_runs_with_fingerprinter`]). Either path yields an index that answers `rank_references`
//!   byte-identically to a from-scratch rebuild over the same windows.
//! * **Drift detection** — each accepted batch fingerprints the tenant's
//!   window and compares it against the trailing history of window
//!   fingerprints: the distance to the history mean, relative to the
//!   history's own spread, crossing a seeded per-tenant threshold is a
//!   drift event. Phase structure is tracked with the online BCPD
//!   detector over the window's CPU series.
//! * **Generations** — every accepted batch bumps a generation counter;
//!   the server keys its response caches on it, so a cached answer can
//!   never outlive the corpus it was computed against, and each server
//!   shard drops the answers of older generations once it serves a newer
//!   one.
//! * **Snapshots** — cloning an engine is cheap and the clone is
//!   isolated: ingesting into it never changes its source. The server
//!   ingests into a clone and publishes it, so readers keep answering
//!   from the previous generation meanwhile.
//!
//! Everything is deterministic: the same seeded ingest stream produces a
//! byte-identical corpus, index, and drift-event log run-over-run and
//! across `WP_THREADS` settings.

use std::collections::BTreeMap;
use std::sync::Arc;

use wp_core::offline::{OfflineCorpus, OfflineReference};
use wp_core::pipeline::PipelineConfig;
use wp_core::retrieval::CorpusIndex;
use wp_index::IndexConfig;
use wp_json::{obj, Json};
use wp_linalg::{Matrix, Rng64};
use wp_obs::{LazySpan, Snapshot};
use wp_similarity::bcpd::{detect_changepoints, BcpdConfig};
use wp_similarity::repr::extract;
use wp_similarity::Fingerprinter;
use wp_telemetry::{ExperimentRun, FeatureId, ResourceFeature};

static OBS_INGEST_SPAN: LazySpan = LazySpan::new("wp_stream_ingest");

/// Streaming ingest configuration.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Sliding-window capacity in runs per tenant; older runs are evicted.
    pub window: usize,
    /// Runs a tenant needs before it materializes as a live reference.
    pub min_runs: usize,
    /// Trailing window-fingerprint history length for drift detection.
    pub history: usize,
    /// History entries required before drift can fire (≥ 2: the spread of
    /// a single entry is zero, which would make the ratio meaningless).
    pub warmup: usize,
    /// Base drift threshold on the distance-to-spread ratio; each tenant
    /// draws its own threshold in `[0.9, 1.1] ×` this from the seed.
    pub drift_threshold: f64,
    /// Seed for the per-tenant threshold draws.
    pub seed: u64,
    /// Hard cap on concurrently tracked tenants.
    pub max_tenants: usize,
    /// Hard cap on runs per ingest batch.
    pub max_batch_runs: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            window: 6,
            min_runs: 2,
            history: 4,
            warmup: 2,
            drift_threshold: 4.0,
            seed: 0xEDB7_2025,
            max_tenants: 32,
            max_batch_runs: 16,
        }
    }
}

/// One detected drift event, in detection order.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftEvent {
    /// Monotone event ordinal (0-based, across all tenants).
    pub ordinal: u64,
    /// Tenant whose window drifted.
    pub tenant: String,
    /// 1-based accepted-batch ordinal at which the drift fired.
    pub batch: u64,
    /// Raw measure distance of the window fingerprint to the history mean.
    pub distance: f64,
    /// `distance` relative to the history's own spread.
    pub ratio: f64,
    /// The seeded per-tenant threshold the ratio crossed.
    pub threshold: f64,
    /// BCPD phase count of the window before this batch.
    pub phases_before: usize,
    /// BCPD phase count of the window after this batch.
    pub phases_after: usize,
}

impl DriftEvent {
    /// Interchange form, embedded in `GET /drift` responses.
    pub fn to_json(&self) -> Json {
        obj! {
            "ordinal" => self.ordinal,
            "tenant" => self.tenant.clone(),
            "batch" => self.batch,
            "distance" => self.distance,
            "ratio" => self.ratio,
            "threshold" => self.threshold,
            "phases_before" => self.phases_before,
            "phases_after" => self.phases_after,
        }
    }
}

/// What one accepted ingest batch did to the corpus.
#[derive(Debug, Clone)]
pub struct IngestOutcome {
    /// Runs accepted into the tenant's window.
    pub accepted_runs: usize,
    /// Runs evicted from the window by this batch.
    pub evicted_runs: usize,
    /// True when this batch fired a drift event.
    pub drifted: bool,
    /// Window-to-history distance (0 while the history is warming up).
    pub distance: f64,
    /// Distance relative to the history spread (0 during warmup).
    pub ratio: f64,
    /// The tenant's seeded drift threshold.
    pub threshold: f64,
    /// Corpus generation after this batch.
    pub generation: u64,
    /// Live (streamed) references currently in the corpus.
    pub live_references: usize,
    /// Total runs in the index after this batch.
    pub indexed_runs: usize,
    /// BCPD phase count of the tenant's window after this batch.
    pub phases: usize,
    /// True when an eviction forced a full index rebuild.
    pub rebuilt: bool,
}

impl IngestOutcome {
    /// Interchange form, returned by `POST /ingest`.
    pub fn to_json(&self) -> Json {
        obj! {
            "accepted_runs" => self.accepted_runs,
            "evicted_runs" => self.evicted_runs,
            "drifted" => self.drifted,
            "distance" => self.distance,
            "ratio" => self.ratio,
            "threshold" => self.threshold,
            "generation" => self.generation,
            "live_references" => self.live_references,
            "indexed_runs" => self.indexed_runs,
            "phases" => self.phases,
            "rebuilt" => self.rebuilt,
        }
    }
}

/// Monotone ingest counters, read by `/stats` and `/metrics` alike.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamCounters {
    /// Accepted ingest batches.
    pub ingested_batches: u64,
    /// Accepted runs.
    pub ingested_runs: u64,
    /// Batches rejected by validation.
    pub rejected_batches: u64,
    /// Runs evicted from sliding windows.
    pub evicted_runs: u64,
    /// Full index rebuilds forced by evictions.
    pub rebuilds: u64,
    /// Drift events fired.
    pub drift_events: u64,
    /// Batches that changed a tenant's BCPD phase count.
    pub phase_shifts: u64,
}

/// One tenant's sliding window and drift state.
#[derive(Debug, Clone)]
struct TenantWindow {
    runs: Vec<ExperimentRun>,
    /// Trailing window fingerprints, oldest first.
    history: Vec<Matrix>,
    /// Seeded per-tenant drift threshold.
    threshold: f64,
    /// BCPD phase count over the window's CPU series after the last batch.
    phases: usize,
    /// True once the tenant materialized as a live reference.
    live: bool,
}

/// The evolving corpus: startup references plus live per-tenant windows,
/// all indexed under a fingerprinter frozen at construction.
///
/// A clone shares the startup references, every tenant window, the
/// index and the drift log with its source. An ingest into the clone
/// copies only what the batch changes: the ingesting tenant's window,
/// the index when the batch grows it in place (an eviction builds a
/// fresh index instead), and the drift log when the batch fires an
/// event.
#[derive(Clone)]
pub struct StreamEngine {
    config: StreamConfig,
    pipeline: PipelineConfig,
    index_config: IndexConfig,
    index: Arc<CorpusIndex>,
    /// The startup corpus's own references, kept for eviction-triggered
    /// rebuilds.
    base_refs: Vec<Arc<OfflineReference>>,
    features: Vec<FeatureId>,
    /// The fitted fingerprinter shared with the index — frozen corpus
    /// state (e.g. histogram ranges) every rebuild reuses.
    fingerprinter: Arc<dyn Fingerprinter>,
    tenants: BTreeMap<String, Arc<TenantWindow>>,
    /// Tenants in the order they went live — the reference order every
    /// rebuild reproduces, so incremental and rebuilt indexes agree.
    live_order: Vec<String>,
    generation: u64,
    events: Arc<Vec<DriftEvent>>,
    counters: StreamCounters,
}

/// FNV-1a over the tenant name: folds the tenant identity into the
/// threshold seed without any platform-dependent hashing.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn live_name(tenant: &str) -> String {
    format!("live:{tenant}")
}

/// Reference list for a rebuild: startup references first, then live
/// tenants in the order they went live.
fn live_refs<'a>(
    base: &'a [Arc<OfflineReference>],
    tenants: &'a BTreeMap<String, Arc<TenantWindow>>,
    live_order: &'a [String],
) -> Vec<(String, &'a [ExperimentRun])> {
    let mut refs: Vec<(String, &[ExperimentRun])> = base
        .iter()
        .map(|r| (r.name.clone(), r.runs_from.as_slice()))
        .collect();
    for t in live_order {
        refs.push((live_name(t), tenants[t].runs.as_slice()));
    }
    refs
}

/// Element-wise mean of equally-shaped matrices.
fn mean_matrix(ms: &[Matrix]) -> Matrix {
    let mut acc = Matrix::zeros(ms[0].rows(), ms[0].cols());
    for m in ms {
        for (a, v) in acc.as_mut_slice().iter_mut().zip(m.as_slice()) {
            *a += v;
        }
    }
    let n = ms.len() as f64;
    for a in acc.as_mut_slice() {
        *a /= n;
    }
    acc
}

/// Fingerprint of a whole window: the mean of its runs' fingerprints
/// under the frozen fingerprinter.
fn window_fingerprint(
    runs: &[ExperimentRun],
    features: &[FeatureId],
    fingerprinter: &dyn Fingerprinter,
) -> Matrix {
    let fps: Vec<Matrix> = runs
        .iter()
        .map(|r| fingerprinter.fingerprint(&extract(r, features)))
        .collect();
    mean_matrix(&fps)
}

/// BCPD phase count over the window's concatenated CPU-utilization series.
fn window_phases(runs: &[ExperimentRun]) -> usize {
    let mut series = Vec::new();
    for run in runs {
        series.extend(run.resources.feature(ResourceFeature::CpuUtilization));
    }
    detect_changepoints(&series, &BcpdConfig::default()).len()
}

fn valid_tenant_name(t: &str) -> bool {
    !t.is_empty()
        && t.len() <= 64
        && t.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

impl StreamEngine {
    /// Builds the engine over the startup corpus, freezing histogram
    /// ranges over it. `features` is the startup feature selection; the
    /// pipeline's measure and bin count drive fingerprints exactly as in
    /// the static serving path. The engine keeps the corpus's own
    /// references, not copies of their runs.
    pub fn new(
        corpus: &OfflineCorpus,
        features: &[FeatureId],
        pipeline: &PipelineConfig,
        index_config: IndexConfig,
        config: StreamConfig,
    ) -> Result<Self, String> {
        if config.window == 0 || config.min_runs == 0 || config.min_runs > config.window {
            return Err("stream config: need 0 < min_runs <= window".to_string());
        }
        if config.warmup < 2 || config.history < config.warmup {
            return Err("stream config: need 2 <= warmup <= history".to_string());
        }
        if config.max_batch_runs == 0 || config.max_tenants == 0 {
            return Err("stream config: need positive batch and tenant caps".to_string());
        }
        let index = CorpusIndex::build(corpus, features, pipeline, index_config)?;
        let fingerprinter = index.fingerprinter();
        Ok(Self {
            config,
            pipeline: pipeline.clone(),
            index_config,
            index: Arc::new(index),
            base_refs: corpus.references.clone(),
            features: features.to_vec(),
            fingerprinter,
            tenants: BTreeMap::new(),
            live_order: Vec::new(),
            generation: 0,
            events: Arc::default(),
            counters: StreamCounters::default(),
        })
    }

    /// Ingests one batch of runs for `tenant`. Validation is all-or-
    /// nothing: any invalid run rejects the whole batch with `Err` and
    /// leaves the engine untouched — no window, index, generation, or
    /// event-log change. An accepted batch always bumps the generation.
    pub fn ingest(
        &mut self,
        tenant: &str,
        runs: Vec<ExperimentRun>,
    ) -> Result<IngestOutcome, String> {
        let _span = OBS_INGEST_SPAN.start();
        if let Err(e) = self.validate_batch(tenant, &runs) {
            self.counters.rejected_batches += 1;
            return Err(e);
        }

        self.counters.ingested_batches += 1;
        self.counters.ingested_runs += runs.len() as u64;
        let batch = self.counters.ingested_batches;
        let accepted = runs.len();

        // Clone the frozen per-corpus state up front so the window can be
        // borrowed mutably while fingerprinting below.
        let features = self.features.clone();
        let fingerprinter = Arc::clone(&self.fingerprinter);
        let measure = self.pipeline.measure;
        let (window_cap, min_runs, history_cap, warmup) = (
            self.config.window,
            self.config.min_runs,
            self.config.history,
            self.config.warmup,
        );
        let threshold_seed = self.config.seed ^ fnv1a(tenant);
        let base_threshold = self.config.drift_threshold;

        let window = Arc::make_mut(self.tenants.entry(tenant.to_string()).or_insert_with(|| {
            let mut rng = Rng64::new(threshold_seed);
            Arc::new(TenantWindow {
                runs: Vec::new(),
                history: Vec::new(),
                threshold: base_threshold * (0.9 + 0.2 * rng.unit()),
                phases: 0,
                live: false,
            })
        }));

        // Slide the window.
        let evicted = (window.runs.len() + accepted).saturating_sub(window_cap);
        window.runs.extend(runs);
        if evicted > 0 {
            window.runs.drain(..evicted);
        }
        self.counters.evicted_runs += evicted as u64;

        // Drift: window fingerprint vs its trailing history.
        let fp = window_fingerprint(&window.runs, &features, fingerprinter.as_ref());
        let (mut distance, mut ratio, mut drifted) = (0.0, 0.0, false);
        if window.history.len() >= warmup {
            let baseline = mean_matrix(&window.history);
            distance = measure.apply(&fp, &baseline);
            let spread = window
                .history
                .iter()
                .map(|h| measure.apply(h, &baseline))
                .sum::<f64>()
                / window.history.len() as f64;
            ratio = distance / (spread + 1e-12);
            drifted = ratio > window.threshold;
        }
        let phases_before = window.phases;
        let phases_after = window_phases(&window.runs);
        if phases_before != 0 && phases_after != phases_before {
            self.counters.phase_shifts += 1;
        }
        window.phases = phases_after;
        let threshold = window.threshold;
        if drifted {
            // Re-baseline: the shifted shape becomes the new normal.
            window.history.clear();
        }
        window.history.push(fp);
        if window.history.len() > history_cap {
            window.history.drain(..window.history.len() - history_cap);
        }

        // Corpus evolution.
        let became_live = !window.live && window.runs.len() >= min_runs;
        if became_live {
            window.live = true;
            self.live_order.push(tenant.to_string());
        }
        let live = window.live;
        let window_len = window.runs.len();
        let rebuilt = live && evicted > 0;
        if rebuilt {
            // An eviction invalidated indexed runs: rebuild everything
            // under the same frozen fingerprinter.
            let refs = live_refs(&self.base_refs, &self.tenants, &self.live_order);
            self.index = Arc::new(CorpusIndex::from_reference_runs_with_fingerprinter(
                &refs,
                &features,
                Arc::clone(&fingerprinter),
                &self.pipeline,
                self.index_config,
            )?);
            self.counters.rebuilds += 1;
        } else if live {
            // Pure growth: append the new runs (all window runs when the
            // tenant just went live, otherwise only this batch's tail).
            let new_runs = if became_live { window_len } else { accepted };
            let name = live_name(tenant);
            let tail = &self.tenants[tenant].runs[window_len - new_runs..];
            Arc::make_mut(&mut self.index).insert_reference(&name, tail)?;
        }

        self.generation += 1;
        if drifted {
            let event = DriftEvent {
                ordinal: self.events.len() as u64,
                tenant: tenant.to_string(),
                batch,
                distance,
                ratio,
                threshold,
                phases_before,
                phases_after,
            };
            Arc::make_mut(&mut self.events).push(event);
            self.counters.drift_events += 1;
        }

        Ok(IngestOutcome {
            accepted_runs: accepted,
            evicted_runs: evicted,
            drifted,
            distance,
            ratio,
            threshold,
            generation: self.generation,
            live_references: self.live_order.len(),
            indexed_runs: self.index.len(),
            phases: phases_after,
            rebuilt,
        })
    }

    fn validate_batch(&self, tenant: &str, runs: &[ExperimentRun]) -> Result<(), String> {
        if !valid_tenant_name(tenant) {
            return Err("tenant must be 1..=64 chars of [A-Za-z0-9._-]".to_string());
        }
        if runs.is_empty() {
            return Err("batch has no runs".to_string());
        }
        if runs.len() > self.config.max_batch_runs {
            return Err(format!(
                "batch has {} runs, cap is {}",
                runs.len(),
                self.config.max_batch_runs
            ));
        }
        if !self.tenants.contains_key(tenant) && self.tenants.len() >= self.config.max_tenants {
            return Err(format!("tenant cap reached ({})", self.config.max_tenants));
        }
        for (i, run) in runs.iter().enumerate() {
            run.validate().map_err(|e| format!("run {i}: {e}"))?;
        }
        Ok(())
    }

    /// The evolving index — the same object `rank_references` queries go
    /// through on the static path.
    pub fn index(&self) -> &CorpusIndex {
        &self.index
    }

    /// Corpus generation: bumped on every accepted batch. Cache keys
    /// derived from request bytes must include it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Drift events in detection order.
    pub fn events(&self) -> &[DriftEvent] {
        &self.events
    }

    /// Monotone ingest counters.
    pub fn counters(&self) -> StreamCounters {
        self.counters
    }

    /// Number of tracked tenants (live or still warming up).
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The current sliding-window runs of one tracked tenant (live or
    /// still warming up), oldest first. `None` for unknown tenants.
    /// This is the observed telemetry `/recommend` consults when a
    /// request names a streaming tenant instead of inlining runs.
    pub fn tenant_runs(&self, tenant: &str) -> Option<&[ExperimentRun]> {
        self.tenants.get(tenant).map(|w| w.runs.as_slice())
    }

    /// A from-scratch rebuild over the startup references plus the
    /// current live windows, under the same frozen fingerprinter — what
    /// the incremental index must stay byte-equivalent to.
    pub fn rebuilt_index(&self) -> Result<CorpusIndex, String> {
        let refs = live_refs(&self.base_refs, &self.tenants, &self.live_order);
        CorpusIndex::from_reference_runs_with_fingerprinter(
            &refs,
            &self.features,
            Arc::clone(&self.fingerprinter),
            &self.pipeline,
            self.index_config,
        )
    }

    /// The drift-event log as JSON — the `GET /drift` body.
    pub fn events_json(&self) -> Json {
        obj! {
            "generation" => self.generation,
            "events" => Json::Arr(self.events.iter().map(DriftEvent::to_json).collect()),
        }
    }

    /// The same counters and corpus state as `wp-obs` series, for
    /// `/metrics`: each [`StreamCounters`] field as a `wp_stream_*_total`
    /// counter, the corpus state as gauges, and the last drift event's
    /// ratio in millionths (0 before the first event).
    pub fn metrics(&self) -> Snapshot {
        let c = &self.counters;
        let named = |series: &[(&str, u64)]| -> Vec<(String, u64)> {
            series.iter().map(|&(n, v)| (n.to_string(), v)).collect()
        };
        let drift_ratio = self.events.last().map_or(0, |e| (e.ratio * 1e6) as u64);
        Snapshot {
            counters: named(&[
                ("wp_stream_drift_events_total", c.drift_events),
                ("wp_stream_evicted_runs_total", c.evicted_runs),
                ("wp_stream_ingest_batches_total", c.ingested_batches),
                ("wp_stream_ingest_runs_total", c.ingested_runs),
                ("wp_stream_phase_shifts_total", c.phase_shifts),
                ("wp_stream_rebuilds_total", c.rebuilds),
                ("wp_stream_rejected_batches_total", c.rejected_batches),
            ]),
            gauges: named(&[
                ("wp_stream_drift_ratio_micros", drift_ratio),
                ("wp_stream_generation", self.generation),
                ("wp_stream_indexed_runs", self.index.len() as u64),
                ("wp_stream_live_references", self.live_order.len() as u64),
                ("wp_stream_tenants", self.tenants.len() as u64),
            ]),
            spans: Vec::new(),
        }
    }

    /// Ingest counters and corpus state as JSON — the `/stats` section.
    pub fn stats_json(&self) -> Json {
        obj! {
            "generation" => self.generation,
            "tenants" => self.tenants.len(),
            "live_references" => self.live_order.len(),
            "indexed_runs" => self.index.len(),
            "ingested_batches" => self.counters.ingested_batches,
            "ingested_runs" => self.counters.ingested_runs,
            "rejected_batches" => self.counters.rejected_batches,
            "evicted_runs" => self.counters.evicted_runs,
            "rebuilds" => self.counters.rebuilds,
            "drift_events" => self.counters.drift_events,
            "phase_shifts" => self.counters.phase_shifts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_core::offline::OfflineReference;
    use wp_workloads::benchmarks;
    use wp_workloads::engine::Simulator;
    use wp_workloads::sku::Sku;

    fn sim() -> Simulator {
        let mut sim = Simulator::new(0xEDB7_2025);
        sim.config.samples = 40;
        sim
    }

    fn runs(sim: &Simulator, name: &str, first_run: usize, n: usize) -> Vec<ExperimentRun> {
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

    fn corpus(sim: &Simulator) -> OfflineCorpus {
        OfflineCorpus {
            references: ["TPC-C", "TPC-H", "Twitter"]
                .iter()
                .map(|n| {
                    let r = runs(sim, n, 0, 3);
                    Arc::new(OfflineReference {
                        name: n.to_string(),
                        runs_from: r.clone(),
                        runs_to: r,
                    })
                })
                .collect(),
        }
    }

    fn config() -> PipelineConfig {
        // Feature selection never runs in the engine (features are passed
        // in); only measure and nbins matter here.
        PipelineConfig::default()
    }

    fn engine(stream: StreamConfig) -> StreamEngine {
        let sim = sim();
        StreamEngine::new(
            &corpus(&sim),
            &FeatureId::all(),
            &config(),
            IndexConfig::default(),
            stream,
        )
        .unwrap()
    }

    #[test]
    fn stationary_stream_fires_no_drift() {
        let sim = sim();
        let mut eng = engine(StreamConfig::default());
        for batch in 0..10 {
            let out = eng
                .ingest("tenant-a", runs(&sim, "TPC-C", 10 + batch * 2, 2))
                .unwrap();
            assert!(!out.drifted, "batch {batch}: {out:?}");
        }
        assert!(eng.events().is_empty());
        assert_eq!(eng.counters().drift_events, 0);
        assert_eq!(eng.generation(), 10);
    }

    #[test]
    fn shape_shift_fires_drift_deterministically() {
        let run_one = || {
            let sim = sim();
            let mut eng = engine(StreamConfig::default());
            for batch in 0..6 {
                eng.ingest("tenant-a", runs(&sim, "TPC-C", 10 + batch * 2, 2))
                    .unwrap();
            }
            // The tenant's workload changes shape.
            for batch in 0..4 {
                eng.ingest("tenant-a", runs(&sim, "TPC-H", 10 + batch * 2, 2))
                    .unwrap();
            }
            eng
        };
        let a = run_one();
        let b = run_one();
        assert!(
            !a.events().is_empty(),
            "shape shift must fire drift: {:?}",
            a.events()
        );
        assert_eq!(a.events(), b.events(), "drift log must be deterministic");
        assert_eq!(a.events_json().pretty(), b.events_json().pretty());
    }

    /// `/metrics` and `/stats` read the same engine fields.
    #[test]
    fn metrics_render_the_stats_section() {
        let sim = sim();
        let mut eng = engine(StreamConfig::default());
        assert!(eng.metrics().counters.iter().all(|(_, v)| *v == 0));
        for batch in 0..6 {
            eng.ingest("tenant-a", runs(&sim, "TPC-C", 10 + batch * 2, 2))
                .unwrap();
        }
        for batch in 0..4 {
            eng.ingest("tenant-a", runs(&sim, "TPC-H", 10 + batch * 2, 2))
                .unwrap();
        }
        assert!(eng.ingest("bad name!", runs(&sim, "TPC-C", 0, 1)).is_err());

        let snap = eng.metrics();
        assert_eq!(snap.counters.len() + snap.gauges.len(), 12);
        let value = |name: &str| {
            let mut all = snap.counters.iter().chain(&snap.gauges);
            all.find(|(n, _)| n == name).unwrap().1
        };
        let stats = eng.stats_json();
        for (name, key) in [
            ("wp_stream_ingest_batches_total", "ingested_batches"),
            ("wp_stream_ingest_runs_total", "ingested_runs"),
            ("wp_stream_rejected_batches_total", "rejected_batches"),
            ("wp_stream_evicted_runs_total", "evicted_runs"),
            ("wp_stream_rebuilds_total", "rebuilds"),
            ("wp_stream_drift_events_total", "drift_events"),
            ("wp_stream_phase_shifts_total", "phase_shifts"),
            ("wp_stream_generation", "generation"),
            ("wp_stream_tenants", "tenants"),
            ("wp_stream_live_references", "live_references"),
            ("wp_stream_indexed_runs", "indexed_runs"),
        ] {
            let expected = stats.get(key).and_then(Json::as_f64).unwrap();
            assert_eq!(value(name) as f64, expected, "{name}");
        }
        assert_eq!(value("wp_stream_rejected_batches_total"), 1);
        let last = eng.events().last().expect("the shape shift fires drift");
        assert_eq!(
            value("wp_stream_drift_ratio_micros"),
            (last.ratio * 1e6) as u64
        );
    }

    #[test]
    fn an_ingest_without_drift_shares_the_drift_log() {
        let sim = sim();
        let mut source = engine(StreamConfig::default());
        for batch in 0..6 {
            source
                .ingest("tenant-a", runs(&sim, "TPC-C", 10 + batch * 2, 2))
                .unwrap();
        }
        for batch in 0..4 {
            source
                .ingest("tenant-a", runs(&sim, "TPC-H", 10 + batch * 2, 2))
                .unwrap();
        }
        assert!(!source.events().is_empty(), "the shape shift fires drift");

        let mut next = source.clone();
        let out = next
            .ingest("tenant-b", runs(&sim, "Twitter", 20, 2))
            .unwrap();
        assert!(!out.drifted, "{out:?}");
        assert!(Arc::ptr_eq(&next.events, &source.events));
    }

    #[test]
    fn incremental_index_matches_rebuild_after_evictions() {
        let sim = sim();
        let mut eng = engine(StreamConfig::default());
        // Enough batches to overflow the 6-run window repeatedly, plus a
        // second tenant so rebuild ordering matters.
        for batch in 0..8 {
            eng.ingest("tenant-a", runs(&sim, "TPC-C", 10 + batch * 2, 2))
                .unwrap();
            eng.ingest("tenant-b", runs(&sim, "Twitter", 20 + batch * 2, 2))
                .unwrap();
        }
        assert!(eng.counters().rebuilds > 0, "{:?}", eng.counters());
        assert!(eng.counters().evicted_runs > 0);

        let rebuilt = eng.rebuilt_index().unwrap();
        assert_eq!(eng.index().len(), rebuilt.len());
        assert_eq!(eng.index().reference_names(), rebuilt.reference_names());
        let target = runs(&sim, "YCSB", 0, 2);
        for k in [1, 3, 7] {
            let a = eng.index().rank_references(&target, k).unwrap();
            let b = rebuilt.rank_references(&target, k).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.workload, y.workload);
                assert_eq!(x.distance.to_bits(), y.distance.to_bits());
            }
        }
    }

    #[test]
    fn live_tenant_is_retrievable() {
        let sim = sim();
        let mut eng = engine(StreamConfig::default());
        for batch in 0..3 {
            eng.ingest("ycsb-live", runs(&sim, "YCSB", batch * 2, 2))
                .unwrap();
        }
        let verdicts = eng
            .index()
            .rank_references(&runs(&sim, "YCSB", 30, 2), 3)
            .unwrap();
        assert_eq!(verdicts[0].workload, "live:ycsb-live", "{verdicts:?}");
    }

    #[test]
    fn invalid_batches_mutate_nothing() {
        let sim = sim();
        let mut eng = engine(StreamConfig::default());
        eng.ingest("tenant-a", runs(&sim, "TPC-C", 10, 2)).unwrap();
        let gen_before = eng.generation();
        let len_before = eng.index().len();

        // Bad tenant names.
        for t in ["", "has space", "x".repeat(65).as_str(), "semi;colon"] {
            assert!(eng.ingest(t, runs(&sim, "TPC-C", 0, 1)).is_err(), "{t:?}");
        }
        // Empty and oversized batches.
        assert!(eng.ingest("tenant-a", Vec::new()).is_err());
        assert!(eng.ingest("tenant-a", runs(&sim, "TPC-C", 0, 17)).is_err());
        // A batch with one poisoned run rejects wholesale.
        let mut bad = runs(&sim, "TPC-C", 0, 3);
        bad[1].throughput = f64::NAN;
        assert!(eng.ingest("tenant-a", bad).is_err());
        let mut bad = runs(&sim, "TPC-C", 0, 2);
        bad[0].resources.data.as_mut_slice()[0] = f64::INFINITY;
        assert!(eng.ingest("tenant-a", bad).is_err());
        let mut bad = runs(&sim, "TPC-C", 0, 2);
        bad[1].resources.sample_interval_secs = -1.0;
        assert!(eng.ingest("tenant-a", bad).is_err());

        assert_eq!(eng.generation(), gen_before, "no partial mutation");
        assert_eq!(eng.index().len(), len_before);
        assert_eq!(eng.tenant_count(), 1);
        assert_eq!(eng.counters().rejected_batches, 9);
    }

    #[test]
    fn tenant_cap_is_enforced() {
        let sim = sim();
        let mut eng = engine(StreamConfig {
            max_tenants: 2,
            ..StreamConfig::default()
        });
        eng.ingest("t1", runs(&sim, "TPC-C", 0, 1)).unwrap();
        eng.ingest("t2", runs(&sim, "TPC-C", 2, 1)).unwrap();
        let err = eng.ingest("t3", runs(&sim, "TPC-C", 4, 1)).unwrap_err();
        assert!(err.contains("tenant cap"), "{err}");
        // Known tenants keep streaming under the cap.
        eng.ingest("t1", runs(&sim, "TPC-C", 6, 1)).unwrap();
    }

    /// Everything a reader can observe of an engine, rendered to one
    /// string: the drift log, the stats section, each tenant's window and
    /// the index's ranking of a fixed target.
    fn observable(eng: &StreamEngine, tenants: &[&str], target: &[ExperimentRun]) -> String {
        let mut out = format!(
            "{}\n{}\n",
            eng.events_json().compact(),
            eng.stats_json().compact()
        );
        for t in tenants {
            let window = eng.tenant_runs(t).unwrap_or(&[]);
            out += &format!("{t}: {}\n", wp_telemetry::io::runs_to_json(window));
        }
        for k in [1, 3] {
            for v in eng.index().rank_references(target, k).unwrap() {
                out += &format!("{k} {} {:x}\n", v.workload, v.distance.to_bits());
            }
        }
        out
    }

    /// A chain of clones — clone, then ingest into the clone — must end
    /// byte-identical to one engine fed the same batches, and every
    /// ingest into a clone must leave its source exactly as it was.
    #[test]
    fn clones_are_isolated_snapshots_of_the_same_evolution() {
        let sim = sim();
        let tenants = ["tenant-a", "tenant-b"];
        // Evictions, rebuilds, a shape shift (drift) and one rejection.
        let mut batches: Vec<(&str, Vec<ExperimentRun>)> = Vec::new();
        for batch in 0..6 {
            batches.push(("tenant-a", runs(&sim, "TPC-C", 10 + batch * 2, 2)));
            batches.push(("tenant-b", runs(&sim, "Twitter", 20 + batch * 2, 2)));
        }
        batches.push(("bad name", runs(&sim, "TPC-C", 0, 1)));
        for batch in 0..4 {
            batches.push(("tenant-a", runs(&sim, "TPC-H", 10 + batch * 2, 2)));
        }
        let target = runs(&sim, "YCSB", 0, 2);

        let mut single = engine(StreamConfig::default());
        let mut current = engine(StreamConfig::default());
        for (tenant, batch) in batches {
            let before = observable(&current, &tenants, &target);
            let mut next = current.clone();
            let via_clone = next.ingest(tenant, batch.clone());
            assert_eq!(
                observable(&current, &tenants, &target),
                before,
                "ingesting into a clone changed its source"
            );
            let direct = single.ingest(tenant, batch);
            assert_eq!(via_clone.is_ok(), direct.is_ok(), "{tenant}");
            current = next;
        }
        assert!(single.counters().rebuilds > 0, "{:?}", single.counters());
        assert!(
            single.counters().drift_events > 0,
            "{:?}",
            single.counters()
        );
        assert_eq!(single.counters().rejected_batches, 1);
        assert_eq!(
            observable(&current, &tenants, &target),
            observable(&single, &tenants, &target)
        );
    }

    /// The engine and its snapshots hold the startup corpus's own
    /// references, through ingests and the rebuilds evictions force.
    #[test]
    fn engine_holds_the_corpus_references() {
        let sim = sim();
        let corpus = corpus(&sim);
        let mut eng = StreamEngine::new(
            &corpus,
            &FeatureId::all(),
            &config(),
            IndexConfig::default(),
            StreamConfig::default(),
        )
        .unwrap();
        let holds_corpus = |eng: &StreamEngine| {
            eng.base_refs.len() == corpus.references.len()
                && eng
                    .base_refs
                    .iter()
                    .zip(&corpus.references)
                    .all(|(held, loaded)| Arc::ptr_eq(held, loaded))
        };
        assert!(holds_corpus(&eng));
        for batch in 0..5 {
            let mut next = eng.clone();
            next.ingest("tenant-a", runs(&sim, "TPC-C", 10 + batch * 2, 2))
                .unwrap();
            eng = next;
            assert!(holds_corpus(&eng), "batch {batch}");
        }
        assert!(eng.counters().rebuilds > 0, "{:?}", eng.counters());
    }

    #[test]
    fn degenerate_configs_rejected() {
        let sim = sim();
        let c = corpus(&sim);
        for bad in [
            StreamConfig {
                window: 0,
                ..StreamConfig::default()
            },
            StreamConfig {
                min_runs: 9,
                window: 6,
                ..StreamConfig::default()
            },
            StreamConfig {
                warmup: 1,
                ..StreamConfig::default()
            },
            StreamConfig {
                history: 1,
                warmup: 2,
                ..StreamConfig::default()
            },
            StreamConfig {
                max_batch_runs: 0,
                ..StreamConfig::default()
            },
        ] {
            assert!(StreamEngine::new(
                &c,
                &FeatureId::all(),
                &config(),
                IndexConfig::default(),
                bad
            )
            .is_err());
        }
    }
}
