//! The traced run: a workload's request sequence replayed in process,
//! with no sockets, and the layers each request passes through timed.
//!
//! Per request, spans are recorded from this file only; nothing inside
//! the program changes:
//!
//! ```text
//! request
//! ├── http.parse            http::parse_request on the wire bytes
//! ├── service.handle_on     the real handler, on the traced state
//! ├── handler.replay        the handler's layer calls, in its order,
//! │   ├── cache.lookup      on the same inputs (results must equal
//! │   │   ├── cache.key     the real answer byte for byte)
//! │   │   └── cache.get
//! │   ├── json.parse, telemetry.decode, similarity.*, index.rank,
//! │   │   predict.fit, predict.cv, stream.ingest, ...
//! │   └── json.render
//! ├── http.render           http::render_response
//! └── probe                 /ingest only: the work inside StreamEngine::ingest
//!     ├── similarity.bcpd   that is not a public call of the handler
//!     └── index.rebuild
//! ```
//!
//! `service.handle_on` is a black box, so its layers are timed on a
//! replay right after it: the replay's children over `handle_on` is the
//! share of the handler the layer spans cover, and the rest is named
//! per endpoint. The replay keeps its own response and reference-data
//! caches and its own `StreamEngine`, fed the same sequence, so its
//! hits and misses match the handler's.
//!
//! Overhead: a twin state serves the same sequence with no recorder,
//! right before or right after the traced handler, alternately; the
//! traced `handle_on` time over the twin's is the recorder's cost. The
//! twin's call sits inside the `request` span when it goes second.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wp_core::offline::OfflineCorpus;
use wp_core::pipeline::{PipelineConfig, SimilarityVerdict};
use wp_index::IndexConfig;
use wp_json::{obj, Json};
use wp_linalg::Matrix;
use wp_predict::context::{PairwiseScalingModel, SingleScalingModel};
use wp_predict::evaluation::{pairwise_cv_nrmse, single_cv_nrmse, ScalingData};
use wp_predict::strategies::ModelStrategy;
use wp_server::cache::LruCache;
use wp_server::http::{self, Parsed, Request};
use wp_server::service::{self, ServiceState};
use wp_similarity::bcpd::{detect_changepoints, BcpdConfig};
use wp_similarity::fingerprinter::fingerprinter;
use wp_similarity::measure::{normalize_distances, try_distance_matrix};
use wp_similarity::repr::{extract, Representation, RunFeatureData};
use wp_similarity::FingerprintConfig;
use wp_stream::{StreamConfig, StreamEngine};
use wp_telemetry::io::run_from_json;
use wp_telemetry::{ExperimentRun, FeatureId, ResourceFeature};
use wp_workloads::Sku;

use crate::stats::Dist;
use crate::workload::{Endpoint, Workload, TENANTS, WARMUP_BATCHES_PER_TENANT};

/// One timed interval. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Keeps spans in memory; [`Recorder::write_tsv`] writes them out.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let span = Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            request: self.request,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Children of every span, by index.
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut kids = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                kids[p].push(i);
            }
        }
        kids
    }

    /// Span `i`'s duration minus the part of its interval that its
    /// children cover.
    pub fn self_time(&self, i: usize, children: &[Vec<usize>]) -> u64 {
        let s = &self.spans[i];
        let mut parts: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    self.spans[c].start.max(s.start),
                    self.spans[c].end.min(s.end),
                )
            })
            .filter(|(a, b)| a < b)
            .collect();
        parts.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start;
        for (a, b) in parts {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        s.duration() - covered
    }

    /// Writes every span as a tab-separated line: request, id, parent
    /// (-1 for none), name, start and end in nanoseconds.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.request, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// CPU level of the startup corpus' observed side.
const CORPUS_FROM_CPUS: f64 = 2.0;
/// CPU level of the startup corpus' scaled side.
const CORPUS_TO_CPUS: f64 = 8.0;
/// `/recommend`'s cross-validation fold seed.
const CV_SEED: u64 = 0xEDB7_2025;

/// Counts made during the replay, where the work happens.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub distance_pairs: Vec<u64>,
    pub candidates: u64,
    pub pruned: u64,
    pub exact: Vec<u64>,
}

/// The handler's layers, called the way `service.rs` calls them, on a
/// state of the replay's own.
struct Replay<'a> {
    corpus: &'a OfflineCorpus,
    selected: &'a [FeatureId],
    config: &'a PipelineConfig,
    responses: Vec<LruCache<String, String>>,
    ref_data: Vec<LruCache<String, Vec<RunFeatureData>>>,
    engine: StreamEngine,
    counts: Counts,
}

type Step<T> = Result<T, String>;

fn matrix_to_json(m: &Matrix) -> Json {
    obj! {
        "rows" => m.rows(),
        "cols" => m.cols(),
        "data" => m.as_slice().to_vec(),
    }
}

fn verdicts_to_json(verdicts: &[SimilarityVerdict]) -> Json {
    Json::Arr(
        verdicts
            .iter()
            .map(|v| obj! { "workload" => v.workload.clone(), "distance" => v.distance })
            .collect(),
    )
}

impl<'a> Replay<'a> {
    fn new(state: &'a ServiceState, shards: usize, capacity: usize) -> Step<Self> {
        Ok(Self {
            corpus: &state.corpus,
            selected: &state.selected,
            config: &state.config,
            responses: (0..shards).map(|_| LruCache::new(capacity)).collect(),
            ref_data: (0..shards).map(|_| LruCache::new(capacity)).collect(),
            engine: StreamEngine::new(
                &state.corpus,
                &state.selected,
                &state.config,
                IndexConfig::default(),
                StreamConfig::default(),
            )?,
            counts: Counts::default(),
        })
    }

    /// `parse_target_runs`.
    fn decode(&self, rec: &mut Recorder, body: &str) -> Step<(Json, Vec<ExperimentRun>)> {
        let doc = rec.time("json.parse", || Json::parse(body))?;
        let runs = rec.time("telemetry.decode", || {
            doc.get("runs")
                .and_then(Json::as_arr)
                .ok_or("body needs a 'runs' array")?
                .iter()
                .map(run_from_json)
                .collect::<Result<Vec<_>, String>>()
        })?;
        Ok((doc, runs))
    }

    /// `cached`: the response cache in front of every `POST` read.
    fn cached(
        &mut self,
        rec: &mut Recorder,
        e: Endpoint,
        shard: usize,
        req: &Request,
    ) -> Step<String> {
        let lookup = rec.begin("cache.lookup");
        let key = rec.time("cache.key", || {
            format!("g{}\n{}\n{}", self.engine.generation(), req.path, req.body)
        });
        let hit = rec.time("cache.get", || self.responses[shard].get(&key));
        rec.end(lookup);
        if let Some(hit) = hit {
            return Ok(hit.as_ref().clone());
        }
        let body = match e {
            Endpoint::Fingerprint => self.fingerprint(rec, &req.body)?,
            Endpoint::Similar | Endpoint::SimilarIndexed => self.similar(rec, shard, &req.body)?,
            Endpoint::Predict => self.predict(rec, shard, &req.body)?,
            Endpoint::Recommend | Endpoint::RecommendTenant => {
                self.recommend(rec, shard, &req.body)?
            }
            other => return Err(format!("{} is not cached", other.label())),
        };
        self.responses[shard].insert(key, Arc::new(body.clone()));
        Ok(body)
    }

    fn fingerprint(&mut self, rec: &mut Recorder, body: &str) -> Step<String> {
        let (_, runs) = self.decode(rec, body)?;
        let data: Vec<RunFeatureData> = rec.time("similarity.extract", || {
            runs.iter().map(|r| extract(r, self.selected)).collect()
        });
        let config = FingerprintConfig {
            nbins: self.config.nbins,
            ..Default::default()
        };
        let fps = rec.time("similarity.fingerprint", || {
            fingerprinter(Representation::HistFp, &config).fingerprints(&data)
        });
        let features: Vec<Json> = self.selected.iter().map(|f| Json::from(f.name())).collect();
        let doc = obj! {
            "representation" => Representation::HistFp.label(),
            "features" => Json::Arr(features),
            "fingerprints" => Json::Arr(fps.iter().map(matrix_to_json).collect()),
        };
        Ok(rec.time("json.render", || doc.compact()))
    }

    /// `similar_verdicts`: the exact joint-normalised ranking.
    fn verdicts(
        &mut self,
        rec: &mut Recorder,
        shard: usize,
        runs: &[ExperimentRun],
    ) -> Step<Vec<SimilarityVerdict>> {
        let mut data: Vec<RunFeatureData> = rec.time("similarity.extract", || {
            runs.iter().map(|r| extract(r, self.selected)).collect()
        });
        let (corpus, selected, cache) = (self.corpus, self.selected, &self.ref_data[shard]);
        let spans: Vec<Range<usize>> = rec.time("cache.ref_data", || {
            corpus
                .references
                .iter()
                .map(|r| {
                    let cached = cache.get_or_insert_with(&r.name, || {
                        r.runs_from
                            .iter()
                            .map(|run| extract(run, selected))
                            .collect()
                    });
                    let start = data.len();
                    data.extend(cached.iter().cloned());
                    start..data.len()
                })
                .collect()
        });
        let config = FingerprintConfig {
            nbins: self.config.nbins,
            ..Default::default()
        };
        let fps = rec.time("similarity.fingerprint", || {
            fingerprinter(self.config.representation, &config).fingerprints(&data)
        });
        let measure = self.config.measure;
        let d = rec.time("similarity.distance", || {
            try_distance_matrix(&fps, measure).map(|d| normalize_distances(&d))
        })?;
        let n = fps.len() as u64;
        self.counts.distance_pairs.push(n * n.saturating_sub(1) / 2);
        let mut verdicts: Vec<SimilarityVerdict> = corpus
            .references
            .iter()
            .zip(&spans)
            .map(|(r, span)| {
                let mut total = 0.0;
                let mut count = 0usize;
                for t in 0..runs.len() {
                    for j in span.clone() {
                        total += d[(t, j)];
                        count += 1;
                    }
                }
                SimilarityVerdict {
                    workload: r.name.clone(),
                    distance: total / count.max(1) as f64,
                }
            })
            .collect();
        verdicts.sort_by(|a, b| {
            a.distance
                .partial_cmp(&b.distance)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(verdicts)
    }

    fn similar(&mut self, rec: &mut Recorder, shard: usize, body: &str) -> Step<String> {
        let (doc, runs) = self.decode(rec, body)?;
        let doc = if doc.get("mode").and_then(Json::as_str) == Some("indexed") {
            let k = doc.get("k").and_then(Json::as_usize).unwrap_or(5);
            let (verdicts, stats) = rec.time("index.rank", || {
                self.engine.index().rank_references_with_stats(&runs, k)
            })?;
            self.counts.candidates += stats.candidates as u64;
            self.counts.pruned += stats.pruned() as u64;
            self.counts.exact.push(stats.exact as u64);
            let best = verdicts.first().ok_or("no verdicts")?;
            obj! {
                "mode" => "indexed",
                "k" => k,
                "most_similar" => best.workload.clone(),
                "verdicts" => verdicts_to_json(&verdicts),
                "pruning" => obj! {
                    "candidates" => stats.candidates,
                    "pruned_pivot" => stats.pruned_pivot,
                    "pruned_paa" => stats.pruned_paa,
                    "pruned_kim" => stats.pruned_kim,
                    "pruned_keogh" => stats.pruned_keogh,
                    "pruned_lcss" => stats.pruned_lcss,
                    "pruned_ea" => stats.pruned_ea,
                    "exact" => stats.exact,
                },
            }
        } else {
            let verdicts = self.verdicts(rec, shard, &runs)?;
            let best = verdicts.first().ok_or("no verdicts")?;
            obj! {
                "most_similar" => best.workload.clone(),
                "verdicts" => verdicts_to_json(&verdicts),
            }
        };
        Ok(rec.time("json.render", || doc.compact()))
    }

    /// The most similar reference's aligned throughputs and groups.
    fn reference_data(&self, name: &str) -> Step<(Vec<f64>, Vec<f64>, Vec<usize>)> {
        let r = self
            .corpus
            .references
            .iter()
            .find(|r| r.name == name)
            .ok_or_else(|| format!("unknown reference {name}"))?;
        Ok((
            r.runs_from.iter().map(|r| r.throughput).collect(),
            r.runs_to.iter().map(|r| r.throughput).collect(),
            r.runs_from.iter().map(|r| r.key.data_group).collect(),
        ))
    }

    fn predict(&mut self, rec: &mut Recorder, shard: usize, body: &str) -> Step<String> {
        let (doc, runs) = self.decode(rec, body)?;
        let from_cpus = doc.get("from_cpus").and_then(Json::as_f64).unwrap_or(2.0);
        let to_cpus = doc.get("to_cpus").and_then(Json::as_f64).unwrap_or(8.0);
        let verdicts = self.verdicts(rec, shard, &runs)?;
        let best = verdicts.first().ok_or("no verdicts")?.workload.clone();
        let (from_values, to_values, groups) = self.reference_data(&best)?;
        let model = rec.time("predict.fit", || {
            PairwiseScalingModel::fit(
                self.config.model,
                &[from_cpus, to_cpus],
                &[from_values, to_values],
                Some(&groups),
            )
        });
        let observed =
            wp_linalg::stats::mean(&runs.iter().map(|r| r.throughput).collect::<Vec<_>>());
        let predicted = model
            .predict_transfer(from_cpus, to_cpus, observed)
            .ok_or("no model for the SKU pair")?;
        let doc = obj! {
            "most_similar" => best,
            "from_cpus" => from_cpus,
            "to_cpus" => to_cpus,
            "observed_throughput" => observed,
            "predicted_throughput" => predicted,
            "verdicts" => verdicts_to_json(&verdicts),
        };
        Ok(rec.time("json.render", || doc.compact()))
    }

    fn recommend(&mut self, rec: &mut Recorder, shard: usize, body: &str) -> Step<String> {
        let doc = rec.time("json.parse", || Json::parse(body))?;
        let slo = doc.get("slo").and_then(Json::as_f64).ok_or("no slo")?;
        let observed_cpus = doc
            .get("observed_cpus")
            .and_then(Json::as_f64)
            .unwrap_or(CORPUS_FROM_CPUS);
        let (runs, source) = match doc.get("tenant").and_then(Json::as_str) {
            Some(name) => {
                let runs = rec.time("stream.window", || {
                    self.engine.tenant_runs(name).map(<[ExperimentRun]>::to_vec)
                });
                (
                    runs.filter(|w| !w.is_empty()).ok_or("unknown tenant")?,
                    format!("tenant:{name}"),
                )
            }
            None => (self.decode(rec, body)?.1, "inline".to_string()),
        };
        let observed =
            wp_linalg::stats::mean(&runs.iter().map(|r| r.throughput).collect::<Vec<_>>());
        let observed_latency =
            wp_linalg::stats::mean(&runs.iter().map(|r| r.latency_ms).collect::<Vec<_>>());
        let verdicts = self.verdicts(rec, shard, &runs)?;
        let best = verdicts.first().ok_or("no verdicts")?.workload.clone();
        let (from_values, to_values, groups) = self.reference_data(&best)?;
        let strategy = self.config.model;
        let (pairwise, single) = rec.time("predict.fit", || {
            let pairwise = PairwiseScalingModel::fit(
                strategy,
                &[CORPUS_FROM_CPUS, CORPUS_TO_CPUS],
                &[from_values.clone(), to_values.clone()],
                Some(&groups),
            );
            let mut cpus = vec![CORPUS_FROM_CPUS; from_values.len()];
            cpus.extend(std::iter::repeat_n(CORPUS_TO_CPUS, to_values.len()));
            let mut values = from_values.clone();
            values.extend_from_slice(&to_values);
            let mut single_groups = groups.clone();
            single_groups.extend_from_slice(&groups);
            let single = SingleScalingModel::fit(strategy, &cpus, &values, Some(&single_groups));
            (pairwise, single)
        });
        let (pairwise_nrmse, single_nrmse) = rec.time("predict.cv", || {
            cv_residuals(strategy, &from_values, &to_values, &groups)
        });

        let single_anchor = single.predict(observed_cpus);
        let mut any_single = false;
        let mut recommended: Option<String> = None;
        let mut candidates = Vec::new();
        for sku in &Sku::paper_grid() {
            let to = sku.cpus as f64;
            let (raw, context, residual) =
                match pairwise.predict_transfer(observed_cpus, to, observed) {
                    Some(p) => (p, "pairwise", pairwise_nrmse),
                    None => {
                        any_single = true;
                        let top = single.predict(to);
                        let p = if single_anchor.is_finite()
                            && single_anchor > 0.0
                            && top.is_finite()
                            && top > 0.0
                        {
                            observed * top / single_anchor
                        } else {
                            0.0
                        };
                        (p, "single", single_nrmse)
                    }
                };
            let predicted = if raw.is_finite() && raw > 0.0 {
                raw
            } else {
                0.0
            };
            let latency = if predicted > 0.0 {
                observed_latency * observed / predicted
            } else {
                0.0
            };
            let meets = predicted >= slo;
            if meets && recommended.is_none() {
                recommended = Some(sku.name.clone());
            }
            candidates.push(obj! {
                "sku" => sku.name.clone(),
                "cpus" => sku.cpus,
                "context" => context,
                "predicted_throughput" => predicted,
                "predicted_latency_ms" => latency,
                "ci_lower" => (predicted * (1.0 - residual)).max(0.0),
                "ci_upper" => predicted * (1.0 + residual),
                "meets_slo" => meets,
            });
        }
        let doc = obj! {
            "recommended" => recommended.map_or(Json::Null, Json::from),
            "slo" => slo,
            "source" => source,
            "observed_cpus" => observed_cpus,
            "observed_throughput" => observed,
            "observed_latency_ms" => observed_latency,
            "most_similar" => best,
            "context" => if any_single { "pairwise+single" } else { "pairwise" },
            "cv" => obj! {
                "pairwise_nrmse" => pairwise_nrmse,
                "single_nrmse" => single_nrmse,
                "folds" => from_values.len().min(5),
                "seed" => CV_SEED,
            },
            "candidates" => Json::Arr(candidates),
        };
        Ok(rec.time("json.render", || doc.compact()))
    }

    fn ingest(&mut self, rec: &mut Recorder, body: &str) -> Step<(String, String, bool)> {
        let (doc, runs) = self.decode(rec, body)?;
        let tenant = doc
            .get("tenant")
            .and_then(Json::as_str)
            .ok_or("no tenant")?
            .to_string();
        let outcome = rec.time("stream.ingest", || self.engine.ingest(&tenant, runs))?;
        let body = rec.time("json.render", || outcome.to_json().compact());
        Ok((body, tenant, outcome.rebuilt))
    }

    /// What `StreamEngine::ingest` does beyond its public surface, timed
    /// on the state it just left: BCPD over the tenant's window, and the
    /// full index rebuild an eviction takes.
    fn probe(&self, rec: &mut Recorder, tenant: &str, rebuilt: bool) -> Step<()> {
        let window = self.engine.tenant_runs(tenant).ok_or("tenant vanished")?;
        let mut series = Vec::new();
        for run in window {
            series.extend(run.resources.feature(ResourceFeature::CpuUtilization));
        }
        rec.time("similarity.bcpd", || {
            detect_changepoints(&series, &BcpdConfig::default())
        });
        if rebuilt {
            rec.time("index.rebuild", || self.engine.rebuilt_index())?;
        }
        Ok(())
    }
}

/// `cv_residuals` in `service.rs`: relative CV residuals of the
/// pairwise and single contexts on one reference.
fn cv_residuals(
    strategy: ModelStrategy,
    from_values: &[f64],
    to_values: &[f64],
    groups: &[usize],
) -> (f64, f64) {
    let n = from_values.len();
    if n < 2 {
        return (0.0, 0.0);
    }
    let folds = n.min(5);
    let levels = vec![CORPUS_FROM_CPUS, CORPUS_TO_CPUS];
    let scale = |values: &[f64], by: f64| -> Vec<f64> {
        if by == 0.0 {
            values.to_vec()
        } else {
            values.iter().map(|v| v / by).collect()
        }
    };
    let pair_data = ScalingData {
        levels: levels.clone(),
        values: vec![
            scale(from_values, wp_linalg::stats::mean(from_values)),
            scale(to_values, wp_linalg::stats::mean(to_values)),
        ],
        groups: groups.to_vec(),
    };
    let pairwise = pairwise_cv_nrmse(&pair_data, strategy, folds, CV_SEED).nrmse;
    let all: Vec<f64> = from_values.iter().chain(to_values).copied().collect();
    let global = wp_linalg::stats::mean(&all);
    let single_data = ScalingData {
        levels,
        values: vec![scale(from_values, global), scale(to_values, global)],
        groups: groups.to_vec(),
    };
    let single = single_cv_nrmse(&single_data, strategy, folds, CV_SEED).nrmse;
    let clamp = |x: f64| if x.is_finite() && x >= 0.0 { x } else { 0.0 };
    (clamp(pairwise), clamp(single))
}

/// What `handle_on` does for an endpoint that no layer span covers.
pub fn uncovered(e: Endpoint) -> &'static str {
    match e {
        Endpoint::Healthz | Endpoint::Corpus => "route, document build and render",
        Endpoint::Ingest => "ingest-order lock, runs clone, replay into the other shard replicas",
        Endpoint::Fingerprint => {
            "route, generation read lock, cached-body clone; on a miss, document build and cache insert"
        }
        Endpoint::SimilarIndexed => {
            "route, generation read lock, cached-body clone; on a miss, engine read lock, \
             document build and cache insert"
        }
        Endpoint::Similar | Endpoint::Predict => {
            "route, generation read lock, cached-body clone; on a miss, verdict averaging \
             and sort, document build and cache insert"
        }
        Endpoint::Recommend | Endpoint::RecommendTenant => {
            "route, generation read lock, cached-body clone; on a miss, verdict averaging \
             and sort, SKU ladder, document build and cache insert"
        }
    }
}

/// The result of a traced replay.
pub struct Traced {
    pub rec: Recorder,
    /// Endpoint of each request id.
    pub endpoints: Vec<Endpoint>,
    pub counts: Counts,
    /// Sum of the traced and the twin `handle_on` times.
    pub traced_ns: u64,
    pub twin_ns: u64,
    /// Replayed answers that differ from the handler's.
    pub divergent: usize,
    pub indexed_runs: usize,
}

/// A fresh sharded state from `corpus`, as the server builds it.
pub fn state(
    corpus: &OfflineCorpus,
    config: &wp_server::ServerConfig,
    shards: usize,
) -> Step<ServiceState> {
    ServiceState::sharded(
        corpus.clone(),
        config.pipeline.clone(),
        config.compute_threads,
        config.cache_capacity,
        config.stream.clone(),
        shards,
    )
}

fn handle_ns(state: &ServiceState, shard: usize, req: &Request) -> (u64, (u16, String)) {
    let t = Instant::now();
    let out = service::handle_on(state, shard, req);
    (t.elapsed().as_nanos() as u64, out)
}

/// Replays `workload`'s sequence, its ingest warmup included, for up to
/// `budget` (and `max_requests`), but at least one cycle of every
/// connection and one ingest: request `i` goes out on connection
/// `i mod conns`, which sits on shard `i mod shards`, and one request in
/// `read_hz / ingest_hz + 1` is an ingest.
pub fn replay(
    workload: &mut Workload,
    corpus: &OfflineCorpus,
    config: &wp_server::ServerConfig,
    shards: usize,
    conns: usize,
    budget: Duration,
    max_requests: usize,
) -> Step<Traced> {
    let started = Instant::now();
    workload.rewind();
    let traced = state(corpus, config, shards)?;
    let twin = state(corpus, config, shards)?;
    let mut replay = Replay::new(&traced, shards, config.cache_capacity)?;
    let mut rec = Recorder::new();
    let parse = |wire: &[u8]| match http::parse_request(wire, false) {
        Parsed::Request { request, .. } => Ok(request),
        other => Err(format!("request does not frame: {other:?}")),
    };

    // Bring the tenants to the same place the network run starts from.
    if workload.has_ingest() {
        for _ in 0..TENANTS * WARMUP_BATCHES_PER_TENANT {
            let idx = workload.next_ingest();
            let req = parse(&workload.reqs[idx].wire)?;
            for s in [&traced, &twin] {
                let (status, body) = service::handle(s, &req);
                if status != 200 {
                    return Err(format!("warmup ingest answered {status}: {body}"));
                }
            }
            replay.ingest(&mut Recorder::new(), &req.body)?;
        }
        replay.counts = Counts::default();
    }
    let every = if workload.has_ingest() && workload.spec.ingest_hz > 0.0 {
        (workload.spec.read_hz / workload.spec.ingest_hz).round() as usize + 1
    } else {
        usize::MAX
    };

    let mut endpoints = Vec::new();
    let (mut traced_ns, mut twin_ns, mut divergent) = (0u64, 0u64, 0usize);
    // However slow the host, every connection's cycle and one ingest are
    // replayed, so every layer the workload reaches gets a span.
    let longest = workload.cycles.iter().map(Vec::len).max().unwrap_or(0);
    let at_least = conns * longest + if every == usize::MAX { 0 } else { every };
    for i in 0..max_requests.max(at_least) {
        if started.elapsed() >= budget && i >= at_least {
            break;
        }
        let conn = i % conns;
        let shard = conn % shards;
        let idx = if i % every == every - 1 {
            workload.next_ingest()
        } else {
            workload.next_read(conn)
        };
        let wreq = &workload.reqs[idx];
        let e = wreq.endpoint;
        endpoints.push(e);
        rec.set_request(i as u64);

        // The twin serves the request right before or right after the
        // traced handler, alternately, so neither side always runs on
        // caches the other warmed.
        let twin_first = i % 2 == 1;
        let req = parse(&wreq.wire)?;
        if twin_first {
            twin_ns += handle_ns(&twin, shard, &req).0;
        }
        let root = rec.begin("request");
        rec.time("http.parse", || parse(&wreq.wire))?;
        let id = rec.begin("service.handle_on");
        let (status, body) = service::handle_on(&traced, shard, &req);
        rec.end(id);
        traced_ns += rec.spans[id].duration();
        if !twin_first {
            twin_ns += handle_ns(&twin, shard, &req).0;
        }
        let r = rec.begin("handler.replay");
        let mirrored = match e {
            Endpoint::Healthz | Endpoint::Corpus => None,
            Endpoint::Ingest => Some(replay.ingest(&mut rec, &req.body)?),
            _ => Some((
                replay.cached(&mut rec, e, shard, &req)?,
                String::new(),
                false,
            )),
        };
        rec.end(r);
        rec.time("http.render", || {
            http::render_response(status, &body, true, &[])
        });
        if let Some((mirror, tenant, rebuilt)) = &mirrored {
            if e == Endpoint::Ingest {
                let p = rec.begin("probe");
                replay.probe(&mut rec, tenant, *rebuilt)?;
                rec.end(p);
            }
            if *mirror != body || status != 200 {
                divergent += 1;
            }
        }
        rec.end(root);
    }
    Ok(Traced {
        indexed_runs: replay.engine.index().len(),
        counts: replay.counts,
        rec,
        endpoints,
        traced_ns,
        twin_ns,
        divergent,
    })
}

/// Durations of every span named `name`, optionally only for requests
/// to `endpoint`.
pub fn durations(t: &Traced, name: &str, endpoint: Option<Endpoint>) -> Dist {
    Dist::new(
        t.rec
            .spans
            .iter()
            .filter(|s| {
                s.name == name && endpoint.is_none_or(|e| t.endpoints[s.request as usize] == e)
            })
            .map(Span::duration)
            .collect(),
    )
}

/// Per endpoint: requests, summed `handle_on` time, and the summed
/// durations of the layer spans directly under `handler.replay`.
pub fn coverage(t: &Traced) -> BTreeMap<Endpoint, (usize, u64, u64)> {
    let children = t.rec.children();
    let mut out: BTreeMap<Endpoint, (usize, u64, u64)> = BTreeMap::new();
    for (i, s) in t.rec.spans.iter().enumerate() {
        let e = t.endpoints[s.request as usize];
        let entry = out.entry(e).or_default();
        match s.name {
            "service.handle_on" => {
                entry.0 += 1;
                entry.1 += s.duration();
            }
            "handler.replay" => {
                entry.2 += children[i]
                    .iter()
                    .map(|&c| t.rec.spans[c].duration())
                    .sum::<u64>();
            }
            _ => {}
        }
    }
    out
}

/// Per ingest request: `handle_on` minus the replay's `stream.ingest`,
/// the replay into the other replicas plus the body parse.
pub fn replica_replay(t: &Traced) -> Dist {
    let mut handle: BTreeMap<u64, u64> = BTreeMap::new();
    let mut ingest: BTreeMap<u64, u64> = BTreeMap::new();
    for s in &t.rec.spans {
        match s.name {
            "service.handle_on" => {
                handle.insert(s.request, s.duration());
            }
            "stream.ingest" => {
                ingest.insert(s.request, s.duration());
            }
            _ => {}
        }
    }
    Dist::new(
        ingest
            .iter()
            .map(|(r, i)| handle.get(r).copied().unwrap_or(0).saturating_sub(*i))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut rec = Recorder::new();
        // parent [0, 100); children [10, 30), [20, 50) overlap, [60, 70);
        // a grandchild inside the first child does not count twice.
        rec.spans = [
            ("parent", 0, 100, None),
            ("a", 10, 30, Some(0)),
            ("b", 20, 50, Some(0)),
            ("c", 60, 70, Some(0)),
            ("a.inner", 12, 28, Some(1)),
        ]
        .into_iter()
        .map(|(name, start, end, parent)| Span {
            name,
            start,
            end,
            parent,
            request: 0,
        })
        .collect();
        let kids = rec.children();
        assert_eq!(rec.self_time(0, &kids), 100 - 40 - 10);
        assert_eq!(rec.self_time(1, &kids), 20 - 16);
        assert_eq!(rec.self_time(3, &kids), 10);

        // Recorded spans nest and close innermost first.
        let mut rec = Recorder::new();
        let outer = rec.begin("outer");
        rec.time("inner", || std::thread::sleep(Duration::from_millis(2)));
        rec.end(outer);
        let kids = rec.children();
        assert_eq!(kids[0], vec![1]);
        assert_eq!(rec.spans[1].parent, Some(0));
        let own = rec.self_time(0, &kids);
        assert_eq!(own, rec.spans[0].duration() - rec.spans[1].duration());
    }
}
