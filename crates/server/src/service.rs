//! Request routing and endpoint handlers.
//!
//! Handlers are pure functions of the shared [`ServiceState`] and one
//! corpus snapshot: the pre-built corpus, the features selected at
//! startup, the streaming engine published for the current generation,
//! and per-shard LRU caches (per-reference fingerprint data and whole
//! response bodies). Every computed response is a deterministic function
//! of (corpus generation, request bytes), so a cache hit is
//! byte-identical to a recompute.
//!
//! ## Snapshots and shards
//!
//! One [`StreamEngine`] is published RCU-style: a request clones the
//! published `Arc` once and reads only that snapshot, for its cache key
//! and for its answer alike, so no answer mixes two generations.
//! `POST /ingest` is serialized by an ingest-order mutex; it applies the
//! batch to a clone of the published engine and swaps the clone in, so
//! reads never wait for an ingest. The reactor pins each connection to
//! one event-loop shard, whose [`ShardState`] holds that shard's caches.
//!
//! A shard's response cache holds answers of the newest generation the
//! shard has served a cached `POST` at, and no older ones: the first
//! such request at a newer generation drops every older entry, on that
//! shard's own request path. No request that starts after a newer
//! generation is published asks for an older key, so the drop changes
//! memory only, never an answer.
//!
//! ## Response-cache keys and admission
//!
//! A request is digested once, in one multiply-mix pass over its path
//! and body under secrets drawn once per process. The lookup borrows
//! the request's own bytes: entries hash as (generation, digest) and
//! compare the full request bytes ([`KeyParts`]), so a digest collision
//! costs a byte compare, never a wrong answer. A shard stores a computed
//! answer only if the same request already missed once among the
//! shard's last `cache_capacity` misses ("cache on second hit", the 2Q
//! admission rule), and only then copies the request into a
//! [`RequestKey`]: a body that never recurs, the common case for tenants
//! posting fresh telemetry, is answered without ever being copied. So
//! the third identical request is the first hit; the second recomputes
//! the same bytes.
//!
//! ## Reading a body
//!
//! A `POST` body is read once. `wp_telemetry::io::decode_runs_body`
//! decodes its `"runs"` straight into runs, with no JSON tree, and
//! returns the other members as small trees. A body it declines (a
//! syntax error, a wrong type, an empty `"runs"`, a repeated key) is
//! parsed by [`Json::parse`] and decoded by `run_from_json`, which
//! produce every error message, so errors are the tree's by
//! construction. Both read through one `wp_json::Reader`, which refuses
//! nesting deeper than `wp_json::MAX_DEPTH` levels with a 400.

use std::borrow::{Borrow, Cow};
use std::collections::hash_map::RandomState;
use std::collections::VecDeque;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

use wp_core::offline::{OfflineCorpus, OfflineReference};
use wp_core::pipeline::{rank_by_mean_distance, PipelineConfig, SimilarityVerdict};
use wp_index::IndexConfig;
use wp_json::{obj, Json};
use wp_linalg::Matrix;
use wp_predict::context::{PairwiseScalingModel, SingleScalingModel};
use wp_predict::evaluation::{pairwise_cv_nrmse, single_cv_nrmse, ScalingData};
use wp_predict::strategies::ModelStrategy;
use wp_similarity::fingerprinter::fingerprinter;
use wp_similarity::repr::{extract, Representation, RunFeatureData};
use wp_stream::{StreamConfig, StreamEngine};
use wp_telemetry::io::{decode_runs_body, run_from_json};
use wp_telemetry::{ExperimentRun, FeatureId};
use wp_workloads::Sku;

use crate::cache::LruCache;
use crate::http::Request;
use crate::stats::ServerStats;

static OBS_RECOMMEND_TOTAL: wp_obs::LazyCounter =
    wp_obs::LazyCounter::new("wp_server_recommend_requests_total");
static OBS_RECOMMEND_FALLBACK: wp_obs::LazyCounter =
    wp_obs::LazyCounter::new("wp_server_recommend_single_fallback_total");
static OBS_RECOMMEND_SPAN: wp_obs::LazySpan = wp_obs::LazySpan::new("wp_server_recommend");

/// CPU level of the default corpus' observed side (`runs_from`).
const CORPUS_FROM_CPUS: f64 = 2.0;
/// CPU level of the default corpus' scaled side (`runs_to`).
const CORPUS_TO_CPUS: f64 = 8.0;
/// Fold seed for the CV-residual confidence intervals: fixed, so the
/// interval is a deterministic function of the corpus and the request.
const CV_SEED: u64 = 0xEDB7_2025;

/// An error mapped to an HTTP status + JSON `{"error": ...}` body.
#[derive(Debug)]
pub struct ServiceError {
    /// HTTP status code (4xx/5xx).
    pub status: u16,
    /// Human-readable message.
    pub message: String,
}

impl ServiceError {
    fn bad_request(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
        }
    }

    fn internal(message: impl Into<String>) -> Self {
        Self {
            status: 500,
            message: message.into(),
        }
    }
}

/// What a response-cache entry is hashed and compared by: the corpus
/// generation a request read, a digest of the request's path and body,
/// and those bytes. An owned [`RequestKey`] and a request borrowed in
/// place (`Lookup`) both provide them, so a lookup copies no byte.
///
/// Entries hash only `(generation, digest)` and compare generation,
/// then digest, then bytes. The digest picks the bucket, and a hit is
/// always the same request bytes, so a digest collision costs one byte
/// compare and never a wrong answer.
pub trait KeyParts {
    /// The corpus generation the answer reads.
    fn generation(&self) -> u64;
    /// The digest of the request's path and body.
    fn digest(&self) -> u64;
    /// The request's path and body.
    fn request(&self) -> (&str, &str);
}

impl Hash for dyn KeyParts + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.generation().hash(state);
        self.digest().hash(state);
    }
}

impl PartialEq for dyn KeyParts + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.generation() == other.generation()
            && self.digest() == other.digest()
            && self.request() == other.request()
    }
}

impl Eq for dyn KeyParts + '_ {}

/// A stored response's key: the [`KeyParts`] of its request, owning a
/// copy of the request's path and body. One is made only when the
/// answer is stored.
pub struct RequestKey {
    generation: u64,
    digest: u64,
    path: String,
    body: String,
}

impl KeyParts for RequestKey {
    fn generation(&self) -> u64 {
        self.generation
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn request(&self) -> (&str, &str) {
        (&self.path, &self.body)
    }
}

impl<'a> Borrow<dyn KeyParts + 'a> for RequestKey {
    fn borrow(&self) -> &(dyn KeyParts + 'a) {
        self
    }
}

impl Hash for RequestKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn KeyParts).hash(state);
    }
}

impl PartialEq for RequestKey {
    fn eq(&self, other: &Self) -> bool {
        (self as &dyn KeyParts) == (other as &dyn KeyParts)
    }
}

impl Eq for RequestKey {}

/// A request as the response cache looks it up, borrowed in place.
struct Lookup<'a> {
    generation: u64,
    digest: u64,
    req: &'a Request,
}

impl<'a> Lookup<'a> {
    /// `req` answered against corpus `generation`: the one pass a
    /// cached request makes over its body, to digest it.
    fn new(generation: u64, req: &'a Request) -> Self {
        let path = request_digest(0, req.path.as_bytes());
        Self {
            generation,
            digest: request_digest(path, req.body.as_bytes()),
            req,
        }
    }

    /// The lookup as the cache compares keys.
    fn parts(&self) -> &(dyn KeyParts + 'a) {
        self
    }

    /// The key a stored answer keeps: the request's bytes, copied.
    fn to_key(&self) -> RequestKey {
        RequestKey {
            generation: self.generation,
            digest: self.digest,
            path: self.req.path.clone(),
            body: self.req.body.clone(),
        }
    }
}

impl KeyParts for Lookup<'_> {
    fn generation(&self) -> u64 {
        self.generation
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn request(&self) -> (&str, &str) {
        (&self.req.path, &self.req.body)
    }
}

/// A 64-bit digest of `bytes`, chained from `start`: four lanes each
/// fold 16 bytes per step into their state with one 64×64→128-bit
/// multiply, whose halves are xored. The multiplier's input is masked
/// with secrets drawn once per process, so which bodies collide cannot
/// be worked out in advance, and a collision costs a byte compare.
fn request_digest(start: u64, bytes: &[u8]) -> u64 {
    static SECRETS: OnceLock<[u64; 5]> = OnceLock::new();
    let secrets = SECRETS.get_or_init(|| {
        let mut seed = RandomState::new().hash_one(0u64);
        std::array::from_fn(|_| {
            // splitmix64: distinct, well-mixed secrets from one seed.
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (seed ^ (seed >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
    });
    let fold = |a: u64, b: u64| {
        let product = u128::from(a) * u128::from(b);
        product as u64 ^ (product >> 64) as u64
    };
    let word = |chunk: &[u8]| u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    let mut lanes = [start; 4];
    let mut absorb = |block: &[u8]| {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let at = 16 * i;
            *lane = fold(
                word(&block[at..at + 8]) ^ secrets[i],
                word(&block[at + 8..at + 16]) ^ *lane,
            );
        }
    };
    let mut blocks = bytes.chunks_exact(64);
    blocks.by_ref().for_each(&mut absorb);
    // The last 0..63 bytes, zero-padded into one more block; the length
    // tells a padded block from one that ends in zeros.
    let mut last = [0u8; 64];
    let tail = blocks.remainder();
    last[..tail.len()].copy_from_slice(tail);
    absorb(&last);
    let [a, b, c, d] = lanes;
    fold(
        fold(a ^ secrets[4], b ^ bytes.len() as u64) ^ secrets[0],
        fold(c ^ secrets[1], d ^ secrets[2]),
    )
}

/// Per-shard caches. A reactor shard serves its connections from its
/// own `ShardState`, so the cache locks are effectively uncontended on
/// the hot read path.
///
/// The response cache stores an answer only on its request's second
/// miss within the shard's last `cache_capacity` misses, so the third
/// identical request is the first hit; the second recomputes the same
/// bytes. A request whose previous miss lies further back could not have
/// been served by an LRU of that capacity either.
pub struct ShardState {
    /// Per-reference extracted fingerprint feature data.
    pub ref_data: LruCache<String, Vec<RunFeatureData>>,
    /// Whole-response cache for the `POST` endpoints, keyed by
    /// [`RequestKey`]. It holds answers of the newest generation the
    /// shard has served a cached `POST` at, no older ones, and only of
    /// requests that recurred within the shard's last `cache_capacity`
    /// misses.
    pub responses: LruCache<RequestKey, String>,
    /// The newest corpus generation this shard has served a cached
    /// `POST` at. `Relaxed` suffices: the mark publishes no data (the
    /// cache's lock orders its entries), and a stale read of it can only
    /// keep or store an entry that no new request asks for.
    newest_generation: AtomicU64,
    /// Digests of the requests behind the shard's last
    /// `remembered_misses` misses that computed an answer, oldest first.
    /// It holds no generation, so a request that recurs across an ingest
    /// is stored on its first miss at the new generation. Poisoning is
    /// recovered: every update leaves a valid queue, and a lost digest
    /// only delays one store.
    recent_misses: Mutex<VecDeque<u64>>,
    /// `cache_capacity`, at least 1.
    remembered_misses: usize,
    /// Answers computed on a response-cache miss and not stored, because
    /// their request had not missed recently.
    declined: AtomicU64,
}

impl ShardState {
    fn new(cache_capacity: usize) -> Self {
        Self {
            ref_data: LruCache::new(cache_capacity),
            responses: LruCache::new(cache_capacity),
            newest_generation: AtomicU64::new(0),
            recent_misses: Mutex::new(VecDeque::new()),
            remembered_misses: cache_capacity.max(1),
            declined: AtomicU64::new(0),
        }
    }

    /// Records a cached `POST` served at `generation`. The first one at a
    /// newer generation drops every response of an older one: a request
    /// that starts after a newer snapshot is published never asks for an
    /// older key.
    fn serve_at(&self, generation: u64) {
        let previous = self
            .newest_generation
            .fetch_max(generation, Ordering::Relaxed);
        if previous < generation {
            self.responses.retain(|key, _| key.generation >= generation);
        }
    }

    /// Whether the request with `digest` is among the shard's remembered
    /// misses. If not, remembers it in place of the oldest one.
    fn missed_recently(&self, digest: u64) -> bool {
        let mut misses = self
            .recent_misses
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if misses.contains(&digest) {
            return true;
        }
        if misses.len() == self.remembered_misses {
            misses.pop_front();
        }
        misses.push_back(digest);
        false
    }

    /// Caches `body`, the answer computed on a miss of `key`, if its
    /// request missed recently too. It is not cached either when the
    /// shard has served a newer generation since `key`'s snapshot was
    /// taken: no new request asks for that key. A store racing the drop
    /// on another thread of the same shard can still leave one such
    /// entry; the next drop removes it.
    fn store(&self, lookup: &Lookup, body: &str) {
        if !self.missed_recently(lookup.digest) {
            self.declined.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if lookup.generation >= self.newest_generation.load(Ordering::Relaxed) {
            self.responses
                .insert(lookup.to_key(), Arc::new(body.to_string()));
        }
    }
}

/// Everything a worker needs to answer requests; shared via `Arc`.
pub struct ServiceState {
    /// The reference corpus, validated at startup.
    pub corpus: OfflineCorpus,
    /// Features selected on the corpus at startup (stage 1, done once).
    pub selected: Vec<FeatureId>,
    /// Pipeline configuration (measure, bins, scaling-model strategy).
    pub config: PipelineConfig,
    /// When set, pins the `wp-runtime` thread count for request
    /// computation (the pool override is thread-local, so it is applied
    /// around every handler invocation).
    pub compute_threads: Option<usize>,
    /// One [`ShardState`] per serving shard (always at least one).
    pub shards: Vec<ShardState>,
    /// The published live corpus: the pruning-cascade index over the
    /// startup corpus plus every streamed tenant reference, evolved by
    /// `POST /ingest` with histogram ranges frozen over the startup
    /// corpus. Read through [`ServiceState::snapshot`], replaced through
    /// [`ServiceState::publish`].
    engine: RwLock<Arc<StreamEngine>>,
    /// Serializes `POST /ingest`, so each batch is applied to the engine
    /// its predecessor published.
    ingest_order: Mutex<()>,
    /// Request accounting (shared across shards — `/stats` is global).
    pub stats: ServerStats,
    /// Whether this instance serves `GET /metrics`. Off by default; when
    /// off, routing is byte-identical to a build without the endpoint
    /// (`/metrics` stays an ordinary 404).
    pub obs: bool,
}

impl ServiceState {
    /// Builds single-shard state: validates the corpus, runs feature
    /// selection, and boots the streaming engine (which freezes
    /// histogram ranges over the startup corpus).
    pub fn new(
        corpus: OfflineCorpus,
        config: PipelineConfig,
        compute_threads: Option<usize>,
        cache_capacity: usize,
        stream_config: StreamConfig,
    ) -> Result<Self, String> {
        Self::sharded(
            corpus,
            config,
            compute_threads,
            cache_capacity,
            stream_config,
            1,
        )
    }

    /// [`ServiceState::new`] with `shards` independent cache sets. The
    /// streaming engine is built once and shared by every shard.
    pub fn sharded(
        corpus: OfflineCorpus,
        config: PipelineConfig,
        compute_threads: Option<usize>,
        cache_capacity: usize,
        stream_config: StreamConfig,
        shards: usize,
    ) -> Result<Self, String> {
        let (selected, engine) = {
            let startup = || -> Result<(Vec<FeatureId>, StreamEngine), String> {
                let selected = wp_core::offline::select_features_offline(&corpus, &config)?;
                let engine = StreamEngine::new(
                    &corpus,
                    &selected,
                    &config,
                    IndexConfig::default(),
                    stream_config,
                )?;
                Ok((selected, engine))
            };
            match compute_threads {
                Some(n) => wp_runtime::with_thread_count(n, startup)?,
                None => startup()?,
            }
        };
        Ok(Self {
            corpus,
            selected,
            config,
            compute_threads,
            shards: (0..shards.max(1))
                .map(|_| ShardState::new(cache_capacity))
                .collect(),
            engine: RwLock::new(Arc::new(engine)),
            ingest_order: Mutex::new(()),
            stats: ServerStats::default(),
            obs: false,
        })
    }

    /// The shard state serving `shard` (indices wrap, so any caller-
    /// provided shard id is valid).
    pub fn shard(&self, shard: usize) -> &ShardState {
        &self.shards[shard % self.shards.len()]
    }

    /// The current corpus generation (bumped by every accepted ingest).
    pub fn generation(&self) -> u64 {
        self.snapshot().generation()
    }

    /// The published engine. A request calls this once and reads only
    /// the returned snapshot, however long it runs.
    ///
    /// The lock guards nothing but a pointer swap, which no panic can
    /// leave half done, so a poisoned lock still holds a valid snapshot.
    fn snapshot(&self) -> Arc<StreamEngine> {
        Arc::clone(&self.engine.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Makes `engine` the snapshot every later request reads.
    fn publish(&self, engine: StreamEngine) {
        let previous = {
            let mut slot = self.engine.write().unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *slot, Arc::new(engine))
        };
        // Dropped after the write lock is released: freeing the previous
        // corpus never stalls a reader.
        drop(previous);
    }

    /// Hit/miss counters of the response cache, summed over shards.
    pub fn response_cache_counters(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(h, m), s| {
            let (hits, misses) = s.responses.counters();
            (h + hits, m + misses)
        })
    }

    /// Everything `GET /metrics` serves: the `wp-obs` registry's series
    /// plus this server's own counts, read from their owners now. Those
    /// are the request accounting, both caches and the declined answers
    /// summed over shards, and the published engine's ingest counters and
    /// corpus state. They are per server and kept whether or not
    /// observability is on; the registry is process-global and gated.
    pub fn metrics(&self) -> wp_obs::Snapshot {
        let mut own = self.stats.metrics();
        let sum = |count: fn(&ShardState) -> u64| self.shards.iter().map(count).sum::<u64>();
        let declined = sum(|s| s.declined.load(Ordering::Relaxed));
        let caches = [
            ("hits", "responses", sum(|s| s.responses.counters().0)),
            ("misses", "responses", sum(|s| s.responses.counters().1)),
            ("evictions", "responses", sum(|s| s.responses.evictions())),
            ("declined", "responses", declined),
            ("hits", "ref_data", sum(|s| s.ref_data.counters().0)),
            ("misses", "ref_data", sum(|s| s.ref_data.counters().1)),
            ("evictions", "ref_data", sum(|s| s.ref_data.evictions())),
        ];
        for (count, cache, value) in caches {
            let family = format!("wp_server_cache_{count}_total");
            own.counters
                .push((wp_obs::series(&family, "cache", cache), value));
        }
        own.merge(self.snapshot().metrics());
        let mut snap = wp_obs::snapshot();
        snap.merge(own);
        snap
    }

    /// The extracted feature data of one reference's source runs, served
    /// from the shard's cache.
    fn reference_data(&self, shard: usize, index: usize) -> Arc<Vec<RunFeatureData>> {
        let r = &self.corpus.references[index];
        self.shard(shard).ref_data.get_or_insert_with(&r.name, || {
            r.runs_from
                .iter()
                .map(|run| extract(run, &self.selected))
                .collect()
        })
    }
}

/// Routes one request to its handler and renders the response.
///
/// Returns `(status, body)`; the body is always a compact JSON document.
/// Single-shard entry point for in-process callers (`wp trace`,
/// `wp recommend`, and the tests and benchmark that use it as the
/// server's oracle): everything routes through shard 0.
pub fn handle(state: &ServiceState, req: &Request) -> (u16, String) {
    handle_on(state, 0, req)
}

/// [`handle`] pinned to one serving shard's caches. Responses are
/// byte-identical across shards for the same corpus generation.
pub fn handle_on(state: &ServiceState, shard: usize, req: &Request) -> (u16, String) {
    let run = || route(state, shard, req);
    let result = match state.compute_threads {
        Some(n) => wp_runtime::with_thread_count(n, run),
        None => run(),
    };
    match result {
        Ok(body) => (200, body),
        Err(e) => (e.status, obj! { "error" => e.message.clone() }.compact()),
    }
}

fn route(state: &ServiceState, shard: usize, req: &Request) -> Result<String, ServiceError> {
    match (req.method.as_str(), req.path.as_str()) {
        // Observability surface: only routed when enabled, so a disabled
        // server's response to `/metrics` is the pre-existing 404.
        ("GET", "/metrics") if state.obs => Ok(state.metrics().render_prometheus()),
        (_, "/metrics") if state.obs => Err(ServiceError {
            status: 405,
            message: format!("{} only supports GET", req.path),
        }),
        ("GET", "/healthz") => Ok(healthz(state)),
        ("GET", "/corpus") => Ok(corpus_info(state)),
        ("POST", "/corpus") => validate_corpus(&req.body),
        ("GET", "/stats") => Ok(stats_doc(state, &state.snapshot())),
        ("GET", "/drift") => Ok(drift_log(&state.snapshot())),
        ("POST", "/fingerprint") => cached(state, shard, req, |_| fingerprint(state, &req.body)),
        ("POST", "/similar") => cached(state, shard, req, |engine| {
            similar(state, shard, engine, &req.body)
        }),
        ("POST", "/predict") => cached(state, shard, req, |_| predict(state, shard, &req.body)),
        ("POST", "/recommend") => cached(state, shard, req, |engine| {
            recommend(state, shard, engine, &req.body)
        }),
        // Ingest mutates the corpus, so it never goes through the
        // response cache.
        ("POST", "/ingest") => ingest(state, &req.body),
        (_, "/corpus") => Err(ServiceError {
            status: 405,
            message: format!("{} only supports GET and POST", req.path),
        }),
        (_, "/healthz" | "/stats" | "/drift") => Err(ServiceError {
            status: 405,
            message: format!("{} only supports GET", req.path),
        }),
        (_, "/fingerprint" | "/similar" | "/predict" | "/recommend" | "/ingest") => {
            Err(ServiceError {
                status: 405,
                message: format!("{} only supports POST", req.path),
            })
        }
        _ => Err(ServiceError {
            status: 404,
            message: format!("no such endpoint '{}'", req.path),
        }),
    }
}

/// Serves a `POST` endpoint through the response cache: identical bodies
/// get the stored bytes back; misses compute and return, and store the
/// answer only if the same request missed recently on this shard, so the
/// third identical request is the first hit.
///
/// The key carries the corpus generation alongside the request bytes, so
/// an answer computed against one corpus is never served after an ingest
/// mutated it; the shard drops such entries at its first request on the
/// newer corpus. The key's generation and the answer come from the same
/// snapshot, so a body is always stored under the generation it read.
fn cached(
    state: &ServiceState,
    shard: usize,
    req: &Request,
    f: impl FnOnce(&StreamEngine) -> Result<String, ServiceError>,
) -> Result<String, ServiceError> {
    let engine = state.snapshot();
    let caches = state.shard(shard);
    let lookup = Lookup::new(engine.generation(), req);
    caches.serve_at(lookup.generation);
    if let Some(hit) = caches.responses.get(lookup.parts()) {
        return Ok(hit.as_ref().clone());
    }
    let body = f(&engine)?;
    caches.store(&lookup, &body);
    Ok(body)
}

/// `GET /stats` — request accounting plus a `"stream"` section with the
/// live-corpus state and ingest counters.
fn stats_doc(state: &ServiceState, engine: &StreamEngine) -> String {
    let mut doc = state.stats.to_json(state.response_cache_counters());
    if let Json::Obj(pairs) = &mut doc {
        pairs.push(("stream".to_string(), engine.stats_json()));
    }
    doc.compact()
}

/// `GET /drift` — the drift-event log: every event the engine detected,
/// in detection order, plus the current corpus generation. The log is a
/// deterministic function of the ingest stream, so two replays of the
/// same seeded stream must return byte-identical documents.
fn drift_log(engine: &StreamEngine) -> String {
    engine.events_json().compact()
}

/// `POST /ingest` — one batch of telemetry for one tenant:
/// `{"tenant": "...", "runs": [...]}` in the `wp_telemetry::io` run
/// schema. Validation is all-or-nothing: any invalid run rejects the
/// batch with a 400 and the corpus is untouched. An accepted batch
/// updates the tenant's sliding window, evolves the corpus index, runs
/// drift detection, and bumps the corpus generation (invalidating the
/// response cache).
///
/// The batch is applied to a clone of the published engine, which is
/// then published in its place. A rejected batch is published too, so
/// the engine's rejection counter moves; its generation does not.
fn ingest(state: &ServiceState, body: &str) -> Result<String, ServiceError> {
    // The engine checks each run itself, after the batch, and counts the
    // batch it rejects.
    let (doc, runs) = parse_body(body)?.into_decoded_runs()?;
    let tenant = doc
        .get("tenant")
        .and_then(Json::as_str)
        .ok_or_else(|| ServiceError::bad_request("body needs a 'tenant' string"))?;
    // A panicking ingest never publishes its clone, so the order lock
    // guards no state a panic could leave half updated.
    let _order = state
        .ingest_order
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let mut next = StreamEngine::clone(&state.snapshot());
    let outcome = next.ingest(tenant, runs);
    state.publish(next);
    Ok(outcome
        .map_err(ServiceError::bad_request)?
        .to_json()
        .compact())
}

fn healthz(state: &ServiceState) -> String {
    obj! {
        "status" => "ok",
        "references" => state.corpus.references.len(),
        "selected_features" => state.selected.len(),
    }
    .compact()
}

fn corpus_info(state: &ServiceState) -> String {
    let references: Vec<Json> = state
        .corpus
        .references
        .iter()
        .map(|r| {
            obj! {
                "name" => r.name.clone(),
                "runs_from" => r.runs_from.len(),
                "runs_to" => r.runs_to.len(),
            }
        })
        .collect();
    let features: Vec<Json> = state
        .selected
        .iter()
        .map(|f| Json::from(f.name()))
        .collect();
    obj! {
        "references" => references,
        "selected_features" => Json::Arr(features),
        "measure" => state.config.measure.label(),
        "nbins" => state.config.nbins,
    }
    .compact()
}

/// `POST /corpus` — dry-run validation of a corpus document. The body
/// goes through the same parse + [`OfflineCorpus::validate`] gate as a
/// corpus loaded at startup; any defect (NaN samples, zero-length
/// series, mismatched from/to pair counts, …) is a structured `400`
/// naming the offending reference and run. Nothing is loaded — the
/// serving corpus is immutable after startup.
fn validate_corpus(body: &str) -> Result<String, ServiceError> {
    let corpus = crate::corpus::corpus_from_json(body).map_err(ServiceError::bad_request)?;
    let runs: usize = corpus
        .references
        .iter()
        .map(|r| r.runs_from.len() + r.runs_to.len())
        .sum();
    Ok(obj! {
        "ok" => true,
        "references" => corpus.references.len(),
        "runs" => runs,
    }
    .compact())
}

/// A `POST` body, read once.
struct Body {
    /// Its members, but for `"runs"` when `runs` holds them.
    doc: Json,
    /// Its `"runs"`, when the typed decoder read the body.
    runs: Option<Vec<ExperimentRun>>,
}

impl Body {
    /// Whether the body has a `"runs"` member.
    fn has_runs(&self) -> bool {
        self.runs.is_some() || self.doc.get("runs").is_some()
    }

    /// The other members and the decoded, non-empty `"runs"`, as sent.
    fn into_decoded_runs(self) -> Result<(Json, Vec<ExperimentRun>), ServiceError> {
        let runs = match self.runs {
            Some(runs) => runs,
            None => decode_runs(&self.doc)?,
        };
        Ok((self.doc, runs))
    }

    /// [`Self::into_decoded_runs`], each run held to
    /// [`ExperimentRun::validate`] with `/ingest`'s messages, so the
    /// typed and the tree decode meet the same check.
    fn into_runs(self) -> Result<(Json, Vec<ExperimentRun>), ServiceError> {
        let (doc, runs) = self.into_decoded_runs()?;
        for (i, run) in runs.iter().enumerate() {
            run.validate()
                .map_err(|e| ServiceError::bad_request(format!("run {i}: {e}")))?;
        }
        Ok((doc, runs))
    }
}

/// Reads a `POST` body: straight into runs when
/// [`decode_runs_body`] takes it, and otherwise into a JSON tree. A body
/// the typed decoder declines is the tree's to accept or reject, so
/// every error names the tree's reason, and a body it takes decodes as
/// the tree would decode it.
fn parse_body(body: &str) -> Result<Body, ServiceError> {
    if let Some((doc, runs)) = decode_runs_body(body) {
        return Ok(Body {
            doc,
            runs: Some(runs),
        });
    }
    let doc = Json::parse(body)
        .map_err(|e| ServiceError::bad_request(format!("invalid JSON body: {e}")))?;
    Ok(Body { doc, runs: None })
}

/// Reads a `POST` body and its required `"runs"` array.
fn parse_target_runs(body: &str) -> Result<(Json, Vec<ExperimentRun>), ServiceError> {
    parse_body(body)?.into_runs()
}

/// Decodes the `"runs"` array shared by every `POST` body from its
/// parsed tree.
fn decode_runs(doc: &Json) -> Result<Vec<ExperimentRun>, ServiceError> {
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| ServiceError::bad_request("body needs a 'runs' array"))?;
    if runs.is_empty() {
        return Err(ServiceError::bad_request("'runs' must not be empty"));
    }
    runs.iter()
        .enumerate()
        .map(|(i, r)| {
            run_from_json(r).map_err(|e| ServiceError::bad_request(format!("runs[{i}]: {e}")))
        })
        .collect()
}

fn matrix_to_json(m: &Matrix) -> Json {
    obj! {
        "rows" => m.rows(),
        "cols" => m.cols(),
        "data" => m.as_slice().to_vec(),
    }
}

/// Joint fingerprints of `data` under `repr`, through the
/// [`Fingerprinter`](wp_similarity::Fingerprinter) strategy trait.
///
/// MTS needs equal observation counts across a run's features and would
/// otherwise panic deep in `wp-similarity`, so ragged runs are checked
/// here first and surface as clean 400s.
fn joint_fingerprints(
    repr: Representation,
    nbins: usize,
    data: &[RunFeatureData],
) -> Result<Vec<Matrix>, ServiceError> {
    if repr == Representation::Mts {
        for (r, run) in data.iter().enumerate() {
            let n = run.series.first().map_or(0, Vec::len);
            if run.series.iter().any(|s| s.len() != n) {
                return Err(ServiceError::bad_request(format!(
                    "runs[{r}]: MTS requires equal observation counts across \
                     features (resource features only)"
                )));
            }
        }
    }
    let config = wp_similarity::FingerprintConfig {
        nbins,
        ..Default::default()
    };
    Ok(fingerprinter(repr, &config).fingerprints(data))
}

/// The largest `"nbins"` `POST /fingerprint` accepts: 20× the largest bin
/// count any experiment uses, and small enough that a fingerprint's
/// allocation stays bounded whatever the client asks for.
const MAX_NBINS: usize = 1024;

/// `POST /fingerprint` — fingerprints the posted runs on the selected
/// features. Optional body fields: `"representation"` (`"hist"`, the
/// default, `"mts"`, or `"phase"`) and `"nbins"` (Hist-FP only, at most
/// [`MAX_NBINS`]).
fn fingerprint(state: &ServiceState, body: &str) -> Result<String, ServiceError> {
    let (doc, runs) = parse_target_runs(body)?;
    let repr = match doc.get("representation").and_then(Json::as_str) {
        None => Representation::HistFp,
        Some(s) => Representation::parse(s).ok_or_else(|| {
            ServiceError::bad_request(format!(
                "unknown representation '{s}' (use 'mts', 'hist', or 'phase')"
            ))
        })?,
    };
    let nbins = match doc.get("nbins") {
        None => state.config.nbins,
        Some(v) => v
            .as_usize()
            .filter(|&n| n > 0)
            .ok_or_else(|| ServiceError::bad_request("'nbins' must be a positive integer"))?,
    };
    if nbins > MAX_NBINS {
        return Err(ServiceError::bad_request(format!(
            "'nbins' must be at most {MAX_NBINS}"
        )));
    }
    let data: Vec<RunFeatureData> = runs.iter().map(|r| extract(r, &state.selected)).collect();
    let fps = joint_fingerprints(repr, nbins, &data)?;
    let features: Vec<Json> = state
        .selected
        .iter()
        .map(|f| Json::from(f.name()))
        .collect();
    Ok(obj! {
        "representation" => repr.label(),
        "features" => Json::Arr(features),
        "fingerprints" => Json::Arr(fps.iter().map(matrix_to_json).collect()),
    }
    .compact())
}

/// Stage 2 over the cached reference data: joint fingerprints of the
/// target and reference runs, ranked by the same
/// [`rank_by_mean_distance`] as `wp_core::pipeline::find_most_similar`,
/// with the per-reference feature extraction served from the LRU cache.
fn similar_verdicts(
    state: &ServiceState,
    shard: usize,
    target_runs: &[ExperimentRun],
) -> Result<Vec<SimilarityVerdict>, ServiceError> {
    let mut data: Vec<RunFeatureData> = target_runs
        .iter()
        .map(|r| extract(r, &state.selected))
        .collect();
    let mut ref_spans = Vec::with_capacity(state.corpus.references.len());
    for (i, r) in state.corpus.references.iter().enumerate() {
        let cached = state.reference_data(shard, i);
        let start = data.len();
        data.extend(cached.iter().cloned());
        ref_spans.push((r.name.as_str(), start..data.len()));
    }
    let fps = joint_fingerprints(state.config.representation, state.config.nbins, &data)?;
    rank_by_mean_distance(&fps, state.config.measure, target_runs.len(), &ref_spans)
        .map_err(|e| ServiceError::bad_request(format!("cannot compare runs: {e}")))
}

fn verdicts_to_json(verdicts: &[SimilarityVerdict]) -> Json {
    Json::Arr(
        verdicts
            .iter()
            .map(|v| {
                obj! {
                    "workload" => v.workload.clone(),
                    "distance" => v.distance,
                }
            })
            .collect(),
    )
}

/// `POST /similar` — ranks the reference workloads by similarity to the
/// posted runs.
///
/// Optional body field `"mode"` selects the ranking path:
///
/// * `"exact"` (the default) — the paper's joint-normalization recipe,
///   bit-identical to `wp_core::pipeline::find_most_similar`. Ranks the
///   *startup* references only: the recipe is defined over the offline
///   corpus, and its joint normalization would change answers
///   retroactively if streamed references joined it.
/// * `"indexed"` — top-k retrieval through the *live* corpus index
///   (startup references plus every streamed tenant, frozen histogram
///   ranges, raw measure distances). `"k"` (default 5) bounds the corpus
///   runs retrieved per posted run. The response carries `"mode"`,
///   `"k"`, and a `"pruning"` object with the cascade's per-stage
///   counters (summed over the posted runs), so clients can both tell
///   the paths apart and see how much work the lower bounds saved.
fn similar(
    state: &ServiceState,
    shard: usize,
    engine: &StreamEngine,
    body: &str,
) -> Result<String, ServiceError> {
    let (doc, runs) = parse_target_runs(body)?;
    match doc.get("mode").and_then(Json::as_str) {
        None | Some("exact") => {
            let verdicts = similar_verdicts(state, shard, &runs)?;
            let best = top_verdict(&verdicts)?;
            Ok(obj! {
                "most_similar" => best.workload.clone(),
                "verdicts" => verdicts_to_json(&verdicts),
            }
            .compact())
        }
        Some("indexed") => {
            let k = match doc.get("k") {
                None => 5,
                Some(v) => v
                    .as_usize()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| ServiceError::bad_request("'k' must be a positive integer"))?,
            };
            let (verdicts, stats) = engine
                .index()
                .rank_references_with_stats(&runs, k)
                .map_err(|e| ServiceError::bad_request(format!("cannot compare runs: {e}")))?;
            let best = top_verdict(&verdicts)?;
            Ok(obj! {
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
            .compact())
        }
        Some(other) => Err(ServiceError::bad_request(format!(
            "unknown mode '{other}' (use 'exact' or 'indexed')"
        ))),
    }
}

/// The first verdict of a ranking; a ranking over a validated corpus is
/// never empty, so an empty one is a `500`.
fn top_verdict(verdicts: &[SimilarityVerdict]) -> Result<&SimilarityVerdict, ServiceError> {
    verdicts
        .first()
        .ok_or_else(|| ServiceError::internal("similarity ranking produced no verdicts"))
}

/// The reference the top verdict names: its aligned run pairs fit the
/// scaling models of `/predict` and `/recommend`.
fn predicting_reference<'a>(
    state: &'a ServiceState,
    verdicts: &[SimilarityVerdict],
) -> Result<&'a OfflineReference, ServiceError> {
    let best = top_verdict(verdicts)?;
    state
        .corpus
        .references
        .iter()
        .find(|r| r.name == best.workload)
        .map(Arc::as_ref)
        .ok_or_else(|| {
            ServiceError::internal(format!(
                "most similar reference '{}' is not in the corpus",
                best.workload
            ))
        })
}

/// `POST /predict` — full stage 2 + 3: most similar reference, then a
/// pairwise scaling model fit on that reference's aligned run pairs,
/// transferred to the posted runs' observed throughput. Optional body
/// fields `"from_cpus"` / `"to_cpus"` label the SKU pair (defaults 2 and
/// 8, the default corpus' pair).
fn predict(state: &ServiceState, shard: usize, body: &str) -> Result<String, ServiceError> {
    let (doc, runs) = parse_target_runs(body)?;
    let cpus = |key: &str, default: f64| -> Result<f64, ServiceError> {
        match doc.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_f64()
                .filter(|x| x.is_finite() && *x > 0.0)
                .ok_or_else(|| ServiceError::bad_request(format!("'{key}' must be positive"))),
        }
    };
    let from_cpus = cpus("from_cpus", 2.0)?;
    let to_cpus = cpus("to_cpus", 8.0)?;

    let verdicts = similar_verdicts(state, shard, &runs)?;
    let reference = predicting_reference(state, &verdicts)?;

    let (from_values, to_values, groups) = reference.scaling_pairs();
    let model = PairwiseScalingModel::fit(
        state.config.model,
        &[from_cpus, to_cpus],
        &[from_values, to_values],
        Some(&groups),
    );
    let observed = wp_linalg::stats::mean(&runs.iter().map(|r| r.throughput).collect::<Vec<_>>());
    let predicted = model
        .predict_transfer(from_cpus, to_cpus, observed)
        .ok_or_else(|| ServiceError::bad_request("no model for the requested SKU pair"))?;

    Ok(obj! {
        "most_similar" => reference.name.clone(),
        "from_cpus" => from_cpus,
        "to_cpus" => to_cpus,
        "observed_throughput" => observed,
        "predicted_throughput" => predicted,
        "verdicts" => verdicts_to_json(&verdicts),
    }
    .compact())
}

/// Relative cross-validated residuals of the two modeling contexts over
/// one reference's aligned scaling observations, used as CI half-widths
/// by `/recommend`.
///
/// The corpus keeps only a handful of runs per reference, so k-fold test
/// folds often hold a single point and `wp_ml::metrics::nrmse` degrades
/// to an *absolute* RMSE there (a zero test range has nothing to divide
/// by). To keep the residual a *relative* error either way, the values
/// are normalized before CV: per level for the pairwise transfer (the
/// transfer is scale-free across levels) and by one global mean for the
/// single curve (which must keep its shape across levels).
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

/// `POST /recommend` — the what-if SKU advisor. Body:
///
/// * `"slo"` (required) — the throughput target, in req/s. Positive and
///   finite.
/// * `"runs"` *or* `"tenant"` (exactly one) — the observed telemetry:
///   either inline runs in the `wp_telemetry::io` schema, or the name of
///   a streamed tenant whose current sliding window is consulted.
/// * `"observed_cpus"` (optional, default 2) — the SKU the telemetry was
///   observed on.
///
/// The handler ranks the posted runs against the startup references
/// (stage 2), fits the pairwise and single scaling contexts on the most
/// similar reference's aligned run pairs, and predicts throughput across
/// the `Sku::paper_grid` ladder. SKUs the pairwise model covers use the
/// transfer (`"context": "pairwise"`); the rest fall back to the single-
/// context curve, scaled through the observed operating point
/// (`"context": "single"` — the response's top-level `"context"` says
/// `"pairwise+single"` when any candidate fell back). Every prediction
/// carries a confidence interval `predicted * (1 ± nrmse)`, the half-
/// width being the context's cross-validated relative residual on the
/// reference. The recommendation is the cheapest (fewest-CPU) SKU whose
/// predicted throughput meets the SLO, or `null` when none does.
fn recommend(
    state: &ServiceState,
    shard: usize,
    engine: &StreamEngine,
    body: &str,
) -> Result<String, ServiceError> {
    let _span = OBS_RECOMMEND_SPAN.start();
    let body = parse_body(body)?;
    let doc = &body.doc;
    let slo = doc
        .get("slo")
        .ok_or_else(|| ServiceError::bad_request("body needs a 'slo' throughput target"))?
        .as_f64()
        .filter(|x| x.is_finite() && *x > 0.0)
        .ok_or_else(|| {
            ServiceError::bad_request("'slo' must be a positive finite throughput (req/s)")
        })?;
    let observed_cpus = match doc.get("observed_cpus") {
        None => CORPUS_FROM_CPUS,
        Some(v) => v
            .as_f64()
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or_else(|| ServiceError::bad_request("'observed_cpus' must be positive"))?,
    };
    let (runs, source) = match (doc.get("tenant"), body.has_runs()) {
        (Some(_), true) => {
            return Err(ServiceError::bad_request(
                "give 'runs' or 'tenant', not both",
            ))
        }
        (None, false) => {
            return Err(ServiceError::bad_request(
                "body needs a 'runs' array or a 'tenant' name",
            ))
        }
        (Some(t), false) => {
            let name = t
                .as_str()
                .ok_or_else(|| ServiceError::bad_request("'tenant' must be a string"))?;
            let runs = engine
                .tenant_runs(name)
                .filter(|w| !w.is_empty())
                .ok_or_else(|| ServiceError::bad_request(format!("unknown tenant '{name}'")))?;
            (Cow::Borrowed(runs), format!("tenant:{name}"))
        }
        (None, true) => (Cow::Owned(body.into_runs()?.1), "inline".to_string()),
    };

    let observed = wp_linalg::stats::mean(&runs.iter().map(|r| r.throughput).collect::<Vec<_>>());
    let observed_latency =
        wp_linalg::stats::mean(&runs.iter().map(|r| r.latency_ms).collect::<Vec<_>>());
    if !(observed.is_finite() && observed > 0.0) {
        return Err(ServiceError::bad_request(
            "observed throughput must be positive",
        ));
    }

    let verdicts = similar_verdicts(state, shard, &runs)?;
    let reference = predicting_reference(state, &verdicts)?;
    let (from_values, to_values, groups) = reference.scaling_pairs();

    let pairwise = PairwiseScalingModel::fit(
        state.config.model,
        &[CORPUS_FROM_CPUS, CORPUS_TO_CPUS],
        &[from_values.clone(), to_values.clone()],
        Some(&groups),
    );
    let single = {
        let mut cpus = vec![CORPUS_FROM_CPUS; from_values.len()];
        cpus.extend(std::iter::repeat_n(CORPUS_TO_CPUS, to_values.len()));
        let mut values = from_values.clone();
        values.extend_from_slice(&to_values);
        let mut single_groups = groups.clone();
        single_groups.extend_from_slice(&groups);
        SingleScalingModel::fit(state.config.model, &cpus, &values, Some(&single_groups))
    };
    let (pairwise_nrmse, single_nrmse) =
        cv_residuals(state.config.model, &from_values, &to_values, &groups);

    // The single curve's value at the observed operating point anchors
    // the fallback: predicted = observed * curve(to) / curve(observed).
    let single_anchor = single.predict(observed_cpus);
    let mut any_single = false;
    let mut recommended: Option<&str> = None;
    let mut candidates = Vec::new();
    let ladder = Sku::paper_grid();
    for sku in &ladder {
        let to = sku.cpus as f64;
        let (raw, context, residual) = match pairwise.predict_transfer(observed_cpus, to, observed)
        {
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
        // Latency scales inversely with throughput at fixed offered load.
        let latency = if predicted > 0.0 {
            observed_latency * observed / predicted
        } else {
            0.0
        };
        let meets = predicted >= slo;
        if meets && recommended.is_none() {
            recommended = Some(sku.name.as_str());
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
    OBS_RECOMMEND_TOTAL.add(1);
    if any_single {
        OBS_RECOMMEND_FALLBACK.add(1);
    }

    Ok(obj! {
        "recommended" => recommended.map_or(Json::Null, Json::from),
        "slo" => slo,
        "source" => source,
        "observed_cpus" => observed_cpus,
        "observed_throughput" => observed,
        "observed_latency_ms" => observed_latency,
        "most_similar" => reference.name.clone(),
        "context" => if any_single { "pairwise+single" } else { "pairwise" },
        "cv" => obj! {
            "pairwise_nrmse" => pairwise_nrmse,
            "single_nrmse" => single_nrmse,
            "folds" => from_values.len().min(5),
            "seed" => CV_SEED,
        },
        "candidates" => Json::Arr(candidates),
    }
    .compact())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::simulated_corpus;
    use wp_featsel::Strategy;
    use wp_similarity::measure::{normalize_distances, try_distance_matrix};
    use wp_workloads::engine::Simulator;
    use wp_workloads::{benchmarks, Sku};

    fn test_state() -> ServiceState {
        sharded_test_state(1)
    }

    fn sharded_test_state(shards: usize) -> ServiceState {
        test_state_with(shards, 16)
    }

    /// `shards` shards whose caches hold `capacity` entries each.
    fn test_state_with(shards: usize, capacity: usize) -> ServiceState {
        let corpus = simulated_corpus(0xEDB7_2025, 40);
        let config = PipelineConfig {
            selection: Strategy::FAnova,
            ..PipelineConfig::default()
        };
        let stream = StreamConfig::default();
        ServiceState::sharded(corpus, config, Some(1), capacity, stream, shards).unwrap()
    }

    fn ingest_body(tenant: &str, workload: &str, first_run: usize, n: usize) -> String {
        let mut sim = Simulator::new(0xEDB7_2025);
        sim.config.samples = 40;
        let spec = match workload {
            "TPC-H" => benchmarks::tpch(),
            "YCSB" => benchmarks::ycsb(),
            _ => benchmarks::tpcc(),
        };
        let terminals = if workload == "TPC-H" { 1 } else { 8 };
        let runs: Vec<ExperimentRun> = (first_run..first_run + n)
            .map(|r| sim.simulate(&spec, &Sku::new("cpu2", 2, 64.0), terminals, r, r % 3))
            .collect();
        let json = wp_telemetry::io::runs_to_json(&runs);
        format!("{{\"tenant\":\"{tenant}\",\"runs\":{json}}}")
    }

    fn target_body(state_seed: u64) -> String {
        let mut sim = Simulator::new(state_seed);
        sim.config.samples = 40;
        let runs: Vec<ExperimentRun> = (0..2)
            .map(|r| sim.simulate(&benchmarks::ycsb(), &Sku::new("cpu2", 2, 64.0), 8, r, r % 3))
            .collect();
        let json = wp_telemetry::io::runs_to_json(&runs);
        format!("{{\"runs\":{json}}}")
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            body: body.to_string(),
            keep_alive: true,
        }
    }

    #[test]
    fn similar_matches_core_find_most_similar() {
        let state = test_state();
        let mut sim = Simulator::new(0xEDB7_2025);
        sim.config.samples = 40;
        let target: Vec<ExperimentRun> = (0..2)
            .map(|r| sim.simulate(&benchmarks::ycsb(), &Sku::new("cpu2", 2, 64.0), 8, r, r % 3))
            .collect();
        let via_service = similar_verdicts(&state, 0, &target).unwrap();

        let reference_runs: Vec<(String, Vec<ExperimentRun>)> = state
            .corpus
            .references
            .iter()
            .map(|r| (r.name.clone(), r.runs_from.clone()))
            .collect();
        let via_core = wp_core::pipeline::find_most_similar(
            &target,
            &reference_runs,
            &state.selected,
            &state.config,
        )
        .unwrap();
        assert_eq!(via_service.len(), via_core.len());
        for (a, b) in via_service.iter().zip(&via_core) {
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
    }

    /// `/similar` exact mode now dispatches through the `Fingerprinter`
    /// trait; its response must stay byte-identical to the pre-refactor
    /// recipe that called the representation primitives directly — for
    /// each existing representation, cold vs warm cache, and pinned
    /// compute pools of 1 vs 8 threads.
    #[test]
    fn similar_exact_matches_direct_primitives_byte_for_byte() {
        use wp_similarity::histfp::histfp;
        use wp_similarity::phasefp::{phasefp, PhaseFpConfig};

        for repr in [Representation::HistFp, Representation::PhaseFp] {
            let config = PipelineConfig {
                selection: Strategy::FAnova,
                representation: repr,
                ..PipelineConfig::default()
            };
            let state = ServiceState::new(
                simulated_corpus(0xEDB7_2025, 40),
                config.clone(),
                Some(1),
                16,
                StreamConfig::default(),
            )
            .unwrap();
            let body = target_body(3);
            let req = request("POST", "/similar", &body);
            let (s, cold) = handle(&state, &req);
            assert_eq!(s, 200, "{repr:?}: {cold}");
            let (s, warm) = handle(&state, &req);
            assert_eq!(s, 200);
            assert_eq!(cold, warm, "{repr:?}: warm cache diverged");

            let wide_state = ServiceState::new(
                simulated_corpus(0xEDB7_2025, 40),
                config,
                Some(8),
                16,
                StreamConfig::default(),
            )
            .unwrap();
            let (s, wide) = handle(&wide_state, &req);
            assert_eq!(s, 200);
            assert_eq!(cold, wide, "{repr:?}: 8-thread pool diverged");

            // Pre-refactor recipe: the primitive called directly, joint
            // normalization over target + reference runs, per-reference
            // mean of min-max-normalized distances, ascending.
            let mut sim = Simulator::new(3);
            sim.config.samples = 40;
            let target: Vec<ExperimentRun> = (0..2)
                .map(|r| sim.simulate(&benchmarks::ycsb(), &Sku::new("cpu2", 2, 64.0), 8, r, r % 3))
                .collect();
            let mut data: Vec<RunFeatureData> =
                target.iter().map(|r| extract(r, &state.selected)).collect();
            let mut spans = Vec::new();
            for r in &state.corpus.references {
                let start = data.len();
                data.extend(r.runs_from.iter().map(|run| extract(run, &state.selected)));
                spans.push(start..data.len());
            }
            let fps = match repr {
                Representation::HistFp => histfp(&data, state.config.nbins),
                Representation::PhaseFp => phasefp(&data, &PhaseFpConfig::default()),
                _ => unreachable!(),
            };
            let d = normalize_distances(&try_distance_matrix(&fps, state.config.measure).unwrap());
            let mut expected: Vec<SimilarityVerdict> = state
                .corpus
                .references
                .iter()
                .zip(&spans)
                .map(|(r, span)| {
                    let mut total = 0.0;
                    let mut count = 0usize;
                    for t in 0..target.len() {
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
            expected.sort_by(|a, b| {
                a.distance
                    .partial_cmp(&b.distance)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });

            let via_trait = similar_verdicts(&state, 0, &target).unwrap();
            assert_eq!(via_trait.len(), expected.len(), "{repr:?}");
            for (a, b) in via_trait.iter().zip(&expected) {
                assert_eq!(a.workload, b.workload, "{repr:?}");
                assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "{repr:?}");
            }
        }
    }

    #[test]
    fn indexed_similar_is_deterministic_and_agrees_on_the_winner() {
        let state = test_state();
        let body = target_body(3);
        let indexed_body = body.replacen('{', "{\"mode\":\"indexed\",\"k\":3,", 1);

        let (s, exact) = handle(&state, &request("POST", "/similar", &body));
        assert_eq!(s, 200, "{exact}");
        let (s, first) = handle(&state, &request("POST", "/similar", &indexed_body));
        assert_eq!(s, 200, "{first}");
        let doc = Json::parse(&first).unwrap();
        assert_eq!(doc.get("mode").and_then(Json::as_str), Some("indexed"));
        assert_eq!(doc.get("k").and_then(Json::as_usize), Some(3));

        // the cascade counters come back with the response, and every
        // candidate is accounted for: candidates == Σ pruned + exact
        let pruning = doc.get("pruning").expect("indexed response has pruning");
        let stat = |key: &str| pruning.get(key).and_then(Json::as_usize).unwrap();
        assert!(stat("candidates") > 0, "{first}");
        let pruned = stat("pruned_pivot")
            + stat("pruned_paa")
            + stat("pruned_kim")
            + stat("pruned_keogh")
            + stat("pruned_lcss")
            + stat("pruned_ea");
        assert_eq!(stat("candidates"), pruned + stat("exact"), "{first}");

        // both paths agree on the most similar reference for a clear-cut
        // target (YCSB → TPC-C per §6.2.3)
        let exact_doc = Json::parse(&exact).unwrap();
        assert_eq!(
            doc.get("most_similar").and_then(Json::as_str),
            exact_doc.get("most_similar").and_then(Json::as_str),
            "exact: {exact}\nindexed: {first}"
        );

        // recompute without the response cache: byte-identical
        let fresh = test_state();
        let (s, second) = handle(&fresh, &request("POST", "/similar", &indexed_body));
        assert_eq!(s, 200);
        assert_eq!(first, second);

        // explicit exact mode matches the default path's verdicts
        let exact_body = body.replacen('{', "{\"mode\":\"exact\",", 1);
        let (s, explicit) = handle(&state, &request("POST", "/similar", &exact_body));
        assert_eq!(s, 200);
        assert_eq!(explicit, exact);

        // bad mode / bad k are client errors
        let (s, _) = handle(
            &state,
            &request(
                "POST",
                "/similar",
                &body.replacen('{', "{\"mode\":\"x\",", 1),
            ),
        );
        assert_eq!(s, 400);
        let (s, _) = handle(
            &state,
            &request(
                "POST",
                "/similar",
                &body.replacen('{', "{\"mode\":\"indexed\",\"k\":0,", 1),
            ),
        );
        assert_eq!(s, 400);
    }

    #[test]
    fn cached_similar_response_is_byte_identical() {
        let state = test_state();
        let req = request("POST", "/similar", &target_body(3));
        let (s1, cold) = handle(&state, &req);
        let (s2, stored) = handle(&state, &req);
        let (s3, warm) = handle(&state, &req);
        assert_eq!(s1, 200);
        assert_eq!(s2, 200);
        assert_eq!(s3, 200);
        assert_eq!(cold, stored);
        assert_eq!(cold, warm);
        let (hits, _) = state.response_cache_counters();
        assert!(hits >= 1, "third request must hit the response cache");
    }

    /// `n` distinct `/fingerprint` requests: one target, varying bins.
    fn distinct_requests(n: usize) -> Vec<Request> {
        let body = target_body(3);
        (1..=n)
            .map(|bins| {
                let body = body.replacen('{', &format!("{{\"nbins\":{bins},"), 1);
                request("POST", "/fingerprint", &body)
            })
            .collect()
    }

    /// Asks `req` once more and returns its answer and the hit and miss
    /// counts it added.
    fn ask(state: &ServiceState, req: &Request) -> ((u16, String), (u64, u64)) {
        let (hits, misses) = state.response_cache_counters();
        let answer = handle(state, req);
        let (h, m) = state.response_cache_counters();
        (answer, (h - hits, m - misses))
    }

    #[test]
    fn an_answer_is_stored_on_its_second_miss_and_hit_on_the_third_ask() {
        let state = test_state_with(1, 2);
        let req = &distinct_requests(1)[0];
        let responses = &state.shards[0].responses;

        let (first, counts) = ask(&state, req);
        assert_eq!(first.0, 200, "{}", first.1);
        assert_eq!(counts, (0, 1));
        assert_eq!(responses.len(), 0, "a request asked once is not stored");
        let (second, counts) = ask(&state, req);
        assert_eq!(counts, (0, 1));
        assert_eq!(responses.len(), 1, "a request asked twice is stored");
        let (third, counts) = ask(&state, req);
        assert_eq!(counts, (1, 0), "the third ask hits");
        assert_eq!(second, first);
        assert_eq!(third, first, "a hit is byte-identical to the first answer");
    }

    /// A cycle one request longer than the cache, the shape of the
    /// cold-read workload, never recurs within the remembered misses.
    #[test]
    fn a_cycle_longer_than_the_cache_stores_nothing_and_never_hits() {
        const C: usize = 3;
        let state = test_state_with(1, C);
        let cycle = distinct_requests(C + 1);
        for _round in 0..3 {
            for req in &cycle {
                let (answer, counts) = ask(&state, req);
                assert_eq!(answer.0, 200, "{}", answer.1);
                assert_eq!(counts, (0, 1), "every ask misses");
                assert_eq!(state.shards[0].responses.len(), 0);
            }
        }
    }

    /// A cycle as long as the cache, the shape of the hot-read workload,
    /// is stored in its second round and hits throughout its third.
    #[test]
    fn a_cycle_that_fits_the_cache_hits_on_every_ask_of_its_third_round() {
        const C: usize = 3;
        let state = test_state_with(1, C);
        let cycle = distinct_requests(C);
        let first: Vec<_> = cycle.iter().map(|req| handle(&state, req)).collect();
        for req in &cycle {
            handle(&state, req);
        }
        assert_eq!(state.shards[0].responses.len(), C);
        for (req, expected) in cycle.iter().zip(&first) {
            let (answer, counts) = ask(&state, req);
            assert_eq!(counts, (1, 0), "every third-round ask hits");
            assert_eq!(&answer, expected);
        }
    }

    /// The remembered misses carry no generation: a request stored before
    /// an ingest is stored again on its first miss after it.
    #[test]
    fn a_stored_request_is_stored_again_on_its_first_miss_after_an_ingest() {
        let state = test_state_with(1, 2);
        let req = &distinct_requests(1)[0];
        handle(&state, req);
        handle(&state, req);
        let held = |generation| {
            let lookup = Lookup::new(generation, req);
            state.shards[0].responses.get(lookup.parts()).is_some()
        };
        assert!(held(0));

        let ingest = request("POST", "/ingest", &ingest_body("t", "TPC-C", 0, 2));
        let (s, resp) = handle(&state, &ingest);
        assert_eq!(s, 200, "{resp}");
        let (answer, counts) = ask(&state, req);
        assert_eq!(answer.0, 200, "{}", answer.1);
        assert_eq!(counts, (0, 1), "the first ask after the ingest misses");
        assert_eq!(state.shards[0].responses.len(), 1);
        assert!(held(1), "and is stored at the new generation");
        assert!(!held(0), "the older answer is gone");
    }

    /// Keys whose generation and digest agree but whose bytes differ are
    /// different keys: a borrowed lookup of one in a cache holding the
    /// other is a counted miss, and a lookup of the same bytes hits.
    #[test]
    fn a_digest_collision_is_a_counted_miss() {
        let (one, two) = (
            request("POST", "/similar", "{\"a\":1}"),
            request("POST", "/similar", "{\"a\":2}"),
        );
        let colliding = |req| Lookup {
            generation: 4,
            digest: 7,
            req,
        };
        let cache: LruCache<RequestKey, String> = LruCache::new(4);
        cache.insert(colliding(&one).to_key(), Arc::new("held".to_string()));
        assert!(cache.get(colliding(&two).parts()).is_none());
        assert_eq!(cache.counters(), (0, 1));
        assert_eq!(
            cache
                .get(colliding(&one).parts())
                .as_deref()
                .map(String::as_str),
            Some("held")
        );
        assert_eq!(cache.counters(), (1, 1));
    }

    /// The digest reads every byte and the length: a flipped bit in any
    /// block, the tail included, or a trailing zero byte moves it.
    #[test]
    fn the_digest_sees_every_byte_and_the_length() {
        let body: Vec<u8> = (0..200u8).collect();
        let base = request_digest(0, &body);
        assert_eq!(base, request_digest(0, &body), "one secret per process");
        for at in [0, 31, 63, 64, 127, 128, 199] {
            let mut flipped = body.clone();
            flipped[at] ^= 1;
            assert_ne!(request_digest(0, &flipped), base, "byte {at}");
        }
        let mut longer = body.clone();
        longer.push(0);
        assert_ne!(request_digest(0, &longer), base);
        assert_ne!(request_digest(1, &body), base, "the chain start counts");
        assert_ne!(request_digest(0, b""), request_digest(0, b"\0"));
    }

    /// Satellite regression: before generation-aware cache keys, a
    /// `/similar` answer cached against the startup corpus kept being
    /// served after an ingest changed the corpus. The indexed answer for
    /// YCSB runs must switch to the live YCSB tenant once it streams in.
    #[test]
    fn cached_similar_answer_is_not_served_across_an_ingest() {
        let state = test_state();
        let indexed_body = target_body(3).replacen('{', "{\"mode\":\"indexed\",\"k\":3,", 1);
        let req = request("POST", "/similar", &indexed_body);

        let (s, before) = handle(&state, &req);
        assert_eq!(s, 200, "{before}");
        // Warm the cache (the second ask stores) and prove it hits.
        let (_, stored) = handle(&state, &req);
        assert_eq!(before, stored);
        let (_, warm) = handle(&state, &req);
        assert_eq!(before, warm);
        let (hits, _) = state.response_cache_counters();
        assert!(hits >= 1);

        // Stream a YCSB tenant into the corpus (2 batches => live).
        for batch in 0..2 {
            let (s, resp) = handle(
                &state,
                &request(
                    "POST",
                    "/ingest",
                    &ingest_body("ycsb-live", "YCSB", 10 + batch * 2, 2),
                ),
            );
            assert_eq!(s, 200, "{resp}");
        }
        assert_eq!(state.generation(), 2);

        // The same request bytes must now be answered by the new corpus,
        // not the cached pre-ingest bytes.
        let (s, after) = handle(&state, &req);
        assert_eq!(s, 200, "{after}");
        assert_ne!(before, after, "stale cached answer served after ingest");
        let doc = Json::parse(&after).unwrap();
        assert_eq!(
            doc.get("most_similar").and_then(Json::as_str),
            Some("live:ycsb-live"),
            "{after}"
        );
    }

    /// Each shard drops its answers of older generations at its first
    /// read on a newer corpus: after one ingest and one more read per
    /// shard, the new answer is all that shard holds, and it equals a
    /// fresh one-shard state's answer. Each pre-ingest read is sent twice,
    /// so the shard stores it; the post-ingest read recurs across the
    /// ingest, so its first miss stores it.
    #[test]
    fn shards_drop_answers_of_superseded_generations() {
        let exact = request("POST", "/similar", &target_body(3));
        let indexed_body = target_body(3).replacen('{', "{\"mode\":\"indexed\",\"k\":3,", 1);
        let indexed = request("POST", "/similar", &indexed_body);
        let ingest = request("POST", "/ingest", &ingest_body("ycsb-live", "YCSB", 10, 2));

        let state = sharded_test_state(2);
        let mut stale = Vec::new();
        for shard in 0..2 {
            for req in [&exact, &exact, &indexed, &indexed] {
                stale.push(handle_on(&state, shard, req));
            }
            assert_eq!(state.shards[shard].responses.len(), 2);
        }
        let (s, resp) = handle_on(&state, 0, &ingest);
        assert_eq!(s, 200, "{resp}");
        let answers: Vec<_> = (0..2)
            .map(|shard| handle_on(&state, shard, &indexed))
            .collect();
        assert_eq!(
            state.response_cache_counters(),
            (0, 10),
            "drops are no hits"
        );

        let fresh = test_state();
        let (s, resp) = handle(&fresh, &ingest);
        assert_eq!(s, 200, "{resp}");
        let expected = handle(&fresh, &indexed);
        assert_eq!(expected.0, 200, "{}", expected.1);
        assert!(
            !stale.contains(&expected),
            "the ingest must change the answer"
        );
        for (shard, answer) in answers.iter().enumerate() {
            assert_eq!(answer, &expected, "shard {shard}");
            let responses = &state.shards[shard].responses;
            assert_eq!(responses.len(), 1, "shard {shard} kept a superseded answer");
            let held = responses
                .get(Lookup::new(1, &indexed).parts())
                .expect("new answer cached");
            assert_eq!(held.as_ref(), &expected.1, "shard {shard}");
        }
    }

    #[test]
    fn ingest_drift_and_stats_endpoints() {
        let state = test_state();

        // Reject before accept: bad shapes never mutate the corpus.
        let (s, _) = handle(&state, &request("POST", "/ingest", "{not json"));
        assert_eq!(s, 400);
        let (s, resp) = handle(&state, &request("POST", "/ingest", "{\"runs\":[]}"));
        assert_eq!(s, 400, "{resp}");
        let no_tenant = ingest_body("t", "TPC-C", 0, 1).replacen("\"tenant\":\"t\",", "", 1);
        let (s, resp) = handle(&state, &request("POST", "/ingest", &no_tenant));
        assert_eq!(s, 400, "{resp}");
        assert!(resp.contains("tenant"), "{resp}");
        assert_eq!(state.generation(), 0);

        // Accept a batch; the outcome reports the corpus evolution.
        let (s, resp) = handle(
            &state,
            &request("POST", "/ingest", &ingest_body("t1", "TPC-C", 0, 2)),
        );
        assert_eq!(s, 200, "{resp}");
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(doc.get("accepted_runs").and_then(Json::as_usize), Some(2));
        assert_eq!(doc.get("generation").and_then(Json::as_usize), Some(1));
        assert_eq!(doc.get("live_references").and_then(Json::as_usize), Some(1));

        // Engine-level rejection (tenant name fails validation) leaves
        // the corpus untouched and shows up in the stream counters.
        let bad_name =
            ingest_body("t", "TPC-C", 0, 1).replacen("\"tenant\":\"t\"", "\"tenant\":\"t !\"", 1);
        let (s, resp) = handle(&state, &request("POST", "/ingest", &bad_name));
        assert_eq!(s, 400, "{resp}");
        assert_eq!(state.generation(), 1);

        // Wrong methods.
        let (s, _) = handle(&state, &request("GET", "/ingest", ""));
        assert_eq!(s, 405);
        let (s, _) = handle(&state, &request("POST", "/drift", ""));
        assert_eq!(s, 405);

        // The drift log and /stats stream section are visible.
        let (s, resp) = handle(&state, &request("GET", "/drift", ""));
        assert_eq!(s, 200, "{resp}");
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(doc.get("generation").and_then(Json::as_usize), Some(1));
        assert!(doc.get("events").and_then(Json::as_arr).is_some(), "{resp}");

        let (s, resp) = handle(&state, &request("GET", "/stats", ""));
        assert_eq!(s, 200);
        let doc = Json::parse(&resp).unwrap();
        let stream = doc.get("stream").expect("stats has a stream section");
        assert_eq!(
            stream.get("ingested_batches").and_then(Json::as_usize),
            Some(1),
            "{resp}"
        );
        assert_eq!(
            stream.get("rejected_batches").and_then(Json::as_usize),
            Some(1),
            "{resp}"
        );
    }

    /// Readers on every shard race a writer's ingests. Each answer must be
    /// the one-shard model's answer at a generation the request overlapped,
    /// and each cached body must be the model's answer at the generation in
    /// its key: no answer and no cache entry mixes two generations.
    #[test]
    fn reads_racing_ingest_each_see_one_generation() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

        const K: usize = 40;
        const SHARDS: usize = 3;
        // One cache entry per shard and two alternating reads, each sent
        // twice in a row: both requests of a pair miss, so readers are
        // mid-computation when the writer publishes, and the second one
        // stores the read's answer.
        let sharded = |shards, compute_threads| {
            let config = PipelineConfig {
                selection: Strategy::FAnova,
                ..PipelineConfig::default()
            };
            let corpus = simulated_corpus(0xEDB7_2025, 40);
            let stream = StreamConfig::default();
            ServiceState::sharded(corpus, config, compute_threads, 1, stream, shards).unwrap()
        };
        let indexed = target_body(3).replacen('{', "{\"mode\":\"indexed\",\"k\":3,", 1);
        let reads = [
            request("POST", "/similar", &indexed),
            request("POST", "/recommend", "{\"slo\":5,\"tenant\":\"race\"}"),
        ];
        let ingests: Vec<Request> = (0..K)
            .map(|b| request("POST", "/ingest", &ingest_body("race", "YCSB", b * 2, 2)))
            .collect();

        // answers[g][r]: read r against the model's corpus at generation g.
        let model = sharded(1, Some(1));
        let mut answers = Vec::new();
        for ingest in ingests.iter().map(Some).chain([None]) {
            answers.push(reads.iter().map(|r| handle(&model, r)).collect::<Vec<_>>());
            if let Some(req) = ingest {
                let (s, resp) = handle(&model, req);
                assert_eq!(s, 200, "{resp}");
            }
        }

        let state = sharded(SHARDS, None);
        // Checks every entry `shard` holds for read `r` under a generation
        // in `gens` against the model, and counts them.
        let check_cache = |shard: usize, r: usize, gens: std::ops::RangeInclusive<u64>| {
            let mut found = 0;
            for g in gens {
                let lookup = Lookup::new(g, &reads[r]);
                if let Some(body) = state.shards[shard].responses.get(lookup.parts()) {
                    found += 1;
                    assert_eq!(
                        (200, body.as_ref().clone()),
                        answers[g as usize][r],
                        "shard {shard} cached a foreign {} answer under generation {g}",
                        reads[r].path
                    );
                }
            }
            found
        };
        // One past the generation each reader last started a request at.
        let started: Vec<AtomicU64> = (0..SHARDS).map(|_| AtomicU64::new(0)).collect();
        let done = AtomicBool::new(false);
        let ingested = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..SHARDS)
                .map(|shard| {
                    let (state, reads, answers) = (&state, &reads, &answers);
                    let (started, done, check_cache) = (&started, &done, &check_cache);
                    scope.spawn(move || {
                        let responses = &state.shards[shard].responses;
                        // The read whose miss the shard's one remembered
                        // miss is: an answer computed on a miss is stored
                        // only if its read is that one.
                        let mut remembered = None;
                        let mut i = shard;
                        while !done.load(Ordering::SeqCst) {
                            let r = i % reads.len();
                            for _ in 0..2 {
                                let before = state.generation();
                                started[shard].store(before + 1, Ordering::SeqCst);
                                let (hits, _) = responses.counters();
                                let answer = handle_on(state, shard, &reads[r]);
                                let hit = responses.counters().0 > hits;
                                let after = state.generation();
                                assert!(
                                    (before..=after).any(|g| answers[g as usize][r] == answer),
                                    "shard {shard} answered {} between generations {before} \
                                     and {after} with {answer:?}",
                                    reads[r].path
                                );
                                // The one-entry cache holds this read's
                                // answer, under the generation it read, iff
                                // the read hit or stored it.
                                let computed = answer.0 == 200 && !hit;
                                let stored = hit || (computed && remembered == Some(r));
                                if computed {
                                    remembered = Some(r);
                                }
                                let held = check_cache(shard, r, before..=after);
                                assert_eq!(held, usize::from(stored));
                            }
                            i += 1;
                        }
                    })
                })
                .collect();
            // Before each ingest, every reader starts a request at the
            // current generation, so each one races the next publish.
            let wait_for_readers = || {
                let g = state.generation();
                while started.iter().any(|s| s.load(Ordering::SeqCst) <= g)
                    && !readers.iter().any(|r| r.is_finished())
                {
                    std::thread::yield_now();
                }
            };
            let mut ingested = Vec::new();
            for (b, req) in ingests.iter().enumerate() {
                wait_for_readers();
                ingested.push(handle_on(&state, b % SHARDS, req));
            }
            wait_for_readers();
            done.store(true, Ordering::SeqCst);
            ingested
        });
        for (s, resp) in ingested {
            assert_eq!(s, 200, "{resp}");
        }
        assert_eq!(state.generation(), K as u64);
        for shard in 0..SHARDS {
            for r in 0..reads.len() {
                check_cache(shard, r, 0..=K as u64);
            }
        }
    }

    #[test]
    fn endpoints_and_errors() {
        let state = test_state();
        let (s, body) = handle(&state, &request("GET", "/healthz", ""));
        assert_eq!(s, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");

        let (s, body) = handle(&state, &request("GET", "/corpus", ""));
        assert_eq!(s, 200);
        assert!(body.contains("TPC-C"), "{body}");

        let (s, _) = handle(&state, &request("GET", "/stats", ""));
        assert_eq!(s, 200);

        let (s, body) = handle(&state, &request("POST", "/similar", "{not json"));
        assert_eq!(s, 400);
        assert!(body.contains("error"), "{body}");

        let (s, _) = handle(&state, &request("POST", "/similar", "{\"runs\":[]}"));
        assert_eq!(s, 400);

        let (s, _) = handle(&state, &request("GET", "/similar", ""));
        assert_eq!(s, 405);
        let (s, _) = handle(&state, &request("POST", "/healthz", ""));
        assert_eq!(s, 405);
        let (s, _) = handle(&state, &request("GET", "/nope", ""));
        assert_eq!(s, 404);
    }

    /// Every endpoint that takes runs holds them to the one per-run
    /// check, whichever decoder read them: a run with 21 plan columns is
    /// the 400 on each read that it is on `/ingest`, and a corpus whose
    /// run has 6 resource columns is a 400 on `POST /corpus`.
    #[test]
    fn runs_of_the_wrong_shape_are_a_400_on_every_endpoint() {
        let state = test_state();
        let mut sim = Simulator::new(5);
        sim.config.samples = 40;
        let mut runs: Vec<ExperimentRun> = (0..2)
            .map(|r| sim.simulate(&benchmarks::ycsb(), &Sku::new("cpu2", 2, 64.0), 8, r, r % 3))
            .collect();
        let first_21: Vec<usize> = (0..21).collect();
        runs[0].plans.data = runs[0].plans.data.select_cols(&first_21);
        let runs: Vec<Json> = runs.iter().map(wp_telemetry::io::run_to_json).collect();
        let typed = obj! { "runs" => runs }.compact();
        // A repeated key sends the body to the tree decode, which keeps
        // the first.
        let tree = typed.replacen("{\"key\":", "{\"throughput\":1,\"key\":", 1);
        assert_ne!(tree, typed);
        let answer = "{\"error\":\"run 0: plan statistics must have 22 columns, got 21\"}";
        for body in [&typed, &tree] {
            for (path, prefix) in [
                ("/fingerprint", ""),
                ("/similar", ""),
                ("/similar", "\"mode\":\"indexed\","),
                ("/predict", ""),
                ("/recommend", "\"slo\":100,"),
                ("/ingest", "\"tenant\":\"t\","),
            ] {
                let body = body.replacen('{', &format!("{{{prefix}"), 1);
                let (s, resp) = handle(&state, &request("POST", path, &body));
                assert_eq!((s, resp.as_str()), (400, answer), "{path} {prefix}");
            }
        }

        let mut corpus = crate::corpus::simulated_corpus(0xEDB7_2025, 40);
        let run = &mut Arc::make_mut(&mut corpus.references[1]).runs_to[2];
        run.resources.data = run.resources.data.select_cols(&[0, 1, 2, 3, 4, 5]);
        let document = crate::corpus::corpus_to_json(&corpus);
        let (s, resp) = handle(&state, &request("POST", "/corpus", &document));
        assert_eq!(s, 400, "{resp}");
        assert_eq!(
            resp,
            "{\"error\":\"TPC-H: runs_to[2]: resource series must have 7 columns, got 6\"}"
        );
    }

    #[test]
    fn fingerprint_and_predict_succeed() {
        let state = test_state();
        let body = target_body(5);

        let (s, resp) = handle(&state, &request("POST", "/fingerprint", &body));
        assert_eq!(s, 200, "{resp}");
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(
            doc.get("representation").and_then(Json::as_str),
            Some("Hist-FP")
        );
        let fps = doc.get("fingerprints").and_then(Json::as_arr).unwrap();
        assert_eq!(fps.len(), 2);
        assert_eq!(
            fps[0].get("rows").and_then(Json::as_usize),
            Some(state.config.nbins)
        );

        // phase representation
        let phase_body = body.replacen('{', "{\"representation\":\"phase\",", 1);
        let (s, resp) = handle(&state, &request("POST", "/fingerprint", &phase_body));
        assert_eq!(s, 200, "{resp}");

        let (s, resp) = handle(&state, &request("POST", "/predict", &body));
        assert_eq!(s, 200, "{resp}");
        let doc = Json::parse(&resp).unwrap();
        let observed = doc
            .get("observed_throughput")
            .and_then(Json::as_f64)
            .unwrap();
        let predicted = doc
            .get("predicted_throughput")
            .and_then(Json::as_f64)
            .unwrap();
        assert!(observed > 0.0);
        assert!(
            predicted > observed,
            "scaling 2 -> 8 CPUs must predict more than observed ({predicted} vs {observed})"
        );

        // bad SKU labels are a client error
        let bad = body.replacen('{', "{\"from_cpus\":-1,", 1);
        let (s, _) = handle(&state, &request("POST", "/predict", &bad));
        assert_eq!(s, 400);
    }

    fn recommend_body(state_seed: u64, slo: f64) -> String {
        target_body(state_seed).replacen('{', &format!("{{\"slo\":{slo},"), 1)
    }

    #[test]
    fn recommend_picks_the_cheapest_slo_meeting_sku_with_cis() {
        let state = test_state();

        // A trivially low SLO is met in place: the cheapest SKU wins.
        let (s, resp) = handle(
            &state,
            &request("POST", "/recommend", &recommend_body(5, 1.0)),
        );
        assert_eq!(s, 200, "{resp}");
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(doc.get("recommended").and_then(Json::as_str), Some("cpu2"));
        assert_eq!(doc.get("source").and_then(Json::as_str), Some("inline"));
        // 4- and 16-CPU SKUs are outside the corpus pair: mixed context.
        assert_eq!(
            doc.get("context").and_then(Json::as_str),
            Some("pairwise+single"),
            "{resp}"
        );
        let candidates = doc.get("candidates").and_then(Json::as_arr).unwrap();
        assert_eq!(candidates.len(), 4);
        let context_of = |name: &str| {
            candidates
                .iter()
                .find(|c| c.get("sku").and_then(Json::as_str) == Some(name))
                .and_then(|c| c.get("context"))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        assert_eq!(context_of("cpu2").as_deref(), Some("pairwise"));
        assert_eq!(context_of("cpu8").as_deref(), Some("pairwise"));
        assert_eq!(context_of("cpu4").as_deref(), Some("single"));
        assert_eq!(context_of("cpu16").as_deref(), Some("single"));

        // Ladder sanity: predictions positive, CI brackets the point, and
        // the identity transfer returns the observed throughput on cpu2.
        let observed = doc
            .get("observed_throughput")
            .and_then(Json::as_f64)
            .unwrap();
        for c in candidates {
            let p = c
                .get("predicted_throughput")
                .and_then(Json::as_f64)
                .unwrap();
            let lo = c.get("ci_lower").and_then(Json::as_f64).unwrap();
            let hi = c.get("ci_upper").and_then(Json::as_f64).unwrap();
            assert!(p > 0.0, "{resp}");
            assert!(lo <= p && p <= hi, "{resp}");
            assert!(
                c.get("predicted_latency_ms")
                    .and_then(Json::as_f64)
                    .unwrap()
                    > 0.0,
                "{resp}"
            );
            if c.get("sku").and_then(Json::as_str) == Some("cpu2") {
                assert_eq!(p.to_bits(), observed.to_bits(), "{resp}");
            }
        }

        // An SLO between cpu2's and the ladder-max prediction forces an
        // upgrade: the recommendation is the *first* (cheapest) candidate
        // that meets it, and cheaper candidates all miss it.
        let preds: Vec<(String, f64)> = candidates
            .iter()
            .map(|c| {
                (
                    c.get("sku").and_then(Json::as_str).unwrap().to_string(),
                    c.get("predicted_throughput")
                        .and_then(Json::as_f64)
                        .unwrap(),
                )
            })
            .collect();
        let max_pred = preds.iter().map(|(_, p)| *p).fold(f64::MIN, f64::max);
        let slo = observed + (max_pred - observed) * 0.5;
        assert!(slo > observed, "ladder must predict speedup somewhere");
        let (s, resp) = handle(
            &state,
            &request("POST", "/recommend", &recommend_body(5, slo)),
        );
        assert_eq!(s, 200, "{resp}");
        let doc = Json::parse(&resp).unwrap();
        let pick = doc.get("recommended").and_then(Json::as_str).unwrap();
        assert_ne!(pick, "cpu2", "{resp}");
        let expected = preds
            .iter()
            .find(|(_, p)| *p >= slo)
            .map(|(n, _)| n.as_str())
            .unwrap();
        assert_eq!(pick, expected, "{resp}");

        // An impossible SLO recommends nothing.
        let (s, resp) = handle(
            &state,
            &request("POST", "/recommend", &recommend_body(5, max_pred * 100.0)),
        );
        assert_eq!(s, 200, "{resp}");
        let doc = Json::parse(&resp).unwrap();
        assert!(matches!(doc.get("recommended"), Some(Json::Null)), "{resp}");
    }

    #[test]
    fn recommend_validates_inputs() {
        let state = test_state();
        let runs_only = target_body(5);
        let cases: Vec<(String, &str)> = vec![
            (runs_only.clone(), "missing slo"),
            (runs_only.replacen('{', "{\"slo\":-3,", 1), "negative slo"),
            (runs_only.replacen('{', "{\"slo\":0,", 1), "zero slo"),
            (
                runs_only.replacen('{', "{\"slo\":\"fast\",", 1),
                "non-numeric slo",
            ),
            (
                runs_only.replacen('{', "{\"slo\":1e999,", 1),
                "infinite slo",
            ),
            (
                recommend_body(5, 10.0).replacen('{', "{\"observed_cpus\":0,", 1),
                "zero observed_cpus",
            ),
            (
                recommend_body(5, 10.0).replacen('{', "{\"tenant\":\"t\",", 1),
                "both runs and tenant",
            ),
            ("{\"slo\":10}".to_string(), "neither runs nor tenant"),
            (
                "{\"slo\":10,\"tenant\":\"ghost\"}".to_string(),
                "unknown tenant",
            ),
            ("{\"slo\":10,\"tenant\":7}".to_string(), "non-string tenant"),
            ("{\"slo\":10,\"runs\":[]}".to_string(), "empty runs"),
            ("{not json".to_string(), "malformed JSON"),
        ];
        for (body, label) in cases {
            let (s, resp) = handle(&state, &request("POST", "/recommend", &body));
            assert_eq!(s, 400, "{label}: {resp}");
            assert!(resp.contains("error"), "{label}: {resp}");
        }
        // Inline runs are decoded from the tree the handler parsed once;
        // the error bodies are the ones a second parse of the body gave.
        let exact = [
            ("{\"slo\":10,\"runs\":7}", "body needs a 'runs' array"),
            ("{\"slo\":10,\"runs\":[]}", "'runs' must not be empty"),
            (
                "{\"slo\":10,\"runs\":[{\"key\":{}}]}",
                "runs[0]: missing field 'resources'",
            ),
        ];
        for (body, error) in exact {
            let expected = format!("{{\"error\":\"{error}\"}}");
            assert_eq!(
                handle(&state, &request("POST", "/recommend", body)),
                (400, expected)
            );
        }
        let (s, _) = handle(&state, &request("GET", "/recommend", ""));
        assert_eq!(s, 405);
    }

    /// A `"tenant"` recommendation reads the live window, and an ingest
    /// that grows the window must invalidate the cached answer — the
    /// generation-prefixed key turns the post-ingest request into a miss.
    #[test]
    fn recommend_by_tenant_is_not_served_stale_across_ingest() {
        let state = test_state();
        let req = request("POST", "/recommend", "{\"slo\":5,\"tenant\":\"t-ycsb\"}");

        // Unknown until the tenant streams in.
        let (s, resp) = handle(&state, &req);
        assert_eq!(s, 400, "{resp}");

        let (s, resp) = handle(
            &state,
            &request("POST", "/ingest", &ingest_body("t-ycsb", "YCSB", 0, 2)),
        );
        assert_eq!(s, 200, "{resp}");

        let (s, before) = handle(&state, &req);
        assert_eq!(s, 200, "{before}");
        let doc = Json::parse(&before).unwrap();
        assert_eq!(
            doc.get("source").and_then(Json::as_str),
            Some("tenant:t-ycsb"),
            "{before}"
        );
        // The second ask stores the answer; the warm one after it gets
        // identical bytes, served by the cache.
        let (s, stored) = handle(&state, &req);
        assert_eq!(s, 200);
        assert_eq!(before, stored);
        let (_, misses_before) = state.response_cache_counters();
        let (s, warm) = handle(&state, &req);
        assert_eq!(s, 200);
        assert_eq!(before, warm);
        let (hits, misses) = state.response_cache_counters();
        assert!(hits >= 1);
        assert_eq!(misses, misses_before, "warm request must not recompute");

        // Grow the window; the same request bytes must be recomputed
        // against the new telemetry, not replayed from the cache.
        let (s, resp) = handle(
            &state,
            &request("POST", "/ingest", &ingest_body("t-ycsb", "YCSB", 2, 2)),
        );
        assert_eq!(s, 200, "{resp}");
        let (s, after) = handle(&state, &req);
        assert_eq!(s, 200, "{after}");
        let (_, misses_after) = state.response_cache_counters();
        assert!(
            misses_after > misses,
            "post-ingest recommendation served stale from the cache"
        );
        assert_ne!(
            before, after,
            "a doubled window must move the observed operating point"
        );
    }
}
