//! `wp-loadgen` — the load engine behind `wp loadgen`, `wp chaos` and
//! `wp stream`.
//!
//! Every request goes through one client, and every closed-loop request
//! through one worker. The client keeps a connection's keep-alive
//! socket: it opens (and reopens) it, sends, reads the full response,
//! classifies the attempt and retries transient failures. A worker runs
//! one connection of a closed loop: it draws each request from a seeded
//! weighted mix, hands it to its client and tallies the outcome until
//! its stop rule — a deadline after a warmup, or a request count — says
//! done. Handed expected answers, it has the client check each response
//! against them. The modes are front ends over these two:
//!
//! - [`run_load`], the closed loop: `connections` workers each keep one
//!   request in flight, for a warmup plus a measurement window or for a
//!   fixed request count;
//! - [`run_steps`], the stepped ramp: one closed-loop run per connection
//!   count, every response compared byte for byte with a prefetched
//!   answer;
//! - [`run_stream`], the streamer: one client posts multi-tenant
//!   `/ingest` batches in order at a paced rate. Its loop stays its own:
//!   a fixed sequence paced against a clock shares neither the draws nor
//!   the stop rules of the closed loop, so folding it into the worker
//!   would only add fields that the streamer alone sets.
//!
//! Each connection draws its mix from its own seeded [`Rng64`] stream,
//! so the request *sequence* per connection is deterministic even though
//! wall-clock timing is not. A timed run discards the latencies of the
//! requests that start during its warmup (caches fill, branch predictors
//! settle); every failed request counts, warmup included. One function,
//! nearest-rank over the sorted sample, gives every report its
//! p50/p95/p99/max.
//!
//! # Resilience
//!
//! The client is built to survive a faulty server (see `wp-faults`):
//! every request runs under a read timeout, every failed attempt is
//! classified into an error taxonomy ([`ErrorClass`]), and transient
//! failures — a refused connect included — are retried up to
//! [`LoadConfig::retries`] times with deterministic exponential backoff
//! (jitter comes from a *separate* seeded stream so retry timing never
//! shifts the request-mix draws). A transient failure is backed off
//! even when the budget is spent, so a server that refuses or drops
//! connections is never hammered. [`LoadConfig::requests_per_connection`]
//! switches the run from time-bounded phases to a fixed request count,
//! which makes the taxonomy a deterministic function of
//! `(seed, fault plan)` for single-connection runs — the property the
//! chaos suite asserts.

#![warn(missing_docs)]

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use wp_json::{obj, Json};
use wp_linalg::Rng64;
use wp_telemetry::io::run_to_json;
use wp_workloads::engine::Simulator;
use wp_workloads::{benchmarks, Sku};

/// One weighted request template in the generated mix.
#[derive(Debug, Clone)]
pub struct MixEntry {
    /// HTTP method (`GET` or `POST`).
    pub method: &'static str,
    /// Request path, e.g. `/similar`.
    pub path: &'static str,
    /// Request body (empty for `GET`).
    pub body: String,
    /// Relative draw weight (integer lottery tickets).
    pub weight: u32,
}

/// How a closed-loop run connects, paces, and seeds itself. [`run_steps`]
/// runs it once per step, with the step's connection count.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:8080`.
    pub addr: String,
    /// Concurrent closed-loop connections (threads).
    pub connections: usize,
    /// Warmup phase; latencies are discarded. Ignored in fixed-request
    /// mode.
    pub warmup: Duration,
    /// Measurement phase; latencies feed the report. Ignored in
    /// fixed-request mode.
    pub measure: Duration,
    /// Seed for the per-connection request-mix streams.
    pub seed: u64,
    /// Per-request read timeout; an attempt exceeding it is classified
    /// [`ErrorClass::Timeout`].
    pub timeout: Duration,
    /// Retry budget per logical request: a retryable failure (reset,
    /// timeout, malformed response, 5xx) is retried up to this many
    /// times with exponential backoff before counting as an error.
    pub retries: u32,
    /// When set, each connection issues exactly this many logical
    /// requests instead of running the warmup/measure clock. Used by
    /// chaos runs, where the deterministic request count (not wall
    /// time) is what makes the error taxonomy reproducible.
    pub requests_per_connection: Option<u64>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".to_string(),
            connections: 4,
            warmup: Duration::from_secs(1),
            measure: Duration::from_secs(2),
            seed: 42,
            timeout: Duration::from_secs(30),
            retries: 3,
            requests_per_connection: None,
        }
    }
}

/// Classification of one failed request attempt.
///
/// Resets, timeouts, malformed responses and 5xx are transient and
/// retryable: resets and timeouts are classic network weather, a
/// malformed (truncated / garbled) response means the bytes on the wire
/// can't be trusted, and a 5xx is the server asking for a retry
/// (`wp-server`'s injected `503` even says `Retry-After: 0`). A 4xx
/// means the request itself is wrong, and a wrong answer to a request
/// with a known answer is a server bug; retrying cannot help either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Connection refused / reset / broken mid-request.
    Reset,
    /// The read timeout elapsed before a full response arrived.
    Timeout,
    /// The server answered 5xx.
    ServerError,
    /// The server answered 4xx — the request is at fault; not retried.
    ClientError,
    /// The response violated HTTP framing (truncated, bad status line,
    /// bad `Content-Length`, non-UTF-8 body).
    Malformed,
    /// The server answered 2xx with other bytes than the request's
    /// expected answer; not retried. Only runs that know the answers
    /// ([`run_steps`]) can see it.
    Mismatch,
}

impl ErrorClass {
    /// Whether a retry can plausibly succeed.
    pub fn retryable(self) -> bool {
        !matches!(self, ErrorClass::ClientError | ErrorClass::Mismatch)
    }

    /// Whether a whole, well-framed response arrived: the connection is
    /// still in step and stays open, and the server answered — wrongly.
    fn answered(self) -> bool {
        matches!(
            self,
            ErrorClass::ServerError | ErrorClass::ClientError | ErrorClass::Mismatch
        )
    }

    /// Stable lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ErrorClass::Reset => "reset",
            ErrorClass::Timeout => "timeout",
            ErrorClass::ServerError => "server_error",
            ErrorClass::ClientError => "client_error",
            ErrorClass::Malformed => "malformed",
            ErrorClass::Mismatch => "mismatch",
        }
    }
}

/// One failed attempt: its class, and the I/O error behind it when
/// there is one, so a message can say why a connect or a read failed.
#[derive(Debug)]
pub struct Failure {
    /// What the taxonomy counts.
    pub class: ErrorClass,
    /// The socket error, such as a refused connect.
    pub cause: Option<std::io::Error>,
}

impl Failure {
    fn io(class: ErrorClass, cause: std::io::Error) -> Self {
        Self {
            class,
            cause: Some(cause),
        }
    }
}

impl From<ErrorClass> for Failure {
    fn from(class: ErrorClass) -> Self {
        Self { class, cause: None }
    }
}

/// The class's label, then the socket error if there is one:
/// `reset (Connection refused (os error 111))`.
impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.class.label())?;
        match &self.cause {
            Some(cause) => write!(f, " ({cause})"),
            None => Ok(()),
        }
    }
}

/// Per-class failure counters plus retry accounting for one run.
///
/// `resets + timeouts + server_errors + client_errors + malformed +
/// mismatches` counts failed *attempts*; `retries` counts extra attempts
/// made; `recovered` counts logical requests that failed at least once
/// and then succeeded within the retry budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Taxonomy {
    /// Attempts that ended in a connection reset / refusal.
    pub resets: u64,
    /// Attempts that exceeded the read timeout.
    pub timeouts: u64,
    /// Attempts answered with a 5xx status.
    pub server_errors: u64,
    /// Attempts answered with a 4xx status (not retried).
    pub client_errors: u64,
    /// Attempts whose response violated HTTP framing.
    pub malformed: u64,
    /// Attempts answered 2xx with bytes other than the expected answer.
    pub mismatches: u64,
    /// Retry attempts performed (attempts beyond each request's first).
    pub retries: u64,
    /// Logical requests that succeeded after at least one failure.
    pub recovered: u64,
}

impl Taxonomy {
    /// `true` when no fault of any kind was observed (the legacy
    /// clean-run case; [`Report::to_json`] keys off this).
    pub fn is_clean(&self) -> bool {
        *self == Taxonomy::default()
    }

    /// Total failed attempts across all classes.
    pub fn failed_attempts(&self) -> u64 {
        self.resets
            + self.timeouts
            + self.server_errors
            + self.client_errors
            + self.malformed
            + self.mismatches
    }

    fn count(&mut self, class: ErrorClass) {
        match class {
            ErrorClass::Reset => self.resets += 1,
            ErrorClass::Timeout => self.timeouts += 1,
            ErrorClass::ServerError => self.server_errors += 1,
            ErrorClass::ClientError => self.client_errors += 1,
            ErrorClass::Malformed => self.malformed += 1,
            ErrorClass::Mismatch => self.mismatches += 1,
        }
    }

    fn merge(&mut self, other: &Taxonomy) {
        self.resets += other.resets;
        self.timeouts += other.timeouts;
        self.server_errors += other.server_errors;
        self.client_errors += other.client_errors;
        self.malformed += other.malformed;
        self.mismatches += other.mismatches;
        self.retries += other.retries;
        self.recovered += other.recovered;
    }
}

/// Aggregated result of one load run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Connections the run used.
    pub connections: usize,
    /// Configured warmup length in seconds.
    pub warmup_s: f64,
    /// Configured measurement length in seconds (actual elapsed time in
    /// fixed-request mode).
    pub measure_s: f64,
    /// Requests completed during the measurement phase.
    pub requests: u64,
    /// Logical requests that failed (no 2xx within the retry budget).
    pub errors: u64,
    /// Measured requests divided by the measurement wall time.
    pub throughput_rps: f64,
    /// Median latency, milliseconds (nearest rank).
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds (nearest rank).
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds (nearest rank).
    pub p99_ms: f64,
    /// Worst measured latency, milliseconds.
    pub max_ms: f64,
    /// Failure classification and retry accounting.
    pub taxonomy: Taxonomy,
}

impl Report {
    /// Renders the report in the `BENCH_runtime.json` flat-object shape.
    ///
    /// A clean run (no failed attempt, no retry) emits exactly the key
    /// set this report always had, byte-for-byte — so fault-free
    /// `BENCH_server.json` files are unchanged by the resilience work.
    /// Any observed fault appends the taxonomy counters.
    pub fn to_json(&self) -> String {
        let mut doc = obj! {
            "experiment" => "server_loadgen",
            "connections" => self.connections as f64,
            "warmup_s" => self.warmup_s,
            "measure_s" => self.measure_s,
            "requests" => self.requests as f64,
            "errors" => self.errors as f64,
            "throughput_rps" => self.throughput_rps,
            "p50_ms" => self.p50_ms,
            "p95_ms" => self.p95_ms,
            "p99_ms" => self.p99_ms,
            "max_ms" => self.max_ms,
        };
        if !self.taxonomy.is_clean() {
            if let Json::Obj(pairs) = &mut doc {
                let t = &self.taxonomy;
                for (key, value) in [
                    ("resets", t.resets),
                    ("timeouts", t.timeouts),
                    ("server_errors", t.server_errors),
                    ("client_errors", t.client_errors),
                    ("malformed", t.malformed),
                    ("retries", t.retries),
                    ("recovered", t.recovered),
                ] {
                    pairs.push((key.to_string(), Json::from(value as f64)));
                }
            }
        }
        doc.pretty()
    }

    /// Renders only the timing-free counters: requests, errors, and the
    /// taxonomy. For a fixed-request single-connection run these are a
    /// pure function of `(seed, fault plan)` — two identical chaos runs
    /// produce byte-identical output. Written to `BENCH_chaos.json`.
    pub fn taxonomy_json(&self) -> String {
        let t = &self.taxonomy;
        obj! {
            "experiment" => "server_chaos",
            "connections" => self.connections as f64,
            "requests" => self.requests as f64,
            "errors" => self.errors as f64,
            "resets" => t.resets as f64,
            "timeouts" => t.timeouts as f64,
            "server_errors" => t.server_errors as f64,
            "client_errors" => t.client_errors as f64,
            "malformed" => t.malformed as f64,
            "retries" => t.retries as f64,
            "recovered" => t.recovered as f64,
        }
        .pretty()
    }
}

/// The default request mix: every endpoint of the service, weighted
/// towards the compute-bearing `POST`s. Bodies carry `samples`-long
/// simulated YCSB target runs (two per body) drawn from `seed`, in the
/// `wp_telemetry::io` interchange schema.
pub fn default_mix(seed: u64, samples: usize) -> Vec<MixEntry> {
    let mut sim = Simulator::new(seed);
    sim.config.samples = samples;
    let spec = benchmarks::ycsb();
    let sku = Sku::new("cpu2", 2, 64.0);
    let runs: Vec<Json> = (0..2)
        .map(|r| run_to_json(&sim.simulate(&spec, &sku, 8, r, r % 3)))
        .collect();
    let runs_body = obj! { "runs" => runs.clone() }.compact();
    let predict_body = obj! {
        "runs" => runs,
        "from_cpus" => 2.0,
        "to_cpus" => 8.0,
    }
    .compact();
    vec![
        MixEntry {
            method: "GET",
            path: "/healthz",
            body: String::new(),
            weight: 1,
        },
        MixEntry {
            method: "GET",
            path: "/corpus",
            body: String::new(),
            weight: 1,
        },
        MixEntry {
            method: "GET",
            path: "/stats",
            body: String::new(),
            weight: 1,
        },
        MixEntry {
            method: "POST",
            path: "/fingerprint",
            body: runs_body.clone(),
            weight: 3,
        },
        MixEntry {
            method: "POST",
            path: "/similar",
            body: runs_body,
            weight: 3,
        },
        MixEntry {
            method: "POST",
            path: "/predict",
            body: predict_body,
            weight: 3,
        },
    ]
}

/// Runs the closed loop against `config.addr` and aggregates a
/// [`Report`]. Fails only on setup errors (no connection can be
/// established, empty mix); per-request failures are counted in
/// `Report::errors` and classified in `Report::taxonomy`.
pub fn run_load(config: &LoadConfig, mix: &[MixEntry]) -> Result<Report, String> {
    // Fail fast before spawning if the server is not there at all. The
    // connection is the first worker's, so the server counts only the
    // run's own connections.
    let first = Connection::open(&config.addr, config.timeout).map_err(|failure| {
        let cause = failure.cause.map(|e| e.to_string()).unwrap_or_default();
        format!("cannot connect to {}: {cause}", config.addr)
    })?;
    let (tally, measure_s) = closed_loop(config, mix, None, Some(first))?;
    let requests = tally.latencies.len() as u64;
    let [p50_ms, p95_ms, p99_ms, max_ms] = latency_ms(&tally.latencies);
    Ok(Report {
        connections: config.connections.max(1),
        warmup_s: config.warmup.as_secs_f64(),
        measure_s,
        requests,
        errors: tally.errors,
        throughput_rps: per_second(requests, measure_s),
        p50_ms,
        p95_ms,
        p99_ms,
        max_ms,
        taxonomy: tally.taxonomy,
    })
}

/// One closed-loop run of `config`: `connections` workers drawing from
/// `mix`, connection `c` seeded `seed + c`, their responses compared
/// with `expected` when given; worker 0 starts on `first` when given.
/// Returns the merged tally and the measurement window in seconds — the
/// configured one, or the elapsed time in fixed-request mode so
/// throughput still means something.
fn closed_loop(
    config: &LoadConfig,
    mix: &[MixEntry],
    expected: Option<&[String]>,
    first: Option<Connection>,
) -> Result<(Tally, f64), String> {
    if mix.is_empty() {
        return Err("request mix is empty".to_string());
    }
    let total_weight: u32 = mix.iter().map(|e| e.weight).sum();
    if total_weight == 0 {
        return Err("request mix has zero total weight".to_string());
    }
    let start = Instant::now();
    let stop = match config.requests_per_connection {
        Some(n) => Stop::Count(n),
        None => Stop::Deadline {
            measure_from: start + config.warmup,
            end: start + config.warmup + config.measure,
        },
    };
    let work = Work {
        addr: &config.addr,
        timeout: config.timeout,
        retries: config.retries,
        mix,
        total_weight,
        stop,
        expected,
    };
    let tally = drive(&work, config.connections.max(1), config.seed, first);
    let window = match stop {
        Stop::Count(_) => start.elapsed(),
        Stop::Deadline { .. } => config.measure,
    };
    Ok((tally, window.as_secs_f64()))
}

/// Performs one standalone request on a fresh connection and returns
/// `(status, body)`. Used by health probes and the chaos harness's
/// cache-equality checks, where the response *bytes* matter.
pub fn fetch(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<(u16, String), Failure> {
    let (status, response, _) = Client::new(addr, timeout, 0, 0).exchange(method, path, body)?;
    Ok((status, response))
}

/// Nearest-rank p50, p95, p99 and max of an ascending latency sample in
/// nanoseconds, as milliseconds (all 0 if empty).
///
/// Delegates to [`wp_linalg::stats::nearest_rank`] so the load
/// generator's reports and the server's `/stats` endpoint agree on the
/// percentile convention.
fn latency_ms(sorted_ns: &[u64]) -> [f64; 4] {
    [50.0, 95.0, 99.0, 100.0].map(|p| wp_linalg::stats::nearest_rank(sorted_ns, p) as f64 / 1e6)
}

/// `count` per second over `seconds` (0 for an empty window).
fn per_second(count: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count as f64 / seconds
    } else {
        0.0
    }
}

/// Deterministic exponential backoff with seeded jitter: 5 ms doubling
/// per retry, capped at 80 ms, plus up to half the base again in
/// jitter. Small enough for tests, shaped like the real thing.
pub fn backoff_delay(retry: u32, jitter: &mut Rng64) -> Duration {
    let base_ms = (5u64 << retry.min(4)).min(80);
    Duration::from_millis(base_ms + jitter.below((base_ms / 2 + 1) as usize) as u64)
}

/// How the streamer mode replays telemetry: multi-tenant `/ingest`
/// batches paced at a target rate, in the style of a multi-channel
/// telemetry simulator (each tenant is one channel emitting its own
/// seeded workload).
#[derive(Debug, Clone)]
pub struct StreamerConfig {
    /// Server address, e.g. `127.0.0.1:8080`.
    pub addr: String,
    /// Target batch rate across all tenants, batches per second. The
    /// loop paces against absolute deadlines, so a slow request eats
    /// into the next slot instead of stretching the schedule.
    pub rate_hz: f64,
    /// Telemetry channels; tenant `i` streams as `tenant-i`.
    pub tenants: usize,
    /// Batches sent per tenant.
    pub batches: u64,
    /// Runs per batch.
    pub runs_per_batch: usize,
    /// Samples per simulated run.
    pub samples: usize,
    /// Seed for the per-tenant telemetry streams.
    pub seed: u64,
    /// When set, every tenant's stream shape-shifts to an analytics
    /// workload from this batch index on — the scripted drift scenario.
    pub shift_after: Option<u64>,
    /// Stream the scenario zoo instead of frozen benchmark mixes: tenant
    /// `i` replays `wp_workloads::zoo` scenario `i` (recurring/shifting
    /// time-evolving transaction mixes), one evolution step per batch.
    /// A `shift_after` still overrides with the TPC-H shape-shift.
    pub zoo: bool,
    /// Per-request read timeout.
    pub timeout: Duration,
}

impl Default for StreamerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".to_string(),
            rate_hz: 40.0,
            tenants: 2,
            batches: 12,
            runs_per_batch: 2,
            samples: 30,
            seed: 0xEDB7_2025,
            shift_after: None,
            zoo: false,
            timeout: Duration::from_secs(30),
        }
    }
}

/// Aggregated result of one streaming-ingest run.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Tenants (channels) that streamed.
    pub tenants: usize,
    /// Configured target batch rate.
    pub rate_hz: f64,
    /// Ingest batches sent.
    pub batches_sent: u64,
    /// Batches the server accepted (2xx).
    pub batches_accepted: u64,
    /// Batches that failed (no 2xx within the retry budget).
    pub errors: u64,
    /// Wall time of the ingest loop, seconds.
    pub elapsed_s: f64,
    /// Sustained ingest throughput: accepted batches per second.
    pub ingest_rps: f64,
    /// Median ingest latency, milliseconds (nearest rank).
    pub p50_ms: f64,
    /// 95th-percentile ingest latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile ingest latency, milliseconds.
    pub p99_ms: f64,
    /// Worst ingest latency, milliseconds.
    pub max_ms: f64,
    /// Drift events the server's stream engine recorded.
    pub drift_events: u64,
    /// Runs evicted from tenant windows.
    pub evicted_runs: u64,
    /// Corpus generation after the run (== accepted batches server-side).
    pub generation: u64,
    /// Set by harnesses that replay the run and compare drift logs
    /// byte-for-byte; `None` when no verification was attempted.
    pub deterministic: Option<bool>,
}

impl StreamReport {
    /// Renders the report in the `BENCH_runtime.json` flat-object shape
    /// (written to `BENCH_stream.json`). The `deterministic` key only
    /// appears when a verification pass ran.
    pub fn to_json(&self) -> String {
        let mut doc = obj! {
            "experiment" => "server_stream",
            "tenants" => self.tenants as f64,
            "rate_hz" => self.rate_hz,
            "batches_sent" => self.batches_sent as f64,
            "batches_accepted" => self.batches_accepted as f64,
            "errors" => self.errors as f64,
            "elapsed_s" => self.elapsed_s,
            "ingest_rps" => self.ingest_rps,
            "p50_ms" => self.p50_ms,
            "p95_ms" => self.p95_ms,
            "p99_ms" => self.p99_ms,
            "max_ms" => self.max_ms,
            "drift_events" => self.drift_events as f64,
            "evicted_runs" => self.evicted_runs as f64,
            "generation" => self.generation as f64,
        };
        if let Some(verdict) = self.deterministic {
            if let Json::Obj(pairs) = &mut doc {
                pairs.push(("deterministic".to_string(), Json::Bool(verdict)));
            }
        }
        doc.pretty()
    }
}

/// Deterministic `/ingest` bodies for one tenant: `batches` batches of
/// `runs_per_batch` simulated runs each, in the `wp_telemetry::io`
/// schema. Until `shift_after`, the tenant replays its home OLTP
/// workload (keyed by tenant index) — or, with `zoo` set, one step of
/// its `wp_workloads::zoo` scenario per batch, so the mix recurs or
/// drifts instead of freezing. From `shift_after` on, the stream
/// shape-shifts to TPC-H so the server's drift detector has a real
/// change to find. Same config → byte-identical bodies.
pub fn stream_bodies(config: &StreamerConfig, tenant: usize) -> Vec<String> {
    let mut sim = Simulator::new(
        config
            .seed
            .wrapping_add((tenant as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    sim.config.samples = config.samples;
    let sku = Sku::new("cpu2", 2, 64.0);
    let scenario = config.zoo.then(|| {
        let zoo = wp_workloads::zoo::paper_zoo(config.seed);
        zoo[tenant % zoo.len()].clone()
    });
    let mut bodies = Vec::with_capacity(config.batches as usize);
    let mut run_index = 0usize;
    for batch in 0..config.batches {
        let shifted = config.shift_after.is_some_and(|s| batch >= s);
        let (spec, terminals) = if shifted {
            (benchmarks::tpch(), 1)
        } else if let Some(scenario) = &scenario {
            (scenario.spec_at(batch as usize), 8)
        } else {
            match tenant % 3 {
                0 => (benchmarks::tpcc(), 8),
                1 => (benchmarks::twitter(), 8),
                _ => (benchmarks::ycsb(), 8),
            }
        };
        let runs: Vec<Json> = (0..config.runs_per_batch)
            .map(|_| {
                let run = sim.simulate(&spec, &sku, terminals, run_index, run_index % 3);
                run_index += 1;
                run_to_json(&run)
            })
            .collect();
        bodies.push(
            obj! {
                "tenant" => format!("tenant-{tenant}"),
                "runs" => runs,
            }
            .compact(),
        );
    }
    bodies
}

/// Replays seeded multi-tenant telemetry into `POST /ingest` at the
/// target rate, then reads the server's `/stats` stream section for the
/// drift/eviction/generation counters. Fails only on setup errors or
/// when the post-run stats probe cannot complete; rejected batches are
/// counted in `StreamReport::errors`.
pub fn run_stream(config: &StreamerConfig) -> Result<StreamReport, String> {
    if config.tenants == 0 || config.batches == 0 || config.runs_per_batch == 0 {
        return Err("streamer needs tenants, batches, and runs per batch".to_string());
    }
    let interval = Some(config.rate_hz)
        .filter(|hz| hz.is_finite() && *hz > 0.0)
        .and_then(|hz| Duration::try_from_secs_f64(1.0 / hz).ok())
        .ok_or_else(|| format!("invalid target rate: {}", config.rate_hz))?;
    let mut tenants: Vec<_> = (0..config.tenants)
        .map(|t| stream_bodies(config, t).into_iter())
        .collect();
    let mut client = Client::new(&config.addr, config.timeout, 0, config.seed);
    let mut taxonomy = Taxonomy::default();
    let mut latencies = Vec::new();
    let mut errors = 0u64;
    let start = Instant::now();
    let mut slot = start;
    // Batch-major interleave: every tenant advances one batch per round,
    // the way independent telemetry channels interleave on the wire.
    for _ in 0..config.batches {
        for bodies in &mut tenants {
            let batch = MixEntry {
                method: "POST",
                path: "/ingest",
                body: bodies.next().expect("one body per batch"),
                weight: 1,
            };
            // Absolute slots: a slow request eats into the next slot
            // instead of stretching the schedule.
            let now = Instant::now();
            if now < slot {
                std::thread::sleep(slot - now);
            }
            slot += interval;
            match client.request(&batch, None, &mut taxonomy) {
                Ok(latency) => latencies.push(latency),
                Err(_) => errors += 1,
            }
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    latencies.sort_unstable();

    let (status, stats_body) = fetch(&config.addr, "GET", "/stats", "", config.timeout)
        .map_err(|failure| format!("post-run /stats probe failed: {failure}"))?;
    if status != 200 {
        return Err(format!("post-run /stats probe answered {status}"));
    }
    let stats = Json::parse(&stats_body).map_err(|e| format!("/stats body is not JSON: {e}"))?;
    let stream = stats
        .get("stream")
        .ok_or("no stream section in /stats — server too old?")?;
    let counter =
        |key: &str| -> u64 { stream.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64 };

    let accepted = latencies.len() as u64;
    let [p50_ms, p95_ms, p99_ms, max_ms] = latency_ms(&latencies);
    Ok(StreamReport {
        tenants: config.tenants,
        rate_hz: config.rate_hz,
        batches_sent: accepted + errors,
        batches_accepted: accepted,
        errors,
        elapsed_s,
        ingest_rps: per_second(accepted, elapsed_s),
        p50_ms,
        p95_ms,
        p99_ms,
        max_ms,
        drift_events: counter("drift_events"),
        evicted_runs: counter("evicted_runs"),
        generation: counter("generation"),
        deterministic: None,
    })
}

/// One rung of the scaling curve.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Concurrent closed-loop connections during this step.
    pub connections: usize,
    /// Validated responses completed in the measurement window.
    pub requests: u64,
    /// Requests that failed without a whole response (connect, reset,
    /// timeout, broken framing).
    pub errors: u64,
    /// Responses that arrived but did not match the expected bytes
    /// (wrong status or wrong body).
    pub validation_failures: u64,
    /// Validated requests divided by the window length.
    pub throughput_rps: f64,
    /// Median latency, milliseconds (nearest rank).
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Worst measured latency, milliseconds.
    pub max_ms: f64,
}

/// The full scaling curve (written to `BENCH_scaling.json`).
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Configured warmup length in seconds.
    pub warmup_s: f64,
    /// Configured per-step measurement window in seconds.
    pub step_s: f64,
    /// One entry per configured step, in ramp order.
    pub steps: Vec<StepResult>,
}

impl StepReport {
    /// Renders the curve: a flat header plus a `steps` array in the
    /// `BENCH_runtime.json` style.
    pub fn to_json(&self) -> String {
        let steps: Vec<Json> = self
            .steps
            .iter()
            .map(|s| {
                obj! {
                    "connections" => s.connections as f64,
                    "requests" => s.requests as f64,
                    "errors" => s.errors as f64,
                    "validation_failures" => s.validation_failures as f64,
                    "throughput_rps" => s.throughput_rps,
                    "p50_ms" => s.p50_ms,
                    "p95_ms" => s.p95_ms,
                    "p99_ms" => s.p99_ms,
                    "max_ms" => s.max_ms,
                }
            })
            .collect();
        obj! {
            "experiment" => "server_scaling",
            "warmup_s" => self.warmup_s,
            "step_s" => self.step_s,
            "steps" => Json::Arr(steps),
        }
        .pretty()
    }
}

/// The byte-validatable request mix: [`default_mix`] minus `/stats`,
/// whose body changes with every request served and so can never match
/// a prefetched answer.
pub fn validated_mix(seed: u64, samples: usize) -> Vec<MixEntry> {
    default_mix(seed, samples)
        .into_iter()
        .filter(|e| e.path != "/stats")
        .collect()
}

/// Runs the stepped-load ramp against `config.addr`: one closed-loop
/// run of `config` per entry of `steps`, with that many connections.
/// Only the first step warms up; every step measures for
/// `config.measure`. `config.retries` and
/// `config.requests_per_connection` are ignored: every step runs for its
/// window, and a fault-free ramp counts every failure on its first
/// attempt.
///
/// Before the ramp, every entry of `mix` (a byte-validatable mix such as
/// [`validated_mix`]) is probed once and its response stored: handlers
/// are deterministic functions of the request body and the corpus
/// generation, and the mix never ingests, so one probe pins the full
/// expected byte set. During the ramp every response is compared
/// against it — a mismatch counts as a validation failure, not a
/// request.
pub fn run_steps(
    config: &LoadConfig,
    steps: &[usize],
    mix: &[MixEntry],
) -> Result<StepReport, String> {
    let max_conns = *steps.iter().max().ok_or("step schedule is empty")?;
    // One fd per connection plus headroom for the process's own files.
    wp_reactor::raise_nofile_limit(max_conns as u64 * 2 + 256);

    let mut expected: Vec<String> = Vec::with_capacity(mix.len());
    for entry in mix {
        let (status, body) = fetch(
            &config.addr,
            entry.method,
            entry.path,
            &entry.body,
            config.timeout,
        )
        .map_err(|failure| format!("prefetch {} failed: {failure}", entry.path))?;
        if status != 200 {
            return Err(format!("prefetch {} answered {status}", entry.path));
        }
        expected.push(body);
    }

    let mut results = Vec::with_capacity(steps.len());
    for (index, &connections) in steps.iter().enumerate() {
        let step = LoadConfig {
            connections,
            warmup: if index == 0 {
                config.warmup
            } else {
                Duration::ZERO
            },
            // Distinct per-(step, connection) mix streams.
            seed: config.seed.wrapping_add((index as u64) << 32),
            retries: 0,
            requests_per_connection: None,
            ..config.clone()
        };
        let (tally, window_s) = closed_loop(&step, mix, Some(&expected), None)?;
        // With no retries each failed request is one failed attempt: those
        // that got a whole response got the wrong answer rather than none.
        let t = &tally.taxonomy;
        let validation_failures = t.server_errors + t.client_errors + t.mismatches;
        let requests = tally.latencies.len() as u64;
        let [p50_ms, p95_ms, p99_ms, max_ms] = latency_ms(&tally.latencies);
        results.push(StepResult {
            connections: connections.max(1),
            requests,
            errors: tally.errors - validation_failures,
            validation_failures,
            throughput_rps: per_second(requests, window_s),
            p50_ms,
            p95_ms,
            p99_ms,
            max_ms,
        });
    }
    Ok(StepReport {
        warmup_s: config.warmup.as_secs_f64(),
        step_s: config.measure.as_secs_f64(),
        steps: results,
    })
}

/// What a closed-loop worker runs: the data that tells timed, counted
/// and validated runs apart.
struct Work<'a> {
    addr: &'a str,
    timeout: Duration,
    /// Retry budget per logical request.
    retries: u32,
    /// The request templates, drawn by weight.
    mix: &'a [MixEntry],
    /// The sum of the mix's weights.
    total_weight: u32,
    /// When the worker stops.
    stop: Stop,
    /// The expected response body of each mix entry, by index.
    expected: Option<&'a [String]>,
}

/// When a worker stops.
#[derive(Clone, Copy)]
enum Stop {
    /// After this many logical requests, every one measured.
    Count(u64),
    /// At `end`; a success that started before `measure_from` is warmup,
    /// and its latency is discarded.
    Deadline { measure_from: Instant, end: Instant },
}

impl Stop {
    fn reached(self, sent: u64, now: Instant) -> bool {
        match self {
            Stop::Count(n) => sent >= n,
            Stop::Deadline { end, .. } => now >= end,
        }
    }

    fn measures(self, now: Instant) -> bool {
        match self {
            Stop::Count(_) => true,
            Stop::Deadline { measure_from, .. } => now >= measure_from,
        }
    }
}

/// What one worker — or a whole run, merged — hands back.
#[derive(Default)]
struct Tally {
    /// Latencies of the measured successes, nanoseconds.
    latencies: Vec<u64>,
    /// Logical requests that failed, in any phase.
    errors: u64,
    taxonomy: Taxonomy,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.latencies.extend(other.latencies);
        self.errors += other.errors;
        self.taxonomy.merge(&other.taxonomy);
    }
}

/// Runs `connections` workers on threads of their own, connection `c`
/// seeded `seed + c` and the first starting on `first`, and merges what
/// they hand back, latencies sorted.
fn drive(work: &Work, connections: usize, seed: u64, mut first: Option<Connection>) -> Tally {
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let conn = first.take();
                // Small stacks: a 1024-connection step would reserve
                // gigabytes at the default thread stack size.
                std::thread::Builder::new()
                    .stack_size(256 * 1024)
                    .spawn_scoped(s, move || worker(work, seed.wrapping_add(c as u64), conn))
                    .expect("spawn load worker")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or(Tally {
                    errors: 1,
                    ..Tally::default()
                })
            })
            .collect()
    });
    let mut total = Tally::default();
    for tally in tallies {
        total.merge(tally);
    }
    total.latencies.sort_unstable();
    total
}

/// One connection's closed loop, on `conn` while it lasts: draw, send
/// through the client and tally, until the stop rule says done.
fn worker(work: &Work, seed: u64, conn: Option<Connection>) -> Tally {
    let mut client = Client::new(work.addr, work.timeout, work.retries, seed);
    client.conn = conn;
    let mut draws = Rng64::new(seed);
    let mut tally = Tally::default();
    let mut sent = 0u64;
    loop {
        let now = Instant::now();
        if work.stop.reached(sent, now) {
            break;
        }
        let index = draw_index(work.mix, work.total_weight, &mut draws);
        let expected = work.expected.map(|answers| answers[index].as_str());
        match client.request(&work.mix[index], expected, &mut tally.taxonomy) {
            Ok(latency) if work.stop.measures(now) => tally.latencies.push(latency),
            Ok(_) => {}
            Err(_) => tally.errors += 1,
        }
        sent += 1;
    }
    tally
}

/// Weighted draw from the mix (integer lottery over `total_weight`),
/// returning the entry's index.
fn draw_index(mix: &[MixEntry], total_weight: u32, rng: &mut Rng64) -> usize {
    let mut ticket = rng.below(total_weight as usize) as u32;
    for (i, entry) in mix.iter().enumerate() {
        if ticket < entry.weight {
            return i;
        }
        ticket -= entry.weight;
    }
    mix.len() - 1
}

/// One connection's resilient client: it keeps one keep-alive
/// connection, opening it again after any failure that leaves its
/// stream position untrustworthy.
struct Client<'a> {
    addr: &'a str,
    timeout: Duration,
    retries: u32,
    /// A dedicated jitter stream: backoff must never advance the
    /// request-mix draws.
    jitter: Rng64,
    /// Transient failures since the last success, across requests: the
    /// backoff exponent.
    streak: u32,
    conn: Option<Connection>,
}

impl<'a> Client<'a> {
    fn new(addr: &'a str, timeout: Duration, retries: u32, seed: u64) -> Self {
        Self {
            addr,
            timeout,
            retries,
            jitter: Rng64::new(seed ^ 0x5EED_BACC_0FF5),
            streak: 0,
            conn: None,
        }
    }

    /// One logical request: up to `1 + retries` attempts. Every
    /// transient failure is backed off, the last one too, and the
    /// backoff keeps growing while the failures run on across requests:
    /// a connection never hammers a server that refuses or drops it.
    /// Returns the latency of the successful attempt, or the class of the
    /// last failed one when the budget is exhausted (or the failure is
    /// non-retryable).
    fn request(
        &mut self,
        entry: &MixEntry,
        expected: Option<&str>,
        taxonomy: &mut Taxonomy,
    ) -> Result<u64, ErrorClass> {
        let mut retry = 0;
        loop {
            let class = match self.attempt(entry, expected) {
                Ok(latency_ns) => {
                    self.streak = 0;
                    if retry > 0 {
                        taxonomy.recovered += 1;
                    }
                    return Ok(latency_ns);
                }
                Err(failure) => failure.class,
            };
            taxonomy.count(class);
            if !class.retryable() {
                return Err(class);
            }
            std::thread::sleep(backoff_delay(self.streak, &mut self.jitter));
            self.streak = self.streak.saturating_add(1);
            if retry == self.retries {
                return Err(class);
            }
            taxonomy.retries += 1;
            retry += 1;
        }
    }

    /// One attempt, classified by its status and, when the answer is
    /// known, by its body.
    fn attempt(&mut self, entry: &MixEntry, expected: Option<&str>) -> Result<u64, Failure> {
        let (status, body, latency_ns) = self.exchange(entry.method, entry.path, &entry.body)?;
        let class = match status {
            200..=299 if expected.is_none_or(|answer| answer == body) => return Ok(latency_ns),
            200..=299 => ErrorClass::Mismatch,
            500..=599 => ErrorClass::ServerError,
            400..=499 => ErrorClass::ClientError,
            _ => ErrorClass::Malformed,
        };
        if !class.answered() {
            self.conn = None;
        }
        Err(class.into())
    }

    /// Sends one request on the kept connection, opening one first if
    /// there is none, and reads the whole response: its status, its body
    /// and the time from send to last byte. A failure, or a response
    /// that closes the connection, drops it.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String, u64), Failure> {
        let result = (|| {
            let conn = match self.conn.as_mut() {
                Some(c) => c,
                None => self.conn.insert(Connection::open(self.addr, self.timeout)?),
            };
            let started = Instant::now();
            conn.send(method, path, body)?;
            let (status, keep_alive, response) = conn.read_response()?;
            let elapsed_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            Ok((status, keep_alive, response, elapsed_ns))
        })();
        match result {
            Ok((status, keep_alive, response, elapsed_ns)) => {
                if !keep_alive {
                    self.conn = None;
                }
                Ok((status, response, elapsed_ns))
            }
            Err(failure) => {
                self.conn = None;
                Err(failure)
            }
        }
    }
}

/// One keep-alive client connection with buffered reader/writer halves.
struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Connection {
    /// Connects; a refusal, or any other failure to set the socket up,
    /// is an [`ErrorClass::Reset`].
    fn open(addr: &str, timeout: Duration) -> Result<Self, Failure> {
        let reset = |e| Failure::io(ErrorClass::Reset, e);
        let stream = TcpStream::connect(addr).map_err(reset)?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(timeout));
        let reader = BufReader::new(stream.try_clone().map_err(reset)?);
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Writes one request; classifies write failures as [`ErrorClass::Reset`].
    fn send(&mut self, method: &str, path: &str, body: &str) -> Result<(), Failure> {
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len(),
        )
        .and_then(|()| self.writer.flush())
        .map_err(|e| Failure::io(ErrorClass::Reset, e))
    }

    /// Reads one HTTP/1.1 response (status line, headers,
    /// `Content-Length` body). Returns the status code, whether the
    /// server keeps the connection open, and the body.
    ///
    /// Failures are classified: a socket-level timeout is
    /// [`ErrorClass::Timeout`], a reset/refusal is [`ErrorClass::Reset`],
    /// and anything that breaks HTTP framing — notably a connection
    /// closed mid-response, which a truncating server produces — is
    /// [`ErrorClass::Malformed`]. (EOF and an empty header line are
    /// *different* events: `read_line` returning zero bytes is a closed
    /// socket, not a blank line.)
    fn read_response(&mut self) -> Result<(u16, bool, String), Failure> {
        let line = read_response_line(&mut self.reader)?.ok_or(ErrorClass::Reset)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or(ErrorClass::Malformed)?;

        let mut content_length = 0usize;
        let mut keep_alive = true;
        loop {
            // EOF here is a truncated response, not an empty header.
            let header = read_response_line(&mut self.reader)?.ok_or(ErrorClass::Malformed)?;
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                match name.to_ascii_lowercase().as_str() {
                    "content-length" => {
                        content_length = value.parse().map_err(|_| ErrorClass::Malformed)?;
                    }
                    "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
                    _ => {}
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).map_err(classify_io)?;
        let body = String::from_utf8(body).map_err(|_| ErrorClass::Malformed)?;
        Ok((status, keep_alive, body))
    }
}

/// Reads one line; `Ok(None)` on a clean EOF before any byte, classified
/// I/O errors otherwise.
fn read_response_line(reader: &mut BufReader<TcpStream>) -> Result<Option<String>, Failure> {
    let mut line = String::new();
    let n = reader.read_line(&mut line).map_err(classify_io)?;
    if n == 0 {
        return Ok(None);
    }
    Ok(Some(line))
}

/// Maps an I/O error to the taxonomy: timeouts are distinguishable by
/// kind, truncation surfaces as `UnexpectedEof`, everything else on an
/// established connection is treated as a reset.
fn classify_io(e: std::io::Error) -> Failure {
    use std::io::ErrorKind;
    let class = match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => ErrorClass::Timeout,
        ErrorKind::UnexpectedEof => ErrorClass::Malformed,
        _ => ErrorClass::Reset,
    };
    Failure::io(class, e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).map(|ms| ms * 1_000_000).collect();
        assert_eq!(latency_ms(&sorted), [50.0, 95.0, 99.0, 100.0]);
        assert_eq!(latency_ms(&[7_000_000]), [7.0; 4]);
        assert_eq!(latency_ms(&[]), [0.0; 4]);
    }

    #[test]
    fn stop_rules_count_requests_or_watch_the_clock() {
        let now = Instant::now();
        assert!(!Stop::Count(2).reached(1, now));
        assert!(Stop::Count(2).reached(2, now));
        assert!(Stop::Count(2).measures(now));
        let timed = Stop::Deadline {
            measure_from: now + Duration::from_secs(1),
            end: now + Duration::from_secs(3),
        };
        assert!(!timed.measures(now), "warmup latencies are discarded");
        assert!(timed.measures(now + Duration::from_secs(1)));
        assert!(!timed.reached(0, now + Duration::from_secs(2)));
        assert!(timed.reached(0, now + Duration::from_secs(3)));
    }

    #[test]
    fn default_mix_is_deterministic_and_covers_all_endpoints() {
        let a = default_mix(9, 30);
        let b = default_mix(9, 30);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.path, y.path);
            assert_eq!(x.body, y.body, "bodies must be seed-deterministic");
        }
        let posts = a.iter().filter(|e| e.method == "POST").count();
        assert_eq!(posts, 3);
        for entry in &a {
            if entry.method == "POST" {
                let doc = Json::parse(&entry.body).unwrap();
                assert!(doc.get("runs").is_some());
            }
        }
    }

    #[test]
    fn zoo_stream_bodies_are_deterministic_and_actually_evolve() {
        let config = StreamerConfig {
            zoo: true,
            batches: 6,
            runs_per_batch: 1,
            samples: 20,
            ..StreamerConfig::default()
        };
        let a = stream_bodies(&config, 0);
        let b = stream_bodies(&config, 0);
        assert_eq!(a, b, "zoo bodies must be seed-deterministic");
        assert_eq!(a.len(), 6);
        // An evolving mix moves the simulated throughput batch to batch;
        // the frozen (non-zoo) stream only moves it via the run index.
        let throughput = |body: &str| {
            Json::parse(body)
                .unwrap()
                .get("runs")
                .and_then(Json::as_arr)
                .and_then(|runs| runs[0].get("throughput").and_then(Json::as_f64))
                .unwrap()
        };
        assert_ne!(
            throughput(&a[0]).to_bits(),
            throughput(&a[3]).to_bits(),
            "zoo stream did not evolve the telemetry"
        );
        // Distinct tenants replay distinct scenarios.
        assert_ne!(a, stream_bodies(&config, 1));
    }

    #[test]
    fn weighted_draw_respects_weights() {
        let mix = vec![
            MixEntry {
                method: "GET",
                path: "/a",
                body: String::new(),
                weight: 1,
            },
            MixEntry {
                method: "GET",
                path: "/b",
                body: String::new(),
                weight: 9,
            },
        ];
        let mut rng = Rng64::new(3);
        let mut b_count = 0;
        for _ in 0..1000 {
            if mix[draw_index(&mix, 10, &mut rng)].path == "/b" {
                b_count += 1;
            }
        }
        assert!((850..=950).contains(&b_count), "b_count={b_count}");
    }

    fn sample_report(taxonomy: Taxonomy) -> Report {
        Report {
            connections: 2,
            warmup_s: 1.0,
            measure_s: 2.0,
            requests: 100,
            errors: 0,
            throughput_rps: 50.0,
            p50_ms: 1.5,
            p95_ms: 3.0,
            p99_ms: 4.0,
            max_ms: 5.0,
            taxonomy,
        }
    }

    #[test]
    fn report_serializes_in_bench_shape() {
        let doc = Json::parse(&sample_report(Taxonomy::default()).to_json()).unwrap();
        assert_eq!(
            doc.get("experiment").unwrap().as_str(),
            Some("server_loadgen")
        );
        for key in [
            "connections",
            "warmup_s",
            "measure_s",
            "requests",
            "errors",
            "throughput_rps",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "max_ms",
        ] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn clean_report_omits_taxonomy_keys() {
        let clean = sample_report(Taxonomy::default()).to_json();
        assert!(!clean.contains("resets"), "{clean}");
        assert!(!clean.contains("recovered"), "{clean}");

        let faulted = sample_report(Taxonomy {
            timeouts: 2,
            retries: 2,
            recovered: 2,
            ..Taxonomy::default()
        })
        .to_json();
        let doc = Json::parse(&faulted).unwrap();
        assert_eq!(doc.get("timeouts").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("recovered").and_then(Json::as_f64), Some(2.0));
        // the legacy prefix is unchanged
        assert!(faulted.contains("\"throughput_rps\""), "{faulted}");
    }

    #[test]
    fn taxonomy_json_is_timing_free() {
        let mut report = sample_report(Taxonomy {
            resets: 1,
            server_errors: 3,
            retries: 4,
            recovered: 4,
            ..Taxonomy::default()
        });
        let a = report.taxonomy_json();
        // perturb every timing field: the taxonomy document must not move
        report.throughput_rps = 123.456;
        report.p50_ms = 9.9;
        report.max_ms = 77.7;
        report.measure_s = 0.001;
        let b = report.taxonomy_json();
        assert_eq!(a, b);
        let doc = Json::parse(&a).unwrap();
        assert_eq!(
            doc.get("experiment").and_then(Json::as_str),
            Some("server_chaos")
        );
        assert_eq!(doc.get("server_errors").and_then(Json::as_f64), Some(3.0));
        assert!(doc.get("p50_ms").is_none());
    }

    #[test]
    fn error_class_retryability_and_labels() {
        for class in [
            ErrorClass::Reset,
            ErrorClass::Timeout,
            ErrorClass::ServerError,
            ErrorClass::Malformed,
        ] {
            assert!(class.retryable(), "{class:?}");
        }
        assert!(!ErrorClass::ClientError.retryable());
        assert!(!ErrorClass::Mismatch.retryable());
        assert_eq!(ErrorClass::Reset.label(), "reset");
        assert_eq!(ErrorClass::ServerError.label(), "server_error");
        assert_eq!(ErrorClass::Mismatch.label(), "mismatch");
        // Only a whole response leaves the connection usable.
        for class in [
            ErrorClass::ServerError,
            ErrorClass::ClientError,
            ErrorClass::Mismatch,
        ] {
            assert!(class.answered(), "{class:?}");
        }
        for class in [
            ErrorClass::Reset,
            ErrorClass::Timeout,
            ErrorClass::Malformed,
        ] {
            assert!(!class.answered(), "{class:?}");
        }
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let mut a = Rng64::new(7);
        let mut b = Rng64::new(7);
        for retry in 0..8 {
            let da = backoff_delay(retry, &mut a);
            let db = backoff_delay(retry, &mut b);
            assert_eq!(da, db, "same jitter stream must give the same delay");
            assert!(da >= Duration::from_millis(5));
            assert!(da <= Duration::from_millis(120), "{da:?}");
        }
    }

    #[test]
    fn refused_connects_back_off_even_without_retries() {
        // A port nothing listens on: every connect is refused.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .unwrap()
            .to_string();
        let entry = &default_mix(1, 10)[0];
        let mut client = Client::new(&addr, Duration::from_secs(1), 0, 5);
        let mut taxonomy = Taxonomy::default();
        let started = Instant::now();
        for _ in 0..3 {
            assert_eq!(
                client.request(entry, None, &mut taxonomy),
                Err(ErrorClass::Reset)
            );
        }
        // 5, 10 and 20 ms at least: the backoff grows across requests.
        assert!(started.elapsed() >= Duration::from_millis(35));
        assert_eq!((taxonomy.resets, taxonomy.retries), (3, 0));
        assert_eq!(client.streak, 3);
    }

    #[test]
    fn taxonomy_counting_and_merge() {
        let mut t = Taxonomy::default();
        assert!(t.is_clean());
        t.count(ErrorClass::Reset);
        t.count(ErrorClass::Timeout);
        t.count(ErrorClass::ServerError);
        t.count(ErrorClass::ClientError);
        t.count(ErrorClass::Malformed);
        t.count(ErrorClass::Mismatch);
        assert!(!t.is_clean());
        assert_eq!(t.failed_attempts(), 6);
        let mut merged = Taxonomy {
            retries: 2,
            recovered: 1,
            ..Taxonomy::default()
        };
        merged.merge(&t);
        assert_eq!(merged.failed_attempts(), 6);
        assert_eq!(merged.retries, 2);
    }
}
