//! End-to-end benchmark of the prediction service.
//!
//! Boots `wp_server` in process on the reactor backend with one shard
//! per core, hands it a corpus generated from `--seed`, drives one
//! workload through it from a single client thread, checks every
//! answer, and prints the metrics `BENCHMARK.json` names:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot-read --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--workload all` runs the three workloads one after another, each in
//! a process of its own, and prints one row per workload. With
//! `--trace 1` the network phases take half the time and an in-process
//! traced replay (see `trace.rs`) the other half, and the per-layer
//! metrics are printed instead of the end-to-end ones. The last line of
//! standard output is always one JSON object; the exit code is non-zero
//! when any answer was wrong.
//!
//! The end-to-end row carries every metric of the workload: set-up time,
//! closed-loop throughput (the 90th percentile of 1-second windows),
//! open-loop read and ingest latency from the scheduled send, the share
//! of reads within the workload's limit, error rate and peak resident
//! memory. The final JSON line carries only what
//! `BENCHMARK.json` gates: on a small shared VM the host's speed swings
//! by up to 2x from one minute to the next, which moves throughput and
//! latency further between runs than any bound allows, so only set-up
//! time and memory are gated.

mod client;
mod oracle;
mod stats;
mod sys;
mod trace;
mod workload;

use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use wp_core::offline::OfflineCorpus;
use wp_json::{obj, Json};
use wp_server::service::ServiceState;
use wp_server::{corpus, Backend, Server, ServerConfig, ServerHandle};

use client::{Class, Client, Fail, Phase, Plan, Record, Traffic};
use oracle::{Checker, Expect, Observed};
use stats::{median, Dist, Quantile};
use workload::{Endpoint, Spec, Workload, SAMPLES, TENANTS, WARMUP_BATCHES_PER_TENANT};

/// Server starts per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 25;
/// Timed repeats of each set-up stage in the traced run.
const SETUP_STAGE_REPEATS: usize = 5;
/// Closed-loop traffic before any phase is timed.
const WARMUP: Duration = Duration::from_secs(2);
/// Most requests one traced replay records.
const TRACE_MAX_REQUESTS: usize = 6000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err(
            "--workload is required (hot-read, cold-read, ingest-mixed or all)".to_string(),
        );
    }
    Ok(args)
}

/// The commit being measured, from `.git` when the checkout has one.
fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The server under test: the reactor, one shard per core, every other
/// setting at its default.
fn server_config() -> ServerConfig {
    ServerConfig {
        backend: Backend::Reactor,
        workers: nproc(),
        ..ServerConfig::default()
    }
}

/// A workload's requests plus how their answers are judged.
struct Bench {
    workload: Workload,
    expects: Vec<Expect>,
    checker: Checker,
}

impl Traffic for Bench {
    fn next(&mut self, conn: usize, class: Class) -> usize {
        match class {
            Class::Read => self.workload.next_read(conn),
            Class::Ingest => self.workload.next_ingest(),
        }
    }

    fn wire(&self, req: usize) -> &[u8] {
        &self.workload.reqs[req].wire
    }

    fn judge(&self, req: usize, response: &[u8]) -> Result<Observed, Fail> {
        judge(
            &self.expects[req],
            &self.checker,
            &self.workload.reqs[req],
            response,
        )
    }
}

fn judge(
    expect: &Expect,
    checker: &Checker,
    req: &workload::Req,
    response: &[u8],
) -> Result<Observed, Fail> {
    if client::status(response) != Some(200) {
        return Err(Fail::Status);
    }
    match expect {
        Expect::Bytes(bytes) if bytes.as_slice() == response => Ok(Observed::default()),
        Expect::Bytes(_) => Err(Fail::Mismatch),
        Expect::Schema => {
            let head_end = response
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .ok_or(Fail::Malformed)?;
            let body =
                std::str::from_utf8(&response[head_end + 4..]).map_err(|_| Fail::Malformed)?;
            let doc = Json::parse(body).map_err(|_| Fail::Malformed)?;
            checker.check(req, &doc).map_err(|_| Fail::Mismatch)
        }
    }
}

/// Starts the server and waits for the first `200` from `/healthz`.
fn boot(corpus: &OfflineCorpus) -> Result<(ServerHandle, Duration), String> {
    let corpus = corpus.clone();
    let started = Instant::now();
    let server = Server::start(corpus, server_config())?;
    let healthz = b"GET /healthz HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n";
    loop {
        if let Ok(mut s) = TcpStream::connect(server.addr()) {
            if let Ok(resp) = client::roundtrip(&mut s, healthz) {
                if client::status(&resp) == Some(200) {
                    return Ok((server, started.elapsed()));
                }
            }
        }
        if started.elapsed() > Duration::from_secs(30) {
            return Err("server never answered /healthz".to_string());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Requests each shard has served through its response cache.
fn served(state: &ServiceState) -> Vec<u64> {
    state
        .shards
        .iter()
        .map(|s| {
            let (h, m) = s.responses.counters();
            h + m
        })
        .collect()
}

/// Opens `conns` connections spread evenly over the shards: each new
/// connection sends `probe`, the shard whose counter moved owns it, and
/// a connection to a shard that is already full is closed and retried.
fn place(
    server: &ServerHandle,
    conns: usize,
    probe: &[u8],
    expect: &[u8],
) -> Result<(Vec<TcpStream>, usize), String> {
    let shards = server.state().shards.len();
    let quota = conns.div_ceil(shards);
    let mut per_shard = vec![0usize; shards];
    let mut placed = Vec::with_capacity(conns);
    for attempt in 1..=1000 {
        let mut s = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let before = served(server.state());
        let resp = client::roundtrip(&mut s, probe)?;
        if resp != expect {
            return Err("placement probe got a wrong answer".to_string());
        }
        let after = served(server.state());
        let moved: Vec<usize> = (0..shards).filter(|&i| after[i] > before[i]).collect();
        let [shard] = moved[..] else {
            return Err(format!("probe moved {} shard counters", moved.len()));
        };
        if per_shard[shard] < quota {
            per_shard[shard] += 1;
            placed.push(s);
            if placed.len() == conns {
                return Ok((placed, attempt));
            }
        }
    }
    Err(format!(
        "could not spread {conns} connections over {shards} shards"
    ))
}

/// Server-side counters at one instant.
#[derive(Debug, Clone)]
struct Counters {
    served: Vec<u64>,
    responses: (u64, u64),
    ref_data: (u64, u64),
}

fn counters(state: &ServiceState) -> Counters {
    let ref_data = state.shards.iter().fold((0, 0), |(h, m), s| {
        let (a, b) = s.ref_data.counters();
        (h + a, m + b)
    });
    Counters {
        served: served(state),
        responses: state.response_cache_counters(),
        ref_data,
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// One metric as printed: value, unit, and the sample count behind a
/// percentile.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: Option<f64>,
    unit: &'static str,
    n: Option<usize>,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value: Some(value),
            unit,
            n: None,
        });
    }

    /// A percentile; absent when it has no samples.
    fn quantile(&mut self, name: impl Into<String>, q: Quantile, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value: (q.n > 0).then_some(q.value),
            unit,
            n: Some(q.n),
        });
    }

    /// A metric that does not apply to this workload.
    fn absent(&mut self, name: impl Into<String>, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value: None,
            unit,
            n: None,
        });
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).and_then(|m| m.value)
    }

    fn print(&self) {
        for m in &self.0 {
            let value = m
                .value
                .map_or_else(|| "n/a".to_string(), |v| format!("{v:.6}"));
            let n = m.n.map_or_else(String::new, |n| format!(" (n={n})"));
            println!("  {:<34} {value:>16} {}{n}", m.name, m.unit);
        }
    }
}

/// The metrics `BENCHMARK.json` lists, in its order.
const END_TO_END: [&str; 2] = ["setup_s", "peak_rss_mb"];
const PER_LAYER: [&str; 33] = [
    "client.late_p99_ms",
    "client.cpu_s",
    "client.fail.reset",
    "client.fail.timeout",
    "client.fail.status",
    "client.fail.malformed",
    "client.fail.mismatch",
    "reactor.residual_p50_ms",
    "reactor.shard_share",
    "http.parse_us",
    "http.render_us",
    "cache.hit_ratio",
    "cache.lookup_us",
    "cache.ref_data_hit_ratio",
    "service.handle_us.similar",
    "service.handle_us.similar_indexed",
    "json.parse_us",
    "json.render_us",
    "telemetry.decode_us",
    "similarity.extract_us",
    "similarity.fingerprint_us",
    "similarity.distance_us",
    "similarity.distance_pairs",
    "index.rank_us",
    "index.pruned_fraction",
    "index.exact",
    "index.indexed_runs",
    "predict.fit_us",
    "predict.cv_us",
    "setup.select_ms",
    "setup.engine_ms",
    "trace.coverage",
    "trace.overhead",
];

/// Everything the network phases leave behind.
struct NetRun {
    /// Every open-phase request.
    open: Vec<Record>,
    closed: client::Tally,
    before: Counters,
    after: Counters,
    cpu: Duration,
    setup: Vec<f64>,
    placement_attempts: usize,
}

fn network_run(
    bench: &mut Bench,
    corpus: &OfflineCorpus,
    conns: usize,
    seconds: f64,
) -> Result<NetRun, String> {
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = server.take() {
            ServerHandle::shutdown(previous);
        }
        let (s, took) = boot(corpus)?;
        setup.push(took.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let result = drive(bench, &server, conns, seconds);
    server.shutdown();
    let mut run = result?;
    run.setup = setup;
    Ok(run)
}

/// Closed-loop roles: on `ingest-mixed` half the connections post
/// ingests back to back and the rest read; otherwise all read.
fn phase_roles(ingest: bool, conns: usize) -> Vec<Class> {
    if !ingest {
        return vec![Class::Read];
    }
    let ingesters = (conns / 2).max(1);
    (0..conns)
        .map(|c| {
            if c < ingesters {
                Class::Ingest
            } else {
                Class::Read
            }
        })
        .collect()
}

fn drive(
    bench: &mut Bench,
    server: &ServerHandle,
    conns: usize,
    seconds: f64,
) -> Result<NetRun, String> {
    let probe = bench
        .workload
        .reqs
        .iter()
        .zip(&bench.expects)
        .find_map(|(r, e)| match e {
            Expect::Bytes(b) if r.endpoint.method() == "POST" => Some((r.wire.clone(), b.clone())),
            _ => None,
        })
        .ok_or("workload has no byte-checked POST to place connections with")?;
    let (streams, placement_attempts) = place(server, conns, &probe.0, &probe.1)?;
    let mut client = Client::new(server.addr(), streams)?;
    let far = Instant::now() + Duration::from_secs(600);
    if bench.workload.has_ingest() {
        let batches = TENANTS * WARMUP_BATCHES_PER_TENANT;
        let plan = Plan::Closed {
            roles: vec![Class::Ingest],
            until: far,
            cap: batches.div_ceil(conns),
        };
        client.run(&plan, bench, Phase::Warmup)?;
    }
    let cycle = bench
        .workload
        .cycles
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0);
    client.run(
        &Plan::Closed {
            roles: vec![Class::Read],
            until: far,
            cap: cycle,
        },
        bench,
        Phase::Warmup,
    )?;
    // Loopback buffers and the allocator take a few seconds of traffic
    // to reach their steady state.
    let roles = phase_roles(bench.workload.has_ingest(), conns);
    client.run(
        &Plan::Closed {
            roles: roles.clone(),
            until: Instant::now() + WARMUP,
            cap: usize::MAX,
        },
        bench,
        Phase::Warmup,
    )?;
    if client.warmup_failed > 0 {
        return Err(format!("{} warmup requests failed", client.warmup_failed));
    }
    client.cpu = Duration::ZERO;

    let before = counters(server.state());
    let closed_len = Duration::from_secs_f64(seconds / 2.0);
    let open_len = closed_len;
    client.run(
        &Plan::Closed {
            roles,
            until: Instant::now() + closed_len,
            cap: usize::MAX,
        },
        bench,
        Phase::Closed,
    )?;
    let start = Instant::now() + Duration::from_millis(5);
    client.run(
        &Plan::Open {
            start,
            until: start + open_len,
            read_hz: bench.workload.spec.read_hz,
            ingest_hz: bench.workload.spec.ingest_hz,
        },
        bench,
        Phase::Open,
    )?;
    Ok(NetRun {
        open: std::mem::take(&mut client.records),
        closed: std::mem::take(&mut client.closed),
        before,
        after: counters(server.state()),
        cpu: client.cpu,
        setup: Vec::new(),
        placement_attempts,
    })
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// End-to-end metrics and the network-side layer metrics.
fn network_metrics(
    run: &NetRun,
    spec: &Spec,
    e2e: &mut Metrics,
    layer: &mut Metrics,
) -> (usize, usize) {
    let open = &run.open;
    let attempted = run.closed.attempted as usize + open.len();
    let failed = run.closed.failed() as usize + open.iter().filter(|r| r.outcome.is_err()).count();
    let of = |class: Class| -> Vec<Record> {
        open.iter().filter(|r| r.class == class).copied().collect()
    };
    let ok = |rs: &[Record]| -> Vec<Record> {
        rs.iter().filter(|r| r.outcome.is_ok()).copied().collect()
    };
    let reads = of(Class::Read);
    let reads_ok = ok(&reads);
    let window_s = run.closed.window.as_secs_f64().max(1e-9);
    let per_window: Vec<f64> = run
        .closed
        .reads
        .iter()
        .map(|&n| n as f64 / window_s)
        .collect();

    e2e.put("setup_s", median(&run.setup).unwrap_or(0.0), "s");
    // The 90th percentile of 1-second windows: capacity in the seconds the
    // host let the run have its cores, which a neighbour's burst of CPU
    // steal in a few of them does not move.
    let p90 = Dist::new(run.closed.reads.clone()).pct(90.0);
    e2e.put("throughput_rps", p90 as f64 / window_s, "req/s");
    let read_lat = Dist::new(reads_ok.iter().map(Record::latency).collect());
    e2e.quantile("read_p50_ms", read_lat.quantile(50.0, 1e6), "ms");
    e2e.quantile("read_p99_ms", read_lat.quantile(99.0, 1e6), "ms");
    let limit_ns = (spec.read_limit_ms * 1e6) as u64;
    let met = reads_ok.iter().filter(|r| r.latency() <= limit_ns).count();
    e2e.put(
        "read_slo_met",
        met as f64 / reads.len().max(1) as f64,
        "share",
    );
    if spec.ingest_hz > 0.0 {
        let lat = Dist::new(ok(&of(Class::Ingest)).iter().map(Record::latency).collect());
        e2e.quantile("ingest_p50_ms", lat.quantile(50.0, 1e6), "ms");
        e2e.quantile("ingest_p99_ms", lat.quantile(99.0, 1e6), "ms");
        let batches: u64 = run.closed.ingests.iter().sum();
        let span = window_s * run.closed.ingests.len().max(1) as f64;
        e2e.put("ingest_batches_s", batches as f64 / span, "batches/s");
    } else {
        e2e.absent("ingest_p50_ms", "ms");
        e2e.absent("ingest_p99_ms", "ms");
        e2e.absent("ingest_batches_s", "batches/s");
    }
    e2e.put(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "share",
    );
    e2e.put("peak_rss_mb", sys::peak_rss_mib(), "MiB");
    println!(
        "# closed phase: {} windows of {:.3}s, reads/s per window {:?}",
        per_window.len(),
        window_s,
        per_window
            .iter()
            .map(|x| x.round() as u64)
            .collect::<Vec<_>>()
    );
    let late = Dist::new(open.iter().map(Record::lateness).collect());
    layer.quantile("client.late_p99_ms", late.quantile(99.0, 1e6), "ms");
    layer.put("client.cpu_s", run.cpu.as_secs_f64(), "s");
    for (i, f) in Fail::ALL.into_iter().enumerate() {
        let n =
            run.closed.failures[i] as usize + open.iter().filter(|r| r.outcome == Err(f)).count();
        layer.put(format!("client.fail.{}", f.label()), n as f64, "count");
    }
    let delta: Vec<u64> = run
        .after
        .served
        .iter()
        .zip(&run.before.served)
        .map(|(a, b)| a - b)
        .collect();
    let total: u64 = delta.iter().sum();
    let share = delta.iter().max().copied().unwrap_or(0) as f64 / total.max(1) as f64;
    layer.put("reactor.shard_share", share, "share");
    let (before, after) = (&run.before, &run.after);
    layer.put(
        "cache.hit_ratio",
        ratio(
            after.responses.0 - before.responses.0,
            after.responses.1 - before.responses.1,
        ),
        "share",
    );
    // Reference data misses only on a shard's first cold request, so this
    // one counts over the whole run, warmup included.
    layer.put(
        "cache.ref_data_hit_ratio",
        ratio(after.ref_data.0, after.ref_data.1),
        "share",
    );
    if spec.ingest_hz > 0.0 {
        let ingests = of(Class::Ingest);
        let accepted: Vec<Observed> = ingests.iter().filter_map(|r| r.outcome.ok()).collect();
        let rebuilt = run.closed.rebuilt + accepted.iter().filter(|o| o.rebuilt).count() as u64;
        let total = run.closed.accepted + accepted.len() as u64;
        layer.put(
            "stream.rebuild_ratio",
            rebuilt as f64 / total.max(1) as f64,
            "share",
        );
        // Reads whose interval overlapped an in-flight ingest.
        let stalled = Dist::new(
            reads_ok
                .iter()
                .filter(|r| {
                    ingests
                        .iter()
                        .any(|i| r.scheduled < i.done && i.sent < r.done)
                })
                .map(Record::latency)
                .collect(),
        );
        layer.quantile(
            "stream.read_stall_p99_ms",
            stalled.quantile(99.0, 1e6),
            "ms",
        );
    } else {
        layer.absent("stream.rebuild_ratio", "share");
        layer.absent("stream.read_stall_p99_ms", "ms");
    }
    (attempted, failed)
}

/// Per-layer metrics from the traced replay.
fn trace_metrics(
    bench: &mut Bench,
    corpus: &OfflineCorpus,
    conns: usize,
    budget: Duration,
    read_p50_ms: Option<f64>,
    layer: &mut Metrics,
    seed: u64,
) -> Result<usize, String> {
    let config = server_config();
    let shards = config.workers.max(1);
    let t = trace::replay(
        &mut bench.workload,
        corpus,
        &config,
        shards,
        conns,
        budget,
        TRACE_MAX_REQUESTS,
    )?;
    let us = |name: &str, e: Option<Endpoint>| trace::durations(&t, name, e).quantile(50.0, 1e3);

    let reads: Vec<u64> = t
        .rec
        .spans
        .iter()
        .filter(|s| {
            s.name == "service.handle_on" && t.endpoints[s.request as usize] != Endpoint::Ingest
        })
        .map(trace::Span::duration)
        .collect();
    let handle_p50_ms = Dist::new(reads).quantile(50.0, 1e6);
    match (read_p50_ms, handle_p50_ms.n) {
        (Some(p50), n) if n > 0 => {
            layer.put("reactor.residual_p50_ms", p50 - handle_p50_ms.value, "ms")
        }
        _ => layer.absent("reactor.residual_p50_ms", "ms"),
    }
    layer.quantile("http.parse_us", us("http.parse", None), "us");
    layer.quantile("http.render_us", us("http.render", None), "us");
    layer.quantile("cache.lookup_us", us("cache.lookup", None), "us");
    for e in Endpoint::ALL {
        if matches!(e, Endpoint::Healthz | Endpoint::Corpus) {
            continue;
        }
        let name = format!("service.handle_us.{}", e.label());
        let q = us("service.handle_on", Some(e));
        if q.n > 0 {
            layer.quantile(name, q, "us");
        } else {
            layer.absent(name, "us");
        }
    }
    for (metric, span) in [
        ("json.parse_us", "json.parse"),
        ("json.render_us", "json.render"),
        ("telemetry.decode_us", "telemetry.decode"),
        ("similarity.extract_us", "similarity.extract"),
        ("similarity.fingerprint_us", "similarity.fingerprint"),
        ("similarity.distance_us", "similarity.distance"),
        ("index.rank_us", "index.rank"),
        ("predict.fit_us", "predict.fit"),
        ("predict.cv_us", "predict.cv"),
    ] {
        layer.quantile(metric, us(span, None), "us");
    }
    let pairs: Vec<f64> = t.counts.distance_pairs.iter().map(|&p| p as f64).collect();
    layer.put(
        "similarity.distance_pairs",
        median(&pairs).unwrap_or(0.0),
        "count",
    );
    layer.put(
        "index.pruned_fraction",
        t.counts.pruned as f64 / t.counts.candidates.max(1) as f64,
        "share",
    );
    let exact: Vec<f64> = t.counts.exact.iter().map(|&x| x as f64).collect();
    layer.put("index.exact", median(&exact).unwrap_or(0.0), "count");
    layer.put("index.indexed_runs", t.indexed_runs as f64, "count");
    if bench.workload.has_ingest() {
        let ms_of = |name: &str| trace::durations(&t, name, None).quantile(50.0, 1e6);
        layer.quantile("similarity.bcpd_ms", ms_of("similarity.bcpd"), "ms");
        layer.quantile("index.rebuild_ms", ms_of("index.rebuild"), "ms");
        layer.quantile("stream.ingest_ms", ms_of("stream.ingest"), "ms");
        layer.quantile(
            "stream.replay_ms",
            trace::replica_replay(&t).quantile(50.0, 1e6),
            "ms",
        );
    } else {
        for (name, unit) in [
            ("similarity.bcpd_ms", "ms"),
            ("index.rebuild_ms", "ms"),
            ("stream.ingest_ms", "ms"),
            ("stream.replay_ms", "ms"),
        ] {
            layer.absent(name, unit);
        }
    }

    // Set-up stages, timed directly.
    let pipeline = config.pipeline.clone();
    let mut select = Vec::new();
    let mut engine = Vec::new();
    for _ in 0..SETUP_STAGE_REPEATS {
        let t0 = Instant::now();
        let selected = wp_core::offline::select_features_offline(corpus, &pipeline)?;
        select.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        wp_stream::StreamEngine::new(
            corpus,
            &selected,
            &pipeline,
            wp_index::IndexConfig::default(),
            config.stream.clone(),
        )?;
        engine.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    layer.put("setup.select_ms", median(&select).unwrap_or(0.0), "ms");
    layer.put("setup.engine_ms", median(&engine).unwrap_or(0.0), "ms");

    let cover = trace::coverage(&t);
    let (handled, covered) = cover.values().fold((0, 0), |(h, c), v| (h + v.1, c + v.2));
    layer.put(
        "trace.coverage",
        covered as f64 / handled.max(1) as f64,
        "share",
    );
    layer.put(
        "trace.overhead",
        t.traced_ns as f64 / t.twin_ns.max(1) as f64 - 1.0,
        "share",
    );
    layer.put("trace.divergent", t.divergent as f64, "count");

    println!(
        "# traced replay: {} requests, {} spans",
        t.endpoints.len(),
        t.rec.spans.len()
    );
    println!(
        "# per endpoint: requests, handle_on p50, share covered by layer spans, uncovered rest"
    );
    for (e, (n, handle, covered)) in &cover {
        let p50 = us("service.handle_on", Some(*e));
        println!(
            "#   {:<17} n={n:<6} handle_on_p50={:>10.1}us covered={:>5.1}% rest={:>9.1}us/req: {}",
            e.label(),
            p50.value,
            100.0 * *covered as f64 / (*handle).max(1) as f64,
            handle.saturating_sub(*covered) as f64 / 1e3 / (*n).max(1) as f64,
            trace::uncovered(*e),
        );
    }
    let children = t.rec.children();
    let mut self_ns: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for (i, s) in t.rec.spans.iter().enumerate() {
        let entry = self_ns.entry(s.name).or_default();
        entry.0 += s.duration();
        entry.1 += t.rec.self_time(i, &children);
    }
    println!("# per span: total and self time over the replay");
    for (name, (total, own)) in &self_ns {
        println!(
            "#   {name:<24} total={:>10.3}ms self={:>10.3}ms",
            ms(*total),
            ms(*own)
        );
    }
    let path = format!(
        ".bench_out/spans-{}-seed{seed}.tsv",
        bench.workload.spec.name
    );
    t.rec
        .write_tsv(Path::new(&path))
        .map_err(|e| format!("write {path}: {e}"))?;
    println!("# spans written to {path}");
    Ok(t.divergent)
}

fn run_one(args: &Args, spec: Spec) -> Result<bool, String> {
    let cores = nproc();
    let conns = cores.max(2);
    let config = server_config();
    let corpus = corpus::simulated_corpus(args.seed, SAMPLES);
    let mut workload = workload::build(spec, args.seed, conns);
    let oracle = trace::state(&corpus, &config, 1)?;
    let expects = oracle::expectations(&oracle, &workload)?;
    let checker = Checker::new(&oracle);
    drop(oracle);
    workload.rewind();
    let mut bench = Bench {
        workload,
        expects,
        checker,
    };

    println!(
        "# perfbench sha={} nproc={cores} WP_THREADS={} shards={} conns={conns} client_threads=1 samples={SAMPLES} seed={} seconds={} trace={}",
        git_sha(),
        std::env::var("WP_THREADS").unwrap_or_else(|_| "unset".to_string()),
        config.workers,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    println!(
        "# workload={} read_hz={} ingest_hz={} read_limit_ms={} requests={}",
        spec.name,
        spec.read_hz,
        spec.ingest_hz,
        spec.read_limit_ms,
        bench.workload.reqs.len()
    );

    let net_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let net = network_run(&mut bench, &corpus, conns, net_seconds)?;
    let mut e2e = Metrics::default();
    let mut layer = Metrics::default();
    let (attempted, mut failed) = network_metrics(&net, &spec, &mut e2e, &mut layer);
    println!(
        "# placement: {} connection attempts",
        net.placement_attempts
    );

    let names: &[&str] = if args.trace {
        let divergent = trace_metrics(
            &mut bench,
            &corpus,
            conns,
            Duration::from_secs_f64(args.seconds / 2.0),
            e2e.get("read_p50_ms"),
            &mut layer,
            args.seed,
        )?;
        failed += divergent;
        println!("row {} per-layer:", spec.name);
        layer.print();
        &PER_LAYER
    } else {
        println!("row {} end-to-end:", spec.name);
        e2e.print();
        &END_TO_END
    };
    let source = if args.trace { &layer } else { &e2e };
    let mut metrics = Vec::new();
    for &name in names {
        let m = source
            .0
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let value = m
            .value
            .ok_or_else(|| format!("metric {name} has no value on {}", spec.name))?;
        metrics.push((
            name.to_string(),
            obj! { "value" => value, "unit" => m.unit },
        ));
    }
    let correct = failed == 0;
    println!(
        "{}",
        obj! {
            "correct" => correct,
            "attempted" => attempted.max(1),
            "failed" => failed,
            "metrics" => Json::Obj(metrics),
        }
        .compact()
    );
    Ok(correct)
}

/// Runs every workload in a child process of its own, so each gets a
/// fresh peak-memory count, and prints one row per workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut all_ok = true;
    let mut rows = Vec::new();
    for spec in workload::SPECS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("run {}: {e}", spec.name))?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        all_ok &= out.status.success();
        let last = text.lines().last().unwrap_or_default();
        rows.push((spec.name, Json::parse(last).ok()));
    }
    println!("# summary, one row per workload");
    for (name, doc) in &rows {
        let cells: Vec<String> = doc
            .as_ref()
            .and_then(|d| d.get("metrics"))
            .map(|m| match m {
                Json::Obj(pairs) => pairs
                    .iter()
                    .map(|(k, v)| {
                        let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                        let unit = v.get("unit").and_then(Json::as_str).unwrap_or_default();
                        format!("{k}={value:.4}{unit}")
                    })
                    .collect(),
                _ => Vec::new(),
            })
            .unwrap_or_default();
        println!("{name:<13} {}", cells.join(" "));
    }
    let summary: Vec<(String, Json)> = rows
        .into_iter()
        .map(|(name, doc)| (name.to_string(), doc.unwrap_or(Json::Null)))
        .collect();
    println!("{}", Json::Obj(summary).compact());
    Ok(all_ok)
}

fn main() {
    let code = match parse_args().and_then(|args| {
        if args.workload == "all" {
            run_all(&args)
        } else {
            let spec = workload::spec(&args.workload)
                .ok_or_else(|| format!("unknown workload {}", args.workload))?;
            run_one(&args, spec)
        }
    }) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        let workloads: Vec<String> = workload::SPECS.iter().map(|s| s.name.to_string()).collect();
        assert_eq!(names("workloads"), workloads);
    }

    #[test]
    fn a_flipped_oracle_byte_is_a_mismatch() {
        let corpus = corpus::simulated_corpus(5, 40);
        let config = server_config();
        let state = ServiceState::new(
            corpus,
            config.pipeline.clone(),
            None,
            config.cache_capacity,
            config.stream.clone(),
        )
        .unwrap();
        let req = workload::build(workload::spec("hot-read").unwrap(), 5, 2).reqs[2].clone();
        let (status, body) = wp_server::service::handle(&state, &oracle::request(&req));
        let response = wp_server::http::render_response(status, &body, true, &[]);
        let checker = Checker::new(&state);
        let good = Expect::Bytes(response.clone());
        assert_eq!(
            judge(&good, &checker, &req, &response),
            Ok(Observed::default())
        );
        for at in [0, 20, response.len() / 2, response.len() - 1] {
            let mut flipped = response.clone();
            flipped[at] ^= 0x20;
            let expect = Expect::Bytes(flipped);
            assert!(
                judge(&expect, &checker, &req, &response).is_err(),
                "byte {at}"
            );
        }
    }
}
