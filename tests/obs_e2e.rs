//! End-to-end tests of the observability layer: a real `wp-server`
//! with `--obs`, scraped over real sockets, cross-checked against the
//! `/stats` endpoint.
//!
//! Three contracts under test:
//!
//! 1. **Internal consistency** — the `/metrics` exposition, the
//!    `/stats` document, and the load generator's own accounting must
//!    agree on how many requests were served, per endpoint, under
//!    multi-worker load at both ends of the compute-parallelism range.
//! 2. **Each server's own numbers** — the series a server owns (its
//!    requests, connections, caches and stream engine) count only that
//!    server's traffic, and are on its first scrape.
//! 3. **Byte-identity when disabled** — the `obs` flag may add the
//!    `/metrics` route and move counters, but it must never change a
//!    single byte of any other response.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use wp_json::Json;
use wp_server::corpus::simulated_corpus;
use wp_server::{Server, ServerConfig, ServerHandle};

/// The tests in this binary run one at a time. None reads another's
/// numbers (a server's series are its own), but each boots 4-shard
/// servers and drives load over real sockets, and on a small host their
/// load would otherwise share the same few cores.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn start_server(obs: bool, compute_threads: Option<usize>) -> ServerHandle {
    let corpus = simulated_corpus(0xEDB7_2025, 60);
    let config = ServerConfig {
        workers: 4,
        compute_threads,
        obs,
        ..ServerConfig::default()
    };
    Server::start(corpus, config).expect("server must start")
}

fn fetch(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    wp_loadgen::fetch(addr, method, path, body, Duration::from_secs(30))
        .unwrap_or_else(|failure| panic!("{method} {path} failed: {failure}"))
}

/// Value of an exact series name in a parsed exposition. A series the
/// server owns is present from its first scrape on.
fn series_value(series: &[(String, f64)], name: &str) -> f64 {
    series
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("series {name} missing from /metrics"))
        .1
}

/// `GET /metrics` on `addr`, parsed.
fn scrape(addr: &str) -> Vec<(String, f64)> {
    let (status, body) = fetch(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "obs server must expose /metrics");
    wp_obs::parse_prometheus(&body).expect("exposition must round-trip through the parser")
}

/// Drives a fixed multi-connection load against an `--obs` server and
/// asserts `/metrics`, `/stats`, and the loadgen report tell one story,
/// at a single compute thread and at eight.
///
/// The request series are the server's own, so they are asserted as
/// absolute values. The scrape order is fixed (`/stats` then
/// `/metrics`, one connection each) and the server records a request
/// after its handler renders the body, so at `/metrics`-render time the
/// server has counted exactly: the load, plus the one `/stats` scrape.
#[test]
fn metrics_stats_and_loadgen_agree_under_multiworker_load() {
    let _lock = guard();
    for compute_threads in [1usize, 8] {
        let server = start_server(true, Some(compute_threads));
        let addr = server.addr().to_string();

        let connections = 4usize;
        let per_connection = 40u64;
        let mix = wp_loadgen::default_mix(7, 60);
        let config = wp_loadgen::LoadConfig {
            addr: addr.clone(),
            connections,
            seed: 7,
            timeout: Duration::from_secs(30),
            retries: 0,
            requests_per_connection: Some(per_connection),
            ..wp_loadgen::LoadConfig::default()
        };
        let report = wp_loadgen::run_load(&config, &mix).expect("load must run");
        assert_eq!(report.errors, 0, "clean server, clean load");
        assert_eq!(report.requests, connections as u64 * per_connection);

        let (status, stats_body) = fetch(&addr, "GET", "/stats", "");
        assert_eq!(status, 200);
        let series = scrape(&addr);

        let stats = Json::parse(&stats_body).expect("/stats must be JSON");
        let endpoints = stats
            .get("endpoints")
            .and_then(Json::as_arr)
            .expect("/stats carries per-endpoint rows");
        let mut seen_traffic = 0.0;
        for row in endpoints {
            let name = row.get("endpoint").and_then(Json::as_str).unwrap();
            let requests = row.get("requests").and_then(Json::as_f64).unwrap();
            let errors = row.get("errors").and_then(Json::as_f64).unwrap();
            seen_traffic += requests;

            // The /stats scrape itself is recorded before /metrics
            // renders but after its own body was built.
            let scrape_slack = if name == "/stats" { 1.0 } else { 0.0 };
            let requests_series = format!("wp_server_requests_total{{endpoint=\"{name}\"}}");
            let metric_requests = series_value(&series, &requests_series);
            assert_eq!(
                metric_requests,
                requests + scrape_slack,
                "[threads={compute_threads}] {requests_series} disagrees with /stats"
            );

            // The per-endpoint span is observed by the same record()
            // call as the request counter: the two families must move
            // in lockstep.
            let span_series = format!("wp_server_request_count{{endpoint=\"{name}\"}}");
            let span_count = series_value(&series, &span_series);
            assert_eq!(
                span_count, metric_requests,
                "[threads={compute_threads}] span count and request counter diverged for {name}"
            );

            let errors_series = format!("wp_server_errors_total{{endpoint=\"{name}\"}}");
            let metric_errors = series_value(&series, &errors_series);
            assert_eq!(
                metric_errors, errors,
                "error accounting diverged for {name}"
            );
            assert!(errors <= requests, "more errors than requests for {name}");

            // The span's cumulative buckets never fall as `le` rises, and
            // `+Inf` counts every request its `_count` does.
            let prefix = format!("wp_server_request_ns_bucket{{endpoint=\"{name}\",le=\"");
            let buckets: Vec<(f64, f64)> = series
                .iter()
                .filter_map(|(n, v)| {
                    let le = n.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                    Some((le.parse().expect("le is a number or +Inf"), *v))
                })
                .collect();
            assert_eq!(buckets.len(), 15, "{name}: one line per bound");
            assert!(
                buckets
                    .windows(2)
                    .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1),
                "[threads={compute_threads}] {name}: buckets fall as le rises: {buckets:?}"
            );
            assert_eq!(
                buckets.last(),
                Some(&(f64::INFINITY, span_count)),
                "[threads={compute_threads}] {name}: le=\"+Inf\" disagrees with the count"
            );

            // Percentiles are nearest-rank at bucket resolution: each is
            // the largest value of its rank's bucket, clamped to the
            // maximum, so any endpoint with traffic reports a positive,
            // ordered latency no larger than its slowest request.
            if requests > 0.0 {
                let p50 = row.get("p50_ns").and_then(Json::as_f64).unwrap();
                let p99 = row.get("p99_ns").and_then(Json::as_f64).unwrap();
                let max = row.get("max_ns").and_then(Json::as_f64).unwrap();
                assert!(p50 > 0.0, "{name}: a request over a socket takes time");
                assert!(p50 <= p99 && p99 <= max, "{name}: percentiles out of order");
            }
        }
        // Every load-generated request landed in a /stats row — nothing
        // leaked past the accounting. (The /stats scrape itself is not
        // in its own body: a request is recorded after its handler
        // renders the response.)
        assert_eq!(seen_traffic, report.requests as f64);

        server.shutdown();
    }
}

/// An answer computed on a response-cache miss is stored only once its
/// request recurs, and `/metrics` counts the answers it declined: body A
/// asked once and body B three times on one shard decline A's and B's
/// first answers, store B's second and serve B's third from the cache.
/// `/stats` reports the same hits and misses.
#[test]
fn declined_answers_are_counted_beside_hits_and_misses() {
    let _lock = guard();
    let similar = wp_loadgen::default_mix(7, 60)
        .into_iter()
        .find(|e| e.path == "/similar")
        .expect("mix covers /similar");
    let a = similar.body.clone();
    let b = similar
        .body
        .replacen('{', "{\"mode\":\"indexed\",\"k\":3,", 1);

    // One shard serves every connection.
    let config = ServerConfig {
        workers: 1,
        compute_threads: Some(1),
        obs: true,
        ..ServerConfig::default()
    };
    let server = Server::start(simulated_corpus(0xEDB7_2025, 60), config).expect("server starts");
    let addr = server.addr().to_string();
    let mut answers = Vec::new();
    for body in [&a, &b, &b, &b] {
        let (status, answer) = fetch(&addr, "POST", "/similar", body);
        assert_eq!(status, 200, "{answer}");
        answers.push(answer);
    }
    assert!(answers[2..].iter().all(|answer| *answer == answers[1]));

    let (status, stats_body) = fetch(&addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let series = scrape(&addr);
    server.shutdown();

    let value = |name: &str| series_value(&series, name);
    assert_eq!(
        value("wp_server_cache_declined_total{cache=\"responses\"}"),
        2.0
    );
    assert_eq!(
        value("wp_server_cache_misses_total{cache=\"responses\"}"),
        3.0
    );
    assert_eq!(
        value("wp_server_cache_hits_total{cache=\"responses\"}"),
        1.0
    );

    let stats = Json::parse(&stats_body).expect("/stats is JSON");
    let cache = stats.get("cache").expect("/stats has cache counters");
    assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(1.0));
    assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(3.0));
}

/// Two servers in one process each count only their own traffic: the
/// request series are kept by each server, not by the process-global
/// registry.
#[test]
fn each_server_counts_only_its_own_traffic() {
    let _lock = guard();
    let servers = [start_server(true, Some(1)), start_server(true, Some(1))];
    let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    let sent = [3.0, 5.0];
    for (addr, &n) in addrs.iter().zip(&sent) {
        for _ in 0..n as usize {
            assert_eq!(fetch(addr, "GET", "/healthz", "").0, 200);
        }
    }
    for (addr, &n) in addrs.iter().zip(&sent) {
        let series = scrape(addr);
        let value = |name: &str| series_value(&series, name);
        assert_eq!(value("wp_server_requests_total{endpoint=\"/healthz\"}"), n);
        assert_eq!(value("wp_server_request_count{endpoint=\"/healthz\"}"), n);
        // One connection per request, and the scrape's own.
        assert_eq!(value("wp_server_connections_total"), n + 1.0);
    }
    for server in servers {
        server.shutdown();
    }
}

/// Every family a server owns is on its first scrape, with its kind,
/// before any traffic: the counters read 0 (connections 1, the scrape's
/// own), and the stream gauges read the startup corpus as `/stats` does.
#[test]
fn owned_series_are_on_the_first_scrape() {
    let _lock = guard();
    let server = start_server(true, Some(1));
    let addr = server.addr().to_string();
    let (status, exposition) = fetch(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let series = wp_obs::parse_prometheus(&exposition).expect("exposition parses");
    let stats = Json::parse(&fetch(&addr, "GET", "/stats", "").1).expect("/stats is JSON");
    server.shutdown();

    let indexed_runs = stats
        .get("stream")
        .and_then(|s| s.get("indexed_runs"))
        .and_then(Json::as_f64)
        .expect("/stats reports the indexed runs");
    assert!(indexed_runs > 0.0);
    // (family, kind, label sets, value on the first scrape)
    let endpoint: Vec<String> = wp_server::stats::ENDPOINTS
        .iter()
        .map(|e| format!("{{endpoint=\"{e}\"}}"))
        .collect();
    let caches = ["{cache=\"ref_data\"}", "{cache=\"responses\"}"].map(String::from);
    let responses = ["{cache=\"responses\"}".to_string()];
    let none = [String::new()];
    let bucket_ends: Vec<String> = wp_server::stats::ENDPOINTS
        .iter()
        .flat_map(|e| ["1023", "+Inf"].map(|le| format!("{{endpoint=\"{e}\",le=\"{le}\"}}")))
        .collect();
    let families: [(&str, &str, &[String], f64); 23] = [
        ("wp_server_requests_total", "counter", &endpoint, 0.0),
        ("wp_server_errors_total", "counter", &endpoint, 0.0),
        ("wp_server_request_count", "counter", &endpoint, 0.0),
        ("wp_server_request_ns_total", "counter", &endpoint, 0.0),
        ("wp_server_request_ns_max", "gauge", &endpoint, 0.0),
        ("wp_server_request_ns_bucket", "counter", &bucket_ends, 0.0),
        ("wp_server_connections_total", "counter", &none, 1.0),
        ("wp_server_cache_hits_total", "counter", &caches, 0.0),
        ("wp_server_cache_misses_total", "counter", &caches, 0.0),
        ("wp_server_cache_evictions_total", "counter", &caches, 0.0),
        ("wp_server_cache_declined_total", "counter", &responses, 0.0),
        ("wp_stream_ingest_batches_total", "counter", &none, 0.0),
        ("wp_stream_ingest_runs_total", "counter", &none, 0.0),
        ("wp_stream_rejected_batches_total", "counter", &none, 0.0),
        ("wp_stream_evicted_runs_total", "counter", &none, 0.0),
        ("wp_stream_rebuilds_total", "counter", &none, 0.0),
        ("wp_stream_drift_events_total", "counter", &none, 0.0),
        ("wp_stream_phase_shifts_total", "counter", &none, 0.0),
        ("wp_stream_generation", "gauge", &none, 0.0),
        ("wp_stream_tenants", "gauge", &none, 0.0),
        ("wp_stream_live_references", "gauge", &none, 0.0),
        ("wp_stream_indexed_runs", "gauge", &none, indexed_runs),
        ("wp_stream_drift_ratio_micros", "gauge", &none, 0.0),
    ];
    for (family, kind, labels, expected) in families {
        assert!(
            exposition.contains(&format!("# TYPE {family} {kind}\n")),
            "{family} is not typed {kind}:\n{exposition}"
        );
        for label in labels {
            let name = format!("{family}{label}");
            assert_eq!(series_value(&series, &name), expected, "{name}");
        }
    }
}

/// The observability flag must never change response bytes: the same
/// requests against an `obs: false` and an `obs: true` server (same
/// corpus seed) answer byte-identically — and `/metrics` itself only
/// exists on the enabled server.
#[test]
fn disabled_obs_responses_are_byte_identical_to_enabled() {
    let _lock = guard();
    let mix = wp_loadgen::default_mix(7, 60);
    let probes: Vec<(&str, &str, String)> = {
        let mut p: Vec<(&str, &str, String)> = vec![
            ("GET", "/healthz", String::new()),
            ("GET", "/corpus", String::new()),
        ];
        for path in ["/fingerprint", "/similar", "/predict"] {
            let entry = mix.iter().find(|e| e.path == path).expect("mix covers it");
            p.push(("POST", entry.path, entry.body.clone()));
        }
        // The indexed retrieval path too — it is the most instrumented.
        let similar = mix.iter().find(|e| e.path == "/similar").unwrap();
        p.push((
            "POST",
            "/similar",
            similar
                .body
                .replacen('{', "{\"mode\":\"indexed\",\"k\":3,", 1),
        ));
        p
    };

    let collect = |obs: bool| -> Vec<(u16, String)> {
        let server = start_server(obs, Some(1));
        let addr = server.addr().to_string();
        let responses = probes
            .iter()
            .map(|(method, path, body)| fetch(&addr, method, path, body))
            .collect();
        let metrics = fetch(&addr, "GET", "/metrics", "");
        server.shutdown();
        if obs {
            assert_eq!(metrics.0, 200, "enabled server must serve /metrics");
            assert!(
                wp_obs::parse_prometheus(&metrics.1).is_ok(),
                "enabled /metrics must parse"
            );
        } else {
            assert_eq!(metrics.0, 404, "disabled server must keep /metrics a 404");
        }
        responses
    };

    let disabled = collect(false);
    let enabled = collect(true);
    for (((method, path, _), d), e) in probes.iter().zip(&disabled).zip(&enabled) {
        assert_eq!(d.0, 200, "{method} {path} must succeed");
        assert_eq!(
            d, e,
            "{method} {path}: response depends on the obs flag — byte-identity broken"
        );
    }
}
