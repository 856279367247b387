//! End-to-end tests of the observability layer: a real `wp-server`
//! with `--obs`, scraped over real sockets, cross-checked against both
//! the in-process registry and the `/stats` endpoint.
//!
//! Two contracts under test:
//!
//! 1. **Internal consistency** — the `/metrics` exposition, the
//!    `/stats` document, and the load generator's own accounting must
//!    agree on how many requests were served, per endpoint, under
//!    multi-worker load at both ends of the compute-parallelism range.
//! 2. **Byte-identity when disabled** — the `obs` flag may add the
//!    `/metrics` route and move counters, but it must never change a
//!    single byte of any other response.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use wp_json::Json;
use wp_server::corpus::simulated_corpus;
use wp_server::{Server, ServerConfig, ServerHandle};

/// The `wp-obs` enable gate and registry are process-global (and the
/// gate is sticky by design), so every test in this binary serializes
/// on one lock: a test reading registry deltas must not race another
/// test's server.
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
        .unwrap_or_else(|class| panic!("{method} {path} failed: {}", class.label()))
}

/// Value of an exact series name in a parsed exposition (0 if absent —
/// lazy registration means a counter that never moved has no sample).
fn series_value(series: &[(String, f64)], name: &str) -> f64 {
    series
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0.0)
}

/// Value of a counter in an in-process snapshot (0 if absent).
fn snap_counter(snap: &wp_obs::Snapshot, name: &str) -> f64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v as f64)
        .unwrap_or(0.0)
}

/// Drives a fixed multi-connection load against an `--obs` server and
/// asserts `/metrics`, `/stats`, and the loadgen report tell one story,
/// at a single compute thread and at eight.
///
/// The registry is process-global and cumulative across servers, so all
/// metric assertions are on *deltas* against a snapshot taken before
/// the server starts. The scrape order is fixed (`/stats` then
/// `/metrics`, one connection each) and the server records a request
/// after its handler renders the body, so at `/metrics`-render time the
/// registry holds exactly: the load, plus the one `/stats` scrape.
#[test]
fn metrics_stats_and_loadgen_agree_under_multiworker_load() {
    let _lock = guard();
    for compute_threads in [1usize, 8] {
        let before = wp_obs::snapshot();
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
        let (status, metrics_body) = fetch(&addr, "GET", "/metrics", "");
        assert_eq!(status, 200, "obs server must expose /metrics");
        let series = wp_obs::parse_prometheus(&metrics_body)
            .expect("exposition must round-trip through the parser");

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
            let metric_requests =
                series_value(&series, &requests_series) - snap_counter(&before, &requests_series);
            assert_eq!(
                metric_requests,
                requests + scrape_slack,
                "[threads={compute_threads}] {requests_series} disagrees with /stats"
            );

            // The per-endpoint span is observed by the same record()
            // call as the request counter: the two families must move
            // in lockstep.
            let span_series = format!("wp_server_request_count{{endpoint=\"{name}\"}}");
            let span_before = before
                .spans
                .iter()
                .find(|(n, _)| *n == format!("wp_server_request{{endpoint=\"{name}\"}}"))
                .map(|(_, s)| s.count as f64)
                .unwrap_or(0.0);
            let span_count = series_value(&series, &span_series) - span_before;
            assert_eq!(
                span_count, metric_requests,
                "[threads={compute_threads}] span count and request counter diverged for {name}"
            );

            let errors_series = format!("wp_server_errors_total{{endpoint=\"{name}\"}}");
            let metric_errors =
                series_value(&series, &errors_series) - snap_counter(&before, &errors_series);
            assert_eq!(
                metric_errors, errors,
                "error accounting diverged for {name}"
            );
            assert!(errors <= requests, "more errors than requests for {name}");

            // Percentiles are nearest-rank over observed samples: any
            // endpoint with traffic reports a real, ordered latency.
            if requests > 0.0 {
                let p50 = row.get("p50_ns").and_then(Json::as_f64).unwrap();
                let p99 = row.get("p99_ns").and_then(Json::as_f64).unwrap();
                let max = row.get("max_ns").and_then(Json::as_f64).unwrap();
                assert!(p50 >= 1.0, "{name}: p50 must be an observed sample");
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

    let before = wp_obs::snapshot();
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
    let (status, metrics_body) = fetch(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    server.shutdown();

    let series = wp_obs::parse_prometheus(&metrics_body).expect("exposition parses");
    let delta = |name: &str| series_value(&series, name) - snap_counter(&before, name);
    assert_eq!(
        delta("wp_server_cache_declined_total{cache=\"responses\"}"),
        2.0
    );
    assert_eq!(
        delta("wp_server_cache_misses_total{cache=\"responses\"}"),
        3.0
    );
    assert_eq!(
        delta("wp_server_cache_hits_total{cache=\"responses\"}"),
        1.0
    );

    let stats = Json::parse(&stats_body).expect("/stats is JSON");
    let cache = stats.get("cache").expect("/stats has cache counters");
    assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(1.0));
    assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(3.0));
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
