//! End-to-end tests of the serving layer: a real `wp-server` on an
//! OS-assigned port, exercised over real sockets, plus the closed-loop
//! load generator against it.
//!
//! The determinism contract under test: response bodies are pure
//! functions of the request body — byte-identical across cache
//! cold/warm and across compute thread counts.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use wp_json::Json;
use wp_server::corpus::simulated_corpus;
use wp_server::{Server, ServerConfig, ServerHandle};
use wp_telemetry::io::run_to_json;
use wp_workloads::engine::Simulator;
use wp_workloads::{benchmarks, Sku};

fn start_server(compute_threads: Option<usize>, workers: usize) -> ServerHandle {
    let corpus = simulated_corpus(0xEDB7_2025, 60);
    let config = ServerConfig {
        workers,
        compute_threads,
        ..ServerConfig::default()
    };
    Server::start(corpus, config).expect("server must start")
}

/// One request over a fresh connection (`Connection: close`), returning
/// `(status, body)`.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("request write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response read");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// A keep-alive connection that answers like [`http`]. It stays on one
/// shard, so the requests it sends share that shard's caches.
fn keep_alive(addr: SocketAddr) -> impl FnMut(&str, &str, &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    move |method, path, body| {
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("request write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("status line");
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("malformed status line: {line:?}"));
        let mut length = 0;
        while line != "\r\n" {
            line.clear();
            reader.read_line(&mut line).expect("header line");
            if let Some(value) = line.strip_prefix("Content-Length:") {
                length = value.trim().parse().expect("Content-Length");
            }
        }
        let mut answer = vec![0; length];
        reader.read_exact(&mut answer).expect("response body");
        (status, String::from_utf8(answer).expect("UTF-8 body"))
    }
}

/// A deterministic target-workload body: two simulated YCSB runs on the
/// corpus' source SKU. Same seed → same bytes, every call.
fn target_body() -> String {
    let mut sim = Simulator::new(0xBEEF);
    sim.config.samples = 60;
    let spec = benchmarks::ycsb();
    let sku = Sku::new("cpu2", 2, 64.0);
    let runs: Vec<Json> = (0..2)
        .map(|r| run_to_json(&sim.simulate(&spec, &sku, 8, r, r % 3)))
        .collect();
    wp_json::obj! { "runs" => runs }.compact()
}

#[test]
fn every_endpoint_answers_over_a_real_socket() {
    let server = start_server(Some(1), 2);
    let addr = server.addr();
    let body = target_body();

    let (status, health) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{health}");
    let health = Json::parse(&health).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));

    let (status, corpus) = http(addr, "GET", "/corpus", "");
    assert_eq!(status, 200, "{corpus}");
    let corpus = Json::parse(&corpus).unwrap();
    let refs = corpus.get("references").unwrap().as_arr().unwrap();
    assert_eq!(refs.len(), 3);

    let (status, fp) = http(addr, "POST", "/fingerprint", &body);
    assert_eq!(status, 200, "{fp}");
    assert!(Json::parse(&fp).unwrap().get("fingerprints").is_some());

    let (status, similar) = http(addr, "POST", "/similar", &body);
    assert_eq!(status, 200, "{similar}");
    let similar = Json::parse(&similar).unwrap();
    assert!(similar.get("most_similar").unwrap().as_str().is_some());

    let (status, predict) = http(addr, "POST", "/predict", &body);
    assert_eq!(status, 200, "{predict}");
    let predict = Json::parse(&predict).unwrap();
    assert!(predict
        .get("predicted_throughput")
        .unwrap()
        .as_f64()
        .is_some());

    let (status, stats) = http(addr, "GET", "/stats", "");
    assert_eq!(status, 200, "{stats}");
    let stats = Json::parse(&stats).unwrap();
    assert!(stats.get("total_requests").unwrap().as_f64().unwrap() >= 5.0);

    server.shutdown();
}

#[test]
fn malformed_requests_get_400_not_a_dead_connection() {
    let server = start_server(Some(1), 2);
    let addr = server.addr();

    for (path, bad_body) in [
        ("/similar", "this is not json"),
        ("/similar", r#"{"runs": []}"#),
        ("/fingerprint", r#"{"no_runs_key": 1}"#),
        ("/predict", r#"{"runs": "wrong type"}"#),
    ] {
        let (status, body) = http(addr, "POST", path, bad_body);
        assert_eq!(status, 400, "{path} with {bad_body:?}: {body}");
        let doc = Json::parse(&body).unwrap();
        assert!(doc.get("error").unwrap().as_str().is_some());
    }

    let (status, _) = http(addr, "GET", "/no-such-endpoint", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "POST", "/healthz", "");
    assert_eq!(status, 405);

    // The server stays healthy after the error barrage.
    let (status, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn similar_is_byte_identical_cold_vs_warm_cache() {
    let server = start_server(Some(1), 2);
    let addr = server.addr();
    let body = target_body();

    // One connection, so one shard's cache.
    let mut send = keep_alive(addr);
    let (status, cold) = send("POST", "/similar", &body);
    assert_eq!(status, 200, "{cold}");
    // The second request stores the answer; the third is served from it.
    let (status, stored) = send("POST", "/similar", &body);
    assert_eq!(status, 200, "{stored}");
    assert_eq!(cold, stored, "a recompute must be byte-identical");
    let (status, warm) = send("POST", "/similar", &body);
    assert_eq!(status, 200, "{warm}");
    assert_eq!(cold, warm, "cache hit must be byte-identical to recompute");

    // The third request was served by the response cache.
    let (_, stats) = http(addr, "GET", "/stats", "");
    let stats = Json::parse(&stats).unwrap();
    let hits = stats
        .get("cache")
        .unwrap()
        .get("hits")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(hits >= 1.0, "expected at least one cache hit: {stats:?}");
    server.shutdown();
}

#[test]
fn responses_are_byte_identical_across_compute_thread_counts() {
    let one = start_server(Some(1), 2);
    let eight = start_server(Some(8), 2);
    let body = target_body();

    for path in ["/similar", "/predict", "/fingerprint"] {
        let (status_1, body_1) = http(one.addr(), "POST", path, &body);
        let (status_8, body_8) = http(eight.addr(), "POST", path, &body);
        assert_eq!(status_1, 200, "{path}: {body_1}");
        assert_eq!(status_8, 200, "{path}: {body_8}");
        assert_eq!(
            body_1, body_8,
            "{path} must not depend on the compute thread count"
        );
    }
    one.shutdown();
    eight.shutdown();
}

#[test]
fn loadgen_completes_a_short_run_with_zero_errors() {
    let server = start_server(Some(1), 4);
    let config = wp_loadgen::LoadConfig {
        addr: server.addr().to_string(),
        connections: 2,
        warmup: Duration::from_millis(200),
        measure: Duration::from_millis(500),
        seed: 7,
        ..wp_loadgen::LoadConfig::default()
    };
    let mix = wp_loadgen::default_mix(config.seed, 40);
    let report = wp_loadgen::run_load(&config, &mix).expect("load run");
    assert_eq!(report.errors, 0, "no request may fail: {report:?}");
    assert!(
        report.taxonomy.is_clean(),
        "a healthy server must not trip the fault taxonomy: {report:?}"
    );
    assert!(report.requests > 0, "measurement phase saw no requests");
    assert!(report.throughput_rps > 0.0);
    assert!(report.p50_ms <= report.p95_ms && report.p95_ms <= report.p99_ms);
    assert!(report.p99_ms <= report.max_ms);

    let doc = Json::parse(&report.to_json()).unwrap();
    assert_eq!(doc.get("errors").unwrap().as_f64(), Some(0.0));
    server.shutdown();
}
