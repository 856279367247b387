//! End-to-end tests of the streaming-ingest layer: a real `wp-server`
//! fed by the `wp-loadgen` streamer over real sockets.
//!
//! The mutable-corpus determinism contract under test: the same seeded
//! ingest stream produces the same corpus evolution and the same drift
//! event log — byte-identical — run-over-run and across compute thread
//! counts, while a stationary stream never fires the detector.

use std::time::Duration;

use wp_faults::FaultPlan;
use wp_json::Json;
use wp_loadgen::{run_stream, StreamerConfig};
use wp_server::corpus::simulated_corpus;
use wp_server::{Server, ServerConfig, ServerHandle};
use wp_telemetry::io::run_to_json;
use wp_workloads::engine::Simulator;
use wp_workloads::{benchmarks, Sku};

fn start_server(compute_threads: Option<usize>, obs: bool, faults: FaultPlan) -> ServerHandle {
    let corpus = simulated_corpus(0xEDB7_2025, 40);
    let config = ServerConfig {
        workers: 2,
        compute_threads,
        obs,
        faults,
        ..ServerConfig::default()
    };
    Server::start(corpus, config).expect("server must start")
}

fn streamer(
    addr: String,
    tenants: usize,
    batches: u64,
    shift_after: Option<u64>,
) -> StreamerConfig {
    StreamerConfig {
        addr,
        rate_hz: 500.0, // fast: pacing fidelity is not what these tests measure
        tenants,
        batches,
        shift_after,
        samples: 40,
        ..StreamerConfig::default()
    }
}

/// GETs `path`, retrying through injected faults, and parses the body.
fn get_json(addr: &str, path: &str) -> Json {
    let timeout = Duration::from_secs(5);
    let mut last = String::new();
    for _ in 0..25 {
        match wp_loadgen::fetch(addr, "GET", path, "", timeout) {
            Ok((200, body)) => return Json::parse(&body).expect("body must be JSON"),
            Ok((status, _)) => last = format!("status {status}"),
            Err(failure) => last = failure.to_string(),
        }
    }
    panic!("no 200 from GET {path} (last: {last})");
}

#[test]
fn stationary_stream_evolves_the_corpus_without_drift() {
    let server = start_server(Some(1), false, FaultPlan::default());
    let addr = server.addr().to_string();

    // Three tenants, six batches each, no shape-shift. Tenant 2's home
    // workload is YCSB — absent from the startup corpus.
    let report = run_stream(&streamer(addr.clone(), 3, 6, None)).expect("streamer run");
    assert_eq!(report.errors, 0);
    assert_eq!(report.batches_accepted, 18);
    assert_eq!(report.generation, 18);
    assert_eq!(report.drift_events, 0, "stationary stream fired drift");
    assert!(report.ingest_rps > 0.0);

    // The live corpus answers retrieval: a YCSB target's nearest
    // reference is now the live YCSB tenant, not a startup reference.
    let mut sim = Simulator::new(0xBEEF);
    sim.config.samples = 40;
    let spec = benchmarks::ycsb();
    let runs: Vec<Json> = (0..2)
        .map(|r| run_to_json(&sim.simulate(&spec, &Sku::new("cpu2", 2, 64.0), 8, r, r % 3)))
        .collect();
    let body = wp_json::obj! { "mode" => "indexed", "k" => 3.0, "runs" => runs }.compact();
    let (status, similar) =
        wp_loadgen::fetch(&addr, "POST", "/similar", &body, Duration::from_secs(30))
            .expect("similar request");
    assert_eq!(status, 200, "{similar}");
    let similar = Json::parse(&similar).unwrap();
    assert_eq!(
        similar.get("most_similar").and_then(Json::as_str),
        Some("live:tenant-2"),
        "{similar}"
    );
    server.shutdown();
}

#[test]
fn drift_log_is_byte_identical_across_compute_thread_counts() {
    let drift_log = |threads: usize| -> String {
        let server = start_server(Some(threads), false, FaultPlan::default());
        let addr = server.addr().to_string();
        let report = run_stream(&streamer(addr.clone(), 2, 9, Some(6))).expect("streamer run");
        assert_eq!(report.errors, 0);
        assert!(
            report.drift_events >= 2,
            "shape-shift must fire both tenants' detectors: {report:?}"
        );
        let log = get_json(&addr, "/drift");
        server.shutdown();
        log.compact()
    };

    let single = drift_log(1);
    let parallel = drift_log(8);
    assert_eq!(
        single, parallel,
        "drift log diverged between compute thread counts"
    );

    // The log carries the full event record, ordinals first.
    let doc = Json::parse(&single).unwrap();
    let events = doc.get("events").unwrap().as_arr().unwrap();
    assert!(!events.is_empty());
    for (i, event) in events.iter().enumerate() {
        assert_eq!(
            event.get("ordinal").and_then(Json::as_f64),
            Some(i as f64),
            "{single}"
        );
        assert!(event.get("ratio").unwrap().as_f64().unwrap() > 1.0);
    }
}

/// Satellite: chaos under streaming. The `wp chaos` fault sites —
/// injected latency, per-path 503s on `POST /ingest`, truncated
/// responses — fire while telemetry streams in, and the run must keep
/// the taxonomy invariant (every batch is classified: accepted + errors
/// = sent) and the liveness invariants (the server stays healthy, the
/// generation ledger equals the server-side accepted count, and a clean
/// batch still lands after the storm).
#[test]
fn faulted_ingest_stays_live_and_never_half_applies() {
    let plan =
        FaultPlan::parse("seed=7,latency=0.3,latency_ms=1..3,error:/ingest=0.25,truncate=0.15")
            .expect("fault plan");
    let server = start_server(Some(1), false, plan);
    let addr = server.addr().to_string();

    let report = run_stream(&streamer(addr.clone(), 2, 9, Some(6))).expect("streamer run");
    // Taxonomy: nothing hangs, every batch resolves to a classification.
    assert_eq!(report.batches_sent, 18);
    assert_eq!(report.batches_accepted + report.errors, report.batches_sent);
    assert!(report.errors > 0, "the storm injected nothing: {report:?}");

    // Liveness: healthz still answers and the ledger is consistent — a
    // truncated response may under-count client-side, but the server's
    // generation must equal its own accepted-batch counter exactly.
    let health = get_json(&addr, "/healthz");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    let stats = get_json(&addr, "/stats");
    let stream = stats.get("stream").expect("stream section");
    let generation = stream.get("generation").unwrap().as_f64().unwrap();
    assert_eq!(
        Some(generation),
        stream.get("ingested_batches").unwrap().as_f64(),
        "{stats:?}"
    );
    assert!(generation >= report.batches_accepted as f64);

    // A clean batch still lands after the storm (retry through faults).
    let body = wp_loadgen::stream_bodies(&streamer(addr.clone(), 1, 1, None), 0)
        .pop()
        .unwrap();
    let timeout = Duration::from_secs(5);
    let before = generation;
    let accepted = (0..25).any(|_| {
        matches!(
            wp_loadgen::fetch(&addr, "POST", "/ingest", &body, timeout),
            Ok((200, _))
        )
    });
    assert!(accepted, "no ingest got through after the storm");
    let after = get_json(&addr, "/stats");
    let generation_after = after
        .get("stream")
        .and_then(|s| s.get("generation"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(generation_after > before);
    server.shutdown();
}

#[test]
fn stream_series_are_visible_on_metrics() {
    // The stream series on `/metrics` are read from the engine this
    // server published, like the `/stats` `stream` section, so the two
    // agree exactly, whatever other servers this binary runs meanwhile.
    let server = start_server(Some(1), true, FaultPlan::default());
    let addr = server.addr().to_string();

    let report = run_stream(&streamer(addr.clone(), 2, 9, Some(6))).expect("streamer run");
    assert_eq!(report.errors, 0);
    assert!(report.drift_events >= 2);

    let (status, exposition) =
        wp_loadgen::fetch(&addr, "GET", "/metrics", "", Duration::from_secs(5))
            .expect("metrics scrape");
    assert_eq!(status, 200);
    let series = wp_obs::parse_prometheus(&exposition).expect("exposition must parse");
    let value = |name: &str| -> f64 {
        series
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("series {name} missing from /metrics"))
            .1
    };
    let stats = get_json(&addr, "/stats");
    let stream = stats.get("stream").expect("/stats has a stream section");
    for (name, key) in [
        ("wp_stream_ingest_batches_total", "ingested_batches"),
        ("wp_stream_ingest_runs_total", "ingested_runs"),
        ("wp_stream_drift_events_total", "drift_events"),
        ("wp_stream_generation", "generation"),
        ("wp_stream_live_references", "live_references"),
    ] {
        let ledger = stream.get(key).and_then(Json::as_f64).unwrap();
        assert_eq!(value(name), ledger, "{name} disagrees with /stats {key}");
    }
    assert_eq!(value("wp_stream_ingest_batches_total"), 18.0);
    assert_eq!(value("wp_stream_ingest_runs_total"), 36.0);
    assert!(value("wp_stream_drift_events_total") >= 2.0);
    assert!(value("wp_stream_live_references") > 0.0);
    assert!(value("wp_stream_drift_ratio_micros") > 0.0);
    server.shutdown();
}
