//! Chaos end-to-end suite: the serving path under seeded fault
//! injection.
//!
//! The contract under test has three parts:
//!
//! 1. **Liveness** — whatever the fault plan does to the wire, every
//!    logical request is classified (success or a taxonomy class);
//!    nothing panics, nothing hangs past the client timeout.
//! 2. **Determinism** — an identical `(corpus seed, fault plan, load
//!    seed, request count)` tuple reproduces the error taxonomy
//!    *byte-identically*, run over run and across compute thread
//!    counts (the fault stream is keyed on request ordinals, not time).
//! 3. **Integrity** — faults may change latency and delivery, never
//!    bytes: a response that does arrive for a given body is
//!    byte-identical to the fault-free answer, and a clean (no-fault)
//!    run still emits the legacy `BENCH_server.json` shape.

use std::sync::Arc;
use std::time::Duration;

use wp_faults::{corrupt_reference, Corruption, FaultPlan};
use wp_json::Json;
use wp_loadgen::{default_mix, run_load, LoadConfig, Report, Taxonomy};
use wp_server::corpus::{corpus_to_json, simulated_corpus};
use wp_server::{Server, ServerConfig, ServerHandle};
use wp_telemetry::io::run_to_json;
use wp_workloads::engine::Simulator;
use wp_workloads::{benchmarks, Sku};

/// The moderate plan: every wire fault armed, no stalls, so the run is
/// timing-independent and its taxonomy must replay byte-for-byte.
const MODERATE_PLAN: &str =
    "seed=7,reset=0.05,latency=0.2,latency_ms=1..3,error=0.15,slow=0.1,truncate=0.08";

fn start_faulted(plan: &str, compute_threads: usize) -> ServerHandle {
    start_faulted_on(plan, compute_threads, 2)
}

/// [`start_faulted`] on `shards` event-loop shards.
fn start_faulted_on(plan: &str, compute_threads: usize, shards: usize) -> ServerHandle {
    let faults = FaultPlan::parse(plan).expect("plan must parse");
    let corpus = simulated_corpus(0xEDB7_2025, 40);
    let config = ServerConfig {
        workers: shards,
        compute_threads: Some(compute_threads),
        faults,
        ..ServerConfig::default()
    };
    Server::start(corpus, config).expect("server must start")
}

/// One deterministic fixed-request chaos run: fresh server, fresh
/// single-connection load loop, so fault ordinals replay exactly.
fn chaos_run(plan: &str, compute_threads: usize, requests: u64) -> Report {
    let server = start_faulted(plan, compute_threads);
    let config = LoadConfig {
        addr: server.addr().to_string(),
        connections: 1,
        seed: 7,
        timeout: Duration::from_secs(5),
        retries: 3,
        requests_per_connection: Some(requests),
        ..LoadConfig::default()
    };
    let mix = default_mix(config.seed, 40);
    let report = run_load(&config, &mix).expect("chaos run must complete");
    server.shutdown();
    report
}

/// A deterministic target-workload body (same recipe as the clean e2e
/// suite): two simulated YCSB runs, byte-stable across calls.
fn target_body() -> String {
    let mut sim = Simulator::new(0xBEEF);
    sim.config.samples = 40;
    let spec = benchmarks::ycsb();
    let sku = Sku::new("cpu2", 2, 64.0);
    let runs: Vec<Json> = (0..2)
        .map(|r| run_to_json(&sim.simulate(&spec, &sku, 8, r, r % 3)))
        .collect();
    wp_json::obj! { "runs" => runs }.compact()
}

/// Retries `fetch` until a 2xx lands; on a faulted server, any single
/// attempt may be reset, truncated, or 503'd.
fn fetch_until_ok(addr: &str, method: &str, path: &str, body: &str) -> String {
    for _ in 0..50 {
        if let Ok((status, response)) =
            wp_loadgen::fetch(addr, method, path, body, Duration::from_secs(5))
        {
            if (200..300).contains(&status) {
                return response;
            }
        }
    }
    panic!("{method} {path} never succeeded in 50 attempts");
}

#[test]
fn moderate_plan_every_request_is_classified_and_most_recover() {
    let requests = 80;
    let report = chaos_run(MODERATE_PLAN, 1, requests);
    assert_eq!(
        report.requests + report.errors,
        requests,
        "every logical request must resolve to success or a counted error: {report:?}"
    );
    assert!(
        !report.taxonomy.is_clean(),
        "the moderate plan must actually inject faults: {report:?}"
    );
    assert_eq!(
        report.taxonomy.client_errors, 0,
        "injected faults are transient; none may be classified as the client's fault"
    );
    assert!(
        report.requests > report.errors,
        "retries must recover the majority of requests: {report:?}"
    );
    assert!(
        report.taxonomy.recovered > 0,
        "with a retry budget of 3 some requests must recover: {report:?}"
    );
}

/// `wp chaos --requests 60`: its default plan, seed, corpus, request
/// mix and client settings, against one shard. The two tests below
/// compare runs of one build with each other; this one pins the
/// taxonomy and the requests each endpoint served, so a client that
/// drew, retried or backed off differently fails here. A change that
/// moves these numbers updates them and says why.
#[test]
fn default_chaos_run_taxonomy_is_pinned() {
    let plan = "seed=7,reset=0.05,latency=0.2,latency_ms=1..5,error=0.15,slow=0.1,truncate=0.08";
    let server = start_faulted_on(plan, 1, 1);
    let config = LoadConfig {
        addr: server.addr().to_string(),
        connections: 1,
        seed: 0xEDB7_2025,
        timeout: Duration::from_secs(2),
        retries: 3,
        requests_per_connection: Some(60),
        ..LoadConfig::default()
    };
    let report = run_load(&config, &default_mix(config.seed, 40)).expect("chaos run");
    // Which endpoints the attempts reached: the faults are keyed on
    // request ordinals, so only these counts show the request draws.
    let stats = server.state().stats.to_json((0, 0));
    server.shutdown();
    let reached: Vec<(String, f64)> = stats
        .get("endpoints")
        .and_then(Json::as_arr)
        .expect("per-endpoint rows")
        .iter()
        .map(|row| {
            let count = |key: &str| row.get(key).and_then(Json::as_f64).unwrap_or(-1.0);
            let name = row.get("endpoint").and_then(Json::as_str).unwrap_or("?");
            (name.to_string(), count("requests"))
        })
        .filter(|(_, requests)| *requests > 0.0)
        .collect();
    assert_eq!((report.requests, report.errors), (60, 0), "{report:?}");
    assert_eq!(
        report.taxonomy,
        Taxonomy {
            resets: 0,
            timeouts: 0,
            server_errors: 12,
            client_errors: 0,
            malformed: 3,
            mismatches: 0,
            retries: 15,
            recovered: 10,
        }
    );
    let pinned = [
        ("/healthz", 6.0),
        ("/corpus", 7.0),
        ("/fingerprint", 20.0),
        ("/similar", 9.0),
        ("/predict", 23.0),
        ("/stats", 10.0),
    ]
    .map(|(name, requests)| (name.to_string(), requests));
    assert_eq!(reached, pinned);
}

#[test]
fn taxonomy_replays_byte_identically_run_over_run() {
    let a = chaos_run(MODERATE_PLAN, 1, 60);
    let b = chaos_run(MODERATE_PLAN, 1, 60);
    assert_eq!(
        a.taxonomy_json(),
        b.taxonomy_json(),
        "identical (seed, plan, requests) must replay the taxonomy byte-for-byte"
    );
}

#[test]
fn taxonomy_is_independent_of_compute_thread_count() {
    let one = chaos_run(MODERATE_PLAN, 1, 60);
    let eight = chaos_run(MODERATE_PLAN, 8, 60);
    assert_eq!(
        one.taxonomy_json(),
        eight.taxonomy_json(),
        "fault draws are keyed on request ordinals, not the compute pool"
    );
}

#[test]
fn aggressive_multi_connection_plan_stays_live() {
    // Stalls force client timeouts; resets and truncation race four
    // concurrent connections. The taxonomy is not deterministic here —
    // the invariant is liveness and complete classification.
    let plan = "seed=11,reset=0.1,error=0.2,truncate=0.1,stall=0.1,stall_ms=600";
    let server = start_faulted(plan, 2);
    let requests = 25u64;
    let connections = 4usize;
    let config = LoadConfig {
        addr: server.addr().to_string(),
        connections,
        seed: 13,
        timeout: Duration::from_millis(300), // shorter than the stall
        retries: 2,
        requests_per_connection: Some(requests),
        ..LoadConfig::default()
    };
    let mix = default_mix(config.seed, 40);
    let report = run_load(&config, &mix).expect("aggressive run must complete");
    server.shutdown();

    assert_eq!(
        report.requests + report.errors,
        connections as u64 * requests,
        "no request may vanish unclassified: {report:?}"
    );
    assert!(
        report.taxonomy.timeouts > 0,
        "600ms stalls against a 300ms timeout must classify as timeouts: {report:?}"
    );
}

#[test]
fn responses_that_arrive_under_faults_are_byte_identical_to_fault_free() {
    let clean = {
        let server = start_faulted("seed=1", 1); // parses, but disabled
        let body = target_body();
        let response = fetch_until_ok(&server.addr().to_string(), "POST", "/similar", &body);
        server.shutdown();
        response
    };
    // sanity: a disabled plan means that server really was fault-free
    assert!(clean.contains("most_similar"), "{clean}");

    // One shard: each fetch opens a fresh connection, and only one
    // shard makes them all share one response cache.
    let server = start_faulted_on(MODERATE_PLAN, 1, 1);
    let addr = server.addr().to_string();
    let body = target_body();
    let first = fetch_until_ok(&addr, "POST", "/similar", &body);
    // The second answer is stored on its miss; the third is a hit.
    let second = fetch_until_ok(&addr, "POST", "/similar", &body);
    let (hits_before, _) = server.state().response_cache_counters();
    let third = fetch_until_ok(&addr, "POST", "/similar", &body);
    let (hits_after, _) = server.state().response_cache_counters();
    assert!(
        hits_after > hits_before,
        "the third answer must come from the response cache"
    );
    assert_eq!(
        first, clean,
        "faults may delay or drop bytes, never alter them"
    );
    assert_eq!(
        second, clean,
        "a recompute under faults must also be byte-identical"
    );
    assert_eq!(
        third, clean,
        "cache hit under faults must also be byte-identical"
    );
    let health = fetch_until_ok(&addr, "GET", "/healthz", "");
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    server.shutdown();
}

#[test]
fn clean_run_report_keeps_the_legacy_shape() {
    let corpus = simulated_corpus(0xEDB7_2025, 40);
    let server = Server::start(corpus, ServerConfig::default()).expect("server must start");
    let config = LoadConfig {
        addr: server.addr().to_string(),
        connections: 2,
        seed: 7,
        requests_per_connection: Some(30),
        ..LoadConfig::default()
    };
    let mix = default_mix(config.seed, 40);
    let report = run_load(&config, &mix).expect("clean run");
    server.shutdown();

    assert!(report.taxonomy.is_clean(), "{report:?}");
    let doc = Json::parse(&report.to_json()).expect("report must be valid JSON");
    for legacy_key in [
        "experiment",
        "requests",
        "errors",
        "throughput_rps",
        "p50_ms",
    ] {
        assert!(doc.get(legacy_key).is_some(), "missing {legacy_key}");
    }
    for taxonomy_key in [
        "resets",
        "timeouts",
        "server_errors",
        "malformed",
        "recovered",
    ] {
        assert!(
            doc.get(taxonomy_key).is_none(),
            "a clean run must keep BENCH_server.json byte-compatible; found {taxonomy_key}"
        );
    }
}

#[test]
fn corrupted_corpora_fail_validation_startup_and_upload() {
    let clean_server = Server::start(simulated_corpus(0xEDB7_2025, 40), ServerConfig::default())
        .expect("server must start");
    let addr = clean_server.addr().to_string();

    for (i, mode) in Corruption::ALL.into_iter().enumerate() {
        // The corrupted reference must fail structural validation...
        let mut corpus = simulated_corpus(0xEDB7_2025, 40);
        let mut rng = wp_linalg::Rng64::new(0xBAD_C0DE + i as u64);
        corrupt_reference(Arc::make_mut(&mut corpus.references[0]), &mut rng, mode);
        let err = corpus.validate().expect_err("corruption must not validate");
        assert!(!err.is_empty());

        // ...must refuse to boot a server...
        let config = ServerConfig::default();
        assert!(
            Server::start(corpus.clone(), config).is_err(),
            "{mode:?}: a corrupted corpus must fail startup"
        );

        // ...and must bounce off a live server's validation endpoint
        // with a structured 400, not a crash or a 500.
        let posted = wp_loadgen::fetch(
            &addr,
            "POST",
            "/corpus",
            &corpus_to_json(&corpus),
            Duration::from_secs(10),
        );
        let (status, body) = posted.expect("validation endpoint must answer");
        assert_eq!(status, 400, "{mode:?}: {body}");
        let doc = Json::parse(&body).expect("400 body must be structured JSON");
        assert!(doc.get("error").unwrap().as_str().is_some(), "{mode:?}");
    }

    // The intact corpus is accepted by the same endpoint.
    let (status, body) = wp_loadgen::fetch(
        &addr,
        "POST",
        "/corpus",
        &corpus_to_json(&simulated_corpus(0xEDB7_2025, 40)),
        Duration::from_secs(10),
    )
    .expect("valid corpus upload");
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("ok").map(|v| v.compact()), Some("true".to_string()));
    clean_server.shutdown();
}

#[test]
fn server_boots_when_corruption_dice_miss() {
    // An enabled plan (reset site) leaves the corpus intact, so the
    // server validates it and boots.
    let faults = FaultPlan::parse("seed=3,reset=0.01").unwrap();
    let corpus = simulated_corpus(0xEDB7_2025, 40);
    let config = ServerConfig {
        workers: 2,
        compute_threads: Some(1),
        faults,
        ..ServerConfig::default()
    };
    let server = Server::start(corpus, config).expect("no corruption site, must boot");
    let health = fetch_until_ok(&server.addr().to_string(), "GET", "/healthz", "");
    assert!(health.contains("\"status\":\"ok\""));
    server.shutdown();
}
