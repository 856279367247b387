//! With observability on, `/metrics` counts each ingested batch once,
//! however many shards serve, and agrees with the `/stats` ledger.
//!
//! A test binary of its own: the `wp_stream_ingest` span lives in the
//! process-global wp-obs registry, so no other test may move it while
//! this one reads deltas. The other stream series are the server's own.

use std::time::Duration;

use wp_json::Json;
use wp_loadgen::fetch;
use wp_server::corpus::simulated_corpus;
use wp_server::{Server, ServerConfig};
use wp_workloads::engine::Simulator;
use wp_workloads::{benchmarks, Sku};

const SEED: u64 = 0xEDB7_2025;
const TIMEOUT: Duration = Duration::from_secs(30);

/// One `/ingest` batch of `n` seeded TPC-C runs for `tenant`.
fn ingest_body(tenant: &str, first_run: usize, n: usize) -> String {
    let mut sim = Simulator::new(SEED);
    sim.config.samples = 40;
    let runs: Vec<_> = (first_run..first_run + n)
        .map(|r| sim.simulate(&benchmarks::tpcc(), &Sku::new("cpu2", 2, 64.0), 8, r, r % 3))
        .collect();
    format!(
        "{{\"tenant\":\"{tenant}\",\"runs\":{}}}",
        wp_telemetry::io::runs_to_json(&runs)
    )
}

/// Every series on `/metrics`; a series not registered yet reads 0.
fn scrape(addr: &str) -> impl Fn(&str) -> f64 {
    let (status, exposition) = fetch(addr, "GET", "/metrics", "", TIMEOUT).expect("scrape");
    assert_eq!(status, 200, "{exposition}");
    let series = wp_obs::parse_prometheus(&exposition).expect("exposition must parse");
    move |name: &str| {
        series
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

#[test]
fn stream_series_count_each_batch_once_across_shards() {
    let config = ServerConfig {
        workers: 2,
        compute_threads: Some(1),
        obs: true,
        ..ServerConfig::default()
    };
    let server = Server::start(simulated_corpus(SEED, 40), config).expect("server must start");
    let addr = server.addr().to_string();

    // Two runs a batch into a six-run window: from the fourth batch on,
    // every batch evicts runs and rebuilds the index.
    const BATCHES: usize = 5;
    const RUNS: usize = 2;
    let before = scrape(&addr);
    for batch in 0..BATCHES {
        let body = ingest_body("metrics", batch * RUNS, RUNS);
        let (status, resp) = fetch(&addr, "POST", "/ingest", &body, TIMEOUT).expect("ingest");
        assert_eq!(status, 200, "{resp}");
    }
    let after = scrape(&addr);
    let delta = |name: &str| after(name) - before(name);

    let (status, stats) = fetch(&addr, "GET", "/stats", "", TIMEOUT).expect("stats");
    assert_eq!(status, 200, "{stats}");
    let stats = Json::parse(&stats).expect("stats is JSON");
    let ledger = |key: &str| -> f64 {
        stats
            .get("stream")
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("/stats stream section lacks {key}"))
    };

    assert_eq!(ledger("ingested_batches"), BATCHES as f64);
    assert_eq!(ledger("ingested_runs"), (BATCHES * RUNS) as f64);
    assert_eq!(delta("wp_stream_ingest_batches_total"), BATCHES as f64);
    assert_eq!(delta("wp_stream_ingest_count"), BATCHES as f64);
    assert_eq!(
        delta("wp_stream_ingest_runs_total"),
        (BATCHES * RUNS) as f64
    );
    assert!(ledger("evicted_runs") > 0.0 && ledger("rebuilds") > 0.0);
    assert_eq!(
        delta("wp_stream_evicted_runs_total"),
        ledger("evicted_runs")
    );
    assert_eq!(delta("wp_stream_rebuilds_total"), ledger("rebuilds"));
    assert_eq!(after("wp_stream_generation"), ledger("generation"));
    server.shutdown();
}
