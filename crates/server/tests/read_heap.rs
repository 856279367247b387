//! The heap one cold read takes in the handler. A counting global
//! allocator tracks live bytes, and a cold two-run `POST /similar`
//! through `service::handle` may raise their peak by less than 1.5×
//! the body's length. Its runs decode straight into their matrices and
//! its cache lookup borrows the request's bytes; a JSON tree of the
//! body (about three times its size) or a copy of it into a cache key
//! would break the bound.
//!
//! The file holds one test, so no other test allocates while it counts.

mod heap;

use std::sync::atomic::Ordering::Relaxed;

use heap::{LIVE, PEAK};
use wp_core::pipeline::PipelineConfig;
use wp_json::obj;
use wp_server::corpus::simulated_corpus;
use wp_server::http::Request;
use wp_server::service::{self, ServiceState};
use wp_stream::StreamConfig;
use wp_workloads::engine::Simulator;
use wp_workloads::{benchmarks, Sku};

/// A compact `/similar` body of two runs of `samples` samples each.
fn similar_body(seed: u64, samples: usize) -> String {
    let mut sim = Simulator::new(seed);
    sim.config.samples = samples;
    let runs: Vec<_> = (0..2)
        .map(|r| sim.simulate(&benchmarks::ycsb(), &Sku::new("cpu2", 2, 64.0), 8, r, r % 3))
        .map(|run| wp_telemetry::io::run_to_json(&run))
        .collect();
    obj! { "runs" => runs }.compact()
}

fn post(body: String) -> Request {
    Request {
        method: "POST".to_string(),
        path: "/similar".to_string(),
        body,
        keep_alive: true,
    }
}

#[test]
fn a_cold_read_holds_less_than_one_and_a_half_bodies() {
    // A small corpus, so the references' share of the peak stays small
    // next to the body's.
    let state = ServiceState::new(
        simulated_corpus(0xEDB7_2025, 40),
        PipelineConfig::default(),
        Some(1),
        64,
        StreamConfig::default(),
    )
    .expect("the service boots");
    // A first read fills the per-shard reference-data cache, which
    // every later read shares.
    let (status, answer) = service::handle(&state, &post(similar_body(1, 360)));
    assert_eq!(status, 200, "{answer}");

    let req = post(similar_body(2, 360));
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let (status, answer) = service::handle(&state, &req);
    let growth = PEAK.load(Relaxed) - before;
    assert_eq!(status, 200, "{answer}");
    assert_eq!(state.response_cache_counters(), (0, 2), "both reads missed");

    let ratio = growth as f64 / req.body.len() as f64;
    assert!(
        ratio < 1.5,
        "a cold read of a {}-byte body raised the heap's peak by {growth} bytes ({ratio:.2}x)",
        req.body.len()
    );
}
