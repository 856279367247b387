//! The heap framing a request takes when the request ends its
//! connection's buffer. A counting global allocator tracks live bytes,
//! and `http::take_request` over a buffer that holds exactly one
//! two-run `POST /similar` may raise their peak by less than 1 KiB: the
//! body is the buffer itself, its head drained in place, so a copy of
//! the ~95 KB body anywhere in framing would break the bound.
//!
//! The file holds one test, so no other test allocates while it counts.

mod heap;

use std::sync::atomic::Ordering::Relaxed;

use heap::{LIVE, PEAK};
use wp_json::obj;
use wp_server::http::{take_request, Parsed};
use wp_workloads::engine::Simulator;
use wp_workloads::{benchmarks, Sku};

#[test]
fn a_request_that_ends_its_buffer_takes_the_buffer_as_its_body() {
    let mut sim = Simulator::new(1);
    sim.config.samples = 360;
    let runs: Vec<_> = (0..2)
        .map(|r| sim.simulate(&benchmarks::ycsb(), &Sku::new("cpu2", 2, 64.0), 8, r, r % 3))
        .map(|run| wp_telemetry::io::run_to_json(&run))
        .collect();
    let body = obj! { "runs" => runs }.compact();
    let wire = format!(
        "POST /similar HTTP/1.1\r\nHost: wp\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    // The buffer a connection would have read the request into, with
    // room to spare, as a shard's reused buffer has.
    let mut buf = Vec::with_capacity(128 * 1024);
    buf.extend_from_slice(wire.as_bytes());
    let buffer_at = buf.as_ptr();

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let parsed = take_request(&mut buf, false);
    let growth = PEAK.load(Relaxed) - before;

    let Parsed::Request { request, consumed } = parsed else {
        panic!("the request frames: {parsed:?}");
    };
    assert_eq!(consumed, wire.len());
    assert_eq!(request.body, body);
    assert_eq!(request.path, "/similar");
    assert_eq!(
        request.body.as_ptr(),
        buffer_at,
        "the body is not the buffer"
    );
    assert!(
        buf.is_empty() && buf.capacity() == 0,
        "the buffer was not taken"
    );
    assert!(
        growth < 1024,
        "framing a {}-byte request raised the heap's peak by {growth} bytes",
        wire.len()
    );
}
