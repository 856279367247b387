//! End-to-end contract tests for `POST /recommend`: the what-if SKU
//! advisor must answer byte-identically on both serving backends and at
//! every compute-thread count, from cold and warm caches alike — and an
//! ingest that changes a tenant's telemetry must invalidate any cached
//! recommendation instead of replaying a stale SKU choice.
//!
//! Clients are hand-rolled over `TcpStream` so the diffs observe raw
//! wire bytes (status line, headers, body), not a client's re-rendering.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use wp_json::Json;
use wp_server::corpus::simulated_corpus;
use wp_server::{Backend, Server, ServerConfig, ServerHandle};
use wp_workloads::engine::Simulator;
use wp_workloads::{benchmarks, Sku};

const SEED: u64 = 0xEDB7_2025;

fn start(backend: Backend, compute_threads: usize) -> ServerHandle {
    let corpus = simulated_corpus(SEED, 60);
    let config = ServerConfig {
        workers: 2,
        backend,
        idle_timeout: Duration::from_secs(30),
        compute_threads: Some(compute_threads),
        ..ServerConfig::default()
    };
    Server::start(corpus, config).expect("server must start")
}

/// A keep-alive HTTP/1.1 client that hands back raw response bytes.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Conn {
            stream,
            buf: Vec::new(),
        }
    }

    fn roundtrip(&mut self, method: &str, path: &str, body: &str) -> Vec<u8> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream
            .write_all(request.as_bytes())
            .expect("write request");
        let mut scratch = [0u8; 16 * 1024];
        loop {
            if let Some(end) = find(&self.buf, b"\r\n\r\n") {
                let header_len = end + 4;
                let head = String::from_utf8_lossy(&self.buf[..header_len]).to_string();
                let body_len = head
                    .lines()
                    .find_map(|l| {
                        l.to_ascii_lowercase()
                            .strip_prefix("content-length:")
                            .and_then(|v| v.trim().parse::<usize>().ok())
                    })
                    .expect("response carries Content-Length");
                if self.buf.len() >= header_len + body_len {
                    let rest = self.buf.split_off(header_len + body_len);
                    return std::mem::replace(&mut self.buf, rest);
                }
            }
            let n = self.stream.read(&mut scratch).expect("read response");
            assert!(n > 0, "connection closed mid-response");
            self.buf.extend_from_slice(&scratch[..n]);
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn status_of(raw: &[u8]) -> u16 {
    String::from_utf8_lossy(raw)
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .expect("response starts with a status line")
}

fn body_of(raw: &[u8]) -> String {
    let at = find(raw, b"\r\n\r\n").expect("response has a header break");
    String::from_utf8_lossy(&raw[at + 4..]).to_string()
}

/// Inline observed telemetry: `n` seeded YCSB runs on the 2-CPU SKU.
fn runs_json(seed: u64, n: usize) -> String {
    let mut sim = Simulator::new(seed);
    sim.config.samples = 30;
    let runs: Vec<_> = (0..n)
        .map(|r| sim.simulate(&benchmarks::ycsb(), &Sku::new("cpu2", 2, 64.0), 8, r, r % 3))
        .collect();
    wp_telemetry::io::runs_to_json(&runs)
}

/// One `/ingest` batch for `tenant`, distinct runs per `first_run`.
fn ingest_body(tenant: &str, first_run: usize, n: usize) -> String {
    let mut sim = Simulator::new(SEED);
    sim.config.samples = 30;
    let runs: Vec<_> = (first_run..first_run + n)
        .map(|r| sim.simulate(&benchmarks::tpcc(), &Sku::new("cpu2", 2, 64.0), 8, r, r % 3))
        .collect();
    format!(
        "{{\"tenant\":\"{tenant}\",\"runs\":{}}}",
        wp_telemetry::io::runs_to_json(&runs)
    )
}

/// `/recommend` answers — success, fallback, null-recommendation, and
/// client errors — must be byte-identical across the serving backends
/// and across compute-thread counts (1 vs 8), and two repeats of each
/// probe on the same connection (a recompute that stores the answer, then
/// a response-cache hit) must return the exact cold bytes.
#[test]
fn recommend_is_byte_identical_across_backends_and_threads() {
    let servers = [
        ("workers/1", start(Backend::Workers, 1)),
        ("reactor/1", start(Backend::Reactor, 1)),
        ("workers/8", start(Backend::Workers, 8)),
        ("reactor/8", start(Backend::Reactor, 8)),
    ];
    let mut conns: Vec<(&str, Conn)> = servers
        .iter()
        .map(|(label, s)| (*label, Conn::open(s.addr())))
        .collect();

    let runs = runs_json(3, 2);
    let probes: Vec<String> = vec![
        // Met in place, forced upgrade, and unreachable SLOs.
        format!("{{\"slo\":1.0,\"runs\":{runs}}}"),
        format!("{{\"slo\":2000.0,\"runs\":{runs}}}"),
        format!("{{\"slo\":1e12,\"runs\":{runs}}}"),
        // Explicit operating point.
        format!("{{\"slo\":50.0,\"observed_cpus\":2,\"runs\":{runs}}}"),
        // Client errors must agree too.
        format!("{{\"runs\":{runs}}}"),
        format!("{{\"slo\":-1,\"runs\":{runs}}}"),
        "{\"slo\":5,\"tenant\":\"ghost\"}".to_string(),
        "{not json".to_string(),
    ];

    for (i, probe) in probes.iter().enumerate() {
        let mut answers: Vec<(&str, Vec<u8>)> = Vec::new();
        for (label, conn) in conns.iter_mut() {
            let cold = conn.roundtrip("POST", "/recommend", probe);
            // The second ask stores the answer; the third is a hit.
            let stored = conn.roundtrip("POST", "/recommend", probe);
            let warm = conn.roundtrip("POST", "/recommend", probe);
            assert_eq!(
                cold, stored,
                "{label}: probe {i} recomputed answer drifted from cold"
            );
            assert_eq!(
                cold, warm,
                "{label}: probe {i} warm answer drifted from cold"
            );
            answers.push((label, cold));
        }
        for pair in answers.windows(2) {
            assert_eq!(
                pair[0].1,
                pair[1].1,
                "probe {i} diverged between {} and {}:\n{}\n{}",
                pair[0].0,
                pair[1].0,
                String::from_utf8_lossy(&pair[0].1),
                String::from_utf8_lossy(&pair[1].1)
            );
        }
    }

    // Spot-check the contract on the agreed bytes: a low SLO is met by
    // the cheapest SKU, an unreachable one by none.
    let (_, conn) = &mut conns[0];
    let easy = body_of(&conn.roundtrip("POST", "/recommend", &probes[0]));
    let doc = Json::parse(&easy).unwrap();
    assert_eq!(doc.get("recommended").and_then(Json::as_str), Some("cpu2"));
    let unreachable = body_of(&conn.roundtrip("POST", "/recommend", &probes[2]));
    let doc = Json::parse(&unreachable).unwrap();
    assert!(
        matches!(doc.get("recommended"), Some(Json::Null)),
        "{unreachable}"
    );

    for (_, server) in servers {
        server.shutdown();
    }
}

/// The stale-recommendation regression, at the socket on both backends:
/// a cached tenant recommendation must not survive an ingest that grows
/// that tenant's window. Both backends must also agree byte-for-byte
/// after replaying the identical ingest sequence.
#[test]
fn post_ingest_recommendation_is_recomputed_not_replayed() {
    let pool = start(Backend::Workers, 1);
    let reactor = start(Backend::Reactor, 1);
    let mut a = Conn::open(pool.addr());
    let mut b = Conn::open(reactor.addr());
    let recommend = "{\"slo\":5,\"tenant\":\"live-t\"}";

    // Unknown tenant until it streams in — on both backends.
    assert_eq!(
        status_of(&a.roundtrip("POST", "/recommend", recommend)),
        400
    );
    assert_eq!(
        status_of(&b.roundtrip("POST", "/recommend", recommend)),
        400
    );

    let first = ingest_body("live-t", 0, 2);
    assert_eq!(status_of(&a.roundtrip("POST", "/ingest", &first)), 200);
    assert_eq!(status_of(&b.roundtrip("POST", "/ingest", &first)), 200);

    let before_a = a.roundtrip("POST", "/recommend", recommend);
    let before_b = b.roundtrip("POST", "/recommend", recommend);
    assert_eq!(status_of(&before_a), 200, "{}", body_of(&before_a));
    assert_eq!(before_a, before_b, "backends diverged pre-ingest");
    // Warm the cache: identical bytes again.
    assert_eq!(a.roundtrip("POST", "/recommend", recommend), before_a);

    // Grow the window; the cached answer is now for a dead generation.
    let second = ingest_body("live-t", 2, 2);
    assert_eq!(status_of(&a.roundtrip("POST", "/ingest", &second)), 200);
    assert_eq!(status_of(&b.roundtrip("POST", "/ingest", &second)), 200);

    let after_a = a.roundtrip("POST", "/recommend", recommend);
    let after_b = b.roundtrip("POST", "/recommend", recommend);
    assert_eq!(status_of(&after_a), 200, "{}", body_of(&after_a));
    assert_ne!(
        after_a, before_a,
        "post-ingest recommendation served stale cached bytes"
    );
    assert_eq!(after_a, after_b, "backends diverged post-ingest");

    // The recomputed answer reflects the doubled window.
    let doc = Json::parse(&body_of(&after_a)).unwrap();
    assert_eq!(
        doc.get("source").and_then(Json::as_str),
        Some("tenant:live-t")
    );
    assert!(
        doc.get("observed_throughput")
            .and_then(Json::as_f64)
            .unwrap()
            > 0.0,
        "{}",
        body_of(&after_a)
    );

    pool.shutdown();
    reactor.shutdown();
}
