//! End-to-end contract tests of the serving tier at the socket: every
//! endpoint answers with the bytes the pure handler renders, keep-alive
//! and idle-timeout semantics, connection accounting, and shutdown
//! while actually multiplexing (the scale test holds 1024 keep-alive
//! connections open against four event-loop threads).
//!
//! The clients here are deliberately hand-rolled over `TcpStream` so
//! the tests observe raw wire bytes, not what a higher-level client
//! chooses to surface.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use wp_json::Json;
use wp_server::corpus::simulated_corpus;
use wp_server::http::{render_response_typed, Request};
use wp_server::service::{handle, ServiceState};
use wp_server::{Server, ServerConfig, ServerHandle};
use wp_workloads::engine::Simulator;
use wp_workloads::{benchmarks, Sku};

const SEED: u64 = 0xEDB7_2025;

fn start(workers: usize, idle_timeout: Duration) -> ServerHandle {
    let corpus = simulated_corpus(SEED, 60);
    let config = ServerConfig {
        workers,
        idle_timeout,
        compute_threads: Some(1),
        ..ServerConfig::default()
    };
    Server::start(corpus, config).expect("server must start")
}

/// A keep-alive HTTP/1.1 client connection that hands back the raw
/// bytes of each response, so they can be diffed wire-for-wire.
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

    fn send(&mut self, method: &str, path: &str, body: &str, keep_alive: bool) {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let request = format!(
            "{method} {path} HTTP/1.1\r\nConnection: {connection}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream
            .write_all(request.as_bytes())
            .expect("write request");
    }

    /// Reads exactly one `Content-Length`-framed response off the wire
    /// and returns its raw bytes (status line, headers, and body).
    fn read_response(&mut self) -> Vec<u8> {
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

    fn roundtrip(&mut self, method: &str, path: &str, body: &str, keep_alive: bool) -> Vec<u8> {
        self.send(method, path, body, keep_alive);
        self.read_response()
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

/// One well-formed `/ingest` body.
fn ingest_body() -> String {
    let mut sim = Simulator::new(SEED);
    sim.config.samples = 30;
    let spec = benchmarks::tpcc();
    let runs: Vec<_> = (0..2)
        .map(|r| sim.simulate(&spec, &Sku::new("cpu2", 2, 64.0), 8, r, r % 3))
        .collect();
    format!(
        "{{\"tenant\":\"e2e\",\"runs\":{}}}",
        wp_telemetry::io::runs_to_json(&runs)
    )
}

/// Every endpoint must answer with exactly the bytes the pure handler
/// renders — status line, headers, and body — before and after an
/// ingest advances the corpus generation. The handler runs on its own
/// single-shard state, fed the same requests in the same order, so
/// `/drift` equality after the ingest checks the streaming layer too.
/// `/stats` changes per request so it is checked structurally instead.
#[test]
fn every_endpoint_is_byte_identical_to_the_pure_handler() {
    let server = start(2, Duration::from_secs(30));
    let config = ServerConfig::default();
    let oracle = ServiceState::sharded(
        simulated_corpus(SEED, 60),
        config.pipeline,
        Some(1),
        config.cache_capacity,
        config.stream,
        1,
    )
    .expect("oracle state builds");
    let mut conn = Conn::open(server.addr());

    let ingest = ingest_body();
    let mut probes: Vec<(&str, &str, String)> = vec![
        ("GET", "/healthz", String::new()),
        ("GET", "/corpus", String::new()),
        ("GET", "/drift", String::new()),
    ];
    for entry in wp_loadgen::validated_mix(SEED, 60) {
        probes.push((entry.method, entry.path, entry.body));
    }
    // Advance the generation on both sides, then re-run the read mix so
    // post-ingest (multi-generation) responses are diffed too.
    probes.push(("POST", "/ingest", ingest.clone()));
    probes.push(("GET", "/drift", String::new()));
    for entry in wp_loadgen::validated_mix(SEED, 60) {
        probes.push((entry.method, entry.path, entry.body));
    }
    // Error answers are diffed too.
    probes.push(("POST", "/similar", "{not json".to_string()));
    probes.push(("GET", "/nosuch", String::new()));

    for (i, (method, path, body)) in probes.iter().enumerate() {
        let wire = conn.roundtrip(method, path, body, true);
        let (status, answer) = handle(
            &oracle,
            &Request {
                method: method.to_string(),
                path: path.to_string(),
                body: body.clone(),
                keep_alive: true,
            },
        );
        let expected = render_response_typed(status, &answer, true, "application/json", &[]);
        assert_eq!(
            wire,
            expected,
            "probe {i} ({method} {path}) diverged:\nserver:  {:?}\nhandler: {:?}",
            String::from_utf8_lossy(&wire),
            String::from_utf8_lossy(&expected)
        );
    }

    // /stats carries per-request timings; check its shape, not bytes.
    let stats =
        Json::parse(&body_of(&conn.roundtrip("GET", "/stats", "", true))).expect("/stats parses");
    for key in [
        "total_requests",
        "connections",
        "endpoints",
        "stream",
        "cache",
    ] {
        assert!(stats.get(key).is_some(), "/stats missing '{key}'");
    }
    assert_eq!(
        stats
            .get("stream")
            .and_then(|s| s.get("generation"))
            .and_then(Json::as_f64),
        Some(oracle.generation() as f64),
        "generations diverged after identical ingests"
    );

    server.shutdown();
}

/// A request's body is the buffer its connection read it into, unless a
/// pipelined successor follows it and the body is copied out. Both
/// framings, and a body that arrives over many reads, answer with the
/// pure handler's bytes.
#[test]
fn pipelined_and_split_bodies_answer_like_the_pure_handler() {
    let server = start(1, Duration::from_secs(30));
    let config = ServerConfig::default();
    let oracle = ServiceState::sharded(
        simulated_corpus(SEED, 60),
        config.pipeline,
        Some(1),
        config.cache_capacity,
        config.stream,
        1,
    )
    .expect("oracle state builds");
    let expect = |path: &str, body: &str| {
        let (status, answer) = handle(
            &oracle,
            &Request {
                method: "POST".to_string(),
                path: path.to_string(),
                body: body.to_string(),
                keep_alive: true,
            },
        );
        render_response_typed(status, &answer, true, "application/json", &[])
    };
    let wire = |path: &str, body: &str| {
        format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    };
    // Two-run bodies of the default 360 samples, ~95 KB each.
    let mix = wp_loadgen::validated_mix(SEED, 360);
    let body_of_path = |path: &str| {
        mix.iter()
            .find(|e| e.path == path)
            .map(|e| e.body.clone())
            .expect("the mix posts to the path")
    };
    let (similar, predict) = (body_of_path("/similar"), body_of_path("/predict"));
    let mut conn = Conn::open(server.addr());

    // A pipelined pair in one write: the first body has the second
    // request's bytes behind it, the second ends the buffer.
    let pair = wire("/similar", &similar) + &wire("/predict", &predict);
    conn.stream.write_all(pair.as_bytes()).expect("write pair");
    assert_eq!(conn.read_response(), expect("/similar", &similar));
    assert_eq!(conn.read_response(), expect("/predict", &predict));

    // One request in 1 KiB writes, pausing every 16 of them, so its body
    // grows over many reads.
    for (i, piece) in wire("/predict", &similar)
        .as_bytes()
        .chunks(1024)
        .enumerate()
    {
        conn.stream.write_all(piece).expect("write piece");
        if i % 16 == 15 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    assert_eq!(conn.read_response(), expect("/predict", &similar));

    server.shutdown();
}

/// Keep-alive connections are reused: one socket serves many requests,
/// `/stats` counts exactly the connections that were accepted, and
/// `Connection: close` actually closes.
#[test]
fn keep_alive_reuse_and_connection_accounting() {
    let server = start(2, Duration::from_secs(30));
    let mut conn = Conn::open(server.addr());

    let first = conn.roundtrip("GET", "/healthz", "", true);
    assert_eq!(status_of(&first), 200);
    for _ in 0..9 {
        assert_eq!(
            conn.roundtrip("GET", "/healthz", "", true),
            first,
            "keep-alive responses must not drift"
        );
    }

    // Ten served requests, one accepted connection. (The /stats
    // request itself is recorded after its body is rendered, so it
    // is absent from its own snapshot.)
    let stats =
        Json::parse(&body_of(&conn.roundtrip("GET", "/stats", "", true))).expect("/stats parses");
    assert_eq!(
        stats.get("connections").and_then(Json::as_f64),
        Some(1.0),
        "connection accounting"
    );
    assert_eq!(
        stats.get("total_requests").and_then(Json::as_f64),
        Some(10.0),
        "request accounting"
    );

    // Connection: close answers, then EOF.
    let last = conn.roundtrip("GET", "/healthz", "", false);
    assert_eq!(status_of(&last), 200);
    let mut tail = Vec::new();
    conn.stream.read_to_end(&mut tail).expect("read EOF");
    assert!(tail.is_empty(), "bytes after close response");

    server.shutdown();
}

/// A load run checks that the server is there with its first worker's
/// own connection: a one-shard server counts exactly the run's
/// connections, and a dead address still fails at once.
#[test]
fn a_load_run_opens_only_its_workers_connections() {
    let server = start(1, Duration::from_secs(30));
    let addr = server.addr().to_string();
    let config = wp_loadgen::LoadConfig {
        addr: addr.clone(),
        connections: 2,
        timeout: Duration::from_secs(10),
        requests_per_connection: Some(3),
        ..wp_loadgen::LoadConfig::default()
    };
    let mix = [wp_loadgen::MixEntry {
        method: "GET",
        path: "/healthz",
        body: String::new(),
        weight: 1,
    }];
    let report = wp_loadgen::run_load(&config, &mix).expect("load run");
    assert_eq!((report.requests, report.errors), (6, 0));
    let stats = server.state().stats.to_json((0, 0));
    assert_eq!(
        stats.get("connections").and_then(Json::as_f64),
        Some(2.0),
        "the server counted a connection the run did not use"
    );
    server.shutdown();

    let dead = wp_loadgen::LoadConfig { addr, ..config };
    let refused = TcpStream::connect(&dead.addr).expect_err("nothing listens");
    let err = wp_loadgen::run_load(&dead, &mix).expect_err("nothing listens");
    assert_eq!(err, format!("cannot connect to {}: {refused}", dead.addr));
}

/// The scale contract: the reactor holds ≥1024 concurrent keep-alive
/// connections on ≤4 event-loop threads, every one of them live (two
/// validated rounds of requests while all 1024 stay open). A server
/// with one thread per connection could not pass it with 4 threads.
#[test]
fn reactor_sustains_1024_concurrent_keepalive_connections() {
    const CONNS: usize = 1024;
    wp_reactor::raise_nofile_limit(CONNS as u64 * 2 + 512);
    let server = start(4, Duration::from_secs(120));
    let addr = server.addr();

    let mut conns: Vec<Conn> = (0..CONNS).map(|_| Conn::open(addr)).collect();
    let expected = conns[0].roundtrip("GET", "/healthz", "", true);
    assert_eq!(status_of(&expected), 200);

    for round in 0..2 {
        for (i, conn) in conns.iter_mut().enumerate() {
            let raw = conn.roundtrip("GET", "/healthz", "", true);
            assert_eq!(raw, expected, "round {round}, connection {i}");
        }
    }

    // All sockets were still open for both rounds: the accept ledger
    // must show exactly CONNS + this probe.
    let stats = Json::parse(&body_of(&conns[0].roundtrip("GET", "/stats", "", true)))
        .expect("/stats parses");
    assert_eq!(
        stats.get("connections").and_then(Json::as_f64),
        Some(CONNS as f64),
        "accept ledger"
    );
    drop(conns);
    server.shutdown();
}

/// Shutdown must not wait out idle keep-alive connections: with one
/// parked (mid-keep-alive, no request in flight) client on each of three
/// shards, `shutdown()` returns promptly instead of blocking until the
/// 30-second idle timeout would have fired.
#[test]
fn shutdown_returns_despite_idle_keepalive_connections() {
    const SHARDS: usize = 3;
    let server = start(SHARDS, Duration::from_secs(30));
    // Each connection's cheap 400 records one response-cache miss on
    // the shard that owns it.
    let mut parked = Vec::new();
    for _ in 0..SHARDS {
        let mut conn = Conn::open(server.addr());
        assert_eq!(
            status_of(&conn.roundtrip("POST", "/similar", "{not json", true)),
            400
        );
        parked.push(conn);
    }
    let misses: Vec<u64> = server
        .state()
        .shards
        .iter()
        .map(|shard| shard.responses.counters().1)
        .collect();
    assert_eq!(misses, vec![1; SHARDS], "one parked connection per shard");

    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        server.shutdown();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("shutdown hung on idle keep-alive connections");
    waiter.join().unwrap();
    // The drain closed every parked connection.
    for conn in &mut parked {
        let mut tail = Vec::new();
        conn.stream.read_to_end(&mut tail).expect("read EOF");
        assert!(tail.is_empty(), "bytes after the drain");
    }
}

/// Idle-timeout semantics: a connection that never sends a byte is
/// closed silently; one that stalls mid-request gets `400` with the
/// timeout message, then the close.
#[test]
fn idle_connections_time_out() {
    let server = start(2, Duration::from_millis(250));
    let addr = server.addr();

    // Silent close: no bytes in, no bytes out.
    let mut idle = TcpStream::connect(addr).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut out = Vec::new();
    idle.read_to_end(&mut out).expect("server closes idle conn");
    assert!(
        out.is_empty(),
        "idle close must be silent, got {:?}",
        String::from_utf8_lossy(&out)
    );

    // Stalled mid-request: 400 with the timeout message, then close.
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stalled
        .write_all(b"GET /healthz HTT")
        .expect("write partial request");
    let mut out = Vec::new();
    stalled
        .read_to_end(&mut out)
        .expect("server answers the stalled conn");
    let text = String::from_utf8_lossy(&out);
    assert!(
        text.starts_with("HTTP/1.1 400"),
        "expected 400, got {text:?}"
    );
    assert!(
        text.contains("timed out waiting for a complete request"),
        "wrong timeout body: {text:?}"
    );

    // A fresh, prompt client is still served after the timeouts.
    let mut live = Conn::open(addr);
    assert_eq!(
        status_of(&live.roundtrip("GET", "/healthz", "", false)),
        200
    );
    server.shutdown();
}
