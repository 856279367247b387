//! Seeded mutation fuzzing of the HTTP/1.1 request parser.
//!
//! Two layers, same corpus of mutants:
//!
//! 1. **In-memory**: `parse_request` over mutated byte buffers must
//!    reach a verdict at EOF — never panic, never loop (a parse over a
//!    slice makes non-termination impossible to hide: any hang would be
//!    a spin, caught by the panic-free pass completing). Its verdicts on
//!    the mutants and on hand-written cases are pinned as one digest,
//!    and every byte prefix of a mutant must either be incomplete or
//!    agree with the verdict at EOF.
//! 2. **Socket-level**: the same mutants fired at a live server must
//!    each produce either a well-formed HTTP response or a closed
//!    connection, within a client-side read timeout, and the server
//!    must still answer `/healthz` after the barrage.
//!
//! Everything is seeded through [`Rng64`], so a failing case number
//! reproduces exactly.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

use wp_json::Json;
use wp_linalg::Rng64;
use wp_server::corpus::simulated_corpus;
use wp_server::http::{parse_request, take_request, Parsed, MAX_LINE_BYTES};
use wp_server::{Server, ServerConfig, ServerHandle};
use wp_telemetry::io::{decode_runs_body, run_from_json};
use wp_telemetry::ExperimentRun;
use wp_workloads::engine::Simulator;
use wp_workloads::{benchmarks, Sku};

const SEED: u64 = 0xF022_11E5;

/// Well-formed seeds the mutator starts from: a body-less GET, a JSON
/// POST, and a keep-alive pipelined pair.
const TEMPLATES: &[&[u8]] = &[
    b"GET /healthz HTTP/1.1\r\nHost: fuzz\r\n\r\n",
    b"POST /similar HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"runs\":[]}",
    b"GET /stats HTTP/1.1\r\nConnection: keep-alive\r\n\r\nGET /stats HTTP/1.0\r\n\r\n",
];

/// Applies 1–4 random mutations (bit flips, deletions, insertions,
/// truncations, delimiter injection) to a copy of `base`.
fn mutate(rng: &mut Rng64, base: &[u8]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    for _ in 0..1 + rng.below(4) {
        if bytes.is_empty() {
            bytes.push(rng.below(256) as u8);
            continue;
        }
        let at = rng.below(bytes.len());
        match rng.below(6) {
            0 => bytes[at] ^= 1 << rng.below(8),         // bit flip
            1 => bytes[at] = rng.below(256) as u8,       // byte smash
            2 => drop(bytes.remove(at)),                 // shrink
            3 => bytes.insert(at, rng.below(256) as u8), // grow
            4 => bytes.truncate(at),                     // cut short
            _ => bytes.insert(at, *b"\r\n: ".as_slice().get(rng.below(4)).unwrap()),
        }
    }
    bytes
}

/// A fresh deterministic mutant stream; both layers replay the same one.
fn mutants() -> impl Iterator<Item = (usize, Vec<u8>)> {
    let mut rng = Rng64::new(SEED);
    (0..).map(move |case| {
        // one case in eight is pure noise, untethered from any template
        let bytes = if rng.below(8) == 0 {
            (0..rng.below(160)).map(|_| rng.below(256) as u8).collect()
        } else {
            let base = TEMPLATES[rng.below(TEMPLATES.len())];
            mutate(&mut rng, base)
        };
        (case, bytes)
    })
}

#[test]
fn parser_never_panics_on_mutated_input() {
    for (case, bytes) in mutants().take(4000) {
        let verdict = std::panic::catch_unwind(AssertUnwindSafe(|| parse_request(&bytes, true)));
        match verdict {
            Ok(Parsed::Incomplete) => panic!("case {case}: no verdict at EOF"),
            Ok(_) => {}
            Err(_) => panic!(
                "parser panicked on case {case}: {:?}",
                String::from_utf8_lossy(&bytes)
            ),
        }
    }
}

/// The framed request, if `bytes` at EOF frames one.
fn framed(bytes: &[u8]) -> Option<wp_server::http::Request> {
    match parse_request(bytes, true) {
        Parsed::Request { request, .. } => Some(request),
        _ => None,
    }
}

#[test]
fn parser_accepts_only_requests_it_can_frame() {
    // Sanity anchor for the fuzz pass: every template parses clean, so
    // the mutant stream really does start from the accepted language.
    for base in TEMPLATES {
        let req = framed(base).expect("template must parse");
        assert!(!req.method.is_empty());
        assert!(req.path.starts_with('/'));
    }
    // And a parsed mutant must uphold the same structural promises.
    let mut parsed = 0u32;
    for (case, bytes) in mutants().take(4000) {
        if let Some(req) = framed(&bytes) {
            parsed += 1;
            assert!(
                !req.method.is_empty() && !req.path.is_empty(),
                "case {case} parsed into an empty method or path"
            );
        }
    }
    assert!(
        parsed > 0,
        "mutation rate too hot: nothing survived parsing"
    );
}

/// However the bytes are sliced, the parser (what the reactor drives as
/// a connection's bytes arrive) reaches one verdict: fed a mutant one
/// byte at a time without EOF, it may only say `Incomplete` or commit to
/// the verdict it reaches on the whole mutant at EOF — the same framed
/// request and `consumed`, or the same error string.
#[test]
fn prefix_verdicts_agree_with_eof_verdicts_on_mutants() {
    for (case, bytes) in mutants().take(2000) {
        let at_eof = parse_request(&bytes, true);
        let early = (0..=bytes.len())
            .map(|end| parse_request(&bytes[..end], false))
            .find(|verdict| *verdict != Parsed::Incomplete);
        if let Some(early) = early {
            assert_eq!(
                early, at_eof,
                "case {case}: early verdict contradicts the EOF verdict"
            );
        }
    }
}

/// Hand-written framing cases: the `http.rs` unit-test inputs, header
/// lines one byte either side of the 8 KiB cap under four terminators,
/// request lines of the same lengths, and a body longer than the cap cut
/// short at six points.
fn hand_cases() -> Vec<Vec<u8>> {
    let mut cases: Vec<Vec<u8>> = [
        &b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"[..],
        b"POST /similar HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET / HTTP/1.0\r\n\r\n",
        b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        b"GET /stats?pretty=1 HTTP/1.1\r\n\r\n",
        b"GET /stats?pretty=1 HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET\r\n\r\n",
        b"GET / SPDY/3\r\n\r\n",
        b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
        b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
        b"POST / HTTP/1.1\r\nContent-Length: 11\r\nContent-Length: 3\r\n\r\n{\"runs\":[]}",
        b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc",
        b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\na\xff\xfe",
        b"POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
        b"GET / HTTP/1.1\r\nX-Tail: v\r\n\r",
        b"GET / HTTP/1.1\r\n",
        b"GET / HT",
        b"GET /healthz HTTP/1.1\r\n\r\nPOST /similar HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
        b"",
    ]
    .iter()
    .map(|case| case.to_vec())
    .collect();
    cases.push(vec![b'A'; MAX_LINE_BYTES + 3]);
    cases.push(vec![b'A'; 64]);
    for len in MAX_LINE_BYTES - 1..=MAX_LINE_BYTES + 1 {
        for end in ["\n", "\r\n", "\r\r\n", "\r\r\r\n"] {
            let pad = "a".repeat(len - "X-Pad: ".len());
            cases.push(format!("GET / HTTP/1.1\r\nX-Pad: {pad}{end}\r\n").into_bytes());
        }
        let target = "b".repeat(len - "GET / HTTP/1.1".len());
        cases.push(format!("GET /{target} HTTP/1.1\r\n\r\n").into_bytes());
    }
    let body = "c".repeat(3 * MAX_LINE_BYTES);
    let full = format!(
        "POST /similar HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let head = full.len() - body.len();
    for cut in [
        0,
        1,
        MAX_LINE_BYTES,
        MAX_LINE_BYTES + 3,
        body.len() - 1,
        body.len(),
    ] {
        cases.push(full.as_bytes()[..head + cut].to_vec());
    }
    cases
}

/// FNV-1a over length-prefixed fields, so the digest depends on the
/// verdicts' bytes alone and not on any `Debug` rendering.
struct Digest(u64);

impl Digest {
    fn field(&mut self, bytes: &[u8]) {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn verdict(&mut self, parsed: &Parsed) {
        match parsed {
            Parsed::Incomplete => self.field(b"incomplete"),
            Parsed::Closed => self.field(b"closed"),
            Parsed::Invalid(msg) => {
                self.field(b"invalid");
                self.field(msg.as_bytes());
            }
            Parsed::Request { request, consumed } => {
                self.field(b"request");
                self.field(request.method.as_bytes());
                self.field(request.path.as_bytes());
                self.field(request.body.as_bytes());
                self.field(&[u8::from(request.keep_alive)]);
                self.field(&(*consumed as u64).to_le_bytes());
            }
        }
    }
}

/// Every verdict the parser reaches on the first 4000 mutants and the
/// hand cases, pinned as one digest: the verdict at EOF, and the first
/// verdict other than `Incomplete` over the byte prefixes without EOF,
/// with the prefix length it appears at. Framed fields, `consumed` and
/// error strings all count, so any change to what the parser accepts,
/// rejects or says moves the digest.
#[test]
fn parser_verdicts_match_the_pinned_digest() {
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    for bytes in mutants()
        .take(4000)
        .map(|(_, bytes)| bytes)
        .chain(hand_cases())
    {
        digest.verdict(&parse_request(&bytes, true));
        let early = (0..=bytes.len()).find_map(|end| match parse_request(&bytes[..end], false) {
            Parsed::Incomplete => None,
            verdict => Some((end, verdict)),
        });
        match early {
            Some((end, verdict)) => {
                digest.field(&(end as u64).to_le_bytes());
                digest.verdict(&verdict);
            }
            None => digest.field(b"never"),
        }
    }
    assert_eq!(
        digest.0, 0x9630_ec7f_6cf4_d609,
        "a parser verdict changed: {:#018x}",
        digest.0
    );
}

/// `take_request` frames in a connection's own buffer and takes the
/// buffer as the body of a request that ends it. It must reach
/// `parse_request`'s verdict on `bytes` and leave exactly the bytes the
/// request did not consume.
fn assert_take_agrees(bytes: &[u8], eof: bool) {
    let expected = parse_request(bytes, eof);
    let mut buf = bytes.to_vec();
    let taken = take_request(&mut buf, eof);
    assert_eq!(
        taken,
        expected,
        "{:?} (eof {eof})",
        String::from_utf8_lossy(bytes)
    );
    match expected {
        Parsed::Request { consumed, .. } => assert_eq!(buf, bytes[consumed..]),
        Parsed::Incomplete | Parsed::Closed => assert_eq!(buf, bytes),
        Parsed::Invalid(_) => {}
    }
}

#[test]
fn take_request_agrees_with_parse_request() {
    for (_, bytes) in mutants().take(2000) {
        for end in 0..=bytes.len() {
            assert_take_agrees(&bytes[..end], false);
        }
        assert_take_agrees(&bytes, true);
    }
    for bytes in hand_cases() {
        assert_take_agrees(&bytes, false);
        assert_take_agrees(&bytes, true);
    }
}

fn start_server() -> ServerHandle {
    let corpus = simulated_corpus(0xEDB7_2025, 60);
    let config = ServerConfig {
        workers: 2,
        compute_threads: Some(1),
        ..ServerConfig::default()
    };
    Server::start(corpus, config).expect("server must start")
}

/// Fires `bytes` at the server and returns everything it sends back.
/// Panics (failing the test) if the server neither responds nor closes
/// within the read timeout — the "no hangs" invariant.
fn fire(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // The server may already have rejected the prefix and closed; a
    // write error then is the connection-reset outcome, not a failure.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .expect("server must respond or close before the read timeout");
    response
}

/// Regression: a request line streamed without a newline must be
/// rejected at the parser's 8 KiB cap, not buffered until the peer
/// relents. The client sends one byte more than a maximal CRLF line and
/// keeps its write side open, so only the cap itself can end the
/// exchange: the server must answer `400` and close before the client's
/// read timeout.
#[test]
fn newline_less_header_flood_is_rejected_early() {
    let server = start_server();
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(&[b'A'; MAX_LINE_BYTES + 3])
        .expect("the flood fits in the socket buffers");
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .expect("server must answer and close before the read timeout");
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 400 "), "{text}");
    assert!(
        text.ends_with("{\"error\":\"header line exceeds 8 KiB\"}"),
        "{text}"
    );

    // the flood must not have wedged the shard
    let health = fire(addr, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(
        String::from_utf8_lossy(&health).starts_with("HTTP/1.1 200"),
        "server unhealthy after the flood"
    );
    server.shutdown();
}

/// Regression: a header value that spells out the text the parser once
/// used internally to mean "need more bytes" is an ordinary bad value.
/// It used to park the connection until the idle timeout, and the
/// request pipelined behind it was never answered; now it gets its `400`
/// at once and the connection closes.
#[test]
fn sentinel_text_in_a_header_is_rejected_at_once() {
    let idle_timeout = Duration::from_secs(2);
    let server = Server::start(
        simulated_corpus(0xEDB7_2025, 60),
        ServerConfig {
            workers: 2,
            compute_threads: Some(1),
            idle_timeout,
            ..ServerConfig::default()
        },
    )
    .expect("server must start");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    stream
        .write_all(
            b"POST / HTTP/1.1\r\nContent-Length: incremental parse suspended: need more bytes\r\n\r\n\
              GET /healthz HTTP/1.1\r\n\r\n",
        )
        .unwrap();
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .expect("the server answers and closes");
    let elapsed = started.elapsed();
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 400 "), "{text}");
    assert!(
        text.ends_with(
            "{\"error\":\"bad Content-Length 'incremental parse suspended: need more bytes'\"}"
        ),
        "{text}"
    );
    assert_eq!(text.matches("HTTP/1.1 ").count(), 1, "{text}");
    assert!(
        elapsed < idle_timeout / 2,
        "answered after {elapsed:?}, idle timeout {idle_timeout:?}"
    );
    server.shutdown();
}

/// One well-formed `/ingest` body the ingest mutators start from.
fn ingest_template() -> String {
    let mut sim = Simulator::new(0xEDB7_2025);
    sim.config.samples = 30;
    let spec = benchmarks::tpcc();
    let runs: Vec<_> = (0..2)
        .map(|r| sim.simulate(&spec, &Sku::new("cpu2", 2, 64.0), 8, r, r % 3))
        .collect();
    format!(
        "{{\"tenant\":\"fuzz\",\"runs\":{}}}",
        wp_telemetry::io::runs_to_json(&runs)
    )
}

/// POSTs `body` to `/ingest` with correct framing; `None` means the
/// server closed without a response (acceptable rejection).
fn post_ingest(addr: SocketAddr, body: &[u8]) -> Option<u16> {
    let mut request = format!(
        "POST /ingest HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    let response = fire(addr, &request);
    if response.is_empty() {
        return None;
    }
    String::from_utf8_lossy(&response)
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|s| s.parse().ok())
}

/// The streaming engine's generation counter, read over HTTP.
fn generation(addr: SocketAddr) -> u64 {
    let response = fire(addr, b"GET /drift HTTP/1.1\r\nConnection: close\r\n\r\n");
    let text = String::from_utf8_lossy(&response);
    let body = text.split("\r\n\r\n").nth(1).expect("drift response body");
    Json::parse(body)
        .expect("drift body is JSON")
        .get("generation")
        .and_then(Json::as_f64)
        .expect("drift body has a generation") as u64
}

/// Satellite invariant for `POST /ingest`: hostile bodies — truncated
/// batches, non-finite or negative samples, shape-shifted matrices,
/// oversized payloads — produce clean 400s (or a close), never a panic
/// and never a *partial* corpus mutation. The generation counter counts
/// exactly the accepted batches, so any mutant that half-applied before
/// erroring would show up as a generation/accepted mismatch.
#[test]
fn ingest_mutants_never_partially_mutate_the_corpus() {
    let server = start_server();
    let addr = server.addr();
    let template = ingest_template();

    // Targeted poisons: still valid JSON, but with a non-finite
    // throughput, a negative sample interval, a non-finite sample inside
    // the resource matrix, and a row/column shape lie. All must die in
    // validation, before any mutation.
    let poisoned = [
        template.replacen("\"throughput\":", "\"throughput\":1e999,\"x\":", 1),
        template.replacen(
            "\"sample_interval_secs\":",
            "\"sample_interval_secs\":-1,\"x\":",
            1,
        ),
        template.replacen("          1,\n", "          1e999,\n", 1),
        template.replacen("\"cols\": 7", "\"cols\": 8", 1),
    ];
    for (i, body) in poisoned.iter().enumerate() {
        assert_ne!(body.as_str(), template, "poison {i} failed to splice");
        let status = post_ingest(addr, body.as_bytes());
        assert_eq!(status, Some(400), "poisoned body {i}: {status:?}");
    }
    assert_eq!(generation(addr), 0, "a poisoned body mutated the corpus");

    // Seeded byte-level mutants of the valid body: bit flips, splices,
    // truncations. Each must answer 200 (a mutant that stayed valid) or
    // 400 — and the generation ledger must match the 200s exactly.
    let mut accepted = 0u64;
    let mut rng = Rng64::new(SEED ^ 0x1236_5417);
    for case in 0..120 {
        let bytes = mutate(&mut rng, template.as_bytes());
        match post_ingest(addr, &bytes) {
            None => {} // closed at the framing layer
            Some(200) => accepted += 1,
            Some(400) => {}
            Some(s) => panic!("ingest mutant {case}: unexpected status {s}"),
        }
    }
    assert_eq!(
        generation(addr),
        accepted,
        "generation ledger diverged from accepted batches"
    );

    // A Content-Length past the body cap is bounced before buffering.
    let huge = format!(
        "POST /ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        64 * 1024 * 1024
    );
    let response = fire(addr, huge.as_bytes());
    if !response.is_empty() {
        let head = String::from_utf8_lossy(&response);
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    }

    // The barrage left a working ingest path behind.
    assert_eq!(post_ingest(addr, template.as_bytes()), Some(200));
    assert_eq!(generation(addr), accepted + 1);
    server.shutdown();
}

/// POSTs `body` to `path` with correct framing; `None` means the server
/// closed without a response (acceptable rejection).
fn post_json(addr: SocketAddr, path: &str, body: &[u8]) -> Option<u16> {
    let mut request = format!(
        "POST {path} HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    let response = fire(addr, &request);
    if response.is_empty() {
        return None;
    }
    String::from_utf8_lossy(&response)
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|s| s.parse().ok())
}

/// One well-formed `/recommend` body the recommend mutators start from.
fn recommend_template() -> String {
    let mut sim = Simulator::new(0xEDB7_2025);
    sim.config.samples = 30;
    let runs: Vec<_> = (0..2)
        .map(|r| sim.simulate(&benchmarks::ycsb(), &Sku::new("cpu2", 2, 64.0), 8, r, r % 3))
        .collect();
    format!(
        "{{\"slo\":50.0,\"runs\":{}}}",
        wp_telemetry::io::runs_to_json(&runs)
    )
}

/// Satellite invariant for `POST /recommend`: hostile bodies — malformed
/// JSON, non-finite/negative/absent SLOs, unknown or ill-typed tenant
/// names, truncated payloads — are clean 400s, never a panic, a hang,
/// or a 200 that smuggles a recommendation out of garbage. Byte-level
/// mutants of a valid body may stay valid (200) or die in validation
/// (400); anything else fails the test. `/recommend` is read-only, so
/// the generation ledger must never move.
#[test]
fn recommend_mutants_never_yield_garbage_recommendations() {
    let server = start_server();
    let addr = server.addr();
    let template = recommend_template();

    // Anchor: the unmutated template is a real recommendation.
    assert_eq!(
        post_json(addr, "/recommend", template.as_bytes()),
        Some(200),
        "template must recommend"
    );

    // Targeted poisons, each a must-400 (never 200, never a panic).
    let poisons = [
        "{not json".to_string(),
        "{}".to_string(),
        template.replacen("\"slo\":50.0", "\"slo\":-5", 1),
        template.replacen("\"slo\":50.0", "\"slo\":0", 1),
        template.replacen("\"slo\":50.0", "\"slo\":1e999", 1),
        template.replacen("\"slo\":50.0", "\"slo\":null", 1),
        template.replacen("\"slo\":50.0", "\"slo\":\"fast\"", 1),
        template.replacen("\"slo\":50.0,", "", 1),
        template.replacen('{', "{\"tenant\":\"also\",", 1),
        template.replacen('{', "{\"observed_cpus\":-2,", 1),
        "{\"slo\":5,\"tenant\":\"no-such-tenant\"}".to_string(),
        "{\"slo\":5,\"tenant\":7}".to_string(),
        "{\"slo\":5,\"tenant\":\"bad name!\"}".to_string(),
        "{\"slo\":5,\"runs\":[]}".to_string(),
    ];
    for (i, body) in poisons.iter().enumerate() {
        assert_ne!(body.as_str(), template, "poison {i} failed to splice");
        let status = post_json(addr, "/recommend", body.as_bytes());
        assert_eq!(status, Some(400), "poison {i}: {status:?}");
    }

    // Truncations framed honestly (Content-Length matches the cut):
    // always malformed JSON, always 400.
    for cut in [1, 10, template.len() / 2, template.len() - 1] {
        let status = post_json(addr, "/recommend", &template.as_bytes()[..cut]);
        assert_eq!(status, Some(400), "truncation at {cut}");
    }

    // Seeded byte-level mutants: 200 (still valid), 400, or closed.
    let mut rng = Rng64::new(SEED ^ 0x7EC0_33E4);
    for case in 0..120 {
        let bytes = mutate(&mut rng, template.as_bytes());
        match post_json(addr, "/recommend", &bytes) {
            None | Some(200) | Some(400) => {}
            Some(s) => panic!("recommend mutant {case}: status {s}"),
        }
    }

    // Read-only endpoint: nothing above may have touched the corpus,
    // and the barrage must leave a working recommender behind.
    assert_eq!(generation(addr), 0, "/recommend mutated the corpus");
    assert_eq!(
        post_json(addr, "/recommend", template.as_bytes()),
        Some(200)
    );
    let health = fire(addr, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(
        String::from_utf8_lossy(&health).starts_with("HTTP/1.1 200"),
        "server unhealthy after the recommend barrage"
    );
    server.shutdown();
}

/// The socket-level barrage: the event-driven state machines answer
/// or close on every mutant, and a wedged connection shows up as a hung
/// `/healthz` afterwards.
#[test]
fn live_server_answers_or_closes_on_every_mutant() {
    let server = start_server();
    let addr = server.addr();

    for (case, bytes) in mutants().take(250) {
        let response = fire(addr, &bytes);
        if response.is_empty() {
            continue; // closed without a response: acceptable rejection
        }
        let head = String::from_utf8_lossy(&response);
        let status: Option<u16> = head
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|s| s.parse().ok());
        match status {
            Some(s) if (200..=599).contains(&s) => {}
            _ => panic!(
                "case {case}: response is not HTTP: {:?} (request {:?})",
                head.chars().take(80).collect::<String>(),
                String::from_utf8_lossy(&bytes)
            ),
        }
    }

    // The barrage must not have wedged a shard.
    let health = fire(addr, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    let head = String::from_utf8_lossy(&health);
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "server unhealthy after fuzzing: {head:?}"
    );
    server.shutdown();
}

/// One well-formed `/fingerprint` body (also a valid `/similar` body).
fn fingerprint_template() -> String {
    let mut sim = Simulator::new(0xEDB7_2025);
    sim.config.samples = 30;
    let runs: Vec<_> = (0..2)
        .map(|r| sim.simulate(&benchmarks::ycsb(), &Sku::new("cpu2", 2, 64.0), 8, r, r % 3))
        .collect();
    format!("{{\"runs\":{}}}", wp_telemetry::io::runs_to_json(&runs))
}

/// The startup-selected feature names, read off `GET /corpus`.
fn selected_features(addr: SocketAddr) -> Vec<String> {
    let response = fire(addr, b"GET /corpus HTTP/1.1\r\nConnection: close\r\n\r\n");
    let text = String::from_utf8_lossy(&response);
    let body = text.split("\r\n\r\n").nth(1).expect("corpus response body");
    Json::parse(body)
        .expect("corpus body is JSON")
        .get("selected_features")
        .and_then(Json::as_arr)
        .expect("corpus body lists selected features")
        .iter()
        .map(|f| f.as_str().expect("feature names are strings").to_string())
        .collect()
}

/// Satellite invariant for `POST /fingerprint` and `POST /similar`: the
/// representation preconditions that used to panic deep inside
/// `wp-similarity` (unknown representation names, zero / ill-typed /
/// over-the-cap bin counts, empty run arrays, ragged MTS observation
/// counts) are clean 400s — never a worker-killing panic — and every
/// satisfiable representation still answers 200.
#[test]
fn fingerprint_poisons_die_in_validation() {
    const RESOURCE_NAMES: &[&str] = &[
        "CPU_UTILIZATION",
        "CPU_EFFECTIVE",
        "MEM_UTILIZATION",
        "IOPS_TOTAL",
        "READ_WRITE_RATIO",
        "LOCK_REQ_ABS",
        "LOCK_WAIT_ABS",
    ];
    let server = start_server();
    let addr = server.addr();
    let template = fingerprint_template();
    let selected = selected_features(addr);
    let has_plan = selected
        .iter()
        .any(|f| !RESOURCE_NAMES.contains(&f.as_str()));
    let has_resource = selected
        .iter()
        .any(|f| RESOURCE_NAMES.contains(&f.as_str()));

    // Must-400 poisons, one per converted panic path.
    let poisons = [
        template.replacen('{', "{\"representation\":\"bogus\",", 1),
        template.replacen('{', "{\"representation\":\"Hist-FP\",", 1), // labels are not short names
        template.replacen('{', "{\"nbins\":0,", 1),
        template.replacen('{', "{\"nbins\":-4,", 1),
        template.replacen('{', "{\"nbins\":\"many\",", 1),
        template.replacen('{', "{\"nbins\":2.5,", 1),
        // past the 1024-bin cap: 1e12 used to abort the process
        template.replacen('{', "{\"nbins\":1025,", 1),
        template.replacen('{', "{\"nbins\":1e12,", 1),
        "{\"runs\":[]}".to_string(),
        "{\"runs\":7}".to_string(),
        "{not json".to_string(),
    ];
    for (i, body) in poisons.iter().enumerate() {
        assert_ne!(body.as_str(), template, "poison {i} failed to splice");
        let status = post_json(addr, "/fingerprint", body.as_bytes());
        assert_eq!(status, Some(400), "fingerprint poison {i}: {status:?}");
    }

    // Every representation answers deterministically: 200 when its
    // preconditions hold on this corpus, 400 (never a panic) otherwise.
    for (short, ok) in [
        ("hist", true),
        ("phase", true),
        // MTS needs one shared observation count, impossible once plan
        // (per-query) features sit next to resource (per-sample) ones.
        ("mts", !(has_plan && has_resource)),
        // a formerly accepted name, now unknown like "bogus"
        ("embed", false),
    ] {
        let body = template.replacen('{', &format!("{{\"representation\":\"{short}\","), 1);
        let status = post_json(addr, "/fingerprint", body.as_bytes());
        let want = if ok { 200 } else { 400 };
        assert_eq!(status, Some(want), "representation '{short}': {status:?}");
    }

    let at_the_cap = template.replacen('{', "{\"nbins\":1024,", 1);
    assert_eq!(
        post_json(addr, "/fingerprint", at_the_cap.as_bytes()),
        Some(200)
    );

    // `/similar` shares the runs parser and the fingerprint dispatch.
    for body in ["{\"runs\":[]}", "{not json"] {
        let status = post_json(addr, "/similar", body.as_bytes());
        assert_eq!(status, Some(400), "similar poison {body:?}: {status:?}");
    }
    assert_eq!(post_json(addr, "/similar", template.as_bytes()), Some(200));

    // The barrage left a healthy server: the poisons were rejected in
    // validation, not by killing a worker.
    let health = fire(addr, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(
        String::from_utf8_lossy(&health).starts_with("HTTP/1.1 200"),
        "server unhealthy after fingerprint poisons"
    );
    assert_eq!(
        generation(addr),
        0,
        "a read-only endpoint mutated the corpus"
    );
    server.shutdown();
}

/// Regression: an indexed `/similar` with a huge `"k"` used to size the
/// top-k buffer from `k` and abort the whole process on the failed
/// allocation. Any `k` at or past the corpus size must answer exactly as
/// `k` = corpus size does, apart from the echoed `"k"`.
#[test]
fn huge_indexed_k_is_answered_like_the_whole_corpus() {
    let server = start_server();
    let addr = server.addr();
    let response = fire(addr, b"GET /corpus HTTP/1.1\r\nConnection: close\r\n\r\n");
    let text = String::from_utf8_lossy(&response);
    let corpus_runs: usize = Json::parse(text.split("\r\n\r\n").nth(1).unwrap())
        .unwrap()
        .get("references")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|r| r.get("runs_from").and_then(Json::as_usize).unwrap())
        .sum();

    let template = fingerprint_template();
    let indexed = |k: &str| {
        let body = template.replacen('{', &format!("{{\"mode\":\"indexed\",\"k\":{k},"), 1);
        let request = format!(
            "POST /similar HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let response = String::from_utf8(fire(addr, request.as_bytes())).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").expect("a response");
        assert!(head.starts_with("HTTP/1.1 200"), "k={k}: {head}");
        Json::parse(body).unwrap()
    };
    let whole = indexed(&corpus_runs.to_string());
    for k in ["1e15", "18446744073709551615"] {
        let doc = indexed(k);
        for field in ["most_similar", "verdicts", "pruning"] {
            assert_eq!(doc.get(field), whole.get(field), "k={k}: {field}");
        }
    }

    let health = fire(addr, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(
        String::from_utf8_lossy(&health).starts_with("HTTP/1.1 200"),
        "server unhealthy after a huge k"
    );
    server.shutdown();
}

/// Regression: the JSON parser recursed once per `[` or `{` with no
/// bound, so a `POST` of 200,000 `[` overflowed a shard thread's stack
/// and killed the server. Every endpoint that reads a JSON body now
/// answers such a body with a 400 naming the nesting bound, from the
/// same shard, which then still answers `/healthz`.
#[test]
fn deeply_nested_bodies_are_a_400_not_a_dead_server() {
    let corpus = simulated_corpus(0xEDB7_2025, 60);
    let config = ServerConfig {
        workers: 1,
        compute_threads: Some(1),
        ..ServerConfig::default()
    };
    let server = Server::start(corpus, config).expect("server must start");
    let addr = server.addr();
    let flood = "[".repeat(200_000);
    let under_runs = format!("{{\"runs\":{flood}");
    for path in [
        "/similar",
        "/fingerprint",
        "/predict",
        "/recommend",
        "/ingest",
        "/corpus",
    ] {
        for body in [&flood, &under_runs] {
            let request = format!(
                "POST {path} HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let response = String::from_utf8(fire(addr, request.as_bytes())).unwrap();
            let (head, answer) = response.split_once("\r\n\r\n").expect("a response");
            assert!(head.starts_with("HTTP/1.1 400"), "{path}: {head}");
            let prefix = match path {
                "/corpus" => "invalid corpus JSON",
                _ => "invalid JSON body",
            };
            let error = Json::parse(answer).unwrap();
            let error = error.get("error").and_then(Json::as_str).unwrap();
            assert!(
                error.starts_with(&format!(
                    "{prefix}: nesting deeper than 128 levels at byte "
                )),
                "{path}: {error}"
            );
        }
    }
    let health = fire(addr, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(
        String::from_utf8_lossy(&health).starts_with("HTTP/1.1 200"),
        "server unhealthy after deeply nested bodies"
    );
    server.shutdown();
}

/// The decode of a body as the tree path sees it: `Json::parse`, the
/// first `"runs"` member decoded by `run_from_json`, and every other
/// member; `None` wherever that path answers 400.
fn tree_decode(body: &str) -> Option<(Json, Vec<ExperimentRun>)> {
    let Json::Obj(members) = Json::parse(body).ok()? else {
        return None;
    };
    let runs = members.iter().find(|(key, _)| key == "runs")?.1.as_arr()?;
    let runs: Vec<_> = runs
        .iter()
        .map(run_from_json)
        .collect::<Result<_, _>>()
        .ok()?;
    let others = members
        .into_iter()
        .filter(|(key, _)| key != "runs")
        .collect();
    (!runs.is_empty()).then_some((Json::Obj(others), runs))
}

/// Whether two trees are equal with every number compared by its bits.
fn same_bits(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same_bits(x, y))
        }
        _ => a == b,
    }
}

/// Everything a run holds, with each number as its bits.
fn run_bits(run: &ExperimentRun) -> impl PartialEq + std::fmt::Debug + '_ {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let matrix = |m: &wp_linalg::Matrix| (m.rows(), m.cols(), bits(m.as_slice()));
    (
        &run.key,
        matrix(&run.resources.data),
        run.resources.sample_interval_secs.to_bits(),
        matrix(&run.plans.data),
        &run.plans.query_names,
        bits(&[run.throughput, run.latency_ms]),
        bits(&run.per_query_latency_ms),
    )
}

/// Checks the typed decoder against the tree on `body`: it declines, or
/// it returns the tree's other members and runs, bit for bit. Returns
/// whether it took the body.
fn typed_agrees_with_tree(case: &str, body: &str) -> bool {
    let tree = tree_decode(body);
    let Some((others, runs)) = decode_runs_body(body) else {
        return false;
    };
    let (tree_others, tree_runs) =
        tree.unwrap_or_else(|| panic!("{case}: typed took a body the tree rejects"));
    assert!(
        same_bits(&others, &tree_others),
        "{case}: other members differ"
    );
    assert_eq!(runs.len(), tree_runs.len(), "{case}");
    for (typed, tree) in runs.iter().zip(&tree_runs) {
        assert_eq!(run_bits(typed), run_bits(tree), "{case}");
    }
    true
}

/// The typed `"runs"` decoder against today's tree decode, on the ingest
/// and recommend mutants above, on fresh mutants of `/similar`,
/// `/predict` and `/fingerprint` bodies, and on hand cases. On each it
/// declines or agrees bit for bit, and it takes every valid template.
#[test]
fn typed_decode_agrees_with_the_tree_on_every_body() {
    let fingerprint = fingerprint_template();
    let similar = fingerprint.replacen('{', "{\"mode\":\"indexed\",\"k\":3,", 1);
    let predict = fingerprint.replacen('{', "{\"from_cpus\":2,\"to_cpus\":8,", 1);
    let compact = Json::parse(&similar).unwrap().compact();
    let (mut taken, mut valid) = (0, 0);
    let mut check = |case: String, body: &[u8]| {
        let body = String::from_utf8_lossy(body);
        valid += usize::from(tree_decode(&body).is_some());
        taken += usize::from(typed_agrees_with_tree(&case, &body));
    };
    // (template, its mutant stream's seed, mutants): the first two are
    // the streams the ingest and recommend tests above fire.
    let templates = [
        ("ingest", ingest_template(), SEED ^ 0x1236_5417, 120),
        ("recommend", recommend_template(), SEED ^ 0x7EC0_33E4, 120),
        ("similar", similar, SEED ^ 0x51A1, 200),
        ("predict", predict, SEED ^ 0x94ED, 200),
        ("fingerprint", fingerprint, SEED ^ 0xF1A6, 200),
        ("compact", compact, SEED ^ 0xC0AC, 200),
    ];
    for (name, template, seed, mutants) in &templates {
        assert!(
            typed_agrees_with_tree(name, template),
            "the {name} template takes the typed path"
        );
        let mut rng = Rng64::new(*seed);
        for case in 0..*mutants {
            check(
                format!("{name} mutant {case}"),
                &mutate(&mut rng, template.as_bytes()),
            );
        }
    }
    // None of these mutants repeats a key, so every one the tree accepts
    // takes the typed path.
    assert_eq!(taken, valid, "the typed path declined a valid mutant");
    assert!(
        taken > 0,
        "no mutant decoded: the comparison checked nothing"
    );

    let mut sim = Simulator::new(0xEDB7_2025);
    sim.config.samples = 3;
    let run = sim.simulate(&benchmarks::tpcc(), &Sku::new("cpu2", 2, 64.0), 8, 0, 0);
    let run = wp_telemetry::io::run_to_json(&run).compact();
    let body = |members: &str| format!("{{{members}}}");
    let number = run
        .split("\"data\":[")
        .nth(1)
        .unwrap()
        .split(',')
        .next()
        .unwrap()
        .to_string();
    // 2^32 × 2^32 resource cells claimed over an empty buffer.
    let (before, rest) = run.split_once("\"rows\":3,\"cols\":7,\"data\":[").unwrap();
    let after = rest.split_once(']').unwrap().1;
    let wrapped = format!("{before}\"rows\":4294967296,\"cols\":4294967296,\"data\":[]{after}");
    // (case, body, whether the typed path takes it)
    let hand = [
        (
            "runs last",
            body(&format!("\"k\":1,\"runs\":[{run}]")),
            true,
        ),
        (
            "runs first",
            body(&format!("\"runs\":[{run},{run}],\"k\":1")),
            true,
        ),
        (
            "run members reordered",
            body(&format!("\"runs\":[{}]", reorder(&run))),
            true,
        ),
        (
            "unknown keys",
            body(&format!(
                "\"x\":{{\"y\":[null,true]}},\"runs\":[{}]",
                run.replacen('{', "{\"extra\":[{\"z\":\"\\u00e9\"}],", 1)
            )),
            true,
        ),
        (
            "duplicate runs",
            body(&format!("\"runs\":[{run}],\"runs\":[]")),
            false,
        ),
        (
            "duplicate run member",
            body(&format!(
                "\"runs\":[{}]",
                run.replacen('{', "{\"throughput\":1,", 1)
            )),
            false,
        ),
        (
            "duplicate other member",
            body(&format!("\"k\":1,\"k\":2,\"runs\":[{run}]")),
            true,
        ),
        (
            "escaped strings",
            body(&format!(
                "\"mode\":\"in\\u0064exed\\n\",\"runs\":[{}]",
                run.replacen("\"TPC-C\"", "\"TPC\\u002dC\\ud83d\\ude00\"", 1)
            )),
            true,
        ),
        (
            "-0",
            body(&format!("\"runs\":[{}]", run.replacen(&number, "-0", 1))),
            true,
        ),
        (
            "1e400",
            body(&format!("\"runs\":[{}]", run.replacen(&number, "1e400", 1))),
            true,
        ),
        (
            "01",
            body(&format!("\"runs\":[{}]", run.replacen(&number, "01", 1))),
            true,
        ),
        (
            "1.",
            body(&format!("\"runs\":[{}]", run.replacen(&number, "1.", 1))),
            true,
        ),
        (
            "fractional rows",
            body(&format!(
                "\"runs\":[{}]",
                run.replacen("\"rows\":3", "\"rows\":3.5", 1)
            )),
            false,
        ),
        (
            "rows x cols wraps to an empty buffer's length",
            body(&format!("\"runs\":[{wrapped}]")),
            false,
        ),
        ("empty runs", body("\"runs\":[]"), false),
        ("no runs", body("\"tenant\":\"t\""), false),
        ("runs not an array", body(&format!("\"runs\":{run}")), false),
        (
            "trailing bytes",
            body(&format!("\"runs\":[{run}]")) + " x",
            false,
        ),
        ("top level array", format!("[{run}]"), false),
        (
            "whitespace",
            format!(" \n{{ \"runs\" :\t[ {run} ] }} \r\n"),
            true,
        ),
    ];
    for (case, body, typed) in &hand {
        let tree = tree_decode(body).is_some();
        assert_eq!(typed_agrees_with_tree(case, body), *typed, "{case}");
        if matches!(*case, "duplicate runs" | "duplicate run member") {
            assert!(tree, "{case}: the tree keeps the first member");
        }
    }
}

/// `run` with its top-level members in reverse order.
fn reorder(run: &str) -> String {
    let Json::Obj(mut members) = Json::parse(run).unwrap() else {
        panic!("a run is an object");
    };
    members.reverse();
    Json::Obj(members).compact()
}
