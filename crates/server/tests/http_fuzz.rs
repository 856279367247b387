//! Seeded mutation fuzzing of the HTTP/1.1 request parser.
//!
//! Two layers, same corpus of mutants:
//!
//! 1. **In-memory**: `read_request` over mutated byte buffers must
//!    return `Ok` or `Err` — never panic, never loop (a `BufRead` over a
//!    slice makes non-termination impossible to hide: any hang would be
//!    a spin, caught by the panic-free pass completing).
//! 2. **Socket-level**: the same mutants fired at a live server must
//!    each produce either a well-formed HTTP response or a closed
//!    connection, within a client-side read timeout, and the server
//!    must still answer `/healthz` after the barrage.
//!
//! Everything is seeded through [`Rng64`], so a failing case number
//! reproduces exactly.

use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::panic::AssertUnwindSafe;
use std::time::Duration;

use wp_json::Json;
use wp_linalg::Rng64;
use wp_server::corpus::simulated_corpus;
use wp_server::http::{parse_request, read_request, Parsed};
use wp_server::{Server, ServerConfig, ServerHandle};
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
        let verdict = std::panic::catch_unwind(AssertUnwindSafe(|| {
            read_request(&mut BufReader::new(bytes.as_slice())).is_ok()
        }));
        assert!(
            verdict.is_ok(),
            "parser panicked on case {case}: {:?}",
            String::from_utf8_lossy(&bytes)
        );
    }
}

#[test]
fn parser_accepts_only_requests_it_can_frame() {
    // Sanity anchor for the fuzz pass: every template parses clean, so
    // the mutant stream really does start from the accepted language.
    for base in TEMPLATES {
        let req = read_request(&mut BufReader::new(*base))
            .expect("template must parse")
            .expect("template is not EOF");
        assert!(!req.method.is_empty());
        assert!(req.path.starts_with('/'));
    }
    // And a parsed mutant must uphold the same structural promises.
    let mut parsed = 0u32;
    for (case, bytes) in mutants().take(4000) {
        if let Ok(Some(req)) = read_request(&mut BufReader::new(bytes.as_slice())) {
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

/// The incremental entry point (`parse_request`, what the reactor and
/// the ticked worker loop drive) must agree byte-for-byte with the
/// blocking parser it wraps — same framing, same verdicts, same error
/// strings — no matter how the bytes are sliced. Each mutant is parsed
/// three ways: blocking over the whole buffer, incrementally at EOF, and
/// incrementally one byte at a time (every call before the last with
/// `eof = false`, which must never produce a *different* final verdict,
/// only `Incomplete` along the way).
#[test]
fn incremental_parser_matches_blocking_parser_on_mutants() {
    for (case, bytes) in mutants().take(2000) {
        let blocking = read_request(&mut BufReader::new(bytes.as_slice()));
        let at_eof = parse_request(&bytes, true);
        match (&blocking, &at_eof) {
            (Ok(Some(req)), Parsed::Request { request, consumed }) => {
                assert_eq!(req, request, "case {case}: framed requests differ");
                assert!(
                    *consumed <= bytes.len(),
                    "case {case}: consumed {consumed} of {} bytes",
                    bytes.len()
                );
            }
            (Ok(None), Parsed::Closed) => {}
            (Err(b), Parsed::Invalid(i)) => {
                assert_eq!(b, i, "case {case}: error strings differ");
            }
            other => panic!("case {case}: verdicts diverge: {other:?}"),
        }

        // Byte-at-a-time replay: before the final byte the parser may
        // only say Incomplete or commit to the same verdict it reaches
        // at EOF; it must never invent a different one.
        let mut early = None;
        for end in 0..bytes.len() {
            match parse_request(&bytes[..end], false) {
                Parsed::Incomplete => {}
                verdict => {
                    early = Some(verdict);
                    break;
                }
            }
        }
        if let Some(verdict) = early {
            match (verdict, parse_request(&bytes, true)) {
                (Parsed::Request { request: a, .. }, Parsed::Request { request: b, .. }) => {
                    assert_eq!(a, b, "case {case}: early frame differs from EOF frame")
                }
                (Parsed::Invalid(a), Parsed::Invalid(b)) => {
                    assert_eq!(a, b, "case {case}: early error differs from EOF error")
                }
                (early, full) => {
                    panic!("case {case}: early verdict {early:?} contradicts EOF verdict {full:?}")
                }
            }
        }
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
/// relents. Before the incremental cap, the server accepted (and held in
/// memory) the entire flood and only measured the line afterwards — this
/// test then saw every write succeed; now the server answers 400 and
/// closes after roughly one cap's worth, so the flood's writes start
/// failing long before it completes.
#[test]
fn newline_less_header_flood_is_rejected_early() {
    let server = start_server();
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    const FLOOD: usize = 8 * 1024 * 1024;
    let chunk = [b'A'; 4096];
    let mut sent = 0usize;
    while sent < FLOOD {
        match stream.write(&chunk) {
            Ok(n) => sent += n,
            Err(_) => break, // server already rejected and closed
        }
    }
    let _ = stream.shutdown(Shutdown::Write);
    assert!(
        sent < FLOOD / 2,
        "server kept reading a newline-less stream: accepted {sent} of {FLOOD} bytes"
    );
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response); // a reset counts as closed
    if !response.is_empty() {
        let head = String::from_utf8_lossy(&response);
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    }

    // the flood must not have wedged the worker
    let health = fire(addr, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(
        String::from_utf8_lossy(&health).starts_with("HTTP/1.1 200"),
        "server unhealthy after the flood"
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
