//! `wp-server` — an in-process HTTP/1.1 prediction service over the
//! workload-prediction pipeline.
//!
//! The serving shape production systems put around this kind of pipeline:
//! a pre-built [`OfflineCorpus`] plus the features selected on it are held
//! in memory, and the three pipeline stages are exposed as HTTP
//! endpoints with JSON bodies (`/metrics` answers Prometheus text):
//!
//! | Endpoint | Method | Purpose |
//! |---|---|---|
//! | `/healthz` | GET | liveness + corpus summary |
//! | `/corpus` | GET | reference workloads, run counts, selected features |
//! | `/corpus` | POST | dry-run validation of a corpus document |
//! | `/fingerprint` | POST | telemetry runs → MTS / Hist-FP / Phase-FP fingerprints |
//! | `/similar` | POST | runs → ranked nearest reference workloads |
//! | `/predict` | POST | runs + SKU pair → scaling prediction |
//! | `/recommend` | POST | runs or a live tenant + SLO → cheapest SLO-meeting SKU |
//! | `/ingest` | POST | streaming telemetry batches → live corpus evolution |
//! | `/drift` | GET | drift-event log of the streaming engine |
//! | `/stats` | GET | per-endpoint nanosecond timings + cache counters |
//! | `/metrics` | GET | `wp-obs` registry in Prometheus text (only with [`ServerConfig::obs`] on) |
//!
//! Everything is `std`-only (hermetic build). Connections are served by
//! the `wp-reactor` event loop: a few shard threads multiplex thousands
//! of keep-alive connections as readiness-driven state machines. The
//! k-th connection lands on shard `k mod workers`, whichever shard
//! accepted it, and that shard serves it from its own
//! [`service::ShardState`] caches for the connection's whole life.
//!
//! Every shard reads one streaming engine, published per corpus
//! generation: every request answers from a single snapshot, and an
//! ingest publishes a new one without blocking reads.
//!
//! The wire bytes of every response are those of the pure handler,
//! [`service::handle`], rendered by [`http::render_response_typed`]:
//! request bodies use the `wp_telemetry::io` interchange schema, derived
//! state lives in LRU caches (a cache hit is bit-identical to a
//! recompute — handlers are deterministic functions of the request
//! body), and shutdown drains in-flight requests before threads exit.

#![warn(missing_docs)]

pub mod cache;
pub mod corpus;
pub mod http;
pub mod service;
pub mod stats;

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wp_core::offline::OfflineCorpus;
use wp_core::pipeline::PipelineConfig;
use wp_faults::{FaultInjector, FaultPlan, RequestFaults, WriteFault};
use wp_featsel::Strategy;
use wp_stream::StreamConfig;

use service::ServiceState;

/// Selects nothing: the reactor is the only serving tier. Kept, with
/// [`ServerConfig::backend`], only because the benchmark names it; both
/// go with the benchmark's next change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The `wp-reactor` event loop.
    #[default]
    Reactor,
}

/// How a [`Server`] binds, sizes its shards, and computes.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` asks the OS for a free port (the bound
    /// address is on the returned handle).
    pub addr: String,
    /// Selects nothing (see [`Backend`]); goes with the benchmark's next
    /// change.
    pub backend: Backend,
    /// Event-loop shard threads, each with its own caches.
    pub workers: usize,
    /// Close keep-alive connections that sit idle longer than this; a
    /// connection stalled mid-request gets a `408`-style `400` response
    /// first.
    pub idle_timeout: Duration,
    /// When set, pins the `wp-runtime` thread count used *inside* request
    /// handlers (`None` inherits `WP_THREADS` / available parallelism).
    pub compute_threads: Option<usize>,
    /// Capacity of each LRU cache (reference data, response bodies), and
    /// the number of recent response-cache misses each shard remembers:
    /// an answer is stored only once its request recurs within them.
    pub cache_capacity: usize,
    /// Pipeline configuration. The default swaps feature selection to
    /// fANOVA so startup (stage 1 runs once) stays sub-second; the
    /// measure/bins/scaling-model defaults follow the paper's §6.2.3.
    pub pipeline: PipelineConfig,
    /// Seeded fault-injection plan (chaos testing). The default plan is
    /// disabled: no injector is constructed and the serving path is the
    /// exact pre-fault code.
    pub faults: FaultPlan,
    /// Observability: when `true`, [`Server::start`] enables the global
    /// `wp-obs` registry and the service routes `GET /metrics`
    /// (Prometheus text exposition). Disabled (the default), every
    /// instrumentation site is a single relaxed load and all responses —
    /// `/metrics` included, as a 404 — are byte-identical to a server
    /// built before the observability layer existed.
    pub obs: bool,
    /// Streaming-ingest engine configuration: per-tenant window sizes,
    /// drift thresholds, and the determinism seed for `POST /ingest`.
    pub stream: StreamConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            backend: Backend::Reactor,
            workers: 4,
            idle_timeout: Duration::from_secs(30),
            compute_threads: None,
            cache_capacity: 64,
            pipeline: PipelineConfig {
                selection: Strategy::FAnova,
                ..PipelineConfig::default()
            },
            faults: FaultPlan::default(),
            obs: false,
            stream: StreamConfig::default(),
        }
    }
}

/// The service; construct with [`Server::start`].
pub struct Server;

impl Server {
    /// Validates the corpus, selects features (stage 1, once), binds the
    /// listener, and starts the reactor's shards.
    ///
    /// When the fault plan enables corpus corruption, the corruption is
    /// applied *before* validation — a corrupted corpus is expected to
    /// fail startup with the same structured error a genuinely broken
    /// corpus file would produce.
    pub fn start(mut corpus: OfflineCorpus, config: ServerConfig) -> Result<ServerHandle, String> {
        if config.faults.corrupt > 0.0 {
            wp_faults::apply_corpus_corruption(&config.faults, &mut corpus);
        }
        let injector = config
            .faults
            .is_enabled()
            .then(|| Arc::new(FaultInjector::new(config.faults.clone())));
        if config.obs {
            wp_obs::enable();
        }
        let shards = config.workers.max(1);
        let mut state = ServiceState::sharded(
            corpus,
            config.pipeline.clone(),
            config.compute_threads,
            config.cache_capacity,
            config.stream.clone(),
            shards,
        )?;
        state.obs = config.obs;
        let state = Arc::new(state);
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        let app = Arc::new(ReactorApp {
            state: Arc::clone(&state),
            injector,
        });
        let reactor = wp_reactor::Reactor::start(
            listener,
            app,
            wp_reactor::ReactorConfig {
                threads: shards,
                idle_timeout: config.idle_timeout,
                drain_timeout: Duration::from_secs(5),
                force_poll: false,
            },
        )
        .map_err(|e| format!("cannot start reactor: {e}"))?;
        Ok(ServerHandle {
            addr,
            state,
            reactor,
        })
    }
}

/// A running server: its bound address, shared state (for inspection),
/// and the reactor serving it.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    reactor: wp_reactor::ReactorHandle,
}

impl ServerHandle {
    /// The actually-bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service state (stats, caches) — read-only inspection.
    pub fn state(&self) -> &ServiceState {
        &self.state
    }

    /// The reactor's poller (`"epoll"` / `"poll"`).
    pub fn backend(&self) -> &'static str {
        self.reactor.backend()
    }

    /// Graceful shutdown: wakes every shard, drains in-flight
    /// connections (closing idle ones immediately), and joins.
    pub fn shutdown(self) {
        self.reactor.shutdown();
    }

    /// Blocks until every serving thread exits (i.e. until
    /// [`Self::shutdown`] is triggered from another handle-less path —
    /// used by the CLI, which serves until the process is killed).
    pub fn wait(self) {
        self.reactor.wait();
    }
}

/// The serving logic, exposed to `wp-reactor` as its [`App`]: parsing
/// via the incremental parser, routing via the shard-pinned service,
/// and all per-request fault sites mapped onto reactor state-machine
/// transitions. The injected latency and the stall both hold the
/// finished response before its first byte, so they fold into one
/// pre-write delay.
///
/// [`App`]: wp_reactor::App
struct ReactorApp {
    state: Arc<ServiceState>,
    injector: Option<Arc<FaultInjector>>,
}

impl wp_reactor::App for ReactorApp {
    type Request = http::Request;

    fn on_accept(&self) -> bool {
        self.state.stats.record_connection();
        !self
            .injector
            .as_deref()
            .is_some_and(FaultInjector::reset_connection)
    }

    fn parse(&self, _shard: usize, buf: &[u8], eof: bool) -> wp_reactor::Parse<http::Request> {
        match http::parse_request(buf, eof) {
            http::Parsed::Incomplete => wp_reactor::Parse::Incomplete,
            http::Parsed::Request { request, consumed } => {
                wp_reactor::Parse::Complete { request, consumed }
            }
            http::Parsed::Closed => wp_reactor::Parse::Close,
            http::Parsed::Invalid(msg) => {
                // A framing error leaves the stream position unknown:
                // answer 400 and close.
                let body = wp_json::obj! { "error" => msg }.compact();
                wp_reactor::Parse::Reject {
                    response: http::render_response(400, &body, false, &[]),
                }
            }
        }
    }

    fn respond(
        &self,
        shard: usize,
        request: http::Request,
        force_close: bool,
    ) -> wp_reactor::Response {
        let faults = match self.injector.as_deref() {
            Some(i) => i.request_faults(&request.path),
            None => RequestFaults::CLEAN,
        };
        let started = Instant::now();
        let (status, body) = if faults.error_503 {
            (
                503,
                wp_json::obj! { "error" => "injected overload" }.compact(),
            )
        } else {
            service::handle_on(&self.state, shard, &request)
        };
        let elapsed_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.state
            .stats
            .record(&request.path, elapsed_ns, status >= 400);

        let keep_alive = request.keep_alive && !force_close;
        let extra: &[(&str, &str)] = if status == 503 {
            &[("Retry-After", "0")]
        } else {
            &[]
        };
        let content_type = if self.state.obs
            && status == 200
            && request.method == "GET"
            && request.path == "/metrics"
        {
            "text/plain; version=0.0.4"
        } else {
            "application/json"
        };
        let bytes = http::render_response_typed(status, &body, keep_alive, content_type, extra);
        let mut response = wp_reactor::Response::new(bytes, keep_alive);
        response.delay =
            faults.pre_latency.unwrap_or(Duration::ZERO) + faults.stall.unwrap_or(Duration::ZERO);
        response.write = match faults.write {
            WriteFault::Clean => wp_reactor::WriteMode::Full,
            WriteFault::Slow { chunks, pause_ms } => wp_reactor::WriteMode::Chunked {
                chunks: chunks.max(1).min(u32::MAX as usize) as u32,
                pause: Duration::from_millis(pause_ms),
            },
            WriteFault::Truncate => wp_reactor::WriteMode::TruncateHalf,
        };
        response
    }

    fn on_idle_timeout(&self, _shard: usize, partial: bool) -> Option<Vec<u8>> {
        partial.then(|| {
            let body =
                wp_json::obj! { "error" => "timed out waiting for a complete request" }.compact();
            http::render_response(400, &body, false, &[])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn small_server(workers: usize) -> ServerHandle {
        let corpus = corpus::simulated_corpus(0xEDB7_2025, 40);
        let config = ServerConfig {
            workers,
            compute_threads: Some(1),
            ..ServerConfig::default()
        };
        Server::start(corpus, config).unwrap()
    }

    fn roundtrip(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_healthz_and_shuts_down() {
        let server = small_server(2);
        let addr = server.addr();
        let resp = roundtrip(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("\"status\":\"ok\""), "{resp}");
        assert_eq!(server.state().stats.total_requests(), 1);
        server.shutdown();
        // the port is released after shutdown: a fresh bind succeeds
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok(), "{rebind:?}");
    }

    #[test]
    fn keep_alive_serves_multiple_requests_per_connection() {
        let server = small_server(1);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        for _ in 0..3 {
            stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let mut buf = [0u8; 4096];
            let n = stream.read(&mut buf).unwrap();
            let resp = String::from_utf8_lossy(&buf[..n]);
            assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        }
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn invalid_corpus_is_rejected_at_startup() {
        let err = match Server::start(OfflineCorpus::default(), ServerConfig::default()) {
            Ok(_) => panic!("empty corpus must not start"),
            Err(e) => e,
        };
        assert!(err.contains("corpus needs references"), "{err}");
    }
}
