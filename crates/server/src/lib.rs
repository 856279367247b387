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
//! Everything is `std`-only (hermetic build). Two serving backends share
//! the same parser, router, and fault sites, selected by
//! [`ServerConfig::backend`]:
//!
//! * [`Backend::Workers`] — a fixed-size blocking worker pool over one
//!   shared [`TcpListener`]: one thread per in-flight connection, reads
//!   in short ticks so idle keep-alive connections time out and
//!   shutdown wakes promptly. The reference implementation.
//! * [`Backend::Reactor`] — the `wp-reactor` event loop: a few shard
//!   threads multiplex thousands of keep-alive connections as
//!   readiness-driven state machines, each connection pinned to its
//!   accepting shard's [`service::ShardState`] caches.
//!
//! Both backends read one streaming engine, published per corpus
//! generation: every request answers from a single snapshot, and an
//! ingest publishes a new one without blocking reads.
//!
//! Both backends produce byte-identical responses for every endpoint:
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

use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wp_core::offline::OfflineCorpus;
use wp_core::pipeline::PipelineConfig;
use wp_faults::{FaultInjector, FaultPlan, RequestFaults, WriteFault};
use wp_featsel::Strategy;
use wp_stream::StreamConfig;

use service::ServiceState;

/// Which serving tier answers connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Blocking worker pool: `workers` threads, one connection at a time
    /// each. Simple and portable; the reference backend.
    #[default]
    Workers,
    /// `wp-reactor` event loop: `workers` shard threads multiplexing all
    /// connections via readiness (epoll on Linux, poll elsewhere).
    Reactor,
}

impl Backend {
    /// Parses a CLI-facing backend name.
    pub fn parse(name: &str) -> Option<Backend> {
        match name {
            "workers" => Some(Backend::Workers),
            "reactor" => Some(Backend::Reactor),
            _ => None,
        }
    }

    /// The CLI-facing name.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Workers => "workers",
            Backend::Reactor => "reactor",
        }
    }
}

/// How a [`Server`] binds, sizes its pool, and computes.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` asks the OS for a free port (the bound
    /// address is on the returned handle).
    pub addr: String,
    /// Serving backend (worker pool or event-loop reactor).
    pub backend: Backend,
    /// Worker threads (pool size for [`Backend::Workers`], event-loop
    /// shard count for [`Backend::Reactor`]).
    pub workers: usize,
    /// Close keep-alive connections that sit idle longer than this; a
    /// connection stalled mid-request gets a `408`-style `400` response
    /// first. Applies to both backends.
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
            backend: Backend::Workers,
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
    /// listener, and spawns the worker pool.
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
        let n = config.workers.max(1);
        // The reactor pins connections to shards, so each shard gets its
        // own caches; the pool routes everything through shard 0.
        let shards = match config.backend {
            Backend::Workers => 1,
            Backend::Reactor => n,
        };
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

        if config.backend == Backend::Reactor {
            let app = Arc::new(ReactorApp {
                state: Arc::clone(&state),
                injector,
            });
            let handle = wp_reactor::Reactor::start(
                listener,
                app,
                wp_reactor::ReactorConfig {
                    threads: n,
                    idle_timeout: config.idle_timeout,
                    drain_timeout: Duration::from_secs(5),
                    force_poll: false,
                },
            )
            .map_err(|e| format!("cannot start reactor: {e}"))?;
            return Ok(ServerHandle {
                addr,
                state,
                runner: Runner::Reactor(handle),
            });
        }

        // Workers poll accept so they can notice the shutdown message
        // without a wake-up connection.
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set nonblocking accept: {e}"))?;
        let mut controls = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for i in 0..n {
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            controls.push(tx);
            let listener = listener
                .try_clone()
                .map_err(|e| format!("cannot clone listener: {e}"))?;
            let state = Arc::clone(&state);
            let injector = injector.clone();
            let idle = config.idle_timeout;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("wp-server-{i}"))
                    .spawn(move || worker_loop(&listener, &state, &rx, injector.as_deref(), idle))
                    .map_err(|e| format!("cannot spawn worker: {e}"))?,
            );
        }
        Ok(ServerHandle {
            addr,
            state,
            runner: Runner::Pool { controls, workers },
        })
    }
}

/// The backend-specific running half of a [`ServerHandle`].
enum Runner {
    /// Blocking pool: one control channel + join handle per worker.
    Pool {
        controls: Vec<Sender<()>>,
        workers: Vec<JoinHandle<()>>,
    },
    /// Event loop: the reactor owns its shard threads.
    Reactor(wp_reactor::ReactorHandle),
}

/// A running server: its bound address, shared state (for inspection),
/// and the backend runner.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    runner: Runner,
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

    /// The running backend: `"workers"`, or the reactor's poller name
    /// (`"epoll"` / `"poll"`).
    pub fn backend(&self) -> &'static str {
        match &self.runner {
            Runner::Pool { .. } => "workers",
            Runner::Reactor(handle) => handle.backend(),
        }
    }

    /// Graceful shutdown. Pool: signals every worker over its control
    /// channel and joins them; idle keep-alive connections are closed at
    /// their next read tick. Reactor: wakes every shard, drains in-flight
    /// connections (closing idle ones immediately), and joins.
    pub fn shutdown(self) {
        match self.runner {
            Runner::Pool { controls, workers } => {
                for tx in &controls {
                    // A dead worker has already dropped its receiver; that
                    // is exactly the state shutdown wants.
                    let _ = tx.send(());
                }
                for w in workers {
                    let _ = w.join();
                }
            }
            Runner::Reactor(handle) => handle.shutdown(),
        }
    }

    /// Blocks until every serving thread exits (i.e. until
    /// [`Self::shutdown`] is triggered from another handle-less path —
    /// used by the CLI, which serves until the process is killed).
    pub fn wait(self) {
        match self.runner {
            Runner::Pool { workers, .. } => {
                for w in workers {
                    let _ = w.join();
                }
            }
            Runner::Reactor(handle) => handle.wait(),
        }
    }
}

/// The shared serving logic, exposed to `wp-reactor` as its [`App`]:
/// parsing via the incremental parser, routing via the shard-pinned
/// service, and all per-request fault sites mapped onto reactor
/// state-machine transitions.
///
/// Fault parity with the pool: the pool sleeps `pre_latency` before the
/// handler and `stall` after it (both before any byte is written), so
/// here both fold into the response's pre-write delay — the bytes are
/// identical and the client-observed latency matches; only the handler's
/// position inside the delay window differs.
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
                // Same answer the pool gives a framing error: 400, close.
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

/// How long a pool worker blocks in one `accept`/`read` attempt before
/// re-checking its control channel and the connection's idle deadline.
/// Bounds shutdown latency for workers parked on idle connections.
const WORKER_TICK: Duration = Duration::from_millis(25);

/// Accept-and-serve loop of one pool worker.
fn worker_loop(
    listener: &TcpListener,
    state: &Arc<ServiceState>,
    control: &Receiver<()>,
    injector: Option<&FaultInjector>,
    idle_timeout: Duration,
) {
    loop {
        match control.try_recv() {
            Ok(()) | Err(TryRecvError::Disconnected) => return,
            Err(TryRecvError::Empty) => {}
        }
        match listener.accept() {
            Ok((stream, _)) => {
                state.stats.record_connection();
                if injector.is_some_and(FaultInjector::reset_connection) {
                    // Injected reset: drop the socket before reading a
                    // byte. The client sees ECONNRESET / EOF.
                    drop(stream);
                    continue;
                }
                let done = catch_unwind(AssertUnwindSafe(|| {
                    handle_connection(stream, state, control, injector, idle_timeout)
                }))
                .unwrap_or(false);
                if done {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Park in the poller until a connection arrives (or the
                // tick elapses and the control channel is re-checked),
                // instead of a busy accept/sleep cycle.
                #[cfg(unix)]
                let _ = wp_reactor::wait_readable(listener, WORKER_TICK);
                #[cfg(not(unix))]
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Serves one connection until close / error / timeout / shutdown.
/// Returns `true` when a shutdown message was consumed and the worker
/// should exit.
///
/// Reads are ticked: the socket read timeout is [`WORKER_TICK`], and
/// every dry tick re-checks the control channel (deterministic shutdown
/// wake even while parked on an idle keep-alive connection) and the idle
/// deadline. A connection idle past [`ServerConfig::idle_timeout`] with
/// an empty buffer is closed silently; one stalled mid-request gets a
/// `400` first — the same semantics the reactor backend's per-connection
/// timers enforce.
fn handle_connection(
    mut stream: TcpStream,
    state: &ServiceState,
    control: &Receiver<()>,
    injector: Option<&FaultInjector>,
    idle_timeout: Duration,
) -> bool {
    // The listener is nonblocking; the accepted stream must not be.
    if stream.set_nonblocking(false).is_err() {
        return false;
    }
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(WORKER_TICK));
    let mut writer = BufWriter::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return false,
    });

    let mut buf: Vec<u8> = Vec::new();
    let mut scratch = [0u8; 16 * 1024];
    let mut eof = false;
    let mut idle_deadline = Instant::now() + idle_timeout;

    loop {
        let request = match http::parse_request(&buf, eof) {
            http::Parsed::Request { request, consumed } => {
                buf.drain(..consumed);
                request
            }
            http::Parsed::Closed => return false, // clean close
            http::Parsed::Invalid(msg) => {
                // Framing errors: answer 400 and drop the connection (the
                // stream position is unknown).
                let body = wp_json::obj! { "error" => msg }.compact();
                let _ = http::write_response(&mut writer, 400, &body, false);
                return false;
            }
            http::Parsed::Incomplete => {
                match stream.read(&mut scratch) {
                    Ok(0) => eof = true,
                    Ok(n) => {
                        buf.extend_from_slice(&scratch[..n]);
                        idle_deadline = Instant::now() + idle_timeout;
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        match control.try_recv() {
                            // Shutdown while waiting for a request: the
                            // connection is between frames, drop it.
                            Ok(()) | Err(TryRecvError::Disconnected) => return true,
                            Err(TryRecvError::Empty) => {}
                        }
                        if Instant::now() >= idle_deadline {
                            if !buf.is_empty() {
                                // Stalled mid-request: say so, then close.
                                let body = wp_json::obj! {
                                    "error" => "timed out waiting for a complete request"
                                }
                                .compact();
                                let _ = http::write_response(&mut writer, 400, &body, false);
                            }
                            return false;
                        }
                    }
                    Err(_) => return false,
                }
                continue;
            }
        };

        // All fault decisions for this request are drawn here, in one
        // shot, keyed by a global request ordinal — never during the
        // handler or the write, where thread timing could reorder draws.
        let faults = match injector {
            Some(i) => i.request_faults(&request.path),
            None => RequestFaults::CLEAN,
        };
        if let Some(pause) = faults.pre_latency {
            std::thread::sleep(pause);
        }

        let started = Instant::now();
        let (status, body) = if faults.error_503 {
            (
                503,
                wp_json::obj! { "error" => "injected overload" }.compact(),
            )
        } else {
            service::handle(state, &request)
        };
        let elapsed_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        state.stats.record(&request.path, elapsed_ns, status >= 400);

        if let Some(pause) = faults.stall {
            // Hold the finished response past the client's patience.
            std::thread::sleep(pause);
        }

        let shutdown_requested = matches!(control.try_recv(), Ok(()));
        let keep_alive = request.keep_alive && !shutdown_requested;
        let extra: &[(&str, &str)] = if status == 503 {
            &[("Retry-After", "0")]
        } else {
            &[]
        };
        // The one non-JSON response in the service: a successful metrics
        // scrape is Prometheus text. The branch only exists with obs on.
        let content_type = if state.obs
            && status == 200
            && request.method == "GET"
            && request.path == "/metrics"
        {
            "text/plain; version=0.0.4"
        } else {
            "application/json"
        };
        let bytes = http::render_response_typed(status, &body, keep_alive, content_type, extra);
        match write_faulted(&mut writer, &bytes, &faults.write) {
            Ok(true) => return shutdown_requested, // fault closed the connection
            Ok(false) => {}
            Err(_) => return shutdown_requested,
        }
        if shutdown_requested {
            return true;
        }
        if !request.keep_alive {
            return false;
        }
        idle_deadline = Instant::now() + idle_timeout;
    }
}

/// Writes one rendered response, applying the drawn write fault.
/// `Ok(true)` means the fault requires the connection to close.
fn write_faulted(
    writer: &mut impl Write,
    bytes: &[u8],
    fault: &WriteFault,
) -> std::io::Result<bool> {
    match fault {
        WriteFault::Clean => {
            writer.write_all(bytes)?;
            writer.flush()?;
            Ok(false)
        }
        WriteFault::Slow {
            chunks, pause_ms, ..
        } => {
            // Dribble the same bytes out in chunks with pauses between
            // them: correct data, pathological pacing.
            let n = (*chunks).max(1);
            let step = bytes.len().div_ceil(n);
            for chunk in bytes.chunks(step.max(1)) {
                writer.write_all(chunk)?;
                writer.flush()?;
                std::thread::sleep(Duration::from_millis(*pause_ms));
            }
            Ok(false)
        }
        WriteFault::Truncate => {
            // Half the response, then a hard close mid-body (or even
            // mid-headers for small responses).
            writer.write_all(&bytes[..bytes.len() / 2])?;
            writer.flush()?;
            Ok(true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

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
