//! `wp-reactor`: a std-only, zero-dependency nonblocking reactor that
//! multiplexes thousands of keep-alive HTTP/1.1 connections over a
//! small number of event-loop threads.
//!
//! Design:
//!
//! - **Readiness, not threads.** Each event-loop thread (a *shard*)
//!   owns an OS poller — `epoll(7)` on Linux through raw FFI syscall
//!   wrappers, portable `poll(2)` elsewhere (or when forced via
//!   `WP_REACTOR_POLLER=poll`) — and drives every connection it has
//!   accepted as a state machine: reading a request, running the
//!   handler, writing the response (possibly in fault-injected chunks
//!   or truncated), or sitting in idle keep-alive.
//! - **Shards own their connections.** Every shard listens, so a busy
//!   shard never holds up an accept. Whichever shard accepts the k-th
//!   connection [`App::on_accept`] keeps gives it to shard
//!   `k mod shards`, sending it to that shard's inbox and waking it
//!   through its wake socket, so connections spread evenly and, when
//!   they arrive one at a time, deterministically. A shard keeps each
//!   connection for its whole life, so per-shard application state
//!   needs no cross-shard locking on the hot path.
//! - **One timer per connection.** Each connection stores its
//!   authoritative deadline (idle keep-alive, injected latency, or an
//!   inter-chunk write pause) and holds at most one entry in its
//!   shard's ordered timer set, so a slow or silent client costs a
//!   timer entry instead of a blocked thread, and timer memory tracks
//!   open connections, not requests served.
//! - **The application is a trait.** The reactor knows nothing about
//!   HTTP: an [`App`] supplies incremental parsing, request handling,
//!   and timeout responses, keyed by shard so state can be partitioned.
//!
//! The crate is Unix-only at runtime (epoll or poll); on other targets
//! it still compiles and [`Reactor::start`] reports an unsupported-
//! platform error.

#![warn(clippy::undocumented_unsafe_blocks)]

use std::sync::Arc;
use std::time::Duration;

pub mod sys;

#[cfg(unix)]
mod engine;
#[cfg(unix)]
mod poller;
#[cfg(unix)]
mod slab;

pub use sys::raise_nofile_limit;

#[cfg(unix)]
pub use engine::ReactorHandle;

/// Outcome of asking the [`App`] to frame a request out of a
/// connection's read buffer.
#[derive(Debug)]
pub enum Parse<R> {
    /// No full request yet — keep the buffer and wait for more bytes.
    Incomplete,
    /// One request framed, consuming `consumed` buffer bytes (any
    /// remainder is the start of a pipelined successor).
    Complete { request: R, consumed: usize },
    /// Framing error: write `response` verbatim, then close.
    Reject { response: Vec<u8> },
    /// Clean end of stream — close without writing anything.
    Close,
}

/// How a response's bytes should leave the socket. `Chunked` and
/// `Truncate` exist for fault injection: the slow-write and truncated-
/// write faults become write-side state-machine transitions instead of
/// thread sleeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Write everything as fast as the socket accepts it.
    Full,
    /// Write in `chunks` equal slices with `pause` between them.
    Chunked { chunks: u32, pause: Duration },
    /// Write only the first half of the bytes, then close.
    TruncateHalf,
}

/// A fully rendered response plus its delivery instructions.
#[derive(Debug)]
pub struct Response {
    /// The exact bytes to put on the wire (status line through body).
    pub bytes: Vec<u8>,
    /// Keep the connection open for another request afterwards.
    pub keep_alive: bool,
    /// Delay before the first byte is written (injected latency).
    pub delay: Duration,
    pub write: WriteMode,
}

impl Response {
    /// A plain full write with no delay.
    pub fn new(bytes: Vec<u8>, keep_alive: bool) -> Response {
        Response {
            bytes,
            keep_alive,
            delay: Duration::ZERO,
            write: WriteMode::Full,
        }
    }
}

/// The application driven by the reactor. All methods may be called
/// concurrently from different shard threads, but calls for one
/// connection always come from its single owning shard.
pub trait App: Send + Sync + 'static {
    type Request: Send;

    /// Called once per accepted connection before it is registered.
    /// Returning `false` drops the socket immediately (the accept-reset
    /// fault site).
    fn on_accept(&self) -> bool {
        true
    }

    /// Tries to frame one request from the buffered bytes. `eof` is
    /// true once the peer has shut down its write side; the app must
    /// then resolve to something other than [`Parse::Incomplete`].
    fn parse(&self, shard: usize, buf: &[u8], eof: bool) -> Parse<Self::Request>;

    /// Handles one framed request. `force_close` is set while the
    /// reactor drains for shutdown, so the response should announce
    /// `Connection: close`.
    fn respond(&self, shard: usize, request: Self::Request, force_close: bool) -> Response;

    /// A connection sat past the idle deadline. `partial` is true when
    /// it stalled mid-request (bytes are buffered but unframed); the
    /// returned bytes are written before closing, `None` closes
    /// silently.
    fn on_idle_timeout(&self, shard: usize, partial: bool) -> Option<Vec<u8>>;
}

/// Tuning for [`Reactor::start`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Event-loop shard count.
    pub threads: usize,
    /// Close keep-alive connections idle longer than this.
    pub idle_timeout: Duration,
    /// How long shutdown waits for in-flight connections to finish
    /// before force-closing them.
    pub drain_timeout: Duration,
    /// Use the portable `poll(2)` backend even where epoll exists
    /// (testing aid; `WP_REACTOR_POLLER=poll` does the same).
    pub force_poll: bool,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            threads: 4,
            idle_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(5),
            force_poll: false,
        }
    }
}

/// Entry point: spawn the event-loop shards over a bound listener.
pub struct Reactor;

impl Reactor {
    #[cfg(unix)]
    pub fn start<A: App>(
        listener: std::net::TcpListener,
        app: Arc<A>,
        config: ReactorConfig,
    ) -> std::io::Result<ReactorHandle> {
        // A multiplexing tier exists to hold thousands of sockets; the
        // default 1024 soft NOFILE limit would cap it at a few hundred.
        // Only the soft limit moves, and never past the hard limit.
        sys::raise_nofile_limit(8192);
        engine::start(listener, app, config)
    }

    #[cfg(not(unix))]
    pub fn start<A: App>(
        _listener: std::net::TcpListener,
        _app: Arc<A>,
        _config: ReactorConfig,
    ) -> std::io::Result<ReactorHandle> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "wp-reactor needs a Unix readiness poller (epoll or poll)",
        ))
    }
}

/// Non-Unix placeholder so downstream signatures stay uniform; never
/// constructed because `Reactor::start` fails first.
#[cfg(not(unix))]
pub struct ReactorHandle;

#[cfg(not(unix))]
impl ReactorHandle {
    pub fn backend(&self) -> &'static str {
        "unsupported"
    }
    pub fn shutdown(self) {}
    pub fn wait(self) {}
}
