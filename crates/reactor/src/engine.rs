//! The event-loop shards: accept and hand-off, per-connection state
//! machines, per-connection timers, and drain-on-shutdown.
//!
//! Connection lifecycle (half-duplex — a pipelined successor request
//! is parsed only after the current response is fully written):
//!
//! ```text
//!           accept
//!             │
//!             ▼          bytes          framed           delay=0
//!     ┌─► Idle/Reading ───────► parse ────────► respond ────────┐
//!     │        │                  │                │delay>0     │
//!     │        │idle deadline     │Reject          ▼            ▼
//!     │        ▼                  │              Delay ────► Writing ◄─┐
//!     │   timeout response        └──────────────────────────►  │      │pause
//!     │   (or silent close)                                     │      │
//!     │                                           keep-alive    │  WritePause
//!     └─────────────────────────────────────────────────────────┤
//!                                                               │close/truncate
//!                                                               ▼
//!                                                             closed
//! ```

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::poller::{Event, Poller, INTEREST_NONE, INTEREST_READ, INTEREST_WRITE};
use crate::slab::Slab;
use crate::{App, Parse, ReactorConfig, Response, WriteMode};

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// Upper bound on one poll sleep, so the shutdown flag is observed on
/// a bounded cadence even if a wake byte is lost.
const MAX_WAIT: Duration = Duration::from_millis(500);

/// Per-readiness-event read budget: keeps one firehose connection from
/// starving the rest of the shard (level-triggered polling re-reports
/// the remainder), and bounds what a shard reads of a malformed request
/// before the app rejects it. A two-run telemetry body (~98 KB) still
/// arrives in one event.
const READ_BUDGET: usize = 128 * 1024;

pub(crate) fn start<A: App>(
    listener: TcpListener,
    app: Arc<A>,
    config: ReactorConfig,
) -> std::io::Result<ReactorHandle> {
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let threads = config.threads.max(1);
    let mut ends = Vec::with_capacity(threads);
    let mut inboxes = Vec::with_capacity(threads);
    let mut wakers = Vec::with_capacity(threads);
    for _ in 0..threads {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        let (inbox_tx, inbox_rx) = mpsc::channel();
        ends.push((wake_rx, inbox_rx));
        inboxes.push(inbox_tx);
        wakers.push(wake_tx);
    }
    let handoff = Arc::new(Handoff {
        accepted: AtomicUsize::new(0),
        inboxes,
        wakers,
    });
    let mut joins = Vec::with_capacity(threads);
    let mut backend = "poll";
    for (id, ends) in ends.into_iter().enumerate() {
        let shard = Shard::new(id, &app, &listener, ends, &handoff, &config, &shutdown)?;
        backend = shard.poller.backend_name();
        joins.push(
            std::thread::Builder::new()
                .name(format!("wp-reactor-{id}"))
                .spawn(move || shard.run())?,
        );
    }
    Ok(ReactorHandle {
        shutdown,
        handoff,
        joins,
        backend,
    })
}

/// Places connections: whichever shard accepts the k-th connection
/// `App::on_accept` keeps hands it to shard `k mod shards` through that
/// shard's inbox and wake socket.
struct Handoff {
    /// Connections kept so far, over every shard.
    accepted: AtomicUsize,
    inboxes: Vec<Sender<TcpStream>>,
    /// Nonblocking: a full socket already holds a pending wake.
    wakers: Vec<UnixStream>,
}

impl Handoff {
    /// Queues `stream` for shard `target`, then wakes it. The target
    /// drains its inbox after its wake bytes, so a stream sent before
    /// the byte is never left waiting for a later wake. A shard that
    /// has exited drops the stream, which closes it.
    fn send(&self, target: usize, stream: TcpStream) {
        let _ = self.inboxes[target].send(stream);
        self.wake(target);
    }

    fn wake(&self, target: usize) {
        let _ = (&self.wakers[target]).write(&[1]);
    }
}

/// Owns the shard threads. `shutdown` drains gracefully; `wait` parks
/// until the reactor exits on its own (it never does unless shut down
/// from elsewhere or every shard dies).
pub struct ReactorHandle {
    shutdown: Arc<AtomicBool>,
    handoff: Arc<Handoff>,
    joins: Vec<std::thread::JoinHandle<()>>,
    backend: &'static str,
}

impl ReactorHandle {
    /// Which readiness backend the shards run on ("epoll" or "poll").
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// Signals every shard, then joins them. Idle connections close
    /// immediately; in-flight ones get the drain window to finish.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for shard in 0..self.handoff.wakers.len() {
            self.handoff.wake(shard);
        }
        for join in self.joins.drain(..) {
            let _ = join.join();
        }
    }

    pub fn wait(mut self) {
        for join in self.joins.drain(..) {
            let _ = join.join();
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Keep-alive, no buffered request bytes.
    Idle,
    /// Partial request bytes buffered.
    Reading,
    /// Response rendered, injected latency pending.
    Delay,
    /// Response bytes draining to the socket.
    Writing,
    /// Between fault-injected write chunks.
    WritePause,
}

struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    eof: bool,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// End of the current write segment (chunked writes advance it).
    segment_end: usize,
    /// Total bytes that will ever be written (truncation stops short).
    write_end: usize,
    /// Chunk length for paced writes; 0 means a single segment.
    chunk: usize,
    pause: Duration,
    keep_alive: bool,
    phase: Phase,
    interest: u8,
    deadline: Option<Instant>,
    /// Fire time of this connection's one entry in `Shard::timers`,
    /// never later than `deadline`.
    timer: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, deadline: Instant) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            eof: false,
            write_buf: Vec::new(),
            write_pos: 0,
            segment_end: 0,
            write_end: 0,
            chunk: 0,
            pause: Duration::ZERO,
            keep_alive: false,
            phase: Phase::Idle,
            interest: INTEREST_READ,
            deadline: Some(deadline),
            timer: None,
        }
    }

    /// Loads a response and its delivery plan; the caller sets the
    /// phase (Delay or Writing).
    fn load_response(&mut self, response: Response) {
        let len = response.bytes.len();
        self.write_buf = response.bytes;
        self.write_pos = 0;
        self.keep_alive = response.keep_alive;
        self.pause = Duration::ZERO;
        self.chunk = 0;
        self.write_end = len;
        self.segment_end = len;
        match response.write {
            WriteMode::Full => {}
            WriteMode::Chunked { chunks, pause } => {
                self.chunk = len.div_ceil(chunks.max(1) as usize).max(1);
                self.segment_end = self.chunk.min(len);
                self.pause = pause;
            }
            WriteMode::TruncateHalf => {
                self.write_end = len / 2;
                self.segment_end = self.write_end;
                self.keep_alive = false;
            }
        }
    }

    /// Loads raw bytes (reject/timeout responses) that always close.
    fn load_final_bytes(&mut self, bytes: Vec<u8>) {
        self.load_response(Response::new(bytes, false));
    }
}

enum WriteStep {
    Blocked,
    Finished,
    Pause,
    Closed,
}

struct Shard<A: App> {
    id: usize,
    app: Arc<A>,
    listener: TcpListener,
    handoff: Arc<Handoff>,
    wake: UnixStream,
    /// Connections other shards accepted for this one.
    inbox: Receiver<TcpStream>,
    poller: Poller,
    conns: Slab<Conn>,
    /// `(fire time, token)`: at most one entry per connection.
    timers: BTreeSet<(Instant, usize)>,
    idle_timeout: Duration,
    drain_timeout: Duration,
    draining: bool,
    drain_deadline: Option<Instant>,
    shutdown: Arc<AtomicBool>,
}

impl<A: App> Shard<A> {
    /// Builds shard `id` with its own poller over a handle on
    /// `listener` and its wake socket; the shard reads its inbox when
    /// woken.
    fn new(
        id: usize,
        app: &Arc<A>,
        listener: &TcpListener,
        (wake, inbox): (UnixStream, Receiver<TcpStream>),
        handoff: &Arc<Handoff>,
        config: &ReactorConfig,
        shutdown: &Arc<AtomicBool>,
    ) -> std::io::Result<Shard<A>> {
        wake.set_nonblocking(true)?;
        let listener = listener.try_clone()?;
        let mut poller = Poller::new(config.force_poll)?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, INTEREST_READ)?;
        poller.add(wake.as_raw_fd(), TOKEN_WAKE, INTEREST_READ)?;
        Ok(Shard {
            id,
            app: Arc::clone(app),
            listener,
            handoff: Arc::clone(handoff),
            wake,
            inbox,
            poller,
            conns: Slab::new(),
            timers: BTreeSet::new(),
            idle_timeout: config.idle_timeout,
            drain_timeout: config.drain_timeout,
            draining: false,
            drain_deadline: None,
            shutdown: Arc::clone(shutdown),
        })
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(1024);
        while self.turn(&mut events) {}
    }

    /// One pass of the event loop: one poller wait, its events, then
    /// the timers that came due. Returns false once the shard is done.
    fn turn(&mut self, events: &mut Vec<Event>) -> bool {
        let now = Instant::now();
        if self.shutdown.load(Ordering::SeqCst) && !self.draining {
            self.begin_drain(now);
        }
        if self.draining {
            let expired = self.drain_deadline.is_some_and(|d| now >= d);
            if self.conns.is_empty() || expired {
                for token in self.conns.keys() {
                    self.close(token);
                }
                return false;
            }
        }
        let timeout = self.wait_budget(now);
        events.clear();
        if self.poller.wait(events, Some(timeout)).is_err() {
            // A transient poller failure must not spin the loop.
            std::thread::sleep(Duration::from_millis(1));
        }
        let now = Instant::now();
        for ev in events.iter() {
            match ev.token {
                TOKEN_LISTENER => self.accept_ready(now),
                TOKEN_WAKE => self.drain_wake(now),
                token => self.on_event(token as usize, *ev, now),
            }
        }
        self.fire_timers(Instant::now());
        true
    }

    fn wait_budget(&self, now: Instant) -> Duration {
        let mut budget = MAX_WAIT;
        if let Some(&(next, _)) = self.timers.first() {
            budget = budget.min(next.saturating_duration_since(now));
        }
        if let Some(drain) = self.drain_deadline {
            budget = budget.min(drain.saturating_duration_since(now));
        }
        budget
    }

    /// Reads the pending wake bytes, then adopts the connections other
    /// shards handed over (a draining shard closes them instead).
    fn drain_wake(&mut self, now: Instant) {
        let mut sink = [0u8; 64];
        loop {
            match self.wake.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        while let Ok(stream) = self.inbox.try_recv() {
            if !self.draining {
                self.adopt(stream, now);
            }
        }
    }

    /// Accepts every pending connection and places the k-th one
    /// `on_accept` keeps on shard `k mod shards`.
    fn accept_ready(&mut self, now: Instant) {
        if self.draining {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if !self.app.on_accept() {
                        drop(stream);
                        continue;
                    }
                    let k = self.handoff.accepted.fetch_add(1, Ordering::Relaxed);
                    let target = k % self.handoff.inboxes.len();
                    if target == self.id {
                        self.adopt(stream, now);
                    } else {
                        self.handoff.send(target, stream);
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // EMFILE and friends: back off, level-triggered polling
                // re-reports the pending accept next iteration.
                Err(_) => return,
            }
        }
    }

    /// Registers a connection with this shard: an idle deadline, READ
    /// interest and its timer.
    fn adopt(&mut self, stream: TcpStream, now: Instant) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        let token = self
            .conns
            .insert(Conn::new(stream, now + self.idle_timeout));
        if self.poller.add(fd, token as u64, INTEREST_READ).is_err() {
            self.conns.remove(token);
            return;
        }
        self.arm(token);
    }

    fn on_event(&mut self, token: usize, ev: Event, now: Instant) {
        let Some(phase) = self.conns.get(token).map(|c| c.phase) else {
            return; // closed earlier in this batch
        };
        match phase {
            Phase::Idle | Phase::Reading => {
                if ev.readable && self.read_some(token, now) {
                    self.drive(token, now);
                }
            }
            Phase::Writing => {
                if ev.writable {
                    self.drive(token, now);
                }
            }
            // Timer-driven phases: a hangup here surfaces when the
            // write resumes and fails.
            Phase::Delay | Phase::WritePause => {}
        }
    }

    /// Appends available bytes to the read buffer. Returns false when
    /// the connection was closed on a read error.
    fn read_some(&mut self, token: usize, now: Instant) -> bool {
        let mut scratch = [0u8; 16 * 1024];
        let mut failed = false;
        let mut progressed = false;
        {
            let Some(conn) = self.conns.get_mut(token) else {
                return false;
            };
            let mut budget = READ_BUDGET;
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&scratch[..n]);
                        progressed = true;
                        budget = budget.saturating_sub(n);
                        if budget == 0 {
                            break;
                        }
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if progressed && !failed {
                // Activity extends the idle deadline only: the armed
                // timer fires early and re-arms to it once.
                conn.deadline = Some(now + self.idle_timeout);
            }
        }
        if failed {
            self.close(token);
            return false;
        }
        true
    }

    /// The state pump: parse → respond → write, looping across
    /// keep-alive boundaries until the connection blocks, waits on a
    /// timer, or closes.
    fn drive(&mut self, token: usize, now: Instant) {
        loop {
            let Some(phase) = self.conns.get(token).map(|c| c.phase) else {
                return;
            };
            match phase {
                Phase::Idle | Phase::Reading => {
                    if !self.parse_step(token, now) {
                        return;
                    }
                }
                Phase::Writing => match self.pump_write(token) {
                    WriteStep::Finished => {
                        let keep = self.conns.get(token).map(|c| c.keep_alive).unwrap_or(false);
                        if !keep || self.draining {
                            self.close(token);
                            return;
                        }
                        if let Some(conn) = self.conns.get_mut(token) {
                            conn.phase = Phase::Idle;
                            conn.deadline = Some(now + self.idle_timeout);
                            conn.write_buf = Vec::new();
                            conn.write_pos = 0;
                        }
                        self.arm(token);
                        self.set_interest(token, INTEREST_READ);
                        // Loop: a pipelined request may already be
                        // buffered.
                    }
                    WriteStep::Blocked => {
                        // Cap how long an unread response may pin the
                        // connection (a never-reading client).
                        if let Some(conn) = self.conns.get_mut(token) {
                            if conn.deadline.is_none() {
                                conn.deadline = Some(now + self.idle_timeout);
                            }
                        }
                        self.arm(token);
                        self.set_interest(token, INTEREST_WRITE);
                        return;
                    }
                    WriteStep::Pause => {
                        if let Some(conn) = self.conns.get_mut(token) {
                            conn.phase = Phase::WritePause;
                            conn.deadline = Some(now + conn.pause);
                        }
                        self.arm(token);
                        self.set_interest(token, INTEREST_NONE);
                        return;
                    }
                    WriteStep::Closed => {
                        self.close(token);
                        return;
                    }
                },
                Phase::Delay | Phase::WritePause => return,
            }
        }
    }

    /// Parses at most one request and stages its response. Returns
    /// true when `drive` should keep pumping (a response is staged or
    /// the connection advanced), false when it should yield.
    fn parse_step(&mut self, token: usize, now: Instant) -> bool {
        let app = Arc::clone(&self.app);
        let outcome = {
            let Some(conn) = self.conns.get_mut(token) else {
                return false;
            };
            if conn.read_buf.is_empty() && !conn.eof {
                conn.phase = Phase::Idle;
                None
            } else {
                let eof = conn.eof;
                Some(app.parse(self.id, &conn.read_buf, eof))
            }
        };
        let Some(outcome) = outcome else {
            self.set_interest(token, INTEREST_READ);
            return false;
        };
        match outcome {
            Parse::Incomplete => {
                let eof = self.conns.get(token).map(|c| c.eof).unwrap_or(true);
                if eof {
                    // Contract violation fallback: nothing more will
                    // arrive, so an incomplete frame can only close.
                    self.close(token);
                    return false;
                }
                if let Some(conn) = self.conns.get_mut(token) {
                    conn.phase = Phase::Reading;
                }
                self.set_interest(token, INTEREST_READ);
                false
            }
            Parse::Close => {
                self.close(token);
                false
            }
            Parse::Reject { response } => {
                if let Some(conn) = self.conns.get_mut(token) {
                    conn.read_buf.clear();
                    conn.load_final_bytes(response);
                    conn.phase = Phase::Writing;
                    conn.deadline = None;
                }
                true
            }
            Parse::Complete { request, consumed } => {
                if let Some(conn) = self.conns.get_mut(token) {
                    conn.read_buf.drain(..consumed.min(conn.read_buf.len()));
                }
                let force_close = self.draining;
                let shard = self.id;
                let response = match catch_unwind(AssertUnwindSafe(|| {
                    app.respond(shard, request, force_close)
                })) {
                    Ok(response) => response,
                    Err(_) => {
                        // A panicking handler forfeits the
                        // connection, not the shard.
                        self.close(token);
                        return false;
                    }
                };
                let delay = response.delay;
                if let Some(conn) = self.conns.get_mut(token) {
                    conn.load_response(response);
                    if delay.is_zero() {
                        conn.phase = Phase::Writing;
                        conn.deadline = None;
                    } else {
                        conn.phase = Phase::Delay;
                        conn.deadline = Some(now + delay);
                    }
                }
                if !delay.is_zero() {
                    self.arm(token);
                    self.set_interest(token, INTEREST_NONE);
                    return false;
                }
                true
            }
        }
    }

    fn pump_write(&mut self, token: usize) -> WriteStep {
        let Some(conn) = self.conns.get_mut(token) else {
            return WriteStep::Closed;
        };
        loop {
            if conn.write_pos >= conn.segment_end {
                if conn.write_pos >= conn.write_end {
                    return WriteStep::Finished;
                }
                conn.segment_end = (conn.segment_end + conn.chunk.max(1)).min(conn.write_end);
                if !conn.pause.is_zero() {
                    return WriteStep::Pause;
                }
                continue;
            }
            match conn
                .stream
                .write(&conn.write_buf[conn.write_pos..conn.segment_end])
            {
                Ok(0) => return WriteStep::Closed,
                Ok(n) => conn.write_pos += n,
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return WriteStep::Blocked
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return WriteStep::Closed,
            }
        }
    }

    /// Makes `token`'s one timer entry fire no later than its deadline.
    /// An entry that fires earlier is left alone; `fire_timers` re-arms
    /// it then, so a busy connection costs one set operation per idle
    /// timeout, not one per request.
    fn arm(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let Some(deadline) = conn.deadline else {
            return;
        };
        if conn.timer.is_some_and(|at| at <= deadline) {
            return;
        }
        if let Some(old) = conn.timer.replace(deadline) {
            self.timers.remove(&(old, token));
        }
        self.timers.insert((deadline, token));
        debug_assert!(self.timers.len() <= self.conns.len());
    }

    fn fire_timers(&mut self, now: Instant) {
        while let Some(&(at, token)) = self.timers.first() {
            if at > now {
                return;
            }
            self.timers.pop_first();
            let Some(conn) = self.conns.get_mut(token) else {
                continue;
            };
            conn.timer = None;
            let Some(deadline) = conn.deadline else {
                continue;
            };
            if deadline > now {
                // The deadline moved out after this entry was armed.
                self.arm(token);
                continue;
            }
            match conn.phase {
                Phase::Delay | Phase::WritePause => {
                    conn.phase = Phase::Writing;
                    conn.deadline = None;
                    self.drive(token, now);
                }
                Phase::Idle | Phase::Reading => {
                    let partial = !conn.read_buf.is_empty();
                    match self.app.on_idle_timeout(self.id, partial) {
                        None => self.close(token),
                        Some(bytes) => {
                            conn.read_buf.clear();
                            conn.load_final_bytes(bytes);
                            conn.phase = Phase::Writing;
                            conn.deadline = None;
                            self.drive(token, now);
                        }
                    }
                }
                // A write that blocked past the idle budget: the
                // client is not reading — give up on it.
                Phase::Writing => self.close(token),
            }
        }
    }

    fn set_interest(&mut self, token: usize, want: u8) {
        let Some((fd, current)) = self
            .conns
            .get(token)
            .map(|c| (c.stream.as_raw_fd(), c.interest))
        else {
            return;
        };
        if current == want {
            return;
        }
        if self.poller.modify(fd, token as u64, want).is_err() {
            self.close(token);
            return;
        }
        if let Some(conn) = self.conns.get_mut(token) {
            conn.interest = want;
        }
    }

    fn close(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(token) {
            if let Some(at) = conn.timer {
                self.timers.remove(&(at, token));
            }
            let _ = self.poller.remove(conn.stream.as_raw_fd());
        }
    }

    fn begin_drain(&mut self, now: Instant) {
        self.draining = true;
        self.drain_deadline = Some(now + self.drain_timeout);
        let _ = self.poller.remove(self.listener.as_raw_fd());
        for token in self.conns.keys() {
            let idle = self
                .conns
                .get(token)
                .map(|c| c.phase == Phase::Idle && c.read_buf.is_empty())
                .unwrap_or(false);
            if idle {
                self.close(token);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// One request is one `\n`-terminated line, echoed back verbatim.
    #[derive(Default)]
    struct LineEcho {
        answered: AtomicUsize,
    }

    impl App for LineEcho {
        type Request = Vec<u8>;

        fn parse(&self, _shard: usize, buf: &[u8], eof: bool) -> Parse<Vec<u8>> {
            match buf.iter().position(|b| *b == b'\n') {
                Some(end) => Parse::Complete {
                    request: buf[..=end].to_vec(),
                    consumed: end + 1,
                },
                None if eof => Parse::Close,
                None => Parse::Incomplete,
            }
        }

        fn respond(&self, _shard: usize, request: Vec<u8>, _force_close: bool) -> Response {
            self.answered.fetch_add(1, Ordering::SeqCst);
            Response::new(request, true)
        }

        fn on_idle_timeout(&self, _shard: usize, _partial: bool) -> Option<Vec<u8>> {
            None
        }
    }

    /// Turns `shard` on the calling thread until `done` holds.
    fn turn_until(
        shard: &mut Shard<LineEcho>,
        events: &mut Vec<Event>,
        done: impl Fn(&Shard<LineEcho>) -> bool,
    ) {
        let started = Instant::now();
        while !done(shard) {
            assert!(started.elapsed() < Duration::from_secs(10), "shard stalled");
            assert!(shard.turn(events), "shard stopped");
        }
    }

    #[test]
    fn a_keep_alive_connection_holds_one_timer_entry_for_its_whole_life() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let addr = listener.local_addr().expect("addr");
        let app = Arc::new(LineEcho::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let config = ReactorConfig::default();
        let (wake, waker) = UnixStream::pair().expect("wake pair");
        let (inbox_tx, inbox) = mpsc::channel();
        let handoff = Arc::new(Handoff {
            accepted: AtomicUsize::new(0),
            inboxes: vec![inbox_tx],
            wakers: vec![waker],
        });
        let mut shard = Shard::new(
            0,
            &app,
            &listener,
            (wake, inbox),
            &handoff,
            &config,
            &shutdown,
        )
        .expect("shard");
        let mut events = Vec::new();

        let mut client = TcpStream::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        turn_until(&mut shard, &mut events, |s| s.conns.len() == 1);
        let token = shard.conns.keys()[0];
        assert_eq!(shard.timers.len(), 1, "after accept");

        let mut echo = [0u8; 5];
        for served in 1..=10_000 {
            client.write_all(b"ping\n").expect("write");
            turn_until(&mut shard, &mut events, |s| {
                s.app.answered.load(Ordering::SeqCst) == served
                    && s.conns.get(token).is_some_and(|c| c.phase == Phase::Idle)
            });
            assert_eq!(shard.timers.len(), 1, "after response {served}");
            client.read_exact(&mut echo).expect("echo");
            assert_eq!(&echo, b"ping\n");
        }

        drop(client);
        turn_until(&mut shard, &mut events, |s| s.conns.is_empty());
        assert_eq!(shard.timers.len(), 0, "after the client closed");

        let _next = TcpStream::connect(addr).expect("reconnect");
        turn_until(&mut shard, &mut events, |s| s.conns.len() == 1);
        assert_eq!(shard.conns.keys(), vec![token], "the freed token is reused");
        assert_eq!(shard.timers.len(), 1, "after the token's reuse");
    }
}
