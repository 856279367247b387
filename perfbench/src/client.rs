//! The load client: one thread multiplexing a few keep-alive
//! connections over `ppoll(2)`, in closed or open loop.
//!
//! In the open loop, arrivals are due on a fixed schedule whatever the
//! server does; a due request waits in the client for the first idle
//! connection, and its latency runs from the time it was *due*, so a
//! stall is charged to every request queued behind it (wrk2's
//! correction for coordinated omission). How late the client itself
//! sent a request once it was due and a connection was free is recorded
//! separately, so a run that measures the client shows as such.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use crate::oracle::Observed;
use crate::sys;

/// A request that has been sent gets this long to be answered.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// After a phase ends, in-flight and queued requests get this long.
const DRAIN: Duration = Duration::from_secs(10);
/// Longest response head the client accepts.
const MAX_HEAD: usize = 64 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read,
    Ingest,
}

/// Why a request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fail {
    /// The connection broke before the answer was complete.
    Reset,
    /// No complete answer within [`REQUEST_TIMEOUT`], or never sent
    /// before the drain ended.
    Timeout,
    /// An unexpected HTTP status.
    Status,
    /// Unparseable framing or body.
    Malformed,
    /// A byte differs from the oracle, or the schema check failed.
    Mismatch,
}

impl Fail {
    pub const ALL: [Fail; 5] = [
        Fail::Reset,
        Fail::Timeout,
        Fail::Status,
        Fail::Malformed,
        Fail::Mismatch,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Fail::Reset => "reset",
            Fail::Timeout => "timeout",
            Fail::Status => "status",
            Fail::Malformed => "malformed",
            Fail::Mismatch => "mismatch",
        }
    }
}

/// What a closed phase leaves: counts, not per-request records, so the
/// client's memory does not grow with the server's throughput.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    /// Failures by class, indexed like [`Fail::ALL`].
    pub failures: [u64; 5],
    /// Correct reads and ingests answered in each whole window of
    /// `window` since the phase started.
    pub reads: Vec<u64>,
    pub ingests: Vec<u64>,
    pub window: Duration,
    /// Accepted `/ingest` batches and how many of them rebuilt the index.
    pub accepted: u64,
    pub rebuilt: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.failures.iter().sum()
    }
}

/// The closed phase's throughput is counted per window of this length.
const WINDOW: Duration = Duration::from_secs(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    Closed,
    Open,
}

/// One request as the client saw it. Times are nanoseconds since the
/// client's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub class: Class,
    /// When the request was due (closed loop: when it was sent).
    pub scheduled: u64,
    /// When it was due *and* a connection was free.
    pub ready: u64,
    pub sent: u64,
    /// When the last response byte arrived (or the failure was seen).
    pub done: u64,
    pub outcome: Result<Observed, Fail>,
}

impl Record {
    /// Latency from the scheduled send to the last response byte.
    pub fn latency(&self) -> u64 {
        self.done.saturating_sub(self.scheduled)
    }

    /// How late the client sent the request once it could have.
    pub fn lateness(&self) -> u64 {
        self.sent.saturating_sub(self.ready)
    }
}

/// What the client sends and how it judges the answers.
pub trait Traffic {
    /// The request to send next on `conn`.
    fn next(&mut self, conn: usize, class: Class) -> usize;
    /// The wire bytes of request `req`.
    fn wire(&self, req: usize) -> &[u8];
    /// Judges one complete response to request `req`.
    fn judge(&self, req: usize, response: &[u8]) -> Result<Observed, Fail>;
}

/// How a phase sends requests.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Connection `c` sends requests of class `roles[c]` back to back
    /// until `until`, at most `cap` of them.
    Closed {
        roles: Vec<Class>,
        until: Instant,
        cap: usize,
    },
    /// Reads are due every `1 / read_hz` and ingests every
    /// `1 / ingest_hz` from `start` until `until`.
    Open {
        start: Instant,
        until: Instant,
        read_hz: f64,
        ingest_hz: f64,
    },
}

/// Evenly spaced arrivals of one class.
struct Arrivals {
    class: Class,
    start: Instant,
    until: Instant,
    period: Option<Duration>,
    k: u32,
}

impl Arrivals {
    fn new(class: Class, start: Instant, until: Instant, hz: f64, offset: f64) -> Self {
        let period = (hz > 0.0).then(|| Duration::from_secs_f64(1.0 / hz));
        let start = start + period.map_or(Duration::ZERO, |p| p.mul_f64(offset));
        Self {
            class,
            start,
            until,
            period,
            k: 0,
        }
    }

    fn peek(&self) -> Option<Instant> {
        let due = self.start + self.period? * self.k;
        (due < self.until).then_some(due)
    }
}

struct Job {
    req: usize,
    class: Class,
    scheduled: Instant,
    ready: Instant,
    sent: Instant,
    written: usize,
}

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    job: Option<Job>,
    free_since: Instant,
    sent: usize,
}

impl Conn {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            inbuf: Vec::with_capacity(64 * 1024),
            job: None,
            free_since: Instant::now(),
            sent: 0,
        })
    }
}

/// Length of the first complete response in `buf`, `None` while it is
/// incomplete.
pub fn frame(buf: &[u8]) -> Result<Option<usize>, Fail> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return if buf.len() > MAX_HEAD {
            Err(Fail::Malformed)
        } else {
            Ok(None)
        };
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| Fail::Malformed)?;
    if !head.starts_with("HTTP/1.1 ") {
        return Err(Fail::Malformed);
    }
    let len = head
        .split("\r\n")
        .skip(1)
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())
        })
        .flatten()
        .ok_or(Fail::Malformed)?;
    let total = head_end + 4 + len;
    Ok((buf.len() >= total).then_some(total))
}

/// The status code of a framed response.
pub fn status(response: &[u8]) -> Option<u16> {
    std::str::from_utf8(response.get(9..12)?).ok()?.parse().ok()
}

/// Sends `wire` on a blocking stream and returns the complete response.
pub fn roundtrip(stream: &mut TcpStream, wire: &[u8]) -> Result<Vec<u8>, String> {
    stream.write_all(wire).map_err(|e| format!("send: {e}"))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if let Some(total) = frame(&buf).map_err(|f| f.label().to_string())? {
            buf.truncate(total);
            return Ok(buf);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed mid-response".to_string()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("receive: {e}")),
        }
    }
}

pub struct Client {
    addr: SocketAddr,
    epoch: Instant,
    conns: Vec<Conn>,
    phase_start: Instant,
    /// Every open-phase request.
    pub records: Vec<Record>,
    /// The closed phase.
    pub closed: Tally,
    /// Warmup requests that failed.
    pub warmup_failed: u64,
    /// CPU time of the client thread inside [`Client::run`].
    pub cpu: Duration,
}

impl Client {
    /// Takes over already-connected streams (placement happens before).
    pub fn new(addr: SocketAddr, streams: Vec<TcpStream>) -> Result<Self, String> {
        let conns = streams
            .into_iter()
            .map(Conn::new)
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| format!("configure connection: {e}"))?;
        Ok(Self {
            addr,
            epoch: Instant::now(),
            conns,
            phase_start: Instant::now(),
            records: Vec::new(),
            closed: Tally::default(),
            warmup_failed: 0,
            cpu: Duration::ZERO,
        })
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn record(&mut self, job: &Job, phase: Phase, done: Instant, outcome: Result<Observed, Fail>) {
        match phase {
            Phase::Warmup => self.warmup_failed += u64::from(outcome.is_err()),
            Phase::Closed => {
                let t = &mut self.closed;
                t.attempted += 1;
                match outcome {
                    Err(f) => t.failures[f as usize] += 1,
                    Ok(observed) => {
                        if job.class == Class::Ingest {
                            t.accepted += 1;
                            t.rebuilt += u64::from(observed.rebuilt);
                        }
                        let w = (done.saturating_duration_since(self.phase_start).as_nanos()
                            / t.window.as_nanos().max(1)) as usize;
                        let counts = match job.class {
                            Class::Read => &mut t.reads,
                            Class::Ingest => &mut t.ingests,
                        };
                        if let Some(c) = counts.get_mut(w) {
                            *c += 1;
                        }
                    }
                }
            }
            Phase::Open => self.records.push(Record {
                class: job.class,
                scheduled: self.ns(job.scheduled),
                ready: self.ns(job.ready),
                sent: self.ns(job.sent),
                done: self.ns(done),
                outcome,
            }),
        }
    }

    /// Replaces a broken connection.
    fn reconnect(&mut self, c: usize) -> Result<(), String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("reconnect: {e}"))?;
        let conn = Conn::new(stream).map_err(|e| format!("reconnect: {e}"))?;
        self.conns[c] = Conn {
            sent: self.conns[c].sent,
            ..conn
        };
        Ok(())
    }

    /// Ends connection `c`'s job with `outcome`.
    fn finish(&mut self, c: usize, phase: Phase, outcome: Result<Observed, Fail>, now: Instant) {
        if let Some(job) = self.conns[c].job.take() {
            self.record(&job, phase, now, outcome);
        }
        self.conns[c].free_since = now;
    }

    /// Writes what the socket takes of `c`'s request.
    fn pump_write(&mut self, c: usize, traffic: &impl Traffic) -> Result<(), Fail> {
        let conn = &mut self.conns[c];
        let Some(job) = conn.job.as_mut() else {
            return Ok(());
        };
        let wire = traffic.wire(job.req);
        while job.written < wire.len() {
            match conn.stream.write(&wire[job.written..]) {
                Ok(0) => return Err(Fail::Reset),
                Ok(n) => job.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(Fail::Reset),
            }
        }
        Ok(())
    }

    /// Reads what has arrived on `c`; `Some` once the answer is complete.
    fn pump_read(&mut self, c: usize, traffic: &impl Traffic) -> Option<Result<Observed, Fail>> {
        let conn = &mut self.conns[c];
        let req = conn.job.as_ref()?.req;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => return Some(Err(Fail::Reset)),
                Ok(n) => conn.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Some(Err(Fail::Reset)),
            }
        }
        match frame(&conn.inbuf) {
            Ok(None) => None,
            Err(f) => Some(Err(f)),
            Ok(Some(total)) if total != conn.inbuf.len() => Some(Err(Fail::Malformed)),
            Ok(Some(_)) => {
                let outcome = traffic.judge(req, &conn.inbuf);
                conn.inbuf.clear();
                Some(outcome)
            }
        }
    }

    fn dispatch(
        &mut self,
        c: usize,
        class: Class,
        scheduled: Instant,
        ready: Instant,
        traffic: &mut impl Traffic,
    ) {
        let req = traffic.next(c, class);
        let conn = &mut self.conns[c];
        conn.sent += 1;
        conn.job = Some(Job {
            req,
            class,
            scheduled,
            ready,
            sent: Instant::now(),
            written: 0,
        });
    }

    /// Runs one phase to completion: until its end, then until every
    /// sent or due request is answered or [`DRAIN`] passes.
    pub fn run(
        &mut self,
        plan: &Plan,
        traffic: &mut impl Traffic,
        phase: Phase,
    ) -> Result<(), String> {
        let cpu_start = sys::thread_cpu();
        let n = self.conns.len();
        for conn in &mut self.conns {
            conn.sent = 0;
            conn.free_since = Instant::now();
        }
        self.phase_start = Instant::now();
        if let (Phase::Closed, Plan::Closed { until, .. }) = (phase, plan) {
            let length = until.saturating_duration_since(self.phase_start);
            let window = if length >= WINDOW { WINDOW } else { length };
            let windows = (length.as_secs_f64() / window.as_secs_f64().max(1e-9)).round() as usize;
            self.closed = Tally {
                reads: vec![0; windows],
                ingests: vec![0; windows],
                window,
                ..Tally::default()
            };
        }
        let (until, mut arrivals) = match plan {
            Plan::Closed { until, .. } => (*until, Vec::new()),
            Plan::Open {
                start,
                until,
                read_hz,
                ingest_hz,
            } => (
                *until,
                vec![
                    Arrivals::new(Class::Read, *start, *until, *read_hz, 0.0),
                    Arrivals::new(Class::Ingest, *start, *until, *ingest_hz, 0.5),
                ],
            ),
        };
        let drain_end = until + DRAIN;
        let mut pending: VecDeque<(Class, Instant)> = VecDeque::new();
        let mut rotate = 0;
        let mut fds: Vec<sys::PollFd> = Vec::with_capacity(n);
        let mut polled: Vec<usize> = Vec::with_capacity(n);
        loop {
            let now = Instant::now();
            // Queue every arrival that is due, in time order.
            loop {
                let next = arrivals
                    .iter_mut()
                    .filter_map(|a| a.peek().map(|t| (t, a)))
                    .min_by_key(|(t, _)| *t);
                match next {
                    Some((t, a)) if t <= now => {
                        pending.push_back((a.class, t));
                        a.k += 1;
                    }
                    _ => break,
                }
            }
            // Hand work to idle connections, starting after the last one
            // used so open-loop arrivals spread over every connection.
            let first = rotate;
            for c in (0..n).map(|i| (first + i) % n) {
                if self.conns[c].job.is_some() {
                    continue;
                }
                match plan {
                    Plan::Closed { roles, cap, .. } => {
                        if now < until && self.conns[c].sent < *cap {
                            self.dispatch(c, roles[c % roles.len()], now, now, traffic);
                        }
                    }
                    Plan::Open { .. } => {
                        if let Some((class, due)) = pending.pop_front() {
                            let ready = due.max(self.conns[c].free_since);
                            self.dispatch(c, class, due, ready, traffic);
                        }
                    }
                }
                if self.conns[c].job.is_some() {
                    rotate = (c + 1) % n;
                    if let Err(f) = self.pump_write(c, traffic) {
                        self.finish(c, phase, Err(f), Instant::now());
                        self.reconnect(c)?;
                    }
                }
            }
            let busy = self.conns.iter().any(|c| c.job.is_some());
            let more = match plan {
                Plan::Closed { cap, .. } => now < until && self.conns.iter().any(|c| c.sent < *cap),
                Plan::Open { .. } => {
                    !pending.is_empty() || arrivals.iter().any(|a| a.peek().is_some())
                }
            };
            if !busy && !more {
                break;
            }
            if now >= drain_end {
                for c in 0..n {
                    if self.conns[c].job.is_some() {
                        self.finish(c, phase, Err(Fail::Timeout), now);
                        self.reconnect(c)?;
                    }
                }
                for (class, due) in pending.drain(..) {
                    let job = Job {
                        req: usize::MAX,
                        class,
                        scheduled: due,
                        ready: due,
                        sent: now,
                        written: 0,
                    };
                    self.record(&job, phase, now, Err(Fail::Timeout));
                }
                break;
            }
            // Sleep until a socket is ready, the next arrival is due, a
            // request times out, or the phase ends.
            let mut wake = drain_end;
            if more {
                wake = wake.min(until);
            }
            if let Some(t) = arrivals.iter().filter_map(Arrivals::peek).min() {
                wake = wake.min(t);
            }
            fds.clear();
            polled.clear();
            for (c, conn) in self.conns.iter().enumerate() {
                if let Some(job) = &conn.job {
                    wake = wake.min(job.sent + REQUEST_TIMEOUT);
                    let events = if job.written < traffic.wire(job.req).len() {
                        sys::POLLOUT
                    } else {
                        sys::POLLIN
                    };
                    fds.push(sys::PollFd {
                        fd: conn.stream.as_raw_fd(),
                        events,
                        revents: 0,
                    });
                    polled.push(c);
                }
            }
            sys::poll(&mut fds, Some(wake.saturating_duration_since(now)))
                .map_err(|e| format!("ppoll: {e}"))?;
            let now = Instant::now();
            for (i, &c) in polled.iter().enumerate() {
                let revents = fds[i].revents;
                let Some(job) = &self.conns[c].job else {
                    continue;
                };
                if revents == 0 {
                    if now >= job.sent + REQUEST_TIMEOUT {
                        self.finish(c, phase, Err(Fail::Timeout), now);
                        self.reconnect(c)?;
                    }
                    continue;
                }
                let result = if fds[i].events == sys::POLLOUT {
                    self.pump_write(c, traffic).err().map(Err)
                } else {
                    self.pump_read(c, traffic)
                };
                if let Some(outcome) = result {
                    // A wrong but complete answer leaves the connection in
                    // step; a broken stream does not.
                    let broken =
                        matches!(outcome, Err(Fail::Reset | Fail::Timeout | Fail::Malformed));
                    self.finish(c, phase, outcome, Instant::now());
                    if broken {
                        self.reconnect(c)?;
                    }
                } else if revents & (sys::POLLERR | sys::POLLHUP) != 0
                    && fds[i].events == sys::POLLOUT
                {
                    self.finish(c, phase, Err(Fail::Reset), now);
                    self.reconnect(c)?;
                }
            }
        }
        self.cpu += sys::thread_cpu().saturating_sub(cpu_start);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const OK: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";

    /// A one-connection server answering `ok` to every request, holding
    /// back answer `slow` by `delay`.
    fn server(
        slow: usize,
        delay: Duration,
    ) -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            let mut served = 0;
            while !flag.load(Ordering::SeqCst) {
                match wp_server::http::parse_request(&buf, false) {
                    wp_server::http::Parsed::Request { consumed, .. } => {
                        buf.drain(..consumed);
                        if served == slow {
                            std::thread::sleep(delay);
                        }
                        served += 1;
                        s.write_all(OK).unwrap();
                    }
                    _ => match s.read(&mut chunk) {
                        Ok(0) => return,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                        Err(_) => {}
                    },
                }
            }
        });
        (addr, stop, handle)
    }

    struct Fixed {
        wire: Vec<u8>,
        expect: Vec<u8>,
    }

    impl Traffic for Fixed {
        fn next(&mut self, _conn: usize, _class: Class) -> usize {
            0
        }
        fn wire(&self, _req: usize) -> &[u8] {
            &self.wire
        }
        fn judge(&self, _req: usize, response: &[u8]) -> Result<Observed, Fail> {
            if response == self.expect.as_slice() {
                Ok(Observed::default())
            } else {
                Err(Fail::Mismatch)
            }
        }
    }

    /// Runs 200 requests/s for 0.4 s over one connection against
    /// [`server`] and returns the records in schedule order.
    fn open_run(expect: &[u8], slow: usize, delay: Duration) -> Vec<Record> {
        let (addr, stop, handle) = server(slow, delay);
        let mut client = Client::new(addr, vec![TcpStream::connect(addr).unwrap()]).unwrap();
        let mut traffic = Fixed {
            wire: b"GET /healthz HTTP/1.1\r\n\r\n".to_vec(),
            expect: expect.to_vec(),
        };
        let start = Instant::now();
        let plan = Plan::Open {
            start,
            until: start + Duration::from_millis(400),
            read_hz: 200.0,
            ingest_hz: 0.0,
        };
        client.run(&plan, &mut traffic, Phase::Open).unwrap();
        stop.store(true, Ordering::SeqCst);
        let mut records = std::mem::take(&mut client.records);
        drop(client);
        handle.join().unwrap();
        records.sort_by_key(|r| r.scheduled);
        records
    }

    #[test]
    fn frames_by_content_length() {
        assert_eq!(frame(OK), Ok(Some(OK.len())));
        assert_eq!(frame(&OK[..OK.len() - 1]), Ok(None));
        assert_eq!(frame(b"HTTP/1.1 200 OK\r\n\r\n"), Err(Fail::Malformed));
        assert_eq!(
            frame(b"SMTP 200\r\nContent-Length: 0\r\n\r\n"),
            Err(Fail::Malformed)
        );
        assert_eq!(status(OK), Some(200));
    }

    #[test]
    fn a_delayed_answer_raises_the_latency_of_requests_scheduled_behind_it() {
        let ms = |ns: u64| ns as f64 / 1e6;
        let records = open_run(OK, 10, Duration::from_millis(100));
        assert_eq!(records.len(), 80);
        assert!(records.iter().all(|r| r.outcome.is_ok()));
        // Due 5 ms after the stalled request, so it waited ~95 ms for the
        // connection: charged to it although the server answered it fast.
        assert!(ms(records[11].latency()) > 80.0, "{:?}", records[11]);
        assert!(ms(records[15].latency()) > 60.0, "{:?}", records[15]);
        // The client itself was not late: it sent as soon as it could.
        assert!(ms(records[11].lateness()) < 10.0, "{:?}", records[11]);
        // Well after the stall the queue has drained.
        let tail: Vec<f64> = records[50..].iter().map(|r| ms(r.latency())).collect();
        assert!(crate::stats::median(&tail).unwrap() < 20.0, "{tail:?}");
    }

    #[test]
    fn a_flipped_expected_byte_counts_as_a_failure() {
        let mut expect = OK.to_vec();
        *expect.last_mut().unwrap() ^= 1;
        let records = open_run(&expect, usize::MAX, Duration::ZERO);
        assert_eq!(records.len(), 80);
        assert!(records.iter().all(|r| r.outcome == Err(Fail::Mismatch)));
    }
}
