//! Engine-level tests over a minimal line-based protocol app: one
//! request is one `\n`-terminated line, the response echoes it back
//! uppercased with the answering shard's id. Exercises connection
//! placement, keep-alive cycling, pipelining, fault write modes, idle
//! timeouts, and graceful drain on both poller backends.
#![cfg(unix)]

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wp_reactor::{App, Parse, Reactor, ReactorConfig, Response, WriteMode};

/// `quit\n` closes after responding; `slow\n` answers in paced chunks;
/// `half\n` truncates mid-response; `bad!` anywhere in a line rejects.
/// `refuse_next` makes `on_accept` drop the next connection.
struct EchoApp {
    accepted: AtomicUsize,
    timeouts: AtomicUsize,
    refuse_next: AtomicBool,
}

impl App for EchoApp {
    type Request = String;

    fn on_accept(&self) -> bool {
        self.accepted.fetch_add(1, Ordering::SeqCst);
        !self.refuse_next.swap(false, Ordering::SeqCst)
    }

    fn parse(&self, _shard: usize, buf: &[u8], eof: bool) -> Parse<String> {
        match buf.iter().position(|b| *b == b'\n') {
            Some(pos) => {
                let line = String::from_utf8_lossy(&buf[..pos]).into_owned();
                if line.contains("bad!") {
                    Parse::Reject {
                        response: b"REJECT\n".to_vec(),
                    }
                } else {
                    Parse::Complete {
                        request: line,
                        consumed: pos + 1,
                    }
                }
            }
            None if eof => {
                if buf.is_empty() {
                    Parse::Close
                } else {
                    Parse::Reject {
                        response: b"PARTIAL\n".to_vec(),
                    }
                }
            }
            None => Parse::Incomplete,
        }
    }

    fn respond(&self, shard: usize, request: String, force_close: bool) -> Response {
        let keep_alive = request != "quit" && !force_close;
        let mut response = Response::new(
            format!("{}#{shard}\n", request.to_uppercase()).into_bytes(),
            keep_alive,
        );
        if request == "slow" {
            response.write = WriteMode::Chunked {
                chunks: 3,
                pause: Duration::from_millis(10),
            };
        }
        if request == "half" {
            response.write = WriteMode::TruncateHalf;
        }
        response
    }

    fn on_idle_timeout(&self, _shard: usize, partial: bool) -> Option<Vec<u8>> {
        self.timeouts.fetch_add(1, Ordering::SeqCst);
        partial.then(|| b"TIMEOUT\n".to_vec())
    }
}

struct Rig {
    addr: std::net::SocketAddr,
    app: Arc<EchoApp>,
    handle: wp_reactor::ReactorHandle,
}

fn start(threads: usize, idle: Duration, force_poll: bool) -> Rig {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let app = Arc::new(EchoApp {
        accepted: AtomicUsize::new(0),
        timeouts: AtomicUsize::new(0),
        refuse_next: AtomicBool::new(false),
    });
    let handle = Reactor::start(
        listener,
        Arc::clone(&app),
        ReactorConfig {
            threads,
            idle_timeout: idle,
            drain_timeout: Duration::from_secs(2),
            force_poll,
        },
    )
    .expect("reactor starts");
    Rig { addr, app, handle }
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
}

fn read_line(stream: &mut TcpStream) -> String {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => line.push(byte[0]),
            Err(e) => panic!("read_line: {e}"),
        }
    }
    String::from_utf8(line).expect("utf-8 line")
}

/// Reads until EOF, returning everything seen.
fn read_to_end(stream: &mut TcpStream) -> Vec<u8> {
    let mut all = Vec::new();
    stream.read_to_end(&mut all).expect("read_to_end");
    all
}

fn keep_alive_roundtrips(force_poll: bool) {
    let rig = start(2, Duration::from_secs(30), force_poll);
    let mut stream = connect(rig.addr);
    for i in 0..50 {
        let msg = format!("hello-{i}\n");
        stream.write_all(msg.as_bytes()).expect("write");
        let line = read_line(&mut stream);
        assert!(
            line.starts_with(&format!("HELLO-{i}#")),
            "request {i} echoed: {line:?}"
        );
    }
    // All 50 requests rode one connection.
    assert_eq!(rig.app.accepted.load(Ordering::SeqCst), 1);
    rig.handle.shutdown();
}

#[test]
fn keep_alive_roundtrips_epoll() {
    keep_alive_roundtrips(false);
}

#[test]
fn keep_alive_roundtrips_poll_backend() {
    keep_alive_roundtrips(true);
}

/// Whichever shard accepts it, the k-th connection kept lands on shard
/// `k mod 3`; a connection `on_accept` refuses takes no ordinal, so it
/// shifts nothing.
fn connections_are_placed_round_robin(force_poll: bool) {
    let rig = start(3, Duration::from_secs(30), force_poll);
    let mut kept = Vec::new();
    for round in 0..2 {
        for shard in 0..3 {
            let k = round * 3 + shard;
            let mut stream = connect(rig.addr);
            stream
                .write_all(format!("c{k}\n").as_bytes())
                .expect("write");
            assert_eq!(read_line(&mut stream), format!("C{k}#{shard}"));
            kept.push(stream);
        }
        rig.app.refuse_next.store(true, Ordering::SeqCst);
        let mut refused = connect(rig.addr);
        let mut byte = [0u8; 1];
        assert!(
            matches!(refused.read(&mut byte), Ok(0) | Err(_)),
            "a refused connection is closed unanswered"
        );
        assert!(!rig.app.refuse_next.load(Ordering::SeqCst));
    }
    // Every kept connection stays on its shard.
    for (k, stream) in kept.iter_mut().enumerate() {
        stream.write_all(b"again\n").expect("write");
        assert_eq!(read_line(stream), format!("AGAIN#{}", k % 3));
    }
    assert_eq!(rig.app.accepted.load(Ordering::SeqCst), 8);
    rig.handle.shutdown();
}

#[test]
fn connections_are_placed_round_robin_epoll() {
    connections_are_placed_round_robin(false);
}

#[test]
fn connections_are_placed_round_robin_poll_backend() {
    connections_are_placed_round_robin(true);
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let rig = start(1, Duration::from_secs(30), false);
    let mut stream = connect(rig.addr);
    stream.write_all(b"a\nb\nc\nquit\n").expect("write");
    let body = read_to_end(&mut stream);
    let text = String::from_utf8(body).expect("utf-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "four responses: {text:?}");
    assert!(lines[0].starts_with("A#"));
    assert!(lines[1].starts_with("B#"));
    assert!(lines[2].starts_with("C#"));
    assert!(lines[3].starts_with("QUIT#"));
    rig.handle.shutdown();
}

#[test]
fn chunked_and_truncated_write_modes() {
    let rig = start(1, Duration::from_secs(30), false);

    let mut stream = connect(rig.addr);
    stream.write_all(b"slow\n").expect("write");
    let started = Instant::now();
    let line = read_line(&mut stream);
    assert!(line.starts_with("SLOW#"), "paced response intact: {line:?}");
    assert!(
        started.elapsed() >= Duration::from_millis(15),
        "two inter-chunk pauses of 10ms each"
    );

    let mut stream = connect(rig.addr);
    stream.write_all(b"half\n").expect("write");
    let body = read_to_end(&mut stream);
    let expected = b"HALF#0\n";
    assert_eq!(body, expected[..expected.len() / 2].to_vec());
    rig.handle.shutdown();
}

#[test]
fn reject_writes_response_then_closes() {
    let rig = start(1, Duration::from_secs(30), false);
    let mut stream = connect(rig.addr);
    stream.write_all(b"this is bad!\n").expect("write");
    assert_eq!(read_to_end(&mut stream), b"REJECT\n".to_vec());
    rig.handle.shutdown();
}

#[test]
fn idle_connection_is_closed_silently_and_partial_gets_a_response() {
    let rig = start(1, Duration::from_millis(150), false);

    // Fully idle: closed with no bytes.
    let mut idle = connect(rig.addr);
    assert_eq!(read_to_end(&mut idle), Vec::<u8>::new());

    // Stalled mid-request: the timeout response is written first.
    let mut partial = connect(rig.addr);
    partial.write_all(b"no newline yet").expect("write");
    assert_eq!(read_to_end(&mut partial), b"TIMEOUT\n".to_vec());

    assert!(rig.app.timeouts.load(Ordering::SeqCst) >= 2);
    rig.handle.shutdown();
}

/// Requests every 40ms keep a 150ms-idle connection open past several
/// idle timeouts; once they stop, it closes one idle timeout later.
fn busy_connection_outlives_its_idle_timeout_and_a_quiet_one_closes_on_time(force_poll: bool) {
    let rig = start(1, Duration::from_millis(150), force_poll);
    let mut stream = connect(rig.addr);
    let started = Instant::now();
    let mut last_response = started;
    while started.elapsed() < Duration::from_millis(600) {
        stream.write_all(b"ping\n").expect("write");
        let line = read_line(&mut stream);
        assert!(
            line.starts_with("PING#"),
            "busy connection answered: {line:?}"
        );
        last_response = Instant::now();
        std::thread::sleep(Duration::from_millis(40));
    }
    assert_eq!(rig.app.timeouts.load(Ordering::SeqCst), 0);

    assert_eq!(read_to_end(&mut stream), Vec::<u8>::new());
    let quiet = last_response.elapsed();
    assert!(
        quiet >= Duration::from_millis(140) && quiet <= Duration::from_millis(400),
        "closed {quiet:?} after the last response"
    );
    assert_eq!(rig.app.timeouts.load(Ordering::SeqCst), 1);
    assert_eq!(rig.app.accepted.load(Ordering::SeqCst), 1);
    rig.handle.shutdown();
}

#[test]
fn busy_connection_outlives_its_idle_timeout_epoll() {
    busy_connection_outlives_its_idle_timeout_and_a_quiet_one_closes_on_time(false);
}

#[test]
fn busy_connection_outlives_its_idle_timeout_poll_backend() {
    busy_connection_outlives_its_idle_timeout_and_a_quiet_one_closes_on_time(true);
}

#[test]
fn shutdown_drains_idle_keepalive_connections_promptly() {
    let rig = start(2, Duration::from_secs(30), false);
    // Park several idle keep-alive connections (each has served one
    // request, so they are genuinely in the Idle phase).
    let mut parked = Vec::new();
    for _ in 0..4 {
        let mut stream = connect(rig.addr);
        stream.write_all(b"ping\n").expect("write");
        assert!(read_line(&mut stream).starts_with("PING#"));
        parked.push(stream);
    }
    let started = Instant::now();
    rig.handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown with idle keep-alive connections must not hang"
    );
    // The parked sockets were all closed by the drain.
    for stream in &mut parked {
        assert_eq!(read_to_end(stream), Vec::<u8>::new());
    }
}

#[test]
fn many_concurrent_keepalive_connections_on_two_shards() {
    wp_reactor::raise_nofile_limit(4096);
    let rig = start(2, Duration::from_secs(30), false);
    let count = 256;
    let mut streams: Vec<TcpStream> = Vec::with_capacity(count);
    for _ in 0..count {
        streams.push(connect(rig.addr));
    }
    // Two full rounds over every connection proves they all stay open
    // concurrently and keep-alive works on each.
    for round in 0..2 {
        for (i, stream) in streams.iter_mut().enumerate() {
            let msg = format!("r{round}-c{i}\n");
            stream.write_all(msg.as_bytes()).expect("write");
        }
        for (i, stream) in streams.iter_mut().enumerate() {
            let line = read_line(stream);
            assert!(
                line.starts_with(&format!("R{round}-C{i}#")),
                "round {round} conn {i}: {line:?}"
            );
        }
    }
    assert_eq!(rig.app.accepted.load(Ordering::SeqCst), count);
    rig.handle.shutdown();
}
