//! Minimal HTTP/1.1 framing over `std::io` streams.
//!
//! Just enough of the protocol for a JSON service driven by a known
//! client set: request-line + header parsing, `Content-Length` bodies,
//! keep-alive, and response rendering. No chunked transfer encoding, no
//! `Expect: 100-continue`, no TLS — requests using unsupported framing
//! are rejected with an error the caller maps to a `4xx`.

use std::io::BufRead;

/// Upper bound on accepted request bodies (16 MiB): a full 360-sample
/// telemetry corpus posts in well under 1 MiB, so anything larger is a
/// client bug, not a workload.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Upper bound on one request-line or header line (terminator excluded).
/// Enforced *while* reading: a peer streaming bytes without a newline is
/// rejected after at most this much buffering, not after exhausting
/// memory.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the request target (query string stripped).
    pub path: String,
    /// Raw body bytes interpreted as UTF-8.
    pub body: String,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Reads one request off `reader`.
///
/// Returns `Ok(None)` on a clean EOF before the first byte (the peer
/// closed an idle keep-alive connection) and `Err` on malformed framing.
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, String> {
    let Some((mut request, content_length)) = read_head(reader)? else {
        return Ok(None);
    };
    request.body = read_body(reader, content_length)?;
    Ok(Some(request))
}

/// Reads the request line and headers: the request with an empty body,
/// and the length of the body still to read.
fn read_head(reader: &mut impl BufRead) -> Result<Option<(Request, usize)>, String> {
    let Some(request_line) = read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or("empty request line")?
        .to_ascii_uppercase();
    let target = parts.next().ok_or("request line missing target")?;
    let version = parts.next().ok_or("request line missing version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported version '{version}'"));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length: Option<usize> = None;
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    loop {
        let line = read_line(reader)?.ok_or("connection closed mid-headers")?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("malformed header '{line}'"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let parsed: usize = value
                    .parse()
                    .map_err(|_| format!("bad Content-Length '{value}'"))?;
                // Duplicates that agree are harmless repetition;
                // duplicates that disagree are a request-smuggling shape
                // (RFC 9112 §6.3) and must not be resolved by picking one.
                if content_length.is_some_and(|prev| prev != parsed) {
                    return Err(format!(
                        "conflicting duplicate Content-Length headers ({} vs {parsed})",
                        content_length.unwrap_or(0),
                    ));
                }
                content_length = Some(parsed);
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    keep_alive = false;
                } else if v.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            "transfer-encoding" => {
                return Err("chunked transfer encoding is not supported".to_string());
            }
            _ => {}
        }
    }

    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(format!("body of {content_length} bytes exceeds limit"));
    }
    let request = Request {
        method,
        path,
        body: String::new(),
        keep_alive,
    };
    Ok(Some((request, content_length)))
}

fn read_body(reader: &mut impl BufRead, content_length: usize) -> Result<String, String> {
    let mut raw = vec![0u8; content_length];
    reader
        .read_exact(&mut raw)
        .map_err(|e| format!("reading body: {e}"))?;
    String::from_utf8(raw).map_err(|_| "body is not valid UTF-8".to_string())
}

/// Outcome of one incremental parse attempt over buffered bytes.
#[derive(Debug)]
pub enum Parsed {
    /// The buffer does not yet hold one full request — read more.
    Incomplete,
    /// One request framed; the first `consumed` buffer bytes belong to
    /// it (any remainder starts a pipelined successor).
    Request {
        /// The framed request.
        request: Request,
        /// Buffer bytes consumed by it.
        consumed: usize,
    },
    /// Clean close: EOF with no buffered bytes.
    Closed,
    /// Framing error, with exactly the message [`read_request`] reports
    /// for the same byte stream.
    Invalid(String),
}

/// Marker smuggled through `io::Error` to tell a truncated buffer apart
/// from a real framing error inside [`read_request`].
const NEED_MORE: &str = "incremental parse suspended: need more bytes";

/// A `BufRead` over a byte slice that reports the end of the slice as
/// a sentinel error instead of EOF (unless `eof` is set), so the
/// blocking parser can be suspended and re-run as bytes arrive.
struct SliceReader<'a> {
    buf: &'a [u8],
    pos: usize,
    eof: bool,
}

impl SliceReader<'_> {
    fn need_more() -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::WouldBlock, NEED_MORE)
    }
}

impl std::io::Read for SliceReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let rest = &self.buf[self.pos..];
        if rest.is_empty() {
            return if self.eof {
                Ok(0)
            } else {
                Err(Self::need_more())
            };
        }
        let n = rest.len().min(out.len());
        out[..n].copy_from_slice(&rest[..n]);
        self.pos += n;
        Ok(n)
    }
}

impl BufRead for SliceReader<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.buf.len() && !self.eof {
            return Err(Self::need_more());
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.buf.len());
    }
}

/// Incremental counterpart of [`read_request`] for nonblocking I/O:
/// tries to frame one request out of `buf`, reporting
/// [`Parsed::Incomplete`] when more bytes are needed. `eof` marks that
/// the peer will send nothing further, which resolves every pending
/// case (clean close, a final body, or a mid-frame truncation error).
///
/// It runs [`read_request`]'s steps over the buffer, suspending them
/// when the bytes run out, so accept/reject verdicts and error strings
/// are identical to the blocking parser's by construction. A body that
/// has not fully arrived suspends the parse before it is copied, so a
/// large body is copied once, not once per read. Re-running from
/// scratch as the buffer grows is sound because the parser's verdicts
/// depend only on the byte stream, never on how it is chunked (see
/// `read_line`'s cap contract) — a prefix that parses to an error
/// still parses to that same error with more bytes appended, and a
/// prefix that suspends has rejected nothing yet.
pub fn parse_request(buf: &[u8], eof: bool) -> Parsed {
    let mut reader = SliceReader { buf, pos: 0, eof };
    let framed = read_head(&mut reader).and_then(|head| {
        let Some((mut request, content_length)) = head else {
            return Ok(None);
        };
        if !eof && buf.len() - reader.pos < content_length {
            return Err(NEED_MORE.to_string());
        }
        request.body = read_body(&mut reader, content_length)?;
        Ok(Some(request))
    });
    match framed {
        Ok(Some(request)) => Parsed::Request {
            request,
            consumed: reader.pos,
        },
        Ok(None) => Parsed::Closed,
        Err(msg) if msg.contains(NEED_MORE) => Parsed::Incomplete,
        Err(msg) => Parsed::Invalid(msg),
    }
}

/// Reads one CRLF (or bare LF) terminated line as UTF-8, without the
/// terminator. `Ok(None)` on EOF before any byte.
///
/// The [`MAX_LINE_BYTES`] cap is enforced incrementally against the
/// buffered prefix, so a peer streaming a newline-less byte flood is
/// rejected after buffering at most one cap's worth of data. The
/// accept/reject verdict depends only on the byte stream, never on how
/// the transport chunks it: a line is rejected exactly when more than
/// `MAX_LINE_BYTES + 2` bytes precede its newline (`+ 2` leaves room for
/// the `\r` of a maximal CRLF line) or when the trimmed content exceeds
/// `MAX_LINE_BYTES`.
fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, String> {
    let mut raw = Vec::new();
    loop {
        let chunk = reader
            .fill_buf()
            .map_err(|e| format!("reading header line: {e}"))?;
        if chunk.is_empty() {
            // EOF: before any byte it is a clean close; mid-line, the
            // partial line is handed up (the caller decides what an
            // unterminated line means).
            if raw.is_empty() {
                return Ok(None);
            }
            break;
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if raw.len() + pos > MAX_LINE_BYTES + 2 {
                    return Err("header line exceeds 8 KiB".to_string());
                }
                raw.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                break;
            }
            None => {
                let len = chunk.len();
                if raw.len() + len > MAX_LINE_BYTES + 2 {
                    return Err("header line exceeds 8 KiB".to_string());
                }
                raw.extend_from_slice(chunk);
                reader.consume(len);
            }
        }
    }
    while raw.last() == Some(&b'\r') {
        raw.pop();
    }
    if raw.len() > MAX_LINE_BYTES {
        return Err("header line exceeds 8 KiB".to_string());
    }
    String::from_utf8(raw)
        .map(Some)
        .map_err(|_| "header line is not valid UTF-8".to_string())
}

/// The standard reason phrase for the status codes this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes one `application/json` response with explicit
/// `Content-Length` into a byte buffer. `extra_headers` (e.g.
/// `Retry-After` on an overload `503`) are inserted before the blank
/// line.
pub fn render_response(
    status: u16,
    body: &str,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> Vec<u8> {
    render_response_typed(status, body, keep_alive, "application/json", extra_headers)
}

/// [`render_response`] with an explicit `Content-Type` — the `/metrics`
/// endpoint serves Prometheus text exposition, everything else JSON.
/// With `content_type = "application/json"` the output is byte-identical
/// to [`render_response`].
pub fn render_response_typed(
    status: u16,
    body: &str,
    keep_alive: bool,
    content_type: &str,
    extra_headers: &[(&str, &str)],
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(text: &str) -> Result<Option<Request>, String> {
        read_request(&mut BufReader::new(text.as_bytes()))
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.body, "");
        assert!(req.keep_alive);
    }

    #[test]
    fn parses_post_with_content_length() {
        let req = parse("POST /similar HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, "{\"a\":1}");
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn query_string_is_stripped() {
        let req = parse("GET /stats?pretty=1 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/stats");
    }

    #[test]
    fn eof_before_request_is_none() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn malformed_framing_is_rejected() {
        assert!(parse("GET\r\n\r\n").is_err());
        assert!(parse("GET / SPDY/3\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
        assert!(parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").is_err());
        // body shorter than Content-Length
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").is_err());
    }

    #[test]
    fn conflicting_duplicate_content_length_is_rejected() {
        // last-wins would read 3 bytes of an 11-byte body and leave the
        // rest to be parsed as the next request — a smuggling primitive
        let err = parse(
            "POST / HTTP/1.1\r\nContent-Length: 11\r\nContent-Length: 3\r\n\r\n{\"runs\":[]}",
        )
        .unwrap_err();
        assert!(
            err.contains("conflicting duplicate Content-Length"),
            "{err}"
        );
        // agreeing duplicates are harmless and still accepted
        let req = parse("POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, "abc");
    }

    #[test]
    fn header_lines_are_capped() {
        // exactly at the cap (plus CRLF) parses...
        let ok = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_LINE_BYTES - 7)
        );
        assert!(parse(&ok).unwrap().is_some());
        // ...one line over the cap does not
        let over = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_LINE_BYTES)
        );
        let err = parse(&over).unwrap_err();
        assert!(err.contains("exceeds 8 KiB"), "{err}");
    }

    #[test]
    fn newline_less_flood_is_rejected_without_unbounded_buffering() {
        // a peer streaming bytes with no '\n': read_line must reject
        // after roughly one cap's worth, not buffer the whole stream
        let flood = 1024 * 1024u64;
        let mut reader = BufReader::new(std::io::Read::take(std::io::repeat(b'A'), flood));
        let err = read_request(&mut reader).unwrap_err();
        assert!(err.contains("exceeds 8 KiB"), "{err}");
        let consumed = flood - reader.into_inner().limit();
        assert!(
            consumed <= 4 * MAX_LINE_BYTES as u64,
            "cap must bound buffering: consumed {consumed} bytes of a 1 MiB flood"
        );
    }

    /// Feeds `bytes` to `parse_request` one byte at a time and asserts
    /// every prefix is `Incomplete` until the blocking parser's verdict
    /// appears, which must match it exactly.
    fn assert_incremental_matches_blocking(bytes: &[u8]) {
        let blocking = read_request(&mut BufReader::new(bytes));
        for end in 0..=bytes.len() {
            let eof = end == bytes.len();
            match parse_request(&bytes[..end], eof) {
                Parsed::Incomplete => {
                    assert!(!eof, "parse must resolve at EOF: {bytes:?}");
                }
                Parsed::Request { request, consumed } => {
                    let expected = blocking
                        .as_ref()
                        .expect("blocking parser accepted")
                        .as_ref()
                        .expect("blocking parser framed a request");
                    assert_eq!(request.method, expected.method);
                    assert_eq!(request.path, expected.path);
                    assert_eq!(request.body, expected.body);
                    assert_eq!(request.keep_alive, expected.keep_alive);
                    assert!(consumed <= end);
                    return;
                }
                Parsed::Invalid(msg) => {
                    assert_eq!(
                        &msg,
                        blocking.as_ref().expect_err("blocking parser rejected")
                    );
                    return;
                }
                Parsed::Closed => {
                    assert!(eof && bytes.is_empty());
                    return;
                }
            }
        }
        panic!("no verdict for {bytes:?}");
    }

    #[test]
    fn incremental_parse_matches_blocking_parse_byte_by_byte() {
        let cases: &[&[u8]] = &[
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
            b"POST /similar HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
            b"GET / HTTP/1.0\r\n\r\n",
            b"GET /stats?pretty=1 HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET\r\n\r\n",
            b"GET / SPDY/3\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 11\r\nContent-Length: 3\r\n\r\n{\"runs\":[]}",
            b"GET / HTTP/1.1\r\nX-Tail: v\r\n\r", // EOF inside the final CRLF
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", // body truncated at EOF
            b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\na\xff\xfe", // not UTF-8
            b"",
        ];
        for case in cases {
            assert_incremental_matches_blocking(case);
        }
    }

    #[test]
    fn incremental_parse_reports_pipelined_frame_boundaries() {
        let first = b"GET /healthz HTTP/1.1\r\n\r\n";
        let second = b"POST /similar HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
        let mut stream = first.to_vec();
        stream.extend_from_slice(second);
        let Parsed::Request { request, consumed } = parse_request(&stream, false) else {
            panic!("first request frames without EOF");
        };
        assert_eq!(request.path, "/healthz");
        assert_eq!(consumed, first.len());
        let Parsed::Request { request, consumed } = parse_request(&stream[consumed..], false)
        else {
            panic!("second request frames from the remainder");
        };
        assert_eq!(request.path, "/similar");
        assert_eq!(request.body, "{}");
        assert_eq!(consumed, second.len());
    }

    #[test]
    fn incremental_parse_caps_headers_before_the_newline_arrives() {
        // A newline-less flood must be rejected from the buffered
        // prefix alone — never Incomplete forever.
        let flood = vec![b'A'; MAX_LINE_BYTES + 3];
        match parse_request(&flood, false) {
            Parsed::Invalid(msg) => assert!(msg.contains("exceeds 8 KiB"), "{msg}"),
            other => panic!("flood not rejected: {other:?}"),
        }
        // Just below the cap the verdict is still open.
        let under = vec![b'A'; 64];
        assert!(matches!(parse_request(&under, false), Parsed::Incomplete));
    }

    #[test]
    fn incremental_parse_closed_only_on_clean_eof() {
        assert!(matches!(parse_request(b"", true), Parsed::Closed));
        assert!(matches!(parse_request(b"", false), Parsed::Incomplete));
        match parse_request(b"GET / HTTP/1.1\r\n", true) {
            Parsed::Invalid(msg) => assert!(msg.contains("connection closed mid-headers"), "{msg}"),
            other => panic!("mid-frame EOF must be invalid: {other:?}"),
        }
        // A partial *line* at EOF is handed up and judged as-is, the
        // same verdict the blocking parser reaches on that stream.
        match parse_request(b"GET / HT", true) {
            Parsed::Invalid(msg) => assert!(msg.contains("unsupported version"), "{msg}"),
            other => panic!("mid-line EOF must be invalid: {other:?}"),
        }
    }

    #[test]
    fn response_is_well_formed() {
        let out = render_response(200, "{\"ok\":true}", true, &[]);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn reason_phrases() {
        assert_eq!(reason(400), "Bad Request");
        assert_eq!(reason(404), "Not Found");
        assert_eq!(reason(418), "Unknown");
    }

    #[test]
    fn typed_render_matches_json_render_and_carries_the_type() {
        let json = render_response(200, "{}", true, &[]);
        let typed = render_response_typed(200, "{}", true, "application/json", &[]);
        assert_eq!(json, typed);
        let text = render_response_typed(200, "m 1\n", false, "text/plain; version=0.0.4", &[]);
        let head = String::from_utf8(text).unwrap();
        assert!(
            head.contains("Content-Type: text/plain; version=0.0.4\r\n"),
            "{head}"
        );
    }
}
