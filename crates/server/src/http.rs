//! Minimal HTTP/1.1 request framing and response rendering.
//!
//! Just enough of the protocol for a JSON service driven by a known
//! client set: request-line + header parsing, `Content-Length` bodies,
//! keep-alive, and response rendering. No chunked transfer encoding, no
//! `Expect: 100-continue`, no TLS — requests using unsupported framing
//! are rejected with an error the caller maps to a `4xx`. A request is
//! framed straight from the bytes its connection has buffered so far:
//! [`parse_request`] reads them borrowed and copies the body out, and
//! [`take_request`], which the server uses, takes the connection's
//! buffer itself as the body of a request that ends it.

/// Upper bound on accepted request bodies (16 MiB): a full 360-sample
/// telemetry corpus posts in well under 1 MiB, so anything larger is a
/// client bug, not a workload.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Upper bound on one request-line or header line (terminator excluded).
/// A line is rejected exactly when more than `MAX_LINE_BYTES + 2` bytes
/// precede its newline (`+ 2` leaves room for the `\r` of a maximal CRLF
/// line) or when its content without trailing `\r`s is longer than this.
/// The first rule is checked against the buffered bytes before the
/// newline arrives, so a peer streaming a newline-less flood is rejected
/// after one cap's worth of buffering, not after exhausting memory.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

const LINE_TOO_LONG: &str = "header line exceeds 8 KiB";
const BODY_NOT_UTF8: &str = "body is not valid UTF-8";

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

/// Outcome of one parse attempt over buffered bytes.
#[derive(Debug, PartialEq, Eq)]
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
    /// Framing error, with the message the `400` answer carries.
    Invalid(String),
}

/// Tries to frame one request out of `buf`, the bytes a connection has
/// buffered so far, reading its lines and body straight from the slice.
/// [`Parsed::Incomplete`] asks for more bytes; `eof` marks that the peer
/// will send nothing further, which resolves every pending case (clean
/// close, a final body, or a mid-frame truncation error).
///
/// Re-running from scratch as the buffer grows is sound because every
/// verdict depends only on the byte stream, never on how it is chunked
/// (see [`MAX_LINE_BYTES`] for the one rule that looks ahead of a
/// newline): a prefix that parses to an error still parses to that same
/// error with more bytes appended, and an incomplete prefix has rejected
/// nothing yet. A body that has not fully arrived leaves the parse
/// incomplete before it is copied, so a large body is copied once, not
/// once per read.
pub fn parse_request(buf: &[u8], eof: bool) -> Parsed {
    let mut cursor = Cursor { buf, pos: 0, eof };
    let framed = match frame(&mut cursor) {
        Ok(Some(framed)) => copy_body(framed, buf).map(Some),
        Ok(None) => Ok(None),
        Err(stop) => Err(stop),
    };
    verdict(framed, cursor.pos)
}

/// [`parse_request`] over a connection's own buffer, with the same
/// verdicts, that removes a framed request's `consumed` bytes from it.
/// A request that ends the buffer takes the buffer as its body: the
/// head is drained in place and the body keeps the allocation it was
/// read into, so no byte of it is copied to a new one. A request with a
/// pipelined successor behind it copies its body out, as
/// [`parse_request`] does. On [`Parsed::Incomplete`] and
/// [`Parsed::Closed`] the buffer is left as it was; after
/// [`Parsed::Invalid`] its contents are unspecified.
pub fn take_request(buf: &mut Vec<u8>, eof: bool) -> Parsed {
    let mut cursor = Cursor { buf, pos: 0, eof };
    let framed = frame(&mut cursor);
    let consumed = cursor.pos;
    let framed = match framed {
        Ok(Some(framed)) if consumed == buf.len() => take_body(framed, buf).map(Some),
        Ok(Some(framed)) => {
            let request = copy_body(framed, buf);
            buf.drain(..consumed);
            request.map(Some)
        }
        Ok(None) => Ok(None),
        Err(stop) => Err(stop),
    };
    verdict(framed, consumed)
}

/// The [`Parsed`] form of a framing outcome.
fn verdict(framed: Result<Option<Request>, Stop>, consumed: usize) -> Parsed {
    match framed {
        Ok(Some(request)) => Parsed::Request { request, consumed },
        Ok(None) => Parsed::Closed,
        Err(Stop::NeedMore) => Parsed::Incomplete,
        Err(Stop::Invalid(msg)) => Parsed::Invalid(msg),
    }
}

/// Why [`frame`] stopped short of a request.
enum Stop {
    /// The buffer ends before the request does.
    NeedMore,
    /// A framing error.
    Invalid(String),
}

impl From<&str> for Stop {
    fn from(msg: &str) -> Self {
        Stop::Invalid(msg.to_string())
    }
}

impl From<String> for Stop {
    fn from(msg: String) -> Self {
        Stop::Invalid(msg)
    }
}

/// A read position in a connection's buffered bytes.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The peer will send nothing past `buf`.
    eof: bool,
}

impl<'a> Cursor<'a> {
    /// The next CRLF (or bare LF) terminated line as UTF-8, without its
    /// terminator, capped as [`MAX_LINE_BYTES`] says. `None` at EOF
    /// before any byte; at EOF mid-line the partial line is handed up
    /// (the caller decides what an unterminated line means).
    fn line(&mut self) -> Result<Option<&'a str>, Stop> {
        let rest = &self.buf[self.pos..];
        let newline = rest.iter().position(|&b| b == b'\n');
        let end = newline.unwrap_or(rest.len());
        if end > MAX_LINE_BYTES + 2 {
            return Err(LINE_TOO_LONG.into());
        }
        if newline.is_none() && !self.eof {
            return Err(Stop::NeedMore);
        }
        if rest.is_empty() {
            return Ok(None);
        }
        self.pos += newline.map_or(end, |at| at + 1);
        let mut line = &rest[..end];
        while let [content @ .., b'\r'] = line {
            line = content;
        }
        if line.len() > MAX_LINE_BYTES {
            return Err(LINE_TOO_LONG.into());
        }
        std::str::from_utf8(line)
            .map(Some)
            .map_err(|_| "header line is not valid UTF-8".into())
    }
}

/// A framed request, its body still empty, and where the body lies in
/// the buffered bytes.
type Framed = (Request, std::ops::Range<usize>);

/// Copies the framed body out of `buf` into the request.
fn copy_body((mut request, body): Framed, buf: &[u8]) -> Result<Request, Stop> {
    request.body = std::str::from_utf8(&buf[body])
        .map_err(|_| BODY_NOT_UTF8)?
        .to_owned();
    Ok(request)
}

/// Takes `buf`, which the framed body ends, as the body: the head is
/// drained in place (one move of the body's bytes) and the body keeps
/// the allocation.
fn take_body((mut request, body): Framed, buf: &mut Vec<u8>) -> Result<Request, Stop> {
    let mut bytes = std::mem::take(buf);
    bytes.drain(..body.start);
    request.body = String::from_utf8(bytes).map_err(|_| BODY_NOT_UTF8)?;
    Ok(request)
}

/// Reads the request line and the headers, and steps over the body,
/// which must have fully arrived; `None` on a clean EOF before the first
/// byte (the peer closed an idle keep-alive connection). The body's
/// bytes are the caller's to check and materialise.
fn frame(cursor: &mut Cursor<'_>) -> Result<Option<Framed>, Stop> {
    let Some(request_line) = cursor.line()? else {
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
        return Err(format!("unsupported version '{version}'").into());
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length: Option<usize> = None;
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    loop {
        let line = cursor.line()?.ok_or("connection closed mid-headers")?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("malformed header '{line}'").into());
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
                    )
                    .into());
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
                return Err("chunked transfer encoding is not supported".into());
            }
            _ => {}
        }
    }

    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(format!("body of {content_length} bytes exceeds limit").into());
    }
    let body = cursor.pos..cursor.pos + content_length;
    if body.end > cursor.buf.len() {
        return Err(if cursor.eof {
            "reading body: failed to fill whole buffer".into()
        } else {
            Stop::NeedMore
        });
    }
    cursor.pos = body.end;
    let request = Request {
        method,
        path,
        body: String::new(),
        keep_alive,
    };
    Ok(Some((request, body)))
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

    /// The verdict on `text` as the whole byte stream, at EOF.
    fn parse(text: &str) -> Result<Option<Request>, String> {
        match parse_request(text.as_bytes(), true) {
            Parsed::Request { request, .. } => Ok(Some(request)),
            Parsed::Closed => Ok(None),
            Parsed::Invalid(msg) => Err(msg),
            Parsed::Incomplete => panic!("no verdict at EOF on {text:?}"),
        }
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
        // a peer streaming bytes with no '\n' is rejected once one byte
        // more than a maximal CRLF line is buffered, not after the stream
        let flood = vec![b'A'; 1024 * 1024];
        let first = (0..=flood.len())
            .find(|&end| !matches!(parse_request(&flood[..end], false), Parsed::Incomplete));
        assert_eq!(first, Some(MAX_LINE_BYTES + 3));
        let err = parse(std::str::from_utf8(&flood).unwrap()).unwrap_err();
        assert!(err.contains("exceeds 8 KiB"), "{err}");
    }

    /// Feeds `bytes` to `parse_request` one byte at a time without EOF
    /// and asserts every prefix is `Incomplete` until, if ever, the
    /// verdict the whole stream reaches at EOF appears.
    fn assert_prefixes_agree_with_eof(bytes: &[u8]) {
        let at_eof = parse_request(bytes, true);
        assert_ne!(at_eof, Parsed::Incomplete, "no verdict at EOF: {bytes:?}");
        for end in 0..=bytes.len() {
            let early = parse_request(&bytes[..end], false);
            if early != Parsed::Incomplete {
                assert_eq!(early, at_eof, "prefix of {end} bytes of {bytes:?}");
                return;
            }
        }
    }

    #[test]
    fn prefix_verdicts_agree_with_eof_verdicts_byte_by_byte() {
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
            assert_prefixes_agree_with_eof(case);
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

        // Framed in the buffer itself, the first request leaves the
        // second's bytes behind, and the second, which ends the buffer,
        // takes it as its body.
        let Parsed::Request { consumed, .. } = take_request(&mut stream, false) else {
            panic!("first request frames in the buffer");
        };
        assert_eq!(
            (consumed, stream.as_slice()),
            (first.len(), second.as_slice())
        );
        let buffer_at = stream.as_ptr();
        let Parsed::Request { request, .. } = take_request(&mut stream, false) else {
            panic!("second request frames in the buffer");
        };
        assert_eq!(request.body, "{}");
        assert_eq!(request.body.as_ptr(), buffer_at, "the body is the buffer");
        assert_eq!(stream.capacity(), 0);
    }

    #[test]
    fn incremental_parse_closed_only_on_clean_eof() {
        assert!(matches!(parse_request(b"", true), Parsed::Closed));
        assert!(matches!(parse_request(b"", false), Parsed::Incomplete));
        match parse_request(b"GET / HTTP/1.1\r\n", true) {
            Parsed::Invalid(msg) => assert!(msg.contains("connection closed mid-headers"), "{msg}"),
            other => panic!("mid-frame EOF must be invalid: {other:?}"),
        }
        // A partial *line* at EOF is handed up and judged as-is.
        match parse_request(b"GET / HT", true) {
            Parsed::Invalid(msg) => assert!(msg.contains("unsupported version"), "{msg}"),
            other => panic!("mid-line EOF must be invalid: {other:?}"),
        }
    }

    #[test]
    fn sentinel_text_in_content_length_is_a_bad_value() {
        let bytes =
            b"POST / HTTP/1.1\r\nContent-Length: incremental parse suspended: need more bytes\r\n\r\n";
        let bad = "bad Content-Length 'incremental parse suspended: need more bytes'";
        for eof in [true, false] {
            assert_eq!(parse_request(bytes, eof), Parsed::Invalid(bad.to_string()));
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
