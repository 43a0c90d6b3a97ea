//! A minimal HTTP/1.1 reader/writer on plain `std::io` streams.
//!
//! Only what the propagation service needs: request/response heads,
//! `Content-Length` bodies, keep-alive, and hard size limits. No
//! chunked transfer, no trailers, no upgrades — requests using them are
//! rejected rather than misparsed.
//!
//! Reading is built around [`HttpConn`], a buffered wrapper that
//! tolerates read timeouts: when the underlying stream is configured
//! with a short `read_timeout`, a `WouldBlock`/`TimedOut` read wakes
//! the caller's `should_abort` callback (shutdown flags, idle
//! deadlines) and then resumes without losing buffered bytes. That is
//! what lets a blocking server drain gracefully without platform
//! signal APIs.

use crate::error::{Result, ServeError};
use std::io::{ErrorKind, Read, Write};

/// Upper bounds a connection enforces while reading a message.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Max bytes of request line + headers.
    pub max_head: usize,
    /// Max bytes of body (from `Content-Length`).
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self { max_head: 16 * 1024, max_body: 1024 * 1024 }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method token, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target (origin form, e.g. `/v1/propagate`).
    pub target: String,
    /// Minor version of `HTTP/1.x` (0 or 1).
    pub minor_version: u8,
    /// Header fields in arrival order, names as sent.
    pub headers: Vec<(String, String)>,
    /// Message body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with the given case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after responding:
    /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close, and an
    /// explicit `Connection` header overrides either.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.minor_version >= 1,
        }
    }
}

/// A parsed HTTP response (the client half of the protocol).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header fields in arrival/emission order.
    pub headers: Vec<(String, String)>,
    /// Message body.
    pub body: Vec<u8>,
}

impl Response {
    /// An empty response with the given status.
    pub fn new(status: u16) -> Self {
        Self { status, headers: Vec::new(), body: Vec::new() }
    }

    /// Adds a header field.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Sets a JSON body (and `Content-Type: application/json`).
    pub fn with_json(mut self, body: String) -> Self {
        self.headers.push(("Content-Type".into(), "application/json".into()));
        self.body = body.into_bytes();
        self
    }

    /// Sets a plain-text body (and its `Content-Type`).
    pub fn with_text(mut self, body: String) -> Self {
        self.headers
            .push(("Content-Type".into(), "text/plain; version=0.0.4".into()));
        self.body = body.into_bytes();
        self
    }

    /// First header value with the given case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Body interpreted as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Serializes the response to the wire, adding `Content-Length`
    /// and a `Connection` header reflecting `keep_alive`.
    ///
    /// # Errors
    ///
    /// Propagates write failures from the stream.
    pub fn write_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\n",
            self.status,
            reason_phrase(self.status)
        );
        for (k, v) in &self.headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n"
        } else {
            "Connection: close\r\n"
        });
        head.push_str("\r\n");
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()?;
        Ok(())
    }
}

/// The canonical reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A buffered HTTP reader over any byte stream.
///
/// Bytes read past the end of one message are retained for the next
/// (pipelining/keep-alive safe).
#[derive(Debug)]
pub struct HttpConn<S> {
    stream: S,
    buf: Vec<u8>,
}

impl<S: Read> HttpConn<S> {
    /// Wraps a stream with an empty read buffer.
    pub fn new(stream: S) -> Self {
        Self { stream, buf: Vec::new() }
    }

    /// The wrapped stream (for writing responses on the same socket).
    pub fn stream_mut(&mut self) -> &mut S {
        &mut self.stream
    }

    /// Reads one more chunk from the stream into the buffer.
    ///
    /// Returns `Ok(true)` on progress, `Ok(false)` on clean EOF.
    /// `WouldBlock`/`TimedOut` reads invoke `should_abort`: when it
    /// answers `true` the pending [`ServeError::Timeout`] is returned,
    /// otherwise the read retries.
    fn fill(&mut self, should_abort: &mut dyn FnMut() -> bool) -> Result<bool> {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    // A reader claiming more bytes than the chunk holds
                    // breaks the `Read` contract; treat it as a dead peer.
                    let read = chunk.get(..n).ok_or(ServeError::Closed)?;
                    self.buf.extend_from_slice(read);
                    return Ok(true);
                }
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::TimedOut =>
                {
                    if should_abort() {
                        return Err(ServeError::Timeout);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Position just past the `\r\n\r\n` head terminator, if buffered.
    fn head_end(&self) -> Option<usize> {
        self.buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
    }

    /// The buffered head before the terminator that ends at `head_end`,
    /// decoded lossily (header values are checked field by field later).
    fn head_text(&self, head_end: usize) -> Result<String> {
        let head = head_end
            .checked_sub(4)
            .and_then(|end| self.buf.get(..end))
            .ok_or_else(|| ServeError::Protocol("truncated message head".into()))?;
        Ok(String::from_utf8_lossy(head).into_owned())
    }

    /// Reads the next request off the connection.
    ///
    /// Returns `Ok(None)` on clean EOF between messages (the peer hung
    /// up an idle keep-alive connection).
    ///
    /// # Errors
    ///
    /// [`ServeError::Timeout`] when `should_abort` fired during a
    /// stalled read, [`ServeError::Closed`] on EOF mid-message,
    /// [`ServeError::TooLarge`] past a limit, and
    /// [`ServeError::Protocol`] for unparseable bytes.
    pub fn read_request(
        &mut self,
        limits: &Limits,
        should_abort: &mut dyn FnMut() -> bool,
    ) -> Result<Option<Request>> {
        let head_end = loop {
            if let Some(end) = self.head_end() {
                if end > limits.max_head {
                    return Err(ServeError::TooLarge {
                        part: "head",
                        limit: limits.max_head,
                    });
                }
                break end;
            }
            if self.buf.len() > limits.max_head {
                return Err(ServeError::TooLarge { part: "head", limit: limits.max_head });
            }
            if !self.fill(should_abort)? {
                if self.buf.is_empty() {
                    return Ok(None);
                }
                return Err(ServeError::Closed);
            }
        };
        let head = self.head_text(head_end)?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let method = parts
            .next()
            .filter(|m| !m.is_empty())
            .ok_or_else(|| ServeError::Protocol("empty request line".into()))?
            .to_string();
        let target = parts
            .next()
            .ok_or_else(|| ServeError::Protocol("request line lacks a target".into()))?
            .to_string();
        let version = parts
            .next()
            .ok_or_else(|| ServeError::Protocol("request line lacks a version".into()))?;
        let minor_version = match version {
            "HTTP/1.1" => 1,
            "HTTP/1.0" => 0,
            other => {
                return Err(ServeError::Protocol(format!(
                    "unsupported version '{other}'"
                )))
            }
        };
        let headers = parse_header_lines(lines)?;
        let header = |name: &str| {
            headers
                .iter()
                .find(|(k, _): &&(String, String)| k.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.as_str())
        };
        if header("transfer-encoding").is_some() {
            return Err(ServeError::Protocol(
                "chunked transfer encoding is not supported".into(),
            ));
        }
        let content_length = match header("content-length") {
            Some(v) => v
                .trim()
                .parse::<usize>()
                .map_err(|_| ServeError::Protocol(format!("bad Content-Length '{v}'")))?,
            None => 0,
        };
        if content_length > limits.max_body {
            return Err(ServeError::TooLarge { part: "body", limit: limits.max_body });
        }
        let body = self.read_exact_body(head_end, content_length, should_abort)?;
        Ok(Some(Request {
            method,
            target,
            minor_version,
            headers,
            body,
        }))
    }

    /// Reads the next response off the connection (client side).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`HttpConn::read_request`], but EOF before
    /// any byte is also [`ServeError::Closed`] — a client awaits a
    /// response, so silence is an error.
    pub fn read_response(
        &mut self,
        limits: &Limits,
        should_abort: &mut dyn FnMut() -> bool,
    ) -> Result<Response> {
        let head_end = loop {
            if let Some(end) = self.head_end() {
                if end > limits.max_head {
                    return Err(ServeError::TooLarge {
                        part: "head",
                        limit: limits.max_head,
                    });
                }
                break end;
            }
            if self.buf.len() > limits.max_head {
                return Err(ServeError::TooLarge { part: "head", limit: limits.max_head });
            }
            if !self.fill(should_abort)? {
                return Err(ServeError::Closed);
            }
        };
        let head = self.head_text(head_end)?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let mut parts = status_line.split(' ');
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(ServeError::Protocol(format!(
                "bad status line '{status_line}'"
            )));
        }
        let status = parts
            .next()
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| ServeError::Protocol(format!("bad status line '{status_line}'")))?;
        let headers = parse_header_lines(lines)?;
        let content_length = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .map(|(_, v)| {
                v.trim()
                    .parse::<usize>()
                    .map_err(|_| ServeError::Protocol(format!("bad Content-Length '{v}'")))
            })
            .transpose()?
            .unwrap_or(0);
        if content_length > limits.max_body {
            return Err(ServeError::TooLarge { part: "body", limit: limits.max_body });
        }
        let body = self.read_exact_body(head_end, content_length, should_abort)?;
        Ok(Response { status, headers, body })
    }

    /// Consumes the head plus exactly `content_length` body bytes from
    /// the buffer (filling as needed) and returns the body.
    fn read_exact_body(
        &mut self,
        head_end: usize,
        content_length: usize,
        should_abort: &mut dyn FnMut() -> bool,
    ) -> Result<Vec<u8>> {
        let total = head_end + content_length;
        while self.buf.len() < total {
            if !self.fill(should_abort)? {
                return Err(ServeError::Closed);
            }
        }
        let body = self.buf.get(head_end..total).ok_or(ServeError::Closed)?.to_vec();
        self.buf.drain(..total);
        Ok(body)
    }
}

/// Parses `Name: value` header lines, rejecting malformed ones.
fn parse_header_lines<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<Vec<(String, String)>> {
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ServeError::Protocol(format!("malformed header line '{line}'")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ServeError::Protocol(format!("malformed header name '{name}'")));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }
    Ok(headers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn no_abort() -> impl FnMut() -> bool {
        || false
    }

    fn read_one(raw: &[u8]) -> Result<Option<Request>> {
        let mut conn = HttpConn::new(Cursor::new(raw.to_vec()));
        conn.read_request(&Limits::default(), &mut no_abort())
    }

    #[test]
    fn parses_a_post_with_body_and_headers() {
        let raw = b"POST /v1/propagate HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 4\r\n\r\n{\"a\"";
        let req = read_one(raw).expect("parses").expect("present");
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/propagate");
        assert_eq!(req.header("content-TYPE"), Some("application/json"));
        assert_eq!(req.body, b"{\"a\"");
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let mk = |version: &str, conn_header: &str| {
            let raw = format!("GET / {version}\r\n{conn_header}\r\n");
            read_one(raw.as_bytes()).expect("parses").expect("present")
        };
        assert!(mk("HTTP/1.1", "").wants_keep_alive());
        assert!(!mk("HTTP/1.0", "").wants_keep_alive());
        assert!(!mk("HTTP/1.1", "Connection: close\r\n").wants_keep_alive());
        assert!(mk("HTTP/1.0", "Connection: keep-alive\r\n").wants_keep_alive());
    }

    #[test]
    fn two_pipelined_requests_are_both_read() {
        let raw =
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi".to_vec();
        let mut conn = HttpConn::new(Cursor::new(raw));
        let limits = Limits::default();
        let a = conn.read_request(&limits, &mut no_abort()).expect("ok").expect("a");
        assert_eq!(a.target, "/a");
        let b = conn.read_request(&limits, &mut no_abort()).expect("ok").expect("b");
        assert_eq!((b.target.as_str(), b.body.as_slice()), ("/b", b"hi".as_slice()));
        assert!(conn.read_request(&limits, &mut no_abort()).expect("ok").is_none());
    }

    #[test]
    fn malformed_messages_are_protocol_errors() {
        for raw in [
            &b"NOT-HTTP\r\n\r\n"[..],
            &b"GET /\r\n\r\n"[..],
            &b"GET / HTTP/2\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nbad header line\r\n\r\n"[..],
            &b"POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n"[..],
            &b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
        ] {
            assert!(
                matches!(read_one(raw), Err(ServeError::Protocol(_))),
                "{:?} should be a protocol error",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn truncation_is_closed_and_eof_at_boundary_is_none() {
        assert!(matches!(read_one(b"GET / HTT"), Err(ServeError::Closed)));
        let partial_body = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nhalf";
        assert!(matches!(read_one(partial_body), Err(ServeError::Closed)));
        assert!(read_one(b"").expect("clean eof").is_none());
    }

    #[test]
    fn limits_are_enforced() {
        let limits = Limits { max_head: 32, max_body: 8 };
        let long_head = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(64));
        let mut conn = HttpConn::new(Cursor::new(long_head.into_bytes()));
        assert!(matches!(
            conn.read_request(&limits, &mut no_abort()),
            Err(ServeError::TooLarge { part: "head", .. })
        ));
        let body_limits = Limits { max_head: 256, max_body: 8 };
        let big_body = b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789".to_vec();
        let mut conn = HttpConn::new(Cursor::new(big_body));
        assert!(matches!(
            conn.read_request(&body_limits, &mut no_abort()),
            Err(ServeError::TooLarge { part: "body", .. })
        ));
    }

    #[test]
    fn response_round_trips_through_write_and_read() {
        let resp = Response::new(503)
            .with_header("Retry-After", "1")
            .with_json("{\"error\":\"busy\"}".into());
        let mut wire = Vec::new();
        resp.write_to(&mut wire, true).expect("writes");
        let text = String::from_utf8_lossy(&wire).into_owned();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        let mut conn = HttpConn::new(Cursor::new(wire));
        let back = conn
            .read_response(&Limits::default(), &mut no_abort())
            .expect("parses");
        assert_eq!(back.status, 503);
        assert_eq!(back.header("retry-after"), Some("1"));
        assert_eq!(back.body_text(), "{\"error\":\"busy\"}");
    }

    #[test]
    fn timeout_reads_consult_the_abort_callback() {
        struct Stalling {
            handed_out: bool,
        }
        impl Read for Stalling {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if !self.handed_out {
                    self.handed_out = true;
                    let head = b"GET / HTTP";
                    buf[..head.len()].copy_from_slice(head);
                    return Ok(head.len());
                }
                Err(std::io::Error::from(ErrorKind::WouldBlock))
            }
        }
        let mut conn = HttpConn::new(Stalling { handed_out: false });
        let mut polls = 0;
        let out = conn.read_request(&Limits::default(), &mut || {
            polls += 1;
            polls >= 3
        });
        assert!(matches!(out, Err(ServeError::Timeout)));
        assert_eq!(polls, 3);
    }
}
