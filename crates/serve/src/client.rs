//! A small blocking HTTP/1.1 client for the propagation API — used by
//! the integration tests, the fleet front, the `perfbench` benchmark
//! and the CI smoke tests, so the server is exercised end to end
//! without external tooling.
//!
//! One [`HttpClient`] owns one keep-alive connection; issue requests
//! sequentially and reuse it for the next. Typed helpers wrap the
//! JSON encode/decode of the propagate route.

use crate::error::{Result, ServeError};
use crate::http::{HttpConn, Limits, Response};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use sysunc::prob::json::{self, FromJson};
use sysunc::{PropagationReport, WireRequest};

/// A decoded batch-propagate answer: the per-job reports in request
/// order, plus the server's cache accounting for the batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// One report per submitted job, in submission order.
    pub reports: Vec<PropagationReport>,
    /// Distinct jobs the server answered from its response cache.
    pub cache_hits: u64,
    /// Distinct jobs the server had to run.
    pub cache_misses: u64,
}

/// How a connect tolerates a refused connection — the signature of a
/// server that is restarting (its port is not yet bound again). Each
/// refused attempt sleeps, doubling the delay up to `max_backoff`,
/// until `attempts` connects have failed. Errors other than refusal
/// (unreachable host, timeout) fail immediately: they signal absence,
/// not a restart in progress.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total connect attempts before giving up (at least 1).
    pub attempts: usize,
    /// Sleep after the first refused attempt.
    pub initial_backoff: Duration,
    /// Ceiling for the doubled backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    /// 8 attempts backing off 10 ms → 250 ms: about 1.2 s in total,
    /// comfortably covering a supervised child restart.
    fn default() -> Self {
        Self {
            attempts: 8,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(250),
        }
    }
}

/// A blocking keep-alive HTTP client for one server connection.
#[derive(Debug)]
pub struct HttpClient {
    conn: HttpConn<TcpStream>,
    limits: Limits,
    timeout: Duration,
}

impl HttpClient {
    /// Connects to the server with a 10 s response timeout.
    ///
    /// # Errors
    ///
    /// Propagates connect failures as [`ServeError::Io`].
    pub fn connect(addr: SocketAddr) -> Result<Self> {
        Self::connect_with_timeout(addr, Duration::from_secs(10))
    }

    /// Connects with an explicit per-response timeout.
    ///
    /// # Errors
    ///
    /// Propagates connect failures as [`ServeError::Io`].
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(Duration::from_millis(25)))?;
        stream.set_nodelay(true)?;
        Ok(Self { conn: HttpConn::new(stream), limits: Limits::default(), timeout })
    }

    /// Overrides the per-response timeout for subsequent requests —
    /// lets a pool keep a short connect timeout but a generous request
    /// deadline.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Connects like [`HttpClient::connect_with_timeout`], retrying
    /// refused connections under `policy` — so a client riding out a
    /// supervised server restart reconnects instead of hard-failing.
    ///
    /// # Errors
    ///
    /// The last refusal once the attempt budget is spent; any
    /// non-refusal connect failure immediately.
    pub fn connect_with_retry(
        addr: SocketAddr,
        timeout: Duration,
        policy: &RetryPolicy,
    ) -> Result<Self> {
        let mut backoff = policy.initial_backoff;
        let attempts = policy.attempts.max(1);
        for attempt in 1..=attempts {
            match TcpStream::connect_timeout(&addr, timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(Duration::from_millis(25)))?;
                    stream.set_nodelay(true)?;
                    return Ok(Self {
                        conn: HttpConn::new(stream),
                        limits: Limits::default(),
                        timeout,
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                    if attempt == attempts {
                        return Err(ServeError::Io(format!(
                            "connection to {addr} refused after {attempts} attempts: {e}"
                        )));
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(policy.max_backoff);
                }
                Err(e) => return Err(e.into()),
            }
        }
        // The loop always returns by the final attempt.
        Err(ServeError::Io(format!("connection to {addr} refused")))
    }

    /// Sends one request and reads the response off the same
    /// connection.
    ///
    /// # Errors
    ///
    /// [`ServeError::Timeout`] when the response misses the client
    /// timeout; otherwise the read/write failure.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> Result<Response> {
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: sysunc\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let stream = self.conn.stream_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        let deadline = Instant::now() + self.timeout;
        self.conn
            .read_response(&self.limits, &mut || Instant::now() >= deadline)
    }

    /// `GET` a route.
    ///
    /// # Errors
    ///
    /// See [`HttpClient::request`].
    pub fn get(&mut self, target: &str) -> Result<Response> {
        self.request("GET", target, None)
    }

    /// Runs a [`WireRequest`] through `POST /v1/propagate` and decodes
    /// the report.
    ///
    /// # Errors
    ///
    /// Non-200 statuses surface as [`ServeError::Protocol`] carrying
    /// the status and the server's error body; transport failures as
    /// in [`HttpClient::request`].
    pub fn propagate(&mut self, wire: &WireRequest) -> Result<PropagationReport> {
        let body = json::to_string(wire);
        let response = self.request("POST", "/v1/propagate", Some(&body))?;
        if response.status != 200 {
            return Err(ServeError::Protocol(format!(
                "propagate returned {}: {}",
                response.status,
                response.body_text()
            )));
        }
        json::from_str(&response.body_text())
            .map_err(|e| ServeError::Protocol(format!("undecodable report: {e}")))
    }

    /// Runs a [`WireRequest`] through `POST /v1/propagate` and returns
    /// the report together with the server's `X-Sysunc-Cache` verdict
    /// (`Some("hit")` / `Some("miss")`, `None` from servers without
    /// the header).
    ///
    /// # Errors
    ///
    /// As in [`HttpClient::propagate`].
    pub fn propagate_traced(
        &mut self,
        wire: &WireRequest,
    ) -> Result<(PropagationReport, Option<String>)> {
        let body = json::to_string(wire);
        let response = self.request("POST", "/v1/propagate", Some(&body))?;
        if response.status != 200 {
            return Err(ServeError::Protocol(format!(
                "propagate returned {}: {}",
                response.status,
                response.body_text()
            )));
        }
        let verdict = response.header("X-Sysunc-Cache").map(str::to_string);
        let report = json::from_str(&response.body_text())
            .map_err(|e| ServeError::Protocol(format!("undecodable report: {e}")))?;
        Ok((report, verdict))
    }

    /// Runs many jobs through `POST /v1/propagate/batch` in one
    /// round-trip and decodes the report array plus the batch cache
    /// header (`X-Sysunc-Cache: hits=H misses=M`).
    ///
    /// # Errors
    ///
    /// Non-200 statuses surface as [`ServeError::Protocol`] carrying
    /// the status and the server's error body; transport failures as
    /// in [`HttpClient::request`].
    pub fn propagate_batch(&mut self, jobs: &[WireRequest]) -> Result<BatchOutcome> {
        // Assemble `{"jobs":[…]}` from the per-job encodings — each
        // element is exactly what `propagate` would send on its own.
        let mut body = String::from("{\"jobs\":[");
        for (i, job) in jobs.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&json::to_string(job));
        }
        body.push_str("]}");
        let response = self.request("POST", "/v1/propagate/batch", Some(&body))?;
        if response.status != 200 {
            return Err(ServeError::Protocol(format!(
                "batch propagate returned {}: {}",
                response.status,
                response.body_text()
            )));
        }
        let (cache_hits, cache_misses) =
            parse_batch_cache_header(response.header("X-Sysunc-Cache").unwrap_or(""));
        let doc = json::parse(&response.body_text())
            .map_err(|e| ServeError::Protocol(format!("undecodable batch body: {e}")))?;
        let reports = doc
            .as_arr()
            .ok_or_else(|| ServeError::Protocol("batch body is not an array".into()))?
            .iter()
            .map(PropagationReport::from_json)
            .collect::<std::result::Result<Vec<_>, _>>()
            .map_err(|e| ServeError::Protocol(format!("undecodable report: {e}")))?;
        Ok(BatchOutcome { reports, cache_hits, cache_misses })
    }

    /// Scrapes `GET /metrics` as text.
    ///
    /// # Errors
    ///
    /// Non-200 statuses and transport failures as in
    /// [`HttpClient::propagate`].
    pub fn scrape_metrics(&mut self) -> Result<String> {
        let response = self.get("/metrics")?;
        if response.status != 200 {
            return Err(ServeError::Protocol(format!(
                "metrics returned {}",
                response.status
            )));
        }
        Ok(response.body_text())
    }
}

/// Parses the batch `X-Sysunc-Cache` header (`hits=H misses=M`);
/// unknown shapes degrade to zeros rather than failing the response.
fn parse_batch_cache_header(value: &str) -> (u64, u64) {
    let mut hits = 0;
    let mut misses = 0;
    for part in value.split_whitespace() {
        if let Some(n) = part.strip_prefix("hits=").and_then(|n| n.parse().ok()) {
            hits = n;
        } else if let Some(n) = part.strip_prefix("misses=").and_then(|n| n.parse().ok()) {
            misses = n;
        }
    }
    (hits, misses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn retry_gives_up_after_the_attempt_budget() {
        // Bind then drop a listener so the port is free (refused), not
        // filtered (timeout).
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
            listener.local_addr().expect("addr")
        };
        let policy = RetryPolicy {
            attempts: 3,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
        };
        let started = Instant::now();
        let err = HttpClient::connect_with_retry(addr, Duration::from_secs(1), &policy)
            .expect_err("no listener, must fail");
        assert!(err.to_string().contains("3 attempts"), "{err}");
        assert!(started.elapsed() < Duration::from_secs(1), "backoff stays bounded");
    }

    #[test]
    fn retry_rides_out_a_listener_that_appears_late() {
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
            listener.local_addr().expect("addr")
        };
        // Rebind the same port after a delay, like a restarting child.
        let accepter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let listener = TcpListener::bind(addr).expect("rebinds");
            let _ = listener.accept();
        });
        let policy = RetryPolicy {
            attempts: 20,
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(40),
        };
        let client = HttpClient::connect_with_retry(addr, Duration::from_secs(1), &policy);
        assert!(client.is_ok(), "{:?}", client.err());
        drop(client);
        accepter.join().expect("accepter finishes");
    }

    #[test]
    fn batch_cache_header_parses_and_degrades_gracefully() {
        assert_eq!(parse_batch_cache_header("hits=3 misses=2"), (3, 2));
        assert_eq!(parse_batch_cache_header("misses=7"), (0, 7));
        assert_eq!(parse_batch_cache_header(""), (0, 0));
        assert_eq!(parse_batch_cache_header("hit"), (0, 0));
        assert_eq!(parse_batch_cache_header("hits=x misses=1"), (0, 1));
    }
}
