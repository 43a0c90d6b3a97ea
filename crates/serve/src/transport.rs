//! The workspace's one accept/keep-alive loop. The propagation server
//! and the fleet front both run on it; each supplies a [`Handler`].
//!
//! Threading model:
//!
//! - One **acceptor** thread owns the `TcpListener` and spawns a
//!   thread per connection, up to the hard connection cap
//!   ([`ConnectionLimiter`]). Beyond it the acceptor answers `503 +
//!   Retry-After: 1` inline and closes, so load cannot grow the thread
//!   count without bound.
//! - **Connection** threads read requests through [`HttpConn`] under
//!   the fixed [`LIMITS`], answer each one with the handler, and keep
//!   the connection alive while the client asks for it. Bytes that are
//!   not a request get [`read_error_response`] and a close.
//!
//! Shutdown: [`Transport::stop`] triggers the [`ShutdownSignal`] and
//! wakes the acceptor. Connection read loops notice through their
//! [`POLL_INTERVAL`] read timeout and finish their current request,
//! and the acceptor joins every connection thread before `stop`
//! returns, so in-flight requests drain.

use crate::error::{Result, ServeError};
use crate::http::{HttpConn, Limits, Request, Response};
use crate::pool::ConnectionLimiter;
use crate::router::{error_response, read_error_response};
use crate::shutdown::ShutdownSignal;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a blocked socket read checks the shutdown signal; bounds
/// shutdown latency.
pub const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// The HTTP message size limits every connection enforces: 16 KiB of
/// request line and headers, 1 MiB of body.
pub const LIMITS: Limits = Limits { max_head: 16 * 1024, max_body: 1024 * 1024 };

/// Answers one request at a time for a connection thread.
pub trait Handler: Send + Sync + 'static {
    /// What one connection keeps across its keep-alive requests.
    type Conn: Default;

    /// Answers one request read off a connection.
    fn handle(&self, request: &Request, conn: &mut Self::Conn) -> Response;

    /// Observes a transport [`Event`]; the default ignores it.
    fn record(&self, _event: Event<'_>) {}
}

/// What the transport reports to [`Handler::record`].
#[derive(Debug, Clone, Copy)]
pub enum Event<'a> {
    /// A connection got a slot under the cap.
    Opened,
    /// A connection was refused at the cap with `503`.
    Rejected,
    /// A connection that got a slot has closed.
    Closed,
    /// A request was answered; `elapsed` runs from the handler call to
    /// the last byte written.
    Answered {
        /// The request target as sent.
        target: &'a str,
        /// The response status.
        status: u16,
        /// Handler plus write time.
        elapsed: Duration,
    },
    /// The bytes on a connection were not a request (malformed, over a
    /// limit, or cut short); `status` is the answer attempted before
    /// the close, if any.
    Unreadable {
        /// `400` or `413`; `None` when the peer is already gone.
        status: Option<u16>,
    },
}

/// A running accept loop: its bound address and its stop control.
/// Dropping it stops it.
#[derive(Debug)]
pub struct Transport {
    addr: SocketAddr,
    signal: ShutdownSignal,
    acceptor: Option<JoinHandle<()>>,
}

impl Transport {
    /// Binds `addr` (port 0 picks an ephemeral port) and spawns the
    /// acceptor, which serves until `signal` is triggered.
    /// `max_connections` is the connection cap (at least 1).
    ///
    /// # Errors
    ///
    /// Bind and thread-spawn failures, as [`ServeError::Io`].
    pub fn start<H: Handler>(
        addr: &str,
        max_connections: usize,
        signal: ShutdownSignal,
        handler: Arc<H>,
    ) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let acceptor_signal = signal.clone();
        let acceptor = std::thread::Builder::new()
            .name("sysunc-acceptor".into())
            .spawn(move || accept_loop(&listener, max_connections, &acceptor_signal, &handler))
            .map_err(|e| ServeError::Io(e.to_string()))?;
        Ok(Self { addr: bound, signal, acceptor: Some(acceptor) })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, lets every connection finish its current
    /// request, and joins all of their threads. Later calls return at
    /// once.
    pub fn stop(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            self.signal.trigger_and_wake(self.addr);
            let _ = acceptor.join();
        }
    }
}

impl Drop for Transport {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop<H: Handler>(
    listener: &TcpListener,
    max_connections: usize,
    signal: &ShutdownSignal,
    handler: &Arc<H>,
) {
    let limiter = ConnectionLimiter::new(max_connections);
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if signal.is_triggered() {
            break;
        }
        let Ok(stream) = stream else { continue };
        connections.retain(|h| !h.is_finished());
        let Some(permit) = limiter.try_acquire() else {
            handler.record(Event::Rejected);
            reject(stream);
            continue;
        };
        handler.record(Event::Opened);
        let (conn_handler, conn_signal) = (Arc::clone(handler), signal.clone());
        let spawned = std::thread::Builder::new().name("sysunc-conn".into()).spawn(move || {
            // The permit rides with the thread; dropping it on any exit
            // path (including a panic) frees the slot.
            let _permit = permit;
            serve_connection(stream, &*conn_handler, &conn_signal);
        });
        match spawned {
            Ok(handle) => connections.push(handle),
            Err(_) => handler.record(Event::Closed),
        }
    }
    for handle in connections {
        let _ = handle.join();
    }
}

/// Answers a connection refused at the cap: `503 + Retry-After: 1` and
/// a close, under a short write timeout so a slow peer cannot stall the
/// acceptor.
fn reject(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let response = error_response(503, "connection limit reached; retry shortly")
        .with_header("Retry-After", "1");
    let _ = response.write_to(&mut stream, false);
}

fn serve_connection<H: Handler>(stream: TcpStream, handler: &H, signal: &ShutdownSignal) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let mut conn = HttpConn::new(stream);
    let mut state = H::Conn::default();
    loop {
        match conn.read_request(&LIMITS, &mut || signal.is_triggered()) {
            Ok(Some(request)) => {
                let started = Instant::now();
                let response = handler.handle(&request, &mut state);
                let keep_alive = request.wants_keep_alive() && !signal.is_triggered();
                let wrote = response.write_to(conn.stream_mut(), keep_alive).is_ok();
                handler.record(Event::Answered {
                    target: &request.target,
                    status: response.status,
                    elapsed: started.elapsed(),
                });
                if !keep_alive || !wrote {
                    break;
                }
            }
            // The peer hung up between requests, or shutdown began
            // while idle or mid-read.
            Ok(None) | Err(ServeError::Timeout) => break,
            Err(e) => {
                let response = read_error_response(&e);
                handler.record(Event::Unreadable { status: response.as_ref().map(|r| r.status) });
                if let Some(response) = response {
                    let _ = response.write_to(conn.stream_mut(), false);
                }
                break;
            }
        }
    }
    handler.record(Event::Closed);
}
