//! `sysunc-serve`: a zero-dependency HTTP/1.1 server exposing the
//! sysunc Propagator engine layer as a JSON API.
//!
//! Gansch & Adee treat uncertainty coping as an *operational*
//! activity: removal, tolerance and forecasting happen while the
//! system runs, not only on the drawing board. This crate makes the
//! engine layer operational — a running service other systems query
//! over a machine-readable wire protocol (`sysunc::wire`), in the
//! spirit of the SysML-v2 line of work where an uncertainty analysis
//! request is data.
//!
//! Everything is `std`. The [`transport`] module is the workspace's one
//! accept/keep-alive loop — `TcpListener` + a thread per connection, an
//! accept-side connection cap (`503` before a request is even read),
//! keep-alive, and graceful drain on shutdown — and both this server
//! and the `sysunc-fleet` front run on it, each as a
//! [`transport::Handler`]. The server's handler runs its own
//! propagations behind an admission gate of run and wait permits
//! (backpressure → `503` + `Retry-After`), with a decode-time cost
//! ceiling (`400`), per-request deadlines (`408`), and atomic metrics
//! behind `GET /metrics`. The request path is **content-addressed**: every
//! propagate body reduces to its `sysunc::CanonicalRequest`, a
//! sharded LRU cache serves repeated requests bit-identically
//! (`X-Sysunc-Cache: hit`), and `POST /v1/propagate/batch` runs many
//! jobs per request with intra-batch dedup through `core::run_batch`.
//! `POST /v1/propagate` takes the same path as a batch of one job.
//! See `PROTOCOL.md` for the full route and schema reference.
//!
//! ```no_run
//! use sysunc_serve::{Server, ServerConfig, HttpClient};
//! use sysunc::{ModelRegistry, WireRequest, UncertainInput};
//!
//! let server = Server::start(ServerConfig::default(), ModelRegistry::standard()?)?;
//! let mut client = HttpClient::connect(server.addr())?;
//! let report = client.propagate(&WireRequest::new(
//!     "monte-carlo",
//!     "sum",
//!     vec![UncertainInput::Normal { mu: 0.0, sigma: 1.0 }],
//! ))?;
//! assert_eq!(report.engine, "monte-carlo");
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Every index and slice in this crate is checked: the HTTP parser and
// the request path face untrusted bytes, so an out-of-range access must
// become an error response, never a worker panic.
#![deny(clippy::indexing_slicing)]

pub mod cache;
pub mod client;
pub mod error;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod router;
pub mod server;
pub mod shutdown;
pub mod transport;

/// Content-addressed LRU cache of rendered responses.
pub use cache::ResponseCache;
pub use client::{BatchOutcome, HttpClient, RetryPolicy};
pub use error::{Result, ServeError};
pub use http::{Limits, Request, Response};
pub use metrics::ServerMetrics;
/// Accept-side connection cap (`503` beyond it) and its RAII permit.
pub use pool::{ConnectionLimiter, ConnectionPermit};
pub use router::{CancelModel, CancelToken, Route};
pub use server::{Server, ServerConfig, ServerHandle};
pub use shutdown::ShutdownSignal;
/// The one accept/keep-alive loop, its handler contract and its fixed
/// message limits.
pub use transport::{Handler, Transport, LIMITS};
