//! `sysunc-fleet`: multi-process sharded serving for the sysunc
//! engine layer — a supervisor, a consistent-hash router, and
//! fleet-wide health and metrics, all `std`.
//!
//! Gansch & Adee's operational uncertainty coping loop — *detect,
//! tolerate, remove* — applied at process granularity: the supervisor
//! spawns N `sysunc-serve` shards (detection via liveness `try_wait` +
//! `/healthz` probing), the router rides requests over restarts and
//! ring-walks to fallback shards (tolerance), and crashed or wedged
//! children are respawned under exponential backoff (removal). The
//! front places every request on a shard by its
//! [`sysunc::CanonicalRequest`] FNV-1a/64 content hash, so each
//! shard's LRU response cache keeps its locality and repeated
//! requests stay bit-identical, `X-Sysunc-Cache: hit` included.
//!
//! ```no_run
//! use sysunc_fleet::{Fleet, FleetConfig};
//! use sysunc_serve::HttpClient;
//!
//! let fleet = Fleet::start(FleetConfig { shards: 2, ..FleetConfig::default() })?;
//! let mut client = HttpClient::connect(fleet.addr())?;
//! let health = client.get("/healthz")?;
//! assert_eq!(health.status, 200);
//! fleet.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `DESIGN.md` §9 for the sharding and restart/backoff contract.

// Every index and slice in this crate is checked: the HTTP parser and
// the request path face untrusted bytes, so an out-of-range access must
// become an error response, never a worker panic.
#![deny(clippy::indexing_slicing)]

pub mod child;
pub mod error;
pub mod metrics;
pub mod router;
pub mod shard;
pub mod supervisor;

pub use child::{locate_serve_bin, ShardChild};
pub use error::{FleetError, Result};
pub use metrics::{merge_expositions, FleetMetrics};
pub use shard::{ShardTable, SlotView};
pub use supervisor::{Fleet, FleetConfig, FleetHandle};
