//! The fleet supervisor: spawns N serve shards, probes them, restarts
//! what crashes or wedges, and drains everything on shutdown.
//!
//! Lifecycle, per shard, on its own monitor thread:
//!
//! 1. **Liveness** — `try_wait` catches a child that exited or was
//!    killed (crash tolerance: the failure is *detected*, then
//!    *handled* by a respawn — the paper's tolerance/removal pair at
//!    process granularity).
//! 2. **Health** — a `GET /healthz` probe (answered by the child on
//!    its connection thread without a run permit, within
//!    `PROBE_TIMEOUT`) catches a process that is alive but wedged;
//!    `UNHEALTHY_AFTER` consecutive failures demote the shard and force
//!    a kill + respawn.
//! 3. **Restart** — respawns back off exponentially
//!    (`restart_backoff` doubling up to `MAX_BACKOFF`) so a child
//!    that dies on boot cannot hot-loop the supervisor; a successful
//!    respawn reinstalls the shard under a new generation, which tells
//!    the router to drop its pooled connections to the dead process.
//!
//! Shutdown is ordered so in-flight client work finishes: the front
//! (serve's transport loop) stops accepting and its connection threads
//! drain first, then the monitors stop, and only then are the children
//! asked to drain (stdin close), with a kill fallback after
//! `DRAIN_TIMEOUT`. One [`ShutdownSignal`] serves the whole process:
//! the front's stop triggers it, and the monitors and the forwarding
//! loop see it.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sysunc::ModelRegistry;
use sysunc_serve::{HttpClient, ShutdownSignal, Transport};

use crate::child::{locate_serve_bin, ShardChild};
use crate::error::{FleetError, Result};
use crate::metrics::FleetMetrics;
use crate::shard::ShardTable;

/// Budget for one health probe (connect + `/healthz` response).
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);

/// Consecutive failed probes before a live child is declared wedged
/// and recycled.
const UNHEALTHY_AFTER: u32 = 2;

/// Ceiling for the doubled respawn backoff.
const MAX_BACKOFF: Duration = Duration::from_secs(1);

/// How long a draining child may take before it is killed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Tunables of a [`Fleet`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Shard (child process) count; placement is `hash % shards`.
    pub shards: usize,
    /// The `sysunc-serve` binary to spawn; `None` resolves via
    /// [`locate_serve_bin`] at start.
    pub serve_bin: Option<PathBuf>,
    /// Front bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Propagations running at once per child (its `--workers`).
    pub child_workers: usize,
    /// Propagate requests per child that may wait for a run permit
    /// (its `--queue`).
    pub child_queue: usize,
    /// Response-cache entries per child.
    pub child_cache_capacity: usize,
    /// Delay between health probes of one shard.
    pub probe_interval: Duration,
    /// First respawn backoff; doubles per consecutive failure.
    pub restart_backoff: Duration,
    /// Budget for a child's startup handshake line.
    pub handshake_timeout: Duration,
    /// Concurrent front connections before 503-and-close.
    pub max_connections: usize,
    /// End-to-end deadline for routing one request, covering retries
    /// across a shard restart.
    pub request_timeout: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            serve_bin: None,
            addr: "127.0.0.1:0".into(),
            child_workers: 2,
            child_queue: 64,
            child_cache_capacity: 1024,
            probe_interval: Duration::from_millis(50),
            restart_backoff: Duration::from_millis(50),
            handshake_timeout: Duration::from_secs(10),
            max_connections: 128,
            request_timeout: Duration::from_secs(10),
        }
    }
}

impl FleetConfig {
    /// The child argv (after `--child --addr 127.0.0.1:0`) this config
    /// asks for.
    fn child_args(&self) -> Vec<String> {
        vec![
            "--workers".into(),
            self.child_workers.max(1).to_string(),
            "--queue".into(),
            self.child_queue.max(1).to_string(),
            "--cache-capacity".into(),
            self.child_cache_capacity.to_string(),
        ]
    }
}

/// State shared between the front's handler, the monitors, and the
/// handle.
pub(crate) struct Shared {
    pub(crate) table: ShardTable,
    /// The registry every `sysunc-serve` shard builds; the front decodes
    /// bodies over it to place them and to refuse the ones a shard
    /// would refuse.
    pub(crate) registry: ModelRegistry,
    pub(crate) metrics: Arc<FleetMetrics>,
    pub(crate) signal: ShutdownSignal,
    pub(crate) config: FleetConfig,
    /// Rotates discovery (`any shard`) placement across shards.
    pub(crate) rotor: AtomicU64,
    pub(crate) started: Instant,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("table", &self.table)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

type ChildSlots = Arc<Vec<Mutex<Option<ShardChild>>>>;

/// The fleet: construct with [`Fleet::start`].
#[derive(Debug)]
pub struct Fleet;

impl Fleet {
    /// Spawns the shards (each must complete its readiness handshake),
    /// binds the front, and starts the monitor threads. On return the
    /// fleet accepts and routes traffic.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] when no serve binary can be located,
    /// [`FleetError::Spawn`] when a shard fails to start, and
    /// [`FleetError::Io`] for front bind failures. Any children
    /// already spawned are killed before the error returns.
    pub fn start(config: FleetConfig) -> Result<FleetHandle> {
        let serve_bin = match &config.serve_bin {
            Some(path) => path.clone(),
            None => locate_serve_bin().ok_or_else(|| {
                FleetError::Config(
                    "cannot locate the sysunc-serve binary; set FleetConfig::serve_bin \
                     or the SYSUNC_SERVE_BIN environment variable"
                    .into(),
                )
            })?,
        };
        let shards = config.shards.max(1);
        let table = ShardTable::new(shards);
        let metrics = Arc::new(FleetMetrics::new(shards));
        let child_args = config.child_args();
        let children: ChildSlots =
            Arc::new((0..shards).map(|_| Mutex::new(None)).collect());
        for slot in 0..shards {
            let child = ShardChild::spawn(&serve_bin, &child_args, config.handshake_timeout)?;
            table.install(slot, child.addr());
            if let Some(m) = children.get(slot) {
                with(m, |s| *s = Some(child));
            }
        }

        let registry = ModelRegistry::standard().map_err(|e| {
            FleetError::Config(format!("cannot build the model registry: {e}"))
        })?;
        let signal = ShutdownSignal::new();
        let shared = Arc::new(Shared {
            table,
            registry,
            metrics: Arc::clone(&metrics),
            signal: signal.clone(),
            config,
            rotor: AtomicU64::new(0),
            started: Instant::now(),
        });
        let front = Transport::start(
            &shared.config.addr,
            shared.config.max_connections,
            signal,
            Arc::clone(&shared),
        )
        .map_err(|e| FleetError::Io(format!("cannot bind {}: {e}", shared.config.addr)))?;

        let mut monitors = Vec::with_capacity(shards);
        for slot in 0..shards {
            let shared = Arc::clone(&shared);
            let children = Arc::clone(&children);
            let serve_bin = serve_bin.clone();
            let handle = std::thread::Builder::new()
                .name(format!("sysunc-fleet-monitor-{slot}"))
                .spawn(move || monitor_loop(slot, &shared, &children, &serve_bin))
                .map_err(|e| FleetError::Io(e.to_string()))?;
            monitors.push(handle);
        }

        Ok(FleetHandle { shared, children, metrics, front, monitors })
    }
}

/// Runs `f` on a locked child slot, recovering from poisoning (a dead
/// monitor must not wedge shutdown). Callers take the child out of the
/// slot and kill or drain it after `with` returns, so no lock is held
/// across a process wait.
fn with<R>(m: &Mutex<Option<ShardChild>>, f: impl FnOnce(&mut Option<ShardChild>) -> R) -> R {
    f(&mut m.lock().unwrap_or_else(PoisonError::into_inner))
}

/// A running fleet: front address, metrics, crash-injection and
/// shutdown control.
#[derive(Debug)]
pub struct FleetHandle {
    shared: Arc<Shared>,
    children: ChildSlots,
    metrics: Arc<FleetMetrics>,
    front: Transport,
    monitors: Vec<JoinHandle<()>>,
}

impl FleetHandle {
    /// The front's bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// The fleet-level metrics registry.
    pub fn metrics(&self) -> Arc<FleetMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Number of shards (fixed).
    pub fn shards(&self) -> usize {
        self.shared.table.len()
    }

    /// Number of currently healthy shards.
    pub fn healthy_shards(&self) -> usize {
        self.shared.table.healthy_count()
    }

    /// The shard addresses as currently installed (tests use this to
    /// compare routed answers against direct single-shard serving).
    pub fn shard_addrs(&self) -> Vec<Option<SocketAddr>> {
        self.shared.table.views().iter().map(|v| v.addr).collect()
    }

    /// Crash injection for fleet-semantics tests: SIGKILLs the shard's
    /// process. The monitor finds the slot empty, demotes the shard,
    /// and respawns it with backoff. Returns `false` when the slot
    /// holds no child.
    pub fn kill_shard(&self, slot: usize) -> bool {
        let Some(m) = self.children.get(slot) else { return false };
        match with(m, Option::take) {
            Some(mut child) => {
                child.kill();
                true
            }
            None => false,
        }
    }

    /// Waits until `want` shards are healthy or `timeout` passes;
    /// returns whether the target was reached. Test/ops helper.
    pub fn await_healthy(&self, want: usize, timeout: Duration) -> bool {
        let end = Instant::now() + timeout;
        while Instant::now() < end {
            if self.shared.table.healthy_count() >= want {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.shared.table.healthy_count() >= want
    }

    fn shutdown_inner(&mut self) {
        // 1. Stop the front: no new connections; in-flight requests on
        //    connection threads finish against still-running children.
        //    This also trips the signal the monitors watch.
        self.front.stop();
        // 2. Stop the monitors so nothing respawns what we drain next.
        for handle in self.monitors.drain(..) {
            let _ = handle.join();
        }
        // 3. Drain the children (stdin close), kill stragglers.
        for m in self.children.iter() {
            if let Some(child) = with(m, Option::take) {
                child.drain(DRAIN_TIMEOUT);
            }
        }
    }

    /// Gracefully stops the fleet: front drains first, then monitors,
    /// then every child (in-flight requests complete before any child
    /// is asked to exit).
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }
}

impl Drop for FleetHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Sleeps `total` in short steps, returning early when the fleet is
/// shutting down. Returns `false` on early exit.
fn sleep_unless_shutdown(shared: &Shared, total: Duration) -> bool {
    let end = Instant::now() + total;
    while Instant::now() < end {
        if shared.signal.is_triggered() {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10).min(total));
    }
    !shared.signal.is_triggered()
}

/// One `GET /healthz` probe against a shard.
fn probe(addr: SocketAddr) -> bool {
    match HttpClient::connect_with_timeout(addr, PROBE_TIMEOUT) {
        Ok(mut client) => matches!(client.get("/healthz"), Ok(r) if r.status == 200),
        Err(_) => false,
    }
}

/// Respawns the shard in `slot`, backing off on failure, until it
/// succeeds or shutdown begins. Returns whether a child was installed.
fn respawn(
    slot: usize,
    shared: &Shared,
    children: &ChildSlots,
    serve_bin: &std::path::Path,
) -> bool {
    let args = shared.config.child_args();
    let mut backoff = shared.config.restart_backoff;
    loop {
        if shared.signal.is_triggered() {
            return false;
        }
        if !sleep_unless_shutdown(shared, backoff) {
            return false;
        }
        match ShardChild::spawn(serve_bin, &args, shared.config.handshake_timeout) {
            Ok(child) => {
                shared.table.install(slot, child.addr());
                if let Some(m) = children.get(slot) {
                    with(m, |s| *s = Some(child));
                }
                shared.metrics.restarted(slot);
                return true;
            }
            Err(_) => {
                backoff = (backoff * 2).min(MAX_BACKOFF);
            }
        }
    }
}

/// The per-shard monitor: liveness via `try_wait`, health via periodic
/// `/healthz` probes, recycle on crash or wedge.
fn monitor_loop(
    slot: usize,
    shared: &Arc<Shared>,
    children: &ChildSlots,
    serve_bin: &std::path::Path,
) {
    let mut failed_probes = 0u32;
    while sleep_unless_shutdown(shared, shared.config.probe_interval) {
        let alive = match children.get(slot) {
            Some(m) => with(m, |s| s.as_mut().map(ShardChild::is_alive).unwrap_or(false)),
            None => return,
        };
        if !alive {
            // Crashed (or killed): demote, reap, respawn with backoff.
            shared.table.mark_unhealthy(slot);
            if let Some(m) = children.get(slot) {
                drop(with(m, Option::take));
            }
            failed_probes = 0;
            if !respawn(slot, shared, children, serve_bin) {
                return; // shutdown began mid-respawn
            }
            continue;
        }
        let addr = shared.table.view(slot).addr;
        let healthy = addr.map(probe).unwrap_or(false);
        if healthy {
            failed_probes = 0;
            shared.table.mark_healthy(slot);
        } else {
            shared.metrics.probe_failed();
            failed_probes += 1;
            if failed_probes >= UNHEALTHY_AFTER {
                // Alive but wedged: recycle the process.
                shared.table.mark_unhealthy(slot);
                if let Some(m) = children.get(slot) {
                    if let Some(mut child) = with(m, Option::take) {
                        child.kill();
                    }
                }
                failed_probes = 0;
                if !respawn(slot, shared, children, serve_bin) {
                    return;
                }
            }
        }
    }
}
