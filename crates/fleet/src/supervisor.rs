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
//!    its connection thread without a run permit) catches a process
//!    that is alive but wedged; `unhealthy_after` consecutive failures
//!    demote the shard and force a kill + respawn.
//! 3. **Restart** — respawns back off exponentially
//!    (`restart_backoff` doubling up to `max_backoff`) so a child
//!    that dies on boot cannot hot-loop the supervisor; a successful
//!    respawn reinstalls the shard under a new generation, which tells
//!    the router to drop its pooled connections to the dead process.
//!
//! Shutdown is ordered so in-flight client work finishes: the front
//! stops accepting and its connection threads drain first, then the
//! monitors stop, and only then are the children asked to drain
//! (stdin close), with a kill fallback after `drain_timeout`.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sysunc_serve::http::Limits;
use sysunc_serve::{HttpClient, ShutdownSignal};

use crate::child::{locate_serve_bin, ShardChild};
use crate::error::{FleetError, Result};
use crate::metrics::FleetMetrics;
use crate::router::acceptor_loop;
use crate::shard::ShardTable;

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
    /// Response-cache entry TTL per child; `None` never expires.
    pub child_cache_ttl: Option<Duration>,
    /// Delay between health probes of one shard.
    pub probe_interval: Duration,
    /// Budget for one probe (connect + healthz response).
    pub probe_timeout: Duration,
    /// Consecutive failed probes before a live child is declared
    /// wedged and recycled.
    pub unhealthy_after: u32,
    /// First respawn backoff; doubles per consecutive failure.
    pub restart_backoff: Duration,
    /// Ceiling for the doubled respawn backoff.
    pub max_backoff: Duration,
    /// How long a draining child may take before being killed.
    pub drain_timeout: Duration,
    /// Budget for a child's startup handshake line.
    pub handshake_timeout: Duration,
    /// Concurrent front connections before 503-and-close.
    pub max_connections: usize,
    /// End-to-end deadline for routing one request, covering retries
    /// across a shard restart.
    pub request_timeout: Duration,
    /// Front socket read poll interval; bounds shutdown latency.
    pub poll_interval: Duration,
    /// HTTP message size limits at the front.
    pub limits: Limits,
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
            child_cache_ttl: None,
            probe_interval: Duration::from_millis(50),
            probe_timeout: Duration::from_millis(500),
            unhealthy_after: 2,
            restart_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(1),
            drain_timeout: Duration::from_secs(5),
            handshake_timeout: Duration::from_secs(10),
            max_connections: 128,
            request_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(25),
            limits: Limits::default(),
        }
    }
}

impl FleetConfig {
    /// The child argv (after `--child --addr 127.0.0.1:0`) this config
    /// asks for.
    fn child_args(&self) -> Vec<String> {
        let mut args = vec![
            "--workers".into(),
            self.child_workers.max(1).to_string(),
            "--queue".into(),
            self.child_queue.max(1).to_string(),
            "--cache-capacity".into(),
            self.child_cache_capacity.to_string(),
        ];
        if let Some(ttl) = self.child_cache_ttl {
            args.push("--cache-ttl-ms".into());
            args.push(ttl.as_millis().to_string());
        }
        args
    }
}

/// State shared between the router, the monitors, and the handle.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) table: ShardTable,
    pub(crate) metrics: Arc<FleetMetrics>,
    pub(crate) signal: ShutdownSignal,
    pub(crate) config: FleetConfig,
    /// Rotates discovery (`any shard`) placement across shards.
    pub(crate) rotor: AtomicU64,
    pub(crate) started: Instant,
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
                *lock_child(m) = Some(child);
            }
        }

        let listener = std::net::TcpListener::bind(&config.addr)
            .map_err(|e| FleetError::Io(format!("cannot bind {}: {e}", config.addr)))?;
        let addr = listener.local_addr()?;
        let signal = ShutdownSignal::new();
        let shared = Arc::new(Shared {
            table,
            metrics: Arc::clone(&metrics),
            signal: signal.clone(),
            config,
            rotor: AtomicU64::new(0),
            started: Instant::now(),
        });

        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("sysunc-fleet-acceptor".into())
            .spawn(move || acceptor_loop(&listener, &acceptor_shared))
            .map_err(|e| FleetError::Io(e.to_string()))?;

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

        Ok(FleetHandle {
            addr,
            shared,
            children,
            metrics,
            acceptor: Some(acceptor),
            monitors,
        })
    }
}

/// Locks a child slot, recovering from poisoning (a dead monitor must
/// not wedge shutdown).
fn lock_child(m: &Mutex<Option<ShardChild>>) -> std::sync::MutexGuard<'_, Option<ShardChild>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A running fleet: front address, metrics, crash-injection and
/// shutdown control.
#[derive(Debug)]
pub struct FleetHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    children: ChildSlots,
    metrics: Arc<FleetMetrics>,
    acceptor: Option<JoinHandle<()>>,
    monitors: Vec<JoinHandle<()>>,
}

impl FleetHandle {
    /// The front's bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
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
    /// process. The monitor notices, demotes the shard, and respawns
    /// it with backoff. Returns `false` when the slot holds no child.
    pub fn kill_shard(&self, slot: usize) -> bool {
        let Some(m) = self.children.get(slot) else { return false };
        let mut guard = lock_child(m);
        match guard.as_mut() {
            Some(child) => {
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
        self.shared.signal.trigger_and_wake(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // 2. Stop the monitors so nothing respawns what we drain next.
        for handle in self.monitors.drain(..) {
            let _ = handle.join();
        }
        // 3. Drain the children (stdin close), kill stragglers.
        for m in self.children.iter() {
            if let Some(child) = lock_child(m).take() {
                child.drain(self.shared.config.drain_timeout);
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
fn probe(addr: SocketAddr, timeout: Duration) -> bool {
    match HttpClient::connect_with_timeout(addr, timeout) {
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
                    *lock_child(m) = Some(child);
                }
                shared.metrics.restarted(slot);
                return true;
            }
            Err(_) => {
                backoff = (backoff * 2).min(shared.config.max_backoff);
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
            Some(m) => lock_child(m).as_mut().map(ShardChild::is_alive).unwrap_or(false),
            None => return,
        };
        if !alive {
            // Crashed (or killed): demote, reap, respawn with backoff.
            shared.table.mark_unhealthy(slot);
            if let Some(m) = children.get(slot) {
                lock_child(m).take();
            }
            failed_probes = 0;
            if !respawn(slot, shared, children, serve_bin) {
                return; // shutdown began mid-respawn
            }
            continue;
        }
        let addr = shared.table.view(slot).addr;
        let healthy =
            addr.map(|a| probe(a, shared.config.probe_timeout)).unwrap_or(false);
        if healthy {
            failed_probes = 0;
            shared.table.mark_healthy(slot);
        } else {
            shared.metrics.probe_failed();
            failed_probes += 1;
            if failed_probes >= shared.config.unhealthy_after.max(1) {
                // Alive but wedged: recycle the process.
                shared.table.mark_unhealthy(slot);
                if let Some(m) = children.get(slot) {
                    if let Some(mut child) = lock_child(m).take() {
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
