//! The load driver: closed-loop clients, each sending its next call
//! when the previous one returns, over one keep-alive connection.

use crate::stats::nearest_rank;
use crate::trace::Tracer;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use sysunc_serve::{HttpClient, Response, ServeError};

/// One client's traffic: the next call to send, and the verdict on its
/// answer.
pub trait Client: Send {
    /// The next call's target and body.
    fn next(&mut self) -> (&'static str, String);

    /// Judges the answer to the call `next` produced: how many jobs it
    /// carried and how many of them failed.
    fn judge(&mut self, answer: Result<Response, ServeError>) -> Outcome;
}

/// Jobs a call carried and how many failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Propagation jobs the call carried.
    pub jobs: u64,
    /// Jobs that failed: transport error, non-200, or a failed check.
    pub failed: u64,
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Latency in ns: from send to the last byte of the answer.
    pub latency_ns: u64,
    /// The time window the call was sent in.
    pub window: usize,
    /// Whether a span was recorded around the call.
    pub traced: bool,
    /// The call's outcome.
    pub outcome: Outcome,
}

/// A block of consecutive time windows of a phase.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// Jobs that passed, per second of the block.
    pub jobs_per_s: f64,
    /// Nearest-rank median latency, µs.
    pub p50_us: f64,
    /// Nearest-rank 99th percentile latency, µs.
    pub p99_us: f64,
    /// Calls in the block.
    pub calls: usize,
    /// Share of the CPUs' time during the block that the hypervisor gave
    /// to other guests (`steal` in `/proc/stat`; 0 where not reported).
    pub steal: f64,
}

/// A measured phase across every client.
#[derive(Debug)]
pub struct Phase {
    /// Every call, in no particular order.
    pub samples: Vec<Sample>,
    /// Length of each window: from its start to its last answer.
    pub window_spans: Vec<Duration>,
    /// CPU time stolen from this machine during each window, summed
    /// over its CPUs.
    pub window_stolen: Vec<Duration>,
    /// Client spans (traced calls only).
    pub tracer: Tracer,
}

impl Phase {
    /// Jobs attempted and failed, summed over calls.
    pub fn outcome(&self) -> Outcome {
        self.samples
            .iter()
            .fold(Outcome::default(), |acc, s| Outcome {
                jobs: acc.jobs + s.outcome.jobs,
                failed: acc.failed + s.outcome.failed,
            })
    }

    /// Groups consecutive windows into blocks of at least `min_calls`
    /// calls (a short tail joins the last block) and summarizes each
    /// block: passed jobs per second, p50 and p99 latency in µs. Empty
    /// when the whole phase holds fewer than `min_calls` calls.
    pub fn blocks(&self, min_calls: usize) -> Vec<Block> {
        let mut per_window: Vec<(Vec<u64>, u64)> = vec![(Vec::new(), 0); self.window_spans.len()];
        for s in &self.samples {
            if let Some((lat, passed)) = per_window.get_mut(s.window) {
                lat.push(s.latency_ns);
                *passed += s.outcome.jobs - s.outcome.failed;
            }
        }
        type Open = (Vec<u64>, u64, Duration, Duration);
        let mut blocks: Vec<Open> = Vec::new();
        let mut open: Open = Default::default();
        let windows = per_window
            .into_iter()
            .zip(&self.window_spans)
            .zip(&self.window_stolen);
        for (((lat, passed), span), stolen) in windows {
            open.0.extend(lat);
            open.1 += passed;
            open.2 += *span;
            open.3 += *stolen;
            if open.0.len() >= min_calls {
                blocks.push(std::mem::take(&mut open));
            }
        }
        match blocks.last_mut() {
            Some(last) => {
                last.0.extend(open.0);
                last.1 += open.1;
                last.2 += open.2;
                last.3 += open.3;
            }
            None => return Vec::new(),
        }
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get()) as f64;
        blocks
            .into_iter()
            .map(|(mut lat, passed, span, stolen)| {
                lat.sort_unstable();
                let us = |p: f64| nearest_rank(&lat, p).unwrap_or(0) as f64 / 1e3;
                let span = span.as_secs_f64().max(1e-9);
                Block {
                    jobs_per_s: passed as f64 / span,
                    p50_us: us(50.0),
                    p99_us: us(99.0),
                    calls: lat.len(),
                    steal: stolen.as_secs_f64() / (span * cores),
                }
            })
            .collect()
    }

    /// Latencies of the selected calls in ns, ascending.
    pub fn latencies_ns(&self, pick: impl Fn(&Sample) -> bool) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| pick(s))
            .map(|s| s.latency_ns)
            .collect();
        v.sort_unstable();
        v
    }
}

/// Where one client thread runs within the phase.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Origin of span times.
    origin: Instant,
    /// The window this thread measures, and its start and end.
    window: usize,
    from: Instant,
    until: Instant,
    /// Clients in the phase, and this client's index.
    clients: usize,
    idx: usize,
}

/// Runs `clients` against `addr` for `seconds`, split into `windows`
/// equal time windows. Each window opens fresh connections on fresh
/// client threads (one per client), so the scheduler places the client
/// and server threads anew; a run's figures are then medians over
/// windows rather than one placement's luck. With `trace`, every other
/// call of each client is wrapped in a span. Returns the clients
/// (holding what they kept for later checks) and the measured phase.
pub fn drive<C: Client>(
    addr: SocketAddr,
    mut clients: Vec<C>,
    seconds: f64,
    windows: usize,
    trace: bool,
) -> Result<(Vec<C>, Phase), String> {
    let n = clients.len().max(1);
    let windows = windows.max(1);
    let origin = Instant::now() + Duration::from_millis(20);
    let at = |w: usize| origin + Duration::from_secs_f64(seconds * w as f64 / windows as f64);
    let mut calls = vec![0u64; n];
    let mut samples = Vec::new();
    let mut tracer = Tracer::with_origin(origin);
    let mut window_spans = Vec::with_capacity(windows);
    let mut window_stolen = Vec::with_capacity(windows);
    for window in 0..windows {
        let mut connections = Vec::with_capacity(n);
        for _ in 0..n {
            connections
                .push(HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?);
        }
        let from = at(window).max(Instant::now());
        let until = at(window + 1);
        let steal_before = stolen();
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .drain(..)
                .zip(connections)
                .zip(calls.iter().copied())
                .enumerate()
                .map(|(idx, ((client, conn), k))| {
                    let frame = Frame {
                        origin,
                        window,
                        from,
                        until,
                        clients: n,
                        idx,
                    };
                    scope.spawn(move || run_client(frame, client, conn, addr, k, trace))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
                .collect::<Result<Vec<_>, String>>()
        })?;
        let mut last = from;
        for (idx, (client, s, done, t, k)) in results.into_iter().enumerate() {
            samples.extend(s);
            tracer.absorb(t);
            last = last.max(done);
            calls[idx] = k;
            clients.push(client);
        }
        window_spans.push(last - from);
        window_stolen.push(stolen().saturating_sub(steal_before));
    }
    Ok((
        clients,
        Phase {
            samples,
            window_spans,
            window_stolen,
            tracer,
        },
    ))
}

/// CPU time this machine's hypervisor has given to other guests since
/// boot, summed over CPUs: the `steal` field of the `cpu` line of
/// `/proc/stat`, in clock ticks of 10 ms. Zero where it is not reported.
fn stolen() -> Duration {
    let ticks = std::fs::read_to_string("/proc/stat").ok().and_then(|stat| {
        let line = stat.lines().find(|l| l.starts_with("cpu "))?;
        line.split_whitespace().nth(8)?.parse::<u64>().ok()
    });
    Duration::from_millis(ticks.unwrap_or(0) * 10)
}

/// One client thread's share of a window: sends calls until the window
/// ends. `k` counts this client's calls so far; returns it updated.
fn run_client<C: Client>(
    f: Frame,
    mut client: C,
    mut conn: HttpClient,
    addr: SocketAddr,
    mut k: u64,
    trace: bool,
) -> (C, Vec<Sample>, Instant, Tracer, u64) {
    let mut samples = Vec::new();
    let mut tracer = Tracer::with_origin(f.origin);
    let now = Instant::now();
    if f.from > now {
        std::thread::sleep(f.from - now);
    }
    let mut last = f.from;
    while Instant::now() < f.until {
        let (target, body) = client.next();
        let traced = trace && k % 2 == 1;
        let sent = Instant::now();
        let req = k * f.clients as u64 + f.idx as u64;
        let span = traced.then(|| tracer.open("client.call", None, req));
        let answer = conn.request("POST", target, Some(&body));
        if let Some(id) = span {
            tracer.close(id, 0);
        }
        let done = Instant::now();
        let broken = answer.is_err();
        let outcome = client.judge(answer);
        samples.push(Sample {
            latency_ns: (done - sent).as_nanos() as u64,
            window: f.window,
            traced,
            outcome,
        });
        last = done;
        k += 1;
        if broken {
            // A failed transport leaves the connection unusable.
            match HttpClient::connect(addr) {
                Ok(fresh) => conn = fresh,
                Err(_) => break,
            }
        }
    }
    (client, samples, last, tracer, k)
}
