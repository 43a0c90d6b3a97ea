//! One benchmark run: generate the workload's inputs, set the program
//! up, drive the measured phase, check every answer, and turn the
//! measurements into the run's metrics.

use crate::drive::{drive, Block, Client, Outcome, Phase};
use crate::host::{self, Host, Scrape};
use crate::metrics::{result_line, END_TO_END, PER_LAYER};
use crate::replay::{raw_post, Replay};
use crate::stats::{median, nearest_rank, samples_beyond, MIN_BEYOND};
use crate::trace::{totals, Totals};
use crate::workload::{batch_body, batch_call, exact_mean, mc_request, spellings, Workload};
use crate::Options;
use std::io::Cursor;
use std::path::Path;
use std::time::{Duration, Instant};
use sysunc::prob::json::{self, FromJson, Json};
use sysunc::prob::rng::{RngCore, StdRng};
use sysunc::{CanonicalRequest, ModelRegistry, PropagationReport, WireRequest};
use sysunc_fleet::ShardTable;
use sysunc_serve::http::{HttpConn, Limits};
use sysunc_serve::{HttpClient, Response, ServeError};

/// Set-ups per run, at least; `setup_s` is their median. Cheap set-ups
/// repeat until [`SETUP_SPAN`] has passed, up to [`SETUP_MAX_REPS`], so
/// a few-millisecond set-up is the median of dozens.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 41;
const SETUP_SPAN: Duration = Duration::from_secs(1);

/// Time windows of a run's measured phase, each run on fresh client
/// threads and connections (see `drive`): one per three seconds for
/// `batch-mixed`, one per second for the others. Windows are grouped into
/// blocks of at least [`BLOCK_CALLS`] calls, and end-to-end figures are
/// medians over blocks.
fn windows(o: &Options) -> usize {
    let seconds_per_window = match o.workload {
        Workload::BatchMixed => 3.0,
        _ => 1.0,
    };
    ((o.seconds / seconds_per_window) as usize).max(1)
}

/// Calls per block, at least: 10 samples then lie beyond its p99.
const BLOCK_CALLS: usize = 1000;

/// A block in which the hypervisor took more than this share of the
/// CPUs' time for other guests measured them, not the program.
const MAX_STEAL: f64 = 0.02;

/// The blocks that measured the program: those with at most
/// [`MAX_STEAL`] steal or, when fewer than half of them qualify, the half
/// with the least steal. Blocks are picked by the host's own counter,
/// never by their figures.
fn calm(blocks: &[Block]) -> Vec<Block> {
    let quiet: Vec<Block> = blocks
        .iter()
        .filter(|b| b.steal <= MAX_STEAL)
        .copied()
        .collect();
    if quiet.len() * 2 >= blocks.len() {
        return quiet;
    }
    let mut by_steal = blocks.to_vec();
    by_steal.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    by_steal.truncate(blocks.len().div_ceil(2));
    by_steal
}

/// Client threads (and connections) driving traffic.
const CLIENTS: usize = 2;

/// In `fleet-mixed`, a call repeats one of the client's
/// [`REPEAT_WINDOW`] latest fresh requests with odds 1 in [`REPEAT_EVERY`],
/// drawn per call so repeats do not line up with the traced calls.
const REPEAT_EVERY: u64 = 4;
const REPEAT_WINDOW: usize = 64;

/// Calls replayed in process by a traced `cold-mc` or `fleet-mixed` run.
const REPLAY_CALLS: usize = 300;

/// Seed held out from tuning, for re-checking later claims.
pub const HELD_OUT_SEED: u64 = 20_201_117;

const PROPAGATE: &str = "/v1/propagate";
const BATCH: &str = "/v1/propagate/batch";

/// The answer the program must give for `wire`: the in-process engine
/// report, encoded as the server encodes it.
fn expected_body(registry: &ModelRegistry, wire: &WireRequest) -> Result<String, String> {
    let model = registry
        .get(&wire.model)
        .ok_or_else(|| format!("model {}", wire.model))?;
    let request = wire.to_request(model).map_err(|e| e.to_string())?;
    let report = wire
        .resolve_engine()
        .map_err(|e| e.to_string())?
        .propagate(&request);
    Ok(json::to_string(&report.map_err(|e| e.to_string())?))
}

fn ok_body(answer: Result<Response, ServeError>) -> Option<Vec<u8>> {
    answer.ok().filter(|r| r.status == 200).map(|r| r.body)
}

/// `cold-mc` and `fleet-mixed`: fresh Monte Carlo requests, answered
/// bodies kept for the checks after the phase. With `repeat_every` set,
/// a call instead repeats, with odds 1 in `repeat_every` and in a random
/// spelling, one of the client's latest answered fresh requests; its
/// answer must equal the earlier one byte for byte, as a cache hit must.
struct McClient {
    rng: StdRng,
    repeat_every: Option<u64>,
    /// Fresh requests sent, with their answers.
    answers: Vec<(WireRequest, Option<Vec<u8>>)>,
    /// The fresh request the call in flight repeats, if it is a repeat.
    repeat_of: Option<usize>,
    /// Repeats sent.
    repeats: u64,
    /// Repeats answered with a body other than the earlier answer's.
    mismatches: u64,
}

impl McClient {
    fn new(rng: StdRng, repeat_every: Option<u64>) -> Self {
        Self {
            rng,
            repeat_every,
            answers: Vec::new(),
            repeat_of: None,
            repeats: 0,
            mismatches: 0,
        }
    }

    /// The body of a repeat of one of the latest answered requests, if
    /// this call is a repeat and there is one to repeat.
    fn repeat(&mut self) -> Option<String> {
        if self.rng.next_u64() % self.repeat_every? != 0 {
            return None;
        }
        let lo = self.answers.len().saturating_sub(REPEAT_WINDOW);
        let span = (self.answers.len() - lo) as u64;
        if span == 0 {
            return None;
        }
        let i = lo + (self.rng.next_u64() % span) as usize;
        let (wire, answer) = self.answers.get(i)?;
        answer.as_ref()?;
        let mut forms = spellings(wire);
        let s = (self.rng.next_u64() % forms.len().max(1) as u64) as usize;
        self.repeat_of = Some(i);
        self.repeats += 1;
        Some(forms.swap_remove(s))
    }
}

impl Client for McClient {
    fn next(&mut self) -> (&'static str, String) {
        self.repeat_of = None;
        if let Some(body) = self.repeat() {
            return (PROPAGATE, body);
        }
        let wire = mc_request(&mut self.rng);
        let body = json::to_string(&wire);
        self.answers.push((wire, None));
        (PROPAGATE, body)
    }

    fn judge(&mut self, answer: Result<Response, ServeError>) -> Outcome {
        let body = ok_body(answer);
        let failed = match self.repeat_of {
            Some(i) => {
                let earlier = self.answers.get(i).and_then(|(_, b)| b.as_ref());
                let same = body.is_some() && body.as_ref() == earlier;
                if body.is_some() && !same {
                    self.mismatches += 1;
                }
                !same
            }
            None => {
                let failed = body.is_none();
                if let Some(last) = self.answers.last_mut() {
                    last.1 = body;
                }
                failed
            }
        };
        Outcome {
            jobs: 1,
            failed: u64::from(failed),
        }
    }
}

/// A request the program has cached: its spellings and its answer.
struct CachedKey {
    /// Content hash of the canonical request (fleet placement).
    hash: u64,
    spellings: Vec<String>,
    expected: Vec<u8>,
}

/// `batch-mixed`: fresh batches, answered bodies kept for the checks
/// after the phase.
struct BatchClient {
    rng: StdRng,
    calls: Vec<(Vec<WireRequest>, Option<Vec<u8>>)>,
}

impl Client for BatchClient {
    fn next(&mut self) -> (&'static str, String) {
        let jobs = batch_call(&mut self.rng);
        let body = batch_body(&jobs);
        self.calls.push((jobs, None));
        (BATCH, body)
    }

    fn judge(&mut self, answer: Result<Response, ServeError>) -> Outcome {
        let body = ok_body(answer);
        let Some(last) = self.calls.last_mut() else {
            return Outcome::default();
        };
        let jobs = last.0.len() as u64;
        let failed = if body.is_some() { 0 } else { jobs };
        last.1 = body;
        Outcome { jobs, failed }
    }
}

/// What a served phase measured.
struct Served {
    phase: Phase,
    setup_s: Vec<f64>,
    rss_mib: f64,
    /// `/metrics` of the host before and after the phase.
    scrapes: (Scrape, Scrape),
    front_overhead_us: f64,
    /// Repeated requests sent during the phase.
    repeats: u64,
    /// Answer-check failures found outside the phase's own judging.
    mismatches: u64,
}

/// Sets the host up [`SETUP_MIN_REPS`] times or more (see there) and
/// keeps the last. Returns the host and the set-up times.
fn setup(o: &Options, serve_bin: &Path) -> Result<(Host, Vec<f64>), String> {
    let mut setup_s = Vec::new();
    let first = Instant::now();
    loop {
        let started = Instant::now();
        let host = match o.workload {
            Workload::FleetMixed => Host::fleet(serve_bin)?,
            Workload::ColdMc | Workload::BatchMixed => Host::serve(serve_bin)?,
        };
        setup_s.push(started.elapsed().as_secs_f64());
        let reps = setup_s.len();
        if reps >= SETUP_MAX_REPS || (reps >= SETUP_MIN_REPS && first.elapsed() >= SETUP_SPAN) {
            return Ok((host, setup_s));
        }
        host.stop();
    }
}

/// Drives the measured phase against a set-up host, scraping `/metrics`
/// around it. A traced run then calls `extra` on the still-running host
/// and the clients, which returns `fleet.front_overhead_us` and any
/// answer mismatches it saw.
fn measure<C: Client>(
    o: &Options,
    host: Host,
    setup_s: Vec<f64>,
    clients: Vec<C>,
    extra: impl FnOnce(&Host, &[C]) -> Result<(f64, u64), String>,
) -> Result<(Vec<C>, Served), String> {
    let before = host::scrape(host.addr)?;
    let (clients, phase) = drive(host.addr, clients, o.seconds, windows(o), o.trace)?;
    let scrapes = (before, host::scrape(host.addr)?);
    let rss_mib = host.peak_rss_mib();
    let (front_overhead_us, mismatches) = if o.trace {
        extra(&host, &clients)?
    } else {
        (0.0, 0)
    };
    host.stop();
    Ok((
        clients,
        Served {
            phase,
            setup_s,
            rss_mib,
            scrapes,
            front_overhead_us,
            repeats: 0,
            mismatches,
        },
    ))
}

/// Runs one benchmark invocation and returns its result line.
pub fn run(o: Options) -> Result<String, String> {
    let serve_bin = host::serve_bin()?;
    let registry = ModelRegistry::standard().map_err(|e| e.to_string())?;
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "context {{\"workload\":\"{}\",\"seed\":{},\"held_out_seed\":{HELD_OUT_SEED},\"seconds\":{},\
         \"trace\":{},\"cores\":{cores},\"profile\":\"release\",\
         \"clients\":{CLIENTS}}}",
        o.workload.name(),
        o.seed,
        o.seconds,
        o.trace
    );
    let mut replay = Replay::new(&registry);
    let (served, after_failed, after_mismatches) = match o.workload {
        Workload::ColdMc | Workload::FleetMixed => fresh(&o, &serve_bin, &registry, &mut replay)?,
        Workload::BatchMixed => batch(&o, &serve_bin, &registry, &mut replay)?,
    };
    let outcome = served.phase.outcome();
    let attempted = outcome.jobs;
    let failed = (outcome.failed + after_failed).min(attempted);
    let mismatches = served.mismatches + after_mismatches + replay.mismatches;
    let calls = served.phase.samples.len();
    let blocks = served.phase.blocks(BLOCK_CALLS);
    let thin = |b: &Block| samples_beyond(b.calls, 99.0) < MIN_BEYOND;
    if !o.trace && (blocks.is_empty() || blocks.iter().any(thin)) {
        return Err(format!(
            "only {calls} calls: p99 needs {BLOCK_CALLS}, so that {MIN_BEYOND} samples lie beyond it"
        ));
    }
    eprintln!(
        "perfbench: {} seed {}: {calls} calls, {attempted} jobs, {failed} failed, {mismatches} mismatched answers",
        o.workload.name(),
        o.seed
    );
    let correct = mismatches == 0;
    if o.trace {
        let values = layer_values(o.workload, &served, &replay);
        write_spans(&o, &served, &replay);
        result_line(correct, attempted, failed, PER_LAYER, &values)
    } else {
        // Medians over blocks of windows, each window with fresh client
        // threads and connections: a burst of outside load, or one
        // unlucky thread placement, moves one block, not the result.
        for w in &blocks {
            eprintln!(
                "perfbench: block of {} calls, {:.1} jobs/s, p50 {:.1} us, p99 {:.1} us, steal {:.3}",
                w.calls, w.jobs_per_s, w.p50_us, w.p99_us, w.steal
            );
        }
        let blocks = calm(&blocks);
        let mid =
            |f: fn(&Block) -> f64| median(&blocks.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
        // Failures found by checks after the phase are not placed in a
        // block; they scale throughput down as a share.
        let late_ok = 1.0 - after_failed as f64 / attempted.max(1) as f64;
        let passed = attempted.saturating_sub(failed) as f64;
        let values = [
            ("throughput_jobs_per_s", mid(|w| w.jobs_per_s) * late_ok),
            ("latency_p50_us", mid(|w| w.p50_us)),
            ("latency_p99_us", mid(|w| w.p99_us)),
            ("ok_share", passed / attempted.max(1) as f64),
            ("setup_s", median(&served.setup_s).unwrap_or(0.0)),
            ("peak_rss_mib", served.rss_mib),
        ];
        result_line(correct, attempted, failed, END_TO_END, &values)
    }
}

/// Checks fresh answers: every one must decode as a report, and about
/// 400 spread over the run must equal the in-process answer byte for
/// byte and have a mean within 5 standard errors of the exact mean.
/// Returns the failed jobs and the mismatched answers.
fn check_fresh(
    registry: &ModelRegistry,
    answers: &[(WireRequest, Vec<u8>)],
) -> Result<(u64, u64), String> {
    let stride = (answers.len() / 400).max(1);
    let (mut failed, mut mismatches) = (0, 0);
    for (n, (wire, body)) in answers.iter().enumerate() {
        let text = String::from_utf8_lossy(body);
        let Ok(report) = json::from_str::<PropagationReport>(&text) else {
            failed += 1;
            mismatches += 1;
            continue;
        };
        if n % stride != 0 {
            continue;
        }
        let se = (report.variance_estimate() / report.evaluations.max(1) as f64).sqrt();
        let near = exact_mean(wire).is_some_and(|m| (report.mean_estimate() - m).abs() <= 5.0 * se);
        if !near || expected_body(registry, wire)? != text {
            failed += 1;
            mismatches += 1;
        }
    }
    Ok((failed, mismatches))
}

/// `cold-mc` and `fleet-mixed`. Returns the phase plus failures and
/// mismatches found by the checks after it.
fn fresh(
    o: &Options,
    serve_bin: &Path,
    registry: &ModelRegistry,
    replay: &mut Replay<'_>,
) -> Result<(Served, u64, u64), String> {
    let fleet = o.workload == Workload::FleetMixed;
    let repeat_every = fleet.then_some(REPEAT_EVERY);
    let (host, setup_s) = setup(o, serve_bin)?;
    let clients = (0..CLIENTS)
        .map(|c| McClient::new(o.workload.rng(o.seed, 1 + c as u64), repeat_every))
        .collect();
    let extra = |host: &Host, clients: &[McClient]| {
        if fleet {
            front_overhead(host, clients, o.workload.rng(o.seed, 99))
        } else {
            Ok((0.0, 0))
        }
    };
    let (clients, mut served) = measure(o, host, setup_s, clients, extra)?;
    for c in &clients {
        served.repeats += c.repeats;
        served.mismatches += c.mismatches;
    }
    let answers: Vec<(WireRequest, Vec<u8>)> = clients
        .into_iter()
        .flat_map(|c| c.answers)
        .filter_map(|(w, b)| Some((w, b?)))
        .collect();
    let (mut failed, mut mismatches) = check_fresh(registry, &answers)?;
    // On a healthy fleet no forward is retried: a retry means a shard
    // failed a call, so each one counts as a failed job.
    if fleet {
        let (before, after) = &served.scrapes;
        let retries = host::delta(before, after, "sysunc_fleet_forward_retries_total") as u64;
        failed += retries;
        mismatches += retries;
    }
    if o.trace {
        // Client 0's calls again, in process, each answer judged as the
        // served ones were.
        let mut client = McClient::new(o.workload.rng(o.seed, 1), repeat_every);
        for _ in 0..REPLAY_CALLS {
            let (target, body) = client.next();
            let out = replay.propagate(&raw_post(target, &body), fleet)?;
            let answer =
                HttpConn::new(Cursor::new(out)).read_response(&Limits::default(), &mut || false);
            if client.judge(answer).failed > 0 {
                mismatches += 1;
            }
        }
    }
    Ok((served, failed, mismatches))
}

/// `fleet.front_overhead_us`: the p50 of calls through the front minus
/// the p50 of the same calls sent straight to the owning shard,
/// interleaved call by call. The calls repeat the clients' latest
/// answered requests, which the shards still cache. Also returns answer
/// mismatches.
fn front_overhead(
    host: &Host,
    clients: &[McClient],
    mut rng: StdRng,
) -> Result<(f64, u64), String> {
    let mut keys = Vec::new();
    for c in clients {
        let lo = c.answers.len().saturating_sub(128);
        for (wire, body) in c.answers.get(lo..).unwrap_or_default() {
            if let Some(expected) = body {
                let hash = CanonicalRequest::from_wire(wire)
                    .map_err(|e| e.to_string())?
                    .content_hash();
                keys.push(CachedKey {
                    hash,
                    spellings: spellings(wire),
                    expected: expected.clone(),
                });
            }
        }
    }
    if keys.is_empty() {
        return Err("no answered request to repeat".into());
    }
    let connect = |a| HttpClient::connect(a).map_err(|e| format!("connect {a}: {e}"));
    let mut front = connect(host.addr)?;
    let mut shards = host
        .shards
        .iter()
        .map(|&a| connect(a))
        .collect::<Result<Vec<_>, _>>()?;
    let table = ShardTable::new(shards.len());
    let (mut via_front, mut direct, mut mismatches) = (Vec::new(), Vec::new(), 0);
    for i in 0..2000 {
        let key = &keys[(rng.next_u64() % keys.len() as u64) as usize];
        let body = &key.spellings[(rng.next_u64() % key.spellings.len() as u64) as usize];
        let shard = shards
            .get_mut(table.place(key.hash))
            .ok_or("the fleet reported no shards")?;
        let mut call = |client: &mut HttpClient| -> Result<u64, String> {
            let started = Instant::now();
            let answer = client
                .request("POST", PROPAGATE, Some(body))
                .map_err(|e| e.to_string())?;
            let ns = started.elapsed().as_nanos() as u64;
            if answer.status != 200 || answer.body != key.expected {
                mismatches += 1;
            }
            Ok(ns)
        };
        if i % 2 == 0 {
            via_front.push(call(&mut front)?);
            direct.push(call(shard)?);
        } else {
            direct.push(call(shard)?);
            via_front.push(call(&mut front)?);
        }
    }
    via_front.sort_unstable();
    direct.sort_unstable();
    let p50 = |v: &[u64]| nearest_rank(v, 50.0).unwrap_or(0) as f64 / 1e3;
    Ok((p50(&via_front) - p50(&direct), mismatches))
}

/// `batch-mixed`.
fn batch(
    o: &Options,
    serve_bin: &Path,
    registry: &ModelRegistry,
    replay: &mut Replay<'_>,
) -> Result<(Served, u64, u64), String> {
    let (host, setup_s) = setup(o, serve_bin)?;
    let clients = (0..CLIENTS)
        .map(|c| BatchClient {
            rng: o.workload.rng(o.seed, 1 + c as u64),
            calls: Vec::new(),
        })
        .collect();
    let (clients, served) = measure(o, host, setup_s, clients, |_, _| Ok((0.0, 0)))?;
    let calls: Vec<(Vec<WireRequest>, Vec<u8>)> = clients
        .into_iter()
        .flat_map(|c| c.calls)
        .filter_map(|(j, b)| Some((j, b?)))
        .collect();
    let stride = (calls.len() / 40).max(1);
    let (mut failed, mut mismatches) = (0, 0);
    for (n, (jobs, body)) in calls.iter().enumerate() {
        let text = String::from_utf8_lossy(body);
        let sound = batch_sound(jobs, &text);
        let exact = n % stride != 0 || {
            let expected: Vec<String> = jobs
                .iter()
                .map(|w| expected_body(registry, w))
                .collect::<Result<_, _>>()?;
            text == format!("[{}]", expected.join(","))
        };
        if !(sound && exact) {
            failed += jobs.len() as u64;
            mismatches += 1;
        }
    }
    if o.trace {
        let mut rng = o.workload.rng(o.seed, 1);
        for _ in 0..24 {
            replay.batch(&raw_post(BATCH, &batch_body(&batch_call(&mut rng))))?;
        }
    }
    Ok((served, failed, mismatches))
}

/// Whether a batch answer is an array of one decodable report per job,
/// with equal reports for repeated jobs.
fn batch_sound(jobs: &[WireRequest], text: &str) -> bool {
    let Ok(doc) = json::parse(text) else {
        return false;
    };
    let Some(items) = doc.as_arr() else {
        return false;
    };
    if items.len() != jobs.len()
        || items
            .iter()
            .any(|j| PropagationReport::from_json(j).is_err())
    {
        return false;
    }
    jobs.iter().zip(items).all(|(a, ja)| {
        jobs.iter()
            .zip(items)
            .all(|(b, jb): (&WireRequest, &Json)| a != b || ja == jb)
    })
}

/// Per-layer values of a traced run.
fn layer_values(w: Workload, served: &Served, replay: &Replay<'_>) -> Vec<(&'static str, f64)> {
    let t = totals(replay.tracer.spans());
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let per_request = |name: &str| get(name).self_ns as f64 / replay.requests.max(1) as f64 / 1e3;
    let mut v: Vec<(&'static str, f64)> = vec![
        ("serve.http.read_us", per_request("serve.http.read")),
        ("serve.http.write_us", per_request("serve.http.write")),
        ("prob.json.decode_us", per_request("prob.json.decode")),
        ("core.wire.canonical_us", per_request("core.wire.canonical")),
        (
            "serve.router.decode_batch_us",
            per_request("serve.router.decode_batch"),
        ),
        ("prob.json.encode_us", per_request("prob.json.encode")),
        ("serve.cache.get_us", per_request("serve.cache.get")),
        ("serve.cache.insert_us", per_request("serve.cache.insert")),
        (
            "core.propagator.chunked_serial_us",
            get("core.propagator.chunked.serial").mean_us(),
        ),
        (
            "core.propagator.chunked_threaded_us",
            get("core.propagator.chunked.threaded").mean_us(),
        ),
        (
            "core.propagator.run_batch_us",
            get("core.propagator.run_batch").mean_us(),
        ),
        ("prob.stats.sort_us", get("prob.stats.sort").mean_us()),
        ("pce.fit_us", get("pce.fit").mean_us()),
        ("pce.eval_ns", get("pce.eval").ns_per_unit()),
        ("evidence.propagate_us", get("evidence.propagate").mean_us()),
        (
            "fleet.shard.place_ns",
            get("fleet.shard.place").ns_per_unit(),
        ),
        ("fleet.front_overhead_us", served.front_overhead_us),
    ];
    let unaccounted = &replay.unaccounted_ns;
    v.push((
        "core.propagator.unaccounted_us",
        unaccounted.iter().sum::<u64>() as f64 / unaccounted.len().max(1) as f64 / 1e3,
    ));
    v.push((
        "core.propagator.batch_efficiency",
        replay.batch_job_ns as f64 / replay.batch_capacity_ns.max(1) as f64,
    ));
    v.push((
        "core.propagator.dedup_ratio",
        replay.batch_jobs.1 as f64 / replay.batch_jobs.0.max(1) as f64,
    ));
    let evidence = get("evidence.propagate");
    v.push((
        "evidence.corner_evals",
        evidence.work as f64 / evidence.count.max(1) as f64,
    ));
    v.push((
        "evidence.evals_per_budget",
        evidence.work as f64 / replay.evidence_budget.max(1) as f64,
    ));
    for (engine, us, evals) in [
        (
            "monte-carlo",
            "core.propagator.monte-carlo.us_per_request",
            "core.propagator.monte-carlo.evals_per_s",
        ),
        (
            "latin-hypercube",
            "core.propagator.latin-hypercube.us_per_request",
            "core.propagator.latin-hypercube.evals_per_s",
        ),
        (
            "sobol-qmc",
            "core.propagator.sobol-qmc.us_per_request",
            "core.propagator.sobol-qmc.evals_per_s",
        ),
        (
            "pce-spectral",
            "core.propagator.pce-spectral.us_per_request",
            "core.propagator.pce-spectral.evals_per_s",
        ),
        (
            "evidential",
            "core.propagator.evidential.us_per_request",
            "core.propagator.evidential.evals_per_s",
        ),
    ] {
        let whole: Totals = get(&format!("core.propagator.{engine}"));
        v.push((us, whole.mean_us()));
        v.push((evals, whole.per_second()));
    }
    for (metric, span) in [
        (
            "sampling.design.random.ns_per_value",
            "sampling.design.random",
        ),
        ("sampling.design.lhs.ns_per_value", "sampling.design.lhs"),
        (
            "sampling.design.sobol.ns_per_value",
            "sampling.design.sobol",
        ),
        ("prob.dist.normal.quantile_ns", "prob.dist.normal.quantile"),
        (
            "prob.dist.uniform.quantile_ns",
            "prob.dist.uniform.quantile",
        ),
        (
            "prob.dist.exponential.quantile_ns",
            "prob.dist.exponential.quantile",
        ),
        ("prob.dist.beta.quantile_ns", "prob.dist.beta.quantile"),
        ("model.sum.eval_ns", "model.sum.eval"),
        ("model.linear-2x3y.eval_ns", "model.linear-2x3y.eval"),
        ("model.product.eval_ns", "model.product.eval"),
        ("model.orbital-period.eval_ns", "model.orbital-period.eval"),
        ("model.missed-hazard.eval_ns", "model.missed-hazard.eval"),
    ] {
        v.push((metric, get(span).ns_per_unit()));
    }
    let (before, after) = &served.scrapes;
    let d = |prefix: &str| host::delta(before, after, prefix);
    let hits = d("sysunc_cache_hits_total");
    let lookups = hits + d("sysunc_cache_misses_total");
    let route_sum = d("sysunc_http_request_duration_micros_sum{route=\"/v1/propagate");
    let route_count = d("sysunc_http_request_duration_micros_count{route=\"/v1/propagate");
    let engine_sum = d("sysunc_engine_run_duration_micros_sum");
    let route_us = route_sum / route_count.max(1.0);
    let engine_us = engine_sum / route_count.max(1.0);
    v.push(("serve.cache.hit_ratio", hits / lookups.max(1.0)));
    v.push(("serve.cache.evictions", d("sysunc_cache_evictions_total")));
    v.push(("serve.server.route_us", route_us));
    v.push(("serve.server.engine_us", engine_us));
    v.push(("serve.server.residual_us", route_us - engine_us));
    // Shard cache hits per repeated request: each repeat must reach the
    // shard that cached its first answer. 0 off the fleet.
    v.push((
        "fleet.cache_locality",
        if w == Workload::FleetMixed {
            hits / served.repeats.max(1) as f64
        } else {
            0.0
        },
    ));
    eprintln!(
        "perfbench: server-side engine runs during the phase: {}",
        d("sysunc_engine_runs_total")
    );
    let traced = served.phase.latencies_ns(|s| s.traced);
    let plain = served.phase.latencies_ns(|s| !s.traced);
    let p50 = |v: &[u64]| nearest_rank(v, 50.0).unwrap_or(0) as f64;
    v.push((
        "trace.overhead_pct",
        (p50(&traced) / p50(&plain).max(1.0) - 1.0) * 100.0,
    ));
    let engines: Vec<(&str, Totals)> = sysunc::ENGINE_NAMES
        .iter()
        .map(|e| (*e, get(&format!("core.propagator.{e}"))))
        .collect();
    let total: u64 = engines.iter().map(|(_, t)| t.self_ns).sum();
    for (e, t) in engines.iter().filter(|(_, t)| t.count > 0) {
        eprintln!(
            "perfbench: engine time share {e}: {:.3}",
            t.self_ns as f64 / total.max(1) as f64
        );
    }
    v
}

/// Writes every span (client calls, then the replay) next to the
/// binary, one JSON object per line.
fn write_spans(o: &Options, served: &Served, replay: &Replay<'_>) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
    else {
        return;
    };
    let path = dir.join(format!(
        "perfbench-trace-{}-{}.jsonl",
        o.workload.name(),
        o.seed
    ));
    let text = served.phase.tracer.to_json_lines() + &replay.tracer.to_json_lines();
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(jobs_per_s: f64, steal: f64) -> Block {
        Block {
            jobs_per_s,
            p50_us: 1.0,
            p99_us: 2.0,
            calls: 1000,
            steal,
        }
    }

    #[test]
    fn calm_blocks_are_picked_by_steal_alone() {
        let rates = |v: Vec<Block>| v.iter().map(|b| b.jobs_per_s).collect::<Vec<_>>();
        let mostly_quiet = [block(1.0, 0.0), block(2.0, 0.3), block(3.0, 0.01)];
        assert_eq!(rates(calm(&mostly_quiet)), [1.0, 3.0]);
        let stolen = [
            block(1.0, 0.5),
            block(2.0, 0.1),
            block(3.0, 0.2),
            block(4.0, 0.3),
        ];
        assert_eq!(rates(calm(&stolen)), [2.0, 3.0]);
        let odd = [block(1.0, 0.5), block(2.0, 0.1), block(3.0, 0.2)];
        assert_eq!(rates(calm(&odd)), [2.0, 3.0]);
    }
}
