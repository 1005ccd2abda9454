//! `serve_mixed`: a closed loop of two clients against an in-process
//! `setm-serve` server over loopback, plus the request helpers the batch
//! workloads' traced serve probe shares.

use crate::inputs;
use crate::layers::{self, ms};
use crate::report::Report;
use crate::spans::{Span, Spans};
use crate::stats::{median, ratio, Samples};
use crate::{backend, host, Args, N_BACKENDS, THREADS};
use setm_core::{Dataset, MinSupport, Miner, MiningOutcome, MiningParams};
use setm_incremental::concat_datasets;
use setm_serve::client::Client;
use setm_serve::json::Json;
use setm_serve::protocol;
use setm_serve::registry::Registry;
use setm_serve::server::{ServeConfig, Server};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server worker threads, pinned (never 0, which would follow the host).
pub const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Quest T5.I2 transactions in the read-only base dataset.
const BASE_TXNS: u32 = 10_000;
/// Transactions each client's mutable dataset starts with.
const MUT_BASE: usize = 2_000;
/// Transactions per `append-batch`.
const BATCH: usize = 50;
/// Appends prepared per client at set-up; a client's loop ends early if
/// it ever uses them all (about three times what a 20 s run needs).
const MAX_BATCHES: usize = 400;
/// Lowest absolute support count a `miss` request asks for.
const MISS_BASE: u64 = 150;
/// Width of the band the miss counts are spread over, in a fixed
/// interleaved order so any prefix of a run samples the whole band.
const MISS_BAND: u64 = 256;
const SETUP_REPS: usize = 3;
/// Shifts an append batch clear of every trans_id in the population.
const BATCH_TID_OFFSET: u32 = 10_000_000;
/// `served_via` never seen on a reply.
const NO_ROUTE: &str = "-";

/// The request classes of the mixed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Hit,
    Miss,
    Append,
    Delta,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Miss => "miss",
            Class::Append => "append",
            Class::Delta => "delta",
        }
    }
}

/// What a reply must equal: the outcome of an in-process `Miner::run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Expect {
    /// The read-only dataset with the warm-up miner of this backend.
    Hit(usize),
    /// The read-only dataset at an absolute support count on a backend.
    Miss(usize, u64),
    /// Client `c`'s mutable dataset at a version, memory backend.
    Delta(usize, u64),
    /// An append: the reply must name the expected version.
    Version(u64),
}

/// One timed request as the client saw it.
#[derive(Debug, Clone)]
pub struct Request {
    pub class: Class,
    pub expect: Expect,
    pub ok: bool,
    pub start: Instant,
    pub accepted: Instant,
    pub end: Instant,
    pub served_via: String,
    /// Hash and length of the raw outcome bytes.
    pub digest: Digest,
    /// The server's `trace` offsets for this job (traced runs only):
    /// `planned` and `serialized` (for a cache hit, `served_from_cache`).
    pub server: Option<(f64, f64)>,
}

impl Request {
    pub fn total_ms(&self) -> f64 {
        ms(self.start, self.end)
    }
    pub fn accept_ms(&self) -> f64 {
        ms(self.start, self.accepted)
    }
    pub fn wait_ms(&self) -> f64 {
        ms(self.accepted, self.end)
    }
}

/// 64-bit hash and length of an outcome's bytes.
pub type Digest = (u64, usize);

pub fn digest(text: &str) -> Digest {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    (h.finish(), text.len())
}

pub fn outcome_digest(outcome: &MiningOutcome) -> Digest {
    digest(&protocol::outcome_to_json(outcome).to_string())
}

fn failed_request(class: Class, expect: Expect, start: Instant) -> Request {
    let now = Instant::now();
    Request {
        class,
        expect,
        ok: false,
        start,
        accepted: now,
        end: now,
        served_via: NO_ROUTE.to_string(),
        digest: (0, 0),
        server: None,
    }
}

/// Submit one mine, wait for its outcome, and (traced) fetch the job's
/// server spans afterwards, off the request's clock.
pub fn mine(
    client: &mut Client,
    dataset: &str,
    miner: Miner,
    class: Class,
    expect: Expect,
    traced: bool,
) -> Request {
    let start = Instant::now();
    let Ok(job) = client.submit(dataset, miner) else {
        return failed_request(class, expect, start);
    };
    let accepted = Instant::now();
    let Ok(reply) = client.wait_outcome() else {
        return failed_request(class, expect, start);
    };
    let end = Instant::now();
    let server = if traced {
        client.trace(job).ok().and_then(|s| server_offsets(&s))
    } else {
        None
    };
    Request {
        class,
        expect,
        ok: reply.job == job,
        start,
        accepted,
        end,
        served_via: reply.served_via.unwrap_or_else(|| NO_ROUTE.to_string()),
        digest: digest(&reply.raw_outcome),
        server,
    }
}

/// Append one batch; the reply is checked against the expected version.
pub fn append(client: &mut Client, name: &str, batch: &[(u32, Vec<u32>)], version: u64) -> Request {
    let start = Instant::now();
    let result = client.append_batch(name, batch);
    let end = Instant::now();
    Request {
        class: Class::Append,
        expect: Expect::Version(version),
        ok: result.as_ref().is_ok_and(|&v| v == version),
        start,
        accepted: end,
        end,
        served_via: NO_ROUTE.to_string(),
        digest: (0, 0),
        server: None,
    }
}

/// `(planned, serialized)` offsets from a job's span log; a cache hit is
/// never planned, so it reports `(0, served_from_cache)`.
fn server_offsets(spans: &[(String, f64)]) -> Option<(f64, f64)> {
    let at = |label: &str| spans.iter().find(|(l, _)| l == label).map(|(_, t)| *t);
    match (at("planned"), at("serialized"), at("served_from_cache")) {
        (Some(p), Some(s), _) => Some((p, s)),
        (_, _, Some(c)) => Some((0.0, c)),
        _ => None,
    }
}

/// Record a traced request as a span with its client-side halves and the
/// server's job span as children. The server's offsets are placed from
/// the send time, so they are late by the one-way loopback delay.
pub fn record_request(spans: &mut Spans, id: u64, r: &Request) {
    let root = spans.record(
        id,
        &format!("{}.request", r.class.name()),
        None,
        r.start,
        r.end,
    );
    spans.record(
        id,
        &format!("{}.accept", r.class.name()),
        Some(root),
        r.start,
        r.accepted,
    );
    let wait = spans.record(
        id,
        &format!("{}.outcome_wait", r.class.name()),
        Some(root),
        r.accepted,
        r.end,
    );
    if let Some((planned, serialized)) = r.server {
        let origin = spans.offset_ms(r.start);
        spans.push(Span {
            id,
            name: format!("{}.server_job", r.class.name()),
            parent: Some(wait),
            start_ms: origin + planned,
            end_ms: origin + serialized,
        });
    }
}

/// A running in-process server.
pub struct Running {
    pub addr: SocketAddr,
    handle: JoinHandle<()>,
}

pub fn start(registry: Registry) -> Result<Running, String> {
    let config = ServeConfig {
        workers: WORKERS,
        queue_capacity: 64,
        ..ServeConfig::default()
    };
    let server = Server::bind(config, registry).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    Ok(Running { addr, handle })
}

impl Running {
    pub fn stop(self) -> Result<(), String> {
        let mut client = Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_string())
    }
}

/// Server-side counters read after the timed loop.
#[derive(Debug, Default)]
pub struct ServerStats {
    pub queue_wait_p50_ms: f64,
    pub queue_wait_p90_ms: f64,
    pub queue_wait_count: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub served_cache: u64,
    pub served_full: u64,
    pub served_delta: u64,
    pub bytes_out: u64,
}

pub fn server_stats(addr: SocketAddr) -> Result<ServerStats, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let metrics = client.metrics().map_err(|e| format!("metrics verb: {e}"))?;
    let status = client.status().map_err(|e| format!("status verb: {e}"))?;
    let hist = metrics.get("setm_scheduler_queue_wait_ms");
    let leaf = |key: &str| {
        hist.and_then(|h| h.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    Ok(ServerStats {
        queue_wait_p50_ms: leaf("p50_ms"),
        queue_wait_p90_ms: leaf("p90_ms"),
        queue_wait_count: leaf("count") as u64,
        cache_hits: status.cache_hits,
        cache_misses: status.cache_misses,
        served_cache: status.served_cache,
        served_full: status.served_full,
        served_delta: status.served_delta,
        bytes_out: metrics
            .get("setm_conn_bytes_out_total")
            .and_then(Json::as_u64)
            .unwrap_or(0),
    })
}

/// Per-layer serve metrics from traced requests and the server counters.
/// `lines_answered` is every request line the server answered.
pub fn report_serve_layers(
    report: &mut Report,
    requests: &[Request],
    stats: &ServerStats,
    lines_answered: u64,
) {
    let of = |class: Class| requests.iter().filter(move |r| r.class == class && r.ok);
    let med = |values: Vec<f64>| (median(&values), values.len());
    for class in [Class::Hit, Class::Miss, Class::Delta] {
        let name = class.name();
        let (v, n) = med(of(class).map(Request::accept_ms).collect());
        report.layer(&format!("serve.{name}_accept_ms"), v, "ms", n);
        let (v, n) = med(of(class).map(Request::wait_ms).collect());
        report.layer(&format!("serve.{name}_outcome_wait_ms"), v, "ms", n);
        let traced: Vec<(f64, f64, f64)> = of(class)
            .filter_map(|r| r.server.map(|(p, s)| (r.total_ms(), p, s)))
            .collect();
        let (outside, n) = med(traced.iter().map(|(total, _, s)| total - s).collect());
        report.layer(&format!("serve.{name}_outside_job_ms"), outside, "ms", n);
        if class == Class::Hit {
            let (v, n) = med(traced.iter().map(|(_, _, s)| *s).collect());
            report.layer("serve.hit_serialized_ms", v, "ms", n);
        } else {
            let (v, n) = med(traced.iter().map(|(_, p, s)| s - p).collect());
            report.layer(&format!("serve.{name}_job_ms"), v, "ms", n);
        }
    }
    // accept + outcome_wait must equal the client total for every request.
    let residue = requests
        .iter()
        .filter(|r| r.ok)
        .map(|r| (r.accept_ms() + r.wait_ms() - r.total_ms()).abs())
        .fold(0.0, f64::max);
    report.layer(
        "trace.request_sum_residue_ms",
        residue,
        "ms",
        requests.len(),
    );
    report.layer(
        "serve.queue_wait_p50_ms",
        stats.queue_wait_p50_ms,
        "ms",
        stats.queue_wait_count as usize,
    );
    report.layer(
        "serve.queue_wait_p90_ms",
        stats.queue_wait_p90_ms,
        "ms",
        stats.queue_wait_count as usize,
    );
    let eligible = stats.cache_hits + stats.cache_misses;
    report.layer(
        "serve.cache_hit_ratio",
        ratio(stats.cache_hits as f64, eligible as f64),
        "ratio",
        eligible as usize,
    );
    report.layer("serve.served_cache", stats.served_cache as f64, "count", 1);
    report.layer("serve.served_full", stats.served_full as f64, "count", 1);
    report.layer("serve.served_delta", stats.served_delta as f64, "count", 1);
    report.layer(
        "serve.bytes_out_per_req",
        ratio(stats.bytes_out as f64, lines_answered as f64),
        "bytes",
        lines_answered as usize,
    );
    let hits: Vec<&Request> = of(Class::Hit).filter(|r| r.server.is_some()).collect();
    if !hits.is_empty() {
        let m = |f: fn(&Request) -> f64| median(&hits.iter().map(|r| f(r)).collect::<Vec<_>>());
        report.line(format!(
            "hit floor (n={}): accept {:.3} ms, server done at {:.3} ms, outside the job {:.3} ms, client total {:.3} ms",
            hits.len(),
            m(Request::accept_ms),
            m(|r| r.server.map_or(0.0, |(_, s)| s)),
            m(|r| r.total_ms() - r.server.map_or(0.0, |(_, s)| s)),
            m(Request::total_ms),
        ));
    }
}

/// Check replies against the in-process references; returns one note per
/// wrong reply.
pub fn verify(requests: &[Request], references: &BTreeMap<Expect, Digest>) -> Vec<String> {
    let mut wrong = Vec::new();
    for r in requests.iter().filter(|r| r.ok) {
        match r.expect {
            Expect::Version(_) => {}
            key => match references.get(&key) {
                Some(d) if *d == r.digest => {}
                Some(_) => wrong.push(format!(
                    "{} reply for {key:?} differs from the in-process outcome",
                    r.class.name()
                )),
                None => wrong.push(format!("no reference for {key:?}")),
            },
        }
    }
    wrong
}

/// A reference to compute: what it is for, and the in-process run.
pub type RefJob<'a> = (
    Expect,
    Box<dyn Fn() -> Result<MiningOutcome, String> + Send + Sync + 'a>,
);

/// What one client's loop recorded.
struct ClientLog {
    requests: Vec<Request>,
    /// Request lines the server answered (trace verbs included).
    answered: u64,
    /// Wall time of each full hit, miss, append, delta cycle.
    cycles_ms: Vec<f64>,
    spans: Spans,
}

/// Compute reference digests on up to `THREADS` threads.
pub fn references(jobs: Vec<RefJob<'_>>) -> Result<BTreeMap<Expect, Digest>, String> {
    let next = AtomicUsize::new(0);
    let results: Vec<Vec<(Expect, Result<Digest, String>)>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some((key, job)) = jobs.get(i) else { break };
                        out.push((*key, job().map(|o| outcome_digest(&o))));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("reference worker"))
            .collect()
    });
    let mut map = BTreeMap::new();
    for (key, result) in results.into_iter().flatten() {
        map.insert(key, result.map_err(|e| format!("reference {key:?}: {e}"))?);
    }
    Ok(map)
}

// ---------------------------------------------------------------------------
// The serve_mixed workload
// ---------------------------------------------------------------------------

fn hit_params() -> MiningParams {
    MiningParams::new(MinSupport::Fraction(0.02), 0.5)
}

fn hit_miner(b: usize) -> Miner {
    Miner::new(hit_params()).backend(backend(b)).threads(1)
}

fn miss_miner(b: usize, count: u64) -> Miner {
    Miner::new(MiningParams::new(MinSupport::Count(count), 0.5))
        .backend(backend(b))
        .threads(1)
}

fn delta_miner() -> Miner {
    Miner::new(hit_params()).threads(1)
}

/// The support count of miss number `idx` of one backend: distinct for
/// every `idx`, spread over the band in a stride order.
pub fn miss_count(idx: u64) -> u64 {
    MISS_BASE + (idx % MISS_BAND) * 97 % MISS_BAND + MISS_BAND * (idx / MISS_BAND)
}

type Batch = Vec<(u32, Vec<u32>)>;

struct Fixture {
    base: Dataset,
    mutable: Vec<Dataset>,
    batches: Vec<Vec<Batch>>,
    gen_ms: f64,
    server: Running,
}

fn setup(seed: u64) -> Result<Fixture, String> {
    let t = Instant::now();
    // One shuffled T5.I2 population: the base first, then each client's
    // mutable dataset and its append batches.
    let per_client = MUT_BASE + BATCH * MAX_BATCHES;
    let population = inputs::quest_t5_i2((BASE_TXNS as usize + CLIENTS * per_client) as u32, seed);
    let (base_txns, rest) = population.split_at(BASE_TXNS as usize);
    let base = inputs::dataset(base_txns);
    let mut mutable = Vec::new();
    let mut batches = Vec::new();
    for txns in rest.chunks(per_client).take(CLIENTS) {
        let (head, tail) = txns.split_at(MUT_BASE);
        mutable.push(inputs::dataset(head));
        batches.push(tail.chunks(BATCH).map(<[_]>::to_vec).collect());
    }
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut registry = Registry::empty();
    registry.register_dataset("base", "Quest T5.I2 read-only base", base.clone());
    for (c, d) in mutable.iter().enumerate() {
        registry.register_dataset(&format!("mut-{c}"), "per-client mutable dataset", d.clone());
    }
    let server = start(registry)?;
    let mut client = Client::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    for b in 0..N_BACKENDS {
        client
            .mine("base", hit_miner(b))
            .map_err(|e| format!("warm-up hit {b}: {e}"))?;
    }
    for c in 0..CLIENTS {
        client
            .mine(&format!("mut-{c}"), delta_miner())
            .map_err(|e| format!("warm-up delta {c}: {e}"))?;
    }
    Ok(Fixture {
        base,
        mutable,
        batches,
        gen_ms,
        server,
    })
}

/// One client's closed loop: hit, miss, append, delta, until the deadline.
fn client_loop(
    c: usize,
    addr: SocketAddr,
    deadline: Instant,
    batches: &[Batch],
    origin: Instant,
) -> Result<ClientLog, String> {
    let traced_run = crate::traced();
    let mut client = Client::connect(addr).map_err(|e| format!("client {c} connect: {e}"))?;
    let mut out = Vec::new();
    let mut cycles_ms = Vec::new();
    let name = format!("mut-{c}");
    let mut n = 0usize;
    while Instant::now() < deadline && n < batches.len() {
        let cycle_start = Instant::now();
        let hit_b = (n + c) % N_BACKENDS;
        out.push(mine(
            &mut client,
            "base",
            hit_miner(hit_b),
            Class::Hit,
            Expect::Hit(hit_b),
            traced_run,
        ));
        let miss_b = (n + c + 1) % N_BACKENDS;
        let count = miss_count(2 * (n / N_BACKENDS) as u64 + c as u64);
        let expect = Expect::Miss(miss_b, count);
        out.push(mine(
            &mut client,
            "base",
            miss_miner(miss_b, count),
            Class::Miss,
            expect,
            traced_run,
        ));
        let version = n as u64 + 2;
        out.push(append(&mut client, &name, &batches[n], version));
        let spec = format!("{name}@{version}");
        let expect = Expect::Delta(c, version);
        out.push(mine(
            &mut client,
            &spec,
            delta_miner(),
            Class::Delta,
            expect,
            traced_run,
        ));
        cycles_ms.push(ms(cycle_start, Instant::now()));
        n += 1;
    }
    let mut spans = Spans::new(origin);
    if traced_run {
        for (i, r) in out.iter().enumerate() {
            record_request(&mut spans, ((c as u64) << 32) | i as u64, r);
        }
    }
    // Lines answered: every request, plus one trace verb per traced mine.
    let traces = if traced_run {
        out.iter().filter(|r| r.class != Class::Append).count()
    } else {
        0
    };
    Ok(ClientLog {
        answered: (out.len() + traces) as u64,
        requests: out,
        cycles_ms,
        spans,
    })
}

pub fn run(args: &Args, spans: &mut Spans) -> Report {
    let mut report = Report::default();
    report.line(format!(
        "workload serve_mixed: base {BASE_TXNS} txns drawn with seed {} from a fixed Quest T5.I2 population, {CLIENTS} clients closed loop, \
         mutable base {MUT_BASE} txns per client, appends of {BATCH}, hit support 2%, \
         miss counts {MISS_BASE}+ (band {MISS_BAND}), workers {WORKERS}, request threads 1",
        args.seed
    ));

    // Set-up, repeated; earlier servers are shut down, the last one kept.
    let mut setup_s = Vec::new();
    let mut gen_ms = Vec::new();
    let mut fixture: Option<Fixture> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = fixture.take() {
            if let Err(e) = old.server.stop() {
                report.problem(format!("stopping a set-up server: {e}"));
            }
        }
        let t = Instant::now();
        match setup(args.seed) {
            Ok(f) => {
                setup_s.push(t.elapsed().as_secs_f64());
                gen_ms.push(f.gen_ms);
                fixture = Some(f);
            }
            Err(e) => {
                report.problem(format!("set-up failed: {e}"));
                return report;
            }
        }
    }
    let Some(fixture) = fixture else {
        return report;
    };

    // The timed loop.
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let origin = spans.origin();
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let batches = &fixture.batches[c];
                let addr = fixture.server.addr;
                s.spawn(move || client_loop(c, addr, deadline, batches, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let peak_rss = host::peak_rss_mb();

    let mut requests = Vec::new();
    // The kept server also answered the warm-up requests.
    let mut lines_answered = (N_BACKENDS + CLIENTS) as u64;
    let mut cycles_ms = Vec::new();
    for log in logs {
        match log {
            Ok(log) => {
                requests.extend(log.requests);
                lines_answered += log.answered;
                cycles_ms.extend(log.cycles_ms);
                spans.absorb(log.spans);
            }
            Err(e) => report.problem(e),
        }
    }
    let stats = match server_stats(fixture.server.addr) {
        Ok(s) => Some(s),
        Err(e) => {
            report.problem(e);
            None
        }
    };
    // Stopped before verification, so the reference mines run alone.
    if let Err(e) = fixture.server.stop() {
        report.problem(e);
    }

    // Latency summaries.
    let mut by_class: BTreeMap<Class, Samples> = BTreeMap::new();
    let mut by_backend: [Samples; 3] = Default::default();
    for r in &requests {
        let samples = by_class.entry(r.class).or_default();
        if r.ok {
            samples.push(r.total_ms());
        } else {
            samples.push_failed();
        }
        if let (Class::Miss, Expect::Miss(b, _)) = (r.class, r.expect) {
            if r.ok {
                by_backend[b].push(r.total_ms());
            } else {
                by_backend[b].push_failed();
            }
        }
    }
    report.attempted = requests.len() as u64;
    report.failed += requests.iter().filter(|r| !r.ok).count() as u64;

    report.e2e("setup_s", median(&setup_s), "s", setup_s.len());
    for (b, name) in ["memory_mine_ms", "engine_mine_ms", "sql_mine_ms"]
        .iter()
        .enumerate()
    {
        report.e2e(
            name,
            by_backend[b].median().unwrap_or(f64::INFINITY),
            "ms",
            by_backend[b].len(),
        );
        report.line(format!(
            "{name} (miss requests) quartiles: {}",
            by_backend[b].quartiles()
        ));
    }
    let completed = requests.iter().filter(|r| r.ok).count();
    // Requests per second at the median cycle: each of the clients
    // completes four requests per cycle. A median, so a burst of host
    // slowness in part of the run moves it no more than the latencies.
    let per_cycle = 4.0 * CLIENTS as f64;
    report.e2e(
        "ops_per_s",
        per_cycle * 1e3 / median(&cycles_ms),
        "1/s",
        cycles_ms.len(),
    );
    report.e2e("peak_rss_mb", peak_rss, "MB", 1);
    for (class, samples) in &by_class {
        let name = class.name();
        let n = samples.len();
        report.line(format!(
            "{name}_p50_ms = {} ms (n={n})",
            samples.median().unwrap_or(f64::NAN)
        ));
        match (class, samples.p90()) {
            (Class::Append, _) => {
                if let Some((p, v)) = samples.tail() {
                    report.line(format!(
                        "append tail p{} = {v} ms (n={n}, printed, not named)",
                        p * 100.0
                    ));
                }
            }
            (_, Some(v)) => report.line(format!("{name}_p90_ms = {v} ms (n={n})")),
            (_, None) => report.line(format!("{name}_p90_ms: not reported, {n} < 100 samples")),
        }
    }
    report.line(format!(
        "serve_rps = {} 1/s (n={completed}, wall {wall:.3} s)",
        completed as f64 / wall
    ));
    let routes: BTreeSet<(&str, &str)> = requests
        .iter()
        .filter(|r| r.class != Class::Append)
        .map(|r| (r.class.name(), r.served_via.as_str()))
        .collect();
    let count = |class: &str, via: &str| {
        requests
            .iter()
            .filter(|r| r.class.name() == class && r.served_via == via)
            .count()
    };
    let routes: Vec<String> = routes
        .iter()
        .map(|(c, v)| format!("{c} via {v}: {}", count(c, v)))
        .collect();
    report.line(format!("routes: {}", routes.join(", ")));

    // Traced: per-layer metrics.
    if crate::traced() {
        report.layer("datagen.gen_ms", median(&gen_ms), "ms", gen_ms.len());
        if let Some(stats) = &stats {
            report_serve_layers(&mut report, &requests, stats, lines_answered);
        }
        let miners: [Miner; 3] = [0, 1, 2].map(|b| {
            Miner::new(hit_params())
                .backend(backend(b))
                .threads(THREADS)
        });
        // Client 0's first batch, moved past the population's trans_ids so
        // it can be appended to the base.
        let batch = Dataset::from_transactions(
            fixture.batches[0][0]
                .iter()
                .map(|(t, items)| (t + BATCH_TID_OFFSET, items.as_slice())),
        );
        match layers::traced_mines(spans, &fixture.base, &miners, 3, 1 << 40) {
            Ok((times, outcomes)) => {
                layers::report_iterations(&mut report, &times);
                let itemsets = outcomes[0].frequent_itemsets();
                if outcomes
                    .iter()
                    .any(|o| o.frequent_itemsets() != itemsets || o.rules != outcomes[0].rules)
                {
                    report.problem("backends disagree on the base dataset");
                }
                let rules_ms = layers::report_data_layers(
                    &mut report,
                    &fixture.base,
                    &hit_params(),
                    THREADS,
                    &outcomes,
                    &batch,
                );
                layers::report_phase_sum(&mut report, &times, rules_ms);
            }
            Err(e) => report.problem(format!("traced probe mine failed: {e}")),
        }
    }

    // Verification, after the clock and the peak-RSS reading.
    let base = &fixture.base;
    let expected: BTreeSet<Expect> = requests.iter().map(|r| r.expect).collect();
    let mut versions: Vec<BTreeMap<u64, Dataset>> = vec![BTreeMap::new(); CLIENTS];
    for (c, mutable) in fixture.mutable.iter().enumerate() {
        let top = expected
            .iter()
            .filter_map(|e| match e {
                Expect::Delta(cc, v) if *cc == c => Some(*v),
                _ => None,
            })
            .max()
            .unwrap_or(1);
        let mut current = mutable.clone();
        for v in 2..=top {
            let batch = &fixture.batches[c][v as usize - 2];
            let delta = Dataset::from_transactions(batch.iter().map(|(t, i)| (*t, i.as_slice())));
            current = concat_datasets(&current, &delta);
            versions[c].insert(v, current.clone());
        }
    }
    let versions = &versions;
    let mut jobs: Vec<RefJob<'_>> = Vec::new();
    for key in expected {
        match key {
            Expect::Hit(b) => jobs.push((
                key,
                Box::new(move || hit_miner(b).run(base).map_err(|e| e.to_string())),
            )),
            Expect::Miss(b, count) => jobs.push((
                key,
                Box::new(move || miss_miner(b, count).run(base).map_err(|e| e.to_string())),
            )),
            Expect::Delta(c, v) => jobs.push((
                key,
                Box::new(move || {
                    let d = versions[c].get(&v).ok_or("missing version")?;
                    delta_miner().run(d).map_err(|e| e.to_string())
                }),
            )),
            Expect::Version(_) => {}
        }
    }
    match references(jobs) {
        Ok(refs) => {
            for w in verify(&requests, &refs) {
                report.problem(w);
            }
        }
        Err(e) => report.problem(e),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_counts_are_distinct_and_interleaved() {
        let counts: Vec<u64> = (0..600).map(miss_count).collect();
        let distinct: BTreeSet<u64> = counts.iter().copied().collect();
        assert_eq!(distinct.len(), counts.len());
        assert!(counts[..MISS_BAND as usize]
            .iter()
            .all(|&c| (MISS_BASE..MISS_BASE + MISS_BAND).contains(&c)));
        // The first few misses already span most of the band.
        let first: Vec<u64> = counts[..8].to_vec();
        assert!(first.iter().max().unwrap() - first.iter().min().unwrap() > MISS_BAND / 2);
    }

    #[test]
    fn server_offsets_read_planned_and_serialized() {
        let spans = |labels: &[(&str, f64)]| -> Vec<(String, f64)> {
            labels.iter().map(|(l, t)| (l.to_string(), *t)).collect()
        };
        let full = spans(&[
            ("queued", 0.0),
            ("planned", 0.1),
            ("iteration 1", 2.0),
            ("serialized", 5.0),
        ]);
        assert_eq!(server_offsets(&full), Some((0.1, 5.0)));
        let hit = spans(&[("queued", 0.0), ("served_from_cache", 0.02)]);
        assert_eq!(server_offsets(&hit), Some((0.0, 0.02)));
        assert_eq!(server_offsets(&spans(&[("queued", 0.0)])), None);
    }
}
