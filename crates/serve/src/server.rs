//! The TCP server: accept loop, per-connection protocol handling, and
//! the graceful-drain shutdown path.
//!
//! Each accepted connection gets its own handler thread that reads
//! newline-delimited JSON requests and writes response lines (see
//! [`crate::protocol`]). Mining work never runs on connection threads:
//! `mine` requests are submitted to the shared [`Scheduler`], so the
//! worker-pool bound caps mining concurrency no matter how many clients
//! connect, and a full queue surfaces to the client as the protocol's
//! `queue_full` (429-style) rejection. The handler threads themselves
//! are bounded too ([`ServeConfig::max_connections`]): past the cap a
//! connection is answered with `too_many_connections` and closed
//! without spawning anything. A per-connection token bucket
//! ([`ServeConfig::max_requests_per_sec`]) additionally meters request
//! *lines*: past the budget the line is answered `rate_limited` (429)
//! without being parsed, and the connection stays open for a retry.
//!
//! # Serving routes
//!
//! Every mine response reports how it was produced (`served_via`):
//!
//! * **`cache`** — the outcome cache holds the bytes of an earlier
//!   response to the same canonical request key
//!   (`dataset@version` + full miner configuration); they are replayed
//!   verbatim, no mining runs.
//! * **`delta`** — the dataset version moved since a frontier entry was
//!   stored for these parameters; the entry's frontier absorbs the
//!   appended batches in time proportional to the deltas
//!   ([`setm_incremental::MiningFrontier::apply_delta`], which runs the
//!   shared Figure 4 driver with the frontier's operators) and yields an
//!   outcome byte-identical to a from-scratch run. A captured entry
//!   already at the requested version answers with an empty append,
//!   which re-plans for the request's `threads`. Memory backend only —
//!   the paged engine and SQL backends report *measured* I/O that an
//!   incremental shortcut could not honestly reproduce.
//! * **`full`** — a from-scratch run through the shared Figure 4 driver
//!   on every backend ([`Miner::run`] with the job's sink, so every
//!   iteration lands in the span log). It captures no frontier.
//!
//! A frontier entry holds a version, the snapshot of that version, and
//! a frontier that is captured only when needed. A memory full mine
//! without constraints stores an entry with no frontier.
//! The first replay from an older version captures the frontier on the
//! entry's snapshot ([`setm_incremental::MiningFrontier::bootstrap`]),
//! applies every step, and stores the frontier it reached. So only a key
//! that is appended to and mined again pays for a capture, once; a
//! one-shot miss costs one dense mine. An entry without a frontier at
//! the requested version is a miss.
//!
//! Both stores are bounded and evict their **least recently used** key
//! (`Lru`): the outcome cache at `CACHE_CAPACITY` request keys, the
//! frontier store at `FRONTIER_CAPACITY` `(dataset, params)` entries. A
//! hit counts as a use, so the keys that keep being asked for — warm
//! request keys, the frontier a mutable dataset replays after every
//! append — outlast any number of one-shot requests passing through.
//! Each frontier entry holds its snapshot, so the registry's weak
//! reference to that version stays live and a one-step replay never
//! rebuilds its base.
//!
//! # Sockets
//!
//! Every accepted stream (and every [`crate::client::Client`]) sets
//! `TCP_NODELAY`. Each response line is one write, and a mine's outcome
//! line follows its `accepted` line while the client has nothing to send
//! back: under Nagle's algorithm that second write would wait for the
//! client's delayed ACK, adding about 40 ms to every reply whose job
//! finishes sooner. `accepted` is still written before the handler
//! blocks on the job, so cancel-by-id from another connection works as
//! before.
//!
//! Shutdown is a protocol verb. On `{"op":"shutdown"}` the server
//! replies with the number of still-pending jobs, stops accepting
//! connections and submissions, lets every queued and running job finish
//! (their clients receive their outcomes), and then returns from
//! [`Server::run`].

use crate::json::{self, Json};
use crate::protocol::{self, codes, MineRequest, Request};
use crate::registry::{Registry, RegistryError};
use crate::scheduler::{JobResult, MineJob, Scheduler, SchedulerMetrics, SubmitError};
use setm_core::{Backend, Dataset, Miner};
use setm_incremental::MiningFrontier;
use setm_obs::{Counter, Gauge, MetricValue, MetricsRegistry, ObsEvent, ObsSink, SpanLog};
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; use port 0 to bind an ephemeral port (tests).
    pub addr: String,
    /// Mining worker threads (0 = the machine's available parallelism).
    pub workers: usize,
    /// Pending-job queue bound; beyond it submissions get `queue_full`.
    pub queue_capacity: usize,
    /// Concurrent connection bound. Each connection gets a handler
    /// thread; beyond this many the client is told
    /// `too_many_connections` (429-style) and the socket closes, so idle
    /// or slow clients cannot exhaust threads the way unbounded
    /// accept-and-spawn would. Must be ≥ 1 ([`Server::bind`] clamps 0 up
    /// to 1 — a server that admits nothing could never even receive the
    /// `shutdown` verb).
    pub max_connections: usize,
    /// Per-connection request budget in lines per second (token bucket
    /// with a one-second burst). 0 disables rate limiting. Over-budget
    /// lines are answered `rate_limited` (429) and *not* processed; the
    /// connection stays open.
    pub max_requests_per_sec: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 32,
            max_connections: 256,
            max_requests_per_sec: 0,
        }
    }
}

/// A request payload longer than this (line terminator excluded — a
/// request of *exactly* this many bytes is valid) is rejected as
/// `bad_request` and the connection closed; the protocol's requests are
/// small (`register-dataset` batches being the largest), only
/// *responses* carry bulk data. Enforced *during* the read (the reader
/// never buffers more than this plus the two bytes a `\r\n` terminator
/// needs), so a newline-less stream cannot grow server memory.
const MAX_REQUEST_LINE: usize = 1 << 20;

/// Outcome-cache bound: responses to this many distinct canonical
/// request keys are kept, least-recently-used evicted beyond it.
const CACHE_CAPACITY: usize = 1024;

/// Frontier-store bound: at most this many `(dataset, params)` frontier
/// snapshots are retained for the delta route, least-recently-used
/// evicted beyond it.
const FRONTIER_CAPACITY: usize = 64;

/// A bounded map that evicts its least recently used key. Both `get` and
/// `insert` count as a use, so a key that keeps being asked for stays
/// however many one-shot keys pass through.
struct Lru<K, V> {
    capacity: usize,
    /// Use counter; the stamp of a key's latest use.
    clock: u64,
    map: HashMap<K, (u64, V)>,
    /// Stamp → key, oldest use first.
    order: BTreeMap<u64, K>,
}

impl<K: Clone + Eq + Hash, V: Clone> Lru<K, V> {
    fn new(capacity: usize) -> Lru<K, V> {
        Lru { capacity, clock: 0, map: HashMap::new(), order: BTreeMap::new() }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        let (stamp, value) = self.map.get_mut(key)?;
        self.order.remove(stamp);
        self.clock += 1;
        *stamp = self.clock;
        self.order.insert(self.clock, key.clone());
        Some(value.clone())
    }

    fn insert(&mut self, key: K, value: V) {
        if let Some((stamp, _)) = self.map.remove(&key) {
            self.order.remove(&stamp);
        } else if self.map.len() >= self.capacity {
            if let Some((_, oldest)) = self.order.pop_first() {
                self.map.remove(&oldest);
            }
        }
        self.clock += 1;
        self.order.insert(self.clock, key.clone());
        self.map.insert(key, (self.clock, value));
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// The cached response bytes per canonical request key, replayed
/// verbatim on a hit.
type OutcomeCache = Lru<String, Json>;

/// Frontier snapshots are keyed by dataset *name* (not version — the
/// entry records which version it was captured at) plus a fingerprint of
/// the mining parameters. Threads and backend are deliberately excluded:
/// the frontier is thread-count-independent (plans are re-derived per
/// request) and memory-backend-only.
type FrontierKey = (String, String);

#[derive(Clone)]
struct FrontierEntry {
    version: u64,
    /// The snapshot of `version`. An uncaptured entry captures its
    /// frontier on it; either way it stays alive while the entry does
    /// (the registry holds superseded versions weakly), so a replay from
    /// `version` finds its first base without a rebuild.
    snapshot: Arc<Dataset>,
    /// The frontier at `version`, or `None` until a replay captures it.
    frontier: Option<Arc<MiningFrontier>>,
}

type FrontierStore = Arc<Mutex<Lru<FrontierKey, FrontierEntry>>>;

/// Keep `entry` unless the store already holds a newer snapshot for the
/// same key, or a captured frontier at the same version that an
/// uncaptured `entry` would drop.
fn store_frontier(store: &FrontierStore, key: FrontierKey, entry: FrontierEntry) {
    let mut lru = store.lock().expect("frontier lock");
    if lru.get(&key).is_some_and(|e| {
        e.version > entry.version
            || (e.version == entry.version && e.frontier.is_some() && entry.frontier.is_none())
    }) {
        return;
    }
    lru.insert(key, entry);
}

fn params_fingerprint(miner: &Miner) -> String {
    // Debug form of the params is stable and canonical enough for an
    // internal key (never on the wire). Constraints are part of the key
    // even though constrained requests store no entry today — a stored
    // frontier must never answer a differently-constrained request.
    format!("{:?}|constraints={:?}", miner.params(), miner.configured_constraints())
}

/// Span-ring bound: the `trace` verb can look up this many recent jobs.
const SPAN_LOG_CAPACITY: usize = 256;

/// The server's instruments: one [`MetricsRegistry`] every subsystem
/// registers into (the `metrics` verb renders it; `status` reads the
/// same cells, so the two views can never disagree), pre-created handles
/// for the hot paths, and the per-job span ring behind the `trace` verb.
struct Telemetry {
    registry: MetricsRegistry,
    // Serving-route counters (previously bare atomics on `Shared`).
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    served_delta: Arc<Counter>,
    served_full: Arc<Counter>,
    rate_limited: Arc<Counter>,
    // Connection-layer traffic.
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    conn_open: Arc<Gauge>,
    // Buffer-cache hits, aggregated from engine-backed runs' traces.
    pool_cache_hits: Arc<Counter>,
    // Registry and frontier occupancy, sampled at render time.
    registry_datasets: Arc<Gauge>,
    registry_datasets_loaded: Arc<Gauge>,
    /// Frontier-store entries, captured or not.
    frontier_entries: Arc<Gauge>,
    /// Per-job timed phase log (queued → planned → iteration k → …).
    spans: Arc<SpanLog>,
}

impl Telemetry {
    fn new() -> Telemetry {
        let registry = MetricsRegistry::new();
        Telemetry {
            cache_hits: registry.counter("setm_cache_hits_total"),
            cache_misses: registry.counter("setm_cache_misses_total"),
            served_delta: registry.counter("setm_served_delta_total"),
            served_full: registry.counter("setm_served_full_total"),
            rate_limited: registry.counter("setm_conn_rate_limited_total"),
            bytes_in: registry.counter("setm_conn_bytes_in_total"),
            bytes_out: registry.counter("setm_conn_bytes_out_total"),
            conn_open: registry.gauge("setm_conn_open"),
            pool_cache_hits: registry.counter("setm_pool_cache_hits_total"),
            registry_datasets: registry.gauge("setm_registry_datasets"),
            registry_datasets_loaded: registry.gauge("setm_registry_datasets_loaded"),
            frontier_entries: registry.gauge("setm_frontier_entries"),
            spans: Arc::new(SpanLog::new(SPAN_LOG_CAPACITY)),
            registry,
        }
    }
}

/// The per-job telemetry sink the server installs on the miner it
/// schedules: records per-iteration spans, aggregates cache hits into the
/// shared registry, and (for `progress: true` requests) tees every
/// event into the channel the connection thread streams from.
struct JobSink {
    job: u64,
    spans: Arc<SpanLog>,
    pool_cache_hits: Arc<Counter>,
    /// `mpsc::Sender` is not `Sync`; the mutex makes the sink shareable
    /// across mining shards. The *miner* is the only holder of this
    /// sink, so when the worker finishes the run (or a queued cancel
    /// drops the job closure) the sender dies with it — that disconnect
    /// is what terminates the client's progress stream.
    tx: Option<Mutex<mpsc::Sender<ObsEvent>>>,
}

impl ObsSink for JobSink {
    fn on_event(&self, event: &ObsEvent) {
        if let ObsEvent::Iteration(s) = event {
            self.spans.record(self.job, &format!("iteration {}", s.k));
            self.pool_cache_hits.add(s.cache_hits);
        }
        if let Some(tx) = &self.tx {
            // A gone receiver (client disconnected mid-stream) is fine;
            // the run itself never fails over telemetry.
            let _ = tx.lock().expect("progress sender lock").send(event.clone());
        }
    }
}

struct Shared {
    registry: Registry,
    scheduler: Scheduler,
    shutdown: AtomicBool,
    addr: SocketAddr,
    workers: usize,
    max_connections: usize,
    connections: AtomicUsize,
    max_requests_per_sec: u64,
    cache: Mutex<OutcomeCache>,
    frontiers: FrontierStore,
    telemetry: Telemetry,
}

/// RAII admission token for one connection-handler thread: acquired on
/// the accept loop before spawning, released on drop — so a handler
/// that returns early or panics still frees its slot.
struct ConnectionSlot {
    shared: Arc<Shared>,
}

impl ConnectionSlot {
    /// Claim a slot, or hand the `Arc` back if the server is full.
    fn acquire(shared: Arc<Shared>) -> Result<ConnectionSlot, Arc<Shared>> {
        if shared.connections.fetch_add(1, Ordering::SeqCst) >= shared.max_connections {
            shared.connections.fetch_sub(1, Ordering::SeqCst);
            return Err(shared);
        }
        Ok(ConnectionSlot { shared })
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.shared.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The per-connection token bucket: refills continuously at the
/// configured rate, holds at most one second's budget (the burst).
struct TokenBucket {
    rate: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// `None` when rate limiting is off.
    fn new(max_requests_per_sec: u64) -> Option<TokenBucket> {
        (max_requests_per_sec > 0).then(|| TokenBucket {
            rate: max_requests_per_sec as f64,
            tokens: max_requests_per_sec as f64,
            last: Instant::now(),
        })
    }

    /// Spend one token if the budget allows.
    fn admit(&mut self) -> bool {
        let now = Instant::now();
        let refill = now.duration_since(self.last).as_secs_f64() * self.rate;
        self.tokens = (self.tokens + refill).min(self.rate);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// A bound, not-yet-running mining server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listen socket and start the worker pool.
    pub fn bind(config: ServeConfig, registry: Registry) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            config.workers
        };
        let telemetry = Telemetry::new();
        let scheduler = Scheduler::with_metrics(
            workers,
            config.queue_capacity,
            SchedulerMetrics::registered(&telemetry.registry),
        );
        let shared = Arc::new(Shared {
            registry,
            scheduler,
            shutdown: AtomicBool::new(false),
            addr,
            workers,
            max_connections: config.max_connections.max(1),
            connections: AtomicUsize::new(0),
            max_requests_per_sec: config.max_requests_per_sec,
            cache: Mutex::new(Lru::new(CACHE_CAPACITY)),
            frontiers: Arc::new(Mutex::new(Lru::new(FRONTIER_CAPACITY))),
            telemetry,
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Serve until a client sends the `shutdown` verb, then drain and
    /// return. Connection handlers run on their own threads; mining runs
    /// on the scheduler's worker pool.
    pub fn run(self) {
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            let slot = match ConnectionSlot::acquire(Arc::clone(&self.shared)) {
                Ok(slot) => slot,
                Err(shared) => {
                    // Over the connection bound: a typed rejection, then
                    // close — the accept loop never spawns past the cap.
                    let _ = write_line(
                        &mut stream,
                        &protocol::error_response(
                            codes::TOO_MANY_CONNECTIONS,
                            &format!(
                                "server is at its connection limit ({}); retry later",
                                shared.max_connections
                            ),
                            None,
                        ),
                    );
                    continue;
                }
            };
            std::thread::spawn(move || handle_connection(stream, &slot.shared));
        }
        // Graceful drain: every queued and running job completes and its
        // waiting client receives the outcome before we return.
        self.shared.scheduler.drain();
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    // Why NODELAY: see *Sockets* in the module docs. A socket that
    // refuses the option still serves, only slower.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let mut writer = write_half;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut bucket = TokenBucket::new(shared.max_requests_per_sec);
    loop {
        line.clear();
        // Cap the read itself, not just the parsed length: `take` stops
        // buffering at the limit even if no newline ever arrives. The
        // two extra bytes leave room for the `\r\n` of a request of
        // exactly MAX_REQUEST_LINE payload bytes.
        match (&mut reader).take(MAX_REQUEST_LINE as u64 + 2).read_line(&mut line) {
            Ok(0) => return, // clean disconnect
            Ok(n) => shared.telemetry.bytes_in.add(n as u64),
            Err(_) => {
                // Unreadable bytes: non-UTF-8 input, or the cap above
                // truncated a multi-byte character mid-sequence. Say so
                // before closing instead of silently dropping the
                // connection (if the peer is already gone the write
                // fails harmlessly).
                let _ = write_line(
                    &mut writer,
                    &protocol::error_response(
                        codes::BAD_REQUEST,
                        "request line is not valid UTF-8 or the connection broke mid-line",
                        None,
                    ),
                );
                return;
            }
        }
        // The limit applies to the payload, line terminator excluded —
        // a request of exactly MAX_REQUEST_LINE bytes is within bounds.
        // Strip at most one `\n` (plus a preceding `\r`): payload bytes
        // that merely *end* in CRs still count, so a cap-truncated
        // over-long line cannot slip under the check by landing on them.
        let payload = line.strip_suffix('\n').unwrap_or(&line);
        let payload = payload.strip_suffix('\r').unwrap_or(payload);
        if payload.len() > MAX_REQUEST_LINE {
            let _ = write_line(
                &mut writer,
                &protocol::error_response(
                    codes::BAD_REQUEST,
                    &format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
                    None,
                ),
            );
            return; // the rest of the over-long line is unrecoverable
        }
        if line.trim().is_empty() {
            continue;
        }
        // The rate limit meters request lines *before* they are parsed
        // or scheduled; an over-budget line costs the server nothing but
        // this rejection, and the connection stays open for a retry.
        if let Some(bucket) = &mut bucket {
            if !bucket.admit() {
                shared.telemetry.rate_limited.inc();
                if write_line(
                    &mut writer,
                    &protocol::error_response(
                        codes::RATE_LIMITED,
                        &format!(
                            "request budget of {}/s exceeded on this connection; retry after a pause",
                            shared.max_requests_per_sec
                        ),
                        None,
                    ),
                )
                .is_err()
                {
                    return;
                }
                continue;
            }
        }
        // Responses are emitted as soon as they are ready: a mine
        // request's `accepted` line is flushed *before* the handler
        // blocks on the job, so the client can learn the id early
        // enough to cancel from another connection.
        let mut emit = |response: &Json| {
            let n = write_line(&mut writer, response)?;
            shared.telemetry.bytes_out.add(n as u64);
            Ok(())
        };
        if handle_line(&line, shared, &mut emit).is_err() {
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            // The shutdown verb was handled (possibly on this very
            // connection); stop reading so the handler thread winds down.
            return;
        }
    }
}

/// Write one response line in a single `write_all` (with NODELAY on, one
/// line is one send); returns the bytes written so the caller can
/// account them.
fn write_line(writer: &mut TcpStream, response: &Json) -> std::io::Result<usize> {
    let mut text = response.to_string();
    text.push('\n');
    writer.write_all(text.as_bytes())?;
    writer.flush()?;
    Ok(text.len())
}

/// Writes one response line; `Err` means the connection is gone.
type Emit<'a> = &'a mut dyn FnMut(&Json) -> std::io::Result<()>;

/// Handle one request line, emitting its response line(s) as they become
/// ready.
fn handle_line(line: &str, shared: &Arc<Shared>, emit: Emit<'_>) -> std::io::Result<()> {
    let parsed = match json::parse(line.trim()) {
        Ok(v) => v,
        Err(e) => {
            return emit(&protocol::error_response(codes::BAD_REQUEST, &e.to_string(), None));
        }
    };
    let request = match protocol::parse_request(&parsed) {
        Ok(r) => r,
        Err(message) => {
            return emit(&protocol::error_response(codes::BAD_REQUEST, &message, None));
        }
    };
    match request {
        Request::Mine(req) => handle_mine(req, shared, emit),
        Request::RegisterDataset { name, transactions } => {
            emit(&register_response(&name, &transactions, shared))
        }
        Request::AppendBatch { name, transactions } => {
            emit(&append_response(&name, &transactions, shared))
        }
        Request::ListDatasets => emit(&list_datasets_response(shared)),
        Request::Status => emit(&status_response(shared)),
        Request::Metrics { text } => emit(&metrics_response(shared, text)),
        Request::Trace { job } => emit(&trace_response(job, shared)),
        Request::Cancel { job } => emit(&cancel_response(job, shared)),
        Request::Shutdown => {
            // Flush the confirmation line *before* waking the accept
            // loop: the wake-up lets `run` return and the process exit,
            // and that must not race ahead of the client's reply.
            let result = emit(&shutdown_response(shared));
            finish_shutdown(shared);
            result
        }
    }
}

/// Map a registry failure to its wire error.
fn registry_error_response(e: &RegistryError) -> Json {
    let code = match e {
        RegistryError::UnknownDataset(_) | RegistryError::UnknownVersion { .. } => {
            codes::UNKNOWN_DATASET
        }
        RegistryError::Load { .. } => codes::DATASET_LOAD,
        RegistryError::BadSpec(_)
        | RegistryError::AlreadyRegistered(_)
        | RegistryError::OverlappingTransIds { .. } => codes::BAD_REQUEST,
    };
    protocol::error_response(code, &e.to_string(), None)
}

fn dataset_from_transactions(transactions: &[(u32, Vec<u32>)]) -> Dataset {
    Dataset::from_transactions(transactions.iter().map(|(tid, items)| (*tid, items.as_slice())))
}

fn register_response(name: &str, transactions: &[(u32, Vec<u32>)], shared: &Shared) -> Json {
    let dataset = dataset_from_transactions(transactions);
    let n_transactions = dataset.n_transactions();
    match shared.registry.register_runtime(name, "registered over the wire", dataset) {
        Ok(version) => Json::obj([
            ("ok", Json::Bool(true)),
            ("event", Json::str("registered")),
            ("name", Json::str(name)),
            ("version", Json::u64(version)),
            ("n_transactions", Json::u64(n_transactions)),
        ]),
        Err(e) => registry_error_response(&e),
    }
}

fn append_response(name: &str, transactions: &[(u32, Vec<u32>)], shared: &Shared) -> Json {
    let batch = dataset_from_transactions(transactions);
    match shared.registry.append_batch(name, batch) {
        Ok(appended) => Json::obj([
            ("ok", Json::Bool(true)),
            ("event", Json::str("appended")),
            ("name", Json::str(name)),
            ("version", Json::u64(appended.version)),
            ("n_transactions", Json::u64(appended.snapshot.n_transactions())),
        ]),
        Err(e) => registry_error_response(&e),
    }
}

/// The outcome response line. `served_via` is additive (a trailing
/// sibling of `outcome`), so the outcome object's bytes stay exactly
/// what pre-incremental clients pinned.
fn outcome_line(job: u64, outcome: Json, served_via: &str) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("event", Json::str("outcome")),
        ("job", Json::u64(job)),
        ("outcome", outcome),
        ("served_via", Json::str(served_via)),
    ])
}

fn handle_mine(req: MineRequest, shared: &Arc<Shared>, emit: Emit<'_>) -> std::io::Result<()> {
    let resolved = match shared.registry.resolve(&req.dataset) {
        Ok(r) => r,
        Err(e) => return emit(&registry_error_response(&e)),
    };
    // Validate before queueing: a malformed job should cost a worker
    // nothing and fail fast for the client.
    if let Err(e) = req.miner.validate() {
        return emit(&protocol::error_response(
            protocol::setm_error_code(&e),
            &e.to_string(),
            None,
        ));
    }
    let accepted_line = |job: u64| {
        Json::obj([
            ("ok", Json::Bool(true)),
            ("event", Json::str("accepted")),
            ("job", Json::u64(job)),
            ("dataset", Json::str(&req.dataset)),
            ("backend", Json::str(req.miner.configured_backend().name())),
            ("threads", Json::u64(req.miner.configured_threads() as u64)),
        ])
    };
    // The canonical cache key: the request's own wire form with the
    // dataset pinned to the version it resolved to. Canonical JSON
    // (sorted construction, fixed member order) makes equal requests
    // equal strings. `progress` is pinned to false in the key: streaming
    // is presentation, the outcome bytes are identical either way, so
    // both request flavors share one cache entry.
    let cache_key = MineRequest {
        dataset: resolved.versioned_name(),
        miner: req.miner.clone(),
        progress: false,
    }
    .to_json()
    .to_string();
    let telemetry = &shared.telemetry;
    // A progress request promises one event stream per iteration, so it
    // bypasses the cache *read* (replays run nothing and stream nothing);
    // its outcome still lands in the cache for later non-streaming hits.
    // The hit/miss counters meter cache-eligible requests only.
    if !req.progress {
        if let Some(outcome) = shared.cache.lock().expect("cache lock").get(&cache_key) {
            telemetry.cache_hits.inc();
            let job = shared.scheduler.allocate_job_id();
            telemetry.spans.begin(job);
            telemetry.spans.record(job, "queued");
            telemetry.spans.record(job, "served_from_cache");
            emit(&accepted_line(job))?;
            return emit(&outcome_line(job, outcome, "cache"));
        }
        telemetry.cache_misses.inc();
    }

    // Route: a stored entry for (dataset, params) at an older version, or
    // a captured one at this version, serves via delta replay; otherwise
    // a full run, which leaves an uncaptured entry for a later replay.
    // Progress requests force the observed full route: a delta replay
    // does not iterate, so it would have nothing to stream.
    let threads = req.miner.configured_threads();
    // Constrained requests always take the full route and store nothing:
    // the frontier replays unconstrained counting, so serving one from it
    // would leak unpruned candidates (and wrong rules) into a constrained
    // answer.
    let frontier_eligible = matches!(req.miner.configured_backend(), Backend::Memory)
        && req.miner.configured_constraints().is_empty();
    let frontier_key = (resolved.name.clone(), params_fingerprint(&req.miner));
    let replay = if frontier_eligible && !req.progress {
        let entry = shared.frontiers.lock().expect("frontier lock").get(&frontier_key);
        // Capturing on this very version would cost more than the dense
        // mine it replaces, so an uncaptured entry here is a miss.
        entry
            .filter(|e| {
                e.version < resolved.version
                    || (e.version == resolved.version && e.frontier.is_some())
            })
            .and_then(|e| {
                shared
                    .registry
                    .deltas_between(&resolved.name, e.version, resolved.version)
                    .ok()
                    .map(|steps| (e, steps))
            })
    } else {
        None
    };
    // The job id is allocated *before* submission (`submit_as` queues
    // under it) so the span log and the streamed progress lines carry
    // the same id the client sees on the `accepted` line.
    let job_id = shared.scheduler.allocate_job_id();
    telemetry.spans.begin(job_id);
    telemetry.spans.record(job_id, "queued");
    let mut progress_rx = None;
    let (served_via, job) = match replay {
        Some((entry, steps)) => {
            let frontiers = Arc::clone(&shared.frontiers);
            let key = frontier_key;
            let version = resolved.version;
            let snapshot = Arc::clone(&resolved.dataset);
            let params = *req.miner.params();
            let work = move || {
                // The first replay of an entry a full mine left captures
                // its frontier now, on the snapshot that mine ran on.
                let mut frontier = match entry.frontier {
                    Some(frontier) => frontier,
                    None => {
                        let (_, captured) =
                            MiningFrontier::bootstrap(&entry.snapshot, &params, threads)?;
                        Arc::new(captured)
                    }
                };
                let mut last = None;
                for (base, delta) in steps {
                    let (outcome, next) = frontier.apply_delta(&base, &delta, threads)?;
                    frontier = Arc::new(next);
                    last = Some(outcome);
                }
                let outcome = match last {
                    Some(outcome) => outcome,
                    // Zero steps: the frontier already sits at the
                    // requested version; appending nothing re-derives its
                    // outcome for these threads.
                    None => {
                        let empty = Dataset::from_pairs(std::iter::empty());
                        frontier.apply_delta(&entry.snapshot, &empty, threads)?.0
                    }
                };
                let entry = FrontierEntry { version, snapshot, frontier: Some(frontier) };
                store_frontier(&frontiers, key, entry);
                Ok(outcome)
            };
            ("delta", MineJob::from_work(work))
        }
        None => {
            let tx = req.progress.then(|| {
                let (tx, rx) = mpsc::channel();
                progress_rx = Some(rx);
                Mutex::new(tx)
            });
            let sink = Arc::new(JobSink {
                job: job_id,
                spans: Arc::clone(&telemetry.spans),
                pool_cache_hits: Arc::clone(&telemetry.pool_cache_hits),
                tx,
            });
            // The miner is the sink's only holder: the connection thread
            // keeps no clone, so the progress sender dies exactly when
            // the run finishes or a queued cancel drops the closure.
            let miner = req.miner.clone().observer(sink);
            let dataset = Arc::clone(&resolved.dataset);
            let store = frontier_eligible
                .then(|| (Arc::clone(&shared.frontiers), frontier_key, resolved.version));
            let work = move || {
                let outcome = miner.run(&dataset)?;
                if let Some((frontiers, key, version)) = store {
                    let entry = FrontierEntry { version, snapshot: dataset, frontier: None };
                    store_frontier(&frontiers, key, entry);
                }
                Ok(outcome)
            };
            ("full", MineJob::from_work(work))
        }
    };
    telemetry.spans.record(job_id, "planned");
    let ticket = match shared.scheduler.submit_as(job_id, job) {
        Ok(t) => t,
        Err(e @ SubmitError::QueueFull { .. }) => {
            return emit(&protocol::error_response(codes::QUEUE_FULL, &e.to_string(), None));
        }
        Err(e @ SubmitError::ShuttingDown) => {
            return emit(&protocol::error_response(codes::SHUTTING_DOWN, &e.to_string(), None));
        }
    };
    let job = ticket.job;
    // Flush the accepted line *before* blocking on the job, so another
    // connection can cancel it by id while it is still queued.
    emit(&accepted_line(job))?;
    // Stream progress lines as the worker produces events. The loop ends
    // when the sink's sender drops — run finished (either way) or the
    // queued job was cancelled and its closure dropped — so cancellation
    // closes the stream cleanly before the error line below.
    if let Some(rx) = progress_rx {
        for event in rx.iter() {
            emit(&protocol::progress_event_to_json(job, &event))?;
        }
    }
    // Block this connection thread (not a worker) until the job resolves.
    let response = match ticket.wait() {
        JobResult::Finished(Ok(outcome)) => {
            telemetry.spans.record(job, "serialized");
            let outcome = protocol::outcome_to_json(&outcome);
            shared.cache.lock().expect("cache lock").insert(cache_key, outcome.clone());
            match served_via {
                "delta" => telemetry.served_delta.inc(),
                _ => telemetry.served_full.inc(),
            };
            outcome_line(job, outcome, served_via)
        }
        JobResult::Finished(Err(e)) => {
            telemetry.spans.record(job, "failed");
            dump_spans(telemetry, job, &e.to_string());
            protocol::error_response(protocol::setm_error_code(&e), &e.to_string(), Some(job))
        }
        JobResult::Cancelled => {
            telemetry.spans.record(job, "cancelled");
            protocol::error_response(codes::CANCELLED, "job was cancelled before it ran", Some(job))
        }
        JobResult::Panicked => {
            telemetry.spans.record(job, "panicked");
            dump_spans(telemetry, job, "panic");
            protocol::error_response(
                codes::INTERNAL,
                "the mining run panicked (this is a server bug)",
                Some(job),
            )
        }
    };
    emit(&response)
}

/// On job failure the recorded spans go to stderr: the client gets the
/// typed error line, the operator gets the timeline that led to it.
fn dump_spans(telemetry: &Telemetry, job: u64, reason: &str) {
    if let Some(events) = telemetry.spans.get(job) {
        let timeline: Vec<String> =
            events.iter().map(|e| format!("{} @{:.1}ms", e.label, e.at_ms)).collect();
        eprintln!("[setm-serve] job {job} failed ({reason}): {}", timeline.join(" -> "));
    }
}

fn list_datasets_response(shared: &Shared) -> Json {
    let datasets = shared
        .registry
        .list()
        .into_iter()
        .map(|info| {
            let mut members = vec![
                ("name".to_string(), Json::str(info.name)),
                ("description".to_string(), Json::str(info.description)),
                ("version".to_string(), Json::u64(info.version)),
                ("loaded".to_string(), Json::Bool(info.loaded)),
            ];
            if let (Some(t), Some(r)) = (info.n_transactions, info.n_rows) {
                members.push(("n_transactions".to_string(), Json::u64(t)));
                members.push(("n_rows".to_string(), Json::u64(r)));
            }
            Json::Obj(members)
        })
        .collect();
    Json::obj([
        ("ok", Json::Bool(true)),
        ("event", Json::str("datasets")),
        ("datasets", Json::Arr(datasets)),
    ])
}

fn status_response(shared: &Shared) -> Json {
    let s = shared.scheduler.status();
    let available_parallelism =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as u64;
    // All counters below read the same registry cells the `metrics` verb
    // renders — `status` is a fixed-shape view over the registry, not an
    // independent tally that could drift from it.
    let t = &shared.telemetry;
    let cache_hits = t.cache_hits.get();
    Json::obj([
        ("ok", Json::Bool(true)),
        ("event", Json::str("status")),
        ("schema", Json::str(protocol::SCHEMA)),
        ("workers", Json::u64(shared.workers as u64)),
        ("queue_capacity", Json::u64(s.queue_capacity as u64)),
        ("connections", Json::u64(shared.connections.load(Ordering::SeqCst) as u64)),
        ("max_connections", Json::u64(shared.max_connections as u64)),
        ("queued", Json::u64(s.queued as u64)),
        ("running", Json::u64(s.running as u64)),
        ("completed", Json::u64(s.completed)),
        ("rejected", Json::u64(s.rejected)),
        ("cancelled", Json::u64(s.cancelled)),
        ("draining", Json::Bool(s.draining)),
        ("datasets", Json::u64(shared.registry.len() as u64)),
        ("datasets_loaded", Json::u64(shared.registry.loaded_count() as u64)),
        ("hardware_threads", Json::u64(available_parallelism)),
        // The buffer budget an engine-backed request gets unless its
        // `engine_config` overrides it; per-run effective frames are on
        // the outcome report (`report.cache_frames`).
        ("engine_cache_frames", Json::u64(setm_core::EngineConfig::default().cache_frames as u64)),
        // Incremental serving: what a `threads: 0` request actually gets,
        // and how responses have been produced so far.
        ("available_parallelism", Json::u64(available_parallelism)),
        ("cache_hits", Json::u64(cache_hits)),
        ("cache_misses", Json::u64(t.cache_misses.get())),
        ("served_cache", Json::u64(cache_hits)),
        ("served_delta", Json::u64(t.served_delta.get())),
        ("served_full", Json::u64(t.served_full.get())),
        ("rate_limit", Json::u64(shared.max_requests_per_sec)),
        ("rate_limited", Json::u64(t.rate_limited.get())),
    ])
}

/// The `metrics` verb: snapshot the registry as canonical JSON, or as
/// Prometheus-style text exposition carried in a `text` member (NDJSON
/// cannot ship raw multi-line bodies).
fn metrics_response(shared: &Shared, text: bool) -> Json {
    let t = &shared.telemetry;
    // Occupancy gauges are sampled from the live structures at render
    // time — cheaper and simpler than updating them on every mutation.
    t.conn_open.set(shared.connections.load(Ordering::SeqCst) as u64);
    t.registry_datasets.set(shared.registry.len() as u64);
    t.registry_datasets_loaded.set(shared.registry.loaded_count() as u64);
    t.frontier_entries.set(shared.frontiers.lock().expect("frontier lock").len() as u64);
    if text {
        return Json::obj([
            ("ok", Json::Bool(true)),
            ("event", Json::str("metrics")),
            ("format", Json::str("text")),
            ("text", Json::str(t.registry.render_text())),
        ]);
    }
    let metrics = t
        .registry
        .snapshot()
        .into_iter()
        .map(|(name, value)| {
            let v = match value {
                MetricValue::Counter(c) => Json::u64(c),
                MetricValue::Gauge(g) => Json::u64(g),
                MetricValue::Histogram(h) => Json::obj([
                    ("count", Json::u64(h.count)),
                    ("sum_ms", Json::Num(h.sum_ms)),
                    ("p50_ms", Json::Num(h.p50_ms)),
                    ("p90_ms", Json::Num(h.p90_ms)),
                    ("p99_ms", Json::Num(h.p99_ms)),
                ]),
            };
            (name, v)
        })
        .collect();
    Json::obj([
        ("ok", Json::Bool(true)),
        ("event", Json::str("metrics")),
        ("format", Json::str("json")),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// The `trace` verb: the span ring's timeline for one recent job.
fn trace_response(job: u64, shared: &Shared) -> Json {
    match shared.telemetry.spans.get(job) {
        Some(events) => Json::obj([
            ("ok", Json::Bool(true)),
            ("event", Json::str("trace")),
            ("job", Json::u64(job)),
            (
                "spans",
                Json::Arr(
                    events
                        .iter()
                        .map(|e| {
                            Json::obj([
                                ("label", Json::str(&e.label)),
                                ("at_ms", Json::Num(e.at_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        None => protocol::error_response(
            codes::UNKNOWN_JOB,
            &format!("no span log for job {job} (never scheduled, or evicted from the ring)"),
            Some(job),
        ),
    }
}

fn cancel_response(job: u64, shared: &Shared) -> Json {
    let dequeued = shared.scheduler.cancel(job);
    Json::obj([
        ("ok", Json::Bool(true)),
        ("event", Json::str("cancel")),
        ("job", Json::u64(job)),
        ("dequeued", Json::Bool(dequeued)),
    ])
}

fn shutdown_response(shared: &Shared) -> Json {
    // Refuse new submissions immediately; report what is still in flight.
    shared.scheduler.begin_drain();
    let pending = shared.scheduler.pending();
    Json::obj([
        ("ok", Json::Bool(true)),
        ("event", Json::str("shutting-down")),
        ("pending", Json::u64(pending as u64)),
    ])
}

/// Set the shutdown flag and wake the accept loop so `run` can notice it
/// and drain. Runs *after* the confirmation line is flushed (a write
/// failure still shuts down — the verb was received).
fn finish_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    // The connect itself is the wake-up; the stream is dropped
    // immediately. A wildcard bind (0.0.0.0 / ::) is not connectable on
    // every platform, so aim the wake-up at loopback on the bound port.
    let mut wake = shared.addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect(wake);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use setm_core::example::{paper_example_dataset, paper_example_params};
    use setm_core::{MinSupport, MiningParams};

    fn entry(version: u64, frontier: Option<&Arc<MiningFrontier>>) -> FrontierEntry {
        let snapshot = Arc::new(paper_example_dataset());
        FrontierEntry { version, snapshot, frontier: frontier.cloned() }
    }

    /// The stored entry's version and whether its frontier is captured.
    fn stored(store: &FrontierStore, key: &FrontierKey) -> Option<(u64, bool)> {
        let lru = store.lock().expect("frontier lock");
        lru.map.get(key).map(|(_, e)| (e.version, e.frontier.is_some()))
    }

    #[test]
    fn an_uncaptured_entry_never_replaces_a_captured_one_at_its_version() {
        let (_, frontier) =
            MiningFrontier::bootstrap(&paper_example_dataset(), &paper_example_params(), 1)
                .expect("bootstrap");
        let frontier = Arc::new(frontier);
        let store: FrontierStore = Arc::new(Mutex::new(Lru::new(FRONTIER_CAPACITY)));
        let key = ("example".to_string(), "params".to_string());

        store_frontier(&store, key.clone(), entry(2, Some(&frontier)));
        // A `progress` mine of version 2 leaves an uncaptured entry.
        store_frontier(&store, key.clone(), entry(2, None));
        assert_eq!(stored(&store, &key), Some((2, true)), "the captured frontier was dropped");
        // An older version never replaces a newer one, captured or not.
        store_frontier(&store, key.clone(), entry(1, Some(&frontier)));
        assert_eq!(stored(&store, &key), Some((2, true)));
        // A newer version replaces it, and a capture at that version
        // replaces the uncaptured entry.
        store_frontier(&store, key.clone(), entry(3, None));
        assert_eq!(stored(&store, &key), Some((3, false)));
        store_frontier(&store, key.clone(), entry(3, Some(&frontier)));
        assert_eq!(stored(&store, &key), Some((3, true)));
    }

    #[test]
    fn memory_misses_capture_no_frontier_until_an_append_is_replayed() {
        let config = ServeConfig { workers: 2, ..ServeConfig::default() };
        let server = Server::bind(config, Registry::with_builtins()).expect("bind loopback");
        let shared = Arc::clone(&server.shared);
        let addr = server.local_addr();
        let running = std::thread::spawn(move || server.run());
        let mut client = Client::connect(addr).expect("connect");
        let miner = |count| Miner::new(MiningParams::new(MinSupport::Count(count), 0.5)).threads(1);

        for count in 1..=6 {
            let reply = client.mine("example", miner(count)).expect("mine");
            assert_eq!(reply.served_via.as_deref(), Some("full"));
        }
        // Every stored entry's version and whether it is captured.
        let entries = || {
            let lru = shared.frontiers.lock().expect("frontier lock");
            let mut entries: Vec<(u64, bool)> =
                lru.map.values().map(|(_, e)| (e.version, e.frontier.is_some())).collect();
            entries.sort_unstable();
            entries
        };
        assert_eq!(entries(), vec![(1, false); 6], "a miss captured a frontier");
        // Another thread count misses the outcome cache, and an
        // uncaptured entry at the requested version is a miss too.
        let reply = client.mine("example", miner(2).threads(2)).expect("mine");
        assert_eq!(reply.served_via.as_deref(), Some("full"));

        client.append_batch("example", &[(100, vec![1, 2, 3]), (101, vec![2, 4])]).expect("append");
        let reply = client.mine("example", miner(2)).expect("mine after append");
        assert_eq!(reply.served_via.as_deref(), Some("delta"));
        // Only the replayed key captured, at the version it reached.
        let mut expected = vec![(1, false); 5];
        expected.push((2, true));
        assert_eq!(entries(), expected);
        // A captured entry answers a zero-step replay, with the bytes of
        // a from-scratch run at the request's thread count.
        let reply = client.mine("example", miner(2).threads(2)).expect("mine");
        assert_eq!(reply.served_via.as_deref(), Some("delta"));
        let appended = shared.registry.get("example").expect("appended version");
        let local = miner(2).threads(2).run(&appended).expect("local run");
        assert_eq!(reply.raw_outcome, protocol::outcome_to_json(&local).to_string());

        client.shutdown().expect("shutdown");
        running.join().expect("server thread");
    }

    #[test]
    fn outcome_cache_keeps_a_key_read_between_inserts() {
        let mut cache = OutcomeCache::new(CACHE_CAPACITY);
        let hot = "hot".to_string();
        cache.insert(hot.clone(), Json::str("warm-up outcome"));
        for i in 0..=CACHE_CAPACITY {
            cache.insert(format!("one-shot {i}"), Json::u64(i as u64));
            assert!(cache.get(&hot).is_some(), "evicted after {} inserts", i + 1);
        }
        assert_eq!(cache.len(), CACHE_CAPACITY);
        // The least recently used keys went instead: the first one-shots.
        assert!(cache.get(&"one-shot 0".to_string()).is_none());
        assert!(cache.get(&"one-shot 1".to_string()).is_none());
        assert!(cache.get(&format!("one-shot {CACHE_CAPACITY}")).is_some());
    }
}
