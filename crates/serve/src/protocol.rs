//! The `setm-serve` wire protocol: newline-delimited JSON over TCP.
//!
//! One request per line, one or more response lines per request. Every
//! response carries `"ok"`; successful ones name their `"event"`, errors
//! carry a stable machine-readable `"code"` plus an HTTP-style numeric
//! `"status"` (the queue-full rejection is the 429 of the protocol).
//!
//! A `mine` request is answered with **two** lines: an `accepted` line
//! echoing the job id and configuration (so a second connection can
//! `cancel` it), then an `outcome` line with the full serialized
//! [`MiningOutcome`] — itemsets, rules, per-iteration trace, and the
//! per-backend `ExecutionReport` (engine I/O breakdown / SQL statement
//! trace). Serialization is canonical (see [`crate::json`]), so a served
//! outcome is byte-identical to `outcome_to_json(..).to_string()` of the
//! same local run.
//!
//! ```text
//! C: {"op":"mine","dataset":"example","backend":"memory","threads":0,
//!     "min_support":{"fraction":0.3},"min_confidence":0.7}
//! S: {"ok":true,"event":"accepted","job":1,"dataset":"example","backend":"memory","threads":0}
//! S: {"ok":true,"event":"outcome","job":1,"outcome":{...}}
//! ```
//!
//! Mutation verbs: `register-dataset` creates a named dataset at
//! version 1 from inline transactions; `append-batch` adds new
//! transactions to an existing name and bumps its version (`name@v`
//! pins a mine request to an old snapshot). Admin verbs:
//! `list-datasets`, `status`, `cancel`, `shutdown`.

use crate::json::Json;
use setm_core::setm::engine::EngineConfig;
use setm_core::{
    Backend, ExecutionReport, MinSupport, Miner, MiningConstraints, MiningOutcome, MiningParams,
    SetmError,
};
use setm_obs::ObsEvent;

/// Protocol schema identifier, reported by the `status` verb.
pub const SCHEMA: &str = "setm-serve/v1";

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Mine a registered dataset with the given miner configuration.
    Mine(MineRequest),
    /// Register a new named dataset (version 1) from inline transactions.
    RegisterDataset { name: String, transactions: Vec<(u32, Vec<u32>)> },
    /// Append new transactions to an existing dataset, bumping its
    /// version.
    AppendBatch { name: String, transactions: Vec<(u32, Vec<u32>)> },
    /// List the datasets the server can mine.
    ListDatasets,
    /// Report scheduler and registry counters.
    Status,
    /// Snapshot the metrics registry — canonical JSON by default,
    /// Prometheus-style text exposition with `"format":"text"`.
    Metrics { text: bool },
    /// Fetch the recorded span log of a recent job.
    Trace { job: u64 },
    /// Cancel a queued job by id (running jobs are not preempted).
    Cancel { job: u64 },
    /// Graceful drain: stop accepting work, finish in-flight jobs, exit.
    Shutdown,
}

/// A mining job: which registered dataset to mine, and the full `Miner`
/// configuration to mine it with. The miner is the *same builder* used
/// for local runs — the protocol maps its parameters 1:1 onto JSON via
/// the `Miner` accessors, so nothing is re-parsed server-side.
#[derive(Debug, Clone, PartialEq)]
pub struct MineRequest {
    /// Name of a dataset in the server's registry.
    pub dataset: String,
    /// The mining configuration (backend, threads, params, knobs).
    pub miner: Miner,
    /// Opt into live `progress` event lines between `accepted` and the
    /// outcome line. Off by default — requests that omit the field get
    /// the exact pre-observability wire exchange, byte for byte.
    pub progress: bool,
}

impl MineRequest {
    /// Encode as the `mine` request line.
    pub fn to_json(&self) -> Json {
        let params = self.miner.params();
        let backend = self.miner.configured_backend();
        let mut members = vec![
            ("op".to_string(), Json::str("mine")),
            ("dataset".to_string(), Json::str(&self.dataset)),
            ("backend".to_string(), Json::str(backend.name())),
            ("threads".to_string(), Json::u64(self.miner.configured_threads() as u64)),
            ("min_support".to_string(), min_support_to_json(params.min_support)),
            ("min_confidence".to_string(), Json::Num(params.min_confidence)),
        ];
        if let Some(k) = params.max_pattern_len {
            members.push(("max_pattern_len".to_string(), Json::u64(k as u64)));
        }
        if let Backend::Engine(cfg) = backend {
            if cfg != EngineConfig::default() {
                members.push(("engine_config".to_string(), engine_config_to_json(&cfg)));
            }
        }
        // Only encoded when non-empty: an unconstrained request's wire
        // form is byte-identical to the pre-constraint protocol, and a
        // constrained one gets a distinct outcome-cache key for free
        // (the cache keys on this string).
        let constraints = self.miner.configured_constraints();
        if !constraints.is_empty() {
            members.push(("constraints".to_string(), constraints_to_json(constraints)));
        }
        // Only encoded when set: a default request's wire form is
        // byte-identical to the pre-observability protocol (the outcome
        // cache keys on this string, so the distinction matters).
        if self.progress {
            members.push(("progress".to_string(), Json::Bool(true)));
        }
        Json::Obj(members)
    }
}

fn min_support_to_json(s: MinSupport) -> Json {
    match s {
        MinSupport::Count(c) => Json::obj([("count", Json::u64(c))]),
        MinSupport::Fraction(f) => Json::obj([("fraction", Json::Num(f))]),
    }
}

fn min_support_from_json(v: &Json) -> Result<MinSupport, String> {
    if let Some(c) = v.get("count").and_then(Json::as_u64) {
        Ok(MinSupport::Count(c))
    } else if let Some(f) = v.get("fraction").and_then(Json::as_f64) {
        Ok(MinSupport::Fraction(f))
    } else {
        Err("min_support must be {\"count\": n} or {\"fraction\": f}".to_string())
    }
}

fn engine_config_to_json(cfg: &EngineConfig) -> Json {
    Json::obj([
        ("sort_buffer_pages", Json::u64(cfg.sort_buffer_pages as u64)),
        ("cache_frames", Json::u64(cfg.cache_frames as u64)),
    ])
}

/// Decode an `engine_config` object. Unknown members are ignored, among
/// them the ones this protocol retired, which older clients still send.
fn engine_config_from_json(v: &Json) -> Result<EngineConfig, String> {
    let mut cfg = EngineConfig::default();
    if let Some(n) = v.get("sort_buffer_pages") {
        cfg.sort_buffer_pages =
            n.as_u64().ok_or("sort_buffer_pages must be a non-negative integer")? as usize;
    }
    if let Some(n) = v.get("cache_frames") {
        cfg.cache_frames =
            n.as_u64().ok_or("cache_frames must be a non-negative integer")? as usize;
    }
    Ok(cfg)
}

/// Encode mining constraints as their wire object. Members are emitted
/// only when set (`require` / `exclude` / `targets` item arrays,
/// `min_len`), in that fixed order — canonical JSON, so equal
/// constraints always serialize to equal bytes.
pub fn constraints_to_json(c: &MiningConstraints) -> Json {
    let items = |xs: &[u32]| Json::Arr(xs.iter().map(|&i| Json::u64(i as u64)).collect());
    let mut members = Vec::new();
    if !c.required().is_empty() {
        members.push(("require".to_string(), items(c.required())));
    }
    if !c.excluded().is_empty() {
        members.push(("exclude".to_string(), items(c.excluded())));
    }
    if !c.target_items().is_empty() {
        members.push(("targets".to_string(), items(c.target_items())));
    }
    if let Some(len) = c.min_rule_len() {
        members.push(("min_len".to_string(), Json::u64(len as u64)));
    }
    Json::Obj(members)
}

fn constraints_from_json(v: &Json) -> Result<MiningConstraints, String> {
    let items = |key: &str| -> Result<Vec<u32>, String> {
        match v.get(key) {
            None => Ok(Vec::new()),
            Some(arr) => {
                arr.as_array()
                    .ok_or_else(|| format!("constraints `{key}` must be an array of items"))?
                    .iter()
                    .map(|i| {
                        i.as_u64().filter(|&i| i <= u32::MAX as u64).map(|i| i as u32).ok_or_else(
                            || format!("constraints `{key}` items must be u32 integers"),
                        )
                    })
                    .collect()
            }
        }
    };
    let mut c = MiningConstraints::new()
        .require(items("require")?)
        .exclude(items("exclude")?)
        .targets(items("targets")?);
    if let Some(len) = v.get("min_len") {
        c = c
            .min_len(len.as_u64().ok_or("constraints `min_len` must be a non-negative integer")?
                as usize);
    }
    Ok(c)
}

/// Encode a transaction list as its wire form: `[[tid,[items...]],...]`.
pub fn transactions_to_json(transactions: &[(u32, Vec<u32>)]) -> Json {
    Json::Arr(
        transactions
            .iter()
            .map(|(tid, items)| {
                Json::Arr(vec![
                    Json::u64(*tid as u64),
                    Json::Arr(items.iter().map(|i| Json::u64(*i as u64)).collect()),
                ])
            })
            .collect(),
    )
}

fn transactions_from_json(v: &Json, op: &str) -> Result<Vec<(u32, Vec<u32>)>, String> {
    v.get("transactions")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{op} needs a `transactions` array of [tid,[items...]] pairs"))?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or("each transaction must be a [tid,[items...]] pair")?;
            let tid = pair[0]
                .as_u64()
                .filter(|&t| t <= u32::MAX as u64)
                .ok_or("trans_id must fit a u32")?;
            let items = pair[1]
                .as_array()
                .ok_or("transaction items must be an array")?
                .iter()
                .map(|i| {
                    i.as_u64()
                        .filter(|&i| i <= u32::MAX as u64)
                        .map(|i| i as u32)
                        .ok_or_else(|| "items must be u32 integers".to_string())
                })
                .collect::<Result<Vec<u32>, String>>()?;
            Ok((tid as u32, items))
        })
        .collect()
}

/// Parse a request line (already JSON-parsed). Errors are human-readable
/// strings the server wraps in a `bad_request` response.
pub fn parse_request(v: &Json) -> Result<Request, String> {
    let op = v.get("op").and_then(Json::as_str).ok_or("missing string field `op`")?;
    match op {
        "mine" => parse_mine(v).map(Request::Mine),
        "register-dataset" | "append-batch" => {
            let name = v
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{op} needs a string `name`"))?
                .to_string();
            let transactions = transactions_from_json(v, op)?;
            Ok(if op == "register-dataset" {
                Request::RegisterDataset { name, transactions }
            } else {
                Request::AppendBatch { name, transactions }
            })
        }
        "list-datasets" => Ok(Request::ListDatasets),
        "status" => Ok(Request::Status),
        "metrics" => {
            let text = match v.get("format").and_then(Json::as_str) {
                None | Some("json") => false,
                Some("text") => true,
                Some(other) => {
                    return Err(format!("unknown metrics format {other:?}; expected json or text"))
                }
            };
            Ok(Request::Metrics { text })
        }
        "trace" => {
            let job =
                v.get("job").and_then(Json::as_u64).ok_or("trace needs a numeric `job` id")?;
            Ok(Request::Trace { job })
        }
        "cancel" => {
            let job =
                v.get("job").and_then(Json::as_u64).ok_or("cancel needs a numeric `job` id")?;
            Ok(Request::Cancel { job })
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown op {other:?}; expected mine, register-dataset, append-batch, \
             list-datasets, status, metrics, trace, cancel, or shutdown"
        )),
    }
}

fn parse_mine(v: &Json) -> Result<MineRequest, String> {
    let dataset = v
        .get("dataset")
        .and_then(Json::as_str)
        .ok_or("mine needs a string `dataset` name")?
        .to_string();
    let backend_name = v.get("backend").and_then(Json::as_str).unwrap_or("memory");
    let mut backend: Backend = backend_name.parse().map_err(|e| format!("{e}"))?;
    if let Some(cfg) = v.get("engine_config") {
        match backend {
            Backend::Engine(_) => backend = Backend::Engine(engine_config_from_json(cfg)?),
            _ => return Err("engine_config is only valid with the engine backend".to_string()),
        }
    }
    let min_support =
        min_support_from_json(v.get("min_support").ok_or("mine needs `min_support`")?)?;
    let min_confidence = v
        .get("min_confidence")
        .and_then(Json::as_f64)
        .ok_or("mine needs a numeric `min_confidence`")?;
    let mut params = MiningParams::new(min_support, min_confidence);
    if let Some(k) = v.get("max_pattern_len") {
        params.max_pattern_len =
            Some(k.as_u64().ok_or("max_pattern_len must be a non-negative integer")? as usize);
    }
    let threads = match v.get("threads") {
        Some(t) => t.as_u64().ok_or("threads must be a non-negative integer")? as usize,
        None => 0,
    };
    // Tolerant decode: pre-constraint clients never send the member and
    // get exactly the old behavior.
    let constraints = match v.get("constraints") {
        Some(c) => constraints_from_json(c)?,
        None => MiningConstraints::new(),
    };
    let progress = match v.get("progress") {
        Some(b) => b.as_bool().ok_or("progress must be a boolean")?,
        None => false,
    };
    Ok(MineRequest {
        dataset,
        miner: Miner::new(params).backend(backend).threads(threads).constraints(constraints),
        progress,
    })
}

// ---------------------------------------------------------------------------
// Outcome serialization
// ---------------------------------------------------------------------------

/// Serialize a [`MiningOutcome`] to its wire object.
pub fn outcome_to_json(outcome: &MiningOutcome) -> Json {
    let itemsets = outcome
        .result
        .frequent_itemsets()
        .into_iter()
        .map(|(items, count)| {
            Json::obj([
                ("items", Json::Arr(items.iter().map(|i| Json::u64(*i as u64)).collect())),
                ("count", Json::u64(count)),
            ])
        })
        .collect();
    let rules = outcome
        .rules
        .iter()
        .map(|r| {
            Json::obj([
                (
                    "antecedent",
                    Json::Arr(r.antecedent.iter().map(|i| Json::u64(*i as u64)).collect()),
                ),
                ("consequent", Json::u64(r.consequent as u64)),
                ("support_count", Json::u64(r.support_count)),
                ("support", Json::Num(r.support)),
                ("confidence", Json::Num(r.confidence)),
            ])
        })
        .collect();
    let trace = outcome
        .result
        .trace
        .iter()
        .map(|t| {
            let mut members = vec![
                ("k".to_string(), Json::u64(t.k as u64)),
                ("r_prime_tuples".to_string(), Json::u64(t.r_prime_tuples)),
                ("r_tuples".to_string(), Json::u64(t.r_tuples)),
                ("r_kbytes".to_string(), Json::Num(t.r_kbytes)),
                ("c_len".to_string(), Json::u64(t.c_len)),
                ("page_accesses".to_string(), Json::u64(t.page_accesses)),
                ("estimated_io_ms".to_string(), Json::Num(t.estimated_io_ms)),
                ("cache_hits".to_string(), Json::u64(t.cache_hits)),
            ];
            // Only present when constraint pushdown pruned something —
            // unconstrained outcomes keep their pre-constraint bytes.
            if t.candidates_pruned > 0 {
                members.push(("candidates_pruned".to_string(), Json::u64(t.candidates_pruned)));
            }
            members.push(("plan".to_string(), Json::str(t.plan_string())));
            Json::Obj(members)
        })
        .collect();
    let report = match &outcome.report {
        ExecutionReport::Memory => Json::obj([("backend", Json::str("memory"))]),
        ExecutionReport::Engine(e) => Json::obj([
            ("backend", Json::str("engine")),
            ("page_accesses", Json::u64(e.page_accesses)),
            ("estimated_io_ms", Json::Num(e.estimated_io_ms)),
            ("cache_frames", Json::u64(e.cache_frames as u64)),
            (
                "io",
                Json::obj([
                    ("seq_reads", Json::u64(e.io.seq_reads)),
                    ("rand_reads", Json::u64(e.io.rand_reads)),
                    ("seq_writes", Json::u64(e.io.seq_writes)),
                    ("rand_writes", Json::u64(e.io.rand_writes)),
                    ("cache_hits", Json::u64(e.io.cache_hits)),
                ]),
            ),
        ]),
        ExecutionReport::Sql(s) => Json::obj([
            ("backend", Json::str("sql")),
            ("statements", Json::Arr(s.statements.iter().map(Json::str).collect())),
        ]),
    };
    Json::obj([
        ("n_transactions", Json::u64(outcome.result.n_transactions)),
        ("min_support_count", Json::u64(outcome.result.min_support_count)),
        ("itemsets", Json::Arr(itemsets)),
        ("rules", Json::Arr(rules)),
        ("trace", Json::Arr(trace)),
        ("report", report),
    ])
}

/// A client-side decoded outcome — the wire form of [`MiningOutcome`],
/// without the columnar `CountRelation` internals.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomePayload {
    pub n_transactions: u64,
    pub min_support_count: u64,
    /// Frequent itemsets with support counts, shortest first.
    pub itemsets: Vec<(Vec<u32>, u64)>,
    pub rules: Vec<RulePayload>,
    pub trace: Vec<TracePayload>,
    pub report: ReportPayload,
}

/// The wire form of a [`setm_core::Rule`].
#[derive(Debug, Clone, PartialEq)]
pub struct RulePayload {
    pub antecedent: Vec<u32>,
    pub consequent: u32,
    pub support_count: u64,
    pub support: f64,
    pub confidence: f64,
}

/// The wire form of a [`setm_core::IterationTrace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TracePayload {
    pub k: usize,
    pub r_prime_tuples: u64,
    pub r_tuples: u64,
    pub r_kbytes: f64,
    pub c_len: u64,
    pub page_accesses: u64,
    pub estimated_io_ms: f64,
    /// Page reads absorbed by the buffer cache. Zero when talking to a
    /// server that predates the cache counters.
    pub cache_hits: u64,
    /// Candidate extensions rejected by constraint pushdown. Zero for
    /// unconstrained runs or when talking to a pre-constraint server.
    pub candidates_pruned: u64,
    /// The physical plan the iteration executed, in
    /// `PhysicalPlan` display form — `"-"` where no plan applies
    /// (the `k = 1` scan) or when talking to a pre-plan server.
    pub plan: String,
}

/// The wire form of an [`ExecutionReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum ReportPayload {
    Memory,
    Engine {
        page_accesses: u64,
        estimated_io_ms: f64,
        /// Effective buffer frames the run ended with (0 from a server
        /// that predates the cache counters).
        cache_frames: u64,
        seq_reads: u64,
        rand_reads: u64,
        seq_writes: u64,
        rand_writes: u64,
        cache_hits: u64,
    },
    Sql {
        statements: Vec<String>,
    },
}

impl ReportPayload {
    /// The backend that produced this report.
    pub fn backend_name(&self) -> &'static str {
        match self {
            ReportPayload::Memory => "memory",
            ReportPayload::Engine { .. } => "engine",
            ReportPayload::Sql { .. } => "sql",
        }
    }
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing numeric field `{key}`"))
}

fn f64_field(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing numeric field `{key}`"))
}

fn items_field(v: &Json, key: &str) -> Result<Vec<u32>, String> {
    v.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("missing array field `{key}`"))?
        .iter()
        .map(|i| i.as_u64().map(|i| i as u32).ok_or_else(|| format!("non-integer item in `{key}`")))
        .collect()
}

/// Decode one trace row — the per-iteration object shared by the
/// outcome's `trace` array and the streamed `progress` iteration events.
/// Unknown members are ignored, so rows from a server that still sends
/// `pool_steals` decode too.
fn trace_row_from_json(e: &Json) -> Result<TracePayload, String> {
    Ok(TracePayload {
        k: u64_field(e, "k")? as usize,
        r_prime_tuples: u64_field(e, "r_prime_tuples")?,
        r_tuples: u64_field(e, "r_tuples")?,
        r_kbytes: f64_field(e, "r_kbytes")?,
        c_len: u64_field(e, "c_len")?,
        page_accesses: u64_field(e, "page_accesses")?,
        estimated_io_ms: f64_field(e, "estimated_io_ms")?,
        // Older servers omit the cache counter — default 0.
        cache_hits: e.get("cache_hits").and_then(Json::as_u64).unwrap_or(0),
        // Absent from pre-constraint servers and unconstrained rows.
        candidates_pruned: e.get("candidates_pruned").and_then(Json::as_u64).unwrap_or(0),
        // Absent when decoding a pre-plan server's response —
        // tolerate it rather than failing the whole outcome.
        plan: e.get("plan").and_then(Json::as_str).unwrap_or("-").to_string(),
    })
}

/// Decode the wire object produced by [`outcome_to_json`].
pub fn outcome_from_json(v: &Json) -> Result<OutcomePayload, String> {
    let itemsets = v
        .get("itemsets")
        .and_then(Json::as_array)
        .ok_or("missing `itemsets`")?
        .iter()
        .map(|e| Ok((items_field(e, "items")?, u64_field(e, "count")?)))
        .collect::<Result<Vec<_>, String>>()?;
    let rules = v
        .get("rules")
        .and_then(Json::as_array)
        .ok_or("missing `rules`")?
        .iter()
        .map(|e| {
            Ok(RulePayload {
                antecedent: items_field(e, "antecedent")?,
                consequent: u64_field(e, "consequent")? as u32,
                support_count: u64_field(e, "support_count")?,
                support: f64_field(e, "support")?,
                confidence: f64_field(e, "confidence")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let trace = v
        .get("trace")
        .and_then(Json::as_array)
        .ok_or("missing `trace`")?
        .iter()
        .map(trace_row_from_json)
        .collect::<Result<Vec<_>, String>>()?;
    let report = v.get("report").ok_or("missing `report`")?;
    let report = match report.get("backend").and_then(Json::as_str) {
        Some("memory") => ReportPayload::Memory,
        Some("engine") => {
            let io = report.get("io").ok_or("engine report missing `io`")?;
            ReportPayload::Engine {
                page_accesses: u64_field(report, "page_accesses")?,
                estimated_io_ms: f64_field(report, "estimated_io_ms")?,
                // Older servers omit the frame count — default 0.
                cache_frames: report.get("cache_frames").and_then(Json::as_u64).unwrap_or(0),
                seq_reads: u64_field(io, "seq_reads")?,
                rand_reads: u64_field(io, "rand_reads")?,
                seq_writes: u64_field(io, "seq_writes")?,
                rand_writes: u64_field(io, "rand_writes")?,
                cache_hits: u64_field(io, "cache_hits")?,
            }
        }
        Some("sql") => ReportPayload::Sql {
            statements: report
                .get("statements")
                .and_then(Json::as_array)
                .ok_or("sql report missing `statements`")?
                .iter()
                .map(|s| s.as_str().map(str::to_string).ok_or("non-string statement".to_string()))
                .collect::<Result<Vec<_>, String>>()?,
        },
        _ => return Err("report missing a known `backend`".to_string()),
    };
    Ok(OutcomePayload {
        n_transactions: u64_field(v, "n_transactions")?,
        min_support_count: u64_field(v, "min_support_count")?,
        itemsets,
        rules,
        trace,
        report,
    })
}

// ---------------------------------------------------------------------------
// Progress events
// ---------------------------------------------------------------------------

/// Serialize one telemetry event as a `progress` wire line for `job`.
///
/// Iteration events reuse the outcome trace-row member names exactly, so
/// a client can decode both with one code path; phase and note events
/// carry their own small shapes, discriminated by `kind`.
pub fn progress_event_to_json(job: u64, event: &ObsEvent) -> Json {
    let head = [
        ("ok".to_string(), Json::Bool(true)),
        ("event".to_string(), Json::str("progress")),
        ("job".to_string(), Json::u64(job)),
    ];
    let tail: Vec<(String, Json)> = match event {
        ObsEvent::Iteration(s) => {
            let mut tail = vec![
                ("kind".to_string(), Json::str("iteration")),
                ("k".to_string(), Json::u64(s.k as u64)),
                ("r_prime_tuples".to_string(), Json::u64(s.r_prime_tuples)),
                ("r_tuples".to_string(), Json::u64(s.r_tuples)),
                ("r_kbytes".to_string(), Json::Num(s.r_kbytes)),
                ("c_len".to_string(), Json::u64(s.c_len)),
                ("page_accesses".to_string(), Json::u64(s.page_accesses)),
                ("estimated_io_ms".to_string(), Json::Num(s.estimated_io_ms)),
                ("cache_hits".to_string(), Json::u64(s.cache_hits)),
            ];
            // Same conditional member as the outcome trace rows.
            if s.candidates_pruned > 0 {
                tail.push(("candidates_pruned".to_string(), Json::u64(s.candidates_pruned)));
            }
            tail.push(("plan".to_string(), Json::str(&s.plan)));
            tail
        }
        ObsEvent::PhaseStart { name, k } => vec![
            ("kind".to_string(), Json::str("phase")),
            ("phase".to_string(), Json::str(*name)),
            ("state".to_string(), Json::str("start")),
            ("k".to_string(), Json::u64(*k as u64)),
        ],
        ObsEvent::PhaseEnd { name, k } => vec![
            ("kind".to_string(), Json::str("phase")),
            ("phase".to_string(), Json::str(*name)),
            ("state".to_string(), Json::str("end")),
            ("k".to_string(), Json::u64(*k as u64)),
        ],
        ObsEvent::Note { name, k, value } => vec![
            ("kind".to_string(), Json::str("note")),
            ("name".to_string(), Json::str(*name)),
            ("k".to_string(), Json::u64(*k as u64)),
            ("value".to_string(), Json::u64(*value)),
        ],
    };
    Json::Obj(head.into_iter().chain(tail).collect())
}

/// A client-side decoded `progress` line.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// An iteration finished — the same row that will appear in the
    /// outcome's `trace` array.
    Iteration(TracePayload),
    /// A named sub-phase started or ended (`state` is `"start"`/`"end"`).
    Phase { phase: String, state: String, k: usize },
    /// A counter-style annotation (e.g. a shard repartition) with its
    /// observed value.
    Note { name: String, k: usize, value: u64 },
}

/// Decode the wire object produced by [`progress_event_to_json`].
/// Returns `(job, event)`.
pub fn progress_event_from_json(v: &Json) -> Result<(u64, ProgressEvent), String> {
    let job = u64_field(v, "job")?;
    let kind = v.get("kind").and_then(Json::as_str).ok_or("progress line missing `kind`")?;
    let event = match kind {
        "iteration" => ProgressEvent::Iteration(trace_row_from_json(v)?),
        "phase" => ProgressEvent::Phase {
            phase: v
                .get("phase")
                .and_then(Json::as_str)
                .ok_or("phase event missing `phase`")?
                .to_string(),
            state: v
                .get("state")
                .and_then(Json::as_str)
                .ok_or("phase event missing `state`")?
                .to_string(),
            k: u64_field(v, "k")? as usize,
        },
        "note" => ProgressEvent::Note {
            name: v
                .get("name")
                .and_then(Json::as_str)
                .ok_or("note event missing `name`")?
                .to_string(),
            k: u64_field(v, "k")? as usize,
            value: u64_field(v, "value")?,
        },
        other => return Err(format!("unknown progress kind {other:?}")),
    };
    Ok((job, event))
}

// ---------------------------------------------------------------------------
// Error codes
// ---------------------------------------------------------------------------

/// A stable wire error: machine-readable code plus an HTTP-style status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErrorCode {
    /// Stable snake_case identifier — the wire contract; never renamed.
    pub code: &'static str,
    /// HTTP-style status class (400 bad input, 404 not found, 409
    /// cancelled, 429 backpressure, 500 backend fault, 503 draining).
    pub status: u16,
}

/// Map a [`SetmError`] to its stable wire code.
///
/// The match is intentionally **exhaustive** (no `_` arm): adding a
/// `SetmError` variant breaks this build until a code is chosen for it —
/// the wire format can only grow deliberately, never by accident.
pub fn setm_error_code(e: &SetmError) -> ErrorCode {
    match e {
        SetmError::InvalidSupportFraction { .. } => {
            ErrorCode { code: "invalid_support_fraction", status: 400 }
        }
        SetmError::InvalidConfidence { .. } => {
            ErrorCode { code: "invalid_confidence", status: 400 }
        }
        SetmError::InvalidMaxPatternLen => {
            ErrorCode { code: "invalid_max_pattern_len", status: 400 }
        }
        SetmError::InvalidEngineConfig { .. } => {
            ErrorCode { code: "invalid_engine_config", status: 400 }
        }
        SetmError::InvalidPlan { .. } => ErrorCode { code: "invalid_plan", status: 400 },
        SetmError::InvalidConstraints { .. } => {
            ErrorCode { code: "invalid_constraints", status: 400 }
        }
        SetmError::Engine(_) => ErrorCode { code: "engine_fault", status: 500 },
        SetmError::Sql(_) => ErrorCode { code: "sql_fault", status: 500 },
    }
}

/// Serve-layer error codes (not produced by mining itself).
pub mod codes {
    use super::ErrorCode;

    /// Malformed JSON or a request that fails protocol validation.
    pub const BAD_REQUEST: ErrorCode = ErrorCode { code: "bad_request", status: 400 };
    /// The named dataset is not in the registry.
    pub const UNKNOWN_DATASET: ErrorCode = ErrorCode { code: "unknown_dataset", status: 404 };
    /// A registered dataset file failed to load or parse.
    pub const DATASET_LOAD: ErrorCode = ErrorCode { code: "dataset_load", status: 500 };
    /// The job queue is at capacity — retry later (the 429 of the protocol).
    pub const QUEUE_FULL: ErrorCode = ErrorCode { code: "queue_full", status: 429 };
    /// The server is at its concurrent-connection bound — retry later.
    pub const TOO_MANY_CONNECTIONS: ErrorCode =
        ErrorCode { code: "too_many_connections", status: 429 };
    /// This connection exceeded its per-second request budget — retry
    /// after a pause.
    pub const RATE_LIMITED: ErrorCode = ErrorCode { code: "rate_limited", status: 429 };
    /// The server is draining and accepts no new work.
    pub const SHUTTING_DOWN: ErrorCode = ErrorCode { code: "shutting_down", status: 503 };
    /// The job was cancelled before it ran.
    pub const CANCELLED: ErrorCode = ErrorCode { code: "cancelled", status: 409 };
    /// `trace` asked for a job the span ring no longer (or never) holds.
    pub const UNKNOWN_JOB: ErrorCode = ErrorCode { code: "unknown_job", status: 404 };
    /// The mining run panicked (a bug — mining errors are normally typed).
    pub const INTERNAL: ErrorCode = ErrorCode { code: "internal", status: 500 };
}

/// Build an error response line.
pub fn error_response(err: ErrorCode, message: &str, job: Option<u64>) -> Json {
    let mut members = vec![
        ("ok".to_string(), Json::Bool(false)),
        ("code".to_string(), Json::str(err.code)),
        ("status".to_string(), Json::u64(err.status as u64)),
        ("error".to_string(), Json::str(message)),
    ];
    if let Some(job) = job {
        members.push(("job".to_string(), Json::u64(job)));
    }
    Json::Obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use setm_core::example;

    #[test]
    fn mine_request_round_trips_through_the_wire_form() {
        let miner = Miner::new(MiningParams::new(MinSupport::Fraction(0.3), 0.7).with_max_len(3))
            .backend(Backend::Engine(EngineConfig { cache_frames: 64, ..Default::default() }))
            .threads(2);
        let req = MineRequest { dataset: "retail-small".to_string(), miner, progress: false };
        let wire = req.to_json();
        // A default (non-progress) request never mentions the field — the
        // pre-observability wire bytes are preserved exactly.
        assert!(!wire.to_string().contains("progress"));
        let parsed = parse_request(&wire).unwrap();
        assert_eq!(parsed, Request::Mine(req.clone()));
        // Opting in round-trips too, encoded as a trailing member.
        let req = MineRequest { progress: true, ..req };
        let wire = req.to_json();
        assert!(wire.to_string().ends_with(r#""progress":true}"#));
        assert_eq!(parse_request(&wire).unwrap(), Request::Mine(req));
    }

    /// Satellite 2, the constraint wire contract: pre-constraint
    /// requests and outcomes keep their exact bytes, constrained
    /// requests round-trip with a canonical `constraints` member, and
    /// `candidates_pruned` appears on trace rows only when non-zero.
    #[test]
    fn constraint_wire_shape_is_pinned() {
        use setm_core::example;

        // An unconstrained request never mentions constraints.
        let miner = Miner::new(MiningParams::new(MinSupport::Fraction(0.3), 0.7));
        let req = MineRequest { dataset: "example".to_string(), miner, progress: false };
        let text = req.to_json().to_string();
        assert!(!text.contains("constraints"), "pre-constraint bytes must be preserved");

        // A constrained one encodes only the members that are set, in
        // canonical order, and round-trips through the parser.
        let miner = Miner::new(MiningParams::new(MinSupport::Fraction(0.3), 0.7)).constraints(
            MiningConstraints::new().require([4]).exclude([3, 7]).targets([5]).min_len(2),
        );
        let req = MineRequest { dataset: "example".to_string(), miner, progress: false };
        let wire = req.to_json();
        let text = wire.to_string();
        assert!(text.contains(
            r#""constraints":{"require":[4],"exclude":[3,7],"targets":[5],"min_len":2}"#
        ));
        assert_eq!(parse_request(&wire).unwrap(), Request::Mine(req));
        // Partial constraint objects parse too (tolerant decode).
        let v = crate::json::parse(
            r#"{"op":"mine","dataset":"example","min_support":{"count":3},
                "min_confidence":0.7,"constraints":{"exclude":[9]}}"#,
        )
        .unwrap();
        let Request::Mine(req) = parse_request(&v).unwrap() else { panic!("not a mine request") };
        assert_eq!(req.miner.configured_constraints().excluded(), &[9]);
        assert!(req.miner.configured_constraints().required().is_empty());
        // Malformed ones are described.
        let bad = crate::json::parse(
            r#"{"op":"mine","dataset":"x","min_support":{"count":1},
                "min_confidence":0.5,"constraints":{"require":"D"}}"#,
        )
        .unwrap();
        assert!(parse_request(&bad).unwrap_err().contains("require"));

        // Outcome trace rows: absent unconstrained, present when pruning
        // happened — and the decode defaults to zero either way.
        let d = example::paper_example_dataset();
        let unconstrained = Miner::new(example::paper_example_params()).run(&d).unwrap();
        let text = outcome_to_json(&unconstrained).to_string();
        assert!(!text.contains("candidates_pruned"));
        let constrained = Miner::new(example::paper_example_params())
            .constraints(MiningConstraints::new().require([example::D]))
            .run(&d)
            .unwrap();
        let wire = outcome_to_json(&constrained);
        assert!(wire.to_string().contains("candidates_pruned"));
        let payload = outcome_from_json(&wire).unwrap();
        assert_eq!(
            payload.trace.iter().map(|t| t.candidates_pruned).collect::<Vec<_>>(),
            constrained.result.trace.iter().map(|t| t.candidates_pruned).collect::<Vec<_>>(),
            "pruned counts survive the wire"
        );
        assert!(payload.trace.iter().any(|t| t.candidates_pruned > 0));
    }

    /// Older clients still send members this protocol retired: two
    /// inside `engine_config` (the shared buffer pool's switch and the
    /// sort-order switch) and one at the top level (the filtered-`R_1`
    /// switch). Each is ignored like any unknown member: the line parses
    /// to the same `Miner` as one without it, and so gets the same
    /// canonical outcome-cache key.
    #[test]
    fn retired_request_members_are_ignored() {
        let mine = |top: &str, engine_config: &str| {
            let text = format!(
                r#"{{"op":"mine","dataset":"example","backend":"engine","min_support":{{"count":3}},"min_confidence":0.7{top},"engine_config":{{{engine_config}}}}}"#
            );
            let v = crate::json::parse(&text).unwrap();
            let Request::Mine(req) = parse_request(&v).unwrap() else {
                panic!("not a mine request")
            };
            req
        };
        // 64 frames is a non-default config; 256 is the default, whose
        // canonical form omits `engine_config` altogether.
        for frames in [64, 256] {
            let frames = format!(r#""cache_frames":{frames}"#);
            let without = mine("", &frames);
            let key = without.to_json().to_string();
            for on in [true, false] {
                for (top, member) in [
                    (false, format!(r#""pool":{on}"#)),
                    (false, format!(r#""track_sort_order":{on}"#)),
                    (true, format!(r#""filter_r1":{on}"#)),
                ] {
                    let name = member.split(':').next().unwrap();
                    assert!(!key.contains(name), "{key}");
                    let with = if top {
                        mine(&format!(",{member}"), &frames)
                    } else {
                        mine("", &format!("{frames},{member}"))
                    };
                    assert_eq!(with, without, "{frames} {member}");
                    assert_eq!(with.to_json().to_string(), key, "{frames} {member}");
                }
            }
        }
    }

    /// A server that still ran the shared buffer pool sent `pool_steals`
    /// after `cache_hits` in every trace row, progress line and engine
    /// `io` object. Its outcomes and progress lines still decode, to the
    /// same payload as today's.
    #[test]
    fn pool_steals_members_from_older_servers_still_decode() {
        fn add_steals(v: &mut Json) {
            match v {
                Json::Obj(members) => {
                    if let Some(i) = members.iter().position(|(key, _)| key == "cache_hits") {
                        members.insert(i + 1, ("pool_steals".to_string(), Json::u64(2)));
                    }
                    members.iter_mut().for_each(|(_, m)| add_steals(m));
                }
                Json::Arr(items) => items.iter_mut().for_each(add_steals),
                _ => {}
            }
        }
        let d = example::paper_example_dataset();
        let outcome = Miner::new(example::paper_example_params())
            .backend(Backend::Engine(EngineConfig::default()))
            .run(&d)
            .unwrap();
        let wire = outcome_to_json(&outcome);
        assert!(!wire.to_string().contains("pool_steals"));
        let mut old = wire.clone();
        add_steals(&mut old);
        let old = crate::json::parse(&old.to_string()).unwrap();
        let rows = outcome.result.trace.len();
        assert_eq!(old.to_string().matches(r#""pool_steals":2"#).count(), rows + 1);
        assert_eq!(outcome_from_json(&old).unwrap(), outcome_from_json(&wire).unwrap());

        let event = ObsEvent::Iteration(outcome.result.trace[1].snapshot());
        let line = progress_event_to_json(5, &event);
        let mut old = line.clone();
        add_steals(&mut old);
        assert!(old.to_string().contains(r#""pool_steals":2"#));
        assert_eq!(
            progress_event_from_json(&old).unwrap(),
            progress_event_from_json(&line).unwrap()
        );
    }

    #[test]
    fn mine_request_defaults_apply() {
        let v = crate::json::parse(
            r#"{"op":"mine","dataset":"example","min_support":{"count":3},"min_confidence":0.7}"#,
        )
        .unwrap();
        let Request::Mine(req) = parse_request(&v).unwrap() else { panic!("not a mine request") };
        assert_eq!(req.miner.configured_backend(), Backend::Memory);
        assert_eq!(req.miner.configured_threads(), 0);
        assert_eq!(req.miner.params().max_pattern_len, None);
    }

    #[test]
    fn admin_verbs_parse() {
        let parse = |s: &str| parse_request(&crate::json::parse(s).unwrap());
        assert_eq!(parse(r#"{"op":"list-datasets"}"#).unwrap(), Request::ListDatasets);
        assert_eq!(parse(r#"{"op":"status"}"#).unwrap(), Request::Status);
        assert_eq!(parse(r#"{"op":"cancel","job":7}"#).unwrap(), Request::Cancel { job: 7 });
        assert_eq!(parse(r#"{"op":"shutdown"}"#).unwrap(), Request::Shutdown);
        assert_eq!(parse(r#"{"op":"metrics"}"#).unwrap(), Request::Metrics { text: false });
        assert_eq!(
            parse(r#"{"op":"metrics","format":"json"}"#).unwrap(),
            Request::Metrics { text: false }
        );
        assert_eq!(
            parse(r#"{"op":"metrics","format":"text"}"#).unwrap(),
            Request::Metrics { text: true }
        );
        assert!(parse(r#"{"op":"metrics","format":"xml"}"#).unwrap_err().contains("format"));
        assert_eq!(parse(r#"{"op":"trace","job":12}"#).unwrap(), Request::Trace { job: 12 });
        assert!(parse(r#"{"op":"trace"}"#).unwrap_err().contains("job"));
        assert!(parse(r#"{"op":"frobnicate"}"#).unwrap_err().contains("unknown op"));
        assert!(parse(r#"{"noop":1}"#).unwrap_err().contains("op"));
        assert!(parse(r#"{"op":"cancel"}"#).unwrap_err().contains("job"));
    }

    /// Every telemetry event kind round-trips through its wire line, and
    /// iteration events decode with the same row shape as outcome traces.
    #[test]
    fn progress_events_round_trip() {
        use setm_obs::IterationSnapshot;
        let snap = IterationSnapshot {
            k: 3,
            r_prime_tuples: 120,
            r_tuples: 45,
            r_kbytes: 1.5,
            c_len: 9,
            page_accesses: 77,
            estimated_io_ms: 2.25,
            cache_hits: 30,
            candidates_pruned: 0,
            plan: "sortmerge(ext=hash)".to_string(),
        };
        let events = [
            ObsEvent::Iteration(snap.clone()),
            ObsEvent::PhaseStart { name: "sort_r_prev", k: 3 },
            ObsEvent::PhaseEnd { name: "sort_r_prev", k: 3 },
            ObsEvent::Note { name: "repartition", k: 3, value: 1 },
        ];
        for event in &events {
            let wire = progress_event_to_json(41, event);
            assert_eq!(wire.get("ok").unwrap().as_bool(), Some(true));
            assert_eq!(wire.get("event").unwrap().as_str(), Some("progress"));
            let text = wire.to_string();
            let reparsed = crate::json::parse(&text).unwrap();
            assert_eq!(reparsed.to_string(), text, "canonical serialization");
            let (job, decoded) = progress_event_from_json(&reparsed).unwrap();
            assert_eq!(job, 41);
            match (event, &decoded) {
                (ObsEvent::Iteration(s), ProgressEvent::Iteration(row)) => {
                    assert_eq!(row.k, s.k);
                    assert_eq!(row.r_tuples, s.r_tuples);
                    assert_eq!(row.c_len, s.c_len);
                    assert_eq!(row.plan, s.plan);
                }
                (
                    ObsEvent::PhaseStart { name, k },
                    ProgressEvent::Phase { phase, state, k: dk },
                ) => {
                    assert_eq!((phase.as_str(), state.as_str(), *dk), (*name, "start", *k));
                }
                (ObsEvent::PhaseEnd { name, k }, ProgressEvent::Phase { phase, state, k: dk }) => {
                    assert_eq!((phase.as_str(), state.as_str(), *dk), (*name, "end", *k));
                }
                (
                    ObsEvent::Note { name, k, value },
                    ProgressEvent::Note { name: dn, k: dk, value: dv },
                ) => {
                    assert_eq!((dn.as_str(), *dk, *dv), (*name, *k, *value));
                }
                (sent, got) => panic!("kind mismatch: sent {sent:?}, decoded {got:?}"),
            }
        }
        assert!(progress_event_from_json(&crate::json::parse(r#"{"job":1,"kind":"x"}"#).unwrap())
            .unwrap_err()
            .contains("unknown progress kind"));
    }

    #[test]
    fn mutation_verbs_parse_and_round_trip() {
        let parse = |s: &str| parse_request(&crate::json::parse(s).unwrap());
        let req =
            parse(r#"{"op":"register-dataset","name":"s","transactions":[[1,[10,20]],[2,[20]]]}"#)
                .unwrap();
        let expected = vec![(1u32, vec![10u32, 20]), (2, vec![20])];
        assert_eq!(
            req,
            Request::RegisterDataset { name: "s".to_string(), transactions: expected.clone() }
        );
        // The encoder produces exactly the shape the parser accepts.
        let wire = Json::obj([
            ("op", Json::str("append-batch")),
            ("name", Json::str("s")),
            ("transactions", transactions_to_json(&expected)),
        ]);
        assert_eq!(
            parse_request(&wire).unwrap(),
            Request::AppendBatch { name: "s".to_string(), transactions: expected }
        );
        // An empty batch is well-formed (the registry decides semantics).
        assert!(parse(r#"{"op":"append-batch","name":"s","transactions":[]}"#).is_ok());
        // Malformed shapes are described.
        assert!(parse(r#"{"op":"register-dataset","transactions":[]}"#)
            .unwrap_err()
            .contains("name"));
        assert!(parse(r#"{"op":"register-dataset","name":"s"}"#)
            .unwrap_err()
            .contains("transactions"));
        assert!(parse(r#"{"op":"append-batch","name":"s","transactions":[[1]]}"#)
            .unwrap_err()
            .contains("pair"));
        assert!(parse(r#"{"op":"append-batch","name":"s","transactions":[[1,[4294967296]]]}"#)
            .unwrap_err()
            .contains("u32"));
    }

    /// The serve-layer codes are wire contract too: pinned here so a
    /// rename or status change is a deliberate, visible diff.
    #[test]
    fn serve_error_codes_are_pinned() {
        let table: [(ErrorCode, &str, u16); 9] = [
            (codes::BAD_REQUEST, "bad_request", 400),
            (codes::UNKNOWN_DATASET, "unknown_dataset", 404),
            (codes::DATASET_LOAD, "dataset_load", 500),
            (codes::QUEUE_FULL, "queue_full", 429),
            (codes::TOO_MANY_CONNECTIONS, "too_many_connections", 429),
            (codes::RATE_LIMITED, "rate_limited", 429),
            (codes::SHUTTING_DOWN, "shutting_down", 503),
            (codes::CANCELLED, "cancelled", 409),
            (codes::UNKNOWN_JOB, "unknown_job", 404),
        ];
        for (ec, code, status) in table {
            assert_eq!((ec.code, ec.status), (code, status));
        }
        assert_eq!((codes::INTERNAL.code, codes::INTERNAL.status), ("internal", 500));
    }

    #[test]
    fn bad_mine_requests_are_described() {
        let parse = |s: &str| parse_request(&crate::json::parse(s).unwrap()).unwrap_err();
        assert!(parse(r#"{"op":"mine"}"#).contains("dataset"));
        assert!(parse(r#"{"op":"mine","dataset":"x"}"#).contains("min_support"));
        assert!(parse(
            r#"{"op":"mine","dataset":"x","min_support":{"pages":1},"min_confidence":0.5}"#
        )
        .contains("min_support"));
        assert!(parse(
            r#"{"op":"mine","dataset":"x","backend":"oracle","min_support":{"count":1},"min_confidence":0.5}"#
        )
        .contains("oracle"));
        assert!(parse(
            r#"{"op":"mine","dataset":"x","backend":"sql","engine_config":{},"min_support":{"count":1},"min_confidence":0.5}"#
        )
        .contains("engine_config"));
    }

    #[test]
    fn outcomes_round_trip_bytewise_and_decode() {
        let d = example::paper_example_dataset();
        for backend in [Backend::Memory, Backend::Engine(EngineConfig::default()), Backend::Sql] {
            let outcome =
                Miner::new(example::paper_example_params()).backend(backend).run(&d).unwrap();
            let wire = outcome_to_json(&outcome);
            let text = wire.to_string();
            let reparsed = crate::json::parse(&text).unwrap();
            assert_eq!(reparsed.to_string(), text, "canonical serialization");

            let payload = outcome_from_json(&reparsed).unwrap();
            assert_eq!(payload.n_transactions, 10);
            assert_eq!(payload.min_support_count, 3);
            assert_eq!(payload.rules.len(), 11);
            assert_eq!(payload.itemsets.len(), outcome.result.frequent_itemsets().len());
            assert_eq!(payload.report.backend_name(), backend.name());
            assert_eq!(payload.trace.len(), outcome.result.trace.len());
            for (wire, local) in payload.trace.iter().zip(outcome.result.trace.iter()) {
                assert_eq!(wire.plan, local.plan_string(), "plan must survive the wire");
            }
            // Every mining iteration carries its executed plan; only the
            // k = 1 scan reports none.
            assert!(
                payload.trace.iter().all(|t| (t.k == 1) == (t.plan == "-")),
                "{}",
                backend.name()
            );
            if let ReportPayload::Engine { page_accesses, .. } = &payload.report {
                assert_eq!(Some(*page_accesses), outcome.report.page_accesses());
            }
            if let ReportPayload::Sql { statements } = &payload.report {
                assert_eq!(statements.as_slice(), outcome.report.statements().unwrap());
            }
        }
    }

    /// Satellite 6: the wire contract. Every `SetmError` variant has a
    /// pinned, stable code — and because `setm_error_code` matches
    /// exhaustively, *adding* a variant breaks this crate's build until a
    /// code is chosen, rather than silently changing the wire format.
    #[test]
    fn setm_error_codes_are_pinned() {
        use setm_core::SetmError as E;
        let table: [(E, &str, u16); 8] = [
            (E::InvalidSupportFraction { fraction: 1.5 }, "invalid_support_fraction", 400),
            (E::InvalidConfidence { confidence: 2.0 }, "invalid_confidence", 400),
            (E::InvalidMaxPatternLen, "invalid_max_pattern_len", 400),
            (E::InvalidEngineConfig { reason: "x".into() }, "invalid_engine_config", 400),
            (E::InvalidPlan { reason: "x".into() }, "invalid_plan", 400),
            (E::InvalidConstraints { reason: "x".into() }, "invalid_constraints", 400),
            (E::Engine(setm_relational::Error::NoSuchFile(1)), "engine_fault", 500),
            (E::Sql(setm_sql::SqlError::Parse("x".into())), "sql_fault", 500),
        ];
        for (err, code, status) in table {
            let c = setm_error_code(&err);
            assert_eq!(c.code, code, "{err}");
            assert_eq!(c.status, status, "{err}");
        }
    }

    #[test]
    fn error_responses_have_the_wire_shape() {
        let v = error_response(codes::QUEUE_FULL, "queue is at capacity (4)", Some(9));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("code").unwrap().as_str(), Some("queue_full"));
        assert_eq!(v.get("status").unwrap().as_u64(), Some(429));
        assert_eq!(v.get("job").unwrap().as_u64(), Some(9));
        let v = error_response(codes::BAD_REQUEST, "nope", None);
        assert!(v.get("job").is_none());
    }
}
