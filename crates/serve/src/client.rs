//! The client library: a typed, blocking connection to a `setm-serve`
//! server.
//!
//! One [`Client`] wraps one TCP connection. Mining uses the same
//! [`Miner`] builder as local runs — the client ships its configuration
//! over the wire and hands back the decoded outcome plus the *raw*
//! outcome JSON (which is byte-identical to
//! `protocol::outcome_to_json(&local_outcome).to_string()`; the
//! end-to-end tests assert exactly that).
//!
//! ```no_run
//! use setm_serve::client::Client;
//! use setm_core::{Miner, MiningParams, MinSupport};
//!
//! let mut client = Client::connect("127.0.0.1:7878").unwrap();
//! let reply = client
//!     .mine("example", Miner::new(MiningParams::new(MinSupport::Fraction(0.3), 0.7)))
//!     .unwrap();
//! assert_eq!(reply.outcome.rules.len(), 11);
//! ```

use crate::json::{self, Json};
use crate::protocol::{self, MineRequest, OutcomePayload, ProgressEvent};
use crate::registry::DatasetInfo;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use setm_core::Miner;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or dropped.
    Io(std::io::Error),
    /// The server sent something that is not valid protocol.
    Protocol(String),
    /// The server answered with a protocol error response.
    Server {
        /// The stable machine-readable code (e.g. `queue_full`).
        code: String,
        /// The HTTP-style status class (429 for backpressure, ...).
        status: u16,
        /// Human-readable description.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { code, status, message } => {
                write!(f, "server error {status} ({code}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A completed served mining job.
#[derive(Debug, Clone)]
pub struct MineReply {
    /// The server-assigned job id.
    pub job: u64,
    /// The decoded outcome.
    pub outcome: OutcomePayload,
    /// The outcome object exactly as serialized by the server —
    /// byte-identical to a local `outcome_to_json(..).to_string()`.
    pub raw_outcome: String,
    /// How the server produced the response: `cache`, `delta`, or
    /// `full`. `None` when talking to a pre-incremental server.
    pub served_via: Option<String>,
}

/// Counters from the `status` verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStatus {
    pub schema: String,
    pub workers: u64,
    pub queue_capacity: u64,
    pub connections: u64,
    pub max_connections: u64,
    pub queued: u64,
    pub running: u64,
    pub completed: u64,
    pub rejected: u64,
    pub cancelled: u64,
    pub draining: bool,
    pub datasets: u64,
    pub datasets_loaded: u64,
    pub hardware_threads: u64,
    /// What a `threads: 0` request resolves to on the server (0 from a
    /// pre-incremental server).
    pub available_parallelism: u64,
    /// Outcome-cache and serving-route counters (0 from a
    /// pre-incremental server).
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub served_cache: u64,
    pub served_delta: u64,
    pub served_full: u64,
    /// The per-connection request budget (0 = unlimited) and how many
    /// lines have been rejected over it.
    pub rate_limit: u64,
    pub rate_limited: u64,
}

/// One blocking protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a server. Nagle's algorithm is off (TCP_NODELAY): each
    /// request is one small line, sent the moment it is written.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    fn send(&mut self, request: &Json) -> Result<(), ClientError> {
        let mut line = request.to_string();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    /// Read one response line; protocol errors become `Err`.
    fn read_response(&mut self) -> Result<Json, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Protocol("server closed the connection".to_string()));
        }
        let v = json::parse(line.trim())
            .map_err(|e| ClientError::Protocol(format!("bad response line: {e}")))?;
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(v),
            Some(false) => Err(ClientError::Server {
                code: v.get("code").and_then(Json::as_str).unwrap_or("unknown").to_string(),
                status: v.get("status").and_then(Json::as_u64).unwrap_or(500) as u16,
                message: v.get("error").and_then(Json::as_str).unwrap_or("").to_string(),
            }),
            None => Err(ClientError::Protocol("response missing `ok`".to_string())),
        }
    }

    fn expect_event(v: &Json, event: &str) -> Result<(), ClientError> {
        match v.get("event").and_then(Json::as_str) {
            Some(e) if e == event => Ok(()),
            other => Err(ClientError::Protocol(format!("expected event {event:?}, got {other:?}"))),
        }
    }

    /// Submit a mining job and return its id once the server accepts it.
    /// Follow with [`Client::wait_outcome`] to collect the result; the
    /// pair is equivalent to [`Client::mine`] but exposes the id early
    /// enough for a second connection to `cancel` it.
    pub fn submit(&mut self, dataset: &str, miner: Miner) -> Result<u64, ClientError> {
        self.submit_request(dataset, miner, false)
    }

    /// Like [`Client::submit`], but opt into the server's live progress
    /// stream: `progress` event lines arrive between `accepted` and the
    /// outcome. Collect with [`Client::wait_outcome_observed`] (or
    /// [`Client::wait_outcome`], which discards them).
    pub fn submit_with_progress(
        &mut self,
        dataset: &str,
        miner: Miner,
    ) -> Result<u64, ClientError> {
        self.submit_request(dataset, miner, true)
    }

    fn submit_request(
        &mut self,
        dataset: &str,
        miner: Miner,
        progress: bool,
    ) -> Result<u64, ClientError> {
        let req = MineRequest { dataset: dataset.to_string(), miner, progress };
        self.send(&req.to_json())?;
        let accepted = self.read_response()?;
        Self::expect_event(&accepted, "accepted")?;
        accepted
            .get("job")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("accepted line missing job id".to_string()))
    }

    /// Collect the outcome of the job most recently submitted on this
    /// connection. Interleaved `progress` lines (from a
    /// [`Client::submit_with_progress`] submission) are skipped.
    pub fn wait_outcome(&mut self) -> Result<MineReply, ClientError> {
        self.wait_outcome_observed(|_| {})
    }

    /// Collect the outcome, invoking `on_progress` for every streamed
    /// `progress` event that precedes it.
    pub fn wait_outcome_observed(
        &mut self,
        mut on_progress: impl FnMut(&ProgressEvent),
    ) -> Result<MineReply, ClientError> {
        let line = loop {
            let line = self.read_response()?;
            match line.get("event").and_then(Json::as_str) {
                Some("progress") => {
                    let (_, event) =
                        protocol::progress_event_from_json(&line).map_err(ClientError::Protocol)?;
                    on_progress(&event);
                }
                _ => break line,
            }
        };
        Self::expect_event(&line, "outcome")?;
        let job = line
            .get("job")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("outcome line missing job id".to_string()))?;
        let outcome_json = line
            .get("outcome")
            .ok_or_else(|| ClientError::Protocol("outcome line missing outcome".to_string()))?;
        let outcome = protocol::outcome_from_json(outcome_json).map_err(ClientError::Protocol)?;
        let served_via = line.get("served_via").and_then(Json::as_str).map(str::to_string);
        Ok(MineReply { job, outcome, raw_outcome: outcome_json.to_string(), served_via })
    }

    /// Mine `dataset` with the given miner configuration on the server
    /// and wait for the outcome.
    pub fn mine(&mut self, dataset: &str, miner: Miner) -> Result<MineReply, ClientError> {
        self.submit(dataset, miner)?;
        self.wait_outcome()
    }

    /// Mine with a live progress stream: `on_progress` fires for every
    /// event the server streams (one `iteration` event per SETM
    /// iteration, plus phase and note events), then the outcome returns.
    pub fn mine_observed(
        &mut self,
        dataset: &str,
        miner: Miner,
        on_progress: impl FnMut(&ProgressEvent),
    ) -> Result<MineReply, ClientError> {
        self.submit_with_progress(dataset, miner)?;
        self.wait_outcome_observed(on_progress)
    }

    /// Register a new named dataset (version 1) from `(trans_id, items)`
    /// pairs. Returns the created version. Fails with `bad_request` if
    /// the name is taken (append to it instead).
    pub fn register_dataset(
        &mut self,
        name: &str,
        transactions: &[(u32, Vec<u32>)],
    ) -> Result<u64, ClientError> {
        self.mutate("register-dataset", "registered", name, transactions)
    }

    /// Append new transactions to an existing dataset, bumping its
    /// version. Returns the new version; older versions stay addressable
    /// as `name@v`.
    pub fn append_batch(
        &mut self,
        name: &str,
        transactions: &[(u32, Vec<u32>)],
    ) -> Result<u64, ClientError> {
        self.mutate("append-batch", "appended", name, transactions)
    }

    fn mutate(
        &mut self,
        op: &str,
        event: &str,
        name: &str,
        transactions: &[(u32, Vec<u32>)],
    ) -> Result<u64, ClientError> {
        self.send(&Json::obj([
            ("op", Json::str(op)),
            ("name", Json::str(name)),
            ("transactions", protocol::transactions_to_json(transactions)),
        ]))?;
        let v = self.read_response()?;
        Self::expect_event(&v, event)?;
        v.get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol(format!("{event} line missing version")))
    }

    /// List the datasets the server can mine.
    pub fn list_datasets(&mut self) -> Result<Vec<DatasetInfo>, ClientError> {
        self.send(&Json::obj([("op", Json::str("list-datasets"))]))?;
        let v = self.read_response()?;
        Self::expect_event(&v, "datasets")?;
        v.get("datasets")
            .and_then(Json::as_array)
            .ok_or_else(|| ClientError::Protocol("missing datasets array".to_string()))?
            .iter()
            .map(|d| {
                Ok(DatasetInfo {
                    name: d
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| ClientError::Protocol("dataset missing name".to_string()))?
                        .to_string(),
                    description: d
                        .get("description")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    // Pre-incremental servers do not version datasets;
                    // everything they list is (and stays) version 1.
                    version: d.get("version").and_then(Json::as_u64).unwrap_or(1),
                    loaded: d.get("loaded").and_then(Json::as_bool).unwrap_or(false),
                    n_transactions: d.get("n_transactions").and_then(Json::as_u64),
                    n_rows: d.get("n_rows").and_then(Json::as_u64),
                })
            })
            .collect()
    }

    /// Fetch the server's status counters.
    pub fn status(&mut self) -> Result<ServerStatus, ClientError> {
        self.send(&Json::obj([("op", Json::str("status"))]))?;
        let v = self.read_response()?;
        Self::expect_event(&v, "status")?;
        let u = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
        Ok(ServerStatus {
            schema: v.get("schema").and_then(Json::as_str).unwrap_or("").to_string(),
            workers: u("workers"),
            queue_capacity: u("queue_capacity"),
            connections: u("connections"),
            max_connections: u("max_connections"),
            queued: u("queued"),
            running: u("running"),
            completed: u("completed"),
            rejected: u("rejected"),
            cancelled: u("cancelled"),
            draining: v.get("draining").and_then(Json::as_bool).unwrap_or(false),
            datasets: u("datasets"),
            datasets_loaded: u("datasets_loaded"),
            hardware_threads: u("hardware_threads"),
            available_parallelism: u("available_parallelism"),
            cache_hits: u("cache_hits"),
            cache_misses: u("cache_misses"),
            served_cache: u("served_cache"),
            served_delta: u("served_delta"),
            served_full: u("served_full"),
            rate_limit: u("rate_limit"),
            rate_limited: u("rate_limited"),
        })
    }

    /// Fetch the server's metrics registry as a flat JSON object
    /// (metric name → counter/gauge number, or a histogram summary
    /// object with `count`/`sum_ms`/`p50_ms`/`p90_ms`/`p99_ms`).
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        self.send(&Json::obj([("op", Json::str("metrics"))]))?;
        let v = self.read_response()?;
        Self::expect_event(&v, "metrics")?;
        v.get("metrics")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("metrics line missing `metrics`".to_string()))
    }

    /// Fetch the metrics in Prometheus-style text exposition.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        self.send(&Json::obj([("op", Json::str("metrics")), ("format", Json::str("text"))]))?;
        let v = self.read_response()?;
        Self::expect_event(&v, "metrics")?;
        v.get("text")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("metrics line missing `text`".to_string()))
    }

    /// Fetch the span log of a recent job as `(label, at_ms)` rows.
    /// Fails with `unknown_job` (404) once the job ages out of the ring.
    pub fn trace(&mut self, job: u64) -> Result<Vec<(String, f64)>, ClientError> {
        self.send(&Json::obj([("op", Json::str("trace")), ("job", Json::u64(job))]))?;
        let v = self.read_response()?;
        Self::expect_event(&v, "trace")?;
        v.get("spans")
            .and_then(Json::as_array)
            .ok_or_else(|| ClientError::Protocol("trace line missing `spans`".to_string()))?
            .iter()
            .map(|s| {
                let label = s
                    .get("label")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ClientError::Protocol("span missing `label`".to_string()))?
                    .to_string();
                let at_ms = s
                    .get("at_ms")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ClientError::Protocol("span missing `at_ms`".to_string()))?;
                Ok((label, at_ms))
            })
            .collect()
    }

    /// Cancel a queued job by id. Returns whether it was dequeued.
    pub fn cancel(&mut self, job: u64) -> Result<bool, ClientError> {
        self.send(&Json::obj([("op", Json::str("cancel")), ("job", Json::u64(job))]))?;
        let v = self.read_response()?;
        Self::expect_event(&v, "cancel")?;
        Ok(v.get("dequeued").and_then(Json::as_bool).unwrap_or(false))
    }

    /// Ask the server to drain and shut down. Returns the number of jobs
    /// that were still pending when the drain began.
    pub fn shutdown(&mut self) -> Result<u64, ClientError> {
        self.send(&Json::obj([("op", Json::str("shutdown"))]))?;
        let v = self.read_response()?;
        Self::expect_event(&v, "shutting-down")?;
        Ok(v.get("pending").and_then(Json::as_u64).unwrap_or(0))
    }
}
