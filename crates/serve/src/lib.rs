//! # setm-serve — a concurrent mining service over the `Miner` facade
//!
//! The paper's thesis is that association-rule mining belongs *inside*
//! the database system, where set-oriented machinery — and the system's
//! clients — can drive it. This crate is that served form: a
//! long-running TCP server that accepts mining requests (dataset name +
//! `Miner` configuration), fans them across a bounded worker pool, and
//! streams back full [`setm_core::MiningOutcome`]s — itemsets, rules,
//! and the per-backend execution evidence — as newline-delimited JSON.
//!
//! Std-only by design (the workspace's `shims/` policy): the wire format
//! lives in [`json`] (hand-rolled serializer/parser) and [`protocol`];
//! datasets are shared across concurrent jobs by the [`registry`]; the
//! [`scheduler`] provides job ids, cancellation, and backpressure (a
//! full queue rejects with the protocol's 429-style `queue_full`); the
//! [`server`] is the accept loop with a graceful-drain shutdown verb and
//! [`client`] the typed blocking client behind the `setm-client` binary.
//!
//! In-process quickstart (the binaries wrap exactly this):
//!
//! ```
//! use setm_core::{Miner, MiningParams, MinSupport};
//! use setm_serve::{client::Client, registry::Registry, server::{ServeConfig, Server}};
//!
//! let server = Server::bind(ServeConfig::default(), Registry::with_builtins()).unwrap();
//! let addr = server.local_addr();
//! let handle = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr).unwrap();
//! let reply = client
//!     .mine("example", Miner::new(MiningParams::new(MinSupport::Fraction(0.3), 0.7)))
//!     .unwrap();
//! assert_eq!(reply.outcome.rules.len(), 11); // the Section 5 listing, served
//!
//! client.shutdown().unwrap();
//! handle.join().unwrap();
//! ```

pub mod client;
pub mod json;
pub mod protocol;
pub mod registry;
pub mod scheduler;
pub mod server;

pub use client::{Client, ClientError, MineReply, ServerStatus};
pub use protocol::{
    outcome_from_json, outcome_to_json, progress_event_from_json, progress_event_to_json,
    setm_error_code, ErrorCode, MineRequest, OutcomePayload, ProgressEvent, ReportPayload, Request,
    RulePayload, TracePayload,
};
pub use registry::{DatasetInfo, Registry, RegistryError};
pub use scheduler::{
    JobResult, MineJob, Scheduler, SchedulerMetrics, SchedulerStatus, SubmitError, Ticket,
};
pub use server::{ServeConfig, Server};
