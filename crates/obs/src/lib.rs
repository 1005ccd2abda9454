//! Live telemetry for the SETM system: progress sinks, a metrics
//! registry, and per-job span logs.
//!
//! The paper's whole argument rests on per-iteration accounting
//! (|R'_k|, |R_k|, |C_k|, page I/O — Section 4.3), and every execution
//! already computes an `IterationTrace` per iteration. This crate makes
//! those numbers *observable while a run is still going*, without
//! perturbing them:
//!
//! * [`ObsSink`] — a callback trait the executions invoke at iteration
//!   boundaries ([`ObsEvent::Iteration`]) and around noteworthy phases
//!   (sorts, shard repartitions). Telemetry is strictly
//!   a side channel: sinks receive copies of already-computed numbers
//!   and can never feed anything back into the run, so deterministic
//!   counters (tuple counts, page accesses, plan strings) are
//!   byte-identical with or without an observer attached.
//! * [`MetricsRegistry`] — a lock-cheap registry of named counters,
//!   gauges, and fixed-bucket latency histograms. Handles are plain
//!   `Arc`s over atomics; the registry lock is only taken to create or
//!   enumerate metrics, never on the hot increment path.
//! * [`SpanLog`] — a ring-buffered map of job id → timed phase labels,
//!   so a slow or wedged job can be diagnosed from a second connection.
//!
//! Everything here is `std`-only and has no dependency on the mining
//! crates; `setm-core` calls *into* this crate, never the reverse.

mod metrics;
mod sink;
mod trace;

pub use metrics::{
    default_latency_bounds, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue,
    MetricsRegistry,
};
pub use sink::{IterationSnapshot, NullSink, ObsEvent, ObsSink, VecSink};
pub use trace::{SpanEvent, SpanLog};
