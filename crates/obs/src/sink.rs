//! The observer seam the executions report through.

use std::sync::Mutex;

/// A finished SETM iteration, as reported to an [`ObsSink`]. This is the
/// plain-data form of the execution's `IterationTrace` row — the same
/// numbers that end up in the outcome's `trace` array, available the
/// moment the iteration completes instead of after the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationSnapshot {
    /// Pattern length `k` (iteration number in the paper's figures).
    pub k: usize,
    /// `|R'_k|` tuples before support filtering.
    pub r_prime_tuples: u64,
    /// `|R_k|` tuples after support filtering.
    pub r_tuples: u64,
    /// Size of `R_k` in Kbytes.
    pub r_kbytes: f64,
    /// `|C_k|`.
    pub c_len: u64,
    /// Page accesses charged during this iteration (engine execution).
    pub page_accesses: u64,
    /// Estimated I/O milliseconds under the pager's cost model.
    pub estimated_io_ms: f64,
    /// Page reads absorbed by the buffer cache this iteration.
    pub cache_hits: u64,
    /// Candidate extensions rejected by constraint pushdown this
    /// iteration (zero for unconstrained runs).
    pub candidates_pruned: u64,
    /// The executed physical plan's display form (`"-"` for k = 1).
    pub plan: String,
}

/// One telemetry event from a running execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// An iteration of the Figure 4 loop finished; carries the row that
    /// was just appended to the trace.
    Iteration(IterationSnapshot),
    /// A named phase (a sort, a repartition) began at iteration `k`.
    PhaseStart { name: &'static str, k: usize },
    /// The matching phase ended.
    PhaseEnd { name: &'static str, k: usize },
    /// A one-shot annotated measurement: `repartition` reports the new
    /// shard count, and so on.
    Note { name: &'static str, k: usize, value: u64 },
}

impl ObsEvent {
    /// The iteration this event belongs to.
    pub fn k(&self) -> usize {
        match self {
            ObsEvent::Iteration(s) => s.k,
            ObsEvent::PhaseStart { k, .. }
            | ObsEvent::PhaseEnd { k, .. }
            | ObsEvent::Note { k, .. } => *k,
        }
    }
}

/// Where telemetry events go. Implementations must be cheap and
/// non-blocking in spirit: the executions call [`ObsSink::on_event`]
/// between phases on the coordinator thread, so a slow sink slows the
/// mine (it can never change its *results* — events are copies of
/// already-computed numbers).
pub trait ObsSink: Send + Sync {
    /// Receive one event. Events for one run arrive in order.
    fn on_event(&self, event: &ObsEvent);
}

/// The default sink: drops everything. Observing a run through
/// `NullSink` is exactly not observing it.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl ObsSink for NullSink {
    fn on_event(&self, _event: &ObsEvent) {}
}

/// A sink that collects every event (tests, examples, CI assertions).
#[derive(Debug, Default)]
pub struct VecSink {
    events: Mutex<Vec<ObsEvent>>,
}

impl VecSink {
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// Drain the collected events.
    pub fn take(&self) -> Vec<ObsEvent> {
        std::mem::take(&mut *self.events.lock().expect("sink lock"))
    }

    /// How many events have been collected so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("sink lock").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ObsSink for VecSink {
    fn on_event(&self, event: &ObsEvent) {
        self.events.lock().expect("sink lock").push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sink_collects_in_order() {
        let sink = VecSink::new();
        sink.on_event(&ObsEvent::PhaseStart { name: "sort", k: 2 });
        sink.on_event(&ObsEvent::PhaseEnd { name: "sort", k: 2 });
        sink.on_event(&ObsEvent::Note { name: "repartition", k: 3, value: 1 });
        let events = sink.take();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].k(), 2);
        assert_eq!(events[2], ObsEvent::Note { name: "repartition", k: 3, value: 1 });
        assert!(sink.is_empty(), "take drains");
    }

    #[test]
    fn sinks_are_object_safe_and_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<std::sync::Arc<dyn ObsSink>>();
        let boxed: Box<dyn ObsSink> = Box::new(NullSink);
        boxed.on_event(&ObsEvent::PhaseStart { name: "sort", k: 2 });
    }
}
