//! The job scheduler: a bounded worker pool in front of the `Miner`
//! facade.
//!
//! Connection handlers submit [`MineJob`]s; a fixed pool of OS worker
//! threads drains a bounded FIFO queue and runs each job's
//! `Miner::run(dataset)`. The bounds are the backpressure story:
//!
//! * **queue full** → [`SubmitError::QueueFull`] immediately (the server
//!   turns this into the protocol's 429-style `queue_full` error) — a
//!   burst beyond `workers + queue_capacity` is *rejected*, not buffered
//!   without limit;
//! * **draining** → [`SubmitError::ShuttingDown`]; in-flight and queued
//!   jobs still complete, new ones are refused.
//!
//! Every job gets a process-unique id at submission. A *queued* job can
//! be cancelled by id ([`Scheduler::cancel`]); its submitter receives
//! `JobResult::Cancelled`. A job already running is not preempted —
//! mining passes are CPU-bound with no safe interruption points — and
//! `cancel` reports that by returning `false`.

use setm_core::{Dataset, Miner, MiningOutcome, SetmError};
use setm_obs::{default_latency_bounds, Counter, Gauge, Histogram, MetricsRegistry};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A unit of work: anything that yields a mining outcome. The common
/// case is one facade run against a shared dataset ([`MineJob::new`]);
/// the incremental path submits a closure that replays deltas onto a
/// frontier instead ([`MineJob::from_work`]) — either way the pool's
/// bounds, cancellation, and panic containment apply uniformly.
pub struct MineJob {
    work: Box<dyn FnOnce() -> Result<MiningOutcome, SetmError> + Send + 'static>,
    /// Test seam: a worker that picks this job up parks on the gate
    /// until the test opens it, making "the worker is busy" a fact the
    /// tests can establish instead of a race they must win.
    #[cfg(test)]
    gate: Option<Arc<tests::Gate>>,
}

impl MineJob {
    /// A job for `miner` over `dataset` (shared with the registry cache,
    /// never copied).
    pub fn new(miner: Miner, dataset: Arc<Dataset>) -> Self {
        MineJob::from_work(move || miner.run(&dataset))
    }

    /// A job running arbitrary mining work in the pool.
    pub fn from_work(
        work: impl FnOnce() -> Result<MiningOutcome, SetmError> + Send + 'static,
    ) -> Self {
        MineJob {
            work: Box::new(work),
            #[cfg(test)]
            gate: None,
        }
    }
}

/// What a submitted job resolves to.
#[derive(Debug)]
pub enum JobResult {
    /// The run finished (successfully or with a typed mining error).
    Finished(Result<MiningOutcome, SetmError>),
    /// The job was cancelled while still queued; it never ran.
    Cancelled,
    /// The run panicked. Mining bugs surface as typed errors, so this is
    /// defense in depth: the worker survives (caught with
    /// `catch_unwind`) and the pool keeps its size.
    Panicked,
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity — retry later.
    QueueFull { capacity: usize },
    /// The scheduler is draining; no new work is accepted.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "job queue is at capacity ({capacity}); retry later")
            }
            SubmitError::ShuttingDown => write!(f, "scheduler is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A submitted job: its id plus the receiver its result arrives on.
#[derive(Debug)]
pub struct Ticket {
    /// Process-unique job id (echoed on the wire; target of `cancel`).
    pub job: u64,
    rx: mpsc::Receiver<JobResult>,
}

impl Ticket {
    /// Block until the job resolves. A dead scheduler (drained while the
    /// job was queued — cannot happen through the public API, which
    /// drains only after the queue empties) surfaces as `Cancelled`.
    pub fn wait(self) -> JobResult {
        self.rx.recv().unwrap_or(JobResult::Cancelled)
    }
}

struct QueuedJob {
    id: u64,
    job: MineJob,
    reply: mpsc::Sender<JobResult>,
    /// When the job entered the queue — the worker that dequeues it
    /// observes the elapsed wait into `queue_wait_ms`.
    enqueued: Instant,
}

#[derive(Default)]
struct State {
    queue: VecDeque<QueuedJob>,
    running: usize,
    draining: bool,
    next_id: u64,
}

/// The scheduler's instruments. Lifetime counters (previously plain
/// fields in the state mutex) now live in shareable metric handles so
/// the `metrics` verb and the `status` verb read the *same* cells — the
/// two can never disagree.
pub struct SchedulerMetrics {
    /// Jobs a worker finished (successfully, with an error, or panicked).
    pub completed: Arc<Counter>,
    /// Submissions refused (queue full or draining).
    pub rejected: Arc<Counter>,
    /// Queued jobs cancelled before a worker picked them up.
    pub cancelled: Arc<Counter>,
    /// Current queue length.
    pub queue_depth: Arc<Gauge>,
    /// Jobs currently executing on workers.
    pub running: Arc<Gauge>,
    /// Milliseconds jobs spent queued before a worker dequeued them.
    pub queue_wait_ms: Arc<Histogram>,
}

impl SchedulerMetrics {
    /// Standalone handles, not visible in any registry — for embedded or
    /// test use of the scheduler without a metrics endpoint.
    pub fn detached() -> SchedulerMetrics {
        SchedulerMetrics {
            completed: Arc::new(Counter::new()),
            rejected: Arc::new(Counter::new()),
            cancelled: Arc::new(Counter::new()),
            queue_depth: Arc::new(Gauge::new()),
            running: Arc::new(Gauge::new()),
            queue_wait_ms: Arc::new(Histogram::new(default_latency_bounds())),
        }
    }

    /// Handles registered under the canonical `setm_scheduler_*` names,
    /// so they appear in the registry's `metrics` snapshot.
    pub fn registered(registry: &MetricsRegistry) -> SchedulerMetrics {
        SchedulerMetrics {
            completed: registry.counter("setm_scheduler_completed_total"),
            rejected: registry.counter("setm_scheduler_rejected_total"),
            cancelled: registry.counter("setm_scheduler_cancelled_total"),
            queue_depth: registry.gauge("setm_scheduler_queue_depth"),
            running: registry.gauge("setm_scheduler_running"),
            queue_wait_ms: registry
                .histogram("setm_scheduler_queue_wait_ms", default_latency_bounds()),
        }
    }
}

struct Inner {
    state: Mutex<State>,
    /// Signalled on enqueue and on drain; workers wait on it.
    work: Condvar,
    /// Signalled when a job finishes; `drain` waits on it.
    idle: Condvar,
    queue_capacity: usize,
    metrics: SchedulerMetrics,
}

/// Counters reported by the `status` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerStatus {
    pub workers: usize,
    pub queue_capacity: usize,
    pub queued: usize,
    pub running: usize,
    pub completed: u64,
    pub rejected: u64,
    pub cancelled: u64,
    pub draining: bool,
}

/// The bounded worker pool. Dropping it drains gracefully.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    n_workers: usize,
}

impl Scheduler {
    /// Start `workers` OS threads behind a queue of `queue_capacity`
    /// pending jobs. Both bounds must be at least 1. Counters are
    /// detached; use [`Scheduler::with_metrics`] to expose them in a
    /// registry.
    pub fn new(workers: usize, queue_capacity: usize) -> Self {
        Scheduler::with_metrics(workers, queue_capacity, SchedulerMetrics::detached())
    }

    /// Like [`Scheduler::new`], recording into the given metric handles
    /// (typically [`SchedulerMetrics::registered`]).
    pub fn with_metrics(workers: usize, queue_capacity: usize, metrics: SchedulerMetrics) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
            queue_capacity: queue_capacity.max(1),
            metrics,
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Scheduler { inner, workers: Mutex::new(handles), n_workers: workers }
    }

    /// Submit a job. Returns its [`Ticket`] immediately; the result is
    /// delivered through it when a worker finishes the run.
    pub fn submit(&self, job: MineJob) -> Result<Ticket, SubmitError> {
        let mut state = self.inner.state.lock().expect("scheduler lock");
        if state.draining {
            self.inner.metrics.rejected.inc();
            return Err(SubmitError::ShuttingDown);
        }
        if state.queue.len() >= self.inner.queue_capacity {
            self.inner.metrics.rejected.inc();
            return Err(SubmitError::QueueFull { capacity: self.inner.queue_capacity });
        }
        state.next_id += 1;
        let id = state.next_id;
        self.enqueue_locked(&mut state, id, job)
    }

    /// Submit a job under a *pre-allocated* id (from
    /// [`Scheduler::allocate_job_id`]). The serve layer uses this when
    /// the job's telemetry sink must know its id before the work is
    /// queued — the span log and streamed `progress` lines carry the id
    /// the client will see on the `accepted` line.
    pub fn submit_as(&self, id: u64, job: MineJob) -> Result<Ticket, SubmitError> {
        let mut state = self.inner.state.lock().expect("scheduler lock");
        if state.draining {
            self.inner.metrics.rejected.inc();
            return Err(SubmitError::ShuttingDown);
        }
        if state.queue.len() >= self.inner.queue_capacity {
            self.inner.metrics.rejected.inc();
            return Err(SubmitError::QueueFull { capacity: self.inner.queue_capacity });
        }
        self.enqueue_locked(&mut state, id, job)
    }

    fn enqueue_locked(
        &self,
        state: &mut State,
        id: u64,
        job: MineJob,
    ) -> Result<Ticket, SubmitError> {
        let (tx, rx) = mpsc::channel();
        state.queue.push_back(QueuedJob { id, job, reply: tx, enqueued: Instant::now() });
        self.inner.metrics.queue_depth.set(state.queue.len() as u64);
        self.inner.work.notify_one();
        Ok(Ticket { job: id, rx })
    }

    /// Reserve the next job id without queueing any work. Cache hits use
    /// this so every response — scheduled or served from the outcome
    /// cache — carries a process-unique id from the same sequence.
    pub fn allocate_job_id(&self) -> u64 {
        let mut state = self.inner.state.lock().expect("scheduler lock");
        state.next_id += 1;
        state.next_id
    }

    /// Cancel a *queued* job. Returns `true` if it was dequeued (its
    /// submitter receives [`JobResult::Cancelled`]); `false` if it is
    /// unknown or already running.
    pub fn cancel(&self, job: u64) -> bool {
        let mut state = self.inner.state.lock().expect("scheduler lock");
        let Some(pos) = state.queue.iter().position(|q| q.id == job) else {
            return false;
        };
        let queued = state.queue.remove(pos).expect("position just found");
        self.inner.metrics.cancelled.inc();
        self.inner.metrics.queue_depth.set(state.queue.len() as u64);
        let _ = queued.reply.send(JobResult::Cancelled);
        true
    }

    /// A point-in-time snapshot of the counters.
    pub fn status(&self) -> SchedulerStatus {
        let state = self.inner.state.lock().expect("scheduler lock");
        SchedulerStatus {
            workers: self.n_workers,
            queue_capacity: self.inner.queue_capacity,
            queued: state.queue.len(),
            running: state.running,
            completed: self.inner.metrics.completed.get(),
            rejected: self.inner.metrics.rejected.get(),
            cancelled: self.inner.metrics.cancelled.get(),
            draining: state.draining,
        }
    }

    /// Queued + running jobs (what a drain will wait for).
    pub fn pending(&self) -> usize {
        let state = self.inner.state.lock().expect("scheduler lock");
        state.queue.len() + state.running
    }

    /// Start refusing new submissions without waiting for in-flight work
    /// (the shutdown verb calls this; the accept loop's [`Scheduler::drain`]
    /// does the blocking part).
    pub fn begin_drain(&self) {
        let mut state = self.inner.state.lock().expect("scheduler lock");
        state.draining = true;
        self.inner.work.notify_all();
    }

    /// Graceful drain: refuse new submissions, let every queued and
    /// running job finish, then join the workers. Idempotent.
    pub fn drain(&self) {
        {
            let mut state = self.inner.state.lock().expect("scheduler lock");
            state.draining = true;
            self.inner.work.notify_all();
            while !state.queue.is_empty() || state.running > 0 {
                state = self.inner.idle.wait(state).expect("scheduler lock");
            }
        }
        let handles: Vec<_> = self.workers.lock().expect("worker handles").drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.drain();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let queued = {
            let mut state = inner.state.lock().expect("scheduler lock");
            loop {
                if let Some(q) = state.queue.pop_front() {
                    state.running += 1;
                    inner.metrics.queue_depth.set(state.queue.len() as u64);
                    inner.metrics.running.set(state.running as u64);
                    break q;
                }
                if state.draining {
                    return;
                }
                state = inner.work.wait(state).expect("scheduler lock");
            }
        };
        inner.metrics.queue_wait_ms.observe(queued.enqueued.elapsed().as_secs_f64() * 1e3);
        #[cfg(test)]
        if let Some(gate) = &queued.job.gate {
            gate.wait_open();
        }
        // Run outside the lock — this is the long, CPU-bound part. A
        // panic must not kill the worker or leak the `running` counter
        // (drain() waits on it), so it is caught and reported.
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (queued.job.work)()));
        let result = match run {
            Ok(outcome) => JobResult::Finished(outcome),
            Err(_) => JobResult::Panicked,
        };
        // Count the job before its reply leaves: a client holding an
        // outcome must see it in `status` and `metrics`.
        {
            let mut state = inner.state.lock().expect("scheduler lock");
            state.running -= 1;
            inner.metrics.running.set(state.running as u64);
            inner.metrics.completed.inc();
            inner.idle.notify_all();
        }
        let _ = queued.reply.send(result);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use setm_core::{example, Backend, MinSupport, MiningParams};

    /// The test seam workers park on: a worker holding a gated job
    /// blocks in `wait_open` until the test calls `open`, so "the worker
    /// is busy" is established deterministically, not raced.
    pub(crate) struct Gate {
        open: Mutex<bool>,
        cv: Condvar,
    }

    impl Gate {
        fn new() -> Arc<Gate> {
            Arc::new(Gate { open: Mutex::new(false), cv: Condvar::new() })
        }

        fn open(&self) {
            *self.open.lock().expect("gate lock") = true;
            self.cv.notify_all();
        }

        pub(crate) fn wait_open(&self) {
            let mut open = self.open.lock().expect("gate lock");
            while !*open {
                open = self.cv.wait(open).expect("gate lock");
            }
        }
    }

    fn example_job() -> MineJob {
        MineJob::new(
            Miner::new(example::paper_example_params()),
            Arc::new(example::paper_example_dataset()),
        )
    }

    /// An example job whose worker parks on the returned gate.
    fn gated_job() -> (MineJob, Arc<Gate>) {
        let gate = Gate::new();
        let mut job = example_job();
        job.gate = Some(Arc::clone(&gate));
        (job, gate)
    }

    /// Spin until the worker has dequeued the (gated) first job; the
    /// gate guarantees it then *stays* busy.
    fn wait_until_busy(s: &Scheduler) {
        while s.status().running == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn jobs_run_and_resolve_with_unique_ids() {
        let s = Scheduler::new(2, 8);
        let tickets: Vec<Ticket> = (0..4).map(|_| s.submit(example_job()).unwrap()).collect();
        let ids: Vec<u64> = tickets.iter().map(|t| t.job).collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        for t in tickets {
            match t.wait() {
                JobResult::Finished(Ok(outcome)) => assert_eq!(outcome.rules.len(), 11),
                other => panic!("unexpected result: {other:?}"),
            }
        }
        s.drain();
        let st = s.status();
        assert_eq!(st.completed, 4);
        assert_eq!(st.queued, 0);
        assert_eq!(st.rejected, 0);
    }

    /// Registered metrics record what `status` reports — one set of
    /// cells, two views. `submit_as` honors a pre-allocated id.
    #[test]
    fn registered_metrics_observe_queue_waits_and_counts() {
        let registry = MetricsRegistry::new();
        let s = Scheduler::with_metrics(1, 4, SchedulerMetrics::registered(&registry));
        let id = s.allocate_job_id();
        let t = s.submit_as(id, example_job()).unwrap();
        assert_eq!(t.job, id);
        assert!(matches!(t.wait(), JobResult::Finished(Ok(_))));
        s.drain();
        assert_eq!(registry.counter("setm_scheduler_completed_total").get(), 1);
        assert_eq!(registry.counter("setm_scheduler_completed_total").get(), s.status().completed);
        let wait =
            registry.histogram("setm_scheduler_queue_wait_ms", default_latency_bounds()).snapshot();
        assert_eq!(wait.count, 1, "one dequeue, one wait observation");
        assert_eq!(registry.gauge("setm_scheduler_queue_depth").get(), 0);
        assert_eq!(registry.gauge("setm_scheduler_running").get(), 0);
    }

    #[test]
    fn mining_errors_come_back_typed() {
        let s = Scheduler::new(1, 4);
        let bad = MineJob::new(
            Miner::new(MiningParams::new(MinSupport::Fraction(2.0), 0.5)),
            Arc::new(example::paper_example_dataset()),
        );
        match s.submit(bad).unwrap().wait() {
            JobResult::Finished(Err(SetmError::InvalidSupportFraction { .. })) => {}
            other => panic!("unexpected result: {other:?}"),
        }
    }

    /// Backpressure: with the single worker blocked and the queue full,
    /// the next submission is rejected with `QueueFull` (never buffered).
    #[test]
    fn full_queue_rejects_submissions() {
        let s = Scheduler::new(1, 1);
        let (job, gate) = gated_job();
        let first = s.submit(job).unwrap();
        // The worker parks on the gate, so the queue slot is genuinely
        // free for the second job — and stays occupied for the third.
        wait_until_busy(&s);
        let second = s.submit(example_job()).unwrap();
        let rejected = s.submit(example_job());
        match rejected {
            Err(SubmitError::QueueFull { capacity: 1 }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(s.status().rejected, 1);
        gate.open();
        assert!(matches!(first.wait(), JobResult::Finished(Ok(_))));
        assert!(matches!(second.wait(), JobResult::Finished(Ok(_))));
    }

    #[test]
    fn queued_jobs_cancel_but_running_jobs_do_not() {
        let s = Scheduler::new(1, 4);
        let (job, gate) = gated_job();
        let first = s.submit(job).unwrap();
        wait_until_busy(&s);
        let second = s.submit(example_job()).unwrap();
        assert!(s.cancel(second.job), "queued job must cancel");
        assert!(!s.cancel(second.job), "already gone");
        assert!(!s.cancel(first.job), "running job is not preempted");
        assert!(!s.cancel(9999), "unknown id");
        assert!(matches!(second.wait(), JobResult::Cancelled));
        gate.open();
        assert!(matches!(first.wait(), JobResult::Finished(Ok(_))));
        assert_eq!(s.status().cancelled, 1);
    }

    #[test]
    fn drain_finishes_pending_work_then_refuses_more() {
        let s = Scheduler::new(2, 8);
        let tickets: Vec<Ticket> = (0..6).map(|_| s.submit(example_job()).unwrap()).collect();
        s.drain();
        for t in tickets {
            assert!(matches!(t.wait(), JobResult::Finished(Ok(_))), "drained jobs complete");
        }
        assert_eq!(s.submit(example_job()).unwrap_err(), SubmitError::ShuttingDown);
        assert!(s.status().draining);
        s.drain(); // idempotent
    }

    #[test]
    fn concurrent_submitters_all_resolve() {
        let s = Arc::new(Scheduler::new(4, 64));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..4 {
                        let t = s.submit(MineJob::new(
                            Miner::new(example::paper_example_params()).backend(Backend::Sql),
                            Arc::new(example::paper_example_dataset()),
                        ));
                        match t.unwrap().wait() {
                            JobResult::Finished(Ok(o)) => assert_eq!(o.rules.len(), 11),
                            other => panic!("unexpected: {other:?}"),
                        }
                    }
                });
            }
        });
        s.drain();
        assert_eq!(s.status().completed, 32);
    }

    /// A job is counted before its reply leaves, so a caller holding an
    /// outcome always sees it in `completed`.
    #[test]
    fn a_delivered_job_is_already_counted() {
        let s = Scheduler::new(2, 8);
        for waited in 1..=200u64 {
            let ticket = s.submit(example_job()).unwrap();
            assert!(matches!(ticket.wait(), JobResult::Finished(Ok(_))));
            assert_eq!(s.status().completed, waited);
        }
    }
}
