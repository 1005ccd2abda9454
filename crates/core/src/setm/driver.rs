//! The Figure 4 loop, written once for every backend.
//!
//! [`drive`] owns everything the paper's loop does independently of how
//! a relation is stored: the k = 1 trace row and its constraint-pruned
//! count, the live statistics the [`Planner`] sees, the planner call,
//! trace-row assembly and sink emission, the `R_k = {}` termination, and
//! collecting `C_k`. A backend supplies only its physical operators
//! ([`Operators`]) — in-memory relations, paged heap files, SQL
//! sessions, or an incremental frontier absorbing an append — the way a
//! query engine lowers one logical plan node by node onto whatever
//! executes it.

use crate::constraints::CandidateFilter;
use crate::data::{Dataset, MiningParams};
use crate::pattern::CountRelation;
use crate::setm::plan::{LiveStats, PhysicalPlan, Planner};
use crate::setm::{IterationTrace, RunSpec, SetmResult};
use setm_obs::ObsEvent;

/// The totals of a run's input that the loop needs before any operator
/// runs: the support threshold resolves against the transactions, and
/// the k = 1 trace row reports the rest.
#[derive(Debug, Clone, Copy)]
pub struct Totals {
    /// Transactions, the denominator of support.
    pub n_transactions: u64,
    /// `|SALES|` rows, which is `|R_1|`.
    pub sales_rows: u64,
    /// `SALES` rows whose item constraint pushdown rejects at pattern
    /// position 0 (the k = 1 row's `candidates_pruned`).
    pub k1_pruned: u64,
}

impl Totals {
    /// The totals of `dataset` under `spec`'s constraints.
    pub(crate) fn of(dataset: &Dataset, spec: &RunSpec) -> Totals {
        let cc = spec.constraints;
        let k1_pruned = if cc.is_empty() {
            0
        } else {
            dataset.items().iter().filter(|&&it| !cc.allows_at(0, it)).count() as u64
        };
        Totals { n_transactions: dataset.n_transactions(), sales_rows: dataset.n_rows(), k1_pruned }
    }
}

/// Page I/O one step charged. Only the paged engine meters it; the other
/// backends report zeros. Each field becomes the trace column of the
/// same name.
#[derive(Default)]
pub struct Metered {
    pub page_accesses: u64,
    pub estimated_io_ms: f64,
    pub cache_hits: u64,
    pub pool_steals: u64,
}

/// What one iteration produced.
pub struct Step {
    /// `C_k`, with the support threshold applied.
    pub c_k: CountRelation,
    /// `|R'_k|`.
    pub r_prime_tuples: u64,
    /// `|R_k|`.
    pub r_tuples: u64,
    /// Candidate pairs the constraint pushdown rejected.
    pub pruned: u64,
    /// The page I/O the iteration charged.
    pub io: Metered,
}

/// One backend's physical operators for the Figure 4 loop.
pub trait Operators {
    /// What an operator can fail with.
    type Error;

    /// `sort R_1 on item; C_1 := generate counts from R_1`, with the
    /// support threshold applied and no constraint restriction (the
    /// driver restricts `C_1`), plus the I/O it charged.
    fn count_c1(
        &mut self,
        min_count: u64,
        spec: &RunSpec,
    ) -> Result<(CountRelation, Metered), Self::Error>;

    /// The load-time statistics of the `SALES` relation the loop joins
    /// against: its transactions, rows and longest transaction, with
    /// `r_prev_tuples` equal to its rows (`R_1` is `SALES`). The driver
    /// fills in `c_prev_len`. Read after [`Operators::count_c1`].
    fn sales_stats(&self) -> LiveStats;

    /// Iteration `k`: extend `R_{k-1}` into `R'_k`, count `C_k`, and
    /// filter `R'_k` into `R_k`. `plan` is the planner's choice; an
    /// operator set with a fixed topology (the SQL sessions) overwrites
    /// the dimension it cannot honor, and the driver records the plan
    /// as executed.
    fn iterate(
        &mut self,
        k: usize,
        plan: &mut PhysicalPlan,
        min_count: u64,
        spec: &RunSpec,
    ) -> Result<Step, Self::Error>;

    /// Carry iteration `k`'s `R_k` into iteration `k + 1`. Called only
    /// when the loop goes on.
    fn carry(
        &mut self,
        _k: usize,
        _plan: &PhysicalPlan,
        _spec: &RunSpec,
    ) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// The shard count of the first planned iteration (k = 2), for a backend
/// that must lay out `SALES` or open its sessions before the k = 1
/// count. The shard dimension never depends on the yet-unknown `|C_1|`.
pub(crate) fn first_layout(planner: &Planner, sales: LiveStats) -> usize {
    planner.plan_iteration(2, &LiveStats { c_prev_len: 1, ..sales }).shards
}

/// Run Algorithm SETM on `ops` over an input of `totals`, re-planning
/// every iteration. The trace records each plan as `iterate` leaves it.
pub fn drive<O: Operators>(
    ops: &mut O,
    totals: Totals,
    params: &MiningParams,
    planner: &Planner,
    spec: &RunSpec,
) -> Result<SetmResult, O::Error> {
    let n_txns = totals.n_transactions;
    let min_count = params.min_support.to_count(n_txns.max(1));
    let max_len = params.max_pattern_len.unwrap_or(usize::MAX);
    let mut result = SetmResult {
        counts: Vec::new(),
        trace: Vec::new(),
        n_transactions: n_txns,
        min_support_count: min_count,
    };

    // k = 1. Constraint pushdown keeps the items allowed at pattern
    // position 0 (C_k is kept in memory, per Section 4.3's accounting,
    // so no I/O is charged) and counts every SALES row it rejects as
    // pruned; R_1 itself stays the paper's unfiltered SALES.
    let (c1, io) = ops.count_c1(min_count, spec)?;
    let cc = spec.constraints;
    let c1 = if cc.is_empty() {
        c1
    } else {
        let mut kept = CountRelation::new(1);
        for (pattern, count) in c1.iter().filter(|(p, _)| cc.allows_at(0, p[0])) {
            kept.push(pattern, count);
        }
        kept
    };
    let c1_len = c1.len() as u64;
    let sales = totals.sales_rows;
    let k1 = Step { c_k: c1, r_prime_tuples: sales, r_tuples: sales, pruned: totals.k1_pruned, io };
    record(&mut result, spec, 1, None, k1);
    // `<= 1` (not `== 1`): a cap of 0 stops after C1 on every backend
    // (the facade rejects 0 up front, but the executions must still
    // agree with each other).
    if max_len <= 1 || n_txns == 0 {
        return Ok(result);
    }

    let mut stats = LiveStats { c_prev_len: c1_len, ..ops.sales_stats() };
    for k in 2.. {
        let mut plan = planner.plan_iteration(k, &stats);
        let step = ops.iterate(k, &mut plan, min_count, spec)?;
        stats.r_prev_tuples = step.r_tuples;
        stats.c_prev_len = step.c_k.len() as u64;
        let done = step.r_tuples == 0 || k >= max_len;
        record(&mut result, spec, k, Some(plan), step);
        if done {
            break;
        }
        ops.carry(k, &plan, spec)?;
    }
    Ok(result)
}

/// Append iteration `k`'s trace row, report it to the sink the moment it
/// exists, and keep a non-empty `C_k`.
fn record(
    result: &mut SetmResult,
    spec: &RunSpec,
    k: usize,
    plan: Option<PhysicalPlan>,
    step: Step,
) {
    let row = IterationTrace {
        k,
        r_prime_tuples: step.r_prime_tuples,
        r_tuples: step.r_tuples,
        // An R_k tuple is (trans_id, item_1, .., item_k): (k + 1) x 4
        // bytes (Section 4.3).
        r_kbytes: (step.r_tuples * (k as u64 + 1) * 4) as f64 / 1024.0,
        c_len: step.c_k.len() as u64,
        page_accesses: step.io.page_accesses,
        estimated_io_ms: step.io.estimated_io_ms,
        cache_hits: step.io.cache_hits,
        pool_steals: step.io.pool_steals,
        candidates_pruned: step.pruned,
        plan,
    };
    spec.sink.on_event(&ObsEvent::Iteration(row.snapshot()));
    result.trace.push(row);
    if !step.c_k.is_empty() {
        result.counts.push(step.c_k);
    }
}
