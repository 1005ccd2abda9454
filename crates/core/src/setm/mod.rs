//! Algorithm SETM (Figure 4 of the paper).
//!
//! ```text
//! k := 1;
//! sort R1 on item;
//! C1 := generate counts from R1;
//! repeat
//!     k := k + 1;
//!     sort R_{k-1} on trans_id, item_1, .., item_{k-1};
//!     R'_k := merge-scan R_{k-1}, R_1;
//!     sort R'_k on item_1, .., item_k;
//!     C_k := generate counts from R'_k;
//!     R_k := filter R'_k to retain supported patterns;
//! until R_k = {}
//! ```
//!
//! Three interchangeable executions are provided:
//!
//! * [`memory`] — pure in-memory set operators (fast path; used for the
//!   Figure 5/6 and Section 6.2 reproductions), which count `R'_k` into
//!   a dense `C_{k-1} × C_1` table instead of materialising and sorting
//!   it, with the same `C_k`, `R_k` and trace;
//! * [`engine`] — the same loop over the paged storage engine of
//!   `setm-relational`, with every page access measured (used to validate
//!   the Section 4.3 cost analysis);
//! * [`sql`] — emits the Section 4.1 SQL statements verbatim and runs them
//!   through `setm-sql` (the paper's headline claim: mining as SQL).
//!
//! The loop itself is written once, in a [`driver`] shared by all three;
//! each backend contributes only its physical operators (the sort,
//! extension join, group-count and filter of one iteration). All three
//! produce identical `C_k` relations and trace rows; cross-checked in
//! tests. The driver is public so the incremental frontier
//! (`setm-incremental`) runs an append as one more operator set.
//!
//! They are driven uniformly through the [`crate::Miner`] builder
//! (`Miner::new(params).backend(..).run(dataset)`). Below it, each
//! backend has one entry point — [`memory::execute`],
//! [`engine::execute`] and [`sql::execute`] — configured by a
//! [`RunSpec`].

pub mod driver;
pub mod engine;
pub mod memory;
pub mod plan;
pub mod shard;
pub mod sql;

use crate::constraints::CompiledConstraints;
use crate::itemvec::ItemVec;
use crate::pattern::CountRelation;
use plan::{PhysicalPlan, PlanMode};
use setm_obs::{NullSink, ObsSink};

/// How one run executes: everything a backend's `execute` takes besides
/// the dataset and the mining parameters (and the engine's
/// configuration). None of it changes the mined itemsets.
#[derive(Clone, Copy)]
pub struct RunSpec<'a> {
    /// Worker threads for the sharded parallel execution (see
    /// [`shard`]). `0` (the default) resolves to the machine's available
    /// parallelism; `1` forces the paper's sequential loop. Results are
    /// identical for every value; only wall-clock time changes.
    pub threads: usize,
    /// How each iteration's physical plan is chosen. Taken as given:
    /// [`PlanMode::resolve`] applies the `SETM_FORCE_PLAN` override.
    pub plan_mode: PlanMode,
    /// Receives each iteration's trace row the moment it is computed,
    /// plus the backend's phase events. A side channel: the result is
    /// identical with or without it.
    pub sink: &'a dyn ObsSink,
    /// Constraints pushed into candidate generation, in mining space
    /// (see [`crate::constraints`]: with required items the dataset must
    /// already be remapped). Empty constraints run the unconstrained
    /// kernels, and every `candidates_pruned` is zero.
    pub constraints: &'a CompiledConstraints,
}

static NO_CONSTRAINTS: CompiledConstraints = CompiledConstraints::none();

impl Default for RunSpec<'_> {
    /// Available parallelism, the auto planner, no observer, no
    /// constraints.
    fn default() -> Self {
        RunSpec {
            threads: 0,
            plan_mode: PlanMode::Auto,
            sink: &NullSink,
            constraints: &NO_CONSTRAINTS,
        }
    }
}

/// Per-iteration measurements — the raw series behind Figures 5 and 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationTrace {
    /// Pattern length `k` (iteration number in the figures).
    pub k: usize,
    /// `|R'_k|` tuples before support filtering (`|R_1|` for k = 1).
    pub r_prime_tuples: u64,
    /// `|R_k|` tuples after support filtering (`|R_1|` for k = 1: the
    /// paper never filters the sales relation).
    pub r_tuples: u64,
    /// Size of `R_k` in Kbytes — the y-axis of Figure 5.
    pub r_kbytes: f64,
    /// `|C_k|` — the y-axis of Figure 6.
    pub c_len: u64,
    /// Page accesses charged during this iteration (engine execution
    /// only; zero for the in-memory execution).
    pub page_accesses: u64,
    /// Estimated I/O milliseconds under the pager's cost model (engine
    /// execution only).
    pub estimated_io_ms: f64,
    /// Page reads absorbed by the buffer cache this iteration (engine
    /// execution only; never counted in `page_accesses`).
    pub cache_hits: u64,
    /// Candidate extensions rejected by constraint pushdown this
    /// iteration (`(p, q)` join pairs that passed the paper's
    /// `q.item > p.item_{k-1}` predicate but failed the compiled
    /// [`crate::MiningConstraints`]; for k = 1, `SALES` rows whose item
    /// fails the anchor/exclusion check). Zero for unconstrained runs.
    pub candidates_pruned: u64,
    /// The physical plan this iteration executed. `None` for k = 1 (the
    /// initial `C_1` count precedes the planned loop).
    pub plan: Option<PhysicalPlan>,
}

impl IterationTrace {
    /// The canonical plan string recorded in the serve JSON and the
    /// `check-baseline` deterministic section: the plan's
    /// `Display` form, or `-` for the unplanned k = 1 iteration.
    pub fn plan_string(&self) -> String {
        match &self.plan {
            Some(p) => p.to_string(),
            None => "-".to_string(),
        }
    }

    /// The plain-data form of this row for telemetry sinks — the same
    /// numbers, with the plan rendered via [`IterationTrace::plan_string`].
    pub fn snapshot(&self) -> setm_obs::IterationSnapshot {
        setm_obs::IterationSnapshot {
            k: self.k,
            r_prime_tuples: self.r_prime_tuples,
            r_tuples: self.r_tuples,
            r_kbytes: self.r_kbytes,
            c_len: self.c_len,
            page_accesses: self.page_accesses,
            estimated_io_ms: self.estimated_io_ms,
            cache_hits: self.cache_hits,
            candidates_pruned: self.candidates_pruned,
            plan: self.plan_string(),
        }
    }
}

/// The output of a SETM run: every count relation plus the iteration
/// trace.
#[derive(Debug, Clone)]
pub struct SetmResult {
    /// `counts[i]` is `C_{i+1}`; trailing empty relations are omitted, so
    /// `counts.len()` is the longest supported pattern length.
    pub counts: Vec<CountRelation>,
    /// One entry per iteration, including the final empty one (the
    /// figures plot the zero at iteration 4).
    pub trace: Vec<IterationTrace>,
    /// Total number of transactions (the denominator of support).
    pub n_transactions: u64,
    /// The resolved absolute minimum support count.
    pub min_support_count: u64,
}

impl SetmResult {
    /// The count relation `C_k`, if any pattern of length `k` is supported.
    pub fn c(&self, k: usize) -> Option<&CountRelation> {
        self.counts.get(k.checked_sub(1)?).filter(|c| !c.is_empty())
    }

    /// Longest supported pattern length (0 for an empty result).
    pub fn max_pattern_len(&self) -> usize {
        self.counts.len()
    }

    /// All frequent itemsets with their support counts, shortest first.
    pub fn frequent_itemsets(&self) -> Vec<(ItemVec, u64)> {
        self.counts.iter().flat_map(|c| c.to_vec()).collect()
    }

    /// Support of a pattern as a fraction of all transactions.
    ///
    /// An empty dataset has no supported patterns, so every count's
    /// fraction is 0 — never NaN from a zero denominator.
    pub fn support_fraction(&self, count: u64) -> f64 {
        if self.n_transactions == 0 {
            0.0
        } else {
            count as f64 / self.n_transactions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, MinSupport, MiningParams};

    #[test]
    fn result_accessors() {
        let mut c1 = CountRelation::new(1);
        c1.push(&[1], 5);
        c1.push(&[2], 4);
        let mut c2 = CountRelation::new(2);
        c2.push(&[1, 2], 3);
        let result = SetmResult {
            counts: vec![c1, c2],
            trace: vec![],
            n_transactions: 10,
            min_support_count: 3,
        };
        assert_eq!(result.max_pattern_len(), 2);
        assert_eq!(result.c(1).unwrap().len(), 2);
        assert_eq!(result.c(2).unwrap().get(&[1, 2]), Some(3));
        assert!(result.c(3).is_none());
        assert!(result.c(0).is_none());
        assert_eq!(result.frequent_itemsets().len(), 3);
        assert!((result.support_fraction(3) - 0.3).abs() < 1e-12);
    }

    /// Satellite regression: a zero-transaction result must report 0.0
    /// support, never NaN (the old `count / 0` arithmetic).
    #[test]
    fn support_fraction_of_empty_result_is_zero_not_nan() {
        let result =
            SetmResult { counts: vec![], trace: vec![], n_transactions: 0, min_support_count: 1 };
        let s = result.support_fraction(0);
        assert!(!s.is_nan());
        assert_eq!(s, 0.0);
        assert_eq!(result.support_fraction(5), 0.0);
    }

    #[test]
    fn mine_smoke() {
        let d = Dataset::from_transactions([
            (1, [1u32, 2].as_slice()),
            (2, [1, 2].as_slice()),
            (3, [1, 3].as_slice()),
        ]);
        let params = MiningParams::new(MinSupport::Count(2), 0.5);
        let r = memory::execute(&d, &params, &RunSpec::default());
        assert_eq!(r.c(1).unwrap().get(&[1]), Some(3));
        assert_eq!(r.c(2).unwrap().get(&[1, 2]), Some(2));
    }
}
