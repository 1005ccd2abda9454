//! The per-iteration physical plan layer.
//!
//! Until this layer existed every execution replayed one fixed physical
//! shape: the SQL backend emitted the Section 4.1 script verbatim, and
//! the memory/engine backends hard-coded a merge-scan join with a
//! caller-chosen shard count. The Section 3.2 / 4.3 cost arithmetic in
//! `setm-costmodel` was validation-only. This module turns that
//! arithmetic into the optimizer: a [`Planner`] chooses a
//! [`PhysicalPlan`] for every iteration `k ≥ 2` of Algorithm SETM from
//! *live* statistics ([`LiveStats`]) observed on the previous iteration,
//! and all three executions consume the chosen plan.
//!
//! The contract that makes the plan layer testable (see
//! `tests/plan_equivalence.rs`) is that a plan can never change the
//! mined result — only the access path. Every dimension of
//! [`PhysicalPlan`] preserves the tuple streams of Figure 4 exactly:
//!
//! * `join`: the nested-loop join probes a `(trans_id, item)` B+-tree in
//!   ascending `R_{k-1}` order and emits extensions in ascending item
//!   order — the identical rows, in the identical order, as the
//!   merge-scan against the tid-sorted `SALES`.
//! * `reuse_sort`: re-sorting an already-sorted relation is the
//!   identity.
//! * `shards`: transactions are partitioned by `trans_id` range;
//!   group-counts are algebraic (sum of partial counts), and
//!   concatenating per-shard outputs in shard order restores the global
//!   `trans_id` order.
//! * `sort_buffer_pages`: the external sort is deterministic (full-row
//!   tiebreak) for every workspace size ≥ 3 pages.

use crate::error::SetmError;
use setm_costmodel::{btree_model, nested_loop_c2_cost, setm_cost, DbParams, WorkloadParams};
use std::fmt;
use std::str::FromStr;

/// Environment variable forcing one plan for every iteration (repro/CI):
/// the [`PhysicalPlan`] display syntax, e.g.
/// `SETM_FORCE_PLAN=nested-loop,reuse=0,shards=2,buf=64`.
pub const FORCE_PLAN_ENV: &str = "SETM_FORCE_PLAN";

/// Smallest legal sort workspace: a two-phase external sort needs one
/// output page plus a two-run merge fan-in.
pub const MIN_SORT_BUFFER_PAGES: usize = 3;

/// How `R'_k` is generated from `R_{k-1}` and `SALES`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinStrategy {
    /// Figure 4: sequential merge-scan of the tid-sorted relations.
    MergeScan,
    /// Section 3: probe a `(trans_id, item)` B+-tree once per `R_{k-1}`
    /// tuple. Random I/O, but skips the full `SALES` scan — cheaper when
    /// `|R_{k-1}|` has collapsed far below `‖SALES‖` pages.
    NestedLoop,
}

impl JoinStrategy {
    /// Stable lower-case name used in plan strings and the serve JSON.
    pub fn name(self) -> &'static str {
        match self {
            JoinStrategy::MergeScan => "merge-scan",
            JoinStrategy::NestedLoop => "nested-loop",
        }
    }
}

/// The physical shape of one SETM iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysicalPlan {
    /// Access path of the extension join.
    pub join: JoinStrategy,
    /// Reuse the `(trans_id, items)` order `R_{k-1}` was left in by the
    /// previous iteration's ORDER BY instead of re-sorting at the top of
    /// the loop. (`false` replays the Figure 4 loop literally.)
    pub reuse_sort: bool,
    /// Transaction-range partitions processed in parallel.
    pub shards: usize,
    /// External-sort workspace in pages for this iteration's sorts.
    pub sort_buffer_pages: usize,
}

impl PhysicalPlan {
    /// The pre-planner default shape: sequential merge-scan, reused sort
    /// order, the sorter's historical 256-page workspace.
    pub fn merge_scan() -> Self {
        PhysicalPlan {
            join: JoinStrategy::MergeScan,
            reuse_sort: true,
            shards: 1,
            sort_buffer_pages: 256,
        }
    }

    /// Reject shapes no execution can honor.
    pub fn validate(&self) -> Result<(), SetmError> {
        if self.shards == 0 {
            return Err(SetmError::InvalidPlan { reason: "shards must be at least 1".into() });
        }
        if self.sort_buffer_pages < MIN_SORT_BUFFER_PAGES {
            return Err(SetmError::InvalidPlan {
                reason: format!(
                    "sort_buffer_pages must be at least {MIN_SORT_BUFFER_PAGES} (got {})",
                    self.sort_buffer_pages
                ),
            });
        }
        Ok(())
    }
}

impl fmt::Display for PhysicalPlan {
    /// Canonical plan string: `merge-scan,reuse=1,shards=2,buf=256`.
    /// Round-trips through [`FromStr`]; pinned by the golden tests and
    /// the `check-baseline` deterministic section.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{},reuse={},shards={},buf={}",
            self.join.name(),
            self.reuse_sort as u8,
            self.shards,
            self.sort_buffer_pages
        )
    }
}

impl FromStr for PhysicalPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(',').map(str::trim);
        let join = match parts.next() {
            Some("merge-scan") => JoinStrategy::MergeScan,
            Some("nested-loop") => JoinStrategy::NestedLoop,
            Some(other) => {
                return Err(format!(
                    "unknown join strategy `{other}` (expected `merge-scan` or `nested-loop`)"
                ))
            }
            None => return Err("empty plan string".into()),
        };
        let mut plan = PhysicalPlan { join, ..PhysicalPlan::merge_scan() };
        for part in parts {
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected `key=value`, got `{part}`"))?;
            match key {
                "reuse" => {
                    plan.reuse_sort = match value {
                        "0" | "false" => false,
                        "1" | "true" => true,
                        _ => return Err(format!("reuse must be 0 or 1, got `{value}`")),
                    }
                }
                "shards" => {
                    plan.shards = value.parse().map_err(|_| format!("bad shard count `{value}`"))?
                }
                "buf" => {
                    plan.sort_buffer_pages =
                        value.parse().map_err(|_| format!("bad buffer page count `{value}`"))?
                }
                _ => return Err(format!("unknown plan field `{key}`")),
            }
        }
        Ok(plan)
    }
}

/// Plan selection policy of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlanMode {
    /// Cost-based: the [`Planner`] re-plans every iteration from live
    /// statistics.
    #[default]
    Auto,
    /// One fixed plan for every iteration — the test-matrix and repro
    /// hook (`SETM_FORCE_PLAN`).
    Forced(PhysicalPlan),
}

impl PlanMode {
    /// The mode a run executes: a [`PlanMode::Forced`] plan stands;
    /// [`PlanMode::Auto`] yields to the `SETM_FORCE_PLAN` override when
    /// it is set and non-empty. A malformed or illegal override is a
    /// typed [`SetmError::InvalidPlan`], never silently ignored.
    pub fn resolve(self) -> Result<PlanMode, SetmError> {
        match (self, std::env::var(FORCE_PLAN_ENV)) {
            (PlanMode::Auto, Ok(raw)) if !raw.trim().is_empty() => {
                let plan: PhysicalPlan = raw.trim().parse().map_err(|e| {
                    SetmError::InvalidPlan { reason: format!("{FORCE_PLAN_ENV}: {e}") }
                })?;
                plan.validate()?;
                Ok(PlanMode::Forced(plan))
            }
            (mode, _) => Ok(mode),
        }
    }
}

/// Statistics the planner sees before planning iteration `k`. The first
/// three are fixed at load time; the last two are observed on iteration
/// `k - 1`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Transactions in the dataset.
    pub n_txns: u64,
    /// `|SALES|` = `|R_1|` tuples.
    pub sales_tuples: u64,
    /// Longest transaction, in items — the per-tuple extension bound
    /// that makes [`Planner`] size estimates true upper bounds.
    pub max_txn_len: u64,
    /// `|R_{k-1}|` tuples (equals `sales_tuples` when planning k = 2).
    pub r_prev_tuples: u64,
    /// `|C_{k-1}|` groups (equals `|C_1|` when planning k = 2).
    pub c_prev_len: u64,
}

impl LiveStats {
    /// The load-time statistics of a `SALES` relation whose
    /// transactions have the given lengths, as seen when planning k = 2:
    /// `R_{k-1}` is `R_1` itself. `c_prev_len` is left at 0 for the
    /// caller to fill with `|C_1|`.
    pub(crate) fn of_sales(txn_lengths: impl IntoIterator<Item = usize>) -> LiveStats {
        let (mut n_txns, mut sales_tuples, mut max_txn_len) = (0u64, 0u64, 0u64);
        for len in txn_lengths {
            n_txns += 1;
            sales_tuples += len as u64;
            max_txn_len = max_txn_len.max(len as u64);
        }
        LiveStats { n_txns, sales_tuples, max_txn_len, r_prev_tuples: sales_tuples, c_prev_len: 0 }
    }

    /// Seed the paper's workload model from live observations, for the
    /// Section 3.2 / 4.3 formulas. (`min_support_frac` is not consulted
    /// by either cost formula, so it is left at zero.)
    pub fn workload(&self) -> WorkloadParams {
        let n_txns = self.n_txns.max(1);
        WorkloadParams {
            n_items: self.c_prev_len.max(1),
            n_txns,
            avg_txn_len: (self.sales_tuples as f64 / n_txns as f64).max(1.0),
            min_support_frac: 0.0,
        }
    }
}

/// Execution-environment bounds the planner must respect: the only
/// settings that can change an auto plan. Costs are priced with the
/// paper's constants ([`DbParams::paper`]: 4,000 usable bytes a page,
/// 10 ms a sequential and 20 ms a random access).
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Resolved worker threads — the shard-count ceiling.
    pub max_shards: usize,
    /// Configured sort workspace — the `sort_buffer_pages` ceiling.
    pub sort_buffer_cap: usize,
}

impl PlannerConfig {
    /// Bounds matching the historical fixed behavior: `threads` workers
    /// and the sorter's default workspace.
    pub fn with_max_shards(max_shards: usize) -> Self {
        PlannerConfig { max_shards: max_shards.max(1), sort_buffer_cap: 256 }
    }
}

/// Chooses the [`PhysicalPlan`] for each iteration.
#[derive(Debug, Clone, Copy)]
pub struct Planner {
    mode: PlanMode,
    config: PlannerConfig,
}

impl Planner {
    pub fn new(mode: PlanMode, config: PlannerConfig) -> Self {
        Planner { mode, config }
    }

    /// The plan for iteration `k ≥ 2`.
    ///
    /// A forced plan is returned verbatim (modulo the shard clamp every
    /// execution applies anyway: no more shards than transactions). Auto
    /// picks each dimension independently:
    ///
    /// * **join** — the live cost comparison; see
    ///   [`Planner::join_cost_ms`].
    /// * **reuse_sort** — always: the closing `ORDER BY` of iteration
    ///   `k - 1` (and, at k = 2, the tid-sorted load of `SALES`) leaves
    ///   `R_{k-1}` in the order the loop-top sort would produce (Section
    ///   4.1). A forced `reuse=0` plan replays the literal Figure 4.
    /// * **shards** — all available workers (never more than one shard
    ///   per transaction), except that from k = 3 on a residue that fits
    ///   in a single page collapses to one shard: per-shard fixed costs
    ///   (sort-run setup, count merge) exceed any scan savings on a
    ///   page's worth of tuples.
    /// * **sort_buffer_pages** — shrink-to-fit: just enough pages that
    ///   this iteration's sorts run single-pass under the
    ///   [`Planner::estimated_r_prime_tuples`] upper bound, never above
    ///   the configured cap (so auto never does more sort I/O than the
    ///   fixed workspace did).
    pub fn plan_iteration(&self, k: usize, stats: &LiveStats) -> PhysicalPlan {
        let clamp_shards = |s: usize| s.clamp(1, (stats.n_txns.max(1)) as usize);
        match self.mode {
            PlanMode::Forced(mut plan) => {
                plan.shards = clamp_shards(plan.shards);
                plan
            }
            PlanMode::Auto => {
                let (ms_cost, nl_cost) = self.join_cost_ms(k, stats);
                let join = if nl_cost < ms_cost {
                    JoinStrategy::NestedLoop
                } else {
                    JoinStrategy::MergeScan
                };
                let db = DbParams::paper();
                let residue_bytes = stats.r_prev_tuples.saturating_mul(k as u64 * db.value_bytes);
                let shards = if k > 2 && residue_bytes <= db.usable_page_bytes {
                    1
                } else {
                    clamp_shards(self.config.max_shards)
                };
                PhysicalPlan {
                    join,
                    reuse_sort: true,
                    shards,
                    sort_buffer_pages: self.sized_sort_buffer(k, stats),
                }
            }
        }
    }

    /// Estimated join-step cost in milliseconds: `(merge_scan,
    /// nested_loop)`.
    ///
    /// At k = 2 this is the paper's own comparison re-run with
    /// live-seeded parameters: `nested_loop_c2_cost` (Section 3.2's
    /// "more than 11 hours") against the n = 2 `setm_cost` bound
    /// (Section 4.3). For k ≥ 3 the shapes are priced directly:
    /// merge-scan reads `‖R_{k-1}‖ + ‖SALES‖` pages sequentially;
    /// nested-loop reads `‖R_{k-1}‖` sequentially plus one random leaf
    /// fetch per `R_{k-1}` tuple (internal B+-tree levels are cached, the
    /// Section 3.2 accounting — `btree_model` confirms the leaf level is
    /// where the probes land).
    pub fn join_cost_ms(&self, k: usize, stats: &LiveStats) -> (f64, f64) {
        let db = DbParams::paper();
        if k <= 2 {
            let w = stats.workload();
            let ms = setm_cost(&w, &db, 2).time_s * 1000.0;
            let nl = nested_loop_c2_cost(&w, &db).time_s * 1000.0;
            return (ms, nl);
        }
        let p_prev = db.pages_for(stats.r_prev_tuples, k as u64 * db.value_bytes);
        let p_sales = db.pages_for(stats.sales_tuples, 2 * db.value_bytes);
        let ms = (p_prev + p_sales) as f64 * db.seq_ms;
        let index = btree_model(stats.sales_tuples.max(1), 2 * db.value_bytes, &db);
        // One leaf fetch per probe; `leaf_pages / n_txns` extra leaves
        // when a transaction's run of index entries spans page
        // boundaries.
        let leaves_per_probe = 1.0 + index.leaf_pages as f64 / stats.n_txns.max(1) as f64;
        let probe_fetches = stats.r_prev_tuples as f64 * leaves_per_probe;
        let nl = probe_fetches * db.random_ms + p_prev as f64 * db.seq_ms;
        (ms, nl)
    }

    /// Upper bound on `|R'_k|`: every `R_{k-1}` tuple extends by at most
    /// the longest transaction's item count.
    pub fn estimated_r_prime_tuples(&self, stats: &LiveStats) -> u64 {
        stats.r_prev_tuples.saturating_mul(stats.max_txn_len.max(1)).max(1)
    }

    /// Shrink-to-fit sort workspace: enough pages for a single-run sort
    /// of the `R'_k` upper bound (with 2x headroom for storage-page
    /// overhead), clamped to `[MIN_SORT_BUFFER_PAGES, cap]`.
    fn sized_sort_buffer(&self, k: usize, stats: &LiveStats) -> usize {
        let db = DbParams::paper();
        let est = self.estimated_r_prime_tuples(stats);
        let pages = db.pages_for(est, (k as u64 + 1) * db.value_bytes);
        let want = pages.saturating_mul(2).saturating_add(2);
        (want.min(self.config.sort_buffer_cap as u64) as usize).max(MIN_SORT_BUFFER_PAGES)
    }

    /// Predicted page accesses for iteration `k` under `plan` — the
    /// number `tests/cost_model_vs_measured.rs` holds against the
    /// engine's measured `IoStats`, at the tolerance documented in
    /// REPRODUCTION.md Design notes §10.
    ///
    /// Uses the same simplifications as Section 4.3 (the `R'_k` estimate
    /// is the no-filtering worst case): join input reads, `R'_k` write,
    /// one sort pass (read + write), the count/filter pass (read + the
    /// filtered write), and the closing ORDER BY — plus the loop-top
    /// re-sort when the plan does not reuse the standing order.
    pub fn predict_page_accesses(&self, k: usize, stats: &LiveStats, plan: &PhysicalPlan) -> u64 {
        let db = DbParams::paper();
        let p_prev = db.pages_for(stats.r_prev_tuples, k as u64 * db.value_bytes);
        let p_sales = db.pages_for(stats.sales_tuples, 2 * db.value_bytes);
        let p_prime =
            db.pages_for(self.estimated_r_prime_tuples(stats), (k as u64 + 1) * db.value_bytes);
        let join_reads = match plan.join {
            JoinStrategy::MergeScan => p_prev + p_sales,
            JoinStrategy::NestedLoop => p_prev + stats.r_prev_tuples,
        };
        let resort = if plan.reuse_sort { 0 } else { 2 * p_prev };
        join_reads + resort + 7 * p_prime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_strings_round_trip() {
        for plan in [
            PhysicalPlan::merge_scan(),
            PhysicalPlan {
                join: JoinStrategy::NestedLoop,
                reuse_sort: false,
                shards: 4,
                sort_buffer_pages: 64,
            },
        ] {
            let s = plan.to_string();
            assert_eq!(s.parse::<PhysicalPlan>().unwrap(), plan, "{s}");
        }
        assert_eq!(PhysicalPlan::merge_scan().to_string(), "merge-scan,reuse=1,shards=1,buf=256");
    }

    #[test]
    fn parse_fills_defaults_and_rejects_nonsense() {
        let p: PhysicalPlan = "nested-loop".parse().unwrap();
        assert_eq!(p.join, JoinStrategy::NestedLoop);
        assert_eq!((p.reuse_sort, p.shards, p.sort_buffer_pages), (true, 1, 256));
        let p: PhysicalPlan = "merge-scan,shards=3".parse().unwrap();
        assert_eq!(p.shards, 3);
        assert!("hash-join".parse::<PhysicalPlan>().is_err());
        assert!("merge-scan,reuse=maybe".parse::<PhysicalPlan>().is_err());
        assert!("merge-scan,fanout=2".parse::<PhysicalPlan>().is_err());
        assert!("merge-scan,shards".parse::<PhysicalPlan>().is_err());
    }

    #[test]
    fn validation_enforces_execution_minima() {
        assert!(PhysicalPlan::merge_scan().validate().is_ok());
        let zero_shards = PhysicalPlan { shards: 0, ..PhysicalPlan::merge_scan() };
        assert!(matches!(zero_shards.validate(), Err(SetmError::InvalidPlan { .. })));
        let tiny_sort = PhysicalPlan { sort_buffer_pages: 2, ..PhysicalPlan::merge_scan() };
        assert!(matches!(tiny_sort.validate(), Err(SetmError::InvalidPlan { .. })));
    }

    /// The planner reproduces the paper's headline k = 2 conclusion when
    /// seeded with the Section 3.2 workload: nested-loop loses by a
    /// large margin.
    #[test]
    fn paper_workload_picks_merge_scan_at_k2() {
        let stats = LiveStats {
            n_txns: 200_000,
            sales_tuples: 2_000_000,
            max_txn_len: 20,
            r_prev_tuples: 2_000_000,
            c_prev_len: 1_000,
        };
        let planner = Planner::new(PlanMode::Auto, PlannerConfig::with_max_shards(1));
        let (ms, nl) = planner.join_cost_ms(2, &stats);
        assert!(nl > 30.0 * ms, "Section 3.2 vs 4.3: nested-loop must lose big ({nl} vs {ms})");
        assert_eq!(planner.plan_iteration(2, &stats).join, JoinStrategy::MergeScan);
    }

    /// Once `R_{k-1}` collapses to a handful of tuples, probing beats
    /// re-scanning all of `SALES`.
    #[test]
    fn collapsed_residue_picks_nested_loop() {
        let stats = LiveStats {
            n_txns: 4_000,
            sales_tuples: 32_000,
            max_txn_len: 11,
            r_prev_tuples: 18,
            c_prev_len: 3,
        };
        let planner = Planner::new(PlanMode::Auto, PlannerConfig::with_max_shards(4));
        let plan = planner.plan_iteration(3, &stats);
        assert_eq!(plan.join, JoinStrategy::NestedLoop);
        // Shrink-to-fit: 18 * 11 = 198 tuples of 16 bytes is one page.
        assert!(plan.sort_buffer_pages < 256, "tiny residue must shrink the sort workspace");
        // 18 tuples fit in one page: parallelism overhead beats the scan
        // savings, so the shard dimension collapses too.
        assert_eq!(plan.shards, 1, "page-sized residue collapses to one shard");
    }

    #[test]
    fn forced_plans_are_returned_verbatim_modulo_shard_clamp() {
        let forced = PhysicalPlan {
            join: JoinStrategy::NestedLoop,
            reuse_sort: false,
            shards: 8,
            sort_buffer_pages: 32,
        };
        let planner = Planner::new(PlanMode::Forced(forced), PlannerConfig::with_max_shards(1));
        let stats = LiveStats {
            n_txns: 3,
            sales_tuples: 9,
            max_txn_len: 3,
            r_prev_tuples: 9,
            c_prev_len: 3,
        };
        let plan = planner.plan_iteration(2, &stats);
        assert_eq!(plan.join, JoinStrategy::NestedLoop);
        assert_eq!(plan.shards, 3, "never more shards than transactions");
        assert_eq!(plan.sort_buffer_pages, 32);
    }

    #[test]
    fn auto_buffer_never_exceeds_the_configured_cap() {
        let planner = Planner::new(PlanMode::Auto, PlannerConfig::with_max_shards(4));
        let stats = LiveStats {
            n_txns: 200_000,
            sales_tuples: 2_000_000,
            max_txn_len: 40,
            r_prev_tuples: 9_000_000,
            c_prev_len: 450_000,
        };
        let plan = planner.plan_iteration(3, &stats);
        assert_eq!(plan.sort_buffer_pages, 256);
        assert_eq!(plan.shards, 4);
    }

    #[test]
    fn env_override_parses_and_validates() {
        // (Environment mutation is process-global; this test only
        // exercises the unset path. The set path is covered by the CI
        // planner job and `tests/plan_equivalence.rs`.)
        if std::env::var(FORCE_PLAN_ENV).is_err() {
            assert_eq!(PlanMode::Auto.resolve().unwrap(), PlanMode::Auto);
        }
        let forced = PlanMode::Forced(PhysicalPlan::merge_scan());
        assert_eq!(forced.resolve().unwrap(), forced, "an explicit plan always stands");
    }

    #[test]
    fn prediction_is_positive_and_join_sensitive() {
        let planner = Planner::new(PlanMode::Auto, PlannerConfig::with_max_shards(1));
        let stats = LiveStats {
            n_txns: 2_000,
            sales_tuples: 20_000,
            max_txn_len: 14,
            r_prev_tuples: 20_000,
            c_prev_len: 900,
        };
        let ms_plan = PhysicalPlan::merge_scan();
        let nl_plan = PhysicalPlan { join: JoinStrategy::NestedLoop, ..ms_plan };
        let ms = planner.predict_page_accesses(2, &stats, &ms_plan);
        let nl = planner.predict_page_accesses(2, &stats, &nl_plan);
        assert!(ms > 0);
        assert!(nl > ms, "20k probes must dwarf a 40-page scan");
    }
}
