//! Algorithm SETM on the paged storage engine.
//!
//! The same Figure 4 loop as [`crate::setm::memory`] (the driver both
//! share), entered through [`execute`], but every relation is a heap
//! file on a simulated disk and every sort, join, and filter goes
//! through `setm-relational` — so each iteration's page accesses are
//! measured and can be compared with the Section 4.3 formula. Differences
//! from the analytical bound are expected and documented: the paper
//! assumes pipelined sorts and free `C_k` handling, while this engine
//! materializes every intermediate (the bound's "2·Σ‖R'_i‖" becomes a
//! measured read+write per sort pass).
//!
//! # Plan-driven execution
//!
//! Every iteration `k ≥ 2` executes a [`PhysicalPlan`] chosen by the
//! [`Planner`] (see [`crate::setm::plan`]) — cost-based in
//! [`PlanMode::Auto`], pinned in [`PlanMode::Forced`]:
//!
//! [`PhysicalPlan`]: crate::setm::plan::PhysicalPlan
//! [`Planner`]: crate::setm::plan::Planner
//! [`PlanMode::Auto`]: crate::setm::plan::PlanMode::Auto
//! [`PlanMode::Forced`]: crate::setm::plan::PlanMode::Forced
//!
//! * `join` — the Figure 4 merge-scan against the local `SALES`, or the
//!   Section 3.2 index-nested-loop probing a `(trans_id, item)` B+-tree
//!   ([`SalesIndex`], built lazily per shard and kept for the rest of the
//!   run; the build is excluded from the meter, as the paper treats
//!   indices as maintained ahead of time, while every probe is charged).
//! * `reuse_sort` — skip the loop-top re-sort of `R_{k-1}` (the closing
//!   ORDER BY of the previous iteration already ordered it); `false`
//!   replays Figure 4 literally. Auto always reuses; a forced `reuse=0`
//!   plan is the sort-order ablation (E8).
//! * `shards` — `trans_id`-range partitions, **each on its own pager**
//!   (its own simulated disk — mirroring a disk-per-worker deployment).
//!   When the plan's shard count changes between iterations the engine
//!   repartitions: `R_{k-1}` is drained (charged) and redistributed
//!   (writes charged) while the `SALES` slices are re-laid-out off-meter
//!   like the initial load.
//! * `sort_buffer_pages` — the external-sort workspace for this
//!   iteration's sorts.
//!
//! A single-shard iteration runs the paper's fused sequential pipeline
//! (`C_k` and `R_k` from one counting pass). A multi-shard iteration runs
//! phase 1 (sort → join → sort → threshold-free local count) on all
//! shards in parallel under [`std::thread::scope`], merges the local
//! counts into the global `C_k` ([`CountRelation::merge_sum_filter`]),
//! then filters each shard's `R'_k` against it — one extra scan per
//! shard, so parallel access totals differ from the sequential plan's
//! (wall-clock I/O time would divide by the number of disks). Mined
//! results and the tuple-count trace series are identical for every plan;
//! per-iteration `page_accesses` / `estimated_io_ms` are the sums over
//! all shard pagers.

use crate::constraints::{CandidateFilter, CompiledConstraints, Unconstrained};
use crate::data::{Dataset, MiningParams};
use crate::miner::EngineReport;
use crate::nested_loop::SalesIndex;
use crate::pattern::CountRelation;
use crate::setm::driver::{drive, first_layout, Metered, Operators, Step, Totals};
use crate::setm::plan::{JoinStrategy, LiveStats, PhysicalPlan, Planner, PlannerConfig};
use crate::setm::shard::{partition_by_weight, resolve_threads};
use crate::setm::{RunSpec, SetmResult};
use setm_obs::ObsEvent;
use setm_relational::heap::{HeapFile, HeapFileBuilder};
use setm_relational::join::merge_scan_join;
use setm_relational::pager::{CostModel, IoStats, Pager, SharedPager};
use setm_relational::sort::{external_sort, SortOptions};
use setm_relational::Result;
use std::cell::Cell;

/// Configuration of the paged-engine backend — what
/// [`crate::Backend::Engine`] carries. Worker threads are *not* part of
/// the backend configuration: they are an execution knob set on the
/// [`crate::Miner`] builder (or in the [`RunSpec`] passed to
/// [`execute`]) so the same knob drives every backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Workspace ceiling for the external sorts, in pages (a two-phase
    /// external sort needs at least 3). The planner may size an
    /// iteration's workspace below this, never above.
    pub sort_buffer_pages: usize,
    /// Buffer-cache frames (0 = every page access is charged, the
    /// worst-case accounting the paper's formulas use). Each shard's
    /// pager owns a private CLOCK cache of an even slice of the budget,
    /// the remainder going one frame each to the heaviest shards, so
    /// every configured frame is granted.
    pub cache_frames: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { sort_buffer_pages: 256, cache_frames: 256 }
    }
}

/// Mine `dataset` on a fresh paged engine, re-planned every iteration.
///
/// Every legal [`crate::setm::plan::PlanMode::Forced`] plan mines the
/// identical result; only the access pattern — and therefore the
/// measured I/O in the trace and the [`EngineReport`] — changes. Shard
/// repartitions are reported to the sink as [`ObsEvent::Note`]s, on the
/// coordinator thread between parallel phases, so the charged I/O is
/// identical to an unobserved run. With constraints, the checks run
/// inside the join predicates: a pruned pair never reaches `R'_k`, never
/// gets sorted, and never gets counted.
///
/// This is the low-level execution behind [`crate::Backend::Engine`];
/// prefer driving it through the [`crate::Miner`] facade, which
/// validates inputs and returns the shared [`crate::MiningOutcome`] /
/// [`crate::SetmError`] types.
pub fn execute(
    dataset: &Dataset,
    params: &MiningParams,
    config: &EngineConfig,
    spec: &RunSpec,
) -> Result<(SetmResult, EngineReport)> {
    let max_shards = resolve_threads(spec.threads).min(dataset.n_transactions().max(1) as usize);
    let planner = Planner::new(
        spec.plan_mode,
        PlannerConfig { max_shards, sort_buffer_cap: config.sort_buffer_pages },
    );

    let weights: Vec<usize> = dataset.transactions().map(|(_, items)| items.len()).collect();
    let sales = LiveStats::of_sales(weights.iter().copied());

    // The k = 1 count precedes any live observation, so `SALES` is laid
    // out for the plan the first real iteration will run.
    let layout_shards = first_layout(&planner, sales);
    let shards = build_shards(dataset, &weights, layout_shards, config)?;
    let cost_model = shards[0].pager.lock().cost_model();
    let mut ops = Paged {
        dataset,
        config,
        weights,
        sales,
        shards,
        layout_shards,
        cost_model,
        retired: IoStats::default(),
    };
    let result = drive(&mut ops, Totals::of(dataset, spec), params, &planner, spec)?;
    for sh in &mut ops.shards {
        sh.free_prev()?;
    }

    // Every charged access was returned by exactly one `take_delta` and
    // attributed to exactly one trace row, so the total is the sum of
    // the per-iteration deltas by construction.
    let mut total = ops.retired;
    for sh in &ops.shards {
        total = total.plus(&sh.measured);
    }
    let cache_frames = ops.shards.iter().map(|sh| sh.pager.lock().cache_frames()).sum();
    let report = EngineReport {
        page_accesses: total.accesses(),
        estimated_io_ms: total.estimated_ms(&cost_model),
        io: total,
        cache_frames,
    };
    Ok((result, report))
}

/// The paged-engine operator set: `SALES` and `R_{k-1}` as heap files on
/// one simulated disk per `trans_id` shard.
struct Paged<'a> {
    dataset: &'a Dataset,
    config: &'a EngineConfig,
    /// Row count of each transaction, the partitioner's weights.
    weights: Vec<usize>,
    sales: LiveStats,
    shards: Vec<EngineShard>,
    /// The shard count `shards` is laid out for.
    layout_shards: usize,
    cost_model: CostModel,
    /// I/O measured on the pagers of shards a repartition retired.
    retired: IoStats,
}

impl Paged<'_> {
    /// Sum and price every shard's I/O since the last call.
    fn metered(&mut self, moved: IoStats) -> Metered {
        let delta = moved.plus(&sum_deltas(&mut self.shards));
        Metered {
            page_accesses: delta.accesses(),
            estimated_io_ms: delta.estimated_ms(&self.cost_model),
            cache_hits: delta.cache_hits,
        }
    }
}

impl Operators for Paged<'_> {
    type Error = setm_relational::Error;

    /// sort R1 on item; C1 := generate counts from R1. The paper never
    /// filters the sales relation, so no filtered output is built.
    fn count_c1(&mut self, min_count: u64, _spec: &RunSpec) -> Result<(CountRelation, Metered)> {
        let k1_sort = SortOptions { buffer_pages: self.config.sort_buffer_pages };
        let c1 = if self.shards.len() == 1 {
            let sh = &mut self.shards[0];
            let by_item = external_sort(&sh.sales, &[1], k1_sort)?;
            let c1 = count_sorted_groups(&by_item, &[1], min_count, false)?.counts;
            by_item.free()?;
            c1
        } else {
            run_on_shards(&mut self.shards, |sh| sh.count_items(k1_sort))?;
            let locals = take_local_counts(&mut self.shards);
            CountRelation::merge_sum_filter(&locals, min_count)
        };
        Ok((c1, self.metered(IoStats::default())))
    }

    fn sales_stats(&self) -> LiveStats {
        self.sales
    }

    fn iterate(
        &mut self,
        k: usize,
        plan: &mut PhysicalPlan,
        min_count: u64,
        spec: &RunSpec,
    ) -> Result<Step> {
        let sort_opts = SortOptions { buffer_pages: plan.sort_buffer_pages };
        // Re-shard when the plan's parallelism changed. The move I/O is
        // attributed to this iteration's trace row.
        let mut moved = IoStats::default();
        if plan.shards != self.layout_shards {
            (moved, self.shards) = repartition(
                self.dataset,
                &self.weights,
                std::mem::take(&mut self.shards),
                plan.shards,
                self.config,
                &mut self.retired,
            )?;
            self.layout_shards = plan.shards;
            let note = ObsEvent::Note { name: "repartition", k, value: plan.shards as u64 };
            spec.sink.on_event(&note);
        }

        // Figure 4 replays the loop-top sort literally when the plan does
        // not reuse the standing (trans_id, items) order; the previous
        // iteration's closing ORDER BY makes it the identity, so results
        // never depend on this bit.
        let resort = !plan.reuse_sort;
        let (join, cc) = (plan.join, spec.constraints);
        let (c_k, r_tuples) = if self.shards.len() == 1 {
            // The paper's fused sequential pipeline: C_k and R_k come
            // from one counting pass (C_k kept in memory per Section
            // 4.3's accounting).
            let sh = &mut self.shards[0];
            let sorted_prime = sh.extend_sorted(k, resort, join, sort_opts, cc)?;
            let item_key: Vec<usize> = (1..=k).collect();
            let scan = count_sorted_groups(&sorted_prime, &item_key, min_count, true)?;
            sorted_prime.free()?;
            let r_k =
                order_by_tid_items(scan.filtered.expect("filter output requested"), k, sort_opts)?;
            let r_tuples = r_k.n_records();
            sh.install_r_prev(r_k)?;
            (scan.counts, r_tuples)
        } else {
            // Decoupled parallel pipeline: threshold-free local counts,
            // global k-way merge, per-shard filter.
            run_on_shards(&mut self.shards, |sh| sh.phase1(k, resort, join, sort_opts, cc))?;
            let locals = take_local_counts(&mut self.shards);
            let c_k = CountRelation::merge_sum_filter(&locals, min_count);
            let c_ref = &c_k;
            run_on_shards(&mut self.shards, |sh| sh.filter(k, c_ref, sort_opts))?;
            (c_k, self.shards.iter().map(|sh| sh.r_prev.n_records()).sum())
        };
        let r_prime_tuples = self.shards.iter().map(|sh| sh.r_prime_tuples).sum();
        let pruned = self.shards.iter().map(|sh| sh.pruned_pairs).sum();
        Ok(Step { c_k, r_prime_tuples, r_tuples, pruned, io: self.metered(moved) })
    }
}

/// Lay `SALES` out across `n_shards` contiguous `trans_id` ranges
/// balanced by row count, one pager per shard. The load itself is
/// excluded from the meter (the paper's accounting starts with the data
/// resident). Each shard pager gets a private cache of its
/// [`split_frames_evenly`] share of the frame budget.
fn build_shards(
    dataset: &Dataset,
    weights: &[usize],
    n_shards: usize,
    config: &EngineConfig,
) -> Result<Vec<EngineShard>> {
    let ranges = partition_by_weight(weights, n_shards);
    let range_weights: Vec<u64> =
        ranges.iter().map(|r| weights[r.clone()].iter().map(|&w| w as u64).sum()).collect();
    let frames = split_frames_evenly(config.cache_frames, &range_weights);
    let mut shards: Vec<EngineShard> = Vec::with_capacity(ranges.len());
    let mut txns = dataset.transactions();
    for (range, frames) in ranges.iter().zip(frames) {
        let pager = Pager::shared();
        pager.lock().set_cache_frames(frames);
        let mut rows: Vec<[u32; 2]> = Vec::new();
        for (tid, items) in txns.by_ref().take(range.len()) {
            rows.extend(items.iter().map(|&it| [tid, it]));
        }
        let sales = HeapFile::from_rows(pager.clone(), 2, rows.iter().map(|r| r.as_slice()))?;
        pager.lock().reset_stats();
        let last_stats = pager.lock().stats();
        shards.push(EngineShard {
            pager,
            r_prev: sales.clone(),
            sales,
            index: None,
            last_stats,
            measured: IoStats::default(),
            sorted_prime: None,
            local_counts: CountRelation::new(1),
            r_prime_tuples: 0,
            pruned_pairs: 0,
        });
    }
    Ok(shards)
}

/// Move to a new shard count: drain every shard's `R_{k-1}` (reads
/// charged), retire the old pagers into `retired`, rebuild the `SALES`
/// slices on fresh pagers (off-meter, like the initial load), and write
/// each new shard's `R_{k-1}` slice (writes charged). Returns the I/O
/// charged on the old pagers while draining, for attribution to the
/// current iteration; the redistribution writes land in the new shards'
/// next delta. `R_{k-1}` rows stay in global `(trans_id, items)` order.
fn repartition(
    dataset: &Dataset,
    weights: &[usize],
    mut old: Vec<EngineShard>,
    n_shards: usize,
    config: &EngineConfig,
    retired: &mut IoStats,
) -> Result<(IoStats, Vec<EngineShard>)> {
    let arity = old[0].r_prev.arity();
    let mut rows: Vec<Vec<u32>> = Vec::new();
    for sh in &mut old {
        let mut cursor = sh.r_prev.cursor();
        while let Some(row) = cursor.next_row()? {
            rows.push(row.to_vec());
        }
        sh.free_prev()?;
    }
    let mut moved = IoStats::default();
    for sh in &mut old {
        moved = moved.plus(&sh.take_delta());
        *retired = retired.plus(&sh.measured);
    }
    drop(old);

    let mut shards = build_shards(dataset, weights, n_shards, config)?;
    let ranges = partition_by_weight(weights, n_shards);
    let tids: Vec<u32> = dataset.transactions().map(|(tid, _)| tid).collect();
    let mut ri = 0usize;
    let last_shard = shards.len() - 1;
    for (i, (sh, range)) in shards.iter_mut().zip(&ranges).enumerate() {
        let hi = range.end.checked_sub(1).map(|e| tids[e]);
        let mut b = HeapFileBuilder::new(sh.pager.clone(), arity);
        while ri < rows.len() {
            let in_range = i == last_shard || matches!(hi, Some(h) if rows[ri][0] <= h);
            if !in_range {
                break;
            }
            b.push(&rows[ri])?;
            ri += 1;
        }
        let r_prev = b.finish()?;
        sh.free_prev()?;
        sh.r_prev = r_prev;
    }
    Ok((moved, shards))
}

/// Split `total` cache frames evenly across shards of the given weights:
/// every shard gets `total / n` frames and the `total % n` leftover frames
/// go one each to the heaviest shards (ties to the lower index), so the
/// shares always sum to exactly `total`.
fn split_frames_evenly(total: usize, weights: &[u64]) -> Vec<usize> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let base = total / n;
    let remainder = total % n;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| weights[b].cmp(&weights[a]).then(a.cmp(&b)));
    let mut shares = vec![base; n];
    for &i in order.iter().take(remainder) {
        shares[i] += 1;
    }
    shares
}

/// The paper's closing step: ORDER BY (trans_id, item_1, .., item_k).
fn order_by_tid_items(r_k: HeapFile, k: usize, sort_opts: SortOptions) -> Result<HeapFile> {
    if r_k.n_records() == 0 {
        return Ok(r_k);
    }
    let key: Vec<usize> = (0..=k).collect();
    let sorted = external_sort(&r_k, &key, sort_opts)?;
    r_k.free()?;
    Ok(sorted)
}

/// One `trans_id` shard: its own simulated disk, its slice of `SALES`,
/// its `R_{k-1}`, the optional probe index, and per-iteration outputs.
struct EngineShard {
    pager: SharedPager,
    sales: HeapFile,
    /// Lazily built `(trans_id, item)` B+-tree over the local `SALES`,
    /// for nested-loop plans. Kept for the rest of the run once built.
    index: Option<SalesIndex>,
    r_prev: HeapFile,
    last_stats: IoStats,
    /// Sum of every delta this shard has reported — its contribution to
    /// the run total.
    measured: IoStats,
    /// Items-sorted `R'_k` awaiting the global filter (parallel plan).
    sorted_prime: Option<HeapFile>,
    /// Local (threshold-free) group counts of `sorted_prime`.
    local_counts: CountRelation,
    r_prime_tuples: u64,
    /// Candidate pairs the constraint pushdown rejected inside this
    /// shard's extension join, re-assigned every iteration.
    pruned_pairs: u64,
}

impl EngineShard {
    /// k = 1 on a multi-shard layout: sort the local `SALES` on item and
    /// count every item group (the threshold applies only to the merged
    /// global counts).
    fn count_items(&mut self, sort_opts: SortOptions) -> Result<()> {
        let by_item = external_sort(&self.sales, &[1], sort_opts)?;
        self.local_counts = count_sorted_groups(&by_item, &[1], 1, false)?.counts;
        by_item.free()
    }

    /// Build the probe index on first use. The build cost is excluded
    /// from the meter (the paper's Section 3 assumes the indices already
    /// exist, "maintained as part of normal operation"); every probe
    /// against it is charged.
    fn ensure_index(&mut self) -> Result<&SalesIndex> {
        if self.index.is_none() {
            let before = self.pager.lock().stats();
            let built = SalesIndex::build(&self.sales)?;
            let after = self.pager.lock().stats();
            self.last_stats = self.last_stats.plus(&after.since(&before));
            self.index = Some(built);
        }
        Ok(self.index.as_ref().expect("just built"))
    }

    /// (Re)sort `R_{k-1}`, run the plan's extension join against the
    /// local `SALES`, and return `R'_k` sorted on its item columns.
    /// Leaves `r_prev` pointing at `SALES` as a placeholder until the
    /// filter step installs `R_k`.
    fn extend_sorted(
        &mut self,
        k: usize,
        resort: bool,
        join: JoinStrategy,
        sort_opts: SortOptions,
        cc: &CompiledConstraints,
    ) -> Result<HeapFile> {
        let k_prev = k - 1;
        if resort {
            let key: Vec<usize> = (0..=k_prev).collect();
            let sorted = external_sort(&self.r_prev, &key, sort_opts)?;
            self.free_prev()?;
            self.r_prev = sorted;
        }
        let (r_prime, pruned) = if cc.is_empty() {
            self.extension_join(k, join, &Unconstrained)?
        } else {
            self.extension_join(k, join, cc)?
        };
        self.pruned_pairs = pruned;
        self.free_prev()?;
        self.r_prev = self.sales.clone(); // placeholder until R_k lands
        let item_key: Vec<usize> = (1..=k).collect();
        let sorted_prime = external_sort(&r_prime, &item_key, sort_opts)?;
        self.r_prime_tuples = r_prime.n_records();
        r_prime.free()?;
        Ok(sorted_prime)
    }

    /// `R'_k := R_{k-1} ⋈ SALES` via the plan's access path, with the
    /// candidate filter inside the join predicate. Returns `R'_k` and the
    /// number of pairs the filter rejected.
    fn extension_join<F: CandidateFilter>(
        &mut self,
        k: usize,
        join: JoinStrategy,
        filter: &F,
    ) -> Result<(HeapFile, u64)> {
        match join {
            JoinStrategy::MergeScan => {
                let pruned = Cell::new(0u64);
                let r_prime = merge_scan_join(
                    &self.r_prev,
                    &self.sales,
                    &[0],
                    &[0],
                    k + 1,
                    |l, r| filter.extends(l, r[1], &pruned),
                    |l, r, out| {
                        out.extend_from_slice(l);
                        out.push(r[1]);
                    },
                )?;
                Ok((r_prime, pruned.get()))
            }
            JoinStrategy::NestedLoop => {
                self.ensure_index()?;
                self.index.as_ref().expect("ensured").extend_join(&self.r_prev, k, filter)
            }
        }
    }

    /// Parallel-plan phase 1: extension join, item sort, local count.
    fn phase1(
        &mut self,
        k: usize,
        resort: bool,
        join: JoinStrategy,
        sort_opts: SortOptions,
        cc: &CompiledConstraints,
    ) -> Result<()> {
        let sorted_prime = self.extend_sorted(k, resort, join, sort_opts, cc)?;
        let item_key: Vec<usize> = (1..=k).collect();
        self.local_counts = count_sorted_groups(&sorted_prime, &item_key, 1, false)?.counts;
        self.sorted_prime = Some(sorted_prime);
        Ok(())
    }

    /// Parallel-plan phase 2: filter the local `R'_k` against the global
    /// `C_k`, then ORDER BY (trans_id, items) as the paper's loop does.
    fn filter(&mut self, k: usize, c_k: &CountRelation, sort_opts: SortOptions) -> Result<()> {
        let sorted_prime = self.sorted_prime.take().expect("phase 1 ran");
        let r_k = filter_by_counts(&sorted_prime, c_k)?;
        sorted_prime.free()?;
        let r_k = order_by_tid_items(r_k, k, sort_opts)?;
        self.install_r_prev(r_k)
    }

    /// Install the iteration's `R_k` as the next `R_{k-1}`.
    fn install_r_prev(&mut self, r_k: HeapFile) -> Result<()> {
        self.free_prev()?;
        self.r_prev = r_k;
        Ok(())
    }

    fn free_prev(&mut self) -> Result<()> {
        if self.r_prev.file_id() != self.sales.file_id() {
            self.r_prev.clone().free()?;
        }
        Ok(())
    }

    /// Stats delta since the last call, for per-iteration attribution;
    /// accumulated into `measured` so the run total is exactly the sum
    /// of the attributed deltas.
    fn take_delta(&mut self) -> IoStats {
        let stats = self.pager.lock().stats();
        let delta = stats.since(&self.last_stats);
        self.last_stats = stats;
        self.measured = self.measured.plus(&delta);
        delta
    }
}

/// Run `f` on every shard, one scoped worker thread per shard, and
/// propagate the first error.
fn run_on_shards<F>(shards: &mut [EngineShard], f: F) -> Result<()>
where
    F: Fn(&mut EngineShard) -> Result<()> + Sync,
{
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = shards.iter_mut().map(|sh| s.spawn(move || f(sh))).collect();
        for h in handles {
            h.join().expect("engine shard worker panicked")?;
        }
        Ok(())
    })
}

fn take_local_counts(shards: &mut [EngineShard]) -> Vec<CountRelation> {
    shards
        .iter_mut()
        .map(|sh| std::mem::replace(&mut sh.local_counts, CountRelation::new(1)))
        .collect()
}

fn sum_deltas(shards: &mut [EngineShard]) -> IoStats {
    shards.iter_mut().map(|sh| sh.take_delta()).fold(IoStats::default(), |acc, d| acc.plus(&d))
}

/// Retain the rows of an items-sorted pattern file whose pattern appears
/// in `c_k`. Both sides are pattern-sorted, so membership is one monotone
/// merge cursor — no binary search per row.
fn filter_by_counts(file: &HeapFile, c_k: &CountRelation) -> Result<HeapFile> {
    let mut b = HeapFileBuilder::new(file.pager().clone(), file.arity());
    let mut cursor = file.cursor();
    let mut ci = 0usize;
    while let Some(row) = cursor.next_row()? {
        let pattern = &row[1..];
        while ci < c_k.len() && c_k.pattern_at(ci) < pattern {
            ci += 1;
        }
        if ci < c_k.len() && c_k.pattern_at(ci) == pattern {
            b.push(row)?;
        }
    }
    b.finish()
}

/// Result of one counting pass over a group-sorted file.
struct GroupScan {
    /// The count relation over the group columns (threshold applied).
    counts: CountRelation,
    /// Rows of supported groups, when requested.
    filtered: Option<HeapFile>,
    /// Largest number of rows the group buffer ever held. Bounded by
    /// `min_count − 1`: once a group provably qualifies, its remaining
    /// rows stream straight to the output instead of accumulating.
    /// Asserted by the hot-group regression test.
    #[cfg_attr(not(test), allow(dead_code))]
    peak_group_buffer_rows: u64,
}

/// One pass over a group-sorted file: produce the count relation over the
/// `group_cols` and (when `build_filtered` and the file has a tid column)
/// the filtered `R_k` containing rows of supported groups.
///
/// Memory is bounded regardless of group size: rows buffer only until the
/// group's count reaches `min_count` — from then on they are streamed to
/// the output — so a single hot itemset cannot blow the memory budget.
fn count_sorted_groups(
    file: &HeapFile,
    group_cols: &[usize],
    min_count: u64,
    build_filtered: bool,
) -> Result<GroupScan> {
    let k = group_cols.len();
    let arity = file.arity();
    let mut c = CountRelation::new(k);
    let wants_filter = build_filtered && arity == k + 1;
    let mut filtered =
        if wants_filter { Some(HeapFileBuilder::new(file.pager().clone(), arity)) } else { None };

    let mut cursor = file.cursor();
    let mut current: Vec<u32> = Vec::with_capacity(k);
    let mut group_rows: Vec<u32> = Vec::new();
    let mut count: u64 = 0;
    let mut peak: u64 = 0;

    while let Some(row) = cursor.next_row()? {
        let same =
            count > 0 && group_cols.iter().enumerate().all(|(i, &col)| row[col] == current[i]);
        if !same {
            if count >= min_count {
                c.push(&current, count);
            }
            current.clear();
            current.extend(group_cols.iter().map(|&col| row[col]));
            count = 0;
            group_rows.clear();
        }
        count += 1;
        if let Some(b) = filtered.as_mut() {
            if count >= min_count {
                // The group qualifies: flush anything buffered, then
                // stream every further row directly.
                for r in group_rows.chunks_exact(arity) {
                    b.push(r)?;
                }
                group_rows.clear();
                b.push(row)?;
            } else {
                group_rows.extend_from_slice(row);
                peak = peak.max((group_rows.len() / arity) as u64);
            }
        }
    }
    if count >= min_count {
        c.push(&current, count);
    }
    let filtered = match filtered {
        Some(b) => Some(b.finish()?),
        None => None,
    };
    Ok(GroupScan { counts: c, filtered, peak_group_buffer_rows: peak })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, MinSupport, MiningParams};
    use crate::example;
    use crate::setm::memory;
    use crate::setm::plan::PlanMode;

    fn cfg() -> EngineConfig {
        EngineConfig::default()
    }

    /// One auto-planned engine run at `threads`.
    fn run(
        d: &Dataset,
        params: &MiningParams,
        config: EngineConfig,
        threads: usize,
    ) -> (SetmResult, EngineReport) {
        execute(d, params, &config, &RunSpec { threads, ..Default::default() }).unwrap()
    }

    #[test]
    fn engine_matches_memory_on_worked_example() {
        let d = example::paper_example_dataset();
        let params = example::paper_example_params();
        let mem = memory::execute(&d, &params, &RunSpec::default());
        let eng = run(&d, &params, cfg(), 0);
        assert_eq!(eng.0.frequent_itemsets(), mem.frequent_itemsets());
        assert_eq!(eng.0.max_pattern_len(), 3);
        // Tuple counts per iteration agree too.
        for (a, b) in mem.trace.iter().zip(eng.0.trace.iter()) {
            assert_eq!(a.k, b.k);
            assert_eq!(a.r_prime_tuples, b.r_prime_tuples);
            assert_eq!(a.r_tuples, b.r_tuples);
            assert_eq!(a.c_len, b.c_len);
        }
    }

    #[test]
    fn engine_charges_io() {
        let d = example::paper_example_dataset();
        let params = example::paper_example_params();
        let eng = run(&d, &params, cfg(), 0);
        assert!(eng.1.page_accesses > 0);
        assert!(eng.1.estimated_io_ms > 0.0);
        // Each iteration carries its own accesses; they sum to the total.
        let sum: u64 = eng.0.trace.iter().map(|t| t.page_accesses).sum();
        assert_eq!(sum, eng.1.page_accesses);
    }

    #[test]
    fn parallel_engine_charges_io_consistently() {
        let txns: Vec<(u32, Vec<u32>)> =
            (0..300).map(|t| (t, vec![1, 2, 3, 4 + (t % 4)])).collect();
        let d = Dataset::from_transactions(txns.iter().map(|(t, i)| (*t, i.as_slice())));
        let params = MiningParams::new(MinSupport::Fraction(0.2), 0.5);
        let run = run(&d, &params, cfg(), 3);
        assert!(run.1.page_accesses > 0);
        let sum: u64 = run.0.trace.iter().map(|t| t.page_accesses).sum();
        assert_eq!(sum, run.1.page_accesses);
    }

    /// Sequential and sharded engine runs agree — itemsets, counts, and
    /// the tuple-count trace series — for every shard count.
    #[test]
    fn sharded_engine_matches_sequential_exactly() {
        let txns: Vec<(u32, Vec<u32>)> = (0..80u32)
            .map(|t| {
                let mut items = vec![1, 2, 3];
                if t % 3 == 0 {
                    items.extend([10, 11]);
                }
                (t + 1, items)
            })
            .collect();
        let d = Dataset::from_transactions(txns.iter().map(|(t, i)| (*t, i.as_slice())));
        let params = MiningParams::new(MinSupport::Fraction(0.2), 0.5);
        let seq = run(&d, &params, cfg(), 1);
        for threads in [2usize, 3, 4, 8] {
            let par = run(&d, &params, cfg(), threads);
            assert_eq!(par.0.frequent_itemsets(), seq.0.frequent_itemsets(), "threads={threads}");
            assert_eq!(par.0.trace.len(), seq.0.trace.len());
            for (a, b) in seq.0.trace.iter().zip(par.0.trace.iter()) {
                assert_eq!(a.k, b.k);
                assert_eq!(a.r_prime_tuples, b.r_prime_tuples, "threads={threads} k={}", a.k);
                assert_eq!(a.r_tuples, b.r_tuples, "threads={threads} k={}", a.k);
                assert_eq!(a.c_len, b.c_len, "threads={threads} k={}", a.k);
            }
        }
    }

    /// One engine run under a forced merge-scan plan with `reuse_sort`
    /// on `shards` shards.
    fn forced(
        d: &Dataset,
        params: &MiningParams,
        reuse_sort: bool,
        shards: usize,
    ) -> (SetmResult, EngineReport) {
        let plan = PhysicalPlan { reuse_sort, shards, ..PhysicalPlan::merge_scan() };
        let spec =
            RunSpec { threads: shards, plan_mode: PlanMode::Forced(plan), ..RunSpec::default() };
        execute(d, params, &cfg(), &spec).unwrap()
    }

    #[test]
    fn sort_tracking_saves_sort_passes() {
        // A dataset big enough that R_2 spans multiple pages.
        let txns: Vec<(u32, Vec<u32>)> =
            (0..400).map(|t| (t, vec![1, 2, 3, 4 + (t % 3)])).collect();
        let d = Dataset::from_transactions(txns.iter().map(|(t, i)| (*t, i.as_slice())));
        let params = MiningParams::new(MinSupport::Fraction(0.2), 0.5);
        let tracked = forced(&d, &params, true, 1);
        let naive = forced(&d, &params, false, 1);
        assert_eq!(
            tracked.0.frequent_itemsets(),
            naive.0.frequent_itemsets(),
            "the optimization must not change results"
        );
        assert!(
            tracked.1.page_accesses < naive.1.page_accesses,
            "tracking sort order must save I/O: tracked={} naive={}",
            tracked.1.page_accesses,
            naive.1.page_accesses
        );
    }

    #[test]
    fn sort_tracking_saves_io_in_parallel_mode_too() {
        let txns: Vec<(u32, Vec<u32>)> =
            (0..400).map(|t| (t, vec![1, 2, 3, 4 + (t % 3)])).collect();
        let d = Dataset::from_transactions(txns.iter().map(|(t, i)| (*t, i.as_slice())));
        let params = MiningParams::new(MinSupport::Fraction(0.2), 0.5);
        let tracked = forced(&d, &params, true, 4);
        let naive = forced(&d, &params, false, 4);
        assert_eq!(tracked.0.frequent_itemsets(), naive.0.frequent_itemsets());
        assert!(tracked.1.page_accesses < naive.1.page_accesses);
    }

    #[test]
    fn buffer_cache_reduces_charged_io() {
        let d = example::paper_example_dataset();
        let params = example::paper_example_params();
        let cold = run(&d, &params, EngineConfig { cache_frames: 0, ..cfg() }, 1);
        let warm = run(&d, &params, EngineConfig { cache_frames: 1024, ..cfg() }, 1);
        assert_eq!(cold.0.frequent_itemsets(), warm.0.frequent_itemsets());
        assert!(warm.1.page_accesses <= cold.1.page_accesses);
    }

    #[test]
    fn split_frames_evenly_sends_remainder_to_heaviest() {
        // A plain `7 / 3 = 2` per shard would drop 1 frame.
        assert_eq!(split_frames_evenly(7, &[10, 30, 20]), vec![2, 3, 2]);
        assert_eq!(split_frames_evenly(11, &[1, 1, 1, 1]), vec![3, 3, 3, 2]);
        for (total, weights) in [(7usize, vec![1u64, 2, 3]), (256, vec![9, 9, 9, 9, 9])] {
            let shares = split_frames_evenly(total, &weights);
            assert_eq!(shares.iter().sum::<usize>(), total, "total frames granted");
        }
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::from_pairs(std::iter::empty());
        let params = MiningParams::new(MinSupport::Count(1), 0.5);
        let run = run(&d, &params, cfg(), 0);
        assert_eq!(run.0.max_pattern_len(), 0);
    }

    /// Every iteration of the planned loop records the plan it executed;
    /// the k = 1 count is unplanned.
    #[test]
    fn trace_records_the_executed_plan() {
        let d = example::paper_example_dataset();
        let params = example::paper_example_params();
        let run = run(&d, &params, cfg(), 1);
        assert_eq!(run.0.trace[0].plan, None);
        assert_eq!(run.0.trace[0].plan_string(), "-");
        for t in &run.0.trace[1..] {
            let plan = t.plan.expect("iterations k >= 2 carry a plan");
            assert!(plan.validate().is_ok());
            assert_eq!(t.plan_string(), plan.to_string());
        }
    }

    /// A forced nested-loop plan mines the identical result as the
    /// forced merge-scan plan — only the I/O shape moves (probes are
    /// random reads).
    #[test]
    fn forced_nested_loop_plan_matches_merge_scan_results() {
        let d = example::paper_example_dataset();
        let params = example::paper_example_params();
        // Uncached: the I/O-shape assertion below is about the disk
        // access pattern, which a warm cache would absorb.
        let uncached = EngineConfig { cache_frames: 0, ..cfg() };
        let forced = |plan: PhysicalPlan| {
            let spec =
                RunSpec { threads: 1, plan_mode: PlanMode::Forced(plan), ..Default::default() };
            execute(&d, &params, &uncached, &spec).unwrap()
        };
        let ms = forced(PhysicalPlan::merge_scan());
        let nl =
            forced(PhysicalPlan { join: JoinStrategy::NestedLoop, ..PhysicalPlan::merge_scan() });
        assert_eq!(nl.0.frequent_itemsets(), ms.0.frequent_itemsets());
        for (a, b) in ms.0.trace.iter().zip(nl.0.trace.iter()) {
            assert_eq!(a.r_prime_tuples, b.r_prime_tuples, "k={}", a.k);
            assert_eq!(a.r_tuples, b.r_tuples, "k={}", a.k);
            assert_eq!(a.c_len, b.c_len, "k={}", a.k);
        }
        assert!(nl.1.io.rand_reads > ms.1.io.rand_reads, "probes are random reads");
    }

    /// When the auto planner collapses a tiny residue to one shard
    /// mid-run, the engine repartitions: results still match the
    /// sequential run and the per-iteration deltas still sum to the
    /// total.
    #[test]
    fn midrun_shard_collapse_repartitions_consistently() {
        // 80 transactions of {1,2,3} plus a unique cold item each:
        // R_2 = 240 tuples (under a page at k = 3), so a 4-shard run
        // collapses to 1 shard from k = 3 on.
        let txns: Vec<(u32, Vec<u32>)> = (0..80u32).map(|t| (t, vec![1, 2, 3, 100 + t])).collect();
        let d = Dataset::from_transactions(txns.iter().map(|(t, i)| (*t, i.as_slice())));
        let params = MiningParams::new(MinSupport::Count(40), 0.5);
        let seq = run(&d, &params, cfg(), 1);
        let par = run(&d, &params, cfg(), 4);
        assert_eq!(par.0.frequent_itemsets(), seq.0.frequent_itemsets());
        let k2 = par.0.trace[1].plan.unwrap();
        let k3 = par.0.trace[2].plan.unwrap();
        assert_eq!(k2.shards, 4, "full fan-out while R_1 is large");
        assert_eq!(k3.shards, 1, "page-sized residue collapses");
        let sum: u64 = par.0.trace.iter().map(|t| t.page_accesses).sum();
        assert_eq!(sum, par.1.page_accesses, "repartition I/O stays attributed");
    }

    /// Satellite regression: a single hot itemset must not accumulate its
    /// whole group in memory — the buffer is capped below `min_count`
    /// rows, after which rows stream straight to the filtered output.
    #[test]
    fn hot_group_buffer_is_capped_at_min_count() {
        let pager = Pager::shared();
        // One pattern {1,2} supported by 5,000 transactions (rows sorted
        // by items, then a small cold group behind it).
        let mut rows: Vec<[u32; 3]> = (0..5_000u32).map(|t| [t, 1, 2]).collect();
        rows.push([7, 1, 3]);
        let file = HeapFile::from_rows(pager, 3, rows.iter().map(|r| r.as_slice())).unwrap();
        let scan = count_sorted_groups(&file, &[1, 2], 5, true).unwrap();
        assert_eq!(scan.counts.get(&[1, 2]), Some(5_000));
        assert_eq!(scan.counts.get(&[1, 3]), None);
        let filtered = scan.filtered.unwrap();
        assert_eq!(filtered.n_records(), 5_000, "all hot-group rows kept");
        assert!(
            scan.peak_group_buffer_rows < 5,
            "group buffer must stay under min_count, held {} rows",
            scan.peak_group_buffer_rows
        );
    }

    #[test]
    fn capped_counting_matches_unfiltered_relation() {
        // The streamed filter output is identical to the old
        // buffer-everything behaviour: same rows, same order.
        let pager = Pager::shared();
        let rows: Vec<[u32; 3]> = vec![
            [1, 1, 2],
            [2, 1, 2],
            [3, 1, 2],
            [1, 1, 3], // count 1 < 2: dropped
            [1, 2, 3],
            [2, 2, 3],
        ];
        let file = HeapFile::from_rows(pager, 3, rows.iter().map(|r| r.as_slice())).unwrap();
        let scan = count_sorted_groups(&file, &[1, 2], 2, true).unwrap();
        assert_eq!(
            scan.filtered.unwrap().rows().unwrap(),
            vec![vec![1, 1, 2], vec![2, 1, 2], vec![3, 1, 2], vec![1, 2, 3], vec![2, 2, 3]],
        );
        assert_eq!(scan.counts.len(), 2);
    }
}
