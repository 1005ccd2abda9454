//! In-memory execution of Algorithm SETM.
//!
//! The in-memory operator set of the shared Figure 4 loop, entered
//! through [`execute`]: the merge-scan join walks `R_{k-1}` and `R_1` in
//! `(trans_id, ...)` order, the counting step is a single pass over the
//! items-sorted `R'_k`, and the filter step retains tuples of supported
//! groups. The only liberties taken are representational (flat row
//! buffers instead of pages); every logical step, including joining
//! against the *unfiltered* `R_1`, matches the paper. The join kernels
//! are generic over a [`CandidateFilter`], so constraint pushdown and the
//! paper's plain join are one kernel each.
//!
//! # Parallel sharded execution
//!
//! When an iteration's plan asks for `shards > 1` (up to
//! [`RunSpec::threads`]) the run is partitioned into contiguous
//! `trans_id` shards (see [`crate::setm::shard`]): each worker sorts,
//! merge-scans, and locally counts its own transactions under
//! [`std::thread::scope`]; the per-shard count relations are then merged
//! in one k-way pass ([`CountRelation::merge_sum_filter`]) to apply the
//! global support threshold, and each shard filters its own `R'_k` against
//! the merged `C_k`. Results — count relations and the `|R'_k|`/`|R_k|`/
//! `|C_k|` trace series — are identical to the sequential run for every
//! shard count; only wall-clock time changes.

use crate::constraints::{CandidateFilter, CompiledConstraints, Unconstrained};
use crate::data::{Dataset, Item, MiningParams, TransId};
use crate::pattern::{CountRelation, PatternRelation};
use crate::setm::driver::{drive, Metered, Operators, Step};
use crate::setm::plan::{JoinStrategy, LiveStats, PhysicalPlan, Planner, PlannerConfig};
use crate::setm::shard::{partition_by_weight, resolve_threads};
use crate::setm::{RunSpec, SetmResult};
use setm_obs::{ObsEvent, ObsSink};
use std::collections::HashSet;
use std::convert::Infallible;
use std::ops::Range;

/// Mine `dataset` with in-memory set operators. The plan's `join`,
/// `shards` and `reuse_sort` dimensions are honored; `sort_buffer_pages`
/// is recorded in the trace but has no effect (there is no paged sorter
/// here). Besides the trace rows, the sink sees the two sorts around the
/// loop body as `sort_r_prev` / `sort_r_k` phase events.
pub fn execute(dataset: &Dataset, params: &MiningParams, spec: &RunSpec) -> SetmResult {
    let planner =
        Planner::new(spec.plan_mode, PlannerConfig::with_max_shards(resolve_threads(spec.threads)));
    let mut ops =
        InMemory { dataset, sales: Vec::new(), r_prev: PatternRelation::new(1), tid_sorted: true };
    match drive(&mut ops, dataset, params, &planner, spec) {
        Ok(result) => result,
        Err(never) => match never {},
    }
}

/// The in-memory operator set. `R_{k-1}` is kept as one global relation;
/// an iteration whose plan asks for `shards > 1` partitions it by
/// `trans_id` range on the fly (phase 1: join + items-sort + local count
/// per shard in parallel; merge; phase 2: filter per shard in parallel).
/// Because group counts are algebraic and every shard holds whole
/// transactions, the counts, the filtered `R_k`, and the trace series
/// are identical to the one-shard run — `tests/plan_equivalence.rs`
/// proves it for the full forced-plan matrix.
struct InMemory<'a> {
    dataset: &'a Dataset,
    /// The `SALES` side of every extension join, one sorted item list
    /// per transaction.
    sales: Vec<(TransId, Vec<Item>)>,
    r_prev: PatternRelation,
    /// Whether `r_prev` is in `(trans_id, item_1, ..)` order.
    tid_sorted: bool,
}

impl Operators for InMemory<'_> {
    type Error = Infallible;

    fn count_c1(
        &mut self,
        min_count: u64,
        spec: &RunSpec,
    ) -> Result<(CountRelation, Metered), Infallible> {
        let c1 = count_items(self.dataset, min_count);
        // With the `filter_r1` extension the join side drops infrequent
        // items (results identical; see RunSpec). The keep set is the
        // unconstrained C1: free extension positions range over every
        // frequent item, even when an anchor restricts C1 itself.
        let keep: Option<HashSet<Item>> =
            spec.filter_r1.then(|| c1.iter().map(|(p, _)| p[0]).collect());
        self.sales = self
            .dataset
            .transactions()
            .filter_map(|(tid, items)| {
                let items: Vec<Item> = match &keep {
                    Some(keep) => items.iter().copied().filter(|it| keep.contains(it)).collect(),
                    None => items.to_vec(),
                };
                (!items.is_empty()).then_some((tid, items))
            })
            .collect();
        // R_1 doubles as the first "R_{k-1}": one tuple (tid, [item])
        // per row, built in transaction order, hence tid-sorted.
        let n_rows: usize = self.sales.iter().map(|(_, items)| items.len()).sum();
        self.r_prev = PatternRelation::with_capacity(1, n_rows);
        for (tid, items) in &self.sales {
            for &it in items {
                self.r_prev.push(*tid, &[it]);
            }
        }
        Ok((c1, Metered::default()))
    }

    fn sales_stats(&self) -> LiveStats {
        LiveStats::of_sales(self.sales.iter().map(|(_, items)| items.len()))
    }

    fn iterate(
        &mut self,
        k: usize,
        plan: &mut PhysicalPlan,
        min_count: u64,
        spec: &RunSpec,
    ) -> Result<Step, Infallible> {
        // sort R_{k-1} on (trans_id, item_1, .., item_{k-1}) — unless the
        // previous iteration's closing ORDER BY left it in that order.
        if !self.tid_sorted {
            sort_phase(spec.sink, "sort_r_prev", k, &mut self.r_prev);
        }
        let cc = spec.constraints;
        let (c_k, r_k, r_prime_tuples, pruned) = if plan.shards <= 1 {
            iterate_one_shard(&self.r_prev, &self.sales, plan.join, min_count, cc)
        } else {
            iterate_sharded(&self.r_prev, &self.sales, plan, min_count, cc)
        };
        let r_tuples = r_k.n_tuples() as u64;
        self.r_prev = r_k;
        Ok(Step { c_k, r_prime_tuples, r_tuples, pruned, io: Metered::default() })
    }

    /// The paper's closing "ORDER BY trans_id, item_1, .., item_k":
    /// performed here when the plan maintains the standing order for the
    /// next loop-top sort to reuse, deferred to the next loop top
    /// otherwise (the literal Figure 4 replay). Either way the join sees
    /// the same deterministic order.
    fn carry(&mut self, k: usize, plan: &PhysicalPlan, spec: &RunSpec) -> Result<(), Infallible> {
        if plan.reuse_sort {
            sort_phase(spec.sink, "sort_r_k", k, &mut self.r_prev);
        }
        self.tid_sorted = plan.reuse_sort;
        Ok(())
    }
}

/// Sort `r` on `(trans_id, items)` between `name` phase events.
fn sort_phase(sink: &dyn ObsSink, name: &'static str, k: usize, r: &mut PatternRelation) {
    sink.on_event(&ObsEvent::PhaseStart { name, k });
    r.sort_by_tid_items();
    sink.on_event(&ObsEvent::PhaseEnd { name, k });
}

/// One unpartitioned iteration: join, items-sort, then the fused
/// count-and-filter pass.
fn iterate_one_shard(
    r_prev: &PatternRelation,
    sales: &[(TransId, Vec<Item>)],
    join: JoinStrategy,
    min_count: u64,
    cc: &CompiledConstraints,
) -> (CountRelation, PatternRelation, u64, u64) {
    let (mut r_prime, pruned) = extend(r_prev, 0..r_prev.n_tuples(), sales, join, cc);
    r_prime.sort_by_items();
    let (c_k, r_k) = count_and_filter(&r_prime, min_count);
    (c_k, r_k, r_prime.n_tuples() as u64, pruned)
}

/// One partitioned iteration: contiguous `trans_id` shards, counted
/// locally and merged under the global threshold.
fn iterate_sharded(
    r_prev: &PatternRelation,
    sales: &[(TransId, Vec<Item>)],
    plan: &PhysicalPlan,
    min_count: u64,
    cc: &CompiledConstraints,
) -> (CountRelation, PatternRelation, u64, u64) {
    let weights: Vec<usize> = sales.iter().map(|(_, items)| items.len()).collect();
    let ranges = partition_by_weight(&weights, plan.shards);

    // Map each shard's transaction range to its row range of the
    // tid-sorted `R_{k-1}`.
    let mut tasks: Vec<(Range<usize>, Range<usize>)> = Vec::with_capacity(ranges.len());
    let mut row_start = 0usize;
    for range in &ranges {
        let row_end = if range.end < sales.len() {
            let boundary = sales[range.end].0;
            upper_row_bound(r_prev, row_start, boundary)
        } else {
            r_prev.n_tuples()
        };
        tasks.push((range.clone(), row_start..row_end));
        row_start = row_end;
    }

    // Phase 1 (parallel): join + items-sort + local count per shard.
    let mut shards: Vec<(PatternRelation, CountRelation, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = tasks
            .iter()
            .map(|(txn_range, row_range)| {
                let join = plan.join;
                s.spawn(move || {
                    let (mut r_prime, pruned) =
                        extend(r_prev, row_range.clone(), &sales[txn_range.clone()], join, cc);
                    r_prime.sort_by_items();
                    let local = count_groups(&r_prime);
                    (r_prime, local, pruned)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("SETM shard worker panicked")).collect()
    });

    // Merge the sorted per-shard counts and apply the global support
    // threshold in one k-way pass.
    let locals: Vec<CountRelation> =
        shards.iter_mut().map(|(_, c, _)| std::mem::replace(c, CountRelation::new(1))).collect();
    let c_k = CountRelation::merge_sum_filter(&locals, min_count);
    let r_prime_tuples: u64 = shards.iter().map(|(r, _, _)| r.n_tuples() as u64).sum();
    let pruned: u64 = shards.iter().map(|(_, _, p)| *p).sum();

    // Phase 2 (parallel): filter each shard's R'_k against the global
    // C_k, then concatenate in shard order (restoring one relation; the
    // next loop-top or closing sort re-establishes the canonical order).
    let parts: Vec<PatternRelation> = std::thread::scope(|s| {
        let c_ref = &c_k;
        let handles: Vec<_> = shards
            .iter()
            .map(|(r_prime, _, _)| s.spawn(move || filter_supported(r_prime, c_ref)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("SETM shard worker panicked")).collect()
    });
    let total: usize = parts.iter().map(|p| p.n_tuples()).sum();
    let mut r_k = PatternRelation::with_capacity(r_prev.k() + 1, total);
    for part in &parts {
        for (tid, items) in part.iter() {
            r_k.push(tid, items);
        }
    }
    (c_k, r_k, r_prime_tuples, pruned)
}

/// First row of the tid-sorted `r_prev` at or after `boundary`, searching
/// from `from`.
fn upper_row_bound(r_prev: &PatternRelation, from: usize, boundary: TransId) -> usize {
    let mut lo = from;
    let mut hi = r_prev.n_tuples();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if r_prev.row(mid).0 < boundary {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The extension join under either access path. Both walk the `R_{k-1}`
/// rows in order and emit extensions in ascending item order, so the
/// output rows and their order are identical — the plan-equivalence
/// contract. Returns the relation plus the number of candidate pairs
/// rejected by constraint pushdown; empty constraints run the
/// [`Unconstrained`] kernels.
fn extend(
    r_prev: &PatternRelation,
    rows: Range<usize>,
    sales: &[(TransId, Vec<Item>)],
    join: JoinStrategy,
    cc: &CompiledConstraints,
) -> (PatternRelation, u64) {
    fn run<F: CandidateFilter>(
        r_prev: &PatternRelation,
        rows: Range<usize>,
        sales: &[(TransId, Vec<Item>)],
        join: JoinStrategy,
        filter: &F,
    ) -> (PatternRelation, u64) {
        match join {
            JoinStrategy::MergeScan => merge_scan(r_prev, rows, sales, filter),
            JoinStrategy::NestedLoop => nested_loop(r_prev, rows, sales, filter),
        }
    }
    if cc.is_empty() {
        run(r_prev, rows, sales, join, &Unconstrained)
    } else {
        run(r_prev, rows, sales, join, cc)
    }
}

/// C1: per-item transaction counts with the minimum-support filter
/// ("SELECT item, COUNT(*) FROM SALES GROUP BY item HAVING COUNT(*) >= s").
pub fn count_items(dataset: &Dataset, min_count: u64) -> CountRelation {
    let mut items: Vec<Item> = dataset.items().to_vec();
    items.sort_unstable();
    let mut c1 = CountRelation::new(1);
    let mut i = 0;
    while i < items.len() {
        let item = items[i];
        let mut j = i + 1;
        while j < items.len() && items[j] == item {
            j += 1;
        }
        let count = (j - i) as u64;
        if count >= min_count {
            c1.push(&[item], count);
        }
        i = j;
    }
    c1
}

/// The merge-scan join of Figure 4: both inputs ordered by `trans_id`;
/// within each transaction, extend every `R_{k-1}` tuple (of the given
/// row range) with every sales item greater than its last item
/// (preserving lexicographic patterns).
pub fn merge_scan_extend(
    r_prev: &PatternRelation,
    rows: Range<usize>,
    sales: &[(TransId, Vec<Item>)],
) -> PatternRelation {
    merge_scan(r_prev, rows, sales, &Unconstrained).0
}

/// [`merge_scan_extend`] with `filter` evaluated on every candidate pair
/// that passes the paper's `q.item > p.item_{k-1}` join predicate. Two
/// checks exist:
///
/// * the *extension* item must be allowed at pattern position `k_prev`
///   (the anchor item for anchored positions, any non-excluded item for
///   free ones);
/// * at k = 2 only, the *prefix* side needs the position-0 check too,
///   because `R_1` is the paper's unfiltered sales relation — every
///   later `R_{k-1}` was filtered against the anchored `C_{k-1}` and is
///   clean by induction.
///
/// The second return value counts the rejected pairs (a rejected k = 2
/// prefix charges all of its would-be extensions).
fn merge_scan<F: CandidateFilter>(
    r_prev: &PatternRelation,
    rows: Range<usize>,
    sales: &[(TransId, Vec<Item>)],
    filter: &F,
) -> (PatternRelation, u64) {
    let k_prev = r_prev.k();
    let check_prefix = k_prev == 1;
    let mut pruned = 0u64;
    let mut out = PatternRelation::with_capacity(k_prev + 1, rows.len());
    let mut buf: Vec<Item> = vec![0; k_prev + 1];
    let mut s = 0usize; // cursor into sales (sorted by tid)
    let mut row = rows.start;
    let n = rows.end;
    while row < n {
        let (tid, _) = r_prev.row(row);
        // Advance the sales cursor to this transaction.
        while s < sales.len() && sales[s].0 < tid {
            s += 1;
        }
        if s >= sales.len() {
            break;
        }
        if sales[s].0 > tid {
            // Transaction vanished from the (possibly filtered) sales
            // side; skip its R_{k-1} group.
            while row < n && r_prev.row(row).0 == tid {
                row += 1;
            }
            continue;
        }
        let items = &sales[s].1;
        // Process the whole R_{k-1} group for this transaction.
        while row < n {
            let (t, pattern) = r_prev.row(row);
            if t != tid {
                break;
            }
            let last = pattern[k_prev - 1];
            // Items are sorted within a transaction: binary search for the
            // first strictly greater than the pattern's last item.
            let start = items.partition_point(|&it| it <= last);
            if check_prefix && !filter.allows_at(0, pattern[0]) {
                // The whole group of pairs through this prefix is pruned.
                pruned += (items.len() - start) as u64;
                row += 1;
                continue;
            }
            for &ext in &items[start..] {
                if filter.allows_at(k_prev, ext) {
                    buf[..k_prev].copy_from_slice(pattern);
                    buf[k_prev] = ext;
                    out.push(tid, &buf);
                } else {
                    pruned += 1;
                }
            }
            row += 1;
        }
    }
    (out, pruned)
}

/// The nested-loop access path: one index probe per `R_{k-1}` tuple
/// instead of a full `SALES` scan. The sorted transaction vector *is*
/// the `(trans_id, item)` index here — `binary_search_by_key` plays the
/// B+-tree descent. Probing in `R_{k-1}` row order with extensions
/// emitted in ascending item order produces the identical `R'_k` rows,
/// in the identical order, with the identical pruned-pair accounting, as
/// [`merge_scan`].
fn nested_loop<F: CandidateFilter>(
    r_prev: &PatternRelation,
    rows: Range<usize>,
    sales: &[(TransId, Vec<Item>)],
    filter: &F,
) -> (PatternRelation, u64) {
    let k_prev = r_prev.k();
    let check_prefix = k_prev == 1;
    let mut pruned = 0u64;
    let mut out = PatternRelation::with_capacity(k_prev + 1, rows.len());
    let mut buf: Vec<Item> = vec![0; k_prev + 1];
    let mut cached: Option<(TransId, usize)> = None;
    for row in rows {
        let (tid, pattern) = r_prev.row(row);
        // R_{k-1} rows of one transaction are adjacent; probe once per
        // transaction.
        let hit = match cached {
            Some((t, s)) if t == tid => Some(s),
            _ => match sales.binary_search_by_key(&tid, |(t, _)| *t) {
                Ok(s) => {
                    cached = Some((tid, s));
                    Some(s)
                }
                Err(_) => {
                    // Transaction vanished from the (possibly filtered)
                    // sales side.
                    cached = None;
                    None
                }
            },
        };
        let Some(s) = hit else { continue };
        let items = &sales[s].1;
        let last = pattern[k_prev - 1];
        let start = items.partition_point(|&it| it <= last);
        if check_prefix && !filter.allows_at(0, pattern[0]) {
            pruned += (items.len() - start) as u64;
            continue;
        }
        for &ext in &items[start..] {
            if filter.allows_at(k_prev, ext) {
                buf[..k_prev].copy_from_slice(pattern);
                buf[k_prev] = ext;
                out.push(tid, &buf);
            } else {
                pruned += 1;
            }
        }
    }
    (out, pruned)
}

/// One pass over the items-sorted `R'_k`: emit `C_k` groups meeting the
/// minimum support and copy their tuples into `R_k`. Group boundaries are
/// found by slice comparison against the group's first row — no per-group
/// allocation.
fn count_and_filter(r_prime: &PatternRelation, min_count: u64) -> (CountRelation, PatternRelation) {
    let k = r_prime.k();
    let n = r_prime.n_tuples();
    let mut c = CountRelation::new(k);
    let mut r = PatternRelation::new(k);
    let mut i = 0usize;
    while i < n {
        let pattern = r_prime.row(i).1;
        let mut j = i + 1;
        while j < n && r_prime.row(j).1 == pattern {
            j += 1;
        }
        let count = (j - i) as u64;
        if count >= min_count {
            c.push(pattern, count);
            for row in i..j {
                let (tid, items) = r_prime.row(row);
                r.push(tid, items);
            }
        }
        i = j;
    }
    (c, r)
}

/// Count every group of an items-sorted `R'_k` with no support filter —
/// the shard-local half of the parallel counting step (the threshold can
/// only be applied to the merged global counts).
pub fn count_groups(r_prime: &PatternRelation) -> CountRelation {
    let k = r_prime.k();
    let n = r_prime.n_tuples();
    let mut c = CountRelation::new(k);
    let mut i = 0usize;
    while i < n {
        let pattern = r_prime.row(i).1;
        let mut j = i + 1;
        while j < n && r_prime.row(j).1 == pattern {
            j += 1;
        }
        c.push(pattern, (j - i) as u64);
        i = j;
    }
    c
}

/// Retain the tuples of `r_prime` whose pattern appears in `c_k`. Both
/// sides are pattern-sorted, so membership is one monotone merge cursor —
/// O(1) amortized per group, no binary searches.
pub fn filter_supported(r_prime: &PatternRelation, c_k: &CountRelation) -> PatternRelation {
    let k = r_prime.k();
    let n = r_prime.n_tuples();
    let mut out = PatternRelation::new(k);
    let mut ci = 0usize;
    let mut i = 0usize;
    while i < n {
        let pattern = r_prime.row(i).1;
        let mut j = i + 1;
        while j < n && r_prime.row(j).1 == pattern {
            j += 1;
        }
        while ci < c_k.len() && c_k.pattern_at(ci) < pattern {
            ci += 1;
        }
        if ci < c_k.len() && c_k.pattern_at(ci) == pattern {
            for row in i..j {
                let (tid, items) = r_prime.row(row);
                out.push(tid, items);
            }
        }
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{MinSupport, MiningParams};

    fn tiny() -> Dataset {
        // 4 transactions over items {1,2,3,4}.
        Dataset::from_transactions([
            (1, [1u32, 2, 3].as_slice()),
            (2, [1, 2].as_slice()),
            (3, [1, 2, 3].as_slice()),
            (4, [2, 4].as_slice()),
        ])
    }

    #[test]
    fn c1_counts_and_filters() {
        let d = tiny();
        let c1 = count_items(&d, 2);
        assert_eq!(c1.get(&[1]), Some(3));
        assert_eq!(c1.get(&[2]), Some(4));
        assert_eq!(c1.get(&[3]), Some(2));
        assert_eq!(c1.get(&[4]), None, "support 1 < 2 is filtered");
    }

    #[test]
    fn full_run_matches_brute_force() {
        let d = tiny();
        let params = MiningParams::new(MinSupport::Count(2), 0.5);
        let r = execute(&d, &params, &RunSpec::default());
        // Every reported count must equal the brute-force oracle.
        for (pattern, count) in r.frequent_itemsets() {
            assert_eq!(count, d.support_of(&pattern), "pattern {pattern:?}");
            assert!(count >= 2);
        }
        // And every frequent pattern must be reported.
        assert_eq!(r.c(2).unwrap().get(&[1, 2]), Some(3));
        assert_eq!(r.c(2).unwrap().get(&[1, 3]), Some(2));
        assert_eq!(r.c(2).unwrap().get(&[2, 3]), Some(2));
        assert_eq!(r.c(3).unwrap().get(&[1, 2, 3]), Some(2));
        assert_eq!(r.max_pattern_len(), 3);
    }

    #[test]
    fn trace_records_every_iteration_with_final_zero() {
        let d = tiny();
        let params = MiningParams::new(MinSupport::Count(2), 0.5);
        let r = execute(&d, &params, &RunSpec::default());
        assert_eq!(r.trace[0].k, 1);
        assert_eq!(r.trace[0].r_tuples, d.n_rows());
        let last = r.trace.last().unwrap();
        assert_eq!(last.k, 4);
        assert_eq!(last.r_tuples, 0, "loop runs until R_k = {{}}");
        assert_eq!(last.c_len, 0);
    }

    #[test]
    fn filter_r1_option_does_not_change_results() {
        let d = tiny();
        let params = MiningParams::new(MinSupport::Count(2), 0.5);
        let base = execute(&d, &params, &RunSpec { filter_r1: false, ..Default::default() });
        let filt = execute(&d, &params, &RunSpec { filter_r1: true, ..Default::default() });
        assert_eq!(base.frequent_itemsets(), filt.frequent_itemsets());
        // But the unfiltered run generates at least as many R'_2 tuples.
        assert!(base.trace[1].r_prime_tuples >= filt.trace[1].r_prime_tuples);
    }

    #[test]
    fn max_pattern_len_caps_the_loop() {
        let d = tiny();
        let params = MiningParams::new(MinSupport::Count(2), 0.5).with_max_len(2);
        let r = execute(&d, &params, &RunSpec::default());
        assert_eq!(r.max_pattern_len(), 2);
        assert_eq!(r.trace.last().unwrap().k, 2);
    }

    /// The facade rejects a cap of 0, but the low-level executions must
    /// still agree with each other if handed one: stop after C1, exactly
    /// like the engine and SQL loops' `max_len > 1` guard.
    #[test]
    fn max_pattern_len_zero_stops_after_c1_like_other_executions() {
        let d = tiny();
        let params = MiningParams::new(MinSupport::Count(2), 0.5).with_max_len(0);
        let r = execute(&d, &params, &RunSpec::default());
        assert_eq!(r.max_pattern_len(), 1, "C1 only, no k=2 iteration");
        assert_eq!(r.trace.last().unwrap().k, 1);
        let spec = RunSpec { threads: 1, ..Default::default() };
        let config = crate::setm::engine::EngineConfig::default();
        let (eng, _) = crate::setm::engine::execute(&d, &params, &config, &spec).unwrap();
        assert_eq!(eng.frequent_itemsets(), r.frequent_itemsets());
        let (sql, _) = crate::setm::sql::execute(&d, &params, &spec).unwrap();
        assert_eq!(sql.frequent_itemsets(), r.frequent_itemsets());
    }

    #[test]
    fn unfiltered_r1_generates_extensions_through_infrequent_prefixes() {
        // Transactions where an infrequent item sits between frequent ones:
        // the paper's unfiltered join must still consider it in R'_2, then
        // drop it at the C_2 filter.
        let d = Dataset::from_transactions([
            (1, [1u32, 5, 9].as_slice()),
            (2, [1, 9].as_slice()),
            (3, [1, 9].as_slice()),
        ]);
        let params = MiningParams::new(MinSupport::Count(3), 0.5);
        let r = execute(&d, &params, &RunSpec::default());
        assert_eq!(r.c(1).unwrap().len(), 2); // {1}, {9}
        assert_eq!(r.c(2).unwrap().get(&[1, 9]), Some(3));
        assert!(r.c(2).unwrap().get(&[1, 5]).is_none());
        // R'_2 counted the pairs through item 5 too: (1,5), (5,9), (1,9)x3.
        assert_eq!(r.trace[1].r_prime_tuples, 5);
    }

    #[test]
    fn empty_dataset_terminates_immediately() {
        let d = Dataset::from_pairs(std::iter::empty());
        let params = MiningParams::new(MinSupport::Count(1), 0.5);
        let r = execute(&d, &params, &RunSpec::default());
        assert_eq!(r.max_pattern_len(), 0);
        assert_eq!(r.trace.len(), 1);
    }

    #[test]
    fn high_min_support_stops_after_c1() {
        let d = tiny();
        let params = MiningParams::new(MinSupport::Count(4), 0.5);
        let r = execute(&d, &params, &RunSpec::default());
        // Only item 2 appears in all four transactions.
        assert_eq!(r.c(1).unwrap().to_vec(), vec![(crate::itemvec::ItemVec::from([2]), 4)]);
        assert!(r.c(2).is_none());
    }

    #[test]
    fn single_transaction_dataset() {
        let d = Dataset::from_transactions([(7, [1u32, 2, 3].as_slice())]);
        let params = MiningParams::new(MinSupport::Count(1), 0.5);
        let r = execute(&d, &params, &RunSpec::default());
        assert_eq!(r.max_pattern_len(), 3);
        assert_eq!(r.c(3).unwrap().get(&[1, 2, 3]), Some(1));
        // R'_2 holds all 3 pairs, R'_3 all single extension chains.
        assert_eq!(r.trace[1].r_prime_tuples, 3);
    }

    /// Sequential and sharded runs must agree exactly — itemsets, counts,
    /// and the |R'_k| / |R_k| / |C_k| trace series — for every shard count.
    #[test]
    fn sharded_runs_match_sequential_exactly() {
        // A dataset rich enough to run 3+ iterations with uneven shards.
        let txns: Vec<(u32, Vec<u32>)> = (0..60u32)
            .map(|t| {
                let mut items = vec![1, 2, 3];
                if t % 2 == 0 {
                    items.push(4 + t % 5);
                }
                if t % 7 == 0 {
                    items.extend([20, 21, 22]);
                }
                (t + 1, items)
            })
            .collect();
        let d = Dataset::from_transactions(txns.iter().map(|(t, i)| (*t, i.as_slice())));
        let params = MiningParams::new(MinSupport::Fraction(0.1), 0.5);
        let seq = execute(&d, &params, &RunSpec { threads: 1, ..Default::default() });
        for threads in [2usize, 3, 4, 7, 16, 64] {
            let par = execute(&d, &params, &RunSpec { threads, ..Default::default() });
            assert_eq!(par.frequent_itemsets(), seq.frequent_itemsets(), "threads={threads}");
            assert_eq!(par.trace.len(), seq.trace.len(), "threads={threads}");
            for (a, b) in seq.trace.iter().zip(par.trace.iter()) {
                assert_eq!(a.k, b.k);
                assert_eq!(a.r_prime_tuples, b.r_prime_tuples, "threads={threads} k={}", a.k);
                assert_eq!(a.r_tuples, b.r_tuples, "threads={threads} k={}", a.k);
                assert_eq!(a.c_len, b.c_len, "threads={threads} k={}", a.k);
                assert_eq!(a.r_kbytes, b.r_kbytes, "threads={threads} k={}", a.k);
            }
        }
    }

    #[test]
    fn sharded_run_with_filter_r1_matches_too() {
        let txns: Vec<(u32, Vec<u32>)> =
            (0..30u32).map(|t| (t + 1, vec![1, 2, 3 + t % 9])).collect();
        let d = Dataset::from_transactions(txns.iter().map(|(t, i)| (*t, i.as_slice())));
        let params = MiningParams::new(MinSupport::Count(4), 0.5);
        let seq =
            execute(&d, &params, &RunSpec { filter_r1: true, threads: 1, ..Default::default() });
        let par =
            execute(&d, &params, &RunSpec { filter_r1: true, threads: 4, ..Default::default() });
        assert_eq!(par.frequent_itemsets(), seq.frequent_itemsets());
    }

    /// Every legal plan shape must reproduce the auto-planned run
    /// exactly (the full matrix runs in `tests/plan_equivalence.rs`).
    #[test]
    fn forced_plans_match_auto() {
        use crate::setm::plan::{JoinStrategy, PhysicalPlan, PlanMode};
        let txns: Vec<(u32, Vec<u32>)> = (0..40u32)
            .map(|t| {
                let mut items = vec![1, 2, 3];
                if t % 3 == 0 {
                    items.push(4 + t % 4);
                }
                (t + 1, items)
            })
            .collect();
        let d = Dataset::from_transactions(txns.iter().map(|(t, i)| (*t, i.as_slice())));
        let params = MiningParams::new(MinSupport::Count(5), 0.5);
        let auto = execute(&d, &params, &RunSpec::default());
        for join in [JoinStrategy::MergeScan, JoinStrategy::NestedLoop] {
            for reuse_sort in [true, false] {
                for shards in [1usize, 3] {
                    let plan =
                        PhysicalPlan { join, reuse_sort, shards, sort_buffer_pages: 256 };
                    let spec = RunSpec { plan_mode: PlanMode::Forced(plan), ..Default::default() };
                    let forced = execute(&d, &params, &spec);
                    assert_eq!(
                        forced.frequent_itemsets(),
                        auto.frequent_itemsets(),
                        "plan {plan}"
                    );
                    assert_eq!(forced.trace.len(), auto.trace.len(), "plan {plan}");
                    for (a, b) in auto.trace.iter().zip(forced.trace.iter()) {
                        assert_eq!(
                            (a.r_prime_tuples, a.r_tuples, a.c_len),
                            (b.r_prime_tuples, b.r_tuples, b.c_len),
                            "plan {plan} k={}",
                            a.k
                        );
                    }
                    // The executed plan is recorded on every k >= 2 row.
                    for t in &forced.trace[1..] {
                        let got = t.plan.expect("planned iteration records its plan");
                        assert_eq!(got.join, join);
                    }
                }
            }
        }
    }

    #[test]
    fn more_shards_than_transactions_is_safe() {
        let d = tiny();
        let params = MiningParams::new(MinSupport::Count(2), 0.5);
        let seq = execute(&d, &params, &RunSpec { threads: 1, ..Default::default() });
        let par = execute(&d, &params, &RunSpec { threads: 32, ..Default::default() });
        assert_eq!(par.frequent_itemsets(), seq.frequent_itemsets());
    }

    #[test]
    fn filter_supported_uses_monotone_cursor() {
        let mut r_prime = PatternRelation::new(2);
        // Items-sorted groups: [1,2]x2, [1,3]x1, [2,9]x3.
        r_prime.push(10, &[1, 2]);
        r_prime.push(11, &[1, 2]);
        r_prime.push(10, &[1, 3]);
        r_prime.push(10, &[2, 9]);
        r_prime.push(12, &[2, 9]);
        r_prime.push(13, &[2, 9]);
        let mut c = CountRelation::new(2);
        c.push(&[1, 2], 2);
        c.push(&[2, 9], 3);
        let kept = filter_supported(&r_prime, &c);
        assert_eq!(kept.n_tuples(), 5, "the {{1,3}} group is dropped");
        assert_eq!(count_groups(&kept).len(), 2);
    }
}
