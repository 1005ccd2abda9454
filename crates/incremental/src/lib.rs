//! Incremental SETM mining: absorb transaction appends in delta time.
//!
//! A full SETM run (Figure 4) leaves behind exactly the state needed to
//! absorb a batch of *new* transactions without re-mining the base
//! dataset: the per-level group counts of `R'_k` **kept unfiltered below
//! minimum support**, so that borderline itemsets can be promoted when a
//! delta pushes them over the (recomputed) threshold. [`MiningFrontier`]
//! snapshots that state; [`MiningFrontier::apply_delta`] runs the
//! Section 4.1 extension joins over the delta only, merges the delta's
//! counts into the stored ones via [`CountRelation::merge_sum_filter`],
//! re-applies the threshold, and rebuilds rules — producing an outcome
//! byte-identical to a from-scratch [`Miner`] run on the concatenated
//! dataset (proven by `tests/incremental_equivalence.rs`).
//!
//! # Why no stored `R'_k` tuples?
//!
//! Appends are whole transactions with `trans_id`s disjoint from the
//! base (enforced by [`ensure_disjoint_tids`]). Every extension join is
//! intra-transaction, so a delta tuple can never join against a base
//! tuple: the delta's `R'_k` is computable from the delta alone, and the
//! base contributes only *counts*. The frontier therefore stores count
//! relations, not tuple relations — megabytes, not the dataset over
//! again.
//!
//! # The frontier invariant
//!
//! After capturing dataset `D` at threshold `s`, `cands[k-2]` holds
//! every pattern `p` of length `k` whose proper prefixes of lengths
//! `2..k-1` are all frequent in `D` at `s` ("eligible") and whose
//! support in `D` is at least 1, mapped to its exact support. Three
//! consequences drive `apply_delta`:
//!
//! * a pattern whose prefix *stays* frequent keeps its stored count —
//!   merge the delta's count on top;
//! * a pattern whose prefix is *demoted* by the recomputed threshold is
//!   dropped (its tuples would no longer survive the `R_{k-1}` filter);
//! * a prefix *promoted* from below the capture threshold has no stored
//!   extensions — those are recounted by one scan of the base dataset,
//!   restricted to the (rare) promoted prefixes.
//!
//! At `k = 2` the paper joins against the **unfiltered** `R_1`, so
//! `cands[0]` covers every pair that co-occurs anywhere — promotions
//! cannot happen below level 3, and the invariant is self-sustaining
//! across successive appends.

use setm_core::setm::memory::{count_groups, count_items, filter_supported, merge_scan_extend};
use setm_core::setm::shard::resolve_threads;
use setm_core::{
    generate_rules, CountRelation, Dataset, ExecutionReport, Item, IterationTrace, LiveStats,
    Miner, MiningOutcome, MiningParams, PatternRelation, PlanMode, Planner, PlannerConfig,
    SetmError, SetmResult, TransId,
};
use std::borrow::Cow;

/// Per-iteration mining state snapshotted after a full run, sufficient
/// to absorb transaction appends in time proportional to the delta.
#[derive(Debug, Clone)]
pub struct MiningFrontier {
    params: MiningParams,
    plan_mode: PlanMode,
    n_transactions: u64,
    sales_tuples: u64,
    max_txn_len: u64,
    /// The absolute support threshold resolved at capture — the line
    /// against which a later `apply_delta` decides which prefixes were
    /// *promoted* (newly frequent) and need their base-side extensions
    /// recounted.
    min_count: u64,
    /// Unfiltered per-item transaction counts (`C_1` before `HAVING`).
    item_counts: CountRelation,
    /// `cands[k-2]`: unfiltered, eligible group counts of `R'_k` — see
    /// the module docs for the exact invariant.
    cands: Vec<CountRelation>,
}

impl MiningFrontier {
    /// Capture a frontier by mining `dataset` from scratch (the "empty
    /// frontier + one big delta" special case of [`Self::apply_delta`]).
    /// Returns the full-run outcome alongside the frontier, both derived
    /// from the same pass.
    pub fn bootstrap(
        dataset: &Dataset,
        params: &MiningParams,
        threads: usize,
    ) -> Result<(MiningOutcome, MiningFrontier), SetmError> {
        params.validate()?;
        let empty = MiningFrontier {
            params: *params,
            plan_mode: PlanMode::Auto,
            n_transactions: 0,
            sales_tuples: 0,
            max_txn_len: 0,
            min_count: params.min_support.to_count(1),
            item_counts: CountRelation::new(1),
            cands: Vec::new(),
        };
        empty.apply_delta(&Dataset::from_pairs(std::iter::empty()), dataset, threads)
    }

    /// Select how iteration plans are chosen when reconstructing traces
    /// (default [`PlanMode::Auto`]; `SETM_FORCE_PLAN` is honored exactly
    /// as by [`Miner::run`]).
    pub fn plan_mode(mut self, plan_mode: PlanMode) -> Self {
        self.plan_mode = plan_mode;
        self
    }

    /// The parameters this frontier was captured under. A frontier only
    /// answers requests for exactly these parameters (the threshold is
    /// re-resolved against the grown transaction count on every append,
    /// but the fraction/count specification itself is fixed).
    pub fn params(&self) -> &MiningParams {
        &self.params
    }

    /// Transactions in the captured dataset.
    pub fn n_transactions(&self) -> u64 {
        self.n_transactions
    }

    /// Absorb a batch of new transactions. `base` must be the exact
    /// dataset this frontier was captured on and `delta` must use
    /// `trans_id`s disjoint from it (validate with
    /// [`ensure_disjoint_tids`]; violations corrupt counts).
    ///
    /// Runs the Figure 4 extension joins over the delta only, merges the
    /// delta counts into the stored unfiltered counts, drops extensions
    /// of demoted prefixes, recounts extensions of promoted prefixes by
    /// one base scan, re-applies the recomputed threshold, and rebuilds
    /// rules. The returned outcome is byte-identical (canonical JSON) to
    /// a from-scratch memory-backend run on `base ∪ delta`.
    pub fn apply_delta(
        &self,
        base: &Dataset,
        delta: &Dataset,
        threads: usize,
    ) -> Result<(MiningOutcome, MiningFrontier), SetmError> {
        debug_assert_eq!(base.n_transactions(), self.n_transactions, "frontier/base mismatch");
        debug_assert!(ensure_disjoint_tids(base, delta).is_ok(), "delta trans_ids overlap base");

        let n_new = self.n_transactions + delta.n_transactions();
        let min_count_new = self.params.min_support.to_count(n_new.max(1));
        let max_len = self.params.max_pattern_len.unwrap_or(usize::MAX);

        // k = 1: merge unfiltered item counts; the new C_1 falls out of
        // the new threshold.
        let delta_item_counts = count_items(delta, 1);
        let item_counts =
            CountRelation::merge_sum_filter(&[&self.item_counts, &delta_item_counts], 1);

        let delta_sales: Vec<(TransId, Vec<Item>)> =
            delta.transactions().map(|(t, i)| (t, i.to_vec())).collect();
        let max_txn_len = self
            .max_txn_len
            .max(delta_sales.iter().map(|(_, i)| i.len()).max().unwrap_or(0) as u64);

        let mut cands: Vec<CountRelation> = Vec::new();
        if max_len > 1 && n_new > 0 {
            // F_{k-1} at the new threshold; starts as the new C_1.
            let mut c_prev = filter_counts(&item_counts, min_count_new);
            // Delta-side R_1: one (tid, [item]) tuple per delta row.
            let mut delta_r_prev = PatternRelation::new(1);
            for (tid, items) in &delta_sales {
                for &it in items {
                    delta_r_prev.push(*tid, &[it]);
                }
            }

            let mut k = 1usize;
            loop {
                k += 1;
                // Delta side: the literal Figure 4 iteration over the
                // delta's tuples (sort on trans_id; merge-scan extend;
                // sort on items; count groups).
                let (delta_counts, delta_r_prime) = if delta_r_prev.is_empty() {
                    (CountRelation::new(k), PatternRelation::new(k))
                } else {
                    delta_r_prev.sort_by_tid_items();
                    let mut r_prime =
                        merge_scan_extend(&delta_r_prev, 0..delta_r_prev.n_tuples(), &delta_sales);
                    r_prime.sort_by_items();
                    (count_groups(&r_prime), r_prime)
                };

                // Base side, part 1: stored counts whose (k-1)-prefix is
                // still frequent under the new threshold. At k = 2 the
                // join side is the unfiltered R_1, so every stored pair
                // survives regardless of item frequency.
                let old_kept = match self.cands.get(k - 2) {
                    Some(old) if k == 2 => Cow::Borrowed(old),
                    Some(old) => Cow::Owned(keep_with_frequent_prefix(old, &c_prev)),
                    None => Cow::Owned(CountRelation::new(k)),
                };

                // Base side, part 2: prefixes newly frequent (promoted
                // across the capture threshold) have no stored
                // extensions — recount them with one scan of the base.
                // Impossible at k = 2 (see above), so the scan only runs
                // on an actual threshold crossing.
                let promoted: Vec<Vec<Item>> = if k >= 3 && base.n_transactions() > 0 {
                    c_prev
                        .iter()
                        .filter(|(p, _)| !self.was_frequent_at_capture(p))
                        .map(|(p, _)| p.to_vec())
                        .collect()
                } else {
                    Vec::new()
                };
                let promo = if promoted.is_empty() {
                    CountRelation::new(k)
                } else {
                    recount_promoted(base, &promoted, k)
                };

                // Merge: support over base ∪ delta for every eligible
                // pattern, still unfiltered — the next frontier's level.
                let merged =
                    CountRelation::merge_sum_filter(&[&*old_kept, &promo, &delta_counts], 1);
                let c_k = filter_counts(&merged, min_count_new);
                let done = c_k.is_empty() || k >= max_len;
                // Delta R_k: delta tuples of globally supported groups.
                delta_r_prev = filter_supported(&delta_r_prime, &c_k);
                cands.push(merged);
                c_prev = c_k;
                if done {
                    break;
                }
            }
        }

        let next = MiningFrontier {
            params: self.params,
            plan_mode: self.plan_mode,
            n_transactions: n_new,
            sales_tuples: self.sales_tuples + delta.n_rows(),
            max_txn_len,
            min_count: min_count_new,
            item_counts,
            cands,
        };
        let outcome = next.outcome(threads)?;
        Ok((outcome, next))
    }

    /// Reconstruct the full [`MiningOutcome`] from the frontier alone —
    /// counts, rules, and the `|R'_k|`/`|R_k|`/`|C_k|` trace with
    /// per-iteration plans chosen for `threads` workers. Byte-identical
    /// to the memory-backend [`Miner::run`] on the captured dataset at
    /// any thread count (plans are a pure function of live statistics,
    /// which the frontier stores).
    pub fn outcome(&self, threads: usize) -> Result<MiningOutcome, SetmError> {
        // The same resolution `Miner::run` applies: an explicit `Forced`
        // wins, else `SETM_FORCE_PLAN`.
        let mode = self.plan_mode.resolve()?;
        let n_txns = self.n_transactions;
        let min_count = self.params.min_support.to_count(n_txns.max(1));
        let max_len = self.params.max_pattern_len.unwrap_or(usize::MAX);

        let mut counts: Vec<CountRelation> = Vec::new();
        let mut trace: Vec<IterationTrace> = Vec::new();

        let c1 = filter_counts(&self.item_counts, min_count);
        trace.push(IterationTrace {
            k: 1,
            r_prime_tuples: self.sales_tuples,
            r_tuples: self.sales_tuples,
            r_kbytes: self.sales_tuples as f64 * 8.0 / 1024.0,
            c_len: c1.len() as u64,
            page_accesses: 0,
            estimated_io_ms: 0.0,
            cache_hits: 0,
            pool_steals: 0,
            candidates_pruned: 0,
            plan: None,
        });
        let mut c_prev_len = c1.len() as u64;
        if !c1.is_empty() {
            counts.push(c1);
        }

        if max_len > 1 && n_txns > 0 {
            let planner = Planner::new(
                mode,
                PlannerConfig::with_max_shards(
                    resolve_threads(threads).min((n_txns as usize).max(1)),
                ),
            );
            let mut r_prev_tuples = self.sales_tuples;
            for (idx, merged) in self.cands.iter().enumerate() {
                let k = idx + 2;
                let stats = LiveStats {
                    n_txns,
                    sales_tuples: self.sales_tuples,
                    max_txn_len: self.max_txn_len,
                    r_prev_tuples,
                    c_prev_len,
                };
                let plan = planner.plan_iteration(k, &stats);
                let c_k = filter_counts(merged, min_count);
                // |R'_k| is the sum of unfiltered group counts, |R_k|
                // the sum of surviving ones: each group of count n is n
                // (trans_id, pattern) tuples.
                let r_prime_tuples: u64 = merged.iter().map(|(_, c)| c).sum();
                let r_tuples: u64 = c_k.iter().map(|(_, c)| c).sum();
                trace.push(IterationTrace {
                    k,
                    r_prime_tuples,
                    r_tuples,
                    r_kbytes: (r_tuples * (k as u64 + 1) * 4) as f64 / 1024.0,
                    c_len: c_k.len() as u64,
                    page_accesses: 0,
                    estimated_io_ms: 0.0,
                    cache_hits: 0,
                    pool_steals: 0,
                    candidates_pruned: 0,
                    plan: Some(plan),
                });
                c_prev_len = c_k.len() as u64;
                r_prev_tuples = r_tuples;
                if !c_k.is_empty() {
                    counts.push(c_k);
                }
            }
        }

        let result = SetmResult {
            counts,
            trace,
            n_transactions: n_txns,
            min_support_count: min_count,
        };
        let rules = generate_rules(&result, self.params.min_confidence);
        Ok(MiningOutcome { result, rules, report: ExecutionReport::Memory, per_class: None })
    }

    /// Was `pattern` (length 2 or more) frequent at the capture-time
    /// threshold? Decides which newly frequent prefixes need the
    /// base-scan recount.
    fn was_frequent_at_capture(&self, pattern: &[Item]) -> bool {
        match self.cands.get(pattern.len().wrapping_sub(2)) {
            Some(level) => level.get(pattern).is_some_and(|c| c >= self.min_count),
            None => false,
        }
    }
}

/// Reject a delta whose `trans_id`s collide with the base: the two
/// halves of a shared transaction would merge into one basket, creating
/// cross-half pairs the frontier never sees. Returns the first
/// offending `trans_id`.
pub fn ensure_disjoint_tids(base: &Dataset, delta: &Dataset) -> Result<(), TransId> {
    // Both tid columns are sorted; one merge pass over distinct tids.
    let (a, b) = (base.tids(), delta.tids());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return Err(a[i]),
        }
    }
    Ok(())
}

/// The concatenated dataset `base ∪ delta` (the from-scratch side of the
/// equivalence proof, and what a registry snapshot stores per version).
pub fn concat_datasets(base: &Dataset, delta: &Dataset) -> Dataset {
    Dataset::from_pairs(base.iter_rows().chain(delta.iter_rows()))
}

/// `HAVING count >= min_count` over an unfiltered count relation.
fn filter_counts(c: &CountRelation, min_count: u64) -> CountRelation {
    let mut out = CountRelation::new(c.k());
    for (p, n) in c.iter() {
        if n >= min_count {
            out.push(p, n);
        }
    }
    out
}

/// Stored counts whose (k-1)-prefix survives the new threshold — the
/// extensions of demoted prefixes vanish exactly as their tuples would
/// have vanished from `R_{k-1}`. Both sides are pattern-sorted, so the
/// prefixes of `old` arrive in order and membership is one monotone
/// cursor over `c_prev`.
fn keep_with_frequent_prefix(old: &CountRelation, c_prev: &CountRelation) -> CountRelation {
    let k = old.k();
    let mut out = CountRelation::new(k);
    let mut ci = 0usize;
    for (p, c) in old.iter() {
        let prefix = &p[..k - 1];
        while ci < c_prev.len() && c_prev.pattern_at(ci) < prefix {
            ci += 1;
        }
        if ci < c_prev.len() && c_prev.pattern_at(ci) == prefix {
            out.push(p, c);
        }
    }
    out
}

/// Base-side support of every extension of a *promoted* prefix: one scan
/// of the base dataset, emitting `(tid, prefix + item)` for each
/// transaction containing the prefix and each item beyond its last —
/// the same extension rule as the merge-scan join — then one
/// sort-and-count. Each extension pattern determines its prefix
/// uniquely, so no group is counted twice.
fn recount_promoted(base: &Dataset, promoted: &[Vec<Item>], k: usize) -> CountRelation {
    let plen = k - 1;
    let mut rel = PatternRelation::new(k);
    let mut buf: Vec<Item> = vec![0; k];
    for (tid, items) in base.transactions() {
        for p in promoted {
            if !txn_contains(items, p) {
                continue;
            }
            let start = items.partition_point(|&it| it <= p[plen - 1]);
            for &ext in &items[start..] {
                buf[..plen].copy_from_slice(p);
                buf[plen] = ext;
                rel.push(tid, &buf);
            }
        }
    }
    rel.sort_by_items();
    count_groups(&rel)
}

/// Is the sorted `pattern` a subset of the sorted transaction `items`?
fn txn_contains(items: &[Item], pattern: &[Item]) -> bool {
    let mut from = 0usize;
    for &p in pattern {
        match items[from..].binary_search(&p) {
            Ok(at) => from += at + 1,
            Err(_) => return false,
        }
    }
    true
}

/// Convenience for callers that route by backend: mine `base ∪ delta`
/// from scratch with an arbitrary [`Miner`]. The engine and SQL
/// backends measure physical I/O that a count-merge cannot synthesize,
/// so their "incremental" path is this honest full run (see
/// REPRODUCTION.md §12); only the memory backend absorbs deltas through
/// [`MiningFrontier::apply_delta`].
pub fn full_remine(
    base: &Dataset,
    delta: &Dataset,
    miner: &Miner,
) -> Result<MiningOutcome, SetmError> {
    miner.run(&concat_datasets(base, delta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use setm_core::{Backend, MinSupport};

    fn params(support: MinSupport) -> MiningParams {
        MiningParams::new(support, 0.5)
    }

    fn outcomes_equal(a: &MiningOutcome, b: &MiningOutcome) {
        assert_eq!(a.result.counts.len(), b.result.counts.len(), "count levels");
        for (x, y) in a.result.counts.iter().zip(&b.result.counts) {
            assert_eq!(x.to_vec(), y.to_vec());
        }
        assert_eq!(a.result.trace, b.result.trace, "trace");
        assert_eq!(a.result.n_transactions, b.result.n_transactions);
        assert_eq!(a.result.min_support_count, b.result.min_support_count);
        assert_eq!(a.rules, b.rules, "rules");
    }

    #[test]
    fn bootstrap_matches_a_full_run_on_the_paper_example() {
        let d = setm_core::example::paper_example_dataset();
        let p = setm_core::example::paper_example_params();
        for threads in [1usize, 4] {
            let full = Miner::new(p).threads(threads).run(&d).unwrap();
            let (inc, frontier) = MiningFrontier::bootstrap(&d, &p, threads).unwrap();
            outcomes_equal(&inc, &full);
            outcomes_equal(&frontier.outcome(threads).unwrap(), &full);
        }
    }

    #[test]
    fn apply_delta_matches_from_scratch_including_the_threshold_shift() {
        // 30% of 10 = 3; after appending 4 transactions, 30% of 14 = 5:
        // the recomputed threshold demotes borderline itemsets.
        let base = setm_core::example::paper_example_dataset();
        let p = setm_core::example::paper_example_params();
        let delta = Dataset::from_transactions([
            (100, [10u32, 20, 30].as_slice()),
            (101, [10, 20].as_slice()),
            (102, [40, 50, 60].as_slice()),
            (103, [10, 30, 50].as_slice()),
        ]);
        let concat = concat_datasets(&base, &delta);
        for threads in [1usize, 4] {
            let full = Miner::new(p).threads(threads).run(&concat).unwrap();
            let (_, frontier) = MiningFrontier::bootstrap(&base, &p, threads).unwrap();
            let (inc, next) = frontier.apply_delta(&base, &delta, threads).unwrap();
            outcomes_equal(&inc, &full);
            assert_eq!(next.n_transactions(), concat.n_transactions());
        }
    }

    #[test]
    fn an_empty_delta_is_an_identity() {
        let base = setm_core::example::paper_example_dataset();
        let p = setm_core::example::paper_example_params();
        let empty = Dataset::from_pairs(std::iter::empty());
        let (boot, frontier) = MiningFrontier::bootstrap(&base, &p, 1).unwrap();
        let (inc, _) = frontier.apply_delta(&base, &empty, 1).unwrap();
        outcomes_equal(&inc, &boot);
    }

    #[test]
    fn a_promoted_prefix_triggers_the_base_recount_and_stays_correct() {
        // Pair {1,2} appears in 2 of 6 base transactions — below the
        // 50% threshold (3). The delta adds {1,2,3} twice: 4 of 8 meets
        // the new threshold (4), promoting {1,2} at k=2 and forcing the
        // k=3 recount of its base-side extensions ({1,2,3} and {1,2,9});
        // {1,2,3} then reaches support 4 and k=4 repeats the promotion
        // for the {1,2,3} prefix itself.
        let base = Dataset::from_transactions([
            (1, [1u32, 2, 3].as_slice()),
            (2, [1, 3].as_slice()),
            (3, [2, 3].as_slice()),
            (4, [1, 3].as_slice()),
            (5, [2, 3].as_slice()),
            (6, [1, 2, 3, 9].as_slice()),
        ]);
        let delta = Dataset::from_transactions([
            (7, [1u32, 2, 3].as_slice()),
            (8, [1, 2, 3].as_slice()),
        ]);
        let p = params(MinSupport::Fraction(0.5));
        let concat = concat_datasets(&base, &delta);
        let full = Miner::new(p).threads(1).run(&concat).unwrap();
        assert!(
            full.result.c(3).is_some(),
            "the scenario must actually reach k=3 after promotion"
        );
        let (_, frontier) = MiningFrontier::bootstrap(&base, &p, 1).unwrap();
        assert!(
            !frontier.was_frequent_at_capture(&[1, 2]),
            "the scenario must actually cross the threshold"
        );
        let (inc, _) = frontier.apply_delta(&base, &delta, 1).unwrap();
        outcomes_equal(&inc, &full);
    }

    #[test]
    fn successive_appends_compose() {
        let p = params(MinSupport::Count(2));
        let batches = [
            Dataset::from_transactions([(1, [1u32, 2].as_slice()), (2, [2, 3].as_slice())]),
            Dataset::from_transactions([(3, [1u32, 2, 3].as_slice())]),
            Dataset::from_transactions([(4, [1u32, 2, 3, 4].as_slice()), (5, [3, 4].as_slice())]),
        ];
        let mut base = Dataset::from_pairs(std::iter::empty());
        let (_, mut frontier) = MiningFrontier::bootstrap(&base, &p, 1).unwrap();
        for delta in &batches {
            let concat = concat_datasets(&base, delta);
            let full = Miner::new(p).threads(1).run(&concat).unwrap();
            let (inc, next) = frontier.apply_delta(&base, delta, 1).unwrap();
            outcomes_equal(&inc, &full);
            frontier = next;
            base = concat;
        }
    }

    #[test]
    fn disjointness_is_checked_and_concat_merges() {
        let base = Dataset::from_transactions([(1, [1u32, 2].as_slice())]);
        let clash = Dataset::from_transactions([(1, [3u32].as_slice())]);
        let fresh = Dataset::from_transactions([(2, [3u32].as_slice())]);
        assert_eq!(ensure_disjoint_tids(&base, &clash), Err(1));
        assert_eq!(ensure_disjoint_tids(&base, &fresh), Ok(()));
        let c = concat_datasets(&base, &fresh);
        assert_eq!(c.n_transactions(), 2);
        assert_eq!(c.n_rows(), 3);
    }

    #[test]
    fn full_remine_serves_the_non_memory_backends() {
        let base = setm_core::example::paper_example_dataset();
        let p = setm_core::example::paper_example_params();
        let delta = Dataset::from_transactions([(100, [10u32, 20].as_slice())]);
        let miner = Miner::new(p).backend(Backend::Engine(Default::default())).threads(1);
        let via_helper = full_remine(&base, &delta, &miner).unwrap();
        let direct = miner.run(&concat_datasets(&base, &delta)).unwrap();
        assert_eq!(via_helper.result.trace, direct.result.trace);
        assert_eq!(via_helper.rules, direct.rules);
    }
}
