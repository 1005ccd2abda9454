//! The nested-loop mining strategy of Section 3.
//!
//! The paper's first SQL formulation joins `C_{k-1}` with `k` copies of
//! `SALES`; a query optimizer would evaluate it with B+-tree indexes on
//! `(item, trans_id)` and on the transaction id (Section 3.2's five-step
//! plan). This module executes exactly that plan on the paged engine:
//!
//! 1. for each tuple `c` of `C_{k-1}`, probe the `(item, trans_id)` index
//!    with `c.item_1` to find candidate transactions;
//! 2. for each candidate transaction, verify `c.item_2 .. c.item_{k-1}`
//!    by point probes of the same index;
//! 3. probe the transaction index to enumerate items greater than
//!    `c.item_{k-1}` (the lexicographic extension);
//! 4. sort the qualifying tuples on the item values and apply the
//!    minimum-support count.
//!
//! Every probe is a random page fetch — the access pattern whose cost the
//! paper estimates at more than 11 hours on its hypothetical database.
//! One representational divergence: the paper's second index is on
//! `(trans_id)` alone (key-only, so a probe yields only ids); ours is on
//! `(trans_id, item)` so the probe directly yields the transaction's
//! items, which is what step 4 of the paper's plan consumes. The
//! analytical model in `setm-costmodel` uses the paper's own sizing.

use crate::constraints::CandidateFilter;
use crate::data::{Dataset, MiningParams};
use crate::pattern::CountRelation;
use crate::setm::{IterationTrace, SetmResult};
use setm_relational::btree::{BTree, BulkLoader};
use setm_relational::heap::{HeapFile, HeapFileBuilder};
use setm_relational::join::index_nested_loop_join;
use setm_relational::pager::Pager;
use setm_relational::sort::{external_sort, SortOptions};
use setm_relational::Result;
use std::cell::Cell;

/// The nested-loop extension step promoted to a reusable physical
/// operator, so the per-iteration planner can swap it in for the
/// merge-scan join inside the SETM loop.
///
/// Wraps a B+-tree on the tid-sorted `SALES` heap file (the Section 3.2
/// transaction index, internal nodes pinned). [`SalesIndex::extend_join`]
/// probes it once per `R_{k-1}` tuple and emits exactly the rows the
/// merge-scan join would — in the same order, because `scan_prefix`
/// yields entries in `(trans_id, item)` key order and the outer relation
/// is scanned in its own (tid-sorted) order. Only the access pattern
/// differs: random leaf fetches instead of a sequential scan of `SALES`.
pub struct SalesIndex {
    btree: BTree,
}

impl SalesIndex {
    /// Build the index over a `(trans_id, item)`-sorted `SALES` heap
    /// file and pin its internal nodes (the paper assumes non-leaf index
    /// pages are memory-resident).
    pub fn build(sales: &HeapFile) -> Result<SalesIndex> {
        let mut btree = BTree::from_sorted_heapfile(sales)?;
        btree.cache_internal_nodes()?;
        Ok(SalesIndex { btree })
    }

    /// `R'_k := R_{k-1} join SALES` by index probes: for each tuple of
    /// `r_prev` (arity `k`, tid-sorted), fetch the transaction's items
    /// greater than the tuple's last item and append each that `filter`
    /// allows as a new column. Output arity is `k + 1`; rows and order
    /// are identical to the merge-scan join on the same inputs, and so
    /// is the returned count of pairs the filter rejected.
    pub fn extend_join<F: CandidateFilter>(
        &self,
        r_prev: &HeapFile,
        k: usize,
        filter: &F,
    ) -> Result<(HeapFile, u64)> {
        let pruned = Cell::new(0u64);
        let out = index_nested_loop_join(
            r_prev,
            &self.btree,
            &[0],
            k + 1,
            |l, r| filter.extends(l, r[1], &pruned),
            |l, r, out| {
                out.extend_from_slice(l);
                out.push(r[1]);
            },
        )?;
        Ok((out, pruned.get()))
    }
}

/// Outcome of a nested-loop run (same shape as the SETM engine run).
#[derive(Debug)]
pub struct NestedLoopRun {
    pub result: SetmResult,
    pub total_page_accesses: u64,
    pub total_estimated_ms: f64,
}

/// Mine `dataset` with the Section 3 strategy. Produces the same count
/// relations as SETM (cross-checked in tests) at a very different I/O
/// cost.
///
/// The pager has no buffer cache, so every page access is charged: the
/// paper's Section 3.2 accounting, which keeps only the non-leaf index
/// pages in memory (both indexes pin their internal nodes). The counting
/// sorts get a 256-page workspace.
pub fn mine_nested_loop(dataset: &Dataset, params: &MiningParams) -> Result<NestedLoopRun> {
    let pager = Pager::shared();
    let n_txns = dataset.n_transactions();
    let min_count = params.min_support.to_count(n_txns.max(1));
    let max_len = params.max_pattern_len.unwrap_or(usize::MAX);
    let sort_opts = SortOptions { buffer_pages: 256 };

    // Load SALES and build the two indexes of Section 3.2. Internal nodes
    // are pinned in memory, as the paper assumes.
    let sales_rows = dataset.sales_rows();
    let sales = HeapFile::from_rows(pager.clone(), 2, sales_rows.iter().map(|r| r.as_slice()))?;
    let idx_tid = {
        // SALES is already (tid, item)-sorted.
        let mut t = BTree::from_sorted_heapfile(&sales)?;
        t.cache_internal_nodes()?;
        t
    };
    let idx_item = {
        let mut rows: Vec<[u32; 2]> = dataset.iter_rows().map(|(t, i)| [i, t]).collect();
        rows.sort_unstable();
        let mut loader = BulkLoader::new(pager.clone(), 2);
        for row in &rows {
            loader.push(row)?;
        }
        let mut t = loader.finish()?;
        t.cache_internal_nodes()?;
        t
    };
    pager.lock().reset_stats();

    let mut counts: Vec<CountRelation> = Vec::new();
    let mut trace: Vec<IterationTrace> = Vec::new();
    let mut last_stats = pager.lock().stats();

    // C1 (Section 3.1's first query): GROUP BY over SALES sorted on item.
    let by_item = external_sort(&sales, &[1], sort_opts)?;
    let c1 = count_patterns(&by_item, &[1], min_count)?;
    by_item.free()?;
    let stats = pager.lock().stats();
    let delta = stats.since(&last_stats);
    last_stats = stats;
    trace.push(IterationTrace {
        k: 1,
        r_prime_tuples: sales.n_records(),
        r_tuples: sales.n_records(),
        r_kbytes: sales.data_bytes() as f64 / 1024.0,
        c_len: c1.len() as u64,
        page_accesses: delta.accesses(),
        estimated_io_ms: delta.estimated_ms(&pager.lock().cost_model()),
        cache_hits: delta.cache_hits,
        candidates_pruned: 0,
        plan: None,
    });
    let mut c_prev = c1;
    if !c_prev.is_empty() {
        counts.push(c_prev.clone());
    }

    let mut k = 1usize;
    while !c_prev.is_empty() && k < max_len {
        k += 1;
        // Generate qualifying k-tuples: one row (item_1 .. item_k) per
        // supporting transaction, via index probes.
        let mut gen = HeapFileBuilder::new(pager.clone(), k);
        let mut row_buf: Vec<u32> = vec![0; k];
        for (pattern, _) in c_prev.iter() {
            // Step 1: candidate transactions of item_1.
            let mut tids: Vec<u32> = Vec::new();
            idx_item.scan_prefix(&[pattern[0]], |key| tids.push(key[1]))?;
            'tid: for &tid in &tids {
                // Step 2: middle items must also appear in the transaction.
                for &mid in &pattern[1..] {
                    if idx_item.count_prefix(&[mid, tid])? == 0 {
                        continue 'tid;
                    }
                }
                // Step 3: extensions beyond the last pattern item.
                let last = pattern[k - 2];
                let mut exts: Vec<u32> = Vec::new();
                idx_tid.scan_prefix(&[tid], |key| {
                    if key[1] > last {
                        exts.push(key[1]);
                    }
                })?;
                for ext in exts {
                    row_buf[..k - 1].copy_from_slice(pattern);
                    row_buf[k - 1] = ext;
                    gen.push(&row_buf)?;
                }
            }
        }
        let generated = gen.finish()?;
        let generated_tuples = generated.n_records();

        // Step 4: sort on the item values, count, apply minimum support.
        let key: Vec<usize> = (0..k).collect();
        let sorted = external_sort(&generated, &key, sort_opts)?;
        generated.free()?;
        let c_k = count_patterns(&sorted, &key, min_count)?;
        sorted.free()?;

        let stats = pager.lock().stats();
        let delta = stats.since(&last_stats);
        last_stats = stats;
        trace.push(IterationTrace {
            k,
            r_prime_tuples: generated_tuples,
            // The nested-loop strategy materializes no R_k relation.
            r_tuples: 0,
            r_kbytes: 0.0,
            c_len: c_k.len() as u64,
            page_accesses: delta.accesses(),
            estimated_io_ms: delta.estimated_ms(&pager.lock().cost_model()),
            cache_hits: delta.cache_hits,
            candidates_pruned: 0,
            plan: None,
        });

        c_prev = c_k;
        if !c_prev.is_empty() {
            counts.push(c_prev.clone());
        }
    }

    let total = pager.lock().stats();
    let total_ms = total.estimated_ms(&pager.lock().cost_model());
    Ok(NestedLoopRun {
        result: SetmResult { counts, trace, n_transactions: n_txns, min_support_count: min_count },
        total_page_accesses: total.accesses(),
        total_estimated_ms: total_ms,
    })
}

/// Count consecutive groups of `group_cols` in a file sorted on them.
fn count_patterns(file: &HeapFile, group_cols: &[usize], min_count: u64) -> Result<CountRelation> {
    let k = group_cols.len();
    let mut c = CountRelation::new(k);
    let mut cursor = file.cursor();
    let mut current: Vec<u32> = Vec::with_capacity(k);
    let mut count = 0u64;
    while let Some(row) = cursor.next_row()? {
        let same =
            count > 0 && group_cols.iter().enumerate().all(|(i, &col)| row[col] == current[i]);
        if same {
            count += 1;
        } else {
            if count >= min_count {
                c.push(&current, count);
            }
            current.clear();
            current.extend(group_cols.iter().map(|&col| row[col]));
            count = 1;
        }
    }
    if count >= min_count {
        c.push(&current, count);
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, MinSupport, MiningParams};
    use crate::example;
    use crate::setm::{memory, RunSpec};

    #[test]
    fn nested_loop_matches_setm_on_worked_example() {
        let d = example::paper_example_dataset();
        let params = example::paper_example_params();
        let mem = memory::execute(&d, &params, &RunSpec::default());
        let nl = mine_nested_loop(&d, &params).unwrap();
        assert_eq!(nl.result.frequent_itemsets(), mem.frequent_itemsets());
    }

    #[test]
    fn nested_loop_matches_setm_on_random_data() {
        // Deterministic pseudo-random baskets.
        let mut txns = Vec::new();
        let mut state = 0x9E3779B9u32;
        for tid in 0..60u32 {
            let mut items = Vec::new();
            for _ in 0..4 {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                items.push(1 + (state >> 24) % 12);
            }
            items.sort_unstable();
            items.dedup();
            txns.push((tid, items));
        }
        let d = Dataset::from_transactions(txns.iter().map(|(t, i)| (*t, i.as_slice())));
        let params = MiningParams::new(MinSupport::Fraction(0.1), 0.5);
        let mem = memory::execute(&d, &params, &RunSpec::default());
        let nl = mine_nested_loop(&d, &params).unwrap();
        assert_eq!(nl.result.frequent_itemsets(), mem.frequent_itemsets());
    }

    #[test]
    fn nested_loop_io_is_dominated_by_random_fetches() {
        let d = example::paper_example_dataset();
        let params = example::paper_example_params();
        let nl = mine_nested_loop(&d, &params).unwrap();
        assert!(nl.total_page_accesses > 0);
        // Per-iteration accesses sum to the total.
        let sum: u64 = nl.result.trace.iter().map(|t| t.page_accesses).sum();
        assert_eq!(sum, nl.total_page_accesses);
    }

    #[test]
    fn probes_scale_with_candidate_count() {
        // More candidate patterns -> more probes -> more accesses than a
        // higher-support run on the same data.
        let d = example::paper_example_dataset();
        let lo = mine_nested_loop(&d, &MiningParams::new(MinSupport::Count(2), 0.5)).unwrap();
        let hi = mine_nested_loop(&d, &MiningParams::new(MinSupport::Count(5), 0.5)).unwrap();
        assert!(lo.total_page_accesses > hi.total_page_accesses);
    }
}
