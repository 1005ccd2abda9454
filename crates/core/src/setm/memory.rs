//! In-memory execution of Algorithm SETM.
//!
//! The in-memory operator set of the shared Figure 4 loop, entered
//! through [`execute`]. It keeps every logical step of the loop — the
//! extension join against the *unfiltered* `R_1` (one tuple of `|R'_k|`
//! per pair it would emit, constraint pushdown applied pair by pair),
//! the support threshold, and both sorts around the loop body — but
//! counts `C_k` with its own physical operator rather than Figure 4's
//! sort-and-count of a materialised `R'_k`, and works in `C_1` space.
//!
//! # `C_1` space
//!
//! Only a pattern whose items are all in `C_1` can be supported. So k = 1
//! makes one pass over `SALES` that numbers and counts every distinct
//! item in an open-addressed table (its size follows the distinct items,
//! never the largest item id), and a second pass that gives each row
//! whose item is in `C_1` its `C_1` id — the item's position in the
//! sorted `C_1` — and keeps those rows, transaction by transaction,
//! beside the dataset's own arrays, which are read in place.
//!
//! # The dense count
//!
//! Iteration k counts every pair of a `C_{k-1}` prefix and a `C_1`
//! extension straight into a dense `u32` table of `|C_{k-1}| × |C_1|`
//! cells, indexed by the prefix's position in the sorted `C_{k-1}` and
//! the extension's `C_1` id; `R'_k` is never built. At k = 2 the pairs
//! come per transaction straight off its `C_1` rows (`SALES` is `R_1`);
//! at k ≥ 3 each `R_{k-1}` row finds its transaction by the plan's access
//! path (merge-scan or nested-loop) and its prefix's position was
//! recorded when the row was emitted. Unconstrained, the walk visits only
//! `C_1` rows, and every other pair is added to `|R'_k|` in bulk: at
//! k = 2 a transaction of `n` items joins into `n(n − 1)/2` pairs, and at
//! k ≥ 3 a row extends by every item after its last one. Under
//! constraints the walk visits every pair the join would see, so each
//! passes through the [`CandidateFilter`] into `|R'_k|` or the pruned
//! total exactly as the join would emit or reject it. Either way the
//! trace does not change.
//!
//! Reading the cells that meet the support in (prefix, item) order
//! yields `C_k` already sorted, and overwrites each cell with its
//! pattern's `C_k` index (or a sentinel). A second walk over `R_{k-1}`
//! then extends each row by the shorter of two lists that give the same
//! rows in the same order: its prefix's supported patterns, each tested
//! against the transaction's `C_1` ids, or its own `C_1` extensions, each
//! looked up in the overwritten table. That emits `R_k` in `(trans_id,
//! items)` order, so the two sorts around the loop, still announced as
//! `sort_r_prev` / `sort_r_k` phase events, have nothing to move and do
//! not call the sort kernel.
//!
//! The tables, one per shard, may hold at most `DENSE_CELL_BUDGET` (2^22
//! cells, 16 MiB) together, so the dense count runs on no more of the
//! plan's shards than fit. Where not even one table fits, the iteration
//! falls back to Figure 4's operators: the extension join materialises
//! `R'_k`, which is sorted on its items, counted and filtered. The choice
//! is made per iteration, and both operators produce the same `C_k`,
//! `R_k` and trace row, so a run may switch either way between
//! iterations. Where the budget should sit is not measured: no benchmark
//! workload comes near it. The
//! paged engine and the SQL script keep Figure 4's operators throughout:
//! their page accesses and statements are what the paper's cost model
//! describes. The join kernels are generic over a [`CandidateFilter`],
//! so constraint pushdown and the paper's plain join are one kernel
//! each.
//!
//! # Parallel sharded execution
//!
//! When an iteration's plan asks for `shards > 1` (up to
//! [`RunSpec::threads`]) the run is partitioned into contiguous
//! `trans_id` shards (see [`crate::setm::shard`]): each worker counts its
//! own transactions under [`std::thread::scope`] — into its own dense
//! table, the tables then summed cell by cell, or into a locally counted
//! `R'_k`, merged in one k-way pass ([`CountRelation::merge_sum_filter`])
//! — so the global support threshold applies to global counts; then
//! each shard emits (or filters) its own part of `R_k`. Results — count
//! relations and the `|R'_k|`/`|R_k|`/`|C_k|` trace series — are
//! identical to the sequential run for every shard count; only
//! wall-clock time changes.

use crate::constraints::{CandidateFilter, Unconstrained};
use crate::data::{Dataset, Item, MiningParams, TransId};
use crate::pattern::{CountRelation, PatternRelation};
use crate::setm::driver::{drive, Metered, Operators, Step, Totals};
use crate::setm::plan::{JoinStrategy, LiveStats, PhysicalPlan, Planner, PlannerConfig};
use crate::setm::shard::{partition_by_weight, resolve_threads};
use crate::setm::{RunSpec, SetmResult};
use setm_obs::{ObsEvent, ObsSink};
use std::convert::Infallible;
use std::hash::BuildHasher;
use std::ops::Range;

/// The most cells the dense count's tables may hold together, one table
/// per shard (16 MiB of `u32` counts). Where not even one
/// `|C_{k-1}| × |C_1|` table fits, an iteration runs Figure 4's
/// operators. The crossover is a guess: no benchmark workload comes near
/// it (`mine_quest`'s largest table is 493K cells).
const DENSE_CELL_BUDGET: usize = 1 << 22;

/// The id of an item not in `C_1`, of a prefix not in `C_{k-1}`, of an
/// unsupported cell, or of an empty slot of [`DistinctItems`].
const NO_ID: u32 = u32::MAX;

/// Mine `dataset` with in-memory set operators. The plan's `shards` and
/// `reuse_sort` dimensions are honored, and its `join` from k = 3 on: at
/// k = 2 both operators read `SALES` in order, which is `R_1`, so
/// neither access path applies. The dense count runs on no more of the
/// plan's shards than keep all their tables within the cell budget.
/// `sort_buffer_pages` has no effect (there is no paged sorter here).
/// The trace records the plan as planned. Besides the trace rows, the
/// sink sees the two sorts around the loop body as `sort_r_prev` /
/// `sort_r_k` phase events.
pub fn execute(dataset: &Dataset, params: &MiningParams, spec: &RunSpec) -> SetmResult {
    run(dataset, params, spec, DENSE_CELL_BUDGET)
}

/// How one iteration counted `C_k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Counting {
    /// Into a dense `C_{k-1} × C_1` table; `R'_k` is never built.
    Dense,
    /// Figure 4: build `R'_k`, sort it on the items, count and filter.
    Figure4,
}

/// The counting operator, and the shards it runs on, for an iteration
/// whose table would have `c_prev_len × c1_len` cells and whose plan asks
/// for `shards`: the dense count on as many of them as keep all their
/// tables within `budget` cells, else Figure 4's operators on all of them.
fn counting_for(
    c_prev_len: usize,
    c1_len: usize,
    shards: usize,
    budget: usize,
) -> (Counting, usize) {
    match budget / c_prev_len.saturating_mul(c1_len).max(1) {
        0 => (Counting::Figure4, shards),
        fit => (Counting::Dense, shards.min(fit)),
    }
}

/// [`execute`] under a cell `budget` for the dense count's tables.
fn run(dataset: &Dataset, params: &MiningParams, spec: &RunSpec, budget: usize) -> SetmResult {
    let planner =
        Planner::new(spec.plan_mode, PlannerConfig::with_max_shards(resolve_threads(spec.threads)));
    let mut ops = InMemory::new(dataset, budget);
    match drive(&mut ops, Totals::of(dataset, spec), params, &planner, spec) {
        Ok(result) => result,
        Err(never) => match never {},
    }
}

/// The `SALES` side of every extension join, which is also `R_1`: the
/// dataset's own rows, one per (transaction, item) in `(trans_id, item)`
/// order, and beside them the entries of the rows whose item is in
/// `C_1`, transaction by transaction.
struct Sales<'a> {
    /// Row `r` is `(tids[r], items[r])`.
    tids: &'a [TransId],
    items: &'a [Item],
    /// Transaction `s` holds rows `offsets[s]..offsets[s + 1]`.
    offsets: &'a [u32],
    /// Transaction `s`'s `C_1` entries are `c1_starts[s]..c1_starts[s +
    /// 1]`; entry `e` is row `c1_rows[e]`, whose item has `C_1` id
    /// `c1_ids[e]`. Ids ascend within a transaction, as its items do.
    c1_starts: Vec<u32>,
    c1_ids: Vec<u32>,
    c1_rows: Vec<u32>,
}

impl<'a> Sales<'a> {
    /// `dataset`'s rows, with no `C_1` entries yet.
    fn new(dataset: &'a Dataset) -> Sales<'a> {
        Sales {
            tids: dataset.tids(),
            items: dataset.items(),
            offsets: dataset.offsets(),
            c1_starts: Vec::new(),
            c1_ids: Vec::new(),
            c1_rows: Vec::new(),
        }
    }

    /// The number of transactions.
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Transaction `s`'s rows.
    fn rows(&self, s: usize) -> Range<usize> {
        self.offsets[s] as usize..self.offsets[s + 1] as usize
    }

    /// Transaction `s`'s `trans_id`.
    fn tid(&self, s: usize) -> TransId {
        self.tids[self.offsets[s] as usize]
    }

    /// Transaction `s`'s `C_1` entries.
    fn c1(&self, s: usize) -> Range<usize> {
        self.c1_starts[s] as usize..self.c1_starts[s + 1] as usize
    }

    /// k = 1: `C_1` ("SELECT item, COUNT(*) FROM SALES GROUP BY item
    /// HAVING COUNT(*) >= s"), and every transaction's `C_1` entries. The
    /// first pass numbers and counts each row's item. The second maps each
    /// row's number to its `C_1` id and appends the rows that have one,
    /// writing every row and advancing only past a kept one (no branch
    /// per row, and none per transaction, most of which are short); it
    /// overwrites each row's number with the entries kept before it,
    /// which is where a transaction's entries start.
    fn count_c1(&mut self, min_count: u64) -> CountRelation {
        let mut distinct = DistinctItems::new();
        let mut before: Vec<u32> = self.items.iter().map(|&item| distinct.number(item)).collect();
        let (c1, id_of) = distinct.frequent(min_count);
        let kept = c1.iter().map(|(_, count)| count as usize).sum::<usize>();
        // One spare slot takes the last row's write when it is not kept.
        let (mut ids, mut rows) = (vec![0; kept + 1], vec![0; kept + 1]);
        let mut n = 0;
        for (row, number) in before.iter_mut().enumerate() {
            let id = id_of[*number as usize];
            *number = n as u32;
            (ids[n], rows[n]) = (id, row as u32);
            n += usize::from(id != NO_ID);
        }
        ids.truncate(n);
        rows.truncate(n);
        let starts = self.offsets[..self.len()].iter().map(|&row| before[row as usize]);
        self.c1_starts = starts.chain([n as u32]).collect();
        (self.c1_ids, self.c1_rows) = (ids, rows);
        c1
    }
}

/// The distinct items of `SALES`, numbered in order of first appearance,
/// each with its number of rows. An open-addressed table (linear probing,
/// never more than half full) maps an item to its number, so memory
/// follows the distinct items, never the largest item id. Items come
/// from outside the program, so the hash's multiplier is drawn per table:
/// no dataset can be crafted to make every item collide. Numbers, counts
/// and `C_1` do not depend on it.
struct DistinctItems {
    /// `(item, number)` per slot; a number of [`NO_ID`] marks an empty
    /// slot. The table holds `2^bits` slots.
    slots: Vec<(Item, u32)>,
    bits: u32,
    /// Odd: `home` is then a multiply-shift hash, a universal family.
    multiplier: u64,
    /// Each number's item and row count.
    items: Vec<Item>,
    counts: Vec<u32>,
}

impl DistinctItems {
    const FIRST_BITS: u32 = 6;

    fn new() -> DistinctItems {
        let random = std::collections::hash_map::RandomState::new().hash_one(0u64);
        DistinctItems::with_multiplier(random | 1)
    }

    fn with_multiplier(multiplier: u64) -> DistinctItems {
        DistinctItems {
            slots: vec![(0, NO_ID); 1 << Self::FIRST_BITS],
            bits: Self::FIRST_BITS,
            multiplier,
            items: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Where `item`'s probe starts: the top `bits` bits of its product
    /// with the multiplier.
    fn home(&self, item: Item) -> usize {
        (u64::from(item).wrapping_mul(self.multiplier) >> (64 - self.bits)) as usize
    }

    /// Count one row of `item` and return its number.
    fn number(&mut self, item: Item) -> u32 {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(item);
        loop {
            let (key, n) = self.slots[slot];
            if n == NO_ID {
                break;
            }
            if key == item {
                self.counts[n as usize] += 1;
                return n;
            }
            slot = (slot + 1) & mask;
        }
        let n = self.items.len() as u32;
        self.slots[slot] = (item, n);
        self.items.push(item);
        self.counts.push(1);
        if 2 * self.items.len() > self.slots.len() {
            self.grow();
        }
        n
    }

    /// Double the table and place every item again.
    fn grow(&mut self) {
        self.bits += 1;
        self.slots = vec![(0, NO_ID); 1 << self.bits];
        let mask = self.slots.len() - 1;
        for (n, &item) in self.items.iter().enumerate() {
            let mut slot = self.home(item);
            while self.slots[slot].1 != NO_ID {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = (item, n as u32);
        }
    }

    /// `C_1`, sorted by item, and each number's `C_1` id ([`NO_ID`] for
    /// an item under `min_count`).
    fn frequent(&self, min_count: u64) -> (CountRelation, Vec<u32>) {
        let mut numbers: Vec<usize> =
            (0..self.items.len()).filter(|&n| u64::from(self.counts[n]) >= min_count).collect();
        numbers.sort_unstable_by_key(|&n| self.items[n]);
        let mut c1 = CountRelation::new(1);
        let mut id_of = vec![NO_ID; self.items.len()];
        for (id, &n) in numbers.iter().enumerate() {
            c1.push(&[self.items[n]], u64::from(self.counts[n]));
            id_of[n] = id as u32;
        }
        (c1, id_of)
    }
}

/// `SALES` as the extension join reads it: transactions in `trans_id`
/// order, each a sorted item list.
trait Transactions {
    /// Transaction `s`'s `trans_id` and items.
    fn txn(&self, s: usize) -> (TransId, &[Item]);
}

impl Transactions for [(TransId, Vec<Item>)] {
    fn txn(&self, s: usize) -> (TransId, &[Item]) {
        (self[s].0, &self[s].1)
    }
}

impl Transactions for Sales<'_> {
    fn txn(&self, s: usize) -> (TransId, &[Item]) {
        (self.tid(s), &self.items[self.rows(s)])
    }
}

/// The in-memory operator set. `R_{k-1}` is kept as one global relation;
/// an iteration whose plan asks for `shards > 1` partitions it by
/// `trans_id` range on the fly (phase 1: count per shard in parallel;
/// merge; phase 2: emit `R_k` per shard in parallel). Because group
/// counts are algebraic and every shard holds whole transactions, the
/// counts, `R_k`, and the trace series are identical to the one-shard
/// run — `tests/plan_equivalence.rs` proves it for the full forced-plan
/// matrix.
struct InMemory<'a> {
    /// The most cells the dense count's tables may hold together.
    budget: usize,
    sales: Sales<'a>,
    /// `C_1`'s items, ascending: a dense cell's extension id indexes it.
    c1_items: Vec<Item>,
    /// `C_{k-1}`: the unconstrained `C_1` before k = 2, then the last
    /// iteration's `C_k`. A dense cell's prefix id indexes it.
    c_prev: CountRelation,
    /// `R_{k-1}` for k ≥ 3 (k = 2 reads `SALES`).
    r_prev: PatternRelation,
    /// The `C_{k-1}` id of every `r_prev` row, when the dense operator
    /// emitted it: its rows are distinct and already in `(trans_id,
    /// items)` order, so the sorts skip them. `None` after Figure 4.
    r_prev_ids: Option<Vec<u32>>,
    /// Whether `r_prev` is in `(trans_id, item_1, ..)` order.
    tid_sorted: bool,
    /// A shard count and its contiguous `trans_id` ranges of `SALES`,
    /// balanced by rows: kept while iterations ask for that count.
    txn_shards: (usize, Vec<Range<usize>>),
}

impl<'a> InMemory<'a> {
    fn new(dataset: &'a Dataset, budget: usize) -> InMemory<'a> {
        InMemory {
            budget,
            sales: Sales::new(dataset),
            c1_items: Vec::new(),
            c_prev: CountRelation::new(1),
            r_prev: PatternRelation::new(1),
            r_prev_ids: None,
            tid_sorted: true,
            txn_shards: (0, Vec::new()),
        }
    }

    /// Sort `r_prev` on `(trans_id, items)` between `name` phase events.
    /// Rows the dense operator emitted are distinct and already in that
    /// order, so the sort has nothing to move and the kernel is not
    /// called; only Figure 4's `R_k`, in items order, is sorted.
    fn sort_phase(&mut self, sink: &dyn ObsSink, name: &'static str, k: usize) {
        sink.on_event(&ObsEvent::PhaseStart { name, k });
        if self.r_prev_ids.is_none() {
            self.r_prev.sort_by_tid_items();
        }
        debug_assert!(self.r_prev.is_sorted_by_tid_items());
        sink.on_event(&ObsEvent::PhaseEnd { name, k });
    }
}

impl Operators for InMemory<'_> {
    type Error = Infallible;

    fn count_c1(
        &mut self,
        min_count: u64,
        _spec: &RunSpec,
    ) -> Result<(CountRelation, Metered), Infallible> {
        let c1 = self.sales.count_c1(min_count);
        self.c1_items = c1.iter().map(|(p, _)| p[0]).collect();
        self.c_prev = c1.clone();
        Ok((c1, Metered::default()))
    }

    fn sales_stats(&self) -> LiveStats {
        LiveStats::of_sales(self.sales.offsets.windows(2).map(|w| (w[1] - w[0]) as usize))
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
            self.sort_phase(spec.sink, "sort_r_prev", k);
        }
        let (counting, shards) =
            counting_for(self.c_prev.len(), self.c1_items.len(), plan.shards, self.budget);
        if self.txn_shards.0 != shards {
            let weights: Vec<usize> =
                (0..self.sales.len()).map(|s| self.sales.rows(s).len()).collect();
            self.txn_shards = (shards, partition_by_weight(&weights, shards));
        }
        let mut prefix_last_ids = Vec::new();
        if k > 2 && counting == Counting::Dense {
            let (c_prev, c1_items) = (&self.c_prev, &self.c1_items);
            if self.r_prev_ids.is_none() {
                let id = |p: &[Item]| c_prev.position(p).map_or(NO_ID, |i| i as u32);
                self.r_prev_ids = Some(self.r_prev.iter().map(|(_, p)| id(p)).collect());
            }
            // Every item of a `C_{k-1}` pattern is in `C_1`.
            let last_id =
                |p: &[Item]| c1_items.binary_search(&p[k - 2]).map_or(NO_ID, |i| i as u32);
            prefix_last_ids = c_prev.iter().map(|(p, _)| last_id(p)).collect();
        }
        let it = Iteration {
            prefixes: if k == 2 {
                Prefixes::Sales
            } else {
                Prefixes::Rows(&self.r_prev, plan.join)
            },
            sales: &self.sales,
            prefix_ids: self.r_prev_ids.as_deref().unwrap_or_default(),
            prefix_last_ids: &prefix_last_ids,
            c_prev: &self.c_prev,
            c1_items: &self.c1_items,
        };
        let shards = it.shards(&self.txn_shards.1);
        let cc = spec.constraints;
        let counted = match (counting, cc.is_empty()) {
            (Counting::Dense, true) => {
                it.dense(&shards, min_count, |shard| it.count_c1_only(shard))
            }
            (Counting::Dense, false) => {
                it.dense(&shards, min_count, |shard| it.count_pairs(shard, cc))
            }
            (Counting::Figure4, true) => it.figure4(&shards, min_count, &Unconstrained),
            (Counting::Figure4, false) => it.figure4(&shards, min_count, cc),
        };
        self.c_prev = counted.c_k.clone();
        let r_tuples = counted.r_k.n_tuples() as u64;
        self.r_prev = counted.r_k;
        self.r_prev_ids = counted.r_k_ids;
        Ok(Step {
            c_k: counted.c_k,
            r_prime_tuples: counted.r_prime_tuples,
            r_tuples,
            pruned: counted.pruned,
            io: Metered::default(),
        })
    }

    /// The paper's closing "ORDER BY trans_id, item_1, .., item_k":
    /// performed here when the plan maintains the standing order for the
    /// next loop-top sort to reuse, deferred to the next loop top
    /// otherwise (the literal Figure 4 replay). Either way the join sees
    /// the same deterministic order.
    fn carry(&mut self, k: usize, plan: &PhysicalPlan, spec: &RunSpec) -> Result<(), Infallible> {
        if plan.reuse_sort {
            self.sort_phase(spec.sink, "sort_r_k", k);
        }
        self.tid_sorted = plan.reuse_sort;
        Ok(())
    }
}

/// Where an iteration reads its `R_{k-1}` rows.
#[derive(Clone, Copy)]
enum Prefixes<'a> {
    /// k = 2 straight off `SALES`: transaction items, read in order, are
    /// exactly `R_1`'s rows `(trans_id, [item])` in `R_1`'s order.
    Sales,
    /// The tid-sorted `R_{k-1}`; each row finds its transaction by the
    /// access path.
    Rows(&'a PatternRelation, JoinStrategy),
}

impl Prefixes<'_> {
    fn k_prev(self) -> usize {
        match self {
            Prefixes::Sales => 1,
            Prefixes::Rows(r_prev, _) => r_prev.k(),
        }
    }
}

/// One shard: a contiguous range of `SALES` transactions and the range
/// of `R_{k-1}` rows that belong to them.
type Shard = (Range<usize>, Range<usize>);

/// The extension join's walk over one shard's `R_{k-1}` rows (k ≥ 3):
/// `visit(tid, prefix, row, s)` for every row in row order, where `row`
/// indexes the row and `txns.txn(s)` is its transaction, whose items
/// after the row's last item are its extensions under the paper's
/// `q.item > p.item_{k-1}` ([`ext_start`]). A row whose transaction is
/// missing from `txns` has none: the public [`merge_scan_extend`] joins
/// against a `SALES` its caller built, which need not hold every
/// transaction of `R_{k-1}`. Both access paths visit the same rows with
/// the same transactions, so every operator built on the walk gives
/// identical rows, in identical order, under either.
fn for_each_row<T: Transactions + ?Sized>(
    r_prev: &PatternRelation,
    join: JoinStrategy,
    txns: &T,
    (shard_txns, rows): Shard,
    mut visit: impl FnMut(TransId, &[Item], usize, usize),
) {
    // The merge-scan cursor, or the nested loop's last index probe (rows
    // of one transaction are adjacent: probe once per transaction).
    let mut cursor = shard_txns.start;
    let mut probed: Option<(TransId, usize)> = None;
    for row in rows {
        let (tid, prefix) = r_prev.row(row);
        let s = match join {
            JoinStrategy::MergeScan => {
                while cursor < shard_txns.end && txns.txn(cursor).0 < tid {
                    cursor += 1;
                }
                cursor
            }
            JoinStrategy::NestedLoop => match probed {
                Some((t, s)) if t == tid => s,
                _ => {
                    // The sorted transaction vector *is* the
                    // `(trans_id, item)` index: the binary search plays the
                    // B+-tree descent.
                    let s = first_at_or_after(shard_txns.clone(), tid, |s| txns.txn(s).0);
                    probed = Some((tid, s));
                    s
                }
            },
        };
        if s == shard_txns.end || txns.txn(s).0 != tid {
            continue;
        }
        visit(tid, prefix, row, s);
    }
}

/// The position in a transaction's `items` of the first extension of a
/// row ending in `prefix`'s last item: the first item above it.
fn ext_start(items: &[Item], prefix: &[Item]) -> usize {
    let last = prefix[prefix.len() - 1];
    items.partition_point(|&it| it <= last)
}

/// Figure 4's extension join over one shard: `R'_k`, in `R_{k-1}` row
/// order with extensions ascending, plus the candidate pairs `filter`
/// rejected. The filter sees every pair that passes the paper's join
/// predicate: the extension item must be allowed at pattern position
/// `k - 1`, and at k = 2 only the prefix item must be allowed at
/// position 0 too, because `R_1` is the paper's unfiltered sales
/// relation — every later `R_{k-1}` was filtered against the constrained
/// `C_{k-1}` and is clean by induction. A rejected k = 2 prefix charges
/// all of its would-be extensions.
fn extend<T: Transactions + ?Sized, F: CandidateFilter>(
    prefixes: Prefixes,
    txns: &T,
    shard: Shard,
    filter: &F,
) -> (PatternRelation, u64) {
    let k_prev = prefixes.k_prev();
    let mut out = PatternRelation::with_capacity(k_prev + 1, shard.1.len());
    let mut buf: Vec<Item> = vec![0; k_prev + 1];
    let mut pruned = 0u64;
    let mut join = |tid: TransId, prefix: &[Item], exts: &[Item]| {
        if k_prev == 1 && !filter.allows_at(0, prefix[0]) {
            pruned += exts.len() as u64;
            return;
        }
        buf[..k_prev].copy_from_slice(prefix);
        for &ext in exts {
            if filter.allows_at(k_prev, ext) {
                buf[k_prev] = ext;
                out.push(tid, &buf);
            } else {
                pruned += 1;
            }
        }
    };
    match prefixes {
        Prefixes::Sales => {
            for s in shard.0 {
                let (tid, items) = txns.txn(s);
                for a in 0..items.len() {
                    join(tid, &items[a..=a], &items[a + 1..]);
                }
            }
        }
        Prefixes::Rows(r_prev, strategy) => {
            for_each_row(r_prev, strategy, txns, shard, |tid, prefix, _, s| {
                let items = txns.txn(s).1;
                join(tid, prefix, &items[ext_start(items, prefix)..]);
            })
        }
    }
    (out, pruned)
}

/// Run `work` on every input, on one scoped thread each when there is
/// more than one; results come back in input order.
fn par_map<I: Sync, T: Send>(inputs: &[I], work: impl Fn(&I) -> T + Sync) -> Vec<T> {
    if let [one] = inputs {
        return vec![work(one)];
    }
    std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = inputs.iter().map(|input| s.spawn(move || work(input))).collect();
        handles.into_iter().map(|h| h.join().expect("SETM shard worker panicked")).collect()
    })
}

/// Concatenate per-shard parts of `R_k`, in shard order, onto the first:
/// only the later parts are copied.
fn concat(parts: Vec<PatternRelation>) -> PatternRelation {
    let mut parts = parts.into_iter();
    let mut r_k = parts.next().expect("one part per shard");
    for part in parts {
        r_k.extend_from(&part, 0..part.n_tuples());
    }
    r_k
}

/// What one iteration's counting produced.
struct Counted {
    c_k: CountRelation,
    r_k: PatternRelation,
    /// The `C_k` id of every `r_k` row, when the dense operator emitted it.
    r_k_ids: Option<Vec<u32>>,
    r_prime_tuples: u64,
    pruned: u64,
}

/// One shard's dense count: its table, `|R'_k|` and pruned pairs.
type Tally = (Vec<u32>, u64, u64);

/// One iteration's read-only inputs.
struct Iteration<'a> {
    prefixes: Prefixes<'a>,
    sales: &'a Sales<'a>,
    /// The `C_{k-1}` id of every `R_{k-1}` row at k ≥ 3; the dense
    /// operator's only.
    prefix_ids: &'a [u32],
    /// The `C_1` id of each `C_{k-1}` pattern's last item at k ≥ 3; the
    /// dense operator's only.
    prefix_last_ids: &'a [u32],
    c_prev: &'a CountRelation,
    c1_items: &'a [Item],
}

impl Iteration<'_> {
    /// The shards of `txn_shards`, each with its `R_{k-1}` row range.
    fn shards(&self, txn_shards: &[Range<usize>]) -> Vec<Shard> {
        let sales = self.sales;
        let mut row_start = 0usize;
        txn_shards
            .iter()
            .map(|range| {
                let row_end = match self.prefixes {
                    Prefixes::Sales => sales.offsets[range.end] as usize,
                    Prefixes::Rows(r_prev, _) => {
                        let rows = row_start..r_prev.n_tuples();
                        if range.end < sales.len() {
                            first_at_or_after(rows, sales.tid(range.end), |i| r_prev.row(i).0)
                        } else {
                            rows.end
                        }
                    }
                };
                let rows = row_start..row_end;
                row_start = row_end;
                (range.clone(), rows)
            })
            .collect()
    }

    /// Figure 4 per shard: join, sort `R'_k` on the items and count it
    /// locally; merge the counts under the global threshold; then filter
    /// each shard's `R'_k` against the merged `C_k`. The concatenated
    /// `R_k` is in items order within each shard; the next sort restores
    /// `(trans_id, items)`.
    fn figure4<F: CandidateFilter + Sync>(
        &self,
        shards: &[Shard],
        min_count: u64,
        filter: &F,
    ) -> Counted {
        let counted = par_map(shards, |shard| {
            let (mut r_prime, pruned) = extend(self.prefixes, self.sales, shard.clone(), filter);
            r_prime.sort_by_items();
            let local = count_groups(&r_prime);
            (r_prime, local, pruned)
        });
        let locals: Vec<&CountRelation> = counted.iter().map(|(_, c, _)| c).collect();
        let c_k = CountRelation::merge_sum_filter(&locals, min_count);
        let parts = par_map(&counted, |(r_prime, _, _)| filter_supported(r_prime, &c_k));
        Counted {
            c_k,
            r_k: concat(parts),
            r_k_ids: None,
            r_prime_tuples: counted.iter().map(|(r, _, _)| r.n_tuples() as u64).sum(),
            pruned: counted.iter().map(|(_, _, p)| p).sum(),
        }
    }

    /// The dense count: each shard counts its candidate pairs into its
    /// own table (`count`), the tables are summed, `C_k` is read off the
    /// sum, and each shard emits its part of `R_k`. Shards are contiguous
    /// `trans_id` ranges, so the concatenation is in `(trans_id, items)`
    /// order.
    fn dense(
        &self,
        shards: &[Shard],
        min_count: u64,
        count: impl Fn(Shard) -> Tally + Sync,
    ) -> Counted {
        let mut counted = par_map(shards, |shard| count(shard.clone()));
        let (mut cells, mut r_prime_tuples, mut pruned) = counted.swap_remove(0);
        for (other, r_prime, p) in counted {
            for (cell, add) in cells.iter_mut().zip(other) {
                *cell += add;
            }
            r_prime_tuples += r_prime;
            pruned += p;
        }
        let (c_k, first, last_ids) = self.read_c_k(&mut cells, min_count);
        let k = self.prefixes.k_prev() + 1;
        let (parts, ids): (Vec<PatternRelation>, Vec<Vec<u32>>) = if c_k.is_empty() {
            (vec![PatternRelation::new(k)], vec![Vec::new()])
        } else {
            let emitted =
                par_map(shards, |shard| self.emit_dense(shard.clone(), &first, &last_ids, &cells));
            emitted.into_iter().unzip()
        };
        let r_k_ids = ids.into_iter().reduce(|mut all, part| {
            all.extend(part);
            all
        });
        Counted { c_k, r_k: concat(parts), r_k_ids, r_prime_tuples, pruned }
    }

    /// The dense walk over one shard's rows of a `C_{k-1}` prefix:
    /// `visit(tid, prefix, prefix_id, s, exts)`, in row order, where
    /// transaction `s`'s `C_1` entries `exts` are the row's `C_1`
    /// extensions and the entry just before them is the row's last item.
    /// At k = 2 the rows are the transaction's `C_1` entries themselves;
    /// at k ≥ 3 they are the `R_{k-1}` rows, each found in its
    /// transaction by the plan's access path.
    fn for_each_dense_row(
        &self,
        shard: Shard,
        mut visit: impl FnMut(TransId, &[Item], usize, usize, Range<usize>),
    ) {
        let sales = self.sales;
        match self.prefixes {
            Prefixes::Sales => {
                let mut prefix = [0];
                for s in shard.0 {
                    let entries = sales.c1(s);
                    let tid = sales.tid(s);
                    for e in entries.clone() {
                        let id = sales.c1_ids[e] as usize;
                        prefix[0] = self.c1_items[id];
                        visit(tid, &prefix, id, s, e + 1..entries.end);
                    }
                }
            }
            Prefixes::Rows(r_prev, join) => {
                for_each_row(r_prev, join, sales, shard, |tid, prefix, row, s| {
                    let prefix_id = self.prefix_ids[row];
                    debug_assert_ne!(prefix_id, NO_ID, "an R_(k-1) row's prefix is in C_(k-1)");
                    let prefix_id = prefix_id as usize;
                    let last = self.prefix_last_ids[prefix_id];
                    let entries = sales.c1(s);
                    let exts = entries.start
                        + sales.c1_ids[entries.clone()].partition_point(|&id| id <= last);
                    visit(tid, prefix, prefix_id, s, exts..entries.end);
                })
            }
        }
    }

    /// One shard's unconstrained count: the walk visits only `C_1` rows
    /// and bumps the cell of every pair of a `C_{k-1}` prefix and a `C_1`
    /// extension. Every other pair of the join is added to `|R'_k|` in
    /// bulk: at k = 2 a transaction of `n` items makes `n(n − 1)/2`
    /// pairs, and at k ≥ 3 a row pairs with every item after its last.
    fn count_c1_only(&self, shard: Shard) -> Tally {
        let width = self.c1_items.len();
        let mut cells = vec![0u32; self.c_prev.len() * width];
        let sales = self.sales;
        let k2 = matches!(self.prefixes, Prefixes::Sales);
        let pairs = |n: u64| n * n.saturating_sub(1) / 2;
        let mut r_prime_tuples: u64 =
            if k2 { shard.0.clone().map(|s| pairs(sales.rows(s).len() as u64)).sum() } else { 0 };
        self.for_each_dense_row(shard, |_, _, prefix_id, s, exts| {
            if !k2 {
                // The items after the row's last one, entry `exts.start - 1`.
                r_prime_tuples +=
                    (sales.rows(s).end - 1 - sales.c1_rows[exts.start - 1] as usize) as u64;
            }
            let cells = &mut cells[prefix_id * width..][..width];
            for &id in &sales.c1_ids[exts] {
                cells[id as usize] += 1;
            }
        });
        (cells, r_prime_tuples, 0)
    }

    /// One shard's count under a constraint `filter`: every pair the join
    /// would see goes through `filter` and into `|R'_k|` or the pruned
    /// total, as in [`extend`]; a pair of a `C_{k-1}` prefix and a `C_1`
    /// extension also bumps its cell. At k = 2 the rows are every `SALES`
    /// row, each transaction's `C_1` entries met by a cursor; at k ≥ 3 they
    /// are the dense walk's, whose `C_1` extensions start right after the
    /// entry of the row's last item.
    fn count_pairs<F: CandidateFilter>(&self, shard: Shard, filter: &F) -> Tally {
        let k_prev = self.prefixes.k_prev();
        let width = self.c1_items.len();
        let mut cells = vec![0u32; self.c_prev.len() * width];
        let (mut r_prime_tuples, mut pruned) = (0u64, 0u64);
        let sales = self.sales;
        // The allowed pairs of a row whose prefix has cell row `prefix_id`
        // (if in `C_{k-1}`) and whose extensions are `SALES` rows `exts`,
        // their `C_1` entries starting at `next` and ending by `end`.
        let mut pairs = |prefix_id: Option<usize>, exts: Range<usize>, mut next: usize, end| {
            let mut allowed = 0u64;
            for r in exts {
                let id = if next < end && sales.c1_rows[next] as usize == r {
                    next += 1;
                    sales.c1_ids[next - 1]
                } else {
                    NO_ID
                };
                if filter.allows_at(k_prev, sales.items[r]) {
                    allowed += 1;
                    if let (Some(prefix_id), true) = (prefix_id, id != NO_ID) {
                        cells[prefix_id * width + id as usize] += 1;
                    }
                }
            }
            allowed
        };
        match self.prefixes {
            Prefixes::Sales => {
                for s in shard.0 {
                    let (rows, entries) = (sales.rows(s), sales.c1(s));
                    let mut next = entries.start;
                    for row in rows.clone() {
                        // The row's own entry, when its item is in `C_1`.
                        let own = next < entries.end && sales.c1_rows[next] as usize == row;
                        let prefix_id = own.then(|| sales.c1_ids[next] as usize);
                        next += usize::from(own);
                        let n_exts = (rows.end - row - 1) as u64;
                        let allowed = if filter.allows_at(0, sales.items[row]) {
                            pairs(prefix_id, row + 1..rows.end, next, entries.end)
                        } else {
                            0
                        };
                        r_prime_tuples += allowed;
                        pruned += n_exts - allowed;
                    }
                }
            }
            Prefixes::Rows(..) => self.for_each_dense_row(shard, |_, _, prefix_id, s, exts| {
                let first = sales.c1_rows[exts.start - 1] as usize + 1;
                let n_exts = (sales.rows(s).end - first) as u64;
                let allowed =
                    pairs(Some(prefix_id), first..sales.rows(s).end, exts.start, exts.end);
                r_prime_tuples += allowed;
                pruned += n_exts - allowed;
            }),
        }
        (cells, r_prime_tuples, pruned)
    }

    /// `C_k` from the summed table, read in (prefix, item) order — which
    /// is pattern order — with the start of each prefix's patterns in it
    /// (`first[prefix_id]..first[prefix_id + 1]`) and the `C_1` id of
    /// each pattern's last item. Each cell is overwritten with its
    /// pattern's `C_k` index, or [`NO_ID`] where the count is below the
    /// support.
    fn read_c_k(&self, cells: &mut [u32], min_count: u64) -> (CountRelation, Vec<usize>, Vec<u32>) {
        let k = self.prefixes.k_prev() + 1;
        let width = self.c1_items.len();
        let mut c_k = CountRelation::new(k);
        let mut first = Vec::with_capacity(self.c_prev.len() + 1);
        let mut last_ids = Vec::new();
        let mut pattern: Vec<Item> = vec![0; k];
        for prefix_id in 0..self.c_prev.len() {
            first.push(c_k.len());
            pattern[..k - 1].copy_from_slice(self.c_prev.pattern_at(prefix_id));
            for (id, cell) in cells[prefix_id * width..][..width].iter_mut().enumerate() {
                let count = u64::from(*cell);
                *cell = if count > 0 && count >= min_count {
                    pattern[k - 1] = self.c1_items[id];
                    c_k.push(&pattern, count);
                    last_ids.push(id as u32);
                    (c_k.len() - 1) as u32
                } else {
                    NO_ID
                };
            }
        }
        first.push(c_k.len());
        (c_k, first, last_ids)
    }

    /// One shard's `R_k` and the `C_k` id of each row: each `R_{k-1}` row
    /// is extended by every supported pattern of its prefix whose last
    /// item its transaction holds after the row's last item. Two walks
    /// find them, and each row takes the shorter: its prefix's supported
    /// patterns, each tested against a bit set of the transaction's `C_1`
    /// ids, or its own `C_1` extensions, each looked up in `cells` (which
    /// now hold `C_k` indexes). Both give the row's extensions ascending,
    /// so rows come in `(trans_id, items)` order. No filter is needed: a
    /// pattern has a count only if its pairs passed it.
    fn emit_dense(
        &self,
        shard: Shard,
        first: &[usize],
        last_ids: &[u32],
        cells: &[u32],
    ) -> (PatternRelation, Vec<u32>) {
        let k_prev = self.prefixes.k_prev();
        let width = self.c1_items.len();
        let mut out = PatternRelation::new(k_prev + 1);
        let mut ids = Vec::new();
        let mut buf: Vec<Item> = vec![0; k_prev + 1];
        // The `C_1` ids of transaction `held`, as a bit set.
        let mut held_set = vec![0u64; width.div_ceil(64)];
        let mut held: Option<usize> = None;
        let sales = self.sales;
        self.for_each_dense_row(shard, |tid, prefix, prefix_id, s, exts| {
            let patterns = first[prefix_id]..first[prefix_id + 1];
            if patterns.is_empty() || exts.is_empty() {
                return;
            }
            buf[..k_prev].copy_from_slice(prefix);
            if patterns.len() < exts.len() {
                if held != Some(s) {
                    if let Some(t) = held {
                        sales.c1_ids[sales.c1(t)]
                            .iter()
                            .for_each(|&id| held_set[id as usize / 64] = 0);
                    }
                    for &id in &sales.c1_ids[sales.c1(s)] {
                        held_set[id as usize / 64] |= 1 << (id % 64);
                    }
                    held = Some(s);
                }
                for (j, &id) in patterns.clone().zip(&last_ids[patterns]) {
                    if held_set[id as usize / 64] & (1 << (id % 64)) != 0 {
                        buf[k_prev] = self.c1_items[id as usize];
                        out.push(tid, &buf);
                        ids.push(j as u32);
                    }
                }
            } else {
                let cells = &cells[prefix_id * width..][..width];
                for &id in &sales.c1_ids[exts] {
                    let j = cells[id as usize];
                    if j != NO_ID {
                        buf[k_prev] = self.c1_items[id as usize];
                        out.push(tid, &buf);
                        ids.push(j);
                    }
                }
            }
        });
        (out, ids)
    }
}

/// The first index of `range` whose `trans_id` is at least `tid`
/// (`range.end` if none), for `tid_of` ascending over the range.
fn first_at_or_after(
    range: Range<usize>,
    tid: TransId,
    tid_of: impl Fn(usize) -> TransId,
) -> usize {
    let (mut lo, mut hi) = (range.start, range.end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if tid_of(mid) < tid {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// C1: per-item transaction counts with the minimum-support filter
/// ("SELECT item, COUNT(*) FROM SALES GROUP BY item HAVING COUNT(*) >= s"),
/// counted in the table the memory backend's k = 1 counts in.
pub fn count_items(dataset: &Dataset, min_count: u64) -> CountRelation {
    let mut distinct = DistinctItems::new();
    for &item in dataset.items() {
        distinct.number(item);
    }
    distinct.frequent(min_count).0
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
    let prefixes = Prefixes::Rows(r_prev, JoinStrategy::MergeScan);
    extend(prefixes, sales, (0..sales.len(), rows), &Unconstrained).0
}

/// Count every group of an items-sorted `R'_k` with no support filter —
/// the shard-local half of the parallel counting step (the threshold can
/// only be applied to the merged global counts).
pub fn count_groups(r_prime: &PatternRelation) -> CountRelation {
    let mut c = CountRelation::new(r_prime.k());
    let mut patterns = r_prime.iter().map(|(_, items)| items);
    if let Some(mut group) = patterns.next() {
        let mut n = 1u64;
        for pattern in patterns {
            if same_items(pattern, group) {
                n += 1;
            } else {
                c.push(group, n);
                (group, n) = (pattern, 1);
            }
        }
        c.push(group, n);
    }
    c
}

/// Retain the tuples of `r_prime` whose pattern appears in `c_k`. Both
/// sides are pattern-sorted, so membership is one monotone merge cursor —
/// O(1) amortized per group, no binary searches — and a kept group's
/// tuples are copied in one piece.
pub fn filter_supported(r_prime: &PatternRelation, c_k: &CountRelation) -> PatternRelation {
    let n = r_prime.n_tuples();
    let mut out = PatternRelation::new(r_prime.k());
    let mut ci = 0usize;
    let mut i = 0usize;
    while i < n {
        let pattern = r_prime.row(i).1;
        let mut j = i + 1;
        while j < n && same_items(r_prime.row(j).1, pattern) {
            j += 1;
        }
        while ci < c_k.len() && c_k.pattern_at(ci) < pattern {
            ci += 1;
        }
        if ci < c_k.len() && same_items(c_k.pattern_at(ci), pattern) {
            out.extend_from(r_prime, i..j);
        }
        i = j;
    }
    out
}

/// Whether two patterns of one length are equal, compared item by item
/// (cheaper than a slice comparison for patterns this short).
fn same_items(a: &[Item], b: &[Item]) -> bool {
    a.iter().zip(b).all(|(x, y)| x == y)
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
                    let plan = PhysicalPlan { join, reuse_sort, shards, sort_buffer_pages: 256 };
                    let spec = RunSpec { plan_mode: PlanMode::Forced(plan), ..Default::default() };
                    let forced = execute(&d, &params, &spec);
                    assert_eq!(forced.frequent_itemsets(), auto.frequent_itemsets(), "plan {plan}");
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

    /// Five transactions hold all of 1..=6 and three hold 7 and 8, so at
    /// a count of 4, C_k is every k-subset of 1..=6: |C_1| = 6, |C_2| =
    /// 15, |C_3| = 20, |C_4| = 15, |C_5| = 6, |C_6| = 1.
    fn six_item_lattice() -> (Dataset, MiningParams) {
        let mut txns: Vec<(u32, Vec<u32>)> = (1..=5).map(|t| (t, (1..=6).collect())).collect();
        txns.extend((6..=8).map(|t| (t, vec![7, 8])));
        let d = Dataset::from_transactions(txns.iter().map(|(t, i)| (*t, i.as_slice())));
        (d, MiningParams::new(MinSupport::Count(4), 0.5))
    }

    fn assert_same_run(a: &SetmResult, b: &SetmResult, label: &str) {
        assert_eq!(a.counts, b.counts, "{label}: C_k");
        assert_eq!(a.trace, b.trace, "{label}: trace rows");
    }

    /// The operator each iteration k ≥ 2 of the unconstrained run `r`
    /// took under `budget`, as the selector saw its sizes and plan.
    fn operators(r: &SetmResult, budget: usize) -> Vec<Counting> {
        let c1_len = r.trace[0].c_len as usize;
        r.trace
            .windows(2)
            .map(|w| {
                let shards = w[1].plan.expect("a planned iteration").shards;
                counting_for(w[0].c_len as usize, c1_len, shards, budget).0
            })
            .collect()
    }

    /// The budget bounds every shard's table together, and a 2,100-item
    /// C_1 (`tests/dense_count_equivalence.rs`'s over-budget case) is
    /// over it even on one shard.
    #[test]
    fn the_budget_bounds_the_tables_of_all_shards() {
        use Counting::{Dense, Figure4};
        let b = DENSE_CELL_BUDGET;
        assert_eq!(counting_for(2048, 2048, 1, b), (Dense, 1));
        assert_eq!(counting_for(2048, 2048, 4, b), (Dense, 1));
        assert_eq!(counting_for(1024, 1024, 8, b), (Dense, 4));
        assert_eq!(counting_for(702, 702, 2, b), (Dense, 2));
        assert_eq!(counting_for(2049, 2048, 1, b), (Figure4, 1));
        assert_eq!(counting_for(2100, 2100, 1, b), (Figure4, 1));
        assert_eq!(counting_for(usize::MAX, 2, 3, b), (Figure4, 3));
        assert_eq!(counting_for(0, 5, 2, 0), (Figure4, 2));
    }

    /// A budget of 40 cells fits 6 × 6 at k = 2, not 15 × 6 at k = 3, and
    /// again 6 × 6 at k = 6: the run switches to Figure 4 and back, and
    /// every plan and thread count still matches an all-dense and an
    /// all-Figure-4 run row for row.
    #[test]
    fn a_small_budget_switches_dense_to_figure4_and_back() {
        use crate::setm::plan::{JoinStrategy, PhysicalPlan, PlanMode};
        use Counting::{Dense, Figure4};
        let (d, params) = six_item_lattice();
        let spec = RunSpec { threads: 1, ..Default::default() };
        let dense = run(&d, &params, &spec, usize::MAX);
        let figure4 = run(&d, &params, &spec, 0);
        assert_eq!(operators(&dense, usize::MAX), [Dense; 6]);
        assert_eq!(operators(&figure4, 0), [Figure4; 6]);
        assert_same_run(&dense, &figure4, "all dense vs all Figure 4");
        let c_lens: Vec<u64> = dense.trace.iter().map(|t| t.c_len).collect();
        assert_eq!(c_lens, [6, 15, 20, 15, 6, 1, 0]);

        for join in [JoinStrategy::MergeScan, JoinStrategy::NestedLoop] {
            for reuse_sort in [true, false] {
                for shards in [1usize, 3] {
                    let plan = PhysicalPlan { join, reuse_sort, shards, sort_buffer_pages: 256 };
                    let spec = RunSpec { threads: 3, plan_mode: PlanMode::Forced(plan), ..spec };
                    let mixed = run(&d, &params, &spec, 40);
                    assert_eq!(
                        operators(&mixed, 40),
                        [Dense, Figure4, Figure4, Figure4, Dense, Dense],
                        "plan {plan}"
                    );
                    let mut expected = dense.trace.clone();
                    for row in &mut expected[1..] {
                        row.plan = Some(plan);
                    }
                    assert_eq!(mixed.counts, dense.counts, "plan {plan}");
                    assert_eq!(mixed.trace, expected, "plan {plan}");
                }
            }
        }
    }

    /// Pushdown under the dense count: `|R'_k|` and `candidates_pruned`
    /// come out pair by pair exactly as Figure 4 counts them, on one
    /// shard and on several.
    #[test]
    fn the_dense_count_prunes_like_figure4() {
        use crate::constraints::MiningConstraints;
        let (d, params) = six_item_lattice();
        for constraints in [
            MiningConstraints::new().exclude([3, 7]),
            MiningConstraints::new().require([2, 5]).exclude([8]),
        ] {
            let plan = constraints.compile(&d);
            let mined = plan.remap().map_or_else(|| d.clone(), |r| r.remap_dataset(&d));
            for threads in [1, 3] {
                let spec = RunSpec { threads, constraints: plan.compiled(), ..Default::default() };
                let dense = run(&mined, &params, &spec, usize::MAX);
                let figure4 = run(&mined, &params, &spec, 0);
                let label = format!("{constraints:?} threads={threads}");
                assert_same_run(&dense, &figure4, &label);
                assert!(dense.trace[1].candidates_pruned > 0, "{label}");
            }
        }
    }

    /// Items at both ends of `u32` — including the value the id sentinel
    /// uses — count like any others.
    #[test]
    fn extreme_item_ids_count_like_any_others() {
        let (lo, hi) = (0u32, u32::MAX);
        let d = Dataset::from_transactions([
            (1, [lo, 7, hi - 1, hi].as_slice()),
            (2, [lo, hi - 1, hi].as_slice()),
            (3, [lo, 7, hi].as_slice()),
            (4, [7, hi - 1].as_slice()),
        ]);
        let params = MiningParams::new(MinSupport::Count(2), 0.5);
        let spec = RunSpec { threads: 1, ..Default::default() };
        let dense = run(&d, &params, &spec, usize::MAX);
        let figure4 = run(&d, &params, &spec, 0);
        assert_same_run(&dense, &figure4, "extreme ids");
        assert_eq!(dense.c(3).unwrap().get(&[lo, hi - 1, hi]), Some(2));
        for (pattern, count) in dense.frequent_itemsets() {
            assert_eq!(count, d.support_of(&pattern), "pattern {pattern:?}");
        }
    }

    /// Frequent items 2, 4, 6 and 8 in six transactions, each with one
    /// odd item that recurs at most twice: at a count of 3 every odd item
    /// is an infrequent prefix at k = 2 and an infrequent extension at
    /// every k, so `|R'_k|` is mostly pairs the unconstrained walk never
    /// visits and adds in bulk.
    #[test]
    fn bulk_r_prime_and_pruning_match_figure4_around_infrequent_items() {
        use crate::constraints::MiningConstraints;
        let txns: Vec<(u32, Vec<u32>)> =
            (1..=6).map(|t| (t, vec![2, 4, 6, 8, 2 * (t % 5) + 1])).collect();
        let d = Dataset::from_transactions(txns.iter().map(|(t, i)| (*t, i.as_slice())));
        let params = MiningParams::new(MinSupport::Count(3), 0.5);
        for constraints in
            [MiningConstraints::new(), MiningConstraints::new().require([2]).exclude([5, 6])]
        {
            let plan = constraints.compile(&d);
            let mined = plan.remap().map_or_else(|| d.clone(), |r| r.remap_dataset(&d));
            for threads in [1, 3] {
                let spec = RunSpec { threads, constraints: plan.compiled(), ..Default::default() };
                let dense = run(&mined, &params, &spec, usize::MAX);
                let figure4 = run(&mined, &params, &spec, 0);
                let label = format!("{constraints:?} threads={threads}");
                assert_same_run(&dense, &figure4, &label);
                let pruned = dense.trace[1].candidates_pruned;
                assert_eq!(pruned > 0, !constraints.is_empty(), "{label}");
            }
        }
        let r = run(&d, &params, &RunSpec { threads: 1, ..Default::default() }, usize::MAX);
        // Five items per transaction: 10 pairs each, of which the odd
        // item is in 4; at k = 3 the six frequent pairs' rows extend by
        // the items after them, odd ones included.
        assert_eq!(r.trace[1].r_prime_tuples, 60);
        assert_eq!(r.trace.iter().map(|t| t.c_len).collect::<Vec<_>>(), [4, 6, 4, 1, 0]);
    }

    /// `R_2`, `R_3`, .. of `d` at `min_count` as the operators leave them
    /// after each iteration (before the closing sort) under `budget`.
    fn emitted(d: &Dataset, min_count: u64, budget: usize) -> Vec<PatternRelation> {
        use crate::setm::plan::PhysicalPlan;
        let spec = RunSpec { threads: 3, ..Default::default() };
        let mut ops = InMemory::new(d, budget);
        let _ = ops.count_c1(min_count, &spec);
        let mut out = Vec::new();
        for k in 2.. {
            let mut plan = PhysicalPlan {
                join: JoinStrategy::MergeScan,
                reuse_sort: true,
                shards: 3,
                sort_buffer_pages: 256,
            };
            let Ok(step) = ops.iterate(k, &mut plan, min_count, &spec);
            out.push(ops.r_prev.clone());
            if step.r_tuples == 0 {
                break;
            }
            let _ = ops.carry(k, &plan, &spec);
        }
        out
    }

    /// The dense operator emits each `R_k` with exactly Figure 4's rows,
    /// already in the order Figure 4's closing sort puts them in.
    fn assert_emits_like_figure4(d: &Dataset, min_count: u64, r_k_lens: &[usize]) {
        let dense = emitted(d, min_count, usize::MAX);
        let mut figure4 = emitted(d, min_count, 0);
        figure4.iter_mut().for_each(PatternRelation::sort_by_tid_items);
        assert_eq!(dense, figure4);
        assert_eq!(dense.iter().map(PatternRelation::n_tuples).collect::<Vec<_>>(), r_k_lens);
    }

    /// The walk over a row's own `C_1` extensions, looked up in the
    /// table: two copies of every 3-subset of 1..=5 at a count of 2 make
    /// every pair and triple supported, so a row's prefix always has at
    /// least as many supported patterns as the row has extensions, and
    /// every row takes this walk.
    #[test]
    fn the_cell_walk_emits_r_k_like_figure4() {
        let mut txns = Vec::new();
        for a in 1..=5u32 {
            for b in a + 1..=5 {
                for c in b + 1..=5 {
                    txns.extend([vec![a, b, c], vec![a, b, c]]);
                }
            }
        }
        let d = Dataset::from_transactions((1..).zip(&txns).map(|(t, i)| (t, i.as_slice())));
        assert_emits_like_figure4(&d, 2, &[60, 20, 0]);
    }

    /// The walk over a prefix's supported patterns, tested against the
    /// transaction's items: three transactions hold 1, 2, 3 and two of
    /// 4..=9, which singletons make frequent, so a row's prefix has fewer
    /// supported patterns (those among 1, 2, 3) than the row has
    /// extensions, and every row that emits takes this walk.
    #[test]
    fn the_pattern_walk_emits_r_k_like_figure4() {
        let mut txns: Vec<Vec<u32>> = (1..=3).map(|i| vec![1, 2, 3, 3 + i, 6 + i]).collect();
        txns.extend((4..=9).flat_map(|x| [vec![x], vec![x]]));
        let d = Dataset::from_transactions((1..).zip(&txns).map(|(t, i)| (t, i.as_slice())));
        assert_emits_like_figure4(&d, 3, &[9, 3, 0]);
    }

    /// Items that all start their probe at one slot, at every size the
    /// table grows through, are numbered in order of first appearance
    /// and counted exactly; `C_1` comes out sorted by item. With its
    /// multiplier fixed, 100 items sharing the top 8 bits of their
    /// product with it collide at 2^6, 2^7 and 2^8 slots.
    #[test]
    fn colliding_items_number_and_count_exactly() {
        let multiplier = 0x9E37_79B9_7F4A_7C15;
        let top = |i: Item| u64::from(i).wrapping_mul(multiplier) >> 56;
        let colliding = (0..=u32::MAX).rev().step_by(977);
        let items: Vec<Item> = colliding.filter(|&i| top(i) == top(u32::MAX)).take(100).collect();
        let mut distinct = DistinctItems::with_multiplier(multiplier);
        for (n, &item) in items.iter().enumerate() {
            for _ in 0..=n % 4 {
                assert_eq!(distinct.number(item), n as u32);
            }
        }
        assert_eq!(distinct.bits, 8);
        assert!(items.iter().all(|&i| distinct.home(i) == distinct.home(items[0])));
        let (c1, id_of) = distinct.frequent(3);
        let mut expect: Vec<(Item, u64)> =
            items.iter().enumerate().map(|(n, &i)| (i, (n % 4 + 1) as u64)).collect();
        expect.retain(|&(_, count)| count >= 3);
        expect.sort_unstable();
        let got: Vec<(Item, u64)> = c1.iter().map(|(p, count)| (p[0], count)).collect();
        assert_eq!(got, expect);
        for (n, &id) in id_of.iter().enumerate() {
            let frequent = n % 4 + 1 >= 3;
            assert_eq!(id != NO_ID, frequent, "number {n}");
            if frequent {
                assert_eq!(c1.pattern_at(id as usize), [items[n]]);
            }
        }
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
