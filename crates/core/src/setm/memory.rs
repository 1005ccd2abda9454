//! In-memory execution of Algorithm SETM.
//!
//! The in-memory operator set of the shared Figure 4 loop, entered
//! through [`execute`]. It keeps every logical step of the loop — the
//! extension join against the *unfiltered* `R_1` (one tuple of `|R'_k|`
//! per pair it would emit, constraint pushdown applied pair by pair),
//! the support threshold, and both sorts around the loop body — but
//! counts `C_k` with its own physical operator rather than Figure 4's
//! sort-and-count of a materialised `R'_k`.
//!
//! # The dense count
//!
//! Only a pattern whose prefix is in `C_{k-1}` and whose extension item
//! is in `C_1` can be supported. So iteration k counts every candidate
//! pair straight into a dense `u32` table of `|C_{k-1}| × |C_1|` cells,
//! indexed by the prefix's position in the sorted `C_{k-1}` and the
//! extension item's position in the sorted `C_1`; `R'_k` is never built.
//! At k = 2 the pairs come per transaction straight off `SALES` (which
//! is `R_1`); at k ≥ 3 each `R_{k-1}` row finds its transaction by the
//! plan's access path (merge-scan or nested-loop) and its prefix's
//! position was recorded when the row was emitted. Every pair passes
//! through the [`CandidateFilter`] and into `|R'_k|` or the pruned total
//! exactly as the join would emit or reject it, so the trace does not
//! change. Reading the cells that meet the support in (prefix, item)
//! order yields `C_k` already sorted. A second walk over `R_{k-1}` then
//! extends each row by those of its prefix's supported patterns whose
//! last item the row's transaction holds, which emits `R_k` in
//! `(trans_id, items)` order: the two sorts around the loop (still run,
//! still announced as `sort_r_prev` / `sort_r_k` phase events) find
//! their input in order and only scan it.
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
use setm_relational::sort::sort_rows;
use std::convert::Infallible;
use std::ops::Range;

/// The most cells the dense count's tables may hold together, one table
/// per shard (16 MiB of `u32` counts). Where not even one
/// `|C_{k-1}| × |C_1|` table fits, an iteration runs Figure 4's
/// operators. The crossover is a guess: no benchmark workload comes near
/// it (`mine_quest`'s largest table is 493K cells).
const DENSE_CELL_BUDGET: usize = 1 << 22;

/// The id of an item not in `C_1`, or of a prefix not in `C_{k-1}`.
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
    let mut ops = InMemory {
        dataset,
        budget,
        sales: Sales::default(),
        c1_items: Vec::new(),
        c_prev: CountRelation::new(1),
        r_prev: PatternRelation::new(1),
        r_prev_ids: None,
        tid_sorted: true,
    };
    match drive(&mut ops, Totals::of(dataset, spec), params, &planner, spec) {
        Ok(result) => result,
        Err(never) => match never {},
    }
}

/// The `SALES` side of every extension join, which is also `R_1`: one
/// row per (transaction, item), in `(trans_id, item)` order.
#[derive(Default)]
struct Sales {
    /// Each transaction's `trans_id`, ascending.
    tids: Vec<TransId>,
    /// Transaction `s` holds rows `starts[s]..starts[s + 1]`.
    starts: Vec<usize>,
    items: Vec<Item>,
    /// The `C_1` id of each row's item ([`NO_ID`] for an infrequent one).
    ids: Vec<u32>,
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

impl Transactions for Sales {
    fn txn(&self, s: usize) -> (TransId, &[Item]) {
        (self.tids[s], &self.items[self.starts[s]..self.starts[s + 1]])
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
    dataset: &'a Dataset,
    /// The most cells the dense count's tables may hold together.
    budget: usize,
    sales: Sales,
    /// `C_1`'s items, ascending: a dense cell's extension id indexes it.
    c1_items: Vec<Item>,
    /// `C_{k-1}`: the unconstrained `C_1` before k = 2, then the last
    /// iteration's `C_k`. A dense cell's prefix id indexes it.
    c_prev: CountRelation,
    /// `R_{k-1}` for k ≥ 3 (k = 2 reads `SALES`).
    r_prev: PatternRelation,
    /// The `C_{k-1}` id of every `r_prev` row, when the dense operator
    /// emitted it: its rows are distinct and already in `(trans_id,
    /// items)` order, so sorting them moves none. `None` after Figure 4.
    r_prev_ids: Option<Vec<u32>>,
    /// Whether `r_prev` is in `(trans_id, item_1, ..)` order.
    tid_sorted: bool,
}

impl Operators for InMemory<'_> {
    type Error = Infallible;

    fn count_c1(
        &mut self,
        min_count: u64,
        _spec: &RunSpec,
    ) -> Result<(CountRelation, Metered), Infallible> {
        let c1 = count_items(self.dataset, min_count);
        self.c1_items = c1.iter().map(|(p, _)| p[0]).collect();
        let mut sales = Sales { starts: vec![0], ..Sales::default() };
        sales.items.reserve(self.dataset.items().len());
        sales.ids.reserve(self.dataset.items().len());
        for (tid, items) in self.dataset.transactions() {
            for &item in items {
                // A row's `C_1` id is its item's position in the sorted
                // `C_1`; no lookup allocates by the largest item id.
                let id = self.c1_items.binary_search(&item).map_or(NO_ID, |i| i as u32);
                sales.items.push(item);
                sales.ids.push(id);
            }
            sales.tids.push(tid);
            sales.starts.push(sales.items.len());
        }
        self.sales = sales;
        self.c_prev = c1.clone();
        Ok((c1, Metered::default()))
    }

    fn sales_stats(&self) -> LiveStats {
        LiveStats::of_sales(self.sales.starts.windows(2).map(|w| w[1] - w[0]))
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
        let (counting, shards) =
            counting_for(self.c_prev.len(), self.c1_items.len(), plan.shards, self.budget);
        if k > 2 && counting == Counting::Dense && self.r_prev_ids.is_none() {
            let c_prev = &self.c_prev;
            let id = |p: &[Item]| c_prev.position(p).map_or(NO_ID, |i| i as u32);
            self.r_prev_ids = Some(self.r_prev.iter().map(|(_, p)| id(p)).collect());
        }
        let it = Iteration {
            prefixes: if k == 2 {
                Prefixes::Sales
            } else {
                Prefixes::Rows(&self.r_prev, plan.join)
            },
            sales: &self.sales,
            prefix_ids: if k == 2 {
                &self.sales.ids
            } else {
                self.r_prev_ids.as_deref().unwrap_or_default()
            },
            c_prev: &self.c_prev,
            c1_items: &self.c1_items,
        };
        let shards = it.shards(shards);
        let cc = spec.constraints;
        let counted = match (counting, cc.is_empty()) {
            (Counting::Dense, true) => it.dense(&shards, min_count, &Unconstrained),
            (Counting::Dense, false) => it.dense(&shards, min_count, cc),
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

/// The extension join's walk over one shard: `visit(tid, prefix, row, s,
/// start)` for every `R_{k-1}` row in row order, where `row` indexes the
/// row (in `SALES` at k = 2), `txns.txn(s)` is its transaction, and that
/// transaction's items from `start` on are the row's extensions under
/// the paper's `q.item > p.item_{k-1}`. A row whose transaction is
/// missing from `txns` has none: the public [`merge_scan_extend`] joins
/// against a `SALES` its caller built, which need not hold every
/// transaction of `R_{k-1}`. Both access paths visit the same rows with
/// the same transactions, so every operator built on the walk gives
/// identical rows, in identical order, under either.
fn for_each_row<T: Transactions + ?Sized>(
    prefixes: Prefixes,
    txns: &T,
    (shard_txns, rows): Shard,
    mut visit: impl FnMut(TransId, &[Item], usize, usize, usize),
) {
    let (r_prev, join) = match prefixes {
        Prefixes::Sales => {
            let mut row = rows.start;
            for s in shard_txns {
                let (tid, items) = txns.txn(s);
                for a in 0..items.len() {
                    visit(tid, &items[a..=a], row, s, a + 1);
                    row += 1;
                }
            }
            return;
        }
        Prefixes::Rows(r_prev, join) => (r_prev, join),
    };
    let k_prev = r_prev.k();
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
        let last = prefix[k_prev - 1];
        let start = txns.txn(s).1.partition_point(|&it| it <= last);
        visit(tid, prefix, row, s, start);
    }
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
    for_each_row(prefixes, txns, shard, |tid, prefix, _, s, start| {
        let exts = &txns.txn(s).1[start..];
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
    });
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

/// Concatenate per-shard parts of `R_k`, in shard order.
fn concat(k: usize, mut parts: Vec<PatternRelation>) -> PatternRelation {
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    let total: usize = parts.iter().map(PatternRelation::n_tuples).sum();
    let mut r_k = PatternRelation::with_capacity(k, total);
    for part in &parts {
        r_k.extend_from(part, 0..part.n_tuples());
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

/// One iteration's read-only inputs.
struct Iteration<'a> {
    prefixes: Prefixes<'a>,
    sales: &'a Sales,
    /// The `C_{k-1}` id of every `R_{k-1}` row ([`NO_ID`] for an
    /// unsupported one); the dense operator's only.
    prefix_ids: &'a [u32],
    c_prev: &'a CountRelation,
    c1_items: &'a [Item],
}

impl Iteration<'_> {
    /// The plan's `trans_id` shards, each with its `R_{k-1}` row range.
    fn shards(&self, n: usize) -> Vec<Shard> {
        let sales = self.sales;
        let weights: Vec<usize> = sales.starts.windows(2).map(|w| w[1] - w[0]).collect();
        let mut row_start = 0usize;
        partition_by_weight(&weights, n)
            .into_iter()
            .map(|range| {
                let row_end = match self.prefixes {
                    Prefixes::Sales => sales.starts[range.end],
                    Prefixes::Rows(r_prev, _) => {
                        let rows = row_start..r_prev.n_tuples();
                        match sales.tids.get(range.end) {
                            Some(&next) => first_at_or_after(rows, next, |i| r_prev.row(i).0),
                            None => rows.end,
                        }
                    }
                };
                let rows = row_start..row_end;
                row_start = row_end;
                (range, rows)
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
            r_k: concat(self.prefixes.k_prev() + 1, parts),
            r_k_ids: None,
            r_prime_tuples: counted.iter().map(|(r, _, _)| r.n_tuples() as u64).sum(),
            pruned: counted.iter().map(|(_, _, p)| p).sum(),
        }
    }

    /// The dense count: each shard counts its candidate pairs into its
    /// own table, the tables are summed, `C_k` is read off the sum, and
    /// each shard emits its part of `R_k`. Shards are contiguous
    /// `trans_id` ranges, so the concatenation is in `(trans_id, items)`
    /// order.
    fn dense<F: CandidateFilter + Sync>(
        &self,
        shards: &[Shard],
        min_count: u64,
        filter: &F,
    ) -> Counted {
        let mut counted = par_map(shards, |shard| self.count_dense(shard.clone(), filter));
        let (mut cells, mut r_prime_tuples, mut pruned) = counted.swap_remove(0);
        for (other, r_prime, p) in counted {
            for (cell, add) in cells.iter_mut().zip(other) {
                *cell += add;
            }
            r_prime_tuples += r_prime;
            pruned += p;
        }
        let (c_k, first, last_ids) = self.read_c_k(&cells, min_count);
        drop(cells);
        let k = self.prefixes.k_prev() + 1;
        let (parts, ids): (Vec<PatternRelation>, Vec<Vec<u32>>) = if c_k.is_empty() {
            (vec![PatternRelation::new(k)], vec![Vec::new()])
        } else {
            par_map(shards, |shard| self.emit_dense(shard.clone(), &first, &last_ids))
                .into_iter()
                .unzip()
        };
        Counted { c_k, r_k: concat(k, parts), r_k_ids: Some(ids.concat()), r_prime_tuples, pruned }
    }

    /// One shard's table, `|R'_k|` and pruned pairs. Every pair the join
    /// would see goes through `filter` and into `|R'_k|` or the pruned
    /// total, as in [`extend`]; a pair of a `C_{k-1}` prefix and a `C_1`
    /// extension also bumps its cell.
    fn count_dense<F: CandidateFilter>(&self, shard: Shard, filter: &F) -> (Vec<u32>, u64, u64) {
        let k_prev = self.prefixes.k_prev();
        let width = self.c1_items.len();
        let mut cells = vec![0u32; self.c_prev.len() * width];
        let (mut r_prime_tuples, mut pruned) = (0u64, 0u64);
        let sales = self.sales;
        for_each_row(self.prefixes, sales, shard, |_, prefix, row, s, start| {
            let exts = &sales.txn(s).1[start..];
            if k_prev == 1 && !filter.allows_at(0, prefix[0]) {
                pruned += exts.len() as u64;
                return;
            }
            let ids = &sales.ids[sales.starts[s] + start..sales.starts[s + 1]];
            let prefix_id = self.prefix_ids[row];
            let mut allowed = 0u64;
            if prefix_id == NO_ID {
                allowed = exts.iter().filter(|&&ext| filter.allows_at(k_prev, ext)).count() as u64;
            } else {
                let cells = &mut cells[prefix_id as usize * width..][..width];
                for (&ext, &id) in exts.iter().zip(ids) {
                    if filter.allows_at(k_prev, ext) {
                        allowed += 1;
                        if id != NO_ID {
                            cells[id as usize] += 1;
                        }
                    }
                }
            }
            r_prime_tuples += allowed;
            pruned += exts.len() as u64 - allowed;
        });
        (cells, r_prime_tuples, pruned)
    }

    /// `C_k` from the summed table, read in (prefix, item) order — which
    /// is pattern order — with the start of each prefix's patterns in it
    /// (`first[prefix_id]..first[prefix_id + 1]`) and the `C_1` id of
    /// each pattern's last item.
    fn read_c_k(&self, cells: &[u32], min_count: u64) -> (CountRelation, Vec<usize>, Vec<u32>) {
        let k = self.prefixes.k_prev() + 1;
        let width = self.c1_items.len();
        let mut c_k = CountRelation::new(k);
        let mut first = Vec::with_capacity(self.c_prev.len() + 1);
        let mut last_ids = Vec::new();
        let mut pattern: Vec<Item> = vec![0; k];
        for prefix_id in 0..self.c_prev.len() {
            first.push(c_k.len());
            pattern[..k - 1].copy_from_slice(self.c_prev.pattern_at(prefix_id));
            for (id, &cell) in cells[prefix_id * width..][..width].iter().enumerate() {
                let count = u64::from(cell);
                if count > 0 && count >= min_count {
                    pattern[k - 1] = self.c1_items[id];
                    c_k.push(&pattern, count);
                    last_ids.push(id as u32);
                }
            }
        }
        first.push(c_k.len());
        (c_k, first, last_ids)
    }

    /// One shard's `R_k` and the `C_k` id of each row: each `R_{k-1}` row
    /// is extended by those of its prefix's supported patterns whose last
    /// item its transaction holds (patterns are ascending, so that item
    /// comes after the prefix). Rows come in `R_{k-1}` order with
    /// extensions ascending, so in `(trans_id, items)` order. No filter is
    /// needed: a pattern has a count only if its pairs passed it.
    fn emit_dense(
        &self,
        shard: Shard,
        first: &[usize],
        last_ids: &[u32],
    ) -> (PatternRelation, Vec<u32>) {
        let k_prev = self.prefixes.k_prev();
        let mut out = PatternRelation::new(k_prev + 1);
        let mut ids = Vec::new();
        let mut buf: Vec<Item> = vec![0; k_prev + 1];
        // The `C_1` items of transaction `held`, as a bit set.
        let mut held_set = vec![0u64; self.c1_items.len().div_ceil(64)];
        let mut held: Option<usize> = None;
        let sales = self.sales;
        for_each_row(self.prefixes, sales, shard, |tid, prefix, row, s, _| {
            let prefix_id = self.prefix_ids[row];
            if prefix_id == NO_ID {
                return;
            }
            if held != Some(s) {
                let frequent = |t: usize| {
                    sales.ids[sales.starts[t]..sales.starts[t + 1]]
                        .iter()
                        .filter(|&&id| id != NO_ID)
                        .map(|&id| id as usize)
                };
                if let Some(t) = held {
                    frequent(t).for_each(|id| held_set[id / 64] = 0);
                }
                frequent(s).for_each(|id| held_set[id / 64] |= 1 << (id % 64));
                held = Some(s);
            }
            buf[..k_prev].copy_from_slice(prefix);
            let patterns = first[prefix_id as usize]..first[prefix_id as usize + 1];
            for (j, &id) in patterns.clone().zip(&last_ids[patterns]) {
                let id = id as usize;
                if held_set[id / 64] & (1 << (id % 64)) != 0 {
                    buf[k_prev] = self.c1_items[id];
                    out.push(tid, &buf);
                    ids.push(j as u32);
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
/// ("SELECT item, COUNT(*) FROM SALES GROUP BY item HAVING COUNT(*) >= s").
pub fn count_items(dataset: &Dataset, min_count: u64) -> CountRelation {
    let mut items: Vec<Item> = dataset.items().to_vec();
    sort_rows(&mut items, 1, &[0]);
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
