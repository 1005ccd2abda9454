//! External merge sort — the first of the paper's two primitives.
//!
//! Algorithm SETM (Figure 4) performs two sorts per iteration: `R_{k-1}` on
//! `(trans_id, item_1, .., item_{k-1})` before the merge-scan join, and
//! `R'_k` on `(item_1, .., item_k)` before counting. The sorter is a
//! classic two-phase external sort: initial runs of `buffer_pages` pages
//! each, formed in memory by the radix kernel [`sort_rows`], then
//! (multi-pass if necessary) k-way merge with a fan-in of
//! `buffer_pages - 1`.
//!
//! All I/O flows through the shared pager, so a sort's page-access count
//! can be compared with the `2·||R||` term of the paper's Section 4.3
//! formula ("the output is read again, sorted, and written out to disk").
//! Run formation is CPU-only: a run is read once and written once however
//! it is ordered in memory, so the in-memory sort never changes the page
//! accounting.
//!
//! The per-row work happens on flat buffers. Run formation reads the input
//! a page at a time into the run buffer and writes each sorted run with
//! one bulk append that fills whole pages. The merge is a loser tree over
//! one [`HeapCursor`] per run, each decoding its current page once; rows
//! compare on the first four columns of [`row_order`]'s sequence packed
//! into a `u128`, then on the remaining columns, then on the run index.
//! What must not change is *when* each page is touched: the merge pushes
//! the winning row and only then advances its run, and a cursor reads its
//! next page only when a row past the current page is asked for. So every
//! run page is read, and every output page written, in the order a
//! row-at-a-time merge produces, and a cached or pooled pager sees the
//! same hits, evictions and steals (`tests/sort_io_pins.rs`).

use crate::errors::Result;
use crate::heap::{HeapCursor, HeapFile, HeapFileBuilder};
use crate::page::Page;
use crate::tuple::{cmp_all, cmp_on};
use std::cmp::Ordering;

/// Tuning knobs for [`external_sort`].
#[derive(Debug, Clone, Copy)]
pub struct SortOptions {
    /// In-memory workspace, in pages. Runs are this long; merge fan-in is
    /// one less (one page per input run, one for output, in the classic
    /// accounting).
    pub buffer_pages: usize,
}

impl Default for SortOptions {
    fn default() -> Self {
        // 256 pages = 1 MiB of 4 KiB pages: small enough that the paper's
        // multi-megabyte relations genuinely spill, large enough for quick
        // tests to take the single-run fast path.
        SortOptions { buffer_pages: 256 }
    }
}

/// Total order used everywhere: key columns first, then the remaining
/// columns as a tiebreak, so equal rows are contiguous and output is
/// deterministic.
pub fn row_order(a: &[u32], b: &[u32], key: &[usize]) -> Ordering {
    cmp_on(a, b, key).then_with(|| cmp_all(a, b))
}

/// Sort a flat row-major buffer of `arity`-wide rows in place into
/// [`row_order`] on `key`.
///
/// A stable LSD radix sort over 16-bit digits. `row_order` compares the
/// key columns, then every other column in ascending position, so the
/// kernel runs one stable counting pass per digit of that column sequence,
/// least significant first; equal rows are identical, so the result is the
/// unique sorted permutation. Two kinds of pass are skipped:
///
/// * a digit that is constant across the input (item ids below 2^16 never
///   need their high digit);
/// * every pass of the longest suffix of the column sequence the input is
///   already sorted on — stable sorting on that suffix would leave it
///   unchanged. SETM's merge-scan emits `R'_k` in `(trans_id, items)`
///   order, so the items sort runs only the item passes; the filter emits
///   `R_k` in items order, so the closing `(trans_id, items)` sort runs
///   only the `trans_id` pass.
///
/// Uses one scratch buffer the size of `rows`; passes ping-pong between
/// the two by swapping the vectors.
pub fn sort_rows(rows: &mut Vec<u32>, arity: usize, key: &[usize]) {
    if arity == 0 {
        return;
    }
    // A partial trailing row would be lost to the scratch buffer's zeros.
    assert_eq!(rows.len() % arity, 0, "rows must hold whole {arity}-wide rows");
    debug_assert!(key.iter().all(|&c| c < arity), "key column out of range");
    if rows.len() / arity < 2 {
        return;
    }
    let cols = order_columns(arity, key);
    let unsorted = unsorted_prefix(rows, arity, &cols);
    let digits = varying_digits(rows, arity, &cols[..unsorted]);
    if digits.is_empty() {
        return;
    }
    let mut scratch = vec![0u32; rows.len()];
    let mut offsets: Vec<usize> = Vec::new();
    for digit in &digits {
        match arity {
            1 => radix_pass::<1>(rows, &mut scratch, arity, digit, &mut offsets),
            2 => radix_pass::<2>(rows, &mut scratch, arity, digit, &mut offsets),
            3 => radix_pass::<3>(rows, &mut scratch, arity, digit, &mut offsets),
            4 => radix_pass::<4>(rows, &mut scratch, arity, digit, &mut offsets),
            5 => radix_pass::<5>(rows, &mut scratch, arity, digit, &mut offsets),
            _ => radix_pass::<0>(rows, &mut scratch, arity, digit, &mut offsets),
        }
        std::mem::swap(rows, &mut scratch);
    }
}

/// The column sequence [`row_order`] compares: the key columns (each
/// once), then the other columns in ascending position.
fn order_columns(arity: usize, key: &[usize]) -> Vec<usize> {
    let mut cols: Vec<usize> = Vec::with_capacity(arity);
    for c in key.iter().copied().chain(0..arity) {
        if !cols.contains(&c) {
            cols.push(c);
        }
    }
    cols
}

/// One 16-bit digit of one column, with the smallest and largest value it
/// takes in the input (the histogram spans only that range).
struct Digit {
    col: usize,
    shift: u32,
    min: u32,
    max: u32,
}

impl Digit {
    #[inline]
    fn bucket(&self, row: &[u32]) -> usize {
        (((row[self.col] >> self.shift) & 0xFFFF) - self.min) as usize
    }
}

/// The number of leading columns of `cols` the radix passes must cover:
/// the input is already sorted on `cols[unsorted_prefix..]` (found by
/// trying the longest suffix first; a wrong guess usually fails within a
/// few rows).
fn unsorted_prefix(rows: &[u32], arity: usize, cols: &[usize]) -> usize {
    (0..cols.len())
        .find(|&j| {
            let suffix = &cols[j..];
            rows.chunks_exact(arity)
                .zip(rows.chunks_exact(arity).skip(1))
                .all(|(a, b)| cmp_on(a, b, suffix) != Ordering::Greater)
        })
        .unwrap_or(cols.len())
}

/// Every digit of `cols` that varies across the input, in LSD pass order:
/// last column first, low digit before high digit.
fn varying_digits(rows: &[u32], arity: usize, cols: &[usize]) -> Vec<Digit> {
    // Per column: [low min, low max, high min, high max].
    let mut bounds = vec![[u32::MAX, 0, u32::MAX, 0]; cols.len()];
    for row in rows.chunks_exact(arity) {
        for (b, &c) in bounds.iter_mut().zip(cols) {
            let (lo, hi) = (row[c] & 0xFFFF, row[c] >> 16);
            b[0] = b[0].min(lo);
            b[1] = b[1].max(lo);
            b[2] = b[2].min(hi);
            b[3] = b[3].max(hi);
        }
    }
    let mut digits = Vec::new();
    for (b, &col) in bounds.iter().zip(cols).rev() {
        for (shift, min, max) in [(0, b[0], b[1]), (16, b[2], b[3])] {
            if min < max {
                digits.push(Digit { col, shift, min, max });
            }
        }
    }
    digits
}

/// One stable counting-sort pass of `src` into `dst` on `digit`. `A` is
/// the row width when known at compile time, or 0 to use the runtime
/// `arity`. A known width lets each row copy inline instead of calling
/// `memcpy` (the gain is measured in Design notes §15).
fn radix_pass<const A: usize>(
    src: &[u32],
    dst: &mut [u32],
    arity: usize,
    digit: &Digit,
    offsets: &mut Vec<usize>,
) {
    let arity = if A == 0 { arity } else { A };
    offsets.clear();
    offsets.resize((digit.max - digit.min) as usize + 1, 0);
    for row in src.chunks_exact(arity) {
        offsets[digit.bucket(row)] += 1;
    }
    let mut start = 0usize;
    for slot in offsets.iter_mut() {
        let count = *slot;
        *slot = start;
        start += count;
    }
    for row in src.chunks_exact(arity) {
        let slot = &mut offsets[digit.bucket(row)];
        let at = *slot * arity;
        *slot += 1;
        dst[at..at + arity].copy_from_slice(row);
    }
}

/// Externally sort `input` on the given key columns, producing a new heap
/// file on the same pager. The input file is left intact (the caller frees
/// it when the paper's loop discards the unsorted relation).
pub fn external_sort(input: &HeapFile, key: &[usize], opts: SortOptions) -> Result<HeapFile> {
    let arity = input.arity();
    let pager = input.pager().clone();
    let buffer_pages = opts.buffer_pages.max(3);
    let run_values = buffer_pages * Page::capacity(arity) * arity;

    // Phase 1: run generation, a page at a time. A run is cut as soon as
    // it holds `buffer_pages` pages' worth of rows, before the next page
    // is read, as a row-at-a-time scan would cut it.
    let mut runs: Vec<HeapFile> = Vec::new();
    let mut chunk: Vec<u32> = Vec::with_capacity(run_values.min(1 << 20));
    for pno in 0..input.n_pages() {
        input.read_page_into(pno, &mut chunk)?;
        if chunk.len() >= run_values {
            let spill = chunk.split_off(run_values);
            runs.push(write_run(&pager, &mut chunk, arity, key)?);
            chunk.clear();
            chunk.extend_from_slice(&spill);
        }
    }
    if !chunk.is_empty() || runs.is_empty() {
        runs.push(write_run(&pager, &mut chunk, arity, key)?);
    }

    // Phase 2: (possibly multi-pass) k-way merge.
    let fan_in = (buffer_pages - 1).max(2);
    while runs.len() > 1 {
        let mut next_level: Vec<HeapFile> = Vec::with_capacity(runs.len().div_ceil(fan_in));
        for group in runs.chunks(fan_in) {
            next_level.push(merge_runs(&pager, group, key)?);
        }
        for run in runs {
            run.free()?;
        }
        runs = next_level;
    }
    Ok(runs.pop().expect("at least one run exists"))
}

/// Sort one in-memory chunk in place and write it out as a run.
fn write_run(
    pager: &crate::pager::SharedPager,
    chunk: &mut Vec<u32>,
    arity: usize,
    key: &[usize],
) -> Result<HeapFile> {
    sort_rows(chunk, arity, key);
    let mut b = HeapFileBuilder::new(pager.clone(), arity);
    b.extend_flat(chunk)?;
    b.finish()
}

/// The runs of one merge. Rows compare in [`row_order`]'s column
/// sequence: its first four columns (`packed`) packed into one `u128`,
/// kept per run for the current row in `keys` (`u128::MAX` once the run
/// is exhausted), then the `rest` one by one.
struct MergeRuns<'a> {
    packed: Vec<usize>,
    rest: Vec<usize>,
    cursors: Vec<HeapCursor<'a>>,
    keys: Vec<u128>,
    done: Vec<bool>,
}

impl<'a> MergeRuns<'a> {
    /// Open a cursor on every run and read each run's first row, in run
    /// order.
    fn new(runs: &'a [HeapFile], key: &[usize]) -> Result<Self> {
        let mut packed = order_columns(runs[0].arity(), key);
        let rest = packed.split_off(packed.len().min(4));
        let n = runs.len();
        let cursors = runs.iter().map(HeapFile::cursor).collect();
        let mut m = MergeRuns { packed, rest, cursors, keys: vec![0; n], done: vec![false; n] };
        for run in 0..n {
            m.advance(run)?;
        }
        Ok(m)
    }

    fn advance(&mut self, run: usize) -> Result<()> {
        let live = self.cursors[run].advance()?;
        self.keys[run] = if live {
            let row = self.cursors[run].row();
            self.packed.iter().fold(0, |acc, &c| (acc << 32) | u128::from(row[c]))
        } else {
            u128::MAX
        };
        self.done[run] = !live;
        Ok(())
    }

    /// Whether run `a`'s current row comes before run `b`'s: in
    /// [`row_order`], then the lower run first. An exhausted run comes
    /// after every live one (it packs as `u128::MAX`, so only a live row
    /// packing to the same value reaches that check).
    #[inline]
    fn precedes(&self, a: usize, b: usize) -> bool {
        let (ka, kb) = (self.keys[a], self.keys[b]);
        if ka != kb {
            return ka < kb;
        }
        if self.done[a] || self.done[b] {
            return self.done[b] && !self.done[a];
        }
        let rest = &self.rest;
        cmp_on(self.cursors[a].row(), self.cursors[b].row(), rest).then(a.cmp(&b)).is_lt()
    }
}

/// A loser tree over `n` runs: leaf `i` sits at node `n + i`, node `j`'s
/// children are `2j` and `2j + 1`, and each internal node keeps the loser
/// of the match played there. When the winner's run advances, one walk up
/// its path (about log2 n comparisons) finds the next winner.
struct LoserTree {
    losers: Vec<usize>,
    winner: usize,
}

impl LoserTree {
    fn new(n: usize, precedes: impl Fn(usize, usize) -> bool) -> Self {
        // The winner of every subtree: internal nodes 1..n (slot 0 unused),
        // then the leaves.
        let mut winners: Vec<usize> = (0..n).chain(0..n).collect();
        let mut losers = vec![0; n];
        for node in (1..n).rev() {
            let (l, r) = (winners[2 * node], winners[2 * node + 1]);
            let (w, lost) = if precedes(r, l) { (r, l) } else { (l, r) };
            winners[node] = w;
            losers[node] = lost;
        }
        LoserTree { losers, winner: winners[1] }
    }

    /// Replay the winner's path after its run advanced.
    fn replay(&mut self, precedes: impl Fn(usize, usize) -> bool) {
        let n = self.losers.len();
        let mut w = self.winner;
        let mut node = (w + n) / 2;
        while node > 0 {
            let l = self.losers[node];
            let swap = precedes(l, w);
            self.losers[node] = if swap { w } else { l };
            w = if swap { l } else { w };
            node /= 2;
        }
        self.winner = w;
    }
}

/// Merge sorted runs into one: push the least current row (ties to the
/// lower run), then advance that run. A run's cursor reads its next page
/// only once the last row of its current page has been pushed, so pages
/// are read and written in the one order a row-at-a-time merge gives, and
/// the page accounting (cache hits and pool steals included) does not
/// depend on how rows are compared.
fn merge_runs(
    pager: &crate::pager::SharedPager,
    runs: &[HeapFile],
    key: &[usize],
) -> Result<HeapFile> {
    let mut m = MergeRuns::new(runs, key)?;
    let mut out = HeapFileBuilder::new(pager.clone(), runs[0].arity());
    let mut tree = LoserTree::new(runs.len(), |a, b| m.precedes(a, b));
    while !m.done[tree.winner] {
        let run = tree.winner;
        out.push(m.cursors[run].row())?;
        m.advance(run)?;
        tree.replay(|a, b| m.precedes(a, b));
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;
    use crate::tuple::is_sorted_on;

    fn build(pager: &crate::pager::SharedPager, rows: &[Vec<u32>], arity: usize) -> HeapFile {
        HeapFile::from_rows(pager.clone(), arity, rows.iter().map(|r| r.as_slice())).unwrap()
    }

    #[test]
    fn sorts_single_page_input() {
        let pager = Pager::shared();
        let rows = vec![vec![3, 1], vec![1, 2], vec![2, 0], vec![1, 1]];
        let f = build(&pager, &rows, 2);
        let sorted = external_sort(&f, &[0, 1], SortOptions::default()).unwrap();
        assert_eq!(sorted.rows().unwrap(), vec![vec![1, 1], vec![1, 2], vec![2, 0], vec![3, 1]]);
    }

    #[test]
    fn sort_is_a_permutation_and_ordered_across_runs() {
        let pager = Pager::shared();
        // Force multiple runs: tiny buffer (3 pages) and > 3*511 rows.
        let n = 5000u32;
        let mut rows: Vec<Vec<u32>> =
            (0..n).map(|i| vec![i.wrapping_mul(2654435761) % 997, i]).collect();
        let f = build(&pager, &rows, 2);
        let sorted = external_sort(&f, &[0], SortOptions { buffer_pages: 3 }).unwrap();
        let mut got = sorted.rows().unwrap();
        assert_eq!(got.len(), n as usize);
        assert!(is_sorted_on(got.iter().map(|r| r.as_slice()), &[0]));
        // Permutation check: same multiset.
        rows.sort();
        got.sort();
        assert_eq!(rows, got);
    }

    #[test]
    fn multi_pass_merge_handles_many_runs() {
        let pager = Pager::shared();
        // buffer_pages=3 -> fan_in=2; 8 runs need 3 merge passes.
        let n = 13000u32;
        let rows: Vec<Vec<u32>> = (0..n).map(|i| vec![n - i]).collect();
        let f = build(&pager, &rows, 1);
        let sorted = external_sort(&f, &[0], SortOptions { buffer_pages: 3 }).unwrap();
        let got = sorted.rows().unwrap();
        assert_eq!(got.len(), n as usize);
        assert!(is_sorted_on(got.iter().map(|r| r.as_slice()), &[0]));
        assert_eq!(got[0], vec![1]);
        assert_eq!(got[n as usize - 1], vec![n]);
    }

    #[test]
    fn merge_keeps_live_rows_that_pack_like_an_exhausted_run() {
        // The merge packs four columns into a u128 and gives an exhausted
        // run u128::MAX; rows whose four packed columns are all u32::MAX
        // must still come out, in order, whichever runs finish first.
        let m = u32::MAX;
        for arity in [4usize, 5] {
            let pager = Pager::shared();
            let rows: Vec<Vec<u32>> = (0..3000u32)
                .map(|i| {
                    let mut r = vec![if i % 3 == 0 { i } else { m }; arity];
                    r[arity - 1] = if i % 3 == 0 { i } else { m - i % 7 };
                    r
                })
                .collect();
            let f = build(&pager, &rows, arity);
            let sorted = external_sort(&f, &[0], SortOptions { buffer_pages: 3 }).unwrap();
            let mut expect = rows.clone();
            expect.sort_by(|a, b| row_order(a, b, &[0]));
            assert_eq!(sorted.rows().unwrap(), expect, "arity {arity}");
        }
    }

    #[test]
    fn key_sort_breaks_ties_on_full_row() {
        let pager = Pager::shared();
        let rows = vec![vec![1, 9], vec![1, 3], vec![1, 7]];
        let f = build(&pager, &rows, 2);
        let sorted = external_sort(&f, &[0], SortOptions::default()).unwrap();
        // Key column ties broken by the remaining columns -> deterministic.
        assert_eq!(sorted.rows().unwrap(), vec![vec![1, 3], vec![1, 7], vec![1, 9]]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let pager = Pager::shared();
        let f = HeapFile::empty(pager, 2).unwrap();
        let sorted = external_sort(&f, &[0], SortOptions::default()).unwrap();
        assert_eq!(sorted.n_records(), 0);
    }

    #[test]
    fn in_memory_fast_path_costs_one_read_and_write_pass() {
        let pager = Pager::shared();
        let rows: Vec<Vec<u32>> = (0..511).rev().map(|i| vec![i]).collect();
        let f = build(&pager, &rows, 1);
        pager.lock().reset_stats();
        let sorted = external_sort(&f, &[0], SortOptions::default()).unwrap();
        let s = pager.lock().stats();
        // One page in, one page out: the 2*||R|| accounting of Section 4.3.
        assert_eq!(s.reads(), 1);
        assert_eq!(s.writes(), 1);
        assert_eq!(sorted.n_records(), 511);
    }

    #[test]
    fn sort_rows_orders_key_then_remaining_columns() {
        let mut flat = vec![5, 1, 2, 9, 5, 0, 2, 2];
        sort_rows(&mut flat, 2, &[0]);
        assert_eq!(flat, vec![2, 2, 2, 9, 5, 0, 5, 1]);
    }
}
