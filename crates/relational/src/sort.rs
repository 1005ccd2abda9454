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

use crate::errors::Result;
use crate::heap::{HeapFile, HeapFileBuilder};
use crate::page::Page;
use crate::tuple::{cmp_all, cmp_on};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
    // The column sequence `row_order` compares: key first, then the rest.
    let mut cols: Vec<usize> = Vec::with_capacity(arity);
    for c in key.iter().copied().chain(0..arity) {
        if !cols.contains(&c) {
            cols.push(c);
        }
    }
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

struct MergeEntry {
    key: Vec<u32>,
    row: Vec<u32>,
    run: usize,
}

impl PartialEq for MergeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for MergeEntry {}
impl PartialOrd for MergeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeEntry {
    // Reversed: BinaryHeap is a max-heap, we need the minimum row first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .cmp(&self.key)
            .then_with(|| other.row.cmp(&self.row))
            .then_with(|| other.run.cmp(&self.run))
    }
}

fn extract_key(row: &[u32], key: &[usize], out: &mut Vec<u32>) {
    out.clear();
    out.extend(key.iter().map(|&k| row[k]));
}

/// Externally sort `input` on the given key columns, producing a new heap
/// file on the same pager. The input file is left intact (the caller frees
/// it when the paper's loop discards the unsorted relation).
pub fn external_sort(input: &HeapFile, key: &[usize], opts: SortOptions) -> Result<HeapFile> {
    let arity = input.arity();
    let pager = input.pager().clone();
    let buffer_pages = opts.buffer_pages.max(3);
    let rows_per_run = buffer_pages * Page::capacity(arity);

    // Phase 1: run generation.
    let mut runs: Vec<HeapFile> = Vec::new();
    let mut chunk: Vec<u32> = Vec::with_capacity(rows_per_run.min(1 << 20) * arity);
    let mut cursor = input.cursor();
    loop {
        let row = cursor.next_row()?;
        match row {
            Some(r) => {
                chunk.extend_from_slice(r);
                if chunk.len() / arity >= rows_per_run {
                    runs.push(write_run(&pager, &mut chunk, arity, key)?);
                    chunk.clear();
                }
            }
            None => break,
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
    for row in chunk.chunks_exact(arity) {
        b.push(row)?;
    }
    b.finish()
}

fn merge_runs(
    pager: &crate::pager::SharedPager,
    runs: &[HeapFile],
    key: &[usize],
) -> Result<HeapFile> {
    let arity = runs[0].arity();
    let mut cursors: Vec<_> = runs.iter().map(|r| r.cursor()).collect();
    let mut heap: BinaryHeap<MergeEntry> = BinaryHeap::with_capacity(cursors.len());
    for (i, cur) in cursors.iter_mut().enumerate() {
        if let Some(row) = cur.next_row()? {
            let mut k = Vec::with_capacity(key.len());
            extract_key(row, key, &mut k);
            heap.push(MergeEntry { key: k, row: row.to_vec(), run: i });
        }
    }
    let mut out = HeapFileBuilder::new(pager.clone(), arity);
    while let Some(mut entry) = heap.pop() {
        out.push(&entry.row)?;
        if let Some(row) = cursors[entry.run].next_row()? {
            entry.row.clear();
            entry.row.extend_from_slice(row);
            extract_key(&entry.row, key, &mut entry.key);
            heap.push(entry);
        }
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
