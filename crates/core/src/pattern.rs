//! In-memory forms of the paper's `R_k` and `C_k` relations.
//!
//! `R_k(trans_id, item_1, .., item_k)` holds one tuple per (transaction,
//! supported k-pattern) pair; `C_k(item_1, .., item_k, count)` holds the
//! supported patterns and their support counts. `R_k` is stored row-major
//! in one flat `u32` buffer, `[tid, item_1, .., item_k]` per tuple — the
//! row layout of the engine's `R_k` heap files — so each of Figure 4's
//! two sorts is one call of the radix kernel
//! [`setm_relational::sort::sort_rows`]. `C_k` is a flat `k`-wide pattern
//! buffer beside a counts column. Sorting and scanning allocate nothing
//! per tuple.

use crate::data::{Item, TransId};
use crate::itemvec::ItemVec;
use setm_relational::sort::sort_rows;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::ops::Range;

/// The `R_k` relation: `(trans_id, item_1, .., item_k)` tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternRelation {
    k: usize,
    /// Flat row-major tuples: row `i` is `rows[i*(k+1) .. (i+1)*(k+1)]`,
    /// laid out `[tid, item_1, .., item_k]`.
    rows: Vec<u32>,
}

impl PatternRelation {
    /// An empty relation of pattern length `k`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        PatternRelation { k, rows: Vec::new() }
    }

    /// An empty relation with row capacity reserved.
    pub fn with_capacity(k: usize, rows: usize) -> Self {
        let mut r = Self::new(k);
        r.rows.reserve(rows * (k + 1));
        r
    }

    /// Pattern length `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of tuples — the paper's `|R_k|`.
    pub fn n_tuples(&self) -> usize {
        self.rows.len() / (self.k + 1)
    }

    /// Whether the relation is empty (the loop-termination test of
    /// Figure 4: "until R_k = {}").
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Tuple width in bytes — Section 4.3: "(i + 1) × 4 bytes".
    pub fn tuple_bytes(&self) -> usize {
        (self.k + 1) * 4
    }

    /// Total data bytes (the quantity Figure 5 plots, in Kbytes).
    pub fn data_bytes(&self) -> u64 {
        self.n_tuples() as u64 * self.tuple_bytes() as u64
    }

    /// Size in Kbytes as plotted by Figure 5.
    pub fn kbytes(&self) -> f64 {
        self.data_bytes() as f64 / 1024.0
    }

    /// Append a tuple.
    pub fn push(&mut self, tid: TransId, items: &[Item]) {
        debug_assert_eq!(items.len(), self.k);
        self.rows.push(tid);
        self.rows.extend_from_slice(items);
    }

    /// Append the tuples `rows` of `other`, in its order.
    pub(crate) fn extend_from(&mut self, other: &PatternRelation, rows: Range<usize>) {
        debug_assert_eq!(other.k, self.k);
        let w = self.k + 1;
        self.rows.extend_from_slice(&other.rows[rows.start * w..rows.end * w]);
    }

    /// The tuple at `row`.
    pub fn row(&self, row: usize) -> (TransId, &[Item]) {
        let w = self.k + 1;
        let r = &self.rows[row * w..(row + 1) * w];
        (r[0], &r[1..])
    }

    /// Iterate `(tid, items)` tuples in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (TransId, &[Item])> + '_ {
        self.rows.chunks_exact(self.k + 1).map(|r| (r[0], &r[1..]))
    }

    /// Sort tuples by `(trans_id, item_1, .., item_k)` — the order required
    /// before the merge-scan join (Figure 4, first sort of the loop body).
    pub fn sort_by_tid_items(&mut self) {
        let key: Vec<usize> = (0..=self.k).collect();
        sort_rows(&mut self.rows, self.k + 1, &key);
    }

    /// Sort tuples by `(item_1, .., item_k)` (ties broken by tid for
    /// determinism) — the order required before counting (Figure 4, second
    /// sort of the loop body).
    pub fn sort_by_items(&mut self) {
        let key: Vec<usize> = (1..=self.k).collect();
        sort_rows(&mut self.rows, self.k + 1, &key);
    }

    /// Whether tuples are sorted by `(tid, items)`.
    pub fn is_sorted_by_tid_items(&self) -> bool {
        self.rows
            .chunks_exact(self.k + 1)
            .zip(self.rows.chunks_exact(self.k + 1).skip(1))
            .all(|(a, b)| a <= b)
    }

    /// Rows as flat `u32` records `[tid, item_1, .., item_k]` for loading
    /// into the paged engine.
    pub fn to_engine_rows(&self) -> Vec<Vec<u32>> {
        self.rows.chunks_exact(self.k + 1).map(<[u32]>::to_vec).collect()
    }
}

/// The `C_k` relation: supported patterns with their counts, sorted by
/// pattern. Lookup is by binary search, so no per-pattern allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountRelation {
    k: usize,
    /// Flat row-major patterns, sorted lexicographically.
    items: Vec<Item>,
    counts: Vec<u64>,
}

impl CountRelation {
    /// An empty count relation for pattern length `k`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        CountRelation { k, items: Vec::new(), counts: Vec::new() }
    }

    /// A relation of pattern length `k` from its patterns laid end to end
    /// in `items`, in strictly increasing lexicographic order, and one
    /// count per pattern: what [`Self::push`] builds one pattern at a
    /// time.
    pub fn from_sorted(k: usize, items: Vec<Item>, counts: Vec<u64>) -> Self {
        assert!(k >= 1 && items.len() == k * counts.len(), "one pattern of k items per count");
        debug_assert!(items.chunks_exact(k).is_sorted_by(|a, b| a < b), "patterns out of order");
        CountRelation { k, items, counts }
    }

    /// Build from `(pattern, count)` pairs; patterns must arrive in
    /// strictly increasing lexicographic order (as produced by counting a
    /// sorted `R'_k`).
    pub fn push(&mut self, pattern: &[Item], count: u64) {
        debug_assert_eq!(pattern.len(), self.k);
        if let Some(last) = self.items.chunks_exact(self.k).next_back() {
            debug_assert!(last < pattern, "patterns must be pushed in increasing order");
        }
        self.items.extend_from_slice(pattern);
        self.counts.push(count);
    }

    /// Pattern length `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of patterns — the paper's `|C_k|` (Figure 6).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether there are no supported patterns.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterate `(pattern, count)` in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (&[Item], u64)> + '_ {
        self.items.chunks_exact(self.k).zip(self.counts.iter().copied())
    }

    /// Support count of an exact pattern, if supported.
    pub fn get(&self, pattern: &[Item]) -> Option<u64> {
        self.position(pattern).map(|i| self.counts[i])
    }

    /// Index of an exact pattern, if supported.
    pub(crate) fn position(&self, pattern: &[Item]) -> Option<usize> {
        if pattern.len() != self.k {
            return None;
        }
        let n = self.len();
        let idx = partition_point(n, |i| self.pattern_at(i) < pattern);
        (idx < n && self.pattern_at(idx) == pattern).then_some(idx)
    }

    /// Whether a pattern is supported.
    pub fn contains(&self, pattern: &[Item]) -> bool {
        self.get(pattern).is_some()
    }

    /// The pattern at index `i`.
    #[inline]
    pub fn pattern_at(&self, i: usize) -> &[Item] {
        &self.items[i * self.k..(i + 1) * self.k]
    }

    /// The count at index `i`.
    #[inline]
    pub fn count_at(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Patterns as `ItemVec`s with counts (convenience for reporting).
    pub fn to_vec(&self) -> Vec<(ItemVec, u64)> {
        self.iter().map(|(p, c)| (ItemVec::from_slice(p), c)).collect()
    }

    /// K-way merge of pattern-sorted count relations: counts of equal
    /// patterns are summed, and only patterns whose total meets
    /// `min_count` are kept. This is how the sharded parallel execution
    /// turns per-shard local counts into the global `C_k` — a pattern's
    /// supporting transactions are spread across `trans_id` shards, so
    /// only the summed count may be compared against the support
    /// threshold.
    ///
    /// A run of patterns that only one part holds — below every other
    /// part's next pattern — is found by galloping and copied in bulk, so
    /// merging a small relation into a large one (the incremental
    /// frontier's shape) costs the large side a memory copy, not a
    /// comparison per pattern. Empty parts are skipped, and two parts
    /// merge in a loop that compares only their two heads.
    ///
    /// Parts are taken by value or by reference, so a caller merging into
    /// a stored relation need not clone it first.
    pub fn merge_sum_filter<P: Borrow<CountRelation>>(
        parts: &[P],
        min_count: u64,
    ) -> CountRelation {
        let k = parts.first().map_or(1, |c| c.borrow().k);
        let parts: Vec<&CountRelation> =
            parts.iter().map(Borrow::borrow).filter(|c| !c.is_empty()).collect();
        debug_assert!(parts.iter().all(|c| c.k == k), "mixed pattern lengths");
        let mut out = CountRelation::new(k);
        if min_count <= 1 {
            // Nearly everything survives; a thresholded merge keeps a
            // small fraction and must not reserve for all of it.
            let total: usize = parts.iter().map(|c| c.len()).sum();
            out.items.reserve(total * k);
            out.counts.reserve(total);
        }
        if let [a, b] = parts[..] {
            out.merge_two(a, b, min_count);
            return out;
        }
        let mut idx = vec![0usize; parts.len()];
        let head = |p: usize, idx: &[usize]| parts[p].pattern_at(idx[p]);
        loop {
            // The part with the smallest next pattern, and among the others
            // the one with the smallest (linear scan: parts are few).
            let (mut first, mut second): (Option<usize>, Option<usize>) = (None, None);
            for p in (0..parts.len()).filter(|&p| idx[p] < parts[p].len()) {
                match first {
                    Some(f) if head(p, &idx) >= head(f, &idx) => {
                        if second.is_none_or(|s| head(p, &idx) < head(s, &idx)) {
                            second = Some(p);
                        }
                    }
                    _ => {
                        second = first;
                        first = Some(p);
                    }
                }
            }
            let Some(f) = first else { break };
            let Some(s) = second else {
                out.extend_filtered(parts[f], idx[f]..parts[f].len(), min_count);
                break;
            };
            if head(f, &idx) < head(s, &idx) {
                let end = parts[f].gallop(idx[f], head(s, &idx));
                out.extend_filtered(parts[f], idx[f]..end, min_count);
                idx[f] = end;
            } else {
                let pattern = head(f, &idx);
                let mut total = 0u64;
                for (p, c) in parts.iter().enumerate() {
                    if idx[p] < c.len() && c.pattern_at(idx[p]) == pattern {
                        total += c.counts[idx[p]];
                        idx[p] += 1;
                    }
                }
                if total >= min_count {
                    out.items.extend_from_slice(pattern);
                    out.counts.push(total);
                }
            }
        }
        out
    }

    /// [`Self::merge_sum_filter`] of exactly two parts.
    fn merge_two(&mut self, a: &CountRelation, b: &CountRelation, min_count: u64) {
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            let (pa, pb) = (a.pattern_at(i), b.pattern_at(j));
            match pa.cmp(pb) {
                Ordering::Less => {
                    let end = a.gallop(i, pb);
                    self.extend_filtered(a, i..end, min_count);
                    i = end;
                }
                Ordering::Greater => {
                    let end = b.gallop(j, pa);
                    self.extend_filtered(b, j..end, min_count);
                    j = end;
                }
                Ordering::Equal => {
                    let total = a.counts[i] + b.counts[j];
                    if total >= min_count {
                        self.items.extend_from_slice(pa);
                        self.counts.push(total);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        self.extend_filtered(a, i..a.len(), min_count);
        self.extend_filtered(b, j..b.len(), min_count);
    }

    /// First index after `from` whose pattern is not below `bound`, given
    /// that the pattern at `from` is: exponential probes, then a binary
    /// search inside the last gap.
    fn gallop(&self, from: usize, bound: &[Item]) -> usize {
        let n = self.len();
        let (mut lo, mut step) = (from + 1, 1usize);
        while lo + step <= n && self.pattern_at(lo + step - 1) < bound {
            lo += step;
            step *= 2;
        }
        let hi = (lo + step).min(n);
        lo + partition_point(hi - lo, |i| self.pattern_at(lo + i) < bound)
    }

    /// Append the patterns of `from[range]` whose count meets `min_count`,
    /// in one copy when they all do.
    fn extend_filtered(&mut self, from: &CountRelation, range: Range<usize>, min_count: u64) {
        let k = self.k;
        let counts = &from.counts[range.clone()];
        if counts.iter().all(|&c| c >= min_count) {
            self.items.extend_from_slice(&from.items[range.start * k..range.end * k]);
            self.counts.extend_from_slice(counts);
        } else {
            for i in range.filter(|&i| from.counts[i] >= min_count) {
                self.items.extend_from_slice(from.pattern_at(i));
                self.counts.push(from.counts[i]);
            }
        }
    }

    /// Rows as flat `u32` records `[item_1, .., item_k, count]` for the
    /// paged engine (counts clamp to `u32::MAX`, far above any real count).
    pub fn to_engine_rows(&self) -> Vec<Vec<u32>> {
        self.iter()
            .map(|(p, c)| {
                let mut row = Vec::with_capacity(self.k + 1);
                row.extend_from_slice(p);
                row.push(u32::try_from(c).unwrap_or(u32::MAX));
                row
            })
            .collect()
    }
}

fn partition_point<F: FnMut(usize) -> bool>(n: usize, mut pred: F) -> usize {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_relation_round_trip() {
        let mut r = PatternRelation::new(2);
        r.push(10, &[1, 2]);
        r.push(20, &[1, 3]);
        assert_eq!(r.n_tuples(), 2);
        assert_eq!(r.row(1), (20, [1u32, 3].as_slice()));
        let rows: Vec<_> = r.iter().map(|(t, i)| (t, i.to_vec())).collect();
        assert_eq!(rows, vec![(10, vec![1, 2]), (20, vec![1, 3])]);
    }

    #[test]
    fn tuple_bytes_match_paper() {
        // Section 4.3: R_i tuples are (i+1) x 4 bytes.
        assert_eq!(PatternRelation::new(1).tuple_bytes(), 8);
        assert_eq!(PatternRelation::new(2).tuple_bytes(), 12);
        assert_eq!(PatternRelation::new(3).tuple_bytes(), 16);
        let mut r = PatternRelation::new(2);
        r.push(1, &[2, 3]);
        r.push(2, &[4, 5]);
        assert_eq!(r.data_bytes(), 24);
        assert!((r.kbytes() - 24.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn sort_by_tid_then_items() {
        let mut r = PatternRelation::new(2);
        r.push(20, &[1, 2]);
        r.push(10, &[5, 6]);
        r.push(10, &[1, 9]);
        r.sort_by_tid_items();
        let rows: Vec<_> = r.iter().map(|(t, i)| (t, i.to_vec())).collect();
        assert_eq!(rows, vec![(10, vec![1, 9]), (10, vec![5, 6]), (20, vec![1, 2])]);
        assert!(r.is_sorted_by_tid_items());
    }

    #[test]
    fn sort_by_items_groups_patterns() {
        let mut r = PatternRelation::new(2);
        r.push(30, &[1, 2]);
        r.push(10, &[1, 2]);
        r.push(20, &[0, 9]);
        r.sort_by_items();
        let rows: Vec<_> = r.iter().map(|(t, i)| (t, i.to_vec())).collect();
        assert_eq!(rows, vec![(20, vec![0, 9]), (10, vec![1, 2]), (30, vec![1, 2])]);
    }

    #[test]
    fn count_relation_lookup() {
        let mut c = CountRelation::new(2);
        c.push(&[1, 2], 3);
        c.push(&[1, 3], 5);
        c.push(&[4, 6], 7);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(&[1, 3]), Some(5));
        assert_eq!(c.get(&[1, 4]), None);
        assert_eq!(c.get(&[1]), None, "wrong arity misses");
        assert!(c.contains(&[4, 6]));
        assert_eq!(c.pattern_at(2), &[4, 6]);
        assert_eq!(c.count_at(0), 3);
    }

    #[test]
    fn count_relation_iterates_in_order() {
        let mut c = CountRelation::new(1);
        c.push(&[2], 10);
        c.push(&[5], 20);
        let got: Vec<_> = c.iter().map(|(p, n)| (p.to_vec(), n)).collect();
        assert_eq!(got, vec![(vec![2], 10), (vec![5], 20)]);
    }

    #[test]
    fn engine_row_conversion() {
        let mut r = PatternRelation::new(2);
        r.push(10, &[1, 2]);
        assert_eq!(r.to_engine_rows(), vec![vec![10, 1, 2]]);
        let mut c = CountRelation::new(2);
        c.push(&[1, 2], 3);
        assert_eq!(c.to_engine_rows(), vec![vec![1, 2, 3]]);
    }

    #[test]
    fn merge_sum_filter_sums_across_parts_and_filters() {
        let mut a = CountRelation::new(2);
        a.push(&[1, 2], 2);
        a.push(&[1, 3], 1);
        a.push(&[4, 5], 1);
        let mut b = CountRelation::new(2);
        b.push(&[1, 2], 1);
        b.push(&[2, 9], 3);
        let merged = CountRelation::merge_sum_filter(&[a, b], 3);
        // {1,2}: 2+1 = 3 kept; {2,9}: 3 kept; {1,3} and {4,5} filtered.
        assert_eq!(merged.to_vec(), vec![(ItemVec::from([1, 2]), 3), (ItemVec::from([2, 9]), 3),]);
    }

    #[test]
    fn merge_sum_filter_single_part_is_a_plain_filter() {
        let mut a = CountRelation::new(1);
        a.push(&[3], 5);
        a.push(&[7], 1);
        let merged = CountRelation::merge_sum_filter(std::slice::from_ref(&a), 2);
        assert_eq!(merged.to_vec(), vec![(ItemVec::from([3]), 5)]);
    }

    #[test]
    fn merge_sum_filter_empty_inputs() {
        assert!(CountRelation::merge_sum_filter::<CountRelation>(&[], 1).is_empty());
        let parts = vec![CountRelation::new(2), CountRelation::new(2)];
        assert!(CountRelation::merge_sum_filter(&parts, 1).is_empty());
    }

    #[test]
    fn empty_relations() {
        let r = PatternRelation::new(3);
        assert!(r.is_empty());
        assert_eq!(r.data_bytes(), 0);
        let c = CountRelation::new(3);
        assert!(c.is_empty());
        assert_eq!(c.get(&[1, 2, 3]), None);
    }
}
