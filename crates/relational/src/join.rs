//! Join operators.
//!
//! * [`merge_scan_join`] — the paper's second primitive ("merge-scan
//!   join"): both inputs sorted on the join key, a single interleaved
//!   sequential pass over each.
//! * [`index_nested_loop_join`] — the Section 3 strategy: probe a B+-tree
//!   once per outer row (the access pattern whose random-I/O cost the
//!   paper's analysis condemns).
//!
//! Both operators materialize their output as a new heap file, matching
//! the paper's fully-materialized `R'_k` relations.

use crate::btree::BTree;
use crate::errors::Result;
use crate::heap::{HeapCursor, HeapFile, HeapFileBuilder};
use std::cmp::Ordering;

/// Reads a sorted cursor group-by-group on a key-column prefix.
struct GroupReader<'a> {
    cursor: HeapCursor<'a>,
    key_cols: &'a [usize],
    /// One-row lookahead that belongs to the *next* group (reused buffer;
    /// valid only when `has_pending`).
    pending: Vec<u32>,
    has_pending: bool,
}

/// A reusable group buffer: the key and the flat row-major group rows.
/// One pair of these lives for the whole join — the hot loop performs no
/// per-group allocation.
struct Group {
    key: Vec<u32>,
    rows: Vec<u32>,
    arity: usize,
}

impl Group {
    fn new(arity: usize) -> Self {
        Group { key: Vec::new(), rows: Vec::new(), arity }
    }

    fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.rows.chunks_exact(self.arity)
    }
}

impl<'a> GroupReader<'a> {
    fn new(file: &'a HeapFile, key_cols: &'a [usize]) -> Self {
        GroupReader { cursor: file.cursor(), key_cols, pending: Vec::new(), has_pending: false }
    }

    /// Fill `group` with the next group's key and rows; returns `false`
    /// at end of input. Buffers are cleared and reused, never reallocated
    /// once warm.
    fn next_group_into(&mut self, group: &mut Group) -> Result<bool> {
        group.key.clear();
        group.rows.clear();
        if self.has_pending {
            group.rows.extend_from_slice(&self.pending);
            self.has_pending = false;
        } else {
            match self.cursor.next_row()? {
                Some(r) => group.rows.extend_from_slice(r),
                None => return Ok(false),
            }
        }
        group.key.extend(self.key_cols.iter().map(|&c| group.rows[c]));
        loop {
            match self.cursor.next_row()? {
                None => break,
                Some(r) => {
                    let same = self.key_cols.iter().enumerate().all(|(i, &c)| r[c] == group.key[i]);
                    if same {
                        group.rows.extend_from_slice(r);
                    } else {
                        self.pending.clear();
                        self.pending.extend_from_slice(r);
                        self.has_pending = true;
                        break;
                    }
                }
            }
        }
        Ok(true)
    }
}

/// Merge-scan join of two heap files sorted on their respective key
/// columns. For each pair of matching groups, every left×right row pair
/// that passes `residual` is passed to `project`, which appends the output
/// row (of `out_arity` columns) into the provided buffer.
pub fn merge_scan_join<Fr, Fp>(
    left: &HeapFile,
    right: &HeapFile,
    left_key: &[usize],
    right_key: &[usize],
    out_arity: usize,
    mut residual: Fr,
    mut project: Fp,
) -> Result<HeapFile>
where
    Fr: FnMut(&[u32], &[u32]) -> bool,
    Fp: FnMut(&[u32], &[u32], &mut Vec<u32>),
{
    assert_eq!(left_key.len(), right_key.len(), "join keys must have equal arity");
    let pager = left.pager().clone();
    let mut out = HeapFileBuilder::new(pager, out_arity);
    let mut lr = GroupReader::new(left, left_key);
    let mut rr = GroupReader::new(right, right_key);

    // All scratch space for the scan: two group buffers and one output
    // row, reused for the entire join.
    let mut lg = Group::new(left.arity());
    let mut rg = Group::new(right.arity());
    let mut buf: Vec<u32> = Vec::with_capacity(out_arity);
    let mut has_l = lr.next_group_into(&mut lg)?;
    let mut has_r = rr.next_group_into(&mut rg)?;
    while has_l && has_r {
        match lg.key.cmp(&rg.key) {
            Ordering::Less => has_l = lr.next_group_into(&mut lg)?,
            Ordering::Greater => has_r = rr.next_group_into(&mut rg)?,
            Ordering::Equal => {
                for lrow in lg.iter() {
                    for rrow in rg.iter() {
                        if residual(lrow, rrow) {
                            buf.clear();
                            project(lrow, rrow, &mut buf);
                            debug_assert_eq!(buf.len(), out_arity);
                            out.push(&buf)?;
                        }
                    }
                }
                has_l = lr.next_group_into(&mut lg)?;
                has_r = rr.next_group_into(&mut rg)?;
            }
        }
    }
    out.finish()
}

/// Index nested-loop join: for every outer row, probe the B+-tree with the
/// key formed from `probe_cols` of the outer row; matching index keys that
/// pass `residual` are projected into the output.
pub fn index_nested_loop_join<Fr, Fp>(
    outer: &HeapFile,
    index: &BTree,
    probe_cols: &[usize],
    out_arity: usize,
    mut residual: Fr,
    mut project: Fp,
) -> Result<HeapFile>
where
    Fr: FnMut(&[u32], &[u32]) -> bool,
    Fp: FnMut(&[u32], &[u32], &mut Vec<u32>),
{
    assert!(probe_cols.len() <= index.key_arity());
    let pager = outer.pager().clone();
    let mut out = HeapFileBuilder::new(pager, out_arity);
    let mut cursor = outer.cursor();
    let mut probe = vec![0u32; probe_cols.len()];
    let mut buf: Vec<u32> = Vec::with_capacity(out_arity);
    let mut pending: Result<()> = Ok(());
    while let Some(orow) = cursor.next_row()? {
        for (i, &c) in probe_cols.iter().enumerate() {
            probe[i] = orow[c];
        }
        index.scan_prefix(&probe, |ikey| {
            if residual(orow, ikey) {
                buf.clear();
                project(orow, ikey, &mut buf);
                debug_assert_eq!(buf.len(), out_arity);
                if let Err(e) = out.push(&buf) {
                    pending = Err(e);
                }
            }
        })?;
        pending.clone()?;
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btree::BulkLoader;
    use crate::pager::Pager;

    fn hf(pager: &crate::pager::SharedPager, rows: &[Vec<u32>], arity: usize) -> HeapFile {
        HeapFile::from_rows(pager.clone(), arity, rows.iter().map(|r| r.as_slice())).unwrap()
    }

    #[test]
    fn merge_join_matches_equal_groups() {
        let pager = Pager::shared();
        // left(tid, x) sorted on tid; right(tid, y) sorted on tid.
        let left = hf(&pager, &[vec![1, 10], vec![2, 20], vec![2, 21], vec![4, 40]], 2);
        let right = hf(&pager, &[vec![2, 200], vec![3, 300], vec![4, 400], vec![4, 401]], 2);
        let out = merge_scan_join(
            &left,
            &right,
            &[0],
            &[0],
            3,
            |_, _| true,
            |l, r, b| {
                b.extend_from_slice(&[l[0], l[1], r[1]]);
            },
        )
        .unwrap();
        assert_eq!(
            out.rows().unwrap(),
            vec![vec![2, 20, 200], vec![2, 21, 200], vec![4, 40, 400], vec![4, 40, 401]]
        );
    }

    #[test]
    fn merge_join_residual_filters_pairs() {
        let pager = Pager::shared();
        // The SETM extension join: q.item > p.item within a transaction.
        let left = hf(&pager, &[vec![1, 2], vec![1, 5]], 2);
        let right = hf(&pager, &[vec![1, 2], vec![1, 5], vec![1, 7]], 2);
        let out = merge_scan_join(
            &left,
            &right,
            &[0],
            &[0],
            3,
            |l, r| r[1] > l[1],
            |l, r, b| {
                b.extend_from_slice(&[l[0], l[1], r[1]]);
            },
        )
        .unwrap();
        assert_eq!(out.rows().unwrap(), vec![vec![1, 2, 5], vec![1, 2, 7], vec![1, 5, 7]]);
    }

    #[test]
    fn merge_join_empty_sides() {
        let pager = Pager::shared();
        let left = hf(&pager, &[vec![1, 1]], 2);
        let empty = HeapFile::empty(pager.clone(), 2).unwrap();
        let out = merge_scan_join(
            &left,
            &empty,
            &[0],
            &[0],
            2,
            |_, _| true,
            |l, _, b| {
                b.extend_from_slice(l);
            },
        )
        .unwrap();
        assert_eq!(out.n_records(), 0);
        let out = merge_scan_join(
            &empty,
            &left,
            &[0],
            &[0],
            2,
            |_, _| true,
            |l, _, b| {
                b.extend_from_slice(l);
            },
        )
        .unwrap();
        assert_eq!(out.n_records(), 0);
    }

    #[test]
    fn merge_join_cross_product_within_group() {
        let pager = Pager::shared();
        let left = hf(&pager, &[vec![7, 1], vec![7, 2], vec![7, 3]], 2);
        let right = hf(&pager, &[vec![7, 10], vec![7, 20]], 2);
        let out = merge_scan_join(
            &left,
            &right,
            &[0],
            &[0],
            2,
            |_, _| true,
            |l, r, b| {
                b.extend_from_slice(&[l[1], r[1]]);
            },
        )
        .unwrap();
        assert_eq!(out.n_records(), 6);
    }

    #[test]
    fn index_nested_loop_equals_merge_join() {
        let pager = Pager::shared();
        let mut left_rows = Vec::new();
        let mut right_rows = Vec::new();
        for tid in 0..50u32 {
            for j in 0..(tid % 4) {
                left_rows.push(vec![tid, j]);
                right_rows.push(vec![tid, 100 + j]);
            }
        }
        let left = hf(&pager, &left_rows, 2);
        let right = hf(&pager, &right_rows, 2);
        let merged = merge_scan_join(
            &left,
            &right,
            &[0],
            &[0],
            3,
            |_, _| true,
            |l, r, b| {
                b.extend_from_slice(&[l[0], l[1], r[1]]);
            },
        )
        .unwrap();

        // Same join via an index on right(tid, y).
        let mut loader = BulkLoader::new(pager.clone(), 2);
        for r in &right_rows {
            loader.push(r).unwrap();
        }
        let idx = loader.finish().unwrap();
        let indexed = index_nested_loop_join(
            &left,
            &idx,
            &[0],
            3,
            |_, _| true,
            |l, k, b| {
                b.extend_from_slice(&[l[0], l[1], k[1]]);
            },
        )
        .unwrap();

        let mut a = merged.rows().unwrap();
        let mut b = indexed.rows().unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn index_join_charges_random_io_merge_join_sequential() {
        // The heart of the paper's Section 3 vs Section 4 argument.
        let pager = Pager::shared();
        let n = 4000u32;
        let rows: Vec<Vec<u32>> = (0..n).map(|i| vec![i, i]).collect();
        let left = hf(&pager, &rows, 2);
        let right = hf(&pager, &rows, 2);
        let mut loader = BulkLoader::new(pager.clone(), 2);
        for r in &rows {
            loader.push(r).unwrap();
        }
        let mut idx = loader.finish().unwrap();
        idx.cache_internal_nodes().unwrap();

        pager.lock().reset_stats();
        merge_scan_join(
            &left,
            &right,
            &[0],
            &[0],
            2,
            |_, _| true,
            |l, _, b| {
                b.extend_from_slice(l);
            },
        )
        .unwrap();
        let merge_stats = pager.lock().stats();

        pager.lock().reset_stats();
        index_nested_loop_join(
            &left,
            &idx,
            &[0],
            2,
            |_, _| true,
            |l, _, b| {
                b.extend_from_slice(l);
            },
        )
        .unwrap();
        let index_stats = pager.lock().stats();

        assert!(
            merge_stats.rand_reads < index_stats.rand_reads,
            "merge join should be mostly sequential: merge={merge_stats:?} index={index_stats:?}"
        );
    }
}
