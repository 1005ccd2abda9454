//! Sort-based grouped counting.
//!
//! Implements the paper's
//! `SELECT item_1, .., item_k, COUNT(*) … GROUP BY … HAVING COUNT(*) >= :minsupport`
//! step: "Generating the counts involves a simple sequential scan over
//! R'_k" (Section 4.4). The input must already be sorted on the group
//! columns (SETM sorts `R'_k` on its item columns immediately before).

use crate::errors::Result;
use crate::heap::{HeapFile, HeapFileBuilder};

/// Count consecutive groups of `input` (sorted on `group_cols`), keeping
/// groups with count `>= min_count`. Output rows are the group columns
/// followed by the count.
pub fn grouped_count(input: &HeapFile, group_cols: &[usize], min_count: u64) -> Result<HeapFile> {
    let pager = input.pager().clone();
    let out_arity = group_cols.len() + 1;
    let mut out = HeapFileBuilder::new(pager, out_arity);
    let mut cursor = input.cursor();

    let mut current: Vec<u32> = Vec::with_capacity(group_cols.len());
    let mut count: u64 = 0;
    let mut row_buf: Vec<u32> = Vec::with_capacity(out_arity);

    let mut flush = |key: &[u32], count: u64, out: &mut HeapFileBuilder| -> Result<()> {
        if count >= min_count {
            row_buf.clear();
            row_buf.extend_from_slice(key);
            row_buf.push(u32::try_from(count).unwrap_or(u32::MAX));
            out.push(&row_buf)?;
        }
        Ok(())
    };

    while let Some(row) = cursor.next_row()? {
        let same = count > 0 && group_cols.iter().enumerate().all(|(i, &c)| row[c] == current[i]);
        if same {
            count += 1;
        } else {
            if count > 0 {
                flush(&current, count, &mut out)?;
            }
            current.clear();
            current.extend(group_cols.iter().map(|&c| row[c]));
            count = 1;
        }
    }
    if count > 0 {
        flush(&current, count, &mut out)?;
    }
    out.finish()
}

/// Sum `sum_col` over consecutive groups of `input` (sorted on
/// `group_cols`), keeping groups whose sum is `>= min_sum`. Output rows
/// are the group columns followed by the sum.
///
/// This is the merge half of a partitioned `GROUP BY`: shard-local
/// `COUNT(*)` relations are unioned and re-aggregated here with
/// `SUM(cnt)`, which is exactly how the parallel SQL execution applies
/// the global `HAVING SUM(cnt) >= :minsupport` threshold.
pub fn grouped_sum(
    input: &HeapFile,
    group_cols: &[usize],
    sum_col: usize,
    min_sum: u64,
) -> Result<HeapFile> {
    let pager = input.pager().clone();
    let out_arity = group_cols.len() + 1;
    let mut out = HeapFileBuilder::new(pager, out_arity);
    let mut cursor = input.cursor();

    let mut current: Vec<u32> = Vec::with_capacity(group_cols.len());
    let mut sum: u64 = 0;
    let mut started = false;
    let mut row_buf: Vec<u32> = Vec::with_capacity(out_arity);

    let mut flush = |key: &[u32], sum: u64, out: &mut HeapFileBuilder| -> Result<()> {
        if sum >= min_sum {
            row_buf.clear();
            row_buf.extend_from_slice(key);
            // A sum overflowing the u32 cell is a typed error, not a
            // silent clamp — two 4-billion values already exceed it, and
            // a clamped value would make equivalent HAVING predicates
            // disagree (pushed-down >= sees the true u64, post-applied
            // = / < would see the clamp).
            row_buf.push(
                u32::try_from(sum)
                    .map_err(|_| crate::errors::Error::AggregateOverflow { value: sum })?,
            );
            out.push(&row_buf)?;
        }
        Ok(())
    };

    while let Some(row) = cursor.next_row()? {
        let same = started && group_cols.iter().enumerate().all(|(i, &c)| row[c] == current[i]);
        if same {
            sum += row[sum_col] as u64;
        } else {
            if started {
                flush(&current, sum, &mut out)?;
            }
            current.clear();
            current.extend(group_cols.iter().map(|&c| row[c]));
            sum = row[sum_col] as u64;
            started = true;
        }
    }
    if started {
        flush(&current, sum, &mut out)?;
    }
    out.finish()
}

/// Scan `input`, keep rows passing `pred`, and project `cols` into the
/// output (a generic filter+project used by the SQL executor).
pub fn filter_project<F: FnMut(&[u32]) -> bool>(
    input: &HeapFile,
    cols: &[usize],
    mut pred: F,
) -> Result<HeapFile> {
    let pager = input.pager().clone();
    let mut out = HeapFileBuilder::new(pager, cols.len());
    let mut buf = Vec::with_capacity(cols.len());
    let mut cursor = input.cursor();
    let mut pending: Result<()> = Ok(());
    while let Some(row) = cursor.next_row()? {
        if pred(row) {
            buf.clear();
            buf.extend(cols.iter().map(|&c| row[c]));
            if let Err(e) = out.push(&buf) {
                pending = Err(e);
            }
        }
        pending.clone()?;
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;

    fn hf(pager: &crate::pager::SharedPager, rows: &[Vec<u32>], arity: usize) -> HeapFile {
        HeapFile::from_rows(pager.clone(), arity, rows.iter().map(|r| r.as_slice())).unwrap()
    }

    #[test]
    fn counts_consecutive_groups() {
        let pager = Pager::shared();
        let input = hf(
            &pager,
            &[vec![1, 0], vec![1, 1], vec![2, 0], vec![3, 0], vec![3, 1], vec![3, 2]],
            2,
        );
        let out = grouped_count(&input, &[0], 1).unwrap();
        assert_eq!(out.rows().unwrap(), vec![vec![1, 2], vec![2, 1], vec![3, 3]]);
    }

    #[test]
    fn having_filters_small_groups() {
        let pager = Pager::shared();
        let input = hf(&pager, &[vec![1], vec![1], vec![2], vec![3], vec![3], vec![3]], 1);
        let out = grouped_count(&input, &[0], 2).unwrap();
        assert_eq!(out.rows().unwrap(), vec![vec![1, 2], vec![3, 3]]);
    }

    #[test]
    fn multi_column_groups() {
        let pager = Pager::shared();
        // (tid, a, b) counting on (a, b).
        let input = hf(&pager, &[vec![9, 1, 2], vec![8, 1, 2], vec![7, 1, 3], vec![6, 2, 2]], 3);
        let out = grouped_count(&input, &[1, 2], 1).unwrap();
        assert_eq!(out.rows().unwrap(), vec![vec![1, 2, 2], vec![1, 3, 1], vec![2, 2, 1]]);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let pager = Pager::shared();
        let input = HeapFile::empty(pager, 2).unwrap();
        let out = grouped_count(&input, &[0], 1).unwrap();
        assert_eq!(out.n_records(), 0);
    }

    #[test]
    fn all_groups_below_min_gives_empty_output() {
        let pager = Pager::shared();
        let input = hf(&pager, &[vec![1], vec![2], vec![3]], 1);
        let out = grouped_count(&input, &[0], 2).unwrap();
        assert_eq!(out.n_records(), 0);
    }

    #[test]
    fn grouped_sum_merges_partial_counts() {
        let pager = Pager::shared();
        // Two shards' partial counts of the same patterns, unioned and
        // sorted: (item, cnt).
        let input = hf(&pager, &[vec![1, 2], vec![1, 3], vec![2, 1], vec![3, 1], vec![3, 1]], 2);
        let out = grouped_sum(&input, &[0], 1, 1).unwrap();
        assert_eq!(out.rows().unwrap(), vec![vec![1, 5], vec![2, 1], vec![3, 2]]);
        // The HAVING SUM(..) >= threshold pushdown.
        let filtered = grouped_sum(&input, &[0], 1, 2).unwrap();
        assert_eq!(filtered.rows().unwrap(), vec![vec![1, 5], vec![3, 2]]);
    }

    #[test]
    fn grouped_sum_overflow_is_a_typed_error_not_a_clamp() {
        let pager = Pager::shared();
        // Two rows whose sum exceeds u32::MAX: returning a clamped
        // 4294967295 would be silently wrong, so it must error.
        let input = hf(&pager, &[vec![1, 4_000_000_000], vec![1, 4_000_000_000]], 2);
        let err = grouped_sum(&input, &[0], 1, 1).unwrap_err();
        assert_eq!(
            err,
            crate::errors::Error::AggregateOverflow { value: 8_000_000_000 },
            "got {err:?}"
        );
        // The pushed-down HAVING threshold still works on the true u64
        // sum: a threshold above the sum filters the group before any
        // output cell is built, so no overflow occurs.
        let out = grouped_sum(&input, &[0], 1, 9_000_000_000).unwrap();
        assert_eq!(out.n_records(), 0);
    }

    #[test]
    fn grouped_sum_on_empty_input() {
        let pager = Pager::shared();
        let input = HeapFile::empty(pager, 2).unwrap();
        let out = grouped_sum(&input, &[0], 1, 1).unwrap();
        assert_eq!(out.n_records(), 0);
    }

    #[test]
    fn filter_project_selects_and_projects() {
        let pager = Pager::shared();
        let input = hf(&pager, &[vec![1, 10], vec![2, 20], vec![3, 30]], 2);
        let out = filter_project(&input, &[1], |r| r[0] >= 2).unwrap();
        assert_eq!(out.rows().unwrap(), vec![vec![20], vec![30]]);
    }
}
