//! Property-based tests of the storage-engine primitives against
//! reference implementations.

use proptest::prelude::*;
use setm_relational::agg::grouped_count;
use setm_relational::btree::BulkLoader;
use setm_relational::join::{index_nested_loop_join, merge_scan_join};
use setm_relational::sort::{external_sort, row_order, sort_rows, SortOptions};
use setm_relational::{HeapFile, Pager, SharedPager};
use std::collections::HashMap;

fn build(pager: &SharedPager, rows: &[Vec<u32>], arity: usize) -> HeapFile {
    HeapFile::from_rows(pager.clone(), arity, rows.iter().map(|r| r.as_slice())).unwrap()
}

fn rows_strategy(arity: usize, max_rows: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..50, arity..=arity), 0..=max_rows)
}

/// Column values for the radix kernel: small (so rows repeat), straddling
/// the 16-bit digit boundary at 65,536, at the top of the range, or
/// anywhere.
fn radix_value() -> impl Strategy<Value = u32> {
    (0u32..4, 0u32..8, 0u32..=u32::MAX).prop_map(|(mode, small, any)| match mode {
        0 => small,
        1 => 65_532 + small,
        2 => u32::MAX - small,
        _ => any,
    })
}

/// The column sequence `row_order` compares: key, then the other columns.
fn order_columns(arity: usize, key: &[usize]) -> Vec<usize> {
    let mut cols: Vec<usize> = Vec::new();
    for c in key.iter().copied().chain(0..arity) {
        if !cols.contains(&c) {
            cols.push(c);
        }
    }
    cols
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The radix kernel produces exactly `sort_by(row_order)`, for keys
    /// `[1]`, `[2, 0]` and every column, on inputs of any length from 0
    /// rows up, with duplicate rows, values on both sides of 2^16, and
    /// inputs already sorted on a suffix of the column sequence (so the
    /// kernel skips those passes).
    #[test]
    fn sort_rows_equals_row_order_reference(
        arity in 1usize..=6,
        key_shape in 0usize..3,
        values in prop::collection::vec(radix_value(), 0..=6000),
        short in 0usize..3,
        presorted_from in 0usize..8,
    ) {
        let key: Vec<usize> = match key_shape {
            0 => vec![1 % arity],
            1 => vec![2 % arity, 0],
            _ => (0..arity).collect(),
        };
        let mut rows: Vec<Vec<u32>> = values.chunks_exact(arity).map(<[u32]>::to_vec).collect();
        if short == 0 {
            rows.truncate(rows.len() % 4); // n in {0, 1, 2, 3}
        }
        // Pre-sort on a suffix of the column sequence (no-op past its end).
        let cols = order_columns(arity, &key);
        if presorted_from < cols.len() {
            let suffix = &cols[presorted_from..];
            rows.sort_by(|a, b| suffix.iter().map(|&c| a[c].cmp(&b[c])).fold(
                std::cmp::Ordering::Equal,
                std::cmp::Ordering::then,
            ));
        }

        let mut flat: Vec<u32> = rows.concat();
        sort_rows(&mut flat, arity, &key);
        rows.sort_by(|a, b| row_order(a, b, &key));
        prop_assert_eq!(flat, rows.concat());
    }

    /// Merge-scan join equals a brute-force nested-loop reference.
    #[test]
    fn merge_join_matches_reference(
        left in rows_strategy(2, 120),
        right in rows_strategy(2, 120),
    ) {
        let pager = Pager::shared();
        let mut ls = left.clone();
        let mut rs = right.clone();
        ls.sort();
        rs.sort();
        let lf = build(&pager, &ls, 2);
        let rf = build(&pager, &rs, 2);
        let joined = merge_scan_join(&lf, &rf, &[0], &[0], 3, |l, r| r[1] > l[1], |l, r, out| {
            out.extend_from_slice(&[l[0], l[1], r[1]]);
        })
        .unwrap();
        let mut got = joined.rows().unwrap();
        let mut expect: Vec<Vec<u32>> = Vec::new();
        for l in &ls {
            for r in &rs {
                if l[0] == r[0] && r[1] > l[1] {
                    expect.push(vec![l[0], l[1], r[1]]);
                }
            }
        }
        got.sort();
        expect.sort();
        prop_assert_eq!(got, expect);
    }

    /// An index nested-loop join over a covering B+-tree equals the
    /// merge join on the same inputs.
    #[test]
    fn index_join_matches_merge_join(
        left in rows_strategy(2, 80),
        right in rows_strategy(2, 80),
    ) {
        let pager = Pager::shared();
        let mut ls = left;
        let mut rs = right;
        ls.sort();
        rs.sort();
        rs.dedup(); // B+-tree stores a key set per bulk load order
        let lf = build(&pager, &ls, 2);
        let rf = build(&pager, &rs, 2);
        let merged = merge_scan_join(&lf, &rf, &[0], &[0], 3, |_, _| true, |l, r, out| {
            out.extend_from_slice(&[l[0], l[1], r[1]]);
        })
        .unwrap();

        let mut loader = BulkLoader::new(pager.clone(), 2);
        for r in &rs {
            loader.push(r).unwrap();
        }
        let tree = loader.finish().unwrap();
        let indexed =
            index_nested_loop_join(&lf, &tree, &[0], 3, |_, _| true, |l, k, out| {
                out.extend_from_slice(&[l[0], l[1], k[1]]);
            })
            .unwrap();

        let mut a = merged.rows().unwrap();
        let mut b = indexed.rows().unwrap();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// B+-tree prefix counting equals filtering the key list.
    #[test]
    fn btree_prefix_scan_matches_filter(
        mut keys in rows_strategy(2, 400),
        probe in 0u32..50,
    ) {
        keys.sort();
        keys.dedup();
        let pager = Pager::shared();
        let mut loader = BulkLoader::new(pager, 2);
        for k in &keys {
            loader.push(k).unwrap();
        }
        let tree = loader.finish().unwrap();
        let expect = keys.iter().filter(|k| k[0] == probe).count() as u64;
        prop_assert_eq!(tree.count_prefix(&[probe]).unwrap(), expect);
        // Exact-key containment agrees too.
        for k in keys.iter().take(10) {
            prop_assert!(tree.contains(k).unwrap());
        }
    }

    /// Sort-based grouped counting equals a hash-map reference.
    #[test]
    fn grouped_count_matches_hashmap(
        rows in rows_strategy(2, 300),
        min_count in 1u64..4,
    ) {
        let pager = Pager::shared();
        let mut sorted_rows = rows.clone();
        sorted_rows.sort();
        let f = build(&pager, &sorted_rows, 2);
        let counted = grouped_count(&f, &[0], min_count).unwrap();
        let mut reference: HashMap<u32, u64> = HashMap::new();
        for r in &rows {
            *reference.entry(r[0]).or_insert(0) += 1;
        }
        let mut expect: Vec<Vec<u32>> = reference
            .into_iter()
            .filter(|&(_, c)| c >= min_count)
            .map(|(g, c)| vec![g, c as u32])
            .collect();
        expect.sort();
        prop_assert_eq!(counted.rows().unwrap(), expect);
    }

    /// Heap files round-trip arbitrary row sets in order, across page
    /// boundaries.
    #[test]
    fn heapfile_round_trip(rows in rows_strategy(3, 1500)) {
        let pager = Pager::shared();
        let f = build(&pager, &rows, 3);
        prop_assert_eq!(f.n_records(), rows.len() as u64);
        prop_assert_eq!(f.rows().unwrap(), rows);
    }

    /// I/O accounting: scanning an n-page file with a cursor costs
    /// exactly n reads and the sequential/random split never loses
    /// accesses.
    #[test]
    fn scan_io_accounting_is_exact(rows in rows_strategy(2, 2000)) {
        let pager = Pager::shared();
        let f = build(&pager, &rows, 2);
        pager.lock().reset_stats();
        let mut cursor = f.cursor();
        let mut scanned = 0;
        while cursor.advance().unwrap() {
            scanned += 1;
        }
        prop_assert_eq!(scanned, rows.len());
        let s = pager.lock().stats();
        prop_assert_eq!(s.reads(), f.n_pages() as u64);
        prop_assert_eq!(s.seq_reads + s.rand_reads, s.reads());
        prop_assert_eq!(s.writes(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// External sort returns exactly `sort_by(row_order)` of its input at
    /// every arity from 1 to 6, on inputs of up to about 20 runs, so the
    /// k-way merge runs with every fan-in from 2 to 4 (3–5 buffer pages)
    /// and over several passes, on keys of any shape (repeated columns
    /// included). Values come from `radix_value`, so 0, `u32::MAX` and
    /// duplicate rows land in different runs; one case in three narrows
    /// every value to 0..3, so whole rows repeat across runs at every
    /// arity.
    #[test]
    fn external_sort_is_sorted_permutation(
        key_cols in prop::collection::vec(0usize..6, 1..=6),
        values in prop::collection::vec(radix_value(), 0..=60_000),
        buffer_pages in 3usize..=5,
        narrow in 0usize..3,
    ) {
        for arity in 1..=6 {
            let key: Vec<usize> = key_cols.iter().map(|&c| c % arity).collect();
            let mut rows: Vec<Vec<u32>> = values
                .chunks_exact(arity)
                .map(|r| r.iter().map(|&v| if narrow == 0 { v % 3 } else { v }).collect())
                .collect();
            let pager = Pager::shared();
            let f = build(&pager, &rows, arity);
            let sorted = external_sort(&f, &key, SortOptions { buffer_pages }).unwrap();
            let got = sorted.read_all().unwrap();
            rows.sort_by(|a, b| row_order(a, b, &key));
            prop_assert_eq!(got, rows.concat(), "arity {}, key {:?}", arity, key);
        }
    }
}
