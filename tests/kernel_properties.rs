//! Property tests of the two per-iteration kernels every backend leans
//! on, against plain references:
//!
//! * `PatternRelation`'s two Figure 4 sorts (one radix-kernel call each)
//!   equal a comparison sort of the same tuples, from shuffled input that
//!   is in neither order as well as from the order the other sort leaves;
//! * `CountRelation::merge_sum_filter` equals a `BTreeMap` sum, over
//!   1–4 parts of lopsided sizes (the incremental frontier merges one
//!   large stored relation with small delta-side ones).

use proptest::prelude::*;
use setm::{CountRelation, PatternRelation};
use std::collections::BTreeMap;

/// `(tid, items)` tuples as the reference sees them.
fn tuples(r: &PatternRelation) -> Vec<(u32, Vec<u32>)> {
    r.iter().map(|(tid, items)| (tid, items.to_vec())).collect()
}

/// Ids small enough to repeat, or straddling the 16-bit digit boundary.
fn id(mode: u32, v: u32) -> u32 {
    if mode == 0 {
        v
    } else {
        65_530 + v
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pattern_sorts_equal_comparison_sorts(
        k in 1usize..=4,
        raw in prop::collection::vec(
            (0u32..2, 0u32..12, prop::collection::vec((0u32..2, 0u32..10), 4)),
            0..=400,
        ),
    ) {
        let mut r = PatternRelation::new(k);
        for (mode, tid, items) in &raw {
            let items: Vec<u32> = items[..k].iter().map(|&(m, v)| id(m, v)).collect();
            r.push(id(*mode, *tid), &items);
        }
        let mut by_tid = tuples(&r);
        by_tid.sort();
        let mut by_items = tuples(&r);
        by_items.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));

        // From the generated (shuffled) order...
        let mut a = r.clone();
        a.sort_by_items();
        prop_assert_eq!(tuples(&a), by_items.clone());
        let mut b = r.clone();
        b.sort_by_tid_items();
        prop_assert_eq!(tuples(&b), by_tid.clone());
        prop_assert!(b.is_sorted_by_tid_items());
        // ...and from the order the other sort leaves behind, where the
        // kernel skips the passes of the already-sorted column suffix.
        b.sort_by_items();
        prop_assert_eq!(tuples(&b), by_items);
        a.sort_by_tid_items();
        prop_assert_eq!(tuples(&a), by_tid);
    }

    #[test]
    fn merge_sum_filter_equals_btreemap_sum(
        k in 1usize..=3,
        n_parts in 1usize..=4,
        rotate in 0usize..4,
        big in prop::collection::vec((prop::collection::vec(0u32..12, 3), 0u64..6), 0..=400),
        small in prop::collection::vec(
            prop::collection::vec((prop::collection::vec(0u32..12, 3), 0u64..6), 0..=20),
            3,
        ),
        min_count in prop::sample::select(vec![1u64, 2, 1_000]),
    ) {
        // One large part and up to three small ones, the large one placed
        // anywhere among them.
        let mut raw_parts: Vec<&Vec<(Vec<u32>, u64)>> = vec![&big];
        raw_parts.extend(small.iter().take(n_parts - 1));
        raw_parts.rotate_left(rotate % n_parts);

        let mut reference: BTreeMap<Vec<u32>, u64> = BTreeMap::new();
        let parts: Vec<CountRelation> = raw_parts
            .iter()
            .map(|raw| {
                let mut pats: BTreeMap<Vec<u32>, u64> = BTreeMap::new();
                for (items, count) in raw.iter() {
                    pats.insert(items[..k].to_vec(), *count);
                }
                let mut c = CountRelation::new(k);
                for (p, count) in &pats {
                    c.push(p, *count);
                    *reference.entry(p.clone()).or_insert(0) += count;
                }
                c
            })
            .collect();

        let merged = CountRelation::merge_sum_filter(&parts, min_count);
        let got: Vec<(Vec<u32>, u64)> = merged.iter().map(|(p, c)| (p.to_vec(), c)).collect();
        let expect: Vec<(Vec<u32>, u64)> =
            reference.into_iter().filter(|&(_, c)| c >= min_count).collect();
        prop_assert_eq!(got, expect);
    }
}
