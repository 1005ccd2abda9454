//! AIS (Agrawal, Imieliński & Swami, SIGMOD 1993) — the paper's
//! reference \[4\].
//!
//! The algorithm SETM positions itself against: candidates are generated
//! *during* the data pass by extending each frequent (k-1)-itemset found
//! in a transaction with the transaction's later items, and counted in a
//! per-pass hash map. This is the same tuple-per-(transaction, pattern)
//! expansion SETM performs relationally — which is why the two agree
//! exactly — but "has a tuple-oriented flavor" (Section 1).
//!
//! Simplification (documented): the original paper adds an
//! estimation-based pruning function to skip extensions unlikely to be
//! frequent; we generate all lexicographic extensions, which only affects
//! running time, never the result.

use crate::trie::CandidateTrie;
use crate::BaselineResult;
use setm_core::{CountRelation, Dataset, ItemVec, MiningParams};
use std::collections::HashMap;

/// Mine frequent itemsets with AIS.
pub fn mine(dataset: &Dataset, params: &MiningParams) -> BaselineResult {
    let n_txns = dataset.n_transactions();
    let min_count = params.min_support.to_count(n_txns.max(1));
    let max_len = params.max_pattern_len.unwrap_or(usize::MAX);
    let mut counts: Vec<CountRelation> = Vec::new();

    // L1.
    let mut item_counts: HashMap<u32, u64> = HashMap::new();
    for (_, items) in dataset.transactions() {
        for &it in items {
            *item_counts.entry(it).or_insert(0) += 1;
        }
    }
    let mut l1: Vec<(u32, u64)> =
        item_counts.into_iter().filter(|&(_, c)| c >= min_count).collect();
    l1.sort_unstable();
    let mut c1 = CountRelation::new(1);
    for &(item, count) in &l1 {
        c1.push(&[item], count);
    }
    if c1.is_empty() || max_len == 1 {
        if !c1.is_empty() {
            counts.push(c1);
        }
        return BaselineResult { counts, n_transactions: n_txns, min_support_count: min_count };
    }
    counts.push(c1);

    let mut k = 1usize;
    while k < max_len {
        k += 1;
        let l_prev = counts.last().expect("previous level exists");
        // Frontier trie over L_{k-1} for in-transaction matching.
        let mut frontier = CandidateTrie::new(k - 1);
        let mut frontier_patterns: Vec<&[u32]> = Vec::with_capacity(l_prev.len());
        for (pattern, _) in l_prev.iter() {
            frontier.insert(pattern);
            frontier_patterns.push(pattern);
        }

        // Data pass: extend every frontier occurrence with later items.
        let mut candidate_counts: HashMap<ItemVec, u64> = HashMap::new();
        let mut buf: Vec<u32> = vec![0; k];
        for (_, items) in dataset.transactions() {
            if items.len() < k {
                continue;
            }
            frontier.for_each_contained(items, |id, last_pos| {
                let pattern = frontier_patterns[id as usize];
                for &ext in &items[last_pos + 1..] {
                    buf[..k - 1].copy_from_slice(pattern);
                    buf[k - 1] = ext;
                    *candidate_counts.entry(ItemVec::from_slice(&buf)).or_insert(0) += 1;
                }
            });
        }

        let mut qualifying: Vec<(ItemVec, u64)> =
            candidate_counts.into_iter().filter(|&(_, c)| c >= min_count).collect();
        qualifying.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut l_k = CountRelation::new(k);
        for (pattern, count) in &qualifying {
            l_k.push(pattern.as_slice(), *count);
        }
        if l_k.is_empty() {
            break;
        }
        counts.push(l_k);
    }

    BaselineResult { counts, n_transactions: n_txns, min_support_count: min_count }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setm_core::{example, setm::memory, MinSupport};

    #[test]
    fn matches_setm_on_worked_example() {
        let d = example::paper_example_dataset();
        let params = example::paper_example_params();
        let ours = mine(&d, &params);
        let reference = memory::execute(&d, &params, &Default::default());
        assert_eq!(ours.frequent_itemsets(), reference.frequent_itemsets());
    }

    #[test]
    fn matches_apriori_on_pseudorandom_data() {
        let mut txns = Vec::new();
        let mut state = 777u32;
        for tid in 0..80u32 {
            let mut items = Vec::new();
            for _ in 0..6 {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                items.push(1 + (state >> 20) % 14);
            }
            items.sort_unstable();
            items.dedup();
            txns.push((tid, items));
        }
        let d = Dataset::from_transactions(txns.iter().map(|(t, i)| (*t, i.as_slice())));
        let params = MiningParams::new(MinSupport::Fraction(0.08), 0.5);
        assert_eq!(
            mine(&d, &params).frequent_itemsets(),
            crate::apriori::mine(&d, &params).frequent_itemsets()
        );
    }

    #[test]
    fn extension_only_looks_rightward() {
        // {2,3} frequent, 1 precedes it in a txn: AIS must not generate
        // {1,2,3} from frontier {2,3} + leftward 1; it generates it from
        // frontier {1,2} + 3 (if {1,2} is frequent). With {1,2} infrequent
        // the triple must not appear even though it is in the data.
        let d = Dataset::from_transactions([
            (1, [1u32, 2, 3].as_slice()),
            (2, [2, 3].as_slice()),
            (3, [2, 3].as_slice()),
        ]);
        let params = MiningParams::new(MinSupport::Count(2), 0.5);
        let r = mine(&d, &params);
        assert_eq!(r.counts.len(), 2);
        assert_eq!(r.counts[1].get(&[2, 3]), Some(3));
        // {1,2,3} has support 1 < 2 anyway; the invariant here is that no
        // length-3 level was produced at all.
        assert!(r.frequent_itemsets().iter().all(|(p, _)| p.len() <= 2));
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::from_pairs(std::iter::empty());
        let r = mine(&d, &MiningParams::new(MinSupport::Count(1), 0.5));
        assert!(r.counts.is_empty());
    }
}
