//! Apriori (Agrawal & Srikant, VLDB 1994).
//!
//! The algorithm that superseded both AIS and SETM: candidates `C_k` are
//! generated *before* the data pass by joining `L_{k-1}` with itself and
//! pruning candidates with an infrequent (k-1)-subset; one pass over the
//! transactions then counts all candidates via a prefix trie. Included
//! here as the historically-decisive comparator for the E7 extension
//! benchmarks (the paper predates it by months and never compares
//! against it).

use crate::trie::CandidateTrie;
use crate::BaselineResult;
use setm_core::{CountRelation, Dataset, MiningParams};
use std::collections::HashMap;

/// Mine frequent itemsets with Apriori.
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
        let candidates = generate_candidates(l_prev);
        if candidates.is_empty() {
            break;
        }
        // Build the counting trie (candidates arrive in lexicographic
        // order from the join).
        let mut trie = CandidateTrie::new(k);
        for cand in &candidates {
            trie.insert(cand);
        }
        // One pass over the data.
        let mut support = vec![0u64; candidates.len()];
        for (_, items) in dataset.transactions() {
            if items.len() >= k {
                trie.count_contained(items, &mut support);
            }
        }
        let mut l_k = CountRelation::new(k);
        for (cand, &count) in candidates.iter().zip(support.iter()) {
            if count >= min_count {
                l_k.push(cand, count);
            }
        }
        if l_k.is_empty() {
            break;
        }
        counts.push(l_k);
    }

    BaselineResult { counts, n_transactions: n_txns, min_support_count: min_count }
}

/// The Apriori candidate generation: join `L_{k-1}` with itself on the
/// first k-2 items, then prune candidates having any infrequent
/// (k-1)-subset. Output is in lexicographic order.
pub fn generate_candidates(l_prev: &CountRelation) -> Vec<Vec<u32>> {
    let k_prev = l_prev.k();
    let n = l_prev.len();
    let mut out = Vec::new();
    let mut candidate = vec![0u32; k_prev + 1];
    let mut subset = vec![0u32; k_prev];
    for a in 0..n {
        let pa = l_prev.pattern_at(a);
        // Patterns sharing the (k-2)-prefix are contiguous in
        // lexicographic order; extend with every later sibling.
        for b in (a + 1)..n {
            let pb = l_prev.pattern_at(b);
            if pa[..k_prev - 1] != pb[..k_prev - 1] {
                break;
            }
            candidate[..k_prev].copy_from_slice(pa);
            candidate[k_prev] = pb[k_prev - 1];
            // Prune: every (k-1)-subset must be frequent. Subsets missing
            // the last or second-to-last item are `pa`/`pb` themselves.
            let mut ok = true;
            for drop in 0..k_prev - 1 {
                let mut w = 0;
                for (i, &v) in candidate.iter().enumerate() {
                    if i != drop {
                        subset[w] = v;
                        w += 1;
                    }
                }
                if !l_prev.contains(&subset) {
                    ok = false;
                    break;
                }
            }
            if ok {
                out.push(candidate.clone());
            }
        }
    }
    out
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
    fn candidate_generation_joins_and_prunes() {
        // L2 = {AB, AC, AD, BC}: join yields ABC (kept: AB, AC, BC all in
        // L2), ABD (pruned: BD missing), ACD (pruned: CD missing).
        let mut l2 = CountRelation::new(2);
        l2.push(&[1, 2], 5);
        l2.push(&[1, 3], 5);
        l2.push(&[1, 4], 5);
        l2.push(&[2, 3], 5);
        let cands = generate_candidates(&l2);
        assert_eq!(cands, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn candidate_generation_from_singletons() {
        let mut l1 = CountRelation::new(1);
        l1.push(&[1], 3);
        l1.push(&[2], 3);
        l1.push(&[3], 3);
        let cands = generate_candidates(&l1);
        assert_eq!(cands, vec![vec![1, 2], vec![1, 3], vec![2, 3]]);
    }

    #[test]
    fn respects_max_pattern_len() {
        let d = example::paper_example_dataset();
        let params = example::paper_example_params().with_max_len(2);
        let r = mine(&d, &params);
        assert_eq!(r.counts.len(), 2);
    }

    #[test]
    fn empty_and_trivial_datasets() {
        let d = Dataset::from_pairs(std::iter::empty());
        let r = mine(&d, &MiningParams::new(MinSupport::Count(1), 0.5));
        assert!(r.counts.is_empty());
        let d = Dataset::from_transactions([(1, [7u32].as_slice())]);
        let r = mine(&d, &MiningParams::new(MinSupport::Count(1), 0.5));
        assert_eq!(r.frequent_itemsets().len(), 1);
    }
}
