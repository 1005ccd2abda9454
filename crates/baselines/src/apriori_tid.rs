//! Apriori-TID (Agrawal & Srikant, VLDB 1994).
//!
//! The variant of Apriori that never rescans the raw transactions after
//! the first pass: each pass k keeps, per transaction, the ids of the
//! candidates it contains (the `\bar{C}_k` encoding), and pass k+1 checks
//! a candidate against a transaction by checking its two generating
//! (k-1)-subsets in that encoding. Structurally this is the closest
//! relative of SETM's `R_k` relation — `R_k` *is* `\bar{C}_k` in
//! first-normal-form — which makes it the most interesting ablation
//! partner (experiment E7).

use crate::apriori::generate_candidates;
use crate::BaselineResult;
use setm_core::{CountRelation, Dataset, ItemVec, MiningParams};
use std::collections::HashMap;

/// Mine frequent itemsets with Apriori-TID.
pub fn mine(dataset: &Dataset, params: &MiningParams) -> BaselineResult {
    let n_txns = dataset.n_transactions();
    let min_count = params.min_support.to_count(n_txns.max(1));
    let max_len = params.max_pattern_len.unwrap_or(usize::MAX);
    let mut counts: Vec<CountRelation> = Vec::new();

    // L1 and the initial encoding \bar{C}_1: per transaction, the list of
    // frequent items (as candidate ids).
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

    // Encoding entries: (pattern ids contained, sorted by pattern order).
    // Pattern id i refers to counts.last().pattern_at(i).
    let id_of_item: HashMap<u32, u32> =
        c1.iter().enumerate().map(|(i, (pattern, _))| (pattern[0], i as u32)).collect();
    let mut encoding: Vec<Vec<u32>> = dataset
        .transactions()
        .map(|(_, items)| {
            items.iter().filter_map(|it| id_of_item.get(it).copied()).collect::<Vec<u32>>()
        })
        .filter(|ids| !ids.is_empty())
        .collect();
    counts.push(c1);

    let mut k = 1usize;
    while k < max_len {
        k += 1;
        let l_prev = counts.last().expect("previous level exists");
        let candidates = generate_candidates(l_prev);
        if candidates.is_empty() {
            break;
        }
        // For the membership test we need, per candidate, its two
        // generators: candidate minus last item and candidate minus
        // second-to-last item (both members of L_{k-1} by construction).
        let prev_id: HashMap<ItemVec, u32> = l_prev
            .iter()
            .enumerate()
            .map(|(i, (pattern, _))| (ItemVec::from_slice(pattern), i as u32))
            .collect();
        // Candidate lookup keyed on (generator_a, generator_b) ids.
        let mut by_generators: HashMap<(u32, u32), u32> = HashMap::new();
        for (cid, cand) in candidates.iter().enumerate() {
            let ga = prev_id[&ItemVec::from_slice(&cand[..k - 1])];
            let mut gb_items: Vec<u32> = cand[..k - 2].to_vec();
            gb_items.push(cand[k - 1]);
            let gb = prev_id[&ItemVec::from_slice(&gb_items)];
            by_generators.insert((ga, gb), cid as u32);
        }

        // Pass over the encoding only (never the raw data again).
        let mut support = vec![0u64; candidates.len()];
        let mut next_encoding: Vec<Vec<u32>> = Vec::with_capacity(encoding.len());
        for ids in &encoding {
            let mut new_ids: Vec<u32> = Vec::new();
            // All ordered pairs of contained (k-1)-patterns that join:
            // ids are sorted, and generator pairs always satisfy ga < gb
            // in pattern order.
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    if let Some(&cid) = by_generators.get(&(a, b)) {
                        support[cid as usize] += 1;
                        new_ids.push(cid);
                    }
                }
            }
            if !new_ids.is_empty() {
                new_ids.sort_unstable();
                next_encoding.push(new_ids);
            }
        }

        let mut l_k = CountRelation::new(k);
        let mut keep: HashMap<u32, u32> = HashMap::new(); // old cid -> new id
        for (cid, (cand, &count)) in candidates.iter().zip(support.iter()).enumerate() {
            if count >= min_count {
                keep.insert(cid as u32, keep.len() as u32);
                l_k.push(cand, count);
            }
        }
        if l_k.is_empty() {
            break;
        }
        // Re-map the encoding to the surviving candidates' new ids.
        encoding = next_encoding
            .into_iter()
            .map(|ids| {
                ids.into_iter().filter_map(|id| keep.get(&id).copied()).collect::<Vec<u32>>()
            })
            .filter(|ids| !ids.is_empty())
            .collect();
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
        let mut state = 31u32;
        for tid in 0..120u32 {
            let mut items = Vec::new();
            for _ in 0..5 {
                state = state.wrapping_mul(22695477).wrapping_add(1);
                items.push(1 + (state >> 22) % 12);
            }
            items.sort_unstable();
            items.dedup();
            txns.push((tid, items));
        }
        let d = Dataset::from_transactions(txns.iter().map(|(t, i)| (*t, i.as_slice())));
        for frac in [0.03, 0.08, 0.15, 0.3] {
            let params = MiningParams::new(MinSupport::Fraction(frac), 0.5);
            assert_eq!(
                mine(&d, &params).frequent_itemsets(),
                crate::apriori::mine(&d, &params).frequent_itemsets(),
                "at min support {frac}"
            );
        }
    }

    #[test]
    fn encoding_shrinks_across_passes() {
        // Transactions that stop containing candidates drop out of the
        // encoding — the property that makes Apriori-TID fast in later
        // passes.
        let d = example::paper_example_dataset();
        let _params = example::paper_example_params();
        // Indirectly observable: the run completes and matches; the
        // internal encoding is not exposed. This test pins the results
        // at a second support level to exercise re-mapping.
        let strict = mine(&d, &MiningParams::new(MinSupport::Count(4), 0.5));
        assert!(strict.frequent_itemsets().iter().all(|(_, c)| *c >= 4));
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::from_pairs(std::iter::empty());
        let r = mine(&d, &MiningParams::new(MinSupport::Count(1), 0.5));
        assert!(r.counts.is_empty());
    }
}
