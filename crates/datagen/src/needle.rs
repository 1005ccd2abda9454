//! The "needle" workload: a planted pattern in sparse haystack
//! transactions, built to invert the paper's join economics.
//!
//! Every transaction carries `filler_per_txn` items that occur nowhere
//! else, so no filler item (let alone pair) ever reaches minimum
//! support. A handful of transactions additionally carry the planted
//! itemset `{1, 2, .., planted_len}`. Past `k = 2` the candidate
//! relation `R_{k-1}` collapses to the planted rows — a few dozen
//! tuples — while `SALES` stays hundreds of pages wide. A merge-scan
//! extension join must still stream all of `SALES` past that residue;
//! an index nested-loop join probes only the planted transactions. The
//! cost-based planner should therefore switch join strategies
//! mid-run, and a fixed merge-scan plan should measurably lose
//! (`tests/cost_model_vs_measured.rs` pins both claims).
//!
//! The generator is deterministic by construction — no randomness, so
//! no seed: transaction `t` (1-based tid) gets filler items
//! `first_filler + (t-1)·filler_per_txn ..`, and `planted_support`
//! transactions spread evenly across the **whole** tid range (first and
//! last included) also get the planted itemset. The spread matters: a
//! merge join stops as soon as `R_{k-1}` is exhausted, so needles
//! clustered at the front would let the merge-scan terminate early and
//! never pay for the haystack.

use setm_core::Dataset;

/// Configuration of the needle generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeedleConfig {
    /// Total transactions.
    pub n_txns: u32,
    /// Unique-to-the-transaction filler items per transaction.
    pub filler_per_txn: u32,
    /// Length of the planted itemset `{1, .., planted_len}`.
    pub planted_len: u32,
    /// How many transactions (the first ones) carry the planted
    /// itemset — its exact support count.
    pub planted_support: u32,
}

impl NeedleConfig {
    /// The checked-in benchmark shape: 4,000 transactions × 8 filler
    /// items, a planted triple in 7 of them. At `MinSupport::Count(5)`
    /// the run reaches `k = 3` with `|R_2| = 21` against a ~250-page
    /// `SALES`, which is exactly the regime where the planner should
    /// abandon the merge-scan.
    pub fn bench() -> Self {
        NeedleConfig { n_txns: 4_000, filler_per_txn: 8, planted_len: 3, planted_support: 7 }
    }

    /// First item id used for filler (planted items are `1..=planted_len`;
    /// a gap keeps the two ranges visually distinct in dumps).
    pub fn first_filler_item(&self) -> u32 {
        self.planted_len + 10
    }

    /// The 0-based transaction offsets that carry the planted itemset:
    /// `planted_support` positions spread evenly over `0..n_txns`, first
    /// and last transaction included.
    pub fn planted_positions(&self) -> Vec<u32> {
        let s = self.planted_support.min(self.n_txns);
        if s == 0 || self.n_txns == 0 {
            return Vec::new();
        }
        if s == 1 {
            return vec![self.n_txns - 1];
        }
        (0..s).map(|i| (i as u64 * (self.n_txns as u64 - 1) / (s as u64 - 1)) as u32).collect()
    }

    /// Generate the dataset.
    pub fn generate(&self) -> Dataset {
        let first = self.first_filler_item();
        let planted = self.planted_positions();
        let mut next_planted = 0usize;
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(
            (self.n_txns as usize) * (self.filler_per_txn as usize)
                + (self.planted_support as usize) * (self.planted_len as usize),
        );
        for t in 0..self.n_txns {
            let tid = t + 1;
            if planted.get(next_planted) == Some(&t) {
                next_planted += 1;
                pairs.extend((1..=self.planted_len).map(|item| (tid, item)));
            }
            let base = first + t * self.filler_per_txn;
            pairs.extend((0..self.filler_per_txn).map(|j| (tid, base + j)));
        }
        Dataset::from_pairs(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DatasetStats;
    use setm_core::{example, Backend, MinSupport, Miner, MiningParams};

    #[test]
    fn shape_matches_the_construction() {
        let cfg = NeedleConfig::bench();
        let d = cfg.generate();
        let s = DatasetStats::of(&d);
        assert_eq!(s.n_transactions, 4_000);
        assert_eq!(s.n_rows, 4_000 * 8 + 7 * 3);
        // Planted items have exactly the configured support; every
        // filler item occurs exactly once.
        for (&item, &count) in &s.item_counts {
            if item <= cfg.planted_len {
                assert_eq!(count, 7, "planted item {item}");
            } else {
                assert_eq!(count, 1, "filler item {item}");
            }
        }
    }

    #[test]
    fn is_deterministic() {
        let cfg = NeedleConfig::bench();
        assert_eq!(cfg.generate(), cfg.generate());
    }

    #[test]
    fn planted_positions_span_the_whole_tid_range() {
        let cfg = NeedleConfig::bench();
        let pos = cfg.planted_positions();
        assert_eq!(pos.len(), 7);
        assert_eq!(pos.first(), Some(&0));
        assert_eq!(pos.last(), Some(&(cfg.n_txns - 1)), "last txn must carry the needle");
        assert!(pos.windows(2).all(|w| w[0] < w[1]));
        // Degenerate shapes stay sane.
        assert_eq!(
            NeedleConfig { planted_support: 1, ..cfg }.planted_positions(),
            vec![cfg.n_txns - 1]
        );
        assert!(NeedleConfig { planted_support: 0, ..cfg }.planted_positions().is_empty());
    }

    #[test]
    fn mines_exactly_the_planted_itemset() {
        let _ = example::paper_example_dataset(); // keep the import natural
        let d = NeedleConfig::bench().generate();
        let params = MiningParams::new(MinSupport::Count(5), 0.5);
        let outcome = Miner::new(params).backend(Backend::Memory).run(&d).unwrap();
        // C_3 = {{1,2,3}} with support 7; nothing longer.
        assert_eq!(outcome.result.max_pattern_len(), 3);
        assert_eq!(outcome.result.c(3).unwrap().get(&[1, 2, 3]), Some(7));
        assert_eq!(outcome.result.c(3).unwrap().len(), 1);
        assert_eq!(outcome.result.c(2).unwrap().len(), 3);
        // The candidate residue past k = 2 really is tiny: 7 txns × 3 pairs.
        let k2 = outcome.result.trace.iter().find(|t| t.k == 2).unwrap();
        assert_eq!(k2.r_tuples, 21);
    }
}
