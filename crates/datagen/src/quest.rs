//! IBM Quest-style synthetic basket generator.
//!
//! A simplified implementation of the `T·I·D` generator of Agrawal &
//! Srikant (VLDB'94), the standard workload for comparing association
//! miners — used here by the SETM-vs-AIS-vs-Apriori extension benchmarks
//! (experiment E7). Potential "large itemsets" are drawn with Poisson
//! sizes around `avg_pattern_len`, successive patterns share a fraction
//! of items with their predecessor, pattern weights decay exponentially,
//! and transactions are filled from weighted patterns with per-pattern
//! corruption.

use crate::poisson;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use setm_core::Dataset;

/// Configuration mirroring the classic `T<x>.I<y>.D<z>` naming.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuestConfig {
    /// Average transaction length (`T`).
    pub avg_txn_len: f64,
    /// Average size of the potential large itemsets (`I`).
    pub avg_pattern_len: f64,
    /// Number of transactions (`D`).
    pub n_txns: u32,
    /// Item universe size (the paper series uses 1,000).
    pub n_items: u32,
    /// Number of potential large itemsets (the paper series uses 2,000).
    pub n_patterns: u32,
    /// Fraction of a pattern's items shared with its predecessor.
    pub correlation: f64,
    /// Mean corruption level (probability of dropping items from a
    /// pattern instance).
    pub corruption: f64,
    /// RNG seed.
    pub seed: u64,
}

impl QuestConfig {
    /// The classic `T5.I2.D100K` workload, scaled by `scale_down` on the
    /// transaction count.
    pub fn t5_i2_d100k(scale_down: u32) -> Self {
        QuestConfig {
            avg_txn_len: 5.0,
            avg_pattern_len: 2.0,
            n_txns: 100_000 / scale_down.max(1),
            n_items: 1000,
            n_patterns: 2000,
            correlation: 0.5,
            corruption: 0.5,
            seed: 0x9135,
        }
    }

    /// The classic `T10.I4.D100K` workload, scaled on transactions.
    pub fn t10_i4_d100k(scale_down: u32) -> Self {
        QuestConfig {
            avg_txn_len: 10.0,
            avg_pattern_len: 4.0,
            n_txns: 100_000 / scale_down.max(1),
            ..Self::t5_i2_d100k(1)
        }
    }

    /// The heaviest classic workload, `T20.I6`, at an explicit
    /// transaction count — the paper-scale trajectory (100K–1M
    /// transactions) benched by `repro -- poolscale`.
    pub fn t20_i6(n_txns: u32) -> Self {
        QuestConfig { avg_txn_len: 20.0, avg_pattern_len: 6.0, n_txns, ..Self::t5_i2_d100k(1) }
    }

    /// Generate the dataset.
    pub fn generate(&self) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(self.seed);

        // Potential large itemsets.
        let mut patterns: Vec<Vec<u32>> = Vec::with_capacity(self.n_patterns as usize);
        for p in 0..self.n_patterns {
            let len =
                poisson(&mut rng, self.avg_pattern_len).max(1).min(self.n_items as u64) as usize;
            let mut items: Vec<u32> = Vec::with_capacity(len);
            if p > 0 {
                // Carry over a correlated fraction from the predecessor.
                let prev = &patterns[p as usize - 1];
                for &item in prev {
                    if items.len() < len && rng.gen::<f64>() < self.correlation {
                        items.push(item);
                    }
                }
            }
            let mut tries = 0;
            while items.len() < len && tries < 200 {
                tries += 1;
                let item = rng.gen_range(1..=self.n_items);
                if !items.contains(&item) {
                    items.push(item);
                }
            }
            items.sort_unstable();
            items.dedup();
            patterns.push(items);
        }

        // Pattern weights: exponential draws squared, normalized. The
        // original generator uses plain exponential weights over 100K
        // transactions; squaring fattens the head so the same relative
        // supports appear at the scaled-down sizes used in tests and
        // benches.
        let weights: Vec<f64> = (0..self.n_patterns)
            .map(|_| {
                let e = -(rng.gen::<f64>().max(1e-12)).ln();
                e * e
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cumulative.push(acc);
        }
        // Per-pattern corruption levels around the configured mean.
        let corruption: Vec<f64> = (0..self.n_patterns)
            .map(|_| (self.corruption + (rng.gen::<f64>() - 0.5) * 0.2).clamp(0.0, 0.95))
            .collect();

        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for tid in 0..self.n_txns {
            let len = poisson(&mut rng, self.avg_txn_len).max(1) as usize;
            let mut txn: Vec<u32> = Vec::with_capacity(len + 4);
            let mut guard = 0;
            while txn.len() < len && guard < 50 {
                guard += 1;
                let x: f64 = rng.gen();
                let p = cumulative.partition_point(|&c| c < x).min(patterns.len() - 1);
                // Corrupt: drop items while the coin keeps coming up.
                for &item in &patterns[p] {
                    if rng.gen::<f64>() >= corruption[p] && !txn.contains(&item) {
                        txn.push(item);
                    }
                }
            }
            txn.truncate(len.max(1).max(txn.len().min(len + 2)));
            if txn.is_empty() {
                txn.push(rng.gen_range(1..=self.n_items));
            }
            pairs.extend(txn.iter().map(|&it| (tid + 1, it)));
        }
        Dataset::from_pairs(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DatasetStats;
    use setm_core::{setm::memory, MinSupport, MiningParams};

    #[test]
    fn shape_is_roughly_as_configured() {
        let cfg = QuestConfig::t5_i2_d100k(50); // 2,000 transactions
        let d = cfg.generate();
        let s = DatasetStats::of(&d);
        assert_eq!(s.n_transactions, 2_000);
        assert!((3.0..8.0).contains(&s.avg_transaction_len), "avg len {}", s.avg_transaction_len);
        assert!(s.n_distinct_items as u32 <= cfg.n_items);
    }

    #[test]
    fn embedded_patterns_are_minable() {
        // The whole point of Quest data: correlations exist, so frequent
        // pairs appear well above the independence baseline.
        let d = QuestConfig::t5_i2_d100k(50).generate();
        let params = MiningParams::new(MinSupport::Fraction(0.01), 0.5);
        let r = memory::execute(&d, &params, &Default::default());
        assert!(r.c(2).is_some(), "frequent pairs must exist at 1% support");
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = QuestConfig::t5_i2_d100k(100);
        assert_eq!(cfg.generate(), cfg.generate());
        let other = QuestConfig { seed: 1, ..cfg };
        assert_ne!(cfg.generate(), other.generate());
    }

    #[test]
    fn t20_i6_takes_an_explicit_transaction_count() {
        let d = QuestConfig { n_items: 200, ..QuestConfig::t20_i6(500) }.generate();
        let s = DatasetStats::of(&d);
        assert_eq!(s.n_transactions, 500);
        assert!(s.avg_transaction_len > 10.0, "T20 avg len {}", s.avg_transaction_len);
    }

    #[test]
    fn t10_variant_has_longer_transactions() {
        let short = QuestConfig::t5_i2_d100k(100).generate();
        let long = QuestConfig::t10_i4_d100k(100).generate();
        assert!(
            long.avg_transaction_len() > short.avg_transaction_len(),
            "T10 should beat T5: {} vs {}",
            long.avg_transaction_len(),
            short.avg_transaction_len()
        );
    }
}
