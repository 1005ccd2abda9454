//! Inputs from the seed.
//!
//! A Quest generator's seed also draws its table of potential large
//! itemsets, and on 10K transactions that table alone moves mining time by
//! about 14% between seeds, more than a regression bound can absorb. So
//! the Quest workloads draw a seeded sample of transactions from one
//! population generated with a fixed seed: every seed gives different
//! inputs with the same structure.

use setm_core::{Dataset, Item, TransId};
use setm_datagen::QuestConfig;

/// Seed of the fixed Quest populations.
const POPULATION_SEED: u64 = 0x5E7_1995;

/// SplitMix64: a small, fully specified generator, so a seed gives the
/// same sample on every platform and toolchain.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0); the modulo bias is below 2^-40 here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The transactions of `pool` in a seeded random order (Fisher–Yates),
/// each with its original trans_id.
pub fn shuffled(pool: &Dataset, seed: u64) -> Vec<(TransId, Vec<Item>)> {
    let mut txns: Vec<(TransId, Vec<Item>)> = pool
        .transactions()
        .map(|(t, items)| (t, items.to_vec()))
        .collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..txns.len()).rev() {
        let j = rng.below(i + 1);
        txns.swap(i, j);
    }
    txns
}

pub fn dataset(txns: &[(TransId, Vec<Item>)]) -> Dataset {
    Dataset::from_transactions(txns.iter().map(|(t, items)| (*t, items.as_slice())))
}

/// `mine_quest`: 10,000 transactions sampled from a 30,000-transaction
/// Quest T20.I6 population.
pub fn quest_t20_i6(seed: u64) -> Dataset {
    let pool = QuestConfig {
        seed: POPULATION_SEED,
        ..QuestConfig::t20_i6(30_000)
    }
    .generate();
    dataset(&shuffled(&pool, seed)[..10_000])
}

/// `serve_mixed`: a Quest T5.I2 population of `n` transactions, shuffled
/// by the seed; the caller slices it into the base and client datasets.
pub fn quest_t5_i2(n: u32, seed: u64) -> Vec<(TransId, Vec<Item>)> {
    let pool = QuestConfig {
        seed: POPULATION_SEED,
        n_txns: n,
        ..QuestConfig::t5_i2_d100k(1)
    }
    .generate();
    shuffled(&pool, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_gives_the_same_sample_and_another_seed_another() {
        let txns: Vec<(TransId, Vec<Item>)> =
            (1..=50u32).map(|t| (t, vec![t % 7, 10 + t % 3])).collect();
        let pool = dataset(&txns);
        let a = shuffled(&pool, 1);
        assert_eq!(a, shuffled(&pool, 1));
        assert_ne!(a, shuffled(&pool, 2));
        let mut tids: Vec<u32> = a.iter().map(|(t, _)| *t).collect();
        tids.sort_unstable();
        assert_eq!(
            tids,
            (1..=50).collect::<Vec<_>>(),
            "a permutation of the pool"
        );
    }
}
