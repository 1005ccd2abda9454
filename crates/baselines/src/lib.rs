//! # setm-baselines — the miners SETM is measured against
//!
//! Three from-scratch frequent-itemset miners sharing `setm-core`'s data
//! model, used by the E7 extension benchmarks and as differential-testing
//! oracles for Algorithm SETM:
//!
//! * [`ais`] — Agrawal–Imieliński–Swami (SIGMOD'93), the paper's
//!   reference \[4\] and the algorithm SETM positions itself against;
//! * [`apriori`] — Agrawal & Srikant (VLDB'94), the algorithm that
//!   superseded both;
//! * [`apriori_tid`] — its transaction-encoding variant, structurally the
//!   closest relative of SETM's `R_k` relations.
//!
//! All miners produce identical frequent itemsets on identical inputs;
//! the differences are purely in how candidates are generated and
//! counted — which is exactly what the benchmarks measure.

pub mod ais;
pub mod apriori;
pub mod apriori_tid;
pub mod trie;

use setm_core::{CountRelation, ItemVec};

/// Result shape shared by the baseline miners (mirrors
/// `setm_core::SetmResult` minus the iteration trace).
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// `counts[i]` is the frequent-itemset relation of length `i + 1`.
    pub counts: Vec<CountRelation>,
    pub n_transactions: u64,
    pub min_support_count: u64,
}

impl BaselineResult {
    /// All frequent itemsets with support counts, shortest first — the
    /// same order `SetmResult::frequent_itemsets` uses, so results are
    /// directly comparable.
    pub fn frequent_itemsets(&self) -> Vec<(ItemVec, u64)> {
        self.counts.iter().flat_map(|c| c.to_vec()).collect()
    }

    /// Longest frequent pattern length.
    pub fn max_pattern_len(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setm_core::{example, setm::memory, Dataset, MinSupport, MiningParams};
    use setm_datagen::QuestConfig;

    /// The central differential test: every miner in the workspace agrees
    /// on Quest data across a support sweep.
    #[test]
    fn all_miners_agree_on_quest_data() {
        let d = QuestConfig::t5_i2_d100k(100).generate(); // 1,000 txns
        for frac in [0.01, 0.02, 0.05] {
            let params = MiningParams::new(MinSupport::Fraction(frac), 0.5);
            let reference = memory::execute(&d, &params, &Default::default()).frequent_itemsets();
            assert_eq!(ais::mine(&d, &params).frequent_itemsets(), reference, "AIS @ {frac}");
            assert_eq!(
                apriori::mine(&d, &params).frequent_itemsets(),
                reference,
                "Apriori @ {frac}"
            );
            assert_eq!(
                apriori_tid::mine(&d, &params).frequent_itemsets(),
                reference,
                "Apriori-TID @ {frac}"
            );
        }
    }

    #[test]
    fn all_miners_agree_on_the_worked_example() {
        let d = example::paper_example_dataset();
        let params = example::paper_example_params();
        let reference = memory::execute(&d, &params, &Default::default()).frequent_itemsets();
        assert_eq!(ais::mine(&d, &params).frequent_itemsets(), reference);
        assert_eq!(apriori::mine(&d, &params).frequent_itemsets(), reference);
        assert_eq!(apriori_tid::mine(&d, &params).frequent_itemsets(), reference);
    }

    #[test]
    fn baseline_result_accessors() {
        let d = Dataset::from_transactions([(1, [1u32, 2].as_slice()), (2, [1, 2].as_slice())]);
        let r = apriori::mine(&d, &MiningParams::new(MinSupport::Count(2), 0.5));
        assert_eq!(r.max_pattern_len(), 2);
        assert_eq!(r.n_transactions, 2);
        assert_eq!(r.min_support_count, 2);
        assert_eq!(r.frequent_itemsets().len(), 3);
    }
}
