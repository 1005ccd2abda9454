//! Differential testing across every miner in the workspace, including
//! property-based tests against a brute-force support oracle.

use proptest::prelude::*;
use setm::baselines::{ais, apriori, apriori_tid};
use setm::core::nested_loop::{mine_nested_loop, NestedLoopOptions};
use setm::{Backend, Dataset, EngineConfig, ItemVec, MinSupport, Miner, MiningParams};

/// The facade-driven reference result (in-memory backend).
fn mine_ref(d: &Dataset, params: &MiningParams) -> setm::SetmResult {
    Miner::new(*params).run(d).unwrap().result
}

/// Strategy: a small random basket database.
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    // 1..=20 transactions of 1..=6 items drawn from a 1..=10 universe.
    prop::collection::vec(prop::collection::vec(1u32..=10, 1..=6), 1..=20).prop_map(|txns| {
        Dataset::from_transactions(
            txns.iter().enumerate().map(|(tid, items)| (tid as u32 + 1, items.as_slice())),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every support count SETM reports equals brute-force counting, and
    /// every itemset meeting minimum support is reported (completeness).
    #[test]
    fn setm_counts_match_brute_force(d in dataset_strategy(), min_count in 1u64..=5) {
        let params = MiningParams::new(MinSupport::Count(min_count), 0.0);
        let result = mine_ref(&d, &params);
        // Soundness: reported counts are exact and above threshold.
        for (pattern, count) in result.frequent_itemsets() {
            prop_assert_eq!(count, d.support_of(&pattern));
            prop_assert!(count >= min_count);
            prop_assert!(pattern.is_strictly_increasing());
        }
        // Completeness for lengths 1..=3 by exhaustive enumeration.
        let mut items: Vec<u32> = d.items().to_vec();
        items.sort_unstable();
        items.dedup();
        for (i, &a) in items.iter().enumerate() {
            if d.support_of(&[a]) >= min_count {
                prop_assert!(result.c(1).is_some_and(|c| c.contains(&[a])), "missing {{{a}}}");
            }
            for (j, &b) in items.iter().enumerate().skip(i + 1) {
                if d.support_of(&[a, b]) >= min_count {
                    prop_assert!(
                        result.c(2).is_some_and(|c| c.contains(&[a, b])),
                        "missing {{{a},{b}}}"
                    );
                }
                for &c3 in items.iter().skip(j + 1) {
                    if d.support_of(&[a, b, c3]) >= min_count {
                        prop_assert!(
                            result.c(3).is_some_and(|c| c.contains(&[a, b, c3])),
                            "missing {{{a},{b},{c3}}}"
                        );
                    }
                }
            }
        }
    }

    /// All four in-memory miners agree exactly.
    #[test]
    fn all_miners_agree(d in dataset_strategy(), min_count in 1u64..=4) {
        let params = MiningParams::new(MinSupport::Count(min_count), 0.5);
        let reference = mine_ref(&d, &params).frequent_itemsets();
        prop_assert_eq!(ais::mine(&d, &params).frequent_itemsets(), reference.clone());
        prop_assert_eq!(apriori::mine(&d, &params).frequent_itemsets(), reference.clone());
        prop_assert_eq!(apriori_tid::mine(&d, &params).frequent_itemsets(), reference);
    }

    /// The engine and SQL executions agree with the in-memory one.
    #[test]
    fn engine_and_sql_executions_agree(d in dataset_strategy(), min_count in 1u64..=4) {
        let params = MiningParams::new(MinSupport::Count(min_count), 0.5);
        let reference = mine_ref(&d, &params).frequent_itemsets();
        let miner = Miner::new(params);
        let engine =
            miner.clone().backend(Backend::Engine(EngineConfig::default())).run(&d).unwrap();
        prop_assert_eq!(engine.result.frequent_itemsets(), reference.clone());
        let sql = miner.backend(Backend::Sql).run(&d).unwrap();
        prop_assert_eq!(sql.result.frequent_itemsets(), reference);
    }

    /// The Section 3 nested-loop strategy agrees too.
    #[test]
    fn nested_loop_agrees(d in dataset_strategy(), min_count in 1u64..=4) {
        let params = MiningParams::new(MinSupport::Count(min_count), 0.5);
        let reference = mine_ref(&d, &params).frequent_itemsets();
        let nl = mine_nested_loop(&d, &params, NestedLoopOptions::default()).unwrap();
        prop_assert_eq!(nl.result.frequent_itemsets(), reference);
    }

    /// Anti-monotonicity: every prefix-closed invariant the count
    /// relations must satisfy — sub-patterns of a frequent pattern are
    /// frequent with counts at least as large.
    #[test]
    fn support_is_anti_monotone(d in dataset_strategy(), min_count in 1u64..=4) {
        let params = MiningParams::new(MinSupport::Count(min_count), 0.0);
        let result = mine_ref(&d, &params);
        for k in 2..=result.max_pattern_len() {
            let (Some(ck), Some(ck1)) = (result.c(k), result.c(k - 1)) else { continue };
            for (pattern, count) in ck.iter() {
                for drop in 0..k {
                    let sub = ItemVec::from_slice(pattern).without_index(drop);
                    let sub_count = ck1.get(sub.as_slice());
                    prop_assert!(sub_count.is_some(), "missing sub-pattern {sub:?}");
                    prop_assert!(sub_count.unwrap() >= count);
                }
            }
        }
    }

    /// Rules satisfy their definitions: confidence = pattern/antecedent
    /// support, both above thresholds.
    #[test]
    fn rule_statistics_are_consistent(d in dataset_strategy(), min_count in 1u64..=4) {
        let params = MiningParams::new(MinSupport::Count(min_count), 0.6);
        let result = mine_ref(&d, &params);
        let rules = setm::generate_rules(&result, params.min_confidence);
        for rule in rules {
            let pattern = rule.pattern();
            let pattern_support = d.support_of(&pattern);
            let ante_support = d.support_of(rule.antecedent.as_slice());
            prop_assert_eq!(rule.support_count, pattern_support);
            prop_assert!(rule.confidence >= params.min_confidence);
            let expect = pattern_support as f64 / ante_support as f64;
            prop_assert!((rule.confidence - expect).abs() < 1e-9);
            prop_assert!(rule.support_count >= min_count);
        }
    }
}

/// Regression cases that once mattered (kept deterministic).
#[test]
fn single_item_transactions_everywhere() {
    let d = Dataset::from_transactions(
        (1..=5u32).map(|t| (t, [7u32])).collect::<Vec<_>>().iter().map(|(t, i)| (*t, i.as_slice())),
    );
    let params = MiningParams::new(MinSupport::Count(3), 0.5);
    let r = mine_ref(&d, &params);
    assert_eq!(r.frequent_itemsets(), vec![(ItemVec::from([7]), 5)]);
    let e = Miner::new(params).backend(Backend::Engine(EngineConfig::default())).run(&d).unwrap();
    assert_eq!(e.result.frequent_itemsets(), r.frequent_itemsets());
}

#[test]
fn duplicate_pairs_are_collapsed_before_mining() {
    // The same (tid, item) row twice must not double-count support.
    let d = Dataset::from_pairs([(1, 5), (1, 5), (2, 5)]);
    let r = mine_ref(&d, &MiningParams::new(MinSupport::Count(2), 0.5));
    assert_eq!(r.c(1).unwrap().get(&[5]), Some(2));
}
