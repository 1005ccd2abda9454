//! The incremental-mining contract, property-tested: for a random base
//! dataset and a random sequence of append batches, absorbing each batch
//! through `MiningFrontier::apply_delta` produces an outcome
//! **byte-identical** (canonical serve JSON) to a from-scratch
//! `Miner::run` on the concatenated dataset — itemsets, rules, *and* the
//! per-iteration trace with its plan strings — on the memory backend at
//! threads {1, 4}. After each append the advanced frontier also replays
//! an empty batch at the other thread count, which must match a
//! from-scratch run at that count (the server's zero-step replay). The
//! engine backend re-mines from scratch, and its itemsets/rules must
//! agree with the incremental memory outcome.
//!
//! `SETM_TEST_THREADS=<n>` pins the exercised thread count, as in the
//! other equivalence suites.

use proptest::prelude::*;
use setm::incremental::{concat_datasets, ensure_disjoint_tids, MiningFrontier};
use setm::{Backend, Dataset, MinSupport, Miner, MiningParams};
use setm_serve::outcome_to_json;

const DEFAULT_THREAD_COUNTS: [usize; 2] = [1, 4];

fn thread_counts() -> Vec<usize> {
    match std::env::var("SETM_TEST_THREADS") {
        Ok(v) => vec![v.parse().expect("SETM_TEST_THREADS must be an unsigned integer")],
        Err(_) => DEFAULT_THREAD_COUNTS.to_vec(),
    }
}

/// Build a dataset from raw baskets, assigning `trans_id`s from `first`.
fn dataset_from(baskets: &[Vec<u32>], first: u32) -> Dataset {
    Dataset::from_transactions(
        baskets.iter().enumerate().map(|(i, items)| (first + i as u32, items.as_slice())),
    )
}

/// Drive one base + batch sequence through the frontier and compare
/// every append against from-scratch runs.
fn check_sequence(base_baskets: &[Vec<u32>], batches: &[Vec<Vec<u32>>], params: MiningParams) {
    for threads in thread_counts() {
        let mut base = dataset_from(base_baskets, 1);
        let mut next_tid = base_baskets.len() as u32 + 1;
        let (boot, mut frontier) = MiningFrontier::bootstrap(&base, &params, threads).unwrap();
        let full_boot = Miner::new(params).threads(threads).run(&base).unwrap();
        assert_eq!(
            outcome_to_json(&boot).to_string(),
            outcome_to_json(&full_boot).to_string(),
            "bootstrap, threads={threads}"
        );

        for (step, batch) in batches.iter().enumerate() {
            let delta = dataset_from(batch, next_tid);
            next_tid += batch.len() as u32;
            ensure_disjoint_tids(&base, &delta).unwrap();
            let concat = concat_datasets(&base, &delta);

            let (inc, advanced) = frontier.apply_delta(&base, &delta, threads).unwrap();
            let full = Miner::new(params).threads(threads).run(&concat).unwrap();
            let inc_json = outcome_to_json(&inc).to_string();
            assert_eq!(
                inc_json,
                outcome_to_json(&full).to_string(),
                "append #{step}, threads={threads}, memory"
            );

            // Zero-step replay: the advanced frontier absorbs an empty
            // batch at the other thread count, re-planning for it.
            let other = if threads == 1 { 4 } else { 1 };
            let empty = Dataset::from_pairs(std::iter::empty());
            let (replayed, _) = advanced.apply_delta(&concat, &empty, other).unwrap();
            assert_eq!(
                outcome_to_json(&replayed).to_string(),
                outcome_to_json(&Miner::new(params).threads(other).run(&concat).unwrap())
                    .to_string(),
                "append #{step} replayed at threads={other}"
            );

            // Engine lane: a from-scratch engine run agrees with the
            // incremental memory outcome on everything both report.
            let engine =
                Miner::new(params).backend(Backend::Engine(Default::default())).threads(threads);
            let eng = engine.run(&concat).unwrap();
            assert_eq!(eng.frequent_itemsets(), inc.frequent_itemsets());
            assert_eq!(eng.rules, inc.rules);

            frontier = advanced;
            base = concat;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random base, random append sequence, absolute-count threshold.
    #[test]
    fn random_append_sequences_match_from_scratch(
        base in prop::collection::vec(prop::collection::vec(1u32..=12, 1..=6), 0..=15),
        batches in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(1u32..=12, 1..=6), 0..=6),
            1..=3,
        ),
        min_count in 1u64..=4,
    ) {
        check_sequence(&base, &batches, MiningParams::new(MinSupport::Count(min_count), 0.6));
    }

    /// Fractional thresholds re-resolve against the grown transaction
    /// count on every append — the demotion/promotion stress case.
    #[test]
    fn fractional_thresholds_track_the_growing_denominator(
        base in prop::collection::vec(prop::collection::vec(1u32..=8, 1..=5), 1..=12),
        batches in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(1u32..=8, 1..=5), 1..=5),
            1..=3,
        ),
    ) {
        check_sequence(&base, &batches, MiningParams::new(MinSupport::Fraction(0.3), 0.5));
    }

    /// A capped pattern length terminates both paths identically.
    #[test]
    fn max_pattern_len_caps_agree(
        base in prop::collection::vec(prop::collection::vec(1u32..=6, 1..=5), 1..=10),
        batch in prop::collection::vec(prop::collection::vec(1u32..=6, 1..=5), 1..=5),
        cap in 1usize..=3,
    ) {
        let params = MiningParams::new(MinSupport::Count(2), 0.5).with_max_len(cap);
        check_sequence(&base, &[batch], params);
    }
}

#[test]
fn an_empty_batch_is_byte_identical_to_the_bootstrap() {
    let base: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![1, 2], vec![2, 3], vec![3, 4]];
    check_sequence(&base, &[vec![]], MiningParams::new(MinSupport::Count(2), 0.5));
}

#[test]
fn a_batch_promoting_a_below_threshold_itemset_matches() {
    // {1,2} sits at 2 of 6 under a 50% threshold; the appended baskets
    // lift it (and then {1,2,3}) over the recomputed line, exercising
    // the promoted-prefix recount of the base dataset.
    let base: Vec<Vec<u32>> =
        vec![vec![1, 2, 3], vec![1, 3], vec![2, 3], vec![1, 3], vec![2, 3], vec![1, 2, 3, 9]];
    let batches = vec![vec![vec![1, 2, 3], vec![1, 2, 3]]];
    check_sequence(&base, &batches, MiningParams::new(MinSupport::Fraction(0.5), 0.5));
}

#[test]
fn a_batch_of_entirely_new_items_matches() {
    let base: Vec<Vec<u32>> = vec![vec![1, 2], vec![1, 2, 3], vec![2, 3]];
    let batches =
        vec![vec![vec![100, 101], vec![100, 101, 102], vec![101, 102]], vec![vec![100, 101, 102]]];
    check_sequence(&base, &batches, MiningParams::new(MinSupport::Count(2), 0.5));
}

#[test]
fn an_empty_base_bootstrap_then_appends_matches() {
    let batches = vec![vec![vec![1, 2], vec![2, 3]], vec![vec![1, 2, 3]]];
    check_sequence(&[], &batches, MiningParams::new(MinSupport::Count(2), 0.5));
}
