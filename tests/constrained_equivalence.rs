//! The constraint-pushdown contract, property-tested (PR 10 tentpole):
//! for every backend and thread count, a constrained mine produces
//! exactly the rules a post-filtered unconstrained mine produces —
//! `constrained(run) == filter(unconstrained(run))` under
//! `MiningConstraints::matches_rule` — while counting no more (and on
//! anchored workloads strictly fewer) candidates, with the savings
//! recorded per iteration in `candidates_pruned`.
//!
//! `SETM_TEST_THREADS=<n>` pins the exercised thread count (the CI
//! `constraints` job runs this suite in release); unset, {1, 4} run.

use proptest::prelude::*;
use setm::{
    Backend, Dataset, EngineConfig, MinSupport, Miner, MiningConstraints, MiningOutcome,
    MiningParams,
};

const DEFAULT_THREAD_COUNTS: [usize; 2] = [1, 4];

fn thread_counts() -> Vec<usize> {
    match std::env::var("SETM_TEST_THREADS") {
        Ok(v) => vec![v.parse().expect("SETM_TEST_THREADS must be an unsigned integer")],
        Err(_) => DEFAULT_THREAD_COUNTS.to_vec(),
    }
}

fn backends() -> [Backend; 3] {
    [Backend::Memory, Backend::Engine(EngineConfig::default()), Backend::Sql]
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

/// Strategy: raw constraint material — overlapping draws are sanitized
/// into a valid (require, exclude, targets, min_len) combination in
/// `build_constraints`, so every generated case passes validation.
fn constraint_parts() -> impl Strategy<Value = (Vec<u32>, Vec<u32>, Vec<u32>, usize)> {
    (
        prop::collection::vec(1u32..=10, 0..=2),
        prop::collection::vec(1u32..=10, 0..=2),
        prop::collection::vec(1u32..=10, 0..=1),
        0usize..=3,
    )
}

fn build_constraints(
    (require, mut exclude, mut targets, min_len): (Vec<u32>, Vec<u32>, Vec<u32>, usize),
) -> MiningConstraints {
    exclude.retain(|it| !require.contains(it));
    targets.retain(|it| !require.contains(it) && !exclude.contains(it));
    let mut c = MiningConstraints::new().require(require).exclude(exclude).targets(targets);
    if min_len > 0 {
        c = c.min_len(min_len);
    }
    c
}

/// The pinned equivalence: constrained rules are byte-equal to the
/// post-filtered unconstrained rules, and each shared iteration counts
/// no more candidates than the unconstrained run.
fn assert_constrained_equivalent(
    unconstrained: &MiningOutcome,
    constrained: &MiningOutcome,
    c: &MiningConstraints,
    label: &str,
) {
    let filtered: Vec<_> =
        unconstrained.rules.iter().filter(|r| c.matches_rule(r)).cloned().collect();
    assert_eq!(constrained.rules, filtered, "{label}: rules == filter(unconstrained)");
    assert!(
        constrained.result.trace.len() <= unconstrained.result.trace.len(),
        "{label}: pushdown never iterates longer"
    );
    for (cons, unc) in constrained.result.trace.iter().zip(unconstrained.result.trace.iter()) {
        assert_eq!(cons.k, unc.k, "{label}: iteration order");
        assert!(
            cons.c_len <= unc.c_len,
            "{label}: |C_{}| pushed {} > unconstrained {}",
            cons.k,
            cons.c_len,
            unc.c_len
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every backend × thread count: the constrained mine equals the
    /// post-filtered unconstrained mine, all backends agree with each
    /// other (itemsets, rules, and per-iteration pruned counts), and
    /// pruning accounting is identical everywhere.
    #[test]
    fn constrained_equals_filtered_unconstrained_on_every_backend(
        d in dataset_strategy(),
        parts in constraint_parts(),
        min_count in 1u64..=4,
    ) {
        let constraints = build_constraints(parts);
        let params = MiningParams::new(MinSupport::Count(min_count), 0.4);
        let unconstrained = Miner::new(params).threads(1).run(&d).unwrap();
        let reference = Miner::new(params)
            .threads(1)
            .constraints(constraints.clone())
            .run(&d)
            .unwrap();
        assert_constrained_equivalent(&unconstrained, &reference, &constraints, "memory t=1");

        let ref_pruned: Vec<u64> =
            reference.result.trace.iter().map(|t| t.candidates_pruned).collect();
        for threads in thread_counts() {
            for backend in backends() {
                let label = format!("{} threads={threads}", backend.name());
                let outcome = Miner::new(params)
                    .backend(backend)
                    .threads(threads)
                    .constraints(constraints.clone())
                    .run(&d)
                    .unwrap();
                assert_constrained_equivalent(&unconstrained, &outcome, &constraints, &label);
                prop_assert_eq!(
                    outcome.result.frequent_itemsets(),
                    reference.result.frequent_itemsets(),
                    "{}: itemsets", &label
                );
                prop_assert_eq!(&outcome.rules, &reference.rules, "{}: rules", &label);
                let pruned: Vec<u64> =
                    outcome.result.trace.iter().map(|t| t.candidates_pruned).collect();
                prop_assert_eq!(&pruned, &ref_pruned, "{}: pruned accounting", &label);
            }
        }
    }

    /// Unconstrained runs are bit-for-bit unaffected by the constraint
    /// machinery: every trace row reports zero pruned candidates.
    #[test]
    fn unconstrained_runs_report_zero_pruning(
        d in dataset_strategy(),
        min_count in 1u64..=4,
    ) {
        for backend in backends() {
            let outcome = Miner::new(MiningParams::new(MinSupport::Count(min_count), 0.5))
                .backend(backend)
                .threads(1)
                .run(&d)
                .unwrap();
            prop_assert!(
                outcome.result.trace.iter().all(|t| t.candidates_pruned == 0),
                "{}", backend.name()
            );
        }
    }
}

/// The planted-target Quest T20.I6 workload: a fresh item planted into
/// every transaction that carries the workload's most frequent item, so
/// `target -> most_frequent` mines at confidence 1.0 while the target
/// stays absent from the rest of the candidate space.
fn planted_t20_i6() -> (Dataset, u32) {
    let config =
        setm::datagen::QuestConfig { n_items: 200, ..setm::datagen::QuestConfig::t20_i6(300) };
    let base = config.generate();
    let target = 1 + base.items().iter().copied().max().unwrap_or(0);
    let mut freq = std::collections::HashMap::new();
    for (_, items) in base.transactions() {
        for &it in items {
            *freq.entry(it).or_insert(0u64) += 1;
        }
    }
    let companion = *freq.iter().max_by_key(|(item, n)| (**n, **item)).unwrap().0;
    let txns: Vec<(u32, Vec<u32>)> = base
        .transactions()
        .map(|(tid, items)| {
            let mut items = items.to_vec();
            if items.contains(&companion) {
                items.push(target);
            }
            (tid, items)
        })
        .collect();
    let planted =
        Dataset::from_transactions(txns.iter().map(|(tid, items)| (*tid, items.as_slice())));
    (planted, target)
}

/// Pushdown effectiveness (acceptance criterion): on the planted-target
/// T20.I6 workload, anchored counting mines the same rules as
/// unconstrained-then-filter while counting *strictly fewer* total
/// candidates, on every backend — Σ|C_k| shrinks and the difference is
/// accounted for in `candidates_pruned`.
#[test]
fn anchored_counting_beats_post_filtering_on_planted_t20_i6() {
    let (dataset, target) = planted_t20_i6();
    let constraints = MiningConstraints::new().require([target]);
    let params = MiningParams::new(MinSupport::Fraction(0.02), 0.4);
    let unconstrained = Miner::new(params).threads(1).run(&dataset).unwrap();
    let sum_c = |o: &MiningOutcome| o.result.trace.iter().map(|t| t.c_len).sum::<u64>();
    let unconstrained_c = sum_c(&unconstrained);
    let filtered: Vec<_> =
        unconstrained.rules.iter().filter(|r| constraints.matches_rule(r)).cloned().collect();
    assert!(!filtered.is_empty(), "the planted target must yield rules");

    for backend in backends() {
        let outcome = Miner::new(params)
            .backend(backend)
            .threads(1)
            .constraints(constraints.clone())
            .run(&dataset)
            .unwrap();
        assert_eq!(outcome.rules, filtered, "{}: same rules", backend.name());
        let pushed = sum_c(&outcome);
        assert!(
            pushed < unconstrained_c,
            "{}: anchored Σ|C_k| = {pushed} must be strictly below {unconstrained_c}",
            backend.name()
        );
        assert!(
            outcome.result.trace.iter().map(|t| t.candidates_pruned).sum::<u64>() > 0,
            "{}: the savings must be visible in the trace",
            backend.name()
        );
    }
}
