//! The tentpole contract of the unified API, property-tested: every
//! backend reachable from `Miner::new(..).backend(..).run(..)` mines the
//! identical result — frequent itemsets, generated rules, and the
//! per-iteration `|R'_k|` / `|R_k|` / `|C_k|` trace series — at every
//! thread count, on all three backends. Since the SQL execution grew its
//! partitioned plan, `threads(n)` means the same thing everywhere, so
//! the matrix is uniform.
//!
//! `SETM_TEST_THREADS=<n>` pins the exercised thread count (the CI
//! `parallel` job runs this suite across a {1, 2, 4} matrix); unset, the
//! default spread below runs.

use proptest::prelude::*;
use setm::{Backend, Dataset, EngineConfig, MinSupport, Miner, MiningOutcome, MiningParams};

const DEFAULT_THREAD_COUNTS: [usize; 2] = [1, 4];

/// Thread counts to exercise: the `SETM_TEST_THREADS` pin, or the
/// default spread.
fn thread_counts() -> Vec<usize> {
    match std::env::var("SETM_TEST_THREADS") {
        Ok(v) => vec![v.parse().expect("SETM_TEST_THREADS must be an unsigned integer")],
        Err(_) => DEFAULT_THREAD_COUNTS.to_vec(),
    }
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

/// The observable-equivalence contract between two facade outcomes.
fn assert_equivalent(reference: &MiningOutcome, other: &MiningOutcome, label: &str) {
    assert_eq!(
        other.result.frequent_itemsets(),
        reference.result.frequent_itemsets(),
        "{label}: itemsets"
    );
    assert_eq!(other.rules, reference.rules, "{label}: rules");
    assert_eq!(
        other.result.min_support_count, reference.result.min_support_count,
        "{label}: threshold"
    );
    assert_eq!(other.result.trace.len(), reference.result.trace.len(), "{label}: trace length");
    for (a, b) in reference.result.trace.iter().zip(other.result.trace.iter()) {
        assert_eq!(a.k, b.k, "{label}: k");
        assert_eq!(a.r_prime_tuples, b.r_prime_tuples, "{label}: |R'_{}|", a.k);
        assert_eq!(a.r_tuples, b.r_tuples, "{label}: |R_{}|", a.k);
        assert_eq!(a.c_len, b.c_len, "{label}: |C_{}|", a.k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One miner, three backends, identical observable outcomes.
    #[test]
    fn all_backends_agree_through_the_facade(
        d in dataset_strategy(),
        min_count in 1u64..=5,
    ) {
        let miner = Miner::new(MiningParams::new(MinSupport::Count(min_count), 0.6));
        let reference = miner.clone().threads(1).run(&d).unwrap();

        for threads in thread_counts() {
            let mem = miner.clone().threads(threads).run(&d).unwrap();
            assert_equivalent(&reference, &mem, &format!("memory threads={threads}"));
            prop_assert!(mem.report.page_accesses().is_none());

            let eng = miner
                .clone()
                .backend(Backend::Engine(EngineConfig::default()))
                .threads(threads)
                .run(&d)
                .unwrap();
            assert_equivalent(&reference, &eng, &format!("engine threads={threads}"));
            prop_assert!(eng.report.page_accesses().is_some());

            let sql = miner.clone().backend(Backend::Sql).threads(threads).run(&d).unwrap();
            assert_equivalent(&reference, &sql, &format!("sql threads={threads}"));
            prop_assert!(sql.report.statements().is_some_and(|s| !s.is_empty()));
        }
    }

    /// The facade's support fractions are always finite — including on
    /// thresholds that eliminate everything.
    #[test]
    fn support_fractions_are_finite(d in dataset_strategy(), min_count in 1u64..=8) {
        let outcome = Miner::new(MiningParams::new(MinSupport::Count(min_count), 0.5))
            .run(&d)
            .unwrap();
        for (_, count) in outcome.result.frequent_itemsets() {
            let s = outcome.result.support_fraction(count);
            prop_assert!(s.is_finite() && s > 0.0);
        }
    }
}

/// Satellite regression: an empty dataset mines to a clean empty outcome
/// on every backend — no NaN, no panic, no error.
#[test]
fn empty_dataset_is_a_clean_empty_outcome_everywhere() {
    let empty = Dataset::from_pairs(std::iter::empty());
    let miner = Miner::new(MiningParams::new(MinSupport::Fraction(0.3), 0.7));
    for backend in [Backend::Memory, Backend::Engine(EngineConfig::default()), Backend::Sql] {
        let outcome = miner.clone().backend(backend).threads(1).run(&empty).unwrap();
        assert_eq!(outcome.result.max_pattern_len(), 0, "{}", backend.name());
        assert!(outcome.rules.is_empty(), "{}", backend.name());
        assert_eq!(outcome.result.n_transactions, 0);
        let s = outcome.result.support_fraction(0);
        assert!(!s.is_nan(), "{}: support must never be NaN", backend.name());
        assert_eq!(s, 0.0);
    }
}

/// Satellite (PR 4): the facade under concurrent use — the serving
/// layer's precondition. Eight OS threads mine the *same shared dataset*
/// simultaneously, cycling through all three backends, and every outcome
/// must be identical to the sequential reference run of the same
/// configuration. Two full rounds, so every (thread, backend) pairing
/// runs more than once.
#[test]
fn facade_is_safe_under_concurrent_mixed_backend_use() {
    use std::sync::Arc;

    let dataset = Arc::new(setm::datagen::RetailConfig::small(600, 29).generate());
    let params = MiningParams::new(MinSupport::Fraction(0.01), 0.6);
    let configs: Vec<(Miner, String)> = (0..8)
        .map(|i| {
            let (miner, label) = match i % 3 {
                0 => (Miner::new(params).threads(1 + i % 4), "memory"),
                1 => (
                    Miner::new(params)
                        .backend(Backend::Engine(EngineConfig::default()))
                        .threads(1 + i % 4),
                    "engine",
                ),
                _ => (Miner::new(params).backend(Backend::Sql).threads(1 + i % 4), "sql"),
            };
            (miner, format!("{label} (thread {i})"))
        })
        .collect();

    // Sequential references, one per configuration.
    let references: Vec<MiningOutcome> =
        configs.iter().map(|(m, _)| m.run(&dataset).unwrap()).collect();

    for round in 0..2 {
        let outcomes: Vec<MiningOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = configs
                .iter()
                .map(|(miner, _)| {
                    let dataset = Arc::clone(&dataset);
                    s.spawn(move || miner.run(&dataset).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("mining thread")).collect()
        });
        for ((outcome, reference), (_, label)) in outcomes.iter().zip(&references).zip(&configs) {
            assert_equivalent(reference, outcome, &format!("round {round}: {label}"));
            assert_eq!(
                outcome.report.backend_name(),
                reference.report.backend_name(),
                "round {round}: {label}"
            );
        }
    }
}

/// Acceptance (ISSUE 5): `Miner::new(p).backend(Backend::Sql).threads(n)
/// .run(&d)` succeeds for n ∈ {1, 2, 4} and the outcome is identical to
/// the sequential SQL plan and to the other two backends.
#[test]
fn sql_backend_honors_every_thread_count() {
    let d = setm::example::paper_example_dataset();
    let params = setm::example::paper_example_params();
    let sql_seq = Miner::new(params).backend(Backend::Sql).threads(1).run(&d).unwrap();
    let memory = Miner::new(params).threads(1).run(&d).unwrap();
    let engine =
        Miner::new(params).backend(Backend::Engine(EngineConfig::default())).run(&d).unwrap();
    assert_equivalent(&sql_seq, &memory, "memory vs sequential sql");
    assert_equivalent(&sql_seq, &engine, "engine vs sequential sql");
    for threads in [1usize, 2, 4] {
        let sql = Miner::new(params).backend(Backend::Sql).threads(threads).run(&d).unwrap();
        assert_equivalent(&sql_seq, &sql, &format!("sql threads={threads}"));
        assert!(sql.report.statements().is_some_and(|s| !s.is_empty()));
    }
}
