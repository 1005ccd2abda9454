//! Property: the sharded parallel executions are observationally
//! identical to the sequential ones — frequent itemsets, rule sets, and
//! the per-iteration `|R'_k|` / `|R_k|` / `|C_k|` trace series — for every
//! thread count, on the in-memory, paged-engine, *and* SQL-driven paths.
//!
//! (Parallel *engine* runs are allowed to differ in `page_accesses`: the
//! decoupled filter step pays one extra scan per shard — see the module
//! docs of `setm::core::setm::engine` — so only the logical trace columns
//! are compared there.)
//!
//! `SETM_TEST_THREADS=<n>` pins the exercised thread count (the CI
//! `parallel` job's matrix); unset, the default spread below runs.

use proptest::prelude::*;
use setm::core::setm::engine::{self, EngineConfig};
use setm::core::setm::{memory, sql, RunSpec};
use setm::{generate_rules, Dataset, MinSupport, MiningParams, SetmResult};

fn threads(threads: usize) -> RunSpec<'static> {
    RunSpec { threads, ..Default::default() }
}

fn engine_run(d: &Dataset, params: &MiningParams, n: usize) -> SetmResult {
    engine::execute(d, params, &EngineConfig::default(), &threads(n)).unwrap().0
}

fn sql_run(d: &Dataset, params: &MiningParams, n: usize) -> SetmResult {
    sql::execute(d, params, &threads(n)).unwrap().0
}

const DEFAULT_THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

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
    // 1..=24 transactions of 1..=7 items drawn from a 1..=12 universe.
    prop::collection::vec(prop::collection::vec(1u32..=12, 1..=7), 1..=24).prop_map(|txns| {
        Dataset::from_transactions(
            txns.iter().enumerate().map(|(tid, items)| (tid as u32 + 1, items.as_slice())),
        )
    })
}

/// Assert the observable equivalence contract between two runs.
fn assert_equivalent(seq: &SetmResult, par: &SetmResult, label: &str) {
    assert_eq!(par.frequent_itemsets(), seq.frequent_itemsets(), "{label}: itemsets");
    assert_eq!(par.min_support_count, seq.min_support_count, "{label}: threshold");
    // Rule sets (the Section 5 output) must match, including order.
    assert_eq!(generate_rules(par, 0.5), generate_rules(seq, 0.5), "{label}: rules");
    // Trace series: same length and same logical columns per iteration.
    assert_eq!(par.trace.len(), seq.trace.len(), "{label}: trace length");
    for (a, b) in seq.trace.iter().zip(par.trace.iter()) {
        assert_eq!(a.k, b.k, "{label}: k");
        assert_eq!(a.r_prime_tuples, b.r_prime_tuples, "{label}: |R'_{}|", a.k);
        assert_eq!(a.r_tuples, b.r_tuples, "{label}: |R_{}|", a.k);
        assert_eq!(a.c_len, b.c_len, "{label}: |C_{}|", a.k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// In-memory path: every thread count mines the identical result.
    #[test]
    fn memory_parallel_equals_sequential(d in dataset_strategy(), min_count in 1u64..=5) {
        let params = MiningParams::new(MinSupport::Count(min_count), 0.5);
        let seq = memory::execute(&d, &params, &threads(1));
        for n in thread_counts() {
            let par = memory::execute(&d, &params, &threads(n));
            assert_equivalent(&seq, &par, &format!("memory threads={n}"));
        }
    }

    /// Paged-engine path: every shard count mines the identical result.
    #[test]
    fn engine_parallel_equals_sequential(d in dataset_strategy(), min_count in 1u64..=5) {
        let params = MiningParams::new(MinSupport::Count(min_count), 0.5);
        let seq = engine_run(&d, &params, 1);
        for n in thread_counts() {
            let par = engine_run(&d, &params, n);
            assert_equivalent(&seq, &par, &format!("engine threads={n}"));
        }
    }

    /// SQL-driven path: the partitioned statement pipeline mines the
    /// identical result at every shard count.
    #[test]
    fn sql_parallel_equals_sequential(d in dataset_strategy(), min_count in 1u64..=5) {
        let params = MiningParams::new(MinSupport::Count(min_count), 0.5);
        let seq = sql_run(&d, &params, 1);
        for n in thread_counts() {
            let par = sql_run(&d, &params, n);
            assert_equivalent(&seq, &par, &format!("sql threads={n}"));
        }
    }

    /// max_pattern_len caps the sharded loop exactly like the sequential.
    #[test]
    fn max_len_composes_with_sharding(d in dataset_strategy(), cap in 1usize..=3) {
        let params = MiningParams::new(MinSupport::Count(2), 0.5).with_max_len(cap);
        let seq = memory::execute(&d, &params, &threads(1));
        let par = memory::execute(&d, &params, &threads(4));
        assert_equivalent(&seq, &par, &format!("max_len={cap}"));
        let eng = engine_run(&d, &params, 4);
        assert_equivalent(&seq, &eng, &format!("engine max_len={cap}"));
        let sq = sql_run(&d, &params, 4);
        assert_equivalent(&seq, &sq, &format!("sql max_len={cap}"));
    }
}

/// Deterministic spot check on the paper's worked example: every
/// execution × thread count agrees with the default entry point.
#[test]
fn worked_example_invariant_across_all_paths_and_threads() {
    let d = setm::example::paper_example_dataset();
    let params = setm::example::paper_example_params();
    let reference = memory::execute(&d, &params, &RunSpec::default());
    for n in DEFAULT_THREAD_COUNTS {
        let mem = memory::execute(&d, &params, &threads(n));
        assert_equivalent(&reference, &mem, &format!("memory threads={n}"));
        let eng = engine_run(&d, &params, n);
        assert_equivalent(&reference, &eng, &format!("engine threads={n}"));
        let sq = sql_run(&d, &params, n);
        assert_equivalent(&reference, &sq, &format!("sql threads={n}"));
    }
}
