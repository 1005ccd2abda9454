//! The paper's thesis as an integration test: mining executed purely
//! through SQL equals the special-purpose implementations, on realistic
//! workloads, under both physical plans, and — since the partitioned
//! plan — at every thread count. Sharding the Section 4.1 statement
//! pipeline over `trans_id` partitions must be *invisible* in every
//! observable output: itemsets, rules, the `|R'_k|`/`|R_k|`/`|C_k|`
//! trace series, and the resolved threshold are identical to the
//! sequential plan.
//!
//! `SETM_TEST_THREADS=<n>` pins the exercised thread count (the CI
//! `parallel` job's matrix); unset, the default spread below runs.

use proptest::prelude::*;
use setm::core::setm::{memory, sql, RunSpec};
use setm::datagen::{QuestConfig, RetailConfig};
use setm::sql::{ExecOptions, JoinPreference, Params, SqlEngine};
use setm::{Backend, Dataset, MinSupport, Miner, MiningParams, SetmResult, SqlReport};

const DEFAULT_THREAD_COUNTS: [usize; 3] = [2, 4, 7];

fn sql_run(d: &Dataset, params: &MiningParams, threads: usize) -> (SetmResult, SqlReport) {
    sql::execute(d, params, &RunSpec { threads, ..Default::default() }).unwrap()
}

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

/// The observable-equivalence contract between two SETM results.
fn assert_equivalent(seq: &SetmResult, par: &SetmResult, label: &str) {
    assert_eq!(par.frequent_itemsets(), seq.frequent_itemsets(), "{label}: itemsets");
    assert_eq!(par.min_support_count, seq.min_support_count, "{label}: threshold");
    assert_eq!(par.trace.len(), seq.trace.len(), "{label}: trace length");
    for (a, b) in seq.trace.iter().zip(par.trace.iter()) {
        assert_eq!(a.k, b.k, "{label}: k");
        assert_eq!(a.r_prime_tuples, b.r_prime_tuples, "{label}: |R'_{}|", a.k);
        assert_eq!(a.r_tuples, b.r_tuples, "{label}: |R_{}|", a.k);
        assert_eq!(a.c_len, b.c_len, "{label}: |C_{}|", a.k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The partitioned plan is observationally identical to the
    /// sequential one, and both to the in-memory oracle.
    #[test]
    fn partitioned_sql_equals_sequential_and_memory(
        d in dataset_strategy(),
        min_count in 1u64..=5,
    ) {
        let params = MiningParams::new(MinSupport::Count(min_count), 0.5);
        let oracle = memory::execute(&d, &params, &RunSpec::default());
        let seq = sql_run(&d, &params, 1);
        assert_equivalent(&oracle, &seq.0, "sequential sql vs memory");
        for threads in thread_counts() {
            let par = sql_run(&d, &params, threads);
            assert_equivalent(&seq.0, &par.0, &format!("sql threads={threads}"));
        }
    }

    /// The partitioned statement trace always carries the two halves of
    /// the plan: per-shard pipelines and the coordinator's SUM merge
    /// under the global threshold.
    #[test]
    fn partitioned_trace_records_shards_and_merge(d in dataset_strategy()) {
        let params = MiningParams::new(MinSupport::Count(2), 0.5);
        let run = sql_run(&d, &params, 3);
        let all = run.1.statements.join("\n");
        // A single-transaction dataset clamps to one shard and runs the
        // sequential plan — the shard shapes only appear past that.
        if d.n_transactions() >= 2 {
            prop_assert!(all.contains("C1_PART_0"), "shard-local counts recorded");
            prop_assert!(
                all.contains("HAVING SUM(p.cnt) >= :minsupport"),
                "global SUM-merge threshold recorded"
            );
        }
        // The shard-local GROUP BY must not apply the threshold — support
        // is a global property.
        for stmt in &run.1.statements {
            if stmt.contains("_PART_") && stmt.contains("GROUP BY") {
                prop_assert!(!stmt.contains("HAVING"), "local counts must be threshold-free");
            }
        }
    }

    /// threads = 1 emits the paper's sequential text: no shard tables,
    /// no SUM — exactly the statements earlier releases emitted.
    #[test]
    fn sequential_plan_is_untouched_by_the_parallel_feature(d in dataset_strategy()) {
        let params = MiningParams::new(MinSupport::Count(2), 0.5);
        let run = sql_run(&d, &params, 1);
        let all = run.1.statements.join("\n");
        prop_assert!(!all.contains("SHARD"));
        prop_assert!(!all.contains("SUM("));
        prop_assert!(all.contains("HAVING COUNT(*) >= :minsupport"));
    }
}

/// Acceptance (ISSUE 5): through the facade, SQL × threads ∈ {1, 2, 4}
/// all succeed and agree with the other two backends on the worked
/// example.
#[test]
fn facade_sql_thread_sweep_on_the_worked_example() {
    let d = setm::example::paper_example_dataset();
    let params = setm::example::paper_example_params();
    let reference = Miner::new(params).run(&d).unwrap();
    assert_eq!(reference.rules.len(), 11);
    for threads in [1usize, 2, 4] {
        let outcome = Miner::new(params).backend(Backend::Sql).threads(threads).run(&d).unwrap();
        assert_eq!(outcome.rules, reference.rules, "threads={threads}");
        assert_equivalent(
            &reference.result,
            &outcome.result,
            &format!("facade sql threads={threads}"),
        );
    }
}

/// More shards than transactions degrades gracefully (the partitioner
/// caps the shard count at the transaction count).
#[test]
fn more_threads_than_transactions_is_fine() {
    let d = Dataset::from_transactions([
        (1u32, [1u32, 2, 3].as_slice()),
        (2, [1, 2, 3].as_slice()),
        (3, [1, 2].as_slice()),
    ]);
    let params = MiningParams::new(MinSupport::Count(2), 0.5);
    let seq = sql_run(&d, &params, 1);
    let par = sql_run(&d, &params, 64);
    assert_equivalent(&seq.0, &par.0, "threads=64 on 3 transactions");
}

/// The partitioned plan on a realistic workload: retail sample across
/// the thread matrix, against the in-memory reference.
#[test]
fn partitioned_sql_matches_memory_on_retail_sample() {
    let d = RetailConfig::small(800, 21).generate();
    let params = MiningParams::new(MinSupport::Fraction(0.02), 0.5);
    let miner = Miner::new(params);
    let reference = miner.clone().run(&d).unwrap();
    for threads in [2usize, 4] {
        let run = miner.clone().backend(Backend::Sql).threads(threads).run(&d).unwrap();
        assert_eq!(
            run.result.frequent_itemsets(),
            reference.result.frequent_itemsets(),
            "threads={threads}"
        );
        assert_eq!(run.rules, reference.rules, "threads={threads}");
    }
}

#[test]
fn sql_driven_setm_matches_memory_on_retail_sample() {
    let d = RetailConfig::small(1_500, 21).generate();
    for frac in [0.01, 0.03] {
        let params = MiningParams::new(MinSupport::Fraction(frac), 0.5);
        let miner = Miner::new(params);
        let reference = miner.run(&d).unwrap();
        let run = miner.backend(Backend::Sql).run(&d).unwrap();
        assert_eq!(
            run.result.frequent_itemsets(),
            reference.result.frequent_itemsets(),
            "at support {frac}"
        );
        assert_eq!(run.rules, reference.rules, "at support {frac}");
    }
}

#[test]
fn sql_driven_setm_matches_memory_on_quest_sample() {
    let d = QuestConfig::t5_i2_d100k(200).generate();
    let params = MiningParams::new(MinSupport::Fraction(0.02), 0.5);
    let miner = Miner::new(params);
    let reference = miner.run(&d).unwrap();
    let run = miner.backend(Backend::Sql).run(&d).unwrap();
    assert_eq!(run.result.frequent_itemsets(), reference.result.frequent_itemsets());
}

#[test]
fn emitted_statements_are_the_papers_queries() {
    let d = RetailConfig::small(300, 3).generate();
    let params = MiningParams::new(MinSupport::Fraction(0.02), 0.5);
    // One thread: the paper's text is the unpartitioned plan (a sharded
    // run merges with `HAVING SUM(p.cnt)`, pinned in `api_surface`).
    let run = Miner::new(params).backend(Backend::Sql).threads(1).run(&d).unwrap();
    let all = run.report.statements().unwrap().join("\n");
    // Section 3.1's C1 query.
    assert!(all.contains("GROUP BY r1.item"));
    assert!(all.contains("HAVING COUNT(*) >= :minsupport"));
    // Section 4.1's extension join and support filter.
    assert!(all.contains("q.trans_id = p.trans_id AND q.item > p.item"));
    assert!(all.contains("ORDER BY p.trans_id, p.item_1"));
    // R'_k is dropped after use, as the paper's loop discards it.
    assert!(all.contains("DROP TABLE R2_PRIME"));
}

#[test]
fn both_physical_plans_answer_identically() {
    // The same SQL text under the Section 4 plan (sort-merge) and the
    // Section 3 plan (index nested-loop over a covering index).
    let d = RetailConfig::small(800, 9).generate();
    let rows = d.sales_rows();

    let mut sm = SqlEngine::new();
    sm.load_table("SALES", &["trans_id", "item"], rows.iter().map(|r| r.as_slice())).unwrap();
    sm.set_options(ExecOptions { join: JoinPreference::SortMerge, ..Default::default() });

    let mut inl = SqlEngine::new();
    inl.load_table("SALES", &["trans_id", "item"], rows.iter().map(|r| r.as_slice())).unwrap();
    inl.database_mut().create_index("sales_tid", "SALES", &["trans_id", "item"]).unwrap();
    inl.set_options(ExecOptions { join: JoinPreference::IndexNestedLoop, ..Default::default() });

    let q = "SELECT r1.item, r2.item, COUNT(*)
             FROM SALES r1, SALES r2
             WHERE r1.trans_id = r2.trans_id AND r2.item > r1.item
             GROUP BY r1.item, r2.item
             HAVING COUNT(*) >= :minsupport";
    let p = Params::new().with("minsupport", 8);
    let a = sm.query(q, &p).unwrap();
    let b = inl.query(q, &p).unwrap();
    assert_eq!(a.rows, b.rows);
    assert!(!a.rows.is_empty(), "the comparison is vacuous without results");
}

#[test]
fn index_plan_costs_more_random_io() {
    // The Section 3-vs-4 argument measured through SQL: same query, same
    // answer, different access pattern.
    let d = RetailConfig::small(800, 9).generate();
    let rows = d.sales_rows();
    let q = "SELECT r1.item, r2.item, COUNT(*)
             FROM SALES r1, SALES r2
             WHERE r1.trans_id = r2.trans_id AND r2.item > r1.item
             GROUP BY r1.item, r2.item
             HAVING COUNT(*) >= 8";

    let mut sm = SqlEngine::new();
    sm.load_table("SALES", &["trans_id", "item"], rows.iter().map(|r| r.as_slice())).unwrap();
    sm.set_options(ExecOptions { join: JoinPreference::SortMerge, ..Default::default() });
    sm.database().reset_io_stats();
    sm.query(q, &Params::new()).unwrap();
    let sm_stats = sm.database().io_stats();

    let mut inl = SqlEngine::new();
    inl.load_table("SALES", &["trans_id", "item"], rows.iter().map(|r| r.as_slice())).unwrap();
    inl.database_mut().create_index("sales_tid", "SALES", &["trans_id", "item"]).unwrap();
    inl.set_options(ExecOptions { join: JoinPreference::IndexNestedLoop, ..Default::default() });
    inl.database().reset_io_stats();
    inl.query(q, &Params::new()).unwrap();
    let inl_stats = inl.database().io_stats();

    assert!(
        inl_stats.rand_reads > sm_stats.rand_reads,
        "index plan should be random-read heavy: {inl_stats:?} vs {sm_stats:?}"
    );
}

#[test]
fn sql_script_round_trip() {
    // A small end-to-end script through the public SQL API.
    let mut engine = SqlEngine::new();
    let p = Params::new();
    for stmt in setm::sql::parse_script(
        "CREATE TABLE SALES (trans_id INT, item INT);
         INSERT INTO SALES VALUES (1, 10), (1, 20), (2, 10), (2, 20), (3, 10);",
    )
    .unwrap()
    {
        engine.execute_statement(&stmt, &p).unwrap();
    }
    let result = engine
        .query(
            "SELECT r1.item, r2.item, COUNT(*)
             FROM SALES r1, SALES r2
             WHERE r1.trans_id = r2.trans_id AND r2.item > r1.item
             GROUP BY r1.item, r2.item
             HAVING COUNT(*) >= 2",
            &p,
        )
        .unwrap();
    assert_eq!(result.rows, vec![vec![10, 20, 2]]);
}
