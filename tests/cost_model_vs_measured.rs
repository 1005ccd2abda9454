//! E5/E6 — the analytical cost model against page accesses measured on
//! the paged engine.
//!
//! The model (Sections 3.2/4.3) and the engine make different simplifying
//! assumptions — the model assumes pipelined sorts, free `C_k` handling
//! and worst-case no-filtering; the engine materializes every
//! intermediate — so exact equality is not expected. What must hold, and
//! is asserted here, is (a) the paper's own arithmetic exactly, (b) the
//! *ordering* and *rough magnitude* relationships between the strategies
//! when measured.

use setm::core::nested_loop::mine_nested_loop;
use setm::core::setm::engine::{self, EngineConfig};
use setm::core::setm::plan::{
    JoinStrategy, LiveStats, PhysicalPlan, PlanMode, Planner, PlannerConfig,
};
use setm::core::setm::RunSpec;
use setm::core::Dataset;
use setm::costmodel::{
    btree_model, nested_loop_c2_cost, setm_cost, ComparisonReport, DbParams, WorkloadParams,
};
use setm::datagen::{DatasetStats, NeedleConfig, UniformConfig};
use setm::{EngineReport, MinSupport, MiningParams, SetmResult};

/// One sequential engine run under `plan_mode`.
fn sequential(
    d: &Dataset,
    params: &MiningParams,
    plan_mode: PlanMode,
) -> (SetmResult, EngineReport) {
    let spec = RunSpec { threads: 1, plan_mode, ..Default::default() };
    engine::execute(d, params, &EngineConfig::default(), &spec).unwrap()
}

#[test]
fn paper_arithmetic_is_exact() {
    let db = DbParams::paper();
    let w = WorkloadParams::paper();
    // Section 3.2 index sizing.
    let item_idx = btree_model(w.n_rows(), 8, &db);
    assert_eq!((item_idx.leaf_pages, item_idx.nonleaf_pages, item_idx.levels), (4_000, 14, 3));
    let tid_idx = btree_model(w.n_rows(), 4, &db);
    assert_eq!((tid_idx.leaf_pages, tid_idx.nonleaf_pages), (2_000, 5));
    // Section 3.2 nested-loop estimate.
    let nl = nested_loop_c2_cost(&w, &db);
    assert_eq!(nl.page_fetches, 2_040_000); // "about 2,000,000"
    assert!(nl.time_s > 11.0 * 3600.0, "more than 11 hours");
    // Section 4.3 SETM bound.
    let sm = setm_cost(&w, &db, 3);
    assert_eq!(sm.r_pages, vec![4_000, 27_000]);
    assert_eq!(sm.page_accesses, 120_000); // 3*4,000 + 4*27,000
    assert_eq!(sm.time_s, 1_200.0);
}

#[test]
fn measured_strategies_order_like_the_model() {
    // 1/100 scale of the Section 3.2 database: same item universe and
    // density, 2,000 transactions.
    let dataset = UniformConfig::paper_scaled(100).generate();
    let params = MiningParams::new(MinSupport::Fraction(0.005), 0.5).with_max_len(2);

    // threads: 1 — these tests validate the *sequential* Section 4.3
    // accounting (see docs/REPRODUCTION.md, Design notes §5).
    let sm = sequential(&dataset, &params, PlanMode::Auto);
    let nl = mine_nested_loop(&dataset, &params).unwrap();
    assert_eq!(sm.0.frequent_itemsets(), nl.result.frequent_itemsets());

    // The model's core claim: nested-loop needs an order of magnitude
    // more page accesses, and its random fetches make the time gap even
    // larger than the access gap.
    assert!(
        nl.total_page_accesses > 10 * sm.1.page_accesses,
        "nested-loop {} vs SETM {} accesses",
        nl.total_page_accesses,
        sm.1.page_accesses
    );
    let access_ratio = nl.total_page_accesses as f64 / sm.1.page_accesses as f64;
    let time_ratio = nl.total_estimated_ms / sm.1.estimated_io_ms;
    assert!(
        time_ratio > access_ratio,
        "random I/O must amplify the gap: time {time_ratio:.1}x vs accesses {access_ratio:.1}x"
    );
}

#[test]
fn measured_setm_accesses_scale_with_the_model() {
    // The model bound for the scaled database, n = 3 (R_3 empty at this
    // support on uniform data).
    let db = DbParams::paper();
    let scaled = WorkloadParams { n_txns: 2_000, ..WorkloadParams::paper() };
    let bound = setm_cost(&scaled, &db, 3);

    let dataset = UniformConfig::paper_scaled(100).generate();
    let params = MiningParams::new(MinSupport::Fraction(0.005), 0.5).with_max_len(2);
    let run = sequential(&dataset, &params, PlanMode::Auto);

    // The engine materializes sorts the model pipelines, so it may exceed
    // the bound, but by a bounded constant — not an order of magnitude.
    let ratio = run.1.page_accesses as f64 / bound.page_accesses as f64;
    assert!(
        (0.3..3.0).contains(&ratio),
        "measured {} vs model bound {} (ratio {ratio:.2})",
        run.1.page_accesses,
        bound.page_accesses
    );
}

/// Rebuild the per-iteration [`LiveStats`] the planner saw from the
/// executed trace (the trace carries `|R_{k-1}|` and `|C_{k-1}|` as the
/// previous row).
fn replay_stats(dataset: &Dataset, run: &SetmResult) -> Vec<(usize, LiveStats, PhysicalPlan, u64)> {
    let s = DatasetStats::of(dataset);
    let mut prev = (dataset.n_rows(), 0u64);
    let mut out = Vec::new();
    for t in &run.trace {
        if let Some(plan) = t.plan {
            let stats = LiveStats {
                n_txns: dataset.n_transactions(),
                sales_tuples: dataset.n_rows(),
                max_txn_len: s.max_transaction_len as u64,
                r_prev_tuples: prev.0,
                c_prev_len: prev.1,
            };
            out.push((t.k, stats, plan, t.page_accesses));
        }
        prev = (t.r_tuples, t.c_len);
    }
    out
}

/// The planner's page-access predictions stay within a pinned factor of
/// what the engine then measures, on both a dense (uniform) and a
/// degenerate (needle) workload. The tolerance is asymmetric by design:
/// the prediction uses the worst-case `max_txn_len` extension bound, so
/// it may *over*estimate a merge-scan `R'_k` by several times, but it
/// must never be blindsided by more than a small factor in the other
/// direction.
#[test]
fn planner_predictions_track_measured_io() {
    let workloads: [(&str, Dataset, MiningParams); 2] = [
        ("needle", NeedleConfig::bench().generate(), MiningParams::new(MinSupport::Count(5), 0.5)),
        (
            "uniform",
            UniformConfig::paper_scaled(100).generate(),
            MiningParams::new(MinSupport::Fraction(0.005), 0.5).with_max_len(2),
        ),
    ];
    let planner = Planner::new(PlanMode::Auto, PlannerConfig::with_max_shards(1));
    for (name, dataset, params) in workloads {
        let run = sequential(&dataset, &params, PlanMode::Auto);
        let replayed = replay_stats(&dataset, &run.0);
        assert!(!replayed.is_empty(), "{name}: no planned iterations");
        for (k, stats, plan, measured) in replayed {
            let predicted = planner.predict_page_accesses(k, &stats, &plan).max(1);
            let ratio = measured as f64 / predicted as f64;
            assert!(
                (1.0 / 8.0..=2.5).contains(&ratio),
                "{name} k={k} plan={plan}: measured {measured} vs predicted {predicted} \
                 (ratio {ratio:.2} outside the pinned [0.125, 2.5])"
            );
        }
    }
}

/// The planner's acceptance workload: on the needle dataset the Auto
/// planner abandons the merge-scan mid-run (a non-default plan), and
/// that choice wins — strictly fewer measured page accesses than a
/// forced all-merge-scan run, in total and on every iteration where the
/// strategies diverge. Both runs mine identical itemsets.
#[test]
fn auto_planner_switches_joins_and_wins_on_the_needle() {
    let dataset = NeedleConfig::bench().generate();
    let params = MiningParams::new(MinSupport::Count(5), 0.5);
    let auto = sequential(&dataset, &params, PlanMode::Auto);
    let fixed = sequential(&dataset, &params, PlanMode::Forced(PhysicalPlan::merge_scan()));
    assert_eq!(auto.0.frequent_itemsets(), fixed.0.frequent_itemsets());

    let nl_iterations: Vec<usize> = auto
        .0
        .trace
        .iter()
        .filter(|t| t.plan.map(|p| p.join) == Some(JoinStrategy::NestedLoop))
        .map(|t| t.k)
        .collect();
    assert!(
        !nl_iterations.is_empty(),
        "the planner must pick a non-default join somewhere on the needle"
    );
    // The switch happens exactly where the candidate residue collapses:
    // k = 2 is still a full-relation join (merge-scan), everything after
    // probes the tiny planted residue.
    assert_eq!(nl_iterations, vec![3, 4]);

    for k in nl_iterations {
        let a = auto.0.trace.iter().find(|t| t.k == k).unwrap();
        let f = fixed.0.trace.iter().find(|t| t.k == k).unwrap();
        assert!(
            a.page_accesses <= f.page_accesses,
            "k={k}: nested-loop measured {} must not lose to merge-scan {}",
            a.page_accesses,
            f.page_accesses
        );
    }
    assert!(
        auto.1.page_accesses < fixed.1.page_accesses,
        "auto {} accesses must beat all-merge-scan {}",
        auto.1.page_accesses,
        fixed.1.page_accesses
    );
    assert!(auto.1.estimated_io_ms < fixed.1.estimated_io_ms);
}

#[test]
fn report_prints_the_comparison() {
    let report = ComparisonReport::paper(3);
    let text = report.to_string();
    assert!(text.contains("nested-loop"));
    assert!(text.contains("SETM"));
    assert!(report.speedup() > 30.0 && report.speedup() < 40.0);
}

#[test]
fn engine_iteration_io_is_attributed() {
    // Every iteration of an engine run reports page accesses, and they
    // are all nonzero until the empty final iteration's residue.
    let dataset = UniformConfig { n_items: 50, n_txns: 500, avg_txn_len: 6.0, seed: 5 }.generate();
    let params = MiningParams::new(MinSupport::Fraction(0.02), 0.5);
    let run = sequential(&dataset, &params, PlanMode::Auto);
    assert!(run.0.trace.len() >= 2);
    for t in &run.0.trace {
        assert!(t.page_accesses > 0, "iteration {} did I/O", t.k);
        assert!(t.estimated_io_ms > 0.0);
    }
    let sum: u64 = run.0.trace.iter().map(|t| t.page_accesses).sum();
    assert_eq!(sum, run.1.page_accesses);
}
