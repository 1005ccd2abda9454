//! Satellite: planner decision goldens — deterministic inputs must
//! produce deterministic plans, pinned here so a planner regression
//! shows up as a readable string diff instead of silent perf drift.
//!
//! Each case runs the Auto planner end-to-end and compares the full
//! per-iteration plan listing (`k=…: <PhysicalPlan display form>`)
//! against a pinned golden. The same listing is asserted identical
//! between the in-memory and paged-engine executions: both feed the
//! planner the same live statistics, so a divergence means one backend
//! is lying about its stats.
//!
//! When a *deliberate* cost-model change shifts a decision, update the
//! golden here and in `repro`'s baseline (`check-baseline` treats plan
//! strings as drift-checked too) in the same commit, with the reasoning
//! in the message.

use setm::core::setm::engine::{self, EngineConfig};
use setm::core::setm::plan::PlanMode;
use setm::core::setm::RunSpec;
use setm::core::Dataset;
use setm::datagen::{NeedleConfig, QuestConfig, RetailConfig};
use setm::{example, Backend, MinSupport, Miner, MiningParams};

/// The per-iteration plan listing of an Auto run, one line per
/// iteration, on both the memory and engine backends (asserted equal).
fn planned(dataset: &Dataset, params: MiningParams, threads: usize) -> Vec<String> {
    let mem = Miner::new(params).backend(Backend::Memory).threads(threads).run(dataset).unwrap();
    let lines: Vec<String> =
        mem.result.trace.iter().map(|t| format!("k={}: {}", t.k, t.plan_string())).collect();
    let spec = RunSpec { threads, plan_mode: PlanMode::Auto, ..Default::default() };
    let (eng, _) = engine::execute(dataset, &params, &EngineConfig::default(), &spec).unwrap();
    let eng_lines: Vec<String> =
        eng.trace.iter().map(|t| format!("k={}: {}", t.k, t.plan_string())).collect();
    assert_eq!(lines, eng_lines, "memory and engine planners must agree");
    lines
}

#[test]
fn worked_example_plans_are_pinned() {
    let dataset = example::paper_example_dataset();
    let params = example::paper_example_params();
    // Ten transactions: everything fits in pages, the sort buffer
    // bottoms out, and past k = 2 the residue collapses to one shard.
    assert_eq!(
        planned(&dataset, params, 1),
        [
            "k=1: -",
            "k=2: merge-scan,reuse=1,shards=1,buf=4",
            "k=3: merge-scan,reuse=1,shards=1,buf=4",
            "k=4: merge-scan,reuse=1,shards=1,buf=4",
        ]
    );
    assert_eq!(
        planned(&dataset, params, 4),
        [
            "k=1: -",
            "k=2: merge-scan,reuse=1,shards=4,buf=4",
            "k=3: merge-scan,reuse=1,shards=1,buf=4",
            "k=4: merge-scan,reuse=1,shards=1,buf=4",
        ]
    );
}

#[test]
fn retail_table1_plans_are_pinned() {
    // The Section 6 retail stand-in at CI scale (2,000 transactions,
    // seed 7) — dense enough that the sort buffer shrinks iteration by
    // iteration as R_k thins out.
    let dataset = RetailConfig::small(2_000, 7).generate();
    let params = MiningParams::new(MinSupport::Fraction(0.005), 0.5);
    assert_eq!(
        planned(&dataset, params, 1),
        [
            "k=1: -",
            "k=2: merge-scan,reuse=1,shards=1,buf=256",
            "k=3: merge-scan,reuse=1,shards=1,buf=80",
            "k=4: merge-scan,reuse=1,shards=1,buf=12",
        ]
    );
    assert_eq!(
        planned(&dataset, params, 4),
        [
            "k=1: -",
            "k=2: merge-scan,reuse=1,shards=4,buf=256",
            "k=3: merge-scan,reuse=1,shards=4,buf=80",
            "k=4: merge-scan,reuse=1,shards=1,buf=12",
        ]
    );
}

#[test]
fn quest_t10_plans_are_pinned() {
    // Quest T10.I4.100K scaled 1:100 — the longest run here (k = 6);
    // the shard fan-out survives while R_k is wide and collapses for
    // the page-sized tail.
    let dataset = QuestConfig::t10_i4_d100k(100).generate();
    let params = MiningParams::new(MinSupport::Fraction(0.01), 0.5);
    assert_eq!(
        planned(&dataset, params, 1),
        [
            "k=1: -",
            "k=2: merge-scan,reuse=1,shards=1,buf=256",
            "k=3: merge-scan,reuse=1,shards=1,buf=256",
            "k=4: merge-scan,reuse=1,shards=1,buf=96",
            "k=5: merge-scan,reuse=1,shards=1,buf=28",
            "k=6: merge-scan,reuse=1,shards=1,buf=6",
        ]
    );
    assert_eq!(
        planned(&dataset, params, 4),
        [
            "k=1: -",
            "k=2: merge-scan,reuse=1,shards=4,buf=256",
            "k=3: merge-scan,reuse=1,shards=4,buf=256",
            "k=4: merge-scan,reuse=1,shards=4,buf=96",
            "k=5: merge-scan,reuse=1,shards=1,buf=28",
            "k=6: merge-scan,reuse=1,shards=1,buf=6",
        ]
    );
}

#[test]
fn needle_plans_switch_to_nested_loop() {
    // The planner's acceptance workload: the join strategy itself flips
    // once the candidate residue collapses (see
    // `cost_model_vs_measured.rs` for the measured win).
    let dataset = NeedleConfig::bench().generate();
    let params = MiningParams::new(MinSupport::Count(5), 0.5);
    assert_eq!(
        planned(&dataset, params, 1),
        [
            "k=1: -",
            "k=2: merge-scan,reuse=1,shards=1,buf=256",
            "k=3: nested-loop,reuse=1,shards=1,buf=4",
            "k=4: nested-loop,reuse=1,shards=1,buf=4",
        ]
    );
    assert_eq!(
        planned(&dataset, params, 4),
        [
            "k=1: -",
            "k=2: merge-scan,reuse=1,shards=4,buf=256",
            "k=3: nested-loop,reuse=1,shards=1,buf=4",
            "k=4: nested-loop,reuse=1,shards=1,buf=4",
        ]
    );
}
