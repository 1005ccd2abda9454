//! E10 — the engine's buffer cache: one private CLOCK cache per shard
//! pager, each holding an even slice of `cache_frames`.
//!
//! The cache is a pure I/O optimization: it must never change a mined
//! result. This suite pins that invariant as a fingerprint over itemsets,
//! rules and the logical iteration trace across `threads {1, 4} × {auto,
//! forced nested-loop}`, and pins what the split promises: every
//! configured frame is granted, zero frames means no cache, and the
//! charged I/O is deterministic per thread count.

use setm::core::rules::generate_rules;
use setm::core::setm::engine::{self, EngineConfig};
use setm::core::setm::plan::{JoinStrategy, PhysicalPlan, PlanMode};
use setm::core::setm::RunSpec;
use setm::core::Dataset;
use setm::datagen::{NeedleConfig, RetailConfig};
use setm::{EngineReport, MinSupport, MiningParams, SetmResult};

fn retail() -> (Dataset, MiningParams) {
    (RetailConfig::small(1_500, 13).generate(), MiningParams::new(MinSupport::Fraction(0.005), 0.5))
}

fn needle() -> (Dataset, MiningParams) {
    (NeedleConfig::bench().generate(), MiningParams::new(MinSupport::Count(5), 0.5))
}

/// Everything a run promises to hold constant: the mined itemsets and
/// rules, and the logical (non-I/O) per-iteration series. Page accesses
/// are deliberately excluded — they are what the cache is allowed to
/// improve.
fn fingerprint(run: &(SetmResult, EngineReport), params: &MiningParams) -> String {
    let mut out = String::new();
    for (items, count) in run.0.frequent_itemsets() {
        out.push_str(&format!("{items:?}={count};"));
    }
    for r in generate_rules(&run.0, params.min_confidence) {
        out.push_str(&format!("{:?}=>{} c{:.6};", r.antecedent, r.consequent, r.confidence));
    }
    for t in &run.0.trace {
        // The shard count is thread-dependent by design; every other
        // plan dimension must agree across the matrix.
        let plan = match &t.plan {
            Some(p) => format!(
                "{},reuse={},buf={}",
                p.join.name(),
                p.reuse_sort as u8,
                p.sort_buffer_pages
            ),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "k{} r'{} r{} c{} {plan};",
            t.k, t.r_prime_tuples, t.r_tuples, t.c_len
        ));
    }
    out
}

fn run(
    dataset: &Dataset,
    params: &MiningParams,
    threads: usize,
    mode: PlanMode,
) -> (SetmResult, EngineReport) {
    let spec = RunSpec { threads, plan_mode: mode, ..Default::default() };
    engine::execute(dataset, params, &EngineConfig::default(), &spec).unwrap()
}

fn forced_nl() -> PlanMode {
    PlanMode::Forced(PhysicalPlan { join: JoinStrategy::NestedLoop, ..PhysicalPlan::merge_scan() })
}

/// The matrix: threads 1/4 × auto/forced-NL, on both workloads, each
/// fingerprint-identical to the sequential run of the same plan mode.
#[test]
fn private_caches_mine_identical_results_across_the_matrix() {
    for (name, (dataset, params)) in [("retail", retail()), ("needle", needle())] {
        for (mode_name, mode) in [("auto", PlanMode::Auto), ("nl", forced_nl())] {
            let reference = fingerprint(&run(&dataset, &params, 1, mode), &params);
            assert!(!reference.is_empty(), "{name}: empty reference fingerprint");
            let got = fingerprint(&run(&dataset, &params, 4, mode), &params);
            assert_eq!(got, reference, "{name}: threads=4 mode={mode_name} diverged");
        }
    }
}

/// Page accesses are deterministic per thread count: repeat runs
/// reproduce the exact I/O trace, cache hits included.
#[test]
fn cached_io_is_deterministic_per_thread_count() {
    let (dataset, params) = retail();
    for threads in [1, 2, 4] {
        let a = run(&dataset, &params, threads, PlanMode::Auto);
        let b = run(&dataset, &params, threads, PlanMode::Auto);
        assert_eq!(a.1.page_accesses, b.1.page_accesses, "threads={threads}");
        assert_eq!(a.1.io, b.1.io, "threads={threads}");
        let a_trace: Vec<(u64, u64)> =
            a.0.trace.iter().map(|t| (t.page_accesses, t.cache_hits)).collect();
        let b_trace: Vec<(u64, u64)> =
            b.0.trace.iter().map(|t| (t.page_accesses, t.cache_hits)).collect();
        assert_eq!(a_trace, b_trace, "threads={threads}");
    }
}

/// Every configured frame is granted: a plain `cache_frames / n` split
/// would drop up to `n - 1` frames. The run reports the effective total
/// at every thread count, including a frame count that does not divide
/// evenly.
#[test]
fn every_configured_frame_is_granted() {
    let (dataset, params) = retail();
    for cache_frames in [0usize, 7, 256] {
        for threads in [1, 3, 4] {
            let config = EngineConfig { cache_frames, ..EngineConfig::default() };
            let spec = RunSpec { threads, ..Default::default() };
            let (_, report) = engine::execute(&dataset, &params, &config, &spec).unwrap();
            assert_eq!(
                report.cache_frames, cache_frames,
                "threads={threads}: frames granted != configured"
            );
        }
    }
}

/// `cache_frames: 0` disables caching entirely — no hits, and the run
/// reports zero effective frames.
#[test]
fn zero_frames_disables_caching() {
    let (dataset, params) = retail();
    let config = EngineConfig { cache_frames: 0, ..EngineConfig::default() };
    let spec = RunSpec { threads: 2, ..Default::default() };
    let (_, report) = engine::execute(&dataset, &params, &config, &spec).unwrap();
    assert_eq!(report.cache_frames, 0);
    assert_eq!(report.io.cache_hits, 0);
}
