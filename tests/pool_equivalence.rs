//! E10 — shared buffer pool vs even-split private caches.
//!
//! The pool is a pure I/O optimization: it must never change a mined
//! result. This suite pins that invariant as a fingerprint over itemsets,
//! rules and the logical iteration trace across
//! `{even-split, shared-pool} × threads {1, 4} × {auto, forced
//! nested-loop}` — and then pins the *reason the pool exists*: on the
//! benched workloads its measured page accesses never exceed the
//! even-split's, because idle shards' frames are stealable.

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
/// are deliberately excluded — they are what the pool is allowed to
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
    shared_pool: bool,
    threads: usize,
    mode: PlanMode,
) -> (SetmResult, EngineReport) {
    let config = EngineConfig { shared_pool, ..EngineConfig::default() };
    let spec = RunSpec { threads, plan_mode: mode, ..Default::default() };
    engine::execute(dataset, params, &config, &spec).unwrap()
}

fn forced_nl() -> PlanMode {
    PlanMode::Forced(PhysicalPlan { join: JoinStrategy::NestedLoop, ..PhysicalPlan::merge_scan() })
}

/// The full matrix: pool on/off × threads 1/4 × auto/forced-NL, on both
/// workloads, all fingerprint-identical to the sequential even-split
/// reference.
#[test]
fn pool_and_split_mine_identical_results_across_the_matrix() {
    for (name, (dataset, params)) in [("retail", retail()), ("needle", needle())] {
        let reference = fingerprint(&run(&dataset, &params, false, 1, PlanMode::Auto), &params);
        assert!(!reference.is_empty(), "{name}: empty reference fingerprint");
        for shared_pool in [true, false] {
            for threads in [1, 4] {
                for (mode_name, mode) in [("auto", PlanMode::Auto), ("nl", forced_nl())] {
                    let got =
                        fingerprint(&run(&dataset, &params, shared_pool, threads, mode), &params);
                    let reference_for_mode = if mode_name == "auto" {
                        reference.clone()
                    } else {
                        // A forced plan changes the trace's plan strings
                        // (and may change R'_k? No — only the access
                        // path), so compare against the forced-NL
                        // sequential even-split reference instead.
                        fingerprint(&run(&dataset, &params, false, 1, forced_nl()), &params)
                    };
                    assert_eq!(
                        got, reference_for_mode,
                        "{name}: pool={shared_pool} threads={threads} mode={mode_name} diverged"
                    );
                }
            }
        }
    }
}

/// The pool's reason to exist: letting idle shards' frames be stolen can
/// only reduce disk traffic. Measured total page accesses with the
/// shared pool are never above the even-split's, at every benched thread
/// count, on both workloads.
#[test]
fn shared_pool_never_does_more_io_than_the_even_split() {
    for (name, (dataset, params)) in [("retail", retail()), ("needle", needle())] {
        for threads in [1, 2, 4] {
            let pooled = run(&dataset, &params, true, threads, PlanMode::Auto);
            let split = run(&dataset, &params, false, threads, PlanMode::Auto);
            assert!(
                pooled.1.page_accesses <= split.1.page_accesses,
                "{name} threads={threads}: pooled {} vs even-split {} page accesses",
                pooled.1.page_accesses,
                split.1.page_accesses
            );
        }
    }
}

/// Page accesses are deterministic per (config, thread count): repeat
/// runs reproduce the exact I/O trace, pool steals included.
#[test]
fn pooled_io_is_deterministic_per_thread_count() {
    let (dataset, params) = retail();
    for threads in [1, 2, 4] {
        let a = run(&dataset, &params, true, threads, PlanMode::Auto);
        let b = run(&dataset, &params, true, threads, PlanMode::Auto);
        assert_eq!(a.1.page_accesses, b.1.page_accesses, "threads={threads}");
        assert_eq!(a.1.io, b.1.io, "threads={threads}");
        let a_trace: Vec<(u64, u64, u64)> =
            a.0.trace.iter().map(|t| (t.page_accesses, t.cache_hits, t.pool_steals)).collect();
        let b_trace: Vec<(u64, u64, u64)> =
            b.0.trace.iter().map(|t| (t.page_accesses, t.cache_hits, t.pool_steals)).collect();
        assert_eq!(a_trace, b_trace, "threads={threads}");
    }
}

/// Satellite regression: every configured frame is granted — the old
/// `cache_frames / n` split silently dropped up to `n - 1` frames. The
/// run reports the effective total for both backends at every thread
/// count, including a frame count that does not divide evenly.
#[test]
fn every_configured_frame_is_granted() {
    let (dataset, params) = retail();
    for cache_frames in [0usize, 7, 256] {
        for shared_pool in [true, false] {
            for threads in [1, 3, 4] {
                let config = EngineConfig { cache_frames, shared_pool, ..EngineConfig::default() };
                let spec = RunSpec { threads, ..Default::default() };
                let (_, report) = engine::execute(&dataset, &params, &config, &spec).unwrap();
                assert_eq!(
                    report.cache_frames, cache_frames,
                    "pool={shared_pool} threads={threads}: frames granted != configured"
                );
            }
        }
    }
}

/// `cache_frames: 0` disables caching entirely — no hits, no steals, and
/// the run reports zero effective frames — regardless of the pool knob.
#[test]
fn zero_frames_disables_caching_for_both_backends() {
    let (dataset, params) = retail();
    for shared_pool in [true, false] {
        let config = EngineConfig { cache_frames: 0, shared_pool, ..EngineConfig::default() };
        let spec = RunSpec { threads: 2, ..Default::default() };
        let (_, report) = engine::execute(&dataset, &params, &config, &spec).unwrap();
        assert_eq!(report.cache_frames, 0);
        assert_eq!(report.io.cache_hits, 0, "pool={shared_pool}");
        assert_eq!(report.io.pool_steals, 0, "pool={shared_pool}");
    }
}
