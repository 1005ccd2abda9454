//! E8 ablations:
//!
//! * the Section 4.1 sort-order-tracking optimization (skip the loop-top
//!   sort when the previous iteration's ORDER BY is trusted);
//! * joining a support-filtered `R_1` instead of the paper's unfiltered
//!   one (`RunSpec::filter_r1`);
//! * buffer-cache size on the engine execution.

use std::time::Duration;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use setm_core::setm::engine::{self, EngineConfig};
use setm_core::setm::{memory, RunSpec};
use setm_core::{MinSupport, MiningParams};
use setm_datagen::RetailConfig;

fn bench_ablation(c: &mut Criterion) {
    // A scaled retail dataset keeps engine runs inside criterion budgets
    // while still running three iterations at 0.1%.
    let dataset = RetailConfig::small(8_000, 3).generate();
    let params = MiningParams::new(MinSupport::Fraction(0.001), 0.5);
    let sequential = RunSpec { threads: 1, ..Default::default() };
    let engine_run = |config: EngineConfig| {
        engine::execute(&dataset, &params, &config, &sequential).expect("run")
    };

    {
        let (_, tracked) = engine_run(EngineConfig { track_sort_order: true, ..Default::default() });
        let (_, naive) = engine_run(EngineConfig { track_sort_order: false, ..Default::default() });
        eprintln!(
            "\nsort-order tracking: {} vs {} page accesses (naive)",
            tracked.page_accesses, naive.page_accesses
        );
    }

    let mut group = c.benchmark_group("ablation_sort_tracking");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    group.bench_function("tracked", |b| {
        b.iter(|| engine_run(EngineConfig { track_sort_order: true, ..Default::default() }))
    });
    group.bench_function("naive_resort", |b| {
        b.iter(|| engine_run(EngineConfig { track_sort_order: false, ..Default::default() }))
    });
    group.finish();

    let mut group = c.benchmark_group("ablation_filter_r1");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(20);
    group.bench_function("paper_unfiltered", |b| {
        b.iter(|| memory::execute(&dataset, &params, &RunSpec::default()))
    });
    group.bench_function("filtered_extension", |b| {
        let spec = RunSpec { filter_r1: true, ..Default::default() };
        b.iter(|| memory::execute(&dataset, &params, &spec))
    });
    group.finish();

    let mut group = c.benchmark_group("ablation_cache_frames");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for frames in [0usize, 256, 2048] {
        group.bench_with_input(BenchmarkId::from_parameter(frames), &frames, |b, &frames| {
            b.iter(|| engine_run(EngineConfig { cache_frames: frames, ..Default::default() }))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
