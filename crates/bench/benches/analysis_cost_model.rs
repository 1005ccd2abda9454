//! Sections 3.2 / 4.3 — the analytical cost comparison, plus measured
//! engine runs of both strategies on a scaled-down uniform database.
//!
//! The analytical numbers (2,040,000 random fetches vs 120,000 sequential
//! accesses) are printed at startup; Criterion measures (a) the model
//! evaluation itself and (b) the two engine executions whose page counts
//! validate it.

use std::time::Duration;
use criterion::{criterion_group, criterion_main, Criterion};
use setm_core::nested_loop::{mine_nested_loop, NestedLoopOptions};
use setm_core::setm::engine::{self, EngineConfig};
use setm_core::setm::RunSpec;
use setm_core::{MinSupport, MiningParams};
use setm_costmodel::ComparisonReport;
use setm_datagen::UniformConfig;

fn bench_analysis(c: &mut Criterion) {
    let report = ComparisonReport::paper(3);
    eprintln!(
        "\nAnalytical: nested-loop {} random fetches ({:.1} h) vs SETM {} sequential accesses ({:.0} s) — {:.1}x",
        report.nested_loop.page_fetches,
        report.nested_loop.time_s / 3600.0,
        report.setm.page_accesses,
        report.setm.time_s,
        report.speedup()
    );

    c.bench_function("analysis/model_evaluation", |b| {
        b.iter(|| ComparisonReport::paper(std::hint::black_box(3)).speedup())
    });

    // Measured runs at 1/200 scale (1,000 transactions, same density).
    let dataset = UniformConfig::paper_scaled(200).generate();
    let params = MiningParams::new(MinSupport::Fraction(0.005), 0.5).with_max_len(2);

    let sequential = RunSpec { threads: 1, ..Default::default() };
    let setm_run = || engine::execute(&dataset, &params, &EngineConfig::default(), &sequential);
    let (_, sm) = setm_run().expect("engine run");
    let nl =
        mine_nested_loop(&dataset, &params, NestedLoopOptions::default()).expect("nl run");
    eprintln!(
        "Measured at 1/200 scale: nested-loop {} accesses vs SETM {} accesses",
        nl.total_page_accesses, sm.page_accesses
    );

    let mut group = c.benchmark_group("analysis_measured");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    group.bench_function("setm_engine", |b| {
        b.iter(|| setm_run().expect("run"))
    });
    group.bench_function("nested_loop_engine", |b| {
        b.iter(|| mine_nested_loop(&dataset, &params, NestedLoopOptions::default()).expect("run"))
    });
    group.finish();
}

criterion_group!(benches, bench_analysis);
criterion_main!(benches);
