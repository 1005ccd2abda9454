//! Parallel sharded SETM: speedup vs shard count.
//!
//! Charts the wall-clock of the in-memory, paged-engine, *and*
//! SQL-driven executions as the `threads` knob sweeps the shard count on
//! two workloads (the calibrated retail stand-in and a Quest T10.I4
//! basket set). Results are identical at every point — the sweep
//! isolates the cost/benefit of sharding the merge-scan passes (and, on
//! the SQL path, the whole statement pipeline) by `trans_id`.
//!
//! Set `SETM_BENCH_TINY=1` to run a seconds-scale smoke configuration
//! (used by CI to keep this target compiling and running).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use setm_core::setm::engine::{self, EngineConfig};
use setm_core::setm::{memory, sql, RunSpec};
use setm_core::{Dataset, MinSupport, MiningParams};
use setm_datagen::{QuestConfig, RetailConfig};
use std::time::{Duration, Instant};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn tiny() -> bool {
    std::env::var("SETM_BENCH_TINY").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn workloads() -> Vec<(&'static str, Dataset, MiningParams)> {
    if tiny() {
        vec![(
            "retail-tiny",
            RetailConfig::small(1_500, 13).generate(),
            MiningParams::new(MinSupport::Fraction(0.005), 0.5),
        )]
    } else {
        vec![
            (
                "retail-paper",
                RetailConfig::paper().generate(),
                MiningParams::new(MinSupport::Fraction(0.001), 0.5),
            ),
            (
                "quest-T10.I4.D10K",
                QuestConfig::t10_i4_d100k(10).generate(),
                MiningParams::new(MinSupport::Fraction(0.005), 0.5),
            ),
        ]
    }
}

/// One-shot speedup table (median of 3) printed before the criterion
/// sweep, so `cargo bench parallel_scaling` shows the headline numbers
/// even when criterion budgets are tight.
fn print_speedup_table(name: &str, dataset: &Dataset, params: &MiningParams) {
    let time_mem = |threads: usize| {
        let mut best = Duration::MAX;
        for _ in 0..3 {
            let t0 = Instant::now();
            let r = memory::execute(dataset, params, &RunSpec { threads, ..Default::default() });
            best = best.min(t0.elapsed());
            assert!(r.max_pattern_len() > 0);
        }
        best
    };
    let base = time_mem(1);
    eprintln!("\n[{name}] in-memory speedup vs threads (sequential {base:.2?}):");
    for threads in THREAD_SWEEP {
        let t = time_mem(threads);
        eprintln!(
            "  threads={threads}: {t:.2?}  ({:.2}x)",
            base.as_secs_f64() / t.as_secs_f64()
        );
    }
}

fn bench_parallel_scaling(c: &mut Criterion) {
    for (name, dataset, params) in workloads() {
        print_speedup_table(name, &dataset, &params);

        let mut group = c.benchmark_group(format!("parallel_scaling_memory/{name}"));
        group.warm_up_time(Duration::from_millis(300));
        group.measurement_time(Duration::from_secs(2));
        group.sample_size(10);
        for threads in THREAD_SWEEP {
            group.bench_with_input(
                BenchmarkId::from_parameter(threads),
                &threads,
                |b, &threads| {
                    let spec = RunSpec { threads, ..Default::default() };
                    b.iter(|| memory::execute(&dataset, &params, &spec))
                },
            );
        }
        group.finish();

        // The engine pays simulated I/O accounting on top of real work;
        // bench a reduced shard sweep to stay inside time budgets.
        let engine_dataset = if tiny() { dataset.clone() } else { RetailConfig::small(8_000, 3).generate() };
        let mut group = c.benchmark_group(format!("parallel_scaling_engine/{name}"));
        group.warm_up_time(Duration::from_millis(300));
        group.measurement_time(Duration::from_secs(2));
        group.sample_size(10);
        for threads in [1usize, 2, 4] {
            group.bench_with_input(
                BenchmarkId::from_parameter(threads),
                &threads,
                |b, &threads| {
                    let spec = RunSpec { threads, ..Default::default() };
                    let config = EngineConfig::default();
                    b.iter(|| {
                        engine::execute(&engine_dataset, &params, &config, &spec).expect("engine run")
                    })
                },
            );
        }
        group.finish();

        // The SQL execution pays parsing + planning + heap-file
        // materialization per statement on top of the mining itself, so
        // its sweep runs on a reduced workload too (the partitioned
        // statement pipeline is what is being charted, not raw speed).
        let sql_dataset =
            if tiny() { dataset.clone() } else { RetailConfig::small(2_000, 5).generate() };
        let mut group = c.benchmark_group(format!("parallel_scaling_sql/{name}"));
        group.warm_up_time(Duration::from_millis(300));
        group.measurement_time(Duration::from_secs(2));
        group.sample_size(10);
        for threads in [1usize, 2, 4] {
            group.bench_with_input(
                BenchmarkId::from_parameter(threads),
                &threads,
                |b, &threads| {
                    let spec = RunSpec { threads, ..Default::default() };
                    b.iter(|| sql::execute(&sql_dataset, &params, &spec).expect("sql run"))
                },
            );
        }
        group.finish();

        if tiny() {
            // Smoke mode: one workload is enough to prove the target runs.
            break;
        }
    }
}

criterion_group!(benches, bench_parallel_scaling);
criterion_main!(benches);
