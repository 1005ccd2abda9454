//! Section 6.2 table — SETM execution time vs minimum support.
//!
//! The paper reports 6.90 / 5.30 / 4.64 / 4.22 / 3.97 seconds for
//! {0.1, 0.5, 1, 2, 5}% on a 41.1 MHz IBM RS/6000 350. The reproducible
//! claim is the *shape*: stable, mildly decreasing with support (a 1.74x
//! spread). Criterion regenerates that row on current hardware.

use std::time::Duration;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use setm_core::{setm::memory, MinSupport, MiningParams};
use setm_datagen::RetailConfig;

const SUPPORTS: [f64; 5] = [0.001, 0.005, 0.01, 0.02, 0.05];
const PAPER_SECONDS: [f64; 5] = [6.90, 5.30, 4.64, 4.22, 3.97];

fn bench_table1(c: &mut Criterion) {
    let dataset = RetailConfig::paper().generate();
    eprintln!("\nSection 6.2 reference row (RS/6000 350 seconds): {PAPER_SECONDS:?}");

    let mut group = c.benchmark_group("table1_exec_times");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(20);
    for &frac in &SUPPORTS {
        let params = MiningParams::new(MinSupport::Fraction(frac), 0.5);
        group.bench_with_input(
            BenchmarkId::new("setm", format!("{:.2}%", frac * 100.0)),
            &params,
            |b, params| b.iter(|| memory::execute(&dataset, params, &Default::default())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
