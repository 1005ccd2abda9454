//! Figure 6 — cardinality of C_i per iteration.
//!
//! The |C_i| series is printed at startup (also via `repro -- fig6`).
//! The Criterion measurement isolates the marginal cost of each extra
//! pattern length by capping `max_pattern_len` at 1, 2, 3 — i.e. the
//! price of producing C_1, then C_1..C_2, then C_1..C_3 at 0.1% support.

use std::time::Duration;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use setm_core::{setm::memory, MinSupport, MiningParams};
use setm_datagen::RetailConfig;

const SUPPORTS: [f64; 5] = [0.001, 0.005, 0.01, 0.02, 0.05];

fn bench_fig6(c: &mut Criterion) {
    let dataset = RetailConfig::paper().generate();

    eprintln!("\nFigure 6 series (|C_i| per iteration):");
    for &frac in &SUPPORTS {
        let params = MiningParams::new(MinSupport::Fraction(frac), 0.5);
        let r = memory::execute(&dataset, &params, &Default::default());
        let row: Vec<String> = r.trace.iter().map(|t| t.c_len.to_string()).collect();
        eprintln!("  minsup {:>5.2}%: [{}]", frac * 100.0, row.join(", "));
    }

    let mut group = c.benchmark_group("fig6_count_cardinality");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for max_len in [1usize, 2, 3] {
        let params =
            MiningParams::new(MinSupport::Fraction(0.001), 0.5).with_max_len(max_len);
        group.bench_with_input(
            BenchmarkId::new("levels_at_0.1pct", max_len),
            &params,
            |b, params| b.iter(|| memory::execute(&dataset, params, &Default::default())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
