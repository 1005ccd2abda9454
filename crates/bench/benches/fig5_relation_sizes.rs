//! Figure 5 — size of relation R_i per iteration, minimum support swept
//! over {0.1, 0.5, 1, 2, 5}% on the retail-like dataset.
//!
//! The R_i series itself is deterministic and printed once at startup
//! (also available via `repro -- fig5`); the Criterion measurement is the
//! full SETM run that produces it at each support level.

use std::time::Duration;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use setm_core::{setm::memory, MinSupport, MiningParams};
use setm_datagen::RetailConfig;

const SUPPORTS: [f64; 5] = [0.001, 0.005, 0.01, 0.02, 0.05];

fn bench_fig5(c: &mut Criterion) {
    let dataset = RetailConfig::paper().generate();

    // Print the series the figure plots.
    eprintln!("\nFigure 5 series (R_i in KB per iteration):");
    for &frac in &SUPPORTS {
        let params = MiningParams::new(MinSupport::Fraction(frac), 0.5);
        let r = memory::execute(&dataset, &params, &Default::default());
        let row: Vec<String> = r.trace.iter().map(|t| format!("{:.1}", t.r_kbytes)).collect();
        eprintln!("  minsup {:>5.2}%: [{}]", frac * 100.0, row.join(", "));
    }

    let mut group = c.benchmark_group("fig5_relation_sizes");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for &frac in &SUPPORTS {
        let params = MiningParams::new(MinSupport::Fraction(frac), 0.5);
        group.bench_with_input(
            BenchmarkId::new("setm_retail", format!("{:.2}%", frac * 100.0)),
            &params,
            |b, params| b.iter(|| memory::execute(&dataset, params, &Default::default())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
