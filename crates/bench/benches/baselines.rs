//! E7 extension — SETM vs AIS vs Apriori vs Apriori-TID on IBM
//! Quest-style data (the comparison the paper predates; history's
//! verdict, regenerated).

use std::time::Duration;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use setm_baselines::{ais, apriori, apriori_tid};
use setm_core::{setm::memory, Dataset, MinSupport, MiningParams};
use setm_datagen::QuestConfig;

fn bench_miners(c: &mut Criterion, name: &str, dataset: &Dataset) {
    let mut group = c.benchmark_group(format!("baselines_{name}"));
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for frac in [0.02, 0.01, 0.005] {
        let params = MiningParams::new(MinSupport::Fraction(frac), 0.5);
        let label = format!("{:.1}%", frac * 100.0);
        group.bench_with_input(BenchmarkId::new("setm", &label), &params, |b, p| {
            b.iter(|| memory::execute(dataset, p, &Default::default()))
        });
        group.bench_with_input(BenchmarkId::new("ais", &label), &params, |b, p| {
            b.iter(|| ais::mine(dataset, p))
        });
        group.bench_with_input(BenchmarkId::new("apriori", &label), &params, |b, p| {
            b.iter(|| apriori::mine(dataset, p))
        });
        group.bench_with_input(BenchmarkId::new("apriori_tid", &label), &params, |b, p| {
            b.iter(|| apriori_tid::mine(dataset, p))
        });
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let t5 = QuestConfig::t5_i2_d100k(20).generate(); // 5,000 txns
    let t10 = QuestConfig::t10_i4_d100k(20).generate();
    bench_miners(c, "t5_i2", &t5);
    bench_miners(c, "t10_i4", &t10);
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
