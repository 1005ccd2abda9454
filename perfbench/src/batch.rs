//! `mine_quest` and `mine_retail`: `Miner::run` on all three backends,
//! in passes, on data generated from the seed.

use crate::layers::{self, IterClock, IterTimes};
use crate::report::Report;
use crate::serve::{self, Class, Expect};
use crate::spans::Spans;
use crate::stats::{median, Samples};
use crate::{backend, host, inputs, Args, N_BACKENDS, THREADS};
use setm_core::{Dataset, ItemVec, MinSupport, Miner, MiningOutcome, MiningParams};
use setm_datagen::{QuestConfig, RetailConfig};
use setm_incremental::concat_datasets;
use setm_serve::client::Client;
use setm_serve::registry::Registry;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SETUP_REPS: usize = 5;
/// Transactions in the append batch the incremental and registry probes use.
const BATCH: u32 = 50;
/// Offset that keeps the append batch's trans_ids clear of the base data.
const BATCH_TID_OFFSET: u32 = 10_000_000;

#[derive(Debug, Clone, Copy)]
pub enum Data {
    /// Quest T20.I6, 10,000 transactions, 1% support.
    Quest,
    /// The retail generator at paper scale, 0.1% support.
    Retail,
}

impl Data {
    fn describe(self, seed: u64) -> String {
        match self {
            Data::Quest => format!(
                "workload mine_quest: 10,000 transactions drawn with seed {seed} from QuestConfig::t20_i6(30_000) (population seed fixed), support 1%, confidence 0.5"
            ),
            Data::Retail => format!(
                "workload mine_retail: RetailConfig {{ seed: {seed}, ..RetailConfig::paper() }}, support 0.1%, confidence 0.5"
            ),
        }
    }

    fn params(self) -> MiningParams {
        match self {
            Data::Quest => MiningParams::new(MinSupport::Fraction(0.01), 0.5),
            Data::Retail => MiningParams::new(MinSupport::Fraction(0.001), 0.5),
        }
    }

    fn generate(self, seed: u64) -> Dataset {
        match self {
            Data::Quest => inputs::quest_t20_i6(seed),
            Data::Retail => RetailConfig {
                seed,
                ..RetailConfig::paper()
            }
            .generate(),
        }
    }

    /// A small batch from the same generator family, with trans_ids past
    /// the base data's.
    fn batch(self, seed: u64) -> Dataset {
        let seed = seed ^ 0xBA7C_4000;
        let d = match self {
            Data::Quest => QuestConfig {
                seed,
                ..QuestConfig::t20_i6(BATCH)
            }
            .generate(),
            Data::Retail => RetailConfig::small(BATCH, seed).generate(),
        };
        Dataset::from_transactions(d.transactions().map(|(t, i)| (t + BATCH_TID_OFFSET, i)))
    }
}

fn same_result(a: &MiningOutcome, b: &MiningOutcome) -> bool {
    a.frequent_itemsets() == b.frequent_itemsets() && a.rules == b.rules
}

pub fn run(data: Data, args: &Args, spans: &mut Spans) -> Report {
    let mut report = Report::default();
    report.line(data.describe(args.seed));
    let params = data.params();

    // Set-up is data generation; repeated, the median is reported.
    let mut setup_s = Vec::new();
    let mut dataset = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        dataset = Some(data.generate(args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let dataset = dataset.expect("SETUP_REPS > 0");
    report.line(format!(
        "data: {} transactions, {} SALES rows",
        dataset.n_transactions(),
        dataset.n_rows()
    ));

    // The timed loop: passes of one mine per backend until the deadline.
    let traced = crate::traced();
    let miners: [Miner; N_BACKENDS] =
        [0, 1, 2].map(|b| Miner::new(params).backend(backend(b)).threads(THREADS));
    let mut samples: [Samples; N_BACKENDS] = Default::default();
    let mut iterations: [Vec<IterTimes>; N_BACKENDS] = Default::default();
    let mut first: [Option<MiningOutcome>; N_BACKENDS] = Default::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut passes = 0u64;
    let mut pass_ms = Vec::new();
    while passes == 0 || Instant::now() < deadline {
        let pass_start = Instant::now();
        for (b, miner) in miners.iter().enumerate() {
            report.attempted += 1;
            let clock = Arc::new(IterClock::default());
            let miner = if traced {
                miner.clone().observer(clock.clone())
            } else {
                miner.clone()
            };
            let t0 = Instant::now();
            let result = miner.run(&dataset);
            let t1 = Instant::now();
            match result {
                Ok(outcome) => {
                    samples[b].push(layers::ms(t0, t1));
                    if traced {
                        let id = passes * N_BACKENDS as u64 + b as u64;
                        let name = backend(b).name();
                        iterations[b].push(layers::record_mine(
                            spans,
                            id,
                            name,
                            t0,
                            &clock.take(),
                            t1,
                        ));
                    }
                    match &first[b] {
                        None => first[b] = Some(outcome),
                        Some(f) if same_result(f, &outcome) => {}
                        Some(_) => report.problem(format!(
                            "{} pass {passes} differs from pass 0",
                            backend(b).name()
                        )),
                    }
                }
                Err(e) => {
                    samples[b].push_failed();
                    report.problem(format!("{} pass {passes}: {e}", backend(b).name()));
                }
            }
        }
        pass_ms.push(layers::ms(pass_start, Instant::now()));
        passes += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let peak_rss = host::peak_rss_mb();

    report.e2e("setup_s", median(&setup_s), "s", setup_s.len());
    for (b, name) in ["memory_mine_ms", "engine_mine_ms", "sql_mine_ms"]
        .iter()
        .enumerate()
    {
        report.e2e(
            name,
            samples[b].median().unwrap_or(f64::INFINITY),
            "ms",
            samples[b].len(),
        );
        report.line(format!("{name} quartiles: {}", samples[b].quartiles()));
    }
    // Mines per second at the median pass (one mine per backend): a
    // median, so a burst of host slowness moves it no more than the
    // per-backend medians.
    report.e2e(
        "ops_per_s",
        N_BACKENDS as f64 * 1e3 / median(&pass_ms),
        "1/s",
        pass_ms.len(),
    );
    report.e2e("peak_rss_mb", peak_rss, "MB", 1);
    let completed: usize = samples.iter().map(|s| s.len() - s.failed()).sum();
    report.line(format!(
        "passes = {passes}, timed wall {wall:.3} s, {:.4} mines/s over the whole loop",
        completed as f64 / wall
    ));

    let [Some(memory), Some(engine), Some(sql)] = first else {
        report.problem("a backend produced no outcome");
        return report;
    };
    let outcomes = [memory, engine, sql];
    let trace = &outcomes[0].result.trace;
    report.line(format!(
        "work: sum|R'_k| (k>=2) = {}, sum|C_k| = {}, iterations = {}",
        trace
            .iter()
            .filter(|t| t.k >= 2)
            .map(|t| t.r_prime_tuples)
            .sum::<u64>(),
        trace.iter().map(|t| t.c_len).sum::<u64>(),
        trace.len()
    ));

    if traced {
        report.layer(
            "datagen.gen_ms",
            1e3 * median(&setup_s),
            "ms",
            setup_s.len(),
        );
        layers::report_iterations(&mut report, &iterations);
        let batch = data.batch(args.seed);
        let rules_ms =
            layers::report_data_layers(&mut report, &dataset, &params, THREADS, &outcomes, &batch);
        layers::report_phase_sum(&mut report, &iterations, rules_ms);
        serve_probe(&mut report, spans, &dataset, &miners, &outcomes, &batch);
    }

    // Verification, off the clock: Apriori is the reference for the
    // itemsets, and the backends must agree on the rules.
    let mut reference = setm_baselines::apriori::mine(&dataset, &params).frequent_itemsets();
    reference.sort();
    for outcome in &outcomes {
        let mut got: Vec<(ItemVec, u64)> = outcome.frequent_itemsets();
        got.sort();
        if got != reference {
            report.problem(format!(
                "{} itemsets differ from Apriori ({} vs {})",
                outcome.report.backend_name(),
                got.len(),
                reference.len()
            ));
        }
    }
    if outcomes[1].rules != outcomes[0].rules || outcomes[2].rules != outcomes[0].rules {
        report.problem("the backends' rule lists differ");
    }
    report.line(format!(
        "checked: {} frequent itemsets equal Apriori on every backend, {} rules identical across backends",
        reference.len(),
        outcomes[0].rules.len()
    ));
    report
}

/// Traced only: serve this workload's data once per request class through
/// an in-process server, so the serve layers are measured on it too.
fn serve_probe(
    report: &mut Report,
    spans: &mut Spans,
    dataset: &Dataset,
    miners: &[Miner; N_BACKENDS],
    outcomes: &[MiningOutcome; N_BACKENDS],
    batch: &Dataset,
) {
    let mut registry = Registry::empty();
    registry.register_dataset("w", "benchmark data", dataset.clone());
    let server = match serve::start(registry) {
        Ok(s) => s,
        Err(e) => return report.problem(e),
    };
    let mut client = match Client::connect(server.addr) {
        Ok(c) => c,
        Err(e) => return report.problem(format!("probe connect: {e}")),
    };
    let mut requests = Vec::new();
    // Each backend's first request misses the cache and its repeat hits
    // it; the probe mines at the workload's own support, so the miss key
    // carries no count (0).
    for (class, b) in (0..N_BACKENDS)
        .map(|b| (Class::Miss, b))
        .chain((0..N_BACKENDS).map(|b| (Class::Hit, b)))
    {
        let expect = if class == Class::Miss {
            Expect::Miss(b, 0)
        } else {
            Expect::Hit(b)
        };
        requests.push(serve::mine(
            &mut client,
            "w",
            miners[b].clone(),
            class,
            expect,
            true,
        ));
    }
    let wire: Vec<(u32, Vec<u32>)> = batch.transactions().map(|(t, i)| (t, i.to_vec())).collect();
    requests.push(serve::append(&mut client, "w", &wire, 2));
    requests.push(serve::mine(
        &mut client,
        "w@2",
        miners[0].clone(),
        Class::Delta,
        Expect::Delta(0, 2),
        true,
    ));
    let stats = serve::server_stats(server.addr);
    if let Err(e) = server.stop() {
        report.problem(e);
    }
    for (i, r) in requests.iter().enumerate() {
        if !r.ok {
            report.problem(format!("probe {:?} request failed", r.expect));
        }
        serve::record_request(spans, (1 << 48) | i as u64, r);
    }

    let mut refs = BTreeMap::new();
    for (b, outcome) in outcomes.iter().enumerate() {
        let d = serve::outcome_digest(outcome);
        refs.insert(Expect::Miss(b, 0), d);
        refs.insert(Expect::Hit(b), d);
    }
    match miners[0].run(&concat_datasets(dataset, batch)) {
        Ok(o) => {
            refs.insert(Expect::Delta(0, 2), serve::outcome_digest(&o));
        }
        Err(e) => report.problem(format!("delta reference: {e}")),
    }
    for w in serve::verify(&requests, &refs) {
        report.problem(w);
    }
    match stats {
        Ok(stats) => {
            let traces = requests.iter().filter(|r| r.class != Class::Append).count();
            serve::report_serve_layers(report, &requests, &stats, (requests.len() + traces) as u64);
        }
        Err(e) => report.problem(e),
    }
}
