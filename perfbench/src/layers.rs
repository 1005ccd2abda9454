//! Per-layer measurements for the traced mode. Each one times calls into
//! a layer's public functions from here, on the workload's own data.

use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{cache_hit_ratio, median, survival, Samples};
use setm_core::setm::memory::{count_groups, count_items, filter_supported, merge_scan_extend};
use setm_core::{
    generate_rules, CountRelation, Dataset, ExecutionReport, Miner, MiningOutcome, MiningParams,
    PatternRelation, TransId,
};
use setm_incremental::MiningFrontier;
use setm_obs::{ObsEvent, ObsSink};
use setm_serve::registry::Registry;
use setm_serve::{json, protocol};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Repetitions of each probe; the report gives their median.
const PROBE_REPS: usize = 3;

pub fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Time one call `PROBE_REPS` times; returns the median milliseconds and
/// the last result.
fn timed<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(PROBE_REPS);
    let mut last = None;
    for _ in 0..PROBE_REPS {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        times.push(t.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    (median(&times), last.expect("PROBE_REPS > 0"))
}

/// An observer that timestamps each finished iteration of one mine.
#[derive(Default)]
pub struct IterClock {
    marks: Mutex<Vec<(usize, Instant)>>,
}

impl ObsSink for IterClock {
    fn on_event(&self, event: &ObsEvent) {
        if let ObsEvent::Iteration(s) = event {
            self.marks
                .lock()
                .expect("iteration clock lock")
                .push((s.k, Instant::now()));
        }
    }
}

impl IterClock {
    pub fn take(&self) -> Vec<(usize, Instant)> {
        std::mem::take(&mut *self.marks.lock().expect("iteration clock lock"))
    }
}

/// Per-iteration times of one traced mine, split as the report names them.
#[derive(Debug, Clone, Copy, Default)]
pub struct IterTimes {
    pub k1_ms: f64,
    pub k2_ms: f64,
    pub k3plus_ms: f64,
    /// The whole `Miner::run` span.
    pub run_ms: f64,
}

/// Record a traced mine as a `mine` span with one child per iteration
/// (the k = 1 span starts at the `run` call) and return its split.
pub fn record_mine(
    spans: &mut Spans,
    id: u64,
    backend: &str,
    start: Instant,
    marks: &[(usize, Instant)],
    end: Instant,
) -> IterTimes {
    let root = spans.record(id, &format!("{backend}.run"), None, start, end);
    let mut times = IterTimes {
        run_ms: ms(start, end),
        ..IterTimes::default()
    };
    let mut prev = start;
    for &(k, at) in marks {
        spans.record(id, &format!("{backend}.k{k}"), Some(root), prev, at);
        let d = ms(prev, at);
        match k {
            1 => times.k1_ms += d,
            2 => times.k2_ms += d,
            _ => times.k3plus_ms += d,
        }
        prev = at;
    }
    times
}

/// Per-k cardinalities `(|R'_k|, |R_k|, |C_k|)` for k ≥ 2.
type Cards = Vec<(u64, u64, u64)>;

/// A single-shard replay of the Figure 4 loop through the public memory
/// kernels. Returns per-phase milliseconds (summed over iterations) and
/// the per-k cardinalities, which must equal the `Miner` trace.
pub fn kernel_replay(dataset: &Dataset, min_count: u64) -> ([f64; 6], Cards) {
    let mut t = [0.0; 6];
    let s = Instant::now();
    let c1 = count_items(dataset, min_count);
    t[0] = s.elapsed().as_secs_f64() * 1e3;
    let sales: Vec<(TransId, Vec<u32>)> = dataset
        .transactions()
        .map(|(tid, items)| (tid, items.to_vec()))
        .collect();
    let mut r_prev = PatternRelation::with_capacity(1, dataset.n_rows() as usize);
    for (tid, items) in &sales {
        for &it in items {
            r_prev.push(*tid, &[it]);
        }
    }
    let mut cards = Vec::new();
    let mut done = c1.is_empty();
    while !done {
        let s = Instant::now();
        let mut r_prime = merge_scan_extend(&r_prev, 0..r_prev.n_tuples(), &sales);
        let s1 = Instant::now();
        r_prime.sort_by_items();
        let s2 = Instant::now();
        let c_k = CountRelation::merge_sum_filter(&[count_groups(&r_prime)], min_count);
        let s3 = Instant::now();
        let mut r_k = filter_supported(&r_prime, &c_k);
        let s4 = Instant::now();
        r_k.sort_by_tid_items();
        let s5 = Instant::now();
        for (slot, (a, b)) in [(s, s1), (s1, s2), (s2, s3), (s3, s4), (s4, s5)]
            .into_iter()
            .enumerate()
        {
            t[slot + 1] += ms(a, b);
        }
        cards.push((
            r_prime.n_tuples() as u64,
            r_k.n_tuples() as u64,
            c_k.len() as u64,
        ));
        done = r_k.is_empty();
        r_prev = r_k;
    }
    (t, cards)
}

/// The per-k cardinalities the `Miner` trace recorded.
pub fn trace_cards(outcome: &MiningOutcome) -> Cards {
    outcome
        .result
        .trace
        .iter()
        .filter(|t| t.k >= 2)
        .map(|t| (t.r_prime_tuples, t.r_tuples, t.c_len))
        .collect()
}

/// Median per-iteration times of the traced mines, one list per backend
/// in `memory, engine, sql` order.
pub fn report_iterations(report: &mut Report, per_backend: &[Vec<IterTimes>; 3]) {
    for (name, times) in ["memory", "engine", "sql"].iter().zip(per_backend) {
        let pick = |f: fn(&IterTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
        report.layer(
            &format!("{name}.k1_ms"),
            pick(|t| t.k1_ms),
            "ms",
            times.len(),
        );
        report.layer(
            &format!("{name}.k2_ms"),
            pick(|t| t.k2_ms),
            "ms",
            times.len(),
        );
        report.layer(
            &format!("{name}.k3plus_ms"),
            pick(|t| t.k3plus_ms),
            "ms",
            times.len(),
        );
    }
}

/// Phase-sum check: per mine, the iteration spans plus `rules.gen_ms`
/// against the `Miner::run` span. Returns the largest |residue| in percent.
pub fn report_phase_sum(report: &mut Report, per_backend: &[Vec<IterTimes>; 3], rules_ms: f64) {
    let mut worst = 0.0f64;
    let mut residues = Vec::new();
    for (name, times) in ["memory", "engine", "sql"].iter().zip(per_backend) {
        let mut pct: Vec<f64> = Vec::new();
        for t in times {
            let parts = t.k1_ms + t.k2_ms + t.k3plus_ms + rules_ms;
            let residue = 100.0 * (t.run_ms - parts) / t.run_ms;
            worst = worst.max(residue.abs());
            pct.push(residue);
        }
        residues.push(format!("{name} median {:+.2}%", median(&pct)));
    }
    report.line(format!(
        "phase-sum residue (run - iterations - rules.gen_ms, of run): {}; worst |{:.2}|% {}",
        residues.join(", "),
        worst,
        if worst <= 5.0 { "within 5%" } else { "OVER 5%" }
    ));
    let n = per_backend.iter().map(Vec::len).sum();
    report.layer("trace.phase_sum_residue_pct", worst, "%", n);
}

/// Layers measured on the reference outcomes of the three backends and
/// on the workload's data: kernel replay, rules, SETM work counts, engine
/// I/O, SQL statements, (de)serialisation, incremental and registry.
pub fn report_data_layers(
    report: &mut Report,
    dataset: &Dataset,
    params: &MiningParams,
    threads: usize,
    outcomes: &[MiningOutcome; 3],
    batch: &Dataset,
) -> f64 {
    let [memory, engine, sql] = outcomes;

    // core::setm::memory — kernel replay.
    let mut phase_runs: Vec<[f64; 6]> = Vec::new();
    for _ in 0..PROBE_REPS {
        let (times, cards) = kernel_replay(dataset, memory.result.min_support_count);
        if cards != trace_cards(memory) {
            report.problem(format!(
                "kernel replay cardinalities {cards:?} differ from the Miner trace {:?}",
                trace_cards(memory)
            ));
        }
        phase_runs.push(times);
    }
    let names = [
        "count_items",
        "extend",
        "items_sort",
        "count",
        "filter",
        "tid_sort",
    ];
    for (i, name) in names.iter().enumerate() {
        let v: Vec<f64> = phase_runs.iter().map(|t| t[i]).collect();
        report.layer(&format!("memory.{name}_ms"), median(&v), "ms", v.len());
    }

    // core::rules.
    let (rules_ms, rules) = timed(|| generate_rules(&memory.result, params.min_confidence));
    report.layer("rules.gen_ms", rules_ms, "ms", PROBE_REPS);
    report.layer("rules.count", rules.len() as f64, "count", 1);

    // Work counts from the trace (identical on every backend).
    let later: Vec<_> = memory.result.trace.iter().filter(|t| t.k >= 2).collect();
    let r_prime: u64 = later.iter().map(|t| t.r_prime_tuples).sum();
    let r_kept: u64 = later.iter().map(|t| t.r_tuples).sum();
    let c_total: u64 = memory.result.trace.iter().map(|t| t.c_len).sum();
    report.layer("setm.r_prime_tuples", r_prime as f64, "count", 1);
    report.layer("setm.c_k_total", c_total as f64, "count", 1);
    report.layer("setm.survival", survival(r_kept, r_prime), "ratio", 1);
    report.layer(
        "setm.iterations",
        memory.result.trace.len() as f64,
        "count",
        1,
    );
    let r1 = dataset.n_rows();
    report.line(format!(
        "work: |R_1| = {r1}, sum|R'_k|/|R_1| = {:.2}, survival base sum|R'_k| = {r_prime}",
        crate::stats::ratio(r_prime as f64, r1 as f64)
    ));

    // core::setm::engine and relational.
    if let ExecutionReport::Engine(e) = &engine.report {
        report.layer("engine.page_accesses", e.page_accesses as f64, "count", 1);
        report.layer("engine.seq_reads", e.io.seq_reads as f64, "count", 1);
        report.layer("engine.seq_writes", e.io.seq_writes as f64, "count", 1);
        report.layer("engine.rand_reads", e.io.rand_reads as f64, "count", 1);
        report.layer("engine.pool_steals", e.io.pool_steals as f64, "count", 1);
        report.layer(
            "engine.cache_hit_ratio",
            cache_hit_ratio(e.io.cache_hits, e.page_accesses),
            "ratio",
            1,
        );
        report.line(format!(
            "engine: cache_hits = {}, page_accesses = {}, cache_frames = {}",
            e.io.cache_hits, e.page_accesses, e.cache_frames
        ));
    }

    // core::setm::sql and sql.
    let statements = sql.report.statements().unwrap_or(&[]);
    report.layer("sql.statements", statements.len() as f64, "count", 1);
    let (parse_ms, parsed) = timed(|| {
        statements
            .iter()
            .filter(|s| setm_sql::parse(s).is_ok())
            .count()
    });
    if parsed != statements.len() {
        report.problem(format!(
            "{} of {} emitted statements do not parse",
            statements.len() - parsed,
            statements.len()
        ));
    }
    report.layer("sql.parse_ms", parse_ms, "ms", PROBE_REPS);
    let rows = dataset.sales_rows();
    let (load_ms, loaded) = timed(|| {
        let mut engine = setm_sql::SqlEngine::new();
        engine
            .load_table(
                "SALES",
                &["trans_id", "item"],
                rows.iter().map(|r| r.as_slice()),
            )
            .is_ok()
    });
    if !loaded {
        report.problem("SqlEngine::load_table of SALES failed");
    }
    report.layer("sql.load_ms", load_ms, "ms", PROBE_REPS);

    // serve: protocol (de)serialisation of the reference outcomes.
    let mut ser = Samples::default();
    let mut dec = Samples::default();
    for _ in 0..PROBE_REPS {
        for outcome in outcomes {
            let t = Instant::now();
            let text = protocol::outcome_to_json(outcome).to_string();
            ser.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let decoded = json::parse(&text)
                .map_err(|e| e.to_string())
                .and_then(|v| protocol::outcome_from_json(&v));
            dec.push(t.elapsed().as_secs_f64() * 1e3);
            if decoded.map(|d| d.rules.len()) != Ok(outcome.rules.len()) {
                report.problem("a serialised outcome does not decode to its rules");
            }
        }
    }
    report.layer(
        "serve.serialize_ms",
        ser.median().unwrap_or(0.0),
        "ms",
        ser.len(),
    );
    report.layer(
        "client.decode_ms",
        dec.median().unwrap_or(0.0),
        "ms",
        dec.len(),
    );

    // incremental and registry.
    let (boot_ms, boot) = timed(|| MiningFrontier::bootstrap(dataset, params, threads));
    report.layer("incremental.bootstrap_ms", boot_ms, "ms", PROBE_REPS);
    match boot {
        Ok((_, frontier)) => {
            let (apply_ms, applied) = timed(|| frontier.apply_delta(dataset, batch, threads));
            report.layer("incremental.apply_delta_ms", apply_ms, "ms", PROBE_REPS);
            if let Err(e) = applied {
                report.problem(format!("MiningFrontier::apply_delta failed: {e}"));
            }
        }
        Err(e) => report.problem(format!("MiningFrontier::bootstrap failed: {e}")),
    }
    let mut append = Samples::default();
    for _ in 0..PROBE_REPS {
        let mut registry = Registry::empty();
        registry.register_dataset("w", "benchmark data", dataset.clone());
        let t = Instant::now();
        let result = registry.append_batch("w", batch.clone());
        append.push(t.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = result {
            report.problem(format!("Registry::append_batch failed: {e}"));
        }
    }
    report.layer(
        "registry.append_ms",
        append.median().unwrap_or(0.0),
        "ms",
        append.len(),
    );
    rules_ms
}

/// Mine once per backend with an [`IterClock`] attached, for workloads
/// whose timed loop does not run `Miner::run` itself.
pub fn traced_mines(
    spans: &mut Spans,
    dataset: &Dataset,
    miners: &[Miner; 3],
    reps: usize,
    first_id: u64,
) -> Result<([Vec<IterTimes>; 3], [MiningOutcome; 3]), String> {
    let mut times: [Vec<IterTimes>; 3] = Default::default();
    let mut outcomes: [Option<MiningOutcome>; 3] = Default::default();
    let mut id = first_id;
    for _ in 0..reps {
        for (b, miner) in miners.iter().enumerate() {
            let clock = Arc::new(IterClock::default());
            let observed = miner.clone().observer(clock.clone());
            let start = Instant::now();
            let outcome = observed.run(dataset).map_err(|e| e.to_string())?;
            let end = Instant::now();
            let name = miner.configured_backend().name();
            times[b].push(record_mine(spans, id, name, start, &clock.take(), end));
            id += 1;
            outcomes[b] = Some(outcome);
        }
    }
    let [m, e, s] = outcomes;
    match (m, e, s) {
        (Some(m), Some(e), Some(s)) => Ok((times, [m, e, s])),
        _ => Err("no traced mine ran".to_string()),
    }
}
