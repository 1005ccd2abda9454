//! Reproduction harness: regenerates every table and figure of
//! Houtsma & Swami (ICDE 1995).
//!
//! ```text
//! cargo run --release -p setm-bench --bin repro -- <target> [backend <name>]
//!
//! targets:
//!   example    Figures 1-3 + the Section 5 rule listing (worked example)
//!   fig5       Figure 5  — size of relation R_i per iteration
//!   fig6       Figure 6  — cardinality of C_i per iteration
//!   table1     Section 6.2 — SETM execution time vs minimum support
//!   analysis   Sections 3.2/4.3 — analytical cost comparison + measured
//!              validation on the paged engine
//!   baselines  E7 extension — SETM vs AIS vs Apriori vs Apriori-TID
//!   ablation   E8 — sort-order tracking (forced `reuse=1` vs `reuse=0`
//!              plans) and buffer-cache frames on the paged engine, each
//!              result checked
//!   parallel   sharded parallel SETM — wall clock vs thread count on both
//!              the in-memory and paged-engine paths
//!   serve      served mining throughput — an in-process `setm-serve`
//!              server under a mixed-backend client sweep (1/4/16 clients)
//!   primitives the paged engine's building blocks in isolation — external
//!              sort (single- and multi-pass merges), INSERT … SELECT,
//!              merge-scan join, grouped count, B+-tree prefix probe
//!              (median of a fixed number of reps, every result checked)
//!   poolscale  paper-scale trajectory — Quest T20.I6 at 100K-1M
//!              transactions across the memory / engine / SQL backends,
//!              charting where they diverge (engine and SQL are cut off
//!              at the scale where a run stops being minutes-scale)
//!   incremental  absorb a 1K-transaction append into a 100K Quest
//!              T20.I6 base via a captured `MiningFrontier` and compare
//!              against a full re-mine — outcomes must be byte-identical
//!              and the append must finish in <25% of the re-mine wall
//!              time; honors SETM_BENCH_TINY=1
//!   baseline   write BENCH_baseline.json (machine info + per-workload
//!              wall/I-O numbers, sequential vs parallel — including the
//!              partitioned SQL series — plus the serve sweep and the
//!              serve saturation knee (each with scheduler queue-wait
//!              percentiles), the poolscale trajectory, the
//!              incremental-vs-remine ratio, the constrained-pushdown
//!              vs post-filter comparison, and a machine-independent
//!              `deterministic` counter section) for perf diffing;
//!              honors SETM_BENCH_TINY=1
//!   check-baseline [candidate] [reference]
//!              compare the `deterministic` counters of a candidate
//!              baseline (default ci_baseline.json) against a reference
//!              (default BENCH_baseline.json); exit 1 on any drift.
//!              Wall-clock fields are reported, between files of one
//!              `config` (tiny or full) only, and never gated. Only
//!              files of one `schema` are compared: a mismatch exits 2
//!              and names both files (regenerate with `baseline`).
//!   all        every report target above, in order (baseline excluded)
//! ```
//!
//! Every workload runs through the unified `Miner` facade, so every
//! target is runnable on every execution: `backend <name>` (or the
//! `SETM_BACKEND={memory,engine,sql}` env var) picks the backend for the
//! sweeps — e.g. `repro -- example backend sql` mines the worked example
//! by executing the paper's Section 4.1 SQL. Targets that *measure* a
//! specific execution (`analysis`, `ablation`, `parallel`, `baseline`)
//! pin their backends explicitly. All three executions honor the thread
//! knob — the SQL execution shards its statement pipeline over
//! `trans_id` partitions.
//!
//! `SETM_THREADS=<n>` pins the thread count used by the timing sweeps
//! (`0`/unset = the machine's available parallelism). `SETM_BENCH_TINY=1`
//! shrinks the `baseline` workloads to a seconds-scale CI configuration
//! (the `deterministic` section is fixed-size and identical either way).

use setm_baselines::{ais, apriori, apriori_tid};
use setm_bench::loadgen::{
    mixed_request, queue_wait_percentiles, run_load, start_bench_server, stop_bench_server,
    LoadConfig,
};
use setm_core::nested_loop::mine_nested_loop;
use setm_core::setm::engine::EngineConfig;
use setm_core::setm::plan::{PhysicalPlan, PlanMode};
use setm_core::{Backend, MinSupport, Miner, MiningConstraints, MiningParams, SetmResult};
use setm_costmodel::ComparisonReport;
use setm_datagen::{DatasetStats, NeedleConfig, QuestConfig, RetailConfig, UniformConfig};
use setm_incremental::MiningFrontier;
use setm_relational::agg::grouped_count;
use setm_relational::btree::BulkLoader;
use setm_relational::join::merge_scan_join;
use setm_relational::sort::sort_rows;
use setm_relational::{external_sort, HeapFile, Pager, SharedPager, SortOptions};
use setm_serve::outcome_to_json;
use setm_sql::{Params, SqlEngine};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const RETAIL_SUPPORTS: [f64; 5] = [0.001, 0.005, 0.01, 0.02, 0.05];

/// The backend selected for the sweeps (CLI `backend <name>` or the
/// `SETM_BACKEND` env var; memory when unset).
static BACKEND: OnceLock<Backend> = OnceLock::new();

fn backend() -> Backend {
    *BACKEND.get().expect("backend initialized in main")
}

fn parse_backend(name: &str) -> Option<Backend> {
    // The one shared name↔backend mapping (also the serve protocol's).
    name.parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<String> = Vec::new();
    let mut backend_name: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "backend" {
            match args.get(i + 1) {
                Some(name) => backend_name = Some(name.clone()),
                None => {
                    eprintln!("`backend` needs a name: memory, engine, or sql");
                    std::process::exit(2);
                }
            }
            i += 2;
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    let backend_name = backend_name
        .or_else(|| std::env::var("SETM_BACKEND").ok())
        .unwrap_or_else(|| "memory".to_string());
    let Some(chosen) = parse_backend(&backend_name) else {
        eprintln!("unknown backend {backend_name}; expected memory, engine, or sql");
        std::process::exit(2);
    };
    BACKEND.set(chosen).expect("backend set once");

    let target = positional.first().cloned().unwrap_or_else(|| "all".to_string());
    match target.as_str() {
        "example" => repro_example(),
        "fig5" => repro_fig5(),
        "fig6" => repro_fig6(),
        "table1" => repro_table1(),
        "analysis" => repro_analysis(),
        "baselines" => repro_baselines(),
        "ablation" => repro_ablation(),
        "parallel" => repro_parallel(),
        "serve" => repro_serve(),
        "primitives" => repro_primitives(),
        "poolscale" => repro_poolscale(),
        "incremental" => repro_incremental(),
        "baseline" => repro_baseline(positional.get(1).cloned()),
        "check-baseline" => {
            repro_check_baseline(positional.get(1).cloned(), positional.get(2).cloned())
        }
        "all" => {
            repro_example();
            repro_fig5();
            repro_fig6();
            repro_table1();
            repro_analysis();
            repro_baselines();
            repro_ablation();
            repro_parallel();
            repro_serve();
            repro_primitives();
            repro_poolscale();
            repro_incremental();
        }
        other => {
            eprintln!("unknown target {other}; see the source header for targets");
            std::process::exit(2);
        }
    }
}

fn banner(title: &str) {
    println!("\n==== {title} ====\n");
}

/// Thread count for the timing sweeps: `SETM_THREADS` env var, with
/// `0`/unset meaning the machine's available parallelism.
fn threads_from_env() -> usize {
    std::env::var("SETM_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Run one mining workload through the unified facade on the selected
/// backend. Every backend honors `threads` (the SQL execution shards its
/// statement pipeline), so the knob passes through unconditionally.
fn run_miner(dataset: &setm_core::Dataset, params: &MiningParams, threads: usize) -> SetmResult {
    let b = backend();
    match Miner::new(*params).backend(b).threads(threads).run(dataset) {
        Ok(outcome) => outcome.result,
        Err(e) => {
            eprintln!("mining failed on the {} backend: {e}", b.name());
            std::process::exit(1);
        }
    }
}

/// Best-of-n wall clock of a mining closure.
fn best_of<T>(n: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..n {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed());
        out = Some(r);
    }
    (best, out.expect("at least one run"))
}

fn letters(pattern: &[u32]) -> String {
    pattern
        .iter()
        .map(|&i| setm_core::example::item_letter(i).to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

fn repro_example() {
    use setm_core::example;
    banner("Worked example (Section 4.2, Figures 1-3, Section 5)");
    let d = example::paper_example_dataset();
    let params = example::paper_example_params();
    let outcome = Miner::new(params).backend(backend()).run(&d).unwrap_or_else(|e| {
        eprintln!("mining failed: {e}");
        std::process::exit(1);
    });
    println!("backend: {}", outcome.report.backend_name());
    let result = &outcome.result;
    for k in 1..=result.max_pattern_len() {
        let c = result.c(k).expect("level exists");
        println!("C{k}:");
        for (pattern, count) in c.iter() {
            println!("  {:<8} {}", letters(pattern), count);
        }
    }
    println!("\nRules at 70% confidence ([confidence, support]):");
    for rule in &outcome.rules {
        println!("  {}", example::format_rule_lettered(rule));
    }
    println!("\nIteration trace:");
    for t in &result.trace {
        println!(
            "  k={}: |R'_{}|={:<3} |R_{}|={:<3} |C_{}|={}",
            t.k, t.k, t.r_prime_tuples, t.k, t.r_tuples, t.k, t.c_len
        );
    }
    if let Some(statements) = outcome.report.statements() {
        println!("\nExecuted {} SQL statements (Section 4.1 text).", statements.len());
    }
    if let Some(accesses) = outcome.report.page_accesses() {
        println!("\nPage accesses on the paged engine: {accesses}");
    }
}

fn retail_sweep() -> Vec<(f64, SetmResult, Duration)> {
    let dataset = RetailConfig::paper().generate();
    let stats = DatasetStats::of(&dataset);
    println!(
        "dataset: {} txns, {} rows, avg {:.3} items/txn, |C1@0.1%| = {} — backend: {}",
        stats.n_transactions,
        stats.n_rows,
        stats.avg_transaction_len,
        stats.items_with_support_at_least(47),
        backend().name()
    );
    let threads = threads_from_env();
    RETAIL_SUPPORTS
        .iter()
        .map(|&frac| {
            let params = MiningParams::new(MinSupport::Fraction(frac), 0.5);
            // Best of three to stabilize the timing column.
            let (best, result) = best_of(3, || run_miner(&dataset, &params, threads));
            (frac, result, best)
        })
        .collect()
}

fn repro_fig5() {
    banner("Figure 5 — size of relation R_i (Kbytes) per iteration");
    let sweep = retail_sweep();
    print!("{:>9}", "minsup");
    for i in 1..=4 {
        print!("{:>11}", format!("R_{i} (KB)"));
    }
    println!();
    for (frac, result, _) in &sweep {
        print!("{:>8.2}%", frac * 100.0);
        for i in 1..=4 {
            let kb = result.trace.iter().find(|t| t.k == i).map(|t| t.r_kbytes).unwrap_or(0.0);
            print!("{:>11.1}", kb);
        }
        println!();
    }
    println!("\npaper shape: |R_1| fixed at 115,568 tuples (~903 KB); R_i shrinks");
    println!("sharply after iteration 2, faster for larger minimum support; R_4 = 0.");
}

fn repro_fig6() {
    banner("Figure 6 — cardinality of C_i per iteration");
    let sweep = retail_sweep();
    print!("{:>9}", "minsup");
    for i in 1..=4 {
        print!("{:>9}", format!("|C_{i}|"));
    }
    println!();
    for (frac, result, _) in &sweep {
        print!("{:>8.2}%", frac * 100.0);
        for i in 1..=4 {
            let c = result.trace.iter().find(|t| t.k == i).map(|t| t.c_len).unwrap_or(0);
            print!("{:>9}", c);
        }
        println!();
    }
    println!("\npaper shape: |C_1| = 59; at small minimum support |C_2| rises above");
    println!("|C_1| before the curve collapses; |C_4| = 0 everywhere (>= 0.1%).");
}

fn repro_table1() {
    banner("Section 6.2 — execution time vs minimum support");
    let sweep = retail_sweep();
    println!("{:>9} {:>14} {:>22}", "minsup", "time (this HW)", "paper (RS/6000 350)");
    let paper = [6.90, 5.30, 4.64, 4.22, 3.97];
    for ((frac, _, time), paper_s) in sweep.iter().zip(paper.iter()) {
        println!("{:>8.2}% {:>14.2?} {:>21.2}s", frac * 100.0, time, paper_s);
    }
    let ratio = sweep[0].2.as_secs_f64() / sweep[4].2.as_secs_f64();
    println!(
        "\nstability: slowest/fastest = {:.2}x (paper: {:.2}x). Absolute numbers are",
        ratio,
        6.90 / 3.97
    );
    println!("not comparable across 30 years of hardware; the stable, mildly");
    println!("decreasing shape is the claim.");
}

/// An engine-backed facade run, with the per-run report (the `analysis`,
/// `ablation`, `parallel`, and `baseline` targets pin this backend — they
/// measure it).
fn run_on_engine(
    dataset: &setm_core::Dataset,
    params: &MiningParams,
    config: EngineConfig,
    threads: usize,
) -> setm_core::MiningOutcome {
    Miner::new(*params)
        .backend(Backend::Engine(config))
        .threads(threads)
        .run(dataset)
        .unwrap_or_else(|e| {
            eprintln!("engine run failed: {e}");
            std::process::exit(1);
        })
}

/// A SQL-backed facade run with its report (the partitioned statement
/// pipeline; `threads` shards it).
fn run_on_sql(
    dataset: &setm_core::Dataset,
    params: &MiningParams,
    threads: usize,
) -> setm_core::MiningOutcome {
    Miner::new(*params).backend(Backend::Sql).threads(threads).run(dataset).unwrap_or_else(|e| {
        eprintln!("sql run failed: {e}");
        std::process::exit(1);
    })
}

fn repro_analysis() {
    banner("Sections 3.2 / 4.3 — analytical cost comparison");
    println!("{}", ComparisonReport::paper(3));
    println!();
    println!("paper numbers reproduced: 4,000-leaf/14-non-leaf (item,tid) index,");
    println!("2,000-leaf/5-non-leaf (tid) index, ~2,000,000 random fetches (exact:");
    println!("2,040,000) vs 3*4,000 + 4*27,000 = 120,000 sequential accesses.");

    banner("Measured validation on the paged engine (uniform model, 1/100 scale)");
    let dataset = UniformConfig::paper_scaled(100).generate();
    let params = MiningParams::new(MinSupport::Fraction(0.005), 0.5).with_max_len(2);
    // threads: 1 — this target validates the *sequential* Section 4.3
    // accounting; `repro -- parallel` covers the sharded plan.
    let sm = run_on_engine(&dataset, &params, EngineConfig::default(), 1);
    let sm_accesses = sm.report.page_accesses().expect("engine report");
    let sm_ms = sm.report.estimated_io_ms().expect("engine report");
    let nl = mine_nested_loop(&dataset, &params).expect("nested loop");
    assert_eq!(sm.result.frequent_itemsets(), nl.result.frequent_itemsets());
    println!("{:<22} {:>14} {:>14}", "strategy", "page accesses", "est. time (s)");
    println!(
        "{:<22} {:>14} {:>14.1}",
        "nested-loop",
        nl.total_page_accesses,
        nl.total_estimated_ms / 1000.0
    );
    println!("{:<22} {:>14} {:>14.1}", "SETM", sm_accesses, sm_ms / 1000.0);
    println!(
        "measured advantage: {:.1}x (analytical full-scale: {:.1}x)",
        nl.total_estimated_ms / sm_ms,
        ComparisonReport::paper(3).speedup()
    );
}

fn repro_baselines() {
    banner("E7 extension — SETM vs AIS vs Apriori vs Apriori-TID (Quest data)");
    println!("SETM runs through the Miner facade on the `{}` backend.", backend().name());
    for (name, cfg) in [
        ("T5.I2.D10K", QuestConfig::t5_i2_d100k(10)),
        ("T10.I4.D10K", QuestConfig::t10_i4_d100k(10)),
    ] {
        let dataset = cfg.generate();
        println!(
            "\n{name}: {} txns, avg {:.2} items/txn",
            dataset.n_transactions(),
            dataset.avg_transaction_len()
        );
        println!(
            "{:>8} {:>11} {:>11} {:>11} {:>11} {:>9}",
            "minsup", "SETM", "AIS", "Apriori", "AprioriTID", "patterns"
        );
        for frac in [0.02, 0.01, 0.005] {
            let params = MiningParams::new(MinSupport::Fraction(frac), 0.5);
            let timed = |f: &dyn Fn() -> usize| {
                let t0 = Instant::now();
                let n = f();
                (t0.elapsed(), n)
            };
            let (t1, n1) = timed(&|| run_miner(&dataset, &params, 0).frequent_itemsets().len());
            let (t2, n2) = timed(&|| ais::mine(&dataset, &params).frequent_itemsets().len());
            let (t3, n3) = timed(&|| apriori::mine(&dataset, &params).frequent_itemsets().len());
            let (t4, n4) =
                timed(&|| apriori_tid::mine(&dataset, &params).frequent_itemsets().len());
            assert!(n1 == n2 && n2 == n3 && n3 == n4, "miners disagree");
            println!(
                "{:>7.1}% {:>11.2?} {:>11.2?} {:>11.2?} {:>11.2?} {:>9}",
                frac * 100.0,
                t1,
                t2,
                t3,
                t4,
                n1
            );
        }
    }
    println!("\nexpected shape: Apriori fastest at low support; AIS between; SETM");
    println!("pays for materializing every (transaction, pattern) tuple.");
}

fn repro_ablation() {
    banner("E8 ablation — sort-order tracking (Section 4.1 remark)");
    // Needs a run of >= 3 iterations for the loop-top sort to matter:
    // the retail data at 0.1% runs to k = 4. `reuse=0` is the literal
    // Figure 4, which re-sorts R_{k-1} at the top of every pass (k = 2
    // included); `reuse=1` keeps the order the closing ORDER BY left.
    let dataset = RetailConfig::paper().generate();
    let params = MiningParams::new(MinSupport::Fraction(0.001), 0.5);
    let forced = |reuse_sort: bool| {
        let plan = PhysicalPlan { reuse_sort, ..PhysicalPlan::merge_scan() };
        Miner::new(params)
            .backend(Backend::Engine(EngineConfig::default()))
            .threads(1)
            .plan_mode(PlanMode::Forced(plan))
            .run(&dataset)
            .expect("engine run")
    };
    let (tracked, naive) = (forced(true), forced(false));
    assert_eq!(
        tracked.frequent_itemsets(),
        naive.frequent_itemsets(),
        "the sort order must not change results"
    );
    let (tracked, naive) = (
        tracked.report.page_accesses().expect("engine report"),
        naive.report.page_accesses().expect("engine report"),
    );
    assert!(tracked < naive, "reusing the sort order must save I/O: {tracked} vs {naive}");
    println!("{:<26} {:>14}", "plan", "page accesses");
    println!("{:<26} {:>14}", "sort order reused", tracked);
    println!("{:<26} {:>14}", "re-sorted every pass", naive);
    println!("savings: {:.1}% of all accesses", 100.0 * (1.0 - tracked as f64 / naive as f64));

    banner("E8 ablation — buffer-cache frames (engine execution, retail/20)");
    let small = RetailConfig::small(2_500, 11).generate();
    let params = MiningParams::new(MinSupport::Fraction(0.005), 0.5);
    println!("{:<12} {:>14}", "frames", "page accesses");
    let mut previous = u64::MAX;
    for frames in [0usize, 64, 256, 1024] {
        let run = run_on_engine(
            &small,
            &params,
            EngineConfig { cache_frames: frames, ..Default::default() },
            1,
        );
        let accesses = run.report.page_accesses().expect("engine report");
        println!("{:<12} {:>14}", frames, accesses);
        assert!(accesses <= previous, "more frames must never cost page accesses");
        previous = accesses;
    }
}

const PARALLEL_SWEEP: [usize; 3] = [1, 2, 4];

fn repro_parallel() {
    banner("Parallel sharded SETM — wall clock vs thread count");
    let hw = setm_core::setm::shard::resolve_threads(0);
    println!("machine: {hw} hardware thread(s) available\n");
    for (name, dataset, frac) in [
        ("retail (paper, 0.1%)", RetailConfig::paper().generate(), 0.001),
        ("quest T10.I4.D10K (0.5%)", QuestConfig::t10_i4_d100k(10).generate(), 0.005),
    ] {
        let params = MiningParams::new(MinSupport::Fraction(frac), 0.5);
        let mine = |threads: usize| {
            Miner::new(params).threads(threads).run(&dataset).expect("memory run").result
        };
        let (base, reference) = best_of(3, || mine(1));
        println!("{name}: {} txns", dataset.n_transactions());
        println!("  {:<10} {:>12} {:>9}", "threads", "wall", "speedup");
        println!("  {:<10} {:>12.2?} {:>8.2}x", 1, base, 1.0);
        for threads in PARALLEL_SWEEP.into_iter().skip(1) {
            let (t, r) = best_of(3, || mine(threads));
            assert_eq!(
                r.frequent_itemsets(),
                reference.frequent_itemsets(),
                "parallel run must be result-identical"
            );
            println!(
                "  {:<10} {:>12.2?} {:>8.2}x",
                threads,
                t,
                base.as_secs_f64() / t.as_secs_f64()
            );
        }
        println!();
    }

    println!("paged engine (retail/20, 0.5%), page accesses are summed over shard pagers:");
    let small = RetailConfig::small(2_500, 11).generate();
    let params = MiningParams::new(MinSupport::Fraction(0.005), 0.5);
    println!("  {:<10} {:>12} {:>15}", "threads", "wall", "page accesses");
    for threads in PARALLEL_SWEEP {
        let (t, run) =
            best_of(3, || run_on_engine(&small, &params, EngineConfig::default(), threads));
        println!(
            "  {:<10} {:>12.2?} {:>15}",
            threads,
            t,
            run.report.page_accesses().expect("engine report")
        );
    }

    println!("\nSQL-driven (retail/20, 0.5%), statement pipeline sharded per thread:");
    println!("  {:<10} {:>12} {:>12}", "threads", "wall", "statements");
    let (base_t, reference) = best_of(3, || run_on_sql(&small, &params, 1));
    println!(
        "  {:<10} {:>12.2?} {:>12}",
        1,
        base_t,
        reference.report.statements().expect("sql report").len()
    );
    for threads in PARALLEL_SWEEP.into_iter().skip(1) {
        let (t, run) = best_of(3, || run_on_sql(&small, &params, threads));
        assert_eq!(
            run.result.frequent_itemsets(),
            reference.result.frequent_itemsets(),
            "partitioned SQL must be result-identical"
        );
        println!(
            "  {:<10} {:>12.2?} {:>12}",
            threads,
            t,
            run.report.statements().expect("sql report").len()
        );
    }

    println!("\nspeedup scales with real cores; on a single-core host the sweep");
    println!("only measures sharding overhead (results stay identical throughout).");
}

const SERVE_CLIENT_SWEEP: [usize; 3] = [1, 4, 16];
const SERVE_REQUESTS_PER_CLIENT: usize = 16;

fn repro_serve() {
    banner("Served mining — requests/sec vs concurrent clients");
    let hw = setm_core::setm::shard::resolve_threads(0);
    println!("machine: {hw} hardware thread(s); mixed backends (memory/engine/sql + quest)\n");
    let (addr, handle) = start_bench_server();
    println!(
        "{:>9} {:>10} {:>12} {:>10} {:>10}",
        "clients", "requests", "req/s", "p50 (ms)", "p99 (ms)"
    );
    for clients in SERVE_CLIENT_SWEEP {
        let report = run_load(
            addr,
            LoadConfig { clients, requests_per_client: SERVE_REQUESTS_PER_CLIENT },
            mixed_request,
        );
        assert_eq!(report.errors, 0, "serve sweep must not hit backpressure");
        println!(
            "{:>9} {:>10} {:>12.1} {:>10.2} {:>10.2}",
            clients, report.completed, report.rps, report.p50_ms, report.p99_ms
        );
    }
    stop_bench_server(addr, handle);
    println!("\nthroughput past one client scales with real cores; on a single-core");
    println!("host the sweep measures scheduling + protocol overhead (ROADMAP caveat).");
}

/// Timed reps of each engine primitive; `primitives` prints their median.
const PRIMITIVE_REPS: usize = 11;

/// Median wall clock of `reps` runs of `f`, with the last run's result.
/// Every result passes through `black_box`, so no run is optimized away.
fn median_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = black_box(f());
        times.push(t0.elapsed());
        out = Some(r);
    }
    times.sort_unstable();
    (times[reps / 2], out.expect("at least one rep"))
}

/// Reps of the 500K-row sorts, `INSERT … SELECT` and the Section 4.1
/// statements, which take tens to hundreds of milliseconds each.
const PRIMITIVE_SORT_REPS: usize = 5;

/// `n` flat `(tid, item, item)` rows: 20 rows per tid, items drawn from
/// 1,000, so keys repeat across runs.
fn wide_rows(n: u32) -> Vec<u32> {
    let mut state = 7u32;
    let mut item = || {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (state >> 8) % 1_000
    };
    (0..n).flat_map(|i| [i / 20, item(), item()]).collect()
}

fn heap_file(pager: &SharedPager, rows: &[[u32; 2]]) -> HeapFile {
    HeapFile::from_rows(pager.clone(), 2, rows.iter().map(|r| r.as_slice()))
        .expect("build heap file")
}

fn repro_primitives() {
    banner(
        "Engine primitives — sort, INSERT … SELECT, Section 4.1 count + filter, Section 4.1 \
         k = 2 extension, merge-scan join, grouped count, B+-tree probe",
    );
    println!(
        "median of {PRIMITIVE_REPS} reps ({PRIMITIVE_SORT_REPS} for the 500K-row rows and the \
         extension); a sort,"
    );
    println!("join or count rep includes loading its input heap files onto a fresh pager\n");
    println!("{:<30} {:>12} {:>12}", "primitive", "rows", "median");
    let print_row =
        |name: &str, rows: u32, t: Duration| println!("{name:<30} {rows:>12} {t:>12.2?}");

    for n in [10_000u32, 100_000] {
        let mut state = 42u32;
        let rows: Vec<[u32; 2]> = (0..n)
            .map(|i| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                [state % 997, i]
            })
            .collect();
        let (t, sorted) = median_of(PRIMITIVE_REPS, || {
            let input = heap_file(&Pager::shared(), &rows);
            external_sort(&input, &[0, 1], SortOptions { buffer_pages: 64 }).expect("sort")
        });
        let sorted = sorted.rows().expect("read sorted file");
        assert_eq!(sorted.len(), n as usize, "the sort keeps every row");
        assert!(sorted.is_sorted(), "the sort returns its rows in order");
        print_row("external_sort (64 pages)", n, t);
    }

    // Merge-dominated sorts: 500K three-column rows are six runs merged
    // in one pass at the default 256 pages, and 489 runs merged over nine
    // passes of fan-in 2 at 3 pages.
    let wide = wide_rows(500_000);
    let key = [2, 0];
    let mut expect = wide.clone();
    sort_rows(&mut expect, 3, &key);
    for (label, buffer_pages) in
        [("external_sort (256 pages)", 256), ("external_sort (3 pages)", 3)]
    {
        let (t, sorted) = median_of(PRIMITIVE_SORT_REPS, || {
            let pager = Pager::shared();
            let input = HeapFile::from_rows(pager, 3, wide.chunks_exact(3)).expect("load");
            external_sort(&input, &key, SortOptions { buffer_pages }).expect("sort")
        });
        assert_eq!(sorted.n_records(), 500_000, "the sort keeps every row");
        assert!(sorted.read_all().expect("read sorted file") == expect, "sorted like sort_rows");
        print_row(label, 500_000, t);
    }

    // INSERT … SELECT of the same 500K rows: the SELECT copies and sorts
    // them, and its sorted result becomes the target (a rep includes
    // CREATE TABLE; the source is loaded once).
    let mut engine = SqlEngine::new();
    engine.load_table("src", &["a", "b", "c"], wide.chunks_exact(3)).expect("load src");
    let p = Params::new();
    let (t, ()) = median_of(PRIMITIVE_SORT_REPS, || {
        if engine.database().has_table("dst") {
            engine.execute("DROP TABLE dst", &p).expect("drop");
        }
        engine.execute("CREATE TABLE dst (a INT, b INT, c INT)", &p).expect("create");
        engine
            .execute("INSERT INTO dst SELECT a, b, c FROM src ORDER BY c, a", &p)
            .expect("insert");
    });
    let dst = &engine.database().table("dst").expect("dst exists").file;
    assert_eq!(dst.n_records(), 500_000, "INSERT … SELECT keeps every row");
    assert!(dst.read_all().expect("read dst") == expect, "dst is sorted like sort_rows");
    print_row("INSERT … SELECT ORDER BY", 500_000, t);

    // One Section 4.1 iteration's count and filter statements on a
    // 500K-row R'_2 in (trans_id, items) order, as the extension join
    // writes it: items from 100, so a pair recurs about 100 times and
    // about half the pairs reach the support. The count statement sorts
    // R'_2 on its items and keeps that order, so the filter statement's
    // join reads it unsorted. A rep includes loading R'_2.
    let mut r2_prime: Vec<u32> = wide
        .chunks_exact(3)
        .flat_map(|r| {
            let (a, b) = (r[1] % 100, r[2] % 100);
            [r[0], a.min(b), a.max(b)]
        })
        .collect();
    sort_rows(&mut r2_prime, 3, &[0, 1, 2]);
    let minsupport = 100;
    let p = Params::new().with("minsupport", minsupport);
    let (t, (engine, filter_accesses)) = median_of(PRIMITIVE_SORT_REPS, || {
        let mut engine = SqlEngine::new();
        let columns = ["trans_id", "item_1", "item_2"];
        engine.load_table("R2_PRIME", &columns, r2_prime.chunks_exact(3)).expect("load R'_2");
        engine.execute("CREATE TABLE C2 (item_1 INT, item_2 INT, cnt INT)", &p).expect("create");
        engine
            .execute(
                "INSERT INTO C2
                 SELECT p.item_1, p.item_2, COUNT(*)
                 FROM R2_PRIME p
                 GROUP BY p.item_1, p.item_2
                 HAVING COUNT(*) >= :minsupport",
                &p,
            )
            .expect("count");
        engine
            .execute("CREATE TABLE R2 (trans_id INT, item_1 INT, item_2 INT)", &p)
            .expect("create");
        let before = engine.database().io_stats().accesses();
        engine
            .execute(
                "INSERT INTO R2
                 SELECT p.trans_id, p.item_1, p.item_2
                 FROM R2_PRIME p, C2 q
                 WHERE p.item_1 = q.item_1 AND p.item_2 = q.item_2
                 ORDER BY p.trans_id, p.item_1, p.item_2",
                &p,
            )
            .expect("filter");
        let accesses = engine.database().io_stats().accesses() - before;
        (engine, accesses)
    });
    let db = engine.database();
    let mut by_items = r2_prime.clone();
    sort_rows(&mut by_items, 3, &[1, 2]);
    let by_items = HeapFile::from_rows(Pager::shared(), 3, by_items.chunks_exact(3)).expect("load");
    let c2_ref = grouped_count(&by_items, &[1, 2], minsupport).expect("count").read_all();
    let c2_ref = c2_ref.expect("read reference C2");
    let c2 = db.table("C2").expect("C2 exists").file.read_all().expect("read C2");
    assert!(c2 == c2_ref, "C2 is grouped_count of R'_2 sorted like sort_rows");
    let pairs: Vec<&[u32]> = c2_ref.chunks_exact(3).map(|c| &c[..2]).collect();
    let mut r2_ref: Vec<u32> = r2_prime
        .chunks_exact(3)
        .filter(|r| pairs.binary_search(&&r[1..]).is_ok())
        .flatten()
        .copied()
        .collect();
    sort_rows(&mut r2_ref, 3, &[0, 1, 2]);
    let r2 = db.table("R2").expect("R2 exists").file.read_all().expect("read R2");
    assert!(r2 == r2_ref, "R2 is R'_2's supported rows, sorted like sort_rows");
    assert_eq!(db.table("R2_PRIME").expect("R'_2 exists").sorted_by, Some(vec![1, 2]));
    // The filter statement reads R'_2 and C2 once each, writes the join's
    // rows and sorts them for its ORDER BY: it does not sort R'_2.
    let order_by = {
        let pager = Pager::shared();
        let joined = HeapFile::from_rows(pager.clone(), 3, r2_ref.chunks_exact(3)).expect("load");
        pager.lock().reset_stats();
        external_sort(&joined, &[0, 1, 2], SortOptions::default()).expect("sort");
        let stats = pager.lock().stats();
        stats.accesses()
    };
    let pages = |name: &str| u64::from(db.table(name).expect("table exists").file.n_pages());
    assert_eq!(
        filter_accesses,
        pages("R2_PRIME") + pages("C2") + pages("R2") + order_by,
        "the filter statement sorts only its output"
    );
    print_row("Section 4.1 count + filter", 500_000, t);

    // Section 4.1's k = 2 extension join on a 200K-row SALES (40,000
    // transactions of five items) as the script leaves it: the C_1
    // statement sorts SALES on its items and keeps that order, so the
    // join sorts it back on trans_id — once, for both of its sides. A rep
    // includes loading SALES and the C_1 statement.
    let sales: Vec<u32> = (0..40_000u32)
        .flat_map(|t| (0..5).flat_map(move |j| [t, j * 200 + (t * 7 + j * 13) % 200]))
        .collect();
    let p = Params::new().with("minsupport", 1);
    let (t, (engine, join_accesses)) = median_of(PRIMITIVE_SORT_REPS, || {
        let mut engine = SqlEngine::new();
        engine.load_table("SALES", &["trans_id", "item"], sales.chunks_exact(2)).expect("load");
        engine.execute("CREATE TABLE C1 (item_1 INT, cnt INT)", &p).expect("create");
        engine
            .execute(
                "INSERT INTO C1
                 SELECT r1.item, COUNT(*)
                 FROM SALES r1
                 GROUP BY r1.item
                 HAVING COUNT(*) >= :minsupport",
                &p,
            )
            .expect("count C1");
        engine
            .execute("CREATE TABLE R2_PRIME (trans_id INT, item_1 INT, item_2 INT)", &p)
            .expect("create");
        let before = engine.database().io_stats().accesses();
        engine
            .execute(
                "INSERT INTO R2_PRIME
                 SELECT p.trans_id, p.item, q.item
                 FROM SALES p, SALES q
                 WHERE q.trans_id = p.trans_id AND q.item > p.item",
                &p,
            )
            .expect("extend");
        let accesses = engine.database().io_stats().accesses() - before;
        (engine, accesses)
    });
    let db = engine.database();
    assert_eq!(db.table("SALES").expect("SALES exists").sorted_by, Some(vec![1]));
    // Every pair of a transaction's items, in (trans_id, items) order.
    let r2_ref: Vec<u32> = sales
        .chunks_exact(10)
        .flat_map(|txn| {
            let (tid, items) = (txn[0], [txn[1], txn[3], txn[5], txn[7], txn[9]]);
            (0..5).flat_map(move |a| (a + 1..5).flat_map(move |b| [tid, items[a], items[b]]))
        })
        .collect();
    let r2_prime = db.table("R2_PRIME").expect("R'_2 exists").file.read_all().expect("read R'_2");
    assert!(r2_prime == r2_ref, "R'_2 is every pair of a transaction's items");
    let one_sort = {
        let pager = Pager::shared();
        let mut by_item = sales.clone();
        sort_rows(&mut by_item, 2, &[1]);
        let file = HeapFile::from_rows(pager.clone(), 2, by_item.chunks_exact(2)).expect("load");
        pager.lock().reset_stats();
        external_sort(&file, &[0], SortOptions::default()).expect("sort");
        let stats = pager.lock().stats();
        stats.accesses()
    };
    // The join sorts SALES once, reads the sorted copy on each side and
    // writes R'_2.
    let pages = |name: &str| u64::from(db.table(name).expect("table exists").file.n_pages());
    assert_eq!(
        join_accesses,
        one_sort + 2 * pages("SALES") + pages("R2_PRIME"),
        "the k = 2 extension join sorts SALES once"
    );
    print_row("Section 4.1 k = 2 extension", 200_000, t);

    for n in [10_000u32, 50_000] {
        // (tid, item) rows sorted on tid, five items per tid.
        let rows: Vec<[u32; 2]> = (0..n).map(|i| [i / 5, i % 5]).collect();
        let (t, joined) = median_of(PRIMITIVE_REPS, || {
            let pager = Pager::shared();
            let (l, r) = (heap_file(&pager, &rows), heap_file(&pager, &rows));
            merge_scan_join(
                &l,
                &r,
                &[0],
                &[0],
                3,
                |a, b| b[1] > a[1],
                |a, b, out| {
                    out.extend_from_slice(a);
                    out.push(b[1]);
                },
            )
            .expect("join")
        });
        // Each tid pairs its five items C(5, 2) = 10 ways: 2n rows.
        assert_eq!(joined.n_records(), 2 * u64::from(n), "self-join row count");
        print_row("merge_scan_join", n, t);
    }

    let rows: Vec<[u32; 2]> = (0..100_000u32).map(|i| [i / 50, i]).collect();
    let (t, counts) = median_of(PRIMITIVE_REPS, || {
        grouped_count(&heap_file(&Pager::shared(), &rows), &[0], 10).expect("count")
    });
    assert_eq!(counts.n_records(), 2_000, "50 rows per group, 2,000 groups");
    print_row("grouped_count", 100_000, t);

    // 1,000 prefixes of 500 keys each; a rep probes every prefix once.
    let mut loader = BulkLoader::new(Pager::shared(), 2);
    for i in 0..500_000u32 {
        loader.push(&[i / 500, i % 500]).expect("push key");
    }
    let mut tree = loader.finish().expect("bulk load");
    tree.cache_internal_nodes().expect("pin internal nodes");
    let (t, ()) = median_of(PRIMITIVE_REPS, || {
        for probe in (0..1_000u32).map(|p| p * 17 % 1_000) {
            assert_eq!(tree.count_prefix(&[probe]).expect("probe"), 500, "prefix {probe}");
        }
    });
    print_row("btree count_prefix (x1,000)", 500_000, t);
}

/// Minimum support for the paper-scale trajectory: 1% keeps T20.I6 runs
/// to three iterations while still mining >1,000 patterns.
const POOLSCALE_SUPPORT: f64 = 0.01;

/// One scale point of the T20.I6 trajectory. `engine` and `sql` are
/// `None` past their cutoffs (where a run stops being minutes-scale).
struct PoolscaleRow {
    n_txns: u32,
    n_rows: u64,
    patterns: usize,
    memory_ms: f64,
    engine: Option<(f64, u64)>,
    sql: Option<(f64, usize)>,
}

/// The trajectory's transaction counts and per-backend cutoffs:
/// `(scales, engine_max, sql_max)`. The full config runs memory to 1M
/// transactions (~21M SALES rows), the engine — which pays simulated
/// page charging on top — to 300K, and the SQL statement interpreter to
/// 100K; tiny mode shrinks everything to seconds-scale.
fn poolscale_scales() -> (Vec<u32>, u32, u32) {
    if bench_tiny() {
        (vec![5_000, 20_000], 20_000, 5_000)
    } else {
        (vec![100_000, 300_000, 1_000_000], 300_000, 100_000)
    }
}

/// Run the trajectory (single rep per cell — the big scales dominate
/// wall clock, so best-of-n would triple a minutes-scale sweep).
fn poolscale_rows(threads: usize) -> Vec<PoolscaleRow> {
    let (scales, engine_max, sql_max) = poolscale_scales();
    let params = MiningParams::new(MinSupport::Fraction(POOLSCALE_SUPPORT), 0.5);
    scales
        .into_iter()
        .map(|n| {
            let dataset = QuestConfig::t20_i6(n).generate();
            let t0 = Instant::now();
            let mem = Miner::new(params).threads(threads).run(&dataset).expect("memory run");
            let memory_ms = t0.elapsed().as_secs_f64() * 1e3;
            let patterns = mem.result.frequent_itemsets().len();
            let engine = (n <= engine_max).then(|| {
                let t0 = Instant::now();
                let run = run_on_engine(&dataset, &params, EngineConfig::default(), threads);
                assert_eq!(
                    run.result.frequent_itemsets().len(),
                    patterns,
                    "engine at {n} txns must match memory"
                );
                (
                    t0.elapsed().as_secs_f64() * 1e3,
                    run.report.page_accesses().expect("engine report"),
                )
            });
            let sql = (n <= sql_max).then(|| {
                let t0 = Instant::now();
                let run = run_on_sql(&dataset, &params, threads);
                assert_eq!(
                    run.result.frequent_itemsets().len(),
                    patterns,
                    "sql at {n} txns must match memory"
                );
                (
                    t0.elapsed().as_secs_f64() * 1e3,
                    run.report.statements().expect("sql report").len(),
                )
            });
            println!("  poolscale {n} txns done (memory {:.1}s)", memory_ms / 1e3);
            PoolscaleRow { n_txns: n, n_rows: dataset.n_rows(), patterns, memory_ms, engine, sql }
        })
        .collect()
}

fn repro_poolscale() {
    banner("Paper-scale trajectory — Quest T20.I6, memory vs engine vs SQL");
    let (_, engine_max, sql_max) = poolscale_scales();
    println!(
        "min support {:.1}%; engine benched to {engine_max} txns, SQL to {sql_max}\n",
        POOLSCALE_SUPPORT * 100.0
    );
    let rows = poolscale_rows(threads_from_env());
    println!(
        "\n{:>10} {:>10} {:>9} {:>11} {:>11} {:>14} {:>11}",
        "txns", "rows", "patterns", "memory (s)", "engine (s)", "page accesses", "sql (s)"
    );
    let cell = |v: Option<f64>| v.map_or("-".to_string(), |ms| format!("{:.1}", ms / 1e3));
    for r in &rows {
        println!(
            "{:>10} {:>10} {:>9} {:>11.1} {:>11} {:>14} {:>11}",
            r.n_txns,
            r.n_rows,
            r.patterns,
            r.memory_ms / 1e3,
            cell(r.engine.map(|(ms, _)| ms)),
            r.engine.map_or("-".to_string(), |(_, a)| a.to_string()),
            cell(r.sql.map(|(ms, _)| ms)),
        );
    }
    println!("\nthe three executions diverge with scale: the in-memory operators grow");
    println!("linearly, the paged engine adds the charged-I/O constant, and the SQL");
    println!("interpreter's per-tuple overhead prices it out first — the paper's");
    println!("ranking (Section 6), now visible on one chart.");
}

/// Scales for the incremental target: `(base_txns, appended_txns)`.
/// The full config is the ISSUE acceptance workload — a 1K append on a
/// 100K T20.I6 base; tiny mode keeps the same ~1% delta ratio at
/// seconds-scale.
fn incremental_scales() -> (u32, u32) {
    if bench_tiny() {
        (5_000, 100)
    } else {
        (100_000, 1_000)
    }
}

/// What one incremental-vs-remine measurement produced.
struct IncrementalReport {
    base_txns: u32,
    delta_txns: u32,
    patterns: usize,
    /// Wall clock of `MiningFrontier::apply_delta` absorbing the batch.
    delta_ms: f64,
    /// Wall clock of a from-scratch memory-backend run on base ∪ delta.
    full_ms: f64,
}

/// Run the incremental acceptance workload: capture a frontier on the
/// base (off the clock — that is the state a server already holds when
/// an append arrives), absorb the delta, re-mine from scratch, and check
/// the two outcomes are byte-identical before timing claims are made.
fn measure_incremental(threads: usize) -> IncrementalReport {
    let (base_n, delta_n) = incremental_scales();
    let params = MiningParams::new(MinSupport::Fraction(POOLSCALE_SUPPORT), 0.5);
    let whole = QuestConfig::t20_i6(base_n + delta_n).generate();
    let txns: Vec<(u32, Vec<u32>)> =
        whole.transactions().map(|(tid, items)| (tid, items.to_vec())).collect();
    let split = |range: std::ops::Range<usize>| {
        setm_core::Dataset::from_transactions(
            txns[range].iter().map(|(tid, items)| (*tid, items.as_slice())),
        )
    };
    let base = split(0..base_n as usize);
    let delta = split(base_n as usize..txns.len());

    let (_, frontier) =
        MiningFrontier::bootstrap(&base, &params, threads).expect("frontier bootstrap on the base");
    let t0 = Instant::now();
    let (incremental, _) = frontier.apply_delta(&base, &delta, threads).expect("apply_delta");
    let delta_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let full = Miner::new(params).threads(threads).run(&whole).expect("memory run");
    let full_ms = t0.elapsed().as_secs_f64() * 1e3;

    assert_eq!(
        outcome_to_json(&incremental).to_string(),
        outcome_to_json(&full).to_string(),
        "incremental outcome must be byte-identical to the full re-mine"
    );
    IncrementalReport {
        base_txns: base_n,
        delta_txns: delta_n,
        patterns: full.result.frequent_itemsets().len(),
        delta_ms,
        full_ms,
    }
}

fn repro_incremental() {
    banner("Incremental mining — frontier append vs full re-mine (Quest T20.I6)");
    let threads = threads_from_env();
    let r = measure_incremental(threads);
    println!(
        "base {} txns + append {} txns @ {:.1}% support — {} frequent patterns\n",
        r.base_txns,
        r.delta_txns,
        POOLSCALE_SUPPORT * 100.0,
        r.patterns
    );
    println!("{:<28} {:>12}", "strategy", "wall (s)");
    println!("{:<28} {:>12.2}", "full re-mine (base ∪ delta)", r.full_ms / 1e3);
    println!("{:<28} {:>12.2}", "frontier apply_delta", r.delta_ms / 1e3);
    let ratio = r.delta_ms / r.full_ms;
    println!("\nincremental cost: {:.1}% of the re-mine (outcomes byte-identical)", ratio * 100.0);
    assert!(
        ratio < 0.25,
        "apply_delta took {:.1}% of the full re-mine — the <25% acceptance bar failed",
        ratio * 100.0
    );
    println!("the delta pays only its own extension joins plus promotion recounts,");
    println!("so the ratio tracks the delta fraction, not the base size.");
}

/// Transaction count for the constrained-pushdown target; the delta
/// fraction of planted transactions matches the tests' planted-target
/// construction.
fn constrained_scale() -> u32 {
    if bench_tiny() {
        5_000
    } else {
        100_000
    }
}

/// What one pushdown-vs-postfilter measurement produced.
struct ConstrainedReport {
    n_txns: u32,
    target: u32,
    rules: usize,
    /// Σ|C_k| counted by the anchored (pushed-down) run.
    pushed_candidates: u64,
    /// Σ|C_k| the post-filter strategy pays: the full unconstrained run.
    postfilter_candidates: u64,
    /// Total constraint-rejected candidate extensions in the trace.
    pruned: u64,
    pushed_ms: f64,
    postfilter_ms: f64,
}

/// The planted-target T20.I6 workload: a fresh item planted into every
/// transaction carrying the workload's most frequent item, then mined
/// anchored on that item two ways — constraint pushdown vs mine-all-
/// then-filter. Rule byte-equality and the strict Σ|C_k| reduction are
/// asserted before any number is recorded.
fn measure_constrained(threads: usize) -> ConstrainedReport {
    let base = QuestConfig::t20_i6(constrained_scale()).generate();
    let target = 1 + base.items().iter().copied().max().unwrap_or(0);
    let mut freq = std::collections::HashMap::new();
    for (_, items) in base.transactions() {
        for &it in items {
            *freq.entry(it).or_insert(0u64) += 1;
        }
    }
    let companion = *freq.iter().max_by_key(|(item, n)| (**n, **item)).unwrap().0;
    let txns: Vec<(u32, Vec<u32>)> = base
        .transactions()
        .map(|(tid, items)| {
            let mut items = items.to_vec();
            if items.contains(&companion) {
                items.push(target);
            }
            (tid, items)
        })
        .collect();
    let dataset = setm_core::Dataset::from_transactions(
        txns.iter().map(|(tid, items)| (*tid, items.as_slice())),
    );
    let params = MiningParams::new(MinSupport::Fraction(POOLSCALE_SUPPORT), 0.5);
    let constraints = MiningConstraints::new().require([target]);

    let t0 = Instant::now();
    let unconstrained = Miner::new(params).threads(threads).run(&dataset).expect("memory run");
    let filtered: Vec<_> =
        unconstrained.rules.iter().filter(|r| constraints.matches_rule(r)).cloned().collect();
    let postfilter_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let pushed = Miner::new(params)
        .threads(threads)
        .constraints(constraints)
        .run(&dataset)
        .expect("constrained run");
    let pushed_ms = t0.elapsed().as_secs_f64() * 1e3;

    assert_eq!(pushed.rules, filtered, "pushdown must mine exactly the post-filtered rule set");
    assert!(!pushed.rules.is_empty(), "the planted target must yield rules");
    let sum_c = |r: &SetmResult| r.trace.iter().map(|t| t.c_len).sum::<u64>();
    let (pushed_candidates, postfilter_candidates) =
        (sum_c(&pushed.result), sum_c(&unconstrained.result));
    assert!(
        pushed_candidates < postfilter_candidates,
        "anchored counting must count strictly fewer candidates \
         ({pushed_candidates} vs {postfilter_candidates})"
    );
    ConstrainedReport {
        n_txns: constrained_scale(),
        target,
        rules: pushed.rules.len(),
        pushed_candidates,
        postfilter_candidates,
        pruned: pushed.result.trace.iter().map(|t| t.candidates_pruned).sum(),
        pushed_ms,
        postfilter_ms,
    }
}

/// Client counts for the saturation sweep — doubling until well past the
/// worker pool so the rps knee and the p99 blow-up are both visible.
fn saturation_clients() -> &'static [usize] {
    if bench_tiny() {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8, 16, 32]
    }
}

/// A minimal JSON writer for the baseline file (no serde in the tree).
struct Json(String);

impl Json {
    fn new() -> Self {
        Json(String::from("{\n"))
    }
    fn field(&mut self, indent: usize, key: &str, value: &str, last: bool) {
        self.0.push_str(&"  ".repeat(indent));
        self.0.push_str(&format!("\"{key}\": {value}"));
        self.0.push_str(if last { "\n" } else { ",\n" });
    }
}

/// Whether the baseline should run the seconds-scale CI configuration.
fn bench_tiny() -> bool {
    std::env::var("SETM_BENCH_TINY").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// The engine config the legacy deterministic counters are pinned to:
/// caching off, as every baseline up to v3 measured (a buffer cache
/// became the default after v3, so the historical numbers stay
/// byte-identical under this explicit config).
fn uncached() -> EngineConfig {
    EngineConfig { cache_frames: 0, ..Default::default() }
}

/// The machine-independent counter section of the baseline: fixed
/// workloads (identical under `SETM_BENCH_TINY`), counters that depend
/// only on the algorithms — |R'_k|/|R_k|/|C_k| traces, engine page
/// accesses across the thread sweep (uncached, matching v3, plus the
/// series under the default buffer cache on the retail and needle
/// workloads), SQL statement counts across the thread sweep, and the
/// nested-loop-vs-SETM I/O ratio. The CI bench-trajectory guard
/// (`repro -- check-baseline`) fails on any drift in these; wall-clock
/// fields are never gated.
fn write_deterministic_section(j: &mut Json) {
    println!("  deterministic counters (fixed workloads) ...");
    j.field(1, "deterministic", "{", true);
    j.field(2, "note", "\"machine-independent; gated by `repro -- check-baseline` in CI\"", false);

    let retail = RetailConfig::small(1_500, 13).generate();
    let params = MiningParams::new(MinSupport::Fraction(0.005), 0.5);
    let mem = Miner::new(params).threads(1).run(&retail).expect("memory run");
    j.field(2, "retail_small_1500", "{", true);
    j.field(3, "patterns", &mem.result.frequent_itemsets().len().to_string(), false);
    let trace: Vec<String> = mem
        .result
        .trace
        .iter()
        .map(|t| format!("[{}, {}, {}, {}]", t.k, t.r_prime_tuples, t.r_tuples, t.c_len))
        .collect();
    j.field(3, "trace_k_rprime_r_c", &format!("[{}]", trace.join(", ")), false);
    // v3: the planner's per-iteration decisions — a plan change is
    // drift, exactly like a cardinality change.
    let plans: Vec<String> =
        mem.result.trace.iter().map(|t| format!("\"{}\"", t.plan_string())).collect();
    j.field(3, "plans", &format!("[{}]", plans.join(", ")), false);
    let mut uncached_by_threads: Vec<(usize, u64)> = Vec::new();
    let engine_accesses: Vec<String> = PARALLEL_SWEEP
        .iter()
        .map(|&threads| {
            let run = run_on_engine(&retail, &params, uncached(), threads);
            assert_eq!(
                run.result.frequent_itemsets(),
                mem.result.frequent_itemsets(),
                "engine threads={threads} must match memory"
            );
            let accesses = run.report.page_accesses().expect("engine report");
            uncached_by_threads.push((threads, accesses));
            format!("\"p{threads}\": {accesses}")
        })
        .collect();
    j.field(3, "engine_page_accesses", &format!("{{ {} }}", engine_accesses.join(", ")), false);
    // v4: the same sweep under the default buffer cache (the key keeps
    // the name of the shared pool that served it until v8). The cache
    // must strictly beat the uncached accounting at every thread count.
    let cached_accesses: Vec<String> = PARALLEL_SWEEP
        .iter()
        .map(|&threads| {
            let run = run_on_engine(&retail, &params, EngineConfig::default(), threads);
            assert_eq!(
                run.result.frequent_itemsets(),
                mem.result.frequent_itemsets(),
                "cached engine threads={threads} must match memory"
            );
            let accesses = run.report.page_accesses().expect("engine report");
            let (_, cold) =
                uncached_by_threads.iter().find(|(t, _)| *t == threads).expect("same sweep");
            assert!(
                accesses < *cold,
                "the cache at threads={threads} must strictly beat uncached: {accesses} vs {cold}"
            );
            format!("\"p{threads}\": {accesses}")
        })
        .collect();
    j.field(
        3,
        "engine_page_accesses_pool",
        &format!("{{ {} }}", cached_accesses.join(", ")),
        false,
    );
    let sql_statements: Vec<String> = PARALLEL_SWEEP
        .iter()
        .map(|&threads| {
            let run = run_on_sql(&retail, &params, threads);
            assert_eq!(
                run.result.frequent_itemsets(),
                mem.result.frequent_itemsets(),
                "sql threads={threads} must match memory"
            );
            format!("\"p{threads}\": {}", run.report.statements().expect("sql report").len())
        })
        .collect();
    j.field(3, "sql_statements", &format!("{{ {} }}", sql_statements.join(", ")), true);
    j.0.push_str("    },\n");

    // Nested-loop vs SETM I/O on the engine (the paper's headline
    // ratio), at 1/400 scale so the guard stays seconds-scale.
    let uniform = UniformConfig::paper_scaled(400).generate();
    let params = MiningParams::new(MinSupport::Fraction(0.005), 0.5).with_max_len(2);
    let sm = run_on_engine(&uniform, &params, uncached(), 1);
    let nl = mine_nested_loop(&uniform, &params).expect("nested loop");
    assert_eq!(sm.result.frequent_itemsets(), nl.result.frequent_itemsets());
    j.field(2, "uniform_scaled400_max2", "{", true);
    j.field(
        3,
        "setm_page_accesses",
        &sm.report.page_accesses().expect("engine report").to_string(),
        false,
    );
    j.field(3, "nested_loop_page_accesses", &nl.total_page_accesses.to_string(), true);
    j.0.push_str("    },\n");

    // v3: the planner's acceptance workload — the Auto planner must
    // keep switching to the nested-loop join mid-run on the needle and
    // keep beating an all-merge-scan plan in measured page accesses
    // (`tests/cost_model_vs_measured.rs` asserts the same invariant;
    // this entry makes a regression visible as baseline drift too).
    let needle = NeedleConfig::bench().generate();
    let params = MiningParams::new(MinSupport::Count(5), 0.5);
    let auto = run_on_engine(&needle, &params, uncached(), 1);
    let fixed = Miner::new(params)
        .backend(Backend::Engine(uncached()))
        .threads(1)
        .plan_mode(PlanMode::Forced(PhysicalPlan::merge_scan()))
        .run(&needle)
        .expect("forced merge-scan run");
    assert_eq!(auto.result.frequent_itemsets(), fixed.result.frequent_itemsets());
    let auto_accesses = auto.report.page_accesses().expect("engine report");
    let fixed_accesses = fixed.report.page_accesses().expect("engine report");
    assert!(
        auto_accesses < fixed_accesses,
        "auto plan ({auto_accesses}) must beat all-merge-scan ({fixed_accesses}) on the needle"
    );
    j.field(2, "needle_bench", "{", true);
    let plans: Vec<String> =
        auto.result.trace.iter().map(|t| format!("\"{}\"", t.plan_string())).collect();
    j.field(3, "plans", &format!("[{}]", plans.join(", ")), false);
    j.field(3, "auto_page_accesses", &auto_accesses.to_string(), false);
    j.field(3, "merge_scan_page_accesses", &fixed_accesses.to_string(), false);
    // v8: the auto plan's sweep under the default buffer cache, which
    // v4-v7 gated as the needle row of the pool ablation.
    let cached_accesses: Vec<String> = PARALLEL_SWEEP
        .iter()
        .map(|&threads| {
            let run = run_on_engine(&needle, &params, EngineConfig::default(), threads);
            assert_eq!(run.result.frequent_itemsets(), auto.result.frequent_itemsets());
            format!("\"p{threads}\": {}", run.report.page_accesses().expect("engine report"))
        })
        .collect();
    j.field(3, "engine_page_accesses_pool", &format!("{{ {} }}", cached_accesses.join(", ")), true);
    j.0.push_str("    }\n");
    j.0.push_str("  },\n");
}

fn repro_baseline(path: Option<String>) {
    let tiny = bench_tiny();
    banner(if tiny {
        "Recording perf baseline (tiny CI config) -> BENCH_baseline.json"
    } else {
        "Recording perf baseline -> BENCH_baseline.json"
    });
    let hw = setm_core::setm::shard::resolve_threads(0);
    if hw < 4 {
        eprintln!("WARNING: only {hw} hardware thread(s) available — the parallel and");
        eprintln!("WARNING: serve columns of this baseline measure scheduling overhead,");
        eprintln!("WARNING: not speedup. Record reference baselines on >= 4 cores.");
    }
    let reps = if tiny { 1 } else { 3 };

    let mut j = Json::new();
    j.field(1, "schema", "\"setm-bench-baseline/v8\"", false);
    j.field(1, "config", if tiny { "\"tiny\"" } else { "\"full\"" }, false);
    j.field(1, "machine", "{", true);
    j.field(2, "available_parallelism", &hw.to_string(), false);
    if hw == 1 {
        j.field(
            2,
            "parallel_note",
            "\"parallel columns measure overhead: 1 hardware thread, no real speedup possible\"",
            false,
        );
    }
    j.field(2, "os", &format!("\"{}\"", std::env::consts::OS), false);
    j.field(2, "arch", &format!("\"{}\"", std::env::consts::ARCH), false);
    j.field(
        2,
        "note",
        "\"wall-clock numbers are machine-specific; diff against the same machine class\"",
        true,
    );
    j.0.push_str("  },\n");

    write_deterministic_section(&mut j);

    let mine_mem = |dataset: &setm_core::Dataset, params: &MiningParams, threads: usize| {
        Miner::new(*params).threads(threads).run(dataset).expect("memory run").result
    };

    // In-memory path: retail table-1 sweep, sequential vs P in {1,2,4}.
    let retail = if tiny {
        RetailConfig::small(1_500, 13).generate()
    } else {
        RetailConfig::paper().generate()
    };
    let retail_supports: &[f64] = if tiny { &[0.005, 0.01] } else { &RETAIL_SUPPORTS };
    j.field(1, "memory_retail_paper", "[", true);
    for (i, &frac) in retail_supports.iter().enumerate() {
        let params = MiningParams::new(MinSupport::Fraction(frac), 0.5);
        let mut fields: Vec<String> = vec![format!("\"min_support\": {frac}")];
        let mut patterns = 0usize;
        for threads in PARALLEL_SWEEP {
            let (t, r) = best_of(reps, || mine_mem(&retail, &params, threads));
            patterns = r.frequent_itemsets().len();
            fields.push(format!("\"wall_ms_p{threads}\": {:.3}", t.as_secs_f64() * 1e3));
        }
        fields.push(format!("\"patterns\": {patterns}"));
        let sep = if i + 1 == retail_supports.len() { "" } else { "," };
        j.0.push_str(&format!("    {{ {} }}{}\n", fields.join(", "), sep));
        println!("  memory retail @{:.2}% done", frac * 100.0);
    }
    j.0.push_str("  ],\n");

    // Quest workload (T10-class; T5-class in tiny mode).
    let quest = if tiny {
        QuestConfig::t5_i2_d100k(200).generate()
    } else {
        QuestConfig::t10_i4_d100k(10).generate()
    };
    j.field(1, "memory_quest_t10_i4_d10k", "[", true);
    let quest_supports: &[f64] = if tiny { &[0.02] } else { &[0.02, 0.01, 0.005] };
    for (i, &frac) in quest_supports.iter().enumerate() {
        let params = MiningParams::new(MinSupport::Fraction(frac), 0.5);
        let mut fields: Vec<String> = vec![format!("\"min_support\": {frac}")];
        for threads in PARALLEL_SWEEP {
            let (t, _) = best_of(reps, || mine_mem(&quest, &params, threads));
            fields.push(format!("\"wall_ms_p{threads}\": {:.3}", t.as_secs_f64() * 1e3));
        }
        let sep = if i + 1 == quest_supports.len() { "" } else { "," };
        j.0.push_str(&format!("    {{ {} }}{}\n", fields.join(", "), sep));
        println!("  memory quest @{:.1}% done", frac * 100.0);
    }
    j.0.push_str("  ],\n");

    // Paged engine: wall + charged I/O, sequential vs sharded.
    let small = if tiny {
        RetailConfig::small(1_000, 11).generate()
    } else {
        RetailConfig::small(2_500, 11).generate()
    };
    let params = MiningParams::new(MinSupport::Fraction(0.005), 0.5);
    j.field(1, "engine_retail_small_2500", "[", true);
    for (i, &threads) in PARALLEL_SWEEP.iter().enumerate() {
        let (t, run) =
            best_of(reps, || run_on_engine(&small, &params, EngineConfig::default(), threads));
        let sep = if i + 1 == PARALLEL_SWEEP.len() { "" } else { "," };
        j.0.push_str(&format!(
            "    {{ \"threads\": {}, \"wall_ms\": {:.3}, \"page_accesses\": {}, \"estimated_io_ms\": {:.1} }}{}\n",
            threads,
            t.as_secs_f64() * 1e3,
            run.report.page_accesses().expect("engine report"),
            run.report.estimated_io_ms().expect("engine report"),
            sep
        ));
        println!("  engine retail/20 threads={threads} done");
    }
    j.0.push_str("  ],\n");

    // Partitioned SQL: wall + statement count, sequential vs sharded —
    // the third backend's parallel series (tentpole of ISSUE 5).
    j.field(1, "sql_retail_small", "[", true);
    for (i, &threads) in PARALLEL_SWEEP.iter().enumerate() {
        let (t, run) = best_of(reps, || run_on_sql(&small, &params, threads));
        let sep = if i + 1 == PARALLEL_SWEEP.len() { "" } else { "," };
        j.0.push_str(&format!(
            "    {{ \"threads\": {}, \"wall_ms\": {:.3}, \"statements\": {} }}{}\n",
            threads,
            t.as_secs_f64() * 1e3,
            run.report.statements().expect("sql report").len(),
            sep
        ));
        println!("  sql retail/20 threads={threads} done");
    }
    j.0.push_str("  ],\n");

    // Served mining: requests/sec + tail latency under concurrent
    // clients, mixed backends. NOTE the hardware-thread count: on a
    // 1-thread container this measures scheduling/protocol overhead,
    // not parallel speedup (ROADMAP multicore caveat).
    let (addr, handle) = start_bench_server();
    let serve_clients: &[usize] = if tiny { &[1, 4] } else { &SERVE_CLIENT_SWEEP };
    let serve_requests = if tiny { 4 } else { SERVE_REQUESTS_PER_CLIENT };
    j.field(1, "serve_mixed_backends", "{", true);
    j.field(2, "hardware_threads", &hw.to_string(), false);
    j.field(2, "requests_per_client", &serve_requests.to_string(), false);
    j.field(
        2,
        "note",
        "\"mixed request stream: example on memory/engine/sql + quest-t5 on memory\"",
        false,
    );
    j.field(2, "sweep", "[", true);
    for (i, &clients) in serve_clients.iter().enumerate() {
        let report = run_load(
            addr,
            LoadConfig { clients, requests_per_client: serve_requests },
            mixed_request,
        );
        let sep = if i + 1 == serve_clients.len() { "" } else { "," };
        j.0.push_str(&format!(
            "      {{ \"clients\": {}, \"requests\": {}, \"errors\": {}, \"rps\": {:.1}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2} }}{}\n",
            clients, report.completed, report.errors, report.rps, report.p50_ms, report.p99_ms, sep
        ));
        println!("  serve clients={clients} done ({:.1} req/s)", report.rps);
    }
    j.0.push_str("    ],\n");
    // Queue-wait percentiles (v6): how long accepted jobs sat in the
    // scheduler queue, read off the server's own metrics histogram.
    // Cumulative over the sweep above. Wall-clock — reported, never gated.
    let (wait_p50, wait_p99) = queue_wait_percentiles(addr);
    j.field(2, "queue_wait_p50_ms", &format!("{wait_p50:.2}"), false);
    j.field(2, "queue_wait_p99_ms", &format!("{wait_p99:.2}"), true);
    j.0.push_str("  },\n");

    // Saturation knee (v5): double the client count until throughput
    // stops improving; the knee is the last step that still bought
    // >= 10% more rps. Wall-clock — reported, never gated.
    let sat_requests = if tiny { 4 } else { 8 };
    let mut knee: Option<(usize, f64, f64)> = None;
    let mut prev_rps = 0.0f64;
    j.field(1, "serve_saturation", "{", true);
    j.field(2, "requests_per_client", &sat_requests.to_string(), false);
    j.field(
        2,
        "note",
        "\"closed-loop mixed stream; knee = last client count that bought >= 10% more rps\"",
        false,
    );
    j.field(2, "sweep", "[", true);
    let sat_clients = saturation_clients();
    for (i, &clients) in sat_clients.iter().enumerate() {
        let report = run_load(
            addr,
            LoadConfig { clients, requests_per_client: sat_requests },
            mixed_request,
        );
        if report.rps >= prev_rps * 1.10 || knee.is_none() {
            knee = Some((clients, report.rps, report.p99_ms));
        }
        prev_rps = report.rps;
        let sep = if i + 1 == sat_clients.len() { "" } else { "," };
        j.0.push_str(&format!(
            "      {{ \"clients\": {}, \"requests\": {}, \"errors\": {}, \"rps\": {:.1}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2} }}{}\n",
            clients, report.completed, report.errors, report.rps, report.p50_ms, report.p99_ms, sep
        ));
        println!(
            "  saturation clients={clients} done ({:.1} req/s, p99 {:.1} ms)",
            report.rps, report.p99_ms
        );
    }
    j.0.push_str("    ],\n");
    // Queue-wait percentiles (v6) after the saturation sweep — the same
    // cumulative histogram, now dominated by the deepest-queue steps.
    let (sat_wait_p50, sat_wait_p99) = queue_wait_percentiles(addr);
    j.field(2, "queue_wait_p50_ms", &format!("{sat_wait_p50:.2}"), false);
    j.field(2, "queue_wait_p99_ms", &format!("{sat_wait_p99:.2}"), false);
    let (knee_clients, knee_rps, knee_p99) = knee.expect("at least one sweep step");
    j.field(2, "knee_clients", &knee_clients.to_string(), false);
    j.field(2, "knee_rps", &format!("{knee_rps:.1}"), false);
    j.field(2, "knee_p99_ms", &format!("{knee_p99:.2}"), true);
    j.0.push_str("  },\n");
    stop_bench_server(addr, handle);

    // The paper-scale trajectory (v4): T20.I6 across the backends, with
    // the scale and per-backend cutoffs recorded so mismatched configs
    // are visible in diffs. Wall clock — reported, never gated.
    let (_, engine_max, sql_max) = poolscale_scales();
    j.field(1, "poolscale_t20_i6", "{", true);
    j.field(2, "min_support", &POOLSCALE_SUPPORT.to_string(), false);
    j.field(2, "engine_max_txns", &engine_max.to_string(), false);
    j.field(2, "sql_max_txns", &sql_max.to_string(), false);
    j.field(2, "sweep", "[", true);
    let rows = poolscale_rows(threads_from_env());
    for (i, r) in rows.iter().enumerate() {
        let mut fields = vec![
            format!("\"n_txns\": {}", r.n_txns),
            format!("\"n_rows\": {}", r.n_rows),
            format!("\"patterns\": {}", r.patterns),
            format!("\"memory_wall_ms\": {:.1}", r.memory_ms),
        ];
        if let Some((ms, accesses)) = r.engine {
            fields.push(format!("\"engine_wall_ms\": {ms:.1}"));
            fields.push(format!("\"engine_page_accesses\": {accesses}"));
        }
        if let Some((ms, stmts)) = r.sql {
            fields.push(format!("\"sql_wall_ms\": {ms:.1}"));
            fields.push(format!("\"sql_statements\": {stmts}"));
        }
        let sep = if i + 1 == rows.len() { "" } else { "," };
        j.0.push_str(&format!("      {{ {} }}{}\n", fields.join(", "), sep));
    }
    j.0.push_str("    ]\n  },\n");

    // Incremental mining (v5): the frontier-append acceptance workload —
    // absorb a ~1% delta and compare against a full re-mine. The byte-
    // identity check runs inside the measurement; the <25% bar is
    // asserted here so a regression fails the baseline run loudly.
    // Wall-clock — reported, never gated.
    println!("  incremental append vs full re-mine ...");
    let inc = measure_incremental(threads_from_env());
    let inc_ratio = inc.delta_ms / inc.full_ms;
    assert!(
        inc_ratio < 0.25,
        "apply_delta took {:.1}% of the full re-mine — the <25% acceptance bar failed",
        inc_ratio * 100.0
    );
    j.field(1, "incremental_t20_i6", "{", true);
    j.field(2, "min_support", &POOLSCALE_SUPPORT.to_string(), false);
    j.field(2, "base_txns", &inc.base_txns.to_string(), false);
    j.field(2, "delta_txns", &inc.delta_txns.to_string(), false);
    j.field(2, "patterns", &inc.patterns.to_string(), false);
    j.field(2, "full_remine_wall_ms", &format!("{:.1}", inc.full_ms), false);
    j.field(2, "apply_delta_wall_ms", &format!("{:.1}", inc.delta_ms), false);
    j.field(2, "delta_over_full", &format!("{inc_ratio:.4}"), true);
    j.0.push_str("  },\n");
    println!("  incremental done (apply_delta {:.1}% of re-mine)", inc_ratio * 100.0);

    // Constraint pushdown (v7): anchored counting vs mine-all-then-
    // filter on the planted-target T20.I6 workload. Rule byte-equality
    // and the strict Σ|C_k| reduction are asserted inside the
    // measurement; the ratio here is reported, never gated.
    println!("  constrained pushdown vs post-filter ...");
    let con = measure_constrained(threads_from_env());
    j.field(1, "constrained_t20_i6", "{", true);
    j.field(2, "min_support", &POOLSCALE_SUPPORT.to_string(), false);
    j.field(2, "n_txns", &con.n_txns.to_string(), false);
    j.field(2, "required_item", &con.target.to_string(), false);
    j.field(2, "rules", &con.rules.to_string(), false);
    j.field(2, "pushed_sum_ck", &con.pushed_candidates.to_string(), false);
    j.field(2, "postfilter_sum_ck", &con.postfilter_candidates.to_string(), false);
    j.field(2, "candidates_pruned", &con.pruned.to_string(), false);
    j.field(2, "pushed_wall_ms", &format!("{:.1}", con.pushed_ms), false);
    j.field(2, "postfilter_wall_ms", &format!("{:.1}", con.postfilter_ms), true);
    j.0.push_str("  },\n");
    println!(
        "  constrained done (Σ|C_k| {} pushed vs {} post-filter)",
        con.pushed_candidates, con.postfilter_candidates
    );

    // Nested-loop vs SETM on the engine (the paper's headline ratio);
    // tiny mode shrinks the uniform model further (the scale is recorded
    // so mismatched configs are visible in diffs).
    let uniform_scale = if tiny { 400 } else { 100 };
    let uniform = UniformConfig::paper_scaled(uniform_scale).generate();
    let params = MiningParams::new(MinSupport::Fraction(0.005), 0.5).with_max_len(2);
    let sm = run_on_engine(&uniform, &params, EngineConfig::default(), 1);
    let nl = mine_nested_loop(&uniform, &params).expect("nested loop");
    j.field(1, "engine_uniform_scaled100_analysis", "{", true);
    j.field(2, "scale_down", &uniform_scale.to_string(), false);
    j.field(
        2,
        "setm_page_accesses",
        &sm.report.page_accesses().expect("engine report").to_string(),
        false,
    );
    j.field(
        2,
        "setm_estimated_io_ms",
        &format!("{:.1}", sm.report.estimated_io_ms().expect("engine report")),
        false,
    );
    j.field(2, "nested_loop_page_accesses", &nl.total_page_accesses.to_string(), false);
    j.field(2, "nested_loop_estimated_io_ms", &format!("{:.1}", nl.total_estimated_ms), true);
    j.0.push_str("  }\n}\n");
    println!("  engine analysis done");

    let path = path.unwrap_or_else(|| "BENCH_baseline.json".to_string());
    match std::fs::write(&path, &j.0) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// The CI bench-trajectory guard: compare the `deterministic` counters
/// of a freshly recorded baseline against the checked-in reference.
/// Deterministic drift (page accesses, |C_k| traces, SQL statement
/// counts, nested-loop vs SETM I/O) fails the run; wall-clock fields
/// are reported for context, when both files ran one config, but never
/// gated.
fn repro_check_baseline(candidate: Option<String>, reference: Option<String>) {
    use setm_serve::json::{parse, Json as JsonValue};

    banner("Bench-trajectory guard — deterministic counters vs baseline");
    let cand_path = candidate.unwrap_or_else(|| "ci_baseline.json".to_string());
    let ref_path = reference.unwrap_or_else(|| "BENCH_baseline.json".to_string());
    let load = |path: &str| -> JsonValue {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("could not read {path}: {e}");
            std::process::exit(2);
        });
        parse(&text).unwrap_or_else(|e| {
            eprintln!("could not parse {path}: {e}");
            std::process::exit(2);
        })
    };
    let cand = load(&cand_path);
    let reference = load(&ref_path);
    // Counters are compared only between files of one schema: a schema
    // change moves fields, so a cross-schema diff would report noise.
    let member =
        |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_str).map(str::to_string);
    let (ref_schema, cand_schema) = (member(&reference, "schema"), member(&cand, "schema"));
    if ref_schema != cand_schema {
        eprintln!(
            "schema mismatch: {ref_path} is {} but {cand_path} is {}; regenerate the \
             baseline with `repro -- baseline`",
            ref_schema.as_deref().unwrap_or("unversioned"),
            cand_schema.as_deref().unwrap_or("unversioned"),
        );
        std::process::exit(2);
    }

    // Wall-clock context: same-path wall_ms leaves, side by side. Never
    // gated, and shown only between files of one config: a tiny and a
    // full baseline time different inputs at the same paths.
    let (ref_config, cand_config) = (member(&reference, "config"), member(&cand, "config"));
    let mut ref_walls = Vec::new();
    collect_wall_leaves("", &reference, &mut ref_walls);
    let mut cand_walls = Vec::new();
    collect_wall_leaves("", &cand, &mut cand_walls);
    let common: Vec<(&String, f64, f64)> = ref_walls
        .iter()
        .filter_map(|(path, rv)| {
            cand_walls.iter().find(|(p, _)| p == path).map(|(_, cv)| (path, *rv, *cv))
        })
        .collect();
    if ref_config != cand_config {
        println!(
            "wall-clock: not compared, {ref_path} is the {} config and {cand_path} the {} config\n",
            ref_config.as_deref().unwrap_or("unnamed"),
            cand_config.as_deref().unwrap_or("unnamed"),
        );
    } else if common.is_empty() {
        println!("wall-clock: no directly comparable fields — not gated\n");
    } else {
        println!("wall-clock (reported, never gated):");
        println!("  {:<58} {:>10} {:>10} {:>7}", "field", "baseline", "candidate", "ratio");
        for (path, rv, cv) in common {
            println!("  {:<58} {:>10.2} {:>10.2} {:>6.2}x", path, rv, cv, cv / rv.max(1e-9));
        }
        println!();
    }

    let (Some(r), Some(c)) = (reference.get("deterministic"), cand.get("deterministic")) else {
        eprintln!(
            "missing `deterministic` section in {} — regenerate with `repro -- baseline`",
            if reference.get("deterministic").is_none() { &ref_path } else { &cand_path }
        );
        std::process::exit(1);
    };
    let mut drifts: Vec<String> = Vec::new();
    diff_deterministic("deterministic", r, c, &mut drifts);
    if drifts.is_empty() {
        println!("OK: every deterministic counter matches {ref_path}.");
    } else {
        eprintln!("{} deterministic counter(s) drifted from {ref_path}:", drifts.len());
        for d in &drifts {
            eprintln!("  {d}");
        }
        eprintln!("\nif the drift is an intended algorithm change, regenerate the");
        eprintln!("baseline (`repro -- baseline`) in the same commit and say why.");
        std::process::exit(1);
    }
}

/// Recursive exact comparison of the deterministic subtree; every
/// mismatch (value drift, missing key, extra key, shape change) is one
/// human-readable line.
fn diff_deterministic(
    path: &str,
    reference: &setm_serve::json::Json,
    candidate: &setm_serve::json::Json,
    drifts: &mut Vec<String>,
) {
    use setm_serve::json::Json as J;
    match (reference, candidate) {
        (J::Obj(rm), J::Obj(cm)) => {
            for (key, rv) in rm {
                match candidate.get(key) {
                    Some(cv) => diff_deterministic(&format!("{path}.{key}"), rv, cv, drifts),
                    None => drifts.push(format!("{path}.{key}: missing from candidate")),
                }
            }
            for (key, _) in cm {
                if reference.get(key).is_none() {
                    drifts.push(format!(
                        "{path}.{key}: present in candidate but not in the baseline"
                    ));
                }
            }
        }
        (J::Arr(ra), J::Arr(ca)) => {
            if ra.len() != ca.len() {
                drifts.push(format!("{path}: length {} != baseline length {}", ca.len(), ra.len()));
            } else {
                for (i, (rv, cv)) in ra.iter().zip(ca.iter()).enumerate() {
                    diff_deterministic(&format!("{path}[{i}]"), rv, cv, drifts);
                }
            }
        }
        (rv, cv) => {
            if rv != cv {
                drifts.push(format!("{path}: {cv:?} != baseline {rv:?}"));
            }
        }
    }
}

/// Collect `(path, value)` pairs for wall-clock-ish numeric leaves.
fn collect_wall_leaves(path: &str, value: &setm_serve::json::Json, out: &mut Vec<(String, f64)>) {
    use setm_serve::json::Json as J;
    match value {
        J::Obj(members) => {
            for (key, v) in members {
                collect_wall_leaves(&format!("{path}.{key}"), v, out);
            }
        }
        J::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                collect_wall_leaves(&format!("{path}[{i}]"), v, out);
            }
        }
        J::Num(n) => {
            let leaf = path.rsplit('.').next().unwrap_or(path);
            if leaf.contains("wall_ms")
                || leaf == "rps"
                || leaf.contains("p50")
                || leaf.contains("p99")
            {
                out.push((path.to_string(), *n));
            }
        }
        _ => {}
    }
}
