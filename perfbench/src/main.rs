//! The SETM benchmark: one command per workload and seed.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mine_quest --seed 1 --seconds 30 --trace 0
//! ```
//!
//! It generates its inputs from the seed, drives only public API (`Miner::run`
//! on the three backends, an in-process `setm-serve` server through its
//! `Client`), checks every output, and prints every metric with its unit
//! and sample count. The last line of standard output is one JSON object:
//! the end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. The exit code is 0 only if every check passed.

mod batch;
mod host;
mod inputs;
mod layers;
mod report;
mod serve;
mod spans;
mod stats;

use setm_core::{Backend, EngineConfig};
use spans::Spans;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Worker threads every benchmark mine pins (never 0, which would follow
/// the host's core count).
pub const THREADS: usize = 2;
pub const N_BACKENDS: usize = 3;

/// The backends in report order: memory, engine, sql.
pub fn backend(b: usize) -> Backend {
    match b {
        0 => Backend::Memory,
        1 => Backend::Engine(EngineConfig::default()),
        _ => Backend::Sql,
    }
}

static TRACED: AtomicBool = AtomicBool::new(false);

/// Whether this is the traced run.
pub fn traced() -> bool {
    TRACED.load(Ordering::Relaxed)
}

const WORKLOADS: [&str; 3] = ["mine_quest", "mine_retail", "serve_mixed"];

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() {
    let origin = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    TRACED.store(args.trace, Ordering::Relaxed);

    let mut spans = Spans::new(origin);
    let mut report = match args.workload.as_str() {
        "mine_quest" => batch::run(batch::Data::Quest, &args, &mut spans),
        "mine_retail" => batch::run(batch::Data::Retail, &args, &mut spans),
        _ => serve::run(&args, &mut spans),
    };
    report.lines.insert(
        0,
        format!(
            "host: nproc = {}, available_parallelism = {}; pinned: mine threads = {THREADS}, server workers = {}, \
             serve request threads = 1, clients = 2; seed = {}, seconds = {}, trace = {}",
            host::nproc().map_or("unknown".to_string(), |n| n.to_string()),
            host::available_parallelism(),
            serve::WORKERS,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
    );

    if args.trace {
        report.layer("trace.spans", spans.spans().len() as f64, "count", 1);
        for (name, t) in spans.by_name() {
            report.line(format!(
                "span {name}: n={}, total {:.3} ms, self {:.3} ms",
                t.count, t.total_ms, t.self_ms
            ));
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-seed{}.jsonl", args.workload, args.seed);
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, spans.to_jsonl())) {
            Ok(()) => report.line(format!("spans written to {path}")),
            Err(e) => report.line(format!("spans not written ({path}): {e}")),
        }
    }
    for name in report.missing(args.trace) {
        report.problem(format!("metric {name} was not measured"));
    }
    print!("{}", report.render(args.trace));
    std::process::exit(if report.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve_mixed --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mixed", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload mine_quest --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload mine_quest --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload mine_quest --seconds 1")).is_err());
    }
}
