//! The `setm-client` binary: drive a `setm-serve` server from the shell.
//!
//! ```text
//! setm-client [--addr HOST:PORT] <verb> [options]
//!
//! verbs:
//!   mine --dataset NAME [--backend memory|engine|sql] [--threads N]
//!        [--min-support X] [--min-confidence X] [--max-len K]
//!        [--require ITEMS] [--exclude ITEMS] [--target ITEMS]
//!        [--json] [--follow]
//!          X parses as an absolute count when integral ("3") and as a
//!          fraction otherwise ("0.005"). --json dumps the raw outcome
//!          object instead of the human summary. --follow opts into the
//!          server's progress stream and renders each iteration (and
//!          phase/note event) live as it completes. ITEMS is a
//!          comma-separated item list ("4,7"); the flags repeat and
//!          accumulate. --require mines only patterns containing all
//!          the items, --exclude drops patterns containing any of them
//!          (both pushed into the server's candidate loop — pruned
//!          counts show per iteration), --target keeps only rules whose
//!          consequent is one of the items.
//!   register-dataset --name NAME (--file PATH:FORMAT | --transactions SPEC)
//!          create NAME at version 1 from a basket file (fimi or pairs)
//!          or an inline SPEC of the form "tid:item,item;tid:item,...".
//!   append-batch --name NAME (--file PATH:FORMAT | --transactions SPEC)
//!          append new transactions to NAME, bumping its version; old
//!          versions stay mineable as NAME@V.
//!   datasets        list the registry
//!   status          scheduler + registry counters
//!   metrics [--text] snapshot the metrics registry (canonical JSON, or
//!                    Prometheus-style text with --text)
//!   trace JOB       span timeline of a recent job (queued → planned →
//!                    iteration k → serialized)
//!   cancel JOB      cancel a queued job by id
//!   shutdown        graceful drain
//! ```

use setm_core::{Backend, MinSupport, Miner, MiningConstraints, MiningParams};
use setm_serve::client::Client;
use setm_serve::ProgressEvent;

fn usage_exit(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: setm-client [--addr HOST:PORT] <mine|register-dataset|append-batch|datasets|\
         status|metrics|trace|cancel|shutdown> [options]"
    );
    std::process::exit(2);
}

/// Parse a comma-separated item list for `--require/--exclude/--target`.
fn parse_item_list(flag: &str, text: &str) -> Vec<u32> {
    text.split(',')
        .filter(|i| !i.trim().is_empty())
        .map(|i| {
            i.trim().parse().unwrap_or_else(|_| usage_exit(&format!("{flag}: bad item {i:?}")))
        })
        .collect()
}

fn parse_min_support(text: &str) -> MinSupport {
    if let Ok(count) = text.parse::<u64>() {
        MinSupport::Count(count)
    } else if let Ok(fraction) = text.parse::<f64>() {
        MinSupport::Fraction(fraction)
    } else {
        usage_exit(&format!("--min-support {text:?} is neither a count nor a fraction"));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--addr" {
            addr = args.get(i + 1).cloned().unwrap_or_else(|| usage_exit("--addr needs a value"));
            i += 2;
        } else {
            rest.push(args[i].clone());
            i += 1;
        }
    }
    let Some(verb) = rest.first().cloned() else { usage_exit("missing verb") };

    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("could not connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let result = match verb.as_str() {
        "mine" => run_mine(&mut client, &rest[1..]),
        "register-dataset" => run_mutation(&mut client, &rest[1..], true),
        "append-batch" => run_mutation(&mut client, &rest[1..], false),
        "datasets" | "list-datasets" => run_datasets(&mut client),
        "status" => run_status(&mut client),
        "metrics" => run_metrics(&mut client, rest.get(1).is_some_and(|f| f == "--text")),
        "trace" => {
            let job = rest
                .get(1)
                .and_then(|j| j.parse().ok())
                .unwrap_or_else(|| usage_exit("trace needs a numeric job id"));
            run_trace(&mut client, job)
        }
        "cancel" => {
            let job = rest
                .get(1)
                .and_then(|j| j.parse().ok())
                .unwrap_or_else(|| usage_exit("cancel needs a numeric job id"));
            run_cancel(&mut client, job)
        }
        "shutdown" => run_shutdown(&mut client),
        other => usage_exit(&format!("unknown verb {other:?}")),
    };
    if let Err(e) = result {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

type CmdResult = Result<(), setm_serve::client::ClientError>;

fn run_mine(client: &mut Client, options: &[String]) -> CmdResult {
    let mut dataset: Option<String> = None;
    let mut backend = Backend::Memory;
    let mut threads = 0usize;
    let mut min_support = MinSupport::Fraction(0.01);
    let mut min_confidence = 0.5f64;
    let mut max_len: Option<usize> = None;
    let mut require: Vec<u32> = Vec::new();
    let mut exclude: Vec<u32> = Vec::new();
    let mut targets: Vec<u32> = Vec::new();
    let mut raw_json = false;
    let mut follow = false;

    let mut i = 0;
    while i < options.len() {
        let flag = options[i].as_str();
        let value = || {
            options
                .get(i + 1)
                .cloned()
                .unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")))
        };
        let mut took_value = true;
        match flag {
            "--dataset" => dataset = Some(value()),
            "--backend" => {
                backend = value()
                    .parse()
                    .unwrap_or_else(|e: setm_core::UnknownBackend| usage_exit(&e.to_string()));
            }
            "--threads" => {
                threads =
                    value().parse().unwrap_or_else(|_| usage_exit("--threads needs a number"));
            }
            "--min-support" => min_support = parse_min_support(&value()),
            "--min-confidence" => {
                min_confidence = value()
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--min-confidence needs a number"));
            }
            "--max-len" => {
                max_len = Some(
                    value().parse().unwrap_or_else(|_| usage_exit("--max-len needs a number")),
                );
            }
            "--require" => require.extend(parse_item_list(flag, &value())),
            "--exclude" => exclude.extend(parse_item_list(flag, &value())),
            "--target" => targets.extend(parse_item_list(flag, &value())),
            "--json" => {
                raw_json = true;
                took_value = false;
            }
            "--follow" => {
                follow = true;
                took_value = false;
            }
            other => usage_exit(&format!("unknown mine option {other:?}")),
        }
        i += if took_value { 2 } else { 1 };
    }
    let Some(dataset) = dataset else { usage_exit("mine needs --dataset NAME") };

    let mut params = MiningParams::new(min_support, min_confidence);
    params.max_pattern_len = max_len;
    let constraints = MiningConstraints::new().require(require).exclude(exclude).targets(targets);
    let miner = Miner::new(params).backend(backend).threads(threads).constraints(constraints);
    let reply = if follow {
        client.mine_observed(&dataset, miner, |event| match event {
            ProgressEvent::Iteration(t) => println!(
                "~ k={}: |R'_{}|={} |R_{}|={} |C_{}|={} plan={}",
                t.k, t.k, t.r_prime_tuples, t.k, t.r_tuples, t.k, t.c_len, t.plan
            ),
            ProgressEvent::Phase { phase, state, k } => println!("~ k={k}: {phase} {state}"),
            ProgressEvent::Note { name, k, value } => println!("~ k={k}: {name} = {value}"),
        })?
    } else {
        client.mine(&dataset, miner)?
    };
    if raw_json {
        println!("{}", reply.raw_outcome);
        return Ok(());
    }
    let o = &reply.outcome;
    if let Some(via) = &reply.served_via {
        println!("served via: {via}");
    }
    println!(
        "job {} on {}: {} transactions, min support count {}",
        reply.job,
        o.report.backend_name(),
        o.n_transactions,
        o.min_support_count
    );
    println!("{} frequent itemsets, {} rules", o.itemsets.len(), o.rules.len());
    for t in &o.trace {
        let pruned = if t.candidates_pruned > 0 {
            format!(" pruned={}", t.candidates_pruned)
        } else {
            String::new()
        };
        println!(
            "  k={}: |R'_{}|={:<8} |R_{}|={:<8} |C_{}|={:<8} plan={}{pruned}",
            t.k, t.k, t.r_prime_tuples, t.k, t.r_tuples, t.k, t.c_len, t.plan
        );
    }
    match &o.report {
        setm_serve::ReportPayload::Memory => {}
        setm_serve::ReportPayload::Engine { page_accesses, estimated_io_ms, .. } => {
            println!("engine: {page_accesses} page accesses, est. {estimated_io_ms:.1} ms I/O");
        }
        setm_serve::ReportPayload::Sql { statements } => {
            println!("sql: {} statements executed", statements.len());
        }
    }
    for r in &o.rules {
        let ante: Vec<String> = r.antecedent.iter().map(u32::to_string).collect();
        println!(
            "  {} ==> {}, [{:.1}%, {:.1}%]",
            ante.join(" "),
            r.consequent,
            r.confidence * 100.0,
            r.support * 100.0
        );
    }
    Ok(())
}

/// Parse an inline transaction spec: `tid:item,item;tid:item,...`.
fn parse_transactions_spec(spec: &str) -> Vec<(u32, Vec<u32>)> {
    spec.split(';')
        .filter(|t| !t.trim().is_empty())
        .map(|t| {
            let Some((tid, items)) = t.split_once(':') else {
                usage_exit(&format!("bad transaction {t:?}; expected tid:item,item"));
            };
            let tid =
                tid.trim().parse().unwrap_or_else(|_| usage_exit(&format!("bad trans_id {tid:?}")));
            let items = items
                .split(',')
                .filter(|i| !i.trim().is_empty())
                .map(|i| {
                    i.trim().parse().unwrap_or_else(|_| usage_exit(&format!("bad item {i:?}")))
                })
                .collect();
            (tid, items)
        })
        .collect()
}

/// Load transactions from `PATH:FORMAT` via the same readers the server
/// uses for `--dataset`.
fn load_transactions_file(spec: &str) -> Vec<(u32, Vec<u32>)> {
    let Some((path, format)) = spec.rsplit_once(':') else {
        usage_exit("--file needs PATH:FORMAT (fimi or pairs)");
    };
    let format = format.parse().unwrap_or_else(|e: String| usage_exit(&e));
    let dataset = setm_core::io::load_path(path, format)
        .unwrap_or_else(|e| usage_exit(&format!("could not load {path}: {e}")));
    dataset.transactions().map(|(tid, items)| (tid, items.to_vec())).collect()
}

fn run_mutation(client: &mut Client, options: &[String], register: bool) -> CmdResult {
    let verb = if register { "register-dataset" } else { "append-batch" };
    let mut name: Option<String> = None;
    let mut transactions: Option<Vec<(u32, Vec<u32>)>> = None;
    let mut i = 0;
    while i < options.len() {
        let flag = options[i].as_str();
        let value = || {
            options
                .get(i + 1)
                .cloned()
                .unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")))
        };
        match flag {
            "--name" => name = Some(value()),
            "--file" => transactions = Some(load_transactions_file(&value())),
            "--transactions" => transactions = Some(parse_transactions_spec(&value())),
            other => usage_exit(&format!("unknown {verb} option {other:?}")),
        }
        i += 2;
    }
    let Some(name) = name else { usage_exit(&format!("{verb} needs --name NAME")) };
    let Some(transactions) = transactions else {
        usage_exit(&format!("{verb} needs --file PATH:FORMAT or --transactions SPEC"))
    };
    let version = if register {
        client.register_dataset(&name, &transactions)?
    } else {
        client.append_batch(&name, &transactions)?
    };
    println!(
        "{} {name}: now at version {version} ({} transaction(s) sent)",
        if register { "registered" } else { "appended to" },
        transactions.len()
    );
    Ok(())
}

fn run_datasets(client: &mut Client) -> CmdResult {
    for d in client.list_datasets()? {
        let loaded = if d.loaded {
            format!(
                "loaded: {} txns, {} rows",
                d.n_transactions.unwrap_or(0),
                d.n_rows.unwrap_or(0)
            )
        } else {
            "not loaded yet".to_string()
        };
        println!("{:<14} v{} {} ({loaded})", d.name, d.version, d.description);
    }
    Ok(())
}

fn run_status(client: &mut Client) -> CmdResult {
    let s = client.status()?;
    println!("{} — {} workers, queue capacity {}", s.schema, s.workers, s.queue_capacity);
    println!(
        "queued {}, running {}, completed {}, rejected {}, cancelled {}{}",
        s.queued,
        s.running,
        s.completed,
        s.rejected,
        s.cancelled,
        if s.draining { " (draining)" } else { "" }
    );
    println!(
        "datasets: {} registered, {} loaded; hardware threads: {}",
        s.datasets, s.datasets_loaded, s.hardware_threads
    );
    println!(
        "served: {} cache / {} delta / {} full (cache {} hits, {} misses)",
        s.served_cache, s.served_delta, s.served_full, s.cache_hits, s.cache_misses
    );
    if s.rate_limit > 0 {
        println!("rate limit: {}/s per connection ({} rejected)", s.rate_limit, s.rate_limited);
    }
    Ok(())
}

fn run_metrics(client: &mut Client, text: bool) -> CmdResult {
    if text {
        print!("{}", client.metrics_text()?);
    } else {
        println!("{}", client.metrics()?);
    }
    Ok(())
}

fn run_trace(client: &mut Client, job: u64) -> CmdResult {
    for (label, at_ms) in client.trace(job)? {
        println!("{at_ms:>9.2} ms  {label}");
    }
    Ok(())
}

fn run_cancel(client: &mut Client, job: u64) -> CmdResult {
    let dequeued = client.cancel(job)?;
    println!(
        "job {job}: {}",
        if dequeued { "cancelled" } else { "not queued (unknown or running)" }
    );
    Ok(())
}

fn run_shutdown(client: &mut Client) -> CmdResult {
    let pending = client.shutdown()?;
    println!("server draining; {pending} job(s) still pending");
    Ok(())
}
