//! The `setm-serve` server binary.
//!
//! ```text
//! setm-serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!            [--max-conns N] [--rate-limit N] [--dataset NAME=PATH:FORMAT]...
//!
//!   --addr       listen address        (default 127.0.0.1:7878)
//!   --workers    mining worker threads (default 0 = available parallelism)
//!   --queue-cap  pending-job bound     (default 32; beyond it: queue_full)
//!   --max-conns  concurrent-connection bound (default 256; beyond it:
//!                too_many_connections)
//!   --rate-limit per-connection request budget in lines/second (default
//!                0 = unlimited; beyond it: rate_limited)
//!   --dataset    register a basket file under NAME; FORMAT is fimi or
//!                pairs (e.g. --dataset web=logs/web.fimi:fimi). The
//!                builtin generator datasets are always registered.
//! ```
//!
//! Prints one `listening on ADDR ...` line once ready (scripts wait for
//! it), serves until a client sends the `shutdown` verb, drains, exits 0.

use setm_serve::registry::Registry;
use setm_serve::server::{ServeConfig, Server};

fn usage_exit(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: setm-serve [--addr HOST:PORT] [--workers N] [--queue-cap N] \
         [--max-conns N] [--rate-limit N] [--dataset NAME=PATH:FORMAT]..."
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServeConfig { addr: "127.0.0.1:7878".to_string(), ..Default::default() };
    let mut registry = Registry::with_builtins();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = || {
            args.get(i + 1).cloned().unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")))
        };
        match flag {
            "--addr" => config.addr = value(),
            "--workers" => {
                config.workers =
                    value().parse().unwrap_or_else(|_| usage_exit("--workers needs a number"));
            }
            "--queue-cap" => {
                config.queue_capacity =
                    value().parse().unwrap_or_else(|_| usage_exit("--queue-cap needs a number"));
            }
            "--max-conns" => {
                config.max_connections = value()
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .unwrap_or_else(|| usage_exit("--max-conns needs a number >= 1"));
            }
            "--rate-limit" => {
                config.max_requests_per_sec = value()
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--rate-limit needs a number (0 = off)"));
            }
            "--dataset" => {
                let spec = value();
                let Some((name, rest)) = spec.split_once('=') else {
                    usage_exit("--dataset needs NAME=PATH:FORMAT");
                };
                let Some((path, format)) = rest.rsplit_once(':') else {
                    usage_exit("--dataset needs NAME=PATH:FORMAT (fimi or pairs)");
                };
                let format = format.parse().unwrap_or_else(|e: String| usage_exit(&e));
                registry.register_file(name, path, format);
            }
            "--help" | "-h" => usage_exit("setm-serve: serve SETM mining over TCP"),
            other => usage_exit(&format!("unknown flag {other:?}")),
        }
        i += 2;
    }

    let server = match Server::bind(config.clone(), registry) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("could not bind {}: {e}", config.addr);
            std::process::exit(1);
        }
    };
    println!(
        "listening on {} (workers={}, queue-cap={}, max-conns={}, rate-limit={})",
        server.local_addr(),
        if config.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            config.workers
        },
        config.queue_capacity,
        config.max_connections,
        config.max_requests_per_sec
    );
    server.run();
    println!("drained; bye");
}
