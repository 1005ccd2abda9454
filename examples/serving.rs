//! Serving: mine over the wire instead of in-process.
//!
//! Starts an in-process `setm-serve` server (the `setm-serve` binary
//! wraps exactly this), then drives it as three concurrent clients —
//! one per backend — with the same `Miner` builder a local run uses.
//! Finishes with the admin verbs: `list-datasets`, `status`, and the
//! graceful-drain `shutdown`.
//!
//! Run with: `cargo run --example serving`

use setm::serve::{Client, Registry, ServeConfig, Server};
use setm::{Backend, EngineConfig, Miner};

fn main() {
    let server = Server::bind(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 16,
            ..Default::default()
        },
        Registry::with_builtins(),
    )
    .expect("bind a loopback port");
    let addr = server.local_addr();
    println!("serving on {addr} (2 workers, queue capacity 16)\n");
    let server_thread = std::thread::spawn(move || server.run());

    // Three concurrent clients, one per physical execution.
    let replies: Vec<(String, usize, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> =
            [Backend::Memory, Backend::Engine(EngineConfig::default()), Backend::Sql]
                .into_iter()
                .map(|backend| {
                    s.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        let miner =
                            Miner::new(setm::example::paper_example_params()).backend(backend);
                        let reply = client.mine("example", miner).expect("served mine");
                        (
                            reply.outcome.report.backend_name().to_string(),
                            reply.outcome.itemsets.len(),
                            reply.outcome.rules.len(),
                        )
                    })
                })
                .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    for (backend, itemsets, rules) in &replies {
        println!("{backend:<7} -> {itemsets} frequent itemsets, {rules} rules");
    }
    assert!(replies.windows(2).all(|w| w[0].1 == w[1].1 && w[0].2 == w[1].2));
    println!("\nall three served executions agree (the Section 5 listing, every time)");

    let mut admin = Client::connect(addr).expect("connect admin");
    println!("\nregistered datasets:");
    for d in admin.list_datasets().expect("list-datasets") {
        let loaded = if d.loaded { "loaded" } else { "lazy" };
        println!("  {:<14} [{loaded}] {}", d.name, d.description);
    }
    let status = admin.status().expect("status");
    println!(
        "\nstatus: {} jobs completed, {} rejected, {} worker(s), {} hardware thread(s)",
        status.completed, status.rejected, status.workers, status.hardware_threads
    );

    let pending = admin.shutdown().expect("shutdown");
    server_thread.join().expect("server drains");
    println!("shut down cleanly with {pending} job(s) pending");
}
