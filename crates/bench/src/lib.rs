//! The serve load generator behind the `repro` binary.
//!
//! [`loadgen`] is the concurrent load generator that `repro -- serve`
//! and `repro -- baseline`'s serve section drive against an in-process
//! `setm-serve` server.

pub mod loadgen {
    //! A closed-loop load generator for `setm-serve`.
    //!
    //! N client threads each open one connection and issue R mining
    //! requests back-to-back (closed loop: a client's next request waits
    //! for its previous outcome). Per-request latencies are pooled and
    //! summarized as requests/sec plus p50/p99 — the serve-layer numbers
    //! `BENCH_baseline.json` tracks.

    use setm_core::{Backend, EngineConfig, MinSupport, Miner, MiningParams};
    use setm_serve::client::Client;
    use setm_serve::registry::Registry;
    use setm_serve::server::{ServeConfig, Server};
    use std::net::SocketAddr;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    /// Start the in-process server every serve measurement drives: the
    /// builtin registry, worker pool sized to the machine, and a queue
    /// bound (256) deep enough that the 16-client sweep never trips
    /// backpressure — these runs measure throughput, not rejection. One
    /// warm-up round puts dataset materialization off the clock.
    pub fn start_bench_server() -> (SocketAddr, JoinHandle<()>) {
        let server = Server::bind(
            ServeConfig { queue_capacity: 256, ..Default::default() },
            Registry::with_builtins(),
        )
        .expect("bind loopback server");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        run_load(addr, LoadConfig { clients: 1, requests_per_client: 4 }, mixed_request);
        (addr, handle)
    }

    /// Shut a [`start_bench_server`] server down and join it.
    pub fn stop_bench_server(addr: SocketAddr, handle: JoinHandle<()>) {
        let mut client = Client::connect(addr).expect("connect for shutdown");
        client.shutdown().expect("shutdown verb");
        handle.join().expect("server thread");
    }

    /// Read the server's scheduler queue-wait percentiles (milliseconds)
    /// off the `metrics` verb. The histogram is cumulative over the
    /// server's lifetime, so call this right after the sweep whose waits
    /// you want summarized. Returns `(p50_ms, p99_ms)`.
    pub fn queue_wait_percentiles(addr: SocketAddr) -> (f64, f64) {
        let mut client = Client::connect(addr).expect("connect for metrics");
        let metrics = client.metrics().expect("metrics verb");
        let hist = metrics
            .get("setm_scheduler_queue_wait_ms")
            .expect("scheduler queue-wait histogram is always registered");
        let leaf =
            |key: &str| hist.get(key).and_then(setm_serve::json::Json::as_f64).unwrap_or(0.0);
        (leaf("p50_ms"), leaf("p99_ms"))
    }

    /// Shape of one load run.
    #[derive(Debug, Clone, Copy)]
    pub struct LoadConfig {
        /// Concurrent client connections.
        pub clients: usize,
        /// Requests each client issues (closed loop).
        pub requests_per_client: usize,
    }

    /// What a load run measured.
    #[derive(Debug, Clone)]
    pub struct LoadReport {
        /// Requests that completed with an outcome.
        pub completed: usize,
        /// Requests rejected or failed (backpressure shows up here).
        pub errors: usize,
        /// Wall-clock of the whole run.
        pub wall: Duration,
        /// Completed requests per second of wall-clock.
        pub rps: f64,
        /// Median request latency, milliseconds.
        pub p50_ms: f64,
        /// 99th-percentile request latency, milliseconds.
        pub p99_ms: f64,
    }

    /// The mixed request stream: rotates the worked example across all
    /// three backends plus a Quest workload on the in-memory path, so a
    /// run exercises every execution the server can schedule.
    pub fn mixed_request(i: usize) -> (&'static str, Miner) {
        let example = MiningParams::new(MinSupport::Fraction(0.3), 0.7);
        let quest = MiningParams::new(MinSupport::Fraction(0.02), 0.5);
        match i % 4 {
            0 => ("example", Miner::new(example)),
            1 => ("example", Miner::new(example).backend(Backend::Engine(EngineConfig::default()))),
            2 => ("example", Miner::new(example).backend(Backend::Sql).threads(1)),
            _ => ("quest-t5", Miner::new(quest).threads(1)),
        }
    }

    /// Drive `config` against a running server and pool the latencies.
    /// `request` maps a global request index to (dataset, miner); use
    /// [`mixed_request`] for the standard mixed-backend stream.
    pub fn run_load(
        addr: SocketAddr,
        config: LoadConfig,
        request: fn(usize) -> (&'static str, Miner),
    ) -> LoadReport {
        let t0 = Instant::now();
        let per_client: Vec<(Vec<Duration>, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..config.clients)
                .map(|c| {
                    s.spawn(move || {
                        let mut latencies = Vec::with_capacity(config.requests_per_client);
                        let mut errors = 0usize;
                        let Ok(mut client) = Client::connect(addr) else {
                            return (latencies, config.requests_per_client);
                        };
                        for r in 0..config.requests_per_client {
                            let (dataset, miner) = request(c * config.requests_per_client + r);
                            let t = Instant::now();
                            match client.mine(dataset, miner) {
                                Ok(_) => latencies.push(t.elapsed()),
                                Err(_) => errors += 1,
                            }
                        }
                        (latencies, errors)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        let wall = t0.elapsed();

        let mut latencies: Vec<Duration> =
            per_client.iter().flat_map(|(l, _)| l.iter().copied()).collect();
        let errors = per_client.iter().map(|(_, e)| e).sum();
        latencies.sort_unstable();
        let completed = latencies.len();
        let percentile = |p: f64| -> f64 {
            if latencies.is_empty() {
                return 0.0;
            }
            let rank = ((p * completed as f64).ceil() as usize).clamp(1, completed);
            latencies[rank - 1].as_secs_f64() * 1e3
        };
        LoadReport {
            completed,
            errors,
            wall,
            rps: completed as f64 / wall.as_secs_f64().max(1e-9),
            p50_ms: percentile(0.50),
            p99_ms: percentile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::loadgen::{mixed_request, run_load, LoadConfig};
    use setm_serve::registry::Registry;
    use setm_serve::server::{ServeConfig, Server};

    #[test]
    fn loadgen_measures_a_small_run() {
        let server = Server::bind(ServeConfig::default(), Registry::with_builtins()).expect("bind");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());

        let report =
            run_load(addr, LoadConfig { clients: 3, requests_per_client: 4 }, mixed_request);
        assert_eq!(report.completed, 12);
        assert_eq!(report.errors, 0);
        assert!(report.rps > 0.0);
        assert!(report.p50_ms > 0.0 && report.p99_ms >= report.p50_ms);

        // The scheduler's wait histogram saw those 12 jobs; its
        // percentiles are coherent (the v6 baseline columns).
        let (wait_p50, wait_p99) = super::loadgen::queue_wait_percentiles(addr);
        assert!(wait_p99 >= wait_p50 && wait_p50 >= 0.0);

        let mut c = setm_serve::client::Client::connect(addr).unwrap();
        c.shutdown().unwrap();
        handle.join().unwrap();
    }
}
