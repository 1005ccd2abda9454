//! End-to-end tests of the served mining path: real TCP connections,
//! real concurrent clients, against an in-process server.
//!
//! The headline acceptance test: **N ≥ 8 concurrent clients mining mixed
//! backends through the server receive byte-identical outcomes to direct
//! `Miner::run` calls** — the serialization is canonical, so equality is
//! literal string equality on the outcome object.

use setm_core::{Backend, EngineConfig, MinSupport, Miner, MiningConstraints, MiningParams};
use setm_serve::client::{Client, ClientError, ServerStatus};
use setm_serve::registry::Registry;
use setm_serve::server::{ServeConfig, Server};
use setm_serve::{outcome_to_json, ReportPayload};
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Start a server with the builtin registry; returns its address and the
/// handle that joins once the server has drained.
fn start_server(workers: usize, queue_capacity: usize) -> (SocketAddr, JoinHandle<()>) {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity,
        ..Default::default()
    };
    let server = Server::bind(config, Registry::with_builtins()).expect("bind loopback");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn shutdown(addr: SocketAddr, server: JoinHandle<()>) {
    let mut c = Client::connect(addr).expect("connect for shutdown");
    c.shutdown().expect("shutdown verb");
    server.join().expect("server thread");
}

/// The mixed workload of the acceptance test: every backend, two
/// datasets, varying thread counts.
fn mixed_miner(i: usize) -> (&'static str, Miner) {
    let params = MiningParams::new(MinSupport::Fraction(0.3), 0.7);
    let quest = MiningParams::new(MinSupport::Fraction(0.02), 0.5);
    match i % 4 {
        0 => ("example", Miner::new(params)),
        1 => ("example", Miner::new(params).backend(Backend::Engine(EngineConfig::default()))),
        2 => ("example", Miner::new(params).backend(Backend::Sql).threads(1)),
        _ => ("quest-t5", Miner::new(quest).threads(2)),
    }
}

/// Acceptance: 12 concurrent clients (3 rounds of 4 mixed configurations)
/// all receive the bytes a local `Miner::run` + `outcome_to_json`
/// produces.
#[test]
fn concurrent_clients_get_byte_identical_outcomes() {
    let (addr, server) = start_server(4, 64);
    let n_clients = 12;

    let wire_outcomes: Vec<(usize, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_clients)
            .map(|i| {
                s.spawn(move || {
                    let (dataset, miner) = mixed_miner(i);
                    let mut client = Client::connect(addr).expect("connect");
                    let reply = client.mine(dataset, miner).expect("served mine");
                    (i, reply.raw_outcome)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    // Direct runs, locally serialized with the same canonical serializer.
    let registry = Registry::with_builtins();
    for (i, wire) in &wire_outcomes {
        let (dataset, miner) = mixed_miner(*i);
        let local = miner.run(&registry.get(dataset).unwrap()).expect("local run");
        let expected = outcome_to_json(&local).to_string();
        assert_eq!(
            wire, &expected,
            "client {i} ({dataset}) must receive byte-identical outcome bytes"
        );
    }
    shutdown(addr, server);
}

#[test]
fn served_outcome_reports_match_the_backend() {
    let (addr, server) = start_server(2, 16);
    let params = MiningParams::new(MinSupport::Fraction(0.3), 0.7);
    let mut client = Client::connect(addr).unwrap();

    let mem = client.mine("example", Miner::new(params)).unwrap();
    assert!(matches!(mem.outcome.report, ReportPayload::Memory));
    assert_eq!(mem.outcome.rules.len(), 11);
    assert_eq!(mem.outcome.trace.len(), 4);

    let eng = client
        .mine("example", Miner::new(params).backend(Backend::Engine(EngineConfig::default())))
        .unwrap();
    match &eng.outcome.report {
        ReportPayload::Engine { page_accesses, seq_writes, cache_frames, cache_hits, .. } => {
            assert!(*page_accesses > 0);
            // The tiny example fits entirely in the default buffer cache:
            // every read-back is a hit, but writes still touch the disk.
            assert!(*seq_writes > 0);
            assert!(*cache_hits > 0);
            assert_eq!(*cache_frames, EngineConfig::default().cache_frames as u64);
        }
        other => panic!("expected engine report, got {other:?}"),
    }

    // With caching disabled over the wire, the reads reappear on disk.
    let cold = client
        .mine(
            "example",
            Miner::new(params)
                .backend(Backend::Engine(EngineConfig { cache_frames: 0, ..Default::default() })),
        )
        .unwrap();
    match &cold.outcome.report {
        ReportPayload::Engine { seq_reads, cache_frames, cache_hits, .. } => {
            assert!(*seq_reads > 0);
            assert_eq!(*cache_hits, 0);
            assert_eq!(*cache_frames, 0);
        }
        other => panic!("expected engine report, got {other:?}"),
    }

    let sql = client.mine("example", Miner::new(params).backend(Backend::Sql)).unwrap();
    match &sql.outcome.report {
        ReportPayload::Sql { statements } => assert!(!statements.is_empty()),
        other => panic!("expected sql report, got {other:?}"),
    }
    assert_eq!(mem.outcome.itemsets, eng.outcome.itemsets);
    assert_eq!(mem.outcome.itemsets, sql.outcome.itemsets);
    assert_eq!(mem.outcome.rules, sql.outcome.rules);

    // One connection served three jobs; ids are distinct and increasing.
    assert!(mem.job < eng.job && eng.job < sql.job);
    shutdown(addr, server);
}

#[test]
fn admin_verbs_work_over_the_wire() {
    let (addr, server) = start_server(2, 8);
    let mut client = Client::connect(addr).unwrap();

    let datasets = client.list_datasets().unwrap();
    assert!(datasets.iter().any(|d| d.name == "example"));
    assert!(datasets.iter().any(|d| d.name == "retail-small"));
    assert!(datasets.iter().all(|d| !d.loaded), "nothing mined yet");

    let status = client.status().unwrap();
    assert_eq!(status.schema, "setm-serve/v1");
    assert_eq!(status.workers, 2);
    assert_eq!(status.queue_capacity, 8);
    assert_eq!(status.completed, 0);
    assert!(status.hardware_threads >= 1);

    let params = MiningParams::new(MinSupport::Fraction(0.3), 0.7);
    client.mine("example", Miner::new(params)).unwrap();
    let datasets = client.list_datasets().unwrap();
    let example = datasets.iter().find(|d| d.name == "example").unwrap();
    assert!(example.loaded);
    assert_eq!(example.n_transactions, Some(10));
    let status = client.status().unwrap();
    assert_eq!(status.completed, 1);
    assert_eq!(status.datasets_loaded, 1);

    // Cancelling an unknown job is a clean `false`, not an error.
    assert!(!client.cancel(4040).unwrap());
    shutdown(addr, server);
}

/// Protocol-level errors: stable codes and HTTP-style statuses.
#[test]
fn error_codes_reach_the_client() {
    let (addr, server) = start_server(1, 4);
    let mut client = Client::connect(addr).unwrap();
    let params = MiningParams::new(MinSupport::Fraction(0.3), 0.7);

    let err = client.mine("no-such-dataset", Miner::new(params)).unwrap_err();
    match err {
        ClientError::Server { code, status, .. } => {
            assert_eq!(code, "unknown_dataset");
            assert_eq!(status, 404);
        }
        other => panic!("expected server error, got {other}"),
    }

    let bad = MiningParams::new(MinSupport::Fraction(1.5), 0.7);
    let err = client.mine("example", Miner::new(bad)).unwrap_err();
    match err {
        ClientError::Server { code, status, .. } => {
            assert_eq!(code, "invalid_support_fraction");
            assert_eq!(status, 400);
        }
        other => panic!("expected server error, got {other}"),
    }

    // threads(4) on the SQL backend is *supported*: every option means
    // the same thing on every backend.
    let sql_parallel =
        client.mine("example", Miner::new(params).backend(Backend::Sql).threads(4)).unwrap();
    assert_eq!(sql_parallel.outcome.rules.len(), 11, "partitioned SQL serves fine");

    // The connection survives every rejected request.
    assert_eq!(client.mine("example", Miner::new(params)).unwrap().outcome.rules.len(), 11);
    shutdown(addr, server);
}

/// A request that keeps the single test worker busy for a while: the SQL
/// backend on retail-paper at a support count of 2 takes about half a
/// second in a release build (longer in a debug build), far longer than
/// the few ms any probe below needs. Each `min_confidence` is a distinct
/// request, so two blockers never share an outcome-cache entry (a cache
/// hit would skip the queue entirely).
fn blocker(min_confidence: f64) -> Miner {
    Miner::new(MiningParams::new(MinSupport::Count(2), min_confidence))
        .backend(Backend::Sql)
        .threads(1)
}

/// Poll `status` until `ready` holds; after 30 s fail, naming `what` and
/// the last status seen, instead of spinning forever.
fn await_status(client: &mut Client, what: &str, ready: impl Fn(&ServerStatus) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = client.status().unwrap();
        if ready(&s) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}; last status: {s:?}");
        std::thread::yield_now();
    }
}

/// Backpressure over the wire: one worker, queue of one — the third
/// concurrent request is rejected with the 429-style `queue_full`.
#[test]
fn saturated_queue_rejects_with_queue_full() {
    let (addr, server) = start_server(1, 1);
    let fill = |min_confidence: f64| {
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let reply = c.mine("retail-paper", blocker(min_confidence)).unwrap();
            assert!(!reply.outcome.itemsets.is_empty());
        })
    };

    // Fill the worker first, then the queue, so the second fill can never
    // meet a queue still holding the first.
    let mut probe = Client::connect(addr).unwrap();
    let mut fills = vec![fill(0.5)];
    await_status(&mut probe, "the first fill to run", |s| s.running == 1);
    fills.push(fill(0.6));
    await_status(&mut probe, "the second fill to queue", |s| s.running == 1 && s.queued == 1);

    let err = probe.mine("example", Miner::new(MiningParams::new(MinSupport::Count(3), 0.7)));
    match err.unwrap_err() {
        ClientError::Server { code, status, message } => {
            assert_eq!(code, "queue_full");
            assert_eq!(status, 429);
            assert!(message.contains("capacity") || message.contains("retry"), "{message}");
        }
        other => panic!("expected queue_full, got {other}"),
    }
    for f in fills {
        f.join().unwrap();
    }
    let rejected = probe.status().unwrap().rejected;
    assert_eq!(rejected, 1);
    shutdown(addr, server);
}

/// Cancellation from a second connection: submit on one connection, read
/// the job id from the accepted line, cancel it from another while the
/// single worker is still busy with a first job.
#[test]
fn queued_jobs_cancel_from_another_connection() {
    let (addr, server) = start_server(1, 8);

    // The blocker keeps the single worker busy through the cancel round
    // trip, which takes a few ms.
    let busy = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.mine("retail-paper", blocker(0.5)).unwrap();
    });
    let mut admin = Client::connect(addr).unwrap();
    await_status(&mut admin, "the blocker to run", |s| s.running == 1);

    let mut victim = Client::connect(addr).unwrap();
    let job = victim
        .submit("example", Miner::new(MiningParams::new(MinSupport::Fraction(0.3), 0.7)))
        .unwrap();
    assert!(admin.cancel(job).unwrap(), "queued job must dequeue");
    let err = victim.wait_outcome().unwrap_err();
    match err {
        ClientError::Server { code, status, .. } => {
            assert_eq!(code, "cancelled");
            assert_eq!(status, 409);
        }
        other => panic!("expected cancelled, got {other}"),
    }
    busy.join().unwrap();
    assert_eq!(admin.status().unwrap().cancelled, 1);
    shutdown(addr, server);
}

/// Hostile request lines: deep nesting, over-long payloads, and invalid
/// UTF-8 must come back as `bad_request` lines — never crash the server
/// or silently drop the connection — and a payload of *exactly* the
/// 1 MiB limit is still served.
#[test]
fn hostile_request_lines_get_bad_request_not_a_crash() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    const MAX_REQUEST_LINE: usize = 1 << 20; // mirrors server.rs

    let (addr, server) = start_server(1, 4);
    let expect_bad_request = |payload: &[u8]| {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(payload).unwrap();
        conn.write_all(b"\n").unwrap();
        let mut line = String::new();
        BufReader::new(conn).read_line(&mut line).unwrap();
        let v = setm_serve::json::parse(line.trim()).unwrap();
        assert_eq!(v.get("ok").and_then(|j| j.as_bool()), Some(false), "{line}");
        assert_eq!(v.get("code").and_then(|j| j.as_str()), Some("bad_request"), "{line}");
    };

    // The stack-overflow shape: 200k nested arrays, well under the line
    // cap. Before the parser depth limit this aborted the whole process.
    expect_bad_request("[".repeat(200_000).as_bytes());
    // One byte over the payload limit.
    expect_bad_request(" ".repeat(MAX_REQUEST_LINE + 1).as_bytes());
    // A cap-truncated over-long line whose truncation point lands on
    // literal '\r' bytes: only one terminator is stripped before the
    // length check, so trailing CRs in the payload cannot hide it.
    {
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut payload = vec![b' '; MAX_REQUEST_LINE];
        payload.extend_from_slice(b"\r\r");
        conn.write_all(&payload).unwrap();
        let mut line = String::new();
        BufReader::new(conn).read_line(&mut line).unwrap();
        assert!(line.contains("bad_request"), "{line}");
    }

    // A newline-less invalid-UTF-8 flood past the cap: previously a
    // silent drop, now an explicit bad_request before closing.
    {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&vec![0xFFu8; MAX_REQUEST_LINE + 2]).unwrap();
        let mut line = String::new();
        BufReader::new(conn).read_line(&mut line).unwrap();
        assert!(line.contains("bad_request"), "{line}");
    }

    // Exactly at the limit (a valid request padded with whitespace to
    // 1 MiB, newline excluded) is within bounds and served normally.
    {
        let mut conn = TcpStream::connect(addr).unwrap();
        let request = r#"{"op":"status"}"#;
        let mut payload = request.to_string();
        payload.push_str(&" ".repeat(MAX_REQUEST_LINE - request.len()));
        assert_eq!(payload.len(), MAX_REQUEST_LINE);
        payload.push('\n');
        conn.write_all(payload.as_bytes()).unwrap();
        let mut line = String::new();
        BufReader::new(conn).read_line(&mut line).unwrap();
        let v = setm_serve::json::parse(line.trim()).unwrap();
        assert_eq!(v.get("ok").and_then(|j| j.as_bool()), Some(true), "{line}");
        assert_eq!(v.get("event").and_then(|j| j.as_str()), Some("status"), "{line}");
    }

    // The server survived all of it.
    let mut client = Client::connect(addr).unwrap();
    let params = MiningParams::new(MinSupport::Fraction(0.3), 0.7);
    assert_eq!(client.mine("example", Miner::new(params)).unwrap().outcome.rules.len(), 11);
    shutdown(addr, server);
}

/// The connection bound: past `max_connections` concurrent clients the
/// server answers `too_many_connections` (429) and closes instead of
/// spawning an unbounded handler thread; slots free as clients leave.
#[test]
fn connection_limit_rejects_with_too_many_connections() {
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 4,
        max_connections: 2,
        max_requests_per_sec: 0,
    };
    let server = Server::bind(config, Registry::with_builtins()).expect("bind loopback");
    let addr = server.local_addr();
    let server = std::thread::spawn(move || server.run());

    // Two round-tripped clients pin both slots. The accept loop admits
    // in connect order, so once c2 has round-tripped both slots are held.
    let mut c1 = Client::connect(addr).unwrap();
    let mut c2 = Client::connect(addr).unwrap();
    c2.status().unwrap();
    let status = c1.status().unwrap();
    assert_eq!((status.connections, status.max_connections), (2, 2));

    // The third connection is rejected at accept time, before it sends
    // anything, with the typed 429-style line.
    let third = TcpStream::connect(addr).unwrap();
    let mut line = String::new();
    BufReader::new(third).read_line(&mut line).unwrap();
    let v = setm_serve::json::parse(line.trim()).unwrap();
    assert_eq!(v.get("code").and_then(|j| j.as_str()), Some("too_many_connections"), "{line}");
    assert_eq!(v.get("status").and_then(|j| j.as_u64()), Some(429), "{line}");

    // Dropping a client frees its slot (the handler notices EOF), after
    // which a new client is admitted and served.
    drop(c2);
    loop {
        if c1.status().unwrap().connections < 2 {
            break;
        }
        std::thread::yield_now();
    }
    let mut c3 = Client::connect(addr).unwrap();
    assert_eq!(c3.status().unwrap().schema, "setm-serve/v1");
    // Both slots are pinned (c1, c3), so the shutdown helper's extra
    // connection would be rejected — send the verb on a live client.
    c3.shutdown().unwrap();
    server.join().unwrap();
}

/// The base + batch the incremental tests register over the wire.
fn stream_base() -> Vec<(u32, Vec<u32>)> {
    vec![
        (1, vec![1, 2, 3]),
        (2, vec![1, 2]),
        (3, vec![2, 3]),
        (4, vec![1, 3]),
        (5, vec![3, 4]),
        (6, vec![1, 2, 3, 4]),
    ]
}

fn stream_batch() -> Vec<(u32, Vec<u32>)> {
    vec![(7, vec![1, 2, 3]), (8, vec![2, 3, 4]), (9, vec![1, 2])]
}

fn local_outcome_bytes(transactions: &[(u32, Vec<u32>)], miner: &Miner) -> String {
    let dataset = setm_core::Dataset::from_transactions(
        transactions.iter().map(|(tid, items)| (*tid, items.as_slice())),
    );
    outcome_to_json(&miner.run(&dataset).expect("local run")).to_string()
}

/// The incremental loop end to end: register → mine (full, captures a
/// frontier) → repeat (cache) → append → mine (delta) — every response
/// byte-identical to a local from-scratch run on the same data, and the
/// routes visible both on the replies and in the status counters.
#[test]
fn appends_serve_via_delta_with_byte_identical_outcomes() {
    let (addr, server) = start_server(2, 16);
    let mut client = Client::connect(addr).unwrap();
    let params = MiningParams::new(MinSupport::Count(2), 0.5);
    let miner = Miner::new(params).threads(1);

    assert_eq!(client.register_dataset("stream", &stream_base()).unwrap(), 1);
    let first = client.mine("stream", miner.clone()).unwrap();
    assert_eq!(first.served_via.as_deref(), Some("full"));
    assert_eq!(first.raw_outcome, local_outcome_bytes(&stream_base(), &miner));

    // The identical request is replayed from the outcome cache, verbatim.
    let cached = client.mine("stream", miner.clone()).unwrap();
    assert_eq!(cached.served_via.as_deref(), Some("cache"));
    assert_eq!(cached.raw_outcome, first.raw_outcome);

    // Appending bumps the version; the next mine rides the frontier.
    assert_eq!(client.append_batch("stream", &stream_batch()).unwrap(), 2);
    let delta = client.mine("stream", miner.clone()).unwrap();
    assert_eq!(delta.served_via.as_deref(), Some("delta"));
    let mut concat = stream_base();
    concat.extend(stream_batch());
    assert_eq!(delta.raw_outcome, local_outcome_bytes(&concat, &miner));

    // The engine backend has no honest delta shortcut — it serves full.
    let engine = miner.clone().backend(Backend::Engine(EngineConfig::default()));
    let eng = client.mine("stream", engine.clone()).unwrap();
    assert_eq!(eng.served_via.as_deref(), Some("full"));
    assert_eq!(eng.raw_outcome, local_outcome_bytes(&concat, &engine));

    let s = client.status().unwrap();
    assert_eq!((s.served_cache, s.served_delta), (1, 1), "cache/delta counters");
    assert!(s.served_full >= 2);
    assert_eq!(s.cache_hits, 1);
    assert!(s.cache_misses >= 3);
    assert!(s.available_parallelism >= 1);

    // Registering the same name again is a typed 400; overlapping
    // trans_ids in a batch are too, and change nothing.
    match client.register_dataset("stream", &stream_base()).unwrap_err() {
        ClientError::Server { code, status, .. } => {
            assert_eq!((code.as_str(), status), ("bad_request", 400));
        }
        other => panic!("expected bad_request, got {other}"),
    }
    match client.append_batch("stream", &[(7, vec![9])]).unwrap_err() {
        ClientError::Server { code, message, .. } => {
            assert_eq!(code, "bad_request");
            assert!(message.contains("trans_id 7"), "{message}");
        }
        other => panic!("expected bad_request, got {other}"),
    }
    shutdown(addr, server);
}

/// Constraint safety across the incremental fast paths: a constrained
/// mine is never answered from an unconstrained outcome cache entry or
/// frontier — after register → mine (which captures a frontier) →
/// append, a constrained request is served via `full` and is byte-equal
/// to a from-scratch local constrained run.
#[test]
fn constrained_mines_never_ride_unconstrained_caches_or_frontiers() {
    let (addr, server) = start_server(2, 16);
    let mut client = Client::connect(addr).unwrap();
    let params = MiningParams::new(MinSupport::Count(2), 0.5);
    let plain = Miner::new(params).threads(1);
    let constrained = plain.clone().constraints(MiningConstraints::new().require([2]).exclude([4]));

    assert_eq!(client.register_dataset("guarded", &stream_base()).unwrap(), 1);
    // Unconstrained mine: full route, captures the version-1 frontier
    // and an outcome-cache entry.
    let first = client.mine("guarded", plain.clone()).unwrap();
    assert_eq!(first.served_via.as_deref(), Some("full"));
    // The constrained request at the same version must not hit that
    // cache entry (distinct wire form ⇒ distinct key) or the frontier.
    let guarded = client.mine("guarded", constrained.clone()).unwrap();
    assert_eq!(guarded.served_via.as_deref(), Some("full"));
    assert_eq!(guarded.raw_outcome, local_outcome_bytes(&stream_base(), &constrained));
    assert_ne!(guarded.raw_outcome, first.raw_outcome);

    // After an append the unconstrained path rides the frontier (delta);
    // the constrained one still takes the full route and still matches a
    // from-scratch run on the concatenated data.
    assert_eq!(client.append_batch("guarded", &stream_batch()).unwrap(), 2);
    let delta = client.mine("guarded", plain).unwrap();
    assert_eq!(delta.served_via.as_deref(), Some("delta"));
    let mut concat = stream_base();
    concat.extend(stream_batch());
    let guarded = client.mine("guarded", constrained.clone()).unwrap();
    assert_eq!(guarded.served_via.as_deref(), Some("full"));
    assert_eq!(guarded.raw_outcome, local_outcome_bytes(&concat, &constrained));
    // Repeating the constrained request hits the cache — keyed on its
    // own constrained wire form, byte-identical replay.
    let replay = client.mine("guarded", constrained).unwrap();
    assert_eq!(replay.served_via.as_deref(), Some("cache"));
    assert_eq!(replay.raw_outcome, guarded.raw_outcome);
    shutdown(addr, server);
}

/// Version pinning and copy-on-write isolation: `name@1` still serves the
/// pre-append snapshot after the append, and a job submitted before a
/// concurrent append keeps the version it resolved — the append never
/// mutates what an in-flight job sees.
#[test]
fn old_versions_stay_addressable_and_in_flight_jobs_keep_their_snapshot() {
    let (addr, server) = start_server(2, 16);
    let mut client = Client::connect(addr).unwrap();
    let params = MiningParams::new(MinSupport::Count(2), 0.5);
    let miner = Miner::new(params).threads(1);

    client.register_dataset("pinned", &stream_base()).unwrap();
    let v1_bytes = local_outcome_bytes(&stream_base(), &miner);

    // Submit against the latest version (currently 1); the dataset
    // snapshot is resolved at submission, before the append below lands.
    client.submit("pinned", miner.clone()).unwrap();
    let mut admin = Client::connect(addr).unwrap();
    assert_eq!(admin.append_batch("pinned", &stream_batch()).unwrap(), 2);
    let in_flight = client.wait_outcome().unwrap();
    assert_eq!(in_flight.raw_outcome, v1_bytes, "in-flight job keeps its snapshot");

    // Old and new versions are both addressable, with distinct data.
    let pinned = client.mine("pinned@1", miner.clone()).unwrap();
    assert_eq!(pinned.raw_outcome, v1_bytes);
    let mut concat = stream_base();
    concat.extend(stream_batch());
    let latest = client.mine("pinned@2", miner.clone()).unwrap();
    assert_eq!(latest.raw_outcome, local_outcome_bytes(&concat, &miner));
    assert_eq!(client.mine("pinned", miner.clone()).unwrap().raw_outcome, latest.raw_outcome);

    // A version that does not exist is a 404.
    match client.mine("pinned@9", miner).unwrap_err() {
        ClientError::Server { code, status, .. } => {
            assert_eq!((code.as_str(), status), ("unknown_dataset", 404));
        }
        other => panic!("expected unknown_dataset, got {other}"),
    }
    let datasets = client.list_datasets().unwrap();
    let pinned_info = datasets.iter().find(|d| d.name == "pinned").unwrap();
    assert_eq!(pinned_info.version, 2);
    assert_eq!(pinned_info.n_transactions, Some(9));
    shutdown(addr, server);
}

/// The per-connection token bucket: with a budget of 2/s the third
/// back-to-back request line is rejected `rate_limited` (429), the
/// connection survives, and the rejection is counted in status.
#[test]
fn rate_limit_rejects_with_rate_limited_and_connection_survives() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_requests_per_sec: 2,
        ..Default::default()
    };
    let server = Server::bind(config, Registry::with_builtins()).expect("bind loopback");
    let addr = server.local_addr();
    let server = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).unwrap();
    // The burst budget admits two lines; the third is over budget.
    client.status().unwrap();
    client.status().unwrap();
    match client.status().unwrap_err() {
        ClientError::Server { code, status, message } => {
            assert_eq!((code.as_str(), status), ("rate_limited", 429));
            assert!(message.contains("retry"), "{message}");
        }
        other => panic!("expected rate_limited, got {other}"),
    }
    // The bucket refills: after a pause the same connection serves again.
    std::thread::sleep(std::time::Duration::from_millis(600));
    let s = client.status().unwrap();
    assert_eq!(s.rate_limit, 2);
    assert!(s.rate_limited >= 1);

    std::thread::sleep(std::time::Duration::from_millis(600));
    let mut c = Client::connect(addr).unwrap();
    c.shutdown().unwrap();
    server.join().unwrap();
}

/// Pre-incremental interop: the original wire shapes are unchanged — the
/// accepted line, the outcome object's bytes, and every pre-existing
/// response field sit exactly where old clients expect them; the new
/// fields are additive trailers.
#[test]
fn pre_incremental_clients_see_the_original_shapes() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let (addr, server) = start_server(1, 4);
    let conn = TcpStream::connect(addr).unwrap();
    let mut writer = conn.try_clone().unwrap();
    let mut reader = BufReader::new(conn);
    writer
        .write_all(
            b"{\"op\":\"mine\",\"dataset\":\"example\",\"min_support\":{\"fraction\":0.3},\"min_confidence\":0.7}\n",
        )
        .unwrap();
    let mut accepted = String::new();
    reader.read_line(&mut accepted).unwrap();
    assert!(
        accepted.starts_with(
            "{\"ok\":true,\"event\":\"accepted\",\"job\":1,\"dataset\":\"example\",\"backend\":\"memory\",\"threads\":0}"
        ),
        "{accepted}"
    );
    let mut outcome = String::new();
    reader.read_line(&mut outcome).unwrap();
    let v = setm_serve::json::parse(outcome.trim()).unwrap();
    assert_eq!(v.get("event").and_then(|j| j.as_str()), Some("outcome"));
    // The outcome object itself is byte-identical to a local run — the
    // served_via marker lives *next to* it, not inside it.
    let params = MiningParams::new(MinSupport::Fraction(0.3), 0.7);
    let local = Miner::new(params).run(&Registry::with_builtins().get("example").unwrap()).unwrap();
    assert_eq!(v.get("outcome").unwrap().to_string(), outcome_to_json(&local).to_string());
    assert_eq!(v.get("served_via").and_then(|j| j.as_str()), Some("full"));
    drop(writer);
    drop(reader);
    shutdown(addr, server);
}

/// Graceful drain: jobs in flight when `shutdown` arrives still complete
/// and deliver their outcomes; the server then refuses new connections.
#[test]
fn shutdown_drains_in_flight_jobs() {
    let (addr, server) = start_server(1, 8);
    let slow_params = MiningParams::new(MinSupport::Count(2), 0.5);

    let miner_thread = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.mine("retail-small", Miner::new(slow_params).threads(1)).unwrap()
    });
    let mut admin = Client::connect(addr).unwrap();
    loop {
        let s = admin.status().unwrap();
        if s.running >= 1 {
            break;
        }
        if s.completed >= 1 {
            break; // already done; drain still must work
        }
        std::thread::yield_now();
    }

    admin.shutdown().unwrap();
    // The in-flight job still completes with its full outcome.
    let reply = miner_thread.join().unwrap();
    assert!(!reply.outcome.itemsets.is_empty());
    server.join().unwrap();

    // After the drain the server is gone: new connections fail.
    assert!(Client::connect(addr).is_err(), "listener must be closed after drain");
}

/// PR 9 tentpole: `progress: true` streams one event per SETM iteration
/// between `accepted` and the outcome — and the outcome bytes are
/// exactly what the same request produces with progress off. The
/// telemetry is a pure side-channel; determinism stays pinned.
#[test]
fn progress_stream_is_a_pure_side_channel() {
    let (addr, server) = start_server(2, 16);
    let mut client = Client::connect(addr).unwrap();
    let miner = Miner::new(MiningParams::new(MinSupport::Fraction(0.02), 0.5)).threads(1);

    let mut iterations: Vec<usize> = Vec::new();
    let mut phases = 0usize;
    let observed = client
        .mine_observed("quest-t5", miner.clone(), |event| match event {
            setm_serve::ProgressEvent::Iteration(t) => iterations.push(t.k),
            setm_serve::ProgressEvent::Phase { .. } => phases += 1,
            setm_serve::ProgressEvent::Note { .. } => {}
        })
        .unwrap();

    // One Iteration event per outcome-trace row, in iteration order.
    assert_eq!(
        iterations,
        observed.outcome.trace.iter().map(|t| t.k).collect::<Vec<_>>(),
        "one progress event per iteration, in order"
    );
    assert!(iterations.len() >= 2, "quest-t5 is a multi-iteration workload");
    let _ = phases; // phase events are backend-dependent; counted, not asserted

    // Progress never leaks into the outcome: the unobserved request
    // returns byte-identical outcome bytes (served from the same cache
    // entry — both flavors share one cache key).
    let plain = client.mine("quest-t5", miner.clone()).unwrap();
    assert_eq!(plain.raw_outcome, observed.raw_outcome, "outcome bytes are pinned");
    assert_eq!(plain.served_via.as_deref(), Some("cache"));

    // And both equal a local run serialized with the same canonical form.
    let local = miner.run(&Registry::with_builtins().get("quest-t5").unwrap()).unwrap();
    assert_eq!(observed.raw_outcome, outcome_to_json(&local).to_string());
    shutdown(addr, server);
}

/// Cancelling a queued job that asked for progress closes its (empty)
/// progress stream cleanly: the client sees the `cancelled` error, not a
/// hang — the dropped job closure drops the stream's only sender.
#[test]
fn cancel_mid_progress_stream_closes_cleanly() {
    let (addr, server) = start_server(1, 8);

    // Occupy the single worker so the victim's job stays queued.
    let busy = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.mine("retail-paper", blocker(0.5)).unwrap();
    });
    let mut admin = Client::connect(addr).unwrap();
    await_status(&mut admin, "the blocker to run", |s| s.running == 1);

    let mut victim = Client::connect(addr).unwrap();
    let job = victim
        .submit_with_progress(
            "example",
            Miner::new(MiningParams::new(MinSupport::Fraction(0.3), 0.7)),
        )
        .unwrap();
    assert!(admin.cancel(job).unwrap(), "queued job must dequeue");

    // The stream ends (the job never ran, so it is empty) and the error
    // line follows — wait_outcome_observed returns instead of hanging.
    let mut events = 0usize;
    match victim.wait_outcome_observed(|_| events += 1).unwrap_err() {
        ClientError::Server { code, status, .. } => {
            assert_eq!((code.as_str(), status), ("cancelled", 409));
        }
        other => panic!("expected cancelled, got {other}"),
    }
    assert_eq!(events, 0, "a never-run job streams no iterations");

    // The connection survives the cancelled stream.
    let reply = victim
        .mine("example", Miner::new(MiningParams::new(MinSupport::Fraction(0.3), 0.7)))
        .unwrap();
    assert_eq!(reply.outcome.rules.len(), 11);
    busy.join().unwrap();
    shutdown(addr, server);
}

/// The `metrics` verb, text flavor: every line of the exposition parses
/// as either a `# TYPE` comment or `name[{labels}] value`, and counters
/// are monotonic across requests.
#[test]
fn metrics_text_parses_and_counters_are_monotonic() {
    let (addr, server) = start_server(2, 16);
    let mut client = Client::connect(addr).unwrap();
    let params = MiningParams::new(MinSupport::Fraction(0.3), 0.7);
    client.mine("example", Miner::new(params)).unwrap();

    let text = client.metrics_text().unwrap();
    let mut names = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("# TYPE name kind");
            assert!(name.starts_with("setm_"), "canonical prefix: {line}");
            assert!(matches!(kind, "counter" | "gauge" | "summary"), "known metric kind: {line}");
            names.push(name.to_string());
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("name value");
        assert!(!name.is_empty() && name.starts_with("setm_"), "{line}");
        value.parse::<f64>().unwrap_or_else(|_| panic!("numeric value: {line}"));
    }
    for required in [
        "setm_scheduler_completed_total",
        "setm_scheduler_queue_wait_ms",
        "setm_cache_misses_total",
        "setm_served_full_total",
        "setm_conn_bytes_out_total",
        "setm_pool_cache_hits_total",
    ] {
        assert!(names.iter().any(|n| n == required), "{required} missing from exposition");
    }

    // Counters are monotonic: another mine can only move them up. A
    // *distinct* request, so it schedules a job instead of replaying
    // the outcome cache.
    let before = client.metrics().unwrap();
    client.mine("example", Miner::new(MiningParams::new(MinSupport::Fraction(0.3), 0.6))).unwrap();
    let after = client.metrics().unwrap();
    for counter in
        ["setm_scheduler_completed_total", "setm_conn_bytes_out_total", "setm_conn_bytes_in_total"]
    {
        let get = |v: &setm_serve::json::Json| {
            v.get(counter).and_then(|j| j.as_u64()).unwrap_or_else(|| panic!("{counter} present"))
        };
        assert!(get(&after) >= get(&before), "{counter} must be monotonic");
        if counter == "setm_scheduler_completed_total" {
            assert!(get(&after) > get(&before), "a completed mine increments {counter}");
        }
    }
    shutdown(addr, server);
}

/// Satellite fix (PR 9): `status` is a fixed-shape view over the same
/// registry cells the `metrics` verb renders — the two can never
/// disagree, and this pins it.
#[test]
fn status_and_metrics_read_the_same_cells() {
    let (addr, server) = start_server(2, 16);
    let mut client = Client::connect(addr).unwrap();
    let params = MiningParams::new(MinSupport::Fraction(0.3), 0.7);
    client.mine("example", Miner::new(params)).unwrap();
    client.mine("example", Miner::new(params)).unwrap(); // cache hit

    let status = client.status().unwrap();
    let metrics = client.metrics().unwrap();
    let counter = |name: &str| {
        metrics.get(name).and_then(|j| j.as_u64()).unwrap_or_else(|| panic!("{name} present"))
    };
    assert_eq!(status.completed, counter("setm_scheduler_completed_total"));
    assert_eq!(status.rejected, counter("setm_scheduler_rejected_total"));
    assert_eq!(status.cancelled, counter("setm_scheduler_cancelled_total"));
    assert_eq!(status.cache_hits, counter("setm_cache_hits_total"));
    assert_eq!(status.cache_misses, counter("setm_cache_misses_total"));
    assert_eq!(status.served_delta, counter("setm_served_delta_total"));
    assert_eq!(status.served_full, counter("setm_served_full_total"));
    assert_eq!(status.rate_limited, counter("setm_conn_rate_limited_total"));
    assert_eq!(status.datasets, counter("setm_registry_datasets"));
    assert_eq!(status.datasets_loaded, counter("setm_registry_datasets_loaded"));
    assert!(status.cache_hits >= 1, "the repeat request hit the outcome cache");
    shutdown(addr, server);
}

/// The `trace` verb round-trips a finished job's span log: queued →
/// planned → per-iteration spans → serialized, timestamps nondecreasing;
/// a job the ring never saw is a typed `unknown_job` 404.
#[test]
fn trace_round_trips_job_spans() {
    let (addr, server) = start_server(2, 16);
    let mut client = Client::connect(addr).unwrap();
    let miner = Miner::new(MiningParams::new(MinSupport::Fraction(0.02), 0.5)).threads(1);
    let reply = client.mine_observed("quest-t5", miner, |_| {}).unwrap();

    let mut operator = Client::connect(addr).unwrap();
    let spans = operator.trace(reply.job).unwrap();
    let labels: Vec<&str> = spans.iter().map(|(l, _)| l.as_str()).collect();
    assert_eq!(labels.first().copied(), Some("queued"));
    assert!(labels.contains(&"planned"), "{labels:?}");
    assert!(labels.iter().any(|l| l.starts_with("iteration ")), "{labels:?}");
    assert_eq!(labels.last().copied(), Some("serialized"));
    assert!(
        spans.windows(2).all(|w| w[0].1 <= w[1].1),
        "span timestamps are nondecreasing: {spans:?}"
    );

    match operator.trace(999_999).unwrap_err() {
        ClientError::Server { code, status, .. } => {
            assert_eq!((code.as_str(), status), ("unknown_job", 404));
        }
        other => panic!("expected unknown_job, got {other}"),
    }
    shutdown(addr, server);
}

/// A request *without* `progress` — the pre-obs wire shape — gets
/// exactly two lines back, `accepted` then the outcome, with nothing
/// streamed in between. Pre-obs clients are byte-unaffected by PR 9.
#[test]
fn progress_absent_means_no_progress_lines() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let (addr, server) = start_server(1, 4);
    let conn = TcpStream::connect(addr).unwrap();
    let mut writer = conn.try_clone().unwrap();
    let mut reader = BufReader::new(conn);
    writer
        .write_all(
            b"{\"op\":\"mine\",\"dataset\":\"quest-t5\",\"min_support\":{\"fraction\":0.02},\"min_confidence\":0.5,\"threads\":1}\n",
        )
        .unwrap();
    let mut accepted = String::new();
    reader.read_line(&mut accepted).unwrap();
    let a = setm_serve::json::parse(accepted.trim()).unwrap();
    assert_eq!(a.get("event").and_then(|j| j.as_str()), Some("accepted"), "{accepted}");

    // The very next line is the outcome — no progress events in between.
    let mut second = String::new();
    reader.read_line(&mut second).unwrap();
    let v = setm_serve::json::parse(second.trim()).unwrap();
    assert_eq!(v.get("event").and_then(|j| j.as_str()), Some("outcome"), "{second}");
    assert!(!second.contains("\"event\":\"progress\""), "{second}");
    drop(writer);
    drop(reader);
    shutdown(addr, server);
}

/// No delayed-ACK floor: a mine is answered with two lines, `accepted`
/// then the outcome, and under Nagle the second waits for the client's
/// delayed ACK (about 40 ms on Linux). With TCP_NODELAY on both ends a
/// cache hit and a delta-served mine of the worked example finish far
/// sooner. The bound is half that timer, so a slow host does not flake.
#[test]
fn served_replies_pay_no_delayed_ack_floor() {
    let (addr, server) = start_server(2, 16);
    let mut client = Client::connect(addr).unwrap();
    let miner = Miner::new(MiningParams::new(MinSupport::Fraction(0.3), 0.7)).threads(1);
    assert_eq!(client.mine("example", miner.clone()).unwrap().served_via.as_deref(), Some("full"));

    let mut hits_ms: Vec<f64> = (0..25)
        .map(|_| {
            let t = Instant::now();
            let reply = client.mine("example", miner.clone()).unwrap();
            assert_eq!(reply.served_via.as_deref(), Some("cache"));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    hits_ms.sort_by(f64::total_cmp);
    let hit_ms = hits_ms[hits_ms.len() / 2];

    client.append_batch("example", &[(100, vec![1, 2, 3]), (101, vec![4, 5, 6])]).unwrap();
    let t = Instant::now();
    let delta = client.mine("example", miner).unwrap();
    let delta_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(delta.served_via.as_deref(), Some("delta"));

    assert!(hit_ms < 20.0, "median cache hit took {hit_ms:.2} ms: {hits_ms:?}");
    assert!(delta_ms < 20.0, "delta-served mine took {delta_ms:.2} ms");
    shutdown(addr, server);
}

/// The frontier store evicts its least recently used entry. A mutable
/// dataset mined after each append keeps its frontier while far more
/// than the store's 64 entries of one-shot frontiers (distinct-support
/// memory mines of another dataset) pass through, so every mine after an
/// append is still served via delta, byte-equal to a local re-mine.
#[test]
fn live_delta_frontiers_outlast_a_flood_of_one_shot_frontiers() {
    let (addr, server) = start_server(2, 16);
    let mut client = Client::connect(addr).unwrap();
    let miner = Miner::new(MiningParams::new(MinSupport::Count(2), 0.5)).threads(1);
    client.register_dataset("live", &stream_base()).unwrap();
    assert_eq!(client.mine("live", miner.clone()).unwrap().served_via.as_deref(), Some("full"));

    let rounds = 300u32;
    let mut all = stream_base();
    let mut support = 0;
    for round in 0..rounds {
        for _ in 0..8 {
            support += 1;
            let one_shot = Miner::new(MiningParams::new(MinSupport::Count(support), 0.5));
            let reply = client.mine("example", one_shot).unwrap();
            assert_eq!(reply.served_via.as_deref(), Some("full"));
        }
        let tid = 100 + 3 * round;
        let batch =
            vec![(tid, vec![1, 2, 3]), (tid + 1, vec![2, 4]), (tid + 2, vec![round % 5 + 1, 3])];
        client.append_batch("live", &batch).unwrap();
        all.extend(batch);
        let reply = client.mine("live", miner.clone()).unwrap();
        assert_eq!(
            reply.served_via.as_deref(),
            Some("delta"),
            "round {round}: the live frontier was evicted after {support} one-shot mines"
        );
        assert_eq!(reply.raw_outcome, local_outcome_bytes(&all, &miner), "round {round}");
    }
    assert_eq!(client.status().unwrap().served_delta, u64::from(rounds));
    shutdown(addr, server);
}

/// A `progress` mine runs the observed full route and still leaves a
/// frontier entry behind: after an append, the plain mine of the same
/// parameters is served via `delta`, byte-equal to a local run.
#[test]
fn progress_mines_leave_a_frontier_for_the_next_append() {
    let (addr, server) = start_server(2, 16);
    let mut client = Client::connect(addr).unwrap();
    let miner = Miner::new(MiningParams::new(MinSupport::Count(2), 0.5)).threads(1);
    client.register_dataset("followed", &stream_base()).unwrap();

    let mut streamed = 0usize;
    let observed = client.mine_observed("followed", miner.clone(), |_| streamed += 1).unwrap();
    assert_eq!(observed.served_via.as_deref(), Some("full"));
    assert!(streamed >= observed.outcome.trace.len(), "one event per iteration at least");

    client.append_batch("followed", &stream_batch()).unwrap();
    let delta = client.mine("followed", miner.clone()).unwrap();
    assert_eq!(delta.served_via.as_deref(), Some("delta"));
    let mut concat = stream_base();
    concat.extend(stream_batch());
    assert_eq!(delta.raw_outcome, local_outcome_bytes(&concat, &miner));
    shutdown(addr, server);
}

/// A plain memory full mine runs through the shared driver with the
/// job's sink, so its span log holds one `iteration k` per trace row of
/// its outcome, in order.
#[test]
fn memory_full_mines_trace_every_iteration() {
    let (addr, server) = start_server(2, 16);
    let mut client = Client::connect(addr).unwrap();
    let miner = Miner::new(MiningParams::new(MinSupport::Fraction(0.02), 0.5)).threads(1);
    let reply = client.mine("quest-t5", miner).unwrap();
    assert_eq!(reply.served_via.as_deref(), Some("full"));

    let spans = client.trace(reply.job).unwrap();
    let iterations: Vec<&str> = spans
        .iter()
        .map(|(label, _)| label.as_str())
        .filter(|label| label.starts_with("iteration "))
        .collect();
    let expected: Vec<String> =
        (1..=reply.outcome.trace.len()).map(|k| format!("iteration {k}")).collect();
    assert!(expected.len() >= 2, "quest-t5 is a multi-iteration workload");
    assert_eq!(iterations, expected);
    shutdown(addr, server);
}

/// An entry stored by a full mine at version 1 answers a mine at version
/// 3 after two appends: the replay captures the frontier on version 1
/// and applies both batches, byte-equal to a local run on all the data.
#[test]
fn a_deferred_capture_replays_several_appends_at_once() {
    let (addr, server) = start_server(2, 16);
    let mut client = Client::connect(addr).unwrap();
    let miner = Miner::new(MiningParams::new(MinSupport::Count(2), 0.5)).threads(1);
    client.register_dataset("batched", &stream_base()).unwrap();
    let first = client.mine("batched", miner.clone()).unwrap();
    assert_eq!(first.served_via.as_deref(), Some("full"));

    let second = vec![(10, vec![1, 3, 4]), (11, vec![2, 3]), (12, vec![1, 2, 3, 4])];
    assert_eq!(client.append_batch("batched", &stream_batch()).unwrap(), 2);
    assert_eq!(client.append_batch("batched", &second).unwrap(), 3);
    let delta = client.mine("batched@3", miner.clone()).unwrap();
    assert_eq!(delta.served_via.as_deref(), Some("delta"));
    let mut all = stream_base();
    all.extend(stream_batch());
    all.extend(second);
    assert_eq!(delta.raw_outcome, local_outcome_bytes(&all, &miner));
    shutdown(addr, server);
}
