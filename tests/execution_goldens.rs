//! Byte-level goldens for what each backend emits while mining: the
//! SQL statement text, every `IterationTrace` field (f64s by bits) with
//! the engine's I/O report, and the full observer event sequence.
//!
//! The other suites compare backends with each other or check statement
//! text with `contains`; these pin the exact output of one run each, so
//! a refactor of the shared Figure 4 loop that moves a statement, an
//! event, or one bit of a trace row fails here with a readable diff.
//!
//! Every run goes through the [`Miner`] facade with an explicit thread
//! count, so the goldens hold on any host.

use setm::core::setm::plan::{PhysicalPlan, PlanMode};
use setm::core::Dataset;
use setm::{
    example, Backend, EngineConfig, ExecutionReport, MinSupport, Miner, MiningConstraints,
    MiningOutcome, MiningParams,
};
use setm_obs::{ObsEvent, VecSink};
use std::sync::Arc;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn statements(outcome: &MiningOutcome) -> &[String] {
    outcome.report.statements().expect("a SQL run reports its statements")
}

/// Pin a statement list by count and digest; print the text on mismatch.
fn assert_statements(label: &str, outcome: &MiningOutcome, count: usize, digest: u64) {
    let stmts = statements(outcome);
    let joined = stmts.join("\n;\n");
    let got = (stmts.len(), fnv1a(joined.as_bytes()));
    assert_eq!(got, (count, digest), "{label}: statements changed; the emitted text is\n{joined}");
}

/// The worked example's 23 statements at `threads(1)`: Section 3.1's
/// `C_1` query and three rounds of Section 4.1's script.
const WORKED_EXAMPLE_SQL: [&str; 23] = [
    "CREATE TABLE C1 (item_1 INT, cnt INT)",
    "INSERT INTO C1\nSELECT r1.item, COUNT(*)\nFROM SALES r1\nGROUP BY r1.item\nHAVING COUNT(*) >= :minsupport",
    "CREATE TABLE R2_PRIME (trans_id INT, item_1 INT, item_2 INT)",
    "INSERT INTO R2_PRIME\nSELECT p.trans_id, p.item, q.item\nFROM SALES p, SALES q\nWHERE q.trans_id = p.trans_id AND q.item > p.item",
    "CREATE TABLE C2 (item_1 INT, item_2 INT, cnt INT)",
    "INSERT INTO C2\nSELECT p.item_1, p.item_2, COUNT(*)\nFROM R2_PRIME p\nGROUP BY p.item_1, p.item_2\nHAVING COUNT(*) >= :minsupport",
    "CREATE TABLE R2 (trans_id INT, item_1 INT, item_2 INT)",
    "INSERT INTO R2\nSELECT p.trans_id, p.item_1, p.item_2\nFROM R2_PRIME p, C2 q\nWHERE p.item_1 = q.item_1 AND p.item_2 = q.item_2\nORDER BY p.trans_id, p.item_1, p.item_2",
    "DROP TABLE R2_PRIME",
    "CREATE TABLE R3_PRIME (trans_id INT, item_1 INT, item_2 INT, item_3 INT)",
    "INSERT INTO R3_PRIME\nSELECT p.trans_id, p.item_1, p.item_2, q.item\nFROM R2 p, SALES q\nWHERE q.trans_id = p.trans_id AND q.item > p.item_2",
    "CREATE TABLE C3 (item_1 INT, item_2 INT, item_3 INT, cnt INT)",
    "INSERT INTO C3\nSELECT p.item_1, p.item_2, p.item_3, COUNT(*)\nFROM R3_PRIME p\nGROUP BY p.item_1, p.item_2, p.item_3\nHAVING COUNT(*) >= :minsupport",
    "CREATE TABLE R3 (trans_id INT, item_1 INT, item_2 INT, item_3 INT)",
    "INSERT INTO R3\nSELECT p.trans_id, p.item_1, p.item_2, p.item_3\nFROM R3_PRIME p, C3 q\nWHERE p.item_1 = q.item_1 AND p.item_2 = q.item_2 AND p.item_3 = q.item_3\nORDER BY p.trans_id, p.item_1, p.item_2, p.item_3",
    "DROP TABLE R3_PRIME",
    "CREATE TABLE R4_PRIME (trans_id INT, item_1 INT, item_2 INT, item_3 INT, item_4 INT)",
    "INSERT INTO R4_PRIME\nSELECT p.trans_id, p.item_1, p.item_2, p.item_3, q.item\nFROM R3 p, SALES q\nWHERE q.trans_id = p.trans_id AND q.item > p.item_3",
    "CREATE TABLE C4 (item_1 INT, item_2 INT, item_3 INT, item_4 INT, cnt INT)",
    "INSERT INTO C4\nSELECT p.item_1, p.item_2, p.item_3, p.item_4, COUNT(*)\nFROM R4_PRIME p\nGROUP BY p.item_1, p.item_2, p.item_3, p.item_4\nHAVING COUNT(*) >= :minsupport",
    "CREATE TABLE R4 (trans_id INT, item_1 INT, item_2 INT, item_3 INT, item_4 INT)",
    "INSERT INTO R4\nSELECT p.trans_id, p.item_1, p.item_2, p.item_3, p.item_4\nFROM R4_PRIME p, C4 q\nWHERE p.item_1 = q.item_1 AND p.item_2 = q.item_2 AND p.item_3 = q.item_3 AND p.item_4 = q.item_4\nORDER BY p.trans_id, p.item_1, p.item_2, p.item_3, p.item_4",
    "DROP TABLE R4_PRIME",
];

fn sql(threads: usize) -> Miner {
    Miner::new(example::paper_example_params()).backend(Backend::Sql).threads(threads)
}

#[test]
fn sequential_sql_is_the_papers_script_verbatim() {
    let d = example::paper_example_dataset();
    let outcome = sql(1).run(&d).unwrap();
    assert_eq!(statements(&outcome), WORKED_EXAMPLE_SQL);
}

#[test]
fn partitioned_forced_and_constrained_sql_are_pinned() {
    let d = example::paper_example_dataset();
    assert_statements("threads(2)", &sql(2).run(&d).unwrap(), 58, 9675684343295330009);

    let plan: PhysicalPlan = "nested-loop,reuse=1,shards=1,buf=256".parse().unwrap();
    let forced = sql(1).plan_mode(PlanMode::Forced(plan)).run(&d).unwrap();
    assert_statements("forced nested-loop", &forced, 24, 6328510872389572709);

    // Items are the worked example's A..F = 1..6: require D, exclude C.
    let constraints = MiningConstraints::new().require([4]).exclude([3]);
    let constrained = sql(2).constraints(constraints).run(&d).unwrap();
    assert_statements("require D, exclude C at threads(2)", &constrained, 76, 343876183558843120);
}

/// `engine.rs::midrun_shard_collapse_repartitions_consistently`'s data:
/// a 4-shard run rebalances its pool at k = 2 and collapses to one
/// shard (a repartition) at k = 3.
fn midrun_collapse() -> (Dataset, MiningParams) {
    let txns: Vec<(u32, Vec<u32>)> = (0..80u32).map(|t| (t, vec![1, 2, 3, 100 + t])).collect();
    let d = Dataset::from_transactions(txns.iter().map(|(t, i)| (*t, i.as_slice())));
    (d, MiningParams::new(MinSupport::Count(40), 0.5))
}

fn engine(threads: usize) -> Miner {
    let (_, params) = midrun_collapse();
    Miner::new(params).backend(Backend::Engine(EngineConfig::default())).threads(threads)
}

/// Every trace field (f64s by bits) plus the engine's I/O report.
fn render_engine_run(outcome: &MiningOutcome) -> Vec<String> {
    let mut lines: Vec<String> = outcome
        .result
        .trace
        .iter()
        .map(|t| {
            format!(
                "k={} r'={} r={} kb={:#x} c={} pa={} ms={:#x} hits={} steals={} pruned={} plan={}",
                t.k,
                t.r_prime_tuples,
                t.r_tuples,
                t.r_kbytes.to_bits(),
                t.c_len,
                t.page_accesses,
                t.estimated_io_ms.to_bits(),
                t.cache_hits,
                t.pool_steals,
                t.candidates_pruned,
                t.plan_string(),
            )
        })
        .collect();
    let ExecutionReport::Engine(report) = &outcome.report else {
        panic!("an engine run reports page I/O");
    };
    let io = report.io;
    lines.push(format!(
        "total pa={} ms={:#x} frames={} seq_r={} rand_r={} seq_w={} rand_w={} hits={} steals={}",
        report.page_accesses,
        report.estimated_io_ms.to_bits(),
        report.cache_frames,
        io.seq_reads,
        io.rand_reads,
        io.seq_writes,
        io.rand_writes,
        io.cache_hits,
        io.pool_steals,
    ));
    lines
}

#[test]
fn engine_traces_and_io_are_pinned() {
    let (d, _) = midrun_collapse();
    let one = engine(1).run(&d).unwrap();
    assert_eq!(
        render_engine_run(&one),
        [
            "k=1 r'=320 r=320 kb=0x4004000000000000 c=3 pa=1 ms=0x4024000000000000 hits=2 steals=0 pruned=0 plan=-",
            "k=2 r'=480 r=240 kb=0x4006800000000000 c=3 pa=6 ms=0x404e000000000000 hits=7 steals=0 pruned=0 plan=merge-scan,reuse=1,shards=1,buf=10",
            "k=3 r'=320 r=80 kb=0x3ff4000000000000 c=1 pa=6 ms=0x404e000000000000 hits=7 steals=0 pruned=0 plan=merge-scan,reuse=1,shards=1,buf=10",
            "k=4 r'=80 r=0 kb=0x0 c=0 pa=2 ms=0x4034000000000000 hits=4 steals=0 pruned=0 plan=merge-scan,reuse=1,shards=1,buf=6",
            "total pa=15 ms=0x4062c00000000000 frames=256 seq_r=0 rand_r=0 seq_w=15 rand_w=0 hits=20 steals=0",
        ]
    );
    let four = engine(4).run(&d).unwrap();
    assert_eq!(
        render_engine_run(&four),
        [
            "k=1 r'=320 r=320 kb=0x4004000000000000 c=3 pa=4 ms=0x4044000000000000 hits=8 steals=0 pruned=0 plan=-",
            "k=2 r'=480 r=240 kb=0x4006800000000000 c=3 pa=16 ms=0x4064000000000000 hits=24 steals=0 pruned=0 plan=merge-scan,reuse=1,shards=4,buf=10",
            "k=3 r'=320 r=80 kb=0x3ff4000000000000 c=1 pa=7 ms=0x4051800000000000 hits=11 steals=0 pruned=0 plan=merge-scan,reuse=1,shards=1,buf=10",
            "k=4 r'=80 r=0 kb=0x0 c=0 pa=2 ms=0x4034000000000000 hits=4 steals=0 pruned=0 plan=merge-scan,reuse=1,shards=1,buf=6",
            "total pa=29 ms=0x4072200000000000 frames=256 seq_r=0 rand_r=0 seq_w=29 rand_w=0 hits=47 steals=0",
        ]
    );
}

/// Run `miner` on `d` under a recording sink and render every event as
/// `(kind, name, k, value)`; an iteration's name is its plan string and
/// its value `|C_k|`.
fn events(miner: Miner, d: &Dataset) -> Vec<String> {
    let sink = Arc::new(VecSink::new());
    miner.observer(sink.clone()).run(d).unwrap();
    sink.take()
        .iter()
        .map(|e| match e {
            ObsEvent::Iteration(s) => format!("iteration {} k={} value={}", s.plan, s.k, s.c_len),
            ObsEvent::PhaseStart { name, k } => format!("phase_start {name} k={k}"),
            ObsEvent::PhaseEnd { name, k } => format!("phase_end {name} k={k}"),
            ObsEvent::Note { name, k, value } => format!("note {name} k={k} value={value}"),
        })
        .collect()
}

#[test]
fn observer_event_sequences_are_pinned() {
    let (d, params) = midrun_collapse();
    let memory = Miner::new(params).threads(2);
    assert_eq!(
        events(memory.clone(), &d),
        [
            "iteration - k=1 value=3",
            "iteration merge-scan,reuse=1,shards=2,buf=10 k=2 value=3",
            "phase_start sort_r_k k=2",
            "phase_end sort_r_k k=2",
            "iteration merge-scan,reuse=1,shards=1,buf=10 k=3 value=1",
            "phase_start sort_r_k k=3",
            "phase_end sort_r_k k=3",
            "iteration merge-scan,reuse=1,shards=1,buf=6 k=4 value=0",
        ]
    );

    let plan: PhysicalPlan = "merge-scan,reuse=0,shards=2,buf=256".parse().unwrap();
    assert_eq!(
        events(memory.plan_mode(PlanMode::Forced(plan)), &d),
        [
            "iteration - k=1 value=3",
            "iteration merge-scan,reuse=0,shards=2,buf=256 k=2 value=3",
            "phase_start sort_r_prev k=3",
            "phase_end sort_r_prev k=3",
            "iteration merge-scan,reuse=0,shards=2,buf=256 k=3 value=1",
            "phase_start sort_r_prev k=4",
            "phase_end sort_r_prev k=4",
            "iteration merge-scan,reuse=0,shards=2,buf=256 k=4 value=0",
        ]
    );

    assert_eq!(
        events(engine(4), &d),
        [
            "iteration - k=1 value=3",
            "note pool_rebalance k=2 value=0",
            "iteration merge-scan,reuse=1,shards=4,buf=10 k=2 value=3",
            "note repartition k=3 value=1",
            "iteration merge-scan,reuse=1,shards=1,buf=10 k=3 value=1",
            "iteration merge-scan,reuse=1,shards=1,buf=6 k=4 value=0",
        ]
    );

    let worked = example::paper_example_dataset();
    assert_eq!(
        events(sql(2), &worked),
        [
            "iteration - k=1 value=6",
            "iteration merge-scan,reuse=1,shards=2,buf=4 k=2 value=6",
            "iteration merge-scan,reuse=1,shards=2,buf=4 k=3 value=1",
            "iteration merge-scan,reuse=1,shards=2,buf=4 k=4 value=0",
        ]
    );
}
