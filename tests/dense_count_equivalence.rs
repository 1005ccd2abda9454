//! The memory backend's dense count, property-tested against the paged
//! engine, which runs Figure 4's operators literally: every `C_k` and
//! every logical trace column — `|R'_k|`, `|R_k|`, `|C_k|`, `R_k`'s
//! Kbytes and the pairs constraint pushdown pruned — must match, for
//! item ids anywhere in `u32`, any support, `require` / `exclude`
//! constraints and any thread count. A second strategy reaches what a
//! 12-item universe rarely does: most items outside `C_1` (whose pairs
//! the memory backend counts in bulk), short and long transactions in
//! one case (so both of its `R_k` emission walks run), and item ids that
//! agree in all their low bits.
//!
//! `SETM_TEST_THREADS=<n>` pins the memory backend's thread count (the
//! CI `parallel` job's matrix); unset, {1, 2, 4} run. The engine is the
//! oracle at one thread.

use proptest::prelude::*;
use setm::core::setm::engine::{self, EngineConfig};
use setm::core::setm::{memory, RunSpec};
use setm::{Dataset, MinSupport, MiningConstraints, MiningParams, SetmResult};

const DEFAULT_THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn thread_counts() -> Vec<usize> {
    match std::env::var("SETM_TEST_THREADS") {
        Ok(v) => vec![v.parse().expect("SETM_TEST_THREADS must be an unsigned integer")],
        Err(_) => DEFAULT_THREAD_COUNTS.to_vec(),
    }
}

/// Where a case's 12-item universe sits in `u32`: small ids, ids
/// straddling 2^16, and ids up to `u32::MAX`.
const UNIVERSE_BASES: [u32; 3] = [1, (1 << 16) - 6, u32::MAX - 11];

/// Strategy: a small random basket database over `base + 0..12`, plus
/// raw `require` / `exclude` draws from the same universe.
#[allow(clippy::type_complexity)]
fn case_strategy() -> impl Strategy<Value = (Dataset, Vec<u32>, Vec<u32>)> {
    (
        prop::sample::select(UNIVERSE_BASES.to_vec()),
        prop::collection::vec(prop::collection::vec(0u32..12, 1..=8), 1..=24),
        prop::collection::vec(0u32..12, 0..=2),
        prop::collection::vec(0u32..12, 0..=2),
    )
        .prop_map(|(base, txns, require, exclude)| {
            let item = |i: &u32| base + i;
            let d = Dataset::from_pairs(
                txns.iter()
                    .enumerate()
                    .flat_map(|(tid, items)| items.iter().map(move |i| (tid as u32 + 1, item(i)))),
            );
            (d, require.iter().map(item).collect(), exclude.iter().map(item).collect())
        })
}

/// Items in the skewed strategy's universe.
const SKEWED_ITEMS: usize = 40;

/// Where the skewed strategy's universe sits in `u32`: ids from 1, ids
/// ending at `u32::MAX`, and ids that agree in their low 26 bits, which
/// collide in any lookup table indexed by low bits. (The memory
/// backend's item table draws its hash multiplier per run, so no fixed
/// ids collide in it; `memory.rs`'s unit tests force collisions with a
/// fixed multiplier.)
fn skewed_universes() -> [Vec<u32>; 3] {
    let strided = (0..SKEWED_ITEMS as u32).map(|j| j << 26 | 12_345).collect();
    [(1..=40).collect(), (u32::MAX - 39..=u32::MAX).collect(), strided]
}

/// Strategy: 6 to 32 transactions over a 40-item universe skewed toward
/// its first items (each draw is the lowest of three), so most items are
/// infrequent at the drawn support. One transaction in four is long (8
/// to 16 draws); the others hold one to three items. `require` draws
/// come from the frequent end, `exclude` draws from anywhere.
#[allow(clippy::type_complexity)]
fn skewed_case_strategy() -> impl Strategy<Value = (Dataset, Vec<u32>, Vec<u32>)> {
    let draw = (0..SKEWED_ITEMS, 0..SKEWED_ITEMS, 0..SKEWED_ITEMS);
    let draws = prop::collection::vec(draw, 8..=16);
    (
        0..3usize,
        prop::collection::vec((0..4usize, draws), 6..=32),
        prop::collection::vec(0..8usize, 0..=2),
        prop::collection::vec(0..SKEWED_ITEMS, 0..=2),
    )
        .prop_map(|(placement, txns, require, exclude)| {
            let universe = &skewed_universes()[placement];
            let item = |i: &usize| universe[*i];
            let d =
                Dataset::from_pairs(txns.iter().enumerate().flat_map(|(tid, (kind, draws))| {
                    let len = if *kind == 0 { draws.len() } else { *kind };
                    draws[..len]
                        .iter()
                        .map(move |&(a, b, c)| (tid as u32 + 1, item(&a.min(b).min(c))))
                }));
            (d, require.iter().map(item).collect(), exclude.iter().map(item).collect())
        })
}

/// The constraints a case's draws make, kept valid (no item both
/// required and excluded).
fn constraints(require: &[u32], exclude: &[u32]) -> MiningConstraints {
    let exclude: Vec<u32> = exclude.iter().copied().filter(|it| !require.contains(it)).collect();
    MiningConstraints::new().require(require.iter().copied()).exclude(exclude)
}

/// Assert that the memory run matches the engine on every `C_k` and every
/// logical trace column.
fn assert_matches_engine(memory: &SetmResult, engine: &SetmResult, label: &str) {
    assert_eq!(memory.counts, engine.counts, "{label}: C_k");
    assert_eq!(memory.trace.len(), engine.trace.len(), "{label}: iterations");
    for (m, e) in memory.trace.iter().zip(&engine.trace) {
        let k = m.k;
        assert_eq!(m.k, e.k, "{label}: k");
        assert_eq!(m.r_prime_tuples, e.r_prime_tuples, "{label}: |R'_{k}|");
        assert_eq!(m.r_tuples, e.r_tuples, "{label}: |R_{k}|");
        assert_eq!(m.c_len, e.c_len, "{label}: |C_{k}|");
        assert_eq!(m.r_kbytes.to_bits(), e.r_kbytes.to_bits(), "{label}: R_{k} Kbytes");
        assert_eq!(m.candidates_pruned, e.candidates_pruned, "{label}: pruned at k={k}");
    }
}

/// Mine `d` under `c` on memory (every thread count) and on the engine
/// at one thread, and compare.
fn check(d: &Dataset, params: &MiningParams, c: &MiningConstraints, label: &str) {
    let plan = c.compile(d);
    let mined = plan.remap().map_or_else(|| d.clone(), |r| r.remap_dataset(d));
    let spec = RunSpec { threads: 1, constraints: plan.compiled(), ..Default::default() };
    let (oracle, _) =
        engine::execute(&mined, params, &EngineConfig::default(), &spec).expect("engine run");
    for threads in thread_counts() {
        let spec = RunSpec { threads, ..spec };
        let label = format!("{label} threads={threads}");
        let memory = memory::execute(&mined, params, &spec);
        assert_matches_engine(&memory, &oracle, &label);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dense_count_matches_the_engine(
        (d, require, exclude) in case_strategy(),
        min_count in 1u64..=5,
    ) {
        let params = MiningParams::new(MinSupport::Count(min_count), 0.5);
        let c = constraints(&require, &exclude);
        check(&d, &params, &MiningConstraints::new(), &format!("min_count={min_count}"));
        if !c.is_empty() {
            check(&d, &params, &c, &format!("min_count={min_count} {c:?}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn skewed_long_and_short_transactions_match_the_engine(
        (d, require, exclude) in skewed_case_strategy(),
        min_count in 2u64..=6,
    ) {
        let params = MiningParams::new(MinSupport::Count(min_count), 0.5);
        let c = constraints(&require, &exclude);
        check(&d, &params, &MiningConstraints::new(), &format!("skewed min_count={min_count}"));
        if !c.is_empty() {
            check(&d, &params, &c, &format!("skewed min_count={min_count} {c:?}"));
        }
    }
}

/// 2,100 frequent items, spread over `u32`: |C_1|² = 4.41M cells is over
/// the memory backend's cell budget even on one shard (pinned by
/// `the_budget_bounds_the_tables_of_all_shards` in `memory.rs`, where the
/// budget is visible), so k = 2 runs Figure 4's operators, and k ≥ 3
/// (6 × 2,100 cells and fewer) the dense count. Both must still match
/// the engine.
#[test]
fn a_c1_over_the_cell_budget_takes_figure4_and_still_matches() {
    const N: u32 = 2_100;
    let item = |j: u32| 1_000 + j * 1_999_999;
    // A ring of pairs gives every item a count of 2; six transactions
    // holding items 0..4 make C_2, C_3 and C_4 non-empty.
    let mut pairs: Vec<(u32, u32)> =
        (0..N).flat_map(|j| [(j + 1, item(j)), (j + 1, item((j + 1) % N))]).collect();
    pairs.extend((N + 1..=N + 6).flat_map(|t| (0..4).map(move |j| (t, item(j)))));
    let d = Dataset::from_pairs(pairs);
    let params = MiningParams::new(MinSupport::Count(2), 0.5);
    let spec = RunSpec { threads: 1, ..Default::default() };
    let (oracle, _) =
        engine::execute(&d, &params, &EngineConfig::default(), &spec).expect("engine run");
    let c_lens: Vec<u64> = oracle.trace.iter().map(|t| t.c_len).collect();
    assert_eq!(c_lens, [u64::from(N), 6, 4, 1, 0]);
    check(&d, &params, &MiningConstraints::new(), "over budget");
    check(&d, &params, &MiningConstraints::new().exclude([item(2)]), "over budget, exclude");
}
