//! Satellite: forced-plan equivalence — plan choice can never change
//! results.
//!
//! The planner (`setm_core::Planner`) decides *how* each SETM iteration
//! runs: join strategy, sort reuse, shard count, sort-buffer size.
//! Correctness must not depend on any of those choices, on any backend,
//! at any thread count. This suite drives every legal plan shape through
//! the [`Miner`] facade in `PlanMode::Forced` and asserts itemsets,
//! rules, and the |R'_k| / |R_k| / |C_k| trace series are identical to
//! what the Auto planner produces — first exhaustively on the paper's
//! worked example, then property-style on random datasets.

use proptest::prelude::*;
use setm::core::setm::engine::EngineConfig;
use setm::core::setm::plan::{JoinStrategy, PhysicalPlan, PlanMode};
use setm::core::Dataset;
use setm::{example, Backend, MinSupport, Miner, MiningOutcome, MiningParams};

fn backends() -> [Backend; 3] {
    [Backend::Memory, Backend::Engine(EngineConfig::default()), Backend::Sql]
}

/// Every legal plan shape over a small discretized grid: both joins,
/// both sort-reuse settings, sequential and fanned-out shards, minimum
/// and default sort buffers.
fn plan_grid() -> Vec<PhysicalPlan> {
    let mut plans = Vec::new();
    for join in [JoinStrategy::MergeScan, JoinStrategy::NestedLoop] {
        for reuse_sort in [true, false] {
            for shards in [1, 4] {
                for sort_buffer_pages in [3, 256] {
                    plans.push(PhysicalPlan { join, reuse_sort, shards, sort_buffer_pages });
                }
            }
        }
    }
    plans
}

fn mine(
    dataset: &Dataset,
    params: MiningParams,
    backend: Backend,
    threads: usize,
    mode: PlanMode,
) -> MiningOutcome {
    Miner::new(params).backend(backend).threads(threads).plan_mode(mode).run(dataset).unwrap()
}

/// Itemsets with counts, rule count, and the per-iteration
/// |R'_k| / |R_k| / |C_k| series.
type Fingerprint = (Vec<(Vec<u32>, u64)>, usize, Vec<(usize, u64, u64, u64)>);

/// The result fingerprint that must be plan-invariant.
fn fingerprint(o: &MiningOutcome) -> Fingerprint {
    let itemsets =
        o.frequent_itemsets().into_iter().map(|(items, n)| (items.to_vec(), n)).collect();
    let trace =
        o.result.trace.iter().map(|t| (t.k, t.r_prime_tuples, t.r_tuples, t.c_len)).collect();
    (itemsets, o.rules.len(), trace)
}

#[test]
fn every_forced_plan_matches_auto_on_the_worked_example() {
    let dataset = example::paper_example_dataset();
    let params = example::paper_example_params();
    let reference = fingerprint(&mine(&dataset, params, Backend::Memory, 1, PlanMode::Auto));
    for backend in backends() {
        for threads in [1, 4] {
            let auto = mine(&dataset, params, backend, threads, PlanMode::Auto);
            assert_eq!(fingerprint(&auto), reference, "auto {} threads={threads}", backend.name());
            for plan in plan_grid() {
                let forced = mine(&dataset, params, backend, threads, PlanMode::Forced(plan));
                assert_eq!(
                    fingerprint(&forced),
                    reference,
                    "{} threads={threads} plan={plan}",
                    backend.name()
                );
                // The trace must also prove the forced plan actually ran:
                // every mining iteration carries it as executed, which is
                // verbatim except that the SQL script, whose closing
                // ORDER BY is its only ordering step, records `reuse_sort`.
                let executed = match backend {
                    Backend::Sql => PhysicalPlan { reuse_sort: true, ..plan },
                    _ => plan,
                };
                for t in forced.result.trace.iter().filter(|t| t.k >= 2) {
                    assert_eq!(
                        t.plan,
                        Some(executed),
                        "{} threads={threads} k={}",
                        backend.name(),
                        t.k
                    );
                }
            }
        }
    }
}

#[test]
fn forced_plans_match_auto_on_the_empty_dataset() {
    let dataset = Dataset::from_pairs(std::iter::empty());
    let params = MiningParams::new(MinSupport::Fraction(0.3), 0.7);
    for backend in backends() {
        for plan in plan_grid() {
            let forced = mine(&dataset, params, backend, 1, PlanMode::Forced(plan));
            assert_eq!(forced.result.max_pattern_len(), 0, "{} {plan}", backend.name());
            assert!(forced.rules.is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random dataset × random legal plan × every backend × threads
    /// {1, 4}: the forced run always fingerprints identically to the
    /// in-memory Auto reference.
    #[test]
    fn random_forced_plans_never_change_results(
        pairs in prop::collection::vec((1u32..25, 1u32..10), 1..120),
        min_count in 1u64..4,
        join_nl in 0u8..2,
        reuse in 0u8..2,
        shards in 1usize..6,
        buf in 3usize..64,
    ) {
        let dataset = Dataset::from_pairs(pairs.iter().copied());
        let params = MiningParams::new(MinSupport::Count(min_count), 0.5);
        let plan = PhysicalPlan {
            join: if join_nl == 1 { JoinStrategy::NestedLoop } else { JoinStrategy::MergeScan },
            reuse_sort: reuse == 1,
            shards,
            sort_buffer_pages: buf,
        };
        let reference = fingerprint(&mine(&dataset, params, Backend::Memory, 1, PlanMode::Auto));
        for backend in backends() {
            for threads in [1, 4] {
                let forced = mine(&dataset, params, backend, threads, PlanMode::Forced(plan));
                prop_assert_eq!(
                    &fingerprint(&forced),
                    &reference,
                    "{} threads={} plan={}",
                    backend.name(),
                    threads,
                    plan
                );
            }
        }
    }
}
