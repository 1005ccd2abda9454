//! Incremental SETM mining: absorb transaction appends in delta time.
//!
//! A full SETM run (Figure 4) leaves behind exactly the state needed to
//! absorb a batch of *new* transactions without re-mining the base
//! dataset: the per-level group counts of `R'_k` **kept unfiltered below
//! minimum support**, so that borderline itemsets can be promoted when a
//! delta pushes them over the (recomputed) threshold. [`MiningFrontier`]
//! snapshots that state; [`MiningFrontier::apply_delta`] runs the
//! Section 4.1 extension joins over the delta only, adds the delta's
//! counts to the stored ones, re-applies the threshold, and rebuilds
//! rules — producing an outcome byte-identical to a from-scratch
//! [`Miner`](setm_core::Miner) run on the concatenated dataset (proven
//! by `tests/incremental_equivalence.rs`).
//!
//! An append is one more operator set of the shared Figure 4 driver
//! ([`setm_core::setm::driver`]): its `C_1` merges the stored item
//! counts with the delta's, each iteration joins the delta and advances
//! the stored level, and the driver plans every iteration and assembles
//! the trace, exactly as for a full run. A capture
//! ([`MiningFrontier::bootstrap`]) is an append to the empty frontier,
//! and replaying a frontier at its own version is an append of nothing.
//!
//! # Why no stored `R'_k` tuples?
//!
//! Appends are whole transactions with `trans_id`s disjoint from the
//! base (enforced by [`ensure_disjoint_tids`]). Every extension join is
//! intra-transaction, so a delta tuple can never join against a base
//! tuple: the delta's `R'_k` is computable from the delta alone, and the
//! base contributes only *counts*. The frontier therefore stores count
//! relations, not tuple relations — megabytes, not the dataset over
//! again.
//!
//! # The frontier invariant
//!
//! A `(k-1)`-prefix is *live* at level k when its tuples reach the join
//! that builds `R'_k`: every prefix at k = 2, where the paper joins
//! against the **unfiltered** `R_1`, and the patterns of `C_{k-1}` above.
//! After capturing dataset `D` at threshold `s`, level k holds, for every
//! live prefix, the exact support in `D` of each of its extensions that
//! occurs in `D`. Three consequences drive `apply_delta`:
//!
//! * a prefix that *stays* live keeps its stored counts — add the
//!   delta's counts on top;
//! * a prefix *demoted* by the recomputed threshold is no longer live:
//!   its extensions drop out of `|R'_k|` and can never be frequent;
//! * a prefix *promoted* across the threshold has no stored extensions —
//!   those are recounted by one scan of the base dataset, restricted to
//!   the promoted prefixes.
//!
//! Every prefix is live at k = 2, so promotions cannot happen below
//! level 3, and the invariant is self-sustaining across successive
//! appends.
//!
//! # Delta time
//!
//! An append must not pay for the candidates it does not touch. Each
//! level keeps its counts as a relation shared by every frontier
//! advanced from it since its last compaction, plus the counts appended
//! since, and folds the two together only once the appended part
//! outgrows half the shared one. The level also keeps `C_k` and
//! `|R'_k|`. A pattern outside the old `C_k` under a prefix that stays
//! live had fewer than the old threshold's transactions, so only a
//! delta pattern gaining more than the threshold's rise needs its stored
//! count looked up. `|R'_k|` changes by the delta's and the recount's
//! tuples, less the stored counts under demoted prefixes. So an append
//! costs the delta's joins, lookups into the stored counts, the
//! promotion recount and a pass over the appended counts; the
//! outcome is rebuilt from `C_k` alone.

use setm_core::setm::driver::{drive, Metered, Operators, Step, Totals};
use setm_core::setm::memory::count_items;
use setm_core::setm::shard::resolve_threads;
use setm_core::setm::RunSpec;
use setm_core::{
    generate_rules, CountRelation, Dataset, ExecutionReport, Item, LiveStats, MiningOutcome,
    MiningParams, PhysicalPlan, PlanMode, Planner, PlannerConfig, SetmError, TransId,
};
use std::convert::Infallible;
use std::ops::Range;
use std::sync::Arc;

/// Per-iteration mining state snapshotted after a full run, sufficient
/// to absorb transaction appends in time proportional to the delta.
#[derive(Debug, Clone)]
pub struct MiningFrontier {
    params: MiningParams,
    /// The captured dataset's `SALES` statistics, as the planner sees
    /// them before k = 2.
    sales: LiveStats,
    /// The absolute support threshold resolved at capture: every level's
    /// `C_k` is filtered at it, and a later `apply_delta` can rule out a
    /// pattern that was below it and gained too few delta occurrences.
    min_count: u64,
    /// Unfiltered per-item transaction counts (`C_1` before `HAVING`).
    item_counts: CountRelation,
    /// `levels[k-2]`: level k's counts, `C_k` and `|R'_k|` — see the
    /// module docs for the exact invariant.
    levels: Vec<Level>,
    /// Each captured transaction's [`signature`], in `trans_id` order:
    /// the promotion recount's filter, kept so no append recomputes it.
    signatures: Vec<u128>,
}

/// Level k of a frontier: for every live `(k-1)`-prefix, the support of
/// each of its extensions is its count in `stored` plus its count in
/// `added`. Entries under a prefix that is not live are stale and never
/// read; they are dropped if that prefix is promoted again.
#[derive(Debug, Clone)]
struct Level {
    /// The counts as of this level's last compaction, shared by every
    /// frontier advanced from it since.
    stored: Arc<Stored>,
    /// The counts appends have added since that compaction.
    added: CountRelation,
    /// `C_k`: the patterns meeting the threshold, with their counts.
    frequent: CountRelation,
    /// `|R'_k|`: the summed counts under every live prefix.
    r_prime_tuples: u64,
}

/// A level's counts as of its last compaction. The entries of at least
/// `floor` (half the threshold then) are also held apart in `near`: a
/// pattern missing from it has fewer stored transactions than `floor`,
/// so most lookups read only the small relation.
#[derive(Debug)]
struct Stored {
    all: CountRelation,
    near: CountRelation,
    floor: u64,
}

impl Stored {
    fn new(all: CountRelation, min_count: u64) -> Stored {
        let floor = min_count.div_ceil(2);
        Stored { near: CountRelation::merge_sum_filter(&[&all], floor), all, floor }
    }
}

impl Level {
    fn empty(k: usize) -> Level {
        Level {
            stored: Arc::new(Stored::new(CountRelation::new(k), 1)),
            added: CountRelation::new(k),
            frequent: CountRelation::new(k),
            r_prime_tuples: 0,
        }
    }

    /// The summed counts of the extensions of `prefix`.
    fn sum_under(&self, prefix: &[Item]) -> u64 {
        let sum = |c: &CountRelation| under(c, prefix).map(|i| c.count_at(i)).sum::<u64>();
        sum(&self.stored.all) + sum(&self.added)
    }

    /// Whether any extension of `prefix` has an entry.
    fn holds(&self, prefix: &[Item]) -> bool {
        !under(&self.stored.all, prefix).is_empty() || !under(&self.added, prefix).is_empty()
    }

    /// `stored` and `added` folded into one shared relation, split at
    /// half of `min_count`; with `live`, only the entries under its
    /// patterns are kept.
    fn compacted(self, live: Option<&CountRelation>, min_count: u64) -> Level {
        let merged = if self.stored.all.is_empty() {
            self.added
        } else {
            CountRelation::merge_sum_filter(&[&self.stored.all, &self.added], 1)
        };
        let all = match live {
            Some(live) => keep_with_frequent_prefix(&merged, live),
            None => merged,
        };
        Level {
            added: CountRelation::new(all.k()),
            stored: Arc::new(Stored::new(all, min_count)),
            frequent: self.frequent,
            r_prime_tuples: self.r_prime_tuples,
        }
    }

    /// This level after one append. `delta` holds the delta's counts of
    /// level k; `prefixes` is `C_{k-1}` before and after the append at
    /// k ≥ 3 (`None` at k = 2, where every prefix stays live); `base` is
    /// the captured dataset; the threshold moves from `old_min` to
    /// `new_min`.
    fn advance(
        &self,
        delta: CountRelation,
        prefixes: Option<(&CountRelation, &CountRelation)>,
        base: &Base,
        (old_min, new_min): (u64, u64),
    ) -> Level {
        let k = delta.k();
        let (promoted, demoted) = match prefixes {
            Some((before, after)) if base.dataset.n_transactions() > 0 => {
                prefix_moves(before, after)
            }
            _ => (Vec::new(), Vec::new()),
        };
        // A promoted prefix that was live once may hold stale entries
        // from before it was demoted: drop every entry that is not live
        // before the append (rare).
        let rebuilt;
        let old = if promoted.iter().any(|q| self.holds(q)) {
            rebuilt = self.clone().compacted(prefixes.map(|(before, _)| before), old_min);
            &rebuilt
        } else {
            self
        };
        let recount =
            if promoted.is_empty() { CountRelation::new(k) } else { base.recount(&promoted, k) };
        let demoted_tuples: u64 = demoted.iter().map(|q| old.sum_under(q)).sum();
        let r_prime_tuples = old.r_prime_tuples - demoted_tuples + total(&recount) + total(&delta);

        // Which delta patterns can be frequent now. One in the old C_k
        // adds its delta count to its old one (`kept`), one under a
        // promoted prefix to the recount (`promoted_gains`). Any other
        // had fewer than `old_min` transactions, so only one gaining more
        // than the threshold's rise can cross it (`crossing`), and it
        // needs its old count — unless it is missing from `near`, and so
        // too far below even with its appended count. Every other delta
        // pattern stays below `new_min`. Each relation is built in
        // pattern order, so its lookups walk forward.
        let mut kept = CountRelation::new(k);
        let mut in_delta = Seek::new(&delta);
        for (p, count) in old.frequent.iter() {
            kept.push(p, count + in_delta.count(p));
        }
        let mut promoted_gains = CountRelation::new(k);
        for q in &promoted {
            for i in under(&delta, q) {
                promoted_gains.push(delta.pattern_at(i), delta.count_at(i));
            }
        }
        let mut crossing = CountRelation::new(k);
        let stored = &old.stored;
        let mut was_frequent = Seek::new(&old.frequent);
        let (mut near, mut all, mut added) =
            (Seek::new(&stored.near), Seek::new(&stored.all), Seek::new(&old.added));
        for (p, n) in delta.iter().filter(|&(_, n)| n + old_min > new_min) {
            let prefix = &p[..k - 1];
            if promoted.binary_search_by(|q| q.as_slice().cmp(prefix)).is_ok()
                || was_frequent.count(p) > 0
            {
                continue;
            }
            let gained = added.count(p);
            let compacted = match near.count(p) {
                0 if stored.floor + gained + n > new_min => all.count(p),
                count => count,
            };
            crossing.push(p, compacted + gained + n);
        }
        // A demoted prefix's patterns in the old C_k have no delta count
        // and are no more frequent than it is, so the threshold drops them.
        let frequent = CountRelation::merge_sum_filter(
            &[&kept, &recount, &promoted_gains, &crossing],
            new_min,
        );
        let added = if old.added.is_empty() && recount.is_empty() {
            delta
        } else {
            CountRelation::merge_sum_filter(&[&old.added, &recount, &delta], 1)
        };
        let next = Level { stored: Arc::clone(stored), added, frequent, r_prime_tuples };
        if next.added.len() > next.stored.all.len() / 2 {
            next.compacted(None, new_min)
        } else {
            next
        }
    }
}

impl MiningFrontier {
    /// Capture a frontier by mining `dataset` from scratch (the "empty
    /// frontier + one big delta" special case of [`Self::apply_delta`]).
    /// Returns the full-run outcome alongside the frontier, both derived
    /// from the same pass.
    pub fn bootstrap(
        dataset: &Dataset,
        params: &MiningParams,
        threads: usize,
    ) -> Result<(MiningOutcome, MiningFrontier), SetmError> {
        params.validate()?;
        let empty = MiningFrontier {
            params: *params,
            sales: LiveStats::default(),
            min_count: params.min_support.to_count(1),
            item_counts: CountRelation::new(1),
            levels: Vec::new(),
            signatures: Vec::new(),
        };
        empty.apply_delta(&Dataset::from_pairs(std::iter::empty()), dataset, threads)
    }

    /// The parameters this frontier was captured under. A frontier only
    /// answers requests for exactly these parameters (the threshold is
    /// re-resolved against the grown transaction count on every append,
    /// but the fraction/count specification itself is fixed).
    pub fn params(&self) -> &MiningParams {
        &self.params
    }

    /// Transactions in the captured dataset.
    pub fn n_transactions(&self) -> u64 {
        self.sales.n_txns
    }

    /// Absorb a batch of new transactions. `base` must be the exact
    /// dataset this frontier was captured on and `delta` must use
    /// `trans_id`s disjoint from it (validate with
    /// [`ensure_disjoint_tids`]; violations corrupt counts).
    ///
    /// Runs the Figure 4 loop on the shared driver with the delta's
    /// operators: the extension joins over the delta only, the delta
    /// counts added to the stored unfiltered counts, extensions of
    /// demoted prefixes dropped, extensions of promoted prefixes
    /// recounted by one base scan, and the recomputed threshold
    /// re-applied; then rules are rebuilt. The returned outcome is
    /// byte-identical (canonical JSON) to a from-scratch memory-backend
    /// run on `base ∪ delta` with `threads` workers, whose plans the
    /// driver derives from the same statistics. An empty `delta`
    /// re-derives this frontier's own outcome.
    pub fn apply_delta(
        &self,
        base: &Dataset,
        delta: &Dataset,
        threads: usize,
    ) -> Result<(MiningOutcome, MiningFrontier), SetmError> {
        debug_assert_eq!(base.n_transactions(), self.sales.n_txns, "frontier/base mismatch");
        debug_assert_eq!(self.signatures.len(), base.n_transactions() as usize);
        debug_assert!(ensure_disjoint_tids(base, delta).is_ok(), "delta trans_ids overlap base");

        // The same resolution `Miner::run` applies: `SETM_FORCE_PLAN`
        // overrides the auto planner.
        let spec = RunSpec { threads, plan_mode: PlanMode::Auto.resolve()?, ..RunSpec::default() };
        let planner =
            Planner::new(spec.plan_mode, PlannerConfig::with_max_shards(resolve_threads(threads)));
        let longest = delta.transactions().map(|(_, i)| i.len() as u64).max().unwrap_or(0);
        let sales_tuples = self.sales.sales_tuples + delta.n_rows();
        let sales = LiveStats {
            n_txns: self.sales.n_txns + delta.n_transactions(),
            sales_tuples,
            max_txn_len: self.sales.max_txn_len.max(longest),
            r_prev_tuples: sales_tuples,
            c_prev_len: 0,
        };
        let mut ops = Append {
            frontier: self,
            base: Base { dataset: base, signatures: &self.signatures },
            delta,
            sales,
            item_counts: CountRelation::new(1),
            levels: Vec::new(),
            delta_r_prev: Vec::new(),
        };
        let totals =
            Totals { n_transactions: sales.n_txns, sales_rows: sales_tuples, k1_pruned: 0 };
        let result = match drive(&mut ops, totals, &self.params, &planner, &spec) {
            Ok(result) => result,
            Err(never) => match never {},
        };
        // `base ∪ delta` is in `trans_id` order, and a delta's ids may fall
        // between the base's: merge the signatures by id.
        let mut signatures =
            Vec::with_capacity(self.signatures.len() + delta.n_transactions() as usize);
        let mut appended =
            delta.transactions().map(|(tid, items)| (tid, signature(items))).peekable();
        for ((tid, _), &held) in base.transactions().zip(&self.signatures) {
            while let Some((_, sig)) = appended.next_if(|&(t, _)| t < tid) {
                signatures.push(sig);
            }
            signatures.push(held);
        }
        signatures.extend(appended.map(|(_, sig)| sig));
        let next = MiningFrontier {
            params: self.params,
            sales,
            min_count: result.min_support_count,
            item_counts: ops.item_counts,
            levels: ops.levels,
            signatures,
        };
        let rules = generate_rules(&result, self.params.min_confidence);
        let outcome =
            MiningOutcome { result, rules, report: ExecutionReport::Memory, per_class: None };
        Ok((outcome, next))
    }
}

/// One append as the driver's operator set. The delta's tuples are
/// joined as a full run joins them; the base contributes only the
/// stored levels' counts (and the promotion recount).
struct Append<'a> {
    frontier: &'a MiningFrontier,
    base: Base<'a>,
    /// The delta's transactions, the `SALES` side of its joins.
    delta: &'a Dataset,
    /// The `SALES` statistics of `base ∪ delta`.
    sales: LiveStats,
    /// The unfiltered item counts of `base ∪ delta`, once `count_c1` ran.
    item_counts: CountRelation,
    /// The advanced levels, one per iteration run so far.
    levels: Vec<Level>,
    /// The delta's `R_{k-1}`, which the next `iterate` extends (k ≥ 3):
    /// one `(transaction, pattern)` pair per tuple, the transaction's
    /// index in the delta and the pattern's in the new `C_{k-1}`.
    delta_r_prev: Vec<(u32, u32)>,
}

impl Operators for Append<'_> {
    type Error = Infallible;

    /// The stored item counts plus the delta's; the new `C_1` falls out
    /// of the new threshold.
    fn count_c1(
        &mut self,
        min_count: u64,
        _: &RunSpec,
    ) -> Result<(CountRelation, Metered), Infallible> {
        let delta_counts = count_items(self.delta, 1);
        self.item_counts =
            CountRelation::merge_sum_filter(&[&self.frontier.item_counts, &delta_counts], 1);
        Ok((CountRelation::merge_sum_filter(&[&self.item_counts], min_count), Metered::default()))
    }

    fn sales_stats(&self) -> LiveStats {
        self.sales
    }

    /// The delta's join — at k = 2 every pair of items in a delta
    /// transaction ([`count_pairs`]), above it each tuple of the delta's
    /// `R_{k-1}` extended by every item of its transaction after its last
    /// one, the join of Section 4.1, counted without building `R'_k` — and
    /// the stored level advanced by its counts, its prefixes moved to the
    /// new `C_{k-1}`. The plan is left as planned: a full memory run
    /// records it so too.
    fn iterate(
        &mut self,
        k: usize,
        _: &mut PhysicalPlan,
        min_count: u64,
        _: &RunSpec,
    ) -> Result<Step, Infallible> {
        let delta_counts = if k == 2 {
            count_pairs(self.delta)
        } else {
            let c_prev = &self.levels[k - 3].frequent;
            let mut keys = Vec::new();
            for &(s, p) in &self.delta_r_prev {
                let items = self.delta.transaction(s as usize).1;
                let start = items.partition_point(|&it| it <= c_prev.pattern_at(p as usize)[k - 2]);
                keys.extend(items[start..].iter().map(|&ext| u64::from(p) << 32 | u64::from(ext)));
            }
            count_keys(keys, k, |p, items| items.extend_from_slice(c_prev.pattern_at(p)))
        };
        let empty = Level::empty(k);
        let old = self.frontier.levels.get(k - 2).unwrap_or(&empty);
        let no_prefixes = CountRelation::new(k - 1);
        let prefixes = (k >= 3).then(|| {
            let before = self.frontier.levels.get(k - 3).map_or(&no_prefixes, |l| &l.frequent);
            (before, &self.levels[k - 3].frequent)
        });
        let level =
            old.advance(delta_counts, prefixes, &self.base, (self.frontier.min_count, min_count));
        // |R_k| is the sum of surviving group counts: each group of count
        // n is n (trans_id, pattern) tuples.
        let step = Step {
            c_k: level.frequent.clone(),
            r_prime_tuples: level.r_prime_tuples,
            r_tuples: total(&level.frequent),
            pruned: 0,
            io: Metered::default(),
        };
        self.levels.push(level);
        Ok(step)
    }

    /// The delta's `R_k`: its tuples of the patterns now in `C_k`. At
    /// k = 2 each item of a transaction walks the items after it alongside
    /// the `C_2` patterns that start with it; above, each `R_{k-1}` tuple
    /// walks the items after its last one alongside the `C_k` patterns
    /// that extend its own.
    fn carry(&mut self, k: usize, _: &PhysicalPlan, _: &RunSpec) -> Result<(), Infallible> {
        let c_k = &self.levels[k - 2].frequent;
        let mut r_k = Vec::new();
        if k == 2 {
            // Each first item of `c_k`, with the index its patterns start at.
            let mut firsts: Vec<(Item, usize)> = Vec::new();
            for j in 0..c_k.len() {
                let a = c_k.pattern_at(j)[0];
                if firsts.last().is_none_or(|&(last, _)| last != a) {
                    firsts.push((a, j));
                }
            }
            for (s, (_, items)) in self.delta.transactions().enumerate() {
                for (i, &a) in items.iter().enumerate() {
                    let Ok(f) = firsts.binary_search_by_key(&a, |&(first, _)| first) else {
                        continue;
                    };
                    let patterns = firsts[f].1..firsts.get(f + 1).map_or(c_k.len(), |&(_, j)| j);
                    held(c_k, patterns, &items[i + 1..], |j| r_k.push((s as u32, j as u32)));
                }
            }
        } else {
            let c_prev = &self.levels[k - 3].frequent;
            // `extending[p]`: the patterns of `c_k` that extend pattern `p`
            // of `c_prev`, where every prefix of `c_k` is.
            let mut extending = vec![0..0; c_prev.len()];
            let mut p = 0;
            for j in 0..c_k.len() {
                let prefix = &c_k.pattern_at(j)[..k - 1];
                while c_prev.pattern_at(p) < prefix {
                    p += 1;
                }
                debug_assert_eq!(c_prev.pattern_at(p), prefix, "a C_k prefix is in C_(k-1)");
                if extending[p].is_empty() {
                    extending[p].start = j;
                }
                extending[p].end = j + 1;
            }
            for &(s, p) in &self.delta_r_prev {
                let patterns = extending[p as usize].clone();
                if patterns.is_empty() {
                    continue;
                }
                let items = self.delta.transaction(s as usize).1;
                let start = items.partition_point(|&it| it <= c_prev.pattern_at(p as usize)[k - 2]);
                held(c_k, patterns, &items[start..], |j| r_k.push((s, j as u32)));
            }
        }
        self.delta_r_prev = r_k;
        Ok(())
    }
}

/// Reject a delta whose `trans_id`s collide with the base: the two
/// halves of a shared transaction would merge into one basket, creating
/// cross-half pairs the frontier never sees. Returns the first
/// offending `trans_id`.
pub fn ensure_disjoint_tids(base: &Dataset, delta: &Dataset) -> Result<(), TransId> {
    // Both tid columns are sorted; one merge pass over distinct tids.
    let (a, b) = (base.tids(), delta.tids());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return Err(a[i]),
        }
    }
    Ok(())
}

/// The concatenated dataset `base ∪ delta` (the from-scratch side of the
/// equivalence proof, and what a registry snapshot stores per version).
pub fn concat_datasets(base: &Dataset, delta: &Dataset) -> Dataset {
    Dataset::from_pairs(base.iter_rows().chain(delta.iter_rows()))
}

/// `R'_2`'s group counts over `txns`: every pair of items in a
/// transaction, the first item as the prefix.
fn count_pairs(txns: &Dataset) -> CountRelation {
    let pairs = |n: usize| n * n.saturating_sub(1) / 2;
    let mut keys: Vec<u64> =
        Vec::with_capacity(txns.transactions().map(|(_, t)| pairs(t.len())).sum());
    for (_, items) in txns.transactions() {
        for (i, &a) in items.iter().enumerate() {
            keys.extend(items[i + 1..].iter().map(|&b| u64::from(a) << 32 | u64::from(b)));
        }
    }
    count_keys(keys, 2, |a, items| items.push(a as Item))
}

/// The group counts of level-k patterns given as keys `p << 32 | item`,
/// one per tuple: `prefix(p, items)` appends the `(k-1)`-prefix numbered
/// `p` to `items`, and numbers must ascend with their prefixes. The keys
/// are sorted and counted run by run, which leaves the patterns in order.
fn count_keys(
    mut keys: Vec<u64>,
    k: usize,
    prefix: impl Fn(usize, &mut Vec<Item>),
) -> CountRelation {
    radix_sort(&mut keys);
    let patterns = keys.len().min(1) + keys.windows(2).filter(|w| w[0] != w[1]).count();
    let (mut items, mut counts) = (Vec::with_capacity(k * patterns), Vec::with_capacity(patterns));
    let mut start = 0;
    while start < keys.len() {
        let key = keys[start];
        let end = start + keys[start..].iter().take_while(|&&next| next == key).count();
        prefix((key >> 32) as usize, &mut items);
        items.push(key as Item);
        counts.push((end - start) as u64);
        start = end;
    }
    CountRelation::from_sorted(k, items, counts)
}

/// Sort `keys` by least-significant-digit radix, each 32-bit half on
/// digits of at most 11 bits, skipping every digit on which all keys
/// agree: a key packs two numbers, one per half, that seldom use all 32
/// bits.
fn radix_sort(keys: &mut Vec<u64>) {
    const DIGITS: [(u32, u32); 6] = [(0, 11), (11, 11), (22, 10), (32, 11), (43, 11), (54, 10)];
    let (any, all) = keys.iter().fold((0u64, !0u64), |(any, all), &key| (any | key, all & key));
    let mut scratch = Vec::new();
    let mut starts = [0usize; 1 << 11];
    for (shift, bits) in DIGITS {
        let mask = (1 << bits) - 1;
        if (any ^ all) >> shift & mask == 0 {
            continue;
        }
        scratch.resize(keys.len(), 0);
        starts.fill(0);
        for &key in keys.iter() {
            starts[(key >> shift & mask) as usize] += 1;
        }
        let mut at = 0;
        for start in starts.iter_mut() {
            (*start, at) = (at, at + *start);
        }
        for &key in keys.iter() {
            let digit = (key >> shift & mask) as usize;
            scratch[starts[digit]] = key;
            starts[digit] += 1;
        }
        std::mem::swap(keys, &mut scratch);
    }
}

/// `emit(j)` for each of `c_k`'s `patterns` whose last item is in
/// `items`, ascending: both lists are sorted, so one walk finds them.
fn held(c_k: &CountRelation, patterns: Range<usize>, items: &[Item], mut emit: impl FnMut(usize)) {
    let k = c_k.k();
    let mut rest = items.iter().copied().peekable();
    for j in patterns {
        let last = c_k.pattern_at(j)[k - 1];
        while rest.next_if(|&x| x < last).is_some() {}
        if rest.next_if_eq(&last).is_some() {
            emit(j);
        }
    }
}

/// The summed counts of a relation: `|R|` of the tuples it counts.
fn total(c: &CountRelation) -> u64 {
    c.iter().map(|(_, n)| n).sum()
}

/// The indices of `c`'s patterns that extend `prefix` (pattern-sorted,
/// so they are adjacent).
fn under(c: &CountRelation, prefix: &[Item]) -> Range<usize> {
    let head = |i: usize| &c.pattern_at(i)[..prefix.len()];
    // The first index whose pattern is not `before` the prefix's range.
    let first_not = |before: &dyn Fn(usize) -> bool| {
        let (mut lo, mut hi) = (0, c.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    };
    first_not(&|i| head(i) < prefix)..first_not(&|i| head(i) <= prefix)
}

/// Lookups into a pattern-sorted relation in ascending pattern order:
/// each gallops forward from where the last one stopped.
struct Seek<'a> {
    rel: &'a CountRelation,
    at: usize,
}

impl<'a> Seek<'a> {
    fn new(rel: &'a CountRelation) -> Self {
        Seek { rel, at: 0 }
    }

    /// The count of `pattern` (0 if absent), which must not be below the
    /// last pattern sought.
    fn count(&mut self, pattern: &[Item]) -> u64 {
        let (rel, n) = (self.rel, self.rel.len());
        let below = |i: usize| rel.pattern_at(i) < pattern;
        let (mut lo, mut step) = (self.at, 1usize);
        while lo + step <= n && below(lo + step - 1) {
            lo += step;
            step *= 2;
        }
        let mut hi = (lo + step - 1).min(n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if below(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.at = lo;
        if lo < n && rel.pattern_at(lo) == pattern {
            rel.count_at(lo)
        } else {
            0
        }
    }
}

/// The patterns of `after` not in `before` (promoted) and of `before`
/// not in `after` (demoted), each ascending. Both sides are
/// pattern-sorted, so one merge walk finds them.
fn prefix_moves(before: &CountRelation, after: &CountRelation) -> (Vec<Vec<Item>>, Vec<Vec<Item>>) {
    let (mut promoted, mut demoted) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0usize, 0usize);
    while i < before.len() || j < after.len() {
        let order = match (i < before.len(), j < after.len()) {
            (true, true) => before.pattern_at(i).cmp(after.pattern_at(j)),
            (true, false) => std::cmp::Ordering::Less,
            _ => std::cmp::Ordering::Greater,
        };
        match order {
            std::cmp::Ordering::Less => {
                demoted.push(before.pattern_at(i).to_vec());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                promoted.push(after.pattern_at(j).to_vec());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    (promoted, demoted)
}

/// Entries of `old` whose (k-1)-prefix is a pattern of `c_prev`. Both
/// sides are pattern-sorted, so the prefixes of `old` arrive in order
/// and membership is one monotone cursor over `c_prev`.
fn keep_with_frequent_prefix(old: &CountRelation, c_prev: &CountRelation) -> CountRelation {
    let k = old.k();
    let mut out = CountRelation::new(k);
    let mut ci = 0usize;
    for (p, c) in old.iter() {
        let prefix = &p[..k - 1];
        while ci < c_prev.len() && c_prev.pattern_at(ci) < prefix {
            ci += 1;
        }
        if ci < c_prev.len() && c_prev.pattern_at(ci) == prefix {
            out.push(p, c);
        }
    }
    out
}

/// The captured dataset, as the promotion recount scans it.
struct Base<'a> {
    dataset: &'a Dataset,
    /// Each transaction's [`signature`].
    signatures: &'a [u128],
}

impl Base<'_> {
    /// Base-side support of every extension of a *promoted* prefix: one
    /// scan of the base's signatures per prefix, counting `prefix + item`
    /// for each transaction containing the prefix and each item beyond its
    /// last — the same extension rule as the merge-scan join. A count is
    /// keyed by the prefix's position in `promoted` and the item, so
    /// sorting the keys puts the patterns in order.
    fn recount(&self, promoted: &[Vec<Item>], k: usize) -> CountRelation {
        let needs: Vec<u128> = promoted.iter().map(|p| signature(p)).collect();
        let mut keys: Vec<u64> = Vec::new();
        for (s, &held) in self.signatures.iter().enumerate() {
            for (i, &need) in needs.iter().enumerate() {
                if need & !held != 0 {
                    continue;
                }
                let items = self.dataset.transaction(s).1;
                if let Some(start) = extensions_of(items, &promoted[i]) {
                    keys.extend(
                        items[start..].iter().map(|&ext| (i as u64) << 32 | u64::from(ext)),
                    );
                }
            }
        }
        count_keys(keys, k, |i, items| items.extend_from_slice(&promoted[i]))
    }
}

/// Two bits of 128 per item, chosen by a multiplicative hash: a set's
/// signature covers every subset's, so one mask test rules out most
/// transactions that cannot contain a pattern before any search.
fn signature(items: &[Item]) -> u128 {
    items.iter().fold(0, |sig, &it| {
        let hash = it.wrapping_mul(0x9E37_79B9);
        sig | 1 << (hash >> 25) | 1 << (hash >> 18 & 127)
    })
}

/// Where the extensions of the sorted `pattern` start in the sorted
/// transaction `items` (the position after its last item), if `items`
/// holds every item of it.
fn extensions_of(items: &[Item], pattern: &[Item]) -> Option<usize> {
    let mut from = 0usize;
    for &p in pattern {
        from += items[from..].binary_search(&p).ok()? + 1;
    }
    Some(from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use setm_core::{MinSupport, Miner};

    fn params(support: MinSupport) -> MiningParams {
        MiningParams::new(support, 0.5)
    }

    fn outcomes_equal(a: &MiningOutcome, b: &MiningOutcome) {
        assert_eq!(a.result.counts.len(), b.result.counts.len(), "count levels");
        for (x, y) in a.result.counts.iter().zip(&b.result.counts) {
            assert_eq!(x.to_vec(), y.to_vec());
        }
        assert_eq!(a.result.trace, b.result.trace, "trace");
        assert_eq!(a.result.n_transactions, b.result.n_transactions);
        assert_eq!(a.result.min_support_count, b.result.min_support_count);
        assert_eq!(a.rules, b.rules, "rules");
    }

    #[test]
    fn bootstrap_matches_a_full_run_on_the_paper_example() {
        let d = setm_core::example::paper_example_dataset();
        let p = setm_core::example::paper_example_params();
        for threads in [1usize, 4] {
            let full = Miner::new(p).threads(threads).run(&d).unwrap();
            let (inc, frontier) = MiningFrontier::bootstrap(&d, &p, threads).unwrap();
            outcomes_equal(&inc, &full);
            let empty = Dataset::from_pairs(std::iter::empty());
            outcomes_equal(&frontier.apply_delta(&d, &empty, threads).unwrap().0, &full);
        }
    }

    #[test]
    fn apply_delta_matches_from_scratch_including_the_threshold_shift() {
        // 30% of 10 = 3; after appending 4 transactions, 30% of 14 = 5:
        // the recomputed threshold demotes borderline itemsets.
        let base = setm_core::example::paper_example_dataset();
        let p = setm_core::example::paper_example_params();
        let delta = Dataset::from_transactions([
            (100, [10u32, 20, 30].as_slice()),
            (101, [10, 20].as_slice()),
            (102, [40, 50, 60].as_slice()),
            (103, [10, 30, 50].as_slice()),
        ]);
        let concat = concat_datasets(&base, &delta);
        for threads in [1usize, 4] {
            let full = Miner::new(p).threads(threads).run(&concat).unwrap();
            let (_, frontier) = MiningFrontier::bootstrap(&base, &p, threads).unwrap();
            let (inc, next) = frontier.apply_delta(&base, &delta, threads).unwrap();
            outcomes_equal(&inc, &full);
            assert_eq!(next.n_transactions(), concat.n_transactions());
        }
    }

    #[test]
    fn an_empty_delta_is_an_identity() {
        let base = setm_core::example::paper_example_dataset();
        let p = setm_core::example::paper_example_params();
        let empty = Dataset::from_pairs(std::iter::empty());
        let (boot, frontier) = MiningFrontier::bootstrap(&base, &p, 1).unwrap();
        let (inc, _) = frontier.apply_delta(&base, &empty, 1).unwrap();
        outcomes_equal(&inc, &boot);
    }

    #[test]
    fn a_promoted_prefix_triggers_the_base_recount_and_stays_correct() {
        // Pair {1,2} appears in 2 of 6 base transactions — below the
        // 50% threshold (3). The delta adds {1,2,3} twice: 4 of 8 meets
        // the new threshold (4), promoting {1,2} at k=2 and forcing the
        // k=3 recount of its base-side extensions ({1,2,3} and {1,2,9});
        // {1,2,3} then reaches support 4 and k=4 repeats the promotion
        // for the {1,2,3} prefix itself.
        let base = Dataset::from_transactions([
            (1, [1u32, 2, 3].as_slice()),
            (2, [1, 3].as_slice()),
            (3, [2, 3].as_slice()),
            (4, [1, 3].as_slice()),
            (5, [2, 3].as_slice()),
            (6, [1, 2, 3, 9].as_slice()),
        ]);
        let delta =
            Dataset::from_transactions([(7, [1u32, 2, 3].as_slice()), (8, [1, 2, 3].as_slice())]);
        let p = params(MinSupport::Fraction(0.5));
        let concat = concat_datasets(&base, &delta);
        let full = Miner::new(p).threads(1).run(&concat).unwrap();
        assert!(full.result.c(3).is_some(), "the scenario must actually reach k=3 after promotion");
        let (_, frontier) = MiningFrontier::bootstrap(&base, &p, 1).unwrap();
        assert!(
            !frontier.levels[0].frequent.contains(&[1, 2]),
            "the scenario must actually cross the threshold"
        );
        let (inc, _) = frontier.apply_delta(&base, &delta, 1).unwrap();
        outcomes_equal(&inc, &full);
    }

    #[test]
    fn successive_appends_compose() {
        let p = params(MinSupport::Count(2));
        let batches = [
            Dataset::from_transactions([(1, [1u32, 2].as_slice()), (2, [2, 3].as_slice())]),
            Dataset::from_transactions([(3, [1u32, 2, 3].as_slice())]),
            Dataset::from_transactions([(4, [1u32, 2, 3, 4].as_slice()), (5, [3, 4].as_slice())]),
        ];
        let mut base = Dataset::from_pairs(std::iter::empty());
        let (_, mut frontier) = MiningFrontier::bootstrap(&base, &p, 1).unwrap();
        for delta in &batches {
            let concat = concat_datasets(&base, delta);
            let full = Miner::new(p).threads(1).run(&concat).unwrap();
            let (inc, next) = frontier.apply_delta(&base, delta, 1).unwrap();
            outcomes_equal(&inc, &full);
            frontier = next;
            base = concat;
        }
    }

    /// {1,2} is frequent in the base, demoted by the first append (its
    /// level-3 entries go stale), promoted again by the second and
    /// demoted by the third. The stale {1,2,3} must not be added to its
    /// recount, or the third append takes too much off `|R'_3|`.
    #[test]
    fn a_prefix_demoted_and_promoted_again_is_recounted_once() {
        let p = params(MinSupport::Fraction(0.5));
        let base = Dataset::from_transactions([
            (1, [1u32, 2, 3].as_slice()),
            (2, [1, 2, 3].as_slice()),
            (3, [7, 8].as_slice()),
            (4, [7, 8].as_slice()),
        ]);
        let batches = [
            Dataset::from_transactions([(5, [7u32, 8].as_slice()), (6, [7, 8].as_slice())]),
            Dataset::from_transactions([
                (7, [1u32, 2, 3].as_slice()),
                (8, [1, 2, 3].as_slice()),
                (9, [1, 2, 3].as_slice()),
                (10, [9].as_slice()),
            ]),
            Dataset::from_transactions((11..17).map(|t| (t, [7u32, 8].as_slice()))),
        ];
        let (_, mut frontier) = MiningFrontier::bootstrap(&base, &p, 1).unwrap();
        let mut base = base;
        for (step, delta) in batches.iter().enumerate() {
            let concat = concat_datasets(&base, delta);
            let full = Miner::new(p).threads(1).run(&concat).unwrap();
            let (inc, next) = frontier.apply_delta(&base, delta, 1).unwrap();
            outcomes_equal(&inc, &full);
            let demoted = !next.levels[0].frequent.contains(&[1, 2]);
            assert_eq!(demoted, step != 1, "step {step}: {{1,2}} frequent only after the second");
            if step == 0 {
                assert!(next.levels[1].holds(&[1, 2]), "its level-3 entry must go stale");
            }
            if step == 1 {
                assert_eq!(next.levels[1].frequent.get(&[1, 2, 3]), Some(5));
            }
            frontier = next;
            base = concat;
        }
    }

    /// The second append promotes {1,2} and recounts its extensions over
    /// the base and the first append, whose `trans_id`s fall between the
    /// base's: the stored signatures must follow `trans_id` order, or the
    /// recount skips transaction 60 and misses {1,2,3}.
    #[test]
    fn a_recount_after_an_interleaved_append_finds_every_transaction() {
        let p = params(MinSupport::Fraction(0.5));
        let base = Dataset::from_transactions([
            (10, [1u32, 2, 3].as_slice()),
            (20, [1, 3].as_slice()),
            (30, [2, 3].as_slice()),
            (40, [1, 3].as_slice()),
            (50, [2, 3].as_slice()),
            (60, [1, 2, 3, 9].as_slice()),
        ]);
        let batches = [
            Dataset::from_transactions([(15, [5u32].as_slice()), (25, [6].as_slice())]),
            Dataset::from_transactions((0..4).map(|i| (35 + 10 * i, [1u32, 2, 3].as_slice()))),
        ];
        let (_, mut frontier) = MiningFrontier::bootstrap(&base, &p, 1).unwrap();
        let mut base = base;
        for delta in &batches {
            let concat = concat_datasets(&base, delta);
            let full = Miner::new(p).threads(1).run(&concat).unwrap();
            let (inc, next) = frontier.apply_delta(&base, delta, 1).unwrap();
            outcomes_equal(&inc, &full);
            let expected: Vec<u128> = concat.transactions().map(|(_, t)| signature(t)).collect();
            assert_eq!(next.signatures, expected, "signatures in trans_id order");
            frontier = next;
            base = concat;
        }
        assert_eq!(frontier.levels[1].frequent.get(&[1, 2, 3]), Some(6));
    }

    /// Small appends share the level counts of the frontier they advance
    /// from; the appended counts are folded in once they outgrow half of
    /// those. Every step still matches a from-scratch run.
    #[test]
    fn appends_share_stored_counts_until_a_compaction() {
        let p = params(MinSupport::Fraction(0.1));
        // A fixed pseudo-random basket stream over 30 items.
        let mut state = 7u32;
        let mut basket = || {
            let mut items: Vec<u32> = (0..6)
                .map(|_| {
                    state = state.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                    state >> 16 & 31
                })
                .collect();
            items.sort_unstable();
            items.dedup();
            items
        };
        let baskets: Vec<Vec<u32>> = (0..400).map(|_| basket()).collect();
        let dataset = |range: std::ops::Range<usize>| {
            Dataset::from_transactions(
                range.map(|i| (i as u32 + 1, baskets[i].as_slice())).collect::<Vec<_>>(),
            )
        };
        let mut base = dataset(0..200);
        let (_, mut frontier) = MiningFrontier::bootstrap(&base, &p, 1).unwrap();
        let (mut shared, mut compacted) = (0, 0);
        for start in (200..400).step_by(10) {
            let delta = dataset(start..start + 10);
            let concat = concat_datasets(&base, &delta);
            let full = Miner::new(p).threads(1).run(&concat).unwrap();
            let (inc, next) = frontier.apply_delta(&base, &delta, 1).unwrap();
            outcomes_equal(&inc, &full);
            if Arc::ptr_eq(&frontier.levels[0].stored, &next.levels[0].stored) {
                shared += 1;
            } else {
                compacted += 1;
            }
            frontier = next;
            base = concat;
        }
        assert!(shared > 0 && compacted > 0, "shared {shared}, compacted {compacted}");
    }

    #[test]
    fn radix_sort_orders_keys_across_all_64_bits() {
        let mut keys: Vec<u64> = vec![
            u64::MAX,
            0,
            1 << 40,
            7,
            u64::MAX - 1,
            1 << 63,
            7,
            1 << 11,
            1 << 32,
            1 << 31,
            3 << 31,
        ];
        let mut expected = keys.clone();
        expected.sort_unstable();
        radix_sort(&mut keys);
        assert_eq!(keys, expected);
    }

    #[test]
    fn disjointness_is_checked_and_concat_merges() {
        let base = Dataset::from_transactions([(1, [1u32, 2].as_slice())]);
        let clash = Dataset::from_transactions([(1, [3u32].as_slice())]);
        let fresh = Dataset::from_transactions([(2, [3u32].as_slice())]);
        assert_eq!(ensure_disjoint_tids(&base, &clash), Err(1));
        assert_eq!(ensure_disjoint_tids(&base, &fresh), Ok(()));
        let c = concat_datasets(&base, &fresh);
        assert_eq!(c.n_transactions(), 2);
        assert_eq!(c.n_rows(), 3);
    }
}
