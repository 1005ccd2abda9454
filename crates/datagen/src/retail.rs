//! A calibrated stand-in for the paper's Section 6 retail dataset.
//!
//! The original data — 46,873 customer transactions from "a large
//! retailing company" (first used in Agrawal et al., SIGMOD'93) — is
//! proprietary. This generator reproduces every statistic the paper
//! reports about it, by construction or by calibration:
//!
//! * 46,873 transactions and exactly 115,568 line items (`|R_1|`),
//!   i.e. ~2.47 items per transaction;
//! * exactly 59 items with support ≥ 0.1% (`|C_1| = 59`; see
//!   docs/REPRODUCTION.md, Design notes §4, on the paper's impossible
//!   claim that this holds up to 5%);
//! * longest frequent pattern of length 3 at 0.1% support and length 4 at
//!   0.05% ("rules with 3 items in the antecedent");
//! * `|C_2| > |C_1|` at 0.1% (Figure 6's initial increase), with `|C_i|`
//!   and `|R_i|` collapsing quickly at large minimum support (Figure 5).
//!
//! Mechanism: 59 "head" SKUs with Zipf-distributed popularity, a large
//! tail of rare SKUs, a heavy-tailed transaction-length distribution
//! (most baskets hold 1–3 items; a few hold dozens — this is what makes
//! pair/triple co-occurrence rich enough at 0.1%), and four injected
//! cluster promotions on *disjoint* transaction sets: one strong pair
//! (survives 5% support), two mid-support triples, and one 35-transaction
//! quad that is frequent at 0.05% but not at 0.1%.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use setm_core::Dataset;
use std::collections::HashSet;

/// First tail item id (head items are `1..=n_head_items`).
pub const TAIL_BASE: u32 = 1000;

/// The injected cluster promotions (head item ids).
pub const CLUSTER_PAIR: [u32; 2] = [1, 2];
pub const CLUSTER_TRIPLE_A: [u32; 3] = [3, 4, 10];
pub const CLUSTER_TRIPLE_B: [u32; 3] = [5, 6, 11];
pub const CLUSTER_QUAD: [u32; 4] = [12, 13, 14, 15];

/// Transaction-length distribution: `(length, probability)`. Moderately
/// heavy tail (mean ≈ 2.16 before cluster injections; injections and
/// padding bring the total to the paper's 2.466 average). The tail is
/// calibrated so pair/triple co-occurrence is rich at 0.1% support while
/// no *chance* 4-itemset reaches 47 transactions — the paper's data has
/// no frequent quad at 0.1% but does at 0.05%.
const LENGTH_DIST: &[(usize, f64)] = &[
    (1, 0.500),
    (2, 0.225),
    (3, 0.115),
    (4, 0.065),
    (5, 0.035),
    (6, 0.025),
    (7, 0.015),
    (8, 0.010),
    (9, 0.006),
    (10, 0.003),
    (12, 0.001),
];

/// Configuration of the retail-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetailConfig {
    /// Number of transactions (the paper: 46,873).
    pub n_txns: u32,
    /// Exact number of line items to produce (the paper: |R_1| = 115,568).
    pub target_rows: u64,
    /// Head (frequent) item count (the paper: |C_1| = 59).
    pub n_head_items: u32,
    /// Zipf exponent of head-item popularity.
    pub zipf_s: f64,
    /// Number of rare tail items.
    pub n_tail_items: u32,
    /// Per-slot probability of drawing a tail item.
    pub tail_fraction: f64,
    /// Injection counts for the four clusters (pair, triple A, triple B,
    /// quad).
    pub cluster_txns: [u32; 4],
    /// RNG seed.
    pub seed: u64,
}

impl RetailConfig {
    /// The configuration calibrated to the paper's Section 6 statistics.
    pub fn paper() -> Self {
        RetailConfig {
            n_txns: 46_873,
            target_rows: 115_568,
            n_head_items: 59,
            zipf_s: 0.5,
            n_tail_items: 2000,
            tail_fraction: 0.12,
            cluster_txns: [3_500, 1_200, 600, 35],
            seed: 0x9E7A11,
        }
    }

    /// A small variant (same shape, fewer transactions) for quick tests.
    pub fn small(n_txns: u32, seed: u64) -> Self {
        let paper = Self::paper();
        let scale = n_txns as f64 / paper.n_txns as f64;
        RetailConfig {
            n_txns,
            target_rows: (paper.target_rows as f64 * scale).round() as u64,
            cluster_txns: paper.cluster_txns.map(|c| ((c as f64 * scale).ceil() as u32).max(1)),
            seed,
            ..paper
        }
    }

    /// Generate the dataset.
    pub fn generate(&self) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(self.seed);

        // Zipf cumulative weights over head items.
        let weights: Vec<f64> =
            (1..=self.n_head_items).map(|r| (r as f64).powf(-self.zipf_s)).collect();
        let total_w: f64 = weights.iter().sum();
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total_w;
            cumulative.push(acc);
        }
        let draw_head = |rng: &mut SmallRng| -> u32 {
            let x: f64 = rng.gen();
            let idx = cumulative.partition_point(|&c| c < x);
            idx.min(cumulative.len() - 1) as u32 + 1
        };

        // Base transactions.
        let mut txns: Vec<Vec<u32>> = Vec::with_capacity(self.n_txns as usize);
        for _ in 0..self.n_txns {
            let mut x: f64 = rng.gen();
            let mut len = 1usize;
            for &(l, p) in LENGTH_DIST {
                len = l;
                if x < p {
                    break;
                }
                x -= p;
            }
            let mut items: Vec<u32> = Vec::with_capacity(len);
            let mut tries = 0;
            while items.len() < len && tries < 200 {
                tries += 1;
                let item = if rng.gen::<f64>() < self.tail_fraction {
                    TAIL_BASE + rng.gen_range(0..self.n_tail_items)
                } else {
                    draw_head(&mut rng)
                };
                if !items.contains(&item) {
                    items.push(item);
                }
            }
            txns.push(items);
        }

        // Cluster injections on disjoint transaction sets: shuffle the
        // transaction indices and carve consecutive blocks.
        let mut order: Vec<u32> = (0..self.n_txns).collect();
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let clusters: [&[u32]; 4] =
            [&CLUSTER_PAIR, &CLUSTER_TRIPLE_A, &CLUSTER_TRIPLE_B, &CLUSTER_QUAD];
        let mut cursor = 0usize;
        let mut protected: HashSet<u32> = HashSet::new();
        for (cluster, &count) in clusters.iter().zip(self.cluster_txns.iter()) {
            let count = (count as usize).min(order.len().saturating_sub(cursor));
            for &tid in &order[cursor..cursor + count] {
                // Replace the basket outright: a promotion transaction
                // holds exactly the cluster items. Unioning instead would
                // let chance popular items ride along and manufacture
                // frequent 4-itemsets at 0.1% (cluster ∪ {popular item}),
                // which the paper's data does not have.
                txns[tid as usize] = cluster.to_vec();
                protected.insert(tid);
            }
            cursor += count;
        }

        // Adjust to the exact target row count.
        let mut rows: u64 = txns.iter().map(|t| t.len() as u64).sum();
        let mut pad_item_use = vec![0u32; self.n_tail_items as usize];
        let mut guard = 0u32;
        while rows != self.target_rows && guard < 10_000_000 {
            guard += 1;
            let tid = rng.gen_range(0..self.n_txns) as usize;
            if rows < self.target_rows {
                // Pad with a tail item kept far below the 0.1% support
                // threshold (47 transactions).
                let t = rng.gen_range(0..self.n_tail_items) as usize;
                if pad_item_use[t] >= 15 {
                    continue;
                }
                let item = TAIL_BASE + t as u32;
                if !txns[tid].contains(&item) {
                    txns[tid].push(item);
                    pad_item_use[t] += 1;
                    rows += 1;
                }
            } else {
                // Trim a non-cluster item from an unprotected transaction.
                if protected.contains(&(tid as u32)) || txns[tid].len() < 2 {
                    continue;
                }
                let pos = rng.gen_range(0..txns[tid].len());
                let item = txns[tid][pos];
                let in_cluster = clusters.iter().any(|c| c.contains(&item));
                if !in_cluster {
                    txns[tid].swap_remove(pos);
                    rows -= 1;
                }
            }
        }

        Dataset::from_pairs(
            txns.iter()
                .enumerate()
                .flat_map(|(tid, items)| items.iter().map(move |&it| (tid as u32 + 1, it))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DatasetStats;
    use setm_core::{setm::memory, MinSupport, MiningParams};

    fn paper_dataset() -> Dataset {
        RetailConfig::paper().generate()
    }

    #[test]
    fn exact_row_and_transaction_counts() {
        let s = DatasetStats::of(&paper_dataset());
        assert_eq!(s.n_transactions, 46_873, "the paper's transaction count");
        assert_eq!(s.n_rows, 115_568, "the paper's |R_1|");
        assert!((s.avg_transaction_len - 2.4656).abs() < 0.01);
    }

    #[test]
    fn exactly_59_items_reach_0_1_percent_support() {
        let s = DatasetStats::of(&paper_dataset());
        // 0.1% of 46,873 rounds up to 47 transactions.
        assert_eq!(s.items_with_support_at_least(47), 59, "the paper's |C_1|");
    }

    #[test]
    fn pattern_lengths_match_section_6() {
        let d = paper_dataset();
        // At 0.1%: longest frequent pattern is 3 ("The maximum size of
        // the rules is 3, hence in all cases |R_4| = 0").
        let params = MiningParams::new(MinSupport::Fraction(0.001), 0.5);
        let r = memory::execute(&d, &params, &Default::default());
        assert_eq!(r.max_pattern_len(), 3);
        // At 0.05%: length-4 patterns appear ("if the minimum support is
        // reduced to 0.05%, we obtain rules with 3 items in the
        // antecedent").
        let r = memory::execute(
            &d,
            &MiningParams::new(MinSupport::Fraction(0.0005), 0.5).with_max_len(5),
            &Default::default(),
        );
        assert_eq!(r.max_pattern_len(), 4);
    }

    #[test]
    fn figure6_shape_c2_exceeds_c1_at_low_support() {
        let d = paper_dataset();
        let params = MiningParams::new(MinSupport::Fraction(0.001), 0.5);
        let r = memory::execute(&d, &params, &Default::default());
        let c1 = r.c(1).unwrap().len();
        let c2 = r.c(2).unwrap().len();
        assert_eq!(c1, 59);
        assert!(c2 > c1, "|C_2| = {c2} should exceed |C_1| = {c1} at 0.1%");
        let c3 = r.c(3).unwrap().len();
        assert!(c3 < c2, "|C_3| = {c3} should fall back below |C_2| = {c2}");
    }

    #[test]
    fn high_support_still_yields_pairs() {
        let d = paper_dataset();
        // At 5% the injected pair promotion must survive.
        let params = MiningParams::new(MinSupport::Fraction(0.05), 0.5);
        let r = memory::execute(&d, &params, &Default::default());
        let c2 = r.c(2).expect("C_2 nonempty at 5%");
        assert!(c2.contains(&CLUSTER_PAIR), "the {CLUSTER_PAIR:?} promotion");
    }

    #[test]
    fn cluster_supports_are_where_they_were_placed() {
        let d = paper_dataset();
        let quad_support = d.support_of(&CLUSTER_QUAD);
        // Frequent at 0.05% (>= 24) but not at 0.1% (< 47).
        assert!((24..47).contains(&quad_support), "quad support {quad_support}");
        assert!(d.support_of(&CLUSTER_TRIPLE_A) >= 1_200);
        assert!(d.support_of(&CLUSTER_TRIPLE_B) >= 600);
        assert!(d.support_of(&CLUSTER_PAIR) >= 3_500);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = RetailConfig::paper().generate();
        let b = RetailConfig::paper().generate();
        assert_eq!(a, b);
    }

    #[test]
    fn small_variant_scales() {
        let cfg = RetailConfig::small(2_000, 7);
        let s = DatasetStats::of(&cfg.generate());
        assert_eq!(s.n_transactions, 2_000);
        assert!((s.n_rows as i64 - cfg.target_rows as i64).abs() < 50);
    }
}

#[cfg(test)]
mod calibration_probe {
    use super::*;
    use crate::stats::DatasetStats;
    use setm_core::{setm::memory, MinSupport, MiningParams};

    #[test]
    #[ignore = "diagnostic probe, run with --ignored --nocapture"]
    fn probe() {
        let d = RetailConfig::paper().generate();
        let s = DatasetStats::of(&d);
        println!(
            "txns={} rows={} avg={:.4} distinct={}",
            s.n_transactions, s.n_rows, s.avg_transaction_len, s.n_distinct_items
        );
        println!("items>=47: {}", s.items_with_support_at_least(47));
        let mut head: Vec<(u32, u64)> =
            s.item_counts.iter().filter(|(&i, _)| i < 100).map(|(&i, &c)| (i, c)).collect();
        head.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        println!("top10 head: {:?}", &head[..10.min(head.len())]);
        println!("quad support: {}", d.support_of(&CLUSTER_QUAD));
        for ms in [0.0005, 0.001, 0.005, 0.01, 0.02, 0.05] {
            let params = MiningParams::new(MinSupport::Fraction(ms), 0.5).with_max_len(6);
            let r = memory::execute(&d, &params, &Default::default());
            let sizes: Vec<(usize, u64, u64)> =
                r.trace.iter().map(|t| (t.k, t.c_len, t.r_tuples)).collect();
            println!(
                "minsup {:.2}% -> maxlen={} trace(k,|C|,|R|)={:?}",
                ms * 100.0,
                r.max_pattern_len(),
                sizes
            );
        }
    }
}
