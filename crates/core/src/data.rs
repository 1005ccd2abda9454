//! The basket data model.
//!
//! The paper stores customer transactions in a relation
//! `SALES(trans_id, item)` — one row per line item, both columns 4-byte
//! integers. [`Dataset`] is the in-memory form of that relation: rows
//! sorted by `(trans_id, item)` with duplicates removed, plus the
//! transaction boundaries so miners can iterate basket-wise.

use std::fmt;

/// An item identifier (the paper: "item values are represented by
/// integers").
pub type Item = u32;

/// A customer-transaction identifier.
pub type TransId = u32;

/// How the minimum support threshold is specified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MinSupport {
    /// Absolute number of supporting transactions (the paper's example:
    /// "a minimum support of 30%, i.e., 3 transactions").
    Count(u64),
    /// Fraction of the total number of transactions, in `(0, 1]`.
    Fraction(f64),
}

impl MinSupport {
    /// Resolve to an absolute transaction count (at least 1) given the
    /// dataset size. Fractions round up: a pattern must be supported by at
    /// least `ceil(f * n)` transactions.
    ///
    /// Does not validate: fractions outside `(0, 1]` are rejected with a
    /// typed error by [`crate::Miner::run`] before resolution; resolving
    /// one here simply clamps to at least 1 supporting transaction.
    pub fn to_count(self, n_transactions: u64) -> u64 {
        match self {
            MinSupport::Count(c) => c.max(1),
            MinSupport::Fraction(f) => ((f * n_transactions as f64).ceil() as u64).max(1),
        }
    }

    /// Whether the threshold is well-formed (fractions must lie in
    /// `(0, 1]`; any absolute count is accepted, zero clamps to 1).
    pub fn is_valid(&self) -> bool {
        match *self {
            MinSupport::Count(_) => true,
            MinSupport::Fraction(f) => f.is_finite() && f > 0.0 && f <= 1.0,
        }
    }
}

impl fmt::Display for MinSupport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinSupport::Count(c) => write!(f, "{c} transactions"),
            MinSupport::Fraction(x) => write!(f, "{}%", x * 100.0),
        }
    }
}

/// Parameters shared by every mining strategy in this workspace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiningParams {
    /// Patterns below this support are discarded.
    pub min_support: MinSupport,
    /// Rules below this confidence factor are discarded (Section 5).
    pub min_confidence: f64,
    /// Optional cap on pattern length (`None` = run until `R_k` empties,
    /// as in Figure 4).
    pub max_pattern_len: Option<usize>,
}

impl MiningParams {
    /// Parameters with a support threshold and confidence factor.
    ///
    /// Construction never panics; out-of-range values (confidence
    /// outside `[0, 1]`, support fraction outside `(0, 1]`) are rejected
    /// with a typed [`crate::SetmError`] when the parameters reach
    /// [`crate::Miner::run`].
    pub fn new(min_support: MinSupport, min_confidence: f64) -> Self {
        MiningParams { min_support, min_confidence, max_pattern_len: None }
    }

    /// The worked example's parameters (Section 4.2): 30% support, 70%
    /// confidence.
    pub fn paper_example() -> Self {
        MiningParams::new(MinSupport::Fraction(0.30), 0.70)
    }

    /// Cap the maximum pattern length (`0` is rejected at run time).
    pub fn with_max_len(mut self, k: usize) -> Self {
        self.max_pattern_len = Some(k);
        self
    }

    /// Check the parameters, reporting the same typed errors every
    /// validating entry point ([`crate::Miner::run`],
    /// [`crate::Miner::by_class`]) surfaces. The low-level per-backend
    /// `execute` functions skip this and assume validated input.
    pub fn validate(&self) -> Result<(), crate::error::SetmError> {
        use crate::error::SetmError;
        if let MinSupport::Fraction(f) = self.min_support {
            if !self.min_support.is_valid() {
                return Err(SetmError::InvalidSupportFraction { fraction: f });
            }
        }
        let c = self.min_confidence;
        if !c.is_finite() || !(0.0..=1.0).contains(&c) {
            return Err(SetmError::InvalidConfidence { confidence: c });
        }
        if self.max_pattern_len == Some(0) {
            return Err(SetmError::InvalidMaxPatternLen);
        }
        Ok(())
    }
}

/// A basket database: the `SALES` relation in `(trans_id, item)` order
/// plus transaction boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataset {
    /// Row-aligned columns, sorted by `(tid, item)`, unique.
    tids: Vec<TransId>,
    items: Vec<Item>,
    /// `offsets[t]..offsets[t+1]` is the row range of transaction `t`.
    offsets: Vec<u32>,
}

impl Dataset {
    /// Build from `(trans_id, item)` pairs in any order; duplicates are
    /// dropped (an item appears at most once per transaction).
    pub fn from_pairs<I: IntoIterator<Item = (TransId, Item)>>(pairs: I) -> Self {
        let mut rows: Vec<(TransId, Item)> = pairs.into_iter().collect();
        rows.sort_unstable();
        rows.dedup();
        let mut tids = Vec::with_capacity(rows.len());
        let mut items = Vec::with_capacity(rows.len());
        let mut offsets = vec![0u32];
        for (i, &(t, it)) in rows.iter().enumerate() {
            if i > 0 && t != rows[i - 1].0 {
                offsets.push(i as u32);
            }
            tids.push(t);
            items.push(it);
        }
        offsets.push(rows.len() as u32);
        if rows.is_empty() {
            offsets = vec![0];
        }
        Dataset { tids, items, offsets }
    }

    /// Build from explicit transactions (`tid`, item list).
    pub fn from_transactions<'a, I>(txns: I) -> Self
    where
        I: IntoIterator<Item = (TransId, &'a [Item])>,
    {
        Dataset::from_pairs(
            txns.into_iter().flat_map(|(tid, items)| items.iter().map(move |&it| (tid, it))),
        )
    }

    /// Number of transactions (distinct `trans_id`s).
    pub fn n_transactions(&self) -> u64 {
        (self.offsets.len() - 1) as u64
    }

    /// Number of `SALES` rows (line items) — the paper's `|R_1|`.
    pub fn n_rows(&self) -> u64 {
        self.tids.len() as u64
    }

    /// Average items per transaction.
    pub fn avg_transaction_len(&self) -> f64 {
        if self.n_transactions() == 0 {
            0.0
        } else {
            self.n_rows() as f64 / self.n_transactions() as f64
        }
    }

    /// Number of distinct items.
    pub fn n_distinct_items(&self) -> u64 {
        let mut items = self.items.clone();
        items.sort_unstable();
        items.dedup();
        items.len() as u64
    }

    /// The `tids` column (sorted by `(tid, item)`).
    pub fn tids(&self) -> &[TransId] {
        &self.tids
    }

    /// The `items` column (row-aligned with [`Dataset::tids`]).
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Transaction boundaries: transaction `t` holds rows
    /// `offsets[t]..offsets[t + 1]`.
    pub(crate) fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Iterate `(trans_id, item)` rows in `(tid, item)` order.
    pub fn iter_rows(&self) -> impl Iterator<Item = (TransId, Item)> + '_ {
        self.tids.iter().copied().zip(self.items.iter().copied())
    }

    /// Iterate transactions as `(tid, sorted item slice)`.
    pub fn transactions(&self) -> impl Iterator<Item = (TransId, &[Item])> + '_ {
        (0..self.offsets.len() - 1).map(|s| self.transaction(s))
    }

    /// The `s`-th transaction in `trans_id` order, as `(tid, sorted item
    /// slice)`.
    #[inline]
    pub fn transaction(&self, s: usize) -> (TransId, &[Item]) {
        let (a, b) = (self.offsets[s] as usize, self.offsets[s + 1] as usize);
        (self.tids[a], &self.items[a..b])
    }

    /// Rows as 2-column `u32` records, for loading into the engine's
    /// `SALES` table.
    pub fn sales_rows(&self) -> Vec<[u32; 2]> {
        self.iter_rows().map(|(t, i)| [t, i]).collect()
    }

    /// Brute-force support count of an itemset (sorted, unique): the
    /// number of transactions containing every item. Used as the testing
    /// oracle; O(rows).
    pub fn support_of(&self, itemset: &[Item]) -> u64 {
        debug_assert!(itemset.windows(2).all(|w| w[0] < w[1]), "itemset must be sorted+unique");
        self.transactions()
            .filter(|(_, items)| itemset.iter().all(|needle| items.binary_search(needle).is_ok()))
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::from_transactions([
            (10, [1u32, 2, 3].as_slice()),
            (20, [1, 2, 4].as_slice()),
            (30, [2, 3].as_slice()),
        ])
    }

    #[test]
    fn rows_are_sorted_and_unique() {
        let d = Dataset::from_pairs([(2, 5), (1, 9), (1, 3), (1, 9), (2, 1)]);
        let rows: Vec<_> = d.iter_rows().collect();
        assert_eq!(rows, vec![(1, 3), (1, 9), (2, 1), (2, 5)]);
        assert_eq!(d.n_transactions(), 2);
        assert_eq!(d.n_rows(), 4);
    }

    #[test]
    fn transactions_iterate_groupwise() {
        let d = sample();
        let txns: Vec<(u32, Vec<u32>)> = d.transactions().map(|(t, i)| (t, i.to_vec())).collect();
        assert_eq!(txns, vec![(10, vec![1, 2, 3]), (20, vec![1, 2, 4]), (30, vec![2, 3])]);
    }

    #[test]
    fn statistics() {
        let d = sample();
        assert_eq!(d.n_transactions(), 3);
        assert_eq!(d.n_rows(), 8);
        assert_eq!(d.n_distinct_items(), 4);
        assert!((d.avg_transaction_len() - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::from_pairs(std::iter::empty());
        assert_eq!(d.n_transactions(), 0);
        assert_eq!(d.n_rows(), 0);
        assert_eq!(d.avg_transaction_len(), 0.0);
        assert_eq!(d.transactions().count(), 0);
    }

    #[test]
    fn support_counting_oracle() {
        let d = sample();
        assert_eq!(d.support_of(&[1]), 2);
        assert_eq!(d.support_of(&[2]), 3);
        assert_eq!(d.support_of(&[1, 2]), 2);
        assert_eq!(d.support_of(&[2, 3]), 2);
        assert_eq!(d.support_of(&[1, 2, 3]), 1);
        assert_eq!(d.support_of(&[4, 9]), 0);
    }

    #[test]
    fn min_support_resolution() {
        assert_eq!(MinSupport::Count(3).to_count(10), 3);
        assert_eq!(MinSupport::Count(0).to_count(10), 1, "zero clamps to 1");
        // The worked example: 30% of 10 transactions = 3.
        assert_eq!(MinSupport::Fraction(0.30).to_count(10), 3);
        // Section 3.2: 0.5% of 200,000 = 1,000.
        assert_eq!(MinSupport::Fraction(0.005).to_count(200_000), 1000);
        // Fractions round up.
        assert_eq!(MinSupport::Fraction(0.001).to_count(46_873), 47);
    }

    #[test]
    fn invalid_fractions_do_not_panic_and_fail_validation() {
        // Resolution is total — validation happens at the Miner facade.
        assert_eq!(MinSupport::Fraction(1.5).to_count(10), 15);
        assert_eq!(MinSupport::Fraction(-0.5).to_count(10), 1);
        assert!(!MinSupport::Fraction(1.5).is_valid());
        assert!(!MinSupport::Fraction(0.0).is_valid());
        assert!(!MinSupport::Fraction(f64::NAN).is_valid());
        assert!(MinSupport::Fraction(1.0).is_valid());
        assert!(MinSupport::Count(0).is_valid(), "counts clamp instead");
    }

    #[test]
    fn params_builders() {
        let p = MiningParams::paper_example();
        assert_eq!(p.min_support, MinSupport::Fraction(0.30));
        assert_eq!(p.min_confidence, 0.70);
        assert_eq!(p.max_pattern_len, None);
        let p = p.with_max_len(2);
        assert_eq!(p.max_pattern_len, Some(2));
    }
}
