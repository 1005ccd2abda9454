//! Model parameters: the database system and the hypothetical workload.

/// Database-system constants (Section 3.2, first paragraph of the
/// analysis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbParams {
    /// Physical page size in bytes ("Page size is 4 Kbytes").
    pub page_bytes: u64,
    /// Usable payload per page. The paper's arithmetic consistently uses
    /// 4,000 ("assuming little overhead").
    pub usable_page_bytes: u64,
    /// Bytes per column value ("each item and transaction id is
    /// represented using 4 bytes").
    pub value_bytes: u64,
    /// Bytes per child pointer in internal index nodes.
    pub pointer_bytes: u64,
    /// Cost of a random page fetch in milliseconds ("about 20 ms").
    pub random_ms: f64,
    /// Cost of a sequential page access in milliseconds ("10 ms").
    pub seq_ms: f64,
}

impl DbParams {
    /// The paper's constants.
    pub fn paper() -> Self {
        DbParams {
            page_bytes: 4096,
            usable_page_bytes: 4000,
            value_bytes: 4,
            pointer_bytes: 4,
            random_ms: 20.0,
            seq_ms: 10.0,
        }
    }

    /// Pages needed to store `n_tuples` of `tuple_bytes` each.
    pub fn pages_for(&self, n_tuples: u64, tuple_bytes: u64) -> u64 {
        (n_tuples * tuple_bytes).div_ceil(self.usable_page_bytes)
    }
}

impl Default for DbParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// The hypothetical retailing database of Section 3.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadParams {
    /// Distinct items ("1000 different items that can be sold").
    pub n_items: u64,
    /// Customer transactions ("200,000 customer transactions").
    pub n_txns: u64,
    /// Average items per transaction ("average number of items sold in a
    /// transaction is 10").
    pub avg_txn_len: f64,
    /// Minimum support as a fraction ("0.5% of the total number of
    /// transactions", i.e. 1000 transactions).
    pub min_support_frac: f64,
}

impl WorkloadParams {
    /// The paper's hypothetical database.
    pub fn paper() -> Self {
        WorkloadParams {
            n_items: 1000,
            n_txns: 200_000,
            avg_txn_len: 10.0,
            min_support_frac: 0.005,
        }
    }

    /// `SALES` rows: transactions × average length.
    pub fn n_rows(&self) -> u64 {
        (self.n_txns as f64 * self.avg_txn_len).round() as u64
    }

    /// Probability an item appears in a given transaction under the
    /// uniform model ("the chance of an item appearing in a particular
    /// transaction is 1%").
    pub fn item_selectivity(&self) -> f64 {
        self.avg_txn_len / self.n_items as f64
    }

    /// Minimum support in transactions.
    pub fn min_support_count(&self) -> u64 {
        (self.min_support_frac * self.n_txns as f64).ceil() as u64
    }

    /// Expected tuples of `R'_i` under the worst case where the support
    /// filter removes nothing: `C(avg_txn_len, i) * n_txns`
    /// (Section 4.3: "the cardinality of R_i is (10 choose i) x 200,000").
    pub fn r_tuples(&self, i: u32) -> u64 {
        (choose(self.avg_txn_len.round() as u64, i as u64) as f64 * self.n_txns as f64) as u64
    }
}

impl Default for WorkloadParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// Binomial coefficient (saturating; inputs here are tiny).
pub fn choose(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut num: u128 = 1;
    let mut den: u128 = 1;
    for i in 0..k {
        num *= (n - i) as u128;
        den *= (i + 1) as u128;
    }
    (num / den) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workload_constants() {
        let w = WorkloadParams::paper();
        assert_eq!(w.n_rows(), 2_000_000, "about 2 million tuples");
        assert!((w.item_selectivity() - 0.01).abs() < 1e-12, "1% selectivity");
        assert_eq!(w.min_support_count(), 1000, "0.5% of 200,000");
    }

    #[test]
    fn r_tuple_cardinalities_match_section_4_3() {
        let w = WorkloadParams::paper();
        assert_eq!(w.r_tuples(1), 2_000_000); // (10 choose 1) x 200,000
        assert_eq!(w.r_tuples(2), 9_000_000); // (10 choose 2) x 200,000
        assert_eq!(w.r_tuples(3), 24_000_000); // (10 choose 3) x 200,000
    }

    #[test]
    fn page_arithmetic_matches_paper() {
        let db = DbParams::paper();
        let w = WorkloadParams::paper();
        // ||R1|| = 4,000 and ||R2|| = 27,000 (Section 4.3).
        assert_eq!(db.pages_for(w.r_tuples(1), 8), 4_000);
        assert_eq!(db.pages_for(w.r_tuples(2), 12), 27_000);
    }

    #[test]
    fn binomials() {
        assert_eq!(choose(10, 2), 45);
        assert_eq!(choose(10, 0), 1);
        assert_eq!(choose(10, 10), 1);
        assert_eq!(choose(3, 5), 0);
        assert_eq!(choose(52, 5), 2_598_960);
    }
}
