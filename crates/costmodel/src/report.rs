//! Side-by-side comparison report (the Sections 3.2 / 4.3 argument).

use crate::nested_loop::{nested_loop_c2_cost, NestedLoopCost};
use crate::params::{DbParams, WorkloadParams};
use crate::setm::{setm_cost, SetmCost};
use std::fmt;

/// The paper's analytical comparison, ready to print.
#[derive(Debug, Clone)]
pub struct ComparisonReport {
    pub workload: WorkloadParams,
    pub db: DbParams,
    pub nested_loop: NestedLoopCost,
    pub setm: SetmCost,
}

impl ComparisonReport {
    /// Build the comparison for the paper's hypothetical database with
    /// `R_n` the first empty relation (the paper uses n = 3).
    pub fn paper(n: u32) -> Self {
        let workload = WorkloadParams::paper();
        let db = DbParams::paper();
        ComparisonReport {
            nested_loop: nested_loop_c2_cost(&workload, &db),
            setm: setm_cost(&workload, &db, n),
            workload,
            db,
        }
    }

    /// Estimated-time ratio (nested-loop / SETM).
    pub fn speedup(&self) -> f64 {
        self.nested_loop.time_s / self.setm.time_s
    }
}

impl fmt::Display for ComparisonReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Hypothetical database (Section 3.2): {} items, {} transactions, {} items/transaction",
            self.workload.n_items, self.workload.n_txns, self.workload.avg_txn_len
        )?;
        writeln!(
            f,
            "Indexes: (item, trans_id) {} leaf + {} non-leaf pages (L={}); (trans_id) {} leaf + {} non-leaf pages",
            self.nested_loop.item_index.leaf_pages,
            self.nested_loop.item_index.nonleaf_pages,
            self.nested_loop.item_index.levels,
            self.nested_loop.tid_index.leaf_pages,
            self.nested_loop.tid_index.nonleaf_pages,
        )?;
        writeln!(f)?;
        writeln!(
            f,
            "{:<22} {:>14} {:>12} {:>12}",
            "strategy", "page accesses", "type", "est. time"
        )?;
        writeln!(
            f,
            "{:<22} {:>14} {:>12} {:>11.1}h",
            "nested-loop (Sec. 3)",
            self.nested_loop.page_fetches,
            "random",
            self.nested_loop.time_s / 3600.0
        )?;
        writeln!(
            f,
            "{:<22} {:>14} {:>12} {:>10.0}s",
            "SETM (Sec. 4)", self.setm.page_accesses, "sequential", self.setm.time_s
        )?;
        writeln!(f)?;
        write!(f, "SETM advantage: {:.1}x", self.speedup())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_the_headline_numbers() {
        let r = ComparisonReport::paper(3);
        let text = r.to_string();
        assert!(text.contains("2040000"), "nested-loop fetches: {text}");
        assert!(text.contains("120000"), "SETM accesses: {text}");
        assert!(text.contains("4000 leaf + 14 non-leaf"), "{text}");
        assert!(text.contains("2000 leaf + 5 non-leaf"), "{text}");
        assert!(r.speedup() > 30.0);
    }
}
