//! The Section 4.3 SETM cost bound.
//!
//! Worst case: the support filter eliminates nothing (`R_i = R'_i`) and
//! patterns of length `n` are the first unsupported ones (`R_n` empty).
//! The paper's accounting, reconstructed so that its own worked number
//! (3·‖R₁‖ + 4·‖R₂‖ = 120,000 for n = 3) comes out exactly:
//!
//! * each of the `n−1` merge-scan passes reads `R₁` as its `q` side, and
//!   pass 2's `p` side is `R₁` too — `n·‖R₁‖` in total;
//! * passes 3..n read `R_2 .. R_{n-1}` as their `p` sides;
//! * each pass writes its output `R'_k`;
//! * each non-empty `R'_k` is "read again, sorted, and written out" —
//!   `2·‖R'_k‖` (runs are generated and merged in pipelining mode);
//! * `C_k` relations never touch disk ("small enough to be kept in
//!   memory").

use crate::params::{DbParams, WorkloadParams};

/// Cost breakdown of a full SETM run under the worst-case bound.
#[derive(Debug, Clone, PartialEq)]
pub struct SetmCost {
    /// First pattern length with no support (the paper's `n`); the run
    /// makes `n - 1` merge-scan passes.
    pub n: u32,
    /// `‖R_i‖` in pages for i = 1..n-1 (index 0 is `‖R₁‖`).
    pub r_pages: Vec<u64>,
    /// Total page accesses.
    pub page_accesses: u64,
    /// Estimated time in seconds (all accesses sequential).
    pub time_s: f64,
}

/// Price an n-pass SETM run under the uniform model.
pub fn setm_cost(w: &WorkloadParams, db: &DbParams, n: u32) -> SetmCost {
    assert!(n >= 2, "the loop makes at least one pass");
    let r_pages: Vec<u64> =
        (1..n).map(|i| db.pages_for(w.r_tuples(i), (i as u64 + 1) * db.value_bytes)).collect();
    let r1 = r_pages[0];
    // n reads of R1 (q side of every pass + p side of pass 2).
    let mut accesses = n as u64 * r1;
    // p-side reads of R_2 .. R_{n-1}.
    accesses += r_pages[1..].iter().sum::<u64>();
    // Writing each R'_k (k = 2..n; R'_n is empty) plus its sort (read +
    // write): 3 accesses per page of each intermediate.
    accesses += 3 * r_pages[1..].iter().sum::<u64>();
    let time_s = accesses as f64 * db.seq_ms / 1000.0;
    SetmCost { n, r_pages, page_accesses: accesses, time_s }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nested_loop::nested_loop_c2_cost;

    #[test]
    fn reproduces_the_paper_numbers() {
        // Section 4.3, with R3 empty (n = 3): "||R1|| = 4,000 and
        // ||R2|| = 27,000. The number of page accesses is thus:
        // 3 x 4,000 + 4 x 27,000 = 120,000".
        let cost = setm_cost(&WorkloadParams::paper(), &DbParams::paper(), 3);
        assert_eq!(cost.r_pages, vec![4_000, 27_000]);
        assert_eq!(cost.page_accesses, 120_000);
        // 120,000 x 10 ms = 1,200 seconds. (The paper calls this "10
        // minutes"; it is 20 — the conclusion is unaffected.)
        assert!((cost.time_s - 1_200.0).abs() < 1e-9);
    }

    #[test]
    fn setm_beats_nested_loop_by_about_34x() {
        let w = WorkloadParams::paper();
        let db = DbParams::paper();
        let nl = nested_loop_c2_cost(&w, &db);
        let sm = setm_cost(&w, &db, 3);
        let speedup = nl.time_s / sm.time_s;
        assert!(
            (30.0..40.0).contains(&speedup),
            "expected ~34x (the paper's 11 hours vs minutes), got {speedup:.1}x"
        );
        // And even ignoring random-vs-sequential, 17x fewer accesses.
        let access_ratio = nl.page_fetches as f64 / sm.page_accesses as f64;
        assert!(access_ratio > 15.0);
    }

    #[test]
    fn longer_runs_accumulate_intermediate_cost() {
        let w = WorkloadParams::paper();
        let db = DbParams::paper();
        let n3 = setm_cost(&w, &db, 3);
        let n4 = setm_cost(&w, &db, 4);
        assert!(n4.page_accesses > n3.page_accesses);
        // ||R3|| = 24,000,000 tuples x 16 bytes / 4000 = 96,000 pages.
        assert_eq!(n4.r_pages[2], 96_000);
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn n_below_two_is_rejected() {
        setm_cost(&WorkloadParams::paper(), &DbParams::paper(), 1);
    }
}
