//! The paper's worked example (Section 4.2, Figures 1–3, Section 5).
//!
//! Ten transactions of three items each over items A–H, mined at 30%
//! minimum support (3 transactions) and 70% minimum confidence. The
//! transaction table below is reconstructed from Figure 1 and verified
//! against every count and rule the paper reports (|A| = 6, |B| = 4, the
//! eight C₂ rules, the three C₃ rules, C₃ = {DEF: 3}).

use crate::data::{Dataset, Item, MiningParams};
use crate::rules::Rule;

/// Item codes used by the example: `A = 1` through `H = 8`.
pub const A: Item = 1;
pub const B: Item = 2;
pub const C: Item = 3;
pub const D: Item = 4;
pub const E: Item = 5;
pub const F: Item = 6;
pub const G: Item = 7;
pub const H: Item = 8;

/// The ten customer transactions of Figure 1.
pub const TRANSACTIONS: [(u32, [Item; 3]); 10] = [
    (10, [A, B, C]),
    (20, [A, B, D]),
    (30, [A, B, C]),
    (40, [B, C, D]),
    (50, [A, C, G]),
    (60, [A, D, G]),
    (70, [A, E, H]),
    (80, [D, E, F]),
    (90, [D, E, F]),
    (99, [D, E, F]),
];

/// The Figure 1 dataset.
pub fn paper_example_dataset() -> Dataset {
    Dataset::from_transactions(TRANSACTIONS.iter().map(|(tid, items)| (*tid, items.as_slice())))
}

/// The example's parameters: 30% support, 70% confidence.
pub fn paper_example_params() -> MiningParams {
    MiningParams::paper_example()
}

/// The letter the paper uses for an item code (`1 -> 'A'`, ...).
pub fn item_letter(item: Item) -> char {
    if (1..=26).contains(&item) {
        (b'A' + (item as u8 - 1)) as char
    } else {
        '?'
    }
}

/// Render a rule in the paper's Section 5 style, e.g.
/// `B ==> A, [75.0%, 30.0%]` (confidence first, support second).
pub fn format_rule_lettered(rule: &Rule) -> String {
    let antecedent: Vec<String> =
        rule.antecedent.iter().map(|&i| item_letter(i).to_string()).collect();
    format!(
        "{} ==> {}, [{:.1}%, {:.1}%]",
        antecedent.join(" "),
        item_letter(rule.consequent),
        rule.confidence * 100.0,
        rule.support * 100.0
    )
}

/// The eleven rules of Section 5 in the paper's enumeration order,
/// rendered uniformly as `[confidence, support]`.
pub fn expected_rules() -> Vec<&'static str> {
    vec![
        // From C2:
        "B ==> A, [75.0%, 30.0%]",
        "C ==> A, [75.0%, 30.0%]",
        "B ==> C, [75.0%, 30.0%]",
        "C ==> B, [75.0%, 30.0%]",
        "E ==> D, [75.0%, 30.0%]",
        "F ==> D, [100.0%, 30.0%]",
        "E ==> F, [75.0%, 30.0%]",
        "F ==> E, [100.0%, 30.0%]",
        // From C3 (the paper prints these as [support, confidence]; we
        // normalize to [confidence, support]):
        "D E ==> F, [100.0%, 30.0%]",
        "D F ==> E, [100.0%, 30.0%]",
        "E F ==> D, [100.0%, 30.0%]",
    ]
}

/// The expected `C_1` contents: every item with support ≥ 3.
pub fn expected_c1() -> Vec<(Item, u64)> {
    vec![(A, 6), (B, 4), (C, 4), (D, 6), (E, 4), (F, 3)]
}

/// The expected `C_2` contents (Figure 2).
pub fn expected_c2() -> Vec<([Item; 2], u64)> {
    vec![([A, B], 3), ([A, C], 3), ([B, C], 3), ([D, E], 3), ([D, F], 3), ([E, F], 3)]
}

/// The expected `C_3` contents (Figure 3).
pub fn expected_c3() -> Vec<([Item; 3], u64)> {
    vec![([D, E, F], 3)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::generate_rules;
    use crate::setm;

    #[test]
    fn dataset_statistics_match_figure_1() {
        let d = paper_example_dataset();
        assert_eq!(d.n_transactions(), 10);
        assert_eq!(d.n_rows(), 30, "ten transactions of three items");
        // The supports quoted in Section 5.
        assert_eq!(d.support_of(&[A]), 6);
        assert_eq!(d.support_of(&[B]), 4);
        assert_eq!(d.support_of(&[A, B]), 3);
        assert_eq!(d.support_of(&[D, E, F]), 3);
    }

    #[test]
    fn mining_reproduces_figures_1_through_3() {
        let d = paper_example_dataset();
        let result = setm::memory::execute(&d, &paper_example_params(), &Default::default());
        let c1: Vec<(u32, u64)> = result.c(1).unwrap().iter().map(|(p, n)| (p[0], n)).collect();
        assert_eq!(c1, expected_c1());
        let c2: Vec<([u32; 2], u64)> =
            result.c(2).unwrap().iter().map(|(p, n)| ([p[0], p[1]], n)).collect();
        assert_eq!(c2, expected_c2());
        let c3: Vec<([u32; 3], u64)> =
            result.c(3).unwrap().iter().map(|(p, n)| ([p[0], p[1], p[2]], n)).collect();
        assert_eq!(c3, expected_c3());
        assert_eq!(result.max_pattern_len(), 3);
        // The algorithm terminates with R_4 empty.
        assert_eq!(result.trace.last().unwrap().r_tuples, 0);
    }

    #[test]
    fn intermediate_relations_match_section_4_2() {
        let d = paper_example_dataset();
        let result = setm::memory::execute(&d, &paper_example_params(), &Default::default());
        // |R_1| = 30 line items.
        assert_eq!(result.trace[0].r_tuples, 30);
        // R'_2: every lexicographic pair within a transaction: 3 per txn.
        assert_eq!(result.trace[1].r_prime_tuples, 30);
        // R_2: tuples of supported pairs: 6 patterns x 3 transactions.
        assert_eq!(result.trace[1].r_tuples, 18);
        // R'_3: {10 ABC, 20 ABD, 30 ABC, 40 BCD, 50 ACG, 80/90/99 DEF}.
        assert_eq!(result.trace[2].r_prime_tuples, 8);
        // R_3: only the three DEF tuples survive.
        assert_eq!(result.trace[2].r_tuples, 3);
    }

    #[test]
    fn rules_match_section_5_exactly() {
        let d = paper_example_dataset();
        let result = setm::memory::execute(&d, &paper_example_params(), &Default::default());
        let rules = generate_rules(&result, 0.70);
        let rendered: Vec<String> = rules.iter().map(format_rule_lettered).collect();
        assert_eq!(rendered, expected_rules());
    }

    #[test]
    fn rejected_rule_a_implies_b() {
        // Section 5 spells out why A ==> B does not qualify: 3/6 = 50%.
        let d = paper_example_dataset();
        let result = setm::memory::execute(&d, &paper_example_params(), &Default::default());
        let rules = generate_rules(&result, 0.0);
        let a_b =
            rules.iter().find(|r| r.antecedent.as_slice() == [A] && r.consequent == B).unwrap();
        assert!((a_b.confidence - 0.5).abs() < 1e-12);
        let at_70 = generate_rules(&result, 0.70);
        assert!(!at_70.iter().any(|r| r.antecedent.as_slice() == [A] && r.consequent == B));
    }

    #[test]
    fn letters() {
        assert_eq!(item_letter(A), 'A');
        assert_eq!(item_letter(H), 'H');
        assert_eq!(item_letter(26), 'Z');
        assert_eq!(item_letter(0), '?');
        assert_eq!(item_letter(27), '?');
    }
}
