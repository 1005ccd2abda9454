//! Rule generation (Section 5 of the paper).
//!
//! "For any pattern of length k, we consider all possible combinations of
//! k − 1 items in the antecedent. The remaining item not used in the
//! combinations is in the consequent. For each combination of antecedent
//! and consequent, we check if the confidence factor meets or exceeds the
//! minimum confidence factor desired." The antecedent count comes from the
//! previous count relation `C_{k-1}`, the pattern count from `C_k`.
//!
//! Output note: the paper prints rules as `X ==> I, [c, s]` in Section 5's
//! first listing (confidence first, support second) but swaps the two in
//! its `C_3` listing. We emit `[confidence, support]` uniformly; the
//! discrepancy is recorded in docs/REPRODUCTION.md (Design notes §1).

use crate::data::Item;
use crate::itemvec::ItemVec;
use crate::setm::SetmResult;
use std::fmt;

/// An association rule `antecedent ⇒ consequent` with its statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The `k-1` antecedent items, in lexicographic order.
    pub antecedent: ItemVec,
    /// The single consequent item.
    pub consequent: Item,
    /// Transactions supporting the full pattern (antecedent ∪ consequent).
    pub support_count: u64,
    /// `support_count / n_transactions`.
    pub support: f64,
    /// `support(pattern) / support(antecedent)` (Section 2).
    pub confidence: f64,
}

impl Rule {
    /// The full pattern (antecedent plus consequent, sorted).
    pub fn pattern(&self) -> ItemVec {
        let mut items: Vec<Item> = self.antecedent.as_slice().to_vec();
        items.push(self.consequent);
        items.sort_unstable();
        ItemVec::from_slice(&items)
    }
}

impl fmt::Display for Rule {
    /// Numeric form, e.g. `4 5 ==> 6, [100.0%, 30.0%]`. For the paper's
    /// lettered rendering see `example::format_rule_lettered`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, item) in self.antecedent.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{item}")?;
        }
        write!(
            f,
            " ==> {}, [{:.1}%, {:.1}%]",
            self.consequent,
            self.confidence * 100.0,
            self.support * 100.0
        )
    }
}

/// Generate all rules meeting `min_confidence` from a mining result.
///
/// Enumeration order matches the paper's listings: patterns in
/// lexicographic order per length, and within a pattern the antecedent
/// combinations in lexicographic order (equivalently, consequent positions
/// from last to first).
pub fn generate_rules(result: &SetmResult, min_confidence: f64) -> Vec<Rule> {
    let mut rules = Vec::new();
    let n = result.n_transactions.max(1) as f64;
    for k in 2..=result.max_pattern_len() {
        let (Some(ck), Some(ck1)) = (result.c(k), result.c(k - 1)) else { continue };
        for (pattern, count) in ck.iter() {
            let pattern = ItemVec::from_slice(pattern);
            for consequent_idx in (0..k).rev() {
                let antecedent = pattern.without_index(consequent_idx);
                let Some(ante_count) = ck1.get(antecedent.as_slice()) else {
                    // Every sub-pattern of a supported pattern is itself
                    // supported (anti-monotonicity), so C_{k-1} must
                    // contain it; absence means the result is corrupt.
                    unreachable!("antecedent {antecedent:?} missing from C_{}", k - 1);
                };
                let confidence = count as f64 / ante_count as f64;
                if confidence >= min_confidence {
                    rules.push(Rule {
                        antecedent,
                        consequent: pattern[consequent_idx],
                        support_count: count,
                        support: count as f64 / n,
                        confidence,
                    });
                }
            }
        }
    }
    rules
}

/// Generate rules from a *constraint-anchored* mining result (see
/// `crate::constraints`): the count relations live in mining space,
/// where the `m = anchor_len` required items are `0..m-1` and every
/// pattern in `C_k` (for `k ≥ m`) starts with them.
///
/// Anchored positions can never host a consequent — a required item
/// belongs to the antecedent by definition — so consequent positions
/// range over `m..k` only, which also guarantees every antecedent keeps
/// the full anchor prefix and is therefore present in the anchored
/// `C_{k-1}` (same anti-monotonicity argument as [`generate_rules`],
/// restricted to the anchored universe). Rule-head `targets` and the
/// minimum pattern length are applied here, post-counting: targets are
/// deliberately *not* pushed into candidate generation because the
/// antecedent of a targeted rule is itself target-free, so its count
/// would be lost (REPRODUCTION.md Design notes §14).
///
/// Emitted rules are in mining space and in anchored enumeration order;
/// the [`crate::Miner`] facade un-maps the items and re-sorts to match
/// [`generate_rules`]'s paper order exactly.
pub fn generate_constrained_rules(
    result: &SetmResult,
    min_confidence: f64,
    plan: &crate::constraints::ConstraintPlan,
) -> Vec<Rule> {
    let anchor = plan.compiled().anchor_len();
    let targets = plan.targets();
    let mut rules = Vec::new();
    let n = result.n_transactions.max(1) as f64;
    let k_min = 2.max(plan.min_rule_len()).max(anchor + 1);
    for k in k_min..=result.max_pattern_len() {
        let (Some(ck), Some(ck1)) = (result.c(k), result.c(k - 1)) else { continue };
        for (pattern, count) in ck.iter() {
            let pattern = ItemVec::from_slice(pattern);
            for consequent_idx in (anchor..k).rev() {
                let consequent = pattern[consequent_idx];
                if !targets.is_empty() && targets.binary_search(&consequent).is_err() {
                    continue;
                }
                let antecedent = pattern.without_index(consequent_idx);
                let Some(ante_count) = ck1.get(antecedent.as_slice()) else {
                    unreachable!("antecedent {antecedent:?} missing from anchored C_{}", k - 1);
                };
                let confidence = count as f64 / ante_count as f64;
                if confidence >= min_confidence {
                    rules.push(Rule {
                        antecedent,
                        consequent,
                        support_count: count,
                        support: count as f64 / n,
                        confidence,
                    });
                }
            }
        }
    }
    rules
}

/// A rule with a possibly multi-item consequent — the Agrawal–Srikant
/// (VLDB'94) generalization of the paper's single-consequent rules,
/// provided as an extension.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtendedRule {
    pub antecedent: ItemVec,
    pub consequent: ItemVec,
    pub support_count: u64,
    pub support: f64,
    pub confidence: f64,
}

impl fmt::Display for ExtendedRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side =
            |items: &ItemVec| items.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(" ");
        write!(
            f,
            "{} ==> {}, [{:.1}%, {:.1}%]",
            side(&self.antecedent),
            side(&self.consequent),
            self.confidence * 100.0,
            self.support * 100.0
        )
    }
}

/// Generate rules with consequents of any size (1 ≤ |Y| < k) from every
/// supported pattern: for pattern `p`, every non-empty proper subset `Y`
/// is a candidate consequent with antecedent `p \ Y` and confidence
/// `supp(p) / supp(p \ Y)`.
///
/// Patterns are short (the paper's data tops out at length 4), so the
/// `2^k − 2` subset enumeration is exact and cheap; the ap-genrules
/// confidence pruning would only matter for much longer patterns.
pub fn generate_extended_rules(result: &SetmResult, min_confidence: f64) -> Vec<ExtendedRule> {
    let mut rules = Vec::new();
    let n = result.n_transactions.max(1) as f64;
    for k in 2..=result.max_pattern_len() {
        let Some(ck) = result.c(k) else { continue };
        assert!(k < 32, "pattern too long for subset enumeration");
        for (pattern, count) in ck.iter() {
            // Iterate antecedent masks; the consequent is the complement.
            for mask in 1u32..(1 << k) - 1 {
                let ante_len = mask.count_ones() as usize;
                let Some(c_ante) = result.c(ante_len) else { continue };
                let mut antecedent = ItemVec::new();
                let mut consequent = ItemVec::new();
                for (i, &item) in pattern.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        antecedent.push(item);
                    } else {
                        consequent.push(item);
                    }
                }
                let Some(ante_count) = c_ante.get(antecedent.as_slice()) else {
                    unreachable!("sub-pattern {antecedent:?} missing from C_{ante_len}")
                };
                let confidence = count as f64 / ante_count as f64;
                if confidence >= min_confidence {
                    rules.push(ExtendedRule {
                        antecedent,
                        consequent,
                        support_count: count,
                        support: count as f64 / n,
                        confidence,
                    });
                }
            }
        }
    }
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, MinSupport, MiningParams};
    use crate::setm;

    fn mined() -> SetmResult {
        let d = Dataset::from_transactions([
            (1, [1u32, 2, 3].as_slice()),
            (2, [1, 2, 3].as_slice()),
            (3, [1, 2].as_slice()),
            (4, [3].as_slice()),
        ]);
        let params = MiningParams::new(MinSupport::Count(2), 0.0);
        setm::memory::execute(&d, &params, &Default::default())
    }

    #[test]
    fn confidence_is_pattern_over_antecedent() {
        let r = mined();
        let rules = generate_rules(&r, 0.0);
        // {1,2} count 3; antecedent {1} count 3 -> 1 ==> 2 @ 100%.
        let rule =
            rules.iter().find(|r| r.antecedent.as_slice() == [1] && r.consequent == 2).unwrap();
        assert!((rule.confidence - 1.0).abs() < 1e-12);
        assert_eq!(rule.support_count, 3);
        assert!((rule.support - 0.75).abs() < 1e-12);
        // {1,3} count 2; antecedent {3} count 3 -> 3 ==> 1 @ 2/3.
        let rule =
            rules.iter().find(|r| r.antecedent.as_slice() == [3] && r.consequent == 1).unwrap();
        assert!((rule.confidence - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn min_confidence_filters() {
        let r = mined();
        let all = generate_rules(&r, 0.0);
        let strict = generate_rules(&r, 1.0);
        assert!(strict.len() < all.len());
        assert!(strict.iter().all(|rule| rule.confidence >= 1.0));
        // Threshold is inclusive ("meets or exceeds"): rules at exactly
        // 2/3 confidence survive a 2/3 threshold.
        let at_boundary = generate_rules(&r, 2.0 / 3.0);
        assert!(at_boundary.iter().any(|rule| (rule.confidence - 2.0 / 3.0).abs() < 1e-12));
    }

    #[test]
    fn rules_from_length_three_patterns_use_pair_antecedents() {
        let r = mined();
        let rules = generate_rules(&r, 0.0);
        let rule =
            rules.iter().find(|r| r.antecedent.as_slice() == [1, 2] && r.consequent == 3).unwrap();
        // {1,2,3} count 2, {1,2} count 3.
        assert!((rule.confidence - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(rule.pattern().as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn enumeration_order_is_paper_order() {
        let r = mined();
        let rules = generate_rules(&r, 0.0);
        // Within pattern {1,2}: antecedent {1} before antecedent {2}.
        let i12 =
            rules.iter().position(|r| r.antecedent.as_slice() == [1] && r.consequent == 2).unwrap();
        let i21 =
            rules.iter().position(|r| r.antecedent.as_slice() == [2] && r.consequent == 1).unwrap();
        assert!(i12 < i21);
    }

    #[test]
    fn display_format_matches_paper_style() {
        let rule = Rule {
            antecedent: ItemVec::from([4, 5]),
            consequent: 6,
            support_count: 3,
            support: 0.30,
            confidence: 1.0,
        };
        assert_eq!(rule.to_string(), "4 5 ==> 6, [100.0%, 30.0%]");
    }

    #[test]
    fn no_rules_from_singleton_only_results() {
        let d = Dataset::from_transactions([(1, [1u32].as_slice()), (2, [2].as_slice())]);
        let params = MiningParams::new(MinSupport::Count(1), 0.0);
        let r = setm::memory::execute(&d, &params, &Default::default());
        assert!(generate_rules(&r, 0.0).is_empty());
    }

    #[test]
    fn extended_rules_include_multi_item_consequents() {
        let r = mined();
        let ext = generate_rules_at_zero_conf(&r);
        // Pattern {1,2,3}: the rule 1 ==> 2 3 must exist with confidence
        // supp(123)/supp(1) = 2/3.
        let rule = ext
            .iter()
            .find(|r| r.antecedent.as_slice() == [1] && r.consequent.as_slice() == [2, 3])
            .expect("1 ==> 2 3");
        assert!((rule.confidence - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(rule.support_count, 2);
        assert_eq!(rule.to_string(), "1 ==> 2 3, [66.7%, 50.0%]");
    }

    fn generate_rules_at_zero_conf(r: &SetmResult) -> Vec<ExtendedRule> {
        generate_extended_rules(r, 0.0)
    }

    #[test]
    fn extended_rules_superset_simple_rules() {
        // Every single-consequent rule appears among the extended rules
        // with identical statistics.
        let r = mined();
        let simple = generate_rules(&r, 0.6);
        let ext = generate_extended_rules(&r, 0.6);
        for s in &simple {
            assert!(
                ext.iter().any(|e| e.antecedent == s.antecedent
                    && e.consequent.as_slice() == [s.consequent]
                    && (e.confidence - s.confidence).abs() < 1e-12),
                "missing {s}"
            );
        }
        assert!(ext.len() >= simple.len());
    }

    #[test]
    fn extended_rules_partition_each_pattern() {
        // For a pattern of length k, all 2^k - 2 antecedent/consequent
        // splits are considered at confidence 0.
        let r = mined();
        let ext = generate_rules_at_zero_conf(&r);
        let from_triple: Vec<_> = ext
            .iter()
            .filter(|e| {
                let mut all: Vec<u32> = e.antecedent.as_slice().to_vec();
                all.extend_from_slice(e.consequent.as_slice());
                all.sort_unstable();
                all == [1, 2, 3]
            })
            .collect();
        assert_eq!(from_triple.len(), 6, "2^3 - 2 splits of {{1,2,3}}");
    }
}
