//! Customer-class mining — the paper's Section 7 future work.
//!
//! "We are investigating extending the algorithm in order to handle
//! additional kinds of mining, e.g., relating association rules to
//! customer classes." This module implements that extension in the same
//! set-oriented style: transactions carry a class label (customer
//! segment, store, region...), SETM runs per class partition, and the
//! results are joined to contrast rule strength across classes.
//!
//! Relationally this is one more `GROUP BY class` ahead of the SETM
//! pipeline — which is exactly why the paper calls the set-oriented
//! formulation "easily extensible".

use crate::data::{Dataset, Item, TransId};
use crate::itemvec::ItemVec;
use crate::rules::Rule;
use std::collections::BTreeMap;

/// A class (segment) label.
pub type ClassId = u32;

/// A basket database whose transactions are partitioned into classes.
#[derive(Debug, Clone)]
pub struct ClassedDataset {
    partitions: BTreeMap<ClassId, Dataset>,
}

impl ClassedDataset {
    /// Build from `(class, trans_id, item)` triples. Transaction ids may
    /// repeat across classes (they are scoped per class).
    pub fn from_labeled_pairs<I: IntoIterator<Item = (ClassId, TransId, Item)>>(
        triples: I,
    ) -> Self {
        let mut grouped: BTreeMap<ClassId, Vec<(TransId, Item)>> = BTreeMap::new();
        for (class, tid, item) in triples {
            grouped.entry(class).or_default().push((tid, item));
        }
        ClassedDataset {
            partitions: grouped
                .into_iter()
                .map(|(class, pairs)| (class, Dataset::from_pairs(pairs)))
                .collect(),
        }
    }

    /// Build by assigning each transaction of `dataset` a class via `f`.
    pub fn partition_by<F: Fn(TransId, &[Item]) -> ClassId>(dataset: &Dataset, f: F) -> Self {
        ClassedDataset::from_labeled_pairs(dataset.transactions().flat_map(|(tid, items)| {
            let class = f(tid, items);
            items.iter().map(move |&it| (class, tid, it)).collect::<Vec<_>>()
        }))
    }

    /// The classes present, in ascending order.
    pub fn classes(&self) -> Vec<ClassId> {
        self.partitions.keys().copied().collect()
    }

    /// The partition for a class.
    pub fn partition(&self, class: ClassId) -> Option<&Dataset> {
        self.partitions.get(&class)
    }

    /// Total transactions across classes.
    pub fn n_transactions(&self) -> u64 {
        self.partitions.values().map(Dataset::n_transactions).sum()
    }

    /// All partitions flattened into one class-blind dataset. Because
    /// transaction ids are scoped per class, each transaction is assigned
    /// a fresh sequential id (classes in ascending order, transactions in
    /// their partition order) — supports and rule statistics are
    /// unaffected, only the ids differ. This is the headline dataset
    /// [`crate::Miner::by_class`] mines before the per-class passes.
    pub fn union_all(&self) -> Dataset {
        let mut next: TransId = 0;
        let mut pairs: Vec<(TransId, Item)> = Vec::new();
        for dataset in self.partitions.values() {
            for (_, items) in dataset.transactions() {
                pairs.extend(items.iter().map(|&it| (next, it)));
                next += 1;
            }
        }
        Dataset::from_pairs(pairs)
    }
}

/// A rule observed in one or more classes, with per-class statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassedRule {
    pub antecedent: ItemVec,
    pub consequent: Item,
    /// `(class, confidence, support_fraction)` for every class where the
    /// rule qualifies, ascending by class.
    pub per_class: Vec<(ClassId, f64, f64)>,
}

impl ClassedRule {
    /// Largest minus smallest confidence across the classes where the
    /// rule qualifies — large gaps are the "interesting" rules of
    /// targeted marketing (Section 1's motivation).
    pub fn confidence_spread(&self) -> f64 {
        let (mut lo, mut hi) = (f64::MAX, f64::MIN);
        for &(_, c, _) in &self.per_class {
            lo = lo.min(c);
            hi = hi.max(c);
        }
        if self.per_class.is_empty() {
            0.0
        } else {
            hi - lo
        }
    }

    /// Whether the rule qualified in every one of the given classes.
    pub fn holds_in_all(&self, classes: &[ClassId]) -> bool {
        classes.iter().all(|c| self.per_class.iter().any(|&(pc, _, _)| pc == *c))
    }
}

/// Outcome of per-class mining.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassedMiningResult {
    /// Per-class rule lists, ascending by class.
    pub by_class: Vec<(ClassId, Vec<Rule>)>,
    /// Rules merged across classes (keyed on antecedent ⇒ consequent).
    pub merged: Vec<ClassedRule>,
}

/// Merge per-class rule lists on (antecedent ⇒ consequent), collecting
/// each rule's `(class, confidence, support)` statistics — the join step
/// of [`crate::Miner::by_class`].
pub(crate) fn merge_class_rules(by_class: &[(ClassId, Vec<Rule>)]) -> Vec<ClassedRule> {
    let mut merged: BTreeMap<(ItemVec, Item), ClassedRule> = BTreeMap::new();
    for (class, rules) in by_class {
        for rule in rules {
            let key = (rule.antecedent.clone(), rule.consequent);
            let entry = merged.entry(key).or_insert_with(|| ClassedRule {
                antecedent: rule.antecedent.clone(),
                consequent: rule.consequent,
                per_class: Vec::new(),
            });
            entry.per_class.push((*class, rule.confidence, rule.support));
        }
    }
    merged.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{MinSupport, MiningParams};
    use crate::rules::generate_rules;
    use crate::setm::{memory, RunSpec};
    use crate::Miner;

    /// Two segments with opposite pair preferences: class 0 buys {1,2}
    /// together, class 1 buys {1,3} together.
    fn two_segments() -> ClassedDataset {
        let mut triples = Vec::new();
        for t in 0..10u32 {
            triples.push((0, t, 1));
            triples.push((0, t, 2));
            if t < 3 {
                triples.push((0, t, 3));
            }
        }
        for t in 0..10u32 {
            triples.push((1, t, 1));
            triples.push((1, t, 3));
            if t < 3 {
                triples.push((1, t, 2));
            }
        }
        ClassedDataset::from_labeled_pairs(triples)
    }

    #[test]
    fn invalid_params_are_typed_errors_here_too() {
        let d = two_segments();
        let bad = MiningParams::new(MinSupport::Fraction(2.0), 0.5);
        assert!(matches!(
            Miner::new(bad).by_class(&d),
            Err(crate::error::SetmError::InvalidSupportFraction { .. })
        ));
        let bad = MiningParams::new(MinSupport::Count(2), -0.5);
        assert!(matches!(
            Miner::new(bad).by_class(&d),
            Err(crate::error::SetmError::InvalidConfidence { .. })
        ));
    }

    #[test]
    fn partitions_are_scoped_per_class() {
        let d = two_segments();
        assert_eq!(d.classes(), vec![0, 1]);
        assert_eq!(d.n_transactions(), 20);
        assert_eq!(d.partition(0).unwrap().n_transactions(), 10);
        assert_eq!(d.partition(0).unwrap().support_of(&[1, 2]), 10);
        assert_eq!(d.partition(1).unwrap().support_of(&[1, 2]), 3);
        assert!(d.partition(9).is_none());
    }

    #[test]
    fn rules_differ_per_class() {
        let d = two_segments();
        let params = MiningParams::new(MinSupport::Fraction(0.5), 0.8);
        let result = Miner::new(params).by_class(&d).unwrap().per_class.unwrap();
        let rules_for = |class: ClassId| -> Vec<String> {
            result
                .by_class
                .iter()
                .find(|(c, _)| *c == class)
                .map(|(_, rules)| rules.iter().map(|r| r.to_string()).collect())
                .unwrap_or_default()
        };
        // Class 0: 1 => 2 at 100%; class 1: 1 => 3 at 100%.
        assert!(rules_for(0).iter().any(|r| r.starts_with("1 ==> 2")));
        assert!(!rules_for(0).iter().any(|r| r.starts_with("1 ==> 3")));
        assert!(rules_for(1).iter().any(|r| r.starts_with("1 ==> 3")));
        assert!(!rules_for(1).iter().any(|r| r.starts_with("1 ==> 2")));
    }

    #[test]
    fn merged_rules_carry_per_class_statistics() {
        let d = two_segments();
        // Low confidence threshold so both classes qualify for 1 => 2.
        let params = MiningParams::new(MinSupport::Fraction(0.3), 0.2);
        let result = Miner::new(params).by_class(&d).unwrap().per_class.unwrap();
        let rule = result
            .merged
            .iter()
            .find(|r| r.antecedent.as_slice() == [1] && r.consequent == 2)
            .expect("1 => 2 exists in both classes");
        assert!(rule.holds_in_all(&[0, 1]));
        assert_eq!(rule.per_class.len(), 2);
        // Class 0 confidence 1.0, class 1 confidence 0.3 -> spread 0.7.
        assert!((rule.confidence_spread() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn partition_by_assigns_classes_from_transactions() {
        let base = Dataset::from_transactions([
            (1, [1u32, 2].as_slice()),
            (2, [1, 2, 3, 4].as_slice()),
            (3, [5].as_slice()),
        ]);
        // Class by basket size: small (0) vs large (1).
        let d = ClassedDataset::partition_by(&base, |_, items| (items.len() > 2) as u32);
        assert_eq!(d.partition(0).unwrap().n_transactions(), 2);
        assert_eq!(d.partition(1).unwrap().n_transactions(), 1);
    }

    #[test]
    fn single_class_reduces_to_plain_mining() {
        let base = crate::example::paper_example_dataset();
        let d = ClassedDataset::partition_by(&base, |_, _| 7);
        let params = crate::example::paper_example_params();
        let result = Miner::new(params).by_class(&d).unwrap().per_class.unwrap();
        assert_eq!(result.by_class.len(), 1);
        let mined = memory::execute(&base, &params, &RunSpec::default());
        let plain = generate_rules(&mined, params.min_confidence);
        assert_eq!(result.by_class[0].1.len(), plain.len());
        assert_eq!(result.merged.len(), plain.len());
    }
}
