//! Constraint-pushed mining: `MiningConstraints` and its compiled form.
//!
//! The paper's thesis is that expressing mining set-oriented lets the
//! database restrict work *before* counting. This module carries that
//! idea to constrained mining: instead of mining everything and
//! filtering rules afterwards, the constraints are pushed into the
//! Figure-4 candidate-generation loop itself, so only relevant `C_k`
//! are ever counted.
//!
//! Three constraint kinds exist, with different pushdown depths:
//!
//! * **Excluded items** are anti-monotone ("no excluded item" holds for
//!   every subset of a pattern that satisfies it), so they are enforced
//!   at every candidate extension: an excluded item never enters
//!   `R'_k`. The `SALES`/`R_1` relation is left untouched — exclusion
//!   is a property of *patterns*, not of the input relation — which
//!   keeps the `k = 1` trace identical across backends.
//! * **Required items** ("every rule's antecedent must contain itemset
//!   `I`") switch counting to *I-anchored* prefixes. Item identifiers
//!   are first remapped so the `m` required items become `0..m-1`
//!   (see [`ItemRemap`]); in that space a sorted pattern contains all
//!   of `I` **iff** its first `m` items are exactly `0, 1, .., m-1`, so
//!   the anchor is a purely positional, conjunctive predicate — the
//!   extension item at position `p < m` must equal `p`. That predicate
//!   compiles to one `WHERE` conjunct per SQL statement and one integer
//!   compare per candidate in the memory/engine loops.
//! * **Rule-head targets** (`y ∈ T` for rules `X ⇒ y`) cannot be pushed
//!   into candidate counting without losing antecedent counts (the
//!   antecedent of a targeted rule is itself *not* target-compatible),
//!   so they are applied at rule generation — which is already
//!   post-counting and cheap.
//!
//! Soundness of the pushdown (REPRODUCTION.md Design notes §14): every
//! prefix of an I-compatible sorted pattern is I-compatible in the
//! anchored sense, so by induction over `k` the constrained `C_k`
//! contains exactly the compatible frequent `k`-patterns, each with its
//! exact unconstrained support count. Rule confidences are therefore
//! identical to the unconstrained run's.

use crate::data::{Dataset, Item, MiningParams};
use crate::error::SetmError;
use crate::rules::Rule;
use std::cell::Cell;
use std::collections::HashMap;

/// Declarative mining constraints, pushed into candidate generation by
/// every backend reachable from [`crate::Miner`].
///
/// ```
/// use setm_core::MiningConstraints;
///
/// let c = MiningConstraints::new()
///     .require([4])      // every rule's antecedent contains item 4
///     .exclude([7])      // item 7 never appears in any pattern
///     .targets([5, 6])   // rule consequents restricted to {5, 6}
///     .min_len(3);       // rules span patterns of at least 3 items
/// assert!(!c.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MiningConstraints {
    require: Vec<Item>,
    exclude: Vec<Item>,
    targets: Vec<Item>,
    min_len: Option<usize>,
}

fn sorted_dedup<I: IntoIterator<Item = Item>>(items: I) -> Vec<Item> {
    let mut v: Vec<Item> = items.into_iter().collect();
    v.sort_unstable();
    v.dedup();
    v
}

impl MiningConstraints {
    /// No constraints (mining behaves exactly as unconstrained).
    pub fn new() -> Self {
        MiningConstraints::default()
    }

    /// Require every rule's *antecedent* to contain all of `items`.
    /// Candidate counting is anchored on this set: only patterns that
    /// can still grow into a superset of `items` are ever counted.
    pub fn require<I: IntoIterator<Item = Item>>(mut self, items: I) -> Self {
        self.require = sorted_dedup(items);
        self
    }

    /// Ban `items` from every pattern (and hence every rule).
    pub fn exclude<I: IntoIterator<Item = Item>>(mut self, items: I) -> Self {
        self.exclude = sorted_dedup(items);
        self
    }

    /// Restrict rule consequents to `items` (empty = unrestricted).
    pub fn targets<I: IntoIterator<Item = Item>>(mut self, items: I) -> Self {
        self.targets = sorted_dedup(items);
        self
    }

    /// Only emit rules whose full pattern (antecedent plus consequent)
    /// has at least `len` items.
    pub fn min_len(mut self, len: usize) -> Self {
        self.min_len = Some(len);
        self
    }

    /// The required (antecedent) items, sorted.
    pub fn required(&self) -> &[Item] {
        &self.require
    }

    /// The excluded items, sorted.
    pub fn excluded(&self) -> &[Item] {
        &self.exclude
    }

    /// The consequent targets, sorted (empty = any consequent).
    pub fn target_items(&self) -> &[Item] {
        &self.targets
    }

    /// The minimum rule pattern length, if constrained.
    pub fn min_rule_len(&self) -> Option<usize> {
        self.min_len
    }

    /// Whether no constraint is set (the unconstrained fast path).
    pub fn is_empty(&self) -> bool {
        self.require.is_empty()
            && self.exclude.is_empty()
            && self.targets.is_empty()
            && self.min_len.is_none()
    }

    /// Validate against the run's parameters; contradictory or
    /// unsatisfiable combinations are typed errors, caught before any
    /// mining work starts.
    pub fn validate(&self, params: &MiningParams) -> Result<(), SetmError> {
        let overlap = |a: &[Item], b: &[Item]| -> Option<Item> {
            a.iter().copied().find(|it| b.binary_search(it).is_ok())
        };
        if let Some(it) = overlap(&self.require, &self.exclude) {
            return Err(SetmError::InvalidConstraints {
                reason: format!("item {it} is both required and excluded"),
            });
        }
        if let Some(it) = overlap(&self.targets, &self.exclude) {
            return Err(SetmError::InvalidConstraints {
                reason: format!("target item {it} is excluded — no rule could ever match"),
            });
        }
        if let Some(it) = overlap(&self.targets, &self.require) {
            return Err(SetmError::InvalidConstraints {
                reason: format!(
                    "target item {it} is required in the antecedent — a consequent \
                     cannot also be an antecedent item"
                ),
            });
        }
        if let Some(max) = params.max_pattern_len {
            if let Some(min) = self.min_len {
                if min > max {
                    return Err(SetmError::InvalidConstraints {
                        reason: format!(
                            "min_len {min} exceeds max_pattern_len {max} — no rule could \
                             ever match"
                        ),
                    });
                }
            }
            if self.require.len() > max {
                return Err(SetmError::InvalidConstraints {
                    reason: format!(
                        "{} required items exceed max_pattern_len {max}",
                        self.require.len()
                    ),
                });
            }
        }
        Ok(())
    }

    /// The declarative rule predicate the pushdown implements: whether a
    /// rule would survive post-filtering an unconstrained run. The
    /// cross-backend equivalence tests pin `constrained(mine) ==
    /// filter(unconstrained(mine))` under exactly this function.
    pub fn matches_rule(&self, rule: &Rule) -> bool {
        let ante = rule.antecedent.as_slice();
        self.require.iter().all(|it| ante.binary_search(it).is_ok())
            && !ante.iter().any(|it| self.exclude.binary_search(it).is_ok())
            && self.exclude.binary_search(&rule.consequent).is_err()
            && (self.targets.is_empty() || self.targets.binary_search(&rule.consequent).is_ok())
            && ante.len() + 1 >= self.min_len.unwrap_or(0)
    }

    /// Compile into the execution-space plan: the item remap (present
    /// only when items are required) and the positional predicate the
    /// backends evaluate per candidate.
    pub fn compile(&self, dataset: &Dataset) -> ConstraintPlan {
        if self.is_empty() {
            return ConstraintPlan {
                remap: None,
                compiled: CompiledConstraints::none(),
                targets: Vec::new(),
                min_rule_len: 0,
            };
        }
        let remap = (!self.require.is_empty()).then(|| ItemRemap::build(dataset, self));
        let map = |it: Item| remap.as_ref().map_or(it, |r| r.to_mining(it));
        let compiled = CompiledConstraints {
            anchor_len: self.require.len(),
            excluded: sorted_dedup(self.exclude.iter().copied().map(map)),
        };
        let targets = sorted_dedup(self.targets.iter().copied().map(map));
        ConstraintPlan { remap, compiled, targets, min_rule_len: self.min_len.unwrap_or(0) }
    }
}

/// A bijective item renaming that moves the required items to the
/// smallest identifiers `0..m-1` (in ascending original order) and all
/// other items to `m, m+1, ..` (ascending). In the renamed space a
/// sorted pattern contains every required item iff it *begins* with
/// `0, 1, .., m-1`, which turns the "must contain itemset I" constraint
/// into a positional equality per extension — evaluable by a merge-scan
/// loop and expressible as a SQL `WHERE` conjunct.
#[derive(Debug, Clone)]
pub struct ItemRemap {
    forward: HashMap<Item, Item>,
    backward: Vec<Item>,
}

impl ItemRemap {
    fn build(dataset: &Dataset, constraints: &MiningConstraints) -> ItemRemap {
        // The universe: every item the run can observe or reference.
        let mut universe: Vec<Item> = dataset.items().to_vec();
        universe.extend_from_slice(&constraints.require);
        universe.extend_from_slice(&constraints.exclude);
        universe.extend_from_slice(&constraints.targets);
        universe.sort_unstable();
        universe.dedup();

        let mut forward = HashMap::with_capacity(universe.len());
        let mut backward = Vec::with_capacity(universe.len());
        for &req in &constraints.require {
            forward.insert(req, backward.len() as Item);
            backward.push(req);
        }
        for &it in &universe {
            if constraints.require.binary_search(&it).is_err() {
                forward.insert(it, backward.len() as Item);
                backward.push(it);
            }
        }
        ItemRemap { forward, backward }
    }

    /// Original item -> mining-space item.
    pub fn to_mining(&self, item: Item) -> Item {
        self.forward[&item]
    }

    /// Mining-space item -> original item.
    pub fn to_original(&self, item: Item) -> Item {
        self.backward[item as usize]
    }

    /// The dataset with every item renamed into mining space (rows
    /// re-sorted; the renaming is bijective so transaction shapes and
    /// all cardinalities are unchanged).
    pub fn remap_dataset(&self, dataset: &Dataset) -> Dataset {
        Dataset::from_pairs(dataset.iter_rows().map(|(tid, it)| (tid, self.to_mining(it))))
    }
}

/// The execution-space form of [`MiningConstraints`]: what the three
/// backends evaluate inside the Figure-4 loop. Lives entirely in mining
/// space (remapped when items are required).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompiledConstraints {
    /// `m`: the first `m` pattern positions must hold items `0..m-1`.
    anchor_len: usize,
    /// Items banned from every pattern, sorted.
    excluded: Vec<Item>,
}

impl CompiledConstraints {
    /// No constraints — every backend's unconstrained fast path.
    pub const fn none() -> Self {
        CompiledConstraints { anchor_len: 0, excluded: Vec::new() }
    }

    /// Whether there is nothing to enforce.
    pub fn is_empty(&self) -> bool {
        self.anchor_len == 0 && self.excluded.is_empty()
    }

    /// The anchor length `m`.
    pub fn anchor_len(&self) -> usize {
        self.anchor_len
    }

    /// The excluded items (mining space), sorted.
    pub fn excluded(&self) -> &[Item] {
        &self.excluded
    }
}

/// The pushdown predicate the extension kernels evaluate on every
/// candidate pair that passes the paper's `q.item > p.item_{k-1}` join
/// predicate. The kernels are generic over it, so their
/// [`Unconstrained`] instantiation compiles to the paper's plain join.
pub trait CandidateFilter {
    /// Whether `item` may occupy position `pos` (0-based) of a sorted
    /// candidate pattern.
    fn allows_at(&self, pos: usize, item: Item) -> bool;

    /// Whether the extension join may pair the `R_{k-1}` row `left` —
    /// `(trans_id, item_1, .., item_{k-1})` — with the `SALES` item
    /// `item`: the paper's `item > item_{k-1}`, then this filter on the
    /// new position. At k = 2 the prefix is checked too, because `R_1`
    /// is the paper's unfiltered `SALES`; every later `R_{k-1}` was
    /// filtered against a constrained `C_{k-1}` and is clean by
    /// induction. A pair the filter rejects is counted in `pruned`.
    #[inline(always)]
    fn extends(&self, left: &[Item], item: Item, pruned: &Cell<u64>) -> bool {
        let k_prev = left.len() - 1;
        if item <= left[k_prev] {
            return false;
        }
        if (k_prev == 1 && !self.allows_at(0, left[1])) || !self.allows_at(k_prev, item) {
            pruned.set(pruned.get() + 1);
            return false;
        }
        true
    }
}

/// No constraints: every candidate passes, and no pair is ever pruned.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unconstrained;

impl CandidateFilter for Unconstrained {
    #[inline(always)]
    fn allows_at(&self, _pos: usize, _item: Item) -> bool {
        true
    }
}

impl CandidateFilter for CompiledConstraints {
    /// This is the whole pushdown predicate: anchored positions demand
    /// their anchor item; free positions demand only "not excluded".
    /// (Patterns are strictly increasing, so an item `< anchor_len` can
    /// never legally appear at a free position — the two cases are
    /// exhaustive.)
    #[inline]
    fn allows_at(&self, pos: usize, item: Item) -> bool {
        if pos < self.anchor_len {
            item as usize == pos
        } else {
            self.excluded.binary_search(&item).is_err()
        }
    }
}

/// Everything the facade needs to run one constrained mine: the remap
/// (if any), the per-candidate predicate, and the rule-stage leftovers
/// (targets and minimum rule length, both in mining space).
#[derive(Debug, Clone)]
pub struct ConstraintPlan {
    pub(crate) remap: Option<ItemRemap>,
    pub(crate) compiled: CompiledConstraints,
    pub(crate) targets: Vec<Item>,
    pub(crate) min_rule_len: usize,
}

impl ConstraintPlan {
    /// The compiled per-candidate predicate.
    pub fn compiled(&self) -> &CompiledConstraints {
        &self.compiled
    }

    /// The item remap, when items are required.
    pub fn remap(&self) -> Option<&ItemRemap> {
        self.remap.as_ref()
    }

    /// The rule-consequent targets (mining space), sorted; empty = any.
    pub fn targets(&self) -> &[Item] {
        &self.targets
    }

    /// The minimum rule pattern length (0 when unconstrained).
    pub fn min_rule_len(&self) -> usize {
        self.min_rule_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::MinSupport;
    use crate::itemvec::ItemVec;

    fn params() -> MiningParams {
        MiningParams::new(MinSupport::Count(2), 0.5)
    }

    #[test]
    fn builders_sort_and_dedup() {
        let c = MiningConstraints::new().require([9, 4, 9]).exclude([3, 1]).targets([8, 8]);
        assert_eq!(c.required(), &[4, 9]);
        assert_eq!(c.excluded(), &[1, 3]);
        assert_eq!(c.target_items(), &[8]);
        assert!(!c.is_empty());
        assert!(MiningConstraints::new().is_empty());
    }

    #[test]
    fn contradictions_are_typed_errors() {
        let p = params();
        let both = MiningConstraints::new().require([4]).exclude([4]);
        assert!(matches!(both.validate(&p), Err(SetmError::InvalidConstraints { .. })));
        let excluded_target = MiningConstraints::new().targets([7]).exclude([7]);
        assert!(matches!(excluded_target.validate(&p), Err(SetmError::InvalidConstraints { .. })));
        let required_target = MiningConstraints::new().targets([7]).require([7]);
        assert!(matches!(required_target.validate(&p), Err(SetmError::InvalidConstraints { .. })));
        let too_long = MiningConstraints::new().min_len(5);
        assert!(matches!(
            too_long.validate(&p.with_max_len(3)),
            Err(SetmError::InvalidConstraints { .. })
        ));
        let anchor_too_long = MiningConstraints::new().require([1, 2, 3, 4]);
        assert!(matches!(
            anchor_too_long.validate(&p.with_max_len(3)),
            Err(SetmError::InvalidConstraints { .. })
        ));
        // Satisfiable combinations pass.
        assert!(MiningConstraints::new()
            .require([4])
            .exclude([7])
            .targets([5])
            .min_len(3)
            .validate(&p)
            .is_ok());
    }

    #[test]
    fn rule_predicate_semantics() {
        let c = MiningConstraints::new().require([4]).exclude([7]).targets([6]).min_len(3);
        let rule = |ante: &[Item], cons: Item| Rule {
            antecedent: ItemVec::from_slice(ante),
            consequent: cons,
            support_count: 3,
            support: 0.3,
            confidence: 1.0,
        };
        assert!(c.matches_rule(&rule(&[4, 5], 6)));
        assert!(!c.matches_rule(&rule(&[5, 9], 6)), "required item missing from antecedent");
        assert!(!c.matches_rule(&rule(&[4, 7], 6)), "excluded item in antecedent");
        assert!(!c.matches_rule(&rule(&[4, 5], 7)), "excluded consequent");
        assert!(!c.matches_rule(&rule(&[4, 5], 9)), "off-target consequent");
        assert!(!c.matches_rule(&rule(&[4], 6)), "pattern shorter than min_len");
    }

    #[test]
    fn remap_moves_required_items_to_the_front() {
        let d =
            Dataset::from_transactions([(1, [10u32, 50, 90].as_slice()), (2, [10, 90].as_slice())]);
        let c = MiningConstraints::new().require([90]);
        let plan = c.compile(&d);
        let remap = plan.remap.as_ref().expect("require builds a remap");
        assert_eq!(remap.to_mining(90), 0, "required item gets the smallest id");
        assert_eq!(remap.to_original(0), 90);
        // Bijective over the universe.
        for it in [10u32, 50, 90] {
            assert_eq!(remap.to_original(remap.to_mining(it)), it);
        }
        // The remapped dataset has identical shape.
        let rd = remap.remap_dataset(&d);
        assert_eq!(rd.n_transactions(), d.n_transactions());
        assert_eq!(rd.n_rows(), d.n_rows());
        assert_eq!(rd.support_of(&[0]), d.support_of(&[90]));
    }

    #[test]
    fn compiled_predicate_is_positional() {
        let d = Dataset::from_transactions([(1, [10u32, 20, 30, 40].as_slice())]);
        let c = MiningConstraints::new().require([20, 40]).exclude([30]);
        let plan = c.compile(&d);
        let cc = plan.compiled();
        assert_eq!(cc.anchor_len(), 2);
        // Anchored positions demand their anchor item.
        assert!(cc.allows_at(0, 0) && cc.allows_at(1, 1));
        assert!(!cc.allows_at(0, 1) && !cc.allows_at(1, 0) && !cc.allows_at(1, 3));
        // Free positions demand "not excluded" (30 remapped somewhere >= 2).
        let remap = plan.remap.as_ref().unwrap();
        let ex = remap.to_mining(30);
        assert!(!cc.allows_at(2, ex));
        assert!(cc.allows_at(2, remap.to_mining(10)));
    }

    #[test]
    fn exclusion_only_needs_no_remap() {
        let d = Dataset::from_transactions([(1, [1u32, 2].as_slice())]);
        let plan = MiningConstraints::new().exclude([2]).compile(&d);
        assert!(plan.remap.is_none());
        let cc = plan.compiled();
        assert_eq!(cc.anchor_len(), 0);
        assert!(!cc.allows_at(0, 2) && cc.allows_at(0, 1) && cc.allows_at(5, 1));
    }

    #[test]
    fn empty_constraints_compile_to_the_fast_path() {
        let d = Dataset::from_transactions([(1, [1u32].as_slice())]);
        let plan = MiningConstraints::new().compile(&d);
        assert!(plan.remap.is_none());
        assert!(plan.compiled().is_empty());
        assert_eq!(plan.min_rule_len, 0);
    }
}
