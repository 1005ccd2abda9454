//! # setm-core — Algorithm SETM
//!
//! Reproduction of *Houtsma & Swami, "Set-Oriented Mining for Association
//! Rules in Relational Databases" (ICDE 1995)*: association-rule mining
//! expressed with two database primitives, sorting and merge-scan join.
//!
//! One [`Miner`] builder drives all three interchangeable executions —
//! in-memory set operators, the paged storage engine, or the literal
//! Section 4.1 SQL — and every run returns the same [`MiningOutcome`] or
//! a typed [`SetmError`]:
//!
//! ```
//! use setm_core::{example, Miner};
//!
//! let dataset = example::paper_example_dataset();
//! let outcome = Miner::new(example::paper_example_params()).run(&dataset).unwrap();
//! assert_eq!(outcome.rules.len(), 11); // the Section 5 listing
//! ```

pub mod classes;
pub mod constraints;
pub mod data;
pub mod error;
pub mod example;
pub mod io;
pub mod itemvec;
pub mod miner;
pub mod nested_loop;
pub mod pattern;
pub mod rules;
pub mod setm;

pub use classes::{ClassedDataset, ClassedMiningResult, ClassedRule};
pub use constraints::{CompiledConstraints, ConstraintPlan, ItemRemap, MiningConstraints};
pub use data::{Dataset, Item, MinSupport, MiningParams, TransId};
pub use error::SetmError;
pub use itemvec::ItemVec;
pub use miner::{
    Backend, EngineReport, ExecutionReport, Miner, MiningOutcome, SqlReport, UnknownBackend,
};
pub use pattern::{CountRelation, PatternRelation};
pub use rules::{
    generate_constrained_rules, generate_extended_rules, generate_rules, ExtendedRule, Rule,
};
pub use setm::engine::EngineConfig;
pub use setm::plan::{JoinStrategy, LiveStats, PhysicalPlan, PlanMode, Planner, PlannerConfig};
pub use setm::{IterationTrace, SetmResult};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miner_facade_runs_end_to_end() {
        let dataset = example::paper_example_dataset();
        let outcome = Miner::new(example::paper_example_params()).run(&dataset).unwrap();
        assert_eq!(outcome.result.max_pattern_len(), 3);
        assert_eq!(outcome.rules.len(), 11);
    }
}
