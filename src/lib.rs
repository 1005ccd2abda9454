//! # setm — Set-Oriented Mining for Association Rules
//!
//! A comprehensive Rust reproduction of *M. Houtsma & A. Swami,
//! "Set-Oriented Mining for Association Rules in Relational Databases",
//! ICDE 1995* — the SETM algorithm, the relational storage engine and SQL
//! subset it runs on, the nested-loop comparator, the analytical cost
//! model, baseline miners (AIS, Apriori, Apriori-TID), and calibrated
//! synthetic workloads.
//!
//! This umbrella crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `setm-core` | Algorithm SETM (in-memory / paged-engine / SQL-driven), rules, the worked example |
//! | [`relational`] | `setm-relational` | pages, pager with I/O accounting, heap files, external sort, B+-trees, joins |
//! | [`sql`] | `setm-sql` | the SQL subset: parser, planner, executor |
//! | [`baselines`] | `setm-baselines` | AIS, Apriori, Apriori-TID |
//! | [`datagen`] | `setm-datagen` | uniform / retail-calibrated / Quest generators |
//! | [`costmodel`] | `setm-costmodel` | the Sections 3.2 / 4.3 page-access arithmetic |
//! | [`serve`] | `setm-serve` | the TCP mining service: NDJSON protocol, dataset registry, job scheduler, client |
//! | [`incremental`] | `setm-incremental` | mining frontiers: absorb transaction appends in delta time |
//!
//! ## Quickstart
//!
//! One [`Miner`] builder drives every execution. The paper's
//! ten-transaction worked example at 30% support / 70% confidence
//! (Section 4.2), on the default in-memory backend:
//!
//! ```
//! use setm::{example, Miner};
//!
//! let dataset = example::paper_example_dataset();
//! let outcome = Miner::new(example::paper_example_params()).run(&dataset).unwrap();
//!
//! // Exactly the eleven rules of Section 5.
//! assert_eq!(outcome.rules.len(), 11);
//! for rule in &outcome.rules {
//!     println!("{}", example::format_rule_lettered(rule));
//! }
//! ```
//!
//! Swapping the physical execution is one builder call — the result type
//! does not change, and per-backend evidence rides along in
//! [`ExecutionReport`]:
//!
//! ```
//! use setm::{example, Backend, EngineConfig, Miner};
//!
//! let dataset = example::paper_example_dataset();
//! let miner = Miner::new(example::paper_example_params());
//!
//! let on_engine =
//!     miner.clone().backend(Backend::Engine(EngineConfig::default())).run(&dataset).unwrap();
//! assert!(on_engine.report.page_accesses().unwrap() > 0);
//!
//! let via_sql = miner.backend(Backend::Sql).run(&dataset).unwrap();
//! assert!(via_sql.report.statements().unwrap().iter().any(|s| s.contains(":minsupport")));
//! assert_eq!(via_sql.rules, on_engine.rules);
//! ```

pub use setm_baselines as baselines;
pub use setm_core as core;
pub use setm_costmodel as costmodel;
pub use setm_datagen as datagen;
pub use setm_incremental as incremental;
pub use setm_relational as relational;
pub use setm_serve as serve;
pub use setm_sql as sql;

// The everyday API at the top level.
pub use setm_core::{
    example, generate_rules, rules, setm, Backend, ClassedDataset, ClassedMiningResult,
    ClassedRule, CountRelation, Dataset, EngineConfig, EngineReport, ExecutionReport, Item,
    ItemVec, IterationTrace, MinSupport, Miner, MiningConstraints, MiningOutcome, MiningParams,
    PatternRelation, Rule, SetmError, SetmResult, SqlReport, TransId, UnknownBackend,
};

#[cfg(test)]
mod tests {
    #[test]
    fn umbrella_reexports_work_together() {
        use crate as setm_crate;
        let d = setm_crate::example::paper_example_dataset();
        let outcome =
            setm_crate::Miner::new(setm_crate::example::paper_example_params()).run(&d).unwrap();
        assert_eq!(outcome.result.max_pattern_len(), 3);
        let report = setm_crate::costmodel::ComparisonReport::paper(3);
        assert!(report.speedup() > 30.0);
        let quest = setm_crate::datagen::QuestConfig::t5_i2_d100k(200).generate();
        assert!(quest.n_transactions() > 0);
    }
}
