//! E4 — the paper's worked example (Section 4.2, Figures 1-3, Section 5),
//! reproduced exactly by every execution strategy in the workspace —
//! all of them driven through the one `Miner` facade.

use setm::core::nested_loop::{mine_nested_loop, NestedLoopOptions};
use setm::{example, generate_rules, Backend, EngineConfig, Miner};

#[test]
fn figures_1_to_3_from_every_execution() {
    let d = example::paper_example_dataset();
    let miner = Miner::new(example::paper_example_params());

    let memory = miner.run(&d).unwrap().result;
    let engine =
        miner.clone().backend(Backend::Engine(EngineConfig::default())).run(&d).unwrap().result;
    let sql = miner.clone().backend(Backend::Sql).run(&d).unwrap().result;
    let nested = mine_nested_loop(&d, miner.params(), NestedLoopOptions::default()).unwrap();

    let reference = memory.frequent_itemsets();
    assert_eq!(engine.frequent_itemsets(), reference, "engine execution");
    assert_eq!(sql.frequent_itemsets(), reference, "SQL execution");
    assert_eq!(nested.result.frequent_itemsets(), reference, "nested-loop strategy");

    // Figure 1: C1 contents.
    let c1: Vec<(u32, u64)> = memory.c(1).unwrap().iter().map(|(p, n)| (p[0], n)).collect();
    assert_eq!(c1, example::expected_c1());
    // Figure 2: C2 contents.
    let c2: Vec<([u32; 2], u64)> =
        memory.c(2).unwrap().iter().map(|(p, n)| ([p[0], p[1]], n)).collect();
    assert_eq!(c2, example::expected_c2());
    // Figure 3: C3 contents.
    let c3: Vec<([u32; 3], u64)> =
        memory.c(3).unwrap().iter().map(|(p, n)| ([p[0], p[1], p[2]], n)).collect();
    assert_eq!(c3, example::expected_c3());
}

#[test]
fn section_5_rule_listing_verbatim() {
    let d = example::paper_example_dataset();
    let outcome = Miner::new(example::paper_example_params()).run(&d).unwrap();
    let rendered: Vec<String> = outcome.rules.iter().map(example::format_rule_lettered).collect();
    assert_eq!(rendered, example::expected_rules());
}

#[test]
fn section_5_confidence_arithmetic() {
    // "The ratio |AB|/|B| = 3/4 = 75% ... The ratio |AB|/|A| = 3/6 = 50%".
    let d = example::paper_example_dataset();
    let result = Miner::new(example::paper_example_params()).run(&d).unwrap().result;
    let all_rules = generate_rules(&result, 0.0);
    let b_a = all_rules
        .iter()
        .find(|r| r.antecedent.as_slice() == [example::B] && r.consequent == example::A)
        .unwrap();
    assert!((b_a.confidence - 0.75).abs() < 1e-12);
    let a_b = all_rules
        .iter()
        .find(|r| r.antecedent.as_slice() == [example::A] && r.consequent == example::B)
        .unwrap();
    assert!((a_b.confidence - 0.50).abs() < 1e-12);
    // Support is 30% for every rule of the example.
    assert!((b_a.support - 0.30).abs() < 1e-12);
}

#[test]
fn termination_condition_is_r_k_empty() {
    // Figure 4: "until R_k = {}" — the example terminates at k = 4.
    let d = example::paper_example_dataset();
    let result = Miner::new(example::paper_example_params()).run(&d).unwrap().result;
    let last = result.trace.last().unwrap();
    assert_eq!(last.k, 4);
    assert_eq!(last.r_tuples, 0);
    assert_eq!(last.c_len, 0);
    assert_eq!(result.max_pattern_len(), 3);
}
