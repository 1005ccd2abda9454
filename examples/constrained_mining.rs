//! Constraint pushdown on the paper's worked example and a Quest
//! workload: `MiningConstraints` steer every backend's Figure-4 loop so
//! excluded items never enter R'_k and required items anchor the
//! candidate space, instead of filtering rules after a full mine.
//!
//! Run with: `cargo run --release --example constrained_mining`

use setm::datagen::QuestConfig;
use setm::{example, Backend, MinSupport, Miner, MiningConstraints, MiningParams};

fn main() {
    // The worked example from Section 2: ask only for rules about item D
    // while keeping item C out of every antecedent and consequent.
    let dataset = example::paper_example_dataset();
    let params = example::paper_example_params();
    let constraints = MiningConstraints::new().require([example::D]).exclude([example::C]);

    let unconstrained = Miner::new(params).run(&dataset).expect("valid parameters");
    let constrained = Miner::new(params)
        .constraints(constraints.clone())
        .run(&dataset)
        .expect("valid constraints");

    println!("Worked example: {} rules unconstrained", unconstrained.rules.len());
    println!("Anchored on D, C excluded: {} rules", constrained.rules.len());
    for rule in &constrained.rules {
        println!("  {rule}");
    }

    // The pushdown is observable: every iteration reports how many
    // candidate extensions the compiled constraints rejected before
    // they could enter R'_k.
    println!("\nPer-iteration pushdown:");
    for t in &constrained.result.trace {
        println!(
            "  k={}: |C_k|={}, pruned {} candidate extensions",
            t.k, t.c_len, t.candidates_pruned
        );
    }

    // The same rules come out of a plain mine followed by a rule filter
    // — the pushdown only changes how much work the loop does.
    let filtered: Vec<_> =
        unconstrained.rules.iter().filter(|r| constraints.matches_rule(r)).collect();
    assert_eq!(constrained.rules.len(), filtered.len());
    let sum = |o: &setm::MiningOutcome| o.result.trace.iter().map(|t| t.c_len).sum::<u64>();
    println!(
        "\nCandidates counted: {} pushed-down vs {} unconstrained",
        sum(&constrained),
        sum(&unconstrained)
    );

    // Constraints ride every backend unchanged; the SQL dialect compiles
    // them into IN / NOT IN predicates on the Section 4.1 statements.
    let quest = QuestConfig { n_items: 200, ..QuestConfig::t20_i6(500) }.generate();
    let anchor = quest.items()[0];
    let q_params = MiningParams::new(MinSupport::Fraction(0.02), 0.3);
    for backend in [Backend::Memory, Backend::Sql] {
        let outcome = Miner::new(q_params)
            .backend(backend)
            .constraints(MiningConstraints::new().require([anchor]))
            .run(&quest)
            .expect("valid run");
        let pruned: u64 = outcome.result.trace.iter().map(|t| t.candidates_pruned).sum();
        println!(
            "Quest T20.I6 anchored on item {anchor} [{}]: {} rules, {pruned} candidates pruned",
            backend.name(),
            outcome.rules.len()
        );
    }
}
