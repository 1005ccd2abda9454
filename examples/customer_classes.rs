//! The paper's Section 7 future work, implemented: "relating association
//! rules to customer classes". Two synthetic customer segments share a
//! store but differ in buying patterns; per-class SETM runs surface
//! rules that hold for one segment and not the other.
//!
//! Run with: `cargo run --release --example customer_classes`

use setm::core::classes::ClassedDataset;
use setm::datagen::RetailConfig;
use setm::{example, MinSupport, Miner, MiningParams};

fn main() {
    // Segment 0: a sample of the retail-like population.
    // Segment 1: the worked example's customers, replicated — a niche
    // segment with very strong D/E/F affinity.
    let population = RetailConfig::small(4_000, 77).generate();
    let mut triples: Vec<(u32, u32, u32)> = Vec::new();
    for (tid, items) in population.transactions() {
        for &item in items {
            triples.push((0, tid, item));
        }
    }
    for copy in 0..40u32 {
        for (tid, items) in example::paper_example_dataset().transactions() {
            for &item in items {
                triples.push((1, copy * 1000 + tid, item));
            }
        }
    }
    let data = ClassedDataset::from_labeled_pairs(triples);

    println!("Classes: {:?}", data.classes());
    for class in data.classes() {
        let p = data.partition(class).expect("class exists");
        println!(
            "  class {class}: {} transactions, {} rows, avg {:.2} items/txn",
            p.n_transactions(),
            p.n_rows(),
            p.avg_transaction_len()
        );
    }

    let params = MiningParams::new(MinSupport::Fraction(0.02), 0.6);
    let outcome = Miner::new(params).by_class(&data).expect("valid parameters");
    let result = *outcome.per_class.expect("by_class fills per_class");

    for (class, rules) in &result.by_class {
        println!("\nclass {class}: {} qualifying rules (top 8):", rules.len());
        for rule in rules.iter().take(8) {
            println!("  {rule}");
        }
    }

    // Rules that distinguish the segments: qualify in one class only, or
    // qualify everywhere with a large confidence gap.
    let classes = data.classes();
    println!("\nSegment-specific rules (qualify in exactly one class):");
    let mut shown = 0;
    for rule in &result.merged {
        if rule.per_class.len() == 1 && shown < 8 {
            let (class, conf, supp) = rule.per_class[0];
            println!(
                "  class {class} only: {:?} ==> {} [{:.0}%, {:.1}%]",
                rule.antecedent.as_slice(),
                rule.consequent,
                conf * 100.0,
                supp * 100.0
            );
            shown += 1;
        }
    }

    println!("\nShared rules with the largest confidence spread:");
    let mut shared: Vec<_> = result.merged.iter().filter(|r| r.holds_in_all(&classes)).collect();
    shared.sort_by(|a, b| b.confidence_spread().total_cmp(&a.confidence_spread()));
    for rule in shared.iter().take(5) {
        println!(
            "  {:?} ==> {}: spread {:.0} points across classes {:?}",
            rule.antecedent.as_slice(),
            rule.consequent,
            rule.confidence_spread() * 100.0,
            rule.per_class.iter().map(|&(c, _, _)| c).collect::<Vec<_>>()
        );
    }
}
