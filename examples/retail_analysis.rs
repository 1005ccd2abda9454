//! The Section 6 evaluation on the calibrated retail-like dataset:
//! Figure 5 (size of R_i), Figure 6 (|C_i|), and the Section 6.2
//! execution-time table.
//!
//! Run with: `cargo run --release --example retail_analysis`

use setm::datagen::{DatasetStats, RetailConfig};
use setm::{MinSupport, Miner, MiningParams};
use std::time::Instant;

const SUPPORTS: [f64; 5] = [0.001, 0.005, 0.01, 0.02, 0.05];

fn main() {
    println!("Generating the retail-like dataset (substitute for the paper's");
    println!(
        "proprietary 46,873-transaction retail data; see docs/REPRODUCTION.md, Design notes §4)..."
    );
    let dataset = RetailConfig::paper().generate();
    let stats = DatasetStats::of(&dataset);
    println!(
        "  {} transactions, {} line items (avg {:.3} items/txn), {} distinct items",
        stats.n_transactions, stats.n_rows, stats.avg_transaction_len, stats.n_distinct_items
    );
    println!(
        "  items with >= 0.1% support: {} (the paper's |C1| = 59)\n",
        stats.items_with_support_at_least(47)
    );

    // Figures 5 and 6: per-iteration relation sizes and cardinalities.
    let mut traces = Vec::new();
    let mut times = Vec::new();
    for &frac in &SUPPORTS {
        let params = MiningParams::new(MinSupport::Fraction(frac), 0.5);
        let t0 = Instant::now();
        let result = Miner::new(params).run(&dataset).expect("valid parameters").result;
        times.push(t0.elapsed());
        traces.push((frac, result));
    }

    println!("Figure 5 — size of relation R_i (Kbytes) per iteration:");
    print!("{:>10}", "minsup");
    for i in 1..=4 {
        print!("{:>12}", format!("R_{i}"));
    }
    println!();
    for (frac, result) in &traces {
        print!("{:>9.2}%", frac * 100.0);
        for i in 1..=4 {
            let kb = result.trace.iter().find(|t| t.k == i).map(|t| t.r_kbytes).unwrap_or(0.0);
            print!("{:>12.1}", kb);
        }
        println!();
    }

    println!("\nFigure 6 — cardinality of C_i per iteration:");
    print!("{:>10}", "minsup");
    for i in 1..=4 {
        print!("{:>12}", format!("|C_{i}|"));
    }
    println!();
    for (frac, result) in &traces {
        print!("{:>9.2}%", frac * 100.0);
        for i in 1..=4 {
            let c = result.trace.iter().find(|t| t.k == i).map(|t| t.c_len).unwrap_or(0);
            print!("{:>12}", c);
        }
        println!();
    }

    println!("\nSection 6.2 — execution times (paper: 6.90s at 0.1% to 3.97s at 5%");
    println!("on a 41.1 MHz IBM RS/6000 350; shape, not absolute values, is the claim):");
    println!("{:>10} {:>16}", "minsup", "time");
    for (&frac, time) in SUPPORTS.iter().zip(times.iter()) {
        println!("{:>9.2}% {:>13.2?}", frac * 100.0, time);
    }
    let ratio = times[0].as_secs_f64() / times[times.len() - 1].as_secs_f64();
    println!(
        "\nStability: slowest/fastest = {ratio:.2}x (the paper's table spans 6.90/3.97 = 1.74x)"
    );
}
