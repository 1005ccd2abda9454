//! The Sections 3.2 / 4.3 analytical comparison — nested-loop vs.
//! sort-merge — plus a measured validation run on the paged engine.
//!
//! Run with: `cargo run --release --example cost_analysis`

use setm::core::nested_loop::mine_nested_loop;
use setm::costmodel::ComparisonReport;
use setm::datagen::UniformConfig;
use setm::{Backend, EngineConfig, MinSupport, Miner, MiningParams};

fn main() {
    // Part 1: the paper's arithmetic, reproduced exactly.
    println!("=== Analytical model (the paper's own numbers) ===\n");
    let report = ComparisonReport::paper(3);
    println!("{report}\n");
    println!("(The paper rounds 2,040,000 fetches to \"about 2,000,000\" and");
    println!(" estimates \"more than 11 hours\"; 120,000 sequential accesses");
    println!(" at 10 ms are 1,200 s — the paper's \"10 minutes\" is a slip,");
    println!(" it is 20. The conclusion is unchanged either way.)\n");

    // Part 2: measured page accesses on a scaled-down uniform database
    // (the full 200,000-transaction nested-loop run is exactly the
    // 11-hour disaster the paper warns about — in page accesses, not
    // wall-clock, since our disk is simulated).
    let scale = 100; // 2,000 transactions, same 1% item selectivity
    println!("=== Measured on the paged engine (uniform model / {scale}) ===\n");
    let dataset = UniformConfig::paper_scaled(scale).generate();
    let params = MiningParams::new(MinSupport::Fraction(0.005), 0.5).with_max_len(2);

    // threads(1): this comparison validates the sequential Section 4.3
    // accounting (see docs/REPRODUCTION.md, Design notes §5).
    let setm_run = Miner::new(params)
        .backend(Backend::Engine(EngineConfig::default()))
        .threads(1)
        .run(&dataset)
        .expect("engine run succeeds");
    let setm_accesses = setm_run.report.page_accesses().expect("engine report");
    let setm_ms = setm_run.report.estimated_io_ms().expect("engine report");
    let nl_run = mine_nested_loop(&dataset, &params).expect("nested-loop run succeeds");
    assert_eq!(
        setm_run.result.frequent_itemsets(),
        nl_run.result.frequent_itemsets(),
        "both strategies must find the same patterns"
    );

    println!("{:<22} {:>14} {:>14}", "strategy", "page accesses", "est. time (s)");
    println!(
        "{:<22} {:>14} {:>14.1}",
        "nested-loop (Sec. 3)",
        nl_run.total_page_accesses,
        nl_run.total_estimated_ms / 1000.0
    );
    println!("{:<22} {:>14} {:>14.1}", "SETM (Sec. 4)", setm_accesses, setm_ms / 1000.0);
    println!(
        "\nMeasured SETM advantage at 1/{scale} scale: {:.1}x in estimated time",
        nl_run.total_estimated_ms / setm_ms
    );
    println!("(the analytical full-scale gap is {:.1}x)", report.speedup());
}
