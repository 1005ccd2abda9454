//! Mining as SQL — the paper's headline claim, executed.
//!
//! Runs Algorithm SETM by *emitting the Section 4.1 SQL statements as
//! text* and executing them on the workspace's own SQL engine, printing
//! every statement alongside its effect. The SQL execution is just
//! another backend of the unified `Miner` facade; the cross-check
//! against the in-memory execution is one builder call away.
//!
//! Run with: `cargo run --example sql_mining`

use setm::{example, Backend, Miner};

fn main() {
    let dataset = example::paper_example_dataset();
    let params = example::paper_example_params();

    let miner = Miner::new(params);
    // One thread, so the printed statements are the paper's own text on
    // any host (more threads partition the plan, shown further down).
    let run =
        miner.clone().backend(Backend::Sql).threads(1).run(&dataset).expect("SQL run succeeds");
    let statements = run.report.statements().expect("the SQL backend records its statements");

    println!("Executed {} SQL statements:\n", statements.len());
    for stmt in statements {
        for (i, line) in stmt.lines().enumerate() {
            if i == 0 {
                println!("sql> {line}");
            } else {
                println!("     {line}");
            }
        }
        println!();
    }

    println!("Frequent patterns found via SQL:");
    for (pattern, count) in run.result.frequent_itemsets() {
        let letters: Vec<String> =
            pattern.iter().map(|&i| example::item_letter(i).to_string()).collect();
        println!("  {:<10} count {}", letters.join(" "), count);
    }

    // The point of the paper: plain SQL produces exactly what the
    // special-purpose implementation produces — same facade, same
    // outcome type, different backend.
    let reference =
        miner.clone().backend(Backend::Memory).run(&dataset).expect("memory run succeeds");
    assert_eq!(run.result.frequent_itemsets(), reference.result.frequent_itemsets());
    assert_eq!(run.rules, reference.rules);
    println!("\nSQL-driven results identical to the in-memory execution. QED (Section 7).");

    // And the DBMS's own parallelism applies: the same pipeline sharded
    // over two trans_id partitions — per-shard INSERT … SELECT run
    // concurrently, shard-local counts merged by one global
    // GROUP BY … HAVING SUM(cnt) >= :minsupport — mines the identical
    // outcome.
    let parallel =
        miner.clone().backend(Backend::Sql).threads(2).run(&dataset).expect("sharded SQL run");
    assert_eq!(parallel.result.frequent_itemsets(), reference.result.frequent_itemsets());
    assert_eq!(parallel.rules, reference.rules);
    let shard_statements = parallel.report.statements().expect("statements recorded");
    let merges = shard_statements.iter().filter(|s| s.contains("SUM(p.cnt)")).count();
    println!(
        "\nPartitioned over 2 shards: {} statements ({merges} SUM-merge steps), same outcome.",
        shard_statements.len(),
    );
}
