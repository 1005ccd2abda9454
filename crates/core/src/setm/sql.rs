//! SQL-driven execution of Algorithm SETM.
//!
//! The paper's major claim is that "at least some aspects of data mining
//! can be carried out by using general query languages such as SQL,
//! rather than by developing specialized black box algorithms". This
//! module makes that claim executable: each iteration *emits the
//! Section 4.1 SQL statements as text* — the `R'_k` extension join, the
//! `C_k` count query, and the `R_k` support filter with its trailing
//! `ORDER BY` — and runs them through `setm-sql` against the paged
//! engine. No mining logic lives here; it is all in the SQL.
//!
//! The emitted statements are recorded verbatim in
//! [`SqlReport::statements`] so examples and tests can display exactly
//! what was executed.
//!
//! The executor does Figure 4's work for them: the count statement's
//! `GROUP BY` sorts `R'_k` on its items and the catalog keeps it in that
//! order, so the filter statement's merge join reads `R'_k` and `C_k`
//! without sorting either, writes only its `SELECT` list, and sorts its
//! output once for the closing `ORDER BY`; each `INSERT … SELECT` result
//! becomes its target table without a copy (`setm_sql`'s executor docs).
//!
//! Two operator sets run the shared Figure 4 loop, chosen once per run
//! from the first iteration's plan: the paper's script on one session
//! (`threads(1)` emits Section 4.1's text verbatim), and the partitioned
//! script below. Both build every statement with the same functions.
//!
//! # Partitioned parallel execution
//!
//! With more than one worker thread ([`RunSpec::threads`] /
//! `Miner::threads`) the statement pipeline itself is sharded over
//! contiguous `trans_id` partitions — the same weight-balanced
//! partitioner as the in-memory and paged-engine executions
//! ([`crate::setm::shard`]). Each shard is its own [`SqlEngine`] session
//! on its own pager (one connection and one disk per worker, via
//! [`setm_sql::ShardPool`]) holding only its slice of `SALES`; every
//! iteration runs, concurrently on all shards,
//!
//! ```text
//! INSERT INTO Rk_PRIME_SHARD_<i> SELECT p.trans_id, .., q.item FROM .. ;
//! INSERT INTO Ck_PART_<i>  SELECT .., COUNT(*) .. GROUP BY ..          ;   -- no HAVING
//! ```
//!
//! then ships the shard-local count partials to a coordinator session
//! (a `UNION ALL` realized as bulk data movement, like the initial
//! `SALES` load, merged in pattern order so the coordinator's table is
//! already grouped) where the *global* threshold is applied by one merge
//! statement, which sorts nothing —
//!
//! ```text
//! INSERT INTO Ck SELECT p.item_1, .., SUM(p.cnt) FROM Ck_PARTS p
//! GROUP BY p.item_1, .. HAVING SUM(p.cnt) >= :minsupport
//! ```
//!
//! — and finally broadcasts the merged `C_k` back, in pattern order, so
//! each shard filters and `ORDER BY`-sorts its own `R_k` in parallel.
//! Because the shards partition transactions exactly, itemsets, rules,
//! and the `|R'_k|`/`|R_k|`/`|C_k|` trace series are identical to the
//! sequential plan at every thread count (`tests/sql_equivalence.rs`
//! proves it);
//! the recorded statement trace interleaves each round's per-shard
//! statements (in shard order) with the coordinator's merge statements.
//! A failing shard statement surfaces as a typed
//! [`SqlError::Shard`](setm_sql::SqlError) naming the shard; statement
//! atomicity (an `INSERT` either fully replaces its target table or
//! leaves it untouched) means no partially-populated result table is
//! ever observable afterwards.

use crate::constraints::CompiledConstraints;
use crate::data::{Dataset, MiningParams};
use crate::miner::SqlReport;
use crate::pattern::CountRelation;
use crate::setm::driver::{drive, first_layout, Metered, Operators, Step, Totals};
use crate::setm::plan::{JoinStrategy, LiveStats, PhysicalPlan, PlanMode, Planner, PlannerConfig};
use crate::setm::shard::{partition_by_weight, resolve_threads};
use crate::setm::{RunSpec, SetmResult};
use setm_sql::{
    ExecOptions, ExecOutcome, JoinPreference, Params, Result, ShardPool, SqlEngine, SqlError,
};

/// Mine `dataset` by generating and executing the paper's SQL.
///
/// `threads` = 0 resolves to the machine's available parallelism, 1
/// forces the paper's sequential plan; mined results and the trace
/// series are identical for every value. The session topology (one
/// connection per shard) is fixed when the first statement runs, so the
/// plan's shard dimension is taken from the k = 2 plan and held for the
/// whole script; recorded per-iteration plans carry the actual session
/// count. The join strategy and sort workspace are honored per iteration
/// ([`SqlEngine::set_options`], plus a `CREATE INDEX` on `SALES` the
/// first time a session runs a nested-loop extension join). The Section
/// 4.1 script never re-sorts `R_{k-1}`: its closing `ORDER BY` is its
/// only ordering step, so every recorded plan has `reuse_sort` set,
/// whatever was planned. Trace rows reach the sink on the coordinator
/// thread only, never inside a shard session.
///
/// Constraints become `IN` / `NOT IN` conjuncts on the Section 4.1
/// statements themselves, so the set-oriented plan prunes candidates
/// inside the relational engine rather than in client code. With
/// constraints active, each extension round also runs an *audit*
/// statement — the paper's unconstrained join into a scratch table —
/// whose insert count, minus the constrained insert count, is the
/// iteration's `candidates_pruned`. Unconstrained runs execute the
/// paper's statement text byte-identically (no audit tables, no extra
/// conjuncts). With a require-constraint the caller (the [`crate::Miner`]
/// facade) hands in the remapped dataset, so the anchor literals in the
/// emitted SQL are the remapped item ids `0, 1, ..`.
///
/// This is the low-level execution behind [`crate::Backend::Sql`];
/// prefer driving it through the [`crate::Miner`] facade, which
/// validates inputs and returns the shared [`crate::MiningOutcome`] /
/// [`crate::SetmError`] types.
pub fn execute(
    dataset: &Dataset,
    params: &MiningParams,
    spec: &RunSpec,
) -> Result<(SetmResult, SqlReport)> {
    let planner =
        Planner::new(spec.plan_mode, PlannerConfig::with_max_shards(resolve_threads(spec.threads)));
    let sales = LiveStats::of_sales(dataset.transactions().map(|(_, items)| items.len()));
    let layout = first_layout(&planner, sales);
    if layout <= 1 {
        let mut session = SqlEngine::new();
        // Loading is data preparation, not SQL mining, so it uses the
        // bulk API.
        let rows = dataset.sales_rows();
        session.load_table("SALES", &["trans_id", "item"], rows.iter().map(|r| r.as_slice()))?;
        let mut ops = Session { engine: session, statements: Vec::new(), sales };
        let result = drive(&mut ops, Totals::of(dataset, spec), params, &planner, spec)?;
        Ok((result, SqlReport { statements: ops.statements }))
    } else {
        mine_sharded(dataset, params, layout, &planner, &|_, _| {}, spec)
    }
}

/// Test seam: run the partitioned plan with a per-shard preparation hook
/// (e.g. injecting pager faults into one shard). Not part of the stable
/// API.
#[doc(hidden)]
pub fn mine_sharded_with_prepare(
    dataset: &Dataset,
    params: &MiningParams,
    threads: usize,
    prepare: &(dyn Fn(usize, &mut SqlEngine) + Sync),
) -> Result<(SetmResult, SqlReport)> {
    let threads = resolve_threads(threads).min(dataset.n_transactions().max(1) as usize);
    let planner = Planner::new(PlanMode::Auto, PlannerConfig::with_max_shards(threads));
    mine_sharded(dataset, params, threads, &planner, prepare, &RunSpec::default())
}

/// The partitioned plan over `shards` sessions, each prepared by
/// `prepare` after its `SALES` slice is loaded.
fn mine_sharded(
    dataset: &Dataset,
    params: &MiningParams,
    shards: usize,
    planner: &Planner,
    prepare: &(dyn Fn(usize, &mut SqlEngine) + Sync),
    spec: &RunSpec,
) -> Result<(SetmResult, SqlReport)> {
    // Contiguous trans_id shards, weight-balanced by row count — the
    // same partitioner as the in-memory and paged-engine executions.
    let weights: Vec<usize> = dataset.transactions().map(|(_, items)| items.len()).collect();
    let ranges = partition_by_weight(&weights, shards);
    let mut pool = ShardPool::new(ranges.len());
    let mut txns = dataset.transactions();
    for (i, range) in ranges.iter().enumerate() {
        let mut rows: Vec<[u32; 2]> = Vec::new();
        for (tid, items) in txns.by_ref().take(range.len()) {
            rows.extend(items.iter().map(|&it| [tid, it]));
        }
        // Each shard's slice of SALES — data preparation, like the
        // sequential load.
        let columns = ["trans_id", "item"];
        pool.shard_mut(i).load_table("SALES", &columns, rows.iter().map(|r| r.as_slice()))?;
        prepare(i, pool.shard_mut(i));
    }
    let mut ops = Sharded {
        pool,
        merge: SqlEngine::new(),
        statements: Vec::new(),
        sales: LiveStats::of_sales(weights),
    };
    let result = drive(&mut ops, Totals::of(dataset, spec), params, planner, spec)?;
    Ok((result, SqlReport { statements: ops.statements }))
}

/// The paper's sequential Section 4.1 plan on a single session. The
/// emitted statement text is byte-identical to the pre-parallel
/// releases' whenever the planner keeps the merge-scan join —
/// `threads(1)` *is* the paper's plan; a nested-loop iteration adds only
/// its `CREATE INDEX` DDL to the trace.
struct Session {
    engine: SqlEngine,
    statements: Vec<String>,
    sales: LiveStats,
}

impl Operators for Session {
    type Error = SqlError;

    /// C1 — the Section 3.1 query, verbatim (a constrained run inserts
    /// its anchor/exclusion predicate as a WHERE clause).
    fn count_c1(&mut self, min_count: u64, spec: &RunSpec) -> Result<(CountRelation, Metered)> {
        let (engine, stmts) = (&mut self.engine, &mut self.statements);
        count_c1_round(engine, stmts, &minsupport(min_count), "C1", spec.constraints, true)?;
        Ok((read_counts(engine, 1)?, Metered::default()))
    }

    fn sales_stats(&self) -> LiveStats {
        self.sales
    }

    fn iterate(
        &mut self,
        k: usize,
        plan: &mut PhysicalPlan,
        min_count: u64,
        spec: &RunSpec,
    ) -> Result<Step> {
        // One session: the shard dimension is pinned to it, and the
        // closing ORDER BY is the script's only ordering step.
        plan.shards = 1;
        plan.reuse_sort = true;
        let (engine, stmts, bind) = (&mut self.engine, &mut self.statements, minsupport(min_count));
        let prev = if k == 2 { "SALES".to_string() } else { format!("R{}", k - 1) };
        let rk_prime = format!("R{k}_PRIME");
        let tables = [rk_prime.as_str(), &prev, &format!("R{k}_AUDIT")];
        let (r_prime_tuples, audited) =
            extend_round(engine, stmts, &bind, k, plan, spec.constraints, tables)?;
        // C_k — group, count, apply minimum support (Section 4.1).
        count_round(engine, stmts, &bind, &format!("C{k}"), &rk_prime, k, true)?;
        let c_k = read_counts(engine, k)?;
        let r_tuples = filter_round(engine, stmts, &bind, k, &rk_prime, &format!("R{k}"))?;
        Ok(Step {
            c_k,
            r_prime_tuples,
            r_tuples,
            pruned: audited.saturating_sub(r_prime_tuples),
            io: Metered::default(),
        })
    }
}

/// The partitioned Section 4.1 plan: per-shard statement pipelines run
/// concurrently (one session per shard), shard-local counts merged by a
/// coordinator `GROUP BY … HAVING SUM(cnt) >= :minsupport`, the merged
/// `C_k` broadcast back for the per-shard filter. See the module docs.
struct Sharded {
    pool: ShardPool,
    /// The coordinator session: merges shard-local count partials and
    /// holds the authoritative C_k tables.
    merge: SqlEngine,
    statements: Vec<String>,
    sales: LiveStats,
}

impl Operators for Sharded {
    type Error = SqlError;

    /// Shard-local item counts, *without* HAVING: the support threshold
    /// is global, so it applies only at the coordinator merge.
    fn count_c1(&mut self, min_count: u64, spec: &RunSpec) -> Result<(CountRelation, Metered)> {
        let bind = minsupport(min_count);
        let shard_stmts = self.pool.run(|i, engine| {
            let mut stmts = Vec::new();
            let part = format!("C1_PART_{i}");
            count_c1_round(engine, &mut stmts, &bind, &part, spec.constraints, false)?;
            Ok(stmts)
        })?;
        self.statements.extend(shard_stmts.into_iter().flatten());
        let c1 =
            merge_shard_counts(&mut self.merge, &mut self.pool, &mut self.statements, &bind, 1)?;
        Ok((c1, Metered::default()))
    }

    fn sales_stats(&self) -> LiveStats {
        self.sales
    }

    fn iterate(
        &mut self,
        k: usize,
        plan: &mut PhysicalPlan,
        min_count: u64,
        spec: &RunSpec,
    ) -> Result<Step> {
        // The session topology is fixed at connect time: the shard
        // dimension is pinned to the pool. The closing ORDER BY is the
        // script's only ordering step.
        plan.shards = self.pool.len();
        plan.reuse_sort = true;
        let (plan, bind) = (*plan, minsupport(min_count));

        // Phase 1 (parallel): extension join + local counts per shard,
        // via the plan's access path.
        let phase1 = self.pool.run(|i, engine| {
            let mut stmts = Vec::new();
            let prev = if k == 2 { "SALES".to_string() } else { format!("R{}_SHARD_{i}", k - 1) };
            let rk_prime = format!("R{k}_PRIME_SHARD_{i}");
            let tables = [rk_prime.as_str(), &prev, &format!("R{k}_AUDIT_SHARD_{i}")];
            let (r_prime, audited) =
                extend_round(engine, &mut stmts, &bind, k, &plan, spec.constraints, tables)?;
            count_round(engine, &mut stmts, &bind, &format!("C{k}_PART_{i}"), &rk_prime, k, false)?;
            Ok((stmts, r_prime, audited))
        })?;
        let r_prime_tuples: u64 = phase1.iter().map(|(_, n, _)| n).sum();
        let audited: u64 = phase1.iter().map(|(_, _, a)| a).sum();
        self.statements.extend(phase1.into_iter().flat_map(|(stmts, _, _)| stmts));

        // Global C_k: union the partials, SUM-merge under the threshold
        // on the coordinator.
        let c_k =
            merge_shard_counts(&mut self.merge, &mut self.pool, &mut self.statements, &bind, k)?;

        // Phase 2 (parallel): broadcast C_k (data movement, like the
        // SALES load), filter + ORDER BY per shard, drop R'_k.
        let c_rows = c_k.to_engine_rows();
        let columns = count_table_cols(k);
        let phase2 = self.pool.run(|i, engine| {
            let mut stmts = Vec::new();
            engine.set_options(merge_options(plan.sort_buffer_pages));
            let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
            engine.load_table(&format!("C{k}"), &col_refs, c_rows.iter().map(|r| r.as_slice()))?;
            let (rk_prime, r_k) = (format!("R{k}_PRIME_SHARD_{i}"), format!("R{k}_SHARD_{i}"));
            let r_rows = filter_round(engine, &mut stmts, &bind, k, &rk_prime, &r_k)?;
            Ok((stmts, r_rows))
        })?;
        let r_tuples: u64 = phase2.iter().map(|(_, n)| n).sum();
        self.statements.extend(phase2.into_iter().flat_map(|(stmts, _)| stmts));
        Ok(Step {
            c_k,
            r_prime_tuples,
            r_tuples,
            pruned: audited.saturating_sub(r_prime_tuples),
            io: Metered::default(),
        })
    }
}

/// The bind parameters of every statement: `:minsupport`.
fn minsupport(min_count: u64) -> Params {
    Params::new().with("minsupport", min_count)
}

/// Execute one statement on a session, recording its text (recorded even
/// on failure, so a trace always shows the statement that broke).
fn exec_on(
    engine: &mut SqlEngine,
    statements: &mut Vec<String>,
    bind: &Params,
    sql: String,
) -> Result<ExecOutcome> {
    let outcome = engine.execute(&sql, bind);
    statements.push(sql);
    outcome
}

/// Rows an `INSERT` wrote.
fn inserted(outcome: ExecOutcome) -> u64 {
    match outcome {
        ExecOutcome::Inserted(n) => n,
        _ => 0,
    }
}

/// `C_1` into `target` — Section 3.1's count over `SALES`, with the
/// threshold when `having` (a shard's partial count has none: the
/// threshold is global).
fn count_c1_round(
    engine: &mut SqlEngine,
    stmts: &mut Vec<String>,
    bind: &Params,
    target: &str,
    cc: &CompiledConstraints,
    having: bool,
) -> Result<()> {
    exec_on(engine, stmts, bind, format!("CREATE TABLE {target} (item_1 INT, cnt INT)"))?;
    let c1_where = match position_clause("r1.item", 0, cc) {
        Some(clause) => format!("\nWHERE {clause}"),
        None => String::new(),
    };
    let having = if having { "\nHAVING COUNT(*) >= :minsupport" } else { "" };
    let sql = format!(
        "INSERT INTO {target}\n\
         SELECT r1.item, COUNT(*)\n\
         FROM SALES r1{c1_where}\n\
         GROUP BY r1.item{having}"
    );
    exec_on(engine, stmts, bind, sql)?;
    Ok(())
}

/// One session's extension round for iteration `k`: create `R'_k`, run
/// the Section 4.1 extension join into it via the plan's access path,
/// and — with constraints — the audit join. `tables` names `R'_k`,
/// `R_{k-1}` and the audit table. Returns the rows the join and the
/// audit inserted (0 audited when unconstrained).
fn extend_round(
    engine: &mut SqlEngine,
    stmts: &mut Vec<String>,
    bind: &Params,
    k: usize,
    plan: &PhysicalPlan,
    cc: &CompiledConstraints,
    [rk_prime, prev, audit]: [&str; 3],
) -> Result<(u64, u64)> {
    engine.set_options(merge_options(plan.sort_buffer_pages));
    exec_on(engine, stmts, bind, pattern_table(rk_prime, k))?;
    if plan.join == JoinStrategy::NestedLoop {
        prepare_nested_loop(engine, stmts, plan.sort_buffer_pages)?;
    }
    let joined = exec_on(engine, stmts, bind, extension_join(rk_prime, prev, k, cc))?;
    engine.set_options(merge_options(plan.sort_buffer_pages));
    // Audit (constrained runs only): the paper's unconstrained join
    // into a scratch table; its insert count minus the constrained one
    // is this iteration's pruned-candidate count.
    let audited = if cc.is_empty() {
        0
    } else {
        exec_on(engine, stmts, bind, pattern_table(audit, k))?;
        let none = CompiledConstraints::none();
        let audited = exec_on(engine, stmts, bind, extension_join(audit, prev, k, &none))?;
        exec_on(engine, stmts, bind, format!("DROP TABLE {audit}"))?;
        inserted(audited)
    };
    Ok((inserted(joined), audited))
}

/// `C_k` into `target`: group `source` (an `R'_k`) on its items and
/// count, applying the threshold when `having`.
fn count_round(
    engine: &mut SqlEngine,
    stmts: &mut Vec<String>,
    bind: &Params,
    target: &str,
    source: &str,
    k: usize,
    having: bool,
) -> Result<()> {
    exec_on(engine, stmts, bind, format!("CREATE TABLE {target} ({}, cnt INT)", item_defs(k)))?;
    let items = item_cols("p", k);
    let having = if having { "\nHAVING COUNT(*) >= :minsupport" } else { "" };
    let sql = format!(
        "INSERT INTO {target}\n\
         SELECT {items}, COUNT(*)\n\
         FROM {source} p\n\
         GROUP BY {items}{having}"
    );
    exec_on(engine, stmts, bind, sql)?;
    Ok(())
}

/// `R_k` into `target` — retain the tuples of `rk_prime` whose pattern
/// is in `C{k}`, sorted for the next pass (Section 4.1's final INSERT
/// with ORDER BY) — then drop the consumed `R'_k`, as the paper does.
/// Returns `|R_k|`.
fn filter_round(
    engine: &mut SqlEngine,
    stmts: &mut Vec<String>,
    bind: &Params,
    k: usize,
    rk_prime: &str,
    target: &str,
) -> Result<u64> {
    exec_on(engine, stmts, bind, pattern_table(target, k))?;
    let items = item_cols("p", k);
    let join_cond: String =
        (1..=k).map(|i| format!("p.item_{i} = q.item_{i}")).collect::<Vec<_>>().join(" AND ");
    let sql = format!(
        "INSERT INTO {target}\n\
         SELECT p.trans_id, {items}\n\
         FROM {rk_prime} p, C{k} q\n\
         WHERE {join_cond}\n\
         ORDER BY p.trans_id, {items}"
    );
    let r_rows = inserted(exec_on(engine, stmts, bind, sql)?);
    exec_on(engine, stmts, bind, format!("DROP TABLE {rk_prime}"))?;
    Ok(r_rows)
}

/// The Section 4.1 extension join `R'_k := R_{k-1} ⋈ SALES` into
/// `target`, with the constraint conjuncts appended to the paper's
/// `WHERE` clause (none for an unconstrained run, keeping the text the
/// paper's). The k = 2 join reads prefixes from the *unfiltered*
/// `SALES`, so position 0 is constrained there too; for k >= 3 the
/// prefix is already clean (`R_{k-1}` was filtered against the anchored
/// `C_{k-1}`).
fn extension_join(target: &str, prev: &str, k: usize, cc: &CompiledConstraints) -> String {
    let (prev_items, prev_last) = if k == 2 {
        ("p.item".to_string(), "p.item".to_string())
    } else {
        (item_cols("p", k - 1), format!("p.item_{}", k - 1))
    };
    let mut extra = String::new();
    let prefix = if k == 2 { position_clause("p.item", 0, cc) } else { None };
    for clause in prefix.into_iter().chain(position_clause("q.item", k - 1, cc)) {
        extra.push_str(" AND ");
        extra.push_str(&clause);
    }
    format!(
        "INSERT INTO {target}\n\
         SELECT p.trans_id, {prev_items}, q.item\n\
         FROM {prev} p, SALES q\n\
         WHERE q.trans_id = p.trans_id AND q.item > {prev_last}{extra}"
    )
}

/// The compiled-constraint conjunct for one pattern position, as SQL
/// over `col`: `IN` pinning an anchored position to its anchor item,
/// `NOT IN` rejecting the exclusion list at a free position, or nothing
/// when the position is unconstrained.
fn position_clause(col: &str, pos: usize, cc: &CompiledConstraints) -> Option<String> {
    if pos < cc.anchor_len() {
        Some(format!("{col} IN ({pos})"))
    } else if !cc.excluded().is_empty() {
        let list = cc.excluded().iter().map(|i| i.to_string()).collect::<Vec<_>>().join(", ");
        Some(format!("{col} NOT IN ({list})"))
    } else {
        None
    }
}

/// The probe index a nested-loop plan creates on each session's `SALES`
/// (the Section 3.2 transaction index). Recorded in the statement trace
/// the first time a session builds it.
const SALES_INDEX: &str = "SALES_TID_ITEM";

/// Build the `(trans_id, item)` index on a session's `SALES` if it does
/// not exist yet, recording the DDL in the statement trace; then aim the
/// planner preference at it for the next statement.
fn prepare_nested_loop(
    engine: &mut SqlEngine,
    statements: &mut Vec<String>,
    sort_buffer_pages: usize,
) -> Result<()> {
    if engine.database().find_index_on("SALES", &[0]).is_none() {
        engine.database_mut().create_index(SALES_INDEX, "SALES", &["trans_id", "item"])?;
        statements.push(format!("CREATE INDEX {SALES_INDEX} ON SALES (trans_id, item)"));
    }
    engine.set_options(ExecOptions { join: JoinPreference::IndexNestedLoop, sort_buffer_pages });
    Ok(())
}

/// Per-iteration session options for everything except a nested-loop
/// extension join: explicit sort-merge (what the default preference
/// resolves to on an index-free session) at the plan's sort workspace.
fn merge_options(sort_buffer_pages: usize) -> ExecOptions {
    ExecOptions { join: JoinPreference::SortMerge, sort_buffer_pages }
}

/// `CREATE TABLE {name} (trans_id INT, item_1 INT, .., item_k INT)` —
/// the shape of every `R'_k`, `R_k` and audit table.
fn pattern_table(name: &str, k: usize) -> String {
    format!("CREATE TABLE {name} (trans_id INT, {})", item_defs(k))
}

/// Column definitions `item_1 INT, .., item_k INT`.
fn item_defs(k: usize) -> String {
    (1..=k).map(|i| format!("item_{i} INT")).collect::<Vec<_>>().join(", ")
}

/// Column list `item_1, .., item_k` with an optional qualifier.
fn item_cols(qualifier: &str, k: usize) -> String {
    (1..=k)
        .map(|i| {
            if qualifier.is_empty() {
                format!("item_{i}")
            } else {
                format!("{qualifier}.item_{i}")
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Column names `item_1, .., item_k, cnt` (the shape of every count
/// table), owned, for bulk loads.
fn count_table_cols(k: usize) -> Vec<String> {
    (1..=k).map(|i| format!("item_{i}")).chain(std::iter::once("cnt".to_string())).collect()
}

/// The coordinator half of a partitioned `GROUP BY`: ship every shard's
/// `C{k}_PART_{i}` rows into one `C{k}_PARTS` table (the `UNION ALL`,
/// done as bulk data movement), then apply the global threshold with one
/// `GROUP BY … HAVING SUM(cnt) >= :minsupport` merge statement and read
/// the result back. Each partial is a grouped output, already in pattern
/// order, so the shipment merges them in that order (the order-preserving
/// exchange of a parallel `GROUP BY`): the load records `C{k}_PARTS` as
/// sorted, and the merge statement sums it without sorting it.
fn merge_shard_counts(
    merge: &mut SqlEngine,
    pool: &mut ShardPool,
    statements: &mut Vec<String>,
    bind: &Params,
    k: usize,
) -> Result<CountRelation> {
    let mut partials: Vec<Vec<u32>> = Vec::with_capacity(pool.len());
    for i in 0..pool.len() {
        // Reading a shard's partials touches that shard's storage, so a
        // fault here must still name the shard (same contract as
        // `ShardPool::run`).
        let shard_err = |e: SqlError| SqlError::Shard { shard: i, source: Box::new(e) };
        let table = pool
            .shard_mut(i)
            .database()
            .table(&format!("C{k}_PART_{i}"))
            .map_err(|e| shard_err(e.into()))?;
        partials.push(table.file.read_all().map_err(|e| shard_err(e.into()))?);
    }
    let union_rows = merge_in_order(&partials, k + 1);
    let col_names = count_table_cols(k);
    let col_refs: Vec<&str> = col_names.iter().map(String::as_str).collect();
    merge.load_table(&format!("C{k}_PARTS"), &col_refs, union_rows.chunks_exact(k + 1))?;

    let items = item_cols("p", k);
    exec_on(merge, statements, bind, format!("CREATE TABLE C{k} ({}, cnt INT)", item_defs(k)))?;
    exec_on(
        merge,
        statements,
        bind,
        format!(
            "INSERT INTO C{k}\n\
             SELECT {items}, SUM(p.cnt)\n\
             FROM C{k}_PARTS p\n\
             GROUP BY {items}\n\
             HAVING SUM(p.cnt) >= :minsupport"
        ),
    )?;
    exec_on(merge, statements, bind, format!("DROP TABLE C{k}_PARTS"))?;
    read_counts(merge, k)
}

/// Merge flat row-major runs of `arity`-wide rows, each in ascending row
/// order, into one buffer in ascending row order.
fn merge_in_order(runs: &[Vec<u32>], arity: usize) -> Vec<u32> {
    let mut heads = vec![0usize; runs.len()];
    let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    let row = |run: usize, at: usize| &runs[run][at..at + arity];
    while let Some(next) = (0..runs.len())
        .filter(|&i| heads[i] < runs[i].len())
        .min_by(|&a, &b| row(a, heads[a]).cmp(row(b, heads[b])))
    {
        out.extend_from_slice(row(next, heads[next]));
        heads[next] += arity;
    }
    out
}

/// Read `C_k` back into memory. Its rows are already in lexicographic
/// pattern order (the grouped output is sorted on the group columns).
fn read_counts(engine: &mut SqlEngine, k: usize) -> Result<CountRelation> {
    let cols = item_cols("", k);
    let rows = engine.query(&format!("SELECT {cols}, cnt FROM C{k}"), &Params::new())?;
    let mut c = CountRelation::new(k);
    for row in &rows.rows {
        c.push(&row[..k], row[k] as u64);
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, MinSupport, MiningParams};
    use crate::example;
    use crate::setm::memory;

    /// One auto-planned SQL run at `threads`.
    fn run(d: &Dataset, params: &MiningParams, threads: usize) -> (SetmResult, SqlReport) {
        execute(d, params, &RunSpec { threads, ..Default::default() }).unwrap()
    }

    #[test]
    fn sql_run_matches_memory_on_worked_example() {
        let d = example::paper_example_dataset();
        let params = example::paper_example_params();
        let mem = memory::execute(&d, &params, &RunSpec::default());
        let sql = run(&d, &params, 1);
        assert_eq!(sql.0.frequent_itemsets(), mem.frequent_itemsets());
        // Tuple counts per iteration agree (|R'_k|, |R_k|, |C_k|).
        for (a, b) in mem.trace.iter().zip(sql.0.trace.iter()) {
            assert_eq!(
                (a.k, a.r_prime_tuples, a.r_tuples, a.c_len),
                (b.k, b.r_prime_tuples, b.r_tuples, b.c_len)
            );
        }
    }

    #[test]
    fn emitted_sql_is_the_papers_text() {
        let d = example::paper_example_dataset();
        let sql = run(&d, &example::paper_example_params(), 1);
        let all = sql.1.statements.join("\n---\n");
        // The Section 3.1 C1 query.
        assert!(all.contains("HAVING COUNT(*) >= :minsupport"));
        // The Section 4.1 extension join.
        assert!(all.contains("WHERE q.trans_id = p.trans_id AND q.item > p.item"));
        // The Section 4.1 filter with ORDER BY.
        assert!(all.contains("ORDER BY p.trans_id"));
        // Three iterations of tables were created.
        assert!(all.contains("CREATE TABLE R3"));
        // The sequential plan stays the paper's: no shard tables.
        assert!(!all.contains("SHARD"));
    }

    #[test]
    fn partitioned_run_matches_sequential_on_worked_example() {
        let d = example::paper_example_dataset();
        let params = example::paper_example_params();
        let seq = run(&d, &params, 1);
        for threads in [2usize, 3, 4, 8] {
            let par = run(&d, &params, threads);
            assert_eq!(par.0.frequent_itemsets(), seq.0.frequent_itemsets(), "threads={threads}");
            assert_eq!(par.0.trace.len(), seq.0.trace.len());
            for (a, b) in seq.0.trace.iter().zip(par.0.trace.iter()) {
                assert_eq!(
                    (a.k, a.r_prime_tuples, a.r_tuples, a.c_len),
                    (b.k, b.r_prime_tuples, b.r_tuples, b.c_len),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn partitioned_statements_name_shards_and_merge_with_sum() {
        let d = example::paper_example_dataset();
        let sql = run(&d, &example::paper_example_params(), 2);
        let all = sql.1.statements.join("\n---\n");
        assert!(all.contains("R2_PRIME_SHARD_0"), "{all}");
        assert!(all.contains("R2_PRIME_SHARD_1"), "{all}");
        assert!(all.contains("C1_PART_0"), "{all}");
        assert!(all.contains("HAVING SUM(p.cnt) >= :minsupport"), "{all}");
        // Shard-local counts carry no threshold — it is global.
        assert!(
            !all.contains("COUNT(*)\nFROM R2_PRIME_SHARD_0 p\nGROUP BY p.item_1, p.item_2\nHAVING")
        );
    }

    #[test]
    fn sql_run_matches_memory_on_pseudorandom_data() {
        let mut txns = Vec::new();
        let mut state = 12345u32;
        for tid in 0..40u32 {
            let mut items = Vec::new();
            for _ in 0..5 {
                state = state.wrapping_mul(1103515245).wrapping_add(12345);
                items.push(1 + (state >> 16) % 10);
            }
            items.sort_unstable();
            items.dedup();
            txns.push((tid, items));
        }
        let d = Dataset::from_transactions(txns.iter().map(|(t, i)| (*t, i.as_slice())));
        let params = MiningParams::new(MinSupport::Fraction(0.15), 0.5);
        let mem = memory::execute(&d, &params, &RunSpec::default());
        for threads in [1usize, 4] {
            let sql = run(&d, &params, threads);
            assert_eq!(sql.0.frequent_itemsets(), mem.frequent_itemsets(), "threads={threads}");
        }
    }

    #[test]
    fn shard_partials_merge_in_row_order() {
        let runs = [vec![1, 2, 5, 4, 1, 3], vec![], vec![1, 2, 7, 2, 0, 1, 9, 9, 1]];
        let merged = merge_in_order(&runs, 3);
        let mut expect: Vec<&[u32]> = runs.iter().flat_map(|r| r.chunks_exact(3)).collect();
        expect.sort();
        assert_eq!(merged, expect.concat());
    }

    #[test]
    fn empty_dataset_is_handled() {
        let d = Dataset::from_pairs(std::iter::empty());
        for threads in [1usize, 4] {
            let (result, _) = run(&d, &MiningParams::new(MinSupport::Count(1), 0.5), threads);
            assert_eq!(result.max_pattern_len(), 0);
        }
    }
}
