//! Planner and materializing executor.
//!
//! Single-block queries are executed as the paper's analysis assumes a
//! relational engine would: left-deep joins in `FROM` order, each join
//! either **sort-merge** (sort both sides on the equi-join key unless the
//! catalog already knows them sorted, then one merge-scan) or **index
//! nested-loop** (probe a covering B+-tree per outer row), followed by
//! residual filters, sort-based grouping with `COUNT(*)`/`HAVING`,
//! projection and `ORDER BY`. Every intermediate is a heap file on the
//! shared pager, so a query's page accesses are measurable.
//!
//! The join-strategy knob ([`JoinPreference`]) is how the two plans of
//! Sections 3 and 4 are realized from the *same* SQL.

use crate::ast::*;
use crate::error::{Result, SqlError};
use crate::parser::parse;
use setm_relational::agg::{filter_project, grouped_count, grouped_sum};
use setm_relational::engine::Database;
use setm_relational::heap::{HeapFile, HeapFileBuilder};
use setm_relational::join::{index_nested_loop_join, merge_scan_join};
use setm_relational::schema::Schema;
use setm_relational::sort::{external_sort, SortOptions};
use std::collections::HashMap;

/// Which join algorithm the planner should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinPreference {
    /// Index nested-loop when a covering index exists, else sort-merge.
    #[default]
    Auto,
    /// Always sort-merge (the Section 4 plan).
    SortMerge,
    /// Index nested-loop; error if no covering index exists (the
    /// Section 3 plan).
    IndexNestedLoop,
}

/// Planner/executor options.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    pub join: JoinPreference,
    /// Buffer pages for sorts (0 = the sorter's default).
    pub sort_buffer_pages: usize,
}

impl ExecOptions {
    fn sort_options(&self) -> SortOptions {
        if self.sort_buffer_pages == 0 {
            SortOptions::default()
        } else {
            SortOptions { buffer_pages: self.sort_buffer_pages }
        }
    }
}

/// Named parameter bindings (`:minsupport` etc.).
#[derive(Debug, Clone, Default)]
pub struct Params(HashMap<String, u64>);

impl Params {
    /// No bindings.
    pub fn new() -> Self {
        Params(HashMap::new())
    }

    /// Bind `name` to `value` (builder style).
    pub fn with(mut self, name: &str, value: u64) -> Self {
        self.0.insert(name.to_string(), value);
        self
    }

    fn get(&self, name: &str) -> Result<u64> {
        self.0.get(name).copied().ok_or_else(|| SqlError::UnboundParam(name.to_string()))
    }
}

/// A materialized query result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Output column names (aggregates are named `count`).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<u32>>,
}

/// What executing a statement produced.
#[derive(Debug)]
pub enum ExecOutcome {
    /// `CREATE TABLE` succeeded.
    Created,
    /// `DROP TABLE` succeeded.
    Dropped,
    /// `INSERT` added this many rows.
    Inserted(u64),
    /// `SELECT` rows.
    Rows(QueryResult),
}

/// A SQL session over a [`Database`].
pub struct SqlEngine {
    db: Database,
    opts: ExecOptions,
}

impl SqlEngine {
    /// A session over a fresh database.
    pub fn new() -> Self {
        SqlEngine { db: Database::new(), opts: ExecOptions::default() }
    }

    /// Set planner options.
    pub fn set_options(&mut self, opts: ExecOptions) {
        self.opts = opts;
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the underlying database (bulk loading, indexes).
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Bulk-load rows into a table without going through `INSERT`
    /// statements (data loading is not part of any measured query).
    pub fn load_table<'a, I: IntoIterator<Item = &'a [u32]>>(
        &mut self,
        name: &str,
        columns: &[&str],
        rows: I,
    ) -> Result<()> {
        let schema = Schema::new(columns.iter().copied());
        if self.db.has_table(name) {
            self.db.drop_table(name)?;
        }
        self.db.create_table_from_rows(name, schema, rows)?;
        Ok(())
    }

    /// Parse and execute one statement.
    pub fn execute(&mut self, sql: &str, params: &Params) -> Result<ExecOutcome> {
        let stmt = parse(sql)?;
        self.execute_statement(&stmt, params)
    }

    /// Describe the physical plan the executor would run for a `SELECT`,
    /// without executing it — the Section 3-vs-4 plan difference, visible.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let stmt = parse(sql)?;
        let select = match &stmt {
            Statement::Select(s) => s,
            Statement::InsertSelect { select, .. } => select,
            _ => return Err(SqlError::Plan("EXPLAIN requires a SELECT".into())),
        };
        let plan = Resolver::new(&self.db).resolve(select)?;
        let mut out = String::new();
        out.push_str(&format!("scan {}\n", plan.tables[0].table));
        for (binding, step) in plan.tables.iter().skip(1).zip(plan.join_steps.iter()) {
            let strategy = match self.opts.join {
                JoinPreference::SortMerge => "merge-scan join",
                JoinPreference::IndexNestedLoop => "index nested-loop join",
                JoinPreference::Auto => {
                    if !step.left_keys.is_empty()
                        && self.db.find_index_on(&binding.table, &step.right_keys).is_some_and(
                            |idx| {
                                self.db
                                    .table(&binding.table)
                                    .map(|t| idx.key_cols.len() == t.schema.arity())
                                    .unwrap_or(false)
                            },
                        )
                    {
                        "index nested-loop join"
                    } else {
                        "merge-scan join"
                    }
                }
            };
            out.push_str(&format!(
                "{} {} on left{:?} = right{:?}{}\n",
                strategy,
                binding.table,
                step.left_keys,
                step.right_keys,
                if step.residuals.is_empty() {
                    String::new()
                } else {
                    format!(" + {} residual predicate(s)", step.residuals.len())
                }
            ));
        }
        if !plan.filters.is_empty()
            || !plan.cross_filters.is_empty()
            || !plan.set_filters.is_empty()
        {
            out.push_str(&format!(
                "filter: {} constant, {} column-column, {} set-membership\n",
                plan.filters.len(),
                plan.cross_filters.len(),
                plan.set_filters.len()
            ));
        }
        if plan.has_agg() || !plan.group_cols.is_empty() {
            out.push_str(&format!(
                "sort + group {} on columns {:?}{}\n",
                if plan.sum_col.is_some() { "sum" } else { "count" },
                plan.group_cols,
                if plan.having_rhs.is_some() { " with HAVING" } else { "" }
            ));
        }
        if !plan.order_positions.is_empty() {
            out.push_str(&format!("sort output on positions {:?}\n", plan.order_positions));
        }
        Ok(out)
    }

    /// Execute a `SELECT` and materialize its rows.
    pub fn query(&mut self, sql: &str, params: &Params) -> Result<QueryResult> {
        match self.execute(sql, params)? {
            ExecOutcome::Rows(r) => Ok(r),
            _ => Err(SqlError::Plan("statement did not produce rows".into())),
        }
    }

    /// Execute an already-parsed statement.
    pub fn execute_statement(&mut self, stmt: &Statement, params: &Params) -> Result<ExecOutcome> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                let schema = Schema::new(columns.iter().cloned());
                self.db.create_table(name, schema)?;
                Ok(ExecOutcome::Created)
            }
            Statement::DropTable { name } => {
                self.db.drop_table(name)?;
                Ok(ExecOutcome::Dropped)
            }
            Statement::InsertValues { table, rows } => {
                let arity = self.db.table(table)?.schema.arity();
                let mut flat = Vec::with_capacity(rows.len() * arity);
                for row in rows {
                    if row.len() != arity {
                        return Err(SqlError::Engine(setm_relational::Error::ArityMismatch {
                            expected: arity,
                            got: row.len(),
                        }));
                    }
                    for &v in row {
                        flat.push(u32::try_from(v).map_err(|_| {
                            SqlError::Plan(format!(
                                "value {v} does not fit a 4-byte column (at most {})",
                                u32::MAX
                            ))
                        })?);
                    }
                }
                self.append_rows(table, arity, &flat, None)?;
                Ok(ExecOutcome::Inserted(rows.len() as u64))
            }
            Statement::InsertSelect { table, select } => {
                let out = self.run_select(select, params)?;
                let (arity, n) = (out.file.arity(), out.file.n_records());
                let rows = read_and_free(out.file)?;
                self.append_rows(table, arity, &rows, out.sorted_by)?;
                Ok(ExecOutcome::Inserted(n))
            }
            Statement::Select(select) => {
                let out = self.run_select(select, params)?;
                let arity = out.file.arity();
                let flat = read_and_free(out.file)?;
                let rows = flat.chunks_exact(arity).map(<[u32]>::to_vec).collect();
                Ok(ExecOutcome::Rows(QueryResult { columns: out.columns, rows }))
            }
        }
    }

    /// Append the flat row-major `rows` (`arity` values each) to `table`.
    /// A non-empty table is rewritten: its rows are copied page by page
    /// into a new file ahead of the new ones, which reads and writes the
    /// pages in the order a row-at-a-time copy would. Any error leaves
    /// the table as it was.
    fn append_rows(
        &mut self,
        table: &str,
        arity: usize,
        rows: &[u32],
        sorted_by: Option<Vec<usize>>,
    ) -> Result<()> {
        let t = self.db.table(table)?;
        let schema = t.schema.clone();
        if !rows.is_empty() && arity != schema.arity() {
            return Err(SqlError::Engine(setm_relational::Error::ArityMismatch {
                expected: schema.arity(),
                got: arity,
            }));
        }
        let was_empty = t.file.n_records() == 0;
        let mut builder = HeapFileBuilder::new(t.file.pager().clone(), schema.arity());
        let mut page = Vec::new();
        for pno in 0..t.file.n_pages() {
            page.clear();
            t.file.read_page_into(pno, &mut page)?;
            builder.extend_flat(&page)?;
        }
        builder.extend_flat(rows)?;
        let file = builder.finish()?;
        // Sort order is only trustworthy when the insert fully defines the
        // table contents.
        let sorted = if was_empty { sorted_by } else { None };
        self.db.replace_table(table, schema, file, sorted)?;
        Ok(())
    }

    fn run_select(&mut self, select: &Select, params: &Params) -> Result<SelectOutput> {
        let plan = Resolver::new(&self.db).resolve(select)?;
        self.execute_plan(&plan, select, params)
    }

    fn execute_plan(
        &mut self,
        plan: &ResolvedSelect,
        select: &Select,
        params: &Params,
    ) -> Result<SelectOutput> {
        let sort_opts = self.opts.sort_options();

        // 1. Left-deep join pipeline in FROM order.
        let first = self.db.table(&plan.tables[0].table)?;
        let mut current =
            Working { file: first.file.clone(), owned: false, sorted_by: first.sorted_by.clone() };
        for (idx, binding) in plan.tables.iter().enumerate().skip(1) {
            let step = &plan.join_steps[idx - 1];
            current = self.join_step(current, binding, step, sort_opts, params)?;
        }

        // 2. Residual filters (single-table ones included; correctness
        // over micro-optimization).
        if !plan.filters.is_empty()
            || !plan.cross_filters.is_empty()
            || !plan.set_filters.is_empty()
        {
            let bound: Vec<(usize, CmpOp, u64)> = plan
                .filters
                .iter()
                .map(|f| Ok((f.col, f.op, eval_const(&f.rhs, params)?)))
                .collect::<Result<_>>()?;
            let cross: Vec<(usize, CmpOp, usize)> = plan.cross_filters.clone();
            let sets: Vec<SetFilter> = plan.set_filters.clone();
            let arity = current.file.arity();
            let all: Vec<usize> = (0..arity).collect();
            let filtered = filter_project(&current.file, &all, |row| {
                bound.iter().all(|&(c, op, v)| op.eval(row[c] as u64, v))
                    && cross.iter().all(|&(a, op, b)| op.eval(row[a] as u64, row[b] as u64))
                    && sets.iter().all(|s| s.matches(row[s.col] as u64))
            })?;
            let sorted_by = current.sorted_by.clone();
            current.free()?;
            current = Working { file: filtered, owned: true, sorted_by };
        }

        // 3. Grouping / aggregation.
        let (mut out_file, out_cols, owned, mut sorted_cols): (
            HeapFile,
            Vec<String>,
            bool,
            Option<Vec<usize>>,
        );
        if plan.has_agg() || !plan.group_cols.is_empty() {
            let grouped = self.group_and_count(&current, plan, select, params, sort_opts)?;
            current.free()?;
            // Project SELECT items out of (group cols..., aggregate).
            let mut positions = Vec::with_capacity(plan.items.len());
            let mut names = Vec::with_capacity(plan.items.len());
            for item in &plan.items {
                match item {
                    ResolvedItem::GroupCol(i, name) => {
                        positions.push(*i);
                        names.push(name.clone());
                    }
                    ResolvedItem::Count => {
                        positions.push(plan.group_cols.len());
                        names.push("count".to_string());
                    }
                    ResolvedItem::Sum => {
                        positions.push(plan.group_cols.len());
                        names.push("sum".to_string());
                    }
                    ResolvedItem::FlatCol(..) => {
                        return Err(SqlError::Plan(
                            "non-grouped column in an aggregate query".into(),
                        ))
                    }
                }
            }
            let identity = positions.iter().copied().eq(0..grouped.arity());
            if identity {
                out_file = grouped;
            } else {
                let projected = filter_project(&grouped, &positions, |_| true)?;
                grouped.free()?;
                out_file = projected;
            }
            out_cols = names;
            owned = true;
            // Grouped output is sorted by group columns; map to output
            // positions when the projection is the identity.
            sorted_cols = identity.then(|| (0..plan.group_cols.len()).collect());
        } else {
            // Plain projection.
            let mut positions = Vec::with_capacity(plan.items.len());
            let mut names = Vec::with_capacity(plan.items.len());
            for item in &plan.items {
                match item {
                    ResolvedItem::FlatCol(i, name) => {
                        positions.push(*i);
                        names.push(name.clone());
                    }
                    ResolvedItem::Count | ResolvedItem::Sum | ResolvedItem::GroupCol(..) => {
                        unreachable!()
                    }
                }
            }
            let identity = positions.iter().copied().eq(0..current.file.arity()) && current.owned;
            if identity {
                out_file = current.file.clone();
                sorted_cols = current.sorted_by.clone();
            } else {
                let projected = filter_project(&current.file, &positions, |_| true)?;
                // Sort order survives projection if the sorted prefix maps
                // into projected positions; conservatively recompute.
                sorted_cols = current.sorted_by.as_ref().and_then(|s| {
                    let mapped: Option<Vec<usize>> =
                        s.iter().map(|c| positions.iter().position(|p| p == c)).collect();
                    mapped
                });
                current.free()?;
                out_file = projected;
            }
            out_cols = names;
            owned = true;
        }

        // 4. ORDER BY.
        if !plan.order_positions.is_empty() {
            let already = sorted_cols.as_ref().is_some_and(|s| {
                s.len() >= plan.order_positions.len()
                    && s[..plan.order_positions.len()] == plan.order_positions[..]
            });
            if !already {
                let sorted = external_sort(&out_file, &plan.order_positions, sort_opts)?;
                if owned {
                    out_file.clone().free()?;
                }
                out_file = sorted;
            }
            sorted_cols = Some(plan.order_positions.clone());
        }

        Ok(SelectOutput { file: out_file, columns: out_cols, sorted_by: sorted_cols })
    }

    fn join_step(
        &mut self,
        left: Working,
        binding: &BoundTable,
        step: &JoinStep,
        sort_opts: SortOptions,
        params: &Params,
    ) -> Result<Working> {
        let right_table = self.db.table(&binding.table)?;
        let right = Working {
            file: right_table.file.clone(),
            owned: false,
            sorted_by: right_table.sorted_by.clone(),
        };
        let out_arity = left.file.arity() + right.file.arity();
        let residuals = step.residuals.clone();
        let project = |l: &[u32], r: &[u32], out: &mut Vec<u32>| {
            out.extend_from_slice(l);
            out.extend_from_slice(r);
        };
        let residual_ok = move |l: &[u32], r: &[u32]| {
            residuals.iter().all(|&(lc, op, rc)| op.eval(l[lc] as u64, r[rc] as u64))
        };
        let _ = params;

        let use_index = match self.opts.join {
            JoinPreference::IndexNestedLoop => {
                if step.left_keys.is_empty() {
                    return Err(SqlError::Unsupported(
                        "index nested-loop join without an equi-join key".into(),
                    ));
                }
                true
            }
            JoinPreference::Auto => {
                !step.left_keys.is_empty()
                    && self
                        .db
                        .find_index_on(&binding.table, &step.right_keys)
                        .is_some_and(|idx| idx.key_cols.len() == right.file.arity())
            }
            JoinPreference::SortMerge => false,
        };

        if use_index {
            let idx = self.db.find_index_on(&binding.table, &step.right_keys).ok_or_else(|| {
                SqlError::Plan(format!(
                    "index nested-loop requested but no index on {}({:?})",
                    binding.table, step.right_keys
                ))
            })?;
            if idx.key_cols.len() != right.file.arity() {
                return Err(SqlError::Plan(format!(
                    "index on {} does not cover all columns",
                    binding.table
                )));
            }
            // The index key is a permutation of the table's columns; the
            // probe visits keys, which we un-permute back to table order.
            let key_to_table: Vec<usize> = idx.key_cols.clone();
            let right_arity = right.file.arity();
            let residual2 = step.residuals.clone();
            let out = index_nested_loop_join(
                &left.file,
                &idx.btree,
                &step.left_keys,
                out_arity,
                move |l, key| {
                    residual2.iter().all(|&(lc, op, rc)| {
                        let keypos = key_to_table
                            .iter()
                            .position(|&t| t == rc)
                            .expect("covering index contains every column");
                        op.eval(l[lc] as u64, key[keypos] as u64)
                    })
                },
                {
                    let key_to_table = idx.key_cols.clone();
                    move |l: &[u32], key: &[u32], out: &mut Vec<u32>| {
                        out.extend_from_slice(l);
                        let start = out.len();
                        out.resize(start + right_arity, 0);
                        for (kpos, &tcol) in key_to_table.iter().enumerate() {
                            out[start + tcol] = key[kpos];
                        }
                    }
                },
            )?;
            left.free()?;
            return Ok(Working { file: out, owned: true, sorted_by: None });
        }

        // Sort-merge: ensure both sides are sorted on their keys.
        let left_sorted = ensure_sorted(left, &step.left_keys, sort_opts)?;
        let right_sorted = ensure_sorted(right, &step.right_keys, sort_opts)?;
        let out = merge_scan_join(
            &left_sorted.file,
            &right_sorted.file,
            &step.left_keys,
            &step.right_keys,
            out_arity,
            residual_ok,
            project,
        )?;
        let sorted_by = step.left_keys.clone();
        left_sorted.free()?;
        right_sorted.free()?;
        Ok(Working { file: out, owned: true, sorted_by: Some(sorted_by) })
    }

    fn group_and_count(
        &mut self,
        current: &Working,
        plan: &ResolvedSelect,
        select: &Select,
        params: &Params,
        sort_opts: SortOptions,
    ) -> Result<HeapFile> {
        // Sort on the group columns unless already sorted.
        let sorted = if current.sorted_by.as_ref().is_some_and(|s| {
            s.len() >= plan.group_cols.len() && s[..plan.group_cols.len()] == plan.group_cols[..]
        }) {
            Working { file: current.file.clone(), owned: false, sorted_by: None }
        } else {
            let f = external_sort(&current.file, &plan.group_cols, sort_opts)?;
            Working { file: f, owned: true, sorted_by: None }
        };

        // HAVING <agg> >= x is pushed into the aggregating scan; other
        // comparison ops are applied afterwards.
        let (threshold, post) = match (&select.having, &plan.having_rhs) {
            (Some(h), Some(rhs)) => {
                let v = eval_const(rhs, params)?;
                match h.op {
                    CmpOp::Ge => (Some(v), None),
                    CmpOp::Gt => (Some(v + 1), None),
                    op => (None, Some((op, v))),
                }
            }
            _ => (None, None),
        };
        let counted = match plan.sum_col {
            // Every group has >= 1 row, so a count threshold of 1 is "no
            // filter"; a sum can legitimately be 0, so its floor is 0.
            None => grouped_count(&sorted.file, &plan.group_cols, threshold.unwrap_or(1).max(1))?,
            Some(sum_col) => {
                grouped_sum(&sorted.file, &plan.group_cols, sum_col, threshold.unwrap_or(0))?
            }
        };
        sorted.free()?;
        match post {
            None => Ok(counted),
            Some((op, v)) => {
                let arity = counted.arity();
                let all: Vec<usize> = (0..arity).collect();
                let filtered =
                    filter_project(&counted, &all, |row| op.eval(row[arity - 1] as u64, v))?;
                counted.free()?;
                Ok(filtered)
            }
        }
    }
}

impl Default for SqlEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// Independent SQL sessions, one per shard of a partitioned execution.
///
/// Each shard owns its own [`Database`] on its own pager — a
/// disk-per-worker deployment, mirroring the sharded paged-engine
/// execution. [`ShardPool::run`] drives all shards concurrently (one
/// scoped worker thread per shard) and wraps any shard's failure in
/// [`SqlError::Shard`], so an error always names the shard it came from.
/// This is the execution substrate of the partitioned Section 4.1 plan:
/// per-shard `INSERT INTO R_k_SHARD_<i> SELECT ...` statements run in
/// parallel, and a coordinator session merges the shard-local counts.
pub struct ShardPool {
    shards: Vec<SqlEngine>,
}

impl ShardPool {
    /// A pool of `n` fresh sessions (at least one).
    pub fn new(n: usize) -> Self {
        ShardPool { shards: (0..n.max(1)).map(|_| SqlEngine::new()).collect() }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the pool has no shards (never true — `new` floors at 1).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Exclusive access to one shard's session (loading shard tables,
    /// inspecting state, injecting faults in tests).
    pub fn shard_mut(&mut self, shard: usize) -> &mut SqlEngine {
        &mut self.shards[shard]
    }

    /// Run `f(shard_index, session)` on every shard concurrently, one
    /// scoped worker thread per shard. Results come back in shard order;
    /// on failure the lowest-indexed shard's error wins, wrapped in
    /// [`SqlError::Shard`] (statement-level atomicity means a failed
    /// shard's tables are never left partially populated — an `INSERT`
    /// either fully replaces its target or leaves it untouched).
    pub fn run<T, F>(&mut self, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize, &mut SqlEngine) -> Result<T> + Sync,
    {
        std::thread::scope(|s| {
            let f = &f;
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .enumerate()
                .map(|(i, engine)| {
                    s.spawn(move || {
                        f(i, engine).map_err(|e| SqlError::Shard { shard: i, source: Box::new(e) })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("SQL shard worker panicked")).collect()
        })
    }
}

fn eval_const(s: &Scalar, params: &Params) -> Result<u64> {
    match s {
        Scalar::Literal(v) => Ok(*v),
        Scalar::Param(p) => params.get(p),
        Scalar::Column(c) => Err(SqlError::Plan(format!("expected a constant, found column {c}"))),
    }
}

/// Read a SELECT's result file into a flat row-major buffer, then free
/// it — whether or not the read succeeded, so a failed read leaves no
/// pages behind.
fn read_and_free(file: HeapFile) -> Result<Vec<u32>> {
    let rows = file.read_all();
    file.free()?;
    Ok(rows?)
}

fn ensure_sorted(w: Working, key: &[usize], sort_opts: SortOptions) -> Result<Working> {
    let ok = key.is_empty()
        || w.sorted_by.as_ref().is_some_and(|s| s.len() >= key.len() && s[..key.len()] == key[..]);
    if ok {
        Ok(w)
    } else {
        let sorted = external_sort(&w.file, key, sort_opts)?;
        w.free()?;
        Ok(Working { file: sorted, owned: true, sorted_by: Some(key.to_vec()) })
    }
}

/// A (possibly borrowed) intermediate relation.
struct Working {
    file: HeapFile,
    /// Whether we own the file (true = free it when done; false = it
    /// belongs to a catalog table).
    owned: bool,
    sorted_by: Option<Vec<usize>>,
}

impl Working {
    fn free(&self) -> Result<()> {
        if self.owned {
            self.file.clone().free()?;
        }
        Ok(())
    }
}

struct SelectOutput {
    file: HeapFile,
    columns: Vec<String>,
    sorted_by: Option<Vec<usize>>,
}

/// A FROM-list table with its binding name.
struct BoundTable {
    table: String,
}

/// The equi-keys and residual predicates used when joining table `i` to
/// the accumulated left side.
struct JoinStep {
    /// Flat positions in the accumulated left relation.
    left_keys: Vec<usize>,
    /// Column positions in the right base table.
    right_keys: Vec<usize>,
    /// Non-equi cross predicates `(left_flat, op, right_col)`.
    residuals: Vec<(usize, CmpOp, usize)>,
}

enum ResolvedItem {
    /// Flat position + output name (non-aggregate query).
    FlatCol(usize, String),
    /// Index into the group-by list + output name (aggregate query).
    GroupCol(usize, String),
    /// COUNT(*).
    Count,
    /// SUM(col) — the summed column's flat position is `sum_col` on the
    /// plan (one SUM per query).
    Sum,
}

struct ResolvedSelect {
    tables: Vec<BoundTable>,
    join_steps: Vec<JoinStep>,
    /// Constant filters `(flat_col, op, rhs)`.
    filters: Vec<ConstFilter>,
    /// Same-relation column comparisons `(flat_a, op, flat_b)` not usable
    /// as join keys (or joining already-joined tables).
    cross_filters: Vec<(usize, CmpOp, usize)>,
    /// `IN` / `NOT IN` membership filters on flat positions.
    set_filters: Vec<SetFilter>,
    group_cols: Vec<usize>,
    having_rhs: Option<Scalar>,
    items: Vec<ResolvedItem>,
    order_positions: Vec<usize>,
    has_count: bool,
    /// Flat position of the `SUM(col)` argument, when the aggregate is a
    /// sum (mutually exclusive with `has_count`).
    sum_col: Option<usize>,
}

impl ResolvedSelect {
    /// Whether the query aggregates at all (COUNT(*) or SUM).
    fn has_agg(&self) -> bool {
        self.has_count || self.sum_col.is_some()
    }
}

struct ConstFilter {
    col: usize,
    op: CmpOp,
    rhs: Scalar,
}

/// A resolved `IN` / `NOT IN` conjunct: flat column position plus the
/// literal list. Lists are tiny (constraint anchors / exclusions), so a
/// linear scan per row is the right evaluation strategy.
#[derive(Clone)]
struct SetFilter {
    col: usize,
    items: Vec<u64>,
    negated: bool,
}

impl SetFilter {
    fn matches(&self, v: u64) -> bool {
        self.items.contains(&v) != self.negated
    }
}

/// Resolves names against the catalog and classifies predicates.
struct Resolver<'a> {
    db: &'a Database,
}

impl<'a> Resolver<'a> {
    fn new(db: &'a Database) -> Self {
        Resolver { db }
    }

    fn resolve(&self, select: &Select) -> Result<ResolvedSelect> {
        if select.from.is_empty() {
            return Err(SqlError::Plan("FROM list is empty".into()));
        }
        // Bindings: (binding name, table name, schema, flat offset).
        let mut bindings: Vec<(String, String, Schema, usize)> = Vec::new();
        let mut offset = 0usize;
        for tref in &select.from {
            let t = self.db.table(&tref.table).map_err(SqlError::Engine)?;
            bindings.push((
                tref.binding().to_string(),
                tref.table.clone(),
                t.schema.clone(),
                offset,
            ));
            offset += t.schema.arity();
        }
        let resolve_col = |c: &ColumnRef| -> Result<(usize, usize, String)> {
            // -> (table index, flat position, display name)
            match &c.qualifier {
                Some(q) => {
                    let (i, b) = bindings
                        .iter()
                        .enumerate()
                        .find(|(_, b)| &b.0 == q)
                        .ok_or_else(|| SqlError::Plan(format!("unknown table or alias {q}")))?;
                    let col = b.2.column_index(&c.column).map_err(SqlError::Engine)?;
                    Ok((i, b.3 + col, c.column.clone()))
                }
                None => {
                    let mut hits = bindings
                        .iter()
                        .enumerate()
                        .filter_map(|(i, b)| {
                            b.2.column_index(&c.column).ok().map(|col| (i, b.3 + col))
                        })
                        .collect::<Vec<_>>();
                    match hits.len() {
                        0 => Err(SqlError::Plan(format!("unknown column {}", c.column))),
                        1 => {
                            let (i, flat) = hits.pop().expect("one hit");
                            Ok((i, flat, c.column.clone()))
                        }
                        _ => Err(SqlError::Plan(format!("ambiguous column {}", c.column))),
                    }
                }
            }
        };

        // Classify predicates.
        let mut join_equis: Vec<(usize, usize, usize, usize)> = Vec::new(); // (ta, flat_a, tb, flat_b)
        let mut join_residuals: Vec<(usize, usize, CmpOp, usize, usize)> = Vec::new();
        let mut filters: Vec<ConstFilter> = Vec::new();
        let mut cross_filters: Vec<(usize, CmpOp, usize)> = Vec::new();
        for pred in &select.predicates {
            match (&pred.left, &pred.right) {
                (Scalar::Column(a), Scalar::Column(b)) => {
                    let (ta, fa, _) = resolve_col(a)?;
                    let (tb, fb, _) = resolve_col(b)?;
                    if ta == tb {
                        cross_filters.push((fa, pred.op, fb));
                    } else if pred.op == CmpOp::Eq {
                        join_equis.push((ta, fa, tb, fb));
                    } else {
                        join_residuals.push((ta, fa, pred.op, tb, fb));
                    }
                }
                (Scalar::Column(a), rhs @ (Scalar::Literal(_) | Scalar::Param(_))) => {
                    let (_, fa, _) = resolve_col(a)?;
                    filters.push(ConstFilter { col: fa, op: pred.op, rhs: rhs.clone() });
                }
                (lhs @ (Scalar::Literal(_) | Scalar::Param(_)), Scalar::Column(b)) => {
                    let (_, fb, _) = resolve_col(b)?;
                    filters.push(ConstFilter { col: fb, op: pred.op.flipped(), rhs: lhs.clone() });
                }
                _ => return Err(SqlError::Unsupported("constant-to-constant predicates".into())),
            }
        }

        // Set-membership conjuncts resolve to flat positions and apply in
        // the residual-filter stage, whichever table they constrain.
        let mut set_filters: Vec<SetFilter> = Vec::new();
        for sp in &select.set_predicates {
            let (_, flat, _) = resolve_col(&sp.col)?;
            set_filters.push(SetFilter { col: flat, items: sp.items.clone(), negated: sp.negated });
        }

        // Build left-deep join steps in FROM order. Flat positions of the
        // accumulated left side equal the global flat positions (tables
        // join in order), which keeps the bookkeeping simple.
        let mut join_steps = Vec::new();
        for (i, binding) in bindings.iter().enumerate().skip(1) {
            let right_offset = binding.3;
            let mut left_keys = Vec::new();
            let mut right_keys = Vec::new();
            let mut residuals = Vec::new();
            for &(ta, fa, tb, fb) in &join_equis {
                let (l, r) = if tb == i && ta < i {
                    (fa, fb)
                } else if ta == i && tb < i {
                    (fb, fa)
                } else {
                    continue;
                };
                left_keys.push(l);
                right_keys.push(r - right_offset);
            }
            for &(ta, fa, op, tb, fb) in &join_residuals {
                if tb == i && ta < i {
                    residuals.push((fa, op, fb - right_offset));
                } else if ta == i && tb < i {
                    residuals.push((fb, op.flipped(), fa - right_offset));
                }
            }
            // In a left-deep pipeline every cross-table predicate is
            // consumed by the step that introduces its later table, so
            // nothing is left over.
            join_steps.push(JoinStep { left_keys, right_keys, residuals });
        }

        // Group by.
        let mut group_cols = Vec::new();
        for g in &select.group_by {
            let (_, flat, _) = resolve_col(g)?;
            group_cols.push(flat);
        }
        // Aggregate classification: COUNT(*) and SUM(col) are supported,
        // but only one aggregate kind (and one summed column) per query.
        let mut sum_cols: Vec<usize> = Vec::new();
        for item in &select.items {
            if let SelectItem::SumCol(c) = item {
                let (_, flat, _) = resolve_col(c)?;
                if !sum_cols.contains(&flat) {
                    sum_cols.push(flat);
                }
            }
        }
        let mut has_count = select.items.iter().any(|i| matches!(i, SelectItem::CountStar));
        if let Some(h) = &select.having {
            match &h.agg {
                HavingAgg::CountStar => has_count = true,
                HavingAgg::Sum(c) => {
                    let (_, flat, _) = resolve_col(c)?;
                    if !sum_cols.contains(&flat) {
                        sum_cols.push(flat);
                    }
                }
            }
        }
        if sum_cols.len() > 1 {
            return Err(SqlError::Unsupported("more than one SUM column per query".into()));
        }
        if has_count && !sum_cols.is_empty() {
            return Err(SqlError::Unsupported("mixing COUNT(*) and SUM in one query".into()));
        }
        let sum_col = sum_cols.first().copied();
        let has_agg = has_count || sum_col.is_some();
        if has_agg && group_cols.is_empty() && select.items.len() > 1 {
            return Err(SqlError::Plan("aggregate without GROUP BY alongside columns".into()));
        }

        // Select items.
        let mut items = Vec::new();
        for item in &select.items {
            match item {
                SelectItem::CountStar => items.push(ResolvedItem::Count),
                SelectItem::SumCol(_) => items.push(ResolvedItem::Sum),
                SelectItem::Wildcard => {
                    if has_agg || !group_cols.is_empty() {
                        return Err(SqlError::Plan("* in an aggregate query".into()));
                    }
                    for b in &bindings {
                        for (ci, name) in b.2.columns().iter().enumerate() {
                            items.push(ResolvedItem::FlatCol(b.3 + ci, name.clone()));
                        }
                    }
                }
                SelectItem::Column(c) => {
                    let (_, flat, name) = resolve_col(c)?;
                    if has_agg || !group_cols.is_empty() {
                        let gi = group_cols.iter().position(|&g| g == flat).ok_or_else(|| {
                            SqlError::Plan(format!("column {c} is not in GROUP BY"))
                        })?;
                        items.push(ResolvedItem::GroupCol(gi, name));
                    } else {
                        items.push(ResolvedItem::FlatCol(flat, name));
                    }
                }
            }
        }

        // Order by: positions within the *output* row.
        let mut order_positions = Vec::new();
        for o in &select.order_by {
            let (_, flat, _) = resolve_col(o)?;
            let pos = if has_agg || !group_cols.is_empty() {
                let gi = group_cols.iter().position(|&g| g == flat).ok_or_else(|| {
                    SqlError::Plan(format!("ORDER BY column {o} is not in GROUP BY"))
                })?;
                items
                    .iter()
                    .position(|it| matches!(it, ResolvedItem::GroupCol(g, _) if *g == gi))
                    .ok_or_else(|| {
                    SqlError::Plan(format!("ORDER BY column {o} is not in the SELECT list"))
                })?
            } else {
                items
                    .iter()
                    .position(|it| matches!(it, ResolvedItem::FlatCol(f, _) if *f == flat))
                    .ok_or_else(|| {
                        SqlError::Plan(format!("ORDER BY column {o} is not in the SELECT list"))
                    })?
            };
            order_positions.push(pos);
        }

        Ok(ResolvedSelect {
            tables: bindings.into_iter().map(|(_, table, _, _)| BoundTable { table }).collect(),
            join_steps,
            filters,
            cross_filters,
            set_filters,
            group_cols,
            having_rhs: select.having.as_ref().map(|h| h.rhs.clone()),
            items,
            order_positions,
            has_count,
            sum_col,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example's SALES relation (Figure 1).
    fn sales_engine() -> SqlEngine {
        let mut e = SqlEngine::new();
        let txns: [(u32, [u32; 3]); 10] = [
            (10, [1, 2, 3]),
            (20, [1, 2, 4]),
            (30, [1, 2, 3]),
            (40, [2, 3, 4]),
            (50, [1, 3, 7]),
            (60, [1, 4, 7]),
            (70, [1, 5, 8]),
            (80, [4, 5, 6]),
            (90, [4, 5, 6]),
            (99, [4, 5, 6]),
        ];
        let rows: Vec<Vec<u32>> =
            txns.iter().flat_map(|(t, items)| items.iter().map(move |&i| vec![*t, i])).collect();
        e.load_table("SALES", &["trans_id", "item"], rows.iter().map(|r| r.as_slice())).unwrap();
        e
    }

    #[test]
    fn create_insert_select_round_trip() {
        let mut e = SqlEngine::new();
        let p = Params::new();
        e.execute("CREATE TABLE t (a INT, b INT)", &p).unwrap();
        e.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)", &p).unwrap();
        let r = e.query("SELECT a, b FROM t", &p).unwrap();
        assert_eq!(r.columns, vec!["a", "b"]);
        assert_eq!(r.rows, vec![vec![1, 10], vec![2, 20], vec![3, 30]]);
    }

    #[test]
    fn wildcard_and_filters() {
        let mut e = SqlEngine::new();
        let p = Params::new();
        e.execute("CREATE TABLE t (a INT, b INT)", &p).unwrap();
        e.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)", &p).unwrap();
        let r = e.query("SELECT * FROM t WHERE a >= 2 AND b <> 30", &p).unwrap();
        assert_eq!(r.rows, vec![vec![2, 20]]);
        // Constant on the left flips the operator.
        let r = e.query("SELECT a FROM t WHERE 2 <= a", &p).unwrap();
        assert_eq!(r.rows, vec![vec![2], vec![3]]);
    }

    #[test]
    fn the_paper_c1_query() {
        // Section 3.1's first query, verbatim (modulo column spelling).
        let mut e = sales_engine();
        e.execute("CREATE TABLE C1 (item INT, cnt INT)", &Params::new()).unwrap();
        e.execute(
            "INSERT INTO C1
             SELECT r1.item, COUNT(*)
             FROM SALES r1
             GROUP BY r1.item
             HAVING COUNT(*) >= :minsupport",
            &Params::new().with("minsupport", 3),
        )
        .unwrap();
        let r = e.query("SELECT item, cnt FROM C1", &Params::new()).unwrap();
        // Expected C1 of the worked example: A..F with counts 6,4,4,6,4,3.
        assert_eq!(
            r.rows,
            vec![vec![1, 6], vec![2, 4], vec![3, 4], vec![4, 6], vec![5, 4], vec![6, 3]]
        );
    }

    #[test]
    fn in_and_not_in_filter_rows() {
        let mut e = sales_engine();
        let p = Params::new();
        // Anchored C1: only the required item survives counting.
        let r = e
            .query(
                "SELECT r1.item, COUNT(*)
                 FROM SALES r1
                 WHERE r1.item IN (4)
                 GROUP BY r1.item
                 HAVING COUNT(*) >= 3",
                &p,
            )
            .unwrap();
        assert_eq!(r.rows, vec![vec![4, 6]]);
        // Exclusion on the extension side of the paper's pair join.
        let all = e
            .query(
                "SELECT p.trans_id, p.item, q.item
                 FROM SALES p, SALES q
                 WHERE q.trans_id = p.trans_id AND q.item > p.item",
                &p,
            )
            .unwrap();
        let kept = e
            .query(
                "SELECT p.trans_id, p.item, q.item
                 FROM SALES p, SALES q
                 WHERE q.trans_id = p.trans_id AND q.item > p.item AND q.item NOT IN (3, 7)",
                &p,
            )
            .unwrap();
        assert!(kept.rows.len() < all.rows.len());
        assert!(kept.rows.iter().all(|r| r[2] != 3 && r[2] != 7));
        let expected: Vec<Vec<u32>> =
            all.rows.iter().filter(|r| r[2] != 3 && r[2] != 7).cloned().collect();
        assert_eq!(kept.rows, expected, "NOT IN is exactly a post-join filter");
    }

    #[test]
    fn in_list_on_unknown_column_errors() {
        let mut e = sales_engine();
        let p = Params::new();
        assert!(matches!(
            e.query("SELECT item FROM SALES WHERE nope IN (1)", &p),
            Err(SqlError::Plan(_))
        ));
    }

    #[test]
    fn the_paper_pair_generation_query() {
        // Section 2's pair query with lexicographic ordering (r2 > r1).
        let mut e = sales_engine();
        let r = e
            .query(
                "SELECT r1.item, r2.item, COUNT(*)
                 FROM SALES r1, SALES r2
                 WHERE r1.trans_id = r2.trans_id AND r2.item > r1.item
                 GROUP BY r1.item, r2.item
                 HAVING COUNT(*) >= :minsupport",
                &Params::new().with("minsupport", 3),
            )
            .unwrap();
        // Expected C2 of the worked example.
        assert_eq!(
            r.rows,
            vec![
                vec![1, 2, 3],
                vec![1, 3, 3],
                vec![2, 3, 3],
                vec![4, 5, 3],
                vec![4, 6, 3],
                vec![5, 6, 3],
            ]
        );
    }

    #[test]
    fn insert_select_with_order_by_marks_sort_order() {
        let mut e = sales_engine();
        let p = Params::new();
        e.execute("CREATE TABLE R2 (trans_id INT, item_1 INT, item_2 INT)", &p).unwrap();
        e.execute(
            "INSERT INTO R2
             SELECT p.trans_id, p.item, q.item
             FROM SALES p, SALES q
             WHERE q.trans_id = p.trans_id AND q.item > p.item
             ORDER BY p.trans_id, p.item, q.item",
            &p,
        )
        .unwrap();
        let t = e.database().table("R2").unwrap();
        assert_eq!(t.sorted_by, Some(vec![0, 1, 2]));
        assert_eq!(t.file.n_records(), 30, "C(3,2) pairs per 3-item transaction");
    }

    #[test]
    fn sort_merge_and_index_plans_agree() {
        let mut sm = sales_engine();
        sm.set_options(ExecOptions { join: JoinPreference::SortMerge, ..Default::default() });
        let mut inl = sales_engine();
        inl.database_mut().create_index("sales_tid_item", "SALES", &["trans_id", "item"]).unwrap();
        inl.set_options(ExecOptions {
            join: JoinPreference::IndexNestedLoop,
            ..Default::default()
        });
        let q = "SELECT r1.item, r2.item, COUNT(*)
                 FROM SALES r1, SALES r2
                 WHERE r1.trans_id = r2.trans_id AND r2.item > r1.item
                 GROUP BY r1.item, r2.item
                 HAVING COUNT(*) >= :minsupport";
        let p = Params::new().with("minsupport", 2);
        let a = sm.query(q, &p).unwrap();
        let b = inl.query(q, &p).unwrap();
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn having_operator_variants() {
        let mut e = sales_engine();
        let p = Params::new();
        let base = "SELECT item, COUNT(*) FROM SALES GROUP BY item HAVING COUNT(*)";
        let ge = e.query(&format!("{base} >= 4"), &p).unwrap();
        assert!(ge.rows.iter().all(|r| r[1] >= 4));
        let gt = e.query(&format!("{base} > 4"), &p).unwrap();
        assert!(gt.rows.iter().all(|r| r[1] > 4));
        let eq = e.query(&format!("{base} = 6"), &p).unwrap();
        assert_eq!(eq.rows.len(), 2); // items A and D appear 6 times
        let le = e.query(&format!("{base} <= 2"), &p).unwrap();
        assert!(le.rows.iter().all(|r| r[1] <= 2));
    }

    #[test]
    fn sum_merges_partial_counts_like_the_partitioned_plan() {
        // Two shards' C2 partials, unioned into one table; the global
        // merge is GROUP BY + SUM + HAVING — the partitioned plan's
        // coordinator statement.
        let mut e = SqlEngine::new();
        let p = Params::new();
        e.execute("CREATE TABLE C2_PARTS (item_1 INT, item_2 INT, cnt INT)", &p).unwrap();
        e.execute(
            "INSERT INTO C2_PARTS VALUES (1, 2, 2), (4, 5, 1), (1, 2, 1), (4, 5, 2), (7, 8, 1)",
            &p,
        )
        .unwrap();
        let r = e
            .query(
                "SELECT p.item_1, p.item_2, SUM(p.cnt)
                 FROM C2_PARTS p
                 GROUP BY p.item_1, p.item_2
                 HAVING SUM(p.cnt) >= :minsupport",
                &Params::new().with("minsupport", 3),
            )
            .unwrap();
        assert_eq!(r.columns, vec!["item_1", "item_2", "sum"]);
        assert_eq!(r.rows, vec![vec![1, 2, 3], vec![4, 5, 3]]);
    }

    #[test]
    fn sum_without_having_keeps_every_group() {
        let mut e = SqlEngine::new();
        let p = Params::new();
        e.execute("CREATE TABLE t (k INT, v INT)", &p).unwrap();
        e.execute("INSERT INTO t VALUES (1, 0), (1, 0), (2, 5)", &p).unwrap();
        let r = e.query("SELECT k, SUM(v) FROM t GROUP BY k", &p).unwrap();
        // A zero sum is a real group, not a filtered one.
        assert_eq!(r.rows, vec![vec![1, 0], vec![2, 5]]);
    }

    #[test]
    fn mixed_aggregates_are_rejected() {
        let mut e = SqlEngine::new();
        let p = Params::new();
        e.execute("CREATE TABLE t (k INT, v INT)", &p).unwrap();
        let err = e.query("SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k", &p).unwrap_err();
        assert!(matches!(err, SqlError::Unsupported(_)), "{err:?}");
        let err = e.query("SELECT k, SUM(k) FROM t GROUP BY k HAVING SUM(v) >= 1", &p).unwrap_err();
        assert!(matches!(err, SqlError::Unsupported(_)), "{err:?}");
    }

    #[test]
    fn count_star_without_group_by() {
        let mut e = sales_engine();
        let r = e.query("SELECT COUNT(*) FROM SALES", &Params::new()).unwrap();
        assert_eq!(r.rows, vec![vec![30]]);
        assert_eq!(r.columns, vec!["count"]);
        // Empty table counts produce no row (no groups) — callers treat
        // absence as zero; documented engine behavior.
        let mut e2 = SqlEngine::new();
        e2.execute("CREATE TABLE empty (a INT)", &Params::new()).unwrap();
        let r = e2.query("SELECT COUNT(*) FROM empty", &Params::new()).unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn unbound_parameter_errors() {
        let mut e = sales_engine();
        let err = e
            .query(
                "SELECT item, COUNT(*) FROM SALES GROUP BY item HAVING COUNT(*) >= :missing",
                &Params::new(),
            )
            .unwrap_err();
        assert_eq!(err, SqlError::UnboundParam("missing".into()));
    }

    #[test]
    fn unknown_names_error() {
        let mut e = sales_engine();
        let p = Params::new();
        assert!(matches!(e.query("SELECT x FROM SALES", &p), Err(SqlError::Plan(_))));
        assert!(matches!(
            e.query("SELECT item FROM NOPE", &p),
            Err(SqlError::Engine(setm_relational::Error::NoSuchTable(_)))
        ));
        assert!(matches!(e.query("SELECT z.item FROM SALES r1", &p), Err(SqlError::Plan(_))));
        // Ambiguous unqualified column across a self-join.
        assert!(matches!(
            e.query("SELECT item FROM SALES r1, SALES r2 WHERE r1.trans_id = r2.trans_id", &p),
            Err(SqlError::Plan(_))
        ));
    }

    #[test]
    fn three_way_join_chain() {
        // A miniature of the Section 3.1 k-pattern query shape.
        let mut e = sales_engine();
        let r = e
            .query(
                "SELECT r1.item, r2.item, r3.item, COUNT(*)
                 FROM SALES r1, SALES r2, SALES r3
                 WHERE r1.trans_id = r2.trans_id AND r2.trans_id = r3.trans_id
                   AND r2.item > r1.item AND r3.item > r2.item
                 GROUP BY r1.item, r2.item, r3.item
                 HAVING COUNT(*) >= 3",
                &Params::new(),
            )
            .unwrap();
        // Only DEF (4,5,6) has triple support 3 in the worked example.
        assert_eq!(r.rows, vec![vec![4, 5, 6, 3]]);
    }

    #[test]
    fn order_by_on_plain_select() {
        let mut e = SqlEngine::new();
        let p = Params::new();
        e.execute("CREATE TABLE t (a INT, b INT)", &p).unwrap();
        e.execute("INSERT INTO t VALUES (3, 1), (1, 2), (2, 3)", &p).unwrap();
        let r = e.query("SELECT a, b FROM t ORDER BY a", &p).unwrap();
        assert_eq!(r.rows, vec![vec![1, 2], vec![2, 3], vec![3, 1]]);
    }

    #[test]
    fn drop_table_removes_it() {
        let mut e = SqlEngine::new();
        let p = Params::new();
        e.execute("CREATE TABLE t (a INT)", &p).unwrap();
        e.execute("DROP TABLE t", &p).unwrap();
        assert!(e.query("SELECT a FROM t", &p).is_err());
    }

    #[test]
    fn shard_pool_runs_statements_concurrently_and_in_order() {
        let mut pool = ShardPool::new(4);
        assert_eq!(pool.len(), 4);
        // Load a different slice into each shard, then count in parallel.
        for i in 0..4u32 {
            let rows: Vec<[u32; 2]> = (0..=i).map(|t| [t, 7]).collect();
            pool.shard_mut(i as usize)
                .load_table("SALES", &["trans_id", "item"], rows.iter().map(|r| r.as_slice()))
                .unwrap();
        }
        let p = Params::new();
        let counts = pool
            .run(|_, engine| {
                let r = engine.query("SELECT COUNT(*) FROM SALES", &p)?;
                Ok(r.rows[0][0])
            })
            .unwrap();
        assert_eq!(counts, vec![1, 2, 3, 4], "results come back in shard order");
    }

    #[test]
    fn shard_pool_wraps_failures_with_the_shard_index() {
        let mut pool = ShardPool::new(3);
        let p = Params::new();
        let err = pool
            .run(|i, engine| {
                if i == 1 {
                    engine.execute("SELECT nope FROM missing", &p).map(|_| ())
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        let SqlError::Shard { shard, source } = err else { panic!("expected Shard error") };
        assert_eq!(shard, 1);
        assert!(matches!(*source, SqlError::Engine(setm_relational::Error::NoSuchTable(_))));
    }

    #[test]
    fn insert_select_appends_to_nonempty_table() {
        let mut e = SqlEngine::new();
        let p = Params::new();
        e.execute("CREATE TABLE src (a INT)", &p).unwrap();
        e.execute("INSERT INTO src VALUES (5), (6)", &p).unwrap();
        e.execute("CREATE TABLE dst (a INT)", &p).unwrap();
        e.execute("INSERT INTO dst VALUES (1)", &p).unwrap();
        e.execute("INSERT INTO dst SELECT a FROM src", &p).unwrap();
        let r = e.query("SELECT a FROM dst", &p).unwrap();
        assert_eq!(r.rows, vec![vec![1], vec![5], vec![6]]);
    }

    #[test]
    fn insert_values_rejects_literals_over_u32_max() {
        let mut e = SqlEngine::new();
        let p = Params::new();
        e.execute("CREATE TABLE t (a INT, b INT)", &p).unwrap();
        let err = e.execute("INSERT INTO t VALUES (1, 2), (4294967296, 99999999999)", &p);
        let Err(SqlError::Plan(msg)) = err else { panic!("expected a plan error, got {err:?}") };
        assert!(msg.contains("4294967296"), "the error names the value: {msg}");
        assert!(e.query("SELECT a, b FROM t", &p).unwrap().rows.is_empty(), "nothing inserted");
        // The largest 4-byte value is still accepted as is.
        e.execute("INSERT INTO t VALUES (4294967295, 0)", &p).unwrap();
        assert_eq!(e.query("SELECT a, b FROM t", &p).unwrap().rows, vec![vec![u32::MAX, 0]]);
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;

    fn engine_with_sales() -> SqlEngine {
        let mut e = SqlEngine::new();
        e.load_table(
            "SALES",
            &["trans_id", "item"],
            [[1u32, 2], [1, 3], [2, 2]].iter().map(|r| r.as_slice()),
        )
        .unwrap();
        e
    }

    const PAIR_QUERY: &str = "SELECT r1.item, r2.item, COUNT(*)
         FROM SALES r1, SALES r2
         WHERE r1.trans_id = r2.trans_id AND r2.item > r1.item
         GROUP BY r1.item, r2.item
         HAVING COUNT(*) >= 1";

    #[test]
    fn explain_shows_merge_scan_by_default() {
        let e = engine_with_sales();
        let plan = e.explain(PAIR_QUERY).unwrap();
        assert!(plan.contains("scan SALES"), "{plan}");
        assert!(plan.contains("merge-scan join"), "{plan}");
        assert!(plan.contains("residual predicate"), "{plan}");
        assert!(plan.contains("group count"), "{plan}");
        assert!(plan.contains("HAVING"), "{plan}");
    }

    #[test]
    fn explain_switches_to_index_plan_when_available() {
        let mut e = engine_with_sales();
        e.database_mut().create_index("idx", "SALES", &["trans_id", "item"]).unwrap();
        let plan = e.explain(PAIR_QUERY).unwrap();
        assert!(plan.contains("index nested-loop join"), "{plan}");
        // Forcing sort-merge overrides the index.
        e.set_options(ExecOptions { join: JoinPreference::SortMerge, ..Default::default() });
        let plan = e.explain(PAIR_QUERY).unwrap();
        assert!(plan.contains("merge-scan join"), "{plan}");
    }

    #[test]
    fn explain_shows_order_by_and_rejects_non_select() {
        let e = engine_with_sales();
        let plan = e.explain("SELECT trans_id, item FROM SALES ORDER BY item").unwrap();
        assert!(plan.contains("sort output"), "{plan}");
        assert!(matches!(e.explain("CREATE TABLE t (a INT)"), Err(SqlError::Plan(_))));
    }
}
