//! Planner and materializing executor.
//!
//! Single-block queries are executed as the paper's analysis assumes a
//! relational engine would: left-deep joins in `FROM` order, each join
//! either **sort-merge** (sort both sides on the equi-join key unless the
//! catalog already knows them sorted, then one merge-scan) or **index
//! nested-loop** (probe a covering B+-tree per outer row), followed by
//! sort-based grouping with `COUNT(*)`/`HAVING`, projection and
//! `ORDER BY`. Every intermediate is a heap file on the shared pager, so
//! a query's page accesses are measurable.
//!
//! No step writes a relation only to copy it again:
//!
//! * the last join of a query evaluates the post-join `WHERE` conjuncts
//!   in its residual, and, when the query does not group, writes only the
//!   `SELECT` list, so no wide intermediate is filtered or projected in a
//!   second pass (both join algorithms);
//! * a sort-merge self-join of one stored table on equal keys (Section
//!   4.1's k = 2 extension join, `FROM SALES p, SALES q`) sorts the table
//!   once, and both sides of the merge read that copy;
//! * a single-table `GROUP BY` that has to sort its stored table keeps
//!   the sorted copy as the table's storage ([`Database::recluster`]):
//!   Section 4.1's count statement leaves `R'_k` in item order, and the
//!   filter statement's merge join then reads it without sorting it again;
//! * an `INSERT … SELECT` into an empty table adopts the `SELECT`'s
//!   result file, with its sort order, as the table.
//!
//! The join-strategy knob ([`JoinPreference`], sort-merge by default) is
//! how the two plans of Sections 3 and 4 are realized from the *same*
//! SQL. An owned intermediate frees its heap file when dropped, so a
//! statement that fails part-way leaves no pages behind.

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
    /// Sort-merge (the Section 4 plan).
    #[default]
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
    /// statements (data loading is not part of any measured query),
    /// replacing any table of that name. Rows that arrive in order (each
    /// no smaller than the one before, all columns compared) record the
    /// table as sorted on every column. The new file is written before
    /// the old table is dropped, so a failed load leaves it as it was.
    pub fn load_table<'a, I: IntoIterator<Item = &'a [u32]>>(
        &mut self,
        name: &str,
        columns: &[&str],
        rows: I,
    ) -> Result<()> {
        let schema = Schema::new(columns.iter().copied());
        let (mut prev, mut in_order): (Option<&[u32]>, bool) = (None, true);
        let rows = rows.into_iter().inspect(|&row| {
            in_order &= prev.is_none_or(|p| p <= row);
            prev = Some(row);
        });
        let file = HeapFile::from_rows(self.db.pager().clone(), schema.arity(), rows)?;
        let sorted_by = in_order.then(|| (0..schema.arity()).collect());
        self.db.replace_table(name, schema, file, sorted_by)?;
        Ok(())
    }

    /// Parse and execute one statement.
    pub fn execute(&mut self, sql: &str, params: &Params) -> Result<ExecOutcome> {
        let stmt = parse(sql)?;
        self.execute_statement(&stmt, params)
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
                self.append_rows(table, arity, &flat)?;
                Ok(ExecOutcome::Inserted(rows.len() as u64))
            }
            Statement::InsertSelect { table, select } => {
                let out = self.run_select(select, params)?.rows;
                let (arity, n) = (out.file.arity(), out.file.n_records());
                let target = self.db.table(table)?;
                if target.file.n_records() == 0 && target.schema.arity() == arity {
                    // The result fully defines the table: it becomes the
                    // table, sort order included.
                    let schema = target.schema.clone();
                    let sorted_by = out.sorted_by.clone();
                    self.db.replace_table(table, schema, out.into_file(), sorted_by)?;
                } else {
                    let rows = read_and_free(out)?;
                    self.append_rows(table, arity, &rows)?;
                }
                Ok(ExecOutcome::Inserted(n))
            }
            Statement::Select(select) => {
                let out = self.run_select(select, params)?;
                let arity = out.rows.file.arity();
                let flat = read_and_free(out.rows)?;
                let rows = flat.chunks_exact(arity).map(<[u32]>::to_vec).collect();
                Ok(ExecOutcome::Rows(QueryResult { columns: out.columns, rows }))
            }
        }
    }

    /// Append the flat row-major `rows` (`arity` values each) to `table`.
    /// The table is rewritten: its rows are copied page by page into a
    /// new file ahead of the new ones, which reads and writes the pages in
    /// the order a row-at-a-time copy would, and the new file records no
    /// sort order. Any error leaves the table as it was.
    fn append_rows(&mut self, table: &str, arity: usize, rows: &[u32]) -> Result<()> {
        let t = self.db.table(table)?;
        let schema = t.schema.clone();
        if !rows.is_empty() && arity != schema.arity() {
            return Err(SqlError::Engine(setm_relational::Error::ArityMismatch {
                expected: schema.arity(),
                got: arity,
            }));
        }
        let mut builder = HeapFileBuilder::new(t.file.pager().clone(), schema.arity());
        let mut page = Vec::new();
        for pno in 0..t.file.n_pages() {
            page.clear();
            t.file.read_page_into(pno, &mut page)?;
            builder.extend_flat(&page)?;
        }
        builder.extend_flat(rows)?;
        let file = builder.finish()?;
        self.db.replace_table(table, schema, file, None)?;
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
        let grouped = plan.has_agg() || !plan.group_cols.is_empty();
        let filter = RowFilter {
            consts: plan
                .filters
                .iter()
                .map(|f| Ok((f.col, f.op, eval_const(&f.rhs, params)?)))
                .collect::<Result<_>>()?,
            cross: plan.cross_filters.clone(),
            sets: plan.set_filters.clone(),
        };
        // The SELECT list of a query without grouping: flat positions and
        // output names.
        let (positions, names): (Vec<usize>, Vec<String>) = if grouped {
            Default::default()
        } else {
            plan.items
                .iter()
                .map(|item| match item {
                    ResolvedItem::FlatCol(i, name) => (*i, name.clone()),
                    ResolvedItem::Count | ResolvedItem::Sum | ResolvedItem::GroupCol(..) => {
                        unreachable!("only an aggregate query has aggregate or group items")
                    }
                })
                .unzip()
        };

        // 1. Left-deep join pipeline in FROM order. The last join applies
        // the residual filters and, without grouping, writes only the
        // SELECT list.
        let first = self.db.table(&plan.tables[0].table)?;
        let mut current = Working::borrowed(first.file.clone(), first.sorted_by.clone());
        let n_joins = plan.join_steps.len();
        let select_list = (!grouped).then_some(&positions[..]);
        for (i, (binding, step)) in plan.tables[1..].iter().zip(&plan.join_steps).enumerate() {
            let last = (i + 1 == n_joins).then_some((&filter, select_list));
            current = self.join_step(current, binding, step, last, sort_opts)?;
        }

        // 2. A single-table query applies its filters in one pass.
        if n_joins == 0 && !filter.is_empty() {
            let all: Vec<usize> = (0..current.file.arity()).collect();
            let filtered = filter_project(&current.file, &all, |row| filter.accepts(|c| row[c]))?;
            let filtered = Working::owned(filtered, current.sorted_by.clone());
            current.free()?;
            current = filtered;
        }

        // 3. Grouping / aggregation, then the projection. The output is
        // always a file this statement owns.
        let (mut out, out_cols) = if grouped {
            let mut grouped = self.group_and_count(&current, plan, select, params, sort_opts)?;
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
            // Grouped output is sorted by group columns; that order
            // survives only the identity projection.
            if positions.iter().copied().eq(0..grouped.file.arity()) {
                grouped.sorted_by = Some((0..plan.group_cols.len()).collect());
                (grouped, names)
            } else {
                let projected =
                    Working::owned(filter_project(&grouped.file, &positions, |_| true)?, None);
                grouped.free()?;
                (projected, names)
            }
        } else if n_joins > 0
            || positions.iter().copied().eq(0..current.file.arity()) && current.owned
        {
            // The last join wrote the SELECT list, or the filtered rows
            // already are it.
            (current, names)
        } else {
            // Sort order survives projection if the sorted prefix maps
            // into projected positions; conservatively recompute.
            let sorted_by = current
                .sorted_by
                .as_ref()
                .and_then(|s| s.iter().map(|c| positions.iter().position(|p| p == c)).collect());
            let projected =
                Working::owned(filter_project(&current.file, &positions, |_| true)?, sorted_by);
            current.free()?;
            (projected, names)
        };

        // 4. ORDER BY.
        if !plan.order_positions.is_empty() {
            let already = out.sorted_by.as_ref().is_some_and(|s| {
                s.len() >= plan.order_positions.len()
                    && s[..plan.order_positions.len()] == plan.order_positions[..]
            });
            if !already {
                let sorted = external_sort(&out.file, &plan.order_positions, sort_opts)?;
                let sorted = Working::owned(sorted, None);
                out.free()?;
                out = sorted;
            }
            out.sorted_by = Some(plan.order_positions.clone());
        }

        Ok(SelectOutput { rows: out, columns: out_cols })
    }

    /// Join `left` with `binding`'s table on `step`'s keys and residuals.
    /// `last` is set on a query's last join: it carries the query's
    /// residual filter, which the join applies to each row pair, and, for
    /// a query without grouping, the flat positions of the SELECT list,
    /// which are then the only columns the join writes.
    fn join_step(
        &mut self,
        left: Working,
        binding: &BoundTable,
        step: &JoinStep,
        last: Option<(&RowFilter, Option<&[usize]>)>,
        sort_opts: SortOptions,
    ) -> Result<Working> {
        let right_table = self.db.table(&binding.table)?;
        let right = Working::borrowed(right_table.file.clone(), right_table.sorted_by.clone());
        let left_arity = left.file.arity();

        if self.opts.join == JoinPreference::IndexNestedLoop {
            if step.left_keys.is_empty() {
                return Err(SqlError::Unsupported(
                    "index nested-loop join without an equi-join key".into(),
                ));
            }
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
            // The index key is a permutation of the table's columns: the
            // probe hands over keys, in which table column `c` sits at
            // `key_pos[c]`.
            let mut key_pos = vec![0; idx.key_cols.len()];
            for (kpos, &tcol) in idx.key_cols.iter().enumerate() {
                key_pos[tcol] = kpos;
            }
            let emit = JoinEmit::new(step, last, left_arity, &key_pos);
            let out = index_nested_loop_join(
                &left.file,
                &idx.btree,
                &step.left_keys,
                emit.out.len(),
                |l, key| emit.accepts(l, key),
                |l, key, out| emit.project(l, key, out),
            )?;
            let out = Working::owned(out, None);
            left.free()?;
            return Ok(out);
        }

        // Sort-merge: ensure both sides are sorted on their keys. A
        // self-join of one stored table on equal keys (`FROM SALES p,
        // SALES q WHERE q.trans_id = p.trans_id`) sorts it once: the
        // right side borrows the left's sorted copy, which the left frees.
        let self_join = !left.owned
            && left.file.file_id() == right.file.file_id()
            && step.left_keys == step.right_keys;
        let left_sorted = ensure_sorted(left, &step.left_keys, sort_opts)?;
        let right_sorted = if self_join {
            Working::borrowed(left_sorted.file.clone(), left_sorted.sorted_by.clone())
        } else {
            ensure_sorted(right, &step.right_keys, sort_opts)?
        };
        let table_order: Vec<usize> = (0..right_sorted.file.arity()).collect();
        let emit = JoinEmit::new(step, last, left_arity, &table_order);
        let out = merge_scan_join(
            &left_sorted.file,
            &right_sorted.file,
            &step.left_keys,
            &step.right_keys,
            emit.out.len(),
            |l, r| emit.accepts(l, r),
            |l, r, out| emit.project(l, r, out),
        )?;
        // The merge emits its rows in left-key order.
        let out = Working::owned(out, emit.sorted_on(&step.left_keys));
        left_sorted.free()?;
        right_sorted.free()?;
        Ok(out)
    }

    fn group_and_count(
        &mut self,
        current: &Working,
        plan: &ResolvedSelect,
        select: &Select,
        params: &Params,
        sort_opts: SortOptions,
    ) -> Result<Working> {
        // Sort on the group columns unless already sorted. An input this
        // statement does not own is its one stored table (a join or a
        // filter writes an owned file): the sorted copy becomes the
        // table's storage, so the table stays in group order.
        let sorted = if current.sorted_by.as_ref().is_some_and(|s| {
            s.len() >= plan.group_cols.len() && s[..plan.group_cols.len()] == plan.group_cols[..]
        }) {
            Working::borrowed(current.file.clone(), None)
        } else {
            let file = external_sort(&current.file, &plan.group_cols, sort_opts)?;
            if current.owned {
                Working::owned(file, None)
            } else {
                let table = &plan.tables[0].table;
                self.db.recluster(table, file.clone(), plan.group_cols.clone())?;
                Working::borrowed(file, None)
            }
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
        let counted = Working::owned(counted, None);
        sorted.free()?;
        match post {
            None => Ok(counted),
            Some((op, v)) => {
                let arity = counted.file.arity();
                let all: Vec<usize> = (0..arity).collect();
                let filtered =
                    filter_project(&counted.file, &all, |row| op.eval(row[arity - 1] as u64, v))?;
                let filtered = Working::owned(filtered, None);
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

/// Read a SELECT's result into a flat row-major buffer, then free it. A
/// failed read frees it too, when `rows` drops.
fn read_and_free(rows: Working) -> Result<Vec<u32>> {
    let flat = rows.file.read_all()?;
    rows.free()?;
    Ok(flat)
}

fn ensure_sorted(w: Working, key: &[usize], sort_opts: SortOptions) -> Result<Working> {
    let ok = key.is_empty()
        || w.sorted_by.as_ref().is_some_and(|s| s.len() >= key.len() && s[..key.len()] == key[..]);
    if ok {
        Ok(w)
    } else {
        let sorted = Working::owned(external_sort(&w.file, key, sort_opts)?, Some(key.to_vec()));
        w.free()?;
        Ok(sorted)
    }
}

/// A (possibly borrowed) intermediate relation. An owned one frees its
/// file when dropped, so a statement that fails part-way leaves none of
/// its finished intermediates behind; a successful step frees its inputs
/// with [`Working::free`], which reports the error.
struct Working {
    file: HeapFile,
    /// Whether we own the file (true = free it when done; false = it
    /// belongs to a catalog table or to another `Working`).
    owned: bool,
    sorted_by: Option<Vec<usize>>,
}

impl Working {
    fn owned(file: HeapFile, sorted_by: Option<Vec<usize>>) -> Working {
        Working { file, owned: true, sorted_by }
    }

    fn borrowed(file: HeapFile, sorted_by: Option<Vec<usize>>) -> Working {
        Working { file, owned: false, sorted_by }
    }

    /// Free the file now if it is owned.
    fn free(mut self) -> Result<()> {
        if std::mem::take(&mut self.owned) {
            self.file.clone().free()?;
        }
        Ok(())
    }

    /// Hand the file to the caller, which then frees it.
    fn into_file(mut self) -> HeapFile {
        self.owned = false;
        self.file.clone()
    }
}

impl Drop for Working {
    fn drop(&mut self) {
        if self.owned {
            // Only an unfinished step drops an owned file; freeing a live
            // file cannot fail.
            let _ = self.file.clone().free();
        }
    }
}

struct SelectOutput {
    /// The result rows: a file the statement owns, with its sort order.
    rows: Working,
    columns: Vec<String>,
}

/// A query's `WHERE` conjuncts that are neither join keys nor join
/// residuals, on flat positions of the joined row, with parameters bound.
struct RowFilter {
    consts: Vec<(usize, CmpOp, u64)>,
    cross: Vec<(usize, CmpOp, usize)>,
    sets: Vec<SetFilter>,
}

impl RowFilter {
    fn is_empty(&self) -> bool {
        self.consts.is_empty() && self.cross.is_empty() && self.sets.is_empty()
    }

    /// Whether the row whose flat column `c` is `col(c)` passes.
    #[inline]
    fn accepts(&self, col: impl Fn(usize) -> u32) -> bool {
        self.consts.iter().all(|&(c, op, v)| op.eval(col(c) as u64, v))
            && self.cross.iter().all(|&(a, op, b)| op.eval(col(a) as u64, col(b) as u64))
            && self.sets.iter().all(|s| s.matches(col(s.col) as u64))
    }
}

/// What one join step keeps and writes, on flat positions of the joined
/// row, read off the row pair its operator hands over: the left row, and
/// a right row in which right-table column `c` sits at `right_pos[c]` (a
/// table row for the merge-scan, an index key for the nested loop). Both
/// join algorithms thus keep and write the same rows.
struct JoinEmit<'a> {
    left_arity: usize,
    right_pos: &'a [usize],
    /// The step's residuals and, on a query's last join, its filter.
    filter: RowFilter,
    /// The flat positions written, in order.
    out: Vec<usize>,
}

impl<'a> JoinEmit<'a> {
    /// `last` carries a query's filter and, without grouping, its SELECT
    /// list; without a SELECT list the join writes every column.
    fn new(
        step: &JoinStep,
        last: Option<(&RowFilter, Option<&[usize]>)>,
        left_arity: usize,
        right_pos: &'a [usize],
    ) -> JoinEmit<'a> {
        let mut filter = RowFilter {
            consts: Vec::new(),
            cross: step.residuals.iter().map(|&(l, op, r)| (l, op, left_arity + r)).collect(),
            sets: Vec::new(),
        };
        let mut out: Vec<usize> = (0..left_arity + right_pos.len()).collect();
        if let Some((post, select)) = last {
            filter.consts.extend_from_slice(&post.consts);
            filter.cross.extend_from_slice(&post.cross);
            filter.sets.extend_from_slice(&post.sets);
            if let Some(select) = select {
                out = select.to_vec();
            }
        }
        JoinEmit { left_arity, right_pos, filter, out }
    }

    /// Flat column `c` of the joined row.
    #[inline]
    fn col(&self, l: &[u32], r: &[u32], c: usize) -> u32 {
        match c.checked_sub(self.left_arity) {
            None => l[c],
            Some(rc) => r[self.right_pos[rc]],
        }
    }

    #[inline]
    fn accepts(&self, l: &[u32], r: &[u32]) -> bool {
        self.filter.accepts(|c| self.col(l, r, c))
    }

    #[inline]
    fn project(&self, l: &[u32], r: &[u32], out: &mut Vec<u32>) {
        out.extend(self.out.iter().map(|&c| self.col(l, r, c)));
    }

    /// The output's sort order when the row pairs arrive in order of the
    /// left columns `key`: kept only if every key column is written.
    fn sorted_on(&self, key: &[usize]) -> Option<Vec<usize>> {
        key.iter().map(|c| self.out.iter().position(|o| o == c)).collect()
    }
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
    fn a_failed_load_keeps_the_table_it_was_replacing() {
        let mut e = SqlEngine::new();
        let rows: Vec<[u32; 2]> = (0..2_000u32).map(|i| [i, i % 7]).collect();
        e.load_table("t", &["a", "b"], rows.iter().map(|r| r.as_slice())).unwrap();
        let pages = e.database().pager().lock().total_pages();
        assert!(pages > 2, "the reload fails part-way through its pages");
        e.database().pager().lock().fail_after(Some(2));
        let reload: Vec<[u32; 2]> = (0..2_000u32).map(|i| [i, 0]).collect();
        let err = e.load_table("t", &["a", "b"], reload.iter().map(|r| r.as_slice()));
        assert!(matches!(err, Err(SqlError::Engine(setm_relational::Error::Corrupt(_)))));
        assert_eq!(e.database().pager().lock().total_pages(), pages, "the partial file is freed");
        let back = e.query("SELECT a, b FROM t", &Params::new()).unwrap().rows;
        assert_eq!(back, rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>(), "old rows intact");
    }

    #[test]
    fn load_table_records_the_order_its_rows_arrive_in() {
        let mut e = SqlEngine::new();
        let sorted_by = |e: &SqlEngine| e.database().table("t").unwrap().sorted_by.clone();
        let ordered = [[1u32, 5], [1, 7], [2, 0], [2, 0]];
        e.load_table("t", &["a", "b"], ordered.iter().map(|r| r.as_slice())).unwrap();
        assert_eq!(sorted_by(&e), Some(vec![0, 1]));
        let unordered = [[1u32, 7], [1, 5], [2, 0]];
        e.load_table("t", &["a", "b"], unordered.iter().map(|r| r.as_slice())).unwrap();
        assert_eq!(sorted_by(&e), None);
    }

    /// Section 4.1's count statement sorts `R'_2` on its items and keeps
    /// that order, so the filter statement reads `R'_2` and `C_2` once
    /// each, writes the join's rows, and sorts only its output for the
    /// `ORDER BY`.
    #[test]
    fn the_count_statement_leaves_r_prime_in_item_order_for_the_filter() {
        let mut e = SqlEngine::new();
        let p = Params::new().with("minsupport", 60);
        // R'_2 as the extension join writes it, in trans_id order. Pair
        // (0, 1) of a transaction recurs every 15 transactions, (0, 2)
        // every 20 and (1, 2) every 12: (0, 2) pairs fall below support.
        let r2_prime: Vec<[u32; 3]> = (0..1_000u32)
            .flat_map(|t| {
                let items = [t % 5, 5 + t % 3, 8 + t % 4];
                [(0, 1), (0, 2), (1, 2)].map(|(a, b)| [t, items[a], items[b]])
            })
            .collect();
        let cols = ["trans_id", "item_1", "item_2"];
        e.load_table("R2_PRIME", &cols, r2_prime.iter().map(|r| r.as_slice())).unwrap();
        e.execute("CREATE TABLE C2 (item_1 INT, item_2 INT, cnt INT)", &p).unwrap();
        e.execute(
            "INSERT INTO C2
             SELECT p.item_1, p.item_2, COUNT(*)
             FROM R2_PRIME p
             GROUP BY p.item_1, p.item_2
             HAVING COUNT(*) >= :minsupport",
            &p,
        )
        .unwrap();
        assert_eq!(e.database().table("R2_PRIME").unwrap().sorted_by, Some(vec![1, 2]));

        e.execute("CREATE TABLE R2 (trans_id INT, item_1 INT, item_2 INT)", &p).unwrap();
        e.database().reset_io_stats();
        e.execute(
            "INSERT INTO R2
             SELECT p.trans_id, p.item_1, p.item_2
             FROM R2_PRIME p, C2 q
             WHERE p.item_1 = q.item_1 AND p.item_2 = q.item_2
             ORDER BY p.trans_id, p.item_1, p.item_2",
            &p,
        )
        .unwrap();
        let accesses = e.database().io_stats().accesses();
        let pages = |name: &str| u64::from(e.database().table(name).unwrap().file.n_pages());
        // The join reads each input once and writes R_2's rows; the
        // ORDER BY sorts them in one run, reading and writing each page.
        assert_eq!(accesses, pages("R2_PRIME") + pages("C2") + 3 * pages("R2"));
        let mut counts = std::collections::BTreeMap::new();
        for r in &r2_prime {
            *counts.entry([r[1], r[2]]).or_insert(0u32) += 1;
        }
        let c2: Vec<Vec<u32>> = counts
            .iter()
            .filter(|(_, &n)| n >= 60)
            .map(|(pair, &n)| vec![pair[0], pair[1], n])
            .collect();
        assert_eq!(e.query("SELECT item_1, item_2, cnt FROM C2", &p).unwrap().rows, c2);
        let expect: Vec<Vec<u32>> =
            r2_prime.iter().filter(|r| counts[&[r[1], r[2]]] >= 60).map(|r| r.to_vec()).collect();
        assert!(expect.len() < r2_prime.len(), "the filter drops the unsupported pairs");
        let r2 = e.query("SELECT trans_id, item_1, item_2 FROM R2", &p).unwrap().rows;
        assert_eq!(r2, expect);
    }

    #[test]
    fn insert_select_into_an_empty_table_adopts_the_select_result() {
        let mut e = SqlEngine::new();
        let p = Params::new();
        // SALES in (trans_id, item) order: 600 transactions of 5 items.
        let sales: Vec<[u32; 2]> =
            (0..600u32).flat_map(|t| (0..5).map(move |j| [t, j * 4 + t % 4])).collect();
        e.load_table("SALES", &["trans_id", "item"], sales.iter().map(|r| r.as_slice())).unwrap();
        let select = "SELECT p.trans_id, p.item, q.item
                      FROM SALES p, SALES q
                      WHERE q.trans_id = p.trans_id AND q.item > p.item
                      ORDER BY p.trans_id, p.item, q.item";
        e.database().reset_io_stats();
        let rows = e.query(select, &p).unwrap().rows;
        let select_accesses = e.database().io_stats().accesses();

        e.execute("CREATE TABLE R2 (trans_id INT, item_1 INT, item_2 INT)", &p).unwrap();
        e.database().reset_io_stats();
        let inserted = e.execute(&format!("INSERT INTO R2 {select}"), &p).unwrap();
        assert!(matches!(inserted, ExecOutcome::Inserted(6_000)), "{inserted:?}");
        let insert_accesses = e.database().io_stats().accesses();
        let r2 = e.database().table("R2").unwrap();
        // The INSERT makes the SELECT's accesses and no more: the bare
        // query then reads its result back to return the rows.
        assert_eq!(insert_accesses + u64::from(r2.file.n_pages()), select_accesses);
        assert_eq!(r2.sorted_by, Some(vec![0, 1, 2]));
        assert_eq!(r2.file.rows().unwrap(), rows, "the SELECT's rows, in its order");
    }

    /// Section 4.1's k = 2 extension join reads `SALES` on both sides.
    /// After the `C_1` statement `SALES` is in item order, so the join
    /// sorts it on `trans_id` — once: it makes exactly one sort's
    /// accesses fewer than the same join over two copies of `SALES`.
    #[test]
    fn a_self_join_sorts_its_stored_table_once() {
        let mut e = SqlEngine::new();
        let p = Params::new().with("minsupport", 1);
        let sales: Vec<[u32; 2]> =
            (0..800u32).flat_map(|t| (0..4).map(move |j| [t, j * 5 + t % 5])).collect();
        for table in ["SALES", "SALES_COPY"] {
            let rows = sales.iter().map(|r| r.as_slice());
            e.load_table(table, &["trans_id", "item"], rows).unwrap();
            let c1 = format!("SELECT r1.item, COUNT(*) FROM {table} r1 GROUP BY r1.item");
            e.query(&c1, &p).unwrap();
            assert_eq!(e.database().table(table).unwrap().sorted_by, Some(vec![1]), "{table}");
        }
        let join = |e: &mut SqlEngine, right: &str| {
            e.database().reset_io_stats();
            let sql = format!(
                "SELECT p.trans_id, p.item, q.item
                 FROM SALES p, {right} q
                 WHERE q.trans_id = p.trans_id AND q.item > p.item"
            );
            let rows = e.query(&sql, &p).unwrap().rows;
            (rows, e.database().io_stats().accesses())
        };
        let pages_before = e.database().pager().lock().total_pages();
        let (self_rows, self_accesses) = join(&mut e, "SALES");
        assert_eq!(
            e.database().pager().lock().total_pages(),
            pages_before,
            "frees its sorted copy"
        );
        let (copy_rows, copy_accesses) = join(&mut e, "SALES_COPY");
        assert_eq!(self_rows.len(), 800 * 6, "every pair of a transaction's items");
        assert_eq!(self_rows, copy_rows);

        let file = e.database().table("SALES").unwrap().file.clone();
        e.database().reset_io_stats();
        external_sort(&file, &[0], e.opts.sort_options()).unwrap().free().unwrap();
        let one_sort = e.database().io_stats().accesses();
        assert_eq!(self_accesses + one_sort, copy_accesses);
    }

    #[test]
    fn a_join_that_drops_columns_writes_rows_of_the_select_width() {
        for join in [JoinPreference::SortMerge, JoinPreference::IndexNestedLoop] {
            let mut e = SqlEngine::new();
            let p = Params::new();
            let t: Vec<[u32; 2]> = (0..3_000u32).map(|i| [i, i % 10]).collect();
            let u: Vec<[u32; 2]> = (0..3_000u32).map(|i| [i, i % 7]).collect();
            e.load_table("t", &["a", "b"], t.iter().map(|r| r.as_slice())).unwrap();
            e.load_table("u", &["a", "c"], u.iter().map(|r| r.as_slice())).unwrap();
            e.database_mut().create_index("u_a_c", "u", &["a", "c"]).unwrap();
            e.set_options(ExecOptions { join, ..Default::default() });
            let where_ = "WHERE p.a = q.a AND q.c < p.b AND p.b <> 3";
            // Accesses of one INSERT … SELECT and the pages it inserted.
            let mut insert = |table: &str, cols: &str, list: &str| {
                e.execute(&format!("CREATE TABLE {table} ({cols})"), &p).unwrap();
                e.database().reset_io_stats();
                let sql = format!("INSERT INTO {table} SELECT {list} FROM t p, u q {where_}");
                e.execute(&sql, &p).unwrap();
                let accesses = e.database().io_stats().accesses();
                (accesses, u64::from(e.database().table(table).unwrap().file.n_pages()))
            };
            let (narrow, narrow_pages) = insert("narrow", "a INT", "p.a");
            let (wide, wide_pages) =
                insert("wide", "a INT, b INT, a2 INT, c INT", "p.a, p.b, q.a, q.c");
            assert!(narrow_pages < wide_pages, "{join:?}: {narrow_pages} vs {wide_pages}");
            // The two statements read the same pages; each writes only
            // its own output.
            assert_eq!(narrow - narrow_pages, wide - wide_pages, "{join:?}");
            if join == JoinPreference::SortMerge {
                let input_pages = u64::from(e.database().table("t").unwrap().file.n_pages())
                    + u64::from(e.database().table("u").unwrap().file.n_pages());
                assert_eq!(narrow, input_pages + narrow_pages);
            }
            let kept = t.iter().filter(|r| r[0] % 7 < r[1] && r[1] != 3).count();
            let rows = e.query("SELECT a FROM narrow", &p).unwrap().rows;
            assert_eq!(rows.len(), kept, "{join:?}");
        }
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
