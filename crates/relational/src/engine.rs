//! The `Database`: a catalog of named tables and indexes over one pager.
//!
//! This is the integration surface used by the SQL layer (`setm-sql`).
//! Tables remember their sort order (`sorted_by`), implementing the
//! Section 4.1 remark that the final `ORDER BY` "enables an efficient
//! execution plan if the sort order of the relations is tracked across
//! iterations": the SQL executor skips the sort of a join input, group or
//! `ORDER BY` whose order the catalog already records. The order comes
//! from the statement that filled the table (an `INSERT … SELECT` keeps
//! its result's order), from a bulk load whose rows arrive sorted, and
//! from a single-table `GROUP BY` that had to sort the table: its sorted
//! copy replaces the table's storage ([`Database::recluster`]), so the
//! table stays in group order for the next statement.

use crate::btree::BTree;
use crate::errors::{Error, Result};
use crate::heap::HeapFile;
use crate::pager::{IoStats, Pager, SharedPager};
use crate::schema::Schema;
use crate::sort::{external_sort, SortOptions};
use std::collections::HashMap;

/// A named relation: schema + heap file + known sort order.
pub struct Table {
    pub name: String,
    pub schema: Schema,
    pub file: HeapFile,
    /// Column positions the file is known to be sorted on (key prefix),
    /// if any. Maintained by the operations that produce sorted output.
    pub sorted_by: Option<Vec<usize>>,
}

/// A named B+-tree index over a table's columns.
pub struct Index {
    pub name: String,
    pub table: String,
    /// Column positions of the table forming the index key, in key order.
    pub key_cols: Vec<usize>,
    pub btree: BTree,
}

/// A single-user, single-threaded relational database over a simulated
/// paged disk.
pub struct Database {
    pager: SharedPager,
    tables: HashMap<String, Table>,
    indexes: HashMap<String, Index>,
}

impl Database {
    /// A database on a fresh pager with the paper's cost model.
    pub fn new() -> Self {
        Self::with_pager(Pager::shared())
    }

    /// A database over an existing pager (to share I/O accounting).
    pub fn with_pager(pager: SharedPager) -> Self {
        Database { pager, tables: HashMap::new(), indexes: HashMap::new() }
    }

    /// The shared pager.
    pub fn pager(&self) -> &SharedPager {
        &self.pager
    }

    /// Create a table and load `rows` into it.
    pub fn create_table_from_rows<'a, I: IntoIterator<Item = &'a [u32]>>(
        &mut self,
        name: &str,
        schema: Schema,
        rows: I,
    ) -> Result<&Table> {
        if self.tables.contains_key(name) {
            return Err(Error::TableExists(name.to_string()));
        }
        let file = HeapFile::from_rows(self.pager.clone(), schema.arity(), rows)?;
        self.register(name, schema, file, None)
    }

    /// Create an empty table.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<&Table> {
        self.create_table_from_rows(name, schema, std::iter::empty())
    }

    /// Register an existing heap file as a table.
    pub fn register(
        &mut self,
        name: &str,
        schema: Schema,
        file: HeapFile,
        sorted_by: Option<Vec<usize>>,
    ) -> Result<&Table> {
        if schema.arity() != file.arity() {
            return Err(Error::ArityMismatch { expected: schema.arity(), got: file.arity() });
        }
        let table = Table { name: name.to_string(), schema, file, sorted_by };
        self.tables.insert(name.to_string(), table);
        Ok(&self.tables[name])
    }

    /// Replace the contents of `name` (used by `INSERT INTO ... SELECT`
    /// loops that rebuild `R_k` each iteration).
    pub fn replace_table(
        &mut self,
        name: &str,
        schema: Schema,
        file: HeapFile,
        sorted_by: Option<Vec<usize>>,
    ) -> Result<()> {
        if let Some(old) = self.tables.remove(name) {
            old.file.free()?;
        }
        // Also drop indexes that referenced the old contents.
        let stale: Vec<String> =
            self.indexes.values().filter(|i| i.table == name).map(|i| i.name.clone()).collect();
        for idx in stale {
            self.indexes.remove(&idx);
        }
        self.register(name, schema, file, sorted_by)?;
        Ok(())
    }

    /// Make `file`, which holds `name`'s rows sorted on `sorted_by`, the
    /// table's storage, and free the old file. The table's indexes stay:
    /// they hold the same rows. Without the table, `file` is freed.
    pub fn recluster(&mut self, name: &str, file: HeapFile, sorted_by: Vec<usize>) -> Result<()> {
        let Some(table) = self.tables.get_mut(name) else {
            file.free()?;
            return Err(Error::NoSuchTable(name.to_string()));
        };
        debug_assert_eq!(file.n_records(), table.file.n_records(), "the same rows");
        table.sorted_by = Some(sorted_by);
        std::mem::replace(&mut table.file, file).free()
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables.get(name).ok_or_else(|| Error::NoSuchTable(name.to_string()))
    }

    /// Whether a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Drop a table, freeing its pages.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let table = self.tables.remove(name).ok_or_else(|| Error::NoSuchTable(name.to_string()))?;
        table.file.free()?;
        let stale: Vec<String> =
            self.indexes.values().filter(|i| i.table == name).map(|i| i.name.clone()).collect();
        for idx in stale {
            self.indexes.remove(&idx);
        }
        Ok(())
    }

    /// Build a B+-tree index named `index_name` on `table_name(columns)`.
    /// The index key is the listed columns in order; internal nodes are
    /// pinned in memory per the paper's Section 3.2 assumption.
    pub fn create_index(
        &mut self,
        index_name: &str,
        table_name: &str,
        columns: &[&str],
    ) -> Result<&Index> {
        let table = self.table(table_name)?;
        let key_cols: Vec<usize> =
            columns.iter().map(|c| table.schema.column_index(c)).collect::<Result<_>>()?;
        // Project the key columns, sort, bulk load, discard the temp.
        let projected = crate::agg::filter_project(&table.file, &key_cols, |_| true)?;
        let all_cols: Vec<usize> = (0..key_cols.len()).collect();
        let sorted = external_sort(&projected, &all_cols, SortOptions::default())?;
        projected.free()?;
        let mut btree = BTree::from_sorted_heapfile(&sorted)?;
        sorted.free()?;
        btree.cache_internal_nodes()?;
        let index =
            Index { name: index_name.to_string(), table: table_name.to_string(), key_cols, btree };
        self.indexes.insert(index_name.to_string(), index);
        Ok(&self.indexes[index_name])
    }

    /// Look up an index by name.
    pub fn index(&self, name: &str) -> Result<&Index> {
        self.indexes.get(name).ok_or_else(|| Error::NoSuchIndex(name.to_string()))
    }

    /// Find an index on `table` whose key starts with the given columns.
    pub fn find_index_on(&self, table: &str, key_prefix: &[usize]) -> Option<&Index> {
        self.indexes.values().find(|i| {
            i.table == table
                && i.key_cols.len() >= key_prefix.len()
                && i.key_cols[..key_prefix.len()] == *key_prefix
        })
    }

    /// Current I/O statistics of the shared pager.
    pub fn io_stats(&self) -> IoStats {
        self.pager.lock().stats()
    }

    /// Reset I/O statistics.
    pub fn reset_io_stats(&self) {
        self.pager.lock().reset_stats();
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sales_rows() -> Vec<Vec<u32>> {
        vec![vec![10, 1], vec![10, 2], vec![20, 1], vec![20, 3], vec![30, 2]]
    }

    #[test]
    fn create_and_scan_table() {
        let mut db = Database::new();
        let rows = sales_rows();
        db.create_table_from_rows("SALES", Schema::sales(), rows.iter().map(|r| r.as_slice()))
            .unwrap();
        let t = db.table("SALES").unwrap();
        assert_eq!(t.file.n_records(), 5);
        assert_eq!(t.file.rows().unwrap(), rows);
        assert!(db.has_table("SALES"));
        assert!(!db.has_table("sales"));
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = Database::new();
        db.create_table("T", Schema::new(["a"])).unwrap();
        assert!(matches!(db.create_table("T", Schema::new(["a"])), Err(Error::TableExists(_))));
    }

    #[test]
    fn drop_frees_pages() {
        let mut db = Database::new();
        let rows = sales_rows();
        db.create_table_from_rows("SALES", Schema::sales(), rows.iter().map(|r| r.as_slice()))
            .unwrap();
        assert!(db.pager().lock().total_pages() > 0);
        db.drop_table("SALES").unwrap();
        assert_eq!(db.pager().lock().total_pages(), 0);
        assert!(matches!(db.table("SALES"), Err(Error::NoSuchTable(_))));
    }

    #[test]
    fn index_probe_finds_matches() {
        let mut db = Database::new();
        let rows = sales_rows();
        db.create_table_from_rows("SALES", Schema::sales(), rows.iter().map(|r| r.as_slice()))
            .unwrap();
        // The paper's index on (item, trans_id).
        db.create_index("SALES_item_tid", "SALES", &["item", "trans_id"]).unwrap();
        let idx = db.index("SALES_item_tid").unwrap();
        let mut tids = Vec::new();
        idx.btree.scan_prefix(&[1], |k| tids.push(k[1])).unwrap();
        assert_eq!(tids, vec![10, 20]);
        assert_eq!(idx.btree.count_prefix(&[2]).unwrap(), 2);
        assert_eq!(idx.btree.count_prefix(&[9]).unwrap(), 0);
    }

    #[test]
    fn find_index_on_matches_key_prefix() {
        let mut db = Database::new();
        let rows = sales_rows();
        db.create_table_from_rows("SALES", Schema::sales(), rows.iter().map(|r| r.as_slice()))
            .unwrap();
        db.create_index("idx", "SALES", &["item", "trans_id"]).unwrap();
        assert!(db.find_index_on("SALES", &[1]).is_some());
        assert!(db.find_index_on("SALES", &[1, 0]).is_some());
        assert!(db.find_index_on("SALES", &[0]).is_none());
        assert!(db.find_index_on("OTHER", &[1]).is_none());
    }

    #[test]
    fn replace_table_swaps_contents_and_invalidates_indexes() {
        let mut db = Database::new();
        let rows = sales_rows();
        db.create_table_from_rows("R", Schema::sales(), rows.iter().map(|r| r.as_slice())).unwrap();
        db.create_index("R_idx", "R", &["item"]).unwrap();
        let new_rows = vec![vec![99u32, 9u32]];
        let file =
            HeapFile::from_rows(db.pager().clone(), 2, new_rows.iter().map(|r| r.as_slice()))
                .unwrap();
        db.replace_table("R", Schema::sales(), file, Some(vec![0, 1])).unwrap();
        assert_eq!(db.table("R").unwrap().file.rows().unwrap(), new_rows);
        assert_eq!(db.table("R").unwrap().sorted_by, Some(vec![0, 1]));
        assert!(db.index("R_idx").is_err(), "stale index must be dropped");
    }

    #[test]
    fn recluster_swaps_storage_and_keeps_indexes() {
        let mut db = Database::new();
        let rows = sales_rows();
        db.create_table_from_rows("R", Schema::sales(), rows.iter().map(|r| r.as_slice())).unwrap();
        db.create_index("R_idx", "R", &["item"]).unwrap();
        let pages = db.pager().lock().total_pages();
        let file =
            external_sort(&db.table("R").unwrap().file, &[1], SortOptions::default()).unwrap();
        db.recluster("R", file, vec![1]).unwrap();
        let t = db.table("R").unwrap();
        let mut by_item = rows.clone();
        by_item.sort_by_key(|r| (r[1], r[0]));
        assert_eq!(t.file.rows().unwrap(), by_item);
        assert_eq!(t.sorted_by, Some(vec![1]));
        assert!(db.index("R_idx").is_ok(), "the index holds the same rows");
        assert_eq!(db.pager().lock().total_pages(), pages, "the old file is freed");
        // A missing table frees the file it was handed.
        let orphan = HeapFile::from_rows(db.pager().clone(), 2, [[1u32, 2].as_slice()]).unwrap();
        assert!(matches!(db.recluster("NOPE", orphan, vec![0]), Err(Error::NoSuchTable(_))));
        assert_eq!(db.pager().lock().total_pages(), pages);
    }
}
