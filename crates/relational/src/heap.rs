//! Heap files: append-only sequences of fixed-length records.
//!
//! Every relation the engine materializes — `SALES`, the `R_k` and `R'_k`
//! relations of Algorithm SETM, sort runs — is a heap file. Records are
//! `arity` consecutive `u32` values; pages are filled densely in append
//! order, so a full scan is a purely sequential read (the access pattern
//! whose cost Section 4.3 prices at 10 ms/page).

use crate::errors::{Error, Result};
use crate::page::Page;
use crate::pager::{FileId, SharedPager};

/// A read-only handle to a fully-written heap file.
#[derive(Clone)]
pub struct HeapFile {
    pager: SharedPager,
    fid: FileId,
    arity: usize,
    n_records: u64,
    n_pages: u32,
}

/// Incrementally builds a heap file; call [`HeapFileBuilder::finish`] to
/// flush the final partial page and obtain the read handle.
///
/// Records are staged flat until they fill a page, which is then encoded
/// in one [`Page::push_records`] call and appended. A full page is written
/// only once a further record arrives (or at `finish`), so the pages
/// written, and when, do not depend on whether records come one by one
/// ([`push`](Self::push)) or in bulk ([`extend_flat`](Self::extend_flat)).
/// After an error, drop it unfinished.
pub struct HeapFileBuilder {
    pager: SharedPager,
    fid: FileId,
    arity: usize,
    /// Values of one full page: `Page::capacity(arity) * arity`.
    page_values: usize,
    /// The tail page's records, flat row-major.
    staged: Vec<u32>,
    n_records: u64,
    n_pages: u32,
}

impl HeapFileBuilder {
    /// Start a new heap file with `arity` columns per record.
    pub fn new(pager: SharedPager, arity: usize) -> Self {
        assert!(arity > 0, "records must have at least one column");
        let fid = pager.lock().create_file();
        let page_values = Page::capacity(arity) * arity;
        HeapFileBuilder {
            pager,
            fid,
            arity,
            page_values,
            staged: Vec::with_capacity(page_values),
            n_records: 0,
            n_pages: 0,
        }
    }

    /// Append one record.
    pub fn push(&mut self, row: &[u32]) -> Result<()> {
        if row.len() != self.arity {
            return Err(Error::ArityMismatch { expected: self.arity, got: row.len() });
        }
        if self.staged.len() == self.page_values {
            self.flush()?;
        }
        self.staged.extend_from_slice(row);
        self.n_records += 1;
        Ok(())
    }

    /// Append every record from an iterator of rows.
    pub fn extend<'a, I: IntoIterator<Item = &'a [u32]>>(&mut self, rows: I) -> Result<()> {
        for row in rows {
            self.push(row)?;
        }
        Ok(())
    }

    /// Append the records of a flat row-major buffer (`arity` values per
    /// record), a page's worth at a time.
    pub fn extend_flat(&mut self, rows: &[u32]) -> Result<()> {
        if !rows.len().is_multiple_of(self.arity) {
            return Err(Error::ArityMismatch {
                expected: self.arity,
                got: rows.len() % self.arity,
            });
        }
        let mut rest = rows;
        while !rest.is_empty() {
            if self.staged.len() == self.page_values {
                self.flush()?;
            }
            let take = (self.page_values - self.staged.len()).min(rest.len());
            self.staged.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
        }
        self.n_records += (rows.len() / self.arity) as u64;
        Ok(())
    }

    /// Encode the staged records into a page and append it.
    fn flush(&mut self) -> Result<()> {
        let mut page = Page::new();
        page.push_records(&self.staged, self.arity)?;
        self.pager.lock().append_page(self.fid, page)?;
        self.n_pages += 1;
        self.staged.clear();
        Ok(())
    }

    /// Records appended so far.
    pub fn n_records(&self) -> u64 {
        self.n_records
    }

    /// Flush the tail page and return the read-only handle.
    pub fn finish(mut self) -> Result<HeapFile> {
        if !self.staged.is_empty() {
            self.flush()?;
        }
        Ok(HeapFile {
            pager: self.pager,
            fid: self.fid,
            arity: self.arity,
            n_records: self.n_records,
            n_pages: self.n_pages,
        })
    }
}

impl HeapFile {
    /// Build a heap file from an iterator of rows in one call.
    pub fn from_rows<'a, I: IntoIterator<Item = &'a [u32]>>(
        pager: SharedPager,
        arity: usize,
        rows: I,
    ) -> Result<HeapFile> {
        let mut b = HeapFileBuilder::new(pager, arity);
        b.extend(rows)?;
        b.finish()
    }

    /// An empty heap file of the given arity.
    pub fn empty(pager: SharedPager, arity: usize) -> Result<HeapFile> {
        HeapFileBuilder::new(pager, arity).finish()
    }

    /// Columns per record.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Total records.
    pub fn n_records(&self) -> u64 {
        self.n_records
    }

    /// Pages occupied — the `||R||` of the paper's cost formulas.
    pub fn n_pages(&self) -> u32 {
        self.n_pages
    }

    /// Size in bytes as `tuples × record_bytes` — the unit plotted by the
    /// paper's Figure 5 (which reports relation sizes in Kbytes).
    pub fn data_bytes(&self) -> u64 {
        self.n_records * (self.arity * crate::schema::VALUE_BYTES) as u64
    }

    /// The underlying file id.
    pub fn file_id(&self) -> FileId {
        self.fid
    }

    /// The shared pager this file lives on.
    pub fn pager(&self) -> &SharedPager {
        &self.pager
    }

    /// Free the underlying pages (e.g. `R'_k` after filtering, per the
    /// paper's loop which discards each intermediate once consumed).
    pub fn free(self) -> Result<()> {
        self.pager.lock().free_file(self.fid)
    }

    /// Read page `pno` and append its records to `out` as flat row-major
    /// values: one page access, decoded once.
    pub fn read_page_into(&self, pno: u32, out: &mut Vec<u32>) -> Result<()> {
        let page = self.pager.lock().read_page(self.fid, pno)?;
        page.read_all(self.arity, out);
        Ok(())
    }

    /// Materialize the whole file as a flat row-major vector
    /// (`n_records × arity` values).
    pub fn read_all(&self) -> Result<Vec<u32>> {
        let mut out = Vec::with_capacity(self.n_records as usize * self.arity);
        for pno in 0..self.n_pages {
            self.read_page_into(pno, &mut out)?;
        }
        Ok(out)
    }

    /// Materialize as a vector of row vectors (test/debug convenience).
    pub fn rows(&self) -> Result<Vec<Vec<u32>>> {
        Ok(self.read_all()?.chunks_exact(self.arity).map(<[u32]>::to_vec).collect())
    }

    /// A streaming cursor over the file (used by merge joins, which must
    /// interleave two scans).
    pub fn cursor(&self) -> HeapCursor<'_> {
        HeapCursor { file: self, next_pno: 0, page: Vec::new(), next: 0 }
    }
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HeapFile(file={}, arity={}, records={}, pages={})",
            self.fid.0, self.arity, self.n_records, self.n_pages
        )
    }
}

/// Streaming cursor: decodes its current page once and hands out slices
/// of it. The next page is read only when a row past the current page is
/// asked for, so interleaved scans (merge joins, the sort's k-way merge)
/// read each page at the moment a row-at-a-time scan would.
pub struct HeapCursor<'a> {
    file: &'a HeapFile,
    next_pno: u32,
    /// The current page's records, flat row-major.
    page: Vec<u32>,
    /// Offset in `page` just past the current row.
    next: usize,
}

impl HeapCursor<'_> {
    /// Move to the next record; `false` at end of file. After `true`,
    /// [`row`](Self::row) is that record.
    pub fn advance(&mut self) -> Result<bool> {
        while self.next == self.page.len() {
            if self.next_pno >= self.file.n_pages {
                return Ok(false);
            }
            self.page.clear();
            self.next = 0;
            self.file.read_page_into(self.next_pno, &mut self.page)?;
            self.next_pno += 1;
        }
        self.next += self.file.arity;
        Ok(true)
    }

    /// The record the last successful [`advance`](Self::advance) moved to.
    pub fn row(&self) -> &[u32] {
        &self.page[self.next - self.file.arity..self.next]
    }

    /// Advance to the next record; returns the decoded row, or `None` at
    /// end of file. The returned slice is valid until the next call.
    pub fn next_row(&mut self) -> Result<Option<&[u32]>> {
        Ok(if self.advance()? { Some(self.row()) } else { None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;

    #[test]
    fn round_trip_small() {
        let pager = Pager::shared();
        let rows: Vec<Vec<u32>> = vec![vec![1, 10], vec![2, 20], vec![3, 30]];
        let f = HeapFile::from_rows(pager, 2, rows.iter().map(|r| r.as_slice())).unwrap();
        assert_eq!(f.n_records(), 3);
        assert_eq!(f.n_pages(), 1);
        assert_eq!(f.rows().unwrap(), rows);
    }

    #[test]
    fn spans_multiple_pages_and_preserves_order() {
        let pager = Pager::shared();
        let n = 2000u32; // 511 two-column records per page -> 4 pages
        let rows: Vec<Vec<u32>> = (0..n).map(|i| vec![i, i * 7]).collect();
        let f = HeapFile::from_rows(pager.clone(), 2, rows.iter().map(|r| r.as_slice())).unwrap();
        assert_eq!(f.n_pages(), 4);
        assert_eq!(f.n_records(), n as u64);
        let back = f.rows().unwrap();
        assert_eq!(back, rows);
        // Scan I/O: one read per page; at most the initial rewind (the
        // head sits at the end of the previous scan) counts as random.
        pager.lock().reset_stats();
        f.read_all().unwrap();
        let s = pager.lock().stats();
        assert_eq!(s.reads(), 4);
        assert!(s.rand_reads <= 1, "only the rewind may be random: {s:?}");
    }

    #[test]
    fn page_count_matches_paper_formula() {
        // Section 4.3: ||R_i|| pages for |R_i| tuples of (i+1)*4 bytes.
        let pager = Pager::shared();
        let rows: Vec<Vec<u32>> = (0..1023).map(|i| vec![i, 0]).collect();
        let f = HeapFile::from_rows(pager, 2, rows.iter().map(|r| r.as_slice())).unwrap();
        // 511 per page -> ceil(1023/511) = 3 pages.
        assert_eq!(f.n_pages(), 3);
        assert_eq!(f.data_bytes(), 1023 * 8);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let pager = Pager::shared();
        let mut b = HeapFileBuilder::new(pager, 2);
        assert!(matches!(b.push(&[1, 2, 3]), Err(Error::ArityMismatch { expected: 2, got: 3 })));
    }

    #[test]
    fn empty_file_scans_cleanly() {
        let pager = Pager::shared();
        let f = HeapFile::empty(pager, 3).unwrap();
        assert_eq!(f.n_records(), 0);
        assert_eq!(f.n_pages(), 0);
        assert!(f.rows().unwrap().is_empty());
        let mut cur = f.cursor();
        assert!(cur.next_row().unwrap().is_none());
    }

    #[test]
    fn cursor_yields_all_rows_in_order() {
        let pager = Pager::shared();
        let rows: Vec<Vec<u32>> = (0..600).map(|i| vec![i]).collect();
        let f = HeapFile::from_rows(pager, 1, rows.iter().map(|r| r.as_slice())).unwrap();
        let mut cur = f.cursor();
        let mut got = vec![];
        while let Some(row) = cur.next_row().unwrap() {
            got.push(row[0]);
        }
        assert_eq!(got, (0..600).collect::<Vec<u32>>());
        // Exhausted cursor stays exhausted.
        assert!(cur.next_row().unwrap().is_none());
    }

    #[test]
    fn read_all_is_flat_row_major() {
        let pager = Pager::shared();
        let rows: Vec<Vec<u32>> = vec![vec![1, 2], vec![3, 4]];
        let f = HeapFile::from_rows(pager, 2, rows.iter().map(|r| r.as_slice())).unwrap();
        assert_eq!(f.read_all().unwrap(), vec![1, 2, 3, 4]);
    }
}
