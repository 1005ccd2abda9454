//! Fixed-size pages with a slotted fixed-length-record layout.
//!
//! The paper's analysis (Section 3.2) assumes 4 KiB pages holding
//! fixed-length records of 4-byte integer columns with "little overhead".
//! We use a 4-byte header (record count) and pack records densely after it,
//! so an 8-byte `SALES` tuple page holds 511 records (the paper rounds this
//! to 500 for its arithmetic; the analytical cost model in `setm-costmodel`
//! uses the paper's rounded figures, while the engine uses the exact ones).

use crate::errors::{Error, Result};
use crate::schema::VALUE_BYTES;

/// Size of a page in bytes, per the paper.
pub const PAGE_SIZE: usize = 4096;

/// Bytes reserved at the start of each page for the record count.
pub const PAGE_HEADER_BYTES: usize = 4;

/// A 4 KiB page. Heap-allocated so `Vec<Page>` growth stays cheap.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Page { data: Box::new([0u8; PAGE_SIZE]) }
    }
}

impl Page {
    /// A zeroed page (zero records).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of fixed-length records a page can hold for the given arity.
    pub fn capacity(arity: usize) -> usize {
        (PAGE_SIZE - PAGE_HEADER_BYTES) / (arity * VALUE_BYTES)
    }

    /// Number of records currently stored.
    pub fn record_count(&self) -> usize {
        u32::from_le_bytes([self.data[0], self.data[1], self.data[2], self.data[3]]) as usize
    }

    fn set_record_count(&mut self, n: usize) {
        self.data[0..4].copy_from_slice(&(n as u32).to_le_bytes());
    }

    /// Append as many whole records of `arity` columns from the flat
    /// row-major `rows` as fit, in order; returns how many were copied
    /// (0 when the page is full).
    pub fn push_records(&mut self, rows: &[u32], arity: usize) -> Result<usize> {
        let rec_bytes = arity * VALUE_BYTES;
        if rec_bytes > PAGE_SIZE - PAGE_HEADER_BYTES {
            return Err(Error::RecordTooLarge { record_bytes: rec_bytes, page_bytes: PAGE_SIZE });
        }
        let n = self.record_count();
        let fit = Self::capacity(arity).saturating_sub(n).min(rows.len() / arity);
        let off = PAGE_HEADER_BYTES + n * rec_bytes;
        let dst = &mut self.data[off..off + fit * rec_bytes];
        for (b, v) in dst.chunks_exact_mut(VALUE_BYTES).zip(&rows[..fit * arity]) {
            b.copy_from_slice(&v.to_le_bytes());
        }
        self.set_record_count(n + fit);
        Ok(fit)
    }

    /// Append all records of arity `arity` in this page to `out` as flat values.
    pub fn read_all(&self, arity: usize, out: &mut Vec<u32>) {
        let end = PAGE_HEADER_BYTES + self.record_count() * arity * VALUE_BYTES;
        let bytes = &self.data[PAGE_HEADER_BYTES..end];
        out.extend(
            bytes.chunks_exact(VALUE_BYTES).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
    }

    /// Raw byte access (used by the B+-tree, which defines its own layout).
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Mutable raw byte access.
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page({} records)", self.record_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_matches_paper_arithmetic() {
        // 8-byte SALES tuples: paper says "upto 500 entries"; exact is 511.
        assert_eq!(Page::capacity(2), 511);
        // R_2 tuples are 12 bytes.
        assert_eq!(Page::capacity(3), 341);
    }

    #[test]
    fn push_and_read_round_trip() {
        let mut p = Page::new();
        assert_eq!(p.record_count(), 0);
        assert_eq!(p.push_records(&[7, 42], 2).unwrap(), 1);
        assert_eq!(p.push_records(&[8, 43], 2).unwrap(), 1);
        let mut out = vec![];
        p.read_all(2, &mut out);
        assert_eq!(out, vec![7, 42, 8, 43]);
    }

    #[test]
    fn push_records_copies_as_many_as_fit() {
        let mut p = Page::new();
        let cap = Page::capacity(3);
        let rows: Vec<u32> = (0..(cap as u32 + 2) * 3).collect();
        assert_eq!(p.push_records(&rows[..6], 3).unwrap(), 2);
        assert_eq!(p.push_records(&rows[6..], 3).unwrap(), cap - 2, "fills the page");
        assert_eq!(p.push_records(&rows[6..], 3).unwrap(), 0, "a full page takes none");
        let mut out = vec![];
        p.read_all(3, &mut out);
        assert_eq!(out, rows[..cap * 3]);
    }

    #[test]
    fn page_fills_to_exact_capacity() {
        let mut p = Page::new();
        let cap = Page::capacity(2);
        for i in 0..cap {
            assert_eq!(p.push_records(&[i as u32, 0], 2).unwrap(), 1, "record {i} should fit");
        }
        assert_eq!(p.push_records(&[0, 0], 2).unwrap(), 0, "page must reject overflow");
        assert_eq!(p.record_count(), cap);
    }

    #[test]
    fn read_all_returns_flat_values_in_order() {
        let mut p = Page::new();
        p.push_records(&[1, 2, 3, 4, 5, 6], 3).unwrap();
        let mut out = vec![];
        p.read_all(3, &mut out);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn oversized_record_is_rejected() {
        let mut p = Page::new();
        let big = vec![0u32; (PAGE_SIZE / VALUE_BYTES) + 1];
        assert!(matches!(p.push_records(&big, big.len()), Err(Error::RecordTooLarge { .. })));
    }
}
