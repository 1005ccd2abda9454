//! # setm-relational — the storage-engine substrate for SETM
//!
//! A small, single-threaded relational storage engine built for the
//! reproduction of *Houtsma & Swami, "Set-Oriented Mining for Association
//! Rules in Relational Databases" (ICDE 1995)*. The paper argues that
//! association-rule mining needs nothing beyond two database primitives —
//! **sorting** and **merge-scan join** — and prices every strategy in
//! 4 KiB-page accesses (10 ms sequential, 20 ms random). This crate
//! provides exactly that substrate, with the instrumentation needed to
//! check the paper's claims:
//!
//! * [`pager::Pager`] — a simulated disk that classifies every page access
//!   as sequential or random and prices it with the paper's cost model,
//!   with an optional private CLOCK buffer cache (Design notes §11);
//! * [`heap::HeapFile`] — fixed-length-record relations;
//! * [`sort::external_sort`] — two-phase external merge sort: radix-sorted
//!   runs written a page at a time, then a loser-tree k-way merge;
//! * [`join::merge_scan_join`] / [`join::index_nested_loop_join`] — the
//!   Section 4 and Section 3 join strategies, respectively;
//! * [`btree::BTree`] — bulk-loaded key-only B+-trees matching the
//!   Section 3.2 index layout;
//! * [`agg::grouped_count`] — the `GROUP BY … HAVING COUNT(*) >= s` step;
//! * [`engine::Database`] — a catalog tying it all together, with
//!   sort-order tracking across iterations (the Section 4.1 optimization).
//!
//! All values are `u32` integers, as in the paper ("each item and
//! transaction id is represented using 4 bytes").
//!
//! Operators do their per-row work on flat row-major `u32` buffers: a
//! [`heap::HeapCursor`] decodes each page once and hands out slices of it,
//! [`heap::HeapFile::read_all`] and [`heap::HeapFile::read_page_into`]
//! decode whole pages, and [`heap::HeapFileBuilder`] stages records flat
//! and encodes a page at a time ([`page::Page::push_records`]). None of
//! this moves a page access: pages are read and written in the order, and
//! at the moments, a row-at-a-time scan would touch them.

pub mod agg;
pub mod btree;
pub mod engine;
pub mod errors;
pub mod heap;
pub mod join;
pub mod page;
pub mod pager;
pub mod schema;
pub mod sort;
pub mod tuple;

pub use engine::{Database, Index, Table};
pub use errors::{Error, Result};
pub use heap::{HeapFile, HeapFileBuilder};
pub use page::{Page, PAGE_SIZE};
pub use pager::{CostModel, FileId, IoStats, Pager, SharedPager};
pub use schema::Schema;
pub use sort::{external_sort, SortOptions};
