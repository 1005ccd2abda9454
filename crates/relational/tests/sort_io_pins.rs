//! Pins the full `IoStats` and an output digest of multi-pass external
//! sorts on a cached pager.
//!
//! The paper prices a sort in page accesses, so how the sorter spends CPU
//! must not move a single page read or write: not the sequential/random
//! split, not which reads the cache absorbs. The numbers below were
//! recorded with a binary-heap merge over row-at-a-time cursors and
//! row-at-a-time run writes; the loser-tree merge over page-decoding
//! cursors and page-at-a-time runs reproduces them exactly.

use setm_relational::sort::{external_sort, SortOptions};
use setm_relational::{HeapFile, IoStats, Pager};

/// One pinned sort: `rows` rows of `arity` columns sorted on `key` with
/// a `buffer_pages` workspace. A `narrow` input takes values 0..3 only,
/// so equal rows meet in the merge and which run it advances first (the
/// lower) decides when the next run page is read.
struct Case {
    arity: usize,
    key: &'static [usize],
    rows: usize,
    buffer_pages: usize,
    narrow: bool,
}

const CASES: [Case; 5] = [
    Case { arity: 1, key: &[0], rows: 9_000, buffer_pages: 3, narrow: false },
    Case { arity: 3, key: &[2, 0], rows: 6_000, buffer_pages: 3, narrow: false },
    Case { arity: 5, key: &[3], rows: 4_000, buffer_pages: 4, narrow: false },
    Case { arity: 6, key: &[5, 1], rows: 3_500, buffer_pages: 3, narrow: false },
    Case { arity: 2, key: &[1], rows: 8_000, buffer_pages: 3, narrow: true },
];

/// Deterministic input with duplicates across runs and the extreme
/// values 0 and `u32::MAX` (or only 0..3 when `narrow`).
fn input(case: &Case) -> Vec<u32> {
    let mut state = 0x9E37_79B9u32;
    (0..case.rows * case.arity)
        .map(|i| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            match i % 7 {
                _ if case.narrow => state >> 30,
                0 => state % 5,
                1 if state.is_multiple_of(11) => u32::MAX,
                1 if state.is_multiple_of(13) => 0,
                _ => state >> (state % 24),
            }
        })
        .collect()
}

/// FNV-1a over the output values in storage order.
fn digest(values: &[u32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &v| {
        (h ^ u64::from(v)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Load `case`'s input on a fresh uncached pager, install the cache with
/// `cache`, then sort and return the sort's I/O and the digest of its
/// output. The cache starts empty, so everything it holds was admitted by
/// the sort itself.
fn run(case: &Case, cache: impl FnOnce(&mut Pager)) -> (IoStats, u64) {
    let pager = Pager::shared();
    let flat = input(case);
    let file = HeapFile::from_rows(pager.clone(), case.arity, flat.chunks_exact(case.arity))
        .expect("load input");
    cache(&mut pager.lock());
    pager.lock().reset_stats();
    let sorted = external_sort(&file, case.key, SortOptions { buffer_pages: case.buffer_pages })
        .expect("sort");
    let stats = pager.lock().stats();
    let out = sorted.read_all().expect("read output");
    assert_eq!(out.len(), flat.len(), "the sort keeps every row");
    (stats, digest(&out))
}

fn stats(
    seq_reads: u64,
    rand_reads: u64,
    seq_writes: u64,
    rand_writes: u64,
    cache_hits: u64,
    pool_steals: u64,
) -> IoStats {
    IoStats { seq_reads, rand_reads, seq_writes, rand_writes, cache_hits, pool_steals }
}

#[test]
fn multi_pass_sorts_on_a_private_cache_are_pinned() {
    let expected = vec![
        (stats(11, 0, 27, 0, 16, 0), 839_193_158_969_837_522u64),
        (stats(69, 0, 72, 0, 3, 0), 6_027_288_986_694_609_767),
        (stats(57, 0, 60, 0, 3, 0), 17_918_729_144_915_547_967),
        (stats(80, 0, 84, 0, 4, 0), 6_683_633_333_317_397_982),
        (stats(60, 0, 64, 0, 4, 0), 14_532_863_726_976_400_459),
    ];
    let got: Vec<_> =
        CASES.iter().map(|case| run(case, |pager| pager.set_cache_frames(16))).collect();
    for (stats, _) in &got {
        assert!(stats.cache_hits > 0, "the cache must hold part of the runs: {stats:?}");
    }
    assert_eq!(got, expected);
}
