//! Failure-injection tests: a simulated media error at an arbitrary
//! point in a pipeline must surface as an `Err`, never a panic, a hang,
//! or silently wrong output.

use setm_relational::agg::grouped_count;
use setm_relational::join::merge_scan_join;
use setm_relational::sort::{external_sort, SortOptions};
use setm_relational::{Error, HeapFile, Pager};

fn sample_rows(n: u32) -> Vec<Vec<u32>> {
    (0..n).map(|i| vec![i % 97, i]).collect()
}

#[test]
fn fault_in_scan_propagates() {
    let pager = Pager::shared();
    let rows = sample_rows(2000);
    let f = HeapFile::from_rows(pager.clone(), 2, rows.iter().map(|r| r.as_slice())).unwrap();
    pager.lock().fail_after(Some(2));
    let err = f.rows().unwrap_err();
    assert!(matches!(err, Error::Corrupt(_)), "got {err:?}");
    // The fault is one-shot: the next scan succeeds.
    assert_eq!(f.rows().unwrap().len(), 2000);
}

#[test]
fn fault_during_sort_propagates_at_every_phase() {
    let rows = sample_rows(4000); // multiple runs with a tiny buffer

    // Probe fault points across the whole sort (run generation, merging,
    // final writes): every one must yield an error, none may panic.
    for fail_at in [1u64, 5, 10, 20, 30] {
        let pager = Pager::shared();
        let f = HeapFile::from_rows(pager.clone(), 2, rows.iter().map(|r| r.as_slice())).unwrap();
        pager.lock().fail_after(Some(fail_at));
        let result = external_sort(&f, &[0], SortOptions { buffer_pages: 3 });
        assert!(result.is_err(), "fault at access {fail_at} must surface");
    }
    // Control: without a fault the same sort succeeds.
    let pager = Pager::shared();
    let f = HeapFile::from_rows(pager.clone(), 2, rows.iter().map(|r| r.as_slice())).unwrap();
    let sorted = external_sort(&f, &[0], SortOptions { buffer_pages: 3 }).unwrap();
    assert_eq!(sorted.n_records(), 4000);
}

/// A sort that fails frees what it wrote. A 3-page sort of 20,000
/// one-column rows (a 20-page input) forms seven runs and merges them in
/// three passes; a fault at any of its page accesses must leave the pager
/// holding exactly the pages it held before the call — no orphaned run,
/// no partial merge output.
#[test]
fn a_failed_sort_frees_every_page_it_wrote() {
    let rows: Vec<[u32; 1]> = (0..20_000u32).map(|i| [i.wrapping_mul(2_654_435_761)]).collect();
    let load = || {
        let pager = Pager::shared();
        let f = HeapFile::from_rows(pager.clone(), 1, rows.iter().map(|r| r.as_slice())).unwrap();
        assert_eq!(f.n_pages(), 20);
        pager.lock().reset_stats();
        (pager, f)
    };
    let opts = SortOptions { buffer_pages: 3 };
    let (pager, f) = load();
    let sorted = external_sort(&f, &[0], opts).unwrap();
    let accesses = pager.lock().stats().accesses();
    assert_eq!(sorted.n_records(), 20_000);
    assert!(accesses > 100, "a multi-pass sort: {accesses} accesses");

    for fail_at in 1..=accesses {
        let (pager, f) = load();
        let before = pager.lock().total_pages();
        pager.lock().fail_after(Some(fail_at));
        let result = external_sort(&f, &[0], opts);
        assert!(
            matches!(result, Err(Error::Corrupt(_))),
            "fault at access {fail_at} of {accesses} must surface"
        );
        assert_eq!(pager.lock().total_pages(), before, "fault at access {fail_at} leaked pages");
    }
}

#[test]
fn fault_during_join_propagates() {
    let pager = Pager::shared();
    let rows = sample_rows(3000);
    let mut sorted = rows.clone();
    sorted.sort();
    let l = HeapFile::from_rows(pager.clone(), 2, sorted.iter().map(|r| r.as_slice())).unwrap();
    let r = HeapFile::from_rows(pager.clone(), 2, sorted.iter().map(|r| r.as_slice())).unwrap();
    pager.lock().fail_after(Some(4));
    let result = merge_scan_join(
        &l,
        &r,
        &[0],
        &[0],
        3,
        |_, _| true,
        |a, b, out| {
            out.extend_from_slice(&[a[0], a[1], b[1]]);
        },
    );
    assert!(result.is_err());
}

#[test]
fn fault_during_aggregation_propagates() {
    let pager = Pager::shared();
    let mut rows = sample_rows(3000);
    rows.sort();
    let f = HeapFile::from_rows(pager.clone(), 2, rows.iter().map(|r| r.as_slice())).unwrap();
    pager.lock().fail_after(Some(3));
    assert!(grouped_count(&f, &[0], 1).is_err());
}
