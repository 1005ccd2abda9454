//! Failure injection across layers: a disk fault below the SQL layer
//! surfaces as a typed error at the top, one-shot faults do not poison
//! subsequent work, and a fault inside the *partitioned* SQL execution
//! surfaces as a `SetmError::Sql` naming the shard that failed — with
//! statement-level atomicity guaranteeing no partially-populated result
//! table is observable afterwards.

use setm::core::setm::sql::mine_sharded_with_prepare;
use setm::relational::Error;
use setm::sql::{ExecOptions, JoinPreference, Params, SqlEngine, SqlError};
use setm::{example, Dataset, MinSupport, MiningParams, SetmError};

#[test]
fn fault_reaches_the_sql_layer() {
    let mut engine = SqlEngine::new();
    let d: Dataset = example::paper_example_dataset();
    let rows = d.sales_rows();
    engine.load_table("SALES", &["trans_id", "item"], rows.iter().map(|r| r.as_slice())).unwrap();
    engine.database().pager().lock().fail_after(Some(3));
    let result = engine.query(
        "SELECT item, COUNT(*) FROM SALES GROUP BY item HAVING COUNT(*) >= 3",
        &Params::new(),
    );
    assert!(matches!(result, Err(SqlError::Engine(Error::Corrupt(_)))), "got {result:?}");

    // One-shot: the session recovers after the fault clears.
    let ok = engine
        .query(
            "SELECT item, COUNT(*) FROM SALES GROUP BY item HAVING COUNT(*) >= 3",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(ok.rows.len(), 6, "the worked example's C1");
}

/// A failing shard statement in the partitioned SQL execution surfaces
/// as a typed `SetmError::Sql` that names the shard — shard attribution
/// survives the conversion to the facade error even when the root cause
/// is an engine-level media fault.
#[test]
fn partitioned_sql_fault_names_the_failing_shard() {
    let d = example::paper_example_dataset();
    let params = example::paper_example_params();
    // Inject a one-shot media fault into shard 1's pager only; shard 0
    // stays healthy.
    let err = mine_sharded_with_prepare(&d, &params, 2, &|shard, engine| {
        if shard == 1 {
            engine.database().pager().lock().fail_after(Some(4));
        }
    })
    .unwrap_err();
    let SqlError::Shard { shard, .. } = &err else {
        panic!("expected a Shard error, got {err:?}");
    };
    assert_eq!(*shard, 1);

    // Through the facade conversion the shard attribution is kept: it
    // stays a SQL error (not unwrapped to Engine) and names the shard.
    let facade: SetmError = err.into();
    assert!(matches!(facade, SetmError::Sql(SqlError::Shard { shard: 1, .. })), "{facade:?}");
    assert!(facade.to_string().contains("shard 1"), "{facade}");
}

/// Whichever shard fails, the error names it (and a healthy run of the
/// same shape still succeeds afterwards — fault hooks do not leak).
#[test]
fn every_shard_position_is_attributable() {
    let d = example::paper_example_dataset();
    let params = example::paper_example_params();
    for failing in 0..3usize {
        let err = mine_sharded_with_prepare(&d, &params, 3, &|shard, engine| {
            if shard == failing {
                engine.database().pager().lock().fail_after(Some(2));
            }
        })
        .unwrap_err();
        let SqlError::Shard { shard, .. } = err else { panic!("expected Shard") };
        assert_eq!(shard, failing);
    }
    // Control: no hook, the partitioned run succeeds.
    let (ok, _) = mine_sharded_with_prepare(&d, &params, 3, &|_, _| {}).unwrap();
    assert_eq!(ok.max_pattern_len(), 3);
}

/// Shard attribution holds at *every* point of the pipeline where the
/// shard's storage is touched — per-shard statements, and also the
/// coordinator's read of the shard's count partials. Sweeping the fault
/// trigger across the whole run: whenever the run fails, the error must
/// be `Shard { shard: 1 }` (only shard 1's pager can fault), never a
/// bare engine error that anonymizes the shard.
#[test]
fn shard_attribution_survives_every_fault_point() {
    let d = example::paper_example_dataset();
    let params = example::paper_example_params();
    let mut failures = 0usize;
    for fail_at in 1..60u64 {
        let result = mine_sharded_with_prepare(&d, &params, 2, &|shard, engine| {
            if shard == 1 {
                engine.database().pager().lock().fail_after(Some(fail_at));
            }
        });
        if let Err(err) = result {
            failures += 1;
            assert!(
                matches!(err, SqlError::Shard { shard: 1, .. }),
                "fault at access {fail_at} lost shard attribution: {err:?}"
            );
        }
    }
    assert!(failures > 0, "the sweep must hit at least one fault point");
}

/// Statement-level atomicity, observed directly: an `INSERT … SELECT`
/// that dies mid-execution leaves its target table exactly as it was —
/// empty — never partially populated, and frees every page it wrote.
/// This is the invariant the partitioned plan relies on for its "no
/// partial shard tables after a failure" guarantee. The session has no
/// cache, so every page access of the statement reaches the disk: a
/// healthy run counts them, and a fault at each one must fail the
/// statement and leave the session able to run it.
#[test]
fn failed_insert_select_leaves_no_partial_rows() {
    let p = Params::new();
    let insert = "INSERT INTO R2
                  SELECT p.trans_id, p.item, q.item
                  FROM SALES p, SALES q
                  WHERE q.trans_id = p.trans_id AND q.item > p.item
                  ORDER BY p.trans_id, p.item, q.item";
    let setup = || {
        let mut engine = SqlEngine::new();
        let d: Dataset = example::paper_example_dataset();
        let rows = d.sales_rows();
        let columns = ["trans_id", "item"];
        engine.load_table("SALES", &columns, rows.iter().map(|r| r.as_slice())).unwrap();
        engine.execute("CREATE TABLE R2 (trans_id INT, item_1 INT, item_2 INT)", &p).unwrap();
        engine.database().reset_io_stats();
        engine
    };
    let r2_rows = |engine: &mut SqlEngine| {
        engine.query("SELECT trans_id, item_1, item_2 FROM R2", &p).unwrap().rows.len()
    };

    // A healthy run counts the statement's disk accesses: the fault
    // points to sweep.
    let mut engine = setup();
    engine.execute(insert, &p).unwrap();
    let accesses = engine.database().io_stats().accesses();
    assert_eq!(r2_rows(&mut engine), 30, "C(3,2) pairs per 3-item transaction");

    for fail_at in 1..=accesses {
        let mut engine = setup();
        let pages_before = engine.database().pager().lock().total_pages();
        engine.database().pager().lock().fail_after(Some(fail_at));
        match engine.execute(insert, &p) {
            Err(SqlError::Engine(Error::Corrupt(_))) => {}
            Ok(_) => panic!("fault at access {fail_at} of {accesses} was swallowed"),
            Err(e) => panic!("fault at access {fail_at}: unexpected error {e:?}"),
        }
        let pages = engine.database().pager().lock().total_pages();
        assert_eq!(pages, pages_before, "fault at access {fail_at} leaked pages");
        assert_eq!(r2_rows(&mut engine), 0, "fault at access {fail_at}: R2 must stay empty");
        // The fault was one-shot: the same statement now fills R2.
        engine.execute(insert, &p).unwrap();
        assert_eq!(r2_rows(&mut engine), 30, "fault at access {fail_at}: the retry");
    }
}

/// An `INSERT … SELECT` into a non-empty table rewrites it: the old rows
/// are copied into a new file ahead of the selected ones. The pager has
/// no cache, so every page access of the statement reaches the disk, and
/// a fault at any of them must fail the statement and leave the table as
/// it was — never a success that lost a page of the old rows — and free
/// every page the statement wrote: the SELECT's result, the partial copy.
#[test]
fn insert_select_into_a_non_empty_table_is_all_or_nothing() {
    let p = Params::new();
    let old: Vec<[u32; 1]> = (0..3_000u32).map(|i| [i * 7 % 3_001]).collect();
    let new: Vec<[u32; 1]> = (0..100u32).map(|i| [1_000_000 + i]).collect();
    let setup = || {
        let mut engine = SqlEngine::new();
        engine.load_table("t", &["a"], old.iter().map(|r| r.as_slice())).unwrap();
        engine.load_table("src", &["a"], new.iter().map(|r| r.as_slice())).unwrap();
        engine.database().reset_io_stats();
        engine
    };
    let insert = "INSERT INTO t SELECT a FROM src";
    let contents = |engine: &mut SqlEngine| engine.query("SELECT a FROM t", &p).unwrap().rows;
    let expect_old: Vec<Vec<u32>> = old.iter().map(|r| r.to_vec()).collect();
    let expect_all: Vec<Vec<u32>> = old.iter().chain(&new).map(|r| r.to_vec()).collect();

    // A healthy run counts the statement's disk accesses: the fault
    // points to sweep.
    let mut engine = setup();
    engine.execute(insert, &p).unwrap();
    let accesses = engine.database().io_stats().accesses();
    assert_eq!(contents(&mut engine), expect_all);
    assert!(accesses > 6, "the statement reads and rewrites several pages: {accesses}");

    for fail_at in 1..=accesses {
        let mut engine = setup();
        let pages_before = engine.database().pager().lock().total_pages();
        engine.database().pager().lock().fail_after(Some(fail_at));
        let result = engine.execute(insert, &p);
        match result {
            Err(SqlError::Engine(Error::Corrupt(_))) => {
                let pages = engine.database().pager().lock().total_pages();
                assert_eq!(pages, pages_before, "fault at access {fail_at} leaked pages");
                assert_eq!(contents(&mut engine), expect_old, "fault at access {fail_at}");
            }
            Ok(_) => panic!("fault at access {fail_at} of {accesses} was swallowed"),
            Err(e) => panic!("fault at access {fail_at}: unexpected error {e:?}"),
        }
    }
}

/// A statement that fails part-way frees every intermediate it had
/// finished, not only the file it was writing: the sorted join inputs,
/// the join output, the grouped and projected relations, and the sort
/// runs. Each statement runs on an uncached pager with a 3-page sort
/// workspace, so every sort takes several merge passes, and a fault at
/// any of its page accesses must fail it, leave the disk at the pages it
/// held before, and leave the target table as it was. The k = 2
/// extension join sorts `SALES` (left in item order by the `C_1`
/// statement) once for both of its sides, so its sorted copy must be
/// freed exactly once.
#[test]
fn failed_statements_free_every_intermediate() {
    let p = Params::new().with("minsupport", 50);
    // R'_2 in trans_id order: 6 pairs from each of 800 transactions, so
    // the item sort has to move nearly every row.
    let r2_prime: Vec<[u32; 3]> = (0..800u32)
        .flat_map(|t| {
            let items = [t % 7, 7 + t % 5, 12 + t % 3, 15];
            (0..4).flat_map(move |a| (a + 1..4).map(move |b| [t, items[a], items[b]]))
        })
        .collect();
    // Every pair of an item below 7 with 15 or with 12..=14: two of each
    // transaction's pairs survive the filter.
    let c2: Vec<[u32; 3]> =
        (0..7u32).flat_map(|i| [[i, 12, 1], [i, 13, 1], [i, 14, 1], [i, 15, 1]]).collect();
    // SALES of 800 transactions of six items, in (trans_id, item) order.
    let sales: Vec<[u32; 2]> =
        (0..800u32).flat_map(|t| (0..6).map(move |j| [t, j * 3 + t % 3])).collect();
    let statements = [
        (
            "R2_JOIN",
            "CREATE TABLE R2_JOIN (trans_id INT, item_1 INT, item_2 INT)",
            "INSERT INTO R2_JOIN
             SELECT p.trans_id, p.item, q.item
             FROM SALES p, SALES q
             WHERE q.trans_id = p.trans_id AND q.item > p.item",
        ),
        (
            "R2",
            "CREATE TABLE R2 (trans_id INT, item_1 INT, item_2 INT)",
            "INSERT INTO R2
             SELECT p.trans_id, p.item_1, p.item_2
             FROM R2_PRIME p, C2 q
             WHERE p.item_1 = q.item_1 AND p.item_2 = q.item_2
             ORDER BY p.trans_id, p.item_1, p.item_2",
        ),
        (
            "C2_NEW",
            "CREATE TABLE C2_NEW (item_1 INT, item_2 INT, cnt INT)",
            "INSERT INTO C2_NEW
             SELECT p.item_1, p.item_2, COUNT(*)
             FROM R2_PRIME p
             GROUP BY p.item_1, p.item_2
             HAVING COUNT(*) >= :minsupport",
        ),
        (
            "C2_RARE",
            "CREATE TABLE C2_RARE (item_1 INT, item_2 INT, cnt INT)",
            "INSERT INTO C2_RARE
             SELECT p.item_1, p.item_2, COUNT(*)
             FROM R2_PRIME p
             GROUP BY p.item_1, p.item_2
             HAVING COUNT(*) < :minsupport",
        ),
    ];
    for (target, create, insert) in statements {
        let setup = || {
            let mut engine = SqlEngine::new();
            engine
                .set_options(ExecOptions { join: JoinPreference::SortMerge, sort_buffer_pages: 3 });
            let cols = ["trans_id", "item_1", "item_2"];
            engine.load_table("R2_PRIME", &cols, r2_prime.iter().map(|r| r.as_slice())).unwrap();
            let cols = ["item_1", "item_2", "cnt"];
            engine.load_table("C2", &cols, c2.iter().map(|r| r.as_slice())).unwrap();
            if insert.contains("SALES") {
                // As the C_1 statement leaves it: in item order.
                let cols = ["trans_id", "item"];
                engine.load_table("SALES", &cols, sales.iter().map(|r| r.as_slice())).unwrap();
                let c1 = "SELECT r1.item, COUNT(*) FROM SALES r1 GROUP BY r1.item";
                engine.query(c1, &p).unwrap();
            }
            engine.execute(create, &p).unwrap();
            engine.database().reset_io_stats();
            engine
        };
        let select = format!("SELECT * FROM {target}");
        let contents = |engine: &mut SqlEngine| engine.query(&select, &p).unwrap().rows;

        // A healthy run counts the statement's disk accesses: the fault
        // points to sweep.
        let mut engine = setup();
        engine.execute(insert, &p).unwrap();
        let accesses = engine.database().io_stats().accesses();
        assert!(!contents(&mut engine).is_empty(), "{target}: the statement inserts rows");
        assert!(accesses > 100, "{target}: multi-pass sorts make many accesses: {accesses}");

        for fail_at in 1..=accesses {
            let mut engine = setup();
            let pages_before = engine.database().pager().lock().total_pages();
            engine.database().pager().lock().fail_after(Some(fail_at));
            match engine.execute(insert, &p) {
                Err(SqlError::Engine(Error::Corrupt(_))) => {
                    let pages = engine.database().pager().lock().total_pages();
                    assert_eq!(pages, pages_before, "{target}: fault at access {fail_at} leaked");
                    assert!(contents(&mut engine).is_empty(), "{target}: fault at {fail_at}");
                }
                Ok(_) => panic!("{target}: fault at access {fail_at} of {accesses} was swallowed"),
                Err(e) => panic!("{target}: fault at access {fail_at}: unexpected error {e:?}"),
            }
        }
    }
}

#[test]
fn healthy_engine_control_run() {
    use setm::{Backend, EngineConfig, Miner};
    let d = example::paper_example_dataset();
    let params = MiningParams::new(MinSupport::Fraction(0.3), 0.7);
    let run = Miner::new(params).backend(Backend::Engine(EngineConfig::default())).run(&d).unwrap();
    assert_eq!(run.result.max_pattern_len(), 3);
}
