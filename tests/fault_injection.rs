//! Failure injection across layers: a disk fault below the SQL layer
//! surfaces as a typed error at the top, one-shot faults do not poison
//! subsequent work, and a fault inside the *partitioned* SQL execution
//! surfaces as a `SetmError::Sql` naming the shard that failed — with
//! statement-level atomicity guaranteeing no partially-populated result
//! table is observable afterwards.

use setm::core::setm::sql::mine_sharded_with_prepare;
use setm::relational::Error;
use setm::sql::{Params, SqlEngine, SqlError};
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
/// empty — never partially populated. This is the invariant the
/// partitioned plan relies on for its "no partial shard tables after a
/// failure" guarantee.
#[test]
fn failed_insert_select_leaves_no_partial_rows() {
    let mut engine = SqlEngine::new();
    let d: Dataset = example::paper_example_dataset();
    let rows = d.sales_rows();
    engine.load_table("SALES", &["trans_id", "item"], rows.iter().map(|r| r.as_slice())).unwrap();
    let p = Params::new();
    engine.execute("CREATE TABLE R2 (trans_id INT, item_1 INT, item_2 INT)", &p).unwrap();

    // Probe several fault points across the statement's lifetime (join,
    // sort, output build): every failure must leave R2 untouched.
    for fail_at in [1u64, 3, 6, 10] {
        engine.database().pager().lock().fail_after(Some(fail_at));
        let result = engine.execute(
            "INSERT INTO R2
             SELECT p.trans_id, p.item, q.item
             FROM SALES p, SALES q
             WHERE q.trans_id = p.trans_id AND q.item > p.item
             ORDER BY p.trans_id, p.item, q.item",
            &p,
        );
        assert!(result.is_err(), "fault at access {fail_at} must surface");
        let r2 = engine.query("SELECT trans_id, item_1, item_2 FROM R2", &p).unwrap();
        assert!(
            r2.rows.is_empty(),
            "fault at access {fail_at}: R2 must stay empty, found {} rows",
            r2.rows.len()
        );
    }

    // Control: with the fault cleared, the same statement fills R2.
    engine
        .execute(
            "INSERT INTO R2
             SELECT p.trans_id, p.item, q.item
             FROM SALES p, SALES q
             WHERE q.trans_id = p.trans_id AND q.item > p.item
             ORDER BY p.trans_id, p.item, q.item",
            &p,
        )
        .unwrap();
    let r2 = engine.query("SELECT trans_id, item_1, item_2 FROM R2", &p).unwrap();
    assert_eq!(r2.rows.len(), 30, "C(3,2) pairs per 3-item transaction");
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

#[test]
fn healthy_engine_control_run() {
    use setm::{Backend, EngineConfig, Miner};
    let d = example::paper_example_dataset();
    let params = MiningParams::new(MinSupport::Fraction(0.3), 0.7);
    let run = Miner::new(params).backend(Backend::Engine(EngineConfig::default())).run(&d).unwrap();
    assert_eq!(run.result.max_pattern_len(), 3);
}
