//! Public-API surface guard.
//!
//! Compile-time (and a few runtime) assertions that the documented
//! shapes of the facade hold: the builder chain reads exactly as the
//! README writes it, the outcome types cross thread boundaries, the
//! error type is a real `std::error::Error` with the documented
//! conversions, and the low-level per-backend `execute` functions
//! agree with the facade. If a refactor breaks any of these, this file
//! stops compiling — that is the point.
//!
//! (The 0.1 entry-point shims — `setm::setm::mine`,
//! `engine::mine_on_engine` + `EngineOptions`, `sql::mine_via_sql` —
//! were `#[deprecated]` for the one-release window promised in 0.2 and
//! are removed in 0.3.0.)

use setm::{
    Backend, Dataset, EngineConfig, ExecutionReport, MinSupport, Miner, MiningOutcome,
    MiningParams, SetmError,
};

fn assert_send_sync<T: Send + Sync>() {}
fn assert_clone<T: Clone>() {}
fn assert_error<T: std::error::Error>() {}

#[test]
fn outcome_and_error_types_have_the_documented_bounds() {
    // MiningOutcome crosses thread boundaries — the precondition for the
    // planned service layer fanning mining requests across workers.
    assert_send_sync::<MiningOutcome>();
    assert_send_sync::<SetmError>();
    assert_send_sync::<Miner>();
    assert_send_sync::<ExecutionReport>();
    assert_clone::<MiningOutcome>();
    assert_clone::<Miner>();
    // SetmError implements std::error::Error (so `?` and error chains
    // work in downstream binaries).
    assert_error::<SetmError>();
}

#[test]
fn error_conversions_exist_from_every_layer() {
    // The documented From impls — these lines fail to compile if the
    // conversions are dropped.
    let _: SetmError = setm::relational::Error::NoSuchFile(1).into();
    let _: SetmError = setm::sql::SqlError::Parse("x".into()).into();
    fn takes_result() -> Result<(), SetmError> {
        Err(setm::relational::Error::NotSorted)?
    }
    assert!(matches!(takes_result(), Err(SetmError::Engine(_))));
}

#[test]
fn builder_chain_compiles_in_the_documented_shape() {
    // The full chain from the README / ISSUE, in one expression.
    let dataset = Dataset::from_pairs([(1, 10), (1, 20), (2, 10), (2, 20), (3, 10)]);
    let outcome: Result<MiningOutcome, SetmError> =
        Miner::new(MiningParams::new(MinSupport::Count(2), 0.5))
            .backend(Backend::Engine(EngineConfig::default()))
            .threads(1)
            .min_confidence(0.7)
            .run(&dataset);
    let outcome = outcome.unwrap();
    assert_eq!(outcome.result.c(2).unwrap().get(&[10, 20]), Some(2));
    // The report accessors answer uniformly, `None` where not applicable.
    assert!(outcome.report.page_accesses().is_some());
    assert!(outcome.report.statements().is_none());
    assert_eq!(outcome.report.backend_name(), "engine");

    // Backend is an ordinary value: defaultable, copyable, nameable.
    let b = Backend::default();
    assert!(matches!(b, Backend::Memory));
    assert_eq!(b.name(), "memory");
}

#[test]
fn miner_is_a_value_type_for_sweeps() {
    // A single configured Miner fans out across backends by cheap clone —
    // the usage pattern of the repro binary and the equivalence tests.
    let d = setm::example::paper_example_dataset();
    let miner = Miner::new(setm::example::paper_example_params());
    let runs: Vec<MiningOutcome> =
        [Backend::Memory, Backend::Engine(EngineConfig::default()), Backend::Sql]
            .into_iter()
            .map(|b| miner.clone().backend(b).threads(1).run(&d).unwrap())
            .collect();
    assert!(runs.windows(2).all(|w| w[0].rules == w[1].rules));
}

/// The serving layer is part of the umbrella surface: `setm::serve`
/// re-exports the service types, the client speaks in the same `Miner`
/// builder, and the wire error mapping is total over `SetmError`.
#[test]
fn serve_layer_is_reachable_through_the_umbrella() {
    use setm::serve::{Registry, ServeConfig, Server};

    assert_send_sync::<setm::serve::Registry>();
    assert_send_sync::<setm::serve::Scheduler>();
    assert_clone::<setm::serve::OutcomePayload>();
    assert_error::<setm::serve::ClientError>();
    assert_error::<setm::serve::RegistryError>();
    assert_error::<setm::serve::SubmitError>();

    // Every SetmError maps to a stable wire code with an HTTP-ish status.
    let code = setm::serve::setm_error_code(&SetmError::InvalidMaxPatternLen);
    assert_eq!(code.code, "invalid_max_pattern_len");
    assert_eq!(code.status, 400);

    // One round trip through a real loopback server, driven by the same
    // builder the local API uses.
    let server = Server::bind(ServeConfig::default(), Registry::with_builtins()).unwrap();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let mut client = setm::serve::Client::connect(addr).unwrap();
    let reply = client.mine("example", Miner::new(setm::example::paper_example_params())).unwrap();
    assert_eq!(reply.outcome.rules.len(), 11);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The low-level per-backend entry points: one public `execute` each,
/// in agreement with the facade, and uniformly parameterized by one
/// `RunSpec` — the same `threads` knob on all three.
#[test]
fn low_level_entry_points_agree_with_the_facade() {
    use setm::core::setm::{engine, memory, sql, RunSpec};

    let d = setm::example::paper_example_dataset();
    let params = setm::example::paper_example_params();
    let reference = Miner::new(params).run(&d).unwrap();
    let spec = RunSpec { threads: 2, ..Default::default() };

    let mem = memory::execute(&d, &params, &spec);
    assert_eq!(mem.frequent_itemsets(), reference.result.frequent_itemsets());

    let (eng, _) = engine::execute(&d, &params, &EngineConfig::default(), &spec).unwrap();
    assert_eq!(eng.frequent_itemsets(), reference.result.frequent_itemsets());

    let (via_sql, _) = sql::execute(&d, &params, &spec).unwrap();
    assert_eq!(via_sql.frequent_itemsets(), reference.result.frequent_itemsets());
}

/// Mining constraints are first-class builder surface, and per-class
/// mining lives on the facade (`Miner::by_class` filling
/// `MiningOutcome::per_class`; the free-standing `mine_by_class` served
/// its one-release deprecation window and is gone).
#[test]
fn constraints_and_by_class_are_facade_surface() {
    use setm::{ClassedDataset, MiningConstraints};

    let d = setm::example::paper_example_dataset();
    let params = setm::example::paper_example_params();
    // The documented chain: constrain, run, read the pruning evidence.
    let outcome = Miner::new(params)
        .constraints(
            MiningConstraints::new().require([setm::example::D]).exclude([setm::example::C]),
        )
        .run(&d)
        .unwrap();
    assert!(!outcome.rules.is_empty());
    assert!(outcome.rules.iter().all(|r| r.pattern().as_slice().contains(&setm::example::D)));
    assert!(outcome.rules.iter().all(|r| !r.pattern().as_slice().contains(&setm::example::C)));
    assert!(
        outcome.result.trace.iter().map(|t| t.candidates_pruned).sum::<u64>() > 0,
        "pushdown must record its savings in the trace"
    );
    assert!(outcome.per_class.is_none(), "plain runs carry no per-class view");

    // Contradictory constraints are a typed error, not a silent empty run.
    let err = Miner::new(params)
        .constraints(
            MiningConstraints::new().require([setm::example::D]).exclude([setm::example::D]),
        )
        .run(&d);
    assert!(matches!(err, Err(SetmError::InvalidConstraints { .. })));

    // by_class fills the per-class view.
    let classed = ClassedDataset::partition_by(&d, |tid, _| u32::from(tid >= 50));
    let outcome = Miner::new(params).by_class(&classed).unwrap();
    let per_class = outcome.per_class.expect("by_class fills per_class");
    assert_eq!(per_class.by_class.len(), 2);
}

/// `Miner::threads(n)` means the same thing on every backend, as every
/// option does: the SQL execution shards its statement pipeline too.
#[test]
fn threads_knob_is_honored_on_every_backend() {
    let d = setm::example::paper_example_dataset();
    let miner = Miner::new(setm::example::paper_example_params()).threads(4);
    for backend in [Backend::Memory, Backend::Engine(EngineConfig::default()), Backend::Sql] {
        let outcome = miner.clone().backend(backend).run(&d).unwrap();
        assert_eq!(outcome.rules.len(), 11, "{}", backend.name());
    }
    // A partitioned SQL run reports its per-shard statements + merge.
    let sql = miner.backend(Backend::Sql).run(&d).unwrap();
    let statements = sql.report.statements().unwrap().join("\n");
    assert!(statements.contains("_SHARD_"), "per-shard statements recorded");
    assert!(statements.contains("SUM(p.cnt)"), "coordinator merge recorded");
}
