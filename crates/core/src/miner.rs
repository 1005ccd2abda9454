//! The unified mining facade: one builder, three interchangeable
//! executions.
//!
//! The paper's central claim is that Algorithm SETM (Figure 4) runs
//! unchanged over different physical executions — in-memory set
//! operators, a paged storage engine, or the literal Section 4.1 SQL.
//! [`Miner`] makes that claim the shape of the public API: every backend
//! is reached through the same builder chain, returns the same
//! [`MiningOutcome`], and fails with the same typed
//! [`SetmError`]. Every option means the same thing on every backend;
//! the backends differ only in their physical operators.
//!
//! ```
//! use setm_core::{example, Backend, Miner};
//!
//! let dataset = example::paper_example_dataset();
//! let params = example::paper_example_params();
//! for backend in [Backend::Memory, Backend::Engine(Default::default()), Backend::Sql] {
//!     let outcome = Miner::new(params).backend(backend).run(&dataset).unwrap();
//!     assert_eq!(outcome.rules.len(), 11); // the Section 5 listing, every time
//! }
//! ```

use crate::classes::{ClassedDataset, ClassedMiningResult};
use crate::constraints::{CompiledConstraints, ItemRemap, MiningConstraints};
use crate::data::{Dataset, Item, MinSupport, MiningParams};
use crate::error::SetmError;
use crate::itemvec::ItemVec;
use crate::pattern::CountRelation;
use crate::rules::{generate_constrained_rules, generate_rules, Rule};
use crate::setm::engine::{self, EngineConfig};
use crate::setm::plan::PlanMode;
use crate::setm::{memory, sql, RunSpec, SetmResult};
use setm_obs::{NullSink, ObsSink};
use setm_relational::pager::IoStats;
use std::sync::Arc;

/// Which physical execution a [`Miner`] drives. All three produce
/// identical count relations, rules, and trace series (cross-checked by
/// `tests/facade_equivalence.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Pure in-memory set operators — the fast path.
    #[default]
    Memory,
    /// The paged storage engine of `setm-relational`, with every page
    /// access measured (reported in [`ExecutionReport::Engine`]).
    Engine(EngineConfig),
    /// The literal Section 4.1 SQL, executed by `setm-sql`; the emitted
    /// statements are reported in [`ExecutionReport::Sql`].
    Sql,
}

impl Backend {
    /// The backend's stable name — also accepted by the `repro` binary's
    /// `SETM_BACKEND` knob.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Memory => "memory",
            Backend::Engine(_) => "engine",
            Backend::Sql => "sql",
        }
    }
}

/// The inverse of [`Backend::name`]: parse `"memory"` / `"engine"` /
/// `"sql"` (engine gets [`EngineConfig::default`]). This is the one
/// name↔backend mapping shared by the `repro` binary's `SETM_BACKEND`
/// knob and the `setm-serve` wire protocol.
impl std::str::FromStr for Backend {
    type Err = UnknownBackend;

    fn from_str(s: &str) -> Result<Self, UnknownBackend> {
        match s {
            "memory" => Ok(Backend::Memory),
            "engine" => Ok(Backend::Engine(EngineConfig::default())),
            "sql" => Ok(Backend::Sql),
            other => Err(UnknownBackend { name: other.to_string() }),
        }
    }
}

/// A backend name that is not `memory`, `engine`, or `sql`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBackend {
    /// The name that failed to parse.
    pub name: String,
}

impl std::fmt::Display for UnknownBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown backend {:?}; expected memory, engine, or sql", self.name)
    }
}

impl std::error::Error for UnknownBackend {}

/// What the paged-engine backend measured while mining.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineReport {
    /// Total page accesses (loading `SALES` excluded); summed over all
    /// shard pagers in a parallel run.
    pub page_accesses: u64,
    /// Estimated milliseconds under the pager's cost model.
    pub estimated_io_ms: f64,
    /// The full I/O breakdown (sequential vs random reads/writes, cache
    /// hits).
    pub io: IoStats,
    /// Effective buffer frames the run ended with, summed over shard
    /// pagers — equals the configured `cache_frames` (no frame is
    /// silently dropped by the per-shard split).
    pub cache_frames: usize,
}

/// What the SQL backend executed while mining.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlReport {
    /// Every SQL statement executed, in order — the Section 4.1 text.
    /// A partitioned run (`threads > 1`) records each round's per-shard
    /// statements (tables named `…_SHARD_<i>` / `…_PART_<i>`, in shard
    /// order) followed by the coordinator's `SUM`-merge statements.
    pub statements: Vec<String>,
}

/// Per-backend execution evidence carried by every [`MiningOutcome`].
/// Accessors return `None` where a measurement does not apply to the
/// backend that ran.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecutionReport {
    /// The in-memory execution measures nothing beyond the trace.
    Memory,
    /// Page-access accounting from the paged engine.
    Engine(EngineReport),
    /// The emitted SQL statements.
    Sql(SqlReport),
}

impl ExecutionReport {
    /// Name of the backend that produced this report.
    pub fn backend_name(&self) -> &'static str {
        match self {
            ExecutionReport::Memory => "memory",
            ExecutionReport::Engine(_) => "engine",
            ExecutionReport::Sql(_) => "sql",
        }
    }

    /// Total page accesses (engine backend only).
    pub fn page_accesses(&self) -> Option<u64> {
        match self {
            ExecutionReport::Engine(e) => Some(e.page_accesses),
            _ => None,
        }
    }

    /// Estimated I/O milliseconds (engine backend only).
    pub fn estimated_io_ms(&self) -> Option<f64> {
        match self {
            ExecutionReport::Engine(e) => Some(e.estimated_io_ms),
            _ => None,
        }
    }

    /// The full I/O breakdown (engine backend only).
    pub fn io_stats(&self) -> Option<&IoStats> {
        match self {
            ExecutionReport::Engine(e) => Some(&e.io),
            _ => None,
        }
    }

    /// The executed SQL statements (SQL backend only).
    pub fn statements(&self) -> Option<&[String]> {
        match self {
            ExecutionReport::Sql(s) => Some(&s.statements),
            _ => None,
        }
    }
}

/// What a [`Miner`] run produces, uniformly across backends: the SETM
/// result (count relations and iteration trace), the generated rules,
/// and the per-backend [`ExecutionReport`].
#[derive(Debug, Clone)]
pub struct MiningOutcome {
    /// Count relations `C_1..C_n` plus the per-iteration trace.
    pub result: SetmResult,
    /// Rules meeting the configured minimum confidence (Section 5).
    pub rules: Vec<Rule>,
    /// What the backend measured or emitted while mining.
    pub report: ExecutionReport,
    /// Per-class rule lists and the cross-class merge — filled only by
    /// [`Miner::by_class`] (the Section 7 customer-class extension);
    /// `None` from a plain [`Miner::run`]. Boxed so the common
    /// class-less outcome stays pointer-sized here. Not part of the
    /// serve wire format.
    pub per_class: Option<Box<ClassedMiningResult>>,
}

impl MiningOutcome {
    /// All frequent itemsets with their support counts, shortest first.
    pub fn frequent_itemsets(&self) -> Vec<(crate::itemvec::ItemVec, u64)> {
        self.result.frequent_itemsets()
    }
}

/// High-level facade: mine frequent patterns with Algorithm SETM on any
/// backend and generate the qualifying rules.
///
/// Built with a fluent chain; [`Miner::run`] validates every input and
/// returns typed errors instead of panicking:
///
/// ```
/// use setm_core::{Backend, Dataset, MinSupport, Miner, MiningParams};
///
/// let dataset = Dataset::from_pairs([(1, 10), (1, 20), (2, 10), (2, 20), (3, 10)]);
/// let outcome = Miner::new(MiningParams::new(MinSupport::Count(2), 0.7))
///     .backend(Backend::Memory)
///     .threads(1)
///     .run(&dataset)
///     .unwrap();
/// assert_eq!(outcome.result.c(2).unwrap().get(&[10, 20]), Some(2));
/// ```
#[derive(Clone)]
pub struct Miner {
    params: MiningParams,
    backend: Backend,
    threads: usize,
    plan_mode: PlanMode,
    constraints: MiningConstraints,
    observer: Option<Arc<dyn ObsSink>>,
}

// Manual impls because `Arc<dyn ObsSink>` carries no `Debug`/`PartialEq`
// of its own; the observer is a side channel, so equality ignores it —
// two miners that would compute the same thing compare equal.
impl std::fmt::Debug for Miner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Miner")
            .field("params", &self.params)
            .field("backend", &self.backend)
            .field("threads", &self.threads)
            .field("plan_mode", &self.plan_mode)
            .field("constraints", &self.constraints)
            .field("observer", &self.observer.as_ref().map(|_| "Some(..)"))
            .finish()
    }
}

impl PartialEq for Miner {
    fn eq(&self, other: &Self) -> bool {
        self.params == other.params
            && self.backend == other.backend
            && self.threads == other.threads
            && self.plan_mode == other.plan_mode
            && self.constraints == other.constraints
    }
}

impl Miner {
    /// A miner with the given parameters, on the default in-memory
    /// backend.
    pub fn new(params: MiningParams) -> Self {
        Miner {
            params,
            backend: Backend::Memory,
            threads: 0,
            plan_mode: PlanMode::Auto,
            constraints: MiningConstraints::new(),
            observer: None,
        }
    }

    /// Select the physical execution (default: [`Backend::Memory`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Worker threads for the sharded parallel executions: `0` (the
    /// default) resolves to the machine's available parallelism, `1`
    /// forces the paper's sequential plan. Results are identical for
    /// every value on every backend — the SQL execution shards its
    /// statement pipeline over `trans_id` partitions (per-shard
    /// `INSERT INTO R_k_SHARD_<i> SELECT …` run concurrently, merged by
    /// a global `HAVING SUM(cnt) >= :minsupport`), so `threads(n)` means
    /// the same thing everywhere.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Constrain what gets mined (default: no constraints). Required and
    /// excluded items and the maximum/minimum pattern lengths are pushed
    /// *into* the Figure-4 candidate loop on every backend — an excluded
    /// item never enters `R'_k`, and required items anchor the counting
    /// so `C_k` only ever holds patterns that can still qualify (the SQL
    /// backend compiles the same pruning into `WHERE … IN / NOT IN`
    /// clauses on the Section 4.1 statements). Rule-consequent `targets`
    /// are applied at rule generation. The mined rules are exactly
    /// `unconstrained rules ∩ constraints` — pinned by
    /// `tests/constrained_equivalence.rs` — while counting strictly fewer
    /// candidates (each iteration's savings land in the trace's
    /// `candidates_pruned`).
    pub fn constraints(mut self, constraints: MiningConstraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Select how each iteration's physical plan is chosen (default:
    /// [`PlanMode::Auto`], the cost-based planner). A
    /// [`PlanMode::Forced`] plan is executed verbatim on every iteration
    /// — the same itemsets, rules, and trace cardinalities come out
    /// regardless (cross-checked by `tests/plan_equivalence.rs`); only
    /// the access pattern changes.
    ///
    /// The `SETM_FORCE_PLAN` environment variable forces a plan for runs
    /// that left this knob at `Auto`; an explicit `Forced` set here wins
    /// over the environment.
    pub fn plan_mode(mut self, plan_mode: PlanMode) -> Self {
        self.plan_mode = plan_mode;
        self
    }

    /// Attach a telemetry sink. The executions call it at iteration
    /// boundaries (with the just-computed trace row) and around
    /// noteworthy phases — sorts, shard repartitions.
    /// Strictly a side channel: events are copies of already-computed
    /// numbers, so the outcome is byte-identical with or without an
    /// observer (pinned by `tests/facade_equivalence.rs` and the serve
    /// e2e suite).
    pub fn observer(mut self, sink: Arc<dyn ObsSink>) -> Self {
        self.observer = Some(sink);
        self
    }

    /// Override the minimum support threshold.
    pub fn min_support(mut self, min_support: MinSupport) -> Self {
        self.params.min_support = min_support;
        self
    }

    /// Override the minimum confidence factor for rule generation.
    pub fn min_confidence(mut self, min_confidence: f64) -> Self {
        self.params.min_confidence = min_confidence;
        self
    }

    /// Cap the maximum pattern length (`0` is rejected at `run` time).
    pub fn max_pattern_len(mut self, k: usize) -> Self {
        self.params.max_pattern_len = Some(k);
        self
    }

    /// The configured parameters.
    pub fn params(&self) -> &MiningParams {
        &self.params
    }

    /// The configured backend (what [`Miner::backend`] set, or the
    /// default [`Backend::Memory`]). Together with the other getters this
    /// lets a job be logged or echoed back to a client — e.g. by the
    /// `setm-serve` protocol — without re-parsing anything.
    pub fn configured_backend(&self) -> Backend {
        self.backend
    }

    /// The configured worker-thread knob (`0` = available parallelism).
    pub fn configured_threads(&self) -> usize {
        self.threads
    }

    /// The configured mining constraints (empty by default).
    pub fn configured_constraints(&self) -> &MiningConstraints {
        &self.constraints
    }

    /// The configured plan-selection mode (what [`Miner::plan_mode`]
    /// set; the `SETM_FORCE_PLAN` environment override is resolved at
    /// `run` time, not here).
    pub fn configured_plan_mode(&self) -> PlanMode {
        self.plan_mode
    }

    /// Validate the configuration without running anything: the
    /// parameters, the constraints, a forced plan and the engine's sort
    /// workspace.
    pub fn validate(&self) -> Result<(), SetmError> {
        self.params.validate()?;
        self.constraints.validate(&self.params)?;
        if let PlanMode::Forced(plan) = self.plan_mode {
            plan.validate()?;
        }
        if let Backend::Engine(cfg) = &self.backend {
            if cfg.sort_buffer_pages < 3 {
                return Err(SetmError::InvalidEngineConfig {
                    reason: format!(
                        "sort_buffer_pages = {} but a two-phase external sort needs at least 3",
                        cfg.sort_buffer_pages
                    ),
                });
            }
        }
        Ok(())
    }

    /// Mine `dataset` on the configured backend and generate rules at
    /// the configured confidence.
    ///
    /// An empty dataset is not an error: it yields a clean empty outcome
    /// (no itemsets, no rules, `support_fraction` of 0 — never NaN).
    pub fn run(&self, dataset: &Dataset) -> Result<MiningOutcome, SetmError> {
        self.validate()?;
        let plan_mode = self.plan_mode.resolve()?;
        // Compile the constraints against this dataset. With required
        // items the mining runs in *remapped item space* (required items
        // become `0..m-1`, so containment is a prefix check — see
        // `crate::constraints`); counts and rules are mapped back below.
        let plan = (!self.constraints.is_empty()).then(|| self.constraints.compile(dataset));
        let remapped;
        let data: &Dataset = match plan.as_ref().and_then(|p| p.remap()) {
            Some(remap) => {
                remapped = remap.remap_dataset(dataset);
                &remapped
            }
            None => dataset,
        };
        let unconstrained = CompiledConstraints::none();
        let spec = RunSpec {
            threads: self.threads,
            plan_mode,
            sink: self.observer.as_deref().unwrap_or(&NullSink),
            constraints: plan.as_ref().map_or(&unconstrained, |p| p.compiled()),
        };
        let (mut result, report) = match &self.backend {
            Backend::Memory => {
                (memory::execute(data, &self.params, &spec), ExecutionReport::Memory)
            }
            Backend::Engine(cfg) => {
                let (result, report) = engine::execute(data, &self.params, cfg, &spec)?;
                (result, ExecutionReport::Engine(report))
            }
            Backend::Sql => {
                let (result, report) = sql::execute(data, &self.params, &spec)?;
                (result, ExecutionReport::Sql(report))
            }
        };
        let mut rules = match plan.as_ref() {
            None => generate_rules(&result, self.params.min_confidence),
            Some(plan) => generate_constrained_rules(&result, self.params.min_confidence, plan),
        };
        if let Some(remap) = plan.as_ref().and_then(|p| p.remap()) {
            unmap_result(&mut result, remap);
            unmap_rules(&mut rules, remap);
        }
        Ok(MiningOutcome { result, rules, report, per_class: None })
    }

    /// Mine per customer class (the paper's Section 7 extension) through
    /// the same facade: the headline outcome mines the class-blind union
    /// of all partitions with this miner's full configuration — backend,
    /// threads, plan mode, constraints — and `per_class` carries each
    /// class's rules plus the cross-class merge, each partition mined
    /// with that same configuration.
    pub fn by_class(&self, data: &ClassedDataset) -> Result<MiningOutcome, SetmError> {
        let mut outcome = self.run(&data.union_all())?;
        let mut by_class = Vec::with_capacity(data.classes().len());
        for class in data.classes() {
            let partition = data.partition(class).expect("listed class has a partition");
            by_class.push((class, self.run(partition)?.rules));
        }
        let merged = crate::classes::merge_class_rules(&by_class);
        outcome.per_class = Some(Box::new(ClassedMiningResult { by_class, merged }));
        Ok(outcome)
    }
}

/// Map an anchored mining-space result back to original item ids: each
/// pattern's items are un-mapped and re-sorted, then each count relation
/// is rebuilt in lexicographic order. Cardinalities (and therefore the
/// trace) are untouched — the remap is a bijection.
fn unmap_result(result: &mut SetmResult, remap: &ItemRemap) {
    for c in &mut result.counts {
        let mut rows: Vec<(Vec<Item>, u64)> = c
            .iter()
            .map(|(pattern, count)| {
                let mut pattern: Vec<Item> =
                    pattern.iter().map(|&i| remap.to_original(i)).collect();
                pattern.sort_unstable();
                (pattern, count)
            })
            .collect();
        rows.sort_unstable();
        let mut rebuilt = CountRelation::new(c.k());
        for (pattern, count) in rows {
            rebuilt.push(&pattern, count);
        }
        *c = rebuilt;
    }
}

/// Map mining-space rules back to original item ids and re-sort into
/// [`generate_rules`]'s paper order: pattern length ascending, then the
/// full pattern lexicographically, then the antecedent lexicographically
/// (equivalently, consequent positions last-to-first).
fn unmap_rules(rules: &mut [Rule], remap: &ItemRemap) {
    for rule in rules.iter_mut() {
        let mut ante: Vec<Item> = rule.antecedent.iter().map(|&i| remap.to_original(i)).collect();
        ante.sort_unstable();
        rule.antecedent = ItemVec::from_slice(&ante);
        rule.consequent = remap.to_original(rule.consequent);
    }
    rules.sort_by(|a, b| {
        let (pa, pb) = (a.pattern(), b.pattern());
        (pa.as_slice().len(), pa.as_slice(), a.antecedent.as_slice()).cmp(&(
            pb.as_slice().len(),
            pb.as_slice(),
            b.antecedent.as_slice(),
        ))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example;
    use crate::setm::plan::{JoinStrategy, PhysicalPlan, FORCE_PLAN_ENV};

    #[test]
    fn builder_runs_every_backend_to_the_same_rules() {
        let dataset = example::paper_example_dataset();
        let params = example::paper_example_params();
        let reference = Miner::new(params).run(&dataset).unwrap();
        assert_eq!(reference.result.max_pattern_len(), 3);
        assert_eq!(reference.rules.len(), 11);
        assert!(matches!(reference.report, ExecutionReport::Memory));

        let engine = Miner::new(params)
            .backend(Backend::Engine(EngineConfig::default()))
            .threads(2)
            .run(&dataset)
            .unwrap();
        assert_eq!(engine.frequent_itemsets(), reference.frequent_itemsets());
        assert_eq!(engine.rules, reference.rules);
        assert!(engine.report.page_accesses().unwrap() > 0);
        assert!(engine.report.io_stats().unwrap().accesses() > 0);

        let sql = Miner::new(params).backend(Backend::Sql).run(&dataset).unwrap();
        assert_eq!(sql.frequent_itemsets(), reference.frequent_itemsets());
        assert_eq!(sql.rules, reference.rules);
        assert!(!sql.report.statements().unwrap().is_empty());
        assert!(sql.report.page_accesses().is_none());
    }

    #[test]
    fn invalid_inputs_are_typed_errors_not_panics() {
        let d = example::paper_example_dataset();
        let bad_support = Miner::new(MiningParams::new(MinSupport::Fraction(1.5), 0.5)).run(&d);
        assert!(matches!(bad_support, Err(SetmError::InvalidSupportFraction { .. })));

        let bad_conf = Miner::new(MiningParams::new(MinSupport::Count(2), 1.5)).run(&d);
        assert!(matches!(bad_conf, Err(SetmError::InvalidConfidence { .. })));

        let nan_conf = Miner::new(MiningParams::new(MinSupport::Count(2), f64::NAN)).run(&d);
        assert!(matches!(nan_conf, Err(SetmError::InvalidConfidence { .. })));

        let zero_len =
            Miner::new(MiningParams::new(MinSupport::Count(2), 0.5)).max_pattern_len(0).run(&d);
        assert!(matches!(zero_len, Err(SetmError::InvalidMaxPatternLen)));

        let tiny_sort = Miner::new(MiningParams::new(MinSupport::Count(2), 0.5))
            .backend(Backend::Engine(EngineConfig { sort_buffer_pages: 2, ..Default::default() }))
            .run(&d);
        assert!(matches!(tiny_sort, Err(SetmError::InvalidEngineConfig { .. })));
    }

    #[test]
    fn empty_dataset_yields_a_clean_empty_outcome_on_every_backend() {
        let d = Dataset::from_pairs(std::iter::empty());
        let params = MiningParams::new(MinSupport::Fraction(0.3), 0.7);
        for backend in [Backend::Memory, Backend::Engine(EngineConfig::default()), Backend::Sql] {
            let outcome = Miner::new(params).backend(backend).threads(1).run(&d).unwrap();
            assert_eq!(outcome.result.max_pattern_len(), 0, "{}", backend.name());
            assert!(outcome.rules.is_empty());
            let s = outcome.result.support_fraction(0);
            assert_eq!(s, 0.0, "support must not be NaN on {}", backend.name());
        }
    }

    #[test]
    fn backend_names_round_trip_through_from_str() {
        for backend in [Backend::Memory, Backend::Engine(EngineConfig::default()), Backend::Sql] {
            let parsed: Backend = backend.name().parse().unwrap();
            assert_eq!(parsed, backend);
        }
        let err = "postgres".parse::<Backend>().unwrap_err();
        assert_eq!(err.name, "postgres");
        assert!(err.to_string().contains("postgres"));
    }

    #[test]
    fn configured_getters_echo_the_builder_chain() {
        let params = example::paper_example_params();
        let miner = Miner::new(params).backend(Backend::Sql).threads(3);
        assert_eq!(miner.configured_backend(), Backend::Sql);
        assert_eq!(miner.configured_threads(), 3);
        assert_eq!(miner.configured_plan_mode(), PlanMode::Auto);
        let forced = miner.clone().plan_mode(PlanMode::Forced(PhysicalPlan::merge_scan()));
        assert_eq!(forced.configured_plan_mode(), PlanMode::Forced(PhysicalPlan::merge_scan()));
        assert_eq!(miner.params(), &params);
    }

    #[test]
    fn forced_plans_flow_through_the_facade_on_every_backend() {
        let d = example::paper_example_dataset();
        let params = example::paper_example_params();
        let reference = Miner::new(params).run(&d).unwrap();
        let plan = PhysicalPlan {
            join: JoinStrategy::NestedLoop,
            reuse_sort: false,
            shards: 1,
            sort_buffer_pages: 64,
        };
        for backend in [Backend::Memory, Backend::Engine(EngineConfig::default()), Backend::Sql] {
            let forced = Miner::new(params)
                .backend(backend)
                .threads(1)
                .plan_mode(PlanMode::Forced(plan))
                .run(&d)
                .unwrap();
            assert_eq!(
                forced.frequent_itemsets(),
                reference.frequent_itemsets(),
                "{}",
                backend.name()
            );
            assert_eq!(forced.rules, reference.rules, "{}", backend.name());
            // Each trace row records the plan as executed: verbatim on
            // memory and the engine; the SQL script's only ordering step
            // is its closing ORDER BY, so it records `reuse_sort`.
            let executed = match backend {
                Backend::Sql => PhysicalPlan { reuse_sort: true, ..plan },
                _ => plan,
            };
            for t in forced.result.trace.iter().filter(|t| t.k >= 2) {
                assert_eq!(t.plan, Some(executed), "{} k={}", backend.name(), t.k);
            }
        }
    }

    #[test]
    fn an_illegal_forced_plan_is_a_typed_error() {
        let d = example::paper_example_dataset();
        let params = example::paper_example_params();
        let bad = PhysicalPlan { shards: 0, ..PhysicalPlan::merge_scan() };
        let err = Miner::new(params).plan_mode(PlanMode::Forced(bad)).run(&d);
        assert!(matches!(err, Err(SetmError::InvalidPlan { .. })));
        // validate() alone catches it too — nothing has to run.
        let err = Miner::new(params).plan_mode(PlanMode::Forced(bad)).validate();
        assert!(matches!(err, Err(SetmError::InvalidPlan { .. })));
    }

    #[test]
    fn force_plan_env_overrides_auto_but_not_an_explicit_forced_plan() {
        let d = example::paper_example_dataset();
        let params = example::paper_example_params();
        let env_plan: PhysicalPlan = "merge-scan,reuse=0,shards=1,buf=32".parse().unwrap();
        std::env::set_var(FORCE_PLAN_ENV, env_plan.to_string());
        let from_env = Miner::new(params).threads(1).run(&d);
        let explicit = Miner::new(params)
            .threads(1)
            .plan_mode(PlanMode::Forced(PhysicalPlan::merge_scan()))
            .run(&d);
        std::env::remove_var(FORCE_PLAN_ENV);

        let from_env = from_env.unwrap();
        assert_eq!(from_env.rules.len(), 11);
        for t in from_env.result.trace.iter().filter(|t| t.k >= 2) {
            assert_eq!(t.plan, Some(env_plan), "env-forced plan must reach the trace");
        }
        let explicit = explicit.unwrap();
        for t in explicit.result.trace.iter().filter(|t| t.k >= 2) {
            assert_eq!(t.plan, Some(PhysicalPlan::merge_scan()), "builder knob must win");
        }
    }

    #[test]
    fn observer_streams_one_iteration_event_per_trace_row_without_perturbing_results() {
        use setm_obs::{ObsEvent, VecSink};

        let d = example::paper_example_dataset();
        let params = example::paper_example_params();
        let reference = Miner::new(params).threads(1).run(&d).unwrap();

        for backend in [Backend::Memory, Backend::Engine(EngineConfig::default()), Backend::Sql] {
            let sink = std::sync::Arc::new(VecSink::new());
            let observed = Miner::new(params)
                .backend(backend)
                .threads(1)
                .observer(sink.clone())
                .run(&d)
                .unwrap();
            assert_eq!(
                observed.frequent_itemsets(),
                reference.frequent_itemsets(),
                "observer must not perturb {} results",
                backend.name()
            );
            let events = sink.take();
            let iterations: Vec<&setm_obs::IterationSnapshot> = events
                .iter()
                .filter_map(|e| match e {
                    ObsEvent::Iteration(s) => Some(s),
                    _ => None,
                })
                .collect();
            assert_eq!(
                iterations.len(),
                observed.result.trace.len(),
                "one Iteration event per trace row on {}",
                backend.name()
            );
            for (snapshot, row) in iterations.iter().zip(observed.result.trace.iter()) {
                assert_eq!(snapshot.k, row.k, "{}", backend.name());
                assert_eq!(snapshot.r_tuples, row.r_tuples, "{}", backend.name());
                assert_eq!(snapshot.plan, row.plan_string(), "{}", backend.name());
            }
        }
    }

    #[test]
    fn miner_equality_and_debug_ignore_the_observer() {
        let params = example::paper_example_params();
        let plain = Miner::new(params);
        let observed = Miner::new(params).observer(std::sync::Arc::new(setm_obs::NullSink));
        assert_eq!(plain, observed, "observer is a side channel, not config");
        assert!(format!("{observed:?}").contains("observer"));
    }

    #[test]
    fn overrides_compose_with_the_builder() {
        let d = example::paper_example_dataset();
        let outcome = Miner::new(MiningParams::new(MinSupport::Count(1), 0.9))
            .min_support(MinSupport::Fraction(0.3))
            .min_confidence(0.7)
            .max_pattern_len(2)
            .run(&d)
            .unwrap();
        assert_eq!(outcome.result.max_pattern_len(), 2);
        assert_eq!(outcome.result.min_support_count, 3);
        assert!(outcome.rules.iter().all(|r| r.confidence >= 0.7));
    }
}
