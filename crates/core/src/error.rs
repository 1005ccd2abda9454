//! The workspace-wide typed error model.
//!
//! Every backend reachable from the [`crate::Miner`] facade reports
//! failures through one enum, [`SetmError`]: user-input problems
//! (invalid support / confidence, nonsense engine configuration, an
//! illegal forced plan, contradictory constraints) are caught by
//! validation before any work starts. Every option means the same thing
//! on every backend, so none is rejected for the backend it runs on. The
//! per-layer error types of the storage engine (`setm_relational::Error`)
//! and the SQL layer (`setm_sql::SqlError`) convert into it, so a disk
//! fault three layers down still surfaces as one typed error at the
//! facade — never a panic.

use std::fmt;

/// Everything that can go wrong in a [`crate::Miner`] run.
#[derive(Debug, Clone, PartialEq)]
pub enum SetmError {
    /// A fractional minimum support outside `(0, 1]` (or not finite).
    InvalidSupportFraction { fraction: f64 },
    /// A minimum confidence outside `[0, 1]` (or not finite).
    InvalidConfidence { confidence: f64 },
    /// `max_pattern_len` of 0 — the loop could never emit a pattern.
    InvalidMaxPatternLen,
    /// A nonsensical engine configuration (e.g. a sort workspace below
    /// the 3-page minimum a two-phase external sort needs).
    InvalidEngineConfig { reason: String },
    /// A physical plan no execution can honor (zero shards, a sort
    /// workspace below the external-sort minimum, or an unparseable
    /// `SETM_FORCE_PLAN` string).
    InvalidPlan { reason: String },
    /// A contradictory or unsatisfiable [`crate::MiningConstraints`]
    /// specification (an item both required and excluded, a target that
    /// is excluded or required, a minimum rule length above the pattern
    /// cap, ...).
    InvalidConstraints { reason: String },
    /// The paged storage engine failed (media fault, corrupt state, …).
    Engine(setm_relational::Error),
    /// The SQL layer failed (parse / plan / execution error).
    Sql(setm_sql::SqlError),
}

impl fmt::Display for SetmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetmError::InvalidSupportFraction { fraction } => {
                write!(f, "minimum support fraction {fraction} is outside (0, 1]")
            }
            SetmError::InvalidConfidence { confidence } => {
                write!(f, "minimum confidence {confidence} is outside [0, 1]")
            }
            SetmError::InvalidMaxPatternLen => {
                write!(f, "max_pattern_len must be at least 1")
            }
            SetmError::InvalidEngineConfig { reason } => {
                write!(f, "invalid engine configuration: {reason}")
            }
            SetmError::InvalidPlan { reason } => {
                write!(f, "invalid physical plan: {reason}")
            }
            SetmError::InvalidConstraints { reason } => {
                write!(f, "invalid mining constraints: {reason}")
            }
            SetmError::Engine(e) => write!(f, "storage engine error: {e}"),
            SetmError::Sql(e) => write!(f, "SQL error: {e}"),
        }
    }
}

impl std::error::Error for SetmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SetmError::Engine(e) => Some(e),
            SetmError::Sql(e) => Some(e),
            _ => None,
        }
    }
}

impl From<setm_relational::Error> for SetmError {
    fn from(e: setm_relational::Error) -> Self {
        SetmError::Engine(e)
    }
}

impl From<setm_sql::SqlError> for SetmError {
    fn from(e: setm_sql::SqlError) -> Self {
        // A SQL error that merely wraps an engine error is an engine
        // error; unwrap one level so matching stays uniform across
        // backends (the fault-injection tests rely on this). A
        // `SqlError::Shard` wrapper is *not* unwrapped, even when its
        // cause is an engine fault: which shard of a partitioned SQL run
        // failed is information the facade must not discard.
        match e {
            setm_sql::SqlError::Engine(inner) => SetmError::Engine(inner),
            other => SetmError::Sql(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn displays_are_informative() {
        let e = SetmError::InvalidSupportFraction { fraction: 1.5 };
        assert!(e.to_string().contains("1.5"));
        let e = SetmError::InvalidConfidence { confidence: -0.2 };
        assert!(e.to_string().contains("-0.2"));
    }

    #[test]
    fn layer_errors_convert_and_chain() {
        let engine: SetmError = setm_relational::Error::NoSuchFile(7).into();
        assert!(matches!(engine, SetmError::Engine(_)));
        assert!(engine.source().is_some());

        let sql: SetmError = setm_sql::SqlError::Parse("expected FROM".into()).into();
        assert!(matches!(sql, SetmError::Sql(_)));
        assert!(sql.to_string().contains("FROM"));
    }

    #[test]
    fn sql_wrapped_engine_errors_unwrap_to_engine() {
        let nested: SetmError =
            setm_sql::SqlError::Engine(setm_relational::Error::Corrupt("bad page".into())).into();
        assert!(matches!(nested, SetmError::Engine(setm_relational::Error::Corrupt(_))));
    }

    #[test]
    fn shard_failures_stay_sql_errors_naming_the_shard() {
        // Even when the cause three layers down is an engine fault, the
        // shard attribution of a partitioned SQL run must survive the
        // conversion to the facade error.
        let e: SetmError = setm_sql::SqlError::Shard {
            shard: 3,
            source: Box::new(setm_sql::SqlError::Engine(setm_relational::Error::Corrupt(
                "media fault".into(),
            ))),
        }
        .into();
        assert!(matches!(e, SetmError::Sql(setm_sql::SqlError::Shard { shard: 3, .. })));
        assert!(e.to_string().contains("shard 3"), "{e}");
        assert!(e.to_string().contains("media fault"), "{e}");
    }
}
