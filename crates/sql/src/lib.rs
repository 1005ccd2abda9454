//! # setm-sql — the paper's SQL, executable
//!
//! A SQL subset engine over `setm-relational`, sized exactly to the
//! queries of *Houtsma & Swami (ICDE 1995)*: `CREATE TABLE` with integer
//! columns, `INSERT INTO … VALUES / SELECT`, and single-block `SELECT`
//! with multi-table `FROM`, conjunctive `WHERE`, `GROUP BY` + `COUNT(*)`
//! / `SUM(col)` + `HAVING`, `ORDER BY`, and named parameters
//! (`:minsupport`). `SUM` exists for the partitioned plan: shard-local
//! `COUNT(*)` relations union into a coordinator table and re-aggregate
//! with `GROUP BY … HAVING SUM(cnt) >= :minsupport`.
//!
//! For partitioned execution, [`ShardPool`] holds one independent
//! session per shard (each on its own pager — a disk per worker) and
//! runs per-shard statements concurrently under `std::thread::scope`,
//! wrapping any failure in [`SqlError::Shard`] so errors name the shard.
//!
//! The planner realizes both strategies the paper analyzes from the same
//! SQL text: [`JoinPreference::SortMerge`] (the default) produces the
//! Section 4 plan (sort both sides, one merge-scan),
//! [`JoinPreference::IndexNestedLoop`] the Section 3 plan (a B+-tree
//! probe per outer row). The caller picks one; the planner never guesses
//! from the indexes it finds.
//!
//! The executor tracks sort order across statements, as Section 4.1
//! asks, and copies no result twice: a query's last join filters and
//! writes only its `SELECT` list, a self-join of one stored table sorts
//! it once for both sides, a single-table `GROUP BY` that sorts its
//! stored table keeps the sorted copy as the table, and an
//! `INSERT … SELECT` into an empty table adopts the result file.
//!
//! ```
//! use setm_sql::{Params, SqlEngine};
//!
//! let mut engine = SqlEngine::new();
//! engine.execute("CREATE TABLE SALES (trans_id INT, item INT)", &Params::new()).unwrap();
//! engine
//!     .execute("INSERT INTO SALES VALUES (10, 1), (10, 2), (20, 1)", &Params::new())
//!     .unwrap();
//! let result = engine
//!     .query(
//!         "SELECT item, COUNT(*) FROM SALES GROUP BY item HAVING COUNT(*) >= :minsupport",
//!         &Params::new().with("minsupport", 2),
//!     )
//!     .unwrap();
//! assert_eq!(result.rows, vec![vec![1, 2]]);
//! ```

pub mod ast;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod parser;

pub use ast::Statement;
pub use error::{Result, SqlError};
pub use exec::{
    ExecOptions, ExecOutcome, JoinPreference, Params, QueryResult, ShardPool, SqlEngine,
};
pub use parser::{parse, parse_script};
