//! `mtbase` — the MTSQL middleware: connections carrying the client tenant
//! `C`, scope handling (dataset `D`), privilege pruning (`D → D'`), the
//! rewrite pipeline and execution on the [`mtengine`] substrate.
//!
//! This corresponds to the middleware box of Figure 4 in the paper: clients
//! speak MTSQL to a [`Connection`]; the connection consults the catalog,
//! rewrites the statement to plain SQL at a configurable optimization level
//! and runs it on the engine.
//!
//! # Public API
//!
//! * [`MtBase`] — the server: catalog + engine + conversion functions +
//!   the shared prepared-plan cache. Build one with [`MtBase::new`] (takes
//!   an [`EngineConfig`] controlling UDF caching, partition pruning,
//!   parallel and columnar scans) and open per-tenant connections with
//!   [`MtBase::connect`].
//! * [`Connection`] — executes MTSQL (`SET SCOPE`, queries, DML, DCL) at a
//!   per-connection [`OptLevel`];
//!   [`Connection::last_query_stats`](connection::Connection::last_query_stats)
//!   reports the counters (rows scanned, partitions pruned, vectorized
//!   rows, UDF calls, plan-cache hits, ...) of the last statement, charged
//!   to that statement's own context.
//! * [`Statement`] / [`Cursor`] — the prepare / bind / execute / fetch
//!   lifecycle: [`Connection::prepare`] parses once, `bind` substitutes
//!   `?` / `$n` parameter values without replanning, `execute` serves the
//!   scope-resolution / rewrite / planning front-end from the server's plan
//!   cache, and [`Statement::cursor`](prepared::Statement::cursor) streams
//!   results batch-at-a-time. One-shot [`Connection::execute`] /
//!   [`Connection::query`] remain as thin wrappers over the same cached
//!   front-end.
//! * [`testkit`] — the paper's running example wired up for tests and docs.
//!
//! # Example
//!
//! ```
//! use mtbase::testkit::running_example_server;
//! use mtengine::Value;
//!
//! let server = running_example_server(mtengine::EngineConfig::default());
//! server.grant_read_all(0).unwrap(); // tenant 1 shares her data with tenant 0
//! let mut conn = server.connect(0);
//! conn.execute("SET SCOPE = \"IN (0, 1)\"").unwrap();
//! // Tenant 1 stores salaries in EUR; tenant 0 sees them converted to USD.
//! let mut stmt = conn
//!     .prepare("SELECT E_name, E_salary FROM Employees WHERE E_age > ?")
//!     .unwrap();
//! let rs = stmt.execute_with(&[Value::Int(50)]).unwrap();
//! assert_eq!(rs.rows.len(), 1);
//! assert_eq!(rs.rows[0][0], Value::str("Nancy"));
//! // Re-executing with a different binding reuses the cached plan.
//! let rs = stmt.execute_with(&[Value::Int(40)]).unwrap();
//! assert_eq!(rs.rows.len(), 3);
//! assert_eq!(stmt.last_query_stats().prepared_cache_hits, 1);
//! ```

pub mod connection;
pub mod error;
mod plan_cache;
pub mod prepared;
pub mod server;
pub mod testkit;

pub use connection::Connection;
pub use error::{MtError, Result};
pub use prepared::{Cursor, Statement};
pub use server::{currency_udfs_from_rates, phone_udfs_from_prefixes, MtBase};

pub use mtcatalog::TenantId;
pub use mtengine::{EngineConfig, ResultSet, Value};
pub use mtrewrite::OptLevel;
