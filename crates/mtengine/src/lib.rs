//! `mtengine` — the in-memory relational SQL engine MTBase executes rewritten
//! queries against.
//!
//! The paper runs MTBase on top of PostgreSQL and a commercial DBMS
//! ("System C"); this crate is the substitute substrate: a from-scratch SQL
//! executor with the two properties the evaluation depends on:
//!
//! 1. realistic per-call cost for scalar UDFs (conversion functions), and
//! 2. optional caching of immutable UDF results — enabled it behaves like
//!    PostgreSQL, disabled it behaves like System C.
//!
//! # Storage layout
//!
//! Tables hand rows out behind reference-counted [`table::SharedRow`]
//! handles (`Arc<[Value]>`, with strings interned as `Arc<str>`), so
//! relations flowing through the executor share storage with the base
//! tables instead of deep-cloning it. A table may declare a **partition
//! column** via [`Engine::set_table_partition`] — for the MTBase
//! shared-table layout this is the invisible `ttid` — which buckets rows
//! per tenant:
//!
//! ```text
//! Table "lineitem" (partition column: ttid)
//!   bucket ttid=1 → col₀[i64…] col₁[f64…] col₂[Arc<str>…] … + null bitmaps
//!   bucket ttid=2 → …                    ← skipped entirely when 2 ∉ D
//!   ...
//!   loose rows    → [row, row, ...]      ← non-integer partition keys
//! ```
//!
//! Each bucket stores one typed [`table::ColumnVec`] array per column plus a
//! null bitmap; scans evaluate compiled predicates **vectorized**,
//! column-at-a-time over a selection bitmap
//! ([`conjuncts::eval_vectorized_range`]), and *late-materialize* a
//! `SharedRow` only for the qualifying row ids, holding only the columns
//! the plan reads (see [`plan::SeqScan::projection`]). Unpartitioned tables keep
//! their rows in the loose row store — the row-form reference the column
//! kernels are checked against.
//!
//! Base-table scans evaluate the single-table WHERE conjuncts *during* the
//! scan (non-qualifying rows are never materialized) and recognise
//! `ttid = k` / `ttid IN (...)` conjuncts — the D-filters every rewritten
//! MT-H query carries — to skip foreign tenants' buckets without touching
//! their rows, making tenant-scoped queries scale with |D| instead of the
//! total tenant count T.
//!
//! # Physical plans
//!
//! Query execution is split into **plan → execute**: [`plan::Planner`]
//! lowers a query into an operator DAG ([`plan::Plan`] — `SeqScan` with
//! pushed conjuncts and pruning keys, `Filter`, `HashJoin`,
//! `NestedLoopJoin`, `HashAggregate`, `Sort`, `Limit`, `Project`,
//! `Subquery`) whose expressions are bound to slots at plan time
//! ([`bound`]), and [`exec::Executor`] walks that DAG. Pushdown is a plan
//! transformation, so it also crosses derived-table boundaries (conjuncts
//! transpose through sub-select projections onto the base scans), and large
//! scans run *morsel-driven*: the selected buckets are split into fixed-size
//! row-range morsels pulled by a scoped worker pool
//! (`EngineConfig::parallel_scan`, overridable at execution time through the
//! `MT_THREADS` environment variable). Each worker runs the
//! whole pipeline per morsel — predicate kernels, then late
//! materialization or, when the scan feeds a `HashAggregate`, evaluation of
//! group ids and aggregate arguments straight off the column vectors
//! ([`agg`]); the coordinator folds the per-morsel batches in morsel order
//! — so results are bit-identical to a serial scan. A `HashAggregate` over
//! the `ttid → Tenant` join conversion inlining emits resolves that join
//! once per partition bucket instead of per row. Conjuncts without a
//! kernel form run hybrid on the workers: kernels narrow the selection
//! first, survivors are checked by the bound evaluator.
//! `EXPLAIN <query>` (or [`Engine::explain_query`]) renders the plan,
//! including pushed conjuncts, live partition-pruning counts and morsel
//! engagement.
//!
//! # Parameters and cursors
//!
//! Plans are plain owned data, so callers may lower once
//! ([`Engine::plan_query`]) and re-execute many times
//! ([`Engine::execute_plan`]) with different bound parameter values —
//! `Expr::Param` placeholders evaluate against the executor's bound slice,
//! and partition-key predicates over parameters (`ttid = $1`) re-resolve
//! their pruning key sets at execution time. [`Engine::fetch_cursor_batch`]
//! streams pipeline-able plans batch-at-a-time instead of materializing the
//! full result — see the [`cursor`] module. The MTBase middleware builds its
//! prepared-statement API on exactly these entry points.
//!
//! # Observability
//!
//! [`stats::StatsSnapshot`] exposes `rows_scanned` (rows actually visited,
//! after pruning), `partitions_scanned` / `partitions_pruned` (bucket
//! accounting per scan), `morsels_dispatched` / `morsel_workers` /
//! `partial_agg_merges` (morsel-pool accounting: row ranges pulled by
//! workers, workers spawned, and per-morsel aggregate batches folded into
//! the final aggregate), `rows_vectorized` / `late_materialized` (bucket-scan
//! accounting: rows covered by column kernels vs. rows actually built) and
//! the UDF call/cache counters. Each statement charges them to its own
//! [`stats::StmtCtx`], passed through planning, verification and
//! execution: entry points taking a `&StmtCtx` (such as
//! [`Engine::plan_query_in`] and [`Engine::execute_plan_in`]) charge the
//! caller's, whose creator hands it to [`Engine::finish_statement`] when
//! the statement ends; [`Engine::query`], [`Engine::execute`],
//! [`Engine::plan_query`] and [`Engine::execute_plan`] run as statements of
//! their own. [`Engine::stats`] reads the lifetime totals. Pruning can be
//! disabled per engine
//! (`EngineConfig::partition_pruning`) to recover the full-scan baseline
//! for comparisons; results must be identical either way.
//!
//! # Example
//!
//! ```
//! use mtengine::{Engine, EngineConfig, Value};
//!
//! let mut engine = Engine::new(EngineConfig::default());
//! engine.create_table("t", &["a", "b"]);
//! engine
//!     .insert_values("t", vec![vec![Value::Int(1), Value::str("x")],
//!                              vec![Value::Int(2), Value::str("y")]])
//!     .unwrap();
//! let rs = engine.query("SELECT a FROM t WHERE b = 'y'").unwrap();
//! assert_eq!(rs.rows, vec![vec![Value::Int(2)]]);
//! ```

pub mod agg;
pub mod bound;
pub mod conjuncts;
pub mod cursor;
pub mod decorrelate;
pub mod error;
pub mod exec;
pub mod lock;
pub mod plan;
pub mod prune;
pub mod schema;
pub mod stats;
pub mod table;
pub mod txn;
pub mod udf;
pub mod value;
pub mod verify;
pub mod wal;

use std::path::Path;
use std::sync::Arc;

use mtsql::ast::{InsertSource, Query, Statement};
use parking_lot::Mutex;

use crate::bound::Frame;
use crate::exec::{Executor, Relation};
use crate::schema::Schema;
use crate::stats::{StatsSnapshot, StmtCtx};
use crate::table::{Database, Row, SharedRow, Snapshot};
use crate::udf::{UdfImpl, UdfRegistry};

pub use crate::cursor::{CursorBatch, CursorState, DEFAULT_BATCH_ROWS};
pub use crate::error::{EngineError, EngineErrorKind, Result};
pub use crate::lock::{LockManager, LockTarget};
pub use crate::txn::Transaction;
pub use crate::value::Value;
pub use crate::verify::{PlanError, PlanErrorClass};
pub use crate::wal::{CrashMode, FailpointClock, MetaOp, WalHandle};

/// Validate the process-wide environment overrides eagerly: `MT_THREADS`
/// (positive integer), `MT_VERIFY` (`1`/`true`/`on` or `0`/`false`/`off`)
/// and `WAL_FAULT_MODE` (a [`CrashMode`] name). The lazy readers of these
/// variables run deep inside execution where "could not parse" has no good
/// answer, so they ignore malformed values — the MTBase server calls this
/// at startup instead, turning a typo'd override into a clear startup error
/// rather than a silently applied default.
pub fn validate_env_overrides() -> Result<()> {
    if let Ok(raw) = std::env::var("MT_THREADS") {
        let valid = raw.trim().parse::<usize>().map(|n| n > 0).unwrap_or(false);
        if !valid {
            return error::err(format!(
                "invalid MT_THREADS value `{raw}`: expected a positive integer \
                 (the parallel-scan worker budget)"
            ));
        }
    }
    if let Ok(raw) = std::env::var("MT_VERIFY") {
        let valid = matches!(
            raw.trim().to_ascii_lowercase().as_str(),
            "1" | "true" | "on" | "0" | "false" | "off"
        );
        if !valid {
            return error::err(format!(
                "invalid MT_VERIFY value `{raw}`: expected 1/true/on or 0/false/off \
                 (the static plan verifier override)"
            ));
        }
    }
    if let Ok(raw) = std::env::var("WAL_FAULT_MODE") {
        if let Err(e) = wal::CrashMode::parse(raw.trim()) {
            return error::err(format!("invalid WAL_FAULT_MODE value: {e}"));
        }
    }
    Ok(())
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Cache results of `IMMUTABLE` UDFs keyed by their arguments
    /// (PostgreSQL-like). Disable to model "System C".
    pub cache_immutable_udfs: bool,
    /// Skip partition buckets that `ttid = k` / `ttid IN (...)` scan
    /// predicates exclude. Disabling falls back to full scans (the pre-
    /// partitioning behaviour) — useful as a benchmark baseline.
    pub partition_pruning: bool,
    /// Maximum worker threads a single base-table scan may fan out to. `0`
    /// or `1` scans serially. Pooled scans split their selected buckets into
    /// fixed-size row-range morsels (4096 rows) pulled by the workers, and
    /// per-morsel outputs — row batches, or evaluated aggregate batches when
    /// the scan feeds a `HashAggregate` — are merged in morsel order, so
    /// results are identical to a serial scan. Scans smaller than the pool
    /// engagement threshold (8192 rows) always run serially. The
    /// `MT_THREADS` environment variable, when set to a positive integer,
    /// overrides this budget at execution time for every engine in the
    /// process (deterministic bench/CI runs force the pool on without
    /// touching deployment configuration); `EXPLAIN` keeps reporting the
    /// configured budget.
    pub parallel_scan: usize,
    /// Dictionary-encode low-cardinality string columns of the partition
    /// buckets: a `u32` code array plus a shared sorted dictionary per
    /// column, with automatic demotion to the plain layout past
    /// [`table::DICT_MAX_DISTINCT`] distinct values. Scans resolve string
    /// predicates against the dictionary once and compare codes
    /// ([`conjuncts::dict_filter_bitmap`]), and `GROUP BY` over dictionary
    /// columns groups on codes. Disabling keeps plain `Arc<str>` arrays —
    /// the equivalence baseline, results are identical either way.
    pub dictionary_encoding: bool,
    /// Unnest correlated sub-queries at plan time: correlated
    /// `EXISTS`/`NOT EXISTS` predicates become semi-/anti-join variants of
    /// `HashJoin`, and correlated scalar-aggregate comparisons become
    /// aggregate-then-join plans (see the [`decorrelate`] module). The
    /// rewrite fires only when it is provably equivalent to running the
    /// sub-plan per outer row; anything else keeps the correlated `Filter`.
    /// Disabling keeps every correlated sub-query a per-outer-row sub-plan —
    /// the equivalence baseline, results are identical either way.
    pub decorrelation: bool,
    /// Run the static plan verifier ([`verify`]) over every freshly
    /// planned operator DAG (and re-check parameter bounds when a cached
    /// plan is bound): a corrupt plan is rejected with a typed
    /// [`EngineErrorKind::Plan`] error *before* execution instead of
    /// producing wrong rows or an obscure evaluation error. Always on in
    /// debug builds, opt-in in release; the `MT_VERIFY` environment
    /// variable (`1`/`0`) overrides the configured value process-wide,
    /// mirroring `MT_THREADS`. `EXPLAIN` verifies unconditionally so its
    /// `verified` marker is identical across build profiles.
    pub verify_plans: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_immutable_udfs: true,
            partition_pruning: true,
            parallel_scan: 1,
            dictionary_encoding: true,
            decorrelation: true,
            verify_plans: cfg!(debug_assertions),
        }
    }
}

impl EngineConfig {
    /// The PostgreSQL-like configuration used in Tables 3–5 / Figure 5.
    pub fn postgres_like() -> Self {
        EngineConfig {
            cache_immutable_udfs: true,
            ..EngineConfig::default()
        }
    }

    /// The "System C"-like configuration used in Tables 7–9 / Figure 6.
    pub fn system_c_like() -> Self {
        EngineConfig {
            cache_immutable_udfs: false,
            ..EngineConfig::default()
        }
    }

    /// Disable partition pruning (builder-style, for baseline comparisons).
    pub fn without_partition_pruning(mut self) -> Self {
        self.partition_pruning = false;
        self
    }

    /// Set the parallel-scan worker budget (builder-style).
    pub fn with_parallel_scan(mut self, threads: usize) -> Self {
        self.parallel_scan = threads;
        self
    }

    /// Disable dictionary encoding (builder-style): bucket string columns
    /// keep plain `Arc<str>` arrays, the baseline the code-space kernels are
    /// verified against.
    pub fn without_dictionary_encoding(mut self) -> Self {
        self.dictionary_encoding = false;
        self
    }

    /// Disable sub-query decorrelation (builder-style): correlated
    /// sub-plans run per outer row, the baseline the unnested join plans
    /// are verified against.
    pub fn without_decorrelation(mut self) -> Self {
        self.decorrelation = false;
        self
    }

    /// Force the static plan verifier on (builder-style) regardless of the
    /// build profile — release deployments that want corrupt plans rejected
    /// before execution.
    pub fn with_verify_plans(mut self) -> Self {
        self.verify_plans = true;
        self
    }
}

/// The result of a query: column names plus materialized rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

impl ResultSet {
    fn from_relation(rel: Relation) -> Self {
        // Materialize the (small) final result; intermediate relations stay
        // shared. Value clones here are pointer-sized (`Arc`-interned).
        ResultSet {
            columns: rel.schema.names(),
            rows: rel.rows.iter().map(|r| r.to_vec()).collect(),
        }
    }

    /// Single scalar convenience accessor (first column of first row).
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }
}

/// The in-memory database engine.
pub struct Engine {
    db: Database,
    udfs: UdfRegistry,
    /// Lifetime totals of every finished statement context
    /// ([`Engine::finish_statement`]) plus transaction outcomes.
    totals: Mutex<StatsSnapshot>,
    config: EngineConfig,
    /// The write-ahead log, present on durable engines ([`Engine::open`]).
    /// Shared (`Arc`) so commit waiters can park on [`wal::WalHandle::wait_durable`]
    /// *without* holding the engine lock — that release is what lets
    /// concurrent committers batch behind one fsync.
    wal: Option<Arc<wal::WalHandle>>,
    /// Catalog records found during recovery, handed to the middleware via
    /// [`Engine::take_recovered_meta`].
    recovered_meta: Vec<MetaOp>,
    /// Transaction id allocator (see [`Engine::begin_transaction`]).
    pub(crate) txn_seq: u64,
}

impl Engine {
    /// Create an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            db: Database::new(),
            udfs: UdfRegistry::new(config.cache_immutable_udfs),
            totals: Mutex::new(StatsSnapshot::default()),
            config,
            wal: None,
            recovered_meta: Vec::new(),
            txn_seq: 0,
        }
    }

    /// Open a durable engine against a write-ahead log file: replay the
    /// log's committed prefix (rebuilding every table under *this*
    /// configuration's physical layout — dictionary equivalence makes the
    /// layout a free choice at recovery time), truncate any
    /// untrusted tail, and log every subsequent mutation before applying
    /// it. Catalog records found in the log are stashed for
    /// [`Engine::take_recovered_meta`]; UDFs are *not* recovered (closures
    /// don't serialize) — the host re-registers them after open.
    pub fn open(config: EngineConfig, path: &Path) -> Result<Engine> {
        let mut recovery = wal::recover(path)?;
        let mut engine = Engine::new(config);
        for record in std::mem::take(&mut recovery.records) {
            engine.apply_record(record)?;
        }
        engine.wal = Some(wal::WalHandle::open_at(path, &recovery)?);
        Ok(engine)
    }

    /// Is this engine logging mutations to a WAL?
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// The LSN of the last record appended to the WAL (0 when not durable
    /// or nothing has been logged). After recovery this is the replay
    /// horizon — the middleware couples the catalog epoch to it.
    pub fn wal_last_lsn(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.last_lsn())
    }

    /// The shared WAL writer handle, when durable. Commit paths clone the
    /// `Arc` so they can wait for durability ([`wal::WalHandle::wait_durable`])
    /// after releasing the engine lock — the group-commit window.
    pub fn wal_handle(&self) -> Option<Arc<wal::WalHandle>> {
        self.wal.clone()
    }

    /// Take the catalog records recovered from the log (middleware replay).
    pub fn take_recovered_meta(&mut self) -> Vec<MetaOp> {
        std::mem::take(&mut self.recovered_meta)
    }

    /// Install a crash-fault injection clock on the WAL writer (no-op on
    /// non-durable engines). See [`FailpointClock`].
    pub fn set_failpoint_clock(&mut self, clock: Arc<FailpointClock>) {
        if let Some(w) = &self.wal {
            w.set_failpoint_clock(clock);
        }
    }

    /// The current mutation epoch — the newest watermark any row carries.
    pub fn current_epoch(&self) -> u64 {
        self.db.current_epoch()
    }

    /// The newest epoch visible to readers outside a transaction: one below
    /// the oldest open transaction's first statement, or the current epoch
    /// when none is open. Snapshot readers (cursors, and per-statement
    /// snapshots while a transaction is open) pin this.
    pub fn committed_epoch(&self) -> u64 {
        self.db.committed_epoch()
    }

    /// Append records plus a commit marker to the WAL and sync, or do
    /// nothing on non-durable engines. Callers apply the mutation in
    /// memory only after this returns `Ok` (write-ahead ordering).
    fn log(&mut self, records: &[wal::Record]) -> Result<()> {
        if let Some(w) = &self.wal {
            w.commit(records)?;
        }
        Ok(())
    }

    /// Log one catalog mutation on behalf of the middleware (its own
    /// transaction). No-op on non-durable engines.
    pub fn log_meta(&mut self, op: MetaOp) -> Result<()> {
        self.log(&[wal::Record::Meta(op)])
    }

    /// Apply one recovered WAL record (replay path; never logs).
    fn apply_record(&mut self, record: wal::Record) -> Result<()> {
        match record {
            wal::Record::CreateTable { name, columns } => {
                self.apply_create_table(&name, columns);
                Ok(())
            }
            wal::Record::SetPartition { table, column } => {
                self.apply_set_partition(&table, &column)
            }
            wal::Record::InsertRows { table, rows } => self.apply_insert_rows(&table, rows),
            wal::Record::ReplaceRows { table, rows } => self.apply_replace_rows(&table, rows),
            wal::Record::DropTable { name } => {
                self.db.bump_epoch();
                self.db.drop_table(&name);
                Ok(())
            }
            wal::Record::CreateView { name, sql } => {
                let query = mtsql::parse_query(&sql)?;
                self.db.create_view(&name, query);
                Ok(())
            }
            wal::Record::DropView { name } => {
                self.db.drop_view(&name);
                Ok(())
            }
            wal::Record::Meta(op) => {
                self.recovered_meta.push(op);
                Ok(())
            }
            wal::Record::Commit => Ok(()),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Borrow the underlying database (used by the executor).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the underlying database.
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Borrow the UDF registry.
    pub fn udfs(&self) -> &UdfRegistry {
        &self.udfs
    }

    /// Register a native scalar UDF.
    pub fn register_udf(&mut self, name: &str, immutable: bool, implementation: UdfImpl) {
        self.udfs.register(name, immutable, implementation);
    }

    /// Register a UDF from a plain closure.
    pub fn register_udf_fn<F>(&mut self, name: &str, immutable: bool, f: F)
    where
        F: Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    {
        self.register_udf(name, immutable, Arc::new(f));
    }

    /// Create (or replace) a table with the given column names. Panics if
    /// the WAL write fails — test/setup convenience; durable code paths use
    /// [`Engine::create_table_owned`].
    pub fn create_table(&mut self, name: &str, columns: &[&str]) {
        self.create_table_owned(name, columns.iter().map(|c| c.to_string()).collect())
            .expect("create_table: WAL append failed"); // lint:allow(expect) documented test/setup panic
    }

    /// Create (or replace) a table with owned column names.
    pub fn create_table_owned(&mut self, name: &str, columns: Vec<String>) -> Result<()> {
        if self.wal.is_some() {
            self.log(&[wal::Record::CreateTable {
                name: name.to_string(),
                columns: columns.clone(),
            }])?;
        }
        self.apply_create_table(name, columns);
        Ok(())
    }

    /// Create a table, declare its partition column and record a catalog
    /// entry — all in **one** WAL transaction, so recovery replays either
    /// every effect or none. This is the middleware's table-creation path;
    /// `meta` carries the catalog-side DDL record.
    pub fn create_table_logged(
        &mut self,
        name: &str,
        columns: Vec<String>,
        partition: Option<&str>,
        meta: Option<MetaOp>,
    ) -> Result<()> {
        // Validate before logging: an invalid statement appends nothing.
        if let Some(column) = partition {
            if !columns.iter().any(|c| c.eq_ignore_ascii_case(column)) {
                return error::err(format!("no column `{column}` in `{name}` to partition by"));
            }
        }
        if self.wal.is_some() {
            let mut records = vec![wal::Record::CreateTable {
                name: name.to_string(),
                columns: columns.clone(),
            }];
            if let Some(column) = partition {
                records.push(wal::Record::SetPartition {
                    table: name.to_string(),
                    column: column.to_string(),
                });
            }
            if let Some(op) = meta {
                records.push(wal::Record::Meta(op));
            }
            self.log(&records)?;
        }
        self.apply_create_table(name, columns);
        if let Some(column) = partition {
            self.apply_set_partition(name, column)?;
        }
        Ok(())
    }

    fn apply_create_table(&mut self, name: &str, columns: Vec<String>) {
        let epoch = self.db.bump_epoch();
        self.db.create_table(name, columns);
        if let Ok(table) = self.db.table_mut(name) {
            table.set_dictionary(self.config.dictionary_encoding);
            table.begin_write(epoch);
            // Replacing a table invalidates snapshots pinned on the old one.
            table.force_rewrite_epoch(epoch);
        }
    }

    /// Declare the partition column of a table (typically the invisible
    /// `ttid` of tenant-specific tables). Existing rows are re-bucketed.
    pub fn set_table_partition(&mut self, table: &str, column: &str) -> Result<()> {
        // Validate before logging: an invalid statement appends nothing.
        if self.db.table(table)?.column_index(column).is_none() {
            return error::err(format!("no column `{column}` in `{table}` to partition by"));
        }
        if self.wal.is_some() {
            self.log(&[wal::Record::SetPartition {
                table: table.to_string(),
                column: column.to_string(),
            }])?;
        }
        self.apply_set_partition(table, column)
    }

    /// Drop a table, logging the engine drop and an optional catalog record
    /// in **one** WAL transaction. Returns whether the table existed (no
    /// record is logged for a missing table).
    pub fn drop_table_logged(&mut self, name: &str, meta: Option<MetaOp>) -> Result<bool> {
        if !self.db.has_table(name) {
            return Ok(false);
        }
        if self.wal.is_some() {
            let mut records = vec![wal::Record::DropTable {
                name: name.to_string(),
            }];
            if let Some(op) = meta {
                records.push(wal::Record::Meta(op));
            }
            self.log(&records)?;
        }
        self.db.bump_epoch();
        self.db.drop_table(name);
        Ok(true)
    }

    fn apply_set_partition(&mut self, table: &str, column: &str) -> Result<()> {
        let epoch = self.db.bump_epoch();
        let t = self.db.table_mut(table)?;
        t.begin_write(epoch);
        if !t.set_partition_column(Some(column)) {
            return error::err(format!("no column `{column}` in `{table}` to partition by"));
        }
        Ok(())
    }

    /// Evaluate rows of column-free expressions (e.g. the VALUES lists of an
    /// INSERT) to concrete values in one engine call — no per-row probe
    /// queries — charging `ctx`.
    pub fn eval_values(&self, rows: &[Vec<mtsql::ast::Expr>], ctx: &StmtCtx) -> Result<Vec<Row>> {
        self.values_rows(rows, None, ctx)
    }

    /// [`Engine::eval_values`], with sub-queries reading at `txn`'s
    /// snapshot inside a transaction: each expression is bound against the
    /// empty schema and evaluated once.
    fn values_rows(
        &self,
        rows: &[Vec<mtsql::ast::Expr>],
        txn: Option<&txn::Transaction>,
        ctx: &StmtCtx,
    ) -> Result<Vec<Row>> {
        let planner = plan::Planner::new(self, ctx);
        let executor = self.dml_executor(txn, ctx);
        let empty = Schema::new();
        let value = |e| {
            let bound = planner.bind_expr(e, &empty, "VALUES")?;
            executor.eval_bound(&bound, &Frame::empty())
        };
        rows.iter()
            .map(|exprs| exprs.iter().map(value).collect())
            .collect()
    }

    /// Bulk-insert pre-built rows.
    pub fn insert_values(&mut self, table: &str, rows: Vec<Row>) -> Result<()> {
        // Validate arity up front so an invalid batch logs nothing.
        let width = self.db.table(table)?.columns.len();
        if let Some(bad) = rows.iter().find(|r| r.len() != width) {
            return error::err(format!(
                "row arity {} does not match table `{table}` with {width} columns",
                bad.len(),
            ));
        }
        if self.wal.is_some() {
            self.log(&[wal::Record::InsertRows {
                table: table.to_string(),
                rows: rows.clone(),
            }])?;
        }
        self.apply_insert_rows(table, rows)
    }

    fn apply_insert_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<()> {
        let epoch = self.db.bump_epoch();
        let t = self.db.table_mut(table)?;
        t.begin_write(epoch);
        for row in rows {
            t.push_row(row)?;
        }
        Ok(())
    }

    fn apply_replace_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<()> {
        let epoch = self.db.bump_epoch();
        let t = self.db.table_mut(table)?;
        t.begin_write(epoch);
        t.take_rows();
        for row in rows {
            t.push_row(row)?;
        }
        Ok(())
    }

    /// The lifetime totals of every finished statement plus the live
    /// gauges (`dict_columns`, `wal_commits`, `wal_fsyncs`).
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            dict_columns: self.db.tables().map(|t| t.dict_column_count() as u64).sum(),
            wal_commits: self.wal.as_ref().map_or(0, |w| w.commits()),
            wal_fsyncs: self.wal.as_ref().map_or(0, |w| w.fsyncs()),
            ..*self.totals.lock()
        }
    }

    /// Reset the lifetime totals (not the gauges) and the UDF result caches
    /// (between measured runs).
    pub fn reset_stats(&self) {
        *self.totals.lock() = StatsSnapshot::default();
        self.udfs.clear_cache();
    }

    /// Add a finished statement's context to the lifetime totals — once per
    /// statement, by whoever created the context.
    pub fn finish_statement(&self, ctx: &StmtCtx) {
        *self.totals.lock() += ctx.stats();
    }

    /// Run `f` as a statement of its own: a fresh context, added to the
    /// lifetime totals when `f` returns.
    fn standalone<T>(&self, f: impl FnOnce(&StmtCtx) -> T) -> T {
        let ctx = StmtCtx::new();
        let out = f(&ctx);
        self.finish_statement(&ctx);
        out
    }

    // ------------------------------------------------------------------
    // Statement execution
    // ------------------------------------------------------------------

    /// Parse and execute a single SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<ResultSet> {
        let stmt = mtsql::parse_statement(sql)?;
        self.execute_statement(&stmt)
    }

    /// Parse and execute a read-only query.
    pub fn query(&self, sql: &str) -> Result<ResultSet> {
        let query = mtsql::parse_query(sql)?;
        self.standalone(|ctx| self.execute_query(&query, ctx))
    }

    /// Execute a parsed query for the statement `ctx`: plan it and run the
    /// plan against the live table state.
    pub fn execute_query(&self, query: &Query, ctx: &StmtCtx) -> Result<ResultSet> {
        let plan = plan::Planner::new(self, ctx).plan_query(query)?;
        self.run_plan(&plan, &[], None, ctx)
    }

    /// [`Engine::plan_query_in`] as a statement of its own.
    pub fn plan_query(&self, query: &Query) -> Result<plan::Plan> {
        self.standalone(|ctx| self.plan_query_in(query, ctx))
    }

    /// Lower a parsed query to its physical plan without executing it,
    /// charging `ctx`. The plan is plain owned data (no engine borrows), so
    /// callers may cache it and re-execute via [`Engine::execute_plan_in`]
    /// — the prepared-statement path of the MTBase middleware.
    pub fn plan_query_in(&self, query: &Query, ctx: &StmtCtx) -> Result<plan::Plan> {
        let plan = plan::Planner::new(self, ctx).plan_query(query)?;
        let opts = verify::VerifyOptions {
            param_count: Some(mtsql::visit::param_count_query(query)),
            ..Default::default()
        };
        verify::verify_for_statement(self, &plan, opts, ctx)?;
        Ok(plan)
    }

    /// [`Engine::execute_plan_in`] outside any transaction, as a statement
    /// of its own.
    pub fn execute_plan(&self, plan: &plan::Plan, params: &[Value]) -> Result<ResultSet> {
        self.standalone(|ctx| self.execute_plan_in(plan, params, None, ctx))
    }

    /// Execute a previously lowered plan with the given bound parameter
    /// values (empty for parameter-free statements), charging `ctx`. Inside
    /// the open transaction `txn` the plan reads the committed floor plus the
    /// transaction's own statement epochs (read-your-writes without
    /// observing other open transactions' staged rows). Outside one, while a
    /// transaction is open somewhere on the engine, it runs against the
    /// committed-epoch snapshot so uncommitted (and later rolled-back) rows
    /// are never observed; with no open transaction the snapshot equals the
    /// live state and the read is unbounded (the common, zero-cost path).
    pub fn execute_plan_in(
        &self,
        plan: &plan::Plan,
        params: &[Value],
        txn: Option<&txn::Transaction>,
        ctx: &StmtCtx,
    ) -> Result<ResultSet> {
        let floor = self.db.committed_epoch();
        let snapshot = match txn {
            Some(txn) => Some(txn.snapshot(floor)),
            None => self.db.has_uncommitted().then_some(Snapshot::At(floor)),
        };
        self.run_plan(plan, params, snapshot, ctx)
    }

    /// The one executor entry: verify `plan` (when enabled) — sub-plans
    /// with it — and run it with `params` bound, every scan bounded at
    /// `snapshot` (`None` reads the live state), charging `ctx`.
    fn run_plan(
        &self,
        plan: &plan::Plan,
        params: &[Value],
        snapshot: Option<Snapshot>,
        ctx: &StmtCtx,
    ) -> Result<ResultSet> {
        let opts = verify::VerifyOptions {
            param_count: Some(params.len()),
            ..Default::default()
        };
        verify::verify_for_statement(self, plan, opts, ctx)?;
        let mut executor = Executor::with_params(self, ctx, params.to_vec());
        if let Some(snapshot) = snapshot {
            executor.pin(snapshot);
        }
        let rel = executor.execute_plan(plan, None)?;
        Ok(ResultSet::from_relation(rel))
    }

    /// Lower a query to its physical plan and render it as an `EXPLAIN`
    /// result: one `QUERY PLAN` column, one row per plan line.
    pub fn explain_query(&self, query: &Query) -> Result<ResultSet> {
        let plan = self.standalone(|ctx| plan::Planner::new(self, ctx).plan_query(query))?;
        Ok(self.explain_plan(&plan))
    }

    /// Render an already-lowered plan as an `EXPLAIN` result (used by the
    /// middleware to explain cached prepared plans).
    pub fn explain_plan(&self, plan: &plan::Plan) -> ResultSet {
        let text = plan::explain(self, plan);
        // EXPLAIN always runs the verifier regardless of configuration, so
        // the marker line is deterministic across debug and release builds
        // and golden plan snapshots pin the verifier's engagement.
        let marker = match verify::verify_plan(self, plan) {
            Ok(report) => format!("verified ({} operators)", report.operators),
            Err(e) => format!("NOT verified: {e}"),
        };
        ResultSet {
            columns: vec!["QUERY PLAN".to_string()],
            rows: text
                .lines()
                .map(|l| vec![Value::str(l)])
                .chain(std::iter::once(vec![Value::str(marker)]))
                .collect(),
        }
    }

    /// Execute a parsed statement (queries, DDL and DML) as a statement of
    /// its own.
    pub fn execute_statement(&mut self, stmt: &Statement) -> Result<ResultSet> {
        let ctx = StmtCtx::new();
        let result = self.run_statement(stmt, &ctx);
        self.finish_statement(&ctx);
        result
    }

    fn run_statement(&mut self, stmt: &Statement, ctx: &StmtCtx) -> Result<ResultSet> {
        match stmt {
            Statement::Select(q) => self.execute_query(q, ctx),
            Statement::Explain(q) => self.explain_query(q),
            Statement::CreateTable(ct) => {
                let columns: Vec<String> = ct.columns.iter().map(|c| c.name.clone()).collect();
                self.create_table_owned(&ct.name, columns)?;
                Ok(ResultSet::default())
            }
            Statement::CreateView(cv) => {
                if self.wal.is_some() {
                    // Views are logged as SQL text and reparsed on replay.
                    self.log(&[wal::Record::CreateView {
                        name: cv.name.clone(),
                        sql: cv.query.to_string(),
                    }])?;
                }
                self.db.create_view(&cv.name, cv.query.clone());
                Ok(ResultSet::default())
            }
            Statement::CreateFunction(cf) => {
                // SQL-bodied conversion functions are registered natively by
                // the middleware; accepting the DDL keeps scripts portable.
                if !self.udfs.contains(&cf.name) {
                    return Err(EngineError::new(format!(
                        "function `{}` has no native implementation registered",
                        cf.name
                    )));
                }
                Ok(ResultSet::default())
            }
            Statement::DropTable { name, if_exists } => {
                // Existence is checked *before* logging so a no-op DROP of a
                // missing table appends nothing to the WAL.
                if !self.db.has_table(name) {
                    if *if_exists {
                        return Ok(ResultSet::default());
                    }
                    return error::err(format!("no such table `{name}`"));
                }
                self.log(&[wal::Record::DropTable { name: name.clone() }])?;
                self.db.bump_epoch();
                self.db.drop_table(name);
                Ok(ResultSet::default())
            }
            Statement::DropView { name, if_exists } => {
                if !self.db.has_view(name) {
                    if *if_exists {
                        return Ok(ResultSet::default());
                    }
                    return error::err(format!("no such view `{name}`"));
                }
                self.log(&[wal::Record::DropView { name: name.clone() }])?;
                self.db.drop_view(name);
                Ok(ResultSet::default())
            }
            Statement::Insert(insert) => {
                // `build_insert_rows` validates arity and fills defaults, so
                // the rows logged here are exactly the rows applied below.
                let rows = self.build_insert_rows(insert, None, ctx)?;
                let count = rows.len() as i64;
                if self.wal.is_some() {
                    self.log(&[wal::Record::InsertRows {
                        table: insert.table.clone(),
                        rows: rows.clone(),
                    }])?;
                }
                self.apply_insert_rows(&insert.table, rows)?;
                Ok(ResultSet {
                    columns: vec!["rows_inserted".to_string()],
                    rows: vec![vec![Value::Int(count)]],
                })
            }
            Statement::Update(update) => {
                let new_rows = self.compute_update_rows(update, None, ctx)?;
                let changed = new_rows.iter().filter(|(m, _)| *m).count() as i64;
                let rows = new_rows.into_iter().map(|(_, r)| r).collect();
                self.replace_rows(&update.table, rows)?;
                Ok(ResultSet {
                    columns: vec!["rows_updated".to_string()],
                    rows: vec![vec![Value::Int(changed)]],
                })
            }
            Statement::Delete(delete) => {
                let (keep, removed) = self.compute_delete_rows(delete, None, ctx)?;
                self.replace_rows(&delete.table, keep)?;
                Ok(ResultSet {
                    columns: vec!["rows_deleted".to_string()],
                    rows: vec![vec![Value::Int(removed)]],
                })
            }
            Statement::Grant(_) | Statement::Revoke(_) | Statement::SetScope(_) => {
                Err(EngineError::new(
                    "DCL and SCOPE statements are handled by the MTBase middleware, not the engine",
                ))
            }
            Statement::Begin | Statement::Commit | Statement::Rollback => {
                // Transaction control is session state: the middleware owns
                // the open [`Transaction`] and drives the engine through
                // `begin_transaction` / `txn_*` instead.
                Err(EngineError::new(
                    "transaction control statements are handled by the MTBase session, not the engine",
                ))
            }
        }
    }

    fn build_insert_rows(
        &self,
        insert: &mtsql::ast::Insert,
        txn: Option<&txn::Transaction>,
        ctx: &StmtCtx,
    ) -> Result<Vec<Row>> {
        let table = self.db.table(&insert.table)?;
        let target_columns: Vec<String> = if insert.columns.is_empty() {
            table.columns.clone()
        } else {
            insert.columns.clone()
        };
        let column_indices: Vec<usize> = target_columns
            .iter()
            .map(|c| {
                table.column_index(c).ok_or_else(|| {
                    EngineError::new(format!("no column `{c}` in `{}`", insert.table))
                })
            })
            .collect::<Result<Vec<_>>>()?;

        // Sources inside a transaction read at the transaction's snapshot,
        // like every other in-transaction query.
        let source_rows: Vec<Row> = match &insert.source {
            InsertSource::Values(rows) => self.values_rows(rows, txn, ctx)?,
            InsertSource::Query(q) => {
                let plan = plan::Planner::new(self, ctx).plan_query(q)?;
                let snapshot = txn.map(|t| t.snapshot(self.db.committed_epoch()));
                self.run_plan(&plan, &[], snapshot, ctx)?.rows
            }
        };

        let width = table.columns.len();
        let mut out = Vec::with_capacity(source_rows.len());
        for src in source_rows {
            if src.len() != column_indices.len() {
                return Err(EngineError::new(format!(
                    "INSERT provides {} values for {} columns",
                    src.len(),
                    column_indices.len()
                )));
            }
            let mut row = vec![Value::Null; width];
            for (value, &idx) in src.into_iter().zip(&column_indices) {
                row[idx] = value;
            }
            out.push(row);
        }
        Ok(out)
    }

    /// Auto-commit UPDATE / DELETE: log the rewritten row set as one
    /// full-replacement record and swap it in under a fresh epoch.
    fn replace_rows(&mut self, table: &str, rows: Vec<SharedRow>) -> Result<()> {
        if self.wal.is_some() {
            self.log(&[wal::Record::ReplaceRows {
                table: table.to_string(),
                rows: rows.iter().map(|r| r.to_vec()).collect(),
            }])?;
        }
        let epoch = self.db.bump_epoch();
        let t = self.db.table_mut(table)?;
        t.begin_write(epoch);
        t.take_rows();
        for row in rows {
            // Re-bucketing on insert keeps the partition layout right even
            // when an UPDATE rewrites the partition key itself.
            t.push_shared(row);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_engine() -> Engine {
        let mut e = Engine::new(EngineConfig::default());
        e.create_table(
            "Employees",
            &[
                "ttid",
                "E_emp_id",
                "E_name",
                "E_role_id",
                "E_reg_id",
                "E_salary",
                "E_age",
            ],
        );
        e.create_table("Roles", &["ttid", "R_role_id", "R_name"]);
        e.create_table("Regions", &["Re_reg_id", "Re_name"]);
        // Figure 2 of the paper.
        let emp = vec![
            (0, 0, "Patrick", 1, 3, 50_000.0, 30),
            (0, 1, "John", 0, 3, 70_000.0, 28),
            (0, 2, "Alice", 2, 3, 150_000.0, 46),
            (1, 0, "Allan", 1, 2, 80_000.0, 25),
            (1, 1, "Nancy", 2, 4, 200_000.0, 72),
            (1, 2, "Ed", 0, 4, 1_000_000.0, 46),
        ];
        e.insert_values(
            "Employees",
            emp.into_iter()
                .map(|(t, id, n, r, reg, sal, age)| {
                    vec![
                        Value::Int(t),
                        Value::Int(id),
                        Value::str(n),
                        Value::Int(r),
                        Value::Int(reg),
                        Value::Float(sal),
                        Value::Int(age),
                    ]
                })
                .collect(),
        )
        .unwrap();
        let roles = vec![
            (0, 0, "phD stud."),
            (0, 1, "postdoc"),
            (0, 2, "professor"),
            (1, 0, "intern"),
            (1, 1, "researcher"),
            (1, 2, "executive"),
        ];
        e.insert_values(
            "Roles",
            roles
                .into_iter()
                .map(|(t, id, n)| vec![Value::Int(t), Value::Int(id), Value::str(n)])
                .collect(),
        )
        .unwrap();
        let regions = vec![
            (0, "AFRICA"),
            (1, "ASIA"),
            (2, "AUSTRALIA"),
            (3, "EUROPE"),
            (4, "N-AMERICA"),
            (5, "S-AMERICA"),
        ];
        e.insert_values(
            "Regions",
            regions
                .into_iter()
                .map(|(id, n)| vec![Value::Int(id), Value::str(n)])
                .collect(),
        )
        .unwrap();
        e
    }

    #[test]
    fn simple_filter_and_projection() {
        let e = sample_engine();
        let rs = e
            .query("SELECT E_name FROM Employees WHERE E_age > 40 ORDER BY E_name")
            .unwrap();
        assert_eq!(rs.columns, vec!["E_name"]);
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::str("Alice")],
                vec![Value::str("Ed")],
                vec![Value::str("Nancy")]
            ]
        );
    }

    #[test]
    fn join_with_ttid_predicate() {
        let e = sample_engine();
        // Joining on role id *and* ttid gives the semantically correct pairs.
        let rs = e
            .query(
                "SELECT E_name, R_name FROM Employees, Roles \
                 WHERE E_role_id = R_role_id AND Employees.ttid = Roles.ttid \
                 ORDER BY E_name",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 6);
        // Patrick (tenant 0, role 1) must be a postdoc, not a researcher.
        let patrick = rs
            .rows
            .iter()
            .find(|r| r[0] == Value::str("Patrick"))
            .unwrap();
        assert_eq!(patrick[1], Value::str("postdoc"));
    }

    #[test]
    fn join_without_ttid_mixes_tenants() {
        let e = sample_engine();
        // Without the ttid predicate the "nonsense" pairs of the paper appear.
        let rs = e
            .query(
                "SELECT E_name, R_name FROM Employees, Roles \
                 WHERE E_role_id = R_role_id AND E_name = 'Patrick'",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 2); // postdoc (tenant 0) and researcher (tenant 1)
    }

    #[test]
    fn aggregation_with_group_by_and_having() {
        let e = sample_engine();
        let rs = e
            .query(
                "SELECT ttid, COUNT(*) AS cnt, AVG(E_age) AS avg_age FROM Employees \
                 GROUP BY ttid HAVING COUNT(*) > 1 ORDER BY ttid",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Int(0));
        assert_eq!(rs.rows[0][1], Value::Int(3));
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let e = sample_engine();
        let rs = e
            .query("SELECT COUNT(*), MIN(E_age), MAX(E_age) FROM Employees")
            .unwrap();
        assert_eq!(
            rs.rows,
            vec![vec![Value::Int(6), Value::Int(25), Value::Int(72)]]
        );
    }

    #[test]
    fn count_on_empty_input_is_zero() {
        let e = sample_engine();
        let rs = e
            .query("SELECT COUNT(*) FROM Employees WHERE E_age > 1000")
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn subqueries_in_from_and_where() {
        let e = sample_engine();
        let rs = e
            .query(
                "SELECT x.E_name FROM (SELECT E_name, E_salary FROM Employees WHERE E_age >= 45) AS x \
                 WHERE x.E_salary > (SELECT AVG(E_salary) FROM Employees) ORDER BY x.E_name",
            )
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::str("Ed")]]);
    }

    #[test]
    fn correlated_exists() {
        let e = sample_engine();
        // Employees that have a colleague of the same tenant who is older.
        let rs = e
            .query(
                "SELECT E1.E_name FROM Employees E1 WHERE EXISTS (\
                   SELECT 1 FROM Employees E2 WHERE E2.ttid = E1.ttid AND E2.E_age > E1.E_age) \
                 ORDER BY E1.E_name",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 4);
    }

    #[test]
    fn in_subquery_and_distinct() {
        let e = sample_engine();
        let rs = e
            .query(
                "SELECT DISTINCT Re_name FROM Regions WHERE Re_reg_id IN \
                 (SELECT E_reg_id FROM Employees) ORDER BY Re_name",
            )
            .unwrap();
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::str("AUSTRALIA")],
                vec![Value::str("EUROPE")],
                vec![Value::str("N-AMERICA")]
            ]
        );
    }

    #[test]
    fn left_join_produces_nulls() {
        let mut e = sample_engine();
        e.create_table("Bonus", &["B_emp_id", "B_amount"]);
        e.insert_values("Bonus", vec![vec![Value::Int(0), Value::Float(100.0)]])
            .unwrap();
        let rs = e
            .query(
                "SELECT E_name, B_amount FROM Employees LEFT OUTER JOIN Bonus \
                 ON E_emp_id = B_emp_id WHERE ttid = 0 ORDER BY E_name",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
        let john = rs.rows.iter().find(|r| r[0] == Value::str("John")).unwrap();
        assert!(john[1].is_null());
    }

    #[test]
    fn case_expression_and_arithmetic() {
        let e = sample_engine();
        let rs = e
            .query("SELECT SUM(CASE WHEN E_age >= 45 THEN 1 ELSE 0 END) AS seniors FROM Employees")
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn udf_calls_and_caching_stats() {
        let mut e = sample_engine();
        e.register_udf_fn("double_it", true, |args| args[0].mul(&Value::Int(2)));
        let rs = e
            .query("SELECT double_it(E_age) FROM Employees WHERE ttid = 0 ORDER BY E_age")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(56));
        let stats = e.stats();
        assert_eq!(stats.udf_calls + stats.udf_cache_hits, 3);
    }

    #[test]
    fn insert_update_delete_roundtrip() {
        let mut e = sample_engine();
        e.execute("INSERT INTO Regions (Re_reg_id, Re_name) VALUES (6, 'ANTARCTICA')")
            .unwrap();
        assert_eq!(
            e.query("SELECT COUNT(*) FROM Regions").unwrap().rows[0][0],
            Value::Int(7)
        );
        let rs = e
            .execute("UPDATE Regions SET Re_name = 'ICE' WHERE Re_reg_id = 6")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(1));
        let rs = e
            .execute("DELETE FROM Regions WHERE Re_reg_id = 6")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(1));
        assert_eq!(
            e.query("SELECT COUNT(*) FROM Regions").unwrap().rows[0][0],
            Value::Int(6)
        );
    }

    #[test]
    fn insert_from_query() {
        let mut e = sample_engine();
        e.create_table("Names", &["n"]);
        e.execute("INSERT INTO Names (n) (SELECT E_name FROM Employees WHERE ttid = 1)")
            .unwrap();
        assert_eq!(
            e.query("SELECT COUNT(*) FROM Names").unwrap().rows[0][0],
            Value::Int(3)
        );
    }

    #[test]
    fn views_are_expanded() {
        let mut e = sample_engine();
        e.execute("CREATE VIEW seniors AS SELECT E_name, E_age FROM Employees WHERE E_age >= 45")
            .unwrap();
        let rs = e.query("SELECT COUNT(*) FROM seniors").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn date_arithmetic_in_queries() {
        let mut e = Engine::new(EngineConfig::default());
        e.create_table("d", &["when_day"]);
        e.insert_values(
            "d",
            vec![
                vec![Value::date_from_str("1995-03-10").unwrap()],
                vec![Value::date_from_str("1996-06-01").unwrap()],
            ],
        )
        .unwrap();
        let rs = e
            .query("SELECT COUNT(*) FROM d WHERE when_day < DATE '1995-01-01' + INTERVAL '1' YEAR")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(1));
    }

    #[test]
    fn limit_and_order() {
        let e = sample_engine();
        let rs = e
            .query("SELECT E_name FROM Employees ORDER BY E_salary DESC LIMIT 2")
            .unwrap();
        assert_eq!(
            rs.rows,
            vec![vec![Value::str("Ed")], vec![Value::str("Nancy")]]
        );
    }

    #[test]
    fn scalar_subquery_in_select_without_from() {
        let e = sample_engine();
        let rs = e
            .query("SELECT (SELECT MAX(E_age) FROM Employees)")
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(72)]]);
    }

    #[test]
    fn dcl_is_rejected_by_the_engine() {
        let mut e = sample_engine();
        assert!(e.execute("GRANT READ ON Employees TO 42").is_err());
        assert!(e.execute("SET SCOPE = \"IN (1)\"").is_err());
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let e = sample_engine();
        assert!(e.query("SELECT x FROM nope").is_err());
        assert!(e.query("SELECT no_such_col FROM Employees").is_err());
    }

    #[test]
    fn rows_scanned_counter() {
        let e = sample_engine();
        e.reset_stats();
        e.query("SELECT COUNT(*) FROM Employees").unwrap();
        assert_eq!(e.stats().rows_scanned, 6);
    }

    #[test]
    fn partition_pruning_skips_foreign_buckets() {
        let mut e = sample_engine();
        e.set_table_partition("Employees", "ttid").unwrap();
        e.reset_stats();
        let rs = e
            .query("SELECT COUNT(*) FROM Employees WHERE ttid = 0")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3));
        let stats = e.stats();
        // Only tenant 0's bucket is visited; tenant 1's rows are never read.
        assert_eq!(stats.rows_scanned, 3);
        assert_eq!(stats.partitions_scanned, 1);
        assert_eq!(stats.partitions_pruned, 1);
    }

    #[test]
    fn partition_pruning_handles_in_lists() {
        let mut e = sample_engine();
        e.set_table_partition("Employees", "ttid").unwrap();
        e.reset_stats();
        let rs = e
            .query("SELECT COUNT(*) FROM Employees WHERE ttid IN (0, 1, 7)")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(6));
        assert_eq!(e.stats().rows_scanned, 6);
        assert_eq!(e.stats().partitions_pruned, 0);

        e.reset_stats();
        let rs = e
            .query("SELECT COUNT(*) FROM Employees WHERE ttid IN (1) AND E_age < 70")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(2));
        // The scan visits only tenant 1's bucket; the residual age filter is
        // evaluated during the scan rather than after materialization.
        assert_eq!(e.stats().rows_scanned, 3);
        assert_eq!(e.stats().partitions_pruned, 1);
    }

    #[test]
    fn disabled_pruning_scans_everything_but_agrees_on_results() {
        let run = |pruning: bool| {
            let config = EngineConfig {
                partition_pruning: pruning,
                ..EngineConfig::default()
            };
            let mut e = Engine::new(config);
            e.create_table("t", &["ttid", "v"]);
            e.insert_values(
                "t",
                (0..4)
                    .flat_map(|tenant| {
                        (0..5).map(move |v| vec![Value::Int(tenant), Value::Int(v * 10)])
                    })
                    .collect(),
            )
            .unwrap();
            e.set_table_partition("t", "ttid").unwrap();
            e.reset_stats();
            let rs = e
                .query("SELECT SUM(v) FROM t WHERE ttid = 2 AND v >= 10")
                .unwrap();
            (rs, e.stats().rows_scanned, e.stats().partitions_pruned)
        };
        let (rs_on, scanned_on, pruned_on) = run(true);
        let (rs_off, scanned_off, pruned_off) = run(false);
        assert_eq!(rs_on, rs_off);
        assert_eq!(scanned_on, 5);
        assert_eq!(pruned_on, 3);
        assert_eq!(scanned_off, 20);
        assert_eq!(pruned_off, 0);
    }

    #[test]
    fn updates_keep_partitioned_rows_in_the_right_bucket() {
        let mut e = sample_engine();
        e.set_table_partition("Employees", "ttid").unwrap();
        // Move Patrick from tenant 0 to tenant 1 and make sure scans of both
        // buckets see the change.
        e.execute("UPDATE Employees SET ttid = 1 WHERE E_name = 'Patrick'")
            .unwrap();
        let rs = e
            .query("SELECT COUNT(*) FROM Employees WHERE ttid = 0")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(2));
        let rs = e
            .query("SELECT COUNT(*) FROM Employees WHERE ttid = 1")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(4));
        e.execute("DELETE FROM Employees WHERE ttid = 1").unwrap();
        let rs = e.query("SELECT COUNT(*) FROM Employees").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(2));
    }

    /// NULL rows must satisfy neither `BETWEEN` nor `NOT BETWEEN` on every
    /// evaluation path: the column kernel (partition buckets), the compiled
    /// fast predicate (the loose row store of an unpartitioned table) and
    /// the bound evaluator (column-dependent bounds force
    /// `CompiledPred::Generic`), plus the group-evaluation path (HAVING).
    /// SQL three-valued logic — PostgreSQL filters the UNKNOWN row.
    #[test]
    fn not_between_filters_null_rows_on_every_path() {
        for columnar in [true, false] {
            let mut e = Engine::new(EngineConfig::default());
            e.create_table("t", &["ttid", "v"]);
            if columnar {
                e.set_table_partition("t", "ttid").unwrap();
            }
            e.insert_values(
                "t",
                vec![
                    vec![Value::Int(1), Value::Null],
                    vec![Value::Int(1), Value::Int(5)],
                    vec![Value::Int(1), Value::Int(50)],
                    vec![Value::Int(2), Value::Null],
                ],
            )
            .unwrap();

            // Compiled path (kernel on buckets, fast predicate on loose rows).
            let rs = e.query("SELECT v FROM t WHERE v BETWEEN 1 AND 10").unwrap();
            assert_eq!(rs.rows, vec![vec![Value::Int(5)]], "columnar={columnar}");
            let rs = e
                .query("SELECT v FROM t WHERE v NOT BETWEEN 1 AND 10")
                .unwrap();
            assert_eq!(rs.rows, vec![vec![Value::Int(50)]], "columnar={columnar}");

            // Bound-evaluator path: column-dependent bounds cannot compile.
            let rs = e
                .query("SELECT v FROM t WHERE v NOT BETWEEN ttid AND ttid + 9")
                .unwrap();
            assert_eq!(rs.rows, vec![vec![Value::Int(50)]], "columnar={columnar}");

            // Group path: MIN over tenant 2's all-NULL group is NULL, which
            // must not satisfy the HAVING's NOT BETWEEN.
            let rs = e
                .query(
                    "SELECT ttid FROM t GROUP BY ttid \
                     HAVING MIN(v) NOT BETWEEN 1 AND 10 ORDER BY ttid",
                )
                .unwrap();
            assert!(rs.rows.is_empty(), "columnar={columnar}: {rs:?}");
        }
    }

    /// `NOT IN` over a list or sub-query holding a NULL is UNKNOWN for every
    /// row it does not exclude outright (SQL three-valued logic): nothing
    /// qualifies — on the column kernels (partitioned), the compiled row
    /// predicate (loose rows), the bound evaluator (`a + 0` cannot compile)
    /// and the sub-query path alike. `IN` is unaffected: a match decides.
    #[test]
    fn not_in_with_a_null_selects_nothing_on_every_path() {
        for partitioned in [true, false] {
            let mut e = Engine::new(EngineConfig::default());
            e.create_table("t", &["ttid", "a"]);
            if partitioned {
                e.set_table_partition("t", "ttid").unwrap();
            }
            let rows = vec![
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(1), Value::Null],
            ];
            e.insert_values("t", rows).unwrap();
            e.create_table("n", &["b"]);
            e.insert_values("n", vec![vec![Value::Int(1)], vec![Value::Null]])
                .unwrap();
            for sql in [
                "SELECT a FROM t WHERE a NOT IN (1, NULL)",
                "SELECT a FROM t WHERE a + 0 NOT IN (1, NULL)",
                "SELECT a FROM t WHERE a NOT IN (SELECT b FROM n)",
            ] {
                let rs = e.query(sql).unwrap();
                assert!(
                    rs.rows.is_empty(),
                    "partitioned={partitioned} {sql}: {rs:?}"
                );
            }
            for sql in [
                "SELECT a FROM t WHERE a IN (2, NULL)",
                "SELECT a FROM t WHERE a + 0 IN (2, NULL)",
                "SELECT a FROM t WHERE a IN (SELECT b + 1 FROM n)",
            ] {
                let rs = e.query(sql).unwrap();
                assert_eq!(rs.rows, vec![vec![Value::Int(2)]], "{sql}");
            }
        }
    }

    /// LIKE follows SQL three-valued logic on every evaluation path: a NULL
    /// operand (or NULL pattern) makes the outcome UNKNOWN, which satisfies
    /// neither `LIKE` nor `NOT LIKE`; the empty string is a real value (it
    /// matches `''` and `'%'` and satisfies `NOT LIKE 'MAIL%'`). Pinned for
    /// the bound evaluator (dynamic / column-dependent patterns force
    /// `CompiledPred::Generic`), the compiled fast predicate (the loose row
    /// store of an unpartitioned table), the vectorized kernel (plain
    /// buckets), the dictionary bitmap path (dictionary-encoded buckets)
    /// and the group/HAVING context — mirroring the `NOT BETWEEN` fix.
    #[test]
    fn like_three_valued_logic_on_every_path() {
        for (dict, columnar) in [(true, true), (false, true), (false, false)] {
            let config = EngineConfig {
                dictionary_encoding: dict,
                ..EngineConfig::default()
            };
            let mut e = Engine::new(config);
            e.create_table("t", &["ttid", "s"]);
            if columnar {
                e.set_table_partition("t", "ttid").unwrap();
            }
            e.insert_values(
                "t",
                vec![
                    vec![Value::Int(1), Value::Null],
                    vec![Value::Int(1), Value::str("")],
                    vec![Value::Int(1), Value::str("MAIL")],
                    vec![Value::Int(1), Value::str("MAILBOX")],
                    vec![Value::Int(2), Value::Null],
                ],
            )
            .unwrap();
            let label = format!("dict={dict} columnar={columnar}");
            if dict && columnar {
                // The fixture must actually exercise the dictionary path.
                assert_eq!(e.stats().dict_columns, 1, "{label}");
            }

            // Compiled path (dictionary bitmap / Str kernel / fast pred).
            let rs = e.query("SELECT s FROM t WHERE s LIKE 'MAIL%'").unwrap();
            assert_eq!(
                rs.rows,
                vec![vec![Value::str("MAIL")], vec![Value::str("MAILBOX")]],
                "{label}"
            );
            // NULL rows satisfy neither polarity; '' satisfies NOT LIKE.
            let rs = e.query("SELECT s FROM t WHERE s NOT LIKE 'MAIL%'").unwrap();
            assert_eq!(rs.rows, vec![vec![Value::str("")]], "{label}");
            // The empty string matches the empty pattern and the bare '%'.
            let rs = e.query("SELECT s FROM t WHERE s LIKE ''").unwrap();
            assert_eq!(rs.rows, vec![vec![Value::str("")]], "{label}");
            let rs = e.query("SELECT COUNT(*) FROM t WHERE s LIKE '%'").unwrap();
            assert_eq!(rs.rows[0][0], Value::Int(3), "{label}");

            // Bound-evaluator path: a column-dependent pattern cannot compile.
            let rs = e
                .query("SELECT s FROM t WHERE s LIKE s || '%' AND s LIKE 'MAIL%'")
                .unwrap();
            assert_eq!(rs.rows.len(), 2, "{label}");
            // A NULL pattern is UNKNOWN for every row, on both polarities.
            let rs = e.query("SELECT s FROM t WHERE s LIKE NULL").unwrap();
            assert!(rs.rows.is_empty(), "{label}: {rs:?}");
            let rs = e.query("SELECT s FROM t WHERE s NOT LIKE NULL").unwrap();
            assert!(rs.rows.is_empty(), "{label}: {rs:?}");

            // Group path: MIN over tenant 2's all-NULL group is NULL, which
            // must satisfy neither LIKE nor NOT LIKE in HAVING.
            for polarity in ["LIKE", "NOT LIKE"] {
                let rs = e
                    .query(&format!(
                        "SELECT ttid FROM t GROUP BY ttid \
                         HAVING MIN(s) {polarity} 'ZZZ%' ORDER BY ttid"
                    ))
                    .unwrap();
                let expected: Vec<Vec<Value>> = if polarity == "LIKE" {
                    vec![]
                } else {
                    vec![vec![Value::Int(1)]]
                };
                assert_eq!(rs.rows, expected, "{label} HAVING {polarity}");
            }
        }
    }

    /// GROUP BY over dictionary-encoded columns groups on codes (the
    /// engagement is visible through `dict_kernel_rows`) and returns exactly
    /// what the no-dictionary baseline returns — including NULL group keys
    /// and groups spanning several partition buckets (whose dictionaries
    /// assign different codes to the same string).
    #[test]
    fn dictionary_grouping_matches_baseline_and_engages() {
        let run = |dict: bool| {
            let config = if dict {
                EngineConfig::default()
            } else {
                EngineConfig::default().without_dictionary_encoding()
            };
            let mut e = Engine::new(config);
            e.create_table("t", &["ttid", "flag", "v"]);
            e.set_table_partition("t", "ttid").unwrap();
            let flags = ["R", "A", "N"];
            e.insert_values(
                "t",
                (0..300)
                    .map(|i| {
                        let flag = if i % 10 == 9 {
                            Value::Null
                        } else {
                            Value::str(flags[(i % 3) as usize])
                        };
                        vec![Value::Int(i % 4), flag, Value::Int(i)]
                    })
                    .collect(),
            )
            .unwrap();
            e.reset_stats();
            let rs = e
                .query(
                    "SELECT flag, COUNT(*) AS cnt, SUM(v) AS total FROM t \
                     WHERE v >= 10 GROUP BY flag ORDER BY cnt, flag",
                )
                .unwrap();
            (rs, e.stats())
        };
        let (dict_rs, dict_stats) = run(true);
        let (base_rs, base_stats) = run(false);
        assert_eq!(dict_rs, base_rs);
        assert_eq!(dict_stats.rows_scanned, base_stats.rows_scanned);
        assert_eq!(dict_stats.partitions_pruned, base_stats.partitions_pruned);
        assert!(
            dict_stats.dict_kernel_rows > 0,
            "code-space grouping did not engage: {dict_stats:?}"
        );
        assert_eq!(base_stats.dict_kernel_rows, 0);
        assert_eq!(base_stats.dict_columns, 0);
        assert!(dict_stats.dict_columns > 0);
    }

    /// Dictionary predicates on scans engage the code-space kernel and agree
    /// with the baseline, and `EXPLAIN` carries the `dict` marker only on
    /// dictionary-encoded deployments.
    #[test]
    fn dictionary_kernels_engage_on_string_predicates() {
        let run = |dict: bool| {
            let config = if dict {
                EngineConfig::default()
            } else {
                EngineConfig::default().without_dictionary_encoding()
            };
            let mut e = Engine::new(config);
            e.create_table("t", &["ttid", "mode"]);
            e.set_table_partition("t", "ttid").unwrap();
            let modes = ["MAIL", "SHIP", "RAIL", "AIR"];
            e.insert_values(
                "t",
                (0..200)
                    .map(|i| vec![Value::Int(i % 2), Value::str(modes[(i % 4) as usize])])
                    .collect(),
            )
            .unwrap();
            e.reset_stats();
            let rs = e
                .query("SELECT COUNT(*) FROM t WHERE mode IN ('MAIL', 'SHIP') AND ttid = 1")
                .unwrap();
            let explain = e
                .execute("EXPLAIN SELECT COUNT(*) FROM t WHERE mode IN ('MAIL', 'SHIP')")
                .unwrap();
            let text: String = explain
                .rows
                .iter()
                .map(|r| format!("{}\n", r[0].as_str().unwrap()))
                .collect();
            (rs, e.stats(), text)
        };
        let (dict_rs, dict_stats, dict_explain) = run(true);
        let (base_rs, base_stats, base_explain) = run(false);
        assert_eq!(dict_rs, base_rs);
        assert_eq!(dict_rs.rows[0][0], Value::Int(50));
        assert!(dict_stats.dict_kernel_rows > 0, "{dict_stats:?}");
        assert_eq!(base_stats.dict_kernel_rows, 0);
        assert!(dict_explain.contains("dict"), "{dict_explain}");
        assert!(!base_explain.contains("dict"), "{base_explain}");
    }

    /// Q21 shape: a correlated `EXISTS` with a non-equi correlation, which
    /// the decorrelator refuses, re-scans the inner bucket once per outer
    /// row. Every rescan goes through the same kernels-then-materialize
    /// routine, so each charges the same counters: `rows_scanned` grows by
    /// the bucket length and `late_materialized` by the fast predicate's
    /// survivors, however many times the bucket was scanned before.
    #[test]
    fn correlated_rescans_charge_every_scan_alike() {
        for outer_rows in [3i64, 6] {
            let mut e = Engine::new(EngineConfig::default());
            e.create_table("o", &["ttid", "k", "v"]);
            e.set_table_partition("o", "ttid").unwrap();
            e.create_table("i", &["ttid", "k", "v", "flag"]);
            e.set_table_partition("i", "ttid").unwrap();
            e.insert_values(
                "o",
                (0..outer_rows)
                    .map(|k| vec![Value::Int(1), Value::Int(k), Value::Int(k % 2)])
                    .collect(),
            )
            .unwrap();
            // 40 inner rows, every other one flagged 'x'; only the flagged
            // ones survive the fast predicate and get materialized.
            let inner: Vec<Row> = (0..40)
                .map(|n| {
                    let flag = if n % 2 == 0 { "x" } else { "y" };
                    vec![
                        Value::Int(1),
                        Value::Int(n % 8),
                        Value::Int(n % 3),
                        Value::str(flag),
                    ]
                })
                .collect();
            e.insert_values("i", inner.clone()).unwrap();
            e.reset_stats();
            let rs = e
                .query(
                    "SELECT k FROM o WHERE ttid = 1 AND EXISTS (\
                       SELECT 1 FROM i WHERE i.ttid = 1 AND i.flag = 'x' \
                       AND i.k = o.k AND i.v <> o.v) ORDER BY k",
                )
                .unwrap();
            let expected: Vec<Row> = (0..outer_rows)
                .filter(|&k| {
                    inner.iter().any(|r| {
                        r[3] == Value::str("x")
                            && r[1] == Value::Int(k)
                            && r[2] != Value::Int(k % 2)
                    })
                })
                .map(|k| vec![Value::Int(k)])
                .collect();
            assert!(!expected.is_empty() && rs.rows == expected, "{rs:?}");
            let stats = e.stats();
            let rescans = outer_rows as u64;
            assert_eq!(stats.subqueries_unnested, 0, "must stay a sub-plan");
            assert_eq!(stats.rows_scanned, rescans + rescans * 40);
            assert_eq!(stats.late_materialized, rescans + rescans * 20);
        }
    }

    #[test]
    fn contradictory_partition_predicates_scan_nothing() {
        let mut e = sample_engine();
        e.set_table_partition("Employees", "ttid").unwrap();
        e.reset_stats();
        let rs = e
            .query("SELECT COUNT(*) FROM Employees WHERE ttid = 0 AND ttid IN (1)")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(0));
        assert_eq!(e.stats().rows_scanned, 0);
        assert_eq!(e.stats().partitions_pruned, 2);
    }
}
