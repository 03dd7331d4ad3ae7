//! Prepared statements and streaming cursors — the session API v2.
//!
//! The lifecycle mirrors mature engine clients (prepare / bind / execute /
//! fetch):
//!
//! ```text
//! let mut stmt = conn.prepare("SELECT ... WHERE l_quantity < $1")?;   // parse once
//! stmt.bind(&[Value::Int(24)])?;                                     // per execution
//! let rs = stmt.execute()?;            // full result, or:
//! let mut cur = stmt.cursor()?;        // stream batch-at-a-time
//! while let Some(batch) = cur.next_batch()? { ... }
//! ```
//!
//! [`Statement::execute`] resolves the current effective dataset `D'`
//! (scope ∩ privileges — cheap, and required for correctness) and then asks
//! the server's plan cache for the `(normalized SQL, C, D', level, epoch)`
//! entry. On a hit the entire rewrite + planning front-end is skipped; the
//! statement was parsed at prepare time, so re-execution performs **zero
//! parse/rewrite/plan work**. DDL, GRANT/REVOKE and other catalog changes
//! bump the epoch and invalidate cached plans wholesale; `SET SCOPE` and
//! opt-level changes alter the key directly. Parameters never participate in
//! the key: binding different values re-executes the same plan, with
//! partition pruning for `ttid = $n` predicates re-resolved at bind time by
//! the executor.

use std::sync::Arc;

use mtcatalog::TenantId;
use mtengine::cursor::{plan_streams, CursorState, DEFAULT_BATCH_ROWS};
use mtengine::plan::Plan;
use mtengine::stats::{StatsSnapshot, StmtCtx};
use mtengine::table::Row;
use mtengine::{ResultSet, Value};
use mtsql::ast::Query;
use mtsql::visit::param_count_query;
use parking_lot::RwLock;

use crate::connection::Session;
use crate::error::{MtError, Result};
use crate::plan_cache::CachedPlan;
use crate::server::MtBase;

/// A prepared MTSQL query: parsed once, re-planned only when the catalog
/// epoch, scope, opt level or client change — otherwise every execution is a
/// plan-cache hit followed by plain plan execution.
///
/// Created by [`crate::Connection::prepare`]. The statement shares the
/// originating connection's session state, so `SET SCOPE` / opt-level
/// changes on the connection take effect on the statement's next execution
/// (by re-keying the plan-cache lookup — never by serving a stale plan).
pub struct Statement {
    server: Arc<MtBase>,
    client: TenantId,
    session: Arc<RwLock<Session>>,
    /// Normalized SQL (canonical print of the parsed query): the cache-key
    /// text, computed once at prepare time.
    sql: String,
    query: Query,
    param_count: usize,
    params: Vec<Value>,
    last_stats: StatsSnapshot,
}

impl Statement {
    pub(crate) fn new(
        server: Arc<MtBase>,
        client: TenantId,
        session: Arc<RwLock<Session>>,
        query: Query,
    ) -> Self {
        Statement {
            server,
            client,
            session,
            sql: query.to_string(),
            param_count: param_count_query(&query),
            query,
            params: Vec::new(),
            last_stats: StatsSnapshot::default(),
        }
    }

    /// Number of parameter placeholders (`?` / `$n`) the query uses.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// The normalized SQL text this statement was prepared from.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// Bind parameter values positionally (`$1` ⇒ `params[0]`). The value
    /// count must match [`Statement::param_count`]. Binding substitutes
    /// values into the *executor* — the cached plan is untouched, so no
    /// replanning happens; partition-pruning keys that depend on a parameter
    /// re-resolve from the bound values at execution time.
    pub fn bind(&mut self, params: &[Value]) -> Result<&mut Self> {
        if params.len() != self.param_count {
            return Err(MtError::Other(format!(
                "statement expects {} parameter(s), {} bound",
                self.param_count,
                params.len()
            )));
        }
        self.params = params.to_vec();
        Ok(self)
    }

    /// Execute with the currently bound parameters, materializing the full
    /// result set. Equivalent to draining [`Statement::cursor`].
    pub fn execute(&mut self) -> Result<ResultSet> {
        self.check_bound()?;
        let ctx = StmtCtx::new();
        let result = self.resolve(&ctx).and_then(|cached| {
            let engine = self.server.engine.read();
            Ok(engine.execute_plan_in(&cached.plan, &self.params, None, &ctx)?)
        });
        self.last_stats = self.server.finish_statement(&ctx);
        result
    }

    /// Bind and execute in one call.
    pub fn execute_with(&mut self, params: &[Value]) -> Result<ResultSet> {
        self.bind(params)?.execute()
    }

    /// Open a cursor over the statement's result with the default batch
    /// size. Pipeline-able plans (scan–filter–project chains) stream rows
    /// batch-at-a-time and never materialize the full result; blocking plans
    /// (sorts, aggregates, joins) materialize internally on the first fetch
    /// and expose the same pull interface.
    pub fn cursor(&mut self) -> Result<Cursor> {
        self.cursor_with_batch(DEFAULT_BATCH_ROWS)
    }

    /// Open a cursor fetching at most `batch_rows` rows per
    /// [`Cursor::next_batch`] call.
    pub fn cursor_with_batch(&mut self, batch_rows: usize) -> Result<Cursor> {
        self.check_bound()?;
        let ctx = StmtCtx::new();
        let cursor = self.resolve(&ctx).and_then(|cached| {
            Cursor::new(
                Arc::clone(&self.server),
                Arc::clone(&cached.plan),
                self.params.clone(),
                batch_rows,
                &ctx,
            )
        });
        self.server.finish_statement(&ctx);
        cursor
    }

    /// The plain-SQL rewrite this statement currently executes (resolved
    /// through the same cache as `execute`; useful to inspect what MTBase
    /// would send to a DBMS).
    pub fn rewritten(&mut self) -> Result<Query> {
        let ctx = StmtCtx::new();
        let cached = self.resolve(&ctx);
        self.server.finish_statement(&ctx);
        Ok(cached?.rewritten.clone())
    }

    /// The counters of the last `execute` — that execution's own context
    /// (see [`crate::Connection::last_query_stats`]); `prepared_cache_hits`
    /// / `prepared_cache_misses` record whether it reused a plan.
    pub fn last_query_stats(&self) -> StatsSnapshot {
        self.last_stats
    }

    fn check_bound(&self) -> Result<()> {
        if self.params.len() != self.param_count {
            return Err(MtError::Other(format!(
                "statement has {} unbound parameter(s); call bind() first",
                self.param_count
            )));
        }
        Ok(())
    }

    /// Resolve the current plan through the shared front-end: effective
    /// dataset first (scope ∩ privileges, always re-evaluated —
    /// correctness), then the plan-cache lookup (rewrite + planning,
    /// amortized), charging `ctx`.
    fn resolve(&self, ctx: &StmtCtx) -> Result<Arc<CachedPlan>> {
        let (scope, level) = {
            let session = self.session.read();
            (session.scope.clone(), session.level)
        };
        let level = level.unwrap_or_else(|| self.server.default_opt_level());
        let (cached, _hit) = self.server.resolve_cached_plan(
            self.client,
            &scope,
            level,
            &self.sql,
            &self.query,
            ctx,
        )?;
        Ok(cached)
    }
}

/// A pull-based result cursor (see [`Statement::cursor`]).
///
/// The cursor owns no engine borrow: each [`Cursor::next_batch`] acquires
/// the engine's shared lock, advances the underlying
/// [`mtengine::cursor::CursorState`] by one batch and releases the lock —
/// so long-lived cursors do not starve writers.
///
/// The cursor is pinned to the engine's mutation epoch at open
/// ([`mtengine::Engine::pin_cursor`]): rows committed by concurrent DML
/// after the open are never observed, and blocking plans materialize their
/// snapshot at open. A destructive rewrite (UPDATE/DELETE) of a table the
/// cursor is streaming invalidates it — the next fetch fails with
/// [`MtError::Snapshot`](crate::MtError).
pub struct Cursor {
    server: Arc<MtBase>,
    plan: Arc<Plan>,
    params: Vec<Value>,
    state: CursorState,
    columns: Vec<String>,
    batch_rows: usize,
    /// Buffered rows for the row-at-a-time interface.
    pending: std::vec::IntoIter<Row>,
    done: bool,
    peak_resident: usize,
    rows_fetched: u64,
}

impl Cursor {
    fn new(
        server: Arc<MtBase>,
        plan: Arc<Plan>,
        params: Vec<Value>,
        batch_rows: usize,
        ctx: &StmtCtx,
    ) -> Result<Self> {
        let columns = plan.schema().names();
        let mut state = CursorState::new();
        {
            // Pin under the open-time shared borrow: everything committed up
            // to here is visible, nothing after. Blocking plans materialize
            // inside this borrow, so they cannot interleave with writers.
            let engine = server.engine.read();
            engine.pin_cursor(&plan, &params, &mut state, ctx)?;
        }
        Ok(Cursor {
            server,
            plan,
            params,
            state,
            columns,
            batch_rows: batch_rows.max(1),
            pending: Vec::new().into_iter(),
            done: false,
            peak_resident: 0,
            rows_fetched: 0,
        })
    }

    /// Output column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Fetch the next batch of rows; `None` when the cursor is exhausted.
    /// Each fetch is a statement of its own for the engine's totals.
    pub fn next_batch(&mut self) -> Result<Option<Vec<Row>>> {
        if self.done {
            return Ok(None);
        }
        let ctx = StmtCtx::new();
        let batch = {
            let engine = self.server.engine.read();
            let (plan, params) = (&self.plan, &self.params);
            let batch =
                engine.fetch_cursor_batch(plan, params, &mut self.state, self.batch_rows, &ctx);
            engine.finish_statement(&ctx);
            batch?
        };
        self.done = batch.done;
        // Rows resident because of this cursor right now: the batch being
        // handed out plus whatever the state still buffers (zero when
        // streaming — that is the whole point).
        self.peak_resident = self
            .peak_resident
            .max(batch.rows.len() + self.state.buffered_rows());
        self.rows_fetched += batch.rows.len() as u64;
        if batch.rows.is_empty() && self.done {
            return Ok(None);
        }
        Ok(Some(batch.rows))
    }

    /// Fetch the next single row (refilling from batches internally);
    /// `None` when the cursor is exhausted.
    pub fn next_row(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(row) = self.pending.next() {
                return Ok(Some(row));
            }
            match self.next_batch()? {
                Some(rows) => self.pending = rows.into_iter(),
                None => return Ok(None),
            }
        }
    }

    /// Whether this cursor streams (never holds the full result). The plan
    /// shape fully determines the mode, so this is known before the first
    /// fetch; blocking plans (sorts, aggregates, joins) report `false`.
    pub fn is_streaming(&self) -> bool {
        self.state
            .is_streaming()
            .unwrap_or_else(|| plan_streams(&self.plan))
    }

    /// The maximum number of rows this cursor has held resident at once
    /// (batch in flight + internal buffer). For streaming cursors this is
    /// bounded by the batch size regardless of the result size.
    pub fn peak_resident_rows(&self) -> usize {
        self.peak_resident
    }

    /// Total rows handed out so far.
    pub fn rows_fetched(&self) -> u64 {
        self.rows_fetched
    }
}
