//! Client connections: carry the client tenant `C`, the current `SCOPE`
//! (dataset `D`) and execute MTSQL statements through the rewrite pipeline.

use std::sync::Arc;

use mtcatalog::{Privilege, TenantId, TTID_COLUMN};
use mtengine::stats::{StatsSnapshot, StmtCtx};
use mtengine::{LockTarget, ResultSet, Transaction, Value};
use mtrewrite::{OptLevel, Rewriter};
use mtsql::ast::{
    Comparability, Expr, GrantObject, Grantee, Insert, InsertSource, Query, ScopeSpec, Select,
    SelectItem, Statement, TableRef,
};
use parking_lot::RwLock;

use crate::error::{MtError, Result};
use crate::server::{unsupported, MtBase};

/// Mutable per-connection session state, shared between the connection and
/// the prepared [`crate::prepared::Statement`]s it hands out — so a
/// `SET SCOPE` or opt-level change on the connection is observed by every
/// statement prepared from it (the statement's next execution resolves a
/// different effective dataset and misses the plan cache, i.e. replans).
pub(crate) struct Session {
    pub(crate) scope: ScopeSpec,
    pub(crate) level: Option<OptLevel>,
}

/// A client connection to MTBase.
///
/// The client tenant `C` is fixed at connect time (derived from the
/// connection string in the paper); the dataset `D` is controlled with
/// `SET SCOPE = "..."` and defaults to `{C}`.
///
/// Repeated statements should use the prepared API —
/// [`Connection::prepare`] → [`crate::Statement::bind`] →
/// `execute`/`cursor` — which parses once and serves the scope-resolution /
/// rewrite / planning front-end from the server's plan cache on every
/// re-execution. [`Connection::execute`] and [`Connection::query`] remain as
/// thin one-shot wrappers over the same cached front-end.
pub struct Connection {
    server: Arc<MtBase>,
    client: TenantId,
    session: Arc<RwLock<Session>>,
    /// The counters of the last statement this connection executed.
    last_stats: StatsSnapshot,
    /// The open multi-statement transaction, if a `BEGIN` is pending. The
    /// connection owns it; `COMMIT` runs the server's three-phase group
    /// commit, `ROLLBACK` (or dropping the connection, or a failed DML
    /// statement) undoes it.
    txn: Option<Transaction>,
}

impl Drop for Connection {
    fn drop(&mut self) {
        // A connection abandoned mid-transaction must not leave staged rows
        // or writer locks behind.
        if let Some(txn) = self.txn.take() {
            let owner = txn.id();
            self.server.engine.write().txn_rollback(txn);
            self.server.locks.release_all(owner);
        }
    }
}

impl Connection {
    pub(crate) fn new(server: Arc<MtBase>, client: TenantId) -> Self {
        Connection {
            server,
            client,
            session: Arc::new(RwLock::new(Session {
                scope: ScopeSpec::Simple(vec![client]),
                level: None,
            })),
            last_stats: StatsSnapshot::default(),
            txn: None,
        }
    }

    /// `true` while a `BEGIN` is open on this connection.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// The client tenant of this connection.
    pub fn client(&self) -> TenantId {
        self.client
    }

    /// The current scope specification.
    pub fn scope(&self) -> ScopeSpec {
        self.session.read().scope.clone()
    }

    /// Override the optimization level for this connection (defaults to the
    /// server-wide level). Prepared statements pick the change up on their
    /// next execution.
    pub fn set_opt_level(&mut self, level: OptLevel) {
        self.session.write().level = Some(level);
    }

    fn opt_level(&self) -> OptLevel {
        self.session
            .read()
            .level
            .unwrap_or_else(|| self.server.default_opt_level())
    }

    /// The counters (rows scanned, partitions scanned/pruned, UDF activity,
    /// plan-cache outcome) of the last statement this connection executed:
    /// that statement's own context, exact whatever other connections run
    /// beside it. Engine-lifetime fields (the gauges, transaction outcomes)
    /// are zero here; read them from [`MtBase::stats`].
    pub fn last_query_stats(&self) -> StatsSnapshot {
        self.last_stats
    }

    /// Parse and execute one MTSQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<ResultSet> {
        let stmt = mtsql::parse_statement(sql)?;
        self.execute_statement(&stmt)
    }

    /// Shorthand for executing a query and returning its rows.
    pub fn query(&mut self, sql: &str) -> Result<ResultSet> {
        self.execute(sql)
    }

    /// Prepare an MTSQL query for repeated execution: parse it once, count
    /// its `?` / `$n` parameter placeholders, and return a
    /// [`crate::Statement`] whose `bind` → `execute`/`cursor` lifecycle
    /// serves the scope-resolution / rewrite / planning front-end from the
    /// server's plan cache (see the crate docs for the full lifecycle).
    pub fn prepare(&self, sql: &str) -> Result<crate::Statement> {
        let stmt = mtsql::parse_statement(sql)?;
        let query = match stmt {
            Statement::Select(q) => q,
            _ => {
                return Err(unsupported(
                    "prepare expects a SELECT statement (DDL/DML execute one-shot)",
                ))
            }
        };
        Ok(crate::Statement::new(
            Arc::clone(&self.server),
            self.client,
            Arc::clone(&self.session),
            query,
        ))
    }

    /// Rewrite a query without executing it (useful to inspect what MTBase
    /// sends to the DBMS): resolve the effective dataset (scope ∩ read
    /// privileges on the referenced tables), then apply the MT-to-SQL
    /// rewrite at this connection's optimization level.
    pub fn rewrite_only(&mut self, sql: &str) -> Result<Query> {
        let query = mtsql::parse_query(sql)?;
        let ctx = StmtCtx::new();
        let dataset =
            self.server
                .effective_dataset_for_query(self.client, &self.scope(), &query, &ctx);
        self.server.finish_statement(&ctx);
        let dataset = dataset?;
        let catalog = self.server.catalog.read();
        let rewriter =
            Rewriter::with_inline_registry(&catalog, self.server.inline_registry.read().clone());
        Ok(rewriter.rewrite_query(&query, self.client, &dataset, self.opt_level())?)
    }

    /// Execute a parsed statement under a context of its own, which becomes
    /// this connection's [`Connection::last_query_stats`].
    pub fn execute_statement(&mut self, stmt: &Statement) -> Result<ResultSet> {
        let ctx = StmtCtx::new();
        let result = self.execute_statement_inner(stmt, &ctx);
        self.last_stats = self.server.finish_statement(&ctx);
        result
    }

    fn execute_statement_inner(&mut self, stmt: &Statement, ctx: &StmtCtx) -> Result<ResultSet> {
        self.server.check_env()?;
        match stmt {
            Statement::Begin => return self.begin_txn(),
            Statement::Commit => return self.commit_txn(),
            Statement::Rollback => return self.rollback_txn(),
            _ if self.txn.is_some() => return self.execute_in_txn(stmt, ctx),
            _ => {}
        }
        match stmt {
            Statement::SetScope(spec) => {
                self.session.write().scope = spec.clone();
                Ok(ResultSet::default())
            }
            Statement::Select(query) => self.execute_select(query, ctx),
            Statement::Explain(query) => self.execute_explain(query, ctx),
            Statement::Grant(grant) => {
                let dataset = self.resolve_dataset(ctx)?;
                let grantees: Vec<TenantId> = match grant.grantee {
                    Grantee::Tenant(t) => vec![t],
                    Grantee::All => dataset,
                };
                let tables = self.grant_object_tables(&grant.object);
                // Write-ahead: DCL records reach the WAL before the catalog
                // changes (engine lock released before taking catalog).
                {
                    let mut engine = self.server.engine.write();
                    if engine.is_durable() {
                        let mask = crate::server::encode_privileges(&grant.privileges);
                        for &grantee in &grantees {
                            engine
                                .log_meta(mtengine::MetaOp::RegisterTenant { tenant: grantee })?;
                            for table in &tables {
                                engine.log_meta(mtengine::MetaOp::Grant {
                                    owner: self.client,
                                    grantee,
                                    table: table.clone(),
                                    privileges: mask,
                                })?;
                            }
                        }
                    }
                }
                let mut catalog = self.server.catalog.write();
                for grantee in grantees {
                    catalog.register_tenant(grantee);
                    for table in &tables {
                        catalog.privileges_mut().grant(
                            self.client,
                            table,
                            grantee,
                            &grant.privileges,
                        );
                    }
                }
                Ok(ResultSet::default())
            }
            Statement::Revoke(revoke) => {
                let dataset = self.resolve_dataset(ctx)?;
                let grantees: Vec<TenantId> = match revoke.grantee {
                    Grantee::Tenant(t) => vec![t],
                    Grantee::All => dataset,
                };
                let tables = self.grant_object_tables(&revoke.object);
                {
                    let mut engine = self.server.engine.write();
                    if engine.is_durable() {
                        let mask = crate::server::encode_privileges(&revoke.privileges);
                        for &grantee in &grantees {
                            for table in &tables {
                                engine.log_meta(mtengine::MetaOp::Revoke {
                                    owner: self.client,
                                    grantee,
                                    table: table.clone(),
                                    privileges: mask,
                                })?;
                            }
                        }
                    }
                }
                let mut catalog = self.server.catalog.write();
                for grantee in grantees {
                    for table in &tables {
                        catalog.privileges_mut().revoke(
                            self.client,
                            table,
                            grantee,
                            &revoke.privileges,
                        );
                    }
                }
                Ok(ResultSet::default())
            }
            Statement::CreateTable(ct) => {
                self.server.create_table(ct)?;
                Ok(ResultSet::default())
            }
            Statement::DropTable { name, if_exists } => {
                // Engine first: the physical drop and its catalog record are
                // one WAL transaction. The catalog entry goes second, after
                // the transaction is durable (locks are never held together —
                // the plan-cache front-end acquires catalog → engine).
                let existed = {
                    let mut engine = self.server.engine.write();
                    let meta = engine
                        .is_durable()
                        .then(|| mtengine::MetaOp::DropTable { name: name.clone() });
                    engine.drop_table_logged(name, meta)?
                };
                if !existed && !if_exists {
                    return Err(MtError::Engine(format!("no such table `{name}`")));
                }
                self.server.catalog.write().drop_table(name);
                Ok(ResultSet::default())
            }
            Statement::CreateView(_) | Statement::DropView { .. } => {
                // View definitions live in the engine; bump the epoch
                // explicitly so cached plans that expanded the old view
                // invalidate.
                self.server.catalog.write().bump_epoch();
                let mut engine = self.server.engine.write();
                Ok(engine.execute_statement(stmt)?)
            }
            Statement::CreateFunction(cf) => {
                // The native implementation must already be registered via
                // `MtBase::register_conversion`; accept the DDL so SQL setup
                // scripts stay portable.
                if self.server.engine.read().udfs().contains(&cf.name) {
                    Ok(ResultSet::default())
                } else {
                    Err(unsupported(
                        "CREATE FUNCTION without a registered native implementation",
                    ))
                }
            }
            Statement::Insert(insert) => self.execute_insert(insert, ctx),
            Statement::Update(_) | Statement::Delete(_) => self.execute_update_delete(stmt, ctx),
            // Dispatched before this match; kept for exhaustiveness.
            Statement::Begin | Statement::Commit | Statement::Rollback => Err(MtError::Other(
                "transaction control statements are dispatched before this match".to_string(),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Multi-statement transactions (BEGIN / COMMIT / ROLLBACK)
    // ------------------------------------------------------------------

    fn begin_txn(&mut self) -> Result<ResultSet> {
        if self.txn.is_some() {
            return Err(MtError::Other(
                "a transaction is already open on this connection \
                 (nested BEGIN is not supported)"
                    .to_string(),
            ));
        }
        self.txn = Some(self.server.engine.write().begin_transaction());
        Ok(ResultSet::default())
    }

    fn commit_txn(&mut self) -> Result<ResultSet> {
        let txn = self.txn.take().ok_or_else(|| {
            MtError::Other("COMMIT without an open transaction (BEGIN first)".to_string())
        })?;
        self.server.finish_txn_commit(txn)?;
        Ok(ResultSet::default())
    }

    fn rollback_txn(&mut self) -> Result<ResultSet> {
        let txn = self.txn.take().ok_or_else(|| {
            MtError::Other("ROLLBACK without an open transaction (BEGIN first)".to_string())
        })?;
        let owner = txn.id();
        self.server.engine.write().txn_rollback(txn);
        self.server.locks.release_all(owner);
        Ok(ResultSet::default())
    }

    /// Route one statement executed while a transaction is open. Queries
    /// read at the transaction's snapshot (its own writes plus the
    /// committed floor — never another open transaction's staged rows);
    /// DML joins the transaction — staged for one WAL commit, undone
    /// together on rollback, with a failed DML statement rolling the whole
    /// transaction back (its locks are released, a later COMMIT reports no
    /// open transaction). DDL, DCL and `SET SCOPE` are rejected: they
    /// commit on their own and cannot be staged or rolled back here.
    fn execute_in_txn(&mut self, stmt: &Statement, ctx: &StmtCtx) -> Result<ResultSet> {
        match stmt {
            Statement::Select(query) => self.execute_select(query, ctx),
            Statement::Explain(query) => self.execute_explain(query, ctx),
            Statement::Insert(insert) => self.execute_insert(insert, ctx),
            Statement::Update(_) | Statement::Delete(_) => self.execute_update_delete(stmt, ctx),
            _ => Err(unsupported(
                "DDL, DCL and SET SCOPE inside a transaction \
                 (these statements commit on their own — COMMIT or ROLLBACK first)",
            )),
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// One-shot query execution: a thin wrapper over the prepared front-end
    /// — resolve D', fetch (or build) the cached plan, execute it with no
    /// bound parameters. Re-running the same SQL under an unchanged scope
    /// and catalog epoch therefore skips rewrite and planning entirely.
    /// Inside a transaction the plan runs pinned to it — the committed floor
    /// plus the transaction's own statement epochs — so it observes its own
    /// staged writes but never another open transaction's.
    fn execute_select(&mut self, query: &Query, ctx: &StmtCtx) -> Result<ResultSet> {
        let (cached, _hit) = self.server.resolve_cached_plan(
            self.client,
            &self.scope(),
            self.opt_level(),
            &query.to_string(),
            query,
            ctx,
        )?;
        let engine = self.server.engine.read();
        Ok(engine.execute_plan_in(&cached.plan, &[], self.txn.as_ref(), ctx)?)
    }

    /// `EXPLAIN <query>`: resolve the plan exactly like `execute_select`
    /// would (same scope, same optimization level, same plan cache), then
    /// render it instead of running it. A plan served from the prepared
    /// cache is marked `(cached)` on its first line, making reuse visible.
    fn execute_explain(&mut self, query: &Query, ctx: &StmtCtx) -> Result<ResultSet> {
        let (cached, hit) = self.server.resolve_cached_plan(
            self.client,
            &self.scope(),
            self.opt_level(),
            &query.to_string(),
            query,
            ctx,
        )?;
        let engine = self.server.engine.read();
        let mut rs = engine.explain_plan(&cached.plan);
        if hit {
            if let Some(first) = rs.rows.first_mut().and_then(|r| r.first_mut()) {
                let line = first.as_str().unwrap_or_default();
                *first = Value::str(format!("{line} (cached)"));
            }
        }
        Ok(rs)
    }

    /// Resolve the scope into `D` (evaluating complex scopes on the engine).
    fn resolve_dataset(&self, ctx: &StmtCtx) -> Result<Vec<TenantId>> {
        self.server.resolve_dataset(self.client, &self.scope(), ctx)
    }

    fn grant_object_tables(&self, object: &GrantObject) -> Vec<String> {
        match object {
            GrantObject::Table(t) => vec![t.clone()],
            GrantObject::Database => self
                .server
                .catalog
                .read()
                .tables()
                .filter(|t| t.is_tenant_specific())
                .map(|t| t.name.clone())
                .collect(),
        }
    }

    // ------------------------------------------------------------------
    // DML (§2.5: applied to each tenant in D separately, constants and WHERE
    // interpreted with respect to C)
    // ------------------------------------------------------------------

    fn execute_insert(&mut self, insert: &Insert, ctx: &StmtCtx) -> Result<ResultSet> {
        let dataset = self.resolve_dataset(ctx)?;
        let table_meta = {
            let catalog = self.server.catalog.read();
            catalog
                .table(&insert.table)
                .cloned()
                .ok_or_else(|| MtError::Other(format!("unknown table `{}`", insert.table)))?
        };

        // Determine the source rows, presented in C's format. VALUES lists
        // are column-free expressions: one engine call evaluates them all.
        let source_rows: Vec<Vec<Value>> = match &insert.source {
            InsertSource::Values(rows) => self.server.engine.read().eval_values(rows, ctx)?,
            // Sub-queries of DML are interpreted exactly like queries — at
            // the transaction's snapshot inside one (read-your-writes).
            InsertSource::Query(q) => self.execute_select(q, ctx)?.rows,
        };

        let column_names: Vec<String> = if insert.columns.is_empty() {
            table_meta.columns.iter().map(|c| c.name.clone()).collect()
        } else {
            insert.columns.clone()
        };

        let writable: Vec<TenantId> = dataset
            .iter()
            .copied()
            .filter(|d| {
                self.server.catalog.read().has_privilege(
                    *d,
                    &insert.table,
                    self.client,
                    Privilege::Insert,
                )
            })
            .collect();

        // Build every tenant's full-width rows (and the writer locks they
        // need) up front; nothing is applied until the locks are held. A
        // tenant-specific insert lands in tenant d's partition bucket, so
        // two tenants' inserts take different bucket locks and commit in
        // parallel; a global table's rows are unbucketed (loose).
        let target_columns = {
            let engine = self.server.engine.read();
            let table = engine.database().table(&insert.table)?;
            table.columns.clone()
        };
        let mut full_rows: Vec<Vec<Value>> = Vec::new();
        let mut targets: Vec<LockTarget> = Vec::new();
        for d in writable {
            if table_meta.is_tenant_specific() {
                targets.push(LockTarget::Bucket(d));
            } else if targets.is_empty() {
                targets.push(LockTarget::Loose);
            }
            for row in &source_rows {
                let mut converted = Vec::with_capacity(row.len());
                for (value, column) in row.iter().zip(&column_names) {
                    converted.push(self.convert_to_owner_format(
                        &table_meta.name,
                        column,
                        value.clone(),
                        d,
                        ctx,
                    )?);
                }
                let mut physical_columns = column_names.clone();
                let mut physical_row = converted;
                if table_meta.is_tenant_specific() {
                    physical_columns.insert(0, TTID_COLUMN.to_string());
                    physical_row.insert(0, Value::Int(d));
                }
                // Build a full-width row in storage order.
                let mut full = vec![Value::Null; target_columns.len()];
                for (col, val) in physical_columns.iter().zip(physical_row) {
                    let idx = target_columns
                        .iter()
                        .position(|c| c.eq_ignore_ascii_case(col))
                        .ok_or_else(|| {
                            MtError::Other(format!("no column `{col}` in `{}`", insert.table))
                        })?;
                    full[idx] = val;
                }
                full_rows.push(full);
            }
        }
        let inserted = full_rows.len() as i64;
        if !full_rows.is_empty() {
            self.run_dml_in_txn(&insert.table, &targets, |engine, txn| {
                engine.txn_insert_rows(txn, &insert.table, full_rows)?;
                Ok(0)
            })?;
        }
        Ok(ResultSet {
            columns: vec!["rows_inserted".to_string()],
            rows: vec![vec![Value::Int(inserted)]],
        })
    }

    /// Run one DML statement's engine work under this connection's open
    /// transaction — or, when none is open, under an *implicit* transaction
    /// committed on the spot through the server's three-phase group commit
    /// (so a multi-row, multi-tenant statement costs at most one fsync, and
    /// concurrent statements share even that).
    ///
    /// The writer locks are acquired *before* the engine lock is taken —
    /// acquisition can block for seconds behind a conflicting transaction —
    /// and are held until the transaction resolves. Any error rolls the
    /// whole transaction back (the undo log restores every earlier
    /// statement) and releases its locks.
    fn run_dml_in_txn(
        &mut self,
        table: &str,
        targets: &[LockTarget],
        work: impl FnOnce(&mut mtengine::Engine, &mut Transaction) -> Result<i64>,
    ) -> Result<i64> {
        let (mut txn, implicit) = match self.txn.take() {
            Some(txn) => (txn, false),
            None => (self.server.engine.write().begin_transaction(), true),
        };
        let owner = txn.id();
        let applied = (|| {
            self.server.locks.acquire(owner, table, targets)?;
            work(&mut self.server.engine.write(), &mut txn)
        })();
        match applied {
            Ok(affected) => {
                if implicit {
                    self.server.finish_txn_commit(txn)?;
                } else {
                    self.txn = Some(txn);
                }
                Ok(affected)
            }
            Err(e) => {
                self.server.engine.write().txn_rollback(txn);
                self.server.locks.release_all(owner);
                Err(e)
            }
        }
    }

    fn execute_update_delete(&mut self, stmt: &Statement, ctx: &StmtCtx) -> Result<ResultSet> {
        let (table, selection, assignments) = match stmt {
            Statement::Update(u) => (
                u.table.clone(),
                u.selection.clone(),
                Some(u.assignments.clone()),
            ),
            Statement::Delete(d) => (d.table.clone(), d.selection.clone(), None),
            _ => {
                return Err(MtError::Other(
                    "execute_update_delete expects UPDATE or DELETE".to_string(),
                ))
            }
        };
        let is_update = assignments.is_some();
        let dataset = self.resolve_dataset(ctx)?;
        let needed = if is_update {
            Privilege::Update
        } else {
            Privilege::Delete
        };
        let table_meta = {
            let catalog = self.server.catalog.read();
            catalog
                .table(&table)
                .cloned()
                .ok_or_else(|| MtError::Other(format!("unknown table `{table}`")))?
        };

        // Build the per-tenant engine statements first; nothing is applied
        // until the whole-table lock below is held.
        let mut per_tenant: Vec<Statement> = Vec::new();
        for d in dataset {
            if !self
                .server
                .catalog
                .read()
                .has_privilege(d, &table, self.client, needed)
            {
                continue;
            }
            // Rewrite the WHERE clause with respect to C and dataset {d} by
            // piggy-backing on the query rewriter, then restrict to tenant d.
            let rewritten_selection = {
                let probe = Query::from_select(Select {
                    projection: vec![SelectItem::Wildcard],
                    from: vec![TableRef::table(&table)],
                    selection: selection.clone(),
                    ..Select::default()
                });
                let catalog = self.server.catalog.read();
                let rewriter = Rewriter::new(&catalog);
                rewriter
                    .rewrite_query(&probe, self.client, &[d], OptLevel::Canonical)?
                    .body
                    .selection
            };
            per_tenant.push(match &assignments {
                Some(assigns) => {
                    // Convert assignment values into tenant d's format by
                    // wrapping convertible targets in conversion calls; the
                    // engine evaluates them per row.
                    let assignments = assigns
                        .iter()
                        .map(|(col, value_expr)| {
                            let wrapped = self.wrap_assignment_for_owner(
                                &table_meta.name,
                                col,
                                value_expr.clone(),
                                d,
                            );
                            (col.clone(), wrapped)
                        })
                        .collect();
                    Statement::Update(mtsql::ast::Update {
                        table: table.clone(),
                        assignments,
                        selection: rewritten_selection,
                    })
                }
                None => Statement::Delete(mtsql::ast::Delete {
                    table: table.clone(),
                    selection: rewritten_selection,
                }),
            });
        }

        // UPDATE / DELETE rewrite the whole row set, so they take the
        // whole-table lock; every tenant's statement joins one transaction
        // (implicit when no BEGIN is open), so the multi-tenant statement
        // commits with at most one fsync.
        let affected = if per_tenant.is_empty() {
            0
        } else {
            self.run_dml_in_txn(&table, &[LockTarget::Whole], |engine, txn| {
                let mut affected = 0i64;
                for stmt in &per_tenant {
                    let rs = engine.txn_execute_statement(txn, stmt, ctx)?;
                    affected += rs.scalar().and_then(Value::as_i64).unwrap_or(0);
                }
                Ok(affected)
            })?
        };
        Ok(ResultSet {
            columns: vec![if is_update {
                "rows_updated"
            } else {
                "rows_deleted"
            }
            .to_string()],
            rows: vec![vec![Value::Int(affected)]],
        })
    }

    /// Wrap an UPDATE assignment expression (given in C's format) so that the
    /// stored value ends up in tenant `owner`'s format.
    fn wrap_assignment_for_owner(
        &self,
        table: &str,
        column: &str,
        value_expr: Expr,
        owner: TenantId,
    ) -> Expr {
        if owner == self.client {
            return value_expr;
        }
        let catalog = self.server.catalog.read();
        match catalog.comparability(table, column) {
            Some(Comparability::Convertible {
                to_universal,
                from_universal,
            }) => Expr::call(
                from_universal,
                vec![
                    Expr::call(to_universal, vec![value_expr, Expr::int(self.client)]),
                    Expr::int(owner),
                ],
            ),
            _ => value_expr,
        }
    }

    /// Convert a value given in C's format into tenant `owner`'s format, if
    /// the target column is convertible (§2.5), charging the conversion
    /// calls to `ctx`.
    fn convert_to_owner_format(
        &self,
        table: &str,
        column: &str,
        value: Value,
        owner: TenantId,
        ctx: &StmtCtx,
    ) -> Result<Value> {
        if owner == self.client || value.is_null() {
            return Ok(value);
        }
        let conv = {
            let catalog = self.server.catalog.read();
            match catalog.comparability(table, column) {
                Some(Comparability::Convertible {
                    to_universal,
                    from_universal,
                }) => Some((to_universal.clone(), from_universal.clone())),
                _ => None,
            }
        };
        match conv {
            None => Ok(value),
            Some((to, from)) => {
                let engine = self.server.engine.read();
                let udfs = engine.udfs();
                let universal = udfs.call_by_name(&to, &[value, Value::Int(self.client)], ctx)?;
                Ok(udfs.call_by_name(&from, &[universal, Value::Int(owner)], ctx)?)
            }
        }
    }
}
