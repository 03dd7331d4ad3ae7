//! The MTBase server: catalog + engine + conversion functions, shared by all
//! client connections.

use std::sync::{Arc, OnceLock};

use mtcatalog::{Catalog, ConversionFnPair, Privilege, TenantId, TTID_COLUMN};
use mtengine::stats::{StatsSnapshot, StmtCtx};
use mtengine::udf::UdfImpl;
use mtengine::{Engine, EngineConfig, LockManager, MetaOp, ResultSet, Transaction, Value};
use mtrewrite::{InlineRegistry, OptLevel, Rewriter};
use mtsql::ast::{CreateTable, Query, ScopeSpec, Statement, TableGenerality};
use parking_lot::{Mutex, RwLock};

use crate::connection::Connection;
use crate::error::{MtError, Result};
use crate::plan_cache::{CachedPlan, PlanCache, PlanCacheKey, PLAN_CACHE_CAPACITY};

/// Shared MTBase state. Connections borrow it through an [`Arc`].
pub struct MtBase {
    pub(crate) catalog: RwLock<Catalog>,
    pub(crate) engine: RwLock<Engine>,
    pub(crate) inline_registry: RwLock<InlineRegistry>,
    pub(crate) default_level: RwLock<OptLevel>,
    /// Prepared-plan LRU shared by all connections (see [`crate::plan_cache`]).
    pub(crate) plan_cache: Mutex<PlanCache>,
    /// Row/bucket-level writer locks for multi-statement transactions
    /// (see [`mtengine::LockManager`]). Never acquired while the engine
    /// lock is held — lock acquisition can block for seconds waiting on a
    /// conflicting transaction, and everything else would stall behind it.
    pub(crate) locks: LockManager,
    /// Cached outcome of the strict environment-override validation (first
    /// statement of the deployment; durable opens also validate eagerly).
    env_check: OnceLock<std::result::Result<(), String>>,
}

impl MtBase {
    /// Create an MTBase instance on top of a fresh engine.
    pub fn new(engine_config: EngineConfig) -> Arc<Self> {
        Arc::new(MtBase {
            catalog: RwLock::new(Catalog::new()),
            engine: RwLock::new(Engine::new(engine_config)),
            inline_registry: RwLock::new(InlineRegistry::new()),
            default_level: RwLock::new(OptLevel::O4),
            plan_cache: Mutex::new(PlanCache::new(PLAN_CACHE_CAPACITY)),
            locks: LockManager::new(),
            env_check: OnceLock::new(),
        })
    }

    /// Create an MTBase instance wrapping an existing, already-populated
    /// engine and catalog (used by the MT-H loader).
    pub fn from_parts(
        engine: Engine,
        catalog: Catalog,
        inline_registry: InlineRegistry,
    ) -> Arc<Self> {
        Arc::new(MtBase {
            catalog: RwLock::new(catalog),
            engine: RwLock::new(engine),
            inline_registry: RwLock::new(inline_registry),
            default_level: RwLock::new(OptLevel::O4),
            plan_cache: Mutex::new(PlanCache::new(PLAN_CACHE_CAPACITY)),
            locks: LockManager::new(),
            env_check: OnceLock::new(),
        })
    }

    /// Validate the `MT_THREADS` / `MT_VERIFY` / `WAL_FAULT_MODE`
    /// environment overrides once per deployment, surfacing a typo'd value
    /// as a clear error on the first statement instead of a silently
    /// applied default (see [`mtengine::validate_env_overrides`]).
    pub(crate) fn check_env(&self) -> Result<()> {
        let outcome = self
            .env_check
            .get_or_init(|| mtengine::validate_env_overrides().map_err(|e| e.to_string()));
        outcome.clone().map_err(MtError::Other)
    }

    /// Open (or create) a durable MTBase deployment backed by the WAL at
    /// `path`: replay the committed engine state, rebuild the catalog from
    /// the logged DDL/DCL records, and couple the catalog epoch to the
    /// replay horizon (so cached-plan epochs never repeat across a crash).
    /// Conversion functions are **not** recovered — native closures do not
    /// serialize — so re-register them via [`MtBase::register_conversion`]
    /// after open, exactly as on a fresh instance.
    pub fn open_durable(engine_config: EngineConfig, path: &std::path::Path) -> Result<Arc<Self>> {
        // Validate the environment overrides before touching the WAL: a
        // typo'd `WAL_FAULT_MODE` must fail the startup, not silently run
        // the deployment without the requested fault injection.
        mtengine::validate_env_overrides()?;
        let mut engine = Engine::open(engine_config, path)?;
        let mut catalog = Catalog::new();
        for op in engine.take_recovered_meta() {
            match op {
                MetaOp::CreateTableDdl { sql } => match mtsql::parse_statement(&sql) {
                    Ok(Statement::CreateTable(ct)) => catalog.register_create_table(&ct),
                    _ => {
                        return Err(MtError::Durability(format!(
                            "recovered catalog record is not a CREATE TABLE: {sql}"
                        )))
                    }
                },
                MetaOp::RegisterTenant { tenant } => catalog.register_tenant(tenant),
                MetaOp::Grant {
                    owner,
                    grantee,
                    table,
                    privileges,
                } => {
                    catalog.register_tenant(grantee);
                    catalog.privileges_mut().grant(
                        owner,
                        &table,
                        grantee,
                        &decode_privileges(privileges),
                    );
                }
                MetaOp::Revoke {
                    owner,
                    grantee,
                    table,
                    privileges,
                } => {
                    catalog.privileges_mut().revoke(
                        owner,
                        &table,
                        grantee,
                        &decode_privileges(privileges),
                    );
                }
                MetaOp::DropTable { name } => {
                    catalog.drop_table(&name);
                }
            }
        }
        catalog.set_epoch_floor(engine.wal_last_lsn());
        Ok(Self::from_parts(engine, catalog, InlineRegistry::new()))
    }

    /// Open a connection for the given client tenant (the connection string's
    /// ttid in the paper). The scope defaults to `{C}`. Tenant registration
    /// is idempotent; on a durable deployment whose WAL writer has failed,
    /// the registration is skipped here and the failure surfaces on the
    /// connection's first logged statement instead.
    pub fn connect(self: &Arc<Self>, client: TenantId) -> Connection {
        let _ = self.register_tenant(client);
        Connection::new(Arc::clone(self), client)
    }

    /// Set the optimization level used by default for all new statements.
    pub fn set_default_opt_level(&self, level: OptLevel) {
        *self.default_level.write() = level;
    }

    /// The default optimization level.
    pub fn default_opt_level(&self) -> OptLevel {
        *self.default_level.read()
    }

    /// Register a tenant (tenants are also registered implicitly on connect).
    /// On durable deployments the registration is logged *before* it is
    /// applied, so recovery sees exactly the registered tenants.
    pub fn register_tenant(&self, tenant: TenantId) -> Result<()> {
        if self.catalog.read().has_tenant(tenant) {
            return Ok(());
        }
        // Write-ahead: log, then apply. A racing duplicate registration logs
        // twice; catalog replay is idempotent.
        self.engine
            .write()
            .log_meta(MetaOp::RegisterTenant { tenant })?;
        self.catalog.write().register_tenant(tenant);
        Ok(())
    }

    /// Register a conversion-function pair: catalog metadata, the native UDF
    /// implementations, and (optionally) an inline specification for the o4 /
    /// inl-only levels.
    pub fn register_conversion(
        &self,
        pair: ConversionFnPair,
        to_impl: UdfImpl,
        from_impl: UdfImpl,
        inline: Option<(mtrewrite::InlineSpec, mtrewrite::InlineSpec)>,
    ) {
        {
            // Engine guard released before the catalog lock below: the
            // plan-cache front-end acquires catalog → engine, so holding
            // engine while taking catalog would invert the lock order.
            let mut engine = self.engine.write();
            engine.register_udf(&pair.to_universal, pair.immutable, to_impl);
            engine.register_udf(&pair.from_universal, pair.immutable, from_impl);
        }
        if let Some((to_spec, from_spec)) = inline {
            let mut reg = self.inline_registry.write();
            reg.register(&pair.to_universal, to_spec);
            reg.register(&pair.from_universal, from_spec);
        }
        self.catalog.write().register_conversion(pair);
    }

    /// Execute a DDL `CREATE TABLE`: register the logical schema in the
    /// catalog and create the physical shared table (with the invisible ttid
    /// column for tenant-specific tables — the basic layout of Figure 2).
    /// Tenant-specific tables are partitioned by `ttid`, so scans can prune
    /// foreign tenants that the statement's scope excludes.
    pub fn create_table(&self, ct: &CreateTable) -> Result<()> {
        let tenant_specific = ct.generality == TableGenerality::TenantSpecific;
        let mut columns: Vec<String> = Vec::new();
        if tenant_specific {
            columns.push(TTID_COLUMN.to_string());
        }
        columns.extend(ct.columns.iter().map(|c| c.name.clone()));
        {
            // Engine first: the physical table, its partition declaration and
            // the catalog DDL record (logged as SQL text, reparsed on
            // recovery) commit as one WAL transaction. The catalog is only
            // updated after that transaction is durable.
            let mut engine = self.engine.write();
            let meta = engine.is_durable().then(|| MetaOp::CreateTableDdl {
                sql: ct.to_string(),
            });
            engine.create_table_logged(
                &ct.name,
                columns,
                tenant_specific.then_some(TTID_COLUMN),
                meta,
            )?;
        }
        self.catalog.write().register_create_table(ct);
        Ok(())
    }

    /// Run plain SQL directly against the engine, bypassing the middleware
    /// (used for loading data and for the single-tenant TPC-H baseline).
    pub fn raw_execute(&self, sql: &str) -> Result<ResultSet> {
        Ok(self.engine.write().execute(sql)?)
    }

    /// Run a plain SQL query directly against the engine.
    pub fn raw_query(&self, sql: &str) -> Result<ResultSet> {
        Ok(self.engine.read().query(sql)?)
    }

    /// Bulk-load rows into a physical table.
    pub fn load_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<()> {
        Ok(self.engine.write().insert_values(table, rows)?)
    }

    /// Reset the engine statistics and UDF caches.
    pub fn reset_stats(&self) {
        self.engine.read().reset_stats();
    }

    /// Snapshot the engine statistics: the lifetime totals of every
    /// finished statement plus the live gauges.
    pub fn stats(&self) -> StatsSnapshot {
        self.engine.read().stats()
    }

    /// End a statement: add its context to the engine's lifetime totals
    /// (skipping the engine lock when it charged nothing) and return its
    /// counters.
    pub(crate) fn finish_statement(&self, ctx: &StmtCtx) -> StatsSnapshot {
        let stats = ctx.stats();
        if stats != StatsSnapshot::default() {
            self.engine.read().finish_statement(ctx);
        }
        stats
    }

    /// Install a crash-fault injection clock on the engine's WAL writer
    /// (test harness hook — see [`mtengine::FailpointClock`]). No effect on
    /// a non-durable deployment.
    pub fn set_failpoint_clock(&self, clock: std::sync::Arc<mtengine::FailpointClock>) {
        self.engine.write().set_failpoint_clock(clock);
    }

    /// Grant `grantee` read access to every registered tenant's share of all
    /// tenant-specific tables. This is the setup used by the MT-H benchmark,
    /// where the querying client (e.g. a research institution) has been given
    /// access to the entire joint dataset.
    pub fn grant_read_all(&self, grantee: TenantId) -> Result<()> {
        let (owners, tables) = {
            let catalog = self.catalog.read();
            let owners: Vec<TenantId> = catalog.tenants().to_vec();
            let tables: Vec<String> = catalog
                .tables()
                .filter(|t| t.is_tenant_specific())
                .map(|t| t.name.clone())
                .collect();
            (owners, tables)
        };
        // Write-ahead: every grant is logged before any is applied.
        {
            let mut engine = self.engine.write();
            if engine.is_durable() {
                for owner in &owners {
                    for table in &tables {
                        engine.log_meta(MetaOp::Grant {
                            owner: *owner,
                            grantee,
                            table: table.clone(),
                            privileges: encode_privileges(&[Privilege::Read]),
                        })?;
                    }
                }
            }
        }
        let mut catalog = self.catalog.write();
        for owner in owners {
            for table in &tables {
                catalog
                    .privileges_mut()
                    .grant(owner, table, grantee, &[Privilege::Read]);
            }
        }
        Ok(())
    }

    /// Execute a statement issued by `client` outside of any connection (used
    /// by tests); equivalent to `connect(client).execute(sql)`.
    pub fn execute_as(self: &Arc<Self>, client: TenantId, sql: &str) -> Result<ResultSet> {
        let mut conn = self.connect(client);
        conn.execute(sql)
    }

    /// Number of plans currently held by the prepared-plan cache.
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.lock().len()
    }

    /// Drop every cached plan. Correctness never depends on this — stale
    /// plans are invalidated by the epoch key — but benchmarks use it to
    /// measure the uncached front-end cost, and long-lived deployments may
    /// use it to release memory after a large ad-hoc workload.
    pub fn clear_plan_cache(&self) {
        self.plan_cache.lock().clear();
    }

    /// Commit an open transaction: the three-phase group-commit protocol.
    ///
    /// 1. **Append** — under the engine write lock, the staged records plus
    ///    one commit marker go to the WAL tail (fast: no fsync in
    ///    group-commit mode).
    /// 2. **Flush** — *outside* the engine lock, wait until a flush covers
    ///    the commit LSN ([`mtengine::WalHandle::wait_durable`]). This is
    ///    the batching window: concurrent committers park here and one
    ///    leader's `fsync` covers them all.
    /// 3. **Publish** — retake the engine lock and lift the transaction's
    ///    epochs above the committed visibility floor; only now do snapshot
    ///    readers observe the rows. Then release the writer locks.
    ///
    /// Any failure before publish rolls the in-memory application back, so
    /// memory never claims a commit the log does not have: a failed append
    /// logged nothing, and a failed flush poisons the WAL writer — recovery
    /// trusts nothing past the last synced LSN, so the undo keeps memory
    /// and log in agreement.
    pub(crate) fn finish_txn_commit(&self, mut txn: Transaction) -> Result<()> {
        let owner = txn.id();
        let appended: Result<()> = (|| {
            let (lsn, handle) = {
                let mut engine = self.engine.write();
                let lsn = engine.txn_append(&mut txn)?;
                (lsn, engine.wal_handle())
            };
            if let (Some(lsn), Some(handle)) = (lsn, handle) {
                handle.wait_durable(lsn)?;
            }
            Ok(())
        })();
        match appended {
            Ok(()) => {
                self.engine.write().txn_publish(txn);
                self.locks.release_all(owner);
                Ok(())
            }
            Err(e) => {
                self.engine.write().txn_rollback(txn);
                self.locks.release_all(owner);
                Err(e)
            }
        }
    }

    /// Resolve a scope specification into the dataset `D` (complex scopes
    /// are evaluated against the engine, per Listing 12 of the paper).
    pub(crate) fn resolve_dataset(
        &self,
        client: TenantId,
        scope: &ScopeSpec,
        ctx: &StmtCtx,
    ) -> Result<Vec<TenantId>> {
        match scope {
            ScopeSpec::Simple(ids) => Ok(ids.clone()),
            ScopeSpec::AllTenants => Ok(self.catalog.read().tenants().to_vec()),
            ScopeSpec::Complex { from, selection } => {
                let scope_query = {
                    let catalog = self.catalog.read();
                    let rewriter = Rewriter::with_inline_registry(
                        &catalog,
                        self.inline_registry.read().clone(),
                    );
                    rewriter.rewrite_scope(from, selection, client)?
                };
                let engine = self.engine.read();
                let result = engine.execute_query(&scope_query, ctx)?;
                let mut ids: Vec<TenantId> = result
                    .rows
                    .iter()
                    .filter_map(|r| r.first().and_then(Value::as_i64))
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                Ok(ids)
            }
        }
    }

    /// Resolve the scope and prune it by `client`'s read privileges on the
    /// tenant-specific tables the query references (D → D').
    pub(crate) fn effective_dataset_for_query(
        &self,
        client: TenantId,
        scope: &ScopeSpec,
        query: &Query,
        ctx: &StmtCtx,
    ) -> Result<Vec<TenantId>> {
        let dataset = self.resolve_dataset(client, scope, ctx)?;
        let mut tables = Vec::new();
        collect_tables_query(query, &mut tables);
        let catalog = self.catalog.read();
        Ok(catalog.prune_dataset(client, &dataset, &tables))
    }

    /// The complete per-execution front-end shared by one-shot queries,
    /// `EXPLAIN` and prepared statements: resolve the effective dataset D'
    /// for (client, scope) — always re-evaluated, correctness depends on it
    /// — then fetch (or build) the cached plan under the current level and
    /// catalog epoch.
    pub(crate) fn resolve_cached_plan(
        &self,
        client: TenantId,
        scope: &ScopeSpec,
        level: OptLevel,
        sql_key: &str,
        query: &Query,
        ctx: &StmtCtx,
    ) -> Result<(Arc<CachedPlan>, bool)> {
        let dataset = self.effective_dataset_for_query(client, scope, query, ctx)?;
        self.cached_plan(sql_key, client, query, &dataset, level, ctx)
    }

    /// The prepared-plan front-end: look the query up in the plan cache
    /// under `(normalized SQL, C, D', level, catalog epoch)`; on a miss, run
    /// rewrite + planning once and cache the result. Returns the plan and
    /// whether it was a hit; the outcome is charged to the statement's
    /// `prepared_cache_hits` / `prepared_cache_misses`.
    pub(crate) fn cached_plan(
        &self,
        sql_key: &str,
        client: TenantId,
        query: &Query,
        dataset: &[TenantId],
        level: OptLevel,
        ctx: &StmtCtx,
    ) -> Result<(Arc<CachedPlan>, bool)> {
        // The epoch and the rewrite read the catalog under one guard, so the
        // cached plan is consistent with the epoch in its key. The engine
        // lock is never taken while the catalog guard is held (lock order is
        // catalog → release → engine everywhere; inverting it can deadlock
        // against writers that hold the engine lock).
        let (key, rewritten) = {
            let catalog = self.catalog.read();
            let key = PlanCacheKey {
                sql: sql_key.to_string(),
                client,
                dataset: dataset.to_vec(),
                level,
                epoch: catalog.epoch(),
            };
            if let Some(hit) = self.plan_cache.lock().get(&key) {
                ctx.charge(|s| s.prepared_cache_hits += 1);
                return Ok((hit, true));
            }
            let rewriter =
                Rewriter::with_inline_registry(&catalog, self.inline_registry.read().clone());
            let rewritten = rewriter.rewrite_query(query, client, dataset, level)?;
            (key, rewritten)
        };
        let plan = self.engine.read().plan_query_in(&rewritten, ctx)?;
        ctx.charge(|s| s.prepared_cache_misses += 1);
        let cached = Arc::new(CachedPlan {
            rewritten,
            plan: Arc::new(plan),
        });
        self.plan_cache.lock().insert(key, Arc::clone(&cached));
        Ok((cached, false))
    }
}

pub(crate) fn collect_tables_query(query: &mtsql::ast::Query, out: &mut Vec<String>) {
    use mtsql::ast::{Expr, SelectItem, TableRef};

    fn collect_table_ref(t: &TableRef, out: &mut Vec<String>) {
        match t {
            TableRef::Table { name, .. } => {
                if !out.iter().any(|n| n.eq_ignore_ascii_case(name)) {
                    out.push(name.clone());
                }
            }
            TableRef::Derived { query, .. } => collect_tables_query(query, out),
            TableRef::Join { left, right, .. } => {
                collect_table_ref(left, out);
                collect_table_ref(right, out);
            }
        }
    }

    fn collect_expr(e: &Expr, out: &mut Vec<String>) {
        match e {
            Expr::Exists { query, .. } | Expr::InSubquery { query, .. } => {
                collect_tables_query(query, out)
            }
            Expr::ScalarSubquery(q) => collect_tables_query(q, out),
            Expr::BinaryOp { left, right, .. } => {
                collect_expr(left, out);
                collect_expr(right, out);
            }
            Expr::UnaryOp { expr, .. } => collect_expr(expr, out),
            Expr::Function(f) => f.args.iter().for_each(|a| collect_expr(a, out)),
            Expr::InList { expr, list, .. } => {
                collect_expr(expr, out);
                list.iter().for_each(|i| collect_expr(i, out));
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                collect_expr(expr, out);
                collect_expr(low, out);
                collect_expr(high, out);
            }
            _ => {}
        }
    }

    for t in &query.body.from {
        collect_table_ref(t, out);
    }
    if let Some(sel) = &query.body.selection {
        collect_expr(sel, out);
    }
    if let Some(h) = &query.body.having {
        collect_expr(h, out);
    }
    for item in &query.body.projection {
        if let SelectItem::Expr { expr, .. } = item {
            collect_expr(expr, out);
        }
    }
}

/// Register the paper's currency conversion pair backed by a per-tenant
/// exchange-rate table (`Tenant(T_tenant_key, T_currency_to, T_currency_from,
/// T_phone_prefix)`) that must already exist in the engine. Returns the rates
/// closure used by both directions.
pub fn currency_udfs_from_rates(
    rates: Arc<dyn Fn(TenantId) -> (f64, f64) + Send + Sync>,
) -> (UdfImpl, UdfImpl) {
    let to_rates = Arc::clone(&rates);
    let to_impl: UdfImpl = Arc::new(move |args: &[Value]| {
        if args.first().is_some_and(Value::is_null) {
            return Ok(Value::Null);
        }
        let value = args.first().and_then(Value::as_f64).ok_or_else(|| {
            mtengine::EngineError::new("currencyToUniversal: numeric value expected")
        })?;
        let tenant = args
            .get(1)
            .and_then(Value::as_i64)
            .ok_or_else(|| mtengine::EngineError::new("currencyToUniversal: tenant id expected"))?;
        let (to, _) = to_rates(tenant);
        Ok(Value::Float(value * to))
    });
    let from_impl: UdfImpl = Arc::new(move |args: &[Value]| {
        if args.first().is_some_and(Value::is_null) {
            return Ok(Value::Null);
        }
        let value = args.first().and_then(Value::as_f64).ok_or_else(|| {
            mtengine::EngineError::new("currencyFromUniversal: numeric value expected")
        })?;
        let tenant = args.get(1).and_then(Value::as_i64).ok_or_else(|| {
            mtengine::EngineError::new("currencyFromUniversal: tenant id expected")
        })?;
        let (_, from) = rates(tenant);
        Ok(Value::Float(value * from))
    });
    (to_impl, from_impl)
}

/// Build phone-format conversion UDFs from a per-tenant prefix lookup.
pub fn phone_udfs_from_prefixes(
    prefixes: Arc<dyn Fn(TenantId) -> String + Send + Sync>,
) -> (UdfImpl, UdfImpl) {
    let to_prefixes = Arc::clone(&prefixes);
    let to_impl: UdfImpl = Arc::new(move |args: &[Value]| {
        if args.first().is_some_and(Value::is_null) {
            return Ok(Value::Null);
        }
        let value = args
            .first()
            .and_then(Value::as_str)
            .ok_or_else(|| mtengine::EngineError::new("phoneToUniversal: string expected"))?;
        let tenant = args
            .get(1)
            .and_then(Value::as_i64)
            .ok_or_else(|| mtengine::EngineError::new("phoneToUniversal: tenant id expected"))?;
        let prefix = to_prefixes(tenant);
        Ok(Value::str(
            value.strip_prefix(&prefix).unwrap_or(value).to_string(),
        ))
    });
    let from_impl: UdfImpl = Arc::new(move |args: &[Value]| {
        if args.first().is_some_and(Value::is_null) {
            return Ok(Value::Null);
        }
        let value = args
            .first()
            .and_then(Value::as_str)
            .ok_or_else(|| mtengine::EngineError::new("phoneFromUniversal: string expected"))?;
        let tenant = args
            .get(1)
            .and_then(Value::as_i64)
            .ok_or_else(|| mtengine::EngineError::new("phoneFromUniversal: tenant id expected"))?;
        let prefix = from_prefix(&prefixes, tenant);
        Ok(Value::str(format!("{prefix}{value}")))
    });
    (to_impl, from_impl)
}

fn from_prefix(
    prefixes: &Arc<dyn Fn(TenantId) -> String + Send + Sync>,
    tenant: TenantId,
) -> String {
    prefixes(tenant)
}

/// Convenience: the error for statements the middleware cannot execute.
pub(crate) fn unsupported(what: &str) -> MtError {
    MtError::Other(format!("unsupported statement: {what}"))
}

/// Every privilege in its WAL bit position: bit `i` of a logged privilege
/// mask is `PRIVILEGE_BITS[i]` (see [`MetaOp::privilege_bit`]).
pub(crate) const PRIVILEGE_BITS: [Privilege; 6] = [
    Privilege::Read,
    Privilege::Insert,
    Privilege::Update,
    Privilege::Delete,
    Privilege::Grant,
    Privilege::Revoke,
];

/// Encode a privilege list as the WAL bitmask.
pub(crate) fn encode_privileges(privileges: &[Privilege]) -> u8 {
    privileges.iter().fold(0u8, |mask, p| {
        let idx = PRIVILEGE_BITS
            .iter()
            .position(|b| b == p)
            .unwrap_or_default();
        mask | MetaOp::privilege_bit(idx)
    })
}

/// Decode a WAL privilege bitmask back into the privilege list.
pub(crate) fn decode_privileges(mask: u8) -> Vec<Privilege> {
    PRIVILEGE_BITS
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & MetaOp::privilege_bit(*i) != 0)
        .map(|(_, p)| *p)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn referenced_tables_cover_subqueries() {
        let query = mtsql::parse_query(
            "SELECT a FROM t1 WHERE b IN (SELECT b FROM t2) AND EXISTS (SELECT 1 FROM t3 JOIN t4 ON x = y)",
        )
        .unwrap();
        let mut tables = Vec::new();
        collect_tables_query(&query, &mut tables);
        assert_eq!(tables, vec!["t1", "t2", "t3", "t4"]);
    }

    #[test]
    fn currency_udfs_roundtrip() {
        let rates: Arc<dyn Fn(TenantId) -> (f64, f64) + Send + Sync> =
            Arc::new(|t| if t == 1 { (1.25, 0.8) } else { (1.0, 1.0) });
        let (to, from) = currency_udfs_from_rates(rates);
        let universal = to(&[Value::Float(100.0), Value::Int(1)]).unwrap();
        assert_eq!(universal, Value::Float(125.0));
        let back = from(&[universal, Value::Int(1)]).unwrap();
        assert_eq!(back, Value::Float(100.0));
    }

    #[test]
    fn phone_udfs_strip_and_prepend() {
        let prefixes: Arc<dyn Fn(TenantId) -> String + Send + Sync> = Arc::new(|t| {
            if t == 1 {
                "00".to_string()
            } else {
                "+".to_string()
            }
        });
        let (to, from) = phone_udfs_from_prefixes(prefixes);
        let universal = to(&[Value::str("0041123456"), Value::Int(1)]).unwrap();
        assert_eq!(universal, Value::str("41123456"));
        let back = from(&[universal, Value::Int(0)]).unwrap();
        assert_eq!(back, Value::str("+41123456"));
    }
}
