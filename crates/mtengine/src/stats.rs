//! Execution statistics used by tests and the benchmark harness to verify the
//! *analytic* claims of the paper (e.g. "aggregation distribution reduces the
//! number of conversion calls from 2·N to T+1") in addition to wall-clock
//! numbers.
//!
//! Since the tenant-partitioned storage layer landed, the counters also make
//! partition pruning observable: `rows_scanned` counts only the rows a scan
//! actually visited, while `partitions_pruned` counts the foreign-tenant
//! buckets it skipped without touching their rows.
//!
//! Every statement counts its own work in a [`StmtCtx`], passed by reference
//! through planning, verification and execution, so its numbers are exact
//! however many statements run beside it. A finished context is added to the
//! engine's lifetime totals once ([`crate::Engine::finish_statement`]);
//! [`crate::Engine::stats`] reads those totals plus the live gauges.

use std::cell::Cell;

/// Counters of one statement ([`StmtCtx::stats`]) or the engine's lifetime
/// totals ([`crate::Engine::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Rows read from base tables (after partition pruning).
    pub rows_scanned: u64,
    /// Partition buckets visited by base-table scans.
    pub partitions_scanned: u64,
    /// Partition buckets skipped entirely thanks to `ttid` scope predicates.
    pub partitions_pruned: u64,
    /// Fixed-size row-range morsels dispatched to the worker pool. Every
    /// pooled scan (and pooled aggregation) splits its selected buckets into
    /// 4096-row morsels; this counts the morsels actually pulled by workers
    /// (non-zero exactly when a scan fanned out to worker threads).
    pub morsels_dispatched: u64,
    /// Worker threads spawned by pooled scans, accumulated per scan (a scan
    /// running 3 workers adds 3). `morsels_dispatched / morsel_workers` is
    /// the average pull depth per worker.
    pub morsel_workers: u64,
    /// Per-morsel `HashAggregate` batches (group ids and evaluated argument
    /// values) that pool workers produced and the coordinator folded into
    /// the aggregate's state, one per morsel. Zero for serial aggregations
    /// and for scans without an aggregation pipeline (plain pooled scans
    /// merge row batches).
    pub partial_agg_merges: u64,
    /// Rows whose scan predicates were evaluated column-at-a-time by the
    /// vectorized kernels (partition buckets; loose rows are row-form).
    pub rows_vectorized: u64,
    /// Rows built into `SharedRow`s from partition buckets: the rows that
    /// qualified a vectorized scan. Rows a selective scan filtered out
    /// column-at-a-time were never built at all — `rows_scanned /
    /// late_materialized` is the materialization reduction.
    pub late_materialized: u64,
    /// Rows processed through dictionary *code space*: per-predicate rows
    /// whose filter ran as a code-comparison kernel (the predicate resolved
    /// against the dictionary once), rows whose group keys resolved through
    /// per-bucket code memoization, and rows late-materialized with at least
    /// one dictionary-decoded column. An engagement counter — one row can
    /// count several times (once per code-space step it took).
    pub dict_kernel_rows: u64,
    /// Correlated sub-queries executed as unnested join plans: one per
    /// semi-/anti-/aggregate-join node executed (counted at execution time,
    /// so prepared-plan cache hits still report engagement). Zero when
    /// [`crate::EngineConfig::decorrelation`] is off or a query's
    /// sub-queries were not rewritable.
    pub subqueries_unnested: u64,
    /// Columns currently dictionary-encoded across all tables: a live gauge
    /// [`crate::Engine::stats`] computes, not an accumulating counter (one
    /// per (table, column) pair with at least one dictionary-encoded
    /// bucket). Zero in a statement's own counters.
    pub dict_columns: u64,
    /// UDF invocations that executed the function body.
    pub udf_calls: u64,
    /// UDF invocations answered from the immutable-result cache.
    pub udf_cache_hits: u64,
    /// Statement executions served from the prepared-plan cache (the parse /
    /// scope-resolution / rewrite / planning front-end was skipped entirely).
    pub prepared_cache_hits: u64,
    /// Statement executions that had to run the full rewrite/plan front-end
    /// (first execution, or a catalog/privilege epoch change invalidated the
    /// cached plan).
    pub prepared_cache_misses: u64,
    /// Plans accepted by the static verifier ([`crate::verify`]) before
    /// execution. Zero when [`crate::EngineConfig::verify_plans`] is off.
    pub plans_verified: u64,
    /// Multi-statement transactions published ([`crate::Engine::txn_publish`]).
    /// A transaction outlives its statements, so this is an engine-lifetime
    /// count only; a statement's own counters leave it zero.
    pub txn_commits: u64,
    /// Multi-statement transactions rolled back — explicit `ROLLBACK` plus
    /// commit failures undone via the undo log. Engine-lifetime only, like
    /// [`StatsSnapshot::txn_commits`].
    pub txn_rollbacks: u64,
    /// WAL commit markers appended (one per logged transaction — implicit
    /// single-statement and explicit multi-statement alike). A gauge
    /// [`crate::Engine::stats`] reads from the WAL writer: *not* cleared by
    /// [`crate::Engine::reset_stats`], and zero in a statement's own
    /// counters.
    pub wal_commits: u64,
    /// fsync (`sync_data`) calls issued by the WAL writer. With concurrent
    /// committers, `wal_fsyncs / wal_commits` drops below one (group
    /// commit); a lone committer issues exactly one per commit. Same gauge
    /// semantics as [`StatsSnapshot::wal_commits`].
    pub wal_fsyncs: u64,
}

impl StatsSnapshot {
    /// Field-wise `f(self.field, other.field)`.
    fn zip(&self, o: &StatsSnapshot, f: impl Fn(u64, u64) -> u64) -> StatsSnapshot {
        StatsSnapshot {
            rows_scanned: f(self.rows_scanned, o.rows_scanned),
            partitions_scanned: f(self.partitions_scanned, o.partitions_scanned),
            partitions_pruned: f(self.partitions_pruned, o.partitions_pruned),
            morsels_dispatched: f(self.morsels_dispatched, o.morsels_dispatched),
            morsel_workers: f(self.morsel_workers, o.morsel_workers),
            partial_agg_merges: f(self.partial_agg_merges, o.partial_agg_merges),
            rows_vectorized: f(self.rows_vectorized, o.rows_vectorized),
            late_materialized: f(self.late_materialized, o.late_materialized),
            dict_kernel_rows: f(self.dict_kernel_rows, o.dict_kernel_rows),
            subqueries_unnested: f(self.subqueries_unnested, o.subqueries_unnested),
            dict_columns: f(self.dict_columns, o.dict_columns),
            udf_calls: f(self.udf_calls, o.udf_calls),
            udf_cache_hits: f(self.udf_cache_hits, o.udf_cache_hits),
            prepared_cache_hits: f(self.prepared_cache_hits, o.prepared_cache_hits),
            prepared_cache_misses: f(self.prepared_cache_misses, o.prepared_cache_misses),
            plans_verified: f(self.plans_verified, o.plans_verified),
            txn_commits: f(self.txn_commits, o.txn_commits),
            txn_rollbacks: f(self.txn_rollbacks, o.txn_rollbacks),
            wal_commits: f(self.wal_commits, o.wal_commits),
            wal_fsyncs: f(self.wal_fsyncs, o.wal_fsyncs),
        }
    }

    /// Field-wise `self - before`, saturating at zero (a concurrent
    /// `reset_stats` may move counters backwards): a window over two reads
    /// of [`crate::Engine::stats`]. The `dict_columns` gauge keeps its
    /// current value. A statement's own numbers are its [`StmtCtx`], never
    /// such a window — other clients' statements land in it too.
    pub fn delta_from(&self, before: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            dict_columns: self.dict_columns,
            ..self.zip(before, u64::saturating_sub)
        }
    }
}

impl std::ops::AddAssign for StatsSnapshot {
    fn add_assign(&mut self, other: StatsSnapshot) {
        *self = self.zip(&other, |a, b| a + b);
    }
}

/// One statement's own counters. The client boundary creates one per
/// statement and passes it by reference through planning (constant folding
/// can call UDFs), verification and execution; every executor charges it.
/// It is not `Sync`: a pool worker charges a context of its own, which the
/// coordinator folds in when the pool joins.
#[derive(Debug, Default)]
pub struct StmtCtx {
    stats: Cell<StatsSnapshot>,
}

impl StmtCtx {
    /// A context with every counter at zero.
    pub fn new() -> Self {
        StmtCtx::default()
    }

    /// The counters charged so far.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.get()
    }

    /// Charge counters: `f` updates them in place.
    pub fn charge(&self, f: impl FnOnce(&mut StatsSnapshot)) {
        let mut stats = self.stats.get();
        f(&mut stats);
        self.stats.set(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contexts_charge_fold_and_window() {
        let ctx = StmtCtx::new();
        ctx.charge(|s| s.rows_scanned += 10);
        ctx.charge(|s| s.rows_scanned += 5);
        let worker = StmtCtx::new();
        worker.charge(|s| {
            s.partitions_scanned += 3;
            s.partitions_pruned += 17;
        });
        ctx.charge(|s| *s += worker.stats());
        let stats = ctx.stats();
        assert_eq!(stats.rows_scanned, 15);
        assert_eq!(stats.partitions_scanned, 3);
        assert_eq!(stats.partitions_pruned, 17);

        let before = StatsSnapshot {
            rows_scanned: 20,
            dict_columns: 9,
            ..StatsSnapshot::default()
        };
        let delta = stats.delta_from(&before);
        assert_eq!(delta.rows_scanned, 0, "saturates at zero");
        assert_eq!(delta.partitions_pruned, 17);
        assert_eq!(delta.dict_columns, 0, "the gauge keeps its current value");
    }
}
