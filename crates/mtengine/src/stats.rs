//! Execution statistics used by tests and the benchmark harness to verify the
//! *analytic* claims of the paper (e.g. "aggregation distribution reduces the
//! number of conversion calls from 2·N to T+1") in addition to wall-clock
//! numbers.
//!
//! Since the tenant-partitioned storage layer landed, the counters also make
//! partition pruning observable: `rows_scanned` counts only the rows a scan
//! actually visited, while `partitions_pruned` counts the foreign-tenant
//! buckets it skipped without touching their rows.

use std::sync::atomic::{AtomicU64, Ordering};

/// Point-in-time snapshot of engine counters.
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
    /// Columns currently dictionary-encoded across all tables (a live gauge
    /// computed at snapshot time, not an accumulating counter: one per
    /// (table, column) pair with at least one dictionary-encoded bucket).
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
    pub txn_commits: u64,
    /// Multi-statement transactions rolled back — explicit `ROLLBACK` plus
    /// commit failures undone via the undo log.
    pub txn_rollbacks: u64,
    /// WAL commit markers appended (one per logged transaction — implicit
    /// single-statement and explicit multi-statement alike). A gauge read
    /// from the WAL writer, *not* cleared by [`crate::Engine::reset_stats`];
    /// window with [`StatsSnapshot::delta_from`].
    pub wal_commits: u64,
    /// fsync (`sync_data`) calls issued by the WAL writer. With concurrent
    /// committers, `wal_fsyncs / wal_commits` drops below one (group
    /// commit); a lone committer issues exactly one per commit. Same gauge
    /// semantics as [`StatsSnapshot::wal_commits`].
    pub wal_fsyncs: u64,
}

impl StatsSnapshot {
    /// Field-wise `self - before`, saturating at zero (a concurrent
    /// `reset_stats` may move counters backwards). Used to attribute the
    /// shared engine counters to one statement execution.
    pub fn delta_from(&self, before: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            rows_scanned: self.rows_scanned.saturating_sub(before.rows_scanned),
            partitions_scanned: self
                .partitions_scanned
                .saturating_sub(before.partitions_scanned),
            partitions_pruned: self
                .partitions_pruned
                .saturating_sub(before.partitions_pruned),
            morsels_dispatched: self
                .morsels_dispatched
                .saturating_sub(before.morsels_dispatched),
            morsel_workers: self.morsel_workers.saturating_sub(before.morsel_workers),
            partial_agg_merges: self
                .partial_agg_merges
                .saturating_sub(before.partial_agg_merges),
            rows_vectorized: self.rows_vectorized.saturating_sub(before.rows_vectorized),
            late_materialized: self
                .late_materialized
                .saturating_sub(before.late_materialized),
            dict_kernel_rows: self
                .dict_kernel_rows
                .saturating_sub(before.dict_kernel_rows),
            subqueries_unnested: self
                .subqueries_unnested
                .saturating_sub(before.subqueries_unnested),
            // A gauge, not a counter: the delta keeps the current value so
            // per-statement snapshots still report the live encoding state.
            dict_columns: self.dict_columns,
            udf_calls: self.udf_calls.saturating_sub(before.udf_calls),
            udf_cache_hits: self.udf_cache_hits.saturating_sub(before.udf_cache_hits),
            prepared_cache_hits: self
                .prepared_cache_hits
                .saturating_sub(before.prepared_cache_hits),
            prepared_cache_misses: self
                .prepared_cache_misses
                .saturating_sub(before.prepared_cache_misses),
            plans_verified: self.plans_verified.saturating_sub(before.plans_verified),
            txn_commits: self.txn_commits.saturating_sub(before.txn_commits),
            txn_rollbacks: self.txn_rollbacks.saturating_sub(before.txn_rollbacks),
            wal_commits: self.wal_commits.saturating_sub(before.wal_commits),
            wal_fsyncs: self.wal_fsyncs.saturating_sub(before.wal_fsyncs),
        }
    }
}

/// Internal atomic counters owned by the engine.
#[derive(Debug, Default)]
pub struct EngineCounters {
    rows_scanned: AtomicU64,
    partitions_scanned: AtomicU64,
    partitions_pruned: AtomicU64,
    morsels_dispatched: AtomicU64,
    morsel_workers: AtomicU64,
    partial_agg_merges: AtomicU64,
    rows_vectorized: AtomicU64,
    late_materialized: AtomicU64,
    dict_kernel_rows: AtomicU64,
    subqueries_unnested: AtomicU64,
    prepared_cache_hits: AtomicU64,
    prepared_cache_misses: AtomicU64,
    plans_verified: AtomicU64,
    txn_commits: AtomicU64,
    txn_rollbacks: AtomicU64,
}

impl EngineCounters {
    /// New zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add to the scanned-row counter.
    pub fn add_rows_scanned(&self, n: u64) {
        self.rows_scanned.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one base-table scan: buckets visited and buckets pruned.
    pub fn add_partitions(&self, scanned: u64, pruned: u64) {
        self.partitions_scanned
            .fetch_add(scanned, Ordering::Relaxed);
        self.partitions_pruned.fetch_add(pruned, Ordering::Relaxed);
    }

    /// Current scanned-row count.
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned.load(Ordering::Relaxed)
    }

    /// Current visited-bucket count.
    pub fn partitions_scanned(&self) -> u64 {
        self.partitions_scanned.load(Ordering::Relaxed)
    }

    /// Current pruned-bucket count.
    pub fn partitions_pruned(&self) -> u64 {
        self.partitions_pruned.load(Ordering::Relaxed)
    }

    /// Record one pooled scan's morsel accounting: morsels dispatched and
    /// workers spawned.
    pub fn add_morsel_scan(&self, morsels: u64, workers: u64) {
        self.morsels_dispatched
            .fetch_add(morsels, Ordering::Relaxed);
        self.morsel_workers.fetch_add(workers, Ordering::Relaxed);
    }

    /// Current dispatched-morsel count.
    pub fn morsels_dispatched(&self) -> u64 {
        self.morsels_dispatched.load(Ordering::Relaxed)
    }

    /// Current accumulated worker count.
    pub fn morsel_workers(&self) -> u64 {
        self.morsel_workers.load(Ordering::Relaxed)
    }

    /// Record partial aggregate states merged into a final aggregate.
    pub fn add_partial_agg_merges(&self, n: u64) {
        self.partial_agg_merges.fetch_add(n, Ordering::Relaxed);
    }

    /// Current partial-aggregate merge count.
    pub fn partial_agg_merges(&self) -> u64 {
        self.partial_agg_merges.load(Ordering::Relaxed)
    }

    /// Record one scan's vectorized-evaluation accounting: rows covered by
    /// column kernels and rows late-materialized after qualifying.
    pub fn add_vectorized(&self, rows: u64, materialized: u64) {
        self.rows_vectorized.fetch_add(rows, Ordering::Relaxed);
        self.late_materialized
            .fetch_add(materialized, Ordering::Relaxed);
    }

    /// Current vectorized-row count.
    pub fn rows_vectorized(&self) -> u64 {
        self.rows_vectorized.load(Ordering::Relaxed)
    }

    /// Current late-materialized row count.
    pub fn late_materialized(&self) -> u64 {
        self.late_materialized.load(Ordering::Relaxed)
    }

    /// Record rows processed through dictionary code space.
    pub fn add_dict_kernel_rows(&self, rows: u64) {
        self.dict_kernel_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// Current dictionary code-space row count.
    pub fn dict_kernel_rows(&self) -> u64 {
        self.dict_kernel_rows.load(Ordering::Relaxed)
    }

    /// Record correlated sub-queries executed as unnested join plans.
    pub fn add_subqueries_unnested(&self, n: u64) {
        self.subqueries_unnested.fetch_add(n, Ordering::Relaxed);
    }

    /// Current unnested sub-query count.
    pub fn subqueries_unnested(&self) -> u64 {
        self.subqueries_unnested.load(Ordering::Relaxed)
    }

    /// Record one prepared-plan cache lookup outcome.
    pub fn add_prepared_cache(&self, hit: bool) {
        if hit {
            self.prepared_cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.prepared_cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current prepared-plan cache hit count.
    pub fn prepared_cache_hits(&self) -> u64 {
        self.prepared_cache_hits.load(Ordering::Relaxed)
    }

    /// Current prepared-plan cache miss count.
    pub fn prepared_cache_misses(&self) -> u64 {
        self.prepared_cache_misses.load(Ordering::Relaxed)
    }

    /// Record plans accepted by the static verifier.
    pub fn add_plans_verified(&self, n: u64) {
        self.plans_verified.fetch_add(n, Ordering::Relaxed);
    }

    /// Current verified-plan count.
    pub fn plans_verified(&self) -> u64 {
        self.plans_verified.load(Ordering::Relaxed)
    }

    /// Record one transaction published.
    pub fn add_txn_commit(&self) {
        self.txn_commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Current published-transaction count.
    pub fn txn_commits(&self) -> u64 {
        self.txn_commits.load(Ordering::Relaxed)
    }

    /// Record one transaction rolled back.
    pub fn add_txn_rollback(&self) {
        self.txn_rollbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Current rolled-back-transaction count.
    pub fn txn_rollbacks(&self) -> u64 {
        self.txn_rollbacks.load(Ordering::Relaxed)
    }

    /// Reset all counters.
    pub fn reset(&self) {
        self.rows_scanned.store(0, Ordering::Relaxed);
        self.partitions_scanned.store(0, Ordering::Relaxed);
        self.partitions_pruned.store(0, Ordering::Relaxed);
        self.morsels_dispatched.store(0, Ordering::Relaxed);
        self.morsel_workers.store(0, Ordering::Relaxed);
        self.partial_agg_merges.store(0, Ordering::Relaxed);
        self.rows_vectorized.store(0, Ordering::Relaxed);
        self.late_materialized.store(0, Ordering::Relaxed);
        self.dict_kernel_rows.store(0, Ordering::Relaxed);
        self.subqueries_unnested.store(0, Ordering::Relaxed);
        self.prepared_cache_hits.store(0, Ordering::Relaxed);
        self.prepared_cache_misses.store(0, Ordering::Relaxed);
        self.plans_verified.store(0, Ordering::Relaxed);
        self.txn_commits.store(0, Ordering::Relaxed);
        self.txn_rollbacks.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let c = EngineCounters::new();
        c.add_rows_scanned(10);
        c.add_rows_scanned(5);
        c.add_partitions(1, 9);
        c.add_partitions(2, 8);
        assert_eq!(c.rows_scanned(), 15);
        assert_eq!(c.partitions_scanned(), 3);
        assert_eq!(c.partitions_pruned(), 17);
        c.reset();
        assert_eq!(c.rows_scanned(), 0);
        assert_eq!(c.partitions_scanned(), 0);
        assert_eq!(c.partitions_pruned(), 0);
    }
}
