//! Streaming cursors: pull rows out of a physical plan batch-at-a-time
//! instead of materializing the whole result set.
//!
//! A cursor drains a [`Plan`] in one of two modes, decided on the first
//! fetch:
//!
//! * **Streaming** — for *pipeline-able* plans (an optional [`Plan::Limit`]
//!   over an optional non-DISTINCT [`Plan::Project`] over a chain of
//!   sub-query-free [`Plan::Filter`]s over one [`Plan::SeqScan`]), the
//!   cursor walks the scan's selected partition buckets directly, evaluating
//!   the pushed predicates per row and projecting qualifying rows into the
//!   output batch. Only one batch of rows is resident at any time; buckets
//!   materialize rows solely for predicate survivors (fast predicates read
//!   just their own column first). Peak memory is `O(batch)` instead of
//!   `O(result)`.
//! * **Materialized** — every other plan shape (sorts, aggregations, joins,
//!   DISTINCT, sub-queries) executes once through the regular executor on
//!   the first fetch and the cursor then drains the buffered rows in
//!   batches, exposing the same pull interface.
//!
//! The cursor state ([`CursorState`]) holds plain positions and owned rows —
//! no borrows of the engine — so a client can hold a cursor across lock
//! acquisitions and fetch each batch under a fresh shared borrow (this is
//! what `mtbase`'s `Cursor` does).
//!
//! # Snapshot isolation
//!
//! By default a streaming cursor reads the *live* table state on every
//! fetch. [`Engine::pin_cursor`] upgrades it to snapshot reads: the cursor
//! records the engine's mutation epoch at open, streaming fetches bound
//! every bucket (and the loose-row tail) by the row count that was visible
//! at that epoch (see the watermarks in [`crate::table`]), and blocking
//! plans materialize eagerly under the open-time lock. A pinned cursor
//! therefore never yields a row committed after it was opened. Destructive
//! rewrites (UPDATE/DELETE/re-layout) shuffle surviving rows across
//! buckets, so they *invalidate* older pinned cursors instead of serving
//! them wrong rows — the fetch fails with
//! [`EngineErrorKind::SnapshotInvalidated`].

use mtsql::ast::SelectItem;
use mtsql::visit::contains_subquery;

use crate::bound::{BoundExpr, Frame};
use crate::conjuncts::{dict_filter_bitmap, fast_pred_value, CompiledPred};
use crate::error::{EngineError, EngineErrorKind, Result};
use crate::exec::{project_stored, Executor};
use crate::plan::{Plan, Project, SeqScan};
use crate::stats::StmtCtx;
use crate::table::{BucketView, ColumnBucket, ColumnVec, Row, SharedRow, Snapshot};
use crate::{Engine, Value};

/// Default number of rows per cursor batch.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// One fetched batch: the rows plus whether the cursor is exhausted.
#[derive(Debug, Default)]
pub struct CursorBatch {
    /// The rows of this batch (at most the requested batch size).
    pub rows: Vec<Row>,
    /// `true` when no further rows will be produced.
    pub done: bool,
}

/// Resumable position of an open cursor. Create with [`CursorState::new`],
/// then pass to [`Engine::fetch_cursor_batch`] until it reports `done`.
#[derive(Debug, Default)]
pub struct CursorState {
    mode: Option<Mode>,
    /// The mutation epoch this cursor is pinned to ([`Engine::pin_cursor`]);
    /// `None` reads live state.
    snapshot: Option<u64>,
}

#[derive(Debug)]
enum Mode {
    Streaming(StreamPos),
    Materialized { rows: Vec<SharedRow>, next: usize },
}

/// Scan position of a streaming cursor.
#[derive(Debug, Default)]
struct StreamPos {
    /// Index into the ordered list of selected partition buckets.
    bucket: usize,
    /// Next row id within that bucket.
    row: usize,
    /// Next loose-row index (after all buckets are exhausted).
    loose: usize,
    /// Rows emitted so far (LIMIT accounting across batches).
    emitted: u64,
    /// Bucket pruning counters are recorded once, on the first batch.
    counted_partitions: bool,
    done: bool,
    /// Compiled once on the first batch (see [`StreamFilters`]).
    compiled: Option<StreamFilters>,
    /// Dictionary state of the bucket currently being scanned (resolved on
    /// bucket entry, reset per fetch).
    dict_bitmaps: Option<BucketDict>,
}

/// Per-bucket dictionary state of a streaming cursor: the predicate bitmaps
/// (the predicate resolved against the bucket's dictionary once; rows
/// compare codes) and whether materializing a row decodes any dictionary —
/// both hoisted out of the per-row loop.
#[derive(Debug)]
struct BucketDict {
    /// Index into the selected-bucket list this state belongs to.
    bucket: usize,
    /// Per bucket-filter predicate: the match bitmap when that predicate's
    /// column is dictionary-encoded in this bucket.
    bitmaps: Vec<Option<Vec<bool>>>,
    /// Does materializing a row decode a dictionary (is a projected column
    /// dictionary-encoded in this bucket)?
    has_dict: bool,
}

/// Per-cursor invariants compiled on the first fetch: the effective pruning
/// key set and the compiled predicate filters depend only on `(plan,
/// params)`, which are fixed for the cursor's lifetime — recompiling them
/// per batch would turn small batch sizes into a per-row CPU regression.
/// Only the selected-bucket *list* is re-derived on every fetch, because a
/// streaming cursor reads live table state.
#[derive(Debug)]
struct StreamFilters {
    prune_keys: Option<std::collections::BTreeSet<i64>>,
    /// Filter for rows inside selected buckets (residual conjuncts when
    /// pruning selected the buckets; the full pushed filter otherwise).
    bucket_filter: Vec<CompiledPred>,
    /// Full pushed filter for loose rows (their partition keys are
    /// arbitrary, so pruning predicates re-check).
    loose_filter: Vec<CompiledPred>,
    /// Residual filter stages above the scan, compiled per stage.
    stages: Vec<Vec<CompiledPred>>,
}

impl CursorState {
    /// A fresh cursor positioned before the first row.
    pub fn new() -> Self {
        CursorState::default()
    }

    /// Whether the cursor runs in streaming mode. `None` before the first
    /// fetch (the mode is decided then).
    pub fn is_streaming(&self) -> Option<bool> {
        self.mode.as_ref().map(|m| matches!(m, Mode::Streaming(_)))
    }

    /// Rows currently buffered inside the cursor state (the materialized
    /// fallback holds the full result; streaming holds none — batches are
    /// handed to the caller).
    pub fn buffered_rows(&self) -> usize {
        match &self.mode {
            Some(Mode::Materialized { rows, next }) => rows.len().saturating_sub(*next),
            _ => 0,
        }
    }

    /// The mutation epoch this cursor is pinned to, if any.
    pub fn snapshot(&self) -> Option<u64> {
        self.snapshot
    }
}

/// The decomposed shape of a pipeline-able plan.
struct StreamShape<'p> {
    limit: Option<u64>,
    project: Option<&'p Project>,
    /// Residual filter stages between the projection head and the scan,
    /// innermost first. All their conjuncts resolve against the scan schema.
    filters: Vec<&'p [BoundExpr]>,
    scan: &'p SeqScan,
}

/// Does the plan stream? `Some(shape)` for `[Limit] [Project] Filter* SeqScan`
/// chains whose projection and filters are DISTINCT- and sub-query-free.
/// Everything else (blocking operators, sub-query predicates) falls back to
/// the materialized mode.
fn stream_shape(plan: &Plan) -> Option<StreamShape<'_>> {
    let mut limit = None;
    let mut cur = plan;
    if let Plan::Limit { input, limit: n } = cur {
        limit = Some(*n);
        cur = input;
    }
    let mut project = None;
    if let Plan::Project(p) = cur {
        let plain = p.items.iter().all(|item| match item {
            SelectItem::Expr { expr, .. } => !contains_subquery(expr),
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => true,
        });
        if p.distinct || p.items.len() != p.visible_width || !plain {
            return None;
        }
        project = Some(p);
        cur = &p.input;
    }
    let mut filters: Vec<&[BoundExpr]> = Vec::new();
    loop {
        match cur {
            Plan::Filter {
                input,
                predicates,
                bound,
            } => {
                if predicates.iter().any(contains_subquery) || bound.len() != predicates.len() {
                    return None;
                }
                filters.push(bound);
                cur = input;
            }
            Plan::SeqScan(scan) => {
                return Some(StreamShape {
                    limit,
                    project,
                    filters,
                    scan,
                })
            }
            _ => return None,
        }
    }
}

/// `true` when the plan would be drained in streaming mode (used by clients
/// and benches to report whether a cursor avoids full materialization).
pub fn plan_streams(plan: &Plan) -> bool {
    stream_shape(plan).is_some()
}

impl Engine {
    /// Pin a cursor to the engine's current mutation epoch, **before** the
    /// first fetch and under the same shared borrow that opened the cursor.
    /// Streaming fetches then never observe rows committed after this call;
    /// plans that cannot stream materialize *now* (still under the caller's
    /// lock), so their result is the open-time state by construction. The
    /// work is charged to `ctx`.
    pub fn pin_cursor(
        &self,
        plan: &Plan,
        params: &[Value],
        state: &mut CursorState,
        ctx: &StmtCtx,
    ) -> Result<()> {
        // Pin the *committed* floor, not the live epoch: while a
        // multi-statement transaction is open its statements carry epochs
        // above the floor, and a cursor must never observe rows a ROLLBACK
        // (or a crash before COMMIT) takes back. With no open transaction
        // the floor equals the live epoch.
        let epoch = self.committed_epoch();
        // Snapshot discipline: every scan of the pinned plan must still have
        // an addressable watermark at the pin epoch.
        let opts = crate::verify::VerifyOptions {
            param_count: Some(params.len()),
            pinned_epoch: Some(epoch),
        };
        crate::verify::verify_for_statement(self, plan, opts, ctx)?;
        state.snapshot = Some(epoch);
        if state.mode.is_none() && stream_shape(plan).is_none() {
            let mut executor = Executor::with_params(self, ctx, params.to_vec());
            // Bound the materializing execution at the pin epoch: even under
            // the caller's shared borrow, morsel workers must never size
            // their row ranges past the open-time watermark.
            executor.pin(Snapshot::At(epoch));
            let rel = executor.execute_plan(plan, None)?;
            state.mode = Some(Mode::Materialized {
                rows: rel.rows,
                next: 0,
            });
        }
        Ok(())
    }

    /// Fetch the next batch (at most `max_rows` rows) of the cursor over
    /// `plan`. The same `plan` and `params` must be passed on every fetch of
    /// one cursor; the state carries only positions and buffered rows, so
    /// the borrow of the engine ends with each call. The batch's work is
    /// charged to `ctx`.
    pub fn fetch_cursor_batch(
        &self,
        plan: &Plan,
        params: &[Value],
        state: &mut CursorState,
        max_rows: usize,
        ctx: &StmtCtx,
    ) -> Result<CursorBatch> {
        let max_rows = max_rows.max(1);
        let snapshot = state.snapshot;
        let executor = Executor::with_params(self, ctx, params.to_vec());
        let mode = match state.mode.as_mut() {
            Some(mode) => mode,
            None => {
                let decided = match stream_shape(plan) {
                    Some(_) => Mode::Streaming(StreamPos::default()),
                    None => {
                        let rel = executor.execute_plan(plan, None)?;
                        Mode::Materialized {
                            rows: rel.rows,
                            next: 0,
                        }
                    }
                };
                state.mode.insert(decided)
            }
        };
        match mode {
            Mode::Materialized { rows, next } => {
                let end = (*next + max_rows).min(rows.len());
                let batch: Vec<Row> = rows[*next..end].iter().map(|r| r.to_vec()).collect();
                *next = end;
                Ok(CursorBatch {
                    rows: batch,
                    done: end == rows.len(),
                })
            }
            Mode::Streaming(pos) => {
                // The mode was decided as streaming from this same plan, so
                // the shape must still resolve — fail typed rather than
                // serve wrong rows if a caller swapped plans between fetches.
                let Some(shape) = stream_shape(plan) else {
                    return Err(EngineError::new(
                        "cursor opened streaming but the plan no longer streams \
                         (a different plan was passed to a later fetch)",
                    ));
                };
                fetch_streaming(&executor, &shape, pos, snapshot, max_rows)
            }
        }
    }
}

/// Advance a streaming cursor by one batch: resume the scan at the recorded
/// (bucket, row) position, evaluate pushed predicates and filter stages per
/// row, project, and stop as soon as the batch is full or the LIMIT is
/// reached. Fast predicates read only their own column, so non-qualifying
/// bucket rows are never materialized.
fn fetch_streaming(
    executor: &Executor,
    shape: &StreamShape,
    pos: &mut StreamPos,
    snapshot: Option<u64>,
    max_rows: usize,
) -> Result<CursorBatch> {
    if pos.done {
        return Ok(CursorBatch {
            rows: Vec::new(),
            done: true,
        });
    }
    let scan = shape.scan;
    let table = executor.scan_table(scan)?;
    // A *published* destructive rewrite (UPDATE/DELETE/re-layout) after the
    // pin shuffles surviving rows across buckets — the recorded (bucket,
    // row) position no longer addresses snapshot rows, so fail rather than
    // serve wrong data. An open transaction's unpublished rewrite retains
    // the pre-rewrite storage as a shadow, which `read_at` below resolves —
    // positions stay valid because the shadow *is* the pinned storage.
    if let Some(s) = snapshot {
        if !table.snapshot_servable(s) {
            return Err(EngineError::with_kind(
                EngineErrorKind::SnapshotInvalidated,
                format!(
                    "cursor pinned at epoch {s} invalidated: `{}` was rewritten at epoch {}",
                    scan.table,
                    table.rewrite_epoch()
                ),
            ));
        }
    }
    let pin = snapshot.map(Snapshot::At);
    let view = table.read_at(pin.as_ref());

    // Compile the cursor-lifetime invariants once, on the first batch. Taken
    // out of the state for the duration of the batch (the loop below needs
    // `pos` mutably) and put back before returning.
    let filters = match pos.compiled.take() {
        Some(filters) => filters,
        None => {
            let prune_keys = executor
                .effective_prune_keys(scan, table.partition_column())
                .into_owned();
            // Rows inside selected buckets satisfy the pruning predicates by
            // construction; loose rows (and every row when nothing pruned)
            // re-check the full pushed filter — mirroring the batch executor.
            let bucket_filter = executor.compile_bucket_filter(scan, prune_keys.is_some())?;
            StreamFilters {
                prune_keys,
                bucket_filter,
                loose_filter: executor.compile_full_scan_filter(scan)?,
                stages: shape
                    .filters
                    .iter()
                    .map(|preds| executor.compile_filter(preds))
                    .collect(),
            }
        }
    };
    let StreamFilters {
        prune_keys,
        bucket_filter,
        loose_filter,
        stages: stage_filters,
    } = &filters;

    // Selected buckets in key order — the same deterministic order on every
    // batch (BTreeMap iteration), which is what makes (bucket, row) a
    // resumable position.
    let selected: Vec<(i64, &ColumnBucket)> = match prune_keys {
        Some(keys) => view
            .partitions()
            .filter(|(k, _)| keys.contains(k))
            .collect(),
        None => view.partitions().collect(),
    };
    if !pos.counted_partitions {
        let scanned = selected.len() as u64;
        let total = view.partition_count() as u64;
        executor.ctx().charge(|s| {
            s.partitions_scanned += scanned;
            s.partitions_pruned += total.saturating_sub(scanned);
        });
        pos.counted_partitions = true;
    }
    // Dictionary bitmaps are keyed by bucket *index*, which is only stable
    // within one fetch — the selected list is re-derived from live table
    // state, and DML between batches may re-bucket rows. Resolve afresh per
    // batch (cheap: ≤ DICT_MAX_DISTINCT evaluations per predicate).
    pos.dict_bitmaps = None;

    let whole = scan.reads_whole_rows(table.columns.len());
    let mut out: Vec<Row> = Vec::new();
    let mut visited: u64 = 0;
    let mut materialized: u64 = 0;
    let mut dict_rows: u64 = 0;

    'produce: loop {
        if out.len() >= max_rows {
            break;
        }
        if shape.limit.is_some_and(|lim| pos.emitted >= lim) {
            pos.done = true;
            break;
        }
        // Next candidate row: buckets first, then loose rows. Bucket rows
        // check fast predicates column-wise *before* materializing; the
        // remaining (interpreted) conjuncts run on the materialized row.
        let (row, remaining) = if pos.bucket < selected.len() {
            let (key, bucket) = selected[pos.bucket];
            let cols = BucketView::new(bucket, &scan.projection);
            // A pinned cursor only walks the prefix of the bucket that was
            // visible at its snapshot epoch (appends are strictly ordered,
            // so the watermark prefix *is* the snapshot content).
            let visible = view.visible_bucket_len(key).min(bucket.len());
            if pos.row >= visible {
                pos.bucket += 1;
                pos.row = 0;
                continue;
            }
            // Entering a bucket: resolve the fast predicates against its
            // dictionaries once (per-row checks below compare codes), and
            // note once whether materializing decodes a projected
            // dictionary column.
            if pos.dict_bitmaps.as_ref().map(|b| b.bucket) != Some(pos.bucket) {
                pos.dict_bitmaps = Some(BucketDict {
                    bucket: pos.bucket,
                    bitmaps: bucket_filter
                        .iter()
                        .map(|pred| {
                            pred.column_index()
                                .and_then(|idx| match cols.column(idx).data() {
                                    ColumnVec::Dict(d) => Some(dict_filter_bitmap(pred, d.dict())),
                                    _ => None,
                                })
                        })
                        .collect(),
                    has_dict: cols.decodes_dict(),
                });
            }
            let i = pos.row;
            pos.row += 1;
            visited += 1;
            let Some(dict) = pos.dict_bitmaps.as_ref() else {
                return Err(EngineError::new(
                    "cursor dictionary state missing after bucket entry",
                ));
            };
            let bitmaps = &dict.bitmaps;
            // Fast predicates first, reading only the predicate's column
            // (dictionary-encoded columns compare codes, no decode).
            for (pi, pred) in bucket_filter.iter().enumerate() {
                let Some(idx) = pred.column_index() else {
                    continue;
                };
                match bitmaps.get(pi).and_then(Option::as_ref) {
                    Some(bitmap) => {
                        let col = cols.column(idx);
                        dict_rows += 1;
                        let hit = !col.is_null(i)
                            && match col.data() {
                                ColumnVec::Dict(d) => bitmap[d.code(i) as usize],
                                _ => unreachable!("bitmap built from a dict column"),
                            };
                        if !hit {
                            continue 'produce;
                        }
                    }
                    None => {
                        if !fast_pred_value(pred, &cols.value(i, idx)) {
                            continue 'produce;
                        }
                    }
                }
            }
            let row = cols.materialize(i);
            materialized += 1;
            if dict.has_dict {
                dict_rows += 1;
            }
            let remaining: Vec<&CompiledPred> =
                bucket_filter.iter().filter(|p| !p.is_fast()).collect();
            (row, remaining)
        } else if pos.loose < view.visible_loose_len().min(view.loose_rows().len()) {
            let row = project_stored(scan, whole, &view.loose_rows()[pos.loose]);
            pos.loose += 1;
            visited += 1;
            (row, loose_filter.iter().collect())
        } else {
            pos.done = true;
            break;
        };
        for pred in remaining {
            if !executor.filter_matches(std::slice::from_ref(pred), &row, None)? {
                continue 'produce;
            }
        }
        // Residual filter stages above the scan.
        for stage in stage_filters {
            if !executor.filter_matches(stage, &row, None)? {
                continue 'produce;
            }
        }
        // Projection head.
        let out_row = match shape.project {
            Some(p) => executor.project_row(p, &Frame::row(&row, None))?,
            None => row.to_vec(),
        };
        pos.emitted += 1;
        out.push(out_row);
    }

    pos.compiled = Some(filters);
    executor.ctx().charge(|s| {
        s.rows_scanned += visited;
        s.late_materialized += materialized;
        s.dict_kernel_rows += dict_rows;
    });
    Ok(CursorBatch {
        rows: out,
        done: pos.done,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;

    fn engine_with_rows(n: i64) -> Engine {
        let mut e = Engine::new(EngineConfig::default());
        e.create_table("t", &["ttid", "v"]);
        e.set_table_partition("t", "ttid").unwrap();
        e.insert_values(
            "t",
            (0..n)
                .map(|i| vec![Value::Int(i % 4), Value::Int(i)])
                .collect(),
        )
        .unwrap();
        e
    }

    fn plan(e: &Engine, sql: &str) -> Plan {
        e.plan_query(&mtsql::parse_query(sql).unwrap()).unwrap()
    }

    /// Drain a fresh cursor over `p` in `batch`-row fetches as one
    /// statement, whose counters then reach `e.stats()`.
    fn drain(e: &Engine, p: &Plan, params: &[Value], batch: usize) -> (Vec<Row>, CursorState) {
        let ctx = StmtCtx::new();
        let mut state = CursorState::new();
        let mut rows = Vec::new();
        loop {
            let fetched = e
                .fetch_cursor_batch(p, params, &mut state, batch, &ctx)
                .unwrap();
            rows.extend(fetched.rows);
            if fetched.done {
                break;
            }
        }
        e.finish_statement(&ctx);
        (rows, state)
    }

    #[test]
    fn streaming_matches_batch_execution() {
        let e = engine_with_rows(1000);
        for sql in [
            "SELECT v FROM t WHERE v >= 100",
            "SELECT ttid, v FROM t WHERE ttid = 2 AND v % 2 = 0",
            "SELECT v + 1 FROM t WHERE v BETWEEN 10 AND 20",
            "SELECT v FROM t WHERE v > 500 LIMIT 7",
            "SELECT * FROM t",
        ] {
            let p = plan(&e, sql);
            let batch = e.execute_plan(&p, &[]).unwrap();
            let (streamed, _) = drain(&e, &p, &[], 13);
            assert_eq!(streamed, batch.rows, "{sql}");
        }
    }

    #[test]
    fn pipeline_plans_stream_and_blocking_plans_materialize() {
        let e = engine_with_rows(100);
        let streaming = plan(&e, "SELECT v FROM t WHERE v > 3");
        assert!(plan_streams(&streaming));
        let blocking = plan(&e, "SELECT v FROM t ORDER BY v DESC");
        assert!(!plan_streams(&blocking));
        let aggregated = plan(&e, "SELECT SUM(v) FROM t");
        assert!(!plan_streams(&aggregated));
        let distinct = plan(&e, "SELECT DISTINCT ttid FROM t");
        assert!(!plan_streams(&distinct));
        let subquery = plan(&e, "SELECT v FROM t WHERE v = (SELECT MAX(v) FROM t)");
        assert!(!plan_streams(&subquery));

        let (rows, state) = drain(&e, &blocking, &[], DEFAULT_BATCH_ROWS);
        assert_eq!(rows[0], vec![Value::Int(99)]);
        assert_eq!(state.is_streaming(), Some(false));
    }

    #[test]
    fn streaming_batches_bound_resident_rows() {
        let e = engine_with_rows(1000);
        let p = plan(&e, "SELECT v FROM t WHERE v >= 0");
        let mut state = CursorState::new();
        let mut total = 0;
        loop {
            let batch = e
                .fetch_cursor_batch(&p, &[], &mut state, 10, &StmtCtx::new())
                .unwrap();
            assert!(batch.rows.len() <= 10, "batch overflowed");
            assert_eq!(state.buffered_rows(), 0, "streaming must not buffer");
            total += batch.rows.len();
            if batch.done {
                break;
            }
        }
        assert_eq!(total, 1000);
        assert_eq!(state.is_streaming(), Some(true));
    }

    #[test]
    fn materialized_cursor_drains_in_batches() {
        let e = engine_with_rows(25);
        let p = plan(&e, "SELECT v FROM t ORDER BY v");
        let mut state = CursorState::new();
        let first = e
            .fetch_cursor_batch(&p, &[], &mut state, 10, &StmtCtx::new())
            .unwrap();
        assert_eq!(first.rows.len(), 10);
        assert!(!first.done);
        assert_eq!(state.buffered_rows(), 15);
        let rest = e
            .fetch_cursor_batch(&p, &[], &mut state, 100, &StmtCtx::new())
            .unwrap();
        assert_eq!(rest.rows.len(), 15);
        assert!(rest.done);
    }

    #[test]
    fn bound_params_stream_with_bind_time_pruning() {
        let e = engine_with_rows(1000);
        e.reset_stats();
        let p = plan(&e, "SELECT v FROM t WHERE ttid = $1");
        let (rows, _) = drain(&e, &p, &[Value::Int(2)], DEFAULT_BATCH_ROWS);
        assert_eq!(rows.len(), 250);
        let stats = e.stats();
        assert_eq!(
            stats.partitions_pruned, 3,
            "bind-time pruning must skip the 3 foreign buckets, stats: {stats:?}"
        );
        assert_eq!(stats.rows_scanned, 250);
    }

    /// Streaming over dictionary-encoded columns compares codes per row
    /// (engagement visible through `dict_kernel_rows`) and returns exactly
    /// what batch execution returns.
    #[test]
    fn streaming_dict_predicates_match_batch_execution() {
        let mut e = Engine::new(EngineConfig::default());
        e.create_table("t", &["ttid", "mode", "v"]);
        e.set_table_partition("t", "ttid").unwrap();
        let modes = ["MAIL", "SHIP", "RAIL", "AIR"];
        e.insert_values(
            "t",
            (0..400)
                .map(|i| {
                    let mode = if i % 13 == 0 {
                        Value::Null
                    } else {
                        Value::str(modes[(i % 4) as usize])
                    };
                    vec![Value::Int(i % 3), mode, Value::Int(i)]
                })
                .collect(),
        )
        .unwrap();
        for sql in [
            "SELECT v FROM t WHERE mode IN ('MAIL', 'SHIP')",
            "SELECT v FROM t WHERE mode LIKE 'MA%' AND ttid = 1",
            "SELECT mode FROM t WHERE mode NOT LIKE 'MA%' LIMIT 40",
        ] {
            let p = plan(&e, sql);
            let batch = e.execute_plan(&p, &[]).unwrap();
            e.reset_stats();
            let (streamed, _) = drain(&e, &p, &[], 17);
            assert_eq!(streamed, batch.rows, "{sql}");
            assert!(
                e.stats().dict_kernel_rows > 0,
                "{sql}: cursor did not compare codes, stats: {:?}",
                e.stats()
            );
        }
    }

    #[test]
    fn pinned_cursor_never_observes_later_inserts() {
        let mut e = engine_with_rows(100);
        let p = plan(&e, "SELECT v FROM t WHERE v >= 0");
        let mut pinned = CursorState::new();
        e.pin_cursor(&p, &[], &mut pinned, &StmtCtx::new()).unwrap();
        let mut live = CursorState::new();
        let first = e
            .fetch_cursor_batch(&p, &[], &mut pinned, 10, &StmtCtx::new())
            .unwrap();
        assert_eq!(first.rows.len(), 10);
        // A concurrent INSERT lands between batches.
        e.insert_values("t", vec![vec![Value::Int(1), Value::Int(1000)]])
            .unwrap();
        let mut total = first.rows.len();
        loop {
            let batch = e
                .fetch_cursor_batch(&p, &[], &mut pinned, 10, &StmtCtx::new())
                .unwrap();
            assert!(batch.rows.iter().all(|r| r[0] != Value::Int(1000)));
            total += batch.rows.len();
            if batch.done {
                break;
            }
        }
        assert_eq!(total, 100, "pinned cursor must stop at its snapshot");
        // An unpinned cursor opened before the INSERT reads live state.
        let mut live_total = 0;
        loop {
            let batch = e
                .fetch_cursor_batch(&p, &[], &mut live, 32, &StmtCtx::new())
                .unwrap();
            live_total += batch.rows.len();
            if batch.done {
                break;
            }
        }
        assert_eq!(live_total, 101);
    }

    #[test]
    fn pinned_cursor_is_invalidated_by_rewrites() {
        let mut e = engine_with_rows(50);
        let p = plan(&e, "SELECT v FROM t WHERE v >= 0");
        let mut state = CursorState::new();
        e.pin_cursor(&p, &[], &mut state, &StmtCtx::new()).unwrap();
        e.fetch_cursor_batch(&p, &[], &mut state, 5, &StmtCtx::new())
            .unwrap();
        e.execute("DELETE FROM t WHERE v < 10").unwrap();
        let err = e
            .fetch_cursor_batch(&p, &[], &mut state, 5, &StmtCtx::new())
            .unwrap_err();
        assert_eq!(err.kind(), EngineErrorKind::SnapshotInvalidated);
    }

    #[test]
    fn pinned_blocking_plans_materialize_at_open() {
        let mut e = engine_with_rows(20);
        let p = plan(&e, "SELECT v FROM t ORDER BY v DESC");
        let mut state = CursorState::new();
        e.pin_cursor(&p, &[], &mut state, &StmtCtx::new()).unwrap();
        assert_eq!(state.buffered_rows(), 20, "must materialize at open");
        e.insert_values("t", vec![vec![Value::Int(0), Value::Int(999)]])
            .unwrap();
        let batch = e
            .fetch_cursor_batch(&p, &[], &mut state, 100, &StmtCtx::new())
            .unwrap();
        assert!(batch.done);
        assert_eq!(batch.rows.len(), 20);
        assert_eq!(batch.rows[0], vec![Value::Int(19)]);
    }

    #[test]
    fn limit_is_respected_across_batches() {
        let e = engine_with_rows(1000);
        let p = plan(&e, "SELECT v FROM t WHERE v >= 0 LIMIT 30");
        let (rows, _) = drain(&e, &p, &[], 7);
        assert_eq!(rows.len(), 30);
    }
}
