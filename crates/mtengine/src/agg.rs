//! The one aggregation operator: a streaming `HashAggregate`.
//!
//! Every aggregation — over a base-table scan, a per-bucket conversion
//! join, a generic join or a derived table, serial or on the worker pool —
//! runs the same two steps:
//!
//! 1. **Evaluate.** A run of input rows (one scan morsel, or a chunk of a
//!    materialized relation) is evaluated into a `Batch`: per qualifying
//!    row its *local group* and, one column per distinct aggregate
//!    argument, the argument's value (unboxed `f64`s where the float column
//!    kernel applies, `Value`s otherwise). Over a partition bucket the rows
//!    are never built: the bound key and argument expressions read the
//!    column vectors at the row ids `kernel_select` left in the selection
//!    (float arithmetic a column at a time), and when every group
//!    key is a dictionary column (or constant within the bucket — the
//!    partition column, a bucket constant) the local group is a lookup in a
//!    dense `codes -> group` memo, so key values are evaluated once per
//!    distinct code combination. This step is what the pool parallelizes.
//! 2. **Fold.** `Accumulator::absorb` maps the batch's local groups to
//!    global ones (first-seen order) and updates the per-group typed
//!    `AggState`s row by row. Batches are absorbed in morsel order on the
//!    calling thread, so every accumulator sees its values in exactly the
//!    serial row order: float `SUM`/`AVG` — not associative — and `DISTINCT`
//!    first-occurrence order are bit-identical between serial and pooled
//!    execution by construction, and nothing is ever pre-folded per morsel.
//!
//! A `HashAggregate` over a join the planner marked
//! [per-bucket](crate::plan::BoundJoin::per_bucket) executes the build side
//! once, indexes it by partition key and streams each bucket with its one
//! build row as *bucket constants* — no per-row key evaluation, probe or row
//! concatenation. A build side whose key is not unique runs the generic hash
//! join instead and streams the joined rows through the same accumulator.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

use crate::bound::{AggFunc, BoundAggregate, BoundExpr, FloatKernel, Frame, Slot, Source};
use crate::conjuncts::CompiledPred;
use crate::error::{err, EngineError, Result};
use crate::exec::{
    bound_arity, build_morsels, concat_rows, dedup_visible, effective_parallel_budget,
    kernel_select, run_morsel_pool, scan_worker_count, Env, Executor, Morsel, Relation, ScanTally,
    Selected, MORSEL_ROWS,
};
use crate::plan::{HashAggregate, JoinVariant, Plan, SeqScan};
use crate::table::{BucketView, Column, ColumnVec, DictColumn, SharedRow};
use crate::value::{int_overflow, Value};

// ---------------------------------------------------------------------------
// Accumulator states
// ---------------------------------------------------------------------------

/// Running `SUM`: integer while every value is an integer (checked — an
/// overflow is a typed error), float from the first float on (the same
/// Int→Float promotion as [`Value::add`]), and a plain [`Value`] for
/// anything else a `Mixed` column can hold (dates, mismatched types — they
/// fold or fail exactly like `Value::add` does).
#[derive(Debug, Clone)]
enum Sum {
    Empty,
    Int(i64),
    Float(f64),
    Other(Value),
}

impl Sum {
    fn add(&mut self, v: &Value) -> Result<()> {
        *self = match (&*self, v) {
            (Sum::Empty, Value::Int(b)) => Sum::Int(*b),
            (Sum::Int(a), Value::Int(b)) => {
                Sum::Int(a.checked_add(*b).ok_or_else(|| int_overflow("SUM"))?)
            }
            (Sum::Int(a), Value::Float(b)) => Sum::Float(*a as f64 + b),
            (Sum::Float(a), Value::Float(b)) => Sum::Float(a + b),
            (Sum::Float(a), Value::Int(b)) => Sum::Float(a + *b as f64),
            (acc, v) => match acc.value().unwrap_or(Value::Int(0)).add(v)? {
                Value::Int(i) => Sum::Int(i),
                Value::Float(f) => Sum::Float(f),
                other => Sum::Other(other),
            },
        };
        Ok(())
    }

    /// The sum so far; `None` when no value was added.
    fn value(&self) -> Option<Value> {
        match self {
            Sum::Empty => None,
            Sum::Int(i) => Some(Value::Int(*i)),
            Sum::Float(f) => Some(Value::Float(*f)),
            Sum::Other(v) => Some(v.clone()),
        }
    }
}

/// The state of one aggregate of one group.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    Sum(Sum),
    Avg {
        sum: f64,
        n: u64,
    },
    /// `MIN` (`keep == Less`) / `MAX` (`keep == Greater`): a candidate
    /// replaces the best only when it compares strictly `keep`.
    Extreme {
        best: Option<Value>,
        keep: Ordering,
    },
    /// `agg(DISTINCT x)`: the inner state sees each distinct value once, at
    /// its first occurrence.
    Distinct {
        seen: HashSet<Value>,
        inner: Box<AggState>,
    },
}

impl AggState {
    fn new(func: AggFunc, distinct: bool) -> AggState {
        let state = match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(Sum::Empty),
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => AggState::Extreme {
                best: None,
                keep: Ordering::Less,
            },
            AggFunc::Max => AggState::Extreme {
                best: None,
                keep: Ordering::Greater,
            },
        };
        if distinct {
            AggState::Distinct {
                seen: HashSet::new(),
                inner: Box::new(state),
            }
        } else {
            state
        }
    }

    /// `COUNT(*)`: count the row itself.
    fn count_row(&mut self) -> Result<()> {
        match self {
            AggState::Count(n) => *n += 1,
            _ => return err("only COUNT may omit its argument"),
        }
        Ok(())
    }

    /// [`AggState::update`] for a non-NULL float that never became a
    /// [`Value`] (the column kernel's output).
    fn update_float(&mut self, x: f64) -> Result<()> {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum(Sum::Float(a)) => *a += x,
            AggState::Sum(sum @ Sum::Int(_)) => {
                if let Sum::Int(a) = *sum {
                    *sum = Sum::Float(a as f64 + x);
                }
            }
            AggState::Avg { sum, n } => {
                *sum += x;
                *n += 1;
            }
            _ => return self.update(&Value::Float(x)),
        }
        Ok(())
    }

    /// Fold one argument value; NULLs are skipped.
    fn update(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum(sum) => sum.add(v)?,
            AggState::Avg { sum, n } => {
                *sum += v
                    .as_f64()
                    .ok_or_else(|| EngineError::new("AVG over non-numeric value"))?;
                *n += 1;
            }
            AggState::Extreme { best, keep } => {
                if best.as_ref().is_none_or(|b| v.compare(b) == Some(*keep)) {
                    *best = Some(v.clone());
                }
            }
            AggState::Distinct { seen, inner } => {
                if seen.insert(v.clone()) {
                    inner.update(v)?;
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum(sum) => sum.value().unwrap_or(Value::Null),
            AggState::Avg { n: 0, .. } => Value::Null,
            AggState::Avg { sum, n } => Value::Float(sum / n as f64),
            AggState::Extreme { best, .. } => best.unwrap_or(Value::Null),
            AggState::Distinct { inner, .. } => inner.finish(),
        }
    }
}

// ---------------------------------------------------------------------------
// Batches and the accumulator
// ---------------------------------------------------------------------------

/// What a group remembers of its first row for HAVING and the output items
/// (see [`BoundAggregate::rep_input`] / [`BoundAggregate::rep_consts`]).
#[derive(Debug, Clone, Default)]
struct Rep {
    /// The first input row, materialized.
    row: Option<SharedRow>,
    /// The first row's build row, when only bucket constants are read.
    consts: Option<SharedRow>,
}

/// One aggregate argument evaluated for every qualifying row of a batch.
#[derive(Debug)]
enum ArgColumn {
    /// The float column kernel's output: values and NULL flags, unboxed.
    Floats { values: Vec<f64>, nulls: Vec<bool> },
    /// Row-by-row evaluation.
    Values(Vec<Value>),
}

/// One run of input rows, evaluated: the unit workers produce and the
/// accumulator folds. Reused across runs on the serial path.
#[derive(Debug, Default)]
struct Batch {
    /// Local group of every qualifying row, in row order.
    gids: Vec<u32>,
    /// One column per entry of [`BoundAggregate::args`], a value per row.
    args: Vec<ArgColumn>,
    /// Key values of the local groups, group-major, in first-seen order.
    keys: Vec<Value>,
    /// One entry per local group.
    reps: Vec<Rep>,
    tally: ScanTally,
}

impl Batch {
    /// Evaluate one row's arguments into the row-by-row columns.
    fn push_values(
        &mut self,
        eval: impl Fn(&BoundExpr) -> Result<Value>,
        spec: &BoundAggregate,
    ) -> Result<()> {
        for (column, arg) in self.args.iter_mut().zip(&spec.args) {
            if let ArgColumn::Values(values) = column {
                values.push(eval(arg)?);
            }
        }
        Ok(())
    }

    fn clear(&mut self) {
        self.gids.clear();
        self.args.clear();
        self.keys.clear();
        self.reps.clear();
        self.tally = ScanTally::default();
    }
}

/// Groups in first-seen order with one [`AggState`] per aggregate.
struct Accumulator<'p> {
    spec: &'p BoundAggregate,
    /// Key → group; owns the keys until [`Accumulator::finish`].
    index: HashMap<Vec<Value>, u32>,
    reps: Vec<Rep>,
    /// Group-major: group `g`'s states start at `g * aggs.len()`.
    states: Vec<AggState>,
}

impl<'p> Accumulator<'p> {
    fn new(spec: &'p BoundAggregate) -> Self {
        Accumulator {
            spec,
            index: HashMap::new(),
            reps: Vec::new(),
            states: Vec::new(),
        }
    }

    fn group_of(&mut self, key: &[Value], rep: &Rep) -> u32 {
        if let Some(&g) = self.index.get(key) {
            return g;
        }
        let g = self.reps.len() as u32;
        self.index.insert(key.to_vec(), g);
        self.reps.push(rep.clone());
        self.states.extend(
            self.spec
                .aggs
                .iter()
                .map(|a| AggState::new(a.func, a.distinct && a.arg.is_some())),
        );
        g
    }

    /// Fold one batch: rows in row order, so every state sees its values in
    /// the order a serial scan would deliver them.
    fn absorb(&mut self, batch: &Batch) -> Result<()> {
        let spec = self.spec;
        let (n_keys, n_aggs) = (spec.keys.len(), spec.aggs.len());
        let global: Vec<u32> = batch
            .reps
            .iter()
            .enumerate()
            .map(|(lg, rep)| self.group_of(&batch.keys[lg * n_keys..(lg + 1) * n_keys], rep))
            .collect();
        for (row, &lg) in batch.gids.iter().enumerate() {
            let states = &mut self.states[global[lg as usize] as usize * n_aggs..][..n_aggs];
            for (state, agg) in states.iter_mut().zip(&spec.aggs) {
                match agg.arg.map(|i| &batch.args[i]) {
                    None => state.count_row()?,
                    Some(ArgColumn::Values(values)) => state.update(&values[row])?,
                    Some(ArgColumn::Floats { values, nulls }) => {
                        if !nulls[row] {
                            state.update_float(values[row])?
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// `(key, first-row memory, aggregate values)` per group, in first-seen
    /// order. An aggregation without GROUP BY over empty input still has its
    /// one (empty) group.
    fn finish(mut self) -> Vec<(Vec<Value>, Rep, Vec<Value>)> {
        if self.reps.is_empty() && self.spec.keys.is_empty() {
            self.group_of(&[], &Rep::default());
        }
        let n_aggs = self.spec.aggs.len();
        let mut keys: Vec<Vec<Value>> = vec![Vec::new(); self.reps.len()];
        for (key, g) in self.index {
            keys[g as usize] = key;
        }
        let mut states = self.states.into_iter();
        keys.into_iter()
            .zip(self.reps)
            .map(|(key, rep)| {
                let values = states.by_ref().take(n_aggs).map(AggState::finish).collect();
                (key, rep, values)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Code-space grouping
// ---------------------------------------------------------------------------

/// Largest `codes -> group` memo a bucket run allocates.
const DENSE_MEMO_MAX: usize = 4096;

/// The dense `codes -> local group` memo of one bucket run: usable when
/// every group key is a dictionary column of the bucket or constant within
/// it. `0` marks an unseen combination, otherwise `local group + 1`.
struct CodeMemo<'c> {
    /// `(column, dictionary, stride)` per dictionary key; a NULL key takes
    /// the code one past the dictionary.
    dims: Vec<(&'c Column, &'c DictColumn, usize)>,
    slots: Vec<u32>,
}

impl<'c> CodeMemo<'c> {
    /// `fixed_col` is the bucket's partition column: constant by
    /// construction.
    fn new(cols: BucketView<'c>, keys: &[BoundExpr], fixed_col: Option<usize>) -> Option<Self> {
        let mut dims = Vec::new();
        let mut size = 1usize;
        for key in keys {
            match key {
                BoundExpr::Const(_)
                | BoundExpr::Param(_)
                | BoundExpr::Slot(Slot::BucketConst(_) | Slot::Outer { .. }) => {}
                BoundExpr::Slot(Slot::Input(c)) if Some(*c) == fixed_col => {}
                BoundExpr::Slot(Slot::Input(c)) => {
                    let column = cols.column(*c);
                    let ColumnVec::Dict(dict) = column.data() else {
                        return None;
                    };
                    dims.push((column, dict, size));
                    size = size.checked_mul(dict.dict().len() + 1)?;
                    if size > DENSE_MEMO_MAX {
                        return None;
                    }
                }
                _ => return None,
            }
        }
        Some(CodeMemo {
            dims,
            slots: vec![0; size],
        })
    }

    #[inline]
    fn slot(&mut self, row: usize) -> &mut u32 {
        let mut at = 0usize;
        for (column, dict, stride) in &self.dims {
            let code = if column.is_null(row) {
                dict.dict().len()
            } else {
                dict.code(row) as usize
            };
            at += code * stride;
        }
        &mut self.slots[at]
    }
}

// ---------------------------------------------------------------------------
// The operator
// ---------------------------------------------------------------------------

/// What a bucket (or a loose row) joins under a per-bucket join.
#[derive(Clone, Copy)]
enum Joined<'a> {
    /// A plain scan: there is no join.
    Unjoined,
    /// No build row carries this partition value: the inner join drops
    /// every row (they are still scanned, for the counters' sake).
    Nothing,
    /// The one build row: the bucket's constants.
    Row(&'a SharedRow),
}

impl<'a> Joined<'a> {
    fn consts(self) -> Option<&'a SharedRow> {
        match self {
            Joined::Row(row) => Some(row),
            Joined::Unjoined | Joined::Nothing => None,
        }
    }
}

/// The scan-side inputs of one streamed aggregation, shared by every morsel.
struct ScanStream<'a> {
    spec: &'a BoundAggregate,
    filter: &'a [CompiledPred],
    /// The scan's output position of its table's partition column (constant
    /// within a bucket).
    partition_col: Option<usize>,
    /// Probe-side width of a per-bucket join; `None` for a plain scan.
    split: Option<usize>,
}

impl Executor<'_> {
    /// Execute a `HashAggregate`: stream the input through the accumulator,
    /// then evaluate HAVING and the output items per group.
    pub(crate) fn exec_hash_aggregate(
        &self,
        agg: &HashAggregate,
        outer: Option<&Env>,
    ) -> Result<Relation> {
        let spec = &agg.bound;
        bound_arity("HashAggregate", agg.group_exprs.len(), spec.keys.len())?;
        bound_arity("HashAggregate", agg.aggregates.len(), spec.aggs.len())?;
        let mut acc = Accumulator::new(spec);
        let mut split = None;
        match agg.input.as_ref() {
            Plan::SeqScan(scan) if spec.columnar => {
                self.aggregate_scan(scan, None, spec, outer, &mut acc)?
            }
            Plan::HashJoin {
                left,
                right,
                bound,
                kind: JoinVariant::Plain(kind),
                ..
            } if bound.per_bucket => {
                let Plan::SeqScan(scan) = left.as_ref() else {
                    return Err(crate::verify::unbound("HashJoin [per-bucket]").into());
                };
                split = Some(scan.schema.len());
                let build = self.execute_plan(right, outer)?;
                match self.bucket_constants(scan, &build, bound, outer)? {
                    Some(consts) => {
                        self.aggregate_scan(scan, Some((&build, &consts)), spec, outer, &mut acc)?
                    }
                    // The build key is not unique (or the table was
                    // re-partitioned under a cached plan): generic join.
                    None => {
                        let probe = self.execute_plan(left, outer)?;
                        let joined = self.hash_join(&probe, &build, bound, *kind, outer)?;
                        self.aggregate_rows(&joined, split, spec, outer, &mut acc)?
                    }
                }
            }
            input => {
                let rel = self.execute_plan(input, outer)?;
                self.aggregate_rows(&rel, None, spec, outer, &mut acc)?
            }
        }
        self.emit_groups(agg, split, acc, outer)
    }

    /// Index the build side of a per-bucket join by its key: `partition
    /// value -> build row`. `None` when a key repeats or the probe key is no
    /// longer the scanned table's partition column.
    fn bucket_constants(
        &self,
        scan: &SeqScan,
        build: &Relation,
        join: &crate::plan::BoundJoin,
        outer: Option<&Env>,
    ) -> Result<Option<HashMap<Value, usize>>> {
        let table = self.engine().database().table(&scan.table)?;
        let [(BoundExpr::Slot(Slot::Input(probe_col)), build_key)] = join.keys.as_slice() else {
            return Ok(None);
        };
        let partition = table.partition_column();
        if partition.is_none_or(|p| scan.projection.get(*probe_col) != Some(&p)) {
            return Ok(None);
        }
        let mut by_key = HashMap::with_capacity(build.rows.len());
        for (i, row) in build.rows.iter().enumerate() {
            let key = self.eval_bound(build_key, &Frame::row(row, outer))?;
            // NULL keys join nothing.
            if !key.is_null() && by_key.insert(key, i).is_some() {
                return Ok(None);
            }
        }
        Ok(Some(by_key))
    }

    /// Stream a base-table scan — its buckets morsel by morsel (on the pool
    /// when it engages), then its loose rows — into the accumulator.
    /// `build` is the per-bucket join's build side and key index.
    fn aggregate_scan(
        &self,
        scan: &SeqScan,
        build: Option<(&Relation, &HashMap<Value, usize>)>,
        spec: &BoundAggregate,
        outer: Option<&Env>,
        acc: &mut Accumulator,
    ) -> Result<()> {
        let engine = self.engine();
        let input = self.open_scan(scan)?;
        let selected = &input.selected;
        let stream = ScanStream {
            spec,
            filter: &input.filter,
            partition_col: input
                .table
                .partition_column()
                .and_then(|c| scan.output_of(c)),
            split: build.map(|_| scan.schema.len()),
        };
        let joined = |key: &Value| match build {
            None => Joined::Unjoined,
            Some((rel, by_key)) => match by_key.get(key) {
                Some(&i) => Joined::Row(&rel.rows[i]),
                None => Joined::Nothing,
            },
        };
        let bucket_joins: Vec<Joined> = selected
            .iter()
            .map(|s| joined(&Value::Int(s.key)))
            .collect();

        let morsels = build_morsels(selected);
        let total: usize = selected.iter().map(|s| s.visible).sum();
        // A correlated aggregation stays on the calling thread: outer
        // references resolve against the coordinator's environment chain.
        let threads = match outer {
            None => scan_worker_count(
                effective_parallel_budget(&engine.config()),
                morsels.len(),
                total,
            ),
            Some(_) => 1,
        };
        let run = |worker: &Executor, m: Morsel, batch: &mut Batch| {
            worker.aggregate_morsel(
                &stream,
                &selected[m.bucket],
                m.start..m.end,
                bucket_joins[m.bucket],
                outer,
                batch,
            )
        };
        let mut tally = ScanTally::default();
        if threads > 1 {
            run_morsel_pool(
                self,
                threads,
                &morsels,
                |worker, m| {
                    let mut batch = Batch::default();
                    run(worker, m, &mut batch)?;
                    Ok(batch)
                },
                |batch| {
                    tally.absorb(batch.tally);
                    acc.absorb(&batch)
                },
            )?;
            self.ctx()
                .charge(|s| s.partial_agg_merges += morsels.len() as u64);
        } else {
            let mut batch = Batch::default();
            for &m in &morsels {
                batch.clear();
                run(self, m, &mut batch)?;
                tally.absorb(batch.tally);
                acc.absorb(&batch)?;
            }
        }

        // Loose rows carry arbitrary partition keys: a per-bucket join
        // looks their build row up by value.
        let mut batch = Batch::default();
        self.scan_loose(scan, &input, outer, &mut tally, |row| {
            let join = match (build, stream.partition_col) {
                (Some(_), Some(c)) => joined(&row[c]),
                _ => Joined::Unjoined,
            };
            if !matches!(join, Joined::Nothing) {
                self.batch_row(&stream, row, join.consts(), outer, &mut batch)?;
            }
            if batch.gids.len() == MORSEL_ROWS {
                acc.absorb(&batch)?;
                batch.clear();
            }
            Ok(())
        })?;
        acc.absorb(&batch)?;
        self.note_scan(&input, tally);
        Ok(())
    }

    /// Evaluate one morsel of one bucket into `batch`. With an all-kernel
    /// filter the qualifying rows are read straight off the column vectors;
    /// interpreted conjuncts need the row, so such a morsel materializes its
    /// kernel survivors first (the one scan routine) and evaluates those.
    fn aggregate_morsel(
        &self,
        stream: &ScanStream,
        bucket: &Selected,
        range: std::ops::Range<usize>,
        join: Joined,
        outer: Option<&Env>,
        batch: &mut Batch,
    ) -> Result<()> {
        let (cols, spec, consts) = (bucket.cols, stream.spec, join.consts());
        if !stream.filter.iter().all(CompiledPred::is_fast) {
            let mut rows: Vec<SharedRow> = Vec::new();
            batch.tally = self.scan_range(cols, range, stream.filter, outer, &mut rows)?;
            if !matches!(join, Joined::Nothing) {
                for row in &rows {
                    self.batch_row(stream, row, consts, outer, batch)?;
                }
            }
            return Ok(());
        }
        let (sel, tally) = kernel_select(cols, &range, stream.filter);
        batch.tally = tally;
        if matches!(join, Joined::Nothing) {
            return Ok(());
        }
        let rows: Vec<usize> = sel.iter().map(|offset| range.start + offset).collect();
        if rows.is_empty() {
            return Ok(());
        }
        let mut frame = Frame {
            src: Source::Bucket(cols, 0),
            consts: consts.map_or(&[], |c| c),
            outer,
            group: None,
        };

        // Local groups: a memo hit per row, key values per new combination.
        let mut memo = CodeMemo::new(cols, &spec.keys, stream.partition_col);
        if memo.as_ref().is_some_and(|m| !m.dims.is_empty()) {
            batch.tally.dict += rows.len() as u64;
        }
        for &row in &rows {
            let gid = match memo.as_mut().map_or(0, |m| *m.slot(row)) {
                0 => {
                    frame.src = Source::Bucket(cols, row);
                    let gid = self.batch_group(spec, &frame, batch, consts, || {
                        let scanned = cols.materialize(row);
                        match consts {
                            Some(c) => concat_rows(&scanned, c).into(),
                            None => scanned,
                        }
                    })?;
                    if spec.rep_input {
                        batch.tally.materialized += 1;
                    }
                    if let Some(m) = memo.as_mut() {
                        *m.slot(row) = gid + 1;
                    }
                    gid
                }
                seen => seen - 1,
            };
            batch.gids.push(gid);
        }

        // Arguments, one column each: float arithmetic over the typed column
        // vectors where the expression allows, row by row (all such
        // arguments of a row together) otherwise.
        let kernel = FloatKernel {
            cols,
            consts: frame.consts,
            rows: &rows,
        };
        batch.args = spec
            .args
            .iter()
            .map(|arg| match kernel.eval(arg) {
                Some((values, nulls)) => ArgColumn::Floats { values, nulls },
                None => ArgColumn::Values(Vec::with_capacity(rows.len())),
            })
            .collect();
        if batch.args.iter().any(|c| matches!(c, ArgColumn::Values(_))) {
            for &row in &rows {
                frame.src = Source::Bucket(cols, row);
                batch.push_values(|arg| self.eval_bound(arg, &frame), spec)?;
            }
        }
        Ok(())
    }

    /// Open a local group of `batch` for the frame's row: evaluate its key
    /// values and remember what HAVING and the items will read of it.
    fn batch_group(
        &self,
        spec: &BoundAggregate,
        frame: &Frame,
        batch: &mut Batch,
        consts: Option<&SharedRow>,
        first_row: impl FnOnce() -> SharedRow,
    ) -> Result<u32> {
        for key in &spec.keys {
            batch.keys.push(self.eval_bound(key, frame)?);
        }
        // Bucket constants that live inside the row itself (a joined row)
        // are remembered with the row.
        let keep_row = spec.rep_input || (spec.rep_consts && consts.is_none());
        batch.reps.push(Rep {
            row: keep_row.then(first_row),
            consts: consts.filter(|_| spec.rep_consts && !keep_row).cloned(),
        });
        Ok(batch.reps.len() as u32 - 1)
    }

    /// Evaluate one materialized row into `batch` as a local group of its
    /// own (the accumulator resolves it by key value). `consts` is the
    /// row's build row when the join above is resolved per bucket and the
    /// row is the probe side alone.
    fn batch_row(
        &self,
        stream: &ScanStream,
        row: &SharedRow,
        consts: Option<&SharedRow>,
        outer: Option<&Env>,
        batch: &mut Batch,
    ) -> Result<()> {
        let frame = match consts {
            Some(c) => Frame {
                consts: c,
                ..Frame::row(row, outer)
            },
            None => Frame::joined_row(row, stream.split, outer),
        };
        let gid = self.batch_group(stream.spec, &frame, batch, consts, || match consts {
            Some(c) => concat_rows(row, c).into(),
            None => SharedRow::clone(row),
        })?;
        batch.gids.push(gid);
        if batch.args.is_empty() {
            let columns = stream
                .spec
                .args
                .iter()
                .map(|_| ArgColumn::Values(Vec::new()));
            batch.args = columns.collect();
        }
        batch.push_values(|arg| self.eval_bound(arg, &frame), stream.spec)
    }

    /// Stream a materialized relation (a join, a derived table, …) into the
    /// accumulator. `split` marks where the build columns of a per-bucket
    /// join that fell back to the generic join start.
    fn aggregate_rows(
        &self,
        input: &Relation,
        split: Option<usize>,
        spec: &BoundAggregate,
        outer: Option<&Env>,
        acc: &mut Accumulator,
    ) -> Result<()> {
        let stream = ScanStream {
            spec,
            filter: &[],
            partition_col: None,
            split,
        };
        let mut batch = Batch::default();
        for chunk in input.rows.chunks(MORSEL_ROWS) {
            batch.clear();
            for row in chunk {
                self.batch_row(&stream, row, None, outer, &mut batch)?;
            }
            acc.absorb(&batch)?;
        }
        Ok(())
    }

    /// Evaluate HAVING and the output items per group, in first-seen group
    /// order, and assemble the output relation.
    fn emit_groups(
        &self,
        agg: &HashAggregate,
        split: Option<usize>,
        acc: Accumulator,
        outer: Option<&Env>,
    ) -> Result<Relation> {
        let spec = &agg.bound;
        let schema = agg.input.schema();
        // A group that kept no first row (nothing reads it, or the one group
        // of an empty input) resolves input columns to NULL.
        let null_row: Vec<Value> = vec![Value::Null; schema.len()];
        let mut rows: Vec<SharedRow> = Vec::new();
        for (key, rep, values) in acc.finish() {
            let row: &[Value] = rep.row.as_deref().unwrap_or(&null_row);
            let frame = Frame {
                consts: match &rep.consts {
                    Some(c) => c,
                    None => split.and_then(|s| row.get(s..)).unwrap_or(&[]),
                },
                group: Some((&key, &values)),
                ..Frame::row(row, outer)
            };
            if let Some(having) = &spec.having {
                if !self.eval_bound(having, &frame)?.as_bool().unwrap_or(false) {
                    continue;
                }
            }
            let out = spec
                .items
                .iter()
                .map(|item| self.eval_bound(item, &frame))
                .collect::<Result<Vec<_>>>()?;
            rows.push(out.into());
        }
        if agg.distinct {
            dedup_visible(&mut rows, agg.visible_width);
        }
        Ok(Relation {
            schema: agg.schema.clone(),
            rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{Engine, EngineConfig, EngineErrorKind, Value};

    fn engine_with(values: Vec<Value>) -> Engine {
        let mut e = Engine::new(EngineConfig::default());
        e.create_table("t", &["ttid", "a"]);
        e.set_table_partition("t", "ttid").unwrap();
        let rows = values.into_iter().map(|v| vec![Value::Int(1), v]);
        e.insert_values("t", rows.collect()).unwrap();
        e
    }

    #[test]
    fn integer_sum_overflow_is_a_typed_error() {
        let e = engine_with(vec![Value::Int(i64::MAX), Value::Int(1)]);
        let err = e.query("SELECT SUM(a) FROM t").unwrap_err();
        assert_eq!(err.kind(), EngineErrorKind::Arithmetic, "{err}");
        // The same values average fine: AVG folds in f64.
        let avg = e.query("SELECT AVG(a) FROM t").unwrap();
        assert_eq!(avg.rows[0][0], Value::Float((i64::MAX as f64 + 1.0) / 2.0));
    }

    #[test]
    fn sum_promotes_to_float_at_the_first_float() {
        // A type change demotes the column to `Mixed`; the sum still folds
        // like `Value::add`: integer up to the first float, float after.
        let e = engine_with(vec![Value::Int(1), Value::Int(2), Value::Float(0.5)]);
        let rs = e
            .query("SELECT SUM(a), COUNT(*), MIN(a), MAX(a) FROM t")
            .unwrap();
        assert_eq!(
            rs.rows[0],
            vec![
                Value::Float(3.5),
                Value::Int(3),
                Value::Float(0.5),
                Value::Int(2)
            ]
        );
    }

    #[test]
    fn empty_input_yields_one_global_group_and_no_keyed_group() {
        let e = engine_with(vec![]);
        let rs = e.query("SELECT COUNT(*), SUM(a), MIN(a) FROM t").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(0), Value::Null, Value::Null]]);
        let rs = e.query("SELECT a, COUNT(*) FROM t GROUP BY a").unwrap();
        assert!(rs.rows.is_empty());
    }
}
