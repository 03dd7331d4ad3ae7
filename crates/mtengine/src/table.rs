//! In-memory storage: tables, views and the database holding them.
//!
//! Tables hand rows out behind [`SharedRow`] (`Arc<[Value]>`) handles so that
//! scans share reference-counted pointers instead of deep copies. A table may
//! additionally declare a *partition column* (the invisible `ttid` of the
//! MTBase shared-table layout): rows are then bucketed by that column's
//! integer value, and the executor can skip entire foreign-tenant buckets
//! when the query carries a `ttid = k` / `ttid IN (...)` scope predicate.
//!
//! # Bucket layout
//!
//! Each partition bucket is a [`ColumnBucket`]: one typed [`ColumnVec`]
//! array per column (`i64` / `f64` / `Arc<str>` / `bool` / date days, or
//! `u32` dictionary codes) plus a null bitmap. Scans evaluate compiled
//! predicates column-at-a-time over a selection bitmap and
//! *late-materialize* a `SharedRow` only for the qualifying row ids, of only
//! the columns the scan projects (through a [`BucketView`]). Loose
//! rows (non-integer partition keys, unpartitioned tables) are stored in row
//! form, every row already an `Arc<[Value]>` — the row-form reference the
//! column kernels are checked against.
//!
//! # Snapshot watermarks
//!
//! Buckets are append-only between destructive rewrites, so snapshot
//! isolation reduces to *length* visibility: every push records a
//! `(epoch, len)` watermark per bucket (and for the loose rows), where the
//! epoch is the [`Database`]-wide mutation counter stamped via
//! [`Table::begin_write`]. A reader pinned to snapshot `s` sees
//! [`Table::visible_bucket_len`] rows of each bucket — the largest
//! watermark whose epoch is ≤ `s` — and therefore never observes rows a
//! later mutation appended. Destructive rewrites ([`Table::take_rows`]:
//! UPDATE, DELETE, re-partitioning, layout changes) invalidate older
//! snapshots instead: they record the rewriting epoch
//! ([`Table::rewrite_epoch`]), and cursors pinned before it fail with a
//! typed error rather than silently reading rewritten storage.
//!
//! # Rewrite shadows
//!
//! A destructive rewrite issued by a *still-open transaction* must not
//! invalidate the committed floor: every other connection keeps reading at
//! [`Database::committed_epoch`] until the transaction publishes, and a
//! ROLLBACK takes the rewrite back entirely. [`Table::begin_txn_rewrite`]
//! therefore moves the committed storage — buckets, loose rows, watermarks
//! and the previous rewrite epoch — into a [`RewriteShadow`] instead of
//! dropping it. Readers whose [`Snapshot`] does not admit the uncommitted
//! rewrite are served from the shadow through [`Table::read_at`];
//! [`Table::publish_rewrite`] drops the shadow at commit, and
//! [`Table::rollback_rewrite`] restores it wholesale at rollback, leaving
//! snapshot visibility exactly as the transaction found it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use mtsql::ast::Query;

use crate::error::{err, Result};
use crate::value::Value;

/// A mutable row under construction (DML, projections).
pub type Row = Vec<Value>;

/// An immutable, reference-counted stored row. Cloning is a pointer bump.
pub type SharedRow = Arc<[Value]>;

// ---------------------------------------------------------------------------
// Columnar bucket storage
// ---------------------------------------------------------------------------

/// Maximum number of distinct values a dictionary-encoded string column may
/// hold. The 257th distinct value demotes the column to the plain
/// [`ColumnVec::Str`] layout (see [`DictColumn`]). Low enough that resolving
/// a predicate against the whole dictionary is trivially cheap, high enough
/// to cover every low-cardinality MT-H column (`l_returnflag`,
/// `l_linestatus`, `l_shipmode`, `p_type`, nation/region names).
pub const DICT_MAX_DISTINCT: usize = 256;

/// A dictionary-encoded string column: one `u32` code per row into a shared
/// *sorted* dictionary of distinct values. Because the dictionary is kept
/// sorted, code order equals string order; inserting a new distinct value
/// remaps the existing codes at or above its insertion point (cheap — the
/// dictionary is bounded by [`DICT_MAX_DISTINCT`] entries, so at most that
/// many remap passes ever happen per bucket).
///
/// NULL rows store an arbitrary placeholder code that remap passes may push
/// past the dictionary length; the owning [`Column`]'s null bitmap is checked
/// before any code is interpreted, so placeholder codes are never read as
/// dictionary indices on the query paths.
#[derive(Debug, Clone, Default)]
pub struct DictColumn {
    /// Per-row codes into `dict` (placeholder for NULL rows).
    codes: Vec<u32>,
    /// Sorted distinct values; `Arc`-shared with every reader.
    dict: Vec<Arc<str>>,
}

impl DictColumn {
    /// A dictionary column with `len` placeholder slots (NULL backfill).
    fn with_len(len: usize) -> Self {
        DictColumn {
            codes: vec![0; len],
            dict: Vec::new(),
        }
    }

    /// The per-row code array.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The code of row `row`. Only meaningful for non-NULL rows (NULL slots
    /// hold placeholders) — callers check the null bitmap first.
    #[inline]
    pub fn code(&self, row: usize) -> u32 {
        self.codes[row]
    }

    /// The sorted dictionary of distinct values.
    pub fn dict(&self) -> &[Arc<str>] {
        &self.dict
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `true` when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The code of `value` in the dictionary, when present.
    pub fn lookup(&self, value: &str) -> Option<u32> {
        self.dict
            .binary_search_by(|d| d.as_ref().cmp(value))
            .ok()
            .map(|i| i as u32)
    }

    /// The decoded value of a non-NULL row.
    #[inline]
    pub fn value(&self, row: usize) -> Arc<str> {
        Arc::clone(&self.dict[self.codes[row] as usize])
    }

    /// Append one value, growing the dictionary if needed. Returns `false`
    /// (without appending) when the value would push the dictionary past
    /// [`DICT_MAX_DISTINCT`] — the caller demotes the column to plain layout.
    fn push(&mut self, value: &Arc<str>) -> bool {
        match self
            .dict
            .binary_search_by(|d| d.as_ref().cmp(value.as_ref()))
        {
            Ok(code) => {
                self.codes.push(code as u32);
                true
            }
            Err(at) => {
                if self.dict.len() >= DICT_MAX_DISTINCT {
                    return false;
                }
                // Keep the dictionary sorted: codes at or above the insertion
                // point shift up by one (placeholder codes of NULL rows shift
                // too — harmless, they are never read).
                for code in &mut self.codes {
                    if *code >= at as u32 {
                        *code += 1;
                    }
                }
                self.dict.insert(at, Arc::clone(value));
                self.codes.push(at as u32);
                true
            }
        }
    }

    /// Append a placeholder slot for a NULL row.
    fn push_null(&mut self) {
        self.codes.push(0);
    }

    /// Drop every row past `len` (rollback of appended rows). The dictionary
    /// keeps entries the surviving rows may no longer reference — harmless:
    /// code order still equals string order, and an unreferenced entry just
    /// matches no row.
    fn truncate(&mut self, len: usize) {
        self.codes.truncate(len);
    }

    /// Decode every slot into a plain string array (demotion). Placeholder
    /// codes of NULL rows may be out of range; they decode to an arbitrary
    /// value, masked by the null bitmap exactly like other placeholders.
    fn decode_all(&self) -> Vec<Arc<str>> {
        let fallback: Arc<str> = self.dict.first().cloned().unwrap_or_else(|| Arc::from(""));
        self.codes
            .iter()
            .map(|&c| {
                self.dict
                    .get(c as usize)
                    .cloned()
                    .unwrap_or_else(|| Arc::clone(&fallback))
            })
            .collect()
    }
}

/// One typed column array of a [`ColumnBucket`].
///
/// The variant is decided by the first non-null value stored; a later value
/// of a different runtime type demotes the column to [`ColumnVec::Mixed`]
/// (never produced by the MT-H workloads, but kept correct regardless).
/// NULL slots hold a type-default placeholder; the authoritative null
/// information lives in the owning [`Column`]'s bitmap.
#[derive(Debug, Clone)]
pub enum ColumnVec {
    /// No non-null value seen yet; the column length is tracked by the null
    /// bitmap alone.
    Untyped,
    /// `Value::Int` payloads.
    Int(Vec<i64>),
    /// `Value::Float` payloads.
    Float(Vec<f64>),
    /// `Value::Bool` payloads.
    Bool(Vec<bool>),
    /// `Value::Date` payloads (days since the epoch).
    Date(Vec<i32>),
    /// `Value::Str` payloads (interned, cloning is a pointer bump).
    Str(Vec<Arc<str>>),
    /// Low-cardinality `Value::Str` payloads, dictionary-encoded: `u32`
    /// codes into a shared sorted dictionary. Demotes to [`ColumnVec::Str`]
    /// when the distinct-value count passes [`DICT_MAX_DISTINCT`].
    Dict(DictColumn),
    /// Mixed-type fallback storing the values directly.
    Mixed(Vec<Value>),
}

/// One column of a [`ColumnBucket`]: the typed array plus a null bitmap
/// (bit set ⇒ the slot is SQL NULL).
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnVec,
    nulls: Vec<u64>,
    /// Dictionary-encode low-cardinality string payloads?
    dict: bool,
}

impl Column {
    fn new(dict: bool) -> Self {
        Column {
            data: ColumnVec::Untyped,
            nulls: Vec::new(),
            dict,
        }
    }

    /// Append `value` as row `row` (callers push rows in order, so `row` is
    /// also the column length before the push). Returns the column's
    /// dictionary transition: `+1` when it adopted the dictionary layout,
    /// `-1` when it left it (cardinality or type demotion), `0` otherwise —
    /// the owning [`Table`] keeps its `dict_columns` gauge current from
    /// these deltas instead of re-walking buckets per stats snapshot.
    fn push(&mut self, value: &Value, row: usize) -> i8 {
        if row.is_multiple_of(64) {
            self.nulls.push(0);
        }
        if value.is_null() {
            self.nulls[row / 64] |= 1 << (row % 64);
            match &mut self.data {
                ColumnVec::Untyped => {}
                ColumnVec::Int(xs) => xs.push(0),
                ColumnVec::Float(xs) => xs.push(0.0),
                ColumnVec::Bool(xs) => xs.push(false),
                ColumnVec::Date(xs) => xs.push(0),
                // Any placeholder works (the null bit masks it); reuse an
                // existing Arc so a NULL costs a pointer bump, not an alloc.
                ColumnVec::Str(xs) => {
                    let placeholder = xs.first().cloned().unwrap_or_else(|| Arc::from(""));
                    xs.push(placeholder);
                }
                ColumnVec::Dict(d) => d.push_null(),
                ColumnVec::Mixed(xs) => xs.push(Value::Null),
            }
            return 0;
        }
        let mut delta: i8 = 0;
        if matches!(self.data, ColumnVec::Untyped) {
            // First non-null value: adopt its type, backfilling placeholders
            // for the `row` null slots that preceded it.
            self.data = match value {
                Value::Int(_) => ColumnVec::Int(vec![0; row]),
                Value::Float(_) => ColumnVec::Float(vec![0.0; row]),
                Value::Bool(_) => ColumnVec::Bool(vec![false; row]),
                Value::Date(_) => ColumnVec::Date(vec![0; row]),
                Value::Str(_) if self.dict => {
                    delta = 1;
                    ColumnVec::Dict(DictColumn::with_len(row))
                }
                Value::Str(_) => ColumnVec::Str(vec![Arc::from(""); row]),
                Value::Null => unreachable!("null handled above"),
            };
        }
        match (&mut self.data, value) {
            (ColumnVec::Int(xs), Value::Int(x)) => xs.push(*x),
            (ColumnVec::Float(xs), Value::Float(x)) => xs.push(*x),
            (ColumnVec::Bool(xs), Value::Bool(x)) => xs.push(*x),
            (ColumnVec::Date(xs), Value::Date(x)) => xs.push(*x),
            (ColumnVec::Str(xs), Value::Str(x)) => xs.push(Arc::clone(x)),
            (ColumnVec::Dict(d), Value::Str(x)) => {
                if !d.push(x) {
                    // Cardinality passed the dictionary threshold: demote to
                    // the plain string layout and append there.
                    let mut values = d.decode_all();
                    values.push(Arc::clone(x));
                    self.data = ColumnVec::Str(values);
                    delta -= 1;
                }
            }
            (ColumnVec::Mixed(xs), v) => xs.push(v.clone()),
            // Type mismatch: demote to the mixed layout and retry.
            (_, v) => {
                if matches!(self.data, ColumnVec::Dict(_)) {
                    delta -= 1;
                }
                self.demote_to_mixed(row);
                let ColumnVec::Mixed(xs) = &mut self.data else {
                    unreachable!("demote_to_mixed installs Mixed");
                };
                xs.push(v.clone());
            }
        }
        delta
    }

    /// Rebuild the first `len` slots as a [`ColumnVec::Mixed`] array.
    fn demote_to_mixed(&mut self, len: usize) {
        let values: Vec<Value> = (0..len).map(|i| self.value(i)).collect();
        self.data = ColumnVec::Mixed(values);
    }

    /// Is row `row` NULL in this column?
    #[inline]
    pub fn is_null(&self, row: usize) -> bool {
        (self.nulls[row / 64] >> (row % 64)) & 1 == 1
    }

    /// The value at `row` (owned; cheap — strings are `Arc`-interned).
    pub fn value(&self, row: usize) -> Value {
        if self.is_null(row) {
            return Value::Null;
        }
        match &self.data {
            ColumnVec::Untyped => Value::Null,
            ColumnVec::Int(xs) => Value::Int(xs[row]),
            ColumnVec::Float(xs) => Value::Float(xs[row]),
            ColumnVec::Bool(xs) => Value::Bool(xs[row]),
            ColumnVec::Date(xs) => Value::Date(xs[row]),
            ColumnVec::Str(xs) => Value::Str(Arc::clone(&xs[row])),
            ColumnVec::Dict(d) => Value::Str(d.value(row)),
            ColumnVec::Mixed(xs) => xs[row].clone(),
        }
    }

    /// Drop every row past `len` (rollback of appended rows). The layout is
    /// kept as-is: a dictionary demotion that happened while the dropped rows
    /// were pushed is not re-promoted, matching the recovery convention that
    /// physical layout is never part of the durable state.
    fn truncate(&mut self, len: usize) {
        match &mut self.data {
            ColumnVec::Untyped => {}
            ColumnVec::Int(xs) => xs.truncate(len),
            ColumnVec::Float(xs) => xs.truncate(len),
            ColumnVec::Bool(xs) => xs.truncate(len),
            ColumnVec::Date(xs) => xs.truncate(len),
            ColumnVec::Str(xs) => xs.truncate(len),
            ColumnVec::Dict(d) => d.truncate(len),
            ColumnVec::Mixed(xs) => xs.truncate(len),
        }
        self.nulls.truncate(len.div_ceil(64));
        // Pushes only ever *set* null bits (a fresh word is appended per 64
        // rows), so the dropped rows' bits in the now-partial last word must
        // be cleared here — otherwise rows pushed after the rollback would
        // inherit the dropped rows' null flags.
        if !len.is_multiple_of(64) {
            if let Some(last) = self.nulls.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
    }

    /// The typed array behind this column (kernel input).
    pub fn data(&self) -> &ColumnVec {
        &self.data
    }

    /// Is this column currently dictionary-encoded?
    pub fn is_dict(&self) -> bool {
        matches!(self.data, ColumnVec::Dict(_))
    }
}

/// A partition bucket: one [`Column`] per table column, all of the same
/// length.
#[derive(Debug, Clone)]
pub struct ColumnBucket {
    len: usize,
    columns: Vec<Column>,
}

impl ColumnBucket {
    /// An empty bucket with `width` columns (no dictionary encoding).
    pub fn new(width: usize) -> Self {
        ColumnBucket {
            len: 0,
            columns: (0..width).map(|_| Column::new(false)).collect(),
        }
    }

    /// An empty bucket whose string columns dictionary-encode while their
    /// distinct-value count stays under [`DICT_MAX_DISTINCT`].
    pub fn with_dictionary(width: usize) -> Self {
        ColumnBucket {
            len: 0,
            columns: (0..width).map(|_| Column::new(true)).collect(),
        }
    }

    /// Append one row (arity is the caller's responsibility).
    pub fn push_row(&mut self, row: &[Value]) {
        for (column, value) in self.columns.iter_mut().zip(row) {
            column.push(value, self.len);
        }
        self.len += 1;
    }

    /// Append one row, applying each column's dictionary transition to
    /// `dict_buckets` (per table column: how many of the table's buckets
    /// currently dictionary-encode it). Used by [`Table::push_shared`] to
    /// keep the `dict_columns` gauge current without walking buckets.
    fn push_row_tracked(&mut self, row: &[Value], dict_buckets: &mut [u32]) {
        for (col, (column, value)) in self.columns.iter_mut().zip(row).enumerate() {
            match column.push(value, self.len) {
                1 => dict_buckets[col] += 1,
                -1 => dict_buckets[col] = dict_buckets[col].saturating_sub(1),
                _ => {}
            }
        }
        self.len += 1;
    }

    /// Drop every row past `len` (rollback of appended rows). Layout
    /// transitions are not reverted (see [`Column::truncate`]).
    fn truncate(&mut self, len: usize) {
        for column in &mut self.columns {
            column.truncate(len);
        }
        self.len = len;
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the bucket holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One column by index.
    pub fn column(&self, col: usize) -> &Column {
        &self.columns[col]
    }

    /// Build row `row` as a [`SharedRow`] of the columns `cols`, in that
    /// order (*late materialization* of a scan's projection).
    pub(crate) fn materialize(&self, row: usize, cols: &[usize]) -> SharedRow {
        cols.iter().map(|&c| self.columns[c].value(row)).collect()
    }

    /// Iterate over the bucket's rows, materializing each full-width.
    fn rows(&self) -> impl Iterator<Item = SharedRow> + '_ {
        let all: Vec<usize> = (0..self.columns.len()).collect();
        (0..self.len).map(move |i| self.materialize(i, &all))
    }
}

/// A bucket read through a scan's projection: column `i` of the view is
/// table column `cols[i]` of the bucket. Every scan-side reader — kernels,
/// late materialization, bucket frames, the aggregate's code memo and float
/// kernel — addresses columns through one of these, so column indices are
/// always the scan's output positions.
#[derive(Debug, Clone, Copy)]
pub struct BucketView<'a> {
    bucket: &'a ColumnBucket,
    cols: &'a [usize],
}

impl<'a> BucketView<'a> {
    /// `bucket` read through the projection `cols` (table column indices,
    /// each below the bucket's width).
    pub fn new(bucket: &'a ColumnBucket, cols: &'a [usize]) -> Self {
        BucketView { bucket, cols }
    }

    /// Output column `i`.
    #[inline]
    pub fn column(&self, i: usize) -> &'a Column {
        &self.bucket.columns[self.cols[i]]
    }

    /// The value at (`row`, output column `i`).
    #[inline]
    pub fn value(&self, row: usize, i: usize) -> Value {
        self.column(i).value(row)
    }

    /// Build row `row` of the projection as a [`SharedRow`].
    pub fn materialize(&self, row: usize) -> SharedRow {
        self.bucket.materialize(row, self.cols)
    }

    /// Does materializing a row decode a dictionary — is any projected
    /// column dictionary-encoded in this bucket?
    pub fn decodes_dict(&self) -> bool {
        self.cols.iter().any(|&c| self.bucket.columns[c].is_dict())
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// What a reader is allowed to observe, expressed over mutation epochs.
#[derive(Debug, Clone)]
pub enum Snapshot {
    /// A plain epoch pin: every row stamped at an epoch ≤ the pin is
    /// visible. Used by cursors and by the per-statement committed floor.
    At(u64),
    /// A transaction-scoped pin: the committed floor plus the owning
    /// transaction's *own* uncommitted statement epochs (read-your-writes
    /// without observing other open transactions' staged rows).
    Txn {
        /// The committed floor at read time.
        floor: u64,
        /// The owning transaction's uncommitted epochs.
        own: Arc<BTreeSet<u64>>,
    },
}

impl Snapshot {
    /// Is a row stamped at `epoch` visible to this snapshot?
    pub fn admits(&self, epoch: u64) -> bool {
        match self {
            Snapshot::At(s) => epoch <= *s,
            Snapshot::Txn { floor, own } => epoch <= *floor || own.contains(&epoch),
        }
    }

    /// The plain epoch bound: the pin itself, or the committed floor of a
    /// transaction-scoped snapshot.
    pub fn floor(&self) -> u64 {
        match self {
            Snapshot::At(s) => *s,
            Snapshot::Txn { floor, .. } => *floor,
        }
    }

    /// The visible prefix length of storage carrying `marks` watermarks and
    /// `full` rows: the whole prefix when the last watermark is admitted,
    /// otherwise clipped at the floor. Sound for transaction-scoped
    /// snapshots because the writer locks grant at most one open
    /// transaction per bucket, so every non-admitted mark above the floor
    /// belongs to a single *other* transaction — there is no interleaving
    /// in which an admitted mark sits above a non-admitted one.
    pub fn visible_len(&self, marks: &[(u64, u32)], full: usize) -> usize {
        if marks.last().is_none_or(|&(e, _)| self.admits(e)) {
            return full;
        }
        let floor = self.floor();
        let idx = marks.partition_point(|&(e, _)| e <= floor);
        if idx == 0 {
            0
        } else {
            (marks[idx - 1].1 as usize).min(full)
        }
    }
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

/// Committed pre-rewrite storage, retained while the transaction that
/// issued a destructive rewrite (UPDATE / DELETE) is still open so the
/// committed floor stays servable (see the module docs on rewrite shadows).
#[derive(Debug, Clone, Default)]
pub struct RewriteShadow {
    buckets: BTreeMap<i64, ColumnBucket>,
    loose: Vec<SharedRow>,
    bucket_marks: BTreeMap<i64, Vec<(u64, u32)>>,
    loose_marks: Vec<(u64, u32)>,
    /// The table's rewrite epoch *before* the shadowed rewrite — restored
    /// on rollback, and the bound under which the shadow itself can serve
    /// older pins.
    rewrite_epoch: u64,
    dict_bucket_cols: Vec<u32>,
}

/// An in-memory table: named columns plus rows, optionally bucketed by a
/// partition column into columnar buckets (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table name as registered.
    pub name: String,
    /// Column names, in storage order.
    pub columns: Vec<String>,
    /// Index of the partition column, when declared.
    partition_col: Option<usize>,
    /// Dictionary-encode low-cardinality string columns of the buckets?
    dict: bool,
    /// Per table column: number of partition buckets currently
    /// dictionary-encoding it. Maintained incrementally from the column
    /// transitions reported by pushes (lazily sized on first bucketed push,
    /// cleared with the buckets), so the `dict_columns` stats gauge costs
    /// O(width) instead of a walk over every bucket.
    dict_bucket_cols: Vec<u32>,
    /// Rows bucketed by partition-key value (partitioned tables only).
    buckets: BTreeMap<i64, ColumnBucket>,
    /// Rows of unpartitioned tables, plus rows of partitioned tables whose
    /// partition key is not an integer (never produced by the MT layout, but
    /// kept correct regardless). Row form.
    loose: Vec<SharedRow>,
    /// Per bucket: `(epoch, len)` watermarks in epoch order — the bucket
    /// length after the last push of each writing epoch (see the module
    /// docs on snapshot watermarks).
    bucket_marks: BTreeMap<i64, Vec<(u64, u32)>>,
    /// Watermarks for the loose rows, mirroring `bucket_marks`.
    loose_marks: Vec<(u64, u32)>,
    /// The epoch stamped on subsequent pushes (set by [`Table::begin_write`]).
    write_epoch: u64,
    /// The epoch of the last destructive rewrite ([`Table::take_rows`]);
    /// snapshots pinned before it cannot be served from the live storage.
    rewrite_epoch: u64,
    /// Committed pre-rewrite storage while an open transaction's rewrite is
    /// unpublished (see the module docs on rewrite shadows). Boxed — the
    /// overwhelmingly common state is `None`.
    shadow: Option<Box<RewriteShadow>>,
}

impl Table {
    /// Create an empty, unpartitioned table.
    pub fn new(name: impl Into<String>, columns: Vec<String>) -> Self {
        Table {
            name: name.into(),
            columns,
            partition_col: None,
            dict: false,
            dict_bucket_cols: Vec::new(),
            buckets: BTreeMap::new(),
            loose: Vec::new(),
            bucket_marks: BTreeMap::new(),
            loose_marks: Vec::new(),
            write_epoch: 0,
            rewrite_epoch: 0,
            shadow: None,
        }
    }

    /// Stamp subsequent pushes with `epoch` (the database mutation counter).
    /// Watermarks written at epoch 0 — pushes that never went through a
    /// mutation entry point, e.g. pre-built tables — are visible to every
    /// snapshot.
    pub fn begin_write(&mut self, epoch: u64) {
        self.write_epoch = epoch;
    }

    /// The epoch of the last destructive rewrite. Readers pinned to an
    /// older snapshot must not serve rows from this table.
    pub fn rewrite_epoch(&self) -> u64 {
        self.rewrite_epoch
    }

    /// Force the rewrite epoch (used when a whole pre-built table replaces
    /// this name, which invalidates older snapshots exactly like a rewrite).
    pub fn force_rewrite_epoch(&mut self, epoch: u64) {
        self.rewrite_epoch = self.rewrite_epoch.max(epoch);
    }

    /// Begin a *transactional* destructive rewrite at `epoch`, leaving the
    /// table empty for the re-push. The first rewrite of a transaction
    /// moves the committed storage into the rewrite shadow (so
    /// committed-floor readers stay servable — see the module docs) and
    /// returns `true`; the caller's undo record must restore the shadow via
    /// [`Table::rollback_rewrite`]. A later rewrite of the *same*
    /// transaction (the live storage is already uncommitted) discards the
    /// live storage like [`Table::take_rows`] and returns `false` — the
    /// existing shadow already restores the committed state.
    pub fn begin_txn_rewrite(&mut self, epoch: u64) -> bool {
        self.begin_write(epoch);
        if self.shadow.is_some() {
            self.take_rows();
            return false;
        }
        self.shadow = Some(Box::new(RewriteShadow {
            buckets: std::mem::take(&mut self.buckets),
            loose: std::mem::take(&mut self.loose),
            bucket_marks: std::mem::take(&mut self.bucket_marks),
            loose_marks: std::mem::take(&mut self.loose_marks),
            rewrite_epoch: self.rewrite_epoch,
            dict_bucket_cols: std::mem::take(&mut self.dict_bucket_cols),
        }));
        self.rewrite_epoch = self.rewrite_epoch.max(epoch);
        true
    }

    /// Publish a transactional rewrite: the pre-rewrite shadow is dropped
    /// and the (now committed) rewritten storage is the only copy. Snapshots
    /// pinned before the rewrite become unservable, exactly like a
    /// non-transactional [`Table::take_rows`].
    pub fn publish_rewrite(&mut self) {
        self.shadow = None;
    }

    /// Roll a transactional rewrite back: discard the uncommitted live
    /// storage and restore the committed pre-rewrite storage — including
    /// its watermarks and rewrite epoch, so snapshot cursors pinned before
    /// the aborted transaction keep working as if it never ran.
    pub fn rollback_rewrite(&mut self) {
        if let Some(shadow) = self.shadow.take() {
            let s = *shadow;
            self.buckets = s.buckets;
            self.loose = s.loose;
            self.bucket_marks = s.bucket_marks;
            self.loose_marks = s.loose_marks;
            self.rewrite_epoch = s.rewrite_epoch;
            self.dict_bucket_cols = s.dict_bucket_cols;
        }
    }

    /// Is a pre-rewrite shadow currently retained?
    pub fn has_rewrite_shadow(&self) -> bool {
        self.shadow.is_some()
    }

    /// Can a reader pinned at `snapshot` be served — from the live storage
    /// when the last rewrite is at or below the pin, else from the retained
    /// pre-rewrite shadow of a still-open transaction?
    pub fn snapshot_servable(&self, snapshot: u64) -> bool {
        self.rewrite_epoch <= snapshot
            || self
                .shadow
                .as_ref()
                .is_some_and(|s| s.rewrite_epoch <= snapshot)
    }

    /// Resolve the storage a reader with `snapshot` scans: the live buckets
    /// normally, or the retained pre-rewrite shadow when the snapshot does
    /// not admit an open transaction's rewrite. An unservable pin (no
    /// shadow, or the shadow itself rewritten past the pin) falls back to
    /// the live storage — cursors and the plan verifier reject that case
    /// via [`Table::snapshot_servable`] before scanning, and statement-level
    /// floor pins never reach it (a *committed* rewrite is ≤ the floor by
    /// construction).
    pub fn read_at(&self, snapshot: Option<&Snapshot>) -> TableRead<'_> {
        let shadow = match snapshot {
            Some(s) if !s.admits(self.rewrite_epoch) => self
                .shadow
                .as_deref()
                .filter(|sh| sh.rewrite_epoch <= s.floor()),
            _ => None,
        };
        TableRead {
            table: self,
            shadow,
            snapshot: snapshot.cloned(),
        }
    }

    fn mark(marks: &mut Vec<(u64, u32)>, epoch: u64, len: u32) {
        match marks.last_mut() {
            Some((e, l)) if *e == epoch => *l = len,
            _ => marks.push((epoch, len)),
        }
    }

    /// Rows of bucket `key` visible to `snapshot`: the largest watermark
    /// length recorded at an epoch ≤ `snapshot`. `u64::MAX` (or any epoch
    /// at/after the last write) sees the full bucket.
    pub fn visible_bucket_len(&self, key: i64, snapshot: u64) -> usize {
        let full = self.partition_len(key);
        if snapshot == u64::MAX {
            return full;
        }
        match self.bucket_marks.get(&key).map(Vec::as_slice) {
            None | Some([]) => full,
            Some(marks) => {
                if marks.last().is_some_and(|&(e, _)| e <= snapshot) {
                    return full;
                }
                let idx = marks.partition_point(|&(e, _)| e <= snapshot);
                if idx == 0 {
                    0
                } else {
                    marks[idx - 1].1 as usize
                }
            }
        }
    }

    /// Loose rows visible to `snapshot` (see [`Table::visible_bucket_len`]).
    pub fn visible_loose_len(&self, snapshot: u64) -> usize {
        let full = self.loose.len();
        if snapshot == u64::MAX || self.loose_marks.last().is_none_or(|&(e, _)| e <= snapshot) {
            return full;
        }
        let idx = self.loose_marks.partition_point(|&(e, _)| e <= snapshot);
        if idx == 0 {
            0
        } else {
            self.loose_marks[idx - 1].1 as usize
        }
    }

    /// Index of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Declare (or clear) the partition column by name, re-bucketing any
    /// existing rows. Returns `false` when the column does not exist.
    pub fn set_partition_column(&mut self, column: Option<&str>) -> bool {
        let idx = match column {
            None => None,
            Some(name) => match self.column_index(name) {
                Some(i) => Some(i),
                None => return false,
            },
        };
        if idx == self.partition_col {
            return true;
        }
        let rows = self.take_rows();
        self.partition_col = idx;
        for row in rows {
            self.push_shared(row);
        }
        true
    }

    /// Enable or disable dictionary encoding for the string columns of the
    /// partition buckets, re-encoding any existing rows.
    pub fn set_dictionary(&mut self, dict: bool) {
        if dict == self.dict {
            return;
        }
        self.dict = dict;
        for row in self.take_rows() {
            self.push_shared(row);
        }
    }

    /// Is dictionary encoding enabled for this table's buckets?
    pub fn is_dictionary(&self) -> bool {
        self.dict
    }

    /// Number of columns currently dictionary-encoded in at least one
    /// partition bucket. O(width) — read from the incrementally maintained
    /// per-column bucket counts, not by walking buckets (the stats gauge
    /// reads this on every snapshot, twice per middleware statement).
    pub fn dict_column_count(&self) -> usize {
        self.dict_bucket_cols.iter().filter(|&&c| c > 0).count()
    }

    /// The declared partition column index, if any.
    pub fn partition_column(&self) -> Option<usize> {
        self.partition_col
    }

    /// Number of partition buckets currently holding rows.
    pub fn partition_count(&self) -> usize {
        self.buckets.len()
    }

    /// One partition bucket by key.
    pub fn partition(&self, key: i64) -> Option<&ColumnBucket> {
        self.buckets.get(&key)
    }

    /// Number of rows in one partition bucket (0 for absent keys).
    pub fn partition_len(&self, key: i64) -> usize {
        self.buckets.get(&key).map_or(0, ColumnBucket::len)
    }

    /// Iterate over `(key, bucket)` of every partition bucket, in key order.
    pub fn partitions(&self) -> impl Iterator<Item = (i64, &ColumnBucket)> {
        self.buckets.iter().map(|(k, v)| (*k, v))
    }

    /// Rows that are not held in any partition bucket.
    pub fn loose_rows(&self) -> &[SharedRow] {
        &self.loose
    }

    /// Append a row after checking its arity.
    pub fn push_row(&mut self, row: Row) -> Result<()> {
        if row.len() != self.columns.len() {
            return err(format!(
                "row arity {} does not match table `{}` with {} columns",
                row.len(),
                self.name,
                self.columns.len()
            ));
        }
        self.push_shared(row.into());
        Ok(())
    }

    /// Append an already-shared row, routing it into its partition bucket.
    /// The arity must have been checked by the caller.
    pub fn push_shared(&mut self, row: SharedRow) {
        let epoch = self.write_epoch;
        match self.partition_col {
            Some(idx) => match row.get(idx) {
                Some(Value::Int(key)) => {
                    let key = *key;
                    let width = self.columns.len();
                    let dict = self.dict;
                    if self.dict_bucket_cols.len() != width {
                        self.dict_bucket_cols = vec![0; width];
                    }
                    let bucket = self.buckets.entry(key).or_insert_with(|| {
                        if dict {
                            ColumnBucket::with_dictionary(width)
                        } else {
                            ColumnBucket::new(width)
                        }
                    });
                    bucket.push_row_tracked(&row, &mut self.dict_bucket_cols);
                    let len = bucket.len() as u32;
                    Self::mark(self.bucket_marks.entry(key).or_default(), epoch, len);
                }
                _ => {
                    self.loose.push(row);
                    let len = self.loose.len() as u32;
                    Self::mark(&mut self.loose_marks, epoch, len);
                }
            },
            None => {
                self.loose.push(row);
                let len = self.loose.len() as u32;
                Self::mark(&mut self.loose_marks, epoch, len);
            }
        }
    }

    /// Length and watermark count of bucket `key` (`None` when the bucket
    /// does not exist) — captured *before* a transactional statement appends,
    /// so its undo record can truncate back on rollback.
    pub fn bucket_state(&self, key: i64) -> Option<(u32, u32)> {
        self.buckets.get(&key).map(|b| {
            let marks = self.bucket_marks.get(&key).map_or(0, |m| m.len() as u32);
            (b.len() as u32, marks)
        })
    }

    /// Length and watermark count of the loose rows (see
    /// [`Table::bucket_state`]).
    pub fn loose_state(&self) -> (u32, u32) {
        (self.loose.len() as u32, self.loose_marks.len() as u32)
    }

    /// Undo appends into bucket `key`: drop rows past `len` and watermarks
    /// past `marks`, clamping surviving watermark lengths to the new bucket
    /// length (a later undo step may have rebuilt the bucket with a single
    /// full-length watermark). `existed == false` removes the bucket
    /// entirely — it was created by the statement being undone.
    pub fn truncate_bucket(&mut self, key: i64, existed: bool, len: u32, marks: u32) {
        if !existed {
            if let Some(cols) = self.buckets.remove(&key) {
                for col in 0..self.columns.len() {
                    if cols.column(col).is_dict() {
                        if let Some(c) = self.dict_bucket_cols.get_mut(col) {
                            *c = c.saturating_sub(1);
                        }
                    }
                }
            }
            self.bucket_marks.remove(&key);
            return;
        }
        if let Some(bucket) = self.buckets.get_mut(&key) {
            bucket.truncate(len as usize);
        }
        if let Some(m) = self.bucket_marks.get_mut(&key) {
            m.truncate(marks as usize);
            for (_, l) in m.iter_mut() {
                *l = (*l).min(len);
            }
        }
    }

    /// Undo appends to the loose rows (see [`Table::truncate_bucket`]).
    pub fn truncate_loose(&mut self, len: u32, marks: u32) {
        self.loose.truncate(len as usize);
        self.loose_marks.truncate(marks as usize);
        for (_, l) in self.loose_marks.iter_mut() {
            *l = (*l).min(len);
        }
    }

    /// Iterate over all rows: partition buckets in key order (materialized
    /// on the fly), then loose rows.
    pub fn rows(&self) -> impl Iterator<Item = SharedRow> + '_ {
        self.buckets
            .values()
            .flat_map(ColumnBucket::rows)
            .chain(self.loose.iter().cloned())
    }

    /// Remove and return every row, leaving the table empty (used by DML that
    /// rewrites the row set; re-inserting re-buckets and re-encodes).
    pub fn take_rows(&mut self) -> Vec<SharedRow> {
        let mut out: Vec<SharedRow> = Vec::with_capacity(self.len());
        for bucket in std::mem::take(&mut self.buckets).into_values() {
            out.extend(bucket.rows());
        }
        // No buckets left ⇒ no dictionary-encoded columns left.
        self.dict_bucket_cols.clear();
        out.append(&mut self.loose);
        // The old storage is gone: snapshots pinned before this epoch can
        // no longer be served, and the watermarks restart with the re-push.
        self.bucket_marks.clear();
        self.loose_marks.clear();
        self.rewrite_epoch = self.rewrite_epoch.max(self.write_epoch);
        out
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.buckets.values().map(ColumnBucket::len).sum::<usize>() + self.loose.len()
    }

    /// `true` when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.loose.is_empty() && self.buckets.values().all(ColumnBucket::is_empty)
    }
}

/// One table's storage as resolved for a reader by [`Table::read_at`]:
/// either the live buckets or an open transaction's pre-rewrite shadow,
/// with visible lengths bounded at the reader's snapshot. Every scan path
/// (serial, morsel-parallel, streaming cursors) routes bucket selection
/// through this view so storage choice and snapshot bounding can never
/// drift apart.
#[derive(Clone)]
pub struct TableRead<'t> {
    table: &'t Table,
    /// Read the shadow instead of the live storage?
    shadow: Option<&'t RewriteShadow>,
    /// Bound visible lengths at this snapshot (`None` = live, unbounded).
    snapshot: Option<Snapshot>,
}

impl<'t> TableRead<'t> {
    fn buckets(&self) -> &'t BTreeMap<i64, ColumnBucket> {
        match self.shadow {
            Some(s) => &s.buckets,
            None => &self.table.buckets,
        }
    }

    fn bucket_marks(&self, key: i64) -> &'t [(u64, u32)] {
        let marks = match self.shadow {
            Some(s) => &s.bucket_marks,
            None => &self.table.bucket_marks,
        };
        marks.get(&key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterate over `(key, bucket)` of every partition bucket, in key order.
    pub fn partitions(&self) -> impl Iterator<Item = (i64, &'t ColumnBucket)> + '_ {
        self.buckets().iter().map(|(k, b)| (*k, b))
    }

    /// Number of partition buckets in the resolved storage.
    pub fn partition_count(&self) -> usize {
        self.buckets().len()
    }

    /// Rows of bucket `key` visible to the reader's snapshot.
    pub fn visible_bucket_len(&self, key: i64) -> usize {
        let full = self.buckets().get(&key).map_or(0, ColumnBucket::len);
        match &self.snapshot {
            None => full,
            Some(s) => s.visible_len(self.bucket_marks(key), full),
        }
    }

    /// The loose rows of the resolved storage (unbounded — pair with
    /// [`TableRead::visible_loose_len`]).
    pub fn loose_rows(&self) -> &'t [SharedRow] {
        match self.shadow {
            Some(s) => &s.loose,
            None => &self.table.loose,
        }
    }

    /// Loose rows visible to the reader's snapshot.
    pub fn visible_loose_len(&self) -> usize {
        let (marks, full) = match self.shadow {
            Some(s) => (s.loose_marks.as_slice(), s.loose.len()),
            None => (self.table.loose_marks.as_slice(), self.table.loose.len()),
        };
        match &self.snapshot {
            None => full,
            Some(s) => s.visible_len(marks, full),
        }
    }
}

/// The database: a set of tables and views, keyed case-insensitively.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    views: BTreeMap<String, Query>,
    /// Mutation counter: bumped once per engine mutation, stamped onto the
    /// rows that mutation pushes (via [`Table::begin_write`]) and pinned by
    /// snapshot readers. Epoch 0 is "before any tracked mutation".
    epoch: u64,
    /// Epochs allocated by statements of still-open transactions. Readers
    /// outside those transactions pin [`Database::committed_epoch`], which
    /// stays below every unresolved epoch.
    uncommitted: BTreeSet<u64>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current mutation epoch — what a snapshot reader pins.
    pub fn current_epoch(&self) -> u64 {
        self.epoch
    }

    /// Advance the mutation epoch and return the new value (stamped onto
    /// the rows the mutation is about to push).
    pub fn bump_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Advance the epoch for a transactional statement whose commit is still
    /// pending: the epoch is registered as uncommitted, holding the
    /// committed visibility floor below it until the transaction resolves.
    pub fn begin_uncommitted_epoch(&mut self) -> u64 {
        let epoch = self.bump_epoch();
        self.uncommitted.insert(epoch);
        epoch
    }

    /// The newest epoch every reader outside a transaction may observe: one
    /// below the oldest unresolved transaction epoch, or the current epoch
    /// when no transaction is open. Snapshot readers pin this instead of
    /// [`Database::current_epoch`], so uncommitted (and later rolled-back)
    /// rows are never visible to them.
    pub fn committed_epoch(&self) -> u64 {
        match self.uncommitted.first() {
            Some(&e) => e - 1,
            None => self.epoch,
        }
    }

    /// Are any transaction epochs unresolved?
    pub fn has_uncommitted(&self) -> bool {
        !self.uncommitted.is_empty()
    }

    /// Resolve a transaction's epochs (on commit *or* rollback): they stop
    /// holding down the committed visibility floor.
    pub fn resolve_epochs(&mut self, epochs: &[u64]) {
        for e in epochs {
            self.uncommitted.remove(e);
        }
    }

    /// Create (or replace) a table.
    pub fn create_table(&mut self, name: impl Into<String>, columns: Vec<String>) {
        let name = name.into();
        self.tables
            .insert(name.to_ascii_lowercase(), Table::new(name, columns));
    }

    /// Drop a table; returns whether it existed.
    pub fn drop_table(&mut self, name: &str) -> bool {
        self.tables.remove(&name.to_ascii_lowercase()).is_some()
    }

    /// Get a table by name.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or(())
            .or_else(|_| err(format!("no such table `{name}`")))
    }

    /// Get a mutable table by name.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or(())
            .or_else(|_| err(format!("no such table `{name}`")))
    }

    /// Does a table with that name exist?
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }

    /// Iterate over all tables.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Register (or replace) a view.
    pub fn create_view(&mut self, name: impl Into<String>, query: Query) {
        self.views.insert(name.into().to_ascii_lowercase(), query);
    }

    /// Drop a view; returns whether it existed.
    pub fn drop_view(&mut self, name: &str) -> bool {
        self.views.remove(&name.to_ascii_lowercase()).is_some()
    }

    /// Get a view definition by name.
    pub fn view(&self, name: &str) -> Option<&Query> {
        self.views.get(&name.to_ascii_lowercase())
    }

    /// Does a view with that name exist?
    pub fn has_view(&self, name: &str) -> bool {
        self.views.contains_key(&name.to_ascii_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup_is_case_insensitive() {
        let mut db = Database::new();
        db.create_table("Employees", vec!["a".into(), "b".into()]);
        assert!(db.has_table("employees"));
        assert_eq!(db.table("EMPLOYEES").unwrap().columns.len(), 2);
        assert!(db.table("nope").is_err());
    }

    #[test]
    fn push_row_checks_arity() {
        let mut t = Table::new("t", vec!["a".into(), "b".into()]);
        assert!(t.push_row(vec![Value::Int(1), Value::Int(2)]).is_ok());
        assert!(t.push_row(vec![Value::Int(1)]).is_err());
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn views_are_stored_and_dropped() {
        let mut db = Database::new();
        let q = mtsql::parse_query("SELECT 1").unwrap();
        db.create_view("v", q);
        assert!(db.view("V").is_some());
        assert!(db.drop_view("v"));
        assert!(db.view("v").is_none());
    }

    #[test]
    fn drop_table() {
        let mut db = Database::new();
        db.create_table("t", vec!["a".into()]);
        assert!(db.drop_table("T"));
        assert!(!db.drop_table("t"));
    }

    #[test]
    fn column_index_lookup() {
        let t = Table::new("t", vec!["Alpha".into(), "beta".into()]);
        assert_eq!(t.column_index("alpha"), Some(0));
        assert_eq!(t.column_index("BETA"), Some(1));
        assert_eq!(t.column_index("gamma"), None);
    }

    fn tenant_row(t: i64, v: i64) -> Row {
        vec![Value::Int(t), Value::Int(v)]
    }

    #[test]
    fn partitioning_buckets_rows_by_key() {
        let mut t = Table::new("t", vec!["ttid".into(), "v".into()]);
        assert!(t.set_partition_column(Some("TTID")));
        for (tenant, v) in [(1, 10), (2, 20), (1, 11), (3, 30)] {
            t.push_row(tenant_row(tenant, v)).unwrap();
        }
        assert_eq!(t.partition_count(), 3);
        assert_eq!(t.partition_len(1), 2);
        assert_eq!(t.partition_len(2), 1);
        assert_eq!(t.partition_len(99), 0);
        assert_eq!(t.len(), 4);
        assert!(t.loose_rows().is_empty());
    }

    #[test]
    fn declaring_partition_late_rebuckets_existing_rows() {
        let mut t = Table::new("t", vec!["ttid".into(), "v".into()]);
        t.push_row(tenant_row(1, 10)).unwrap();
        t.push_row(tenant_row(2, 20)).unwrap();
        assert_eq!(t.partition_count(), 0);
        assert!(t.set_partition_column(Some("ttid")));
        assert_eq!(t.partition_count(), 2);
        assert!(t.loose_rows().is_empty());
        // clearing the partition moves rows back to loose storage
        assert!(t.set_partition_column(None));
        assert_eq!(t.partition_count(), 0);
        assert_eq!(t.loose_rows().len(), 2);
    }

    #[test]
    fn non_integer_partition_keys_fall_back_to_loose_rows() {
        let mut t = Table::new("t", vec!["ttid".into(), "v".into()]);
        t.set_partition_column(Some("ttid"));
        t.push_row(vec![Value::str("odd"), Value::Int(1)]).unwrap();
        t.push_row(tenant_row(1, 10)).unwrap();
        assert_eq!(t.loose_rows().len(), 1);
        assert_eq!(t.partition_len(1), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn unknown_partition_column_is_rejected() {
        let mut t = Table::new("t", vec!["a".into()]);
        assert!(!t.set_partition_column(Some("nope")));
        assert_eq!(t.partition_column(), None);
    }

    #[test]
    fn take_rows_empties_all_storage() {
        let mut t = Table::new("t", vec!["ttid".into(), "v".into()]);
        t.set_partition_column(Some("ttid"));
        t.push_row(tenant_row(1, 10)).unwrap();
        t.push_row(tenant_row(2, 20)).unwrap();
        let rows = t.take_rows();
        assert_eq!(rows.len(), 2);
        assert!(t.is_empty());
        assert_eq!(t.partition_count(), 0);
    }

    fn columnar_table() -> Table {
        let mut t = Table::new("t", vec!["ttid".into(), "v".into(), "s".into()]);
        t.set_partition_column(Some("ttid"));
        t
    }

    #[test]
    fn columnar_roundtrip_preserves_rows_and_order() {
        let mut t = columnar_table();
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::Int(10), Value::str("a")],
            vec![Value::Int(2), Value::Float(0.5), Value::str("b")],
            vec![Value::Int(1), Value::Int(11), Value::Null],
        ];
        for r in rows.clone() {
            t.push_row(r).unwrap();
        }
        let bucket1 = t.partition(1).unwrap();
        assert_eq!(bucket1.len(), 2);
        assert_eq!(
            bucket1.materialize(1, &[0, 1, 2]).as_ref(),
            rows[2].as_slice()
        );
        // A projection builds only its columns, in its order.
        let narrow = BucketView::new(bucket1, &[2, 0]);
        assert_eq!(
            narrow.materialize(0).as_ref(),
            &[Value::str("a"), Value::Int(1)]
        );
        assert!(!narrow.decodes_dict());
        // The full-row iterator materializes in bucket order.
        let all: Vec<Vec<Value>> = t.rows().map(|r| r.to_vec()).collect();
        assert_eq!(all, vec![rows[0].clone(), rows[2].clone(), rows[1].clone()]);
    }

    #[test]
    fn columnar_mixed_type_column_demotes_without_losing_values() {
        let mut t = columnar_table();
        t.push_row(vec![Value::Int(1), Value::Int(10), Value::str("a")])
            .unwrap();
        // `v` flips from Int to Str: the column demotes to Mixed.
        t.push_row(vec![Value::Int(1), Value::str("oops"), Value::str("b")])
            .unwrap();
        let bucket = t.partition(1).unwrap();
        assert!(matches!(bucket.column(1).data(), ColumnVec::Mixed(_)));
        assert_eq!(bucket.column(1).value(0), Value::Int(10));
        assert_eq!(bucket.column(1).value(1), Value::str("oops"));
    }

    #[test]
    fn columnar_nulls_before_first_typed_value_are_backfilled() {
        let mut t = columnar_table();
        t.push_row(vec![Value::Int(1), Value::Null, Value::Null])
            .unwrap();
        t.push_row(vec![Value::Int(1), Value::Int(7), Value::str("x")])
            .unwrap();
        let bucket = t.partition(1).unwrap();
        assert!(bucket.column(1).is_null(0));
        assert!(!bucket.column(1).is_null(1));
        assert_eq!(bucket.column(1).value(0), Value::Null);
        assert_eq!(bucket.column(1).value(1), Value::Int(7));
        assert_eq!(bucket.column(2).value(0), Value::Null);
        assert_eq!(bucket.column(2).value(1), Value::str("x"));
    }

    fn dict_table() -> Table {
        let mut t = Table::new("t", vec!["ttid".into(), "s".into()]);
        t.set_partition_column(Some("ttid"));
        t.set_dictionary(true);
        t
    }

    #[test]
    fn dictionary_encodes_low_cardinality_strings_sorted() {
        let mut t = dict_table();
        for s in ["MAIL", "SHIP", "AIR", "MAIL", "RAIL", "AIR"] {
            t.push_row(vec![Value::Int(1), Value::str(s)]).unwrap();
        }
        let bucket = t.partition(1).unwrap();
        let ColumnVec::Dict(d) = bucket.column(1).data() else {
            panic!(
                "expected a dictionary column, got {:?}",
                bucket.column(1).data()
            );
        };
        // The dictionary is sorted and deduplicated; code order = string order.
        let dict: Vec<&str> = d.dict().iter().map(|s| s.as_ref()).collect();
        assert_eq!(dict, vec!["AIR", "MAIL", "RAIL", "SHIP"]);
        assert_eq!(d.codes(), &[1, 3, 0, 1, 2, 0]);
        assert_eq!(d.lookup("RAIL"), Some(2));
        assert_eq!(d.lookup("TRUCK"), None);
        // Decoded values round-trip through the generic reader.
        assert_eq!(bucket.column(1).value(1), Value::str("SHIP"));
        assert_eq!(t.dict_column_count(), 1);
    }

    #[test]
    fn dictionary_handles_nulls_and_preserves_rows() {
        let mut t = dict_table();
        // NULLs before the first value, between values, and an empty string.
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(1), Value::str("b")],
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(1), Value::str("")],
            vec![Value::Int(1), Value::str("a")],
        ];
        for r in rows.clone() {
            t.push_row(r).unwrap();
        }
        let all: Vec<Vec<Value>> = t.rows().map(|r| r.to_vec()).collect();
        assert_eq!(all, rows);
        let bucket = t.partition(1).unwrap();
        assert!(bucket.column(1).is_null(0));
        assert!(bucket.column(1).is_null(2));
        assert_eq!(bucket.column(1).value(3), Value::str(""));
    }

    #[test]
    fn dictionary_demotes_past_the_distinct_threshold() {
        let mut t = dict_table();
        let rows: Vec<Row> = (0..=DICT_MAX_DISTINCT as i64)
            .map(|i| vec![Value::Int(1), Value::str(format!("v{i:05}"))])
            .collect();
        for (n, r) in rows.clone().into_iter().enumerate() {
            t.push_row(r).unwrap();
            let bucket = t.partition(1).unwrap();
            let is_dict = bucket.column(1).is_dict();
            // Exactly the (threshold + 1)-th distinct value demotes.
            assert_eq!(is_dict, n < DICT_MAX_DISTINCT, "after {} rows", n + 1);
        }
        let bucket = t.partition(1).unwrap();
        assert!(matches!(bucket.column(1).data(), ColumnVec::Str(_)));
        assert_eq!(t.dict_column_count(), 0);
        // Every value survived the demotion, in order.
        let all: Vec<Vec<Value>> = t.rows().map(|r| r.to_vec()).collect();
        assert_eq!(all, rows);
    }

    #[test]
    fn dictionary_demotion_keeps_null_slots_null() {
        let mut t = dict_table();
        t.push_row(vec![Value::Int(1), Value::Null]).unwrap();
        for i in 0..=DICT_MAX_DISTINCT as i64 {
            t.push_row(vec![Value::Int(1), Value::str(format!("v{i:05}"))])
                .unwrap();
        }
        let bucket = t.partition(1).unwrap();
        assert!(matches!(bucket.column(1).data(), ColumnVec::Str(_)));
        assert_eq!(bucket.column(1).value(0), Value::Null);
        assert_eq!(bucket.column(1).value(1), Value::str("v00000"));
    }

    #[test]
    fn dictionary_column_demotes_to_mixed_on_type_flip() {
        let mut t = dict_table();
        t.push_row(vec![Value::Int(1), Value::str("a")]).unwrap();
        t.push_row(vec![Value::Int(1), Value::Int(7)]).unwrap();
        let bucket = t.partition(1).unwrap();
        assert!(matches!(bucket.column(1).data(), ColumnVec::Mixed(_)));
        assert_eq!(bucket.column(1).value(0), Value::str("a"));
        assert_eq!(bucket.column(1).value(1), Value::Int(7));
    }

    #[test]
    fn set_dictionary_re_encodes_existing_buckets_both_ways() {
        let mut t = Table::new("t", vec!["ttid".into(), "s".into()]);
        t.set_partition_column(Some("ttid"));
        for s in ["x", "y", "x"] {
            t.push_row(vec![Value::Int(1), Value::str(s)]).unwrap();
        }
        let before: Vec<Vec<Value>> = t.rows().map(|r| r.to_vec()).collect();
        assert_eq!(t.dict_column_count(), 0);
        t.set_dictionary(true);
        assert_eq!(t.dict_column_count(), 1);
        assert_eq!(t.rows().map(|r| r.to_vec()).collect::<Vec<_>>(), before);
        t.set_dictionary(false);
        assert_eq!(t.dict_column_count(), 0);
        assert_eq!(t.rows().map(|r| r.to_vec()).collect::<Vec<_>>(), before);
    }

    #[test]
    fn snapshot_watermarks_bound_visible_rows() {
        let mut t = Table::new("t", vec!["ttid".into(), "v".into()]);
        t.set_partition_column(Some("ttid"));
        t.begin_write(1);
        t.push_row(tenant_row(1, 10)).unwrap();
        t.push_row(tenant_row(1, 11)).unwrap();
        t.begin_write(3);
        t.push_row(tenant_row(1, 12)).unwrap();
        t.push_row(tenant_row(2, 20)).unwrap();
        // Snapshot 1 sees only epoch-1 rows; bucket 2 does not exist yet.
        assert_eq!(t.visible_bucket_len(1, 1), 2);
        assert_eq!(t.visible_bucket_len(1, 2), 2);
        assert_eq!(t.visible_bucket_len(2, 1), 0);
        // Snapshot 3 (and "current") see everything.
        assert_eq!(t.visible_bucket_len(1, 3), 3);
        assert_eq!(t.visible_bucket_len(2, 3), 1);
        assert_eq!(t.visible_bucket_len(1, u64::MAX), 3);
        // Snapshot 0 predates every tracked write.
        assert_eq!(t.visible_bucket_len(1, 0), 0);
    }

    #[test]
    fn snapshot_watermarks_cover_loose_rows() {
        let mut t = Table::new("t", vec!["a".into()]);
        t.begin_write(2);
        t.push_row(vec![Value::Int(1)]).unwrap();
        t.begin_write(5);
        t.push_row(vec![Value::Int(2)]).unwrap();
        assert_eq!(t.visible_loose_len(1), 0);
        assert_eq!(t.visible_loose_len(2), 1);
        assert_eq!(t.visible_loose_len(4), 1);
        assert_eq!(t.visible_loose_len(5), 2);
        assert_eq!(t.visible_loose_len(u64::MAX), 2);
    }

    #[test]
    fn take_rows_records_the_rewrite_epoch() {
        let mut t = Table::new("t", vec!["ttid".into(), "v".into()]);
        t.set_partition_column(Some("ttid"));
        t.begin_write(1);
        t.push_row(tenant_row(1, 10)).unwrap();
        assert_eq!(t.rewrite_epoch(), 0);
        t.begin_write(4);
        let rows = t.take_rows();
        assert_eq!(t.rewrite_epoch(), 4);
        // Re-pushed rows watermark at the rewriting epoch: older snapshots
        // are invalidated, the rewriter's own snapshot sees everything.
        for row in rows {
            t.push_shared(row);
        }
        assert_eq!(t.visible_bucket_len(1, 4), 1);
    }

    #[test]
    fn snapshot_visible_len_clips_at_the_floor() {
        let at = Snapshot::At(5);
        assert_eq!(at.visible_len(&[(3, 2), (5, 4)], 4), 4, "tail admitted");
        assert_eq!(at.visible_len(&[(3, 2), (7, 4)], 4), 2, "clip at floor");
        assert_eq!(at.visible_len(&[(7, 4)], 4), 0, "nothing admitted");
        assert_eq!(at.visible_len(&[], 3), 3, "pre-watermark storage");
        let own = std::sync::Arc::new(std::collections::BTreeSet::from([8u64]));
        let txn = Snapshot::Txn { floor: 5, own };
        assert!(txn.admits(5) && txn.admits(8) && !txn.admits(7));
        // A bucket our transaction wrote last is fully visible; a bucket
        // another open transaction wrote last clips at the floor.
        assert_eq!(txn.visible_len(&[(3, 2), (8, 4)], 4), 4);
        assert_eq!(txn.visible_len(&[(3, 2), (7, 4)], 4), 2);
    }

    #[test]
    fn txn_rewrite_shadow_serves_floor_readers_and_rolls_back() {
        let mut t = Table::new("t", vec!["ttid".into(), "v".into()]);
        t.set_partition_column(Some("ttid"));
        t.begin_write(1);
        t.push_row(tenant_row(1, 10)).unwrap();
        t.push_row(tenant_row(1, 11)).unwrap();
        // First transactional rewrite (epoch 3): committed storage moves
        // into the shadow; the caller pushes the replacement row set.
        assert!(t.begin_txn_rewrite(3));
        t.push_row(tenant_row(1, 110)).unwrap();
        let pinned = Snapshot::At(1);
        let view = t.read_at(Some(&pinned));
        assert_eq!(view.visible_bucket_len(1), 2, "floor reads the shadow");
        assert_eq!(
            t.read_at(None).visible_bucket_len(1),
            1,
            "live reads the rewrite"
        );
        // A second rewrite in the same transaction reuses the shadow.
        assert!(!t.begin_txn_rewrite(4));
        assert!(t.has_rewrite_shadow());
        t.rollback_rewrite();
        assert!(!t.has_rewrite_shadow());
        assert_eq!(t.rewrite_epoch(), 0, "rewrite epoch restored");
        assert_eq!(t.partition_len(1), 2, "committed rows restored");
        assert!(t.snapshot_servable(1));
    }

    #[test]
    fn publishing_a_txn_rewrite_drops_the_shadow() {
        let mut t = Table::new("t", vec!["ttid".into(), "v".into()]);
        t.set_partition_column(Some("ttid"));
        t.begin_write(1);
        t.push_row(tenant_row(1, 10)).unwrap();
        assert!(t.begin_txn_rewrite(3));
        t.push_row(tenant_row(1, 110)).unwrap();
        t.publish_rewrite();
        assert!(!t.has_rewrite_shadow());
        assert_eq!(t.partition_len(1), 1);
        // The commit makes the rewrite real: snapshots from before it are
        // now invalid, exactly like a non-transactional rewrite.
        assert!(!t.snapshot_servable(1));
        assert!(t.snapshot_servable(3));
    }
}
