//! Conjunct analysis and compiled scan predicates, shared by the planner and
//! the executor.
//!
//! The WHERE clause of a rewritten query is handled as a pool of top-level
//! AND conjuncts (split by [`mtsql::visit::split_conjuncts`]). This module
//! answers the questions the planner asks about individual conjuncts:
//! against which schemas they resolve, which of them form equi-join keys,
//! which restrict a partition column to a computable key set, and what a
//! column-free expression folds to without running the executor.
//!
//! It also owns the *compiled* predicate forms a scan evaluates per row
//! ([`CompiledPred`], produced by the executor's predicate compiler) and
//! their **column kernels**: [`eval_vectorized_range`] applies one compiled
//! predicate to a whole [`crate::table::ColumnBucket`] column at a time, narrowing a
//! [`Selection`] bitmap, so bucket scans touch only the predicate columns
//! and materialize full rows for the surviving row ids alone.

use std::cmp::Ordering;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use mtsql::ast::{BinaryOperator, ColumnRef, Expr, FunctionCall};
use mtsql::visit::{collect_aggregate_calls, collect_columns, contains_param, contains_subquery};

use crate::bound::BoundExpr;
use crate::schema::Schema;
use crate::table::{BucketView, ColumnVec};
use crate::value::Value;

/// `true` when every column referenced by `expr` resolves in `schema`.
pub fn expr_resolvable(expr: &Expr, schema: &Schema) -> bool {
    let mut cols = Vec::new();
    collect_columns(expr, &mut cols);
    cols.iter().all(|c| schema.resolve(c).is_some())
}

/// Does the expression reference any column at all?
pub fn has_columns(expr: &Expr) -> bool {
    let mut cols = Vec::new();
    collect_columns(expr, &mut cols);
    !cols.is_empty()
}

/// Remove (and return) every conjunct that is sub-query free and fully
/// resolvable against `schema` — the ones a scan of that schema may evaluate
/// itself.
pub fn take_applicable(conjuncts: &mut Vec<Expr>, schema: &Schema) -> Vec<Expr> {
    let mut taken = Vec::new();
    conjuncts.retain(|c| {
        if !contains_subquery(c) && expr_resolvable(c, schema) {
            taken.push(c.clone());
            false
        } else {
            true
        }
    });
    taken
}

/// Find equi-join keys between two schemas among the conjuncts: conjuncts of
/// the form `lhs = rhs` where one side resolves fully in `left` and the other
/// fully in `right`. Returns pairs `(left key expr, right key expr)`.
pub fn equi_join_keys(conjuncts: &[Expr], left: &Schema, right: &Schema) -> Vec<(Expr, Expr)> {
    let mut keys = Vec::new();
    for c in conjuncts {
        if let Expr::BinaryOp {
            left: l,
            op: BinaryOperator::Eq,
            right: r,
        } = c
        {
            if contains_subquery(c) {
                continue;
            }
            let l_in_left = expr_resolvable(l, left) && has_columns(l);
            let l_in_right = expr_resolvable(l, right) && has_columns(l);
            let r_in_left = expr_resolvable(r, left) && has_columns(r);
            let r_in_right = expr_resolvable(r, right) && has_columns(r);
            if l_in_left && r_in_right && !l_in_right {
                keys.push(((**l).clone(), (**r).clone()));
            } else if r_in_left && l_in_right && !r_in_right {
                keys.push(((**r).clone(), (**l).clone()));
            }
        }
    }
    keys
}

/// Is this conjunct one of the equalities a hash join consumed as a key pair?
pub fn is_consumed_equi_key(conjunct: &Expr, keys: &[(Expr, Expr)]) -> bool {
    keys.iter().any(|(l, r)| {
        matches!(conjunct, Expr::BinaryOp { left, op: BinaryOperator::Eq, right }
            if (**left == *l && **right == *r) || (**left == *r && **right == *l))
    })
}

/// The set of partition keys a conjunct restricts the partition column to, or
/// `None` when the conjunct is not a recognizable key predicate
/// (`col = constant` / `col IN (constants)` on the partition column). The
/// `fold` callback evaluates candidate key expressions to constants — the
/// planner passes the executor's `fold_key` (bind, then evaluate)
/// so pruning recognises every constant form a scan filter would.
pub fn partition_keys_of_conjunct(
    conjunct: &Expr,
    schema: &Schema,
    partition_col: usize,
    fold: &dyn Fn(&Expr) -> Option<Value>,
) -> Option<BTreeSet<i64>> {
    let is_partition_column =
        |e: &Expr| matches!(e, Expr::Column(c) if schema.resolve(c) == Some(partition_col));
    match conjunct {
        Expr::BinaryOp {
            left,
            op: BinaryOperator::Eq,
            right,
        } => {
            let key_expr = if is_partition_column(left) {
                right
            } else if is_partition_column(right) {
                left
            } else {
                return None;
            };
            match fold(key_expr)? {
                Value::Int(k) => Some([k].into_iter().collect()),
                _ => None,
            }
        }
        Expr::InList {
            expr,
            list,
            negated: false,
        } if is_partition_column(expr) => {
            let mut keys = BTreeSet::new();
            for item in list {
                match fold(item)? {
                    Value::Int(k) => {
                        keys.insert(k);
                    }
                    _ => return None,
                }
            }
            Some(keys)
        }
        _ => None,
    }
}

/// Is this conjunct a partition-key predicate whose key expressions involve
/// parameter placeholders (`ttid = $1`, `ttid IN ($1, 3)`)? Such a conjunct
/// cannot prune at plan time — the parameter value is unknown — but
/// re-resolves to a concrete key set at execution time once parameters are
/// bound (see the executor's effective-prune-keys computation). The key side
/// must be column- and sub-query-free so binding alone makes it constant.
pub fn is_param_partition_key_conjunct(
    conjunct: &Expr,
    schema: &Schema,
    partition_col: usize,
) -> bool {
    let is_partition_column =
        |e: &Expr| matches!(e, Expr::Column(c) if schema.resolve(c) == Some(partition_col));
    let bindable_const = |e: &Expr| !has_columns(e) && !contains_subquery(e);
    match conjunct {
        Expr::BinaryOp {
            left,
            op: BinaryOperator::Eq,
            right,
        } => {
            (is_partition_column(left) && bindable_const(right) && contains_param(right))
                || (is_partition_column(right) && bindable_const(left) && contains_param(left))
        }
        Expr::InList {
            expr,
            list,
            negated: false,
        } if is_partition_column(expr) => {
            list.iter().all(bindable_const) && list.iter().any(contains_param)
        }
        _ => false,
    }
}

/// Does the expression contain an aggregate call (outside sub-queries)?
pub fn contains_aggregate(expr: &Expr) -> bool {
    let mut calls = Vec::new();
    collect_aggregate_calls(expr, &mut calls);
    !calls.is_empty()
}

/// Rebuild `expr` with every column reference replaced through `subst`;
/// `None` when any substitution fails. Sub-query variants are rejected — the
/// callers only pass sub-query-free conjuncts.
pub fn map_columns(expr: &Expr, subst: &mut dyn FnMut(&ColumnRef) -> Option<Expr>) -> Option<Expr> {
    let map_box = |e: &Expr, s: &mut dyn FnMut(&ColumnRef) -> Option<Expr>| -> Option<Box<Expr>> {
        map_columns(e, s).map(Box::new)
    };
    Some(match expr {
        Expr::Column(c) => return subst(c),
        Expr::Literal(l) => Expr::Literal(l.clone()),
        Expr::Param(i) => Expr::Param(*i),
        Expr::BinaryOp { left, op, right } => Expr::BinaryOp {
            left: map_box(left, subst)?,
            op: *op,
            right: map_box(right, subst)?,
        },
        Expr::UnaryOp { op, expr } => Expr::UnaryOp {
            op: *op,
            expr: map_box(expr, subst)?,
        },
        Expr::Function(f) => Expr::Function(FunctionCall {
            name: f.name.clone(),
            args: f
                .args
                .iter()
                .map(|a| map_columns(a, subst))
                .collect::<Option<Vec<_>>>()?,
            distinct: f.distinct,
        }),
        Expr::Case {
            operand,
            when_then,
            else_expr,
        } => Expr::Case {
            operand: match operand {
                Some(o) => Some(map_box(o, subst)?),
                None => None,
            },
            when_then: when_then
                .iter()
                .map(|(w, t)| Some((map_columns(w, subst)?, map_columns(t, subst)?)))
                .collect::<Option<Vec<_>>>()?,
            else_expr: match else_expr {
                Some(e) => Some(map_box(e, subst)?),
                None => None,
            },
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: map_box(expr, subst)?,
            list: list
                .iter()
                .map(|i| map_columns(i, subst))
                .collect::<Option<Vec<_>>>()?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: map_box(expr, subst)?,
            low: map_box(low, subst)?,
            high: map_box(high, subst)?,
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: map_box(expr, subst)?,
            pattern: map_box(pattern, subst)?,
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: map_box(expr, subst)?,
            negated: *negated,
        },
        Expr::Extract { field, expr } => Expr::Extract {
            field: *field,
            expr: map_box(expr, subst)?,
        },
        Expr::Substring {
            expr,
            start,
            length,
        } => Expr::Substring {
            expr: map_box(expr, subst)?,
            start: map_box(start, subst)?,
            length: match length {
                Some(l) => Some(map_box(l, subst)?),
                None => None,
            },
        },
        Expr::Cast { expr, data_type } => Expr::Cast {
            expr: map_box(expr, subst)?,
            data_type: *data_type,
        },
        Expr::Exists { .. } | Expr::InSubquery { .. } | Expr::ScalarSubquery(_) => return None,
    })
}

// ---------------------------------------------------------------------------
// Compiled scan predicates
// ---------------------------------------------------------------------------

/// One conjunct of a scan filter, pre-lowered for per-row evaluation. All
/// variants except [`CompiledPred::Generic`] are pure value comparisons:
/// `Send + Sync`, no engine access — the forms parallel scans may evaluate
/// on worker threads and bucket scans may evaluate as column kernels.
#[derive(Debug, Clone)]
pub enum CompiledPred {
    /// `column <cmp> constant` with a pre-resolved column index.
    Compare {
        /// Column index into the scan schema.
        idx: usize,
        /// The comparison operator (normalized so the column is on the left).
        op: BinaryOperator,
        /// The pre-folded constant operand.
        value: Value,
    },
    /// `column [NOT] IN (constants)`.
    InSet {
        /// Column index into the scan schema.
        idx: usize,
        /// The pre-folded constant list.
        values: Vec<Value>,
        /// `NOT IN` when set.
        negated: bool,
    },
    /// `column [NOT] BETWEEN constant AND constant`.
    Between {
        /// Column index into the scan schema.
        idx: usize,
        /// Pre-folded lower bound.
        lo: Value,
        /// Pre-folded upper bound.
        hi: Value,
        /// `NOT BETWEEN` when set.
        negated: bool,
    },
    /// `column [NOT] LIKE 'literal'` with a precompiled pattern.
    Like {
        /// Column index into the scan schema.
        idx: usize,
        /// The precompiled pattern.
        pattern: Arc<LikePattern>,
        /// `NOT LIKE` when set.
        negated: bool,
    },
    /// `column ∈ key set` — the probe-side membership kernel of a
    /// decorrelated semi join: the build side's key values, shared as a hash
    /// set and probed per row *before* materialization (the "bloom" filter
    /// of the unnested plan; exact, not approximate). Never produced by the
    /// predicate compiler — the executor injects it into the probe scan's
    /// filter. NULL never matches (the set holds no NULLs, and a NULL probe
    /// key cannot equal anything).
    KeySet {
        /// Column index into the scan schema.
        idx: usize,
        /// The build-side key values (one key column's projection).
        set: Arc<HashSet<Value>>,
    },
    /// Any other conjunct (no kernel form): its bound expression, evaluated
    /// per surviving row.
    Generic(BoundExpr),
}

impl CompiledPred {
    /// `true` for the pure pre-compiled forms (everything but `Generic`) —
    /// the predicates that may run on worker threads and as column kernels.
    pub fn is_fast(&self) -> bool {
        !matches!(self, CompiledPred::Generic(_))
    }

    /// The pre-resolved column index of a fast predicate form; `None` for
    /// the generic fallback. Lets callers that read columns individually
    /// (streaming cursors) fetch only the predicate's column.
    pub fn column_index(&self) -> Option<usize> {
        match self {
            CompiledPred::Compare { idx, .. }
            | CompiledPred::InSet { idx, .. }
            | CompiledPred::Between { idx, .. }
            | CompiledPred::Like { idx, .. }
            | CompiledPred::KeySet { idx, .. } => Some(*idx),
            CompiledPred::Generic(_) => None,
        }
    }
}

/// Does the operator hold for the given concrete ordering?
#[inline]
fn ord_matches(op: BinaryOperator, ord: Ordering) -> bool {
    match op {
        BinaryOperator::Eq => ord == Ordering::Equal,
        BinaryOperator::NotEq => ord != Ordering::Equal,
        BinaryOperator::Lt => ord == Ordering::Less,
        BinaryOperator::LtEq => ord != Ordering::Greater,
        BinaryOperator::Gt => ord == Ordering::Greater,
        BinaryOperator::GtEq => ord != Ordering::Less,
        _ => unreachable!("predicate compilation only emits comparisons"),
    }
}

/// SQL comparison outcome: an incomparable pair (NULL involved) is false.
#[inline]
fn ord_opt_matches(op: BinaryOperator, ord: Option<Ordering>) -> bool {
    ord.is_some_and(|o| ord_matches(op, o))
}

/// SQL three-valued `v [NOT] BETWEEN lo AND hi`, reduced to the WHERE-clause
/// outcome (UNKNOWN filters the row). `inside` is evaluated as
/// `(v >= lo) AND (v <= hi)` under three-valued logic: a NULL or otherwise
/// incomparable operand makes a leg UNKNOWN, a definite `false` leg makes the
/// whole AND false, and `NOT` maps UNKNOWN to UNKNOWN — so NULL rows satisfy
/// neither `BETWEEN` nor `NOT BETWEEN`, matching PostgreSQL. This is the
/// single definition all three evaluation paths (bound evaluator, compiled
/// row predicates, column kernels) share.
#[inline]
pub fn between_matches(v: &Value, lo: &Value, hi: &Value, negated: bool) -> bool {
    let ge = v.compare(lo).map(|o| o != Ordering::Less);
    let le = v.compare(hi).map(|o| o != Ordering::Greater);
    let inside = match (ge, le) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    };
    match inside {
        Some(b) => b != negated,
        None => false,
    }
}

/// SQL three-valued `v [NOT] IN (items)`, reduced to the WHERE-clause
/// outcome (UNKNOWN filters the row): a match decides, and a miss is UNKNOWN
/// when `v` or any item is NULL — so `2 NOT IN (1, NULL)` selects nothing,
/// like PostgreSQL. The one definition the bound evaluator's sub-query `IN`,
/// the compiled row predicate and (through it) every column kernel share.
pub fn in_list_matches<'v>(
    v: &Value,
    items: impl IntoIterator<Item = &'v Value>,
    negated: bool,
) -> bool {
    if v.is_null() {
        return false;
    }
    let mut saw_null = false;
    for item in items {
        if v.sql_eq(item) == Some(true) {
            return !negated;
        }
        saw_null |= item.is_null();
    }
    negated && !saw_null
}

/// Evaluate one *fast* compiled predicate against a single value (the value
/// of the predicate's column in some row). Panics on
/// [`CompiledPred::Generic`] — callers route those through the bound
/// evaluator.
pub fn fast_pred_value(pred: &CompiledPred, v: &Value) -> bool {
    match pred {
        CompiledPred::Compare { op, value, .. } => ord_opt_matches(*op, v.compare(value)),
        CompiledPred::InSet {
            values, negated, ..
        } => in_list_matches(v, values, *negated),
        CompiledPred::Between {
            lo, hi, negated, ..
        } => between_matches(v, lo, hi, *negated),
        CompiledPred::Like {
            pattern, negated, ..
        } => match v.as_str() {
            Some(text) => pattern.matches(text) != *negated,
            None => false,
        },
        CompiledPred::KeySet { set, .. } => !v.is_null() && set.contains(v),
        CompiledPred::Generic(_) => unreachable!("fast paths only run compiled predicates"),
    }
}

/// Evaluate one *fast* compiled predicate against a row.
pub fn fast_pred_matches(pred: &CompiledPred, row: &[Value]) -> bool {
    let idx = match pred {
        CompiledPred::Compare { idx, .. }
        | CompiledPred::InSet { idx, .. }
        | CompiledPred::Between { idx, .. }
        | CompiledPred::Like { idx, .. }
        | CompiledPred::KeySet { idx, .. } => *idx,
        CompiledPred::Generic(_) => unreachable!("fast paths only run compiled predicates"),
    };
    fast_pred_value(pred, &row[idx])
}

/// `true` when every fast predicate accepts the row (parallel scan workers).
pub fn fast_filter_matches(filter: &[CompiledPred], row: &[Value]) -> bool {
    filter.iter().all(|p| fast_pred_matches(p, row))
}

/// Mirror a comparison operator for swapped operands (`5 < x` ⇒ `x > 5`).
pub(crate) fn flip_comparison(op: BinaryOperator) -> BinaryOperator {
    match op {
        BinaryOperator::Lt => BinaryOperator::Gt,
        BinaryOperator::LtEq => BinaryOperator::GtEq,
        BinaryOperator::Gt => BinaryOperator::Lt,
        BinaryOperator::GtEq => BinaryOperator::LtEq,
        other => other,
    }
}

/// A SQL LIKE pattern (`%` and `_` wildcards) precompiled to its character
/// sequence, so matching a row does not re-collect the pattern.
#[derive(Debug, Clone)]
pub struct LikePattern {
    chars: Vec<char>,
}

impl LikePattern {
    /// Compile a pattern.
    pub fn new(pattern: &str) -> Self {
        LikePattern {
            chars: pattern.chars().collect(),
        }
    }

    /// Match a text against the pattern.
    pub fn matches(&self, text: &str) -> bool {
        fn rec(t: &[char], p: &[char]) -> bool {
            if p.is_empty() {
                return t.is_empty();
            }
            match p[0] {
                '%' => {
                    // Try consuming 0..=len characters.
                    (0..=t.len()).any(|k| rec(&t[k..], &p[1..]))
                }
                '_' => !t.is_empty() && rec(&t[1..], &p[1..]),
                c => !t.is_empty() && t[0] == c && rec(&t[1..], &p[1..]),
            }
        }
        let t: Vec<char> = text.chars().collect();
        rec(&t, &self.chars)
    }
}

/// SQL LIKE pattern matching with `%` and `_` wildcards (one-shot form; hot
/// paths precompile via [`LikePattern`]).
pub fn like_match(text: &str, pattern: &str) -> bool {
    LikePattern::new(pattern).matches(text)
}

// ---------------------------------------------------------------------------
// Selection bitmaps and column kernels
// ---------------------------------------------------------------------------

/// A selection bitmap over the rows of one bucket: bit set ⇒ the row is still
/// selected. Kernels narrow the selection predicate by predicate; the
/// surviving row ids are the ones a bucket scan materializes.
#[derive(Debug, Clone)]
pub struct Selection {
    words: Vec<u64>,
    len: usize,
}

impl Selection {
    /// A selection with all `len` rows selected.
    pub fn all(len: usize) -> Self {
        let mut words = vec![!0u64; len.div_ceil(64)];
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        Selection { words, len }
    }

    /// Number of rows the selection ranges over.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the selection ranges over no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of rows still selected.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Keep only the selected rows for which `keep` holds.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if !keep(w * 64 + b) {
                    *word &= !(1u64 << b);
                }
            }
        }
    }

    /// Every selected row id, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + b
                })
            })
        })
    }

    /// Visit every selected row id, in ascending order.
    pub fn for_each(&self, f: impl FnMut(usize)) {
        self.iter().for_each(f)
    }

    /// Narrow the selection word-at-a-time: for every 64-row chunk whose
    /// word still has a bit set, `mask(chunk_start, chunk_len)` returns the
    /// match bitmap of rows `chunk_start .. chunk_start + chunk_len` (bit
    /// `k` set ⇒ row `chunk_start + k` matches), which is ANDed in. Chunks
    /// earlier predicates already emptied are skipped without evaluating
    /// `mask` — the word-level form of short-circuiting a conjunction.
    /// Kernels build the mask with branchless 64-lane loops the compiler
    /// can unroll and autovectorize.
    pub fn narrow_words(&mut self, mut mask: impl FnMut(usize, usize) -> u64) {
        for (w, word) in self.words.iter_mut().enumerate() {
            if *word == 0 {
                continue;
            }
            let start = w * 64;
            *word &= mask(start, (self.len - start).min(64));
        }
    }
}

/// Build the match mask of one 64-lane chunk: bit `k` is set when row
/// `offset + start + k` of the column is non-null and `pred` holds for its
/// value. No early exit and no data-dependent branches — the predicate
/// outcome is accumulated as a bit — so the loop autovectorizes over the
/// typed column array.
#[inline]
fn chunk_mask<T: Copy>(
    vals: &[T],
    is_null: impl Fn(usize) -> bool,
    offset: usize,
    start: usize,
    len: usize,
    pred: impl Fn(T) -> bool,
) -> u64 {
    let mut m = 0u64;
    for k in 0..len {
        let i = offset + start + k;
        m |= ((!is_null(i) && pred(vals[i])) as u64) << k;
    }
    m
}

/// The match bitmap of one fast compiled predicate over a dictionary: entry
/// `c` is the predicate's outcome for dictionary value `c`. Resolving the
/// predicate costs one [`fast_pred_value`] call *per distinct value* (≤
/// [`crate::table::DICT_MAX_DISTINCT`]) instead of one per row — this is the
/// code-space form of equality, IN, BETWEEN-on-strings and LIKE. Because each
/// entry is computed by the row path's own [`fast_pred_value`], the bitmap is
/// result-identical to per-row evaluation by construction.
pub fn dict_filter_bitmap(pred: &CompiledPred, dict: &[Arc<str>]) -> Vec<bool> {
    dict.iter()
        .map(|s| fast_pred_value(pred, &Value::Str(Arc::clone(s))))
        .collect()
}

/// Apply one fast compiled predicate to the row range
/// `[offset, offset + sel.len())` of a bucket, narrowing `sel`
/// (whose bit `i` stands for bucket row `offset + i`) to the rows that
/// satisfy it. Morsel workers evaluate their row range this way without
/// copying columns. Returns the number of rows evaluated *in code space*
/// (dictionary-encoded columns: the predicate is resolved against the
/// dictionary once via [`dict_filter_bitmap`] and rows compare codes) — 0
/// for every other column layout; callers feed it into the
/// `dict_kernel_rows` counter.
///
/// The dictionary and typed numeric/date kernels run through
/// [`Selection::narrow_words`]: branchless 64-lane chunk loops over the raw
/// `u32` code / `i64` / `f64` / day-number arrays that the compiler can
/// autovectorize, with already-empty selection words skipped entirely. They
/// mirror [`Value::compare`] exactly for their (column type, constant type)
/// pair; string kernels and every other combination fall back to a
/// per-value loop — the string fallbacks chase heap pointers, and
/// [`fast_pred_value`] is the same code as the row path — so bucket and
/// loose-row scans are result-identical by construction. NULL slots follow the
/// row path's three-valued semantics: they never satisfy a comparison, IN,
/// LIKE, BETWEEN or NOT BETWEEN (the comparison is UNKNOWN and UNKNOWN rows
/// are filtered, see [`between_matches`]).
///
/// Panics on [`CompiledPred::Generic`]; the executor interprets those against
/// late-materialized rows instead.
pub fn eval_vectorized_range(
    pred: &CompiledPred,
    bucket: BucketView,
    offset: usize,
    sel: &mut Selection,
) -> u64 {
    // Dictionary-encoded predicate columns take the code-space kernel for
    // every predicate form: resolve once against the dictionary, compare
    // codes per row. NULL slots hold placeholder codes (always in-bounds),
    // so the chunk loop may index the bitmap before the null bit wins.
    if let Some(idx) = pred.column_index() {
        let col = bucket.column(idx);
        if let ColumnVec::Dict(d) = col.data() {
            let bitmap = dict_filter_bitmap(pred, d.dict());
            let evaluated = sel.count() as u64;
            let codes = d.codes();
            sel.narrow_words(|start, len| {
                chunk_mask(
                    codes,
                    |i| col.is_null(i),
                    offset,
                    start,
                    len,
                    |c| bitmap[c as usize],
                )
            });
            return evaluated;
        }
    }
    match pred {
        CompiledPred::Compare { idx, op, value } => {
            let col = bucket.column(*idx);
            let op = *op;
            match (col.data(), value) {
                (ColumnVec::Int(xs), Value::Int(k)) => {
                    let k = *k;
                    sel.narrow_words(|s, l| {
                        chunk_mask(
                            xs,
                            |i| col.is_null(i),
                            offset,
                            s,
                            l,
                            |x| ord_matches(op, x.cmp(&k)),
                        )
                    });
                }
                (ColumnVec::Int(xs), Value::Float(f)) => {
                    let f = *f;
                    sel.narrow_words(|s, l| {
                        chunk_mask(
                            xs,
                            |i| col.is_null(i),
                            offset,
                            s,
                            l,
                            |x| ord_opt_matches(op, (x as f64).partial_cmp(&f)),
                        )
                    });
                }
                (ColumnVec::Float(xs), Value::Int(k)) => {
                    let k = *k as f64;
                    sel.narrow_words(|s, l| {
                        chunk_mask(
                            xs,
                            |i| col.is_null(i),
                            offset,
                            s,
                            l,
                            |x| ord_opt_matches(op, x.partial_cmp(&k)),
                        )
                    });
                }
                (ColumnVec::Float(xs), Value::Float(f)) => {
                    let f = *f;
                    sel.narrow_words(|s, l| {
                        chunk_mask(
                            xs,
                            |i| col.is_null(i),
                            offset,
                            s,
                            l,
                            |x| ord_opt_matches(op, x.partial_cmp(&f)),
                        )
                    });
                }
                (ColumnVec::Date(xs), Value::Date(d)) => {
                    let d = *d;
                    sel.narrow_words(|s, l| {
                        chunk_mask(
                            xs,
                            |i| col.is_null(i),
                            offset,
                            s,
                            l,
                            |x| ord_matches(op, x.cmp(&d)),
                        )
                    });
                }
                (ColumnVec::Date(xs), Value::Int(k)) => {
                    let k = *k;
                    sel.narrow_words(|s, l| {
                        chunk_mask(
                            xs,
                            |i| col.is_null(i),
                            offset,
                            s,
                            l,
                            |x| ord_matches(op, (x as i64).cmp(&k)),
                        )
                    });
                }
                (ColumnVec::Str(xs), Value::Str(s)) => {
                    let s: &str = s;
                    sel.retain(|i| {
                        let i = offset + i;
                        !col.is_null(i) && ord_matches(op, xs[i].as_ref().cmp(s))
                    });
                }
                _ => sel.retain(|i| fast_pred_value(pred, &col.value(offset + i))),
            }
        }
        CompiledPred::Between {
            idx,
            lo,
            hi,
            negated,
        } => {
            let col = bucket.column(*idx);
            let negated = *negated;
            // NULL rows mirror the row path's three-valued logic: the
            // comparison is UNKNOWN, and UNKNOWN filters the row for both
            // BETWEEN and NOT BETWEEN (see [`between_matches`]).
            match (col.data(), lo, hi) {
                (ColumnVec::Int(xs), Value::Int(lo), Value::Int(hi)) => {
                    let (lo, hi) = (*lo, *hi);
                    sel.narrow_words(|s, l| {
                        chunk_mask(
                            xs,
                            |i| col.is_null(i),
                            offset,
                            s,
                            l,
                            |x| (x >= lo && x <= hi) != negated,
                        )
                    });
                }
                // NaN bounds make every comparison UNKNOWN — leave those to
                // the generic fallback; a NaN *value* is likewise UNKNOWN
                // and filtered for both polarities, matching the row path.
                (ColumnVec::Float(xs), Value::Float(lo), Value::Float(hi))
                    if !lo.is_nan() && !hi.is_nan() =>
                {
                    let (lo, hi) = (*lo, *hi);
                    sel.narrow_words(|s, l| {
                        chunk_mask(
                            xs,
                            |i| col.is_null(i),
                            offset,
                            s,
                            l,
                            |x| !x.is_nan() && ((x >= lo && x <= hi) != negated),
                        )
                    });
                }
                (ColumnVec::Date(xs), Value::Date(lo), Value::Date(hi)) => {
                    let (lo, hi) = (*lo, *hi);
                    sel.narrow_words(|s, l| {
                        chunk_mask(
                            xs,
                            |i| col.is_null(i),
                            offset,
                            s,
                            l,
                            |x| (x >= lo && x <= hi) != negated,
                        )
                    });
                }
                _ => sel.retain(|i| fast_pred_value(pred, &col.value(offset + i))),
            }
        }
        CompiledPred::InSet {
            idx,
            values,
            negated,
        } => {
            let col = bucket.column(*idx);
            let negated = *negated;
            // The typed kernels take NULL-free lists only (a miss is then
            // plainly false); a NULL item makes every miss UNKNOWN, which
            // the `in_list_matches` fallback — and the dictionary bitmap
            // above — apply.
            match col.data() {
                ColumnVec::Int(xs) if values.iter().all(|v| matches!(v, Value::Int(_))) => {
                    let set: Vec<i64> = values
                        .iter()
                        .filter_map(|v| match v {
                            Value::Int(k) => Some(*k),
                            _ => None,
                        })
                        .collect();
                    sel.narrow_words(|s, l| {
                        chunk_mask(
                            xs,
                            |i| col.is_null(i),
                            offset,
                            s,
                            l,
                            |x| set.contains(&x) != negated,
                        )
                    });
                }
                ColumnVec::Str(xs) if values.iter().all(|v| matches!(v, Value::Str(_))) => {
                    sel.retain(|i| {
                        let i = offset + i;
                        if col.is_null(i) {
                            return false;
                        }
                        let found = values
                            .iter()
                            .any(|v| matches!(v, Value::Str(s) if s.as_ref() == xs[i].as_ref()));
                        found != negated
                    });
                }
                _ => sel.retain(|i| fast_pred_value(pred, &col.value(offset + i))),
            }
        }
        CompiledPred::Like {
            idx,
            pattern,
            negated,
        } => {
            let col = bucket.column(*idx);
            let negated = *negated;
            match col.data() {
                ColumnVec::Str(xs) => {
                    sel.retain(|i| {
                        let i = offset + i;
                        !col.is_null(i) && (pattern.matches(&xs[i]) != negated)
                    });
                }
                _ => sel.retain(|i| fast_pred_value(pred, &col.value(offset + i))),
            }
        }
        CompiledPred::KeySet { idx, set } => {
            let col = bucket.column(*idx);
            match col.data() {
                // Typed numeric/date lanes probe the shared set per value;
                // `Value`'s `Hash`/`Eq` coerce Int and Float consistently
                // with join-key equality, so the kernel matches the exact
                // post-materialization membership check row for row.
                ColumnVec::Int(xs) => {
                    sel.narrow_words(|s, l| {
                        chunk_mask(
                            xs,
                            |i| col.is_null(i),
                            offset,
                            s,
                            l,
                            |x| set.contains(&Value::Int(x)),
                        )
                    });
                }
                ColumnVec::Date(xs) => {
                    sel.narrow_words(|s, l| {
                        chunk_mask(
                            xs,
                            |i| col.is_null(i),
                            offset,
                            s,
                            l,
                            |x| set.contains(&Value::Date(x)),
                        )
                    });
                }
                ColumnVec::Str(xs) => {
                    sel.retain(|i| {
                        let i = offset + i;
                        !col.is_null(i) && set.contains(&Value::Str(Arc::clone(&xs[i])))
                    });
                }
                _ => sel.retain(|i| fast_pred_value(pred, &col.value(offset + i))),
            }
        }
        CompiledPred::Generic(_) => unreachable!("column kernels only run compiled predicates"),
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtsql::parse_expression;

    fn schema() -> Schema {
        Schema::qualified("t", &["ttid".into(), "v".into()])
    }

    /// The production fold: bind against the empty schema, evaluate the
    /// constant, over an empty engine (what the planner passes in).
    fn with_fold(check: impl FnOnce(&dyn Fn(&Expr) -> Option<Value>)) {
        let engine = crate::Engine::new(crate::EngineConfig::default());
        let ctx = crate::stats::StmtCtx::new();
        let executor = crate::exec::Executor::new(&engine, &ctx);
        check(&|e: &Expr| executor.fold_key(e));
    }

    #[test]
    fn take_applicable_consumes_resolvable_conjuncts() {
        let mut pool = vec![
            parse_expression("t.v > 10").unwrap(),
            parse_expression("other.x = 1").unwrap(),
            parse_expression("v IN (SELECT v FROM s)").unwrap(),
        ];
        let taken = take_applicable(&mut pool, &schema());
        assert_eq!(taken.len(), 1);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn partition_keys_from_eq_and_in() {
        with_fold(|fold| {
            let s = schema();
            let eq = parse_expression("t.ttid = 3").unwrap();
            assert_eq!(
                partition_keys_of_conjunct(&eq, &s, 0, fold),
                Some([3].into_iter().collect())
            );
            let folded = parse_expression("ttid = 1 + 2").unwrap();
            assert_eq!(
                partition_keys_of_conjunct(&folded, &s, 0, fold),
                Some([3].into_iter().collect())
            );
            let cast = parse_expression("ttid = CAST('4' AS INTEGER)").unwrap();
            assert_eq!(
                partition_keys_of_conjunct(&cast, &s, 0, fold),
                Some([4].into_iter().collect())
            );
            let inl = parse_expression("ttid IN (1, 2, 5)").unwrap();
            assert_eq!(
                partition_keys_of_conjunct(&inl, &s, 0, fold),
                Some([1, 2, 5].into_iter().collect())
            );
            let other = parse_expression("v = 3").unwrap();
            assert_eq!(partition_keys_of_conjunct(&other, &s, 0, fold), None);
            let column_bound = parse_expression("ttid = v + 1").unwrap();
            assert_eq!(partition_keys_of_conjunct(&column_bound, &s, 0, fold), None);
        });
    }

    #[test]
    fn map_columns_substitutes_everywhere() {
        let e =
            parse_expression("x BETWEEN 1 AND 10 AND SUBSTRING(x FROM 1 FOR 2) = 'ab'").unwrap();
        let replacement = parse_expression("base.col * 2").unwrap();
        let mapped = map_columns(&e, &mut |_| Some(replacement.clone())).unwrap();
        let mut cols = Vec::new();
        collect_columns(&mapped, &mut cols);
        assert!(cols.iter().all(|c| c.name == "col"));
    }

    #[test]
    fn selection_bitmap_counts_retains_and_iterates() {
        // Spanning more than one 64-bit word, with a ragged tail.
        let mut sel = Selection::all(70);
        assert_eq!(sel.len(), 70);
        assert_eq!(sel.count(), 70);
        sel.retain(|i| i % 3 == 0);
        assert_eq!(sel.count(), 24);
        let mut seen = Vec::new();
        sel.for_each(|i| seen.push(i));
        assert_eq!(seen.first(), Some(&0));
        assert_eq!(seen.last(), Some(&69));
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "ascending order");
        // A second retain only ever narrows.
        sel.retain(|i| i >= 30);
        assert_eq!(seen.iter().filter(|i| **i >= 30).count(), sel.count());
        assert!(Selection::all(0).is_empty());
    }

    /// SQL three-valued logic: a NULL operand satisfies neither BETWEEN nor
    /// NOT BETWEEN (the comparison is UNKNOWN and WHERE filters it), and a
    /// NULL *bound* only decides the outcome when the other leg already
    /// fails. Pinned here for the compiled row form; the kernel-equivalence
    /// test below pins the column kernels to this, and the engine-level
    /// `not_between_filters_null_rows_on_every_path` test pins the
    /// bound evaluator.
    #[test]
    fn null_rows_satisfy_neither_between_nor_not_between() {
        let inside = CompiledPred::Between {
            idx: 0,
            lo: Value::Int(1),
            hi: Value::Int(10),
            negated: false,
        };
        let outside = CompiledPred::Between {
            idx: 0,
            lo: Value::Int(1),
            hi: Value::Int(10),
            negated: true,
        };
        assert!(!fast_pred_value(&inside, &Value::Null));
        assert!(!fast_pred_value(&outside, &Value::Null), "NOT BETWEEN 3VL");
        // Non-null sanity.
        assert!(fast_pred_value(&inside, &Value::Int(5)));
        assert!(!fast_pred_value(&outside, &Value::Int(5)));
        assert!(fast_pred_value(&outside, &Value::Int(11)));
        // NULL bound: `5 NOT BETWEEN NULL AND 10` is UNKNOWN (filtered),
        // but `11 NOT BETWEEN NULL AND 10` is definitely true (false leg).
        let null_lo = CompiledPred::Between {
            idx: 0,
            lo: Value::Null,
            hi: Value::Int(10),
            negated: true,
        };
        assert!(!fast_pred_value(&null_lo, &Value::Int(5)));
        assert!(fast_pred_value(&null_lo, &Value::Int(11)));
    }

    /// The same rows stored three ways — a dictionary-encoded bucket, a plain
    /// bucket and the loose row store of an unpartitioned table — must yield
    /// identical survivors for every fast predicate form. The loose store
    /// evaluates [`fast_filter_matches`] per row and is the reference; the
    /// buckets run the column kernels. Covers NULLs (three-valued logic: a
    /// NULL satisfies neither polarity), NaN, type promotion, incomparable
    /// constants, mixed-type and NaN bounds (generic fallback), the empty
    /// string, and string order through the sorted dictionary.
    #[test]
    fn kernels_match_the_loose_row_reference() {
        use crate::table::{ColumnBucket, Table};

        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::Float(0.05), Value::str("MAIL")],
            vec![Value::Int(24), Value::Null, Value::str("SHIP")],
            vec![Value::Null, Value::Float(0.07), Value::str("TRUCK")],
            vec![Value::Int(-3), Value::Float(0.061), Value::Null],
            vec![Value::Int(100), Value::Float(-1.0), Value::str("MAILBOX")],
            // NaN is UNKNOWN in every comparison: filtered by BETWEEN and
            // NOT BETWEEN alike, on every layout.
            vec![Value::Int(7), Value::Float(f64::NAN), Value::str("AIR")],
            vec![Value::Int(2), Value::Float(0.5), Value::str("")],
            vec![Value::Int(3), Value::Float(0.06), Value::str("MAIL")],
        ];
        let mut dict = ColumnBucket::with_dictionary(3);
        let mut plain = ColumnBucket::new(3);
        let mut loose = Table::new("t", vec!["a".into(), "b".into(), "s".into()]);
        for r in &rows {
            dict.push_row(r);
            plain.push_row(r);
            loose.push_row(r.clone()).unwrap();
        }
        // Otherwise the dictionary leg silently degenerates to the plain one.
        assert!(dict.column(2).is_dict() && !plain.column(2).is_dict());
        assert_eq!(loose.loose_rows().len(), rows.len());

        let compare = |idx, op, value| CompiledPred::Compare { idx, op, value };
        let between = |idx, lo, hi, negated| CompiledPred::Between {
            idx,
            lo,
            hi,
            negated,
        };
        let in_set = |negated| CompiledPred::InSet {
            idx: 2,
            values: vec![Value::str("MAIL"), Value::str("SHIP")],
            negated,
        };
        // A NULL item makes every miss UNKNOWN: `NOT IN` selects no row.
        let in_null_set = |idx, v: Value, negated| CompiledPred::InSet {
            idx,
            values: vec![v, Value::Null],
            negated,
        };
        let like = |pattern: &str, negated| CompiledPred::Like {
            idx: 2,
            pattern: Arc::new(LikePattern::new(pattern)),
            negated,
        };
        let key_set = |idx, keys: Vec<Value>| CompiledPred::KeySet {
            idx,
            set: Arc::new(keys.into_iter().collect()),
        };
        let preds = vec![
            compare(0, BinaryOperator::Lt, Value::Int(24)),
            // Int column vs Float constant promotes, like Value::compare.
            compare(0, BinaryOperator::GtEq, Value::Float(0.5)),
            compare(2, BinaryOperator::Eq, Value::str("MAIL")),
            compare(2, BinaryOperator::NotEq, Value::str("MAIL")),
            // String order (through the sorted dictionary on the dict leg).
            compare(2, BinaryOperator::Lt, Value::str("MAILZ")),
            // Incomparable constant: UNKNOWN for every row.
            compare(2, BinaryOperator::Eq, Value::Int(5)),
            between(1, Value::Float(0.05), Value::Float(0.07), false),
            between(1, Value::Float(0.05), Value::Float(0.07), true),
            // Mixed-type bounds take the generic fallback.
            between(1, Value::Int(0), Value::Float(0.065), true),
            // A NaN bound makes the comparison UNKNOWN for every row; the
            // kernel must defer to the generic fallback and agree.
            between(1, Value::Float(f64::NAN), Value::Float(1.0), true),
            between(0, Value::Int(0), Value::Int(50), true),
            between(2, Value::str("AIR"), Value::str("MAILZ"), false),
            between(2, Value::str("AIR"), Value::str("MAILZ"), true),
            in_set(false),
            in_set(true),
            in_null_set(2, Value::str("MAIL"), false),
            in_null_set(2, Value::str("MAIL"), true),
            in_null_set(0, Value::Int(24), false),
            in_null_set(0, Value::Int(24), true),
            like("MAIL%", false),
            like("MAIL%", true),
            // Empty pattern matches only the empty string.
            like("", false),
            key_set(0, vec![Value::Int(7), Value::Int(24)]),
            key_set(2, vec![Value::str("AIR"), Value::str("")]),
        ];
        for pred in &preds {
            let reference: Vec<usize> = (0..rows.len())
                .filter(|&i| {
                    fast_filter_matches(std::slice::from_ref(pred), &loose.loose_rows()[i])
                })
                .collect();
            if let CompiledPred::InSet {
                values, negated, ..
            } = pred
            {
                // The reference itself: a NULL-bearing NOT IN holds nowhere.
                let null_item = values.iter().any(Value::is_null);
                assert!(!(null_item && *negated) || reference.is_empty(), "{pred:?}");
            }
            for (label, bucket) in [("dict", &dict), ("plain", &plain)] {
                let mut sel = Selection::all(rows.len());
                let whole = BucketView::new(bucket, &[0, 1, 2]);
                let code_space_rows = eval_vectorized_range(pred, whole, 0, &mut sel);
                let mut hits = Vec::new();
                sel.for_each(|i| hits.push(i));
                assert_eq!(hits, reference, "{label} kernel disagrees for {pred:?}");
                // Code space engages exactly on dictionary-encoded columns.
                let on_dict_column = label == "dict" && pred.column_index() == Some(2);
                let expected = if on_dict_column { rows.len() as u64 } else { 0 };
                assert_eq!(code_space_rows, expected, "{label}: {pred:?}");
            }
        }
    }

    /// `narrow_words` skips chunks earlier predicates already emptied (the
    /// mask closure never sees them) and masks the ragged tail exactly like
    /// `retain`.
    #[test]
    fn narrow_words_skips_dead_words_and_masks_tail() {
        let mut sel = Selection::all(70);
        sel.retain(|i| i < 5); // word 1 (rows 64..70) goes empty
        let mut chunks = Vec::new();
        sel.narrow_words(|start, len| {
            chunks.push((start, len));
            !0
        });
        assert_eq!(chunks, vec![(0, 64)], "empty word skipped, tail not seen");
        assert_eq!(sel.count(), 5);
        // The tail chunk reports its ragged length, and mask bits beyond the
        // current selection can only narrow, never widen.
        let mut sel = Selection::all(70);
        let mut chunks = Vec::new();
        sel.narrow_words(|start, len| {
            chunks.push((start, len));
            0b1010
        });
        assert_eq!(chunks, vec![(0, 64), (64, 6)]);
        let mut seen = Vec::new();
        sel.for_each(|i| seen.push(i));
        assert_eq!(seen, vec![1, 3, 65, 67]);
    }

    /// Evaluating a predicate over a row *range* (what morsel workers do)
    /// must select exactly the rows the whole-bucket kernels select within
    /// that range — across word boundaries, ragged tails, NULLs and every
    /// kernel family (typed chunk kernels, string fallbacks, dictionary
    /// code space).
    #[test]
    fn range_kernels_match_whole_bucket_kernels() {
        use crate::table::ColumnBucket;

        let n = 200;
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                vec![
                    if i % 13 == 0 {
                        Value::Null
                    } else {
                        Value::Int((i % 29) as i64)
                    },
                    Value::Float(i as f64 * 0.01),
                    Value::str(["MAIL", "SHIP", "TRUCK", "AIR"][i % 4]),
                ]
            })
            .collect();
        let mut plain = ColumnBucket::new(3);
        let mut dict = ColumnBucket::with_dictionary(3);
        for r in &rows {
            plain.push_row(r);
            dict.push_row(r);
        }
        assert!(dict.column(2).is_dict());
        let preds = vec![
            CompiledPred::Compare {
                idx: 0,
                op: BinaryOperator::Lt,
                value: Value::Int(14),
            },
            CompiledPred::Between {
                idx: 1,
                lo: Value::Float(0.30),
                hi: Value::Float(1.20),
                negated: false,
            },
            CompiledPred::InSet {
                idx: 2,
                values: vec![Value::str("MAIL"), Value::str("AIR")],
                negated: false,
            },
            CompiledPred::Like {
                idx: 2,
                pattern: Arc::new(LikePattern::new("%AI%")),
                negated: false,
            },
        ];
        // Offsets exercise word-aligned, mid-word and ragged-tail ranges.
        let ranges = [(0, n), (64, 134), (37, 103), (128, 200), (190, 199)];
        for bucket in [&plain, &dict] {
            let bucket = BucketView::new(bucket, &[0, 1, 2]);
            for pred in &preds {
                let mut whole = Selection::all(n);
                eval_vectorized_range(pred, bucket, 0, &mut whole);
                let mut whole_hits = Vec::new();
                whole.for_each(|i| whole_hits.push(i));
                for &(start, end) in &ranges {
                    let mut sel = Selection::all(end - start);
                    eval_vectorized_range(pred, bucket, start, &mut sel);
                    let mut range_hits = Vec::new();
                    sel.for_each(|i| range_hits.push(start + i));
                    let expected: Vec<usize> = whole_hits
                        .iter()
                        .copied()
                        .filter(|&i| i >= start && i < end)
                        .collect();
                    assert_eq!(
                        range_hits, expected,
                        "range [{start}, {end}) disagrees for {pred:?}"
                    );
                }
            }
        }
    }

    /// `dict_filter_bitmap` resolves a LIKE against the dictionary once:
    /// entry per distinct value, outcomes identical to per-row matching.
    #[test]
    fn dict_bitmap_resolves_pattern_per_distinct_value() {
        let dict: Vec<Arc<str>> = vec![Arc::from("AIR"), Arc::from("MAIL"), Arc::from("MAILBOX")];
        let pred = CompiledPred::Like {
            idx: 0,
            pattern: Arc::new(LikePattern::new("MAIL%")),
            negated: false,
        };
        assert_eq!(dict_filter_bitmap(&pred, &dict), vec![false, true, true]);
    }
}
