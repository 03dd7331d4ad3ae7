//! Plan-time-bound expressions: the one form every expression is evaluated
//! in.
//!
//! The planner lowers each [`Expr`] it places in a [`crate::plan::Plan`]
//! into a [`BoundExpr`] once, against the operator's input schema — and so
//! do the DML paths (UPDATE / DELETE predicates and assignments against the
//! table schema, INSERT `VALUES` and partition-key expressions against the
//! empty schema):
//!
//! * column references become [`Slot`]s — an index into the input row, an
//!   index into the *bucket constants* of a per-bucket join (the build row
//!   the executor looks up once per partition bucket), a group key or a
//!   finished aggregate of the enclosing `HashAggregate`, or — for names
//!   only an enclosing query resolves — `(depth, index)` into the chain of
//!   enclosing rows a correlated sub-plan runs under. A name no scope
//!   resolves is a plan-time [`PlanError`];
//! * literals and every other constant sub-tree fold to one [`Value`]
//!   (`DATE '1998-12-01' - INTERVAL '90' DAY` is computed once per plan,
//!   not once per row); a malformed literal is a plan-time error;
//! * scalar functions resolve to a [`ScalarFn`] — a built-in or a
//!   [`UdfHandle`] — so a call site never looks a name up again. An
//!   unknown function, or an aggregate outside an aggregation context, is a
//!   plan-time error;
//! * `EXISTS`, `IN (SELECT …)` and scalar sub-queries are planned right
//!   away, with the operator's input as the innermost enclosing scope, into
//!   a [`BoundExpr::Subquery`] holding the sub-plan. Whether it is
//!   correlated is read off its slots: an uncorrelated sub-plan runs at most
//!   once per executor (its rows are cached per sub-plan node), a
//!   correlated one once per outer row.
//!
//! Evaluation (`Executor::eval_bound`) reads its slots from a `Frame`:
//! either a materialized row or row `i` of a column bucket — the streaming
//! aggregation pipeline evaluates group keys and aggregate arguments
//! straight off the column vectors, never building the row.

use std::sync::Arc;

use mtsql::ast::*;

use crate::conjuncts::{between_matches, in_list_matches, LikePattern};
use crate::error::{err, EngineError, Result};
use crate::exec::{apply_binary, apply_unary, cast_value, literal_value, Env, Executor};
use crate::plan::{Plan, Planner};
use crate::schema::Schema;
use crate::stats::StmtCtx;
use crate::table::{BucketView, ColumnVec};
use crate::udf::{UdfHandle, UdfRegistry};
use crate::value::{civil_from_days, int_overflow, Value};
use crate::verify::{PlanError, PlanErrorClass};

/// Where a bound column reference reads its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Slot {
    /// Column `i` of the operator's input row.
    Input(usize),
    /// Column `j` of the build row of a per-bucket join: one constant per
    /// partition bucket. Legal only above a join the planner marked
    /// per-bucket (the verifier checks).
    BucketConst(usize),
    /// Group key `i` of the enclosing `HashAggregate` (HAVING and output
    /// items only).
    GroupKey(usize),
    /// Finished aggregate `i` of the enclosing `HashAggregate`.
    Agg(usize),
    /// Column `index` of an enclosing query's row, `depth` sub-query
    /// boundaries out: `0` is the row of the operator whose expression
    /// holds the sub-query, `1` the row that operator's plan runs under, …
    Outer { depth: usize, index: usize },
}

/// A scalar function resolved at bind time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFn {
    Concat,
    CharLength,
    Coalesce,
    Abs,
    /// A registered UDF, invoked by handle.
    Udf(UdfHandle),
}

impl ScalarFn {
    /// Resolve a function name: engine built-ins first, then registered
    /// UDFs.
    pub fn resolve(name: &str, udfs: &UdfRegistry) -> Option<ScalarFn> {
        const BUILT_INS: [(&str, ScalarFn); 5] = [
            ("CONCAT", ScalarFn::Concat),
            ("CHAR_LENGTH", ScalarFn::CharLength),
            ("LENGTH", ScalarFn::CharLength),
            ("COALESCE", ScalarFn::Coalesce),
            ("ABS", ScalarFn::Abs),
        ];
        match BUILT_INS.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)) {
            Some(&(_, func)) => Some(func),
            None => udfs.resolve(name).map(ScalarFn::Udf),
        }
    }

    /// Apply the function to evaluated arguments; a UDF call is charged to
    /// `ctx`.
    pub fn call(self, udfs: &UdfRegistry, args: &[Value], ctx: &StmtCtx) -> Result<Value> {
        match self {
            ScalarFn::Concat => {
                let mut out = String::new();
                for a in args {
                    if a.is_null() {
                        return Ok(Value::Null);
                    }
                    out.push_str(&a.to_string());
                }
                Ok(Value::str(out))
            }
            ScalarFn::CharLength => match args.first() {
                Some(Value::Str(s)) => Ok(Value::Int(s.chars().count() as i64)),
                Some(Value::Null) | None => Ok(Value::Null),
                Some(other) => Ok(Value::Int(other.to_string().chars().count() as i64)),
            },
            ScalarFn::Coalesce => Ok(args
                .iter()
                .find(|a| !a.is_null())
                .cloned()
                .unwrap_or(Value::Null)),
            ScalarFn::Abs => match args.first() {
                Some(Value::Int(i)) => i
                    .checked_abs()
                    .map(Value::Int)
                    .ok_or_else(|| int_overflow("ABS")),
                Some(Value::Float(f)) => Ok(Value::Float(f.abs())),
                Some(Value::Null) | None => Ok(Value::Null),
                Some(other) => err(format!("ABS of non-numeric {other:?}")),
            },
            ScalarFn::Udf(handle) => udfs.call(handle, args, ctx),
        }
    }
}

/// The pattern operand of a bound `LIKE`.
#[derive(Debug, Clone)]
pub enum LikeArg {
    /// A string literal, compiled once.
    Compiled(Arc<LikePattern>),
    /// Anything else: evaluated, then compiled, per row.
    Dynamic(Box<BoundExpr>),
}

/// An expression bound against one operator's input (see the module docs).
#[derive(Debug, Clone)]
pub enum BoundExpr {
    Const(Value),
    Param(usize),
    Slot(Slot),
    /// Arithmetic, comparison, `||`, and short-circuiting `AND`/`OR`.
    Binary {
        op: BinaryOperator,
        left: Box<BoundExpr>,
        right: Box<BoundExpr>,
    },
    Unary {
        op: UnaryOperator,
        expr: Box<BoundExpr>,
    },
    Call {
        func: ScalarFn,
        args: Vec<BoundExpr>,
    },
    Case {
        operand: Option<Box<BoundExpr>>,
        when_then: Vec<(BoundExpr, BoundExpr)>,
        else_expr: Option<Box<BoundExpr>>,
    },
    IsNull {
        expr: Box<BoundExpr>,
        negated: bool,
    },
    InList {
        expr: Box<BoundExpr>,
        list: Vec<BoundExpr>,
        negated: bool,
    },
    Between {
        expr: Box<BoundExpr>,
        low: Box<BoundExpr>,
        high: Box<BoundExpr>,
        negated: bool,
    },
    Like {
        expr: Box<BoundExpr>,
        pattern: LikeArg,
        negated: bool,
    },
    Extract {
        field: DateField,
        expr: Box<BoundExpr>,
    },
    Substring {
        expr: Box<BoundExpr>,
        start: Box<BoundExpr>,
        length: Option<Box<BoundExpr>>,
    },
    Cast {
        expr: Box<BoundExpr>,
        data_type: DataType,
    },
    /// An expression sub-query, planned with the enclosing scopes.
    Subquery {
        kind: SubqueryKind,
        plan: Arc<Plan>,
        /// The sub-plan reads a row of an enclosing query (an outer slot
        /// reaches past it): it runs once per outer row instead of once per
        /// executor.
        correlated: bool,
    },
}

/// What an expression sub-query's rows turn into.
#[derive(Debug, Clone)]
pub enum SubqueryKind {
    /// `[NOT] EXISTS (…)`: whether it yields a row.
    Exists { negated: bool },
    /// `expr [NOT] IN (SELECT …)`: membership among its first column.
    In { expr: Box<BoundExpr>, negated: bool },
    /// `(SELECT …)`: the first column of its first row, NULL when empty.
    Scalar,
}

impl BoundExpr {
    /// Visit the direct operands of this node (a sub-query's plan is not
    /// an operand; an `IN`'s left-hand side is).
    fn for_each_operand<'s>(&'s self, f: &mut dyn FnMut(&'s BoundExpr)) {
        match self {
            BoundExpr::Const(_) | BoundExpr::Param(_) | BoundExpr::Slot(_) => {}
            BoundExpr::Subquery { kind, .. } => {
                if let SubqueryKind::In { expr, .. } = kind {
                    f(expr);
                }
            }
            BoundExpr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            BoundExpr::Unary { expr, .. }
            | BoundExpr::IsNull { expr, .. }
            | BoundExpr::Extract { expr, .. }
            | BoundExpr::Cast { expr, .. } => f(expr),
            BoundExpr::Call { args, .. } => args.iter().for_each(f),
            BoundExpr::Case {
                operand,
                when_then,
                else_expr,
            } => {
                operand.iter().for_each(|o| f(o));
                for (w, t) in when_then {
                    f(w);
                    f(t);
                }
                else_expr.iter().for_each(|e| f(e));
            }
            BoundExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            BoundExpr::Like { expr, pattern, .. } => {
                f(expr);
                if let LikeArg::Dynamic(p) = pattern {
                    f(p);
                }
            }
            BoundExpr::Substring {
                expr,
                start,
                length,
            } => {
                f(expr);
                f(start);
                length.iter().for_each(|l| f(l));
            }
        }
    }

    /// [`BoundExpr::for_each_operand`], mutably.
    pub(crate) fn for_each_operand_mut(&mut self, f: &mut dyn FnMut(&mut BoundExpr)) {
        match self {
            BoundExpr::Const(_) | BoundExpr::Param(_) | BoundExpr::Slot(_) => {}
            BoundExpr::Subquery { kind, .. } => {
                if let SubqueryKind::In { expr, .. } = kind {
                    f(expr);
                }
            }
            BoundExpr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            BoundExpr::Unary { expr, .. }
            | BoundExpr::IsNull { expr, .. }
            | BoundExpr::Extract { expr, .. }
            | BoundExpr::Cast { expr, .. } => f(expr),
            BoundExpr::Call { args, .. } => args.iter_mut().for_each(f),
            BoundExpr::Case {
                operand,
                when_then,
                else_expr,
            } => {
                operand.iter_mut().for_each(|o| f(o));
                for (w, t) in when_then {
                    f(w);
                    f(t);
                }
                else_expr.iter_mut().for_each(|e| f(e));
            }
            BoundExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter_mut().for_each(f);
            }
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            BoundExpr::Like { expr, pattern, .. } => {
                f(expr);
                if let LikeArg::Dynamic(p) = pattern {
                    f(p);
                }
            }
            BoundExpr::Substring {
                expr,
                start,
                length,
            } => {
                f(expr);
                f(start);
                length.iter_mut().for_each(|l| f(l));
            }
        }
    }

    /// Visit this node and every bound descendant.
    pub fn walk<'s>(&'s self, f: &mut dyn FnMut(&'s BoundExpr)) {
        f(self);
        self.for_each_operand(&mut |e| e.walk(f));
    }

    /// Does any node satisfy `pred`?
    pub fn any(&self, pred: impl Fn(&BoundExpr) -> bool) -> bool {
        let mut found = false;
        self.walk(&mut |e| found |= pred(e));
        found
    }
}

// ---------------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------------

/// The five SQL aggregates, resolved from the call's name at bind time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// One bound aggregate call.
#[derive(Debug, Clone)]
pub struct BoundAgg {
    pub func: AggFunc,
    /// Index into [`BoundAggregate::args`]; `None` for `COUNT(*)`.
    pub arg: Option<usize>,
    pub distinct: bool,
}

/// The bound form of a `HashAggregate`: everything the streaming operator
/// evaluates, against the aggregate's input (keys, arguments) or in group
/// context (HAVING, output items).
#[derive(Debug, Clone, Default)]
pub struct BoundAggregate {
    pub keys: Vec<BoundExpr>,
    /// The distinct argument expressions, evaluated once per input row.
    /// UDF-free arguments shared by several aggregates (`AVG(x)`/`COUNT(x)`
    /// pairs of distributed aggregation) bind to one entry; arguments that
    /// call a UDF are never shared — UDF invocations are counted.
    pub args: Vec<BoundExpr>,
    pub aggs: Vec<BoundAgg>,
    pub having: Option<BoundExpr>,
    /// One entry per output column (wildcards expanded).
    pub items: Vec<BoundExpr>,
    /// HAVING or an output item reads an input column of the group's first
    /// row (or runs a sub-query under it): the operator keeps that row per
    /// group.
    pub rep_input: bool,
    /// HAVING or an output item reads a bucket constant: the operator keeps
    /// the first row's build row per group.
    pub rep_consts: bool,
    /// Keys and arguments hold no sub-query: they evaluate straight off a
    /// bucket's column vectors.
    pub columnar: bool,
}

// ---------------------------------------------------------------------------
// Binding
// ---------------------------------------------------------------------------

/// Binds expressions against one operator input.
#[derive(Clone, Copy)]
pub(crate) struct Binder<'a> {
    /// Resolves functions and plans sub-queries; its scopes are the inputs
    /// of the enclosing queries' operators, innermost first.
    pub planner: &'a Planner<'a>,
    pub schema: &'a Schema,
    /// Above a per-bucket join: input columns at or past this index are the
    /// build side's and bind as [`Slot::BucketConst`].
    pub split: Option<usize>,
    /// Group context (`GROUP BY` expressions, collected aggregate calls):
    /// matching sub-expressions bind to [`Slot::GroupKey`] / [`Slot::Agg`].
    pub group: Option<(&'a [Expr], &'a [FunctionCall])>,
    /// The operator the expressions belong to (error messages).
    pub node: &'a str,
}

impl<'a> Binder<'a> {
    /// A binder for plain (non-group) expressions over `schema`.
    pub fn new(planner: &'a Planner<'a>, schema: &'a Schema, node: &'a str) -> Self {
        Binder {
            planner,
            schema,
            split: None,
            group: None,
            node,
        }
    }

    fn error(&self, class: PlanErrorClass, detail: String) -> EngineError {
        PlanError {
            class,
            node: self.node.to_string(),
            detail,
        }
        .into()
    }

    fn slot_of(&self, idx: usize) -> Slot {
        match self.split {
            Some(split) if idx >= split => Slot::BucketConst(idx - split),
            _ => Slot::Input(idx),
        }
    }

    /// The input column a name resolves to, else the nearest enclosing
    /// scope's.
    fn resolve(&self, col: &ColumnRef) -> Result<Slot> {
        if let Some(idx) = self.schema.resolve(col) {
            return Ok(self.slot_of(idx));
        }
        let mut scopes = self.planner.scopes.iter().enumerate();
        let found = scopes.find_map(|(depth, scope)| Some((depth, scope.resolve(col)?)));
        let Some((depth, index)) = found else {
            return Err(self.error(
                PlanErrorClass::Column,
                format!("unknown column `{}`", col.to_display()),
            ));
        };
        self.planner.note_reach(depth + 1);
        Ok(Slot::Outer { depth, index })
    }

    /// Plan an expression sub-query with this binder's input as the
    /// innermost enclosing scope. It is correlated when its slots reach
    /// past that scope's row; what reaches further out, past this query,
    /// counts for this query.
    fn subquery(&self, query: &Query, kind: SubqueryKind) -> Result<BoundExpr> {
        let planner = self.planner.nested(self.schema);
        let plan = planner.plan_query(query)?;
        let reach = planner.reach.get();
        self.planner.note_reach(reach.saturating_sub(1));
        Ok(BoundExpr::Subquery {
            kind,
            plan: Arc::new(plan),
            correlated: reach > 0,
        })
    }

    /// Bind a list of conjuncts / items.
    pub fn bind_all<'e>(
        &self,
        exprs: impl IntoIterator<Item = &'e Expr>,
    ) -> Result<Vec<BoundExpr>> {
        exprs.into_iter().map(|e| self.bind(e)).collect()
    }

    /// Bind projection items, expanding wildcards into input slots.
    pub fn bind_items(&self, items: &[SelectItem]) -> Result<Vec<BoundExpr>> {
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            match item {
                SelectItem::Wildcard => {
                    out.extend((0..self.schema.len()).map(|i| BoundExpr::Slot(self.slot_of(i))))
                }
                SelectItem::QualifiedWildcard(q) => out.extend(
                    self.schema
                        .indices_of_qualifier(q)
                        .into_iter()
                        .map(|i| BoundExpr::Slot(self.slot_of(i))),
                ),
                SelectItem::Expr { expr, .. } => out.push(self.bind(expr)?),
            }
        }
        Ok(out)
    }

    /// Bind one expression.
    pub fn bind(&self, expr: &Expr) -> Result<BoundExpr> {
        if let Some((group_exprs, aggregates)) = self.group {
            if let Some(i) = group_exprs.iter().position(|g| g == expr) {
                return Ok(BoundExpr::Slot(Slot::GroupKey(i)));
            }
            if let Expr::Function(fc) = expr {
                if fc.is_aggregate() {
                    return match aggregates.iter().position(|a| a == fc) {
                        Some(i) => Ok(BoundExpr::Slot(Slot::Agg(i))),
                        None => Err(self.error(
                            PlanErrorClass::Function,
                            format!("aggregate `{}` was not collected by the planner", fc.name),
                        )),
                    };
                }
            }
        }
        let sub = |e: &Expr| self.bind(e).map(Box::new);
        let bound = match expr {
            Expr::Literal(l) => BoundExpr::Const(
                literal_value(l).map_err(|e| self.error(PlanErrorClass::Literal, e.message))?,
            ),
            Expr::Param(i) => BoundExpr::Param(*i),
            Expr::Column(c) => BoundExpr::Slot(self.resolve(c)?),
            Expr::BinaryOp { left, op, right } => BoundExpr::Binary {
                op: *op,
                left: sub(left)?,
                right: sub(right)?,
            },
            Expr::UnaryOp { op, expr } => BoundExpr::Unary {
                op: *op,
                expr: sub(expr)?,
            },
            Expr::Function(fc) if fc.is_aggregate() => {
                return Err(self.error(
                    PlanErrorClass::Function,
                    format!(
                        "aggregate `{}` used outside of an aggregation context",
                        fc.name
                    ),
                ))
            }
            Expr::Function(fc) => {
                let Some(func) = ScalarFn::resolve(&fc.name, self.planner.engine.udfs()) else {
                    return Err(self.error(
                        PlanErrorClass::Function,
                        format!("unknown function `{}`", fc.name),
                    ));
                };
                BoundExpr::Call {
                    func,
                    args: self.bind_all(&fc.args)?,
                }
            }
            Expr::Case {
                operand,
                when_then,
                else_expr,
            } => BoundExpr::Case {
                operand: operand.as_deref().map(sub).transpose()?,
                when_then: when_then
                    .iter()
                    .map(|(w, t)| Ok((self.bind(w)?, self.bind(t)?)))
                    .collect::<Result<_>>()?,
                else_expr: else_expr.as_deref().map(sub).transpose()?,
            },
            Expr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: sub(expr)?,
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: sub(expr)?,
                list: self.bind_all(list)?,
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => BoundExpr::Between {
                expr: sub(expr)?,
                low: sub(low)?,
                high: sub(high)?,
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => BoundExpr::Like {
                expr: sub(expr)?,
                pattern: match pattern.as_ref() {
                    Expr::Literal(Literal::String(p)) => {
                        LikeArg::Compiled(Arc::new(LikePattern::new(p)))
                    }
                    dynamic => LikeArg::Dynamic(sub(dynamic)?),
                },
                negated: *negated,
            },
            Expr::Extract { field, expr } => BoundExpr::Extract {
                field: *field,
                expr: sub(expr)?,
            },
            Expr::Substring {
                expr,
                start,
                length,
            } => BoundExpr::Substring {
                expr: sub(expr)?,
                start: sub(start)?,
                length: length.as_deref().map(sub).transpose()?,
            },
            Expr::Cast { expr, data_type } => BoundExpr::Cast {
                expr: sub(expr)?,
                data_type: *data_type,
            },
            Expr::Exists { query, negated } => {
                self.subquery(query, SubqueryKind::Exists { negated: *negated })?
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => self.subquery(
                query,
                SubqueryKind::In {
                    expr: sub(expr)?,
                    negated: *negated,
                },
            )?,
            Expr::ScalarSubquery(query) => self.subquery(query, SubqueryKind::Scalar)?,
        };
        Ok(self.fold(bound))
    }

    /// Fold a node whose operands are all constants. UDF calls never fold
    /// (their invocations are counted per row), nor do sub-queries; a
    /// constant whose evaluation fails stays unfolded, so the error still
    /// surfaces per evaluated row.
    fn fold(&self, bound: BoundExpr) -> BoundExpr {
        let pure = !matches!(
            bound,
            BoundExpr::Const(_)
                | BoundExpr::Param(_)
                | BoundExpr::Slot(_)
                | BoundExpr::Subquery { .. }
                | BoundExpr::Call {
                    func: ScalarFn::Udf(_),
                    ..
                }
        );
        // Children fold before their parent, so checking the direct
        // operands covers the whole sub-tree.
        let mut operands_const = true;
        bound.for_each_operand(&mut |e| operands_const &= matches!(e, BoundExpr::Const(_)));
        if pure && operands_const {
            let exec = Executor::new(self.planner.engine, self.planner.ctx);
            if let Ok(v) = exec.eval_bound(&bound, &Frame::empty()) {
                return BoundExpr::Const(v);
            }
        }
        bound
    }

    /// Bind a `HashAggregate`'s expressions: keys and arguments against the
    /// input, HAVING and items in group context.
    pub fn bind_aggregate(
        &self,
        group_exprs: &[Expr],
        aggregates: &[FunctionCall],
        having: Option<&Expr>,
        items: &[SelectItem],
    ) -> Result<BoundAggregate> {
        let keys = self.bind_all(group_exprs)?;
        let mut args: Vec<BoundExpr> = Vec::new();
        // Source expression of each shareable (UDF-free) entry of `args`.
        let mut shared: Vec<(&Expr, usize)> = Vec::new();
        let mut aggs = Vec::with_capacity(aggregates.len());
        for call in aggregates {
            const AGGREGATES: [(&str, AggFunc); 5] = [
                ("COUNT", AggFunc::Count),
                ("SUM", AggFunc::Sum),
                ("AVG", AggFunc::Avg),
                ("MIN", AggFunc::Min),
                ("MAX", AggFunc::Max),
            ];
            let name = call.name.as_str();
            let Some(&(_, func)) = AGGREGATES
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(name))
            else {
                return Err(self.error(
                    PlanErrorClass::Function,
                    format!("unknown aggregate `{name}`"),
                ));
            };
            let arg = match (func, call.args.as_slice()) {
                (AggFunc::Count, []) => None,
                (_, [arg]) => Some(match shared.iter().find(|(e, _)| *e == arg) {
                    Some(&(_, i)) => i,
                    None => {
                        let bound = self.bind(arg)?;
                        let calls_udf = bound.any(|e| {
                            matches!(
                                e,
                                BoundExpr::Call {
                                    func: ScalarFn::Udf(_),
                                    ..
                                } | BoundExpr::Subquery { .. }
                            )
                        });
                        args.push(bound);
                        if !calls_udf {
                            shared.push((arg, args.len() - 1));
                        }
                        args.len() - 1
                    }
                }),
                (_, other) => {
                    return Err(self.error(
                        PlanErrorClass::Function,
                        format!(
                            "aggregate `{}` takes exactly one argument, got {}",
                            call.name,
                            other.len()
                        ),
                    ))
                }
            };
            aggs.push(BoundAgg {
                func,
                arg,
                distinct: call.distinct,
            });
        }
        let in_group = Binder {
            group: Some((group_exprs, aggregates)),
            ..*self
        };
        let having = having.map(|h| in_group.bind(h)).transpose()?;
        let items = in_group.bind_items(items)?;
        let reads = |pred: fn(&BoundExpr) -> bool| having.iter().chain(&items).any(|e| e.any(pred));
        Ok(BoundAggregate {
            rep_input: reads(|e| {
                matches!(
                    e,
                    BoundExpr::Slot(Slot::Input(_)) | BoundExpr::Subquery { .. }
                )
            }),
            rep_consts: reads(|e| matches!(e, BoundExpr::Slot(Slot::BucketConst(_)))),
            columnar: !keys
                .iter()
                .chain(&args)
                .any(|e| e.any(|n| matches!(n, BoundExpr::Subquery { .. }))),
            keys,
            args,
            aggs,
            having,
            items,
        })
    }
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

/// Where [`Slot::Input`] reads from.
#[derive(Clone, Copy)]
pub(crate) enum Source<'a> {
    /// A materialized row.
    Row(&'a [Value]),
    /// Row `i` of a partition bucket, read column by column through the
    /// scan's projection — never built.
    Bucket(BucketView<'a>, usize),
}

/// Everything a bound expression can read while it evaluates.
#[derive(Clone, Copy)]
pub(crate) struct Frame<'a> {
    pub src: Source<'a>,
    /// The per-bucket join's build row ([`Slot::BucketConst`]).
    pub consts: &'a [Value],
    /// The enclosing queries' rows ([`Slot::Outer`]).
    pub outer: Option<&'a Env<'a>>,
    /// `(group key, finished aggregates)` in group context.
    pub group: Option<(&'a [Value], &'a [Value])>,
}

impl<'a> Frame<'a> {
    /// No row at all: constant folding.
    pub fn empty() -> Frame<'static> {
        Frame::row(&[], None)
    }

    /// A materialized input row.
    pub fn row(row: &'a [Value], outer: Option<&'a Env<'a>>) -> Self {
        Frame {
            src: Source::Row(row),
            consts: &[],
            outer,
            group: None,
        }
    }

    /// A materialized row above a per-bucket join: the build columns sit
    /// behind `split` (no split = no bucket constants).
    pub fn joined_row(row: &'a [Value], split: Option<usize>, outer: Option<&'a Env<'a>>) -> Self {
        Frame {
            consts: split.and_then(|s| row.get(s..)).unwrap_or(&[]),
            ..Frame::row(row, outer)
        }
    }
}

fn slot_error<T>(what: &str, idx: usize) -> Result<T> {
    err(format!("bound {what} slot {idx} is out of range"))
}

impl Executor<'_> {
    fn eval_slot(&self, slot: &Slot, f: &Frame) -> Result<Value> {
        match slot {
            Slot::Input(i) => match f.src {
                Source::Row(row) => match row.get(*i) {
                    Some(v) => Ok(v.clone()),
                    None => slot_error("input", *i),
                },
                Source::Bucket(cols, row) => Ok(cols.value(row, *i)),
            },
            Slot::BucketConst(j) => match f.consts.get(*j) {
                Some(v) => Ok(v.clone()),
                None => slot_error("bucket-constant", *j),
            },
            Slot::GroupKey(i) => match f.group.and_then(|(keys, _)| keys.get(*i)) {
                Some(v) => Ok(v.clone()),
                None => slot_error("group-key", *i),
            },
            Slot::Agg(i) => match f.group.and_then(|(_, aggs)| aggs.get(*i)) {
                Some(v) => Ok(v.clone()),
                None => slot_error("aggregate", *i),
            },
            Slot::Outer { depth, index } => match f.outer.and_then(|env| env.get(*depth, *index)) {
                Some(v) => Ok(v.clone()),
                None => slot_error("outer", *index),
            },
        }
    }

    /// Evaluate a bound expression. The leaves and binary operators every
    /// aggregate argument is made of stay in this small function;
    /// everything else is out of line.
    #[inline]
    pub(crate) fn eval_bound(&self, expr: &BoundExpr, f: &Frame) -> Result<Value> {
        match expr {
            BoundExpr::Const(v) => Ok(v.clone()),
            BoundExpr::Slot(slot) => self.eval_slot(slot, f),
            BoundExpr::Binary { op, left, right } => {
                let l = self.eval_bound(left, f)?;
                match op {
                    BinaryOperator::And if l.as_bool() == Some(false) => {
                        return Ok(Value::Bool(false))
                    }
                    BinaryOperator::Or if l.as_bool() == Some(true) => {
                        return Ok(Value::Bool(true))
                    }
                    _ => {}
                }
                let r = self.eval_bound(right, f)?;
                match float_arithmetic(*op, &l, &r) {
                    Some(v) => Ok(Value::Float(v)),
                    None => apply_binary(*op, l, r),
                }
            }
            other => self.eval_bound_other(other, f),
        }
    }

    fn eval_bound_other(&self, expr: &BoundExpr, f: &Frame) -> Result<Value> {
        match expr {
            BoundExpr::Const(_) | BoundExpr::Slot(_) | BoundExpr::Binary { .. } => {
                self.eval_bound(expr, f)
            }
            BoundExpr::Param(i) => self.param(*i),
            BoundExpr::Unary { op, expr } => apply_unary(*op, self.eval_bound(expr, f)?),
            BoundExpr::Call { func, args } => {
                // Conversion functions take two arguments: evaluate the
                // common arities on the stack instead of allocating per call.
                let mut inline = [Value::Null, Value::Null, Value::Null, Value::Null];
                match inline.get_mut(..args.len()) {
                    Some(values) => {
                        for (value, arg) in values.iter_mut().zip(args) {
                            *value = self.eval_bound(arg, f)?;
                        }
                        func.call(self.engine().udfs(), values, self.ctx())
                    }
                    None => {
                        let values = args
                            .iter()
                            .map(|a| self.eval_bound(a, f))
                            .collect::<Result<Vec<_>>>()?;
                        func.call(self.engine().udfs(), &values, self.ctx())
                    }
                }
            }
            BoundExpr::Case {
                operand,
                when_then,
                else_expr,
            } => {
                let operand = operand
                    .as_ref()
                    .map(|o| self.eval_bound(o, f))
                    .transpose()?;
                for (cond, out) in when_then {
                    let c = self.eval_bound(cond, f)?;
                    let hit = match &operand {
                        Some(v) => v.sql_eq(&c).unwrap_or(false),
                        None => c.as_bool().unwrap_or(false),
                    };
                    if hit {
                        return self.eval_bound(out, f);
                    }
                }
                match else_expr {
                    Some(e) => self.eval_bound(e, f),
                    None => Ok(Value::Null),
                }
            }
            BoundExpr::IsNull { expr, negated } => {
                Ok(Value::Bool(self.eval_bound(expr, f)?.is_null() != *negated))
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                // `in_list_matches` over lazily evaluated items: a match
                // decides, a NULL item makes a miss UNKNOWN.
                let v = self.eval_bound(expr, f)?;
                if v.is_null() {
                    return Ok(Value::Bool(false));
                }
                let mut saw_null = false;
                for item in list {
                    let item = self.eval_bound(item, f)?;
                    if v.sql_eq(&item) == Some(true) {
                        return Ok(Value::Bool(!*negated));
                    }
                    saw_null |= item.is_null();
                }
                Ok(Value::Bool(*negated && !saw_null))
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = self.eval_bound(expr, f)?;
                let lo = self.eval_bound(low, f)?;
                let hi = self.eval_bound(high, f)?;
                Ok(Value::Bool(between_matches(&v, &lo, &hi, *negated)))
            }
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = self.eval_bound(expr, f)?;
                let outcome = match v.as_str() {
                    None => None,
                    Some(text) => match pattern {
                        LikeArg::Compiled(p) => Some(p.matches(text)),
                        LikeArg::Dynamic(p) => self
                            .eval_bound(p, f)?
                            .as_str()
                            .map(|pat| LikePattern::new(pat).matches(text)),
                    },
                };
                Ok(Value::Bool(outcome.is_some_and(|m| m != *negated)))
            }
            BoundExpr::Extract { field, expr } => match self.eval_bound(expr, f)? {
                Value::Date(d) => {
                    let (y, m, day) = civil_from_days(d);
                    Ok(Value::Int(match field {
                        DateField::Year => y as i64,
                        DateField::Month => m as i64,
                        DateField::Day => day as i64,
                    }))
                }
                Value::Null => Ok(Value::Null),
                other => err(format!("EXTRACT from non-date value {other:?}")),
            },
            BoundExpr::Substring {
                expr,
                start,
                length,
            } => {
                let text = match self.eval_bound(expr, f)? {
                    Value::Null => return Ok(Value::Null),
                    other => other.to_string(),
                };
                let start = self.eval_bound(start, f)?.as_i64().unwrap_or(1).max(1) as usize;
                let length = match length {
                    Some(len) => Some(self.eval_bound(len, f)?.as_i64().unwrap_or(0).max(0)),
                    None => None,
                };
                Ok(substring(&text, start, length))
            }
            BoundExpr::Cast { expr, data_type } => {
                cast_value(self.eval_bound(expr, f)?, *data_type)
            }
            BoundExpr::Subquery {
                kind,
                plan,
                correlated,
            } => match kind {
                SubqueryKind::Exists { negated } => {
                    let rel = self.subquery_rows(plan, *correlated, f)?;
                    Ok(Value::Bool(rel.rows.is_empty() == *negated))
                }
                SubqueryKind::In { expr, negated } => {
                    // A NULL left-hand side is UNKNOWN without running the
                    // sub-query at all.
                    let v = self.eval_bound(expr, f)?;
                    if v.is_null() {
                        return Ok(Value::Bool(false));
                    }
                    let rel = self.subquery_rows(plan, *correlated, f)?;
                    let column = rel.rows.iter().filter_map(|r| r.first());
                    Ok(Value::Bool(in_list_matches(&v, column, *negated)))
                }
                SubqueryKind::Scalar => {
                    let rel = self.subquery_rows(plan, *correlated, f)?;
                    let first = rel.rows.first().and_then(|r| r.first());
                    Ok(first.cloned().unwrap_or(Value::Null))
                }
            },
        }
    }

    /// `true` when every bound conjunct accepts the frame's row.
    pub(crate) fn bound_all_true(&self, conjuncts: &[BoundExpr], f: &Frame) -> Result<bool> {
        for c in conjuncts {
            if !self.eval_bound(c, f)?.as_bool().unwrap_or(false) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// `+`, `-`, `*` with a float on either side — what [`Value::add`] and
/// friends compute for these operands, without the generic dispatch.
#[inline]
fn float_arithmetic(op: BinaryOperator, l: &Value, r: &Value) -> Option<f64> {
    let (a, b) = match (l, r) {
        (Value::Float(a), Value::Float(b)) => (*a, *b),
        (Value::Float(a), Value::Int(b)) => (*a, *b as f64),
        (Value::Int(a), Value::Float(b)) => (*a as f64, *b),
        _ => return None,
    };
    match op {
        BinaryOperator::Plus => Some(a + b),
        BinaryOperator::Minus => Some(a - b),
        BinaryOperator::Multiply => Some(a * b),
        _ => None,
    }
}

/// The lanes of one float-arithmetic sub-expression over a run of rows.
enum Lanes {
    Const(f64),
    Each(Vec<f64>),
}

/// Column-at-a-time evaluation of float arithmetic — the argument shape of
/// `SUM(l_extendedprice * (1 - l_discount))` — over rows of one bucket.
pub(crate) struct FloatKernel<'a> {
    pub cols: BucketView<'a>,
    /// The bucket's constants ([`Slot::BucketConst`]).
    pub consts: &'a [Value],
    /// The bucket rows to evaluate, in order.
    pub rows: &'a [usize],
}

impl FloatKernel<'_> {
    /// `expr` for every row, as `(values, is NULL)` — exactly what
    /// [`Executor::eval_bound`] computes row by row — when `expr` is built
    /// from `+`, `-`, `*` over `Float`/`Int` columns of the bucket and
    /// numeric constants and is float-typed (every operator has a float
    /// operand, so no checked integer arithmetic is involved). `None`
    /// otherwise: the caller evaluates row by row.
    pub fn eval(&self, expr: &BoundExpr) -> Option<(Vec<f64>, Vec<bool>)> {
        let mut nulls = vec![false; self.rows.len()];
        match self.lanes(expr, &mut nulls)? {
            (Lanes::Each(values), true) => Some((values, nulls)),
            _ => None,
        }
    }

    /// The lanes of `expr` and whether it is float-typed (an integer-typed
    /// sub-expression is carried as the `f64` the promotion would make it).
    fn lanes(&self, expr: &BoundExpr, nulls: &mut [bool]) -> Option<(Lanes, bool)> {
        let constant = |v: &Value| match v {
            Value::Float(x) => Some((Lanes::Const(*x), true)),
            Value::Int(i) => Some((Lanes::Const(*i as f64), false)),
            _ => None,
        };
        match expr {
            BoundExpr::Const(v) => constant(v),
            BoundExpr::Slot(Slot::BucketConst(j)) => constant(self.consts.get(*j)?),
            BoundExpr::Slot(Slot::Input(c)) => {
                let column = self.cols.column(*c);
                let (values, float): (Vec<f64>, bool) = match column.data() {
                    ColumnVec::Float(xs) => (self.rows.iter().map(|&r| xs[r]).collect(), true),
                    ColumnVec::Int(xs) => {
                        (self.rows.iter().map(|&r| xs[r] as f64).collect(), false)
                    }
                    _ => return None,
                };
                for (null, &row) in nulls.iter_mut().zip(self.rows) {
                    *null |= column.is_null(row);
                }
                Some((Lanes::Each(values), float))
            }
            BoundExpr::Binary { op, left, right } => {
                let apply: fn(f64, f64) -> f64 = match op {
                    BinaryOperator::Plus => |a, b| a + b,
                    BinaryOperator::Minus => |a, b| a - b,
                    BinaryOperator::Multiply => |a, b| a * b,
                    _ => return None,
                };
                let (l, l_float) = self.lanes(left, nulls)?;
                let (r, r_float) = self.lanes(right, nulls)?;
                if !(l_float || r_float) {
                    return None;
                }
                let lanes = match (l, r) {
                    (Lanes::Const(a), Lanes::Const(b)) => Lanes::Const(apply(a, b)),
                    (Lanes::Each(a), Lanes::Const(b)) => {
                        Lanes::Each(a.into_iter().map(|a| apply(a, b)).collect())
                    }
                    (Lanes::Const(a), Lanes::Each(b)) => {
                        Lanes::Each(b.into_iter().map(|b| apply(a, b)).collect())
                    }
                    (Lanes::Each(a), Lanes::Each(b)) => {
                        Lanes::Each(a.into_iter().zip(b).map(|(a, b)| apply(a, b)).collect())
                    }
                };
                Some((lanes, true))
            }
            _ => None,
        }
    }
}

/// SQL `SUBSTRING(text FROM start [FOR length])` over characters, 1-based.
pub(crate) fn substring(text: &str, start: usize, length: Option<i64>) -> Value {
    let chars: Vec<char> = text.chars().collect();
    let from = (start - 1).min(chars.len());
    let to = match length {
        Some(len) => (from + len as usize).min(chars.len()),
        None => chars.len(),
    };
    Value::str(chars[from..to].iter().collect::<String>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineConfig, EngineErrorKind};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn engine() -> Engine {
        let mut e = Engine::new(EngineConfig::system_c_like());
        e.create_table("t", &["a", "d"]);
        e
    }

    fn plan(e: &Engine, sql: &str) -> crate::Result<crate::plan::Plan> {
        e.plan_query(&mtsql::parse_query(sql).unwrap())
    }

    #[test]
    fn unknown_functions_and_malformed_aggregates_fail_at_plan_time() {
        // The table is empty: no row would ever evaluate these expressions.
        let e = engine();
        for (sql, class) in [
            ("SELECT nosuchfn(a) FROM t", "[function]"),
            ("SELECT a FROM t WHERE nosuchfn(a) > 1", "[function]"),
            ("SELECT SUM(a, d) FROM t", "[function]"),
            ("SELECT MIN() FROM t", "[function]"),
            ("SELECT COUNT(a, d) FROM t", "[function]"),
            // Aggregates outside an aggregation context.
            ("SELECT SUM(a) FROM t WHERE SUM(a) > 1", "[function]"),
            ("SELECT MAX(SUM(a)) FROM t", "[function]"),
            (
                "SELECT a FROM t WHERE a IN (SELECT a FROM t WHERE COUNT(*) > 1)",
                "[function]",
            ),
            // Malformed literals, names no scope resolves.
            ("SELECT a FROM t WHERE d > DATE 'x'", "[literal]"),
            ("SELECT DATE '1998-13-45' FROM t", "[literal]"),
            ("SELECT nosuch FROM t", "[column]"),
            (
                "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM t AS u WHERE u.a = v.a)",
                "[column]",
            ),
        ] {
            let err = plan(&e, sql).unwrap_err();
            assert_eq!(err.kind(), EngineErrorKind::Plan, "{sql}: {err}");
            assert!(err.to_string().contains(class), "{sql}: {err}");
        }
        plan(
            &e,
            "SELECT COUNT(*), COUNT(a), ABS(a), length(d) FROM t GROUP BY a, d",
        )
        .unwrap();
    }

    #[test]
    fn constants_fold_once_but_udf_calls_never_do() {
        let mut e = engine();
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        e.register_udf_fn("bump", true, move |args| {
            seen.fetch_add(1, Ordering::SeqCst);
            Ok(args[0].clone())
        });
        let plan = plan(
            &e,
            "SELECT a FROM t WHERE d <= DATE '1998-12-01' - INTERVAL '90' DAY AND bump(1) = 1",
        )
        .unwrap();
        // The pushed conjuncts stay AST on the scan; bind them like a Filter
        // would to look at the bound form.
        let crate::plan::Plan::Project(p) = &plan else {
            panic!("expected a projection head: {plan:?}");
        };
        let crate::plan::Plan::SeqScan(scan) = p.input.as_ref() else {
            panic!("expected a scan: {plan:?}");
        };
        let ctx = StmtCtx::new();
        let planner = Planner::new(&e, &ctx);
        let binder = Binder::new(&planner, &scan.schema, "test");
        let bound = binder.bind_all(scan.residual.iter()).unwrap();
        let BoundExpr::Binary { right, .. } = &bound[0] else {
            panic!("expected a comparison: {:?}", bound[0]);
        };
        assert!(
            matches!(**right, BoundExpr::Const(Value::Date(_))),
            "date arithmetic over literals folds to one constant: {right:?}"
        );
        let before = calls.load(Ordering::SeqCst);
        assert!(
            bound[1].any(|e| matches!(e, BoundExpr::Call { .. })),
            "a UDF over constants stays a call: {:?}",
            bound[1]
        );
        assert_eq!(calls.load(Ordering::SeqCst), before, "binding calls no UDF");
    }

    #[test]
    fn shared_arguments_bind_once_unless_they_call_a_udf() {
        let mut e = engine();
        e.register_udf_fn("ident", true, |args| Ok(args[0].clone()));
        let agg = |sql: &str| match plan(&e, sql).unwrap() {
            crate::plan::Plan::HashAggregate(a) => *a.bound,
            other => panic!("expected an aggregate: {other:?}"),
        };
        let shared = agg("SELECT AVG(a * 2), COUNT(a * 2), SUM(a) FROM t");
        assert_eq!(shared.args.len(), 2);
        assert_eq!(shared.aggs[0].arg, shared.aggs[1].arg);
        // UDF invocations are counted: each aggregate keeps its own call.
        let counted = agg("SELECT AVG(ident(a)), COUNT(ident(a)) FROM t");
        assert_eq!(counted.args.len(), 2);
    }
}
