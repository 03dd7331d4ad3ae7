//! Multi-statement transactions: staged WAL records plus in-memory undo.
//!
//! A [`Transaction`] collects the WAL records of every DML statement
//! executed under it ([`Engine::txn_execute_statement`]) while applying the
//! statements to the in-memory tables immediately — each under its own
//! *uncommitted* epoch ([`crate::table::Database::begin_uncommitted_epoch`]),
//! so snapshot readers outside the transaction (pinned to the committed
//! epoch) never observe the staged rows. Alongside every statement the
//! transaction records the inverse operation:
//!
//! * appends (INSERT) undo as **truncations** — the pre-statement length and
//!   watermark count of every touched bucket (buckets are append-only, so
//!   dropping the tail restores them bit-for-bit);
//! * rewrites (UPDATE / DELETE) undo by **restoring the rewrite shadow** —
//!   the transaction's first rewrite of a table moves the committed storage
//!   (buckets, watermarks, rewrite epoch) into a
//!   [`crate::table::RewriteShadow`] instead of dropping it, which both
//!   keeps committed-floor readers servable while the transaction is open
//!   and makes rollback an exact restore: watermarks and the rewrite epoch
//!   come back as they were, so snapshot cursors pinned before the aborted
//!   transaction keep working.
//!
//! Reads inside the transaction — the SELECT branch of
//! [`Engine::txn_execute_statement`] and the sub-queries of UPDATE / DELETE
//! predicates — pin a *transaction-scoped* snapshot: the committed floor
//! plus the transaction's own statement epochs
//! (`Transaction::snapshot`). The transaction sees its own staged rows but
//! never another open transaction's.
//!
//! `COMMIT` appends all staged records plus one commit marker to the WAL as
//! a single log transaction ([`Engine::txn_append`]); after the caller has
//! waited for durability (outside the engine lock — see
//! [`crate::wal::WalHandle::wait_durable`]) it publishes the epochs
//! ([`Engine::txn_publish`]). `ROLLBACK` — or a failed append/flush —
//! replays the undo log in reverse ([`Engine::txn_rollback`]), restoring
//! the pre-transaction state; nothing was logged, so recovery agrees.
//!
//! Physical layout transitions are deliberately *not* undone: a dictionary
//! demotion triggered by rows that are later rolled back stays demoted,
//! matching the recovery convention that layout is never part of the
//! durable state (results are layout-independent).

use std::collections::BTreeSet;
use std::sync::Arc;

use mtsql::ast::{Delete, Statement, Update};

use crate::bound::{BoundExpr, Frame};
use crate::error::{err, EngineError, Result};
use crate::exec::Executor;
use crate::plan::Planner;
use crate::schema::Schema;
use crate::stats::StmtCtx;
use crate::table::{Row, SharedRow, Snapshot};
use crate::wal::Record;
use crate::{Engine, ResultSet, Value};

/// The inverse of one transactional statement, replayed in reverse order on
/// rollback.
#[derive(Debug)]
enum UndoOp {
    /// Undo appends into one partition bucket: truncate back to the
    /// pre-statement length and watermark count (`existed == false` removes
    /// the bucket — the statement created it).
    TruncateBucket {
        table: String,
        key: i64,
        existed: bool,
        len: u32,
        marks: u32,
    },
    /// Undo appends to the loose rows, mirroring `TruncateBucket`.
    TruncateLoose { table: String, len: u32, marks: u32 },
    /// Undo a row-set rewrite: discard the uncommitted rewritten storage
    /// and restore the committed pre-rewrite shadow — watermarks and
    /// rewrite epoch included ([`crate::table::Table::rollback_rewrite`]).
    /// Recorded only by the transaction's *first* rewrite of a table (the
    /// one that created the shadow); later rewrites of the same table are
    /// undone by the same restore.
    RestoreShadow { table: String },
}

/// An open multi-statement transaction (see the module docs). Created by
/// [`Engine::begin_transaction`]; resolved by exactly one of
/// [`Engine::txn_publish`] or [`Engine::txn_rollback`].
#[derive(Debug)]
pub struct Transaction {
    id: u64,
    /// WAL records staged for the commit append, in statement order.
    pending: Vec<Record>,
    /// Undo log, in execution order (replayed in reverse).
    undo: Vec<UndoOp>,
    /// Uncommitted epochs allocated by this transaction's statements.
    epochs: Vec<u64>,
    /// DML statements executed so far.
    statements: u64,
}

impl Transaction {
    /// Unique id of this transaction on its engine — also used as the lock
    /// owner for [`crate::lock::LockManager`].
    pub fn id(&self) -> u64 {
        self.id
    }

    /// DML statements executed under this transaction so far.
    pub fn statements(&self) -> u64 {
        self.statements
    }

    /// `true` when no statement staged anything to log.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The read-your-writes snapshot of a statement running inside this
    /// transaction: the committed `floor` plus the transaction's own
    /// uncommitted epochs (other open transactions' staged rows stay
    /// invisible).
    pub(crate) fn snapshot(&self, floor: u64) -> Snapshot {
        Snapshot::Txn {
            floor,
            own: Arc::new(self.epochs.iter().copied().collect()),
        }
    }
}

impl Engine {
    /// Open a transaction. The engine does not track it — the caller owns
    /// the [`Transaction`] and must resolve it via [`Engine::txn_publish`]
    /// or [`Engine::txn_rollback`] (the middleware's session does this).
    pub fn begin_transaction(&mut self) -> Transaction {
        self.txn_seq += 1;
        Transaction {
            id: self.txn_seq,
            pending: Vec::new(),
            undo: Vec::new(),
            epochs: Vec::new(),
            statements: 0,
        }
    }

    /// Execute one statement under an open transaction. DML stages its WAL
    /// record and applies in memory under an uncommitted epoch; SELECT pins
    /// the transaction-scoped snapshot (the transaction sees its own writes
    /// but not other open transactions' staged rows). Everything else —
    /// DDL, DCL — is rejected: those statements commit their own WAL
    /// transaction and cannot be staged or rolled back here. The work is
    /// charged to `ctx`.
    pub fn txn_execute_statement(
        &mut self,
        txn: &mut Transaction,
        stmt: &Statement,
        ctx: &StmtCtx,
    ) -> Result<ResultSet> {
        match stmt {
            Statement::Select(q) => {
                let plan = Planner::new(self, ctx).plan_query(q)?;
                self.execute_plan_in(&plan, &[], Some(txn), ctx)
            }
            Statement::Explain(q) => self.explain_query(q),
            Statement::Insert(insert) => {
                let rows = self.build_insert_rows(insert, Some(txn), ctx)?;
                let count = rows.len() as i64;
                self.txn_insert_rows(txn, &insert.table, rows)?;
                txn.statements += 1;
                Ok(ResultSet {
                    columns: vec!["rows_inserted".to_string()],
                    rows: vec![vec![Value::Int(count)]],
                })
            }
            Statement::Update(update) => {
                let new_rows = self.compute_update_rows(update, Some(txn), ctx)?;
                let changed = new_rows.iter().filter(|(m, _)| *m).count() as i64;
                let rows: Vec<SharedRow> = new_rows.into_iter().map(|(_, r)| r).collect();
                self.txn_replace_rows(txn, &update.table, rows)?;
                txn.statements += 1;
                Ok(ResultSet {
                    columns: vec!["rows_updated".to_string()],
                    rows: vec![vec![Value::Int(changed)]],
                })
            }
            Statement::Delete(delete) => {
                let (keep, removed) = self.compute_delete_rows(delete, Some(txn), ctx)?;
                self.txn_replace_rows(txn, &delete.table, keep)?;
                txn.statements += 1;
                Ok(ResultSet {
                    columns: vec!["rows_deleted".to_string()],
                    rows: vec![vec![Value::Int(removed)]],
                })
            }
            _ => err(
                "only SELECT, INSERT, UPDATE and DELETE are allowed inside a transaction \
                 (DDL and DCL statements commit on their own)",
            ),
        }
    }

    /// Stage and apply one INSERT batch under `txn` (the transactional
    /// counterpart of [`Engine::insert_values`]). The rows staged for the
    /// WAL are exactly the rows applied.
    pub fn txn_insert_rows(
        &mut self,
        txn: &mut Transaction,
        table: &str,
        rows: Vec<Row>,
    ) -> Result<()> {
        // Validate arity up front so an invalid batch stages nothing.
        let width = self.db.table(table)?.columns.len();
        if let Some(bad) = rows.iter().find(|r| r.len() != width) {
            return err(format!(
                "row arity {} does not match table `{table}` with {width} columns",
                bad.len(),
            ));
        }
        // Record the pre-statement tail of every bucket the batch appends
        // to; the undo truncates back to it.
        let t = self.db.table(table)?;
        let canonical = t.name.clone();
        let mut keys: BTreeSet<i64> = BTreeSet::new();
        let mut touches_loose = false;
        match t.partition_column() {
            Some(idx) => {
                for row in &rows {
                    match row.get(idx) {
                        Some(Value::Int(k)) => {
                            keys.insert(*k);
                        }
                        _ => touches_loose = true,
                    }
                }
            }
            None => touches_loose = true,
        }
        for key in keys {
            let (existed, len, marks) = match t.bucket_state(key) {
                Some((len, marks)) => (true, len, marks),
                None => (false, 0, 0),
            };
            txn.undo.push(UndoOp::TruncateBucket {
                table: canonical.clone(),
                key,
                existed,
                len,
                marks,
            });
        }
        if touches_loose {
            let (len, marks) = t.loose_state();
            txn.undo.push(UndoOp::TruncateLoose {
                table: canonical.clone(),
                len,
                marks,
            });
        }
        if self.wal.is_some() {
            txn.pending.push(Record::InsertRows {
                table: canonical,
                rows: rows.clone(),
            });
        }
        let epoch = self.db.begin_uncommitted_epoch();
        txn.epochs.push(epoch);
        let t = self.db.table_mut(table)?;
        t.begin_write(epoch);
        for row in rows {
            t.push_row(row)?;
        }
        Ok(())
    }

    /// Stage and apply one full row-set rewrite (UPDATE / DELETE) under
    /// `txn`. The committed pre-rewrite storage moves into the table's
    /// rewrite shadow (first rewrite of this table under `txn` only), which
    /// serves committed-floor readers while the transaction is open and is
    /// the undo image on rollback.
    fn txn_replace_rows(
        &mut self,
        txn: &mut Transaction,
        table: &str,
        rows: Vec<SharedRow>,
    ) -> Result<()> {
        let canonical = self.db.table(table)?.name.clone();
        if self.wal.is_some() {
            txn.pending.push(Record::ReplaceRows {
                table: canonical.clone(),
                rows: rows.iter().map(|r| r.to_vec()).collect(),
            });
        }
        let epoch = self.db.begin_uncommitted_epoch();
        txn.epochs.push(epoch);
        let t = self.db.table_mut(table)?;
        if t.begin_txn_rewrite(epoch) {
            txn.undo.push(UndoOp::RestoreShadow { table: canonical });
        }
        for row in rows {
            t.push_shared(row);
        }
        Ok(())
    }

    /// Append the transaction's staged records plus one commit marker to
    /// the WAL (group-commit append: the frames are not yet durable).
    /// Returns the commit LSN to pass to
    /// [`crate::wal::WalHandle::wait_durable`], or `None` when there is
    /// nothing to log (empty transaction or non-durable engine) and no wait
    /// is needed. On error nothing was logged — the caller must roll back.
    pub fn txn_append(&mut self, txn: &mut Transaction) -> Result<Option<u64>> {
        if txn.pending.is_empty() {
            return Ok(None);
        }
        let Some(wal) = &self.wal else {
            txn.pending.clear();
            return Ok(None);
        };
        let lsn = wal.append_txn(&std::mem::take(&mut txn.pending))?;
        Ok(Some(lsn))
    }

    /// Resolve a committed transaction: its epochs stop holding down the
    /// committed visibility floor, making its rows visible to snapshot
    /// readers, and the pre-rewrite shadows of its UPDATE / DELETE
    /// statements are dropped (the rewritten storage is committed now).
    /// Call only after the WAL append (and durability wait) succeeded.
    pub fn txn_publish(&mut self, txn: Transaction) {
        for op in &txn.undo {
            if let UndoOp::RestoreShadow { table } = op {
                if let Ok(t) = self.db.table_mut(table) {
                    t.publish_rewrite();
                }
            }
        }
        self.db.resolve_epochs(&txn.epochs);
        self.totals.get_mut().txn_commits += 1;
    }

    /// Roll the transaction back: replay the undo log in reverse, restoring
    /// the pre-transaction state, and resolve the epochs. Used by ROLLBACK
    /// and by every commit failure after statements already applied.
    pub fn txn_rollback(&mut self, txn: Transaction) {
        for op in txn.undo.into_iter().rev() {
            match op {
                UndoOp::TruncateBucket {
                    table,
                    key,
                    existed,
                    len,
                    marks,
                } => {
                    if let Ok(t) = self.db.table_mut(&table) {
                        t.truncate_bucket(key, existed, len, marks);
                    }
                }
                UndoOp::TruncateLoose { table, len, marks } => {
                    if let Ok(t) = self.db.table_mut(&table) {
                        t.truncate_loose(len, marks);
                    }
                }
                UndoOp::RestoreShadow { table } => {
                    if let Ok(t) = self.db.table_mut(&table) {
                        // Intermediate truncate undos may have run against
                        // the doomed rewritten storage above; the restore
                        // overwrites it wholesale with the committed
                        // pre-rewrite storage, watermarks and rewrite epoch
                        // included.
                        t.rollback_rewrite();
                    }
                }
            }
        }
        self.db.resolve_epochs(&txn.epochs);
        self.totals.get_mut().txn_rollbacks += 1;
    }

    /// An executor for the expressions of a DML statement: pinned at the
    /// transaction's snapshot inside one, reading live state otherwise.
    pub(crate) fn dml_executor<'a>(
        &'a self,
        txn: Option<&Transaction>,
        ctx: &'a StmtCtx,
    ) -> Executor<'a> {
        let mut executor = Executor::new(self, ctx);
        if let Some(txn) = txn {
            executor.pin(txn.snapshot(self.db.committed_epoch()));
        }
        executor
    }

    /// The schema of an UPDATE / DELETE's table and its WHERE clause bound
    /// against that schema, as zero or one conjunct.
    fn dml_scope(
        &self,
        table: &str,
        selection: Option<&mtsql::Expr>,
        ctx: &StmtCtx,
    ) -> Result<(Schema, Vec<BoundExpr>)> {
        let t = self.db.table(table)?;
        let schema = Schema::qualified(&t.name, &t.columns);
        let planner = Planner::new(self, ctx);
        let selection = selection
            .iter()
            .map(|p| planner.bind_expr(p, &schema, "DML"))
            .collect::<Result<_>>()?;
        Ok((schema, selection))
    }

    /// Every row of an UPDATE's table with the statement applied: `(true,
    /// new row)` where the WHERE clause holds, `(false, row)` elsewhere.
    /// The predicate and assignments are bound against the table schema;
    /// their sub-queries read at `txn`'s snapshot inside a transaction (the
    /// rewritten table's own rows are iterated directly: the whole-table
    /// writer lock guarantees no foreign uncommitted rows sit in it).
    pub(crate) fn compute_update_rows(
        &self,
        update: &Update,
        txn: Option<&Transaction>,
        ctx: &StmtCtx,
    ) -> Result<Vec<(bool, SharedRow)>> {
        let (schema, selection) = self.dml_scope(&update.table, update.selection.as_ref(), ctx)?;
        let table = self.db.table(&update.table)?;
        let planner = Planner::new(self, ctx);
        let assignments = update
            .assignments
            .iter()
            .map(|(col, expr)| {
                let idx = table.column_index(col).ok_or_else(|| {
                    EngineError::new(format!("no column `{col}` in `{}`", update.table))
                })?;
                Ok((idx, planner.bind_expr(expr, &schema, "DML")?))
            })
            .collect::<Result<Vec<_>>>()?;
        let executor = self.dml_executor(txn, ctx);
        let mut new_rows: Vec<(bool, SharedRow)> = Vec::new();
        for row in table.rows() {
            let frame = Frame::row(&row, None);
            if !executor.bound_all_true(&selection, &frame)? {
                new_rows.push((false, row));
                continue;
            }
            let mut new_row = row.to_vec();
            for (idx, expr) in &assignments {
                new_row[*idx] = executor.eval_bound(expr, &frame)?;
            }
            new_rows.push((true, new_row.into()));
        }
        Ok(new_rows)
    }

    /// The rows a DELETE keeps, and how many it removes (see
    /// [`Engine::compute_update_rows`] on binding and snapshots).
    pub(crate) fn compute_delete_rows(
        &self,
        delete: &Delete,
        txn: Option<&Transaction>,
        ctx: &StmtCtx,
    ) -> Result<(Vec<SharedRow>, i64)> {
        let (_, selection) = self.dml_scope(&delete.table, delete.selection.as_ref(), ctx)?;
        let executor = self.dml_executor(txn, ctx);
        let mut keep: Vec<SharedRow> = Vec::new();
        let mut removed = 0i64;
        for row in self.db.table(&delete.table)?.rows() {
            if executor.bound_all_true(&selection, &Frame::row(&row, None))? {
                removed += 1;
            } else {
                keep.push(row);
            }
        }
        Ok((keep, removed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;

    fn engine_with_rows() -> Engine {
        let mut e = Engine::new(EngineConfig::default());
        e.create_table("t", &["ttid", "v"]);
        e.set_table_partition("t", "ttid").unwrap();
        e.insert_values(
            "t",
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(11)],
                vec![Value::Int(2), Value::Int(20)],
            ],
        )
        .unwrap();
        e
    }

    fn all_rows(e: &Engine) -> Vec<Vec<Value>> {
        e.query("SELECT ttid, v FROM t ORDER BY ttid, v")
            .unwrap()
            .rows
    }

    #[test]
    fn rollback_of_inserts_truncates_back() {
        let mut e = engine_with_rows();
        let before = all_rows(&e);
        let epoch_before = e.current_epoch();
        let mut txn = e.begin_transaction();
        let stmt = mtsql::parse_statement("INSERT INTO t VALUES (1, 12), (3, 30)").unwrap();
        e.txn_execute_statement(&mut txn, &stmt, &StmtCtx::new())
            .unwrap();
        assert_eq!(all_rows(&e).len(), 5, "the transaction sees its writes");
        assert_eq!(e.committed_epoch(), epoch_before, "floor held down");
        e.txn_rollback(txn);
        assert_eq!(all_rows(&e), before);
        assert_eq!(e.committed_epoch(), e.current_epoch());
        // The ttid=3 bucket created by the rolled-back insert is gone.
        assert_eq!(e.database().table("t").unwrap().partition_count(), 2);
    }

    #[test]
    fn rollback_of_update_restores_pre_image() {
        let mut e = engine_with_rows();
        let before = all_rows(&e);
        let mut txn = e.begin_transaction();
        let ins = mtsql::parse_statement("INSERT INTO t VALUES (2, 21)").unwrap();
        let upd = mtsql::parse_statement("UPDATE t SET v = v + 100 WHERE ttid = 1").unwrap();
        e.txn_execute_statement(&mut txn, &ins, &StmtCtx::new())
            .unwrap();
        e.txn_execute_statement(&mut txn, &upd, &StmtCtx::new())
            .unwrap();
        let mid = all_rows(&e);
        assert!(mid.contains(&vec![Value::Int(1), Value::Int(110)]));
        assert!(mid.contains(&vec![Value::Int(2), Value::Int(21)]));
        e.txn_rollback(txn);
        assert_eq!(all_rows(&e), before);
    }

    #[test]
    fn rollback_of_delete_restores_rows() {
        let mut e = engine_with_rows();
        let before = all_rows(&e);
        let mut txn = e.begin_transaction();
        let del = mtsql::parse_statement("DELETE FROM t WHERE ttid = 1").unwrap();
        let rs = e
            .txn_execute_statement(&mut txn, &del, &StmtCtx::new())
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(2)]]);
        assert_eq!(all_rows(&e).len(), 1);
        e.txn_rollback(txn);
        assert_eq!(all_rows(&e), before);
    }

    #[test]
    fn publish_lifts_the_committed_floor() {
        let mut e = engine_with_rows();
        let mut txn = e.begin_transaction();
        let stmt = mtsql::parse_statement("INSERT INTO t VALUES (1, 12)").unwrap();
        e.txn_execute_statement(&mut txn, &stmt, &StmtCtx::new())
            .unwrap();
        assert!(e.committed_epoch() < e.current_epoch());
        assert!(e.txn_append(&mut txn).unwrap().is_none(), "not durable");
        e.txn_publish(txn);
        assert_eq!(e.committed_epoch(), e.current_epoch());
        assert_eq!(all_rows(&e).len(), 4);
        let stats = e.stats();
        assert_eq!(stats.txn_commits, 1);
        assert_eq!(stats.txn_rollbacks, 0);
    }

    #[test]
    fn ddl_is_rejected_inside_a_transaction() {
        let mut e = engine_with_rows();
        let mut txn = e.begin_transaction();
        let stmt = mtsql::parse_statement("DROP TABLE t").unwrap();
        let err = e
            .txn_execute_statement(&mut txn, &stmt, &StmtCtx::new())
            .unwrap_err();
        assert!(err.message.contains("inside a transaction"), "{err}");
        e.txn_rollback(txn);
    }

    #[test]
    fn committed_floor_readers_do_not_see_an_open_rewrite() {
        // The prepared-statement read path pins the committed floor while
        // any transaction is open. An UPDATE staged inside a transaction
        // rewrites the table's storage; the floor reader must be served the
        // pre-update rows from the rewrite shadow — not the staged rewrite,
        // and not an empty result.
        let mut e = engine_with_rows();
        let before = all_rows(&e);
        let q = mtsql::parse_query("SELECT ttid, v FROM t ORDER BY ttid, v").unwrap();
        let plan = e.plan_query(&q).unwrap();
        let mut txn = e.begin_transaction();
        let upd = mtsql::parse_statement("UPDATE t SET v = v + 100 WHERE ttid = 1").unwrap();
        e.txn_execute_statement(&mut txn, &upd, &StmtCtx::new())
            .unwrap();
        assert_eq!(e.execute_plan(&plan, &[]).unwrap().rows, before);
        e.txn_publish(txn);
        let after = e.execute_plan(&plan, &[]).unwrap().rows;
        assert!(after.contains(&vec![Value::Int(1), Value::Int(110)]));
        assert!(!after.contains(&vec![Value::Int(1), Value::Int(10)]));
    }

    #[test]
    fn committed_floor_readers_survive_a_rolled_back_delete() {
        let mut e = engine_with_rows();
        let before = all_rows(&e);
        let q = mtsql::parse_query("SELECT ttid, v FROM t ORDER BY ttid, v").unwrap();
        let plan = e.plan_query(&q).unwrap();
        let mut txn = e.begin_transaction();
        let del = mtsql::parse_statement("DELETE FROM t").unwrap();
        e.txn_execute_statement(&mut txn, &del, &StmtCtx::new())
            .unwrap();
        // Mid-transaction: the table's live storage is empty, the shadow
        // still serves the committed rows.
        assert_eq!(e.execute_plan(&plan, &[]).unwrap().rows, before);
        e.txn_rollback(txn);
        assert_eq!(e.execute_plan(&plan, &[]).unwrap().rows, before);
    }

    #[test]
    fn rollback_of_a_rewrite_restores_pinned_snapshots() {
        // A cursor pinned before the transaction opened must survive the
        // transaction aborting: rollback restores the pre-rewrite storage,
        // watermarks *and* rewrite epoch, so `snapshot_servable` holds for
        // the old floor again (it was permanently broken before the shadow
        // mechanism — the epoch stayed bumped and the watermarks were gone).
        let mut e = engine_with_rows();
        let pinned = e.committed_epoch();
        let mut txn = e.begin_transaction();
        let upd = mtsql::parse_statement("UPDATE t SET v = 0 WHERE ttid = 1").unwrap();
        e.txn_execute_statement(&mut txn, &upd, &StmtCtx::new())
            .unwrap();
        {
            let t = e.database().table("t").unwrap();
            assert!(t.has_rewrite_shadow());
            assert!(t.snapshot_servable(pinned), "served from the shadow");
        }
        e.txn_rollback(txn);
        let t = e.database().table("t").unwrap();
        assert!(!t.has_rewrite_shadow());
        assert!(t.rewrite_epoch() <= pinned, "rewrite epoch restored");
        assert!(t.snapshot_servable(pinned));
    }

    #[test]
    fn a_transaction_reads_its_own_writes_but_not_anothers() {
        // Two transactions staging inserts into different buckets of the
        // same table: each in-transaction read sees its own staged rows on
        // top of the committed floor, and never the other's.
        let mut e = engine_with_rows();
        let mut t1 = e.begin_transaction();
        let mut t2 = e.begin_transaction();
        let i1 = mtsql::parse_statement("INSERT INTO t VALUES (1, 12)").unwrap();
        let i2 = mtsql::parse_statement("INSERT INTO t VALUES (2, 21)").unwrap();
        e.txn_execute_statement(&mut t1, &i1, &StmtCtx::new())
            .unwrap();
        e.txn_execute_statement(&mut t2, &i2, &StmtCtx::new())
            .unwrap();
        let q = mtsql::parse_query("SELECT ttid, v FROM t ORDER BY ttid, v").unwrap();
        let plan = e.plan_query(&q).unwrap();
        let r1 = e
            .execute_plan_in(&plan, &[], Some(&t1), &StmtCtx::new())
            .unwrap()
            .rows;
        assert!(r1.contains(&vec![Value::Int(1), Value::Int(12)]));
        assert!(!r1.contains(&vec![Value::Int(2), Value::Int(21)]));
        let r2 = e
            .execute_plan_in(&plan, &[], Some(&t2), &StmtCtx::new())
            .unwrap()
            .rows;
        assert!(r2.contains(&vec![Value::Int(2), Value::Int(21)]));
        assert!(!r2.contains(&vec![Value::Int(1), Value::Int(12)]));
        e.txn_rollback(t1);
        e.txn_publish(t2);
        let final_rows = all_rows(&e);
        assert!(final_rows.contains(&vec![Value::Int(2), Value::Int(21)]));
        assert!(!final_rows.contains(&vec![Value::Int(1), Value::Int(12)]));
    }
}
