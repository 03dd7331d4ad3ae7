//! Write-ahead log: durable, checksummed mutation records with crash
//! recovery.
//!
//! Every engine mutation (CREATE/DROP TABLE, INSERT, the full-rewrite form
//! of UPDATE/DELETE, view DDL, bulk loads) and every catalog mutation the
//! middleware forwards ([`MetaOp`]) is appended to a single log file as one
//! *transaction*: the mutation's records followed by a commit marker, then
//! an `fsync`. The engine applies the mutation in memory only after the
//! commit is durable, so the in-memory state always equals the log's
//! committed prefix — a crash at any instant loses at most the in-flight
//! statement.
//!
//! # On-disk format
//!
//! ```text
//! file   := magic ("MTWALv01") frame*
//! frame  := len:u32  payload  crc:u32      (crc = CRC-32/IEEE of payload)
//! payload:= lsn:u64  kind:u8  body
//! ```
//!
//! All integers are little-endian. LSNs increase by one per frame across
//! the whole file. [`recover`] replays committed transactions in order and
//! stops at the first torn, short or checksum-failing frame — everything
//! after the last durable commit marker is discarded (and truncated away on
//! the next [`WalHandle::open_at`]), which is exactly the committed-prefix
//! contract the crash harness in `tests/wal_recovery.rs` pins.
//!
//! # Crash-fault injection
//!
//! [`FailpointClock`] is a deterministic op counter shared with the test
//! harness: the N-th appended frame can be made to crash as a torn write
//! (half the frame reaches the file), a pre-fsync loss (the frame is
//! written but the "OS cache" is dropped back to the last durable offset)
//! or a bit flip (the frame is committed with one payload bit inverted).
//! After a simulated crash the writer is permanently dead and every further
//! append fails with a [`EngineErrorKind::Poisoned`] error — the engine
//! refuses to mutate, mirroring a process that must restart to recover.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::error::{EngineError, EngineErrorKind, Result};
use crate::table::Row;
use crate::value::Value;

/// Magic bytes opening every WAL file (8 bytes, includes the format version).
const MAGIC: &[u8; 8] = b"MTWALv01";

/// Frames larger than this are rejected as corrupt before allocating.
const MAX_FRAME: u32 = 1 << 30;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32/IEEE checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One logged engine mutation (or commit marker). UPDATE and DELETE are
/// logged as [`Record::ReplaceRows`] — the engine implements both as a full
/// row-set rewrite, so the log carries the complete new row set rather than
/// a diff. Physical layout flags (columnar, dictionary) are deliberately
/// *not* logged: recovery re-encodes replayed rows under the recovering
/// engine's `EngineConfig`, leaning on the PR 3/PR 5 guarantee that layout
/// never changes results.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// `CREATE TABLE` as the engine sees it (name + column names).
    CreateTable { name: String, columns: Vec<String> },
    /// Partition-column declaration (the invisible `ttid`).
    SetPartition { table: String, column: String },
    /// Bulk or statement-level INSERT.
    InsertRows { table: String, rows: Vec<Row> },
    /// Full row-set rewrite (UPDATE / DELETE).
    ReplaceRows { table: String, rows: Vec<Row> },
    /// `DROP TABLE`.
    DropTable { name: String },
    /// `CREATE VIEW`, with the definition as SQL text (reparsed on replay).
    CreateView { name: String, sql: String },
    /// `DROP VIEW`.
    DropView { name: String },
    /// A catalog mutation forwarded by the middleware (opaque to the
    /// engine; replayed into `mtcatalog` by `MtBase::open_durable`).
    Meta(MetaOp),
    /// Transaction commit marker; everything since the previous marker
    /// becomes durable atomically.
    Commit,
}

/// Catalog (DDL/DCL) mutations logged on behalf of the middleware. The
/// engine stores these verbatim during recovery ([`crate::Engine::take_recovered_meta`]);
/// it never interprets them.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaOp {
    /// `CREATE TABLE` DDL text, reparsed and re-registered on recovery
    /// (carries MTBase annotations — COMPARABLE/CONVERTIBLE/SPECIFIC — the
    /// engine-side record cannot express).
    CreateTableDdl { sql: String },
    /// Tenant registration.
    RegisterTenant { tenant: i64 },
    /// `GRANT` of `privileges` (bitmask, see [`MetaOp::privilege_bit`]) on
    /// `table` from `owner` to `grantee`.
    Grant {
        owner: i64,
        grantee: i64,
        table: String,
        privileges: u8,
    },
    /// `REVOKE`, mirroring [`MetaOp::Grant`].
    Revoke {
        owner: i64,
        grantee: i64,
        table: String,
        privileges: u8,
    },
    /// Catalog-side `DROP TABLE` (the engine-side drop is its own record).
    DropTable { name: String },
}

impl MetaOp {
    /// Stable bit assignment for privilege bitmasks (READ=1, INSERT=2,
    /// UPDATE=4, DELETE=8, GRANT=16, REVOKE=32). Lives here so the encoding
    /// is part of the WAL format, not middleware convention.
    pub fn privilege_bit(index: usize) -> u8 {
        1u8 << index
    }
}

const KIND_CREATE_TABLE: u8 = 1;
const KIND_SET_PARTITION: u8 = 2;
const KIND_INSERT_ROWS: u8 = 3;
const KIND_REPLACE_ROWS: u8 = 4;
const KIND_DROP_TABLE: u8 = 5;
const KIND_CREATE_VIEW: u8 = 6;
const KIND_DROP_VIEW: u8 = 7;
const KIND_META: u8 = 8;
const KIND_COMMIT: u8 = 9;

const META_CREATE_DDL: u8 = 1;
const META_TENANT: u8 = 2;
const META_GRANT: u8 = 3;
const META_REVOKE: u8 = 4;
const META_DROP_TABLE: u8 = 5;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, x: i64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

const VAL_NULL: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_FLOAT: u8 = 3;
const VAL_STR: u8 = 4;
const VAL_DATE: u8 = 5;

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(VAL_NULL),
        Value::Bool(b) => {
            out.push(VAL_BOOL);
            out.push(*b as u8);
        }
        Value::Int(x) => {
            out.push(VAL_INT);
            put_i64(out, *x);
        }
        Value::Float(x) => {
            out.push(VAL_FLOAT);
            put_u64(out, x.to_bits());
        }
        Value::Str(s) => {
            out.push(VAL_STR);
            put_str(out, s);
        }
        Value::Date(d) => {
            out.push(VAL_DATE);
            out.extend_from_slice(&d.to_le_bytes());
        }
    }
}

fn put_rows(out: &mut Vec<u8>, rows: &[Row]) {
    put_u32(out, rows.len() as u32);
    for row in rows {
        put_u32(out, row.len() as u32);
        for v in row {
            put_value(out, v);
        }
    }
}

fn encode_body(record: &Record, out: &mut Vec<u8>) -> u8 {
    match record {
        Record::CreateTable { name, columns } => {
            put_str(out, name);
            put_u32(out, columns.len() as u32);
            for c in columns {
                put_str(out, c);
            }
            KIND_CREATE_TABLE
        }
        Record::SetPartition { table, column } => {
            put_str(out, table);
            put_str(out, column);
            KIND_SET_PARTITION
        }
        Record::InsertRows { table, rows } => {
            put_str(out, table);
            put_rows(out, rows);
            KIND_INSERT_ROWS
        }
        Record::ReplaceRows { table, rows } => {
            put_str(out, table);
            put_rows(out, rows);
            KIND_REPLACE_ROWS
        }
        Record::DropTable { name } => {
            put_str(out, name);
            KIND_DROP_TABLE
        }
        Record::CreateView { name, sql } => {
            put_str(out, name);
            put_str(out, sql);
            KIND_CREATE_VIEW
        }
        Record::DropView { name } => {
            put_str(out, name);
            KIND_DROP_VIEW
        }
        Record::Meta(op) => {
            match op {
                MetaOp::CreateTableDdl { sql } => {
                    out.push(META_CREATE_DDL);
                    put_str(out, sql);
                }
                MetaOp::RegisterTenant { tenant } => {
                    out.push(META_TENANT);
                    put_i64(out, *tenant);
                }
                MetaOp::Grant {
                    owner,
                    grantee,
                    table,
                    privileges,
                } => {
                    out.push(META_GRANT);
                    put_i64(out, *owner);
                    put_i64(out, *grantee);
                    put_str(out, table);
                    out.push(*privileges);
                }
                MetaOp::Revoke {
                    owner,
                    grantee,
                    table,
                    privileges,
                } => {
                    out.push(META_REVOKE);
                    put_i64(out, *owner);
                    put_i64(out, *grantee);
                    put_str(out, table);
                    out.push(*privileges);
                }
                MetaOp::DropTable { name } => {
                    out.push(META_DROP_TABLE);
                    put_str(out, name);
                }
            }
            KIND_META
        }
        Record::Commit => KIND_COMMIT,
    }
}

/// Encode one frame: `[len][lsn][kind][body][crc]`.
fn encode_frame(lsn: u64, record: &Record) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    put_u64(&mut payload, lsn);
    payload.push(0); // kind placeholder
    let kind_at = payload.len() - 1;
    let kind = encode_body(record, &mut payload);
    payload[kind_at] = kind;

    let mut frame = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut frame, payload.len() as u32);
    frame.extend_from_slice(&payload);
    put_u32(&mut frame, crc32(&payload));
    frame
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Buf<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Buf<'a> {
    fn short<T>(&self, what: &str) -> Result<T> {
        Err(EngineError::with_kind(
            EngineErrorKind::ShortRead,
            format!("WAL record ended while reading {what}"),
        ))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.data.len() - self.pos < n {
            return self.short(what);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn i32(&mut self, what: &str) -> Result<i32> {
        let b = self.take(4, what)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn i64(&mut self, what: &str) -> Result<i64> {
        Ok(self.u64(what)? as i64)
    }

    fn str(&mut self, what: &str) -> Result<String> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| {
            EngineError::with_kind(
                EngineErrorKind::Corrupt,
                format!("WAL {what} is not valid UTF-8"),
            )
        })
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8("value tag")? {
            VAL_NULL => Value::Null,
            VAL_BOOL => Value::Bool(self.u8("bool value")? != 0),
            VAL_INT => Value::Int(self.i64("int value")?),
            VAL_FLOAT => Value::Float(f64::from_bits(self.u64("float value")?)),
            VAL_STR => Value::str(self.str("string value")?),
            VAL_DATE => Value::Date(self.i32("date value")?),
            tag => {
                return Err(EngineError::with_kind(
                    EngineErrorKind::Corrupt,
                    format!("unknown WAL value tag {tag}"),
                ))
            }
        })
    }

    fn rows(&mut self) -> Result<Vec<Row>> {
        let n = self.u32("row count")? as usize;
        let mut rows = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let width = self.u32("row arity")? as usize;
            let mut row = Vec::with_capacity(width.min(1 << 16));
            for _ in 0..width {
                row.push(self.value()?);
            }
            rows.push(row);
        }
        Ok(rows)
    }
}

fn decode_payload(payload: &[u8]) -> Result<(u64, Record)> {
    let mut buf = Buf {
        data: payload,
        pos: 0,
    };
    let lsn = buf.u64("lsn")?;
    let kind = buf.u8("record kind")?;
    let record = match kind {
        KIND_CREATE_TABLE => {
            let name = buf.str("table name")?;
            let n = buf.u32("column count")? as usize;
            let mut columns = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                columns.push(buf.str("column name")?);
            }
            Record::CreateTable { name, columns }
        }
        KIND_SET_PARTITION => Record::SetPartition {
            table: buf.str("table name")?,
            column: buf.str("partition column")?,
        },
        KIND_INSERT_ROWS => Record::InsertRows {
            table: buf.str("table name")?,
            rows: buf.rows()?,
        },
        KIND_REPLACE_ROWS => Record::ReplaceRows {
            table: buf.str("table name")?,
            rows: buf.rows()?,
        },
        KIND_DROP_TABLE => Record::DropTable {
            name: buf.str("table name")?,
        },
        KIND_CREATE_VIEW => Record::CreateView {
            name: buf.str("view name")?,
            sql: buf.str("view definition")?,
        },
        KIND_DROP_VIEW => Record::DropView {
            name: buf.str("view name")?,
        },
        KIND_META => {
            let tag = buf.u8("meta tag")?;
            let op = match tag {
                META_CREATE_DDL => MetaOp::CreateTableDdl {
                    sql: buf.str("meta DDL")?,
                },
                META_TENANT => MetaOp::RegisterTenant {
                    tenant: buf.i64("tenant id")?,
                },
                META_GRANT => MetaOp::Grant {
                    owner: buf.i64("grant owner")?,
                    grantee: buf.i64("grant grantee")?,
                    table: buf.str("grant table")?,
                    privileges: buf.u8("grant privileges")?,
                },
                META_REVOKE => MetaOp::Revoke {
                    owner: buf.i64("revoke owner")?,
                    grantee: buf.i64("revoke grantee")?,
                    table: buf.str("revoke table")?,
                    privileges: buf.u8("revoke privileges")?,
                },
                META_DROP_TABLE => MetaOp::DropTable {
                    name: buf.str("meta table name")?,
                },
                other => {
                    return Err(EngineError::with_kind(
                        EngineErrorKind::Corrupt,
                        format!("unknown WAL meta tag {other}"),
                    ))
                }
            };
            Record::Meta(op)
        }
        KIND_COMMIT => Record::Commit,
        other => {
            return Err(EngineError::with_kind(
                EngineErrorKind::Corrupt,
                format!("unknown WAL record kind {other}"),
            ))
        }
    };
    if buf.pos != payload.len() {
        return Err(EngineError::with_kind(
            EngineErrorKind::Corrupt,
            "WAL record has trailing bytes".to_string(),
        ));
    }
    Ok((lsn, record))
}

/// Decode the frame starting at `pos`. `Ok(None)` means a clean end of
/// file; any torn, short or checksum-failing frame is an error (recovery
/// stops there).
fn read_frame(data: &[u8], pos: usize) -> Result<Option<(usize, u64, Record)>> {
    if pos == data.len() {
        return Ok(None);
    }
    if data.len() - pos < 4 {
        return Err(EngineError::with_kind(
            EngineErrorKind::ShortRead,
            "WAL ends inside a frame length prefix",
        ));
    }
    let len = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
    if len == 0 || len > MAX_FRAME {
        return Err(EngineError::with_kind(
            EngineErrorKind::Corrupt,
            format!("implausible WAL frame length {len}"),
        ));
    }
    let body_start = pos + 4;
    let body_end = body_start + len as usize;
    let frame_end = body_end + 4;
    if frame_end > data.len() {
        return Err(EngineError::with_kind(
            EngineErrorKind::ShortRead,
            format!(
                "torn WAL frame: {} bytes promised, {} available",
                len + 4,
                data.len() - body_start
            ),
        ));
    }
    let payload = &data[body_start..body_end];
    let stored_crc = u32::from_le_bytes([
        data[body_end],
        data[body_end + 1],
        data[body_end + 2],
        data[body_end + 3],
    ]);
    if crc32(payload) != stored_crc {
        return Err(EngineError::with_kind(
            EngineErrorKind::Corrupt,
            "WAL frame failed its checksum",
        ));
    }
    let (lsn, record) = decode_payload(payload)?;
    Ok(Some((frame_end, lsn, record)))
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// The result of scanning a WAL file: the committed records in log order,
/// the last committed LSN, and the byte offset of the end of the committed
/// prefix (everything past it is untrusted and truncated on reopen).
#[derive(Debug, Default)]
pub struct Recovery {
    /// Committed records, flattened in commit order (commit markers and
    /// uncommitted tails excluded).
    pub records: Vec<Record>,
    /// The LSN of the last commit marker (0 when the log is empty).
    pub last_lsn: u64,
    /// End of the committed prefix in bytes (0 for a missing file).
    pub valid_len: u64,
}

/// Scan a WAL file and return its committed prefix. A missing file is an
/// empty log. A present file with a bad header is a hard
/// [`Corrupt`](EngineErrorKind::Corrupt) error — recovery never silently
/// discards a whole log. Torn or corrupt frames *after* the header end the
/// committed prefix quietly: that is the expected shape of a crash.
pub fn recover(path: &Path) -> Result<Recovery> {
    if !path.exists() {
        return Ok(Recovery::default());
    }
    let data = std::fs::read(path)?;
    if data.is_empty() {
        return Ok(Recovery::default());
    }
    if data.len() < MAGIC.len() || &data[..MAGIC.len()] != MAGIC {
        return Err(EngineError::with_kind(
            EngineErrorKind::Corrupt,
            format!("not a WAL file: bad magic in {}", path.display()),
        ));
    }
    let mut pos = MAGIC.len();
    let mut recovery = Recovery {
        valid_len: MAGIC.len() as u64,
        ..Recovery::default()
    };
    let mut pending: Vec<Record> = Vec::new();
    let mut prev_lsn = 0u64;
    loop {
        match read_frame(&data, pos) {
            Ok(None) => break,
            // A torn, short or corrupt frame ends the trusted region; the
            // pending (uncommitted) transaction is discarded.
            Err(_) => break,
            Ok(Some((next, lsn, record))) => {
                if lsn <= prev_lsn {
                    // LSNs must strictly increase; a repeat means the tail
                    // was overwritten by a different history. Stop trusting.
                    break;
                }
                prev_lsn = lsn;
                pos = next;
                match record {
                    Record::Commit => {
                        recovery.records.append(&mut pending);
                        recovery.last_lsn = lsn;
                        recovery.valid_len = pos as u64;
                    }
                    other => pending.push(other),
                }
            }
        }
    }
    Ok(recovery)
}

// ---------------------------------------------------------------------------
// Failpoints
// ---------------------------------------------------------------------------

/// How an injected crash corrupts the log at the chosen op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Only the first half of the frame reaches the file.
    TornWrite,
    /// The frame is written but never synced; the "OS cache" is dropped
    /// back to the last durable offset.
    PreFsyncLoss,
    /// One payload bit is inverted; the transaction still commits and
    /// syncs, so recovery must catch it by checksum.
    BitFlip,
}

impl CrashMode {
    /// Parse the fault-mode names used by the `WAL_FAULT_MODE` environment
    /// variable (CI shards the crash sweep across a mode matrix). Unknown
    /// names are an error — a typo must abort the harness, not silently run
    /// the wrong sweep.
    pub fn parse(s: &str) -> std::result::Result<CrashMode, String> {
        match s {
            "torn-write" => Ok(CrashMode::TornWrite),
            "pre-fsync-loss" => Ok(CrashMode::PreFsyncLoss),
            "bit-flip" => Ok(CrashMode::BitFlip),
            other => Err(format!(
                "unknown WAL_FAULT_MODE `{other}` (expected `torn-write`, `pre-fsync-loss` or `bit-flip`)"
            )),
        }
    }
}

/// Deterministic crash-fault injection hook for the WAL writer: counts
/// appended frames and fires once when the count reaches `crash_at`.
/// Create with [`FailpointClock::crash_at`] to inject, or
/// [`FailpointClock::observe`] to just count ops (the harness runs the
/// workload once under an observer to enumerate every crash point, then
/// sweeps them).
#[derive(Debug)]
pub struct FailpointClock {
    counter: AtomicU64,
    crash_at: u64,
    mode: CrashMode,
    fired: AtomicBool,
}

impl FailpointClock {
    /// A clock that crashes the writer at the `crash_at`-th appended frame
    /// (1-based) with the given mode.
    pub fn crash_at(crash_at: u64, mode: CrashMode) -> Arc<Self> {
        Arc::new(FailpointClock {
            counter: AtomicU64::new(0),
            crash_at,
            mode,
            fired: AtomicBool::new(false),
        })
    }

    /// A clock that never fires — used to count the frames a workload
    /// appends, which enumerates the crash points to sweep.
    pub fn observe() -> Arc<Self> {
        Self::crash_at(u64::MAX, CrashMode::TornWrite)
    }

    /// Total frames appended so far.
    pub fn ops(&self) -> u64 {
        self.counter.load(Ordering::SeqCst)
    }

    /// Did the crash point fire?
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    fn tick(&self) -> Option<CrashMode> {
        let n = self.counter.fetch_add(1, Ordering::SeqCst) + 1;
        if n == self.crash_at {
            self.fired.store(true, Ordering::SeqCst);
            Some(self.mode)
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Shared state of the writer, guarded by [`WalHandle::state`].
struct WalState {
    /// The log file, shared so a flush leader can `sync_data` outside the
    /// mutex while other writers keep appending.
    file: Arc<File>,
    next_lsn: u64,
    /// Current write offset.
    len: u64,
    /// Offset known durable (through the last successful sync).
    synced_len: u64,
    /// LSN of the last frame known durable.
    synced_lsn: u64,
    /// A flush leader is currently running `sync_data` outside the lock.
    flushing: bool,
    /// Commit markers appended but not yet covered by a successful sync;
    /// moved onto the durable [`WalHandle::commits`] counter by the flush
    /// that covers them (a transaction whose flush fails rolls back and is
    /// never counted).
    pending_commits: u64,
    dead: bool,
    /// An injected bit flip was appended; the next successful sync must
    /// poison the writer (the frame is durable but corrupt).
    poison_at_sync: bool,
    clock: Option<Arc<FailpointClock>>,
}

/// The append side of the WAL — the one writer, with group commit:
/// [`WalHandle::append_txn`] appends a transaction's frames plus a commit
/// marker under a short critical section, and [`WalHandle::wait_durable`]
/// parks the committer until a flush covers its commit LSN. Whichever
/// committer finds no flush in flight becomes the leader and syncs *outside*
/// the mutex — every transaction appended meanwhile rides the same `fsync`,
/// so under concurrency the fsyncs-per-commit ratio drops below one, while a
/// lone committer is its own leader and pays exactly one `fsync` per commit.
/// After a simulated crash the writer is permanently dead (every call fails
/// with a [`Poisoned`](EngineErrorKind::Poisoned) error).
pub struct WalHandle {
    state: Mutex<WalState>,
    /// Signalled after every flush completes (or the writer dies).
    flushed: Condvar,
    fsyncs: AtomicU64,
    commits: AtomicU64,
}

impl WalHandle {
    /// Open (or create) the log for appending after [`recover`]: the file
    /// is truncated to the committed prefix (discarding any untrusted tail)
    /// and LSNs continue after the last committed one.
    pub fn open_at(path: &Path, recovery: &Recovery) -> Result<Arc<WalHandle>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut len = recovery.valid_len;
        if len < MAGIC.len() as u64 {
            file.set_len(0)?;
            (&file).write_all(MAGIC)?;
            len = MAGIC.len() as u64;
        } else {
            file.set_len(len)?;
        }
        file.sync_data()?;
        use std::io::Seek;
        let mut file = file;
        file.seek(std::io::SeekFrom::Start(len))?;
        Ok(Arc::new(WalHandle {
            state: Mutex::new(WalState {
                file: Arc::new(file),
                next_lsn: recovery.last_lsn + 1,
                len,
                synced_len: len,
                synced_lsn: recovery.last_lsn,
                flushing: false,
                pending_commits: 0,
                dead: false,
                poison_at_sync: false,
                clock: None,
            }),
            flushed: Condvar::new(),
            fsyncs: AtomicU64::new(0),
            commits: AtomicU64::new(0),
        }))
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, WalState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Install a crash-fault injection clock (tests only in practice).
    pub fn set_failpoint_clock(&self, clock: Arc<FailpointClock>) {
        self.lock_state().clock = Some(clock);
    }

    /// The LSN of the most recently appended frame (0 if none yet).
    pub fn last_lsn(&self) -> u64 {
        self.lock_state().next_lsn - 1
    }

    /// Total `sync_data` calls issued so far.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::SeqCst)
    }

    /// Total *durable* transactions so far: commit markers covered by a
    /// successful sync. A transaction whose covering flush fails (and
    /// therefore rolls back) is never counted, so the fsyncs-per-commit
    /// ratio reported by the stats is computed over real commits only.
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::SeqCst)
    }

    fn dead_err<T>() -> Result<T> {
        Err(EngineError::with_kind(
            EngineErrorKind::Poisoned,
            "WAL writer is dead after a simulated crash; reopen to recover",
        ))
    }

    fn write_state(state: &mut WalState, bytes: &[u8]) -> Result<()> {
        if let Err(e) = (&*state.file).write_all(bytes) {
            // A real write error leaves the tail in an unknown state; the
            // writer must die so nothing applies on top of it.
            state.dead = true;
            return Err(e.into());
        }
        state.len += bytes.len() as u64;
        Ok(())
    }

    /// Append `records` plus a commit marker under the state lock; the
    /// frames are *not* durable until a [`WalHandle::wait_durable`] covering
    /// the returned commit LSN succeeds. On any error (real I/O or injected
    /// crash) nothing is considered committed and the caller must not apply
    /// the mutation in memory.
    pub fn append_txn(&self, records: &[Record]) -> Result<u64> {
        let mut state = self.lock_state();
        if state.dead {
            return Self::dead_err();
        }
        let commit = [Record::Commit];
        let result = self.append_locked(&mut state, records.iter().chain(commit.iter()));
        if state.dead {
            self.flushed.notify_all();
        }
        let lsn = result?;
        // Appended, not durable: the commit is counted by the flush that
        // covers it.
        state.pending_commits += 1;
        Ok(lsn)
    }

    fn append_locked<'r>(
        &self,
        state: &mut WalState,
        records: impl Iterator<Item = &'r Record>,
    ) -> Result<u64> {
        for record in records {
            let frame = encode_frame(state.next_lsn, record);
            match state.clock.as_ref().and_then(|c| c.tick()) {
                None => Self::write_state(state, &frame)?,
                Some(CrashMode::TornWrite) => {
                    // Half the frame reaches the file; the process "dies".
                    let torn = frame.len() / 2;
                    Self::write_state(state, &frame[..torn])?;
                    state.dead = true;
                    return Err(EngineError::with_kind(
                        EngineErrorKind::Poisoned,
                        "simulated crash: torn WAL write",
                    ));
                }
                Some(CrashMode::PreFsyncLoss) => {
                    // The frame is written but the sync never happens; model
                    // the lost OS cache by dropping back to the durable
                    // offset.
                    Self::write_state(state, &frame)?;
                    state.file.set_len(state.synced_len)?;
                    state.len = state.synced_len;
                    use std::io::Seek;
                    (&*state.file).seek(std::io::SeekFrom::Start(state.len))?;
                    state.dead = true;
                    return Err(EngineError::with_kind(
                        EngineErrorKind::Poisoned,
                        "simulated crash: WAL tail lost before fsync",
                    ));
                }
                Some(CrashMode::BitFlip) => {
                    // Flip one payload bit but let the transaction commit:
                    // recovery must catch this by checksum, not framing.
                    let mut flipped = frame.clone();
                    let at = 4 + (flipped.len() - 8) / 2;
                    flipped[at] ^= 0x10;
                    Self::write_state(state, &flipped)?;
                    state.poison_at_sync = true;
                }
            }
            state.next_lsn += 1;
        }
        Ok(state.next_lsn - 1)
    }

    /// Block until a flush covers `lsn` (or the writer dies). The first
    /// committer to arrive while no flush is in flight becomes the leader:
    /// it snapshots the current tail, runs `sync_data` *outside* the lock,
    /// then publishes the new durable watermark and wakes every parked
    /// committer whose transaction the flush covered — that is the group
    /// commit.
    pub fn wait_durable(&self, lsn: u64) -> Result<()> {
        let mut state = self.lock_state();
        loop {
            if state.synced_lsn >= lsn {
                return Ok(());
            }
            if state.dead {
                return Self::dead_err();
            }
            if state.flushing {
                state = self.flushed.wait(state).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            state.flushing = true;
            let file = Arc::clone(&state.file);
            let target_len = state.len;
            let target_lsn = state.next_lsn - 1;
            let poison = state.poison_at_sync;
            // This flush covers every append staged so far: on success they
            // become durable commits; on failure or poison they are dropped
            // (the failing transactions roll back and are never counted).
            let covered = std::mem::take(&mut state.pending_commits);
            drop(state);
            let synced = file.sync_data();
            state = self.lock_state();
            state.flushing = false;
            match synced {
                Ok(()) => {
                    self.fsyncs.fetch_add(1, Ordering::SeqCst);
                    state.synced_len = state.synced_len.max(target_len);
                    state.synced_lsn = state.synced_lsn.max(target_lsn);
                    if poison {
                        state.dead = true;
                        state.poison_at_sync = false;
                        self.flushed.notify_all();
                        return Err(EngineError::with_kind(
                            EngineErrorKind::Poisoned,
                            "simulated crash: WAL frame committed with a flipped bit",
                        ));
                    }
                    self.commits.fetch_add(covered, Ordering::SeqCst);
                    self.flushed.notify_all();
                }
                Err(e) => {
                    state.dead = true;
                    self.flushed.notify_all();
                    return Err(e.into());
                }
            }
        }
    }

    /// Append one transaction and make it durable before returning — the
    /// commit path of every auto-commit statement. Returns the commit LSN.
    pub fn commit(&self, records: &[Record]) -> Result<u64> {
        let lsn = self.append_txn(records)?;
        self.wait_durable(lsn)?;
        Ok(lsn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mtengine-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}-{}.wal", name, std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::CreateTable {
                name: "t".into(),
                columns: vec!["ttid".into(), "v".into(), "s".into()],
            },
            Record::SetPartition {
                table: "t".into(),
                column: "ttid".into(),
            },
            Record::InsertRows {
                table: "t".into(),
                rows: vec![
                    vec![Value::Int(1), Value::Float(0.5), Value::str("hello")],
                    vec![Value::Int(2), Value::Null, Value::Date(9_000)],
                    vec![Value::Int(1), Value::Bool(true), Value::str("")],
                ],
            },
            Record::Meta(MetaOp::Grant {
                owner: 1,
                grantee: 2,
                table: "t".into(),
                privileges: 0b11,
            }),
            Record::CreateView {
                name: "v".into(),
                sql: "SELECT v FROM t".into(),
            },
        ]
    }

    #[test]
    fn frames_round_trip() {
        for (i, record) in sample_records().iter().enumerate() {
            let frame = encode_frame(i as u64 + 1, record);
            let (next, lsn, decoded) = read_frame(&frame, 0).unwrap().unwrap();
            assert_eq!(next, frame.len());
            assert_eq!(lsn, i as u64 + 1);
            assert_eq!(&decoded, record);
        }
    }

    #[test]
    fn truncated_tail_recovers_committed_prefix() {
        let path = tmp("truncated");
        let records = sample_records();
        {
            let wal = WalHandle::open_at(&path, &Recovery::default()).unwrap();
            wal.commit(&records[..2]).unwrap();
            wal.commit(&records[2..]).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let committed_prefix = recover(&path).unwrap();
        // Chop bytes off the tail one at a time: recovery must always
        // return a committed prefix, never error, never invent records.
        for cut in 1..full.len() - MAGIC.len() {
            std::fs::write(&path, &full[..full.len() - cut]).unwrap();
            let r = recover(&path).unwrap();
            assert!(r.records.len() <= committed_prefix.records.len());
            assert_eq!(r.records, committed_prefix.records[..r.records.len()]);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flips_are_caught_by_checksum() {
        let path = tmp("bitflip");
        {
            let wal = WalHandle::open_at(&path, &Recovery::default()).unwrap();
            wal.commit(&sample_records()).unwrap();
        }
        let clean = recover(&path).unwrap();
        assert!(!clean.records.is_empty());
        let full = std::fs::read(&path).unwrap();
        // Flip one bit somewhere inside the frames (past the magic): the
        // corrupted record and everything after it must be discarded.
        for at in [MAGIC.len() + 9, MAGIC.len() + 30, full.len() - 3] {
            let mut data = full.clone();
            data[at] ^= 0x40;
            std::fs::write(&path, &data).unwrap();
            let r = recover(&path).unwrap();
            assert!(r.records.len() < clean.records.len());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_is_a_hard_error() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOTAWALFILE-----").unwrap();
        let err = recover(&path).unwrap_err();
        assert_eq!(err.kind(), EngineErrorKind::Corrupt);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopen_truncates_untrusted_tail_and_continues_lsns() {
        let path = tmp("reopen");
        {
            let wal = WalHandle::open_at(&path, &Recovery::default()).unwrap();
            wal.commit(&sample_records()[..2]).unwrap();
        }
        // Append garbage to simulate a torn tail.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xAB; 13]).unwrap();
        }
        let r1 = recover(&path).unwrap();
        assert_eq!(r1.records.len(), 2);
        {
            let wal = WalHandle::open_at(&path, &r1).unwrap();
            assert_eq!(wal.last_lsn(), r1.last_lsn);
            wal.commit(&sample_records()[2..]).unwrap();
        }
        let r2 = recover(&path).unwrap();
        assert_eq!(r2.records, sample_records());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn observer_clock_counts_frames() {
        let path = tmp("observer");
        let clock = FailpointClock::observe();
        {
            let wal = WalHandle::open_at(&path, &Recovery::default()).unwrap();
            wal.set_failpoint_clock(Arc::clone(&clock));
            wal.commit(&sample_records()).unwrap();
        }
        // 5 records + 1 commit marker.
        assert_eq!(clock.ops(), 6);
        assert!(!clock.fired());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn handle_commit_round_trips_and_counts() {
        let path = tmp("handle-roundtrip");
        let records = sample_records();
        {
            let handle = WalHandle::open_at(&path, &Recovery::default()).unwrap();
            handle.commit(&records[..2]).unwrap();
            handle.commit(&records[2..]).unwrap();
            assert_eq!(handle.commits(), 2);
            assert!(handle.fsyncs() >= 1);
            assert_eq!(handle.last_lsn(), 7);
        }
        let recovery = recover(&path).unwrap();
        assert_eq!(recovery.records, records);
        assert_eq!(recovery.last_lsn, 7);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_then_single_wait_batches_fsyncs() {
        // The deterministic group-commit shape: several transactions are
        // appended before anyone waits, then one flush makes them all
        // durable — fsyncs-per-commit strictly below one.
        let path = tmp("handle-batch");
        let records = sample_records();
        let handle = WalHandle::open_at(&path, &Recovery::default()).unwrap();
        let mut last = 0;
        for record in &records {
            last = handle.append_txn(std::slice::from_ref(record)).unwrap();
        }
        assert_eq!(handle.fsyncs(), 0);
        handle.wait_durable(last).unwrap();
        assert_eq!(handle.fsyncs(), 1);
        assert_eq!(handle.commits(), records.len() as u64);
        drop(handle);
        let recovery = recover(&path).unwrap();
        assert_eq!(recovery.records, records);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_committers_all_become_durable() {
        let path = tmp("handle-threads");
        let handle = WalHandle::open_at(&path, &Recovery::default()).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let handle = Arc::clone(&handle);
                std::thread::spawn(move || {
                    for i in 0..4 {
                        let record = Record::InsertRows {
                            table: "t".into(),
                            rows: vec![vec![Value::Int(t), Value::Int(i)]],
                        };
                        handle.commit(&[record]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(handle.commits(), 32);
        drop(handle);
        let recovery = recover(&path).unwrap();
        assert_eq!(recovery.records.len(), 32);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn single_committer_syncs_once_per_commit() {
        // A lone committer is its own flush leader: nobody rides along, so
        // every commit pays exactly one `sync_data`.
        let path = tmp("handle-single");
        let records = sample_records();
        let handle = WalHandle::open_at(&path, &Recovery::default()).unwrap();
        for record in &records {
            handle.commit(std::slice::from_ref(record)).unwrap();
        }
        assert_eq!(handle.commits(), records.len() as u64);
        assert_eq!(handle.fsyncs(), handle.commits());
        drop(handle);
        let recovery = recover(&path).unwrap();
        assert_eq!(recovery.records, records);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_crashes_leave_committed_prefix_and_kill_writer() {
        for mode in [
            CrashMode::TornWrite,
            CrashMode::PreFsyncLoss,
            CrashMode::BitFlip,
        ] {
            let path = tmp(&format!("handle-failpoint-{mode:?}"));
            let records = sample_records();
            {
                let handle = WalHandle::open_at(&path, &Recovery::default()).unwrap();
                handle.commit(&records[..2]).unwrap();
                // Crash on the first frame of the second transaction.
                let clock = FailpointClock::crash_at(4, mode);
                handle.set_failpoint_clock(Arc::clone(&clock));
                let err = handle.commit(&records[2..]).unwrap_err();
                assert_eq!(err.kind(), EngineErrorKind::Poisoned, "{mode:?}");
                assert!(clock.fired());
                // The writer is permanently dead.
                let err = handle.commit(&records[..1]).unwrap_err();
                assert_eq!(err.kind(), EngineErrorKind::Poisoned, "{mode:?}");
            }
            let r = recover(&path).unwrap();
            assert_eq!(r.records, records[..2], "{mode:?}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn commits_counter_only_counts_durable_transactions() {
        let path = tmp("handle-durable-commits");
        let records = sample_records();
        let handle = WalHandle::open_at(&path, &Recovery::default()).unwrap();
        handle.commit(&records[..2]).unwrap();
        assert_eq!(handle.commits(), 1);
        // A transaction whose covering fsync crashes must never be counted:
        // it was appended but did not become durable, and its statements
        // roll back. Before the pending/durable split the counter was
        // bumped at append time and survived the failed sync.
        let clock = FailpointClock::crash_at(4, CrashMode::BitFlip);
        handle.set_failpoint_clock(Arc::clone(&clock));
        let err = handle.commit(&records[2..]).unwrap_err();
        assert_eq!(err.kind(), EngineErrorKind::Poisoned);
        assert!(clock.fired());
        assert_eq!(handle.commits(), 1, "failed commit must not be counted");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_mode_parse_accepts_matrix_names_only() {
        assert_eq!(CrashMode::parse("torn-write"), Ok(CrashMode::TornWrite));
        assert_eq!(
            CrashMode::parse("pre-fsync-loss"),
            Ok(CrashMode::PreFsyncLoss)
        );
        assert_eq!(CrashMode::parse("bit-flip"), Ok(CrashMode::BitFlip));
        assert!(CrashMode::parse("bitflip").is_err());
        assert!(CrashMode::parse("").is_err());
    }
}
