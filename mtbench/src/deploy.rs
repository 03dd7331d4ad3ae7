//! Set-up: generate the MT-H data and load the two deployments a workload
//! measures — an in-memory one (product default `EngineConfig::postgres_like`)
//! for the read sweep and the front-end phase, and a durable one (same
//! config, WAL in the benchmark's `out/` directory, `sync_data` per commit or
//! per commit group) for the write phase. Set-up is repeated and reported as
//! a median so that work moved into it shows.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mtbase::{EngineConfig, MtBase};
use mth::gen::{self, GeneratedData};
use mth::loader::{self, MthDeployment};
use mth::params::MthConfig;
use mtsql::ast::Statement;

use crate::spec::Workload;

/// The MT-H generator seed. Fixed, so that every `--seed` measures the same
/// database and exact counters (rows scanned, UDF calls, WAL bytes) are
/// comparable between seeds, commits and the paper's tables; `--seed`
/// orders the operations and generates the written rows.
const DATA_SEED: u64 = 42;

/// Scratch table of the write phase: tenant-specific, so two tenants'
/// inserts take different bucket locks.
const ITEMS_DDL: &str = "CREATE TABLE Items SPECIFIC (
    I_item_id INTEGER NOT NULL SPECIFIC,
    I_tag VARCHAR(32) NOT NULL COMPARABLE)";

/// The durable deployment's log file; removed when the run lets go of it,
/// however the run ends.
pub struct WalFile(pub PathBuf);

impl Drop for WalFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

pub struct Deployed {
    pub mem: MthDeployment,
    pub durable: MthDeployment,
    pub wal: WalFile,
    pub data: GeneratedData,
    /// Rows loaded into the MT database (all tables).
    pub mt_rows: u64,
    /// Per repetition, in seconds: the whole set-up and its parts.
    pub setup_s: Vec<f64>,
    pub gen_s: Vec<f64>,
    pub mem_load_s: Vec<f64>,
    pub durable_load_s: Vec<f64>,
}

pub fn config_of(w: &Workload) -> MthConfig {
    MthConfig {
        scale: w.scale,
        tenants: w.tenants,
        distribution: w.distribution,
        seed: DATA_SEED,
    }
}

fn create_items(server: &MtBase) -> Result<(), String> {
    match mtsql::parse_statement(ITEMS_DDL).map_err(|e| e.to_string())? {
        Statement::CreateTable(ct) => server.create_table(&ct).map_err(|e| e.to_string()),
        other => Err(format!("Items DDL parsed as {other:?}")),
    }
}

/// Run the set-up `w.setups` times and keep the last repetition's
/// deployments. Everything a workload needs before its first measured
/// operation is inside the timed region.
pub fn deploy(w: &Workload, out_dir: &Path) -> Result<Deployed, String> {
    let config = config_of(w);
    let wal = WalFile(out_dir.join(format!("wal-{}-{}.log", w.name, std::process::id())));
    let wal_path = &wal.0;
    let (mut setup_s, mut gen_s, mut mem_load_s, mut durable_load_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..w.setups.max(1) {
        // The previous repetition's deployments are dropped outside the
        // timed region.
        drop(kept.take());
        let _ = std::fs::remove_file(wal_path);
        let start = Instant::now();
        let data = gen::generate(&config);
        let generated = start.elapsed().as_secs_f64();
        let mem = loader::load_from_data(config, EngineConfig::postgres_like(), &data);
        let mem_loaded = start.elapsed().as_secs_f64();
        let durable =
            loader::load_durable_from_data(config, EngineConfig::postgres_like(), &data, wal_path)
                .map_err(|e| format!("durable load: {e}"))?;
        create_items(&durable.server)?;
        let done = start.elapsed().as_secs_f64();
        setup_s.push(done);
        gen_s.push(generated);
        mem_load_s.push(mem_loaded - generated);
        durable_load_s.push(done - mem_loaded);
        kept = Some((data, mem, durable));
    }
    let (data, mem, durable) = kept.expect("at least one set-up repetition");
    let mt_rows = data.mt.values().map(|rows| rows.len() as u64).sum();
    Ok(Deployed {
        mem,
        durable,
        wal,
        data,
        mt_rows,
        setup_s,
        gen_s,
        mem_load_s,
        durable_load_s,
    })
}
