//! `mtbench` — the one MT-H benchmark of the MTBase reproduction.
//!
//! ```text
//! mtbench [--workload <name>]... [--seed <n>] [--seconds <s>] [--trace [0|1]]
//!         [--smoke] [--out <file>]
//! mtbench compare <a.json> <b.json>
//! ```
//!
//! Without `--workload` every workload runs. Each run loads its deployment,
//! runs the workload, checks the results and prints every metric by name
//! with its unit; the last line of standard output is one JSON object. An
//! untraced run (`--trace 0`, the default) reports the end-to-end metrics, a
//! traced run (`--trace`, `--trace 1`) the per-layer metrics and writes
//! `out/trace-<workload>.json`. See `README.md` beside this package.

mod compare;
mod deploy;
mod frontend;
mod json;
mod probes;
mod read;
mod run;
mod spec;
mod stats;
mod trace;
mod util;
mod write;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use run::{RunOpts, RunResult};
use spec::{Workload, WORKLOADS};

/// Environment variables that override every deployment's configuration
/// process-wide; with one set the benchmark would silently measure
/// something else.
const OVERRIDES: [&str; 3] = ["MT_THREADS", "MT_VERIFY", "WAL_FAULT_MODE"];

const USAGE: &str = "usage: mtbench [--workload <name>]... [--seed <n>] [--seconds <s>] \
[--trace [0|1]] [--smoke] [--out <file>]\n       mtbench compare <a.json> <b.json>";

struct Cli {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: 42,
        seconds: spec::RUN_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} expects a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(&mut i, "--workload")?;
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                cli.workloads.push(Workload::by_name(&name).ok_or_else(|| {
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                cli.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed expects a whole number")?;
            }
            "--seconds" => {
                cli.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds expects a positive number")?;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cli.trace = false;
                    i += 1;
                }
                Some("1") => {
                    cli.trace = true;
                    i += 1;
                }
                _ => cli.trace = true,
            },
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(PathBuf::from(value(&mut i, "--out")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if cli.workloads.is_empty() {
        cli.workloads = WORKLOADS.iter().collect();
    }
    Ok(cli)
}

/// File system type of the mount that holds `path` (from `/proc/mounts`).
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|line| {
                    let mut fields = line.split_whitespace();
                    let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
                    path.starts_with(mount)
                        .then(|| (mount.len(), fs.to_string()))
                })
                .max()
                .map(|(_, fs)| fs)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers depend on besides the code.
fn environment(out_dir: &Path) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("available_parallelism", Json::Num(cores as f64)),
        (
            "build_profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("engine_config", Json::str("EngineConfig::postgres_like()")),
        ("wal_dir", Json::str(out_dir.display().to_string())),
        ("wal_dir_filesystem", Json::str(filesystem_of(out_dir))),
        (
            "flush_policy",
            Json::str(
                "sync_data per commit; per commit group when committers overlap (group commit on)",
            ),
        ),
        (
            "load",
            Json::str("one process, closed loop, at most 2 threads"),
        ),
    ])
}

fn print_result(result: &RunResult) {
    println!(
        "== {} (seed {}, {}) ==",
        result.workload,
        result.seed,
        if result.trace { "traced" } else { "untraced" }
    );
    if let Some(w) = Workload::by_name(result.workload) {
        println!("{}", w.why);
    }
    for (def, value) in &result.metrics {
        println!(
            "{:<44} {:>18.6} {:<6} ({} is better)",
            def.name,
            value,
            def.unit,
            def.better.label()
        );
    }
    println!(
        "ops_attempted {}  ops_failed {}",
        result.attempted, result.failed
    );
    for failure in &result.failures {
        println!("FAILED: {failure}");
    }
}

/// Append the runs to the result file, creating it with the environment
/// header when it does not exist yet.
fn append_out(path: &Path, env: &Json, results: &[RunResult]) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text)?
            .get("runs")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{} has no `runs` array", path.display()))?
            .to_vec(),
        Err(_) => Vec::new(),
    };
    runs.extend(results.iter().map(RunResult::record_json));
    let doc = Json::obj([("env", env.clone()), ("runs", Json::Arr(runs))]);
    std::fs::write(path, doc.pretty(5)).map_err(|e| format!("write {}: {e}", path.display()))
}

fn run_compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err(USAGE.to_string());
    };
    let load = |path: &String| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    compare::print(&rows);
    let bad = rows
        .iter()
        .filter(|r| {
            matches!(
                r.verdict,
                compare::Verdict::Worse | compare::Verdict::Unresolved
            )
        })
        .count();
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn run_benchmark(args: &[String]) -> Result<ExitCode, String> {
    let cli = parse_cli(args).map_err(|e| format!("{e}\n{USAGE}"))?;
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let env = environment(&out_dir);
    println!("environment: {env}");
    let mut results = Vec::new();
    for workload in &cli.workloads {
        let opts = RunOpts {
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            smoke: cli.smoke,
            out_dir: out_dir.clone(),
        };
        let result = run::run(workload, &opts).map_err(|e| format!("{}: {e}", workload.name))?;
        print_result(&result);
        results.push(result);
    }
    if let Some(path) = &cli.out {
        append_out(path, &env, &results)?;
    }
    // The last line: the contract's result object for a single workload, or
    // the same object per workload under `workloads` with the totals.
    let correct = results.iter().all(RunResult::correct);
    match results.as_slice() {
        [single] => println!("{}", single.contract_json()),
        all => println!(
            "{}",
            Json::obj([
                ("correct", Json::Bool(correct)),
                (
                    "attempted",
                    Json::Num(all.iter().map(|r| r.attempted).sum::<u64>() as f64)
                ),
                (
                    "failed",
                    Json::Num(all.iter().map(|r| r.failed).sum::<u64>() as f64)
                ),
                (
                    "workloads",
                    Json::obj(all.iter().map(|r| (r.workload, r.contract_json())))
                ),
            ])
        ),
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(var) = OVERRIDES.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "mtbench: refusing to run with {var} set: it overrides every deployment's \
             configuration process-wide and would change what is measured; unset it"
        );
        return ExitCode::from(2);
    }
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => run_benchmark(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("mtbench: {e}");
        ExitCode::from(2)
    })
}
