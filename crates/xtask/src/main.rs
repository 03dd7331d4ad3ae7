//! Repo automation binary (`cargo run -p xtask -- <command>`).
//!
//! The only command today is `lint`: a network-free, text/line-based pass
//! (in the same spirit as the vendored shims — no external parser crates)
//! enforcing the repo rules CI gates on:
//!
//! 1. **No `unwrap()` / `expect()` / `panic!` in `crates/mtengine` and
//!    `crates/mtbase` non-test code.** The typed-error convention (PR 6 for
//!    the engine's `EngineError`, PR 10 for the middleware's `MtError`)
//!    routes every fallible path through a `Result`; a panic in either
//!    layer takes the whole server down. Test modules (everything from a
//!    `#[cfg(test)]` line to end-of-file) and the test-support module
//!    `mtbase/src/testkit.rs` are exempt, and a genuinely infallible site
//!    can carry an inline `// lint:allow(...)` on the same or the
//!    preceding line.
//! 2. **No `Instant::now` in `crates/mtengine` non-test code.** Timing
//!    belongs in the bench harness; a clock read inside a kernel loop is a
//!    per-row syscall regression that profiles as "mysterious scan
//!    overhead".
//! 3. **Lock-acquisition ordering in `crates/mtbase`.** The server's
//!    convention is catalog lock before engine lock (the engine borrow is
//!    the innermost, matching how DDL writes both); a function acquiring
//!    them in the opposite order is a deadlock waiting for the first
//!    concurrent DDL statement.
//! 4. **No non-shim external dependencies.** The build environment is
//!    offline; every `[dependencies]` entry in every manifest must be a
//!    `path = ...` or `workspace = true` reference (the workspace-level
//!    table itself must be all `path` entries).
//! 5. **No `.delta_from(` in `crates/mtengine` and `crates/mtbase`
//!    non-test code.** A statement's numbers are its own `StmtCtx`; a
//!    window subtracting two reads of the engine's lifetime totals also
//!    counts every statement that ran beside it.
//!
//! Exit status is the number of findings (0 = clean), each printed as
//! `file:line: [rule] message` so editors can jump to them.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => run_lint(),
        Some(other) => {
            eprintln!("unknown xtask command `{other}` (expected: lint)");
            ExitCode::from(2)
        }
        None => {
            eprintln!("usage: cargo run -p xtask -- lint");
            ExitCode::from(2)
        }
    }
}

/// One finding: where, which rule, what.
struct Finding {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

fn run_lint() -> ExitCode {
    let root = workspace_root();
    let mut findings: Vec<Finding> = Vec::new();

    let engine_src = root.join("crates/mtengine/src");
    for file in rust_files(&engine_src) {
        lint_engine_file(&file, &mut findings);
    }
    let base_src = root.join("crates/mtbase/src");
    for file in rust_files(&base_src) {
        if !is_test_support(&file) {
            lint_engine_file(&file, &mut findings);
        }
        lint_lock_order(&file, &mut findings);
    }
    for manifest in manifests(&root) {
        lint_manifest(&manifest, &mut findings);
    }

    for f in &findings {
        println!(
            "{}:{}: [{}] {}",
            f.file.display(),
            f.line,
            f.rule,
            f.message
        );
    }
    if findings.is_empty() {
        println!("xtask lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("xtask lint: {} finding(s)", findings.len());
        ExitCode::from(findings.len().min(250) as u8)
    }
}

/// Test-support sources exempt from the no-panic rule: `testkit.rs` is the
/// shared example-deployment builder whose callers are all tests.
fn is_test_support(file: &Path) -> bool {
    file.file_name().is_some_and(|n| n == "testkit.rs")
}

/// The workspace root: walk up from the manifest dir of this crate.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

/// Every `.rs` file under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    collect_files(dir, &mut out, &|p| p.extension().is_some_and(|e| e == "rs"));
    out.sort();
    out
}

/// Every `Cargo.toml` in the workspace (root + every crate, including the
/// nested shims).
fn manifests(root: &Path) -> Vec<PathBuf> {
    let mut out = vec![root.join("Cargo.toml")];
    collect_files(&root.join("crates"), &mut out, &|p| {
        p.file_name().is_some_and(|n| n == "Cargo.toml")
    });
    out.sort();
    out
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>, keep: &dyn Fn(&Path) -> bool) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // Never descend into build output or VCS state.
            let name = entry.file_name();
            if name == "target" || name == ".git" {
                continue;
            }
            collect_files(&path, out, keep);
        } else if keep(&path) {
            out.push(path);
        }
    }
}

/// Is this line inside a `//` comment or does it opt out via `lint:allow`?
/// (Escape hatch: same line, or the immediately preceding line.)
fn allowed(lines: &[&str], idx: usize) -> bool {
    let line = lines[idx].trim_start();
    if line.starts_with("//") {
        return true;
    }
    if lines[idx].contains("lint:allow") {
        return true;
    }
    idx > 0 && {
        let prev = lines[idx - 1].trim_start();
        prev.starts_with("//") && prev.contains("lint:allow")
    }
}

/// Rules 1, 2 and 5 over one `mtengine` / `mtbase` source file. Test
/// modules start at a `#[cfg(test)]` line and, by repo convention, run to
/// end-of-file.
fn lint_engine_file(file: &Path, findings: &mut Vec<Finding>) {
    let Ok(text) = std::fs::read_to_string(file) else {
        return;
    };
    let lines: Vec<&str> = text.lines().collect();
    for (idx, raw) in lines.iter().enumerate() {
        if raw.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        if allowed(&lines, idx) {
            continue;
        }
        // Strip string literals crudely: panic-macro *names* never appear
        // inside the engine's error messages, so a plain substring check is
        // enough once comments are excluded.
        for (needle, what) in [
            (".unwrap()", "unwrap() on a hot path"),
            (".expect(", "expect() on a hot path"),
            ("panic!(", "panic! on a hot path"),
        ] {
            if raw.contains(needle) {
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line: idx + 1,
                    rule: "no-panic",
                    message: format!(
                        "{what}; return a typed EngineError or annotate `// lint:allow(...)`"
                    ),
                });
            }
        }
        if raw.contains("Instant::now") {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: idx + 1,
                rule: "no-kernel-clock",
                message: "Instant::now in engine code; timing belongs in the bench harness"
                    .to_string(),
            });
        }
        if raw.contains(".delta_from(") {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: idx + 1,
                rule: "no-stats-window",
                message: "delta_from window over engine totals; charge and read the \
                          statement's StmtCtx instead"
                    .to_string(),
            });
        }
    }
}

/// Rule 3: while a `mtbase` engine-lock guard is live, the catalog lock must
/// not be acquired (`catalog → engine`, never `engine → catalog` — the
/// plan-cache front-end takes catalog first, so the inverse order deadlocks
/// against concurrent DDL). Guard liveness is tracked textually: a
/// `let`-bound engine guard lives until brace depth drops below its binding
/// scope; a temporary (`self.engine.write().execute(...)`) dies on its own
/// line. `fn ` boundaries reset the tracking, matching the repo's
/// rustfmt-formatted style.
fn lint_lock_order(file: &Path, findings: &mut Vec<Finding>) {
    let Ok(text) = std::fs::read_to_string(file) else {
        return;
    };
    let lines: Vec<&str> = text.lines().collect();
    // (line index, brace depth the guard was bound at)
    let mut engine_guard: Option<(usize, i64)> = None;
    let mut depth: i64 = 0;
    for (idx, raw) in lines.iter().enumerate() {
        let trimmed = raw.trim_start();
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        let comment = trimmed.starts_with("//");
        if trimmed.starts_with("fn ")
            || trimmed.starts_with("pub fn ")
            || trimmed.starts_with("pub(crate) fn ")
        {
            engine_guard = None;
        }
        if !comment && !allowed(&lines, idx) {
            let locks_engine = raw.contains(".engine.read()") || raw.contains(".engine.write()");
            let locks_catalog = raw.contains(".catalog.read()") || raw.contains(".catalog.write()");
            if locks_catalog {
                if let Some((at, _)) = engine_guard {
                    findings.push(Finding {
                        file: file.to_path_buf(),
                        line: idx + 1,
                        rule: "lock-order",
                        message: format!(
                            "catalog lock acquired while the engine lock is held \
                             (line {}); the repo convention is catalog → engine",
                            at + 1
                        ),
                    });
                }
            }
            // Only a `let`-bound guard outlives its line.
            if locks_engine && engine_guard.is_none() && trimmed.starts_with("let ") {
                engine_guard = Some((idx, depth));
            }
        }
        if !comment {
            for ch in raw.chars() {
                match ch {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            // The guard dies when its binding scope closes.
            if let Some((_, at_depth)) = engine_guard {
                if depth < at_depth {
                    engine_guard = None;
                }
            }
        }
    }
}

/// Rule 4: every dependency in every manifest is a `path` or `workspace`
/// reference — nothing resolves against crates.io.
fn lint_manifest(file: &Path, findings: &mut Vec<Finding>) {
    let Ok(text) = std::fs::read_to_string(file) else {
        return;
    };
    let mut in_deps = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = line.ends_with("dependencies]");
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((_name, spec)) = line.split_once('=') else {
            continue;
        };
        let spec = spec.trim();
        let vendored = spec.contains("path") && spec.contains('=')
            || spec.contains("workspace = true")
            || line.ends_with(".workspace = true");
        if !vendored {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: idx + 1,
                rule: "no-external-deps",
                message: format!(
                    "`{line}` is not a path/workspace reference; the build is offline — \
                     vendor a shim under crates/shims/ instead"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_escape_hatch_matches_same_and_preceding_line() {
        let lines = vec![
            "let x = a.unwrap(); // lint:allow(unwrap) infallible",
            "// lint:allow(expect) checked above",
            "let y = b.expect(\"msg\");",
            "let z = c.unwrap();",
        ];
        assert!(allowed(&lines, 0));
        assert!(allowed(&lines, 2));
        assert!(!allowed(&lines, 3));
    }

    #[test]
    fn engine_rules_flag_panics_and_clocks() {
        let dir = std::env::temp_dir().join("xtask-lint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("sample.rs");
        std::fs::write(
            &file,
            "fn f() {\n\
             \x20   let a = x.unwrap();\n\
             \x20   let b = y.expect(\"boom\");\n\
             \x20   let t = std::time::Instant::now();\n\
             \x20   let ok = z.unwrap(); // lint:allow(unwrap) test\n\
             }\n\
             #[cfg(test)]\n\
             mod tests { fn g() { h.unwrap(); } }\n",
        )
        .unwrap();
        let mut findings = Vec::new();
        lint_engine_file(&file, &mut findings);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, ["no-panic", "no-panic", "no-kernel-clock"]);
    }

    #[test]
    fn stats_window_rule_flags_delta_from_calls_only() {
        let dir = std::env::temp_dir().join("xtask-lint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("window.rs");
        std::fs::write(
            &file,
            "pub fn delta_from(&self, before: &S) -> S { todo() }\n\
             fn f() {\n\
             \x20   // a comment may name .delta_from( freely\n\
             \x20   let d = server.stats().delta_from(&before);\n\
             }\n\
             #[cfg(test)]\n\
             mod tests { fn g() { a.delta_from(&b); } }\n",
        )
        .unwrap();
        let mut findings = Vec::new();
        lint_engine_file(&file, &mut findings);
        let found: Vec<(&str, usize)> = findings.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(found, [("no-stats-window", 4)]);
    }

    #[test]
    fn lock_order_flags_engine_before_catalog() {
        let dir = std::env::temp_dir().join("xtask-lint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("locks.rs");
        std::fs::write(
            &file,
            "fn good(&self) {\n\
             \x20   let c = self.catalog.read();\n\
             \x20   let e = self.engine.write();\n\
             }\n\
             fn bad(&self) {\n\
             \x20   let e = self.engine.write();\n\
             \x20   let c = self.catalog.read();\n\
             }\n",
        )
        .unwrap();
        let mut findings = Vec::new();
        lint_lock_order(&file, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "lock-order");
        assert_eq!(findings[0].line, 7);
    }

    #[test]
    fn manifest_rule_accepts_path_and_workspace_only() {
        let dir = std::env::temp_dir().join("xtask-lint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("Cargo.toml");
        std::fs::write(
            &file,
            "[dependencies]\n\
             mtsql.workspace = true\n\
             serde = { path = \"../shims/serde\" }\n\
             rayon = \"1.8\"\n",
        )
        .unwrap();
        let mut findings = Vec::new();
        lint_manifest(&file, &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("rayon"));
    }

    #[test]
    fn the_repo_itself_is_clean() {
        let root = workspace_root();
        let mut findings = Vec::new();
        for file in rust_files(&root.join("crates/mtengine/src")) {
            lint_engine_file(&file, &mut findings);
        }
        for file in rust_files(&root.join("crates/mtbase/src")) {
            if !is_test_support(&file) {
                lint_engine_file(&file, &mut findings);
            }
            lint_lock_order(&file, &mut findings);
        }
        for manifest in manifests(&root) {
            lint_manifest(&manifest, &mut findings);
        }
        let rendered: Vec<String> = findings
            .iter()
            .map(|f| {
                format!(
                    "{}:{}: [{}] {}",
                    f.file.display(),
                    f.line,
                    f.rule,
                    f.message
                )
            })
            .collect();
        assert!(
            rendered.is_empty(),
            "lint findings:\n{}",
            rendered.join("\n")
        );
    }
}
