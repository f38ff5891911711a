//! kera-lint: a zero-dependency, token-level concurrency/robustness
//! analyzer for the KerA workspace.
//!
//! Rules (see DESIGN.md "Concurrency invariants & static analysis"):
//! - `lock-order`       nested lock acquisitions must follow the
//!   hierarchy declared in `lint/lock-order.toml`
//! - `lock-across-rpc`  no lock guard may be held across `.call(` /
//!   `.call_async(` / `.call_detached(` / `.start(` (a backup channel)
//! - `std-lock`         `std::sync::{Mutex,RwLock}` banned outside
//!   `crates/shims`
//! - `no-panic`         `unwrap()` / `expect()` / `panic!` banned in
//!   non-test code of hot-path crates
//! - `no-println-hot-path` `println!` / `eprintln!` / `dbg!` banned in
//!   non-test code of the crates listed in `println_crates` — use the
//!   obs event log / flight recorder instead
//! - `safety-comment`   every `unsafe` block / `unsafe impl` needs a
//!   `// SAFETY:` comment
//! - `no-time-under-lock` `Instant::now()` banned inside lock-guard
//!   scopes in non-test code of hot-path crates — time outside the
//!   guard; lock-wait timing belongs to the parking_lot shim's
//!   contention timer (`crates/shims` is exempt)
//!
//! Findings are suppressed by `// lint: allow(<rule>) — <reason>` on the
//! same line or up to two lines above; the reason is mandatory.

pub mod analyze;
pub mod config;
pub mod lexer;

use std::fmt;
use std::path::{Path, PathBuf};

use config::LintConfig;

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// Result of a full workspace run.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub suppressed: usize,
    pub files_scanned: usize,
}

/// Directories never descended into, matched by a single component name.
const SKIP_DIRS: [&str; 3] = ["target", ".git", "node_modules"];

/// Workspace-relative directory prefixes excluded from analysis:
/// `crates/shims` is the sanctioned home of raw std locks and the
/// lockdep instrumentation itself; the lint fixtures intentionally
/// violate every rule.
const SKIP_PREFIXES: [&str; 2] = ["crates/shims", "crates/lint/tests/fixtures"];

/// Loads `lint/lock-order.toml` from the workspace root.
pub fn load_config(root: &Path) -> Result<LintConfig, String> {
    let path = root.join("lint/lock-order.toml");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    LintConfig::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Walks the workspace rooted at `root` and analyzes every `.rs` file
/// outside the skip list.
pub fn run_workspace(root: &Path, cfg: &LintConfig) -> Result<Report, String> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let mut report = Report::default();
    for rel in files {
        let abs = root.join(&rel);
        let src = std::fs::read_to_string(&abs)
            .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let krate = crate_of(&rel_str);
        let in_test_file = rel_str
            .split('/')
            .any(|c| c == "tests" || c == "benches" || c == "examples");
        let (findings, suppressed) = analyze::analyze(&rel_str, krate, &src, in_test_file, cfg);
        report.findings.extend(findings);
        report.suppressed += suppressed;
        report.files_scanned += 1;
    }
    Ok(report)
}

/// Crate name a workspace-relative path belongs to: `crates/<name>/...`
/// maps to `<name>`; anything else is the root `kera` package.
fn crate_of(rel: &str) -> &str {
    let mut parts = rel.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return name;
        }
    }
    "kera"
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir in {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let rel = path
            .strip_prefix(root)
            .map_err(|e| format!("path outside root: {e}"))?
            .to_string_lossy()
            .replace('\\', "/");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            if SKIP_PREFIXES.contains(&rel.as_str()) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path.strip_prefix(root).map_err(|e| e.to_string())?.to_path_buf());
        }
    }
    Ok(())
}

/// Ascends from `start` looking for the directory containing
/// `lint/lock-order.toml` — the workspace root.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("lint/lock-order.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_mapping() {
        assert_eq!(crate_of("crates/rpc/src/node.rs"), "rpc");
        assert_eq!(crate_of("crates/vlog/tests/chaos.rs"), "vlog");
        assert_eq!(crate_of("src/main.rs"), "kera");
    }
}
