//! Per-rule fixture tests for the analyzer, plus a workspace-wide
//! cleanliness gate: the real tree must lint clean at all times.

use std::path::Path;

use kera_lint::analyze::{
    analyze, RULE_LOCK_ACROSS_RPC, RULE_LOCK_ORDER, RULE_NO_PANIC, RULE_NO_PRINTLN, RULE_SAFETY,
    RULE_STD_LOCK,
};
use kera_lint::config::LintConfig;
use kera_lint::{find_workspace_root, load_config, run_workspace, Finding};

/// Self-contained hierarchy/aliases for the fixtures: `outer` outranks
/// `inner`, and only the `hot` crate is panic-restricted.
const CONFIG: &str = r#"
[hierarchy]
order = ["a.outer", "b.inner"]

[rules]
hot_path_crates = ["hot"]
println_crates = ["hot"]

[aliases]
outer = "a.outer"
inner = "b.inner"
"#;

fn cfg() -> LintConfig {
    LintConfig::parse(CONFIG).expect("fixture config parses")
}

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Runs the analyzer over one fixture as non-test code of `krate`.
fn run(name: &str, krate: &str) -> (Vec<Finding>, usize) {
    analyze(name, krate, &fixture(name), false, &cfg())
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn lock_order_inversion_is_flagged() {
    let (findings, suppressed) = run("lock_order_bad.rs", "fixture");
    assert_eq!(rules_of(&findings), vec![RULE_LOCK_ORDER], "{findings:?}");
    assert_eq!(suppressed, 0);
    assert!(findings[0].message.contains("a.outer"), "{}", findings[0]);
    assert!(findings[0].message.contains("b.inner"), "{}", findings[0]);
}

#[test]
fn lock_order_respecting_code_is_clean() {
    let (findings, _) = run("lock_order_good.rs", "fixture");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn guard_across_rpc_is_flagged() {
    let (findings, _) = run("rpc_bad.rs", "fixture");
    assert_eq!(
        rules_of(&findings),
        vec![RULE_LOCK_ACROSS_RPC, RULE_LOCK_ACROSS_RPC, RULE_LOCK_ACROSS_RPC],
        "{findings:?}"
    );
}

#[test]
fn guard_released_before_rpc_is_clean() {
    let (findings, _) = run("rpc_good.rs", "fixture");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn std_locks_are_flagged() {
    let (findings, _) = run("std_lock_bad.rs", "fixture");
    assert_eq!(rules_of(&findings), vec![RULE_STD_LOCK, RULE_STD_LOCK], "{findings:?}");
}

#[test]
fn sanctioned_sync_imports_are_clean() {
    let (findings, _) = run("std_lock_good.rs", "fixture");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn panics_in_hot_path_crates_are_flagged() {
    let (findings, _) = run("no_panic_bad.rs", "hot");
    assert_eq!(
        rules_of(&findings),
        vec![RULE_NO_PANIC, RULE_NO_PANIC, RULE_NO_PANIC],
        "{findings:?}"
    );
}

#[test]
fn panics_outside_hot_path_crates_are_ignored() {
    let (findings, _) = run("no_panic_bad.rs", "coldpath");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn allow_with_reason_suppresses_and_without_reason_does_not() {
    let (findings, suppressed) = run("no_panic_allowed.rs", "hot");
    assert_eq!(suppressed, 1, "the reasoned allow suppresses one finding");
    assert_eq!(rules_of(&findings), vec![RULE_NO_PANIC], "{findings:?}");
    assert!(
        findings[0].message.contains("missing a reason"),
        "{}",
        findings[0]
    );
}

#[test]
fn cfg_test_regions_are_exempt_from_no_panic() {
    let (findings, _) = run("no_panic_test_exempt.rs", "hot");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn test_files_are_exempt_from_no_panic() {
    let (findings, _) =
        analyze("no_panic_bad.rs", "hot", &fixture("no_panic_bad.rs"), true, &cfg());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn println_in_hot_path_crates_is_flagged() {
    let (findings, _) = run("no_println_bad.rs", "hot");
    assert_eq!(
        rules_of(&findings),
        vec![RULE_NO_PRINTLN, RULE_NO_PRINTLN, RULE_NO_PRINTLN],
        "{findings:?}"
    );
    assert!(findings[0].message.contains("println!"), "{}", findings[0]);
    assert!(findings[2].message.contains("dbg!"), "{}", findings[2]);
}

#[test]
fn println_outside_listed_crates_is_ignored() {
    let (findings, _) = run("no_println_bad.rs", "coldpath");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn println_escapes_are_clean() {
    let (findings, suppressed) = run("no_println_good.rs", "hot");
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed, 1, "the reasoned allow suppresses one finding");
}

#[test]
fn println_in_test_files_is_exempt() {
    let (findings, _) =
        analyze("no_println_bad.rs", "hot", &fixture("no_println_bad.rs"), true, &cfg());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn unsafe_without_safety_comment_is_flagged() {
    let (findings, _) = run("safety_bad.rs", "fixture");
    assert_eq!(rules_of(&findings), vec![RULE_SAFETY], "{findings:?}");
}

#[test]
fn unsafe_with_safety_comment_is_clean() {
    let (findings, _) = run("safety_good.rs", "fixture");
    assert!(findings.is_empty(), "{findings:?}");
}

/// The gate the CI stage enforces: the actual workspace must produce
/// zero findings under the checked-in `lint/lock-order.toml`.
#[test]
fn workspace_is_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint/lock-order.toml reachable from the lint crate");
    let cfg = load_config(&root).expect("lock-order.toml parses");
    let report = run_workspace(&root, &cfg).expect("workspace walk");
    assert!(
        report.findings.is_empty(),
        "workspace lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_scanned > 50, "walk found {} files", report.files_scanned);
}
