//! The committed figure results, their declared verdicts and
//! EXPERIMENTS.md agree: editing a TSV, a claim or the generated prose by
//! hand fails here. Regenerate with `figure <id|all>`, then `figure
//! report`; a verdict that moved is changed in `figures.rs` or explained.

use std::path::Path;

use kera::harness::{all_figures, check, report};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn every_committed_figure_earns_its_declared_verdict() {
    for fig in all_figures() {
        let (verdict, measured) = check::check(&fig, &root().join("results"));
        assert_eq!(verdict, fig.declared, "{}: {measured}", fig.id);
    }
}

#[test]
fn experiments_md_is_what_report_renders() {
    let md = std::fs::read_to_string(root().join("EXPERIMENTS.md")).unwrap();
    let (_, tail) = md.split_once(report::MARKER).expect("EXPERIMENTS.md has the results marker");
    let rendered = report::render(&root().join("results"));
    assert!(tail == rendered, "EXPERIMENTS.md below its marker is not what `figure report` writes");
}
