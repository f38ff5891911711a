//! Harness smoke test: a miniature figure runs end-to-end through
//! `run_figure`, lands in a TSV and is graded from it.

use std::time::Duration;

use kera_harness::check::{self, Verdict, REPEATS};
use kera_harness::figures::{Claim, Figure, Point};
use kera_harness::report::{run_figure, write_tsv};
use kera_harness::experiment::RUN_DIR_PREFIX;
use kera_harness::{ExperimentConfig, SystemKind};

#[test]
fn mini_figure_runs_and_writes_tsv() {
    let mk = |system: SystemKind| ExperimentConfig {
        system,
        brokers: 2,
        worker_threads: 2,
        producers: 2,
        streams: 4,
        chunk_size: 1024,
        replication_factor: 2,
        warmup: Duration::from_millis(100),
        measure: Duration::from_millis(300),
        ..ExperimentConfig::default()
    };
    let fig = Figure {
        id: "fig_smoke",
        title: "smoke",
        paper: "",
        // Any rate is more than a thousandth of any other: what is under
        // test is the path from the run to a verdict, not the ratio.
        claim: Claim::Ratio { num: "KerA", den: "Kafka", floor: 0.001, grows: None },
        declared: Verdict::Holds,
        points: vec![
            Point { series: "KerA".into(), x: "4".into(), cfg: mk(SystemKind::Kera) },
            Point { series: "Kafka".into(), x: "4".into(), cfg: mk(SystemKind::Kafka) },
        ],
    };
    let rows = run_figure(&fig).unwrap();
    assert_eq!(rows.len(), 2 * REPEATS);
    for r in &rows {
        assert!(r.m.produce_rate > 0.0, "{} measured nothing", r.series);
        assert_eq!(r.m.failed_requests, 0);
        // KerA's backups flushed closed segments, Kafka's followers
        // appended to their partition files.
        assert!(r.m.storage_writes > 0 && r.m.storage_bytes > 0, "{} wrote nothing", r.series);
    }
    // Every run removed its directory once its writers were joined.
    let ours = format!("{RUN_DIR_PREFIX}{}-", std::process::id());
    let left: Vec<_> = std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with(&ours))
        .collect();
    assert!(left.is_empty(), "run directories left behind: {left:?}");
    let dir = std::env::temp_dir().join(format!("kera-smoke-{}", std::process::id()));
    write_tsv(&dir, &fig, &rows).unwrap();
    let text = std::fs::read_to_string(dir.join("fig_smoke.tsv")).unwrap();
    assert_eq!(text.lines().count(), 1 + 2 * REPEATS); // header + rows
    let (verdict, measured) = check::check(&fig, &dir);
    assert_eq!(verdict, fig.declared, "{measured}");
    assert!(measured.starts_with("KerA / Kafka @4 = "), "{measured}");
    let _ = std::fs::remove_dir_all(&dir);
}
