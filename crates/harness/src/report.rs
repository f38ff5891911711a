//! The `figure` binary: runs a sweep into a TSV, grades the TSVs, renders
//! `EXPERIMENTS.md`.

use std::io::Write;
use std::path::Path;

use kera_common::knobs;
use kera_common::Result;

use crate::check::{self, Verdict, REPEATS};
use crate::experiment::{run_experiment, Measurement};
use crate::figures::{all_figures, figure, Figure};

/// One measured figure point.
#[derive(Clone, Debug)]
pub struct Row {
    pub series: String,
    pub x: String,
    pub repeat: usize,
    pub m: Measurement,
}

/// Runs every point of `fig` [`REPEATS`] times — the whole sweep once
/// per repeat, so a point's spread includes the host's drift over the
/// run — printing one line per point as it lands (throughput in million
/// records/s, like the paper's y-axes).
pub fn run_figure(fig: &Figure) -> Result<Vec<Row>> {
    println!("== {}: {} ({} points x {REPEATS}) ==", fig.id, fig.title, fig.points.len());
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>10} {:>12}",
        "series", "x", "Mrec/s", "MB/s", "lat(us)", "consolid."
    );
    let mut rows = Vec::with_capacity(fig.points.len() * REPEATS);
    for repeat in 0..REPEATS {
        for p in &fig.points {
            let m = run_experiment(&p.cfg)?;
            println!(
                "{:<18} {:>12} {:>12.3} {:>12.1} {:>10.0} {:>12.1}",
                p.series,
                p.x,
                m.mrecords_per_sec(),
                m.produce_bytes_rate / 1e6,
                m.mean_request_latency_us,
                m.consolidation(),
            );
            if !m.stages.is_empty() {
                println!("  {}", format_stage_breakdown(&m.stages));
            }
            if !m.tenant_rates.is_empty() {
                println!("  {}", format_tenant_rates(&m.tenant_rates));
            }
            rows.push(Row { series: p.series.clone(), x: p.x.clone(), repeat, m });
        }
    }
    Ok(rows)
}

/// One-line per-stage latency breakdown, pipeline order:
/// `stages: append n=42 mean=12us p99=80us | replicate ...`.
fn format_stage_breakdown(stages: &[crate::experiment::StageSummary]) -> String {
    let parts: Vec<String> = stages
        .iter()
        .map(|s| {
            format!(
                "{} n={} mean={:.0}us p99={:.0}us",
                s.stage, s.count, s.mean_us, s.p99_us
            )
        })
        .collect();
    format!("stages: {}", parts.join(" | "))
}

/// Per-tenant acknowledged throughput (quota runs only):
/// `tenants: t0=1.20Mrec/s | t1=0.35Mrec/s`.
fn format_tenant_rates(rates: &[(u32, f64)]) -> String {
    let parts: Vec<String> =
        rates.iter().map(|(t, r)| format!("t{t}={:.2}Mrec/s", r / 1e6)).collect();
    format!("tenants: {}", parts.join(" | "))
}

/// Writes `fig`'s rows as `<dir>/<fig.id>.tsv` (one header line, then
/// one row per point and repeat) — the file [`check::load`] reads back.
pub fn write_tsv(dir: &Path, fig: &Figure, rows: &[Row]) -> Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::File::create(check::tsv_path(fig, dir))?;
    writeln!(
        f,
        "figure\tseries\tx\trepeat\tmrecords_per_sec\tproduce_rate\tconsume_rate\tbytes_per_sec\tmean_latency_us\treplication_batches\treplication_chunks\tfailed_requests"
    )?;
    for r in rows {
        writeln!(
            f,
            "{}\t{}\t{}\t{}\t{:.4}\t{:.1}\t{:.1}\t{:.1}\t{:.1}\t{}\t{}\t{}",
            fig.id,
            r.series,
            r.x,
            r.repeat,
            r.m.mrecords_per_sec(),
            r.m.produce_rate,
            r.m.consume_rate,
            r.m.produce_bytes_rate,
            r.m.mean_request_latency_us,
            r.m.replication_batches,
            r.m.replication_chunks,
            r.m.failed_requests,
        )?;
    }
    Ok(())
}

/// Where the committed reference TSVs live, and what `figure check`
/// holds to the declared verdicts.
const COMMITTED: &str = "results";

/// The measurement window (warm-up, measure) `read` gives the two knobs.
fn window(read: fn(&knobs::Knob) -> u64) -> [std::time::Duration; 2] {
    [&knobs::WARMUP_MS, &knobs::MEASURE_MS].map(|k| std::time::Duration::from_millis(read(k)))
}

/// The canonical full window: the defaults of `KERA_WARMUP_MS` /
/// `KERA_MEASURE_MS`.
fn full_window() -> [std::time::Duration; 2] {
    window(|k| k.default)
}

/// Output directory for a figure run measured with the given window.
///
/// Only the canonical full window may write the committed reference
/// files under `results/` — every other window (bench smoke, quick
/// local iteration with `KERA_MEASURE_MS=200`, CI spot checks) lands in
/// `results/tmp/`, which is gitignored. Guards against the class of
/// incident where a short smoke run silently overwrote `fig08.tsv` and
/// the truncated numbers got committed as if they were a reference
/// measurement.
pub fn results_dir(warmup: std::time::Duration, measure: std::time::Duration) -> &'static Path {
    let [full_warmup, full_measure] = full_window();
    if warmup == full_warmup && measure == full_measure {
        Path::new(COMMITTED)
    } else {
        Path::new("results/tmp")
    }
}

/// Where [`render`]'s output starts in `EXPERIMENTS.md`; everything above
/// it is written by hand.
pub const MARKER: &str = "<!-- RESULTS_TABLE -->\n";

/// Everything below [`MARKER`]: per figure the paper's sentence, the
/// claim, the measured effects with their spread and the computed
/// verdict, then the median of every point — from `figures.rs` and the
/// TSVs under `dir`, nothing typed in.
pub fn render(dir: &Path) -> String {
    let mut verdicts = String::new();
    let mut tables =
        format!("\n## Raw measured series (median of {REPEATS} repeats, million records/s)\n");
    for fig in all_figures() {
        let loaded = check::load(&fig, dir);
        let (verdict, measured) = check::grade(&fig, &loaded);
        verdicts += &format!(
            "\n### {} — {}\n\n- **Paper**: {}\n- **Claim**: `{:?}`\n- **Measured**: {measured}\n\
             - **Verdict**: {verdict}\n",
            fig.id, fig.title, fig.paper, fig.claim
        );
        let Ok(check::Series(series)) = loaded else { continue };
        let xs: Vec<&str> = series[0].1.iter().map(|(x, _)| x.as_str()).collect();
        tables += &format!("\n### {}\n\n| series | {} |\n|---|", fig.id, xs.join(" | "));
        tables += &"---|".repeat(xs.len());
        for (name, points) in &series {
            let cells: Vec<String> = points.iter().map(|(_, s)| format!("{:.3}", s.mid)).collect();
            tables += &format!("\n| {name} | {} |", cells.join(" | "));
        }
        tables.push('\n');
    }
    verdicts + &tables
}

/// `figure report`: rewrites `EXPERIMENTS.md` below [`MARKER`] from the
/// committed `results/`.
fn report() -> Result<bool> {
    let md = std::fs::read_to_string("EXPERIMENTS.md")?;
    let head = md.split(MARKER).next().unwrap_or_default();
    std::fs::write("EXPERIMENTS.md", format!("{head}{MARKER}{}", render(Path::new(COMMITTED))))?;
    Ok(true)
}

/// `figure list`: the human-readable index of the fourteen figures.
fn index() -> String {
    let line = |f: &Figure| {
        format!("{}  {} ({} points)\n       {:?}\n", f.id, f.title, f.points.len(), f.claim)
    };
    all_figures().iter().map(line).collect()
}

/// `figure <id>`: measures `fig` into the directory its window selects
/// and grades what it wrote. False if that is not a measurement.
fn run_and_store(fig: &Figure) -> Result<bool> {
    let [warmup, measure] = window(knobs::Knob::get);
    let dir = results_dir(warmup, measure);
    if dir != Path::new(COMMITTED) {
        println!(
            "measurement window {warmup:?}/{measure:?} differs from the canonical full window — \
             writing to {} (reference results/ left untouched)",
            dir.display()
        );
    }
    write_tsv(dir, fig, &run_figure(fig)?)?;
    let (verdict, measured) = check::check(fig, dir);
    println!("wrote {}/{}.tsv: {verdict}\n  {measured}", dir.display(), fig.id);
    Ok(verdict != Verdict::Invalid)
}

/// `figure check [dir]`: grades every figure's TSV under `dir`. An
/// invalid TSV fails anywhere; under `results/` so does a missing one or
/// a verdict other than the declared one, elsewhere absent figures are
/// skipped and verdicts only printed (short windows prove nothing).
fn check_dir(dir: &Path) -> bool {
    let committed = dir == Path::new(COMMITTED);
    let mut ok = true;
    for fig in all_figures() {
        if !committed && !check::tsv_path(&fig, dir).exists() {
            continue;
        }
        let (verdict, measured) = check::check(&fig, dir);
        println!("{}  {verdict} (declared {})\n       {measured}", fig.id, fig.declared);
        if verdict == Verdict::Invalid {
            ok = false;
        } else if committed && verdict != fig.declared {
            eprintln!(
                "{}: change `declared` in crates/harness/src/figures.rs or explain the regression",
                fig.id
            );
            ok = false;
        }
    }
    ok
}

/// Entry point of the `figure` binary; returns its exit code.
pub fn figure_main(args: &[&str]) -> i32 {
    let done = match (args, args.first().and_then(|id| figure(id))) {
        (["list"], _) => {
            print!("{}", index());
            Ok(true)
        }
        (["check"], _) => Ok(check_dir(Path::new(COMMITTED))),
        (["check", dir], _) => Ok(check_dir(Path::new(dir))),
        (["report"], _) => report(),
        (["all"], _) => all_figures().iter().try_fold(true, |ok, f| Ok(run_and_store(f)? && ok)),
        ([_], Some(fig)) => run_and_store(&fig),
        _ => {
            eprint!("usage: figure <id|all> | check [dir] | report | list\n\n{}", index());
            return 2;
        }
    };
    match done {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("figure {}: {e}", args.join(" "));
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Measurement;
    use crate::figures::{Claim, Point};

    fn row(series: &str, repeat: usize, produce_rate: f64) -> Row {
        Row {
            series: series.into(),
            x: "128".into(),
            repeat,
            m: Measurement {
                produce_rate,
                consume_rate: 1_400_000.0,
                produce_bytes_rate: 150e6,
                mean_request_latency_us: 250.0,
                replication_batches: 10,
                replication_chunks: 100,
                failed_requests: 0,
                tenant_rates: Vec::new(),
                stages: Vec::new(),
            },
        }
    }

    /// Two series at one x, KerA at 1.5/1.6/1.7 Mrec/s over Kafka at 1.0.
    fn two_series() -> (Figure, Vec<Row>) {
        let point = |series: &str| Point {
            series: series.into(),
            x: "128".into(),
            cfg: crate::ExperimentConfig::default(),
        };
        let fig = Figure {
            id: "fig00",
            title: "report test",
            paper: "",
            claim: Claim::Ratio { num: "KerA R3", den: "Kafka R3", floor: 1.2, grows: None },
            declared: Verdict::Holds,
            points: vec![point("Kafka R3"), point("KerA R3")],
        };
        let rows = (0..REPEATS)
            .flat_map(|k| {
                [row("Kafka R3", k, 1_000_000.0), row("KerA R3", k, 1_500_000.0 + 1e5 * k as f64)]
            })
            .collect();
        (fig, rows)
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("kera-{name}-{}", std::process::id()))
    }

    #[test]
    fn tsv_roundtrip_keeps_every_repeat() {
        let dir = scratch("report");
        let (fig, rows) = two_series();
        write_tsv(&dir, &fig, &rows).unwrap();
        let text = std::fs::read_to_string(dir.join("fig00.tsv")).unwrap();
        assert!(text.starts_with("figure\tseries\tx\trepeat\tmrecords_per_sec"), "{text}");
        assert!(text.contains("fig00\tKerA R3\t128\t2\t1.7000"), "{text}");
        let check::Series(series) = check::load(&fig, &dir).unwrap();
        assert_eq!(series[0].0, "Kafka R3");
        assert_eq!(series[1].0, "KerA R3");
        let spread = check::Spread { lo: 1.5, mid: 1.6, hi: 1.7 };
        assert_eq!(series[1].1, [("128".to_string(), spread)]);
        assert_eq!(check::check(&fig, &dir).0, Verdict::Holds);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tsv_that_is_not_a_measurement_is_invalid() {
        let dir = scratch("invalid");
        let (fig, rows) = two_series();
        assert_eq!(check::check(&fig, &dir).0, Verdict::Invalid, "no file");
        write_tsv(&dir, &fig, &rows[..rows.len() - 1]).unwrap();
        let (verdict, why) = check::check(&fig, &dir);
        assert_eq!(verdict, Verdict::Invalid);
        assert!(why.contains("KerA R3 @128: 2 of 3 repeats"), "{why}");
        let mut failing = rows.clone();
        failing[3].m.failed_requests = 7;
        write_tsv(&dir, &fig, &failing).unwrap();
        let (verdict, why) = check::check(&fig, &dir);
        assert_eq!(verdict, Verdict::Invalid);
        assert!(why.contains("7 failed produce requests"), "{why}");
        let mut other = fig.clone();
        other.points[0].series = "Kafka R2".into();
        write_tsv(&dir, &fig, &rows).unwrap();
        assert_eq!(check::check(&other, &dir).0, Verdict::Invalid, "a declared series is missing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_verb_or_id_is_usage() {
        assert_eq!(figure_main(&[]), 2);
        assert_eq!(figure_main(&["fig99"]), 2);
        assert_eq!(figure_main(&["check", "a", "b"]), 2);
        assert_eq!(figure_main(&["list"]), 0);
    }

    #[test]
    fn smoke_windows_route_to_tmp() {
        use std::time::Duration;
        let [full_warmup, full_measure] = full_window();
        // Only the exact canonical window writes the reference files.
        assert_eq!(results_dir(full_warmup, full_measure), Path::new("results"));
        // Shorter, longer, or partially-overridden windows are smoke runs.
        assert_eq!(
            results_dir(Duration::from_millis(300), Duration::from_millis(1200)),
            Path::new("results/tmp")
        );
        assert_eq!(
            results_dir(full_warmup, Duration::from_millis(200)),
            Path::new("results/tmp")
        );
        assert_eq!(
            results_dir(Duration::from_secs(5), full_measure),
            Path::new("results/tmp")
        );
    }

    #[test]
    fn consolidation_math() {
        let m = row("KerA R3", 0, 1_500_000.0).m;
        assert!((m.consolidation() - 10.0).abs() < 1e-9);
        assert!((m.mrecords_per_sec() - 1.5).abs() < 1e-9);
    }
}
