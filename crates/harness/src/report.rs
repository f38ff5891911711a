//! Result collection and table/TSV output.

use std::io::Write;
use std::path::Path;

use kera_common::knobs;
use kera_common::Result;

use crate::experiment::{run_experiment, Measurement};
use crate::figures::Figure;

/// One measured figure point.
#[derive(Clone, Debug)]
pub struct Row {
    pub figure: String,
    pub series: String,
    pub x: String,
    pub m: Measurement,
}

/// Runs every point of `fig`, printing one line per point as it lands
/// (throughput in million records/s, like the paper's y-axes).
pub fn run_figure(fig: &Figure) -> Result<Vec<Row>> {
    println!("== {}: {} ({} points) ==", fig.id, fig.title, fig.points.len());
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>10} {:>12}",
        "series", "x", "Mrec/s", "MB/s", "lat(us)", "consolid."
    );
    let mut rows = Vec::with_capacity(fig.points.len());
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
        if m.failed_requests > 0 {
            eprintln!("  warning: {} failed produce requests", m.failed_requests);
        }
        if !m.stages.is_empty() {
            println!("  {}", format_stage_breakdown(&m.stages));
        }
        if !m.tenant_rates.is_empty() {
            println!("  {}", format_tenant_rates(&m.tenant_rates));
        }
        rows.push(Row { figure: fig.id.to_string(), series: p.series.clone(), x: p.x.clone(), m });
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

/// Writes rows as TSV (one header line, then one row per point).
pub fn write_tsv(path: &Path, rows: &[Row]) -> Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "figure\tseries\tx\tmrecords_per_sec\tproduce_rate\tconsume_rate\tbytes_per_sec\tmean_latency_us\treplication_batches\treplication_chunks\tfailed_requests"
    )?;
    for r in rows {
        writeln!(
            f,
            "{}\t{}\t{}\t{:.4}\t{:.1}\t{:.1}\t{:.1}\t{:.1}\t{}\t{}\t{}",
            r.figure,
            r.series,
            r.x,
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

/// Writes every point's cluster metrics snapshot and stage breakdown as
/// one JSON array — the per-figure metrics dump under `results/`.
pub fn write_metrics_json(path: &Path, rows: &[Row]) -> Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "[")?;
    for (i, r) in rows.iter().enumerate() {
        let stages: Vec<String> = r
            .m
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{{\"stage\":\"{}\",\"count\":{},\"mean_us\":{:.1},\"p50_us\":{:.1},\"p99_us\":{:.1}}}",
                    s.stage, s.count, s.mean_us, s.p50_us, s.p99_us
                )
            })
            .collect();
        let metrics = if r.m.metrics_json.is_empty() { "{}" } else { &r.m.metrics_json };
        writeln!(
            f,
            "  {{\"figure\":\"{}\",\"series\":\"{}\",\"x\":\"{}\",\"stages\":[{}],\"metrics\":{}}}{}",
            r.figure,
            r.series,
            r.x,
            stages.join(","),
            metrics,
            if i + 1 == rows.len() { "" } else { "," }
        )?;
    }
    writeln!(f, "]")?;
    Ok(())
}

/// The canonical full measurement window (warm-up, measure): the
/// defaults of `KERA_WARMUP_MS` / `KERA_MEASURE_MS`.
fn full_window() -> [std::time::Duration; 2] {
    [&knobs::WARMUP_MS, &knobs::MEASURE_MS].map(|k| std::time::Duration::from_millis(k.default))
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
        Path::new("results")
    } else {
        Path::new("results/tmp")
    }
}

/// Entry point of the `figure` binary: runs the figure `id` and
/// stores `<dir>/<id>.tsv` plus `<dir>/<id>-metrics.json`, where `<dir>`
/// is chosen by [`results_dir`] from the run's measurement window.
pub fn figure_main(id: &str) {
    let fig = crate::figures::figure(id).unwrap_or_else(|| {
        eprintln!("unknown figure {id}");
        std::process::exit(2);
    });
    let window = crate::experiment::ExperimentConfig::default();
    let dir = results_dir(window.warmup, window.measure);
    if dir != Path::new("results") {
        println!(
            "measurement window {:?}/{:?} differs from the canonical full window — \
             writing to {} (reference results/ left untouched)",
            window.warmup,
            window.measure,
            dir.display()
        );
    }
    match run_figure(&fig) {
        Ok(rows) => {
            let path = dir.join(format!("{id}.tsv"));
            if let Err(e) = write_tsv(&path, &rows) {
                eprintln!("could not write {}: {e}", path.display());
            } else {
                println!("wrote {}", path.display());
            }
            let mpath = dir.join(format!("{id}-metrics.json"));
            if let Err(e) = write_metrics_json(&mpath, &rows) {
                eprintln!("could not write {}: {e}", mpath.display());
            } else {
                println!("wrote {}", mpath.display());
            }
        }
        Err(e) => {
            eprintln!("{id} failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Measurement;

    fn row() -> Row {
        Row {
            figure: "fig00".into(),
            series: "KerA R3".into(),
            x: "128".into(),
            m: Measurement {
                produce_rate: 1_500_000.0,
                consume_rate: 1_400_000.0,
                produce_bytes_rate: 150e6,
                mean_request_latency_us: 250.0,
                replication_batches: 10,
                replication_chunks: 100,
                failed_requests: 0,
                tenant_rates: Vec::new(),
                stages: vec![crate::experiment::StageSummary {
                    stage: "append",
                    count: 42,
                    mean_us: 12.5,
                    p50_us: 10.0,
                    p99_us: 80.0,
                }],
                metrics_json: "{\"node\":0}".into(),
            },
        }
    }

    #[test]
    fn tsv_roundtrip() {
        let dir = std::env::temp_dir().join(format!("kera-report-{}", std::process::id()));
        let path = dir.join("out.tsv");
        write_tsv(&path, &[row()]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        assert!(lines.next().unwrap().starts_with("figure\tseries"));
        let data = lines.next().unwrap();
        assert!(data.contains("KerA R3"));
        assert!(data.contains("1.5000"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_json_roundtrip() {
        let dir = std::env::temp_dir().join(format!("kera-metrics-{}", std::process::id()));
        let path = dir.join("fig00-metrics.json");
        write_metrics_json(&path, &[row()]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"stage\":\"append\""), "{text}");
        assert!(text.contains("\"metrics\":{\"node\":0}"), "{text}");
        assert!(text.trim_start().starts_with('['), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
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
        let r = row();
        assert!((r.m.consolidation() - 10.0).abs() < 1e-9);
        assert!((r.m.mrecords_per_sec() - 1.5).abs() < 1e-9);
    }
}
