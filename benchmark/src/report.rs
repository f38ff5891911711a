//! Turns rounds into named metrics and prints them.

use std::path::Path;

use crate::adapter::Result;
use crate::ledger;
use crate::probes;
use crate::stats::{
    median, percentile, window_percentile_median, window_rates, window_tail_mean_median,
};
use crate::workload::{run_round, ConsumerRole, Edge, Load, Round, Spec, WINDOW_NS};

/// Longest measured part of one round; a longer `--seconds` becomes
/// several rounds.
const ROUND_MAX_NS: u64 = 4_000_000_000;

pub struct Metric {
    pub name: &'static str,
    /// `None`: the layer does not run on this workload (absent, not zero).
    pub value: Option<f64>,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: impl Into<Option<f64>>, unit: &'static str) -> Metric {
        Metric {
            name,
            value: value.into(),
            unit,
        }
    }
}

pub struct Run {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    traced: bool,
    pub correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Lines for the human reader: sample counts, the worst lock class,
    /// invalid-run warnings.
    notes: Vec<String>,
}

/// Records attempted and failed over `rounds`: records in terminally
/// failed requests, acknowledged but not read back, and read back out
/// of order, duplicated or from a chunk with a bad checksum.
pub fn tally(rounds: &[Round]) -> (u64, u64) {
    let attempted = rounds.iter().map(|r| r.sent).sum();
    let failed = rounds
        .iter()
        .map(|r| (r.sent - r.acked.min(r.sent)) + r.acked.saturating_sub(r.good) + r.bad)
        .sum();
    (attempted, failed)
}

/// Per-window rates of one cumulative counter, over all rounds.
fn rates(rounds: &[Round], counter: fn(&Edge) -> u64) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| {
            window_rates(
                &r.edges
                    .iter()
                    .map(|e| (e.t_ns, counter(e)))
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Change of one cumulative counter between the first and last edge,
/// summed over rounds.
fn delta(rounds: &[Round], counter: fn(&Edge) -> u64) -> u64 {
    rounds
        .iter()
        .filter_map(|r| Some(counter(r.edges.last()?) - counter(r.edges.first()?)))
        .sum()
}

/// Process CPU per record over the measured windows: per acknowledged
/// record, or per consumed record where a catch-up consumer is the point.
pub fn cpu_us_per_rec(spec: &Spec, rounds: &[Round]) -> f64 {
    let records = if spec.consumer == ConsumerRole::Catchup {
        delta(rounds, |e| e.consumed)
    } else {
        delta(rounds, |e| e.acked)
    };
    delta(rounds, |e| e.cpu_us) as f64 / records.max(1) as f64
}

/// Acknowledged records per second, median over windows.
pub fn ingest_rec_s(rounds: &[Round]) -> f64 {
    median(&rates(rounds, |e| e.acked)).unwrap_or(0.0)
}

/// Records delivered to the benchmark's consumer thread per second,
/// median over windows; without a consumer thread, the rate of the
/// read-back pass, median over rounds.
pub fn consume_rec_s(spec: &Spec, rounds: &[Round]) -> f64 {
    if spec.consumer == ConsumerRole::None {
        median(
            &rounds
                .iter()
                .filter_map(|r| r.readback_rec_s)
                .collect::<Vec<_>>(),
        )
    } else {
        median(&rates(rounds, |e| e.consumed))
    }
    .unwrap_or(0.0)
}

/// All ages of all rounds, ascending.
pub fn sorted_ages(rounds: &[Round]) -> Vec<u64> {
    let mut all: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.age_windows.iter().flatten().copied())
        .collect();
    all.sort_unstable();
    all
}

/// Lateness of the paced generator (ms) at quantile `q`; `None` for a
/// closed-loop workload or too few bursts.
pub fn late_ms(rounds: &[Round], q: f64) -> Option<f64> {
    let mut late: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.late_ns.iter().copied())
        .collect();
    late.sort_unstable();
    percentile(&late, q).ok().map(|ns| ns as f64 / 1e6)
}

fn end_to_end(spec: &Spec, rounds: &mut [Round], notes: &mut Vec<String>) -> Vec<Metric> {
    let mut windows: Vec<Vec<u64>> = rounds
        .iter_mut()
        .flat_map(|r| r.age_windows.drain(..))
        .collect();
    let p50 = window_percentile_median(&mut windows, 0.5)
        .map(|ns| ns / 1e6)
        .unwrap_or(0.0);
    let tail = window_tail_mean_median(&mut windows)
        .map(|ns| ns / 1e6)
        .unwrap_or(0.0);
    notes.push(format!(
        "age samples: {} over {} windows (age = due -> {})",
        windows.iter().map(Vec::len).sum::<usize>(),
        windows.len(),
        if spec.consumer == ConsumerRole::Tail {
            "consumer-visible"
        } else {
            "acknowledged"
        }
    ));
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("ingest_rec_s", ingest_rec_s(rounds), "1/s"),
        Metric::new("consume_rec_s", consume_rec_s(spec, rounds), "1/s"),
        Metric::new("age_ms_p50", p50, "ms"),
        Metric::new("age_ms_p90_99", tail, "ms"),
        Metric::new("cpu_us_per_rec", cpu_us_per_rec(spec, rounds), "us"),
        // A round too slow to reach its mark reports its process's peak.
        Metric::new(
            "peak_rss_mb",
            rounds[0].rss_mark_mb.unwrap_or(rounds[0].hwm_mb),
            "MB",
        ),
    ]
}

/// One untraced round in a process of its own, so that every round
/// starts from the same empty heap (README, "Rounds").
fn round_in_child(spec: &Spec, seed: u64, max_measure_ns: u64) -> Result<Round> {
    let fail = |what: String| crate::adapter::io_error(std::io::Error::other(what));
    let exe = std::env::current_exe().map_err(crate::adapter::io_error)?;
    let output = std::process::Command::new(exe)
        .args([
            "--workload",
            spec.name,
            "--seed",
            &seed.to_string(),
            "--round",
            &max_measure_ns.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(crate::adapter::io_error)?;
    if !output.status.success() {
        return Err(fail(format!("round process ended with {}", output.status)));
    }
    Round::from_text(&String::from_utf8_lossy(&output.stdout))
        .ok_or_else(|| fail("round process printed no round".into()))
}

/// Runs rounds until `seconds` have been measured. Untraced rounds each
/// get their own process; traced ones run here, where their spans and
/// registry snapshots are wanted.
fn run_rounds(spec: &Spec, seed: u64, seconds: u64, traced: bool) -> Result<Vec<Round>> {
    if !traced {
        // One round that is thrown away: it touches the memory the
        // counted rounds will use. What ran before this run (a workload
        // with a smaller footprint, or nothing for a minute) decides how
        // much guest memory the hypervisor has taken back, and the first
        // round would otherwise pay for getting it again.
        round_in_child(
            spec,
            seed,
            if matches!(spec.load, Load::Paced { .. }) {
                2 * WINDOW_NS
            } else {
                ROUND_MAX_NS
            },
        )?;
    }
    let mut rounds: Vec<Round> = Vec::new();
    let mut left_ns = seconds * 1_000_000_000;
    while left_ns >= WINDOW_NS {
        let max_ns = left_ns.min(ROUND_MAX_NS);
        let round = if traced {
            run_round(spec, seed, max_ns, true)?
        } else {
            round_in_child(spec, seed, max_ns)?
        };
        left_ns = left_ns.saturating_sub(round.measured_ns().max(WINDOW_NS));
        rounds.push(round);
    }
    Ok(rounds)
}

/// The body of a round's own process: run it, print it.
pub fn child_round(spec: &Spec, seed: u64, max_measure_ns: u64) -> Result<()> {
    print!(
        "{}",
        run_round(spec, seed, max_measure_ns, false)?.to_text()
    );
    Ok(())
}

/// `--trace 0`: the end-to-end metrics, observability off.
pub fn measured_run(spec: &'static Spec, seed: u64, seconds: u64) -> Result<Run> {
    let mut rounds = run_rounds(spec, seed, seconds, false)?;
    let (attempted, failed) = tally(&rounds);
    let mut notes = Vec::new();
    if let Some(p99) = late_ms(&rounds, 0.99).filter(|&p99| p99 > 1.0) {
        notes.push(format!(
            "INVALID RUN: paced generator ran {p99:.3} ms late at p99 (limit 1 ms)"
        ));
    }
    let metrics = end_to_end(spec, &mut rounds, &mut notes);
    Ok(Run {
        spec,
        seed,
        seconds,
        traced: false,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// `--trace 1`: a quarter of `seconds` untraced and a quarter traced,
/// then the layer probes shaped like what the traced rounds observed.
pub fn traced_run(spec: &'static Spec, seed: u64, seconds: u64, out: &Path) -> Result<Run> {
    let pass_s = (seconds / 4).max(1);
    // Untraced first: arming the program's observability also arms its
    // process-wide lock-wait timing, which never disarms.
    let untraced = run_rounds(spec, seed, pass_s, false)?;
    let traced = run_rounds(spec, seed, pass_s, true)?;
    let registry = ledger::merged_registry(&traced);
    let shape = ledger::observed_shape(spec, &traced, &registry);
    let quick = seconds < 8;
    let (probed, probe_spans) = probes::run(spec, &shape, seed, quick)?;
    let mut notes = Vec::new();
    let metrics = ledger::per_layer(
        spec, &untraced, &traced, &registry, &shape, &probed, &mut notes,
    );
    let mut spans: Vec<_> = traced
        .iter()
        .flat_map(|r| r.spans.iter().cloned())
        .collect();
    spans.extend(probe_spans);
    crate::spans::write_json(&out.join(format!("{}.spans.json", spec.name)), &spans)
        .map_err(crate::adapter::io_error)?;
    let (attempted, failed) = tally(&untraced);
    let (attempted_traced, failed_traced) = tally(&traced);
    let (attempted, failed) = (attempted + attempted_traced, failed + failed_traced);
    Ok(Run {
        spec,
        seed,
        seconds,
        traced: true,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl Run {
    /// One `name value unit` line per metric, then the notes.
    pub fn print_human(&self) {
        println!(
            "# workload {} seed {} seconds {} trace {} ({} load-generator threads, {})",
            self.spec.name,
            self.seed,
            self.seconds,
            u8::from(self.traced),
            self.spec.loadgen_threads(),
            self.spec.transport()
        );
        for m in &self.metrics {
            match m.value {
                Some(v) => println!("{:<36} {:>16.4} {}", m.name, v, m.unit),
                None => println!("{:<36} {:>16} {}", m.name, "absent", m.unit),
            }
        }
        println!("{:<36} {:>16} count", "records_attempted", self.attempted);
        println!("{:<36} {:>16} count", "records_failed", self.failed);
        for n in &self.notes {
            println!("# {n}");
        }
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`. The contract wants every listed metric on every
    /// workload, so a layer that does not run reports 0 here; the result
    /// file and the human output say `absent`.
    pub fn driver_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value.unwrap_or(0.0)),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The result file: the metrics (absent ones as `null`) plus where
    /// and how they were measured.
    pub fn full_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = m.value.map_or("null".to_string(), json_number);
                format!(
                    "    \"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        let env = |k: &str| {
            std::env::var(k)
                .unwrap_or_else(|_| "unknown".into())
                .replace(['"', '\\'], "")
        };
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("\"{}\"", n.replace(['"', '\\'], "")))
            .collect();
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
             \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"nproc\": {},\n  \
             \"commit\": \"{}\",\n  \"rustc\": \"{}\",\n  \"loadgen_threads\": {},\n  \
             \"producer_threads\": {},\n  \"transport\": \"{}\",\n  \"notes\": [{}],\n  \"metrics\": {{\n{}\n  }}\n}}\n",
            self.spec.name,
            self.seed,
            self.seconds,
            u8::from(self.traced),
            self.correct,
            self.attempted,
            self.failed,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            env("BENCH_COMMIT"),
            env("BENCH_RUSTC"),
            self.spec.loadgen_threads(),
            self.spec.producers,
            self.spec.transport(),
            notes.join(", "),
            metrics.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_unacked_unread_and_bad_records() {
        let clean = Round {
            sent: 100,
            acked: 100,
            good: 100,
            ..Round::default()
        };
        assert_eq!(tally(&[clean]), (100, 0));
        // 10 never acknowledged, 5 acknowledged but not read back, 2 bad.
        let dirty = Round {
            sent: 100,
            acked: 90,
            good: 85,
            bad: 2,
            ..Round::default()
        };
        assert_eq!(tally(&[dirty]), (100, 17));
    }

    fn edges(points: &[(u64, u64, u64, u64)]) -> Vec<Edge> {
        points
            .iter()
            .map(|&(t_ns, acked, consumed, cpu_us)| Edge {
                t_ns,
                acked,
                consumed,
                cpu_us,
            })
            .collect()
    }

    #[test]
    fn rates_are_medians_over_the_windows_of_all_rounds() {
        let s = 1_000_000_000;
        let a = Round {
            edges: edges(&[(0, 0, 0, 0), (s, 100, 10, 50), (2 * s, 300, 30, 150)]),
            ..Round::default()
        };
        let b = Round {
            edges: edges(&[(0, 0, 0, 0), (s, 500, 0, 250)]),
            ..Round::default()
        };
        let spec = &crate::workload::WORKLOADS[0];
        assert_eq!(ingest_rec_s(&[a, b]), 200.0);
        // Without a consumer thread the read-back rate stands in.
        let c = Round {
            readback_rec_s: Some(7.0),
            ..Round::default()
        };
        assert_eq!(consume_rec_s(spec, &[c]), 7.0);
    }

    #[test]
    fn cpu_per_record_divides_by_acked_or_by_consumed() {
        let round = || Round {
            edges: edges(&[(0, 0, 0, 0), (1, 100, 400, 800)]),
            ..Round::default()
        };
        let ingest = &crate::workload::WORKLOADS[0];
        let catchup = &crate::workload::WORKLOADS[3];
        assert_eq!(cpu_us_per_rec(ingest, &[round(), round()]), 8.0);
        assert_eq!(cpu_us_per_rec(catchup, &[round()]), 2.0);
    }
}
