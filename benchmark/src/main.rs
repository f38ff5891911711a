//! `kera-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! One run of one workload. With `--trace 0` it measures the end-to-end
//! metrics with the program's observability off; with `--trace 1` it
//! runs an untraced and a traced pass plus the layer probes and reports
//! the per-layer metrics. Every metric is printed by name with its
//! unit; the last line of standard output is the result as one JSON
//! object. Exit code 0 only if every output checked out.

mod adapter;
mod clock;
mod ledger;
mod loadgen;
mod probes;
mod report;
mod spans;
mod stats;
mod verify;
mod workload;

use std::path::PathBuf;

use workload::{Spec, WORKLOADS};

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    /// Internal: run one untraced round of at most this many measured
    /// nanoseconds and print it (the run starts its rounds this way).
    round: Option<u64>,
}

fn usage() -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: kera-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut spec, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    let (mut out, mut round) = (PathBuf::from("benchmark/out"), None);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => spec = WORKLOADS.iter().find(|w| w.name == value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value == "1",
            "--out" => out = PathBuf::from(value),
            "--round" => round = Some(value.parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
    }
    let Some(spec) = spec else { usage() };
    if seconds == 0 {
        usage();
    }
    Args {
        spec,
        seed,
        seconds,
        trace,
        out,
        round,
    }
}

fn main() {
    // A KERA_* knob (copy data plane, watchdog, flight recorder, ...)
    // silently changes what is measured; refuse to produce a number.
    if let Some((k, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("KERA_"))
    {
        eprintln!(
            "refusing to run with {} set: unset every KERA_* variable",
            k.to_string_lossy()
        );
        std::process::exit(2);
    }
    let args = parse_args();
    if let Some(max_measure_ns) = args.round {
        if let Err(e) = report::child_round(args.spec, args.seed, max_measure_ns) {
            eprintln!("{}: round failed: {e}", args.spec.name);
            std::process::exit(1);
        }
        return;
    }
    std::fs::create_dir_all(&args.out).expect("create output directory");
    let result = if args.trace {
        report::traced_run(args.spec, args.seed, args.seconds, &args.out)
    } else {
        report::measured_run(args.spec, args.seed, args.seconds)
    };
    match result {
        Ok(run) => {
            run.print_human();
            let kind = if args.trace { "layers" } else { "e2e" };
            std::fs::write(
                args.out.join(format!("{}.{kind}.json", args.spec.name)),
                run.full_json(),
            )
            .expect("write result file");
            println!("{}", run.driver_json());
            std::process::exit(if run.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("{}: run failed: {e}", args.spec.name);
            std::process::exit(1);
        }
    }
}
