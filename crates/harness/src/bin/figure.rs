//! `figure <fig08..fig21|all>` measures a figure of the paper's evaluation
//! into `results/<id>.tsv` (scale with KERA_MEASURE_MS / KERA_WARMUP_MS:
//! any other window writes `results/tmp/`), `figure check [dir]` grades
//! the TSVs against the claims declared in `figures.rs`, `figure report`
//! renders them into EXPERIMENTS.md, `figure list` prints the index.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    std::process::exit(kera_harness::report::figure_main(&args));
}
