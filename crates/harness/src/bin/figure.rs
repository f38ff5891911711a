//! Reproduces one figure of the paper's evaluation (`figure fig10`) or
//! all of Figs. 8-21 (`figure all`), writing one TSV per figure under
//! results/. See DESIGN.md §4 for the sweeps; scale with
//! KERA_MEASURE_MS / KERA_WARMUP_MS.
fn main() {
    let Some(id) = std::env::args().nth(1) else {
        eprintln!("usage: figure <fig08..fig21|all>");
        std::process::exit(2);
    };
    if id == "all" {
        for fig in kera_harness::all_figures() {
            kera_harness::report::figure_main(fig.id);
        }
    } else {
        kera_harness::report::figure_main(&id);
    }
}
