//! Criterion bench over the paper's figures (representative points; the
//! full sweeps are `cargo run --release -p kera-harness --bin figure --
//! <id>`). `cargo bench -p kera-bench --bench figures -- fig08 fig10`
//! benches the named figures; with no ids, all 14.
use criterion::Criterion;

fn main() {
    // cargo appends `--bench`; every argument that is not a flag is a
    // figure id.
    let mut ids: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    if ids.is_empty() {
        ids = kera_harness::all_figures()
            .iter()
            .map(|f| f.id.to_string())
            .collect();
    }
    let mut c = Criterion::default();
    for id in &ids {
        kera_bench::bench_figure(&mut c, id);
    }
}
