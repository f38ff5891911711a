//! Criterion glue: benchmarks one figure's representative points on a
//! persistent cluster rig.
//!
//! `cargo bench -p kera-bench --bench figures -- figNN` reports
//! nanoseconds per *acknowledged record* (Criterion throughput =
//! elements/s); the full paper-shaped sweeps live in the `kera-harness`
//! `figure` binary (`cargo run --release -p kera-harness --bin figure --
//! figNN`).

use std::time::Duration;

use criterion::{BenchmarkId, Criterion, Throughput};
use kera_harness::figures::{figure, quick};
use kera_harness::rig::BenchRig;

/// Number of figure points benchmarked per figure (keeps `cargo bench
/// --workspace` tractable; the harness binary runs the full sweeps).
pub const POINTS_PER_FIGURE: usize = 3;

/// Benchmarks a subset of `id`'s points: time to ingest records
/// end-to-end (append + replication + ack) on a warm cluster.
pub fn bench_figure(c: &mut Criterion, id: &str) {
    let fig = quick(
        figure(id).unwrap_or_else(|| panic!("unknown figure {id}")),
        POINTS_PER_FIGURE,
        Duration::from_millis(200),
    );
    let mut group = c.benchmark_group(id);
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for point in &fig.points {
        let rig = match BenchRig::start(&point.cfg) {
            Ok(rig) => rig,
            Err(e) => panic!("{id} point {}/{} failed to start: {e}", point.series, point.x),
        };
        group.throughput(Throughput::Elements(1));
        group.bench_function(BenchmarkId::new(&point.series, &point.x), |b| {
            b.iter_custom(|iters| rig.ingest(iters));
        });
        rig.stop();
    }
    group.finish();
}
