//! The Kafka baseline has one speed (ROADMAP item 3): fig09's `Kafka R3`
//! point at 4 producers, run ten times back to back with the
//! `ExperimentConfig` figures.rs builds and the canonical window, spreads
//! by at most 1.3x. Its parent read 1.80 / 1.78 / 0.11 Mrec/s over three
//! repeats. Ignored in tier-1 (ten runs take ~40 s); `scripts/ci.sh` runs
//! it by name.

use kera_harness::experiment::measure;
use kera_harness::figure;

#[test]
#[ignore = "ten canonical-window runs; scripts/ci.sh runs it by name"]
fn kafka_r3_at_4_producers_has_one_mode() {
    let fig = figure("fig09").unwrap();
    let point = fig.points.iter().find(|p| p.series == "Kafka R3" && p.x == "4p").unwrap();
    println!("run  Mrec/s  follower_fetches  fetch_expired");
    let mut rates = Vec::new();
    for run in 0..10 {
        let (m, snap) = measure(&point.cfg).unwrap();
        let fetches = snap.counter_sum("kera.kafka.follower_fetches", &[]);
        let expired = snap.counter_sum("kera.kafka.fetch_expired", &[]);
        println!("{run:>3}  {:>6.3}  {fetches:>16}  {expired:>13}", m.mrecords_per_sec());
        assert_eq!(m.failed_requests, 0);
        rates.push(m.mrecords_per_sec());
    }
    let max = rates.iter().copied().fold(f64::MIN, f64::max);
    let min = rates.iter().copied().fold(f64::MAX, f64::min);
    println!("max / min = {:.2}", max / min);
    assert!(max / min <= 1.3, "Kafka R3 @4p has a second mode: max / min = {:.2}", max / min);
}
