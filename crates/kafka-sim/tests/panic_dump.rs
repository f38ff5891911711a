//! With `KERA_FLIGHTREC=1`, a process that runs only Kafka-sim nodes
//! dumps their flight-recorder rings when a thread panics. A test binary
//! of its own: the knob is read once per process, so it is set here
//! before anything reads it.

use std::path::Path;

use kera_common::config::ClusterConfig;
use kera_kafka_sim::broker::KafkaTuning;
use kera_kafka_sim::cluster::broker_node;
use kera_kafka_sim::KafkaCluster;

#[test]
fn a_panic_dumps_the_kafka_nodes_rings() {
    std::env::set_var("KERA_FLIGHTREC", "1");
    let config = ClusterConfig { brokers: 2, ..ClusterConfig::default() };
    let cluster = KafkaCluster::start(config, KafkaTuning::default()).unwrap();

    let panicked = std::thread::spawn(|| panic!("planted panic")).join();
    assert!(panicked.is_err());

    // The hook writes under results/tmp/flightrec/panic-<pid>-<seq>/.
    let runs = Path::new("results/tmp/flightrec");
    let ours = format!("panic-{}-", std::process::id());
    let dumps: Vec<_> = std::fs::read_dir(runs)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with(&ours)))
        .collect();
    let want = format!("flightrec-{}.json", broker_node(1).raw());
    let body = dumps.iter().find_map(|d| std::fs::read_to_string(d.join(&want)).ok());
    for d in &dumps {
        let _ = std::fs::remove_dir_all(d);
    }
    for empty in [runs, Path::new("results/tmp"), Path::new("results")] {
        let _ = std::fs::remove_dir(empty);
    }
    let body = body.unwrap_or_else(|| panic!("no {want} in {dumps:?}"));
    assert!(body.contains("\"ring\":{") && body.contains("\"slow_traces\":["), "{body}");
    drop(cluster);
}
