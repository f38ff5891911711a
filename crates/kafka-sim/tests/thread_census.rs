//! Thread census of a booted Kafka-style cluster: which thread classes
//! exist and how many of each. A test binary of its own, so that no other
//! test's threads are counted.

use std::time::{Duration, Instant};

use kera_common::config::{ClusterConfig, ReplicationConfig, StreamConfig, VirtualLogPolicy};
use kera_common::ids::StreamId;
use kera_kafka_sim::broker::KafkaTuning;
use kera_kafka_sim::cluster::COORDINATOR;
use kera_kafka_sim::KafkaCluster;
use kera_rpc::thread_count_named;
use kera_wire::frames::OpCode;
use kera_wire::messages::CreateStreamRequest;

/// A thread names itself as it starts, so wait for the last of them.
fn await_named(prefix: &str, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while thread_count_named(prefix) < n {
        assert!(Instant::now() < deadline, "{} {prefix}", thread_count_named(prefix));
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_kafka_broker_is_one_node() {
    let before = thread_count_named("");
    let config = ClusterConfig { brokers: 4, worker_threads: 3, ..ClusterConfig::default() };
    let cluster = KafkaCluster::start(config, KafkaTuning::default()).unwrap();
    let client = cluster.client(0);
    // Four partitions at R3: each broker follows two leaders, one fetcher
    // thread apiece.
    let topic = StreamConfig {
        id: StreamId(1),
        streamlets: 4,
        active_groups: 1,
        segments_per_group: 1,
        segment_size: 1 << 20,
        replication: ReplicationConfig {
            factor: 3,
            policy: VirtualLogPolicy::PerStreamlet,
            vseg_size: 1 << 20,
        },
    };
    let create = CreateStreamRequest { config: topic }.encode();
    client.client().call(COORDINATOR, OpCode::CreateStream, create, Duration::from_secs(5)).unwrap();

    // Six runtimes: four brokers with three workers each, the coordinator
    // with two, the client with one. (With a replica service per broker,
    // a second runtime of two workers as `worker-300<i>-*`, this cluster
    // ran 4 x (3 + 2) broker workers, 23 in all.)
    let workers = 4 * 3 + 2 + 1;
    // A fetcher is spawned by a broker worker and carries that worker's
    // name until it names itself, so the workers are counted only once
    // every fetcher has.
    let fetchers = 4 * 2;
    await_named("replica-fetch", fetchers);
    await_named("worker-", workers);
    assert_eq!(thread_count_named("worker-"), workers);
    assert_eq!(thread_count_named("worker-300"), 0, "a replica service is back");
    // Each broker's purgatory expires what waits in it on the broker's
    // own timers. (With an expiry line per broker, a `purgatory-<node>`
    // thread each, this cluster ran 4 more threads.)
    assert_eq!(thread_count_named("purgatory-"), 0, "a purgatory line is back");
    assert_eq!(thread_count_named("replica-fetch"), fetchers);
    assert_eq!(thread_count_named("") - before, workers + fetchers, "an uncounted thread class");

    drop(client);
    cluster.shutdown();
}
