//! The same clusters, clients and replication protocols over real
//! loopback TCP sockets (the paper's client transport): every RPC
//! crosses the kernel instead of an in-process channel. Both systems
//! boot on the fabric their config names.

use std::time::Duration;

use kera::broker::KeraCluster;
use kera::client::consumer::{Consumer, ConsumerConfig, Subscription};
use kera::client::producer::{Producer, ProducerConfig};
use kera::client::{MetadataClient, Oracle};
use kera::common::config::{
    ClusterConfig, ReplicationConfig, StreamConfig, TransportChoice, VirtualLogPolicy,
};
use kera::common::ids::{ProducerId, StreamId};
use kera::kafka_sim::broker::KafkaTuning;
use kera::kafka_sim::KafkaCluster;
use kera::rpc::Fabric;

fn tcp_config() -> ClusterConfig {
    ClusterConfig {
        brokers: 3,
        worker_threads: 2,
        transport: TransportChoice::Tcp,
        ..ClusterConfig::default()
    }
}

/// Produces 2000 records to an R3 stream and reads every acknowledged
/// one back.
fn roundtrip(cluster: &Fabric) {
    assert!(cluster.net.as_inmem().is_none(), "the cluster runs on TCP");
    let rt = cluster.client(0);
    let meta = MetadataClient::new(rt.client(), cluster.coordinator());
    meta.create_stream(StreamConfig {
        id: StreamId(1),
        streamlets: 3,
        active_groups: 1,
        segments_per_group: 4,
        segment_size: 1 << 16,
        replication: ReplicationConfig {
            factor: 3,
            policy: VirtualLogPolicy::SharedPerBroker(2),
            vseg_size: 1 << 16,
        },
    })
    .unwrap();

    let producer = Producer::new(
        &meta,
        &[StreamId(1)],
        ProducerConfig { id: ProducerId(0), chunk_size: 1024, ..ProducerConfig::default() },
    )
    .unwrap();
    let n = 2_000u64;
    for i in 0..n {
        producer.send(StreamId(1), &i.to_le_bytes()).unwrap();
    }
    producer.flush().unwrap();
    assert_eq!(producer.metrics().items(), n);
    assert_eq!(producer.failed_requests(), 0);
    producer.close().unwrap();

    let consumer = Consumer::new(
        &meta,
        &[Subscription::whole_stream(StreamId(1))],
        ConsumerConfig::default(),
    )
    .unwrap();
    // All replicated records readable over TCP, once each, in order.
    let mut oracle = Oracle::default();
    oracle.expect(StreamId(1), ProducerId(0), n);
    oracle.drain(&[&consumer], Duration::from_secs(30)).unwrap();
    consumer.close();
}

#[test]
fn kera_over_tcp_roundtrip() {
    let cluster = KeraCluster::start(tcp_config()).unwrap();
    roundtrip(&cluster);
    cluster.shutdown();
}

/// A Kafka produce at R3 is acknowledged once both followers fetched it
/// (acks=all), over TCP too.
#[test]
fn kafka_over_tcp_roundtrip() {
    let cluster = KafkaCluster::start(tcp_config(), KafkaTuning::default()).unwrap();
    roundtrip(&cluster);
    cluster.shutdown();
}
