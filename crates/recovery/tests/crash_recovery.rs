//! End-to-end crash recovery: produce with R3, crash a server, recover
//! from backups, verify every acknowledged record survives exactly once
//! and in per-slot order, and every record a consumer saw before the
//! crash survives it.

use std::time::Duration;

use kera_broker::cluster::{backup_node, broker_node, KeraCluster};
use kera_client::consumer::{Consumer, ConsumerConfig, Subscription};
use kera_client::producer::{Producer, ProducerConfig};
use kera_client::{MetadataClient, Oracle};
use kera_common::config::{
    ClusterConfig, CoordinatorConfig, FaultProfile, ReplicationConfig, StreamConfig,
    VirtualLogPolicy,
};
use kera_common::ids::{ProducerId, StreamId};
use kera_recovery::{RecoveryConfig, RecoveryManager, RecoveryReport};
use kera_wire::messages::FETCH_MAX_WAIT;

fn stream_config(streamlets: u32, q: u32, policy: VirtualLogPolicy) -> StreamConfig {
    StreamConfig {
        id: StreamId(1),
        streamlets,
        active_groups: q,
        segments_per_group: 2,
        segment_size: 1 << 14, // small segments: recovery crosses many
        replication: ReplicationConfig { factor: 3, policy, vseg_size: 1 << 14 },
    }
}

/// Producer `id` of stream 1, on 512-byte chunks.
fn producer(meta: &MetadataClient, id: u32) -> Producer {
    let config = ProducerConfig { id: ProducerId(id), chunk_size: 512, ..ProducerConfig::default() };
    Producer::new(meta, &[StreamId(1)], config).unwrap()
}

/// Recovers the broker of crashed server `server`, driven from client
/// node `client`.
fn recover(cluster: &KeraCluster, client: u32, server: u32) -> RecoveryReport {
    let rt = cluster.client(client);
    let (coordinators, backups) = (cluster.coordinators(), cluster.backups());
    let manager =
        RecoveryManager::with_coordinators(rt.client(), coordinators, backups, RecoveryConfig::default());
    manager.recover(broker_node(server)).unwrap()
}

/// Reads stream 1 from a fresh consumer (fresh metadata!) on client node
/// `client` until `oracle` is complete, and settles it.
fn read_back(cluster: &KeraCluster, client: u32, oracle: &mut Oracle) {
    let rt = cluster.client(client);
    let meta = MetadataClient::with_replicas(rt.client(), cluster.coordinators());
    let whole = [Subscription::whole_stream(StreamId(1))];
    let config = ConsumerConfig { fetch_max_bytes: 4096, ..ConsumerConfig::default() };
    let consumer = Consumer::new(&meta, &whole, config).unwrap();
    oracle.drain(&[&consumer], Duration::from_secs(30)).unwrap();
    consumer.close();
}

/// Produce `n` sequence-tagged records, crash server 0, recover, and
/// validate the full record set from a fresh consumer; the cluster runs
/// `coordinators` coordinator replicas.
fn run_crash_recovery(coordinators: u32, streamlets: u32, q: u32, policy: VirtualLogPolicy, n: u64) {
    let mut cluster = KeraCluster::start(ClusterConfig {
        brokers: 4,
        worker_threads: 4,
        coordinator: CoordinatorConfig { replicas: coordinators, ..CoordinatorConfig::default() },
        ..ClusterConfig::default()
    })
    .unwrap();
    let prod_rt = cluster.client(0);
    let meta_p = MetadataClient::with_replicas(prod_rt.client(), cluster.coordinators());
    meta_p.create_stream(stream_config(streamlets, q, policy)).unwrap();

    let producer = producer(&meta_p, 0);
    for i in 0..n {
        producer.send(StreamId(1), &i.to_le_bytes()).unwrap();
    }
    producer.flush().unwrap();
    assert_eq!(producer.metrics().items(), n);
    producer.close().unwrap();

    // Crash server 0 (its broker AND its backup die), and recover it.
    cluster.crash_server(0);
    let report = recover(&cluster, 1, 0);
    assert!(report.reassigned_streamlets > 0, "broker 0 led some streamlets");
    assert!(report.vsegs_read > 0);
    assert!(report.records_recovered > 0);

    // Every record exactly once, in per-(streamlet, slot) order.
    let mut oracle = Oracle::default();
    oracle.expect(StreamId(1), ProducerId(0), n);
    read_back(&cluster, 2, &mut oracle);
    cluster.shutdown();
}

#[test]
fn recovery_shared_vlogs_q1() {
    run_crash_recovery(1, 8, 1, VirtualLogPolicy::SharedPerBroker(2), 4_000);
}

#[test]
fn recovery_per_streamlet_vlogs() {
    run_crash_recovery(1, 4, 1, VirtualLogPolicy::PerStreamlet, 3_000);
}

#[test]
fn recovery_per_subpartition_q4() {
    run_crash_recovery(1, 4, 4, VirtualLogPolicy::PerSubPartition, 3_000);
}

/// Crash reports and the metadata lookups of the replay follow the
/// leader of a 3-replica coordinator.
#[test]
fn recovery_against_a_replicated_coordinator() {
    run_crash_recovery(3, 4, 1, VirtualLogPolicy::SharedPerBroker(2), 3000);
}

/// Durable before visible (invariant 5): a consumer reads while the
/// producer writes, broker 0's rounds stop reaching any backup, and
/// server 0 crashes with the producer dropped at once, so nothing is
/// re-sent. Every record the consumer saw before the crash, acknowledged
/// or not, is read again after recovery.
#[test]
fn what_a_consumer_saw_before_a_crash_survives_it() {
    const ACKED: u64 = 2_000;
    const SENT: u64 = 3_000;
    let faults = Some(FaultProfile::default());
    let config = ClusterConfig { brokers: 4, worker_threads: 4, faults, ..ClusterConfig::default() };
    let mut cluster = KeraCluster::start(config).unwrap();
    let rt = cluster.client(0);
    let meta = MetadataClient::new(rt.client(), cluster.coordinator());
    meta.create_stream(stream_config(4, 1, VirtualLogPolicy::SharedPerBroker(2))).unwrap();
    let producer = producer(&meta, 0);
    let whole = [Subscription::whole_stream(StreamId(1))];
    let consumer = Consumer::new(&meta, &whole, ConsumerConfig::default()).unwrap();

    let mut oracle = Oracle::default();
    oracle.expect(StreamId(1), ProducerId(0), ACKED);
    oracle.allow(StreamId(1), ProducerId(0), SENT);
    for i in 0..ACKED {
        producer.send(StreamId(1), &i.to_le_bytes()).unwrap();
    }
    producer.flush().unwrap();
    // From here on what broker 0 appends reaches no backup.
    let plan = cluster.fault_plan().unwrap().clone();
    (0..4).for_each(|k| plan.partition(broker_node(0), backup_node(k)));
    for i in ACKED..SENT {
        producer.send(StreamId(1), &i.to_le_bytes()).unwrap();
    }
    oracle.drain(&[&consumer], Duration::from_secs(30)).unwrap();
    while let Some(batch) = consumer.next_batch(FETCH_MAX_WAIT * 5) {
        oracle.observe(&batch).unwrap();
    }

    cluster.crash_server(0);
    drop(producer);
    consumer.close();
    oracle.restart();
    recover(&cluster, 1, 0);
    read_back(&cluster, 2, &mut oracle);
    cluster.shutdown();
}

#[test]
fn recovery_of_idle_broker_is_empty() {
    let mut cluster = KeraCluster::start(ClusterConfig {
        brokers: 3,
        worker_threads: 2,
        ..ClusterConfig::default()
    })
    .unwrap();
    // No stream ever created; crash and recover must be a clean no-op.
    cluster.crash_server(1);
    let report = recover(&cluster, 0, 1);
    assert_eq!(report.reassigned_streamlets, 0);
    assert_eq!(report.vsegs_read, 0);
    assert_eq!(report.records_recovered, 0);
    cluster.shutdown();
}

#[test]
fn surviving_brokers_keep_serving_during_recovery() {
    let mut cluster = KeraCluster::start(ClusterConfig {
        brokers: 4,
        worker_threads: 4,
        ..ClusterConfig::default()
    })
    .unwrap();
    let prod_rt = cluster.client(0);
    let meta_p = MetadataClient::new(prod_rt.client(), cluster.coordinator());
    meta_p.create_stream(stream_config(4, 1, VirtualLogPolicy::SharedPerBroker(2))).unwrap();

    let first = producer(&meta_p, 0);
    for i in 0..1_000u64 {
        first.send(StreamId(1), &i.to_le_bytes()).unwrap();
    }
    first.close().unwrap();

    cluster.crash_server(3);
    recover(&cluster, 1, 3);

    // A new producer with fresh metadata can keep writing to the stream
    // (including the recovered streamlet, now on a survivor).
    let prod2_rt = cluster.client(2);
    let meta2 = MetadataClient::new(prod2_rt.client(), cluster.coordinator());
    let producer2 = producer(&meta2, 1);
    for i in 0..500u64 {
        producer2.send(StreamId(1), &i.to_le_bytes()).unwrap();
    }
    producer2.flush().unwrap();
    assert_eq!(producer2.metrics().items(), 500);
    assert_eq!(producer2.failed_requests(), 0);
    producer2.close().unwrap();
    cluster.shutdown();
}
