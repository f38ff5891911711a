//! End-to-end crash recovery: produce with R3, crash a server, recover
//! from backups, verify every acknowledged record survives exactly once
//! and in per-slot order.

use std::collections::HashMap;
use std::time::Duration;

use kera_broker::cluster::{broker_node, KeraCluster};
use kera_client::consumer::{Consumer, ConsumerConfig, Subscription};
use kera_client::producer::{Producer, ProducerConfig};
use kera_client::MetadataClient;
use kera_common::config::{
    ClusterConfig, CoordinatorConfig, ReplicationConfig, StreamConfig, VirtualLogPolicy,
};
use kera_common::ids::{ConsumerId, ProducerId, StreamId, StreamletId};
use kera_recovery::{RecoveryConfig, RecoveryManager};

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

    let producer = Producer::new(
        &meta_p,
        &[StreamId(1)],
        ProducerConfig {
            id: ProducerId(0),
            chunk_size: 512,
            linger: Duration::from_millis(1),
            ..ProducerConfig::default()
        },
    )
    .unwrap();
    for i in 0..n {
        producer.send(StreamId(1), &i.to_le_bytes()).unwrap();
    }
    producer.flush().unwrap();
    assert_eq!(producer.metrics().items(), n);
    producer.close().unwrap();

    // Crash server 0 (its broker AND its backup die).
    cluster.crash_server(0);

    // Drive recovery from a dedicated client node.
    let rec_rt = cluster.client(1);
    let manager = RecoveryManager::with_coordinators(
        rec_rt.client(),
        cluster.coordinators(),
        cluster.backups(),
        RecoveryConfig::default(),
    );
    let report = manager.recover(broker_node(0)).unwrap();
    assert!(report.reassigned_streamlets > 0, "broker 0 led some streamlets");
    assert!(report.vsegs_read > 0);
    assert!(report.records_recovered > 0);

    // A fresh consumer (fresh metadata!) must see every record exactly
    // once, in per-(streamlet, slot) order.
    let cons_rt = cluster.client(2);
    let meta_c = MetadataClient::with_replicas(cons_rt.client(), cluster.coordinators());
    let consumer = Consumer::new(
        &meta_c,
        &[Subscription::whole_stream(StreamId(1))],
        ConsumerConfig { id: ConsumerId(0), fetch_max_bytes: 4096, ..ConsumerConfig::default() },
    )
    .unwrap();

    let mut seen: Vec<u64> = Vec::new();
    let mut last_per_slot: HashMap<(StreamletId, u32), u64> = HashMap::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while (seen.len() as u64) < n && std::time::Instant::now() < deadline {
        let Some(batch) = consumer.next_batch(Duration::from_millis(100)) else { continue };
        let key = (batch.streamlet, batch.slot);
        batch
            .for_each_record(|_, rec| {
                let v = u64::from_le_bytes(rec.value().try_into().unwrap());
                if let Some(&prev) = last_per_slot.get(&key) {
                    assert!(
                        v > prev,
                        "per-slot order violated after recovery: \
                         streamlet={:?} slot={} v={v} prev={prev} ({})",
                        key.0,
                        key.1,
                        if v == prev { "duplicate" } else { "reorder" }
                    );
                }
                last_per_slot.insert(key, v);
                seen.push(v);
            })
            .unwrap();
    }
    assert_eq!(seen.len() as u64, n, "exactly-once recovery");
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len() as u64, n, "no duplicates, no losses");
    assert_eq!(*seen.first().unwrap(), 0);
    assert_eq!(*seen.last().unwrap(), n - 1);

    consumer.close();
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
    let rec_rt = cluster.client(0);
    let manager = RecoveryManager::new(
        rec_rt.client(),
        cluster.coordinator(),
        cluster.backups(),
        RecoveryConfig::default(),
    );
    let report = manager.recover(broker_node(1)).unwrap();
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

    let producer = Producer::new(
        &meta_p,
        &[StreamId(1)],
        ProducerConfig { id: ProducerId(0), chunk_size: 512, ..ProducerConfig::default() },
    )
    .unwrap();
    for i in 0..1_000u64 {
        producer.send(StreamId(1), &i.to_le_bytes()).unwrap();
    }
    producer.flush().unwrap();
    producer.close().unwrap();

    cluster.crash_server(3);
    let rec_rt = cluster.client(1);
    let manager = RecoveryManager::new(
        rec_rt.client(),
        cluster.coordinator(),
        cluster.backups(),
        RecoveryConfig::default(),
    );
    manager.recover(broker_node(3)).unwrap();

    // A new producer with fresh metadata can keep writing to the stream
    // (including the recovered streamlet, now on a survivor).
    let prod2_rt = cluster.client(2);
    let meta2 = MetadataClient::new(prod2_rt.client(), cluster.coordinator());
    let producer2 = Producer::new(
        &meta2,
        &[StreamId(1)],
        ProducerConfig { id: ProducerId(1), chunk_size: 512, ..ProducerConfig::default() },
    )
    .unwrap();
    for i in 0..500u64 {
        producer2.send(StreamId(1), &i.to_le_bytes()).unwrap();
    }
    producer2.flush().unwrap();
    assert_eq!(producer2.metrics().items(), 500);
    assert_eq!(producer2.failed_requests(), 0);
    producer2.close().unwrap();
    cluster.shutdown();
}
