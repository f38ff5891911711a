//! Crash a broker, recover its durably-acknowledged data from the
//! backups, and verify nothing was lost (paper §III: "for durability
//! (data is never lost in case of failures), each virtual log can be
//! recovered in parallel over many brokers").
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```

use std::time::Duration;

use kera::broker::cluster::broker_node;
use kera::broker::KeraCluster;
use kera::client::consumer::{Consumer, ConsumerConfig, Subscription};
use kera::client::producer::{Producer, ProducerConfig};
use kera::client::{MetadataClient, Oracle};
use kera::common::config::{ClusterConfig, ReplicationConfig, StreamConfig, VirtualLogPolicy};
use kera::common::ids::{ProducerId, StreamId};
use kera::recovery::{RecoveryConfig, RecoveryManager};

fn main() -> kera::common::Result<()> {
    let mut cluster = KeraCluster::start(ClusterConfig {
        brokers: 4,
        worker_threads: 3,
        ..ClusterConfig::default()
    })?;
    let admin_rt = cluster.client(0);
    let admin = MetadataClient::new(admin_rt.client(), cluster.coordinator());
    admin.create_stream(StreamConfig {
        id: StreamId(1),
        streamlets: 8,
        active_groups: 1,
        segments_per_group: 4,
        segment_size: 1 << 16,
        replication: ReplicationConfig {
            factor: 3,
            policy: VirtualLogPolicy::SharedPerBroker(2),
            vseg_size: 1 << 16,
        },
    })?;

    // Produce 50k sequence-tagged records (every ack means 3 copies).
    let prod_rt = cluster.client(1);
    let meta_p = MetadataClient::new(prod_rt.client(), cluster.coordinator());
    let producer = Producer::new(
        &meta_p,
        &[StreamId(1)],
        ProducerConfig { id: ProducerId(0), chunk_size: 1024, ..ProducerConfig::default() },
    )?;
    let n = 50_000u64;
    for i in 0..n {
        producer.send(StreamId(1), &i.to_le_bytes())?;
    }
    producer.flush()?;
    producer.close()?;
    println!("produced and acknowledged {n} records (R3)");

    // Kill server 0: its broker AND its co-located backup vanish.
    cluster.crash_server(0);
    println!("crashed server 0 (broker + backup)");

    // Recover from the surviving backups.
    let rec_rt = cluster.client(2);
    let manager = RecoveryManager::new(
        rec_rt.client(),
        cluster.coordinator(),
        cluster.backups(),
        RecoveryConfig::default(),
    );
    let report = manager.recover(broker_node(0))?;
    println!(
        "recovery: {} streamlets reassigned, {} virtual segments read, \
         {} chunks / {} records replayed in {:?}",
        report.reassigned_streamlets,
        report.vsegs_read,
        report.chunks_replayed,
        report.records_recovered,
        report.duration
    );

    // Verify: a fresh consumer sees every record exactly once.
    let cons_rt = cluster.client(3);
    let meta_c = MetadataClient::new(cons_rt.client(), cluster.coordinator());
    let consumer = Consumer::new(
        &meta_c,
        &[Subscription::whole_stream(StreamId(1))],
        ConsumerConfig::default(),
    )?;
    let mut oracle = Oracle::default();
    oracle.expect(StreamId(1), ProducerId(0), n);
    oracle.drain(&[&consumer], Duration::from_secs(30))?;
    println!("verified: all {n} acknowledged records survived the crash, no duplicates");
    consumer.close();
    cluster.shutdown();
    Ok(())
}
