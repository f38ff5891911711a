//! Quickstart: boot an in-process KerA cluster, create a replicated
//! stream, produce a batch of records and consume them back.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::time::Duration;

use kera::broker::KeraCluster;
use kera::client::consumer::{Consumer, ConsumerConfig, Subscription};
use kera::client::producer::{Producer, ProducerConfig};
use kera::client::oracle::stamp;
use kera::client::{MetadataClient, Oracle};
use kera::common::config::{ClusterConfig, ReplicationConfig, StreamConfig, VirtualLogPolicy};
use kera::common::ids::{ProducerId, StreamId};

fn main() -> kera::common::Result<()> {
    // 1. A 4-broker cluster; each node runs a broker and a backup
    //    service, like the paper's Grid5000 deployment.
    let cluster = KeraCluster::start(ClusterConfig {
        brokers: 4,
        worker_threads: 2,
        ..ClusterConfig::default()
    })?;

    // 2. A stream with 4 streamlets, replication factor 3, replicated
    //    through 4 shared virtual logs per broker.
    let admin_rt = cluster.client(0);
    let admin = MetadataClient::new(admin_rt.client(), cluster.coordinator());
    let metadata = admin.create_stream(StreamConfig {
        id: StreamId(1),
        streamlets: 4,
        active_groups: 1,
        segments_per_group: 16,
        segment_size: 1 << 20,
        replication: ReplicationConfig {
            factor: 3,
            policy: VirtualLogPolicy::SharedPerBroker(4),
            vseg_size: 1 << 20,
        },
    })?;
    println!("created stream 1: {} streamlets over {} brokers", metadata.placements.len(), metadata.brokers().len());

    // 3. Produce 100k records of 100 bytes.
    let prod_rt = cluster.client(1);
    let meta_p = MetadataClient::new(prod_rt.client(), cluster.coordinator());
    let producer = Producer::new(
        &meta_p,
        &[StreamId(1)],
        ProducerConfig { id: ProducerId(0), chunk_size: 16 * 1024, ..ProducerConfig::default() },
    )?;
    let n = 100_000u64;
    let mut payload = [42u8; 100];
    let started = std::time::Instant::now();
    for i in 0..n {
        stamp(&mut payload, i);
        producer.send(StreamId(1), &payload)?;
    }
    producer.flush()?;
    let elapsed = started.elapsed();
    println!(
        "produced {n} records in {elapsed:?} ({:.2} Mrec/s, every record on 3 replicas)",
        n as f64 / elapsed.as_secs_f64() / 1e6
    );

    // 4. Consume them back (only durably replicated data is visible),
    //    each exactly once and in per-slot order.
    let cons_rt = cluster.client(2);
    let meta_c = MetadataClient::new(cons_rt.client(), cluster.coordinator());
    let consumer = Consumer::new(
        &meta_c,
        &[Subscription::whole_stream(StreamId(1))],
        ConsumerConfig::default(),
    )?;
    let mut oracle = Oracle::default();
    oracle.expect(StreamId(1), ProducerId(0), n);
    oracle.drain(&[&consumer], Duration::from_secs(30))?;
    println!("consumed all {n} records, each once — done");

    producer.close()?;
    consumer.close();
    cluster.shutdown();
    Ok(())
}
