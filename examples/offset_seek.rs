//! Reading at arbitrary offsets: the lightweight offset index (paper
//! §IV) translates logical record offsets to physical cursors, and
//! saved positions let a consumer resume exactly where another stopped.
//!
//! ```sh
//! cargo run --release --example offset_seek
//! ```

use std::time::Duration;

use kera::broker::KeraCluster;
use kera::client::consumer::{Consumer, ConsumerConfig, Subscription};
use kera::client::producer::{Producer, ProducerConfig};
use kera::client::MetadataClient;
use kera::common::config::{ClusterConfig, ReplicationConfig, StreamConfig, VirtualLogPolicy};
use kera::common::ids::{ProducerId, StreamId};

fn main() -> kera::common::Result<()> {
    let cluster = KeraCluster::start(ClusterConfig {
        brokers: 3,
        worker_threads: 2,
        ..ClusterConfig::default()
    })?;
    let rt = cluster.client(0);
    let meta = MetadataClient::new(rt.client(), cluster.coordinator());
    meta.create_stream(StreamConfig {
        id: StreamId(1),
        streamlets: 1,
        active_groups: 1,
        segments_per_group: 8,
        segment_size: 1 << 16,
        replication: ReplicationConfig {
            factor: 3,
            policy: VirtualLogPolicy::SharedPerBroker(2),
            vseg_size: 1 << 16,
        },
    })?;

    // 100k sequence-numbered records.
    let producer = Producer::new(
        &meta,
        &[StreamId(1)],
        ProducerConfig { id: ProducerId(0), chunk_size: 1024, ..ProducerConfig::default() },
    )?;
    let n = 100_000u64;
    for i in 0..n {
        producer.send(StreamId(1), &i.to_le_bytes())?;
    }
    producer.flush()?;
    producer.close()?;
    println!("produced {n} records");

    // Jump straight to record offset 90,000 — the broker's per-chunk
    // offset index resolves the covering chunk in O(log chunks).
    let target = 90_000u64;
    let sub = Subscription::from_offset(&meta, StreamId(1), target)?;
    let consumer = Consumer::new(&meta, &[sub], ConsumerConfig::default())?;
    let mut first = None;
    let mut count = 0u64;
    while count < n - target {
        let Some(batch) = consumer.next_batch(Duration::from_millis(100)) else { continue };
        batch.for_each_record(|_, rec| {
            let v = u64::from_le_bytes(rec.value().try_into().unwrap());
            if first.is_none() {
                first = Some(v);
            }
            count += 1;
        })?;
    }
    println!(
        "seeked to offset {target}: first record seen = {} (chunk-aligned), read {count} records to the tail",
        first.unwrap()
    );

    // Save positions mid-read and resume with a different consumer.
    let positions = consumer.positions();
    consumer.close();
    let resumed = Consumer::new(
        &meta,
        &[Subscription::resume(StreamId(1), positions)],
        ConsumerConfig::default(),
    )?;
    let more = match resumed.next_batch(Duration::from_millis(300)) {
        Some(batch) => batch.record_count()?,
        None => 0,
    };
    println!("resumed consumer saw {more} further records (0 = it was fully caught up)");
    resumed.close();
    cluster.shutdown();
    Ok(())
}
