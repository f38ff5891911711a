//! Integration tests for the API features beyond the produce/consume
//! core: stream deletion, consumer seek/resume, producer pipelining.

use std::time::Duration;

use kera::broker::cluster::{backup_node, broker_node};
use kera::broker::KeraCluster;
use kera::client::consumer::{Consumer, ConsumerConfig, Subscription};
use kera::client::producer::{Producer, ProducerConfig};
use kera::client::{MetadataClient, Oracle};
use kera::common::config::{
    ClusterConfig, FaultProfile, ReplicationConfig, StreamConfig, VirtualLogPolicy,
};
use kera::common::ids::{ConsumerId, ProducerId, StreamId};

fn cluster(brokers: u32) -> KeraCluster {
    KeraCluster::start(ClusterConfig { brokers, worker_threads: 2, ..ClusterConfig::default() })
        .unwrap()
}

fn stream_config(id: u32, streamlets: u32, policy: VirtualLogPolicy) -> StreamConfig {
    StreamConfig {
        id: StreamId(id),
        streamlets,
        active_groups: 1,
        segments_per_group: 4,
        segment_size: 1 << 16,
        replication: ReplicationConfig { factor: 3, policy, vseg_size: 1 << 16 },
    }
}

/// Creates stream 1 with a dedicated virtual log per streamlet and fills
/// it: the backups then hold its replicated segments.
fn fill_dedicated_stream(cluster: &KeraCluster, meta: &MetadataClient) {
    meta.create_stream(stream_config(1, 4, VirtualLogPolicy::PerStreamlet)).unwrap();
    let producer = Producer::new(
        meta,
        &[StreamId(1)],
        ProducerConfig { id: ProducerId(0), chunk_size: 1024, ..ProducerConfig::default() },
    )
    .unwrap();
    for i in 0..2_000u64 {
        producer.send(StreamId(1), &i.to_le_bytes()).unwrap();
    }
    producer.flush().unwrap();
    producer.close().unwrap();
    let held_before: usize = cluster.backup_svcs.iter().map(|b| b.bytes_held()).sum();
    assert!(held_before > 0);
}

/// Waits up to 5 s for the backups to hold nothing (nobody waits on the
/// frees, so poll).
fn await_backups_freed(cluster: &KeraCluster) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let held: usize = cluster.backup_svcs.iter().map(|b| b.bytes_held()).sum();
        if held == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "backups still hold {held} bytes after deletion"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn delete_stream_frees_dedicated_vlogs_and_backups() {
    let cluster = cluster(4);
    let rt = cluster.client(0);
    let meta = MetadataClient::new(rt.client(), cluster.coordinator());
    fill_dedicated_stream(&cluster, &meta);

    meta.delete_stream(StreamId(1)).unwrap();

    // Metadata is gone...
    assert!(meta.refresh(StreamId(1)).is_err());
    // ...new producers cannot connect...
    assert!(Producer::new(&meta, &[StreamId(1)], ProducerConfig::default()).is_err());
    // ...and the backups eventually free the replicated segments.
    await_backups_freed(&cluster);
    // Deleting again errors cleanly.
    assert!(meta.delete_stream(StreamId(1)).is_err());
    cluster.shutdown();
}

/// Every broker's frames to every backup are lost while the stream is
/// deleted: the frees are retransmitted once the links heal, and the
/// backups still let go of every segment.
#[test]
fn delete_stream_frees_backups_across_lost_frees() {
    let cluster = KeraCluster::start(ClusterConfig {
        brokers: 4,
        worker_threads: 2,
        faults: Some(FaultProfile::default()),
        ..ClusterConfig::default()
    })
    .unwrap();
    let rt = cluster.client(0);
    let meta = MetadataClient::new(rt.client(), cluster.coordinator());
    fill_dedicated_stream(&cluster, &meta);

    let plan = cluster.fault_plan().unwrap();
    for b in 0..4 {
        for k in 0..4 {
            plan.partition_one_way(broker_node(b), backup_node(k));
        }
    }
    meta.delete_stream(StreamId(1)).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    assert!(plan.blocked() > 0, "no free was lost");
    plan.heal_all();
    await_backups_freed(&cluster);
    cluster.shutdown();
}

#[test]
fn delete_with_shared_pool_removes_stream_but_keeps_pool_logs() {
    let cluster = cluster(3);
    let rt = cluster.client(0);
    let meta = MetadataClient::new(rt.client(), cluster.coordinator());
    meta.create_stream(stream_config(1, 2, VirtualLogPolicy::SharedPerBroker(2))).unwrap();
    let producer = Producer::new(
        &meta,
        &[StreamId(1)],
        ProducerConfig { id: ProducerId(0), chunk_size: 1024, ..ProducerConfig::default() },
    )
    .unwrap();
    for i in 0..500u64 {
        producer.send(StreamId(1), &i.to_le_bytes()).unwrap();
    }
    producer.flush().unwrap();
    producer.close().unwrap();
    meta.delete_stream(StreamId(1)).unwrap();
    // Shared logs stay alive (space reclaim = log cleaning, future work);
    // the stream itself is gone from every broker.
    for b in &cluster.broker_svcs {
        assert!(b.store().stream(StreamId(1)).is_err());
    }
    cluster.shutdown();
}

#[test]
fn consumer_resumes_from_saved_positions_exactly_once() {
    // 3 brokers: R3 needs 2 backup candidates beyond the co-located one.
    let cluster = cluster(3);
    let rt = cluster.client(0);
    let meta = MetadataClient::new(rt.client(), cluster.coordinator());
    meta.create_stream(stream_config(1, 2, VirtualLogPolicy::SharedPerBroker(2))).unwrap();
    let producer = Producer::new(
        &meta,
        &[StreamId(1)],
        ProducerConfig { id: ProducerId(0), chunk_size: 512, ..ProducerConfig::default() },
    )
    .unwrap();
    let n = 4_000u64;
    for i in 0..n {
        producer.send(StreamId(1), &i.to_le_bytes()).unwrap();
    }
    producer.flush().unwrap();
    assert_eq!(producer.metrics().items(), n, "all records must be acked before consuming");
    assert_eq!(producer.failed_requests(), 0);
    producer.close().unwrap();

    // First consumer reads roughly half, then we snapshot its positions
    // after draining its cache (so fetched == consumed).
    let c1 = Consumer::new(
        &meta,
        &[Subscription::whole_stream(StreamId(1))],
        ConsumerConfig { id: ConsumerId(0), cache_capacity: 4, ..ConsumerConfig::default() },
    )
    .unwrap();
    let mut oracle = Oracle::default();
    oracle.expect(StreamId(1), ProducerId(0), n);
    let mut consumed = 0;
    let first_deadline = std::time::Instant::now() + Duration::from_secs(30);
    while consumed < n / 2 {
        assert!(std::time::Instant::now() < first_deadline, "first half never arrived");
        let Some(batch) = c1.next_batch(Duration::from_millis(200)) else { continue };
        consumed += oracle.observe(&batch).unwrap();
    }
    // Drain what is already cached so the snapshot matches consumption
    // (positions reflect *fetched* data; see Consumer::positions docs).
    while let Some(batch) = c1.next_batch(Duration::from_millis(50)) {
        oracle.observe(&batch).unwrap();
    }
    let positions = c1.positions();
    c1.close();

    // Second consumer resumes exactly where the first stopped: no
    // duplicate, no gap, each slot's order continued.
    let c2 = Consumer::new(
        &meta,
        &[Subscription::resume(StreamId(1), positions)],
        ConsumerConfig { id: ConsumerId(1), ..ConsumerConfig::default() },
    )
    .unwrap();
    oracle.drain(&[&c2], Duration::from_secs(20)).unwrap();
    c2.close();
    cluster.shutdown();
}

#[test]
fn pipelined_producer_delivers_everything() {
    let cluster = cluster(3);
    let rt = cluster.client(0);
    let meta = MetadataClient::new(rt.client(), cluster.coordinator());
    meta.create_stream(stream_config(1, 3, VirtualLogPolicy::SharedPerBroker(2))).unwrap();
    let producer = Producer::new(
        &meta,
        &[StreamId(1)],
        ProducerConfig {
            id: ProducerId(0),
            chunk_size: 512,
            pipeline: 4,
            ..ProducerConfig::default()
        },
    )
    .unwrap();
    let n = 8_000u64;
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
        ConsumerConfig { id: ConsumerId(0), ..ConsumerConfig::default() },
    )
    .unwrap();
    let mut total = 0u64;
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while total < n && std::time::Instant::now() < deadline {
        let Some(batch) = consumer.next_batch(Duration::from_millis(100)) else { continue };
        total += batch.record_count().unwrap();
    }
    assert_eq!(total, n);
    consumer.close();
    cluster.shutdown();
}

#[test]
fn consumer_starts_at_arbitrary_record_offset() {
    let cluster = cluster(3);
    let rt = cluster.client(0);
    let meta = MetadataClient::new(rt.client(), cluster.coordinator());
    meta.create_stream(stream_config(1, 1, VirtualLogPolicy::SharedPerBroker(2))).unwrap();
    // Every chunk full (23 records) but the last, whatever the scheduler
    // does: a source paused past a 1-ms linger would seal a short chunk
    // and shift every boundary after it.
    let producer = Producer::new(
        &meta,
        &[StreamId(1)],
        ProducerConfig {
            id: ProducerId(0),
            chunk_size: 512,
            linger: Duration::from_secs(60),
            ..ProducerConfig::default()
        },
    )
    .unwrap();
    let n = 3_000u64;
    for i in 0..n {
        producer.send(StreamId(1), &i.to_le_bytes()).unwrap();
    }
    producer.flush().unwrap();
    producer.close().unwrap();

    // Seek to record offset 1000: the broker's lightweight per-chunk
    // index returns the covering chunk's cursor, so the consumer sees a
    // suffix that starts at (or just below, chunk-aligned) the target.
    let target = 1_000u64;
    let sub = Subscription::from_offset(&meta, StreamId(1), target).unwrap();
    assert!(!sub.start.is_empty());
    let consumer = Consumer::new(
        &meta,
        &[sub],
        ConsumerConfig { id: ConsumerId(0), ..ConsumerConfig::default() },
    )
    .unwrap();
    let mut values = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while (values.len() as u64) < n - target && std::time::Instant::now() < deadline {
        let Some(batch) = consumer.next_batch(Duration::from_millis(100)) else { continue };
        batch
            .for_each_record(|_, rec| {
                values.push(u64::from_le_bytes(rec.value().try_into().unwrap()));
            })
            .unwrap();
    }
    consumer.close();
    let first = *values.first().expect("seeked consumer saw nothing");
    // Chunk-aligned: the first value is the first of the chunk that holds
    // the target (records 989..=1011), never above it.
    assert!(first <= target, "seek overshot: first={first} target={target}");
    assert!(target - first < 16, "seek undershot too far: first={first}");
    // Everything from `first` to the end arrives in order, exactly once.
    for (i, v) in values.iter().enumerate() {
        assert_eq!(*v, first + i as u64);
    }
    assert_eq!(*values.last().unwrap(), n - 1);
    cluster.shutdown();
}
