//! Cross-crate integration tests through the facade crate: both systems
//! driven by the same clients deliver identical data, and the system
//! invariants hold end-to-end.

use std::collections::HashMap;
use std::time::Duration;

use kera::broker::KeraCluster;
use kera::client::consumer::{Consumer, ConsumerConfig, Subscription};
use kera::client::producer::{Producer, ProducerConfig};
use kera::client::MetadataClient;
use kera::common::config::{ClusterConfig, ReplicationConfig, StreamConfig, VirtualLogPolicy};
use kera::common::ids::{ConsumerId, ProducerId, StreamId, StreamletId};
use kera::kafka_sim::broker::KafkaTuning;
use kera::kafka_sim::KafkaCluster;

fn stream_config(streamlets: u32, factor: u32) -> StreamConfig {
    StreamConfig {
        id: StreamId(1),
        streamlets,
        active_groups: 1,
        segments_per_group: 8,
        segment_size: 1 << 16,
        replication: ReplicationConfig {
            factor,
            policy: VirtualLogPolicy::SharedPerBroker(2),
            vseg_size: 1 << 16,
        },
    }
}

/// Produces `n` sequence-tagged records and returns, per streamlet, the
/// ordered list of record values the consumer observed.
fn produce_consume(
    meta_p: &MetadataClient,
    meta_c: &MetadataClient,
    n: u64,
) -> HashMap<StreamletId, Vec<u64>> {
    let producer = Producer::new(
        meta_p,
        &[StreamId(1)],
        ProducerConfig {
            id: ProducerId(0),
            chunk_size: 1024,
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

    let consumer = Consumer::new(
        meta_c,
        &[Subscription::whole_stream(StreamId(1))],
        ConsumerConfig { id: ConsumerId(0), fetch_max_bytes: 8192, ..ConsumerConfig::default() },
    )
    .unwrap();
    let mut out: HashMap<StreamletId, Vec<u64>> = HashMap::new();
    let mut count = 0u64;
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while count < n && std::time::Instant::now() < deadline {
        let Some(batch) = consumer.next_batch(Duration::from_millis(100)) else { continue };
        batch
            .for_each_record(|_, rec| {
                out.entry(batch.streamlet)
                    .or_default()
                    .push(u64::from_le_bytes(rec.value().try_into().unwrap()));
                count += 1;
            })
            .unwrap();
    }
    assert_eq!(count, n, "incomplete consumption");
    consumer.close();
    out
}

/// KerA and the Kafka baseline must deliver byte-identical per-partition
/// record sequences for the same input (round-robin over 4 partitions).
#[test]
fn kera_and_kafka_deliver_identical_data() {
    let n = 4_000u64;

    let kera = KeraCluster::start(ClusterConfig {
        brokers: 3,
        worker_threads: 3,
        ..ClusterConfig::default()
    })
    .unwrap();
    let rt1 = kera.client(0);
    let meta1 = MetadataClient::new(rt1.client(), kera.coordinator());
    meta1.create_stream(stream_config(4, 3)).unwrap();
    let from_kera = produce_consume(&meta1, &meta1, n);
    kera.shutdown();

    let kafka = KafkaCluster::start(
        ClusterConfig { brokers: 3, worker_threads: 3, ..ClusterConfig::default() },
        KafkaTuning { fetch_wait: Duration::from_millis(50), ..KafkaTuning::default() },
    )
    .unwrap();
    let rt2 = kafka.client(0);
    let meta2 = MetadataClient::new(rt2.client(), kafka.coordinator());
    meta2.create_stream(stream_config(4, 3)).unwrap();
    let from_kafka = produce_consume(&meta2, &meta2, n);
    kafka.shutdown();

    assert_eq!(from_kera.len(), 4);
    assert_eq!(from_kera, from_kafka, "the two systems must agree on delivered data");
    // Round-robin: streamlet s holds values ≡ s (mod 4), in order.
    for (sl, values) in &from_kera {
        for (i, v) in values.iter().enumerate() {
            assert_eq!(v % 4, u64::from(sl.raw()));
            assert_eq!(*v, sl.raw() as u64 + (i as u64) * 4);
        }
    }
}

/// Several producers and consumers on several multi-streamlet streams —
/// totals must reconcile exactly.
#[test]
fn multi_stream_multi_client_accounting() {
    let cluster = KeraCluster::start(ClusterConfig {
        brokers: 4,
        worker_threads: 3,
        ..ClusterConfig::default()
    })
    .unwrap();
    let admin_rt = cluster.client(100);
    let admin = MetadataClient::new(admin_rt.client(), cluster.coordinator());
    let streams: Vec<StreamId> = (1..=6).map(StreamId).collect();
    for &s in &streams {
        let mut cfg = stream_config(3, 2);
        cfg.id = s;
        admin.create_stream(cfg).unwrap();
    }

    let per_producer = 3_000u64;
    let mut producers = Vec::new();
    let mut rts = Vec::new();
    for p in 0..3u32 {
        let rt = cluster.client(p);
        let meta = MetadataClient::new(rt.client(), cluster.coordinator());
        producers.push(
            Producer::new(
                &meta,
                &streams,
                ProducerConfig {
                    id: ProducerId(p),
                    chunk_size: 1024,
                    ..ProducerConfig::default()
                },
            )
            .unwrap(),
        );
        rts.push(rt);
    }
    std::thread::scope(|s| {
        for p in &producers {
            let streams = &streams;
            s.spawn(move || {
                for i in 0..per_producer {
                    let stream = streams[(i % streams.len() as u64) as usize];
                    p.send(stream, &i.to_le_bytes()).unwrap();
                }
                p.flush().unwrap();
            });
        }
    });
    let produced: u64 = producers.iter().map(|p| p.metrics().items()).sum();
    assert_eq!(produced, 3 * per_producer);

    // Two consumers split the streams.
    let mut consumed = 0u64;
    let mut consumers = Vec::new();
    let mut crts = Vec::new();
    for c in 0..2u32 {
        let rt = cluster.client(200 + c);
        let meta = MetadataClient::new(rt.client(), cluster.coordinator());
        let subs: Vec<Subscription> = streams
            .iter()
            .enumerate()
            .filter(|(i, _)| *i as u32 % 2 == c)
            .map(|(_, &s)| Subscription::whole_stream(s))
            .collect();
        consumers.push(
            Consumer::new(&meta, &subs, ConsumerConfig { id: ConsumerId(c), ..Default::default() })
                .unwrap(),
        );
        crts.push(rt);
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while consumed < produced && std::time::Instant::now() < deadline {
        for c in &consumers {
            consumed += c.poll_count(Duration::from_millis(50)).unwrap();
        }
    }
    assert_eq!(consumed, produced);

    for p in producers {
        p.close().unwrap();
    }
    for c in consumers {
        c.close();
    }
    cluster.shutdown();
}

/// Replicated bytes live on exactly R−1 backups, spread over the fleet.
#[test]
fn replication_fan_out_accounting() {
    let cluster = KeraCluster::start(ClusterConfig {
        brokers: 4,
        worker_threads: 2,
        ..ClusterConfig::default()
    })
    .unwrap();
    let rt = cluster.client(0);
    let meta = MetadataClient::new(rt.client(), cluster.coordinator());
    meta.create_stream(stream_config(4, 3)).unwrap();

    let producer = Producer::new(
        &meta,
        &[StreamId(1)],
        ProducerConfig { id: ProducerId(0), chunk_size: 2048, ..ProducerConfig::default() },
    )
    .unwrap();
    let n = 5_000u64;
    for i in 0..n {
        producer.send(StreamId(1), &i.to_le_bytes()).unwrap();
    }
    producer.flush().unwrap();
    producer.close().unwrap();

    // Sum of broker-ingested bytes × (R−1) == sum of backup-held bytes.
    let ingested: u64 = cluster.broker_svcs.iter().map(|b| b.bytes_in.get()).sum();
    let held: usize = cluster.backup_svcs.iter().map(|b| b.bytes_held()).sum();
    assert_eq!(held as u64, ingested * 2, "every chunk must live on exactly 2 backups");
    // And the copies are spread over several backups, not piled on one.
    let populated = cluster.backup_svcs.iter().filter(|b| b.bytes_held() > 0).count();
    assert!(populated >= 3, "backups used: {populated}");
    cluster.shutdown();
}

/// The consumer cache bound must hold (backpressure, paper: "a cache of
/// up to 1000 chunks").
#[test]
fn slow_consumer_is_backpressured_not_overrun() {
    let cluster = KeraCluster::start(ClusterConfig {
        brokers: 2,
        worker_threads: 2,
        ..ClusterConfig::default()
    })
    .unwrap();
    let rt = cluster.client(0);
    let meta = MetadataClient::new(rt.client(), cluster.coordinator());
    meta.create_stream(stream_config(1, 1)).unwrap();
    let producer = Producer::new(
        &meta,
        &[StreamId(1)],
        ProducerConfig { id: ProducerId(0), chunk_size: 512, ..ProducerConfig::default() },
    )
    .unwrap();
    for i in 0..20_000u64 {
        producer.send(StreamId(1), &i.to_le_bytes()).unwrap();
    }
    producer.flush().unwrap();
    producer.close().unwrap();

    // A tiny cache (8 batches) with a consumer that never polls: the
    // requests thread must stall on the cache rather than buffer all 20k
    // records.
    let consumer = Consumer::new(
        &meta,
        &[Subscription::whole_stream(StreamId(1))],
        ConsumerConfig {
            id: ConsumerId(0),
            cache_capacity: 8,
            fetch_max_bytes: 512,
        },
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(300));
    // Now drain; everything must still arrive exactly once.
    let mut total = 0u64;
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while total < 20_000 && std::time::Instant::now() < deadline {
        total += consumer.poll_count(Duration::from_millis(50)).unwrap();
    }
    assert_eq!(total, 20_000);
    consumer.close();
    cluster.shutdown();
}
