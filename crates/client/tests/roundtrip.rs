//! End-to-end client tests: the same producer/consumer stack driving the
//! KerA cluster and the Kafka-style baseline.

use std::collections::HashMap;
use std::time::Duration;

use kera_broker::KeraCluster;
use kera_client::consumer::{Consumer, ConsumerConfig, Subscription};
use kera_client::producer::{Producer, ProducerConfig};
use kera_client::MetadataClient;
use kera_common::config::{ClusterConfig, ReplicationConfig, StreamConfig, VirtualLogPolicy};
use kera_common::ids::{ConsumerId, ProducerId, StreamId, StreamletId};
use kera_kafka_sim::broker::KafkaTuning;
use kera_kafka_sim::KafkaCluster;

fn stream_config(id: u32, streamlets: u32, q: u32, factor: u32) -> StreamConfig {
    StreamConfig {
        id: StreamId(id),
        streamlets,
        active_groups: q,
        segments_per_group: 4,
        segment_size: 1 << 18,
        replication: ReplicationConfig {
            factor,
            policy: VirtualLogPolicy::SharedPerBroker(2),
            vseg_size: 1 << 18,
        },
    }
}

fn producer_config(id: u32) -> ProducerConfig {
    ProducerConfig {
        id: ProducerId(id),
        chunk_size: 1024,
        linger: Duration::from_millis(1),
        ..ProducerConfig::default()
    }
}

fn consumer_config(id: u32) -> ConsumerConfig {
    ConsumerConfig { id: ConsumerId(id), fetch_max_bytes: 4096, ..ConsumerConfig::default() }
}

/// Drains the consumer until `expected` records arrive or a deadline.
fn consume_all(consumer: &Consumer, expected: u64) -> u64 {
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let mut total = 0;
    while total < expected && std::time::Instant::now() < deadline {
        total += consumer.poll_count(Duration::from_millis(100)).unwrap();
    }
    total
}

#[test]
fn kera_roundtrip_many_records() {
    let cluster = KeraCluster::start(ClusterConfig {
        brokers: 4,
        worker_threads: 4,
        ..ClusterConfig::default()
    })
    .unwrap();
    let prod_rt = cluster.client(0);
    let cons_rt = cluster.client(1);
    let meta_p = MetadataClient::new(prod_rt.client(), cluster.coordinator());
    let meta_c = MetadataClient::new(cons_rt.client(), cluster.coordinator());

    let md = meta_p.create_stream(stream_config(1, 4, 1, 3)).unwrap();
    assert_eq!(md.placements.len(), 4);

    let producer = Producer::new(&meta_p, &[StreamId(1)], producer_config(0)).unwrap();
    let consumer = Consumer::new(
        &meta_c,
        &[Subscription::whole_stream(StreamId(1))],
        consumer_config(0),
    )
    .unwrap();

    let n = 10_000u64;
    let payload = [0x5au8; 100];
    for _ in 0..n {
        producer.send(StreamId(1), &payload).unwrap();
    }
    producer.flush().unwrap();
    assert_eq!(producer.metrics().items(), n, "all records acked");
    assert_eq!(producer.failed_requests(), 0);

    let consumed = consume_all(&consumer, n);
    assert_eq!(consumed, n, "all records consumed exactly once");
    producer.close().unwrap();
    consumer.close();
    cluster.shutdown();
}

#[test]
fn kera_per_slot_order_is_preserved() {
    let cluster = KeraCluster::start(ClusterConfig {
        brokers: 2,
        worker_threads: 4,
        ..ClusterConfig::default()
    })
    .unwrap();
    let rt = cluster.client(0);
    let meta = MetadataClient::new(rt.client(), cluster.coordinator());
    meta.create_stream(stream_config(1, 2, 1, 2)).unwrap();

    let producer = Producer::new(&meta, &[StreamId(1)], producer_config(3)).unwrap();
    let n = 3_000u64;
    for i in 0..n {
        producer.send(StreamId(1), &i.to_le_bytes()).unwrap();
    }
    producer.flush().unwrap();

    let consumer = Consumer::new(
        &meta,
        &[Subscription::whole_stream(StreamId(1))],
        consumer_config(0),
    )
    .unwrap();
    // Per (streamlet, slot): base offsets strictly increase and record
    // values (round-robin: value i goes to streamlet i % 2) are ordered.
    let mut last_value: HashMap<(StreamletId, u32), u64> = HashMap::new();
    let mut seen = 0u64;
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while seen < n && std::time::Instant::now() < deadline {
        let Some(batch) = consumer.next_batch(Duration::from_millis(100)) else { continue };
        let key = (batch.streamlet, batch.slot);
        batch
            .for_each_record(|_chunk, rec| {
                let v = u64::from_le_bytes(rec.value().try_into().unwrap());
                if let Some(&prev) = last_value.get(&key) {
                    assert!(v > prev, "order violated in {key:?}: {prev} then {v}");
                }
                last_value.insert(key, v);
                seen += 1;
            })
            .unwrap();
    }
    assert_eq!(seen, n);
    producer.close().unwrap();
    consumer.close();
    cluster.shutdown();
}

#[test]
fn kera_linger_pushes_partial_chunks() {
    let cluster = KeraCluster::start(ClusterConfig {
        brokers: 1,
        worker_threads: 2,
        ..ClusterConfig::default()
    })
    .unwrap();
    let rt = cluster.client(0);
    let meta = MetadataClient::new(rt.client(), cluster.coordinator());
    meta.create_stream(stream_config(1, 1, 1, 1)).unwrap();

    let producer = Producer::new(&meta, &[StreamId(1)], producer_config(0)).unwrap();
    let consumer = Consumer::new(
        &meta,
        &[Subscription::whole_stream(StreamId(1))],
        consumer_config(0),
    )
    .unwrap();
    // 3 records (~336 bytes) nowhere near the 1 KB chunk size; no flush.
    for _ in 0..3 {
        producer.send(StreamId(1), &[1u8; 100]).unwrap();
    }
    // The linger (1 ms) must push them without an explicit flush.
    let consumed = consume_all(&consumer, 3);
    assert_eq!(consumed, 3);
    producer.close().unwrap();
    consumer.close();
    cluster.shutdown();
}

/// A consumer nobody polls fills its cache and its requests thread blocks
/// on the push; closing it must get that thread out without anyone
/// draining the cache.
#[test]
fn closing_a_consumer_with_a_full_cache_returns() {
    let cluster =
        KeraCluster::start(ClusterConfig { brokers: 2, ..ClusterConfig::default() }).unwrap();
    let rt = cluster.client(0);
    let meta = MetadataClient::new(rt.client(), cluster.coordinator());
    meta.create_stream(stream_config(1, 2, 1, 1)).unwrap();
    let producer = Producer::new(&meta, &[StreamId(1)], producer_config(0)).unwrap();
    for _ in 0..2_000 {
        producer.send(StreamId(1), &[0x5au8; 100]).unwrap();
    }
    producer.close().unwrap();

    // ~230 chunks of 1 KB fetched at most four at a time into a cache of
    // two batches: the third push blocks.
    let consumer = Consumer::new(
        &meta,
        &[Subscription::whole_stream(StreamId(1))],
        ConsumerConfig { cache_capacity: 2, ..consumer_config(0) },
    )
    .unwrap();
    let first = consumer.next_batch(Duration::from_secs(10)).expect("nothing was fetched");
    assert!(first.record_count().unwrap() > 0);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        consumer.close();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10)).expect("close did not return with the cache full");
}

#[test]
fn kera_keyed_records_stay_in_one_streamlet() {
    let cluster = KeraCluster::start(ClusterConfig {
        brokers: 2,
        worker_threads: 2,
        ..ClusterConfig::default()
    })
    .unwrap();
    let rt = cluster.client(0);
    let meta = MetadataClient::new(rt.client(), cluster.coordinator());
    meta.create_stream(stream_config(1, 4, 1, 1)).unwrap();

    let mut cfg = producer_config(0);
    cfg.partitioner = kera_client::Partitioner::ByKey;
    let producer = Producer::new(&meta, &[StreamId(1)], cfg).unwrap();
    for i in 0..200u32 {
        producer.send_keyed(StreamId(1), b"the-one-key", &i.to_le_bytes()).unwrap();
    }
    producer.flush().unwrap();

    let consumer = Consumer::new(
        &meta,
        &[Subscription::whole_stream(StreamId(1))],
        consumer_config(0),
    )
    .unwrap();
    let mut streamlets = std::collections::HashSet::new();
    let mut seen = 0;
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while seen < 200 && std::time::Instant::now() < deadline {
        let Some(batch) = consumer.next_batch(Duration::from_millis(100)) else { continue };
        streamlets.insert(batch.streamlet);
        batch
            .for_each_record(|_, rec| {
                assert_eq!(rec.key(0).unwrap(), b"the-one-key");
                seen += 1;
            })
            .unwrap();
    }
    assert_eq!(seen, 200);
    assert_eq!(streamlets.len(), 1, "one key must land in one streamlet");
    producer.close().unwrap();
    consumer.close();
    cluster.shutdown();
}

#[test]
fn kafka_roundtrip_same_client_stack() {
    let cluster = KafkaCluster::start(
        ClusterConfig { brokers: 3, worker_threads: 4, ..ClusterConfig::default() },
        KafkaTuning { fetch_wait: Duration::from_millis(50), ..KafkaTuning::default() },
    )
    .unwrap();
    let prod_rt = cluster.client(0);
    let cons_rt = cluster.client(1);
    let meta_p = MetadataClient::new(prod_rt.client(), cluster.coordinator());
    let meta_c = MetadataClient::new(cons_rt.client(), cluster.coordinator());

    meta_p.create_stream(stream_config(1, 3, 1, 3)).unwrap();

    let producer = Producer::new(&meta_p, &[StreamId(1)], producer_config(0)).unwrap();
    let consumer = Consumer::new(
        &meta_c,
        &[Subscription::whole_stream(StreamId(1))],
        consumer_config(0),
    )
    .unwrap();

    let n = 5_000u64;
    for i in 0..n {
        producer.send(StreamId(1), &i.to_le_bytes()).unwrap();
    }
    producer.flush().unwrap();
    assert_eq!(producer.metrics().items(), n);
    assert_eq!(producer.failed_requests(), 0);

    let consumed = consume_all(&consumer, n);
    assert_eq!(consumed, n);
    producer.close().unwrap();
    consumer.close();
    cluster.shutdown();
}

#[test]
fn kafka_acked_equals_consumed_under_concurrency() {
    let cluster = KafkaCluster::start(
        ClusterConfig { brokers: 2, worker_threads: 8, ..ClusterConfig::default() },
        KafkaTuning { fetch_wait: Duration::from_millis(20), ..KafkaTuning::default() },
    )
    .unwrap();
    let meta_rt = cluster.client(10);
    let meta = MetadataClient::new(meta_rt.client(), cluster.coordinator());
    meta.create_stream(stream_config(7, 4, 1, 2)).unwrap();

    // Two producers, one consumer, concurrent.
    let mut producers = Vec::new();
    let mut rts = Vec::new();
    for p in 0..2u32 {
        let rt = cluster.client(p);
        let m = MetadataClient::new(rt.client(), cluster.coordinator());
        producers.push(Producer::new(&m, &[StreamId(7)], producer_config(p)).unwrap());
        rts.push(rt);
    }
    let cons_rt = cluster.client(5);
    let meta_c = MetadataClient::new(cons_rt.client(), cluster.coordinator());
    let consumer = Consumer::new(
        &meta_c,
        &[Subscription::whole_stream(StreamId(7))],
        consumer_config(0),
    )
    .unwrap();

    let per_producer = 2_000u64;
    std::thread::scope(|s| {
        for p in &producers {
            s.spawn(move || {
                for i in 0..per_producer {
                    p.send(StreamId(7), &i.to_le_bytes()).unwrap();
                }
                p.flush().unwrap();
            });
        }
    });
    let total: u64 = producers.iter().map(|p| p.metrics().items()).sum();
    assert_eq!(total, 2 * per_producer);
    let consumed = consume_all(&consumer, total);
    assert_eq!(consumed, total);
    for p in producers {
        p.close().unwrap();
    }
    consumer.close();
    cluster.shutdown();
}
