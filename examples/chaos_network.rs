//! Chaos demo: run the full produce → replicate → consume pipeline over
//! a deliberately lossy network — drops, duplicates, delays and a
//! transient partition — and watch the RPC plane's retries, same-id
//! retransmissions and at-most-once dedup deliver every record anyway.
//!
//! ```sh
//! cargo run --release --example chaos_network
//! ```

use std::time::Duration;

use kera::broker::cluster::{backup_node, broker_node, KeraCluster};
use kera::client::consumer::{Consumer, ConsumerConfig, Subscription};
use kera::client::producer::{Producer, ProducerConfig};
use kera::client::{MetadataClient, Oracle};
use kera::common::config::{
    ClusterConfig, FaultProfile, ReplicationConfig, RetryPolicy, StreamConfig, VirtualLogPolicy,
};
use kera::common::ids::{ConsumerId, ProducerId, StreamId};

fn main() -> kera::common::Result<()> {
    // A 3-broker cluster whose fabric drops 5% of messages, duplicates
    // 2%, and delays 10% by up to 2 ms — on every link, deterministically
    // seeded. The retry policy retransmits every 250 ms under a 10 s
    // budget.
    let cluster = KeraCluster::start(ClusterConfig {
        brokers: 3,
        worker_threads: 4,
        faults: Some(FaultProfile {
            seed: 42,
            drop_rate: 0.05,
            duplicate_rate: 0.02,
            delay_rate: 0.10,
            max_delay: Duration::from_millis(2),
        }),
        retry: RetryPolicy {
            max_attempts: 40,
            attempt_timeout: Duration::from_millis(250),
            ..RetryPolicy::default()
        },
        ..ClusterConfig::default()
    })?;

    let admin_rt = cluster.client(0);
    let admin = MetadataClient::new(admin_rt.client(), cluster.coordinator());
    admin.create_stream(StreamConfig {
        id: StreamId(1),
        streamlets: 4,
        active_groups: 1,
        segments_per_group: 8,
        segment_size: 1 << 16,
        replication: ReplicationConfig {
            factor: 2,
            policy: VirtualLogPolicy::SharedPerBroker(2),
            vseg_size: 1 << 16,
        },
    })?;

    let prod_rt = cluster.client(1);
    let meta_p = MetadataClient::new(prod_rt.client(), cluster.coordinator());
    let producer = Producer::new(
        &meta_p,
        &[StreamId(1)],
        ProducerConfig {
            id: ProducerId(0),
            chunk_size: 512,
            linger: Duration::from_millis(1),
            ..ProducerConfig::default()
        },
    )?;

    let n = 3_000u64;
    let mut value = [0u8; 64];
    println!("producing {n} records through the lossy fabric...");
    let t0 = std::time::Instant::now();
    for i in 0..n {
        value[..8].copy_from_slice(&i.to_le_bytes());
        producer.send(StreamId(1), &value)?;
        if i % 50 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Mid-run: black-hole every broker→backup link for 1.2 s.
        // Replication stalls cluster-wide; the producer's flush below
        // rides it out via same-id retransmission.
        if i == n / 2 {
            let plan = cluster.fault_plan().expect("faults configured").clone();
            for b in 0..3 {
                for k in 0..3 {
                    plan.partition(broker_node(b), backup_node(k));
                }
            }
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(1200));
                plan.heal_all();
                println!("  [partition healed]");
            });
            println!("  [partitioned all brokers from all backups @ {:?}]", t0.elapsed());
        }
    }
    println!("  [send loop done @ {:?}]", t0.elapsed());
    producer.flush()?;
    println!("  [flush done @ {:?}]", t0.elapsed());
    let failed = producer.failed_requests();
    producer.close()?;

    let cons_rt = cluster.client(2);
    let meta_c = MetadataClient::new(cons_rt.client(), cluster.coordinator());
    let consumer = Consumer::new(
        &meta_c,
        &[Subscription::whole_stream(StreamId(1))],
        ConsumerConfig { id: ConsumerId(0), ..ConsumerConfig::default() },
    )?;
    let mut oracle = Oracle::default();
    oracle.expect(StreamId(1), ProducerId(0), n);
    let delivered = oracle.drain(&[&consumer], Duration::from_secs(30));
    consumer.close();

    let plan = cluster.fault_plan().unwrap();
    println!(
        "fabric injected: {} dropped, {} duplicated, {} delayed, {} black-holed",
        plan.dropped(),
        plan.duplicated(),
        plan.delayed(),
        plan.blocked(),
    );
    println!("{n} records produced ({failed} producer requests failed)");
    delivered?;
    assert_eq!(failed, 0, "producer exhausted retries");
    println!("no loss, no duplication — retries + at-most-once dedup held");
    cluster.shutdown();
    Ok(())
}
