//! The paper's motivating workload: hundreds of small streams ingested
//! durably through a handful of shared virtual logs (paper §I, Fig. 12).
//!
//! Four producers write over 128 one-partition streams with replication
//! factor 3; per-second cluster throughput is printed live, followed by
//! the replication consolidation statistics that explain the virtual
//! log's advantage: hundreds of partitions replicated with a few large
//! RPCs instead of thousands of tiny ones.
//!
//! ```sh
//! cargo run --release --example multi_stream_ingestion
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kera::broker::cluster::broker_node;
use kera::broker::KeraCluster;
use kera::client::producer::{Producer, ProducerConfig};
use kera::client::MetadataClient;
use kera::common::config::{ClusterConfig, ReplicationConfig, StreamConfig, VirtualLogPolicy};
use kera::common::ids::{ProducerId, StreamId};

const STREAMS: u32 = 128;
const PRODUCERS: u32 = 4;
const SECONDS: u64 = 5;

fn main() -> kera::common::Result<()> {
    let cluster = KeraCluster::start(ClusterConfig {
        brokers: 4,
        worker_threads: 3,
        ..ClusterConfig::default()
    })?;
    let admin_rt = cluster.client(100);
    let admin = MetadataClient::new(admin_rt.client(), cluster.coordinator());
    let streams: Vec<StreamId> = (1..=STREAMS).map(StreamId).collect();
    for &s in &streams {
        admin.create_stream(StreamConfig {
            id: s,
            streamlets: 1,
            active_groups: 1,
            segments_per_group: 16,
            segment_size: 1 << 20,
            replication: ReplicationConfig {
                factor: 3,
                // The replication-capacity dial: all 128 streams share 4
                // virtual logs per broker.
                policy: VirtualLogPolicy::SharedPerBroker(4),
                vseg_size: 1 << 20,
            },
        })?;
    }
    println!("{STREAMS} streams created, replication factor 3, 4 shared virtual logs per broker");

    let stop = Arc::new(AtomicBool::new(false));
    let mut producers = Vec::new();
    let mut rts = Vec::new();
    for p in 0..PRODUCERS {
        let rt = cluster.client(p);
        let meta = MetadataClient::new(rt.client(), cluster.coordinator());
        producers.push(Arc::new(Producer::new(
            &meta,
            &streams,
            ProducerConfig {
                id: ProducerId(p),
                chunk_size: 1024, // latency-optimized: small chunks
                linger: Duration::from_millis(1),
                ..ProducerConfig::default()
            },
        )?));
        rts.push(rt);
    }
    let sources: Vec<_> = producers
        .iter()
        .map(|producer| {
            let producer = Arc::clone(producer);
            let streams = streams.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let payload = [7u8; 100];
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let s = streams[i % streams.len()];
                    i += 1;
                    if producer.send(s, &payload).is_err() {
                        break;
                    }
                }
            })
        })
        .collect();

    for p in &producers {
        p.metrics().start_window();
    }
    for sec in 1..=SECONDS {
        std::thread::sleep(Duration::from_secs(1));
        let rate: f64 = producers.iter().filter_map(|p| p.metrics().rates().map(|(r, _)| r)).sum();
        println!("t={sec}s  cluster ingestion: {:.3} Mrec/s (cumulative avg)", rate / 1e6);
    }
    stop.store(true, Ordering::SeqCst);
    for s in sources {
        let _ = s.join();
    }

    // Replication consolidation: how many chunks each replication RPC
    // carried, per broker.
    println!("\nreplication consolidation (the virtual log effect):");
    let snap = cluster.metrics_snapshot();
    for (i, b) in cluster.broker_svcs.iter().enumerate() {
        let node = broker_node(i as u32).raw().to_string();
        let count = |name| snap.counter_sum(name, &[("node", &node)]);
        let batches = count("kera.vlog.batches_sent");
        let chunks = count("kera.vlog.chunks_replicated");
        let bytes = count("kera.vlog.bytes_replicated");
        if batches > 0 {
            println!(
                "  broker {i}: {chunks} chunks in {batches} replication RPCs \
                 ({:.1} chunks/RPC, {:.1} KB/RPC) across {} virtual logs",
                chunks as f64 / batches as f64,
                bytes as f64 / batches as f64 / 1024.0,
                b.vlogs().log_count(),
            );
        }
    }
    for p in producers {
        if let Ok(p) = Arc::try_unwrap(p) {
            let _ = p.close();
        }
    }
    cluster.shutdown();
    Ok(())
}
