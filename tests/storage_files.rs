//! The bytes on disk are the bytes replicated: with `flush_dir` set, a
//! KerA backup writes each closed virtual segment to its own file and a
//! Kafka replica, leader or follower, appends every batch to its
//! partition's files. Both are read back after the cluster has shut down
//! (every writer joined) and held to what the nodes replicated in memory.

use std::path::{Path, PathBuf};
use std::time::Duration;

use kera::broker::cluster::{backup_node, broker_node};
use kera::broker::KeraCluster;
use kera::client::producer::{Producer, ProducerConfig};
use kera::client::MetadataClient;
use kera::common::config::{ClusterConfig, ReplicationConfig, StreamConfig, VirtualLogPolicy};
use kera::common::ids::{ProducerId, StreamId, StreamletId};
use kera::kafka_sim::broker::KafkaTuning;
use kera::kafka_sim::KafkaCluster;
use kera::wire::frames::OpCode;
use kera::wire::messages::{RecoveryEnumerateRequest, RecoveryEnumerateResponse, RecoveryReadRequest};

const T: Duration = Duration::from_secs(10);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kera-files-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn r3(streamlets: u32) -> StreamConfig {
    StreamConfig {
        id: StreamId(1),
        streamlets,
        active_groups: 1,
        segments_per_group: 8,
        segment_size: 1 << 16,
        replication: ReplicationConfig {
            factor: 3,
            policy: VirtualLogPolicy::SharedPerBroker(2),
            vseg_size: 1 << 16,
        },
    }
}

/// Sends `n` 100-byte records and waits until every one is acknowledged.
fn produce(meta: &MetadataClient, n: u64) {
    let producer = Producer::new(
        meta,
        &[StreamId(1)],
        ProducerConfig { id: ProducerId(0), chunk_size: 1024, ..ProducerConfig::default() },
    )
    .unwrap();
    for i in 0..n {
        producer.send(StreamId(1), &[i as u8; 100]).unwrap();
    }
    producer.flush().unwrap();
    assert_eq!(producer.metrics().items(), n);
    producer.close().unwrap();
}

/// Every file under `dir`, as paths relative to it.
fn files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut todo = vec![dir.to_path_buf()];
    while let Some(d) = todo.pop() {
        for e in std::fs::read_dir(&d).unwrap() {
            let path = e.unwrap().path();
            if path.is_dir() {
                todo.push(path);
            } else {
                out.push(path.strip_prefix(dir).unwrap().to_path_buf());
            }
        }
    }
    out.sort();
    out
}

#[test]
fn kera_backup_files_are_what_recovery_reads() {
    let dir = scratch("kera");
    let cluster = KeraCluster::start(ClusterConfig {
        brokers: 3,
        worker_threads: 2,
        flush_dir: Some(dir.clone()),
        ..ClusterConfig::default()
    })
    .unwrap();
    let rt = cluster.client(0);
    let meta = MetadataClient::new(rt.client(), cluster.coordinator());
    meta.create_stream(r3(3)).unwrap();
    // ~2 MB through 64-KB virtual segments: dozens close on every backup.
    produce(&meta, 20_000);

    // What each backup replicated, read back over RPC while it is up:
    // `node-<backup>/broker<b>/vlog<v>/vseg<s>.seg` → that segment's bytes.
    let client = rt.client();
    let mut expected = Vec::new();
    for i in 0..3 {
        for b in 0..3 {
            let source = broker_node(b);
            let req = RecoveryEnumerateRequest { crashed_broker: source };
            let held = client.call(backup_node(i), OpCode::RecoveryEnumerate, req.encode(), T);
            let held = RecoveryEnumerateResponse::decode(&held.unwrap()).unwrap();
            for seg in held.segments.into_iter().filter(|s| s.closed) {
                let (vlog, vseg) = (seg.vlog, seg.vseg);
                let req = RecoveryReadRequest { crashed_broker: source, vlog, vseg };
                let bytes = client.call(backup_node(i), OpCode::RecoveryRead, req.encode(), T);
                let name = format!(
                    "node-{}/broker{}/vlog{}/vseg{}.seg",
                    backup_node(i).raw(),
                    source.raw(),
                    seg.vlog.raw(),
                    seg.vseg.raw()
                );
                expected.push((PathBuf::from(name), bytes.unwrap()));
            }
        }
    }
    drop(rt);
    cluster.shutdown();

    expected.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(expected.len() >= 6, "only {} closed segments", expected.len());
    let names: Vec<PathBuf> = expected.iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(files(&dir), names, "one file per closed segment, nothing else");
    for (name, bytes) in &expected {
        let on_disk = std::fs::read(dir.join(name)).unwrap();
        assert!(on_disk == bytes[..], "{} differs from its RecoveryRead", name.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kafka_replica_files_are_their_logs() {
    let dir = scratch("kafka");
    let config = ClusterConfig {
        brokers: 3,
        worker_threads: 2,
        flush_dir: Some(dir.clone()),
        ..ClusterConfig::default()
    };
    let cluster = KafkaCluster::start(config, KafkaTuning::default()).unwrap();
    let rt = cluster.client(0);
    let meta = MetadataClient::new(rt.client(), cluster.coordinator());
    // 64-KB segments: ~0.7 MB per partition rolls each replica's file.
    meta.create_stream(r3(3)).unwrap();
    produce(&meta, 20_000);
    let (stores, nodes) = (cluster.stores.clone(), cluster.node_obs().to_vec());
    drop(rt);
    cluster.shutdown();

    // `node-<broker>/1-<p>/<first byte's offset>.log`, in name order, is
    // the replica's log, leaders included.
    let (mut replicas, mut rolled, mut most) = (0, 0, 0);
    for (i, store) in stores.iter().enumerate() {
        for p in 0..3 {
            let log = store.replica(StreamId(1), StreamletId(p)).unwrap();
            let part = dir.join(format!("node-{}/1-{p}", broker_node(i as u32).raw()));
            let names = files(&part);
            let on_disk: Vec<u8> =
                names.iter().flat_map(|n| std::fs::read(part.join(n)).unwrap()).collect();
            let in_memory = log.read_chunks(0, usize::MAX, log.leo());
            assert!(!in_memory.is_empty(), "replica {i} of partition {p} holds nothing");
            assert!(on_disk == in_memory, "{} differs from its log", part.display());
            replicas += 1;
            rolled += names.len() - 1;
            most = most.max(names.len());
        }
    }
    assert_eq!(replicas, 9, "R3 on 3 partitions: a leader and two followers each");
    assert!(most > 1, "no partition rolled its file");
    let count = |name| -> u64 {
        nodes.iter().map(|obs| obs.registry().snapshot().counter_sum(name, &[])).sum()
    };
    assert_eq!(count("kera.storage.syncs"), rolled as u64, "one sync per rolled file");
    assert_eq!(count("kera.storage.errors"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn both_clusters_refuse_a_spun_io_cost() {
    let cfg = || ClusterConfig { brokers: 3, io_cost_ns: 30_000, ..ClusterConfig::default() };
    assert!(KeraCluster::start(cfg()).is_err());
    assert!(KafkaCluster::start(cfg(), KafkaTuning::default()).is_err());
}
