//! Unit tests for the coordinator placement logic and the fetcher's
//! consolidation behaviour (cluster-level paths are covered by
//! `cluster::tests` and the cross-crate integration suites).

use std::sync::Arc;
use std::time::Duration;

use kera_common::config::{ClusterConfig, ReplicationConfig, StreamConfig, VirtualLogPolicy};
use kera_common::ids::{NodeId, ProducerId, StreamId, StreamletId};
use kera_rpc::{InMemNetwork, NodeRuntime, NullService};
use kera_wire::frames::OpCode;
use kera_wire::messages::{CreateStreamRequest, ReplicaRole, StreamMetadata};

use crate::broker::KafkaTuning;
use crate::cluster::{broker_node, KafkaCluster, COORDINATOR};
use crate::coordinator::KafkaCoordinator;

fn topic(id: u32, partitions: u32, factor: u32) -> StreamConfig {
    StreamConfig {
        id: StreamId(id),
        streamlets: partitions,
        active_groups: 1,
        segments_per_group: 1,
        segment_size: 1 << 20,
        replication: ReplicationConfig {
            factor,
            policy: VirtualLogPolicy::PerStreamlet,
            vseg_size: 1 << 20,
        },
    }
}

/// A coordinator with stub brokers that accept HostStream silently.
struct AcceptAll;
impl kera_rpc::Service for AcceptAll {
    fn handle(
        &self,
        _ctx: &kera_rpc::RequestContext,
        _payload: bytes::Bytes,
    ) -> kera_common::Result<bytes::Bytes> {
        Ok(bytes::Bytes::new())
    }
}

fn coordinator_fixture(
    brokers: u32,
) -> (InMemNetwork, Vec<NodeRuntime>, NodeRuntime, NodeRuntime) {
    let net = InMemNetwork::new();
    let broker_rts: Vec<NodeRuntime> = (0..brokers)
        .map(|i| {
            NodeRuntime::start(Arc::new(net.register(broker_node(i))), Arc::new(AcceptAll), 1)
        })
        .collect();
    let svc = KafkaCoordinator::new(COORDINATOR, (0..brokers).map(broker_node).collect());
    let coord_rt = NodeRuntime::start(
        Arc::new(net.register(COORDINATOR)),
        Arc::clone(&svc) as Arc<dyn kera_rpc::Service>,
        2,
    );
    svc.attach_client(coord_rt.client());
    let client_rt =
        NodeRuntime::start(Arc::new(net.register(NodeId(5000))), Arc::new(NullService), 1);
    (net, broker_rts, coord_rt, client_rt)
}

#[test]
fn leader_placement_is_round_robin() {
    let (_net, _brokers, _coord, client) = coordinator_fixture(3);
    let md = StreamMetadata::decode(
        &client
            .client()
            .call(
                COORDINATOR,
                OpCode::CreateStream,
                CreateStreamRequest { config: topic(1, 6, 2) }.encode(),
                Duration::from_secs(2),
            )
            .unwrap(),
    )
    .unwrap();
    let leaders: Vec<u32> = md.placements.iter().map(|p| p.broker.raw()).collect();
    // Partition i -> broker 1 + (i mod 3).
    assert_eq!(leaders, vec![1, 2, 3, 1, 2, 3]);
}

#[test]
fn metadata_survives_and_duplicates_rejected() {
    let (_net, _brokers, _coord, client) = coordinator_fixture(2);
    let c = client.client();
    c.call(
        COORDINATOR,
        OpCode::CreateStream,
        CreateStreamRequest { config: topic(7, 2, 1) }.encode(),
        Duration::from_secs(2),
    )
    .unwrap();
    // Lookup works.
    let md = StreamMetadata::decode(
        &c.call(
            COORDINATOR,
            OpCode::GetMetadata,
            kera_wire::messages::GetMetadataRequest { stream: StreamId(7) }.encode(),
            Duration::from_secs(2),
        )
        .unwrap(),
    )
    .unwrap();
    assert_eq!(md.config.id, StreamId(7));
    // Duplicate create fails.
    assert!(c
        .call(
            COORDINATOR,
            OpCode::CreateStream,
            CreateStreamRequest { config: topic(7, 2, 1) }.encode(),
            Duration::from_secs(2),
        )
        .is_err());
}

#[test]
fn follower_ring_wraps_and_never_includes_leader() {
    // Use a real cluster so HostStream assignments are applied, then
    // inspect the stores.
    let cluster = KafkaCluster::start(
        ClusterConfig { brokers: 4, worker_threads: 2, ..ClusterConfig::default() },
        KafkaTuning { fetch_wait: Duration::from_millis(20), ..KafkaTuning::default() },
    )
    .unwrap();
    let rt = cluster.client(0);
    rt.client()
        .call(
            COORDINATOR,
            OpCode::CreateStream,
            CreateStreamRequest { config: topic(1, 4, 3) }.encode(),
            Duration::from_secs(5),
        )
        .unwrap();
    // Every broker hosts its leader partitions plus follower copies; a
    // partition's replicas live on 3 distinct brokers.
    for p in 0..4u32 {
        let holders: Vec<u32> = (0..4)
            .filter(|&b| {
                cluster.stores[b as usize].replica(StreamId(1), StreamletId(p)).is_ok()
            })
            .collect();
        assert_eq!(holders.len(), 3, "partition {p} must have 3 replicas: {holders:?}");
    }
    // Leaders match placement.
    for (i, store) in cluster.stores.iter().enumerate() {
        for p in 0..4u32 {
            if let Ok(replica) = store.replica(StreamId(1), StreamletId(p)) {
                let is_leader = matches!(replica.role(), crate::partition::Role::Leader);
                assert_eq!(is_leader, p as usize % 4 == i);
            }
        }
    }
    cluster.shutdown();
}

#[test]
fn fetchers_replicate_and_hw_advances_without_producers_waiting() {
    // acks=1 style check: R2 topic; produce with factor 2 blocks until
    // the fetcher has pulled — verify the fetcher alone (no consumer
    // traffic) advances replication.
    let cluster = KafkaCluster::start(
        ClusterConfig { brokers: 2, worker_threads: 2, ..ClusterConfig::default() },
        KafkaTuning { fetch_wait: Duration::from_millis(20), ..KafkaTuning::default() },
    )
    .unwrap();
    let rt = cluster.client(0);
    let client = rt.client();
    client
        .call(
            COORDINATOR,
            OpCode::CreateStream,
            CreateStreamRequest { config: topic(1, 1, 2) }.encode(),
            Duration::from_secs(5),
        )
        .unwrap();
    let mut b = kera_wire::chunk::ChunkBuilder::new(
        2048,
        ProducerId(0),
        StreamId(1),
        StreamletId(0),
    );
    b.append(&kera_wire::record::Record::value_only(&[1u8; 64]));
    let chunk = b.seal();
    let req = kera_wire::messages::ProduceRequest {
        producer: ProducerId(0),
        recovery: false,
        chunk_count: 1,
        chunks: chunk.clone(),
    };
    // This produce only acks once the follower pulled the data.
    client
        .call(broker_node(0), OpCode::Produce, req.encode(), Duration::from_secs(5))
        .unwrap();
    let leader = cluster.stores[0].replica(StreamId(1), StreamletId(0)).unwrap();
    assert_eq!(leader.high_watermark(), leader.leo());
    let follower = cluster.stores[1].replica(StreamId(1), StreamletId(0)).unwrap();
    assert_eq!(follower.leo(), leader.leo(), "follower holds the full log");
    cluster.shutdown();
}

/// A follower fetch cannot sleep through the append it waits for. Before
/// the purgatory, the replica service's fetch handler read its partitions
/// (finding nothing new) and only then took `data_lock` to wait on
/// `data_cv`: a produce whose append and `notify_appends` fell between
/// that read and that lock left the fetch asleep for the whole
/// `fetch_wait`, and the produce waited in `wait_hw` for the position that
/// fetch would have reported. With `fetch_wait` at 5 s, such a produce
/// takes 5 s here.
#[test]
fn acks_all_produces_never_wait_out_a_fetch_that_missed_their_append() {
    let cluster = KafkaCluster::start(
        ClusterConfig { brokers: 2, worker_threads: 2, ..ClusterConfig::default() },
        KafkaTuning { fetch_wait: Duration::from_secs(5), ..KafkaTuning::default() },
    )
    .unwrap();
    let rt = cluster.client(0);
    let client = rt.client();
    client
        .call(
            COORDINATOR,
            OpCode::CreateStream,
            CreateStreamRequest { config: topic(1, 1, 2) }.encode(),
            Duration::from_secs(5),
        )
        .unwrap();
    for i in 0..200u32 {
        let mut b = kera_wire::chunk::ChunkBuilder::new(
            1024,
            ProducerId(0),
            StreamId(1),
            StreamletId(0),
        );
        b.append(&kera_wire::record::Record::value_only(&i.to_le_bytes()));
        let req = kera_wire::messages::ProduceRequest {
            producer: ProducerId(0),
            recovery: false,
            chunk_count: 1,
            chunks: b.seal(),
        };
        let started = std::time::Instant::now();
        client
            .call(broker_node(0), OpCode::Produce, req.encode(), Duration::from_secs(10))
            .unwrap();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "produce {i} took {took:?}");
    }
    cluster.shutdown();
}

#[test]
fn roles_are_reported() {
    use crate::partition::{PartitionLog, Role};
    let l = PartitionLog::new(StreamId(1), StreamletId(0), Role::Leader, 2, None);
    assert!(matches!(l.role(), Role::Leader));
    let f = PartitionLog::new(
        StreamId(1),
        StreamletId(0),
        Role::Follower { leader: NodeId(3) },
        2,
        None,
    );
    match f.role() {
        Role::Follower { leader } => assert_eq!(leader, NodeId(3)),
        _ => panic!("wrong role"),
    }
    // Appending to a follower as leader is rejected.
    let mut b = kera_wire::chunk::ChunkBuilder::new(
        1024,
        ProducerId(0),
        StreamId(1),
        StreamletId(0),
    );
    b.append(&kera_wire::record::Record::value_only(b"x"));
    let chunk = b.seal();
    assert!(f.append_leader(&chunk, 1).is_err());
}

#[test]
fn seek_finds_chunk_boundaries() {
    use crate::partition::{PartitionLog, Role};
    let log = PartitionLog::new(StreamId(1), StreamletId(0), Role::Leader, 1, None);
    let mut offsets = Vec::new();
    for i in 0..5u64 {
        let mut b = kera_wire::chunk::ChunkBuilder::new(
            1024,
            ProducerId(0),
            StreamId(1),
            StreamletId(0),
        );
        for _ in 0..10 {
            b.append(&kera_wire::record::Record::value_only(&[i as u8; 20]));
        }
        let chunk = b.seal();
        let before = log.leo();
        log.append_leader(&chunk, 10).unwrap();
        offsets.push(before);
    }
    assert_eq!(log.seek(0), Some(offsets[0]));
    assert_eq!(log.seek(9), Some(offsets[0]));
    assert_eq!(log.seek(10), Some(offsets[1]));
    assert_eq!(log.seek(25), Some(offsets[2]));
    assert_eq!(log.seek(49), Some(offsets[4]));
    assert_eq!(log.seek(1000), Some(offsets[4]), "clamps to last chunk");
    let empty = PartitionLog::new(StreamId(1), StreamletId(1), Role::Leader, 1, None);
    assert_eq!(empty.seek(0), None);
}

#[test]
fn host_assignment_roles_parse() {
    // ReplicaRole is exercised end-to-end elsewhere; keep the enum's
    // wire stability pinned here.
    assert_eq!(ReplicaRole::Leader as u8, 0);
    assert_eq!(ReplicaRole::Follower as u8, 1);
}

/// A follower fetch that finds no data waits in the purgatory until
/// `fetch_wait`, when its expiry — a timer on the broker's own node —
/// answers it empty and counts it in `kera.kafka.fetch_expired`.
#[test]
fn an_empty_follower_fetch_is_answered_empty_at_fetch_wait() {
    use crate::broker::{KafkaBrokerService, TopicStore};
    use crate::partition::Role;
    use kera_wire::messages::{FollowerFetchEntry, FollowerFetchRequest, FollowerFetchResponse};

    let net = InMemNetwork::new();
    let fetch_wait = Duration::from_millis(100);
    let store = TopicStore::new(broker_node(0), KafkaTuning { fetch_wait, ..KafkaTuning::default() });
    store.host_replica(StreamId(1), StreamletId(0), Role::Leader, 2, 1 << 20);
    let _broker = NodeRuntime::start(
        Arc::new(net.register(broker_node(0))),
        KafkaBrokerService::new(Arc::clone(&store)),
        1,
    );
    let follower =
        NodeRuntime::start(Arc::new(net.register(broker_node(1))), Arc::new(NullService), 1);
    let req = FollowerFetchRequest {
        follower: broker_node(1),
        max_bytes_per_partition: 1 << 20,
        entries: vec![FollowerFetchEntry {
            stream: StreamId(1),
            partition: StreamletId(0),
            fetch_offset: 0,
        }],
    };
    let started = std::time::Instant::now();
    let resp = follower
        .client()
        .call(broker_node(0), OpCode::FollowerFetch, req.encode(), Duration::from_secs(5))
        .unwrap();
    let took = started.elapsed();
    assert!(took >= fetch_wait, "answered after {took:?}");
    let resp = FollowerFetchResponse::decode_bytes(&resp).unwrap();
    assert_eq!(resp.results.len(), 1);
    assert!(resp.results[0].data.is_empty(), "an empty log answered with data");
    assert_eq!((store.fetch_expired.get(), store.follower_fetches.get()), (1, 1));
}
