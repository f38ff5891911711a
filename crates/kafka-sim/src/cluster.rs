//! In-process Kafka-style cluster assembly.
//!
//! Node id scheme (shared fabric layout with `kera_broker::cluster` so
//! the same client stack talks to both systems):
//! coordinator = 0, broker `i` = `1 + i`, replica service of broker `i` =
//! `3001 + i`, clients = `2001 + i`.

use std::collections::HashMap;
use std::sync::Arc;

use kera_common::config::ClusterConfig;
use kera_common::ids::NodeId;
use kera_common::knobs;
use kera_common::Result;
use kera_obs::{NodeObs, RegistrySnapshot};
use kera_rpc::{InMemNetwork, NodeRuntime, NullService};
use parking_lot::Mutex;

use crate::broker::{KafkaBrokerService, KafkaReplicaService, KafkaTuning, TopicStore};
use crate::coordinator::KafkaCoordinator;
use crate::fetcher::FetcherRunner;

pub const COORDINATOR: NodeId = NodeId(0);

pub const fn broker_node(i: u32) -> NodeId {
    NodeId(1 + i)
}

pub const fn replica_node(i: u32) -> NodeId {
    NodeId(3001 + i)
}

pub const fn client_node(i: u32) -> NodeId {
    NodeId(2001 + i)
}

/// A running in-process Kafka-style cluster.
pub struct KafkaCluster {
    pub net: InMemNetwork,
    config: ClusterConfig,
    coordinator_rt: Option<NodeRuntime>,
    broker_rts: Vec<Option<NodeRuntime>>,
    replica_rts: Vec<Option<NodeRuntime>>,
    fetchers: Vec<Arc<FetcherRunner>>,
    pub coordinator_svc: Arc<KafkaCoordinator>,
    pub broker_svcs: Vec<Arc<KafkaBrokerService>>,
    pub stores: Vec<Arc<TopicStore>>,
    node_obs: Vec<Arc<NodeObs>>,
    client_obs: Mutex<Vec<Arc<NodeObs>>>,
}

impl KafkaCluster {
    pub fn start(config: ClusterConfig, mut tuning: KafkaTuning) -> Result<KafkaCluster> {
        config.validate()?;
        // The cluster-level IO cost model applies unless the tuning
        // already sets one explicitly.
        if tuning.io_cost_ns == 0 {
            tuning.io_cost_ns = config.io_cost_ns;
        }
        let net = InMemNetwork::new(config.network);
        let b = config.brokers;
        let broker_ids: Vec<NodeId> = (0..b).map(broker_node).collect();
        let replica_node_of: HashMap<NodeId, NodeId> =
            (0..b).map(|i| (broker_node(i), replica_node(i))).collect();

        let mut stores = Vec::with_capacity(b as usize);
        let mut broker_svcs = Vec::with_capacity(b as usize);
        let mut broker_rts = Vec::with_capacity(b as usize);
        let mut replica_rts = Vec::with_capacity(b as usize);
        let mut fetchers = Vec::with_capacity(b as usize);

        let mut node_obs: Vec<Arc<NodeObs>> = Vec::new();
        let flightrec = knobs::FLIGHTREC.is_on();
        let make_obs = |id: NodeId| -> Arc<NodeObs> {
            let obs = NodeObs::new(id.raw(), config.observability);
            if flightrec {
                kera_obs::register_for_dump(obs.recorder());
            }
            obs
        };

        for i in 0..b {
            let broker_obs = make_obs(broker_node(i));
            let replica_obs = make_obs(replica_node(i));
            node_obs.push(Arc::clone(&broker_obs));
            node_obs.push(Arc::clone(&replica_obs));
            let store =
                TopicStore::new_with_obs(broker_node(i), tuning, Arc::clone(&broker_obs));
            let broker_svc = KafkaBrokerService::new(Arc::clone(&store), replica_node_of.clone());
            let replica_svc = KafkaReplicaService::new(Arc::clone(&store));

            let broker_rt = NodeRuntime::start_with_obs(
                Arc::new(net.register(broker_node(i))),
                Arc::clone(&broker_svc) as Arc<dyn kera_rpc::Service>,
                config.worker_threads,
                config.retry,
                broker_obs,
            );
            // The replica service gets its own small worker pool so
            // replication can never be starved by blocked produce workers.
            let replica_rt = NodeRuntime::start_with_obs(
                Arc::new(net.register(replica_node(i))),
                replica_svc as Arc<dyn kera_rpc::Service>,
                2.max(config.worker_threads / 2),
                config.retry,
                replica_obs,
            );

            let fetcher = FetcherRunner::new(
                broker_node(i),
                broker_rt.client(),
                Arc::clone(&broker_svc),
                tuning.fetch_max_bytes_per_partition,
                tuning.io_cost_ns,
            );
            {
                // Weak: the callback must not create a reference cycle
                // (service -> callback -> fetcher -> service) that would
                // pin every partition log forever.
                let f = Arc::downgrade(&fetcher);
                broker_svc.set_on_host(Box::new(move || {
                    if let Some(f) = f.upgrade() {
                        f.refresh();
                    }
                }));
            }

            stores.push(store);
            broker_svcs.push(broker_svc);
            broker_rts.push(Some(broker_rt));
            replica_rts.push(Some(replica_rt));
            fetchers.push(fetcher);
        }

        let coordinator_svc = KafkaCoordinator::new(COORDINATOR, broker_ids);
        let coordinator_obs = make_obs(COORDINATOR);
        node_obs.push(Arc::clone(&coordinator_obs));
        let coordinator_rt = NodeRuntime::start_with_obs(
            Arc::new(net.register(COORDINATOR)),
            Arc::clone(&coordinator_svc) as Arc<dyn kera_rpc::Service>,
            2,
            config.retry,
            coordinator_obs,
        );
        coordinator_svc.attach_client(coordinator_rt.client());

        Ok(KafkaCluster {
            net,
            config,
            coordinator_rt: Some(coordinator_rt),
            broker_rts,
            replica_rts,
            fetchers,
            coordinator_svc,
            broker_svcs,
            stores,
            node_obs,
            client_obs: Mutex::named("cluster.client_obs", Vec::new()),
        })
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    pub fn coordinator(&self) -> NodeId {
        COORDINATOR
    }

    /// The Kafka-sim coordinator is never replicated; this exists so
    /// replica-aware harness code treats both systems uniformly.
    pub fn coordinators(&self) -> Vec<NodeId> {
        vec![COORDINATOR]
    }

    pub fn brokers(&self) -> Vec<NodeId> {
        (0..self.config.brokers).map(broker_node).collect()
    }

    /// Registers a pure client node.
    pub fn client(&self, i: u32) -> NodeRuntime {
        let obs = NodeObs::new(client_node(i).raw(), self.config.observability);
        if knobs::FLIGHTREC.is_on() {
            kera_obs::register_for_dump(obs.recorder());
        }
        self.client_obs.lock().push(Arc::clone(&obs));
        NodeRuntime::start_with_obs(
            Arc::new(self.net.register(client_node(i))),
            Arc::new(NullService),
            1,
            self.config.retry,
            obs,
        )
    }

    /// Per-node observability handles (brokers, replicas, coordinator).
    pub fn node_obs(&self) -> &[Arc<NodeObs>] {
        &self.node_obs
    }

    /// Aggregated metrics across every node (and every client registered
    /// through [`KafkaCluster::client`]). Per-node `node` labels keep the
    /// merged keys disjoint.
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        let mut snap = RegistrySnapshot::default();
        for obs in &self.node_obs {
            snap.merge(&obs.registry().snapshot());
        }
        for obs in self.client_obs.lock().iter() {
            snap.merge(&obs.registry().snapshot());
        }
        snap
    }

    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // Stop fetchers first so they don't spin against dead leaders.
        for f in &self.fetchers {
            f.shutdown();
        }
        if let Some(rt) = self.coordinator_rt.take() {
            rt.shutdown();
        }
        for rt in self.broker_rts.iter_mut().filter_map(Option::take) {
            rt.shutdown();
        }
        for rt in self.replica_rts.iter_mut().filter_map(Option::take) {
            rt.shutdown();
        }
    }
}

impl Drop for KafkaCluster {
    fn drop(&mut self) {
        // Idempotent: a cluster dropped on an error path still joins all
        // of its threads (the fetchers hold self-referential Arcs and
        // would otherwise live — and pin broker state — forever).
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use kera_common::config::{ReplicationConfig, StreamConfig, VirtualLogPolicy};
    use kera_common::ids::{ConsumerId, ProducerId, StreamId, StreamletId};
    use kera_wire::chunk::{ChunkBuilder, ChunkIter};
    use kera_wire::cursor::SlotCursor;
    use kera_wire::frames::OpCode;
    use kera_wire::messages::*;
    use kera_wire::record::Record;
    use std::time::Duration;

    const T: Duration = Duration::from_secs(10);

    fn topic(id: u32, partitions: u32, factor: u32) -> StreamConfig {
        StreamConfig {
            id: StreamId(id),
            streamlets: partitions,
            active_groups: 1,
            segments_per_group: 1,
            segment_size: 1 << 20,
            replication: ReplicationConfig {
                factor,
                // Ignored by kafka-sim (one log per partition, always).
                policy: VirtualLogPolicy::PerStreamlet,
                vseg_size: 1 << 20,
            },
        }
    }

    fn make_chunk(producer: u32, stream: u32, partition: u32, records: u32) -> Bytes {
        let mut b = ChunkBuilder::new(
            8192,
            ProducerId(producer),
            StreamId(stream),
            StreamletId(partition),
        );
        for i in 0..records {
            b.append(&Record::value_only(&[i as u8; 100]));
        }
        b.seal()
    }

    #[test]
    fn end_to_end_acks_all_roundtrip() {
        let cfg = ClusterConfig { brokers: 3, worker_threads: 4, ..ClusterConfig::default() };
        let tuning =
            KafkaTuning { fetch_wait: Duration::from_millis(100), ..KafkaTuning::default() };
        let cluster = KafkaCluster::start(cfg, tuning).unwrap();
        let client_rt = cluster.client(0);
        let client = client_rt.client();

        let md = StreamMetadata::decode(
            &client
                .call(
                    COORDINATOR,
                    OpCode::CreateStream,
                    CreateStreamRequest { config: topic(1, 3, 3) }.encode(),
                    T,
                )
                .unwrap(),
        )
        .unwrap();
        assert_eq!(md.placements.len(), 3);

        // Produce 2 chunks to partition 0's leader; acks=all must block
        // until both followers have pulled the data.
        let leader = md.broker_of(StreamletId(0)).unwrap();
        let chunks: Vec<Bytes> = (0..2).map(|_| make_chunk(1, 1, 0, 4)).collect();
        let mut body = Vec::new();
        for c in &chunks {
            body.extend_from_slice(c);
        }
        let resp = ProduceResponse::decode(
            &client
                .call(
                    leader,
                    OpCode::Produce,
                    ProduceRequest {
                        producer: ProducerId(1),
                        recovery: false,
                        chunk_count: 2,
                        chunks: Bytes::from(body),
                    }
                    .encode(),
                    T,
                )
                .unwrap(),
        )
        .unwrap();
        assert_eq!(resp.acks.len(), 2);
        assert_eq!(resp.acks[0].base_offset, 0);
        assert_eq!(resp.acks[1].base_offset, 4);

        // Both followers hold a copy.
        let chunk_bytes: usize = chunks.iter().map(|c| c.len()).sum();
        let mut follower_bytes = 0usize;
        for store in &cluster.stores {
            if store.node() != leader {
                if let Ok(replica) = store.replica(StreamId(1), StreamletId(0)) {
                    follower_bytes += replica.leo() as usize;
                }
            }
        }
        assert_eq!(follower_bytes, 2 * chunk_bytes);

        // Consumer fetch sees exactly the acknowledged data.
        let fr = FetchResponse::decode_bytes(
            &client
                .call(
                    leader,
                    OpCode::Fetch,
                    FetchRequest {
                        consumer: ConsumerId(0),
                        entries: vec![FetchEntry {
                            stream: StreamId(1),
                            streamlet: StreamletId(0),
                            slot: 0,
                            cursor: SlotCursor::START,
                            max_bytes: 1 << 20,
                        }],
                    }
                    .encode(),
                    T,
                )
                .unwrap(),
        )
        .unwrap();
        let got: Vec<_> =
            ChunkIter::new(&fr.results[0].data).collect::<kera_common::Result<_>>().unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got.iter().map(|c| c.records().count()).sum::<usize>(), 8);
        cluster.shutdown();
    }

    #[test]
    fn factor_above_broker_count_is_rejected() {
        let cfg = ClusterConfig { brokers: 2, ..ClusterConfig::default() };
        let cluster = KafkaCluster::start(cfg, KafkaTuning::default()).unwrap();
        let client_rt = cluster.client(0);
        let err = client_rt
            .client()
            .call(
                COORDINATOR,
                OpCode::CreateStream,
                CreateStreamRequest { config: topic(1, 1, 3) }.encode(),
                T,
            )
            .unwrap_err();
        assert!(matches!(err, kera_common::KeraError::NoCapacity(_)));
        cluster.shutdown();
    }

    #[test]
    fn r1_topic_needs_no_followers() {
        let cfg = ClusterConfig { brokers: 2, ..ClusterConfig::default() };
        let cluster = KafkaCluster::start(cfg, KafkaTuning::default()).unwrap();
        let client_rt = cluster.client(0);
        let client = client_rt.client();
        let md = StreamMetadata::decode(
            &client
                .call(
                    COORDINATOR,
                    OpCode::CreateStream,
                    CreateStreamRequest { config: topic(1, 2, 1) }.encode(),
                    T,
                )
                .unwrap(),
        )
        .unwrap();
        let leader = md.broker_of(StreamletId(0)).unwrap();
        let c = make_chunk(0, 1, 0, 3);
        let resp = ProduceResponse::decode(
            &client
                .call(
                    leader,
                    OpCode::Produce,
                    ProduceRequest {
                        producer: ProducerId(0),
                        recovery: false,
                        chunk_count: 1,
                        chunks: c,
                    }
                    .encode(),
                    T,
                )
                .unwrap(),
        )
        .unwrap();
        assert_eq!(resp.acks.len(), 1);
        cluster.shutdown();
    }

    #[test]
    fn consumers_cannot_read_above_high_watermark() {
        // Kill the followers' fetchers by never creating them: topic R3
        // on a 3-broker cluster, then crash the follower replica services
        // before producing. Produce must time out; nothing readable.
        let cfg = ClusterConfig { brokers: 3, ..ClusterConfig::default() };
        let tuning =
            KafkaTuning { ack_timeout: Duration::from_millis(300), ..KafkaTuning::default() };
        let cluster = KafkaCluster::start(cfg, tuning).unwrap();
        let client_rt = cluster.client(0);
        let client = client_rt.client();
        let md = StreamMetadata::decode(
            &client
                .call(
                    COORDINATOR,
                    OpCode::CreateStream,
                    CreateStreamRequest { config: topic(1, 1, 3) }.encode(),
                    T,
                )
                .unwrap(),
        )
        .unwrap();
        let leader = md.broker_of(StreamletId(0)).unwrap();
        // Crash the two follower brokers (their fetchers die with them).
        for i in 0..3 {
            if broker_node(i) != leader {
                cluster.net.crash(broker_node(i));
            }
        }
        std::thread::sleep(Duration::from_millis(50));
        let c = make_chunk(0, 1, 0, 2);
        let err = client
            .call(
                leader,
                OpCode::Produce,
                ProduceRequest {
                    producer: ProducerId(0),
                    recovery: false,
                    chunk_count: 1,
                    chunks: c,
                }
                .encode(),
                T,
            )
            .unwrap_err();
        assert!(matches!(err, kera_common::KeraError::Protocol(_)), "got {err}");
        let fr = FetchResponse::decode_bytes(
            &client
                .call(
                    leader,
                    OpCode::Fetch,
                    FetchRequest {
                        consumer: ConsumerId(0),
                        entries: vec![FetchEntry {
                            stream: StreamId(1),
                            streamlet: StreamletId(0),
                            slot: 0,
                            cursor: SlotCursor::START,
                            max_bytes: 1 << 20,
                        }],
                    }
                    .encode(),
                    T,
                )
                .unwrap(),
        )
        .unwrap();
        assert!(fr.results[0].data.is_empty());
        cluster.shutdown();
    }
}
