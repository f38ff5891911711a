//! In-process Kafka-style cluster assembly.
//!
//! The nodes boot on a [`Fabric`], the skeleton KerA boots on too, so the
//! same client stack talks to both systems over the same node ids,
//! transport and fault plan: brokers first, then the coordinator. A
//! broker is one node: its followers fetch from the runtime its clients
//! call.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use kera_common::config::ClusterConfig;
use kera_common::Result;
use kera_rpc::Fabric;

pub use kera_rpc::fabric::{broker_node, COORDINATOR};

use crate::broker::{KafkaBrokerService, KafkaTuning, TopicStore};
use crate::coordinator::KafkaCoordinator;
use crate::fetcher::FetcherRunner;

/// A running in-process Kafka-style cluster. Everything both systems
/// share (network, nodes, clients, metrics, crashes) is on the
/// [`Fabric`] it dereferences to.
pub struct KafkaCluster {
    fabric: Fabric,
    fetchers: Vec<Arc<FetcherRunner>>,
    pub coordinator_svc: Arc<KafkaCoordinator>,
    pub broker_svcs: Vec<Arc<KafkaBrokerService>>,
    pub stores: Vec<Arc<TopicStore>>,
}

impl KafkaCluster {
    pub fn start(config: ClusterConfig, tuning: KafkaTuning) -> Result<KafkaCluster> {
        let mut fabric = Fabric::new(config.clone())?;
        let b = config.brokers;
        let mut stores = Vec::with_capacity(b as usize);
        let mut broker_svcs = Vec::with_capacity(b as usize);
        let mut fetchers = Vec::with_capacity(b as usize);

        for i in 0..b {
            let (broker_svc, client) = fabric.boot(broker_node(i), config.worker_threads, |obs| {
                Ok(KafkaBrokerService::new(TopicStore::new_with_obs(broker_node(i), tuning, obs)))
            })?;
            let obs = Arc::clone(client.obs());
            let fetcher = FetcherRunner::new(
                broker_node(i),
                client,
                Arc::clone(&broker_svc),
                config.flush_dir.as_ref().map(|d| d.join(format!("broker-{i}"))),
                obs.registry(),
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

            stores.push(Arc::clone(broker_svc.store()));
            broker_svcs.push(broker_svc);
            fetchers.push(fetcher);
        }

        let broker_ids = fabric.brokers();
        let (coordinator_svc, client) =
            fabric.boot(COORDINATOR, 2, |_| Ok(KafkaCoordinator::new(COORDINATOR, broker_ids)))?;
        coordinator_svc.attach_client(client);

        Ok(KafkaCluster { fabric, fetchers, coordinator_svc, broker_svcs, stores })
    }

    /// Orderly shutdown of every node (what dropping the cluster does).
    pub fn shutdown(self) {}
}

impl Deref for KafkaCluster {
    type Target = Fabric;
    fn deref(&self) -> &Fabric {
        &self.fabric
    }
}

impl DerefMut for KafkaCluster {
    fn deref_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }
}

impl Drop for KafkaCluster {
    fn drop(&mut self) {
        // Nodes first: a fetcher waiting for a fetch its leader keeps in
        // the purgatory fails at once instead of at `fetch_wait`. The
        // fetchers hold self-referential Arcs and would otherwise live,
        // and pin broker state, forever.
        self.fabric.teardown();
        for f in &self.fetchers {
            f.shutdown();
        }
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
        // Topic R3 on a 3-broker cluster, then crash both followers before
        // producing. Produce must time out; nothing readable.
        let cfg = ClusterConfig { brokers: 3, ..ClusterConfig::default() };
        let tuning =
            KafkaTuning { ack_timeout: Duration::from_millis(300), ..KafkaTuning::default() };
        let mut cluster = KafkaCluster::start(cfg, tuning).unwrap();
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
                cluster.crash(broker_node(i));
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
