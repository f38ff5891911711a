//! In-process cluster assembly.
//!
//! Mirrors the paper's deployment (§V-A): on each of `B` server nodes
//! live one broker service and one backup service; a coordinator manages
//! them. The nodes boot on a [`Fabric`], the skeleton the Kafka baseline
//! boots on too, in the order backups, brokers, coordinators. With
//! `ClusterConfig::coordinator.replicas > 1` the coordinator itself is
//! replicated (metadata log + leader election, DESIGN.md §10), and
//! clients resolve the leader via `RpcClient::call_leader`.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use kera_common::config::ClusterConfig;
use kera_common::ids::NodeId;
use kera_common::Result;
use kera_rpc::Fabric;
use kera_storage::flush::{DiskFlusher, FlushMetrics};

pub use kera_rpc::fabric::{backup_node, broker_node, client_node, coordinator_node, COORDINATOR};

use crate::backup::BackupService;
use crate::broker::BrokerService;
use crate::coordinator::CoordinatorService;

/// A running in-process KerA cluster. Everything both systems share
/// (network, nodes, clients, metrics, crashes) is on the [`Fabric`] it
/// dereferences to.
pub struct KeraCluster {
    fabric: Fabric,
    /// Coordinator replicas, in replica order (index 0 = node id 0).
    pub coordinator_svcs: Vec<Arc<CoordinatorService>>,
    pub broker_svcs: Vec<Arc<BrokerService>>,
    pub backup_svcs: Vec<Arc<BackupService>>,
}

impl KeraCluster {
    /// Boots backups, brokers and coordinators.
    pub fn start(config: ClusterConfig) -> Result<KeraCluster> {
        let mut fabric = Fabric::new(config.clone())?;
        let b = config.brokers;
        let broker_ids = fabric.brokers();
        let backup_ids: Vec<NodeId> = (0..b).map(backup_node).collect();

        // Backups first (brokers replicate into them).
        let mut backup_svcs = Vec::with_capacity(b as usize);
        for i in 0..b {
            let dir = fabric.write_dir(backup_node(i));
            let (svc, _) = fabric.boot(backup_node(i), config.worker_threads, |obs| {
                let metrics = || FlushMetrics::registered(obs.registry());
                let flusher = dir.map(|dir| DiskFlusher::start(dir, metrics())).transpose()?;
                Ok(BackupService::with_obs(backup_node(i), flusher, obs))
            })?;
            backup_svcs.push(svc);
        }

        // Brokers.
        let mut broker_svcs = Vec::with_capacity(b as usize);
        for i in 0..b {
            let (svc, client) = fabric.boot(broker_node(i), config.worker_threads, |obs| {
                Ok(BrokerService::with_obs(broker_node(i), backup_node(i), backup_ids.clone(), obs))
            })?;
            svc.attach_client(client);
            broker_svcs.push(svc);
        }

        // Coordinator replicas. A single replica (the default) elects
        // itself at once — the pre-replication behaviour.
        let r = config.coordinator.replicas;
        let coordinator_ids: Vec<NodeId> = (0..r).map(coordinator_node).collect();
        let mut coordinator_svcs = Vec::with_capacity(r as usize);
        for i in 0..r {
            let (svc, client) = fabric.boot(coordinator_node(i), config.worker_threads, |_| {
                Ok(CoordinatorService::replicated(
                    coordinator_node(i),
                    coordinator_ids.clone(),
                    broker_ids.clone(),
                    config.coordinator,
                ))
            })?;
            svc.attach_client(client);
            coordinator_svcs.push(svc);
        }
        for svc in &coordinator_svcs {
            svc.start();
        }

        Ok(KeraCluster { fabric, coordinator_svcs, broker_svcs, backup_svcs })
    }

    /// Index of the replica currently believing itself leader, if any.
    pub fn coordinator_leader(&self) -> Option<u32> {
        self.coordinator_svcs.iter().position(|s| s.is_leader()).map(|i| i as u32)
    }

    pub fn backups(&self) -> Vec<NodeId> {
        (0..self.config().brokers).map(backup_node).collect()
    }

    /// Kills server `i`: both its broker and its co-located backup vanish
    /// from the network, exactly like a machine crash. Requires the
    /// in-memory fabric (TCP does not support surgical crashes).
    pub fn crash_server(&mut self, i: u32) {
        self.fabric.crash(broker_node(i));
        self.fabric.crash(backup_node(i));
    }

    /// Orderly shutdown of every node (what dropping the cluster does).
    pub fn shutdown(self) {}
}

impl Deref for KeraCluster {
    type Target = Fabric;
    fn deref(&self) -> &Fabric {
        &self.fabric
    }
}

impl DerefMut for KeraCluster {
    fn deref_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use kera_common::config::{ReplicationConfig, StreamConfig, VirtualLogPolicy};
    use kera_common::ids::{ProducerId, StreamId, StreamletId};
    use kera_wire::chunk::{ChunkBuilder, ChunkIter};
    use kera_wire::cursor::SlotCursor;
    use kera_wire::frames::OpCode;
    use kera_wire::messages::*;
    use kera_wire::record::Record;
    use std::time::Duration;

    const T: Duration = Duration::from_secs(5);

    fn stream_config(id: u32, streamlets: u32, factor: u32) -> StreamConfig {
        StreamConfig {
            id: StreamId(id),
            streamlets,
            active_groups: 1,
            segments_per_group: 4,
            segment_size: 1 << 16,
            replication: ReplicationConfig {
                factor,
                policy: VirtualLogPolicy::SharedPerBroker(2),
                vseg_size: 1 << 16,
            },
        }
    }

    fn make_chunk(producer: u32, stream: u32, streamlet: u32, records: u32) -> Bytes {
        let mut b = ChunkBuilder::new(
            8192,
            ProducerId(producer),
            StreamId(stream),
            StreamletId(streamlet),
        );
        for i in 0..records {
            b.append(&Record::value_only(&[i as u8; 100]));
        }
        b.seal()
    }

    fn produce(
        client: &kera_rpc::RpcClient,
        broker: NodeId,
        producer: u32,
        chunks: &[Bytes],
    ) -> ProduceResponse {
        let mut body = Vec::new();
        for c in chunks {
            body.extend_from_slice(c);
        }
        let req = ProduceRequest {
            producer: ProducerId(producer),
            recovery: false,
            chunk_count: chunks.len() as u32,
            chunks: Bytes::from(body),
        };
        let resp = client.call(broker, OpCode::Produce, req.encode(), T).unwrap();
        ProduceResponse::decode(&resp).unwrap()
    }

    #[test]
    fn end_to_end_produce_fetch_r3() {
        let cfg = ClusterConfig {
            brokers: 4,
            worker_threads: 2,
            ..ClusterConfig::default()
        };
        let cluster = KeraCluster::start(cfg).unwrap();
        let client_rt = cluster.client(0);
        let client = client_rt.client();

        // Create a 4-streamlet stream, R3.
        let sc = stream_config(1, 4, 3);
        let md_bytes = client
            .call(
                COORDINATOR,
                OpCode::CreateStream,
                CreateStreamRequest { config: sc.clone() }.encode(),
                T,
            )
            .unwrap();
        let md = StreamMetadata::decode(&md_bytes).unwrap();
        assert_eq!(md.placements.len(), 4);
        // Streamlets spread over all 4 brokers.
        assert_eq!(md.brokers().len(), 4);

        // Produce 3 chunks to streamlet 0's broker.
        let broker = md.broker_of(StreamletId(0)).unwrap();
        let chunks: Vec<Bytes> = (0..3).map(|_| make_chunk(7, 1, 0, 5)).collect();
        let resp = produce(&client, broker, 7, &chunks);
        assert_eq!(resp.acks.len(), 3);
        assert_eq!(resp.acks[0].base_offset, 0);
        assert_eq!(resp.acks[1].base_offset, 5);
        assert_eq!(resp.acks[2].base_offset, 10);

        // Data is on 2 backups (R3 = leader + 2 copies).
        let total_backup_bytes: usize =
            cluster.backup_svcs.iter().map(|b| b.bytes_held()).sum();
        let chunk_bytes: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total_backup_bytes, chunk_bytes * 2);

        // Fetch it back (producer 7 -> slot 0 since Q=1).
        let freq = FetchRequest {
            consumer: kera_common::ids::ConsumerId(1),
            entries: vec![FetchEntry {
                stream: StreamId(1),
                streamlet: StreamletId(0),
                slot: 0,
                cursor: SlotCursor::START,
                max_bytes: 1 << 20,
            }],
        };
        let fresp = FetchResponse::decode_bytes(
            &client.call(broker, OpCode::Fetch, freq.encode(), T).unwrap(),
        )
        .unwrap();
        assert_eq!(fresp.results.len(), 1);
        let data = &fresp.results[0].data;
        let got: Vec<_> = ChunkIter::new(data).collect::<Result<_>>().unwrap();
        assert_eq!(got.len(), 3);
        let mut records = 0;
        for c in &got {
            c.verify().unwrap();
            records += c.records().count();
        }
        assert_eq!(records, 15);
        cluster.shutdown();
    }

    #[test]
    fn r1_skips_backups_entirely() {
        let cfg = ClusterConfig {
            brokers: 2,
            worker_threads: 2,
            ..ClusterConfig::default()
        };
        let cluster = KeraCluster::start(cfg).unwrap();
        let client_rt = cluster.client(0);
        let client = client_rt.client();

        let sc = stream_config(1, 1, 1);
        let md = StreamMetadata::decode(
            &client
                .call(
                    COORDINATOR,
                    OpCode::CreateStream,
                    CreateStreamRequest { config: sc }.encode(),
                    T,
                )
                .unwrap(),
        )
        .unwrap();
        let broker = md.broker_of(StreamletId(0)).unwrap();
        produce(&client, broker, 0, &[make_chunk(0, 1, 0, 2)]);
        assert_eq!(cluster.backup_svcs.iter().map(|b| b.bytes_held()).sum::<usize>(), 0);

        // Data is immediately fetchable (durable head == head at R1).
        let freq = FetchRequest {
            consumer: kera_common::ids::ConsumerId(0),
            entries: vec![FetchEntry {
                stream: StreamId(1),
                streamlet: StreamletId(0),
                slot: 0,
                cursor: SlotCursor::START,
                max_bytes: 1 << 20,
            }],
        };
        let fresp = FetchResponse::decode_bytes(
            &client.call(broker, OpCode::Fetch, freq.encode(), T).unwrap(),
        )
        .unwrap();
        assert_eq!(ChunkIter::new(&fresp.results[0].data).count(), 1);
        cluster.shutdown();
    }

    #[test]
    fn unknown_stream_errors_propagate() {
        let cfg = ClusterConfig { brokers: 1, ..ClusterConfig::default() };
        let cluster = KeraCluster::start(cfg).unwrap();
        let client_rt = cluster.client(0);
        let client = client_rt.client();

        let err = client
            .call(
                COORDINATOR,
                OpCode::GetMetadata,
                GetMetadataRequest { stream: StreamId(42) }.encode(),
                T,
            )
            .unwrap_err();
        assert!(matches!(err, kera_common::KeraError::Protocol(_)));

        let chunk = make_chunk(0, 42, 0, 1);
        let req = ProduceRequest {
            producer: ProducerId(0),
            recovery: false,
            chunk_count: 1,
            chunks: chunk,
        };
        let err = client
            .call(broker_node(0), OpCode::Produce, req.encode(), T)
            .unwrap_err();
        assert!(matches!(err, kera_common::KeraError::Protocol(_)));
        cluster.shutdown();
    }

    #[test]
    fn duplicate_stream_creation_fails() {
        let cfg = ClusterConfig { brokers: 2, ..ClusterConfig::default() };
        let cluster = KeraCluster::start(cfg).unwrap();
        let client_rt = cluster.client(0);
        let client = client_rt.client();
        let sc = stream_config(5, 2, 1);
        client
            .call(
                COORDINATOR,
                OpCode::CreateStream,
                CreateStreamRequest { config: sc.clone() }.encode(),
                T,
            )
            .unwrap();
        let err = client
            .call(
                COORDINATOR,
                OpCode::CreateStream,
                CreateStreamRequest { config: sc }.encode(),
                T,
            )
            .unwrap_err();
        assert!(matches!(err, kera_common::KeraError::Protocol(_)));
        cluster.shutdown();
    }

    #[test]
    fn consumers_never_see_unreplicated_data() {
        // With R3 but all backups crashed, producing fails and consumers
        // see nothing.
        let cfg = ClusterConfig {
            brokers: 3,
            worker_threads: 2,
            ..ClusterConfig::default()
        };
        let mut cluster = KeraCluster::start(cfg).unwrap();
        let client_rt = cluster.client(0);
        let client = client_rt.client();

        let sc = stream_config(1, 1, 3);
        let md = StreamMetadata::decode(
            &client
                .call(
                    COORDINATOR,
                    OpCode::CreateStream,
                    CreateStreamRequest { config: sc }.encode(),
                    T,
                )
                .unwrap(),
        )
        .unwrap();
        let broker = md.broker_of(StreamletId(0)).unwrap();
        // Crash the two servers that are NOT the leader: their backups go
        // with them, leaving zero backup candidates.
        for i in 0..3 {
            if broker_node(i) != broker {
                cluster.crash_server(i);
            }
        }
        let chunk = make_chunk(0, 1, 0, 4);
        let req = ProduceRequest {
            producer: ProducerId(0),
            recovery: false,
            chunk_count: 1,
            chunks: chunk,
        };
        let err = client.call(broker, OpCode::Produce, req.encode(), T).unwrap_err();
        assert!(matches!(err, kera_common::KeraError::NoCapacity(_)), "got {err}");

        // The appended-but-unreplicated chunk must be invisible.
        let freq = FetchRequest {
            consumer: kera_common::ids::ConsumerId(0),
            entries: vec![FetchEntry {
                stream: StreamId(1),
                streamlet: StreamletId(0),
                slot: 0,
                cursor: SlotCursor::START,
                max_bytes: 1 << 20,
            }],
        };
        let fresp = FetchResponse::decode_bytes(
            &client.call(broker, OpCode::Fetch, freq.encode(), T).unwrap(),
        )
        .unwrap();
        assert!(fresp.results[0].data.is_empty());
        cluster.shutdown();
    }

    use kera_common::Result;
}
