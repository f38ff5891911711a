//! The only module that names the program under test.
//!
//! Every `kera_*` path the benchmark depends on is imported here, so a
//! later API change in the repo is a one-file benchmark PR. The rest of
//! the benchmark sees a cluster handle, producers, consumers and the
//! layer entry points the probes call — nothing else.
//!
//! Entry points used (README "Program entry points" lists the same):
//! `KeraCluster::{start, client, coordinators, metrics_snapshot,
//! shutdown}`, `ClusterConfig`, `StreamConfig::kafka_like`,
//! `MetadataClient::{with_replicas, create_stream}`, `Producer::{new,
//! send, flush, metrics, throttles, close}`, `Consumer::{new,
//! next_batch, close}`, `RpcClient::call`, `RegistrySnapshot` (counters `kera.broker.*`,
//! `kera.vlog.*`, `kera.rpc.retries_sent`, gauges `kera.client.pool_*`,
//! histograms `kera.trace.stage`, `kera.client.request_latency`),
//! `kera_obs::lock_contention_snapshot`, and for the probes `Record`,
//! `ChunkBuilder`, `ChunkView`, `ChunkIter`,
//! `ProduceRequest::{encode_chunks, decode_bytes}`, `FetchRequest`,
//! `FetchResponse::decode_bytes`, `StreamStore::{host, append_chunk,
//! read_slot, streamlet}`, `Streamlet::seek`, `Segment::make_all_durable`,
//! `VirtualLog::{new, append, ship_once}`, `MockChannel`,
//! `BackupService::new`, `BrokerService::new`, `Service::handle`,
//! `NodeRuntime::{start, client, shutdown}`, `AnyNetwork::{new, register}`.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use bytes::Bytes;
pub use kera_broker::backup::BackupService;
pub use kera_broker::broker::BrokerService;
pub use kera_client::consumer::Subscription;
pub use kera_client::{Consumer, Producer};
pub use kera_common::ids::{ConsumerId, NodeId, ProducerId, StreamId, StreamletId, VirtualLogId};
pub use kera_common::metrics::HistogramSnapshot;
pub use kera_obs::RegistrySnapshot;
pub use kera_rpc::{NodeRuntime, RequestContext, Service};
pub use kera_storage::store::StreamStore;
pub use kera_vlog::channel::MockChannel;
pub use kera_vlog::{ChunkRef, VirtualLog};
pub use kera_wire::chunk::{ChunkBuilder, ChunkIter, ChunkView};
pub use kera_wire::cursor::SlotCursor;
pub use kera_wire::frames::OpCode;
pub use kera_wire::messages::{
    FetchEntry, FetchRequest, FetchResponse, HostAssignment, HostStreamRequest, ProduceRequest,
    ReplicaRole, StreamMetadata, StreamletPlacement,
};
pub use kera_wire::record::Record;

use kera_broker::KeraCluster;
use kera_client::{ConsumerConfig, MetadataClient, Partitioner, ProducerConfig};
use kera_common::config::{
    ClusterConfig, ReplicationConfig, StreamConfig, TransportChoice, VirtualLogPolicy,
};
use kera_rpc::network::TransportKind;
use kera_rpc::AnyNetwork;
use kera_vlog::selector::{BackupSelector, SelectionPolicy};

pub type Error = kera_common::KeraError;
pub type Result<T> = kera_common::Result<T>;

/// Shape of one benchmark cluster and its streams. Everything not named
/// here is the program's default (8 MB segments, 16 segments per group,
/// Q = 1, `SharedPerBroker(4)` virtual logs, default retry policy).
#[derive(Clone, Copy, Debug)]
pub struct ClusterShape {
    pub brokers: u32,
    pub tcp: bool,
    pub streams: u32,
    pub chunk_size: usize,
    /// Replication factor R (copies including the broker's own).
    pub factor: u32,
    /// `ClusterConfig::observability`: off for measured runs, on for the
    /// traced pass.
    pub observability: bool,
}

/// A running in-process cluster with its streams created.
pub struct Cluster {
    inner: KeraCluster,
    shape: ClusterShape,
    streams: Vec<StreamId>,
    next_client: AtomicU32,
}

/// One client node on the cluster's fabric. Producers and consumers made
/// from it must be closed before it drops.
pub struct ClientNode {
    /// Kept alive: the node's clients stop working when it drops.
    _rt: NodeRuntime,
    meta: MetadataClient,
    streams: Vec<StreamId>,
    chunk_size: usize,
}

impl Cluster {
    /// Boots the cluster under the benchmark's common settings (one
    /// worker thread per node, no synthetic device cost, no flusher,
    /// quotas off, a single coordinator) and creates the streams, one
    /// streamlet each.
    pub fn start(shape: ClusterShape) -> Result<Cluster> {
        // R3 on a 2-broker cluster "ingests" with every request failed;
        // refuse the shape instead of producing a number.
        assert!(
            shape.factor >= 1 && shape.factor <= shape.brokers,
            "replication factor {} needs at least that many brokers, have {}",
            shape.factor,
            shape.brokers
        );
        let inner = KeraCluster::start(ClusterConfig {
            brokers: shape.brokers,
            worker_threads: 1,
            transport: if shape.tcp {
                TransportChoice::Tcp
            } else {
                TransportChoice::InMemory
            },
            io_cost_ns: 0,
            flush_dir: None,
            observability: shape.observability,
            ..ClusterConfig::default()
        })?;
        let streams: Vec<StreamId> = (1..=shape.streams).map(StreamId).collect();
        let cluster = Cluster {
            inner,
            shape,
            streams,
            next_client: AtomicU32::new(0),
        };
        let admin = cluster.client_node();
        for &id in &cluster.streams {
            let mut config = StreamConfig::kafka_like(id, 1);
            config.replication = ReplicationConfig {
                factor: shape.factor,
                policy: VirtualLogPolicy::SharedPerBroker(4),
                ..ReplicationConfig::default()
            };
            admin.meta.create_stream(config)?;
        }
        Ok(cluster)
    }

    pub fn streams(&self) -> &[StreamId] {
        &self.streams
    }

    pub fn client_node(&self) -> ClientNode {
        let rt = self
            .inner
            .client(self.next_client.fetch_add(1, Ordering::Relaxed));
        let meta = MetadataClient::with_replicas(rt.client(), self.inner.coordinators());
        ClientNode {
            _rt: rt,
            meta,
            streams: self.streams.clone(),
            chunk_size: self.shape.chunk_size,
        }
    }

    /// Cluster-wide registry snapshot (server and client nodes) plus the
    /// process-wide lock-wait histograms (`kera.lock.wait{class=..}`).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut snap = self.inner.metrics_snapshot();
        snap.merge(&kera_obs::lock_contention_snapshot());
        snap
    }

    pub fn shutdown(self) {
        self.inner.shutdown();
    }
}

impl ClientNode {
    /// A producer with the paper's client settings: linger 1 ms, one
    /// request in flight per broker, non-keyed round-robin records.
    pub fn producer(&self, id: u32) -> Result<Producer> {
        Producer::new(
            &self.meta,
            &self.streams,
            ProducerConfig {
                id: ProducerId(id),
                chunk_size: self.chunk_size,
                linger: Duration::from_millis(1),
                pipeline: 1,
                partitioner: Partitioner::RoundRobin,
                ..ProducerConfig::default()
            },
        )
    }

    /// A consumer of every stream from `SlotCursor::START`, with the
    /// client's default fetch size and cache.
    pub fn consumer(&self, id: u32) -> Result<Consumer> {
        let subs: Vec<Subscription> = self
            .streams
            .iter()
            .map(|&s| Subscription::whole_stream(s))
            .collect();
        Consumer::new(
            &self.meta,
            &subs,
            ConsumerConfig {
                id: ConsumerId(id),
                ..ConsumerConfig::default()
            },
        )
    }
}

// ---------------------------------------------------------------------
// Layer entry points for the probes
// ---------------------------------------------------------------------

/// Metadata of a one-streamlet stream led by `broker`, as the
/// coordinator would hand it out.
pub fn stream_metadata(stream: u32, factor: u32, broker: NodeId) -> StreamMetadata {
    let mut config = StreamConfig::kafka_like(StreamId(stream), 1);
    config.replication.factor = factor;
    StreamMetadata {
        config,
        placements: vec![StreamletPlacement {
            streamlet: StreamletId(0),
            broker,
        }],
    }
}

/// A context for calling `Service::handle` directly, without a fabric.
pub fn request_context(opcode: OpCode, request_id: u64) -> RequestContext {
    RequestContext {
        from: NodeId(2001),
        opcode,
        request_id,
        deadline: None,
        trace: kera_obs::TraceContext::NONE,
    }
}

/// A broker service with no runtime attached, leading streamlet 0 of
/// R1 stream `stream`.
pub fn standalone_broker(stream: u32) -> Result<Arc<BrokerService>> {
    let node = NodeId(1);
    let svc = BrokerService::new(node, NodeId(1001), vec![NodeId(1001)]);
    let host = HostStreamRequest {
        metadata: stream_metadata(stream, 1, node),
        assignments: vec![HostAssignment {
            streamlet: StreamletId(0),
            role: ReplicaRole::Leader,
            leader: node,
        }],
    };
    svc.handle(&request_context(OpCode::HostStream, 0), host.encode())?;
    Ok(svc)
}

pub fn standalone_backup() -> Arc<BackupService> {
    BackupService::new(NodeId(1001), None)
}

/// A virtual log with `copies` backups per virtual segment drawn from a
/// fleet of three.
pub fn standalone_vlog(copies: usize) -> Result<Arc<VirtualLog>> {
    let fleet = [NodeId(1001), NodeId(1002), NodeId(1003)];
    let selector = BackupSelector::new(fleet[0], &fleet, SelectionPolicy::RoundRobin, 0);
    VirtualLog::new(
        VirtualLogId(0),
        NodeId(1),
        ReplicationConfig::default().vseg_size,
        copies,
        selector,
    )
}

/// Two nodes on one fabric: `service` behind node 1, a bare client on
/// node 2. Returns (server runtime, client runtime, server id).
pub fn rpc_pair(
    tcp: bool,
    service: Arc<dyn Service>,
) -> Result<(NodeRuntime, NodeRuntime, NodeId)> {
    let kind = if tcp {
        TransportKind::Tcp
    } else {
        TransportKind::InMemory
    };
    let net = AnyNetwork::new(kind, Default::default());
    let server = NodeRuntime::start(net.register(NodeId(1))?, service, 1);
    let client = NodeRuntime::start(net.register(NodeId(2))?, Arc::new(kera_rpc::NullService), 1);
    Ok((server, client, NodeId(1)))
}

/// Wraps a file-system error of the benchmark's own output files.
pub fn io_error(e: std::io::Error) -> kera_common::KeraError {
    kera_common::KeraError::Io(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "replication factor 3 needs at least that many brokers")]
    fn a_cluster_too_small_for_its_replication_factor_is_refused() {
        let _ = Cluster::start(ClusterShape {
            brokers: 2,
            tcp: false,
            streams: 1,
            chunk_size: 1024,
            factor: 3,
            observability: false,
        });
    }
}
