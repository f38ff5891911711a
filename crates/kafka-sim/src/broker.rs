//! The Kafka-style broker: topic store, produce path with acks=all,
//! consumer fetch, and the leader side of follower fetch.
//!
//! Two services share one `TopicStore` per node, mirroring Kafka's
//! separation of client and replication traffic:
//!
//! - [`KafkaBrokerService`] — produce, consumer fetch, hosting;
//! - [`KafkaReplicaService`] — follower fetch, served from a separate
//!   node runtime so replication traffic can never be starved by worker
//!   threads blocked in acks=all waits.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use kera_common::ids::{NodeId, StreamId, StreamletId};
use kera_common::metrics::Counter;
use kera_common::{KeraError, Result};
use kera_obs::NodeObs;
use kera_rpc::{RequestContext, Service};
use kera_wire::chunk::ChunkIter;
use kera_wire::cursor::SlotCursor;
use kera_wire::frames::OpCode;
use kera_wire::messages::{
    ChunkAck, FetchRequest, FetchResponse, FetchResult, FollowerFetchRequest,
    FollowerFetchResponse, FollowerFetchResult, HostStreamRequest, ProduceRequest,
    ProduceResponse, ReplicaRole, SeekRequest, SeekResponse,
};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::partition::{PartitionLog, Role};

/// Kafka-equivalent tuning knobs (the parameters the paper says "one has
/// to tune" for passive replication).
#[derive(Clone, Copy, Debug)]
pub struct KafkaTuning {
    /// `replica.fetch.wait.max.ms`: how long the leader parks an empty
    /// follower fetch before answering.
    pub fetch_wait: Duration,
    /// `replica.fetch.max.bytes` per partition.
    pub fetch_max_bytes_per_partition: u32,
    /// Produce acks=all wait bound.
    pub ack_timeout: Duration,
    /// Per-write fixed IO cost on followers, paid once per *partition*
    /// whose data a fetch delivered — each Kafka partition is its own
    /// log file (see `ClusterConfig::io_cost_ns`).
    pub io_cost_ns: u64,
}

impl Default for KafkaTuning {
    fn default() -> Self {
        Self {
            fetch_wait: Duration::from_millis(500),
            fetch_max_bytes_per_partition: 1 << 20,
            ack_timeout: Duration::from_secs(10),
            io_cost_ns: 0,
        }
    }
}

/// All partition replicas hosted on one node.
pub struct TopicStore {
    node: NodeId,
    replicas: RwLock<HashMap<(StreamId, StreamletId), Arc<PartitionLog>>>,
    /// Signalled on every leader append (wakes parked follower fetches).
    data_cv: Condvar,
    data_lock: Mutex<()>,
    tuning: KafkaTuning,
    /// Chunks ingested (leader appends; `kera.kafka.chunks_in`).
    pub chunks_in: Arc<Counter>,
    /// Records ingested (`kera.kafka.records_in`).
    pub records_in: Arc<Counter>,
    /// Bytes ingested (`kera.kafka.bytes_in`).
    pub bytes_in: Arc<Counter>,
    /// Follower fetches served (`kera.kafka.follower_fetches`).
    pub follower_fetches: Arc<Counter>,
}

impl TopicStore {
    pub fn new(node: NodeId, tuning: KafkaTuning) -> Arc<Self> {
        Self::new_with_obs(node, tuning, NodeObs::disabled(node.raw()))
    }

    /// Like [`TopicStore::new`], registering the ingestion counters in a
    /// node's metrics registry as `kera.kafka.*`.
    pub fn new_with_obs(node: NodeId, tuning: KafkaTuning, obs: Arc<NodeObs>) -> Arc<Self> {
        let reg = obs.registry();
        Arc::new(Self {
            node,
            replicas: RwLock::new(HashMap::new()),
            data_cv: Condvar::new(),
            data_lock: Mutex::new(()),
            tuning,
            chunks_in: reg.counter("kera.kafka.chunks_in", &[]),
            records_in: reg.counter("kera.kafka.records_in", &[]),
            bytes_in: reg.counter("kera.kafka.bytes_in", &[]),
            follower_fetches: reg.counter("kera.kafka.follower_fetches", &[]),
        })
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn tuning(&self) -> KafkaTuning {
        self.tuning
    }

    pub fn replica(&self, stream: StreamId, partition: StreamletId) -> Result<Arc<PartitionLog>> {
        self.replicas
            .read()
            .get(&(stream, partition))
            .cloned()
            .ok_or(KeraError::UnknownStreamlet(stream, partition))
    }

    pub fn host_replica(
        &self,
        stream: StreamId,
        partition: StreamletId,
        role: Role,
        factor: u32,
    ) -> Arc<PartitionLog> {
        let mut guard = self.replicas.write();
        Arc::clone(
            guard
                .entry((stream, partition))
                .or_insert_with(|| Arc::new(PartitionLog::new(stream, partition, role, factor))),
        )
    }

    fn notify_appends(&self) {
        let _g = self.data_lock.lock();
        self.data_cv.notify_all();
    }
}

/// The client-facing broker service.
pub struct KafkaBrokerService {
    store: Arc<TopicStore>,
    /// New follower assignments that the fetcher runner must pick up:
    /// (leader replica-service node, partition log).
    pending_follower_targets: Mutex<Vec<(NodeId, Arc<PartitionLog>)>>,
    /// Maps a broker data-node id to its replica-service node id (set at
    /// cluster assembly).
    replica_node_of: HashMap<NodeId, NodeId>,
    /// Invoked after each hosting change (the cluster wires this to the
    /// fetcher runner's refresh).
    on_host: Mutex<Option<Box<dyn Fn() + Send>>>,
}

impl KafkaBrokerService {
    pub fn new(store: Arc<TopicStore>, replica_node_of: HashMap<NodeId, NodeId>) -> Arc<Self> {
        Arc::new(Self {
            store,
            pending_follower_targets: Mutex::new(Vec::new()),
            replica_node_of,
            on_host: Mutex::new(None),
        })
    }

    /// Registers the hosting-change callback (fetcher refresh).
    pub fn set_on_host(&self, cb: Box<dyn Fn() + Send>) {
        *self.on_host.lock() = Some(cb);
    }

    pub fn store(&self) -> &Arc<TopicStore> {
        &self.store
    }

    /// Drains follower targets registered since the last call (the
    /// fetcher runner polls this).
    pub fn take_new_follower_targets(&self) -> Vec<(NodeId, Arc<PartitionLog>)> {
        std::mem::take(&mut *self.pending_follower_targets.lock())
    }

    fn handle_host(&self, req: HostStreamRequest) -> Result<()> {
        let factor = req.metadata.config.replication.factor;
        for a in &req.assignments {
            match a.role {
                ReplicaRole::Leader => {
                    self.store.host_replica(
                        req.metadata.config.id,
                        a.streamlet,
                        Role::Leader,
                        factor,
                    );
                }
                ReplicaRole::Follower => {
                    let log = self.store.host_replica(
                        req.metadata.config.id,
                        a.streamlet,
                        Role::Follower { leader: a.leader },
                        factor,
                    );
                    let replica_node =
                        self.replica_node_of.get(&a.leader).copied().ok_or_else(|| {
                            KeraError::Protocol(format!(
                                "no replica service known for leader {}",
                                a.leader
                            ))
                        })?;
                    self.pending_follower_targets.lock().push((replica_node, log));
                }
            }
        }
        if let Some(cb) = self.on_host.lock().as_ref() {
            cb();
        }
        Ok(())
    }

    fn handle_produce(&self, req: ProduceRequest) -> Result<ProduceResponse> {
        let mut acks = Vec::with_capacity(req.chunk_count as usize);
        // (log, end offset, factor) to wait on after all appends.
        let mut waits: Vec<(Arc<PartitionLog>, u64)> = Vec::new();
        for chunk in ChunkIter::new(&req.chunks) {
            let chunk = chunk?;
            let h = *chunk.header();
            if h.record_count == 0 {
                continue;
            }
            let log = self.store.replica(h.stream, h.streamlet)?;
            let (base, end) = log.append_leader(chunk.bytes(), h.record_count)?;
            acks.push(ChunkAck {
                stream: h.stream,
                streamlet: h.streamlet,
                group: 0,
                segment: 0,
                base_offset: base,
                records: h.record_count,
            });
            match waits.iter_mut().find(|(l, _)| Arc::ptr_eq(l, &log)) {
                Some((_, e)) => *e = (*e).max(end),
                None => waits.push((log, end)),
            }
            self.store.chunks_in.inc();
            self.store.records_in.add(u64::from(h.record_count));
            self.store.bytes_in.add(chunk.len() as u64);
        }
        // Wake parked follower fetches, then wait for acks=all.
        self.store.notify_appends();
        let timeout = self.store.tuning.ack_timeout;
        for (log, end) in waits {
            log.wait_hw(end, timeout)?;
        }
        Ok(ProduceResponse { acks })
    }

    fn handle_fetch(&self, req: FetchRequest) -> Result<FetchResponse> {
        let mut results = Vec::with_capacity(req.entries.len());
        for e in &req.entries {
            let log = self.store.replica(e.stream, e.streamlet)?;
            let data =
                log.read_chunks(u64::from(e.cursor.offset), e.max_bytes as usize, log.high_watermark());
            let cursor = SlotCursor {
                chain: 0,
                segment: 0,
                offset: e.cursor.offset + data.len() as u32,
            };
            results.push(FetchResult {
                stream: e.stream,
                streamlet: e.streamlet,
                slot: e.slot,
                cursor,
                data: Bytes::from(data),
            });
        }
        Ok(FetchResponse { results })
    }
}

impl Service for KafkaBrokerService {
    fn handle(&self, ctx: &RequestContext, payload: Bytes) -> Result<Bytes> {
        match ctx.opcode {
            OpCode::Ping => Ok(Bytes::new()),
            OpCode::HostStream => {
                let req = HostStreamRequest::decode(&payload)?;
                self.handle_host(req)?;
                Ok(Bytes::new())
            }
            OpCode::Produce => {
                let req = ProduceRequest::decode_bytes(&payload)?;
                Ok(self.handle_produce(req)?.encode())
            }
            OpCode::Fetch => {
                let req = FetchRequest::decode(&payload)?;
                self.handle_fetch(req)?.encode()
            }
            OpCode::Seek => {
                let req = SeekRequest::decode(&payload)?;
                let log = self.store.replica(req.stream, req.streamlet)?;
                let resp = match log.seek(req.record_offset) {
                    Some(byte) => SeekResponse {
                        found: true,
                        cursor: SlotCursor { chain: 0, segment: 0, offset: byte as u32 },
                    },
                    None => SeekResponse { found: false, cursor: SlotCursor::START },
                };
                Ok(resp.encode())
            }
            other => Err(KeraError::Protocol(format!("kafka broker cannot serve {other:?}"))),
        }
    }
}

/// The replication-facing service: serves follower fetches from the
/// leader's logs, parking empty fetches up to `fetch.wait.max.ms`.
pub struct KafkaReplicaService {
    store: Arc<TopicStore>,
}

impl KafkaReplicaService {
    pub fn new(store: Arc<TopicStore>) -> Arc<Self> {
        Arc::new(Self { store })
    }

    fn handle_follower_fetch(&self, req: FollowerFetchRequest) -> Result<FollowerFetchResponse> {
        let max = req.max_bytes_per_partition as usize;
        let deadline = Instant::now() + self.store.tuning.fetch_wait;
        loop {
            // Pass 1: record fetch positions (this is the replication
            // acknowledgement that advances high watermarks).
            let mut logs = Vec::with_capacity(req.entries.len());
            for e in &req.entries {
                let log = self.store.replica(e.stream, e.partition)?;
                log.record_follower_fetch(req.follower, e.fetch_offset);
                logs.push(log);
            }
            // Pass 2: collect available data.
            let mut results = Vec::with_capacity(req.entries.len());
            let mut total = 0usize;
            for (e, log) in req.entries.iter().zip(&logs) {
                let data = log.read_chunks(e.fetch_offset, max, log.leo());
                total += data.len();
                results.push(FollowerFetchResult {
                    stream: e.stream,
                    partition: e.partition,
                    high_watermark: log.high_watermark(),
                    data: Bytes::from(data),
                });
            }
            if total > 0 || Instant::now() >= deadline {
                self.store.follower_fetches.inc();
                return Ok(FollowerFetchResponse { results });
            }
            // Nothing available: park until an append or the deadline
            // (Kafka's fetch purgatory).
            let mut guard = self.store.data_lock.lock();
            let now = Instant::now();
            if now < deadline {
                self.store.data_cv.wait_for(&mut guard, deadline - now);
            }
        }
    }
}

impl Service for KafkaReplicaService {
    fn handle(&self, ctx: &RequestContext, payload: Bytes) -> Result<Bytes> {
        match ctx.opcode {
            OpCode::Ping => Ok(Bytes::new()),
            OpCode::FollowerFetch => {
                let req = FollowerFetchRequest::decode(&payload)?;
                self.handle_follower_fetch(req)?.encode()
            }
            other => Err(KeraError::Protocol(format!("replica service cannot serve {other:?}"))),
        }
    }
}
