//! The Kafka-style broker: topic store, produce path with acks=all,
//! consumer fetch, and the leader side of follower fetch.
//!
//! One service per node, [`KafkaBrokerService`], serves clients and
//! followers alike, and none of its handlers parks a worker. A fetch
//! (follower or consumer) that finds no data and an acks=all produce
//! waiting for its high watermarks are delayed operations in the store's
//! [`Purgatory`], answered through their [`Reply`] by the request that
//! completes them — the append that gives a fetch data, the one that moves
//! a high watermark past a consumer's offset or to a produce's last end —
//! or at their timeout by the purgatory's one expiry timer.
//! Both fetch replies are packed in one pass: each entry's chunks are
//! copied from its log straight into the body, under its partition lock.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use kera_common::ids::{NodeId, StreamId, StreamletId};
use kera_common::metrics::Counter;
use kera_common::{KeraError, Result};
use kera_obs::NodeObs;
use kera_rpc::purgatory::{self, Purgatory};
use kera_rpc::{Reply, RequestContext, Service};
use kera_storage::flush::DiskFlusher;
use kera_wire::chunk::ChunkIter;
use kera_wire::cursor::SlotCursor;
use kera_wire::frames::OpCode;
use kera_wire::messages::{
    ChunkAck, FetchEntry, FetchRequest, FetchResponse, FollowerFetchRequest, FollowerFetchResponse,
    HostStreamRequest, ProduceRequest, ProduceResponse, ReplicaRole, SeekRequest, SeekResponse,
    FETCH_MAX_WAIT,
};
use parking_lot::RwLock;

use crate::fetcher::FetcherRunner;
use crate::partition::{PartitionLog, Role};

/// Kafka-equivalent tuning knobs (the parameters the paper says "one has
/// to tune" for passive replication).
#[derive(Clone, Copy, Debug)]
pub struct KafkaTuning {
    /// `replica.fetch.wait.max.ms`: how long an empty follower fetch
    /// waits in the purgatory before it is answered empty.
    pub fetch_wait: Duration,
    /// How long an acks=all produce waits in the purgatory for its high
    /// watermarks before it fails with `Timeout`.
    pub ack_timeout: Duration,
}

impl Default for KafkaTuning {
    fn default() -> Self {
        Self { fetch_wait: Duration::from_millis(500), ack_timeout: Duration::from_secs(10) }
    }
}

/// A request waiting in the purgatory for an event rather than a worker.
enum Delayed {
    /// A follower fetch that found no data, with the log of each entry.
    Fetch(FollowerFetchRequest, Vec<Arc<PartitionLog>>),
    /// A consumer fetch, with the log of each entry.
    Consume(FetchRequest, Vec<Arc<PartitionLog>>),
    /// An acks=all produce: its response, and the end offset each log's
    /// high watermark must reach first.
    Produce(ProduceResponse, Vec<(Arc<PartitionLog>, u64)>),
}

impl purgatory::Delayed for Delayed {
    type Owner = TopicStore;

    /// Whether what it waits for has happened.
    fn ready(&self) -> bool {
        match self {
            Delayed::Fetch(req, logs) => {
                req.entries.iter().zip(logs).any(|(e, log)| log.leo() > e.fetch_offset)
            }
            Delayed::Consume(req, logs) => req.entries.iter().zip(logs).any(|(e, log)| {
                log.high_watermark() > u64::from(e.cursor.offset)
            }),
            Delayed::Produce(_, waits) => waits.iter().all(|(log, end)| log.high_watermark() >= *end),
        }
    }

    /// A follower fetch gets the whole chunks past each of its offsets up
    /// to the log end now, a consumer fetch up to the high watermark; a
    /// produce its acks, or `Timeout` if it `timed_out`.
    fn answer(self, store: &TopicStore, reply: Reply, timed_out: bool) {
        match self {
            Delayed::Fetch(req, logs) => {
                store.follower_fetches.inc();
                store.fetch_expired.add(u64::from(timed_out));
                reply.send(follow(&req, &logs));
            }
            Delayed::Consume(req, logs) => {
                store.consumer_fetches_expired.add(u64::from(timed_out));
                reply.send(consume(&req, &logs));
            }
            Delayed::Produce(..) if timed_out => {
                reply.send(Err(KeraError::Timeout { op: "acks=all high-watermark wait" }))
            }
            Delayed::Produce(resp, _) => reply.send(Ok(resp.encode())),
        }
    }
}

/// All partition replicas hosted on one node.
pub struct TopicStore {
    node: NodeId,
    replicas: RwLock<HashMap<(StreamId, StreamletId), Arc<PartitionLog>>>,
    /// The node's flusher, owned by its cluster; dangling when it writes no files.
    flusher: Weak<DiskFlusher>,
    purgatory: Arc<Purgatory<Delayed>>,
    tuning: KafkaTuning,
    /// Chunks ingested (leader appends; `kera.kafka.chunks_in`).
    pub chunks_in: Arc<Counter>,
    /// Records ingested (`kera.kafka.records_in`).
    pub records_in: Arc<Counter>,
    /// Bytes ingested (`kera.kafka.bytes_in`).
    pub bytes_in: Arc<Counter>,
    /// Follower fetches served (`kera.kafka.follower_fetches`).
    pub follower_fetches: Arc<Counter>,
    /// Follower fetches answered at `fetch_wait` with no data
    /// (`kera.kafka.fetch_expired`).
    pub fetch_expired: Arc<Counter>,
    /// Consumer fetches that waited (`kera.kafka.consumer_fetches_parked`).
    pub consumer_fetches_parked: Arc<Counter>,
    /// Those answered empty (`kera.kafka.consumer_fetches_expired`).
    pub consumer_fetches_expired: Arc<Counter>,
}

impl TopicStore {
    pub fn new(node: NodeId, tuning: KafkaTuning) -> Arc<Self> {
        Self::new_with_obs(node, tuning, Weak::new(), NodeObs::disabled(node.raw()))
    }

    /// Like [`TopicStore::new`], writing each replica's files through
    /// `flusher` and registering the ingestion counters in a node's
    /// metrics registry as `kera.kafka.*`.
    pub fn new_with_obs(
        node: NodeId,
        tuning: KafkaTuning,
        flusher: Weak<DiskFlusher>,
        obs: Arc<NodeObs>,
    ) -> Arc<Self> {
        let reg = obs.registry();
        Arc::new_cyclic(|me| Self {
            node,
            replicas: RwLock::new(HashMap::new()),
            flusher,
            purgatory: Purgatory::new(Weak::clone(me)),
            tuning,
            chunks_in: reg.counter("kera.kafka.chunks_in", &[]),
            records_in: reg.counter("kera.kafka.records_in", &[]),
            bytes_in: reg.counter("kera.kafka.bytes_in", &[]),
            follower_fetches: reg.counter("kera.kafka.follower_fetches", &[]),
            fetch_expired: reg.counter("kera.kafka.fetch_expired", &[]),
            consumer_fetches_parked: reg.counter("kera.kafka.consumer_fetches_parked", &[]),
            consumer_fetches_expired: reg.counter("kera.kafka.consumer_fetches_expired", &[]),
        })
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn replica(&self, stream: StreamId, partition: StreamletId) -> Result<Arc<PartitionLog>> {
        self.replicas
            .read()
            .get(&(stream, partition))
            .cloned()
            .ok_or(KeraError::UnknownStreamlet(stream, partition))
    }

    /// The replica of `partition`, created on first call with its files
    /// (`<stream>-<partition>/`) rolling at the stream's `segment_size`.
    pub fn host_replica(
        &self,
        stream: StreamId,
        partition: StreamletId,
        role: Role,
        factor: u32,
        segment_size: usize,
    ) -> Arc<PartitionLog> {
        let mut guard = self.replicas.write();
        Arc::clone(guard.entry((stream, partition)).or_insert_with(|| {
            let name = format!("{}-{}", stream.raw(), partition.raw());
            let file = self.flusher.upgrade().map(|f| f.partition_file(&name, segment_size as u64));
            Arc::new(PartitionLog::new(stream, partition, role, factor, file))
        }))
    }

    /// Called after every append and every recorded fetch position:
    /// answers each parked request that is now ready, then `op` — at once
    /// if it is ready too, else once it is or when it times out.
    fn settle(&self, op: Delayed, reply: Reply) {
        let (timeout, consume) = match op {
            Delayed::Fetch(..) => (self.tuning.fetch_wait, false),
            Delayed::Consume(..) => (FETCH_MAX_WAIT, true),
            Delayed::Produce(..) => (self.tuning.ack_timeout, false),
        };
        let parked = self.purgatory.park(Instant::now() + timeout, op, reply);
        self.consumer_fetches_parked.add(u64::from(consume && parked));
    }
}

/// The broker service: clients' produce, fetch and seek, the coordinator's
/// hosting, and its followers' fetches.
pub struct KafkaBrokerService {
    store: Arc<TopicStore>,
    /// The node's replica fetchers, told of each partition it follows.
    fetcher: OnceLock<Arc<FetcherRunner>>,
}

impl KafkaBrokerService {
    pub fn new(store: Arc<TopicStore>) -> Arc<Self> {
        Arc::new(Self { store, fetcher: OnceLock::new() })
    }

    pub fn attach_fetcher(&self, fetcher: Arc<FetcherRunner>) {
        let _ = self.fetcher.set(fetcher);
    }

    pub fn store(&self) -> &Arc<TopicStore> {
        &self.store
    }

    fn handle_host(&self, req: HostStreamRequest) {
        let config = &req.metadata.config;
        let (factor, segment_size) = (config.replication.factor, config.segment_size);
        for a in &req.assignments {
            let role = match a.role {
                ReplicaRole::Leader => Role::Leader,
                ReplicaRole::Follower => Role::Follower { leader: a.leader },
            };
            let log = self.store.host_replica(config.id, a.streamlet, role, factor, segment_size);
            if let (ReplicaRole::Follower, Some(fetcher)) = (a.role, self.fetcher.get()) {
                fetcher.follow(a.leader, log);
            }
        }
    }

    /// Appends every chunk; the response and the end offset each touched
    /// log's high watermark must reach before it may be sent (acks=all).
    fn append(&self, req: ProduceRequest) -> Result<Delayed> {
        // Kafka's log append checks every batch's CRC first, on leaders as
        // on followers: a corrupt chunk fails the request before a
        // partition lock is taken or any chunk of it appended.
        for chunk in ChunkIter::new(&req.chunks) {
            chunk?.verify()?;
        }
        let mut acks = Vec::with_capacity(req.chunk_count as usize);
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
        Ok(Delayed::Produce(ProduceResponse { acks }, waits))
    }

    /// Records the follower's positions — the replication acknowledgement
    /// that advances high watermarks.
    fn record_positions(&self, req: FollowerFetchRequest) -> Result<Delayed> {
        let mut logs = Vec::with_capacity(req.entries.len());
        for e in &req.entries {
            let log = self.store.replica(e.stream, e.partition)?;
            log.record_follower_fetch(req.follower, e.fetch_offset);
            logs.push(log);
        }
        Ok(Delayed::Fetch(req, logs))
    }

    /// The log of each entry of a consumer fetch.
    fn consumer_logs(&self, req: &FetchRequest) -> Result<Vec<Arc<PartitionLog>>> {
        req.entries.iter().map(|e| self.store.replica(e.stream, e.streamlet)).collect()
    }
}

/// A follower fetch's answer: the whole chunks past each entry's offset
/// up to its log's end. Every end is read before any entry is copied, so
/// the body is sized once (a first chunk above `max` alone regrows it).
fn follow(req: &FollowerFetchRequest, logs: &[Arc<PartitionLog>]) -> Result<Bytes> {
    let max = req.max_bytes_per_partition as usize;
    let ends: Vec<u64> = logs.iter().map(|log| log.leo()).collect();
    let bytes = req.entries.iter().zip(&ends);
    let bytes = bytes.map(|(e, end)| (end.saturating_sub(e.fetch_offset) as usize).min(max));
    let mut pack = FollowerFetchResponse::pack(req.entries.len(), bytes.sum())?;
    for ((e, log), &end) in req.entries.iter().zip(logs).zip(&ends) {
        log.read_chunks(e.fetch_offset, max, end, |data| {
            pack.result(e, log.high_watermark(), data)
        })?;
    }
    Ok(pack.finish())
}

/// A consumer fetch's answer: the whole chunks past each entry's offset
/// up to its log's high watermark, read as [`follow`] reads.
fn consume(req: &FetchRequest, logs: &[Arc<PartitionLog>]) -> Result<Bytes> {
    let hws: Vec<u64> = logs.iter().map(|log| log.high_watermark()).collect();
    let at = |e: &FetchEntry| u64::from(e.cursor.offset);
    let bytes = req.entries.iter().zip(&hws);
    let bytes = bytes.map(|(e, hw)| (hw.saturating_sub(at(e)) as usize).min(e.max_bytes as usize));
    let mut pack = FetchResponse::pack(req.entries.len(), bytes.sum())?;
    for ((e, log), &hw) in req.entries.iter().zip(logs).zip(&hws) {
        log.read_chunks(at(e), e.max_bytes as usize, hw, |data| {
            let cursor = SlotCursor { offset: e.cursor.offset + data.len() as u32, ..SlotCursor::START };
            pack.result(e, cursor, data.len(), [data])
        })?;
    }
    Ok(pack.finish())
}

impl Service for KafkaBrokerService {
    /// Ping, host and seek, answered at once; produce and both fetches
    /// come only through [`KafkaBrokerService::serve`].
    fn handle(&self, ctx: &RequestContext, payload: Bytes) -> Result<Bytes> {
        match ctx.opcode {
            OpCode::Ping => Ok(Bytes::new()),
            OpCode::HostStream => {
                self.handle_host(HostStreamRequest::decode(&payload)?);
                Ok(Bytes::new())
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

    /// A produce and both fetches may wait in the purgatory; whatever
    /// completes them sends their reply.
    fn serve(&self, ctx: &RequestContext, payload: Bytes, reply: Reply) {
        let op = match ctx.opcode {
            OpCode::Produce => ProduceRequest::decode_bytes(&payload).and_then(|r| self.append(r)),
            OpCode::FollowerFetch => {
                FollowerFetchRequest::decode(&payload).and_then(|r| self.record_positions(r))
            }
            OpCode::Fetch => FetchRequest::decode(&payload)
                .and_then(|r| self.consumer_logs(&r).map(|logs| Delayed::Consume(r, logs))),
            _ => return reply.send(self.handle(ctx, payload)),
        };
        match op {
            Ok(op) => self.store.settle(op, reply),
            Err(e) => reply.send(Err(e)),
        }
    }
}
