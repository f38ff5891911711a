//! The broker (ingestion) service: produce and fetch paths (paper §IV-B).
//!
//! Produce path, per chunk: identify the stream object and the streamlet's
//! active group from the producer id; append the chunk to the group's open
//! segment (physical append, header fields assigned in place); append a
//! chunk *reference* to the streamlet's virtual log — atomically with the
//! physical append, under the slot lock. Once all chunks of the request
//! are appended, the worker registers the request on every virtual log it
//! touched and is free: the request keeps its `Reply`, and the thread that
//! lands the last round it waits for acknowledges the producer. A failed
//! round fails the request and strands its chunks, invisible, until the
//! re-send's replay ships them. Integrity note: payload checksums are
//! producer-computed and verified on the *backups* (and at recovery); the
//! broker append path stays copy-and-patch only, preserving the paper's
//! zero-copy claim.
//!
//! Fetch path: consumers read whole chunks below the durable head only.
//! A fetch walks its entries' segments, copying nothing, and packs the
//! chunks it found straight from them into the reply body: one copy per
//! byte. A fetch that finds none packs nothing and waits in the broker's
//! purgatory until one of its slots' epochs moves — the thread that answers
//! a produce made durable there moves it (the one that lands its last
//! round; at R1 its own) — or `FETCH_MAX_WAIT` passes.

use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use kera_common::config::StreamConfig;
use kera_common::ids::{NodeId, StreamId};
use kera_common::metrics::Counter;
use kera_common::{KeraError, Result};
use kera_obs::{Gauge, NodeObs, Stage, TraceContext};
use kera_rpc::purgatory::{Delayed, Purgatory};
use kera_rpc::{Reply, RequestContext, RpcClient, Service};
use kera_storage::store::StreamStore;
use kera_storage::streamlet::{ChunkRun, SlotAppend, Streamlet};
use kera_vlog::selector::SelectionPolicy;
use kera_vlog::vseg::ChunkRef;
use kera_vlog::{VirtualLog, VirtualLogSet};
use kera_wire::chunk::ChunkIter;
use kera_wire::cursor::SlotCursor;
use kera_wire::frames::OpCode;
use kera_wire::messages::{
    BackupFreeRequest, DeleteStreamRequest, FetchRequest, FetchResponse,
    HostStreamRequest, NodeRole, ProduceRequest, ProduceResponse, ReplicaRole, SeekRequest,
    SeekResponse, FETCH_MAX_WAIT,
};

use crate::channel::RpcBackupChannel;
use crate::introspect::{self, HealthFields};

/// Budget of one backup write (its retransmits included).
const REPLICATION_TIMEOUT: Duration = Duration::from_secs(5);

/// A produce appended: its acks, the logs it touched and its slots.
type Appended = (ProduceResponse, Vec<(Arc<VirtualLog>, u64)>, Vec<Slot>);

/// A slot of a streamlet.
type Slot = (Arc<Streamlet>, u32);

/// A fetch walked: the runs of all its entries in entry order, each
/// entry's next cursor, bytes and end in `runs`, and the bytes in all.
struct Walk {
    runs: Vec<ChunkRun>,
    entries: Vec<(SlotCursor, usize, usize)>,
    bytes: usize,
}

/// A fetch, with each entry's slot and the epoch it read there before
/// its walk: parked, it is ready once one of those epochs has moved.
struct Fetch {
    req: FetchRequest,
    slots: Vec<(Arc<Streamlet>, u32, u64)>,
}

impl Delayed for Fetch {
    type Owner = BrokerService;

    fn ready(&self) -> bool {
        self.slots.iter().any(|(streamlet, slot, epoch)| streamlet.epoch(*slot) != *epoch)
    }

    fn answer(self, broker: &BrokerService, reply: Reply, timed_out: bool) {
        broker.fetches_expired.add(u64::from(timed_out));
        reply.send(broker.served(&self.req, broker.walk(&self)));
    }
}

/// The broker service of one node.
pub struct BrokerService {
    /// Itself, for the closure a produce's answer runs.
    me: Weak<BrokerService>,
    node: NodeId,
    store: StreamStore,
    vlogs: VirtualLogSet,
    /// The replication channel produce workers ship over (and the RPC
    /// handle inside it: stream deletion's backup frees); created when
    /// the broker is attached to its runtime.
    channel: OnceLock<RpcBackupChannel>,
    /// Observability handle; the counters below live in its registry.
    obs: Arc<NodeObs>,
    /// Chunks ingested (`kera.broker.chunks_in`).
    pub chunks_in: Arc<Counter>,
    /// Records ingested (`kera.broker.records_in`).
    pub records_in: Arc<Counter>,
    /// Chunk bytes ingested (`kera.broker.bytes_in`).
    pub bytes_in: Arc<Counter>,
    /// Fetch requests served (`kera.broker.fetches`).
    pub fetches: Arc<Counter>,
    /// Fetches that found no durable data.
    parked: Arc<Purgatory<Fetch>>,
    /// Fetches that found no data and waited (`kera.broker.fetches_parked`).
    pub fetches_parked: Arc<Counter>,
    /// Parked fetches answered at their deadline (`kera.broker.fetches_expired`).
    pub fetches_expired: Arc<Counter>,
    /// Retried chunks answered from the per-slot replay cache instead of
    /// being appended a second time (`kera.broker.chunks_replayed`).
    pub chunks_replayed: Arc<Counter>,
    /// Chunk bytes served to consumers (`kera.broker.bytes_fetched`).
    pub bytes_fetched: Arc<Counter>,
    /// Bytes ingested but not yet fetched by any consumer
    /// (`kera.broker.consumer_lag_bytes`; refreshed on introspection).
    consumer_lag_gauge: Arc<Gauge>,
    /// Bytes appended to virtual logs but not yet durable on backups
    /// (`kera.broker.replication_lag_bytes`; refreshed on introspection).
    replication_lag_gauge: Arc<Gauge>,
}

impl BrokerService {
    /// `colocated_backup`: the backup service on this broker's machine
    /// (never selected — it would die with the broker);
    /// `cluster_backups`: every backup node in the cluster (virtual logs
    /// pick per-virtual-segment subsets from it).
    pub fn new(node: NodeId, colocated_backup: NodeId, cluster_backups: Vec<NodeId>) -> Arc<Self> {
        Self::with_obs(node, colocated_backup, cluster_backups, NodeObs::disabled(node.raw()))
    }

    /// Full constructor: binds the broker (and its virtual logs) to a
    /// node's observability handle — ingestion counters register as
    /// `kera.broker.*`; produce requests emit `append` and `replicate`
    /// spans under the serving RPC's trace.
    pub fn with_obs(
        node: NodeId,
        colocated_backup: NodeId,
        cluster_backups: Vec<NodeId>,
        obs: Arc<NodeObs>,
    ) -> Arc<Self> {
        Arc::new_cyclic(|me| {
            let reg = obs.registry();
            Self {
                me: Weak::clone(me),
                node,
                store: StreamStore::new(),
                vlogs: VirtualLogSet::new_with_obs(
                    node,
                    colocated_backup,
                    cluster_backups,
                    SelectionPolicy::RoundRobin,
                    Arc::clone(&obs),
                ),
                channel: OnceLock::new(),
                chunks_in: reg.counter("kera.broker.chunks_in", &[]),
                records_in: reg.counter("kera.broker.records_in", &[]),
                bytes_in: reg.counter("kera.broker.bytes_in", &[]),
                fetches: reg.counter("kera.broker.fetches", &[]),
                parked: Purgatory::new(Weak::clone(me)),
                fetches_parked: reg.counter("kera.broker.fetches_parked", &[]),
                fetches_expired: reg.counter("kera.broker.fetches_expired", &[]),
                chunks_replayed: reg.counter("kera.broker.chunks_replayed", &[]),
                bytes_fetched: reg.counter("kera.broker.bytes_fetched", &[]),
                consumer_lag_gauge: reg.gauge("kera.broker.consumer_lag_bytes", &[]),
                replication_lag_gauge: reg.gauge("kera.broker.replication_lag_bytes", &[]),
                obs,
            }
        })
    }

    /// Wires the service to its node runtime's RPC client (must be called
    /// once, right after `NodeRuntime::start`).
    pub fn attach_client(&self, client: RpcClient) {
        let _ = self.channel.set(RpcBackupChannel::new(client, REPLICATION_TIMEOUT));
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn obs(&self) -> &Arc<NodeObs> {
        &self.obs
    }

    pub fn store(&self) -> &StreamStore {
        &self.store
    }

    pub fn vlogs(&self) -> &VirtualLogSet {
        &self.vlogs
    }

    /// Bytes ingested but never fetched by any consumer — the broker's
    /// aggregate committed-offset lag.
    pub fn consumer_lag_bytes(&self) -> u64 {
        self.bytes_in.get().saturating_sub(self.bytes_fetched.get())
    }

    fn handle_host(&self, req: HostStreamRequest) -> Result<()> {
        let leaders: Vec<_> = req
            .assignments
            .iter()
            .filter(|a| a.role == ReplicaRole::Leader)
            .map(|a| a.streamlet)
            .collect();
        self.store.host(req.metadata, &leaders);
        Ok(())
    }

    /// Appends a produce, physically and (R > 1) to its slots' virtual
    /// logs: the acks, the logs touched with the highest ticket each, and
    /// the slots appended to.
    fn append_produce(&self, payload: &Bytes) -> Result<Appended> {
        // Slice the chunk train straight out of the receive buffer: the
        // broker never re-owns the payload.
        let req = ProduceRequest::decode_bytes(payload)?;
        let mut acks = Vec::with_capacity(req.chunk_count as usize);
        // Touched virtual logs, deduped, with the highest ticket each.
        let mut pending: Vec<(Arc<VirtualLog>, u64)> = Vec::new();
        let mut slots: Vec<Slot> = Vec::new();

        // The append stage, parented to the serving RPC's span (the
        // worker thread's current context).
        let mut append_span = self.obs.span(Stage::Append, kera_obs::current());
        append_span.set_aux(u64::from(req.chunk_count));

        for chunk in ChunkIter::new(&req.chunks) {
            let chunk = chunk?;
            let h = *chunk.header();
            if h.record_count == 0 {
                continue; // empty chunks carry nothing; skip quietly
            }
            let hosted = self.store.stream(h.stream)?;
            let config: StreamConfig = hosted.config().clone();
            let streamlet = hosted
                .streamlet(h.streamlet)
                .ok_or(KeraError::UnknownStreamlet(h.stream, h.streamlet))?;

            let slot = streamlet.slot_of(h.producer);
            if !slots.iter().any(|(s, i)| Arc::ptr_eq(s, &streamlet) && *i == slot) {
                slots.push((Arc::clone(&streamlet), slot));
            }
            // R > 1: the chunk's reference joins its slot's virtual log and
            // the ticket gates the response; R = 1: durable as appended.
            let vlog = if config.replication.factor > 1 {
                Some(self.vlogs.log_for(&config, h.streamlet, slot)?)
            } else {
                None
            };
            let checksum = h.checksum;
            let outcome = streamlet.append_chunk_tracked(
                h.producer,
                chunk.bytes(),
                h.record_count,
                h.sequence_tag(),
                |a| match &vlog {
                    Some(vlog) => vlog
                        .append(ChunkRef {
                            segment: Arc::clone(&a.segment),
                            offset: a.offset_in_segment,
                            len: a.len,
                            checksum,
                            gref: a.gref,
                        })
                        .map(Some),
                    None => {
                        a.segment.make_all_durable();
                        Ok(None)
                    }
                },
            )?;
            let (ack, ticket, fresh) = match outcome {
                SlotAppend::Fresh { append, token } => (append.to_ack(), token, true),
                SlotAppend::Replay { ack, token } => (ack, token, false),
            };
            // A replayed chunk still gates the response on the
            // durability of its *original* append: wait on the ticket
            // recorded back then.
            if let (Some(vlog), Some(ticket)) = (vlog, ticket) {
                match pending.iter_mut().find(|(l, _)| Arc::ptr_eq(l, &vlog)) {
                    Some((_, t)) => *t = (*t).max(ticket),
                    None => pending.push((vlog, ticket)),
                }
            }
            acks.push(ack);
            if !fresh {
                self.chunks_replayed.inc();
                continue;
            }
            self.chunks_in.inc();
            self.records_in.add(u64::from(h.record_count));
            self.bytes_in.add(chunk.len() as u64);
        }

        append_span.finish();
        Ok((ProduceResponse { acks }, pending, slots))
    }

    /// Unhosts a deleted stream: groups close, dedicated virtual logs are
    /// dropped and their replicated segments freed on every backup.
    /// Shared-pool logs stay (their space interleaves live streams; the
    /// paper leaves reclaiming it to log cleaning).
    fn handle_delete(&self, stream: StreamId) -> Result<()> {
        self.store.remove(stream);
        let dropped = self.vlogs.remove_stream(stream);
        if dropped.is_empty() {
            return Ok(());
        }
        // Free replicated segments on every backup (idempotent; dead
        // backups are skipped). Nobody waits: the node retransmits each
        // free until it is answered or its budget is spent.
        if let Some(channel) = self.channel.get() {
            for vlog in dropped {
                let payload = BackupFreeRequest { source: self.node, vlog: vlog.id() }.encode();
                for &backup in self.vlogs.cluster_backups() {
                    // lint: allow(no-hot-copy) — refcount clone of a tiny control frame
                    let free = payload.clone();
                    let client = &channel.client;
                    client.call_detached(backup, OpCode::BackupFree, free, REPLICATION_TIMEOUT, drop);
                }
            }
        }
        Ok(())
    }

    /// A fetch's slots, each with its epoch, read before any walk.
    fn slots(&self, req: FetchRequest) -> Result<Fetch> {
        let slots = req.entries.iter().map(|e| {
            let streamlet = self.store.streamlet(e.stream, e.streamlet)?;
            let epoch = streamlet.epoch(e.slot);
            Ok((streamlet, e.slot, epoch))
        });
        Ok(Fetch { slots: slots.collect::<Result<_>>()?, req })
    }

    /// Walks every entry of a fetch up to its durable head, copying nothing.
    fn walk(&self, fetch: &Fetch) -> Walk {
        let entries = Vec::with_capacity(fetch.req.entries.len());
        let mut walk = Walk { runs: Vec::new(), entries, bytes: 0 };
        for (e, (streamlet, ..)) in fetch.req.entries.iter().zip(&fetch.slots) {
            let (bytes, cursor) =
                streamlet.walk_slot(e.slot, e.cursor, e.max_bytes as usize, &mut walk.runs);
            walk.bytes += bytes;
            walk.entries.push((cursor, bytes, walk.runs.len()));
        }
        walk
    }

    /// Counts a fetch answered and packs its reply: each chunk byte is
    /// copied once, from its segment into the body.
    fn served(&self, req: &FetchRequest, walk: Walk) -> Result<Bytes> {
        self.fetches.inc();
        self.bytes_fetched.add(walk.bytes as u64);
        self.obs.bump_progress();
        let mut pack = FetchResponse::pack(req.entries.len(), walk.bytes)?;
        let mut from = 0;
        for (e, &(cursor, bytes, to)) in req.entries.iter().zip(&walk.entries) {
            let runs = walk.runs[from..to].iter();
            pack.result(e, cursor, bytes, runs.map(|(segment, at, len)| segment.read(*at, *len)))?;
            from = to;
        }
        Ok(pack.finish())
    }

    /// Answers a fetch at once if any entry has durable data, else parks
    /// it until one of its slots' epochs moves or `FETCH_MAX_WAIT` passes:
    /// an empty walk packs nothing.
    fn fetch(&self, fetch: Fetch, reply: Reply) {
        let walk = self.walk(&fetch);
        if walk.bytes > 0 {
            return reply.send(self.served(&fetch.req, walk));
        }
        let parked = self.parked.park(Instant::now() + FETCH_MAX_WAIT, fetch, reply);
        self.fetches_parked.add(u64::from(parked));
    }

    /// Once a produce is durable: moves its slots' epochs and answers the
    /// fetches parked on them.
    fn wake(&self, slots: &[Slot]) {
        slots.iter().for_each(|(streamlet, slot)| streamlet.advance(*slot));
        self.parked.settle();
    }

    /// Serves the Introspect RPC: health from the broker's own stores,
    /// metrics/traces via the shared helper. Refreshes the lag gauges as
    /// a side effect so metric scrapes see them too.
    fn handle_introspect(&self, payload: &[u8]) -> Result<Bytes> {
        let logs = self.vlogs.all_logs();
        let appended: u64 = logs.iter().map(|l| l.appended()).sum();
        let durable: u64 = logs.iter().map(|l| l.durable()).sum();
        let segments: usize = logs.iter().map(|l| l.live_vsegs()).sum();
        let consumer_lag = self.consumer_lag_bytes();
        self.consumer_lag_gauge.set(consumer_lag.min(i64::MAX as u64) as i64);
        self.replication_lag_gauge
            .set(appended.saturating_sub(durable).min(i64::MAX as u64) as i64);
        introspect::serve(
            &self.obs,
            payload,
            HealthFields {
                role: NodeRole::Broker,
                is_leader: false,
                term: 0,
                vlogs: self.vlogs.log_count() as u32,
                segments: segments as u32,
                appended_bytes: appended,
                durable_bytes: durable,
                consumer_lag_bytes: consumer_lag,
            },
        )
    }
}

impl Service for BrokerService {
    fn handle(&self, ctx: &RequestContext, payload: Bytes) -> Result<Bytes> {
        match ctx.opcode {
            OpCode::Ping => Ok(Bytes::new()),
            OpCode::HostStream => {
                let req = HostStreamRequest::decode(&payload)?;
                self.handle_host(req)?;
                Ok(Bytes::new())
            }
            // Answered here only when its chunks are durable as appended
            // (R1): a replicated one waits for its rounds (`serve`).
            OpCode::Produce | OpCode::RecoveryIngest => match self.append_produce(&payload)? {
                (resp, touched, slots) if touched.is_empty() => {
                    self.wake(&slots);
                    self.obs.bump_progress();
                    Ok(resp.encode())
                }
                _ => Err(KeraError::Protocol("replicated produce needs `serve`".into())),
            },
            OpCode::Fetch => {
                let fetch = self.slots(FetchRequest::decode(&payload)?)?;
                self.served(&fetch.req, self.walk(&fetch))
            }
            OpCode::Introspect => self.handle_introspect(&payload),
            OpCode::Seek => {
                let req = SeekRequest::decode(&payload)?;
                let streamlet = self.store.streamlet(req.stream, req.streamlet)?;
                let resp = match streamlet.seek(req.slot, req.record_offset) {
                    Some(cursor) => SeekResponse { found: true, cursor },
                    None => SeekResponse { found: false, cursor: SlotCursor::START },
                };
                Ok(resp.encode())
            }
            OpCode::DeleteStream => {
                self.handle_delete(DeleteStreamRequest::decode(&payload)?.stream)?;
                Ok(Bytes::new())
            }
            other => Err(KeraError::Protocol(format!("broker cannot serve {other:?}"))),
        }
    }

    /// A produce — recovery re-ingestion is "handled as a normal producer
    /// request" (paper §IV-B) — frees its worker once its chunks are
    /// appended; the thread that lands the last of its rounds answers it,
    /// and the fetches parked on its slots. A fetch may park (`fetch`).
    fn serve(&self, ctx: &RequestContext, payload: Bytes, reply: Reply) {
        if ctx.opcode == OpCode::Fetch {
            return match FetchRequest::decode(&payload).and_then(|req| self.slots(req)) {
                Ok(fetch) => self.fetch(fetch, reply),
                Err(e) => reply.send(Err(e)),
            };
        }
        let produce = matches!(ctx.opcode, OpCode::Produce | OpCode::RecoveryIngest);
        let Some(channel) = self.channel.get().filter(|_| produce) else {
            return reply.send(self.handle(ctx, payload));
        };
        let (resp, touched, slots) = match self.append_produce(&payload) {
            Ok(appended) => appended,
            Err(e) => return reply.send(Err(e)),
        };
        // The replicate stage, registration to answer (none at R1); the
        // rounds begun for the request nest under it.
        let parent = if touched.is_empty() { TraceContext::NONE } else { kera_obs::current() };
        let mut span = self.obs.span(Stage::Replicate, parent);
        span.set_aux(touched.len() as u64);
        let (trace, obs, me) = (span.context(), Arc::clone(&self.obs), Weak::clone(&self.me));
        let answer = move |durable: Result<()>| {
            drop(span);
            if let (Ok(()), Some(broker)) = (&durable, me.upgrade()) {
                broker.wake(&slots);
            }
            reply.send(durable.map(|()| {
                obs.bump_progress();
                resp.encode()
            }));
        };
        kera_vlog::wait_all(touched, channel, trace, Box::new(answer));
    }
}

#[cfg(test)]
mod tests {
    use kera_common::config::ReplicationConfig;
    use kera_common::ids::{ConsumerId, ProducerId, StreamletId};
    use kera_rpc::{InMemNetwork, NodeRuntime, NullService, PendingCall};
    use kera_wire::chunk::ChunkBuilder;
    use kera_wire::messages::{FetchEntry, HostAssignment, StreamMetadata, StreamletPlacement};
    use kera_wire::record::Record;

    use super::*;

    const STREAM: StreamId = StreamId(1);
    const T: Duration = Duration::from_secs(5);

    /// A fetch parked on slot 0 of a two-slot R1 streamlet is answered by
    /// a produce that makes data durable there, and neither answered nor
    /// walked again by one on slot 1.
    #[test]
    fn a_parked_fetch_waits_only_on_its_own_slots() {
        let net = InMemNetwork::new();
        let broker = BrokerService::new(NodeId(1), NodeId(1001), vec![NodeId(1001)]);
        let service = Arc::clone(&broker) as Arc<dyn Service>;
        let broker_rt = NodeRuntime::start(Arc::new(net.register(NodeId(1))), service, 2);
        broker.attach_client(broker_rt.client());
        let client_rt =
            NodeRuntime::start(Arc::new(net.register(NodeId(9))), Arc::new(NullService), 1);
        let client = client_rt.client();
        let config = StreamConfig {
            active_groups: 2,
            segment_size: 1 << 16,
            replication: ReplicationConfig { factor: 1, ..ReplicationConfig::default() },
            ..StreamConfig::kafka_like(STREAM, 1)
        };
        let host = HostStreamRequest {
            metadata: StreamMetadata {
                config,
                placements: vec![StreamletPlacement {
                    streamlet: StreamletId(0),
                    broker: NodeId(1),
                }],
            },
            assignments: vec![HostAssignment {
                streamlet: StreamletId(0),
                role: ReplicaRole::Leader,
                leader: NodeId(1),
            }],
        };
        client.call(NodeId(1), OpCode::HostStream, host.encode(), T).unwrap();
        let produce = |producer: u32| {
            let mut chunk = ChunkBuilder::new(1024, ProducerId(producer), STREAM, StreamletId(0));
            assert!(chunk.append(&Record::value_only(&[7; 100])));
            let req = ProduceRequest::encode_chunks(ProducerId(producer), false, &[chunk.seal()]);
            client.call(NodeId(1), OpCode::Produce, req, T).unwrap();
        };
        let entry = FetchEntry {
            stream: STREAM,
            streamlet: StreamletId(0),
            slot: 0,
            cursor: SlotCursor::START,
            max_bytes: 1 << 20,
        };
        let req = FetchRequest { consumer: ConsumerId(1), entries: vec![entry] };
        let mut parked: PendingCall = client.call_async(NodeId(1), OpCode::Fetch, req.encode(), T);
        let deadline = Instant::now() + T;
        while broker.fetches_parked.get() < 1 {
            assert!(Instant::now() < deadline, "the fetch never parked");
            std::thread::sleep(Duration::from_millis(1));
        }

        // In memory, a reply is delivered on the thread that sends it: a
        // fetch the produce answered would be in before the produce's own.
        produce(1);
        assert!(parked.poll().is_none(), "a produce on slot 1 answered a fetch of slot 0");
        assert_eq!(broker.fetches.get(), 0);
        produce(2);
        let resp = FetchResponse::decode_bytes(&parked.wait(T).unwrap()).unwrap();
        assert_eq!(ChunkIter::new(&resp.results[0].data).count(), 1);
        assert_eq!((broker.fetches.get(), broker.fetches_expired.get()), (1, 0));
    }
}
