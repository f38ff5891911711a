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
//! byte. A fetch that finds none packs nothing and is parked, answered by
//! the thread that answers a produce made durable in one of its slots (the
//! one that landed its last round; at R1 its own) or at `FETCH_MAX_WAIT`
//! by one re-armed timer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use kera_common::config::StreamConfig;
use kera_common::ids::{NodeId, StreamId, StreamletId};
use kera_common::metrics::Counter;
use kera_common::{KeraError, Result};
use kera_obs::{Gauge, NodeObs, Stage, TraceContext};
use kera_rpc::{Reply, RequestContext, RpcClient, Service};
use kera_storage::store::StreamStore;
use kera_storage::streamlet::{ChunkRun, SlotAppend};
use kera_vlog::selector::SelectionPolicy;
use kera_vlog::vseg::ChunkRef;
use kera_vlog::{VirtualLog, VirtualLogSet};
use kera_wire::chunk::ChunkIter;
use kera_wire::cursor::SlotCursor;
use kera_wire::frames::OpCode;
use kera_wire::messages::{
    BackupFreeRequest, DeleteStreamRequest, FetchEntry, FetchRequest, FetchResponse,
    HostStreamRequest, NodeRole, ProduceRequest, ProduceResponse, ReplicaRole, SeekRequest,
    SeekResponse, FETCH_MAX_WAIT,
};
use parking_lot::Mutex;

use crate::channel::RpcBackupChannel;
use crate::introspect::{self, HealthFields};

/// Budget of one backup write (its retransmits included).
const REPLICATION_TIMEOUT: Duration = Duration::from_secs(5);

/// A produce appended: its acks, the logs it touched and its slots.
type Appended = (ProduceResponse, Vec<(Arc<VirtualLog>, u64)>, Vec<Slot>);

/// A slot of a streamlet, as a fetch entry names it.
type Slot = (StreamId, StreamletId, u32);

/// A fetch walked: the runs of all its entries in entry order, each
/// entry's next cursor, bytes and end in `runs`, and the bytes in all.
struct Walk {
    runs: Vec<ChunkRun>,
    entries: Vec<(SlotCursor, usize, usize)>,
    bytes: usize,
}

/// Fetches with no durable data and their deadlines, parked and taken
/// under `broker.parked`, and whether the expiry timer is armed.
#[derive(Default)]
struct Parked {
    fetches: Vec<(Instant, FetchRequest, Reply)>,
    armed: bool,
}

/// The broker service of one node.
pub struct BrokerService {
    /// Itself, for the closures a produce's answer and the expiry timer run.
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
    parked: Mutex<Parked>,
    /// Produces answered durable: a fetch parks only if none was since its walk.
    landed: AtomicU64,
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
                parked: Mutex::named("broker.parked", Parked::default()),
                landed: AtomicU64::new(0),
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
            if !slots.contains(&(h.stream, h.streamlet, slot)) {
                slots.push((h.stream, h.streamlet, slot));
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

    /// Walks every entry of a fetch up to its durable head, copying nothing.
    fn walk(&self, req: &FetchRequest) -> Result<Walk> {
        let entries = Vec::with_capacity(req.entries.len());
        let mut walk = Walk { runs: Vec::new(), entries, bytes: 0 };
        for e in &req.entries {
            let streamlet = self.store.streamlet(e.stream, e.streamlet)?;
            let (bytes, cursor) =
                streamlet.walk_slot(e.slot, e.cursor, e.max_bytes as usize, &mut walk.runs);
            walk.bytes += bytes;
            walk.entries.push((cursor, bytes, walk.runs.len()));
        }
        Ok(walk)
    }

    /// Counts a fetch answered and packs its reply: each chunk byte is
    /// copied once, from its segment into the body.
    fn served(&self, req: &FetchRequest, walk: Result<Walk>) -> Result<Bytes> {
        let walk = walk?;
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
    /// it for `wake` or `expire`: an empty walk packs nothing.
    fn fetch(&self, req: FetchRequest, reply: Reply) {
        loop {
            let seen = self.landed.load(Ordering::SeqCst);
            match self.walk(&req) {
                Ok(walk) if walk.bytes == 0 => {}
                walk => return reply.send(self.served(&req, walk)),
            }
            // Under the lock `wake` takes: a produce answered since the
            // walk may have landed what it missed; a later one finds it.
            let due = Instant::now() + FETCH_MAX_WAIT;
            let mut parked = self.parked.lock();
            if self.landed.load(Ordering::SeqCst) != seen {
                continue;
            }
            parked.armed = parked.armed || self.arm(&reply, due);
            parked.fetches.push((due, req, reply));
            return self.fetches_parked.inc();
        }
    }

    /// Arms the broker's one expiry timer, on the node `reply` came to.
    fn arm(&self, reply: &Reply, due: Instant) -> bool {
        let me = Weak::clone(&self.me);
        reply.timer(due, move || me.upgrade().into_iter().for_each(|broker| broker.expire()))
    }

    /// Once a produce is durable: answers the fetches parked on its slots.
    fn wake(&self, slots: &[Slot]) {
        self.landed.fetch_add(1, Ordering::SeqCst);
        let reads = |e: &FetchEntry| slots.contains(&(e.stream, e.streamlet, e.slot));
        let ready: Vec<_> =
            self.parked.lock().fetches.extract_if(.., |p| p.1.entries.iter().any(reads)).collect();
        for (_, req, reply) in ready {
            reply.send(self.served(&req, self.walk(&req)));
        }
    }

    /// The expiry timer: answers the fetches due and re-arms for the next.
    fn expire(&self) {
        let now = Instant::now();
        let due: Vec<_> = {
            let mut parked = self.parked.lock();
            let due = parked.fetches.extract_if(.., |(due, ..)| *due <= now).collect();
            let next = parked.fetches.iter().min_by_key(|(due, ..)| *due);
            let armed = next.is_some_and(|(next, _, reply)| self.arm(reply, *next));
            parked.armed = armed;
            due
        };
        for (_, req, reply) in due {
            self.fetches_expired.inc();
            reply.send(self.served(&req, self.walk(&req)));
        }
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
                let req = FetchRequest::decode(&payload)?;
                self.served(&req, self.walk(&req))
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
            return match FetchRequest::decode(&payload) {
                Ok(req) => self.fetch(req, reply),
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
