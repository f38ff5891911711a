//! The broker (ingestion) service: produce and fetch paths (paper §IV-B).
//!
//! Produce path, per chunk: identify the stream object and the streamlet's
//! active group from the producer id; append the chunk to the group's open
//! segment (physical append, header fields assigned in place); append a
//! chunk *reference* to the streamlet's virtual log — atomically with the
//! physical append, under the slot lock. Once all chunks of the request
//! are appended, the worker that appended them synchronizes the touched
//! virtual logs on the backups itself (`kera_vlog::sync`: one round per
//! log, all begun before any is finished) and acknowledges the producer.
//! A failed round fails the request and strands its chunks, invisible,
//! until the re-send's replay ships them. Integrity note: payload checksums are
//! producer-computed and verified on the *backups* (and at recovery); the
//! broker append path stays copy-and-patch only, preserving the paper's
//! zero-copy claim.
//!
//! Fetch path: consumers read whole chunks below the durable head only.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bytes::Bytes;
use kera_common::config::{QuotaConfig, StreamConfig};
use kera_common::ids::{NodeId, StreamId};
use kera_common::metrics::Counter;
use kera_common::{KeraError, Result};
use kera_obs::{Gauge, NodeObs, Stage};
use kera_rpc::{RequestContext, RpcClient, Service};
use kera_storage::store::StreamStore;
use kera_storage::streamlet::SlotAppend;
use kera_vlog::selector::SelectionPolicy;
use kera_vlog::vseg::ChunkRef;
use kera_vlog::{VirtualLog, VirtualLogSet};
use kera_wire::chunk::ChunkIter;
use kera_wire::frames::OpCode;
use kera_wire::messages::{
    BackupFreeRequest, DeleteStreamRequest, FetchRequest, FetchResponse, FetchResult,
    HostStreamRequest, NodeRole, ProduceRequest, ProduceResponse, ReplicaRole, SeekRequest,
    SeekResponse,
};

use crate::channel::RpcBackupChannel;
use crate::introspect::{self, HealthFields};
use crate::quota::{AdmissionControl, AdmissionPermit};

/// Timeout for one replication round.
const REPLICATION_TIMEOUT: Duration = Duration::from_secs(5);

/// The broker service of one node.
pub struct BrokerService {
    node: NodeId,
    store: StreamStore,
    vlogs: VirtualLogSet,
    /// The replication channel produce workers ship over (and the RPC
    /// handle inside it: stream deletion's backup frees); created when
    /// the broker is attached to its runtime.
    channel: OnceLock<RpcBackupChannel>,
    /// Observability handle; the counters below live in its registry.
    obs: Arc<NodeObs>,
    /// Multi-tenant admission gate on the produce/fetch paths (inert
    /// unless `QuotaConfig::enabled`).
    admission: Arc<AdmissionControl>,
    /// Chunks ingested (`kera.broker.chunks_in`).
    pub chunks_in: Arc<Counter>,
    /// Records ingested (`kera.broker.records_in`).
    pub records_in: Arc<Counter>,
    /// Chunk bytes ingested (`kera.broker.bytes_in`).
    pub bytes_in: Arc<Counter>,
    /// Fetch requests served (`kera.broker.fetches`).
    pub fetches: Arc<Counter>,
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
        Self::with_quotas(
            node,
            colocated_backup,
            cluster_backups,
            NodeObs::disabled(node.raw()),
            QuotaConfig::default(),
        )
    }

    /// Full constructor: binds the broker (and its virtual logs) to a
    /// node's observability handle — ingestion counters register as
    /// `kera.broker.*`; produce requests emit `append` and `replicate`
    /// spans under the serving RPC's trace — and takes the tenant quota
    /// configuration (the default is disabled — no admission gate).
    pub fn with_quotas(
        node: NodeId,
        colocated_backup: NodeId,
        cluster_backups: Vec<NodeId>,
        obs: Arc<NodeObs>,
        quotas: QuotaConfig,
    ) -> Arc<Self> {
        let reg = obs.registry();
        Arc::new(Self {
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
            chunks_replayed: reg.counter("kera.broker.chunks_replayed", &[]),
            bytes_fetched: reg.counter("kera.broker.bytes_fetched", &[]),
            consumer_lag_gauge: reg.gauge("kera.broker.consumer_lag_bytes", &[]),
            replication_lag_gauge: reg.gauge("kera.broker.replication_lag_bytes", &[]),
            admission: AdmissionControl::new(quotas, Arc::clone(&obs)),
            obs,
        })
    }

    /// The admission gate (runtime quota flips, chaos drills, tooling).
    pub fn admission(&self) -> &Arc<AdmissionControl> {
        &self.admission
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

    fn handle_produce(
        &self,
        req: ProduceRequest,
        durability_timeout: Duration,
    ) -> Result<ProduceResponse> {
        let mut acks = Vec::with_capacity(req.chunk_count as usize);
        // Touched virtual logs, deduped, with the highest ticket each.
        let mut pending: Vec<(Arc<VirtualLog>, u64)> = Vec::new();

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

            // R > 1: the chunk's reference joins its slot's virtual log and
            // the ticket gates the response; R = 1: durable as appended.
            let vlog = if config.replication.factor > 1 {
                Some(self.vlogs.log_for(&config, h.streamlet, streamlet.slot_of(h.producer))?)
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

        // "Once all chunks of a request are appended, the corresponding
        // replicated virtual logs are synchronized on backups" (§IV-B),
        // by this worker.
        if !pending.is_empty() {
            // The replicate stage: how long this request took to make its
            // chunks durable. Entered: its `vlog_ship` rounds nest under it.
            let mut rep_span = self.obs.span(Stage::Replicate, kera_obs::current());
            rep_span.set_aux(pending.len() as u64);
            let _in_span = rep_span.is_recording().then(|| kera_obs::enter(rep_span.context()));
            let channel = self
                .channel
                .get()
                .ok_or_else(|| KeraError::Protocol("broker not attached to its runtime".into()))?;
            kera_vlog::sync(&pending, channel, durability_timeout)?;
        }
        self.obs.bump_progress();
        Ok(ProduceResponse { acks })
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
        // backups are skipped; fire-and-forget).
        if let Some(channel) = self.channel.get() {
            for vlog in dropped {
                let payload = BackupFreeRequest { source: self.node, vlog: vlog.id() }.encode();
                for &backup in self.vlogs.cluster_backups() {
                    // lint: allow(no-hot-copy) — refcount clone of a tiny control frame
                    let _ = channel.client.call_async(backup, OpCode::BackupFree, payload.clone());
                }
            }
        }
        Ok(())
    }

    fn handle_fetch(&self, req: FetchRequest) -> Result<FetchResponse> {
        let mut results = Vec::with_capacity(req.entries.len());
        for e in &req.entries {
            let (data, cursor) = self.store.read_slot(
                e.stream,
                e.streamlet,
                e.slot,
                e.cursor,
                e.max_bytes as usize,
            )?;
            self.bytes_fetched.add(data.len() as u64);
            results.push(FetchResult {
                stream: e.stream,
                streamlet: e.streamlet,
                slot: e.slot,
                cursor,
                data: Bytes::from(data),
            });
        }
        self.fetches.inc();
        self.obs.bump_progress();
        Ok(FetchResponse { results })
    }

    /// Serves the Introspect RPC: health from the broker's own stores
    /// and quota gate, metrics/traces via the shared helper. Refreshes
    /// the lag gauges as a side effect so metric scrapes see them too.
    fn handle_introspect(&self, ctx: &RequestContext, payload: &[u8]) -> Result<Bytes> {
        let logs = self.vlogs.all_logs();
        let appended: u64 = logs.iter().map(|l| l.appended()).sum();
        let durable: u64 = logs.iter().map(|l| l.durable()).sum();
        let segments: usize = logs.iter().map(|l| l.live_vsegs()).sum();
        let consumer_lag = self.consumer_lag_bytes();
        self.consumer_lag_gauge.set(consumer_lag.min(i64::MAX as u64) as i64);
        self.replication_lag_gauge
            .set(appended.saturating_sub(durable).min(i64::MAX as u64) as i64);
        let quota = self.admission.snapshot(ctx.from.raw());
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
                quota_enabled: self.admission.is_enabled(),
                quota_queue_bytes: quota.queue_bytes,
                quota_queue_hwm_bytes: quota.queue_hwm_bytes,
                quota_throttles: quota.throttles,
                quota_rejections: quota.rejections,
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
            // Recovery re-ingestion is "handled as a normal producer
            // request" (paper §IV-B).
            OpCode::Produce | OpCode::RecoveryIngest => {
                // Slice the chunk train straight out of the receive
                // buffer: the broker never re-owns the payload.
                let req = ProduceRequest::decode_bytes(&payload)?;
                // Admission gate, before any append work. Recovery
                // re-ingestion bypasses it: throttling our own crash
                // recovery would turn overload into data loss. The
                // permit spans the durability wait — its bytes *are*
                // the broker's admission-queue occupancy.
                let _permit = if ctx.opcode == OpCode::Produce && !req.recovery {
                    self.admission.admit(ctx.from, req.chunks.len() as u64)?
                } else {
                    AdmissionPermit::inactive()
                };
                // Don't block on durability longer than the caller is
                // willing to wait (propagated deadline), nor longer than
                // the replication timeout.
                let timeout = ctx
                    .remaining()
                    .map_or(REPLICATION_TIMEOUT, |r| r.min(REPLICATION_TIMEOUT));
                Ok(self.handle_produce(req, timeout)?.encode())
            }
            OpCode::Fetch => {
                let req = FetchRequest::decode(&payload)?;
                // Fetch quota is a debt model: refuse while the tenant
                // still owes for previously served bytes, else serve
                // and charge afterwards.
                self.admission.admit_fetch(ctx.from)?;
                let resp = self.handle_fetch(req)?;
                let served: u64 = resp.results.iter().map(|r| r.data.len() as u64).sum();
                self.admission.charge_fetch(ctx.from, served);
                resp.encode()
            }
            OpCode::Introspect => self.handle_introspect(ctx, &payload),
            OpCode::Seek => {
                let req = SeekRequest::decode(&payload)?;
                let streamlet = self.store.streamlet(req.stream, req.streamlet)?;
                let resp = match streamlet.seek(req.slot, req.record_offset) {
                    Some(cursor) => SeekResponse { found: true, cursor },
                    None => SeekResponse {
                        found: false,
                        cursor: kera_wire::cursor::SlotCursor::START,
                    },
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
}
