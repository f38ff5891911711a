//! Typed request/response bodies for every opcode.
//!
//! Each message implements `encode() -> Bytes` and exactly one decoder:
//! control messages `decode(&[u8]) -> Result<Self>`, the five
//! payload-carrying messages `decode_bytes(&Bytes) -> Result<Self>`,
//! whose bulk fields are zero-copy slices of the buffer they decoded.
//! Bulk chunk data is carried as packed chunk bytes (see [`crate::chunk`])
//! so the same buffer travels producer → broker → backup → disk without
//! re-serialization.

use bytes::Bytes;
use kera_common::config::{ReplicationConfig, StreamConfig, VirtualLogPolicy};
use kera_common::ids::{
    ConsumerId, NodeId, ProducerId, StreamId, StreamletId, VirtualLogId, VirtualSegmentId,
};
use kera_common::{KeraError, Result};

use crate::chunk::CHUNK_HEADER;
use crate::codec::{Reader, Writer};
use crate::cursor::SlotCursor;

// ---------------------------------------------------------------------------
// StreamConfig encoding (shared by several messages)
// ---------------------------------------------------------------------------

pub fn encode_stream_config(w: &mut Writer, c: &StreamConfig) {
    w.u32(c.id.raw())
        .u32(c.streamlets)
        .u32(c.active_groups)
        .u32(c.segments_per_group)
        .u64(c.segment_size as u64)
        .u32(c.replication.factor)
        .u64(c.replication.vseg_size as u64);
    match c.replication.policy {
        VirtualLogPolicy::SharedPerBroker(n) => {
            w.u8(0).u32(n);
        }
        VirtualLogPolicy::PerStreamlet => {
            w.u8(1).u32(0);
        }
        VirtualLogPolicy::PerSubPartition => {
            w.u8(2).u32(0);
        }
    }
}

pub fn decode_stream_config(r: &mut Reader<'_>) -> Result<StreamConfig> {
    let id = StreamId(r.u32()?);
    let streamlets = r.u32()?;
    let active_groups = r.u32()?;
    let segments_per_group = r.u32()?;
    let segment_size = r.u64()? as usize;
    let factor = r.u32()?;
    let vseg_size = r.u64()? as usize;
    let policy = match (r.u8()?, r.u32()?) {
        (0, n) => VirtualLogPolicy::SharedPerBroker(n),
        (1, _) => VirtualLogPolicy::PerStreamlet,
        (2, _) => VirtualLogPolicy::PerSubPartition,
        (p, _) => return Err(KeraError::Protocol(format!("unknown vlog policy {p}"))),
    };
    Ok(StreamConfig {
        id,
        streamlets,
        active_groups,
        segments_per_group,
        segment_size,
        replication: ReplicationConfig { factor, policy, vseg_size },
    })
}

// ---------------------------------------------------------------------------
// CreateStream / GetMetadata / HostStream
// ---------------------------------------------------------------------------

/// Client → coordinator: create a stream.
#[derive(Clone, Debug, PartialEq)]
pub struct CreateStreamRequest {
    pub config: StreamConfig,
}

impl CreateStreamRequest {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        encode_stream_config(&mut w, &self.config);
        w.finish()
    }

    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf);
        Ok(Self { config: decode_stream_config(&mut r)? })
    }
}

/// Where each streamlet lives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamletPlacement {
    pub streamlet: StreamletId,
    pub broker: NodeId,
}

/// Coordinator → client and coordinator → broker: full stream metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamMetadata {
    pub config: StreamConfig,
    pub placements: Vec<StreamletPlacement>,
}

impl StreamMetadata {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.finish()
    }

    pub fn encode_into(&self, w: &mut Writer) {
        encode_stream_config(w, &self.config);
        w.u32(self.placements.len() as u32);
        for p in &self.placements {
            w.u32(p.streamlet.raw()).u32(p.broker.raw());
        }
    }

    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf);
        Self::decode_from(&mut r)
    }

    pub fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        let config = decode_stream_config(r)?;
        let n = r.collection_len(8)?;
        let mut placements = Vec::with_capacity(n);
        for _ in 0..n {
            placements.push(StreamletPlacement {
                streamlet: StreamletId(r.u32()?),
                broker: NodeId(r.u32()?),
            });
        }
        Ok(Self { config, placements })
    }

    /// Broker responsible for `streamlet`.
    pub fn broker_of(&self, streamlet: StreamletId) -> Option<NodeId> {
        self.placements.iter().find(|p| p.streamlet == streamlet).map(|p| p.broker)
    }

    /// Distinct brokers serving this stream, in placement order.
    pub fn brokers(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        for p in &self.placements {
            if !out.contains(&p.broker) {
                out.push(p.broker);
            }
        }
        out
    }
}

/// Client → coordinator: look up a stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GetMetadataRequest {
    pub stream: StreamId,
}

impl GetMetadataRequest {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        w.u32(self.stream.raw());
        w.finish()
    }

    pub fn decode(buf: &[u8]) -> Result<Self> {
        Ok(Self { stream: StreamId(Reader::new(buf).u32()?) })
    }
}

/// Roles a node can play for a hosted streamlet (Kafka baseline uses
/// followers; KerA brokers are always leaders and replicate via vlogs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ReplicaRole {
    Leader = 0,
    Follower = 1,
}

/// Coordinator → broker: host (a subset of) a stream's streamlets.
#[derive(Clone, Debug, PartialEq)]
pub struct HostStreamRequest {
    pub metadata: StreamMetadata,
    /// Streamlets this node must host and its role for each. For
    /// followers, `leader` is the node to fetch from.
    pub assignments: Vec<HostAssignment>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostAssignment {
    pub streamlet: StreamletId,
    pub role: ReplicaRole,
    pub leader: NodeId,
}

impl HostStreamRequest {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        self.metadata.encode_into(&mut w);
        w.u32(self.assignments.len() as u32);
        for a in &self.assignments {
            w.u32(a.streamlet.raw()).u8(a.role as u8).u32(a.leader.raw());
        }
        w.finish()
    }

    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf);
        let metadata = StreamMetadata::decode_from(&mut r)?;
        let n = r.collection_len(9)?;
        let mut assignments = Vec::with_capacity(n);
        for _ in 0..n {
            let streamlet = StreamletId(r.u32()?);
            let role = match r.u8()? {
                0 => ReplicaRole::Leader,
                1 => ReplicaRole::Follower,
                x => return Err(KeraError::Protocol(format!("unknown replica role {x}"))),
            };
            let leader = NodeId(r.u32()?);
            assignments.push(HostAssignment { streamlet, role, leader });
        }
        Ok(Self { metadata, assignments })
    }
}

// ---------------------------------------------------------------------------
// Produce
// ---------------------------------------------------------------------------

/// Producer → broker: a request carrying packed chunks (paper Fig. 3:
/// "each request contains multiple chunks"). Chunks may belong to
/// different streams hosted on the same broker.
#[derive(Clone, Debug)]
pub struct ProduceRequest {
    pub producer: ProducerId,
    /// Set for recovery re-ingestion: chunks already carry group/segment
    /// assignments that must be preserved.
    pub recovery: bool,
    pub chunk_count: u32,
    /// Packed serialized chunks.
    pub chunks: Bytes,
}

impl ProduceRequest {
    /// Serialized header size (producer + recovery flag + chunk count).
    pub const HEADER_LEN: usize = 9;

    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_capacity(Self::HEADER_LEN + self.chunks.len());
        w.u32(self.producer.raw())
            .u8(self.recovery as u8)
            .u32(self.chunk_count)
            .bytes(&self.chunks);
        w.finish()
    }

    /// Packs the request header and the sealed chunks into the request
    /// body in one pass — each chunk's bytes are copied exactly once, out
    /// of its seal allocation into the body the transport ships. (The
    /// seed path copied twice: chunks → `chunks` field → `encode`.)
    pub fn encode_chunks(producer: ProducerId, recovery: bool, chunks: &[Bytes]) -> Bytes {
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        let mut w = Writer::with_capacity(Self::HEADER_LEN + total);
        w.u32(producer.raw()).u8(recovery as u8).u32(chunks.len() as u32);
        for c in chunks {
            w.bytes(c);
        }
        w.finish()
    }

    /// `chunks` is a zero-copy slice of the request payload — the broker
    /// appends from the same allocation the transport received into.
    /// `chunk_count` comes from the sender: it is bounded here by what the
    /// remaining bytes could hold, before any caller sizes an allocation
    /// from it.
    pub fn decode_bytes(buf: &Bytes) -> Result<Self> {
        let mut r = Reader::new(buf);
        let producer = ProducerId(r.u32()?);
        let recovery = r.u8()? != 0;
        let chunk_count = r.collection_len(CHUNK_HEADER)? as u32;
        let chunks = buf.slice(r.position()..);
        Ok(Self { producer, recovery, chunk_count, chunks })
    }
}

/// Per-chunk assignment info returned to the producer (enables
/// exactly-once dedup on retry and offset bookkeeping).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkAck {
    pub stream: StreamId,
    pub streamlet: StreamletId,
    pub group: u32,
    pub segment: u32,
    pub base_offset: u64,
    pub records: u32,
}

#[derive(Clone, Debug, Default)]
pub struct ProduceResponse {
    pub acks: Vec<ChunkAck>,
}

impl ProduceResponse {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_capacity(4 + self.acks.len() * 28);
        w.u32(self.acks.len() as u32);
        for a in &self.acks {
            w.u32(a.stream.raw())
                .u32(a.streamlet.raw())
                .u32(a.group)
                .u32(a.segment)
                .u64(a.base_offset)
                .u32(a.records);
        }
        w.finish()
    }

    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf);
        let n = r.collection_len(28)?;
        let mut acks = Vec::with_capacity(n);
        for _ in 0..n {
            acks.push(ChunkAck {
                stream: StreamId(r.u32()?),
                streamlet: StreamletId(r.u32()?),
                group: r.u32()?,
                segment: r.u32()?,
                base_offset: r.u64()?,
                records: r.u32()?,
            });
        }
        Ok(Self { acks })
    }
}

// ---------------------------------------------------------------------------
// Fetch (consumers)
// ---------------------------------------------------------------------------

/// One streamlet slot the consumer wants data from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchEntry {
    pub stream: StreamId,
    pub streamlet: StreamletId,
    pub slot: u32,
    pub cursor: SlotCursor,
    pub max_bytes: u32,
}

/// Consumer → broker: pull durable chunks for a set of slots
/// ("the Requests thread builds one request for each broker and pulls one
/// chunk for each streamlet", paper Fig. 7).
#[derive(Clone, Debug, Default)]
pub struct FetchRequest {
    pub consumer: ConsumerId,
    pub entries: Vec<FetchEntry>,
}

impl FetchRequest {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_capacity(8 + self.entries.len() * 28);
        w.u32(self.consumer.raw()).u32(self.entries.len() as u32);
        for e in &self.entries {
            w.u32(e.stream.raw()).u32(e.streamlet.raw()).u32(e.slot);
            e.cursor.encode(&mut w);
            w.u32(e.max_bytes);
        }
        w.finish()
    }

    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf);
        let consumer = ConsumerId(r.u32()?);
        let n = r.collection_len(28)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(FetchEntry {
                stream: StreamId(r.u32()?),
                streamlet: StreamletId(r.u32()?),
                slot: r.u32()?,
                cursor: SlotCursor::decode(&mut r)?,
                max_bytes: r.u32()?,
            });
        }
        Ok(Self { consumer, entries })
    }
}

/// Data (possibly empty) returned for one fetch entry; `cursor` is the
/// position to use on the next fetch.
#[derive(Clone, Debug)]
pub struct FetchResult {
    pub stream: StreamId,
    pub streamlet: StreamletId,
    pub slot: u32,
    pub cursor: SlotCursor,
    /// Packed chunks readable up to the durable head.
    pub data: Bytes,
}

#[derive(Clone, Debug, Default)]
pub struct FetchResponse {
    pub results: Vec<FetchResult>,
}

impl FetchResponse {
    pub fn encode(&self) -> Result<Bytes> {
        let total: usize = self.results.iter().map(|x| 32 + x.data.len()).sum();
        let mut w = Writer::with_capacity(4 + total);
        w.u32(self.results.len() as u32);
        for x in &self.results {
            w.u32(x.stream.raw()).u32(x.streamlet.raw()).u32(x.slot);
            x.cursor.encode(&mut w);
            w.len_prefixed(&x.data)?;
        }
        Ok(w.finish())
    }

    /// Each result's `data` is a zero-copy slice of the response payload
    /// (the consumer iterates the chunks in place).
    pub fn decode_bytes(buf: &Bytes) -> Result<Self> {
        let mut r = Reader::new(buf);
        let n = r.collection_len(28)?;
        let mut results = Vec::with_capacity(n);
        for _ in 0..n {
            let stream = StreamId(r.u32()?);
            let streamlet = StreamletId(r.u32()?);
            let slot = r.u32()?;
            let cursor = SlotCursor::decode(&mut r)?;
            let start = r.position() + 4;
            let data_len = r.len_prefixed()?.len();
            let data = buf.slice(start..start + data_len);
            results.push(FetchResult { stream, streamlet, slot, cursor, data });
        }
        Ok(Self { results })
    }
}

// ---------------------------------------------------------------------------
// BackupWrite (virtual log replication)
// ---------------------------------------------------------------------------

/// Flags on a backup write.
pub mod backup_flags {
    /// First batch of this virtual segment: the backup must open a fresh
    /// replicated segment.
    pub const OPEN: u8 = 0b01;
    /// Last batch: the virtual segment is closed; `vseg_checksum` is valid
    /// and must be verified and persisted.
    pub const CLOSE: u8 = 0b10;
}

/// Broker → backup: replicate a batch of chunks belonging to one virtual
/// segment. The consolidated RPC at the heart of the paper: one such
/// message can carry chunks of many streams' partitions.
#[derive(Clone, Debug)]
pub struct BackupWriteRequest {
    pub source_broker: NodeId,
    pub vlog: VirtualLogId,
    pub vseg: VirtualSegmentId,
    /// Byte offset of this batch within the replicated virtual segment;
    /// lets the backup detect duplicates/reordering (idempotent retries).
    pub vseg_offset: u32,
    pub flags: u8,
    /// Checksum-of-chunk-checksums for the whole virtual segment; valid
    /// only when `flags & CLOSE`.
    pub vseg_checksum: u32,
    pub chunk_count: u32,
    /// Packed serialized chunks (already broker-assigned).
    pub chunks: Bytes,
}

impl BackupWriteRequest {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_capacity(33 + self.chunks.len());
        w.u32(self.source_broker.raw())
            .u32(self.vlog.raw())
            .u64(self.vseg.raw())
            .u32(self.vseg_offset)
            .u8(self.flags)
            .u32(self.vseg_checksum)
            .u32(self.chunk_count)
            .bytes(&self.chunks);
        w.finish()
    }

    /// `chunks` is a zero-copy slice of the request payload — the backup
    /// retains the slice instead of copying the batch out of the frame.
    /// `chunk_count` is bounded as in [`ProduceRequest::decode_bytes`].
    pub fn decode_bytes(buf: &Bytes) -> Result<Self> {
        let mut r = Reader::new(buf);
        let source_broker = NodeId(r.u32()?);
        let vlog = VirtualLogId(r.u32()?);
        let vseg = VirtualSegmentId(r.u64()?);
        let vseg_offset = r.u32()?;
        let flags = r.u8()?;
        let vseg_checksum = r.u32()?;
        let chunk_count = r.collection_len(CHUNK_HEADER)? as u32;
        let chunks = buf.slice(r.position()..);
        Ok(Self { source_broker, vlog, vseg, vseg_offset, flags, vseg_checksum, chunk_count, chunks })
    }
}

/// A fully-encoded [`BackupWriteRequest`] body, built once by the virtual
/// log's gather path and shipped verbatim to every backup.
///
/// The seed pipeline copied each replication batch twice: segment buffers
/// → a gathered `chunks` buffer → the encoded request body. `pack`
/// collapses that to a single copy (segment slices straight into the
/// body); the same `Bytes` then rides the envelope to `r` backups without
/// further copies, and retries re-send it instead of re-encoding.
#[derive(Clone, Debug)]
pub struct EncodedBackupWrite {
    body: Bytes,
}

impl EncodedBackupWrite {
    /// Gathers `chunks` (slices of the broker's segment buffers) behind a
    /// serialized request header in one pass. `total_chunk_bytes` sizes
    /// the single allocation up front.
    #[allow(clippy::too_many_arguments)] // mirrors the wire header, field for field
    pub fn pack<'a>(
        source_broker: NodeId,
        vlog: VirtualLogId,
        vseg: VirtualSegmentId,
        vseg_offset: u32,
        flags: u8,
        vseg_checksum: u32,
        chunk_count: u32,
        total_chunk_bytes: usize,
        chunks: impl IntoIterator<Item = &'a [u8]>,
    ) -> Self {
        let mut w = Writer::with_capacity(29 + total_chunk_bytes);
        w.u32(source_broker.raw())
            .u32(vlog.raw())
            .u64(vseg.raw())
            .u32(vseg_offset)
            .u8(flags)
            .u32(vseg_checksum)
            .u32(chunk_count);
        for c in chunks {
            w.bytes(c);
        }
        Self { body: w.finish() }
    }

    /// Wraps an already-assembled request (tests, fault-injection mocks).
    pub fn from_request(req: &BackupWriteRequest) -> Self {
        Self { body: req.encode() }
    }

    /// The serialized request body — what goes in the envelope payload.
    #[inline]
    pub fn body(&self) -> &Bytes {
        &self.body
    }

    /// Decodes the header back out (zero-copy; mocks and tests use this
    /// to inspect what would cross the wire).
    pub fn request(&self) -> Result<BackupWriteRequest> {
        BackupWriteRequest::decode_bytes(&self.body)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackupWriteResponse {
    /// Bytes of the virtual segment durably held after this write.
    pub durable_offset: u32,
}

impl BackupWriteResponse {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        w.u32(self.durable_offset);
        w.finish()
    }

    pub fn decode(buf: &[u8]) -> Result<Self> {
        Ok(Self { durable_offset: Reader::new(buf).u32()? })
    }
}

// ---------------------------------------------------------------------------
// FollowerFetch (Kafka baseline, passive replication)
// ---------------------------------------------------------------------------

/// One partition's fetch position inside a follower fetch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FollowerFetchEntry {
    pub stream: StreamId,
    pub partition: StreamletId,
    /// Follower's log-end byte offset — doubles as the replication ack:
    /// the leader advances the partition high watermark from it.
    pub fetch_offset: u64,
}

#[derive(Clone, Debug, Default)]
pub struct FollowerFetchRequest {
    pub follower: NodeId,
    /// `replica.fetch.max.bytes` per partition.
    pub max_bytes_per_partition: u32,
    pub entries: Vec<FollowerFetchEntry>,
}

impl FollowerFetchRequest {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_capacity(12 + self.entries.len() * 16);
        w.u32(self.follower.raw())
            .u32(self.max_bytes_per_partition)
            .u32(self.entries.len() as u32);
        for e in &self.entries {
            w.u32(e.stream.raw()).u32(e.partition.raw()).u64(e.fetch_offset);
        }
        w.finish()
    }

    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf);
        let follower = NodeId(r.u32()?);
        let max_bytes_per_partition = r.u32()?;
        let n = r.collection_len(16)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(FollowerFetchEntry {
                stream: StreamId(r.u32()?),
                partition: StreamletId(r.u32()?),
                fetch_offset: r.u64()?,
            });
        }
        Ok(Self { follower, max_bytes_per_partition, entries })
    }
}

#[derive(Clone, Debug)]
pub struct FollowerFetchResult {
    pub stream: StreamId,
    pub partition: StreamletId,
    /// Leader's high watermark for this partition (bytes).
    pub high_watermark: u64,
    /// Raw log bytes starting at the requested fetch offset.
    pub data: Bytes,
}

#[derive(Clone, Debug, Default)]
pub struct FollowerFetchResponse {
    pub results: Vec<FollowerFetchResult>,
}

impl FollowerFetchResponse {
    pub fn encode(&self) -> Result<Bytes> {
        let total: usize = self.results.iter().map(|x| 20 + x.data.len()).sum();
        let mut w = Writer::with_capacity(4 + total);
        w.u32(self.results.len() as u32);
        for x in &self.results {
            w.u32(x.stream.raw()).u32(x.partition.raw()).u64(x.high_watermark);
            w.len_prefixed(&x.data)?;
        }
        Ok(w.finish())
    }

    /// Each result's `data` is a zero-copy slice of the response payload.
    pub fn decode_bytes(buf: &Bytes) -> Result<Self> {
        let mut r = Reader::new(buf);
        let n = r.collection_len(20)?;
        let mut results = Vec::with_capacity(n);
        for _ in 0..n {
            let stream = StreamId(r.u32()?);
            let partition = StreamletId(r.u32()?);
            let high_watermark = r.u64()?;
            let start = r.position() + 4;
            let data_len = r.len_prefixed()?.len();
            let data = buf.slice(start..start + data_len);
            results.push(FollowerFetchResult { stream, partition, high_watermark, data });
        }
        Ok(Self { results })
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Coordinator/recovery-master → backup: what do you hold for this broker?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryEnumerateRequest {
    pub crashed_broker: NodeId,
}

impl RecoveryEnumerateRequest {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        w.u32(self.crashed_broker.raw());
        w.finish()
    }

    pub fn decode(buf: &[u8]) -> Result<Self> {
        Ok(Self { crashed_broker: NodeId(Reader::new(buf).u32()?) })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicatedSegmentInfo {
    pub vlog: VirtualLogId,
    pub vseg: VirtualSegmentId,
    pub len: u32,
    pub closed: bool,
}

#[derive(Clone, Debug, Default)]
pub struct RecoveryEnumerateResponse {
    pub segments: Vec<ReplicatedSegmentInfo>,
}

impl RecoveryEnumerateResponse {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_capacity(4 + self.segments.len() * 17);
        w.u32(self.segments.len() as u32);
        for s in &self.segments {
            w.u32(s.vlog.raw()).u64(s.vseg.raw()).u32(s.len).u8(s.closed as u8);
        }
        w.finish()
    }

    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf);
        let n = r.collection_len(17)?;
        let mut segments = Vec::with_capacity(n);
        for _ in 0..n {
            segments.push(ReplicatedSegmentInfo {
                vlog: VirtualLogId(r.u32()?),
                vseg: VirtualSegmentId(r.u64()?),
                len: r.u32()?,
                closed: r.u8()? != 0,
            });
        }
        Ok(Self { segments })
    }
}

/// Recovery-master → backup: stream back one replicated virtual segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryReadRequest {
    pub crashed_broker: NodeId,
    pub vlog: VirtualLogId,
    pub vseg: VirtualSegmentId,
}

impl RecoveryReadRequest {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        w.u32(self.crashed_broker.raw()).u32(self.vlog.raw()).u64(self.vseg.raw());
        w.finish()
    }

    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf);
        Ok(Self {
            crashed_broker: NodeId(r.u32()?),
            vlog: VirtualLogId(r.u32()?),
            vseg: VirtualSegmentId(r.u64()?),
        })
    }
}

/// The replicated segment's packed chunks travel back as the raw response
/// payload (no wrapper needed beyond the envelope).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReportCrashRequest {
    pub node: NodeId,
}

impl ReportCrashRequest {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        w.u32(self.node.raw());
        w.finish()
    }

    pub fn decode(buf: &[u8]) -> Result<Self> {
        Ok(Self { node: NodeId(Reader::new(buf).u32()?) })
    }
}

/// Client → broker: translate a logical record offset into a cursor
/// (paper: "consumers can read at any offset"; served by the
/// lightweight per-chunk offset index).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeekRequest {
    pub stream: StreamId,
    pub streamlet: StreamletId,
    pub slot: u32,
    pub record_offset: u64,
}

impl SeekRequest {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        w.u32(self.stream.raw()).u32(self.streamlet.raw()).u32(self.slot).u64(self.record_offset);
        w.finish()
    }

    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf);
        Ok(Self {
            stream: StreamId(r.u32()?),
            streamlet: StreamletId(r.u32()?),
            slot: r.u32()?,
            record_offset: r.u64()?,
        })
    }
}

/// Cursor of the chunk covering the requested offset; `found = false`
/// when the slot holds no data yet (start at the beginning).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeekResponse {
    pub found: bool,
    pub cursor: SlotCursor,
}

impl SeekResponse {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        w.u8(self.found as u8);
        self.cursor.encode(&mut w);
        w.finish()
    }

    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf);
        Ok(Self { found: r.u8()? != 0, cursor: SlotCursor::decode(&mut r)? })
    }
}

/// One streamlet reassigned by crash recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reassignment {
    pub stream: StreamId,
    pub streamlet: StreamletId,
    pub new_broker: NodeId,
}

/// Coordinator → crash reporter: where the dead broker's streamlets went.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrashReassignmentResponse {
    pub reassignments: Vec<Reassignment>,
}

impl CrashReassignmentResponse {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_capacity(4 + self.reassignments.len() * 12);
        w.u32(self.reassignments.len() as u32);
        for r in &self.reassignments {
            w.u32(r.stream.raw()).u32(r.streamlet.raw()).u32(r.new_broker.raw());
        }
        w.finish()
    }

    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf);
        let n = r.collection_len(12)?;
        let mut reassignments = Vec::with_capacity(n);
        for _ in 0..n {
            reassignments.push(Reassignment {
                stream: StreamId(r.u32()?),
                streamlet: StreamletId(r.u32()?),
                new_broker: NodeId(r.u32()?),
            });
        }
        Ok(Self { reassignments })
    }
}

/// Any node → broker: report admission-control accounting for one
/// tenant (`u32::MAX` = the asking node itself). Tooling/diagnostics,
/// not the data path — chaos drills use it to assert broker memory
/// stayed bounded without reaching into broker internals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuotaStateRequest {
    /// Raw node id of the tenant to report on (`u32::MAX` = sender).
    pub tenant: u32,
}

impl QuotaStateRequest {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        w.u32(self.tenant);
        w.finish()
    }

    pub fn decode(buf: &[u8]) -> Result<Self> {
        Ok(Self { tenant: Reader::new(buf).u32()? })
    }
}

/// Broker → asker: one tenant's quota accounting plus the broker-wide
/// admission-queue gauges. A tenant the broker has no session for (or
/// quotas disabled) reports `known == false` with zeroed accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuotaStateResponse {
    /// Quotas are enabled on this broker.
    pub enabled: bool,
    /// The broker holds session state for the asked-about tenant.
    pub known: bool,
    /// Tenant's current produce token balance, in bytes (floored at 0).
    pub tokens: u64,
    /// Tenant's admitted-but-unacknowledged bytes.
    pub inflight_bytes: u64,
    /// Broker-wide admitted-but-unacknowledged bytes right now.
    pub queue_bytes: u64,
    /// High-water mark of `queue_bytes` since the broker started — the
    /// bounded-memory gate reads this.
    pub queue_hwm_bytes: u64,
    /// Total throttle responses issued (all tenants, produce + fetch).
    pub throttles: u64,
    /// Total rejections issued (all tenants).
    pub rejections: u64,
    /// Total session evictions (ladder + zombie sweep).
    pub evictions: u64,
}

impl QuotaStateResponse {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        w.u8(self.enabled as u8)
            .u8(self.known as u8)
            .u64(self.tokens)
            .u64(self.inflight_bytes)
            .u64(self.queue_bytes)
            .u64(self.queue_hwm_bytes)
            .u64(self.throttles)
            .u64(self.rejections)
            .u64(self.evictions);
        w.finish()
    }

    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf);
        let enabled = match r.u8()? {
            0 => false,
            1 => true,
            v => return Err(KeraError::Protocol(format!("bad bool {v} in quota state"))),
        };
        let known = match r.u8()? {
            0 => false,
            1 => true,
            v => return Err(KeraError::Protocol(format!("bad bool {v} in quota state"))),
        };
        Ok(Self {
            enabled,
            known,
            tokens: r.u64()?,
            inflight_bytes: r.u64()?,
            queue_bytes: r.u64()?,
            queue_hwm_bytes: r.u64()?,
            throttles: r.u64()?,
            rejections: r.u64()?,
            evictions: r.u64()?,
        })
    }
}

/// Section bitmask for [`IntrospectRequest::sections`]. Health is cheap
/// (a handful of atomics); metrics and traces serialize JSON bodies, so
/// scrapers that only want liveness can skip them.
pub mod introspect_sections {
    pub const HEALTH: u32 = 1 << 0;
    pub const METRICS: u32 = 1 << 1;
    pub const TRACES: u32 = 1 << 2;
    pub const ALL: u32 = HEALTH | METRICS | TRACES;
}

/// The role a node reports in [`IntrospectResponse::role`].
pub mod introspect_role {
    pub const BROKER: u8 = 0;
    pub const BACKUP: u8 = 1;
    pub const COORDINATOR: u8 = 2;

    pub fn name(role: u8) -> &'static str {
        match role {
            BROKER => "broker",
            BACKUP => "backup",
            COORDINATOR => "coordinator",
            _ => "unknown",
        }
    }
}

/// Any node → any node: introspection scrape (`kera-inspect`, CI
/// smokes, the future multi-process scrape plane). Not the data path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntrospectRequest {
    /// Bitmask of [`introspect_sections`] to include in the response.
    pub sections: u32,
}

impl IntrospectRequest {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        w.u32(self.sections);
        w.finish()
    }

    pub fn decode(buf: &[u8]) -> Result<Self> {
        Ok(Self { sections: Reader::new(buf).u32()? })
    }
}

/// One node's introspection report: a fixed health summary plus
/// optional JSON bodies (registry snapshot, sampled slow-trace trees).
/// Fields that don't apply to a role are zero — a backup has no term, a
/// coordinator has no vlogs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntrospectResponse {
    /// Raw node id of the reporter.
    pub node: u32,
    /// [`introspect_role`] of the reporter.
    pub role: u8,
    /// Coordinator replicas only: currently the elected leader.
    pub is_leader: bool,
    /// Coordinator replicas: current term. Brokers/backups: 0.
    pub term: u64,
    /// Broker: live virtual logs. Others: 0.
    pub vlogs: u32,
    /// Backup: replicated virtual segments held. Others: 0.
    pub segments: u32,
    /// Broker: bytes appended across vlogs (replication input).
    pub appended_bytes: u64,
    /// Broker: bytes acknowledged durable by backups. The replication
    /// lag is `appended_bytes - durable_bytes`.
    pub durable_bytes: u64,
    /// Broker: bytes appended but not yet fetched past by any consumer
    /// on tracked slots (committed-offset lag).
    pub consumer_lag_bytes: u64,
    /// Broker: admission control armed.
    pub quota_enabled: bool,
    /// Broker: admitted-but-unacknowledged bytes right now.
    pub quota_queue_bytes: u64,
    /// Broker: high-water mark of the admission queue.
    pub quota_queue_hwm_bytes: u64,
    /// Broker: total throttle responses issued.
    pub quota_throttles: u64,
    /// Broker: total rejections issued.
    pub quota_rejections: u64,
    /// RPC requests currently executing in this node's worker pool.
    pub inflight: u32,
    /// Monotonic progress heartbeat (appends/replications/commits); the
    /// stall watchdog fires when this stops advancing with work in
    /// flight.
    pub progress: u64,
    /// Watchdog period armed on this node, ms (0 = disarmed).
    pub watchdog_ms: u32,
    /// METRICS section: `RegistrySnapshot::to_json` body, else empty.
    pub metrics_json: String,
    /// TRACES section: sampled slow-trace trees as JSON, else empty.
    pub traces_json: String,
}

impl IntrospectResponse {
    pub fn encode(&self) -> Result<Bytes> {
        let mut w = Writer::new();
        w.u32(self.node)
            .u8(self.role)
            .u8(self.is_leader as u8)
            .u8(self.quota_enabled as u8)
            .u64(self.term)
            .u32(self.vlogs)
            .u32(self.segments)
            .u64(self.appended_bytes)
            .u64(self.durable_bytes)
            .u64(self.consumer_lag_bytes)
            .u64(self.quota_queue_bytes)
            .u64(self.quota_queue_hwm_bytes)
            .u64(self.quota_throttles)
            .u64(self.quota_rejections)
            .u32(self.inflight)
            .u64(self.progress)
            .u32(self.watchdog_ms);
        w.string(&self.metrics_json)?;
        w.string(&self.traces_json)?;
        Ok(w.finish())
    }

    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf);
        let node = r.u32()?;
        let role = r.u8()?;
        if role > introspect_role::COORDINATOR {
            return Err(KeraError::Protocol(format!("bad role {role} in introspect")));
        }
        let is_leader = match r.u8()? {
            0 => false,
            1 => true,
            v => return Err(KeraError::Protocol(format!("bad bool {v} in introspect"))),
        };
        let quota_enabled = match r.u8()? {
            0 => false,
            1 => true,
            v => return Err(KeraError::Protocol(format!("bad bool {v} in introspect"))),
        };
        Ok(Self {
            node,
            role,
            is_leader,
            quota_enabled,
            term: r.u64()?,
            vlogs: r.u32()?,
            segments: r.u32()?,
            appended_bytes: r.u64()?,
            durable_bytes: r.u64()?,
            consumer_lag_bytes: r.u64()?,
            quota_queue_bytes: r.u64()?,
            quota_queue_hwm_bytes: r.u64()?,
            quota_throttles: r.u64()?,
            quota_rejections: r.u64()?,
            inflight: r.u32()?,
            progress: r.u64()?,
            watchdog_ms: r.u32()?,
            metrics_json: r.string()?,
            traces_json: r.string()?,
        })
    }

    /// Replication lag in bytes (appended but not yet durable).
    pub fn replication_lag_bytes(&self) -> u64 {
        self.appended_bytes.saturating_sub(self.durable_bytes)
    }

    pub fn role_name(&self) -> &'static str {
        introspect_role::name(self.role)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kera_common::config::VirtualLogPolicy;

    fn sample_config() -> StreamConfig {
        StreamConfig {
            id: StreamId(3),
            streamlets: 32,
            active_groups: 4,
            segments_per_group: 8,
            segment_size: 1 << 20,
            replication: ReplicationConfig {
                factor: 3,
                policy: VirtualLogPolicy::PerSubPartition,
                vseg_size: 1 << 20,
            },
        }
    }

    #[test]
    fn stream_config_roundtrip_all_policies() {
        for policy in [
            VirtualLogPolicy::SharedPerBroker(4),
            VirtualLogPolicy::PerStreamlet,
            VirtualLogPolicy::PerSubPartition,
        ] {
            let mut c = sample_config();
            c.replication.policy = policy;
            let mut w = Writer::new();
            encode_stream_config(&mut w, &c);
            let buf = w.finish();
            let back = decode_stream_config(&mut Reader::new(&buf)).unwrap();
            assert_eq!(back, c);
        }
    }

    #[test]
    fn create_stream_roundtrip() {
        let req = CreateStreamRequest { config: sample_config() };
        let back = CreateStreamRequest::decode(&req.encode()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn metadata_roundtrip_and_lookup() {
        let md = StreamMetadata {
            config: sample_config(),
            placements: vec![
                StreamletPlacement { streamlet: StreamletId(0), broker: NodeId(10) },
                StreamletPlacement { streamlet: StreamletId(1), broker: NodeId(11) },
                StreamletPlacement { streamlet: StreamletId(2), broker: NodeId(10) },
            ],
        };
        let back = StreamMetadata::decode(&md.encode()).unwrap();
        assert_eq!(back, md);
        assert_eq!(back.broker_of(StreamletId(1)), Some(NodeId(11)));
        assert_eq!(back.broker_of(StreamletId(9)), None);
        assert_eq!(back.brokers(), vec![NodeId(10), NodeId(11)]);
    }

    #[test]
    fn host_stream_roundtrip() {
        let req = HostStreamRequest {
            metadata: StreamMetadata {
                config: sample_config(),
                placements: vec![StreamletPlacement {
                    streamlet: StreamletId(0),
                    broker: NodeId(1),
                }],
            },
            assignments: vec![
                HostAssignment {
                    streamlet: StreamletId(0),
                    role: ReplicaRole::Leader,
                    leader: NodeId(1),
                },
                HostAssignment {
                    streamlet: StreamletId(1),
                    role: ReplicaRole::Follower,
                    leader: NodeId(2),
                },
            ],
        };
        let back = HostStreamRequest::decode(&req.encode()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn produce_roundtrip() {
        let req = ProduceRequest {
            producer: ProducerId(8),
            recovery: true,
            chunk_count: 2,
            chunks: Bytes::from_static(&[0xc4; 2 * CHUNK_HEADER]),
        };
        let back = ProduceRequest::decode_bytes(&req.encode()).unwrap();
        assert_eq!(back.producer, req.producer);
        assert!(back.recovery);
        assert_eq!(back.chunk_count, 2);
        assert_eq!(back.chunks, req.chunks);
    }

    #[test]
    fn produce_single_pack_matches_struct_encode() {
        let a = Bytes::from_static(&[b'a'; CHUNK_HEADER]);
        let b = Bytes::from_static(&[b'b'; CHUNK_HEADER + 1]);
        let packed = ProduceRequest::encode_chunks(ProducerId(8), false, &[a.clone(), b.clone()]);
        let mut joined = Vec::new();
        joined.extend_from_slice(&a);
        joined.extend_from_slice(&b);
        let via_struct = ProduceRequest {
            producer: ProducerId(8),
            recovery: false,
            chunk_count: 2,
            chunks: Bytes::from(joined),
        }
        .encode();
        assert_eq!(packed, via_struct, "single-pack must be byte-identical on the wire");

        // The sliced decoder yields chunks windowed into the payload.
        let payload = packed.clone();
        let req = ProduceRequest::decode_bytes(&payload).unwrap();
        assert_eq!(req.chunk_count, 2);
        assert_eq!(&req.chunks[..CHUNK_HEADER], &a[..]);
        assert_eq!(&req.chunks[CHUNK_HEADER..], &b[..]);
        let base = payload.as_ref().as_ptr() as usize;
        let ptr = req.chunks.as_ref().as_ptr() as usize;
        assert_eq!(ptr, base + ProduceRequest::HEADER_LEN);
    }

    /// The whole receive chain — frame bytes → envelope → produce request
    /// → chunk views → record values — is views of the one buffer the
    /// transport read the frame into.
    #[test]
    fn receive_chain_never_leaves_the_receive_buffer() {
        use crate::chunk::{ChunkBuilder, ChunkIter};
        use crate::frames::{Envelope, OpCode};
        use crate::record::Record;

        let mut b = ChunkBuilder::new(4096, ProducerId(8), StreamId(1), StreamletId(0));
        let sealed: Vec<Bytes> = (0..3u8)
            .map(|k| {
                assert!(b.append(&Record::value_only(&[k; 100])));
                b.seal()
            })
            .collect();
        let body = ProduceRequest::encode_chunks(ProducerId(8), false, &sealed);
        let frame = Envelope::request(OpCode::Produce, 1, NodeId(9), body).encode();
        let buffer = frame.as_ref().as_ptr_range();
        let inside = |view: &[u8]| {
            let v = view.as_ptr_range();
            buffer.start <= v.start && v.end <= buffer.end
        };

        let env = Envelope::decode_bytes(&frame).unwrap();
        assert!(std::ptr::eq(env.payload.as_ref().as_ptr(), frame[Envelope::HEADER_LEN..].as_ptr()));
        let req = ProduceRequest::decode_bytes(&env.payload).unwrap();
        assert!(std::ptr::eq(
            req.chunks.as_ref().as_ptr(),
            frame[Envelope::HEADER_LEN + ProduceRequest::HEADER_LEN..].as_ptr()
        ));
        assert_eq!(req.chunk_count, 3);
        let mut at = Envelope::HEADER_LEN + ProduceRequest::HEADER_LEN;
        for (chunk, sent) in ChunkIter::new(&req.chunks).zip(&sealed) {
            let chunk = chunk.unwrap();
            chunk.verify().unwrap();
            assert!(std::ptr::eq(chunk.bytes().as_ptr(), frame[at..].as_ptr()));
            assert_eq!(chunk.bytes(), &sent[..]);
            for record in chunk.records() {
                assert!(inside(record.unwrap().value()));
            }
            at += chunk.len();
        }
        assert_eq!(at, frame.len());
    }

    #[test]
    fn encoded_backup_write_packs_once_and_decodes_back() {
        let chunks: [&[u8]; 2] = [&[b'1'; CHUNK_HEADER + 5], &[b'2'; CHUNK_HEADER]];
        let total = chunks.iter().map(|c| c.len()).sum();
        let enc = EncodedBackupWrite::pack(
            NodeId(1),
            VirtualLogId(2),
            VirtualSegmentId(3),
            4096,
            backup_flags::OPEN,
            0,
            2,
            total,
            chunks,
        );
        let req = enc.request().unwrap();
        assert_eq!(req.source_broker, NodeId(1));
        assert_eq!(req.vlog, VirtualLogId(2));
        assert_eq!(req.vseg, VirtualSegmentId(3));
        assert_eq!(req.vseg_offset, 4096);
        assert_eq!(req.flags, backup_flags::OPEN);
        assert_eq!(req.chunk_count, 2);
        assert_eq!(req.chunks[..], chunks.concat()[..]);
        // The decoded batch is a window of the packed body, not a copy.
        let base = enc.body().as_ref().as_ptr() as usize;
        assert_eq!(req.chunks.as_ref().as_ptr() as usize, base + enc.body().len() - total);
        // Byte-identical to the struct encoder's output.
        assert_eq!(enc.body(), &req.encode());
        // from_request round-trips too.
        assert_eq!(EncodedBackupWrite::from_request(&req).body(), enc.body());
    }

    #[test]
    fn produce_response_roundtrip() {
        let resp = ProduceResponse {
            acks: vec![ChunkAck {
                stream: StreamId(1),
                streamlet: StreamletId(2),
                group: 3,
                segment: 4,
                base_offset: 500,
                records: 6,
            }],
        };
        let back = ProduceResponse::decode(&resp.encode()).unwrap();
        assert_eq!(back.acks, resp.acks);
    }

    #[test]
    fn fetch_roundtrip() {
        let req = FetchRequest {
            consumer: ConsumerId(4),
            entries: vec![FetchEntry {
                stream: StreamId(1),
                streamlet: StreamletId(2),
                slot: 1,
                cursor: SlotCursor { chain: 1, segment: 2, offset: 3 },
                max_bytes: 65536,
            }],
        };
        let back = FetchRequest::decode(&req.encode()).unwrap();
        assert_eq!(back.consumer, req.consumer);
        assert_eq!(back.entries, req.entries);

        let resp = FetchResponse {
            results: vec![FetchResult {
                stream: StreamId(1),
                streamlet: StreamletId(2),
                slot: 1,
                cursor: SlotCursor { chain: 1, segment: 2, offset: 99 },
                data: Bytes::from_static(b"packed"),
            }],
        };
        let encoded = resp.encode().unwrap();
        let back = FetchResponse::decode_bytes(&encoded).unwrap();
        assert_eq!(back.results.len(), 1);
        assert_eq!(back.results[0].cursor.offset, 99);
        assert_eq!(&back.results[0].data[..], b"packed");
        // The data is a window into the response buffer, not a copy.
        let base = encoded.as_ref().as_ptr() as usize;
        let data_ptr = back.results[0].data.as_ref().as_ptr() as usize;
        assert!((base..base + encoded.len()).contains(&data_ptr));
    }

    #[test]
    fn backup_write_roundtrip() {
        let req = BackupWriteRequest {
            source_broker: NodeId(1),
            vlog: VirtualLogId(2),
            vseg: VirtualSegmentId(3),
            vseg_offset: 4096,
            flags: backup_flags::OPEN | backup_flags::CLOSE,
            vseg_checksum: 0xdead_beef,
            chunk_count: 5,
            chunks: Bytes::from_static(&[0xc4; 5 * CHUNK_HEADER]),
        };
        let back = BackupWriteRequest::decode_bytes(&req.encode()).unwrap();
        assert_eq!(back.source_broker, req.source_broker);
        assert_eq!(back.vlog, req.vlog);
        assert_eq!(back.vseg, req.vseg);
        assert_eq!(back.vseg_offset, 4096);
        assert_eq!(back.flags, req.flags);
        assert_eq!(back.vseg_checksum, 0xdead_beef);
        assert_eq!(back.chunk_count, 5);
        assert_eq!(back.chunks, req.chunks);

        let resp = BackupWriteResponse { durable_offset: 8192 };
        assert_eq!(BackupWriteResponse::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn follower_fetch_roundtrip() {
        let req = FollowerFetchRequest {
            follower: NodeId(3),
            max_bytes_per_partition: 1 << 20,
            entries: vec![FollowerFetchEntry {
                stream: StreamId(1),
                partition: StreamletId(0),
                fetch_offset: 777,
            }],
        };
        let back = FollowerFetchRequest::decode(&req.encode()).unwrap();
        assert_eq!(back.follower, req.follower);
        assert_eq!(back.entries, req.entries);

        let resp = FollowerFetchResponse {
            results: vec![FollowerFetchResult {
                stream: StreamId(1),
                partition: StreamletId(0),
                high_watermark: 700,
                data: Bytes::from_static(b"log-bytes"),
            }],
        };
        let encoded = resp.encode().unwrap();
        let back = FollowerFetchResponse::decode_bytes(&encoded).unwrap();
        assert_eq!(back.results[0].high_watermark, 700);
        assert_eq!(&back.results[0].data[..], b"log-bytes");
        let base = encoded.as_ref().as_ptr() as usize;
        let data_ptr = back.results[0].data.as_ref().as_ptr() as usize;
        assert_eq!(data_ptr, base + encoded.len() - b"log-bytes".len());
    }

    #[test]
    fn recovery_messages_roundtrip() {
        let e = RecoveryEnumerateRequest { crashed_broker: NodeId(9) };
        assert_eq!(RecoveryEnumerateRequest::decode(&e.encode()).unwrap(), e);

        let resp = RecoveryEnumerateResponse {
            segments: vec![ReplicatedSegmentInfo {
                vlog: VirtualLogId(1),
                vseg: VirtualSegmentId(2),
                len: 3,
                closed: true,
            }],
        };
        let back = RecoveryEnumerateResponse::decode(&resp.encode()).unwrap();
        assert_eq!(back.segments, resp.segments);

        let rr = RecoveryReadRequest {
            crashed_broker: NodeId(9),
            vlog: VirtualLogId(1),
            vseg: VirtualSegmentId(2),
        };
        assert_eq!(RecoveryReadRequest::decode(&rr.encode()).unwrap(), rr);

        let rc = ReportCrashRequest { node: NodeId(5) };
        assert_eq!(ReportCrashRequest::decode(&rc.encode()).unwrap(), rc);
    }

    #[test]
    fn seek_roundtrip() {
        let req = SeekRequest {
            stream: StreamId(1),
            streamlet: StreamletId(2),
            slot: 3,
            record_offset: 12345,
        };
        assert_eq!(SeekRequest::decode(&req.encode()).unwrap(), req);
        let resp = SeekResponse {
            found: true,
            cursor: SlotCursor { chain: 1, segment: 2, offset: 3 },
        };
        assert_eq!(SeekResponse::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn crash_reassignment_roundtrip() {
        let resp = CrashReassignmentResponse {
            reassignments: vec![Reassignment {
                stream: StreamId(1),
                streamlet: StreamletId(2),
                new_broker: NodeId(3),
            }],
        };
        assert_eq!(CrashReassignmentResponse::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn quota_state_roundtrip() {
        let req = QuotaStateRequest { tenant: 2001 };
        assert_eq!(QuotaStateRequest::decode(&req.encode()).unwrap(), req);
        let req = QuotaStateRequest { tenant: u32::MAX };
        assert_eq!(QuotaStateRequest::decode(&req.encode()).unwrap(), req);

        let resp = QuotaStateResponse {
            enabled: true,
            known: true,
            tokens: 123_456,
            inflight_bytes: 789,
            queue_bytes: 1024,
            queue_hwm_bytes: 4096,
            throttles: 7,
            rejections: 3,
            evictions: 1,
        };
        assert_eq!(QuotaStateResponse::decode(&resp.encode()).unwrap(), resp);

        // Truncation anywhere errors cleanly.
        let buf = resp.encode();
        for cut in 0..buf.len() {
            assert!(QuotaStateResponse::decode(&buf[..cut]).is_err(), "cut at {cut} decoded");
        }
        // Non-boolean bool byte is a protocol error, not a panic.
        let mut bad = buf.to_vec();
        bad[0] = 7;
        assert!(QuotaStateResponse::decode(&bad).is_err());
    }

    #[test]
    fn introspect_roundtrip() {
        let req = IntrospectRequest { sections: introspect_sections::ALL };
        assert_eq!(IntrospectRequest::decode(&req.encode()).unwrap(), req);
        let req = IntrospectRequest { sections: introspect_sections::HEALTH };
        assert_eq!(IntrospectRequest::decode(&req.encode()).unwrap(), req);

        let resp = IntrospectResponse {
            node: 3001,
            role: introspect_role::COORDINATOR,
            is_leader: true,
            term: 4,
            vlogs: 0,
            segments: 0,
            appended_bytes: 1 << 20,
            durable_bytes: (1 << 20) - 4096,
            consumer_lag_bytes: 512,
            quota_enabled: true,
            quota_queue_bytes: 100,
            quota_queue_hwm_bytes: 2048,
            quota_throttles: 7,
            quota_rejections: 1,
            inflight: 3,
            progress: 99,
            watchdog_ms: 250,
            metrics_json: "{\"counters\":{}}".into(),
            traces_json: "[]".into(),
        };
        let buf = resp.encode().unwrap();
        let back = IntrospectResponse::decode(&buf).unwrap();
        assert_eq!(back, resp);
        assert_eq!(back.replication_lag_bytes(), 4096);
        assert_eq!(back.role_name(), "coordinator");

        // Truncation anywhere errors cleanly.
        for cut in 0..buf.len() {
            assert!(IntrospectResponse::decode(&buf[..cut]).is_err(), "cut at {cut} decoded");
        }
        // Non-boolean bool byte and out-of-range role are protocol
        // errors, not panics.
        let mut bad = buf.to_vec();
        bad[5] = 9; // is_leader
        assert!(IntrospectResponse::decode(&bad).is_err());
        let mut bad = buf.to_vec();
        bad[4] = 3; // role
        assert!(IntrospectResponse::decode(&bad).is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let req = FetchRequest {
            consumer: ConsumerId(4),
            entries: vec![FetchEntry {
                stream: StreamId(1),
                streamlet: StreamletId(2),
                slot: 0,
                cursor: SlotCursor::START,
                max_bytes: 1,
            }],
        };
        let buf = req.encode();
        assert!(FetchRequest::decode(&buf[..buf.len() - 2]).is_err());
    }
}
