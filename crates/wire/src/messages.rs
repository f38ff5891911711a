//! The body of every RPC, each declared once.
//!
//! A message here is a field list inside [`wire_struct!`]: the struct, its
//! encoder, its decoder, its minimum length and its entry in the fuzz
//! table ([`crate::frames::OpCode::TABLE`]) all come from that list, under
//! the rules in `codec.rs` (bool is 0/1; a count is written checked and
//! read bounded by the element's `MIN_LEN`; `Bytes` decodes in place).
//! The line after the braces names the inherent methods: control
//! messages get `decode(&[u8])`, the five payload carriers
//! `decode_bytes(&Bytes)`, whose bulk fields are zero-copy slices of the
//! buffer they decoded. Bulk chunk data is carried as packed chunk bytes
//! (see [`crate::chunk`]) so the same buffer travels producer → broker →
//! backup → disk without re-serialization.
//!
//! Hand-written on purpose: the two single-pack hot paths
//! ([`ProduceRequest::encode_chunks`], [`EncodedBackupWrite::pack`] — one
//! copy per chunk, DESIGN.md §12), the [`ChunkCount`] bound, and the
//! layout of `kera_common`'s `StreamConfig` with its tagged policy.

use bytes::Bytes;
use kera_common::config::{ReplicationConfig, StreamConfig, VirtualLogPolicy};
use kera_common::ids::{
    ConsumerId, NodeId, ProducerId, StreamId, StreamletId, VirtualLogId, VirtualSegmentId,
};
use kera_common::{KeraError, Result};

use crate::chunk::CHUNK_HEADER;
use crate::codec::{wire_enum, wire_struct, Reader, Rest, Wire, Writer};
use crate::cursor::SlotCursor;

// ---------------------------------------------------------------------------
// StreamConfig (shared by several messages)
// ---------------------------------------------------------------------------

/// Sizes travel as `u64`; the virtual-log policy as a `(tag u8, n u32)`
/// pair in which `n` only means something under `SharedPerBroker`.
impl Wire for StreamConfig {
    const MIN_LEN: usize = StreamId::MIN_LEN + 5 * u32::MIN_LEN + 2 * u64::MIN_LEN + u8::MIN_LEN;

    fn put(&self, w: &mut Writer) -> Result<()> {
        let (tag, n) = match self.replication.policy {
            VirtualLogPolicy::SharedPerBroker(n) => (0u8, n),
            VirtualLogPolicy::PerStreamlet => (1, 0),
            VirtualLogPolicy::PerSubPartition => (2, 0),
        };
        w.put(&self.id)?;
        w.u32(self.streamlets)
            .u32(self.active_groups)
            .u32(self.segments_per_group)
            .u64(self.segment_size as u64)
            .u32(self.replication.factor)
            .u64(self.replication.vseg_size as u64)
            .u8(tag)
            .u32(n);
        Ok(())
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let (id, streamlets, active_groups, segments_per_group) = (r.get()?, r.get()?, r.get()?, r.get()?);
        let (segment_size, factor, vseg_size) = (r.get::<u64>()? as usize, r.get()?, r.get::<u64>()? as usize);
        let policy = match (r.get::<u8>()?, r.get()?) {
            (0, n) => VirtualLogPolicy::SharedPerBroker(n),
            (1, _) => VirtualLogPolicy::PerStreamlet,
            (2, _) => VirtualLogPolicy::PerSubPartition,
            (p, _) => return Err(KeraError::Protocol(format!("unknown vlog policy {p}"))),
        };
        let replication = ReplicationConfig { factor, policy, vseg_size };
        Ok(StreamConfig { id, streamlets, active_groups, segments_per_group, segment_size, replication })
    }
}

// ---------------------------------------------------------------------------
// CreateStream / GetMetadata / HostStream / DeleteStream
// ---------------------------------------------------------------------------

wire_struct! {
    /// Client → coordinator: create a stream.
    #[derive(Clone, Debug, PartialEq)]
    pub struct CreateStreamRequest {
        pub config: StreamConfig,
    }
    encode -> Bytes; decode(&[u8]);
}

wire_struct! {
    /// Where each streamlet lives.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StreamletPlacement {
        pub streamlet: StreamletId,
        pub broker: NodeId,
    }
}

wire_struct! {
    /// Coordinator → client and coordinator → broker: full stream metadata.
    #[derive(Clone, Debug, PartialEq)]
    pub struct StreamMetadata {
        pub config: StreamConfig,
        pub placements: Vec<StreamletPlacement>,
    }
    encode -> Bytes; decode(&[u8]);
}

impl StreamMetadata {
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

wire_struct! {
    /// Client → coordinator: look up a stream.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct GetMetadataRequest {
        pub stream: StreamId,
    }
    encode -> Bytes; decode(&[u8]);
}

wire_struct! {
    /// Client → coordinator, then coordinator → every hosting broker:
    /// delete a stream.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct DeleteStreamRequest {
        pub stream: StreamId,
    }
    encode -> Bytes; decode(&[u8]);
}

wire_enum! {
    /// Roles a node can play for a hosted streamlet (Kafka baseline uses
    /// followers; KerA brokers are always leaders and replicate via vlogs).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum ReplicaRole("replica role") {
        Leader = 0,
        Follower = 1,
    }
}

wire_struct! {
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct HostAssignment {
        pub streamlet: StreamletId,
        pub role: ReplicaRole,
        pub leader: NodeId,
    }
}

wire_struct! {
    /// Coordinator → broker: host (a subset of) a stream's streamlets.
    #[derive(Clone, Debug, PartialEq)]
    pub struct HostStreamRequest {
        pub metadata: StreamMetadata,
        /// Streamlets this node must host and its role for each. For
        /// followers, `leader` is the node to fetch from.
        pub assignments: Vec<HostAssignment>,
    }
    encode -> Bytes; decode(&[u8]);
}

// ---------------------------------------------------------------------------
// Produce
// ---------------------------------------------------------------------------

/// Field codec for `chunk_count`. The count is the sender's claim: it is
/// accepted only when the bytes that follow could hold that many chunk
/// headers, before any caller sizes an allocation from it.
struct ChunkCount;

impl ChunkCount {
    const MIN_LEN: usize = u32::MIN_LEN;
    fn put(v: &u32, w: &mut Writer) -> Result<()> {
        v.put(w)
    }
    fn get(r: &mut Reader<'_>) -> Result<u32> {
        r.collection_len(CHUNK_HEADER)
    }
    fn wire_len(_: &u32) -> usize {
        Self::MIN_LEN
    }
}

wire_struct! {
    /// Producer → broker: a request carrying packed chunks (paper Fig. 3:
    /// "each request contains multiple chunks"). Chunks may belong to
    /// different streams hosted on the same broker.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ProduceRequest {
        pub producer: ProducerId,
        /// Set for recovery re-ingestion, which also arrives under its own
        /// opcode (`RecoveryIngest`); no broker branches on the flag.
        pub recovery: bool,
        pub chunk_count: u32 [ChunkCount],
        /// Packed serialized chunks: everything after the header, a
        /// zero-copy slice of the request payload — the broker appends
        /// from the same allocation the transport received into.
        pub chunks: Bytes [Rest],
    }
    encode -> Bytes; decode_bytes(&Bytes);
}

impl ProduceRequest {
    /// Serialized header size (producer + recovery flag + chunk count).
    pub const HEADER_LEN: usize = <Self as Wire>::MIN_LEN;

    /// Packs the request header and the sealed chunks into the request
    /// body in one pass — each chunk's bytes are copied exactly once, out
    /// of its seal allocation into the body the transport ships.
    pub fn encode_chunks(producer: ProducerId, recovery: bool, chunks: &[Bytes]) -> Bytes {
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        let mut w = Writer::with_capacity(Self::HEADER_LEN + total);
        // More than `u32::MAX` chunks is ≥ 200 GB of chunk headers: the
        // claim saturates and no transport carries the frame.
        let count = u32::try_from(chunks.len()).unwrap_or(u32::MAX);
        w.u32(producer.raw()).u8(u8::from(recovery)).u32(count);
        for c in chunks {
            w.bytes(c);
        }
        w.finish()
    }
}

wire_struct! {
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
}

wire_struct! {
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct ProduceResponse {
        pub acks: Vec<ChunkAck>,
    }
    encode -> Bytes; decode(&[u8]);
}

// ---------------------------------------------------------------------------
// Fetch (consumers)
// ---------------------------------------------------------------------------

wire_struct! {
    /// One streamlet slot the consumer wants data from.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct FetchEntry {
        pub stream: StreamId,
        pub streamlet: StreamletId,
        pub slot: u32,
        pub cursor: SlotCursor,
        pub max_bytes: u32,
    }
}

wire_struct! {
    /// Consumer → broker: pull durable chunks for a set of slots
    /// ("the Requests thread builds one request for each broker and pulls one
    /// chunk for each streamlet", paper Fig. 7).
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct FetchRequest {
        pub consumer: ConsumerId,
        pub entries: Vec<FetchEntry>,
    }
    encode -> Bytes; decode(&[u8]);
}

wire_struct! {
    /// Data (possibly empty) returned for one fetch entry; `cursor` is the
    /// position to use on the next fetch.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct FetchResult {
        pub stream: StreamId,
        pub streamlet: StreamletId,
        pub slot: u32,
        pub cursor: SlotCursor,
        /// Packed chunks readable up to the durable head — a zero-copy
        /// slice of the response payload (the consumer iterates the
        /// chunks in place).
        pub data: Bytes,
    }
}

wire_struct! {
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct FetchResponse {
        pub results: Vec<FetchResult>,
    }
    encode -> Result<Bytes>; decode_bytes(&Bytes);
}

// ---------------------------------------------------------------------------
// BackupWrite / BackupFree (virtual log replication)
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

wire_struct! {
    /// Broker → backup: replicate a batch of chunks belonging to one virtual
    /// segment. The consolidated RPC at the heart of the paper: one such
    /// message can carry chunks of many streams' partitions.
    #[derive(Clone, Debug, PartialEq, Eq)]
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
        pub chunk_count: u32 [ChunkCount],
        /// Packed serialized chunks (already broker-assigned): a zero-copy
        /// slice of the request payload — the backup retains the slice
        /// instead of copying the batch out of the frame.
        pub chunks: Bytes [Rest],
    }
    encode -> Bytes; decode_bytes(&Bytes);
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
        let mut w = Writer::with_capacity(BackupWriteRequest::MIN_LEN + total_chunk_bytes);
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

wire_struct! {
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct BackupWriteResponse {
        /// Bytes of the virtual segment durably held after this write.
        pub durable_offset: u32,
    }
    encode -> Bytes; decode(&[u8]);
}

wire_struct! {
    /// Broker → backup: drop every replicated segment of one of the
    /// broker's virtual logs (its stream was deleted).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct BackupFreeRequest {
        pub source: NodeId,
        pub vlog: VirtualLogId,
    }
    encode -> Bytes; decode(&[u8]);
}

// ---------------------------------------------------------------------------
// FollowerFetch (Kafka baseline, passive replication)
// ---------------------------------------------------------------------------

wire_struct! {
    /// One partition's fetch position inside a follower fetch.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct FollowerFetchEntry {
        pub stream: StreamId,
        pub partition: StreamletId,
        /// Follower's log-end byte offset — doubles as the replication ack:
        /// the leader advances the partition high watermark from it.
        pub fetch_offset: u64,
    }
}

wire_struct! {
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct FollowerFetchRequest {
        pub follower: NodeId,
        /// `replica.fetch.max.bytes` per partition.
        pub max_bytes_per_partition: u32,
        pub entries: Vec<FollowerFetchEntry>,
    }
    encode -> Bytes; decode(&[u8]);
}

wire_struct! {
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct FollowerFetchResult {
        pub stream: StreamId,
        pub partition: StreamletId,
        /// Leader's high watermark for this partition (bytes).
        pub high_watermark: u64,
        /// Raw log bytes starting at the requested fetch offset — a
        /// zero-copy slice of the response payload.
        pub data: Bytes,
    }
}

wire_struct! {
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct FollowerFetchResponse {
        pub results: Vec<FollowerFetchResult>,
    }
    encode -> Result<Bytes>; decode_bytes(&Bytes);
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

wire_struct! {
    /// Coordinator/recovery-master → backup: what do you hold for this broker?
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RecoveryEnumerateRequest {
        pub crashed_broker: NodeId,
    }
    encode -> Bytes; decode(&[u8]);
}

wire_struct! {
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct ReplicatedSegmentInfo {
        pub vlog: VirtualLogId,
        pub vseg: VirtualSegmentId,
        pub len: u32,
        pub closed: bool,
    }
}

wire_struct! {
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct RecoveryEnumerateResponse {
        pub segments: Vec<ReplicatedSegmentInfo>,
    }
    encode -> Bytes; decode(&[u8]);
}

wire_struct! {
    /// Recovery-master → backup: stream back one replicated virtual segment.
    /// The segment's packed chunks travel back as the raw response payload
    /// (no wrapper needed beyond the envelope).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RecoveryReadRequest {
        pub crashed_broker: NodeId,
        pub vlog: VirtualLogId,
        pub vseg: VirtualSegmentId,
    }
    encode -> Bytes; decode(&[u8]);
}

wire_struct! {
    /// Any node → coordinator: `node` crashed; recover it.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct ReportCrashRequest {
        pub node: NodeId,
    }
    encode -> Bytes; decode(&[u8]);
}

wire_struct! {
    /// One streamlet reassigned by crash recovery.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Reassignment {
        pub stream: StreamId,
        pub streamlet: StreamletId,
        pub new_broker: NodeId,
    }
}

wire_struct! {
    /// Coordinator → crash reporter: where the dead broker's streamlets went.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct CrashReassignmentResponse {
        pub reassignments: Vec<Reassignment>,
    }
    encode -> Bytes; decode(&[u8]);
}

// ---------------------------------------------------------------------------
// Seek
// ---------------------------------------------------------------------------

wire_struct! {
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
    encode -> Bytes; decode(&[u8]);
}

wire_struct! {
    /// Cursor of the chunk covering the requested offset; `found = false`
    /// when the slot holds no data yet (start at the beginning).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct SeekResponse {
        pub found: bool,
        pub cursor: SlotCursor,
    }
    encode -> Bytes; decode(&[u8]);
}

// ---------------------------------------------------------------------------
// Introspect
// ---------------------------------------------------------------------------

/// Section bitmask for [`IntrospectRequest::sections`]. Health is cheap
/// (a handful of atomics); metrics and traces serialize JSON bodies, so
/// scrapers that only want liveness can skip them.
pub mod introspect_sections {
    pub const HEALTH: u32 = 1 << 0;
    pub const METRICS: u32 = 1 << 1;
    pub const TRACES: u32 = 1 << 2;
    pub const ALL: u32 = HEALTH | METRICS | TRACES;
}

wire_enum! {
    /// The role a node reports in [`IntrospectResponse::role`].
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub enum NodeRole("node role") {
        #[default]
        Broker = 0,
        Backup = 1,
        Coordinator = 2,
    }
}

impl NodeRole {
    pub fn name(self) -> &'static str {
        match self {
            NodeRole::Broker => "broker",
            NodeRole::Backup => "backup",
            NodeRole::Coordinator => "coordinator",
        }
    }
}

wire_struct! {
    /// Any node → any node: introspection scrape (`kera-inspect`, CI
    /// smokes, the future multi-process scrape plane). Not the data path.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct IntrospectRequest {
        /// Bitmask of [`introspect_sections`] to include in the response.
        pub sections: u32,
    }
    encode -> Bytes; decode(&[u8]);
}

wire_struct! {
    /// One node's introspection report: a fixed health summary plus
    /// optional JSON bodies (registry snapshot, sampled slow-trace trees).
    /// Fields that don't apply to a role are zero — a backup has no term, a
    /// coordinator has no vlogs.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct IntrospectResponse {
        /// Raw node id of the reporter.
        pub node: u32,
        pub role: NodeRole,
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
    encode -> Result<Bytes>; decode(&[u8]);
}

impl IntrospectResponse {
    /// Replication lag in bytes (appended but not yet durable).
    pub fn replication_lag_bytes(&self) -> u64 {
        self.appended_bytes.saturating_sub(self.durable_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::MetaRecord;

    /// The minimums the decoders bound counts by are sums over the field
    /// lists, and come out at the sizes the formats document.
    #[test]
    fn min_lens_are_the_documented_header_sizes() {
        assert_eq!(ProduceRequest::HEADER_LEN, 9);
        assert_eq!(BackupWriteRequest::MIN_LEN, 29);
        assert_eq!(StreamConfig::MIN_LEN, 41);
        assert_eq!(StreamMetadata::MIN_LEN, 45);
        assert_eq!(MetaRecord::MIN_LEN, 29);
        assert_eq!((FetchEntry::MIN_LEN, FetchResult::MIN_LEN, ChunkAck::MIN_LEN), (28, 28, 28));
        assert_eq!((HostAssignment::MIN_LEN, ReplicatedSegmentInfo::MIN_LEN), (9, 17));
    }

    #[test]
    fn metadata_lookup() {
        let md = StreamMetadata {
            config: StreamConfig::default(),
            placements: [(0, 10), (1, 11), (2, 10)]
                .map(|(s, b)| StreamletPlacement { streamlet: StreamletId(s), broker: NodeId(b) })
                .to_vec(),
        };
        assert_eq!(md.broker_of(StreamletId(1)), Some(NodeId(11)));
        assert_eq!(md.broker_of(StreamletId(9)), None);
        assert_eq!(md.brokers(), vec![NodeId(10), NodeId(11)]);
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
    fn introspect_helpers() {
        let resp = IntrospectResponse {
            role: NodeRole::Coordinator,
            appended_bytes: 1 << 20,
            durable_bytes: (1 << 20) - 4096,
            ..IntrospectResponse::default()
        };
        assert_eq!(resp.replication_lag_bytes(), 4096);
        assert_eq!(resp.role.name(), "coordinator");
        assert!(NodeRole::from_u8(3).is_err());
    }
}
