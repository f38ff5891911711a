//! The chunk format (paper §IV-A, Fig. 3).
//!
//! A chunk is the unit producers batch records into, the unit brokers
//! append to physical segments, and the unit virtual logs replicate. Each
//! chunk is tagged with the producer identifier and, once appended at the
//! broker, with the `[group, segment]` coordinates and the partition base
//! offset — these fields "are updated at append time" and are "essential at
//! recovery time" (paper §IV-B).
//!
//! On-wire layout (little-endian), `CHUNK_HEADER` = 48 bytes:
//!
//! ```text
//! +0   magic        u16  0x4B43 ("KC")
//! +2   flags        u16  bit 0: base_offset carries a producer sequence
//!                        tag (cleared at assignment); rest reserved
//! +4   chunk_len    u32  total length, header included
//! +8   checksum     u32  CRC32C over the record payload [48 .. chunk_len)
//! +12  producer     u32
//! +16  stream       u32
//! +20  streamlet    u32
//! +24  group        u32  UNASSIGNED until broker append
//! +28  segment      u32  UNASSIGNED until broker append
//! +32  base_offset  u64  first record's logical offset; assigned at append
//! +40  record_count u32
//! +44  reserved     u32
//! ```
//!
//! The checksum intentionally covers only the payload: broker-side
//! assignment patches header fields in place (inside the segment buffer)
//! without touching record bytes, so the payload checksum stays valid all
//! the way from the producer to the backups and the disk.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use kera_common::checksum::crc32c;
use kera_common::ids::{GroupId, ProducerId, SegmentId, StreamId, StreamletId};
use kera_common::{KeraError, Result};
use parking_lot::Mutex;

use crate::record::{Record, RecordIter};

/// Serialized chunk header size.
pub const CHUNK_HEADER: usize = 48;
/// Chunk magic ("KC" little-endian).
pub const CHUNK_MAGIC: u16 = 0x4B43;
/// Sentinel for group/segment fields before broker assignment.
pub const UNASSIGNED: u32 = u32::MAX;

/// Flag bit: until broker assignment, `base_offset` carries a
/// producer-assigned sequence tag. Brokers use it to recognize a
/// retransmitted chunk and replay the original ack instead of appending
/// a second copy. Cleared by [`assign_in_place`], which overwrites the
/// field the flag refers to.
pub const FLAG_SEQ_TAGGED: u16 = 0x0001;

/// Byte offsets of the patchable header fields (used by the broker append
/// path and by recovery).
pub mod field {
    pub const FLAGS: usize = 2;
    pub const CHUNK_LEN: usize = 4;
    pub const GROUP: usize = 24;
    pub const SEGMENT: usize = 28;
    pub const BASE_OFFSET: usize = 32;
}

/// Parsed chunk header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkHeader {
    pub flags: u16,
    pub chunk_len: u32,
    pub checksum: u32,
    pub producer: ProducerId,
    pub stream: StreamId,
    pub streamlet: StreamletId,
    pub group: u32,
    pub segment: u32,
    pub base_offset: u64,
    pub record_count: u32,
}

impl ChunkHeader {
    /// Parses the fixed header at `buf[0..CHUNK_HEADER]`.
    pub fn parse(buf: &[u8]) -> Result<ChunkHeader> {
        if buf.len() < CHUNK_HEADER {
            return Err(KeraError::Protocol("chunk shorter than header".into()));
        }
        let magic = u16::from_le_bytes([buf[0], buf[1]]);
        if magic != CHUNK_MAGIC {
            return Err(KeraError::Protocol(format!("bad chunk magic {magic:#06x}")));
        }
        // Offsets are all below CHUNK_HEADER, which the length check
        // above guarantees is in bounds.
        let u32_at =
            |off: usize| u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]]);
        let chunk_len = u32_at(field::CHUNK_LEN);
        if (chunk_len as usize) < CHUNK_HEADER {
            return Err(KeraError::Protocol(format!("chunk_len {chunk_len} below header size")));
        }
        Ok(ChunkHeader {
            flags: u16::from_le_bytes([buf[field::FLAGS], buf[field::FLAGS + 1]]),
            chunk_len,
            checksum: u32_at(8),
            producer: ProducerId(u32_at(12)),
            stream: StreamId(u32_at(16)),
            streamlet: StreamletId(u32_at(20)),
            group: u32_at(field::GROUP),
            segment: u32_at(field::SEGMENT),
            base_offset: u64::from_le_bytes([
                buf[32], buf[33], buf[34], buf[35], buf[36], buf[37], buf[38], buf[39],
            ]),
            record_count: u32_at(40),
        })
    }

    #[inline]
    pub fn is_assigned(&self) -> bool {
        self.group != UNASSIGNED && self.segment != UNASSIGNED
    }

    /// The producer-assigned sequence tag, if the chunk carries one (only
    /// unassigned chunks do; assignment overwrites the field and clears
    /// the flag).
    #[inline]
    pub fn sequence_tag(&self) -> Option<u64> {
        (self.flags & FLAG_SEQ_TAGGED != 0).then_some(self.base_offset)
    }

    #[inline]
    pub fn group_id(&self) -> GroupId {
        GroupId(self.group)
    }

    #[inline]
    pub fn segment_id(&self) -> SegmentId {
        SegmentId(self.segment)
    }
}

/// A free list of chunk-sized buffers shared by the builders of one
/// producer (or one bench rig).
///
/// The zero-copy seal hands the builder's allocation to the sealed
/// [`Bytes`] outright, so without recycling every chunk costs one fresh
/// allocation. The pool closes the loop: once the last reference to a
/// sealed chunk drops back to the producer (the broker acked, the
/// request buffer is gone), [`BufferPool::release`] reclaims the
/// allocation via [`Bytes::try_into_mut`] and the next
/// [`BufferPool::acquire`] reuses it. Releasing a chunk that is still
/// referenced elsewhere simply drops our handle — correctness never
/// depends on the pool, it only saves allocator traffic.
#[derive(Debug)]
pub struct BufferPool {
    bufs: Mutex<Vec<BytesMut>>,
    capacity: usize,
    max_pooled: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    outstanding: AtomicI64,
}

/// Point-in-time [`BufferPool`] accounting, scraped by the
/// introspection plane. `wire` doesn't depend on `kera-obs`, so these
/// are plain atomics the pool's owner exports into its registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquires served from the free list.
    pub hits: u64,
    /// Acquires that fell through to a fresh allocation.
    pub misses: u64,
    /// Buffers acquired and not yet released back (may briefly read
    /// negative under concurrent acquire/release races; clamped to 0).
    pub outstanding: i64,
    /// Free buffers currently pooled.
    pub pooled: usize,
}

impl BufferPool {
    /// `capacity` is the chunk size each buffer is sized for;
    /// `max_pooled` bounds how many free buffers the pool retains
    /// (excess releases just drop their allocation).
    pub fn new(capacity: usize, max_pooled: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool {
            bufs: Mutex::named("wire.pool", Vec::new()),
            capacity,
            max_pooled,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            outstanding: AtomicI64::new(0),
        })
    }

    /// Hit/miss/outstanding accounting since the pool was created.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            outstanding: self.outstanding.load(Ordering::Relaxed).max(0),
            pooled: self.pooled(),
        }
    }

    /// The chunk capacity buffers from this pool are sized for.
    #[inline]
    pub fn chunk_capacity(&self) -> usize {
        self.capacity
    }

    /// Number of free buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.bufs.lock().len()
    }

    /// A cleared buffer with at least `chunk_capacity` bytes of room —
    /// recycled if available, freshly allocated otherwise.
    pub fn acquire(&self) -> BytesMut {
        self.outstanding.fetch_add(1, Ordering::Relaxed);
        if let Some(mut b) = self.bufs.lock().pop() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            b.clear();
            return b;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        BytesMut::with_capacity(self.capacity)
    }

    /// Attempts to reclaim a sealed chunk's allocation for reuse.
    /// Succeeds (returns `true`) only when `sealed` is the last handle;
    /// otherwise the handle is dropped and the allocation stays with the
    /// remaining references.
    pub fn release(&self, sealed: Bytes) -> bool {
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        let Ok(mut buf) = sealed.try_into_mut() else { return false };
        if buf.capacity() < self.capacity {
            return false; // undersized stray; not worth pooling
        }
        buf.clear();
        let mut bufs = self.bufs.lock();
        if bufs.len() >= self.max_pooled {
            return false;
        }
        bufs.push(buf);
        true
    }
}

/// Builds a chunk in a fixed-capacity reusable buffer.
///
/// Producers keep a pool of these (one set per streamlet, recycled between
/// requests — paper Fig. 6); `reset` rearms the builder without
/// reallocating.
///
/// The builder accumulates into a [`BytesMut`]; [`ChunkBuilder::seal`]
/// patches the header and *hands the allocation over* as an immutable
/// [`Bytes`] — the sealed chunk is never copied out. A builder created
/// via [`ChunkBuilder::with_pool`] refills from (and its sealed chunks
/// can be returned to) a shared [`BufferPool`].
#[derive(Debug)]
pub struct ChunkBuilder {
    buf: BytesMut,
    capacity: usize,
    record_count: u32,
    producer: ProducerId,
    stream: StreamId,
    streamlet: StreamletId,
    pool: Option<Arc<BufferPool>>,
}

impl ChunkBuilder {
    /// `capacity` is the configured chunk size (header included), e.g. 16 KB.
    pub fn new(capacity: usize, producer: ProducerId, stream: StreamId, streamlet: StreamletId) -> Self {
        Self::build(capacity, None, producer, stream, streamlet)
    }

    /// A builder drawing its buffers from `pool` (chunk capacity comes
    /// from the pool).
    pub fn with_pool(
        pool: Arc<BufferPool>,
        producer: ProducerId,
        stream: StreamId,
        streamlet: StreamletId,
    ) -> Self {
        Self::build(pool.chunk_capacity(), Some(pool), producer, stream, streamlet)
    }

    fn build(
        capacity: usize,
        pool: Option<Arc<BufferPool>>,
        producer: ProducerId,
        stream: StreamId,
        streamlet: StreamletId,
    ) -> Self {
        assert!(capacity > CHUNK_HEADER, "chunk capacity must exceed the header");
        assert!(capacity <= u32::MAX as usize, "chunk capacity must fit the u32 length field");
        let mut b = Self {
            buf: BytesMut::new(),
            capacity,
            record_count: 0,
            producer,
            stream,
            streamlet,
            pool,
        };
        b.reset_header();
        b
    }

    fn reset_header(&mut self) {
        self.buf.clear();
        // After a zero-copy seal the allocation has moved out with the
        // sealed chunk: refill from the pool (recycled ack'd chunk) or
        // reserve a fresh one.
        if self.buf.capacity() < self.capacity {
            match &self.pool {
                Some(pool) => self.buf = pool.acquire(),
                None => self.buf.reserve(self.capacity),
            }
        }
        self.buf.extend_from_slice(&CHUNK_MAGIC.to_le_bytes());
        self.buf.extend_from_slice(&0u16.to_le_bytes()); // flags
        self.buf.extend_from_slice(&0u32.to_le_bytes()); // chunk_len (patched)
        self.buf.extend_from_slice(&0u32.to_le_bytes()); // checksum (patched)
        self.buf.extend_from_slice(&self.producer.raw().to_le_bytes());
        self.buf.extend_from_slice(&self.stream.raw().to_le_bytes());
        self.buf.extend_from_slice(&self.streamlet.raw().to_le_bytes());
        self.buf.extend_from_slice(&UNASSIGNED.to_le_bytes()); // group
        self.buf.extend_from_slice(&UNASSIGNED.to_le_bytes()); // segment
        self.buf.extend_from_slice(&0u64.to_le_bytes()); // base_offset
        self.buf.extend_from_slice(&0u32.to_le_bytes()); // record_count (patched)
        self.buf.extend_from_slice(&0u32.to_le_bytes()); // reserved
        debug_assert_eq!(self.buf.len(), CHUNK_HEADER);
        self.record_count = 0;
    }

    /// Retargets the builder (builders are pooled and reused across
    /// streamlets) and clears any accumulated records.
    pub fn reset(&mut self, producer: ProducerId, stream: StreamId, streamlet: StreamletId) {
        self.producer = producer;
        self.stream = stream;
        self.streamlet = streamlet;
        self.reset_header();
    }

    #[inline]
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    #[inline]
    pub fn streamlet(&self) -> StreamletId {
        self.streamlet
    }

    #[inline]
    pub fn record_count(&self) -> u32 {
        self.record_count
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.record_count == 0
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Remaining payload capacity in bytes.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.capacity - self.buf.len()
    }

    /// True if a record of `encoded_len` bytes would fit.
    #[inline]
    pub fn fits(&self, encoded_len: usize) -> bool {
        self.buf.len() + encoded_len <= self.capacity
    }

    /// Appends a record; returns `false` (without modifying the chunk) if
    /// it does not fit. The caller then seals this chunk and retries on a
    /// fresh one.
    pub fn append(&mut self, record: &Record<'_>) -> bool {
        if !self.fits(record.encoded_len()) {
            return false;
        }
        record.encode_into(&mut self.buf);
        self.record_count += 1;
        true
    }

    /// Seals the chunk: patches length, record count and payload checksum,
    /// and returns the serialized bytes. The builder rearms itself (same
    /// producer/stream/streamlet) on a recycled or fresh buffer; call
    /// [`ChunkBuilder::reset`] only to retarget it.
    ///
    /// The sealed [`Bytes`] *is* the builder's accumulation buffer —
    /// the records were serialized directly into it by `append`, and
    /// every later hop (request pack, broker append, replication) takes
    /// slices of or copies from this one allocation.
    pub fn seal(&mut self) -> Bytes {
        // Past 4 GiB (`fits` forbids it) saturate, so the chunk fails to parse.
        let chunk_len = u32::try_from(self.buf.len()).unwrap_or(u32::MAX);
        self.buf[field::CHUNK_LEN..field::CHUNK_LEN + 4]
            .copy_from_slice(&chunk_len.to_le_bytes());
        self.buf[40..44].copy_from_slice(&self.record_count.to_le_bytes());
        let crc = crc32c(&self.buf[CHUNK_HEADER..]);
        self.buf[8..12].copy_from_slice(&crc.to_le_bytes());
        let sealed = self.buf.split().freeze();
        self.reset_header();
        sealed
    }

    /// Seals the chunk with a producer-assigned sequence tag stashed in
    /// the (still unassigned) `base_offset` field. The broker uses the tag
    /// to suppress duplicate appends when a produce request is retried.
    pub fn seal_with_sequence(&mut self, seq: u64) -> Bytes {
        let flags = u16::from_le_bytes([self.buf[field::FLAGS], self.buf[field::FLAGS + 1]])
            | FLAG_SEQ_TAGGED;
        self.buf[field::FLAGS..field::FLAGS + 2].copy_from_slice(&flags.to_le_bytes());
        self.buf[field::BASE_OFFSET..field::BASE_OFFSET + 8].copy_from_slice(&seq.to_le_bytes());
        self.seal()
    }
}

/// Zero-copy view over one serialized chunk.
#[derive(Clone, Copy, Debug)]
pub struct ChunkView<'a> {
    buf: &'a [u8],
    header: ChunkHeader,
}

impl<'a> ChunkView<'a> {
    /// Parses the chunk starting at `buf[0]`; trims to `chunk_len`.
    pub fn parse(buf: &'a [u8]) -> Result<ChunkView<'a>> {
        let header = ChunkHeader::parse(buf)?;
        let len = header.chunk_len as usize;
        if len > buf.len() {
            return Err(KeraError::Protocol(format!(
                "chunk_len {len} exceeds buffer {}",
                buf.len()
            )));
        }
        Ok(ChunkView { buf: &buf[..len], header })
    }

    #[inline]
    pub fn header(&self) -> &ChunkHeader {
        &self.header
    }

    #[inline]
    pub fn bytes(&self) -> &'a [u8] {
        self.buf
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.payload().is_empty()
    }

    /// The packed record bytes.
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        &self.buf[CHUNK_HEADER..]
    }

    /// Validates the payload checksum.
    pub fn verify(&self) -> Result<()> {
        let actual = crc32c(self.payload());
        if actual != self.header.checksum {
            return Err(KeraError::Corruption {
                what: "chunk",
                expected: self.header.checksum,
                actual,
            });
        }
        Ok(())
    }

    /// Iterates over the records in the chunk.
    pub fn records(&self) -> RecordIter<'a> {
        RecordIter::new(self.payload())
    }
}

/// Patches the broker-assigned fields of a serialized chunk in place.
///
/// `buf` must point at the start of the chunk (inside a segment buffer or a
/// request body). Only `group`, `segment` and `base_offset` are written; the
/// payload checksum is unaffected by design.
pub fn assign_in_place(buf: &mut [u8], group: GroupId, segment: SegmentId, base_offset: u64) {
    debug_assert!(buf.len() >= CHUNK_HEADER);
    buf[field::GROUP..field::GROUP + 4].copy_from_slice(&group.raw().to_le_bytes());
    buf[field::SEGMENT..field::SEGMENT + 4].copy_from_slice(&segment.raw().to_le_bytes());
    buf[field::BASE_OFFSET..field::BASE_OFFSET + 8].copy_from_slice(&base_offset.to_le_bytes());
    // The sequence tag lived in base_offset, which now holds the real
    // offset: clear the flag so stored/replicated chunks are canonical.
    let flags = u16::from_le_bytes([buf[field::FLAGS], buf[field::FLAGS + 1]]) & !FLAG_SEQ_TAGGED;
    buf[field::FLAGS..field::FLAGS + 2].copy_from_slice(&flags.to_le_bytes());
}

/// Iterates chunks packed back-to-back (a produce request body, a backup
/// replicated segment, an on-disk segment file).
pub struct ChunkIter<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ChunkIter<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Byte offset of the next chunk to be returned.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }
}

impl<'a> Iterator for ChunkIter<'a> {
    type Item = Result<ChunkView<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.buf.len() {
            return None;
        }
        match ChunkView::parse(&self.buf[self.pos..]) {
            Ok(view) => {
                self.pos += view.len();
                Some(Ok(view))
            }
            Err(e) => {
                self.pos = self.buf.len();
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_chunk(n_records: usize) -> Bytes {
        let mut b = ChunkBuilder::new(4096, ProducerId(9), StreamId(1), StreamletId(2));
        for i in 0..n_records {
            let v = vec![i as u8; 100];
            assert!(b.append(&Record::value_only(&v)));
        }
        b.seal()
    }

    #[test]
    fn build_parse_verify_roundtrip() {
        let bytes = sample_chunk(10);
        let view = ChunkView::parse(&bytes).unwrap();
        view.verify().unwrap();
        let h = view.header();
        assert_eq!(h.producer, ProducerId(9));
        assert_eq!(h.stream, StreamId(1));
        assert_eq!(h.streamlet, StreamletId(2));
        assert_eq!(h.record_count, 10);
        assert_eq!(h.chunk_len as usize, bytes.len());
        assert!(!h.is_assigned());
        let recs: Vec<_> = view.records().collect::<Result<_>>().unwrap();
        assert_eq!(recs.len(), 10);
        assert_eq!(recs[3].value(), &[3u8; 100][..]);
    }

    #[test]
    fn capacity_is_respected() {
        let mut b = ChunkBuilder::new(256, ProducerId(0), StreamId(0), StreamletId(0));
        let payload = [0u8; 100];
        let rec = Record::value_only(&payload);
        assert!(b.append(&rec)); // 112 bytes + 48 header = 160
        assert!(!b.append(&rec)); // would be 272 > 256
        assert_eq!(b.record_count(), 1);
        let sealed = b.seal();
        assert_eq!(sealed.len(), CHUNK_HEADER + 112);
    }

    #[test]
    fn reset_reuses_builder() {
        let mut b = ChunkBuilder::new(1024, ProducerId(1), StreamId(1), StreamletId(1));
        b.append(&Record::value_only(b"abc"));
        let first = b.seal();
        b.reset(ProducerId(2), StreamId(3), StreamletId(4));
        assert!(b.is_empty());
        b.append(&Record::value_only(b"xyz"));
        let second = b.seal();
        let h2 = *ChunkView::parse(&second).unwrap().header();
        assert_eq!(h2.producer, ProducerId(2));
        assert_eq!(h2.stream, StreamId(3));
        assert_eq!(h2.streamlet, StreamletId(4));
        assert_ne!(first, second);
    }

    #[test]
    fn assignment_patch_preserves_checksum() {
        let bytes = sample_chunk(3);
        let mut owned = bytes.to_vec();
        assign_in_place(&mut owned, GroupId(5), SegmentId(7), 12345);
        let view = ChunkView::parse(&owned).unwrap();
        view.verify().unwrap(); // payload checksum still valid
        let h = view.header();
        assert!(h.is_assigned());
        assert_eq!(h.group_id(), GroupId(5));
        assert_eq!(h.segment_id(), SegmentId(7));
        assert_eq!(h.base_offset, 12345);
    }

    #[test]
    fn payload_corruption_detected() {
        let bytes = sample_chunk(2);
        let mut owned = bytes.to_vec();
        owned[CHUNK_HEADER + 20] ^= 1;
        let view = ChunkView::parse(&owned).unwrap();
        assert!(view.verify().is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let bytes = sample_chunk(1);
        let mut owned = bytes.to_vec();
        owned[0] = 0;
        assert!(ChunkView::parse(&owned).is_err());
    }

    #[test]
    fn truncated_chunk_rejected() {
        let bytes = sample_chunk(1);
        assert!(ChunkView::parse(&bytes[..bytes.len() - 1]).is_err());
        assert!(ChunkView::parse(&bytes[..10]).is_err());
    }

    #[test]
    fn chunk_iter_walks_a_request_body() {
        let mut body = Vec::new();
        for n in 1..=4 {
            body.extend_from_slice(&sample_chunk(n));
        }
        let chunks: Vec<_> = ChunkIter::new(&body).collect::<Result<_>>().unwrap();
        assert_eq!(chunks.len(), 4);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.header().record_count as usize, i + 1);
            c.verify().unwrap();
        }
    }

    #[test]
    fn chunk_iter_position_tracks_bytes() {
        let one = sample_chunk(2);
        let mut body = one.to_vec();
        body.extend_from_slice(&one);
        let mut it = ChunkIter::new(&body);
        assert_eq!(it.position(), 0);
        it.next().unwrap().unwrap();
        assert_eq!(it.position(), one.len());
    }

    #[test]
    fn sequence_tag_roundtrip_and_cleared_on_assignment() {
        let mut b = ChunkBuilder::new(4096, ProducerId(9), StreamId(1), StreamletId(2));
        b.append(&Record::value_only(b"hello"));
        let bytes = b.seal_with_sequence(0xDEAD_BEEF_1234);
        let view = ChunkView::parse(&bytes).unwrap();
        view.verify().unwrap(); // tag lives in the header; checksum unaffected
        assert_eq!(view.header().sequence_tag(), Some(0xDEAD_BEEF_1234));
        assert!(!view.header().is_assigned());

        let mut owned = bytes.to_vec();
        assign_in_place(&mut owned, GroupId(5), SegmentId(7), 42);
        let assigned = ChunkView::parse(&owned).unwrap();
        assigned.verify().unwrap();
        let h = assigned.header();
        assert_eq!(h.sequence_tag(), None, "assignment consumes the tag");
        assert_eq!(h.base_offset, 42);
        assert_eq!(h.flags & FLAG_SEQ_TAGGED, 0);
    }

    #[test]
    fn untagged_chunks_have_no_sequence_tag() {
        let bytes = sample_chunk(1);
        assert_eq!(ChunkView::parse(&bytes).unwrap().header().sequence_tag(), None);
    }

    #[test]
    fn seal_hands_over_the_accumulation_buffer() {
        // Zero-copy contract: the sealed Bytes is the very allocation the
        // records were encoded into, not a copy of it.
        let mut b = ChunkBuilder::new(4096, ProducerId(1), StreamId(1), StreamletId(1));
        b.append(&Record::value_only(b"zero-copy"));
        let ptr = b.buf.as_ref().as_ptr();
        let sealed = b.seal();
        assert_eq!(sealed.as_ref().as_ptr(), ptr);
        // The builder rearmed itself: a second chunk builds immediately.
        assert!(b.is_empty());
        b.append(&Record::value_only(b"next"));
        let second = b.seal();
        ChunkView::parse(&second).unwrap().verify().unwrap();
    }

    #[test]
    fn pool_recycles_released_chunks() {
        let pool = BufferPool::new(4096, 4);
        let mut b = ChunkBuilder::with_pool(Arc::clone(&pool), ProducerId(1), StreamId(1), StreamletId(1));
        b.append(&Record::value_only(b"pooled"));
        let sealed = b.seal();
        let ptr = sealed.as_ref().as_ptr();

        // While the sealed chunk is shared, release refuses to reclaim.
        let shared = sealed.clone();
        assert!(!pool.release(shared));
        assert_eq!(pool.pooled(), 0);

        // Last handle: the allocation goes back to the pool...
        assert!(pool.release(sealed));
        assert_eq!(pool.pooled(), 1);

        // ...and the next rearm reuses it without allocating.
        b.append(&Record::value_only(b"again"));
        let _second = b.seal(); // consumes the builder's current buffer
        b.append(&Record::value_only(b"third"));
        assert_eq!(b.buf.as_ref().as_ptr(), ptr, "rearm should reuse the pooled allocation");
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn pool_bounds_retained_buffers() {
        let pool = BufferPool::new(256, 1);
        let a = BytesMut::with_capacity(256).freeze();
        let b = BytesMut::with_capacity(256).freeze();
        assert!(pool.release(a));
        assert!(!pool.release(b), "pool at max_pooled drops the extra buffer");
        assert_eq!(pool.pooled(), 1);
        // Undersized buffers are not pooled.
        assert!(!pool.release(Bytes::from(vec![0u8; 8])));
    }

    #[test]
    fn pool_stats_track_hits_misses_outstanding() {
        let pool = BufferPool::new(256, 4);
        let a = pool.acquire(); // empty pool -> miss
        let b = pool.acquire(); // miss
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.outstanding), (0, 2, 2));

        assert!(pool.release(a.freeze()));
        let s = pool.stats();
        assert_eq!((s.outstanding, s.pooled), (1, 1));

        let c = pool.acquire(); // served from the free list -> hit
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.outstanding, s.pooled), (1, 2, 2, 0));
        drop(b);
        drop(c);
    }

    #[test]
    fn empty_chunk_seals_and_parses() {
        let mut b = ChunkBuilder::new(128, ProducerId(0), StreamId(0), StreamletId(0));
        let sealed = b.seal();
        let view = ChunkView::parse(&sealed).unwrap();
        view.verify().unwrap();
        assert_eq!(view.header().record_count, 0);
        assert!(view.is_empty());
        assert_eq!(view.records().count(), 0);
    }
}
