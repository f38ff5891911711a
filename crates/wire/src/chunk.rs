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

use bytes::{Bytes, BytesMut};
use kera_common::checksum::crc32c;
use kera_common::ids::{GroupId, ProducerId, SegmentId, StreamId, StreamletId};
use kera_common::{KeraError, Result};

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

/// Builds one streamlet's chunks, one after another (paper Fig. 6: a
/// producer keeps one per streamlet).
///
/// The builder accumulates into a [`BytesMut`]; [`ChunkBuilder::seal`]
/// patches the header and *hands the allocation over* as an immutable
/// [`Bytes`] — the sealed chunk is never copied out — and rearms on a
/// fresh allocation; the sealed chunk's is freed with its last handle.
#[derive(Debug)]
pub struct ChunkBuilder {
    buf: BytesMut,
    capacity: usize,
    record_count: u32,
    producer: ProducerId,
    stream: StreamId,
    streamlet: StreamletId,
}

impl ChunkBuilder {
    /// `capacity` is the configured chunk size (header included), e.g. 16 KB.
    pub fn new(capacity: usize, producer: ProducerId, stream: StreamId, streamlet: StreamletId) -> Self {
        assert!(capacity > CHUNK_HEADER, "chunk capacity must exceed the header");
        assert!(capacity <= u32::MAX as usize, "chunk capacity must fit the u32 length field");
        let mut b = Self {
            buf: BytesMut::new(),
            capacity,
            record_count: 0,
            producer,
            stream,
            streamlet,
        };
        b.reset_header();
        b
    }

    fn reset_header(&mut self) {
        // After a zero-copy seal the allocation has moved out with the
        // sealed chunk: reserve a fresh one.
        self.buf.reserve(self.capacity);
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
    /// producer/stream/streamlet) on a fresh buffer.
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

/// Bytes of the whole chunks at the front of `window` that fit in
/// `max_bytes`, but at least its first whole chunk however large — what a
/// fetch reads of a KerA segment or of a Kafka partition log.
pub fn whole_chunks(window: &[u8], max_bytes: usize) -> usize {
    let mut end = 0;
    while end + CHUNK_HEADER <= window.len() {
        // In bounds: the loop condition keeps end + CHUNK_HEADER within
        // the window, and CHUNK_LEN + 4 <= CHUNK_HEADER.
        let p = end + field::CHUNK_LEN;
        let len = u32::from_le_bytes([window[p], window[p + 1], window[p + 2], window[p + 3]]) as usize;
        if len < CHUNK_HEADER || end + len > window.len() || (end > 0 && end + len > max_bytes) {
            break;
        }
        end += len;
        if end >= max_bytes {
            break;
        }
    }
    end
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

    /// Whole chunks only, within `max_bytes` past the first; a length
    /// shorter than a header (a zeroed tail) ends the scan.
    #[test]
    fn whole_chunks_stop_at_a_bound_a_torn_chunk_or_a_bad_length() {
        let c = sample_chunk(3);
        let mut window = [&c[..], &c[..], &c[..10]].concat();
        assert_eq!(whole_chunks(&window, usize::MAX), 2 * c.len());
        assert_eq!(whole_chunks(&window, 1), c.len());
        assert_eq!(whole_chunks(&window, 2 * c.len() - 1), c.len());
        window.truncate(2 * c.len());
        window.extend_from_slice(&[0; CHUNK_HEADER]);
        assert_eq!(whole_chunks(&window, usize::MAX), 2 * c.len());
        assert_eq!(whole_chunks(&window[..CHUNK_HEADER - 1], usize::MAX), 0);
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
