//! Physical segments: fixed-size in-memory buffers holding appended
//! chunks (paper §IV-A).
//!
//! A segment carries two watermarks, mirroring the paper's virtual
//! segment attributes ("similar attributes are kept for each physical
//! segment"):
//!
//! - the **head** — bytes appended and published (inside
//!   [`AppendBuffer`]);
//! - the **durable head** — bytes whose chunks have been acknowledged by
//!   all backups. Consumers may only read below it, so "consumers only
//!   pull durably replicated data".
//!
//! With replication factor 1 the append path advances the durable head
//! immediately.
//!
//! A segment's memory is resident from [`Segment::new`] (an 8 MB segment
//! on 2 MB pages, see [`AppendBuffer`]): whoever creates one — a group
//! rolling on the produce worker, or a streamlet being hosted — pays its
//! page faults there, and no append takes one. The memory is returned
//! when the last `Arc<Segment>` drops; readers copy out of a segment
//! (fetch, replication pack) rather than keep views of it.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use kera_common::ids::{GroupRef, SegmentId};
use kera_wire::chunk::{self, CHUNK_HEADER};

use crate::buffer::AppendBuffer;

/// A fixed-size in-memory segment of one group.
pub struct Segment {
    group: GroupRef,
    id: SegmentId,
    buf: AppendBuffer,
    /// Bytes acknowledged by all backups (≤ head, monotone).
    durable: AtomicUsize,
    /// No further appends accepted once sealed.
    sealed: AtomicBool,
}

/// Result of appending one chunk to a segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentAppend {
    /// Byte offset of the chunk within the segment.
    pub offset: u32,
    /// Chunk length in bytes.
    pub len: u32,
}

impl Segment {
    pub fn new(group: GroupRef, id: SegmentId, capacity: usize) -> Self {
        Self {
            group,
            id,
            buf: AppendBuffer::new(capacity),
            durable: AtomicUsize::new(0),
            sealed: AtomicBool::new(false),
        }
    }

    #[inline]
    pub fn group(&self) -> GroupRef {
        self.group
    }

    #[inline]
    pub fn id(&self) -> SegmentId {
        self.id
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Published bytes (the head).
    #[inline]
    pub fn head(&self) -> usize {
        self.buf.len()
    }

    /// Bytes consumers may read.
    #[inline]
    pub fn durable_head(&self) -> usize {
        self.durable.load(Ordering::Acquire)
    }

    #[inline]
    pub fn is_sealed(&self) -> bool {
        self.sealed.load(Ordering::Acquire)
    }

    /// Seals the segment; no further appends will succeed.
    pub fn seal(&self) {
        self.sealed.store(true, Ordering::Release);
    }

    /// True if a chunk of `len` bytes fits.
    #[inline]
    pub fn fits(&self, len: usize) -> bool {
        !self.is_sealed() && self.buf.remaining() >= len
    }

    /// Appends a serialized chunk, patching its `[group, segment,
    /// base_offset]` header fields in place ("attributes ... updated at
    /// append time", §IV-B).
    ///
    /// Must be called under the owning slot's lock (single writer). Fails
    /// (returns `None`) if sealed or out of space.
    pub fn append_chunk(&self, chunk_bytes: &[u8], base_offset: u64) -> Option<SegmentAppend> {
        debug_assert!(chunk_bytes.len() >= CHUNK_HEADER);
        if self.is_sealed() {
            return None;
        }
        let group = self.group.group;
        let id = self.id;
        let offset = self.buf.append_with(chunk_bytes.len(), |dst| {
            dst.copy_from_slice(chunk_bytes);
            chunk::assign_in_place(dst, group, id, base_offset);
        })?;
        Some(SegmentAppend { offset: offset as u32, len: chunk_bytes.len() as u32 })
    }

    /// Advances the durable head to `new_durable` bytes. Monotone: calls
    /// with smaller values are ignored (replication acks can complete out
    /// of order across virtual logs).
    pub fn advance_durable(&self, new_durable: usize) {
        debug_assert!(new_durable <= self.head());
        self.durable.fetch_max(new_durable, Ordering::AcqRel);
    }

    /// Marks everything currently published as durable (replication
    /// factor 1 path).
    pub fn make_all_durable(&self) {
        self.advance_durable(self.head());
    }

    /// Reads the published range `[offset, offset+len)` — replication path
    /// (may read above the durable head but never above the head).
    pub fn read(&self, offset: usize, len: usize) -> &[u8] {
        self.buf.read(offset, len)
    }

    /// Reads as many *whole chunks* as fit in `max_bytes`, starting at
    /// `offset`, bounded by the durable head — the consumer fetch path.
    /// Returns the byte range read (possibly empty). Always returns at
    /// least one chunk if one is fully durable at `offset`, even if it
    /// exceeds `max_bytes`.
    pub fn read_durable_chunks(&self, offset: usize, max_bytes: usize) -> &[u8] {
        let durable = self.durable_head();
        if offset >= durable {
            return &[];
        }
        let window = self.buf.read(offset, durable - offset);
        &window[..chunk::whole_chunks(window, max_bytes)]
    }
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("group", &self.group)
            .field("id", &self.id)
            .field("head", &self.head())
            .field("durable", &self.durable_head())
            .field("sealed", &self.is_sealed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kera_common::ids::{GroupId, ProducerId, StreamId, StreamletId};
    use kera_wire::chunk::{ChunkBuilder, ChunkIter, ChunkView};
    use kera_wire::record::Record;

    fn gref() -> GroupRef {
        GroupRef::new(StreamId(1), StreamletId(2), GroupId(3))
    }

    fn chunk(records: usize, rec_size: usize) -> bytes::Bytes {
        let mut b = ChunkBuilder::new(64 * 1024, ProducerId(7), StreamId(1), StreamletId(2));
        let payload = vec![0x5a; rec_size];
        for _ in 0..records {
            assert!(b.append(&Record::value_only(&payload)));
        }
        b.seal()
    }

    #[test]
    fn append_assigns_headers() {
        let seg = Segment::new(gref(), SegmentId(3), 8192);
        let c = chunk(4, 100);
        let a = seg.append_chunk(&c, 1000).unwrap();
        assert_eq!(a.offset, 0);
        assert_eq!(a.len as usize, c.len());

        let stored = seg.read(0, c.len());
        let view = ChunkView::parse(stored).unwrap();
        view.verify().unwrap(); // payload checksum survives assignment
        let h = view.header();
        assert_eq!(h.group_id(), GroupId(3));
        assert_eq!(h.segment_id(), SegmentId(3));
        assert_eq!(h.base_offset, 1000);
        assert!(h.is_assigned());
    }

    #[test]
    fn durable_head_gates_consumers() {
        let seg = Segment::new(gref(), SegmentId(0), 8192);
        let c = chunk(2, 50);
        seg.append_chunk(&c, 0).unwrap();
        // Not yet durable: consumers see nothing.
        assert!(seg.read_durable_chunks(0, 1 << 20).is_empty());
        seg.advance_durable(c.len());
        let visible = seg.read_durable_chunks(0, 1 << 20);
        assert_eq!(visible.len(), c.len());
    }

    #[test]
    fn durable_head_is_monotone() {
        let seg = Segment::new(gref(), SegmentId(0), 8192);
        let c = chunk(1, 10);
        seg.append_chunk(&c, 0).unwrap();
        seg.append_chunk(&c, 1).unwrap();
        seg.advance_durable(2 * c.len());
        seg.advance_durable(c.len()); // late, smaller ack
        assert_eq!(seg.durable_head(), 2 * c.len());
    }

    #[test]
    fn sealed_segment_rejects_appends() {
        let seg = Segment::new(gref(), SegmentId(0), 8192);
        let c = chunk(1, 10);
        seg.append_chunk(&c, 0).unwrap();
        seg.seal();
        assert!(seg.is_sealed());
        assert!(!seg.fits(c.len()));
        assert!(seg.append_chunk(&c, 1).is_none());
        assert_eq!(seg.head(), c.len());
    }

    #[test]
    fn full_segment_rejects_appends() {
        let c = chunk(1, 10);
        let seg = Segment::new(gref(), SegmentId(0), c.len() + 10);
        assert!(seg.append_chunk(&c, 0).is_some());
        assert!(seg.append_chunk(&c, 1).is_none());
    }

    #[test]
    fn read_durable_chunks_respects_max_bytes_on_boundaries() {
        let seg = Segment::new(gref(), SegmentId(0), 1 << 20);
        let c = chunk(1, 100);
        for i in 0..10 {
            seg.append_chunk(&c, i).unwrap();
        }
        seg.make_all_durable();
        // Cap below one chunk: still returns exactly one whole chunk.
        let one = seg.read_durable_chunks(0, 1);
        assert_eq!(one.len(), c.len());
        // Cap at 2.5 chunks: returns two whole chunks.
        let two = seg.read_durable_chunks(0, c.len() * 5 / 2);
        assert_eq!(two.len(), 2 * c.len());
        // All chunks parse.
        let parsed: Vec<_> = ChunkIter::new(two).collect::<kera_common::Result<_>>().unwrap();
        assert_eq!(parsed.len(), 2);
        // Offsets beyond durable yield nothing.
        assert!(seg.read_durable_chunks(10 * c.len(), 1024).is_empty());
    }

    #[test]
    fn base_offsets_increase_across_appends() {
        let seg = Segment::new(gref(), SegmentId(0), 1 << 20);
        let c = chunk(3, 10);
        let mut off = 0u64;
        let mut pos = 0usize;
        for _ in 0..5 {
            seg.append_chunk(&c, off).unwrap();
            off += 3;
            pos += c.len();
        }
        seg.make_all_durable();
        let data = seg.read_durable_chunks(0, usize::MAX);
        assert_eq!(data.len(), pos);
        let mut expect = 0u64;
        for cv in ChunkIter::new(data) {
            let cv = cv.unwrap();
            assert_eq!(cv.header().base_offset, expect);
            expect += 3;
        }
    }
}
