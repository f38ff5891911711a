//! Streamlets — KerA's logical partitions (paper §IV-A, Fig. 4).
//!
//! A streamlet exposes `Q` *slots* (active-group chains). A producer's
//! chunk lands in slot `producer mod Q` ("a producer writes to the
//! streamlet's active group corresponding to the entry calculated as
//! producer identifier modulo Q"), so up to `Q` producers append to one
//! streamlet in parallel. Each slot owns an unbounded chain of groups,
//! created dynamically as data arrives; group ids are allocated as
//! `slot + chain·Q` so consumer cursors can walk the chain without a
//! directory (see [`kera_wire::cursor`]).

use std::collections::HashMap;
use std::sync::Arc;

use kera_common::config::StreamConfig;
use kera_common::ids::{GroupId, GroupRef, ProducerId, StreamId, StreamletId};
use kera_common::{KeraError, Result};
use kera_wire::chunk::CHUNK_HEADER;
use kera_wire::cursor::SlotCursor;
use kera_wire::messages::ChunkAck;
use parking_lot::{Mutex, RwLock};

use crate::group::Group;
use crate::index::{IndexEntry, OffsetIndex};
use crate::segment::Segment;

/// Where a chunk landed: everything the broker needs to ack the producer
/// and hand the chunk reference to the virtual log.
#[derive(Clone, Debug)]
pub struct StreamletAppend {
    pub gref: GroupRef,
    pub segment: Arc<Segment>,
    pub segment_index: u32,
    pub offset_in_segment: u32,
    pub len: u32,
    pub base_offset: u64,
    pub records: u32,
    pub slot: u32,
}

impl StreamletAppend {
    pub fn to_ack(&self) -> ChunkAck {
        ChunkAck {
            stream: self.gref.stream,
            streamlet: self.gref.streamlet,
            group: self.gref.group.raw(),
            segment: self.segment_index,
            base_offset: self.base_offset,
            records: self.records,
        }
    }
}

/// Outcome of a tracked (retry-safe) append.
#[derive(Clone, Debug)]
pub enum SlotAppend {
    /// The chunk was physically appended now.
    Fresh { append: StreamletAppend, token: Option<u64> },
    /// The chunk's sequence tag matched an earlier append from the same
    /// producer — a retried produce request whose response was lost. The
    /// original ack (and durability token) is replayed; nothing is
    /// appended.
    Replay { ack: ChunkAck, token: Option<u64> },
}

/// Recent (producer, sequence-tag) → ack mappings of one slot, so a
/// retried produce request replays the original ack instead of appending
/// a second copy of the chunk. Bounded FIFO per slot.
#[derive(Default)]
struct ReplayCache {
    acks: HashMap<(ProducerId, u64), (ChunkAck, Option<u64>)>,
    order: std::collections::VecDeque<(ProducerId, u64)>,
}

impl ReplayCache {
    /// Plenty for the handful of in-flight requests a producer pipelines;
    /// a retry always lands well within this window.
    const MAX_ENTRIES: usize = 1024;

    fn get(&self, producer: ProducerId, seq: u64) -> Option<(ChunkAck, Option<u64>)> {
        self.acks.get(&(producer, seq)).copied()
    }

    fn insert(&mut self, producer: ProducerId, seq: u64, ack: ChunkAck, token: Option<u64>) {
        if self.acks.insert((producer, seq), (ack, token)).is_none() {
            self.order.push_back((producer, seq));
            while self.order.len() > Self::MAX_ENTRIES {
                if let Some(old) = self.order.pop_front() {
                    self.acks.remove(&old);
                }
            }
        }
    }
}

struct Slot {
    /// Chain index of the active group.
    chain: u32,
    group: Arc<Group>,
    /// Next logical record offset in this slot (continuous across the
    /// slot's chain of groups).
    next_offset: u64,
    /// Per-chunk offset index (seek by record offset).
    index: OffsetIndex,
    /// Duplicate suppression for retried produce requests.
    replays: ReplayCache,
}

/// One hosted streamlet.
pub struct Streamlet {
    stream: StreamId,
    id: StreamletId,
    q: u32,
    segment_size: usize,
    segments_per_group: u32,
    slots: Vec<Mutex<Slot>>,
    /// Every group ever created (open and closed), for the read path.
    groups: RwLock<HashMap<GroupId, Arc<Group>>>,
}

impl Streamlet {
    pub fn new(stream: StreamId, id: StreamletId, config: &StreamConfig) -> Self {
        let q = config.active_groups;
        let mut groups = HashMap::new();
        let slots = (0..q)
            .map(|slot| {
                let gid = GroupId(slot); // chain 0
                let gref = GroupRef::new(stream, id, gid);
                let group =
                    Arc::new(Group::new(gref, config.segment_size, config.segments_per_group));
                groups.insert(gid, Arc::clone(&group));
                Mutex::named(
                    "streamlet.slot",
                    Slot {
                        chain: 0,
                        group,
                        next_offset: 0,
                        index: OffsetIndex::new(),
                        replays: ReplayCache::default(),
                    },
                )
            })
            .collect();
        Self {
            stream,
            id,
            q,
            segment_size: config.segment_size,
            segments_per_group: config.segments_per_group,
            slots,
            groups: RwLock::named("streamlet.groups", groups),
        }
    }

    #[inline]
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    #[inline]
    pub fn id(&self) -> StreamletId {
        self.id
    }

    /// `Q` — number of parallel append slots.
    #[inline]
    pub fn q(&self) -> u32 {
        self.q
    }

    /// Slot a producer appends to.
    #[inline]
    pub fn slot_of(&self, producer: ProducerId) -> u32 {
        producer.raw() % self.q
    }

    /// Appends a serialized chunk on behalf of `producer`. Rolls segments
    /// and groups as needed.
    pub fn append_chunk(
        &self,
        producer: ProducerId,
        chunk: &[u8],
        records: u32,
    ) -> Result<StreamletAppend> {
        match self.append_chunk_tracked(producer, chunk, records, None, |_| Ok(None))? {
            SlotAppend::Fresh { append, .. } => Ok(append),
            // Unreachable without a sequence tag, but keep the contract
            // total rather than panicking.
            SlotAppend::Replay { .. } => Err(KeraError::Protocol(
                "untracked append reported a replay".into(),
            )),
        }
    }

    /// Appends a chunk and runs `after` **while still holding the slot
    /// lock**. The produce path uses this to append the chunk's reference
    /// to the streamlet's virtual log atomically with the physical append:
    /// because every chunk of a slot goes to the same virtual log, chunk
    /// references then enter the virtual log in exactly the physical
    /// append order, which keeps per-segment durable heads contiguous as
    /// replication acks arrive (paper §IV-B: "the chunk is appended to the
    /// active group ... and then a chunk reference is appended to the
    /// replicated virtual log").
    ///
    /// `after` returns an opaque durability token (the broker passes the
    /// virtual-log ticket). When `seq` is given, the slot remembers
    /// (producer, seq) → (ack, token); a later append carrying the same
    /// tag is recognized as a retried request and answered with
    /// [`SlotAppend::Replay`] — the original ack — instead of a duplicate
    /// physical append. This is the exactly-once half the producer's
    /// blind retransmit relies on.
    pub fn append_chunk_tracked(
        &self,
        producer: ProducerId,
        chunk: &[u8],
        records: u32,
        seq: Option<u64>,
        after: impl FnOnce(&StreamletAppend) -> Result<Option<u64>>,
    ) -> Result<SlotAppend> {
        if chunk.len() > self.segment_size {
            return Err(KeraError::ChunkTooLarge { chunk: chunk.len(), segment: self.segment_size });
        }
        debug_assert!(chunk.len() >= CHUNK_HEADER);
        let slot_idx = self.slot_of(producer);
        let mut slot = self.slots[slot_idx as usize].lock();
        if let Some(seq) = seq {
            if let Some((ack, token)) = slot.replays.get(producer, seq) {
                return Ok(SlotAppend::Replay { ack, token });
            }
        }
        let base_offset = slot.next_offset;
        loop {
            if let Some(ga) = slot.group.append_chunk(chunk, base_offset) {
                slot.next_offset += u64::from(records);
                let append = StreamletAppend {
                    gref: slot.group.gref(),
                    segment: ga.segment,
                    segment_index: ga.segment_index,
                    offset_in_segment: ga.at.offset,
                    len: ga.at.len,
                    base_offset,
                    records,
                    slot: slot_idx,
                };
                let chain = slot.chain;
                slot.index.push(IndexEntry {
                    base_offset,
                    chain,
                    segment: ga.segment_index,
                    byte_offset: ga.at.offset,
                });
                let token = after(&append)?;
                if let Some(seq) = seq {
                    slot.replays.insert(producer, seq, append.to_ack(), token);
                }
                return Ok(SlotAppend::Fresh { append, token });
            }
            // Group closed: open the next group in this slot's chain.
            let chain = slot.chain + 1;
            let gid = GroupId(slot_idx + chain * self.q);
            let gref = GroupRef::new(self.stream, self.id, gid);
            let group = Arc::new(Group::new(gref, self.segment_size, self.segments_per_group));
            self.groups.write().insert(gid, Arc::clone(&group));
            slot.chain = chain;
            slot.group = group;
        }
    }

    /// Translates a logical record offset in `slot` to the cursor of the
    /// chunk covering it ("consumers can read at any offset", paper §I;
    /// lightweight per-chunk index, §IV). `None` = slot has no data yet
    /// (start at [`SlotCursor::START`]).
    pub fn seek(&self, slot: u32, record_offset: u64) -> Option<SlotCursor> {
        let guard = self.slots.get(slot as usize)?.lock();
        guard.index.seek(record_offset).map(|e| e.cursor())
    }

    /// Closes every group (stream deletion): concurrent and future
    /// appends fail, readers can still drain what is already there.
    pub fn close_all_groups(&self) {
        for g in self.groups.read().values() {
            g.close();
        }
    }

    /// Group lookup for the read path.
    pub fn group(&self, gid: GroupId) -> Option<Arc<Group>> {
        self.groups.read().get(&gid).cloned()
    }

    /// Number of groups created so far (all slots).
    pub fn group_count(&self) -> usize {
        self.groups.read().len()
    }

    /// Reads durable chunks for a consumer positioned at `cursor` in
    /// `slot`, advancing the cursor across sealed segments and closed
    /// groups. Returns `(data, new_cursor)`; `data` is empty when the
    /// consumer is caught up.
    pub fn read_slot(
        &self,
        slot: u32,
        mut cursor: SlotCursor,
        max_bytes: usize,
    ) -> (Vec<u8>, SlotCursor) {
        let mut out = Vec::new();
        // Bound the walk: a fetch crosses at most a handful of boundaries.
        for _ in 0..64 {
            let gid = cursor.group_id(slot, self.q);
            let Some(group) = self.group(gid) else { break };
            let Some(segment) = group.segment(cursor.segment) else {
                // Segment not created yet: caught up.
                break;
            };
            let data = segment.read_durable_chunks(
                cursor.offset as usize,
                max_bytes.saturating_sub(out.len()),
            );
            if !data.is_empty() {
                out.extend_from_slice(data);
                cursor.offset += data.len() as u32;
                if out.len() >= max_bytes {
                    break;
                }
            }
            // Advance over finished segments/groups only when fully
            // consumed *and* nothing more can ever appear there.
            let consumed_all = cursor.offset as usize >= segment.head();
            if segment.is_sealed() && consumed_all {
                let has_next_segment = group.segment(cursor.segment + 1).is_some();
                if has_next_segment {
                    cursor = cursor.next_segment();
                    continue;
                }
                if group.is_closed() {
                    cursor = cursor.next_group();
                    continue;
                }
            }
            if data.is_empty() {
                break; // caught up (or waiting on durability)
            }
        }
        (out, cursor)
    }
}

impl std::fmt::Debug for Streamlet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Streamlet")
            .field("stream", &self.stream)
            .field("id", &self.id)
            .field("q", &self.q)
            .field("groups", &self.group_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kera_common::config::ReplicationConfig;
    use kera_wire::chunk::{ChunkBuilder, ChunkIter};
    use kera_wire::record::Record;

    fn config(q: u32, segment_size: usize, segs_per_group: u32) -> StreamConfig {
        StreamConfig {
            id: StreamId(1),
            streamlets: 1,
            active_groups: q,
            segments_per_group: segs_per_group,
            segment_size,
            replication: ReplicationConfig::default(),
        }
    }

    fn chunk(records: u32) -> bytes::Bytes {
        let mut b = ChunkBuilder::new(16 * 1024, ProducerId(0), StreamId(1), StreamletId(0));
        for _ in 0..records {
            b.append(&Record::value_only(&[7u8; 100]));
        }
        b.seal()
    }

    #[test]
    fn producers_map_to_slots() {
        let s = Streamlet::new(StreamId(1), StreamletId(0), &config(4, 1 << 20, 4));
        assert_eq!(s.slot_of(ProducerId(0)), 0);
        assert_eq!(s.slot_of(ProducerId(5)), 1);
        assert_eq!(s.slot_of(ProducerId(7)), 3);
    }

    #[test]
    fn offsets_are_per_slot_and_contiguous() {
        let s = Streamlet::new(StreamId(1), StreamletId(0), &config(2, 1 << 20, 4));
        let c = chunk(10);
        // Producer 0 -> slot 0, producer 1 -> slot 1.
        let a0 = s.append_chunk(ProducerId(0), &c, 10).unwrap();
        let a1 = s.append_chunk(ProducerId(1), &c, 10).unwrap();
        let a2 = s.append_chunk(ProducerId(0), &c, 10).unwrap();
        assert_eq!(a0.base_offset, 0);
        assert_eq!(a1.base_offset, 0); // independent slot
        assert_eq!(a2.base_offset, 10);
        assert_eq!(a0.gref.group, GroupId(0));
        assert_eq!(a1.gref.group, GroupId(1));
    }

    #[test]
    fn group_chain_advances_when_group_fills() {
        let c = chunk(1);
        // 1 segment per group, each fitting exactly 2 chunks -> a group
        // closes every 2 appends.
        let s = Streamlet::new(StreamId(1), StreamletId(0), &config(1, c.len() * 2, 1));
        let mut groups = Vec::new();
        for i in 0..6 {
            let a = s.append_chunk(ProducerId(0), &c, 1).unwrap();
            assert_eq!(a.base_offset, i as u64);
            groups.push(a.gref.group.raw());
        }
        assert_eq!(groups, vec![0, 0, 1, 1, 2, 2]);
        assert_eq!(s.group_count(), 3);
    }

    #[test]
    fn q_slots_chain_group_ids_disjointly() {
        let c = chunk(1);
        let q = 2;
        let s = Streamlet::new(StreamId(1), StreamletId(0), &config(q, c.len(), 1));
        // Slot 0: groups 0, 2, 4...; slot 1: groups 1, 3, 5...
        let mut slot0 = Vec::new();
        let mut slot1 = Vec::new();
        for _ in 0..3 {
            slot0.push(s.append_chunk(ProducerId(0), &c, 1).unwrap().gref.group.raw());
            slot1.push(s.append_chunk(ProducerId(1), &c, 1).unwrap().gref.group.raw());
        }
        assert_eq!(slot0, vec![0, 2, 4]);
        assert_eq!(slot1, vec![1, 3, 5]);
    }

    #[test]
    fn oversized_chunk_is_an_error() {
        let s = Streamlet::new(StreamId(1), StreamletId(0), &config(1, 128, 1));
        let c = chunk(10);
        let err = s.append_chunk(ProducerId(0), &c, 10).unwrap_err();
        assert!(matches!(err, KeraError::ChunkTooLarge { .. }));
    }

    #[test]
    fn read_slot_walks_segments_and_groups() {
        let c = chunk(2);
        // 2 chunks per segment, 2 segments per group.
        let s = Streamlet::new(StreamId(1), StreamletId(0), &config(1, c.len() * 2, 2));
        let n = 10;
        for _ in 0..n {
            let a = s.append_chunk(ProducerId(0), &c, 2).unwrap();
            a.segment.make_all_durable();
        }
        // Read everything in one big fetch.
        let (data, cursor) = s.read_slot(0, SlotCursor::START, usize::MAX);
        assert_eq!(data.len(), n * c.len());
        let chunks: Vec<_> = ChunkIter::new(&data).collect::<Result<_>>().unwrap();
        assert_eq!(chunks.len(), n);
        let offsets: Vec<u64> = chunks.iter().map(|c| c.header().base_offset).collect();
        assert_eq!(offsets, (0..n as u64).map(|i| i * 2).collect::<Vec<_>>());
        // Cursor rests in the open tail; further reads return nothing.
        let (more, cursor2) = s.read_slot(0, cursor, usize::MAX);
        assert!(more.is_empty());
        assert_eq!(cursor, cursor2);
    }

    #[test]
    fn read_slot_in_small_increments_sees_everything_once() {
        let c = chunk(1);
        let s = Streamlet::new(StreamId(1), StreamletId(0), &config(1, c.len() * 2, 2));
        let n = 12;
        for _ in 0..n {
            let a = s.append_chunk(ProducerId(0), &c, 1).unwrap();
            a.segment.make_all_durable();
        }
        let mut cursor = SlotCursor::START;
        let mut seen = 0;
        loop {
            let (data, next) = s.read_slot(0, cursor, 1); // one chunk at a time
            if data.is_empty() {
                break;
            }
            seen += ChunkIter::new(&data).count();
            cursor = next;
        }
        assert_eq!(seen, n);
    }

    #[test]
    fn read_slot_blocks_on_durability() {
        let c = chunk(1);
        let s = Streamlet::new(StreamId(1), StreamletId(0), &config(1, 1 << 20, 4));
        let a = s.append_chunk(ProducerId(0), &c, 1).unwrap();
        let (data, _) = s.read_slot(0, SlotCursor::START, usize::MAX);
        assert!(data.is_empty(), "non-durable data must be invisible");
        a.segment.make_all_durable();
        let (data, _) = s.read_slot(0, SlotCursor::START, usize::MAX);
        assert_eq!(data.len(), c.len());
    }

    #[test]
    fn tagged_retry_replays_original_ack() {
        let s = Streamlet::new(StreamId(1), StreamletId(0), &config(1, 1 << 20, 4));
        let c = chunk(5);
        let first = s
            .append_chunk_tracked(ProducerId(0), &c, 5, Some(42), |_| Ok(Some(7)))
            .unwrap();
        let SlotAppend::Fresh { append, token } = first else {
            panic!("first append must be fresh")
        };
        assert_eq!(token, Some(7));
        // Same tag again — the retried request. No second copy; the
        // original ack and durability token come back.
        let retry = s
            .append_chunk_tracked(ProducerId(0), &c, 5, Some(42), |_| {
                panic!("a replayed chunk must not re-append")
            })
            .unwrap();
        let SlotAppend::Replay { ack, token } = retry else {
            panic!("retry must be recognized as a replay")
        };
        assert_eq!(ack, append.to_ack());
        assert_eq!(token, Some(7));
        // Exactly one physical copy exists.
        assert_eq!(s.group(GroupId(0)).unwrap().total_bytes(), c.len());
        // A different tag is fresh and lands after the first chunk.
        let next = s
            .append_chunk_tracked(ProducerId(0), &c, 5, Some(43), |_| Ok(None))
            .unwrap();
        let SlotAppend::Fresh { append: a2, .. } = next else {
            panic!("new tag must append")
        };
        assert_eq!(a2.base_offset, 5);
    }

    #[test]
    fn replay_cache_is_per_producer() {
        // Producers 0 and 2 share slot 0 of a Q=2 streamlet; the same tag
        // value from different producers must not collide.
        let s = Streamlet::new(StreamId(1), StreamletId(0), &config(2, 1 << 20, 4));
        let c = chunk(1);
        let a = s.append_chunk_tracked(ProducerId(0), &c, 1, Some(9), |_| Ok(None)).unwrap();
        assert!(matches!(a, SlotAppend::Fresh { .. }));
        let b = s.append_chunk_tracked(ProducerId(2), &c, 1, Some(9), |_| Ok(None)).unwrap();
        assert!(matches!(b, SlotAppend::Fresh { .. }), "same tag, other producer: fresh");
    }

    #[test]
    fn untagged_appends_never_dedup() {
        let s = Streamlet::new(StreamId(1), StreamletId(0), &config(1, 1 << 20, 4));
        let c = chunk(1);
        // The storage-level API without tags keeps append-always semantics
        // (recovery replays identical bytes legitimately).
        let a0 = s.append_chunk(ProducerId(0), &c, 1).unwrap();
        let a1 = s.append_chunk(ProducerId(0), &c, 1).unwrap();
        assert_eq!(a0.base_offset, 0);
        assert_eq!(a1.base_offset, 1);
    }

    #[test]
    fn replay_cache_evicts_oldest() {
        let s = Streamlet::new(StreamId(1), StreamletId(0), &config(1, 1 << 24, 64));
        let c = chunk(1);
        let n = super::ReplayCache::MAX_ENTRIES as u64 + 8;
        for seq in 0..n {
            s.append_chunk_tracked(ProducerId(0), &c, 1, Some(seq), |_| Ok(None)).unwrap();
        }
        // Tag 0 fell out of the window: the retry re-appends (duplicate),
        // which is the documented bound of the cache.
        let old = s.append_chunk_tracked(ProducerId(0), &c, 1, Some(0), |_| Ok(None)).unwrap();
        assert!(matches!(old, SlotAppend::Fresh { .. }));
        // A recent tag is still replayed.
        let recent =
            s.append_chunk_tracked(ProducerId(0), &c, 1, Some(n - 1), |_| Ok(None)).unwrap();
        assert!(matches!(recent, SlotAppend::Replay { .. }));
    }

    #[test]
    fn concurrent_appends_across_slots() {
        let c = chunk(1);
        let s = Arc::new(Streamlet::new(
            StreamId(1),
            StreamletId(0),
            &config(4, 1 << 16, 4),
        ));
        let handles: Vec<_> = (0..4u32)
            .map(|p| {
                let s = Arc::clone(&s);
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        s.append_chunk(ProducerId(p), &c, 1).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Each slot must have exactly 200 records' worth of offsets.
        for p in 0..4u32 {
            let a = s.append_chunk(ProducerId(p), &c, 1).unwrap();
            assert_eq!(a.base_offset, 200);
        }
    }
}
