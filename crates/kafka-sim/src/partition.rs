//! The per-partition replicated log (paper Fig. 2).
//!
//! "Each new record of a stream's partition is appended to the log";
//! offsets here are *byte* offsets into the log (chunk-aligned), with
//! logical record offsets carried inside the chunk headers exactly as in
//! KerA. The leader tracks each follower's log-end offset (learned from
//! its fetch requests) and advances the high watermark to the minimum;
//! a produce using acks=all is answered once the high watermark covers
//! its batch (see the broker's purgatory). With a file, a replica writes
//! every append to it, leader and follower alike, as Kafka's `Log.append`
//! does.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use kera_common::ids::{NodeId, SegmentId, StreamId, StreamletId};
use kera_common::{KeraError, Result};
use kera_storage::flush::PartitionFile;
use kera_wire::chunk::{self, ChunkIter, CHUNK_HEADER};
use parking_lot::Mutex;

/// Role of this replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    Leader,
    Follower { leader: NodeId },
}

struct LogInner {
    data: Vec<u8>,
    /// Next logical record offset (leader only).
    next_record_offset: u64,
    /// Follower → acknowledged log-end byte offset (leader only).
    follower_leo: HashMap<NodeId, u64>,
    /// Per-chunk offset index: (base record offset, byte offset).
    index: Vec<(u64, u64)>,
    /// The log on disk, appended under this lock, so in log order.
    file: Option<PartitionFile>,
}

/// One replica (leader or follower copy) of a partition log.
pub struct PartitionLog {
    stream: StreamId,
    partition: StreamletId,
    role: Role,
    /// Replication factor of the topic.
    factor: u32,
    inner: Mutex<LogInner>,
    /// Log end offset in bytes, published under `inner` so it only grows.
    leo: AtomicU64,
    /// High watermark in bytes (consumer-visible, durable).
    hw: AtomicU64,
}

impl PartitionLog {
    pub fn new(
        stream: StreamId,
        partition: StreamletId,
        role: Role,
        factor: u32,
        file: Option<PartitionFile>,
    ) -> Self {
        Self {
            stream,
            partition,
            role,
            factor,
            inner: Mutex::named("ksim.partition", LogInner {
                data: Vec::new(),
                next_record_offset: 0,
                follower_leo: HashMap::new(),
                index: Vec::new(),
                file,
            }),
            leo: AtomicU64::new(0),
            hw: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    #[inline]
    pub fn partition(&self) -> StreamletId {
        self.partition
    }

    #[inline]
    pub fn role(&self) -> Role {
        self.role
    }

    /// Log end offset (bytes appended).
    #[inline]
    pub fn leo(&self) -> u64 {
        self.leo.load(Ordering::Acquire)
    }

    /// High watermark (bytes consumers may read).
    #[inline]
    pub fn high_watermark(&self) -> u64 {
        self.hw.load(Ordering::Acquire)
    }

    /// Leader append: patches the chunk's broker-assigned fields (group 0
    /// / segment 0 — Kafka has no sub-partitions) and returns `(base
    /// record offset, log end after append)`.
    pub fn append_leader(&self, chunk_bytes: &[u8], records: u32) -> Result<(u64, u64)> {
        debug_assert!(chunk_bytes.len() >= CHUNK_HEADER);
        if !matches!(self.role, Role::Leader) {
            return Err(KeraError::Protocol("append to a follower replica".into()));
        }
        let mut inner = self.inner.lock();
        let base = inner.next_record_offset;
        inner.next_record_offset += u64::from(records);
        let start = inner.data.len();
        inner.index.push((base, start as u64));
        inner.data.extend_from_slice(chunk_bytes);
        chunk::assign_in_place(
            &mut inner.data[start..],
            kera_common::ids::GroupId(0),
            SegmentId(0),
            base,
        );
        let LogInner { data, file, .. } = &mut *inner;
        if let Some(file) = file {
            file.append(&data[start..]);
        }
        let end = inner.data.len() as u64;
        // Published before the lock goes: two appenders storing their ends
        // after it could leave the lower one last, and a produce whose end
        // lies above a log end that went back waits for the next append.
        self.leo.store(end, Ordering::Release);
        drop(inner);
        if self.factor == 1 {
            self.advance_hw(end);
        }
        Ok((base, end))
    }

    /// Follower append: raw log bytes copied from the leader at exactly
    /// our current log end (leaders serve from the offset we asked for).
    /// Every chunk's checksum is checked first, as Kafka's follower append
    /// does: a corrupt one appends nothing and leaves the log end where it
    /// was, so the next fetch asks for it again.
    pub fn append_follower(&self, bytes: &[u8], high_watermark: u64) -> Result<()> {
        for chunk in ChunkIter::new(bytes) {
            chunk?.verify()?;
        }
        let mut inner = self.inner.lock();
        inner.data.extend_from_slice(bytes);
        if let Some(file) = inner.file.as_mut().filter(|_| !bytes.is_empty()) {
            file.append(bytes);
        }
        let end = inner.data.len() as u64;
        self.leo.store(end, Ordering::Release);
        drop(inner);
        // Followers adopt the leader's HW (bounded by what they hold).
        self.advance_hw(high_watermark.min(end));
        Ok(())
    }

    /// Leader: record a follower's fetch position (== its log-end offset)
    /// and recompute the high watermark. Returns true if the HW advanced.
    pub fn record_follower_fetch(&self, follower: NodeId, fetch_offset: u64) -> bool {
        let mut inner = self.inner.lock();
        inner.follower_leo.insert(follower, fetch_offset);
        // HW = min(leader LEO, every follower's LEO) once all expected
        // followers have checked in at least once.
        let expected = (self.factor - 1) as usize;
        if inner.follower_leo.len() < expected {
            return false;
        }
        let min_follower = inner.follower_leo.values().copied().min().unwrap_or(0);
        drop(inner);
        let hw = min_follower.min(self.leo());
        self.advance_hw(hw)
    }

    fn advance_hw(&self, new_hw: u64) -> bool {
        self.hw.fetch_max(new_hw, Ordering::AcqRel) < new_hw
    }

    /// Byte offset of the chunk covering `record_offset` (leader's
    /// offset index). `None` when the log is empty.
    pub fn seek(&self, record_offset: u64) -> Option<u64> {
        let inner = self.inner.lock();
        if inner.index.is_empty() {
            return None;
        }
        let idx = inner.index.partition_point(|&(b, _)| b <= record_offset);
        Some(inner.index[idx.max(1) - 1].1)
    }

    /// Reads whole chunks in `[offset, min(limit_to, leo))`, up to
    /// `max_bytes` (at least one chunk if available). Used both by
    /// consumer fetch (`limit_to = hw`) and follower fetch
    /// (`limit_to = leo`).
    pub fn read_chunks(&self, offset: u64, max_bytes: usize, limit_to: u64) -> Vec<u8> {
        let inner = self.inner.lock();
        let end = (limit_to as usize).min(inner.data.len());
        let start = offset as usize;
        if start >= end {
            return Vec::new();
        }
        let window = &inner.data[start..end];
        let mut take = 0usize;
        while take + CHUNK_HEADER <= window.len() {
            let chunk_len = u32::from_le_bytes(
                window[take + chunk::field::CHUNK_LEN..take + chunk::field::CHUNK_LEN + 4]
                    .try_into()
                    .unwrap(),
            ) as usize;
            if take + chunk_len > window.len() {
                break;
            }
            if take > 0 && take + chunk_len > max_bytes {
                break;
            }
            take += chunk_len;
            if take >= max_bytes {
                break;
            }
        }
        window[..take].to_vec()
    }
}

impl std::fmt::Debug for PartitionLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionLog")
            .field("stream", &self.stream)
            .field("partition", &self.partition)
            .field("role", &self.role)
            .field("leo", &self.leo())
            .field("hw", &self.high_watermark())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kera_common::ids::ProducerId;
    use kera_wire::chunk::{ChunkBuilder, ChunkIter, ChunkView};
    use kera_wire::record::Record;

    fn chunk(records: u32) -> bytes::Bytes {
        let mut b = ChunkBuilder::new(8192, ProducerId(0), StreamId(1), StreamletId(0));
        for _ in 0..records {
            b.append(&Record::value_only(&[3u8; 80]));
        }
        b.seal()
    }

    fn leader(factor: u32) -> PartitionLog {
        PartitionLog::new(StreamId(1), StreamletId(0), Role::Leader, factor, None)
    }

    #[test]
    fn r1_append_advances_hw_immediately() {
        let log = leader(1);
        let c = chunk(4);
        let (base, end) = log.append_leader(&c, 4).unwrap();
        assert_eq!(base, 0);
        assert_eq!(end, c.len() as u64);
        assert_eq!(log.high_watermark(), end);
    }

    #[test]
    fn r3_hw_waits_for_both_followers() {
        let log = leader(3);
        let c = chunk(2);
        let (_, end) = log.append_leader(&c, 2).unwrap();
        assert_eq!(log.high_watermark(), 0);
        // First follower checks in at `end` — not enough.
        assert!(!log.record_follower_fetch(NodeId(2), end));
        assert_eq!(log.high_watermark(), 0);
        // Second follower still at 0: HW stays 0.
        assert!(!log.record_follower_fetch(NodeId(3), 0));
        assert_eq!(log.high_watermark(), 0);
        // Second follower catches up.
        assert!(log.record_follower_fetch(NodeId(3), end));
        assert_eq!(log.high_watermark(), end);
    }

    #[test]
    fn consumer_reads_stop_at_hw() {
        let log = leader(2);
        let c = chunk(3);
        log.append_leader(&c, 3).unwrap();
        log.append_leader(&c, 3).unwrap();
        // Nothing below HW yet.
        assert!(log.read_chunks(0, 1 << 20, log.high_watermark()).is_empty());
        // Follower acks first chunk only.
        log.record_follower_fetch(NodeId(2), c.len() as u64);
        let visible = log.read_chunks(0, 1 << 20, log.high_watermark());
        assert_eq!(visible.len(), c.len());
        // Follower fetch itself may read to LEO.
        let for_follower = log.read_chunks(0, 1 << 20, log.leo());
        assert_eq!(for_follower.len(), 2 * c.len());
    }

    #[test]
    fn base_offsets_assigned_in_order() {
        let log = leader(1);
        let c = chunk(5);
        log.append_leader(&c, 5).unwrap();
        log.append_leader(&c, 5).unwrap();
        let data = log.read_chunks(0, usize::MAX, log.leo());
        let offsets: Vec<u64> = ChunkIter::new(&data)
            .map(|c| c.unwrap().header().base_offset)
            .collect();
        assert_eq!(offsets, vec![0, 5]);
    }

    #[test]
    fn follower_append_replicates_bytes_and_adopts_hw() {
        let l = leader(2);
        let role = Role::Follower { leader: NodeId(1) };
        let f = PartitionLog::new(StreamId(1), StreamletId(0), role, 2, None);
        let c = chunk(2);
        let (_, end) = l.append_leader(&c, 2).unwrap();
        let bytes = l.read_chunks(0, usize::MAX, l.leo());
        // Leader's HW not yet advanced; follower adopts min(hw, own leo).
        f.append_follower(&bytes, l.high_watermark()).unwrap();
        assert_eq!(f.leo(), end);
        assert_eq!(f.high_watermark(), 0);
        l.record_follower_fetch(NodeId(2), end);
        f.append_follower(&[], l.high_watermark()).unwrap();
        assert_eq!(f.high_watermark(), end);
        // The replicated chunk parses and verifies on the follower.
        let copy = f.read_chunks(0, usize::MAX, f.high_watermark());
        let view = ChunkView::parse(&copy).unwrap();
        view.verify().unwrap();
    }

    #[test]
    fn read_chunks_respects_max_bytes_boundaries() {
        let log = leader(1);
        let c = chunk(1);
        for _ in 0..5 {
            log.append_leader(&c, 1).unwrap();
        }
        let one = log.read_chunks(0, 1, log.high_watermark());
        assert_eq!(one.len(), c.len());
        let two = log.read_chunks(0, c.len() * 2, log.high_watermark());
        assert_eq!(two.len(), c.len() * 2);
    }
}
