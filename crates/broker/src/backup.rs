//! The backup service (paper Figs. 1–2, §IV-B).
//!
//! Backups hold *replicated segments*: byte-for-byte copies of the chunks
//! a virtual segment references, in virtual-log order. "The backup's
//! segments contain chunks from possibly various groups of different
//! streamlets of multiple streams." Backups verify every chunk's payload
//! checksum on arrival and the virtual segment's checksum-of-checksums on
//! close, then asynchronously flush closed segments to secondary storage
//! with the same format. At recovery they enumerate and stream back what
//! they hold for a crashed broker.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use kera_common::checksum::Crc32c;
use kera_common::ids::{NodeId, VirtualLogId, VirtualSegmentId};
use kera_common::metrics::Counter;
use kera_common::{KeraError, Result};
use kera_obs::{NodeObs, Stage};
use kera_rpc::{RequestContext, Service};
use kera_storage::flush::DiskFlusher;
use kera_wire::chunk::ChunkIter;
use kera_wire::frames::OpCode;
use kera_wire::messages::{
    backup_flags, BackupFreeRequest, BackupWriteRequest, BackupWriteResponse,
    RecoveryEnumerateRequest, RecoveryEnumerateResponse, RecoveryReadRequest, ReplicatedSegmentInfo,
};
use parking_lot::{Mutex, RwLock};

/// Key of a replicated segment: which broker's which virtual segment.
type SegKey = (NodeId, VirtualLogId, VirtualSegmentId);

struct ReplicatedSegment {
    /// Replication batches in arrival order, each holding the (shared)
    /// chunk train of one `BackupWrite`. Concatenated they are the
    /// segment's bytes; keeping them as slices means the synchronous
    /// replication path never copies the payload.
    batches: Vec<Bytes>,
    /// Total bytes across `batches` (the durable offset).
    len: usize,
    closed: bool,
    /// Running checksum over chunk checksums, must match the CLOSE
    /// request's `vseg_checksum`.
    checksum: Crc32c,
}

impl ReplicatedSegment {
    /// The segment's bytes as one contiguous buffer (cold paths only:
    /// the secondary-storage flush and recovery reads).
    fn contents(&self) -> Bytes {
        match self.batches.as_slice() {
            [single] => single.clone(),
            batches => {
                let mut buf = Vec::with_capacity(self.len);
                for b in batches {
                    buf.extend_from_slice(b);
                }
                Bytes::from(buf)
            }
        }
    }
}

/// The backup service of one node.
pub struct BackupService {
    node: NodeId,
    segments: RwLock<HashMap<SegKey, Arc<Mutex<ReplicatedSegment>>>>,
    flusher: Option<DiskFlusher>,
    /// Fixed IO cost charged when a *closed* virtual segment is flushed
    /// (asynchronous, segment granularity — "backups asynchronously
    /// write buffered chunks to secondary storage", §II-B). The
    /// synchronous replication path is a pure in-memory buffer append.
    io_cost_ns: u64,
    /// Observability handle; counters below live in its registry.
    obs: Arc<NodeObs>,
    /// Replication writes handled (`kera.backup.writes`).
    pub writes: Arc<Counter>,
    /// Chunk bytes received (`kera.backup.bytes_received`).
    pub bytes_received: Arc<Counter>,
    /// Chunks received (`kera.backup.chunks_received`).
    pub chunks_received: Arc<Counter>,
}

impl BackupService {
    pub fn new(node: NodeId, flusher: Option<DiskFlusher>) -> Arc<Self> {
        Self::with_obs(node, flusher, 0, NodeObs::disabled(node.raw()))
    }

    /// Full constructor: binds the backup to a node's observability
    /// handle. Write counters register as `kera.backup.*`; replication
    /// writes emit `backup_write` (and, on segment close, `flush`) spans
    /// under the shipping broker's trace.
    pub fn with_obs(
        node: NodeId,
        flusher: Option<DiskFlusher>,
        io_cost_ns: u64,
        obs: Arc<NodeObs>,
    ) -> Arc<Self> {
        let reg = obs.registry();
        Arc::new(Self {
            node,
            segments: RwLock::named("backup.segments", HashMap::new()),
            flusher,
            io_cost_ns,
            writes: reg.counter("kera.backup.writes", &[]),
            bytes_received: reg.counter("kera.backup.bytes_received", &[]),
            chunks_received: reg.counter("kera.backup.chunks_received", &[]),
            obs,
        })
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of replicated segments held.
    pub fn segment_count(&self) -> usize {
        self.segments.read().len()
    }

    /// Total bytes held across replicated segments.
    pub fn bytes_held(&self) -> usize {
        self.segments.read().values().map(|s| s.lock().len).sum()
    }

    fn handle_write(&self, req: BackupWriteRequest) -> Result<BackupWriteResponse> {
        // Parented to the serving RPC's span (the worker thread's
        // current context), i.e. the broker's replicate RPC.
        let mut span = self.obs.span(Stage::BackupWrite, kera_obs::current());
        span.set_aux(req.chunks.len() as u64);
        let _in_span = span.is_recording().then(|| kera_obs::enter(span.context()));
        let key = (req.source_broker, req.vlog, req.vseg);
        let entry = {
            let guard = self.segments.read();
            guard.get(&key).cloned()
        };
        let entry = match entry {
            Some(e) => e,
            None => {
                let mut guard = self.segments.write();
                Arc::clone(guard.entry(key).or_insert_with(|| {
                    Arc::new(Mutex::named("backup.segment", ReplicatedSegment {
                        batches: Vec::new(),
                        len: 0,
                        closed: false,
                        checksum: Crc32c::new(),
                    }))
                }))
            }
        };

        let mut seg = entry.lock();
        let offset = req.vseg_offset as usize;
        if offset > seg.len {
            return Err(KeraError::Protocol(format!(
                "backup write at offset {offset} but segment holds {} bytes (hole)",
                seg.len
            )));
        }
        // What this backup already holds of the batch: all of it (a
        // duplicate: idempotent ack) or a prefix — a round that failed
        // elsewhere is re-sent from the same offset with what was appended
        // since. The held chunks are skipped, the rest is appended.
        let held = (seg.len - offset).min(req.chunks.len());
        let fresh = req.chunks.slice(held..);
        let closes = req.flags & backup_flags::CLOSE != 0 && !seg.closed;
        if seg.closed && !fresh.is_empty() {
            return Err(KeraError::Protocol("write to a closed replicated segment".into()));
        }

        // Verify every new chunk *before* mutating any state, so a
        // corrupt batch leaves the replicated segment untouched.
        let mut checksums = Vec::new();
        let (mut end, mut count) = (0usize, 0u32);
        for chunk in ChunkIter::new(&req.chunks) {
            let chunk = chunk?;
            count += 1;
            end += chunk.len();
            if end <= held {
                continue;
            }
            if end - chunk.len() < held {
                return Err(KeraError::Protocol("re-sent backup write splits a held chunk".into()));
            }
            chunk.verify()?; // payload integrity on the wire
            checksums.push(chunk.header().checksum);
        }
        if count != req.chunk_count {
            return Err(KeraError::Protocol(format!(
                "chunk count mismatch: header says {}, body has {count}",
                req.chunk_count
            )));
        }
        self.writes.inc();
        self.chunks_received.add(checksums.len() as u64);
        self.bytes_received.add(fresh.len() as u64);
        for k in checksums {
            seg.checksum.update_u32(k);
        }
        if !fresh.is_empty() {
            // The retained batch is a slice of the receive buffer.
            seg.len += fresh.len();
            seg.batches.push(fresh);
        }
        self.obs.bump_progress();

        if closes {
            let actual = seg.checksum.finish();
            if actual != req.vseg_checksum {
                return Err(KeraError::Corruption {
                    what: "virtual segment",
                    expected: req.vseg_checksum,
                    actual,
                });
            }
            seg.closed = true;
            // Secondary-storage flush: one large asynchronous IO per
            // closed virtual segment (amortized over the whole segment).
            let mut flush_span = self.obs.span(Stage::Flush, kera_obs::current());
            flush_span.set_aux(seg.len as u64);
            if self.io_cost_ns > 0 {
                kera_common::timing::spin_for_ns(self.io_cost_ns);
            }
            if let Some(f) = &self.flusher {
                f.flush(
                    format!(
                        "broker{}/vlog{}/vseg{}.seg",
                        req.source_broker.raw(),
                        req.vlog.raw(),
                        req.vseg.raw()
                    ),
                    seg.contents(),
                );
            }
            flush_span.finish();
        }
        Ok(BackupWriteResponse { durable_offset: seg.len as u32 })
    }

    fn handle_free(&self, source: NodeId, vlog: VirtualLogId) -> Result<()> {
        self.segments.write().retain(|&(b, v, _), _| !(b == source && v == vlog));
        Ok(())
    }

    fn handle_enumerate(&self, req: RecoveryEnumerateRequest) -> RecoveryEnumerateResponse {
        let guard = self.segments.read();
        let mut segments: Vec<ReplicatedSegmentInfo> = guard
            .iter()
            .filter(|((b, _, _), _)| *b == req.crashed_broker)
            .map(|(&(_, vlog, vseg), s)| {
                let s = s.lock();
                ReplicatedSegmentInfo { vlog, vseg, len: s.len as u32, closed: s.closed }
            })
            .collect();
        segments.sort_by_key(|s| (s.vlog, s.vseg));
        RecoveryEnumerateResponse { segments }
    }

    fn handle_recovery_read(&self, req: RecoveryReadRequest) -> Result<Bytes> {
        let key = (req.crashed_broker, req.vlog, req.vseg);
        let seg = self.segments.read().get(&key).cloned().ok_or_else(|| {
            KeraError::Recovery(format!(
                "backup {} holds no segment for broker {} vlog {} vseg {}",
                self.node, req.crashed_broker, req.vlog, req.vseg
            ))
        })?;
        let data = seg.lock().contents();
        Ok(data)
    }
}

impl Service for BackupService {
    fn handle(&self, ctx: &RequestContext, payload: Bytes) -> Result<Bytes> {
        match ctx.opcode {
            OpCode::Ping => Ok(Bytes::new()),
            OpCode::BackupWrite => {
                // Slice the chunk train out of the receive buffer; the
                // retained batch shares that allocation.
                let req = BackupWriteRequest::decode_bytes(&payload)?;
                Ok(self.handle_write(req)?.encode())
            }
            OpCode::BackupFree => {
                let req = BackupFreeRequest::decode(&payload)?;
                self.handle_free(req.source, req.vlog)?;
                Ok(Bytes::new())
            }
            OpCode::RecoveryEnumerate => {
                let req = RecoveryEnumerateRequest::decode(&payload)?;
                Ok(self.handle_enumerate(req).encode())
            }
            OpCode::RecoveryRead => {
                let req = RecoveryReadRequest::decode(&payload)?;
                self.handle_recovery_read(req)
            }
            OpCode::Introspect => {
                let held = self.bytes_held() as u64;
                crate::introspect::serve(
                    &self.obs,
                    &payload,
                    crate::introspect::HealthFields {
                        role: kera_wire::messages::NodeRole::Backup,
                        segments: self.segment_count() as u32,
                        // Everything a backup holds is durable by
                        // definition; it IS the durable copy.
                        appended_bytes: held,
                        durable_bytes: held,
                        ..Default::default()
                    },
                )
            }
            other => Err(KeraError::Protocol(format!("backup cannot serve {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kera_common::ids::{ProducerId, StreamId, StreamletId};
    use kera_wire::chunk::ChunkBuilder;
    use kera_wire::record::Record;

    fn chunk_bytes(n: usize) -> (Bytes, u32) {
        let mut b = ChunkBuilder::new(4096, ProducerId(1), StreamId(1), StreamletId(0));
        for _ in 0..n {
            b.append(&Record::value_only(&[9u8; 50]));
        }
        let bytes = b.seal();
        let view = kera_wire::chunk::ChunkView::parse(&bytes).unwrap();
        let checksum = view.header().checksum;
        (bytes, checksum)
    }

    fn write_req(
        vseg_offset: u32,
        flags: u8,
        vseg_checksum: u32,
        chunks: &[Bytes],
    ) -> BackupWriteRequest {
        let mut body = Vec::new();
        for c in chunks {
            body.extend_from_slice(c);
        }
        BackupWriteRequest {
            source_broker: NodeId(1),
            vlog: VirtualLogId(0),
            vseg: VirtualSegmentId(0),
            vseg_offset,
            flags,
            vseg_checksum,
            chunk_count: chunks.len() as u32,
            chunks: Bytes::from(body),
        }
    }

    #[test]
    fn write_appends_and_acks() {
        let b = BackupService::new(NodeId(100), None);
        let (c, _) = chunk_bytes(2);
        let resp = b.handle_write(write_req(0, backup_flags::OPEN, 0, std::slice::from_ref(&c))).unwrap();
        assert_eq!(resp.durable_offset as usize, c.len());
        assert_eq!(b.segment_count(), 1);
        assert_eq!(b.bytes_held(), c.len());
    }

    /// Through `Service::handle`, the batch a backup retains is a window
    /// of the request payload it was handed — the synchronous replication
    /// path never copies the chunk train.
    #[test]
    fn retained_batch_is_a_slice_of_the_request_payload() {
        let b = BackupService::new(NodeId(100), None);
        let (c, _) = chunk_bytes(2);
        let payload = write_req(0, backup_flags::OPEN, 0, std::slice::from_ref(&c)).encode();
        let ctx = RequestContext {
            from: NodeId(1),
            opcode: OpCode::BackupWrite,
            request_id: 1,
            deadline: None,
            trace: kera_obs::TraceContext::NONE,
        };
        b.handle(&ctx, payload.clone()).unwrap();

        let key = (NodeId(1), VirtualLogId(0), VirtualSegmentId(0));
        let seg = b.segments.read().get(&key).cloned().unwrap();
        let seg = seg.lock();
        let [batch] = seg.batches.as_slice() else {
            panic!("expected one retained batch, got {}", seg.batches.len());
        };
        assert_eq!(&batch[..], &c[..]);
        assert!(std::ptr::eq(
            batch.as_ref().as_ptr(),
            payload[payload.len() - c.len()..].as_ptr()
        ));
    }

    #[test]
    fn duplicate_write_is_idempotent() {
        let b = BackupService::new(NodeId(100), None);
        let (c, _) = chunk_bytes(1);
        b.handle_write(write_req(0, backup_flags::OPEN, 0, std::slice::from_ref(&c))).unwrap();
        // Retry of the same batch.
        let resp = b.handle_write(write_req(0, 0, 0, std::slice::from_ref(&c))).unwrap();
        assert_eq!(resp.durable_offset as usize, c.len());
        assert_eq!(b.bytes_held(), c.len(), "duplicate must not double-append");
    }

    /// A round that reached this backup but failed on another is re-sent
    /// from the same offset with whatever was appended since: the held
    /// prefix is skipped, the rest stored — not acked away as a duplicate.
    #[test]
    fn resent_batch_that_grew_appends_only_what_is_new() {
        let b = BackupService::new(NodeId(100), None);
        let (c1, k1) = chunk_bytes(1);
        let (c2, k2) = chunk_bytes(2);
        b.handle_write(write_req(0, backup_flags::OPEN, 0, std::slice::from_ref(&c1))).unwrap();
        // A re-send that does not line up with what is held is refused.
        let err = b.handle_write(write_req(8, 0, 0, std::slice::from_ref(&c2))).unwrap_err();
        assert!(matches!(err, KeraError::Protocol(_)), "got {err}");
        let mut crc = Crc32c::new();
        crc.update_u32(k1);
        crc.update_u32(k2);
        let both = [c1.clone(), c2.clone()];
        let resp = b
            .handle_write(write_req(0, backup_flags::OPEN | backup_flags::CLOSE, crc.finish(), &both))
            .unwrap();
        assert_eq!(resp.durable_offset as usize, c1.len() + c2.len());
        assert_eq!(b.bytes_held(), c1.len() + c2.len());
        assert_eq!(b.chunks_received.get(), 2, "the held chunk was taken twice");
        // A late copy of either write is a duplicate.
        b.handle_write(write_req(0, backup_flags::OPEN, 0, &[c1])).unwrap();
        assert_eq!(b.bytes_held(), both[0].len() + both[1].len());
    }

    #[test]
    fn hole_is_rejected() {
        let b = BackupService::new(NodeId(100), None);
        let (c, _) = chunk_bytes(1);
        let err = b.handle_write(write_req(100, 0, 0, &[c])).unwrap_err();
        assert!(matches!(err, KeraError::Protocol(_)));
    }

    #[test]
    fn corrupt_chunk_is_rejected() {
        let b = BackupService::new(NodeId(100), None);
        let (c, _) = chunk_bytes(1);
        let mut bad = c.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        let err = b
            .handle_write(write_req(0, backup_flags::OPEN, 0, &[Bytes::from(bad)]))
            .unwrap_err();
        assert!(matches!(err, KeraError::Corruption { .. }));
        // Nothing was stored.
        assert_eq!(b.bytes_held(), 0);
    }

    #[test]
    fn close_verifies_checksum_of_checksums() {
        let b = BackupService::new(NodeId(100), None);
        let (c1, k1) = chunk_bytes(1);
        let (c2, k2) = chunk_bytes(2);
        let mut crc = Crc32c::new();
        crc.update_u32(k1);
        crc.update_u32(k2);
        let good = crc.finish();

        b.handle_write(write_req(0, backup_flags::OPEN, 0, std::slice::from_ref(&c1))).unwrap();
        // Wrong checksum on close: corruption.
        let err = b
            .handle_write(write_req(c1.len() as u32, backup_flags::CLOSE, 0xbad, std::slice::from_ref(&c2)))
            .unwrap_err();
        assert!(matches!(err, KeraError::Corruption { .. }));

        // Fresh service, correct close.
        let b = BackupService::new(NodeId(100), None);
        b.handle_write(write_req(0, backup_flags::OPEN, 0, std::slice::from_ref(&c1))).unwrap();
        b.handle_write(write_req(c1.len() as u32, backup_flags::CLOSE, good, &[c2])).unwrap();
    }

    #[test]
    fn enumerate_and_recovery_read() {
        let b = BackupService::new(NodeId(100), None);
        let (c, _) = chunk_bytes(3);
        b.handle_write(write_req(0, backup_flags::OPEN, 0, std::slice::from_ref(&c))).unwrap();
        let resp = b.handle_enumerate(RecoveryEnumerateRequest { crashed_broker: NodeId(1) });
        assert_eq!(resp.segments.len(), 1);
        assert_eq!(resp.segments[0].len as usize, c.len());
        assert!(!resp.segments[0].closed);
        // Nothing held for other brokers.
        let resp = b.handle_enumerate(RecoveryEnumerateRequest { crashed_broker: NodeId(9) });
        assert!(resp.segments.is_empty());

        let data = b
            .handle_recovery_read(RecoveryReadRequest {
                crashed_broker: NodeId(1),
                vlog: VirtualLogId(0),
                vseg: VirtualSegmentId(0),
            })
            .unwrap();
        assert_eq!(&data[..], &c[..]);
        assert!(b
            .handle_recovery_read(RecoveryReadRequest {
                crashed_broker: NodeId(1),
                vlog: VirtualLogId(7),
                vseg: VirtualSegmentId(0),
            })
            .is_err());
    }

    #[test]
    fn free_drops_vlog_segments() {
        let b = BackupService::new(NodeId(100), None);
        let (c, _) = chunk_bytes(1);
        b.handle_write(write_req(0, backup_flags::OPEN, 0, &[c])).unwrap();
        assert_eq!(b.segment_count(), 1);
        b.handle_free(NodeId(1), VirtualLogId(0)).unwrap();
        assert_eq!(b.segment_count(), 0);
    }

    #[test]
    fn closed_segments_flush_to_disk() {
        let dir = std::env::temp_dir().join(format!("kera-backup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let flusher = DiskFlusher::start(dir.clone()).unwrap();
        let b = BackupService::new(NodeId(100), Some(flusher));
        let (c, k) = chunk_bytes(2);
        let mut crc = Crc32c::new();
        crc.update_u32(k);
        b.handle_write(write_req(
            0,
            backup_flags::OPEN | backup_flags::CLOSE,
            crc.finish(),
            std::slice::from_ref(&c),
        ))
        .unwrap();
        // Force the flusher to drain by dropping the service (drops flusher).
        drop(b);
        let file = dir.join("broker1/vlog0/vseg0.seg");
        let on_disk = std::fs::read(&file).unwrap();
        assert_eq!(on_disk, c.to_vec(), "disk format == in-memory format");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
