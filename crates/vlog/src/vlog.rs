//! The virtual log: one open virtual segment, ordered sealed segments,
//! and the consolidated replication protocol (paper §III–IV-B).
//!
//! ## Replication protocol
//!
//! A produce worker calls [`VirtualLog::append`] for every chunk of its
//! request (under the slot lock of the physical append — see
//! `kera_storage::streamlet::Streamlet::append_chunk_tracked`) and then
//! synchronizes the logs it touched itself, with one call to [`sync`]:
//! "once all chunks of a request are appended, the corresponding
//! replicated virtual logs are synchronized on backups" (§IV-B). A round
//! has two halves. [`VirtualLog::begin_round`] gathers **every** pending
//! chunk reference — across all waiting producers and all the partitions
//! sharing the log — packs one `BackupWrite` body per virtual segment and
//! hands each to the channel, which sends without waiting;
//! [`Round::finish`] collects the acknowledgements, advances the durable
//! mark and wakes the log's waiters. [`sync`] begins a round on every
//! listed log before it finishes any, so a request touching several logs
//! pays one backup round trip, not one per log.
//!
//! At most one round per log is in flight. A worker that finds another
//! worker's round in flight waits for it to land and, if its ticket is
//! still not durable, ships the follow-up round itself (leader/follower
//! group commit): chunks appended while a round is in flight ride the
//! next one, which is exactly how the virtual log "consolidates multiple
//! replication RPCs by replacing small I/Os with larger ones on backups".
//!
//! ## Failure handling
//!
//! If a backup dies mid-replication, the affected virtual segments are
//! re-replicated from offset zero onto a freshly selected backup set
//! (RAMCloud-style re-replication) by the next round; producers keep
//! waiting and succeed once the new set acknowledges. Only when no
//! replacement backups exist does the log poison itself and fail its
//! producers. Any other failure of a round — and a round dropped without
//! being finished — is transient: it fails the producers waiting at that
//! moment (their clients retry) and leaves the round's references
//! pending. Nothing retries in the background: the **next** round on the
//! log ships them, and until then they stay unacknowledged and invisible
//! to consumers (durable-before-visible).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kera_common::ids::{NodeId, VirtualLogId, VirtualSegmentId};
use kera_common::metrics::Counter;
use kera_common::{KeraError, Result};
use kera_obs::{NodeObs, Span, Stage};
use kera_wire::messages::{backup_flags, EncodedBackupWrite};
use parking_lot::{Condvar, Mutex};

use crate::channel::{BackupChannel, PendingAcks};
use crate::selector::BackupSelector;
use crate::vseg::{ChunkRef, VirtualSegment};

struct VsegEntry {
    vseg: VirtualSegment,
    /// Cumulative log bytes before this virtual segment.
    base: u64,
}

struct LogState {
    /// Sealed-but-not-fully-replicated segments (front) plus the open
    /// segment (back).
    segs: VecDeque<VsegEntry>,
    selector: BackupSelector,
    next_vseg_id: u64,
    /// Total bytes appended to this log (the global header).
    appended: u64,
    /// Total bytes durable in log order (the global durable header).
    durable: u64,
    /// A replication round is in flight.
    replicating: bool,
    /// Unrecoverable: not enough backups remain.
    poisoned: bool,
    /// Bumped by every failed or abandoned round so waiters can give up
    /// instead of sleeping forever.
    error_epoch: u64,
}

/// One captured replication batch for one virtual segment.
struct BatchWork {
    vseg_id: VirtualSegmentId,
    backups: Vec<NodeId>,
    vseg_offset: u32,
    refs: Vec<ChunkRef>,
    close: bool,
    checksum: u32,
}

/// A shared replicated virtual log.
pub struct VirtualLog {
    id: VirtualLogId,
    owner: NodeId,
    vseg_capacity: usize,
    /// Backup copies per virtual segment (R − 1).
    copies: usize,
    state: Mutex<LogState>,
    cv: Condvar,
    /// Observability handle (inert when the owning node runs without
    /// tracing); counters below live in its registry as `kera.vlog.*`.
    obs: Arc<NodeObs>,
    /// Replication batches shipped (per backup set, not per backup).
    pub batches_sent: Arc<Counter>,
    /// Chunks replicated (before fan-out to backups).
    pub chunks_replicated: Arc<Counter>,
    /// Chunk bytes replicated (before fan-out).
    pub bytes_replicated: Arc<Counter>,
}

impl VirtualLog {
    /// Creates the log and opens its first virtual segment, with
    /// observability off (counters still work, tracing is inert).
    pub fn new(
        id: VirtualLogId,
        owner: NodeId,
        vseg_capacity: usize,
        copies: usize,
        selector: BackupSelector,
    ) -> Result<Arc<VirtualLog>> {
        Self::new_with_obs(id, owner, vseg_capacity, copies, selector, NodeObs::disabled(owner.raw()))
    }

    /// Creates the log bound to a node's observability handle: the
    /// replication counters register as `kera.vlog.*{vlog=<id>}` and
    /// shipped batches emit `vlog_ship` spans.
    pub fn new_with_obs(
        id: VirtualLogId,
        owner: NodeId,
        vseg_capacity: usize,
        copies: usize,
        mut selector: BackupSelector,
        obs: Arc<NodeObs>,
    ) -> Result<Arc<VirtualLog>> {
        let backups = selector.select(copies)?;
        let first = VirtualSegment::new(VirtualSegmentId(0), vseg_capacity, backups);
        let state = LogState {
            segs: VecDeque::from([VsegEntry { vseg: first, base: 0 }]),
            selector,
            next_vseg_id: 1,
            appended: 0,
            durable: 0,
            replicating: false,
            poisoned: false,
            error_epoch: 0,
        };
        let vl = id.raw().to_string();
        let labels: &[(&str, &str)] = &[("vlog", &vl)];
        let reg = obs.registry();
        let batches_sent = reg.counter("kera.vlog.batches_sent", labels);
        let chunks_replicated = reg.counter("kera.vlog.chunks_replicated", labels);
        let bytes_replicated = reg.counter("kera.vlog.bytes_replicated", labels);
        Ok(Arc::new(VirtualLog {
            id,
            owner,
            vseg_capacity,
            copies,
            state: Mutex::named("vlog.state", state),
            cv: Condvar::new(),
            obs,
            batches_sent,
            chunks_replicated,
            bytes_replicated,
        }))
    }

    #[inline]
    pub fn id(&self) -> VirtualLogId {
        self.id
    }

    #[inline]
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Bytes appended so far.
    pub fn appended(&self) -> u64 {
        self.state.lock().appended
    }

    /// Bytes durable so far.
    pub fn durable(&self) -> u64 {
        self.state.lock().durable
    }

    /// Number of virtual segments not yet fully replicated (including the
    /// open one).
    pub fn live_vsegs(&self) -> usize {
        self.state.lock().segs.len()
    }

    /// Appends a chunk reference; returns the durability *ticket* (the log's
    /// header after this chunk). Rolls to a fresh virtual segment — with a
    /// freshly selected backup set — when the open one is (virtually)
    /// full.
    pub fn append(&self, r: ChunkRef) -> Result<u64> {
        let len = r.len as usize;
        if len > self.vseg_capacity {
            return Err(KeraError::ChunkTooLarge { chunk: len, segment: self.vseg_capacity });
        }
        let mut st = self.state.lock();
        if st.poisoned {
            return Err(KeraError::NoCapacity(format!("virtual log {} is poisoned", self.id)));
        }
        // A log is constructed with one open vseg; treat an (impossible)
        // empty deque as needing a roll rather than panicking mid-append.
        let needs_roll = st.segs.back().is_none_or(|e| !e.vseg.fits(len));
        if needs_roll {
            let backups = st.selector.select(self.copies)?;
            let id = VirtualSegmentId(st.next_vseg_id);
            st.next_vseg_id += 1;
            if let Some(open) = st.segs.back_mut() {
                open.vseg.seal();
            }
            let base = st.appended;
            st.segs.push_back(VsegEntry {
                vseg: VirtualSegment::new(id, self.vseg_capacity, backups),
                base,
            });
        }
        let Some(entry) = st.segs.back_mut() else {
            // Unreachable: the roll above pushed an open vseg.
            return Err(KeraError::NoCapacity(format!(
                "virtual log {} has no open segment",
                self.id
            )));
        };
        entry.vseg.append(r);
        st.appended += len as u64;
        Ok(st.appended)
    }

    /// One replication round on this log alone, begun and finished:
    /// `Ok(true)` when more work remains, `Ok(false)` when there is
    /// nothing (more) for this caller to ship — the log is durable,
    /// another round is in flight, or `copies == 0` (replication factor 1:
    /// nothing ever ships).
    pub fn ship_once(&self, channel: &dyn BackupChannel) -> Result<bool> {
        self.begin_round(channel, u64::MAX, None)?.map_or(Ok(false), Round::finish)
    }

    /// Starts a replication round, unless `ticket` is already durable or
    /// nothing is pending: under `vlog.state` gathers everything pending
    /// and marks the round in flight; then, with the lock released, packs
    /// each virtual segment's body once and hands it to the channel, which
    /// sends without waiting. While another caller's round is in flight
    /// this returns `None` at once or — given `wait_until` — waits for
    /// that round to land first and, if `ticket` is still not durable,
    /// begins the follow-up round. A failed or abandoned round fails the
    /// callers waiting here (their clients retry).
    pub fn begin_round<'a>(
        &'a self,
        channel: &'a dyn BackupChannel,
        ticket: u64,
        wait_until: Option<Instant>,
    ) -> Result<Option<Round<'a>>> {
        if self.copies == 0 {
            return Ok(None);
        }
        let mut st = self.state.lock();
        let epoch = st.error_epoch;
        while !st.poisoned && st.durable < ticket && st.replicating {
            let Some(deadline) = wait_until else { return Ok(None) };
            // lint: allow(no-time-under-lock) — condvar timed wait must re-read
            // the clock after every wakeup while still holding the state lock
            let now = Instant::now();
            if now >= deadline {
                return Err(KeraError::Timeout { op: "replication wait" });
            }
            self.cv.wait_for(&mut st, deadline - now);
            if st.error_epoch != epoch {
                return Err(KeraError::Timeout { op: "replication (transient failure)" });
            }
        }
        if st.poisoned {
            return Err(KeraError::NoCapacity(format!("virtual log {} is poisoned", self.id)));
        }
        if st.durable >= ticket {
            return Ok(None);
        }
        let work = Self::gather(&st);
        if work.is_empty() {
            return Ok(None);
        }
        st.replicating = true;
        drop(st);

        // The shipping thread is the produce worker: the span parents to
        // its current context and is entered so the writes nest under it.
        let mut span = self.obs.span(Stage::VlogShip, kera_obs::current());
        span.set_aux(work.iter().map(|w| w.refs.len() as u64).sum());
        let in_span = span.is_recording().then(|| kera_obs::enter(span.context()));
        let acks = work.iter().map(|w| self.send(channel, w)).collect();
        drop(in_span);
        Ok(Some(Round { log: self, work, acks, _span: span }))
    }

    /// Collects, in log order, every unreplicated chunk reference.
    fn gather(st: &LogState) -> Vec<BatchWork> {
        let mut work = Vec::new();
        for entry in st.segs.iter() {
            if !entry.vseg.needs_replication() {
                continue;
            }
            let refs = entry.vseg.unreplicated().to_vec();
            let close = entry.vseg.is_sealed();
            work.push(BatchWork {
                vseg_id: entry.vseg.id(),
                backups: entry.vseg.backups().to_vec(),
                vseg_offset: entry.vseg.durable_header() as u32,
                refs,
                close,
                checksum: if close { entry.vseg.checksum() } else { 0 },
            });
        }
        work
    }

    /// Sends one captured batch. Chunk bytes are copied out of the
    /// physical segments exactly once, straight into the wire-format
    /// request body, then fanned out to the virtual segment's backups
    /// (the channel shares the one body).
    fn send<'a>(&self, channel: &'a dyn BackupChannel, w: &BatchWork) -> PendingAcks<'a> {
        let total: usize = w.refs.iter().map(|r| r.len as usize).sum();
        let mut flags = 0u8;
        if w.vseg_offset == 0 {
            flags |= backup_flags::OPEN;
        }
        if w.close {
            flags |= backup_flags::CLOSE;
        }
        let req = EncodedBackupWrite::pack(
            self.owner,
            self.id,
            w.vseg_id,
            w.vseg_offset,
            flags,
            w.checksum,
            w.refs.len() as u32,
            total,
            w.refs.iter().map(|r| r.bytes()),
        );
        self.batches_sent.inc();
        self.chunks_replicated.add(w.refs.len() as u64);
        self.bytes_replicated.add(total as u64);
        channel.start(&w.backups, &req)
    }

    /// Marks the shipped references durable and advances the physical
    /// segments' durable heads (in ref order — contiguous per segment).
    fn apply_acks(&self, st: &mut LogState, work: &[BatchWork]) {
        for w in work {
            if let Some(entry) = st.segs.iter_mut().find(|e| e.vseg.id() == w.vseg_id) {
                let made = entry.vseg.mark_replicated(w.refs.len(), w.close);
                for r in made {
                    r.segment.advance_durable(r.end());
                }
            }
        }
        // Drop fully-replicated sealed segments from the front.
        while st
            .segs
            .front()
            .map(|e| e.vseg.is_fully_replicated())
            .unwrap_or(false)
        {
            st.segs.pop_front();
        }
    }

    fn recompute_durable(st: &mut LogState) {
        let mut durable = st.appended;
        for e in &st.segs {
            if e.vseg.durable_header() < e.vseg.header() {
                durable = e.base + e.vseg.durable_header() as u64;
                break;
            }
        }
        st.durable = durable;
    }

    fn handle_backup_failure(&self, st: &mut LogState, dead: NodeId) {
        st.selector.remove(dead);
        let copies = self.copies;
        // Preserve `segs` intact; only rewrite backup sets that include
        // the dead node and rewind their replication progress. If the
        // selector runs out of backups mid-way the log is poisoned, so
        // partially rewritten sets are harmless — every waiter fails.
        let affected: Vec<VirtualSegmentId> = st
            .segs
            .iter()
            .filter(|e| e.vseg.backups().contains(&dead))
            .map(|e| e.vseg.id())
            .collect();
        for id in affected {
            let set = match st.selector.select(copies) {
                Ok(set) => set,
                Err(_) => {
                    st.poisoned = true;
                    return;
                }
            };
            if let Some(entry) = st.segs.iter_mut().find(|e| e.vseg.id() == id) {
                entry.vseg.reset_replication(set);
            }
        }
        Self::recompute_durable(st);
    }
}

/// A replication round in flight on one log: the captured batches and
/// the acknowledgements still owed for them. Dropped without
/// [`Round::finish`], it counts as failed — the log is released and its
/// waiters fail fast instead of sleeping out their timeout.
pub struct Round<'a> {
    log: &'a VirtualLog,
    /// Taken by a `finish` that settles the round.
    work: Vec<BatchWork>,
    acks: Vec<PendingAcks<'a>>,
    /// The `vlog_ship` span: begin to finish.
    _span: Span,
}

impl Round<'_> {
    /// Collects the acknowledgements — all of them, so that no write of
    /// a failed round is still in flight when the next one is sent —
    /// applies them and wakes the log's waiters. `Ok(true)` when more
    /// work remains on the log.
    pub fn finish(mut self) -> Result<bool> {
        let mut outcome = Ok(());
        for acks in self.acks.drain(..) {
            outcome = outcome.and(acks().map(drop));
        }
        let dead = match outcome {
            Ok(()) => None,
            Err(KeraError::Disconnected(dead)) => Some(dead),
            // Transient: dropping the round releases the log and fails its waiters.
            Err(e) => return Err(e),
        };
        let work = std::mem::take(&mut self.work);
        let log = self.log;
        let mut st = log.state.lock();
        st.replicating = false;
        match dead {
            None => {
                log.apply_acks(&mut st, &work);
                VirtualLog::recompute_durable(&mut st);
            }
            // Re-replicate onto the new backup set.
            Some(dead) => log.handle_backup_failure(&mut st, dead),
        }
        log.cv.notify_all();
        if st.poisoned {
            return Err(KeraError::NoCapacity(format!("virtual log {} is poisoned", log.id)));
        }
        Ok(st.durable < st.appended || st.segs.iter().any(|e| e.vseg.needs_replication()))
    }
}

impl Drop for Round<'_> {
    fn drop(&mut self) {
        if self.work.is_empty() {
            return; // settled by `finish`
        }
        let mut st = self.log.state.lock();
        st.replicating = false;
        st.error_epoch += 1;
        self.log.cv.notify_all();
    }
}

/// Synchronizes the virtual logs one produce request touched, each up to
/// its ticket, on the calling thread: begins a round on every log that
/// still owes its ticket and has no round in flight — every send is
/// issued before any acknowledgement is awaited — and finishes them all;
/// then, where another worker's round was in flight, waits for it and
/// ships the follow-up round. Fails with the first error, a poisoned
/// log's included, or when `timeout` elapses waiting on another worker.
pub fn sync(
    logs: &[(Arc<VirtualLog>, u64)],
    channel: &dyn BackupChannel,
    timeout: Duration,
) -> Result<()> {
    let deadline = Instant::now() + timeout;
    let begun: Vec<_> =
        logs.iter().map(|(log, ticket)| log.begin_round(channel, *ticket, None)).collect();
    let mut outcome = Ok(());
    for round in begun {
        let finished = round.and_then(|r| r.map_or(Ok(false), Round::finish));
        outcome = outcome.and(finished.map(drop));
    }
    outcome?;
    for (log, ticket) in logs {
        while let Some(round) = log.begin_round(channel, *ticket, Some(deadline))? {
            round.finish()?;
        }
    }
    Ok(())
}

impl std::fmt::Debug for VirtualLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("VirtualLog")
            .field("id", &self.id)
            .field("owner", &self.owner)
            .field("appended", &st.appended)
            .field("durable", &st.durable)
            .field("live_vsegs", &st.segs.len())
            .field("poisoned", &st.poisoned)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::MockChannel;
    use crate::selector::{BackupSelector, SelectionPolicy};
    use std::sync::atomic::Ordering::Relaxed;
    use kera_common::ids::{GroupId, GroupRef, ProducerId, SegmentId, StreamId, StreamletId};
    use kera_storage::segment::Segment;
    use kera_wire::chunk::{ChunkBuilder, ChunkIter, ChunkView};
    use kera_wire::record::Record;

    fn selector(local: u32, fleet: u32) -> BackupSelector {
        let nodes: Vec<NodeId> = (0..fleet).map(NodeId).collect();
        BackupSelector::new(NodeId(local), &nodes, SelectionPolicy::RoundRobin, 42)
    }

    struct Phys {
        seg: Arc<Segment>,
        next_off: u64,
    }

    impl Phys {
        fn new() -> Self {
            let gref = GroupRef::new(StreamId(1), StreamletId(0), GroupId(0));
            Self { seg: Arc::new(Segment::new(gref, SegmentId(0), 1 << 20)), next_off: 0 }
        }

        fn chunk(&mut self, payload_len: usize) -> ChunkRef {
            let mut b =
                ChunkBuilder::new(8192, ProducerId(0), StreamId(1), StreamletId(0));
            let payload = vec![0xcd; payload_len];
            b.append(&Record::value_only(&payload));
            let bytes = b.seal();
            let at = self.seg.append_chunk(&bytes, self.next_off).unwrap();
            self.next_off += 1;
            let view =
                ChunkView::parse(self.seg.read(at.offset as usize, at.len as usize)).unwrap();
            ChunkRef {
                segment: Arc::clone(&self.seg),
                offset: at.offset,
                len: at.len,
                checksum: view.header().checksum,
                gref: self.seg.group(),
            }
        }
    }

    /// Single-log rounds until nothing is left to ship, then the
    /// produce worker's call, which finds the ticket durable.
    fn ship_until_durable(
        vlog: &Arc<VirtualLog>,
        ch: &dyn BackupChannel,
        ticket: u64,
    ) -> Result<()> {
        while vlog.ship_once(ch)? {}
        sync(&[(Arc::clone(vlog), ticket)], ch, Duration::ZERO)
    }

    /// `n` logs with one chunk appended to each, as a produce request
    /// touching them all would leave them.
    fn touched_logs(n: u32, phys: &mut Phys) -> Vec<(Arc<VirtualLog>, u64)> {
        (0..n)
            .map(|i| {
                let vlog =
                    VirtualLog::new(VirtualLogId(i), NodeId(0), 1 << 20, 1, selector(0, 4))
                        .unwrap();
                let ticket = vlog.append(phys.chunk(40)).unwrap();
                (vlog, ticket)
            })
            .collect()
    }

    #[test]
    fn append_ship_makes_chunks_durable() {
        let vlog =
            VirtualLog::new(VirtualLogId(0), NodeId(0), 1 << 20, 2, selector(0, 4)).unwrap();
        let ch = MockChannel::new();
        let mut phys = Phys::new();
        let r = phys.chunk(100);
        let len = r.len as u64;
        let ticket = vlog.append(r).unwrap();
        assert_eq!(ticket, len);
        assert_eq!(vlog.durable(), 0);
        ship_until_durable(&vlog, &ch, ticket).unwrap();
        assert_eq!(vlog.durable(), len);
        // Physical durable head advanced.
        assert_eq!(phys.seg.durable_head(), len as usize);
        // One batch to one backup set of 2.
        assert_eq!(ch.batch_count(), 1);
        let batches = ch.batches.lock();
        assert_eq!(batches[0].0.len(), 2);
        let chunks: Vec<_> =
            ChunkIter::new(&batches[0].1.chunks).collect::<Result<_>>().unwrap();
        assert_eq!(chunks.len(), 1);
        chunks[0].verify().unwrap();
    }

    #[test]
    fn batching_consolidates_multiple_appends_into_one_rpc() {
        let vlog =
            VirtualLog::new(VirtualLogId(0), NodeId(0), 1 << 20, 1, selector(0, 2)).unwrap();
        let ch = MockChannel::new();
        let mut phys = Phys::new();
        let mut last = 0;
        for _ in 0..10 {
            last = vlog.append(phys.chunk(50)).unwrap();
        }
        ship_until_durable(&vlog, &ch, last).unwrap();
        // All ten chunks left in a single consolidated batch.
        assert_eq!(ch.batch_count(), 1);
        assert_eq!(ch.batches.lock()[0].1.chunk_count, 10);
        assert_eq!(vlog.chunks_replicated.get(), 10);
    }

    #[test]
    fn shipping_with_factor_one_is_noop() {
        let vlog =
            VirtualLog::new(VirtualLogId(0), NodeId(0), 1 << 20, 0, selector(0, 1)).unwrap();
        let ch = MockChannel::new();
        let mut phys = Phys::new();
        let t = vlog.append(phys.chunk(10)).unwrap();
        ship_until_durable(&vlog, &ch, t).unwrap();
        assert_eq!(ch.batch_count(), 0);
    }

    #[test]
    fn vsegs_roll_and_rotate_backups() {
        let mut phys = Phys::new();
        let probe = phys.chunk(100);
        let chunk_len = probe.len as usize;
        // Capacity of exactly 2 chunks per vseg; 3 backups in fleet.
        let vlog = VirtualLog::new(
            VirtualLogId(0),
            NodeId(0),
            chunk_len * 2,
            1,
            selector(0, 4),
        )
        .unwrap();
        let ch = MockChannel::new();
        let mut last = vlog.append(probe).unwrap();
        for _ in 0..5 {
            last = vlog.append(phys.chunk(100)).unwrap();
        }
        ship_until_durable(&vlog, &ch, last).unwrap();
        // 6 chunks / 2 per vseg = 3 vsegs = 3 batches.
        assert_eq!(ch.batch_count(), 3);
        let batches = ch.batches.lock();
        // Backup sets rotate round-robin over 3 candidates.
        let sets: Vec<_> = batches.iter().map(|(b, _)| b[0]).collect();
        assert_eq!(sets.len(), 3);
        assert_ne!(sets[0], sets[1]);
        // Sealed vsegs carry OPEN+CLOSE (single batch each here).
        assert_eq!(batches[0].1.flags, backup_flags::OPEN | backup_flags::CLOSE);
        assert_ne!(batches[0].1.vseg_checksum, 0);
        // The still-open final vseg: OPEN only.
        assert_eq!(batches[2].1.flags, backup_flags::OPEN);
        drop(batches);
        // Fully replicated sealed vsegs were dropped.
        assert_eq!(vlog.live_vsegs(), 1);
    }

    #[test]
    fn oversized_chunk_rejected() {
        let vlog = VirtualLog::new(VirtualLogId(0), NodeId(0), 64, 1, selector(0, 2)).unwrap();
        let mut phys = Phys::new();
        let err = vlog.append(phys.chunk(500)).unwrap_err();
        assert!(matches!(err, KeraError::ChunkTooLarge { .. }));
    }

    /// Adds wire latency to the mock so batches overlap with appends —
    /// the condition under which group commit consolidates.
    struct SlowChannel(MockChannel);

    impl BackupChannel for SlowChannel {
        fn start<'a>(&'a self, backups: &[NodeId], req: &EncodedBackupWrite) -> PendingAcks<'a> {
            let acks = self.0.start(backups, req);
            Box::new(move || {
                std::thread::sleep(Duration::from_micros(300));
                acks()
            })
        }
    }

    #[test]
    fn concurrent_waiters_group_commit() {
        let vlog =
            VirtualLog::new(VirtualLogId(0), NodeId(0), 1 << 20, 2, selector(0, 4)).unwrap();
        let ch = Arc::new(SlowChannel(MockChannel::new()));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let vlog = Arc::clone(&vlog);
                let ch = Arc::clone(&ch);
                std::thread::spawn(move || {
                    let mut phys = Phys::new();
                    for _ in 0..50 {
                        let t = vlog.append(phys.chunk(40)).unwrap();
                        sync(&[(Arc::clone(&vlog), t)], &*ch, Duration::from_secs(10)).unwrap();
                    }
                    // Every byte this thread appended is durable.
                    assert!(phys.seg.durable_head() == phys.seg.head());
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(vlog.chunks_replicated.get(), 400);
        // Group commit must have consolidated: 400 chunks in strictly
        // fewer than 400 RPCs (overwhelmingly fewer in practice).
        assert!(
            ch.0.batch_count() < 400,
            "no consolidation happened: {} batches",
            ch.0.batch_count()
        );
        assert_eq!(vlog.durable(), vlog.appended());
    }

    /// A produce-shaped call starts a round on every log it touched
    /// before it collects any: the request pays one backup round trip,
    /// not one per log.
    #[test]
    fn sync_overlaps_the_rounds_of_every_touched_log() {
        let ch = MockChannel::new();
        let logs = touched_logs(4, &mut Phys::new());
        sync(&logs, &ch, Duration::from_secs(10)).unwrap();
        assert_eq!(ch.peak_outstanding.load(Relaxed), 4, "rounds ran one after another");
        assert_eq!(ch.outstanding.load(Relaxed), 0);
        assert_eq!(ch.batch_count(), 4);
        for (vlog, _) in &logs {
            assert_eq!(vlog.durable(), vlog.appended());
        }
    }

    /// A round that spans a virtual-segment roll has both segments'
    /// writes outstanding together.
    #[test]
    fn a_round_spanning_a_roll_overlaps_both_segments() {
        let mut phys = Phys::new();
        let probe = phys.chunk(100);
        let vlog =
            VirtualLog::new(VirtualLogId(0), NodeId(0), probe.len as usize * 2, 1, selector(0, 4))
                .unwrap();
        let ch = MockChannel::new();
        vlog.append(probe).unwrap();
        vlog.append(phys.chunk(100)).unwrap();
        let ticket = vlog.append(phys.chunk(100)).unwrap();
        sync(&[(Arc::clone(&vlog), ticket)], &ch, Duration::from_secs(10)).unwrap();
        assert_eq!(ch.batch_count(), 2, "one write per virtual segment");
        assert_eq!(ch.peak_outstanding.load(Relaxed), 2, "segments shipped one after another");
        assert_eq!(vlog.durable(), vlog.appended());
    }

    /// A begun round that is never finished (its worker returned early)
    /// releases the log: the next round ships what it left pending.
    #[test]
    fn an_abandoned_round_does_not_wedge_its_log() {
        let ch = MockChannel::new();
        let logs = touched_logs(2, &mut Phys::new());
        let (first, ticket) = &logs[0];
        let round = first.begin_round(&ch, *ticket, None).unwrap().unwrap();
        // While it is in flight nobody else ships this log...
        assert!(!first.ship_once(&ch).unwrap());
        drop(round);
        assert_eq!(first.durable(), 0);
        // ...and afterwards anybody can.
        assert!(!first.ship_once(&ch).unwrap());
        assert_eq!(first.durable(), first.appended());
        sync(&logs, &ch, Duration::ZERO).unwrap();
    }

    #[test]
    fn many_logs_make_progress_concurrently() {
        let ch = Arc::new(SlowChannel(MockChannel::new()));
        let mut phys = Phys::new();
        let logs = touched_logs(16, &mut phys);
        // Two workers whose requests touch the same sixteen logs.
        let again: Vec<_> = logs
            .iter()
            .map(|(vlog, _)| (Arc::clone(vlog), vlog.append(phys.chunk(40)).unwrap()))
            .collect();
        let worker = {
            let ch = Arc::clone(&ch);
            std::thread::spawn(move || sync(&again, &*ch, Duration::from_secs(10)))
        };
        sync(&logs, &*ch, Duration::from_secs(10)).unwrap();
        worker.join().unwrap().unwrap();
        for (vlog, _) in &logs {
            assert_eq!(vlog.durable(), vlog.appended());
        }
    }

    #[test]
    fn sync_with_factor_one_is_noop() {
        let vlog =
            VirtualLog::new(VirtualLogId(0), NodeId(0), 1 << 20, 0, selector(0, 1)).unwrap();
        let ch = MockChannel::new();
        sync(&[(vlog, 123)], &ch, Duration::ZERO).unwrap();
        assert_eq!(ch.batch_count(), 0);
    }

    /// A failed round fails the request that rode it and leaves its
    /// references pending; nothing retries them in the background — the
    /// next round on the log (here: the re-sent request's) lands them.
    #[test]
    fn transient_failure_surfaces_then_the_next_round_lands_it() {
        let ch = MockChannel::new();
        let logs = touched_logs(2, &mut Phys::new());
        ch.fail.store(true, Relaxed);
        let err = sync(&logs, &ch, Duration::from_secs(10)).unwrap_err();
        assert!(matches!(err, KeraError::Timeout { .. }));
        assert_eq!(ch.outstanding.load(Relaxed), 0, "a write of the failed set is still owed");
        ch.fail.store(false, Relaxed);
        for (vlog, _) in &logs {
            assert_eq!(vlog.durable(), 0);
        }
        sync(&logs, &ch, Duration::from_secs(10)).unwrap();
        for (vlog, _) in &logs {
            assert_eq!(vlog.durable(), vlog.appended());
        }
    }

    #[test]
    fn transient_failure_surfaces_and_recovers() {
        let vlog =
            VirtualLog::new(VirtualLogId(0), NodeId(0), 1 << 20, 1, selector(0, 2)).unwrap();
        let ch = MockChannel::new();
        let mut phys = Phys::new();
        let t = vlog.append(phys.chunk(10)).unwrap();
        ch.fail.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(ship_until_durable(&vlog, &ch, t).is_err());
        assert_eq!(vlog.durable(), 0);
        // The failure is transient: once the channel heals, shipping succeeds.
        ch.fail.store(false, std::sync::atomic::Ordering::Relaxed);
        ship_until_durable(&vlog, &ch, t).unwrap();
        assert_eq!(vlog.durable(), vlog.appended());
    }

    /// A channel that reports one backup as crashed until told otherwise.
    struct FlakyChannel {
        dead: Mutex<Option<NodeId>>,
        inner: MockChannel,
    }

    impl BackupChannel for FlakyChannel {
        fn start<'a>(&'a self, backups: &[NodeId], req: &EncodedBackupWrite) -> PendingAcks<'a> {
            if let Some(dead) = *self.dead.lock() {
                if backups.contains(&dead) {
                    return Box::new(move || Err(KeraError::Disconnected(dead)));
                }
            }
            self.inner.start(backups, req)
        }
    }

    #[test]
    fn backup_crash_triggers_rereplication() {
        // Fleet: local 0 + backups 1, 2, 3; 2 copies per vseg. Round-robin
        // starts with {1, 2}; declare 1 dead.
        let vlog =
            VirtualLog::new(VirtualLogId(0), NodeId(0), 1 << 20, 2, selector(0, 4)).unwrap();
        let ch = FlakyChannel { dead: Mutex::new(Some(NodeId(1))), inner: MockChannel::new() };
        let mut phys = Phys::new();
        let t = vlog.append(phys.chunk(25)).unwrap();
        // Shipping must succeed by reselecting {2, 3}.
        ship_until_durable(&vlog, &ch, t).unwrap();
        assert_eq!(vlog.durable(), vlog.appended());
        let batches = ch.inner.batches.lock();
        assert_eq!(batches.len(), 1);
        assert!(!batches[0].0.contains(&NodeId(1)));
        assert_eq!(batches[0].0.len(), 2);
    }

    #[test]
    fn log_poisons_when_no_backups_remain() {
        // Fleet: local 0 + backups 1, 2; need 2 copies. Kill 1 -> only
        // backup 2 remains -> poison.
        let vlog =
            VirtualLog::new(VirtualLogId(0), NodeId(0), 1 << 20, 2, selector(0, 3)).unwrap();
        let ch = FlakyChannel { dead: Mutex::new(Some(NodeId(1))), inner: MockChannel::new() };
        let mut phys = Phys::new();
        let t = vlog.append(phys.chunk(25)).unwrap();
        let err = ship_until_durable(&vlog, &ch, t).unwrap_err();
        assert!(matches!(err, KeraError::NoCapacity(_)));
        // Subsequent appends fail fast.
        assert!(vlog.append(phys.chunk(25)).is_err());
    }
}
