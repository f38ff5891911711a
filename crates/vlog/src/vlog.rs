//! The virtual log: one open virtual segment, ordered sealed segments,
//! and the consolidated replication protocol (paper §III–IV-B).
//!
//! ## Replication protocol
//!
//! A produce worker calls [`VirtualLog::append`] for every chunk of its
//! request (under the slot lock of the physical append — see
//! `kera_storage::streamlet::Streamlet::append_chunk_tracked`). "Once all
//! chunks of a request are appended" (§IV-B) it registers the request on
//! every log it touched ([`wait_all`]) and moves on: nobody waits out the
//! round trip. A log keeps its waiters in ticket order, and one with no
//! round in flight starts one for a new waiter: it gathers **every**
//! pending chunk reference — across all waiting producers and all the
//! partitions sharing the log — packs one `BackupWrite` body per virtual
//! segment and hands each to the channel, which sends without waiting.
//! The thread that delivers a round's last acknowledgement lands it:
//! under the lock it applies the acks, takes every waiter the durable
//! mark now covers and, if a waiter is left, begins the next round; with
//! the lock released it answers the waiters it took and sends that
//! round. A request touching several logs has their rounds in flight
//! together and is answered by the last to land.
//!
//! At most one round per log is in flight; what is appended meanwhile
//! rides the next, which is exactly how the virtual log "consolidates
//! multiple replication RPCs by replacing small I/Os with larger ones on
//! backups". A round starts only for a registered request, so a request
//! still appending is not split across rounds.
//!
//! ## Failure handling
//!
//! If a backup dies mid-replication, the affected virtual segments are
//! re-replicated from offset zero onto a freshly selected backup set
//! (RAMCloud-style re-replication) by the next round; producers keep
//! waiting and succeed once the new set acknowledges. Only when no
//! replacement backups exist does the log poison itself and fail its
//! producers. Any other failure of a round is transient: it fails every
//! request waiting on the log (their clients retry) and leaves the
//! round's references pending. Nothing retries in the background: the
//! **next** request registered on the log ships them, and until then they
//! stay unacknowledged and invisible to consumers (durable-before-visible).

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use kera_common::ids::{NodeId, VirtualLogId, VirtualSegmentId};
use kera_common::metrics::Counter;
use kera_common::{KeraError, Result};
use kera_obs::{NodeObs, Span, Stage, TraceContext};
use kera_wire::messages::{backup_flags, EncodedBackupWrite};
use parking_lot::Mutex;

use crate::channel::{Acked, BackupChannel};
use crate::selector::BackupSelector;
use crate::vseg::{ChunkRef, VirtualSegment};

/// What a request waiting on its logs is told, once: its chunks are
/// durable (`Ok`), or a log failed it. Runs with no lock held, on the
/// thread that landed the last round or registered the request.
pub type Landed = Box<dyn FnOnce(Result<()>) + Send + Sync>;

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
    /// Requests waiting, in ticket order: ticket, where a round begun for
    /// the request is traced, the request.
    waiters: VecDeque<(u64, TraceContext, Arc<Join<Landed>>)>,
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

/// One job shared by its parts — a request by the logs it waits on, a
/// round by its backups' acknowledgements: the last part to let go takes
/// it, with the first failure any part reported.
struct Join<T> {
    job: T,
    failed: OnceLock<KeraError>,
}

impl<T> Join<T> {
    fn new(job: T) -> Arc<Self> {
        Arc::new(Join { job, failed: OnceLock::new() })
    }

    fn release(self: Arc<Self>, outcome: Result<()>) -> Option<(T, Result<()>)> {
        if let Err(e) = outcome {
            let _ = self.failed.set(e);
        }
        let Join { job, failed } = Arc::into_inner(self)?;
        Some((job, failed.into_inner().map_or(Ok(()), Err)))
    }
}

/// A round in flight: its log, its batches and its `vlog_ship` span.
type Flight = Join<(Arc<VirtualLog>, Vec<BatchWork>, Span)>;

/// Registers one request on every log it touched, each with its highest
/// ticket, and starts a round, traced under `trace`, on each that has
/// none in flight. `landed` runs once every ticket is durable — at once,
/// here, if they all are or no log has backups — or a log failed it.
pub fn wait_all(
    logs: Vec<(Arc<VirtualLog>, u64)>,
    channel: &dyn BackupChannel,
    trace: TraceContext,
    landed: Landed,
) {
    let request = Join::new(landed);
    for (log, ticket) in logs {
        let mut st = log.state.lock();
        if st.poisoned {
            let _ = request.failed.set(log.poisoned());
        } else if log.copies > 0 && st.durable < ticket {
            let at = st.waiters.partition_point(|(t, ..)| *t <= ticket);
            st.waiters.insert(at, (ticket, trace, Arc::clone(&request)));
            if let Some((work, trace)) = VirtualLog::begin(&mut st) {
                drop(st);
                log.ship(channel, work, trace);
            }
        }
    }
    if let Some((landed, outcome)) = request.release(Ok(())) {
        landed(outcome);
    }
}

/// A shared replicated virtual log.
pub struct VirtualLog {
    id: VirtualLogId,
    owner: NodeId,
    vseg_capacity: usize,
    /// Backup copies per virtual segment (R − 1).
    copies: usize,
    state: Mutex<LogState>,
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
            waiters: VecDeque::new(),
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

    fn poisoned(&self) -> KeraError {
        KeraError::NoCapacity(format!("virtual log {} is poisoned", self.id))
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
            return Err(self.poisoned());
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

    /// Replicates everything appended so far ([`wait_all`] on the log's
    /// header). Through a channel that acknowledges inside `start`, like
    /// `MockChannel`, the rounds have landed when this returns `Ok(false)`
    /// or their error; `Ok(true)` while they are still in flight.
    pub fn ship_once(self: &Arc<Self>, channel: &dyn BackupChannel) -> Result<bool> {
        let outcome = Arc::new(OnceLock::<Result<()>>::new());
        let seen = Arc::clone(&outcome);
        let logs = vec![(Arc::clone(self), self.appended())];
        wait_all(logs, channel, kera_obs::current(), Box::new(move |r| drop(seen.set(r))));
        let landed = Arc::into_inner(outcome).and_then(OnceLock::into_inner);
        landed.map_or(Ok(true), |r| r.map(|()| false))
    }

    /// Marks a round in flight and gathers everything pending, if a
    /// request waits and no round is in flight; traced under the oldest
    /// waiter.
    fn begin(st: &mut LogState) -> Option<(Vec<BatchWork>, TraceContext)> {
        let trace = st.waiters.front()?.1;
        if st.replicating || st.poisoned {
            return None;
        }
        let work = Self::gather(st);
        st.replicating = !work.is_empty();
        st.replicating.then_some((work, trace))
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

    /// Sends a round begun under the lock, with the lock released: packs
    /// each virtual segment's body once and starts it on the channel.
    fn ship(
        self: &Arc<Self>,
        channel: &dyn BackupChannel,
        work: Vec<BatchWork>,
        trace: TraceContext,
    ) {
        let mut span = self.obs.span(Stage::VlogShip, trace);
        span.set_aux(work.iter().map(|w| w.refs.len() as u64).sum());
        // Entered, so that the writes' call spans nest under it.
        let in_span = span.is_recording().then(|| kera_obs::enter(span.context()));
        let bodies: Vec<_> = work.iter().map(|w| self.pack(w)).collect();
        let flight = Join::new((Arc::clone(self), work, span));
        for (w, req) in flight.job.1.iter().zip(&bodies) {
            let acked = w.backups.iter().map(|_| {
                let flight = Arc::clone(&flight);
                Box::new(move |ch: &dyn BackupChannel, acks| Self::acked(flight, ch, acks)) as Acked
            });
            channel.start(&w.backups, req, acked.collect());
        }
        drop(in_span);
        Self::acked(flight, channel, Ok(()));
    }

    /// One acknowledgement of a round in flight is in; the last lands it.
    fn acked(flight: Arc<Flight>, channel: &dyn BackupChannel, acks: Result<()>) {
        if let Some(((log, work, span), acks)) = flight.release(acks) {
            drop(span);
            log.land(channel, &work, acks);
        }
    }

    /// Packs one captured batch. Chunk bytes are copied out of the
    /// physical segments exactly once, straight into the wire-format
    /// request body, which the channel's fan-out shares.
    fn pack(&self, w: &BatchWork) -> EncodedBackupWrite {
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
        req
    }

    /// Lands a round, on the thread that delivered its last
    /// acknowledgement. Under the lock: applies the acks — or rewrites the
    /// backup sets around a dead backup of the round — takes every waiter
    /// the durable mark now covers and begins the next round if a waiter
    /// is left. On any other failure, or a poisoned log, it takes every
    /// waiter and begins nothing. Then, with the lock released, answers
    /// the waiters it took and ships the new round.
    fn land(self: &Arc<Self>, channel: &dyn BackupChannel, work: &[BatchWork], acks: Result<()>) {
        let mut st = self.state.lock();
        st.replicating = false;
        let failure = match acks {
            Ok(()) => {
                self.apply_acks(&mut st, work);
                Self::recompute_durable(&mut st);
                None
            }
            Err(KeraError::Disconnected(dead))
                if work.iter().any(|w| w.backups.contains(&dead)) =>
            {
                self.handle_backup_failure(&mut st, dead);
                None
            }
            Err(e) => Some(e),
        };
        let failure = failure.or_else(|| st.poisoned.then(|| self.poisoned()));
        let durable = if failure.is_some() { u64::MAX } else { st.durable };
        let covered = st.waiters.partition_point(|(t, ..)| *t <= durable);
        let done: Vec<_> = st.waiters.drain(..covered).collect();
        let round = Self::begin(&mut st);
        drop(st);
        for (.., request) in done {
            if let Some((landed, outcome)) = request.release(failure.clone().map_or(Ok(()), Err)) {
                landed(outcome);
            }
        }
        if let Some((work, trace)) = round {
            self.ship(channel, work, trace);
        }
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
    use crate::channel::{Acked, MockChannel};
    use crate::selector::{BackupSelector, SelectionPolicy};
    use kera_common::ids::{GroupId, GroupRef, ProducerId, SegmentId, StreamId, StreamletId};
    use kera_storage::segment::Segment;
    use kera_wire::chunk::{ChunkBuilder, ChunkIter, ChunkView};
    use kera_wire::record::Record;
    use std::sync::atomic::AtomicUsize;
    use std::sync::atomic::Ordering::{Relaxed, SeqCst};
    use std::time::Duration;

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

    /// Registers one request on every log it touched, as the broker does,
    /// and blocks this thread until it is answered.
    fn wait_for(logs: &[(Arc<VirtualLog>, u64)], ch: &dyn BackupChannel) -> Result<()> {
        let (tx, rx) = std::sync::mpsc::channel();
        wait_all(logs.to_vec(), ch, TraceContext::NONE, Box::new(move |r| drop(tx.send(r))));
        rx.recv().unwrap()
    }

    /// Registers one request on every log it touched; counts its answers.
    fn register(logs: &[(Arc<VirtualLog>, u64)], ch: &dyn BackupChannel) -> Arc<AtomicUsize> {
        let answered = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&answered);
        let landed = Box::new(move |r: Result<()>| {
            r.unwrap();
            counted.fetch_add(1, SeqCst);
        });
        wait_all(logs.to_vec(), ch, TraceContext::NONE, landed);
        answered
    }

    /// Keeps every write's acknowledgements for the test to deliver: a
    /// round lands only when told to.
    #[derive(Default)]
    struct HeldChannel {
        held: Mutex<Vec<Vec<Acked>>>,
        inner: MockChannel,
    }

    impl BackupChannel for HeldChannel {
        fn start(&self, backups: &[NodeId], req: &EncodedBackupWrite, acked: Vec<Acked>) {
            self.inner.batches.lock().push((backups.to_vec(), req.request().unwrap()));
            self.held.lock().push(acked);
        }
    }

    impl HeldChannel {
        fn held(&self) -> usize {
            self.held.lock().len()
        }

        /// Delivers every backup's answer to the oldest write, on this thread.
        fn ack_one(&self, acks: Result<()>) {
            let acked = self.held.lock().remove(0);
            for acked in acked {
                acked(self, acks.clone());
            }
        }
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
        assert!(!vlog.ship_once(&ch).unwrap(), "MockChannel lands the round inside ship_once");
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
        for _ in 0..10 {
            vlog.append(phys.chunk(50)).unwrap();
        }
        assert!(!vlog.ship_once(&ch).unwrap());
        // All ten chunks left in a single consolidated batch.
        assert_eq!(ch.batch_count(), 1);
        assert_eq!(ch.batches.lock()[0].1.chunk_count, 10);
        assert_eq!(vlog.chunks_replicated.get(), 10);
    }

    /// An R1 request (no backups) is answered at registration, and nothing
    /// ships.
    #[test]
    fn a_request_on_a_log_without_backups_is_answered_at_registration() {
        let vlog =
            VirtualLog::new(VirtualLogId(0), NodeId(0), 1 << 20, 0, selector(0, 1)).unwrap();
        let ch = MockChannel::new();
        let ticket = vlog.append(Phys::new().chunk(10)).unwrap();
        let answered = register(&[(Arc::clone(&vlog), ticket)], &ch);
        assert_eq!(answered.load(SeqCst), 1);
        assert!(!vlog.ship_once(&ch).unwrap());
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
        vlog.append(probe).unwrap();
        for _ in 0..5 {
            vlog.append(phys.chunk(100)).unwrap();
        }
        assert!(!vlog.ship_once(&ch).unwrap());
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

    /// Adds wire latency to the mock, on the shipping thread, so rounds
    /// are in flight while other threads append — the condition under
    /// which group commit consolidates.
    struct SlowChannel(MockChannel);

    impl BackupChannel for SlowChannel {
        fn start(&self, backups: &[NodeId], req: &EncodedBackupWrite, acked: Vec<Acked>) {
            std::thread::sleep(Duration::from_micros(300));
            self.0.start(backups, req, acked);
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
                        wait_for(&[(Arc::clone(&vlog), t)], &*ch).unwrap();
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

    /// One request on two logs: both rounds' writes go out before either
    /// lands, and the request is answered once, by the later landing.
    #[test]
    fn a_request_on_two_logs_is_answered_by_the_later_landing() {
        let ch = HeldChannel::default();
        let logs = touched_logs(2, &mut Phys::new());
        let answered = register(&logs, &ch);
        assert_eq!(ch.held(), 2, "a log's round waited for another's");
        ch.ack_one(Ok(()));
        assert_eq!(logs[0].0.durable(), logs[0].0.appended());
        assert_eq!(answered.load(SeqCst), 0, "answered before its second log landed");
        ch.ack_one(Ok(()));
        assert_eq!(answered.load(SeqCst), 1);
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
        let ch = HeldChannel::default();
        vlog.append(probe).unwrap();
        vlog.append(phys.chunk(100)).unwrap();
        let ticket = vlog.append(phys.chunk(100)).unwrap();
        let answered = register(&[(Arc::clone(&vlog), ticket)], &ch);
        assert_eq!(ch.held(), 2, "segments shipped one after another");
        ch.ack_one(Ok(()));
        assert_eq!(answered.load(SeqCst), 0, "answered before its round landed");
        ch.ack_one(Ok(()));
        assert_eq!(answered.load(SeqCst), 1);
        assert_eq!(ch.inner.batch_count(), 2, "one write per virtual segment");
        assert_eq!(vlog.durable(), vlog.appended());
    }

    /// A request registered while a round is in flight ships nothing
    /// itself: the landing starts the next round, which carries it.
    #[test]
    fn a_request_behind_a_round_in_flight_rides_the_next_one() {
        let vlog =
            VirtualLog::new(VirtualLogId(0), NodeId(0), 1 << 20, 1, selector(0, 4)).unwrap();
        let ch = HeldChannel::default();
        let mut phys = Phys::new();
        let mut request = || {
            let ticket = vlog.append(phys.chunk(40)).unwrap();
            register(&[(Arc::clone(&vlog), ticket)], &ch)
        };
        let first = request();
        let behind: Vec<_> = (0..3).map(|_| request()).collect();
        let answered = || behind.iter().map(|r| r.load(SeqCst)).sum::<usize>();
        assert_eq!(ch.held(), 1, "a second round went out while one was in flight");
        ch.ack_one(Ok(()));
        assert_eq!((first.load(SeqCst), answered()), (1, 0));
        assert_eq!(ch.held(), 1, "the landing did not ship what was pending");
        ch.ack_one(Ok(()));
        assert_eq!(answered(), 3);
        let batches = ch.inner.batches.lock();
        assert_eq!(batches.iter().map(|(_, b)| b.chunk_count).collect::<Vec<_>>(), [1, 3]);
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
            std::thread::spawn(move || wait_for(&again, &*ch))
        };
        wait_for(&logs, &*ch).unwrap();
        worker.join().unwrap().unwrap();
        for (vlog, _) in &logs {
            assert_eq!(vlog.durable(), vlog.appended());
        }
    }

    /// A failed round fails every request waiting on the log and leaves
    /// its references pending; nothing retries them in the background —
    /// the next request registered on the log ships them.
    #[test]
    fn transient_failure_surfaces_then_the_next_round_lands_it() {
        let ch = HeldChannel::default();
        let mut phys = Phys::new();
        let logs = touched_logs(1, &mut phys);
        let vlog = &logs[0].0;
        let failed = Arc::new(AtomicUsize::new(0));
        for ticket in [logs[0].1, vlog.append(phys.chunk(40)).unwrap()] {
            let failed = Arc::clone(&failed);
            let landed = Box::new(move |r: Result<()>| {
                assert!(matches!(r, Err(KeraError::Timeout { .. })));
                failed.fetch_add(1, SeqCst);
            });
            wait_all(vec![(Arc::clone(vlog), ticket)], &ch, TraceContext::NONE, landed);
        }
        ch.ack_one(Err(KeraError::Timeout { op: "scripted" }));
        assert_eq!(failed.load(SeqCst), 2, "a request behind the failed round was not failed");
        assert_eq!(vlog.durable(), 0);
        assert_eq!(ch.held(), 0, "a failed round's references were re-shipped in the background");
        let healed = MockChannel::new();
        wait_for(&logs, &healed).unwrap();
        assert_eq!(healed.batches.lock()[0].1.chunk_count, 2, "the stranded chunks rode along");
        assert_eq!(vlog.durable(), vlog.appended());
    }

    #[test]
    fn transient_failure_surfaces_and_recovers() {
        let vlog =
            VirtualLog::new(VirtualLogId(0), NodeId(0), 1 << 20, 1, selector(0, 2)).unwrap();
        let ch = MockChannel::new();
        let mut phys = Phys::new();
        vlog.append(phys.chunk(10)).unwrap();
        ch.fail.store(true, Relaxed);
        assert!(vlog.ship_once(&ch).is_err());
        assert_eq!(vlog.durable(), 0);
        // The failure is transient: once the channel heals, shipping succeeds.
        ch.fail.store(false, Relaxed);
        assert!(!vlog.ship_once(&ch).unwrap());
        assert_eq!(vlog.durable(), vlog.appended());
    }

    /// A channel that reports one backup as crashed until told otherwise.
    use KeraError::Disconnected;

    struct FlakyChannel {
        dead: Mutex<Option<NodeId>>,
        inner: MockChannel,
    }

    impl BackupChannel for FlakyChannel {
        fn start(&self, backups: &[NodeId], req: &EncodedBackupWrite, acked: Vec<Acked>) {
            let dead = self.dead.lock().filter(|dead| backups.contains(dead));
            match dead {
                Some(dead) => acked.into_iter().for_each(|a| a(self, Err(Disconnected(dead)))),
                None => self.inner.start(backups, req, acked),
            }
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
        vlog.append(phys.chunk(25)).unwrap();
        // Shipping must succeed by reselecting {2, 3}: the landing of the
        // failed round ships the next one itself.
        assert!(!vlog.ship_once(&ch).unwrap());
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
        vlog.append(phys.chunk(25)).unwrap();
        let err = vlog.ship_once(&ch).unwrap_err();
        assert!(matches!(err, KeraError::NoCapacity(_)));
        // Subsequent appends fail fast.
        assert!(vlog.append(phys.chunk(25)).is_err());
    }
}
