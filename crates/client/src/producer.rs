//! The producer client (paper Fig. 6).
//!
//! "Each producer implements two threads that communicate through shared
//! memory": the *Source* thread (the caller of [`Producer::send`])
//! appends records to per-streamlet chunk buffers; the *Requests* thread
//! gathers filled chunks — or chunks older than the linger timeout — into
//! one request per broker and keeps up to `pipeline` of them in flight.
//! The shared memory is one structure, the [`Queue`] under one lock.
//!
//! Between sealing and acknowledgement a chunk is in exactly one place:
//! its broker's lane in the queue — a FIFO, fixed when the producer is
//! built — then a request. Its buffer comes from the allocator when its
//! slot's builder rearms after the previous seal, and is freed once the
//! chunk has been copied into its request body. The invariants follow
//! from that shape rather than from bookkeeping:
//!
//! - **FIFO per broker.** A chunk is sealed and pushed under its slot's
//!   lock (slot, then queue, is the lock order), so it enters its lane in
//!   seal order, and it leaves only from the front; a failed request is
//!   re-sent before anything newer from its lane. A slot has one broker,
//!   so per-slot order is lane order.
//! - **Bound.** The lanes hold at most `queue_capacity` chunks, so at
//!   most that many plus the in-flight requests are sealed and
//!   unacknowledged; beyond that `send` blocks, on the queue's `room`.
//! - **Isolation.** A lane sends again as soon as *its* request
//!   resolves: the thread never sleeps, nor waits for an answer, on
//!   behalf of one broker.
//!
//! A source blocks on its slot's lock and on the queue (its lock, `room`,
//! and `drained` in `flush`), nowhere else. The requests thread blocks in
//! one place, the park that ends its loop; it takes the queue's lock to
//! pop and to settle and never waits on it. A call's end — a reply, or
//! its node giving up on it — unparks it (it issues every produce call,
//! so it is each call's waiter), as do `close`/`abort` and — while some
//! lane is below its in-flight bound — a sealed chunk. Its one timeout,
//! in that state, is the linger deadline of the oldest open chunk, which
//! it seals then; with no chunk open it has none, and the source that
//! opens the next chunk unparks it. The thread keeps no tick of its own.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use kera_common::ids::{NodeId, ProducerId, StreamId, StreamletId};
use kera_common::metrics::{Counter, LatencyHistogram, ThroughputMeter};
use kera_common::{KeraError, Result};
use kera_rpc::node::PendingCall;
use kera_rpc::RpcClient;
use kera_wire::chunk::ChunkBuilder;
use kera_wire::frames::OpCode;
use kera_wire::messages::{ProduceRequest, ProduceResponse};
use kera_wire::record::Record;
use parking_lot::{Condvar, Mutex};

use crate::metadata::MetadataClient;
use crate::partitioner::Partitioner;

/// Producer configuration (the knobs of §V-A).
#[derive(Clone, Debug)]
pub struct ProducerConfig {
    pub id: ProducerId,
    /// Chunk capacity in bytes (header included).
    pub chunk_size: usize,
    /// Maximum bytes of chunks per broker request.
    pub request_max_bytes: usize,
    /// `linger.ms`: how long a non-full chunk waits after its first record
    /// before it is sealed and sent (while the lanes have room for it).
    pub linger: Duration,
    pub partitioner: Partitioner,
    /// Sealed chunks that may wait in the lanes, all brokers together
    /// (backpressure depth); one more `send` blocks.
    pub queue_capacity: usize,
    /// Outstanding requests per broker ("the number of parallel producer
    /// requests", paper §II-B); 1 is the paper's evaluation setting, and
    /// the only one that keeps a slot's chunks in order across a re-send.
    pub pipeline: usize,
}

impl Default for ProducerConfig {
    fn default() -> Self {
        Self {
            id: ProducerId(0),
            chunk_size: 16 * 1024,
            request_max_bytes: 1 << 20,
            linger: Duration::from_millis(1),
            partitioner: Partitioner::RoundRobin,
            queue_capacity: 2000,
            pipeline: 1,
        }
    }
}

/// Blind re-sends of a request after an error.
const MAX_RETRIES: u32 = 3;

struct PendingChunk {
    builder: ChunkBuilder,
    /// When the first record of the current chunk arrived (linger clock).
    since: Option<Instant>,
}

/// One streamlet's chunk buffer and where its chunks go.
struct Slot {
    /// Index of the streamlet's broker in the lanes.
    lane: usize,
    chunk: Mutex<PendingChunk>,
}

struct StreamRoute {
    counter: AtomicU64,
    /// One per streamlet.
    slots: Vec<Slot>,
}

struct SealedChunk {
    records: u32,
    bytes: Bytes,
}

/// What the two threads share: every sealed chunk not yet in a request.
struct Queue {
    /// Per lane, in seal order.
    waiting: Vec<VecDeque<SealedChunk>>,
    /// Chunks in all of `waiting`, at most `queue_capacity`.
    queued: usize,
    /// Chunks sealed and neither acknowledged, failed for good nor
    /// discarded yet; `flush` waits on `drained` for it to reach 0.
    unsettled: u64,
    /// Up while some lane is below its in-flight bound: a chunk pushed
    /// now would be sent at once, so pushing it unparks the requests
    /// thread. Set where that thread pops (`ship`), under the one lock,
    /// so no chunk falls between its look at the lanes and its park.
    chunk_wanted: bool,
    /// Up while the requests thread may sleep with no linger deadline: it
    /// saw no open chunk and some lane is idle, so the source that opens
    /// the next chunk unparks it (and lowers this). Raised before that
    /// thread looks at the slots, so a chunk opened behind its look is not
    /// missed; lowered where it pops (`ship`) once a deadline is known.
    open_wanted: bool,
}

impl Queue {
    /// Returns whether the requests thread is to be unparked.
    fn push(&mut self, lane: usize, chunk: SealedChunk) -> bool {
        self.waiting[lane].push_back(chunk);
        self.queued += 1;
        self.unsettled += 1;
        self.chunk_wanted
    }

    /// A source opened a chunk: returns whether the requests thread is to
    /// be unparked.
    fn opened(&mut self) -> bool {
        std::mem::take(&mut self.open_wanted)
    }
}

struct Shared {
    cfg: ProducerConfig,
    rpc: RpcClient,
    /// Fixed at construction: streams, their slots, each slot's lane.
    routes: HashMap<StreamId, StreamRoute>,
    queue: Mutex<Queue>,
    /// Signalled when chunks left full lanes; `send` waits here.
    room: Condvar,
    drained: Condvar,
    shutdown: AtomicBool,
    /// With `shutdown`: drop queued chunks instead of draining them
    /// (fast teardown for benchmarks; `close()` drains, `Drop` discards).
    discard: AtomicBool,
    /// Per-chunk sequence tags (broker-side retry dedup). Seeded from the
    /// wall clock so a restarted producer reusing an id cannot collide
    /// with tags its predecessor left in broker replay caches.
    next_tag: AtomicU64,
    /// Records acknowledged by brokers.
    pub acked: ThroughputMeter,
    /// Request latency, send → ack
    /// (`kera.client.request_latency{producer=<id>}`).
    pub request_latency: Arc<LatencyHistogram>,
    /// Requests that exhausted retries
    /// (`kera.client.failed_requests{producer=<id>}`).
    pub failed_requests: Arc<Counter>,
}

impl Shared {
    /// Seals the slot's chunk (the caller holds the slot lock); the
    /// builder rearms itself for the same streamlet.
    fn seal(&self, p: &mut PendingChunk) -> SealedChunk {
        let records = p.builder.record_count();
        let bytes = p.builder.seal_with_sequence(self.next_tag.fetch_add(1, Ordering::Relaxed));
        p.since = None;
        SealedChunk { records, bytes }
    }

    /// `chunks` were acknowledged, failed for good or discarded.
    fn settled(&self, chunks: u64) {
        let mut q = self.queue.lock();
        q.unsettled -= chunks;
        if q.unsettled == 0 {
            self.drained.notify_all();
        }
    }
}

/// A producer client.
pub struct Producer {
    shared: Arc<Shared>,
    requests_thread: Option<std::thread::JoinHandle<()>>,
}

impl Producer {
    /// Connects a producer for `streams`: metadata is resolved eagerly,
    /// and so is every streamlet's broker — one that has none fails here.
    pub fn new(
        meta: &MetadataClient,
        streams: &[StreamId],
        cfg: ProducerConfig,
    ) -> Result<Producer> {
        // A lane must be able to hold a chunk, or nothing is ever sent.
        let cfg = ProducerConfig { queue_capacity: cfg.queue_capacity.max(1), ..cfg };
        let mut brokers: Vec<NodeId> = Vec::new();
        let mut routes = HashMap::new();
        for &stream in streams {
            let md = meta.metadata(stream)?;
            let slots = (0..md.config.streamlets).map(StreamletId).map(|sl| {
                let broker = md.broker_of(sl).ok_or(KeraError::UnknownStreamlet(stream, sl))?;
                let lane = brokers.iter().position(|&b| b == broker).unwrap_or_else(|| {
                    brokers.push(broker);
                    brokers.len() - 1
                });
                let builder = ChunkBuilder::new(cfg.chunk_size, cfg.id, stream, sl);
                let chunk = Mutex::named("client.slot", PendingChunk { builder, since: None });
                Ok(Slot { lane, chunk })
            });
            let slots = slots.collect::<Result<Vec<Slot>>>()?;
            routes.insert(stream, StreamRoute { counter: AtomicU64::new(0), slots });
        }
        let queue = Queue {
            waiting: brokers.iter().map(|_| VecDeque::new()).collect(),
            queued: 0,
            unsettled: 0,
            chunk_wanted: false,
            open_wanted: false,
        };
        let rpc = meta.rpc().clone();
        // Client metrics live in the node's registry, labelled by
        // producer id so co-hosted producers stay distinguishable.
        let pid = cfg.id.raw().to_string();
        let request_latency =
            rpc.obs().registry().histogram("kera.client.request_latency", &[("producer", &pid)]);
        let failed_requests =
            rpc.obs().registry().counter("kera.client.failed_requests", &[("producer", &pid)]);
        let shared = Arc::new(Shared {
            cfg,
            rpc,
            routes,
            queue: Mutex::named("client.queue", queue),
            room: Condvar::new(),
            drained: Condvar::new(),
            shutdown: AtomicBool::new(false),
            discard: AtomicBool::new(false),
            next_tag: AtomicU64::new(
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(1),
            ),
            acked: ThroughputMeter::new(),
            request_latency,
            failed_requests,
        });
        let requests_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("producer-req-{}", shared.cfg.id.raw()))
                .spawn(move || requests_loop(shared, brokers))
                .expect("spawn producer requests thread")
        };
        Ok(Producer { shared, requests_thread: Some(requests_thread) })
    }

    /// Appends a non-keyed record (the paper's workload shape).
    pub fn send(&self, stream: StreamId, value: &[u8]) -> Result<()> {
        self.send_record(stream, &Record::value_only(value))
    }

    /// Appends a keyed record (partitioned by its first key under
    /// [`Partitioner::ByKey`]).
    pub fn send_keyed(&self, stream: StreamId, key: &[u8], value: &[u8]) -> Result<()> {
        let rec = Record { version: None, timestamp: None, keys: vec![key], value };
        self.send_record(stream, &rec)
    }

    /// Appends an arbitrary record.
    pub fn send_record(&self, stream: StreamId, record: &Record<'_>) -> Result<()> {
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return Err(KeraError::ShuttingDown);
        }
        let route = self.shared.routes.get(&stream).ok_or(KeraError::UnknownStream(stream))?;
        let counter = route.counter.fetch_add(1, Ordering::Relaxed);
        let streamlet = self.shared.cfg.partitioner.pick(
            route.slots.len() as u32,
            counter,
            record.keys.first().copied(),
        );
        let slot = &route.slots[streamlet.raw() as usize];

        let mut p = slot.chunk.lock();
        let mut sealed_full = false;
        if !p.builder.append(record) {
            // Full: the chunk goes into its lane and the record opens the
            // next one, which the seal's critical section announces. What
            // an empty chunk cannot take is refused.
            if !p.builder.is_empty() {
                self.seal_into_lane(slot, &mut p, true);
                sealed_full = true;
            }
            if !p.builder.append(record) {
                return Err(KeraError::ChunkTooLarge {
                    chunk: record.encoded_len(),
                    segment: self.shared.cfg.chunk_size,
                });
            }
        }
        if p.since.is_none() {
            p.since = Some(Instant::now());
            if !sealed_full && self.shared.queue.lock().opened() {
                self.unpark_requests();
            }
        }
        Ok(())
    }

    /// Seals the slot's chunk and pushes it into its lane, all under the
    /// slot lock the caller holds: lane order must equal per-slot seal
    /// order, or a linger-sealed successor can overtake this chunk and
    /// invert the slot's record order on the broker. Waiting for `room`
    /// here is the backpressure path; the linger pass uses try_lock, so
    /// the requests thread can never deadlock against a sender that
    /// waits for it to make room. `opening`: the caller opens the slot's
    /// next chunk before it lets go of the slot.
    fn seal_into_lane(&self, slot: &Slot, p: &mut PendingChunk, opening: bool) {
        let sealed = self.shared.seal(p);
        let mut q = self.shared.queue.lock();
        while q.queued >= self.shared.cfg.queue_capacity {
            self.shared.room.wait(&mut q);
        }
        let mut wake = q.push(slot.lane, sealed);
        wake |= opening && q.opened();
        drop(q);
        if wake {
            self.unpark_requests();
        }
    }

    fn unpark_requests(&self) {
        if let Some(t) = &self.requests_thread {
            t.thread().unpark();
        }
    }

    /// Seals all non-empty chunks and blocks until everything queued has
    /// been acknowledged or has failed for good. `Ok` does not mean
    /// acknowledged: a request that exhausted its retries is settled
    /// too, and [`Producer::failed_requests`] is how a caller learns of it.
    pub fn flush(&self) -> Result<()> {
        for slot in self.shared.routes.values().flat_map(|route| &route.slots) {
            let mut p = slot.chunk.lock();
            if !p.builder.is_empty() {
                self.seal_into_lane(slot, &mut p, false);
            }
        }
        let mut q = self.shared.queue.lock();
        while q.unsettled > 0 {
            self.shared.drained.wait(&mut q);
        }
        Ok(())
    }

    /// Records acknowledged per second since
    /// [`ThroughputMeter::start_window`]; the harness reads this.
    pub fn metrics(&self) -> &ThroughputMeter {
        &self.shared.acked
    }

    pub fn request_latency(&self) -> &LatencyHistogram {
        &self.shared.request_latency
    }

    pub fn failed_requests(&self) -> u64 {
        self.shared.failed_requests.get()
    }

    /// Always 0: no broker throttles. Kept because the repository
    /// benchmark reads it and reports the sum as `client.throttles`.
    pub fn throttles(&self) -> u64 {
        0
    }

    /// Flushes, stops the requests thread and joins it.
    pub fn close(mut self) -> Result<()> {
        let flush_result = self.flush();
        self.stop(false);
        flush_result
    }

    /// Fast teardown: queued-but-unsent chunks are discarded (their
    /// records were never acknowledged). Benchmark harnesses use this so
    /// a slow cluster cannot stretch teardown indefinitely.
    pub fn abort(mut self) {
        self.stop(true);
    }

    /// Orderly close used by [`Producer::close`]: everything queued is
    /// drained and acknowledged before the requests thread exits.
    fn stop(&mut self, discard: bool) {
        self.shared.discard.store(discard, Ordering::SeqCst);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.unpark_requests();
        if let Some(t) = self.requests_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Producer {
    fn drop(&mut self) {
        // Dropping without close() is the abort path.
        self.stop(true);
    }
}

/// One encoded produce request and what its resolution settles.
struct Request {
    /// The encoded body, re-sent verbatim: the chunks' sequence tags make
    /// a re-send exactly-once on the broker.
    payload: Bytes,
    /// Chunk bytes inside (goodput).
    chunk_bytes: u64,
    chunks: u32,
    records: u32,
    /// First send; request latency runs from here to the ack.
    started: Instant,
    retries: u32,
}

/// A request on the wire.
struct InFlight {
    req: Request,
    call: PendingCall,
}

/// What the requests thread alone holds for one broker; the lane's
/// waiting chunks are in the [`Queue`], at the same index.
struct Lane {
    broker: NodeId,
    /// A request that resolved with an error and goes out again before
    /// anything that waits.
    resend: Option<Request>,
    /// At most `pipeline` requests, in send order.
    inflight: VecDeque<InFlight>,
}

/// A lane's prefix, popped and on its way into a request.
struct Batch {
    chunks: Vec<Bytes>,
    bytes: usize,
    records: u32,
}

struct RequestsThread {
    shared: Arc<Shared>,
    lanes: Vec<Lane>,
}

/// The Requests thread. Each round settles what resolved, seals the
/// chunks whose linger ran out (when the earliest deadline has come),
/// ships one request per lane that may send, and parks until something
/// can have changed (`park`).
fn requests_loop(shared: Arc<Shared>, brokers: Vec<NodeId>) {
    let lanes = brokers.into_iter().map(|broker| Lane {
        broker,
        resend: None,
        inflight: VecDeque::new(),
    });
    let mut t = RequestsThread { shared, lanes: lanes.collect() };
    // When the next linger pass is due; `None`: at the next turn.
    let mut due: Option<Instant> = None;
    loop {
        for lane in &mut t.lanes {
            lane.reap(&t.shared);
        }
        let stopping = t.shared.shutdown.load(Ordering::SeqCst);
        if stopping && t.shared.discard.load(Ordering::SeqCst) {
            t.discard_unsent();
        }
        if stopping && t.shared.queue.lock().unsettled == 0 {
            return;
        }
        if stopping {
            // A stopped producer has no partial chunk worth sealing:
            // `close` flushed them, `abort` gives them up.
            due = None;
        } else if due.is_none_or(|d| d <= Instant::now()) {
            due = t.seal_expired();
        }
        let idle_lane = t.ship(due.is_none());
        t.park(idle_lane, due);
    }
}

impl RequestsThread {
    /// The linger pass: seals the chunks whose linger ran out, straight
    /// into their lanes, and returns when the next pass is due — the
    /// earliest deadline of a chunk left open, or `linger / 8` from now
    /// if a source held a slot's lock. `None`: no deadline, only a wake-up
    /// can make a pass worth it — no chunk is open (the source that opens
    /// one unparks this thread, see `open_wanted`), or the lanes are full
    /// (the reply that makes room does).
    fn seal_expired(&self) -> Option<Instant> {
        let shared = &self.shared;
        let linger = shared.cfg.linger;
        // Up before the first look at a slot: a chunk opened behind the
        // look announces itself.
        shared.queue.lock().open_wanted = true;
        let now = Instant::now();
        let mut due: Option<Instant> = None;
        let mut earliest = |at: Instant| due = Some(due.map_or(at, |d| d.min(at)));
        for slot in shared.routes.values().flat_map(|route| &route.slots) {
            // try_lock: a held lock is a source thread inside its
            // seal+push critical section (possibly waiting for room that
            // only this thread makes) — look again shortly instead of
            // deadlocking, and not a whole linger later.
            let Some(mut p) = slot.chunk.try_lock() else {
                earliest(now + linger / 8);
                continue;
            };
            let Some(since) = p.since else { continue };
            if since + linger > now {
                earliest(since + linger);
                continue;
            }
            // This thread must not wait for room: with the lanes full the
            // chunk stays open. It is sealed under the queue's lock, so
            // that the bound holds exactly; a lingering chunk is a short one.
            let mut q = shared.queue.lock();
            if q.queued >= shared.cfg.queue_capacity {
                return None;
            }
            let sealed = shared.seal(&mut p);
            q.push(slot.lane, sealed);
        }
        due
    }

    /// Puts on the wire what each lane may send now: its `resend`, else
    /// a new request if fewer than `pipeline` are in flight. The lanes'
    /// prefixes are popped in one critical section, which also tells the
    /// sources whether some lane is left below its in-flight bound (the
    /// return value) and whether this thread waits for a chunk to open
    /// (`no_deadline`: the linger pass left none); encoding and sending
    /// hold no lock.
    fn ship(&mut self, no_deadline: bool) -> bool {
        let Self { shared, lanes } = self;
        let now = Instant::now();
        let bound = shared.cfg.pipeline.max(1);
        for lane in lanes.iter_mut() {
            if let Some(req) = lane.resend.take() {
                lane.send(shared, req);
            }
        }
        let mut batches: Vec<(usize, Batch)> = Vec::new();
        let mut idle_lane = false;
        let mut q = shared.queue.lock();
        let was_full = q.queued >= shared.cfg.queue_capacity;
        for (i, lane) in lanes.iter().enumerate() {
            let mut on_wire = lane.inflight.len();
            if on_wire < bound {
                if let Some(batch) = Batch::pack(shared, &mut q.waiting[i]) {
                    q.queued -= batch.chunks.len();
                    batches.push((i, batch));
                    on_wire += 1;
                }
            }
            idle_lane |= on_wire < bound;
        }
        q.chunk_wanted = idle_lane;
        // Only lowered here: a source may have taken it since the pass.
        q.open_wanted &= idle_lane && no_deadline;
        drop(q);
        if was_full && !batches.is_empty() {
            shared.room.notify_all();
        }
        for (i, batch) in batches {
            lanes[i].send(shared, batch.encode(shared, now));
        }
        idle_lane
    }

    /// The thread's one blocking point. While some lane is below its
    /// in-flight bound, a sealed chunk is worth an unpark (`ship` said
    /// so in `chunk_wanted`), and so is the next linger deadline — or,
    /// with none, an opened chunk (`open_wanted`). With every lane on the
    /// wire none of them is — a chunk sealed now would only wait in its
    /// lane, smaller — so a saturated producer sleeps from reply to reply
    /// however fast its source seals.
    fn park(&self, idle_lane: bool, due: Option<Instant>) {
        match due.filter(|_| idle_lane) {
            Some(due) => std::thread::park_timeout(due.saturating_duration_since(Instant::now())),
            None => std::thread::park(),
        }
    }

    /// Fast teardown: drops everything not on the wire (what is, the loop
    /// waits out; `settle` re-sends nothing).
    fn discard_unsent(&mut self) {
        let resends = self.lanes.iter_mut().filter_map(|lane| lane.resend.take());
        let mut dropped: u64 = resends.map(|req| u64::from(req.chunks)).sum();
        let mut q = self.shared.queue.lock();
        dropped += q.queued as u64;
        q.waiting.iter_mut().for_each(VecDeque::clear);
        q.queued = 0;
        drop(q);
        self.shared.settled(dropped);
    }
}

impl Lane {
    fn send(&mut self, shared: &Shared, req: Request) {
        // lint: allow(no-hot-copy) — refcount clone; a re-send keeps the other handle
        let payload = req.payload.clone();
        let call = shared.rpc.call_async(self.broker, OpCode::Produce, payload, crate::CALL_TIMEOUT);
        self.inflight.push_back(InFlight { req, call });
    }

    /// Settles the lane's resolved requests, in send order.
    fn reap(&mut self, shared: &Shared) {
        while self.resend.is_none() {
            let Some(front) = self.inflight.front_mut() else { break };
            let Some(result) = front.call.poll() else { break };
            if let Some(done) = self.inflight.pop_front() {
                self.settle(shared, done.req, result);
            }
        }
    }

    /// Applies one resolved request: acknowledged, failed for good, or —
    /// after an error — the lane's next send.
    fn settle(&mut self, shared: &Shared, mut req: Request, result: Result<Bytes>) {
        // A reply is input from a peer: unless it answers exactly the
        // chunks sent it acknowledges nothing, an error like any other.
        let result = result.and_then(|payload| match ProduceResponse::decode(&payload)?.acks.len() {
            acks if acks == req.chunks as usize => Ok(()),
            acks => Err(KeraError::Protocol(format!("{acks} acks for {} chunks", req.chunks))),
        });
        let aborting =
            shared.shutdown.load(Ordering::SeqCst) && shared.discard.load(Ordering::SeqCst);
        // An error is re-sent blindly, at once.
        if result.is_err() && !aborting && req.retries < MAX_RETRIES {
            req.retries += 1;
            self.resend = Some(req);
            return;
        }
        match result {
            Ok(()) => {
                shared.acked.record(u64::from(req.records), req.chunk_bytes);
                shared.request_latency.record(req.started.elapsed());
            }
            Err(_) => shared.failed_requests.inc(),
        }
        shared.settled(u64::from(req.chunks));
    }
}

impl Batch {
    /// Pops the longest prefix of `waiting` that fits `request_max_bytes`;
    /// the first chunk always fits.
    fn pack(shared: &Shared, waiting: &mut VecDeque<SealedChunk>) -> Option<Batch> {
        let mut batch = Batch { chunks: Vec::new(), bytes: 0, records: 0 };
        while let Some(c) = waiting.front() {
            let total = batch.bytes + c.bytes.len();
            if !batch.chunks.is_empty() && total > shared.cfg.request_max_bytes {
                break;
            }
            batch.bytes = total;
            batch.records += c.records;
            batch.chunks.extend(waiting.pop_front().map(|c| c.bytes));
        }
        (!batch.chunks.is_empty()).then_some(batch)
    }

    /// The single copy of the chunks into a contiguous request body; the
    /// chunks' allocations are freed when `self` drops here.
    fn encode(self, shared: &Shared, now: Instant) -> Request {
        Request {
            payload: ProduceRequest::encode_chunks(shared.cfg.id, false, &self.chunks),
            chunk_bytes: self.bytes as u64,
            chunks: self.chunks.len() as u32,
            records: self.records,
            started: now,
            retries: 0,
        }
    }
}

