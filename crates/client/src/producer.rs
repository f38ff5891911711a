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
//! built — then a request. The invariants follow from that shape rather
//! than from bookkeeping:
//!
//! - **FIFO per broker.** A chunk is sealed and pushed under its slot's
//!   lock (slot, then queue, is the lock order), so it enters its lane in
//!   seal order, and it leaves only from the front; a failed request is
//!   re-sent before anything newer from its lane. A slot has one broker,
//!   so per-slot order is lane order.
//! - **Bound.** The lanes hold at most `queue_capacity` chunks, so at
//!   most that many plus the in-flight requests are sealed and
//!   unacknowledged; beyond that `send` blocks, on the queue's `room`.
//! - **Isolation.** A throttle or retry pause is a lane's `not_before`,
//!   and a lane sends again as soon as *its* request resolves: the thread
//!   never sleeps, nor waits for an answer, on behalf of one broker.
//! - **Progress.** With nothing in flight a lane may always send one
//!   request, whatever byte window a broker hinted.
//!
//! A source blocks on its slot's lock and on the queue (its lock, `room`,
//! and `drained` in `flush`), nowhere else. The requests thread blocks in
//! one place, the `park_timeout` that ends its loop; it takes the queue's
//! lock to pop and to settle and never waits on it. A reply unparks it
//! (it issues every produce call, so it is each call's waiter), as do
//! `close`/`abort` and — while some lane is below its in-flight bound —
//! a sealed chunk.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use kera_common::ids::{NodeId, ProducerId, StreamId, StreamletId};
use kera_common::metrics::{Counter, LatencyHistogram, ThroughputMeter};
use kera_common::rng::SplitMix64;
use kera_common::{KeraError, Result};
use kera_rpc::node::PendingCall;
use kera_rpc::RpcClient;
use kera_wire::chunk::{BufferPool, ChunkBuilder};
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
    /// `linger.ms`: how long a non-full chunk may wait before being sent.
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

/// Blind re-sends of a request after an error that is neither `Throttled`
/// nor `Rejected`.
const MAX_RETRIES: u32 = 3;

/// Upper bound on honored throttle retries per request: at the broker's
/// maximum retry hint this is tens of seconds of cooperation before the
/// request is declared failed.
const MAX_THROTTLE_RETRIES: u32 = 64;

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
}

impl Queue {
    /// Returns whether the requests thread is to be unparked.
    fn push(&mut self, lane: usize, chunk: SealedChunk) -> bool {
        self.waiting[lane].push_back(chunk);
        self.queued += 1;
        self.unsettled += 1;
        self.chunk_wanted
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
    /// Broker throttle responses honored
    /// (`kera.client.throttles{producer=<id>}`).
    pub throttled: Arc<Counter>,
    /// Chunk buffers cycle through here: builders draw fresh buffers,
    /// the requests thread returns them once a chunk has been packed
    /// into a request body.
    pool: Arc<BufferPool>,
    /// Pool health exported to the node registry
    /// (`kera.client.pool_{hits,misses,outstanding}{producer=<id>}`);
    /// refreshed by the requests thread, so a registry snapshot taken at
    /// any moment sees near-current values.
    pool_hits: Arc<kera_obs::Gauge>,
    pool_misses: Arc<kera_obs::Gauge>,
    pool_outstanding: Arc<kera_obs::Gauge>,
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

    /// Publishes the buffer pool's counters as gauges. A miss means a
    /// chunk allocation fell through the free-list (pool exhausted or
    /// mismatched capacity) — a rising miss rate is the first sign the
    /// producer's pool is undersized for its queue depth.
    fn export_pool_stats(&self) {
        let s = self.pool.stats();
        self.pool_hits.set(s.hits.min(i64::MAX as u64) as i64);
        self.pool_misses.set(s.misses.min(i64::MAX as u64) as i64);
        self.pool_outstanding.set(s.outstanding);
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
        // Enough pooled buffers to cover every pending slot plus a
        // queue's worth of sealed chunks, bounded so an oversized
        // queue_capacity cannot pin unbounded memory.
        let pool = BufferPool::new(cfg.chunk_size, cfg.queue_capacity.clamp(8, 256));
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
                let builder = ChunkBuilder::with_pool(Arc::clone(&pool), cfg.id, stream, sl);
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
        };
        let rpc = meta.rpc().clone();
        // Client metrics live in the node's registry, labelled by
        // producer id so co-hosted producers stay distinguishable.
        let pid = cfg.id.raw().to_string();
        let request_latency =
            rpc.obs().registry().histogram("kera.client.request_latency", &[("producer", &pid)]);
        let failed_requests =
            rpc.obs().registry().counter("kera.client.failed_requests", &[("producer", &pid)]);
        let throttled =
            rpc.obs().registry().counter("kera.client.throttles", &[("producer", &pid)]);
        let pool_hits =
            rpc.obs().registry().gauge("kera.client.pool_hits", &[("producer", &pid)]);
        let pool_misses =
            rpc.obs().registry().gauge("kera.client.pool_misses", &[("producer", &pid)]);
        let pool_outstanding =
            rpc.obs().registry().gauge("kera.client.pool_outstanding", &[("producer", &pid)]);
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
            throttled,
            pool,
            pool_hits,
            pool_misses,
            pool_outstanding,
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
        if !p.builder.append(record) {
            // Full: the chunk goes into its lane and the record opens the
            // next one. What an empty chunk cannot take is refused.
            if !p.builder.is_empty() {
                self.seal_into_lane(slot, &mut p);
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
        }
        Ok(())
    }

    /// Seals the slot's chunk and pushes it into its lane, all under the
    /// slot lock the caller holds: lane order must equal per-slot seal
    /// order, or a linger-sealed successor can overtake this chunk and
    /// invert the slot's record order on the broker. Waiting for `room`
    /// here is the backpressure path; the linger scan uses try_lock, so
    /// the requests thread can never deadlock against a sender that
    /// waits for it to make room.
    fn seal_into_lane(&self, slot: &Slot, p: &mut PendingChunk) {
        let sealed = self.shared.seal(p);
        let mut q = self.shared.queue.lock();
        while q.queued >= self.shared.cfg.queue_capacity {
            self.shared.room.wait(&mut q);
        }
        let wake = q.push(slot.lane, sealed);
        drop(q);
        if let (true, Some(t)) = (wake, &self.requests_thread) {
            t.thread().unpark();
        }
    }

    /// Seals all non-empty chunks and blocks until everything queued has
    /// been acknowledged (or failed terminally).
    pub fn flush(&self) -> Result<()> {
        for slot in self.shared.routes.values().flat_map(|route| &route.slots) {
            let mut p = slot.chunk.lock();
            if !p.builder.is_empty() {
                self.seal_into_lane(slot, &mut p);
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

    /// Broker throttle responses this producer has honored so far.
    pub fn throttles(&self) -> u64 {
        self.shared.throttled.get()
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
        if let Some(t) = self.requests_thread.take() {
            t.thread().unpark();
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
    /// Chunk bytes inside (byte window, goodput).
    chunk_bytes: u64,
    chunks: u32,
    records: u32,
    /// First send; request latency runs from here to the ack.
    started: Instant,
    retries: u32,
    throttle_retries: u32,
}

/// A request on the wire.
struct InFlight {
    req: Request,
    call: PendingCall,
    sent: Instant,
}

/// What the requests thread alone holds for one broker; the lane's
/// waiting chunks are in the [`Queue`], at the same index.
struct Lane {
    broker: NodeId,
    /// A request that resolved `Throttled` or with an error and goes out
    /// again before anything that waits.
    resend: Option<Request>,
    /// At most `pipeline` requests, in send order.
    inflight: VecDeque<InFlight>,
    /// Nothing is sent before this instant (throttle pause).
    not_before: Instant,
}

/// A lane's prefix, popped and on its way into a request.
struct Batch {
    chunks: Vec<Bytes>,
    bytes: usize,
    records: u32,
}

/// What the lanes share; plain state of the requests thread.
struct Flow {
    /// Chunk bytes on the wire, all brokers.
    inflight_bytes: u64,
    /// Latest broker-suggested bound on `inflight_bytes` (0 = none yet).
    window_hint: u64,
    /// Backoff jitter, deterministic per producer.
    rng: SplitMix64,
}

struct RequestsThread {
    shared: Arc<Shared>,
    lanes: Vec<Lane>,
    flow: Flow,
}

/// The Requests thread. Each round settles what resolved, enforces
/// linger, ships one request per lane that may send, and parks until
/// something can have changed (`park`). Settling is also what sends a
/// call's due retransmission and applies `CALL_TIMEOUT`.
fn requests_loop(shared: Arc<Shared>, brokers: Vec<NodeId>) {
    // Linger-scan cadence (the scan walks every slot of every stream).
    let tick = shared.cfg.linger.max(Duration::from_micros(200)) / 2;
    let flow = Flow {
        inflight_bytes: 0,
        window_hint: 0,
        rng: SplitMix64::new(0x5EED_0000 ^ u64::from(shared.cfg.id.raw())),
    };
    let lanes = brokers.into_iter().map(|broker| Lane {
        broker,
        resend: None,
        inflight: VecDeque::new(),
        not_before: Instant::now(),
    });
    let mut t = RequestsThread { shared, lanes: lanes.collect(), flow };
    let mut next_linger_scan = Instant::now() + tick;
    loop {
        for lane in &mut t.lanes {
            t.flow.reap_lane(&t.shared, lane);
        }
        t.shared.export_pool_stats();
        let stopping = t.shared.shutdown.load(Ordering::SeqCst);
        if stopping && t.shared.discard.load(Ordering::SeqCst) {
            t.discard_unsent();
        }
        if stopping && t.shared.queue.lock().unsettled == 0 {
            return;
        }
        if Instant::now() >= next_linger_scan {
            // A stopped producer has no partial chunk worth sealing:
            // `close` flushed them, `abort` gives them up.
            if !stopping {
                t.scan_linger();
            }
            next_linger_scan = Instant::now() + tick;
        }
        let idle_lane = t.ship();
        t.park(idle_lane, next_linger_scan);
    }
}

impl RequestsThread {
    /// Seals chunks whose linger expired, straight into their lanes.
    fn scan_linger(&self) {
        let shared = &self.shared;
        for slot in shared.routes.values().flat_map(|route| &route.slots) {
            // try_lock: a held lock is a source thread inside its
            // seal+push critical section (possibly waiting for room that
            // only this thread makes) — skip the slot and catch it on the
            // next scan instead of deadlocking.
            let Some(mut p) = slot.chunk.try_lock() else { continue };
            let expired = p.since.is_some_and(|s| s.elapsed() >= shared.cfg.linger);
            if !expired || p.builder.is_empty() {
                continue;
            }
            // This thread must not wait for room: with the lanes full the
            // chunk stays open. It is sealed under the queue's lock, so
            // that the bound holds exactly; a lingering chunk is a short one.
            let mut q = shared.queue.lock();
            if q.queued >= shared.cfg.queue_capacity {
                return;
            }
            let sealed = shared.seal(&mut p);
            q.push(slot.lane, sealed);
        }
    }

    /// Puts on the wire what each lane may send now: its `resend`, else
    /// a new request if fewer than `pipeline` are in flight. The lanes'
    /// prefixes are popped in one critical section, which also tells the
    /// sources whether some lane is left below its in-flight bound (the
    /// return value); encoding and sending hold no lock.
    fn ship(&mut self) -> bool {
        let Self { shared, lanes, flow } = self;
        let now = Instant::now();
        let bound = shared.cfg.pipeline.max(1);
        for lane in lanes.iter_mut().filter(|l| now >= l.not_before) {
            if let Some(req) = lane.resend.take() {
                flow.inflight_bytes += req.chunk_bytes;
                lane.send(shared, req, now);
            }
        }
        let mut batches: Vec<(usize, Batch)> = Vec::new();
        let mut idle_lane = false;
        let mut q = shared.queue.lock();
        let was_full = q.queued >= shared.cfg.queue_capacity;
        for (i, lane) in lanes.iter().enumerate() {
            let mut on_wire = lane.inflight.len();
            if now >= lane.not_before && on_wire < bound {
                if let Some(batch) = flow.pack(shared, &mut q.waiting[i]) {
                    q.queued -= batch.chunks.len();
                    batches.push((i, batch));
                    on_wire += 1;
                }
            }
            idle_lane |= on_wire < bound;
        }
        q.chunk_wanted = idle_lane;
        drop(q);
        if was_full && !batches.is_empty() {
            shared.room.notify_all();
        }
        for (i, batch) in batches {
            lanes[i].send(shared, batch.encode(shared, now), now);
        }
        idle_lane
    }

    /// The thread's one blocking point. While some lane is below its
    /// in-flight bound, a sealed chunk is worth an unpark (`ship` said
    /// so in `chunk_wanted`) and the next linger scan a wake-up. With
    /// every lane on the wire neither is — a chunk sealed now would only
    /// wait in its lane, smaller — so a saturated producer sleeps from
    /// reply to reply however fast its source seals. The end of a pause
    /// always is.
    fn park(&self, idle_lane: bool, linger_scan: Instant) {
        let now = Instant::now();
        let wake = self
            .lanes
            .iter()
            .map(|l| l.not_before)
            .filter(|&pause_ends| pause_ends > now)
            .fold(if idle_lane { linger_scan } else { now + crate::TIMER_CHECK }, Instant::min);
        std::thread::park_timeout(wake.saturating_duration_since(now));
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
    fn send(&mut self, shared: &Shared, req: Request, now: Instant) {
        // lint: allow(no-hot-copy) — refcount clone; a re-send keeps the other handle
        let call = shared.rpc.call_async(self.broker, OpCode::Produce, req.payload.clone());
        self.inflight.push_back(InFlight { req, call, sent: now });
    }
}

impl Batch {
    /// The single copy of the chunks into a contiguous request body; the
    /// buffers then return to the pool for the builders to reuse.
    fn encode(self, shared: &Shared, now: Instant) -> Request {
        let payload = ProduceRequest::encode_chunks(shared.cfg.id, false, &self.chunks);
        let chunks = self.chunks.len() as u32;
        for c in self.chunks {
            shared.pool.release(c);
        }
        Request {
            payload,
            chunk_bytes: self.bytes as u64,
            chunks,
            records: self.records,
            started: now,
            retries: 0,
            throttle_retries: 0,
        }
    }
}

impl Flow {
    /// Pops the longest prefix of `waiting` that fits `request_max_bytes`
    /// and the hinted byte window, and counts it as on the wire. With
    /// nothing on the wire the first chunk always fits: a hint smaller
    /// than a chunk must slow the producer down, not wedge it.
    fn pack(&mut self, shared: &Shared, waiting: &mut VecDeque<SealedChunk>) -> Option<Batch> {
        let mut batch = Batch { chunks: Vec::new(), bytes: 0, records: 0 };
        while let Some(c) = waiting.front() {
            let total = batch.bytes + c.bytes.len();
            let on_wire = self.inflight_bytes + total as u64;
            let first_of_all = self.inflight_bytes == 0 && batch.chunks.is_empty();
            if (!batch.chunks.is_empty() && total > shared.cfg.request_max_bytes)
                || (self.window_hint > 0 && on_wire > self.window_hint && !first_of_all)
            {
                break;
            }
            batch.bytes = total;
            batch.records += c.records;
            batch.chunks.extend(waiting.pop_front().map(|c| c.bytes));
        }
        self.inflight_bytes += batch.bytes as u64;
        (!batch.chunks.is_empty()).then_some(batch)
    }

    /// Settles the lane's resolved requests, in send order.
    fn reap_lane(&mut self, shared: &Shared, lane: &mut Lane) {
        while lane.resend.is_none() {
            let Some(front) = lane.inflight.front_mut() else { break };
            let Some(result) = crate::resolve(&mut front.call, front.sent, "produce") else { break };
            if let Some(done) = lane.inflight.pop_front() {
                self.settle(shared, lane, done.req, result);
            }
        }
    }

    /// Applies one resolved request: acknowledged, failed for good, or —
    /// after `Throttled` or an error — the lane's next send.
    fn settle(&mut self, shared: &Shared, lane: &mut Lane, mut req: Request, result: Result<Bytes>) {
        self.inflight_bytes -= req.chunk_bytes;
        // A reply is input from a peer: unless it answers exactly the
        // chunks sent it acknowledges nothing, an error like any other.
        let result = result.and_then(|payload| match ProduceResponse::decode(&payload)?.acks.len() {
            acks if acks == req.chunks as usize => Ok(()),
            acks => Err(KeraError::Protocol(format!("{acks} acks for {} chunks", req.chunks))),
        });
        let aborting =
            shared.shutdown.load(Ordering::SeqCst) && shared.discard.load(Ordering::SeqCst);
        let again = match &result {
            Ok(()) => false,
            // A hard refusal: the broker is out of admission memory or
            // has evicted this session. Hammering it with retries is
            // exactly what admission control punishes.
            Err(KeraError::Rejected { .. }) => false,
            Err(KeraError::Throttled { retry_after, window_hint }) => {
                let again = !aborting && req.throttle_retries < MAX_THROTTLE_RETRIES;
                if again {
                    req.throttle_retries += 1;
                    shared.throttled.inc();
                    if *window_hint > 0 {
                        self.window_hint = *window_hint;
                    }
                    // Pause the lane for retry_after plus jitter.
                    let bound = (*retry_after / 2 + Duration::from_micros(100)).as_nanos() as u64;
                    let jitter = Duration::from_nanos(self.rng.next_u64() % bound);
                    lane.not_before = Instant::now() + *retry_after + jitter;
                }
                again
            }
            // Anything else: blind re-send, at once.
            Err(_) => {
                let again = !aborting && req.retries < MAX_RETRIES;
                req.retries += u32::from(again);
                again
            }
        };
        if again {
            lane.resend = Some(req);
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
