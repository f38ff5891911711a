//! The producer client (paper Fig. 6).
//!
//! "Each producer implements two threads that communicate through shared
//! memory": the *Source* thread (the caller of [`Producer::send`])
//! appends records to per-streamlet chunk buffers; the *Requests* thread
//! gathers filled chunks — or chunks older than the linger timeout — into
//! one request per broker and keeps up to `pipeline` of them in flight.
//!
//! Between sealing and acknowledgement a chunk is in exactly one place:
//! the bounded `ready` channel, then its broker's [`Lane`] — a FIFO the
//! requests thread owns — then a request. The invariants follow from
//! that shape rather than from bookkeeping:
//!
//! - **FIFO per broker.** Chunks enter a lane in seal order (seal +
//!   enqueue is atomic under the slot lock, and the linger scan drains
//!   the channel under that lock before it seals) and leave it only from
//!   the front; a failed request is re-sent before anything newer from
//!   its lane. A slot has one broker, so per-slot order is lane order.
//! - **Bound.** The thread stops taking from the channel while its lanes
//!   hold `queue_capacity` chunks, so at most channel + lanes + in-flight
//!   requests are sealed and unacknowledged; beyond that `send` blocks.
//! - **Isolation.** A throttle or retry pause is a lane's `not_before`,
//!   and a lane sends again as soon as *its* request resolves: the thread
//!   never sleeps, nor waits for an answer, on behalf of one broker.
//! - **Progress.** With nothing in flight a lane may always send one
//!   request, whatever byte window a broker hinted.
//!
//! The requests thread blocks in one place, the `park_timeout` that ends
//! its loop. A reply unparks it (it issues every produce call, so it is
//! each call's waiter), as do `close`/`abort` and — while some lane is
//! below its in-flight bound — a sealed chunk.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{self, Receiver, Sender};
use kera_common::ids::{NodeId, ProducerId, StreamId};
use kera_common::metrics::{Counter, LatencyHistogram, ThroughputMeter};
use kera_common::rng::SplitMix64;
use kera_common::{KeraError, Result};
use kera_rpc::node::PendingCall;
use kera_rpc::RpcClient;
use kera_wire::chunk::{BufferPool, ChunkBuilder};
use kera_wire::frames::OpCode;
use kera_wire::messages::{ProduceRequest, ProduceResponse, StreamMetadata};
use kera_wire::record::Record;
use parking_lot::{Condvar, Mutex, RwLock};

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
    /// Bound of the sealed-chunk channel, and of the lanes behind it
    /// (backpressure depth).
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
            queue_capacity: 1000,
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

struct StreamRoute {
    metadata: StreamMetadata,
    counter: AtomicU64,
    pending: Vec<Mutex<PendingChunk>>,
}

struct SealedChunk {
    broker: NodeId,
    records: u32,
    bytes: Bytes,
}

struct Shared {
    cfg: ProducerConfig,
    rpc: RpcClient,
    routes: RwLock<HashMap<StreamId, Arc<StreamRoute>>>,
    ready_tx: Sender<SealedChunk>,
    shutdown: AtomicBool,
    /// With `shutdown`: drop queued chunks instead of draining them
    /// (fast teardown for benchmarks; `close()` drains, `Drop` discards).
    discard: AtomicBool,
    /// Chunks sealed but not yet acknowledged; `flush` waits on `drained`
    /// for it to reach 0.
    outstanding: Mutex<u64>,
    drained: Condvar,
    /// Up while the requests thread is parked and a lane has room for a
    /// new chunk: only then does enqueueing one unpark it.
    listening: AtomicBool,
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
    /// `chunks` were acknowledged, failed for good or discarded.
    fn settled(&self, chunks: u64) {
        let mut outstanding = self.outstanding.lock();
        *outstanding -= chunks;
        if *outstanding == 0 {
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
    /// Connects a producer for `streams` (metadata is resolved eagerly).
    pub fn new(
        meta: &MetadataClient,
        streams: &[StreamId],
        cfg: ProducerConfig,
    ) -> Result<Producer> {
        let (ready_tx, ready_rx) = channel::bounded(cfg.queue_capacity.max(1));
        // Enough pooled buffers to cover every pending slot plus a
        // queue's worth of sealed chunks, bounded so an oversized
        // queue_capacity cannot pin unbounded memory.
        let pool = BufferPool::new(cfg.chunk_size, cfg.queue_capacity.clamp(8, 256));
        let mut routes = HashMap::new();
        for &s in streams {
            let md = meta.metadata(s)?;
            routes.insert(s, Arc::new(Self::route_for(&cfg, &pool, md)));
        }
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
            routes: RwLock::new(routes),
            ready_tx,
            shutdown: AtomicBool::new(false),
            discard: AtomicBool::new(false),
            outstanding: Mutex::new(0),
            drained: Condvar::new(),
            listening: AtomicBool::new(false),
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
                .spawn(move || requests_loop(shared, ready_rx))
                .expect("spawn producer requests thread")
        };
        Ok(Producer { shared, requests_thread: Some(requests_thread) })
    }

    fn route_for(cfg: &ProducerConfig, pool: &Arc<BufferPool>, metadata: StreamMetadata) -> StreamRoute {
        let pending = (0..metadata.config.streamlets)
            .map(|sl| {
                Mutex::new(PendingChunk {
                    builder: ChunkBuilder::with_pool(
                        Arc::clone(pool),
                        cfg.id,
                        metadata.config.id,
                        kera_common::ids::StreamletId(sl),
                    ),
                    since: None,
                })
            })
            .collect();
        StreamRoute { metadata, counter: AtomicU64::new(0), pending }
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
        let route = self
            .shared
            .routes
            .read()
            .get(&stream)
            .cloned()
            .ok_or(KeraError::UnknownStream(stream))?;
        let counter = route.counter.fetch_add(1, Ordering::Relaxed);
        let streamlet = self.shared.cfg.partitioner.pick(
            route.metadata.config.streamlets,
            counter,
            record.keys.first().copied(),
        );
        let slot = &route.pending[streamlet.raw() as usize];

        let mut p = slot.lock();
        if p.builder.append(record) {
            if p.since.is_none() {
                p.since = Some(Instant::now());
            }
        } else {
            if p.builder.is_empty() {
                return Err(KeraError::ChunkTooLarge {
                    chunk: record.encoded_len(),
                    segment: self.shared.cfg.chunk_size,
                });
            }
            // Seal the full chunk, rearm the builder, retry.
            let sealed = seal_pending(&self.shared, &route, streamlet.raw(), &mut p)?;
            if !p.builder.append(record) {
                return Err(KeraError::ChunkTooLarge {
                    chunk: record.encoded_len(),
                    segment: self.shared.cfg.chunk_size,
                });
            }
            p.since = Some(Instant::now());
            // Enqueue while still holding the slot lock: queue order must
            // equal per-slot seal order, or a linger-sealed successor can
            // overtake this chunk and invert the slot's record order on
            // the broker. Blocking here is the backpressure path; the
            // linger scan uses try_lock, so the requests thread can never
            // deadlock against a sender parked on a full queue.
            self.enqueue(sealed)?;
        }
        Ok(())
    }

    /// Hands a sealed chunk to the requests thread, and wakes it if it
    /// said a chunk is what it is waiting for.
    fn enqueue(&self, sealed: SealedChunk) -> Result<()> {
        *self.shared.outstanding.lock() += 1;
        self.shared.ready_tx.send(sealed).map_err(|_| KeraError::ShuttingDown)?;
        if self.shared.listening.load(Ordering::SeqCst) {
            if let Some(t) = &self.requests_thread {
                t.thread().unpark();
            }
        }
        Ok(())
    }

    /// Seals all non-empty chunks and blocks until everything queued has
    /// been acknowledged (or failed terminally).
    pub fn flush(&self) -> Result<()> {
        let routes: Vec<Arc<StreamRoute>> = self.shared.routes.read().values().cloned().collect();
        for route in routes {
            for sl in 0..route.metadata.config.streamlets {
                let mut p = route.pending[sl as usize].lock();
                if !p.builder.is_empty() {
                    // Seal + enqueue under the slot lock (see send_record:
                    // queue order must equal per-slot seal order).
                    let sealed = seal_pending(&self.shared, &route, sl, &mut p)?;
                    self.enqueue(sealed)?;
                }
            }
        }
        let mut outstanding = self.shared.outstanding.lock();
        while *outstanding > 0 {
            self.shared.drained.wait(&mut outstanding);
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

/// Seals the slot's chunk (caller holds the slot lock) and rearms the
/// builder. Resolving the broker here keeps the requests thread free of
/// metadata lookups.
fn seal_pending(
    shared: &Shared,
    route: &StreamRoute,
    streamlet: u32,
    p: &mut PendingChunk,
) -> Result<SealedChunk> {
    let records = p.builder.record_count();
    let bytes = p.builder.seal_with_sequence(shared.next_tag.fetch_add(1, Ordering::Relaxed));
    let sl = kera_common::ids::StreamletId(streamlet);
    p.builder.reset(shared.cfg.id, route.metadata.config.id, sl);
    p.since = None;
    let broker = route
        .metadata
        .broker_of(sl)
        .ok_or(KeraError::UnknownStreamlet(route.metadata.config.id, sl))?;
    Ok(SealedChunk { broker, records, bytes })
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

/// Everything the requests thread holds for one broker — the only place
/// a sealed chunk waits once it has left the channel.
struct Lane {
    /// Sealed chunks not yet in a request, in seal order.
    waiting: VecDeque<SealedChunk>,
    /// A request that resolved `Throttled` or with an error and goes out
    /// again before anything from `waiting`.
    resend: Option<Request>,
    /// At most `pipeline` requests, in send order.
    inflight: VecDeque<InFlight>,
    /// Nothing is sent before this instant (throttle pause).
    not_before: Instant,
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
    ready_rx: Receiver<SealedChunk>,
    lanes: HashMap<NodeId, Lane>,
    /// Chunks in all `waiting` queues together, at most `queue_capacity`.
    in_lanes: usize,
    flow: Flow,
}

/// The Requests thread. Each round settles what resolved, takes sealed
/// chunks into their lanes, enforces linger, ships one request per lane
/// that may send, and parks until something can have changed (`park`).
/// Settling is also what sends a call's due retransmission and applies
/// `CALL_TIMEOUT`.
fn requests_loop(shared: Arc<Shared>, ready_rx: Receiver<SealedChunk>) {
    // Linger-scan cadence (the scan walks every slot of every stream).
    let tick = shared.cfg.linger.max(Duration::from_micros(200)) / 2;
    let flow = Flow {
        inflight_bytes: 0,
        window_hint: 0,
        rng: SplitMix64::new(0x5EED_0000 ^ u64::from(shared.cfg.id.raw())),
    };
    let mut t = RequestsThread { shared, ready_rx, lanes: HashMap::new(), in_lanes: 0, flow };
    let mut next_linger_scan = Instant::now() + tick;
    loop {
        for lane in t.lanes.values_mut() {
            t.flow.reap_lane(&t.shared, lane);
        }
        t.shared.export_pool_stats();
        let stopping = t.shared.shutdown.load(Ordering::SeqCst);
        if stopping && t.shared.discard.load(Ordering::SeqCst) {
            t.discard_unsent();
        }
        if stopping && *t.shared.outstanding.lock() == 0 {
            return;
        }
        t.take_ready();
        if Instant::now() >= next_linger_scan {
            // A stopped producer has no partial chunk worth sealing:
            // `close` flushed them, `abort` gives them up.
            if !stopping {
                t.scan_linger();
            }
            next_linger_scan = Instant::now() + tick;
        }
        t.ship();
        t.park(next_linger_scan);
    }
}

impl RequestsThread {
    fn capacity(&self) -> usize {
        self.shared.cfg.queue_capacity.max(1)
    }

    fn enlane(&mut self, c: SealedChunk) {
        let lane = self.lanes.entry(c.broker).or_insert_with(|| Lane {
            waiting: VecDeque::new(),
            resend: None,
            inflight: VecDeque::new(),
            not_before: Instant::now(),
        });
        lane.waiting.push_back(c);
        self.in_lanes += 1;
    }

    /// Moves sealed chunks from the channel into their lanes, up to the
    /// bound; what stays in the channel is what back-pressures `send`.
    fn take_ready(&mut self) {
        while self.in_lanes < self.capacity() {
            let Ok(c) = self.ready_rx.try_recv() else { break };
            self.enlane(c);
        }
    }

    /// Seals chunks whose linger expired, straight into their lanes.
    fn scan_linger(&mut self) {
        let shared = Arc::clone(&self.shared);
        let routes: Vec<Arc<StreamRoute>> = shared.routes.read().values().cloned().collect();
        for route in routes {
            for sl in 0..route.metadata.config.streamlets {
                // try_lock: a held lock is a source thread inside its
                // seal+enqueue critical section (possibly parked on a full
                // channel that only this thread drains) — skip the slot
                // and catch it on the next scan instead of deadlocking.
                let Some(mut p) = route.pending[sl as usize].try_lock() else { continue };
                let expired = p.since.is_some_and(|s| s.elapsed() >= shared.cfg.linger);
                if !expired || p.builder.is_empty() {
                    continue;
                }
                // Under the slot lock every earlier chunk of the slot is
                // in its lane or in the channel; take the channel first.
                self.take_ready();
                if self.in_lanes >= self.capacity() {
                    return;
                }
                if let Ok(sealed) = seal_pending(&shared, &route, sl, &mut p) {
                    *shared.outstanding.lock() += 1;
                    self.enlane(sealed);
                }
            }
        }
    }

    /// Puts on the wire what each lane may send now: its `resend`, else
    /// a new request if fewer than `pipeline` are in flight.
    fn ship(&mut self) {
        let Self { shared, lanes, in_lanes, flow, .. } = self;
        let now = Instant::now();
        for (&broker, lane) in lanes.iter_mut() {
            if now < lane.not_before {
                continue;
            }
            let req = match lane.resend.take() {
                Some(req) => req,
                None if lane.inflight.len() >= shared.cfg.pipeline.max(1) => continue,
                None => match flow.pack(shared, &mut lane.waiting, now) {
                    Some(req) => {
                        *in_lanes -= req.chunks as usize;
                        req
                    }
                    None => continue,
                },
            };
            flow.inflight_bytes += req.chunk_bytes;
            // lint: allow(no-hot-copy) — refcount clone; a re-send keeps the other handle
            let call = shared.rpc.call_async(broker, OpCode::Produce, req.payload.clone());
            lane.inflight.push_back(InFlight { req, call, sent: now });
        }
    }

    /// The thread's one blocking point. While some lane is below its
    /// in-flight bound, a sealed chunk is worth an unpark (`listening`)
    /// and the next linger scan a wake-up. With every lane on the wire
    /// neither is — a chunk sealed now would only wait in its lane,
    /// smaller — so a saturated producer sleeps from reply to reply
    /// however fast its source seals. The end of a pause always is.
    fn park(&self, linger_scan: Instant) {
        let now = Instant::now();
        let bound = self.shared.cfg.pipeline.max(1);
        let idle_lane =
            self.lanes.is_empty() || self.lanes.values().any(|l| l.inflight.len() < bound);
        let wake = self
            .lanes
            .values()
            .map(|l| l.not_before)
            .filter(|&pause_ends| pause_ends > now)
            .fold(if idle_lane { linger_scan } else { now + crate::TIMER_CHECK }, Instant::min);
        let listening = idle_lane && self.in_lanes < self.capacity();
        self.shared.listening.store(listening, Ordering::SeqCst);
        // A chunk enqueued before the flag went up was not announced.
        if !listening || self.ready_rx.is_empty() {
            std::thread::park_timeout(wake.saturating_duration_since(now));
        }
        self.shared.listening.store(false, Ordering::SeqCst);
    }

    /// Fast teardown: drops everything not on the wire (what is, the loop
    /// waits out; `settle` re-sends nothing).
    fn discard_unsent(&mut self) {
        let mut dropped = 0;
        for lane in self.lanes.values_mut() {
            dropped += lane.waiting.drain(..).count() as u64
                + lane.resend.take().map_or(0, |req| u64::from(req.chunks));
        }
        self.in_lanes = 0;
        while self.ready_rx.try_recv().is_ok() {
            dropped += 1;
        }
        self.shared.settled(dropped);
    }
}

impl Flow {
    /// Packs the longest prefix of `waiting` that fits `request_max_bytes`
    /// and the hinted byte window into one request. With nothing on the
    /// wire the first chunk always fits: a hint smaller than a chunk
    /// must slow the producer down, not wedge it.
    fn pack(
        &self,
        shared: &Shared,
        waiting: &mut VecDeque<SealedChunk>,
        now: Instant,
    ) -> Option<Request> {
        let mut chunks: Vec<Bytes> = Vec::new();
        let (mut bytes, mut records) = (0usize, 0u32);
        while let Some(c) = waiting.front() {
            let total = bytes + c.bytes.len();
            let on_wire = self.inflight_bytes + total as u64;
            let first_of_all = self.inflight_bytes == 0 && chunks.is_empty();
            if (!chunks.is_empty() && total > shared.cfg.request_max_bytes)
                || (self.window_hint > 0 && on_wire > self.window_hint && !first_of_all)
            {
                break;
            }
            bytes = total;
            records += c.records;
            chunks.extend(waiting.pop_front().map(|c| c.bytes));
        }
        if chunks.is_empty() {
            return None;
        }
        // Chunks are collected as shared slices — the single copy into a
        // contiguous request body happens here; the buffers then return
        // to the pool for the builders to reuse.
        let payload = ProduceRequest::encode_chunks(shared.cfg.id, false, &chunks);
        let count = chunks.len() as u32;
        for c in chunks {
            shared.pool.release(c);
        }
        Some(Request {
            payload,
            chunk_bytes: bytes as u64,
            chunks: count,
            records,
            started: now,
            retries: 0,
            throttle_retries: 0,
        })
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
        let aborting =
            shared.shutdown.load(Ordering::SeqCst) && shared.discard.load(Ordering::SeqCst);
        let again = match &result {
            Ok(_) => false,
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
            Ok(payload) => {
                debug_assert!(ProduceResponse::decode(&payload)
                    .map_or(true, |resp| resp.acks.len() as u32 == req.chunks));
                shared.acked.record(u64::from(req.records), req.chunk_bytes);
                shared.request_latency.record(req.started.elapsed());
            }
            Err(_) => shared.failed_requests.inc(),
        }
        shared.settled(u64::from(req.chunks));
    }
}
