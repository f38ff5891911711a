//! The producer client (paper Fig. 6).
//!
//! "Each producer implements two threads that communicate through shared
//! memory": the *Source* thread (the caller of [`Producer::send`])
//! appends records to per-streamlet chunk buffers; the *Requests* thread
//! gathers filled chunks — or chunks older than the linger timeout — into
//! one request per broker and pushes them over parallel synchronous RPCs.
//! Sealed chunks flow through a bounded queue, so a fast source is
//! back-pressured by the cluster exactly like a fixed chunk pool would.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{self, Receiver, Sender};
use kera_common::ids::{NodeId, ProducerId, StreamId};
use kera_common::metrics::{Counter, LatencyHistogram, ThroughputMeter};
use kera_common::rng::SplitMix64;
use kera_common::{KeraError, Result};
use kera_rpc::RpcClient;
use kera_wire::chunk::{BufferPool, ChunkBuilder};
use kera_wire::frames::OpCode;
use kera_wire::messages::{ProduceRequest, ProduceResponse, StreamMetadata};
use kera_wire::record::Record;
use parking_lot::{Mutex, RwLock};

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
    pub call_timeout: Duration,
    pub partitioner: Partitioner,
    /// Bound of the sealed-chunk queue (backpressure depth).
    pub queue_capacity: usize,
    /// Produce retries before giving up on a request.
    pub max_retries: u32,
    /// Outstanding requests per broker ("the number of parallel producer
    /// requests", paper §II-B). 1 = one synchronous request per broker,
    /// the paper's evaluation setting.
    pub pipeline: usize,
    /// Cap on bytes in flight across all brokers (`0` = unbounded, the
    /// pre-quota behaviour). A broker `window_hint` tightens this
    /// further at runtime.
    pub window_bytes: usize,
    /// Cap on requests in flight across all brokers (`0` = unbounded).
    pub window_requests: usize,
    /// Honor broker `Throttled { retry_after, .. }` hints with jittered
    /// backoff (polite mode, the default). `false` treats throttles
    /// like any other error — immediate retries, no pacing — which is
    /// exactly what an abusive client does; chaos drills flip this.
    pub honor_throttle: bool,
}

impl Default for ProducerConfig {
    fn default() -> Self {
        Self {
            id: ProducerId(0),
            chunk_size: 16 * 1024,
            request_max_bytes: 1 << 20,
            linger: Duration::from_millis(1),
            call_timeout: Duration::from_secs(10),
            partitioner: Partitioner::RoundRobin,
            queue_capacity: 1000,
            max_retries: 3,
            pipeline: 1,
            window_bytes: 0,
            window_requests: 0,
            honor_throttle: true,
        }
    }
}

/// In-flight window accounting plus broker throttle state, shared by
/// the requests thread (grouping/sending) and `complete` (release and
/// throttle bookkeeping). Guarded by the `client.window` lock class;
/// never held across an RPC.
struct WindowState {
    /// Bytes of requests on the wire (request bodies).
    inflight_bytes: u64,
    /// Requests on the wire.
    inflight_requests: u32,
    /// Latest broker-suggested window (`0` = no suggestion yet); the
    /// effective byte window is the tighter of this and `window_bytes`.
    hint_bytes: u64,
    /// Brokers to leave alone until the given instant (throttle pauses).
    throttle_until: HashMap<NodeId, Instant>,
    /// SplitMix64 state for backoff jitter (deterministic per producer).
    rng: SplitMix64,
}

impl WindowState {
    /// Next jitter draw in `[0, bound)` (`ZERO` if `bound` is zero).
    fn jitter(&mut self, bound: Duration) -> Duration {
        let z = self.rng.next_u64();
        let nanos = bound.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(z % nanos)
    }
}

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
    /// Chunks sealed but not yet acknowledged (flush barrier).
    outstanding: AtomicU64,
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
    /// In-flight window + throttle pacing (lock class `client.window`).
    window: Mutex<WindowState>,
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
        let window = Mutex::named("client.window", WindowState {
            inflight_bytes: 0,
            inflight_requests: 0,
            hint_bytes: 0,
            throttle_until: HashMap::new(),
            rng: SplitMix64::new(0x5EED_0000 ^ u64::from(cfg.id.raw())),
        });
        let shared = Arc::new(Shared {
            cfg,
            rpc,
            routes: RwLock::new(routes),
            ready_tx,
            shutdown: AtomicBool::new(false),
            discard: AtomicBool::new(false),
            outstanding: AtomicU64::new(0),
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
            window,
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
            self.shared.outstanding.fetch_add(1, Ordering::AcqRel);
            self.shared
                .ready_tx
                .send(sealed)
                .map_err(|_| KeraError::ShuttingDown)?;
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
                    self.shared.outstanding.fetch_add(1, Ordering::AcqRel);
                    self.shared.ready_tx.send(sealed).map_err(|_| KeraError::ShuttingDown)?;
                }
            }
        }
        while self.shared.outstanding.load(Ordering::Acquire) > 0 {
            if self.shared.shutdown.load(Ordering::Relaxed) {
                return Err(KeraError::ShuttingDown);
            }
            std::thread::sleep(Duration::from_micros(200));
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

/// The Requests thread: drains sealed chunks, enforces the linger
/// timeout, groups chunks into one request per broker and keeps up to
/// `pipeline` requests in flight per broker.
fn requests_loop(shared: Arc<Shared>, ready_rx: Receiver<SealedChunk>) {
    // Chunks carried over because their broker was at its pipeline limit
    // or its request was full.
    let mut backlog: Vec<SealedChunk> = Vec::new();
    // FIFO of in-flight requests per broker.
    let mut inflight: HashMap<NodeId, std::collections::VecDeque<InFlight>> = HashMap::new();
    // The linger scan walks every pending slot; rate-limit it.
    let mut last_linger_scan = Instant::now();
    loop {
        // Reap whatever completed without blocking.
        reap(&shared, &mut inflight, false);
        shared.export_pool_stats();

        if shared.shutdown.load(Ordering::SeqCst) {
            if shared.discard.load(Ordering::SeqCst) {
                // Fast teardown: wait out what is already on the wire,
                // drop everything still queued.
                reap(&shared, &mut inflight, true);
                let mut dropped = backlog.len() as u64;
                while ready_rx.try_recv().is_ok() {
                    dropped += 1;
                }
                shared.outstanding.fetch_sub(dropped, Ordering::AcqRel);
                return;
            }
            if backlog.is_empty()
                && ready_rx.is_empty()
                && inflight.values().all(|q| q.is_empty())
                && shared.outstanding.load(Ordering::Acquire) == 0
            {
                return;
            }
        }

        let mut batch = std::mem::take(&mut backlog);
        while let Ok(c) = ready_rx.try_recv() {
            batch.push(c);
        }
        // Enforce linger on idle chunks (at most every linger/2: the
        // scan walks every pending slot of every stream).
        let scan_interval = shared.cfg.linger.max(Duration::from_micros(200)) / 2;
        if last_linger_scan.elapsed() >= scan_interval {
            scan_linger(&shared, &ready_rx, &mut batch);
            last_linger_scan = Instant::now();
        }

        // Window snapshot for this round: how many bytes/requests may
        // still go on the wire, and which brokers asked to be left
        // alone. The lock is released before any RPC work.
        let now = Instant::now();
        let (mut byte_budget, mut req_budget, paused) = {
            let mut w = shared.window.lock();
            w.throttle_until.retain(|_, until| *until > now);
            let paused: Vec<NodeId> = w.throttle_until.keys().copied().collect();
            let cfg_window = shared.cfg.window_bytes as u64;
            let eff = match (cfg_window, w.hint_bytes) {
                (0, 0) => None,
                (0, h) => Some(h),
                (b, 0) => Some(b),
                (b, h) => Some(b.min(h)),
            };
            let byte_budget = eff.map(|e| e.saturating_sub(w.inflight_bytes));
            let req_budget = match shared.cfg.window_requests as u32 {
                0 => None,
                r => Some(r.saturating_sub(w.inflight_requests)),
            };
            (byte_budget, req_budget, paused)
        };

        // Group into one request per broker, respecting request_max_bytes,
        // the pipeline bound and the in-flight window; overflow returns
        // to the backlog. Chunks are collected as shared slices — the
        // single copy into a contiguous request body happens at encode.
        let mut per_broker: HashMap<NodeId, (Vec<Bytes>, usize, u32, u32)> = HashMap::new();
        // Brokers with a chunk already sent back to the backlog this
        // round. Once one chunk for a broker is held back, every later
        // chunk for it must be held back too: a smaller (linger-sealed)
        // successor slipping into the request ahead of a full chunk of
        // the same slot would invert the slot's record order on the
        // broker.
        let mut held: Vec<NodeId> = Vec::new();
        let pipeline = shared.cfg.pipeline.max(1);
        for c in batch {
            if paused.contains(&c.broker) || held.contains(&c.broker) {
                backlog.push(c);
                continue;
            }
            if inflight.get(&c.broker).map(|q| q.len()).unwrap_or(0) >= pipeline
                && !per_broker.contains_key(&c.broker)
            {
                held.push(c.broker);
                backlog.push(c);
                continue;
            }
            if byte_budget.is_some_and(|b| (c.bytes.len() as u64) > b)
                || (!per_broker.contains_key(&c.broker) && req_budget == Some(0))
            {
                held.push(c.broker);
                backlog.push(c);
                continue;
            }
            let fresh_entry = !per_broker.contains_key(&c.broker);
            let entry =
                per_broker.entry(c.broker).or_insert_with(|| (Vec::new(), 0, 0, 0));
            if entry.2 > 0 && entry.1 + c.bytes.len() > shared.cfg.request_max_bytes {
                held.push(c.broker);
                backlog.push(c);
                continue;
            }
            if let Some(b) = byte_budget.as_mut() {
                *b -= c.bytes.len() as u64;
            }
            if fresh_entry {
                if let Some(r) = req_budget.as_mut() {
                    *r -= 1;
                }
            }
            entry.1 += c.bytes.len();
            entry.0.push(c.bytes);
            entry.2 += 1;
            entry.3 += c.records;
        }

        let sent_any = !per_broker.is_empty();
        let pipeline_one = pipeline == 1;
        for (broker, (chunks, chunk_bytes, chunk_count, records)) in per_broker {
            let payload = ProduceRequest::encode_chunks(shared.cfg.id, false, &chunks);
            // The sealed chunk buffers have been packed into the request
            // body; hand them back to the pool for the builders to reuse.
            for c in chunks {
                shared.pool.release(c);
            }
            {
                let mut w = shared.window.lock();
                w.inflight_bytes += chunk_bytes as u64;
                w.inflight_requests += 1;
            }
            // lint: allow(no-hot-copy) — refcount clone; retry keeps the other handle
            let call = shared.rpc.call_async(broker, OpCode::Produce, payload.clone());
            inflight.entry(broker).or_default().push_back(InFlight {
                call,
                payload,
                chunk_bytes: chunk_bytes as u64,
                broker,
                chunks: chunk_count,
                records,
                started: Instant::now(),
            });
        }

        if sent_any && pipeline_one {
            // The paper's mode: one synchronous request per broker —
            // block until every in-flight request resolves (group
            // commit on the broker consolidates whatever queues up
            // meanwhile). This keeps the requests thread cold between
            // rounds instead of polling.
            reap(&shared, &mut inflight, true);
        } else if !sent_any {
            let window = shared.cfg.linger.max(Duration::from_micros(200)) / 2;
            // Nothing new could be shipped. If requests are in flight,
            // block on the *oldest* one — its completion is what unblocks
            // the next send (pipeline = 1 is the paper's mode, so this is
            // the common path under load). Otherwise wait for new chunks.
            let oldest = inflight
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .min_by_key(|(_, q)| q.front().unwrap().started)
                .map(|(&b, _)| b);
            match oldest {
                Some(broker) => {
                    let q = inflight.get_mut(&broker).unwrap();
                    let front = q.front_mut().unwrap();
                    if let Some(result) = front.call.poll_wait(window) {
                        let inf = q.pop_front().unwrap();
                        complete(&shared, inf, result);
                    }
                }
                None => match ready_rx.recv_timeout(window) {
                    Ok(c) => backlog.push(c), // processed on the next round
                    Err(channel::RecvTimeoutError::Timeout) => {}
                    Err(channel::RecvTimeoutError::Disconnected) => return,
                },
            }
        }
    }
}

/// One produce request on the wire.
struct InFlight {
    call: kera_rpc::node::PendingCall,
    /// The encoded request body, retained verbatim for retries (dedup
    /// tags make re-sends exactly-once on the broker).
    payload: Bytes,
    /// Chunk bytes inside the request (window accounting).
    chunk_bytes: u64,
    broker: NodeId,
    chunks: u32,
    records: u32,
    started: Instant,
}

/// Completes finished requests (front-of-queue order per broker). With
/// `block`, waits for every in-flight request to resolve.
fn reap(shared: &Shared, inflight: &mut HashMap<NodeId, std::collections::VecDeque<InFlight>>, block: bool) {
    for queue in inflight.values_mut() {
        while let Some(front) = queue.front() {
            if !block && !front.call.is_ready() {
                break;
            }
            let mut inf = queue.pop_front().unwrap();
            let result = inf
                .call
                .poll_wait(shared.cfg.call_timeout)
                .unwrap_or(Err(KeraError::Timeout { op: "produce" }));
            complete(shared, inf, result);
        }
    }
}

/// Upper bound on honored throttle retries per request: at the broker's
/// maximum retry hint this is tens of seconds of cooperation before the
/// request is declared failed.
const MAX_THROTTLE_RETRIES: u32 = 64;

/// Applies one resolved request: retries on failure (honoring broker
/// throttle hints with jittered backoff in polite mode), records
/// metrics, releases the window and the flush barrier.
fn complete(shared: &Shared, inf: InFlight, mut result: Result<Bytes>) {
    let mut attempts = 0;
    let mut throttle_retries = 0;
    loop {
        let aborting =
            shared.shutdown.load(Ordering::SeqCst) && shared.discard.load(Ordering::SeqCst);
        let again = match &result {
            Ok(_) => false,
            // A hard refusal: the broker is out of admission memory or
            // has evicted this session. Hammering it with immediate
            // retries is exactly what admission control punishes.
            Err(KeraError::Rejected { .. }) => false,
            Err(KeraError::Throttled { retry_after, window_hint })
                if shared.cfg.honor_throttle =>
            {
                if aborting || throttle_retries >= MAX_THROTTLE_RETRIES {
                    false
                } else {
                    throttle_retries += 1;
                    shared.throttled.inc();
                    // Record the hint, pause this broker for new sends,
                    // and sleep retry_after plus jitter before the
                    // retry (dedup tags make it exactly-once).
                    let pause = {
                        let mut w = shared.window.lock();
                        if *window_hint > 0 {
                            w.hint_bytes = *window_hint;
                        }
                        let jitter = w.jitter(*retry_after / 2 + Duration::from_micros(100));
                        let pause = *retry_after + jitter;
                        w.throttle_until.insert(inf.broker, Instant::now() + pause);
                        pause
                    };
                    std::thread::sleep(pause);
                    true
                }
            }
            Err(_) => {
                // Blind same-payload retry (throttles land here too for
                // abusive `honor_throttle = false` clients).
                if aborting || attempts >= shared.cfg.max_retries {
                    false
                } else {
                    attempts += 1;
                    true
                }
            }
        };
        if !again {
            break;
        }
        // Chunk sequence tags make retries exactly-once on the broker
        // side (per-slot replay caches); re-send verbatim.
        result = shared.rpc.call(
            inf.broker,
            OpCode::Produce,
            // lint: allow(no-hot-copy) — refcount clone for the retransmit
            inf.payload.clone(),
            shared.cfg.call_timeout,
        );
    }
    match result {
        Ok(payload) => {
            if let Ok(resp) = ProduceResponse::decode(&payload) {
                debug_assert_eq!(resp.acks.len() as u32, inf.chunks);
            }
            shared.acked.record(u64::from(inf.records), inf.chunk_bytes);
            shared.request_latency.record(inf.started.elapsed());
        }
        Err(_) => {
            shared.failed_requests.inc();
        }
    }
    {
        let mut w = shared.window.lock();
        w.inflight_bytes = w.inflight_bytes.saturating_sub(inf.chunk_bytes);
        w.inflight_requests = w.inflight_requests.saturating_sub(1);
    }
    shared.outstanding.fetch_sub(u64::from(inf.chunks), Ordering::AcqRel);
}

/// Seals chunks whose linger expired (requests thread only).
///
/// Linger-sealed chunks bypass the ready queue and enter `batch`
/// directly, so ordering needs care: a slot's earlier chunks may still
/// be in the queue (enqueued after this round's drain). Holding the slot
/// lock while draining the queue *before* sealing restores the
/// invariant — seal+enqueue is atomic under the slot lock on the source
/// side, so once the lock is held, every earlier chunk of the slot is
/// either already in `batch` or picked up by the drain below, and the
/// linger chunk lands strictly after all of them.
fn scan_linger(shared: &Shared, ready_rx: &Receiver<SealedChunk>, batch: &mut Vec<SealedChunk>) {
    let routes: Vec<Arc<StreamRoute>> = shared.routes.read().values().cloned().collect();
    for route in routes {
        for sl in 0..route.metadata.config.streamlets {
            // try_lock: a held lock is a source thread inside its
            // seal+enqueue critical section (possibly parked on a full
            // queue that only this thread drains) — skip the slot and
            // catch it on the next scan instead of risking a deadlock.
            let Some(mut p) = route.pending[sl as usize].try_lock() else {
                continue;
            };
            let expired = p
                .since
                .map(|s| s.elapsed() >= shared.cfg.linger)
                .unwrap_or(false);
            if expired && !p.builder.is_empty() {
                while let Ok(c) = ready_rx.try_recv() {
                    batch.push(c);
                }
                if let Ok(sealed) = seal_pending(shared, &route, sl, &mut p) {
                    shared.outstanding.fetch_add(1, Ordering::AcqRel);
                    batch.push(sealed);
                }
            }
        }
    }
}
