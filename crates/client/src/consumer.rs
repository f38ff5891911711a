//! The consumer client (paper Fig. 7).
//!
//! "The Requests thread builds one request for each broker and pulls one
//! chunk for each streamlet associated to the consumer. The Source thread
//! consumes in-order one chunk per streamlet: it iterates the chunk and
//! creates records." The chunk cache between the two threads is bounded
//! ("each client has a cache of up to 1000 chunks"), so a slow source
//! back-pressures fetching.
//!
//! The requests thread has the producer's shape (`producer.rs`): one
//! [`Lane`] per broker — the slots it fetches there, at most one fetch on
//! the wire, a `not_before` — and a loop that settles every lane whose
//! reply has landed, asks again on every lane that may, and parks.
//!
//! - **Order.** A slot belongs to one lane and a lane has one fetch in
//!   flight, so a slot's batches enter the cache in cursor order.
//! - **Isolation.** A lane asks again as soon as *its* reply is applied,
//!   and "nothing new" and an error pause that lane alone: a broker that
//!   answers late, refuses or is gone holds back its own slots and
//!   nobody else's.
//!
//! The thread blocks in two places: the park that ends its loop — a
//! call's end unparks it (it issues every fetch, so it is each call's
//! waiter), as does `close` — and the push into the full cache, which is
//! the back-pressure.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{self, Receiver, Sender};
use kera_common::ids::{ConsumerId, NodeId, StreamId, StreamletId};
use kera_common::metrics::ThroughputMeter;
use kera_common::{KeraError, Result};
use kera_rpc::node::PendingCall;
use kera_rpc::RpcClient;
use kera_wire::chunk::{ChunkIter, ChunkView};
use kera_wire::cursor::SlotCursor;
use kera_wire::frames::OpCode;
use kera_wire::messages::{FetchEntry, FetchRequest, FetchResponse};
use kera_wire::record::RecordView;

use crate::metadata::MetadataClient;

/// Consumer configuration.
#[derive(Clone, Debug)]
pub struct ConsumerConfig {
    pub id: ConsumerId,
    /// Max bytes pulled per (streamlet, slot) per request — the paper
    /// pulls "up to one chunk per stream/partition", so set this to the
    /// producer's chunk size for paper-faithful runs.
    pub fetch_max_bytes: u32,
    /// Bound of the chunk cache between the two threads.
    pub cache_capacity: usize,
}

/// A lane's pause after a reply without data (caught up at that broker).
const IDLE_BACKOFF: Duration = Duration::from_micros(200);

/// A lane's pause after a fetch that failed, or whose reply was refused.
const ERROR_BACKOFF: Duration = Duration::from_millis(10);

impl Default for ConsumerConfig {
    fn default() -> Self {
        Self {
            id: ConsumerId(0),
            fetch_max_bytes: 16 * 1024,
            cache_capacity: 1000,
        }
    }
}

/// A saved consumption position (see [`Consumer::positions`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CursorPosition {
    pub stream: StreamId,
    pub streamlet: StreamletId,
    pub slot: u32,
    pub cursor: SlotCursor,
}

/// What the consumer subscribes to.
#[derive(Clone, Debug)]
pub struct Subscription {
    pub stream: StreamId,
    /// `None` = all streamlets of the stream.
    pub streamlets: Option<Vec<StreamletId>>,
    /// Starting positions ("consumers can read at any offset", paper
    /// §I). Slots without an entry start at the beginning.
    pub start: Vec<CursorPosition>,
}

impl Subscription {
    pub fn whole_stream(stream: StreamId) -> Self {
        Self { stream, streamlets: None, start: Vec::new() }
    }

    /// Subscribes to a whole stream starting every slot at logical
    /// record offset `record_offset` ("consumers can read at any
    /// offset"): each slot's cursor is resolved through the brokers'
    /// lightweight offset indexes.
    pub fn from_offset(
        meta: &MetadataClient,
        stream: StreamId,
        record_offset: u64,
    ) -> Result<Subscription> {
        let md = meta.metadata(stream)?;
        let mut start = Vec::new();
        for sl in 0..md.config.streamlets {
            let streamlet = StreamletId(sl);
            let broker = md
                .broker_of(streamlet)
                .ok_or(KeraError::UnknownStreamlet(stream, streamlet))?;
            for slot in 0..md.config.active_groups {
                let req = kera_wire::messages::SeekRequest {
                    stream,
                    streamlet,
                    slot,
                    record_offset,
                };
                let payload =
                    meta.rpc().call(broker, OpCode::Seek, req.encode(), crate::CALL_TIMEOUT)?;
                let resp = kera_wire::messages::SeekResponse::decode(&payload)?;
                if resp.found {
                    start.push(CursorPosition { stream, streamlet, slot, cursor: resp.cursor });
                }
            }
        }
        Ok(Self { stream, streamlets: None, start })
    }

    /// Resumes a stream from positions previously saved with
    /// [`Consumer::positions`].
    pub fn resume(stream: StreamId, positions: Vec<CursorPosition>) -> Self {
        Self { stream, streamlets: None, start: positions }
    }
}

/// One cache entry: data fetched for one (streamlet, slot) — possibly
/// several chunks packed back-to-back.
#[derive(Clone, Debug)]
pub struct FetchedBatch {
    pub stream: StreamId,
    pub streamlet: StreamletId,
    pub slot: u32,
    pub data: Bytes,
}

impl FetchedBatch {
    /// Iterates the chunks in this batch.
    pub fn chunks(&self) -> ChunkIter<'_> {
        ChunkIter::new(&self.data)
    }

    /// Counts records, validating chunk framing.
    pub fn record_count(&self) -> Result<u64> {
        let mut n = 0;
        for chunk in self.chunks() {
            n += u64::from(chunk?.header().record_count);
        }
        Ok(n)
    }

    /// Visits every record in order.
    pub fn for_each_record(
        &self,
        mut f: impl FnMut(&ChunkView<'_>, RecordView<'_>),
    ) -> Result<()> {
        for chunk in self.chunks() {
            let chunk = chunk?;
            for rec in chunk.records() {
                f(&chunk, rec?);
            }
        }
        Ok(())
    }
}

/// A consumer client.
pub struct Consumer {
    /// The chunk cache's reading end; gone once the consumer is stopped.
    cache_rx: Option<Receiver<FetchedBatch>>,
    shared: Arc<Shared>,
    requests_thread: Option<std::thread::JoinHandle<()>>,
    /// Records consumed (counted by [`Consumer::poll_count`]).
    consumed: ThroughputMeter,
}

struct Shared {
    cfg: ConsumerConfig,
    rpc: RpcClient,
    /// Every subscribed slot's fetch cursor; a lane advances its own.
    positions: parking_lot::Mutex<Vec<CursorPosition>>,
    shutdown: AtomicBool,
}

/// Everything the requests thread holds for one broker.
struct Lane {
    /// Indices into `Shared::positions` of the slots fetched here, in
    /// the order every request lists them.
    slots: Vec<usize>,
    /// The fetch on the wire.
    inflight: Option<PendingCall>,
    /// No fetch is sent before this instant.
    not_before: Instant,
}

impl Consumer {
    pub fn new(
        meta: &MetadataClient,
        subscriptions: &[Subscription],
        cfg: ConsumerConfig,
    ) -> Result<Consumer> {
        let mut positions = Vec::new();
        let mut lanes: HashMap<NodeId, Lane> = HashMap::new();
        for sub in subscriptions {
            let md = meta.metadata(sub.stream)?;
            let streamlets: Vec<StreamletId> = match &sub.streamlets {
                Some(list) => list.clone(),
                None => (0..md.config.streamlets).map(StreamletId).collect(),
            };
            for sl in streamlets {
                let broker = md
                    .broker_of(sl)
                    .ok_or(KeraError::UnknownStreamlet(sub.stream, sl))?;
                let lane = lanes.entry(broker).or_insert_with(|| Lane {
                    slots: Vec::new(),
                    inflight: None,
                    not_before: Instant::now(),
                });
                for slot in 0..md.config.active_groups {
                    let cursor = sub
                        .start
                        .iter()
                        .find(|p| p.streamlet == sl && p.slot == slot)
                        .map(|p| p.cursor)
                        .unwrap_or(SlotCursor::START);
                    lane.slots.push(positions.len());
                    positions.push(CursorPosition { stream: sub.stream, streamlet: sl, slot, cursor });
                }
            }
        }
        let (cache_tx, cache_rx) = channel::bounded(cfg.cache_capacity.max(1));
        let shared = Arc::new(Shared {
            cfg,
            rpc: meta.rpc().clone(),
            positions: parking_lot::Mutex::named("client.positions", positions),
            shutdown: AtomicBool::new(false),
        });
        let requests_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("consumer-req-{}", shared.cfg.id.raw()))
                .spawn(move || requests_loop(&shared, lanes, cache_tx))
                .expect("spawn consumer requests thread")
        };
        Ok(Consumer {
            cache_rx: Some(cache_rx),
            shared,
            requests_thread: Some(requests_thread),
            consumed: ThroughputMeter::new(),
        })
    }

    /// Pops the next fetched batch from the cache (Source-thread side).
    pub fn next_batch(&self, timeout: Duration) -> Option<FetchedBatch> {
        self.cache_rx.as_ref()?.recv_timeout(timeout).ok()
    }

    /// Pops a batch, iterates its records (creating record views exactly
    /// like the paper's source thread does), counts them into the
    /// consumer meter and returns the count. `Ok(0)` means caught up.
    pub fn poll_count(&self, timeout: Duration) -> Result<u64> {
        let Some(batch) = self.next_batch(timeout) else { return Ok(0) };
        let mut records = 0u64;
        batch.for_each_record(|_, _| records += 1)?;
        self.consumed.record(records, batch.data.len() as u64);
        Ok(records)
    }

    /// Records consumed per second (windowed; the harness reads this).
    pub fn metrics(&self) -> &ThroughputMeter {
        &self.consumed
    }

    /// Snapshot of the *fetch* positions. Note: positions reflect what
    /// has been fetched into the cache, not what [`Consumer::poll_count`]
    /// has consumed — drain the cache before saving positions for an
    /// exactly-once resume.
    pub fn positions(&self) -> Vec<CursorPosition> {
        self.shared.positions.lock().clone()
    }

    pub fn close(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // With the cache's receiver gone a requests thread blocked on a
        // full cache, now or later, fails its push and exits.
        self.cache_rx = None;
        if let Some(t) = self.requests_thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

impl Drop for Consumer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The Requests thread. Each round settles the lanes whose reply has
/// landed, sends a fetch on every lane that has none on the wire and is
/// not paused, and parks until a call ends or a pause does.
fn requests_loop(
    shared: &Shared,
    mut lanes: HashMap<NodeId, Lane>,
    cache_tx: Sender<FetchedBatch>,
) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        for lane in lanes.values_mut() {
            let Some(result) = lane.inflight.as_mut().and_then(PendingCall::poll) else { continue };
            lane.inflight = None;
            let Some(pause) = lane.settle(shared, &cache_tx, result) else { return };
            lane.not_before = Instant::now() + pause;
        }
        let now = Instant::now();
        for (&broker, lane) in &mut lanes {
            if lane.inflight.is_none() && now >= lane.not_before {
                let fetch = lane.request(shared);
                lane.inflight =
                    Some(shared.rpc.call_async(broker, OpCode::Fetch, fetch, crate::CALL_TIMEOUT));
            }
        }
        // The one park: until the first pause of an idle lane ends; with
        // every lane on the wire only a call's end or `stop` is left.
        let idle = lanes.values().filter(|l| l.inflight.is_none());
        match idle.map(|l| l.not_before).min() {
            Some(wake) => std::thread::park_timeout(wake.saturating_duration_since(Instant::now())),
            None => std::thread::park(),
        }
    }
}

impl Lane {
    /// One entry per slot at its current cursor.
    fn request(&self, shared: &Shared) -> Bytes {
        let positions = shared.positions.lock();
        let entries = self.slots.iter().map(|&i| {
            let CursorPosition { stream, streamlet, slot, cursor } = positions[i];
            FetchEntry { stream, streamlet, slot, cursor, max_bytes: shared.cfg.fetch_max_bytes }
        });
        FetchRequest { consumer: shared.cfg.id, entries: entries.collect() }.encode()
    }

    /// Applies one resolved fetch and says how long the lane rests before
    /// the next; `None` once the cache is closed.
    fn settle(
        &self,
        shared: &Shared,
        cache_tx: &Sender<FetchedBatch>,
        result: Result<Bytes>,
    ) -> Option<Duration> {
        // Sliced decode: each result's data stays a view of the receive
        // buffer all the way into the consumer cache.
        let resp = match result.and_then(|payload| FetchResponse::decode_bytes(&payload)) {
            Ok(resp) => resp,
            Err(_) => return Some(ERROR_BACKOFF),
        };
        {
            // The reply is input from a peer: it moves cursors only if it
            // answers exactly the slots asked for, in order.
            let mut positions = shared.positions.lock();
            let asked = self.slots.iter().map(|&i| &positions[i]);
            let answered = resp.results.iter().map(|r| (r.stream, r.streamlet, r.slot));
            if !answered.eq(asked.map(|p| (p.stream, p.streamlet, p.slot))) {
                return Some(ERROR_BACKOFF);
            }
            for (r, &i) in resp.results.iter().zip(&self.slots) {
                positions[i].cursor = r.cursor;
            }
        }
        let mut pause = IDLE_BACKOFF;
        for r in resp.results.into_iter().filter(|r| !r.data.is_empty()) {
            pause = Duration::ZERO;
            let batch =
                FetchedBatch { stream: r.stream, streamlet: r.streamlet, slot: r.slot, data: r.data };
            // Blocking push: a full cache pauses fetching.
            cache_tx.send(batch).ok()?;
        }
        Some(pause)
    }
}
