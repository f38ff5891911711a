//! The consumer client (paper Fig. 7).
//!
//! "The Requests thread builds one request for each broker and pulls one
//! chunk for each streamlet associated to the consumer. The Source thread
//! consumes in-order one chunk per streamlet: it iterates the chunk and
//! creates records." The chunk cache between the two threads is bounded
//! ("each client has a cache of up to 1000 chunks"), so a slow source
//! back-pressures fetching.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{self, Receiver, Sender};
use kera_common::ids::{ConsumerId, NodeId, StreamId, StreamletId};
use kera_common::metrics::ThroughputMeter;
use kera_common::Result;
use kera_rpc::RpcClient;
use kera_wire::chunk::{ChunkIter, ChunkView};
use kera_wire::cursor::SlotCursor;
use kera_wire::frames::OpCode;
use kera_wire::messages::{FetchEntry, FetchRequest, FetchResponse};
use kera_wire::record::RecordView;

use crate::metadata::MetadataClient;

/// Result alias for seek-based subscription building.
pub type SeekResult = Result<Subscription>;

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

/// How long a fetch or seek call may stay unanswered.
const CALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Pause when a full round returned nothing (consumer caught up).
const IDLE_BACKOFF: Duration = Duration::from_micros(200);

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
    ) -> crate::consumer::SeekResult {
        let md = meta.metadata(stream)?;
        let mut start = Vec::new();
        for sl in 0..md.config.streamlets {
            let streamlet = StreamletId(sl);
            let broker = md
                .broker_of(streamlet)
                .ok_or(kera_common::KeraError::UnknownStreamlet(stream, streamlet))?;
            for slot in 0..md.config.active_groups {
                let req = kera_wire::messages::SeekRequest {
                    stream,
                    streamlet,
                    slot,
                    record_offset,
                };
                let payload = meta.rpc().call(broker, OpCode::Seek, req.encode(), CALL_TIMEOUT)?;
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

struct FetchState {
    broker: NodeId,
    stream: StreamId,
    streamlet: StreamletId,
    slot: u32,
    cursor: SlotCursor,
}

type SharedStates = Arc<parking_lot::Mutex<Vec<FetchState>>>;

/// A consumer client.
pub struct Consumer {
    /// The chunk cache's reading end; gone once the consumer is stopped.
    cache_rx: Option<Receiver<FetchedBatch>>,
    shared: Arc<Shared>,
    states: SharedStates,
    requests_thread: Option<std::thread::JoinHandle<()>>,
    /// Records consumed (counted by [`Consumer::poll_count`]).
    consumed: ThroughputMeter,
}

struct Shared {
    cfg: ConsumerConfig,
    rpc: RpcClient,
    shutdown: AtomicBool,
}

impl Consumer {
    pub fn new(
        meta: &MetadataClient,
        subscriptions: &[Subscription],
        cfg: ConsumerConfig,
    ) -> Result<Consumer> {
        let mut states = Vec::new();
        for sub in subscriptions {
            let md = meta.metadata(sub.stream)?;
            let streamlets: Vec<StreamletId> = match &sub.streamlets {
                Some(list) => list.clone(),
                None => (0..md.config.streamlets).map(StreamletId).collect(),
            };
            for sl in streamlets {
                let broker = md
                    .broker_of(sl)
                    .ok_or(kera_common::KeraError::UnknownStreamlet(sub.stream, sl))?;
                for slot in 0..md.config.active_groups {
                    let cursor = sub
                        .start
                        .iter()
                        .find(|p| p.streamlet == sl && p.slot == slot)
                        .map(|p| p.cursor)
                        .unwrap_or(SlotCursor::START);
                    states.push(FetchState {
                        broker,
                        stream: sub.stream,
                        streamlet: sl,
                        slot,
                        cursor,
                    });
                }
            }
        }
        let (cache_tx, cache_rx) = channel::bounded(cfg.cache_capacity.max(1));
        let shared = Arc::new(Shared {
            cfg,
            rpc: meta.rpc().clone(),
            shutdown: AtomicBool::new(false),
        });
        let states: SharedStates = Arc::new(parking_lot::Mutex::new(states));
        let requests_thread = {
            let shared = Arc::clone(&shared);
            let states = Arc::clone(&states);
            std::thread::Builder::new()
                .name(format!("consumer-req-{}", shared.cfg.id.raw()))
                .spawn(move || requests_loop(shared, states, cache_tx))
                .expect("spawn consumer requests thread")
        };
        Ok(Consumer {
            cache_rx: Some(cache_rx),
            shared,
            states,
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
        self.states
            .lock()
            .iter()
            .map(|s| CursorPosition {
                stream: s.stream,
                streamlet: s.streamlet,
                slot: s.slot,
                cursor: s.cursor,
            })
            .collect()
    }

    pub fn close(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // With the cache's receiver gone a requests thread blocked on a
        // full cache, now or later in its round, fails its push and exits.
        self.cache_rx = None;
        if let Some(t) = self.requests_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Consumer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn requests_loop(shared: Arc<Shared>, states: SharedStates, cache_tx: Sender<FetchedBatch>) {
    // Group state indices per broker once; cursors advance in place.
    let mut per_broker: HashMap<NodeId, Vec<usize>> = HashMap::new();
    for (i, s) in states.lock().iter().enumerate() {
        per_broker.entry(s.broker).or_default().push(i);
    }
    while !shared.shutdown.load(Ordering::SeqCst) {
        let mut got_data = false;
        // One request per broker, all brokers in parallel.
        let calls: Vec<(NodeId, Vec<usize>, _)> = per_broker
            .iter()
            .map(|(&broker, idxs)| {
                let entries: Vec<FetchEntry> = {
                    let st = states.lock();
                    idxs.iter()
                        .map(|&i| {
                            let s = &st[i];
                            FetchEntry {
                                stream: s.stream,
                                streamlet: s.streamlet,
                                slot: s.slot,
                                cursor: s.cursor,
                                max_bytes: shared.cfg.fetch_max_bytes,
                            }
                        })
                        .collect()
                };
                let req = FetchRequest { consumer: shared.cfg.id, entries };
                let call = shared.rpc.call_async(broker, OpCode::Fetch, req.encode());
                (broker, idxs.clone(), call)
            })
            .collect();
        let mut throttled_pause: Option<Duration> = None;
        for (_broker, idxs, call) in calls {
            let payload = match call.wait(CALL_TIMEOUT) {
                Ok(p) => p,
                // Fetch-side admission control: the broker meters reads
                // per tenant and answers `Throttled` when this consumer
                // is in debt. Honour the hint instead of hammering.
                Err(kera_common::KeraError::Throttled { retry_after, .. }) => {
                    let pause = retry_after.min(Duration::from_millis(500));
                    throttled_pause =
                        Some(throttled_pause.map_or(pause, |p: Duration| p.max(pause)));
                    continue;
                }
                Err(_) => continue,
            };
            // Sliced decode: each result's data stays a view of the
            // receive buffer all the way into the consumer cache.
            let Ok(resp) = FetchResponse::decode_bytes(&payload) else { continue };
            for (result, &i) in resp.results.iter().zip(&idxs) {
                {
                    let mut st = states.lock();
                    debug_assert_eq!(result.streamlet, st[i].streamlet);
                    st[i].cursor = result.cursor;
                }
                if !result.data.is_empty() {
                    got_data = true;
                    let batch = FetchedBatch {
                        stream: result.stream,
                        streamlet: result.streamlet,
                        slot: result.slot,
                        // lint: allow(no-hot-copy) — refcount clone of the fetched slice
                        data: result.data.clone(),
                    };
                    // Blocking push: a full cache pauses fetching.
                    if cache_tx.send(batch).is_err() {
                        return;
                    }
                }
            }
        }
        if let Some(pause) = throttled_pause {
            std::thread::sleep(pause);
        } else if !got_data {
            std::thread::sleep(IDLE_BACKOFF);
        }
    }
}
