//! The producer and the consumer against a scripted broker: a `Service`
//! that applies produce requests like a broker would (dedup by chunk
//! sequence tag) and serves fetches from prepared batches (one that finds
//! nothing is held until a batch is offered or `FETCH_MAX_WAIT` has
//! passed, as a broker holds it), logs what arrived in what order and
//! when, and can be told per broker to delay, fail retriably (with or
//! without applying), hold every answer back or answer with something it
//! was not asked. Each test pins one invariant of the clients' per-broker
//! lanes (see `producer.rs`, `consumer.rs`).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use kera_client::consumer::{Consumer, ConsumerConfig, FetchedBatch, Subscription};
use kera_client::producer::{Producer, ProducerConfig};
use kera_client::{MetadataClient, Oracle};
use kera_common::config::StreamConfig;
use kera_common::ids::{NodeId, ProducerId, StreamId, StreamletId};
use kera_common::{KeraError, Result};
use kera_rpc::inmem::InMemNetwork;
use kera_rpc::node::{NodeRuntime, NullService, RequestContext, Service};
use kera_wire::chunk::{ChunkBuilder, ChunkIter};
use kera_wire::cursor::SlotCursor;
use kera_wire::frames::OpCode;
use kera_wire::messages::{
    ChunkAck, FetchRequest, FetchResponse, FetchResult, GetMetadataRequest, ProduceRequest,
    ProduceResponse, StreamMetadata, StreamletPlacement, FETCH_MAX_WAIT,
};
use parking_lot::Mutex;

const COORDINATOR: NodeId = NodeId(1);
const BROKER_A: NodeId = NodeId(10);
const BROKER_B: NodeId = NodeId(11);
const STREAM: StreamId = StreamId(1);

/// What a broker does with the next produce or fetch request it receives
/// (then the step is used up; with no step left it applies and
/// acknowledges, or serves).
enum Step {
    /// Apply and acknowledge, or serve, after a pause.
    Delay(Duration),
    /// Apply, then lose the answer: the client sees a retriable error.
    Fail,
    /// Produce only: apply nothing and answer with an error.
    Refuse,
    /// Produce only: apply, then answer with the last chunk's ack left out.
    ShortAck,
    /// Fetch only: answer every slot with a moved cursor and a record
    /// nobody produced, but leave the last slot's result out.
    Short,
    /// Fetch only: the same, with all results, in reverse order.
    Reordered,
}

#[derive(Default)]
struct Log {
    /// Every produce body as received, per broker, in arrival order.
    requests: Vec<(NodeId, Bytes)>,
    /// Chunks applied, in the order they were, each as the batch a
    /// consumer would fetch of its slot.
    applied: Vec<FetchedBatch>,
    /// When each record number was applied.
    applied_at: HashMap<u64, Instant>,
    seen_tags: HashSet<(StreamletId, u64)>,
    /// Chunks that arrived again after having been applied.
    replays: u64,
    /// Every fetch as received: where, when, and the cursor of each entry.
    fetches: Vec<(NodeId, Instant, Vec<SlotCursor>)>,
}

#[derive(Default)]
struct Script {
    plan: Mutex<HashMap<NodeId, VecDeque<Step>>>,
    /// Brokers that answer nothing until taken out of this set.
    held: Mutex<HashSet<NodeId>>,
    /// What each broker has to serve, in order; see `serve`.
    batches: Mutex<HashMap<NodeId, Vec<Bytes>>>,
    log: Mutex<Log>,
}

impl Script {
    fn plan(&self, broker: NodeId, steps: impl IntoIterator<Item = Step>) {
        self.plan.lock().entry(broker).or_default().extend(steps);
    }

    fn hold(&self, broker: NodeId) {
        self.held.lock().insert(broker);
    }

    fn release(&self, broker: NodeId) {
        self.held.lock().remove(&broker);
    }

    fn requests_at(&self, broker: NodeId) -> Vec<Bytes> {
        let log = self.log.lock();
        log.requests.iter().filter(|(b, _)| *b == broker).map(|(_, r)| r.clone()).collect()
    }

    /// Appends a one-record batch, record number `n`, to what `broker`
    /// serves for `streamlet`.
    fn offer(&self, broker: NodeId, streamlet: StreamletId, n: u64) {
        self.batches.lock().entry(broker).or_default().push(one_record_batch(streamlet, n));
    }

    /// When each fetch arrived at `broker`, and the cursors it asked at.
    fn fetches_at(&self, broker: NodeId) -> Vec<(Instant, Vec<SlotCursor>)> {
        let log = self.log.lock();
        log.fetches.iter().filter(|f| f.0 == broker).map(|f| (f.1, f.2.clone())).collect()
    }

    /// Answers every entry, in order. The first entry's cursor counts the
    /// batches its slot has been served: it gets the next one, if it has
    /// been offered, and the cursor after it. The other entries get no
    /// data and their cursor back.
    fn serve(&self, broker: NodeId, req: &FetchRequest) -> FetchResponse {
        let mut results: Vec<FetchResult> = req
            .entries
            .iter()
            .map(|e| FetchResult {
                stream: e.stream,
                streamlet: e.streamlet,
                slot: e.slot,
                cursor: e.cursor,
                data: Bytes::new(),
            })
            .collect();
        let first = &mut results[0];
        let batches = self.batches.lock();
        if let Some(batch) = batches.get(&broker).and_then(|b| b.get(first.cursor.offset as usize)) {
            first.data = batch.clone();
            first.cursor.offset += 1;
        }
        FetchResponse { results }
    }

    /// Applies every chunk not seen before, like a broker's replay cache.
    fn apply(&self, req: &ProduceRequest) -> Result<Bytes> {
        let mut log = self.log.lock();
        let mut acks = Vec::new();
        for chunk in ChunkIter::new(&req.chunks) {
            let chunk = chunk?;
            let h = *chunk.header();
            let tag = h.sequence_tag().expect("producer chunks carry a tag");
            if log.seen_tags.insert((h.streamlet, tag)) {
                for rec in chunk.records() {
                    let n = u64::from_le_bytes(rec?.value()[..8].try_into().unwrap());
                    log.applied_at.insert(n, Instant::now());
                }
                let data = Bytes::copy_from_slice(chunk.bytes());
                log.applied.push(FetchedBatch { stream: h.stream, streamlet: h.streamlet, slot: 0, data });
            } else {
                log.replays += 1;
            }
            acks.push(ChunkAck {
                stream: h.stream,
                streamlet: h.streamlet,
                group: 0,
                segment: 0,
                base_offset: 0,
                records: h.record_count,
            });
        }
        Ok(ProduceResponse { acks }.encode())
    }
}

/// A sealed chunk of `streamlet` holding record number `n`.
fn one_record_batch(streamlet: StreamletId, n: u64) -> Bytes {
    let mut chunk = ChunkBuilder::new(1024, ProducerId(7), STREAM, streamlet);
    assert!(chunk.append(&kera_wire::record::Record::value_only(&record(n))));
    chunk.seal()
}

/// The record number no test produces.
const POISON: u64 = u64::MAX;

/// One scripted node: the coordinator answers `GetMetadata`, brokers
/// answer `Produce` and `Fetch`.
struct Scripted {
    id: NodeId,
    script: Arc<Script>,
    metadata: StreamMetadata,
}

impl Service for Scripted {
    fn handle(&self, ctx: &RequestContext, payload: Bytes) -> Result<Bytes> {
        match ctx.opcode {
            OpCode::GetMetadata => {
                assert_eq!(GetMetadataRequest::decode(&payload)?.stream, STREAM);
                Ok(self.metadata.encode())
            }
            OpCode::Produce => {
                self.script.log.lock().requests.push((self.id, payload.clone()));
                while self.script.held.lock().contains(&self.id) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let req = ProduceRequest::decode_bytes(&payload)?;
                let step = self.script.plan.lock().get_mut(&self.id).and_then(VecDeque::pop_front);
                match step {
                    None => self.script.apply(&req),
                    Some(Step::Delay(pause)) => {
                        std::thread::sleep(pause);
                        self.script.apply(&req)
                    }
                    Some(Step::Fail) => {
                        self.script.apply(&req)?;
                        Err(KeraError::ShuttingDown)
                    }
                    Some(Step::Refuse) => Err(KeraError::ShuttingDown),
                    Some(Step::ShortAck) => {
                        let mut resp = ProduceResponse::decode(&self.script.apply(&req)?)?;
                        resp.acks.pop();
                        Ok(resp.encode())
                    }
                    Some(Step::Short | Step::Reordered) => {
                        Err(KeraError::Protocol("a fetch step planned for a produce".into()))
                    }
                }
            }
            OpCode::Fetch => {
                let req = FetchRequest::decode(&payload)?;
                let asked_at = req.entries.iter().map(|e| e.cursor).collect();
                self.script.log.lock().fetches.push((self.id, Instant::now(), asked_at));
                while self.script.held.lock().contains(&self.id) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let step = self.script.plan.lock().get_mut(&self.id).and_then(VecDeque::pop_front);
                let mut resp = self.script.serve(self.id, &req);
                match step {
                    None => {
                        let until = Instant::now() + FETCH_MAX_WAIT;
                        while resp.results.iter().all(|r| r.data.is_empty()) && Instant::now() < until {
                            std::thread::sleep(Duration::from_millis(1));
                            resp = self.script.serve(self.id, &req);
                        }
                    }
                    Some(Step::Delay(pause)) => std::thread::sleep(pause),
                    Some(Step::Fail | Step::Refuse | Step::ShortAck) => {
                        return Err(KeraError::ShuttingDown)
                    }
                    Some(malformed @ (Step::Short | Step::Reordered)) => {
                        for r in &mut resp.results {
                            r.cursor.offset += 100;
                            r.data = one_record_batch(r.streamlet, POISON);
                        }
                        match malformed {
                            Step::Short => drop(resp.results.pop()),
                            _ => resp.results.reverse(),
                        }
                    }
                }
                resp.encode()
            }
            other => Err(KeraError::Protocol(format!("unscripted opcode {other:?}"))),
        }
    }
}

/// A coordinator, brokers A and B and one client node on an in-memory
/// fabric; streamlet `i` of the one stream lives on `placement[i]`.
struct Rig {
    net: InMemNetwork,
    script: Arc<Script>,
    meta: MetadataClient,
    _nodes: Vec<NodeRuntime>,
}

impl Drop for Rig {
    /// A failed test must not leave a held broker's worker unjoinable.
    fn drop(&mut self) {
        self.script.held.lock().clear();
    }
}

fn rig(placement: &[NodeId]) -> Rig {
    rig_serving(StreamMetadata {
        config: StreamConfig::kafka_like(STREAM, placement.len() as u32),
        placements: placement
            .iter()
            .enumerate()
            .map(|(i, &broker)| StreamletPlacement { streamlet: StreamletId(i as u32), broker })
            .collect(),
    })
}

/// The same, with the coordinator answering `metadata` as it is.
fn rig_serving(metadata: StreamMetadata) -> Rig {
    let net = InMemNetwork::new();
    let script = Arc::new(Script::default());
    let mut nodes: Vec<NodeRuntime> = [COORDINATOR, BROKER_A, BROKER_B]
        .into_iter()
        .map(|id| {
            let svc = Scripted { id, script: Arc::clone(&script), metadata: metadata.clone() };
            // One worker: requests are applied in arrival order, so what
            // the log shows is the order the producer sent them in.
            NodeRuntime::start(Arc::new(net.register(id)), Arc::new(svc), 1)
        })
        .collect();
    let client = NodeRuntime::start(Arc::new(net.register(NodeId(100))), Arc::new(NullService), 1);
    let meta = MetadataClient::new(client.client(), COORDINATOR);
    nodes.push(client);
    Rig { net, script, meta, _nodes: nodes }
}

fn producer(rig: &Rig, cfg: ProducerConfig) -> Producer {
    Producer::new(&rig.meta, &[STREAM], ProducerConfig { id: ProducerId(7), ..cfg }).unwrap()
}

/// A 64-byte record value carrying its number.
fn record(n: u64) -> [u8; 64] {
    let mut value = [0u8; 64];
    value[..8].copy_from_slice(&n.to_le_bytes());
    value
}

/// Polls `cond` until it holds; panics after `limit`.
fn wait_for(what: &str, limit: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + limit;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Runs `flush` on a helper thread so a wedged producer fails the test
/// instead of hanging it.
fn flush_within(producer: &Arc<Producer>, limit: Duration) {
    let (tx, rx) = std::sync::mpsc::channel();
    let p = Arc::clone(producer);
    std::thread::spawn(move || tx.send(p.flush()));
    rx.recv_timeout(limit).expect("flush did not return").expect("flush failed");
}

/// Every record 0..n applied exactly once, and in send order per slot
/// (round-robin partitioning: a slot's record numbers only grow).
fn assert_applied_once_in_order(script: &Script, n: u64) {
    let mut oracle = Oracle::default();
    oracle.expect(STREAM, ProducerId(7), n);
    for chunk in &script.log.lock().applied {
        oracle.observe(chunk).unwrap();
    }
    oracle.settle().unwrap();
}

/// (a) The PR 4 and PR 7 bugs as cases: broker A answers slowly, so its
/// lane backs up behind a request that holds two chunks at most, while
/// the source keeps producing full chunks and — between bursts —
/// linger-sealed short ones for the same slot. A short later chunk that
/// would still fit the request must not overtake a full earlier one.
#[test]
fn per_slot_order_holds_while_a_lane_is_backed_up() {
    let rig = rig(&[BROKER_A, BROKER_B]);
    rig.script.plan(BROKER_A, (0..40).map(|_| Step::Delay(Duration::from_millis(3))));
    let producer = producer(&rig, ProducerConfig {
        chunk_size: 512,
        request_max_bytes: 1024,
        linger: Duration::from_millis(1),
        ..ProducerConfig::default()
    });
    let mut n = 0;
    for burst in 0..60 {
        // 5..=34 records: some bursts end on a full chunk, most leave a
        // partial one for the linger scan.
        for _ in 0..5 + burst % 30 {
            producer.send(STREAM, &record(n)).unwrap();
            n += 1;
        }
        std::thread::sleep(Duration::from_micros(1500));
    }
    producer.flush().unwrap();
    assert_applied_once_in_order(&rig.script, n);
    assert_eq!(producer.metrics().items(), n);
    let sizes: HashSet<usize> = rig.script.requests_at(BROKER_A).iter().map(Bytes::len).collect();
    assert!(sizes.len() > 2, "expected full and linger-sealed chunks mixed: {sizes:?}");
}

/// (b) A broker that never answers: sealed-but-unacknowledged chunks
/// stop at `queue_capacity` in the lanes + the requests on the wire, and
/// `send` blocks. (`pipeline` 2 so that there is more than one of those.)
#[test]
fn send_blocks_once_the_lanes_are_full() {
    const CAPACITY: usize = 8;
    const RECORDS_PER_CHUNK: u64 = 4; // 48-byte header + 4 × 76-byte records ≤ 400
    const ATTEMPTED: u64 = 100 * CAPACITY as u64 * RECORDS_PER_CHUNK;
    let rig = rig(&[BROKER_A]);
    rig.script.hold(BROKER_A);
    let producer = Arc::new(producer(&rig, ProducerConfig {
        chunk_size: 400,
        request_max_bytes: 800,
        queue_capacity: CAPACITY,
        pipeline: 2,
        ..ProducerConfig::default()
    }));
    let sent = Arc::new(AtomicU64::new(0));
    let source = {
        let (producer, sent) = (Arc::clone(&producer), Arc::clone(&sent));
        std::thread::spawn(move || {
            for n in 0..ATTEMPTED {
                producer.send(STREAM, &record(n)).unwrap();
                sent.store(n + 1, Ordering::SeqCst);
            }
        })
    };
    // The source is blocked once the count stands still.
    let mut last = (u64::MAX, Instant::now());
    wait_for("the source to block or finish", Duration::from_secs(20), || {
        let now = sent.load(Ordering::SeqCst);
        if now != last.0 {
            last = (now, Instant::now());
        }
        now == ATTEMPTED || last.1.elapsed() > Duration::from_millis(300)
    });
    let accepted = sent.load(Ordering::SeqCst);
    // The lanes, two requests of two chunks on the wire, the chunk
    // being filled and the sealed one whose `send` is blocked.
    let bound = (CAPACITY as u64 + 4 + 2) * RECORDS_PER_CHUNK;
    assert!(accepted <= bound, "{accepted} records accepted with nothing acknowledged (bound {bound})");
    assert_eq!(producer.metrics().items(), 0);

    rig.script.release(BROKER_A);
    source.join().unwrap();
    flush_within(&producer, Duration::from_secs(20));
    assert_applied_once_in_order(&rig.script, ATTEMPTED);
}

/// (c) A request whose answer is lost is re-sent verbatim — same bytes,
/// same dedup tags — and its records are acknowledged exactly once.
#[test]
fn a_failed_request_is_resent_verbatim_and_acked_once() {
    let rig = rig(&[BROKER_A]);
    rig.script.plan(BROKER_A, [Step::Fail]);
    let producer = producer(&rig, ProducerConfig { chunk_size: 1024, ..ProducerConfig::default() });
    for n in 0..10 {
        producer.send(STREAM, &record(n)).unwrap();
    }
    producer.flush().unwrap();
    let requests = rig.script.requests_at(BROKER_A);
    assert_eq!(requests.len(), 2, "one send, one re-send");
    assert_eq!(requests[0], requests[1], "the re-send is the same bytes");
    assert_eq!(rig.script.log.lock().replays, 1, "the broker saw the chunk twice and applied it once");
    assert_applied_once_in_order(&rig.script, 10);
    assert_eq!((producer.metrics().items(), producer.failed_requests()), (10, 0));
}

/// A request refused on its first send and on every re-send fails for
/// good: `flush` still returns, and only `failed_requests` tells.
#[test]
fn a_request_refused_past_its_retries_fails_for_good() {
    const SENDS: usize = 4; // the first send and the producer's MAX_RETRIES (3) re-sends
    let rig = rig(&[BROKER_A]);
    rig.script.plan(BROKER_A, (0..SENDS).map(|_| Step::Refuse));
    let producer = Arc::new(producer(&rig, ProducerConfig { chunk_size: 1024, ..ProducerConfig::default() }));
    for n in 0..10 {
        producer.send(STREAM, &record(n)).unwrap();
    }
    flush_within(&producer, Duration::from_secs(5));
    assert_eq!(rig.script.requests_at(BROKER_A).len(), SENDS, "one send, then every re-send");
    assert_eq!(producer.failed_requests(), 1);
    assert_eq!(producer.metrics().items(), 0, "records counted that no reply acknowledged");
    assert!(rig.script.log.lock().applied.is_empty(), "the broker applied a refused request");
}

/// A reply is input from a peer. One that acknowledges fewer chunks than
/// its request carried acknowledges none: nothing is counted until the
/// verbatim re-send has been answered in full.
#[test]
fn a_short_ack_is_not_an_ack() {
    let rig = rig(&[BROKER_A]);
    let pause = Duration::from_millis(200);
    rig.script.plan(BROKER_A, [Step::ShortAck, Step::Delay(pause)]);
    let producer = producer(&rig, ProducerConfig { chunk_size: 1024, ..ProducerConfig::default() });
    for n in 0..10 {
        producer.send(STREAM, &record(n)).unwrap();
    }
    // The re-send is what the producer made of the short reply; its own
    // answer is `pause` away.
    wait_for("the re-send", Duration::from_secs(5), || rig.script.requests_at(BROKER_A).len() == 2);
    assert_eq!(producer.metrics().items(), 0, "records counted that no reply acknowledged");

    producer.flush().unwrap();
    let requests = rig.script.requests_at(BROKER_A);
    assert_eq!(requests.len(), 2, "one send, one re-send");
    assert_eq!(requests[0], requests[1], "the re-send is the same bytes");
    assert_eq!(rig.script.log.lock().replays, 1, "the broker saw the chunk twice and applied it once");
    assert_applied_once_in_order(&rig.script, 10);
    assert_eq!((producer.metrics().items(), producer.failed_requests()), (10, 0));
}

/// A streamlet the metadata places nowhere is found when the producer is
/// built, not by the first chunk sealed for it.
#[test]
fn an_unplaced_streamlet_fails_construction() {
    let rig = rig_serving(StreamMetadata {
        config: StreamConfig::kafka_like(STREAM, 2),
        placements: vec![StreamletPlacement { streamlet: SLOT_A, broker: BROKER_A }],
    });
    let refused = Producer::new(&rig.meta, &[STREAM], ProducerConfig::default()).err();
    assert!(
        matches!(refused, Some(KeraError::UnknownStreamlet(STREAM, SLOT_B))),
        "a producer for an unplaced streamlet: {refused:?}"
    );
}

/// Broker A sits on its first request for 300 ms; B is prompt and must
/// not notice: with the default one request in flight per broker, B's
/// lane sends again as soon as B answers, not when the whole round has.
#[test]
fn a_late_broker_does_not_delay_the_others_next_request() {
    let rig = rig(&[BROKER_A, BROKER_B]);
    rig.script.plan(BROKER_A, [Step::Delay(Duration::from_millis(300))]);
    let producer = producer(&rig, ProducerConfig { chunk_size: 1024, ..ProducerConfig::default() });
    // Even records go to A, odd ones to B; each pair is a linger-sealed
    // chunk per broker, sent once the one before it was applied at B.
    for pair in 0..4 {
        producer.send(STREAM, &record(2 * pair)).unwrap();
        producer.send(STREAM, &record(2 * pair + 1)).unwrap();
        wait_for("B's next request", Duration::from_secs(5), || {
            rig.script.log.lock().applied_at.contains_key(&(2 * pair + 1))
        });
    }
    assert_eq!(rig.script.requests_at(BROKER_B).len(), 4);
    assert!(
        !rig.script.log.lock().applied_at.contains_key(&0),
        "B's three further requests waited for A's first to be answered"
    );

    producer.flush().unwrap();
    assert_applied_once_in_order(&rig.script, 8);
    assert_eq!((producer.metrics().items(), producer.failed_requests()), (8, 0));
}

/// Broker A has the producer's one request and does not answer it; B has
/// never been sent anything. A partial chunk for B is sealed and sent at
/// the linger cadence: B's lane exists from the start and is idle, so the
/// thread does not sleep as if every broker were busy.
#[test]
fn a_partial_chunk_for_an_idle_broker_keeps_the_linger_cadence() {
    let rig = rig(&[BROKER_A, BROKER_B]);
    rig.script.hold(BROKER_A);
    let producer = producer(&rig, ProducerConfig { chunk_size: 1024, ..ProducerConfig::default() });
    producer.send(STREAM, &record(0)).unwrap();
    wait_for("A's request", Duration::from_secs(5), || rig.script.requests_at(BROKER_A).len() == 1);
    let sent = Instant::now();
    producer.send(STREAM, &record(1)).unwrap();
    wait_for("B's record", Duration::from_secs(5), || rig.script.log.lock().applied_at.contains_key(&1));
    let waited = rig.script.log.lock().applied_at[&1] - sent;
    assert!(waited < Duration::from_millis(20), "B's record waited {waited:?} with A unanswered");

    rig.script.release(BROKER_A);
    producer.flush().unwrap();
    assert_applied_once_in_order(&rig.script, 2);
}

/// How often the thread named `name` has gone to sleep so far; `None`
/// until it has started and named itself.
#[cfg(target_os = "linux")]
fn times_blocked(name: &str) -> Option<u64> {
    let task = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .flatten()
        .find(|t| std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.trim() == name))?;
    let status = std::fs::read_to_string(task.path().join("status")).unwrap();
    let count = status.lines().find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
    count.unwrap().trim().parse().ok()
}

/// `flush` sleeps until the requests thread settles the last chunk, and
/// that thread sleeps until the reply unparks it: with the one request
/// 50 ms at the broker, neither of them polls its way there.
#[test]
#[cfg(target_os = "linux")]
fn flush_wakes_on_the_last_ack() {
    let rig = rig(&[BROKER_A]);
    rig.script.plan(BROKER_A, [Step::Delay(Duration::from_millis(50))]);
    // An id of its own: the requests thread is found by its name.
    let cfg = ProducerConfig { id: ProducerId(70), chunk_size: 1024, ..ProducerConfig::default() };
    let producer = Producer::new(&rig.meta, &[STREAM], cfg).unwrap();
    producer.send(STREAM, &record(0)).unwrap();
    let mut before = None;
    wait_for("the requests thread", Duration::from_secs(5), || {
        before = times_blocked("producer-req-70");
        before.is_some()
    });
    producer.flush().unwrap();
    let (flushed, sleeps) = (Instant::now(), times_blocked("producer-req-70").unwrap() - before.unwrap());
    let acked = rig.script.log.lock().applied_at[&0];
    assert!(flushed - acked < Duration::from_millis(10), "flush returned {:?} after the ack", flushed - acked);
    // Idle until the flush (a linger scan or two), then asleep until the
    // reply, a timer check at most; at the linger-scan cadence it is 100.
    assert!(sleeps <= 10, "the requests thread slept {sleeps} times over one request");
    assert_eq!((rig.script.requests_at(BROKER_A).len(), producer.metrics().items()), (1, 1));
}

fn consumer(rig: &Rig) -> Consumer {
    Consumer::new(&rig.meta, &[Subscription::whole_stream(STREAM)], ConsumerConfig::default()).unwrap()
}

/// The next batch out of the cache: its streamlet and record number.
fn next(consumer: &Consumer, within: Duration) -> Option<(StreamletId, u64)> {
    let batch = consumer.next_batch(within)?;
    let mut numbers = Vec::new();
    batch
        .for_each_record(|_, rec| numbers.push(u64::from_le_bytes(rec.value()[..8].try_into().unwrap())))
        .unwrap();
    assert_eq!(numbers.len(), 1, "the script serves one-record batches");
    Some((batch.streamlet, numbers[0]))
}

/// The fetch cursor of `streamlet`'s one slot, as `positions` reports it.
fn position(consumer: &Consumer, streamlet: StreamletId) -> SlotCursor {
    consumer.positions().iter().find(|p| p.streamlet == streamlet).unwrap().cursor
}

const SLOT_A: StreamletId = StreamletId(0);
const SLOT_B: StreamletId = StreamletId(1);

/// Broker A does not answer its first fetch; B is prompt and must not
/// notice: B's lane asks again as soon as B's reply is applied, not when
/// the whole round has been answered.
#[test]
fn a_late_broker_does_not_delay_the_others_fetches() {
    let rig = rig(&[BROKER_A, BROKER_B]);
    rig.script.hold(BROKER_A);
    rig.script.offer(BROKER_A, SLOT_A, 100);
    for n in 0..4 {
        rig.script.offer(BROKER_B, SLOT_B, n);
    }
    let consumer = consumer(&rig);
    for n in 0..4 {
        assert_eq!(next(&consumer, Duration::from_secs(5)), Some((SLOT_B, n)), "B waited for A");
    }
    assert!(rig.script.fetches_at(BROKER_B).len() >= 4);
    assert_eq!(position(&consumer, SLOT_A), SlotCursor::START);
    assert!(rig.script.fetches_at(BROKER_A).len() <= 1, "A was asked again before it answered");

    rig.script.release(BROKER_A);
    assert_eq!(next(&consumer, Duration::from_secs(5)), Some((SLOT_A, 100)));
}

/// Broker A has crashed: every fetch to it fails, and its lane rests
/// between attempts instead of asking again at once, while B's lane
/// delivers what B gets to serve.
#[test]
fn an_unanswering_broker_is_not_hammered() {
    let rig = rig(&[BROKER_A, BROKER_B]);
    rig.net.crash(BROKER_A);
    let issued = rig.meta.rpc().obs().registry().counter("kera.rpc.calls_issued", &[]);
    let consumer = consumer(&rig);
    let (calls_before, at_b_before) = (issued.get(), rig.script.fetches_at(BROKER_B).len() as u64);
    let started = Instant::now();
    for n in 0..8 {
        rig.script.offer(BROKER_B, SLOT_B, n);
        assert_eq!(next(&consumer, Duration::from_secs(5)), Some((SLOT_B, n)));
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(started.elapsed() >= Duration::from_millis(200));
    // Every call the client node issued went to A or to B, and B logs
    // every one it received (one may still be on its way).
    let to_b = rig.script.fetches_at(BROKER_B).len() as u64 - at_b_before;
    let to_a = (issued.get() - calls_before).saturating_sub(to_b + 1);
    let per_200ms = to_a * 200 / started.elapsed().as_millis() as u64;
    assert!((1..=40).contains(&per_200ms), "{to_a} fetches sent to a dead broker in {:?}", started.elapsed());
}

/// A reply is input from a peer. One that leaves a slot out, or answers
/// the slots in another order, is refused whole: no cursor moves, nothing
/// is delivered, and the lane rests before it asks the same question
/// again, which the next well-formed reply answers.
#[test]
fn a_reply_that_does_not_match_its_request_is_refused() {
    // Two slots on A, so that a reply has something to leave out or swap.
    let rig = rig(&[BROKER_A, BROKER_A]);
    rig.script.plan(BROKER_A, [Step::Short, Step::Reordered]);
    let consumer = consumer(&rig);
    // One fetch in flight per lane: with the third at the broker, both
    // malformed replies have been dealt with.
    wait_for("A's third fetch", Duration::from_secs(5), || rig.script.fetches_at(BROKER_A).len() >= 3);
    assert!(consumer.positions().iter().all(|p| p.cursor == SlotCursor::START));
    assert_eq!(next(&consumer, Duration::ZERO), None, "a refused reply's data was delivered");
    let fetches = rig.script.fetches_at(BROKER_A);
    assert!(fetches.iter().all(|(_, asked_at)| asked_at == &[SlotCursor::START; 2]));
    for pair in fetches[..3].windows(2) {
        assert!(pair[1].0 - pair[0].0 >= Duration::from_millis(10), "no rest after a refused reply");
    }

    rig.script.offer(BROKER_A, SLOT_A, 0);
    assert_eq!(next(&consumer, Duration::from_secs(5)), Some((SLOT_A, 0)));
    assert_eq!(position(&consumer, SLOT_A), SlotCursor { offset: 1, ..SlotCursor::START });
    assert_eq!(position(&consumer, SLOT_B), SlotCursor::START);
    assert_eq!(next(&consumer, Duration::from_millis(50)), None);
}
