//! The per-node flight recorder: a fixed-size lock-free ring buffer of
//! recent spans and events — the node's only span buffer. It has two
//! readers: the ring itself (dumped on panic or on explicit request, for
//! chaos-test failure triage) and the slow-trace sampler, which picks
//! each stage's slowest or errored spans out of one snapshot at read
//! time.
//!
//! Writers claim a slot with one `fetch_add` and publish it as a seqlock:
//! the slot's sequence word is zeroed (busy), a release fence orders that
//! before the field stores, the fields are stored with relaxed atomics,
//! and the sequence is set to the claim index + 1 with release. Readers
//! load the sequence with acquire, load the fields, issue an acquire
//! fence and reload the sequence; a record whose sequence moved (or was
//! zero) is torn and dropped. Two writers that lap each other on the
//! same slot can still interleave their fields — acceptable for a
//! diagnostic buffer, and impossible to hit with a ring orders of
//! magnitude larger than the writer count.

use std::cmp::Reverse;
use std::sync::atomic::{fence, AtomicU64, Ordering};
// lint: allow(std-lock) — the dump registry is read from the panic hook,
// which must not touch lockdep-instrumented locks mid-unwind.
use std::sync::{Arc, Mutex as StdMutex, OnceLock, Weak};
use std::time::Instant;

use crate::trace::Stage;

/// Spans the slow-trace reader samples per stage.
pub const PER_STAGE: usize = 4;

/// One recorded span or instant event (plain data).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Start time, nanoseconds since the process-wide recorder epoch.
    pub time_ns: u64,
    /// Duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_span_id: u64,
    /// Node that recorded the event.
    pub node: u32,
    pub stage: u8,
    /// RPC opcode when meaningful, 0 otherwise.
    pub opcode: u8,
    /// Stage-specific payload (bytes, ticket, attempt number, ...).
    pub aux: u64,
    /// The span was marked errored ([`crate::Span::set_error`]).
    pub error: bool,
    /// An instant event ([`crate::NodeObs::event`]), not a span; never
    /// sampled as a slow trace.
    pub instant: bool,
}

impl EventRecord {
    pub fn stage(&self) -> Option<Stage> {
        Stage::from_u8(self.stage)
    }

    /// Slow-trace ranking: errors outrank any duration; among equals,
    /// slower wins.
    fn rank(&self) -> Reverse<(bool, u64)> {
        Reverse((self.error, self.dur_ns))
    }
}

/// The process-wide time origin for event timestamps, so dumps from
/// different nodes of one in-process cluster are directly comparable.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since [`epoch`].
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// `Slot::meta` flag bits (16..24, above the stage byte).
const META_ERROR: u64 = 1 << 16;
const META_INSTANT: u64 = 1 << 17;

#[derive(Default)]
struct Slot {
    /// 0 = empty or mid-write; otherwise claim index + 1.
    seq: AtomicU64,
    time_ns: AtomicU64,
    dur_ns: AtomicU64,
    trace_id: AtomicU64,
    span_id: AtomicU64,
    parent_span_id: AtomicU64,
    /// node (high 32) | flags (bits 16..24) | stage (bits 8..16) |
    /// opcode (low 8).
    meta: AtomicU64,
    aux: AtomicU64,
}

/// Default ring capacity (slots).
pub const DEFAULT_CAPACITY: usize = 4096;

/// A fixed-size lock-free ring of [`EventRecord`]s.
pub struct FlightRecorder {
    node: u32,
    slots: Box<[Slot]>,
    head: AtomicU64,
}

impl FlightRecorder {
    pub fn new(node: u32, capacity: usize) -> Arc<FlightRecorder> {
        let cap = capacity.max(16);
        Arc::new(FlightRecorder {
            node,
            slots: (0..cap).map(|_| Slot::default()).collect(),
            head: AtomicU64::new(0),
        })
    }

    pub fn node(&self) -> u32 {
        self.node
    }

    /// Total events ever recorded (not the ring occupancy).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records one event. Allocation- and lock-free: one `fetch_add`, one
    /// fence and relaxed stores.
    #[inline]
    pub fn record(&self, r: &EventRecord) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx % self.slots.len() as u64) as usize];
        slot.seq.store(0, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.time_ns.store(r.time_ns, Ordering::Relaxed);
        slot.dur_ns.store(r.dur_ns, Ordering::Relaxed);
        slot.trace_id.store(r.trace_id, Ordering::Relaxed);
        slot.span_id.store(r.span_id, Ordering::Relaxed);
        slot.parent_span_id.store(r.parent_span_id, Ordering::Relaxed);
        let flags = if r.error { META_ERROR } else { 0 } | if r.instant { META_INSTANT } else { 0 };
        slot.meta.store(
            (u64::from(r.node) << 32) | flags | (u64::from(r.stage) << 8) | u64::from(r.opcode),
            Ordering::Relaxed,
        );
        slot.aux.store(r.aux, Ordering::Relaxed);
        slot.seq.store(idx + 1, Ordering::Release);
    }

    /// Copies out every intact record, oldest first.
    pub fn read(&self) -> Vec<EventRecord> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == 0 {
                continue;
            }
            let meta = slot.meta.load(Ordering::Relaxed);
            let rec = EventRecord {
                time_ns: slot.time_ns.load(Ordering::Relaxed),
                dur_ns: slot.dur_ns.load(Ordering::Relaxed),
                trace_id: slot.trace_id.load(Ordering::Relaxed),
                span_id: slot.span_id.load(Ordering::Relaxed),
                parent_span_id: slot.parent_span_id.load(Ordering::Relaxed),
                node: (meta >> 32) as u32,
                stage: (meta >> 8) as u8,
                opcode: meta as u8,
                aux: slot.aux.load(Ordering::Relaxed),
                error: meta & META_ERROR != 0,
                instant: meta & META_INSTANT != 0,
            };
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == seq {
                out.push(rec);
            }
        }
        out.sort_by_key(|r| r.time_ns);
        out
    }

    /// Renders the slow traces of one snapshot as a JSON array of span
    /// *trees*: per stage, the `per_stage` spans that rank highest on
    /// `(error, dur_ns)`, each carrying every event of its trace from the
    /// same snapshot (parent links intact), so a scraper can reconstruct
    /// the causal tree without further RPCs.
    pub fn slow_traces_json(&self, per_stage: usize) -> String {
        slow_traces_json(&self.read(), per_stage)
    }

    /// The one dump format, written by the panic hook and the stall
    /// watchdog: `{"node":N,<extra>"ring":{…},"slow_traces":[…]}`, both
    /// readers over one snapshot. `extra` is empty or a run of
    /// `"key":value,` fields.
    pub fn dump_json(&self, extra: &str) -> String {
        let events = self.read();
        format!(
            "{{\"node\":{},{extra}\"ring\":{},\"slow_traces\":{}}}",
            self.node,
            ring_json(self.node, &events),
            slow_traces_json(&events, PER_STAGE),
        )
    }

    /// Writes [`dump_json`](Self::dump_json) with no extra fields under
    /// `dir` as `flightrec-<node>.json`, creating the directory if
    /// needed. Returns the path written.
    pub fn dump_to_dir(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("flightrec-{}.json", self.node));
        std::fs::write(&path, self.dump_json(""))?;
        Ok(path)
    }
}

/// Each stage's `per_stage` highest-ranked spans in `ring`, stage by
/// stage, highest first. Instant events and unknown stages never rank.
fn slowest(ring: &[EventRecord], per_stage: usize) -> Vec<&EventRecord> {
    let mut spans: Vec<&EventRecord> =
        ring.iter().filter(|e| !e.instant && e.stage().is_some()).collect();
    spans.sort_by_key(|e| (e.stage, e.rank()));
    spans
        .chunk_by(|a, b| a.stage == b.stage)
        .flat_map(|s| s.iter().take(per_stage))
        .copied()
        .collect()
}

fn slow_traces_json(ring: &[EventRecord], per_stage: usize) -> String {
    let trees: Vec<String> = slowest(ring, per_stage)
        .into_iter()
        .map(|root| {
            let tree = events_json(ring.iter().filter(|e| e.trace_id == root.trace_id));
            format!("{{{},\"tree\":[{tree}]}}", fields(root))
        })
        .collect();
    format!("[{}]", trees.join(","))
}

fn ring_json(node: u32, events: &[EventRecord]) -> String {
    format!("{{\"node\":{node},\"events\":[{}]}}", events_json(events.iter()))
}

/// The one event renderer: a ring event and a sampled span are the same
/// object (the latter with its `"tree"` appended).
fn events_json<'a>(events: impl Iterator<Item = &'a EventRecord>) -> String {
    events.map(|e| format!("{{{}}}", fields(e))).collect::<Vec<_>>().join(",")
}

fn fields(e: &EventRecord) -> String {
    let stage = e.stage().map(Stage::name).unwrap_or("unknown");
    let EventRecord { error, instant, dur_ns, time_ns, trace_id, span_id, .. } = *e;
    let EventRecord { parent_span_id, node, opcode, aux, .. } = *e;
    format!(
        "\"stage\":\"{stage}\",\"error\":{error},\"instant\":{instant},\"dur_ns\":{dur_ns},\
         \"time_ns\":{time_ns},\"trace_id\":{trace_id},\"span_id\":{span_id},\
         \"parent_span_id\":{parent_span_id},\"node\":{node},\"opcode\":{opcode},\"aux\":{aux}"
    )
}

/// Per-process dump sequence: two dumps in one process (two chaos drills,
/// a panic after a watchdog fire, ...) land in distinct directories.
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Reasons become path components; keep them shell- and glob-friendly.
fn sanitize_reason(reason: &str) -> String {
    let mut s: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
        .collect();
    s.truncate(48);
    if s.is_empty() {
        s.push_str("dump");
    }
    s
}

/// A unique directory for one dump invocation. Dumps are diagnostic
/// output, not canonical results, so they live under
/// `<base>/tmp/flightrec/<reason>-<pid>-<seq>/` — the per-node file name
/// inside (`flightrec-<node>.json`) is keyed only by node id, and the
/// run/test discriminator in the directory stops two tests (or two runs)
/// sharing `results/` from overwriting each other's dumps.
pub fn dump_run_dir(base: &std::path::Path, reason: &str) -> std::path::PathBuf {
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    base.join("tmp").join("flightrec").join(format!(
        "{}-{}-{}",
        sanitize_reason(reason),
        std::process::id(),
        seq
    ))
}

/// Recorders registered for the panic-dump hook. `std::sync::Mutex`: the
/// panic hook must not re-enter lockdep-instrumented locks.
// lint: allow(std-lock) — panic-hook path must avoid instrumented locks
fn dump_registry() -> &'static StdMutex<Vec<Weak<FlightRecorder>>> {
    static REGISTRY: OnceLock<StdMutex<Vec<Weak<FlightRecorder>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| StdMutex::new(Vec::new()))
}

/// Registers a recorder so [`dump_all`] and the panic hook can reach it.
pub fn register_for_dump(rec: &Arc<FlightRecorder>) {
    if let Ok(mut regs) = dump_registry().lock() {
        regs.retain(|w| w.strong_count() > 0);
        regs.push(Arc::downgrade(rec));
    }
}

/// Dumps every registered recorder into a fresh [`dump_run_dir`] under
/// `base`, announcing each file on stderr.
/// Returns the files written.
pub fn dump_all(base: &std::path::Path, reason: &str) -> Vec<std::path::PathBuf> {
    let recs: Vec<Arc<FlightRecorder>> = match dump_registry().lock() {
        Ok(regs) => regs.iter().filter_map(Weak::upgrade).collect(),
        Err(_) => Vec::new(),
    };
    let dir = dump_run_dir(base, reason);
    let mut written = Vec::new();
    for rec in recs {
        match rec.dump_to_dir(&dir) {
            Ok(path) => {
                eprintln!(
                    "[flightrec] {}: node {} -> {} ({} events recorded)",
                    reason,
                    rec.node(),
                    path.display(),
                    rec.recorded(),
                );
                written.push(path);
            }
            Err(e) => {
                eprintln!("[flightrec] {}: node {} dump failed: {}", reason, rec.node(), e);
            }
        }
    }
    written
}

/// Installs a panic hook (once per process) that dumps every registered
/// recorder under `dir` (routed through [`dump_run_dir`] with reason
/// `panic`) before delegating to the previous hook.
pub fn install_panic_hook(dir: &std::path::Path) {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    let dir = dir.to_path_buf();
    INSTALLED.get_or_init(move || {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            dump_all(&dir, "panic");
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(span: u64) -> EventRecord {
        EventRecord {
            time_ns: now_ns(),
            dur_ns: 5,
            trace_id: 1,
            span_id: span,
            parent_span_id: span.saturating_sub(1),
            node: 7,
            stage: Stage::Append as u8,
            opcode: 3,
            aux: span * 10,
            error: false,
            instant: false,
        }
    }

    fn span(stage: Stage, dur_ns: u64, span: u64) -> EventRecord {
        EventRecord { dur_ns, trace_id: span, parent_span_id: 0, stage: stage as u8, ..rec(span) }
    }

    /// `(span_id, dur_ns)` of what the slow-trace reader samples.
    fn sampled(r: &FlightRecorder, per_stage: usize) -> Vec<(u64, u64)> {
        slowest(&r.read(), per_stage).iter().map(|e| (e.span_id, e.dur_ns)).collect()
    }

    #[test]
    fn record_and_read_roundtrip() {
        let r = FlightRecorder::new(7, 64);
        for i in 1..=5u64 {
            r.record(&rec(i));
        }
        let events = r.read();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].span_id, 1);
        assert_eq!(events[4].aux, 50);
        assert_eq!(events[0].stage(), Some(Stage::Append));
        assert_eq!(r.recorded(), 5);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let r = FlightRecorder::new(1, 16);
        for i in 1..=40u64 {
            r.record(&rec(i));
        }
        let events = r.read();
        assert_eq!(events.len(), 16);
        assert!(events.iter().all(|e| e.span_id > 24), "only recent events survive");
        assert_eq!(r.recorded(), 40);
    }

    #[test]
    fn concurrent_writers_produce_intact_records() {
        // Writers go in rounds of half a ring, so two of them never write
        // one slot at once, while every round laps the previous one: the
        // reader races a writer on each slot it overwrites.
        const CAP: u64 = 1024;
        const WRITERS: u64 = 4;
        const ROUNDS: u64 = 400;
        let r = FlightRecorder::new(2, CAP as usize);
        let barrier = Arc::new(std::sync::Barrier::new(WRITERS as usize));
        let threads: Vec<_> = (0..WRITERS)
            .map(|t| {
                let (r, barrier) = (Arc::clone(&r), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    for round in 0..ROUNDS {
                        barrier.wait();
                        for i in 0..CAP / 2 / WRITERS {
                            let mut e = rec(1 + (t * ROUNDS + round) * CAP + i);
                            e.aux = e.span_id; // self-describing for validation
                            e.error = e.span_id.is_multiple_of(2);
                            r.record(&e);
                        }
                    }
                })
            })
            .collect();
        let mut reads = 0;
        while reads == 0 || !threads.iter().all(|t| t.is_finished()) {
            for e in r.read() {
                assert_eq!(e.aux, e.span_id, "torn record leaked through seq validation");
                assert_eq!(e.parent_span_id, e.span_id - 1, "torn record: {e:?}");
                assert_eq!(e.error, e.span_id.is_multiple_of(2), "torn record: {e:?}");
            }
            reads += 1;
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.read().len(), CAP as usize / 2 * 2);
    }

    #[test]
    fn json_dump_is_well_formed_enough() {
        let r = FlightRecorder::new(3, 16);
        r.record(&rec(1));
        let json = r.dump_json("");
        assert!(json.starts_with("{\"node\":3,"));
        assert!(json.contains("\"stage\":\"append\""));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn dump_run_dirs_are_unique_and_sanitized() {
        let base = std::path::Path::new("results");
        let a = dump_run_dir(base, "chaos: broker #1 froze");
        let b = dump_run_dir(base, "chaos: broker #1 froze");
        assert_ne!(a, b, "each dump invocation gets its own directory");
        assert!(a.starts_with("results/tmp/flightrec"));
        let leaf = a.file_name().unwrap().to_str().unwrap();
        assert!(
            leaf.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'),
            "unsafe chars leaked into {leaf}"
        );
        assert!(leaf.starts_with("chaos--broker--1-froze-"));
    }

    #[test]
    fn dump_all_routes_to_discriminated_run_dir() {
        let base = std::env::temp_dir().join(format!("kera-dumpall-test-{}", std::process::id()));
        let r = FlightRecorder::new(11, 16);
        register_for_dump(&r);
        r.record(&rec(1));
        let written = dump_all(&base, "unit test");
        let ours: Vec<_> = written.iter().filter(|p| p.ends_with("flightrec-11.json")).collect();
        assert_eq!(ours.len(), 1, "written: {written:?}");
        assert!(ours[0].starts_with(base.join("tmp").join("flightrec")));
        // A second dump of the same node must not overwrite the first.
        let again = dump_all(&base, "unit test");
        let ours2: Vec<_> = again.iter().filter(|p| p.ends_with("flightrec-11.json")).collect();
        assert_eq!(ours2.len(), 1);
        assert_ne!(ours[0], ours2[0]);
        assert!(ours[0].exists() && ours2[0].exists());
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn dump_to_dir_writes_file() {
        let dir = std::env::temp_dir().join(format!("kera-flightrec-test-{}", std::process::id()));
        let r = FlightRecorder::new(9, 16);
        r.record(&rec(1));
        let path = r.dump_to_dir(&dir).unwrap();
        assert!(path.ends_with("flightrec-9.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"node\":9"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flags_read_back_from_the_meta_word() {
        let r = FlightRecorder::new(7, 16);
        let mut e = rec(1);
        e.error = true;
        r.record(&e);
        let mut e = rec(2);
        e.instant = true;
        e.node = u32::MAX;
        e.stage = 0xff;
        e.opcode = 0xff;
        r.record(&e);
        let events = r.read();
        assert_eq!((events[0].error, events[0].instant), (true, false));
        assert_eq!(events[1], e, "flags do not bleed into node, stage or opcode");
    }

    #[test]
    fn retains_the_slowest_per_stage() {
        let r = FlightRecorder::new(1, 64);
        for (i, dur) in [100u64, 900, 50, 700, 300].into_iter().enumerate() {
            r.record(&span(Stage::Append, dur, i as u64 + 1));
        }
        assert_eq!(sampled(&r, 2), vec![(2, 900), (4, 700)]);
    }

    #[test]
    fn errors_outrank_slow_spans() {
        let r = FlightRecorder::new(1, 64);
        r.record(&span(Stage::RpcServe, 5_000, 1));
        r.record(&span(Stage::RpcServe, 4_000, 2));
        // A fast but errored span outranks the slowest non-error span.
        r.record(&EventRecord { error: true, ..span(Stage::RpcServe, 10, 3) });
        assert_eq!(sampled(&r, 2), vec![(3, 10), (1, 5_000)]);
    }

    #[test]
    fn stages_do_not_share_capacity() {
        let r = FlightRecorder::new(1, 64);
        r.record(&span(Stage::Append, 100, 1));
        r.record(&span(Stage::Flush, 100, 2));
        assert_eq!(sampled(&r, 1).len(), 2);
    }

    #[test]
    fn out_of_range_stage_is_ignored() {
        let r = FlightRecorder::new(1, 64);
        r.record(&EventRecord { stage: 0, ..span(Stage::Append, 100, 1) });
        r.record(&EventRecord { stage: 200, error: true, ..span(Stage::Append, 100, 2) });
        assert!(sampled(&r, 2).is_empty());
        assert_eq!(r.slow_traces_json(2), "[]");
    }

    #[test]
    fn instant_events_are_never_sampled() {
        let r = FlightRecorder::new(1, 64);
        r.record(&span(Stage::RpcCall, 100, 1));
        let retry = EventRecord { instant: true, dur_ns: 0, ..span(Stage::RpcRetry, 0, 2) };
        r.record(&retry);
        r.record(&EventRecord { error: true, ..retry });
        assert_eq!(sampled(&r, 4), vec![(1, 100)]);
    }

    #[test]
    fn json_trees_pull_trace_events_from_the_ring() {
        let r = FlightRecorder::new(1, 64);
        r.record(&span(Stage::RpcServe, 9_000, 7));
        r.record(&EventRecord { trace_id: 7, parent_span_id: 7, ..span(Stage::Append, 6_000, 8) });
        r.record(&span(Stage::Append, 10, 9)); // another trace
        let json = r.slow_traces_json(2);
        assert!(json.starts_with("[{\"stage\":\"rpc_serve\",\"error\":false,"), "json: {json}");
        // The root's tree holds the root and its child, not the other trace.
        let root = &json[..json.find("]}").unwrap()];
        let tree = &root[root.find("\"tree\":[").unwrap()..];
        assert!(tree.contains("\"span_id\":7,"), "{tree}");
        assert!(tree.contains("\"span_id\":8,\"parent_span_id\":7"), "{tree}");
        assert!(!tree.contains("\"span_id\":9,"), "{tree}");
    }

    #[test]
    fn dumps_carry_the_ring_and_the_slow_traces() {
        let r = FlightRecorder::new(5, 16);
        r.record(&span(Stage::Flush, 300, 1));
        let json = r.dump_json("\"reason\":\"stall\",");
        assert!(
            json.starts_with("{\"node\":5,\"reason\":\"stall\",\"ring\":{\"node\":5,"),
            "{json}"
        );
        assert!(json.contains(",\"slow_traces\":[{\"stage\":\"flush\""), "{json}");
        assert!(json.ends_with("}]}]}"), "{json}");
    }
}
