//! Tail-sampled slow traces: each node retains the N slowest (plus
//! every errored) spans per stage, so one introspection RPC can explain
//! "why was p99 bad" without shipping the whole flight-recorder ring.
//!
//! Sampling is decided at span drop. The hot path pays one relaxed load
//! per finished span: a per-stage admission threshold (the smallest
//! duration currently retained once the stage is full) filters out the
//! fast majority before any lock is taken. Only candidate spans — slower
//! than the threshold, or errored — take the per-stage `obs.slowtrace`
//! mutex, which therefore sits far from the data path.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::flightrec::{EventRecord, FlightRecorder};
use crate::trace::{Stage, STAGE_COUNT};

/// Spans each node retains per stage.
pub const PER_STAGE: usize = 4;

/// One sampled span: the flight-recorder event plus the error verdict.
#[derive(Clone, Copy, Debug)]
pub struct SlowSpan {
    pub record: EventRecord,
    pub error: bool,
}

impl SlowSpan {
    /// Ranking key: errors outrank any duration; among equals, slower
    /// wins.
    fn key(&self) -> (bool, u64) {
        (self.error, self.record.dur_ns)
    }
}

/// Bounded top-N store of slow/errored spans, one bucket per stage.
pub struct SlowTraceStore {
    /// Retained spans per stage, unordered (capacity-bounded).
    stages: [Mutex<Vec<SlowSpan>>; STAGE_COUNT],
    /// Admission threshold per stage: smallest retained duration once
    /// the stage is at capacity, 0 while it still has room. Read on
    /// every span drop; written only under the stage mutex.
    thresholds: [AtomicU64; STAGE_COUNT],
    capacity: usize,
}

impl SlowTraceStore {
    pub fn new(capacity: usize) -> SlowTraceStore {
        SlowTraceStore {
            stages: std::array::from_fn(|_| Mutex::named("obs.slowtrace", Vec::new())),
            thresholds: std::array::from_fn(|_| AtomicU64::new(0)),
            capacity: capacity.max(1),
        }
    }

    /// Offers a finished span. The common case (fast, no error) returns
    /// after one relaxed load.
    #[inline]
    pub fn offer(&self, record: &EventRecord, error: bool) {
        let Some(idx) = (record.stage as usize).checked_sub(1) else { return };
        if idx >= STAGE_COUNT {
            return;
        }
        if !error && record.dur_ns < self.thresholds[idx].load(Ordering::Relaxed) {
            return;
        }
        self.offer_slow(idx, SlowSpan { record: *record, error });
    }

    #[cold]
    fn offer_slow(&self, idx: usize, span: SlowSpan) {
        let mut retained = self.stages[idx].lock();
        if retained.len() < self.capacity {
            retained.push(span);
        } else {
            // Evict the lowest-ranked entry if the candidate outranks it.
            let (evict, _) = retained
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.key())
                .expect("store at capacity is non-empty");
            if retained[evict].key() >= span.key() {
                return;
            }
            retained[evict] = span;
        }
        if retained.len() >= self.capacity {
            let min_dur =
                retained.iter().map(|s| s.record.dur_ns).min().unwrap_or(0);
            self.thresholds[idx].store(min_dur, Ordering::Relaxed);
        }
    }

    /// Every retained span, slowest first within each stage.
    pub fn snapshot(&self) -> Vec<SlowSpan> {
        let mut out = Vec::new();
        for stage in &self.stages {
            let mut spans = stage.lock().clone();
            spans.sort_by_key(|s| std::cmp::Reverse(s.key()));
            out.extend(spans);
        }
        out
    }

    /// Total retained spans across stages.
    pub fn retained(&self) -> usize {
        self.stages.iter().map(|s| s.lock().len()).sum()
    }

    /// Renders the retained spans as a JSON array of span *trees*: each
    /// sampled span carries every event of its trace (pulled from the
    /// flight-recorder ring, parent links intact), so a scraper can
    /// reconstruct the causal tree without further RPCs. Events that
    /// have already been lapped out of the ring simply shrink the tree —
    /// the sampled root span itself is always present.
    pub fn to_json(&self, recorder: &FlightRecorder) -> String {
        let sampled = self.snapshot();
        let ring = recorder.read();
        let mut s = String::from("[");
        for (i, span) in sampled.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let r = &span.record;
            let stage = r.stage().map(Stage::name).unwrap_or("unknown");
            s.push_str(&format!(
                "{{\"stage\":\"{}\",\"error\":{},\"dur_ns\":{},\"time_ns\":{},\
                 \"trace_id\":{},\"span_id\":{},\"parent_span_id\":{},\"node\":{},\
                 \"opcode\":{},\"aux\":{},\"tree\":[",
                stage,
                span.error,
                r.dur_ns,
                r.time_ns,
                r.trace_id,
                r.span_id,
                r.parent_span_id,
                r.node,
                r.opcode,
                r.aux,
            ));
            let mut first = true;
            let mut root_in_ring = false;
            for e in ring.iter().filter(|e| e.trace_id == r.trace_id) {
                root_in_ring |= e.span_id == r.span_id;
                if !first {
                    s.push(',');
                }
                first = false;
                push_event(&mut s, e);
            }
            if !root_in_ring {
                // The sampled span was lapped out of the ring; keep the
                // tree self-contained by re-adding it.
                if !first {
                    s.push(',');
                }
                push_event(&mut s, r);
            }
            s.push_str("]}");
        }
        s.push(']');
        s
    }
}

fn push_event(s: &mut String, e: &EventRecord) {
    let stage = e.stage().map(Stage::name).unwrap_or("unknown");
    s.push_str(&format!(
        "{{\"time_ns\":{},\"dur_ns\":{},\"span_id\":{},\"parent_span_id\":{},\
         \"node\":{},\"stage\":\"{}\",\"opcode\":{},\"aux\":{}}}",
        e.time_ns, e.dur_ns, e.span_id, e.parent_span_id, e.node, stage, e.opcode, e.aux,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flightrec::now_ns;

    fn rec(stage: Stage, dur_ns: u64, span: u64) -> EventRecord {
        EventRecord {
            time_ns: now_ns(),
            dur_ns,
            trace_id: span,
            span_id: span,
            parent_span_id: 0,
            node: 1,
            stage: stage as u8,
            opcode: 0,
            aux: 0,
        }
    }

    #[test]
    fn retains_the_slowest_per_stage() {
        let store = SlowTraceStore::new(2);
        for (i, dur) in [100u64, 900, 50, 700, 300].into_iter().enumerate() {
            store.offer(&rec(Stage::Append, dur, i as u64 + 1), false);
        }
        let spans: Vec<u64> = store.snapshot().iter().map(|s| s.record.dur_ns).collect();
        assert_eq!(spans, vec![900, 700]);
        // The admission threshold now rejects faster spans lock-free.
        assert_eq!(store.thresholds[Stage::Append as usize - 1].load(Ordering::Relaxed), 700);
    }

    #[test]
    fn errors_outrank_slow_spans() {
        let store = SlowTraceStore::new(2);
        store.offer(&rec(Stage::RpcServe, 5_000, 1), false);
        store.offer(&rec(Stage::RpcServe, 4_000, 2), false);
        // A fast but errored span evicts the slowest non-error entry.
        store.offer(&rec(Stage::RpcServe, 10, 3), true);
        let snap = store.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap.iter().any(|s| s.error && s.record.span_id == 3));
        assert!(snap.iter().any(|s| s.record.dur_ns == 5_000));
    }

    #[test]
    fn stages_do_not_share_capacity() {
        let store = SlowTraceStore::new(1);
        store.offer(&rec(Stage::Append, 100, 1), false);
        store.offer(&rec(Stage::Flush, 100, 2), false);
        assert_eq!(store.retained(), 2);
    }

    #[test]
    fn out_of_range_stage_is_ignored() {
        let store = SlowTraceStore::new(2);
        let mut bad = rec(Stage::Append, 100, 1);
        bad.stage = 0;
        store.offer(&bad, false);
        bad.stage = 200;
        store.offer(&bad, true);
        assert_eq!(store.retained(), 0);
    }

    #[test]
    fn json_trees_pull_trace_events_from_the_ring() {
        let recorder = FlightRecorder::new(1, 64);
        let root = rec(Stage::RpcServe, 9_000, 7);
        let mut child = rec(Stage::Append, 6_000, 8);
        child.trace_id = 7;
        child.parent_span_id = 7;
        recorder.record(&root);
        recorder.record(&child);

        let store = SlowTraceStore::new(2);
        store.offer(&root, false);
        let json = store.to_json(&recorder);
        assert!(json.starts_with('['), "json: {json}");
        assert!(json.contains("\"stage\":\"rpc_serve\""));
        // The tree contains both the sampled root and its child.
        assert!(json.contains("\"span_id\":7"));
        assert!(json.contains("\"parent_span_id\":7"));
        assert!(json.contains("\"stage\":\"append\""));
    }

    #[test]
    fn sampled_span_lapped_out_of_ring_stays_in_tree() {
        let recorder = FlightRecorder::new(1, 16);
        let root = rec(Stage::Flush, 9_000, 42);
        let store = SlowTraceStore::new(1);
        store.offer(&root, false);
        // Never recorded into the ring: the tree re-adds the root.
        let json = store.to_json(&recorder);
        assert!(json.contains("\"span_id\":42"));
    }
}
