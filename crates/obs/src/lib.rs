//! Observability for the KerA reproduction: per-node metrics registry,
//! causal tracing and a flight recorder.
//!
//! One [`NodeObs`] per simulated node bundles the three pieces:
//!
//! - a [`MetricsRegistry`] of named counters/gauges/histograms
//!   (`kera.<subsystem>.<name>`, labelled at least with `node`);
//! - trace/span recording: [`NodeObs::root_span`]/[`NodeObs::span`]
//!   return RAII [`Span`]s that, on drop, feed the per-stage latency
//!   histograms (`kera.trace.stage{stage=...}`) and the flight recorder;
//! - a [`FlightRecorder`] ring of recent events, dumpable on panic or
//!   chaos failure.
//!
//! With `enabled == false` every tracing entry point returns inert
//! values: no ids are allocated, no events recorded, and the only
//! residual cost is a branch. Metrics registered through the registry
//! keep working either way (they are plain relaxed atomics, exactly what
//! the pre-registry ad-hoc counters cost).

pub mod flightrec;
pub mod registry;
pub mod slowtrace;
pub mod trace;
pub mod watchdog;

use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use kera_common::metrics::{HistogramSnapshot, LatencyHistogram};

pub use flightrec::{
    dump_all, dump_run_dir, install_panic_hook, register_for_dump, EventRecord, FlightRecorder,
};
pub use registry::{Gauge, MetricKey, MetricsRegistry, RegistrySnapshot};
pub use slowtrace::{SlowSpan, SlowTraceStore};
pub use trace::{current, enter, ContextGuard, Stage, TraceContext, STAGE_COUNT};
pub use watchdog::Watchdog;

/// One node's observability handle.
pub struct NodeObs {
    node: u32,
    enabled: bool,
    registry: MetricsRegistry,
    recorder: Arc<FlightRecorder>,
    /// Per-stage latency histograms, indexed by `Stage as u8 - 1`; also
    /// registered as `kera.trace.stage{stage=<name>}`.
    stages: [Arc<LatencyHistogram>; STAGE_COUNT],
    /// Span/trace id allocator; ids embed the node so they are unique
    /// across an in-process cluster.
    next_id: AtomicU64,
    /// Tail-sampled slowest/errored spans per stage (introspection).
    slow: SlowTraceStore,
    /// Monotone progress heartbeat: subsystems bump it whenever real work
    /// completes (append accepted, segment shipped, entry committed). The
    /// stall watchdog fires when this stops moving while `inflight > 0`.
    progress: AtomicU64,
    /// RPCs currently being served on this node.
    inflight: AtomicI64,
    /// Armed watchdog threshold in ms (0 = no watchdog), for introspection.
    watchdog_ms: AtomicU32,
}

impl NodeObs {
    pub fn new(node: u32, enabled: bool) -> Arc<NodeObs> {
        let registry = MetricsRegistry::new(node);
        let stages = std::array::from_fn(|i| {
            registry.histogram("kera.trace.stage", &[("stage", Stage::ALL[i].name())])
        });
        if enabled {
            // Lock wait-time accounting is process-global in the
            // parking_lot shim; the first enabled node arms it.
            parking_lot::set_contention_timing(true);
        }
        Arc::new(NodeObs {
            node,
            enabled,
            registry,
            recorder: FlightRecorder::new(node, flightrec::DEFAULT_CAPACITY),
            stages,
            next_id: AtomicU64::new(1),
            slow: SlowTraceStore::new(slowtrace::PER_STAGE),
            progress: AtomicU64::new(0),
            inflight: AtomicI64::new(0),
            watchdog_ms: AtomicU32::new(0),
        })
    }

    /// A handle that records nothing (observability off).
    pub fn disabled(node: u32) -> Arc<NodeObs> {
        Self::new(node, false)
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn node(&self) -> u32 {
        self.node
    }

    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Latency histogram of one pipeline stage.
    pub fn stage_histogram(&self, stage: Stage) -> &Arc<LatencyHistogram> {
        &self.stages[stage as usize - 1]
    }

    /// The node's tail-sampled slow/errored span store.
    pub fn slow_traces(&self) -> &SlowTraceStore {
        &self.slow
    }

    /// Signals forward progress (work item completed). One relaxed add
    /// when observability is on, one branch when off.
    #[inline]
    pub fn bump_progress(&self) {
        if self.enabled {
            self.progress.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current progress heartbeat value.
    pub fn progress_counter(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    /// Marks one RPC as being served (paired with [`inflight_exit`]).
    ///
    /// [`inflight_exit`]: NodeObs::inflight_exit
    #[inline]
    pub fn inflight_enter(&self) {
        if self.enabled {
            self.inflight.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn inflight_exit(&self) {
        if self.enabled {
            self.inflight.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// RPCs currently being served (clamped to ≥ 0).
    pub fn inflight(&self) -> u32 {
        self.inflight.load(Ordering::Relaxed).max(0) as u32
    }

    /// Records the armed watchdog threshold so introspection can report
    /// it (0 = no watchdog on this node).
    pub fn set_watchdog_ms(&self, ms: u32) {
        self.watchdog_ms.store(ms, Ordering::Relaxed);
    }

    pub fn watchdog_ms(&self) -> u32 {
        self.watchdog_ms.load(Ordering::Relaxed)
    }

    #[inline]
    fn next_id(&self) -> u64 {
        // Node in the high bits (offset so id 0 still yields nonzero),
        // per-node counter below: unique across the cluster.
        (u64::from(self.node) + 1) << 40 | self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Starts a new trace rooted at a new span (inert when disabled).
    pub fn root_span(self: &Arc<Self>, stage: Stage) -> Span {
        if !self.enabled {
            return Span::inert();
        }
        let trace_id = self.next_id();
        self.span_inner(stage, trace_id, 0)
    }

    /// A child span of `parent`; inert when disabled or `parent` is
    /// untraced.
    pub fn span(self: &Arc<Self>, stage: Stage, parent: TraceContext) -> Span {
        if !self.enabled || parent.is_none() {
            return Span::inert();
        }
        self.span_inner(stage, parent.trace_id, parent.span_id)
    }

    /// A child of the calling thread's current context, or a new root if
    /// there is none. What `RpcClient::call` uses.
    pub fn span_or_root(self: &Arc<Self>, stage: Stage) -> Span {
        let cur = trace::current();
        if cur.is_some() {
            self.span(stage, cur)
        } else {
            self.root_span(stage)
        }
    }

    fn span_inner(self: &Arc<Self>, stage: Stage, trace_id: u64, parent: u64) -> Span {
        Span {
            obs: Some(Arc::clone(self)),
            trace_id,
            span_id: self.next_id(),
            parent,
            stage,
            opcode: 0,
            aux: 0,
            start_ns: flightrec::now_ns(),
            error: false,
        }
    }

    /// Records an instant event (duration 0) under `parent`. No-op when
    /// disabled or untraced.
    pub fn event(&self, stage: Stage, parent: TraceContext, opcode: u8, aux: u64) {
        if !self.enabled || parent.is_none() {
            return;
        }
        self.recorder.record(&EventRecord {
            time_ns: flightrec::now_ns(),
            dur_ns: 0,
            trace_id: parent.trace_id,
            span_id: self.next_id(),
            parent_span_id: parent.span_id,
            node: self.node,
            stage: stage as u8,
            opcode,
            aux,
        });
    }
}

/// An in-flight span; recording happens on drop (or [`Span::finish`]).
/// Inert spans (observability off, untraced parent) cost a branch.
pub struct Span {
    obs: Option<Arc<NodeObs>>,
    trace_id: u64,
    span_id: u64,
    parent: u64,
    stage: Stage,
    opcode: u8,
    aux: u64,
    start_ns: u64,
    error: bool,
}

impl Span {
    /// A span that records nothing.
    pub fn inert() -> Span {
        Span {
            obs: None,
            trace_id: 0,
            span_id: 0,
            parent: 0,
            stage: Stage::RpcCall,
            opcode: 0,
            aux: 0,
            start_ns: 0,
            error: false,
        }
    }

    #[inline]
    pub fn is_recording(&self) -> bool {
        self.obs.is_some()
    }

    /// The context children of this span should use as their parent
    /// ([`TraceContext::NONE`] for inert spans).
    #[inline]
    pub fn context(&self) -> TraceContext {
        TraceContext { trace_id: self.trace_id, span_id: self.span_id }
    }

    #[inline]
    pub fn set_opcode(&mut self, opcode: u8) {
        self.opcode = opcode;
    }

    #[inline]
    pub fn set_aux(&mut self, aux: u64) {
        self.aux = aux;
    }

    /// Marks the span as errored: it is force-sampled into the node's
    /// slow-trace store regardless of duration.
    #[inline]
    pub fn set_error(&mut self) {
        self.error = true;
    }

    /// Explicit end (drop does the same).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(obs) = self.obs.take() else { return };
        let dur_ns = flightrec::now_ns().saturating_sub(self.start_ns);
        obs.stages[self.stage as usize - 1].record_ns(dur_ns);
        let record = EventRecord {
            time_ns: self.start_ns,
            dur_ns,
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_span_id: self.parent,
            node: obs.node,
            stage: self.stage as u8,
            opcode: self.opcode,
            aux: self.aux,
        };
        obs.recorder.record(&record);
        obs.slow.offer(&record, self.error);
    }
}

/// Process-wide lock contention as a snapshot: per-class wait-time
/// histograms (`kera.lock.wait{class=...}`, shim buckets share the
/// `LatencyHistogram` convention) plus contended-acquisition counters
/// (`kera.lock.contended{class=...}`). The underlying table is global to
/// the process, not per node — merge this once per scrape, not once per
/// node, or classes double-count.
pub fn lock_contention_snapshot() -> RegistrySnapshot {
    let mut snap = RegistrySnapshot::default();
    for c in parking_lot::contention_snapshot() {
        let labels = [("class", c.class)];
        snap.counters.insert(MetricKey::new("kera.lock.contended", &labels), c.contended);
        snap.histograms.insert(
            MetricKey::new("kera.lock.wait", &labels),
            HistogramSnapshot {
                buckets: c.buckets,
                count: c.contended,
                sum_ns: c.wait_sum_ns,
                max_ns: c.wait_max_ns,
            },
        );
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_records_nothing() {
        let obs = NodeObs::disabled(1);
        assert!(!obs.enabled());
        let span = obs.root_span(Stage::Append);
        assert!(!span.is_recording());
        assert!(span.context().is_none());
        drop(span);
        obs.event(Stage::RpcRetry, TraceContext { trace_id: 1, span_id: 1 }, 0, 0);
        assert_eq!(obs.recorder().recorded(), 0);
        assert_eq!(obs.stage_histogram(Stage::Append).count(), 0);
    }

    #[test]
    fn root_and_child_spans_link() {
        let obs = NodeObs::new(5, true);
        let root = obs.root_span(Stage::RpcCall);
        let root_ctx = root.context();
        assert!(root_ctx.is_some());
        let child = obs.span(Stage::Append, root_ctx);
        let child_ctx = child.context();
        assert_eq!(child_ctx.trace_id, root_ctx.trace_id);
        assert_ne!(child_ctx.span_id, root_ctx.span_id);
        drop(child);
        drop(root);

        let events = obs.recorder().read();
        assert_eq!(events.len(), 2);
        let root_ev = events.iter().find(|e| e.span_id == root_ctx.span_id).unwrap();
        let child_ev = events.iter().find(|e| e.span_id == child_ctx.span_id).unwrap();
        assert_eq!(root_ev.parent_span_id, 0);
        assert_eq!(child_ev.parent_span_id, root_ctx.span_id);
        assert_eq!(child_ev.stage(), Some(Stage::Append));
        assert_eq!(obs.stage_histogram(Stage::Append).count(), 1);
        assert_eq!(obs.stage_histogram(Stage::RpcCall).count(), 1);
    }

    #[test]
    fn span_of_untraced_parent_is_inert() {
        let obs = NodeObs::new(2, true);
        let span = obs.span(Stage::Append, TraceContext::NONE);
        assert!(!span.is_recording());
    }

    #[test]
    fn span_or_root_uses_thread_context() {
        let obs = NodeObs::new(3, true);
        let outer = obs.root_span(Stage::RpcServe);
        {
            let _g = trace::enter(outer.context());
            let inner = obs.span_or_root(Stage::RpcCall);
            assert_eq!(inner.context().trace_id, outer.context().trace_id);
        }
        let fresh = obs.span_or_root(Stage::RpcCall);
        assert_ne!(fresh.context().trace_id, outer.context().trace_id);
    }

    #[test]
    fn events_record_into_ring() {
        let obs = NodeObs::new(4, true);
        let root = obs.root_span(Stage::RpcCall);
        obs.event(Stage::RpcDedupHit, root.context(), 3, 42);
        let events = obs.recorder().read();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].dur_ns, 0);
        assert_eq!(events[0].aux, 42);
        assert_eq!(events[0].parent_span_id, root.context().span_id);
    }

    #[test]
    fn ids_are_unique_across_nodes() {
        let a = NodeObs::new(1, true);
        let b = NodeObs::new(2, true);
        let sa = a.root_span(Stage::RpcCall);
        let sb = b.root_span(Stage::RpcCall);
        assert_ne!(sa.context().trace_id, sb.context().trace_id);
        assert_ne!(sa.context().span_id, sb.context().span_id);
    }

    #[test]
    fn stage_histograms_appear_in_registry() {
        let obs = NodeObs::new(6, true);
        obs.root_span(Stage::Flush).finish();
        let snap = obs.registry().snapshot();
        let hs = snap.histogram_sum("kera.trace.stage", &[("stage", "flush")]);
        assert_eq!(hs.count, 1);
    }
}
