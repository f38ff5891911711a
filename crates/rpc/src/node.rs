//! The node runtime: delivery on arrival + worker pool (RAMCloud's worker
//! half, which KerA borrows — paper §IV, §V-E — without its NIC poller).
//!
//! A node has no receiving thread of its own: its transport hands every
//! arriving frame to [`Deliver::deliver`] on the thread that already holds
//! it, or to [`Deliver::receive`] on one that exists to receive (a TCP
//! reader). **Requests** are admitted against the at-most-once state and
//! served by the node's [`Service`] right there in `receive`; `deliver`
//! queues them for a pool of *worker* threads. **Responses** go into
//! their call's pending slot, and the slot's waiter is unparked — a
//! wake-up says "look again", the slot holds the data, so a thread parks
//! in one place for all its calls. The one rule: delivery never blocks
//! and holds no lock across a send or an unpark, and runs a handler only
//! on a thread that exists to receive. It holds because no handler
//! blocks: one that waits keeps its request's [`Reply`], sent by whoever
//! completes the request (a call waited on in `receive` is a debug
//! assertion failure).
//!
//! Every call is issued with its budget and driven by its node's timers:
//! its slot in `rpc.pending` holds its transmissions, its `(due, id)`
//! timer and where its outcome goes, and the node's workers retransmit it
//! and end it at its budget between requests. The outcome goes to a
//! waiter — a [`PendingCall`] only waits: `call_async` hands one out, and
//! a synchronous [`RpcClient::call`] is `call_async(..).wait(..)` — or to
//! the completion of a call nobody waits on
//! ([`RpcClient::call_detached`]). Every transmission of a logical call
//! reuses the **same request id**, and the server keeps a bounded cache
//! of completed responses keyed by `(caller, request_id)` (RAMCloud's
//! RIFL discipline): a retransmit whose original executed but whose
//! response was lost is answered from the cache instead of being
//! re-executed, making retried RPCs at-most-once even for non-idempotent
//! handlers. Every transmission carries the budget left so servers can
//! drop queued work whose caller has already given up.
//!
//! The same timers are the node's one clock for anything else: a
//! one-shot [`Deliver::timer`] — a purgatory's expiry
//! ([`Reply::timer`]), a service's own clock ([`RpcClient::timer`]), a
//! frame the fault plan delays — sits on them too
//! and runs on one of the node's workers, under no lock; a node that
//! closes drops the ones that have not run.

use std::cell::Cell;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::Thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use kera_common::config::RetryPolicy;
use kera_common::ids::NodeId;
use kera_common::metrics::Counter;
use kera_common::rng::SplitMix64;
use kera_common::{KeraError, Result};
use kera_obs::{MetricsRegistry, NodeObs, Span, Stage, TraceContext};
use kera_wire::frames::{Envelope, FrameKind, OpCode, StatusCode};
use parking_lot::{Mutex, MutexGuard};

use crate::transport::{Deliver, Timer, Transport};

/// A request being handled.
#[derive(Clone, Copy, Debug)]
pub struct RequestContext {
    pub from: NodeId,
    pub opcode: OpCode,
    pub request_id: u64,
    /// When the caller's budget for this request runs out (from the
    /// envelope's deadline field); `None` if the caller sent none.
    pub deadline: Option<Instant>,
    /// The server-side span of this request ([`TraceContext::NONE`] when
    /// untraced). Also installed as the serving thread's current context
    /// for the duration of the handler, so nested RPCs inherit it.
    pub trace: TraceContext,
}

impl RequestContext {
    /// Time left before the caller gives up; `None` when no deadline was
    /// propagated. Handlers issuing nested RPCs (broker → backup) should
    /// cap their own waits by this.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }
}

/// The application living on a node. Handlers run on a TCP reader or a
/// worker and must never block either: one that waits on an event keeps
/// its [`Reply`] ([`Service::serve`]).
pub trait Service: Send + Sync + 'static {
    fn handle(&self, ctx: &RequestContext, payload: Bytes) -> Result<Bytes>;

    /// Serves one request: `reply` is sent now, or later from any thread
    /// by whoever completes the request. The default answers with
    /// [`Service::handle`].
    fn serve(&self, ctx: &RequestContext, payload: Bytes, reply: Reply) {
        reply.send(self.handle(ctx, payload));
    }
}

/// The answer to one request, sent once, by any thread. Until then the
/// request is in flight: it counts in `inflight` and a retransmit of it is
/// dropped. Dropped unsent, it clears the in-flight mark as an expired
/// request does. It holds its node weakly: one that outlives its node is
/// sent nowhere.
pub struct Reply {
    node: Weak<NodeInner>,
    /// (caller, request id): the dedup key.
    key: (NodeId, u64),
    opcode: OpCode,
    /// The serve span; `None` once sent.
    span: Option<Span>,
}

impl Reply {
    /// What a worker did once a handler returned: finish the serve span,
    /// cache the reply for duplicates, send it.
    pub fn send(mut self, result: Result<Bytes>) {
        let (Some(inner), Some(mut span)) = (self.node.upgrade(), self.span.take()) else { return };
        let ((to, id), op) = (self.key, self.opcode);
        let reply = match result {
            Ok(payload) => Envelope::response(op, id, inner.id, StatusCode::Ok, payload),
            Err(e) => {
                // Errored serves are force-sampled into the slow-trace
                // store regardless of duration.
                span.set_error();
                Envelope::error_response(op, id, inner.id, &e)
            }
        };
        inner.obs.inflight_exit();
        span.set_aux(reply.payload.len() as u64);
        span.finish();
        inner.dedup.complete(self.key, reply.clone());
        inner.served[op as usize].inc();
        // The requester may be gone; that's its problem.
        let _ = inner.send(to, reply);
    }

    /// Runs `timer` once, no earlier than `due`, on a worker of the node
    /// this request came to ([`Deliver::timer`]); false once that node is
    /// gone.
    pub fn timer(&self, due: Instant, timer: impl FnOnce() + Send + 'static) -> bool {
        self.node.upgrade().is_some_and(|inner| inner.timer(due, Box::new(timer)))
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(inner) = self.span.take().and_then(|_| self.node.upgrade()) {
            inner.obs.inflight_exit();
            inner.dedup.abandon(self.key);
        }
    }
}

/// A [`Reply`] shared by the completions of [`RpcClient::call_all`]: the
/// last one dropped sends it.
struct Joined {
    reply: Option<Reply>,
    ok: Bytes,
    /// The first error a call ended with.
    err: OnceLock<KeraError>,
}

impl Drop for Joined {
    fn drop(&mut self) {
        if let Some(reply) = self.reply.take() {
            reply.send(match self.err.take() {
                Some(e) => Err(e),
                None => Ok(std::mem::take(&mut self.ok)),
            });
        }
    }
}

/// A service that rejects everything — used by pure client nodes.
pub struct NullService;

impl Service for NullService {
    fn handle(&self, ctx: &RequestContext, _payload: Bytes) -> Result<Bytes> {
        Err(KeraError::Protocol(format!("node serves no requests (got {:?})", ctx.opcode)))
    }
}

/// Verdict for an incoming request against the at-most-once state.
enum Admit {
    /// First sighting: execute it.
    New,
    /// Same request is being executed right now — drop the duplicate;
    /// the in-flight execution's response resolves the caller's pending
    /// slot for this id.
    Inflight,
    /// Already executed; resend the cached response without re-running
    /// the handler.
    Completed(Envelope),
}

/// At-most-once bookkeeping: which requests are executing, and a bounded
/// FIFO of completed responses for duplicate suppression. Bounded by
/// entry count and total cached payload bytes — eviction only matters
/// across the millisecond-scale retry window, so small caps suffice.
struct DedupState {
    inflight: std::collections::HashSet<(NodeId, u64)>,
    completed: HashMap<(NodeId, u64), Envelope>,
    order: VecDeque<(NodeId, u64)>,
    cached_bytes: usize,
}

struct DedupCache {
    state: Mutex<DedupState>,
}

impl DedupCache {
    const MAX_ENTRIES: usize = 1024;
    const MAX_BYTES: usize = 4 << 20;

    fn new() -> Self {
        Self {
            state: Mutex::named("rpc.dedup", DedupState {
                inflight: std::collections::HashSet::new(),
                completed: HashMap::new(),
                order: VecDeque::new(),
                cached_bytes: 0,
            }),
        }
    }

    fn admit(&self, key: (NodeId, u64)) -> Admit {
        let mut s = self.state.lock();
        if let Some(reply) = s.completed.get(&key) {
            return Admit::Completed(reply.clone());
        }
        if !s.inflight.insert(key) {
            return Admit::Inflight;
        }
        Admit::New
    }

    /// Records a finished request's response and evicts oldest entries
    /// past the caps.
    fn complete(&self, key: (NodeId, u64), reply: Envelope) {
        let mut s = self.state.lock();
        s.inflight.remove(&key);
        s.cached_bytes += reply.payload.len();
        if s.completed.insert(key, reply).is_none() {
            s.order.push_back(key);
        }
        while s.order.len() > Self::MAX_ENTRIES || s.cached_bytes > Self::MAX_BYTES {
            let Some(oldest) = s.order.pop_front() else { break };
            if let Some(evicted) = s.completed.remove(&oldest) {
                s.cached_bytes -= evicted.payload.len();
            }
        }
    }

    /// Clears the in-flight mark without caching anything (the request
    /// was dropped unexecuted, e.g. expired in queue) so a later retry
    /// is admitted as new.
    fn abandon(&self, key: (NodeId, u64)) {
        self.state.lock().inflight.remove(&key);
    }
}

/// What a call nobody waits on runs once, with its outcome (see
/// [`RpcClient::call_detached`] for on which thread) — never under
/// `rpc.pending`.
type Completion = Box<dyn FnOnce(Result<Bytes>) + Send>;

/// Where a call's outcome goes.
enum Outcome {
    /// A [`PendingCall`]'s: the thread the call's end unparks to collect
    /// it from [`Pending::ended`] — the issuing thread, or whichever
    /// thread last looked in [`PendingCall::poll`].
    Waiter(Thread),
    /// A call nobody waits on.
    Completion(Completion),
}

/// A call's place in `rpc.pending`, from issue until it ends or is
/// dropped.
struct Slot {
    call: Call,
    /// Its key in [`Pending::timers`]; `None` while it is being sent.
    due: Option<Instant>,
    outcome: Outcome,
}

/// Every call of a node in flight, when each is next due — to
/// retransmit, or to end at its budget — and the outcomes its waiters
/// have yet to collect; and the node's one-shot timers.
#[derive(Default)]
struct Pending {
    slots: HashMap<u64, Slot>,
    /// `(due, id)` of every call in flight not being sent and of every
    /// one-shot timer.
    timers: BTreeSet<(Instant, u64)>,
    /// What each one-shot timer runs, by its id (from `next_id`, as a
    /// call's): an id on `timers` with no slot is one of these.
    oneshots: HashMap<u64, Timer>,
    /// What each waited call that has ended came to.
    ended: HashMap<u64, Result<Bytes>>,
    /// When the node's idle workers next look at the timers unwoken;
    /// `None`: not before one is woken.
    looks_at: Option<Instant>,
}

impl Pending {
    /// Takes call `id` out, timer and all.
    fn take(&mut self, id: u64) -> Option<Slot> {
        let slot = self.slots.remove(&id)?;
        if let Some(due) = slot.due {
            self.timers.remove(&(due, id));
        }
        Some(slot)
    }

    /// Puts `id` on the timers at `due`. Returns whether a worker is to
    /// be woken for it: workers that look by `latest` need no wake.
    fn arm(&mut self, id: u64, due: Instant, latest: Instant) -> bool {
        self.timers.insert((due, id));
        let wake = self.looks_at.is_none_or(|at| latest < at);
        if wake {
            self.looks_at = Some(due);
        }
        wake
    }
}

/// What the worker pool's queue carries.
enum Work {
    Request(WorkItem),
    /// A call is due before the idle workers next look: look now.
    Timers,
    /// Shutdown; each worker passes it on to the next as it exits.
    Stop,
}

/// A request queued for the worker pool, with its absolute expiry (from
/// the envelope's propagated deadline) resolved at receipt time.
struct WorkItem {
    env: Envelope,
    expires: Option<Instant>,
}

thread_local! {
    /// The node whose worker this thread is (its `NodeInner`'s address):
    /// such a thread looks at the node's timers before it next blocks.
    static WORKER_OF: Cell<usize> = const { Cell::new(0) };
    /// Set while this thread runs [`Deliver::receive`]: a request it
    /// admits is served right here, and a call waited on here is a debug
    /// assertion failure.
    static RECEIVING: Cell<bool> = const { Cell::new(false) };
}

struct NodeInner {
    id: NodeId,
    /// This node, for the [`Reply`]s of requests served on delivery.
    me: Weak<NodeInner>,
    /// What a TCP reader serves a request with; the workers hold it.
    service: Weak<dyn Service>,
    transport: Arc<dyn Transport>,
    pending: Mutex<Pending>,
    work_tx: Sender<Work>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    retry: RetryPolicy,
    dedup: DedupCache,
    /// This node's observability handle (disabled unless the runtime was
    /// started with [`NodeRuntime::start_with_obs`]).
    obs: Arc<NodeObs>,
    /// RPCs served (requests handled), one counter per opcode indexed by
    /// its byte — `kera.rpc.requests_served{op=<opcode>}`.
    served: Vec<Arc<Counter>>,
    /// RPCs issued from this node — `kera.rpc.calls_issued`.
    pub calls_issued: Arc<Counter>,
    /// Retransmissions performed by this node's calls —
    /// `kera.rpc.retries_sent`.
    pub retries_sent: Arc<Counter>,
    /// Duplicate requests suppressed by the at-most-once cache —
    /// `kera.rpc.requests_deduped`.
    pub requests_deduped: Arc<Counter>,
    /// Requests dropped unexecuted because their deadline passed in
    /// queue — `kera.rpc.requests_expired`.
    pub requests_expired: Arc<Counter>,
}

/// `kera.rpc.requests_served`, one counter per opcode, indexed by the
/// opcode's byte. An unassigned byte gets a counter of its own that no
/// request reaches, so a served request is one index and one add.
fn served_counters(reg: &MetricsRegistry) -> Vec<Arc<Counter>> {
    let len = OpCode::TABLE.iter().map(|&(op, ..)| op as usize + 1).max().unwrap_or(0);
    let mut served: Vec<Arc<Counter>> = (0..len).map(|_| Arc::new(Counter::new())).collect();
    for &(op, ..) in OpCode::TABLE {
        served[op as usize] = reg.counter("kera.rpc.requests_served", &[("op", &format!("{op:?}"))]);
    }
    served
}

/// A running node: its workers, fed by whatever thread delivers a frame.
/// Dropping the runtime shuts the node down and joins its threads.
pub struct NodeRuntime {
    inner: Arc<NodeInner>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl NodeRuntime {
    /// Starts a node on `transport` serving `service` with `workers`
    /// handler threads and the default [`RetryPolicy`].
    pub fn start(
        transport: Arc<dyn Transport>,
        service: Arc<dyn Service>,
        workers: usize,
    ) -> NodeRuntime {
        let obs = NodeObs::disabled(transport.local().raw());
        Self::start_with_obs(transport, service, workers, RetryPolicy::default(), obs)
    }

    /// Starts a node with an explicit retry/backoff policy for its calls
    /// and an explicit observability handle; its RPC counters register in
    /// the handle's metrics registry, and (when the handle is enabled)
    /// every served request records a span.
    pub fn start_with_obs(
        transport: Arc<dyn Transport>,
        service: Arc<dyn Service>,
        workers: usize,
        retry: RetryPolicy,
        obs: Arc<NodeObs>,
    ) -> NodeRuntime {
        assert!(workers >= 1, "a node needs at least one worker");
        // lint: allow(no-panic) — construction-time config validation;
        // a malformed retry policy must fail fast at node startup.
        retry.validate().expect("invalid retry policy");
        let (work_tx, work_rx) = channel::unbounded();
        let inner = Arc::new_cyclic(|me| NodeInner {
            id: transport.local(),
            me: Weak::clone(me),
            service: Arc::downgrade(&service),
            transport,
            pending: Mutex::named("rpc.pending", Pending::default()),
            work_tx,
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            retry,
            dedup: DedupCache::new(),
            served: served_counters(obs.registry()),
            calls_issued: obs.registry().counter("kera.rpc.calls_issued", &[]),
            retries_sent: obs.registry().counter("kera.rpc.retries_sent", &[]),
            requests_deduped: obs.registry().counter("kera.rpc.requests_deduped", &[]),
            requests_expired: obs.registry().counter("kera.rpc.requests_expired", &[]),
            obs,
        });

        let mut threads = Vec::with_capacity(workers);
        for w in 0..workers {
            let inner = Arc::clone(&inner);
            let service = Arc::clone(&service);
            let work_rx = work_rx.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("worker-{}-{}", inner.id.raw(), w))
                    .spawn(move || worker_loop(inner, service, work_rx))
                    // lint: allow(no-panic) — spawn failure at node startup is
                    // fatal by design; the node never existed.
                    .expect("spawn worker"),
            );
        }
        // Last: from here on peers reach the node, and frames flow.
        inner.transport.bind(Arc::downgrade(&inner) as Weak<dyn Deliver>);
        NodeRuntime { inner, threads }
    }

    /// A cheap cloneable handle for issuing RPCs from any thread.
    pub fn client(&self) -> RpcClient {
        RpcClient { inner: Arc::clone(&self.inner) }
    }

    /// Requests handled so far, every opcode.
    pub fn requests_served(&self) -> u64 {
        self.inner.served.iter().map(|c| c.get()).sum()
    }

    /// Duplicate requests answered from the at-most-once cache or
    /// suppressed while their original was still executing.
    pub fn requests_deduped(&self) -> u64 {
        self.inner.requests_deduped.get()
    }

    /// Requests dropped unexecuted because their propagated deadline
    /// expired while queued.
    pub fn requests_expired(&self) -> u64 {
        self.inner.requests_expired.get()
    }

    /// Shuts the node down and joins all threads (what dropping it does).
    pub fn shutdown(self) {}

}

impl Drop for NodeRuntime {
    fn drop(&mut self) {
        self.inner.closed();
        self.inner.transport.close();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl NodeInner {
    /// A closed (shut down / crashed) node no longer transmits.
    fn send(&self, to: NodeId, env: Envelope) -> Result<()> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(KeraError::ShuttingDown);
        }
        self.transport.send(to, env)
    }

    /// Whether this thread is one of this node's workers.
    fn on_worker(&self) -> bool {
        WORKER_OF.with(Cell::get) == self as *const NodeInner as usize
    }

    /// A timer was armed due before the idle workers next look: a worker
    /// of this node looks before it next blocks; any other thread wakes
    /// one.
    fn wake(&self) {
        if !self.on_worker() {
            let _ = self.work_tx.send(Work::Timers);
        }
    }

    /// Ends call `id` with `result`: its waiter is unparked or its
    /// completion runs, with the `rpc.pending` guard dropped first.
    fn end(&self, mut pending: MutexGuard<'_, Pending>, id: u64, result: Result<Bytes>) {
        let Some(Slot { call, outcome, .. }) = pending.take(id) else { return };
        match outcome {
            Outcome::Waiter(waiter) => {
                pending.ended.insert(id, result);
                drop(pending);
                call.finish();
                waiter.unpark();
            }
            Outcome::Completion(done) => {
                drop(pending);
                call.finish();
                done(result);
            }
        }
    }

    /// What a worker does before it blocks: fires every call and runs
    /// every one-shot timer that is due, then says when it next looks —
    /// at the next timer; with none left, at the instant it was to look
    /// anyway, so that calls issued one after another, each ending before
    /// its timer, wake it once, not once each.
    fn fire_due(&self) -> Option<Instant> {
        loop {
            let now = Instant::now();
            let (id, oneshot) = {
                let mut pending = self.pending.lock();
                match pending.timers.first().copied() {
                    Some((due, id)) if due <= now => {
                        pending.timers.pop_first();
                        match pending.slots.get_mut(&id) {
                            Some(slot) => {
                                slot.due = None;
                                (id, None)
                            }
                            None => (id, pending.oneshots.remove(&id)),
                        }
                    }
                    next => {
                        let idle = pending.looks_at.filter(|&at| at > now);
                        pending.looks_at = next.map(|(due, _)| due).or(idle);
                        return pending.looks_at;
                    }
                }
            };
            if let Some(run) = oneshot {
                run();
            } else {
                self.fire(id, now);
            }
        }
    }

    /// Call `id` (off the timers) is due: past its budget it ends with
    /// `Timeout`; else it is transmitted — stamped under `rpc.pending`,
    /// sent without it — and due again at its next retransmit or the end
    /// of its budget, unless the send failed for good. Returns whether a
    /// worker is to be woken for it: it is due before they next look.
    fn fire(&self, id: u64, now: Instant) -> bool {
        let mut pending = self.pending.lock();
        let Some(slot) = pending.slots.get_mut(&id) else { return false };
        let Some(env) = slot.call.stamp(self, now) else {
            self.end(pending, id, Err(KeraError::Timeout { op: "rpc" }));
            return false;
        };
        let to = slot.call.to;
        drop(pending);
        let sent = self.send(to, env);
        let mut pending = self.pending.lock();
        // Gone: answered (or dropped) while it was being sent.
        let Some(slot) = pending.slots.get_mut(&id) else { return false };
        let next = slot.call.retransmit_after(&self.retry, now, sent.is_ok());
        // A send error ends the call unless it is retriable and another
        // send is scheduled (it then just consumed an attempt).
        if let Some(e) = sent.err().filter(|e| !e.is_retriable() || next.is_none()) {
            self.end(pending, id, Err(e));
            return false;
        }
        // With no retransmit left it is due when its budget ends. Workers
        // that look by the latest instant its jitter allows need no wake:
        // calls issued one after another, jittered either way, wake none.
        let (due, latest) = next.unwrap_or((slot.call.deadline, slot.call.deadline));
        slot.due = Some(due);
        pending.arm(id, due, latest)
    }
}

impl Deliver for NodeInner {
    /// `rpc.pending` / `rpc.dedup` are released before anything is sent
    /// (the replay below runs the *peer's* delivery on this stack), before
    /// a waiter is unparked and before a detached call's completion runs.
    fn deliver(&self, env: Envelope) {
        if self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match env.kind {
            FrameKind::Request => match self.dedup.admit((env.from, env.request_id)) {
                Admit::New => {
                    let expires = (env.deadline_micros > 0)
                        .then(|| Instant::now() + Duration::from_micros(env.deadline_micros));
                    // Served here on a thread that exists to receive;
                    // queued from a sender's stack, a release, a timer.
                    if let Some(service) = RECEIVING.get().then(|| self.service.upgrade()).flatten() {
                        return serve(self, &*service, WorkItem { env, expires });
                    }
                    let _ = self.work_tx.send(Work::Request(WorkItem { env, expires }));
                }
                duplicate => {
                    self.requests_deduped.inc();
                    self.obs.event(
                        Stage::RpcDedupHit,
                        TraceContext { trace_id: env.trace_id, span_id: env.span_id },
                        env.opcode as u8,
                        env.request_id,
                    );
                    // Already executed and the response was lost: replay
                    // the cached reply. Still executing: its response
                    // will resolve this id's pending slot.
                    if let Admit::Completed(reply) = duplicate {
                        let _ = self.send(env.from, reply);
                    }
                }
            },
            FrameKind::Response => {
                // (No slot: the call ended or was dropped — the stale
                // response is dropped. A duplicate is the same bytes.)
                let id = env.request_id;
                let result = env.check_status().map(|()| env.payload);
                self.end(self.pending.lock(), id, result);
            }
        }
    }

    fn receive(&self, env: Envelope) {
        RECEIVING.set(true);
        self.deliver(env);
        RECEIVING.set(false);
    }

    /// Shutdown and crash end here: later deliveries are dropped, the
    /// workers find the stop marker behind the queued work, every pending
    /// call fails — a waiter wakes to find its slot gone, a completion
    /// runs with `Disconnected` on this thread — and the one-shot timers
    /// that have not run are dropped, after `rpc.pending` is released.
    fn closed(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.work_tx.send(Work::Stop);
        let pending = std::mem::take(&mut *self.pending.lock());
        for Slot { call, outcome, .. } in pending.slots.into_values() {
            call.finish();
            match outcome {
                Outcome::Waiter(waiter) => waiter.unpark(),
                Outcome::Completion(done) => done(Err(KeraError::Disconnected(self.id))),
            }
        }
    }

    /// On the calls' timers, under the same wake rule; refused once the
    /// node has closed — looked at under the lock `closed` empties them
    /// under.
    fn timer(&self, due: Instant, timer: Timer) -> bool {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut pending = self.pending.lock();
        if self.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        pending.oneshots.insert(id, timer);
        let wake = pending.arm(id, due, due);
        drop(pending);
        if wake {
            self.wake();
        }
        true
    }
}

/// A worker serves requests and, between them, the node's calls' timers:
/// it sleeps until the next one is due, never longer.
fn worker_loop(inner: Arc<NodeInner>, service: Arc<dyn Service>, work_rx: Receiver<Work>) {
    WORKER_OF.with(|w| w.set(Arc::as_ptr(&inner) as usize));
    loop {
        let work = match inner.fire_due() {
            Some(due) => work_rx.recv_timeout(due.saturating_duration_since(Instant::now())),
            None => work_rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match work {
            Ok(Work::Request(item)) => serve(&inner, &*service, item),
            Ok(Work::Timers) | Err(RecvTimeoutError::Timeout) => {}
            Ok(Work::Stop) | Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    let _ = inner.work_tx.send(Work::Stop);
}

fn serve(inner: &NodeInner, service: &dyn Service, item: WorkItem) {
    let env = item.env;
    let key = (env.from, env.request_id);
    let sender_ctx = TraceContext { trace_id: env.trace_id, span_id: env.span_id };
    if item.expires.is_some_and(|expires| Instant::now() >= expires) {
        // The caller's budget ran out while this sat in queue — skip the
        // work; clearing the in-flight mark (without a cached response)
        // lets a later retry execute fresh.
        inner.dedup.abandon(key);
        inner.requests_expired.inc();
        inner.obs.event(Stage::RpcExpired, sender_ctx, env.opcode as u8, env.request_id);
        return;
    }
    // The serve span is parented to the sender's span; making it the
    // thread's current context means any nested RPC the handler issues
    // (broker → backup) parents to this execution.
    let mut span = inner.obs.span(Stage::RpcServe, sender_ctx);
    span.set_opcode(env.opcode as u8);
    let ctx = RequestContext {
        from: env.from,
        opcode: env.opcode,
        request_id: env.request_id,
        deadline: item.expires,
        trace: span.context(),
    };
    inner.obs.inflight_enter();
    let reply = Reply { node: Weak::clone(&inner.me), key, opcode: env.opcode, span: Some(span) };
    let _in_trace = kera_obs::enter(ctx.trace);
    service.serve(&ctx, env.payload, reply);
}

/// Handle for issuing RPCs from a node.
#[derive(Clone)]
pub struct RpcClient {
    inner: Arc<NodeInner>,
}

impl RpcClient {
    /// This node's observability handle.
    pub fn obs(&self) -> &Arc<NodeObs> {
        &self.inner.obs
    }

    /// Issues a request and hands back what waits on it. The node
    /// retransmits it and ends it with `Timeout` once `budget` is spent;
    /// `budget` is also the deadline its transmissions carry.
    pub fn call_async(
        &self,
        to: NodeId,
        opcode: OpCode,
        payload: Bytes,
        budget: Duration,
    ) -> PendingCall {
        let call = self.new_call(to, opcode, payload, budget);
        let id = call.env.request_id;
        self.start(call, Outcome::Waiter(std::thread::current()));
        PendingCall { inner: Arc::clone(&self.inner), id }
    }

    /// A new logical call: its request id, span and envelope. `budget` is
    /// the overall time it may take, propagated to the server as the
    /// request's deadline.
    fn new_call(&self, to: NodeId, opcode: OpCode, payload: Bytes, budget: Duration) -> Call {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.inner.calls_issued.inc();
        // One span covers the whole logical call, so a retried produce
        // stays one causal tree on the server side. It is a child of the
        // issuing thread's current context (e.g. the serve span of the
        // request this call is nested under), or a fresh root trace.
        let mut span = self.inner.obs.span_or_root(Stage::RpcCall);
        span.set_opcode(opcode as u8);
        let trace = span.context();
        let env = Envelope::request(opcode, id, self.inner.id, payload)
            .with_trace(trace.trace_id, trace.span_id);
        Call {
            to,
            env,
            attempts: 0,
            deadline: Instant::now() + budget,
            // Deterministic jitter: seeded by (node, call), independent
            // of thread interleavings.
            jitter: SplitMix64::new(u64::from(self.inner.id.raw()) << 32 ^ id),
            span,
        }
    }

    /// Registers the call's slot and makes its first transmission. A call
    /// issued once its node has closed is never registered: its waiter
    /// finds no slot, its completion runs at once, `Disconnected` both.
    fn start(&self, call: Call, outcome: Outcome) {
        let id = call.env.request_id;
        {
            let mut pending = self.inner.pending.lock();
            // Looked at under the lock `closed` empties the map under: a
            // call registered here is one it ends.
            if self.inner.shutdown.load(Ordering::SeqCst) {
                drop(pending);
                if let Outcome::Completion(done) = outcome {
                    done(Err(KeraError::Disconnected(self.inner.id)));
                }
                return;
            }
            pending.slots.insert(id, Slot { call, due: None, outcome });
        }
        if self.inner.fire(id, Instant::now()) {
            self.inner.wake();
        }
    }

    /// Issues a call nobody waits on. `done` runs once with its outcome:
    /// the reply, on the thread that delivers it; `Timeout` once `budget`
    /// is spent, or the error of a send that failed for good, on the
    /// thread that made the send (one of this node's workers, or this
    /// one); `Disconnected` when this node shuts down or crashes first.
    /// Like every call it is retransmitted by this node's workers, and
    /// `budget` is also the deadline its transmissions carry.
    pub fn call_detached(
        &self,
        to: NodeId,
        opcode: OpCode,
        payload: Bytes,
        budget: Duration,
        done: impl FnOnce(Result<Bytes>) + Send + 'static,
    ) {
        let call = self.new_call(to, opcode, payload, budget);
        self.start(call, Outcome::Completion(Box::new(done)));
    }

    /// Issues `calls` detached, each with `budget`, and answers `reply`
    /// once the last has ended: with the first error among them, or with
    /// `ok`. With no calls it answers `ok` at once.
    pub fn call_all(
        &self,
        calls: impl IntoIterator<Item = (NodeId, OpCode, Bytes)>,
        budget: Duration,
        reply: Reply,
        ok: Bytes,
    ) {
        let joined = Arc::new(Joined { reply: Some(reply), ok, err: OnceLock::new() });
        for (to, opcode, payload) in calls {
            let joined = Arc::clone(&joined);
            self.call_detached(to, opcode, payload, budget, move |result| {
                if let Err(e) = result {
                    let _ = joined.err.set(e);
                }
            });
        }
    }

    /// Runs `timer` once, no earlier than `due`, on one of this node's
    /// workers ([`Deliver::timer`]); false once the node has closed.
    pub fn timer(&self, due: Instant, timer: impl FnOnce() + Send + 'static) -> bool {
        self.inner.timer(due, Box::new(timer))
    }

    /// Synchronous call: a [`PendingCall`] with budget `timeout`, waited
    /// on for as long.
    ///
    /// An error **status** in a response is returned immediately, even
    /// for transient error kinds: it proves the handler executed, and a
    /// same-id retry would only replay the cached outcome. Whether to
    /// re-execute is the application's decision, not the RPC layer's.
    pub fn call(
        &self,
        to: NodeId,
        opcode: OpCode,
        payload: Bytes,
        timeout: Duration,
    ) -> Result<Bytes> {
        self.call_async(to, opcode, payload, timeout).wait(timeout)
    }

    /// Calls whichever of `replicas` currently leads the replicated
    /// coordinator, following `NotLeader` redirects and riding out
    /// election windows until `timeout` expires.
    ///
    /// Probing starts at `preferred` (the caller's cached leader) and
    /// rotates through the replica set: a `NotLeader` response jumps to
    /// the replica's hint when it has one, a delivery failure (timeout,
    /// disconnect, shutdown) moves to the next replica, and any other
    /// error status proves the handler executed and is returned as-is.
    /// After a full fruitless rotation the probe sleeps briefly so an
    /// in-flight election can finish instead of being hammered.
    ///
    /// Returns the response payload and the node that served it, so the
    /// caller can cache the leader for its next call.
    pub fn call_leader(
        &self,
        replicas: &[NodeId],
        preferred: Option<NodeId>,
        opcode: OpCode,
        payload: Bytes,
        timeout: Duration,
    ) -> Result<(Bytes, NodeId)> {
        if replicas.is_empty() {
            return Err(KeraError::InvalidConfig("no coordinator replicas to call".into()));
        }
        let deadline = Instant::now() + timeout;
        // Cap each probe so a dead or partitioned replica cannot eat the
        // whole budget; `call` still retransmits within the probe.
        let probe_budget = self.inner.retry.attempt_timeout.max(Duration::from_millis(100));
        let mut target = preferred
            .and_then(|p| replicas.iter().position(|&r| r == p))
            .unwrap_or(0);
        let mut probes_since_progress = 0usize;
        let mut last_err = KeraError::Timeout { op: "call_leader" };
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(last_err);
            }
            let to = replicas[target];
            // lint: allow(no-hot-copy) — refcount clone per leader probe
            match self.call(to, opcode, payload.clone(), remaining.min(probe_budget)) {
                Ok(bytes) => return Ok((bytes, to)),
                Err(KeraError::NotLeader { hint, term: _ }) => {
                    last_err = KeraError::NotLeader { hint, term: 0 };
                    probes_since_progress += 1;
                    // Follow the hint when it points somewhere new;
                    // otherwise round-robin past the stale replica.
                    target = match hint.and_then(|h| replicas.iter().position(|&r| r == h)) {
                        Some(h) if h != target => h,
                        _ => (target + 1) % replicas.len(),
                    };
                }
                Err(e) if e.is_retriable() => {
                    last_err = e;
                    probes_since_progress += 1;
                    target = (target + 1) % replicas.len();
                }
                Err(e) => return Err(e),
            }
            if probes_since_progress >= replicas.len() {
                // A whole rotation without a leader: an election is in
                // flight. Yield a heartbeat-scale beat before re-probing.
                probes_since_progress = 0;
                let nap = Duration::from_millis(10)
                    .min(deadline.saturating_duration_since(Instant::now()));
                if !nap.is_zero() {
                    std::thread::sleep(nap);
                }
            }
        }
    }

    /// Retransmissions sent so far (sends of a call after its first).
    pub fn retries_sent(&self) -> u64 {
        self.inner.retries_sent.get()
    }

    /// Calls issued here that have neither ended nor been dropped.
    pub fn pending_calls(&self) -> usize {
        self.inner.pending.lock().slots.len()
    }
}

/// The transmissions of one logical call: the same request id every time,
/// the budget left stamped afresh on each, the next one scheduled by the
/// node's retry policy — one attempt timeout plus a jittered exponential
/// backoff step after the previous send, within `max_attempts` and the
/// call's budget. The node's timers drive them ([`NodeInner::fire`]).
struct Call {
    to: NodeId,
    /// The request as issued (no deadline); each transmission is a copy
    /// stamped with the budget left at that moment.
    env: Envelope,
    /// Sends so far (first transmission included).
    attempts: u32,
    /// End of the call's budget.
    deadline: Instant,
    jitter: SplitMix64,
    /// The client-side span of this call; recorded when the call ends
    /// (or when an abandoned call is dropped).
    span: Span,
}

impl Call {
    /// The next transmission, stamped with the budget *remaining* at
    /// `now`; `None` once the budget is spent (a zero deadline on the
    /// wire would read as "no deadline").
    fn stamp(&mut self, inner: &NodeInner, now: Instant) -> Option<Envelope> {
        let remaining = self.deadline.saturating_duration_since(now);
        if remaining.is_zero() {
            return None;
        }
        if self.attempts > 0 {
            inner.retries_sent.inc();
            inner.obs.event(
                Stage::RpcRetry,
                self.span.context(),
                self.env.opcode as u8,
                u64::from(self.attempts),
            );
        }
        self.attempts += 1;
        // The *overall* budget, not the attempt timeout: a timed-out
        // attempt only retransmits — the caller hasn't abandoned the
        // call, and the server must not drop the execution early.
        // lint: allow(no-hot-copy) — refcount clone kept for retransmits
        Some(self.env.clone().with_deadline(remaining))
    }

    /// When to retransmit after a transmission at `now`: the attempt
    /// timeout (skipped if the send itself failed) plus the backoff step
    /// jittered to [50%, 100%] — and the latest instant that window
    /// allows. `None` when the attempts are used up or the retransmit
    /// falls outside the call's budget.
    fn retransmit_after(
        &mut self,
        policy: &RetryPolicy,
        now: Instant,
        sent: bool,
    ) -> Option<(Instant, Instant)> {
        if self.attempts >= policy.max_attempts {
            return None;
        }
        let unit = self.jitter.next_u32() as f64 / u32::MAX as f64;
        let step = policy.backoff_for(self.attempts);
        let from = if sent { now + policy.attempt_timeout } else { now };
        let at = from + step.mul_f64(0.5 + 0.5 * unit);
        (at < self.deadline).then(|| (at, (from + step).min(self.deadline)))
    }

    /// Records the call's span, with its attempts, as it ends.
    fn finish(mut self) {
        self.span.set_aux(u64::from(self.attempts));
    }
}

/// A call its caller waits on. The call's node transmits it and ends it
/// (see [`Call`]); this handle only waits for its outcome. Dropped before
/// it is collected, it drops the call: slot, timer and outcome.
pub struct PendingCall {
    inner: Arc<NodeInner>,
    id: u64,
}

impl PendingCall {
    /// The call's outcome if it has ended, else `None`; never parks. From
    /// here on this thread is the one the call's end unparks — registered
    /// under the lock it looked under, so an end landing before it parks
    /// unparks it.
    pub fn poll(&mut self) -> Option<Result<Bytes>> {
        let mut pending = self.inner.pending.lock();
        if let Some(result) = pending.ended.remove(&self.id) {
            return Some(result);
        }
        match pending.slots.get_mut(&self.id) {
            Some(Slot { outcome: Outcome::Waiter(waiter), .. }) => {
                *waiter = std::thread::current();
                None
            }
            // Our own node shut down or crashed.
            _ => Some(Err(KeraError::Disconnected(self.inner.id))),
        }
    }

    /// Waits up to `timeout` without consuming the call: returns
    /// `Some(result)` once it has ended, `None` on timeout (the call
    /// stays pending and may be polled again; a zero timeout only looks).
    /// A worker of the call's node fires the node's due timers while it
    /// waits, so a node whose workers all wait still retransmits.
    pub fn poll_wait(&mut self, timeout: Duration) -> Option<Result<Bytes>> {
        debug_assert!(!RECEIVING.get(), "a handler or a completion waited on a receiving thread");
        let deadline = Instant::now() + timeout;
        loop {
            let due = if self.inner.on_worker() { self.inner.fire_due() } else { None };
            if let Some(result) = self.poll() {
                return Some(result);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let wake = due.map_or(deadline, |due| due.min(deadline));
            std::thread::park_timeout(wake.saturating_duration_since(now));
        }
    }

    /// Waits up to `timeout` for the response. On success returns the
    /// response payload; error statuses are converted back to
    /// [`KeraError`].
    pub fn wait(mut self, timeout: Duration) -> Result<Bytes> {
        self.poll_wait(timeout).unwrap_or(Err(KeraError::Timeout { op: "rpc" }))
    }
}

impl Drop for PendingCall {
    /// Drops the call: one abandoned before it ends must leave nothing
    /// behind for a reply that may never come. Its span records after
    /// `rpc.pending` is released.
    fn drop(&mut self) {
        let _slot = {
            let mut pending = self.inner.pending.lock();
            pending.ended.remove(&self.id);
            pending.take(self.id)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmem::InMemNetwork;
    use crate::testkit::Collector;

    /// Echoes the payload; `Shutdown` opcode returns an error; `Fetch`
    /// sleeps to simulate a slow handler.
    struct EchoService;

    impl Service for EchoService {
        fn handle(&self, ctx: &RequestContext, payload: Bytes) -> Result<Bytes> {
            match ctx.opcode {
                OpCode::Shutdown => Err(KeraError::ShuttingDown),
                OpCode::Fetch => {
                    std::thread::sleep(Duration::from_millis(200));
                    Ok(payload)
                }
                _ => Ok(payload),
            }
        }
    }

    /// Echoes, counting how often its handler ran.
    struct CountingService {
        hits: Arc<std::sync::atomic::AtomicU64>,
    }
    impl Service for CountingService {
        fn handle(&self, _ctx: &RequestContext, payload: Bytes) -> Result<Bytes> {
            self.hits.fetch_add(1, Ordering::SeqCst);
            Ok(payload)
        }
    }

    /// Node 2 as a client whose sends go through `plan`, retransmitting
    /// every `attempt_timeout` up to `max_attempts` sends.
    fn client_behind(
        net: &InMemNetwork,
        plan: &crate::faults::FaultPlan,
        max_attempts: u32,
        attempt_timeout: Duration,
    ) -> NodeRuntime {
        let transport = Arc::new(net.register(NodeId(2)));
        let transport = crate::faults::FaultInjector::new(transport, plan.clone());
        let retry = RetryPolicy {
            max_attempts,
            attempt_timeout,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(10),
        };
        NodeRuntime::start_with_obs(
            Arc::new(transport),
            Arc::new(NullService),
            1,
            retry,
            NodeObs::disabled(2),
        )
    }

    fn pair() -> (InMemNetwork, NodeRuntime, NodeRuntime) {
        let net = InMemNetwork::new();
        let server = NodeRuntime::start(
            Arc::new(net.register(NodeId(1))),
            Arc::new(EchoService),
            2,
        );
        let client = NodeRuntime::start(
            Arc::new(net.register(NodeId(2))),
            Arc::new(NullService),
            1,
        );
        (net, server, client)
    }

    #[test]
    fn roundtrip_call() {
        let (_net, _server, client) = pair();
        let got = client
            .client()
            .call(NodeId(1), OpCode::Ping, Bytes::from_static(b"hi"), Duration::from_secs(1))
            .unwrap();
        assert_eq!(&got[..], b"hi");
    }

    #[test]
    fn error_status_propagates() {
        let (_net, _server, client) = pair();
        let err = client
            .client()
            .call(NodeId(1), OpCode::Shutdown, Bytes::new(), Duration::from_secs(1))
            .unwrap_err();
        assert!(matches!(err, KeraError::ShuttingDown));
    }

    #[test]
    fn call_to_dead_node_fails_fast() {
        let (_net, _server, client) = pair();
        let err = client
            .client()
            .call(NodeId(42), OpCode::Ping, Bytes::new(), Duration::from_secs(1))
            .unwrap_err();
        assert!(matches!(err, KeraError::Disconnected(NodeId(42))));
    }

    #[test]
    fn timeout_when_server_is_slow() {
        let (_net, _server, client) = pair();
        let err = client
            .client()
            .call(NodeId(1), OpCode::Fetch, Bytes::new(), Duration::from_millis(20))
            .unwrap_err();
        assert!(matches!(err, KeraError::Timeout { .. }));
    }

    #[test]
    fn concurrent_calls_multiplex_on_one_link() {
        let (_net, server, client) = pair();
        let c = client.client();
        let calls: Vec<_> = (0..64u64)
            .map(|i| {
                let body = Bytes::from(i.to_le_bytes().to_vec());
                (i, c.call_async(NodeId(1), OpCode::Ping, body, Duration::from_secs(2)))
            })
            .collect();
        for (i, call) in calls {
            let got = call.wait(Duration::from_secs(2)).unwrap();
            assert_eq!(u64::from_le_bytes(got[..].try_into().unwrap()), i);
        }
        assert_eq!(server.requests_served(), 64);
    }

    #[test]
    fn calls_from_many_threads() {
        let (_net, _server, client) = pair();
        let c = client.client();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let body = Bytes::from(vec![t as u8, i as u8]);
                        let got = c
                            .call(NodeId(1), OpCode::Ping, body.clone(), Duration::from_secs(2))
                            .unwrap();
                        assert_eq!(got, body);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        // A service whose handler itself issues an RPC to another node —
        // the broker→backup pattern. Responses are completed by whichever
        // thread delivers them, never by a worker, so this must complete
        // even with a single worker.
        struct Proxy {
            next: NodeId,
            client: Mutex<Option<RpcClient>>,
        }
        impl Service for Proxy {
            fn handle(&self, _ctx: &RequestContext, payload: Bytes) -> Result<Bytes> {
                let client = self.client.lock().clone().unwrap();
                client.call(self.next, OpCode::Ping, payload, Duration::from_secs(1))
            }
        }

        let net = InMemNetwork::new();
        let proxy_svc = Arc::new(Proxy { next: NodeId(3), client: Mutex::new(None) });
        let proxy = NodeRuntime::start(
            Arc::new(net.register(NodeId(1))),
            Arc::clone(&proxy_svc) as Arc<dyn Service>,
            1,
        );
        *proxy_svc.client.lock() = Some(proxy.client());
        let _backend = NodeRuntime::start(
            Arc::new(net.register(NodeId(3))),
            Arc::new(EchoService),
            1,
        );
        let client =
            NodeRuntime::start(Arc::new(net.register(NodeId(2))), Arc::new(NullService), 1);

        let got = client
            .client()
            .call(NodeId(1), OpCode::Ping, Bytes::from_static(b"through"), Duration::from_secs(2))
            .unwrap();
        assert_eq!(&got[..], b"through");
    }

    /// Keeps the [`Reply`] of every `Fetch` (counting how often that
    /// handler ran) for the test to send or drop; echoes anything else.
    #[derive(Default)]
    struct Parking {
        parked: Mutex<Vec<Reply>>,
        hits: std::sync::atomic::AtomicU64,
    }

    impl Parking {
        fn wait_parked(&self, n: usize) {
            let deadline = Instant::now() + Duration::from_secs(2);
            while self.parked.lock().len() < n {
                assert!(Instant::now() < deadline, "no request parked its reply");
                std::thread::yield_now();
            }
        }

        fn take(&self) -> Reply {
            self.parked.lock().pop().expect("a parked reply")
        }
    }

    impl Service for Parking {
        fn handle(&self, _ctx: &RequestContext, payload: Bytes) -> Result<Bytes> {
            Ok(payload)
        }

        fn serve(&self, ctx: &RequestContext, payload: Bytes, reply: Reply) {
            if ctx.opcode != OpCode::Fetch {
                return reply.send(self.handle(ctx, payload));
            }
            self.hits.fetch_add(1, Ordering::SeqCst);
            self.parked.lock().push(reply);
        }
    }

    /// A server of one worker and the raw transport of a client whose
    /// retransmits are sent by hand.
    fn parking_server(
    ) -> (InMemNetwork, Arc<Parking>, NodeRuntime, crate::inmem::InMemTransport, Arc<Collector>)
    {
        let net = InMemNetwork::new();
        let svc = Arc::new(Parking::default());
        let server = NodeRuntime::start(
            Arc::new(net.register(NodeId(1))),
            Arc::clone(&svc) as Arc<dyn Service>,
            1,
        );
        let (raw, raw_in) = crate::testkit::endpoint(net.register(NodeId(9)));
        (net, svc, server, raw, raw_in)
    }

    /// `call_all` answers once the last of its calls has ended, with the
    /// first error among them.
    #[test]
    fn call_all_answers_when_its_last_call_ends() {
        /// Fans every request out twice to node 2, which parks both.
        struct Fan(OnceLock<RpcClient>);
        impl Service for Fan {
            fn handle(&self, _ctx: &RequestContext, payload: Bytes) -> Result<Bytes> {
                Ok(payload)
            }
            fn serve(&self, _ctx: &RequestContext, payload: Bytes, reply: Reply) {
                let fetch = |payload| (NodeId(2), OpCode::Fetch, payload);
                let calls = [fetch(payload.clone()), fetch(payload)];
                let ok = Bytes::from_static(b"all");
                self.0.get().unwrap().call_all(calls, Duration::from_secs(2), reply, ok);
            }
        }
        let net = InMemNetwork::new();
        let fan = Arc::new(Fan(OnceLock::new()));
        let fan_rt =
            NodeRuntime::start(Arc::new(net.register(NodeId(1))), Arc::clone(&fan) as _, 1);
        fan.0.set(fan_rt.client()).ok().unwrap();
        let parking = Arc::new(Parking::default());
        let _parking_rt =
            NodeRuntime::start(Arc::new(net.register(NodeId(2))), Arc::clone(&parking) as _, 1);
        let client_rt =
            NodeRuntime::start(Arc::new(net.register(NodeId(3))), Arc::new(NullService), 1);
        let client = client_rt.client();
        let budget = Duration::from_secs(2);
        let ping = || client.call_async(NodeId(1), OpCode::Ping, Bytes::new(), budget);

        let mut call = ping();
        parking.wait_parked(2);
        parking.take().send(Err(KeraError::NoCapacity("first".into())));
        assert!(call.poll_wait(Duration::from_millis(50)).is_none(), "answered before the last");
        parking.take().send(Ok(Bytes::new()));
        match call.wait(budget) {
            Err(KeraError::NoCapacity(m)) => assert!(m.contains("first"), "{m}"),
            other => panic!("not the first error: {other:?}"),
        }

        let call = ping();
        parking.wait_parked(2);
        parking.take().send(Ok(Bytes::new()));
        parking.take().send(Ok(Bytes::new()));
        assert_eq!(&call.wait(budget).unwrap()[..], b"all");
    }

    #[test]
    fn a_parked_reply_frees_its_worker() {
        let net = InMemNetwork::new();
        let svc = Arc::new(Parking::default());
        let _server = NodeRuntime::start(
            Arc::new(net.register(NodeId(1))),
            Arc::clone(&svc) as Arc<dyn Service>,
            1,
        );
        let client =
            NodeRuntime::start(Arc::new(net.register(NodeId(2))), Arc::new(NullService), 1);
        let c = client.client();
        let later = Bytes::from_static(b"later");
        let mut parked = c.call_async(NodeId(1), OpCode::Fetch, later, Duration::from_secs(2));
        // The one worker kept the first reply and is free for the second.
        let now = c.call(NodeId(1), OpCode::Ping, Bytes::from_static(b"now"), Duration::from_secs(2));
        assert_eq!(&now.unwrap()[..], b"now");
        assert!(parked.poll_wait(Duration::ZERO).is_none(), "answered before its reply was sent");
        let reply = svc.take();
        std::thread::spawn(move || reply.send(Ok(Bytes::from_static(b"later")))).join().unwrap();
        assert_eq!(&parked.wait(Duration::from_secs(2)).unwrap()[..], b"later");
    }

    #[test]
    fn a_retransmit_of_a_parked_request_is_in_flight_until_its_reply_is_sent() {
        let (_net, svc, server, raw, raw_in) = parking_server();
        let req = Envelope::request(OpCode::Fetch, 77, NodeId(9), Bytes::new());
        raw.send(NodeId(1), req.clone()).unwrap();
        svc.wait_parked(1);
        // The retransmit is dropped: its original is in flight.
        raw.send(NodeId(1), req.clone()).unwrap();
        assert!(raw_in.recv(Duration::from_millis(50)).unwrap().is_none());
        assert!(server.requests_deduped() >= 1);
        // The late reply answers the call...
        svc.take().send(Ok(Bytes::from_static(b"late")));
        let first = raw_in.recv(Duration::from_secs(1)).unwrap().expect("the late reply");
        assert_eq!((first.request_id, &first.payload[..]), (77, &b"late"[..]));
        // ...and is what a third copy gets, from the cache.
        raw.send(NodeId(1), req).unwrap();
        let third = raw_in.recv(Duration::from_secs(1)).unwrap().expect("the cached reply");
        assert_eq!(&third.payload[..], b"late");
        assert_eq!(svc.hits.load(Ordering::SeqCst), 1, "the handler ran for a duplicate");
        assert_eq!(server.requests_deduped(), 2);
    }

    #[test]
    fn a_reply_dropped_unsent_lets_a_retry_run_again() {
        let (_net, svc, _server, raw, raw_in) = parking_server();
        let req = Envelope::request(OpCode::Fetch, 5, NodeId(9), Bytes::new());
        raw.send(NodeId(1), req.clone()).unwrap();
        svc.wait_parked(1);
        drop(svc.take());
        assert!(raw_in.recv(Duration::from_millis(20)).unwrap().is_none(), "a dropped reply was sent");
        raw.send(NodeId(1), req).unwrap();
        svc.wait_parked(1);
        assert_eq!(svc.hits.load(Ordering::SeqCst), 2, "the retry was taken for a duplicate");
        svc.take().send(Ok(Bytes::from_static(b"again")));
        let resp = raw_in.recv(Duration::from_secs(1)).unwrap().expect("the retry's reply");
        assert_eq!(&resp.payload[..], b"again");
    }

    /// What the completions of detached calls were handed. Each also takes
    /// `rpc.pending` itself, so one run under that lock deadlocks (or, under
    /// `parking_lot/deadlock-detect`, panics).
    #[derive(Default)]
    struct Outcomes(Mutex<Vec<Result<Bytes>>>);

    impl Outcomes {
        fn done(self: &Arc<Self>, client: &RpcClient) -> impl FnOnce(Result<Bytes>) + Send {
            let (outcomes, client) = (Arc::clone(self), client.clone());
            move |result| {
                client.pending_calls();
                outcomes.0.lock().push(result);
            }
        }

        fn wait(&self, n: usize) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.0.lock().len() < n {
                let ran = self.0.lock().len();
                assert!(Instant::now() < deadline, "{ran} of {n} completions ran");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    #[test]
    fn a_detached_call_is_retransmitted_and_runs_once() {
        use crate::faults::FaultPlan;
        use kera_common::config::FaultProfile;
        use std::sync::atomic::AtomicU64;

        let net = InMemNetwork::new();
        let hits = Arc::new(AtomicU64::new(0));
        let _server = NodeRuntime::start(
            Arc::new(net.register(NodeId(1))),
            Arc::new(CountingService { hits: Arc::clone(&hits) }),
            2,
        );
        let plan = FaultPlan::new(FaultProfile {
            seed: 23,
            drop_rate: 0.4,
            ..FaultProfile::default()
        })
        .unwrap();
        // Its one worker drives the retransmits.
        let client = client_behind(&net, &plan, 20, Duration::from_millis(50));
        let c = client.client();
        let outcomes = Arc::new(Outcomes::default());
        const CALLS: u64 = 30;
        for i in 0..CALLS {
            let body = Bytes::from(i.to_le_bytes().to_vec());
            let budget = Duration::from_secs(5);
            c.call_detached(NodeId(1), OpCode::Ping, body, budget, outcomes.done(&c));
        }
        outcomes.wait(CALLS as usize);
        let mut echoed: Vec<u64> = std::mem::take(&mut *outcomes.0.lock())
            .into_iter()
            .map(|r| u64::from_le_bytes(r.expect("retransmits mask drops")[..].try_into().unwrap()))
            .collect();
        echoed.sort_unstable();
        assert_eq!(echoed, (0..CALLS).collect::<Vec<_>>());
        assert!(plan.dropped() > 0, "faults never fired");
        assert!(c.retries_sent() > 0, "drops should have forced retransmits");
        assert_eq!(hits.load(Ordering::SeqCst), CALLS, "handler re-executed a retransmit");
        assert_eq!(c.pending_calls(), 0);
    }

    #[test]
    fn a_detached_call_to_a_held_peer_times_out_once_at_its_budget() {
        use crate::faults::FaultPlan;
        use kera_common::config::FaultProfile;

        let net = InMemNetwork::new();
        let server =
            NodeRuntime::start(Arc::new(net.register(NodeId(1))), Arc::new(EchoService), 1);
        let plan = FaultPlan::new(FaultProfile::default()).unwrap();
        let client = client_behind(&net, &plan, 20, Duration::from_millis(30));
        let c = client.client();
        let outcomes = Arc::new(Outcomes::default());
        plan.hold(NodeId(1));
        let started = Instant::now();
        let budget = Duration::from_millis(200);
        c.call_detached(NodeId(1), OpCode::Ping, Bytes::new(), budget, outcomes.done(&c));
        outcomes.wait(1);
        let took = started.elapsed();
        assert!(matches!(outcomes.0.lock()[..], [Err(KeraError::Timeout { .. })]));
        assert!(took >= budget && took < budget * 5, "completed after {took:?}");
        assert!(plan.held() >= 2, "the held call was never retransmitted");
        assert_eq!(c.pending_calls(), 0);
        // The kept copies land now and are answered; the late replies find
        // no call to complete.
        plan.release(NodeId(1));
        let deadline = Instant::now() + Duration::from_secs(2);
        while server.requests_served() == 0 {
            assert!(Instant::now() < deadline, "the released request was never served");
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(outcomes.0.lock().len(), 1, "a detached call completed twice");
    }

    #[test]
    fn a_detached_call_completes_disconnected_when_its_node_goes() {
        for crash in [false, true] {
            let net = InMemNetwork::new();
            let _peer = Collector::bind(&net.register(NodeId(1))); // never answers
            let client =
                NodeRuntime::start(Arc::new(net.register(NodeId(2))), Arc::new(NullService), 1);
            let c = client.client();
            let (outcomes, budget) = (Arc::new(Outcomes::default()), Duration::from_secs(5));
            c.call_detached(NodeId(1), OpCode::Ping, Bytes::new(), budget, outcomes.done(&c));
            assert!(outcomes.0.lock().is_empty(), "completed before its node went");
            // Either way the node goes on this thread, which completes the call.
            if crash {
                net.crash(NodeId(2));
            } else {
                client.shutdown();
            }
            // A call issued afterwards completes at once, the same way.
            c.call_detached(NodeId(1), OpCode::Ping, Bytes::new(), budget, outcomes.done(&c));
            let outcomes = outcomes.0.lock();
            assert_eq!(outcomes.len(), 2, "crash: {crash}");
            assert!(outcomes.iter().all(|r| matches!(r, Err(KeraError::Disconnected(NodeId(2))))));
        }
    }

    #[test]
    fn a_fan_out_retransmits_every_call_not_just_the_one_waited_on() {
        use crate::faults::FaultPlan;
        use kera_common::config::FaultProfile;

        let net = InMemNetwork::new();
        let _server =
            NodeRuntime::start(Arc::new(net.register(NodeId(1))), Arc::new(EchoService), 2);
        let plan = FaultPlan::new(FaultProfile::default()).unwrap();
        let client = client_behind(&net, &plan, 5, Duration::from_millis(50));
        let c = client.client();
        // The first transmission of each is lost.
        plan.partition_one_way(NodeId(2), NodeId(1));
        let budget = Duration::from_secs(5);
        let first = c.call_async(NodeId(1), OpCode::Ping, Bytes::from_static(b"1"), budget);
        let mut second = c.call_async(NodeId(1), OpCode::Ping, Bytes::from_static(b"2"), budget);
        plan.heal(NodeId(2), NodeId(1));
        assert_eq!(&first.wait(budget).unwrap()[..], b"1");
        // The second is due again within a backoff step (≤ 1 ms) of the
        // first; nobody waited on it, and it went out all the same.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(c.retries_sent(), 2);
        let second = second.poll_wait(Duration::ZERO).expect("the second was not answered");
        assert_eq!(&second.unwrap()[..], b"2");
    }

    /// How often the thread named `name` has gone to sleep so far.
    #[cfg(target_os = "linux")]
    fn times_blocked(name: &str) -> u64 {
        let task = std::fs::read_dir("/proc/self/task")
            .unwrap()
            .flatten()
            .find(|t| std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.trim() == name))
            .expect("no such thread");
        let status = std::fs::read_to_string(task.path().join("status")).unwrap();
        let count = status.lines().find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
        count.unwrap().trim().parse().unwrap()
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn calls_issued_one_after_another_wake_no_worker() {
        let net = InMemNetwork::new();
        let _server =
            NodeRuntime::start(Arc::new(net.register(NodeId(1))), Arc::new(EchoService), 2);
        // A node id of its own: its one worker is found by name.
        let client =
            NodeRuntime::start(Arc::new(net.register(NodeId(77))), Arc::new(NullService), 1);
        let c = client.client();
        let call = || c.call(NodeId(1), OpCode::Ping, Bytes::new(), Duration::from_secs(5)).unwrap();
        // The first call wakes the idle worker, to sleep toward its timer.
        call();
        std::thread::sleep(Duration::from_millis(20));
        let before = times_blocked("worker-77-0");
        for _ in 0..500 {
            call();
        }
        // Each call ends before its timer (1 s out) and the next is due
        // later still: the worker sleeps through them all.
        let woke = times_blocked("worker-77-0") - before;
        assert!(woke <= 2, "the worker woke {woke} times for 500 calls");
    }

    #[test]
    fn a_worker_blocked_in_a_call_still_retransmits_its_nodes_calls() {
        use crate::faults::FaultPlan;
        use kera_common::config::FaultProfile;

        /// Node 1's one handler: a detached call to node 3 whose first
        /// transmission is lost, then a synchronous call to node 4, which
        /// answers after 200 ms — long after the detached call's first
        /// retransmit is due (~30 ms) and its 150-ms budget.
        struct FanOut {
            plan: FaultPlan,
            client: Mutex<Option<RpcClient>>,
            outcomes: Arc<Outcomes>,
        }
        impl Service for FanOut {
            fn handle(&self, _ctx: &RequestContext, _payload: Bytes) -> Result<Bytes> {
                let client = self.client.lock().clone().unwrap();
                self.plan.partition_one_way(NodeId(1), NodeId(3));
                let (budget, done) = (Duration::from_millis(150), self.outcomes.done(&client));
                client.call_detached(NodeId(3), OpCode::Ping, Bytes::new(), budget, done);
                self.plan.heal(NodeId(1), NodeId(3));
                client.call(NodeId(4), OpCode::Fetch, Bytes::new(), Duration::from_secs(2))
            }
        }

        let net = InMemNetwork::new();
        let plan = FaultPlan::new(FaultProfile::default()).unwrap();
        let outcomes = Arc::new(Outcomes::default());
        let svc = Arc::new(FanOut {
            plan: plan.clone(),
            client: Mutex::new(None),
            outcomes: Arc::clone(&outcomes),
        });
        let transport =
            crate::faults::FaultInjector::new(Arc::new(net.register(NodeId(1))), plan.clone());
        let retry = RetryPolicy {
            max_attempts: 20,
            attempt_timeout: Duration::from_millis(30),
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(10),
        };
        let node = NodeRuntime::start_with_obs(
            Arc::new(transport),
            Arc::clone(&svc) as Arc<dyn Service>,
            1,
            retry,
            NodeObs::disabled(1),
        );
        *svc.client.lock() = Some(node.client());
        let _peer = NodeRuntime::start(Arc::new(net.register(NodeId(3))), Arc::new(EchoService), 1);
        let _slow = NodeRuntime::start(Arc::new(net.register(NodeId(4))), Arc::new(EchoService), 1);
        let caller =
            NodeRuntime::start(Arc::new(net.register(NodeId(2))), Arc::new(NullService), 1);
        caller.client().call(NodeId(1), OpCode::Ping, Bytes::new(), Duration::from_secs(5)).unwrap();
        outcomes.wait(1);
        assert!(plan.blocked() >= 1, "the first transmission was never lost");
        assert!(
            matches!(outcomes.0.lock()[..], [Ok(_)]),
            "the detached call was not retransmitted while the worker waited"
        );
    }

    #[test]
    fn a_timer_runs_once_on_a_worker_of_its_node_not_before_it_is_due() {
        let net = InMemNetwork::new();
        let node = NodeRuntime::start(Arc::new(net.register(NodeId(78))), Arc::new(NullService), 2);
        let (tx, rx) = channel::unbounded();
        let due = Instant::now() + Duration::from_millis(30);
        // Armed from a thread that is not the node's: it wakes a worker.
        assert!(node.inner.timer(
            due,
            Box::new(move || {
                let on = std::thread::current().name().map(str::to_owned);
                let _ = tx.send((Instant::now(), on));
            })
        ));
        let (ran_at, on) = rx
            .recv_timeout(Duration::from_secs(2))
            .expect("the timer never ran");
        assert!(ran_at >= due, "ran {:?} early", due - ran_at);
        assert!(
            on.as_deref().is_some_and(|n| n.starts_with("worker-78-")),
            "ran on {on:?}"
        );
        // Once: it was dropped as it ran, and its sender with it.
        assert!(matches!(rx.recv_timeout(Duration::from_millis(50)), Err(RecvTimeoutError::Disconnected)));
    }

    #[test]
    fn a_timer_falls_due_while_the_nodes_only_worker_waits_in_a_call() {
        /// Node 1's one handler arms a timer 30 ms out, then waits in a
        /// call to node 4, which answers after 200 ms; it answers whether
        /// the timer ran, and when, while it waited.
        struct ArmsThenWaits {
            client: Mutex<Option<RpcClient>>,
            ran: Arc<Mutex<Option<Instant>>>,
        }
        impl Service for ArmsThenWaits {
            fn handle(&self, _ctx: &RequestContext, _payload: Bytes) -> Result<Bytes> {
                unreachable!("served through serve")
            }

            fn serve(&self, _ctx: &RequestContext, _payload: Bytes, reply: Reply) {
                let client = self.client.lock().clone().unwrap();
                let (ran, due) = (
                    Arc::clone(&self.ran),
                    Instant::now() + Duration::from_millis(30),
                );
                assert!(reply.timer(due, move || *ran.lock() = Some(Instant::now())));
                let slow = client.call(
                    NodeId(4),
                    OpCode::Fetch,
                    Bytes::new(),
                    Duration::from_secs(2),
                );
                let fired = self.ran.lock().is_some_and(|at| at >= due);
                reply.send(slow.map(|_| Bytes::from(vec![u8::from(fired)])));
            }
        }

        let net = InMemNetwork::new();
        let svc = Arc::new(ArmsThenWaits {
            client: Mutex::new(None),
            ran: Arc::default(),
        });
        let node = NodeRuntime::start(
            Arc::new(net.register(NodeId(1))),
            Arc::clone(&svc) as Arc<dyn Service>,
            1,
        );
        *svc.client.lock() = Some(node.client());
        let _slow = NodeRuntime::start(Arc::new(net.register(NodeId(4))), Arc::new(EchoService), 1);
        let caller =
            NodeRuntime::start(Arc::new(net.register(NodeId(2))), Arc::new(NullService), 1);
        let got = caller.client().call(
            NodeId(1),
            OpCode::Ping,
            Bytes::new(),
            Duration::from_secs(5),
        );
        assert_eq!(
            &got.unwrap()[..],
            [1],
            "the timer did not run, when due, while the worker waited"
        );
    }

    #[test]
    fn a_timer_of_a_node_that_closes_first_never_runs() {
        let net = InMemNetwork::new();
        let node = NodeRuntime::start(Arc::new(net.register(NodeId(1))), Arc::new(NullService), 1);
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        let due = Instant::now() + Duration::from_millis(20);
        assert!(node
            .inner
            .timer(due, Box::new(move || flag.store(true, Ordering::SeqCst))));
        let inner = Arc::clone(&node.inner);
        node.shutdown();
        assert_eq!(
            Arc::strong_count(&ran),
            1,
            "the closed node kept its unrun timer"
        );
        std::thread::sleep(Duration::from_millis(40));
        assert!(!ran.load(Ordering::SeqCst));
        // Nor does a closed node take a new one.
        assert!(!inner.timer(
            Instant::now(),
            Box::new(|| unreachable!("armed on a closed node"))
        ));
    }

    #[test]
    fn delayed_messages_still_arrive() {
        use crate::faults::{FaultInjector, FaultPlan};
        use kera_common::config::FaultProfile;

        let plan = FaultPlan::new(FaultProfile {
            seed: 7,
            delay_rate: 1.0,
            max_delay: Duration::from_millis(5),
            ..FaultProfile::default()
        })
        .unwrap();
        let net = InMemNetwork::new();
        let inbox = Collector::bind(&net.register(NodeId(1)));
        // Four sending nodes: each holds its delayed frames on its own
        // timers, and no thread of the plan's stands beside them.
        let senders: Vec<_> = (2..=5)
            .map(|id| {
                let injector = Arc::new(FaultInjector::new(
                    Arc::new(net.register(NodeId(id))),
                    plan.clone(),
                ));
                let node = NodeRuntime::start(
                    Arc::clone(&injector) as Arc<dyn Transport>,
                    Arc::new(NullService),
                    1,
                );
                (injector, node)
            })
            .collect();
        for (n, (injector, _node)) in senders.iter().enumerate() {
            for i in 0..5 {
                let env =
                    Envelope::request(OpCode::Ping, n as u64 * 5 + i, NodeId(1), Bytes::new());
                injector.send(NodeId(1), env).unwrap();
            }
        }
        let mut got: Vec<u64> =
            std::iter::from_fn(|| inbox.recv(Duration::from_millis(100)).ok().flatten())
                .map(|env| env.request_id)
                .collect();
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        assert_eq!(plan.delayed(), 20);
        assert_eq!(crate::thread_count_named("faults-delay"), 0);
    }

    #[test]
    fn null_service_rejects() {
        let (_net, _server, _client) = pair();
        // Call *into* the pure client node from the server side.
        let err = _server
            .client()
            .call(NodeId(2), OpCode::Ping, Bytes::new(), Duration::from_secs(1))
            .unwrap_err();
        assert!(matches!(err, KeraError::Protocol(_)));
    }

    #[test]
    fn shutdown_fails_outstanding_calls() {
        let (_net, server, client) = pair();
        let c = client.client();
        let call = c.call_async(NodeId(1), OpCode::Fetch, Bytes::new(), Duration::from_secs(5)); // slow op
        std::thread::sleep(Duration::from_millis(20));
        server.shutdown();
        // Either the response never comes (timeout) or the channel drops.
        let res = call.wait(Duration::from_millis(400));
        assert!(res.is_err());
    }

    #[test]
    fn crash_fails_the_crashed_nodes_own_calls_at_once() {
        let net = InMemNetwork::new();
        let _peer = Collector::bind(&net.register(NodeId(1))); // never answers
        let client =
            NodeRuntime::start(Arc::new(net.register(NodeId(2))), Arc::new(NullService), 1);
        let mut call =
            client.client().call_async(NodeId(1), OpCode::Ping, Bytes::new(), Duration::from_secs(5));
        assert!(call.poll_wait(Duration::ZERO).is_none());
        // The crash itself tells the node: by the time it returns the call
        // has failed, with no thread left to notice a closed inbox first.
        net.crash(NodeId(2));
        let res = call.poll_wait(Duration::ZERO).expect("still pending after the crash");
        assert!(matches!(res, Err(KeraError::Disconnected(NodeId(2)))));
    }

    #[test]
    fn a_reply_that_lands_before_the_wait_is_not_lost() {
        let (_net, _server, client) = pair();
        let c = client.client();
        for i in 0..1_000u64 {
            let body = Bytes::from(i.to_le_bytes().to_vec());
            let call = c.call_async(NodeId(1), OpCode::Ping, body.clone(), Duration::from_secs(5));
            // Odd rounds let the echo land first (nothing left pending);
            // even rounds race it against the check-then-park.
            while i % 2 == 1 && c.pending_calls() > 0 {
                std::thread::yield_now();
            }
            assert_eq!(call.wait(Duration::from_secs(5)).unwrap(), body);
        }
    }

    #[test]
    fn a_call_may_be_waited_on_by_another_thread() {
        let (_net, _server, client) = pair();
        // A slow handler: the waiter is parked, as the slot's registered
        // waiter, well before the reply lands.
        let moved = Bytes::from_static(b"moved");
        let call = client.client().call_async(NodeId(1), OpCode::Fetch, moved, Duration::from_secs(5));
        let waiter = std::thread::spawn(move || call.wait(Duration::from_secs(5)));
        assert_eq!(&waiter.join().unwrap().unwrap()[..], b"moved");
    }

    #[test]
    fn many_calls_one_parked_thread() {
        struct Slow;
        impl Service for Slow {
            fn handle(&self, _ctx: &RequestContext, payload: Bytes) -> Result<Bytes> {
                std::thread::sleep(Duration::from_millis(5));
                Ok(payload)
            }
        }
        let net = InMemNetwork::new();
        let _server = NodeRuntime::start(Arc::new(net.register(NodeId(1))), Arc::new(Slow), 8);
        let client =
            NodeRuntime::start(Arc::new(net.register(NodeId(2))), Arc::new(NullService), 1);
        let c = client.client();
        let started = Instant::now();
        let calls: Vec<_> = (0..8u8)
            .map(|i| (i, c.call_async(NodeId(1), OpCode::Ping, Bytes::from(vec![i]), Duration::from_secs(5))))
            .collect();
        // Collected newest first: every earlier reply unparks this thread
        // while it waits on a later call, and its token is all that is
        // spent — the reply stays in its slot.
        for (i, call) in calls.into_iter().rev() {
            assert_eq!(&call.wait(Duration::from_secs(5)).unwrap()[..], [i]);
        }
        let took = started.elapsed();
        assert!(took < Duration::from_millis(8 * 5), "eight overlapped calls took {took:?}");
    }

    #[test]
    fn dropping_a_runtime_frees_its_node() {
        // The fabric holds the node weakly: registry -> target -> node ->
        // transport -> registry must not be a cycle that outlives the
        // runtime, on either fabric.
        use crate::network::{AnyNetwork, TransportKind};
        for kind in [TransportKind::InMemory, TransportKind::Tcp] {
            let net = AnyNetwork::new(kind, None);
            let svc = Arc::new(Parking::default());
            let server = NodeRuntime::start(
                net.register(NodeId(1)).unwrap(),
                Arc::clone(&svc) as Arc<dyn Service>,
                1,
            );
            let client =
                NodeRuntime::start(net.register(NodeId(2)).unwrap(), Arc::new(NullService), 1);
            // Traffic both ways, so TCP has live reader threads on each side.
            client
                .client()
                .call(NodeId(1), OpCode::Ping, Bytes::new(), Duration::from_secs(2))
                .unwrap();
            // A reply parked with the service outlives the runtime.
            drop(client.client().call_async(NodeId(1), OpCode::Fetch, Bytes::new(), Duration::from_secs(2)));
            svc.wait_parked(1);
            let nodes = [Arc::downgrade(&server.inner), Arc::downgrade(&client.inner)];
            drop(client);
            drop(server);
            // A reader thread may still be letting go of the frame it just
            // delivered; nothing holds a node for longer than that.
            let deadline = Instant::now() + Duration::from_secs(2);
            while nodes.iter().any(|n| n.upgrade().is_some()) {
                assert!(Instant::now() < deadline, "{kind:?} leaked a node");
                std::thread::yield_now();
            }
            // Sending it now goes nowhere, and brings nothing back.
            svc.take().send(Ok(Bytes::from_static(b"too late")));
            assert!(nodes.iter().all(|n| n.upgrade().is_none()));
        }
    }

    #[test]
    fn stale_response_after_timeout_is_dropped() {
        let (_net, _server, client) = pair();
        let c = client.client();
        // Times out while the handler sleeps...
        let err = c
            .call(NodeId(1), OpCode::Fetch, Bytes::new(), Duration::from_millis(20))
            .unwrap_err();
        assert!(matches!(err, KeraError::Timeout { .. }));
        // ...and the late response must not corrupt a later call.
        std::thread::sleep(Duration::from_millis(250));
        let got = c
            .call(NodeId(1), OpCode::Ping, Bytes::from_static(b"ok"), Duration::from_secs(1))
            .unwrap();
        assert_eq!(&got[..], b"ok");
    }

    #[test]
    fn request_counters() {
        let (_net, server, client) = pair();
        let c = client.client();
        for _ in 0..5 {
            c.call(NodeId(1), OpCode::Ping, Bytes::new(), Duration::from_secs(1)).unwrap();
        }
        assert_eq!(server.requests_served(), 5);
    }

    #[test]
    fn requests_served_are_counted_per_opcode() {
        let (_net, server, client) = pair();
        let c = client.client();
        for op in [OpCode::Ping, OpCode::Fetch, OpCode::Ping, OpCode::Fetch, OpCode::Ping] {
            c.call(NodeId(1), op, Bytes::new(), Duration::from_secs(1)).unwrap();
        }
        let snap = server.inner.obs.registry().snapshot();
        let served = |op: &str| snap.counter_sum("kera.rpc.requests_served", &[("op", op)]);
        assert_eq!((served("Ping"), served("Fetch"), served("Produce")), (3, 2, 0));
        assert_eq!(server.requests_served(), 5);
        assert_eq!(snap.counter_sum("kera.rpc.requests_served", &[]), 5);
    }

    #[test]
    fn retries_recover_from_lossy_transport() {
        use crate::faults::FaultPlan;
        use kera_common::config::FaultProfile;

        let net = InMemNetwork::new();
        let _server =
            NodeRuntime::start(Arc::new(net.register(NodeId(1))), Arc::new(EchoService), 2);
        // 30% of everything the client sends vanishes; requests and the
        // server's responses share the link back, so response loss is
        // exercised via the injector on the server side too.
        let plan = FaultPlan::new(FaultProfile {
            seed: 11,
            drop_rate: 0.3,
            ..FaultProfile::default()
        })
        .unwrap();
        let client = client_behind(&net, &plan, 10, Duration::from_millis(100));
        let c = client.client();
        for i in 0..40u64 {
            let body = Bytes::from(i.to_le_bytes().to_vec());
            let got = c
                .call(NodeId(1), OpCode::Ping, body.clone(), Duration::from_secs(5))
                .expect("retries should mask drops");
            assert_eq!(got, body);
        }
        assert!(plan.dropped() > 0, "faults never fired");
    }

    #[test]
    fn async_calls_retransmit_without_reexecuting() {
        use crate::faults::FaultPlan;
        use kera_common::config::FaultProfile;
        use std::sync::atomic::AtomicU64;

        let net = InMemNetwork::new();
        let hits = Arc::new(AtomicU64::new(0));
        let server = NodeRuntime::start(
            Arc::new(net.register(NodeId(1))),
            Arc::new(CountingService { hits: Arc::clone(&hits) }),
            2,
        );
        let plan = FaultPlan::new(FaultProfile {
            seed: 23,
            drop_rate: 0.4,
            ..FaultProfile::default()
        })
        .unwrap();
        let client = client_behind(&net, &plan, 20, Duration::from_millis(50));
        let c = client.client();
        const CALLS: u64 = 30;
        for i in 0..CALLS {
            let body = Bytes::from(i.to_le_bytes().to_vec());
            let got = c
                .call_async(NodeId(1), OpCode::Ping, body.clone(), Duration::from_secs(5))
                .wait(Duration::from_secs(5))
                .expect("retransmits should mask drops");
            assert_eq!(got, body);
        }
        assert!(plan.dropped() > 0, "faults never fired");
        assert!(c.retries_sent() > 0, "drops should have forced retransmits");
        // Retransmitted ids never re-execute: at most one hit per call.
        assert_eq!(hits.load(Ordering::SeqCst), CALLS, "handler re-executed a retransmit");
        assert!(server.requests_deduped() > 0 || server.requests_served() == CALLS);
    }

    #[test]
    fn a_held_request_is_retransmitted_and_runs_once_on_release() {
        use crate::faults::FaultPlan;
        use kera_common::config::FaultProfile;
        use std::sync::atomic::AtomicU64;

        let net = InMemNetwork::new();
        let hits = Arc::new(AtomicU64::new(0));
        let server = NodeRuntime::start(
            Arc::new(net.register(NodeId(1))),
            Arc::new(CountingService { hits: Arc::clone(&hits) }),
            2,
        );
        let plan = FaultPlan::new(FaultProfile::default()).unwrap();
        let client = client_behind(&net, &plan, 20, Duration::from_millis(100));
        let c = client.client();

        plan.hold(NodeId(1));
        let caller = {
            let c = c.clone();
            std::thread::spawn(move || {
                c.call(NodeId(1), OpCode::Ping, Bytes::from_static(b"late"), Duration::from_secs(5))
            })
        };
        // Held past `attempt_timeout`: the retransmit is kept as well.
        while plan.held() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        plan.release(NodeId(1));
        assert_eq!(&caller.join().unwrap().expect("the kept request is answered")[..], b"late");

        // Every kept copy landed; the handler ran for the first only.
        assert!(c.retries_sent() >= 1);
        assert_eq!(hits.load(Ordering::SeqCst), 1, "handler re-executed a retransmit");
        assert_eq!(server.requests_deduped(), plan.held() - 1);
        assert_eq!(c.pending_calls(), 0);
    }

    #[test]
    fn duplicate_request_executes_at_most_once() {
        use std::sync::atomic::AtomicU64;

        let net = InMemNetwork::new();
        let hits = Arc::new(AtomicU64::new(0));
        let server = NodeRuntime::start(
            Arc::new(net.register(NodeId(1))),
            Arc::new(CountingService { hits: Arc::clone(&hits) }),
            2,
        );
        // Raw transport standing in for a client whose retry re-sends the
        // same request id after the response was lost.
        let raw = net.register(NodeId(9));
        let raw_in = Collector::bind(&raw);
        let req = Envelope::request(OpCode::Ping, 77, NodeId(9), Bytes::from_static(b"once"));
        raw.send(NodeId(1), req.clone()).unwrap();
        let first = raw_in.recv(Duration::from_secs(1)).unwrap().expect("first response");
        assert_eq!(&first.payload[..], b"once");

        raw.send(NodeId(1), req).unwrap();
        let second = raw_in.recv(Duration::from_secs(1)).unwrap().expect("cached response");
        assert_eq!(&second.payload[..], b"once");
        assert_eq!(second.request_id, 77);

        assert_eq!(hits.load(Ordering::SeqCst), 1, "handler must run exactly once");
        assert_eq!(server.requests_deduped(), 1);
    }

    #[test]
    fn expired_queued_request_is_dropped_then_retriable() {
        let net = InMemNetwork::new();
        // Single worker so a slow request blocks the queue.
        let server =
            NodeRuntime::start(Arc::new(net.register(NodeId(1))), Arc::new(EchoService), 1);
        let raw = net.register(NodeId(9));
        let raw_in = Collector::bind(&raw);

        // Occupy the worker for ~200ms.
        raw.send(NodeId(1), Envelope::request(OpCode::Fetch, 1, NodeId(9), Bytes::new()))
            .unwrap();
        // Queue a request whose budget expires long before the worker
        // frees up.
        let doomed = Envelope::request(OpCode::Ping, 2, NodeId(9), Bytes::from_static(b"late"))
            .with_deadline(Duration::from_millis(5));
        raw.send(NodeId(1), doomed).unwrap();

        let fetch_resp = raw_in.recv(Duration::from_secs(1)).unwrap().expect("fetch response");
        assert_eq!(fetch_resp.request_id, 1);
        // The expired request must produce no response...
        assert!(raw_in.recv(Duration::from_millis(100)).unwrap().is_none());
        assert_eq!(server.requests_expired(), 1);

        // ...but a retry of the same id (fresh budget) executes normally:
        // expiry abandoned the in-flight mark instead of caching anything.
        let retry = Envelope::request(OpCode::Ping, 2, NodeId(9), Bytes::from_static(b"late"))
            .with_deadline(Duration::from_secs(1));
        raw.send(NodeId(1), retry).unwrap();
        let resp = raw_in.recv(Duration::from_secs(1)).unwrap().expect("retry response");
        assert_eq!(resp.request_id, 2);
        assert_eq!(&resp.payload[..], b"late");
    }

    #[test]
    fn handlers_see_propagated_deadline() {
        struct DeadlineCheck;
        impl Service for DeadlineCheck {
            fn handle(&self, ctx: &RequestContext, _payload: Bytes) -> Result<Bytes> {
                let remaining = ctx.remaining().expect("call() must stamp a deadline");
                assert!(remaining <= Duration::from_secs(3));
                Ok(Bytes::new())
            }
        }
        let net = InMemNetwork::new();
        let _server =
            NodeRuntime::start(Arc::new(net.register(NodeId(1))), Arc::new(DeadlineCheck), 1);
        let client =
            NodeRuntime::start(Arc::new(net.register(NodeId(2))), Arc::new(NullService), 1);
        client
            .client()
            .call(NodeId(1), OpCode::Ping, Bytes::new(), Duration::from_secs(3))
            .unwrap();
    }

    #[test]
    fn reply_between_attempt_timeout_and_retransmit_resolves_the_call() {
        // The handler (200 ms) outlives the attempt timeout (30 ms) but
        // answers well inside the backoff that follows it (≥ 500 ms).
        let net = InMemNetwork::new();
        let _server =
            NodeRuntime::start(Arc::new(net.register(NodeId(1))), Arc::new(EchoService), 1);
        let client = NodeRuntime::start_with_obs(
            Arc::new(net.register(NodeId(2))),
            Arc::new(NullService),
            1,
            RetryPolicy {
                max_attempts: 3,
                attempt_timeout: Duration::from_millis(30),
                initial_backoff: Duration::from_secs(1),
                max_backoff: Duration::from_secs(1),
            },
            NodeObs::disabled(2),
        );
        let c = client.client();
        let got = c
            .call(NodeId(1), OpCode::Fetch, Bytes::from_static(b"slow"), Duration::from_secs(5))
            .unwrap();
        assert_eq!(&got[..], b"slow");
        assert_eq!(c.retries_sent(), 0, "the first transmission's reply must resolve the call");
    }

    #[test]
    fn retransmission_carries_the_smaller_remaining_budget() {
        let net = InMemNetwork::new();
        // A peer that collects its frames by hand: it sees every
        // transmission.
        let peer = net.register(NodeId(1));
        let peer_in = Collector::bind(&peer);
        let client = NodeRuntime::start_with_obs(
            Arc::new(net.register(NodeId(2))),
            Arc::new(NullService),
            1,
            RetryPolicy {
                max_attempts: 3,
                attempt_timeout: Duration::from_millis(20),
                initial_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(1),
            },
            NodeObs::disabled(2),
        );
        let c = client.client();
        let caller = std::thread::spawn(move || {
            c.call(NodeId(1), OpCode::Ping, Bytes::from_static(b"x"), Duration::from_secs(2))
        });
        let first = peer_in.recv(Duration::from_secs(1)).unwrap().expect("first transmission");
        let second = peer_in.recv(Duration::from_secs(1)).unwrap().expect("retransmission");
        assert_eq!(second.request_id, first.request_id);
        assert!(first.deadline_micros > 0 && first.deadline_micros <= 2_000_000);
        assert!(
            second.deadline_micros + 20_000 <= first.deadline_micros,
            "retransmit stamped {} us after a first send of {} us",
            second.deadline_micros,
            first.deadline_micros
        );
        let reply = Envelope::response(
            OpCode::Ping,
            first.request_id,
            NodeId(1),
            kera_wire::frames::StatusCode::Ok,
            Bytes::from_static(b"y"),
        );
        peer.send(NodeId(2), reply).unwrap();
        assert_eq!(&caller.join().unwrap().unwrap()[..], b"y");
    }

    #[test]
    fn dropped_calls_release_their_pending_slots() {
        let net = InMemNetwork::new();
        // A black hole: bound (sends succeed) but never answers.
        let _peer = Collector::bind(&net.register(NodeId(1)));
        let client =
            NodeRuntime::start(Arc::new(net.register(NodeId(2))), Arc::new(NullService), 1);
        let c = client.client();
        let mut calls: Vec<_> =
            (0..32).map(|_| c.call_async(NodeId(1), OpCode::Ping, Bytes::new(), Duration::from_secs(5))).collect();
        assert_eq!(c.pending_calls(), 32);
        // Polled-and-timed-out, waited-and-timed-out and never-polled
        // calls all let go of their slot.
        assert!(calls[0].poll_wait(Duration::from_millis(1)).is_none());
        assert_eq!(c.pending_calls(), 32);
        assert!(calls.pop().unwrap().wait(Duration::from_millis(1)).is_err());
        assert_eq!(c.pending_calls(), 31);
        drop(calls);
        assert_eq!(c.pending_calls(), 0);
    }
}
