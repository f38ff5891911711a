//! The node runtime: delivery on arrival + worker pool (RAMCloud's worker
//! half, which KerA borrows — paper §IV, §V-E — without its NIC poller).
//!
//! A node has no receiving thread: its transport hands every arriving
//! frame to [`Deliver::deliver`] on the thread that already holds it.
//! **Requests** are admitted against the at-most-once state and queued for
//! a pool of *worker* threads that invoke the node's [`Service`];
//! **responses** go into their call's pending slot right there, and the
//! slot's waiter is unparked — a wake-up says "look again", the slot holds
//! the data, so a thread parks in one place for all its calls. The one
//! rule: delivery never runs a handler, never blocks, and holds no lock
//! across a send or an unpark — so a worker blocked inside a handler (e.g.
//! a broker waiting for backup acks) can always be completed.
//!
//! Every call is a [`PendingCall`] that retransmits while waited on; a
//! synchronous [`RpcClient::call`] is `issue(..).wait(..)` with an overall
//! budget. Every transmission of a logical call reuses the **same
//! request id**, and the server keeps a bounded cache of completed
//! responses keyed by `(caller, request_id)` (RAMCloud's RIFL
//! discipline): a retransmit whose original executed but whose response
//! was lost is answered from the cache instead of being re-executed,
//! making retried RPCs at-most-once even for non-idempotent handlers.
//! Calls with a budget carry their remaining time so servers can drop
//! queued work whose caller has already given up.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::Thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{self, Receiver, Sender};
use kera_common::config::RetryPolicy;
use kera_common::ids::NodeId;
use kera_common::metrics::Counter;
use kera_common::rng::SplitMix64;
use kera_common::{KeraError, Result};
use kera_obs::{NodeObs, Span, Stage, TraceContext};
use kera_wire::frames::{Envelope, FrameKind, OpCode};
use parking_lot::Mutex;

use crate::transport::{Deliver, Transport};

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
    /// untraced). Also installed as the worker thread's current context
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

/// The application living on a node. Handlers run on worker threads and
/// may block (e.g. on replication acks of nested RPCs).
pub trait Service: Send + Sync + 'static {
    fn handle(&self, ctx: &RequestContext, payload: Bytes) -> Result<Bytes>;
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

/// A call's place in `rpc.pending`, from issue until collected or dropped.
struct Slot {
    /// Whom a reply unparks: the issuing thread, or whichever thread last
    /// blocked in [`PendingCall::poll_wait`].
    waiter: Thread,
    reply: Option<Envelope>,
}

/// A request queued for the worker pool, with its absolute expiry (from
/// the envelope's propagated deadline) resolved at receipt time.
struct WorkItem {
    env: Envelope,
    expires: Option<Instant>,
}

struct NodeInner {
    id: NodeId,
    transport: Arc<dyn Transport>,
    pending: Mutex<HashMap<u64, Slot>>,
    /// The worker pool's queue; `None` is the stop marker, which each
    /// worker passes on to the next as it exits.
    work_tx: Sender<Option<WorkItem>>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    retry: RetryPolicy,
    dedup: DedupCache,
    /// This node's observability handle (disabled unless the runtime was
    /// started with [`NodeRuntime::start_with_obs`]).
    obs: Arc<NodeObs>,
    /// RPCs served (requests handled) — `kera.rpc.requests_served`.
    pub requests_served: Arc<Counter>,
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
        let reg = obs.registry();
        let (work_tx, work_rx) = channel::unbounded();
        let inner = Arc::new(NodeInner {
            id: transport.local(),
            transport,
            pending: Mutex::named("rpc.pending", HashMap::new()),
            work_tx,
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            retry,
            dedup: DedupCache::new(),
            requests_served: reg.counter("kera.rpc.requests_served", &[]),
            calls_issued: reg.counter("kera.rpc.calls_issued", &[]),
            retries_sent: reg.counter("kera.rpc.retries_sent", &[]),
            requests_deduped: reg.counter("kera.rpc.requests_deduped", &[]),
            requests_expired: reg.counter("kera.rpc.requests_expired", &[]),
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

    /// Requests handled so far.
    pub fn requests_served(&self) -> u64 {
        self.inner.requests_served.get()
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
}

impl Deliver for NodeInner {
    /// `rpc.pending` / `rpc.dedup` are released before anything is sent
    /// (the replay below runs the *peer's* delivery on this stack) and
    /// before a waiter is unparked.
    fn deliver(&self, env: Envelope) {
        if self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match env.kind {
            FrameKind::Request => match self.dedup.admit((env.from, env.request_id)) {
                Admit::New => {
                    let expires = (env.deadline_micros > 0)
                        .then(|| Instant::now() + Duration::from_micros(env.deadline_micros));
                    let _ = self.work_tx.send(Some(WorkItem { env, expires }));
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
                // (No slot: the call timed out and gave up — the stale
                // response is dropped. A duplicate is the same bytes.)
                let waiter = self.pending.lock().get_mut(&env.request_id).map(|slot| {
                    slot.reply = Some(env);
                    slot.waiter.clone()
                });
                if let Some(waiter) = waiter {
                    waiter.unpark();
                }
            }
        }
    }

    /// Shutdown and crash end here: later deliveries are dropped, the
    /// workers find the stop marker behind the queued work, and every
    /// pending call fails (its waiter wakes to find the slot gone).
    fn closed(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.work_tx.send(None);
        let slots = std::mem::take(&mut *self.pending.lock());
        for slot in slots.into_values() {
            slot.waiter.unpark();
        }
    }
}

fn worker_loop(
    inner: Arc<NodeInner>,
    service: Arc<dyn Service>,
    work_rx: Receiver<Option<WorkItem>>,
) {
    while let Ok(Some(item)) = work_rx.recv() {
        let env = item.env;
        let key = (env.from, env.request_id);
        let sender_ctx = TraceContext { trace_id: env.trace_id, span_id: env.span_id };
        if let Some(expires) = item.expires {
            if Instant::now() >= expires {
                // The caller's budget ran out while this sat in queue —
                // skip the work; clearing the in-flight mark (without a
                // cached response) lets a later retry execute fresh.
                inner.dedup.abandon(key);
                inner.requests_expired.inc();
                inner.obs.event(Stage::RpcExpired, sender_ctx, env.opcode as u8, env.request_id);
                continue;
            }
        }
        // The serve span is parented to the sender's span; making it the
        // thread's current context means any nested RPC the handler
        // issues (broker → backup) parents to this execution.
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
        let reply = {
            let _in_trace = kera_obs::enter(ctx.trace);
            match service.handle(&ctx, env.payload) {
                Ok(payload) => Envelope::response(
                    ctx.opcode,
                    ctx.request_id,
                    inner.id,
                    kera_wire::frames::StatusCode::Ok,
                    payload,
                ),
                Err(e) => {
                    // Errored serves are force-sampled into the
                    // slow-trace store regardless of duration.
                    span.set_error();
                    Envelope::error_response(ctx.opcode, ctx.request_id, inner.id, &e)
                }
            }
        };
        inner.obs.inflight_exit();
        span.set_aux(reply.payload.len() as u64);
        span.finish();
        inner.dedup.complete(key, reply.clone());
        inner.requests_served.inc();
        // The requester may be gone; that's its problem.
        let _ = inner.send(ctx.from, reply);
    }
    let _ = inner.work_tx.send(None);
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

    /// Issues a request without waiting; see [`PendingCall`] for how it
    /// resolves and retransmits. The envelope carries no deadline (the
    /// caller picks its budget at wait time): the server must not drop
    /// work a pipelined caller is still waiting on.
    pub fn call_async(&self, to: NodeId, opcode: OpCode, payload: Bytes) -> PendingCall {
        self.issue(to, opcode, payload, None)
    }

    /// Registers the call's pending slot and makes its first
    /// transmission. `budget` is the overall time the caller will wait,
    /// propagated to the server as the request's deadline.
    fn issue(
        &self,
        to: NodeId,
        opcode: OpCode,
        payload: Bytes,
        budget: Option<Duration>,
    ) -> PendingCall {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = Slot { waiter: std::thread::current(), reply: None };
        self.inner.pending.lock().insert(id, slot);
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
        let now = Instant::now();
        let mut call = PendingCall {
            failed: None,
            inner: Arc::clone(&self.inner),
            to,
            env,
            attempts: 0,
            deadline: budget.map(|b| now + b),
            next_retransmit: None,
            // Deterministic jitter: seeded by (node, call), independent
            // of thread interleavings.
            jitter: SplitMix64::new(u64::from(self.inner.id.raw()) << 32 ^ id),
            span,
        };
        call.transmit(now);
        call
    }

    /// Synchronous call: a [`PendingCall`] waited on for `timeout`, which
    /// is also the budget its transmissions carry to the server.
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
        self.issue(to, opcode, payload, Some(timeout)).wait(timeout)
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

    /// Calls issued here that have neither resolved nor been dropped.
    pub fn pending_calls(&self) -> usize {
        self.inner.pending.lock().values().filter(|slot| slot.reply.is_none()).count()
    }
}

/// An in-flight RPC; resolves on response, send failure or node
/// shutdown. While waited on, it retransmits the same request id — one
/// attempt timeout plus a jittered exponential backoff step after the
/// previous send, within the policy's `max_attempts` and the call's
/// budget — so transient loss heals transparently. Its pending slot stays
/// registered until the call resolves or is dropped, so a reply is
/// accepted whenever it lands.
pub struct PendingCall {
    /// A send error that resolved the call; surfaced by the next poll.
    failed: Option<KeraError>,
    inner: Arc<NodeInner>,
    to: NodeId,
    /// The request as issued (no deadline); each transmission is a copy
    /// stamped with the budget left at that moment.
    env: Envelope,
    /// Sends so far (first transmission included).
    attempts: u32,
    /// End of the caller's overall budget, when it stated one.
    deadline: Option<Instant>,
    /// When to send again; `None` once no further send will happen.
    next_retransmit: Option<Instant>,
    jitter: SplitMix64,
    /// The client-side span of this call; finished when the call
    /// resolves (or when an abandoned call is dropped).
    span: Span,
}

impl PendingCall {
    /// Waits up to `timeout` without consuming the call: returns
    /// `Some(result)` once resolved, `None` on timeout (the call stays
    /// pending and may be polled again; a zero timeout only looks).
    /// Retransmits the request whenever its retransmission timer has
    /// fired.
    pub fn poll_wait(&mut self, timeout: Duration) -> Option<Result<Bytes>> {
        let poll_deadline = Instant::now() + timeout;
        loop {
            let resolved = self.failed.take().map(Err).or_else(|| self.look());
            if resolved.is_some() {
                self.finish_span();
                return resolved;
            }
            let now = Instant::now();
            if self.next_retransmit.is_some_and(|at| now >= at) {
                self.transmit(now);
            } else if now >= poll_deadline {
                return None;
            } else {
                let wake = self.next_retransmit.map_or(poll_deadline, |at| at.min(poll_deadline));
                std::thread::park_timeout(wake - now);
            }
        }
    }

    /// Collects the reply if it is in the slot. If not, this thread is
    /// the slot's waiter from here on — registered under the lock it
    /// looked under, so a reply landing before it parks unparks it.
    fn look(&mut self) -> Option<Result<Bytes>> {
        let mut pending = self.inner.pending.lock();
        let Some(slot) = pending.get_mut(&self.env.request_id) else {
            // Our own node shut down or crashed.
            return Some(Err(KeraError::Disconnected(self.inner.id)));
        };
        let Some(env) = slot.reply.take() else {
            slot.waiter = std::thread::current();
            return None;
        };
        pending.remove(&self.env.request_id);
        Some(env.check_status().map(|()| env.payload))
    }

    /// Every send of the request, first or repeated: stamps the budget
    /// *remaining* now and schedules the next retransmission. A send
    /// error resolves the call at once unless it is retriable and
    /// another send is scheduled (it then just consumed an attempt).
    fn transmit(&mut self, now: Instant) {
        let remaining = self.deadline.map(|d| d.saturating_duration_since(now));
        if remaining.is_some_and(|r| r.is_zero()) {
            // Budget already spent (a zero timeout, or a late wake-up):
            // a zero deadline on the wire would read as "no deadline".
            self.next_retransmit = None;
            return;
        }
        if self.attempts > 0 {
            self.inner.retries_sent.inc();
            self.inner.obs.event(
                Stage::RpcRetry,
                self.span.context(),
                self.env.opcode as u8,
                u64::from(self.attempts),
            );
        }
        self.attempts += 1;
        // lint: allow(no-hot-copy) — refcount clone kept for retransmits
        let mut env = self.env.clone();
        if let Some(remaining) = remaining {
            // The *overall* budget, not the attempt timeout: a timed-out
            // attempt only retransmits — the caller hasn't abandoned the
            // call, and the server must not drop the execution early.
            env = env.with_deadline(remaining);
        }
        let sent = self.inner.send(self.to, env);
        self.next_retransmit = self.retransmit_after(now, sent.is_ok());
        if let Err(e) = sent {
            if !e.is_retriable() || self.next_retransmit.is_none() {
                self.failed = Some(e);
            }
        }
    }

    /// When to retransmit after a transmission at `now`: the attempt
    /// timeout (skipped if the send itself failed) plus the backoff step
    /// jittered to [50%, 100%]. `None` when the attempts are used up or
    /// that instant falls outside the call's budget.
    fn retransmit_after(&mut self, now: Instant, sent: bool) -> Option<Instant> {
        if self.attempts >= self.inner.retry.max_attempts {
            return None;
        }
        let policy = &self.inner.retry;
        let unit = self.jitter.next_u32() as f64 / u32::MAX as f64;
        let backoff = policy.backoff_for(self.attempts).mul_f64(0.5 + 0.5 * unit);
        let wait = if sent { policy.attempt_timeout + backoff } else { backoff };
        let at = now + wait;
        self.deadline.is_none_or(|d| at < d).then_some(at)
    }

    /// Records the call span now (resolution time), replacing it with an
    /// inert one so later polls/drops record nothing more.
    fn finish_span(&mut self) {
        let mut span = std::mem::replace(&mut self.span, Span::inert());
        span.set_aux(u64::from(self.attempts));
        span.finish();
    }

    /// Waits up to `timeout` for the response. On success returns the
    /// response payload; error statuses are converted back to
    /// [`KeraError`].
    pub fn wait(mut self, timeout: Duration) -> Result<Bytes> {
        self.poll_wait(timeout).unwrap_or(Err(KeraError::Timeout { op: "rpc" }))
    }
}

impl Drop for PendingCall {
    /// Unregisters the pending slot: a call abandoned unresolved must
    /// not leave it behind for a reply that may never come.
    fn drop(&mut self) {
        self.inner.pending.lock().remove(&self.env.request_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmem::InMemNetwork;
    use crate::testkit::Collector;
    use kera_common::config::NetworkModel;

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
        let net = InMemNetwork::new(NetworkModel::default());
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
                (i, c.call_async(NodeId(1), OpCode::Ping, body))
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

        let net = InMemNetwork::new(NetworkModel::default());
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
        let call = c.call_async(NodeId(1), OpCode::Fetch, Bytes::new()); // slow op
        std::thread::sleep(Duration::from_millis(20));
        server.shutdown();
        // Either the response never comes (timeout) or the channel drops.
        let res = call.wait(Duration::from_millis(400));
        assert!(res.is_err());
    }

    #[test]
    fn crash_fails_the_crashed_nodes_own_calls_at_once() {
        let net = InMemNetwork::new(NetworkModel::default());
        let _peer = Collector::bind(&net.register(NodeId(1))); // never answers
        let client =
            NodeRuntime::start(Arc::new(net.register(NodeId(2))), Arc::new(NullService), 1);
        let mut call = client.client().call_async(NodeId(1), OpCode::Ping, Bytes::new());
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
            let call = c.call_async(NodeId(1), OpCode::Ping, body.clone());
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
        let call = client.client().call_async(NodeId(1), OpCode::Fetch, Bytes::from_static(b"moved"));
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
        let net = InMemNetwork::new(NetworkModel::default());
        let _server = NodeRuntime::start(Arc::new(net.register(NodeId(1))), Arc::new(Slow), 8);
        let client =
            NodeRuntime::start(Arc::new(net.register(NodeId(2))), Arc::new(NullService), 1);
        let c = client.client();
        let started = Instant::now();
        let calls: Vec<_> = (0..8u8)
            .map(|i| (i, c.call_async(NodeId(1), OpCode::Ping, Bytes::from(vec![i]))))
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
            let net = AnyNetwork::new(kind, NetworkModel::default());
            let server =
                NodeRuntime::start(net.register(NodeId(1)).unwrap(), Arc::new(EchoService), 1);
            let client =
                NodeRuntime::start(net.register(NodeId(2)).unwrap(), Arc::new(NullService), 1);
            // Traffic both ways, so TCP has live reader threads on each side.
            client
                .client()
                .call(NodeId(1), OpCode::Ping, Bytes::new(), Duration::from_secs(2))
                .unwrap();
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
    fn retries_recover_from_lossy_transport() {
        use crate::faults::FaultPlan;
        use kera_common::config::FaultProfile;

        let net = InMemNetwork::new(NetworkModel::default());
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

        let net = InMemNetwork::new(NetworkModel::default());
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
                .call_async(NodeId(1), OpCode::Ping, body.clone())
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

        let net = InMemNetwork::new(NetworkModel::default());
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

        let net = InMemNetwork::new(NetworkModel::default());
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
        let net = InMemNetwork::new(NetworkModel::default());
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
        let net = InMemNetwork::new(NetworkModel::default());
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
        let net = InMemNetwork::new(NetworkModel::default());
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
        let net = InMemNetwork::new(NetworkModel::default());
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
        let net = InMemNetwork::new(NetworkModel::default());
        // A black hole: bound (sends succeed) but never answers.
        let _peer = Collector::bind(&net.register(NodeId(1)));
        let client =
            NodeRuntime::start(Arc::new(net.register(NodeId(2))), Arc::new(NullService), 1);
        let c = client.client();
        let mut calls: Vec<_> =
            (0..32).map(|_| c.call_async(NodeId(1), OpCode::Ping, Bytes::new())).collect();
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
