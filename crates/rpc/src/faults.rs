//! Fault injection at the transport seam.
//!
//! [`FaultInjector`] wraps any [`Transport`] and perturbs its sends:
//! messages can be silently dropped, delivered twice, delayed (which
//! also reorders them relative to later sends), black-holed by a
//! per-direction partition, or kept while an end of their link is held.
//! Faults happen *below* the RPC layer, so the retry/backoff and
//! at-most-once machinery in [`crate::node`] sees exactly what a lossy
//! network would produce.
//!
//! All probabilistic decisions come from a [`SplitMix64`] seeded per
//! node from the shared [`FaultProfile::seed`], so a given seed yields
//! the same fault pattern for the same per-node send sequence — failing
//! chaos tests reproduce.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use kera_common::config::FaultProfile;
use kera_common::ids::NodeId;
use kera_common::metrics::Counter;
use kera_common::rng::SplitMix64;
use kera_common::Result;
use kera_wire::frames::Envelope;
use parking_lot::Mutex;

use crate::delay::DelayLine;
use crate::transport::{Deliver, Transport};

/// A frame the plan keeps — until a due time (the delay fault) or a
/// release (a held node) — with the inner transport it was headed into.
struct Frame {
    via: Arc<dyn Transport>,
    to: NodeId,
    env: Envelope,
}

impl Frame {
    /// A destination that died meanwhile swallows it, as a dead NIC would.
    fn send(self) {
        let _ = self.via.send(self.to, self.env);
    }
}

/// The held nodes and, in send order, the frames kept for them.
#[derive(Default)]
struct Held {
    nodes: HashSet<NodeId>,
    frames: Vec<Frame>,
}

/// Shared fault state for a cluster: the rate profile, the active
/// partitions, the held nodes, the delay fault's one line, and counters
/// for what was actually injected. Cloning shares the underlying plan,
/// so tests can hold one handle while every node's injector consults it.
#[derive(Clone)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

struct PlanInner {
    profile: FaultProfile,
    /// Directed blocked links: a `(src, dst)` entry black-holes
    /// everything src sends toward dst.
    partitions: Mutex<HashSet<(NodeId, NodeId)>>,
    /// Slow clients: every send *originating* at a listed node stalls
    /// for the given duration first. Models a consumer whose uplink
    /// (fetch requests, acks) has gone glacial without dropping it.
    slow: Mutex<HashMap<NodeId, Duration>>,
    /// Never locked across a send: `release` takes the frames out first.
    held: Mutex<Held>,
    /// The delay fault's line (present iff `delay_rate > 0`).
    delay: Option<DelayLine<Frame>>,
    dropped: Counter,
    duplicated: Counter,
    delayed: Counter,
    blocked: Counter,
    stalled: Counter,
    kept: Counter,
}

impl FaultPlan {
    pub fn new(profile: FaultProfile) -> Result<FaultPlan> {
        profile.validate()?;
        let delay = (profile.delay_rate > 0.0 && !profile.max_delay.is_zero())
            .then(|| DelayLine::spawn("faults-delay", Frame::send));
        Ok(FaultPlan {
            inner: Arc::new(PlanInner {
                profile,
                partitions: Mutex::named("faults.partitions", HashSet::new()),
                slow: Mutex::named("faults.slow", HashMap::new()),
                held: Mutex::named("faults.held", Held::default()),
                delay,
                dropped: Counter::new(),
                duplicated: Counter::new(),
                delayed: Counter::new(),
                blocked: Counter::new(),
                stalled: Counter::new(),
                kept: Counter::new(),
            }),
        })
    }

    pub fn profile(&self) -> FaultProfile {
        self.inner.profile
    }

    /// Cuts the link between `a` and `b` in both directions.
    pub fn partition(&self, a: NodeId, b: NodeId) {
        let mut p = self.inner.partitions.lock();
        p.insert((a, b));
        p.insert((b, a));
    }

    /// Cuts only the `src → dst` direction (asymmetric partition).
    pub fn partition_one_way(&self, src: NodeId, dst: NodeId) {
        self.inner.partitions.lock().insert((src, dst));
    }

    /// Restores the link between `a` and `b` (both directions).
    pub fn heal(&self, a: NodeId, b: NodeId) {
        let mut p = self.inner.partitions.lock();
        p.remove(&(a, b));
        p.remove(&(b, a));
    }

    /// Removes every partition.
    pub fn heal_all(&self) {
        self.inner.partitions.lock().clear();
    }

    pub fn is_partitioned(&self, src: NodeId, dst: NodeId) -> bool {
        self.inner.partitions.lock().contains(&(src, dst))
    }

    /// Holds `node`: until [`FaultPlan::release`] every frame sent to it
    /// or from it is kept, in send order, and the send returns `Ok` — as
    /// with a partition, callers learn only through their own timers, but
    /// nothing is lost. The node's threads and timers keep running: an
    /// unreachable process, not a stopped one. A frame already on the
    /// delay line when the hold begins was in flight and still lands.
    pub fn hold(&self, node: NodeId) {
        self.inner.held.lock().nodes.insert(node);
    }

    /// Ends a hold (a no-op on a node that is not held): later sends pass
    /// straight through, and the kept frames whose other end is not held
    /// too go out through their transports, in send order, on this thread
    /// — a delivery never blocks. A frame sent while this drains may
    /// overtake the drained ones: the reordering the delay fault already
    /// produces and request ids already absorb.
    pub fn release(&self, node: NodeId) {
        let mut held = self.inner.held.lock();
        if !held.nodes.remove(&node) {
            return;
        }
        let (keep, go): (Vec<_>, Vec<_>) = std::mem::take(&mut held.frames)
            .into_iter()
            .partition(|f| held.nodes.contains(&f.via.local()) || held.nodes.contains(&f.to));
        held.frames = keep;
        drop(held);
        go.into_iter().for_each(Frame::send);
    }

    /// Makes every send originating at `node` stall for `delay` before
    /// hitting the wire (slow-client mode). Unlike a delay fault this is
    /// synchronous — it back-pressures the sender's own threads, the
    /// way a saturated uplink would.
    pub fn set_slow(&self, node: NodeId, delay: Duration) {
        self.inner.slow.lock().insert(node, delay);
    }

    /// Restores `node` to full speed.
    pub fn clear_slow(&self, node: NodeId) {
        self.inner.slow.lock().remove(&node);
    }

    fn slow_delay(&self, node: NodeId) -> Option<Duration> {
        self.inner.slow.lock().get(&node).copied()
    }

    /// Messages silently dropped by the rate faults.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.get()
    }

    /// Messages delivered twice.
    pub fn duplicated(&self) -> u64 {
        self.inner.duplicated.get()
    }

    /// Messages held back by an injected delay.
    pub fn delayed(&self) -> u64 {
        self.inner.delayed.get()
    }

    /// Messages black-holed by a partition.
    pub fn blocked(&self) -> u64 {
        self.inner.blocked.get()
    }

    /// Sends stalled by slow-client mode.
    pub fn stalled(&self) -> u64 {
        self.inner.stalled.get()
    }

    /// Messages kept because an end of their link was held.
    pub fn held(&self) -> u64 {
        self.inner.kept.get()
    }
}

/// A [`Transport`] wrapper that injects the faults described by a
/// [`FaultPlan`] into every send. Arriving frames bypass it — faults
/// are modeled at the sender, which suffices because each message
/// crosses exactly one injector.
pub struct FaultInjector {
    inner: Arc<dyn Transport>,
    plan: FaultPlan,
    rng: Mutex<SplitMix64>,
}

impl FaultInjector {
    pub fn new(inner: Arc<dyn Transport>, plan: FaultPlan) -> FaultInjector {
        // Distinct stream per node so decisions don't depend on how the
        // scheduler interleaves different nodes' sends.
        let rng = SplitMix64::new(plan.profile().seed ^ (u64::from(inner.local().raw()) << 20));
        FaultInjector { inner, plan, rng: Mutex::named("faults.rng", rng) }
    }

    /// Rolls one fault decision: true with probability `rate`.
    fn roll(&self, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        // 53 random mantissa bits → uniform in [0, 1).
        let unit = (self.rng.lock().next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < rate
    }
}

impl Transport for FaultInjector {
    fn local(&self) -> NodeId {
        self.inner.local()
    }

    fn send(&self, to: NodeId, env: Envelope) -> Result<()> {
        let profile = self.plan.profile();
        if let Some(stall) = self.plan.slow_delay(self.local()) {
            // Synchronous stall *before* the other faults: a slow client
            // is slow on every byte it pushes, partitioned or not.
            self.plan.inner.stalled.inc();
            std::thread::sleep(stall);
        }
        if self.plan.is_partitioned(self.local(), to) {
            // Black hole: the network ate it. The caller only learns via
            // its own timeout, exactly like a real partition.
            self.plan.inner.blocked.inc();
            return Ok(());
        }
        {
            let mut held = self.plan.inner.held.lock();
            if held.nodes.contains(&self.local()) || held.nodes.contains(&to) {
                held.frames.push(Frame { via: Arc::clone(&self.inner), to, env });
                self.plan.inner.kept.inc();
                return Ok(());
            }
        }
        if self.roll(profile.drop_rate) {
            self.plan.inner.dropped.inc();
            return Ok(());
        }
        if self.roll(profile.delay_rate) {
            let delay_micros = profile.max_delay.as_micros().min(u128::from(u64::MAX)) as u64;
            let wait = Duration::from_micros(self.rng.lock().next_below(delay_micros.max(1)));
            if let Some(line) = &self.plan.inner.delay {
                // A line whose thread is gone ate the message: a drop.
                let frame = Frame { via: Arc::clone(&self.inner), to, env };
                let outcome = if line.hold(Instant::now() + wait, frame) {
                    &self.plan.inner.delayed
                } else {
                    &self.plan.inner.dropped
                };
                outcome.inc();
                return Ok(());
            }
        }
        if self.roll(profile.duplicate_rate) {
            self.plan.inner.duplicated.inc();
            self.inner.send(to, env.clone())?;
        }
        self.inner.send(to, env)
    }

    fn bind(&self, target: Weak<dyn Deliver>) {
        self.inner.bind(target)
    }

    fn close(&self) {
        self.inner.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmem::InMemNetwork;
    use crate::testkit::Collector;
    use kera_common::config::NetworkModel;
    use kera_wire::frames::OpCode;

    fn env(id: u64) -> Envelope {
        Envelope::request(OpCode::Ping, id, NodeId(1), bytes::Bytes::from_static(b"x"))
    }

    /// Injected endpoints for nodes `1..=n` on one plan, each bound to a
    /// collector; injector and inbox `i` are node `i + 1`'s.
    fn mesh(
        profile: FaultProfile,
        n: u32,
    ) -> (InMemNetwork, FaultPlan, Vec<Arc<FaultInjector>>, Vec<Arc<Collector>>) {
        let net = InMemNetwork::new(NetworkModel::default());
        let plan = FaultPlan::new(profile).unwrap();
        let (injectors, inboxes) = (1..=n)
            .map(|id| {
                let transport = net.register(NodeId(id));
                let inbox = Collector::bind(&transport);
                (Arc::new(FaultInjector::new(Arc::new(transport), plan.clone())), inbox)
            })
            .unzip();
        (net, plan, injectors, inboxes)
    }

    /// Request ids of what `inbox` has collected, in arrival order.
    fn ids(inbox: &Collector) -> Vec<u64> {
        std::iter::from_fn(|| inbox.recv(Duration::from_millis(20)).ok().flatten())
            .map(|env| env.request_id)
            .collect()
    }

    /// Node 1's injector and a count of what node 2 has collected.
    fn wired(profile: FaultProfile) -> (FaultPlan, Arc<FaultInjector>, impl Fn() -> usize) {
        let (_net, plan, mut injectors, mut inboxes) = mesh(profile, 2);
        let inbox = inboxes.remove(1);
        (plan, injectors.remove(0), move || ids(&inbox).len())
    }

    #[test]
    fn no_faults_passes_through() {
        let (plan, injector, drain) = wired(FaultProfile::default());
        for i in 0..50 {
            injector.send(NodeId(2), env(i)).unwrap();
        }
        assert_eq!(drain(), 50);
        assert_eq!(plan.dropped() + plan.duplicated() + plan.delayed() + plan.blocked(), 0);
    }

    #[test]
    fn drop_rate_loses_messages() {
        let profile = FaultProfile { seed: 7, drop_rate: 0.5, ..FaultProfile::default() };
        let (plan, injector, drain) = wired(profile);
        for i in 0..200 {
            injector.send(NodeId(2), env(i)).unwrap();
        }
        let delivered = drain();
        assert_eq!(delivered as u64 + plan.dropped(), 200);
        // With rate 0.5 over 200 sends, both sides must be populated.
        assert!(plan.dropped() > 50, "dropped {}", plan.dropped());
        assert!(delivered > 50, "delivered {delivered}");
    }

    #[test]
    fn duplicate_rate_doubles_messages() {
        let profile = FaultProfile { seed: 7, duplicate_rate: 0.5, ..FaultProfile::default() };
        let (plan, injector, drain) = wired(profile);
        for i in 0..100 {
            injector.send(NodeId(2), env(i)).unwrap();
        }
        let delivered = drain();
        assert_eq!(delivered as u64, 100 + plan.duplicated());
        assert!(plan.duplicated() > 20, "duplicated {}", plan.duplicated());
    }

    #[test]
    fn delayed_messages_still_arrive() {
        let profile = FaultProfile {
            seed: 7,
            delay_rate: 1.0,
            max_delay: Duration::from_millis(5),
            ..FaultProfile::default()
        };
        // One line per plan, however many injectors share it. (The only
        // test of this binary with a delay fault: the census is process-wide.)
        let (_net, plan, injectors, inboxes) = mesh(profile, 4);
        for (n, injector) in injectors.iter().enumerate() {
            for i in 0..5 {
                injector.send(NodeId(1), env(n as u64 * 5 + i)).unwrap();
            }
        }
        let mut got = ids(&inboxes[0]);
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        assert_eq!(plan.delayed(), 20);
        // Counted once every frame is in: a thread names itself as it
        // starts, and whatever delivered them has started.
        assert_eq!(crate::thread_count_named("faults-delay"), 1);
    }

    #[test]
    fn held_node_keeps_frames_both_ways_and_releases_them_in_send_order() {
        let (_net, plan, injectors, inboxes) = mesh(FaultProfile::default(), 2);
        plan.hold(NodeId(2));
        plan.hold(NodeId(2)); // idempotent
        for i in 0..10 {
            // Like a partition, a hold looks like silence, not an error.
            injectors[0].send(NodeId(2), env(i)).unwrap();
        }
        for i in 10..15 {
            injectors[1].send(NodeId(1), env(i)).unwrap();
        }
        plan.release(NodeId(9)); // never held: a no-op
        assert_eq!((ids(&inboxes[0]), ids(&inboxes[1])), (vec![], vec![]));
        assert_eq!(plan.held(), 15);

        plan.release(NodeId(2));
        assert_eq!(ids(&inboxes[1]), (0..10).collect::<Vec<_>>());
        assert_eq!(ids(&inboxes[0]), (10..15).collect::<Vec<_>>());

        plan.release(NodeId(2)); // released already: a no-op
        injectors[0].send(NodeId(2), env(99)).unwrap();
        assert_eq!(ids(&inboxes[1]), [99]);
        assert_eq!(plan.held(), 15, "a released node keeps nothing");
    }

    #[test]
    fn a_frame_between_two_held_nodes_waits_for_both() {
        let (_net, plan, injectors, inboxes) = mesh(FaultProfile::default(), 3);
        plan.hold(NodeId(1));
        plan.hold(NodeId(2));
        injectors[0].send(NodeId(2), env(1)).unwrap();
        injectors[0].send(NodeId(3), env(2)).unwrap();
        plan.release(NodeId(1));
        assert_eq!(ids(&inboxes[2]), [2]);
        assert_eq!(ids(&inboxes[1]), [], "node 2 is still held");
        plan.release(NodeId(2));
        assert_eq!(ids(&inboxes[1]), [1]);
    }

    #[test]
    fn release_toward_a_crashed_destination_drops_silently() {
        let (net, plan, injectors, inboxes) = mesh(FaultProfile::default(), 3);
        plan.hold(NodeId(1));
        injectors[0].send(NodeId(2), env(1)).unwrap();
        injectors[0].send(NodeId(3), env(2)).unwrap();
        net.crash(NodeId(2));
        plan.release(NodeId(1));
        assert_eq!(ids(&inboxes[2]), [2], "the frame behind the dead one still lands");
    }

    #[test]
    fn a_frame_sent_during_a_release_is_delivered() {
        /// Node 2: on its first arrival it has node 1 send it one frame
        /// more — on the releasing thread's stack, mid-drain.
        struct SendsOnFirst {
            via: Arc<FaultInjector>,
            seen: Mutex<Vec<u64>>,
        }
        impl Deliver for SendsOnFirst {
            fn deliver(&self, got: Envelope) {
                let first = {
                    let mut seen = self.seen.lock();
                    seen.push(got.request_id);
                    seen.len() == 1
                };
                if first {
                    self.via.send(NodeId(2), env(99)).unwrap();
                }
            }
            fn closed(&self) {}
        }
        let net = InMemNetwork::new(NetworkModel::default());
        let plan = FaultPlan::new(FaultProfile::default()).unwrap();
        let via = Arc::new(FaultInjector::new(Arc::new(net.register(NodeId(1))), plan.clone()));
        let node = Arc::new(SendsOnFirst { via: Arc::clone(&via), seen: Mutex::new(Vec::new()) });
        let endpoint = net.register(NodeId(2));
        endpoint.bind(Arc::downgrade(&node) as _);

        plan.hold(NodeId(2));
        for i in 0..3 {
            via.send(NodeId(2), env(i)).unwrap();
        }
        plan.release(NodeId(2));
        // Where 99 lands among the drained three is not promised: it may
        // overtake them, as a delayed frame may.
        let mut seen = node.seen.lock().clone();
        seen.sort_unstable();
        assert_eq!(seen, [0, 1, 2, 99]);
        assert_eq!(plan.held(), 3, "the send made mid-release passed straight through");
    }

    #[test]
    fn partition_blackholes_then_heals() {
        let (plan, injector, drain) = wired(FaultProfile::default());
        plan.partition(NodeId(1), NodeId(2));
        assert!(plan.is_partitioned(NodeId(1), NodeId(2)));
        assert!(plan.is_partitioned(NodeId(2), NodeId(1)));
        for i in 0..10 {
            // A partition looks like loss, not an error.
            injector.send(NodeId(2), env(i)).unwrap();
        }
        assert_eq!(drain(), 0);
        assert_eq!(plan.blocked(), 10);

        plan.heal(NodeId(1), NodeId(2));
        for i in 0..10 {
            injector.send(NodeId(2), env(i)).unwrap();
        }
        assert_eq!(drain(), 10);
    }

    #[test]
    fn one_way_partition_is_directional() {
        let (plan, _injector, _drain) = wired(FaultProfile::default());
        plan.partition_one_way(NodeId(1), NodeId(2));
        assert!(plan.is_partitioned(NodeId(1), NodeId(2)));
        assert!(!plan.is_partitioned(NodeId(2), NodeId(1)));
        plan.heal_all();
        assert!(!plan.is_partitioned(NodeId(1), NodeId(2)));
    }

    #[test]
    fn slow_client_stalls_sends_then_recovers() {
        let (plan, injector, drain) = wired(FaultProfile::default());
        plan.set_slow(NodeId(1), Duration::from_millis(5));
        let start = Instant::now();
        for i in 0..4 {
            injector.send(NodeId(2), env(i)).unwrap();
        }
        let stalled_for = start.elapsed();
        assert_eq!(drain(), 4, "slow mode must deliver, just late");
        assert_eq!(plan.stalled(), 4);
        assert!(stalled_for >= Duration::from_millis(20), "stalled {stalled_for:?}");

        plan.clear_slow(NodeId(1));
        injector.send(NodeId(2), env(99)).unwrap();
        assert_eq!(drain(), 1);
        assert_eq!(plan.stalled(), 4, "cleared node no longer stalls");
    }

    #[test]
    fn same_seed_same_decisions() {
        let profile = FaultProfile { seed: 99, drop_rate: 0.3, ..FaultProfile::default() };
        let run = || {
            let (plan, injector, drain) = wired(profile);
            for i in 0..100 {
                injector.send(NodeId(2), env(i)).unwrap();
            }
            (drain(), plan.dropped())
        };
        assert_eq!(run(), run());
    }
}
