//! Fault injection at the transport seam.
//!
//! [`FaultInjector`] wraps any [`Transport`] and perturbs its sends:
//! messages can be silently dropped, delivered twice, delayed (which
//! also reorders them relative to later sends), or black-holed by a
//! per-direction partition. Faults happen *below* the RPC layer, so the
//! retry/backoff and at-most-once machinery in [`crate::node`] sees
//! exactly what a lossy network would produce.
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

/// Shared fault state for a cluster: the rate profile, the set of
/// active partitions, and counters for what was actually injected.
/// Cloning shares the underlying plan, so tests can hold one handle
/// while every node's injector consults the same partitions.
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
    dropped: Counter,
    duplicated: Counter,
    delayed: Counter,
    blocked: Counter,
    stalled: Counter,
}

impl FaultPlan {
    pub fn new(profile: FaultProfile) -> FaultPlan {
        // lint: allow(no-panic) — construction-time config validation; a
        // malformed fault profile must fail fast when the plan is built.
        profile.validate().expect("invalid fault profile");
        FaultPlan {
            inner: Arc::new(PlanInner {
                profile,
                partitions: Mutex::named("faults.partitions", HashSet::new()),
                slow: Mutex::named("faults.slow", HashMap::new()),
                dropped: Counter::new(),
                duplicated: Counter::new(),
                delayed: Counter::new(),
                blocked: Counter::new(),
                stalled: Counter::new(),
            }),
        }
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
}

/// A [`Transport`] wrapper that injects the faults described by a
/// [`FaultPlan`] into every send. Arriving frames bypass it — faults
/// are modeled at the sender, which suffices because each message
/// crosses exactly one injector.
pub struct FaultInjector {
    inner: Arc<dyn Transport>,
    plan: FaultPlan,
    rng: Mutex<SplitMix64>,
    /// The delay fault's line (spawned only when `delay_rate > 0`;
    /// taken on close).
    delay_tx: Mutex<Option<DelayLine>>,
}

impl FaultInjector {
    pub fn new(inner: Arc<dyn Transport>, plan: FaultPlan) -> FaultInjector {
        let profile = plan.profile();
        let delay_tx = (profile.delay_rate > 0.0 && !profile.max_delay.is_zero()).then(|| {
            let out = Arc::clone(&inner);
            DelayLine::spawn(format!("faults-delay-{}", inner.local().raw()), move |to, env| {
                // Peer may have died while the message was held.
                let _ = out.send(to, env);
            })
        });
        // Distinct stream per node so decisions don't depend on how the
        // scheduler interleaves different nodes' sends.
        let rng = SplitMix64::new(profile.seed ^ (u64::from(inner.local().raw()) << 20));
        FaultInjector {
            inner,
            plan,
            rng: Mutex::named("faults.rng", rng),
            delay_tx: Mutex::named("faults.delay_tx", delay_tx),
        }
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
        if self.roll(profile.drop_rate) {
            self.plan.inner.dropped.inc();
            return Ok(());
        }
        if self.roll(profile.delay_rate) {
            let delay_micros = profile.max_delay.as_micros().min(u128::from(u64::MAX)) as u64;
            let held = Duration::from_micros(self.rng.lock().next_below(delay_micros.max(1)));
            let due = Instant::now() + held;
            if let Some(line) = self.delay_tx.lock().as_ref() {
                // A line whose thread is gone ate the message: a drop.
                let outcome = if line.hold(due, to, env) {
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
        // Dropping the line releases what it holds; the guard is gone
        // before the line's thread is joined.
        let line = self.delay_tx.lock().take();
        drop(line);
        self.inner.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmem::InMemNetwork;
    use kera_common::config::NetworkModel;
    use kera_wire::frames::OpCode;

    fn env(id: u64) -> Envelope {
        Envelope::request(OpCode::Ping, id, NodeId(1), bytes::Bytes::from_static(b"x"))
    }

    fn wired(profile: FaultProfile) -> (FaultPlan, FaultInjector, impl Fn() -> usize) {
        let net = InMemNetwork::new(NetworkModel::default());
        let sender = net.register(NodeId(1));
        let receiver = net.register(NodeId(2));
        let inbox = crate::testkit::Collector::bind(&receiver);
        let plan = FaultPlan::new(profile);
        let injector = FaultInjector::new(Arc::new(sender), plan.clone());
        let drain = move || {
            let mut n = 0;
            while let Ok(Some(_)) = inbox.recv(Duration::from_millis(20)) {
                n += 1;
            }
            n
        };
        (plan, injector, drain)
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
        let (plan, injector, drain) = wired(profile);
        for i in 0..20 {
            injector.send(NodeId(2), env(i)).unwrap();
        }
        assert_eq!(drain(), 20);
        assert_eq!(plan.delayed(), 20);
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
