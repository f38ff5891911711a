//! The in-memory transport: the fabric of the in-process cluster.
//!
//! The fabric is a registry of bound nodes: `send` looks the destination
//! up once, clones its [`Deliver`] target out, and calls it on the
//! sender's own thread — no inbox, no thread in between, and the registry
//! lock is never held across a delivery. An id registered but not yet
//! bound is as unreachable as an unknown one. Two optional cost knobs
//! approximate a physical network (see `DESIGN.md` §1):
//!
//! - **bandwidth**: the sender busy-waits for the wire-serialization time
//!   of the message on its own link before the message is handed over,
//!   modelling NIC occupancy;
//! - **latency**: messages detour through a [`DelayLine`], whose thread
//!   delivers them once their arrival deadline has passed.
//!
//! With both at zero (the default) the fabric adds only the real cost of
//! the delivery, and all measured RPC overhead is genuine CPU work.
//!
//! The network also supports *fault injection*: [`InMemNetwork::crash`]
//! atomically unregisters a node; subsequent sends to it fail with
//! [`KeraError::Disconnected`] and its runtime is told it is closed.

use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use kera_common::config::NetworkModel;
use kera_common::ids::NodeId;
use kera_common::timing::spin_for_ns;
use kera_common::{KeraError, Result};
use kera_wire::frames::Envelope;
use parking_lot::RwLock;

use crate::delay::DelayLine;
use crate::transport::{Deliver, Transport};

/// Each registered id with its node's runtime, once bound; until then
/// the id is unreachable.
type Nodes = RwLock<HashMap<NodeId, Option<Weak<dyn Deliver>>>>;

struct NetInner {
    /// Shared with the delay line's sink, which must not keep the whole
    /// network (and so itself) alive.
    nodes: Arc<Nodes>,
    model: NetworkModel,
    /// The latency model's delay line (present iff latency_ns > 0).
    delay: Option<DelayLine<(NodeId, Envelope)>>,
}

/// A fabric connecting in-process nodes.
#[derive(Clone)]
pub struct InMemNetwork {
    inner: Arc<NetInner>,
}

impl InMemNetwork {
    pub fn new(model: NetworkModel) -> Self {
        let nodes: Arc<Nodes> = Arc::new(RwLock::named("net.nodes", HashMap::new()));
        let delay = (model.latency_ns > 0).then(|| {
            let nodes = Arc::clone(&nodes);
            // A destination that crashed while the message was in flight
            // silently swallows it — exactly what a dead NIC does; the
            // sender's RPC times out instead.
            DelayLine::spawn("inmem-delay", move |(to, env)| {
                if let Some(node) = bound(&nodes, to) {
                    node.deliver(env);
                }
            })
        });
        Self { inner: Arc::new(NetInner { nodes, model, delay }) }
    }

    /// Registers `id` and returns its transport endpoint. Panics if the id
    /// is already registered (cluster assembly bug).
    pub fn register(&self, id: NodeId) -> InMemTransport {
        let prev = self.inner.nodes.write().insert(id, None);
        assert!(prev.is_none(), "node {id} registered twice");
        InMemTransport { id, net: Arc::clone(&self.inner) }
    }

    /// Crashes `id`: unregisters it so in-flight and future sends to it
    /// fail, and tells its runtime, which stops transmitting and fails its
    /// outstanding calls at once.
    pub fn crash(&self, id: NodeId) {
        // The registry guard is gone before the node is called.
        let target = self.inner.nodes.write().remove(&id).flatten();
        if let Some(node) = target.and_then(|t| t.upgrade()) {
            node.closed();
        }
    }

    /// True if `id` is currently registered (alive).
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.inner.nodes.read().contains_key(&id)
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.inner.nodes.read().len()
    }
}

/// The node bound at `to`, cloned out so that `net.nodes` is released
/// before the caller delivers to it.
fn bound(nodes: &Nodes, to: NodeId) -> Option<Arc<dyn Deliver>> {
    nodes.read().get(&to)?.as_ref()?.upgrade()
}

/// One node's endpoint on an [`InMemNetwork`].
pub struct InMemTransport {
    id: NodeId,
    net: Arc<NetInner>,
}

impl Transport for InMemTransport {
    fn local(&self) -> NodeId {
        self.id
    }

    fn send(&self, to: NodeId, env: Envelope) -> Result<()> {
        let model = &self.net.model;
        if model.bandwidth_bytes_per_sec > 0 {
            // Sender-side NIC occupancy: the calling thread owns this link.
            spin_for_ns(model.serialize_ns(env.wire_len()));
        }
        let node = bound(&self.net.nodes, to).ok_or(KeraError::Disconnected(to))?;
        match &self.net.delay {
            Some(line) => {
                let due = Instant::now() + Duration::from_nanos(model.latency_ns);
                if !line.hold(due, (to, env)) {
                    return Err(KeraError::ShuttingDown);
                }
            }
            None => node.deliver(env),
        }
        Ok(())
    }

    fn bind(&self, target: Weak<dyn Deliver>) {
        // A node crashed before it started stays unreachable.
        if let Some(entry) = self.net.nodes.write().get_mut(&self.id) {
            *entry = Some(target);
        }
    }

    fn close(&self) {
        self.net.nodes.write().remove(&self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{endpoint, Collector};
    use bytes::Bytes;
    use kera_wire::frames::OpCode;

    fn env(from: u32, id: u64) -> Envelope {
        Envelope::request(OpCode::Ping, id, NodeId(from), Bytes::from_static(b"x"))
    }

    #[test]
    fn send_and_receive() {
        let net = InMemNetwork::new(NetworkModel::default());
        let a = net.register(NodeId(1));
        let (_b, b_in) = endpoint(net.register(NodeId(2)));
        a.send(NodeId(2), env(1, 7)).unwrap();
        let got = b_in.recv(Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!(got.request_id, 7);
        assert_eq!(got.from, NodeId(1));
    }

    #[test]
    fn recv_timeout_returns_none() {
        let net = InMemNetwork::new(NetworkModel::default());
        let (_a, a_in) = endpoint(net.register(NodeId(1)));
        assert!(a_in.recv(Duration::from_millis(10)).unwrap().is_none());
    }

    #[test]
    fn per_link_fifo_order() {
        let net = InMemNetwork::new(NetworkModel::default());
        let a = net.register(NodeId(1));
        let (_b, b_in) = endpoint(net.register(NodeId(2)));
        for i in 0..100 {
            a.send(NodeId(2), env(1, i)).unwrap();
        }
        for i in 0..100 {
            let got = b_in.recv(Duration::from_secs(1)).unwrap().unwrap();
            assert_eq!(got.request_id, i);
        }
    }

    #[test]
    fn concurrent_senders_keep_per_link_fifo() {
        // Eight threads deliver through one endpoint on their own stacks:
        // nothing is lost or doubled, and each thread's frames arrive in
        // the order it sent them.
        let net = InMemNetwork::new(NetworkModel::default());
        let a = Arc::new(net.register(NodeId(1)));
        let (_b, b_in) = endpoint(net.register(NodeId(2)));
        let start = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let (a, start) = (Arc::clone(&a), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..50u64 {
                        a.send(NodeId(2), env(1, t * 1000 + i)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut next = [0u64; 8];
        for _ in 0..400 {
            let id = b_in.recv(Duration::from_secs(2)).unwrap().expect("frame lost").request_id;
            let (t, i) = ((id / 1000) as usize, id % 1000);
            assert_eq!(i, next[t], "thread {t}'s frames reordered or duplicated");
            next[t] += 1;
        }
        assert!(b_in.recv(Duration::from_millis(10)).unwrap().is_none());
    }

    #[test]
    fn send_to_unknown_node_fails() {
        let net = InMemNetwork::new(NetworkModel::default());
        let a = net.register(NodeId(1));
        let err = a.send(NodeId(99), env(1, 0)).unwrap_err();
        assert!(matches!(err, KeraError::Disconnected(NodeId(99))));
    }

    #[test]
    fn send_to_registered_but_unbound_node_fails() {
        // No holding queue: until its runtime binds, an id is as
        // unreachable as an unknown one, and becomes reachable at bind.
        let net = InMemNetwork::new(NetworkModel::default());
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        let err = a.send(NodeId(2), env(1, 0)).unwrap_err();
        assert!(matches!(err, KeraError::Disconnected(NodeId(2))));
        let b_in = Collector::bind(&b);
        a.send(NodeId(2), env(1, 1)).unwrap();
        assert_eq!(b_in.recv(Duration::from_secs(1)).unwrap().unwrap().request_id, 1);
    }

    #[test]
    fn crash_makes_sends_fail_and_inbox_close() {
        let net = InMemNetwork::new(NetworkModel::default());
        let a = net.register(NodeId(1));
        let (_b, b_in) = endpoint(net.register(NodeId(2)));
        assert!(net.is_alive(NodeId(2)));
        net.crash(NodeId(2));
        assert!(!net.is_alive(NodeId(2)));
        assert!(a.send(NodeId(2), env(1, 0)).is_err());
        // The crashed node's own target observes the close.
        assert!(b_in.recv(Duration::from_millis(10)).is_err());
    }

    #[test]
    fn double_register_panics() {
        let net = InMemNetwork::new(NetworkModel::default());
        let _a = net.register(NodeId(1));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = net.register(NodeId(1));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn latency_model_delays_delivery_but_keeps_order() {
        let net = InMemNetwork::new(NetworkModel {
            latency_ns: 5_000_000, // 5 ms
            bandwidth_bytes_per_sec: 0,
        });
        let a = net.register(NodeId(1));
        let (_b, b_in) = endpoint(net.register(NodeId(2)));
        let t0 = Instant::now();
        for i in 0..10 {
            a.send(NodeId(2), env(1, i)).unwrap();
        }
        for i in 0..10 {
            let got = b_in.recv(Duration::from_secs(1)).unwrap().unwrap();
            assert_eq!(got.request_id, i);
        }
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn bandwidth_model_paces_the_sender() {
        let net = InMemNetwork::new(NetworkModel {
            latency_ns: 0,
            bandwidth_bytes_per_sec: 1_000_000, // 1 MB/s
        });
        let a = net.register(NodeId(1));
        let (_b, _b_in) = endpoint(net.register(NodeId(2)));
        let payload = Bytes::from(vec![0u8; 10_000]); // ~10 ms at 1 MB/s
        let t0 = Instant::now();
        a.send(NodeId(2), Envelope::request(OpCode::Ping, 0, NodeId(1), payload)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(9));
    }

    #[test]
    fn close_unregisters() {
        let net = InMemNetwork::new(NetworkModel::default());
        let a = net.register(NodeId(1));
        assert_eq!(net.node_count(), 1);
        a.close();
        assert_eq!(net.node_count(), 0);
    }
}
