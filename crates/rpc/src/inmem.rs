//! The in-memory transport: the fabric of the in-process cluster.
//!
//! The fabric is a registry of bound nodes: `send` looks the destination
//! up once, clones its [`Deliver`] target out, and calls it on the
//! sender's own thread — no inbox, no thread in between, and the registry
//! lock is never held across a delivery. An id registered but not yet
//! bound is as unreachable as an unknown one. The fabric adds only the
//! real cost of the delivery: all measured RPC overhead is genuine CPU
//! work (`DESIGN.md` §1).
//!
//! The network also supports *fault injection*: [`InMemNetwork::crash`]
//! atomically unregisters a node; subsequent sends to it fail with
//! [`KeraError::Disconnected`] and its runtime is told it is closed.

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use kera_common::ids::NodeId;
use kera_common::{KeraError, Result};
use kera_wire::frames::Envelope;
use parking_lot::RwLock;

use crate::transport::{Deliver, Transport};

/// Each registered id with its node's runtime, once bound; until then
/// the id is unreachable.
type Nodes = RwLock<HashMap<NodeId, Option<Weak<dyn Deliver>>>>;

/// A fabric connecting in-process nodes.
#[derive(Clone)]
pub struct InMemNetwork {
    nodes: Arc<Nodes>,
}

impl Default for InMemNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl InMemNetwork {
    pub fn new() -> Self {
        Self { nodes: Arc::new(RwLock::named("net.nodes", HashMap::new())) }
    }

    /// Registers `id` and returns its transport endpoint. Panics if the id
    /// is already registered (cluster assembly bug).
    pub fn register(&self, id: NodeId) -> InMemTransport {
        let prev = self.nodes.write().insert(id, None);
        assert!(prev.is_none(), "node {id} registered twice");
        InMemTransport { id, nodes: Arc::clone(&self.nodes) }
    }

    /// Crashes `id`: unregisters it so in-flight and future sends to it
    /// fail, and tells its runtime, which stops transmitting and fails its
    /// outstanding calls at once.
    pub fn crash(&self, id: NodeId) {
        // The registry guard is gone before the node is called.
        let target = self.nodes.write().remove(&id).flatten();
        if let Some(node) = target.and_then(|t| t.upgrade()) {
            node.closed();
        }
    }

    /// True if `id` is currently registered (alive).
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes.read().contains_key(&id)
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.read().len()
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
    nodes: Arc<Nodes>,
}

impl Transport for InMemTransport {
    fn local(&self) -> NodeId {
        self.id
    }

    fn send(&self, to: NodeId, env: Envelope) -> Result<()> {
        bound(&self.nodes, to).ok_or(KeraError::Disconnected(to))?.deliver(env);
        Ok(())
    }

    fn bind(&self, target: Weak<dyn Deliver>) {
        // A node crashed before it started stays unreachable.
        if let Some(entry) = self.nodes.write().get_mut(&self.id) {
            *entry = Some(target);
        }
    }

    fn close(&self) {
        self.nodes.write().remove(&self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{endpoint, Collector};
    use bytes::Bytes;
    use kera_wire::frames::OpCode;
    use std::time::Duration;

    fn env(from: u32, id: u64) -> Envelope {
        Envelope::request(OpCode::Ping, id, NodeId(from), Bytes::from_static(b"x"))
    }

    #[test]
    fn send_and_receive() {
        let net = InMemNetwork::new();
        let a = net.register(NodeId(1));
        let (_b, b_in) = endpoint(net.register(NodeId(2)));
        a.send(NodeId(2), env(1, 7)).unwrap();
        let got = b_in.recv(Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!(got.request_id, 7);
        assert_eq!(got.from, NodeId(1));
    }

    #[test]
    fn recv_timeout_returns_none() {
        let net = InMemNetwork::new();
        let (_a, a_in) = endpoint(net.register(NodeId(1)));
        assert!(a_in.recv(Duration::from_millis(10)).unwrap().is_none());
    }

    #[test]
    fn per_link_fifo_order() {
        let net = InMemNetwork::new();
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
        let net = InMemNetwork::new();
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
        let net = InMemNetwork::new();
        let a = net.register(NodeId(1));
        let err = a.send(NodeId(99), env(1, 0)).unwrap_err();
        assert!(matches!(err, KeraError::Disconnected(NodeId(99))));
    }

    #[test]
    fn send_to_registered_but_unbound_node_fails() {
        // No holding queue: until its runtime binds, an id is as
        // unreachable as an unknown one, and becomes reachable at bind.
        let net = InMemNetwork::new();
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
        let net = InMemNetwork::new();
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
        let net = InMemNetwork::new();
        let _a = net.register(NodeId(1));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = net.register(NodeId(1));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn close_unregisters() {
        let net = InMemNetwork::new();
        let a = net.register(NodeId(1));
        assert_eq!(net.node_count(), 1);
        a.close();
        assert_eq!(net.node_count(), 0);
    }
}
