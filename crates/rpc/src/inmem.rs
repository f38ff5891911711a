//! The in-memory transport: the fabric of the in-process cluster.
//!
//! Each registered node gets an unbounded MPSC inbox; `send` pushes the
//! envelope into the destination's inbox. Two optional cost knobs
//! approximate a physical network (see `DESIGN.md` §1):
//!
//! - **bandwidth**: the sender busy-waits for the wire-serialization time
//!   of the message on its own link before the message is handed over,
//!   modelling NIC occupancy;
//! - **latency**: messages detour through a [`DelayLine`] that holds them
//!   until their arrival deadline.
//!
//! With both at zero (the default) the fabric adds only the real cost of a
//! channel hop, and all measured RPC overhead is genuine CPU work.
//!
//! The network also supports *fault injection*: [`InMemNetwork::crash`]
//! atomically unregisters a node; subsequent sends to it fail with
//! [`KeraError::Disconnected`] and its runtime observes a closed inbox.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender};
use kera_common::config::NetworkModel;
use kera_common::ids::NodeId;
use kera_common::timing::spin_for_ns;
use kera_common::{KeraError, Result};
use kera_wire::frames::Envelope;
use parking_lot::RwLock;

use crate::delay::DelayLine;
use crate::transport::Transport;

struct NodeEntry {
    tx: Sender<Envelope>,
    /// Shared with the node's transport; set on crash/close so a dead
    /// node also stops *transmitting* (its in-flight calls fail fast
    /// instead of timing out).
    closed: Arc<std::sync::atomic::AtomicBool>,
}

type Nodes = RwLock<HashMap<NodeId, NodeEntry>>;

struct NetInner {
    /// Shared with the delay line's sink, which must not keep the whole
    /// network (and so itself) alive.
    nodes: Arc<Nodes>,
    model: NetworkModel,
    /// The latency model's delay line (present iff latency_ns > 0).
    delay: Option<DelayLine>,
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
            DelayLine::spawn("inmem-delay".into(), move |to, env| deliver(&nodes, to, env))
        });
        Self { inner: Arc::new(NetInner { nodes, model, delay }) }
    }

    /// Registers `id` and returns its transport endpoint. Panics if the id
    /// is already registered (cluster assembly bug).
    pub fn register(&self, id: NodeId) -> InMemTransport {
        let (tx, rx) = channel::unbounded();
        let closed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let prev = self
            .inner
            .nodes
            .write()
            .insert(id, NodeEntry { tx, closed: Arc::clone(&closed) });
        assert!(prev.is_none(), "node {id} registered twice");
        InMemTransport { id, net: Arc::clone(&self.inner), inbox: rx, closed }
    }

    /// Crashes `id`: unregisters it so in-flight and future sends fail and
    /// its inbox closes (waking its dispatch thread with an error).
    pub fn crash(&self, id: NodeId) {
        if let Some(entry) = self.inner.nodes.write().remove(&id) {
            entry.closed.store(true, std::sync::atomic::Ordering::SeqCst);
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

fn deliver(nodes: &Nodes, to: NodeId, env: Envelope) {
    // A crashed destination silently swallows the message — exactly what a
    // dead NIC does; the sender's RPC times out instead.
    if let Some(entry) = nodes.read().get(&to) {
        let _ = entry.tx.send(env);
    }
}

/// One node's endpoint on an [`InMemNetwork`].
pub struct InMemTransport {
    id: NodeId,
    net: Arc<NetInner>,
    inbox: Receiver<Envelope>,
    closed: Arc<std::sync::atomic::AtomicBool>,
}

impl Transport for InMemTransport {
    fn local(&self) -> NodeId {
        self.id
    }

    fn send(&self, to: NodeId, env: Envelope) -> Result<()> {
        // A closed (shut down / crashed) node no longer transmits.
        if self.closed.load(std::sync::atomic::Ordering::SeqCst) {
            return Err(KeraError::ShuttingDown);
        }
        let model = &self.net.model;
        if model.bandwidth_bytes_per_sec > 0 {
            // Sender-side NIC occupancy: the calling thread owns this link.
            spin_for_ns(model.serialize_ns(env.wire_len()));
        }
        if !self.net.nodes.read().contains_key(&to) {
            return Err(KeraError::Disconnected(to));
        }
        match &self.net.delay {
            Some(line) => {
                let due = Instant::now() + Duration::from_nanos(model.latency_ns);
                if !line.hold(due, to, env) {
                    return Err(KeraError::ShuttingDown);
                }
            }
            None => deliver(&self.net.nodes, to, env),
        }
        Ok(())
    }

    fn recv(&self, timeout: Duration) -> Result<Option<Envelope>> {
        match self.inbox.recv_timeout(timeout) {
            Ok(env) => Ok(Some(env)),
            Err(channel::RecvTimeoutError::Timeout) => Ok(None),
            Err(channel::RecvTimeoutError::Disconnected) => Err(KeraError::Disconnected(self.id)),
        }
    }

    fn close(&self) {
        self.closed.store(true, std::sync::atomic::Ordering::SeqCst);
        self.net.nodes.write().remove(&self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use kera_wire::frames::OpCode;

    fn env(from: u32, id: u64) -> Envelope {
        Envelope::request(OpCode::Ping, id, NodeId(from), Bytes::from_static(b"x"))
    }

    #[test]
    fn send_and_receive() {
        let net = InMemNetwork::new(NetworkModel::default());
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        a.send(NodeId(2), env(1, 7)).unwrap();
        let got = b.recv(Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!(got.request_id, 7);
        assert_eq!(got.from, NodeId(1));
    }

    #[test]
    fn recv_timeout_returns_none() {
        let net = InMemNetwork::new(NetworkModel::default());
        let a = net.register(NodeId(1));
        assert!(a.recv(Duration::from_millis(10)).unwrap().is_none());
    }

    #[test]
    fn per_link_fifo_order() {
        let net = InMemNetwork::new(NetworkModel::default());
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        for i in 0..100 {
            a.send(NodeId(2), env(1, i)).unwrap();
        }
        for i in 0..100 {
            let got = b.recv(Duration::from_secs(1)).unwrap().unwrap();
            assert_eq!(got.request_id, i);
        }
    }

    #[test]
    fn send_to_unknown_node_fails() {
        let net = InMemNetwork::new(NetworkModel::default());
        let a = net.register(NodeId(1));
        let err = a.send(NodeId(99), env(1, 0)).unwrap_err();
        assert!(matches!(err, KeraError::Disconnected(NodeId(99))));
    }

    #[test]
    fn crash_makes_sends_fail_and_inbox_close() {
        let net = InMemNetwork::new(NetworkModel::default());
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        assert!(net.is_alive(NodeId(2)));
        net.crash(NodeId(2));
        assert!(!net.is_alive(NodeId(2)));
        assert!(a.send(NodeId(2), env(1, 0)).is_err());
        // The crashed node's own recv observes disconnection.
        assert!(b.recv(Duration::from_millis(10)).is_err());
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
        let b = net.register(NodeId(2));
        let t0 = Instant::now();
        for i in 0..10 {
            a.send(NodeId(2), env(1, i)).unwrap();
        }
        for i in 0..10 {
            let got = b.recv(Duration::from_secs(1)).unwrap().unwrap();
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
        let _b = net.register(NodeId(2));
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
