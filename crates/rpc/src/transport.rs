//! The transport abstraction.
//!
//! A transport moves whole [`Envelope`]s between nodes identified by
//! [`NodeId`]. Delivery is reliable and ordered per link while both ends
//! are alive (in memory the sender's own thread delivers; TCP is TCP);
//! when the peer is gone, sends fail with `KeraError::Disconnected`.
//!
//! There is no receive call: a node [`Transport::bind`]s a [`Deliver`]
//! target once, and every arriving frame is handed to it on the thread
//! that already holds the frame. Until it is bound a node is unreachable.

use std::sync::Weak;

use kera_common::ids::NodeId;
use kera_common::Result;
use kera_wire::frames::Envelope;

/// Where a transport hands arriving frames: the node runtime, or a
/// collecting fake in tests. The one rule: it never runs a handler, never
/// blocks, and holds no lock across a [`Transport::send`] — it runs on a
/// peer's sending (or a reader / delay-line / releasing) thread, and a
/// send it makes runs the next node's delivery on the same stack.
pub trait Deliver: Send + Sync + 'static {
    /// One frame addressed to this node arrived.
    fn deliver(&self, env: Envelope);

    /// The fabric took the endpoint away (a crash): nothing more arrives.
    fn closed(&self);
}

/// A node's connection to the cluster fabric.
pub trait Transport: Send + Sync + 'static {
    /// This node's address.
    fn local(&self) -> NodeId;

    /// Sends `env` to `to`. Blocks only for the (optional) simulated
    /// serialization delay; in memory it runs the destination's
    /// [`Deliver::deliver`] before it returns.
    fn send(&self, to: NodeId, env: Envelope) -> Result<()>;

    /// Makes the node reachable: arriving frames go to `target` from now
    /// on. Called once. Held weakly — a fabric must not keep a node alive.
    fn bind(&self, target: Weak<dyn Deliver>);

    /// Leaves the fabric: peers' sends fail and nothing more arrives.
    fn close(&self);
}
