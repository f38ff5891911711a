//! The transport abstraction.
//!
//! A transport moves whole [`Envelope`]s between nodes identified by
//! [`NodeId`]. Delivery is reliable and ordered per link while both ends
//! are alive (in memory the sender's own thread delivers; TCP is TCP, but
//! for what follows a write that stalled, see [`crate::tcp`]);
//! when the peer is gone, sends fail with `KeraError::Disconnected`.
//!
//! A transport has no receive call: a node [`Transport::bind`]s a [`Deliver`]
//! target once, and every arriving frame is handed to it on the thread
//! that already holds the frame. Until it is bound a node is unreachable.

use std::sync::Weak;
use std::time::Instant;

use kera_common::ids::NodeId;
use kera_common::Result;
use kera_wire::frames::Envelope;

/// What a node runs once at a due time (see [`Deliver::timer`]).
pub type Timer = Box<dyn FnOnce() + Send>;

/// Where a transport hands arriving frames: the node runtime, or a
/// collecting fake in tests. The one rule: it never blocks and holds no
/// lock across a [`Transport::send`], and it runs a handler only when
/// handed a frame through [`Deliver::receive`].
pub trait Deliver: Send + Sync + 'static {
    /// One frame addressed to this node arrived, on a peer's sending (or
    /// a releasing, or a timer's) thread; a send it makes runs the next
    /// node's delivery on the same stack.
    fn deliver(&self, env: Envelope);

    /// One frame arrived on a thread that exists to receive (a TCP
    /// reader): a request may be served right there, since no handler
    /// blocks. Else as [`Deliver::deliver`].
    fn receive(&self, env: Envelope) {
        self.deliver(env);
    }

    /// The fabric took the endpoint away (a crash): nothing more arrives.
    fn closed(&self);

    /// Runs `timer` once, no earlier than `due`, on one of this node's
    /// own threads and under none of its locks; `timer` must not block (a
    /// TCP write finishing on a worker waits only on its peer's reader).
    /// False, and `timer` dropped unrun, where the node keeps no timers:
    /// it has closed, or it is a collecting fake.
    fn timer(&self, _due: Instant, _timer: Timer) -> bool {
        false
    }
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
