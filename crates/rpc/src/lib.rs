//! RAMCloud-style RPC for the simulated cluster.
//!
//! KerA builds on RAMCloud's RPC framework to get a network abstraction
//! with pluggable transports and a worker pool per node (paper §IV). This
//! crate keeps those and drops RAMCloud's polling dispatch thread, which
//! exists to poll a NIC: frames are **delivered on arrival**, handed to
//! the node on the thread that already has them. The one rule: delivery
//! never runs a handler, never blocks, and holds no lock across a send.
//!
//! - [`transport`] — the [`transport::Transport`] trait: node-addressed
//!   `send` of [`kera_wire::frames::Envelope`]s, and `bind` of the
//!   [`transport::Deliver`] target that receives them;
//! - [`inmem`] — the in-memory transport used by the in-process cluster:
//!   the sender's own thread delivers; an optional network cost model
//!   (per-message latency, per-link bandwidth) and fault injection (crash
//!   a node, drop its traffic);
//! - [`tcp`] — a real TCP transport (length-prefixed frames over loopback
//!   or a LAN) with the same interface; a reader thread per connection
//!   delivers;
//! - [`faults`] — a transport wrapper injecting drops, duplicates, delays,
//!   partitions and held nodes below the RPC layer, for chaos testing;
//! - [`node`] — the node runtime: delivery completes pending calls and
//!   queues admitted requests for a worker pool;
//!   [`node::RpcClient`] issues calls that retransmit under a bounded
//!   retry policy (at-most-once via a server-side response cache),
//!   waited on at once (`call`) or later (`call_async`).
//!
//! Every node of the simulated cluster — coordinator, brokers, backups and
//! clients — is one [`node::NodeRuntime`].

mod delay;
pub mod faults;
pub mod inmem;
pub mod network;
pub mod node;
pub mod tcp;
pub mod transport;

pub use faults::{FaultInjector, FaultPlan};
pub use inmem::InMemNetwork;
pub use network::{AnyNetwork, TransportKind};
pub use node::{NodeRuntime, NullService, PendingCall, RequestContext, RpcClient, Service};
pub use transport::{Deliver, Transport};

/// Live threads of this process whose name starts with `prefix` (Linux
/// `/proc`): a census for tests asserting that a thread class is gone.
pub fn thread_count_named(prefix: &str) -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").into_iter().flatten().flatten();
    tasks
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .filter(|name| name.starts_with(prefix))
        .count()
}

#[cfg(test)]
mod testkit;
