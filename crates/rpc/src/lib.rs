//! RAMCloud-style RPC for the simulated cluster.
//!
//! KerA builds on RAMCloud's RPC framework to get a network abstraction
//! with pluggable transports and a worker pool per node (paper §IV). This
//! crate keeps those and drops RAMCloud's polling dispatch thread, which
//! exists to poll a NIC: frames are **delivered on arrival**, handed to
//! the node on the thread that already has them. The one rule: delivery
//! never blocks and holds no lock across a send, and it runs a handler
//! only on a thread that exists to receive (a TCP connection's reader),
//! which is safe because no handler blocks.
//!
//! - [`transport`] — the [`transport::Transport`] trait: node-addressed
//!   `send` of [`kera_wire::frames::Envelope`]s, and `bind` of the
//!   [`transport::Deliver`] target that receives them;
//! - [`inmem`] — the in-memory transport used by the in-process cluster:
//!   the sender's own thread delivers; fault injection crashes a node;
//! - [`tcp`] — a real TCP transport (length-prefixed frames over loopback
//!   or a LAN) with the same interface; a reader thread per connection
//!   takes a burst of frames in one read, serves them, and sends what that
//!   sent in one vectored write per peer; a write whose peer takes nothing
//!   retires its connection rather than wait;
//! - [`faults`] — a transport wrapper injecting drops, duplicates, delays,
//!   partitions and held nodes below the RPC layer, for chaos testing (a
//!   delayed frame waits on its sender's timers);
//! - [`node`] — the node runtime: delivery completes pending calls and
//!   serves an admitted request on a TCP reader or queues it for a worker
//!   pool; handlers answer by returning or through a [`node::Reply`] sent
//!   later;
//!   [`node::RpcClient`] issues calls, each with its budget, that the
//!   node's workers retransmit between requests under a bounded retry
//!   policy (at-most-once via a server-side response cache) and end at
//!   their budget; a call is waited on at once (`call`), later
//!   (`call_async`, whose [`node::PendingCall`] only waits) or by nobody
//!   (`call_detached`: its completion runs with the outcome; `call_all`:
//!   a fan-out whose last call to end answers a `Reply`); the same
//!   timers run the node's one-shot timers ([`node::Reply::timer`],
//!   [`node::RpcClient::timer`]);
//! - [`purgatory`] — requests that wait for an event or a deadline, kept
//!   with their `Reply` by both brokers: one lock, an atomics-only
//!   `ready`, one expiry timer re-armed for the earliest due;
//! - [`fabric`] — the cluster skeleton both systems boot on: network,
//!   fault plan, node ids, and every node's runtime and observability.
//!
//! Every node of the simulated cluster — coordinator, brokers, backups and
//! clients — is one [`node::NodeRuntime`].

pub mod fabric;
pub mod faults;
pub mod inmem;
pub mod network;
pub mod node;
pub mod purgatory;
pub mod tcp;
pub mod transport;

pub use fabric::Fabric;
pub use faults::{FaultInjector, FaultPlan};
pub use inmem::InMemNetwork;
pub use network::{AnyNetwork, TransportKind};
pub use node::{NodeRuntime, NullService, PendingCall, Reply, RequestContext, RpcClient, Service};
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
