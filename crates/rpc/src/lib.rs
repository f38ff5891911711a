//! RAMCloud-style RPC for the simulated cluster.
//!
//! KerA builds on RAMCloud's RPC framework to get a network abstraction
//! with pluggable transports and a *polling dispatch / worker* threading
//! model (paper §IV). This crate reproduces that architecture:
//!
//! - [`transport`] — the [`transport::Transport`] trait: a node-addressed,
//!   message-oriented duplex channel carrying [`kera_wire::frames::Envelope`]s;
//! - [`inmem`] — the in-memory transport used by the in-process cluster:
//!   lock-free channels between registered nodes, an optional network cost
//!   model (per-message latency, per-link bandwidth), and fault injection
//!   (crash a node, drop its traffic);
//! - [`tcp`] — a real TCP transport (length-prefixed frames over loopback
//!   or a LAN) with the same interface;
//! - [`faults`] — a transport wrapper injecting drops, duplicates, delays
//!   and partitions below the RPC layer, for chaos testing;
//! - [`node`] — the node runtime: one dispatch thread polls the transport
//!   and routes responses to pending calls and requests to a worker pool;
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
pub use transport::Transport;
