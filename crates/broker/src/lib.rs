//! The KerA broker stack: broker, backup and coordinator services plus
//! in-process cluster assembly (paper Fig. 1).
//!
//! - [`backup`] — the backup service: holds replicated virtual segments
//!   in memory, verifies chunk and segment checksums, asynchronously
//!   flushes closed segments to secondary storage, and serves recovery
//!   reads;
//! - [`broker`] — the broker (ingestion) service: the produce path
//!   (physical append + virtual-log append + consolidated replication)
//!   and the fetch path (durable reads);
//! - [`channel`] — [`channel::RpcBackupChannel`]: fans one replication
//!   batch out to all of a virtual segment's backups in parallel,
//!   without waiting for them;
//! - [`coordinator`] — stream creation, streamlet placement, metadata
//!   service and crash-time reassignment, replicated over a quorum of
//!   coordinator replicas via the metadata log;
//! - [`election`] — the pure leader-election state machine (terms,
//!   quorum votes, log-freshness checks) the coordinator replicas run;
//! - [`metalog`] — the replicated metadata log and the deterministic
//!   state machine folded from its committed prefix;
//! - [`cluster`] — [`cluster::KeraCluster`]: spawns a whole cluster
//!   (coordinator + brokers + backups) on an in-memory network, the way
//!   the paper deploys one broker + one backup service per node.

pub mod backup;
pub mod broker;
pub mod channel;
pub mod cluster;
pub mod coordinator;
pub mod election;
pub mod introspect;
pub mod metalog;
pub mod quota;

pub use cluster::KeraCluster;
