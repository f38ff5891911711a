//! A from-scratch Kafka-style baseline (paper §V-B).
//!
//! The comparison system the paper evaluates against: each stream (topic)
//! is split into a fixed number of partitions, **each partition backed by
//! one replicated log**. One broker leads each partition; follower
//! brokers run *replica fetcher* threads that **pull** from leaders
//! (passive replication, `fetch.min.bytes` / `fetch.wait.max.ms`
//! semantics). A produce with acks=all completes once the partition's
//! high watermark — the minimum log-end offset across in-sync replicas,
//! learned from follower fetch requests — covers the appended batch.
//! Consumers may only read below the high watermark.
//!
//! The baseline shares the wire format, transport, RPC stack and client
//! stack with KerA, so benchmark differences isolate the replication
//! architecture (per-partition logs + pull vs. shared virtual logs +
//! push).
//!
//! - [`partition`] — the per-partition replicated log: leader state, log
//!   end offset, high watermark, follower progress;
//! - [`broker`] — topic store + the broker service (produce, consumer
//!   fetch, hosting, follower fetch), whose produce and follower fetch
//!   wait in a purgatory instead of parking a worker;
//! - [`fetcher`] — replica fetcher threads (one per leader a broker
//!   follows, like `num.replica.fetchers = 1`);
//! - [`coordinator`] — topic creation with leader/follower placement;
//! - [`cluster`] — in-process cluster assembly mirroring
//!   `kera_broker::cluster`.

pub mod broker;
pub mod cluster;
pub mod coordinator;
pub mod fetcher;
pub mod partition;

#[cfg(test)]
mod tests;

pub use cluster::KafkaCluster;
