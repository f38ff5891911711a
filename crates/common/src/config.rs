//! Configuration for clusters, streams and replication.
//!
//! The knobs here are exactly the ones the paper's evaluation sweeps
//! (§V-A): chunk size, request size, linger timeout, number of streamlets,
//! active groups per streamlet (`Q`), replication factor (`R`) and the
//! number of virtual logs per broker (the *replication capacity*).

use crate::error::{KeraError, Result};
use crate::ids::StreamId;

/// Default chunk capacity (the paper uses 1 KB–64 KB; 16 KB is its example
/// default in §IV-A).
pub const DEFAULT_CHUNK_SIZE: usize = 16 * 1024;
/// Default physical segment capacity (8 MB in the paper; tests shrink it).
pub const DEFAULT_SEGMENT_SIZE: usize = 8 * 1024 * 1024;
/// Default number of segments logically assembled into one group.
pub const DEFAULT_SEGMENTS_PER_GROUP: u32 = 16;
/// Default virtual segment capacity (same as a physical segment so a full
/// virtual segment replicates into one backup segment).
pub const DEFAULT_VSEG_SIZE: usize = DEFAULT_SEGMENT_SIZE;
/// Default producer linger (the paper fixes `linger.ms = 1`).
pub const DEFAULT_LINGER_MS: u64 = 1;

/// How streamlets are associated with virtual logs on a broker.
///
/// This is the *replication capacity* dial of §III: fewer shared logs mean
/// fewer, larger replication RPCs (and fewer backup buffers); more logs mean
/// more replication parallelism.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VirtualLogPolicy {
    /// A fixed pool of `n` virtual logs per broker shared by *all* streams;
    /// streamlets are assigned round-robin (hash) onto the pool. This is the
    /// headline configuration of Figs. 8, 10, 12–16.
    SharedPerBroker(u32),
    /// One virtual log per streamlet hosted on the broker — the closest
    /// analogue of Kafka's one-replicated-log-per-partition (Fig. 9).
    PerStreamlet,
    /// One virtual log per *active sub-partition* (streamlet × active
    /// group) — the throughput-optimized configuration of Figs. 11, 17–21.
    PerSubPartition,
}

/// Replication configuration for a stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Total copies of the data, including the broker's active replica.
    /// `1` disables replication (the broker copy is the only one).
    pub factor: u32,
    /// How virtual logs are allotted on each broker.
    pub policy: VirtualLogPolicy,
    /// Virtual segment capacity in bytes.
    pub vseg_size: usize,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self {
            factor: 3,
            policy: VirtualLogPolicy::SharedPerBroker(4),
            vseg_size: DEFAULT_VSEG_SIZE,
        }
    }
}

impl ReplicationConfig {
    /// Number of backup copies (excluding the broker's own active replica).
    #[inline]
    pub fn backup_copies(&self) -> u32 {
        self.factor.saturating_sub(1)
    }

    pub fn validate(&self) -> Result<()> {
        if self.factor == 0 {
            return Err(KeraError::InvalidConfig("replication factor must be >= 1".into()));
        }
        if self.vseg_size == 0 {
            return Err(KeraError::InvalidConfig("virtual segment size must be > 0".into()));
        }
        if let VirtualLogPolicy::SharedPerBroker(0) = self.policy {
            return Err(KeraError::InvalidConfig("shared virtual log pool must be >= 1".into()));
        }
        Ok(())
    }
}

/// Static description of a stream, fixed at creation time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamConfig {
    pub id: StreamId,
    /// `M`: number of streamlets (logical partitions).
    pub streamlets: u32,
    /// `Q`: active groups (physical sub-partitions) per streamlet that
    /// accept parallel appends.
    pub active_groups: u32,
    /// Segments per group before the group is closed.
    pub segments_per_group: u32,
    /// Physical segment capacity in bytes.
    pub segment_size: usize,
    pub replication: ReplicationConfig,
}

impl StreamConfig {
    /// A stream shaped like a default Kafka topic partition: one streamlet
    /// per partition, one active group (no parallel appends within a
    /// partition), as used in Figs. 8 and 10.
    pub fn kafka_like(id: StreamId, partitions: u32) -> Self {
        Self {
            id,
            streamlets: partitions,
            active_groups: 1,
            segments_per_group: DEFAULT_SEGMENTS_PER_GROUP,
            segment_size: DEFAULT_SEGMENT_SIZE,
            replication: ReplicationConfig::default(),
        }
    }

    pub fn validate(&self) -> Result<()> {
        if self.streamlets == 0 {
            return Err(KeraError::InvalidConfig("a stream needs at least one streamlet".into()));
        }
        if self.active_groups == 0 {
            return Err(KeraError::InvalidConfig("Q (active groups) must be >= 1".into()));
        }
        if self.segments_per_group == 0 {
            return Err(KeraError::InvalidConfig("segments per group must be >= 1".into()));
        }
        if self.segment_size < 64 {
            return Err(KeraError::InvalidConfig("segment size unreasonably small".into()));
        }
        self.replication.validate()
    }
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            id: StreamId(0),
            streamlets: 1,
            active_groups: 1,
            segments_per_group: DEFAULT_SEGMENTS_PER_GROUP,
            segment_size: DEFAULT_SEGMENT_SIZE,
            replication: ReplicationConfig::default(),
        }
    }
}

/// Retry discipline for synchronous RPCs (`RpcClient::call` and the
/// replication fan-out): bounded attempts with exponential backoff and
/// deterministic jitter, all under one overall per-call deadline.
///
/// The overall deadline is the `timeout` the caller passes to `call`;
/// this policy only shapes *how* that budget is spent. A transient
/// drop/timeout consumes one attempt and one backoff; non-retriable
/// errors (protocol, unknown stream, ...) surface immediately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`1` = no retries).
    pub max_attempts: u32,
    /// Cap on the time spent waiting for any single attempt's response;
    /// the effective per-attempt timeout is the smaller of this and the
    /// remaining overall budget.
    pub attempt_timeout: std::time::Duration,
    /// Backoff before the second attempt; doubles per attempt.
    pub initial_backoff: std::time::Duration,
    /// Upper bound on the (pre-jitter) backoff.
    pub max_backoff: std::time::Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            attempt_timeout: std::time::Duration::from_secs(1),
            initial_backoff: std::time::Duration::from_millis(5),
            max_backoff: std::time::Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// The pre-jitter backoff before attempt `attempt` (0-based; attempt
    /// 0 has no backoff).
    pub fn backoff_for(&self, attempt: u32) -> std::time::Duration {
        if attempt == 0 {
            return std::time::Duration::ZERO;
        }
        let exp = self.initial_backoff.saturating_mul(1u32 << (attempt - 1).min(16));
        exp.min(self.max_backoff)
    }

    pub fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(KeraError::InvalidConfig("retry policy needs at least one attempt".into()));
        }
        if self.attempt_timeout.is_zero() {
            return Err(KeraError::InvalidConfig("attempt timeout must be > 0".into()));
        }
        Ok(())
    }
}

/// Fault-injection rates for the chaos transport wrapper (`kera-rpc`'s
/// `FaultInjector`). All rates are independent per-message
/// probabilities in `[0, 1]`; everything is driven by a deterministic
/// RNG derived from `seed`, so a failing run reproduces exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultProfile {
    /// Seed for the per-node decision RNGs.
    pub seed: u64,
    /// Probability a message is silently dropped (black-holed).
    pub drop_rate: f64,
    /// Probability a message is delivered twice.
    pub duplicate_rate: f64,
    /// Probability a message is delayed by up to `max_delay`.
    pub delay_rate: f64,
    /// Upper bound on injected delay.
    pub max_delay: std::time::Duration,
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self {
            seed: 0,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            delay_rate: 0.0,
            max_delay: std::time::Duration::from_millis(2),
        }
    }
}

impl FaultProfile {
    pub fn validate(&self) -> Result<()> {
        for (name, rate) in [
            ("drop_rate", self.drop_rate),
            ("duplicate_rate", self.duplicate_rate),
            ("delay_rate", self.delay_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(KeraError::InvalidConfig(format!(
                    "{name} must be within [0, 1], got {rate}"
                )));
            }
        }
        Ok(())
    }
}

/// Replicated-coordinator configuration: how many replicas hold the
/// metadata log and the timers driving failure detection and election.
///
/// With `replicas == 1` (the default) the sole coordinator starts as the
/// leader of term 1 immediately and no election traffic is generated —
/// the pre-replication behaviour. With more replicas, the leader
/// heartbeats every `heartbeat_interval` (piggybacked on metadata-log
/// appends), and a follower that hears nothing for a randomized window
/// in `[election_timeout_min, election_timeout_max]` bumps its term and
/// solicits quorum votes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoordinatorConfig {
    /// Number of coordinator replicas (`1` = single node, no elections).
    pub replicas: u32,
    /// Leader → follower heartbeat/append cadence.
    pub heartbeat_interval: std::time::Duration,
    /// Lower bound of the randomized election timeout. Must comfortably
    /// exceed `heartbeat_interval` so healthy leaders are never deposed.
    pub election_timeout_min: std::time::Duration,
    /// Upper bound of the randomized election timeout; the spread breaks
    /// split-vote ties.
    pub election_timeout_max: std::time::Duration,
    /// Seed for each replica's election-jitter RNG (mixed with its node
    /// id, so replicas draw distinct but reproducible timeouts).
    pub seed: u64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self {
            replicas: 1,
            heartbeat_interval: std::time::Duration::from_millis(25),
            election_timeout_min: std::time::Duration::from_millis(150),
            election_timeout_max: std::time::Duration::from_millis(300),
            seed: 0xC0D1_0E1E,
        }
    }
}

impl CoordinatorConfig {
    /// Quorum size for the configured replica count (majority).
    #[inline]
    pub fn quorum(&self) -> u32 {
        self.replicas / 2 + 1
    }

    pub fn validate(&self) -> Result<()> {
        if self.replicas == 0 {
            return Err(KeraError::InvalidConfig("coordinator needs at least one replica".into()));
        }
        if self.heartbeat_interval.is_zero() {
            return Err(KeraError::InvalidConfig("heartbeat interval must be > 0".into()));
        }
        if self.election_timeout_min < self.heartbeat_interval * 2 {
            return Err(KeraError::InvalidConfig(
                "election timeout min must be at least 2x the heartbeat interval".into(),
            ));
        }
        if self.election_timeout_max < self.election_timeout_min {
            return Err(KeraError::InvalidConfig(
                "election timeout max must be >= election timeout min".into(),
            ));
        }
        Ok(())
    }
}

/// Default cap on a single RPC frame accepted by stream transports.
/// Large enough for a max-size produce batch, small enough that a
/// corrupt or hostile length prefix cannot trigger a giant allocation.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Which fabric the cluster's nodes talk over.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportChoice {
    /// In-process channels: fastest, supports fault injection.
    #[default]
    InMemory,
    /// Loopback TCP sockets (the paper's client transport).
    Tcp,
}

/// Cluster-wide configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of broker nodes (each co-hosting a backup service, as in the
    /// paper's Grid5000 deployment).
    pub brokers: u32,
    /// Worker threads per broker (the paper uses 16, one per core).
    pub worker_threads: usize,
    /// Fabric choice (in-memory channels or loopback TCP).
    pub transport: TransportChoice,
    /// Retired: the busy-wait that stood in for a storage write. Both
    /// systems now write real files under `flush_dir`, so only `0` is
    /// accepted. Kept until the benchmark stops setting it; the next
    /// change to `benchmark/` deletes it (ROADMAP item 12(b)).
    pub io_cost_ns: u64,
    /// Directory the nodes write their data files under, one
    /// `node-<id>/` each, through `kera_storage::flush` (DESIGN §1, the
    /// storage contract): a KerA backup's flusher writes and syncs each
    /// closed virtual segment; a Kafka replica, leader or follower,
    /// appends to its partition's files, which its flusher syncs when
    /// they roll at the stream's `segment_size`. `None` writes nothing
    /// (the produce path never waits on disk either way).
    pub flush_dir: Option<std::path::PathBuf>,
    /// Retry/backoff discipline applied by every node's RPC client.
    pub retry: RetryPolicy,
    /// Fault-injection profile; `None` runs the cluster fault-free.
    pub faults: Option<FaultProfile>,
    /// Replicated-coordinator shape and timers.
    pub coordinator: CoordinatorConfig,
    /// Largest RPC frame a stream transport will accept before dropping
    /// the connection (guards against corrupt/hostile length prefixes).
    pub max_frame_bytes: usize,
    /// Causal tracing and the flight recorder. Metrics counters always
    /// work (they are plain relaxed atomics); with this off, every span
    /// entry point is an inert branch and envelopes carry zero trace ids
    /// (DESIGN.md §9).
    pub observability: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            brokers: 4,
            worker_threads: 4,
            transport: TransportChoice::default(),
            io_cost_ns: 0,
            flush_dir: None,
            retry: RetryPolicy::default(),
            faults: None,
            coordinator: CoordinatorConfig::default(),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            observability: true,
        }
    }
}

impl ClusterConfig {
    pub fn validate(&self) -> Result<()> {
        if self.brokers == 0 {
            return Err(KeraError::InvalidConfig("cluster needs at least one broker".into()));
        }
        if self.worker_threads == 0 {
            return Err(KeraError::InvalidConfig("brokers need at least one worker thread".into()));
        }
        if self.io_cost_ns != 0 {
            return Err(KeraError::InvalidConfig(
                "io_cost_ns is retired: storage writes are real files under flush_dir \
                 (ROADMAP item 12(b)); set it to 0"
                    .into(),
            ));
        }
        self.retry.validate()?;
        if let Some(faults) = &self.faults {
            faults.validate()?;
        }
        self.coordinator.validate()?;
        if self.max_frame_bytes < 1024 {
            return Err(KeraError::InvalidConfig(
                "max_frame_bytes must allow at least a small frame (>= 1024)".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        ClusterConfig::default().validate().unwrap();
        StreamConfig::default().validate().unwrap();
        ReplicationConfig::default().validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut r = ReplicationConfig { factor: 0, ..ReplicationConfig::default() };
        assert!(r.validate().is_err());
        r.factor = 3;
        r.policy = VirtualLogPolicy::SharedPerBroker(0);
        assert!(r.validate().is_err());

        let mut s = StreamConfig { streamlets: 0, ..StreamConfig::default() };
        assert!(s.validate().is_err());
        s.streamlets = 4;
        s.active_groups = 0;
        assert!(s.validate().is_err());

        let c = ClusterConfig { brokers: 0, ..ClusterConfig::default() };
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::default();
        c.retry.max_attempts = 0;
        assert!(c.validate().is_err());

        let c = ClusterConfig {
            faults: Some(FaultProfile { drop_rate: 1.5, ..FaultProfile::default() }),
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());

        let c = ClusterConfig { io_cost_ns: 30_000, ..ClusterConfig::default() };
        assert!(c.validate().is_err(), "the retired cost model accepts only 0");
        let c = ClusterConfig { max_frame_bytes: 16, ..ClusterConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn coordinator_config_validation_and_quorum() {
        let c = CoordinatorConfig::default();
        c.validate().unwrap();
        assert_eq!(c.quorum(), 1);
        assert_eq!(CoordinatorConfig { replicas: 3, ..c }.quorum(), 2);
        assert_eq!(CoordinatorConfig { replicas: 5, ..c }.quorum(), 3);

        assert!(CoordinatorConfig { replicas: 0, ..c }.validate().is_err());
        assert!(CoordinatorConfig {
            election_timeout_min: c.heartbeat_interval, // < 2x heartbeat
            ..c
        }
        .validate()
        .is_err());
        assert!(CoordinatorConfig {
            election_timeout_max: std::time::Duration::from_millis(1),
            ..c
        }
        .validate()
        .is_err());

        let cluster = ClusterConfig {
            coordinator: CoordinatorConfig { replicas: 0, ..CoordinatorConfig::default() },
            ..ClusterConfig::default()
        };
        assert!(cluster.validate().is_err());
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 8,
            attempt_timeout: std::time::Duration::from_secs(1),
            initial_backoff: std::time::Duration::from_millis(10),
            max_backoff: std::time::Duration::from_millis(50),
        };
        assert_eq!(p.backoff_for(0), std::time::Duration::ZERO);
        assert_eq!(p.backoff_for(1), std::time::Duration::from_millis(10));
        assert_eq!(p.backoff_for(2), std::time::Duration::from_millis(20));
        assert_eq!(p.backoff_for(3), std::time::Duration::from_millis(40));
        assert_eq!(p.backoff_for(4), std::time::Duration::from_millis(50));
        assert_eq!(p.backoff_for(7), std::time::Duration::from_millis(50));
    }

    #[test]
    fn backup_copies() {
        let mut r = ReplicationConfig { factor: 3, ..ReplicationConfig::default() };
        assert_eq!(r.backup_copies(), 2);
        r.factor = 1;
        assert_eq!(r.backup_copies(), 0);
    }

    #[test]
    fn kafka_like_shape() {
        let s = StreamConfig::kafka_like(StreamId(5), 32);
        assert_eq!(s.streamlets, 32);
        assert_eq!(s.active_groups, 1);
        s.validate().unwrap();
    }
}
