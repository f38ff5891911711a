//! The broker's set of virtual logs and the streamlet→log association.
//!
//! "Multiple streams' partitions are associated with multiple virtual
//! logs ... by the storage system transparently to users" (§III). The
//! association is the *replication capacity* dial:
//!
//! - [`VirtualLogPolicy::SharedPerBroker`]`(n)` — a pool of `n` logs per
//!   broker shared by **all** streams with the same replication factor;
//!   streamlets hash onto the pool. Small `n` = maximal consolidation
//!   (Figs. 8, 10, 12–16).
//! - [`VirtualLogPolicy::PerStreamlet`] — one log per hosted streamlet,
//!   the closest analogue of Kafka's log-per-partition (Fig. 9).
//! - [`VirtualLogPolicy::PerSubPartition`] — one log per (streamlet,
//!   slot): maximal replication parallelism (Figs. 11, 17–21).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kera_common::config::{StreamConfig, VirtualLogPolicy};
use kera_common::ids::{NodeId, StreamId, StreamletId, VirtualLogId};
use kera_common::rng::mix64;
use kera_common::Result;
use kera_obs::NodeObs;
use parking_lot::RwLock;

use crate::selector::{BackupSelector, SelectionPolicy};
use crate::vlog::VirtualLog;

#[derive(Clone, PartialEq, Eq, Hash)]
enum LogKey {
    /// (replication factor, pool size, pool index)
    Shared(u32, u32, u32),
    /// (stream, streamlet) — factor is implied by the stream.
    Streamlet(StreamId, StreamletId),
    /// (stream, streamlet, slot)
    SubPartition(StreamId, StreamletId, u32),
}

/// All virtual logs of one broker.
pub struct VirtualLogSet {
    owner: NodeId,
    /// The backup co-located with this broker (excluded from selection:
    /// a copy on the same machine would die with the broker).
    colocated_backup: NodeId,
    /// Every backup service in the cluster.
    cluster_backups: Vec<NodeId>,
    selection: SelectionPolicy,
    logs: RwLock<HashMap<LogKey, Arc<VirtualLog>>>,
    next_id: AtomicU64,
    /// Handed to every created log (inert by default).
    obs: Arc<NodeObs>,
}

impl VirtualLogSet {
    pub fn new(
        owner: NodeId,
        colocated_backup: NodeId,
        cluster_backups: Vec<NodeId>,
        selection: SelectionPolicy,
    ) -> Self {
        Self::new_with_obs(
            owner,
            colocated_backup,
            cluster_backups,
            selection,
            NodeObs::disabled(owner.raw()),
        )
    }

    pub fn new_with_obs(
        owner: NodeId,
        colocated_backup: NodeId,
        cluster_backups: Vec<NodeId>,
        selection: SelectionPolicy,
        obs: Arc<NodeObs>,
    ) -> Self {
        Self {
            owner,
            colocated_backup,
            cluster_backups,
            selection,
            logs: RwLock::named("vlogset.logs", HashMap::new()),
            next_id: AtomicU64::new(0),
            obs,
        }
    }

    /// The virtual log that replicates chunks of `(stream, streamlet,
    /// slot)` under `config`'s policy, creating it on first use.
    pub fn log_for(
        &self,
        config: &StreamConfig,
        streamlet: StreamletId,
        slot: u32,
    ) -> Result<Arc<VirtualLog>> {
        let key = match config.replication.policy {
            VirtualLogPolicy::SharedPerBroker(n) => {
                let h = Self::mix(config.id, streamlet);
                LogKey::Shared(config.replication.factor, n, (h % u64::from(n)) as u32)
            }
            VirtualLogPolicy::PerStreamlet => LogKey::Streamlet(config.id, streamlet),
            VirtualLogPolicy::PerSubPartition => {
                LogKey::SubPartition(config.id, streamlet, slot)
            }
        };
        if let Some(log) = self.logs.read().get(&key) {
            return Ok(Arc::clone(log));
        }
        let mut guard = self.logs.write();
        if let Some(log) = guard.get(&key) {
            return Ok(Arc::clone(log));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let selector = BackupSelector::new(
            self.colocated_backup,
            &self.cluster_backups,
            self.selection,
            // Seed by owner and log id: deterministic, but distinct logs
            // start their round-robin at different backups.
            (u64::from(self.owner.raw()) << 32) | id,
        );
        let log = VirtualLog::new_with_obs(
            VirtualLogId(id as u32),
            self.owner,
            config.replication.vseg_size,
            config.replication.backup_copies() as usize,
            selector,
            Arc::clone(&self.obs),
        )?;
        guard.insert(key, Arc::clone(&log));
        Ok(log)
    }

    /// Streamlet-to-pool hash (stable across runs and commits: it decides
    /// which shared log a streamlet lands on).
    fn mix(stream: StreamId, streamlet: StreamletId) -> u64 {
        let x = (u64::from(stream.raw()) << 32) | u64::from(streamlet.raw());
        mix64(x.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Every backup node in the cluster (for freeing replicated
    /// segments on stream deletion).
    pub fn cluster_backups(&self) -> &[NodeId] {
        &self.cluster_backups
    }

    /// Removes (and returns) the *dedicated* virtual logs of `stream`
    /// (per-streamlet and per-sub-partition policies). Shared-pool logs
    /// interleave chunks of many streams and stay: reclaiming their
    /// backup space requires log cleaning, which the paper leaves to
    /// future work.
    pub fn remove_stream(&self, stream: StreamId) -> Vec<Arc<VirtualLog>> {
        let mut guard = self.logs.write();
        let keys: Vec<LogKey> = guard
            .keys()
            .filter(|k| match k {
                LogKey::Streamlet(s, _) => *s == stream,
                LogKey::SubPartition(s, _, _) => *s == stream,
                LogKey::Shared(_, _, _) => false,
            })
            .cloned()
            .collect();
        keys.into_iter().filter_map(|k| guard.remove(&k)).collect()
    }

    /// Number of logs created so far.
    pub fn log_count(&self) -> usize {
        self.logs.read().len()
    }

    /// Snapshot of every log (stats, draining at shutdown).
    pub fn all_logs(&self) -> Vec<Arc<VirtualLog>> {
        self.logs.read().values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kera_common::config::ReplicationConfig;
    use std::collections::HashSet;

    fn fleet(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn config(stream: u32, policy: VirtualLogPolicy) -> StreamConfig {
        StreamConfig {
            id: StreamId(stream),
            streamlets: 8,
            active_groups: 4,
            segments_per_group: 4,
            segment_size: 1 << 16,
            replication: ReplicationConfig { factor: 3, policy, vseg_size: 1 << 16 },
        }
    }

    #[test]
    fn streamlet_to_pool_hash_is_pinned() {
        // Expected values printed by commit 4999a2a's hand-written mixer.
        for (stream, streamlet, want) in [
            (0u32, 0u32, 0x0000000000000000u64),
            (1, 0, 0xbeeb67eaf1fc5e61),
            (1, 1, 0x46093cf9861ec2e4),
            (2, 7, 0xd25491ffd49ddc58),
            (7, 2, 0x28df70bb9f4836ea),
            (1000, 31, 0x17f326e6bdd40b8e),
            (u32::MAX, u32::MAX, 0x336503c6b835bec0),
        ] {
            assert_eq!(VirtualLogSet::mix(StreamId(stream), StreamletId(streamlet)), want);
        }
    }

    #[test]
    fn shared_pool_bounds_log_count() {
        let set = VirtualLogSet::new(NodeId(0), NodeId(0), fleet(4), SelectionPolicy::RoundRobin);
        let cfg = config(1, VirtualLogPolicy::SharedPerBroker(4));
        // Many streams and streamlets, but at most 4 logs.
        for stream in 0..32 {
            let cfg = config(stream, VirtualLogPolicy::SharedPerBroker(4));
            for sl in 0..8 {
                set.log_for(&cfg, StreamletId(sl), 0).unwrap();
            }
        }
        assert_eq!(set.log_count(), 4);
        // Stable assignment: same key -> same log.
        let a = set.log_for(&cfg, StreamletId(3), 0).unwrap();
        let b = set.log_for(&cfg, StreamletId(3), 1).unwrap(); // slot ignored
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn shared_pool_uses_all_entries() {
        let set = VirtualLogSet::new(NodeId(0), NodeId(0), fleet(4), SelectionPolicy::RoundRobin);
        let mut seen = HashSet::new();
        for stream in 0..64 {
            let cfg = config(stream, VirtualLogPolicy::SharedPerBroker(4));
            for sl in 0..4 {
                seen.insert(set.log_for(&cfg, StreamletId(sl), 0).unwrap().id());
            }
        }
        assert_eq!(seen.len(), 4, "hash should reach every pool entry");
    }

    #[test]
    fn per_streamlet_policy_dedicates_logs() {
        let set = VirtualLogSet::new(NodeId(0), NodeId(0), fleet(4), SelectionPolicy::RoundRobin);
        let cfg = config(1, VirtualLogPolicy::PerStreamlet);
        let a = set.log_for(&cfg, StreamletId(0), 0).unwrap();
        let b = set.log_for(&cfg, StreamletId(1), 0).unwrap();
        let a2 = set.log_for(&cfg, StreamletId(0), 3).unwrap(); // slot ignored
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &a2));
        assert_eq!(set.log_count(), 2);
    }

    #[test]
    fn per_subpartition_policy_splits_slots() {
        let set = VirtualLogSet::new(NodeId(0), NodeId(0), fleet(4), SelectionPolicy::RoundRobin);
        let cfg = config(1, VirtualLogPolicy::PerSubPartition);
        let a = set.log_for(&cfg, StreamletId(0), 0).unwrap();
        let b = set.log_for(&cfg, StreamletId(0), 1).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(set.log_count(), 2);
    }

    #[test]
    fn pools_are_separate_per_factor() {
        let set = VirtualLogSet::new(NodeId(0), NodeId(0), fleet(4), SelectionPolicy::RoundRobin);
        let mut cfg2 = config(1, VirtualLogPolicy::SharedPerBroker(2));
        cfg2.replication.factor = 2;
        let mut cfg3 = config(1, VirtualLogPolicy::SharedPerBroker(2));
        cfg3.replication.factor = 3;
        let a = set.log_for(&cfg2, StreamletId(0), 0).unwrap();
        let b = set.log_for(&cfg3, StreamletId(0), 0).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "different factors must not share logs");
    }

    #[test]
    fn insufficient_backups_error_propagates() {
        // Fleet of 2 -> only 1 candidate backup, but factor 3 needs 2.
        let set = VirtualLogSet::new(NodeId(0), NodeId(0), fleet(2), SelectionPolicy::RoundRobin);
        let cfg = config(1, VirtualLogPolicy::PerStreamlet);
        assert!(set.log_for(&cfg, StreamletId(0), 0).is_err());
    }

    #[test]
    fn concurrent_log_for_creates_once() {
        let set =
            Arc::new(VirtualLogSet::new(NodeId(0), NodeId(0), fleet(4), SelectionPolicy::RoundRobin));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let set = Arc::clone(&set);
                std::thread::spawn(move || {
                    let cfg = config(1, VirtualLogPolicy::PerStreamlet);
                    set.log_for(&cfg, StreamletId(0), 0).unwrap().id()
                })
            })
            .collect();
        let ids: HashSet<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(ids.len(), 1);
        assert_eq!(set.log_count(), 1);
    }
}
