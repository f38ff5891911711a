//! The coordinator's replicated metadata log and its state machine.
//!
//! Every mutating coordinator operation is a [`MetaOp`] appended to a
//! [`MetaLog`] and applied to a [`MetaState`] only once committed (seen
//! by a quorum of replicas). The state is a deterministic fold over the
//! committed prefix: ops are *decided records* — the leader computes
//! placements and reassignments before appending — so applying them
//! never consults liveness, hash iteration order or the clock, and any
//! replica folding the same prefix holds byte-identical maps
//! (DESIGN.md §10).
//!
//! [`MetaState::snapshot`] emits a canonical (sorted) image of the fold
//! at an index, used both to compact the local log past
//! `coordinator::SNAPSHOT_THRESHOLD` and to catch up followers
//! whose tail predates the leader's compaction horizon.

use std::collections::{HashMap, HashSet};

use kera_common::ids::{NodeId, StreamId};
use kera_wire::meta::{MetaOp, MetaRecord, MetaSnapshot};
use kera_wire::messages::StreamMetadata;

/// The coordinator state machine: membership and stream placements.
#[derive(Clone, Debug, Default)]
pub struct MetaState {
    /// Registered brokers, in registration order.
    pub brokers: Vec<NodeId>,
    /// Brokers marked dead by a committed `MarkDead`.
    pub dead: HashSet<NodeId>,
    /// Live streams with their placements.
    pub streams: HashMap<StreamId, StreamMetadata>,
}

impl MetaState {
    pub fn new() -> Self {
        Self::default()
    }

    /// Brokers currently believed alive, in registration order.
    pub fn alive_brokers(&self) -> Vec<NodeId> {
        self.brokers.iter().copied().filter(|b| !self.dead.contains(b)).collect()
    }

    /// Applies one committed op. Infallible and idempotent: the leader
    /// validated the op against the log before appending, so application
    /// is a pure map update on every replica.
    pub fn apply(&mut self, op: &MetaOp) {
        match op {
            MetaOp::RegisterBroker { node } => {
                if !self.brokers.contains(node) {
                    self.brokers.push(*node);
                }
            }
            MetaOp::CreateStream { metadata } => {
                self.streams.insert(metadata.config.id, metadata.clone());
            }
            MetaOp::DeleteStream { stream } => {
                self.streams.remove(stream);
            }
            MetaOp::MarkDead { node, reassignments } => {
                self.dead.insert(*node);
                for r in reassignments {
                    if let Some(meta) = self.streams.get_mut(&r.stream) {
                        for p in meta.placements.iter_mut() {
                            if p.streamlet == r.streamlet {
                                p.broker = r.new_broker;
                            }
                        }
                    }
                }
            }
        }
    }

    /// A canonical image of this state at log position
    /// `(last_index, last_term)`: collections are emitted in sorted
    /// order, so two replicas that folded the same prefix produce
    /// byte-identical snapshots.
    pub fn snapshot(&self, last_index: u64, last_term: u64) -> MetaSnapshot {
        let mut dead: Vec<NodeId> = self.dead.iter().copied().collect();
        dead.sort_unstable();
        let mut stream_ids: Vec<StreamId> = self.streams.keys().copied().collect();
        stream_ids.sort_unstable();
        MetaSnapshot {
            last_index,
            last_term,
            brokers: self.brokers.clone(),
            dead,
            streams: stream_ids.iter().map(|id| self.streams[id].clone()).collect(),
        }
    }

    /// Rebuilds the state a snapshot describes.
    pub fn restore(snap: &MetaSnapshot) -> Self {
        Self {
            brokers: snap.brokers.clone(),
            dead: snap.dead.iter().copied().collect(),
            streams: snap.streams.iter().map(|s| (s.config.id, s.clone())).collect(),
        }
    }
}

/// The in-memory metadata log: a compaction base (the position the last
/// snapshot covered) plus the entries after it. Indices are 1-based;
/// index 0 / term 0 denote "before the first record".
#[derive(Clone, Debug, Default)]
pub struct MetaLog {
    base_index: u64,
    base_term: u64,
    entries: Vec<MetaRecord>,
}

impl MetaLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the newest record (or the snapshot base when empty).
    pub fn last_index(&self) -> u64 {
        self.base_index + self.entries.len() as u64
    }

    /// Term of the newest record.
    pub fn last_term(&self) -> u64 {
        self.entries.last().map_or(self.base_term, |e| e.term)
    }

    /// Index the log was last compacted to (0 = never).
    pub fn base_index(&self) -> u64 {
        self.base_index
    }

    /// Number of entries currently held (after the base).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Term of the record at `index`: `Some(0)` for index 0, the base
    /// term at the base, `None` when the index is past the tail or
    /// already compacted away.
    pub fn term_at(&self, index: u64) -> Option<u64> {
        if index == 0 {
            return Some(0);
        }
        if index == self.base_index {
            return Some(self.base_term);
        }
        if index <= self.base_index || index > self.last_index() {
            return None;
        }
        Some(self.entries[(index - self.base_index - 1) as usize].term)
    }

    /// The record at `index`, if still held.
    pub fn get(&self, index: u64) -> Option<&MetaRecord> {
        if index <= self.base_index || index > self.last_index() {
            return None;
        }
        Some(&self.entries[(index - self.base_index - 1) as usize])
    }

    /// Leader append: assigns the next index.
    pub fn append(&mut self, term: u64, op: MetaOp) -> MetaRecord {
        let rec = MetaRecord { index: self.last_index() + 1, term, op };
        self.entries.push(rec.clone());
        rec
    }

    /// Follower append at the record's own index. The caller has already
    /// resolved conflicts (via [`MetaLog::truncate_from`]); records that
    /// are already present or non-contiguous are ignored.
    pub fn push(&mut self, rec: MetaRecord) {
        if rec.index == self.last_index() + 1 {
            self.entries.push(rec);
        }
    }

    /// Drops every record with `index >= from` (conflict resolution when
    /// an uncommitted suffix diverged from the new leader).
    pub fn truncate_from(&mut self, from: u64) {
        if from <= self.base_index {
            return;
        }
        let keep = (from - self.base_index - 1) as usize;
        self.entries.truncate(keep.min(self.entries.len()));
    }

    /// Clones the records with `index > from`, or `None` when `from`
    /// predates the compaction base (the caller must ship a snapshot).
    pub fn suffix_from(&self, from: u64) -> Option<Vec<MetaRecord>> {
        if from < self.base_index {
            return None;
        }
        let skip = (from - self.base_index) as usize;
        Some(self.entries[skip.min(self.entries.len())..].to_vec())
    }

    /// Iterates the records with `index > from` (e.g. apply-to-commit).
    pub fn entries_after(&self, from: u64) -> impl Iterator<Item = &MetaRecord> {
        let skip = from.saturating_sub(self.base_index) as usize;
        self.entries.iter().skip(skip)
    }

    /// Compacts: drops records up to `index` (which becomes the base).
    /// Only ever called with `index <=` the applied index, so dropped
    /// records are summarized by the caller's snapshot of the state.
    pub fn compact_to(&mut self, index: u64, term: u64) {
        if index <= self.base_index {
            return;
        }
        let drop = (index - self.base_index) as usize;
        self.entries.drain(..drop.min(self.entries.len()));
        self.base_index = index;
        self.base_term = term;
    }

    /// Follower-side snapshot install: resets the base to the snapshot
    /// position and discards every held record at or before it; records
    /// after it are dropped too when they conflict (the leader resends).
    pub fn install_snapshot(&mut self, last_index: u64, last_term: u64) {
        if last_index < self.base_index {
            return;
        }
        self.entries.clear();
        self.base_index = last_index;
        self.base_term = last_term;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kera_common::config::StreamConfig;
    use kera_common::ids::StreamletId;
    use kera_common::rng::SplitMix64;
    use kera_wire::messages::{Reassignment, StreamletPlacement};

    fn placements(brokers: &[NodeId], streamlets: u32) -> Vec<StreamletPlacement> {
        (0..streamlets)
            .map(|i| StreamletPlacement {
                streamlet: StreamletId(i),
                broker: brokers[i as usize % brokers.len()],
            })
            .collect()
    }

    fn create_op(id: u32, brokers: &[NodeId]) -> MetaOp {
        MetaOp::CreateStream {
            metadata: StreamMetadata {
                config: StreamConfig { id: StreamId(id), streamlets: 4, ..StreamConfig::default() },
                placements: placements(brokers, 4),
            },
        }
    }

    #[test]
    fn apply_is_idempotent_and_deterministic() {
        let brokers = [NodeId(1), NodeId(2), NodeId(3)];
        let mut s = MetaState::new();
        for b in brokers {
            s.apply(&MetaOp::RegisterBroker { node: b });
            s.apply(&MetaOp::RegisterBroker { node: b }); // duplicate: no-op
        }
        assert_eq!(s.brokers, brokers);
        s.apply(&create_op(1, &brokers));
        s.apply(&MetaOp::MarkDead {
            node: NodeId(2),
            reassignments: vec![Reassignment {
                stream: StreamId(1),
                streamlet: StreamletId(1),
                new_broker: NodeId(3),
            }],
        });
        assert_eq!(s.alive_brokers(), vec![NodeId(1), NodeId(3)]);
        assert_eq!(s.streams[&StreamId(1)].broker_of(StreamletId(1)), Some(NodeId(3)));
        s.apply(&MetaOp::DeleteStream { stream: StreamId(1) });
        assert!(s.streams.is_empty());
    }

    /// Satellite: snapshot/replay equivalence. Fold a random-but-seeded
    /// op sequence three ways — straight through, via snapshot+restore
    /// at every prefix, and with log compaction — and require identical
    /// canonical images.
    #[test]
    fn snapshot_replay_equivalence() {
        let brokers = [NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
        let mut rng = SplitMix64::new(0x5EED_0F0E);
        let mut ops: Vec<MetaOp> =
            brokers.iter().map(|&b| MetaOp::RegisterBroker { node: b }).collect();
        let mut live: Vec<u32> = Vec::new();
        for _ in 0..60 {
            match rng.next_below(3) {
                0 => {
                    let id = rng.next_u32() % 16;
                    ops.push(create_op(id, &brokers));
                    if !live.contains(&id) {
                        live.push(id);
                    }
                }
                1 if !live.is_empty() => {
                    let id = live[rng.next_below(live.len() as u64) as usize];
                    ops.push(MetaOp::DeleteStream { stream: StreamId(id) });
                    live.retain(|&x| x != id);
                }
                _ => {
                    let dead = brokers[rng.next_below(4) as usize];
                    let survivor = brokers[rng.next_below(4) as usize];
                    let reassignments = live
                        .iter()
                        .map(|&id| Reassignment {
                            stream: StreamId(id),
                            streamlet: StreamletId(rng.next_u32() % 4),
                            new_broker: survivor,
                        })
                        .collect();
                    ops.push(MetaOp::MarkDead { node: dead, reassignments });
                }
            }
        }

        // Way 1: straight fold.
        let mut direct = MetaState::new();
        for op in &ops {
            direct.apply(op);
        }

        // Way 2: snapshot + restore at every prefix, replay the rest.
        for cut in 0..ops.len() {
            let mut head = MetaState::new();
            for op in &ops[..cut] {
                head.apply(op);
            }
            let snap = head.snapshot(cut as u64, 1);
            let mut resumed = MetaState::restore(&snap);
            for op in &ops[cut..] {
                resumed.apply(op);
            }
            assert_eq!(
                resumed.snapshot(ops.len() as u64, 1),
                direct.snapshot(ops.len() as u64, 1),
                "replay from snapshot at {cut} diverged"
            );
        }

        // Way 3: a log that compacts every 7 records while a second
        // replica folds the shipped snapshot + suffix.
        let mut log = MetaLog::new();
        let mut leader = MetaState::new();
        let mut applied = 0u64;
        for op in &ops {
            log.append(1, op.clone());
        }
        for i in 1..=ops.len() as u64 {
            leader.apply(&log.get(i).unwrap().op.clone());
            applied = i;
            if log.len() >= 7 {
                let term = log.term_at(applied).unwrap();
                log.compact_to(applied, term);
                assert_eq!(log.base_index(), applied);
            }
        }
        assert_eq!(
            leader.snapshot(applied, 1),
            direct.snapshot(applied, 1),
            "compacting fold diverged"
        );
    }

    #[test]
    fn log_indexing_truncation_and_suffixes() {
        let mut log = MetaLog::new();
        assert_eq!(log.last_index(), 0);
        assert_eq!(log.term_at(0), Some(0));
        for i in 0..5 {
            let rec = log.append(2, MetaOp::RegisterBroker { node: NodeId(i) });
            assert_eq!(rec.index, u64::from(i) + 1);
        }
        assert_eq!(log.last_index(), 5);
        assert_eq!(log.term_at(3), Some(2));
        assert_eq!(log.term_at(6), None);
        assert_eq!(log.suffix_from(3).unwrap().len(), 2);
        assert_eq!(log.suffix_from(0).unwrap().len(), 5);

        log.truncate_from(4);
        assert_eq!(log.last_index(), 3);

        log.compact_to(2, 2);
        assert_eq!(log.base_index(), 2);
        assert_eq!(log.term_at(2), Some(2));
        assert_eq!(log.term_at(1), None);
        assert!(log.suffix_from(1).is_none(), "compacted range needs a snapshot");
        assert_eq!(log.suffix_from(2).unwrap().len(), 1);

        // Follower-side contiguity: pushes must arrive in order.
        let mut f = MetaLog::new();
        f.install_snapshot(2, 2);
        f.push(MetaRecord { index: 5, term: 2, op: MetaOp::RegisterBroker { node: NodeId(9) } });
        assert_eq!(f.last_index(), 2, "non-contiguous push ignored");
        f.push(MetaRecord { index: 3, term: 2, op: MetaOp::RegisterBroker { node: NodeId(9) } });
        assert_eq!(f.last_index(), 3);
    }
}
