//! Metadata-log records and coordinator-replication messages.
//!
//! Every mutating coordinator operation is serialized as a [`MetaOp`]
//! and framed as a checksummed [`MetaRecord`] `(index, term, op)` before
//! it is applied — the coordinator's maps are a deterministic fold over
//! the committed records, so a restarted or newly-elected replica
//! rebuilds exactly the same state by replay (optionally from a
//! [`MetaSnapshot`]). Ops are *decided records*: the leader computes
//! placements and reassignments before appending, so application never
//! consults nondeterministic state (hash iteration order, liveness).
//!
//! Record framing mirrors the record/chunk discipline of this crate: a
//! CRC32C over everything after the checksum field, so truncation and
//! bit flips are always detected (fuzzed in `tests/fuzz_decoders.rs`).
//! The frame is the `crc(..)` form of `wire_struct!`; like every body in
//! [`crate::messages`], each layout below is its field list.

use bytes::Bytes;
use kera_common::ids::{NodeId, StreamId};
use kera_common::{KeraError, Result};

use crate::codec::{wire_struct, Reader, Sentinel, Wire, Writer};
use crate::messages::{Reassignment, StreamMetadata};

// ---------------------------------------------------------------------------
// MetaOp: one mutating coordinator operation
// ---------------------------------------------------------------------------

/// A mutating coordinator operation, as decided by the leader.
#[derive(Clone, Debug, PartialEq)]
pub enum MetaOp {
    /// Add a broker to the membership (idempotent).
    RegisterBroker { node: NodeId },
    /// Create a stream with fully-computed placements.
    CreateStream { metadata: StreamMetadata },
    /// Delete a stream.
    DeleteStream { stream: StreamId },
    /// Mark a broker dead and move its streamlets per the explicit
    /// reassignment list (computed by the leader, applied verbatim).
    MarkDead { node: NodeId, reassignments: Vec<Reassignment> },
}

/// A tagged union: one tag byte, then the variant's fields. Written by
/// hand (the struct macro has no payload-enum form); the fields go
/// through [`Wire`] like any others.
impl Wire for MetaOp {
    /// The tag and the smallest variant.
    const MIN_LEN: usize = u8::MIN_LEN + NodeId::MIN_LEN;

    fn put(&self, w: &mut Writer) -> Result<()> {
        match self {
            MetaOp::RegisterBroker { node } => w.u8(0).put(node),
            MetaOp::CreateStream { metadata } => w.u8(1).put(metadata),
            MetaOp::DeleteStream { stream } => w.u8(2).put(stream),
            MetaOp::MarkDead { node, reassignments } => {
                w.u8(3).put(node)?;
                w.put(reassignments)
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.get::<u8>()? {
            0 => MetaOp::RegisterBroker { node: r.get()? },
            1 => MetaOp::CreateStream { metadata: r.get()? },
            2 => MetaOp::DeleteStream { stream: r.get()? },
            3 => MetaOp::MarkDead { node: r.get()?, reassignments: r.get()? },
            t => return Err(KeraError::Protocol(format!("unknown meta op tag {t}"))),
        })
    }
}

// ---------------------------------------------------------------------------
// MetaRecord / MetaSnapshot: the checksummed frames of the metadata log
// ---------------------------------------------------------------------------

wire_struct! {
    crc("meta record")
    /// One entry of the replicated metadata log.
    ///
    /// Wire layout (little-endian):
    ///
    /// ```text
    /// +0   checksum  u32   CRC32C over bytes [8 .. 8 + body_len)
    /// +4   body_len  u32   length of everything after this field
    /// +8   index     u64   log position (1-based; 0 = "before the log")
    /// +16  term      u64   leader term that appended the record
    /// +24  op        ...   MetaOp encoding, body_len - 16 bytes
    /// ```
    #[derive(Clone, Debug, PartialEq)]
    pub struct MetaRecord {
        pub index: u64,
        pub term: u64,
        pub op: MetaOp,
    }
    encode -> Result<Bytes>; decode(&[u8]);
}

wire_struct! {
    crc("meta snapshot")
    /// A point-in-time image of the coordinator state machine, equivalent to
    /// folding the log through `last_index`. Carried to lagging followers
    /// and used to truncate the local log past the coordinator's snapshot threshold.
    /// Framed like a [`MetaRecord`].
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct MetaSnapshot {
        /// Log index this snapshot covers (replay resumes at `last_index+1`).
        pub last_index: u64,
        /// Term of the record at `last_index`.
        pub last_term: u64,
        /// Registered brokers, in registration order.
        pub brokers: Vec<NodeId>,
        /// Brokers marked dead.
        pub dead: Vec<NodeId>,
        /// All live streams with their placements.
        pub streams: Vec<StreamMetadata>,
    }
    encode -> Result<Bytes>; decode(&[u8]);
}

// ---------------------------------------------------------------------------
// Election and log-replication RPC bodies
// ---------------------------------------------------------------------------

wire_struct! {
    /// Candidate → replica: solicit a vote for `term`.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct VoteRequest {
        pub term: u64,
        pub candidate: NodeId,
        /// Candidate's log tail; a voter refuses candidates whose log is
        /// behind its own (committed records must survive elections).
        pub last_log_index: u64,
        pub last_log_term: u64,
    }
    encode -> Bytes; decode(&[u8]);
}

wire_struct! {
    /// Replica → candidate: the vote.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct VoteResponse {
        /// Voter's term after processing (a candidate seeing a higher term
        /// steps down).
        pub term: u64,
        pub granted: bool,
    }
    encode -> Bytes; decode(&[u8]);
}

wire_struct! {
    /// Leader → follower: replicate log entries (empty = heartbeat). When a
    /// follower is behind the leader's snapshot horizon, `snapshot` carries
    /// the full image and `entries` resume after it.
    #[derive(Clone, Debug, PartialEq)]
    pub struct MetaAppendRequest {
        pub term: u64,
        pub leader: NodeId,
        /// Index/term of the record immediately before `entries` (the Raft
        /// consistency check); 0/0 at the very start of the log.
        pub prev_index: u64,
        pub prev_term: u64,
        /// Highest index the leader knows is replicated on a quorum.
        pub commit_index: u64,
        pub snapshot: Option<MetaSnapshot>,
        pub entries: Vec<MetaRecord>,
    }
    encode -> Result<Bytes>; decode(&[u8]);
}

wire_struct! {
    /// Follower → leader: append outcome.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct MetaAppendResponse {
        pub term: u64,
        /// False when the consistency check failed (the leader backs up and
        /// resends earlier entries or a snapshot).
        pub success: bool,
        /// Highest log index the follower now holds matching the leader.
        pub match_index: u64,
    }
    encode -> Bytes; decode(&[u8]);
}

wire_struct! {
    /// Replica → anyone: current leadership view (`GetLeader` response; the
    /// request has an empty body).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct GetLeaderResponse {
        /// The leader this replica believes in, if it has heard from one.
        pub leader: Option<NodeId> [Sentinel],
        pub term: u64,
        /// True when the responding replica is itself the leader.
        pub is_leader: bool,
    }
    encode -> Bytes; decode(&[u8]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use kera_common::config::StreamConfig;
    use kera_common::ids::StreamletId;
    use crate::messages::StreamletPlacement;

    fn sample_metadata() -> StreamMetadata {
        StreamMetadata {
            config: StreamConfig { id: StreamId(7), streamlets: 2, ..StreamConfig::default() },
            placements: vec![
                StreamletPlacement { streamlet: StreamletId(0), broker: NodeId(1) },
                StreamletPlacement { streamlet: StreamletId(1), broker: NodeId(2) },
            ],
        }
    }

    #[test]
    fn meta_ops_roundtrip() {
        let ops = [
            MetaOp::RegisterBroker { node: NodeId(4) },
            MetaOp::CreateStream { metadata: sample_metadata() },
            MetaOp::DeleteStream { stream: StreamId(7) },
            MetaOp::MarkDead {
                node: NodeId(1),
                reassignments: vec![Reassignment {
                    stream: StreamId(7),
                    streamlet: StreamletId(0),
                    new_broker: NodeId(2),
                }],
            },
        ];
        for (i, op) in ops.into_iter().enumerate() {
            let rec = MetaRecord { index: i as u64 + 1, term: 3, op };
            let back = MetaRecord::decode(&rec.encode().unwrap()).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn meta_record_detects_any_bit_flip() {
        let rec = MetaRecord {
            index: 9,
            term: 2,
            op: MetaOp::CreateStream { metadata: sample_metadata() },
        };
        let encoded = rec.encode().unwrap();
        for byte in 0..encoded.len() {
            for bit in 0..8 {
                let mut mutant = encoded.to_vec();
                mutant[byte] ^= 1 << bit;
                assert!(
                    MetaRecord::decode(&mutant).is_err(),
                    "undetected flip at byte {byte} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn snapshot_roundtrips_and_detects_corruption() {
        let snap = MetaSnapshot {
            last_index: 17,
            last_term: 4,
            brokers: vec![NodeId(1), NodeId(2), NodeId(3)],
            dead: vec![NodeId(2)],
            streams: vec![sample_metadata()],
        };
        let encoded = snap.encode().unwrap();
        assert_eq!(MetaSnapshot::decode(&encoded).unwrap(), snap);

        let mut mutant = encoded.to_vec();
        mutant[10] ^= 0x40;
        assert!(MetaSnapshot::decode(&mutant).is_err());
    }

    #[test]
    fn election_messages_roundtrip() {
        let vr = VoteRequest { term: 5, candidate: NodeId(3001), last_log_index: 12, last_log_term: 4 };
        assert_eq!(VoteRequest::decode(&vr.encode()).unwrap(), vr);

        let resp = VoteResponse { term: 5, granted: true };
        assert_eq!(VoteResponse::decode(&resp.encode()).unwrap(), resp);

        let append = MetaAppendRequest {
            term: 5,
            leader: NodeId(3001),
            prev_index: 11,
            prev_term: 4,
            commit_index: 10,
            snapshot: Some(MetaSnapshot { last_index: 8, last_term: 3, ..MetaSnapshot::default() }),
            entries: vec![MetaRecord {
                index: 12,
                term: 5,
                op: MetaOp::RegisterBroker { node: NodeId(1) },
            }],
        };
        assert_eq!(MetaAppendRequest::decode(&append.encode().unwrap()).unwrap(), append);

        let ar = MetaAppendResponse { term: 5, success: false, match_index: 7 };
        assert_eq!(MetaAppendResponse::decode(&ar.encode()).unwrap(), ar);

        let gl = GetLeaderResponse { leader: Some(NodeId(3002)), term: 6, is_leader: false };
        assert_eq!(GetLeaderResponse::decode(&gl.encode()).unwrap(), gl);
        let gl = GetLeaderResponse { leader: None, term: 0, is_leader: false };
        assert_eq!(GetLeaderResponse::decode(&gl.encode()).unwrap(), gl);
    }

    #[test]
    fn empty_append_is_a_heartbeat() {
        let hb = MetaAppendRequest {
            term: 2,
            leader: NodeId(0),
            prev_index: 0,
            prev_term: 0,
            commit_index: 0,
            snapshot: None,
            entries: vec![],
        };
        let back = MetaAppendRequest::decode(&hb.encode().unwrap()).unwrap();
        assert!(back.entries.is_empty());
        assert!(back.snapshot.is_none());
    }
}
