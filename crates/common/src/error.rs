//! The workspace-wide error type.

use std::fmt;
use std::io;

use crate::ids::{GroupRef, NodeId, StreamId, StreamletId};

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, KeraError>;

/// Every failure mode the storage system can surface.
///
/// The variants map one-to-one onto the response status codes carried on the
/// wire (see `kera-wire`), so a remote error can be reconstructed losslessly
/// on the client side.
#[derive(Debug)]
pub enum KeraError {
    /// An OS-level I/O failure (disk flusher, TCP transport).
    Io(io::Error),
    /// A checksum mismatch was detected while validating a record, chunk or
    /// virtual segment.
    Corruption {
        what: &'static str,
        expected: u32,
        actual: u32,
    },
    /// A malformed frame or message body.
    Protocol(String),
    /// The referenced stream does not exist on this broker/coordinator.
    UnknownStream(StreamId),
    /// The referenced streamlet does not exist (or is not owned here).
    UnknownStreamlet(StreamId, StreamletId),
    /// The referenced group does not exist.
    UnknownGroup(GroupRef),
    /// A stream with this id already exists.
    StreamExists(StreamId),
    /// An append did not fit and could not be retried (e.g. a chunk larger
    /// than a whole segment).
    ChunkTooLarge { chunk: usize, segment: usize },
    /// An RPC did not complete within its deadline.
    Timeout { op: &'static str },
    /// The peer is gone (crashed node, closed channel or socket).
    Disconnected(NodeId),
    /// The cluster has no node able to serve the request (e.g. not enough
    /// backups for the requested replication factor).
    NoCapacity(String),
    /// The request was valid but the node is shutting down.
    ShuttingDown,
    /// Recovery-specific failure.
    Recovery(String),
    /// Invalid user-supplied configuration.
    InvalidConfig(String),
    /// The coordinator replica addressed is not the current leader. The
    /// caller should re-issue the request against `hint` (the leader the
    /// replica last heard from, if any) rather than blindly retrying.
    NotLeader {
        /// Best-known leader, if the replica has heard from one this term.
        hint: Option<NodeId>,
        /// The replica's current term, so stale hints can be ranked.
        term: u64,
    },
    /// An encoder was handed a buffer too large for its `u32` length
    /// field. Truncating the cast would produce a frame that *decodes*
    /// — with a silently wrong length — so this must surface as an
    /// error at encode time, never on the wire.
    EncodeOverflow {
        /// Which length field overflowed.
        what: &'static str,
        /// The length that did not fit in `u32`.
        len: usize,
    },
}

impl KeraError {
    /// True when the operation may be safely retried by the client
    /// (idempotent chunk tagging makes produce retries exactly-once).
    ///
    /// `NotLeader` is deliberately *not* retriable: retrying the same
    /// replica cannot succeed — the caller must re-resolve the leader
    /// (see `RpcClient::call_leader`) and redirect.
    pub fn is_retriable(&self) -> bool {
        matches!(
            self,
            KeraError::Timeout { .. } | KeraError::Disconnected(_) | KeraError::ShuttingDown
        )
    }
}

impl fmt::Display for KeraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeraError::Io(e) => write!(f, "i/o error: {e}"),
            KeraError::Corruption { what, expected, actual } => write!(
                f,
                "corruption detected in {what}: expected checksum {expected:#010x}, got {actual:#010x}"
            ),
            KeraError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            KeraError::UnknownStream(s) => write!(f, "unknown stream {s}"),
            KeraError::UnknownStreamlet(s, p) => write!(f, "unknown streamlet {p} of stream {s}"),
            KeraError::UnknownGroup(g) => write!(f, "unknown group {g}"),
            KeraError::StreamExists(s) => write!(f, "stream {s} already exists"),
            KeraError::ChunkTooLarge { chunk, segment } => {
                write!(f, "chunk of {chunk} bytes cannot fit in a {segment}-byte segment")
            }
            KeraError::Timeout { op } => write!(f, "operation {op} timed out"),
            KeraError::Disconnected(n) => write!(f, "peer {n} disconnected"),
            KeraError::NoCapacity(msg) => write!(f, "no capacity: {msg}"),
            KeraError::ShuttingDown => write!(f, "node is shutting down"),
            KeraError::Recovery(msg) => write!(f, "recovery failure: {msg}"),
            KeraError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            KeraError::NotLeader { hint: Some(n), term } => {
                write!(f, "not the leader (term {term}, try {n})")
            }
            KeraError::NotLeader { hint: None, term } => {
                write!(f, "not the leader (term {term}, leader unknown)")
            }
            KeraError::EncodeOverflow { what, len } => {
                write!(f, "{what} of {len} bytes exceeds the u32 length field")
            }
        }
    }
}

impl std::error::Error for KeraError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KeraError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for KeraError {
    fn from(e: io::Error) -> Self {
        KeraError::Io(e)
    }
}

/// A copy is the same error to whoever it is sent to: every variant copies
/// as itself, and an `Io` error — `io::Error` has no `Clone` — keeps its
/// kind and message.
impl Clone for KeraError {
    fn clone(&self) -> Self {
        match self {
            KeraError::Io(e) => KeraError::Io(io::Error::new(e.kind(), e.to_string())),
            KeraError::Corruption { what, expected, actual } => {
                KeraError::Corruption { what, expected: *expected, actual: *actual }
            }
            KeraError::Protocol(msg) => KeraError::Protocol(msg.clone()),
            KeraError::UnknownStream(s) => KeraError::UnknownStream(*s),
            KeraError::UnknownStreamlet(s, p) => KeraError::UnknownStreamlet(*s, *p),
            KeraError::UnknownGroup(g) => KeraError::UnknownGroup(*g),
            KeraError::StreamExists(s) => KeraError::StreamExists(*s),
            KeraError::ChunkTooLarge { chunk, segment } => {
                KeraError::ChunkTooLarge { chunk: *chunk, segment: *segment }
            }
            KeraError::Timeout { op } => KeraError::Timeout { op },
            KeraError::Disconnected(n) => KeraError::Disconnected(*n),
            KeraError::NoCapacity(msg) => KeraError::NoCapacity(msg.clone()),
            KeraError::ShuttingDown => KeraError::ShuttingDown,
            KeraError::Recovery(msg) => KeraError::Recovery(msg.clone()),
            KeraError::InvalidConfig(msg) => KeraError::InvalidConfig(msg.clone()),
            KeraError::NotLeader { hint, term } => KeraError::NotLeader { hint: *hint, term: *term },
            KeraError::EncodeOverflow { what, len } => KeraError::EncodeOverflow { what, len: *len },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GroupId;

    #[test]
    fn display_formats() {
        let e = KeraError::Corruption { what: "chunk", expected: 1, actual: 2 };
        assert!(e.to_string().contains("chunk"));
        assert!(e.to_string().contains("0x00000001"));

        let e = KeraError::UnknownGroup(GroupRef::new(StreamId(1), StreamletId(2), GroupId(3)));
        assert!(e.to_string().contains("s1/p2/g3"));
    }

    #[test]
    fn retriability() {
        assert!(KeraError::Timeout { op: "produce" }.is_retriable());
        assert!(KeraError::Disconnected(NodeId(3)).is_retriable());
        assert!(!KeraError::UnknownStream(StreamId(1)).is_retriable());
        assert!(!KeraError::Protocol("x".into()).is_retriable());
        // NotLeader requires re-resolution, not a same-node retry.
        assert!(!KeraError::NotLeader { hint: Some(NodeId(3)), term: 2 }.is_retriable());
    }

    #[test]
    fn not_leader_display() {
        let e = KeraError::NotLeader { hint: Some(NodeId(3000)), term: 7 };
        assert!(e.to_string().contains("term 7"));
        assert!(e.to_string().contains("NodeId(3000)"));
        let e = KeraError::NotLeader { hint: None, term: 1 };
        assert!(e.to_string().contains("leader unknown"));
    }

    #[test]
    fn io_error_converts_and_chains() {
        let e: KeraError = io::Error::other("boom").into();
        assert!(matches!(e, KeraError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
