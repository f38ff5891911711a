//! Causal tracing: trace contexts and thread-local propagation.
//!
//! A [`TraceContext`] names a point in a causal tree: the trace it belongs
//! to and the span that is "current" at this point. Contexts ride on RPC
//! envelopes (two `u64` fields, zero meaning "untraced") and hop threads
//! via an explicit thread-local, set by the RPC worker loop around each
//! `Service::handle` call so nested RPCs inherit the caller's context
//! without any plumbing through service code.

use std::cell::Cell;

/// A point in a causal tree. `trace_id == 0` means "no trace": the
/// context of untraced work and of clusters with observability disabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TraceContext {
    pub trace_id: u64,
    /// The span that is current at this point; children created from this
    /// context use it as their parent.
    pub span_id: u64,
}

impl TraceContext {
    pub const NONE: TraceContext = TraceContext { trace_id: 0, span_id: 0 };

    #[inline]
    pub fn is_none(self) -> bool {
        self.trace_id == 0
    }

    #[inline]
    pub fn is_some(self) -> bool {
        self.trace_id != 0
    }
}

thread_local! {
    static CURRENT: Cell<TraceContext> = const { Cell::new(TraceContext::NONE) };
}

/// The calling thread's current trace context ([`TraceContext::NONE`] if
/// untraced).
#[inline]
pub fn current() -> TraceContext {
    CURRENT.with(Cell::get)
}

/// Replaces the calling thread's current context, returning the previous
/// one. Prefer [`enter`], which restores on scope exit.
#[inline]
pub fn set_current(ctx: TraceContext) -> TraceContext {
    CURRENT.with(|c| c.replace(ctx))
}

/// Restores the previous thread-local context on drop.
#[must_use = "the previous context is restored when the guard drops"]
pub struct ContextGuard {
    prev: TraceContext,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        set_current(self.prev);
    }
}

/// Makes `ctx` current for the enclosing scope.
#[inline]
pub fn enter(ctx: TraceContext) -> ContextGuard {
    ContextGuard { prev: set_current(ctx) }
}

/// Where in the produce pipeline an event happened. Values are stable
/// (they appear in flight-recorder dumps).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Client side of one RPC (first attempt through final resolution).
    RpcCall = 1,
    /// A retransmission of an in-flight RPC (instant event).
    RpcRetry = 2,
    /// Server-side execution of one request.
    RpcServe = 3,
    /// A duplicate request answered from the dedup cache (instant event).
    RpcDedupHit = 4,
    /// Broker: physical + virtual-log append of one produce request.
    Append = 5,
    /// Broker: waiting for the touched virtual logs to become durable.
    Replicate = 6,
    /// Replication driver: one consolidated shipping round of a vlog.
    VlogShip = 7,
    /// Backup: applying one BackupWrite batch.
    BackupWrite = 8,
    /// Backup/storage: flushing a closed segment to disk.
    Flush = 9,
    /// Server dropped a request whose deadline had already passed.
    RpcExpired = 10,
    /// Coordinator replica: one vote round (candidacy through outcome).
    ElectionVote = 11,
    /// A replica won an election and became leader (instant event;
    /// aux = the new term).
    ElectionWon = 12,
    /// A follower's election timer fired with no leader heartbeat
    /// (instant event; aux = the term it is abandoning).
    ElectionTimeout = 13,
    /// A leader stepped down after seeing a higher term or losing its
    /// quorum (instant event; aux = the deposed term).
    ElectionStepdown = 14,
    // 15–17 were the retired admission gate's throttle, reject and
    // evict events. The numbers stay unassigned.
}

/// Number of distinct stages (dense, 1-based).
pub const STAGE_COUNT: usize = 14;

impl Stage {
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::RpcCall,
        Stage::RpcRetry,
        Stage::RpcServe,
        Stage::RpcDedupHit,
        Stage::Append,
        Stage::Replicate,
        Stage::VlogShip,
        Stage::BackupWrite,
        Stage::Flush,
        Stage::RpcExpired,
        Stage::ElectionVote,
        Stage::ElectionWon,
        Stage::ElectionTimeout,
        Stage::ElectionStepdown,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stage::RpcCall => "rpc_call",
            Stage::RpcRetry => "rpc_retry",
            Stage::RpcServe => "rpc_serve",
            Stage::RpcDedupHit => "rpc_dedup_hit",
            Stage::Append => "append",
            Stage::Replicate => "replicate",
            Stage::VlogShip => "vlog_ship",
            Stage::BackupWrite => "backup_write",
            Stage::Flush => "flush",
            Stage::RpcExpired => "rpc_expired",
            Stage::ElectionVote => "election_vote",
            Stage::ElectionWon => "election_won",
            Stage::ElectionTimeout => "election_timeout",
            Stage::ElectionStepdown => "election_stepdown",
        }
    }

    pub fn from_u8(v: u8) -> Option<Stage> {
        Stage::ALL.get(v.wrapping_sub(1) as usize).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_none_semantics() {
        assert!(TraceContext::NONE.is_none());
        assert!(TraceContext { trace_id: 3, span_id: 0 }.is_some());
    }

    #[test]
    fn enter_restores_previous_context() {
        let outer = TraceContext { trace_id: 1, span_id: 10 };
        let inner = TraceContext { trace_id: 2, span_id: 20 };
        assert!(current().is_none());
        {
            let _g = enter(outer);
            assert_eq!(current(), outer);
            {
                let _g2 = enter(inner);
                assert_eq!(current(), inner);
            }
            assert_eq!(current(), outer);
        }
        assert!(current().is_none());
    }

    #[test]
    fn stage_roundtrip() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_u8(s as u8), Some(s));
        }
        assert_eq!(Stage::from_u8(0), None);
        assert_eq!(Stage::from_u8(200), None);
    }
}
