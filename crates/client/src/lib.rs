//! Producer and consumer client stacks (paper Figs. 6–7).
//!
//! Both clients follow the paper's two-thread architecture:
//!
//! - the **producer** appends records into per-streamlet chunk buffers on
//!   the caller's thread (the *Source* thread) while a *Requests* thread
//!   batches sealed chunks into one request per broker and pushes them
//!   over parallel synchronous RPCs;
//! - the **consumer**'s *Requests* thread pulls one chunk per streamlet
//!   slot per broker request into a bounded chunk cache, while the caller
//!   (the *Source* thread) iterates records out of cached chunks.
//!
//! The same clients drive both the KerA cluster and the Kafka-style
//! baseline — they speak the shared wire protocol and only see streams,
//! partitions and chunks.

use std::time::{Duration, Instant};

use bytes::Bytes;
use kera_common::{KeraError, Result};
use kera_rpc::node::PendingCall;

pub mod consumer;
pub mod metadata;
pub mod partitioner;
pub mod producer;

pub use consumer::{Consumer, ConsumerConfig};
pub use metadata::MetadataClient;
pub use partitioner::Partitioner;
pub use producer::{Producer, ProducerConfig};

/// An unanswered produce, fetch or seek call counts as failed after this
/// long.
const CALL_TIMEOUT: Duration = Duration::from_secs(10);

/// A requests thread's longest park: how late it may notice a call's
/// retransmission timer or `CALL_TIMEOUT` firing.
const TIMER_CHECK: Duration = Duration::from_millis(50);

/// How a requests thread looks at a call it sent at `sent`: the response
/// if it has landed (looking also sends a due retransmission), a timeout
/// once the call has been unanswered for `CALL_TIMEOUT`, else `None`.
fn resolve(call: &mut PendingCall, sent: Instant, op: &'static str) -> Option<Result<Bytes>> {
    match call.poll_wait(Duration::ZERO) {
        None if sent.elapsed() >= CALL_TIMEOUT => Some(Err(KeraError::Timeout { op })),
        resolved => resolved,
    }
}
