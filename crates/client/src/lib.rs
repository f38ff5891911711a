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
//! What a consumer delivered is checked against what producers sent by
//! one [`oracle`], which every test and figure point that reads data back
//! goes through.
//!
//! The same clients drive both the KerA cluster and the Kafka-style
//! baseline — they speak the shared wire protocol and only see streams,
//! partitions and chunks.
//!
//! Each requests thread issues its calls with `CALL_TIMEOUT` as their
//! budget and keeps no clock for them: the client's node retransmits
//! them and ends them, and a call's end unparks the thread that issued
//! it.

use std::time::Duration;

pub mod consumer;
pub mod metadata;
pub mod oracle;
pub mod partitioner;
pub mod producer;

pub use consumer::{Consumer, ConsumerConfig};
pub use metadata::MetadataClient;
pub use oracle::Oracle;
pub use partitioner::Partitioner;
pub use producer::{Producer, ProducerConfig};

/// An unanswered produce, fetch or seek call counts as failed after this
/// long: the budget each is issued with.
const CALL_TIMEOUT: Duration = Duration::from_secs(10);
