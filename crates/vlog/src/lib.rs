//! The **virtual log** — the paper's core contribution (§III, §IV-B).
//!
//! A virtual log is a shared replicated log that *decouples replication
//! from partitioning*: stream partitions (streamlets) keep ordering, while
//! virtual logs consolidate the chunks of many partitions into few, large
//! replication RPCs. Each virtual log is an ordered sequence of *virtual
//! segments*; a virtual segment holds only **references** to chunks that
//! physically live in the streamlets' segments, plus the metadata needed
//! to replicate them and to verify integrity at recovery.
//!
//! Crate layout:
//!
//! - [`vseg`] — virtual segments: chunk references, the header /
//!   durable-header pair, the checksum-of-checksums, per-vseg backup sets;
//! - [`vlog`] — the virtual log: one open virtual segment, rolling, the
//!   group-commit replication round in its two halves (begin: send
//!   everything pending; finish: collect the acknowledgements) and
//!   [`sync`], the one call a produce worker makes to run an overlapped
//!   round on every log its request touched — no thread of its own;
//! - [`set`] — [`set::VirtualLogSet`]: maps streamlets (or sub-partitions)
//!   onto virtual logs according to the configured
//!   [`kera_common::config::VirtualLogPolicy`] — the *replication
//!   capacity* dial;
//! - [`selector`] — per-virtual-segment backup selection ("a set of
//!   distinct backups is chosen, potentially different from the ones
//!   associated to the previous virtual segment");
//! - [`channel`] — the [`channel::BackupChannel`] abstraction the
//!   replication engine drives (implemented over real RPC by
//!   `kera-broker`, mocked in tests).

pub mod channel;
pub mod selector;
pub mod set;
pub mod vlog;
pub mod vseg;

pub use channel::BackupChannel;
pub use set::VirtualLogSet;
pub use vlog::{sync, VirtualLog};
pub use vseg::{ChunkRef, VirtualSegment};
