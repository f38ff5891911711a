//! Binary wire formats shared by brokers, backups, clients and the
//! Kafka-style baseline.
//!
//! Layout of the crate:
//!
//! - `codec` (crate-private) — the `Wire` trait and the two declaration
//!   macros every byte layout below is derived from; no other crate can
//!   write a message body by hand;
//! - [`record`] — the multi-key-value record entry format (RAMCloud/SLIK
//!   style: a checksummed entry header, optional version and timestamp,
//!   zero or more keys, and a value);
//! - [`chunk`] — the chunk format: the unit producers batch records into
//!   and the unit the virtual log replicates (paper §IV-A, Fig. 3);
//! - [`frames`] — RPC envelopes: opcodes, request/response headers, status
//!   codes, and their TCP serialization;
//! - [`cursor`] — consumer cursors addressing a position inside a
//!   streamlet's chain of groups and segments;
//! - [`messages`] — the field list of every RPC body (produce, fetch,
//!   metadata, backup writes, follower fetch, recovery);
//! - [`meta`] — the coordinator's metadata-log records, snapshots and
//!   the election/log-replication bodies (DESIGN.md §10).
//!
//! All multi-byte integers are little-endian. Clients and brokers share
//! these formats so chunks flow from producer buffers into broker segments
//! and onto backups without re-serialization — the paper's "shared binary
//! data format" (§II-A).

pub mod chunk;
pub(crate) mod codec;
pub mod cursor;
pub mod frames;
pub mod messages;
pub mod meta;
pub mod record;

pub use codec::checked_len;
