//! Common substrate for the KerA virtual-log reproduction.
//!
//! This crate holds everything the rest of the workspace agrees on but that
//! carries no streaming logic of its own:
//!
//! - [`ids`] — strongly-typed identifiers for streams, streamlets, groups,
//!   segments, virtual logs, nodes and clients;
//! - [`error`] — the workspace-wide error type;
//! - [`checksum`] — CRC32C (Castagnoli), on the SSE4.2 instruction where the
//!   CPU has it, used by every on-wire and in-memory structure that carries
//!   integrity information;
//! - [`config`] — cluster, stream and replication configuration mirroring
//!   the knobs the paper sweeps in its evaluation;
//! - [`knobs`] — the table of `KERA_*` environment variables, each read
//!   once;
//! - [`metrics`] — low-overhead counters, throughput meters and latency
//!   histograms used by brokers, clients and the benchmark harness;
//! - [`rng`] — a tiny deterministic SplitMix64 generator for hot paths that
//!   must not pull in a full RNG.

pub mod checksum;
pub mod config;
pub mod error;
pub mod ids;
pub mod knobs;
pub mod metrics;
pub mod rng;

pub use error::{KeraError, Result};
