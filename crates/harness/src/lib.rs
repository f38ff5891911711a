//! Benchmark harness: regenerates every figure of the paper's evaluation
//! (Figs. 8–21) against the in-process KerA cluster and the Kafka-style
//! baseline.
//!
//! - [`experiment`] — one experiment = one cluster + `P` producers + `C`
//!   consumers running the paper's workload (§V-A: non-keyed 100-byte
//!   records, `linger.ms = 1`, proxy producers sharing all streams, one
//!   request per broker in parallel), measured over a steady-state window
//!   that skips warm-up, then checked for delivery: the producers drain,
//!   every record is read back through `kera_client::oracle`, and a
//!   violation ends the figure run;
//! - [`workload`] — synthetic record generation;
//! - [`figures`] — each figure declared once: its sweep of §V-B/C/D as
//!   [`experiment::ExperimentConfig`]s, the paper's sentence, the claim
//!   checked with its tolerance, the verdict the committed results earn;
//! - [`check`] — grades a claim against a measured TSV (every effect a
//!   ratio inside one repeat, min–max over them, `Unresolved` inside it);
//! - [`report`] — the `figure` binary's verbs: run into a TSV, check,
//!   render `EXPERIMENTS.md`, list.
//!
//! Environment: the `figure harness` rows of `kera_common::knobs::TABLE`
//! (`KERA_MEASURE_MS`, `KERA_WARMUP_MS`, …). Absolute numbers depend on the host
//! (this is a single-process simulation, not Grid5000); the *shapes* are
//! what `EXPERIMENTS.md` tracks.

pub mod check;
pub mod experiment;
pub mod figures;
pub mod report;
pub mod workload;

pub use experiment::{ExperimentConfig, Measurement, StageSummary, SystemKind};
pub use figures::{all_figures, figure};
