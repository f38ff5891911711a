//! The paper's evaluation (§V, Figs. 8–21), each figure declared once.
//!
//! A [`Figure`] is the sweep (experiment points tagged with the series
//! and x-value the paper plots, following the figure captions), the
//! paper's sentence about it, the [`Claim`] this repo checks with its
//! tolerances, and the verdict the committed `results/` earn. This file
//! is the only index: `figure list` prints it, `figure check` grades it
//! (see [`crate::check`]), `figure report` renders it into
//! `EXPERIMENTS.md`.

use kera_common::config::VirtualLogPolicy;

use crate::check::Verdict;
use crate::experiment::{ExperimentConfig, SystemKind};

/// One experiment point of a figure.
#[derive(Clone, Debug)]
pub struct Point {
    /// Series label (legend entry), e.g. "KerA R3".
    pub series: String,
    /// X-axis value, e.g. "128" (streams) or "16p/64KB".
    pub x: String,
    pub cfg: ExperimentConfig,
}

/// What the paper says a figure shows, as data [`crate::check::verdict`]
/// grades. Series and x values are the labels the sweep gives its points;
/// every number is the tolerance of the claim it sits in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Claim {
    /// `num / den ≥ floor` at every x; with `grows`, the ratio at the last
    /// x is at least that factor above the ratio at the first.
    Ratio { num: &'static str, den: &'static str, floor: f64, grows: Option<f64> },
    /// Each series is above the next at every x.
    Ordering { series: &'static [&'static str] },
    /// At its best x, `of` reaches `min` × `over`.
    Gain { of: &'static str, over: &'static str, min: f64 },
    /// `series` at its best x reaches `min` × its last x (1.33: a quarter
    /// of the peak is lost by the end of the sweep).
    Drop { series: &'static str, min: f64 },
    /// `series` at its best x reaches `min` × its first x.
    Growth { series: &'static str, min: f64 },
    /// In every series, each of the `mid` xs reaches `floor` × the last x.
    Plateau { mid: &'static [&'static str], floor: f64 },
}

/// A reproducible figure.
#[derive(Clone, Debug)]
pub struct Figure {
    pub id: &'static str,
    pub title: &'static str,
    /// What the paper reports (caption and §V text).
    pub paper: &'static str,
    pub claim: Claim,
    /// What `claim` earns on the committed `results/<id>.tsv`. `figure
    /// check` fails when it earns anything else: change this line or
    /// explain the regression.
    pub declared: Verdict,
    pub points: Vec<Point>,
}

fn base() -> ExperimentConfig {
    ExperimentConfig::default()
}

const R123: [u32; 3] = [1, 2, 3];

/// KerA with 4 shared virtual logs per broker against one replicated log
/// per partition.
fn fig08() -> Figure {
    let mut points = Vec::new();
    for &streams in &[32u32, 64, 128, 256] {
        for &r in &R123 {
            for &system in &[SystemKind::Kafka, SystemKind::Kera] {
                let cfg = ExperimentConfig {
                    system,
                    producers: 4,
                    consumers: 0,
                    streams,
                    streamlets_per_stream: 1,
                    chunk_size: 1024,
                    replication_factor: r,
                    vlog_policy: VirtualLogPolicy::SharedPerBroker(4),
                    ..base()
                };
                let x = streams.to_string();
                points.push(Point { series: format!("{system} R{r}"), x, cfg });
            }
        }
    }
    Figure {
        id: "fig08",
        title: "Scaling the number of streams (Kafka vs KerA, chunk 1KB)",
        paper: "throughput grows with batching; R1>R2>R3; KerA (4 shared vlogs) beats Kafka \
                increasingly as streams grow (headline: up to 4x over hundreds of streams).",
        claim: Claim::Ratio { num: "KerA R3", den: "Kafka R3", floor: 1.0, grows: Some(1.1) },
        declared: Verdict::Holds,
        points,
    }
}

/// KerA configured like Kafka (one replicated log per partition) to
/// isolate active from passive replication.
fn fig09() -> Figure {
    let mut points = Vec::new();
    for &producers in &[4u32, 8, 16] {
        for &r in &R123 {
            for &system in &[SystemKind::Kafka, SystemKind::Kera] {
                let cfg = ExperimentConfig {
                    system,
                    producers,
                    consumers: 0,
                    streams: 128,
                    streamlets_per_stream: 1,
                    chunk_size: 16 * 1024,
                    replication_factor: r,
                    vlog_policy: VirtualLogPolicy::PerStreamlet,
                    ..base()
                };
                let x = format!("{producers}p");
                points.push(Point { series: format!("{system} R{r}"), x, cfg });
            }
        }
    }
    Figure {
        id: "fig09",
        title: "Scaling the number of clients (one log per partition)",
        paper: "KerA ~2x Kafka at 16 producers, R3 (active push vs passive pull needing tuning).",
        claim: Claim::Ratio { num: "KerA R3", den: "Kafka R3", floor: 1.5, grows: None },
        declared: Verdict::Unresolved,
        points,
    }
}

/// Consumers pull durable data while producers write.
fn fig10() -> Figure {
    let mut points = Vec::new();
    for &streams in &[64u32, 128, 256] {
        for (series, system, policy) in [
            ("Kafka", SystemKind::Kafka, VirtualLogPolicy::PerStreamlet),
            ("KerA 4 vlogs", SystemKind::Kera, VirtualLogPolicy::SharedPerBroker(4)),
            ("KerA 32 vlogs", SystemKind::Kera, VirtualLogPolicy::SharedPerBroker(32)),
        ] {
            let cfg = ExperimentConfig {
                system,
                producers: 4,
                consumers: 4,
                streams,
                streamlets_per_stream: 1,
                chunk_size: 1024,
                replication_factor: 3,
                vlog_policy: policy,
                ..base()
            };
            points.push(Point { series: series.into(), x: streams.to_string(), cfg });
        }
    }
    Figure {
        id: "fig10",
        title: "Low-latency configuration (R3, chunk 1KB, 4P+4C)",
        paper: "similar when configured identically; KerA up to 3x with fewer shared vlogs.",
        claim: Claim::Ratio { num: "KerA 4 vlogs", den: "Kafka", floor: 1.0, grows: Some(1.1) },
        declared: Verdict::Unresolved,
        points,
    }
}

/// KerA splits each partition into Q = 4 sub-partitions with a virtual
/// log apiece.
fn fig11() -> Figure {
    let mut points = Vec::new();
    for &producers in &[4u32, 8, 16] {
        for &chunk_kb in &[4usize, 16, 64] {
            for &system in &[SystemKind::Kafka, SystemKind::Kera] {
                let policy = VirtualLogPolicy::PerSubPartition;
                let cfg = one_stream(system, producers, chunk_kb, 3, policy);
                let x = format!("{producers}p/{chunk_kb}KB");
                points.push(Point { series: system.to_string(), x, cfg });
            }
        }
    }
    Figure {
        id: "fig11",
        title: "High-throughput configuration (R3, 32 partitions)",
        paper: "KerA up to 5x Kafka at R3 (32 partitions, Q=4 sub-partitions, 1 vlog each).",
        claim: Claim::Ratio { num: "KerA", den: "Kafka", floor: 2.0, grows: None },
        declared: Verdict::Unresolved,
        points,
    }
}

/// KerA only, 8P+8C, chunk 1 KB, `vlogs` shared virtual logs per broker.
fn shared_vlogs(streams: u32, r: u32, vlogs: u32) -> ExperimentConfig {
    ExperimentConfig {
        producers: 8,
        consumers: 8,
        streams,
        streamlets_per_stream: 1,
        chunk_size: 1024,
        replication_factor: r,
        vlog_policy: VirtualLogPolicy::SharedPerBroker(vlogs),
        ..base()
    }
}

fn fig12() -> Figure {
    let mut points = Vec::new();
    for &streams in &[64u32, 128, 256, 512] {
        for &r in &R123 {
            let cfg = shared_vlogs(streams, r, 1);
            points.push(Point { series: format!("R{r}"), x: streams.to_string(), cfg });
        }
    }
    Figure {
        id: "fig12",
        title: "KerA: one shared virtual log per broker",
        paper: "1 vlog can durably ingest 512 streams at R3 (~1.8M rec/s on 64 cores); \
                R1>R2>R3 at every stream count.",
        claim: Claim::Ordering { series: &["R1", "R2", "R3"] },
        declared: Verdict::Unresolved,
        points,
    }
}

fn fig13() -> Figure {
    let mut points = Vec::new();
    for &streams in &[128u32, 256, 512] {
        // 4 beside 1: the gain's two cells run back to back.
        for &vlogs in &[1u32, 4, 2] {
            let cfg = shared_vlogs(streams, 3, vlogs);
            points.push(Point { series: format!("{vlogs} vlogs"), x: streams.to_string(), cfg });
        }
    }
    Figure {
        id: "fig13",
        title: "Replication capacity 1/2/4 virtual logs (R3)",
        paper: "2-4 vlogs add ~30-40% over 1 vlog.",
        claim: Claim::Gain { of: "4 vlogs", over: "1 vlogs", min: 1.15 },
        declared: Verdict::Attenuated,
        points,
    }
}

/// Figs. 14–16: the number of shared virtual logs at a fixed stream count.
fn vlog_sweep(id: &'static str, title: &'static str, streams: u32, declared: Verdict) -> Figure {
    let mut points = Vec::new();
    for &vlogs in &[1u32, 2, 4, 8, 16, 32, 64] {
        for &r in &R123 {
            let cfg = shared_vlogs(streams, r, vlogs);
            points.push(Point { series: format!("R{r}"), x: vlogs.to_string(), cfg });
        }
    }
    Figure {
        id,
        title,
        paper: "throughput drops up to 40-50% when too many vlogs are configured.",
        claim: Claim::Drop { series: "R3", min: 1.33 },
        declared,
        points,
    }
}

/// Figs. 11 and 17–21: one stream of 32 streamlets, Q = 4 (on KerA; a
/// Kafka partition is one append chain), P = C = `clients`.
fn one_stream(
    system: SystemKind,
    clients: u32,
    chunk_kb: usize,
    r: u32,
    policy: VirtualLogPolicy,
) -> ExperimentConfig {
    ExperimentConfig {
        system,
        producers: clients,
        consumers: clients,
        streams: 1,
        streamlets_per_stream: 32,
        active_groups: 4,
        chunk_size: chunk_kb * 1024,
        replication_factor: r,
        vlog_policy: policy,
        ..base()
    }
}

/// Figs. 17–20: chunk size with one virtual log per sub-partition.
fn throughput_sweep(
    id: &'static str,
    title: &'static str,
    clients: u32,
    declared: Verdict,
) -> Figure {
    let mut points = Vec::new();
    for &chunk_kb in &[4usize, 8, 16, 32, 64] {
        for &r in &R123 {
            let policy = VirtualLogPolicy::PerSubPartition;
            let cfg = one_stream(SystemKind::Kera, clients, chunk_kb, r, policy);
            points.push(Point { series: format!("R{r}"), x: format!("{chunk_kb}KB"), cfg });
        }
    }
    Figure {
        id,
        title,
        paper: "throughput grows with chunk size; cluster peaks near 8-16 clients \
                (7-8.3M rec/s on the testbed), more clients add pressure.",
        claim: Claim::Growth { series: "R3", min: 1.3 },
        declared,
        points,
    }
}

fn fig21() -> Figure {
    let mut points = Vec::new();
    for &vlogs in &[1u32, 2, 4, 8, 16, 32] {
        for &chunk_kb in &[32usize, 64] {
            let policy = VirtualLogPolicy::SharedPerBroker(vlogs);
            let cfg = one_stream(SystemKind::Kera, 8, chunk_kb, 3, policy);
            points.push(Point { series: format!("{chunk_kb}KB"), x: vlogs.to_string(), cfg });
        }
    }
    Figure {
        id: "fig21",
        title: "Varying #virtual logs (32 streamlets, Q=4, R3)",
        paper: "8/16 vlogs slightly beat 32 at 32-64KB chunks (~+300K rec/s).",
        claim: Claim::Plateau { mid: &["8", "16"], floor: 0.9 },
        declared: Verdict::Holds,
        points,
    }
}

/// All fourteen figures, in paper order.
pub fn all_figures() -> Vec<Figure> {
    use Verdict::{Attenuated, Unresolved};
    vec![
        fig08(),
        fig09(),
        fig10(),
        fig11(),
        fig12(),
        fig13(),
        vlog_sweep("fig14", "128 streams, varying #virtual logs", 128, Unresolved),
        vlog_sweep("fig15", "256 streams, varying #virtual logs", 256, Attenuated),
        vlog_sweep("fig16", "512 streams, varying #virtual logs", 512, Attenuated),
        throughput_sweep("fig17", "One vlog per sub-partition, 4P+4C", 4, Attenuated),
        throughput_sweep("fig18", "One vlog per sub-partition, 8P+8C", 8, Attenuated),
        throughput_sweep("fig19", "One vlog per sub-partition, 16P+16C", 16, Unresolved),
        throughput_sweep("fig20", "One vlog per sub-partition, 32P+32C", 32, Attenuated),
        fig21(),
    ]
}

/// Looks a figure up by id ("fig08".."fig21").
pub fn figure(id: &str) -> Option<Figure> {
    all_figures().into_iter().find(|f| f.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_resolves() {
        assert_eq!(all_figures().len(), 14);
        assert!(figure("fig99").is_none());
        for f in all_figures() {
            assert!(!f.points.is_empty(), "{} has no points", f.id);
            for p in &f.points {
                assert!(p.cfg.producers > 0);
                assert!(p.cfg.replication_factor >= 1 && p.cfg.replication_factor <= 3);
            }
        }
    }

    /// At each x, the two cells a ratio divides run back to back, so the
    /// host drifts as little as it can between them.
    #[test]
    fn the_cells_a_claim_divides_are_adjacent_in_sweep_order() {
        for f in all_figures() {
            let pairs: Vec<(&str, &str)> = match f.claim {
                Claim::Ratio { num, den, .. } => vec![(num, den)],
                Claim::Gain { of, over, .. } => vec![(of, over)],
                Claim::Ordering { series } => series.windows(2).map(|w| (w[0], w[1])).collect(),
                _ => continue,
            };
            let index = |series: &str, x: &str| {
                f.points.iter().position(|p| p.series == series && p.x == x).unwrap()
            };
            for (a, b) in pairs {
                for p in f.points.iter().filter(|p| p.series == a) {
                    let gap = index(a, &p.x).abs_diff(index(b, &p.x));
                    assert_eq!(gap, 1, "{}: {a} and {b} @{} are {gap} points apart", f.id, p.x);
                }
            }
        }
    }

    #[test]
    fn fig08_compares_systems_across_replication() {
        let f = fig08();
        assert!(f.points.iter().any(|p| p.series.contains("Kafka R3")));
        assert!(f.points.iter().any(|p| p.series.contains("KerA R1")));
        // 4 stream counts x 3 factors x 2 systems.
        assert_eq!(f.points.len(), 24);
    }

    #[test]
    fn fig09_uses_per_streamlet_logs() {
        for p in fig09().points {
            if p.cfg.system == SystemKind::Kera {
                assert_eq!(p.cfg.vlog_policy, VirtualLogPolicy::PerStreamlet);
            }
        }
    }

    #[test]
    fn throughput_figs_use_subpartition_logs() {
        for id in ["fig17", "fig18", "fig19", "fig20"] {
            for p in &figure(id).unwrap().points {
                assert_eq!(p.cfg.vlog_policy, VirtualLogPolicy::PerSubPartition);
                assert_eq!(p.cfg.active_groups, 4);
                assert_eq!(p.cfg.streamlets_per_stream, 32);
            }
        }
    }
}
