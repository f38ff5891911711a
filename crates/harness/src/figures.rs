//! The per-figure parameter sweeps of the paper's evaluation (§V).
//!
//! Every figure of the paper maps to a [`Figure`]: a list of experiment
//! points, each tagged with the series and x-value the paper plots.
//! `DESIGN.md` §4 is the authoritative index; the configurations here
//! follow the figure captions.


use kera_common::config::VirtualLogPolicy;

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

/// A reproducible figure.
#[derive(Clone, Debug)]
pub struct Figure {
    pub id: &'static str,
    pub title: &'static str,
    pub points: Vec<Point>,
}

fn base() -> ExperimentConfig {
    ExperimentConfig::default()
}

/// Fig. 8: scaling the number of streams — Kafka vs KerA, 4 producers,
/// chunk 1 KB, one partition per stream, KerA with 4 shared virtual logs
/// per broker, R1/R2/R3.
pub fn fig08() -> Figure {
    let mut points = Vec::new();
    for &streams in &[32u32, 64, 128, 256] {
        for &r in &[1u32, 2, 3] {
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
                points.push(Point { series: format!("{system} R{r}"), x: streams.to_string(), cfg });
            }
        }
    }
    Figure { id: "fig08", title: "Scaling the number of streams (Kafka vs KerA, chunk 1KB)", points }
}

/// Fig. 9: scaling the number of clients — 128 streams, chunk 16 KB,
/// producers 4/8/16, R1/R2/R3; KerA configured like Kafka (one replicated
/// log per partition) to isolate active vs passive replication.
pub fn fig09() -> Figure {
    let mut points = Vec::new();
    for &producers in &[4u32, 8, 16] {
        for &r in &[1u32, 2, 3] {
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
                points.push(Point {
                    series: format!("{system} R{r}"),
                    x: format!("{producers}p"),
                    cfg,
                });
            }
        }
    }
    Figure { id: "fig09", title: "Scaling the number of clients (one log per partition)", points }
}

/// Fig. 10: low-latency configuration — chunk 1 KB, R3, 4 producers + 4
/// consumers; Kafka vs KerA with 4 and 32 shared virtual logs per broker.
pub fn fig10() -> Figure {
    let mut points = Vec::new();
    for &streams in &[64u32, 128, 256] {
        let variants: Vec<(String, SystemKind, VirtualLogPolicy)> = vec![
            ("Kafka".into(), SystemKind::Kafka, VirtualLogPolicy::PerStreamlet),
            ("KerA 4 vlogs".into(), SystemKind::Kera, VirtualLogPolicy::SharedPerBroker(4)),
            ("KerA 32 vlogs".into(), SystemKind::Kera, VirtualLogPolicy::SharedPerBroker(32)),
        ];
        for (series, system, policy) in variants {
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
            points.push(Point { series, x: streams.to_string(), cfg });
        }
    }
    Figure { id: "fig10", title: "Low-latency configuration (R3, chunk 1KB, 4P+4C)", points }
}

/// Fig. 11: high-throughput configuration — one stream with 32
/// partitions (KerA: 32 streamlets × 4 sub-partitions, one virtual log
/// per sub-partition), R3, varying producers and chunk size.
pub fn fig11() -> Figure {
    let mut points = Vec::new();
    for &producers in &[4u32, 8, 16] {
        for &chunk_kb in &[4usize, 16, 64] {
            for &system in &[SystemKind::Kafka, SystemKind::Kera] {
                let cfg = ExperimentConfig {
                    system,
                    producers,
                    consumers: producers,
                    streams: 1,
                    streamlets_per_stream: 32,
                    active_groups: 4,
                    chunk_size: chunk_kb * 1024,
                    replication_factor: 3,
                    vlog_policy: VirtualLogPolicy::PerSubPartition,
                    ..base()
                };
                points.push(Point {
                    series: system.to_string(),
                    x: format!("{producers}p/{chunk_kb}KB"),
                    cfg,
                });
            }
        }
    }
    Figure { id: "fig11", title: "High-throughput configuration (R3, 32 partitions)", points }
}

/// Fig. 12: scaling the number of streams in KerA — ONE shared virtual
/// log per broker for up to 512 streams, R1/R2/R3, 8P+8C, chunk 1 KB.
pub fn fig12() -> Figure {
    let mut points = Vec::new();
    for &streams in &[64u32, 128, 256, 512] {
        for &r in &[1u32, 2, 3] {
            let cfg = ExperimentConfig {
                producers: 8,
                consumers: 8,
                streams,
                streamlets_per_stream: 1,
                chunk_size: 1024,
                replication_factor: r,
                vlog_policy: VirtualLogPolicy::SharedPerBroker(1),
                ..base()
            };
            points.push(Point { series: format!("R{r}"), x: streams.to_string(), cfg });
        }
    }
    Figure { id: "fig12", title: "KerA: one shared virtual log per broker", points }
}

/// Fig. 13: increasing the replication capacity (1/2/4 shared virtual
/// logs per broker) while scaling streams; R3, 8P+8C, chunk 1 KB.
pub fn fig13() -> Figure {
    let mut points = Vec::new();
    for &vlogs in &[1u32, 2, 4] {
        for &streams in &[128u32, 256, 512] {
            let cfg = ExperimentConfig {
                producers: 8,
                consumers: 8,
                streams,
                streamlets_per_stream: 1,
                chunk_size: 1024,
                replication_factor: 3,
                vlog_policy: VirtualLogPolicy::SharedPerBroker(vlogs),
                ..base()
            };
            points.push(Point { series: format!("{vlogs} vlogs"), x: streams.to_string(), cfg });
        }
    }
    Figure { id: "fig13", title: "Replication capacity 1/2/4 virtual logs (R3)", points }
}

fn vlog_sweep(id: &'static str, title: &'static str, streams: u32) -> Figure {
    let mut points = Vec::new();
    for &vlogs in &[1u32, 2, 4, 8, 16, 32, 64] {
        for &r in &[1u32, 2, 3] {
            let cfg = ExperimentConfig {
                producers: 8,
                consumers: 8,
                streams,
                streamlets_per_stream: 1,
                chunk_size: 1024,
                replication_factor: r,
                vlog_policy: VirtualLogPolicy::SharedPerBroker(vlogs),
                ..base()
            };
            points.push(Point { series: format!("R{r}"), x: vlogs.to_string(), cfg });
        }
    }
    Figure { id, title, points }
}

/// Fig. 14: 128 streams, varying the number of virtual logs.
pub fn fig14() -> Figure {
    vlog_sweep("fig14", "128 streams, varying #virtual logs", 128)
}

/// Fig. 15: 256 streams, varying the number of virtual logs.
pub fn fig15() -> Figure {
    vlog_sweep("fig15", "256 streams, varying #virtual logs", 256)
}

/// Fig. 16: 512 streams, varying the number of virtual logs.
pub fn fig16() -> Figure {
    vlog_sweep("fig16", "512 streams, varying #virtual logs", 512)
}

fn throughput_sweep(id: &'static str, title: &'static str, clients: u32) -> Figure {
    let mut points = Vec::new();
    for &chunk_kb in &[4usize, 8, 16, 32, 64] {
        for &r in &[1u32, 2, 3] {
            let cfg = ExperimentConfig {
                producers: clients,
                consumers: clients,
                streams: 1,
                streamlets_per_stream: 32,
                active_groups: 4,
                chunk_size: chunk_kb * 1024,
                replication_factor: r,
                vlog_policy: VirtualLogPolicy::PerSubPartition,
                ..base()
            };
            points.push(Point { series: format!("R{r}"), x: format!("{chunk_kb}KB"), cfg });
        }
    }
    Figure { id, title, points }
}

/// Fig. 17: one virtual log per sub-partition, 4P+4C, chunk size sweep.
pub fn fig17() -> Figure {
    throughput_sweep("fig17", "One vlog per sub-partition, 4P+4C", 4)
}

/// Fig. 18: one virtual log per sub-partition, 8P+8C.
pub fn fig18() -> Figure {
    throughput_sweep("fig18", "One vlog per sub-partition, 8P+8C", 8)
}

/// Fig. 19: one virtual log per sub-partition, 16P+16C.
pub fn fig19() -> Figure {
    throughput_sweep("fig19", "One vlog per sub-partition, 16P+16C", 16)
}

/// Fig. 20: one virtual log per sub-partition, 32P+32C.
pub fn fig20() -> Figure {
    throughput_sweep("fig20", "One vlog per sub-partition, 32P+32C", 32)
}

/// Fig. 21: varying the number of virtual logs for one 32-streamlet
/// stream (Q=4), chunk 32/64 KB, R3, 8P+8C.
pub fn fig21() -> Figure {
    let mut points = Vec::new();
    for &vlogs in &[1u32, 2, 4, 8, 16, 32] {
        for &chunk_kb in &[32usize, 64] {
            let cfg = ExperimentConfig {
                producers: 8,
                consumers: 8,
                streams: 1,
                streamlets_per_stream: 32,
                active_groups: 4,
                chunk_size: chunk_kb * 1024,
                replication_factor: 3,
                vlog_policy: VirtualLogPolicy::SharedPerBroker(vlogs),
                ..base()
            };
            points.push(Point { series: format!("{chunk_kb}KB"), x: vlogs.to_string(), cfg });
        }
    }
    Figure { id: "fig21", title: "Varying #virtual logs (32 streamlets, Q=4, R3)", points }
}

/// Looks a figure up by id ("fig08".."fig21").
pub fn figure(id: &str) -> Option<Figure> {
    Some(match id {
        "fig08" => fig08(),
        "fig09" => fig09(),
        "fig10" => fig10(),
        "fig11" => fig11(),
        "fig12" => fig12(),
        "fig13" => fig13(),
        "fig14" => fig14(),
        "fig15" => fig15(),
        "fig16" => fig16(),
        "fig17" => fig17(),
        "fig18" => fig18(),
        "fig19" => fig19(),
        "fig20" => fig20(),
        "fig21" => fig21(),
        _ => return None,
    })
}

/// All fourteen figures, in paper order.
pub fn all_figures() -> Vec<Figure> {
    ["fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
        "fig18", "fig19", "fig20", "fig21"]
        .iter()
        .map(|id| figure(id).unwrap())
        .collect()
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
        for f in [fig17(), fig18(), fig19(), fig20()] {
            for p in &f.points {
                assert_eq!(p.cfg.vlog_policy, VirtualLogPolicy::PerSubPartition);
                assert_eq!(p.cfg.active_groups, 4);
                assert_eq!(p.cfg.streamlets_per_stream, 32);
            }
        }
    }
}
