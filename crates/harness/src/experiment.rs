//! One experiment: cluster + producers + consumers + steady-state
//! measurement (paper §V-A).

use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kera_broker::KeraCluster;
use kera_client::consumer::{Consumer, ConsumerConfig, Subscription};
use kera_client::producer::{Producer, ProducerConfig};
use kera_client::oracle::{stamp, Violation};
use kera_client::{MetadataClient, Oracle, Partitioner};
use kera_common::config::{
    ClusterConfig, CoordinatorConfig, ReplicationConfig, StreamConfig, VirtualLogPolicy,
};
use kera_common::ids::{ConsumerId, ProducerId, StreamId, StreamletId};
use kera_common::knobs;
use kera_common::metrics::ThroughputMeter;
use kera_common::{KeraError, Result};
use kera_kafka_sim::broker::KafkaTuning;
use kera_kafka_sim::KafkaCluster;
use kera_rpc::Fabric;

use crate::workload::RecordPool;

/// Which system under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemKind {
    /// KerA with virtual-log replication.
    Kera,
    /// The Kafka-style baseline (one replicated log per partition,
    /// passive pull replication).
    Kafka,
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemKind::Kera => write!(f, "KerA"),
            SystemKind::Kafka => write!(f, "Kafka"),
        }
    }
}

/// Record value size of every figure's workload, bytes.
const RECORD_SIZE: usize = 100;

/// Full description of one experiment point.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    pub system: SystemKind,
    pub brokers: u32,
    pub worker_threads: usize,
    pub producers: u32,
    pub consumers: u32,
    pub streams: u32,
    pub streamlets_per_stream: u32,
    /// `Q`: active groups (sub-partitions) per streamlet.
    pub active_groups: u32,
    pub chunk_size: usize,
    pub request_max_bytes: usize,
    pub linger: Duration,
    pub replication_factor: u32,
    /// Virtual-log association policy (KerA only).
    pub vlog_policy: VirtualLogPolicy,
    pub segment_size: usize,
    pub vseg_size: usize,
    /// The measurement window. Figure TSVs under `results/` are only
    /// comparable when measured with the default one; any override
    /// (`KERA_WARMUP_MS` / `KERA_MEASURE_MS`) marks the run as a smoke run,
    /// which [`crate::report::figure_main`] routes to `results/tmp/` so it
    /// can never clobber the committed reference results.
    pub warmup: Duration,
    pub measure: Duration,
    /// Cluster-wide observability (tracing + flight recorder). On by
    /// default; `KERA_OBS=0` turns it off for overhead comparisons.
    /// Metrics counters work either way.
    pub observability: bool,
    /// Coordinator replicas (KerA only; 1 = the historical single
    /// coordinator, 3 = the replicated metadata plane of DESIGN.md §10).
    /// `KERA_COORD_REPLICAS` overrides, so every figure harness run
    /// works unchanged against a replicated coordinator.
    pub coordinator_replicas: u32,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            system: SystemKind::Kera,
            brokers: 4,
            worker_threads: 3,
            producers: 4,
            consumers: 0,
            streams: 1,
            streamlets_per_stream: 1,
            active_groups: 1,
            chunk_size: 16 * 1024,
            request_max_bytes: 1 << 20,
            linger: Duration::from_millis(1),
            replication_factor: 3,
            vlog_policy: VirtualLogPolicy::SharedPerBroker(4),
            segment_size: 1 << 20,
            vseg_size: 1 << 20,
            warmup: Duration::from_millis(knobs::WARMUP_MS.get()),
            measure: Duration::from_millis(knobs::MEASURE_MS.get()),
            observability: knobs::OBS.is_on(),
            coordinator_replicas: knobs::COORD_REPLICAS.get() as u32,
        }
    }
}

impl ExperimentConfig {
    /// Stream configuration for stream `id` under this experiment.
    pub fn stream_config(&self, id: u32) -> StreamConfig {
        StreamConfig {
            id: StreamId(id),
            streamlets: self.streamlets_per_stream,
            // Kafka has no sub-partitions: a partition is always a single
            // append chain (Q is a KerA concept).
            active_groups: match self.system {
                SystemKind::Kera => self.active_groups,
                SystemKind::Kafka => 1,
            },
            segments_per_group: 16,
            segment_size: self.segment_size,
            replication: ReplicationConfig {
                factor: self.replication_factor,
                policy: self.vlog_policy,
                vseg_size: self.vseg_size,
            },
        }
    }
}

/// Latency summary of one pipeline stage, from the cluster-wide
/// `kera.trace.stage` histograms.
#[derive(Clone, Debug)]
pub struct StageSummary {
    pub stage: &'static str,
    pub count: u64,
    pub mean_us: f64,
    pub p99_us: f64,
}

/// The stages the report breaks a produce down into, pipeline order.
const BREAKDOWN_STAGES: [&str; 7] =
    ["rpc_call", "rpc_serve", "append", "replicate", "vlog_ship", "backup_write", "flush"];

/// Extracts the per-stage latency breakdown from a metrics snapshot
/// (stages with no samples are omitted).
pub fn stage_breakdown(snap: &kera_obs::RegistrySnapshot) -> Vec<StageSummary> {
    BREAKDOWN_STAGES
        .iter()
        .filter_map(|&stage| {
            let h = snap.histogram_sum("kera.trace.stage", &[("stage", stage)]);
            (h.count > 0).then(|| StageSummary {
                stage,
                count: h.count,
                mean_us: h.mean_ns() / 1e3,
                p99_us: h.quantile_ns(0.99) as f64 / 1e3,
            })
        })
        .collect()
}

/// What one experiment measured.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Aggregated acknowledged producer throughput, records/s.
    pub produce_rate: f64,
    /// Aggregated consumer throughput, records/s.
    pub consume_rate: f64,
    /// Aggregated producer goodput, bytes/s (chunk bytes).
    pub produce_bytes_rate: f64,
    /// Mean produce request latency, microseconds.
    pub mean_request_latency_us: f64,
    /// KerA only: replication RPC batches sent (per backup set).
    pub replication_batches: u64,
    /// KerA only: chunks those batches carried (consolidation =
    /// chunks / batches).
    pub replication_chunks: u64,
    /// Produce requests that failed terminally.
    pub failed_requests: u64,
    /// Writes the run made under its directory, warm-up and teardown
    /// included: on KerA one file per closed virtual segment (the
    /// backups' flushers), on Kafka one append per produced chunk on a
    /// leader and per fetch result with data on a follower.
    pub storage_writes: u64,
    /// Bytes those writes carried (bytes / writes: how large an I/O is).
    pub storage_bytes: u64,
    /// Per-stage latency breakdown (client call → broker append →
    /// replicate wait → vlog ship → backup write → flush), empty when
    /// observability is off.
    pub stages: Vec<StageSummary>,
}

impl Measurement {
    /// Million records per second — the unit of every figure.
    pub fn mrecords_per_sec(&self) -> f64 {
        self.produce_rate / 1e6
    }

    /// Chunks shipped per replication RPC (KerA's consolidation factor).
    pub fn consolidation(&self) -> f64 {
        if self.replication_batches == 0 {
            0.0
        } else {
            self.replication_chunks as f64 / self.replication_batches as f64
        }
    }
}

/// Names every per-run directory of this process: `<temp>/kera-run-<pid>-<n>`.
pub const RUN_DIR_PREFIX: &str = "kera-run-";

/// A run's `flush_dir`, removed when dropped: after [`measure_on`] has
/// dropped the cluster, which joins its flushers and fetchers.
struct RunDir(std::path::PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes and bytes the nodes wrote (`kera.storage.*`) once every writer
/// has been joined; an error names the first node a write or sync failed
/// on (a full disk must not pass for a measurement).
fn written(nodes: &[Arc<kera_obs::NodeObs>]) -> Result<(u64, u64)> {
    let (mut writes, mut bytes) = (0, 0);
    for obs in nodes {
        let snap = obs.registry().snapshot();
        let errors = snap.counter_sum("kera.storage.errors", &[]);
        if errors > 0 {
            let why = format!("node {}: {errors} storage writes failed", obs.node());
            return Err(kera_common::KeraError::Io(std::io::Error::other(why)));
        }
        writes += snap.counter_sum("kera.storage.writes", &[]);
        bytes += snap.counter_sum("kera.storage.write_bytes", &[]);
    }
    Ok((writes, bytes))
}

/// How long the producers may take to drain once the sources stop, and
/// the readers to read what they drained.
const DRAIN: Duration = Duration::from_secs(30);

/// What the readers of a point have read together, and the target they
/// read to: set once the producers drained (0 if they did not).
struct ReadBack {
    records: AtomicU64,
    target: AtomicU64,
}

impl ReadBack {
    /// Checks every batch `consumer` delivers with an oracle of its own
    /// and counts it into `consumed`, until the readers have the target
    /// or `DRAIN` has passed since it was set.
    fn sink(
        &self,
        consumer: &Consumer,
        consumed: &ThroughputMeter,
    ) -> std::result::Result<Oracle, Violation> {
        let (mut oracle, mut deadline) = (Oracle::default(), None);
        loop {
            let target = self.target.load(Ordering::SeqCst);
            if target != u64::MAX {
                let by = *deadline.get_or_insert_with(|| Instant::now() + DRAIN);
                if self.records.load(Ordering::SeqCst) >= target || Instant::now() >= by {
                    return Ok(oracle);
                }
            }
            let Some(batch) = consumer.next_batch(Duration::from_millis(20)) else { continue };
            let records = oracle.observe(&batch)?;
            consumed.record(records, batch.data.len() as u64);
            self.records.fetch_add(records, Ordering::SeqCst);
        }
    }
}

/// Runs one experiment point and returns its measurement.
pub fn run_experiment(cfg: &ExperimentConfig) -> Result<Measurement> {
    Ok(measure(cfg)?.0)
}

/// [`run_experiment`], plus the cluster-wide metrics it read its stage
/// breakdown from.
pub fn measure(cfg: &ExperimentConfig) -> Result<(Measurement, kera_obs::RegistrySnapshot)> {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let n = RUNS.fetch_add(1, Ordering::Relaxed);
    let name = format!("{RUN_DIR_PREFIX}{}-{n}", std::process::id());
    let run_dir = RunDir(std::env::temp_dir().join(name));
    let cluster_cfg = ClusterConfig {
        brokers: cfg.brokers,
        worker_threads: cfg.worker_threads,
        flush_dir: Some(run_dir.0.clone()),
        observability: cfg.observability,
        coordinator: CoordinatorConfig {
            replicas: cfg.coordinator_replicas,
            ..CoordinatorConfig::default()
        },
        ..ClusterConfig::default()
    };
    let measured = match cfg.system {
        SystemKind::Kera => measure_on(cfg, KeraCluster::start(cluster_cfg)?),
        SystemKind::Kafka => {
            measure_on(cfg, KafkaCluster::start(cluster_cfg, KafkaTuning::default())?)
        }
    };
    drop(run_dir);

    // Hand freed arena pages back to the OS: a sweep runs dozens of
    // experiments in one process, and glibc otherwise accumulates each
    // point's high-water mark until the OOM killer intervenes.
    // SAFETY: malloc_trim is a glibc extension with no preconditions —
    // it only releases unused arena pages back to the OS and is safe to
    // call from any thread at any time; the declaration matches the
    // glibc prototype `int malloc_trim(size_t pad)`.
    #[cfg(target_env = "gnu")]
    unsafe {
        unsafe extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        malloc_trim(0);
    }
    measured
}

/// Drives one experiment point on a booted cluster of either system and
/// tears the cluster down (dropping it runs the system's own shutdown).
fn measure_on<C: Deref<Target = Fabric>>(
    cfg: &ExperimentConfig,
    cluster: C,
) -> Result<(Measurement, kera_obs::RegistrySnapshot)> {
    // Create all streams through one admin client.
    let admin_rt = cluster.client(cfg.producers + cfg.consumers);
    let admin = MetadataClient::with_replicas(admin_rt.client(), cluster.coordinators());
    let stream_ids: Vec<StreamId> = (1..=cfg.streams).map(StreamId).collect();
    for &s in &stream_ids {
        admin.create_stream(cfg.stream_config(s.raw()))?;
    }

    let stop = Arc::new(AtomicBool::new(false));

    // Producers: proxy clients sharing all streams (§V-A), one source
    // thread each, records spread round-robin over streams and, inside a
    // stream, over streamlets by the partitioner.
    let mut producers = Vec::new();
    let mut producer_rts = Vec::new();
    for p in 0..cfg.producers {
        let rt = cluster.client(p);
        let meta = MetadataClient::with_replicas(rt.client(), cluster.coordinators());
        let producer = Arc::new(Producer::new(
            &meta,
            &stream_ids,
            ProducerConfig {
                id: ProducerId(p),
                chunk_size: cfg.chunk_size,
                request_max_bytes: cfg.request_max_bytes,
                linger: cfg.linger,
                partitioner: Partitioner::RoundRobin,
                // Bound queued-but-unsent data to ~8 MB per producer so a
                // slow configuration cannot balloon memory or stretch
                // teardown.
                queue_capacity: ((8 << 20) / cfg.chunk_size).clamp(16, 2000),
                ..ProducerConfig::default()
            },
        )?);
        producers.push(producer);
        producer_rts.push(rt);
    }
    // Once stopped, a source flushes its producer and reports, per
    // stream, how many records it stamped.
    let (drained_tx, drained) = std::sync::mpsc::channel();
    let source_threads: Vec<_> = producers
        .iter()
        .enumerate()
        .map(|(p, producer)| {
            let producer = Arc::clone(producer);
            let stop = Arc::clone(&stop);
            let streams = stream_ids.clone();
            let drained_tx = drained_tx.clone();
            std::thread::Builder::new()
                .name(format!("source-{p}"))
                .spawn(move || {
                    let mut pool = RecordPool::new(64, RECORD_SIZE, 0x5eed + p as u64);
                    let mut sent = vec![0u64; streams.len()];
                    let mut i = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let k = i % streams.len();
                        i += 1;
                        let value = pool.next();
                        stamp(value, sent[k]);
                        if producer.send(streams[k], value).is_err() {
                            break;
                        }
                        sent[k] += 1;
                    }
                    let _ = drained_tx.send((ProducerId(p as u32), sent, producer.flush()));
                })
                .expect("spawn source")
        })
        .collect();

    // Consumers: divide all (stream, streamlet) pairs round-robin.
    let mut consumers = Vec::new();
    let mut consumer_rts = Vec::new();
    if cfg.consumers > 0 {
        let mut pairs: Vec<(StreamId, StreamletId)> = Vec::new();
        for &s in &stream_ids {
            for sl in 0..cfg.streamlets_per_stream {
                pairs.push((s, StreamletId(sl)));
            }
        }
        for c in 0..cfg.consumers {
            let rt = cluster.client(cfg.producers + c);
            let meta = MetadataClient::with_replicas(rt.client(), cluster.coordinators());
            let mut by_stream: std::collections::HashMap<StreamId, Vec<StreamletId>> =
                std::collections::HashMap::new();
            for (i, &(s, sl)) in pairs.iter().enumerate() {
                if i as u32 % cfg.consumers == c {
                    by_stream.entry(s).or_default().push(sl);
                }
            }
            let subs: Vec<Subscription> = by_stream
                .into_iter()
                .map(|(stream, streamlets)| Subscription { stream, streamlets: Some(streamlets), start: Vec::new() })
                .collect();
            if subs.is_empty() {
                continue;
            }
            let consumer = Consumer::new(
                &meta,
                &subs,
                ConsumerConfig {
                    id: ConsumerId(c),
                    fetch_max_bytes: cfg.chunk_size as u32,
                    cache_capacity: 1000,
                },
            )?;
            // Each consumer with the meter its sink counts into.
            consumers.push(Arc::new((consumer, ThroughputMeter::new())));
            consumer_rts.push(rt);
        }
    }
    let read = ReadBack { records: AtomicU64::new(0), target: AtomicU64::new(u64::MAX) };
    let read = Arc::new(read);
    let sink_threads: Vec<_> = consumers
        .iter()
        .enumerate()
        .map(|(c, consumer)| {
            let consumer = Arc::clone(consumer);
            let read = Arc::clone(&read);
            std::thread::Builder::new()
                .name(format!("sink-{c}"))
                .spawn(move || read.sink(&consumer.0, &consumer.1))
                .expect("spawn sink")
        })
        .collect();

    // Warm up, then open the measurement window on every meter
    // ("without considering each client's first few seconds", §V-A).
    std::thread::sleep(cfg.warmup);
    for p in &producers {
        p.metrics().start_window();
    }
    for c in &consumers {
        c.1.start_window();
    }
    std::thread::sleep(cfg.measure);

    // Read rates before tearing anything down.
    let mut produce_rate = 0.0;
    let mut produce_bytes_rate = 0.0;
    let mut failed_requests = 0;
    let mut latency_sum = 0.0;
    for p in &producers {
        if let Some((r, b)) = p.metrics().rates() {
            produce_rate += r;
            produce_bytes_rate += b;
        }
        failed_requests += p.failed_requests();
        latency_sum += p.request_latency().mean_ns() / 1e3;
    }
    let mean_request_latency_us = latency_sum / cfg.producers.max(1) as f64;
    let mut consume_rate = 0.0;
    for c in &consumers {
        if let Some((r, _)) = c.1.rates() {
            consume_rate += r;
        }
    }
    // Cluster-wide metrics and the per-stage latency breakdown, read
    // before teardown so every node's registry is still alive. A Kafka
    // cluster has no virtual logs, so its replication counts read 0.
    let snapshot = cluster.metrics_snapshot();
    let stages = stage_breakdown(&snapshot);
    let replication_batches = snapshot.counter_sum("kera.vlog.batches_sent", &[]);
    let replication_chunks = snapshot.counter_sum("kera.vlog.chunks_replicated", &[]);

    // Check delivery: the producers drain what their sources stamped
    // within `DRAIN`, the sinks (or one read-back consumer) read all of
    // it, and the oracle settles; a point that does not is an error.
    stop.store(true, Ordering::SeqCst);
    let (mut oracle, by) = (Oracle::default(), Instant::now() + DRAIN);
    let expected: Result<u64> = (0..cfg.producers).try_fold(0, |total, _| {
        let within = by.saturating_duration_since(Instant::now());
        let timeout = |_| KeraError::Timeout { op: "producer drain" };
        let (producer, sent, flushed) = drained.recv_timeout(within).map_err(timeout)?;
        flushed?;
        if let failed @ 1.. = producers[producer.raw() as usize].failed_requests() {
            return Err(KeraError::Protocol(format!("{producer}: {failed} requests failed")));
        }
        for (&stream, &n) in stream_ids.iter().zip(&sent) {
            oracle.expect(stream, producer, n);
        }
        Ok(total + sent.iter().sum::<u64>())
    });
    read.target.store(*expected.as_ref().unwrap_or(&0), Ordering::SeqCst);
    let sunk: Vec<_> = sink_threads.into_iter().map(|t| t.join().expect("sink")).collect();
    expected?;
    for sink in sunk {
        oracle.merge(sink?)?;
    }
    if consumers.is_empty() {
        let whole: Vec<_> = stream_ids.iter().map(|&s| Subscription::whole_stream(s)).collect();
        let reader = Consumer::new(&admin, &whole, ConsumerConfig::default())?;
        oracle.merge(read.sink(&reader, &ThroughputMeter::new())?)?;
    }
    oracle.settle()?;
    for t in source_threads {
        let _ = t.join();
    }
    drop(consumers);
    for p in producers {
        if let Ok(p) = Arc::try_unwrap(p) {
            p.abort(); // drained: nothing is left to drop
        }
    }
    let nodes = cluster.node_obs().to_vec();
    drop(cluster);
    let (storage_writes, storage_bytes) = written(&nodes)?;

    let m = Measurement {
        produce_rate,
        consume_rate,
        produce_bytes_rate,
        mean_request_latency_us,
        replication_batches,
        replication_chunks,
        failed_requests,
        storage_writes,
        storage_bytes,
        stages,
    };
    Ok((m, snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cfg: &mut ExperimentConfig) {
        cfg.warmup = Duration::from_millis(150);
        cfg.measure = Duration::from_millis(400);
        cfg.brokers = 2;
        cfg.producers = 2;
        cfg.worker_threads = 2;
    }

    #[test]
    fn kera_experiment_produces_and_reports() {
        let mut cfg = ExperimentConfig {
            streams: 4,
            replication_factor: 2,
            chunk_size: 1024,
            ..ExperimentConfig::default()
        };
        quick(&mut cfg);
        let (m, snap) = measure(&cfg).unwrap();
        assert!(m.produce_rate > 0.0, "no throughput measured: {m:?}");
        assert_eq!(m.failed_requests, 0);
        assert!(m.replication_batches > 0);
        assert!(m.consolidation() >= 1.0);
        // Observability is on by default: the trace histograms must
        // yield a per-stage breakdown covering the produce pipeline.
        let stages: Vec<&str> = m.stages.iter().map(|s| s.stage).collect();
        for want in ["rpc_call", "append", "replicate", "vlog_ship", "backup_write"] {
            assert!(stages.contains(&want), "missing stage {want} in {stages:?}");
        }
        assert!(snap.counter_sum("kera.broker.records_in", &[]) > 0, "brokers counted no record");
    }

    /// Acceptance for DESIGN.md §10: the figure harness runs unchanged
    /// against a 3-replica coordinator — stream creation and metadata
    /// lookups route to whichever replica leads, and throughput is
    /// measured exactly as in single-coordinator mode.
    #[test]
    fn kera_experiment_runs_against_replicated_coordinator() {
        let mut cfg = ExperimentConfig {
            streams: 2,
            replication_factor: 2,
            chunk_size: 1024,
            coordinator_replicas: 3,
            ..ExperimentConfig::default()
        };
        quick(&mut cfg);
        let m = run_experiment(&cfg).unwrap();
        assert!(m.produce_rate > 0.0, "no throughput with replicated coordinator: {m:?}");
        assert_eq!(m.failed_requests, 0);
    }

    #[test]
    fn observability_off_yields_no_stage_breakdown() {
        let mut cfg = ExperimentConfig {
            replication_factor: 2,
            chunk_size: 1024,
            observability: false,
            ..ExperimentConfig::default()
        };
        quick(&mut cfg);
        let (m, snap) = measure(&cfg).unwrap();
        assert!(m.produce_rate > 0.0);
        assert!(m.stages.is_empty(), "no spans with obs off: {:?}", m.stages);
        // Counters are registry-backed and keep working regardless.
        assert!(snap.counter_sum("kera.broker.records_in", &[]) > 0);
    }

    #[test]
    fn kafka_experiment_with_consumers() {
        let mut cfg = ExperimentConfig {
            system: SystemKind::Kafka,
            streams: 2,
            consumers: 2,
            replication_factor: 2,
            chunk_size: 1024,
            ..ExperimentConfig::default()
        };
        quick(&mut cfg);
        let m = run_experiment(&cfg).unwrap();
        assert!(m.produce_rate > 0.0);
        assert!(m.consume_rate > 0.0, "consumers saw nothing: {m:?}");
        assert_eq!(m.failed_requests, 0);
    }

    #[test]
    fn r1_has_no_replication_batches() {
        let mut cfg = ExperimentConfig {
            streams: 2,
            replication_factor: 1,
            chunk_size: 1024,
            ..ExperimentConfig::default()
        };
        quick(&mut cfg);
        let m = run_experiment(&cfg).unwrap();
        assert!(m.produce_rate > 0.0);
        assert_eq!(m.replication_batches, 0);
    }
}
