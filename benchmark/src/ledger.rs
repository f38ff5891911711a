//! The per-layer ledger: probe results, what the traced rounds read from
//! the program's public counters and histograms, the benchmark's own
//! spans, and the budget that sets the layers against the end-to-end
//! CPU cost of a record.

use crate::adapter::{HistogramSnapshot, RegistrySnapshot};
use crate::loadgen::RECORD_BYTES;
use crate::probes::Probed;
use crate::report::{self, Metric};
use crate::spans::fold_by_name;
use crate::stats::{histogram_quantile_ns, percentile, window_percentile_median};
use crate::workload::{ConsumerRole, Load, Round, Spec};

/// The shape of the traffic the traced rounds observed; the probes are
/// fed inputs of this shape.
pub struct Shape {
    /// Records per chunk as produced.
    pub records_per_chunk: f64,
    /// Chunks per produce request.
    pub chunks_per_request: f64,
    /// Chunks per replication batch (0 at R1).
    pub chunks_per_batch: f64,
    /// Records per chunk as consumed (on `catchup-read` mostly the full
    /// chunks of the preload, not the paced producer's thin ones).
    pub records_per_fetched_chunk: f64,
    /// Chunks per fetch request, all slots of the request together.
    pub chunks_per_fetch: f64,
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Registry deltas of all traced rounds, merged.
pub fn merged_registry(traced: &[Round]) -> RegistrySnapshot {
    let mut all = RegistrySnapshot::default();
    for r in traced.iter().filter_map(|r| r.registry.as_ref()) {
        all.merge(r);
    }
    all
}

pub fn observed_shape(spec: &Spec, traced: &[Round], reg: &RegistrySnapshot) -> Shape {
    let sum = |f: fn(&Round) -> u64| traced.iter().map(f).sum::<u64>();
    let chunks_in = reg.counter_sum("kera.broker.chunks_in", &[]);
    let full_chunk = ((spec.chunk_size - 48) / crate::loadgen::ENCODED_RECORD_BYTES) as f64;
    let fetched_chunk_bytes = ratio(sum(|r| r.polled_bytes), sum(|r| r.polled_chunks)).max(1.0);
    let bytes_per_fetch = ratio(
        reg.counter_sum("kera.broker.bytes_fetched", &[]),
        reg.counter_sum("kera.broker.fetches", &[]),
    );
    Shape {
        records_per_chunk: if chunks_in > 0 {
            ratio(reg.counter_sum("kera.broker.records_in", &[]), chunks_in)
        } else {
            full_chunk
        },
        chunks_per_request: ratio(
            chunks_in,
            reg.histogram_sum("kera.client.request_latency", &[]).count,
        )
        .max(1.0),
        chunks_per_batch: ratio(
            reg.counter_sum("kera.vlog.chunks_replicated", &[]),
            reg.counter_sum("kera.vlog.batches_sent", &[]),
        ),
        records_per_fetched_chunk: ratio(sum(|r| r.polled_records), sum(|r| r.polled_chunks))
            .max(1.0),
        chunks_per_fetch: (bytes_per_fetch / fetched_chunk_bytes).max(1.0),
    }
}

fn stage(reg: &RegistrySnapshot, stage: &str) -> HistogramSnapshot {
    reg.histogram_sum("kera.trace.stage", &[("stage", stage)])
}

fn us(h: &HistogramSnapshot, q: f64) -> Option<f64> {
    histogram_quantile_ns(h, q).map(|ns| ns / 1e3)
}

/// The lock class with the worst p99 wait: (class, p99 in µs).
fn worst_lock(reg: &RegistrySnapshot) -> Option<(String, f64)> {
    reg.histograms
        .iter()
        .filter(|(k, _)| k.name == "kera.lock.wait")
        .filter_map(|(k, h)| {
            let class = k.labels.iter().find(|(l, _)| l == "class")?.1.clone();
            Some((class, us(h, 0.99)?))
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

/// CPU one record costs in the probed layers along its path, in µs.
///
/// Produce path, per chunk: pack, one round trip shared by the request's
/// chunks, the broker's produce handler (unpack, append), and at R > 1
/// the virtual-log append and ship plus, per backup copy, the backup
/// write and one round trip shared by the batch's chunks. Per record on
/// top: the chunk build (which includes the record encode). Consume
/// path, per chunk: the broker's fetch handler, a round trip shared by
/// the fetch's chunks, and the consumer-side checksum. A round trip
/// counts with the process CPU the rpc probe saw it cost, not with its
/// latency.
fn budget_us_per_rec(spec: &Spec, shape: &Shape, p: &Probed) -> f64 {
    let rtt_ns = if spec.tcp {
        p.tcp_cpu_us_per_call
    } else {
        p.inmem_cpu_us_per_call
    } * 1e3;
    let chunk_kb = spec.chunk_size as f64 / 1024.0;
    let mut produce_chunk = p.request_pack_ns_per_chunk
        + rtt_ns / shape.chunks_per_request
        + p.broker_produce_ns_per_chunk;
    if spec.factor > 1 {
        let copies = f64::from(spec.factor - 1);
        produce_chunk += p.vlog_append_ns_per_chunk.unwrap_or(0.0)
            + p.vlog_ship_ns_per_chunk.unwrap_or(0.0)
            + copies
                * (p.backup_write_ns_per_chunk.unwrap_or(0.0)
                    + rtt_ns / shape.chunks_per_batch.max(1.0));
    }
    let produce = p.chunk_build_ns_per_rec + produce_chunk / shape.records_per_chunk;
    let consume = (p.broker_fetch_ns_per_chunk
        + rtt_ns / shape.chunks_per_fetch
        + p.chunk_verify_ns_per_kb * chunk_kb)
        / shape.records_per_fetched_chunk;
    let ns = match spec.consumer {
        ConsumerRole::None => produce,
        ConsumerRole::Tail => produce + consume,
        // CPU is counted per consumed record there; the paced producer
        // beside it adds next to nothing to each.
        ConsumerRole::Catchup => consume,
    };
    ns / 1e3
}

/// Every per-layer metric, in the order BENCHMARK.json lists them.
pub fn per_layer(
    spec: &Spec,
    untraced: &[Round],
    traced: &[Round],
    reg: &RegistrySnapshot,
    shape: &Shape,
    p: &Probed,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let replicated = spec.factor > 1;
    let when_replicated = |v: Option<f64>| if replicated { v } else { None };
    let measured_s: f64 = traced.iter().map(|r| r.measured_ns() as f64 / 1e9).sum();
    let spans: Vec<_> = traced
        .iter()
        .flat_map(|r| r.spans.iter().cloned())
        .collect();
    let by_name = fold_by_name(&spans);
    let span_ns = |name: &str| by_name.get(name).map_or(0, |t| t.total_ns);
    let span_count = |name: &str| by_name.get(name).map_or(0, |t| t.count);
    let sum = |f: fn(&Round) -> u64| traced.iter().map(f).sum::<u64>();

    // wire
    let pool_hits = reg
        .gauges
        .iter()
        .filter(|(k, _)| k.name == "kera.client.pool_hits")
        .map(|(_, v)| *v)
        .sum::<i64>();
    let pool_misses = reg
        .gauges
        .iter()
        .filter(|(k, _)| k.name == "kera.client.pool_misses")
        .map(|(_, v)| *v)
        .sum::<i64>();
    // storage
    let acked_in_windows: u64 = traced
        .iter()
        .filter_map(|r| Some(r.edges.last()?.acked - r.edges.first()?.acked))
        .sum();
    let bytes_in = reg.counter_sum("kera.broker.bytes_in", &[]);
    // vlog
    let batches = reg.counter_sum("kera.vlog.batches_sent", &[]);
    // rpc
    let (call, serve) = (stage(reg, "rpc_call"), stage(reg, "rpc_serve"));
    let (call_p50, serve_p50) = (us(&call, 0.5), us(&serve, 0.5));
    // broker
    let replicate = stage(reg, "replicate");
    let lock = worst_lock(reg);
    if let Some((class, _)) = &lock {
        notes.push(format!("worst lock class by p99 wait: {class}"));
    }
    // client
    let request = reg.histogram_sum("kera.client.request_latency", &[]);
    let ages = report::sorted_ages(traced);
    let mut age_windows: Vec<Vec<u64>> = traced
        .iter()
        .flat_map(|r| r.age_windows.iter().cloned())
        .collect();
    notes.push(format!(
        "traced {measured_s:.2} s; observed {:.1} records/chunk produced, {:.1} chunks/request, {:.1} chunks/batch, \
         {:.1} records/chunk fetched, {:.1} chunks/fetch",
        shape.records_per_chunk,
        shape.chunks_per_request,
        shape.chunks_per_batch,
        shape.records_per_fetched_chunk,
        shape.chunks_per_fetch
    ));
    // obs: what the program's tracing costs, by the workload's own
    // throughput where the loop is closed, by CPU where the rate is set.
    let overhead = match (spec.load, spec.consumer) {
        (Load::Closed { .. }, _) => {
            1.0 - report::ingest_rec_s(traced) / report::ingest_rec_s(untraced)
        }
        (Load::Paced { .. }, ConsumerRole::Catchup) => {
            1.0 - report::consume_rec_s(spec, traced) / report::consume_rec_s(spec, untraced)
        }
        (Load::Paced { .. }, _) => {
            report::cpu_us_per_rec(spec, traced) / report::cpu_us_per_rec(spec, untraced) - 1.0
        }
    };
    // budget
    let layers_us = budget_us_per_rec(spec, shape, p);
    let cpu_us = report::cpu_us_per_rec(spec, untraced);
    let (untraced_tally, traced_tally) = (report::tally(untraced), report::tally(traced));

    vec![
        Metric::new("wire.record_encode_ns", p.record_encode_ns, "ns"),
        Metric::new(
            "wire.chunk_build_ns_per_rec",
            p.chunk_build_ns_per_rec,
            "ns",
        ),
        Metric::new(
            "wire.chunk_verify_ns_per_kb",
            p.chunk_verify_ns_per_kb,
            "ns",
        ),
        Metric::new(
            "wire.request_pack_ns_per_chunk",
            p.request_pack_ns_per_chunk,
            "ns",
        ),
        Metric::new(
            "wire.request_unpack_ns_per_chunk",
            p.request_unpack_ns_per_chunk,
            "ns",
        ),
        Metric::new(
            "wire.pool_hit_ratio",
            pool_hits as f64 / (pool_hits + pool_misses).max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "storage.append_ns_per_chunk",
            p.storage_append_ns_per_chunk,
            "ns",
        ),
        Metric::new("storage.append_ns_per_kb", p.storage_append_ns_per_kb, "ns"),
        Metric::new(
            "storage.read_ns_per_chunk",
            p.storage_read_ns_per_chunk,
            "ns",
        ),
        Metric::new("storage.seek_ns", p.storage_seek_ns, "ns"),
        Metric::new(
            "storage.bytes_per_user_byte",
            bytes_in as f64 * f64::from(spec.factor)
                / (acked_in_windows.max(1) * RECORD_BYTES as u64) as f64,
            "ratio",
        ),
        Metric::new("vlog.append_ns_per_chunk", p.vlog_append_ns_per_chunk, "ns"),
        Metric::new("vlog.ship_ns_per_chunk", p.vlog_ship_ns_per_chunk, "ns"),
        Metric::new(
            "vlog.chunks_per_batch",
            when_replicated(Some(shape.chunks_per_batch)),
            "count",
        ),
        Metric::new(
            "vlog.batches_per_s",
            when_replicated(Some(batches as f64 / measured_s.max(1e-9))),
            "1/s",
        ),
        Metric::new(
            "vlog.ship_us_p50",
            when_replicated(us(&stage(reg, "vlog_ship"), 0.5)),
            "us",
        ),
        Metric::new("rpc.inmem_rtt_us_p50", p.inmem_rtt_us.0, "us"),
        Metric::new("rpc.inmem_rtt_us_p99", p.inmem_rtt_us.1, "us"),
        Metric::new("rpc.tcp_rtt_us_p50", p.tcp_rtt_us.0, "us"),
        Metric::new("rpc.tcp_rtt_us_p99", p.tcp_rtt_us.1, "us"),
        Metric::new("rpc.inmem_cpu_us_per_call", p.inmem_cpu_us_per_call, "us"),
        Metric::new("rpc.tcp_cpu_us_per_call", p.tcp_cpu_us_per_call, "us"),
        Metric::new("rpc.tcp_mb_s", p.tcp_mb_s, "MB/s"),
        Metric::new("rpc.call_us_p50", call_p50, "us"),
        Metric::new("rpc.serve_us_p50", serve_p50, "us"),
        Metric::new(
            "rpc.queue_us_p50",
            call_p50.zip(serve_p50).map(|(c, s)| c - s),
            "us",
        ),
        Metric::new(
            "rpc.retries",
            reg.counter_sum("kera.rpc.retries_sent", &[]) as f64,
            "count",
        ),
        Metric::new(
            "broker.produce_ns_per_chunk",
            p.broker_produce_ns_per_chunk,
            "ns",
        ),
        Metric::new(
            "broker.fetch_ns_per_chunk",
            p.broker_fetch_ns_per_chunk,
            "ns",
        ),
        Metric::new("broker.append_us_p50", us(&stage(reg, "append"), 0.5), "us"),
        Metric::new(
            "broker.replicate_wait_us_p50",
            when_replicated(us(&replicate, 0.5)),
            "us",
        ),
        Metric::new(
            "broker.replicate_wait_us_p99",
            when_replicated(us(&replicate, 0.99)),
            "us",
        ),
        Metric::new(
            "broker.lock_wait_us_p99",
            lock.map(|(_, p99)| p99).unwrap_or(0.0),
            "us",
        ),
        Metric::new(
            "backup.write_ns_per_chunk",
            p.backup_write_ns_per_chunk,
            "ns",
        ),
        Metric::new(
            "backup.write_us_p50",
            when_replicated(us(&stage(reg, "backup_write"), 0.5)),
            "us",
        ),
        Metric::new(
            "client.send_ns_per_rec",
            span_ns("client.send") as f64 / sum(|r| r.sent).max(1) as f64,
            "ns",
        ),
        Metric::new(
            "client.records_per_request",
            ratio(acked_in_windows, request.count),
            "count",
        ),
        Metric::new(
            "client.request_ms_p50",
            us(&request, 0.5).map(|v| v / 1e3),
            "ms",
        ),
        Metric::new(
            "client.request_ms_p99",
            us(&request, 0.99).map(|v| v / 1e3),
            "ms",
        ),
        Metric::new(
            "client.flush_ms",
            traced.iter().map(|r| r.flush_ns).max().unwrap_or(0) as f64 / 1e6,
            "ms",
        ),
        Metric::new(
            "client.poll_ns_per_rec",
            span_ns("client.next_batch") as f64 / sum(|r| r.polled_records).max(1) as f64,
            "ns",
        ),
        Metric::new(
            "client.fetch_records_per_batch",
            ratio(sum(|r| r.polled_records), span_count("wire.verify_batch")),
            "count",
        ),
        Metric::new("client.throttles", sum(|r| r.throttles) as f64, "count"),
        Metric::new(
            "client.age_ms_p95",
            window_percentile_median(&mut age_windows, 0.95).map(|ns| ns / 1e6),
            "ms",
        ),
        Metric::new(
            "client.age_ms_p99",
            window_percentile_median(&mut age_windows, 0.99).map(|ns| ns / 1e6),
            "ms",
        ),
        Metric::new(
            "client.age_ms_p999_run",
            percentile(&ages, 0.999).ok().map(|ns| ns as f64 / 1e6),
            "ms",
        ),
        Metric::new(
            "client.age_ms_max",
            ages.last().map(|&ns| ns as f64 / 1e6),
            "ms",
        ),
        Metric::new(
            "client.backlog_rec_end",
            (spec.consumer == ConsumerRole::Tail)
                .then(|| traced.iter().map(|r| r.backlog_end).max().unwrap_or(0) as f64),
            "count",
        ),
        Metric::new("obs.trace_overhead_frac", overhead, "ratio"),
        Metric::new("loadgen.late_ms_p99", report::late_ms(traced, 0.99), "ms"),
        Metric::new(
            "loadgen.late_ms_max",
            traced
                .iter()
                .flat_map(|r| &r.late_ns)
                .max()
                .map(|&ns| ns as f64 / 1e6),
            "ms",
        ),
        Metric::new("budget.layers_cpu_us_per_rec", layers_us, "us"),
        Metric::new(
            "budget.unattributed_frac",
            1.0 - layers_us / cpu_us,
            "ratio",
        ),
        Metric::new(
            "failed_frac",
            ratio(
                untraced_tally.1 + traced_tally.1,
                untraced_tally.0 + traced_tally.0,
            ),
            "ratio",
        ),
    ]
}
