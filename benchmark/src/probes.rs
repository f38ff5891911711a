//! Layer probes: the benchmark calls each layer's public functions
//! directly, on one thread, with inputs shaped like what the workload's
//! traced pass observed (chunk size, chunks per request, chunks per
//! replication batch), a span around every timed call or block of calls.
//!
//! A probe's number is span time divided by units of work. Calls that
//! take tens of nanoseconds are timed in blocks so the clock reads do
//! not dominate; everything from a microsecond up gets its own span.

use std::sync::Arc;
use std::time::Duration;

use crate::adapter::{
    request_context, rpc_pair, standalone_backup, standalone_broker, standalone_vlog,
    stream_metadata, Bytes, ChunkBuilder, ChunkIter, ChunkRef, ChunkView, FetchEntry, FetchRequest,
    FetchResponse, MockChannel, NodeId, OpCode, ProduceRequest, ProducerId, Record, RequestContext,
    Result, Service, SlotCursor, StreamId, StreamStore, StreamletId,
};
use crate::clock::process_cpu_us;
use crate::ledger::Shape;
use crate::loadgen::{Rng, RECORD_BYTES};
use crate::spans::{Recorder, Span};
use crate::workload::Spec;

/// Stream id the probes use.
const STREAM: u32 = 1;
/// Bytes a probe may append to a store before it stops: keeps every
/// probe's resident set small next to the workloads'.
const APPEND_BUDGET_BYTES: usize = 64 << 20;

/// What the probes measured. `None`: the layer does not run on this
/// workload (virtual logs and backups at R1).
#[derive(Default)]
pub struct Probed {
    pub record_encode_ns: f64,
    pub chunk_build_ns_per_rec: f64,
    pub chunk_verify_ns_per_kb: f64,
    pub request_pack_ns_per_chunk: f64,
    pub request_unpack_ns_per_chunk: f64,
    pub storage_append_ns_per_chunk: f64,
    pub storage_append_ns_per_kb: f64,
    pub storage_read_ns_per_chunk: f64,
    pub storage_seek_ns: f64,
    pub vlog_append_ns_per_chunk: Option<f64>,
    pub vlog_ship_ns_per_chunk: Option<f64>,
    pub backup_write_ns_per_chunk: Option<f64>,
    /// (p50, p99) round trip of a request sized like the workload's.
    pub inmem_rtt_us: (f64, f64),
    pub tcp_rtt_us: (f64, f64),
    /// Process CPU (both ends, all threads) one such round trip costs.
    pub inmem_cpu_us_per_call: f64,
    pub tcp_cpu_us_per_call: f64,
    pub tcp_mb_s: f64,
    pub broker_produce_ns_per_chunk: f64,
    pub broker_fetch_ns_per_chunk: f64,
}

/// Times blocks of work under one root span per probe run.
struct Timer {
    rec: Recorder,
    root: u32,
}

impl Timer {
    /// Runs `f` inside a span named `name`; returns its duration in ns.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        self.rec.time(name, self.root, f)
    }
}

/// A sealed chunk of the workload's chunk size, full of seeded records.
fn full_chunk(chunk_size: usize, rng: &mut Rng) -> (Bytes, u32) {
    let mut b = ChunkBuilder::new(chunk_size, ProducerId(0), StreamId(STREAM), StreamletId(0));
    let mut value = [0u8; RECORD_BYTES];
    loop {
        for word in value.chunks_mut(8) {
            let bytes = rng.next().to_le_bytes();
            word.copy_from_slice(&bytes[..word.len()]);
        }
        if !b.append(&Record::value_only(&value)) {
            break;
        }
    }
    let records = b.record_count();
    (b.seal(), records)
}

pub fn run(spec: &Spec, shape: &Shape, seed: u64, quick: bool) -> Result<(Probed, Vec<Span>)> {
    let mut rec = Recorder::new(true);
    let root = rec.start("probe.all", 0, 0);
    let mut t = Timer {
        root: root.id(),
        rec,
    };
    let mut rng = Rng::new(seed);
    let scale = if quick { 8 } else { 1 };
    let mut p = Probed::default();

    let (chunk, records) = full_chunk(spec.chunk_size, &mut rng);
    let chunk_kb = chunk.len() as f64 / 1024.0;
    let per_request = (shape.chunks_per_request.round() as usize).clamp(1, 4096);
    let per_batch = (shape.chunks_per_batch.round() as usize).clamp(1, 4096);

    // ---- wire ----------------------------------------------------------
    {
        let value = [7u8; RECORD_BYTES];
        let record = Record::value_only(&value);
        let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
        let (blocks, per_block) = (400 / scale, 500);
        let mut total = 0;
        for _ in 0..blocks {
            buf.clear();
            total += t
                .span("wire.record_encode", || {
                    for _ in 0..per_block {
                        std::hint::black_box(record.encode_into(std::hint::black_box(&mut buf)));
                    }
                })
                .1;
        }
        p.record_encode_ns = total as f64 / (blocks * per_block) as f64;

        let chunks = (200_000 / u64::from(records)).max(50) / scale as u64;
        let mut builder = ChunkBuilder::new(
            spec.chunk_size,
            ProducerId(0),
            StreamId(STREAM),
            StreamletId(0),
        );
        let mut total = 0;
        for _ in 0..chunks {
            total += t
                .span("wire.chunk_build", || {
                    while builder.append(&record) {}
                    std::hint::black_box(builder.seal());
                })
                .1;
        }
        p.chunk_build_ns_per_rec = total as f64 / (chunks * u64::from(records)) as f64;

        let calls = ((32 << 20) / chunk.len() / scale).max(50);
        let mut total = 0;
        for _ in 0..calls {
            total += t
                .span("wire.chunk_verify", || {
                    let view =
                        ChunkView::parse(std::hint::black_box(&chunk)).expect("own chunk parses");
                    view.verify().expect("own chunk verifies");
                })
                .1;
        }
        p.chunk_verify_ns_per_kb = total as f64 / (calls as f64 * chunk_kb);

        let request_chunks: Vec<Bytes> = vec![chunk.clone(); per_request];
        let calls = ((32 << 20) / (chunk.len() * per_request) / scale).max(20);
        let (mut pack, mut unpack) = (0, 0);
        for _ in 0..calls {
            let (body, ns) = t.span("wire.request_pack", || {
                ProduceRequest::encode_chunks(ProducerId(0), false, &request_chunks)
            });
            pack += ns;
            unpack += t
                .span("wire.request_unpack", || {
                    let req = ProduceRequest::decode_bytes(&body).expect("own request decodes");
                    let walked = ChunkIter::new(&req.chunks).filter(|c| c.is_ok()).count();
                    assert_eq!(walked, per_request);
                })
                .1;
        }
        p.request_pack_ns_per_chunk = pack as f64 / (calls * per_request) as f64;
        p.request_unpack_ns_per_chunk = unpack as f64 / (calls * per_request) as f64;
    }

    // ---- storage, and (R > 1) vlog and backup on top of it --------------
    {
        let store = StreamStore::new();
        store.host(stream_metadata(STREAM, 1, NodeId(1)), &[StreamletId(0)]);
        let appends = (APPEND_BUDGET_BYTES / chunk.len() / scale).max(64);
        let replicated = spec.factor > 1;
        let vlog = if replicated {
            Some(standalone_vlog(spec.factor as usize - 1)?)
        } else {
            None
        };
        let channel = MockChannel::new();
        let (mut append_ns, mut vlog_append_ns, mut ship_ns, mut shipped) = (0, 0, 0, 0usize);
        for i in 0..appends {
            let (appended, ns) = t.span("storage.append_chunk", || {
                let (_, a) = store.append_chunk(
                    ProducerId(0),
                    StreamId(STREAM),
                    StreamletId(0),
                    &chunk,
                    records,
                )?;
                a.segment.make_all_durable();
                Ok::<_, crate::adapter::Error>(a)
            });
            append_ns += ns;
            let a = appended?;
            let Some(vlog) = &vlog else { continue };
            let chunk_ref = ChunkRef {
                segment: Arc::clone(&a.segment),
                offset: a.offset_in_segment,
                len: a.len,
                checksum: ChunkView::parse(&chunk)?.header().checksum,
                gref: a.gref,
            };
            let (ticket, ns) = t.span("vlog.append", || vlog.append(chunk_ref));
            ticket?;
            vlog_append_ns += ns;
            if (i + 1) % per_batch == 0 {
                let (more, ns) = t.span("vlog.ship_once", || vlog.ship_once(&channel));
                more?;
                ship_ns += ns;
                shipped = i + 1;
            }
        }
        p.storage_append_ns_per_chunk = append_ns as f64 / appends as f64;
        p.storage_append_ns_per_kb = append_ns as f64 / (appends as f64 * chunk_kb);
        if replicated {
            p.vlog_append_ns_per_chunk = Some(vlog_append_ns as f64 / appends as f64);
            p.vlog_ship_ns_per_chunk = Some(ship_ns as f64 / shipped.max(1) as f64);
            // Replay the very batches the virtual log shipped into a
            // backup: real offsets, flags and consolidation size.
            let backup = standalone_backup();
            let batches = std::mem::take(&mut *channel.batches.lock());
            let (mut write_ns, mut chunks) = (0, 0u64);
            for (i, (_, request)) in batches.iter().enumerate() {
                let body = request.encode();
                let ctx = request_context(OpCode::BackupWrite, i as u64 + 1);
                let (reply, ns) = t.span("backup.write", || backup.handle(&ctx, body));
                reply?;
                write_ns += ns;
                chunks += u64::from(request.chunk_count);
            }
            p.backup_write_ns_per_chunk = Some(write_ns as f64 / chunks.max(1) as f64);
        }

        let (mut read_ns, mut read_chunks) = (0, 0usize);
        let mut cursor = SlotCursor::START;
        loop {
            let (read, ns) = t.span("storage.read_slot", || {
                store.read_slot(StreamId(STREAM), StreamletId(0), 0, cursor, 16 * 1024)
            });
            let (data, next) = read?;
            if data.is_empty() {
                break;
            }
            read_ns += ns;
            read_chunks += ChunkIter::new(&data).count();
            cursor = next;
        }
        p.storage_read_ns_per_chunk = read_ns as f64 / read_chunks.max(1) as f64;

        let streamlet = store.streamlet(StreamId(STREAM), StreamletId(0))?;
        let total_records = appends as u64 * u64::from(records);
        let (blocks, per_block) = (200 / scale, 200);
        let mut seek_ns = 0;
        for _ in 0..blocks {
            seek_ns += t
                .span("storage.seek", || {
                    for _ in 0..per_block {
                        std::hint::black_box(streamlet.seek(0, rng.next() % total_records));
                    }
                })
                .1;
        }
        p.storage_seek_ns = seek_ns as f64 / (blocks * per_block) as f64;
    }

    // ---- broker: Service::handle directly, no fabric --------------------
    {
        let broker = standalone_broker(STREAM)?;
        let request =
            ProduceRequest::encode_chunks(ProducerId(0), false, &vec![chunk.clone(); per_request]);
        let calls = (APPEND_BUDGET_BYTES / request.len() / scale).max(8);
        let mut produce_ns = 0;
        for i in 0..calls {
            let ctx = request_context(OpCode::Produce, i as u64 + 1);
            let body = request.clone();
            let (reply, ns) = t.span("broker.produce", || broker.handle(&ctx, body));
            reply?;
            produce_ns += ns;
        }
        p.broker_produce_ns_per_chunk = produce_ns as f64 / (calls * per_request) as f64;

        let (mut fetch_ns, mut fetched_chunks) = (0, 0usize);
        let mut cursor = SlotCursor::START;
        for i in 0.. {
            let fetch = FetchRequest {
                consumer: crate::adapter::ConsumerId(0),
                entries: vec![FetchEntry {
                    stream: StreamId(STREAM),
                    streamlet: StreamletId(0),
                    slot: 0,
                    cursor,
                    max_bytes: 16 * 1024,
                }],
            };
            let ctx = request_context(OpCode::Fetch, i + 1);
            let body = fetch.encode();
            let (reply, ns) = t.span("broker.fetch", || broker.handle(&ctx, body));
            let response = FetchResponse::decode_bytes(&reply?)?;
            let result = &response.results[0];
            if result.data.is_empty() {
                break;
            }
            fetch_ns += ns;
            fetched_chunks += ChunkIter::new(&result.data).count();
            cursor = result.cursor;
        }
        p.broker_fetch_ns_per_chunk = fetch_ns as f64 / fetched_chunks.max(1) as f64;
    }

    // ---- rpc: a sink service behind each fabric --------------------------
    {
        struct Sink;
        impl Service for Sink {
            fn handle(&self, _ctx: &RequestContext, _payload: Bytes) -> Result<Bytes> {
                Ok(Bytes::new())
            }
        }
        let request = Bytes::from(vec![0x5Au8; (chunk.len() * per_request).min(4 << 20)]);
        let timeout = Duration::from_secs(10);
        // Returns the sorted round-trip times, their sum, and the process
        // CPU per call.
        let mut rtt = |tcp: bool,
                       name: &'static str,
                       payload: &Bytes,
                       calls: usize|
         -> Result<(Vec<u64>, u64, f64)> {
            let (server, client, to) = rpc_pair(tcp, Arc::new(Sink))?;
            let rpc = client.client();
            for _ in 0..calls / 10 + 1 {
                rpc.call(to, OpCode::Ping, payload.clone(), timeout)?;
            }
            let mut each = Vec::with_capacity(calls);
            let cpu_before = process_cpu_us();
            for _ in 0..calls {
                let body = payload.clone();
                let (reply, ns) = t.span(name, || rpc.call(to, OpCode::Ping, body, timeout));
                reply?;
                each.push(ns);
            }
            let cpu_us = process_cpu_us() - cpu_before;
            drop(rpc);
            client.shutdown();
            server.shutdown();
            let total = each.iter().sum();
            each.sort_unstable();
            Ok((each, total, cpu_us as f64 / calls as f64))
        };
        // Never fewer than a p99 needs (ten samples beyond it).
        let calls = (4000 / scale).max(1100);
        let quantiles = |each: &[u64]| {
            let at = |q: f64| crate::stats::percentile(each, q).map_or(0.0, |ns| ns as f64 / 1e3);
            (at(0.5), at(0.99))
        };
        let (each, _, cpu) = rtt(false, "rpc.inmem_call", &request, calls)?;
        (p.inmem_rtt_us, p.inmem_cpu_us_per_call) = (quantiles(&each), cpu);
        let (each, _, cpu) = rtt(true, "rpc.tcp_call", &request, calls)?;
        (p.tcp_rtt_us, p.tcp_cpu_us_per_call) = (quantiles(&each), cpu);
        let frame = Bytes::from(vec![0xA5u8; 1 << 20]);
        let frames = 400 / scale;
        let (_, total_ns, _) = rtt(true, "rpc.tcp_frame", &frame, frames)?;
        p.tcp_mb_s = frames as f64 * 1e9 / total_ns.max(1) as f64;
    }

    let Timer { mut rec, .. } = t;
    rec.end(root);
    Ok((p, rec.into_spans()))
}
