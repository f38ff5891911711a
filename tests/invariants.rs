//! Property-based tests of the core data structures and the invariants
//! listed in `DESIGN.md` §3.

use std::sync::Arc;

use kera::common::checksum::{crc32c, Crc32c};
use kera::common::ids::*;
use kera::storage::segment::Segment;
use kera::storage::streamlet::Streamlet;
use kera::vlog::channel::MockChannel;
use kera::vlog::selector::{BackupSelector, SelectionPolicy};
use kera::vlog::vlog::VirtualLog;
use kera::vlog::vseg::ChunkRef;
use kera::wire::chunk::{ChunkBuilder, ChunkIter, ChunkView};
use kera::wire::cursor::SlotCursor;
use kera::wire::record::{Record, RecordIter, RecordView};
use proptest::prelude::*;

fn arb_record() -> impl Strategy<Value = (Option<u64>, Option<u64>, Vec<Vec<u8>>, Vec<u8>)> {
    (
        proptest::option::of(any::<u64>()),
        proptest::option::of(any::<u64>()),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 0..4),
        proptest::collection::vec(any::<u8>(), 0..256),
    )
}

proptest! {
    /// Invariant 6 precondition: any record round-trips losslessly and
    /// verifies.
    #[test]
    fn record_roundtrip((version, timestamp, keys, value) in arb_record()) {
        let rec = Record {
            version,
            timestamp,
            keys: keys.iter().map(|k| k.as_slice()).collect(),
            value: &value,
        };
        let mut buf = Vec::new();
        let len = rec.encode_into(&mut buf);
        prop_assert_eq!(len, rec.encoded_len());
        let view = RecordView::parse(&buf).unwrap();
        view.verify().unwrap();
        prop_assert_eq!(view.version(), version);
        prop_assert_eq!(view.timestamp(), timestamp);
        prop_assert_eq!(view.num_keys(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            prop_assert_eq!(view.key(i).unwrap(), k.as_slice());
        }
        prop_assert_eq!(view.value(), value.as_slice());
    }

    /// Concatenated records iterate back exactly.
    #[test]
    fn record_stream_roundtrip(values in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..128), 1..20)) {
        let mut buf = Vec::new();
        for v in &values {
            Record::value_only(v).encode_into(&mut buf);
        }
        let parsed: Vec<Vec<u8>> = RecordIter::new(&buf)
            .map(|r| r.unwrap().value().to_vec())
            .collect();
        prop_assert_eq!(parsed, values);
    }

    /// CRC32C: incremental == one-shot at any split, and resume works.
    #[test]
    fn crc_incremental(data in proptest::collection::vec(any::<u8>(), 0..512),
                       split in 0usize..512) {
        let split = split.min(data.len());
        let mut c = Crc32c::new();
        c.update(&data[..split]);
        let mid = c.finish();
        let mut r = Crc32c::resume(mid);
        r.update(&data[split..]);
        prop_assert_eq!(r.finish(), crc32c(&data));
    }

    /// Chunk building: a chunk holds exactly the appended records and
    /// survives header assignment.
    #[test]
    fn chunk_roundtrip(values in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..64), 1..20)) {
        let mut b = ChunkBuilder::new(1 << 16, ProducerId(1), StreamId(2), StreamletId(3));
        for v in &values {
            prop_assert!(b.append(&Record::value_only(v)));
        }
        let sealed = b.seal();
        let mut assigned = sealed.to_vec();
        kera::wire::chunk::assign_in_place(&mut assigned, GroupId(9), SegmentId(8), 777);
        let view = ChunkView::parse(&assigned).unwrap();
        view.verify().unwrap();
        prop_assert_eq!(view.header().record_count as usize, values.len());
        prop_assert_eq!(view.header().base_offset, 777);
        let parsed: Vec<Vec<u8>> = view.records().map(|r| r.unwrap().value().to_vec()).collect();
        prop_assert_eq!(parsed, values);
    }

    /// Invariant 3: durable head never exceeds head and is monotone,
    /// under arbitrary append/ack interleavings.
    #[test]
    fn segment_durable_head_monotone(ops in proptest::collection::vec(any::<bool>(), 1..60)) {
        let gref = GroupRef::new(StreamId(1), StreamletId(0), GroupId(0));
        let seg = Segment::new(gref, SegmentId(0), 1 << 20);
        let mut chunk = ChunkBuilder::new(512, ProducerId(0), StreamId(1), StreamletId(0));
        chunk.append(&Record::value_only(&[1u8; 64]));
        let bytes = chunk.seal();
        let mut appended = Vec::new(); // chunk end offsets
        let mut acked = 0usize;
        let mut last_durable = 0usize;
        for op in ops {
            if op {
                if let Some(at) = seg.append_chunk(&bytes, 0) {
                    appended.push((at.offset + at.len) as usize);
                }
            } else if acked < appended.len() {
                seg.advance_durable(appended[acked]);
                acked += 1;
            }
            let d = seg.durable_head();
            prop_assert!(d <= seg.head());
            prop_assert!(d >= last_durable, "durable head went backwards");
            last_durable = d;
        }
    }

    /// Invariant 2: per-slot record order equals append order under
    /// arbitrary producer interleavings; reads see whole chunks only.
    #[test]
    fn streamlet_per_slot_order(
        producer_seq in proptest::collection::vec(0u32..4, 1..80),
        q in 1u32..4,
    ) {
        let config = kera::common::config::StreamConfig {
            id: StreamId(1),
            streamlets: 1,
            active_groups: q,
            segments_per_group: 2,
            segment_size: 4096,
            replication: Default::default(),
        };
        let streamlet = Streamlet::new(StreamId(1), StreamletId(0), &config);
        let mut expected: std::collections::HashMap<u32, Vec<u64>> = Default::default();
        let mut counters: std::collections::HashMap<u32, u64> = Default::default();
        for &p in &producer_seq {
            let slot = p % q;
            let seq = counters.entry(slot).or_default();
            let mut b = ChunkBuilder::new(512, ProducerId(p), StreamId(1), StreamletId(0));
            b.append(&Record::value_only(&seq.to_le_bytes()));
            let bytes = b.seal();
            let a = streamlet.append_chunk(ProducerId(p), &bytes, 1).unwrap();
            a.segment.make_all_durable();
            expected.entry(slot).or_default().push(*seq);
            *seq += 1;
        }
        for slot in 0..q {
            let mut cursor = SlotCursor::START;
            let mut got = Vec::new();
            loop {
                let (data, next) = streamlet.read_slot(slot, cursor, usize::MAX);
                if data.is_empty() {
                    break;
                }
                for chunk in ChunkIter::new(&data) {
                    let chunk = chunk.unwrap();
                    for rec in chunk.records() {
                        got.push(u64::from_le_bytes(rec.unwrap().value().try_into().unwrap()));
                    }
                }
                cursor = next;
            }
            prop_assert_eq!(&got, expected.get(&slot).map(Vec::as_slice).unwrap_or(&[]));
        }
    }

    /// Invariants 1 & 3 on the virtual log: after any append/ship
    /// sequence, durable == appended, every physical byte below a chunk
    /// end, and replication batches carry whole chunks.
    #[test]
    fn vlog_shipping_covers_all_appends(lens in proptest::collection::vec(10usize..200, 1..40),
                                    vseg_capacity in 300usize..2000) {
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let selector = BackupSelector::new(NodeId(0), &nodes, SelectionPolicy::RoundRobin, 1);
        let gref = GroupRef::new(StreamId(1), StreamletId(0), GroupId(0));
        let seg = Arc::new(Segment::new(gref, SegmentId(0), 1 << 20));
        let vlog = VirtualLog::new(VirtualLogId(0), NodeId(0), vseg_capacity.max(400), 2, selector).unwrap();
        let channel = MockChannel::new();
        let mut last_ticket = 0;
        for len in &lens {
            let mut b = ChunkBuilder::new(400, ProducerId(0), StreamId(1), StreamletId(0));
            let payload = vec![3u8; (*len).min(300)];
            b.append(&Record::value_only(&payload));
            let bytes = b.seal();
            let at = seg.append_chunk(&bytes, 0).unwrap();
            last_ticket = vlog.append(ChunkRef {
                segment: Arc::clone(&seg),
                offset: at.offset,
                len: at.len,
                checksum: ChunkView::parse(&bytes).unwrap().header().checksum,
                gref,
            }).unwrap();
        }
        // MockChannel acknowledges inside `start`: the rounds have landed
        // when `ship_once` returns.
        prop_assert!(!vlog.ship_once(&channel).unwrap());
        prop_assert!(vlog.durable() >= last_ticket);
        prop_assert_eq!(vlog.durable(), vlog.appended());
        prop_assert_eq!(seg.durable_head(), seg.head());
        // Every replicated batch parses into whole, valid chunks.
        for (_, req) in channel.batches.lock().iter() {
            let mut count = 0;
            for chunk in ChunkIter::new(&req.chunks) {
                chunk.unwrap().verify().unwrap();
                count += 1;
            }
            prop_assert_eq!(count, req.chunk_count);
        }
    }

    /// Backup selection: distinct, never local, correct count.
    #[test]
    fn selector_properties(fleet in 2u32..10, copies in 0usize..4, seed in any::<u64>()) {
        let nodes: Vec<NodeId> = (0..fleet).map(NodeId).collect();
        for policy in [SelectionPolicy::RoundRobin, SelectionPolicy::RandomDistinct] {
            let mut sel = BackupSelector::new(NodeId(0), &nodes, policy, seed);
            let available = (fleet - 1) as usize;
            let result = sel.select(copies);
            if copies > available {
                prop_assert!(result.is_err());
            } else {
                let picks = result.unwrap();
                prop_assert_eq!(picks.len(), copies);
                let set: std::collections::HashSet<_> = picks.iter().collect();
                prop_assert_eq!(set.len(), copies);
                prop_assert!(!picks.contains(&NodeId(0)));
            }
        }
    }

    /// Slot cursors: group-id derivation is a bijection per slot chain.
    #[test]
    fn cursor_group_ids_disjoint(q in 1u32..8, chains in 1u32..16) {
        let mut seen = std::collections::HashSet::new();
        for slot in 0..q {
            let mut cursor = SlotCursor::START;
            for _ in 0..chains {
                prop_assert!(seen.insert(cursor.group_id(slot, q)));
                cursor = cursor.next_group();
            }
        }
        prop_assert_eq!(seen.len() as u32, q * chains);
    }
}

/// Delivery on arrival (DESIGN.md §7, §8): a duplicate of a completed
/// request is answered from the at-most-once cache *inside* the sender's
/// own `send` — the server's delivery runs on this stack and replays the
/// reply into this endpoint's target before `send` returns — without
/// re-running the handler. Under `--features deadlock-detect` every lock
/// on that path (`rpc.dedup`, `net.nodes`) is order-checked: none may
/// still be held when the replay goes out.
#[test]
fn duplicate_of_a_completed_request_is_replayed_inside_the_delivery() {
    use bytes::Bytes;
    use kera::rpc::transport::{Deliver, Transport};
    use kera::rpc::{InMemNetwork, NodeRuntime, RequestContext, Service};
    use kera::wire::frames::{Envelope, OpCode};
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Counting(AtomicU64);
    impl Service for Counting {
        fn handle(&self, _ctx: &RequestContext, payload: Bytes) -> kera::common::Result<Bytes> {
            self.0.fetch_add(1, Ordering::SeqCst);
            Ok(payload)
        }
    }
    #[derive(Default)]
    struct Replies(parking_lot::Mutex<Vec<Envelope>>);
    impl Deliver for Replies {
        fn deliver(&self, env: Envelope) {
            self.0.lock().push(env);
        }
        fn closed(&self) {}
    }

    let net = InMemNetwork::new();
    let service = Arc::new(Counting(AtomicU64::new(0)));
    let server = NodeRuntime::start(Arc::new(net.register(NodeId(1))), Arc::clone(&service) as _, 1);
    let raw = net.register(NodeId(9));
    let replies = Arc::new(Replies::default());
    raw.bind(Arc::downgrade(&replies) as _);

    let req = Envelope::request(OpCode::Ping, 77, NodeId(9), Bytes::from_static(b"once"));
    raw.send(NodeId(1), req.clone()).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while replies.0.lock().is_empty() {
        assert!(std::time::Instant::now() < deadline, "first reply never came");
        std::thread::yield_now();
    }

    raw.send(NodeId(1), req).unwrap();
    let got = replies.0.lock();
    assert_eq!(got.len(), 2, "the cached reply must be here by the time send returns");
    assert!(got.iter().all(|r| r.request_id == 77 && &r.payload[..] == b"once"));
    assert_eq!(service.0.load(Ordering::SeqCst), 1, "handler must run exactly once");
    assert_eq!(server.requests_deduped(), 1);
}
