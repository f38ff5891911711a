//! Decoder robustness: arbitrary bytes fed to every wire decoder must
//! produce `Err`, never a panic — brokers parse untrusted client input.

use bytes::Bytes;
use kera::common::KeraError;
use kera::wire::chunk::{ChunkIter, ChunkView, CHUNK_HEADER};
use kera::wire::frames::{Body, Envelope, OpCode};
use kera::wire::messages::*;
use kera::wire::record::{RecordIter, RecordView};
use proptest::prelude::*;

/// The golden vectors double as the valid frames the mangling loop
/// starts from: one or more per body of the opcode table.
#[path = "wire_golden.rs"]
mod wire_golden;
use wire_golden::{golden, GOLDEN};

/// Every body of [`OpCode::TABLE`] — the table the `OpCode` declaration
/// itself emits, so a message cannot be added without landing here —
/// plus the two checksummed frames that only ever travel nested.
fn bodies() -> impl Iterator<Item = &'static Body> {
    static NESTED: [Body; 2] = [
        Body { name: "MetaRecord", probe: |b| kera::wire::meta::MetaRecord::decode(b)?.encode() },
        Body { name: "MetaSnapshot", probe: |b| kera::wire::meta::MetaSnapshot::decode(b)?.encode() },
    ];
    OpCode::TABLE.iter().flat_map(|(_, request, response)| [request, response]).chain(&NESTED)
}

/// The golden frames of one body.
fn vectors(body: &Body) -> impl Iterator<Item = (&'static str, Bytes)> + '_ {
    GOLDEN
        .iter()
        .filter(|(name, _)| name.split('/').next() == Some(body.name))
        .map(|(name, _)| (*name, golden(name)))
}

/// Where each golden frame keeps a `bool`: overwritten with `2`, the
/// frame must be a `Protocol` error (at d7e7526 the first six decoded).
const BOOL_BYTES: &[(&str, usize)] = &[
    ("SeekResponse", 0),
    ("VoteResponse", 8),
    ("MetaAppendResponse", 8),
    ("GetLeaderResponse/known", 12),
    ("RecoveryEnumerateResponse", 20),
    ("ProduceRequest", 4),
    ("IntrospectResponse", 5),
    ("IntrospectResponse", 6),
    ("MetaAppendRequest/heartbeat", 36),
];

/// Where `inner` sits in `outer`, when it is a window of `outer`'s
/// allocation (what a slicing decoder must return) rather than a copy.
/// An empty window has no bytes to locate; it passes as the empty range
/// at `at`.
fn window_of(outer: &Bytes, inner: &Bytes, at: usize) -> Option<std::ops::Range<usize>> {
    if inner.is_empty() {
        return (at <= outer.len()).then_some(at..at);
    }
    let base = outer.as_ref().as_ptr() as usize;
    let start = (inner.as_ref().as_ptr() as usize).checked_sub(base)?;
    (start + inner.len() <= outer.len()).then_some(start..start + inner.len())
}

/// Serialized `BackupWriteRequest` header size (everything before the
/// chunk train).
const BACKUP_HEADER_LEN: usize = 29;

/// True when each fetch result's `data` is a window of `frame` at the
/// offset its length prefix puts it: results start after the `u32`
/// count, each `fixed` header bytes and a `u32` length before its data.
fn fetch_data_in_place<'a>(frame: &Bytes, datas: impl Iterator<Item = &'a Bytes>, fixed: usize) -> bool {
    let mut at = 4;
    for data in datas {
        at += fixed + 4;
        if window_of(frame, data, at) != Some(at..at + data.len()) {
            return false;
        }
        at += data.len();
    }
    true
}

/// A train of two sealed chunks of `nrec` 64-byte records each.
fn chunk_train(nrec: usize) -> Vec<Bytes> {
    use kera::common::ids::{ProducerId, StreamId, StreamletId};
    use kera::wire::chunk::ChunkBuilder;
    use kera::wire::record::Record;

    let mut b = ChunkBuilder::new(8192, ProducerId(3), StreamId(1), StreamletId(0));
    (0..2)
        .map(|_| {
            for _ in 0..nrec {
                assert!(b.append(&Record::value_only(&[0xabu8; 64])));
            }
            b.seal()
        })
        .collect()
}

/// Truncates `encoded` at `cut_num` (mod its length + 1) and flips one
/// bit of it: the two manglings every payload-carrying decoder must
/// survive.
fn mangle(encoded: &Bytes, cut_num: usize, flip_byte: usize, flip_bit: u8) -> [Bytes; 2] {
    let truncated = encoded.slice(0..cut_num % (encoded.len() + 1));
    let mut mutant = encoded.to_vec();
    let i = flip_byte % mutant.len();
    mutant[i] ^= 1 << flip_bit;
    [truncated, Bytes::from(mutant)]
}

/// A hostile `chunk_count` must die in the decoder, before a handler
/// sizes an allocation from it: driven through `Service::handle`, both
/// brokers answer a 9-byte Produce claiming `u32::MAX` chunks with
/// `Err(Protocol)` instead of reserving ~137 GB of acks.
#[test]
fn hostile_chunk_count_is_a_protocol_error_on_both_brokers() {
    use kera::broker::broker::BrokerService;
    use kera::common::ids::{NodeId, ProducerId};
    use kera::common::KeraError;
    use kera::kafka_sim::broker::{KafkaBrokerService, KafkaTuning, TopicStore};
    use kera::rpc::{RequestContext, Service};
    use kera::wire::frames::OpCode;

    let hostile = ProduceRequest {
        producer: ProducerId(1),
        recovery: false,
        chunk_count: u32::MAX,
        chunks: Bytes::new(),
    }
    .encode();
    assert_eq!(hostile.len(), ProduceRequest::HEADER_LEN);
    let ctx = RequestContext {
        from: NodeId(2001),
        opcode: OpCode::Produce,
        request_id: 1,
        deadline: None,
        trace: Default::default(), // untraced
    };

    let kera_broker = BrokerService::new(NodeId(1), NodeId(1001), vec![NodeId(1001)]);
    let kafka_broker = KafkaBrokerService::new(
        TopicStore::new(NodeId(1), KafkaTuning::default()),
        std::collections::HashMap::new(),
    );
    let services: [(&str, &dyn Service); 2] = [("kera", &*kera_broker), ("kafka-sim", &*kafka_broker)];
    for (name, svc) in services {
        match svc.handle(&ctx, hostile.clone()) {
            Err(KeraError::Protocol(_)) => {}
            other => panic!("{name} broker answered a hostile chunk_count with {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn envelope_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Envelope::decode_bytes(&Bytes::from(data));
    }

    #[test]
    fn record_parse_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(view) = RecordView::parse(&data) {
            let _ = view.verify();
            let _ = view.version();
            let _ = view.timestamp();
            for i in 0..view.num_keys() {
                let _ = view.key(i);
            }
            let _ = view.value();
        }
        // Iteration over garbage terminates.
        let _ = RecordIter::new(&data).count();
    }

    #[test]
    fn chunk_parse_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(view) = ChunkView::parse(&data) {
            let _ = view.verify();
            let _ = view.records().count();
        }
        let _ = ChunkIter::new(&data).count();
    }

    /// Every body of every opcode, through its one decoder: garbage, and
    /// a valid frame truncated anywhere or with one bit flipped, is `Err`
    /// or a value that re-encodes — never a panic (a probe decodes and
    /// re-encodes).
    #[test]
    fn message_decoders_never_panic(
        data in proptest::collection::vec(any::<u8>(), 0..256),
        cut_num in 0usize..10_000,
        flip_byte in 0usize..10_000,
        flip_bit in 0u8..8,
    ) {
        let data = Bytes::from(data);
        for body in bodies() {
            let _ = (body.probe)(&data);
            for (name, frame) in vectors(body) {
                prop_assert_eq!((body.probe)(&frame).unwrap(), frame.clone(), "{}", name);
                for mangled in mangle(&frame, cut_num, flip_byte, flip_bit) {
                    let _ = (body.probe)(&mangled);
                }
                // One rule for every bool on the wire: 0 or 1.
                for (_, at) in BOOL_BYTES.iter().filter(|(n, _)| *n == name) {
                    let mut hostile = frame.to_vec();
                    hostile[*at] = 2 + (flip_byte % 254) as u8;
                    let refused = (body.probe)(&Bytes::from(hostile));
                    prop_assert!(matches!(refused, Err(KeraError::Protocol(_))), "{} byte {}: {:?}", name, at, refused);
                }
            }
        }
    }

    /// The introspection wire surface: a real `IntrospectResponse` (JSON
    /// bodies included) truncated or bit-flipped anywhere either fails to
    /// decode or decodes to a response that re-encodes without panicking —
    /// scrapers parse these off the network from arbitrary nodes.
    #[test]
    fn mangled_introspect_response_never_panics(
        node in 0u32..5000,
        role in 0u8..3,
        lag in 0u64..(1 << 30),
        cut_num in 0usize..10_000,
        flip_byte in 0usize..10_000,
        flip_bit in 0u8..8,
    ) {
        let role = NodeRole::from_u8(role).unwrap();
        let resp = IntrospectResponse {
            node,
            role,
            is_leader: role == NodeRole::Coordinator,
            term: 3,
            appended_bytes: lag * 2,
            durable_bytes: lag,
            metrics_json: "{\"counters\":{\"kera.rpc.calls{node=\\\"1\\\"}\":4}}".into(),
            traces_json: "[{\"stage\":\"append\",\"dur_ns\":123}]".into(),
            ..IntrospectResponse::default()
        };
        let encoded = resp.encode().unwrap();

        // Truncation anywhere: every proper prefix must fail (the fixed
        // header and two length-prefixed strings bound every read).
        let cut = cut_num % encoded.len();
        prop_assert!(IntrospectResponse::decode(&encoded[..cut]).is_err(), "cut at {} decoded", cut);

        // A single bit flip either fails to decode (bool/role/length
        // corruption) or yields a response that re-encodes cleanly.
        let mut mutant = encoded.to_vec();
        let i = flip_byte % mutant.len();
        mutant[i] ^= 1 << flip_bit;
        if let Ok(decoded) = IntrospectResponse::decode(&mutant) {
            let _ = decoded.encode();
        }
    }

    /// The admission plane's wire surface (DESIGN.md §11): a `Throttled`
    /// error envelope carries structured retry_after/window_hint extras
    /// after the message. Truncating or bit-flipping the frame anywhere
    /// must never panic in decode or `check_status`; a mangled extras
    /// section degrades to "retry now, no hint" rather than erroring.
    #[test]
    fn mangled_throttled_envelope_never_panics(
        retry_us in 0u64..10_000_000,
        window in 0u64..(1 << 32),
        cut in 0usize..256,
        flip_byte in 0usize..128,
        flip_bit in 0u8..8,
    ) {
        use kera::common::ids::NodeId;
        use kera::common::KeraError;
        use kera::wire::frames::{OpCode, StatusCode};

        let err = KeraError::Throttled {
            retry_after: std::time::Duration::from_micros(retry_us),
            window_hint: window,
        };
        let env = Envelope::error_response(OpCode::Produce, 99, NodeId(1), &err);
        let [truncated, mutant] = mangle(&env.encode(), cut, flip_byte, flip_bit);

        // Truncation anywhere: decode errors or yields an envelope whose
        // check_status still produces a structured error, never a panic.
        if let Ok(truncated) = Envelope::decode_bytes(&truncated) {
            let _ = truncated.check_status();
        }

        // A single bit flip: same contract, and if the status byte still
        // says Throttled the error must come back as Throttled.
        if let Ok(decoded) = Envelope::decode_bytes(&mutant) {
            let status = decoded.status;
            match decoded.check_status() {
                Err(KeraError::Throttled { .. }) => prop_assert_eq!(status, StatusCode::Throttled),
                Err(_) => prop_assert!(status != StatusCode::Ok),
                Ok(()) => prop_assert_eq!(status, StatusCode::Ok),
            }
        }
    }

    /// Truncating an encoded envelope anywhere never panics: cuts inside
    /// the header fail to decode; cuts inside the payload decode to a
    /// shorter payload (the envelope has no own length field — framing
    /// is the transport's job) and every header field survives intact.
    #[test]
    fn truncated_envelope_decodes_or_errors(
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        cut in 0usize..256,
    ) {
        use kera::common::ids::NodeId;
        use kera::wire::frames::OpCode;
        use std::time::Duration;

        let env = Envelope::request(
            OpCode::Produce,
            0xdead_beef,
            NodeId(7),
            bytes::Bytes::from(payload),
        )
        .with_deadline(Duration::from_millis(250));
        let encoded = env.encode();
        let cut = cut % (encoded.len() + 1);
        let truncated = encoded.slice(0..cut);
        match Envelope::decode_bytes(&truncated) {
            Ok(decoded) => {
                prop_assert!(cut >= Envelope::HEADER_LEN);
                prop_assert_eq!(decoded.request_id, env.request_id);
                prop_assert_eq!(decoded.from, env.from);
                prop_assert_eq!(decoded.deadline_micros, env.deadline_micros);
                // The payload is the rest of the frame, in place.
                prop_assert_eq!(
                    window_of(&truncated, &decoded.payload, Envelope::HEADER_LEN),
                    Some(Envelope::HEADER_LEN..cut)
                );
            }
            Err(_) => prop_assert!(cut < Envelope::HEADER_LEN),
        }
    }

    /// A bit-flipped envelope frame either fails to decode (corrupt
    /// kind/opcode/status byte) or decodes into fields that are sane to
    /// re-encode — never a panic, never an out-of-range enum.
    #[test]
    fn bit_flipped_envelope_never_panics(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        flip_byte in 0usize..128,
        flip_bit in 0u8..8,
    ) {
        use kera::common::ids::NodeId;
        use kera::wire::frames::OpCode;

        let env = Envelope::request(
            OpCode::Fetch,
            42,
            NodeId(3),
            bytes::Bytes::from(payload),
        );
        let [_, encoded] = mangle(&env.encode(), 0, flip_byte, flip_bit);
        if let Ok(decoded) = Envelope::decode_bytes(&encoded) {
            // Whatever decoded must round-trip through encode without
            // panicking, and the re-encoding reproduces the mutant frame
            // (modulo the reserved byte, which decode ignores and encode
            // always writes as zero).
            let reencoded = decoded.encode();
            let mut expected = encoded.to_vec();
            expected[3] = 0;
            prop_assert_eq!(&reencoded[..], &expected[..]);
        }
    }

    /// The replicated-coordinator wire surface (DESIGN.md §10): brokers
    /// and coordinator replicas parse these off the network, so arbitrary
    /// bytes must produce `Err`, never a panic.
    ///
    /// A count is the sender's claim: a snapshot claiming more streams, or
    /// an append claiming more entries, than the bytes behind the count
    /// could hold at the element's minimum size (45-byte `StreamMetadata`,
    /// 29-byte `MetaRecord`; d7e7526 bounded both by 8) is refused at the
    /// count, before a `Vec` is sized from it.
    #[test]
    fn meta_plane_decoders_never_panic(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        behind in 0usize..512,
    ) {
        use kera::common::checksum::crc32c;
        use kera::wire::meta::{MetaAppendRequest, MetaSnapshot};

        let data = Bytes::from(data);
        for body in bodies() {
            let _ = (body.probe)(&data);
        }

        let refused_at_the_count = |r: kera::common::Result<()>| match r {
            Err(KeraError::Protocol(msg)) => msg.contains("cannot fit"),
            _ => false,
        };
        // A well-framed snapshot: no brokers, none dead, then the claim.
        let claim = (behind / 45 + 1) as u32;
        let mut snapshot = vec![0u8; 24];
        snapshot.extend_from_slice(&claim.to_le_bytes());
        snapshot.resize(snapshot.len() + behind, 0);
        let mut framed = crc32c(&snapshot).to_le_bytes().to_vec();
        framed.extend_from_slice(&(snapshot.len() as u32).to_le_bytes());
        framed.extend_from_slice(&snapshot);
        prop_assert!(refused_at_the_count(MetaSnapshot::decode(&framed).map(drop)));
        // A heartbeat header, no snapshot, then the claim.
        let mut append = golden("MetaAppendRequest/heartbeat").to_vec();
        append.truncate(37);
        append.extend_from_slice(&((behind / 29 + 1) as u32).to_le_bytes());
        append.resize(append.len() + behind, 0);
        prop_assert!(refused_at_the_count(MetaAppendRequest::decode(&append).map(drop)));
    }

    /// A metadata-log record survives the log only if its CRC32C holds:
    /// any single bit flip anywhere in the frame must surface as a
    /// decode error (checksum or structural), never as a silently
    /// different record — the metadata log is the cluster's source of
    /// truth, so a corrupt `CreateStream` placement would be fatal.
    #[test]
    fn bit_flipped_meta_record_is_always_detected(
        node in 0u32..1000,
        index in 1u64..1_000_000,
        term in 1u64..1_000,
        flip_byte in 0usize..64,
        flip_bit in 0u8..8,
    ) {
        use kera::common::ids::NodeId;
        use kera::wire::meta::{MetaOp, MetaRecord};

        let rec = MetaRecord { index, term, op: MetaOp::RegisterBroker { node: NodeId(node) } };
        let mut buf = rec.encode().unwrap().to_vec();
        let i = flip_byte % buf.len();
        buf[i] ^= 1 << flip_bit;
        // A flip in the checksum field invalidates the checksum; a flip
        // in the body invalidates it too. Nothing may decode to a
        // *different* record with a passing checksum.
        if let Ok(decoded) = MetaRecord::decode(&buf) {
            prop_assert_eq!(decoded, rec, "flip at byte {} bit {} undetected", i, flip_bit);
        }
    }

    /// Truncating an encoded metadata record, snapshot or append frame
    /// at any point errors cleanly (the length prefixes and checksum
    /// bound every read).
    #[test]
    fn truncated_meta_frames_error_cleanly(
        streams in 0u32..4,
        cut_num in 0usize..10_000,
    ) {
        use kera::common::ids::NodeId;
        use kera::wire::meta::{MetaAppendRequest, MetaOp, MetaRecord, MetaSnapshot};

        let entries: Vec<MetaRecord> = (0..streams.max(1) as u64)
            .map(|k| MetaRecord {
                index: k + 1,
                term: 1,
                op: MetaOp::DeleteStream { stream: kera::common::ids::StreamId(k as u32) },
            })
            .collect();
        let req = MetaAppendRequest {
            term: 3,
            leader: NodeId(0),
            prev_index: 0,
            prev_term: 0,
            commit_index: 1,
            snapshot: Some(MetaSnapshot {
                last_index: 0,
                last_term: 0,
                brokers: vec![NodeId(1), NodeId(2)],
                dead: vec![],
                streams: vec![],
            }),
            entries,
        };
        let encoded = req.encode().unwrap();
        let cut = cut_num % encoded.len();
        // Every proper prefix must fail to decode: the frame carries
        // counts and per-record checksums, so a cut can never produce a
        // shorter-but-valid request.
        prop_assert!(MetaAppendRequest::decode(&encoded[..cut]).is_err(), "cut at {} decoded", cut);
    }

    /// Arbitrary bytes through the slicing decoders: `Err` or a message
    /// whose bulk field is the rest of the input (or, for the fetch
    /// responses, windows of it), in place — never a panic, never a copy.
    #[test]
    fn sliced_decoders_window_garbage_or_reject_it(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let b = Bytes::from(data);
        if let Ok(env) = Envelope::decode_bytes(&b) {
            prop_assert_eq!(window_of(&b, &env.payload, Envelope::HEADER_LEN), Some(Envelope::HEADER_LEN..b.len()));
        }
        if let Ok(req) = ProduceRequest::decode_bytes(&b) {
            prop_assert_eq!(
                window_of(&b, &req.chunks, ProduceRequest::HEADER_LEN),
                Some(ProduceRequest::HEADER_LEN..b.len())
            );
            prop_assert!(req.chunk_count as usize * CHUNK_HEADER <= req.chunks.len());
        }
        if let Ok(req) = BackupWriteRequest::decode_bytes(&b) {
            prop_assert_eq!(window_of(&b, &req.chunks, BACKUP_HEADER_LEN), Some(BACKUP_HEADER_LEN..b.len()));
            prop_assert!(req.chunk_count as usize * CHUNK_HEADER <= req.chunks.len());
        }
        if let Ok(resp) = FetchResponse::decode_bytes(&b) {
            prop_assert!(fetch_data_in_place(&b, resp.results.iter().map(|r| &r.data), 24));
        }
        if let Ok(resp) = FollowerFetchResponse::decode_bytes(&b) {
            prop_assert!(fetch_data_in_place(&b, resp.results.iter().map(|r| &r.data), 16));
        }
    }

    /// `chunk_count` is the sender's claim. Both chunk-train decoders
    /// accept it only when the bytes that follow could hold that many
    /// chunk headers, so no handler can be made to reserve memory the
    /// request did not pay for in bytes.
    #[test]
    fn chunk_count_is_bounded_by_the_bytes_that_follow(
        chunk_count in any::<u32>(),
        small_count in 0u32..8,
        body_len in 0usize..(8 * CHUNK_HEADER),
    ) {
        use kera::common::ids::{NodeId, ProducerId, VirtualLogId, VirtualSegmentId};

        for count in [chunk_count, small_count] {
            let fits = u64::from(count) * CHUNK_HEADER as u64 <= body_len as u64;
            let chunks = Bytes::from(vec![0u8; body_len]);
            let produce = ProduceRequest { producer: ProducerId(1), recovery: false, chunk_count: count, chunks: chunks.clone() };
            prop_assert_eq!(ProduceRequest::decode_bytes(&produce.encode()).is_ok(), fits);
            let backup = BackupWriteRequest {
                source_broker: NodeId(1),
                vlog: VirtualLogId(0),
                vseg: VirtualSegmentId(0),
                vseg_offset: 0,
                flags: backup_flags::OPEN,
                vseg_checksum: 0,
                chunk_count: count,
                chunks,
            };
            prop_assert_eq!(BackupWriteRequest::decode_bytes(&backup.encode()).is_ok(), fits);
        }
    }

    /// A real produce request — a packed chunk train — truncated or
    /// bit-flipped anywhere never panics the decoder or the chunk walk
    /// the broker then does, and whenever the mangled frame is accepted
    /// its `chunks` is everything after the header, in place.
    #[test]
    fn mangled_produce_request_decodes_in_place_or_errors(
        nrec in 1usize..16,
        cut_num in 0usize..10_000,
        flip_byte in 0usize..10_000,
        flip_bit in 0u8..8,
    ) {
        use kera::common::ids::ProducerId;

        let encoded = ProduceRequest::encode_chunks(ProducerId(3), false, &chunk_train(nrec));
        let intact = ProduceRequest::decode_bytes(&encoded).unwrap();
        prop_assert_eq!((intact.producer, intact.recovery, intact.chunk_count), (ProducerId(3), false, 2));
        prop_assert_eq!(ChunkIter::new(&intact.chunks).filter(|c| c.is_ok()).count(), 2);

        for frame in mangle(&encoded, cut_num, flip_byte, flip_bit) {
            // A cut inside the header, or one that leaves fewer bytes
            // than the two chunk headers it claims, must be refused.
            let must_fail = frame.len() < ProduceRequest::HEADER_LEN + 2 * CHUNK_HEADER;
            match ProduceRequest::decode_bytes(&frame) {
                Ok(req) => {
                    prop_assert!(!must_fail, "accepted a {}-byte prefix", frame.len());
                    prop_assert_eq!(
                        window_of(&frame, &req.chunks, ProduceRequest::HEADER_LEN),
                        Some(ProduceRequest::HEADER_LEN..frame.len())
                    );
                    let _ = ChunkIter::new(&req.chunks).count();
                }
                Err(_) => prop_assert!(frame != encoded, "intact frame refused"),
            }
        }
    }

    /// Same contract for the replication path: an `EncodedBackupWrite`
    /// body truncated or bit-flipped anywhere is refused or decodes with
    /// `chunks` viewing everything after the header, in place — the
    /// batch a backup retains is never a private copy.
    #[test]
    fn mangled_backup_write_decodes_in_place_or_errors(
        nrec in 1usize..16,
        cut_num in 0usize..10_000,
        flip_byte in 0usize..10_000,
        flip_bit in 0u8..8,
    ) {
        use kera::common::ids::{NodeId, VirtualLogId, VirtualSegmentId};

        let train = chunk_train(nrec);
        let req = EncodedBackupWrite::pack(
            NodeId(2),
            VirtualLogId(7),
            VirtualSegmentId(11),
            640,
            backup_flags::OPEN,
            0,
            2,
            train.iter().map(|c| c.len()).sum(),
            train.iter().map(|c| &c[..]),
        );
        let encoded = req.body();
        let intact = req.request().unwrap();
        prop_assert_eq!(
            (intact.source_broker, intact.vlog, intact.vseg, intact.vseg_offset, intact.flags, intact.chunk_count),
            (NodeId(2), VirtualLogId(7), VirtualSegmentId(11), 640, backup_flags::OPEN, 2)
        );

        for frame in mangle(encoded, cut_num, flip_byte, flip_bit) {
            let must_fail = frame.len() < BACKUP_HEADER_LEN + 2 * CHUNK_HEADER;
            match BackupWriteRequest::decode_bytes(&frame) {
                Ok(req) => {
                    prop_assert!(!must_fail, "accepted a {}-byte prefix", frame.len());
                    prop_assert_eq!(
                        window_of(&frame, &req.chunks, BACKUP_HEADER_LEN),
                        Some(BACKUP_HEADER_LEN..frame.len())
                    );
                    let _ = ChunkIter::new(&req.chunks).count();
                }
                Err(_) => prop_assert!(&frame != encoded, "intact frame refused"),
            }
        }
    }

    /// The read side: consumer and follower fetch responses carrying
    /// chunk trains, truncated or bit-flipped anywhere, are refused or
    /// decode with every `data` a window of the response buffer sitting
    /// exactly where its length prefix says.
    #[test]
    fn mangled_fetch_responses_decode_in_place_or_error(
        nrec in 1usize..8,
        cut_num in 0usize..10_000,
        flip_byte in 0usize..10_000,
        flip_bit in 0u8..8,
    ) {
        use kera::common::ids::{StreamId, StreamletId};
        use kera::wire::cursor::SlotCursor;

        let train = chunk_train(nrec);
        let fetch = FetchResponse {
            results: train
                .iter()
                .map(|c| FetchResult {
                    stream: StreamId(1),
                    streamlet: StreamletId(0),
                    slot: 0,
                    cursor: SlotCursor::START,
                    data: c.clone(),
                })
                .collect(),
        }
        .encode()
        .unwrap();
        prop_assert!(FetchResponse::decode_bytes(&fetch).unwrap().results.iter().map(|r| &r.data).eq(train.iter()));
        for frame in mangle(&fetch, cut_num, flip_byte, flip_bit) {
            if let Ok(resp) = FetchResponse::decode_bytes(&frame) {
                prop_assert!(fetch_data_in_place(&frame, resp.results.iter().map(|r| &r.data), 24));
            }
        }

        let follower = FollowerFetchResponse {
            results: train
                .iter()
                .map(|c| FollowerFetchResult {
                    stream: StreamId(1),
                    partition: StreamletId(0),
                    high_watermark: 7,
                    data: c.clone(),
                })
                .collect(),
        }
        .encode()
        .unwrap();
        prop_assert!(FollowerFetchResponse::decode_bytes(&follower).unwrap().results.iter().map(|r| &r.data).eq(train.iter()));
        for frame in mangle(&follower, cut_num, flip_byte, flip_bit) {
            if let Ok(resp) = FollowerFetchResponse::decode_bytes(&frame) {
                prop_assert!(fetch_data_in_place(&frame, resp.results.iter().map(|r| &r.data), 16));
            }
        }
    }

    /// A record with a corrupted header either fails to parse or fails
    /// to verify — it can never silently pass.
    #[test]
    fn corrupted_record_is_always_detected(
        value in proptest::collection::vec(any::<u8>(), 1..64),
        flip_byte in 0usize..64,
        flip_bit in 0u8..8,
    ) {
        use kera::wire::record::Record;
        let mut buf = Vec::new();
        Record::value_only(&value).encode_into(&mut buf);
        let i = flip_byte % buf.len();
        buf[i] ^= 1 << flip_bit;
        let detected = match RecordView::parse(&buf) {
            Err(_) => true,
            Ok(v) => v.verify().is_err(),
        };
        // Flips inside the checksum field itself also change the stored
        // checksum -> verify fails. Every flip must be detected.
        prop_assert!(detected, "undetected flip at byte {i} bit {flip_bit}");
    }
}
