//! Golden wire bytes: the encoding of one fixed sample of every message
//! body, as literals.
//!
//! The vectors below were printed by the encoders of commit d7e7526 — the
//! last commit whose `messages.rs`/`meta.rs` wrote every layout out by
//! hand, and whose `BackupFree`/`DeleteStream` bodies were inline
//! `Writer` calls in broker, coordinator and client — and have not been
//! touched since, but for two changes: the `Throttled` and `Rejected`
//! error envelopes left with the admission gate that sent them, and
//! `IntrospectResponse` lost that gate's five health fields (its vector
//! is the old one with exactly those bytes cut out). They pin "no
//! change to any byte on the wire" across the move to declared field
//! lists (`wire_struct!`): for each sample, the
//! encoder must produce exactly these bytes, the decoder must read them
//! back to the sample, every strict prefix must be refused (or, for the
//! two rest-of-buffer carriers, decode to a shorter in-place window), and
//! the names here must cover every body of `OpCode::TABLE`.

use std::fmt::Debug;

use bytes::Bytes;
use kera::common::config::{ReplicationConfig, StreamConfig, VirtualLogPolicy};
use kera::common::ids::*;
use kera::common::{KeraError, Result};
use kera::wire::chunk::CHUNK_HEADER;
use kera::wire::cursor::SlotCursor;
use kera::wire::frames::{Envelope, OpCode, StatusCode};
use kera::wire::messages::*;
use kera::wire::meta::*;

#[rustfmt::skip]
pub const GOLDEN: &[(&str, &str)] = &[
    ("CreateStreamRequest/SharedPerBroker", "0300000020000000040000000800000000001000000000000300000000002000000000000004000000"),
    ("CreateStreamRequest/PerStreamlet", "0300000020000000040000000800000000001000000000000300000000002000000000000100000000"),
    ("CreateStreamRequest/PerSubPartition", "0300000020000000040000000800000000001000000000000300000000002000000000000200000000"),
    (
        "StreamMetadata",
        "030000002000000004000000080000000000100000000000030000000000200000000000000400000002000000000000\
         000a000000010000000b000000",
    ),
    ("GetMetadataRequest", "09000000"),
    (
        "HostStreamRequest",
        "030000002000000004000000080000000000100000000000030000000000200000000000000400000002000000000000\
         000a000000010000000b0000000200000000000000000a00000001000000010b000000",
    ),
    (
        "ProduceRequest",
        "080000000102000000000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20212223242526\
         2728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f50515253545556\
         5758595a5b5c5d5e5f606162",
    ),
    (
        "ProduceResponse",
        "0200000001000000020000000300000004000000f4010000000000000600000001000000030000000000000001000000\
         000000000001000001000000",
    ),
    ("FetchRequest", "040000000100000001000000020000000100000001000000020000000300000000000100"),
    (
        "FetchResponse",
        "020000000100000002000000010000000100000002000000630000000d0000007061636b65642d6368756e6b73010000\
         00030000000000000000000000000000000000000000000000",
    ),
    (
        "BackupWriteRequest",
        "010000000200000003000000000000000010000003efbeadde03000000000102030405060708090a0b0c0d0e0f101112\
         131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142\
         434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f707172\
         737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192",
    ),
    ("BackupWriteResponse", "00200000"),
    ("BackupFreeRequest", "0500000006000000"),
    ("DeleteStreamRequest", "4d000000"),
    ("FollowerFetchRequest", "03000000000010000100000001000000000000000903000000000000"),
    ("FollowerFetchResponse", "010000000100000000000000bc02000000000000090000006c6f672d6279746573"),
    ("RecoveryEnumerateRequest", "09000000"),
    ("RecoveryEnumerateResponse", "0200000001000000020000000000000003000000010100000003000000000000000000000000"),
    ("RecoveryReadRequest", "09000000010000000200000000000000"),
    ("ReportCrashRequest", "05000000"),
    ("CrashReassignmentResponse", "0100000007000000010000000c000000"),
    ("SeekRequest", "0100000002000000030000003930000000000000"),
    ("SeekResponse", "01010000000200000003000000"),
    ("IntrospectRequest", "07000000"),
    (
        "IntrospectResponse",
        "b90b0000020104000000000000000500000006000000000010000000000000f00f000000000000020000000000000300\
         00006300000000000000fa0000000f0000007b22636f756e74657273223a7b7d7d020000005b5d",
    ),
    ("VoteRequest", "0500000000000000b90b00000c000000000000000400000000000000"),
    ("VoteResponse", "050000000000000001"),
    (
        "MetaAppendRequest/snapshot",
        "0500000000000000b90b00000b0000000000000004000000000000000a00000000000000012b727d1069000000110000\
         000000000004000000000000000300000001000000020000000300000001000000020000000100000003000000200000\
         0004000000080000000000100000000000030000000000200000000000000400000002000000000000000a0000000100\
         00000b00000002000000040bffbc150000000c0000000000000005000000000000000001000000c3bb9205150000000d\
         0000000000000005000000000000000207000000",
    ),
    ("MetaAppendRequest/heartbeat", "0200000000000000b80b00000000000000000000000000000000000000000000000000000000000000"),
    ("MetaAppendResponse", "0500000000000000010700000000000000"),
    ("GetLeaderResponse/known", "ba0b0000060000000000000001"),
    ("GetLeaderResponse/unknown", "ffffffff000000000000000000"),
    ("MetaRecord/RegisterBroker", "7ef5e84b15000000010000000000000005000000000000000004000000"),
    (
        "MetaRecord/CreateStream",
        "8fa0e7034e00000002000000000000000500000000000000010300000020000000040000000800000000001000000000\
         00030000000000200000000000000400000002000000000000000a000000010000000b000000",
    ),
    ("MetaRecord/DeleteStream", "c558fc4315000000030000000000000005000000000000000207000000"),
    ("MetaRecord/MarkDead", "c4ba1035250000000400000000000000050000000000000003010000000100000007000000010000000c000000"),
    (
        "MetaSnapshot",
        "2b727d106900000011000000000000000400000000000000030000000100000002000000030000000100000002000000\
         010000000300000020000000040000000800000000001000000000000300000000002000000000000004000000020000\
         00000000000a000000010000000b000000",
    ),
    ("Envelope/request", "0003000008070605040302010700000090d00300000000001100ffeeddccbbaa8877665544332211626f6479"),
    (
        "Envelope/NotLeader",
        "01010c000800000000000000b80b0000000000000000000000000000000000000000000000000000290000006e6f7420\
         746865206c656164657220287465726d20392c20747279204e6f6465496428333030312929b90b000009000000000000\
         00",
    ),
    (
        "Envelope/NotLeader-unknown",
        "01020c000900000000000000b80b0000000000000000000000000000000000000000000000000000270000006e6f7420\
         746865206c656164657220287465726d20332c206c656164657220756e6b6e6f776e29ffffffff0300000000000000",
    ),
];

pub fn golden(name: &str) -> Bytes {
    let hex = GOLDEN.iter().find(|(n, _)| *n == name).unwrap_or_else(|| panic!("no vector named {name}")).1;
    let nibble = |c: u8| (c as char).to_digit(16).unwrap() as u8;
    Bytes::from(hex.as_bytes().chunks(2).map(|p| nibble(p[0]) << 4 | nibble(p[1])).collect::<Vec<u8>>())
}

/// Both encoder flavours as plain bytes.
trait Encoded {
    fn bytes(self) -> Bytes;
}
impl Encoded for Bytes {
    fn bytes(self) -> Bytes {
        self
    }
}
impl Encoded for Result<Bytes> {
    fn bytes(self) -> Bytes {
        self.unwrap()
    }
}

/// One sample against its vector. `tail` names the rest-of-buffer field
/// of the two chunk-train carriers; every other body must refuse every
/// strict prefix.
fn check<T: PartialEq + Debug>(
    seen: &mut Vec<&'static str>,
    name: &'static str,
    value: T,
    encode: impl Fn(&T) -> Bytes,
    decode: impl Fn(&Bytes) -> Result<T>,
    tail: Option<fn(&T) -> &Bytes>,
) {
    let expected = golden(name);
    assert_eq!(encode(&value), expected, "{name}: encoder drifted from the golden bytes");
    assert_eq!(decode(&expected).unwrap(), value, "{name}: golden bytes decode to a different value");
    for cut in 0..expected.len() {
        let prefix = expected.slice(..cut);
        match (decode(&prefix), tail) {
            (Err(_), _) => {}
            (Ok(short), Some(tail)) => {
                let header = expected.len() - tail(&value).len();
                let window = tail(&short);
                assert_eq!(window.len(), cut - header, "{name}: cut at {cut}");
                assert!(
                    window.is_empty() || std::ptr::eq(window.as_ref().as_ptr(), prefix[header..].as_ptr()),
                    "{name}: cut at {cut} decoded to a copy"
                );
            }
            (Ok(_), None) => panic!("{name}: {cut}-byte prefix of {} decoded", expected.len()),
        }
    }
    seen.push(name);
}

macro_rules! case {
    ($seen:ident, $name:literal, $ty:ident::$decode:ident, $value:expr $(, tail = $tail:ident)?) => {
        check(
            &mut $seen,
            $name,
            $value,
            |v: &$ty| v.encode().bytes(),
            |b: &Bytes| $ty::$decode(b),
            None::<fn(&$ty) -> &Bytes>$(.or(Some(|v: &$ty| &v.$tail)))?,
        )
    };
}

fn config(policy: VirtualLogPolicy) -> StreamConfig {
    StreamConfig {
        id: StreamId(3),
        streamlets: 32,
        active_groups: 4,
        segments_per_group: 8,
        segment_size: 1 << 20,
        replication: ReplicationConfig { factor: 3, policy, vseg_size: 1 << 21 },
    }
}

fn metadata() -> StreamMetadata {
    StreamMetadata {
        config: config(VirtualLogPolicy::SharedPerBroker(4)),
        placements: vec![
            StreamletPlacement { streamlet: StreamletId(0), broker: NodeId(10) },
            StreamletPlacement { streamlet: StreamletId(1), broker: NodeId(11) },
        ],
    }
}

fn reassignment() -> Reassignment {
    Reassignment { stream: StreamId(7), streamlet: StreamletId(1), new_broker: NodeId(12) }
}

fn snapshot() -> MetaSnapshot {
    MetaSnapshot {
        last_index: 17,
        last_term: 4,
        brokers: vec![NodeId(1), NodeId(2), NodeId(3)],
        dead: vec![NodeId(2)],
        streams: vec![metadata()],
    }
}

fn record(index: u64, op: MetaOp) -> MetaRecord {
    MetaRecord { index, term: 5, op }
}

fn chunks(n: usize) -> Bytes {
    Bytes::from((0..n * CHUNK_HEADER + 3).map(|i| i as u8).collect::<Vec<u8>>())
}


#[test]
fn every_body_matches_the_bytes_of_the_hand_written_encoders() {
    use VirtualLogPolicy::*;
    let mut seen = Vec::new();

    case!(seen, "CreateStreamRequest/SharedPerBroker", CreateStreamRequest::decode, CreateStreamRequest { config: config(SharedPerBroker(4)) });
    case!(seen, "CreateStreamRequest/PerStreamlet", CreateStreamRequest::decode, CreateStreamRequest { config: config(PerStreamlet) });
    case!(seen, "CreateStreamRequest/PerSubPartition", CreateStreamRequest::decode, CreateStreamRequest { config: config(PerSubPartition) });
    case!(seen, "StreamMetadata", StreamMetadata::decode, metadata());
    case!(seen, "GetMetadataRequest", GetMetadataRequest::decode, GetMetadataRequest { stream: StreamId(9) });
    case!(seen, "HostStreamRequest", HostStreamRequest::decode, HostStreamRequest {
        metadata: metadata(),
        assignments: vec![
            HostAssignment { streamlet: StreamletId(0), role: ReplicaRole::Leader, leader: NodeId(10) },
            HostAssignment { streamlet: StreamletId(1), role: ReplicaRole::Follower, leader: NodeId(11) },
        ],
    });
    case!(
        seen,
        "ProduceRequest",
        ProduceRequest::decode_bytes,
        ProduceRequest { producer: ProducerId(8), recovery: true, chunk_count: 2, chunks: chunks(2) },
        tail = chunks
    );
    case!(seen, "ProduceResponse", ProduceResponse::decode, ProduceResponse {
        acks: vec![
            ChunkAck { stream: StreamId(1), streamlet: StreamletId(2), group: 3, segment: 4, base_offset: 500, records: 6 },
            ChunkAck { stream: StreamId(1), streamlet: StreamletId(3), group: 0, segment: 1, base_offset: 1 << 40, records: 1 },
        ],
    });
    case!(seen, "FetchRequest", FetchRequest::decode, FetchRequest {
        consumer: ConsumerId(4),
        entries: vec![FetchEntry {
            stream: StreamId(1),
            streamlet: StreamletId(2),
            slot: 1,
            cursor: SlotCursor { chain: 1, segment: 2, offset: 3 },
            max_bytes: 65536,
        }],
    });
    case!(seen, "FetchResponse", FetchResponse::decode_bytes, FetchResponse {
        results: vec![
            FetchResult {
                stream: StreamId(1),
                streamlet: StreamletId(2),
                slot: 1,
                cursor: SlotCursor { chain: 1, segment: 2, offset: 99 },
                data: Bytes::from_static(b"packed-chunks"),
            },
            FetchResult { stream: StreamId(1), streamlet: StreamletId(3), slot: 0, cursor: SlotCursor::START, data: Bytes::new() },
        ],
    });
    case!(
        seen,
        "BackupWriteRequest",
        BackupWriteRequest::decode_bytes,
        BackupWriteRequest {
            source_broker: NodeId(1),
            vlog: VirtualLogId(2),
            vseg: VirtualSegmentId(3),
            vseg_offset: 4096,
            flags: backup_flags::OPEN | backup_flags::CLOSE,
            vseg_checksum: 0xdead_beef,
            chunk_count: 3,
            chunks: chunks(3),
        },
        tail = chunks
    );
    case!(seen, "BackupWriteResponse", BackupWriteResponse::decode, BackupWriteResponse { durable_offset: 8192 });
    case!(seen, "BackupFreeRequest", BackupFreeRequest::decode, BackupFreeRequest { source: NodeId(5), vlog: VirtualLogId(6) });
    case!(seen, "DeleteStreamRequest", DeleteStreamRequest::decode, DeleteStreamRequest { stream: StreamId(77) });
    case!(seen, "FollowerFetchRequest", FollowerFetchRequest::decode, FollowerFetchRequest {
        follower: NodeId(3),
        max_bytes_per_partition: 1 << 20,
        entries: vec![FollowerFetchEntry { stream: StreamId(1), partition: StreamletId(0), fetch_offset: 777 }],
    });
    case!(seen, "FollowerFetchResponse", FollowerFetchResponse::decode_bytes, FollowerFetchResponse {
        results: vec![FollowerFetchResult {
            stream: StreamId(1),
            partition: StreamletId(0),
            high_watermark: 700,
            data: Bytes::from_static(b"log-bytes"),
        }],
    });
    case!(seen, "RecoveryEnumerateRequest", RecoveryEnumerateRequest::decode, RecoveryEnumerateRequest { crashed_broker: NodeId(9) });
    case!(seen, "RecoveryEnumerateResponse", RecoveryEnumerateResponse::decode, RecoveryEnumerateResponse {
        segments: vec![
            ReplicatedSegmentInfo { vlog: VirtualLogId(1), vseg: VirtualSegmentId(2), len: 3, closed: true },
            ReplicatedSegmentInfo { vlog: VirtualLogId(1), vseg: VirtualSegmentId(3), len: 0, closed: false },
        ],
    });
    case!(seen, "RecoveryReadRequest", RecoveryReadRequest::decode, RecoveryReadRequest {
        crashed_broker: NodeId(9),
        vlog: VirtualLogId(1),
        vseg: VirtualSegmentId(2),
    });
    case!(seen, "ReportCrashRequest", ReportCrashRequest::decode, ReportCrashRequest { node: NodeId(5) });
    case!(seen, "CrashReassignmentResponse", CrashReassignmentResponse::decode, CrashReassignmentResponse {
        reassignments: vec![reassignment()],
    });
    case!(seen, "SeekRequest", SeekRequest::decode, SeekRequest {
        stream: StreamId(1),
        streamlet: StreamletId(2),
        slot: 3,
        record_offset: 12345,
    });
    case!(seen, "SeekResponse", SeekResponse::decode, SeekResponse { found: true, cursor: SlotCursor { chain: 1, segment: 2, offset: 3 } });
    case!(seen, "IntrospectRequest", IntrospectRequest::decode, IntrospectRequest { sections: introspect_sections::ALL });
    case!(seen, "IntrospectResponse", IntrospectResponse::decode, IntrospectResponse {
        node: 3001,
        role: NodeRole::Coordinator,
        is_leader: true,
        term: 4,
        vlogs: 5,
        segments: 6,
        appended_bytes: 1 << 20,
        durable_bytes: (1 << 20) - 4096,
        consumer_lag_bytes: 512,
        inflight: 3,
        progress: 99,
        watchdog_ms: 250,
        metrics_json: "{\"counters\":{}}".into(),
        traces_json: "[]".into(),
    });
    case!(seen, "VoteRequest", VoteRequest::decode, VoteRequest { term: 5, candidate: NodeId(3001), last_log_index: 12, last_log_term: 4 });
    case!(seen, "VoteResponse", VoteResponse::decode, VoteResponse { term: 5, granted: true });
    case!(seen, "MetaAppendRequest/snapshot", MetaAppendRequest::decode, MetaAppendRequest {
        term: 5,
        leader: NodeId(3001),
        prev_index: 11,
        prev_term: 4,
        commit_index: 10,
        snapshot: Some(snapshot()),
        entries: vec![
            record(12, MetaOp::RegisterBroker { node: NodeId(1) }),
            record(13, MetaOp::DeleteStream { stream: StreamId(7) }),
        ],
    });
    case!(seen, "MetaAppendRequest/heartbeat", MetaAppendRequest::decode, MetaAppendRequest {
        term: 2,
        leader: NodeId(3000),
        prev_index: 0,
        prev_term: 0,
        commit_index: 0,
        snapshot: None,
        entries: vec![],
    });
    case!(seen, "MetaAppendResponse", MetaAppendResponse::decode, MetaAppendResponse { term: 5, success: true, match_index: 7 });
    case!(seen, "GetLeaderResponse/known", GetLeaderResponse::decode, GetLeaderResponse { leader: Some(NodeId(3002)), term: 6, is_leader: true });
    case!(seen, "GetLeaderResponse/unknown", GetLeaderResponse::decode, GetLeaderResponse { leader: None, term: 0, is_leader: false });
    case!(seen, "MetaRecord/RegisterBroker", MetaRecord::decode, record(1, MetaOp::RegisterBroker { node: NodeId(4) }));
    case!(seen, "MetaRecord/CreateStream", MetaRecord::decode, record(2, MetaOp::CreateStream { metadata: metadata() }));
    case!(seen, "MetaRecord/DeleteStream", MetaRecord::decode, record(3, MetaOp::DeleteStream { stream: StreamId(7) }));
    case!(seen, "MetaRecord/MarkDead", MetaRecord::decode, record(4, MetaOp::MarkDead { node: NodeId(1), reassignments: vec![reassignment()] }));
    case!(seen, "MetaSnapshot", MetaSnapshot::decode, snapshot());

    // Every body vector was checked, and every typed body of the opcode
    // table has at least one vector — which its table probe (decode, then
    // re-encode) reproduces byte for byte.
    let bodies = GOLDEN.iter().filter(|(name, _)| !name.starts_with("Envelope/"));
    assert!(bodies.clone().map(|(name, _)| name).eq(seen.iter()), "vectors and cases differ: {seen:?}");
    for (op, request, response) in OpCode::TABLE {
        for body in [request, response] {
            let mut vectors = bodies.clone().filter(|(name, _)| name.split('/').next() == Some(body.name)).peekable();
            assert!(
                vectors.peek().is_some() || ["empty", "raw"].contains(&body.name),
                "{op:?} carries {}, which has no golden vector",
                body.name
            );
            for (name, _) in vectors {
                assert_eq!((body.probe)(&golden(name)).unwrap(), golden(name), "{name} via the table");
            }
        }
    }
}

/// The envelope header and the structured error payloads that ride
/// behind an error message.
#[test]
fn envelope_and_error_payloads_match_the_golden_bytes() {
    let request = Envelope::request(OpCode::Produce, 0x0102_0304_0506_0708, NodeId(7), Bytes::from_static(b"body"))
        .with_deadline(std::time::Duration::from_millis(250))
        .with_trace(0xAABB_CCDD_EEFF_0011, 0x1122_3344_5566_7788);
    assert_eq!(request.encode(), golden("Envelope/request"));
    let back = Envelope::decode_bytes(&golden("Envelope/request")).unwrap();
    assert_eq!(
        (back.opcode, back.status, back.request_id, back.from, back.deadline_micros, back.trace_id, back.span_id),
        (OpCode::Produce, StatusCode::Ok, request.request_id, NodeId(7), 250_000, request.trace_id, request.span_id)
    );
    assert_eq!(&back.payload[..], b"body");

    let not_leader = KeraError::NotLeader { hint: Some(NodeId(3001)), term: 9 };
    let leaderless = KeraError::NotLeader { hint: None, term: 3 };
    for (name, opcode, id, from, err) in [
        ("Envelope/NotLeader", OpCode::CreateStream, 8, 3000, &not_leader),
        ("Envelope/NotLeader-unknown", OpCode::GetMetadata, 9, 3000, &leaderless),
    ] {
        assert_eq!(Envelope::error_response(opcode, id, NodeId(from), err).encode(), golden(name), "{name}");
        let decoded = Envelope::decode_bytes(&golden(name)).unwrap().check_status().unwrap_err();
        assert_eq!(format!("{decoded:?}"), format!("{err:?}"), "{name}");
    }
}
