//! RPC envelopes: opcodes, status codes and frame serialization.
//!
//! The in-memory transport passes [`Envelope`] values through channels
//! directly (the payload `Bytes` is already serialized, so nothing is
//! re-encoded); the TCP transport uses [`Envelope::encode_header`] /
//! [`Envelope::decode_bytes`] with a `u32` length prefix. The one-byte
//! enums are `wire_enum!` declarations; [`OpCode`]'s also names the body
//! each opcode carries and emits [`OpCode::TABLE`].

use bytes::Bytes;
use kera_common::ids::NodeId;
use kera_common::{KeraError, Result};

use crate::codec::{self, wire_enum, Reader, Rest, Sentinel, Wire, Writer};
use crate::messages::*;
use crate::meta::{GetLeaderResponse, MetaAppendRequest, MetaAppendResponse, VoteRequest, VoteResponse};

/// One wire body, type-erased for the suites that must visit every one
/// of them (`tests/fuzz_decoders.rs`, `tests/wire_golden.rs`).
pub struct Body {
    /// The body's type name; `"empty"` and `"raw"` for the untyped shapes.
    pub name: &'static str,
    /// Decodes `buf` with the body's one decoder and re-encodes what it
    /// read: `Err` on anything malformed, the same bytes back for a
    /// canonical encoding.
    pub probe: fn(&Bytes) -> Result<Bytes>,
}

impl Body {
    /// No body: the payload is ignored on receipt and empty on send.
    pub const EMPTY: Body = Body { name: "empty", probe: |_| Ok(Bytes::new()) };
    /// The payload is the data itself (packed chunks, ping filler), bounded
    /// by the envelope's framing alone.
    pub const RAW: Body = Body { name: "raw", probe: |buf| Ok(buf.slice(..)) };

    pub(crate) const fn of<T: Wire>(name: &'static str) -> Body {
        Body { name, probe: |buf| codec::encode(&T::get(&mut Reader::from(buf))?) }
    }
}

wire_enum! {
    /// Every RPC the cluster speaks, with the request and response body
    /// each one carries.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub enum OpCode("opcode") {
        /// Liveness probe.
        Ping = 0 (raw => empty),
        /// Coordinator: create a stream and place its streamlets.
        CreateStream = 1 (CreateStreamRequest => StreamMetadata),
        /// Coordinator: fetch stream metadata (streamlet→broker map, Q).
        GetMetadata = 2 (GetMetadataRequest => StreamMetadata),
        /// Broker: append a set of chunks (the producer request, Fig. 3).
        Produce = 3 (ProduceRequest => ProduceResponse),
        /// Broker: pull chunks for a set of streamlet cursors (consumer).
        Fetch = 4 (FetchRequest => FetchResponse),
        /// Backup: replicate a batch of chunks of one virtual segment.
        BackupWrite = 5 (BackupWriteRequest => BackupWriteResponse),
        /// Backup: drop replicated segments of a vlog (after stream deletion).
        BackupFree = 6 (BackupFreeRequest => empty),
        /// Kafka baseline: follower pull request (passive replication).
        FollowerFetch = 7 (FollowerFetchRequest => FollowerFetchResponse),
        /// Backup: list replicated virtual segments held for a crashed broker.
        RecoveryEnumerate = 8 (RecoveryEnumerateRequest => RecoveryEnumerateResponse),
        /// Backup: read one replicated virtual segment's chunks.
        RecoveryRead = 9 (RecoveryReadRequest => raw),
        /// Broker: re-ingest recovered chunks (handled like a produce).
        RecoveryIngest = 10 (ProduceRequest => ProduceResponse),
        /// Coordinator: report a node crash / trigger recovery.
        ReportCrash = 11 (ReportCrashRequest => CrashReassignmentResponse),
        /// Orderly shutdown.
        Shutdown = 12 (empty => empty),
        /// Coordinator → broker: host streamlets of a stream (leader or, in
        /// the Kafka baseline, follower replicas).
        HostStream = 13 (HostStreamRequest => empty),
        /// Client → coordinator (and coordinator → broker): delete a stream.
        DeleteStream = 14 (DeleteStreamRequest => empty),
        /// Broker: translate a logical record offset into a slot cursor
        /// (lightweight offset index lookup).
        Seek = 15 (SeekRequest => SeekResponse),
        /// Coordinator replica → replica: solicit a vote for a new term.
        RequestVote = 16 (VoteRequest => VoteResponse),
        /// Coordinator leader → follower: replicate a slice of the metadata
        /// log (doubles as the leader heartbeat when the slice is empty).
        MetaAppend = 17 (MetaAppendRequest => MetaAppendResponse),
        /// Any node → coordinator replica: who is the leader right now?
        GetLeader = 18 (empty => GetLeaderResponse),
        // 19 was `QuotaState`; its report is `Introspect`'s health block.
        // The number stays unassigned.
        /// Any node: introspection scrape — health summary, metrics
        /// snapshot and sampled slow traces (`kera-inspect`, not the data
        /// path).
        Introspect = 20 (IntrospectRequest => IntrospectResponse),
    }
}

wire_enum! {
    /// Response status. Mirrors the variants of [`KeraError`] that can cross
    /// the wire; `Ok` for successful responses and all requests.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum StatusCode("status") {
        Ok = 0,
        UnknownStream = 1,
        UnknownStreamlet = 2,
        UnknownGroup = 3,
        StreamExists = 4,
        Corruption = 5,
        ChunkTooLarge = 6,
        NoCapacity = 7,
        ShuttingDown = 8,
        Protocol = 9,
        Recovery = 10,
        Internal = 11,
        NotLeader = 12,
        Throttled = 13,
        Rejected = 14,
    }
}

/// Maps a server-side error to the status carried on the wire.
fn status_for_error(e: &KeraError) -> StatusCode {
    match e {
        KeraError::UnknownStream(_) => StatusCode::UnknownStream,
        KeraError::UnknownStreamlet(_, _) => StatusCode::UnknownStreamlet,
        KeraError::UnknownGroup(_) => StatusCode::UnknownGroup,
        KeraError::StreamExists(_) => StatusCode::StreamExists,
        KeraError::Corruption { .. } => StatusCode::Corruption,
        KeraError::ChunkTooLarge { .. } => StatusCode::ChunkTooLarge,
        KeraError::NoCapacity(_) => StatusCode::NoCapacity,
        KeraError::ShuttingDown => StatusCode::ShuttingDown,
        KeraError::Protocol(_) => StatusCode::Protocol,
        KeraError::Recovery(_) => StatusCode::Recovery,
        KeraError::NotLeader { .. } => StatusCode::NotLeader,
        KeraError::Throttled { .. } => StatusCode::Throttled,
        KeraError::Rejected { .. } => StatusCode::Rejected,
        _ => StatusCode::Internal,
    }
}

wire_enum! {
    /// Request vs response.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum FrameKind("frame kind") {
        Request = 0,
        Response = 1,
    }
}

/// One message on the wire (or in a channel).
#[derive(Clone, Debug)]
pub struct Envelope {
    pub kind: FrameKind,
    pub opcode: OpCode,
    pub status: StatusCode,
    pub request_id: u64,
    pub from: NodeId,
    /// Remaining time budget for this request in microseconds at the
    /// moment it was sent; `0` means no deadline. Servers drop requests
    /// that sat in their queues past this budget instead of doing work
    /// whose caller has already given up (RAMCloud-style deadline
    /// propagation). Meaningless on responses (always `0`).
    pub deadline_micros: u64,
    /// Causal-trace identity of the request (`kera-obs`); `0` on both
    /// fields means "untraced". Responses echo `0` (the caller already
    /// holds its span).
    pub trace_id: u64,
    /// The sender's span at the moment of sending: the parent for
    /// server-side spans. `0` when untraced.
    pub span_id: u64,
    pub payload: Bytes,
}

impl Envelope {
    pub fn request(opcode: OpCode, request_id: u64, from: NodeId, payload: Bytes) -> Self {
        Self {
            kind: FrameKind::Request,
            opcode,
            status: StatusCode::Ok,
            request_id,
            from,
            deadline_micros: 0,
            trace_id: 0,
            span_id: 0,
            payload,
        }
    }

    /// Stamps the remaining time budget onto a request.
    pub fn with_deadline(mut self, budget: std::time::Duration) -> Self {
        // Saturate instead of wrapping; 0 stays "no deadline", so a
        // sub-microsecond budget rounds up to 1.
        self.deadline_micros = u64::try_from(budget.as_micros())
            .unwrap_or(u64::MAX)
            .max(u64::from(!budget.is_zero()));
        self
    }

    /// Stamps the sender's trace context onto a request (`0, 0` leaves
    /// it untraced).
    pub fn with_trace(mut self, trace_id: u64, span_id: u64) -> Self {
        self.trace_id = trace_id;
        self.span_id = span_id;
        self
    }

    pub fn response(
        opcode: OpCode,
        request_id: u64,
        from: NodeId,
        status: StatusCode,
        payload: Bytes,
    ) -> Self {
        Self { kind: FrameKind::Response, status, ..Self::request(opcode, request_id, from, payload) }
    }

    /// An error response carrying the error's message as payload.
    /// `NotLeader` additionally carries its redirect hint and term after
    /// the message (hint `u32::MAX` = no known leader), so the client can
    /// re-resolve without string parsing; `Throttled` likewise carries
    /// its structured retry_after (microseconds) and window hint.
    pub fn error_response(opcode: OpCode, request_id: u64, from: NodeId, e: &KeraError) -> Self {
        let mut w = Writer::default();
        // An error message can never exceed the u32 length field; if it
        // somehow did, the failed write leaves the buffer untouched and
        // the response degrades to a message-less frame (check_status
        // falls back to an empty message).
        let _ = w.put(&e.to_string());
        match e {
            KeraError::NotLeader { hint, term } => {
                let _ = Sentinel::put(hint, &mut w);
                w.u64(*term);
            }
            KeraError::Throttled { retry_after, window_hint } => {
                w.u64(u64::try_from(retry_after.as_micros()).unwrap_or(u64::MAX))
                    .u64(*window_hint);
            }
            _ => {}
        }
        Self::response(opcode, request_id, from, status_for_error(e), w.finish())
    }

    /// Total serialized size (header + payload), used by the bandwidth
    /// model and transport accounting.
    pub fn wire_len(&self) -> usize {
        Self::HEADER_LEN + self.payload.len()
    }

    /// Serialized envelope header length (excluding the outer u32 length
    /// prefix used by stream transports).
    pub const HEADER_LEN: usize = 40;

    /// Serializes just the 40-byte header. The TCP transport writes this
    /// followed by the payload `Bytes` directly, so the payload is never
    /// copied into a combined frame buffer on the send path.
    pub fn encode_header(&self) -> [u8; Self::HEADER_LEN] {
        let mut h = [0u8; Self::HEADER_LEN];
        h[0] = self.kind as u8;
        h[1] = self.opcode as u8;
        h[2] = self.status as u8;
        // h[3] reserved, zero
        h[4..12].copy_from_slice(&self.request_id.to_le_bytes());
        h[12..16].copy_from_slice(&self.from.raw().to_le_bytes());
        h[16..24].copy_from_slice(&self.deadline_micros.to_le_bytes());
        h[24..32].copy_from_slice(&self.trace_id.to_le_bytes());
        h[32..40].copy_from_slice(&self.span_id.to_le_bytes());
        h
    }

    /// Serializes header + payload into one contiguous buffer (copies the
    /// payload; transports prefer [`Envelope::encode_header`] + payload).
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_capacity(Self::HEADER_LEN + self.payload.len());
        w.bytes(&self.encode_header()).bytes(&self.payload);
        w.finish()
    }

    /// Parses an envelope (header + payload, exact) from a shared receive
    /// buffer: the payload is a zero-copy slice of `buf`'s allocation, so
    /// a request body flows from the socket read straight to the broker
    /// without another memcpy.
    pub fn decode_bytes(buf: &Bytes) -> Result<Envelope> {
        let mut r = Reader::from(buf);
        let (kind, opcode, status) = (r.get()?, r.get()?, r.get()?);
        let _reserved: u8 = r.get()?;
        Ok(Envelope {
            kind,
            opcode,
            status,
            request_id: r.get()?,
            from: r.get()?,
            deadline_micros: r.get()?,
            trace_id: r.get()?,
            span_id: r.get()?,
            payload: Rest::get(&mut r)?,
        })
    }

    /// Extracts the error from a response envelope, or `Ok(())` if the
    /// status is Ok: the message, then for `NotLeader` and `Throttled` the
    /// structured fields [`Envelope::error_response`] put behind it. A
    /// malformed or legacy payload degrades to "leader unknown" / "retry
    /// now, no hint" rather than a decode error — the caller re-resolves
    /// or retries anyway.
    pub fn check_status(&self) -> Result<()> {
        if self.status == StatusCode::Ok {
            return Ok(());
        }
        let mut r = Reader::from(&self.payload[..]);
        let message: String = r.get().unwrap_or_default();
        Err(match self.status {
            StatusCode::ShuttingDown => KeraError::ShuttingDown,
            StatusCode::NoCapacity => KeraError::NoCapacity(message),
            StatusCode::Recovery => KeraError::Recovery(message),
            StatusCode::Corruption => KeraError::Corruption { what: "remote", expected: 0, actual: 0 },
            StatusCode::NotLeader => KeraError::NotLeader {
                hint: Sentinel::get(&mut r).unwrap_or(None),
                term: r.get().unwrap_or(0),
            },
            StatusCode::Throttled => KeraError::Throttled {
                retry_after: std::time::Duration::from_micros(r.get().unwrap_or(0)),
                window_hint: r.get().unwrap_or(0),
            },
            StatusCode::Rejected => KeraError::Rejected { reason: message },
            status => KeraError::Protocol(format!("{status:?}: {message}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_roundtrip() {
        for v in (0..=20u8).filter(|&v| v != 19) {
            let op = OpCode::from_u8(v).unwrap();
            assert_eq!(op as u8, v);
        }
        // 19 (the retired `QuotaState`) stays unassigned.
        assert!(matches!(OpCode::from_u8(19), Err(KeraError::Protocol(_))));
        assert!(OpCode::from_u8(200).is_err());
    }

    /// The table is emitted by the enum's own declaration, so it lists
    /// every opcode exactly once, in discriminant order.
    #[test]
    fn table_covers_every_opcode() {
        let listed: Vec<u8> = OpCode::TABLE.iter().map(|(op, _, _)| *op as u8).collect();
        let known: Vec<u8> = (0..=u8::MAX).filter(|&v| OpCode::from_u8(v).is_ok()).collect();
        assert_eq!(listed, known);
        let (_, req, resp) = &OpCode::TABLE[OpCode::Produce as usize];
        assert_eq!((req.name, resp.name), ("ProduceRequest", "ProduceResponse"));
    }

    #[test]
    fn status_roundtrip() {
        for v in 0..=14u8 {
            let s = StatusCode::from_u8(v).unwrap();
            assert_eq!(s as u8, v);
        }
        assert!(StatusCode::from_u8(99).is_err());
    }

    #[test]
    fn envelope_encode_decode() {
        let env = Envelope::request(OpCode::Produce, 42, NodeId(7), Bytes::from_static(b"body"));
        let encoded = env.encode();
        assert_eq!(encoded.len(), env.wire_len());
        let back = Envelope::decode_bytes(&encoded).unwrap();
        assert_eq!(back.kind, FrameKind::Request);
        assert_eq!(back.opcode, OpCode::Produce);
        assert_eq!(back.status, StatusCode::Ok);
        assert_eq!(back.request_id, 42);
        assert_eq!(back.from, NodeId(7));
        assert_eq!(back.trace_id, 0);
        assert_eq!(back.span_id, 0);
        assert_eq!(&back.payload[..], b"body");
    }

    #[test]
    fn envelope_trace_context_roundtrips() {
        let env = Envelope::request(OpCode::Produce, 1, NodeId(3), Bytes::new())
            .with_trace(0xAABB_CCDD_EEFF_0011, 0x1122_3344_5566_7788);
        let back = Envelope::decode_bytes(&env.encode()).unwrap();
        assert_eq!(back.trace_id, 0xAABB_CCDD_EEFF_0011);
        assert_eq!(back.span_id, 0x1122_3344_5566_7788);
    }

    #[test]
    fn error_response_roundtrips_error() {
        let e = KeraError::NoCapacity("only 1 backup".into());
        let env = Envelope::error_response(OpCode::CreateStream, 5, NodeId(0), &e);
        assert_eq!(env.status, StatusCode::NoCapacity);
        let err = env.check_status().unwrap_err();
        match err {
            KeraError::NoCapacity(msg) => assert!(msg.contains("only 1 backup")),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn not_leader_roundtrips_hint_and_term() {
        let e = KeraError::NotLeader { hint: Some(NodeId(3001)), term: 9 };
        let env = Envelope::error_response(OpCode::CreateStream, 8, NodeId(3000), &e);
        assert_eq!(env.status, StatusCode::NotLeader);
        match env.check_status().unwrap_err() {
            KeraError::NotLeader { hint, term } => {
                assert_eq!(hint, Some(NodeId(3001)));
                assert_eq!(term, 9);
            }
            other => panic!("wrong error: {other}"),
        }

        // No known leader: the sentinel survives the trip as None.
        let e = KeraError::NotLeader { hint: None, term: 3 };
        let env = Envelope::error_response(OpCode::GetMetadata, 9, NodeId(3000), &e);
        match env.check_status().unwrap_err() {
            KeraError::NotLeader { hint, term } => {
                assert_eq!(hint, None);
                assert_eq!(term, 3);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn throttled_roundtrips_retry_after_and_hint() {
        let e = KeraError::Throttled {
            retry_after: std::time::Duration::from_micros(2500),
            window_hint: 1 << 20,
        };
        let env = Envelope::error_response(OpCode::Produce, 4, NodeId(1), &e);
        assert_eq!(env.status, StatusCode::Throttled);
        match env.check_status().unwrap_err() {
            KeraError::Throttled { retry_after, window_hint } => {
                assert_eq!(retry_after, std::time::Duration::from_micros(2500));
                assert_eq!(window_hint, 1 << 20);
            }
            other => panic!("wrong error: {other}"),
        }

        // A legacy payload (message only, no extras) degrades gracefully.
        let mut w = Writer::default();
        w.put(&String::from("throttled")).unwrap();
        let env = Envelope::response(OpCode::Produce, 4, NodeId(1), StatusCode::Throttled, w.finish());
        match env.check_status().unwrap_err() {
            KeraError::Throttled { retry_after, window_hint } => {
                assert_eq!(retry_after, std::time::Duration::ZERO);
                assert_eq!(window_hint, 0);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn rejected_roundtrips_reason() {
        let e = KeraError::Rejected { reason: "admission queue full".into() };
        let env = Envelope::error_response(OpCode::Produce, 6, NodeId(2), &e);
        assert_eq!(env.status, StatusCode::Rejected);
        match env.check_status().unwrap_err() {
            KeraError::Rejected { reason } => assert!(reason.contains("admission queue full")),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn ok_response_check_passes() {
        let env =
            Envelope::response(OpCode::Ping, 1, NodeId(1), StatusCode::Ok, Bytes::new());
        env.check_status().unwrap();
    }

    #[test]
    fn status_error_mapping_covers_core_errors() {
        use kera_common::ids::{StreamId, StreamletId};
        assert_eq!(
            status_for_error(&KeraError::UnknownStream(StreamId(1))),
            StatusCode::UnknownStream
        );
        assert_eq!(
            status_for_error(&KeraError::UnknownStreamlet(StreamId(1), StreamletId(2))),
            StatusCode::UnknownStreamlet
        );
        assert_eq!(status_for_error(&KeraError::ShuttingDown), StatusCode::ShuttingDown);
        assert_eq!(
            status_for_error(&KeraError::Timeout { op: "x" }),
            StatusCode::Internal
        );
    }

    #[test]
    fn decode_bytes_slices_the_receive_buffer() {
        let env = Envelope::request(OpCode::Produce, 7, NodeId(1), Bytes::from(vec![9u8; 64]));
        let frame = env.encode();
        let back = Envelope::decode_bytes(&frame).unwrap();
        assert_eq!(back.request_id, 7);
        assert_eq!(&back.payload[..], &env.payload[..]);
        // Zero-copy: the decoded payload is a window into the frame's
        // allocation, not a copy of it.
        assert!(std::ptr::eq(
            back.payload.as_ref().as_ptr(),
            frame.as_ref()[Envelope::HEADER_LEN..].as_ptr()
        ));
        // The header-only encoding is byte-identical to the first 40
        // bytes of the contiguous encoding.
        assert_eq!(&env.encode_header()[..], &frame[..Envelope::HEADER_LEN]);
        // And decode_bytes on a header-only frame yields an empty payload.
        let empty = Envelope::request(OpCode::Ping, 1, NodeId(2), Bytes::new());
        assert!(Envelope::decode_bytes(&empty.encode()).unwrap().payload.is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Envelope::decode_bytes(&Bytes::new()).is_err());
        assert!(Envelope::decode_bytes(&Bytes::from_static(&[9, 0, 0, 0])).is_err());
    }
}
