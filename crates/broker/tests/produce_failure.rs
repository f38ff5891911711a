//! Failure semantics of the produce path, end to end: a real broker
//! shipping to two scripted backups — real `BackupService`s behind a
//! `Service` that can be told to refuse the next writes (answered with
//! an error, nothing applied) or to hold the next one until released.
//! Nothing retries a failed replication round in the background; the
//! producer's re-sent request does, through the replay path.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use kera_broker::backup::BackupService;
use kera_broker::broker::BrokerService;
use kera_common::config::{ReplicationConfig, StreamConfig, VirtualLogPolicy};
use kera_common::ids::{ConsumerId, NodeId, ProducerId, StreamId, StreamletId};
use kera_common::{KeraError, Result};
use kera_rpc::{InMemNetwork, NodeRuntime, NullService, RequestContext, RpcClient, Service};
use kera_wire::chunk::ChunkBuilder;
use kera_wire::cursor::SlotCursor;
use kera_wire::frames::OpCode;
use kera_wire::messages::{
    FetchEntry, FetchRequest, FetchResponse, HostAssignment, HostStreamRequest, ProduceRequest,
    ProduceResponse, ReplicaRole, StreamMetadata, StreamletPlacement,
};
use kera_wire::record::Record;
use parking_lot::Mutex;

const BROKER: NodeId = NodeId(1);
const BACKUP_A: NodeId = NodeId(100);
const BACKUP_B: NodeId = NodeId(101);
const STREAM: StreamId = StreamId(1);
const WAIT: Duration = Duration::from_secs(5);

struct ScriptedBackup {
    inner: Arc<BackupService>,
    /// `BackupWrite`s still to refuse.
    refuse: AtomicU32,
    /// Set: the next `BackupWrite` says so on the sender, then waits on
    /// the receiver before it is applied.
    hold: Mutex<Option<(Sender<()>, Receiver<()>)>>,
}

impl ScriptedBackup {
    /// Holds the next write: returns where it says it arrived and what
    /// releases it.
    fn hold_next(&self) -> (Receiver<()>, Sender<()>) {
        let (arrived_tx, arrived) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        *self.hold.lock() = Some((arrived_tx, release_rx));
        (arrived, release)
    }
}

impl Service for ScriptedBackup {
    fn handle(&self, ctx: &RequestContext, payload: Bytes) -> Result<Bytes> {
        if ctx.opcode != OpCode::BackupWrite {
            return self.inner.handle(ctx, payload);
        }
        let take_one = |n: u32| n.checked_sub(1);
        if self.refuse.fetch_update(Ordering::SeqCst, Ordering::SeqCst, take_one).is_ok() {
            return Err(KeraError::Protocol("scripted: write refused".into()));
        }
        let hold = self.hold.lock().take();
        if let Some((arrived, release)) = hold {
            arrived.send(()).unwrap();
            release.recv().unwrap();
        }
        self.inner.handle(ctx, payload)
    }
}

/// A broker hosting the one streamlet of an R3 stream, its two scripted
/// backups and a client node, on an in-memory fabric.
struct Rig {
    broker: Arc<BrokerService>,
    backups: Vec<Arc<ScriptedBackup>>,
    client: RpcClient,
    _nodes: Vec<NodeRuntime>,
}

impl Rig {
    fn new() -> Rig {
        let net = InMemNetwork::new();
        let backups: Vec<Arc<ScriptedBackup>> = [BACKUP_A, BACKUP_B]
            .into_iter()
            .map(|id| {
                let inner = BackupService::new(id, None);
                let (refuse, hold) = (AtomicU32::new(0), Mutex::new(None));
                Arc::new(ScriptedBackup { inner, refuse, hold })
            })
            .collect();
        let mut nodes: Vec<NodeRuntime> = backups
            .iter()
            .map(|b| {
                let svc = Arc::clone(b) as Arc<dyn Service>;
                NodeRuntime::start(Arc::new(net.register(b.inner.node())), svc, 1)
            })
            .collect();
        let broker =
            BrokerService::new(BROKER, NodeId(1001), vec![NodeId(1001), BACKUP_A, BACKUP_B]);
        let broker_rt = NodeRuntime::start(
            Arc::new(net.register(BROKER)),
            Arc::clone(&broker) as Arc<dyn Service>,
            2,
        );
        broker.attach_client(broker_rt.client());
        let client_rt =
            NodeRuntime::start(Arc::new(net.register(NodeId(9))), Arc::new(NullService), 1);
        let client = client_rt.client();
        nodes.extend([broker_rt, client_rt]);

        let metadata = StreamMetadata {
            config: StreamConfig {
                replication: ReplicationConfig {
                    factor: 3,
                    policy: VirtualLogPolicy::PerStreamlet,
                    vseg_size: 1 << 18,
                },
                ..StreamConfig::kafka_like(STREAM, 1)
            },
            placements: vec![StreamletPlacement { streamlet: StreamletId(0), broker: BROKER }],
        };
        let host = HostStreamRequest {
            metadata,
            assignments: vec![HostAssignment {
                streamlet: StreamletId(0),
                role: ReplicaRole::Leader,
                leader: BROKER,
            }],
        };
        client.call(BROKER, OpCode::HostStream, host.encode(), WAIT).unwrap();
        Rig { broker, backups, client, _nodes: nodes }
    }

    fn produce(&self, request: &Bytes) -> Result<usize> {
        let resp = self.client.call(BROKER, OpCode::Produce, request.clone(), WAIT)?;
        Ok(ProduceResponse::decode(&resp)?.acks.len())
    }

    /// Bytes held by backup A and backup B.
    fn held(&self) -> (usize, usize) {
        (self.backups[0].inner.bytes_held(), self.backups[1].inner.bytes_held())
    }

    /// Everything a consumer starting from the beginning is served.
    fn visible(&self) -> usize {
        let req = FetchRequest {
            consumer: ConsumerId(1),
            entries: vec![FetchEntry {
                stream: STREAM,
                streamlet: StreamletId(0),
                slot: 0,
                cursor: SlotCursor::START,
                max_bytes: 1 << 20,
            }],
        };
        let resp = self.client.call(BROKER, OpCode::Fetch, req.encode(), WAIT).unwrap();
        FetchResponse::decode_bytes(&resp).unwrap().results[0].data.len()
    }
}

/// A one-chunk produce request carrying sequence tag `seq`, and the
/// chunk's length.
fn request(seq: u64) -> (Bytes, usize) {
    let mut b = ChunkBuilder::new(1024, ProducerId(7), STREAM, StreamletId(0));
    b.append(&Record::value_only(&[seq as u8; 100]));
    let chunk = b.seal_with_sequence(seq);
    (ProduceRequest::encode_chunks(ProducerId(7), false, std::slice::from_ref(&chunk)), chunk.len())
}

#[test]
fn a_failed_round_fails_the_produce_and_the_resend_ships_it_once() {
    let rig = Rig::new();
    let (request, len) = request(1);

    // Backup B refuses the write: the round fails and so does the produce.
    rig.backups[1].refuse.store(2, Ordering::SeqCst);
    let err = rig.produce(&request).unwrap_err();
    assert!(matches!(err, KeraError::Protocol(_)), "got {err}");
    assert_eq!(rig.broker.chunks_in.get(), 1, "the chunk stays appended");
    assert_eq!(rig.held(), (len, 0));
    // Stranded: unacknowledged and invisible, and nobody ships it behind
    // the producer's back.
    assert_eq!(rig.visible(), 0, "a chunk that is not durable was served");
    assert_eq!(rig.backups[1].refuse.load(Ordering::SeqCst), 1, "a background retry shipped it");

    // The re-sent request (same sequence tag) is a replay, and a replay
    // is not an acknowledgement: it gates on the original ticket, so it
    // ships the stranded chunk — and fails with that round.
    let err = rig.produce(&request).unwrap_err();
    assert!(matches!(err, KeraError::Protocol(_)), "got {err}");
    assert_eq!(rig.broker.chunks_replayed.get(), 1);
    assert_eq!(rig.visible(), 0);

    // Sent again with the backup healed, it is answered once the
    // original ticket is durable; nothing was appended twice anywhere.
    assert_eq!(rig.produce(&request).unwrap(), 1);
    assert_eq!((rig.broker.chunks_in.get(), rig.broker.chunks_replayed.get()), (1, 2));
    for log in rig.broker.vlogs().all_logs() {
        assert_eq!(log.durable(), log.appended());
    }
    assert_eq!(rig.held(), (len, len));
    assert_eq!(rig.visible(), len, "exactly the one chunk is visible");
}

/// The next round on a log carries what a failed round left pending —
/// here a different request's — and a backup the failed round did reach
/// takes only what is new to it.
#[test]
fn the_next_round_on_the_log_ships_what_a_failed_round_stranded() {
    let rig = Rig::new();
    let (first, first_len) = request(1);
    let (second, second_len) = request(2);

    rig.backups[1].refuse.store(1, Ordering::SeqCst);
    rig.produce(&first).unwrap_err();
    assert_eq!(rig.held(), (first_len, 0));

    assert_eq!(rig.produce(&second).unwrap(), 1);
    let both = first_len + second_len;
    assert_eq!(rig.held(), (both, both));
    assert_eq!(rig.visible(), both);

    // The first request's re-send finds its ticket durable already.
    assert_eq!(rig.produce(&first).unwrap(), 1);
    assert_eq!((rig.broker.chunks_in.get(), rig.broker.chunks_replayed.get()), (2, 1));
    assert_eq!(rig.held(), (both, both));
}

/// A round lands only when every write of it has: one backup refuses its
/// write while the other holds its own, and the produce is not answered —
/// its round not failed — until the held write is released and applied.
/// Both orders, since the fan-out's backup order is the selector's.
#[test]
fn a_refused_write_waits_for_the_rest_of_its_round() {
    for (refusing, holding) in [(0, 1), (1, 0)] {
        let rig = Rig::new();
        let (request, len) = request(1);
        rig.backups[refusing].refuse.store(1, Ordering::SeqCst);
        let (arrived, release) = rig.backups[holding].hold_next();
        let (answered_tx, answered) = mpsc::channel();
        let client = rig.client.clone();
        let producer = std::thread::spawn(move || {
            let _ = answered_tx.send(client.call(BROKER, OpCode::Produce, request, WAIT));
        });
        arrived.recv_timeout(WAIT).expect("the held backup never got its write");
        let deadline = std::time::Instant::now() + WAIT;
        while rig.backups[refusing].refuse.load(Ordering::SeqCst) > 0 {
            assert!(std::time::Instant::now() < deadline, "the write was never refused");
            std::thread::yield_now();
        }
        assert!(
            answered.recv_timeout(Duration::from_millis(200)).is_err(),
            "answered while a write of its round was in flight (backup {holding} held)"
        );
        release.send(()).unwrap();
        let err = answered.recv_timeout(WAIT).unwrap().unwrap_err();
        producer.join().unwrap();
        assert!(matches!(err, KeraError::Protocol(_)), "got {err}");
        let mut held = [0, 0];
        held[holding] = len;
        assert_eq!(rig.held(), (held[0], held[1]), "the held write was not applied first");
        assert_eq!(rig.visible(), 0);
    }
}
