//! Focused tests for the replication channel fan-out and coordinator
//! behaviours that the end-to-end suites only exercise implicitly.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use kera_broker::backup::BackupService;
use kera_broker::channel::RpcBackupChannel;
use kera_broker::cluster::{backup_node, broker_node, KeraCluster, COORDINATOR};
use kera_common::config::{ClusterConfig, ReplicationConfig, StreamConfig, VirtualLogPolicy};
use kera_common::ids::*;
use kera_common::{KeraError, Result};
use kera_rpc::{InMemNetwork, NodeRuntime, NullService};
use kera_vlog::channel::{Acked, BackupChannel};
use kera_wire::chunk::ChunkBuilder;
use kera_wire::frames::OpCode;
use kera_wire::messages::{
    backup_flags, BackupWriteRequest, CreateStreamRequest, EncodedBackupWrite, GetMetadataRequest,
    ReportCrashRequest, StreamMetadata,
};
use kera_wire::record::Record;

fn chunk_bytes() -> Bytes {
    let mut b = ChunkBuilder::new(1024, ProducerId(0), StreamId(1), StreamletId(0));
    b.append(&Record::value_only(&[5u8; 64]));
    b.seal()
}

/// Starts `req` on `channel` and waits, as nothing in the broker does, for
/// every backup's answer: the first failure.
fn write(channel: &RpcBackupChannel, backups: &[NodeId], req: &EncodedBackupWrite) -> Result<()> {
    let (tx, rx) = std::sync::mpsc::channel();
    let acked = backups.iter().map(|_| {
        let tx = tx.clone();
        Box::new(move |_: &dyn BackupChannel, acks| drop(tx.send(acks))) as Acked
    });
    channel.start(backups, req, acked.collect());
    let wait = Duration::from_secs(10);
    backups.iter().try_for_each(|_| rx.recv_timeout(wait).expect("every backup answers"))
}

fn write_req(chunks: Bytes, count: u32) -> EncodedBackupWrite {
    EncodedBackupWrite::from_request(&BackupWriteRequest {
        source_broker: NodeId(1),
        vlog: VirtualLogId(0),
        vseg: VirtualSegmentId(0),
        vseg_offset: 0,
        flags: backup_flags::OPEN,
        vseg_checksum: 0,
        chunk_count: count,
        chunks,
    })
}

#[test]
fn channel_fans_out_to_every_backup() {
    let net = InMemNetwork::new();
    let backups: Vec<Arc<BackupService>> =
        (0..3).map(|i| BackupService::new(NodeId(100 + i), None)).collect();
    let _rts: Vec<NodeRuntime> = backups
        .iter()
        .enumerate()
        .map(|(i, svc)| {
            NodeRuntime::start(
                Arc::new(net.register(NodeId(100 + i as u32))),
                Arc::clone(svc) as Arc<dyn kera_rpc::Service>,
                1,
            )
        })
        .collect();
    let caller = NodeRuntime::start(Arc::new(net.register(NodeId(1))), Arc::new(NullService), 1);
    let channel = RpcBackupChannel::new(caller.client(), Duration::from_secs(2));

    let c = chunk_bytes();
    let targets: Vec<NodeId> = (0..3).map(|i| NodeId(100 + i)).collect();
    write(&channel, &targets, &write_req(c.clone(), 1)).unwrap();
    for b in &backups {
        assert_eq!(b.bytes_held(), c.len(), "every backup must hold the batch");
        assert_eq!(b.chunks_received.get(), 1);
    }
}

#[test]
fn channel_normalizes_dead_backup_to_disconnected() {
    let net = InMemNetwork::new();
    let alive = BackupService::new(NodeId(100), None);
    let _rt = NodeRuntime::start(
        Arc::new(net.register(NodeId(100))),
        Arc::clone(&alive) as Arc<dyn kera_rpc::Service>,
        1,
    );
    let caller = NodeRuntime::start(Arc::new(net.register(NodeId(1))), Arc::new(NullService), 1);
    let channel = RpcBackupChannel::new(caller.client(), Duration::from_millis(300));

    // NodeId(999) was never registered: the send fails fast and must be
    // reported as Disconnected(999) so the virtual log re-replicates.
    let targets = [NodeId(100), NodeId(999)];
    let err = write(&channel, &targets, &write_req(chunk_bytes(), 1)).unwrap_err();
    match err {
        KeraError::Disconnected(n) => assert_eq!(n, NodeId(999)),
        other => panic!("expected Disconnected, got {other}"),
    }
}

#[test]
fn corrupt_batch_is_rejected_by_real_backup_over_rpc() {
    let net = InMemNetwork::new();
    let backup = BackupService::new(NodeId(100), None);
    let _rt = NodeRuntime::start(
        Arc::new(net.register(NodeId(100))),
        Arc::clone(&backup) as Arc<dyn kera_rpc::Service>,
        1,
    );
    let caller = NodeRuntime::start(Arc::new(net.register(NodeId(1))), Arc::new(NullService), 1);
    let channel = RpcBackupChannel::new(caller.client(), Duration::from_secs(1));

    let mut bad = chunk_bytes().to_vec();
    let last = bad.len() - 1;
    bad[last] ^= 0xff;
    let err = write(&channel, &[NodeId(100)], &write_req(Bytes::from(bad), 1)).unwrap_err();
    assert!(matches!(err, KeraError::Corruption { .. }), "got {err}");
    assert_eq!(backup.bytes_held(), 0);
}

#[test]
fn coordinator_reassigns_on_crash_and_updates_metadata() {
    let mut cluster = KeraCluster::start(ClusterConfig {
        brokers: 3,
        worker_threads: 2,
        ..ClusterConfig::default()
    })
    .unwrap();
    let rt = cluster.client(0);
    let client = rt.client();
    let config = StreamConfig {
        id: StreamId(1),
        streamlets: 6,
        active_groups: 1,
        segments_per_group: 2,
        segment_size: 1 << 16,
        replication: ReplicationConfig {
            factor: 2,
            policy: VirtualLogPolicy::SharedPerBroker(2),
            vseg_size: 1 << 16,
        },
    };
    client
        .call(
            COORDINATOR,
            OpCode::CreateStream,
            CreateStreamRequest { config }.encode(),
            Duration::from_secs(5),
        )
        .unwrap();

    cluster.crash_server(0);
    let resp = client
        .call(
            COORDINATOR,
            OpCode::ReportCrash,
            ReportCrashRequest { node: broker_node(0) }.encode(),
            Duration::from_secs(5),
        )
        .unwrap();
    let reassigned = kera_wire::messages::CrashReassignmentResponse::decode(&resp).unwrap();
    // Broker 0 led streamlets 0 and 3 (6 streamlets over 3 brokers).
    assert_eq!(reassigned.reassignments.len(), 2);
    for r in &reassigned.reassignments {
        assert_ne!(r.new_broker, broker_node(0));
    }
    // Fresh metadata no longer references the dead broker.
    let md = StreamMetadata::decode(
        &client
            .call(
                COORDINATOR,
                OpCode::GetMetadata,
                GetMetadataRequest { stream: StreamId(1) }.encode(),
                Duration::from_secs(5),
            )
            .unwrap(),
    )
    .unwrap();
    assert!(md.placements.iter().all(|p| p.broker != broker_node(0)));
    // Sanity: the co-located backup id scheme holds.
    assert_eq!(backup_node(0), NodeId(1001));
    cluster.shutdown();
}
