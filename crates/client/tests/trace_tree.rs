//! End-to-end causal tracing: a single produce must reconstruct as one
//! causally-linked span tree spanning every hop —
//!
//! ```text
//! RpcCall(Produce, client)
//!   └─ RpcServe(broker)
//!        ├─ Append(broker)
//!        └─ Replicate(broker, the worker's overlapped rounds)
//!             └─ VlogShip(one log's round, begin to finish)
//!                  └─ RpcCall(BackupWrite, broker)
//!                       └─ RpcServe(backup)
//!                            └─ BackupWrite(backup)
//! ```
//!
//! All events are pulled from the per-node flight recorders; the tree is
//! rebuilt purely from `(trace_id, span_id, parent_span_id)` edges.

use std::collections::HashMap;
use std::time::Duration;

use kera_broker::KeraCluster;
use kera_client::producer::{Producer, ProducerConfig};
use kera_client::MetadataClient;
use kera_common::config::{ClusterConfig, ReplicationConfig, StreamConfig, VirtualLogPolicy};
use kera_common::ids::{ProducerId, StreamId};
use kera_obs::{EventRecord, Stage};
use kera_wire::frames::OpCode;

fn stream_config() -> StreamConfig {
    StreamConfig {
        id: StreamId(1),
        streamlets: 1,
        active_groups: 1,
        segments_per_group: 2,
        segment_size: 1 << 18,
        replication: ReplicationConfig {
            factor: 3,
            policy: VirtualLogPolicy::PerStreamlet,
            vseg_size: 1 << 18,
        },
    }
}

/// All recorded events across the cluster's nodes plus the given client
/// runtimes' recorders.
fn collect_events(cluster: &KeraCluster, clients: &[&kera_rpc::NodeRuntime]) -> Vec<EventRecord> {
    let mut events = Vec::new();
    for obs in cluster.node_obs() {
        events.extend(obs.recorder().read());
    }
    for rt in clients {
        events.extend(rt.client().obs().recorder().read());
    }
    events
}

/// Walks one parent edge: the unique event whose span_id is `parent_id`
/// within trace `trace`.
fn parent_of<'a>(
    by_span: &'a HashMap<u64, &'a EventRecord>,
    trace: u64,
    parent_id: u64,
) -> &'a EventRecord {
    let ev = by_span
        .get(&parent_id)
        .unwrap_or_else(|| panic!("no event with span id {parent_id:#x} in trace {trace:#x}"));
    assert_eq!(ev.trace_id, trace, "parent edge crossed traces");
    ev
}

#[test]
fn produce_reconstructs_as_one_span_tree() {
    let cluster = KeraCluster::start(ClusterConfig {
        brokers: 3,
        worker_threads: 2,
        observability: true,
        ..ClusterConfig::default()
    })
    .unwrap();
    let rt = cluster.client(0);
    let meta = MetadataClient::new(rt.client(), cluster.coordinator());
    meta.create_stream(stream_config()).unwrap();

    let producer = Producer::new(
        &meta,
        &[StreamId(1)],
        ProducerConfig { id: ProducerId(9), chunk_size: 1024, ..ProducerConfig::default() },
    )
    .unwrap();
    for _ in 0..20 {
        producer.send(StreamId(1), &[7u8; 100]).unwrap();
    }
    producer.flush().unwrap();
    assert_eq!(producer.failed_requests(), 0);
    // The produce is acked once durable, but the backup-side spans are
    // recorded when their worker unwinds; give the rings a moment.
    std::thread::sleep(Duration::from_millis(200));

    let events = collect_events(&cluster, &[&rt]);
    let by_span: HashMap<u64, &EventRecord> = events.iter().map(|e| (e.span_id, e)).collect();

    // Anchor on a BackupWrite span — the deepest hop — and walk the
    // parent chain all the way back to the client's produce call.
    let bw = events
        .iter()
        .find(|e| e.stage() == Some(Stage::BackupWrite))
        .unwrap_or_else(|| panic!("no BackupWrite span recorded: {events:?}"));
    let trace = bw.trace_id;
    assert_ne!(trace, 0, "backup write is traced");

    let backup_serve = parent_of(&by_span, trace, bw.parent_span_id);
    assert_eq!(backup_serve.stage(), Some(Stage::RpcServe));
    assert_eq!(backup_serve.opcode, OpCode::BackupWrite as u8);
    assert_eq!(backup_serve.node, bw.node, "serve and write happen on the backup");

    let ship_call = parent_of(&by_span, trace, backup_serve.parent_span_id);
    assert_eq!(ship_call.stage(), Some(Stage::RpcCall));
    assert_eq!(ship_call.opcode, OpCode::BackupWrite as u8);

    let ship = parent_of(&by_span, trace, ship_call.parent_span_id);
    assert_eq!(ship.stage(), Some(Stage::VlogShip));
    assert_eq!(ship.node, ship_call.node, "replication call issued by the shipping broker");

    let replicate = parent_of(&by_span, trace, ship.parent_span_id);
    assert_eq!(replicate.stage(), Some(Stage::Replicate));
    assert_eq!(replicate.node, ship.node);

    let serve = parent_of(&by_span, trace, replicate.parent_span_id);
    assert_eq!(serve.stage(), Some(Stage::RpcServe));
    assert_eq!(serve.opcode, OpCode::Produce as u8);

    let call = parent_of(&by_span, trace, serve.parent_span_id);
    assert_eq!(call.stage(), Some(Stage::RpcCall));
    assert_eq!(call.opcode, OpCode::Produce as u8);
    assert_eq!(call.parent_span_id, 0, "the client call is the trace root");

    // The append is a sibling of the replication, under the serve.
    assert!(
        events.iter().any(|e| e.stage() == Some(Stage::Append)
            && e.trace_id == trace
            && e.parent_span_id == serve.span_id),
        "Append span parented to the produce serve: {events:?}"
    );

    // Stage latency histograms saw the same pipeline.
    let snap = cluster.metrics_snapshot();
    for stage in ["rpc_call", "rpc_serve", "append", "vlog_ship", "backup_write"] {
        let h = snap.histogram_sum("kera.trace.stage", &[("stage", stage)]);
        assert!(h.count > 0, "stage {stage} has samples");
    }

    producer.close().unwrap();
    cluster.shutdown();
}

/// With observability off every ring stays empty and nothing is traced,
/// while the plain counters keep working.
#[test]
fn disabled_observability_records_no_spans() {
    let cluster = KeraCluster::start(ClusterConfig {
        brokers: 2,
        worker_threads: 2,
        observability: false,
        ..ClusterConfig::default()
    })
    .unwrap();
    let rt = cluster.client(0);
    let meta = MetadataClient::new(rt.client(), cluster.coordinator());
    meta.create_stream(StreamConfig {
        replication: ReplicationConfig { factor: 2, ..stream_config().replication },
        ..stream_config()
    })
    .unwrap();
    let producer = Producer::new(
        &meta,
        &[StreamId(1)],
        ProducerConfig { id: ProducerId(1), chunk_size: 1024, ..ProducerConfig::default() },
    )
    .unwrap();
    for _ in 0..10 {
        producer.send(StreamId(1), &[1u8; 100]).unwrap();
    }
    producer.flush().unwrap();

    let events = collect_events(&cluster, &[&rt]);
    assert!(events.is_empty(), "disabled obs must record nothing: {events:?}");
    let snap = cluster.metrics_snapshot();
    assert!(
        snap.counter_sum("kera.broker.records_in", &[]) >= 10,
        "plain counters still work with tracing off"
    );

    producer.close().unwrap();
    cluster.shutdown();
}
