//! In-process cluster assembly.
//!
//! Mirrors the paper's deployment (§V-A): on each of `B` server nodes
//! live one broker service and one backup service; a coordinator manages
//! them. Clients register as extra nodes on the same fabric. With
//! `ClusterConfig::coordinator.replicas > 1` the coordinator itself is
//! replicated (metadata log + leader election, DESIGN.md §10): replica 0
//! keeps the historical node id 0, extra replicas live at 3000+i, and
//! clients resolve the leader via `RpcClient::call_leader`.

use std::sync::Arc;

use kera_common::config::ClusterConfig;
use kera_common::ids::NodeId;
use kera_common::knobs;
use kera_common::Result;
use kera_obs::{NodeObs, RegistrySnapshot, Watchdog};
use kera_rpc::{AnyNetwork, FaultInjector, FaultPlan, NodeRuntime, NullService, Transport};
use kera_storage::flush::{DiskFlusher, FlushMetrics};
use parking_lot::Mutex;

use crate::backup::BackupService;
use crate::broker::BrokerService;
use crate::coordinator::CoordinatorService;

/// The coordinator's node id (replica 0 of a replicated coordinator).
pub const COORDINATOR: NodeId = NodeId(0);

/// Node id of coordinator replica `i`. Replica 0 keeps the historical
/// id 0 so single-coordinator callers are untouched; extra replicas get
/// their own range clear of brokers (1+), backups (1001+) and clients
/// (2001+).
pub const fn coordinator_node(i: u32) -> NodeId {
    if i == 0 { COORDINATOR } else { NodeId(3000 + i) }
}

/// Node id of broker `i`.
pub const fn broker_node(i: u32) -> NodeId {
    NodeId(1 + i)
}

/// Node id of backup `i` (co-located with broker `i`).
pub const fn backup_node(i: u32) -> NodeId {
    NodeId(1001 + i)
}

/// Node id of client `i`.
pub const fn client_node(i: u32) -> NodeId {
    NodeId(2001 + i)
}

/// A running in-process KerA cluster.
pub struct KeraCluster {
    pub net: AnyNetwork,
    config: ClusterConfig,
    fault_plan: Option<FaultPlan>,
    coordinator_rts: Vec<Option<NodeRuntime>>,
    broker_rts: Vec<Option<NodeRuntime>>,
    backup_rts: Vec<Option<NodeRuntime>>,
    /// Coordinator replicas, in replica order (index 0 = node id 0).
    pub coordinator_svcs: Vec<Arc<CoordinatorService>>,
    pub broker_svcs: Vec<Arc<BrokerService>>,
    pub backup_svcs: Vec<Arc<BackupService>>,
    /// Server-node observability handles (coordinator, brokers, backups).
    node_obs: Vec<Arc<NodeObs>>,
    /// Client-node handles, collected as [`KeraCluster::client`] runs.
    client_obs: Mutex<Vec<Arc<NodeObs>>>,
    /// Per-server-node stall watchdogs, armed when `KERA_WATCHDOG_MS` is
    /// set. Dropping the cluster stops and joins them.
    watchdogs: Vec<Watchdog>,
}

/// Registers `id` on the fabric. With a fault plan every node's transport
/// — coordinator, brokers, backups and clients — goes through a
/// `FaultInjector` sharing it, so replication, re-replication and recovery
/// all run over the same lossy fabric; no node is registered around it.
fn register_on(
    net: &AnyNetwork,
    plan: Option<&FaultPlan>,
    id: NodeId,
) -> Result<Arc<dyn Transport>> {
    let transport = net.register(id)?;
    Ok(match plan {
        Some(plan) => Arc::new(FaultInjector::new(transport, plan.clone())),
        None => transport,
    })
}

impl KeraCluster {
    /// Boots coordinator, brokers and backups.
    pub fn start(config: ClusterConfig) -> Result<KeraCluster> {
        config.validate()?;
        let net = AnyNetwork::new(config.transport, Some(config.max_frame_bytes));
        let fault_plan = config.faults.map(FaultPlan::new).transpose()?;
        let b = config.brokers;
        let broker_ids: Vec<NodeId> = (0..b).map(broker_node).collect();
        let backup_ids: Vec<NodeId> = (0..b).map(backup_node).collect();
        let register = |id: NodeId| register_on(&net, fault_plan.as_ref(), id);

        let mut node_obs: Vec<Arc<NodeObs>> = Vec::new();
        let mut make_obs = |id: NodeId| -> Arc<NodeObs> {
            let obs = NodeObs::new(id.raw(), config.observability);
            node_obs.push(Arc::clone(&obs));
            obs
        };

        // Backups first (brokers replicate into them).
        let mut backup_svcs = Vec::with_capacity(b as usize);
        let mut backup_rts = Vec::with_capacity(b as usize);
        for i in 0..b {
            let obs = make_obs(backup_node(i));
            let flusher = match &config.flush_dir {
                Some(dir) => {
                    let reg = obs.registry();
                    let metrics = FlushMetrics {
                        latency: reg.histogram("kera.storage.flush", &[]),
                        bytes: reg.counter("kera.storage.flush_bytes", &[]),
                        errors: reg.counter("kera.storage.flush_errors", &[]),
                    };
                    Some(DiskFlusher::start_with_metrics(dir.join(format!("backup-{i}")), metrics)?)
                }
                None => None,
            };
            let svc = BackupService::with_obs(backup_node(i), flusher, Arc::clone(&obs));
            let rt = NodeRuntime::start_with_obs(
                register(backup_node(i))?,
                Arc::clone(&svc) as Arc<dyn kera_rpc::Service>,
                config.worker_threads,
                config.retry,
                obs,
            );
            backup_svcs.push(svc);
            backup_rts.push(Some(rt));
        }

        // Brokers.
        let mut broker_svcs = Vec::with_capacity(b as usize);
        let mut broker_rts = Vec::with_capacity(b as usize);
        for i in 0..b {
            let obs = make_obs(broker_node(i));
            let svc = BrokerService::with_obs(
                broker_node(i),
                backup_node(i),
                backup_ids.clone(),
                Arc::clone(&obs),
            );
            let rt = NodeRuntime::start_with_obs(
                register(broker_node(i))?,
                Arc::clone(&svc) as Arc<dyn kera_rpc::Service>,
                config.worker_threads,
                config.retry,
                obs,
            );
            svc.attach_client(rt.client());
            broker_svcs.push(svc);
            broker_rts.push(Some(rt));
        }

        // Coordinator replicas. Single replica (the default) elects
        // itself instantly inside start_ticker and spawns no thread —
        // the pre-replication behaviour. Replicated coordinators get
        // more workers: the leader replicates while serving votes.
        let r = config.coordinator.replicas;
        let coordinator_ids: Vec<NodeId> = (0..r).map(coordinator_node).collect();
        let mut coordinator_svcs = Vec::with_capacity(r as usize);
        let mut coordinator_rts = Vec::with_capacity(r as usize);
        for i in 0..r {
            let obs = make_obs(coordinator_node(i));
            let svc = CoordinatorService::replicated(
                coordinator_node(i),
                coordinator_ids.clone(),
                broker_ids.clone(),
                config.coordinator,
            );
            let rt = NodeRuntime::start_with_obs(
                register(coordinator_node(i))?,
                Arc::clone(&svc) as Arc<dyn kera_rpc::Service>,
                if r == 1 { 2 } else { 4 },
                config.retry,
                obs,
            );
            svc.attach_client(rt.client());
            coordinator_svcs.push(svc);
            coordinator_rts.push(Some(rt));
        }
        for svc in &coordinator_svcs {
            svc.start_ticker();
        }

        // Arm the per-node stall watchdogs. A node counts as stalled when
        // it has RPCs in flight but its progress counter stops moving for
        // the configured window; the watchdog then auto-dumps that node's
        // flight-recorder ring and its slow traces under results/tmp/.
        let mut watchdogs = Vec::new();
        if knobs::WATCHDOG_MS.is_on() {
            let threshold = std::time::Duration::from_millis(knobs::WATCHDOG_MS.get());
            let base = std::path::Path::new("results");
            for obs in &node_obs {
                watchdogs.push(Watchdog::arm(obs, threshold, base));
            }
        }

        Ok(KeraCluster {
            net,
            config,
            fault_plan,
            coordinator_rts,
            broker_rts,
            backup_rts,
            coordinator_svcs,
            broker_svcs,
            backup_svcs,
            node_obs,
            client_obs: Mutex::named("cluster.client_obs", Vec::new()),
            watchdogs,
        })
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The first coordinator replica — the bootstrap leader contact for
    /// single-coordinator callers. Replica-aware callers should use
    /// [`KeraCluster::coordinators`] with `RpcClient::call_leader`.
    pub fn coordinator(&self) -> NodeId {
        COORDINATOR
    }

    /// All coordinator replica node ids, in replica order.
    pub fn coordinators(&self) -> Vec<NodeId> {
        (0..self.config.coordinator.replicas).map(coordinator_node).collect()
    }

    /// Index of the replica currently believing itself leader, if any.
    pub fn coordinator_leader(&self) -> Option<u32> {
        self.coordinator_svcs.iter().position(|s| s.is_leader()).map(|i| i as u32)
    }

    /// Kills coordinator replica `i`: it vanishes from the network and
    /// its runtime and ticker are joined — a clean process exit.
    /// Requires the in-memory fabric.
    pub fn kill_coordinator(&mut self, i: u32) {
        // lint: allow(no-panic) — chaos-test helper; killing a replica that
        // does not exist is a driver bug and must fail fast.
        assert!(
            self.net.crash(coordinator_node(i)),
            "kill_coordinator requires TransportChoice::InMemory"
        );
        if let Some(svc) = self.coordinator_svcs.get(i as usize) {
            svc.stop();
        }
        if let Some(rt) = self.coordinator_rts.get_mut(i as usize).and_then(Option::take) {
            rt.shutdown();
        }
    }

    /// The armed stall watchdogs (empty unless `KERA_WATCHDOG_MS` was set
    /// when the cluster booted or [`KeraCluster::arm_watchdogs`] ran), in
    /// server-node registration order.
    pub fn watchdogs(&self) -> &[Watchdog] {
        &self.watchdogs
    }

    /// Arms a stall watchdog on every server node — the programmatic
    /// twin of booting with `KERA_WATCHDOG_MS` (chaos drills use this so
    /// they never mutate process-global env). Idempotent arming is not
    /// attempted: calling it twice doubles the monitors.
    pub fn arm_watchdogs(&mut self, threshold: std::time::Duration) {
        let base = std::path::Path::new("results");
        for obs in &self.node_obs {
            self.watchdogs.push(Watchdog::arm(obs, threshold, base));
        }
    }

    pub fn brokers(&self) -> Vec<NodeId> {
        (0..self.config.brokers).map(broker_node).collect()
    }

    pub fn backups(&self) -> Vec<NodeId> {
        (0..self.config.brokers).map(backup_node).collect()
    }

    /// The shared fault plan, when the cluster was started with a
    /// [`kera_common::config::FaultProfile`]. Tests use it to create and
    /// heal partitions, to hold and release nodes, and to assert faults
    /// actually fired.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Registers a pure client node on the fabric (producers, consumers,
    /// the recovery manager, test drivers). Client traffic crosses the
    /// same fault injector as server traffic.
    pub fn client(&self, i: u32) -> NodeRuntime {
        let transport = register_on(&self.net, self.fault_plan.as_ref(), client_node(i));
        // lint: allow(no-panic) — cluster assembly in the test/bench harness;
        // a duplicate client id is a driver bug and must fail fast.
        let transport = transport.expect("register client node");
        let obs = NodeObs::new(client_node(i).raw(), self.config.observability);
        self.client_obs.lock().push(Arc::clone(&obs));
        NodeRuntime::start_with_obs(transport, Arc::new(NullService), 1, self.config.retry, obs)
    }

    /// Observability handles of the server nodes (coordinator, brokers,
    /// backups), in registration order.
    pub fn node_obs(&self) -> &[Arc<NodeObs>] {
        &self.node_obs
    }

    /// One merged metrics snapshot across every node of the cluster —
    /// servers and clients. Keys stay distinct per node (the `node`
    /// label), so per-node drill-down survives the merge.
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        let mut snap = RegistrySnapshot::default();
        for obs in &self.node_obs {
            snap.merge(&obs.registry().snapshot());
        }
        for obs in self.client_obs.lock().iter() {
            snap.merge(&obs.registry().snapshot());
        }
        snap
    }

    /// Kills server `i`: both its broker and its co-located backup vanish
    /// from the network, exactly like a machine crash. Requires the
    /// in-memory fabric (TCP does not support surgical crashes).
    pub fn crash_server(&mut self, i: u32) {
        assert!(
            self.net.crash(broker_node(i)),
            "crash_server requires TransportChoice::InMemory"
        );
        self.net.crash(backup_node(i));
        // Join the dead runtimes (the crash already told them: their
        // workers are stopping and their calls have failed).
        if let Some(rt) = self.broker_rts.get_mut(i as usize).and_then(Option::take) {
            rt.shutdown();
        }
        if let Some(rt) = self.backup_rts.get_mut(i as usize).and_then(Option::take) {
            rt.shutdown();
        }
    }

    /// Orderly shutdown of every node.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // Tickers first: they issue RPCs to sibling replicas, so every
        // replica's runtime must still be up while they drain.
        for svc in &self.coordinator_svcs {
            svc.stop();
        }
        for rt in self.coordinator_rts.iter_mut().filter_map(Option::take) {
            rt.shutdown();
        }
        for rt in self.broker_rts.iter_mut().filter_map(Option::take) {
            rt.shutdown();
        }
        for rt in self.backup_rts.iter_mut().filter_map(Option::take) {
            rt.shutdown();
        }
    }
}

impl Drop for KeraCluster {
    fn drop(&mut self) {
        // Idempotent: a cluster dropped on an error path still joins all
        // of its threads.
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use kera_common::config::{ReplicationConfig, StreamConfig, VirtualLogPolicy};
    use kera_common::ids::{ProducerId, StreamId, StreamletId};
    use kera_wire::chunk::{ChunkBuilder, ChunkIter};
    use kera_wire::cursor::SlotCursor;
    use kera_wire::frames::OpCode;
    use kera_wire::messages::*;
    use kera_wire::record::Record;
    use std::time::Duration;

    const T: Duration = Duration::from_secs(5);

    fn stream_config(id: u32, streamlets: u32, factor: u32) -> StreamConfig {
        StreamConfig {
            id: StreamId(id),
            streamlets,
            active_groups: 1,
            segments_per_group: 4,
            segment_size: 1 << 16,
            replication: ReplicationConfig {
                factor,
                policy: VirtualLogPolicy::SharedPerBroker(2),
                vseg_size: 1 << 16,
            },
        }
    }

    fn make_chunk(producer: u32, stream: u32, streamlet: u32, records: u32) -> Bytes {
        let mut b = ChunkBuilder::new(
            8192,
            ProducerId(producer),
            StreamId(stream),
            StreamletId(streamlet),
        );
        for i in 0..records {
            b.append(&Record::value_only(&[i as u8; 100]));
        }
        b.seal()
    }

    fn produce(
        client: &kera_rpc::RpcClient,
        broker: NodeId,
        producer: u32,
        chunks: &[Bytes],
    ) -> ProduceResponse {
        let mut body = Vec::new();
        for c in chunks {
            body.extend_from_slice(c);
        }
        let req = ProduceRequest {
            producer: ProducerId(producer),
            recovery: false,
            chunk_count: chunks.len() as u32,
            chunks: Bytes::from(body),
        };
        let resp = client.call(broker, OpCode::Produce, req.encode(), T).unwrap();
        ProduceResponse::decode(&resp).unwrap()
    }

    #[test]
    fn end_to_end_produce_fetch_r3() {
        let cfg = ClusterConfig {
            brokers: 4,
            worker_threads: 2,
            ..ClusterConfig::default()
        };
        let cluster = KeraCluster::start(cfg).unwrap();
        let client_rt = cluster.client(0);
        let client = client_rt.client();

        // Create a 4-streamlet stream, R3.
        let sc = stream_config(1, 4, 3);
        let md_bytes = client
            .call(
                COORDINATOR,
                OpCode::CreateStream,
                CreateStreamRequest { config: sc.clone() }.encode(),
                T,
            )
            .unwrap();
        let md = StreamMetadata::decode(&md_bytes).unwrap();
        assert_eq!(md.placements.len(), 4);
        // Streamlets spread over all 4 brokers.
        assert_eq!(md.brokers().len(), 4);

        // Produce 3 chunks to streamlet 0's broker.
        let broker = md.broker_of(StreamletId(0)).unwrap();
        let chunks: Vec<Bytes> = (0..3).map(|_| make_chunk(7, 1, 0, 5)).collect();
        let resp = produce(&client, broker, 7, &chunks);
        assert_eq!(resp.acks.len(), 3);
        assert_eq!(resp.acks[0].base_offset, 0);
        assert_eq!(resp.acks[1].base_offset, 5);
        assert_eq!(resp.acks[2].base_offset, 10);

        // Data is on 2 backups (R3 = leader + 2 copies).
        let total_backup_bytes: usize =
            cluster.backup_svcs.iter().map(|b| b.bytes_held()).sum();
        let chunk_bytes: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total_backup_bytes, chunk_bytes * 2);

        // Fetch it back (producer 7 -> slot 0 since Q=1).
        let freq = FetchRequest {
            consumer: kera_common::ids::ConsumerId(1),
            entries: vec![FetchEntry {
                stream: StreamId(1),
                streamlet: StreamletId(0),
                slot: 0,
                cursor: SlotCursor::START,
                max_bytes: 1 << 20,
            }],
        };
        let fresp = FetchResponse::decode_bytes(
            &client.call(broker, OpCode::Fetch, freq.encode(), T).unwrap(),
        )
        .unwrap();
        assert_eq!(fresp.results.len(), 1);
        let data = &fresp.results[0].data;
        let got: Vec<_> = ChunkIter::new(data).collect::<Result<_>>().unwrap();
        assert_eq!(got.len(), 3);
        let mut records = 0;
        for c in &got {
            c.verify().unwrap();
            records += c.records().count();
        }
        assert_eq!(records, 15);
        cluster.shutdown();
    }

    #[test]
    fn r1_skips_backups_entirely() {
        let cfg = ClusterConfig {
            brokers: 2,
            worker_threads: 2,
            ..ClusterConfig::default()
        };
        let cluster = KeraCluster::start(cfg).unwrap();
        let client_rt = cluster.client(0);
        let client = client_rt.client();

        let sc = stream_config(1, 1, 1);
        let md = StreamMetadata::decode(
            &client
                .call(
                    COORDINATOR,
                    OpCode::CreateStream,
                    CreateStreamRequest { config: sc }.encode(),
                    T,
                )
                .unwrap(),
        )
        .unwrap();
        let broker = md.broker_of(StreamletId(0)).unwrap();
        produce(&client, broker, 0, &[make_chunk(0, 1, 0, 2)]);
        assert_eq!(cluster.backup_svcs.iter().map(|b| b.bytes_held()).sum::<usize>(), 0);

        // Data is immediately fetchable (durable head == head at R1).
        let freq = FetchRequest {
            consumer: kera_common::ids::ConsumerId(0),
            entries: vec![FetchEntry {
                stream: StreamId(1),
                streamlet: StreamletId(0),
                slot: 0,
                cursor: SlotCursor::START,
                max_bytes: 1 << 20,
            }],
        };
        let fresp = FetchResponse::decode_bytes(
            &client.call(broker, OpCode::Fetch, freq.encode(), T).unwrap(),
        )
        .unwrap();
        assert_eq!(ChunkIter::new(&fresp.results[0].data).count(), 1);
        cluster.shutdown();
    }

    #[test]
    fn unknown_stream_errors_propagate() {
        let cfg = ClusterConfig { brokers: 1, ..ClusterConfig::default() };
        let cluster = KeraCluster::start(cfg).unwrap();
        let client_rt = cluster.client(0);
        let client = client_rt.client();

        let err = client
            .call(
                COORDINATOR,
                OpCode::GetMetadata,
                GetMetadataRequest { stream: StreamId(42) }.encode(),
                T,
            )
            .unwrap_err();
        assert!(matches!(err, kera_common::KeraError::Protocol(_)));

        let chunk = make_chunk(0, 42, 0, 1);
        let req = ProduceRequest {
            producer: ProducerId(0),
            recovery: false,
            chunk_count: 1,
            chunks: chunk,
        };
        let err = client
            .call(broker_node(0), OpCode::Produce, req.encode(), T)
            .unwrap_err();
        assert!(matches!(err, kera_common::KeraError::Protocol(_)));
        cluster.shutdown();
    }

    #[test]
    fn duplicate_stream_creation_fails() {
        let cfg = ClusterConfig { brokers: 2, ..ClusterConfig::default() };
        let cluster = KeraCluster::start(cfg).unwrap();
        let client_rt = cluster.client(0);
        let client = client_rt.client();
        let sc = stream_config(5, 2, 1);
        client
            .call(
                COORDINATOR,
                OpCode::CreateStream,
                CreateStreamRequest { config: sc.clone() }.encode(),
                T,
            )
            .unwrap();
        let err = client
            .call(
                COORDINATOR,
                OpCode::CreateStream,
                CreateStreamRequest { config: sc }.encode(),
                T,
            )
            .unwrap_err();
        assert!(matches!(err, kera_common::KeraError::Protocol(_)));
        cluster.shutdown();
    }

    #[test]
    fn consumers_never_see_unreplicated_data() {
        // With R3 but all backups crashed, producing fails and consumers
        // see nothing.
        let cfg = ClusterConfig {
            brokers: 3,
            worker_threads: 2,
            ..ClusterConfig::default()
        };
        let mut cluster = KeraCluster::start(cfg).unwrap();
        let client_rt = cluster.client(0);
        let client = client_rt.client();

        let sc = stream_config(1, 1, 3);
        let md = StreamMetadata::decode(
            &client
                .call(
                    COORDINATOR,
                    OpCode::CreateStream,
                    CreateStreamRequest { config: sc }.encode(),
                    T,
                )
                .unwrap(),
        )
        .unwrap();
        let broker = md.broker_of(StreamletId(0)).unwrap();
        // Crash the two servers that are NOT the leader: their backups go
        // with them, leaving zero backup candidates.
        for i in 0..3 {
            if broker_node(i) != broker {
                cluster.crash_server(i);
            }
        }
        let chunk = make_chunk(0, 1, 0, 4);
        let req = ProduceRequest {
            producer: ProducerId(0),
            recovery: false,
            chunk_count: 1,
            chunks: chunk,
        };
        let err = client.call(broker, OpCode::Produce, req.encode(), T).unwrap_err();
        assert!(matches!(err, kera_common::KeraError::NoCapacity(_)), "got {err}");

        // The appended-but-unreplicated chunk must be invisible.
        let freq = FetchRequest {
            consumer: kera_common::ids::ConsumerId(0),
            entries: vec![FetchEntry {
                stream: StreamId(1),
                streamlet: StreamletId(0),
                slot: 0,
                cursor: SlotCursor::START,
                max_bytes: 1 << 20,
            }],
        };
        let fresp = FetchResponse::decode_bytes(
            &client.call(broker, OpCode::Fetch, freq.encode(), T).unwrap(),
        )
        .unwrap();
        assert!(fresp.results[0].data.is_empty());
        cluster.shutdown();
    }

    use kera_common::Result;
}
