//! The cluster skeleton both systems boot on.
//!
//! The paper compares KerA and Kafka on one testbed, with streams spread
//! the same way over the same brokers (§V-A). A [`Fabric`] is that
//! testbed: the network, its fault plan, the node-id scheme, and every
//! node's runtime and observability handle. `kera_broker::cluster` and
//! `kera_kafka_sim::cluster` each boot their services onto one through
//! [`Fabric::boot`], in their own order; [`Fabric::teardown`] stops the
//! nodes in the reverse of that order.
//!
//! Node ids: coordinator replica 0 is node 0, broker `i` is `1 + i`, the
//! backup co-located with broker `i` is `1001 + i`, client `i` is
//! `2001 + i`, and coordinator replica `i > 0` is `3000 + i`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use kera_common::config::ClusterConfig;
use kera_common::ids::{NodeId, StreamId};
use kera_common::knobs;
use kera_common::Result;
use kera_obs::{NodeObs, RegistrySnapshot, Watchdog};
use parking_lot::Mutex;

use crate::{
    AnyNetwork, FaultInjector, FaultPlan, NodeRuntime, NullService, RpcClient, Service, Transport,
};

/// The coordinator's node id (replica 0 of a replicated coordinator).
pub const COORDINATOR: NodeId = NodeId(0);

/// Node id of coordinator replica `i`. Replica 0 keeps id 0, so
/// single-coordinator callers need not know about replicas.
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

fn is_coordinator(id: NodeId) -> bool {
    id == COORDINATOR || id.raw() > 3000
}

/// Which of `brokers` alive brokers leads streamlet `streamlet` of
/// `stream`: streamlet *i* goes to broker *i* mod *n*. Both systems'
/// coordinators place leaders with it; a Kafka partition's followers are
/// the brokers after its leader. It is handed the stream so that a
/// placement keyed by stream (Kafka starts each topic's assignment at a
/// varying broker) changes this function alone.
pub fn leader_index(_stream: StreamId, streamlet: u32, brokers: usize) -> usize {
    streamlet as usize % brokers
}

/// A running cluster's shared parts: the network and its fault plan, and
/// every node booted on it.
pub struct Fabric {
    pub net: AnyNetwork,
    config: ClusterConfig,
    fault_plan: Option<FaultPlan>,
    /// Server-node runtimes in registration order; a crashed node's is
    /// gone.
    runtimes: Vec<(NodeId, NodeRuntime)>,
    /// Server-node observability handles in registration order, crashed
    /// nodes' included.
    node_obs: Vec<Arc<NodeObs>>,
    /// Client-node handles, collected as [`Fabric::client`] runs.
    client_obs: Mutex<Vec<Arc<NodeObs>>>,
    /// Per-server-node stall watchdogs. Dropping the fabric stops and
    /// joins them.
    watchdogs: Vec<Watchdog>,
}

fn arm(obs: &Arc<NodeObs>, threshold: Duration) -> Watchdog {
    Watchdog::arm(obs, threshold, Path::new("results"))
}

impl Fabric {
    /// The network `config` names, with no node on it yet.
    pub fn new(config: ClusterConfig) -> Result<Fabric> {
        config.validate()?;
        Ok(Fabric {
            net: AnyNetwork::new(config.transport, Some(config.max_frame_bytes)),
            fault_plan: config.faults.map(FaultPlan::new).transpose()?,
            config,
            runtimes: Vec::new(),
            node_obs: Vec::new(),
            client_obs: Mutex::named("cluster.client_obs", Vec::new()),
            watchdogs: Vec::new(),
        })
    }

    /// Registers `id` on the network. With a fault plan every node's
    /// transport, servers' and clients' alike, goes through a
    /// `FaultInjector` sharing it; no node is registered around it.
    fn register(&self, id: NodeId) -> Result<Arc<dyn Transport>> {
        let transport = self.net.register(id)?;
        Ok(match &self.fault_plan {
            Some(plan) => Arc::new(FaultInjector::new(transport, plan.clone())),
            None => transport,
        })
    }

    /// Boots server node `id`: its observability handle, the service
    /// `make` builds with it, and a runtime of `workers` threads serving
    /// that service on the network. With `KERA_WATCHDOG_MS` set the node
    /// gets a stall watchdog. Returns the service and the node's client.
    pub fn boot<S: Service + 'static>(
        &mut self,
        id: NodeId,
        workers: usize,
        make: impl FnOnce(Arc<NodeObs>) -> Result<Arc<S>>,
    ) -> Result<(Arc<S>, RpcClient)> {
        let obs = NodeObs::new(id.raw(), self.config.observability);
        let svc = make(Arc::clone(&obs))?;
        let service = Arc::clone(&svc) as Arc<dyn Service>;
        let rt = NodeRuntime::start_with_obs(
            self.register(id)?,
            service,
            workers,
            self.config.retry,
            Arc::clone(&obs),
        );
        let client = rt.client();
        if knobs::WATCHDOG_MS.is_on() {
            self.watchdogs.push(arm(&obs, Duration::from_millis(knobs::WATCHDOG_MS.get())));
        }
        self.node_obs.push(obs);
        self.runtimes.push((id, rt));
        Ok((svc, client))
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The first coordinator replica: the leader contact for
    /// single-coordinator callers. Replica-aware callers use
    /// [`Fabric::coordinators`] with `RpcClient::call_leader`.
    pub fn coordinator(&self) -> NodeId {
        COORDINATOR
    }

    /// The coordinator nodes booted, in replica order.
    pub fn coordinators(&self) -> Vec<NodeId> {
        let booted = self.node_obs.iter().map(|obs| NodeId(obs.node()));
        booted.filter(|&id| is_coordinator(id)).collect()
    }

    /// Where node `id` writes its data files, `<flush_dir>/node-<id>`;
    /// `None` when the cluster writes none.
    pub fn write_dir(&self, id: NodeId) -> Option<PathBuf> {
        self.config.flush_dir.as_ref().map(|dir| dir.join(format!("node-{}", id.raw())))
    }

    pub fn brokers(&self) -> Vec<NodeId> {
        (0..self.config.brokers).map(broker_node).collect()
    }

    /// The shared fault plan, when the cluster was started with a
    /// [`kera_common::config::FaultProfile`]. Tests use it to create and
    /// heal partitions, to hold and release nodes, and to assert faults
    /// actually fired.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Registers a pure client node (producers, consumers, the recovery
    /// manager, test code). Client traffic crosses the same fault
    /// injector as server traffic.
    pub fn client(&self, i: u32) -> NodeRuntime {
        // lint: allow(no-panic) — cluster assembly in the test/bench harness;
        // a duplicate client id is a caller bug and must fail fast.
        let transport = self.register(client_node(i)).expect("register client node");
        let obs = NodeObs::new(client_node(i).raw(), self.config.observability);
        self.client_obs.lock().push(Arc::clone(&obs));
        NodeRuntime::start_with_obs(transport, Arc::new(NullService), 1, self.config.retry, obs)
    }

    /// Observability handles of the server nodes, in registration order
    /// (KerA: backups, brokers, coordinators; Kafka: brokers, coordinator).
    pub fn node_obs(&self) -> &[Arc<NodeObs>] {
        &self.node_obs
    }

    /// One merged metrics snapshot across every node of the cluster,
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

    /// The armed stall watchdogs (empty unless `KERA_WATCHDOG_MS` was set
    /// when the cluster booted or [`Fabric::arm_watchdogs`] ran), in
    /// server-node registration order.
    pub fn watchdogs(&self) -> &[Watchdog] {
        &self.watchdogs
    }

    /// Arms a stall watchdog on every server node: the programmatic twin
    /// of booting with `KERA_WATCHDOG_MS` (chaos drills use it so they
    /// never mutate process-global env). Calling it twice doubles the
    /// monitors.
    pub fn arm_watchdogs(&mut self, threshold: Duration) {
        for obs in &self.node_obs {
            self.watchdogs.push(arm(obs, threshold));
        }
    }

    /// Crashes node `id` as a machine crash would: it vanishes from the
    /// network, its calls fail, and its runtime is joined. Requires the
    /// in-memory fabric (TCP does not support surgical crashes).
    pub fn crash(&mut self, id: NodeId) {
        // lint: allow(no-panic) — chaos-test helper; crashing a node of a
        // TCP cluster is a caller bug and must fail fast.
        assert!(self.net.crash(id), "crash requires TransportChoice::InMemory");
        self.runtimes.retain(|(node, _)| *node != id);
    }

    /// Stops every server node, the last registered first, and joins it.
    /// Idempotent.
    pub fn teardown(&mut self) {
        while let Some((_, rt)) = self.runtimes.pop() {
            rt.shutdown();
        }
    }
}

impl Drop for Fabric {
    fn drop(&mut self) {
        self.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinators_are_those_booted_and_a_crash_joins_its_node() {
        let mut fabric = Fabric::new(ClusterConfig::default()).unwrap();
        for id in [backup_node(7), COORDINATOR, coordinator_node(1)] {
            fabric.boot(id, 1, |_| Ok(Arc::new(NullService))).unwrap();
        }
        assert_eq!(fabric.coordinators(), vec![COORDINATOR, coordinator_node(1)]);
        fabric.crash(coordinator_node(1));
        assert_eq!(crate::thread_count_named("worker-3001-"), 0, "crashed, not joined");
        assert_eq!(fabric.coordinators().len(), 2, "a crashed replica was still booted");
        fabric.teardown();
        assert_eq!(crate::thread_count_named("worker-1008-"), 0);
    }
}
