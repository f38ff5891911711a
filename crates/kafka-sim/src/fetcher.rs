//! Replica fetcher threads — Kafka's passive replication engine.
//!
//! Each broker runs one fetcher thread per leader it follows (like
//! `num.replica.fetchers = 1`): the thread repeatedly sends one
//! consolidated `FollowerFetch` for *all* partitions it follows from that
//! leader, appends the returned log bytes locally, and reports its new
//! log-end offsets on the next fetch — which is what advances the
//! leader's high watermarks. The paper's point: this loop must be *tuned*
//! (wait times, fetch sizes) and always costs one extra round trip before
//! a produce can be acknowledged.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kera_common::ids::NodeId;
use kera_rpc::RpcClient;
use kera_wire::frames::OpCode;
use kera_wire::messages::{FollowerFetchEntry, FollowerFetchRequest, FollowerFetchResponse};
use parking_lot::Mutex;

use crate::broker::KafkaBrokerService;
use crate::partition::PartitionLog;

/// `replica.fetch.max.bytes`: what one fetch takes from one partition.
const FETCH_MAX_BYTES_PER_PARTITION: u32 = 1 << 20;

/// Runs and owns a broker's replica fetcher threads.
pub struct FetcherRunner {
    node: NodeId,
    client: RpcClient,
    broker: Arc<KafkaBrokerService>,
    /// Per-partition write cost (each partition is its own log file).
    io_cost_ns: u64,
    shutdown: Arc<AtomicBool>,
    threads: Mutex<HashMap<NodeId, std::thread::JoinHandle<()>>>,
    /// Shared registry: leader broker -> partitions to fetch.
    targets: Arc<Mutex<HashMap<NodeId, Vec<Arc<PartitionLog>>>>>,
}

impl FetcherRunner {
    pub fn new(
        node: NodeId,
        client: RpcClient,
        broker: Arc<KafkaBrokerService>,
        io_cost_ns: u64,
    ) -> Arc<Self> {
        Arc::new(Self {
            node,
            client,
            broker,
            io_cost_ns,
            shutdown: Arc::new(AtomicBool::new(false)),
            threads: Mutex::new(HashMap::new()),
            targets: Arc::new(Mutex::new(HashMap::new())),
        })
    }

    /// Picks up follower assignments registered on the broker service
    /// since the last call and (re)arms fetcher threads. Called after
    /// every topic creation (the cluster wires this to HostStream).
    pub fn refresh(self: &Arc<Self>) {
        for (leader, log) in self.broker.take_new_follower_targets() {
            self.targets.lock().entry(leader).or_default().push(log);
            let mut threads = self.threads.lock();
            threads.entry(leader).or_insert_with(|| {
                let me = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("replica-fetcher-{}-from-{}", self.node.raw(), leader.raw()))
                    .spawn(move || me.fetch_loop(leader))
                    .expect("spawn replica fetcher")
            });
        }
    }

    fn fetch_loop(&self, leader: NodeId) {
        while !self.shutdown.load(Ordering::SeqCst) {
            let logs: Vec<Arc<PartitionLog>> =
                self.targets.lock().get(&leader).cloned().unwrap_or_default();
            if logs.is_empty() {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            let entries: Vec<FollowerFetchEntry> = logs
                .iter()
                .map(|l| FollowerFetchEntry {
                    stream: l.stream(),
                    partition: l.partition(),
                    fetch_offset: l.leo(),
                })
                .collect();
            let req = FollowerFetchRequest {
                follower: self.node,
                max_bytes_per_partition: FETCH_MAX_BYTES_PER_PARTITION,
                entries,
            };
            // The leader keeps an empty fetch for up to fetch.wait, so the
            // timeout must comfortably exceed it.
            let resp = self.client.call(
                leader,
                OpCode::FollowerFetch,
                req.encode(),
                Duration::from_secs(10),
            );
            match resp {
                Ok(payload) => {
                    let Ok(resp) = FollowerFetchResponse::decode_bytes(&payload) else { continue };
                    for r in resp.results {
                        if let Some(log) = logs
                            .iter()
                            .find(|l| l.stream() == r.stream && l.partition() == r.partition)
                        {
                            // One storage write per partition with data —
                            // the small I/Os of one-log-per-partition.
                            if self.io_cost_ns > 0 && !r.data.is_empty() {
                                kera_common::timing::spin_for_ns(self.io_cost_ns);
                            }
                            let _ = log.append_follower(&r.data, r.high_watermark);
                        }
                    }
                }
                Err(_) => {
                    // Leader unreachable: back off briefly and retry
                    // (real Kafka would trigger a leader election).
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    /// Stops all fetcher threads.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut threads = self.threads.lock();
        for (_, t) in threads.drain() {
            let _ = t.join();
        }
    }
}
