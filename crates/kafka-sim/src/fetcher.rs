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
//!
//! Each partition is its own log file, as in Kafka: with a directory
//! set, a follower appends every fetched batch to that partition's file
//! (`<dir>/<stream>-<partition>.log`) with one write, to the page cache
//! and without an fsync, as Kafka's default `flush.messages` does — the
//! small I/Os of one log per partition.

use std::collections::hash_map::{Entry, HashMap};
use std::fs::File;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kera_common::ids::{NodeId, StreamId, StreamletId};
use kera_common::metrics::Counter;
use kera_obs::MetricsRegistry;
use kera_rpc::RpcClient;
use kera_wire::frames::OpCode;
use kera_wire::messages::{FollowerFetchEntry, FollowerFetchRequest, FollowerFetchResponse};
use parking_lot::Mutex;

use crate::broker::KafkaBrokerService;
use crate::partition::PartitionLog;

/// `replica.fetch.max.bytes`: what one fetch takes from one partition.
const FETCH_MAX_BYTES_PER_PARTITION: u32 = 1 << 20;

/// A fetcher thread's partition files, each opened on its first write.
type OpenFiles = HashMap<(StreamId, StreamletId), File>;

/// Where a follower's partition files go, and what writing them counts
/// (`kera.kafka.follower_writes`, `…_write_bytes`, `…_write_errors`).
struct LogFiles {
    dir: Option<PathBuf>,
    writes: Arc<Counter>,
    bytes: Arc<Counter>,
    errors: Arc<Counter>,
}

impl LogFiles {
    /// Appends `data` to the partition's file. A partition is fetched by
    /// one thread, so `open` is that thread's own.
    fn append(&self, open: &mut OpenFiles, log: &PartitionLog, data: &[u8]) {
        let Some(dir) = &self.dir else { return };
        let key = (log.stream(), log.partition());
        let file = match open.entry(key) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(e) => {
                let path = dir.join(format!("{}-{}.log", key.0.raw(), key.1.raw()));
                std::fs::create_dir_all(dir)
                    .and_then(|()| File::options().create(true).append(true).open(path))
                    .map(|f| e.insert(f))
            }
        };
        match file.and_then(|f| f.write_all(data)) {
            Ok(()) => {
                self.writes.inc();
                self.bytes.add(data.len() as u64);
            }
            Err(_) => self.errors.inc(),
        }
    }
}

/// Runs and owns a broker's replica fetcher threads.
pub struct FetcherRunner {
    node: NodeId,
    client: RpcClient,
    broker: Arc<KafkaBrokerService>,
    files: LogFiles,
    shutdown: Arc<AtomicBool>,
    threads: Mutex<HashMap<NodeId, std::thread::JoinHandle<()>>>,
    /// Shared registry: leader broker -> partitions to fetch.
    targets: Arc<Mutex<HashMap<NodeId, Vec<Arc<PartitionLog>>>>>,
}

impl FetcherRunner {
    /// A runner for `node`'s followers, writing their partition files
    /// under `dir` (no files when `None`) and counting into `reg`.
    pub fn new(
        node: NodeId,
        client: RpcClient,
        broker: Arc<KafkaBrokerService>,
        dir: Option<PathBuf>,
        reg: &MetricsRegistry,
    ) -> Arc<Self> {
        let files = LogFiles {
            dir,
            writes: reg.counter("kera.kafka.follower_writes", &[]),
            bytes: reg.counter("kera.kafka.follower_write_bytes", &[]),
            errors: reg.counter("kera.kafka.follower_write_errors", &[]),
        };
        Arc::new(Self {
            node,
            client,
            broker,
            files,
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
        let mut open = HashMap::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            let logs: Vec<Arc<PartitionLog>> =
                self.targets.lock().get(&leader).cloned().unwrap_or_default();
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
                            // Verified and in memory first, then one write
                            // to its file, before the next fetch reports
                            // the new log end.
                            let appended = log.append_follower(&r.data, r.high_watermark);
                            if appended.is_ok() && !r.data.is_empty() {
                                self.files.append(&mut open, log, &r.data);
                            }
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
