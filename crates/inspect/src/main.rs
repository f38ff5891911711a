//! `kera-inspect` — the cluster introspection CLI (DESIGN.md §13).
//!
//! Boots a KerA cluster on loopback TCP and scrapes every node — each
//! coordinator replica, broker and backup — over the wire with
//! [`OpCode::Introspect`], exactly the way an external operator tool
//! would. Subcommands:
//!
//! - `health`  — one line per node: role, leader term, replication and
//!   consumer lag, in-flight window occupancy.
//!   Exits non-zero unless EVERY node reports.
//! - `metrics` — each node's full registry snapshot as JSON (brokers
//!   merge in the process-wide lock-contention histograms).
//! - `traces`  — drives a short burst of ingest, then prints each
//!   node's tail-sampled slow-span trees.
//! - `watch`   — re-scrapes health every `--interval-ms`, printing
//!   progress/in-flight deltas, `--count` times.
//!
//! Knobs: `--brokers N` (default 3), `--replicas N` (default 3).
//! `KERA_WATCHDOG_MS` arms the per-node stall watchdog in the booted
//! cluster.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use kera_broker::cluster::{backup_node, broker_node, coordinator_node, KeraCluster};
use kera_common::config::{
    ClusterConfig, ReplicationConfig, StreamConfig, TransportChoice, VirtualLogPolicy,
};
use kera_common::ids::{NodeId, ProducerId, StreamId, StreamletId};
use kera_common::Result;
use kera_rpc::RpcClient;
use kera_wire::chunk::ChunkBuilder;
use kera_wire::frames::OpCode;
use kera_wire::messages::{
    introspect_sections, CreateStreamRequest, IntrospectRequest, IntrospectResponse, NodeRole,
    ProduceRequest, StreamMetadata,
};
use kera_wire::record::Record;

const CALL_TIMEOUT: Duration = Duration::from_secs(5);

fn usage() -> ExitCode {
    eprintln!(
        "usage: kera-inspect <health|metrics|traces|watch> \
         [--brokers N] [--replicas N] [--interval-ms M] [--count K]"
    );
    ExitCode::from(2)
}

struct Opts {
    brokers: u32,
    replicas: u32,
    interval_ms: u64,
    count: u32,
}

fn parse_opts(args: &[String]) -> Option<Opts> {
    let mut o = Opts { brokers: 3, replicas: 3, interval_ms: 1000, count: 5 };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next()?;
        match flag.as_str() {
            "--brokers" => o.brokers = val.parse().ok()?,
            "--replicas" => o.replicas = val.parse().ok()?,
            "--interval-ms" => o.interval_ms = val.parse().ok()?,
            "--count" => o.count = val.parse().ok()?,
            _ => return None,
        }
    }
    (o.brokers > 0 && o.replicas > 0).then_some(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { return usage() };
    let Some(opts) = parse_opts(&args[1..]) else { return usage() };

    let mut cfg = ClusterConfig {
        brokers: opts.brokers,
        worker_threads: 2,
        transport: TransportChoice::Tcp,
        ..ClusterConfig::default()
    };
    cfg.coordinator.replicas = opts.replicas;
    let cluster = match KeraCluster::start(cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("kera-inspect: failed to boot cluster: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !wait_for_leader(&cluster, Duration::from_secs(10)) {
        eprintln!("kera-inspect: no coordinator leader elected within 10s");
        return ExitCode::FAILURE;
    }
    let client_rt = cluster.client(0);
    let client = &client_rt.client();

    let code = match cmd.as_str() {
        "health" => cmd_health(&cluster, client),
        "metrics" => cmd_sections(&cluster, client, introspect_sections::METRICS),
        "traces" => {
            if let Err(e) = drive_ingest(&cluster, client) {
                eprintln!("kera-inspect: ingest for trace sampling failed: {e}");
                return ExitCode::FAILURE;
            }
            cmd_sections(&cluster, client, introspect_sections::TRACES)
        }
        "watch" => cmd_watch(&cluster, client, opts.interval_ms, opts.count),
        _ => return usage(),
    };
    drop(client_rt);
    cluster.shutdown();
    code
}

/// Every scrapeable node of the cluster, in report order.
fn all_nodes(cluster: &KeraCluster) -> Vec<NodeId> {
    let cfg = cluster.config();
    let mut nodes: Vec<NodeId> =
        (0..cfg.coordinator.replicas).map(coordinator_node).collect();
    nodes.extend((0..cfg.brokers).map(broker_node));
    nodes.extend((0..cfg.brokers).map(backup_node));
    nodes
}

fn wait_for_leader(cluster: &KeraCluster, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cluster.coordinator_leader().is_some() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

fn scrape(client: &RpcClient, node: NodeId, sections: u32) -> Result<IntrospectResponse> {
    let req = IntrospectRequest { sections };
    let resp = client.call(node, OpCode::Introspect, req.encode(), CALL_TIMEOUT)?;
    IntrospectResponse::decode(&resp)
}

fn health_line(r: &IntrospectResponse) -> String {
    let mut line = format!(
        "node {:>4}  {:<11}",
        r.node,
        r.role.name(),
    );
    match r.role {
        NodeRole::Coordinator => {
            line.push_str(&format!(
                "  term={} leader={}",
                r.term,
                if r.is_leader { "yes" } else { "no" }
            ));
        }
        NodeRole::Broker => {
            line.push_str(&format!(
                "  vlogs={} repl_lag={}B consumer_lag={}B",
                r.vlogs,
                r.replication_lag_bytes(),
                r.consumer_lag_bytes,
            ));
        }
        NodeRole::Backup => {
            line.push_str(&format!("  segments={} held={}B", r.segments, r.durable_bytes));
        }
    }
    line.push_str(&format!(
        "  inflight={} progress={} watchdog={}ms",
        r.inflight, r.progress, r.watchdog_ms
    ));
    line
}

fn cmd_health(cluster: &KeraCluster, client: &RpcClient) -> ExitCode {
    let mut failed = 0u32;
    for node in all_nodes(cluster) {
        match scrape(client, node, introspect_sections::HEALTH) {
            Ok(r) => println!("{}", health_line(&r)),
            Err(e) => {
                failed += 1;
                eprintln!("node {:>4}  UNREACHABLE: {e}", node.raw());
            }
        }
    }
    if failed > 0 {
        eprintln!("kera-inspect: {failed} node(s) failed to report");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_sections(cluster: &KeraCluster, client: &RpcClient, sections: u32) -> ExitCode {
    let mut failed = 0u32;
    for node in all_nodes(cluster) {
        match scrape(client, node, sections) {
            Ok(r) => {
                let body = if sections == introspect_sections::METRICS {
                    &r.metrics_json
                } else {
                    &r.traces_json
                };
                println!("=== node {} ({}) ===", r.node, r.role.name());
                println!("{body}");
            }
            Err(e) => {
                failed += 1;
                eprintln!("node {:>4}  UNREACHABLE: {e}", node.raw());
            }
        }
    }
    if failed > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS }
}

fn cmd_watch(
    cluster: &KeraCluster,
    client: &RpcClient,
    interval_ms: u64,
    count: u32,
) -> ExitCode {
    let nodes = all_nodes(cluster);
    let mut last_progress: Vec<u64> = vec![0; nodes.len()];
    let mut failed = 0u32;
    for round in 0..count.max(1) {
        if round > 0 {
            std::thread::sleep(Duration::from_millis(interval_ms));
        }
        println!("--- scrape {} ---", round + 1);
        for (i, &node) in nodes.iter().enumerate() {
            match scrape(client, node, introspect_sections::HEALTH) {
                Ok(r) => {
                    let delta = r.progress.saturating_sub(last_progress[i]);
                    last_progress[i] = r.progress;
                    println!("{}  (+{delta})", health_line(&r));
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("node {:>4}  UNREACHABLE: {e}", node.raw());
                }
            }
        }
    }
    if failed > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS }
}

/// A short burst of real ingest so the flight recorders, and the slow
/// traces sampled from them, have spans to show: one R-min stream, a
/// few hundred records spread over every streamlet.
fn drive_ingest(cluster: &KeraCluster, client: &RpcClient) -> Result<()> {
    let brokers = cluster.config().brokers;
    let sc = StreamConfig {
        id: StreamId(1),
        streamlets: brokers,
        active_groups: 1,
        segments_per_group: 4,
        segment_size: 1 << 16,
        replication: ReplicationConfig {
            factor: brokers.min(3),
            policy: VirtualLogPolicy::SharedPerBroker(2),
            vseg_size: 1 << 16,
        },
    };
    let (md_bytes, _leader) = client.call_leader(
        &cluster.coordinators(),
        None,
        OpCode::CreateStream,
        CreateStreamRequest { config: sc }.encode(),
        CALL_TIMEOUT,
    )?;
    let md = StreamMetadata::decode(&md_bytes)?;
    for sl in 0..brokers {
        let Some(broker) = md.broker_of(StreamletId(sl)) else { continue };
        let mut b = ChunkBuilder::new(8192, ProducerId(1), StreamId(1), StreamletId(sl));
        for i in 0..50u32 {
            b.append(&Record::value_only(&[i as u8; 64]));
        }
        let chunk = b.seal();
        let req = ProduceRequest {
            producer: ProducerId(1),
            recovery: false,
            chunk_count: 1,
            chunks: chunk,
        };
        client.call(broker, OpCode::Produce, req.encode(), CALL_TIMEOUT)?;
    }
    Ok(())
}
