//! Chaos tests: the full produce → replicate → consume pipeline under a
//! seeded fault injector (drops, duplicates, delays) plus one transient
//! network partition, asserting the client-visible contract holds: every
//! acknowledged record is observed exactly once, in per-slot order.
//!
//! The faults are deterministic per (seed, node) pair; the assertions are
//! invariants, not schedules, so thread interleaving cannot flip them.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kera::broker::cluster::{backup_node, broker_node, client_node, coordinator_node, KeraCluster};
use kera::client::consumer::{Consumer, ConsumerConfig, Subscription};
use kera::client::producer::{Producer, ProducerConfig};
use kera::client::MetadataClient;
use kera::common::config::{
    ClusterConfig, CoordinatorConfig, FaultProfile, ReplicationConfig, RetryPolicy, StreamConfig,
    VirtualLogPolicy,
};
use kera::common::ids::{ConsumerId, NodeId, ProducerId, StreamId, StreamletId};
use kera::common::KeraError;
use kera::wire::frames::OpCode;
use kera::wire::messages::{
    introspect_sections, CreateStreamRequest, IntrospectRequest, IntrospectResponse, ProduceRequest,
};
use kera::wire::meta::GetLeaderResponse;

/// Serializes the drills: each one spins up a full multi-node cluster
/// (worker pools, chaos threads, in the overload storm ten full-speed
/// hammer threads) and asserts on latency windows and throughput
/// floors. Two clusters' worth of spinning threads sharing the machine
/// distort each other's timing — one drill at a time.
static SERIAL: parking_lot::Mutex<()> = parking_lot::Mutex::named("chaos.serial", ());

fn serial() -> parking_lot::MutexGuard<'static, ()> {
    SERIAL.lock()
}

fn chaos_cluster(brokers: u32, profile: FaultProfile) -> KeraCluster {
    KeraCluster::start(chaos_config(brokers, profile)).unwrap()
}

fn chaos_config(brokers: u32, profile: FaultProfile) -> ClusterConfig {
    ClusterConfig {
        brokers,
        worker_threads: 4,
        faults: Some(profile),
        // Patient client, snappy retransmits: a dropped request or reply
        // is retransmitted within attempt_timeout, and the attempt budget
        // (40 x 250 ms = the 10 s call deadline) rides out both slow
        // server-side replication and the partition window below.
        retry: RetryPolicy {
            max_attempts: 40,
            attempt_timeout: Duration::from_millis(250),
            initial_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
        },
        ..ClusterConfig::default()
    }
}

fn stream_config(factor: u32) -> StreamConfig {
    stream_config_for(1, factor)
}

fn stream_config_for(id: u32, factor: u32) -> StreamConfig {
    StreamConfig {
        id: StreamId(id),
        streamlets: 4,
        active_groups: 1,
        segments_per_group: 8,
        segment_size: 1 << 16,
        replication: ReplicationConfig {
            factor,
            policy: VirtualLogPolicy::SharedPerBroker(2),
            vseg_size: 1 << 16,
        },
    }
}

/// A 64-byte record value carrying its sequence number in the first 8
/// bytes. Fat records mean many chunks, many produce/replicate RPCs —
/// enough traffic for percent-level fault rates to actually fire.
fn payload(i: u64) -> [u8; 64] {
    let mut v = [0u8; 64];
    v[..8].copy_from_slice(&i.to_le_bytes());
    v
}

/// Drains the consumer until `n` records arrive (or a deadline), checking
/// per-(streamlet, slot) order as it goes; returns the observed values.
fn drain(consumer: &Consumer, n: u64) -> Vec<u64> {
    let mut seen: Vec<u64> = Vec::new();
    let mut last_per_slot: HashMap<(StreamletId, u32), u64> = HashMap::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    while (seen.len() as u64) < n && Instant::now() < deadline {
        let Some(batch) = consumer.next_batch(Duration::from_millis(100)) else { continue };
        let key = (batch.streamlet, batch.slot);
        batch
            .for_each_record(|_, rec| {
                let v = u64::from_le_bytes(rec.value()[..8].try_into().unwrap());
                if let Some(&prev) = last_per_slot.get(&key) {
                    assert!(v > prev, "per-slot order violated under faults: {v} after {prev}");
                }
                last_per_slot.insert(key, v);
                seen.push(v);
            })
            .unwrap();
    }
    seen
}

/// Lossy, duplicating, delaying network plus one transient partition that
/// black-holes every broker→backup path for 400 ms mid-produce. Retries,
/// retransmit dedup and replication re-issues must carry every record
/// through: no loss, no duplication, order preserved.
#[test]
fn lossy_cluster_with_transient_partition_loses_nothing() {
    let _serial = serial();
    let cluster = chaos_cluster(
        3,
        FaultProfile {
            seed: 0xC4A0_57E5,
            drop_rate: 0.05,
            duplicate_rate: 0.02,
            delay_rate: 0.10,
            max_delay: Duration::from_millis(2),
        },
    );
    let prod_rt = cluster.client(0);
    let meta_p = MetadataClient::new(prod_rt.client(), cluster.coordinator());
    meta_p.create_stream(stream_config(2)).unwrap();

    let producer = Producer::new(
        &meta_p,
        &[StreamId(1)],
        ProducerConfig {
            id: ProducerId(0),
            chunk_size: 512,
            linger: Duration::from_millis(1),
            ..ProducerConfig::default()
        },
    )
    .unwrap();

    const PHASE1: u64 = 800;
    const PHASE2: u64 = 800;
    const PHASE3: u64 = 400;
    const TOTAL: u64 = PHASE1 + PHASE2 + PHASE3;

    // Phase 1: steady state under random drops/duplicates/delays. The
    // short sleeps spread sends over many linger windows, so the producer
    // issues many requests instead of a few giant batches — enough RPC
    // traffic for the percent-level fault rates to actually fire.
    for i in 0..PHASE1 {
        producer.send(StreamId(1), &payload(i)).unwrap();
        if i % 50 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    producer.flush().unwrap();

    // Phase 2: black-hole every broker→backup pair (replication stalls
    // cluster-wide), heal after 400 ms while produces are in flight. The
    // client's retransmits and the replication channel's re-issues both
    // outlast the window, so `VirtualLog::sync` succeeds via retries.
    let plan = cluster.fault_plan().expect("cluster started with faults").clone();
    for b in 0..3 {
        for k in 0..3 {
            plan.partition(broker_node(b), backup_node(k));
        }
    }
    let healer = {
        let plan = plan.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(400));
            plan.heal_all();
        })
    };
    for i in PHASE1..PHASE1 + PHASE2 {
        producer.send(StreamId(1), &payload(i)).unwrap();
        if i % 50 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    producer.flush().unwrap();
    healer.join().unwrap();

    // Phase 3: post-heal steady state.
    for i in PHASE1 + PHASE2..TOTAL {
        producer.send(StreamId(1), &payload(i)).unwrap();
        if i % 50 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    producer.flush().unwrap();
    assert_eq!(producer.metrics().items(), TOTAL, "every send acknowledged");
    assert_eq!(producer.failed_requests(), 0, "no request exhausted retries");
    producer.close().unwrap();

    // The injector actually did something: messages were dropped by the
    // random faults and black-holed by the partition.
    assert!(
        plan.dropped() > 0,
        "drop_rate 5% never fired: dropped={} duplicated={} delayed={} blocked={}",
        plan.dropped(),
        plan.duplicated(),
        plan.delayed(),
        plan.blocked(),
    );
    assert!(plan.blocked() > 0, "partition window black-holed no messages");

    // Every record exactly once, in per-slot order, from a fresh client.
    let cons_rt = cluster.client(1);
    let meta_c = MetadataClient::new(cons_rt.client(), cluster.coordinator());
    let consumer = Consumer::new(
        &meta_c,
        &[Subscription::whole_stream(StreamId(1))],
        ConsumerConfig { id: ConsumerId(0), fetch_max_bytes: 4096, ..ConsumerConfig::default() },
    )
    .unwrap();
    let mut seen = drain(&consumer, TOTAL);
    assert_eq!(seen.len() as u64, TOTAL, "record count under faults");
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len() as u64, TOTAL, "no duplicates slipped through");
    assert_eq!(*seen.first().unwrap(), 0);
    assert_eq!(*seen.last().unwrap(), TOTAL - 1);

    consumer.close();
    cluster.shutdown();
}

/// Crash recovery driven over a lossy network: enumerate/read/re-ingest
/// RPCs all ride the retry plane, and the recovered stream still serves
/// every acknowledged record exactly once. The backups write their
/// closed segments to files meanwhile.
#[test]
fn crash_recovery_survives_lossy_network() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("kera-chaos-files-{}", std::process::id()));
    let profile = FaultProfile {
        seed: 0xDEC0_DE01,
        drop_rate: 0.01,
        duplicate_rate: 0.01,
        delay_rate: 0.02,
        max_delay: Duration::from_millis(1),
    };
    let config = ClusterConfig { flush_dir: Some(dir.clone()), ..chaos_config(4, profile) };
    let mut cluster = KeraCluster::start(config).unwrap();
    let prod_rt = cluster.client(0);
    let meta_p = MetadataClient::new(prod_rt.client(), cluster.coordinator());
    meta_p.create_stream(stream_config(3)).unwrap();

    let producer = Producer::new(
        &meta_p,
        &[StreamId(1)],
        ProducerConfig {
            id: ProducerId(0),
            chunk_size: 512,
            linger: Duration::from_millis(1),
            ..ProducerConfig::default()
        },
    )
    .unwrap();
    const N: u64 = 800;
    for i in 0..N {
        producer.send(StreamId(1), &i.to_le_bytes()).unwrap();
    }
    producer.flush().unwrap();
    assert_eq!(producer.metrics().items(), N);
    producer.close().unwrap();

    cluster.crash_server(0);

    let rec_rt = cluster.client(1);
    let manager = kera::recovery::RecoveryManager::new(
        rec_rt.client(),
        cluster.coordinator(),
        cluster.backups(),
        // Small replay batches: each RecoveryIngest stays well inside
        // one attempt_timeout even when its replication hits drops.
        kera::recovery::RecoveryConfig {
            replay_request_bytes: 64 << 10,
            ..kera::recovery::RecoveryConfig::default()
        },
    );
    let report = manager.recover(broker_node(0)).unwrap();
    assert!(report.reassigned_streamlets > 0);
    assert!(report.records_recovered > 0);

    let plan = cluster.fault_plan().unwrap();
    assert!(plan.dropped() > 0, "recovery traffic saw no drops");

    let cons_rt = cluster.client(2);
    let meta_c = MetadataClient::new(cons_rt.client(), cluster.coordinator());
    let consumer = Consumer::new(
        &meta_c,
        &[Subscription::whole_stream(StreamId(1))],
        ConsumerConfig { id: ConsumerId(0), fetch_max_bytes: 4096, ..ConsumerConfig::default() },
    )
    .unwrap();
    let mut seen = drain(&consumer, N);
    assert_eq!(seen.len() as u64, N, "record count after faulty recovery");
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len() as u64, N);

    consumer.close();
    let flush_errors = cluster.metrics_snapshot().counter_sum("kera.storage.errors", &[]);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(flush_errors, 0);
}

// ---------------------------------------------------------------------------
// Coordinator failover chaos (DESIGN.md §10): a 3-replica metadata plane
// must survive the leader dying, hanging, or being partitioned away —
// with a bounded election window, no metadata loss and no split-brain.
// ---------------------------------------------------------------------------

/// Every coordinator failover scenario runs under snappy election
/// timeouts (so a failover completes in tens of milliseconds, not the
/// production default of hundreds) and the chaos retry policy.
fn replicated_cluster(brokers: u32, faults: Option<FaultProfile>) -> KeraCluster {
    KeraCluster::start(replicated_config(brokers, faults)).unwrap()
}

fn replicated_config(brokers: u32, faults: Option<FaultProfile>) -> ClusterConfig {
    ClusterConfig {
        brokers,
        worker_threads: 4,
        faults,
        coordinator: CoordinatorConfig {
            replicas: 3,
            heartbeat_interval: Duration::from_millis(10),
            election_timeout_min: Duration::from_millis(60),
            election_timeout_max: Duration::from_millis(120),
            ..CoordinatorConfig::default()
        },
        retry: RetryPolicy {
            max_attempts: 40,
            attempt_timeout: Duration::from_millis(250),
            initial_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
        },
        ..ClusterConfig::default()
    }
}

/// Upper bound on how long a failover may take before the suite calls it
/// a hang. Generous vs. the ~120 ms election timeout: CI boxes stall.
const ELECTION_WINDOW: Duration = Duration::from_secs(10);

/// Polls until some replica other than `exclude` believes it leads.
fn await_new_leader(cluster: &KeraCluster, exclude: Option<u32>) -> u32 {
    let deadline = Instant::now() + ELECTION_WINDOW;
    loop {
        for (i, svc) in cluster.coordinator_svcs.iter().enumerate() {
            if Some(i as u32) != exclude && svc.is_leader() {
                return i as u32;
            }
        }
        assert!(
            Instant::now() < deadline,
            "no new coordinator leader within {ELECTION_WINDOW:?} (excluded {exclude:?})"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Polls until exactly one replica leads and replica `old` — a deposed
/// leader back in reach — has `streams` committed streams.
fn await_one_leader_and_caught_up(cluster: &KeraCluster, old: u32, streams: usize) {
    let deadline = Instant::now() + ELECTION_WINDOW;
    loop {
        let leaders = cluster.coordinator_svcs.iter().filter(|s| s.is_leader()).count();
        let caught_up = cluster.coordinator_svcs[old as usize].committed_streams() >= streams;
        if leaders == 1 && caught_up {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "convergence failed: leaders={leaders} caught_up={caught_up}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The split-brain audit: across every replica's full history, no term
/// may have been won twice. (Replica-local `won_terms` lists survive
/// kills and holds — the `Arc<CoordinatorService>` outlives both.)
fn assert_no_split_brain(cluster: &KeraCluster) {
    let mut winner_of: HashMap<u64, usize> = HashMap::new();
    for (i, svc) in cluster.coordinator_svcs.iter().enumerate() {
        for term in svc.won_terms() {
            if let Some(prev) = winner_of.insert(term, i) {
                panic!("split brain: term {term} won by replica {prev} and replica {i}");
            }
        }
    }
}

/// Crash the leader while producers are mid-stream:
/// a survivor must take over within the election window, in-flight
/// ingestion must keep acknowledging, and every committed stream must
/// still resolve afterwards — no metadata loss, no split-brain.
#[test]
fn coordinator_leader_kill_fails_over_without_metadata_loss() {
    let _serial = serial();
    let mut cluster = replicated_cluster(3, None);
    let prod_rt = cluster.client(0);
    let meta_p = MetadataClient::with_replicas(prod_rt.client(), cluster.coordinators());
    meta_p.create_stream(stream_config(2)).unwrap();

    let producer = Producer::new(
        &meta_p,
        &[StreamId(1)],
        ProducerConfig {
            id: ProducerId(0),
            chunk_size: 512,
            linger: Duration::from_millis(1),
            ..ProducerConfig::default()
        },
    )
    .unwrap();

    const PHASE1: u64 = 400;
    const PHASE2: u64 = 400;
    const TOTAL: u64 = PHASE1 + PHASE2;
    for i in 0..PHASE1 {
        producer.send(StreamId(1), &payload(i)).unwrap();
    }
    producer.flush().unwrap();

    // Kill the leader, then keep producing immediately: the data plane
    // (brokers + backups) must not miss a beat during the election.
    let old = cluster.coordinator_leader().expect("bootstrap election completed");
    cluster.crash(coordinator_node(old));
    let failover_started = Instant::now();
    for i in PHASE1..TOTAL {
        producer.send(StreamId(1), &payload(i)).unwrap();
    }
    producer.flush().unwrap();
    assert_eq!(producer.metrics().items(), TOTAL, "ingestion stalled during failover");
    assert_eq!(producer.failed_requests(), 0);
    producer.close().unwrap();

    let new = await_new_leader(&cluster, Some(old));
    assert_ne!(new, old);
    let window = failover_started.elapsed();
    assert!(window < ELECTION_WINDOW, "failover took {window:?}");

    // The metadata plane works again: a *new* stream commits through the
    // new leader, and the pre-failover stream still resolves from a
    // fresh client with its placements intact — nothing was lost.
    let admin_rt = cluster.client(1);
    let admin = MetadataClient::with_replicas(admin_rt.client(), cluster.coordinators());
    let md2 = admin
        .create_stream(StreamConfig { id: StreamId(2), ..stream_config(2) })
        .expect("create_stream after failover");
    assert_eq!(md2.config.id, StreamId(2));
    let md1 = admin.refresh(StreamId(1)).expect("pre-failover stream survived");
    assert_eq!(md1.placements.len(), 4, "placements lost in failover");

    // Every acknowledged record is still consumable, exactly once.
    let cons_rt = cluster.client(2);
    let meta_c = MetadataClient::with_replicas(cons_rt.client(), cluster.coordinators());
    let consumer = Consumer::new(
        &meta_c,
        &[Subscription::whole_stream(StreamId(1))],
        ConsumerConfig { id: ConsumerId(0), fetch_max_bytes: 4096, ..ConsumerConfig::default() },
    )
    .unwrap();
    let mut seen = drain(&consumer, TOTAL);
    assert_eq!(seen.len() as u64, TOTAL, "records lost across coordinator failover");
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len() as u64, TOTAL);
    consumer.close();

    assert_no_split_brain(&cluster);
    let snap = cluster.metrics_snapshot();
    assert!(
        snap.counter_sum("coord_failovers_total", &[]) >= 1,
        "failover counter never fired"
    );
    assert!(snap.counter_sum("coord_elections_total", &[]) >= 2, "elections counter too low");
    cluster.shutdown();
}

/// Hold the leader's node (an unreachable process: nothing arrives,
/// nothing it sends leaves, and nothing is lost): the survivors must
/// depose it, and on release the whole backlog — its stale heartbeats
/// and votes, the clients' expired requests — lands in one burst, after
/// which exactly one replica leads and the old leader has caught up.
#[test]
fn coordinator_frozen_leader_is_deposed_and_steps_down_on_thaw() {
    let _serial = serial();
    let cluster = replicated_cluster(2, Some(FaultProfile::default()));
    let admin_rt = cluster.client(0);
    let admin = MetadataClient::with_replicas(admin_rt.client(), cluster.coordinators());
    admin.create_stream(stream_config(2)).unwrap();

    let old = cluster.coordinator_leader().expect("bootstrap election completed");
    let plan = cluster.fault_plan().expect("started with a fault plan").clone();
    plan.hold(coordinator_node(old));

    // The survivors elect around the held leader, and the metadata plane
    // keeps serving writes while it is still out of reach.
    let new = await_new_leader(&cluster, Some(old));
    assert_ne!(new, old);
    admin
        .create_stream(StreamConfig { id: StreamId(2), ..stream_config(2) })
        .expect("create_stream while old leader held");
    assert!(plan.held() > 0, "the hold kept nothing");

    // Release: the backlog lands, the terms settle, and the old leader
    // tails the log it missed. Eventually exactly one replica leads.
    plan.release(coordinator_node(old));
    await_one_leader_and_caught_up(&cluster, old, 2);

    // Both streams — one committed before the hold, one during — are
    // visible from a fresh client via the surviving leader.
    let rt = cluster.client(1);
    let meta = MetadataClient::with_replicas(rt.client(), cluster.coordinators());
    assert_eq!(meta.refresh(StreamId(1)).unwrap().config.id, StreamId(1));
    assert_eq!(meta.refresh(StreamId(2)).unwrap().config.id, StreamId(2));

    assert_no_split_brain(&cluster);
    cluster.shutdown();
}

/// Partition the leader from its peers: it must lose quorum and
/// abdicate, the majority side must elect, and on heal the old leader
/// must rejoin as a follower and replicate what it missed — without two
/// replicas ever winning the same term.
#[test]
fn coordinator_partitioned_leader_abdicates_and_rejoins() {
    let _serial = serial();
    let cluster = replicated_cluster(2, Some(FaultProfile::default()));
    let admin_rt = cluster.client(0);
    let admin = MetadataClient::with_replicas(admin_rt.client(), cluster.coordinators());
    admin.create_stream(stream_config(2)).unwrap();

    let old = cluster.coordinator_leader().expect("bootstrap election completed");
    let plan = cluster.fault_plan().expect("started with a fault plan").clone();
    // Island the leader: cut it from its replica peers *and* from the
    // clients, so nothing can reach it while it still thinks it leads.
    for i in 0..3u32 {
        if i != old {
            plan.partition(coordinator_node(old), coordinator_node(i));
        }
    }
    plan.partition(coordinator_node(old), kera::broker::cluster::client_node(0));
    plan.partition(coordinator_node(old), kera::broker::cluster::client_node(1));

    // The majority side elects a new leader and keeps committing.
    let new = await_new_leader(&cluster, Some(old));
    assert_ne!(new, old);
    admin
        .create_stream(StreamConfig { id: StreamId(2), ..stream_config(2) })
        .expect("create_stream on the majority side");

    // The islanded leader loses quorum acks and abdicates within its
    // election timeout — no minority leader lingers.
    let deadline = Instant::now() + ELECTION_WINDOW;
    while cluster.coordinator_svcs[old as usize].is_leader() {
        assert!(Instant::now() < deadline, "partitioned leader never abdicated");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Heal: the old leader rejoins, observes the higher term, and tails
    // the log it missed; the cluster converges on one leader.
    plan.heal_all();
    await_one_leader_and_caught_up(&cluster, old, 2);

    assert_no_split_brain(&cluster);
    let snap = cluster.metrics_snapshot();
    assert!(snap.counter_sum("coord_failovers_total", &[]) >= 1);
    cluster.shutdown();
}

/// A coordinator op waits as a kept `Reply`, not on a worker: with both
/// followers held, eight CreateStreams wait for a quorum that cannot
/// answer, and the leader still answers a GetLeader at once. (With each
/// op parking a worker until its commit or the leader's abdication, the
/// GetLeader queued behind them for seconds.) On release every create
/// ends, committed or timed out.
#[test]
fn coordinator_answers_get_leader_while_its_quorum_is_held() {
    let _serial = serial();
    let config = replicated_config(2, Some(FaultProfile::default()));
    let coordinator = CoordinatorConfig {
        election_timeout_min: Duration::from_secs(2),
        election_timeout_max: Duration::from_secs(3),
        ..config.coordinator
    };
    let cluster = KeraCluster::start(ClusterConfig { coordinator, ..config }).unwrap();
    let leader = await_new_leader(&cluster, None);
    let followers: Vec<NodeId> =
        (0..3).filter(|&i| i != leader).map(coordinator_node).collect();
    let leader = coordinator_node(leader);
    let plan = cluster.fault_plan().expect("started with a fault plan").clone();
    let rt = cluster.client(0);
    let client = rt.client();

    for &f in &followers {
        plan.hold(f);
    }
    let budget = Duration::from_secs(5);
    let creates: Vec<_> = (1..=8)
        .map(|i| {
            let req = CreateStreamRequest { config: stream_config_for(i, 2) };
            client.call_async(leader, OpCode::CreateStream, req.encode(), budget)
        })
        .collect();
    let asked = Instant::now();
    let answer = client
        .call(leader, OpCode::GetLeader, bytes::Bytes::new(), Duration::from_millis(500))
        .expect("GetLeader answered while the creates wait");
    assert!(asked.elapsed() < Duration::from_millis(500), "{:?}", asked.elapsed());
    assert!(GetLeaderResponse::decode(&answer).unwrap().is_leader);

    for &f in &followers {
        plan.release(f);
    }
    for create in creates {
        match create.wait(budget) {
            Ok(_) | Err(KeraError::Timeout { .. }) => {}
            // The leader's own commit deadline, as it crosses the wire.
            Err(KeraError::Protocol(m)) if m.contains("metadata log commit timed out") => {}
            Err(e) => panic!("a create ended in {e}"),
        }
    }
    assert_no_split_brain(&cluster);
    cluster.shutdown();
}

// ---------------------------------------------------------------------------
// Overload chaos: clients that do not cooperate. Nothing admits or meters
// a request; what bounds a tenant is that each call waits for its reply,
// and what is fair is that every node serves its requests from one FIFO
// work queue.
// ---------------------------------------------------------------------------

fn overload_cluster(faults: Option<FaultProfile>) -> KeraCluster {
    KeraCluster::start(ClusterConfig {
        brokers: 2,
        worker_threads: 4,
        faults,
        ..ClusterConfig::default()
    })
    .unwrap()
}

/// Sends a fixed record volume from one polite producer and flushes;
/// returns the elapsed time. Fails the test unless every request was
/// acknowledged.
fn polite_run(cluster: &KeraCluster, total: u64) -> Duration {
    let rt = cluster.client(0);
    let meta = MetadataClient::new(rt.client(), cluster.coordinator());
    let producer = Producer::new(
        &meta,
        &[StreamId(1)],
        ProducerConfig {
            id: ProducerId(0),
            // Small chunks and requests: thousands of produce calls, each
            // of which queues behind whatever the abusers have in line.
            // Pipeline depth 1 (the default) keeps per-slot order.
            chunk_size: 512,
            request_max_bytes: 32 * 1024,
            linger: Duration::from_millis(1),
            ..ProducerConfig::default()
        },
    )
    .unwrap();
    let start = Instant::now();
    for i in 0..total {
        producer.send(StreamId(1), &payload(i)).unwrap();
    }
    producer.flush().unwrap();
    let elapsed = start.elapsed();
    assert_eq!(producer.failed_requests(), 0, "polite producer lost requests");
    assert_eq!(producer.metrics().items(), total, "every polite send acknowledged");
    producer.close().unwrap();
    elapsed
}

/// The 10:1 raw-RPC storm: ten clients that bypass the producer library
/// hammer both brokers with junk produce calls while one polite producer
/// streams. Each tenant has one request in flight per broker, and a
/// broker serves its work queue in arrival order, so a polite request
/// waits behind at most ten others: the polite rate under the storm must
/// be at least 1/11 of its rate alone. Every abuser call is answered with
/// an error, never left to time out, and every polite record is delivered
/// exactly once in per-slot order.
#[test]
fn raw_rpc_storm_does_not_starve_a_polite_producer() {
    let _serial = serial();
    const POLITE_RECORDS: u64 = 300_000;

    // Baseline: the polite tenant alone on an identical cluster.
    let baseline = overload_cluster(None);
    let admin_rt = baseline.client(20);
    let admin = MetadataClient::new(admin_rt.client(), baseline.coordinator());
    admin.create_stream(stream_config_for(1, 1)).unwrap();
    drop(admin_rt);
    let iso_elapsed = polite_run(&baseline, POLITE_RECORDS);
    baseline.shutdown();

    // Storm: the same cluster plus ten abusers. The producer library's
    // pacing (bounded queue, linger, one request per broker) is exactly
    // what an abuser does not run, so they drive the RPC directly.
    let cluster = overload_cluster(None);
    let admin_rt = cluster.client(20);
    let admin = MetadataClient::new(admin_rt.client(), cluster.coordinator());
    admin.create_stream(stream_config_for(1, 1)).unwrap();
    drop(admin_rt);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut abuser_threads = Vec::new();
    for a in 0..10u32 {
        let rt = cluster.client(1 + a);
        let stop = Arc::clone(&stop);
        abuser_threads.push(std::thread::spawn(move || {
            // 64 KB of garbage claiming 16 chunks: the broker refuses it
            // at the first chunk header.
            let junk = ProduceRequest {
                producer: ProducerId(100 + a),
                recovery: false,
                chunk_count: 16,
                chunks: vec![0xABu8; 64 * 1024].into(),
            }
            .encode();
            let client = rt.client();
            let (mut calls, mut refused) = (0u64, 0u64);
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let broker = broker_node((a + calls as u32) % 2);
                match client.call(broker, OpCode::Produce, junk.clone(), Duration::from_secs(2)) {
                    Err(KeraError::Protocol(_)) => refused += 1,
                    Err(e @ KeraError::Timeout { .. }) => panic!("abuser call timed out: {e}"),
                    other => panic!("abuser call not refused: {other:?}"),
                }
                calls += 1;
                // An attempt every ~half millisecond per abuser: a storm
                // of calls, not ten threads spinning on two cores.
                std::thread::sleep(Duration::from_micros(500));
            }
            (calls, refused)
        }));
    }

    let storm_elapsed = polite_run(&cluster, POLITE_RECORDS);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let (mut calls, mut refused) = (0, 0);
    for t in abuser_threads {
        let (c, r) = t.join().unwrap();
        calls += c;
        refused += r;
    }
    assert!(calls > 0, "the abusers made no calls");
    assert_eq!(refused, calls, "every abuser call ends in an error reply");

    let iso_rate = POLITE_RECORDS as f64 / iso_elapsed.as_secs_f64();
    let storm_rate = POLITE_RECORDS as f64 / storm_elapsed.as_secs_f64();
    eprintln!(
        "storm {storm_rate:.0} rec/s ({storm_elapsed:?}) vs isolated {iso_rate:.0} rec/s \
         ({iso_elapsed:?}): ratio {:.2}; {calls} abuser calls",
        storm_rate / iso_rate
    );
    assert!(
        storm_rate >= iso_rate / 11.0,
        "polite tenant starved: storm {storm_rate:.0} rec/s ({storm_elapsed:?}) \
         vs isolated {iso_rate:.0} rec/s ({iso_elapsed:?})"
    );

    // Every acked polite record arrives exactly once, in per-slot order.
    let cons_rt = cluster.client(12);
    let meta_c = MetadataClient::new(cons_rt.client(), cluster.coordinator());
    let consumer = Consumer::new(
        &meta_c,
        &[Subscription::whole_stream(StreamId(1))],
        ConsumerConfig { id: ConsumerId(0), fetch_max_bytes: 4096, ..ConsumerConfig::default() },
    )
    .unwrap();
    let mut seen = drain(&consumer, POLITE_RECORDS);
    assert_eq!(seen.len() as u64, POLITE_RECORDS, "polite record count");
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len() as u64, POLITE_RECORDS, "duplicate polite records");
    assert_eq!(*seen.first().unwrap(), 0);
    assert_eq!(*seen.last().unwrap(), POLITE_RECORDS - 1);
    consumer.close();

    cluster.shutdown();
}

/// Slow-consumer pile-up: one consumer's uplink turns glacial (every
/// send stalls) while another reads at full speed. A consumer has one
/// fetch in flight per broker, so the stalled one piles nothing up on
/// the broker, and *both* consumers — fast and slow — must still receive
/// every acknowledged record exactly once.
#[test]
fn slow_consumer_pileup_keeps_broker_bounded() {
    let _serial = serial();
    // Inert fault profile: zero rates, but the injector is wired so
    // slow-client mode can be flipped on per node.
    let cluster = overload_cluster(Some(FaultProfile::default()));
    let plan = cluster.fault_plan().expect("faults wired").clone();

    let prod_rt = cluster.client(0);
    let meta_p = MetadataClient::new(prod_rt.client(), cluster.coordinator());
    meta_p.create_stream(stream_config(1)).unwrap();
    let producer = Producer::new(
        &meta_p,
        &[StreamId(1)],
        ProducerConfig { id: ProducerId(0), chunk_size: 512, ..ProducerConfig::default() },
    )
    .unwrap();
    const TOTAL: u64 = 1500;
    for i in 0..TOTAL {
        producer.send(StreamId(1), &payload(i)).unwrap();
    }
    producer.flush().unwrap();
    assert_eq!(producer.failed_requests(), 0);
    producer.close().unwrap();

    // The slow consumer: every byte it sends (fetch requests included)
    // stalls 2 ms at the transport.
    plan.set_slow(client_node(2), Duration::from_millis(2));

    let drain_all = |client_idx: u32, consumer_id: u32| {
        let rt = cluster.client(client_idx);
        let meta = MetadataClient::new(rt.client(), cluster.coordinator());
        let consumer = Consumer::new(
            &meta,
            &[Subscription::whole_stream(StreamId(1))],
            ConsumerConfig {
                id: ConsumerId(consumer_id),
                fetch_max_bytes: 4096,
                ..ConsumerConfig::default()
            },
        )
        .unwrap();
        let mut seen = drain(&consumer, TOTAL);
        consumer.close();
        assert_eq!(seen.len() as u64, TOTAL, "consumer {consumer_id} record count");
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len() as u64, TOTAL, "consumer {consumer_id} saw duplicates");
    };
    drain_all(1, 0); // full speed
    drain_all(2, 1); // glacial uplink

    assert!(plan.stalled() > 0, "slow-client mode never stalled a send");

    cluster.shutdown();
}

/// The stall drill (DESIGN.md §13): hold the backup a broker's virtual
/// log replicates to, mid-ingest, with the watchdogs armed. The produce
/// in flight stalls where this system really stalls — on a virtual log
/// whose round waits for an ack, its reply kept and counted in flight —
/// the progress heartbeat stops, and within the threshold the broker's
/// watchdog must auto-dump its flight-recorder ring plus at least one
/// sampled slow span tree — the post-mortem an operator would otherwise
/// have to race the stall to collect. No worker is parked meanwhile: the
/// broker, booted with one, still serves a fetch and Introspect.
#[test]
fn held_backup_mid_ingest_triggers_watchdog_dump() {
    use kera::wire::chunk::{ChunkBuilder, ChunkIter};
    use kera::wire::cursor::SlotCursor;
    use kera::wire::messages::{FetchEntry, FetchRequest, FetchResponse};
    use kera::wire::record::Record;

    let _serial = serial();
    let mut cluster = KeraCluster::start(ClusterConfig {
        brokers: 2,
        worker_threads: 1,
        faults: Some(FaultProfile::default()),
        ..ClusterConfig::default()
    })
    .unwrap();
    cluster.arm_watchdogs(Duration::from_millis(150));

    let client_rt = cluster.client(0);
    let client = client_rt.client();
    let md_bytes = client
        .call(
            cluster.coordinator(),
            OpCode::CreateStream,
            kera::wire::messages::CreateStreamRequest { config: stream_config_for(77, 2) }
                .encode(),
            Duration::from_secs(5),
        )
        .unwrap();
    let md = kera::wire::messages::StreamMetadata::decode(&md_bytes).unwrap();
    let broker = md.broker_of(StreamletId(0)).unwrap();

    let make_chunk = || {
        let mut b = ChunkBuilder::new(8192, ProducerId(9), StreamId(77), StreamletId(0));
        for i in 0..20u32 {
            b.append(&Record::value_only(&payload(u64::from(i))));
        }
        b.seal()
    };
    let produce_req = |chunk: bytes::Bytes| ProduceRequest {
        producer: ProducerId(9),
        recovery: false,
        chunk_count: 1,
        chunks: chunk,
    };

    // Real ingest first: spans land in the ring and the slow store, and
    // the progress heartbeat advances.
    for _ in 0..3 {
        client
            .call(broker, OpCode::Produce, produce_req(make_chunk()).encode(), Duration::from_secs(5))
            .unwrap();
    }

    // Hold the backup — with two servers, and a virtual log never on its
    // co-located backup, the other server's — then send the produce
    // whose replication round stalls on it.
    let plan = cluster.fault_plan().expect("started with a fault plan").clone();
    let backup = backup_node(2 - broker.raw());
    plan.hold(backup);
    let hung = {
        let client = client_rt.client();
        let req = produce_req(make_chunk()).encode();
        std::thread::spawn(move || {
            client.call(broker, OpCode::Produce, req, Duration::from_secs(10))
        })
    };

    // The broker's watchdog must notice: work in flight, heartbeat flat.
    let deadline = Instant::now() + Duration::from_secs(5);
    let dump = loop {
        if let Some(path) = cluster.watchdogs().iter().find_map(|w| {
            (w.fired() > 0).then(|| w.last_dump()).flatten()
        }) {
            break path;
        }
        assert!(Instant::now() < deadline, "watchdog never fired on the stalled broker");
        std::thread::sleep(Duration::from_millis(10));
    };
    let body = std::fs::read_to_string(&dump).unwrap();
    assert!(
        body.contains(&format!("\"node\":{}", broker.raw())),
        "dump is not the stalled broker's: {dump:?}"
    );
    assert!(body.contains("\"ring\":{"), "flight-recorder ring missing from dump");
    assert!(
        body.contains("\"slow_traces\":[{") && body.contains("\"tree\":["),
        "expected at least one sampled slow span tree in the dump"
    );

    // Its one worker is free: a fetch is served while the produce waits —
    // the three produces before it, nothing of the held one.
    let fetch = FetchRequest {
        consumer: ConsumerId(1),
        entries: vec![FetchEntry {
            stream: StreamId(77),
            streamlet: StreamletId(0),
            slot: 0,
            cursor: SlotCursor::START,
            max_bytes: 1 << 20,
        }],
    };
    let fetched = client
        .call(broker, OpCode::Fetch, fetch.encode(), Duration::from_secs(2))
        .expect("the stalled broker's worker is parked");
    let fetched = FetchResponse::decode_bytes(&fetched).unwrap();
    assert_eq!(ChunkIter::new(&fetched.results[0].data).count(), 3, "served a chunk not durable");

    // The stalled node stays observable: Introspect answers while the
    // produce waits, and reports it in flight.
    let intro = client
        .call(
            broker,
            OpCode::Introspect,
            IntrospectRequest { sections: introspect_sections::HEALTH }.encode(),
            Duration::from_secs(2),
        )
        .unwrap();
    let intro = IntrospectResponse::decode(&intro).unwrap();
    assert!(intro.inflight >= 1, "stalled broker must report its stuck produce in flight");
    assert_eq!(intro.watchdog_ms, 150);
    assert!(plan.held() > 0, "the hold kept nothing");

    // Release: the kept write and its ack land, the stalled produce
    // completes and ingest resumes.
    plan.release(backup);
    hung.join().unwrap().expect("produce must complete after release");
    client
        .call(broker, OpCode::Produce, produce_req(make_chunk()).encode(), Duration::from_secs(5))
        .unwrap();
    cluster.shutdown();
}
