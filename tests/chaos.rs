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
    ClusterConfig, CoordinatorConfig, FaultProfile, QuotaConfig, ReplicationConfig, RetryPolicy,
    StreamConfig, VirtualLogPolicy,
};
use kera::common::ids::{ConsumerId, ProducerId, StreamId, StreamletId};
use kera::wire::frames::OpCode;
use kera::wire::messages::{introspect_sections, IntrospectRequest, IntrospectResponse, ProduceRequest};

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
    KeraCluster::start(ClusterConfig {
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
    })
    .unwrap()
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
/// every acknowledged record exactly once.
#[test]
fn crash_recovery_survives_lossy_network() {
    let _serial = serial();
    let mut cluster = chaos_cluster(
        4,
        FaultProfile {
            seed: 0xDEC0_DE01,
            drop_rate: 0.01,
            duplicate_rate: 0.01,
            delay_rate: 0.02,
            max_delay: Duration::from_millis(1),
        },
    );
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
    cluster.shutdown();
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
    KeraCluster::start(ClusterConfig {
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
    })
    .unwrap()
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

/// Kill the leader (clean process exit) while producers are mid-stream:
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
    cluster.kill_coordinator(old);
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

// ---------------------------------------------------------------------------
// Overload chaos: multi-tenant admission control under abusive load
// (DESIGN.md §11). These drills run with quotas *enabled* — every other
// test in the suite runs with the default `enabled: false` and must be
// byte-for-byte unaffected by the admission plane.
// ---------------------------------------------------------------------------

fn quota_cluster(brokers: u32, quotas: QuotaConfig, faults: Option<FaultProfile>) -> KeraCluster {
    KeraCluster::start(ClusterConfig {
        brokers,
        worker_threads: 4,
        quotas,
        faults,
        ..ClusterConfig::default()
    })
    .unwrap()
}

/// Quota profile for the overload storm: a 2 MB/s per-tenant rate far
/// below what the unthrottled broker can serve, so the quota — not the
/// machine — is the binding constraint in both the isolated baseline
/// and the storm run. The polite producer's requests are capped below
/// `burst_bytes` (a request larger than the burst can never be
/// admitted).
fn storm_quotas() -> QuotaConfig {
    QuotaConfig {
        enabled: true,
        produce_bytes_per_sec: 1024 * 1024,
        burst_bytes: 64 * 1024,
        fetch_bytes_per_sec: 0,
        max_inflight_bytes: 256 * 1024,
        // Roomy enough that eleven tenants' bursts and windows fit: the
        // queue-full path rejects *terminally* (memory pressure is not
        // retriable politeness), and this drill wants the polite tenant
        // throttled, never rejected.
        admission_queue_bytes: 4 * 1024 * 1024,
        // Low enough that an instant-retry abuser trips them within one
        // refill window, high enough that the polite producer (honest
        // backoff — its counter resets on every admit) never can.
        reject_after_throttles: 6,
        evict_after_rejections: 3,
        evict_cooldown: Duration::from_millis(200),
        zombie_idle: Duration::from_millis(1500),
    }
}

/// Sends a fixed record volume from one polite (throttle-honoring)
/// producer and flushes; returns (elapsed, client throttle count). The
/// volume is several times the per-tenant burst, so the quota — not
/// machine speed — is the bottleneck and `total / elapsed` measures
/// quota-bound throughput. Fails the test if any request died
/// terminally — a polite client must ride out throttles.
fn polite_run(cluster: &KeraCluster, total: u64) -> (Duration, u64) {
    let rt = cluster.client(0);
    let meta = MetadataClient::new(rt.client(), cluster.coordinator());
    let producer = Producer::new(
        &meta,
        &[StreamId(1)],
        ProducerConfig {
            id: ProducerId(0),
            chunk_size: 512,
            // Half the burst: always admittable, and refilling 32 KB at
            // 1 MB/s takes ~32 ms — an order of magnitude above the
            // round-trip, so the quota (not storm-inflated latency)
            // stays the bottleneck even at pipeline depth 1. Depth 1
            // also keeps per-slot order: concurrent in-flight requests
            // to one broker may append out of order.
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
    let throttles = producer.throttles();
    producer.close().unwrap();
    (elapsed, throttles)
}

/// The 10:1 overload storm (ISSUE drill 1): ten abusive clients that
/// ignore throttle hints and retry instantly hammer one stream while a
/// single polite tenant produces to another. Admission control must
/// hold the polite tenant at ≥ 70% of its isolated (quota-bound)
/// throughput, keep the broker's admission queue under the configured
/// cap, walk the abusers down the throttle → reject → evict ladder, and
/// deliver every acked polite record exactly once. Afterwards the
/// zombie sweep reclaims every idle session.
#[test]
fn overload_polite_tenants_keep_throughput_floor() {
    let _serial = serial();
    // ~2.5 MB of chunk traffic: ~0.6 s through two 2 MB/s buckets.
    const POLITE_RECORDS: u64 = 30_000;
    let quotas = storm_quotas();

    // Baseline: the polite tenant alone on an identical cluster. The
    // quota binds in both runs, so the floor compares quota-rate to
    // quota-rate and does not depend on absolute machine speed.
    let baseline = quota_cluster(2, quotas, None);
    let admin_rt = baseline.client(20);
    let admin = MetadataClient::new(admin_rt.client(), baseline.coordinator());
    admin.create_stream(stream_config_for(1, 1)).unwrap();
    drop(admin_rt);
    let (iso_elapsed, iso_throttles) = polite_run(&baseline, POLITE_RECORDS);
    baseline.shutdown();

    // Storm: same cluster shape, plus ten abusive tenants hammering the
    // brokers' admission gates with raw full-burst Produce calls and
    // ignoring every Throttled/Rejected reply. The polite client
    // library's pacing (bounded queue, linger, backoff) is exactly the
    // machinery an abuser doesn't run, so the storm bypasses Producer
    // and drives the RPC directly: attempt cadence is round-trip-bound,
    // far faster than a 1 MB/s bucket refills a 64 KB deficit, so
    // consecutive throttles pile up and the ladder escalates.
    let cluster = quota_cluster(2, quotas, None);
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
            // A full-burst-sized garbage request: admission charges the
            // request's byte length before any chunk parsing, which is
            // all an overload storm needs.
            let junk = ProduceRequest {
                producer: ProducerId(100 + a),
                recovery: false,
                chunk_count: 16,
                chunks: vec![0xABu8; 64 * 1024].into(),
            }
            .encode();
            let client = rt.client();
            let mut j = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let broker = broker_node((a + j) % 2);
                let _ =
                    client.call(broker, OpCode::Produce, junk.clone(), Duration::from_secs(2));
                j = j.wrapping_add(1);
                // Abusive, not omnipotent: an attempt every ~half
                // millisecond still lands dozens of consecutive
                // throttles per 64 ms refill window (≫ the reject
                // threshold), without ten spinning threads drowning the
                // polite tenant in raw CPU contention.
                std::thread::sleep(Duration::from_micros(500));
            }
        }));
    }

    let (storm_elapsed, polite_throttles) = polite_run(&cluster, POLITE_RECORDS);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for t in abuser_threads {
        t.join().unwrap();
    }

    // The throughput floor: abusive neighbours may cost the polite
    // tenant at most 30% of its isolated quota-bound throughput.
    let iso_rate = POLITE_RECORDS as f64 / iso_elapsed.as_secs_f64();
    let storm_rate = POLITE_RECORDS as f64 / storm_elapsed.as_secs_f64();
    assert!(
        storm_rate >= 0.70 * iso_rate,
        "polite tenant starved: storm {storm_rate:.0} rec/s ({storm_elapsed:?}) \
         vs isolated {iso_rate:.0} rec/s ({iso_elapsed:?})"
    );
    // The quota (not machine speed) bound the polite tenant: in at least
    // one of the runs it outran its bucket and was throttled. The
    // isolated run is the deterministic one — round trips are an order
    // of magnitude shorter than the 32 ms per-request refill — while in
    // the storm run contention-stretched cycles can hide the quota.
    assert!(
        iso_throttles + polite_throttles > 0,
        "polite tenant over quota was never throttled"
    );

    // Bounded broker memory: the admission queue's high-water mark never
    // exceeded the configured cap, on any broker, at any instant.
    let mut hwm_sum = 0;
    for b in &cluster.broker_svcs {
        let hwm = b.admission().queue_hwm();
        assert!(
            hwm <= quotas.admission_queue_bytes,
            "admission queue exceeded cap: {hwm} > {}",
            quotas.admission_queue_bytes
        );
        hwm_sum += hwm;
    }
    assert!(hwm_sum > 0, "no bytes ever admitted");

    // The degradation ladder fired end to end: throttles, escalating
    // rejections, evictions.
    let (mut throttles, mut rejections, mut evictions) = (0, 0, 0);
    for b in &cluster.broker_svcs {
        let s = b.admission().snapshot(0);
        throttles += s.throttles;
        rejections += s.rejections;
        evictions += s.evictions;
    }
    assert!(throttles > 0, "no throttles under a 10:1 storm");
    assert!(rejections > 0, "abusers never escalated to rejection");
    assert!(evictions > 0, "abusers never reached eviction");

    // Introspect's health block reports the same story over the wire.
    let probe_rt = cluster.client(11);
    let payload_bytes = probe_rt
        .client()
        .call(
            broker_node(0),
            OpCode::Introspect,
            IntrospectRequest { sections: introspect_sections::HEALTH }.encode(),
            Duration::from_secs(5),
        )
        .unwrap();
    let health = IntrospectResponse::decode(&payload_bytes).unwrap();
    let local = cluster.broker_svcs[0].admission().snapshot(client_node(1).raw());
    assert!(health.quota_enabled, "Introspect must report quotas on");
    assert!(local.known, "abusive tenant unknown to broker 0");
    // Both are monotonic and `local` was read second.
    assert!((1..=local.throttles).contains(&health.quota_throttles));
    assert!((1..=local.queue_hwm_bytes).contains(&health.quota_queue_hwm_bytes));

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

    // Zombie sweep: once every session has idled past `zombie_idle`, the
    // next admission sweeps them all; only the probing tenant remains.
    std::thread::sleep(quotas.zombie_idle + Duration::from_millis(300));
    for b in &cluster.broker_svcs {
        let _ = b.admission().admit(client_node(60), 1);
        assert_eq!(
            b.admission().tenant_count(),
            1,
            "idle sessions survived the zombie sweep"
        );
    }

    cluster.shutdown();
}

/// Slow-consumer pile-up (ISSUE drill 2): one consumer's uplink turns
/// glacial (every send stalls) while another reads at full speed, with a
/// fetch-side quota metering both. The broker must stay bounded, the
/// fetch quota must actually throttle, and *both* consumers — fast and
/// slow — must still receive every acknowledged record exactly once.
#[test]
fn slow_consumer_pileup_keeps_broker_bounded() {
    let _serial = serial();
    let quotas = QuotaConfig {
        enabled: true,
        // Produce effectively unmetered: every throttle in this drill is
        // fetch-side.
        produce_bytes_per_sec: 256 * 1024 * 1024,
        burst_bytes: 8 * 1024 * 1024,
        fetch_bytes_per_sec: 256 * 1024,
        max_inflight_bytes: 8 * 1024 * 1024,
        admission_queue_bytes: 16 * 1024 * 1024,
        reject_after_throttles: 10_000,
        evict_after_rejections: 10_000,
        evict_cooldown: Duration::from_secs(1),
        zombie_idle: Duration::from_secs(30),
    };
    // Inert fault profile: zero rates, but the injector is wired so
    // slow-client mode can be flipped on per node.
    let cluster = quota_cluster(2, quotas, Some(FaultProfile::default()));
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
    drain_all(1, 0); // full speed, quota-throttled
    drain_all(2, 1); // glacial uplink, quota-throttled *and* stalled

    assert!(plan.stalled() > 0, "slow-client mode never stalled a send");
    let mut throttles = 0;
    for b in &cluster.broker_svcs {
        throttles += b.admission().snapshot(0).throttles;
        let hwm = b.admission().queue_hwm();
        assert!(hwm <= quotas.admission_queue_bytes, "queue over cap: {hwm}");
    }
    // Produce is effectively unmetered, so every throttle is fetch-side.
    assert!(throttles > 0, "fetch quota never throttled a consumer");

    cluster.shutdown();
}

/// Quota flapping mid-ingest (ISSUE drill 3): an operator (or a broken
/// controller) toggles admission control on/off and swings the rate
/// between a trickle and a flood while a polite producer streams. The
/// client-visible contract must hold through every flip — zero terminal
/// failures, every record exactly once — and when the dust settles the
/// admission accounting must drain to exactly zero (no leaked window
/// bytes, no stuck queue bytes).
#[test]
fn quota_flapping_mid_ingest_preserves_exactly_once() {
    let _serial = serial();
    let quotas = QuotaConfig {
        enabled: true,
        produce_bytes_per_sec: 4 * 1024 * 1024,
        burst_bytes: 64 * 1024,
        fetch_bytes_per_sec: 0,
        max_inflight_bytes: 512 * 1024,
        admission_queue_bytes: 4 * 1024 * 1024,
        // The flapping drill is about accounting, not abuse: keep the
        // ladder out of the way so throttles never escalate.
        reject_after_throttles: 100_000,
        evict_after_rejections: 100_000,
        evict_cooldown: Duration::from_secs(1),
        zombie_idle: Duration::from_secs(30),
    };
    let cluster = quota_cluster(2, quotas, None);
    let admission: Vec<_> =
        cluster.broker_svcs.iter().map(|b| Arc::clone(b.admission())).collect();

    let prod_rt = cluster.client(0);
    let meta_p = MetadataClient::new(prod_rt.client(), cluster.coordinator());
    meta_p.create_stream(stream_config(1)).unwrap();
    let producer = Producer::new(
        &meta_p,
        &[StreamId(1)],
        ProducerConfig {
            id: ProducerId(0),
            chunk_size: 512,
            request_max_bytes: 16 * 1024,
            ..ProducerConfig::default()
        },
    )
    .unwrap();

    let flapper = std::thread::spawn(move || {
        for i in 0..24u32 {
            match i % 4 {
                0 => admission.iter().for_each(|a| a.set_produce_rate(128 * 1024)),
                1 => admission.iter().for_each(|a| a.set_enabled(false)),
                2 => admission.iter().for_each(|a| {
                    a.set_enabled(true);
                    a.set_produce_rate(8 * 1024 * 1024);
                }),
                _ => admission.iter().for_each(|a| a.set_produce_rate(192 * 1024)),
            }
            std::thread::sleep(Duration::from_millis(40));
        }
        // Settle on: enabled, at the original configured rate.
        admission.iter().for_each(|a| {
            a.set_enabled(true);
            a.set_produce_rate(4 * 1024 * 1024);
        });
    });

    const TOTAL: u64 = 12_000;
    for i in 0..TOTAL {
        producer.send(StreamId(1), &payload(i)).unwrap();
    }
    producer.flush().unwrap();
    flapper.join().unwrap();

    assert_eq!(producer.failed_requests(), 0, "flapping caused terminal failures");
    assert_eq!(producer.metrics().items(), TOTAL, "every send acknowledged");
    assert!(producer.throttles() > 0, "trickle phases never throttled the producer");
    producer.close().unwrap();

    // Accounting drains to exactly zero once the pipeline quiesces: every
    // permit released its queue bytes and its tenant window bytes, across
    // enable/disable flips and rate swings.
    std::thread::sleep(Duration::from_millis(100));
    for b in &cluster.broker_svcs {
        assert_eq!(b.admission().queue_bytes(), 0, "leaked admission queue bytes");
        let snap = b.admission().snapshot(client_node(0).raw());
        if snap.known {
            assert_eq!(snap.inflight_bytes, 0, "leaked tenant window bytes");
        }
    }

    // Exactly-once delivery of all 12k records, through all the flips.
    let cons_rt = cluster.client(1);
    let meta_c = MetadataClient::new(cons_rt.client(), cluster.coordinator());
    let consumer = Consumer::new(
        &meta_c,
        &[Subscription::whole_stream(StreamId(1))],
        ConsumerConfig { id: ConsumerId(0), fetch_max_bytes: 4096, ..ConsumerConfig::default() },
    )
    .unwrap();
    let mut seen = drain(&consumer, TOTAL);
    assert_eq!(seen.len() as u64, TOTAL, "record count after flapping");
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len() as u64, TOTAL, "duplicates after flapping");
    consumer.close();
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
