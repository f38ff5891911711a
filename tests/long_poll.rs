//! The long poll on both systems: a fetch that finds no durable data
//! waits at its broker until a produce makes some durable in one of its
//! slots, or for `FETCH_MAX_WAIT`, and a consumer that gets an empty
//! reply asks again at once. Every test is in memory and judged by the
//! brokers' counters; a sleep only sets how long a consumer idles.

use std::time::{Duration, Instant};

use kera::broker::cluster::{backup_node, KeraCluster};
use kera::client::consumer::{Consumer, ConsumerConfig, Subscription};
use kera::client::MetadataClient;
use kera::common::config::{
    ClusterConfig, FaultProfile, ReplicationConfig, StreamConfig, VirtualLogPolicy,
};
use kera::common::ids::{ConsumerId, NodeId, ProducerId, StreamId, StreamletId};
use kera::common::metrics::Counter;
use kera::kafka_sim::broker::KafkaTuning;
use kera::kafka_sim::cluster::KafkaCluster;
use kera::rpc::node::{NodeRuntime, PendingCall};
use kera::rpc::Fabric;
use kera::wire::chunk::{ChunkBuilder, ChunkIter};
use kera::wire::cursor::SlotCursor;
use kera::wire::frames::OpCode;
use kera::wire::messages::{FetchEntry, FetchRequest, FetchResponse, ProduceRequest, FETCH_MAX_WAIT};
use kera::wire::record::Record;

const STREAM: StreamId = StreamId(1);
const T: Duration = Duration::from_secs(5);
/// How long the idle consumers idle.
const IDLE: Duration = Duration::from_millis(300);

/// One streamlet of one slot: one broker leads it, a consumer has one lane.
fn create(fabric: &Fabric, client: &NodeRuntime, factor: u32) -> NodeId {
    let config = StreamConfig {
        id: STREAM,
        streamlets: 1,
        active_groups: 1,
        segments_per_group: 4,
        segment_size: 1 << 16,
        replication: ReplicationConfig {
            factor,
            policy: VirtualLogPolicy::SharedPerBroker(2),
            vseg_size: 1 << 16,
        },
    };
    let md = MetadataClient::new(client.client(), fabric.coordinator()).create_stream(config).unwrap();
    md.broker_of(StreamletId(0)).unwrap()
}

/// A one-chunk produce of `records` records.
fn produce(records: u32) -> bytes::Bytes {
    let mut chunk = ChunkBuilder::new(8192, ProducerId(3), STREAM, StreamletId(0));
    for i in 0..records {
        assert!(chunk.append(&Record::value_only(&[i as u8; 100])));
    }
    ProduceRequest { producer: ProducerId(3), recovery: false, chunk_count: 1, chunks: chunk.seal() }
        .encode()
}

/// A fetch of the one slot from its start, sent and not waited on.
fn fetch(client: &NodeRuntime, broker: NodeId) -> PendingCall {
    let entry = FetchEntry {
        stream: STREAM,
        streamlet: StreamletId(0),
        slot: 0,
        cursor: SlotCursor::START,
        max_bytes: 1 << 20,
    };
    let req = FetchRequest { consumer: ConsumerId(1), entries: vec![entry] };
    client.client().call_async(broker, OpCode::Fetch, req.encode(), T)
}

/// The chunks a fetch was answered with.
fn chunks(call: PendingCall) -> usize {
    let resp = FetchResponse::decode_bytes(&call.wait(T).unwrap()).unwrap();
    ChunkIter::new(&resp.results[0].data).count()
}

/// Waits until `counter` reads `n`.
fn until(counter: &Counter, n: u64) {
    let deadline = Instant::now() + T;
    while counter.get() < n {
        assert!(Instant::now() < deadline, "counter stuck at {} < {n}", counter.get());
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The most fetches a caught-up consumer's one lane may have answered
/// over `IDLE`: one per `FETCH_MAX_WAIT`, plus the two at its ends.
fn idle_bound() -> u64 {
    (IDLE.as_millis() / FETCH_MAX_WAIT.as_millis()) as u64 + 2
}

/// Fetches a consumer of the whole stream gets answered while it idles.
fn idle_consumer(fabric: &Fabric, client: &NodeRuntime, served: impl Fn() -> u64) -> u64 {
    let meta = MetadataClient::new(client.client(), fabric.coordinator());
    let consumer =
        Consumer::new(&meta, &[Subscription::whole_stream(STREAM)], ConsumerConfig::default()).unwrap();
    let before = served();
    std::thread::sleep(IDLE);
    let answered = served() - before;
    assert!(consumer.next_batch(Duration::ZERO).is_none());
    consumer.close();
    answered
}

fn kera() -> KeraCluster {
    KeraCluster::start(ClusterConfig { brokers: 3, worker_threads: 2, ..ClusterConfig::default() }).unwrap()
}

#[test]
fn an_idle_consumer_is_answered_once_per_fetch_max_wait() {
    let cluster = kera();
    let client = cluster.client(0);
    let leader = create(&cluster, &client, 3);
    let broker = cluster.broker_svcs.iter().find(|b| b.node() == leader).unwrap();
    let answered = idle_consumer(&cluster, &client, || broker.fetches.get());
    assert!(answered <= idle_bound(), "{answered} fetches answered in {IDLE:?} with nothing to read");
    assert!(broker.fetches_expired.get() >= 1);
}

#[test]
fn a_parked_fetch_is_answered_by_the_round_that_lands_its_data() {
    let cluster = kera();
    let client = cluster.client(0);
    let leader = create(&cluster, &client, 3);
    let broker = cluster.broker_svcs.iter().find(|b| b.node() == leader).unwrap();
    let parked = fetch(&client, leader);
    until(&broker.fetches_parked, 1);
    client.client().call(leader, OpCode::Produce, produce(4), T).unwrap();
    assert_eq!(chunks(parked), 1);
    assert_eq!((broker.fetches.get(), broker.fetches_expired.get()), (1, 0));
}

#[test]
fn a_fetch_parked_on_a_held_round_expires_empty_and_sees_it_after_release() {
    // Two servers: the log's one backup copy is on the other one's backup.
    let cluster = KeraCluster::start(ClusterConfig {
        brokers: 2,
        worker_threads: 2,
        faults: Some(FaultProfile::default()),
        ..ClusterConfig::default()
    })
    .unwrap();
    let client = cluster.client(0);
    let leader = create(&cluster, &client, 2);
    let broker = cluster.broker_svcs.iter().find(|b| b.node() == leader).unwrap();
    let plan = cluster.fault_plan().unwrap().clone();
    let backup = backup_node(2 - leader.raw());
    plan.hold(backup);
    let produced = {
        let client = client.client();
        std::thread::spawn(move || client.call(leader, OpCode::Produce, produce(4), T))
    };
    until(&broker.chunks_in, 1);

    assert_eq!(chunks(fetch(&client, leader)), 0, "a chunk no backup acknowledged was served");
    assert_eq!((broker.fetches_parked.get(), broker.fetches_expired.get()), (1, 1));

    let parked = fetch(&client, leader);
    until(&broker.fetches_parked, 2);
    plan.release(backup);
    produced.join().unwrap().unwrap();
    assert_eq!(chunks(parked), 1);
}

#[test]
fn shutdown_does_not_wait_for_a_parked_fetch() {
    let cluster = kera();
    let client = cluster.client(0);
    let leader = create(&cluster, &client, 3);
    let broker = cluster.broker_svcs.iter().find(|b| b.node() == leader).cloned().unwrap();
    let _parked = fetch(&client, leader);
    until(&broker.fetches_parked, 1);
    let began = Instant::now();
    cluster.shutdown();
    assert!(began.elapsed() < FETCH_MAX_WAIT, "shutdown took {:?}", began.elapsed());
    assert_eq!(broker.fetches_expired.get(), 0);
}

fn kafka() -> KafkaCluster {
    let config = ClusterConfig { brokers: 3, worker_threads: 2, ..ClusterConfig::default() };
    KafkaCluster::start(config, KafkaTuning::default()).unwrap()
}

#[test]
fn an_idle_kafka_consumer_is_answered_once_per_fetch_max_wait() {
    let cluster = kafka();
    let client = cluster.client(0);
    create(&cluster, &client, 3);
    let served = || cluster.metrics_snapshot().counter_sum("kera.rpc.requests_served", &[("op", "Fetch")]);
    let answered = idle_consumer(&cluster, &client, served);
    assert!(answered <= idle_bound(), "{answered} fetches answered in {IDLE:?} with nothing to read");
    let expired = cluster.stores.iter().map(|s| s.consumer_fetches_expired.get()).sum::<u64>();
    assert!(expired >= 1);
}

#[test]
fn a_parked_kafka_fetch_is_answered_by_the_high_watermark_that_passes_it() {
    let cluster = kafka();
    let client = cluster.client(0);
    let leader = create(&cluster, &client, 3);
    let store = cluster.stores.iter().find(|s| s.node() == leader).unwrap();
    let parked = fetch(&client, leader);
    until(&store.consumer_fetches_parked, 1);
    client.client().call(leader, OpCode::Produce, produce(4), T).unwrap();
    assert_eq!(chunks(parked), 1);
    assert_eq!(store.consumer_fetches_expired.get(), 0);
}
