//! Thread census of a booted in-process cluster: which thread classes
//! exist and how many of each. A test binary of its own, so that no other
//! test's threads are counted.

use std::time::{Duration, Instant};

use kera_broker::cluster::KeraCluster;
use kera_common::config::{ClusterConfig, FaultProfile};
use kera_rpc::thread_count_named;

/// A thread names itself as it starts, so wait for the last of them.
fn await_named(prefix: &str, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while thread_count_named(prefix) < n {
        assert!(Instant::now() < deadline, "{} {prefix}", thread_count_named(prefix));
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_node_runtime_is_its_workers_and_nothing_else() {
    let before = thread_count_named("");
    let config = ClusterConfig { brokers: 3, worker_threads: 2, ..ClusterConfig::default() };
    let cluster = KeraCluster::start(config).unwrap();
    let _client = cluster.client(0);

    // Eight runtimes: 3 brokers, 3 backups and the coordinator with two
    // workers each, the client with one.
    let workers = 7 * 2 + 1;
    await_named("worker-", workers);
    assert_eq!(thread_count_named("worker-"), workers);
    // No thread stands between a transport and the node: frames are
    // delivered by the thread that has them. (With a dispatch thread per
    // runtime this cluster ran 8 more threads, 29 in all.)
    assert_eq!(thread_count_named("dispatch-"), 0);
    // Nor does one stand between a produce worker and the backups: the
    // worker that appended ships. (With two replication-driver threads
    // per broker this cluster ran 6 more, 21 in all.)
    assert_eq!(thread_count_named("repl-driver-"), 0);
    assert_eq!(thread_count_named("") - before, workers, "an uncounted thread class");

    // Second phase, same test (the census is process-wide): a lossy
    // cluster holds delayed frames on one line per fault plan. (With a
    // line per injector this cluster ran eight `faults-delay-<node>`.)
    drop(_client);
    cluster.shutdown();
    let faults = FaultProfile {
        delay_rate: 0.05,
        max_delay: Duration::from_millis(2),
        ..FaultProfile::default()
    };
    let before = thread_count_named("");
    let config = ClusterConfig {
        brokers: 3,
        worker_threads: 2,
        faults: Some(faults),
        ..ClusterConfig::default()
    };
    let cluster = KeraCluster::start(config).unwrap();
    let client = cluster.client(0);
    await_named("worker-", workers);
    await_named("faults-delay", 1);
    assert_eq!(thread_count_named("faults-delay"), 1);
    assert_eq!(thread_count_named("") - before, workers + 1, "an uncounted thread class");
    // The line is the plan's: it goes with the last injector on it.
    drop(client);
    cluster.shutdown();
    assert_eq!(thread_count_named("faults-delay"), 0, "the plan's line outlived its nodes");
}
