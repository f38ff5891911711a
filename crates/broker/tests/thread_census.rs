//! Thread census of a booted in-process cluster: which thread classes
//! exist and how many of each. A test binary of its own, so that no other
//! test's threads are counted.

use std::time::{Duration, Instant};

use kera_broker::cluster::KeraCluster;
use kera_common::config::ClusterConfig;
use kera_rpc::thread_count_named;

#[test]
fn a_node_runtime_is_its_workers_and_nothing_else() {
    let before = thread_count_named("");
    let config = ClusterConfig { brokers: 3, worker_threads: 2, ..ClusterConfig::default() };
    let cluster = KeraCluster::start(config).unwrap();
    let _client = cluster.client(0);

    // Eight runtimes: 3 brokers, 3 backups and the coordinator with two
    // workers each, the client with one. A thread names itself as it
    // starts, so wait for the last of them.
    let workers = 7 * 2 + 1;
    let deadline = Instant::now() + Duration::from_secs(5);
    while thread_count_named("worker-") < workers {
        assert!(Instant::now() < deadline, "{} workers", thread_count_named("worker-"));
        std::thread::sleep(Duration::from_millis(1));
    }
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
}
