//! The replication driver: background threads that ship virtual-log
//! batches, decoupling replication from the produce workers.
//!
//! This mirrors RAMCloud's `ReplicaManager`: appends enqueue their
//! virtual log; a small pool of driver threads gathers and ships
//! consolidated batches; produce workers merely *wait* for their ticket
//! to become durable. Multiple virtual logs replicate concurrently (one
//! in-flight batch each) without any per-request thread fan-out, and
//! group commit across producers is preserved — whatever accumulated
//! while a batch was in flight rides the next one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{self, Receiver, Sender};

use crate::channel::BackupChannel;
use crate::vlog::VirtualLog;

/// Shipping threads per driver (one driver per broker).
const REPLICATION_THREADS: usize = 2;

/// Backoff after a transient replication failure before retrying a log.
const RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// Background replication executor shared by all virtual logs of one
/// broker.
pub struct ReplicationDriver {
    tx: Sender<Arc<VirtualLog>>,
    shutdown: Arc<AtomicBool>,
    threads: parking_lot::Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ReplicationDriver {
    /// Starts the shipping threads over `channel`.
    ///
    /// The shipping threads deliberately do NOT hold an `Arc` to the
    /// driver (that would be a self-referential cycle keeping the driver
    /// — and everything its queue pins — alive forever); they share only
    /// the queue endpoints and the shutdown flag.
    pub fn start(channel: Arc<dyn BackupChannel>) -> Arc<ReplicationDriver> {
        let (tx, rx) = channel::unbounded::<Arc<VirtualLog>>();
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::with_capacity(REPLICATION_THREADS);
        for i in 0..REPLICATION_THREADS {
            let rx = rx.clone();
            let tx = tx.clone();
            let channel = Arc::clone(&channel);
            let shutdown = Arc::clone(&shutdown);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("repl-driver-{i}"))
                    .spawn(move || run(channel, rx, tx, shutdown))
                    // lint: allow(no-panic) — spawn failure at driver startup
                    // is fatal by design; no broker can run without it.
                    .expect("spawn replication driver"),
            );
        }
        Arc::new(ReplicationDriver {
            tx,
            shutdown,
            threads: parking_lot::Mutex::new(handles),
        })
    }

    /// Schedules `vlog` for shipping (deduplicated: a log already queued
    /// is not queued twice).
    pub fn enqueue(&self, vlog: &Arc<VirtualLog>) {
        enqueue_on(&self.tx, vlog);
    }

    /// Stops the driver threads.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ReplicationDriver {
    fn drop(&mut self) {
        self.stop();
    }
}

fn enqueue_on(tx: &Sender<Arc<VirtualLog>>, vlog: &Arc<VirtualLog>) {
    if !vlog.queued.swap(true, Ordering::AcqRel) {
        let _ = tx.send(Arc::clone(vlog));
    }
}

fn run(
    channel: Arc<dyn BackupChannel>,
    rx: Receiver<Arc<VirtualLog>>,
    tx: Sender<Arc<VirtualLog>>,
    shutdown: Arc<AtomicBool>,
) {
    while !shutdown.load(Ordering::SeqCst) {
        let vlog = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(v) => v,
            Err(channel::RecvTimeoutError::Timeout) => continue,
            Err(channel::RecvTimeoutError::Disconnected) => return,
        };
        vlog.queued.store(false, Ordering::Release);
        match vlog.ship_once(&*channel) {
            Ok(true) => {
                // More work remains (or appends landed while shipping):
                // requeue at the tail — fair across logs.
                enqueue_on(&tx, &vlog);
            }
            Ok(false) => {}
            Err(_) => {
                // Poisoned logs stop here (waiters already failed);
                // transient failures retry after a short backoff.
                if !shutdown.load(Ordering::SeqCst) && vlog.durable() < vlog.appended() {
                    std::thread::sleep(RETRY_BACKOFF);
                    enqueue_on(&tx, &vlog);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::MockChannel;
    use crate::selector::{BackupSelector, SelectionPolicy};
    use crate::vseg::ChunkRef;
    use kera_common::ids::*;
    use kera_storage::segment::Segment;
    use kera_wire::chunk::{ChunkBuilder, ChunkView};
    use kera_wire::record::Record;

    fn make_vlog(copies: usize) -> Arc<VirtualLog> {
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let selector = BackupSelector::new(NodeId(0), &nodes, SelectionPolicy::RoundRobin, 7);
        VirtualLog::new(VirtualLogId(0), NodeId(0), 1 << 20, copies, selector).unwrap()
    }

    fn append_one(vlog: &Arc<VirtualLog>, seg: &Arc<Segment>) -> u64 {
        let mut b = ChunkBuilder::new(512, ProducerId(0), StreamId(1), StreamletId(0));
        b.append(&Record::value_only(&[9u8; 40]));
        let bytes = b.seal();
        let at = seg.append_chunk(&bytes, 0).unwrap();
        vlog.append(ChunkRef {
            segment: Arc::clone(seg),
            offset: at.offset,
            len: at.len,
            checksum: ChunkView::parse(&bytes).unwrap().header().checksum,
            gref: seg.group(),
        })
        .unwrap()
    }

    fn segment() -> Arc<Segment> {
        Arc::new(Segment::new(
            GroupRef::new(StreamId(1), StreamletId(0), GroupId(0)),
            SegmentId(0),
            1 << 20,
        ))
    }

    #[test]
    fn driver_ships_and_wakes_waiters() {
        let channel = Arc::new(MockChannel::new());
        let driver = ReplicationDriver::start(channel.clone());
        let vlog = make_vlog(2);
        let seg = segment();
        let ticket = append_one(&vlog, &seg);
        driver.enqueue(&vlog);
        vlog.wait_durable(ticket, Duration::from_secs(2)).unwrap();
        assert_eq!(vlog.durable(), vlog.appended());
        assert_eq!(seg.durable_head(), seg.head());
        assert!(channel.batch_count() >= 1);
        driver.stop();
    }

    #[test]
    fn many_logs_make_progress_concurrently() {
        let channel = Arc::new(MockChannel::new());
        let driver = ReplicationDriver::start(channel.clone());
        let logs: Vec<_> = (0..16).map(|_| make_vlog(1)).collect();
        let seg = segment();
        let tickets: Vec<u64> = logs
            .iter()
            .map(|l| {
                let t = append_one(l, &seg);
                driver.enqueue(l);
                t
            })
            .collect();
        for (l, t) in logs.iter().zip(tickets) {
            l.wait_durable(t, Duration::from_secs(2)).unwrap();
        }
        driver.stop();
    }

    #[test]
    fn waiters_time_out_without_a_driver() {
        let vlog = make_vlog(1);
        let seg = segment();
        let ticket = append_one(&vlog, &seg);
        let err = vlog.wait_durable(ticket, Duration::from_millis(50)).unwrap_err();
        assert!(matches!(err, kera_common::KeraError::Timeout { .. }));
    }

    #[test]
    fn factor_one_wait_is_noop() {
        let vlog = make_vlog(0);
        vlog.wait_durable(123, Duration::from_millis(1)).unwrap();
    }

    #[test]
    fn enqueue_is_deduplicated() {
        let channel = Arc::new(MockChannel::new());
        let driver = ReplicationDriver::start(channel.clone());
        let vlog = make_vlog(1);
        // Many enqueues of an idle (empty) log: harmless, no batches.
        for _ in 0..100 {
            driver.enqueue(&vlog);
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(channel.batch_count(), 0);
        driver.stop();
    }

    #[test]
    fn transient_failures_retry_until_success() {
        let channel = Arc::new(MockChannel::new());
        channel.fail.store(true, Ordering::Relaxed);
        let driver = ReplicationDriver::start(channel.clone());
        let vlog = make_vlog(1);
        let seg = segment();
        let ticket = append_one(&vlog, &seg);
        driver.enqueue(&vlog);
        // While failing, waiters bail out with a transient error...
        let err = vlog.wait_durable(ticket, Duration::from_millis(200)).unwrap_err();
        assert!(matches!(err, kera_common::KeraError::Timeout { .. }));
        // ...and once the channel heals, the driver's retry loop lands it.
        channel.fail.store(false, Ordering::Relaxed);
        vlog.wait_durable(ticket, Duration::from_secs(2)).unwrap();
        driver.stop();
    }
}
