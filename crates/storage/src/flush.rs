//! Asynchronous secondary-storage flusher.
//!
//! "To ensure durability, backups asynchronously write buffered chunks to
//! secondary storage. Therefore, the producer request is not impacted by
//! secondary storage latency" (paper §II-B). Segments keep the same format
//! on disk and in memory, so a flushed file is just the segment's
//! published bytes, written from the buffers that hold them.
//!
//! The flusher is one background thread draining a queue of flush tasks;
//! enqueueing never blocks on I/O and never copies.

use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::{self, Receiver, Sender};
use kera_common::metrics::{Counter, LatencyHistogram};
use kera_common::Result;

/// One unit of flushing: a file name and its buffers, in order.
type FlushTask = (String, Vec<Bytes>);

/// What a flusher counts. A node passes registry-owned ones
/// (`kera.storage.flush`, `kera.storage.flush_bytes`,
/// `kera.storage.flush_errors`) so a scrape sees them.
#[derive(Clone, Default)]
pub struct FlushMetrics {
    /// Wall time of each file written (create + write + sync); its count
    /// is the number of files written.
    pub latency: Arc<LatencyHistogram>,
    pub bytes: Arc<Counter>,
    /// Files that could not be written (a full disk, a bad path).
    pub errors: Arc<Counter>,
}

/// Handle for enqueueing flush work. Dropping it stops the flusher
/// after it drains its queue.
pub struct DiskFlusher {
    tx: Sender<FlushTask>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl DiskFlusher {
    /// Starts a flusher writing under `dir` (created if missing).
    pub fn start(dir: PathBuf) -> Result<DiskFlusher> {
        Self::start_with_metrics(dir, FlushMetrics::default())
    }

    /// Like [`DiskFlusher::start`], counting into caller-owned metrics.
    pub fn start_with_metrics(dir: PathBuf, metrics: FlushMetrics) -> Result<DiskFlusher> {
        fs::create_dir_all(&dir)?;
        let (tx, rx) = channel::unbounded::<FlushTask>();
        let thread = std::thread::Builder::new()
            .name("disk-flusher".into())
            .spawn(move || flush_loop(dir, rx, metrics))
            // lint: allow(no-panic) — spawn failure at flusher startup is
            // fatal by design: there is no runtime to degrade into yet.
            .expect("spawn flusher");
        Ok(DiskFlusher { tx, thread: Some(thread) })
    }

    /// Enqueues the file `name` (relative to the flush directory,
    /// slashes allowed) made of `data`'s buffers in order; returns
    /// immediately.
    pub fn flush(&self, name: String, data: Vec<Bytes>) {
        let _ = self.tx.send((name, data));
    }
}

impl Drop for DiskFlusher {
    /// Drains the queue and joins the thread.
    fn drop(&mut self) {
        // Replacing the sender closes the channel once in-flight tasks
        // drain; then join.
        let (closed, _) = channel::unbounded();
        drop(std::mem::replace(&mut self.tx, closed));
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn flush_loop(dir: PathBuf, rx: Receiver<FlushTask>, metrics: FlushMetrics) {
    while let Ok((name, data)) = rx.recv() {
        let path = dir.join(name);
        let start = std::time::Instant::now();
        let result = (|| -> std::io::Result<()> {
            if let Some(parent) = path.parent() {
                fs::create_dir_all(parent)?;
            }
            let mut f = fs::File::create(&path)?;
            for buf in &data {
                f.write_all(buf)?;
            }
            // What makes the segment durable on this backup.
            f.sync_data()
        })();
        match result {
            Ok(()) => {
                metrics.latency.record(start.elapsed());
                metrics.bytes.add(data.iter().map(|b| b.len() as u64).sum());
            }
            Err(_) => metrics.errors.inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("kera-flush-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn flushes_files_with_exact_contents() {
        let dir = tmpdir("basic");
        let f = DiskFlusher::start(dir.clone()).unwrap();
        f.flush("a.seg".into(), vec![Bytes::from_static(b"segment-"), Bytes::from_static(b"a")]);
        f.flush("sub/b.seg".into(), vec![Bytes::from_static(b"segment-b")]);
        drop(f);
        assert_eq!(fs::read(dir.join("a.seg")).unwrap(), b"segment-a");
        assert_eq!(fs::read(dir.join("sub/b.seg")).unwrap(), b"segment-b");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn counters_track_work() {
        let dir = tmpdir("counters");
        let metrics = FlushMetrics::default();
        let f = DiskFlusher::start_with_metrics(dir.clone(), metrics.clone()).unwrap();
        for i in 0..10 {
            f.flush(format!("{i}.seg"), vec![Bytes::from(vec![0u8; 100])]);
        }
        let files = metrics.latency.count(); // may not have drained yet
        assert!(files <= 10);
        drop(f);
        assert_eq!((metrics.latency.count(), metrics.bytes.get()), (10, 1000));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_drains_pending_tasks() {
        let dir = tmpdir("drain");
        let f = DiskFlusher::start(dir.clone()).unwrap();
        for i in 0..50 {
            f.flush(format!("{i}.seg"), vec![Bytes::from(vec![1u8; 1000])]);
        }
        drop(f); // must block until everything hit the disk
        let count = fs::read_dir(&dir).unwrap().count();
        assert_eq!(count, 50);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enqueue_is_nonblocking() {
        let dir = tmpdir("nonblock");
        let f = DiskFlusher::start(dir.clone()).unwrap();
        let t0 = std::time::Instant::now();
        for i in 0..100 {
            f.flush(format!("{i}.seg"), vec![Bytes::from(vec![2u8; 64 * 1024])]);
        }
        // 100 enqueues of 64 KB must not wait for 6.4 MB of fsyncs.
        assert!(t0.elapsed() < std::time::Duration::from_millis(100));
        drop(f);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_file_that_cannot_be_written_is_counted_and_the_queue_drains() {
        let dir = tmpdir("error");
        let metrics = FlushMetrics::default();
        let f = DiskFlusher::start_with_metrics(dir.clone(), metrics.clone()).unwrap();
        // A regular file where a directory must go: the path cannot be made.
        fs::write(dir.join("blocker"), b"").unwrap();
        f.flush("blocker/a.seg".into(), vec![Bytes::from_static(b"lost")]);
        f.flush("b.seg".into(), vec![Bytes::from_static(b"kept")]);
        drop(f);
        assert_eq!(metrics.errors.get(), 1);
        assert_eq!(metrics.latency.count(), 1, "the task behind the failed one was written");
        assert_eq!(fs::read(dir.join("b.seg")).unwrap(), b"kept");
        let _ = fs::remove_dir_all(&dir);
    }
}
