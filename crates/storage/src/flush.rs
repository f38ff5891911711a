//! The one writer of data files, KerA's backups' and Kafka's partition
//! logs' alike (DESIGN §1, the storage contract).
//!
//! A node's [`DiskFlusher`] is one thread draining a queue; enqueueing
//! never blocks on I/O and never copies. It writes each closed segment to
//! its own file from the buffers that hold it and syncs it, off the
//! producer's path (paper §II-B), and it syncs each [`PartitionFile`]
//! that rolls. A partition file is appended to on the caller's thread.

use std::fs::{self, File};
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Weak};

use bytes::Bytes;
use crossbeam::channel::{self, Receiver, Sender};
use kera_common::metrics::Counter;
use kera_common::Result;
use kera_obs::MetricsRegistry;

enum Task {
    /// Create this file from these buffers, in order, and sync it.
    Write(String, Vec<Bytes>),
    /// Sync a file that has been written.
    Sync(File),
}

/// What a node's writes count: `kera.storage.*` in its registry.
#[derive(Clone, Default)]
pub struct FlushMetrics {
    /// One per closed segment file, one per partition append.
    pub writes: Arc<Counter>,
    pub bytes: Arc<Counter>,
    /// One per segment file and per rolled partition file.
    pub syncs: Arc<Counter>,
    /// Writes and syncs that failed (a full disk, a bad path).
    pub errors: Arc<Counter>,
}

impl FlushMetrics {
    pub fn registered(reg: &MetricsRegistry) -> FlushMetrics {
        let counter = |name| reg.counter(name, &[]);
        FlushMetrics {
            writes: counter("kera.storage.writes"),
            bytes: counter("kera.storage.write_bytes"),
            syncs: counter("kera.storage.syncs"),
            errors: counter("kera.storage.errors"),
        }
    }
}

/// Handle for enqueueing flush work. Dropping it stops the flusher
/// after it drains its queue.
pub struct DiskFlusher {
    dir: PathBuf,
    metrics: FlushMetrics,
    tx: Sender<Task>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl DiskFlusher {
    /// Starts a flusher writing under `dir` (created if missing).
    pub fn start(dir: PathBuf, metrics: FlushMetrics) -> Result<DiskFlusher> {
        fs::create_dir_all(&dir)?;
        let (tx, rx) = channel::unbounded::<Task>();
        let (root, counts) = (dir.clone(), metrics.clone());
        let thread = std::thread::Builder::new()
            .name("disk-flusher".into())
            .spawn(move || flush_loop(root, rx, counts))
            // lint: allow(no-panic) — spawn failure at flusher startup is
            // fatal by design: there is no runtime to degrade into yet.
            .expect("spawn flusher");
        Ok(DiskFlusher { dir, metrics, tx, thread: Some(thread) })
    }

    /// Enqueues the file `name` (slashes allowed) made of `data`, in order.
    pub fn flush(&self, name: String, data: Vec<Bytes>) {
        let _ = self.tx.send(Task::Write(name, data));
    }

    /// An empty partition log in the directory `name`, rolling at `roll`
    /// bytes. A file that rolls once this flusher is gone is not synced.
    pub fn partition_file(self: &Arc<Self>, name: &str, roll: u64) -> PartitionFile {
        let (dir, metrics) = (self.dir.join(name), self.metrics.clone());
        let flusher = Arc::downgrade(self);
        PartitionFile { dir, roll, flusher, metrics, active: None, start: 0, end: 0 }
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

fn flush_loop(dir: PathBuf, rx: Receiver<Task>, metrics: FlushMetrics) {
    while let Ok(task) = rx.recv() {
        let synced = match task {
            Task::Write(name, data) => (|| {
                let path = dir.join(name);
                fs::create_dir_all(path.parent().unwrap_or(&dir))?;
                let mut f = File::create(&path)?;
                for buf in &data {
                    f.write_all(buf)?;
                }
                metrics.writes.inc();
                metrics.bytes.add(data.iter().map(|b| b.len() as u64).sum());
                f.sync_data() // what makes the segment durable on this backup
            })(),
            Task::Sync(f) => f.sync_data(),
        };
        match synced {
            Ok(()) => metrics.syncs.inc(),
            Err(_) => metrics.errors.inc(),
        }
    }
}

/// One partition's log on disk, as Kafka keeps it: a directory of
/// append-only files, each named by the log offset of its first byte.
/// An append that would take the active file past the roll size first
/// hands it to the flusher to be synced. The active file is never
/// synced; dropping it closes it.
pub struct PartitionFile {
    dir: PathBuf,
    roll: u64,
    flusher: Weak<DiskFlusher>,
    metrics: FlushMetrics,
    active: Option<File>,
    /// Log offsets of the active file's first byte and of the log's end.
    start: u64,
    end: u64,
}

impl PartitionFile {
    /// Appends `data` to the page cache: one write.
    pub fn append(&mut self, data: &[u8]) {
        let len = data.len() as u64;
        if self.end > self.start && self.end - self.start + len > self.roll {
            if let (Some(f), Some(flusher)) = (self.active.take(), self.flusher.upgrade()) {
                let _ = flusher.tx.send(Task::Sync(f));
            }
            self.start = self.end;
        }
        let file = match self.active.as_mut() {
            Some(f) => Ok(f),
            None => self.open().map(|f| self.active.insert(f)),
        };
        self.end += len;
        match file.and_then(|f| f.write_all(data)) {
            Ok(()) => {
                self.metrics.writes.inc();
                self.metrics.bytes.add(len);
            }
            Err(_) => self.metrics.errors.inc(),
        }
    }

    fn open(&self) -> std::io::Result<File> {
        fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(format!("{:020}.log", self.start));
        File::options().create(true).append(true).open(path)
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
        let f = DiskFlusher::start(dir.clone(), FlushMetrics::default()).unwrap();
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
        let f = DiskFlusher::start(dir.clone(), metrics.clone()).unwrap();
        for i in 0..10 {
            f.flush(format!("{i}.seg"), vec![Bytes::from(vec![0u8; 100])]);
        }
        let files = metrics.writes.get(); // may not have drained yet
        assert!(files <= 10);
        drop(f);
        let counts = (metrics.writes.get(), metrics.bytes.get(), metrics.syncs.get());
        assert_eq!(counts, (10, 1000, 10));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_drains_pending_tasks() {
        let dir = tmpdir("drain");
        let f = DiskFlusher::start(dir.clone(), FlushMetrics::default()).unwrap();
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
        let f = DiskFlusher::start(dir.clone(), FlushMetrics::default()).unwrap();
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
        let f = DiskFlusher::start(dir.clone(), metrics.clone()).unwrap();
        // A regular file where a directory must go: the path cannot be made.
        fs::write(dir.join("blocker"), b"").unwrap();
        f.flush("blocker/a.seg".into(), vec![Bytes::from_static(b"lost")]);
        f.flush("b.seg".into(), vec![Bytes::from_static(b"kept")]);
        drop(f);
        assert_eq!(metrics.errors.get(), 1);
        assert_eq!(metrics.writes.get(), 1, "the task behind the failed one was written");
        assert_eq!(fs::read(dir.join("b.seg")).unwrap(), b"kept");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_partition_file_rolls_at_its_size_and_syncs_only_what_rolled() {
        let dir = tmpdir("roll");
        let metrics = FlushMetrics::default();
        let f = Arc::new(DiskFlusher::start(dir.clone(), metrics.clone()).unwrap());
        let mut p = f.partition_file("1-0", 10);
        // 6 + 4 fill the first file; 3 would pass 10 and rolls it; 3 + 5
        // are the second file; 4 would pass 10 and rolls that one too.
        for part in [&b"aaaaaa"[..], b"bbbb", b"ccc", b"ddddd", b"eeee"] {
            p.append(part);
        }
        drop(f); // drains the two syncs and joins
        let file = |start: u64| fs::read(dir.join(format!("1-0/{start:020}.log"))).unwrap();
        assert_eq!(file(0), b"aaaaaabbbb");
        assert_eq!(file(10), b"cccddddd");
        assert_eq!(file(18), b"eeee");
        assert_eq!(fs::read_dir(dir.join("1-0")).unwrap().count(), 3);
        let counts = (metrics.writes.get(), metrics.bytes.get(), metrics.syncs.get());
        assert_eq!(counts, (5, 22, 2), "one sync per rolled file; the active one is not synced");
        assert_eq!(metrics.errors.get(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_partition_file_that_cannot_be_created_is_counted_and_the_queue_drains() {
        let dir = tmpdir("perror");
        let metrics = FlushMetrics::default();
        let f = Arc::new(DiskFlusher::start(dir.clone(), metrics.clone()).unwrap());
        fs::write(dir.join("blocker"), b"").unwrap();
        f.partition_file("blocker/1-0", 1 << 20).append(b"lost");
        f.flush("b.seg".into(), vec![Bytes::from_static(b"kept")]);
        drop(f);
        assert_eq!(metrics.errors.get(), 1);
        assert_eq!(metrics.writes.get(), 1, "the task queued after the failed append was written");
        assert_eq!(fs::read(dir.join("b.seg")).unwrap(), b"kept");
        let _ = fs::remove_dir_all(&dir);
    }
}
