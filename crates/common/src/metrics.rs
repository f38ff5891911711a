//! Low-overhead metrics: counters, windowed throughput meters and a
//! log-bucketed latency histogram.
//!
//! Brokers, clients and the harness all report through these types. They are
//! deliberately allocation-free on the hot path and safe to share across
//! threads (`&self` everywhere, relaxed atomics — metrics never synchronize
//! data).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub const fn new() -> Self {
        Self { value: AtomicU64::new(0) }
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    #[inline]
    pub fn reset(&self) -> u64 {
        self.value.swap(0, Ordering::Relaxed)
    }
}

/// Measures sustained throughput over an interval, the way the paper does:
/// start the clock once the workload is warm, read the counter at the end.
///
/// Lock-free: the window start is stored as a nanosecond offset from a
/// per-meter `Instant` epoch captured at construction, so `record()` and
/// `rates()` never take a lock.
#[derive(Debug)]
pub struct ThroughputMeter {
    items: Counter,
    bytes: Counter,
    /// Construction time; window starts are offsets from it.
    epoch: Instant,
    /// Nanoseconds from `epoch` to the window start, plus one so that 0
    /// can mean "window never started".
    started_ns: AtomicU64,
}

impl Default for ThroughputMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl ThroughputMeter {
    pub fn new() -> Self {
        Self {
            items: Counter::new(),
            bytes: Counter::new(),
            epoch: Instant::now(),
            started_ns: AtomicU64::new(0),
        }
    }

    /// Marks the beginning of the measurement window and zeroes the
    /// counters (discarding warm-up traffic).
    pub fn start_window(&self) {
        self.items.reset();
        self.bytes.reset();
        let offset = self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX - 1)) as u64;
        self.started_ns.store(offset + 1, Ordering::Relaxed);
    }

    #[inline]
    pub fn record(&self, items: u64, bytes: u64) {
        self.items.add(items);
        self.bytes.add(bytes);
    }

    pub fn items(&self) -> u64 {
        self.items.get()
    }

    pub fn bytes(&self) -> u64 {
        self.bytes.get()
    }

    /// Snapshot of (items/s, bytes/s) since `start_window`; `None` if the
    /// window was never started or no time has elapsed.
    pub fn rates(&self) -> Option<(f64, f64)> {
        let started = self.started_ns.load(Ordering::Relaxed);
        if started == 0 {
            return None;
        }
        let elapsed_ns = self.epoch.elapsed().as_nanos() as f64 - (started - 1) as f64;
        let secs = elapsed_ns / 1e9;
        if secs <= 0.0 {
            return None;
        }
        Some((self.items.get() as f64 / secs, self.bytes.get() as f64 / secs))
    }
}

/// Number of buckets in [`LatencyHistogram`]: 64 power-of-two buckets of
/// nanoseconds cover 1 ns .. ~584 years.
const HIST_BUCKETS: usize = 64;

/// A lock-free log₂-bucketed latency histogram.
///
/// Bucket `i` counts samples whose nanosecond value has its highest set bit
/// at position `i`. Percentile queries return the upper bound of the bucket,
/// giving ≤ 2x relative error — plenty for the latency *trends* the paper
/// discusses.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn record(&self, latency: Duration) {
        self.record_ns(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    #[inline]
    pub fn record_ns(&self, ns: u64) {
        let bucket = 63 - ns.max(1).leading_zeros() as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn mean_ns(&self) -> f64 {
        self.snapshot().mean_ns()
    }

    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// Upper bound (in ns) of the bucket containing quantile `q` (0..=1).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        self.snapshot().quantile_ns(q)
    }

    /// Human-readable one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "n={} mean={:.1}us p50={:.1}us p99={:.1}us max={:.1}us",
            self.count(),
            self.mean_ns() / 1e3,
            self.quantile_ns(0.50) as f64 / 1e3,
            self.quantile_ns(0.99) as f64 / 1e3,
            self.max_ns() as f64 / 1e3,
        )
    }

    /// Folds another histogram's samples into this one (cluster-wide
    /// aggregation of per-node histograms).
    pub fn merge(&self, other: &LatencyHistogram) {
        self.merge_snapshot(&other.snapshot());
    }

    /// Folds a snapshot's samples into this histogram.
    pub fn merge_snapshot(&self, s: &HistogramSnapshot) {
        for (i, &b) in s.buckets.iter().enumerate() {
            if b != 0 {
                self.buckets[i].fetch_add(b, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(s.count, Ordering::Relaxed);
        self.sum_ns.fetch_add(s.sum_ns, Ordering::Relaxed);
        self.max_ns.fetch_max(s.max_ns, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy (fields are read with
    /// relaxed loads; concurrent recording may skew count vs. buckets by
    /// in-flight samples, same as every other reader of this type).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }

    /// Samples recorded since `prev` was taken (windowed view).
    pub fn delta(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        self.snapshot().delta_since(prev)
    }
}

/// Plain-data copy of a [`LatencyHistogram`], for aggregation, windowing
/// and export without holding the live atomics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum_ns: u64,
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    pub const fn empty() -> Self {
        Self { buckets: [0; HIST_BUCKETS], count: 0, sum_ns: 0, max_ns: 0 }
    }

    /// Sums another snapshot into this one. Associative and commutative:
    /// every field is a sum except `max_ns`, which is a max.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// What was recorded after `prev` (saturating per field; `max_ns`
    /// keeps the current max — log-bucketed histograms cannot recover a
    /// windowed max, only an upper bound).
    pub fn delta_since(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| {
                self.buckets[i].saturating_sub(prev.buckets[i])
            }),
            count: self.count.saturating_sub(prev.count),
            sum_ns: self.sum_ns.saturating_sub(prev.sum_ns),
            max_ns: self.max_ns,
        }
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Upper bound (in ns) of the bucket containing quantile `q` (0..=1).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= target {
                return if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
            }
        }
        self.max_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.reset(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_is_thread_safe() {
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn throughput_meter_window() {
        let m = ThroughputMeter::new();
        assert!(m.rates().is_none());
        m.record(100, 1000); // pre-window traffic is discarded
        m.start_window();
        m.record(50, 500);
        std::thread::sleep(Duration::from_millis(20));
        let (items_s, bytes_s) = m.rates().unwrap();
        assert!(items_s > 0.0 && items_s < 50.0 / 0.015);
        assert!(bytes_s > 0.0);
        assert_eq!(m.items(), 50);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::new();
        for ns in [100u64, 200, 400, 800, 100_000] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile_ns(0.5);
        assert!((256..=511).contains(&p50), "p50 bucket got {p50}");
        let p100 = h.quantile_ns(1.0);
        assert!(p100 >= 100_000);
        assert_eq!(h.max_ns(), 100_000);
        assert!((h.mean_ns() - 20_300.0).abs() < 1.0);
    }

    #[test]
    fn histogram_zero_and_extreme_values() {
        let h = LatencyHistogram::new();
        h.record_ns(0); // clamped to bucket 0
        h.record_ns(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_ns(0.0), 1);
        assert_eq!(h.quantile_ns(1.0), u64::MAX);
    }

    #[test]
    fn histogram_summary_contains_fields() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(5));
        let s = h.summary();
        assert!(s.contains("n=1"));
        assert!(s.contains("p99"));
    }

    #[test]
    fn throughput_meter_restart_resets_window() {
        let m = ThroughputMeter::new();
        m.start_window();
        m.record(10, 100);
        std::thread::sleep(Duration::from_millis(5));
        m.start_window(); // restart discards the first window's traffic
        assert_eq!(m.items(), 0);
        m.record(7, 70);
        std::thread::sleep(Duration::from_millis(5));
        let (items_s, _) = m.rates().unwrap();
        assert!(items_s > 0.0);
        assert_eq!(m.items(), 7);
    }

    #[test]
    fn throughput_meter_record_is_lock_free_under_contention() {
        let m = Arc::new(ThroughputMeter::new());
        m.start_window();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        m.record(1, 8);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.items(), 20_000);
        assert_eq!(m.bytes(), 160_000);
        assert!(m.rates().is_some());
    }

    #[test]
    fn histogram_merge_combines_samples() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record_ns(100);
        a.record_ns(200);
        b.record_ns(400_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_ns(), 400_000);
        assert!((a.mean_ns() - (100.0 + 200.0 + 400_000.0) / 3.0).abs() < 1.0);
        // b is untouched.
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn snapshot_merge_is_associative_and_commutative() {
        let samples: [&[u64]; 3] = [&[10, 20, 30], &[1_000, 2_000], &[u64::MAX, 5]];
        let snaps: Vec<HistogramSnapshot> = samples
            .iter()
            .map(|s| {
                let h = LatencyHistogram::new();
                for &ns in *s {
                    h.record_ns(ns);
                }
                h.snapshot()
            })
            .collect();

        // (a ⊕ b) ⊕ c
        let mut left = snaps[0].clone();
        left.merge(&snaps[1]);
        left.merge(&snaps[2]);
        // a ⊕ (b ⊕ c)
        let mut bc = snaps[1].clone();
        bc.merge(&snaps[2]);
        let mut right = snaps[0].clone();
        right.merge(&bc);
        assert_eq!(left, right);

        // c ⊕ b ⊕ a
        let mut rev = snaps[2].clone();
        rev.merge(&snaps[1]);
        rev.merge(&snaps[0]);
        assert_eq!(left, rev);

        assert_eq!(left.count, 7);
        assert_eq!(left.max_ns, u64::MAX);
    }

    #[test]
    fn snapshot_quantiles_match_live_histogram() {
        let h = LatencyHistogram::new();
        for ns in [100u64, 200, 400, 800, 100_000] {
            h.record_ns(ns);
        }
        let s = h.snapshot();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile_ns(q), h.quantile_ns(q), "q={q}");
        }
        assert_eq!(s.mean_ns(), h.mean_ns());
        // Quantile bounds: every quantile is >= the smallest sample's
        // bucket lower bound and within 2x of the largest sample.
        assert!(s.quantile_ns(0.0) >= 64);
        assert!(s.quantile_ns(1.0) >= 100_000 && s.quantile_ns(1.0) < 200_000);
    }

    #[test]
    fn snapshot_delta_windows_new_samples() {
        let h = LatencyHistogram::new();
        h.record_ns(100);
        h.record_ns(5_000);
        let before = h.snapshot();
        h.record_ns(100);
        h.record_ns(1_000_000);
        let d = h.delta(&before);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum_ns, 100 + 1_000_000);
        // The delta's quantiles reflect only the window's samples.
        assert!(d.quantile_ns(1.0) >= 1_000_000);
        let lo = d.quantile_ns(0.0);
        assert!((64..=127).contains(&lo), "low quantile got {lo}");
    }

    #[test]
    fn empty_snapshot_is_merge_identity() {
        let h = LatencyHistogram::new();
        h.record_ns(123);
        let s = h.snapshot();
        let mut merged = s.clone();
        merged.merge(&HistogramSnapshot::empty());
        assert_eq!(merged, s);
        assert_eq!(HistogramSnapshot::empty().quantile_ns(0.5), 0);
    }
}
