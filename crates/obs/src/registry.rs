//! The per-node metrics registry: named counters, gauges and histograms
//! with labels, snapshot/delta semantics and JSON export.
//!
//! Registration (`counter()`/`gauge()`/`histogram()`) is get-or-create
//! under a mutex and meant for startup: callers cache the returned `Arc`
//! and update it lock-free on the hot path. Metric names follow
//! `kera.<subsystem>.<name>` (DESIGN.md §9).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use kera_common::metrics::{Counter, HistogramSnapshot, LatencyHistogram};
use parking_lot::Mutex;

/// A settable signed value (queue depths, open segments, ...).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub const fn new() -> Self {
        Self { value: AtomicI64::new(0) }
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A metric's identity: name plus sorted label pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        MetricKey { name: name.to_string(), labels }
    }

    /// `name{k="v",...}` (Prometheus-style identity).
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<_> =
            self.labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape(v))).collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }

    /// True if every pair of `filter` appears in this key's labels.
    pub fn matches(&self, name: &str, filter: &[(&str, &str)]) -> bool {
        self.name == name
            && filter
                .iter()
                .all(|(k, v)| self.labels.iter().any(|(lk, lv)| lk == k && lv == v))
    }
}

fn escape(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// One node's metrics. Every metric automatically carries the registry's
/// base label, `node`.
pub struct MetricsRegistry {
    base_labels: Vec<(String, String)>,
    counters: Mutex<BTreeMap<MetricKey, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<MetricKey, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<MetricKey, Arc<LatencyHistogram>>>,
}

impl MetricsRegistry {
    pub fn new(node: u32) -> MetricsRegistry {
        MetricsRegistry {
            base_labels: vec![("node".to_string(), node.to_string())],
            counters: Mutex::named("obs.registry", BTreeMap::new()),
            gauges: Mutex::named("obs.registry", BTreeMap::new()),
            histograms: Mutex::named("obs.registry", BTreeMap::new()),
        }
    }

    fn key(&self, name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut all: Vec<(String, String)> = self.base_labels.clone();
        for (k, v) in labels {
            all.push((k.to_string(), v.to_string()));
        }
        all.sort();
        MetricKey { name: name.to_string(), labels: all }
    }

    /// Get-or-create; cache the `Arc`, don't call this on the hot path.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        Arc::clone(self.counters.lock().entry(self.key(name, labels)).or_default())
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        Arc::clone(self.gauges.lock().entry(self.key(name, labels)).or_default())
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<LatencyHistogram> {
        Arc::clone(self.histograms.lock().entry(self.key(name, labels)).or_default())
    }

    /// Point-in-time copy of every registered metric.
    ///
    /// One map lock at a time: the three maps share the `obs.registry`
    /// lock class, and same-class nesting is a lockdep violation — each
    /// guard must drop before the next is taken.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = self.counters.lock().iter().map(|(k, c)| (k.clone(), c.get())).collect();
        let gauges = self.gauges.lock().iter().map(|(k, g)| (k.clone(), g.get())).collect();
        let histograms =
            self.histograms.lock().iter().map(|(k, h)| (k.clone(), h.snapshot())).collect();
        RegistrySnapshot { counters, gauges, histograms }
    }
}

/// A point-in-time copy of a registry (or a merge of several).
#[derive(Clone, Debug, Default)]
pub struct RegistrySnapshot {
    pub counters: BTreeMap<MetricKey, u64>,
    pub gauges: BTreeMap<MetricKey, i64>,
    pub histograms: BTreeMap<MetricKey, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// What changed since `prev`: counters and histogram contents are
    /// subtracted; gauges keep their current value (they are levels, not
    /// accumulations).
    pub fn delta_since(&self, prev: &RegistrySnapshot) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| {
                    (k.clone(), v.saturating_sub(prev.counters.get(k).copied().unwrap_or(0)))
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| match prev.histograms.get(k) {
                    Some(p) => (k.clone(), h.delta_since(p)),
                    None => (k.clone(), h.clone()),
                })
                .collect(),
        }
    }

    /// Unions another snapshot into this one: same-key counters sum,
    /// gauges sum, histograms merge. Per-node snapshots never collide
    /// (their keys carry the `node` label), so cluster-wide aggregation
    /// is a plain fold.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms
                .entry(k.clone())
                .or_insert_with(HistogramSnapshot::empty)
                .merge(h);
        }
    }

    /// Sums every counter matching `name` + `filter` across labels.
    pub fn counter_sum(&self, name: &str, filter: &[(&str, &str)]) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.matches(name, filter))
            .map(|(_, &v)| v)
            .sum()
    }

    /// Merges every histogram matching `name` + `filter` across labels.
    pub fn histogram_sum(&self, name: &str, filter: &[(&str, &str)]) -> HistogramSnapshot {
        let mut acc = HistogramSnapshot::empty();
        for (_, h) in self.histograms.iter().filter(|(k, _)| k.matches(name, filter)) {
            acc.merge(h);
        }
        acc
    }

    /// Renders the snapshot as one JSON object.
    pub fn to_json(&self) -> String {
        fn object<V>(map: &BTreeMap<MetricKey, V>, value: impl Fn(&V) -> String) -> String {
            let field = |(k, v): (&MetricKey, &V)| {
                format!("\"{}\":{}", escape(&k.render()), value(v))
            };
            map.iter().map(field).collect::<Vec<_>>().join(",")
        }
        let histogram = |h: &HistogramSnapshot| {
            format!(
                "{{\"count\":{},\"sum_ns\":{},\"max_ns\":{},\"p50_ns\":{},\
                 \"p99_ns\":{},\"mean_ns\":{:.1}}}",
                h.count,
                h.sum_ns,
                h.max_ns,
                h.quantile_ns(0.50),
                h.quantile_ns(0.99),
                h.mean_ns(),
            )
        };
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
            object(&self.counters, u64::to_string),
            object(&self.gauges, i64::to_string),
            object(&self.histograms, histogram),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_identity_by_name_and_labels() {
        let reg = MetricsRegistry::new(1);
        let a = reg.counter("kera.rpc.calls", &[]);
        let b = reg.counter("kera.rpc.calls", &[]);
        let c = reg.counter("kera.rpc.calls", &[("stream", "7")]);
        a.inc();
        b.inc();
        c.add(5);
        assert_eq!(a.get(), 2, "same key shares the counter");
        assert_eq!(c.get(), 5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_sum("kera.rpc.calls", &[]), 7);
        assert_eq!(snap.counter_sum("kera.rpc.calls", &[("stream", "7")]), 5);
        assert_eq!(snap.counter_sum("kera.rpc.calls", &[("node", "1")]), 7);
    }

    #[test]
    fn gauge_set_add_get() {
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
    }

    #[test]
    fn snapshot_delta_subtracts_counters_and_histograms() {
        let reg = MetricsRegistry::new(2);
        let c = reg.counter("kera.broker.chunks_in", &[]);
        let h = reg.histogram("kera.trace.stage", &[("stage", "append")]);
        c.add(10);
        h.record_ns(100);
        let before = reg.snapshot();
        c.add(3);
        h.record_ns(200);
        h.record_ns(300);
        let delta = reg.snapshot().delta_since(&before);
        assert_eq!(delta.counter_sum("kera.broker.chunks_in", &[]), 3);
        let hs = delta.histogram_sum("kera.trace.stage", &[("stage", "append")]);
        assert_eq!(hs.count, 2);
        assert_eq!(hs.sum_ns, 500);
    }

    #[test]
    fn merge_aggregates_across_nodes() {
        let r1 = MetricsRegistry::new(1);
        let r2 = MetricsRegistry::new(2);
        r1.counter("kera.rpc.calls", &[]).add(4);
        r2.counter("kera.rpc.calls", &[]).add(6);
        r1.histogram("kera.trace.stage", &[("stage", "flush")]).record_ns(50);
        r2.histogram("kera.trace.stage", &[("stage", "flush")]).record_ns(70);
        let mut all = r1.snapshot();
        all.merge(&r2.snapshot());
        // Keys differ by node label, so the merged snapshot holds both.
        assert_eq!(all.counter_sum("kera.rpc.calls", &[]), 10);
        assert_eq!(all.counter_sum("kera.rpc.calls", &[("node", "2")]), 6);
        assert_eq!(all.histogram_sum("kera.trace.stage", &[("stage", "flush")]).count, 2);
    }

    #[test]
    fn json_export_contains_metrics() {
        let reg = MetricsRegistry::new(3);
        reg.counter("kera.rpc.calls", &[]).inc();
        reg.gauge("kera.vlog.queue_depth", &[]).set(4);
        reg.histogram("kera.trace.stage", &[("stage", "append")]).record_ns(100);
        let json = reg.snapshot().to_json();
        assert!(json.contains("kera.rpc.calls"));
        assert!(json.contains("node=\\\"3\\\""));
        assert!(json.contains("\"count\":1"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
