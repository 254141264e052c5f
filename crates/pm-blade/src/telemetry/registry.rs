//! The metrics registry: named counters, gauges, and latency
//! histograms keyed by partition and level.
//!
//! Registration is get-or-create and returns an `Arc` handle; hot
//! paths fetch their handles once (at `Db::open`) and afterwards never
//! touch the registry's locks. Counter reads and writes are relaxed
//! atomics; histograms serialize recording through a short mutex (one
//! bucket increment under the lock).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use sim::{Counter, Histogram, SimDuration};

/// Identity of one metric: a static name plus optional partition,
/// level, and codec labels. Ordering is lexicographic (name, partition,
/// level, codec), which gives snapshots and renderers a stable order
/// for free.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MetricKey {
    pub name: &'static str,
    pub partition: Option<usize>,
    pub level: Option<usize>,
    /// PM table codec name (`pmtable::CODEC_NAMES`); the flush path
    /// labels `pm_codec_chosen_total` with the codec it picked.
    pub codec: Option<&'static str>,
}

impl MetricKey {
    /// An engine-global metric.
    pub const fn global(name: &'static str) -> Self {
        MetricKey {
            name,
            partition: None,
            level: None,
            codec: None,
        }
    }

    /// A per-partition metric.
    pub const fn partition(name: &'static str, partition: usize) -> Self {
        MetricKey {
            partition: Some(partition),
            ..MetricKey::global(name)
        }
    }

    /// A per-partition, per-level metric (level is 0 for the level-0,
    /// 1-based for the SSD levels).
    pub const fn level(name: &'static str, partition: usize, level: usize) -> Self {
        MetricKey {
            level: Some(level),
            ..MetricKey::partition(name, partition)
        }
    }

    /// A per-codec metric (flush codec decisions).
    pub const fn codec(name: &'static str, codec: &'static str) -> Self {
        MetricKey {
            codec: Some(codec),
            ..MetricKey::global(name)
        }
    }

    /// Every label, in key order, with its value where set. The one
    /// list the renderers read: [`Self::label_string`] (Prometheus and
    /// `Display`) and the JSON documents.
    pub(crate) fn labels(&self) -> [(&'static str, Option<LabelValue>); 3] {
        use LabelValue::{Name, Num};
        let num = |n: usize| Num(n as u64);
        [
            ("partition", self.partition.map(num)),
            ("level", self.level.map(num)),
            ("codec", self.codec.map(Name)),
        ]
    }

    /// Prometheus-style label suffix: `{partition="0",level="1"}`, or
    /// the empty string for a global metric.
    pub fn label_string(&self) -> String {
        self.label_string_and(None)
    }

    /// [`Self::label_string`] with `extra` as one more label after the
    /// key's own (a summary's `quantile`).
    pub(crate) fn label_string_and(&self, extra: Option<(&'static str, LabelValue)>) -> String {
        let parts: Vec<String> = self
            .labels()
            .into_iter()
            .chain(extra.map(|(name, value)| (name, Some(value))))
            .filter_map(|(name, value)| match value? {
                LabelValue::Num(n) => Some(format!("{name}=\"{n}\"")),
                LabelValue::Name(v) => Some(format!("{name}=\"{v}\"")),
            })
            .collect();
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    }
}

/// A set label's value: a number (partition, level) or a
/// name (codec, quantile). Prometheus quotes both; JSON quotes a name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LabelValue {
    Num(u64),
    Name(&'static str),
}

impl std::fmt::Display for MetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.name, self.label_string())
    }
}

/// A point-in-time signed value (PM usage, memtable size, …).
#[derive(Default, Debug)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A latency histogram safe to record from `&self`.
///
/// Wraps the virtual-clock [`Histogram`] in a mutex: recording is one
/// bucket increment under the lock, cheap enough for the foreground
/// paths at this reproduction's scale.
#[derive(Default, Debug)]
pub struct LatencyRecorder {
    hist: Mutex<Histogram>,
}

impl LatencyRecorder {
    pub fn record(&self, d: SimDuration) {
        self.hist.lock().record_duration(d);
    }

    pub fn record_nanos(&self, nanos: u64) {
        self.hist.lock().record(nanos);
    }

    /// A copy of the underlying histogram.
    pub fn histogram(&self) -> Histogram {
        self.hist.lock().clone()
    }
}

/// The registry proper.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<MetricKey, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<MetricKey, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<MetricKey, Arc<LatencyRecorder>>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Get or create the counter registered under `key`.
    pub fn counter(&self, key: MetricKey) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(&key) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .entry(key)
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Register an externally-owned counter under `key` (the caches
    /// register the hit, miss and eviction counters they own). Replaces
    /// any previous registration.
    pub fn register_counter(&self, key: MetricKey, counter: Arc<Counter>) {
        self.counters.write().insert(key, counter);
    }

    /// Get or create the gauge registered under `key`.
    pub fn gauge(&self, key: MetricKey) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().get(&key) {
            return Arc::clone(g);
        }
        Arc::clone(
            self.gauges
                .write()
                .entry(key)
                .or_insert_with(|| Arc::new(Gauge::default())),
        )
    }

    /// Get or create the latency histogram registered under `key`.
    pub fn histogram(&self, key: MetricKey) -> Arc<LatencyRecorder> {
        if let Some(h) = self.histograms.read().get(&key) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .entry(key)
                .or_insert_with(|| Arc::new(LatencyRecorder::default())),
        )
    }

    /// Read every registered metric.
    #[allow(clippy::type_complexity)]
    pub fn collect(
        &self,
    ) -> (
        BTreeMap<MetricKey, u64>,
        BTreeMap<MetricKey, i64>,
        BTreeMap<MetricKey, Histogram>,
    ) {
        let counters = self
            .counters
            .read()
            .iter()
            .map(|(k, c)| (*k, c.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .iter()
            .map(|(k, g)| (*k, g.get()))
            .collect();
        let histograms = self
            .histograms
            .read()
            .iter()
            .map(|(k, h)| (*k, h.histogram()))
            .collect();
        (counters, gauges, histograms)
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &self.counters.read().len())
            .field("gauges", &self.gauges.read().len())
            .field("histograms", &self.histograms.read().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_are_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter(MetricKey::global("x"));
        let b = reg.counter(MetricKey::global("x"));
        a.add(3);
        b.incr();
        assert_eq!(reg.counter(MetricKey::global("x")).get(), 4);
        // A different label is a different counter.
        assert_eq!(reg.counter(MetricKey::partition("x", 0)).get(), 0);
    }

    #[test]
    fn registered_external_counter_is_visible() {
        let reg = MetricsRegistry::new();
        let external = Arc::new(Counter::new());
        external.add(7);
        reg.register_counter(MetricKey::global("ext"), Arc::clone(&external));
        assert_eq!(reg.counter(MetricKey::global("ext")).get(), 7);
        external.incr();
        let (counters, _, _) = reg.collect();
        assert_eq!(counters[&MetricKey::global("ext")], 8);
    }

    #[test]
    fn gauges_and_histograms_roundtrip() {
        let reg = MetricsRegistry::new();
        reg.gauge(MetricKey::global("g")).set(-5);
        assert_eq!(reg.gauge(MetricKey::global("g")).get(), -5);
        let h = reg.histogram(MetricKey::global("lat"));
        h.record(SimDuration::from_micros(3));
        h.record_nanos(1_000);
        assert_eq!(h.histogram().count(), 2);
    }

    #[test]
    fn keys_order_and_render_stably() {
        let a = MetricKey::global("alpha");
        let b = MetricKey::partition("alpha", 1);
        let c = MetricKey::level("alpha", 1, 2);
        assert!(a < b && b < c);
        assert_eq!(a.label_string(), "");
        assert_eq!(b.label_string(), "{partition=\"1\"}");
        assert_eq!(c.label_string(), "{partition=\"1\",level=\"2\"}");
        assert_eq!(c.to_string(), "alpha{partition=\"1\",level=\"2\"}");
        let e = MetricKey::codec("alpha", "delta");
        assert!(a < e, "codec-labeled keys sort after global");
        assert_eq!(e.label_string(), "{codec=\"delta\"}");
        assert_eq!(e.to_string(), "alpha{codec=\"delta\"}");
    }
}
