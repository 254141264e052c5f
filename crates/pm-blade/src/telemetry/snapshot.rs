//! Point-in-time metric snapshots and their two renderers, JSON and
//! Prometheus text.
//!
//! Durations are nanoseconds on the clock of their series, and there
//! are two clocks:
//!
//! - **virtual** (the device models; deterministic): `read_latency`,
//!   `write_latency`, `scan_latency`, `group_commit_latency`,
//!   `wal_sync_latency`, every span and request-trace stage, and
//!   `at_nanos`;
//! - **wall** (the host; machine-dependent): `recovery_wall_nanos`,
//!   `write_stall_wall_nanos`, `server_flush_latency` and the
//!   `server_{ping,put,delete,write_batch,get,scan,compact}_latency`
//!   series.
//!
//! `pm_tables_probed_per_get` is a histogram of counts, not durations.
//! The renderers carry no clock label; the series name is the key.

use std::collections::BTreeMap;
use std::fmt::{Display, Write};

use sim::Histogram;

use super::json::{self, Json, Layout};
use super::registry::{LabelValue, MetricKey};
use super::span::{CostDecision, TraceSpan};

/// Digest of one histogram. The `_nanos` fields are on the clock of
/// the series, listed in [`crate::telemetry::snapshot`]'s docs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum_nanos: u128,
    pub mean_nanos: u64,
    pub min_nanos: u64,
    pub p50_nanos: u64,
    pub p95_nanos: u64,
    pub p99_nanos: u64,
    pub max_nanos: u64,
}

impl HistogramSummary {
    pub fn from_histogram(h: &Histogram) -> Self {
        HistogramSummary {
            count: h.count(),
            sum_nanos: h.sum(),
            mean_nanos: h.mean() as u64,
            min_nanos: h.min(),
            p50_nanos: h.quantile(0.5),
            p95_nanos: h.quantile(0.95),
            p99_nanos: h.quantile(0.99),
            max_nanos: h.max(),
        }
    }
}

/// A serializable point-in-time view of every registered metric plus
/// the retained compaction spans.
///
/// Counters are cumulative and monotone; gauges are instantaneous;
/// histogram summaries are cumulative since open ([`Self::delta`]
/// subtracts counters but keeps the later histograms whole — bucket
/// subtraction is not supported). Produced by `Db::metrics_snapshot()`.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Virtual clock (nanoseconds since origin) when taken.
    pub at_nanos: u64,
    pub counters: BTreeMap<MetricKey, u64>,
    pub gauges: BTreeMap<MetricKey, i64>,
    pub histograms: BTreeMap<MetricKey, HistogramSummary>,
    /// Retained compaction spans, oldest first.
    pub spans: Vec<TraceSpan>,
    /// Spans evicted from the ring before this snapshot.
    pub spans_dropped: u64,
}

impl MetricsSnapshot {
    /// Assemble a snapshot from raw collections (`Db::metrics_snapshot`
    /// and tests use this; histograms are summarized here).
    pub fn from_parts(
        at_nanos: u64,
        counters: BTreeMap<MetricKey, u64>,
        gauges: BTreeMap<MetricKey, i64>,
        histograms: BTreeMap<MetricKey, Histogram>,
        spans: Vec<TraceSpan>,
        spans_dropped: u64,
    ) -> Self {
        MetricsSnapshot {
            at_nanos,
            counters,
            gauges,
            histograms: histograms
                .iter()
                .map(|(k, h)| (*k, HistogramSummary::from_histogram(h)))
                .collect(),
            spans,
            spans_dropped,
        }
    }

    /// Sum of every counter named `name`, across all labels.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// The counter at exactly `key`, or 0.
    pub fn counter_at(&self, key: &MetricKey) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Change since `earlier` (which must be an earlier snapshot of the
    /// same engine): counters are subtracted (saturating, so a metric
    /// registered between the two snapshots shows its full value),
    /// gauges and histograms keep this snapshot's values, and only
    /// spans newer than `earlier`'s newest are kept.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (*k, v.saturating_sub(earlier.counter_at(k))))
            .collect();
        let last_seen = earlier.spans.iter().map(|s| s.id).max().unwrap_or(0);
        MetricsSnapshot {
            at_nanos: self.at_nanos,
            counters,
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
            spans: self
                .spans
                .iter()
                .filter(|s| s.id > last_seen)
                .cloned()
                .collect(),
            spans_dropped: self.spans_dropped.saturating_sub(earlier.spans_dropped),
        }
    }

    // -----------------------------------------------------------------
    // Renderers
    // -----------------------------------------------------------------

    /// JSON document: one object per series, one line each, in key
    /// order, then the retained spans.
    pub fn to_json(&self) -> String {
        let mut out = json::object(Layout::Indented(0), |o| {
            o.num("at_nanos", self.at_nanos);
            values(o, "counters", &self.counters);
            values(o, "gauges", &self.gauges);
            o.array("histograms", Layout::Indented(1), |a| {
                for (key, h) in &self.histograms {
                    a.push_object(|o| {
                        key_fields(o, key)
                            .num("count", h.count)
                            .num("sum_nanos", h.sum_nanos)
                            .num("mean_nanos", h.mean_nanos)
                            .num("min_nanos", h.min_nanos)
                            .num("p50_nanos", h.p50_nanos)
                            .num("p95_nanos", h.p95_nanos)
                            .num("p99_nanos", h.p99_nanos)
                            .num("max_nanos", h.max_nanos);
                    });
                }
            });
            o.array("spans", Layout::Indented(1), |a| {
                for span in &self.spans {
                    a.push_object(|o| span_fields(o, span));
                }
            });
            o.num("spans_dropped", self.spans_dropped);
        });
        out.push('\n');
        out
    }

    /// Prometheus text exposition. Metric names get a `pmblade_`
    /// prefix; histogram summaries use `quantile` labels plus `_sum`
    /// and `_count` series.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last = ("", "");
        // One `# TYPE` line per run of one name, then `name{labels} value` rows.
        let mut series = |kind, key: &MetricKey, rows: &[(&str, String, &dyn Display)]| {
            if last != (kind, key.name) {
                let _ = writeln!(out, "# TYPE pmblade_{} {kind}", key.name);
                last = (kind, key.name);
            }
            for (suffix, labels, value) in rows {
                let _ = writeln!(out, "pmblade_{}{suffix}{labels} {value}", key.name);
            }
        };
        for (key, value) in &self.counters {
            series("counter", key, &[("", key.label_string(), value)]);
        }
        for (key, value) in &self.gauges {
            series("gauge", key, &[("", key.label_string(), value)]);
        }
        for (key, h) in &self.histograms {
            let quantile = |q| key.label_string_and(Some(("quantile", LabelValue::Name(q))));
            let rows: [(_, _, &dyn Display); 5] = [
                ("", quantile("0.5"), &h.p50_nanos),
                ("", quantile("0.95"), &h.p95_nanos),
                ("", quantile("0.99"), &h.p99_nanos),
                ("_sum", key.label_string(), &h.sum_nanos),
                ("_count", key.label_string(), &h.count),
            ];
            series("summary", key, &rows);
        }
        let _ = writeln!(out, "# TYPE pmblade_spans_dropped counter");
        let _ = writeln!(out, "pmblade_spans_dropped {}", self.spans_dropped);
        out
    }
}

/// `"name": [..]`, one object per counter or gauge: its key, then
/// `"value"`.
fn values(o: &mut Json, name: &str, values: &BTreeMap<MetricKey, impl Display>) {
    o.array(name, Layout::Indented(1), |a| {
        for (key, value) in values {
            a.push_object(|o| {
                key_fields(o, key).num("value", value);
            });
        }
    });
}

/// The series name and its labels: `partition` and `level` in every
/// object (`null` when unset), the later labels only when set.
fn key_fields<'o, 'a>(o: &'o mut Json<'a>, key: &MetricKey) -> &'o mut Json<'a> {
    o.str("name", key.name);
    for (name, value) in key.labels() {
        match value {
            Some(LabelValue::Num(n)) => o.num(name, n),
            Some(LabelValue::Name(s)) => o.str(name, s),
            None if matches!(name, "partition" | "level") => o.null(name),
            None => o,
        };
    }
    o
}

fn span_fields(o: &mut Json, span: &TraceSpan) {
    o.num("id", span.id)
        .num("trace_id", span.trace_id)
        .str("kind", span.kind.as_str())
        .num("partition", span.partition)
        .num("start_nanos", span.start_nanos)
        .num("end_nanos", span.end_nanos)
        .num("input_records", span.input_records)
        .num("output_records", span.output_records)
        .num("input_bytes", span.input_bytes)
        .num("output_bytes", span.output_bytes)
        .opt("level", span.level);
    match &span.cost {
        Some(cost) => o.object("cost", |o| cost_fields(o, cost)),
        None => o.null("cost"),
    };
}

/// The rule name, then the verdict's inputs in declaration order.
fn cost_fields(o: &mut Json, cost: &CostDecision) {
    o.str("rule", cost.rule());
    match cost {
        CostDecision::ReadBenefit {
            partition,
            read_rate,
            unsorted,
            triggered,
        } => o
            .num("partition", partition)
            .f64("read_rate", *read_rate)
            .num("unsorted", unsorted)
            .num("triggered", triggered),
        CostDecision::WriteBenefit {
            partition,
            window_writes,
            window_updates,
            l0_records,
            triggered,
        } => o
            .num("partition", partition)
            .num("window_writes", window_writes)
            .num("window_updates", window_updates)
            .num("l0_records", l0_records)
            .num("triggered", triggered),
        CostDecision::HardCap {
            partition,
            unsorted,
            cap,
            triggered,
        } => o
            .num("partition", partition)
            .num("unsorted", unsorted)
            .num("cap", cap)
            .num("triggered", triggered),
        CostDecision::Retention {
            pm_used,
            budget,
            retained,
            victims,
        } => o
            .num("pm_used", pm_used)
            .num("budget", budget)
            .nums("retained", retained)
            .nums("victims", victims),
        CostDecision::CodecChoice {
            partition,
            codec,
            entries,
            pm_bytes,
        } => o
            .num("partition", partition)
            .str("codec", codec)
            .num("entries", entries)
            .num("pm_bytes", pm_bytes),
        CostDecision::CacheSplit => o,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::span::SpanKind;

    fn sample() -> MetricsSnapshot {
        let mut counters = BTreeMap::new();
        counters.insert(MetricKey::global("puts"), 10);
        counters.insert(MetricKey::partition("group_commits", 0), 4);
        let mut gauges = BTreeMap::new();
        gauges.insert(MetricKey::global("pm_used_bytes"), 4096);
        let mut histograms = BTreeMap::new();
        let mut h = Histogram::new();
        h.record(100);
        h.record(300);
        histograms.insert(MetricKey::global("read_latency"), h);
        let spans = vec![TraceSpan {
            id: 7,
            trace_id: 0,
            kind: SpanKind::Major,
            partition: 1,
            start_nanos: 50,
            end_nanos: 150,
            input_records: 20,
            output_records: 18,
            input_bytes: 2000,
            output_bytes: 1800,
            level: None,
            cost: Some(CostDecision::Retention {
                pm_used: 900,
                budget: 600,
                retained: vec![0],
                victims: vec![1],
            }),
        }];
        MetricsSnapshot::from_parts(1_000, counters, gauges, histograms, spans, 2)
    }

    #[test]
    fn counter_lookup_sums_across_labels() {
        let mut snap = sample();
        snap.counters
            .insert(MetricKey::partition("group_commits", 1), 6);
        assert_eq!(snap.counter("group_commits"), 10);
        assert_eq!(
            snap.counter_at(&MetricKey::partition("group_commits", 0)),
            4
        );
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn delta_subtracts_counters_and_filters_spans() {
        let earlier = sample();
        let mut later = sample();
        later.counters.insert(MetricKey::global("puts"), 25);
        later.spans.push(TraceSpan {
            id: 9,
            ..later.spans[0].clone()
        });
        later.spans_dropped = 5;
        let d = later.delta(&earlier);
        assert_eq!(d.counter_at(&MetricKey::global("puts")), 15);
        assert_eq!(d.counter_at(&MetricKey::partition("group_commits", 0)), 0);
        assert_eq!(d.spans.len(), 1);
        assert_eq!(d.spans[0].id, 9);
        assert_eq!(d.spans_dropped, 3);
    }

    #[test]
    fn json_is_well_formed_enough_to_eyeball() {
        let json = sample().to_json();
        assert!(json.contains("\"at_nanos\": 1000"));
        assert!(json
            .contains("{\"name\": \"puts\", \"partition\": null, \"level\": null, \"value\": 10}"));
        assert!(json.contains("\"rule\": \"eq3_retention\""));
        assert!(json.contains("\"retained\": [0]"));
        assert!(json.contains("\"spans_dropped\": 2"));
        // Balanced braces and brackets (no nesting surprises).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn prometheus_summary_gets_quantiles_sum_and_count() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE pmblade_puts counter"));
        assert!(text.contains("pmblade_puts 10"));
        assert!(text.contains("pmblade_group_commits{partition=\"0\"} 4"));
        assert!(text.contains("# TYPE pmblade_read_latency summary"));
        assert!(text.contains("pmblade_read_latency{quantile=\"0.5\"}"));
        assert!(text.contains("pmblade_read_latency_sum 400"));
        assert!(text.contains("pmblade_read_latency_count 2"));
        assert!(text.contains("pmblade_spans_dropped 2"));
    }

    #[test]
    fn merged_labels_compose() {
        let quantile = |q| Some(("quantile", LabelValue::Name(q)));
        assert_eq!(
            MetricKey::global("x").label_string_and(quantile("0.5")),
            "{quantile=\"0.5\"}"
        );
        assert_eq!(
            MetricKey::level("x", 2, 1).label_string_and(quantile("0.99")),
            "{partition=\"2\",level=\"1\",quantile=\"0.99\"}"
        );
    }
}
