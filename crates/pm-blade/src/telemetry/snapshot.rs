//! Point-in-time metric snapshots and their renderers.
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

use sim::Histogram;

use super::registry::MetricKey;
use super::span::{CostDecision, TraceSpan};

/// Digest of one histogram. Which clock the `_nanos` fields are on
/// depends on the series: engine latencies (`read_latency`,
/// `write_latency`, `scan_latency`, `group_commit_latency`,
/// `wal_sync_latency`) are **virtual** nanoseconds from the device
/// models, while `server_{ping,put,delete,write_batch,get,scan,compact}_latency`,
/// `server_flush_latency`, `write_stall_wall_nanos` and
/// `recovery_wall_nanos` are **wall-clock** nanoseconds.
/// `pm_tables_probed_per_get` records a count, not a duration.
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

    /// Human-readable fixed-width table.
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "== metrics snapshot @ {} virtual ns ==", self.at_nanos);
        let _ = writeln!(out, "-- counters --");
        for (key, value) in &self.counters {
            let _ = writeln!(out, "  {:<52} {:>14}", key.to_string(), value);
        }
        let _ = writeln!(out, "-- gauges --");
        for (key, value) in &self.gauges {
            let _ = writeln!(out, "  {:<52} {:>14}", key.to_string(), value);
        }
        let _ = writeln!(
            out,
            "-- histograms (virtual ns; *_wall_* and server_* wall ns; *_per_* counts) --\n  \
             {:<36} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "histogram", "count", "mean", "p50", "p95", "p99", "max"
        );
        for (key, h) in &self.histograms {
            let _ = writeln!(
                out,
                "  {:<36} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
                key.to_string(),
                h.count,
                h.mean_nanos,
                h.p50_nanos,
                h.p95_nanos,
                h.p99_nanos,
                h.max_nanos
            );
        }
        let _ = writeln!(
            out,
            "-- spans ({} retained, {} evicted) --",
            self.spans.len(),
            self.spans_dropped
        );
        for span in &self.spans {
            let _ = writeln!(
                out,
                "  #{:<5} {:<12} p{:<3} {:>10}ns  in {} rec/{} B  out {} rec/{} B{}",
                span.id,
                span.kind.as_str(),
                span.partition,
                span.duration().as_nanos(),
                span.input_records,
                span.input_bytes,
                span.output_records,
                span.output_bytes,
                span.cost
                    .as_ref()
                    .map(|c| format!("  [{}]", c.rule()))
                    .unwrap_or_default()
            );
        }
        out
    }

    /// JSON document (no external dependencies; all keys sorted).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"at_nanos\": {},", self.at_nanos);
        out.push_str("  \"counters\": [\n");
        json_values(&mut out, &self.counters);
        out.push_str("\n  ],\n  \"gauges\": [\n");
        json_values(&mut out, &self.gauges);
        out.push_str("\n  ],\n  \"histograms\": [\n");
        let mut first = true;
        for (key, h) in &self.histograms {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", {}\"count\": {}, \"sum_nanos\": {}, \
                 \"mean_nanos\": {}, \"min_nanos\": {}, \"p50_nanos\": {}, \
                 \"p95_nanos\": {}, \"p99_nanos\": {}, \"max_nanos\": {}}}",
                key.name,
                json_labels(key),
                h.count,
                h.sum_nanos,
                h.mean_nanos,
                h.min_nanos,
                h.p50_nanos,
                h.p95_nanos,
                h.p99_nanos,
                h.max_nanos
            );
        }
        out.push_str("\n  ],\n  \"spans\": [\n");
        first = true;
        for span in &self.spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "    {{\"id\": {}, \"trace_id\": {}, \"kind\": \"{}\", \"partition\": {}, \
                 \"start_nanos\": {}, \"end_nanos\": {}, \
                 \"input_records\": {}, \"output_records\": {}, \
                 \"input_bytes\": {}, \"output_bytes\": {}, \"cost\": {}}}",
                span.id,
                span.trace_id,
                span.kind.as_str(),
                span.partition,
                span.start_nanos,
                span.end_nanos,
                span.input_records,
                span.output_records,
                span.input_bytes,
                span.output_bytes,
                cost_json(span.cost.as_ref())
            );
        }
        let _ = write!(
            out,
            "\n  ],\n  \"spans_dropped\": {}\n}}\n",
            self.spans_dropped
        );
        out
    }

    /// Prometheus text exposition. Metric names get a `pmblade_`
    /// prefix; histogram summaries use `quantile` labels plus `_sum`
    /// and `_count` series. Durations are nanoseconds on the clock of
    /// their series — virtual for engine latencies, wall for the
    /// `server_*_latency`, `server_flush_latency`,
    /// `write_stall_wall_nanos` and `recovery_wall_nanos` series (see
    /// [`HistogramSummary`]).
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut last_name = "";
        for (key, value) in &self.counters {
            if key.name != last_name {
                let _ = writeln!(out, "# TYPE pmblade_{} counter", key.name);
                last_name = key.name;
            }
            let _ = writeln!(out, "pmblade_{}{} {}", key.name, key.label_string(), value);
        }
        last_name = "";
        for (key, value) in &self.gauges {
            if key.name != last_name {
                let _ = writeln!(out, "# TYPE pmblade_{} gauge", key.name);
                last_name = key.name;
            }
            let _ = writeln!(out, "pmblade_{}{} {}", key.name, key.label_string(), value);
        }
        last_name = "";
        for (key, h) in &self.histograms {
            if key.name != last_name {
                let _ = writeln!(out, "# TYPE pmblade_{} summary", key.name);
                last_name = key.name;
            }
            for (q, v) in [
                ("0.5", h.p50_nanos),
                ("0.95", h.p95_nanos),
                ("0.99", h.p99_nanos),
            ] {
                let _ = writeln!(
                    out,
                    "pmblade_{}{} {}",
                    key.name,
                    merge_labels(key, &format!("quantile=\"{q}\"")),
                    v
                );
            }
            let _ = writeln!(
                out,
                "pmblade_{}_sum{} {}",
                key.name,
                key.label_string(),
                h.sum_nanos
            );
            let _ = writeln!(
                out,
                "pmblade_{}_count{} {}",
                key.name,
                key.label_string(),
                h.count
            );
        }
        let _ = writeln!(out, "# TYPE pmblade_spans_dropped counter");
        let _ = writeln!(out, "pmblade_spans_dropped {}", self.spans_dropped);
        out
    }
}

/// The counter and gauge rows of the JSON document: one
/// `{"name": .., labels, "value": ..}` object per line.
fn json_values<V: std::fmt::Display>(out: &mut String, values: &BTreeMap<MetricKey, V>) {
    use std::fmt::Write;
    for (i, (key, value)) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", {}\"value\": {}}}",
            key.name,
            json_labels(key),
            value
        );
    }
}

/// `"partition": 0, "level": 1, ` (or nulls) for JSON objects; a
/// `"connection": N` field rides along only when the label is set
/// (server-side per-connection counters).
fn json_labels(key: &MetricKey) -> String {
    let connection = match key.connection {
        Some(c) => format!("\"connection\": {c}, "),
        None => String::new(),
    };
    format!(
        "\"partition\": {}, \"level\": {}, {connection}",
        key.partition
            .map(|p| p.to_string())
            .unwrap_or_else(|| "null".into()),
        key.level
            .map(|l| l.to_string())
            .unwrap_or_else(|| "null".into()),
    )
}

/// Merge an extra label into a key's label set.
fn merge_labels(key: &MetricKey, extra: &str) -> String {
    let base = key.label_string();
    if base.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{},{extra}}}", &base[..base.len() - 1])
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_usize_list(values: &[usize]) -> String {
    let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn cost_json(cost: Option<&CostDecision>) -> String {
    let Some(cost) = cost else {
        return "null".into();
    };
    match cost {
        CostDecision::ReadBenefit {
            partition,
            read_rate,
            unsorted,
            triggered,
        } => format!(
            "{{\"rule\": \"{}\", \"partition\": {}, \"read_rate\": {}, \
             \"unsorted\": {}, \"triggered\": {}}}",
            cost.rule(),
            partition,
            json_f64(*read_rate),
            unsorted,
            triggered
        ),
        CostDecision::WriteBenefit {
            partition,
            window_writes,
            window_updates,
            l0_records,
            triggered,
        } => format!(
            "{{\"rule\": \"{}\", \"partition\": {}, \"window_writes\": {}, \
             \"window_updates\": {}, \"l0_records\": {}, \"triggered\": {}}}",
            cost.rule(),
            partition,
            window_writes,
            window_updates,
            l0_records,
            triggered
        ),
        CostDecision::HardCap {
            partition,
            unsorted,
            cap,
            triggered,
        } => {
            format!(
                "{{\"rule\": \"{}\", \"partition\": {}, \"unsorted\": {}, \
                 \"cap\": {}, \"triggered\": {}}}",
                cost.rule(),
                partition,
                unsorted,
                cap,
                triggered
            )
        }
        CostDecision::Retention {
            pm_used,
            budget,
            retained,
            victims,
        } => {
            format!(
                "{{\"rule\": \"{}\", \"pm_used\": {}, \"budget\": {}, \
                 \"retained\": {}, \"victims\": {}}}",
                cost.rule(),
                pm_used,
                budget,
                json_usize_list(retained),
                json_usize_list(victims)
            )
        }
        CostDecision::CodecChoice {
            partition,
            codec,
            entries,
            pm_bytes,
        } => {
            format!(
                "{{\"rule\": \"{}\", \"partition\": {}, \"codec\": \"{}\", \
                 \"entries\": {}, \"pm_bytes\": {}}}",
                cost.rule(),
                partition,
                codec,
                entries,
                pm_bytes
            )
        }
    }
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
    fn table_render_mentions_every_section() {
        let table = sample().render_table();
        for needle in [
            "-- counters --",
            "-- gauges --",
            "-- histograms (virtual ns; *_wall_* and server_* wall ns; *_per_* counts) --",
            "-- spans (1 retained, 2 evicted) --",
            "group_commits{partition=\"0\"}",
            "eq3_retention",
        ] {
            assert!(table.contains(needle), "missing {needle}:\n{table}");
        }
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
        assert_eq!(
            merge_labels(&MetricKey::global("x"), "quantile=\"0.5\""),
            "{quantile=\"0.5\"}"
        );
        assert_eq!(
            merge_labels(&MetricKey::level("x", 2, 1), "quantile=\"0.99\""),
            "{partition=\"2\",level=\"1\",quantile=\"0.99\"}"
        );
    }
}
