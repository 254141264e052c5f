//! Engine-wide observability: the metrics registry, tracing spans,
//! the capped span ring, and point-in-time snapshots.
//!
//! The subsystem has three moving parts (see DESIGN.md "Observability"):
//!
//! - [`MetricsRegistry`] — named counters, gauges, and virtual-clock
//!   latency histograms, keyed by [`MetricKey`] (metric name plus
//!   optional partition, level and codec labels). Hot
//!   paths hold pre-fetched `Arc` handles so recording a metric is one
//!   relaxed atomic op; the registry's own locks are touched only at
//!   registration and snapshot time.
//! - [`TraceSpan`] — one record per background-work episode that
//!   installed (flush, internal compaction, major compaction) carrying
//!   start/end virtual time, input/output bytes and record counts, and
//!   the cost-model verdict ([`CostDecision`]) that triggered it.
//! - [`MetricsSnapshot`] — a serializable point-in-time view produced
//!   by `Db::metrics_snapshot()`, with [`MetricsSnapshot::delta`]
//!   support and two renderers (JSON and Prometheus text).
//!
//! Spans are retained in an [`EventRing`] — a ring buffer capped at
//! `Options::event_log_capacity` — which backs the engine's
//! `compaction_log()` accessor; when full, the oldest spans are evicted
//! and counted in `MetricsSnapshot::spans_dropped`. Every evaluated
//! cost-model rule that fired ticks its `cost_*` counter in the
//! registry. Together the two are the engine's one record of its
//! background work.

mod json;
pub mod registry;
pub mod ring;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use registry::{Gauge, LatencyRecorder, MetricKey, MetricsRegistry};
pub use ring::EventRing;
pub use snapshot::{HistogramSummary, MetricsSnapshot};
pub use span::{CostDecision, SpanKind, TraceSpan};
pub use trace::{
    chrome_trace_json, FlightRecorder, RequestTrace, StageTimes, TraceContext, TraceOp, Tracer,
    FLIGHT_RECORDER_CAPACITY,
};
