//! Engine-wide observability: the metrics registry, tracing spans,
//! event listeners, the capped span ring, and point-in-time snapshots.
//!
//! The subsystem has four moving parts (see DESIGN.md "Observability"):
//!
//! - [`MetricsRegistry`] — named counters, gauges, and virtual-clock
//!   latency histograms, keyed by [`MetricKey`] (metric name plus
//!   optional partition, level, connection and codec labels). Hot
//!   paths hold pre-fetched `Arc` handles so recording a metric is one
//!   relaxed atomic op; the registry's own locks are touched only at
//!   registration and snapshot time.
//! - [`TraceSpan`] — one record per background-work episode (flush,
//!   internal compaction, major compaction, group commit) carrying
//!   start/end virtual time, input/output bytes and record counts, and
//!   the cost-model verdict ([`CostDecision`]) that triggered it.
//! - [`EventListener`] — a RocksDB-style hook trait. Implementations
//!   added to `Options::listeners` observe
//!   begin/complete pairs for every span plus every cost-model
//!   decision. Listeners may run with engine locks held: they must be
//!   fast, must not block, and must never call back into the `Db`.
//! - [`MetricsSnapshot`] — a serializable point-in-time view produced
//!   by `Db::metrics_snapshot()`, with [`MetricsSnapshot::delta`]
//!   support and two renderers (JSON and Prometheus text).
//!
//! Compaction spans are additionally retained in an [`EventRing`] — a
//! ring buffer capped at `Options::event_log_capacity` — which backs
//! the engine's `compaction_log()` accessor; when full, the oldest
//! spans are evicted and counted in `MetricsSnapshot::spans_dropped`.

mod json;
pub mod listener;
pub mod registry;
pub mod ring;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use listener::{EventListener, ListenerSet};
pub use registry::{Gauge, LatencyRecorder, MetricKey, MetricsRegistry};
pub use ring::EventRing;
pub use snapshot::{HistogramSummary, MetricsSnapshot};
pub use span::{CostDecision, SpanKind, TraceSpan};
pub use trace::{
    chrome_trace_json, FlightRecorder, RequestTrace, StageTimes, StageTrace, TraceContext, TraceOp,
    Tracer,
};
