//! PM-Blade: an LSM-tree storage engine with a high-capacity persistent
//! memory level-0 — a reproduction of the ICDE 2023 paper.
//!
//! The engine is organised around three tiers:
//!
//! - a DRAM **memtable** (skiplist) per range partition;
//! - a PM **level-0** holding *unsorted* PM tables (fresh minor-compaction
//!   output) plus one *sorted run* produced by **internal compaction**
//!   (§IV-B);
//! - SSD **levels 1+** of block-based SSTables.
//!
//! Three cost models (§IV-C) decide when internal compaction pays off for
//! reads (Eq 1), when it pays off for SSD write amplification (Eq 2), and
//! which partitions stay resident in PM during major compaction (the
//! greedy knapsack of Eq 3). Of §V, the I/O window `q`, the worker count
//! `c`, the flush-admission gate and the compaction splitter reach the
//! background workers, as constants of [`maintenance`]; the scheduling
//! policies themselves are simulated beside the engine, by the
//! `coroutine` crate, which this crate does not link.
//!
//! This crate and the crates it links hold only the engine: the
//! record/index-table layer of §VI-D is `workloads::relational`, and
//! Fig 6's snappy baselines live in the `bench` crate.
//!
//! Alternative engine modes reproduce the paper's baselines:
//! [`options::Mode::PmBladePm`] (PM level-0 without internal compaction),
//! [`options::Mode::SsdLevel0`] (the RocksDB-like configuration), and
//! [`options::Mode::MatrixKv`] (a matrix-container level-0 with column
//! compaction).

pub mod commit;
pub mod costmodel;
pub mod cursor;
pub mod engine;
pub mod groupcache;
pub mod handle;
pub mod level0;
pub mod levels;
pub mod maintenance;
pub mod manifest;
pub mod matrix;
pub mod options;
pub mod partition;
pub mod protocol;
pub mod run;
pub mod stats;
pub mod telemetry;

pub use commit::{BatchOp, WriteBatch};
pub use engine::{CompactionRequest, Db, DbCore, DbError, ReadOutcome, ScanRequest, WriteAmp};
pub use groupcache::PmGroupCache;
pub use level0::L0Version;
pub use options::{MaintenanceMode, Mode, Options, Partitioner};
pub use protocol::{Request, Response, WireError};
pub use stats::{EngineMetrics, ReadSource};
pub use telemetry::{
    chrome_trace_json, CostDecision, FlightRecorder, HistogramSummary, MetricKey, MetricsRegistry,
    MetricsSnapshot, RequestTrace, SpanKind, TraceContext, TraceOp, TraceSpan, Tracer,
    FLIGHT_RECORDER_CAPACITY,
};

/// Convenience re-exports for downstream users.
pub use encoding::key::{KeyKind, SequenceNumber};
pub use pmtable::{Lookup, OwnedEntry};
pub use sim::{SimDuration, Timeline};
