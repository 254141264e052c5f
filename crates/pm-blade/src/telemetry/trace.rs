//! End-to-end request tracing: sampling, per-stage attribution, and
//! the flight recorder.
//!
//! A [`TraceContext`] names one logical request. It either originates
//! inside the engine (1-in-N sampling, see [`Tracer::sample`]) or
//! arrives over the wire (`Request::Traced`), in which case the
//! client-chosen trace id is adopted verbatim so client, server, and
//! engine logs line up. Every request, get, scan or write, counts its
//! time per stage in one [`StageTimes`]; a sampled one lays it out as
//! *stage* spans — plain [`TraceSpan`]s with request-stage
//! [`SpanKind`]s and the trace id set — in a [`RequestTrace`], which
//! the [`Tracer`] files into a [`FlightRecorder`] ring of
//! [`FLIGHT_RECORDER_CAPACITY`] traces.
//!
//! All durations are on the engine's virtual clock. Tracing only ever
//! *observes* the timeline (`Timeline::elapsed` deltas); it never
//! charges it, so enabling or disabling sampling cannot move a single
//! virtual latency.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sim::{Counter, Timeline};

use super::json::{self, Json, Layout};
use super::registry::{MetricKey, MetricsRegistry};
use super::ring::Ring;
use super::span::{SpanKind, TraceSpan};

/// Per-request trace identity, carried client → server → engine. A
/// request that carries one records its stages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Non-zero id shared by every span of the trace. Wire-originated
    /// ids are chosen by the client; engine-originated ids count up
    /// from 1.
    pub trace_id: u64,
}

impl TraceContext {
    /// The context of a sampled request with id `trace_id`.
    pub fn sampled(trace_id: u64) -> Self {
        TraceContext { trace_id }
    }
}

/// Which public operation a trace covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOp {
    Get,
    Write,
    Scan,
}

impl TraceOp {
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceOp::Get => "get",
            TraceOp::Write => "write",
            TraceOp::Scan => "scan",
        }
    }
}

/// One completed sampled request with its stage breakdown.
///
/// Stage spans sit on the same virtual timeline as the request
/// (`start_nanos` absolute), back to back from its start; their summed
/// durations never exceed `total_nanos`, so every stage lies inside
/// `[start_nanos, start_nanos + total_nanos]` — stages are measured
/// sub-intervals of the request, not estimates.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    pub trace_id: u64,
    pub op: TraceOp,
    /// Partition the request landed on (first partition for scans).
    pub partition: usize,
    /// Virtual time when the engine picked the request up.
    pub start_nanos: u64,
    /// Full request latency as reported to the caller.
    pub total_nanos: u64,
    pub stages: Vec<TraceSpan>,
}

impl RequestTrace {
    /// The trace of one sampled request that began at `start_nanos` and
    /// took `total_nanos`: `times`' counted stages laid back to back
    /// from the request start in `REQUEST_STAGES` order, each with
    /// its two counts as input and output records.
    pub fn new(
        ctx: TraceContext,
        op: TraceOp,
        partition: usize,
        start_nanos: u64,
        times: &StageTimes,
        total_nanos: u64,
    ) -> Self {
        let mut at = start_nanos;
        let mut stages = Vec::new();
        for (i, kind) in REQUEST_STAGES.into_iter().enumerate() {
            if times.counted & 1 << i != 0 {
                let (nanos, inputs, outputs) = times.sums[i];
                let (id, records) = (ctx.trace_id, (inputs, outputs));
                let span = TraceSpan::new(0, id, kind, partition, at, nanos, records, (0, 0), None);
                stages.push(span);
                at += nanos;
            }
        }
        RequestTrace {
            trace_id: ctx.trace_id,
            op,
            partition,
            start_nanos,
            total_nanos,
            stages,
        }
    }

    /// Sum of the stage durations (≤ `total_nanos`).
    pub fn stage_nanos(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| s.end_nanos.saturating_sub(s.start_nanos))
            .sum()
    }

    /// JSON object, the stages in recording order (the dialect of
    /// every telemetry document, see `telemetry::json`).
    pub fn to_json(&self) -> String {
        json::object(Layout::Inline, |o| self.json_fields(o))
    }

    fn json_fields(&self, o: &mut Json) {
        o.num("trace_id", self.trace_id)
            .str("op", self.op.as_str())
            .num("partition", self.partition)
            .num("start_nanos", self.start_nanos)
            .num("total_nanos", self.total_nanos)
            .array("stages", Layout::Inline, |a| {
                for s in &self.stages {
                    a.push_object(|o| {
                        o.str("stage", s.kind.as_str())
                            .num("start_nanos", s.start_nanos)
                            .num("end_nanos", s.end_nanos)
                            .num("input_records", s.input_records)
                            .num("output_records", s.output_records);
                    });
                }
            });
    }
}

/// The request stages, one [`StageTimes`] slot each, in the order a
/// trace lists them: a read's in the order it consults them, then a
/// scan's merge, then a write's.
const REQUEST_STAGES: [SpanKind; 10] = [
    SpanKind::MemtableProbe,
    SpanKind::FilterConsult,
    SpanKind::PmDecodeHit,
    SpanKind::PmDecodeMiss,
    SpanKind::SsdRead,
    SpanKind::Merge,
    SpanKind::ThrottleWait,
    SpanKind::WalAppend,
    SpanKind::MemtableApply,
    SpanKind::LeaderWait,
];

/// Where one request's virtual time went, per request stage: the
/// nanoseconds the stage took and two counts, its input and output
/// records in a trace. A get sums its probes into one (steps, and tables
/// a filter step ruled out), a scan its cursor steps plus its merge
/// (records pulled, rows returned), a write its commit shares (ops).
/// Read steps are timed by `Timeline::elapsed` deltas, so counting never
/// charges the timeline. [`RequestTrace::new`] lays it out.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    /// Per [`REQUEST_STAGES`] slot: (nanos, input count, output count).
    sums: [(u64, u64, u64); REQUEST_STAGES.len()],
    /// Bit `i` is set once anything was counted under slot `i`.
    counted: u16,
}

impl StageTimes {
    fn slot(kind: SpanKind) -> usize {
        let slot = REQUEST_STAGES.iter().position(|&k| k == kind);
        slot.expect("a request stage")
    }

    /// Add `nanos`, `inputs` and `outputs` to request stage `kind`,
    /// which a trace then lists even if all three are zero.
    pub(crate) fn add(&mut self, kind: SpanKind, nanos: u64, inputs: u64, outputs: u64) {
        let slot = Self::slot(kind);
        let sum = &mut self.sums[slot];
        *sum = (sum.0 + nanos, sum.1 + inputs, sum.2 + outputs);
        self.counted |= 1 << slot;
    }

    /// Run `step`, adding the virtual time it charged `tl` to `kind` as
    /// one step.
    pub(crate) fn time<T>(
        &mut self,
        kind: SpanKind,
        tl: &mut Timeline,
        step: impl FnOnce(&mut Timeline) -> T,
    ) -> T {
        let before = tl.elapsed().as_nanos();
        let out = step(tl);
        self.add(kind, tl.elapsed().as_nanos() - before, 1, 0);
        out
    }
}

/// The ring of recently recorded [`RequestTrace`]s.
pub type FlightRecorder = Ring<RequestTrace>;

/// Traces the engine's flight recorder keeps; older ones are evicted
/// and counted as dropped.
pub const FLIGHT_RECORDER_CAPACITY: usize = 256;

impl Ring<RequestTrace> {
    /// `{"dropped": N, "traces": [...]}` for the `/debug` endpoint.
    pub fn to_json(&self) -> String {
        let (traces, dropped) = self.snapshot_and_dropped();
        json::object(Layout::Inline, |o| {
            o.num("dropped", dropped);
            o.array("traces", Layout::Inline, |a| {
                for t in &traces {
                    a.push_object(|o| t.json_fields(o));
                }
            });
        })
    }
}

/// Sampling front-end plus the flight recorder, owned by the engine
/// core.
///
/// The sampling-off fast path ([`Tracer::sample`] with rate 0) is a
/// single branch on a pre-loaded field: no atomics, no allocation.
#[derive(Debug)]
pub struct Tracer {
    /// Sample 1 in N engine-originated requests; 0 disables sampling.
    sample_every: u64,
    ops: AtomicU64,
    ids: AtomicU64,
    recorder: FlightRecorder,
    /// Requests that recorded a stage breakdown (engine-sampled or
    /// wire-adopted).
    pub sampled_total: Arc<Counter>,
    /// Traces filed into the flight recorder.
    pub recorded_total: Arc<Counter>,
}

impl Tracer {
    pub fn new(sample_every: u64, registry: &MetricsRegistry) -> Self {
        Tracer {
            sample_every,
            ops: AtomicU64::new(0),
            ids: AtomicU64::new(0),
            recorder: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
            sampled_total: registry.counter(MetricKey::global("trace_sampled_total")),
            recorded_total: registry.counter(MetricKey::global("trace_recorded_total")),
        }
    }

    /// Engine-originated sampling decision: every `sample_every`-th
    /// call gets a fresh sampled context.
    pub fn sample(&self) -> Option<TraceContext> {
        if self.sample_every == 0 {
            return None;
        }
        let n = self.ops.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(self.sample_every) {
            return None;
        }
        self.sampled_total.incr();
        Some(TraceContext::sampled(
            self.ids.fetch_add(1, Ordering::Relaxed) + 1,
        ))
    }

    /// Adopt a wire-carried context: the client already made the
    /// sampling decision, so it is honored regardless of the local
    /// rate, and counted.
    pub fn adopt(&self, ctx: TraceContext) -> TraceContext {
        self.sampled_total.incr();
        ctx
    }

    /// File a finished trace into the flight recorder.
    pub fn finish(&self, trace: RequestTrace) {
        self.recorded_total.incr();
        self.recorder.push(trace);
    }

    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }
}

/// Render traces as Chrome trace-event JSON, loadable in
/// `chrome://tracing` / Perfetto. One complete (`"ph": "X"`) event per
/// request plus one per stage; `pid` is the partition, `tid` the trace
/// id, timestamps are virtual-clock microseconds with nanosecond
/// precision in the fraction.
pub fn chrome_trace_json(traces: &[RequestTrace]) -> String {
    let mut out = json::object(Layout::Inline, |o| {
        o.str("displayTimeUnit", "ms");
        o.array("traceEvents", Layout::Lines, |a| {
            for t in traces {
                let at = (t.start_nanos, t.total_nanos);
                let ids = (t.partition, t.trace_id);
                let args = [("trace_id", t.trace_id), ("stage_nanos", t.stage_nanos())];
                chrome_event(a, (t.op.as_str(), "request"), at, ids, args);
                for s in &t.stages {
                    let at = (s.start_nanos, s.end_nanos.saturating_sub(s.start_nanos));
                    let ids = (s.partition, t.trace_id);
                    let args = [
                        ("input_records", s.input_records),
                        ("output_records", s.output_records),
                    ];
                    chrome_event(a, (s.kind.as_str(), "stage"), at, ids, args);
                }
            }
        });
    });
    out.push('\n');
    out
}

/// One complete event: its name and category, its start and duration
/// in nanoseconds, its pid and tid, and its two arguments.
fn chrome_event(
    a: &mut Json,
    (name, cat): (&str, &str),
    (start_nanos, nanos): (u64, u64),
    (pid, tid): (usize, u64),
    args: [(&str, u64); 2],
) {
    a.push_object(|o| {
        o.str("name", name)
            .str("cat", cat)
            .str("ph", "X")
            .num("ts", micros(start_nanos))
            .num("dur", micros(nanos))
            .num("pid", pid)
            .num("tid", tid)
            .object("args", |o| {
                for (name, value) in args {
                    o.num(name, value);
                }
            });
    });
}

/// `nanos` as microseconds with the nanoseconds in the fraction:
/// `1234` is `1.234`.
fn micros(nanos: u64) -> impl std::fmt::Display {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl StageTimes {
        /// What read stage `kind` summed: (nanos, steps, tables ruled
        /// out).
        pub(crate) fn of(&self, kind: SpanKind) -> (u64, u64, u64) {
            self.sums[Self::slot(kind)]
        }

        /// Nanoseconds summed over every stage.
        pub(crate) fn nanos(&self) -> u64 {
            self.sums.iter().map(|s| s.0).sum()
        }
    }

    /// A trace of request `id` that counted no stage.
    fn bare(id: u64, op: TraceOp, total_nanos: u64) -> RequestTrace {
        let times = StageTimes::default();
        RequestTrace::new(TraceContext::sampled(id), op, 0, 0, &times, total_nanos)
    }

    #[test]
    fn sampling_rate_picks_every_nth() {
        let t = Tracer::new(4, &MetricsRegistry::new());
        let picks: Vec<bool> = (0..8).map(|_| t.sample().is_some()).collect();
        assert_eq!(
            picks,
            vec![true, false, false, false, true, false, false, false]
        );
        assert_eq!(t.sampled_total.get(), 2);
    }

    #[test]
    fn sampling_off_records_nothing() {
        let t = Tracer::new(0, &MetricsRegistry::new());
        for _ in 0..100 {
            assert!(t.sample().is_none());
        }
        assert_eq!(t.sampled_total.get(), 0);
    }

    #[test]
    fn adopt_honors_the_wire_decision() {
        let t = Tracer::new(0, &MetricsRegistry::new());
        assert_eq!(t.adopt(TraceContext::sampled(9)).trace_id, 9);
        assert_eq!(t.sampled_total.get(), 1);
    }

    #[test]
    fn finish_files_every_sampled_trace() {
        let t = Tracer::new(1, &MetricsRegistry::new());
        let instant = bare(1, TraceOp::Get, 0);
        let slow = bare(2, TraceOp::Get, 100);
        t.finish(instant);
        t.finish(slow);
        let kept: Vec<u64> = t.recorder().snapshot().iter().map(|t| t.trace_id).collect();
        assert_eq!(kept, [1, 2]);
        assert_eq!(t.recorded_total.get(), 2);
    }

    #[test]
    fn recorder_ring_evicts_oldest() {
        let r = FlightRecorder::new(2);
        for id in 1..=4 {
            r.push(bare(id, TraceOp::Write, 1));
        }
        let ids: Vec<u64> = r.snapshot().iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![3, 4]);
        assert_eq!(r.dropped(), 2);
        assert!(r.to_json().starts_with("{\"dropped\": 2"));
    }

    #[test]
    fn stage_sums_stay_within_total() {
        let mut times = StageTimes::default();
        times.add(SpanKind::MemtableProbe, 40, 0, 0);
        times.add(SpanKind::FilterConsult, 30, 2, 1);
        times.add(SpanKind::SsdRead, 130, 0, 0);
        let trace = RequestTrace::new(
            TraceContext::sampled(5),
            TraceOp::Get,
            3,
            1_000,
            &times,
            250,
        );
        assert_eq!(trace.stage_nanos(), 200);
        assert!(trace.stage_nanos() <= trace.total_nanos);
        assert_eq!(trace.stages[0].start_nanos, 1_000);
        assert_eq!(trace.stages[2].end_nanos, 1_200);
    }

    #[test]
    fn lay_out_places_busy_read_stages_back_to_back_in_consult_order() {
        let mut times = StageTimes::default();
        times.add(SpanKind::SsdRead, 30, 1, 0);
        times.add(SpanKind::MemtableProbe, 10, 1, 0);
        times.add(SpanKind::Merge, 0, 0, 0);
        times.add(SpanKind::FilterConsult, 5, 1, 2);
        let trace = RequestTrace::new(TraceContext::sampled(3), TraceOp::Get, 0, 100, &times, 45);
        let laid: Vec<_> = trace
            .stages
            .iter()
            .map(|s| {
                (
                    s.kind,
                    s.start_nanos,
                    s.end_nanos,
                    s.input_records,
                    s.output_records,
                )
            })
            .collect();
        assert_eq!(
            laid,
            [
                (SpanKind::MemtableProbe, 100, 110, 1, 0),
                (SpanKind::FilterConsult, 110, 115, 1, 2),
                (SpanKind::SsdRead, 115, 145, 1, 0),
                (SpanKind::Merge, 145, 145, 0, 0),
            ],
            "a stage nothing was counted under is left out, one counted at zero is kept"
        );
        assert_eq!(times.nanos(), trace.stage_nanos());
    }

    #[test]
    fn chrome_export_is_balanced_json() {
        let mut times = StageTimes::default();
        times.add(SpanKind::MemtableProbe, 1_499, 0, 0);
        let trace = RequestTrace::new(
            TraceContext::sampled(7),
            TraceOp::Get,
            1,
            2_500,
            &times,
            1_500,
        );
        let json = chrome_trace_json(&[trace]);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\": \"get\""));
        assert!(json.contains("\"name\": \"memtable_probe\""));
        assert!(json.contains("\"ts\": 2.500"));
        assert!(json.contains("\"dur\": 1.499"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn request_trace_json_lists_stages() {
        let mut times = StageTimes::default();
        times.add(SpanKind::WalAppend, 5, 0, 0);
        let json = RequestTrace::new(TraceContext::sampled(11), TraceOp::Write, 2, 10, &times, 20)
            .to_json();
        assert!(json.contains("\"trace_id\": 11"));
        assert!(json.contains("\"op\": \"write\""));
        assert!(json.contains("\"stage\": \"wal_append\""));
        assert!(!json.contains("deadline"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
