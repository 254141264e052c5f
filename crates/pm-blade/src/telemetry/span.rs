//! Tracing spans: one record per background-work episode.

use sim::SimDuration;

/// What kind of work a span covers.
///
/// The first three kinds are background-work episodes stored in the
/// engine's span ring. The remaining kinds are *request stages*: the
/// per-request breakdown recorded by the end-to-end tracer (see
/// [`crate::telemetry::trace`]) for sampled reads and writes. Stage
/// spans live only inside a [`crate::telemetry::RequestTrace`]; they
/// are never pushed to the ring.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SpanKind {
    /// Minor compaction: memtable frozen and flushed to level-0.
    Flush,
    /// Internal compaction: PM tables merged into a fresh sorted run.
    Internal,
    /// Major compaction: level-0 moved into the SSD levels.
    Major,
    /// Stage: this write's share of the group's WAL append pass.
    WalAppend,
    /// Stage: this write's share of the group's memtable apply.
    MemtableApply,
    /// Stage: residual group-commit time spent waiting on the leader
    /// (queueing, other tickets' work, inline maintenance share).
    LeaderWait,
    /// Stage: slowdown/stall backpressure charged before the write
    /// joined the commit queue.
    ThrottleWait,
    /// Stage: the memtable probe of a point read.
    MemtableProbe,
    /// Stage: bloom-filter / fence-index consults over the PM level-0.
    FilterConsult,
    /// Stage: PM table probes served from the group-decode cache.
    PmDecodeHit,
    /// Stage: PM table probes that decoded prefix groups from PM.
    PmDecodeMiss,
    /// Stage: the SSD-level search after a PM level-0 miss.
    SsdRead,
    /// Stage: a scan's k-way merge CPU, charged per record pulled.
    Merge,
}

impl SpanKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanKind::Flush => "flush",
            SpanKind::Internal => "internal",
            SpanKind::Major => "major",
            SpanKind::WalAppend => "wal_append",
            SpanKind::MemtableApply => "memtable_apply",
            SpanKind::LeaderWait => "leader_wait",
            SpanKind::ThrottleWait => "throttle_wait",
            SpanKind::MemtableProbe => "memtable_probe",
            SpanKind::FilterConsult => "filter_consult",
            SpanKind::PmDecodeHit => "pm_decode_hit",
            SpanKind::PmDecodeMiss => "pm_decode_miss",
            SpanKind::SsdRead => "ssd_read",
            SpanKind::Merge => "merge",
        }
    }
}

/// A completed span. `start_nanos`/`end_nanos` are on the engine's
/// virtual clock; byte counts are measured from the device counters
/// around the work (a compaction racing on another partition can skew
/// one span's attribution but never the cumulative totals).
#[derive(Clone, Debug)]
pub struct TraceSpan {
    /// Monotonically increasing id, unique within one engine. Request
    /// *stage* spans (which live inside a `RequestTrace`, not the
    /// ring) use id 0 — their identity is the trace id.
    pub id: u64,
    /// Id of the request trace this span belongs to; 0 when the work
    /// was not triggered by (or part of) a traced request.
    pub trace_id: u64,
    pub kind: SpanKind,
    pub partition: usize,
    /// Virtual time when the work started.
    pub start_nanos: u64,
    /// Virtual time when the work finished (`start + duration`).
    pub end_nanos: u64,
    /// Records read by the work (0 when nothing was there to do).
    pub input_records: u64,
    /// Records surviving into the output.
    pub output_records: u64,
    /// Bytes read by the work: a flush's raw memtable bytes, an
    /// internal compaction's PM bytes, a major's PM and SSD bytes (its
    /// level-0 chunk, the levels above its landing level and the landing
    /// level's overlap).
    pub input_bytes: u64,
    /// Device bytes written by the work.
    pub output_bytes: u64,
    /// The SSD level the work wrote SSTables to: a major's landing
    /// level, or 0 for a flush into an SSD level-0.
    pub level: Option<usize>,
    /// The cost-model verdict that triggered this work, if any.
    pub cost: Option<CostDecision>,
}

impl TraceSpan {
    /// A span of `kind` work on `partition` covering
    /// `[start_nanos, start_nanos + nanos]`; `records` and `bytes` are
    /// `(input, output)` pairs. Request stages pass `id` 0.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u64,
        trace_id: u64,
        kind: SpanKind,
        partition: usize,
        start_nanos: u64,
        nanos: u64,
        records: (u64, u64),
        bytes: (u64, u64),
        cost: Option<CostDecision>,
    ) -> Self {
        TraceSpan {
            id,
            trace_id,
            kind,
            partition,
            start_nanos,
            end_nanos: start_nanos + nanos,
            input_records: records.0,
            output_records: records.1,
            input_bytes: bytes.0,
            output_bytes: bytes.1,
            level: None,
            cost,
        }
    }

    pub fn duration(&self) -> SimDuration {
        SimDuration::from_nanos(self.end_nanos.saturating_sub(self.start_nanos))
    }
}

/// One evaluated cost-model rule (§IV-C) with its inputs and verdict.
#[derive(Clone, Debug)]
pub enum CostDecision {
    /// Eq 1: read-amplification relief.
    ReadBenefit {
        partition: usize,
        /// `n̂_i^r`: observed reads per virtual second.
        read_rate: f64,
        /// `n_i`: unsorted PM tables.
        unsorted: usize,
        triggered: bool,
    },
    /// Eq 2: SSD write-amplification relief.
    WriteBenefit {
        partition: usize,
        /// `n_i^w`: writes in the window.
        window_writes: u64,
        /// `n_i^u`: updates (removable duplicates) in the window.
        window_updates: u64,
        /// Records the internal pass would rewrite.
        l0_records: usize,
        triggered: bool,
    },
    /// The `l0_unsorted_hard_cap` safety valve.
    HardCap {
        partition: usize,
        unsorted: usize,
        cap: usize,
        triggered: bool,
    },
    /// Eq 3: the retention knapsack at major-compaction time.
    Retention {
        /// PM bytes in use when the pass started.
        pm_used: usize,
        /// `τ_t`: the retention budget.
        budget: usize,
        /// Partitions kept in PM.
        retained: Vec<usize>,
        /// Partitions major-compacted to the SSD.
        victims: Vec<usize>,
    },
    /// The flush path's per-batch codec pick (encoding v2): which PM
    /// table codec this flush encoded with and what it wrote.
    CodecChoice {
        partition: usize,
        /// Codec name (`pmtable::CODEC_NAMES`): "prefix"/"delta"/"fixed".
        codec: &'static str,
        /// Entries flushed under the chosen codec.
        entries: usize,
        /// Encoded PM bytes the flush produced.
        pm_bytes: usize,
    },
    /// One step of the cache tuner: bytes of the one DRAM budget moved
    /// toward the cache whose ghost list would have served more.
    /// `Db::cache_split` is where the split stands.
    CacheSplit,
}

impl CostDecision {
    /// Short rule name for rendering and counters.
    pub fn rule(&self) -> &'static str {
        match self {
            CostDecision::ReadBenefit { .. } => "eq1_read_benefit",
            CostDecision::WriteBenefit { .. } => "eq2_write_benefit",
            CostDecision::HardCap { .. } => "hard_cap",
            CostDecision::Retention { .. } => "eq3_retention",
            CostDecision::CodecChoice { .. } => "flush_codec_decision",
            CostDecision::CacheSplit => "cache_split",
        }
    }

    /// Did the rule fire? (Retention passes, codec choices and cache
    /// steps always count as fired — every flush picks *some* codec, and
    /// a tuner period that moves nothing records no step.)
    pub fn triggered(&self) -> bool {
        match self {
            CostDecision::ReadBenefit { triggered, .. }
            | CostDecision::WriteBenefit { triggered, .. }
            | CostDecision::HardCap { triggered, .. } => *triggered,
            CostDecision::Retention { .. }
            | CostDecision::CodecChoice { .. }
            | CostDecision::CacheSplit => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_duration_is_end_minus_start() {
        let span = TraceSpan {
            id: 1,
            trace_id: 0,
            kind: SpanKind::Flush,
            partition: 0,
            start_nanos: 100,
            end_nanos: 350,
            input_records: 0,
            output_records: 0,
            input_bytes: 0,
            output_bytes: 0,
            level: None,
            cost: None,
        };
        assert_eq!(span.duration(), SimDuration::from_nanos(250));
        assert_eq!(span.kind.as_str(), "flush");
    }

    #[test]
    fn decisions_expose_rule_and_verdict() {
        let d = CostDecision::ReadBenefit {
            partition: 2,
            read_rate: 100.0,
            unsorted: 4,
            triggered: false,
        };
        assert_eq!(d.rule(), "eq1_read_benefit");
        assert!(!d.triggered());
        let r = CostDecision::Retention {
            pm_used: 10,
            budget: 5,
            retained: vec![0],
            victims: vec![1],
        };
        assert_eq!(r.rule(), "eq3_retention");
        assert!(r.triggered());
        let c = CostDecision::CodecChoice {
            partition: 1,
            codec: "delta",
            entries: 128,
            pm_bytes: 2048,
        };
        assert_eq!(c.rule(), "flush_codec_decision");
        assert!(c.triggered());
        assert_eq!(CostDecision::CacheSplit.rule(), "cache_split");
        assert!(CostDecision::CacheSplit.triggered());
    }
}
