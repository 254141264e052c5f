//! The read path: point reads and range scans. Takes a partition read
//! lock — dropped while a point read searches the published PM
//! level-0 — and nothing else.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use encoding::key::SequenceNumber;
use sim::Timeline;

use super::{DbCore, DbError, ReadOutcome, ScanRequest, ScanResult};
use crate::cursor::{MergingIter, ScanStats};
use crate::level0::ProbeStats;
use crate::levels::SsdReadStats;
use crate::partition::Level0;
use crate::stats::ReadSource;
use crate::telemetry::{SpanKind, StageTrace, TraceContext, TraceOp};

impl DbCore {
    /// Point read at the latest snapshot.
    pub fn get(&self, user_key: &[u8]) -> Result<ReadOutcome, DbError> {
        self.get_with(user_key, SequenceNumber::MAX, None)
    }

    /// The read path proper: a point read at `snapshot` (see
    /// [`DbCore::snapshot`]; [`SequenceNumber::MAX`] reads the latest)
    /// with the trace context stated, as [`DbCore::put_with`] takes it.
    ///
    /// Fast path: the memtable probe runs under the partition's read
    /// lock; if the partition has a PM level-0, the read takes a
    /// reference to its published [`crate::level0::L0Version`] (one
    /// refcount bump), drops the lock and searches the PM tables
    /// through it (PM tables are never mutated after publication, and
    /// the `Arc`s keep them readable even if a concurrent compaction
    /// frees their pool space). Only the SSD levels — whose tables *can*
    /// be deleted by a concurrent major compaction — are searched under
    /// the lock again.
    ///
    /// When the request is traced, each leg records a stage span from the
    /// `Timeline::elapsed` deltas around it — measured sub-intervals of
    /// the same virtual timeline that produces the read's latency, so
    /// the stage sum can never exceed the total. Untraced reads take
    /// the exact pre-tracing path (one `None` check per leg).
    pub fn get_with(
        &self,
        user_key: &[u8],
        snapshot: SequenceNumber,
        trace: Option<TraceContext>,
    ) -> Result<ReadOutcome, DbError> {
        let trace = self.trace_for(trace);
        let mut tl = Timeline::new();
        let pid = self.opts.partitioner.locate(user_key);
        let start_nanos = self.clock.load(Ordering::Relaxed);
        let mut st = trace.map(|ctx| StageTrace::new(ctx, TraceOp::Get, pid, start_nanos));
        let guard = self.partitions[pid].read();
        guard.counters.reads.incr();
        let mem_hit = guard.mem.get(user_key, snapshot, &mut tl);
        if let Some(s) = st.as_mut() {
            s.stage(SpanKind::MemtableProbe, 0, tl.elapsed().as_nanos());
        }
        let probed = if let Some(hit) = mem_hit {
            Ok((Some(hit), ReadSource::MemTable, None))
        } else if let Level0::Pm(l0) = &guard.level0 {
            let l0 = l0.version();
            drop(guard);
            let pm_from = tl.elapsed().as_nanos();
            let mut probe = ProbeStats::default();
            let l0_hit = l0.get(
                user_key,
                snapshot,
                &mut tl,
                Some(&self.group_cache),
                &mut probe,
            );
            self.note_probe_stats(&probe);
            if let Some(s) = st.as_mut() {
                // Lay the measured PM sub-intervals out in consult
                // order: filters, then cache-served probes, then
                // probes that decoded groups from PM.
                let mut cursor = pm_from;
                if probe.filter_lookups > 0 {
                    s.stage_counts(
                        SpanKind::FilterConsult,
                        cursor,
                        cursor + probe.filter_nanos,
                        probe.filter_lookups,
                        probe.filter_useful,
                    );
                    cursor += probe.filter_nanos;
                }
                if probe.decode_cache_hits > 0 {
                    s.stage_counts(
                        SpanKind::PmDecodeHit,
                        cursor,
                        cursor + probe.decode_hit_nanos,
                        probe.decode_cache_hits,
                        0,
                    );
                    cursor += probe.decode_hit_nanos;
                }
                if probe.decode_cache_misses > 0 || probe.decode_miss_nanos > 0 {
                    s.stage_counts(
                        SpanKind::PmDecodeMiss,
                        cursor,
                        cursor + probe.decode_miss_nanos,
                        probe.decode_cache_misses,
                        0,
                    );
                }
            }
            if let Some(hit) = l0_hit {
                Ok((Some(hit), ReadSource::Pm, None))
            } else {
                let guard = self.partitions[pid].read();
                let ssd_from = tl.elapsed().as_nanos();
                let mut ssd = SsdReadStats::default();
                let res = guard
                    .levels
                    .get_with_stats(user_key, snapshot, &mut tl, &mut ssd);
                if let Some(s) = st.as_mut() {
                    s.stage_counts(
                        SpanKind::SsdRead,
                        ssd_from,
                        tl.elapsed().as_nanos(),
                        ssd.levels_searched,
                        ssd.tables_probed,
                    );
                }
                match res {
                    Ok(Some((hit, level))) => Ok((Some(hit), ReadSource::Ssd, Some(level))),
                    Ok(None) => Ok((None, ReadSource::Miss, None)),
                    Err(e) => Err(DbError::from(e)),
                }
            }
        } else {
            guard.get_below_memtable(user_key, snapshot, &mut tl)
        };
        let (hit, source, ssd_level) = match probed {
            Ok(result) => result,
            Err(e) => {
                // Surface the failure (do not treat it as a miss), but
                // still account for the work the read performed.
                self.metrics.ssd_read_errors.incr();
                self.advance(tl.elapsed());
                return Err(e);
            }
        };
        self.metrics
            .note_read(&self.registry, pid, source, ssd_level);
        let latency = tl.elapsed();
        self.advance(latency);
        self.metrics.lat_reads.record(latency);
        if let Some(s) = st {
            self.tracer.finish(s.finish(latency.as_nanos()));
        }
        Ok(ReadOutcome {
            value: hit.and_then(|l| l.into_value()),
            source,
            latency,
        })
    }

    /// Fold one PM-L0 probe's sketch/filter/probe outcome into the
    /// global counters and the tables-probed-per-get distribution.
    fn note_probe_stats(&self, probe: &ProbeStats) {
        self.metrics
            .pm_tables_probed
            .record_nanos(probe.tables_probed);
        if probe.filter_lookups > 0 {
            self.metrics.pm_sketch_probes.add(probe.sketch_probes);
            self.metrics.pm_filter_checked.add(probe.filter_checked);
            self.metrics.pm_filter_useful.add(probe.filter_useful);
            self.metrics
                .pm_filter_miss
                .add(probe.filter_false_positives);
        }
    }

    /// The observed prune ratio: the fraction of per-table sketch and
    /// filter verdicts that skipped a table probe. Feeds the filtered Eq 1
    /// (pruned probes cost ~nothing, so internal compaction can wait).
    pub(super) fn filter_prune_ratio(&self) -> f64 {
        let checked = self.metrics.pm_filter_checked.get();
        if checked == 0 {
            0.0
        } else {
            self.metrics.pm_filter_useful.get() as f64 / checked as f64
        }
    }

    /// Range scan described by a [`ScanRequest`]: the live
    /// `(key, value)` rows of `[start, end)` — at most `limit`,
    /// largest-first when `reverse` — plus the scan's virtual latency.
    /// Each partition is read under its lock; the scan as a whole is
    /// not a point-in-time snapshot across partitions.
    pub fn scan(&self, request: ScanRequest) -> Result<ScanResult, DbError> {
        self.scan_with(request, None)
    }

    /// [`DbCore::scan`] with the trace context stated (as
    /// [`DbCore::get_with`]).
    pub fn scan_with(
        &self,
        request: ScanRequest,
        trace: Option<TraceContext>,
    ) -> Result<ScanResult, DbError> {
        let trace = self.trace_for(trace);
        let mut tl = Timeline::new();
        let start_nanos = self.clock.load(Ordering::Relaxed);
        self.metrics.scans.incr();
        let first_pid = self.opts.partitioner.locate(&request.start);
        let last_pid = request
            .end
            .as_deref()
            .map(|e| self.opts.partitioner.locate(e))
            .unwrap_or(self.partitions.len() - 1);
        let mut out = Vec::new();
        let mut stats = ScanStats::default();
        for i in 0..(last_pid + 1).saturating_sub(first_pid) {
            if out.len() >= request.limit {
                break;
            }
            // Reverse scans walk partitions back to front.
            let pid = if request.reverse {
                last_pid - i
            } else {
                first_pid + i
            };
            if let Err(e) = self.scan_partition(pid, &request, &mut out, &mut stats, &mut tl) {
                // Surface the failure (rows behind an unreadable table
                // may be missing), but still account for the work done.
                self.metrics.ssd_read_errors.incr();
                self.advance(tl.elapsed());
                return Err(e);
            }
        }
        let latency = tl.elapsed();
        self.advance(latency);
        self.metrics.lat_scans.record(latency);
        self.metrics.pm_scan_tables.add(stats.tables_held);
        self.metrics.pm_scan_tables_sought.add(stats.tables_opened);
        if let Some(ctx) = trace {
            // Per-kind sums of the cursor steps' measured sub-intervals,
            // laid out back to back, then the merge CPU.
            let mut st = StageTrace::new(ctx, TraceOp::Scan, first_pid, start_nanos);
            let mut at = 0;
            for (kind, nanos, steps) in stats.stages {
                if nanos > 0 {
                    st.stage_counts(kind, at, at + nanos, steps, 0);
                    at += nanos;
                }
            }
            let merge = self.opts.cost.cpu.merge_per_entry.as_nanos() * stats.records;
            st.stage_counts(
                SpanKind::Merge,
                at,
                at + merge,
                stats.records,
                out.len() as u64,
            );
            self.tracer.finish(st.finish(latency.as_nanos()));
        }
        Ok((out, latency))
    }

    /// Append one partition's share of a scan to `out`: one merging
    /// pass over the partition's cursors, under its read lock. A forward
    /// scan stops at the row that fills `limit`; a reverse scan runs the
    /// same forward pass over the whole range and keeps its last rows in
    /// a deque bounded by what `limit` still allows.
    fn scan_partition(
        &self,
        pid: usize,
        request: &ScanRequest,
        out: &mut Vec<(Vec<u8>, Vec<u8>)>,
        stats: &mut ScanStats,
        tl: &mut Timeline,
    ) -> Result<(), DbError> {
        let partition = self.partitions[pid].read();
        partition.counters.reads.incr();
        self.metrics.partitions[pid].reads.incr();
        let (start, end) = (request.start.as_slice(), request.end.as_deref());
        let mut rows = MergingIter::new(
            partition.cursors(start, end, &self.group_cache),
            start,
            end,
            true,
            self.opts.cost.cpu.merge_per_entry,
            stats,
            tl,
        )?;
        let room = request.limit - out.len();
        if request.reverse {
            let mut tail = VecDeque::new();
            while let Some(row) = rows.next(tl)? {
                if tail.len() == room {
                    tail.pop_front();
                }
                tail.push_back((row.user_key.to_vec(), row.value.to_vec()));
            }
            out.extend(tail.into_iter().rev());
        } else {
            while out.len() < request.limit {
                let Some(row) = rows.next(tl)? else { break };
                out.push((row.user_key.to_vec(), row.value.to_vec()));
            }
        }
        Ok(())
    }
}
