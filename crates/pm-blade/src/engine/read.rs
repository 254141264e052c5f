//! The read path: point reads and range scans.
//!
//! A get is one walk in every mode — memtable, level-0, SSD levels,
//! newest first, stopping at the first hit — and only its level-0 step
//! differs by mode. It takes the partition read lock, and drops it
//! while it searches a published PM level-0. A scan merges cursors over
//! every tier under the lock. Both count their virtual time per stage
//! in a [`StageTimes`], which a traced request lays out as its stages.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use encoding::key::SequenceNumber;
use pmtable::Lookup;
use sim::Timeline;

use super::{DbCore, DbError, ReadOutcome, ScanRequest, ScanResult};
use crate::cursor::{MergingIter, ScanStats};
use crate::level0::{Probe, ProbeStats};
use crate::partition::Level0;
use crate::stats::ReadSource;
use crate::telemetry::{SpanKind, StageTimes, StageTrace, TraceContext, TraceOp};

impl DbCore {
    /// Point read at the latest snapshot.
    pub fn get(&self, user_key: &[u8]) -> Result<ReadOutcome, DbError> {
        self.get_with(user_key, SequenceNumber::MAX, None)
    }

    /// The read path proper: a point read at `snapshot` (see
    /// [`DbCore::snapshot`]; [`SequenceNumber::MAX`] reads the latest)
    /// with the trace context stated, as [`DbCore::put_with`] takes it.
    ///
    /// Every get takes one walk, `probe`'s: memtable, level-0, SSD
    /// levels. Its steps count their virtual time per stage in one
    /// [`StageTimes`], which a traced get lays out as its stages — every
    /// nanosecond of the latency, in every mode. Counting only observes
    /// the timeline, so tracing moves no virtual number.
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
        let mut stages = StageTimes::default();
        let probed = self.probe(pid, user_key, snapshot, &mut tl, &mut stages);
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
        if let Some(ctx) = trace {
            let mut st = StageTrace::new(ctx, TraceOp::Get, pid, start_nanos);
            st.lay_out(&stages);
            self.tracer.finish(st.finish(latency.as_nanos()));
        }
        Ok(ReadOutcome {
            value: hit.and_then(|l| l.into_value()),
            source,
            latency,
        })
    }

    /// The one point-read walk of partition `pid`, newest data first:
    /// the memtable, then level-0, then the SSD levels. The third
    /// element is the SSD level that served the read (0 for an SSD
    /// level-0 table), `None` for the other sources.
    ///
    /// Only the level-0 step depends on the mode. A PM level-0 is
    /// searched through its published [`crate::level0::L0Version`] (one
    /// refcount bump) with the partition lock dropped: PM tables are
    /// never mutated after publication, and the `Arc`s keep them
    /// readable even if a concurrent compaction frees their pool space.
    /// A PM hit returns without the lock; a miss takes it again for the
    /// SSD levels, whose tables a concurrent major compaction *can*
    /// delete. Matrix rows and SSD level-0 tables are searched under the
    /// lock the memtable probe took.
    ///
    /// The key is hashed for filters at most once: every level takes the
    /// one [`Probe`], whose pair the first sketch or filter fills.
    fn probe(
        &self,
        pid: usize,
        user_key: &[u8],
        snapshot: SequenceNumber,
        tl: &mut Timeline,
        stages: &mut StageTimes,
    ) -> Result<(Option<Lookup>, ReadSource, Option<usize>), DbError> {
        let guard = self.partitions[pid].read();
        guard.counters.reads.incr();
        let mem = |tl: &mut Timeline| guard.mem.get(user_key, snapshot, tl);
        if let Some(hit) = stages.time(SpanKind::MemtableProbe, tl, mem) {
            return Ok((Some(hit), ReadSource::MemTable, None));
        }
        let probe = Probe::new(user_key, snapshot, &self.group_cache);
        let guard = match &guard.level0 {
            Level0::Pm(l0) => {
                let version = l0.version();
                drop(guard);
                let mut stats = ProbeStats::default();
                let hit = version.get(&probe, tl, &mut stats, stages);
                self.note_probe_stats(&stats);
                if hit.is_some() {
                    return Ok((hit, ReadSource::Pm, None));
                }
                self.partitions[pid].read()
            }
            Level0::Matrix(m) => {
                let rows = |tl: &mut Timeline| m.get(user_key, snapshot, tl);
                if let Some(hit) = stages.time(SpanKind::PmDecodeMiss, tl, rows) {
                    return Ok((Some(hit), ReadSource::Pm, None));
                }
                guard
            }
            Level0::Ssd(tables) => {
                // The tables overlap: newest first. An unreadable one
                // fails the read — an older version may hide behind it.
                for handle in tables.iter().rev().filter(|h| h.overlaps_key(user_key)) {
                    if let Some(hit) = handle.get(&probe, tl, stages)? {
                        return Ok((Some(hit), ReadSource::Ssd, Some(0)));
                    }
                }
                guard
            }
        };
        let below = guard.levels.get(&probe, tl, stages)?;
        Ok(match below {
            Some((hit, level)) => (Some(hit), ReadSource::Ssd, Some(level)),
            None => (None, ReadSource::Miss, None),
        })
    }

    /// Fold one PM-L0 probe's sketch/filter/probe outcome into the
    /// global counters and the tables-probed-per-get distribution.
    fn note_probe_stats(&self, probe: &ProbeStats) {
        self.metrics
            .pm_tables_probed
            .record_nanos(probe.tables_probed);
        if probe.filter_checked > 0 {
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
            // The cursor steps' stages, then the merge CPU.
            let mut st = StageTrace::new(ctx, TraceOp::Scan, first_pid, start_nanos);
            let at = st.lay_out(&stats.stages);
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
