//! The read path: point reads and range scans.
//!
//! A get is one walk in every mode — memtable, level-0, SSD levels,
//! newest first, stopping at the first hit — and only its level-0 step
//! differs by mode. It takes the partition read lock, and drops it
//! while it searches a published PM level-0. A scan merges cursors over
//! every tier under the lock. Both count their virtual time per stage
//! in a [`StageTimes`], which a traced request lays out as its stages.
//!
//! Reads also split the DRAM the two caches share ([`CacheTuner`]):
//! every [`TUNE_EVERY`]-th get or scan moves a step of the budget toward
//! the cache whose ghost list would have served more bytes.

use std::cmp::Ordering as Cmp;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use encoding::key::SequenceNumber;
use parking_lot::Mutex;
use pmtable::Lookup;
use sim::Timeline;

use super::{DbCore, DbError, ReadOutcome, ScanRequest, ScanResult};
use crate::cursor::{MergingIter, ScanStats};
use crate::level0::{PmLevel0, Probe, ProbeStats};
use crate::stats::ReadSource;
use crate::telemetry::{CostDecision, RequestTrace, SpanKind, StageTimes, TraceContext, TraceOp};

/// The most rows a scan reserves room for up front: a scan with a
/// larger limit, or none, grows its result past this as rows arrive.
const SCAN_RESERVE_ROWS: usize = 256;

/// Engine reads (gets and scans) in one period of the cache tuner.
pub(super) const TUNE_EVERY: u64 = 1024;

/// The split of one DRAM budget, the block cache's and the group
/// cache's bytes at open, between the two.
///
/// Each period, the cache whose ghost list counted more charged bytes
/// of missed keys gains `total / 32` from the other, which keeps at
/// least `total / 16`; a tie, zero included, moves nothing. Bytes, not
/// the virtual time each hit would have saved: an SSD read saves more
/// than a group decode, so time weighting drains the group cache on
/// every workload, and scans, which read whole groups, lose most (see
/// DESIGN.md "Caches").
pub(super) struct CacheTuner {
    total: usize,
    /// Each cache's ghost-hit bytes, block then group, when the last
    /// period ended.
    seen: Mutex<[u64; 2]>,
}

impl CacheTuner {
    /// The tuner of caches that open at `block` and `group` bytes, or
    /// `None` when either opens disabled or below the floor: such a
    /// split was asked for, and is kept.
    pub(super) fn new(block: usize, group: usize) -> Option<CacheTuner> {
        let total = block + group;
        let floor = total / 16;
        (block.min(group) >= floor.max(1) && total >= 32).then(|| CacheTuner {
            total,
            seen: Mutex::new([0; 2]),
        })
    }

    /// The ghost bytes each cache keeps.
    pub(super) fn ghost_bytes(&self) -> usize {
        self.total / 8
    }
}

impl DbCore {
    /// Point read of the newest version of `user_key`.
    pub fn get(&self, user_key: &[u8]) -> Result<ReadOutcome, DbError> {
        self.get_with(user_key, None)
    }

    /// The read path proper: a point read of the newest version with
    /// the trace context stated, as [`DbCore::put_with`] takes it.
    ///
    /// Every get takes one walk, `probe`'s: memtable, level-0, SSD
    /// levels. Its steps count their virtual time per stage in one
    /// [`StageTimes`], which a traced get lays out as its stages — every
    /// nanosecond of the latency, in every mode. Counting only observes
    /// the timeline, so tracing moves no virtual number.
    pub fn get_with(
        &self,
        user_key: &[u8],
        trace: Option<TraceContext>,
    ) -> Result<ReadOutcome, DbError> {
        let trace = self.trace_for(trace);
        let mut tl = Timeline::new();
        let pid = self.opts.partitioner.locate(user_key);
        let start_nanos = self.clock.load(Ordering::Relaxed);
        let mut stages = StageTimes::default();
        let probed = self.probe(pid, user_key, &mut tl, &mut stages);
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
            let total = latency.as_nanos();
            let trace = RequestTrace::new(ctx, TraceOp::Get, pid, start_nanos, &stages, total);
            self.tracer.finish(trace);
        }
        self.tune_caches();
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
    /// The key is hashed for filters once: every level takes the one
    /// [`Probe`], whose pair the memtable's key filter fills. A key that
    /// filter rules out skips the skiplist descent; the memtable stage
    /// counts it as its output.
    fn probe(
        &self,
        pid: usize,
        user_key: &[u8],
        tl: &mut Timeline,
        stages: &mut StageTimes,
    ) -> Result<(Option<Lookup>, ReadSource, Option<usize>), DbError> {
        let guard = self.partitions[pid].read();
        guard.counters.reads.incr();
        let probe = Probe::new(user_key, &self.group_cache);
        let before = tl.elapsed().as_nanos();
        let mem = guard
            .mem
            .get_hashed(user_key, probe.hashes(), SequenceNumber::MAX, tl);
        let ruled_out = mem.is_none();
        self.metrics.memtable_filter_checked.incr();
        if ruled_out {
            self.metrics.memtable_filter_skipped.incr();
        }
        let nanos = tl.elapsed().as_nanos() - before;
        stages.add(SpanKind::MemtableProbe, nanos, 1, u64::from(ruled_out));
        if let Some(Some(hit)) = mem {
            return Ok((Some(hit), ReadSource::MemTable, None));
        }
        let mut stats = ProbeStats::default();
        let guard = match guard.level0.pm().map(PmLevel0::version) {
            Some(version) => {
                drop(guard);
                let hit = version.get(&probe, tl, &mut stats, stages);
                self.note_probe_stats(&stats);
                if hit.is_some() {
                    return Ok((hit, ReadSource::Pm, None));
                }
                self.partitions[pid].read()
            }
            None => {
                if let Some((hit, source, level)) =
                    guard.level0.get(&probe, tl, &mut stats, stages)?
                {
                    return Ok((Some(hit), source, level));
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
        let m = &self.metrics;
        m.pm_tables_probed.record_nanos(probe.tables_probed);
        if probe.filter_checked > 0 {
            m.pm_sketch_probes.add(probe.sketch_probes);
            m.pm_filter_checked.add(probe.filter_checked);
            m.pm_filter_useful.add(probe.filter_useful);
            m.pm_filter_miss.add(probe.filter_false_positives);
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
        let mut out = Vec::with_capacity(request.limit.min(SCAN_RESERVE_ROWS));
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
            let (records, rows, stages) = (stats.records, out.len() as u64, &mut stats.stages);
            let merge = self.opts.cost.cpu.merge_per_entry.as_nanos() * records;
            stages.add(SpanKind::Merge, merge, records, rows);
            let (op, total) = (TraceOp::Scan, latency.as_nanos());
            let trace = RequestTrace::new(ctx, op, first_pid, start_nanos, stages, total);
            self.tracer.finish(trace);
        }
        self.tune_caches();
        Ok((out, latency))
    }

    /// Called by every get and scan once it is counted. The read that
    /// completes a period (brings `gets + scans` to a multiple of
    /// [`TUNE_EVERY`]) compares the two caches' ghost-hit bytes over it
    /// and moves one step of the budget, recording it as a
    /// [`CostDecision::CacheSplit`]. The read counters are loaded, not
    /// bumped: a read pays no atomic write for the tuner.
    fn tune_caches(&self) {
        let Some(tuner) = &self.tuner else { return };
        if !(self.metrics.gets.get() + self.metrics.scans.get()).is_multiple_of(TUNE_EVERY) {
            return;
        }
        // Read under the lock: a later period's step, on another thread,
        // must not store counts newer than these first.
        let mut seen = tuner.seen.lock();
        let hits = [
            self.cache.ghost_hit_bytes.get(),
            self.group_cache.ghost_hit_bytes.get(),
        ];
        let period = [hits[0] - seen[0], hits[1] - seen[1]];
        *seen = hits;
        let (total, was) = (tuner.total, self.cache.capacity());
        let (floor, step) = (total / 16, total / 32);
        let block = match period[0].cmp(&period[1]) {
            Cmp::Greater => (was + step).min(total - floor),
            Cmp::Less => was.saturating_sub(step).max(floor),
            Cmp::Equal => was,
        };
        if block == was {
            return;
        }
        // Shrink first: the shrinking cache sheds to its new share
        // before the other grows, so the two never hold more than `total`.
        if block < was {
            self.cache.set_capacity(block);
            self.group_cache.set_capacity(total - block);
        } else {
            self.group_cache.set_capacity(total - block);
            self.cache.set_capacity(block);
        }
        debug_assert!(self.cache.used() + self.group_cache.used() <= total);
        self.note_cost_decision(&CostDecision::CacheSplit);
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
