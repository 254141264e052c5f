//! Compaction driving (Algorithm 1): flush, the cost-based strategy,
//! internal and major compaction, retention. Enters at the WAL mutex
//! (flush sync) or a partition lock, one partition at a time, and
//! appends to the manifest only after dropping it.

use std::sync::atomic::Ordering;

use pm_device::PmError;
use sim::{SimDuration, Timeline};

use super::{CompactionRequest, DbCore, DbError};
use crate::costmodel::{
    explain_read_benefit, explain_write_benefit, select_retained, RetentionCandidate,
};
use crate::handle::PmTableHandle;
use crate::maintenance::{self, Job};
use crate::options::Mode;
use crate::partition::{CompactionReport, Partition};
use crate::telemetry::{CostDecision, MetricKey, SpanKind, TraceSpan};

/// What a compaction run through the maintenance frame hands back: its
/// report, or `None` when there was nothing to do.
type Compacted = Result<Option<CompactionReport>, DbError>;

impl DbCore {
    /// Record a cost-model verdict: bump its trigger counter if it fired.
    pub(super) fn note_cost_decision(&self, decision: &CostDecision) {
        if !decision.triggered() {
            return;
        }
        let m = &self.metrics;
        let counter = match decision {
            CostDecision::ReadBenefit { .. } => &m.cost_eq1_triggers,
            CostDecision::WriteBenefit { .. } => &m.cost_eq2_triggers,
            CostDecision::HardCap { .. } => &m.cost_hard_cap_triggers,
            CostDecision::Retention { .. } => &m.cost_retention_passes,
            CostDecision::CacheSplit => &m.cost_cache_split_steps,
            CostDecision::CodecChoice { codec, .. } => {
                let chosen = pmtable::CODEC_NAMES.iter().position(|c| c == codec);
                if let Some(chosen) = chosen {
                    m.codec_chosen[chosen].incr();
                }
                &m.cost_codec_choices
            }
        };
        counter.incr();
    }

    /// Queue `job` for the background workers. Returns `false` when
    /// the engine runs Inline or the queue has shut down.
    pub(super) fn offload(&self, job: &Job) -> bool {
        self.maintenance.as_ref().is_some_and(|m| m.enqueue(job))
    }

    /// A trigger site's one call: queue `job` in Background mode, else
    /// run it here. Returns whether it ran on the calling thread.
    pub(super) fn trigger(&self, job: Job) -> Result<bool, DbError> {
        if self.offload(&job) {
            return Ok(false);
        }
        self.run(&job, false)?;
        Ok(true)
    }

    /// The engine's one dispatcher: run `job` on this thread. A major
    /// on a maintenance worker (`on_worker`) moves level-0 in the §V-C
    /// chunks, retention's evictions included; everywhere else a major
    /// is one install.
    pub(crate) fn run(&self, job: &Job, on_worker: bool) -> Result<(), DbError> {
        let origin = job.origin_trace;
        let major = |pid| {
            if on_worker {
                self.do_major_chunked(pid, origin)
            } else {
                self.do_major_limited(pid, usize::MAX, origin)
            }
        };
        match job.request {
            CompactionRequest::Flush { partition } => self.do_flush(partition, origin),
            CompactionRequest::FlushAll => {
                (0..self.partitions.len()).try_for_each(|pid| self.do_flush(pid, origin))
            }
            CompactionRequest::Internal { partition } => {
                self.do_internal(partition, job.cost.clone(), origin)
            }
            CompactionRequest::Major { partition } => major(partition),
            CompactionRequest::MajorWithRetention => self.do_retention(major),
        }
    }

    // ---------------------------------------------------------------
    // Compaction driving (Algorithm 1)
    // ---------------------------------------------------------------

    /// Run a compaction now, on the calling thread. This is the single
    /// entry point for every manually-triggered compaction; the engine's
    /// automatic triggers go through the same dispatcher.
    pub fn compact(&self, request: CompactionRequest) -> Result<(), DbError> {
        if let CompactionRequest::Flush { partition }
        | CompactionRequest::Internal { partition }
        | CompactionRequest::Major { partition } = request
        {
            if partition >= self.partitions.len() {
                return Err(DbError::Config(format!(
                    "partition {partition} out of range ({} partitions)",
                    self.partitions.len()
                )));
            }
        }
        self.run(&Job::new(request, 0), false)
    }

    /// The maintenance frame: the steps a flush, an internal and a major
    /// compaction share, in the one order that is crash-safe — device-
    /// counter sample, partition write lock, `compact`, version
    /// snapshot, manifest append, free / purge / delete, clock advance,
    /// span pushed to the ring. `compact` is the only step that differs
    /// by `kind`; it returns `None` when there was nothing to do.
    ///
    /// Only work that installed leaves a span. An empty or failed
    /// attempt leaves none, and the clock does not advance: an
    /// abandoned attempt costs no virtual time.
    ///
    /// `origin` throughout the maintenance chain is the trace id of the
    /// sampled foreground request that triggered the work (0 = none, or
    /// the trigger was untraced); it lands in each maintenance span's
    /// `trace_id` so a flight-recorder trace can be cross-linked to the
    /// flush/compaction it caused. `cost` is the verdict that triggered
    /// the work, if any.
    fn run_frame(
        &self,
        kind: SpanKind,
        pid: usize,
        cost: Option<CostDecision>,
        origin: u64,
        compact: impl FnOnce(&mut Partition, &mut Timeline) -> Compacted,
    ) -> Compacted {
        let mut tl = Timeline::new();
        let start_nanos = self.clock.load(Ordering::Relaxed);
        // Device counters are global: a compaction racing on another
        // partition skews this span's work attribution but never the
        // cumulative totals.
        let (pm, ssd) = (self.pool.stats(), self.device.stats());
        let pm_read_before = pm.bytes_read.get();
        let pm_written_before = pm.bytes_written.get();
        let ssd_read_before = ssd.bytes_read.get();
        let ssd_written_before = ssd.bytes_written.get();
        let outcome = (|| {
            let (report, version) = {
                let mut p = self.partitions[pid].write();
                let Some(report) = compact(&mut p, &mut tl)? else {
                    return Ok(None);
                };
                if kind != SpanKind::Flush {
                    // The level-0 the cost models watched is gone: Eq 1
                    // and Eq 2 start a new window.
                    p.counters.reset(self.now());
                }
                (report, self.partition_version(&p))
            };
            // Manifest first, then free and delete: the new tables are
            // already visible to readers, and a crash between the
            // in-memory install and the append leaves the old media as
            // orphans for recovery GC, never a version that references
            // freed media. A flush also moves the WAL checkpoint past
            // the records it made durable. Releasing after the lock is
            // dropped is safe: the install removed every handle to the
            // replaced tables, so no reader can reach them.
            self.log_version(version, report.durable_seq.map(|seq| (pid, seq)))?;
            // A file that could not be unlinked stays on disk, outside
            // the accounting, which drops either way: count it.
            let media = self.media();
            for name in &report.deleted_tables {
                media.discard_table(name);
                self.cache.purge_table(sstable::cache::table_id(name));
            }
            // A retired region can never serve a read again (the pool
            // never reuses an id); purging just reclaims cache space,
            // and finds nothing of a matrix row.
            for &region in &report.retired {
                if self.pool.free(region).is_err() {
                    media.retire_errors.incr();
                }
                self.group_cache.purge_table(region);
            }
            Ok(Some(report))
        })();
        if let Ok(Some(report)) = &outcome {
            let d = tl.elapsed();
            self.advance(d);
            let records = (report.records_in as u64, report.records_out as u64);
            let pm_read = pm.bytes_read.get() - pm_read_before;
            let pm_written = pm.bytes_written.get() - pm_written_before;
            let ssd_read = ssd.bytes_read.get() - ssd_read_before;
            let ssd_written = ssd.bytes_written.get() - ssd_written_before;
            let bytes = match kind {
                SpanKind::Flush => (report.raw_bytes as u64, pm_written + ssd_written),
                SpanKind::Internal => (pm_read, pm_written),
                _ => (pm_read + ssd_read, ssd_written),
            };
            let cost = match &report.decision {
                Some(decision) => {
                    self.note_cost_decision(decision);
                    Some(decision.clone())
                }
                None => cost,
            };
            // Rare enough to resolve its series by name.
            if let Some((level, bytes)) = report.ssd_written {
                let key = MetricKey::level("ssd_level_bytes_written", pid, level);
                self.registry.counter(key).add(bytes);
            }
            let id = self.next_span_id();
            let span = TraceSpan::new(
                id,
                origin,
                kind,
                pid,
                start_nanos,
                d.as_nanos(),
                records,
                bytes,
                cost,
            );
            let level = report.ssd_written.map(|(level, _)| level);
            self.ring.push(TraceSpan { level, ..span });
        }
        outcome
    }

    /// Minor compaction of one partition, then Algorithm 1 on what it
    /// left behind.
    pub(super) fn do_flush(&self, pid: usize, origin: u64) -> Result<(), DbError> {
        // Sync the WAL before the frame begins: its mutex orders before
        // the partition lock the frame takes. The flush is charged its
        // cost.
        let mut synced = SimDuration::ZERO;
        if let Some(wal) = &self.wal {
            let mut sync_tl = Timeline::new();
            wal.lock().active.sync(&mut sync_tl)?;
            self.metrics.wal_syncs.incr();
            self.metrics.wal_sync_latency.record(sync_tl.elapsed());
            synced = sync_tl.elapsed();
        }
        let flushed = self.run_frame(SpanKind::Flush, pid, None, origin, |p, tl| {
            tl.charge(synced);
            p.minor_compaction(&self.media(), tl)
        })?;
        if flushed.is_some() {
            self.metrics.minor_compactions.incr();
            self.apply_strategy(pid, origin)?;
        }
        Ok(())
    }

    /// Algorithm 1: run after a PM table lands in partition `pid`. The
    /// trigger state is sampled under a read lock and the lock dropped
    /// before acting; the compaction paths re-check what is actually
    /// there, so a racing compaction at worst makes one of them a no-op.
    fn apply_strategy(&self, pid: usize, origin: u64) -> Result<(), DbError> {
        let major = |partition| Job::new(CompactionRequest::Major { partition }, origin);
        match self.opts.mode {
            Mode::PmBlade => {
                let now = self.now();
                let (d_eq1, d_eq2, d_hard, unsorted) = {
                    let partition = self.partitions[pid].read();
                    let unsorted = partition.level0.unsorted_count();
                    // Per-codec decode CPU (encoding v2): a probe of a
                    // delta/fixed table pays that codec's measured group
                    // decode on top of the PM read, and an internal pass
                    // re-decodes every record it rewrites. Entries-
                    // weighted over the live level-0 so Eq 1/2 price the
                    // actual mix (zero with an uncalibrated cost table).
                    let mix = |h: &PmTableHandle| (h.table.dominant_codec(), h.table.entry_count());
                    let (probe_decode, decode_per_record) = match partition.level0.pm() {
                        Some(l0) => (
                            self.codec_costs.probe_decode(l0.unsorted().iter().map(mix)),
                            self.codec_costs.decode_per_record(l0.tables().map(mix)),
                        ),
                        None => (SimDuration::ZERO, SimDuration::ZERO),
                    };
                    // Line 1-3: Eq 1 — read-amplification relief.
                    // Bloom-pruned probes cost ~nothing, so the benefit
                    // is discounted by the observed prune ratio.
                    let d_eq1 = explain_read_benefit(
                        pid,
                        &partition.counters,
                        unsorted,
                        now,
                        self.filter_prune_ratio(),
                        probe_decode,
                    );
                    // Line 4-6: Eq 2 — write-amplification relief, gated
                    // on the partition exceeding τ_w.
                    let d_eq2 = explain_write_benefit(
                        pid,
                        &partition.counters,
                        partition.level0.entries(),
                        partition.level0.bytes() >= self.opts.tau_w,
                        decode_per_record,
                    );
                    let d_hard = CostDecision::HardCap {
                        partition: pid,
                        unsorted,
                        cap: self.opts.l0_unsorted_hard_cap,
                        triggered: unsorted >= self.opts.l0_unsorted_hard_cap,
                    };
                    (d_eq1, d_eq2, d_hard, unsorted)
                };
                self.note_cost_decision(&d_eq1);
                self.note_cost_decision(&d_eq2);
                self.note_cost_decision(&d_hard);
                let run_internal =
                    (d_eq1.triggered() || d_eq2.triggered() || d_hard.triggered()) && unsorted >= 2;
                if run_internal {
                    // Attribute the compaction to the first rule that
                    // fired (Algorithm 1 evaluates them in this order).
                    let cost = [d_eq1, d_eq2, d_hard].into_iter().find(|d| d.triggered());
                    let internal = CompactionRequest::Internal { partition: pid };
                    self.trigger(Job {
                        cost,
                        ..Job::new(internal, origin)
                    })?;
                }
                // Line 7-9: Eq 3 — major compaction with retention.
                if self.pool.used() >= self.opts.tau_m {
                    self.trigger(Job::new(CompactionRequest::MajorWithRetention, origin))?;
                }
            }
            Mode::PmBladePm => {
                // Conventional strategy (the paper's PMBlade-PM): no
                // internal compaction; when the number of PM tables hits
                // the RocksDB-style count threshold, the whole level-0
                // is compacted to level-1 — leaving the PM capacity
                // underutilized, exactly the behaviour the paper
                // criticises.
                let unsorted = self.partitions[pid].read().level0.unsorted_count();
                if unsorted >= self.opts.l0_table_trigger || self.pool.used() >= self.opts.tau_m {
                    self.trigger(major(pid))?;
                }
            }
            Mode::MatrixKv => {
                // Column compaction drains the container when PM fills;
                // no retention.
                if self.pool.used() >= self.opts.tau_m {
                    for pid in 0..self.partitions.len() {
                        self.trigger(major(pid))?;
                    }
                }
            }
            Mode::SsdLevel0 => {
                let tables = self.partitions[pid].read().level0.unsorted_count();
                if tables >= self.opts.l0_table_trigger {
                    self.trigger(major(pid))?;
                }
            }
        }
        Ok(())
    }

    /// Internal compaction (§IV-B).
    ///
    /// Internal compaction publishes the new sorted run before releasing
    /// the old tables, so it needs PM headroom; when the pool cannot fit
    /// the new run the engine falls back to a major compaction, which
    /// frees the partition's PM space instead.
    fn do_internal(
        &self,
        pid: usize,
        cost: Option<CostDecision>,
        origin: u64,
    ) -> Result<(), DbError> {
        let merged = self.run_frame(SpanKind::Internal, pid, cost, origin, |p, tl| {
            p.internal_compaction(&self.media(), tl)
        });
        match merged {
            Ok(Some(report)) => {
                let m = &self.metrics;
                m.internal_compactions.incr();
                m.internal_space_released.add(report.bytes_released as u64);
                let dropped = report.records_in - report.records_out;
                m.internal_dropped_records.add(dropped as u64);
                Ok(())
            }
            Ok(None) => Ok(()),
            // PM cannot fit the new sorted run. The frame dropped the
            // attempt at no virtual time and left no span; move the
            // level-0 to the SSD instead.
            Err(DbError::Pm(PmError::OutOfSpace { .. })) => {
                self.metrics.internal_out_of_pm_fallbacks.incr();
                self.do_major_limited(pid, usize::MAX, origin)
            }
            Err(e) => Err(e),
        }
    }

    /// The §V-C compaction splitter applied to real work: move the
    /// partition's level-0 in `k = max(⌊q/c⌋, 1)` installs, yielding
    /// the partition lock (and the CPU) between chunks so foreground
    /// operations interleave with a large major compaction. Run only on
    /// a maintenance worker; every other major is one install, which
    /// keeps Inline span counts deterministic.
    fn do_major_chunked(&self, pid: usize, origin: u64) -> Result<(), DbError> {
        let k = maintenance::COMPACTION_CHUNKS;
        let total = self.partitions[pid].read().level0.chunkable_tables();
        if k <= 1 || total == 0 {
            // Nothing to split (or a Matrix/SSD level-0, which drains
            // in one install regardless).
            return self.do_major_limited(pid, usize::MAX, origin);
        }
        let per_chunk = total.div_ceil(k).max(1);
        // Each limited pass moves the *oldest* tables first, so between
        // chunks the remaining level-0 still shadows level-1 for every
        // key it holds. Loop until empty: a concurrent flush may add
        // tables mid-pass, and each pass removes at least one table, so
        // this terminates once the partition quiesces.
        while self.partitions[pid].read().level0.chunkable_tables() > 0 {
            self.do_major_limited(pid, per_chunk, origin)?;
            std::thread::yield_now();
        }
        Ok(())
    }

    /// Major-compact one partition: one install moving at most
    /// `table_limit` level-0 tables into the SSD level they fit (oldest
    /// first; `usize::MAX` moves the whole level-0).
    fn do_major_limited(&self, pid: usize, table_limit: usize, origin: u64) -> Result<(), DbError> {
        self.run_frame(SpanKind::Major, pid, None, origin, |p, tl| {
            p.major_compaction(&self.media(), table_limit, tl).map(Some)
        })?;
        self.metrics.major_compactions.incr();
        Ok(())
    }

    /// Eq 3: keep the hottest partitions in PM, compact the rest, and
    /// keep evicting colder retained partitions until PM is below τ_m.
    /// Partition locks are taken one at a time (candidate sampling,
    /// then each victim's compaction) — never two at once.
    ///
    /// `evict` major-compacts one partition, as the dispatcher chose.
    fn do_retention(&self, evict: impl Fn(usize) -> Result<(), DbError>) -> Result<(), DbError> {
        let candidates: Vec<RetentionCandidate> = self
            .partitions
            .iter()
            .map(|lock| {
                let p = lock.read();
                RetentionCandidate {
                    partition: p.id,
                    reads: p.counters.reads.get(),
                    bytes: p.level0.bytes(),
                }
            })
            .collect();
        let retained = select_retained(&candidates, self.opts.tau_t);
        let victims: Vec<usize> = candidates
            .iter()
            .filter(|c| !retained.contains(&c.partition) && c.bytes > 0)
            .map(|c| c.partition)
            .collect();
        self.note_cost_decision(&CostDecision::Retention {
            pm_used: self.pool.used(),
            budget: self.opts.tau_t,
            retained: retained.clone(),
            victims: victims.clone(),
        });
        for pid in victims {
            evict(pid)?;
        }
        // Safety: if the retained set alone still exceeds τ_m (e.g. a
        // single enormous partition), evict coldest-first until it fits.
        if self.pool.used() >= self.opts.tau_m {
            let mut by_density: Vec<(usize, f64)> = retained
                .into_iter()
                .map(|pid| {
                    let p = self.partitions[pid].read();
                    let density = p.counters.reads.get() as f64 / p.level0.bytes().max(1) as f64;
                    (pid, density)
                })
                .collect();
            by_density.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            for (pid, _) in by_density {
                if self.pool.used() < self.opts.tau_m {
                    break;
                }
                evict(pid)?;
            }
        }
        Ok(())
    }
}
