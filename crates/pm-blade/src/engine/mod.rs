//! The engine facade.
//!
//! [`Db`] is a shared-handle engine over virtual time: clone it into an
//! `Arc` and call every public operation through `&self` from any
//! number of threads. Partition state lives behind per-partition
//! `RwLock`s; reads take the lock in shared mode (and drop it entirely
//! while searching the immutable PM level-0), writes coalesce through a
//! per-partition group-commit queue (see [`crate::commit`]) so
//! concurrent writers cost one WAL append and one memtable apply per
//! group. Every operation returns the virtual latency it cost, and a
//! logical clock advances by each operation's duration so the cost
//! models can compute access *rates*.
//!
//! Maintenance (flushes, compactions) runs in one of two places,
//! selected by [`MaintenanceMode`](crate::options::MaintenanceMode):
//!
//! - **Inline** (default): the work executes at the Algorithm-1 trigger
//!   point, on the triggering thread, and the triggering commit group is
//!   charged its virtual time — deterministic, single-threaded-friendly.
//! - **Background**: trigger points enqueue jobs on the
//!   [`crate::maintenance`] queue and a worker pool owned by [`Db`]
//!   executes them; writers are throttled by slowdown/stall
//!   backpressure instead of paying compaction latency directly.
//!
//! # Files
//!
//! One file per lifecycle stage, all child modules of this one (so
//! [`DbCore`]'s fields stay private to the engine): `types` (requests,
//! results, errors), `wal_ring`, `recovery` (open + manifest appends),
//! `write` (group commit, backpressure), `read` (gets and scans),
//! `maintain` (flush, Algorithm 1, compactions); this file holds the
//! handle, the state and the accessors.
//!
//! # Lock hierarchy
//!
//! `commit mutex (per partition)` → `WAL mutex` → `partition RwLock`
//! → `compaction-log mutex`. A thread never acquires a lock to the
//! left of one it already holds, never holds two partition locks at
//! once, and releases the WAL mutex before touching a partition.
//! Maintenance workers enter at the WAL mutex (flush sync) or the
//! partition lock — never the commit mutex — so they order the same
//! way as a foreground thread that has already committed.
//!
//! The manifest mutex sits outside this chain: it is only ever taken
//! with no WAL-ring or partition lock held (version snapshots are
//! captured under the partition lock, the lock dropped, then the edit
//! appended), so it cannot participate in a cycle.
//!
//! Two more kinds of lock sit off this chain, as its leaves: no lock
//! of the chain is taken while one of them is held. The shard mutexes
//! of the block cache and the PM group cache are innermost: a read
//! takes them under a partition read lock (a PM level-0 get under none,
//! once it has taken its version), maintenance purges with no
//! partition lock held, and a thread holding one acquires no other
//! lock. The cache tuner's `seen` mutex comes just before them:
//! `tune_caches` takes it at the end of a read, with no other lock
//! held, and holds it while each `set_capacity` takes every shard mutex
//! of its cache in turn.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use pm_device::PmPool;
use sim::{SimDuration, SimInstant};
use ssd_device::SsdDevice;
use sstable::BlockCache;

use crate::commit::Committer;
use crate::costmodel::CodecCostTable;
use crate::groupcache::PmGroupCache;
use crate::maintenance::{MaintenanceShared, MAINTENANCE_WORKERS};
use crate::manifest::Manifest;
use crate::options::Options;
use crate::partition::{Media, Partition};
use crate::stats::EngineMetrics;
use crate::telemetry::{
    chrome_trace_json, EventRing, MetricKey, MetricsRegistry, MetricsSnapshot, RequestTrace,
    TraceContext, TraceSpan, Tracer,
};

mod maintain;
mod read;
mod recovery;
mod types;
mod wal_ring;
mod write;

use read::CacheTuner;
pub use types::{CompactionRequest, DbError, ReadOutcome, ScanRequest, ScanResult, WriteAmp};
use wal_ring::WalRing;

/// The PM-Blade storage engine.
///
/// `Db` is `Send + Sync`; share it as `Arc<Db>` across threads. Reads
/// (`get`, `scan`) take per-partition read locks — with a
/// lock-free fast path over the immutable PM level-0 — and writes
/// (`put`, `delete`, `write_batch`) go through per-partition group
/// commit.
///
/// `Db` is a thin owner around [`DbCore`] (every engine operation is
/// reachable through `Deref`): it additionally owns the background
/// maintenance workers in `MaintenanceMode::Background` and drains
/// them on [`Db::close`] / drop. The workers themselves hold
/// `Arc<DbCore>`, so dropping the `Db` handle never races a job that is
/// still running.
pub struct Db {
    core: Arc<DbCore>,
    /// Worker threads servicing the maintenance queue (empty in Inline
    /// mode). Taken (not just joined) by `close` so it is idempotent.
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::ops::Deref for Db {
    type Target = DbCore;

    fn deref(&self) -> &DbCore {
        &self.core
    }
}

impl Db {
    /// Open an engine with the given options.
    ///
    /// An inconsistent configuration (a zero memtable, τ_t above τ_m, τ_m
    /// above the PM capacity, …) is rejected with [`DbError::Config`]
    /// before anything is touched. In `MaintenanceMode::Background`
    /// this also spawns the two maintenance worker threads.
    pub fn open(opts: Options) -> Result<Db, DbError> {
        let db = Db {
            core: Arc::new(DbCore::open(opts)?),
            workers: Mutex::new(Vec::new()),
        };
        if let Some(m) = &db.core.maintenance {
            for i in 0..MAINTENANCE_WORKERS {
                let (core, queue) = (Arc::clone(&db.core), Arc::clone(m));
                let worker = std::thread::Builder::new()
                    .name(format!("pmblade-maint-{i}"))
                    .spawn(move || queue.work(|job| core.run(job, true).is_ok()))
                    // Dropping `db` drains the queue and joins the
                    // workers already running.
                    .map_err(|e| DbError::Io(format!("spawn maintenance worker: {e}")))?;
                db.workers.lock().push(worker);
            }
        }
        Ok(db)
    }

    /// Drain the maintenance queue and join the worker pool: blocks
    /// until every queued job (including jobs that running jobs
    /// enqueue) has finished, then stops the workers. Idempotent, and
    /// also run by `Drop`. The engine stays usable afterwards —
    /// triggered maintenance falls back to inline execution, as in
    /// `MaintenanceMode::Inline`. A worker that panicked outside a job
    /// counts as one more failed job.
    pub fn close(&self) {
        let Some(m) = &self.core.maintenance else {
            return;
        };
        m.drain();
        let workers: Vec<_> = std::mem::take(&mut *self.workers.lock());
        for handle in workers {
            if handle.join().is_err() {
                m.metrics.failed.incr();
            }
        }
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        self.close();
    }
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.core.fmt(f)
    }
}

/// The engine proper: every state field and every operation. Shared
/// between the public [`Db`] handle and the maintenance workers.
pub struct DbCore {
    opts: Options,
    partitions: Vec<RwLock<Partition>>,
    committers: Vec<Committer>,
    pool: Arc<PmPool>,
    device: Arc<SsdDevice>,
    cache: Arc<BlockCache>,
    /// Next-sequence allocator (`fetch_add` hands out disjoint ranges).
    seq: AtomicU64,
    /// Virtual clock as nanoseconds since `SimInstant::ORIGIN`.
    clock: AtomicU64,
    table_counter: AtomicU64,
    /// Every metric handle the engine updates, resolved once at open.
    metrics: EngineMetrics,
    wal: Option<Mutex<WalRing>>,
    /// The durable table-lifecycle log; `Some` iff `opts.wal_dir` is
    /// set. Locked only while no partition or WAL-ring lock is held.
    manifest: Option<Mutex<Manifest>>,
    /// Metrics registry; every engine counter/gauge/histogram lives (or
    /// is mirrored) here so one `metrics_snapshot()` sees everything.
    /// The engine's own series are reached through `metrics`.
    registry: MetricsRegistry,
    /// Capped span ring backing `compaction_log()` / snapshot spans.
    ring: EventRing,
    /// Monotonic span-id allocator (ids order span *completion*).
    span_ids: AtomicU64,
    /// Shared decoded-prefix-group cache for the PM level-0 read path.
    /// Opens at [`Options::pm_group_cache_bytes`] (0 disables it).
    group_cache: Arc<PmGroupCache>,
    /// Splits one DRAM budget between `cache` and `group_cache`; `None`
    /// when either opened disabled or below the tuner's floor.
    tuner: Option<CacheTuner>,
    /// Measured per-codec decode cost and density, calibrated at open:
    /// what Auto codec selection and the Eq 1/Eq 2 decode terms price.
    codec_costs: CodecCostTable,
    /// The background job queue; `Some` iff
    /// `opts.maintenance == MaintenanceMode::Background`.
    maintenance: Option<Arc<MaintenanceShared>>,
    /// Request tracer: sampling decisions plus the flight recorder.
    /// Observes the virtual clock, never charges it.
    tracer: Tracer,
}

impl DbCore {
    // ---------------------------------------------------------------
    // Accessors
    // ---------------------------------------------------------------

    pub fn options(&self) -> &Options {
        &self.opts
    }

    pub fn stats(&self) -> &EngineMetrics {
        &self.metrics
    }

    pub fn ssd(&self) -> &Arc<SsdDevice> {
        &self.device
    }

    /// A point-in-time copy of the span ring: one [`TraceSpan`] per
    /// flush, internal and major compaction that did work (`kind` is
    /// `SpanKind::Flush`, `Internal` or `Major`), oldest first. The
    /// ring is capped at
    /// [`crate::options::Options::event_log_capacity`] spans; when it
    /// overflows, the *oldest* are evicted (see
    /// [`MetricsSnapshot::spans_dropped`] for the count), so this log is
    /// a recent-history window, not a complete record.
    pub fn compaction_log(&self) -> Vec<TraceSpan> {
        self.ring.snapshot()
    }

    /// The engine's metrics registry (for custom instrumentation and
    /// ad-hoc queries; most callers want [`DbCore::metrics_snapshot`]).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// A consistent-enough point-in-time view of every engine metric:
    /// counters, gauges (refreshed on the spot), latency histograms, and
    /// the recent compaction/flush spans. Counters are sampled without a
    /// global pause, so values may skew by in-flight operations, but
    /// each counter is individually monotonic across snapshots.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        // Refresh point-in-time gauges before collecting.
        let m = &self.metrics;
        m.pm_used_bytes.set(self.pool.used() as i64);
        m.block_cache_used_bytes.set(self.cache.used() as i64);
        m.pm_group_cache_used_bytes
            .set(self.group_cache.used() as i64);
        let (block, group) = self.cache_split();
        m.block_cache_capacity_bytes.set(block as i64);
        m.pm_group_cache_capacity_bytes.set(group as i64);
        let (mut sketch_bytes, mut column_bytes, mut index_bytes) = (0, 0, 0);
        let mut level0_bytes = 0;
        for (lock, m) in self.partitions.iter().zip(&m.partitions) {
            let p = lock.read();
            if let Some(l0) = p.level0.pm() {
                sketch_bytes += l0.sketch_bytes() as i64;
                column_bytes += l0.key_column_bytes() as i64;
                index_bytes += l0.index_bytes() as i64;
            }
            let pm_l0_bytes = p.level0.bytes() as i64;
            level0_bytes += pm_l0_bytes;
            m.memtable_bytes.set(p.mem.approximate_size() as i64);
            m.pm_l0_bytes.set(pm_l0_bytes);
            m.l0_unsorted_tables.set(p.level0.unsorted_count() as i64);
            m.ssd_level_bytes.set(p.levels.total_bytes() as i64);
        }
        m.pm_l0_sketch_bytes.set(sketch_bytes);
        m.pm_l0_key_column_bytes.set(column_bytes);
        m.pm_l0_index_bytes.set(index_bytes);
        m.pm_pool_unreferenced_bytes
            .set(self.pool.used() as i64 - level0_bytes);
        let (mut counters, gauges, histograms) = self.registry.collect();
        // Device counters live in their own crates; mirror them into
        // the snapshot (they are monotonic, so deltas work).
        let (pm, ssd) = (self.pool.stats(), self.device.stats());
        for (name, counter) in [
            ("pm_bytes_written", &pm.bytes_written),
            ("pm_bytes_read", &pm.bytes_read),
            ("ssd_bytes_written", &ssd.bytes_written),
            ("ssd_bytes_read", &ssd.bytes_read),
        ] {
            counters.insert(MetricKey::global(name), counter.get());
        }
        MetricsSnapshot::from_parts(
            self.clock.load(Ordering::Relaxed),
            counters,
            gauges,
            histograms,
            self.ring.snapshot(),
            self.ring.dropped(),
        )
    }

    /// The request tracer (sampling state + flight recorder).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The context a request runs under: the engine's own sampling
    /// decision when the caller brought none, else the caller's.
    fn trace_for(&self, wire: Option<TraceContext>) -> Option<TraceContext> {
        match wire {
            Some(ctx) => Some(self.tracer.adopt(ctx)),
            None => self.tracer.sample(),
        }
    }

    /// Snapshot of the flight recorder: the most recent sampled request
    /// traces, oldest first.
    pub fn flight_recorder(&self) -> Vec<RequestTrace> {
        self.tracer.recorder().snapshot()
    }

    /// The flight recorder rendered as Chrome trace-event JSON (open in
    /// `chrome://tracing` or Perfetto).
    pub fn chrome_trace(&self) -> String {
        chrome_trace_json(&self.flight_recorder())
    }

    /// Live maintenance-queue state as `(queue_depth, jobs_inflight)`;
    /// `(0, 0)` in Inline mode, where triggered maintenance runs on the
    /// triggering thread.
    pub fn maintenance_status(&self) -> (usize, usize) {
        match &self.maintenance {
            Some(m) => (m.queue_depth(), m.inflight()),
            None => (0, 0),
        }
    }

    /// Current logical clock.
    pub fn now(&self) -> SimInstant {
        SimInstant::ORIGIN + SimDuration::from_nanos(self.clock.load(Ordering::Relaxed))
    }

    /// The current split of the one DRAM cache budget, in bytes:
    /// `(block cache, group cache)`.
    pub fn cache_split(&self) -> (usize, usize) {
        (self.cache.capacity(), self.group_cache.capacity())
    }

    /// Total PM bytes in use.
    pub fn pm_used(&self) -> usize {
        self.pool.used()
    }

    /// Per-codec count of live PM level-0 tables across every partition
    /// (encoding v2 observability; indexes follow
    /// [`pmtable::CODEC_NAMES`]).
    pub fn l0_codec_histogram(&self) -> [u64; pmtable::CODEC_COUNT] {
        let mut hist = [0u64; pmtable::CODEC_COUNT];
        for partition in &self.partitions {
            let p = partition.read();
            if let Some(l0) = p.level0.pm() {
                for h in l0.tables() {
                    hist[h.table.dominant_codec() as usize] += 1;
                }
            }
        }
        hist
    }

    /// Write amplification to date.
    pub fn write_amp(&self) -> WriteAmp {
        WriteAmp {
            pm_bytes: self.pool.stats().bytes_written.get(),
            ssd_bytes: self.device.stats().bytes_written.get(),
            user_bytes: self.metrics.user_bytes_written.get(),
        }
    }

    /// What a compaction is handed, borrowed from the engine.
    fn media(&self) -> Media<'_> {
        Media {
            opts: &self.opts,
            codec_costs: &self.codec_costs,
            pool: &self.pool,
            device: &self.device,
            cache: &self.cache,
            table_counter: &self.table_counter,
            input_errors: &self.metrics.compaction_input_errors,
            retire_errors: &self.metrics.media_retire_errors,
        }
    }

    fn advance(&self, d: SimDuration) {
        self.clock.fetch_add(d.as_nanos(), Ordering::Relaxed);
    }

    fn next_span_id(&self) -> u64 {
        self.span_ids.fetch_add(1, Ordering::Relaxed) + 1
    }
}

impl std::fmt::Debug for DbCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("mode", &self.opts.mode)
            .field("maintenance", &self.opts.maintenance)
            .field("partitions", &self.partitions.len())
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .field("pm_used", &self.pool.used())
            .finish()
    }
}

#[cfg(test)]
mod tests;
