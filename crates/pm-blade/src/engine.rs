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
//! selected by [`MaintenanceMode`]:
//!
//! - **Inline** (default): the work executes at the Algorithm-1 trigger
//!   point, on the triggering thread, and the triggering commit group is
//!   charged its virtual time — deterministic, single-threaded-friendly.
//! - **Background**: trigger points enqueue jobs on the
//!   [`crate::maintenance`] queue and a worker pool owned by [`Db`]
//!   executes them; writers are throttled by slowdown/stall
//!   backpressure instead of paying compaction latency directly.
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

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use encoding::key::{KeyKind, SequenceNumber};
use memtable::{Wal, WalRecord};
use parking_lot::{Mutex, RwLock};
use pm_device::{PmError, PmPool};
use sim::fault::FaultPlan;
use sim::{CostModel, SimDuration, SimInstant, Timeline};
use ssd_device::{SsdDevice, SsdError};
use sstable::{BlockCache, SsTable};

use sim::Counter;

use crate::commit::{BatchOp, CommitMetrics, Committer, Ticket, WriteBatch};
use crate::compaction::CompactionWork;
use crate::costmodel::{
    explain_read_benefit_coded, explain_write_benefit_coded, select_retained, RetentionCandidate,
};
use crate::cursor::{MergingIter, ScanStats};
use crate::groupcache::PmGroupCache;
use crate::handle::{reopen_pm_table, CacheIds, PmTableHandle, SsTableHandle};
use crate::level0::ProbeStats;
use crate::levels::SsdReadStats;
use crate::maintenance::{self, Job, JobKind, MaintenanceShared, QueueMetrics};
use crate::manifest::{Manifest, ManifestError, PartitionVersion, SsdMeta, VersionEdit};
use crate::options::{MaintenanceMode, Mode, Options};
use crate::partition::{Level0, Partition};
use crate::stats::{EngineStats, LatencyStats, ReadSource};
use crate::telemetry::{
    chrome_trace_json, CostDecision, EventRing, LatencyRecorder, MetricKey, MetricsRegistry,
    MetricsSnapshot, RequestTrace, SpanKind, StageTrace, TraceContext, TraceOp, TraceSpan, Tracer,
};

/// Engine errors.
///
/// Marked `#[non_exhaustive]`: new failure classes may be added without
/// a breaking change, so downstream matches need a wildcard arm.
///
/// Every variant carries a stable numeric code ([`DbError::code`]) so
/// the wire protocol can ship errors across a connection without
/// stringly matching; see DESIGN.md ("Error codes") for the table.
#[derive(Debug)]
#[non_exhaustive]
pub enum DbError {
    Pm(PmError),
    Ssd(SsdError),
    Table(sstable::table::TableError),
    Wal(memtable::WalError),
    Corrupt(String),
    /// Invalid configuration, rejected by [`crate::options::OptionsBuilder::build`].
    Config(String),
    /// A group commit failed; the string carries the leader's error for
    /// every follower in the group.
    Commit(String),
    /// The operation is valid but this build does not implement it
    /// (e.g. a protocol feature ahead of the engine).
    Unsupported(String),
    /// A plain filesystem/device I/O failure (directory creation, thread
    /// spawn, manifest write, ...). Distinct from [`DbError::Corrupt`],
    /// which means durable data failed validation — an I/O error is
    /// usually transient and retryable, corruption never is.
    Io(String),
}

impl DbError {
    /// Stable numeric code for this error class. Codes are append-only:
    /// a code, once assigned, never changes meaning, so clients may
    /// match on the number across releases.
    ///
    /// | code | variant       |
    /// |------|---------------|
    /// | 1    | `Pm`          |
    /// | 2    | `Ssd`         |
    /// | 3    | `Table`       |
    /// | 4    | `Wal`         |
    /// | 5    | `Corrupt`     |
    /// | 6    | `Config`      |
    /// | 7    | `Commit`      |
    /// | 8    | `Unsupported` |
    /// | 9    | `Io`          |
    ///
    /// Code 0 is reserved for "unknown" (an error shipped by a newer
    /// engine that this build cannot classify).
    pub fn code(&self) -> u16 {
        match self {
            DbError::Pm(_) => 1,
            DbError::Ssd(_) => 2,
            DbError::Table(_) => 3,
            DbError::Wal(_) => 4,
            DbError::Corrupt(_) => 5,
            DbError::Config(_) => 6,
            DbError::Commit(_) => 7,
            DbError::Unsupported(_) => 8,
            DbError::Io(_) => 9,
        }
    }
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Pm(e) => write!(f, "pm: {e}"),
            DbError::Ssd(e) => write!(f, "ssd: {e}"),
            DbError::Table(e) => write!(f, "table: {e}"),
            DbError::Wal(e) => write!(f, "wal: {e}"),
            DbError::Corrupt(msg) => write!(f, "corrupt: {msg}"),
            DbError::Config(msg) => write!(f, "config: {msg}"),
            DbError::Commit(msg) => write!(f, "commit: {msg}"),
            DbError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            DbError::Io(msg) => write!(f, "io: {msg}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<PmError> for DbError {
    fn from(e: PmError) -> Self {
        DbError::Pm(e)
    }
}

impl From<SsdError> for DbError {
    fn from(e: SsdError) -> Self {
        DbError::Ssd(e)
    }
}

impl From<sstable::table::TableError> for DbError {
    fn from(e: sstable::table::TableError) -> Self {
        DbError::Table(e)
    }
}

impl From<memtable::WalError> for DbError {
    fn from(e: memtable::WalError) -> Self {
        DbError::Wal(e)
    }
}

impl From<ManifestError> for DbError {
    fn from(e: ManifestError) -> Self {
        match e {
            ManifestError::Io(msg) => DbError::Io(format!("manifest: {msg}")),
            ManifestError::Corrupt(msg) => DbError::Corrupt(format!("manifest: {msg}")),
        }
    }
}

/// Rows plus virtual latency from a range scan.
pub type ScanResult = (Vec<(Vec<u8>, Vec<u8>)>, SimDuration);

/// A range-scan description, consumed by [`DbCore::scan`] and shipped
/// verbatim by the wire protocol's `Request::Scan`.
///
/// Built fluently; the default is "everything, forward":
///
/// ```
/// use pm_blade::ScanRequest;
/// let req = ScanRequest::new()
///     .start("order:000100")
///     .end("order:000200")
///     .limit(50);
/// assert_eq!(req.limit, 50);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanRequest {
    /// Inclusive lower bound (empty = from the start of the keyspace).
    pub start: Vec<u8>,
    /// Exclusive upper bound; `None` scans to the end of the keyspace.
    pub end: Option<Vec<u8>>,
    /// Maximum live rows returned.
    pub limit: usize,
    /// Return rows in descending key order. The bounds keep their
    /// meaning (`[start, end)`); only the result order and the
    /// truncation side change — a reverse scan keeps the *largest*
    /// `limit` keys of the range.
    pub reverse: bool,
}

impl Default for ScanRequest {
    fn default() -> Self {
        ScanRequest {
            start: Vec::new(),
            end: None,
            limit: usize::MAX,
            reverse: false,
        }
    }
}

impl ScanRequest {
    pub fn new() -> Self {
        ScanRequest::default()
    }

    /// Inclusive lower bound.
    pub fn start(mut self, start: impl Into<Vec<u8>>) -> Self {
        self.start = start.into();
        self
    }

    /// Exclusive upper bound.
    pub fn end(mut self, end: impl Into<Vec<u8>>) -> Self {
        self.end = Some(end.into());
        self
    }

    /// Exclusive upper bound as an `Option` (for callers threading an
    /// optional bound through without branching).
    pub fn end_bound(mut self, end: Option<Vec<u8>>) -> Self {
        self.end = end;
        self
    }

    /// Maximum live rows returned.
    pub fn limit(mut self, limit: usize) -> Self {
        self.limit = limit;
        self
    }

    /// Descending key order.
    pub fn reverse(mut self, reverse: bool) -> Self {
        self.reverse = reverse;
        self
    }
}

/// Result of a point read.
///
/// `value` is `None` both for keys that were never written and for keys
/// whose newest visible version is a tombstone; `source` distinguishes
/// the tiers (`Miss` means the key was found nowhere, while a tombstone
/// reports the tier that held it). `latency` is the virtual time the
/// read cost, already added to the engine clock.
#[derive(Clone, Debug)]
pub struct ReadOutcome {
    /// The value, if the key is live.
    pub value: Option<Vec<u8>>,
    /// Which tier answered.
    pub source: ReadSource,
    /// Virtual latency of the read.
    pub latency: SimDuration,
}

/// Cumulative write-amplification counters.
///
/// `user_bytes` is the denominator (payload accepted by `put`/`delete`);
/// `pm_bytes` and `ssd_bytes` are the device-level bytes actually
/// written, including flush and compaction rewrites.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct WriteAmp {
    /// Bytes written to the PM pool.
    pub pm_bytes: u64,
    /// Bytes written to the SSD.
    pub ssd_bytes: u64,
    /// User payload bytes accepted.
    pub user_bytes: u64,
}

impl WriteAmp {
    /// Total device bytes per user byte (the paper's WA factor).
    pub fn factor(&self) -> f64 {
        if self.user_bytes == 0 {
            0.0
        } else {
            (self.pm_bytes + self.ssd_bytes) as f64 / self.user_bytes as f64
        }
    }
}

/// One background-compaction record.
#[derive(Clone, Debug)]
pub struct CompactionEvent {
    pub kind: CompactionKind,
    pub partition: usize,
    pub duration: SimDuration,
    /// For major compactions: the measured work (drives §V scheduling).
    pub work: Option<CompactionWork>,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CompactionKind {
    Minor,
    Internal,
    Major,
}

/// A compaction the caller wants run now, handled by [`DbCore::compact`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompactionRequest {
    /// Freeze + flush one partition's memtable, then apply the mode's
    /// compaction strategy (Algorithm 1).
    Flush { partition: usize },
    /// Flush every partition (shutdown / bench boundary).
    FlushAll,
    /// Merge one partition's PM tables into a fresh sorted run (§IV-B).
    Internal { partition: usize },
    /// Move one partition's entire level-0 into level-1.
    Major { partition: usize },
    /// Eq 3: major-compact the cold partitions, retaining the hottest
    /// in PM under the τ_t budget.
    MajorWithRetention,
}

/// File name of WAL segment `n` inside `wal_dir`.
fn wal_segment_file(n: u64) -> String {
    format!("wal-{n:06}.log")
}

/// One rotated-out WAL segment still on disk.
struct SealedSegment {
    path: PathBuf,
    /// Per-partition highest sequence the segment holds. The segment is
    /// deletable once every partition's flush checkpoint covers its
    /// records; partitions absent from the map hold nothing here.
    max_seq: BTreeMap<u64, u64>,
}

/// The WAL as a ring of numbered segment files (`wal-NNNNNN.log`).
///
/// Commits append to the active segment; when it crosses
/// [`Options::wal_segment_bytes`] it is sealed and a fresh segment
/// becomes active. Sealed segments are deleted once the per-partition
/// flush checkpoints in the manifest cover every record they hold, so
/// recovery replays a bounded suffix instead of the whole write history.
struct WalRing {
    dir: PathBuf,
    cost: CostModel,
    fault: Option<Arc<FaultPlan>>,
    active: Wal,
    active_segment: u64,
    /// Per-partition highest sequence appended to the active segment.
    active_max: BTreeMap<u64, u64>,
    /// Sealed segments, oldest first.
    sealed: Vec<SealedSegment>,
}

impl WalRing {
    fn note_append(&mut self, pid: usize, seq: u64) {
        let wm = self.active_max.entry(pid as u64).or_insert(0);
        *wm = (*wm).max(seq);
    }

    /// Seal the active segment (already synced by the caller) and start
    /// the next one. Returns the new segment number.
    fn rotate(&mut self) -> Result<u64, DbError> {
        let next = self.active_segment + 1;
        let mut wal = Wal::create(self.dir.join(wal_segment_file(next)), self.cost)?;
        wal.set_fault(self.fault.clone());
        let old = std::mem::replace(&mut self.active, wal);
        self.sealed.push(SealedSegment {
            path: old.path().to_path_buf(),
            max_seq: std::mem::take(&mut self.active_max),
        });
        self.active_segment = next;
        Ok(next)
    }

    /// Delete every sealed segment whose records are all at or below
    /// their partition's flush checkpoint. Returns how many went.
    fn prune(&mut self, checkpoints: &BTreeMap<u64, u64>) -> u64 {
        let mut deleted = 0u64;
        self.sealed.retain(|seg| {
            let covered = seg
                .max_seq
                .iter()
                .all(|(pid, seq)| checkpoints.get(pid).is_some_and(|c| c >= seq));
            if covered {
                let _ = std::fs::remove_file(&seg.path);
                deleted += 1;
            }
            !covered
        });
        deleted
    }
}

/// Reopen one PM region as a level-0 table handle (recovery path).
fn recover_pm_handle(pool: &PmPool, id: u64, ids: &CacheIds) -> Result<PmTableHandle, DbError> {
    let region = pool.get(id).ok_or_else(|| {
        DbError::Corrupt(format!(
            "manifest names PM region {id} but the pool does not hold it"
        ))
    })?;
    reopen_pm_table(region, None, ids).map_err(DbError::Corrupt)
}

/// Reopen one SSTable from its manifest metadata (recovery path).
fn recover_ss_handle(
    device: &Arc<SsdDevice>,
    cache: &Arc<BlockCache>,
    meta: &SsdMeta,
    tl: &mut Timeline,
) -> Result<SsTableHandle, DbError> {
    let table = SsTable::open(device, &meta.name, Arc::clone(cache), tl)?;
    Ok(SsTableHandle {
        table: Arc::new(table),
        name: meta.name.clone(),
        first: meta.first.clone(),
        last: meta.last.clone(),
        bytes: meta.bytes,
        max_seq: meta.max_seq,
    })
}

/// Rebuild one partition's table set from its last manifest version.
/// Returns `(tables_reopened, max_seq_recovered)`.
fn rebuild_partition(
    p: &mut Partition,
    version: &PartitionVersion,
    pool: &PmPool,
    device: &Arc<SsdDevice>,
    cache: &Arc<BlockCache>,
    cache_ids: &CacheIds,
    tl: &mut Timeline,
) -> Result<(u64, u64), DbError> {
    let mismatch = |what: &str| {
        DbError::Corrupt(format!(
            "manifest version for partition {} holds {what} tables the \
             configured mode has no container for",
            p.id
        ))
    };
    let mut count = 0u64;
    let mut max_seq = 0u64;
    match &mut p.level0 {
        Level0::Pm(l0) => {
            if !version.matrix.is_empty() || !version.l0_tables.is_empty() {
                return Err(mismatch("matrix/SSD level-0"));
            }
            // Codec ids were logged in unsorted-then-sorted order; a
            // pre-encoding-v2 manifest logged none (empty = unchecked).
            // When present, each reopened table's self-described
            // dominant codec must match what the manifest recorded —
            // a mismatch means the region was swapped or corrupted.
            let check_codec = |idx: usize, h: &PmTableHandle| match version.codecs.get(idx) {
                Some(&logged) if logged != h.codec as u64 => Err(DbError::Corrupt(format!(
                    "partition {}: manifest logged codec {logged} for PM region {} \
                         but the reopened table decodes as codec {}",
                    p.id, h.region, h.codec
                ))),
                _ => Ok(()),
            };
            for (idx, &id) in version.unsorted.iter().enumerate() {
                let h = recover_pm_handle(pool, id, cache_ids)?;
                check_codec(idx, &h)?;
                max_seq = max_seq.max(h.max_seq);
                l0.push_unsorted(h);
                count += 1;
            }
            let mut run = Vec::with_capacity(version.sorted.len());
            for (idx, &id) in version.sorted.iter().enumerate() {
                let h = recover_pm_handle(pool, id, cache_ids)?;
                check_codec(version.unsorted.len() + idx, &h)?;
                max_seq = max_seq.max(h.max_seq);
                run.push(h);
                count += 1;
            }
            if !run.is_empty() {
                l0.set_sorted_run(run);
            }
        }
        Level0::Matrix(m) => {
            if !version.unsorted.is_empty()
                || !version.sorted.is_empty()
                || !version.l0_tables.is_empty()
            {
                return Err(mismatch("PM/SSD level-0"));
            }
            for &id in &version.matrix {
                let region = pool.get(id).ok_or_else(|| {
                    DbError::Corrupt(format!(
                        "manifest names matrix region {id} but the pool does not hold it"
                    ))
                })?;
                m.push_recovered_row(region)?;
                count += 1;
            }
        }
        Level0::Ssd(tables) => {
            if !version.unsorted.is_empty()
                || !version.sorted.is_empty()
                || !version.matrix.is_empty()
            {
                return Err(mismatch("PM level-0"));
            }
            for meta in &version.l0_tables {
                let h = recover_ss_handle(device, cache, meta, tl)?;
                max_seq = max_seq.max(h.max_seq);
                tables.push(h);
                count += 1;
            }
        }
    }
    for (i, level) in version.levels.iter().enumerate() {
        let mut handles = Vec::with_capacity(level.len());
        for meta in level {
            let h = recover_ss_handle(device, cache, meta, tl)?;
            max_seq = max_seq.max(h.max_seq);
            handles.push(h);
            count += 1;
        }
        p.levels.replace_level(i + 1, handles);
    }
    Ok((count, max_seq))
}

/// The numeric suffix of an SSTable name (`p000-L1-00000042.sst` → 42),
/// used to re-seed the name counter on recovery.
fn table_name_counter(name: &str) -> u64 {
    name.strip_suffix(".sst")
        .and_then(|s| s.rsplit('-').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// The PM-Blade storage engine.
///
/// `Db` is `Send + Sync`; share it as `Arc<Db>` across threads. Reads
/// (`get`, `get_at`, `scan`) take per-partition read locks — with a
/// lock-free fast path over the immutable PM level-0 — and writes
/// (`put`, `delete`, `write_batch`) go through per-partition group
/// commit.
///
/// `Db` is a thin owner around [`DbCore`] (every engine operation is
/// reachable through `Deref`): it additionally owns the background
/// maintenance workers in [`MaintenanceMode::Background`] and drains
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
    /// `open` trusts its input; use [`Options::builder`] to validate a
    /// configuration before opening. In
    /// [`MaintenanceMode::Background`] this also spawns
    /// [`Options::maintenance_workers`] worker threads.
    pub fn open(opts: Options) -> Result<Db, DbError> {
        let core = Arc::new(DbCore::open(opts)?);
        let mut workers = Vec::new();
        if let Some(m) = &core.maintenance {
            for i in 0..core.opts.maintenance_workers.max(1) {
                let core = Arc::clone(&core);
                let queue = Arc::clone(m);
                let spawned = std::thread::Builder::new()
                    .name(format!("pmblade-maint-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.next_job() {
                            let ok = core.run_job(&job).is_ok();
                            queue.job_done(&job, ok);
                        }
                    });
                match spawned {
                    Ok(handle) => workers.push(handle),
                    Err(e) => {
                        // Unwind the workers already running before
                        // reporting failure, or they would spin forever
                        // on a queue nobody ever drains.
                        m.drain();
                        for h in workers {
                            let _ = h.join();
                        }
                        return Err(DbError::Io(format!("spawn maintenance worker: {e}")));
                    }
                }
            }
        }
        Ok(Db {
            core,
            workers: Mutex::new(workers),
        })
    }

    /// The shared engine core (what the maintenance workers hold).
    /// Clone the `Arc` to keep the engine alive independently of this
    /// handle — but note maintenance workers stop at [`Db::close`].
    pub fn core(&self) -> &Arc<DbCore> {
        &self.core
    }

    /// Drain the maintenance queue and join the worker pool: blocks
    /// until every queued job (including jobs that running jobs
    /// enqueue) has finished, then stops the workers. Idempotent, and
    /// also run by `Drop`. The engine stays usable afterwards —
    /// triggered maintenance falls back to inline execution, as in
    /// [`MaintenanceMode::Inline`].
    pub fn close(&self) {
        if let Some(m) = &self.core.maintenance {
            m.drain();
        }
        let workers: Vec<_> = std::mem::take(&mut *self.workers.lock());
        for handle in workers {
            let _ = handle.join();
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
    /// Highest sequence published to readers: advanced only *after* the
    /// owning batch has been applied, so a snapshot never observes half
    /// a batch (batch sequence ranges are contiguous and disjoint).
    visible_seq: AtomicU64,
    /// Virtual clock as nanoseconds since `SimInstant::ORIGIN`.
    clock: AtomicU64,
    table_counter: AtomicU64,
    /// Per-engine [`PmTableHandle::cache_id`] allocator (see
    /// [`CacheIds`] for why it must not be process-global).
    cache_ids: CacheIds,
    stats: EngineStats,
    wal: Option<Mutex<WalRing>>,
    /// The durable table-lifecycle log; `Some` iff `opts.wal_dir` is
    /// set. Locked only while no partition or WAL-ring lock is held.
    manifest: Option<Mutex<Manifest>>,
    /// Edits applied to the manifest (replayed at open + appended).
    manifest_edits: Arc<Counter>,
    /// Sealed WAL segments deleted because a flush checkpoint covered
    /// every record they held.
    wal_segments_deleted: Arc<Counter>,
    /// Mean value size observed (drives compaction trace balance).
    value_bytes_sum: AtomicU64,
    value_count: AtomicU64,
    /// Metrics registry; every engine counter/gauge/histogram lives (or
    /// is mirrored) here so one `metrics_snapshot()` sees everything.
    registry: MetricsRegistry,
    /// Capped span ring backing `compaction_log()` / snapshot spans.
    ring: EventRing,
    /// Monotonic span-id allocator (ids order span *completion*).
    span_ids: AtomicU64,
    /// Per-partition read-source counter handles (hot path: no registry
    /// lookups on reads).
    read_metrics: Vec<ReadMetrics>,
    lat_reads: Arc<LatencyRecorder>,
    lat_writes: Arc<LatencyRecorder>,
    lat_scans: Arc<LatencyRecorder>,
    commit_latency: Arc<LatencyRecorder>,
    wal_sync_latency: Arc<LatencyRecorder>,
    wal_appends: Arc<Counter>,
    wal_syncs: Arc<Counter>,
    /// Shared decoded-prefix-group cache for the PM level-0 read path.
    /// Sized by [`Options::pm_group_cache_bytes`] (0 disables it).
    group_cache: Arc<PmGroupCache>,
    /// PM-L0 bloom-filter outcome counters (global; hot path keeps the
    /// `Arc`s so reads never touch the registry map).
    pm_filter_checked: Arc<Counter>,
    pm_filter_useful: Arc<Counter>,
    pm_filter_miss: Arc<Counter>,
    /// Distribution of PM tables actually probed per PM-L0 lookup.
    pm_tables_probed: Arc<LatencyRecorder>,
    /// Table-read failures surfaced by the SSD read path (these
    /// propagate to the caller instead of being swallowed as misses).
    ssd_read_errors: Arc<Counter>,
    /// Compaction inputs (SSTables) that could not be read; the
    /// compaction aborted with every input table still in place.
    compaction_input_errors: Arc<Counter>,
    /// The background job queue; `Some` iff
    /// `opts.maintenance == MaintenanceMode::Background`.
    maintenance: Option<Arc<MaintenanceShared>>,
    write_slowdowns: Arc<Counter>,
    write_stalls: Arc<Counter>,
    /// Wall-clock (not virtual) stall durations: stalls park the real
    /// thread, so the histogram measures what a client would feel.
    stall_wall: Arc<LatencyRecorder>,
    /// Request tracer: sampling decisions plus the slow-query flight
    /// recorder. Observes the virtual clock, never charges it.
    tracer: Tracer,
}

/// Pre-fetched per-partition read counters (see [`DbCore::read_metrics`]).
struct ReadMetrics {
    reads: Arc<Counter>,
    memtable: Arc<Counter>,
    pm: Arc<Counter>,
    miss: Arc<Counter>,
    /// `read_source_ssd` by level (0 = an SSD level-0 table), each
    /// resolved from the registry on the level's first hit. Levels
    /// past the array fall back to a registry lookup per hit.
    ssd: [OnceLock<Arc<Counter>>; 8],
}

impl DbCore {
    /// Build the engine core. Callers almost always want [`Db::open`],
    /// which also spawns the background workers.
    ///
    /// With [`Options::wal_dir`] set this is a full recovery path:
    /// load the `CURRENT` manifest, rebuild every partition's table set
    /// from its last logged version (reopening PM regions and SSTables
    /// from the backing directories), garbage-collect media objects the
    /// manifest does not reference, then replay only the WAL records
    /// newer than each partition's flush checkpoint.
    fn open(mut opts: Options) -> Result<DbCore, DbError> {
        let recovery_start = std::time::Instant::now();
        // The PM-table filter knob lives on the engine options; project
        // it onto the per-table build options so every flush and
        // compaction builds (or skips) filters consistently.
        opts.pm_table.filter_bits_per_key = opts.pm_filter_bits_per_key;
        // Same for the codec knob (encoding v2). For anything beyond
        // plain prefix groups, calibrate the per-codec decode-cost table
        // once, on the virtual clock, so Auto selection and the Eq 1/2
        // decode terms see measured numbers instead of zeros. SSD
        // level-0 mode never builds PM tables, so it skips the work.
        opts.pm_table.codec = opts.pm_codec_mode;
        if opts.mode != Mode::SsdLevel0 && opts.pm_codec_mode != pmtable::CodecMode::Prefix {
            opts.codec_costs = crate::costmodel::CodecCostTable::calibrate(&opts.cost);
        }
        let fault = opts.fault_plan.clone();
        let cache = Arc::new(BlockCache::new(opts.block_cache_bytes));
        let now = SimInstant::ORIGIN;
        let mut partitions: Vec<Partition> = (0..opts.partitioner.count())
            .map(|id| Partition::new(id, &opts, now))
            .collect();
        let mut seq: SequenceNumber = 0;
        let mut table_counter_start = 0u64;
        let cache_ids = CacheIds::new();
        let mut recovered_tables = 0u64;
        let mut replayed_records = 0u64;
        let mut edits_at_open = 0u64;
        let (pool, device, manifest, wal) = match opts.wal_dir.clone() {
            None => (
                PmPool::new(opts.pm_capacity, opts.cost),
                SsdDevice::new(opts.cost),
                None,
                None,
            ),
            Some(dir) => {
                std::fs::create_dir_all(&dir).map_err(|e| DbError::Io(format!("wal dir: {e}")))?;
                let pool = PmPool::with_backing_faults(
                    opts.pm_capacity,
                    opts.cost,
                    dir.join("pm"),
                    fault.clone(),
                )?;
                let device = SsdDevice::with_backing(opts.cost, dir.join("ssd"), fault.clone())?;
                let mut manifest =
                    Manifest::open(&dir, opts.manifest_snapshot_every, opts.cost, fault.clone())?;
                let mut tl = Timeline::new();
                let state = manifest.state().clone();
                // Rebuild each partition's table set from its last
                // logged version, and remember every media object the
                // manifest still references.
                let mut live_regions: std::collections::HashSet<u64> =
                    std::collections::HashSet::new();
                let mut live_tables: std::collections::HashSet<String> =
                    std::collections::HashSet::new();
                for (&pid_u, version) in &state.partitions {
                    let pid = pid_u as usize;
                    if pid >= partitions.len() {
                        return Err(DbError::Corrupt(format!(
                            "manifest names partition {pid} but the engine has {}",
                            partitions.len()
                        )));
                    }
                    let (count, max_seq) = rebuild_partition(
                        &mut partitions[pid],
                        version,
                        &pool,
                        &device,
                        &cache,
                        &cache_ids,
                        &mut tl,
                    )?;
                    recovered_tables += count;
                    seq = seq.max(max_seq);
                    live_regions.extend(&version.unsorted);
                    live_regions.extend(&version.sorted);
                    live_regions.extend(&version.matrix);
                    for meta in version
                        .l0_tables
                        .iter()
                        .chain(version.levels.iter().flatten())
                    {
                        table_counter_start =
                            table_counter_start.max(table_name_counter(&meta.name));
                        live_tables.insert(meta.name.clone());
                    }
                }
                table_counter_start = table_counter_start.max(state.table_counter);
                seq = seq.max(state.checkpoints.values().copied().max().unwrap_or(0));
                // GC orphans: media published by a crashed process whose
                // manifest edit never landed. Nothing references them.
                for id in pool.region_ids() {
                    if !live_regions.contains(&id) {
                        pool.free(id);
                    }
                }
                for name in device.list() {
                    if !live_tables.contains(&name) {
                        let _ = device.delete(&name);
                    }
                }
                // WAL segments replay ascending; records at or below the
                // partition's flush checkpoint are already durable in
                // level-0 and are skipped (the double-replay guard).
                let mut segments: Vec<(u64, PathBuf)> = Vec::new();
                for entry in
                    std::fs::read_dir(&dir).map_err(|e| DbError::Io(format!("wal dir: {e}")))?
                {
                    let entry = entry.map_err(|e| DbError::Io(format!("wal dir: {e}")))?;
                    let name = entry.file_name();
                    let name = name.to_string_lossy();
                    if let Some(num) = name
                        .strip_prefix("wal-")
                        .and_then(|s| s.strip_suffix(".log"))
                        .and_then(|s| s.parse::<u64>().ok())
                    {
                        segments.push((num, entry.path()));
                    }
                }
                segments.sort();
                let mut sealed = Vec::new();
                for (_, path) in &segments {
                    let mut seg_max: BTreeMap<u64, u64> = BTreeMap::new();
                    for rec in Wal::replay(path)? {
                        seq = seq.max(rec.seq);
                        let pid = opts.partitioner.locate(&rec.user_key);
                        let wm = seg_max.entry(pid as u64).or_insert(0);
                        *wm = (*wm).max(rec.seq);
                        if state
                            .checkpoints
                            .get(&(pid as u64))
                            .is_some_and(|c| *c >= rec.seq)
                        {
                            continue;
                        }
                        partitions[pid].mem.insert(
                            &rec.user_key,
                            rec.seq,
                            rec.kind,
                            &rec.value,
                            &mut tl,
                        );
                        replayed_records += 1;
                    }
                    sealed.push(SealedSegment {
                        path: path.clone(),
                        max_seq: seg_max,
                    });
                }
                // Existing segments stay sealed (deletable once a flush
                // checkpoint covers them); appends go to a fresh one.
                let next_segment = segments
                    .last()
                    .map(|(n, _)| n + 1)
                    .unwrap_or(1)
                    .max(state.wal_segment + 1);
                let mut active = Wal::create(dir.join(wal_segment_file(next_segment)), opts.cost)?;
                active.set_fault(fault.clone());
                manifest.append(
                    &VersionEdit::WalRotate {
                        segment: next_segment,
                    },
                    &mut tl,
                )?;
                edits_at_open = manifest.state().edits_applied;
                let ring = WalRing {
                    dir,
                    cost: opts.cost,
                    fault: fault.clone(),
                    active,
                    active_segment: next_segment,
                    active_max: BTreeMap::new(),
                    sealed,
                };
                (
                    pool,
                    device,
                    Some(Mutex::new(manifest)),
                    Some(Mutex::new(ring)),
                )
            }
        };
        let registry = MetricsRegistry::new();
        let stats = EngineStats::default();
        stats.register(&registry);
        let committers = (0..partitions.len())
            .map(|pid| Committer::new(CommitMetrics::register(&registry, pid)))
            .collect();
        // Pre-register the per-partition read counters (and the level-1
        // SSD source — deeper levels register lazily on first hit) so a
        // snapshot taken before any read still lists them at zero.
        let read_metrics = (0..partitions.len())
            .map(|pid| ReadMetrics {
                reads: registry.counter(MetricKey::partition("partition_reads", pid)),
                memtable: registry.counter(MetricKey::partition("read_source_memtable", pid)),
                pm: registry.counter(MetricKey::partition("read_source_pm", pid)),
                miss: registry.counter(MetricKey::partition("read_source_miss", pid)),
                ssd: std::array::from_fn(|level| match level {
                    1 => registry
                        .counter(MetricKey::level("read_source_ssd", pid, 1))
                        .into(),
                    _ => OnceLock::new(),
                }),
            })
            .collect();
        // PM-L0 read-acceleration metrics. The cache owns its counters;
        // registering the same `Arc`s means snapshots and Prometheus
        // rendering see them with zero mirroring on the hot path.
        let group_cache = Arc::new(PmGroupCache::new(opts.pm_group_cache_bytes));
        registry.register_counter(
            MetricKey::global("pm_group_cache_hit_total"),
            Arc::clone(&group_cache.hits),
        );
        registry.register_counter(
            MetricKey::global("pm_group_cache_miss_total"),
            Arc::clone(&group_cache.misses),
        );
        registry.register_counter(
            MetricKey::global("pm_group_cache_evictions_total"),
            Arc::clone(&group_cache.evictions),
        );
        registry.register_counter(
            MetricKey::global("pm_group_cache_invalidations_total"),
            Arc::clone(&group_cache.invalidations),
        );
        registry.gauge(MetricKey::global("pm_group_cache_used_bytes"));
        let pm_filter_checked = registry.counter(MetricKey::global("pm_filter_checked_total"));
        let pm_filter_useful = registry.counter(MetricKey::global("pm_filter_useful_total"));
        let pm_filter_miss = registry.counter(MetricKey::global("pm_filter_miss_total"));
        let pm_tables_probed = registry.histogram(MetricKey::global("pm_tables_probed_per_get"));
        let ssd_read_errors = registry.counter(MetricKey::global("ssd_read_errors_total"));
        let compaction_input_errors =
            registry.counter(MetricKey::global("compaction_input_errors_total"));
        let lat_reads = registry.histogram(MetricKey::global("read_latency"));
        let lat_writes = registry.histogram(MetricKey::global("write_latency"));
        let lat_scans = registry.histogram(MetricKey::global("scan_latency"));
        let commit_latency = registry.histogram(MetricKey::global("group_commit_latency"));
        let wal_sync_latency = registry.histogram(MetricKey::global("wal_sync_latency"));
        let wal_appends = registry.counter(MetricKey::global("wal_appends"));
        let wal_syncs = registry.counter(MetricKey::global("wal_syncs"));
        // Durability / recovery observability. Registered in every mode
        // (zero without a wal_dir) so dashboards render identically; the
        // recovery counters are set once, here, from the open pass.
        let manifest_edits = registry.counter(MetricKey::global("manifest_edits_total"));
        manifest_edits.add(edits_at_open);
        let wal_segments_deleted =
            registry.counter(MetricKey::global("wal_segments_deleted_total"));
        registry
            .counter(MetricKey::global("recovery_wal_records_replayed"))
            .add(replayed_records);
        registry
            .counter(MetricKey::global("recovery_tables_reopened"))
            .add(recovered_tables);
        registry
            .histogram(MetricKey::global("recovery_wall_nanos"))
            .record_nanos(recovery_start.elapsed().as_nanos() as u64);
        // Maintenance metrics are pre-registered in BOTH modes so a
        // Prometheus scrape of an Inline engine still lists them (at
        // zero) and dashboards render identically across modes.
        let write_slowdowns = registry.counter(MetricKey::global("write_slowdowns"));
        let write_stalls = registry.counter(MetricKey::global("write_stalls"));
        let stall_wall = registry.histogram(MetricKey::global("write_stall_wall_nanos"));
        let queue_metrics = QueueMetrics {
            depth: registry.gauge(MetricKey::global("maintenance_queue_depth")),
            inflight: registry.gauge(MetricKey::global("maintenance_jobs_inflight")),
            enqueued: registry.counter(MetricKey::global("maintenance_jobs_enqueued")),
            deduped: registry.counter(MetricKey::global("maintenance_jobs_deduped")),
            completed: registry.counter(MetricKey::global("maintenance_jobs_completed")),
            failed: registry.counter(MetricKey::global("maintenance_jobs_failed")),
        };
        let maintenance = (opts.maintenance == MaintenanceMode::Background)
            .then(|| Arc::new(MaintenanceShared::new(opts.scheduler, queue_metrics)));
        let ring = EventRing::new(opts.event_log_capacity);
        let tracer = Tracer::new(
            opts.trace_sample_every,
            opts.trace_slow_query_nanos,
            opts.trace_recorder_capacity,
            registry.counter(MetricKey::global("trace_sampled_total")),
            registry.counter(MetricKey::global("trace_recorded_total")),
        );
        Ok(DbCore {
            partitions: partitions.into_iter().map(RwLock::new).collect(),
            committers,
            pool,
            device,
            cache,
            seq: AtomicU64::new(seq),
            visible_seq: AtomicU64::new(seq),
            clock: AtomicU64::new(0),
            table_counter: AtomicU64::new(table_counter_start),
            cache_ids,
            stats,
            wal,
            manifest,
            manifest_edits,
            wal_segments_deleted,
            value_bytes_sum: AtomicU64::new(0),
            value_count: AtomicU64::new(0),
            registry,
            ring,
            span_ids: AtomicU64::new(0),
            read_metrics,
            lat_reads,
            lat_writes,
            lat_scans,
            commit_latency,
            wal_sync_latency,
            wal_appends,
            wal_syncs,
            group_cache,
            pm_filter_checked,
            pm_filter_useful,
            pm_filter_miss,
            pm_tables_probed,
            ssd_read_errors,
            compaction_input_errors,
            maintenance,
            write_slowdowns,
            write_stalls,
            stall_wall,
            tracer,
            opts,
        })
    }

    // ---------------------------------------------------------------
    // Accessors
    // ---------------------------------------------------------------

    pub fn options(&self) -> &Options {
        &self.opts
    }

    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    pub fn pm_pool(&self) -> &PmPool {
        &self.pool
    }

    pub fn ssd(&self) -> &Arc<SsdDevice> {
        &self.device
    }

    pub fn block_cache(&self) -> &Arc<BlockCache> {
        &self.cache
    }

    /// A point-in-time copy of the compaction log, derived from the
    /// span ring. The ring is capped at
    /// [`crate::options::Options::event_log_capacity`] events; when it
    /// overflows, the *oldest* events are evicted (see
    /// [`MetricsSnapshot::spans_dropped`] for the count), so this log is
    /// a recent-history window, not a complete record.
    pub fn compaction_log(&self) -> Vec<CompactionEvent> {
        self.ring
            .snapshot()
            .into_iter()
            .filter_map(|span| {
                let kind = match span.kind {
                    SpanKind::Flush => CompactionKind::Minor,
                    SpanKind::Internal => CompactionKind::Internal,
                    SpanKind::Major => CompactionKind::Major,
                    // Group commits and request stages never reach the
                    // compaction log.
                    _ => return None,
                };
                let work = (kind == CompactionKind::Major).then_some(CompactionWork {
                    input_bytes: span.input_bytes,
                    output_bytes: span.output_bytes,
                    records: span.input_records,
                    value_size: span.value_size,
                });
                Some(CompactionEvent {
                    kind,
                    partition: span.partition,
                    duration: span.duration(),
                    work,
                })
            })
            .collect()
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
        self.registry
            .gauge(MetricKey::global("pm_used_bytes"))
            .set(self.pool.used() as i64);
        self.registry
            .gauge(MetricKey::global("block_cache_used_bytes"))
            .set(self.cache.used() as i64);
        self.registry
            .gauge(MetricKey::global("pm_group_cache_used_bytes"))
            .set(self.group_cache.used() as i64);
        for (pid, lock) in self.partitions.iter().enumerate() {
            let p = lock.read();
            self.registry
                .gauge(MetricKey::partition("memtable_bytes", pid))
                .set(p.mem.approximate_size() as i64);
            self.registry
                .gauge(MetricKey::partition("pm_l0_bytes", pid))
                .set(p.pm_bytes() as i64);
            self.registry
                .gauge(MetricKey::partition("l0_unsorted_tables", pid))
                .set(p.unsorted_count() as i64);
            self.registry
                .gauge(MetricKey::partition("ssd_level_bytes", pid))
                .set(p.levels.total_bytes() as i64);
        }
        let (mut counters, gauges, histograms) = self.registry.collect();
        // Device and cache counters live in their own crates; mirror
        // them into the snapshot (they are monotonic, so deltas work).
        counters.insert(MetricKey::global("block_cache_hits"), self.cache.hits.get());
        counters.insert(
            MetricKey::global("block_cache_misses"),
            self.cache.misses.get(),
        );
        counters.insert(
            MetricKey::global("block_cache_evictions"),
            self.cache.evictions.get(),
        );
        counters.insert(
            MetricKey::global("pm_bytes_written"),
            self.pool.stats().bytes_written.get(),
        );
        counters.insert(
            MetricKey::global("pm_bytes_read"),
            self.pool.stats().bytes_read.get(),
        );
        counters.insert(
            MetricKey::global("ssd_bytes_written"),
            self.device.stats().bytes_written.get(),
        );
        counters.insert(
            MetricKey::global("ssd_bytes_read"),
            self.device.stats().bytes_read.get(),
        );
        MetricsSnapshot::from_parts(
            self.clock.load(Ordering::Relaxed),
            counters,
            gauges,
            histograms,
            self.ring.snapshot(),
            self.ring.dropped(),
        )
    }

    /// Foreground latency histograms (reads / writes / scans), copied
    /// out of the registry.
    pub fn latency_stats(&self) -> LatencyStats {
        LatencyStats {
            reads: self.lat_reads.histogram(),
            writes: self.lat_writes.histogram(),
            scans: self.lat_scans.histogram(),
        }
    }

    /// The request tracer (sampling state + slow-query flight recorder).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Snapshot of the slow-query flight recorder: the most recent
    /// sampled request traces that crossed the slow-query threshold
    /// (all sampled traces when the threshold is 0), oldest first.
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

    /// Latest *published* sequence number (usable as a snapshot): every
    /// write batch at or below this sequence is fully visible.
    ///
    /// Snapshots are not pinned: compactions keep only the newest
    /// version of each key, so a snapshot stays accurate only while the
    /// versions it references still exist (i.e. until a flush-triggered
    /// compaction rewrites them).
    pub fn snapshot(&self) -> SequenceNumber {
        self.visible_seq.load(Ordering::Acquire)
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
            if let Level0::Pm(l0) = &p.level0 {
                for h in l0.tables() {
                    hist[(h.codec as usize).min(pmtable::CODEC_COUNT - 1)] += 1;
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
            user_bytes: self.stats.user_bytes_written.get(),
        }
    }

    /// Mean observed value size (fallback 1 KiB).
    pub fn mean_value_size(&self) -> u32 {
        self.value_bytes_sum
            .load(Ordering::Relaxed)
            .checked_div(self.value_count.load(Ordering::Relaxed))
            .map(|v| v as u32)
            .unwrap_or(1024)
    }

    fn advance(&self, d: SimDuration) {
        self.clock.fetch_add(d.as_nanos(), Ordering::Relaxed);
    }

    fn next_span_id(&self) -> u64 {
        self.span_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// A zero-work span (used to close a begin/complete pair when the
    /// operation turned out to be a no-op).
    fn empty_span(
        &self,
        kind: SpanKind,
        pid: usize,
        start_nanos: u64,
        cost: Option<CostDecision>,
        origin: u64,
    ) -> TraceSpan {
        TraceSpan {
            id: self.next_span_id(),
            trace_id: origin,
            kind,
            partition: pid,
            start_nanos,
            end_nanos: start_nanos,
            input_records: 0,
            output_records: 0,
            input_bytes: 0,
            output_bytes: 0,
            value_size: self.mean_value_size(),
            cost,
        }
    }

    /// Record a cost-model verdict: bump its trigger counter and notify
    /// listeners. Called before the compaction the decision may trigger.
    fn note_cost_decision(&self, decision: &CostDecision) {
        if decision.triggered() {
            let name = match decision {
                CostDecision::ReadBenefit { .. } => "cost_eq1_triggers",
                CostDecision::WriteBenefit { .. } => "cost_eq2_triggers",
                CostDecision::HardCap { .. } => "cost_hard_cap_triggers",
                CostDecision::Retention { .. } => "cost_retention_passes",
                CostDecision::CodecChoice { .. } => "cost_codec_choices",
            };
            self.registry.counter(MetricKey::global(name)).incr();
        }
        self.opts.listeners.cost_decision(decision);
    }

    /// Force the WAL to stable storage (no-op without a WAL).
    pub fn sync_wal(&self) -> Result<SimDuration, DbError> {
        let mut tl = Timeline::new();
        if let Some(wal) = &self.wal {
            wal.lock().active.sync(&mut tl)?;
            self.wal_syncs.incr();
            self.wal_sync_latency.record(tl.elapsed());
        }
        let d = tl.elapsed();
        self.advance(d);
        Ok(d)
    }

    /// Append edits to the manifest, each durably (fsynced) before the
    /// next. No-op without a manifest. Must not be called while holding
    /// a partition lock or the WAL-ring lock.
    fn append_manifest_edits(&self, edits: &[VersionEdit]) -> Result<(), DbError> {
        let Some(manifest) = &self.manifest else {
            return Ok(());
        };
        let mut tl = Timeline::new();
        let mut m = manifest.lock();
        for edit in edits {
            m.append(edit, &mut tl)?;
            self.manifest_edits.incr();
        }
        drop(m);
        self.advance(tl.elapsed());
        Ok(())
    }

    /// Snapshot a partition's complete table set for a manifest edit.
    /// The caller holds the partition lock, so the snapshot is the
    /// exact set a crash-reopen must rebuild.
    fn partition_version(&self, p: &Partition) -> PartitionVersion {
        let meta = |h: &SsTableHandle| SsdMeta {
            name: h.name.clone(),
            first: h.first.clone(),
            last: h.last.clone(),
            bytes: h.bytes,
            max_seq: h.max_seq,
        };
        let mut v = PartitionVersion {
            partition: p.id as u64,
            ..PartitionVersion::default()
        };
        match &p.level0 {
            Level0::Pm(l0) => {
                v.unsorted = l0.unsorted().iter().map(|h| h.region).collect();
                v.sorted = l0.sorted_run().iter().map(|h| h.region).collect();
                v.codecs = l0.tables().map(|h| h.codec as u64).collect();
            }
            Level0::Matrix(m) => v.matrix = m.region_ids(),
            Level0::Ssd(tables) => v.l0_tables = tables.iter().map(meta).collect(),
        }
        v.levels = p
            .levels
            .levels
            .iter()
            .map(|lvl| lvl.iter().map(meta).collect())
            .collect();
        v
    }

    /// Durably record a partition's new table set — and, for a flush,
    /// its checkpoint — then prune WAL segments the checkpoint covered.
    /// Publication order is the crash-safety invariant: the in-memory
    /// install already happened, so a crash before this append leaves
    /// only orphaned media (GC'd on reopen) plus a WAL that still
    /// replays the records; a crash after it loses nothing.
    fn log_version(
        &self,
        version: PartitionVersion,
        checkpoint: Option<(usize, u64)>,
    ) -> Result<(), DbError> {
        if self.manifest.is_none() {
            return Ok(());
        }
        let mut edits = vec![
            VersionEdit::PartitionVersion(version),
            VersionEdit::TableCounter {
                value: self.table_counter.load(Ordering::Relaxed),
            },
        ];
        if let Some((pid, durable_seq)) = checkpoint {
            edits.push(VersionEdit::FlushCheckpoint {
                partition: pid as u64,
                durable_seq,
            });
        }
        self.append_manifest_edits(&edits)?;
        if checkpoint.is_some() {
            // The checkpoint may have made sealed segments obsolete.
            // Lock order: manifest released above, ring taken alone.
            let checkpoints = {
                let m = self.manifest.as_ref().expect("checked above").lock();
                m.state().checkpoints.clone()
            };
            if let Some(ring) = &self.wal {
                let deleted = ring.lock().prune(&checkpoints);
                self.wal_segments_deleted.add(deleted);
            }
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // Foreground operations
    // ---------------------------------------------------------------

    /// Insert or update a key.
    pub fn put(&self, user_key: &[u8], value: &[u8]) -> Result<SimDuration, DbError> {
        self.put_with(user_key, value, self.tracer.sample())
    }

    /// [`DbCore::put`] under a caller-supplied trace context (the wire
    /// entry point for `Request::Traced`).
    pub fn put_traced(
        &self,
        user_key: &[u8],
        value: &[u8],
        ctx: TraceContext,
    ) -> Result<SimDuration, DbError> {
        self.put_with(user_key, value, self.tracer.adopt(ctx))
    }

    fn put_with(
        &self,
        user_key: &[u8],
        value: &[u8],
        trace: Option<TraceContext>,
    ) -> Result<SimDuration, DbError> {
        let pid = self.opts.partitioner.locate(user_key);
        self.submit(
            pid,
            vec![BatchOp::Put {
                key: user_key.to_vec(),
                value: value.to_vec(),
            }],
            trace,
        )
    }

    /// Delete a key (writes a tombstone).
    pub fn delete(&self, user_key: &[u8]) -> Result<SimDuration, DbError> {
        self.delete_with(user_key, self.tracer.sample())
    }

    /// [`DbCore::delete`] under a caller-supplied trace context.
    pub fn delete_traced(
        &self,
        user_key: &[u8],
        ctx: TraceContext,
    ) -> Result<SimDuration, DbError> {
        self.delete_with(user_key, self.tracer.adopt(ctx))
    }

    fn delete_with(
        &self,
        user_key: &[u8],
        trace: Option<TraceContext>,
    ) -> Result<SimDuration, DbError> {
        let pid = self.opts.partitioner.locate(user_key);
        self.submit(
            pid,
            vec![BatchOp::Delete {
                key: user_key.to_vec(),
            }],
            trace,
        )
    }

    /// Apply a [`WriteBatch`]. Operations routed to one partition become
    /// visible atomically; a batch spanning partitions is applied in
    /// ascending partition order, each partition's slice atomically.
    pub fn write_batch(&self, batch: WriteBatch) -> Result<SimDuration, DbError> {
        self.write_batch_with(batch, self.tracer.sample())
    }

    /// [`DbCore::write_batch`] under a caller-supplied trace context.
    /// A batch spanning partitions records one stage set per partition
    /// commit, all under the same trace id.
    pub fn write_batch_traced(
        &self,
        batch: WriteBatch,
        ctx: TraceContext,
    ) -> Result<SimDuration, DbError> {
        self.write_batch_with(batch, self.tracer.adopt(ctx))
    }

    fn write_batch_with(
        &self,
        batch: WriteBatch,
        trace: Option<TraceContext>,
    ) -> Result<SimDuration, DbError> {
        if batch.is_empty() {
            return Ok(SimDuration::ZERO);
        }
        self.stats.batch_writes.incr();
        // Split by partition, preserving op order within each.
        let mut per_pid: Vec<Vec<BatchOp>> =
            (0..self.partitions.len()).map(|_| Vec::new()).collect();
        for op in batch.ops {
            per_pid[self.opts.partitioner.locate(op.key())].push(op);
        }
        let mut total = SimDuration::ZERO;
        for (pid, ops) in per_pid.into_iter().enumerate() {
            if !ops.is_empty() {
                total += self.submit(pid, ops, trace)?;
            }
        }
        Ok(total)
    }

    /// Enqueue `ops` for partition `pid` and wait for a commit group to
    /// carry them. See [`crate::commit`] for the leader/follower scheme.
    /// In Background mode the write first passes the backpressure gate
    /// ([`DbCore::throttle`]); any slowdown penalty is part of the
    /// write's reported latency.
    fn submit(
        &self,
        pid: usize,
        ops: Vec<BatchOp>,
        trace: Option<TraceContext>,
    ) -> Result<SimDuration, DbError> {
        let start_nanos = self.clock.load(Ordering::Relaxed);
        let origin = trace.map_or(0, |c| c.trace_id);
        let penalty = self.throttle(pid, origin);
        let committer = &self.committers[pid];
        let ticket = Arc::new(Ticket::new(ops, trace));
        committer.queue.lock().push(Arc::clone(&ticket));
        if !ticket.is_done() {
            let _leader = committer.commit.lock();
            if !ticket.is_done() {
                // We are the leader: our ticket is still queued (tickets
                // only leave the queue inside this critical section). A
                // done ticket here would mean a previous leader committed
                // it, completing it before releasing the mutex we hold.
                let group: Vec<Arc<Ticket>> = std::mem::take(&mut *committer.queue.lock());
                debug_assert!(group.iter().any(|t| Arc::ptr_eq(t, &ticket)));
                self.commit_group(pid, &group)?;
            }
        }
        let result = ticket.take_result();
        match result {
            Ok(latency) => {
                let total = latency + penalty;
                self.lat_writes.record(total);
                if let Some(ctx) = trace {
                    let mut st = StageTrace::new(ctx, TraceOp::Write, pid, start_nanos);
                    if penalty > SimDuration::ZERO {
                        st.stage(SpanKind::ThrottleWait, 0, penalty.as_nanos());
                    }
                    for span in ticket.take_stages() {
                        st.push_span(span);
                    }
                    self.tracer.finish(st.finish(total.as_nanos()));
                }
                Ok(total)
            }
            Err(e) => Err(e),
        }
    }

    /// RocksDB-style write backpressure, evaluated before a write joins
    /// the commit queue (Background mode only; Inline writes pay for
    /// maintenance directly and need no gate). Two pressure signals per
    /// partition — unsorted level-0 tables and memtable debt (size as a
    /// multiple of the flush target) — each with a *slowdown* threshold
    /// (charge [`Options::slowdown_delay`] of virtual latency) and a
    /// *stall* threshold (park the real thread until the workers catch
    /// up). Returns the virtual penalty to add to the write's latency;
    /// the engine clock is advanced by it here.
    /// `origin` is the trace id of the throttled write (0 = untraced),
    /// stamped onto the relief jobs it queues.
    fn throttle(&self, pid: usize, origin: u64) -> SimDuration {
        let Some(m) = &self.maintenance else {
            return SimDuration::ZERO;
        };
        let mut stall_start: Option<std::time::Instant> = None;
        loop {
            let (mem_bytes, unsorted) = {
                let p = self.partitions[pid].read();
                (p.mem.approximate_size(), p.unsorted_count())
            };
            let debt = mem_bytes / self.opts.memtable_bytes.max(1);
            let l0_stalled = unsorted >= self.opts.l0_stall_trigger;
            let mem_stalled = debt >= self.opts.memtable_stall_debt;
            if (l0_stalled || mem_stalled) && m.accepting() {
                if stall_start.is_none() {
                    stall_start = Some(std::time::Instant::now());
                    self.write_stalls.incr();
                }
                // Make sure relief is queued before parking (dedup makes
                // the re-enqueue per loop iteration free).
                if l0_stalled {
                    m.enqueue(Job {
                        kind: JobKind::Internal,
                        partition: pid,
                        cost: None,
                        origin_trace: origin,
                    });
                }
                if mem_stalled {
                    m.enqueue(Job {
                        kind: JobKind::Flush,
                        partition: pid,
                        cost: None,
                        origin_trace: origin,
                    });
                }
                m.wait_for_progress(std::time::Duration::from_millis(1));
                continue;
            }
            if let Some(start) = stall_start {
                self.stall_wall
                    .record_nanos(start.elapsed().as_nanos() as u64);
            }
            // Early relief: once L0 is halfway to the slowdown
            // watermark, queue an internal compaction so the workers
            // usually clear the signal before any penalty engages.
            // (Dedup makes the repeated enqueue free.)
            if unsorted * 2 >= self.opts.l0_slowdown_trigger && m.accepting() {
                m.enqueue(Job {
                    kind: JobKind::Internal,
                    partition: pid,
                    cost: None,
                    origin_trace: origin,
                });
            }
            let l0_slowed = unsorted >= self.opts.l0_slowdown_trigger;
            let mem_slowed = debt >= self.opts.memtable_slowdown_debt;
            if l0_slowed || mem_slowed {
                // A slowdown must queue its own relief: the condition
                // can sit below the engine's §IV triggers indefinitely,
                // and without help every subsequent write would keep
                // paying the penalty.
                if mem_slowed {
                    m.enqueue(Job {
                        kind: JobKind::Flush,
                        partition: pid,
                        cost: None,
                        origin_trace: origin,
                    });
                }
                self.write_slowdowns.incr();
                // Pace the writer in wall-clock time as well (RocksDB's
                // delayed-write behaviour): a penalised writer that
                // keeps running at full speed would re-trip the trigger
                // before the workers can touch the backlog.
                m.wait_for_progress(std::time::Duration::from_micros(100));
                self.advance(self.opts.slowdown_delay);
                return self.opts.slowdown_delay;
            }
            return SimDuration::ZERO;
        }
    }

    /// Route one piece of triggered maintenance onto the background
    /// queue. Returns `false` when the engine runs Inline (or the queue
    /// has shut down) and the caller must execute the work itself.
    fn offload(&self, job: Job) -> bool {
        match &self.maintenance {
            Some(m) => m.enqueue(job),
            None => false,
        }
    }

    /// Execute one background job (called from the worker threads).
    pub(crate) fn run_job(&self, job: &Job) -> Result<(), DbError> {
        match job.kind {
            JobKind::Flush => self.do_flush(job.partition, job.origin_trace),
            JobKind::Internal => {
                self.do_internal(job.partition, job.cost.clone(), job.origin_trace)
            }
            JobKind::Major => self.do_major_chunked(job.partition, job.origin_trace),
            JobKind::Retention => self.do_retention_inner(true, job.origin_trace),
        }
    }

    /// Commit one group: allocate sequences, append every record to the
    /// WAL once, apply everything to the memtable under one partition
    /// write lock, publish the sequence range, then complete every
    /// ticket. Runs with the partition's commit mutex held.
    fn commit_group(&self, pid: usize, group: &[Arc<Ticket>]) -> Result<(), DbError> {
        let mut tl = Timeline::new();
        let start_nanos = self.clock.load(Ordering::Relaxed);
        let total_ops: usize = group.iter().map(|t| t.ops.len()).sum();
        let base = self.seq.fetch_add(total_ops as u64, Ordering::Relaxed);
        let max_seq = base + total_ops as u64;
        // First sampled writer in the group becomes the origin for any
        // maintenance this commit triggers.
        let origin = group
            .iter()
            .find_map(|t| t.trace.map(|c| c.trace_id))
            .unwrap_or(0);
        // One WAL pass for the whole group: append every record, then
        // one group sync — an acked commit is durable (the crash-proof
        // tests depend on exactly this), at one fsync per group rather
        // than per record. Any failure fails the whole group before the
        // memtable sees it.
        let mut rotated = None;
        if let Some(ring) = &self.wal {
            let fail_group = |e: String| {
                for t in group {
                    t.complete(Err(DbError::Commit(e.clone())));
                }
            };
            let mut ring = ring.lock();
            let mut seq = base;
            for ticket in group {
                for op in &ticket.ops {
                    seq += 1;
                    let rec = match op {
                        BatchOp::Put { key, value } => WalRecord {
                            seq,
                            kind: KeyKind::Value,
                            user_key: key.clone(),
                            value: value.clone(),
                        },
                        BatchOp::Delete { key } => WalRecord {
                            seq,
                            kind: KeyKind::Delete,
                            user_key: key.clone(),
                            value: Vec::new(),
                        },
                    };
                    if let Err(e) = ring.active.append(&rec, &mut tl) {
                        // The group never reached the memtable; fail every
                        // ticket with the same diagnostic.
                        fail_group(format!("wal append: {e}"));
                        return Ok(());
                    }
                    ring.note_append(pid, seq);
                    self.wal_appends.incr();
                }
            }
            let sync_from = tl.elapsed();
            if let Err(e) = ring.active.sync(&mut tl) {
                fail_group(format!("wal sync: {e}"));
                return Ok(());
            }
            self.wal_syncs.incr();
            self.wal_sync_latency.record(tl.elapsed() - sync_from);
            if ring.active.bytes_written() >= self.opts.wal_segment_bytes as u64 {
                match ring.rotate() {
                    Ok(segment) => rotated = Some(segment),
                    Err(e) => {
                        // The records are durable, but with no segment to
                        // append to the engine cannot proceed; report the
                        // group failed (recovery may still surface it —
                        // the usual ambiguity of a commit that died
                        // between durability and the ack).
                        fail_group(format!("wal rotate: {e}"));
                        return Ok(());
                    }
                }
            }
        }
        let wal_nanos = tl.elapsed().as_nanos();
        // One memtable apply for the whole group.
        let mut group_bytes = 0u64;
        let mem_full = {
            let mut p = self.partitions[pid].write();
            let mut seq = base;
            for ticket in group {
                for op in &ticket.ops {
                    seq += 1;
                    let (key, value, kind) = match op {
                        BatchOp::Put { key, value } => (key, value.as_slice(), KeyKind::Value),
                        BatchOp::Delete { key } => {
                            self.stats.deletes.incr();
                            (key, &b""[..], KeyKind::Delete)
                        }
                    };
                    p.note_write(key);
                    p.mem.insert(key, seq, kind, value, &mut tl);
                    self.stats.puts.incr();
                    group_bytes += (key.len() + value.len()) as u64;
                    self.stats
                        .user_bytes_written
                        .add((key.len() + value.len()) as u64);
                    if kind == KeyKind::Value {
                        self.value_bytes_sum
                            .fetch_add(value.len() as u64, Ordering::Relaxed);
                        self.value_count.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            p.mem.approximate_size() >= self.opts.memtable_bytes
        };
        let apply_nanos = tl.elapsed().as_nanos().saturating_sub(wal_nanos);
        // Publish: snapshots taken from here on see the whole group.
        self.visible_seq.fetch_max(max_seq, Ordering::AcqRel);
        self.stats.group_commits.incr();
        self.stats.grouped_writes.add(total_ops as u64);
        let committer = &self.committers[pid];
        committer.metrics.group_commits.incr();
        committer.metrics.grouped_writes.add(total_ops as u64);
        let elapsed = tl.elapsed();
        self.advance(elapsed);
        self.commit_latency.record(elapsed);
        // Group-commit spans go to listeners and metrics only — the
        // ring is reserved for compaction history.
        if !self.opts.listeners.is_empty() {
            let span = TraceSpan {
                id: self.next_span_id(),
                trace_id: origin,
                kind: SpanKind::GroupCommit,
                partition: pid,
                start_nanos,
                end_nanos: start_nanos + elapsed.as_nanos(),
                input_records: total_ops as u64,
                output_records: total_ops as u64,
                input_bytes: group_bytes,
                output_bytes: group_bytes,
                value_size: self.mean_value_size(),
                cost: None,
            };
            self.opts.listeners.group_commit(&span);
        }
        // Maintenance the group triggered. Inline mode runs the flush
        // *before* the tickets complete and bills its virtual time to
        // the group — the triggering writers observe the latency spike
        // they caused, which is exactly the cost Background mode moves
        // off the write path (there the trigger is one enqueue).
        let mut maintenance = SimDuration::ZERO;
        let mut flush_err = None;
        if mem_full {
            let offloaded = self.offload(Job {
                kind: JobKind::Flush,
                partition: pid,
                cost: None,
                origin_trace: origin,
            });
            if !offloaded {
                // Still holding the commit mutex: no new group can race
                // the flush into a half-frozen memtable.
                let before = self.clock.load(Ordering::Relaxed);
                if let Err(e) = self.do_flush(pid, origin) {
                    flush_err = Some(e);
                }
                maintenance = SimDuration::from_nanos(
                    self.clock.load(Ordering::Relaxed).saturating_sub(before),
                );
            }
        }
        // Charge each ticket its share of the group's virtual time
        // (including any inline maintenance). Tickets always complete,
        // even on a flush error — the group itself durably committed.
        let billed = elapsed + maintenance;
        for ticket in group {
            let ops = ticket.ops.len() as u64;
            let share_of = |nanos: u64| nanos * ops / total_ops.max(1) as u64;
            let share = SimDuration::from_nanos(share_of(billed.as_nanos()));
            // Sampled writers get their share of the group's work split
            // into stages on the group's timeline. Shares use the same
            // integer scaling as the billed latency, so the per-stage
            // sum can never exceed the ticket's reported latency.
            if let Some(ctx) = ticket.trace {
                let wal_share = share_of(wal_nanos);
                let apply_share = share_of(apply_nanos);
                let wait = share.as_nanos().saturating_sub(wal_share + apply_share);
                let mk = |kind: SpanKind, from: u64, to: u64, records: u64| TraceSpan {
                    id: 0,
                    trace_id: ctx.trace_id,
                    kind,
                    partition: pid,
                    start_nanos: start_nanos + from,
                    end_nanos: start_nanos + to,
                    input_records: records,
                    output_records: records,
                    input_bytes: 0,
                    output_bytes: 0,
                    value_size: 0,
                    cost: None,
                };
                let mut stages = Vec::with_capacity(3);
                if wal_share > 0 {
                    stages.push(mk(SpanKind::WalAppend, 0, wal_share, ops));
                }
                stages.push(mk(
                    SpanKind::MemtableApply,
                    wal_share,
                    wal_share + apply_share,
                    ops,
                ));
                if wait > 0 {
                    stages.push(mk(
                        SpanKind::LeaderWait,
                        wal_share + apply_share,
                        wal_share + apply_share + wait,
                        total_ops as u64,
                    ));
                }
                *ticket.stages.lock() = stages;
            }
            ticket.complete(Ok(share));
        }
        // Record the rotation once the tickets are done (recovery lists
        // segment files directly, so the edit is advisory ordering-wise,
        // but it keeps the manifest's segment watermark moving).
        if let Some(segment) = rotated {
            self.append_manifest_edits(&[VersionEdit::WalRotate { segment }])?;
        }
        match flush_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Point read at the latest snapshot.
    pub fn get(&self, user_key: &[u8]) -> Result<ReadOutcome, DbError> {
        self.get_at_with(user_key, SequenceNumber::MAX, self.tracer.sample())
    }

    /// [`DbCore::get`] under a caller-supplied trace context (the wire
    /// entry point for `Request::Traced`).
    pub fn get_traced(&self, user_key: &[u8], ctx: TraceContext) -> Result<ReadOutcome, DbError> {
        self.get_at_with(user_key, SequenceNumber::MAX, self.tracer.adopt(ctx))
    }

    /// Point read at a snapshot (see [`DbCore::snapshot`]).
    pub fn get_at(
        &self,
        user_key: &[u8],
        snapshot: SequenceNumber,
    ) -> Result<ReadOutcome, DbError> {
        self.get_at_with(user_key, snapshot, self.tracer.sample())
    }

    /// The read path proper.
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
    /// When `trace` is set, each leg records a stage span from the
    /// `Timeline::elapsed` deltas around it — measured sub-intervals of
    /// the same virtual timeline that produces the read's latency, so
    /// the stage sum can never exceed the total. Untraced reads take
    /// the exact pre-tracing path (one `None` check per leg).
    fn get_at_with(
        &self,
        user_key: &[u8],
        snapshot: SequenceNumber,
        trace: Option<TraceContext>,
    ) -> Result<ReadOutcome, DbError> {
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
                if probe.filter_checked > 0 {
                    s.stage_counts(
                        SpanKind::FilterConsult,
                        cursor,
                        cursor + probe.filter_nanos,
                        probe.filter_checked,
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
                self.ssd_read_errors.incr();
                self.advance(tl.elapsed());
                return Err(e);
            }
        };
        self.stats.note_read(source);
        self.note_read_source(pid, source, ssd_level);
        let latency = tl.elapsed();
        self.advance(latency);
        self.lat_reads.record(latency);
        if let Some(s) = st {
            self.tracer.finish(s.finish(latency.as_nanos()));
        }
        Ok(ReadOutcome {
            value: hit.and_then(|l| l.into_value()),
            source,
            latency,
        })
    }

    /// The shared PM-L0 group-decode cache (for diagnostics and tests).
    pub fn group_cache(&self) -> &PmGroupCache {
        &self.group_cache
    }

    /// Fold one PM-L0 probe's filter/probe outcome into the global
    /// counters and the tables-probed-per-get distribution.
    fn note_probe_stats(&self, probe: &ProbeStats) {
        self.pm_tables_probed.record_nanos(probe.tables_probed);
        if probe.filter_checked > 0 {
            self.pm_filter_checked.add(probe.filter_checked);
            self.pm_filter_useful.add(probe.filter_useful);
            self.pm_filter_miss.add(probe.filter_false_positives);
        }
    }

    /// The observed bloom-filter prune ratio: the fraction of filter
    /// checks that skipped a table probe. Feeds the filtered Eq 1
    /// (pruned probes cost ~nothing, so internal compaction can wait).
    fn filter_prune_ratio(&self) -> f64 {
        let checked = self.pm_filter_checked.get();
        if checked == 0 {
            0.0
        } else {
            self.pm_filter_useful.get() as f64 / checked as f64
        }
    }

    /// Bump the per-partition (and, for SSD hits, per-level) read-source
    /// counters. `level` is 0 for an SSD level-0 table hit, 1+ for the
    /// sorted levels.
    fn note_read_source(&self, pid: usize, source: ReadSource, level: Option<usize>) {
        let m = &self.read_metrics[pid];
        m.reads.incr();
        match source {
            ReadSource::MemTable => m.memtable.incr(),
            ReadSource::Pm => m.pm.incr(),
            ReadSource::Miss => m.miss.incr(),
            ReadSource::Ssd => {
                let level = level.unwrap_or(0);
                let resolve = || {
                    let key = MetricKey::level("read_source_ssd", pid, level);
                    self.registry.counter(key)
                };
                match m.ssd.get(level) {
                    Some(slot) => slot.get_or_init(resolve).incr(),
                    None => resolve().incr(),
                }
            }
        }
    }

    /// Range scan described by a [`ScanRequest`]: the live
    /// `(key, value)` rows of `[start, end)` — at most `limit`,
    /// largest-first when `reverse` — plus the scan's virtual latency.
    /// Each partition is read under its lock; the scan as a whole is
    /// not a point-in-time snapshot across partitions.
    pub fn scan(&self, request: ScanRequest) -> Result<ScanResult, DbError> {
        self.scan_with(request, self.tracer.sample())
    }

    /// [`DbCore::scan`] under a caller-supplied trace context (the wire
    /// entry point for `Request::Traced`).
    pub fn scan_traced(
        &self,
        request: ScanRequest,
        ctx: TraceContext,
    ) -> Result<ScanResult, DbError> {
        self.scan_with(request, self.tracer.adopt(ctx))
    }

    fn scan_with(
        &self,
        request: ScanRequest,
        trace: Option<TraceContext>,
    ) -> Result<ScanResult, DbError> {
        let mut tl = Timeline::new();
        let start_nanos = self.clock.load(Ordering::Relaxed);
        self.stats.scans.incr();
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
                self.ssd_read_errors.incr();
                self.advance(tl.elapsed());
                return Err(e);
            }
        }
        let latency = tl.elapsed();
        self.advance(latency);
        self.lat_scans.record(latency);
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
        self.read_metrics[pid].reads.incr();
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

    // ---------------------------------------------------------------
    // Compaction driving (Algorithm 1)
    // ---------------------------------------------------------------

    /// Run a compaction now. This is the single entry point for every
    /// manually-triggered compaction; the engine calls the same internal
    /// paths from its automatic triggers.
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
        match request {
            CompactionRequest::Flush { partition } => self.do_flush(partition, 0),
            CompactionRequest::FlushAll => {
                for pid in 0..self.partitions.len() {
                    self.do_flush(pid, 0)?;
                }
                Ok(())
            }
            CompactionRequest::Internal { partition } => self.do_internal(partition, None, 0),
            CompactionRequest::Major { partition } => self.do_major(partition, 0),
            CompactionRequest::MajorWithRetention => self.do_retention(0),
        }
    }

    /// `origin` throughout the maintenance chain is the trace id of the
    /// sampled foreground request that triggered the work (0 = none, or
    /// the trigger was untraced); it lands in each maintenance span's
    /// `trace_id` so a flight-recorder trace can be cross-linked to the
    /// flush/compaction it caused.
    fn do_flush(&self, pid: usize, origin: u64) -> Result<(), DbError> {
        let mut tl = Timeline::new();
        let start_nanos = self.clock.load(Ordering::Relaxed);
        self.opts.listeners.flush_begin(pid);
        let pm_written_before = self.pool.stats().bytes_written.get();
        let ssd_written_before = self.device.stats().bytes_written.get();
        if let Some(wal) = &self.wal {
            let mut sync_tl = Timeline::new();
            wal.lock().active.sync(&mut sync_tl)?;
            self.wal_syncs.incr();
            self.wal_sync_latency.record(sync_tl.elapsed());
            tl.charge(sync_tl.elapsed());
        }
        let (report, version) = {
            let mut p = self.partitions[pid].write();
            let report = p.minor_compaction(
                &self.opts,
                &self.pool,
                &self.device,
                &self.cache,
                &self.table_counter,
                &self.cache_ids,
                &mut tl,
            )?;
            let version = report.map(|_| self.partition_version(&p));
            (report, version)
        };
        let flushed = match report {
            Some(report) => {
                // The flushed tables are already visible to readers;
                // make them durable in the manifest and move the WAL
                // checkpoint past the flushed records.
                self.log_version(
                    version.expect("set with report"),
                    Some((pid, report.durable_seq)),
                )?;
                self.stats.minor_compactions.incr();
                let d = tl.elapsed();
                self.advance(d);
                // Record which codec this flush encoded with (encoding
                // v2) — as a per-codec counter, a cost-decision event,
                // and the flush span's `flush_codec_decision` stage.
                // Only PM-table flushes pick a codec; the matrix and
                // SSD level-0 containers have no codec to choose.
                let pm_bytes = self.pool.stats().bytes_written.get() - pm_written_before;
                let codec_choice =
                    matches!(self.opts.mode, Mode::PmBlade | Mode::PmBladePm).then(|| {
                        let codec = pmtable::CODEC_NAMES[report.codec as usize];
                        let decision = CostDecision::CodecChoice {
                            partition: pid,
                            codec,
                            entries: report.entries,
                            pm_bytes: pm_bytes as usize,
                        };
                        self.registry
                            .counter(MetricKey::codec("pm_codec_chosen_total", codec))
                            .incr();
                        self.note_cost_decision(&decision);
                        decision
                    });
                let span = TraceSpan {
                    id: self.next_span_id(),
                    trace_id: origin,
                    kind: SpanKind::Flush,
                    partition: pid,
                    start_nanos,
                    end_nanos: start_nanos + d.as_nanos(),
                    input_records: report.entries as u64,
                    output_records: report.entries as u64,
                    input_bytes: report.bytes as u64,
                    output_bytes: pm_bytes
                        + (self.device.stats().bytes_written.get() - ssd_written_before),
                    value_size: self.mean_value_size(),
                    cost: codec_choice,
                };
                self.ring.push(span.clone());
                self.opts.listeners.flush_complete(&span);
                true
            }
            None => {
                // Nothing to flush: close the begin/complete pair with a
                // zero-work span.
                let span = self.empty_span(SpanKind::Flush, pid, start_nanos, None, origin);
                self.opts.listeners.flush_complete(&span);
                false
            }
        };
        if flushed {
            self.apply_strategy(pid, origin)?;
        }
        Ok(())
    }

    /// Algorithm 1: run after a PM table lands in partition `pid`. The
    /// trigger state is sampled under a read lock and the lock dropped
    /// before acting; the compaction paths re-check what is actually
    /// there, so a racing compaction at worst makes one of them a no-op.
    fn apply_strategy(&self, pid: usize, origin: u64) -> Result<(), DbError> {
        match self.opts.mode {
            Mode::PmBlade => {
                let now = self.now();
                let (d_eq1, d_eq2, d_hard, unsorted) = {
                    let partition = self.partitions[pid].read();
                    let unsorted = partition.unsorted_count();
                    // Per-codec decode CPU (encoding v2): a probe of a
                    // delta/fixed table pays that codec's measured group
                    // decode on top of the PM read, and an internal pass
                    // re-decodes every record it rewrites. Entries-
                    // weighted over the live level-0 so Eq 1/2 price the
                    // actual mix (zero with an uncalibrated cost table).
                    let (probe_decode, decode_per_record) = match &partition.level0 {
                        Level0::Pm(l0) => (
                            self.opts
                                .codec_costs
                                .probe_decode(l0.unsorted().iter().map(|h| (h.codec, h.entries))),
                            self.opts
                                .codec_costs
                                .decode_per_record(l0.tables().map(|h| (h.codec, h.entries))),
                        ),
                        _ => (SimDuration::ZERO, SimDuration::ZERO),
                    };
                    // Line 1-3: Eq 1 — read-amplification relief.
                    // Bloom-pruned probes cost ~nothing, so the benefit
                    // is discounted by the observed prune ratio.
                    let d_eq1 = explain_read_benefit_coded(
                        pid,
                        &partition.counters,
                        unsorted,
                        now,
                        &self.opts.scalars,
                        self.filter_prune_ratio(),
                        probe_decode,
                    );
                    // Line 4-6: Eq 2 — write-amplification relief, gated
                    // on the partition exceeding τ_w.
                    let l0_records = match &partition.level0 {
                        Level0::Pm(l0) => l0.entries(),
                        _ => 0,
                    };
                    let d_eq2 = explain_write_benefit_coded(
                        pid,
                        &partition.counters,
                        l0_records,
                        partition.pm_bytes() >= self.opts.tau_w,
                        &self.opts.scalars,
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
                    let cause = [d_eq1, d_eq2, d_hard].into_iter().find(|d| d.triggered());
                    let offloaded = self.offload(Job {
                        kind: JobKind::Internal,
                        partition: pid,
                        cost: cause.clone(),
                        origin_trace: origin,
                    });
                    if !offloaded {
                        self.do_internal(pid, cause, origin)?;
                    }
                }
                // Line 7-9: Eq 3 — major compaction with retention.
                if self.pool.used() >= self.opts.tau_m {
                    let offloaded = self.offload(Job {
                        kind: JobKind::Retention,
                        partition: maintenance::GLOBAL_PARTITION,
                        cost: None,
                        origin_trace: origin,
                    });
                    if !offloaded {
                        self.do_retention(origin)?;
                    }
                }
            }
            Mode::PmBladePm => {
                // Conventional strategy (the paper's PMBlade-PM): no
                // internal compaction; when the number of PM tables hits
                // the RocksDB-style count threshold, the whole level-0
                // is compacted to level-1 — leaving the PM capacity
                // underutilized, exactly the behaviour the paper
                // criticises.
                if self.partitions[pid].read().unsorted_count() >= self.opts.l0_table_trigger
                    || self.pool.used() >= self.opts.tau_m
                {
                    self.major_or_enqueue(pid, origin)?;
                }
            }
            Mode::MatrixKv => {
                // Column compaction drains the container when PM fills;
                // no retention.
                if self.pool.used() >= self.opts.tau_m {
                    for pid in 0..self.partitions.len() {
                        self.major_or_enqueue(pid, origin)?;
                    }
                }
            }
            Mode::SsdLevel0 => {
                if self.partitions[pid]
                    .read()
                    .ssd_l0_full(self.opts.l0_table_trigger)
                {
                    self.major_or_enqueue(pid, origin)?;
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
        let mut tl = Timeline::new();
        let start_nanos = self.clock.load(Ordering::Relaxed);
        self.opts
            .listeners
            .compaction_begin(SpanKind::Internal, pid);
        let pm_read_before = self.pool.stats().bytes_read.get();
        let pm_written_before = self.pool.stats().bytes_written.get();
        let mut p = self.partitions[pid].write();
        let result = p.internal_compaction(
            &self.opts,
            &self.pool,
            &self.cache_ids,
            &self.compaction_input_errors,
            &mut tl,
        );
        let result = match result {
            Ok(r) => r,
            Err(DbError::Pm(PmError::OutOfSpace { .. })) => {
                drop(p);
                // PM cannot fit the new sorted run: close this span
                // empty and fall back to a major compaction, which
                // frees the partition's PM space instead.
                let span = self.empty_span(SpanKind::Internal, pid, start_nanos, cost, origin);
                self.opts.listeners.compaction_complete(&span);
                return self.do_major(pid, origin);
            }
            Err(e) => return Err(e),
        };
        let span = if let Some(report) = result {
            let now = self.now();
            p.counters.reset(now);
            let version = self.partition_version(&p);
            drop(p);
            // Manifest first, then free: a crash between the in-memory
            // install and the append leaves the old regions as orphans
            // for recovery GC, never a version that references freed
            // media.
            self.log_version(version, None)?;
            for region in &report.retired_regions {
                self.pool.free(*region);
            }
            // The merged-away tables can never serve a read again (their
            // ids are never reused); purging just reclaims cache space.
            for id in &report.retired_cache_ids {
                self.group_cache.purge_table(*id);
            }
            self.stats.internal_compactions.incr();
            self.stats
                .internal_space_released
                .add(report.bytes_released as u64);
            self.stats
                .internal_dropped_records
                .add((report.records_before - report.records_after) as u64);
            let d = tl.elapsed();
            self.advance(d);
            let span = TraceSpan {
                id: self.next_span_id(),
                trace_id: origin,
                kind: SpanKind::Internal,
                partition: pid,
                start_nanos,
                end_nanos: start_nanos + d.as_nanos(),
                input_records: report.records_before as u64,
                output_records: report.records_after as u64,
                input_bytes: self.pool.stats().bytes_read.get() - pm_read_before,
                output_bytes: self.pool.stats().bytes_written.get() - pm_written_before,
                value_size: self.mean_value_size(),
                cost,
            };
            self.ring.push(span.clone());
            span
        } else {
            drop(p);
            self.empty_span(SpanKind::Internal, pid, start_nanos, cost, origin)
        };
        self.opts.listeners.compaction_complete(&span);
        Ok(())
    }

    /// Trigger-site helper: enqueue a major compaction in Background
    /// mode, run it inline otherwise.
    fn major_or_enqueue(&self, pid: usize, origin: u64) -> Result<(), DbError> {
        let offloaded = self.offload(Job {
            kind: JobKind::Major,
            partition: pid,
            cost: None,
            origin_trace: origin,
        });
        if offloaded {
            Ok(())
        } else {
            self.do_major(pid, origin)
        }
    }

    /// Major-compact one partition (its whole level-0 into level-1).
    fn do_major(&self, pid: usize, origin: u64) -> Result<(), DbError> {
        self.do_major_limited(pid, usize::MAX, origin)
    }

    /// The §V-C compaction splitter applied to real work: move the
    /// partition's level-0 in `k = max(⌊q/c⌋, 1)` installs, yielding
    /// the partition lock (and the CPU) between chunks so foreground
    /// operations interleave with a large major compaction. Used by the
    /// background workers; the inline path keeps the single-install
    /// major for deterministic span counts.
    fn do_major_chunked(&self, pid: usize, origin: u64) -> Result<(), DbError> {
        let k = crate::compaction::chunk_count(&self.opts.scheduler);
        let total = self.partitions[pid].read().l0_table_count();
        if k <= 1 || total == 0 {
            // Nothing to split (or a Matrix/SSD level-0, which drains
            // in one install regardless).
            return self.do_major(pid, origin);
        }
        let per_chunk = total.div_ceil(k).max(1);
        // Each limited pass moves the *oldest* tables first, so between
        // chunks the remaining level-0 still shadows level-1 for every
        // key it holds. Loop until empty: a concurrent flush may add
        // tables mid-pass, and each pass removes at least one table, so
        // this terminates once the partition quiesces.
        while self.partitions[pid].read().l0_table_count() > 0 {
            self.do_major_limited(pid, per_chunk, origin)?;
            std::thread::yield_now();
        }
        Ok(())
    }

    /// One major-compaction install moving at most `table_limit`
    /// level-0 tables (oldest first; `usize::MAX` moves everything).
    fn do_major_limited(&self, pid: usize, table_limit: usize, origin: u64) -> Result<(), DbError> {
        let mut tl = Timeline::new();
        let start_nanos = self.clock.load(Ordering::Relaxed);
        self.opts.listeners.compaction_begin(SpanKind::Major, pid);
        // Device counters are global: a compaction racing on another
        // partition skews this event's work attribution but never the
        // cumulative totals.
        let pm_read_before = self.pool.stats().bytes_read.get();
        let ssd_written_before = self.device.stats().bytes_written.get();
        let mut p = self.partitions[pid].write();
        let entries_in = |p: &Partition| match &p.level0 {
            Level0::Pm(l0) => l0.entries(),
            Level0::Matrix(m) => m.entries(),
            Level0::Ssd(tables) => tables.len() * 1000,
        };
        let records_before = entries_in(&p) as u64;
        let report = p.major_compaction(
            &self.opts,
            &self.device,
            &self.cache,
            &self.table_counter,
            table_limit,
            &self.compaction_input_errors,
            &mut tl,
        )?;
        // For a limited pass, only the moved slice counts as this
        // span's input.
        let records = records_before.saturating_sub(entries_in(&p) as u64);
        let now = self.now();
        p.counters.reset(now);
        let version = self.partition_version(&p);
        drop(p);
        // Manifest first, then delete/free. Deleting after the lock is
        // dropped is safe: the install above removed every handle to
        // the replaced tables, so no reader can reach them, and a crash
        // before the deletes only leaves orphans for recovery GC.
        self.log_version(version, None)?;
        for name in &report.deleted_tables {
            let _ = self.device.delete(name);
            self.cache.purge_table(sstable::cache::table_id(name));
        }
        for region in &report.released_regions {
            self.pool.free(*region);
        }
        // Retired PM tables left level-0; reclaim their cached groups.
        for id in &report.retired_cache_ids {
            self.group_cache.purge_table(*id);
        }
        self.stats.major_compactions.incr();
        let d = tl.elapsed();
        self.advance(d);
        let span = TraceSpan {
            id: self.next_span_id(),
            trace_id: origin,
            kind: SpanKind::Major,
            partition: pid,
            start_nanos,
            end_nanos: start_nanos + d.as_nanos(),
            input_records: records,
            output_records: records,
            input_bytes: self.pool.stats().bytes_read.get() - pm_read_before,
            output_bytes: self.device.stats().bytes_written.get() - ssd_written_before,
            value_size: self.mean_value_size(),
            cost: None,
        };
        self.ring.push(span.clone());
        self.opts.listeners.compaction_complete(&span);
        Ok(())
    }

    /// Eq 3: keep the hottest partitions in PM, compact the rest, and
    /// keep evicting colder retained partitions until PM is below τ_m.
    /// Partition locks are taken one at a time (candidate sampling,
    /// then each victim's compaction) — never two at once.
    fn do_retention(&self, origin: u64) -> Result<(), DbError> {
        self.do_retention_inner(false, origin)
    }

    /// `chunked` selects the background flavor: victims move through
    /// [`DbCore::do_major_chunked`] with a yield between partitions, so
    /// one retention pass never monopolizes a worker.
    fn do_retention_inner(&self, chunked: bool, origin: u64) -> Result<(), DbError> {
        let evict = |pid: usize| -> Result<(), DbError> {
            if chunked {
                let r = self.do_major_chunked(pid, origin);
                std::thread::yield_now();
                r
            } else {
                self.do_major(pid, origin)
            }
        };
        let candidates: Vec<RetentionCandidate> = self
            .partitions
            .iter()
            .map(|lock| {
                let p = lock.read();
                RetentionCandidate {
                    partition: p.id,
                    reads: p.counters.reads.get(),
                    bytes: p.pm_bytes(),
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
                    let density = p.counters.reads.get() as f64 / p.pm_bytes().max(1) as f64;
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
mod tests {
    use super::*;
    use crate::options::Partitioner;

    // Compile-time proof that the engine can be shared across threads.
    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Db>();
    };

    fn small_opts(mode: Mode) -> Options {
        Options {
            mode,
            pm_capacity: 1 << 20,
            memtable_bytes: 8 << 10,
            tau_w: 16 << 10,
            tau_m: 768 << 10,
            tau_t: 384 << 10,
            l1_target: 256 << 10,
            max_table_bytes: 64 << 10,
            ..Options::default()
        }
    }

    fn fill(db: &Db, n: usize, vlen: usize, tag: &str) {
        for i in 0..n {
            let k = format!("key{:08}", i);
            let v = format!("{tag}-{}", "x".repeat(vlen));
            db.put(k.as_bytes(), v.as_bytes()).unwrap();
        }
    }

    #[test]
    fn put_get_roundtrip_through_memtable() {
        let db = Db::open(small_opts(Mode::PmBlade)).unwrap();
        db.put(b"hello", b"world").unwrap();
        let out = db.get(b"hello").unwrap();
        assert_eq!(out.value.as_deref(), Some(&b"world"[..]));
        assert_eq!(out.source, ReadSource::MemTable);
        assert!(out.latency > SimDuration::ZERO);
        assert_eq!(db.get(b"missing").unwrap().value, None);
    }

    #[test]
    fn flush_moves_data_to_pm() {
        let db = Db::open(small_opts(Mode::PmBlade)).unwrap();
        fill(&db, 100, 100, "a");
        db.compact(CompactionRequest::FlushAll).unwrap();
        assert!(db.pm_used() > 0);
        let out = db.get(b"key00000050").unwrap();
        assert_eq!(out.source, ReadSource::Pm);
        assert!(out.value.is_some());
        assert!(db.stats().minor_compactions.get() >= 1);
    }

    #[test]
    fn updates_supersede_and_deletes_hide() {
        let db = Db::open(small_opts(Mode::PmBlade)).unwrap();
        db.put(b"k", b"v1").unwrap();
        db.put(b"k", b"v2").unwrap();
        assert_eq!(db.get(b"k").unwrap().value.as_deref(), Some(&b"v2"[..]));
        db.delete(b"k").unwrap();
        assert_eq!(db.get(b"k").unwrap().value, None);
        // Across a flush too.
        db.put(b"p", b"q").unwrap();
        db.compact(CompactionRequest::FlushAll).unwrap();
        db.delete(b"p").unwrap();
        db.compact(CompactionRequest::FlushAll).unwrap();
        assert_eq!(db.get(b"p").unwrap().value, None);
    }

    #[test]
    fn snapshot_reads_see_past_versions() {
        let db = Db::open(small_opts(Mode::PmBlade)).unwrap();
        db.put(b"k", b"old").unwrap();
        let snap = db.snapshot();
        db.put(b"k", b"new").unwrap();
        assert_eq!(
            db.get_at(b"k", snap).unwrap().value.as_deref(),
            Some(&b"old"[..])
        );
        assert_eq!(db.get(b"k").unwrap().value.as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn write_batch_applies_atomically_per_partition() {
        let db = Db::open(small_opts(Mode::PmBlade)).unwrap();
        db.put(b"a", b"0").unwrap();
        let before = db.snapshot();
        let mut batch = WriteBatch::new();
        batch
            .put(&b"a"[..], &b"1"[..])
            .put(&b"b"[..], &b"1"[..])
            .delete(&b"c"[..]);
        let latency = db.write_batch(batch).unwrap();
        assert!(latency > SimDuration::ZERO);
        let after = db.snapshot();
        // Pre-batch snapshot sees none of the batch.
        assert_eq!(
            db.get_at(b"a", before).unwrap().value.as_deref(),
            Some(&b"0"[..])
        );
        assert_eq!(db.get_at(b"b", before).unwrap().value, None);
        // Post-batch snapshot sees all of it.
        assert_eq!(
            db.get_at(b"a", after).unwrap().value.as_deref(),
            Some(&b"1"[..])
        );
        assert_eq!(
            db.get_at(b"b", after).unwrap().value.as_deref(),
            Some(&b"1"[..])
        );
        assert_eq!(db.stats().batch_writes.get(), 1);
        assert!(db.stats().group_commits.get() >= 1);
        assert!(db.stats().grouped_writes.get() >= 3);
        // An empty batch is a no-op.
        assert_eq!(
            db.write_batch(WriteBatch::new()).unwrap(),
            SimDuration::ZERO
        );
    }

    #[test]
    fn writes_trigger_automatic_flush_and_internal_compaction() {
        let mut opts = small_opts(Mode::PmBlade);
        opts.l0_unsorted_hard_cap = 3;
        let db = Db::open(opts).unwrap();
        // Enough data for multiple memtable freezes.
        fill(&db, 1500, 64, "x");
        assert!(db.stats().minor_compactions.get() >= 3);
        assert!(
            db.stats().internal_compactions.get() >= 1,
            "hard cap must force internal compaction"
        );
        // Everything still readable.
        for i in (0..1500).step_by(173) {
            let k = format!("key{:08}", i);
            assert!(db.get(k.as_bytes()).unwrap().value.is_some(), "missing {k}");
        }
    }

    #[test]
    fn pm_pressure_triggers_major_compaction() {
        let mut opts = small_opts(Mode::PmBlade);
        opts.tau_m = 128 << 10;
        opts.tau_t = 64 << 10;
        let db = Db::open(opts).unwrap();
        fill(&db, 3000, 64, "y");
        assert!(
            db.stats().major_compactions.get() >= 1,
            "PM pressure must force major compaction"
        );
        assert!(db.ssd().stats().bytes_written.get() > 0);
        for i in (0..3000).step_by(311) {
            let k = format!("key{:08}", i);
            assert!(db.get(k.as_bytes()).unwrap().value.is_some());
        }
    }

    #[test]
    fn rocksdb_mode_uses_ssd_level0() {
        let db = Db::open(small_opts(Mode::SsdLevel0)).unwrap();
        fill(&db, 600, 64, "r");
        db.compact(CompactionRequest::FlushAll).unwrap();
        assert_eq!(db.pm_used(), 0, "no PM in SSD-L0 mode");
        assert!(db.ssd().stats().bytes_written.get() > 0);
        let out = db.get(b"key00000100").unwrap();
        assert!(out.value.is_some());
        assert_eq!(out.source, ReadSource::Ssd);
    }

    #[test]
    fn matrixkv_mode_round_trips() {
        let db = Db::open(small_opts(Mode::MatrixKv)).unwrap();
        fill(&db, 800, 64, "m");
        db.compact(CompactionRequest::FlushAll).unwrap();
        assert!(db.pm_used() > 0);
        for i in (0..800).step_by(97) {
            let k = format!("key{:08}", i);
            assert!(db.get(k.as_bytes()).unwrap().value.is_some());
        }
    }

    #[test]
    fn scan_merges_tiers_in_order() {
        let db = Db::open(small_opts(Mode::PmBlade)).unwrap();
        for i in 0..50 {
            db.put(format!("a{:04}", i).as_bytes(), b"old").unwrap();
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
        // Overwrite a few in the memtable.
        db.put(b"a0010", b"new").unwrap();
        db.delete(b"a0011").unwrap();
        let (items, latency) = db
            .scan(ScanRequest::new().start("a0005").end("a0015").limit(100))
            .unwrap();
        let keys: Vec<String> = items
            .iter()
            .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
            .collect();
        assert_eq!(keys.len(), 9, "10 keys minus 1 tombstone: {keys:?}");
        assert!(!keys.contains(&"a0011".to_string()));
        let val = &items[5]; // a0010
        assert_eq!(val.0, b"a0010");
        assert_eq!(val.1, b"new");
        assert!(latency > SimDuration::ZERO);
        // Sorted output.
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn scan_respects_limit() {
        let db = Db::open(small_opts(Mode::PmBlade)).unwrap();
        for i in 0..100 {
            db.put(format!("s{:04}", i).as_bytes(), b"v").unwrap();
        }
        let (items, _) = db.scan(ScanRequest::new().start("s").limit(7)).unwrap();
        assert_eq!(items.len(), 7);
        // Reverse scans return the largest keys first.
        let (rev, _) = db
            .scan(ScanRequest::new().start("s").limit(7).reverse(true))
            .unwrap();
        assert_eq!(rev.len(), 7);
        assert_eq!(rev[0].0, b"s0099".to_vec());
        assert!(rev.windows(2).all(|w| w[0].0 > w[1].0));
    }

    #[test]
    fn partitioned_engine_routes_and_scans_across_partitions() {
        let mut opts = small_opts(Mode::PmBlade);
        opts.partitioner = Partitioner::Ranges(vec![b"key00000500".to_vec()]);
        let db = Db::open(opts).unwrap();
        fill(&db, 1000, 32, "p");
        db.compact(CompactionRequest::FlushAll).unwrap();
        assert!(db.get(b"key00000100").unwrap().value.is_some());
        assert!(db.get(b"key00000900").unwrap().value.is_some());
        // Scan spanning the boundary.
        let (items, _) = db
            .scan(
                ScanRequest::new()
                    .start("key00000490")
                    .end("key00000510")
                    .limit(100),
            )
            .unwrap();
        assert_eq!(items.len(), 20);
    }

    #[test]
    fn write_amplification_accounting_sane() {
        let mut opts = small_opts(Mode::PmBlade);
        opts.tau_m = 128 << 10;
        let db = Db::open(opts).unwrap();
        fill(&db, 2000, 64, "w");
        db.compact(CompactionRequest::FlushAll).unwrap();
        let wa = db.write_amp();
        assert!(wa.user_bytes > 0);
        assert!(wa.pm_bytes > 0, "flushes write PM");
        // Amplification factor must exceed 1 once compactions happened.
        assert!(wa.factor() >= 1.0, "{wa:?}");
    }

    #[test]
    fn wal_recovery_restores_unflushed_writes() {
        let dir = std::env::temp_dir().join(format!("pmblade-engine-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = small_opts(Mode::PmBlade);
        opts.wal_dir = Some(dir.clone());
        {
            let db = Db::open(opts.clone()).unwrap();
            db.put(b"durable", b"yes").unwrap();
            db.delete(b"gone").unwrap();
            db.sync_wal().unwrap();
            // Drop without flushing: memtable contents only in the WAL.
        }
        let db2 = Db::open(opts).unwrap();
        assert_eq!(
            db2.get(b"durable").unwrap().value.as_deref(),
            Some(&b"yes"[..])
        );
        assert_eq!(db2.get(b"gone").unwrap().value, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_log_records_events() {
        let mut opts = small_opts(Mode::PmBlade);
        opts.tau_m = 128 << 10;
        opts.l0_unsorted_hard_cap = 2;
        let db = Db::open(opts).unwrap();
        fill(&db, 2000, 64, "c");
        let kinds: std::collections::HashSet<_> =
            db.compaction_log().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&CompactionKind::Minor));
        assert!(kinds.contains(&CompactionKind::Internal));
        assert!(kinds.contains(&CompactionKind::Major));
        // Major events carry work descriptions.
        assert!(db
            .compaction_log()
            .iter()
            .filter(|e| e.kind == CompactionKind::Major)
            .all(|e| e.work.is_some()));
    }

    #[test]
    fn compaction_log_is_capped_by_event_log_capacity() {
        let mut opts = small_opts(Mode::PmBlade);
        opts.event_log_capacity = 4;
        let db = Db::open(opts).unwrap();
        fill(&db, 1500, 64, "r");
        db.compact(CompactionRequest::FlushAll).unwrap();
        let log = db.compaction_log();
        assert!(log.len() <= 4, "ring must cap the log: {}", log.len());
        let snap = db.metrics_snapshot();
        assert!(snap.spans_dropped > 0, "older events were evicted");
    }

    #[test]
    fn metrics_snapshot_covers_engine_activity() {
        let mut opts = small_opts(Mode::PmBlade);
        opts.tau_m = 128 << 10;
        opts.l0_unsorted_hard_cap = 2;
        let db = Db::open(opts).unwrap();
        fill(&db, 2000, 64, "s");
        for i in (0..2000).step_by(7) {
            let k = format!("key{:08}", i);
            db.get(k.as_bytes()).unwrap();
        }
        db.scan(
            ScanRequest::new()
                .start("key00000100")
                .end("key00000200")
                .limit(50),
        )
        .unwrap();
        let snap = db.metrics_snapshot();
        // Global counters absorbed from EngineStats.
        assert_eq!(snap.counter("puts"), 2000);
        assert!(snap.counter("gets") > 0);
        assert_eq!(snap.counter("scans"), 1);
        // Per-partition group-commit counters.
        assert!(snap.counter_at(&MetricKey::partition("group_commits", 0)) > 0);
        // Read-source split, keyed by partition.
        assert!(
            snap.counter("partition_reads") >= snap.counter("gets"),
            "scans also count partition touches"
        );
        // Device counters are mirrored in.
        assert!(snap.counter("pm_bytes_written") > 0);
        // Latency histograms are populated.
        let reads = &snap.histograms[&MetricKey::global("read_latency")];
        assert!(reads.count > 0 && reads.p50_nanos > 0);
        let writes = &snap.histograms[&MetricKey::global("write_latency")];
        assert_eq!(writes.count, 2000);
        // At least one complete compaction span with virtual timing.
        assert!(!snap.spans.is_empty());
        assert!(snap.spans.iter().all(|s| s.end_nanos >= s.start_nanos));
        // Deltas are non-negative and reflect new work only.
        let before = db.metrics_snapshot();
        db.put(b"key-extra", b"v").unwrap();
        let after = db.metrics_snapshot();
        let delta = after.delta(&before);
        assert_eq!(delta.counter("puts"), 1);
        assert_eq!(delta.counter("gets"), 0);
    }

    #[test]
    fn latency_stats_capture_foreground_ops() {
        let db = Db::open(small_opts(Mode::PmBlade)).unwrap();
        db.put(b"k", b"v").unwrap();
        db.get(b"k").unwrap();
        db.scan(ScanRequest::new().start("a").limit(10)).unwrap();
        let lat = db.latency_stats();
        assert_eq!(lat.writes.count(), 1);
        assert_eq!(lat.reads.count(), 1);
        assert_eq!(lat.scans.count(), 1);
        assert!(lat.reads.quantile(0.5) > 0);
    }

    #[test]
    fn pm_hit_ratio_reflects_tiering() {
        let db = Db::open(small_opts(Mode::PmBlade)).unwrap();
        fill(&db, 200, 64, "h");
        db.compact(CompactionRequest::FlushAll).unwrap();
        for i in 0..200 {
            let k = format!("key{:08}", i);
            db.get(k.as_bytes()).unwrap();
        }
        // Nothing was major-compacted: everything served from PM.
        assert!(db.stats().pm_hit_ratio() > 0.99);
    }

    #[test]
    fn background_mode_round_trips_and_survives_close() {
        let mut opts = small_opts(Mode::PmBlade);
        opts.maintenance = MaintenanceMode::Background;
        opts.l0_unsorted_hard_cap = 3;
        let db = Db::open(opts).unwrap();
        fill(&db, 1500, 64, "b");
        db.close();
        // close() drained every queued flush/compaction.
        assert_eq!(db.core().maintenance.as_ref().unwrap().queue_depth(), 0);
        assert!(db.stats().minor_compactions.get() >= 1);
        for i in (0..1500).step_by(173) {
            let k = format!("key{:08}", i);
            assert!(db.get(k.as_bytes()).unwrap().value.is_some(), "lost {k}");
        }
        // Post-close the engine stays usable: triggers fall back inline.
        let minors_at_close = db.stats().minor_compactions.get();
        fill(&db, 600, 64, "after");
        assert!(db.stats().minor_compactions.get() > minors_at_close);
        assert!(db.get(b"key00000001").unwrap().value.is_some());
        // Idempotent.
        db.close();
    }

    #[test]
    fn shared_handle_supports_concurrent_writers_and_readers() {
        let db = Arc::new(Db::open(small_opts(Mode::PmBlade)).unwrap());
        std::thread::scope(|s| {
            for t in 0..4 {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    for i in 0..200 {
                        let k = format!("t{t}-{i:05}");
                        db.put(k.as_bytes(), b"v").unwrap();
                    }
                });
            }
            for _ in 0..2 {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    for i in 0..300 {
                        let k = format!("t{}-{:05}", i % 4, i % 200);
                        let _ = db.get(k.as_bytes()).unwrap();
                    }
                });
            }
        });
        // Every write survived the concurrency.
        for t in 0..4 {
            for i in 0..200 {
                let k = format!("t{t}-{i:05}");
                assert!(db.get(k.as_bytes()).unwrap().value.is_some(), "lost {k}");
            }
        }
        assert_eq!(db.stats().puts.get(), 800);
    }
}
