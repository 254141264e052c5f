//! Engine configuration.

use pmtable::{CodecMode, MetaExtractor, PmTableOptions};
use sim::CostModel;

/// Which system the engine behaves as — the paper's comparison matrix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Full PM-Blade: PM level-0, internal compaction, cost-based
    /// compaction strategy, hot-partition retention.
    PmBlade,
    /// "PMBlade-PM": PM level-0 but the conventional strategy — no
    /// internal compaction; when the unsorted-table count trips the
    /// threshold, the whole level-0 is compacted to level-1.
    PmBladePm,
    /// "PMBlade-SSD"/RocksDB-like: level-0 lives on the SSD as SSTables
    /// and major compaction triggers at `l0_table_trigger` tables.
    SsdLevel0,
    /// MatrixKV-like: PM level-0 organised as a matrix container with
    /// column compaction and cross-hint search, no hot retention.
    MatrixKv,
}

/// Where maintenance work (flushes, internal/major compactions) runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MaintenanceMode {
    /// Execute maintenance synchronously at the Algorithm-1 trigger
    /// points, on the thread that tripped them. Deterministic: a fixed
    /// workload produces the exact same compaction sequence every run,
    /// which the simulation tests rely on. The triggering write is
    /// charged the maintenance's virtual time.
    #[default]
    Inline,
    /// Enqueue maintenance jobs for the engine's background worker pool
    /// (§V): writes only detect triggers and enqueue, workers execute.
    /// Writers are throttled by RocksDB-style slowdown/stall thresholds
    /// when they outrun the workers. Job *timing* becomes
    /// scheduling-dependent; final key/value state is identical to
    /// [`MaintenanceMode::Inline`] for the same workload.
    Background,
}

/// How the key space is split into independently-managed partitions:
/// the strictly ascending, upper-exclusive split keys. `n` keys make
/// `n + 1` partitions; none (the default) makes one.
#[derive(Clone, Debug, Default)]
pub struct Partitioner(pub Vec<Vec<u8>>);

impl Partitioner {
    /// Number of partitions.
    pub fn count(&self) -> usize {
        self.0.len() + 1
    }

    /// Partition index owning `key`.
    pub fn locate(&self, key: &[u8]) -> usize {
        self.0.partition_point(|split| split.as_slice() <= key)
    }

    /// Evenly spaced split points over formatted numeric keys
    /// `prefix{00000000}`, handy for benchmark workloads.
    pub fn numeric(prefix: &str, domain: u64, partitions: usize) -> Self {
        assert!(partitions >= 1);
        let step = domain / partitions as u64;
        Partitioner(
            (1..partitions as u64)
                .map(|i| format!("{prefix}{:010}", i * step).into_bytes())
                .collect(),
        )
    }
}

/// The layout half of a PM table's build options ([`PmTableOptions`]).
#[derive(Clone, Copy, Debug)]
pub struct PmTableLayout {
    /// Entries per group: the paper uses eight or sixteen.
    pub group_size: usize,
    /// Meta-prefix extraction rule.
    pub extractor: MetaExtractor,
}

/// Largest [`Options::memtable_bytes`] and [`Options::max_table_bytes`].
/// A PM table build buffers its entries in one [`pmtable::EntryRun`],
/// whose 32-bit offsets end at [`pmtable::MAX_RUN_BYTES`]; half of that
/// leaves room for the write that overfills a memtable and for the
/// entry that crosses a table cut.
pub const MAX_TABLE_INPUT_BYTES: usize = pmtable::MAX_RUN_BYTES / 2;

/// Full engine options.
#[derive(Clone, Debug)]
pub struct Options {
    pub mode: Mode,
    pub partitioner: Partitioner,
    /// Machine cost model shared by all devices.
    pub cost: CostModel,
    /// PM pool capacity in bytes (the paper uses 80 GB; scale down).
    pub pm_capacity: usize,
    /// Memtable freeze threshold in bytes (64 MB in the paper; scale).
    /// At most [`MAX_TABLE_INPUT_BYTES`]: a flush builds one table.
    pub memtable_bytes: usize,
    /// Unsorted L0 tables per partition that force internal compaction
    /// regardless of the cost model (safety valve).
    pub l0_unsorted_hard_cap: usize,
    /// SSD-level-0 table count triggering major compaction in
    /// [`Mode::SsdLevel0`] (RocksDB default 4).
    pub l0_table_trigger: usize,
    /// `τ_w`: partition size that lets Eq 2 trigger internal compaction.
    pub tau_w: usize,
    /// `τ_m`: total PM usage that triggers major compaction.
    pub tau_m: usize,
    /// `τ_t`: PM budget for partitions retained by the knapsack.
    pub tau_t: usize,
    /// How PM level-0 tables lay out their entries. A table's filter
    /// budget and codec are [`Options::pm_filter_bits_per_key`] and
    /// [`Options::pm_codec_mode`].
    pub pm_table: PmTableLayout,
    /// Per-flush codec policy for PM level-0 tables:
    /// [`CodecMode::Auto`] (the default) analyzes each flush batch's key
    /// shape and picks the codec minimizing PM bytes plus decode cost
    /// against the per-codec costs `Db::open` measures
    /// ([`crate::costmodel::CodecCostTable::calibrate`] of
    /// [`Options::cost`]); the other variants force one codec for every
    /// flush (each group still falls back to prefix encoding when the
    /// forced codec cannot represent it or would grow the group).
    pub pm_codec_mode: CodecMode,
    /// Bloom-filter budget for PM level-0 tables, in bits per distinct
    /// user key, rounded up to whole 64-byte lines (10 ≈ 1% false
    /// positives). 0 disables the filters entirely — every `get` walks
    /// the group search of every overlapping table, the
    /// pre-acceleration read path.
    pub pm_filter_bits_per_key: usize,
    /// DRAM capacity of the shared decoded-group cache for PM level-0
    /// reads at open, in bytes. Charged like
    /// [`Options::block_cache_bytes`]; 0 disables the cache (every
    /// lookup decodes its group from PM).
    ///
    /// The two cache fields are one DRAM budget, split at open: their
    /// sum is the budget, each field the share its cache starts with.
    /// Every 1 024 reads a tuner moves `sum / 32` toward the cache whose
    /// ghost list (the keys it evicted) would have served more bytes,
    /// keeping each at least `sum / 16`. When either field opens at 0 or
    /// below that floor, the split stays as given.
    pub pm_group_cache_bytes: usize,
    /// Level-1 target size per partition; level n target is
    /// `l1_target * level_multiplier^(n-1)`.
    pub l1_target: usize,
    pub level_multiplier: usize,
    /// Max bytes per output table (PM table or SSTable) in compactions;
    /// at most [`MAX_TABLE_INPUT_BYTES`].
    pub max_table_bytes: usize,
    /// DRAM block-cache capacity for SSD reads at open, in bytes: the
    /// block cache's share of the budget split at open with
    /// [`Options::pm_group_cache_bytes`].
    pub block_cache_bytes: usize,
    /// Directory for the write-ahead log; `None` disables the WAL.
    pub wal_dir: Option<std::path::PathBuf>,
    /// WAL segment size: the active segment rotates once it exceeds
    /// this many bytes, and segments whose records are all below the
    /// flush checkpoints are deleted. Only meaningful with
    /// [`Options::wal_dir`] set.
    pub wal_segment_bytes: usize,
    /// Crash-injection plan threaded into every durable device (WAL,
    /// manifest, PM backing, SSD backing). `None` in production;
    /// recovery tests install a plan to kill the virtual process at a
    /// chosen write/sync boundary.
    pub fault_plan: Option<std::sync::Arc<sim::FaultPlan>>,
    /// Capacity of the compaction-span ring buffer behind
    /// `Db::compaction_log()` and `MetricsSnapshot::spans`. When full,
    /// the *oldest* spans are evicted (and counted as dropped in
    /// snapshots). Must be at least 1.
    pub event_log_capacity: usize,
    /// Inline (deterministic, default) or background (worker-pool)
    /// maintenance execution.
    pub maintenance: MaintenanceMode,
    /// Unsorted level-0 tables per partition at which writes to that
    /// partition *stall* in background mode until a worker catches up.
    /// Half of it slows writes down, a quarter queues early relief; at
    /// least 2.
    pub l0_stall_trigger: usize,
    /// Memtable debt (memtable size as a multiple of
    /// [`Options::memtable_bytes`]) that stalls writes in background
    /// mode; half of it slows them down. The memtable keeps absorbing
    /// writes past its freeze threshold while the flush job waits for a
    /// worker. At least 2.
    pub memtable_stall_debt: usize,
    /// Sample 1 in N engine-originated requests for end-to-end stage
    /// tracing; 0 disables sampling entirely (wire-carried contexts are
    /// still honored). Sampling only observes the virtual
    /// clock — it never charges it. Every sampled request lands in the
    /// flight recorder, a ring of
    /// [`FLIGHT_RECORDER_CAPACITY`](crate::telemetry::FLIGHT_RECORDER_CAPACITY)
    /// traces.
    pub trace_sample_every: u64,
}

impl Default for Options {
    /// Laptop-scale defaults preserving the paper's ratios
    /// (80 GB PM : 64 MB memtable ≈ 80 MB : 64 KB).
    fn default() -> Self {
        Options::pm_blade(80 << 20)
    }
}

impl Options {
    /// The paper's "PMBlade" configuration at a given PM scale: τ_m at
    /// 90 % and τ_t at 60 % of the pool.
    pub fn pm_blade(pm_capacity: usize) -> Self {
        Options {
            mode: Mode::PmBlade,
            partitioner: Partitioner::default(),
            cost: CostModel::default(),
            pm_capacity,
            memtable_bytes: 64 << 10,
            l0_unsorted_hard_cap: 64,
            l0_table_trigger: 4,
            tau_w: 1 << 20,
            tau_m: pm_capacity - pm_capacity / 10,
            tau_t: pm_capacity * 6 / 10,
            pm_table: PmTableLayout {
                group_size: 16,
                extractor: MetaExtractor::None,
            },
            pm_codec_mode: CodecMode::Auto,
            pm_filter_bits_per_key: 10,
            pm_group_cache_bytes: 4 << 20,
            l1_target: 8 << 20,
            level_multiplier: 10,
            max_table_bytes: 2 << 20,
            block_cache_bytes: 8 << 20,
            wal_dir: None,
            wal_segment_bytes: 4 << 20,
            fault_plan: None,
            event_log_capacity: 1024,
            maintenance: MaintenanceMode::Inline,
            l0_stall_trigger: 24,
            memtable_stall_debt: 4,
            trace_sample_every: 1024,
        }
    }

    /// The build options of every PM table the engine writes: the
    /// layout of [`Options::pm_table`], the filter budget and codec of
    /// their knobs.
    pub(crate) fn pm_table_options(&self) -> PmTableOptions {
        PmTableOptions {
            group_size: self.pm_table.group_size,
            extractor: self.pm_table.extractor,
            filter_bits_per_key: self.pm_filter_bits_per_key,
            codec: self.pm_codec_mode,
        }
    }

    /// "PMBlade-SSD" / RocksDB-like.
    pub fn rocksdb_like() -> Self {
        Options {
            mode: Mode::SsdLevel0,
            ..Options::default()
        }
    }

    /// Cross-validate the configuration, as [`Db::open`](crate::Db::open)
    /// does before anything else: the first violation found comes back
    /// as [`DbError::Config`](crate::engine::DbError::Config) with a
    /// human-readable diagnostic.
    pub(crate) fn validate(self) -> Result<Options, crate::engine::DbError> {
        use crate::engine::DbError;
        let o = &self;
        let fail = |msg: String| Err(DbError::Config(msg));
        if !o.partitioner.0.windows(2).all(|w| w[0] < w[1]) {
            return fail("partition boundaries must be strictly ascending".into());
        }
        if o.memtable_bytes == 0 {
            return fail("memtable_bytes must be positive".into());
        }
        let uses_pm = matches!(o.mode, Mode::PmBlade | Mode::PmBladePm | Mode::MatrixKv);
        if uses_pm {
            if o.pm_capacity < o.memtable_bytes {
                return fail(format!(
                    "pm_capacity ({}) must hold at least one memtable \
                     flush ({})",
                    o.pm_capacity, o.memtable_bytes
                ));
            }
            if o.tau_m > o.pm_capacity {
                return fail(format!(
                    "tau_m ({}) cannot exceed pm_capacity ({})",
                    o.tau_m, o.pm_capacity
                ));
            }
            if o.tau_t > o.tau_m {
                return fail(format!(
                    "tau_t ({}) cannot exceed tau_m ({}): the retention \
                     budget must fit below the major-compaction trigger",
                    o.tau_t, o.tau_m
                ));
            }
        }
        if o.max_table_bytes == 0 {
            return fail("max_table_bytes must be positive".into());
        }
        for (name, bytes) in [
            ("memtable_bytes", o.memtable_bytes),
            ("max_table_bytes", o.max_table_bytes),
        ] {
            if bytes > MAX_TABLE_INPUT_BYTES {
                return fail(format!(
                    "{name} ({bytes}) is capped at {MAX_TABLE_INPUT_BYTES}: \
                     a PM table build buffers its entries in one run of \
                     32-bit offsets"
                ));
            }
        }
        if o.pm_filter_bits_per_key > 64 {
            return fail(format!(
                "pm_filter_bits_per_key ({}) is capped at 64: past that \
                 the false-positive rate no longer improves and the \
                 filter section just burns PM",
                o.pm_filter_bits_per_key
            ));
        }
        if o.l1_target == 0 {
            return fail("l1_target must be positive".into());
        }
        if o.level_multiplier < 2 {
            return fail(format!(
                "level_multiplier ({}) must be at least 2",
                o.level_multiplier
            ));
        }
        if o.l0_unsorted_hard_cap == 0 {
            return fail("l0_unsorted_hard_cap must be at least 1".into());
        }
        if o.l0_table_trigger == 0 {
            return fail("l0_table_trigger must be at least 1".into());
        }
        if o.event_log_capacity == 0 {
            return fail("event_log_capacity must be at least 1".into());
        }
        if o.wal_segment_bytes == 0 {
            return fail("wal_segment_bytes must be positive".into());
        }
        // Half a stall watermark is its slowdown: below 2 that is 0, a
        // penalty on every write.
        if o.l0_stall_trigger < 2 {
            return fail(format!(
                "l0_stall_trigger ({}) must be at least 2",
                o.l0_stall_trigger
            ));
        }
        if o.memtable_stall_debt < 2 {
            return fail(format!(
                "memtable_stall_debt ({}) must be at least 2",
                o.memtable_stall_debt
            ));
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioner_single_maps_everything_to_zero() {
        let p = Partitioner::default();
        assert_eq!(p.count(), 1);
        assert_eq!(p.locate(b""), 0);
        assert_eq!(p.locate(b"zzz"), 0);
    }

    #[test]
    fn partitioner_ranges_locates_by_boundary() {
        let p = Partitioner(vec![b"h".to_vec(), b"p".to_vec()]);
        assert_eq!(p.count(), 3);
        assert_eq!(p.locate(b"apple"), 0);
        assert_eq!(p.locate(b"h"), 1, "boundaries are upper-exclusive");
        assert_eq!(p.locate(b"mango"), 1);
        assert_eq!(p.locate(b"zebra"), 2);
    }

    #[test]
    fn numeric_partitioner_is_balanced() {
        let p = Partitioner::numeric("user", 1_000_000, 4);
        assert_eq!(p.count(), 4);
        assert_eq!(p.locate(b"user0000000001"), 0);
        assert_eq!(p.locate(b"user0000250000"), 1);
        assert_eq!(p.locate(b"user0000500000"), 2);
        assert_eq!(p.locate(b"user0000999999"), 3);
    }

    #[test]
    fn builder_accepts_default_and_presets() {
        assert!(Options::default().validate().is_ok());
        assert!(Options::pm_blade(1 << 20).validate().is_ok());
        assert!(Options::rocksdb_like().validate().is_ok());
        let opts = Options {
            mode: Mode::PmBlade,
            pm_capacity: 1 << 20,
            memtable_bytes: 8 << 10,
            tau_m: 768 << 10,
            tau_t: 384 << 10,
            ..Options::default()
        }
        .validate()
        .unwrap();
        assert_eq!(opts.pm_capacity, 1 << 20);
    }

    /// The `Config` message the defaults are rejected with after `edit`.
    fn rejection(edit: impl FnOnce(&mut Options)) -> String {
        let mut opts = Options::default();
        edit(&mut opts);
        match opts.validate() {
            Err(crate::engine::DbError::Config(m)) => m,
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    /// The defaults after `edit`, which must validate.
    fn accepted(edit: impl FnOnce(&mut Options)) -> Options {
        let mut opts = Options::default();
        edit(&mut opts);
        opts.validate().expect("a consistent configuration")
    }

    #[test]
    fn builder_rejects_inconsistent_configs() {
        assert!(rejection(|o| o.memtable_bytes = 0).contains("memtable_bytes"));
        assert!(rejection(|o| {
            (o.pm_capacity, o.memtable_bytes) = (4 << 10, 64 << 10);
            (o.tau_m, o.tau_t) = (1 << 10, 1 << 10);
        })
        .contains("pm_capacity"));
        assert!(rejection(|o| (o.tau_m, o.tau_t) = (96 << 20, 90 << 20)).contains("tau_m"));
        assert!(rejection(|o| (o.tau_t, o.tau_m) = (80 << 20, 72 << 20)).contains("tau_t"));
        let ranges = |keys: &[&[u8]]| Partitioner(keys.iter().map(|k| k.to_vec()).collect());
        assert!(rejection(|o| o.partitioner = ranges(&[b"m", b"f"])).contains("ascending"));
        assert!(rejection(|o| o.partitioner = ranges(&[b"m", b"m"])).contains("ascending"));
        assert_eq!(
            accepted(|o| o.partitioner = ranges(&[]))
                .partitioner
                .count(),
            1
        );
        assert!(rejection(|o| o.level_multiplier = 1).contains("level_multiplier"));
        assert!(rejection(|o| o.l1_target = 0).contains("l1_target"));
        assert!(rejection(|o| o.max_table_bytes = 0).contains("max_table_bytes"));
        // One table's entries fit the 32-bit offsets of a build's run.
        let past = MAX_TABLE_INPUT_BYTES + 1;
        let big_memtable = |o: &mut Options| {
            (o.memtable_bytes, o.pm_capacity, o.tau_m, o.tau_t) = (past, usize::MAX, 0, 0)
        };
        assert!(rejection(big_memtable).contains("memtable_bytes (2147483648) is capped"));
        assert!(rejection(|o| o.max_table_bytes = past).contains("max_table_bytes"));
        accepted(|o| o.max_table_bytes = MAX_TABLE_INPUT_BYTES);
        assert!(rejection(|o| o.pm_filter_bits_per_key = 65).contains("pm_filter_bits_per_key"));
        // 0 legitimately disables the filter and the cache.
        accepted(|o| (o.pm_filter_bits_per_key, o.pm_group_cache_bytes) = (0, 0));
        assert!(rejection(|o| o.l0_unsorted_hard_cap = 0).contains("l0_unsorted_hard_cap"));
        assert!(rejection(|o| o.l0_table_trigger = 0).contains("l0_table_trigger"));
        assert!(rejection(|o| o.event_log_capacity = 0).contains("event_log_capacity"));
        assert!(rejection(|o| o.wal_segment_bytes = 0).contains("wal_segment_bytes"));
        // Sampling off is a legal steady state.
        accepted(|o| o.trace_sample_every = 0);
        // SSD-only mode doesn't need PM headroom.
        accepted(|o| (o.mode, o.pm_capacity) = (Mode::SsdLevel0, 0));
    }

    #[test]
    fn builder_rejects_bad_maintenance_configs() {
        // A stall watermark's slowdown is half of it: it must be at
        // least 1.
        for stall in [0, 1] {
            assert!(rejection(|o| o.l0_stall_trigger = stall).contains("l0_stall_trigger"));
            assert!(rejection(|o| o.memtable_stall_debt = stall).contains("memtable_stall_debt"));
        }
        // A consistent background configuration passes.
        let opts = accepted(|o| {
            o.maintenance = MaintenanceMode::Background;
            (o.l0_stall_trigger, o.memtable_stall_debt) = (2, 2);
        });
        assert_eq!(opts.maintenance, MaintenanceMode::Background);
    }

    #[test]
    fn codec_mode_knob_defaults_to_auto_with_zero_cost_table() {
        let opts = Options::default();
        assert_eq!(opts.pm_codec_mode, CodecMode::Auto);
        // The engine builds its tables under the knobs; the cost table
        // is not a knob: `Db::open` calibrates it (Auto) or keeps the
        // zero table (Prefix).
        let table = opts.pm_table_options();
        assert_eq!(
            (table.codec, table.filter_bits_per_key),
            (CodecMode::Auto, 10)
        );
    }

    #[test]
    fn mode_presets_are_consistent() {
        assert_eq!(Options::pm_blade(1 << 20).mode, Mode::PmBlade);
        assert_eq!(Options::rocksdb_like().mode, Mode::SsdLevel0);
        let o = Options::pm_blade(100);
        assert!(o.tau_m < o.pm_capacity);
        assert!(o.tau_t < o.tau_m);
        let d = Options::default();
        assert_eq!(
            (d.pm_capacity, d.tau_m, d.tau_t),
            (80 << 20, 72 << 20, 48 << 20)
        );
    }
}
