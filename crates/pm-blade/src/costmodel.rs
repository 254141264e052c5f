//! The three compaction cost models (§IV-C, Table II, Algorithm 1).
//!
//! 1. **Read-amplification relief (Eq 1)** — trigger internal compaction
//!    for partition `p_i` when the read time it would save per second
//!    exceeds the compaction's own work rate:
//!    `n̂ʳᵢ · (nᵢ/2) · I_b  >  I_p / t̂_p`.
//! 2. **SSD write-amplification relief (Eq 2)** — trigger internal
//!    compaction when the duplicate records it would remove save more
//!    major-compaction cost than the internal pass costs:
//!    `(n_bef − n_aft) · I_s  >  n_bef · I_p`, estimating
//!    `n_bef ≈ nʷᵢ` and the removable duplicates by the observed update
//!    count `nᵘᵢ` (so `n_aft ≈ nʷᵢ − nᵘᵢ`).
//! 3. **Warm-data retention (Eq 3)** — at major compaction, keep the
//!    hottest partitions in PM: maximize `Σ nʳᵢ` subject to
//!    `Σ sᵢ ≤ τ_t`, solved greedily by read density `nʳᵢ / sᵢ`.
//!
//! Table II's four scalars are the constants [`I_B`], [`I_P`], [`I_S`]
//! and [`T_HAT_P`].

use encoding::delta::CodecStats;
use pm_device::PmPool;
use pmtable::{
    CodecMode, MetaExtractor, OwnedEntry, PmTable, PmTableBuilder, PmTableOptions, CODEC_COUNT,
};
use sim::{CostModel, Counter, SimDuration, SimInstant, Timeline};

use crate::telemetry::CostDecision;

/// `I_b`: cost of binary-searching one PM table.
pub const I_B: SimDuration = SimDuration::from_micros(2);
/// `I_p`: internal-compaction cost per record.
pub const I_P: SimDuration = SimDuration::from_micros(2);
/// `I_s`: major-compaction cost per record.
pub const I_S: SimDuration = SimDuration::from_micros(5);
/// `t̂_p`: wall time internal compaction spends per record, calibrated
/// so Eq 1 fires around `n_i ≈ 10` unsorted tables at the virtual-time
/// read rates the engine observes (~5k reads/s).
pub const T_HAT_P: SimDuration = SimDuration::from_micros(40);

/// Per-partition access counters from Table II. The engine resets them
/// when a compaction touches the partition ("re-zeroed when a major
/// compaction or internal compaction occurs").
///
/// The read/write/update tallies are atomic [`Counter`]s so the hot
/// read path can bump them while holding only the partition's *read*
/// lock; `window_start` is plain data, mutated only under the write
/// lock (compactions).
#[derive(Clone, Debug)]
pub struct PartitionCounters {
    /// `n_i^r`: reads since the window started.
    pub reads: Counter,
    /// `n_i^w`: writes since the window started.
    pub writes: Counter,
    /// `n_i^u`: writes that overwrote an existing key (updates).
    pub updates: Counter,
    /// Start of the observation window on the engine's virtual clock.
    pub window_start: SimInstant,
}

impl PartitionCounters {
    pub fn new(now: SimInstant) -> Self {
        PartitionCounters {
            reads: Counter::default(),
            writes: Counter::default(),
            updates: Counter::default(),
            window_start: now,
        }
    }

    /// `n̂_i^r`: reads per virtual second over the window.
    pub fn read_rate(&self, now: SimInstant) -> f64 {
        let secs = now.duration_since(self.window_start).as_secs_f64();
        if secs <= 0.0 {
            // A zero-length window with reads counts as very hot.
            return if self.reads.get() > 0 {
                f64::INFINITY
            } else {
                0.0
            };
        }
        self.reads.get() as f64 / secs
    }

    /// Reset at compaction time.
    pub fn reset(&mut self, now: SimInstant) {
        *self = PartitionCounters::new(now);
    }
}

/// Eq 1: should partition `p_i` run an internal compaction to relieve
/// read amplification? `unsorted` is `n_i`. The inputs and the verdict
/// come back as a [`CostDecision`] for the trigger counters and spans.
///
/// Adjusted for per-table bloom filters: a probe the filter prunes
/// costs ~0, so the read amplification a merge would relieve is not
/// `n_i/2` but `n_i·(1 − prune)/2`, where `prune_ratio` is the observed
/// fraction of filter checks that ruled a table out. With effective
/// filters the benefit side shrinks and internal compaction triggers
/// later — exactly the paper's Eq 1 with the filtered probe cost.
///
/// The level-0 tables' decode cost is folded into the probe term:
/// each probe of a coded table binary-searches it *and* decodes one
/// group, so the effective `I_b` is `binary_search + probe_decode`.
/// `probe_decode` is the entries-weighted mean group-decode cost over
/// the partition's level-0 codecs (zero for all-prefix level-0s).
pub fn explain_read_benefit(
    partition: usize,
    counters: &PartitionCounters,
    unsorted: usize,
    now: SimInstant,
    prune_ratio: f64,
    probe_decode: SimDuration,
) -> CostDecision {
    let rate = counters.read_rate(now);
    let decision = |triggered| CostDecision::ReadBenefit {
        partition,
        read_rate: rate,
        unsorted,
        triggered,
    };
    if unsorted < 2 {
        return decision(false); // nothing to merge
    }
    if rate == 0.0 {
        return decision(false);
    }
    let effective = unsorted as f64 * (1.0 - prune_ratio.clamp(0.0, 1.0));
    let probe = (I_B + probe_decode).as_secs_f64();
    let benefit_per_sec = rate * (effective / 2.0) * probe;
    let work_rate = I_P.as_secs_f64() / T_HAT_P.as_secs_f64();
    decision(benefit_per_sec > work_rate)
}

/// Eq 2: does removing duplicates now save more major-compaction work
/// than the internal pass costs? `gated` ands in the τ_w size gate the
/// engine applies on top of the raw benefit comparison (so `triggered`
/// reports the *effective* verdict).
///
/// The benefit side estimates removable duplicates from the window's
/// update count (`n_aft ≈ n_w − n_u`, following the paper's use of the
/// update counter); the cost side charges `I_p` for every record the
/// internal pass must rewrite — the whole level-0 (`l0_records`), not
/// just the window's writes, since compaction rewrites everything.
///
/// The level-0 decode cost is folded into the internal pass:
/// rewriting a record from a coded table first decodes it, so the
/// per-record cost the compaction pays is
/// `internal_per_record + decode_per_record`. `decode_per_record` is the
/// entries-weighted mean per-entry decode cost over the partition's
/// level-0 codecs (zero for all-prefix level-0s). Pricier decoding
/// raises the spend side, so Eq 2 triggers later on heavily-coded
/// partitions.
pub fn explain_write_benefit(
    partition: usize,
    counters: &PartitionCounters,
    l0_records: usize,
    gated: bool,
    decode_per_record: SimDuration,
) -> CostDecision {
    let (writes, updates) = (counters.writes.get(), counters.updates.get());
    let decision = |triggered| CostDecision::WriteBenefit {
        partition,
        window_writes: writes,
        window_updates: updates,
        l0_records,
        triggered,
    };
    if writes == 0 || l0_records == 0 {
        return decision(false);
    }
    let removable = updates.min(writes) as f64;
    let saved = removable * I_S.as_secs_f64();
    let spent = l0_records as f64 * (I_P + decode_per_record).as_secs_f64();
    decision(gated && saved > spent)
}

/// One candidate for the Eq 3 knapsack.
#[derive(Clone, Copy, Debug)]
pub struct RetentionCandidate {
    pub partition: usize,
    /// `n_i^r` over the current window.
    pub reads: u64,
    /// `s_i`: PM bytes held.
    pub bytes: usize,
}

/// Eq 3 (greedy): pick the partition set Φ to *retain* in PM, maximizing
/// total reads subject to `Σ s_i ≤ budget`. Returns the partition ids to
/// retain; everything else is the major-compaction victim set `P − Φ`.
pub fn select_retained(candidates: &[RetentionCandidate], budget: usize) -> Vec<usize> {
    let mut sorted: Vec<&RetentionCandidate> = candidates.iter().collect();
    // Greedy by read density n_i^r / s_i, ties broken toward smaller
    // partitions (cheaper to keep).
    sorted.sort_by(|a, b| {
        let da = a.reads as f64 / a.bytes.max(1) as f64;
        let db = b.reads as f64 / b.bytes.max(1) as f64;
        db.partial_cmp(&da)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.bytes.cmp(&b.bytes))
    });
    let mut total = 0usize;
    let mut retained = Vec::new();
    for c in sorted {
        if c.bytes == 0 {
            continue; // nothing to retain
        }
        if total + c.bytes <= budget {
            total += c.bytes;
            retained.push(c.partition);
        }
    }
    retained.sort_unstable();
    retained
}

/// Measured per-codec decode cost and density, calibrated once at
/// engine open ([`CodecCostTable::calibrate`]) and consulted on every
/// flush by [`select_codec`] and on every Eq 1/Eq 2 evaluation.
/// Indexed by codec id
/// (`pmtable::CODEC_PREFIX`/`CODEC_DELTA`/`CODEC_FIXED`).
///
/// The zero default is deliberate: with an all-zero table every codec
/// scores identically, ties resolve to the lowest id, and the engine
/// behaves exactly like the pre-codec build — engines that skip the
/// calibration and tests that build tables without an engine keep their
/// byte-for-byte behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CodecCostTable {
    /// Virtual nanos to decode one group, per codec.
    pub decode_group_nanos: [u64; CODEC_COUNT],
    /// Virtual nanos of decode work per entry, per codec.
    pub decode_entry_nanos: [u64; CODEC_COUNT],
    /// Encoded PM bytes per entry on the calibration workload, per
    /// codec. Zero for codecs the calibration could not build.
    pub bytes_per_entry: [f64; CODEC_COUNT],
}

impl CodecCostTable {
    /// Entries on the synthetic calibration table. Large enough that
    /// per-table overheads (header, meta layer) amortize out of the
    /// per-entry figures, small enough to keep `Db::open` cheap.
    const CALIBRATION_ENTRIES: usize = 1024;

    /// Measure each codec once on a synthetic timeseries table
    /// (monotonic 8-byte big-endian keys, fixed 8-byte values — the
    /// shape where all three codecs are eligible) against `cost`.
    /// Everything runs on scratch [`Timeline`]s driven purely by the
    /// virtual clock, so the result is deterministic: two engines with
    /// the same [`CostModel`] calibrate to identical tables, which the
    /// parity and trace-overhead tests rely on.
    pub fn calibrate(cost: &CostModel) -> CodecCostTable {
        let mut table = CodecCostTable::default();
        let n = Self::CALIBRATION_ENTRIES;
        let entries: Vec<OwnedEntry> = (0..n)
            .map(|i| {
                let key = (1_700_000_000u64 + 3 * i as u64).to_be_bytes().to_vec();
                let value = (40_000u64 + 3 * i as u64).to_be_bytes().to_vec();
                OwnedEntry::value(key, i as u64 + 1, value)
            })
            .collect();
        // Generous scratch pool: each trial table is ≤ ~64 KiB.
        let pool = PmPool::new(4 << 20, *cost);
        for (id, mode) in [
            (pmtable::CODEC_PREFIX, CodecMode::Prefix),
            (pmtable::CODEC_DELTA, CodecMode::Delta),
            (pmtable::CODEC_FIXED, CodecMode::Fixed),
        ] {
            let mut builder = PmTableBuilder::new(PmTableOptions {
                group_size: 16,
                extractor: MetaExtractor::None,
                filter_bits_per_key: 0,
                codec: mode,
            });
            for e in &entries {
                builder.add(e.clone());
            }
            let mut build_tl = Timeline::new();
            let (bytes, _) = builder.finish(cost, &mut build_tl);
            let encoded = bytes.len();
            let Ok(region) = pool.publish(bytes, &mut build_tl) else {
                continue; // leave this codec's row zeroed
            };
            let Ok(pm_table) = PmTable::open(region) else {
                continue;
            };
            let groups = pm_table.group_count().max(1) as u64;
            let mut scan_tl = Timeline::new();
            let decoded = pm_table.scan_all(&mut scan_tl);
            debug_assert_eq!(decoded.len(), n);
            // Round up: a codec whose whole-table decode metered under
            // one nano per entry still records 1, so "was calibrated"
            // stays distinguishable from the all-zero default table.
            let nanos = scan_tl.elapsed().as_nanos();
            table.decode_group_nanos[id as usize] = nanos.div_ceil(groups);
            table.decode_entry_nanos[id as usize] = nanos.div_ceil(n as u64);
            table.bytes_per_entry[id as usize] = encoded as f64 / n as f64;
        }
        table
    }

    /// Entries-weighted mean group-decode cost over level-0 tables,
    /// given `(codec, entries)` pairs — the `probe_decode` input of
    /// [`explain_read_benefit`].
    pub fn probe_decode(&self, tables: impl Iterator<Item = (u8, usize)>) -> SimDuration {
        self.weighted(tables, &self.decode_group_nanos)
    }

    /// Entries-weighted mean per-entry decode cost over level-0 tables —
    /// the `decode_per_record` input of [`explain_write_benefit`].
    pub fn decode_per_record(&self, tables: impl Iterator<Item = (u8, usize)>) -> SimDuration {
        self.weighted(tables, &self.decode_entry_nanos)
    }

    fn weighted(
        &self,
        tables: impl Iterator<Item = (u8, usize)>,
        nanos: &[u64; CODEC_COUNT],
    ) -> SimDuration {
        let (mut weighted, mut total) = (0u128, 0u128);
        for (codec, entries) in tables {
            let per = nanos[(codec as usize).min(CODEC_COUNT - 1)] as u128;
            weighted += per * entries as u128;
            total += entries as u128;
        }
        if total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((weighted / total) as u64)
    }
}

/// Pick the flush codec for a batch shaped like `stats`: among the
/// codecs the batch is *eligible* for, minimize
/// `bytes_per_entry × PM-per-byte cost + per-entry decode cost` — PM
/// bandwidth spent writing then reading each entry plus the CPU to
/// decode it back. Ties (including the all-zero default cost table)
/// resolve to the lowest codec id, i.e. the prefix baseline.
pub fn select_codec(stats: &CodecStats, table: &CodecCostTable, cost: &CostModel) -> CodecMode {
    if stats.entries == 0 {
        return CodecMode::Prefix;
    }
    // Eligibility mirrors the per-group encoder gates in `pmtable`: the
    // delta codec needs fixed-width keys whose post-LCP remainder fits a
    // u64 and at least one delta; the fixed codec needs fixed-width
    // values that fit a u64. (Group-level fallback still guards the
    // encoder — this gate just avoids forcing a codec that cannot win.)
    let delta_ok = stats.entries >= 2
        && stats
            .fixed_key_width
            .is_some_and(|w| (1..=8).contains(&w.saturating_sub(stats.batch_lcp)));
    let fixed_ok = stats
        .fixed_value_width
        .is_some_and(|v| (1..=8).contains(&v));
    // Each entry is written to PM once and read back on probes; charge
    // both bandwidth terms so denser codecs win on either side.
    let pm_per_byte =
        (cost.pm.write_per_byte.as_nanos() + cost.pm.read_per_byte.as_nanos()) as f64 / 1024.0;
    let score = |id: u8| {
        table.bytes_per_entry[id as usize] * pm_per_byte
            + table.decode_entry_nanos[id as usize] as f64
    };
    let mut best = (CodecMode::Prefix, score(pmtable::CODEC_PREFIX));
    if delta_ok && score(pmtable::CODEC_DELTA) < best.1 {
        best = (CodecMode::Delta, score(pmtable::CODEC_DELTA));
    }
    if fixed_ok && score(pmtable::CODEC_FIXED) < best.1 {
        best = (CodecMode::Fixed, score(pmtable::CODEC_FIXED));
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::SimDuration;

    fn at(secs: u64) -> SimInstant {
        SimInstant::ORIGIN + SimDuration::from_secs(secs)
    }

    #[test]
    fn read_rate_is_reads_per_second() {
        let c = PartitionCounters::new(SimInstant::ORIGIN);
        c.reads.add(500);
        assert!((c.read_rate(at(10)) - 50.0).abs() < 1e-9);
        // Zero-length window with reads → hot.
        assert!(c.read_rate(SimInstant::ORIGIN).is_infinite());
        c.reads.reset();
        assert_eq!(c.read_rate(SimInstant::ORIGIN), 0.0);
    }

    /// Eq 1's verdict; the short forms of the tests pass `0.0` / zero.
    fn eq1(
        c: &PartitionCounters,
        unsorted: usize,
        now: SimInstant,
        prune_ratio: f64,
        probe_decode: SimDuration,
    ) -> bool {
        explain_read_benefit(0, c, unsorted, now, prune_ratio, probe_decode).triggered()
    }

    /// Eq 2's verdict with the τ_w gate open.
    fn eq2(c: &PartitionCounters, l0_records: usize, decode_per_record: SimDuration) -> bool {
        explain_write_benefit(0, c, l0_records, true, decode_per_record).triggered()
    }

    #[test]
    fn eq1_needs_reads_and_unsorted_tables() {
        let c = PartitionCounters::new(SimInstant::ORIGIN);
        // No reads: never trigger.
        assert!(!eq1(&c, 10, at(1), 0.0, SimDuration::ZERO));
        // Reads but only one unsorted table: nothing to merge.
        c.reads.add(1_000_000);
        assert!(!eq1(&c, 1, at(1), 0.0, SimDuration::ZERO));
        // Hot partition with many unsorted tables: trigger.
        assert!(eq1(&c, 8, at(1), 0.0, SimDuration::ZERO));
    }

    #[test]
    fn eq1_threshold_scales_with_read_rate() {
        // Work rate = I_p/t_p = 0.05. Benefit = rate * n/2 * I_b.
        // With n=4 and I_b=2us: rate must exceed 0.05/(2*2e-6) = 12.5k/s.
        let cold = PartitionCounters::new(SimInstant::ORIGIN);
        cold.reads.add(5_000); // 5k/s over 1s
        assert!(!eq1(&cold, 4, at(1), 0.0, SimDuration::ZERO));
        let hot = PartitionCounters::new(SimInstant::ORIGIN);
        hot.reads.add(50_000); // 50k/s
        assert!(eq1(&hot, 4, at(1), 0.0, SimDuration::ZERO));
    }

    #[test]
    fn eq1_filtered_delays_trigger_as_filters_prune() {
        let c = PartitionCounters::new(SimInstant::ORIGIN);
        c.reads.add(50_000); // 50k/s over 1s: triggers unfiltered at n=4
        assert!(eq1(&c, 4, at(1), 0.0, SimDuration::ZERO));
        // Filters pruning 90% of probes shrink the benefit 10×: below
        // threshold now (12.5k/s needed unfiltered → 125k/s at 0.9).
        assert!(!eq1(&c, 4, at(1), 0.9, SimDuration::ZERO));
        // Perfect filters: pruned probes cost ~0, never trigger on reads.
        assert!(!eq1(&c, 100, at(1), 1.0, SimDuration::ZERO));
        // Out-of-range ratios clamp instead of flipping the sign.
        assert!(eq1(&c, 4, at(1), -3.0, SimDuration::ZERO));
        assert!(!eq1(&c, 4, at(1), 7.0, SimDuration::ZERO));
    }

    #[test]
    fn eq2_triggers_on_update_heavy_windows() {
        let c = PartitionCounters::new(SimInstant::ORIGIN);
        // I_s = 5us, I_p = 2us: need removable > l0_records * 2/5.
        c.writes.add(1000);
        c.updates.add(100); // 100 removable vs 1000 L0 records: not worth it
        assert!(!eq2(&c, 1000, SimDuration::ZERO));
        c.updates.add(400); // 500 removable: worth it
        assert!(eq2(&c, 1000, SimDuration::ZERO));
        // A big L0 makes the same update count uneconomical.
        assert!(!eq2(&c, 10_000, SimDuration::ZERO));
        // Empty window or empty L0 never triggers.
        let empty = PartitionCounters::new(SimInstant::ORIGIN);
        assert!(!eq2(&empty, 1000, SimDuration::ZERO));
        assert!(!eq2(&c, 0, SimDuration::ZERO));
        // The τ_w gate closes a verdict the comparison alone would open.
        assert!(!explain_write_benefit(0, &c, 1000, false, SimDuration::ZERO).triggered());
    }

    #[test]
    fn knapsack_prefers_dense_partitions() {
        let candidates = vec![
            RetentionCandidate {
                partition: 0,
                reads: 100,
                bytes: 100,
            },
            RetentionCandidate {
                partition: 1,
                reads: 1000,
                bytes: 100,
            },
            RetentionCandidate {
                partition: 2,
                reads: 10,
                bytes: 100,
            },
        ];
        // Budget fits two.
        let kept = select_retained(&candidates, 200);
        assert_eq!(kept, vec![0, 1]);
    }

    #[test]
    fn knapsack_respects_budget_exactly() {
        let candidates = vec![
            RetentionCandidate {
                partition: 0,
                reads: 50,
                bytes: 60,
            },
            RetentionCandidate {
                partition: 1,
                reads: 49,
                bytes: 60,
            },
        ];
        // Only one fits.
        assert_eq!(select_retained(&candidates, 100), vec![0]);
        // Zero budget retains nothing.
        assert!(select_retained(&candidates, 0).is_empty());
        // Large budget retains all.
        assert_eq!(select_retained(&candidates, 1000), vec![0, 1]);
    }

    #[test]
    fn knapsack_skips_empty_partitions_and_greedy_fills_gaps() {
        let candidates = vec![
            RetentionCandidate {
                partition: 0,
                reads: 0,
                bytes: 0,
            },
            RetentionCandidate {
                partition: 1,
                reads: 500,
                bytes: 90,
            },
            RetentionCandidate {
                partition: 2,
                reads: 100,
                bytes: 10,
            },
        ];
        // Density: p2 (10/byte) > p1 (5.5/byte). Both fit in 100.
        assert_eq!(select_retained(&candidates, 100), vec![1, 2]);
        // Budget 50: p2 first (dense), p1 no longer fits.
        assert_eq!(select_retained(&candidates, 50), vec![2]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn prop_knapsack_respects_budget_and_is_nonempty_when_possible(
            sizes in proptest::collection::vec(1usize..10_000, 1..20),
            reads in proptest::collection::vec(0u64..100_000, 1..20),
            budget in 0usize..50_000,
        ) {
            let n = sizes.len().min(reads.len());
            let candidates: Vec<RetentionCandidate> = (0..n)
                .map(|i| RetentionCandidate {
                    partition: i,
                    reads: reads[i],
                    bytes: sizes[i],
                })
                .collect();
            let kept = select_retained(&candidates, budget);
            // Budget respected.
            let total: usize = kept
                .iter()
                .map(|&p| candidates[p].bytes)
                .sum();
            proptest::prop_assert!(total <= budget);
            // Ids valid and unique.
            let mut ids = kept.clone();
            ids.dedup();
            proptest::prop_assert_eq!(ids.len(), kept.len());
            proptest::prop_assert!(kept.iter().all(|&p| p < n));
            // If anything fits, the greedy picks something.
            if candidates.iter().any(|c| c.bytes > 0 && c.bytes <= budget) {
                proptest::prop_assert!(!kept.is_empty());
            }
        }
    }

    #[test]
    fn counters_reset_clears_window() {
        let mut c = PartitionCounters::new(SimInstant::ORIGIN);
        c.reads.add(10);
        c.writes.add(20);
        c.updates.add(5);
        c.reset(at(3));
        assert_eq!(c.reads.get(), 0);
        assert_eq!(c.writes.get(), 0);
        assert_eq!(c.updates.get(), 0);
        assert_eq!(c.window_start, at(3));
    }

    #[test]
    fn calibration_is_deterministic_and_ranks_numeric_codecs_denser() {
        let cost = CostModel::default();
        let a = CodecCostTable::calibrate(&cost);
        let b = CodecCostTable::calibrate(&cost);
        assert_eq!(a, b, "calibration must be virtual-clock deterministic");
        // On the timeseries shape both numeric codecs beat prefix groups.
        let bpe = a.bytes_per_entry;
        assert!(bpe[pmtable::CODEC_PREFIX as usize] > 0.0);
        assert!(bpe[pmtable::CODEC_DELTA as usize] < bpe[pmtable::CODEC_PREFIX as usize]);
        assert!(bpe[pmtable::CODEC_FIXED as usize] < bpe[pmtable::CODEC_PREFIX as usize]);
        // Every codec's decode was actually metered.
        for id in 0..pmtable::CODEC_COUNT {
            assert!(a.decode_group_nanos[id] > 0, "codec {id} group nanos");
            assert!(a.decode_entry_nanos[id] > 0, "codec {id} entry nanos");
        }
    }

    #[test]
    fn select_codec_is_prefix_on_zero_table_and_numeric_on_calibrated() {
        use encoding::delta::CodecStats;
        let cost = CostModel::default();
        let owned: Vec<Vec<u8>> = (0u64..256)
            .map(|i| (1_000_000 + 3 * i).to_be_bytes().to_vec())
            .collect();
        let keys: Vec<&[u8]> = owned.iter().map(|k| k.as_slice()).collect();
        let lens = vec![8usize; keys.len()];
        let stats = CodecStats::analyze(&keys, &lens);
        // Zero cost table: all scores tie, lowest id (prefix) wins —
        // the pre-calibration/pre-codec behavior.
        assert_eq!(
            select_codec(&stats, &CodecCostTable::default(), &cost),
            CodecMode::Prefix
        );
        // Calibrated: a numeric codec must win on the timeseries shape.
        let table = CodecCostTable::calibrate(&cost);
        let chosen = select_codec(&stats, &table, &cost);
        assert!(
            matches!(chosen, CodecMode::Delta | CodecMode::Fixed),
            "timeseries batch must pick a numeric codec, got {chosen:?}"
        );
        // Ineligible shapes fall back to prefix even when calibrated.
        let ragged: Vec<&[u8]> = vec![b"a", b"long-key", b"mid"];
        let ragged_stats = CodecStats::analyze(&ragged, &[3, 9, 100]);
        assert_eq!(
            select_codec(&ragged_stats, &table, &cost),
            CodecMode::Prefix
        );
        let empty = CodecStats::analyze(&[], &[]);
        assert_eq!(select_codec(&empty, &table, &cost), CodecMode::Prefix);
    }

    #[test]
    fn eq1_coded_probe_decode_raises_the_benefit_side() {
        let c = PartitionCounters::new(SimInstant::ORIGIN);
        c.reads.add(10_000); // 10k/s: below the 12.5k/s unfiltered bar at n=4
        assert!(!eq1(&c, 4, at(1), 0.0, SimDuration::ZERO));
        // Pricier probes (binary search + group decode) make the same
        // merge worth more: decode cost pushes it over the line.
        assert!(eq1(&c, 4, at(1), 0.0, SimDuration::from_micros(2)));
    }

    #[test]
    fn eq2_coded_decode_cost_delays_the_trigger() {
        let c = PartitionCounters::new(SimInstant::ORIGIN);
        c.writes.add(1000);
        c.updates.add(500); // removable 500 * 5us = 2.5ms saved
        assert!(eq2(&c, 1000, SimDuration::ZERO)); // spent 2ms
                                                   // Decoding each record adds 1us: spent 3ms > saved, not worth it.
        assert!(!eq2(&c, 1000, SimDuration::from_micros(1)));
    }

    #[test]
    fn decode_weighting_is_entries_weighted() {
        let table = CodecCostTable {
            decode_group_nanos: [100, 300, 500],
            decode_entry_nanos: [10, 30, 50],
            bytes_per_entry: [0.0; 3],
        };
        assert_eq!(
            table.probe_decode(std::iter::empty()),
            SimDuration::ZERO,
            "empty level-0 decodes nothing"
        );
        // 3:1 entry split between codecs 0 and 1: (3*100 + 1*300) / 4.
        let mix = [(0u8, 300usize), (1u8, 100usize)];
        assert_eq!(
            table.probe_decode(mix.iter().copied()),
            SimDuration::from_nanos(150)
        );
        assert_eq!(
            table.decode_per_record(mix.iter().copied()),
            SimDuration::from_nanos(15)
        );
    }
}
