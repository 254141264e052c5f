//! Allocation budgets, pinned so they cannot silently regress.
//!
//! Point reads: with every cache warm, a `Db::get` allocates the value
//! it returns and nothing else — and the count does not depend on how
//! many unsorted level-0 tables the partition holds.
//!
//! The uncached PM path: with the group cache disabled, a get and a
//! scan allocate per decoded *group* (its arena, its slots, its `Arc`)
//! and per row they return, never per decoded entry; and a scan
//! allocates and reads no more for unsorted tables that hold none of
//! its rows.
//!
//! Compactions: a flush and an SSD-to-SSD merge allocate per table and
//! per block, an internal compaction per input group and per output
//! table, never per record; a table's handle copies nothing its table
//! holds. An internal compaction keeps the merged key column's buffers,
//! so the flushes after it do not grow them again.
//!
//! Writes: a lone put or delete allocates its memtable node and nothing
//! else; a one-partition batch adds a constant for splitting it by
//! partition.
//!
//! The test binary installs a counting `#[global_allocator]` that
//! tallies per thread, so the harness's own threads and parallel tests
//! never bleed into a measurement. Maintenance is Inline: everything a
//! get does runs on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pm_blade::{
    CompactionRequest, Db, MetricKey, Mode, ReadSource, ScanRequest, SpanKind, WriteBatch,
};
use pmblade_integration_tests::{key_for, tiny_options, value_for};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes asked for: each allocation's size, each reallocation's new
    /// size.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn tally(bytes: usize) {
    // `try_with`: an allocation during thread teardown, after the
    // thread-local is gone, goes uncounted instead of panicking.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is two
// thread-local `Cell<u64>` bumps, which neither allocate (const-
// initialised, no destructor) nor unwind.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations (including reallocations) `f` makes on this thread.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// Bytes `f` allocates (and reallocates to) on this thread.
fn bytes_in(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

/// Lives only in the SSD level.
const SSD_KEY: u64 = 500;
/// Newest version in the sorted run.
const RUN_KEY: u64 = 501;
/// Newest version in the memtable.
const MEM_KEY: u64 = 502;
/// Never written, inside every table's key range.
const ABSENT_KEY: u64 = 503;
const PROBE_KEYS: std::ops::RangeInclusive<u64> = SSD_KEY..=ABSENT_KEY;

fn put_keys(db: &Db, keys: impl Iterator<Item = u64>, stamp: u64) {
    for i in keys {
        db.put(&key_for(i), &value_for(i + stamp, 100)).unwrap();
    }
}

fn unsorted_tables(db: &Db) -> i64 {
    db.metrics_snapshot().gauges[&MetricKey::partition("l0_unsorted_tables", 0)]
}

/// Allocations per warm `get` of each probe key: a memtable hit, a
/// group-cached PM hit, a block-cached SSD hit, and a miss that has to
/// look everywhere.
fn warm_get_allocations(db: &Db) -> [u64; 4] {
    // The memtable key went out with the last flush: put it back.
    put_keys(db, [MEM_KEY].into_iter(), 9);
    let probes = [
        (MEM_KEY, ReadSource::MemTable),
        (RUN_KEY, ReadSource::Pm),
        (SSD_KEY, ReadSource::Ssd),
        (ABSENT_KEY, ReadSource::Miss),
    ];
    probes.map(|(id, source)| {
        let key = key_for(id);
        // Twice to warm: the first get decodes the group or loads the
        // block, the second finds every lazily resolved handle in place.
        for _ in 0..2 {
            db.get(&key).unwrap();
        }
        let (allocations, out) = allocations_in(|| db.get(&key).unwrap());
        assert_eq!(out.source, source, "key {id}");
        assert_eq!(out.value.is_some(), source != ReadSource::Miss, "key {id}");
        allocations
    })
}

#[test]
fn warm_get_allocates_the_value_and_at_most_one_buffer_at_any_unsorted_count() {
    // The CI matrix's filter and codec overrides apply (the budget
    // holds with filters off and under every codec); cache sizes,
    // sampling and the compaction triggers are pinned: nothing may
    // evict, trace, or merge the unsorted tables away mid-count.
    let mut opts = tiny_options(Mode::PmBladePm);
    opts.pm_capacity = 32 << 20;
    opts.tau_m = 30 << 20;
    opts.memtable_bytes = 1 << 20;
    opts.l0_table_trigger = usize::MAX;
    opts.pm_group_cache_bytes = 8 << 20;
    opts.block_cache_bytes = 8 << 20;
    opts.trace_sample_every = 0;
    let db = Db::open(opts).unwrap();
    let flush = || db.compact(CompactionRequest::FlushAll).unwrap();

    // An SSD level holding every key but the absent one…
    put_keys(&db, (0..1000).filter(|&i| i != ABSENT_KEY), 0);
    flush();
    db.compact(CompactionRequest::Major { partition: 0 })
        .unwrap();
    // …a sorted run merged from two flushes, shadowing all of it except
    // the SSD probe key…
    for half in 0..2 {
        let keys = (0..1000).filter(|&i| i % 2 == half && i != SSD_KEY && i != ABSENT_KEY);
        put_keys(&db, keys, 1);
        flush();
    }
    db.compact(CompactionRequest::Internal { partition: 0 })
        .unwrap();
    assert_eq!(unsorted_tables(&db), 0);

    // …then 4 unsorted tables, then 16, then 64 (all the key sketch
    // covers). Each spans the whole key range, so every probe key falls
    // inside its fences and only the sketch (or, with filters off, a
    // group search) rules it out; none holds a probe key.
    let mut at = Vec::new();
    for target in [4, 16, 64] {
        for nth in unsorted_tables(&db)..target {
            let keys = (0..1000).filter(|i| !PROBE_KEYS.contains(i));
            put_keys(&db, keys.skip(nth as usize % 7).step_by(7), 2 + nth as u64);
            flush();
        }
        assert_eq!(unsorted_tables(&db), target);
        let allocations = warm_get_allocations(&db);
        // A hit allocates the value and nothing else (an SSD seek
        // rebuilds the keys it walks on the stack); a miss, nothing.
        let budgets = [("memtable", 1), ("pm", 1), ("ssd", 1), ("miss", 0)];
        for (n, (what, budget)) in allocations.iter().zip(budgets) {
            assert!(
                *n <= budget,
                "a warm {what} get allocated {n} times at {target} unsorted tables \
                 (budget: {budget})"
            );
        }
        at.push(allocations);
    }
    assert!(
        at.windows(2).all(|w| w[0] == w[1]),
        "allocations per get [memtable, pm, ssd, miss] must not depend on the \
         unsorted-table count (4, 16, 64 tables): {at:?}"
    );
}

/// An engine under `opts` where nothing flushes, merges or traces on
/// its own.
fn quiet_db(mut opts: pm_blade::Options) -> Db {
    // The pool holds one memtable: a limit, not an allocation.
    opts.memtable_bytes = 1 << 30;
    opts.pm_capacity = 1 << 30;
    // Eq 3 never fires: PM use cannot pass the pool's capacity.
    (opts.tau_w, opts.tau_m, opts.tau_t) = (usize::MAX, opts.pm_capacity, opts.pm_capacity);
    opts.l0_unsorted_hard_cap = usize::MAX;
    opts.l0_table_trigger = usize::MAX;
    opts.trace_sample_every = 0;
    Db::open(opts).unwrap()
}

/// Allocations of the one maintenance call that moves `n` records:
/// `load` fills the engine, `request` is timed.
fn compaction_allocations(
    opts: pm_blade::Options,
    n: u64,
    load: impl Fn(&Db),
    request: CompactionRequest,
) -> u64 {
    let db = quiet_db(opts);
    put_keys(&db, 0..n, 0);
    load(&db);
    let (allocations, done) = allocations_in(|| db.compact(request));
    done.unwrap();
    for i in (0..n).step_by(997) {
        assert_eq!(db.get(&key_for(i)).unwrap().value, Some(value_for(i, 100)));
    }
    allocations
}

/// What a flush of 20 000 records allocates in the costliest of the CI
/// matrix's configurations (filters on, auto codec): one table behind
/// one `Arc` with its fences, and nothing for its key range, region,
/// size, entry count or codec, which its handle reads from the table.
const FLUSH_OF_20K: u64 = 104;

/// What the internal compaction below allocates at 20 000 keys in that
/// configuration: per input group, and per output table one `Arc` for
/// the table and its fences and nothing its handle could read from the
/// table.
const INTERNAL_OF_20K: u64 = 6_859;

#[test]
fn a_flush_and_an_ssd_merge_allocate_per_table_and_block_not_per_record() {
    // A flush: the memtable's entries stream into one PM table (under
    // the CI matrix's codec, with or without a filter).
    let flush = |n| {
        let opts = tiny_options(Mode::PmBlade);
        compaction_allocations(opts, n, |_| (), CompactionRequest::FlushAll)
    };
    // SSD to SSD: a major compaction in SSD level-0 mode streams the one
    // level-0 table into level 1, which is then over its target and
    // cascades whole into level 2 — every record moves twice, read a
    // block at a time and written a block at a time.
    let cascade = |n| {
        let mut opts = tiny_options(Mode::SsdLevel0);
        (opts.l1_target, opts.level_multiplier) = (1 << 10, 1 << 20);
        let load = |db: &Db| db.compact(CompactionRequest::FlushAll).unwrap();
        let major = CompactionRequest::Major { partition: 0 };
        compaction_allocations(opts, n, load, major)
    };
    let flushed = flush(20_000);
    assert!(
        flushed <= FLUSH_OF_20K,
        "a flush of 20 000 records allocated {flushed} times (budget {FLUSH_OF_20K})"
    );
    for (what, count, passes) in [
        ("flush", &flush as &dyn Fn(u64) -> u64, 1),
        ("cascade", &cascade, 2),
    ] {
        let per_record = |n| count(n) as f64 / (n * passes) as f64;
        let (small, large) = (per_record(5_000), per_record(20_000));
        assert!(
            large <= 0.25,
            "a {what} of 20 000 records allocated {large:.3} times per record"
        );
        assert!(
            large <= small,
            "a {what} allocated {small:.3} times per record at 5 000 records \
             and {large:.3} at 20 000: the count grows with the records"
        );
    }
}

/// What one decoded group may allocate: its arena, its slot vector, the
/// `Arc` around them, and one to spare.
const PER_GROUP: u64 = 4;

/// One PM table of keys `0..1000` at `group_size`, no group cache: every
/// read decodes the groups it touches. The CI matrix's filter and codec
/// overrides apply.
fn uncached_pm_table(group_size: usize) -> Db {
    let mut opts = tiny_options(Mode::PmBlade);
    opts.memtable_bytes = 1 << 20;
    opts.pm_group_cache_bytes = 0;
    opts.pm_table.group_size = group_size;
    opts.trace_sample_every = 0;
    let db = Db::open(opts).unwrap();
    put_keys(&db, 0..1000, 0);
    db.compact(CompactionRequest::FlushAll).unwrap();
    db
}

#[test]
fn an_uncached_pm_get_allocates_per_decoded_group_not_per_entry() {
    let [at_8, at_16] = [8, 16].map(|group_size| {
        let db = uncached_pm_table(group_size);
        // 32 neighbours: keys inside a group and keys that lead one.
        let per_get = |id| {
            let key = key_for(id);
            db.get(&key).unwrap();
            let (allocations, out) = allocations_in(|| db.get(&key).unwrap());
            assert_eq!(out.source, ReadSource::Pm, "key {id}");
            assert_eq!(out.value, Some(value_for(id, 100)), "key {id}");
            allocations
        };
        let per_get: Vec<u64> = (400..432).map(per_get).collect();
        // A key inside its group decodes that group; a key that leads
        // one also decodes the group before it, where a newer version
        // could sit.
        let (least, most) = (
            *per_get.iter().min().unwrap(),
            *per_get.iter().max().unwrap(),
        );
        assert!(
            least <= 2 + PER_GROUP && most <= 2 + 2 * PER_GROUP,
            "an uncached PM get allocated {least}..={most} times at group size {group_size} \
             (budget: the value, one buffer, {PER_GROUP} per decoded group)"
        );
        (least, most)
    });
    assert_eq!(
        at_8, at_16,
        "allocations per get must not depend on the entries per group (8 vs 16)"
    );
}

#[test]
fn an_uncached_pm_scan_allocates_per_group_and_per_row_not_per_entry() {
    for group_size in [8, 16] {
        let db = uncached_pm_table(group_size);
        let request = || ScanRequest::new().start(key_for(400)).limit(50);
        db.scan(request()).unwrap();
        let (allocations, (rows, _)) = allocations_in(|| db.scan(request()).unwrap());
        assert_eq!(rows.len(), 50);
        // 50 rows sit in at most `50 / group_size + 2` groups; a row is
        // its key and its value; the rest (cursors, the heap, the result
        // vector's growth) does not grow with either.
        let groups = 50 / group_size as u64 + 2;
        let budget = 2 * 50 + PER_GROUP * groups + 24;
        assert!(
            allocations <= budget,
            "a 50-row scan of {groups} groups of {group_size} allocated {allocations} times \
             (budget {budget}: 2 per row, {PER_GROUP} per group, 24 per scan)"
        );
    }
}

#[test]
fn a_scan_allocates_and_reads_as_much_over_32_unsorted_tables_as_over_8() {
    // No group cache, so each scan decodes (and allocates for) every
    // group it opens; nothing merges the unsorted tables away.
    let mut opts = tiny_options(Mode::PmBladePm);
    opts.pm_capacity = 32 << 20;
    opts.tau_m = 30 << 20;
    opts.memtable_bytes = 1 << 20;
    opts.l0_table_trigger = usize::MAX;
    opts.l0_unsorted_hard_cap = usize::MAX;
    opts.pm_group_cache_bytes = 0;
    opts.trace_sample_every = 0;
    let db = Db::open(opts).unwrap();
    let flush = || db.compact(CompactionRequest::FlushAll).unwrap();
    let counter = |name| db.metrics_snapshot().counter(name);
    // Allocations and PM bytes read of one 50-row scan, and the unsorted
    // tables it held behind the merged key column and opened.
    let scan = || {
        let request = || ScanRequest::new().start(key_for(400)).limit(50);
        db.scan(request()).unwrap();
        let before = [counter("pm_bytes_read"), counter("pm_scan_tables_total")];
        let opened = counter("pm_scan_tables_sought_total");
        let (allocations, (rows, _)) = allocations_in(|| db.scan(request()).unwrap());
        assert_eq!(rows.len(), 50);
        let read = counter("pm_bytes_read") - before[0];
        let held = counter("pm_scan_tables_total") - before[1];
        (
            allocations,
            read,
            held,
            counter("pm_scan_tables_sought_total") - opened,
        )
    };
    // The rows: eight tables, each every eighth key of 0..1000.
    for table in 0..8 {
        put_keys(&db, (0..1000).filter(|i| i % 8 == table), 0);
        flush();
    }
    let (allocations, read, held, opened) = scan();
    assert_eq!((held, opened), (8, 8));
    // Then 24 tables across the scan's range with no key among its rows.
    for table in 0..24 {
        put_keys(&db, [0, 999].into_iter(), 1 + table);
        flush();
    }
    assert_eq!(unsorted_tables(&db), 32);
    let at_32 = scan();
    assert_eq!(
        at_32,
        (allocations, read, 32, 8),
        "(allocations, PM bytes read, tables held, tables opened) of a 50-row scan \
         at 32 unsorted tables, against 8"
    );
}

#[test]
fn a_scans_level0_seek_costs_as_much_over_32_unsorted_tables_as_over_8() {
    // The level-0 of the test above, every scan traced.
    let mut opts = tiny_options(Mode::PmBladePm);
    opts.pm_capacity = 32 << 20;
    opts.tau_m = 30 << 20;
    opts.memtable_bytes = 1 << 20;
    opts.l0_table_trigger = usize::MAX;
    opts.l0_unsorted_hard_cap = usize::MAX;
    opts.pm_group_cache_bytes = 0;
    opts.trace_sample_every = 1;
    let line = opts.cost.dram.random_read(64).as_nanos();
    let db = Db::open(opts).unwrap();
    let flush = || db.compact(CompactionRequest::FlushAll).unwrap();
    // The virtual nanos of a 50-row scan's filter consults: its search
    // and walk of the merged key column.
    let filter_consult = || {
        let (rows, _) = db
            .scan(ScanRequest::new().start(key_for(400)).limit(50))
            .unwrap();
        assert_eq!(rows.len(), 50);
        let trace = db.flight_recorder().pop().unwrap();
        let stage = trace
            .stages
            .iter()
            .find(|s| s.kind == SpanKind::FilterConsult);
        stage.map_or(0, |s| s.end_nanos - s.start_nanos)
    };
    for table in 0..8 {
        put_keys(&db, (0..1000).filter(|i| i % 8 == table), 0);
        flush();
    }
    let at_8 = filter_consult();
    assert!(at_8 > 0);
    for table in 0..24 {
        put_keys(&db, [0, 999].into_iter(), 1 + table);
        flush();
    }
    assert_eq!(unsorted_tables(&db), 32);
    // 1 048 entries against 1 000: one more probe of the search, and
    // the walk's entries sit 24 further on, so its lines may split
    // differently.
    let at_32 = filter_consult();
    assert!(
        at_32.abs_diff(at_8) <= 2 * line,
        "a 50-row scan's filter consults took {at_32} ns over 32 unsorted tables \
         and {at_8} ns over 8; a line is {line} ns"
    );
}

#[test]
fn an_internal_compaction_allocates_per_group_and_table_not_per_record() {
    // Two overlapping unsorted tables (all keys, then every other key
    // again) merged into the sorted run: 1.5 n records in, n out.
    let internal = |n| {
        let load = |db: &Db| {
            db.compact(CompactionRequest::FlushAll).unwrap();
            put_keys(db, (0..n).step_by(2), 0);
            db.compact(CompactionRequest::FlushAll).unwrap();
        };
        let request = CompactionRequest::Internal { partition: 0 };
        compaction_allocations(tiny_options(Mode::PmBlade), n, load, request)
    };
    let (small, large) = (internal(5_000), internal(20_000));
    assert!(
        large <= INTERNAL_OF_20K,
        "an internal compaction of 20 000 keys allocated {large} times \
         (budget {INTERNAL_OF_20K})"
    );
    let (small, large) = (small as f64 / 5_000.0, large as f64 / 20_000.0);
    // Each group of 16 input records allocates three times, so 1.5 n
    // input records make 0.28 n; the output tables add theirs.
    assert!(
        large <= 0.5,
        "an internal compaction of 20 000 keys allocated {large:.3} times per key"
    );
    assert!(
        large <= small,
        "an internal compaction allocated {small:.3} times per key at 5 000 keys \
         and {large:.3} at 20 000: the count grows with the records"
    );
}

/// What a `write_batch` allocates beside its nodes: the per-partition
/// split's outer vector and the one partition's op vector.
const BATCH_SPLIT: u64 = 2;

/// Check that every write in `counts` allocated exactly `base`, except
/// the few that also grew one of the memtable's two arenas (its nodes
/// and their links), each by doubling: at most `growths` in all, and
/// never both arenas twice in one write.
fn assert_write_allocations(what: &str, counts: &[u64], base: u64, growths: usize) {
    let grew: Vec<_> = counts.iter().filter(|&&n| n != base).collect();
    assert!(
        grew.len() <= growths && grew.iter().all(|&&n| n > base && n <= base + 2),
        "every {what} must allocate {base}, plus an arena doubling in at most \
         {growths} of them: {} of {} differ, the first {:?}",
        grew.len(),
        counts.len(),
        &grew[..grew.len().min(8)]
    );
}

#[test]
fn a_lone_put_or_delete_allocates_its_memtable_node_and_nothing_else() {
    // Nothing flushes, merges or traces: the memtable holds every write.
    let mut opts = tiny_options(Mode::PmBlade);
    opts.memtable_bytes = 1 << 30;
    opts.pm_capacity = 1 << 30;
    (opts.tau_w, opts.tau_m, opts.tau_t) = (usize::MAX, opts.pm_capacity, opts.pm_capacity);
    opts.trace_sample_every = 0;
    let db = Db::open(opts).unwrap();
    const KEYS: u64 = 1_000;
    // Every key once, so the partition's set of seen keys holds them all
    // and the timed writes are overwrites.
    put_keys(&db, 0..KEYS, 0);
    // Deletes every fourth key, puts the rest: 1 000 → 2 000 entries,
    // so each arena doubles at most twice.
    let counts: Vec<u64> = (0..KEYS)
        .map(|i| {
            let (key, value) = (key_for(i), value_for(i + 1, 100));
            let (allocations, done) = allocations_in(|| {
                if i % 4 == 3 {
                    db.delete(&key)
                } else {
                    db.put(&key, &value)
                }
            });
            done.unwrap();
            allocations
        })
        .collect();
    assert_write_allocations("lone put or delete", &counts, 1, 4);
    // Four-op batches (three puts and a delete) on the one partition:
    // 2 000 → 2 400 entries.
    let counts: Vec<u64> = (0..100)
        .map(|round| {
            let mut batch = WriteBatch::new();
            for i in round * 4..round * 4 + 3 {
                batch.put(key_for(i), value_for(i + 2, 100));
            }
            batch.delete(key_for(round * 4 + 3));
            let (allocations, done) = allocations_in(|| db.write_batch(batch));
            done.unwrap();
            allocations
        })
        .collect();
    assert_write_allocations("4-op batch", &counts, 4 + BATCH_SPLIT, 2);
    for i in [0, 3, 398, 401, 999] {
        // The batches rewrote keys 0..400, with their own stamp.
        let stamp = if i < 400 { 2 } else { 1 };
        let expected = (i % 4 != 3).then(|| value_for(i + stamp, 100));
        assert_eq!(db.get(&key_for(i)).unwrap().value, expected, "key {i}");
    }
}

#[test]
fn an_internal_compaction_keeps_the_merged_key_columns_buffers() {
    // Two identical cycles, each from an empty level-0: 2 000 keys
    // flushed into one unsorted table, whose windows go into the merged
    // key column, then merged into the sorted run. A major compaction
    // between them empties level-0 again. The internal compaction clears
    // the column but keeps its buffers, so the second cycle's flush
    // grows them no more: it allocates at least the column's 12 bytes
    // per entry fewer than the first.
    const N: u64 = 2_000;
    let db = quiet_db(tiny_options(Mode::PmBlade));
    let cycle = |stamp| {
        put_keys(&db, 0..N, stamp);
        bytes_in(|| {
            db.compact(CompactionRequest::FlushAll).unwrap();
            db.compact(CompactionRequest::Internal { partition: 0 })
                .unwrap();
        })
    };
    let first = cycle(0);
    db.compact(CompactionRequest::Major { partition: 0 })
        .unwrap();
    assert_eq!(unsorted_tables(&db), 0);
    let second = cycle(1);
    assert!(
        second + 12 * N <= first,
        "the first cycle allocated {first} bytes, the second {second}: \
         the second grew the merged key column again"
    );
}
