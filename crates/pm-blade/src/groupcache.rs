//! Shared LRU cache of decoded PM-table prefix groups.
//!
//! The PM level-0 analogue of the SSD block cache
//! ([`sstable::BlockCache`]): a hit serves a group's entries from DRAM
//! and skips both the PM block read and the prefix reconstruction in
//! [`pmtable::PmTable`]. One cache is shared by every partition; each
//! group is charged its [`EntryRun::charge`] against the cache's own
//! byte budget ([`crate::options::Options::pm_group_cache_bytes`]).
//!
//! Keys are `(table cache-id, group index)`. Cache ids are allocated
//! from the engine's own monotonic counter
//! ([`crate::handle::CacheIds`], per engine like this cache) when a
//! table handle is built and never reused, so a retired table's entries
//! can never be served to a later table — they are also purged eagerly
//! ([`PmGroupCache::purge_table`]) when compaction frees the table.
//!
//! The structure is sharded by key hash. Lookups take only the shard's
//! *read* lock (recency is an atomic stamp store, not a map mutation),
//! so concurrent readers on different keys — or even the same hot key —
//! never serialize; inserts and evictions take the shard's write lock.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use pmtable::{EntryRun, GroupAccess};
use sim::Counter;

/// Number of independently locked shards.
const SHARDS: usize = 16;

/// Cache key: table cache-id plus group index within the table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct GroupKey {
    table: u64,
    group: u32,
}

struct CacheEntry {
    entries: Arc<EntryRun>,
    /// [`EntryRun::charge`] of `entries`, as inserted.
    bytes: usize,
    /// Monotonic recency stamp, updated through `&self` on every hit.
    stamp: AtomicU64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<GroupKey, CacheEntry>,
    used: usize,
}

/// A capacity-bounded, sharded LRU cache of decoded groups.
pub struct PmGroupCache {
    /// Per-shard byte budget (total capacity / shard count).
    shard_capacity: usize,
    capacity: usize,
    shards: Vec<RwLock<Shard>>,
    clock: AtomicU64,
    used: AtomicUsize,
    /// Lookups served from the cache.
    pub hits: Arc<Counter>,
    /// Lookups that fell through to a PM group decode.
    pub misses: Arc<Counter>,
    /// Entries evicted to make room.
    pub evictions: Arc<Counter>,
    /// Entries dropped because their table was retired by compaction.
    pub invalidations: Arc<Counter>,
}

impl PmGroupCache {
    /// A cache holding at most `capacity` bytes of decoded entries.
    pub fn new(capacity: usize) -> Self {
        PmGroupCache {
            shard_capacity: capacity / SHARDS,
            capacity,
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            clock: AtomicU64::new(0),
            used: AtomicUsize::new(0),
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            evictions: Arc::new(Counter::new()),
            invalidations: Arc::new(Counter::new()),
        }
    }

    /// A cache that stores nothing (every lookup misses).
    pub fn disabled() -> Self {
        Self::new(0)
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes of decoded entries currently held.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_for(&self, key: &GroupKey) -> &RwLock<Shard> {
        // Mix table and group so one table's groups spread over shards.
        let h = key
            .table
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(key.group as u64);
        &self.shards[(h >> 56) as usize % SHARDS]
    }

    fn get(&self, key: GroupKey) -> Option<Arc<EntryRun>> {
        if self.capacity == 0 {
            // Disabled cache: stay silent (no phantom miss counts).
            return None;
        }
        let shard = self.shard_for(&key).read();
        match shard.map.get(&key) {
            Some(entry) => {
                // Recency is an atomic store under the read lock: hits
                // never contend on the shard's write lock.
                let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                entry.stamp.store(stamp, Ordering::Relaxed);
                self.hits.incr();
                Some(Arc::clone(&entry.entries))
            }
            None => {
                self.misses.incr();
                None
            }
        }
    }

    fn insert(&self, key: GroupKey, entries: Arc<EntryRun>) {
        let bytes = entries.charge();
        if bytes > self.shard_capacity {
            return; // larger than a whole shard: never cacheable
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut shard = self.shard_for(&key).write();
        if let Some(old) = shard.map.remove(&key) {
            shard.used -= old.bytes;
            self.used.fetch_sub(old.bytes, Ordering::Relaxed);
        }
        while shard.used + bytes > self.shard_capacity {
            // Evict the shard's stalest entry. O(n) scan is fine:
            // eviction is rare relative to hits and each shard's map
            // stays modest at our scales.
            let Some((&victim, _)) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp.load(Ordering::Relaxed))
            else {
                break;
            };
            let removed = shard.map.remove(&victim).expect("victim present");
            shard.used -= removed.bytes;
            self.used.fetch_sub(removed.bytes, Ordering::Relaxed);
            self.evictions.incr();
        }
        shard.used += bytes;
        self.used.fetch_add(bytes, Ordering::Relaxed);
        shard.map.insert(
            key,
            CacheEntry {
                entries,
                bytes,
                stamp: AtomicU64::new(stamp),
            },
        );
    }

    /// Drop every cached group of a table (called when compaction
    /// retires the table and frees its PM region).
    pub fn purge_table(&self, table: u64) {
        for lock in &self.shards {
            let mut shard = lock.write();
            let before = shard.map.len();
            let mut freed = 0usize;
            shard.map.retain(|k, e| {
                if k.table == table {
                    freed += e.bytes;
                    false
                } else {
                    true
                }
            });
            shard.used -= freed;
            self.used.fetch_sub(freed, Ordering::Relaxed);
            self.invalidations.add((before - shard.map.len()) as u64);
        }
    }

    /// Observed hit ratio so far.
    pub fn hit_ratio(&self) -> f64 {
        let h = self.hits.get();
        let m = self.misses.get();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// A [`GroupAccess`] view scoped to one table, for threading into
    /// [`pmtable::PmTable::get_with_cache`].
    pub fn for_table(&self, table: u64) -> TableGroupCache<'_> {
        TableGroupCache {
            cache: self,
            table,
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }
}

/// The per-table [`GroupAccess`] adapter returned by
/// [`PmGroupCache::for_table`]. It counts the outcomes of its own
/// lookups, so the request tracer can attribute one table probe to the
/// decode cache (every lookup hit) or to a PM group decode (any lookup
/// missed); a scan ignores the counts.
pub struct TableGroupCache<'a> {
    cache: &'a PmGroupCache,
    table: u64,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl TableGroupCache<'_> {
    /// Group lookups through this adapter served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Group lookups through this adapter decoded from PM (including
    /// lookups against a disabled cache, which always decode).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }
}

impl GroupAccess for TableGroupCache<'_> {
    fn lookup(&self, group: u32) -> Option<Arc<EntryRun>> {
        let found = self.cache.get(GroupKey {
            table: self.table,
            group,
        });
        let outcome = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        outcome.set(outcome.get() + 1);
        found
    }

    fn store(&self, group: u32, entries: Arc<EntryRun>) {
        if self.cache.capacity == 0 {
            return;
        }
        self.cache.insert(
            GroupKey {
                table: self.table,
                group,
            },
            entries,
        );
    }
}

impl std::fmt::Debug for PmGroupCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmGroupCache")
            .field("capacity", &self.capacity)
            .field("used", &self.used())
            .field("hits", &self.hits.get())
            .field("misses", &self.misses.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encoding::key::KeyKind;

    fn group(tag: u8, n: usize, vlen: usize) -> Arc<EntryRun> {
        let mut run = EntryRun::default();
        for i in 0..n {
            let key = format!("t{tag:02}:{i:06}");
            run.push(&[key.as_bytes()], 1, KeyKind::Value, &vec![tag; vlen]);
        }
        Arc::new(run)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let c = PmGroupCache::new(1 << 20);
        let view = c.for_table(7);
        assert!(view.lookup(0).is_none());
        view.store(0, group(0, 4, 16));
        assert_eq!(view.lookup(0).unwrap().len(), 4);
        assert_eq!(c.hits.get(), 1);
        assert_eq!(c.misses.get(), 1);
        assert!((c.hit_ratio() - 0.5).abs() < 1e-9);
        assert!(c.used() > 0);
    }

    #[test]
    fn tables_do_not_alias() {
        let c = PmGroupCache::new(1 << 20);
        c.for_table(1).store(0, group(1, 2, 8));
        assert!(c.for_table(2).lookup(0).is_none());
        assert_eq!(c.for_table(1).lookup(0).unwrap().get(0).value, [1u8; 8]);
    }

    #[test]
    fn purge_table_removes_only_that_table() {
        let c = PmGroupCache::new(1 << 20);
        c.for_table(1).store(0, group(1, 2, 8));
        c.for_table(1).store(1, group(1, 2, 8));
        c.for_table(2).store(0, group(2, 2, 8));
        c.purge_table(1);
        assert!(c.for_table(1).lookup(0).is_none());
        assert!(c.for_table(1).lookup(1).is_none());
        assert!(c.for_table(2).lookup(0).is_some());
        assert_eq!(c.invalidations.get(), 2);
    }

    #[test]
    fn charge_is_decoded_dram_size_not_encoded_payload() {
        let g = group(0, 4, 64);
        // The charge counts the decoded keys and values, not what the
        // group takes on PM, which a dense codec could undershoot by
        // 3x+: 64 bytes per run and per entry on top of the bytes.
        let raw: usize = g.iter().map(|e| e.raw_len()).sum();
        assert!(
            g.charge() > raw,
            "decoded charge {} must exceed encoded payload {raw}",
            g.charge()
        );
        assert_eq!(g.charge(), 64 + 4 * (10 + 64 + 64));
    }

    #[test]
    fn disabled_cache_never_stores() {
        let c = PmGroupCache::disabled();
        c.for_table(1).store(0, group(1, 2, 8));
        assert!(c.for_table(1).lookup(0).is_none());
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn eviction_respects_capacity_and_recency() {
        let unit = group(0, 4, 64).charge();
        // One shard holds three groups; keys land in the same shard only
        // by table id, so pin a single table and distinct groups and size
        // the whole cache as SHARDS * (3.5 units) to make the *shard*
        // budget the binding constraint.
        let c = PmGroupCache::new(unit * 7 / 2 * SHARDS);
        let view = c.for_table(9);
        // Find three groups mapping to one shard by brute force.
        let key = |g: u32| GroupKey { table: 9, group: g };
        let target = c.shard_for(&key(0)) as *const _;
        let same_shard: Vec<u32> = (0..10_000u32)
            .filter(|&g| std::ptr::eq(c.shard_for(&key(g)), target))
            .take(4)
            .collect();
        assert_eq!(same_shard.len(), 4);
        for &g in &same_shard[..3] {
            view.store(g, group(0, 4, 64));
        }
        // Touch the first two so the third is stalest.
        view.lookup(same_shard[0]).unwrap();
        view.lookup(same_shard[1]).unwrap();
        view.store(same_shard[3], group(0, 4, 64));
        assert!(view.lookup(same_shard[2]).is_none(), "stalest was evicted");
        assert!(view.lookup(same_shard[0]).is_some());
        assert!(view.lookup(same_shard[3]).is_some());
        assert!(c.evictions.get() >= 1);
    }

    #[test]
    fn observed_access_counts_per_probe_outcomes() {
        let c = PmGroupCache::new(1 << 20);
        c.for_table(3).store(0, group(3, 2, 8));
        let obs = c.for_table(3);
        assert!(obs.lookup(0).is_some());
        assert!(obs.lookup(1).is_none());
        obs.store(1, group(3, 2, 8));
        assert_eq!(obs.hits(), 1);
        assert_eq!(obs.misses(), 1);
        assert!(c.for_table(3).lookup(1).is_some(), "store delegated");
    }

    #[test]
    fn oversized_groups_are_not_cached() {
        let c = PmGroupCache::new(256 * SHARDS);
        c.for_table(1).store(0, group(1, 64, 4096));
        assert!(c.for_table(1).lookup(0).is_none());
        assert_eq!(c.used(), 0);
    }
}
