//! Shared LRU cache of decoded PM-table prefix groups.
//!
//! The PM level-0 analogue of the SSD block cache, and the same
//! structure ([`sstable::cache::LruCache`]): a hit serves a group's
//! entries from DRAM and skips both the PM block read and the prefix
//! reconstruction in [`pmtable::PmTable`]. One cache is shared by every
//! partition; each group is charged its [`EntryRun::charge`] against the
//! cache's byte budget. That budget is the group cache's share of the
//! DRAM it splits with the block cache: it opens at
//! [`crate::options::Options::pm_group_cache_bytes`], and the engine's
//! read path moves bytes between the two from their ghost lists (the
//! keys each evicted; `engine::read`'s `CacheTuner`).
//!
//! Keys are `(region id, group index)`: a PM table is named by the
//! [`pm_device::PmPool`] region it lives in. One cache serves one pool,
//! the engine's, whose ids are never reused, so a retired table's
//! groups can never be served to a later table; they are also purged
//! eagerly (`purge_table`) when compaction frees the region. Region ids
//! are per pool, not per process, so two engines running the same
//! workload place and evict groups in the same shards, which every
//! virtual-time benchmark and parity test relies on.
//!
//! The cache has 16 shards, each its own mutex and exact LRU over a
//! sixteenth of the budget. A hit takes its shard's mutex to relink the
//! entry at the front, in O(1); readers on different shards never
//! serialize.

use std::cell::Cell;
use std::sync::Arc;

use pmtable::{EntryRun, GroupAccess};
use sstable::cache::{CacheKey, LruCache};

/// The shared group cache: decoded groups in 16 shards.
pub type PmGroupCache = LruCache<Arc<EntryRun>, 16>;

/// The per-table [`GroupAccess`] view of a [`PmGroupCache`], threaded
/// into [`pmtable::PmTable::get_with_cache`] and the PM cursors. It
/// counts the outcomes of its own lookups, so the request tracer can
/// attribute one table probe to the decode cache (every lookup hit) or
/// to a PM group decode (any lookup missed); a scan ignores the counts.
pub struct TableGroupCache<'a> {
    cache: &'a PmGroupCache,
    table: pm_device::RegionId,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl<'a> TableGroupCache<'a> {
    pub fn new(cache: &'a PmGroupCache, table: pm_device::RegionId) -> Self {
        TableGroupCache {
            cache,
            table,
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// Group lookups through this adapter served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Group lookups through this adapter decoded from PM (including
    /// lookups against a disabled cache, which always decode).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    fn key(&self, group: u32) -> CacheKey {
        CacheKey {
            table: self.table,
            pos: group as u64,
        }
    }
}

impl GroupAccess for TableGroupCache<'_> {
    fn lookup(&self, group: u32) -> Option<Arc<EntryRun>> {
        let found = self.cache.get(self.key(group));
        let outcome = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        outcome.set(outcome.get() + 1);
        found
    }

    fn store(&self, group: u32, entries: Arc<EntryRun>) {
        let charge = entries.charge();
        self.cache.insert(self.key(group), entries, charge);
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
        let view = TableGroupCache::new(&c, 7);
        assert!(view.lookup(0).is_none());
        view.store(0, group(0, 4, 16));
        assert_eq!(view.lookup(0).unwrap().len(), 4);
        assert_eq!(c.hits.get(), 1);
        assert_eq!(c.misses.get(), 1);
        assert!(c.used() > 0);
    }

    #[test]
    fn tables_do_not_alias() {
        let c = PmGroupCache::new(1 << 20);
        TableGroupCache::new(&c, 1).store(0, group(1, 2, 8));
        assert!(TableGroupCache::new(&c, 2).lookup(0).is_none());
        let found = TableGroupCache::new(&c, 1).lookup(0).unwrap();
        assert_eq!(found.get(0).value, [1u8; 8]);
    }

    #[test]
    fn purge_table_removes_only_that_table() {
        let c = PmGroupCache::new(1 << 20);
        let (one, two) = (TableGroupCache::new(&c, 1), TableGroupCache::new(&c, 2));
        one.store(0, group(1, 2, 8));
        one.store(1, group(1, 2, 8));
        two.store(0, group(2, 2, 8));
        c.purge_table(1);
        assert!(one.lookup(0).is_none());
        assert!(one.lookup(1).is_none());
        assert!(two.lookup(0).is_some());
        assert_eq!(c.invalidations.get(), 2);
    }

    #[test]
    fn charge_is_decoded_dram_size_not_encoded_payload() {
        let g = group(0, 4, 64);
        // The charge counts the decoded keys and values, not what the
        // group takes on PM, which a dense codec could undershoot by
        // 3x+: 64 bytes per run and a 24-byte slot per entry on top of
        // the bytes.
        let raw: usize = g.iter().map(|e| e.raw_len()).sum();
        assert!(
            g.charge() > raw,
            "decoded charge {} must exceed encoded payload {raw}",
            g.charge()
        );
        assert_eq!(g.charge(), 64 + 4 * (10 + 64 + 24));
    }

    #[test]
    fn disabled_cache_never_stores() {
        let c = PmGroupCache::disabled();
        let view = TableGroupCache::new(&c, 1);
        view.store(0, group(1, 2, 8));
        assert!(view.lookup(0).is_none());
        assert_eq!(c.used(), 0);
        // The adapter saw a miss (the group is decoded); the cache, never
        // consulted, counts nothing.
        assert_eq!((view.misses(), c.misses.get()), (1, 0));
    }

    #[test]
    fn eviction_respects_capacity_and_recency() {
        let unit = group(0, 4, 64).charge();
        // Find four groups of one table that share a shard, by asking a
        // cache whose shards hold one group each: storing a group evicts
        // group 0 only when it lands in group 0's shard.
        let probe = PmGroupCache::new(unit * 16);
        let pv = TableGroupCache::new(&probe, 9);
        let mut same_shard = vec![0u32];
        same_shard.extend(
            (1..10_000u32)
                .filter(|&g| {
                    pv.store(0, group(0, 4, 64));
                    pv.store(g, group(0, 4, 64));
                    pv.lookup(0).is_none()
                })
                .take(3),
        );
        assert_eq!(same_shard.len(), 4);
        // Each shard holds three groups (3.5 units), so the *shard*
        // budget, not the whole cache's, is the binding constraint.
        let c = PmGroupCache::new(unit * 7 / 2 * 16);
        let view = TableGroupCache::new(&c, 9);
        for &g in &same_shard[..3] {
            view.store(g, group(0, 4, 64));
        }
        // Touch the first two so the third is stalest.
        view.lookup(same_shard[0]).unwrap();
        view.lookup(same_shard[1]).unwrap();
        view.store(same_shard[3], group(0, 4, 64));
        assert!(view.lookup(same_shard[2]).is_none(), "stalest was evicted");
        assert!(view.lookup(same_shard[0]).is_some());
        assert!(view.lookup(same_shard[1]).is_some());
        assert!(view.lookup(same_shard[3]).is_some());
        assert_eq!(c.evictions.get(), 1);
        assert!(c.used() <= unit * 7 / 2 * 16);
    }

    #[test]
    fn observed_access_counts_per_probe_outcomes() {
        let c = PmGroupCache::new(1 << 20);
        TableGroupCache::new(&c, 3).store(0, group(3, 2, 8));
        let obs = TableGroupCache::new(&c, 3);
        assert!(obs.lookup(0).is_some());
        assert!(obs.lookup(1).is_none());
        obs.store(1, group(3, 2, 8));
        assert_eq!(obs.hits(), 1);
        assert_eq!(obs.misses(), 1);
        let later = TableGroupCache::new(&c, 3);
        assert!(later.lookup(1).is_some(), "store delegated");
    }

    #[test]
    fn oversized_groups_are_not_cached() {
        // 256 bytes per shard; the group is far larger.
        let c = PmGroupCache::new(256 * 16);
        let view = TableGroupCache::new(&c, 1);
        view.store(0, group(1, 64, 4096));
        assert!(view.lookup(0).is_none());
        assert_eq!(c.used(), 0);
    }
}
