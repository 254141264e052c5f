//! Shared LRU block cache.
//!
//! Caches decoded data blocks keyed by `(table, block offset)`. A hit
//! serves the block at DRAM cost; a miss pays the SSD random read. The
//! paper's Table I "SSTable in cache" row corresponds to a 100% hit rate
//! here.

use std::collections::HashMap;

use parking_lot::Mutex;
use sim::Counter;

use crate::block::Block;

/// Cache key: table file name hash + block offset.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BlockKey {
    pub table: u64,
    pub offset: u64,
}

/// Hash a table name to a compact cache id.
pub fn table_id(name: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

struct CacheShardEntry {
    block: Block,
    /// Monotonic recency stamp.
    stamp: u64,
}

struct CacheState {
    map: HashMap<BlockKey, CacheShardEntry>,
    used: usize,
    clock: u64,
}

/// A capacity-bounded LRU cache of decoded blocks.
pub struct BlockCache {
    capacity: usize,
    state: Mutex<CacheState>,
    /// Cache hits served.
    pub hits: Counter,
    /// Cache misses.
    pub misses: Counter,
    /// Blocks evicted.
    pub evictions: Counter,
}

impl BlockCache {
    /// A cache holding at most `capacity` bytes of decoded blocks.
    pub fn new(capacity: usize) -> Self {
        BlockCache {
            capacity,
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                used: 0,
                clock: 0,
            }),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
        }
    }

    /// A cache that stores nothing (every lookup misses).
    pub fn disabled() -> Self {
        Self::new(0)
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn used(&self) -> usize {
        self.state.lock().used
    }

    pub fn len(&self) -> usize {
        self.state.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch a block, refreshing its recency.
    pub fn get(&self, key: BlockKey) -> Option<Block> {
        let mut state = self.state.lock();
        state.clock += 1;
        let stamp = state.clock;
        match state.map.get_mut(&key) {
            Some(entry) => {
                entry.stamp = stamp;
                self.hits.incr();
                Some(entry.block.clone())
            }
            None => {
                self.misses.incr();
                None
            }
        }
    }

    /// Insert a block, evicting least-recently-used entries to fit.
    pub fn insert(&self, key: BlockKey, block: Block) {
        let size = block.size();
        if size > self.capacity {
            return; // larger than the whole cache: never cacheable
        }
        let mut state = self.state.lock();
        state.clock += 1;
        let stamp = state.clock;
        if let Some(old) = state.map.remove(&key) {
            state.used -= old.block.size();
        }
        while state.used + size > self.capacity {
            // Evict the stalest entry. O(n) scan is fine: eviction is rare
            // relative to hits and the map stays modest at our scales.
            let Some((&victim, _)) = state.map.iter().min_by_key(|(_, e)| e.stamp) else {
                break;
            };
            let removed = state.map.remove(&victim).expect("victim present");
            state.used -= removed.block.size();
            self.evictions.incr();
        }
        state.used += size;
        state.map.insert(key, CacheShardEntry { block, stamp });
    }

    /// Drop every cached block of a table (after the table is deleted).
    pub fn purge_table(&self, table: u64) {
        let mut state = self.state.lock();
        state.map.retain(|k, _| k.table != table);
        state.used = state.map.values().map(|e| e.block.size()).sum();
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
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
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
    use crate::block::BlockBuilder;
    use encoding::key::{InternalKey, KeyKind};

    fn block(tag: u32, pad: usize) -> Block {
        let mut b = BlockBuilder::new();
        let k = InternalKey::new(format!("k{tag}").as_bytes(), 1, KeyKind::Value);
        b.add(k.encoded(), &vec![0u8; pad]);
        Block::decode(b.finish()).unwrap()
    }

    fn key(i: u64) -> BlockKey {
        BlockKey {
            table: 1,
            offset: i,
        }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let c = BlockCache::new(1 << 16);
        assert!(c.get(key(0)).is_none());
        c.insert(key(0), block(0, 10));
        assert!(c.get(key(0)).is_some());
        assert_eq!(c.hits.get(), 1);
        assert_eq!(c.misses.get(), 1);
        assert!((c.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_evicts_stalest() {
        let b = block(0, 400);
        let unit = b.size();
        let c = BlockCache::new(unit * 3 + unit / 2); // fits 3
        for i in 0..3 {
            c.insert(key(i), block(i as u32, 400));
        }
        // Touch 0 and 1 so 2 is stalest.
        c.get(key(0));
        c.get(key(1));
        c.insert(key(3), block(3, 400));
        assert!(c.get(key(2)).is_none(), "2 should be evicted");
        assert!(c.get(key(0)).is_some());
        assert!(c.get(key(3)).is_some());
        assert_eq!(c.evictions.get(), 1);
    }

    #[test]
    fn oversized_blocks_are_not_cached() {
        let c = BlockCache::new(64);
        c.insert(key(0), block(0, 4096));
        assert!(c.get(key(0)).is_none());
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn disabled_cache_never_stores() {
        let c = BlockCache::disabled();
        c.insert(key(0), block(0, 8));
        assert!(c.get(key(0)).is_none());
    }

    #[test]
    fn reinsert_replaces_and_accounts() {
        let c = BlockCache::new(1 << 16);
        c.insert(key(0), block(0, 100));
        let used1 = c.used();
        c.insert(key(0), block(0, 300));
        assert!(c.used() > used1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn purge_table_removes_only_that_table() {
        let c = BlockCache::new(1 << 16);
        c.insert(
            BlockKey {
                table: 1,
                offset: 0,
            },
            block(1, 10),
        );
        c.insert(
            BlockKey {
                table: 2,
                offset: 0,
            },
            block(2, 10),
        );
        c.purge_table(1);
        assert!(c
            .get(BlockKey {
                table: 1,
                offset: 0
            })
            .is_none());
        assert!(c
            .get(BlockKey {
                table: 2,
                offset: 0
            })
            .is_some());
    }

    #[test]
    fn table_id_is_stable_and_distinct() {
        assert_eq!(table_id("a.sst"), table_id("a.sst"));
        assert_ne!(table_id("a.sst"), table_id("b.sst"));
    }
}
