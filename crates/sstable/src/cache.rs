//! The one DRAM cache of the workspace: an exact LRU, O(1) per
//! operation, generic over the value it holds.
//!
//! Entries are keyed by `(table cache-id, position)`, and each is
//! charged the bytes its inserter names against a byte budget. Two
//! caches are built from it:
//! - [`BlockCache`]: decoded SSTable data blocks keyed by `(table, block
//!   offset)`, in one shard, so one global LRU. A hit serves the block at
//!   DRAM cost; a miss pays the SSD random read. The paper's Table I
//!   "SSTable in cache" row corresponds to a 100% hit rate here.
//! - `pm_blade::PmGroupCache`: decoded PM-table prefix groups keyed by
//!   `(table, group index)`, in 16 shards.
//!
//! A cache of `SHARDS` shards is that many independent LRUs, each behind
//! its own mutex and holding at most `capacity / SHARDS` bytes. A key's
//! shard is the top byte of `table * 0x9E3779B97F4A7C15 + position`.
//! Within a shard the nodes sit in a dense slab, doubly linked by slot
//! index in recency order, and a map (over the fixed
//! [`encoding::hash::FixedHasher`]) finds a key's slot: a hit relinks
//! its node at the front, an insert evicts from the back.
//!
//! A cache of capacity 0 is disabled: it stores nothing, and a lookup
//! returns `None` without taking a lock or counting a miss.

use std::sync::Arc;

use encoding::hash::HashMap;
use parking_lot::Mutex;
use sim::Counter;

use crate::block::Block;

/// The SSD block cache: one shard of decoded data blocks.
pub type BlockCache = LruCache<Block>;

/// Cache key: a table's cache id plus a position in the table (a block
/// offset, a group index).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    pub table: u64,
    pub pos: u64,
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

/// "No slot": the end of the recency list.
const NIL: usize = usize::MAX;

struct Node<V> {
    key: CacheKey,
    value: V,
    /// Bytes charged against the shard's budget, as inserted.
    charge: usize,
    /// Slot of the next more recently used node.
    prev: usize,
    /// Slot of the next less recently used node.
    next: usize,
}

/// One shard's LRU.
struct Shard<V> {
    map: HashMap<CacheKey, usize>,
    nodes: Vec<Node<V>>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot: the next victim.
    tail: usize,
    used: usize,
}

impl<V> Shard<V> {
    fn new() -> Self {
        Shard {
            map: HashMap::default(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            used: 0,
        }
    }

    /// Rewire the neighbours of a node whose links are `(prev, next)`:
    /// the node before it (or `head`) now leads to `forward`, the node
    /// after it (or `tail`) back to `backward`. Past the node to unlink
    /// it; to its new slot after it moved.
    fn relink(&mut self, (prev, next): (usize, usize), forward: usize, backward: usize) {
        match prev {
            NIL => self.head = forward,
            p => self.nodes[p].next = forward,
        }
        match next {
            NIL => self.tail = backward,
            n => self.nodes[n].prev = backward,
        }
    }

    fn unlink(&mut self, slot: usize) {
        let links = (self.nodes[slot].prev, self.nodes[slot].next);
        self.relink(links, links.1, links.0);
    }

    fn push_front(&mut self, slot: usize) {
        (self.nodes[slot].prev, self.nodes[slot].next) = (NIL, self.head);
        match self.head {
            NIL => self.tail = slot,
            head => self.nodes[head].prev = slot,
        }
        self.head = slot;
    }

    /// Drop the node in `slot`; the slab's last node takes its place.
    fn remove(&mut self, slot: usize) {
        self.unlink(slot);
        let node = self.nodes.swap_remove(slot);
        self.map.remove(&node.key);
        self.used -= node.charge;
        if let Some(moved) = self.nodes.get(slot) {
            let (key, links) = (moved.key, (moved.prev, moved.next));
            self.map.insert(key, slot);
            self.relink(links, slot, slot);
        }
    }
}

/// A capacity-bounded LRU cache in `SHARDS` independently locked shards.
pub struct LruCache<V, const SHARDS: usize = 1> {
    capacity: usize,
    shards: [Mutex<Shard<V>>; SHARDS],
    /// Lookups served from the cache.
    pub hits: Arc<Counter>,
    /// Lookups that found nothing.
    pub misses: Arc<Counter>,
    /// Entries evicted to make room.
    pub evictions: Arc<Counter>,
    /// Entries dropped because their table was purged.
    pub invalidations: Arc<Counter>,
}

impl<V: Clone, const SHARDS: usize> LruCache<V, SHARDS> {
    /// A cache holding at most `capacity` bytes, `capacity / SHARDS` in
    /// each shard.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            shards: std::array::from_fn(|_| Mutex::new(Shard::new())),
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            evictions: Arc::new(Counter::new()),
            invalidations: Arc::new(Counter::new()),
        }
    }

    /// A cache that stores nothing and counts nothing.
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// Bytes currently charged.
    pub fn used(&self) -> usize {
        self.shards.iter().map(|s| s.lock().used).sum()
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().nodes.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, key: CacheKey) -> &Mutex<Shard<V>> {
        // Mix table and position so one table's entries spread over shards.
        let h = key
            .table
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(key.pos);
        &self.shards[(h >> 56) as usize % SHARDS]
    }

    /// Fetch a value, making it the most recently used of its shard.
    pub fn get(&self, key: CacheKey) -> Option<V> {
        if self.capacity == 0 {
            return None;
        }
        let mut shard = self.shard(key).lock();
        let Some(&slot) = shard.map.get(&key) else {
            self.misses.incr();
            return None;
        };
        shard.unlink(slot);
        shard.push_front(slot);
        self.hits.incr();
        Some(shard.nodes[slot].value.clone())
    }

    /// Insert a value charged `charge` bytes, evicting its shard's least
    /// recently used entries to fit. A value larger than a whole shard is
    /// never cached.
    pub fn insert(&self, key: CacheKey, value: V, charge: usize) {
        let budget = self.capacity / SHARDS;
        if charge > budget {
            return;
        }
        let mut shard = self.shard(key).lock();
        if let Some(&old) = shard.map.get(&key) {
            shard.remove(old);
        }
        while shard.used + charge > budget && shard.tail != NIL {
            let victim = shard.tail;
            shard.remove(victim);
            self.evictions.incr();
        }
        shard.used += charge;
        let slot = shard.nodes.len();
        shard.nodes.push(Node {
            key,
            value,
            charge,
            prev: NIL,
            next: NIL,
        });
        shard.map.insert(key, slot);
        shard.push_front(slot);
    }

    /// Drop every cached entry of a table (after the table is retired).
    pub fn purge_table(&self, table: u64) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            // From the back: the node `remove` moves into a freed slot
            // was already passed over.
            for slot in (0..shard.nodes.len()).rev() {
                if shard.nodes[slot].key.table == table {
                    shard.remove(slot);
                    self.invalidations.incr();
                }
            }
        }
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

    /// Insert a block charged its size, as an SSTable read does.
    fn put(c: &BlockCache, key: CacheKey, block: Block) {
        let charge = block.size();
        c.insert(key, block, charge);
    }

    fn key(i: u64) -> CacheKey {
        CacheKey { table: 1, pos: i }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let c = BlockCache::new(1 << 16);
        assert!(c.get(key(0)).is_none());
        put(&c, key(0), block(0, 10));
        assert!(c.get(key(0)).is_some());
        assert_eq!(c.hits.get(), 1);
        assert_eq!(c.misses.get(), 1);
    }

    #[test]
    fn lru_evicts_stalest() {
        let b = block(0, 400);
        let unit = b.size();
        let c = BlockCache::new(unit * 3 + unit / 2); // fits 3
        for i in 0..3 {
            put(&c, key(i), block(i as u32, 400));
        }
        // Touch 0 and 1 so 2 is stalest.
        c.get(key(0));
        c.get(key(1));
        put(&c, key(3), block(3, 400));
        assert!(c.get(key(2)).is_none(), "2 should be evicted");
        assert!(c.get(key(0)).is_some());
        assert!(c.get(key(3)).is_some());
        assert_eq!(c.evictions.get(), 1);
    }

    #[test]
    fn oversized_blocks_are_not_cached() {
        let c = BlockCache::new(64);
        put(&c, key(0), block(0, 4096));
        assert!(c.get(key(0)).is_none());
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn disabled_cache_never_stores() {
        let c = BlockCache::disabled();
        put(&c, key(0), block(0, 8));
        assert!(c.get(key(0)).is_none());
        // Never consulted, so nothing is counted either.
        assert_eq!((c.hits.get(), c.misses.get()), (0, 0));
    }

    #[test]
    fn reinsert_replaces_and_accounts() {
        let c = BlockCache::new(1 << 16);
        put(&c, key(0), block(0, 100));
        let used1 = c.used();
        put(&c, key(0), block(0, 300));
        assert!(c.used() > used1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn purge_table_removes_only_that_table() {
        let c = BlockCache::new(1 << 16);
        let (one, two) = (CacheKey { table: 1, pos: 0 }, CacheKey { table: 2, pos: 0 });
        put(&c, one, block(1, 10));
        put(&c, two, block(2, 10));
        c.purge_table(1);
        assert!(c.get(one).is_none());
        assert!(c.get(two).is_some());
        assert_eq!(c.invalidations.get(), 1);
    }

    /// The rule this cache replaced, kept as the model: each of `shards`
    /// shards holds `capacity / shards` bytes, a key's shard is the top
    /// byte of `table * 0x9E3779B97F4A7C15 + pos`, every entry carries a
    /// recency stamp, and a shard's victim is found by scanning it for
    /// the smallest stamp.
    struct StampLru {
        shards: usize,
        shard_capacity: usize,
        /// Key → (charge, stamp).
        map: HashMap<CacheKey, (usize, u64)>,
        clock: u64,
        evictions: u64,
        invalidations: u64,
    }

    impl StampLru {
        fn new(capacity: usize, shards: usize) -> Self {
            StampLru {
                shards,
                shard_capacity: capacity / shards,
                map: HashMap::default(),
                clock: 0,
                evictions: 0,
                invalidations: 0,
            }
        }

        fn shard(&self, key: CacheKey) -> usize {
            let h = key
                .table
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(key.pos);
            (h >> 56) as usize % self.shards
        }

        fn used(&self, shard: usize) -> usize {
            let of_shard = self.map.iter().filter(|(k, _)| self.shard(**k) == shard);
            of_shard.map(|(_, e)| e.0).sum()
        }

        fn get(&mut self, key: CacheKey) -> Option<usize> {
            self.clock += 1;
            let entry = self.map.get_mut(&key)?;
            entry.1 = self.clock;
            Some(entry.0)
        }

        fn insert(&mut self, key: CacheKey, charge: usize) {
            if charge > self.shard_capacity {
                return;
            }
            self.clock += 1;
            self.map.remove(&key);
            let shard = self.shard(key);
            while self.used(shard) + charge > self.shard_capacity {
                let of_shard = self.map.iter().filter(|(k, _)| self.shard(**k) == shard);
                let Some((&victim, _)) = of_shard.min_by_key(|(_, e)| e.1) else {
                    break;
                };
                self.map.remove(&victim);
                self.evictions += 1;
            }
            self.map.insert(key, (charge, self.clock));
        }

        fn purge_table(&mut self, table: u64) {
            let before = self.map.len();
            self.map.retain(|k, _| k.table != table);
            self.invalidations += (before - self.map.len()) as u64;
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        Get(CacheKey),
        Insert(CacheKey, usize),
        Purge(u64),
    }

    fn op() -> impl proptest::prelude::Strategy<Value = Op> {
        use proptest::prelude::*;
        // Small positions leave the shard to the table; high ones move
        // the top byte the shard is taken from.
        let pos = || prop_oneof![0u64..14, (0u64..14).prop_map(|p| p << 58)];
        let key = || (0u64..6, pos()).prop_map(|(table, pos)| CacheKey { table, pos });
        // Around a 4000-byte shard: an exact fit, and one byte over.
        let charges = vec![1usize, 90, 400, 1000, 1300, 4000, 4001];
        let charge = proptest::sample::select(charges);
        prop_oneof![
            4 => key().prop_map(Op::Get),
            5 => (key(), charge).prop_map(|(key, charge)| Op::Insert(key, charge)),
            1 => (0u64..6).prop_map(Op::Purge),
        ]
    }

    /// Run `ops` against a `SHARDS`-shard cache and the model, comparing
    /// them after every operation. Each value is its own charge.
    fn check_against_model<const SHARDS: usize>(ops: Vec<Op>) {
        // Not a multiple of the shard count: the budget rounds down.
        let capacity = 4000 * SHARDS + SHARDS - 1;
        let cache = LruCache::<usize, SHARDS>::new(capacity);
        let mut model = StampLru::new(capacity, SHARDS);
        for op in ops {
            match op {
                Op::Get(key) => assert_eq!(cache.get(key), model.get(key)),
                Op::Insert(key, charge) => {
                    cache.insert(key, charge, charge);
                    model.insert(key, charge);
                }
                Op::Purge(table) => {
                    cache.purge_table(table);
                    model.purge_table(table);
                }
            }
            for (i, shard) in cache.shards.iter().enumerate() {
                let shard = shard.lock();
                let mut held: Vec<CacheKey> = shard.map.keys().copied().collect();
                let mut expect: Vec<CacheKey> = model.map.keys().copied().collect();
                expect.retain(|k| model.shard(*k) == i);
                held.sort_by_key(|k| (k.table, k.pos));
                expect.sort_by_key(|k| (k.table, k.pos));
                assert_eq!(held, expect, "shard {i}");
                assert_eq!(shard.used, model.used(i));
                assert_eq!(shard.nodes.len(), shard.map.len());
            }
            assert_eq!(cache.evictions.get(), model.evictions);
            assert_eq!(cache.invalidations.get(), model.invalidations);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Over random get / insert / purge streams with mixed charges,
        /// at the block cache's one shard and the group cache's 16, the
        /// linked lists evict exactly the entries the per-shard min-stamp
        /// scan did, in the same order: after every operation both hold
        /// the same keys in the same shards.
        #[test]
        fn victims_are_the_min_stamp_scans(
            sharded in proptest::bool::ANY,
            ops in proptest::collection::vec(op(), 0..400),
        ) {
            match sharded {
                false => check_against_model::<1>(ops),
                true => check_against_model::<16>(ops),
            }
        }
    }

    #[test]
    fn table_id_is_stable_and_distinct() {
        assert_eq!(table_id("a.sst"), table_id("a.sst"));
        assert_ne!(table_id("a.sst"), table_id("b.sst"));
    }
}
