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

/// "No slot": the end of the recency list.
const NIL: usize = usize::MAX;

struct Node {
    key: BlockKey,
    block: Block,
    /// Slot of the next more recently used node.
    prev: usize,
    /// Slot of the next less recently used node.
    next: usize,
}

/// Exact LRU in O(1) per operation: the nodes sit in a dense slab,
/// doubly linked by slot index in recency order, and `map` finds a
/// key's slot.
struct CacheState {
    map: HashMap<BlockKey, usize>,
    nodes: Vec<Node>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot: the next victim.
    tail: usize,
    used: usize,
}

impl CacheState {
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
        self.used -= node.block.size();
        if let Some(moved) = self.nodes.get(slot) {
            let (key, links) = (moved.key, (moved.prev, moved.next));
            self.map.insert(key, slot);
            self.relink(links, slot, slot);
        }
    }
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
                nodes: Vec::new(),
                head: NIL,
                tail: NIL,
                used: 0,
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
        match state.map.get(&key) {
            Some(&slot) => {
                state.unlink(slot);
                state.push_front(slot);
                self.hits.incr();
                Some(state.nodes[slot].block.clone())
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
        if let Some(&old) = state.map.get(&key) {
            state.remove(old);
        }
        while state.used + size > self.capacity && state.tail != NIL {
            let victim = state.tail;
            state.remove(victim);
            self.evictions.incr();
        }
        state.used += size;
        let slot = state.nodes.len();
        state.nodes.push(Node {
            key,
            block,
            prev: NIL,
            next: NIL,
        });
        state.map.insert(key, slot);
        state.push_front(slot);
    }

    /// Drop every cached block of a table (after the table is deleted).
    pub fn purge_table(&self, table: u64) {
        let mut state = self.state.lock();
        let of_table = state.map.keys().filter(|k| k.table == table);
        let doomed: Vec<BlockKey> = of_table.copied().collect();
        for key in doomed {
            let slot = state.map[&key];
            state.remove(slot);
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

    /// The implementation this cache replaced, kept as the model: a
    /// recency stamp per entry, the victim found by scanning for the
    /// smallest. Block sizes stand in for blocks.
    struct StampLru {
        capacity: usize,
        map: HashMap<BlockKey, (usize, u64)>,
        used: usize,
        clock: u64,
        evictions: u64,
    }

    impl StampLru {
        fn get(&mut self, key: BlockKey) -> bool {
            self.clock += 1;
            let entry = self.map.get_mut(&key);
            entry.map(|e| e.1 = self.clock).is_some()
        }

        fn insert(&mut self, key: BlockKey, size: usize) {
            if size > self.capacity {
                return;
            }
            self.clock += 1;
            if let Some((old, _)) = self.map.remove(&key) {
                self.used -= old;
            }
            while self.used + size > self.capacity {
                let Some((&victim, _)) = self.map.iter().min_by_key(|(_, e)| e.1) else {
                    break;
                };
                self.used -= self.map.remove(&victim).unwrap().0;
                self.evictions += 1;
            }
            self.used += size;
            self.map.insert(key, (size, self.clock));
        }

        fn purge_table(&mut self, table: u64) {
            self.map.retain(|k, _| k.table != table);
            self.used = self.map.values().map(|e| e.0).sum();
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        Get(BlockKey),
        Insert(BlockKey, usize),
        Purge(u64),
    }

    fn op() -> impl proptest::prelude::Strategy<Value = Op> {
        use proptest::prelude::*;
        let key = || (0u64..3, 0u64..14).prop_map(|(table, offset)| BlockKey { table, offset });
        let pad = proptest::sample::select(vec![0usize, 90, 400, 1300, 5000]);
        prop_oneof![
            4 => key().prop_map(Op::Get),
            5 => (key(), pad).prop_map(|(key, pad)| Op::Insert(key, pad)),
            1 => (0u64..3).prop_map(Op::Purge),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Over random get / insert / purge streams with mixed block
        /// sizes the linked list evicts exactly the blocks the
        /// min-stamp scan did, in the same order: after every
        /// operation both hold the same keys.
        #[test]
        fn victims_are_the_min_stamp_scans(ops in proptest::collection::vec(op(), 0..400)) {
            let capacity = 4000;
            let cache = BlockCache::new(capacity);
            let mut model = StampLru {
                capacity,
                map: HashMap::new(),
                used: 0,
                clock: 0,
                evictions: 0,
            };
            for op in ops {
                match op {
                    Op::Get(key) => {
                        proptest::prop_assert_eq!(cache.get(key).is_some(), model.get(key));
                    }
                    Op::Insert(key, pad) => {
                        let block = block(key.offset as u32, pad);
                        model.insert(key, block.size());
                        cache.insert(key, block);
                    }
                    Op::Purge(table) => {
                        cache.purge_table(table);
                        model.purge_table(table);
                    }
                }
                let state = cache.state.lock();
                let mut held: Vec<(u64, u64)> =
                    state.map.keys().map(|k| (k.table, k.offset)).collect();
                let mut expect: Vec<(u64, u64)> =
                    model.map.keys().map(|k| (k.table, k.offset)).collect();
                held.sort();
                expect.sort();
                proptest::prop_assert_eq!(held, expect);
                proptest::prop_assert_eq!(state.used, model.used);
                proptest::prop_assert_eq!(state.nodes.len(), state.map.len());
                proptest::prop_assert_eq!(cache.evictions.get(), model.evictions);
            }
        }
    }

    #[test]
    fn table_id_is_stable_and_distinct() {
        assert_eq!(table_id("a.sst"), table_id("a.sst"));
        assert_ne!(table_id("a.sst"), table_id("b.sst"));
    }
}
