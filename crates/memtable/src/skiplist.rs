//! Skiplist memtable.
//!
//! A classic tower skiplist keyed by internal keys (user key ascending,
//! sequence descending), so multiple versions of one user key coexist and
//! a forward scan sees the newest first. Height is drawn from a
//! deterministic per-table PRNG (p = 1/4, max 12 levels), keeping tests
//! reproducible. The structure is single-writer/multi-reader; the engine
//! serializes writers externally.
//!
//! Layout: an insert makes one allocation. A `Node` is one boxed
//! buffer, `user_key ∥ trailer ∥ value` (the first `key_len + 8` bytes
//! are the encoded internal key), plus the offset of its tower in
//! `links`, one table-wide arena of successor indices. A node of height
//! `h` owns `links[at..at + h]`; slot `at + l` is its successor on level
//! `l`, `NIL` at the end of the level. The head sentinel is node 0,
//! with an empty buffer and a full-height tower at offset 0.

use encoding::key::{self, KeyKind, SequenceNumber};
use pmtable::{EntryRef, Lookup};
use sim::{CostModel, Pcg64, Timeline};

const MAX_HEIGHT: usize = 12;
const BRANCHING: u64 = 4;
/// The end of a level in `links`.
const NIL: u32 = u32::MAX;

struct Node {
    /// `user_key ∥ trailer ∥ value`.
    buf: Box<[u8]>,
    key_len: u32,
    /// Offset of this node's tower in `MemTable::links`.
    tower: u32,
}

impl Node {
    /// The encoded internal key (user key ∥ trailer).
    fn ikey(&self) -> &[u8] {
        &self.buf[..self.key_len as usize + 8]
    }

    fn value(&self) -> &[u8] {
        &self.buf[self.key_len as usize + 8..]
    }
}

/// An in-DRAM sorted write buffer.
pub struct MemTable {
    /// Arena of nodes; index 0 is the head sentinel.
    nodes: Vec<Node>,
    /// Every node's tower of successor node indices (see the module doc).
    links: Vec<u32>,
    height: usize,
    rng: Pcg64,
    approximate_bytes: usize,
    entries: usize,
    cost: CostModel,
}

impl MemTable {
    pub fn new(cost: CostModel) -> Self {
        let head = Node {
            buf: Box::default(),
            key_len: 0,
            tower: 0,
        };
        MemTable {
            nodes: vec![head],
            links: vec![NIL; MAX_HEIGHT],
            height: 1,
            rng: Pcg64::seeded(0x6d656d74),
            approximate_bytes: 0,
            entries: 0,
            cost,
        }
    }

    fn random_height(&mut self) -> usize {
        let mut h = 1;
        while h < MAX_HEIGHT && self.rng.next_below(BRANCHING) == 0 {
            h += 1;
        }
        h
    }

    /// Number of entries (including superseded versions and tombstones).
    pub fn len(&self) -> usize {
        self.entries
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Approximate DRAM footprint in bytes.
    pub fn approximate_size(&self) -> usize {
        self.approximate_bytes
    }

    /// The successor of node `idx` on `level`.
    fn next(&self, idx: usize, level: usize) -> Option<usize> {
        let next = self.links[self.nodes[idx].tower as usize + level];
        (next != NIL).then_some(next as usize)
    }

    /// Insert an entry. Sequences must be unique per user key; the engine
    /// guarantees this by allocating them monotonically.
    pub fn insert(
        &mut self,
        user_key: &[u8],
        seq: SequenceNumber,
        kind: KeyKind,
        value: &[u8],
        tl: &mut Timeline,
    ) {
        let trailer = key::pack_trailer(seq, kind);
        let height = self.random_height();
        if height > self.height {
            self.height = height;
        }
        // Predecessors at every level.
        let mut prev = [0usize; MAX_HEIGHT];
        self.descend(user_key, trailer, tl, |level, cur| prev[level] = cur);
        let idx = u32::try_from(self.nodes.len()).expect("a memtable holds < 2^32 nodes");
        let at = u32::try_from(self.links.len()).expect("a memtable holds < 2^32 links");
        for (level, &p) in prev.iter().enumerate().take(height) {
            let slot = self.nodes[p].tower as usize + level;
            self.links.push(self.links[slot]);
            self.links[slot] = idx;
        }
        let ikey_len = user_key.len() + 8;
        let mut buf = Vec::with_capacity(ikey_len + value.len());
        buf.extend_from_slice(user_key);
        buf.extend_from_slice(&trailer.to_le_bytes());
        buf.extend_from_slice(value);
        self.approximate_bytes += ikey_len + value.len() + 64;
        self.entries += 1;
        tl.charge(self.cost.dram.write(ikey_len + value.len()));
        self.nodes.push(Node {
            buf: buf.into_boxed_slice(),
            key_len: u32::try_from(user_key.len()).expect("a key is < 4 GiB"),
            tower: at,
        });
    }

    /// Newest entry for `user_key` visible at `snapshot`.
    pub fn get(
        &self,
        user_key: &[u8],
        snapshot: SequenceNumber,
        tl: &mut Timeline,
    ) -> Option<Lookup> {
        let candidate = self.seek_node(user_key, key::seek_trailer(snapshot), tl)?;
        let node = &self.nodes[candidate];
        let ikey = node.ikey();
        if key::user_key(ikey) != user_key {
            return None;
        }
        let seq = key::sequence(ikey);
        debug_assert!(seq <= snapshot, "seek placed us at a visible version");
        let kind = key::kind(ikey)?;
        let value = node.value();
        tl.charge(self.cost.dram.sequential_read(value.len()));
        Some(Lookup {
            seq,
            kind,
            value: value.to_vec(),
        })
    }

    /// The first node at or after the internal key `(user_key, trailer)`.
    fn seek_node(&self, user_key: &[u8], trailer: u64, tl: &mut Timeline) -> Option<usize> {
        let cur = self.descend(user_key, trailer, tl, |_, _| {});
        self.next(cur, 0)
    }

    /// Walk down from the head's top level towards the internal key
    /// `(user_key, trailer)`, compared in parts so no key is
    /// materialised. `at_level(level, node)` sees the last node on each
    /// level that sorts before the key; the one on level 0 is returned.
    /// Each link traversal is a DRAM pointer chase.
    fn descend(
        &self,
        user_key: &[u8],
        trailer: u64,
        tl: &mut Timeline,
        mut at_level: impl FnMut(usize, usize),
    ) -> usize {
        let mut cur = 0usize;
        for level in (0..self.height).rev() {
            loop {
                tl.charge(self.cost.dram.random_read(32));
                match self.next(cur, level) {
                    Some(nxt)
                        if key::compare_to_parts(self.nodes[nxt].ikey(), user_key, trailer)
                            == std::cmp::Ordering::Less =>
                    {
                        cur = nxt
                    }
                    _ => break,
                }
            }
            at_level(level, cur);
        }
        cur
    }

    /// Every entry in internal-key order, borrowed from its skiplist
    /// node. Charges nothing: this is how a flush reads its frozen
    /// memtable, off the clock ([`MemCursor`] is the metered way in).
    pub fn iter(&self) -> impl Iterator<Item = EntryRef<'_>> {
        let level0 = std::iter::successors(self.next(0, 0), |&i| self.next(i, 0));
        level0.map(|i| self.entry(i))
    }

    /// The entry held by node `idx`.
    fn entry(&self, idx: usize) -> EntryRef<'_> {
        let n = &self.nodes[idx];
        EntryRef::parse(n.ikey(), n.value()).expect("memtable nodes hold valid internal keys")
    }

    /// A cursor over this table, unpositioned until its first `seek`.
    pub fn cursor(&self) -> MemCursor<'_> {
        MemCursor {
            table: self,
            node: None,
        }
    }
}

/// A forward cursor over a [`MemTable`] in internal-key order,
/// borrowing each entry from its skiplist node.
pub struct MemCursor<'a> {
    table: &'a MemTable,
    node: Option<usize>,
}

impl<'a> MemCursor<'a> {
    /// Position at the first entry with user key >= `start`.
    pub fn seek(&mut self, start: &[u8], tl: &mut Timeline) {
        let trailer = key::seek_trailer(key::MAX_SEQUENCE);
        let node = self.table.seek_node(start, trailer, tl);
        self.land(node, tl);
    }

    /// Step to the next entry; a no-op once the table is exhausted.
    pub fn advance(&mut self, tl: &mut Timeline) {
        if let Some(idx) = self.node {
            self.land(self.table.next(idx, 0), tl);
        }
    }

    /// One sequential DRAM read of the node the cursor moved onto.
    fn land(&mut self, node: Option<usize>, tl: &mut Timeline) {
        self.node = node;
        if let Some(idx) = node {
            let len = self.table.nodes[idx].buf.len();
            tl.charge(self.table.cost.dram.sequential_read(len));
        }
    }

    /// The entry under the cursor; `None` before a seek and after the
    /// last entry.
    pub fn current(&self) -> Option<EntryRef<'a>> {
        Some(self.table.entry(self.node?))
    }
}

impl std::fmt::Debug for MemTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemTable")
            .field("entries", &self.entries)
            .field("bytes", &self.approximate_bytes)
            .field("height", &self.height)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> MemTable {
        MemTable::new(CostModel::default())
    }

    #[test]
    fn empty_table_misses() {
        let t = table();
        let mut tl = Timeline::new();
        assert!(t.get(b"k", u64::MAX, &mut tl).is_none());
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = table();
        let mut tl = Timeline::new();
        for i in 0..500u64 {
            let k = format!("key{:05}", i * 3);
            t.insert(k.as_bytes(), i + 1, KeyKind::Value, b"v", &mut tl);
        }
        assert_eq!(t.len(), 500);
        for i in (0..500u64).step_by(11) {
            let k = format!("key{:05}", i * 3);
            let hit = t.get(k.as_bytes(), u64::MAX, &mut tl).unwrap();
            assert_eq!(hit.seq, i + 1);
        }
        assert!(t.get(b"key00001", u64::MAX, &mut tl).is_none());
    }

    #[test]
    fn newest_version_wins_and_snapshots_work() {
        let mut t = table();
        let mut tl = Timeline::new();
        t.insert(b"k", 5, KeyKind::Value, b"v5", &mut tl);
        t.insert(b"k", 9, KeyKind::Value, b"v9", &mut tl);
        t.insert(b"k", 7, KeyKind::Delete, b"", &mut tl);
        assert_eq!(t.get(b"k", u64::MAX, &mut tl).unwrap().value, b"v9");
        let at8 = t.get(b"k", 8, &mut tl).unwrap();
        assert_eq!(at8.kind, KeyKind::Delete);
        assert_eq!(t.get(b"k", 6, &mut tl).unwrap().value, b"v5");
        assert!(t.get(b"k", 4, &mut tl).is_none());
    }

    #[test]
    fn entries_in_order_is_internal_sorted() {
        let mut t = table();
        let mut tl = Timeline::new();
        // Insert out of order.
        for (k, s) in [("b", 1u64), ("a", 3), ("c", 2), ("a", 9), ("b", 4)] {
            t.insert(k.as_bytes(), s, KeyKind::Value, k.as_bytes(), &mut tl);
        }
        t.insert(b"c", 7, KeyKind::Delete, b"", &mut tl);
        let entries: Vec<(&[u8], u64, KeyKind, &[u8])> = t
            .iter()
            .map(|e| (e.user_key, e.seq, e.kind, e.value))
            .collect();
        assert_eq!(
            entries,
            [
                (&b"a"[..], 9, KeyKind::Value, &b"a"[..]),
                (b"a", 3, KeyKind::Value, b"a"),
                (b"b", 4, KeyKind::Value, b"b"),
                (b"b", 1, KeyKind::Value, b"b"),
                (b"c", 7, KeyKind::Delete, b""),
                (b"c", 2, KeyKind::Value, b"c"),
            ]
        );
    }

    #[test]
    fn cursor_seeks_before_between_and_past() {
        let mut t = table();
        let mut tl = Timeline::new();
        let mut cursor = t.cursor();
        cursor.seek(b"", &mut tl);
        assert!(cursor.current().is_none(), "empty table");
        for (k, seq) in [("b", 1u64), ("d", 2), ("d", 5), ("f", 3)] {
            t.insert(k.as_bytes(), seq, KeyKind::Value, k.as_bytes(), &mut tl);
        }
        t.insert(b"h", 4, KeyKind::Delete, b"", &mut tl);
        let drain_from = |start: &[u8]| {
            let mut tl = Timeline::new();
            let mut cursor = t.cursor();
            assert!(cursor.current().is_none(), "unpositioned before a seek");
            cursor.seek(start, &mut tl);
            let mut out = Vec::new();
            while let Some(e) = cursor.current() {
                out.push((e.user_key.to_vec(), e.seq, e.kind));
                cursor.advance(&mut tl);
            }
            assert!(tl.elapsed() > sim::SimDuration::ZERO);
            out
        };
        let all = vec![
            (b"b".to_vec(), 1, KeyKind::Value),
            (b"d".to_vec(), 5, KeyKind::Value),
            (b"d".to_vec(), 2, KeyKind::Value),
            (b"f".to_vec(), 3, KeyKind::Value),
            (b"h".to_vec(), 4, KeyKind::Delete),
        ];
        assert_eq!(drain_from(b"a"), all, "before the first key");
        assert_eq!(drain_from(b"d"), all[1..], "on a key: newest version first");
        assert_eq!(drain_from(b"e"), all[3..], "between two keys");
        assert!(drain_from(b"i").is_empty(), "past the last key");
    }

    #[test]
    fn size_grows_with_inserts() {
        let mut t = table();
        let mut tl = Timeline::new();
        let before = t.approximate_size();
        t.insert(b"key", 1, KeyKind::Value, &vec![0u8; 1000], &mut tl);
        assert!(t.approximate_size() >= before + 1000);
    }

    #[test]
    fn approximate_size_is_the_flush_triggers_sum() {
        // The engine flushes on this number: each entry counts its
        // internal key (user key + 8-byte trailer), its value and 64
        // bytes of node overhead, whatever the node layout.
        let mut t = table();
        let mut tl = Timeline::new();
        let mut expected = 0;
        for i in 0..300usize {
            let k = format!("key-{:0w$}", i * 7 % 300, w = 1 + i % 9);
            let v = vec![b'v'; i % 40];
            let kind = if i % 5 == 0 {
                KeyKind::Delete
            } else {
                KeyKind::Value
            };
            t.insert(k.as_bytes(), i as u64 + 1, kind, &v, &mut tl);
            expected += k.len() + 8 + v.len() + 64;
            assert_eq!(t.approximate_size(), expected);
        }
    }

    #[test]
    fn reads_charge_time() {
        let mut t = table();
        let mut tl = Timeline::new();
        for i in 0..100u64 {
            t.insert(
                format!("k{i:04}").as_bytes(),
                i + 1,
                KeyKind::Value,
                b"v",
                &mut tl,
            );
        }
        let mut read_tl = Timeline::new();
        t.get(b"k0050", u64::MAX, &mut read_tl);
        assert!(read_tl.elapsed() > sim::SimDuration::ZERO);
        // Memtable reads must be far cheaper than one SSD access.
        assert!(read_tl.elapsed() < CostModel::default().ssd.random_read(4096));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        #[test]
        fn prop_matches_btreemap_reference(
            ops in proptest::collection::vec(
                (proptest::collection::vec(b'a'..=b'd', 1..6),
                 proptest::bool::ANY),
                1..200),
        ) {
            use std::collections::BTreeMap;
            let mut t = table();
            let mut reference: BTreeMap<Vec<u8>, (u64, bool)> = BTreeMap::new();
            let mut tl = Timeline::new();
            for (seq, (k, is_delete)) in ops.iter().enumerate() {
                let seq = seq as u64 + 1;
                if *is_delete {
                    t.insert(k, seq, KeyKind::Delete, b"", &mut tl);
                } else {
                    t.insert(k, seq, KeyKind::Value, k, &mut tl);
                }
                reference.insert(k.clone(), (seq, *is_delete));
            }
            for (k, (seq, is_delete)) in &reference {
                let hit = t.get(k, u64::MAX, &mut tl).unwrap();
                proptest::prop_assert_eq!(hit.seq, *seq);
                proptest::prop_assert_eq!(
                    hit.kind == KeyKind::Delete, *is_delete);
            }
            // Order check: `iter` is sorted by internal key and
            // yields every insert.
            let entries: Vec<_> = t.iter().map(|e| (e.user_key, std::cmp::Reverse(e.seq))).collect();
            proptest::prop_assert_eq!(entries.len(), ops.len());
            proptest::prop_assert!(entries.windows(2).all(|pair| pair[0] < pair[1]));
            // The cursor walks the level-0 links: from every seek key
            // (present, between two keys, past the end) it yields the
            // reference's newest versions in key order, each followed
            // by its older ones.
            for start in [&b""[..], b"a", b"b", b"bb", b"cd", b"dddd", b"e"] {
                let mut cursor = t.cursor();
                cursor.seek(start, &mut tl);
                let mut newest = Vec::new();
                let mut last: Option<Vec<u8>> = None;
                let mut visited = 0;
                while let Some(e) = cursor.current() {
                    visited += 1;
                    if last.as_deref() != Some(e.user_key) {
                        newest.push((e.user_key.to_vec(), (e.seq, e.kind == KeyKind::Delete)));
                        last = Some(e.user_key.to_vec());
                    }
                    cursor.advance(&mut tl);
                }
                let expected: Vec<_> = reference
                    .range(start.to_vec()..)
                    .map(|(k, v)| (k.clone(), *v))
                    .collect();
                proptest::prop_assert_eq!(newest, expected);
                if start.is_empty() {
                    proptest::prop_assert_eq!(visited, ops.len());
                }
            }
        }
    }
}
