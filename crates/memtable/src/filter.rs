//! The memtable's key filter: a blocked bloom filter.
//!
//! Every bit a key sets or tests sits in one 64-byte line, chosen by the
//! key's first hash, so an insert writes one DRAM line and a get reads
//! one. The filter is sized once, from the memtable's byte budget: one
//! line per [`BUDGET_PER_LINE`] bytes, one bit per 8 bytes of budget.
//! Every entry counts at least 72 bytes towards that budget (its 8-byte
//! trailer and 64 bytes of node overhead), so a full memtable keeps at
//! least 9 bits per key, and one grown past its budget only raises the
//! false-positive rate: the filter never says no to a key it holds.
//! A filter with no lines, which [`KeyFilter::recycle`] leaves behind,
//! holds nothing and passes every key.

/// Memtable budget bytes per 64-byte filter line.
const BUDGET_PER_LINE: usize = 4096;
/// Bits a key sets in its line, 9 bits of its second hash each.
const PROBES: u32 = 6;

pub(crate) struct KeyFilter {
    lines: Box<[[u64; 8]]>,
}

impl KeyFilter {
    /// A filter for a memtable of `budget` bytes.
    pub(crate) fn new(budget: usize) -> Self {
        let lines = budget.div_ceil(BUDGET_PER_LINE).max(1);
        KeyFilter {
            lines: vec![[0; 8]; lines].into_boxed_slice(),
        }
    }

    /// This filter's lines, cleared — or, when it has none, new ones for
    /// `budget` bytes — leaving it with none.
    pub(crate) fn recycle(&mut self, budget: usize) -> Self {
        if self.lines.is_empty() {
            return Self::new(budget);
        }
        let mut lines = std::mem::take(&mut self.lines);
        lines.fill([0; 8]);
        KeyFilter { lines }
    }

    /// The line of a key whose first hash is `h1` (multiply-shift).
    fn line(&self, h1: u64) -> usize {
        ((h1 as u128 * self.lines.len() as u128) >> 64) as usize
    }

    /// The key's bits within its line.
    fn bits(h2: u64) -> impl Iterator<Item = usize> {
        (0..PROBES).map(move |i| (h2 >> (9 * i)) as usize & 511)
    }

    /// Set the bits of the key hashed to `(h1, h2)`.
    pub(crate) fn insert(&mut self, (h1, h2): (u64, u64)) {
        let line = self.line(h1);
        if let Some(line) = self.lines.get_mut(line) {
            for bit in Self::bits(h2) {
                line[bit / 64] |= 1 << (bit % 64);
            }
        }
    }

    /// False when the key hashed to `(h1, h2)` was never inserted.
    pub(crate) fn may_contain(&self, (h1, h2): (u64, u64)) -> bool {
        let line = self.lines.get(self.line(h1));
        line.is_none_or(|line| Self::bits(h2).all(|bit| line[bit / 64] & (1 << (bit % 64)) != 0))
    }
}
