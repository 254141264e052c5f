//! The DRAM key indexes of level-0: each unsorted table's key column,
//! which level-0 merges into one [`MergedColumn`] a scan seeks, and the
//! group fences every get and seek finds its group by.

use encoding::prefix::common_prefix_len;

/// Key bytes a window keeps per entry.
const WINDOW: usize = 8;

/// The 8 bytes of `key` after a common prefix of `prefix` bytes, as a
/// big-endian `u64`, zero-padded past the key's end.
fn window(prefix: usize, key: &[u8]) -> u64 {
    let rest = key.get(prefix..).unwrap_or_default();
    let mut window = [0; WINDOW];
    let n = rest.len().min(WINDOW);
    window[..n].copy_from_slice(&rest[..n]);
    u64::from_be_bytes(window)
}

/// A window behind `lead`, the prefix bytes a shorter prefix leaves
/// out: the first 8 bytes of `lead ‖ window`.
fn reframe(lead: &[u8], window: u64) -> u64 {
    let n = lead.len().min(WINDOW);
    let mut bytes = [0; WINDOW];
    bytes[..n].copy_from_slice(&lead[..n]);
    let rest = window.checked_shr(8 * n as u32).unwrap_or(0);
    u64::from_be_bytes(bytes) | rest
}

/// A table's keys in DRAM: per entry, the 8 bytes after the table's
/// common prefix (the LCP of its first and last key) as a big-endian
/// `u64`, zero-padded past the key's end. A larger key never has a
/// smaller window. Level-0 merges an unsorted table's column into its
/// [`MergedColumn`]. 8 bytes per entry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeyColumn {
    prefix: usize,
    windows: Vec<u64>,
}

impl KeyColumn {
    /// DRAM the column takes.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.windows.as_slice())
    }
}

/// `items.partition_point(pred)`, and the 64-byte lines its probes
/// touched (a probe into the line of the probe before it is free).
fn search<T: Copy>(items: &[T], pred: impl Fn(T) -> bool) -> (usize, u64) {
    let per_line = 64 / std::mem::size_of::<T>();
    let (mut lo, mut hi, mut lines, mut line) = (0, items.len(), 0, usize::MAX);
    while lo < hi {
        let mid = (lo + hi) / 2;
        lines += u64::from(mid / per_line != line);
        line = mid / per_line;
        if pred(items[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (lo, lines)
}

/// Windows and table indexes per 64-byte line.
const WINDOWS_PER_LINE: usize = 64 / std::mem::size_of::<u64>();
const TABLES_PER_LINE: usize = 64 / std::mem::size_of::<u32>();

/// The key columns of a level-0's unsorted tables merged into one, which
/// a scan searches once whatever the table count: per entry of every
/// table, its window behind the tables' common prefix (the LCP of every
/// table's first and last key; see [`KeyColumn`]) and the index of the
/// table that holds it, in (window, table) order. Two parallel arrays,
/// 12 bytes per entry. A larger key never has a smaller window, so
/// every entry of a key at or past a seek key sits at or after the
/// first window at or past the seek key's.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MergedColumn {
    /// The common prefix every window goes behind.
    prefix: Vec<u8>,
    windows: Vec<u64>,
    tables: Vec<u32>,
}

impl MergedColumn {
    /// Merge in table `table`, newer than every table in, whose first
    /// key is `first`, by its column. When the table shortens the common
    /// prefix, every window already in is re-framed behind the bytes the
    /// prefix gives up.
    pub fn push(&mut self, table: usize, mut column: KeyColumn, first: &[u8]) {
        let own = &first[..column.prefix];
        if self.windows.is_empty() {
            self.prefix = own.to_vec();
        }
        let keep = common_prefix_len(&self.prefix, own);
        if keep < self.prefix.len() {
            let lead = &self.prefix[keep..];
            self.windows.iter_mut().for_each(|w| *w = reframe(lead, *w));
            self.prefix.truncate(keep);
            // Windows the re-framing made equal go back in table order.
            let mut at = 0;
            for tie in self.windows.chunk_by(|a, b| a == b) {
                self.tables[at..at + tie.len()].sort_unstable();
                at += tie.len();
            }
        }
        let (lead, new) = (&own[keep..], &mut column.windows);
        if !lead.is_empty() {
            new.iter_mut().for_each(|w| *w = reframe(lead, *w));
        }
        let (table, old, add) = (table as u32, self.windows.len(), new.len());
        self.windows.resize(old + add, 0);
        self.tables.resize(old + add, 0);
        // Merge from the back: the old entries past each new one move up
        // past it in one block. On a tie the new table's entry goes last.
        let mut i = old;
        for (j, &window) in new.iter().enumerate().rev() {
            let past = self.windows[..i].iter().rev().take_while(|&&w| w > window);
            let lo = i - past.count();
            self.windows.copy_within(lo..i, lo + j + 1);
            self.tables.copy_within(lo..i, lo + j + 1);
            i = lo;
            (self.windows[i + j], self.tables[i + j]) = (window, table);
        }
    }

    /// Forget the `n` oldest tables and renumber the rest. The prefix
    /// stays while a table is left: they all still share it.
    pub fn drop_oldest(&mut self, n: usize) {
        let n = n as u32;
        let mut kept = self.tables.iter().map(|&table| table >= n);
        self.windows.retain(|_| kept.next() == Some(true));
        self.tables.retain(|&table| table >= n);
        self.tables.iter_mut().for_each(|table| *table -= n);
        if self.tables.is_empty() {
            self.prefix.clear();
        }
    }

    /// DRAM the column takes.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.windows.as_slice())
            + std::mem::size_of_val(self.tables.as_slice())
    }

    pub fn len(&self) -> usize {
        self.windows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The common prefix every window goes behind.
    pub fn prefix(&self) -> &[u8] {
        &self.prefix
    }

    /// Every entry, as (window, table), in column order.
    pub fn entries(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        let tables = self.tables.iter().map(|&t| t as usize);
        self.windows.iter().copied().zip(tables)
    }

    /// The table entry `pos` belongs to.
    pub fn table(&self, pos: usize) -> usize {
        self.tables[pos] as usize
    }

    /// Where a scan from `start` begins: the first entry whose window is
    /// at or past `start`'s, and the 64-byte lines the search touched. A
    /// `start` before the common prefix lands on the first entry, one
    /// after it past the last, with no search.
    pub fn seek(&self, start: &[u8]) -> (usize, u64) {
        let p = self.prefix.len();
        match start.get(..p) {
            Some(head) if head == self.prefix => {
                let key = window(p, start);
                search(&self.windows, |w| w < key)
            }
            _ if start < self.prefix.as_slice() => (0, 0),
            _ => (self.len(), 0),
        }
    }

    /// Entry `pos`'s window with its trailing zero bytes trimmed, and
    /// its length: behind the prefix, a prefix of the entry's key, so a
    /// lower bound on every key whose window is at or past it.
    pub fn tail(&self, pos: usize) -> ([u8; WINDOW], usize) {
        let window = self.windows[pos];
        let len = WINDOW - (window.trailing_zeros() / 8) as usize;
        (window.to_be_bytes(), len)
    }

    /// The 64-byte lines a walk that began at entry `from` touches anew
    /// on entry `pos`: a line of each array on the first, then each line
    /// it steps into.
    pub fn walk_lines(from: usize, pos: usize) -> u64 {
        let enters = |per_line: usize| u64::from(pos == from || pos.is_multiple_of(per_line));
        enters(WINDOWS_PER_LINE) + enters(TABLES_PER_LINE)
    }
}

/// A table's groups in DRAM, which every level-0 get and seek finds
/// its group by instead of searching the prefix layer: per group, the
/// [`KeyColumn`] window of its last key. A larger key never has a
/// smaller window, so the first group whose last window is at or past a
/// key's holds the first entry whose window is. 8 bytes per group, half
/// a byte per entry at 16 entries to a group.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GroupFences {
    prefix: usize,
    lasts: Vec<u64>,
}

impl GroupFences {
    /// The group a get or seek of `key` starts in, and the 64-byte
    /// lines the search touched, for a `key` within the table's first
    /// and last key: the group of the first entry whose window is at or
    /// past `key`'s. On a tie that is the tie's first entry, which sorts
    /// before `key` or is its newest version, so a get or seek can
    /// start there and walk forward. No group when every window sorts
    /// before `key`'s (the group count).
    pub fn group_of(&self, key: &[u8]) -> (u32, u64) {
        let key = window(self.prefix, key);
        let (group, lines) = search(&self.lasts, |last| last < key);
        (group as u32, lines)
    }

    /// DRAM the fences take.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.lasts.as_slice())
    }
}

/// What building a table, or re-reading one, learns of its keys for
/// level-0's DRAM indexes: the [`encoding::bloom::BloomFilter::hashes`]
/// of its distinct user keys (none when it has no filter), its
/// [`KeyColumn`] and its [`GroupFences`]. Built for fences only (a
/// sorted-run table's), it keeps no hashes and no column.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TableKeys {
    pub hashes: Vec<(u64, u64)>,
    pub column: KeyColumn,
    pub fences: GroupFences,
    fences_only: bool,
}

impl TableKeys {
    /// No keys yet of a table of `entries` entries in `groups` groups
    /// whose first and last keys share `prefix` bytes.
    pub fn new(prefix: usize, entries: usize, groups: usize) -> Self {
        TableKeys {
            hashes: Vec::new(),
            column: KeyColumn {
                prefix,
                windows: Vec::with_capacity(entries),
            },
            fences: GroupFences {
                prefix,
                lasts: Vec::with_capacity(groups),
            },
            fences_only: false,
        }
    }

    /// [`TableKeys::new`], to fill the group fences only.
    pub fn fences_only(prefix: usize, groups: usize) -> Self {
        TableKeys {
            fences_only: true,
            ..TableKeys::new(prefix, 0, groups)
        }
    }

    /// Take in the table's next entry, which sits in `group`.
    pub fn push(&mut self, group: u32, key: &[u8]) {
        let window = window(self.fences.prefix, key);
        if !self.fences_only {
            self.column.windows.push(window);
        }
        let lasts = &mut self.fences.lasts;
        // An empty group (only in a damaged table) repeats the fence
        // before it, so the fences stay sorted.
        while lasts.len() <= group as usize {
            lasts.push(lasts.last().copied().unwrap_or(0));
        }
        lasts[group as usize] = window;
    }
}
