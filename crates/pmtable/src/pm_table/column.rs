//! The DRAM key indexes of a level-0 table: the key column a scan
//! holds an unsorted table by, and the group fences every get and seek
//! finds its group by.

/// Key bytes a [`KeyColumn`] keeps per entry.
const WINDOW: usize = 8;

/// The 8 bytes of `key` after a table's common prefix of `prefix`
/// bytes, as a big-endian `u64`, zero-padded past the key's end.
fn window(prefix: usize, key: &[u8]) -> u64 {
    let rest = key.get(prefix..).unwrap_or_default();
    let mut window = [0; WINDOW];
    let n = rest.len().min(WINDOW);
    window[..n].copy_from_slice(&rest[..n]);
    u64::from_be_bytes(window)
}

/// A table's keys in DRAM, which a scan searches instead of its prefix
/// layer: per entry, the 8 bytes after the table's common prefix (the
/// LCP of its first and last key) as a big-endian `u64`, zero-padded
/// past the key's end. A larger key never has a smaller window, so a
/// binary search over the windows finds where a seek lands without
/// reading PM. 8 bytes per entry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeyColumn {
    prefix: usize,
    windows: Vec<u64>,
}

/// Where a [`KeyColumn::seek`] lands: on the first entry with user key
/// at or after the seek key, the *target*.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ColumnSeek {
    /// When the target's window sorts after the seek key's, that window
    /// with its trailing zero bytes trimmed: after the table's common
    /// prefix, a prefix of the target's key, so a bound on it that lies
    /// above the seek key. Empty on a tie.
    tail: [u8; WINDOW],
    tail_len: usize,
    /// 64-byte lines the search touched.
    pub lines: u64,
}

impl ColumnSeek {
    /// See the field doc: empty when the target ties with the seek key.
    pub fn tail(&self) -> &[u8] {
        &self.tail[..self.tail_len]
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

impl KeyColumn {
    /// Length of the table's common prefix, which every bound a seek
    /// returns goes behind.
    pub fn prefix_len(&self) -> usize {
        self.prefix
    }

    /// DRAM the column takes.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.windows.as_slice())
    }

    /// Find the first entry with user key >= `start` in the table whose
    /// first key is `first`, for a `start` at most its last key. A start
    /// at or before `first` lands on the table's first entry with no
    /// search; any other shares the table's common prefix. Every entry
    /// before the first window at or past `start`'s sorts before
    /// `start`; if that window is past it, its entry is the target, else
    /// the target is the first of its tie at or past `start`.
    pub fn seek(&self, first: &[u8], start: &[u8]) -> ColumnSeek {
        if start <= first {
            return ColumnSeek::default();
        }
        let key = window(self.prefix, start);
        let (i, lines) = search(&self.windows, |w| w < key);
        match self.windows.get(i) {
            Some(&window) if window > key => ColumnSeek {
                tail: window.to_be_bytes(),
                tail_len: WINDOW - (window.trailing_zeros() / 8) as usize,
                lines,
            },
            _ => ColumnSeek {
                lines,
                ..ColumnSeek::default()
            },
        }
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
/// [`KeyColumn`] and its [`GroupFences`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TableKeys {
    pub hashes: Vec<(u64, u64)>,
    pub column: KeyColumn,
    pub fences: GroupFences,
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
        }
    }

    /// Take in the table's next entry, which sits in `group`.
    pub fn push(&mut self, group: u32, key: &[u8]) {
        let window = window(self.column.prefix, key);
        self.column.windows.push(window);
        let lasts = &mut self.fences.lasts;
        // An empty group (only in a damaged table) repeats the fence
        // before it, so the fences stay sorted.
        while lasts.len() <= group as usize {
            lasts.push(lasts.last().copied().unwrap_or(0));
        }
        lasts[group as usize] = window;
    }
}
