//! MatrixKV-style level-0 (the paper's main PM baseline).
//!
//! MatrixKV (Yao et al., ATC 2020) organises its PM level-0 as a *matrix
//! container*: each flushed memtable becomes a **row** (an array-based
//! table), and compaction to level-1 proceeds in fine-grained **column**
//! slices (key subranges cut across all rows). Reads use a *cross-hint
//! search*: the position found in one row narrows the search window in
//! the next, cheaper than a fresh binary search per row but still
//! touching every row.
//!
//! The properties the paper's comparisons rely on, and which this model
//! reproduces:
//!
//! - flushes pay an extra construction overhead for the matrix/cross-hint
//!   structure (`FLUSH_OVERHEAD` × the flush cost), which is why
//!   MatrixKV-80GB loses the Load workload in Fig 12;
//! - reads touch every row even with hints (no internal compaction), so
//!   read amplification grows with the row count;
//! - eviction is *whole-container* in column slices: no hot-data
//!   retention, so the PM hit ratio decays (Fig 8(b), Fig 11).

use encoding::key::SequenceNumber;
use pm_device::{PmPool, PmRegion, RegionId};
use pmtable::{ArrayTable, ArrayTableBuilder, EntryRef, Lookup};
use sim::{SimDuration, Timeline};

use crate::cursor::Cursor;
use crate::engine::DbError;
use crate::options::Options;

/// Extra flush construction overhead: the fraction of a row's flush
/// cost spent building the matrix cross-hint structure.
const FLUSH_OVERHEAD: f64 = 0.6;

/// One flushed row of the matrix container; its key range, region,
/// size and entry count are its table's.
struct Row {
    table: ArrayTable<PmRegion>,
    /// One hinted probe: a cacheline read on the pool that published
    /// the row.
    hint_cost: SimDuration,
}

impl Row {
    /// The row's smallest and largest user key. A row is never empty
    /// ([`MatrixL0::push_row`] refuses one).
    fn range(&self) -> (&[u8], &[u8]) {
        let (first, last) = (self.table.first_user_key(), self.table.last_user_key());
        (first.unwrap_or_default(), last.unwrap_or_default())
    }

    fn region(&self) -> RegionId {
        self.table.storage().id()
    }
}

/// The matrix container.
#[derive(Default)]
pub struct MatrixL0 {
    rows: Vec<Row>,
}

impl MatrixL0 {
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    pub fn bytes(&self) -> usize {
        self.rows.iter().map(|r| r.table.encoded_len()).sum()
    }

    pub fn entries(&self) -> usize {
        self.rows.iter().map(|r| r.table.entry_count()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Flush a frozen memtable into a new row. Charges the array-table
    /// encode cost, the PM publish, **and** the matrix construction
    /// overhead (cross-hint metadata).
    pub fn flush_row<'e>(
        &mut self,
        entries: impl Iterator<Item = EntryRef<'e>>,
        opts: &Options,
        pool: &PmPool,
        tl: &mut Timeline,
    ) -> Result<(), DbError> {
        let mut builder = ArrayTableBuilder::new();
        entries.for_each(|e| builder.add(e));
        if builder.entry_count() == 0 {
            return Ok(());
        }
        let before = tl.elapsed();
        let (bytes, _stats) = builder.finish(&opts.cost, tl);
        let region = pool.publish(bytes, tl)?;
        // Matrix construction overhead: proportional to the flush cost.
        let flush_cost = tl.elapsed() - before;
        tl.charge(flush_cost.mul_f64(FLUSH_OVERHEAD));
        self.push_row(region)
    }

    /// Region ids of the rows, oldest first — what the manifest logs.
    pub fn region_ids(&self) -> Vec<RegionId> {
        self.rows.iter().map(Row::region).collect()
    }

    /// Open `region` as the newest row: a flush's, or one recovery
    /// reopens (oldest first, matching [`MatrixL0::region_ids`]).
    /// `Corrupt` when it is not an array table or holds no entry.
    pub fn push_row(&mut self, region: PmRegion) -> Result<(), DbError> {
        let id = region.id();
        let hint_cost = region.cost_model().pm.random_read(64);
        let table = ArrayTable::open(region).map_err(|e| DbError::Corrupt(e.to_string()))?;
        if table.entry_count() == 0 {
            return Err(DbError::Corrupt(format!("matrix region {id} is empty")));
        }
        self.rows.push(Row { table, hint_cost });
        Ok(())
    }

    /// Cross-hint point lookup: full search cost on the first (newest)
    /// row, discounted hinted probes on the rest.
    pub fn get(&self, user_key: &[u8], tl: &mut Timeline) -> Option<Lookup> {
        let mut first_row_searched = false;
        for row in self.rows.iter().rev() {
            let (first, last) = row.range();
            if first > user_key || last < user_key {
                continue;
            }
            if !first_row_searched {
                first_row_searched = true;
                if let Some(hit) = row.table.get(user_key, SequenceNumber::MAX, tl) {
                    return Some(hit);
                }
            } else {
                // Cross-hint: the previous row's position bounds this
                // row's search window; model as a constant small probe
                // plus the actual (unmetered) verification.
                let mut free = Timeline::new();
                let hit = row.table.get(user_key, SequenceNumber::MAX, &mut free);
                // Two hinted PM touches instead of a full binary search.
                tl.charge(row.hint_cost * 2);
                if let Some(hit) = hit {
                    return Some(hit);
                }
            }
        }
        None
    }

    /// Cursors, one per row overlapping `[start, end)` (each row is
    /// internally sorted). A column compaction asks for `whole` rows: a
    /// cursor that reads its row front to back. Nothing is consumed
    /// until [`MatrixL0::take_regions`].
    pub fn cursors<'a>(
        &'a self,
        start: &'a [u8],
        end: Option<&'a [u8]>,
        whole: bool,
    ) -> impl Iterator<Item = Cursor<'a>> {
        let rows = self.rows.iter().filter(move |row| {
            let (first, last) = row.range();
            last >= start && end.is_none_or(|e| first < e)
        });
        rows.map(move |row| match whole {
            true => Cursor::Row(row.table.scan_cursor()),
            false => Cursor::Row(row.table.cursor()),
        })
    }

    /// Each row's smallest and largest user key.
    pub fn key_ranges(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.rows.iter().map(Row::range)
    }

    /// Region ids to free after the rows were merged down.
    pub fn take_regions(&mut self) -> Vec<RegionId> {
        self.rows.drain(..).map(|r| r.region()).collect()
    }
}

impl std::fmt::Debug for MatrixL0 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatrixL0")
            .field("rows", &self.rows.len())
            .field("bytes", &self.bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Mode;
    use pmtable::OwnedEntry;
    use sim::CostModel;

    fn entries(base: u64, n: usize) -> Vec<OwnedEntry> {
        let mut v: Vec<OwnedEntry> = (0..n)
            .map(|i| {
                OwnedEntry::value(
                    format!("k{:05}", i * 3).into_bytes(),
                    base + i as u64,
                    format!("v{base}-{i}").into_bytes(),
                )
            })
            .collect();
        v.sort_by(|a, b| a.internal_cmp(b));
        v
    }

    fn flush(
        m: &mut MatrixL0,
        rows: &[OwnedEntry],
        opts: &Options,
        pool: &PmPool,
        tl: &mut Timeline,
    ) {
        let rows = rows.iter().map(OwnedEntry::as_ref);
        m.flush_row(rows, opts, pool, tl).unwrap();
    }

    fn setup() -> (std::sync::Arc<PmPool>, Options) {
        (
            PmPool::new(8 << 20, CostModel::default()),
            Options {
                mode: Mode::MatrixKv,
                ..Options::pm_blade(8 << 20)
            },
        )
    }

    #[test]
    fn flush_and_get_across_rows() {
        let (pool, opts) = setup();
        let mut m = MatrixL0::default();
        let mut tl = Timeline::new();
        flush(&mut m, &entries(1, 50), &opts, &pool, &mut tl);
        flush(&mut m, &entries(1000, 50), &opts, &pool, &mut tl);
        assert_eq!(m.rows(), 2);
        // Newest row wins.
        let hit = m.get(b"k00006", &mut tl).unwrap();
        assert_eq!(hit.value, b"v1000-2");
        // The older row still holds its version; the newer one shadows it.
        let hit = m.rows[0].table.get(b"k00006", u64::MAX, &mut tl).unwrap();
        assert_eq!(hit.value, b"v1-2");
        assert!(m.get(b"k00001", &mut tl).is_none());
    }

    #[test]
    fn a_hinted_probe_is_priced_by_the_rows_pool() {
        let mut cost = CostModel::default();
        cost.pm.read_base = cost.pm.read_base * 2;
        cost.pm.read_per_byte = cost.pm.read_per_byte * 2;
        let pool = PmPool::new(8 << 20, cost);
        let (_, opts) = setup();
        let mut m = MatrixL0::default();
        let mut tl = Timeline::new();
        flush(&mut m, &entries(1, 50), &opts, &pool, &mut tl);
        let mut newer = entries(1000, 10);
        newer.retain(|e| e.user_key != b"k00006");
        flush(&mut m, &newer, &opts, &pool, &mut tl);
        // The newer row covers k00006 but lacks it: its full search
        // misses, and the older row serves the key behind the hint.
        let mut newest = Timeline::new();
        assert!(m.rows[1]
            .table
            .get(b"k00006", u64::MAX, &mut newest)
            .is_none());
        let mut got = Timeline::new();
        let hit = m.get(b"k00006", &mut got).unwrap();
        assert_eq!(hit.value, b"v1-2");
        let hint = cost.pm.random_read(64);
        assert_ne!(hint, CostModel::default().pm.random_read(64));
        assert_eq!(got.elapsed(), newest.elapsed() + hint * 2);
    }

    #[test]
    fn flush_overhead_is_charged() {
        let (pool, opts) = setup();
        let rows = entries(1, 200);
        let mut with = Timeline::new();
        flush(&mut MatrixL0::default(), &rows, &opts, &pool, &mut with);
        // The same row built and published on its own: the flush cost
        // the overhead is a fraction of.
        let (bare_pool, _) = setup();
        let mut bare = Timeline::new();
        let mut builder = ArrayTableBuilder::new();
        rows.iter().for_each(|e| builder.add(e.as_ref()));
        let (bytes, _) = builder.finish(&opts.cost, &mut bare);
        bare_pool.publish(bytes, &mut bare).unwrap();
        let cost = bare.elapsed();
        assert!(cost > sim::SimDuration::ZERO);
        assert_eq!(with.elapsed(), cost + cost.mul_f64(FLUSH_OVERHEAD));
    }

    #[test]
    fn drain_and_take_regions_free_space() {
        let (pool, opts) = setup();
        let mut m = MatrixL0::default();
        let mut tl = Timeline::new();
        flush(&mut m, &entries(1, 20), &opts, &pool, &mut tl);
        assert!(m.bytes() > 0);
        assert_eq!(m.cursors(b"", None, true).count(), 1);
        let cursors = m.cursors(b"", None, true).collect();
        let rows = crate::cursor::tests::drain(cursors, b"", None, false);
        assert_eq!(rows, entries(1, 20));
        assert_eq!(
            m.key_ranges().next(),
            Some((&b"k00000"[..], &b"k00057"[..]))
        );
        for region in m.take_regions() {
            pool.free(region).unwrap();
        }
        assert!(m.is_empty());
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn cursors_cover_overlapping_rows_newest_version_first() {
        let (pool, opts) = setup();
        let mut m = MatrixL0::default();
        let mut tl = Timeline::new();
        flush(&mut m, &entries(1, 30), &opts, &pool, &mut tl);
        flush(&mut m, &entries(1000, 10), &opts, &pool, &mut tl);
        // The second row ends at k00027: a scan starting past it opens
        // only the first.
        assert_eq!(m.cursors(b"k00030", None, false).count(), 1);
        assert_eq!(m.cursors(b"k00010", Some(b"k00030"), false).count(), 2);
        let (start, end) = (b"k00010".as_slice(), Some(b"k00030".as_slice()));
        let cursors = m.cursors(start, end, false).collect();
        let rows = crate::cursor::tests::drain(cursors, start, end, false);
        // Keys k00012..k00027 step 3, each from the newer row.
        let keys: Vec<_> = (4..10)
            .map(|i| format!("k{:05}", i * 3).into_bytes())
            .collect();
        assert_eq!(
            rows.iter().map(|e| e.user_key.clone()).collect::<Vec<_>>(),
            keys
        );
        assert!(rows.iter().all(|e| e.seq >= 1000));
    }
}
