//! The WAL as a ring of numbered segment files, behind the `WAL mutex`
//! of the engine's lock hierarchy.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use memtable::Wal;
use sim::fault::FaultPlan;
use sim::{CostModel, Counter};

use super::DbError;

/// File name of WAL segment `n` inside `wal_dir`.
pub(super) fn wal_segment_file(n: u64) -> String {
    format!("wal-{n:06}.log")
}

/// One rotated-out WAL segment still on disk.
pub(super) struct SealedSegment {
    pub(super) path: PathBuf,
    /// Per-partition highest sequence the segment holds. The segment is
    /// deletable once every partition's flush checkpoint covers its
    /// records; partitions absent from the map hold nothing here.
    pub(super) max_seq: BTreeMap<u64, u64>,
}

/// The WAL as a ring of numbered segment files (`wal-NNNNNN.log`).
///
/// Commits append to the active segment; when it crosses
/// [`Options::wal_segment_bytes`] it is sealed and a fresh segment
/// becomes active. Sealed segments are deleted once the per-partition
/// flush checkpoints in the manifest cover every record they hold, so
/// recovery replays a bounded suffix instead of the whole write history.
pub(super) struct WalRing {
    pub(super) dir: PathBuf,
    pub(super) cost: CostModel,
    pub(super) fault: Option<Arc<FaultPlan>>,
    pub(super) active: Wal,
    pub(super) active_segment: u64,
    /// Per-partition highest sequence appended to the active segment.
    pub(super) active_max: BTreeMap<u64, u64>,
    /// Sealed segments, oldest first.
    pub(super) sealed: Vec<SealedSegment>,
}

impl WalRing {
    pub(super) fn note_append(&mut self, pid: usize, seq: u64) {
        let wm = self.active_max.entry(pid as u64).or_insert(0);
        *wm = (*wm).max(seq);
    }

    /// Seal the active segment (already synced by the caller) and start
    /// the next one. Returns the new segment number.
    pub(super) fn rotate(&mut self) -> Result<u64, DbError> {
        let next = self.active_segment + 1;
        let mut wal = Wal::create(self.dir.join(wal_segment_file(next)), self.cost)?;
        wal.set_fault(self.fault.clone());
        let old = std::mem::replace(&mut self.active, wal);
        self.sealed.push(SealedSegment {
            path: old.path().to_path_buf(),
            max_seq: std::mem::take(&mut self.active_max),
        });
        self.active_segment = next;
        Ok(next)
    }

    /// Delete every sealed segment whose records are all at or below
    /// their partition's flush checkpoint. Returns how many went; a
    /// segment whose file could not be removed ticks `retire_errors`
    /// and stays sealed, so the next checkpoint's prune retries it.
    pub(super) fn prune(
        &mut self,
        checkpoints: &BTreeMap<u64, u64>,
        retire_errors: &Counter,
    ) -> u64 {
        let mut deleted = 0u64;
        self.sealed.retain(|seg| {
            let covered = seg
                .max_seq
                .iter()
                .all(|(pid, seq)| checkpoints.get(pid).is_some_and(|c| c >= seq));
            let removed = covered && std::fs::remove_file(&seg.path).is_ok();
            if covered && !removed {
                retire_errors.incr();
            }
            deleted += removed as u64;
            !removed
        });
        deleted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_keeps_a_segment_it_could_not_remove() {
        let dir = std::env::temp_dir().join(format!("pmblade-wal-ring-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A directory where the sealed segment's file should be: the
        // unlink fails.
        let path = dir.join(wal_segment_file(0));
        std::fs::create_dir(&path).unwrap();
        let cost = CostModel::default();
        let mut ring = WalRing {
            dir: dir.clone(),
            cost,
            fault: None,
            active: Wal::create(dir.join(wal_segment_file(1)), cost).unwrap(),
            active_segment: 1,
            active_max: BTreeMap::new(),
            sealed: vec![SealedSegment {
                path: path.clone(),
                max_seq: BTreeMap::from([(0, 5)]),
            }],
        };
        let checkpoints = BTreeMap::from([(0, 5)]);
        let retire_errors = Counter::new();
        assert_eq!(ring.prune(&checkpoints, &retire_errors), 0);
        assert_eq!(ring.sealed.len(), 1);
        assert_eq!(retire_errors.get(), 1);
        std::fs::remove_dir(&path).unwrap();
        std::fs::write(&path, b"").unwrap();
        assert_eq!(ring.prune(&checkpoints, &retire_errors), 1);
        assert_eq!(retire_errors.get(), 1);
        assert!(ring.sealed.is_empty());
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
