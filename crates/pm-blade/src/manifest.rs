//! The versioned manifest: a durable log of table-lifecycle edits.
//!
//! Every state transition of the table lifecycle — flush output,
//! internal-compaction install, major-compaction install, table
//! retirement, WAL segment rotation, flush checkpoint — is one atomic
//! [`VersionEdit`] appended (one fsynced CRC frame, [`encoding::frame`])
//! to the current manifest file in `wal_dir`, a [`sim::fault::LogFile`].
//! Recovery replays the edits to rebuild the exact table set; a torn
//! tail simply drops the uncommitted last edit, and the log is cut back
//! to its last intact frame before it takes another.
//!
//! ```text
//! wal_dir/
//!   CURRENT            -> "MANIFEST-000007\n"   (published: tmp + rename)
//!   MANIFEST-000007    -> framed VersionEdits
//! payload: tag u8 | edit fields (varints / length-prefixed slices)
//! ```
//!
//! Each partition's table set is logged as one *complete*
//! [`PartitionVersion`] per transition (last-writer-wins on replay)
//! rather than incremental add/remove deltas: a version is a few dozen
//! table references at this scale, and whole-version edits make replay
//! trivially idempotent. Every `manifest_snapshot_every` edits the log
//! is rewritten as a fresh snapshot file and the `CURRENT` pointer is
//! swapped via atomic rename, so the log never grows without bound.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use encoding::frame::{self, Frames};
use encoding::varint;
use sim::fault::{self, FaultPlan, LogFile};
use sim::{CostModel, Timeline};

/// Durable description of one SSTable. `SsTable::open` cannot recover
/// the key range or newest sequence from the file footer alone, so the
/// manifest carries them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SsdMeta {
    pub name: String,
    pub first: Vec<u8>,
    pub last: Vec<u8>,
    pub bytes: u64,
    pub max_seq: u64,
}

/// The complete table set of one partition at one point in time.
///
/// PM tables are named by their stable [`pm_device::RegionId`]s (the
/// region payload is self-describing, so the id is enough); SSTables
/// carry full [`SsdMeta`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartitionVersion {
    pub partition: u64,
    /// Unsorted PM level-0 tables, oldest first.
    pub unsorted: Vec<u64>,
    /// Sorted-run PM tables, ascending key order.
    pub sorted: Vec<u64>,
    /// Matrix-container rows, oldest first.
    pub matrix: Vec<u64>,
    /// SSD level-0 tables (RocksDB-like mode), oldest first.
    pub l0_tables: Vec<SsdMeta>,
    /// SSD levels: `levels[0]` is level-1.
    pub levels: Vec<Vec<SsdMeta>>,
    /// Dominant codec id of each PM table, in `unsorted` order followed
    /// by `sorted` order (encoding v2). Encoded *after* every other
    /// field so pre-codec manifests decode to an empty vec: recovery
    /// treats empty as "unknown, trust the self-describing regions".
    pub codecs: Vec<u64>,
}

/// One atomic manifest record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VersionEdit {
    /// Install a partition's complete table set.
    PartitionVersion(PartitionVersion),
    /// A flush made every record of `partition` with `seq <=
    /// durable_seq` durable below the WAL; replay skips them.
    FlushCheckpoint { partition: u64, durable_seq: u64 },
    /// The WAL rotated to segment `segment`.
    WalRotate { segment: u64 },
    /// High-water mark of the SSTable name counter.
    TableCounter { value: u64 },
}

const TAG_PARTITION_VERSION: u8 = 1;
const TAG_FLUSH_CHECKPOINT: u8 = 2;
const TAG_WAL_ROTATE: u8 = 3;
const TAG_TABLE_COUNTER: u8 = 4;

fn put_ssd_meta(out: &mut Vec<u8>, m: &SsdMeta) {
    varint::put_slice(out, m.name.as_bytes());
    varint::put_slice(out, &m.first);
    varint::put_slice(out, &m.last);
    varint::put_u64(out, m.bytes);
    varint::put_u64(out, m.max_seq);
}

fn read_ssd_meta(r: &mut varint::Reader<'_>) -> Option<SsdMeta> {
    let name = String::from_utf8(r.read_slice()?.to_vec()).ok()?;
    let first = r.read_slice()?.to_vec();
    let last = r.read_slice()?.to_vec();
    let bytes = r.read_u64()?;
    let max_seq = r.read_u64()?;
    Some(SsdMeta {
        name,
        first,
        last,
        bytes,
        max_seq,
    })
}

fn put_region_list(out: &mut Vec<u8>, ids: &[u64]) {
    varint::put_u64(out, ids.len() as u64);
    for &id in ids {
        varint::put_u64(out, id);
    }
}

fn read_region_list(r: &mut varint::Reader<'_>) -> Option<Vec<u64>> {
    let n = r.read_u64()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(r.read_u64()?);
    }
    Some(out)
}

fn put_ssd_list(out: &mut Vec<u8>, tables: &[SsdMeta]) {
    varint::put_u64(out, tables.len() as u64);
    for t in tables {
        put_ssd_meta(out, t);
    }
}

fn read_ssd_list(r: &mut varint::Reader<'_>) -> Option<Vec<SsdMeta>> {
    let n = r.read_u64()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(read_ssd_meta(r)?);
    }
    Some(out)
}

impl VersionEdit {
    /// Encode to the frame payload (tag byte + fields).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            VersionEdit::PartitionVersion(pv) => {
                out.push(TAG_PARTITION_VERSION);
                varint::put_u64(&mut out, pv.partition);
                put_region_list(&mut out, &pv.unsorted);
                put_region_list(&mut out, &pv.sorted);
                put_region_list(&mut out, &pv.matrix);
                put_ssd_list(&mut out, &pv.l0_tables);
                varint::put_u64(&mut out, pv.levels.len() as u64);
                for level in &pv.levels {
                    put_ssd_list(&mut out, level);
                }
                // Appended last so payloads written before encoding v2
                // (which simply end here) still decode: the reader
                // takes an empty trailer as "no codec ids logged".
                put_region_list(&mut out, &pv.codecs);
            }
            VersionEdit::FlushCheckpoint {
                partition,
                durable_seq,
            } => {
                out.push(TAG_FLUSH_CHECKPOINT);
                varint::put_u64(&mut out, *partition);
                varint::put_u64(&mut out, *durable_seq);
            }
            VersionEdit::WalRotate { segment } => {
                out.push(TAG_WAL_ROTATE);
                varint::put_u64(&mut out, *segment);
            }
            VersionEdit::TableCounter { value } => {
                out.push(TAG_TABLE_COUNTER);
                varint::put_u64(&mut out, *value);
            }
        }
        out
    }

    /// Decode a frame payload; `None` on truncation or an unknown tag.
    pub fn decode(payload: &[u8]) -> Option<VersionEdit> {
        let (&tag, rest) = payload.split_first()?;
        let mut r = varint::Reader::new(rest);
        let edit = match tag {
            TAG_PARTITION_VERSION => {
                let partition = r.read_u64()?;
                let unsorted = read_region_list(&mut r)?;
                let sorted = read_region_list(&mut r)?;
                let matrix = read_region_list(&mut r)?;
                let l0_tables = read_ssd_list(&mut r)?;
                let depth = r.read_u64()? as usize;
                let mut levels = Vec::with_capacity(depth.min(64));
                for _ in 0..depth {
                    levels.push(read_ssd_list(&mut r)?);
                }
                let codecs = if r.is_empty() {
                    Vec::new() // pre-codec payload
                } else {
                    read_region_list(&mut r)?
                };
                VersionEdit::PartitionVersion(PartitionVersion {
                    partition,
                    unsorted,
                    sorted,
                    matrix,
                    l0_tables,
                    levels,
                    codecs,
                })
            }
            TAG_FLUSH_CHECKPOINT => VersionEdit::FlushCheckpoint {
                partition: r.read_u64()?,
                durable_seq: r.read_u64()?,
            },
            TAG_WAL_ROTATE => VersionEdit::WalRotate {
                segment: r.read_u64()?,
            },
            TAG_TABLE_COUNTER => VersionEdit::TableCounter {
                value: r.read_u64()?,
            },
            _ => return None,
        };
        if !r.is_empty() {
            return None; // trailing garbage: treat as corrupt
        }
        Some(edit)
    }
}

/// Errors from manifest operations.
#[derive(Debug)]
pub enum ManifestError {
    Io(String),
    Corrupt(String),
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Io(e) => write!(f, "manifest io: {e}"),
            ManifestError::Corrupt(e) => write!(f, "manifest corrupt: {e}"),
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<std::io::Error> for ManifestError {
    fn from(e: std::io::Error) -> Self {
        ManifestError::Io(e.to_string())
    }
}

/// The accumulated effect of replaying a manifest log.
#[derive(Clone, Debug, Default)]
pub struct ManifestState {
    /// Last logged version per partition.
    pub partitions: BTreeMap<u64, PartitionVersion>,
    /// Per-partition durable sequence watermark.
    pub checkpoints: BTreeMap<u64, u64>,
    /// Highest WAL segment number the log rotated to.
    pub wal_segment: u64,
    /// SSTable name-counter high-water mark.
    pub table_counter: u64,
    /// Edits applied (replayed + appended since open).
    pub edits_applied: u64,
}

impl ManifestState {
    fn apply(&mut self, edit: &VersionEdit) {
        match edit {
            VersionEdit::PartitionVersion(pv) => {
                self.partitions.insert(pv.partition, pv.clone());
            }
            VersionEdit::FlushCheckpoint {
                partition,
                durable_seq,
            } => {
                let wm = self.checkpoints.entry(*partition).or_insert(0);
                *wm = (*wm).max(*durable_seq);
            }
            VersionEdit::WalRotate { segment } => {
                self.wal_segment = self.wal_segment.max(*segment);
            }
            VersionEdit::TableCounter { value } => {
                self.table_counter = self.table_counter.max(*value);
            }
        }
        self.edits_applied += 1;
    }

    /// Edits that reconstruct this state from scratch (snapshot body).
    fn snapshot_edits(&self) -> Vec<VersionEdit> {
        let mut edits = Vec::new();
        edits.push(VersionEdit::TableCounter {
            value: self.table_counter,
        });
        edits.push(VersionEdit::WalRotate {
            segment: self.wal_segment,
        });
        for (&partition, &durable_seq) in &self.checkpoints {
            edits.push(VersionEdit::FlushCheckpoint {
                partition,
                durable_seq,
            });
        }
        for pv in self.partitions.values() {
            edits.push(VersionEdit::PartitionVersion(pv.clone()));
        }
        edits
    }
}

fn manifest_name(number: u64) -> String {
    format!("MANIFEST-{number:06}")
}

/// Append `edit` to `out` as one frame.
fn frame_edit(out: &mut Vec<u8>, edit: &VersionEdit) {
    frame::frame_into(out, |out| out.extend_from_slice(&edit.encode()));
}

/// An open manifest log: the durable source of truth for the table set.
pub struct Manifest {
    dir: PathBuf,
    log: LogFile,
    number: u64,
    snapshot_every: u64,
    edits_since_snapshot: u64,
    state: ManifestState,
    cost: CostModel,
    fault: Option<Arc<FaultPlan>>,
    /// Stale manifest files whose unlink failed, not yet taken by
    /// [`Manifest::take_retire_errors`].
    retire_errors: u64,
}

impl Manifest {
    /// Open (or create) the manifest under `dir`, replaying the file the
    /// `CURRENT` pointer names. Returns the log positioned for appends.
    pub fn open(
        dir: impl Into<PathBuf>,
        snapshot_every: u64,
        cost: CostModel,
        fault: Option<Arc<FaultPlan>>,
    ) -> Result<Manifest, ManifestError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        // Sweep debris from a crashed CURRENT swap.
        fault::sweep_tmp(&dir)?;
        let current = dir.join("CURRENT");
        let mut state = ManifestState::default();
        // Bytes of the live file that replay read as whole edits.
        let mut intact = 0;
        let number = if current.exists() {
            let name = fs::read_to_string(&current)?;
            let name = name.trim();
            let number: u64 = name
                .strip_prefix("MANIFEST-")
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| ManifestError::Corrupt(format!("bad CURRENT contents: {name}")))?;
            let raw = fs::read(dir.join(name)).map_err(|e| {
                ManifestError::Corrupt(format!("CURRENT names missing file {name}: {e}"))
            })?;
            // Replay stops at the first torn, corrupt or undecodable
            // frame (prefix property: everything before it was fsynced
            // in order).
            let mut frames = Frames::new(&raw);
            while let Some(edit) = frames.next().and_then(VersionEdit::decode) {
                state.apply(&edit);
                intact = frames.intact_len();
            }
            number
        } else {
            1
        };
        // Remove manifest files other than the live one (debris from a
        // crashed snapshot rewrite, or the pre-swap predecessor).
        let mut retire_errors = 0;
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(n) = name.strip_prefix("MANIFEST-") {
                if n.parse::<u64>().ok() != Some(number) && fs::remove_file(entry.path()).is_err() {
                    retire_errors += 1;
                }
            }
        }
        // Appends go after the last intact edit, never behind a torn one.
        let log = LogFile::open(&dir.join(manifest_name(number)), intact as u64)?;
        let mut m = Manifest {
            dir,
            log,
            number,
            snapshot_every: snapshot_every.max(1),
            edits_since_snapshot: state.edits_applied,
            state,
            cost,
            fault,
            retire_errors,
        };
        if !m.dir.join("CURRENT").exists() {
            m.swap_current()?;
        }
        Ok(m)
    }

    /// The replayed (and since-appended) state.
    pub fn state(&self) -> &ManifestState {
        &self.state
    }

    /// How many stale manifest files could not be removed since the
    /// last call. Such a file stays on disk; the next open retries it.
    pub(crate) fn take_retire_errors(&mut self) -> u64 {
        std::mem::take(&mut self.retire_errors)
    }

    /// Atomically point `CURRENT` at the live manifest file.
    fn swap_current(&mut self) -> Result<(), ManifestError> {
        let contents = format!("{}\n", manifest_name(self.number));
        fault::publish(
            &self.fault,
            &self.dir.join("CURRENT"),
            &[contents.as_bytes()],
        )?;
        Ok(())
    }

    /// Append one edit (fsynced) and fold it into the in-memory state.
    /// Triggers a snapshot rewrite every `snapshot_every` edits.
    pub fn append(&mut self, edit: &VersionEdit, tl: &mut Timeline) -> Result<(), ManifestError> {
        let mut framed = Vec::new();
        frame_edit(&mut framed, edit);
        self.log.append(&self.fault, &framed, true)?;
        tl.charge(self.cost.ssd.write(framed.len()));
        tl.charge(self.cost.ssd.persist);
        self.state.apply(edit);
        self.edits_since_snapshot += 1;
        if self.edits_since_snapshot >= self.snapshot_every {
            self.rewrite_snapshot(tl)?;
        }
        Ok(())
    }

    /// Write the full state as a fresh manifest file and swap `CURRENT`.
    /// A crash anywhere in here is safe: `CURRENT` flips atomically, and
    /// until it does recovery reads the old (complete) file.
    fn rewrite_snapshot(&mut self, tl: &mut Timeline) -> Result<(), ManifestError> {
        let old_number = self.number;
        let new_number = self.number + 1;
        let mut body = Vec::new();
        for edit in self.state.snapshot_edits() {
            frame_edit(&mut body, &edit);
        }
        let mut log = LogFile::open(&self.dir.join(manifest_name(new_number)), 0)?;
        log.append(&self.fault, &body, true)?;
        tl.charge(self.cost.ssd.write(body.len()));
        tl.charge(self.cost.ssd.persist);
        self.log = log;
        self.number = new_number;
        self.swap_current()?;
        if fs::remove_file(self.dir.join(manifest_name(old_number))).is_err() {
            self.retire_errors += 1;
        }
        self.edits_since_snapshot = 0;
        Ok(())
    }
}

impl std::fmt::Debug for Manifest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Manifest")
            .field("number", &self.number)
            .field("edits_applied", &self.state.edits_applied)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pmblade-manifest-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Path of `m`'s live manifest file.
    fn current_path(m: &Manifest) -> PathBuf {
        m.dir.join(manifest_name(m.number))
    }

    fn sample_pv(partition: u64) -> PartitionVersion {
        PartitionVersion {
            partition,
            unsorted: vec![3, 7],
            sorted: vec![1],
            matrix: vec![],
            l0_tables: vec![],
            levels: vec![vec![SsdMeta {
                name: "p000-L1-00000001.sst".into(),
                first: b"a".to_vec(),
                last: b"m".to_vec(),
                bytes: 4096,
                max_seq: 99,
            }]],
            codecs: vec![1, 0, 2],
        }
    }

    #[test]
    fn edit_encode_decode_roundtrip() {
        let edits = vec![
            VersionEdit::PartitionVersion(sample_pv(2)),
            VersionEdit::FlushCheckpoint {
                partition: 1,
                durable_seq: 500,
            },
            VersionEdit::WalRotate { segment: 9 },
            VersionEdit::TableCounter { value: 44 },
        ];
        for edit in edits {
            let decoded = VersionEdit::decode(&edit.encode()).unwrap();
            assert_eq!(decoded, edit);
        }
    }

    #[test]
    fn pre_codec_partition_version_decodes_with_empty_codecs() {
        // A payload written before encoding v2 ends right after the
        // levels list. Synthesize one by re-encoding without the codec
        // trailer and check it decodes to `codecs: vec![]`.
        let mut pv = sample_pv(3);
        pv.codecs.clear();
        let full = VersionEdit::PartitionVersion(pv.clone()).encode();
        // An empty codec list encodes as a single 0x00 varint; strip it
        // to get the exact pre-codec byte layout.
        assert_eq!(full.last(), Some(&0u8));
        let legacy = &full[..full.len() - 1];
        let decoded = VersionEdit::decode(legacy).unwrap();
        assert_eq!(decoded, VersionEdit::PartitionVersion(pv));
    }

    #[test]
    fn codec_ids_roundtrip_through_encode() {
        let pv = sample_pv(5);
        assert_eq!(pv.codecs, vec![1, 0, 2]);
        let decoded = VersionEdit::decode(&VersionEdit::PartitionVersion(pv.clone()).encode());
        assert_eq!(decoded, Some(VersionEdit::PartitionVersion(pv)));
    }

    #[test]
    fn decode_rejects_truncation_and_unknown_tags() {
        let payload = VersionEdit::PartitionVersion(sample_pv(0)).encode();
        assert!(VersionEdit::decode(&payload[..payload.len() - 1]).is_none());
        assert!(VersionEdit::decode(&[0xEE, 1, 2, 3]).is_none());
        assert!(VersionEdit::decode(&[]).is_none());
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = tmp("roundtrip");
        let cost = CostModel::default();
        let mut tl = Timeline::new();
        {
            let mut m = Manifest::open(&dir, 1000, cost, None).unwrap();
            m.append(&VersionEdit::TableCounter { value: 7 }, &mut tl)
                .unwrap();
            m.append(&VersionEdit::PartitionVersion(sample_pv(0)), &mut tl)
                .unwrap();
            m.append(
                &VersionEdit::FlushCheckpoint {
                    partition: 0,
                    durable_seq: 42,
                },
                &mut tl,
            )
            .unwrap();
        }
        let m2 = Manifest::open(&dir, 1000, cost, None).unwrap();
        let s = m2.state();
        assert_eq!(s.table_counter, 7);
        assert_eq!(s.checkpoints.get(&0), Some(&42));
        assert_eq!(s.partitions.get(&0), Some(&sample_pv(0)));
        assert_eq!(s.edits_applied, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn later_partition_version_wins() {
        let dir = tmp("lww");
        let cost = CostModel::default();
        let mut tl = Timeline::new();
        {
            let mut m = Manifest::open(&dir, 1000, cost, None).unwrap();
            m.append(&VersionEdit::PartitionVersion(sample_pv(0)), &mut tl)
                .unwrap();
            let mut newer = sample_pv(0);
            newer.unsorted = vec![11];
            m.append(&VersionEdit::PartitionVersion(newer), &mut tl)
                .unwrap();
        }
        let m2 = Manifest::open(&dir, 1000, cost, None).unwrap();
        assert_eq!(m2.state().partitions.get(&0).unwrap().unsorted, vec![11]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_rewrite_compacts_and_preserves_state() {
        let dir = tmp("snapshot");
        let cost = CostModel::default();
        let mut tl = Timeline::new();
        {
            let mut m = Manifest::open(&dir, 4, cost, None).unwrap();
            for i in 0..10 {
                m.append(&VersionEdit::TableCounter { value: i }, &mut tl)
                    .unwrap();
            }
            m.append(&VersionEdit::PartitionVersion(sample_pv(1)), &mut tl)
                .unwrap();
            assert!(m.number > 1, "snapshot must have rotated the file");
        }
        // Only one MANIFEST file (plus CURRENT) remains.
        let manifests: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let n = e.unwrap().file_name().to_string_lossy().into_owned();
                n.starts_with("MANIFEST-").then_some(n)
            })
            .collect();
        assert_eq!(manifests.len(), 1, "got {manifests:?}");
        let m2 = Manifest::open(&dir, 4, cost, None).unwrap();
        assert_eq!(m2.state().table_counter, 9);
        assert_eq!(m2.state().partitions.get(&1), Some(&sample_pv(1)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_drops_only_last_edit() {
        let dir = tmp("torn");
        let cost = CostModel::default();
        let mut tl = Timeline::new();
        {
            let mut m = Manifest::open(&dir, 1000, cost, None).unwrap();
            m.append(&VersionEdit::TableCounter { value: 5 }, &mut tl)
                .unwrap();
            m.append(&VersionEdit::WalRotate { segment: 3 }, &mut tl)
                .unwrap();
        }
        let path = {
            let m = Manifest::open(&dir, 1000, cost, None).unwrap();
            current_path(&m)
        };
        let raw = fs::read(&path).unwrap();
        fs::write(&path, &raw[..raw.len() - 2]).unwrap();
        let m2 = Manifest::open(&dir, 1000, cost, None).unwrap();
        assert_eq!(m2.state().table_counter, 5);
        assert_eq!(m2.state().wal_segment, 0, "torn edit must not apply");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_during_append_loses_only_that_edit() {
        let dir = tmp("fault");
        let cost = CostModel::default();
        let mut tl = Timeline::new();
        let plan = FaultPlan::armed(1, true, 17);
        {
            let mut m = Manifest::open(&dir, 1000, cost, Some(Arc::clone(&plan))).unwrap();
            // CURRENT creation consumed no plan events (open with no
            // fault on fresh dir? it did swap_current → one write).
            m.append(&VersionEdit::TableCounter { value: 1 }, &mut tl)
                .ok();
            let err = m
                .append(&VersionEdit::TableCounter { value: 2 }, &mut tl)
                .unwrap_err();
            assert!(matches!(err, ManifestError::Io(_)));
        }
        plan.disarm();
        let m2 = Manifest::open(&dir, 1000, cost, None).unwrap();
        assert!(m2.state().table_counter <= 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_during_snapshot_keeps_old_manifest_live() {
        let dir = tmp("snapfault");
        let cost = CostModel::default();
        let mut tl = Timeline::new();
        {
            let mut m = Manifest::open(&dir, 1000, cost, None).unwrap();
            for i in 0..3 {
                m.append(&VersionEdit::TableCounter { value: i }, &mut tl)
                    .unwrap();
            }
        }
        {
            // Re-open with snapshot_every=4 and a plan that dies on the
            // snapshot body write (the 2nd durable write: append then
            // snapshot).
            let plan = FaultPlan::armed(1, false, 0);
            let mut m = Manifest::open(&dir, 4, cost, Some(plan)).unwrap();
            let err = m
                .append(&VersionEdit::TableCounter { value: 50 }, &mut tl)
                .unwrap_err();
            assert!(matches!(err, ManifestError::Io(_)), "got {err:?}");
        }
        // The appended edit itself was durable; the snapshot wasn't, and
        // recovery still reads a consistent log.
        let m2 = Manifest::open(&dir, 1000, cost, None).unwrap();
        assert_eq!(m2.state().table_counter, 50);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stale_manifest_that_cannot_be_removed_is_counted() {
        let dir = tmp("stale");
        let cost = CostModel::default();
        drop(Manifest::open(&dir, 1000, cost, None).unwrap());
        // A stale manifest name that `remove_file` refuses: a directory.
        let stale = dir.join(manifest_name(99));
        fs::create_dir(&stale).unwrap();
        let mut m = Manifest::open(&dir, 1000, cost, None).unwrap();
        assert_eq!(m.take_retire_errors(), 1);
        assert_eq!(m.take_retire_errors(), 0, "taken once");
        assert!(stale.is_dir());
        drop(m);
        fs::remove_dir(&stale).unwrap();
        fs::write(&stale, b"").unwrap();
        let mut m = Manifest::open(&dir, 1000, cost, None).unwrap();
        assert_eq!(m.take_retire_errors(), 0);
        assert!(!stale.exists(), "the next open removes it");
        let _ = fs::remove_dir_all(&dir);
    }
}
