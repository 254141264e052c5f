//! Write-ahead log.
//!
//! A log is a run of CRC frames ([`encoding::frame`]), one record each,
//! appended through a [`sim::fault::LogFile`]; replay stops at the first
//! torn or corrupt frame. A record's payload:
//!
//! ```text
//! trailer u64 | varint klen | key | varint vlen | value
//! ```
//!
//! The log is backed by a real file so recovery tests exercise actual
//! persistence, and the virtual clock is charged SSD write costs (logs
//! live on the SSD in the paper's setup).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use encoding::frame::{self, Frames};
use encoding::key::{self, KeyKind, SequenceNumber};
use encoding::varint;
use sim::fault::{FaultPlan, LogFile};
use sim::{CostModel, Timeline};

/// One logical log record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WalRecord {
    pub seq: SequenceNumber,
    pub kind: KeyKind,
    pub user_key: Vec<u8>,
    pub value: Vec<u8>,
}

impl WalRecord {
    fn decode(payload: &[u8]) -> Option<WalRecord> {
        let mut r = varint::Reader::new(payload);
        let trailer = u64::from_le_bytes(r.read_bytes(8)?.try_into().unwrap());
        let (seq, kind) = key::unpack_trailer(trailer);
        Some(WalRecord {
            seq,
            kind: kind?,
            user_key: r.read_slice()?.to_vec(),
            value: r.read_slice()?.to_vec(),
        })
    }
}

/// Errors from log operations.
#[derive(Debug)]
pub enum WalError {
    Io(std::io::Error),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// An append-only write-ahead log.
pub struct Wal {
    log: LogFile,
    path: PathBuf,
    cost: CostModel,
    fault: Option<Arc<FaultPlan>>,
    /// The frame being appended: cleared and refilled by every
    /// [`Wal::append`], so a record allocates nothing once it has grown.
    frame: Vec<u8>,
}

impl Wal {
    /// Create (truncating) a log at `path`.
    pub fn create(path: impl Into<PathBuf>, cost: CostModel) -> Result<Self, WalError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        Ok(Wal {
            log: LogFile::open(&path, 0)?,
            path,
            cost,
            fault: None,
            frame: Vec::new(),
        })
    }

    /// Route this log's durable writes through a crash-injection plan.
    pub fn set_fault(&mut self, fault: Option<Arc<FaultPlan>>) {
        self.fault = fault;
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn bytes_written(&self) -> u64 {
        self.log.intact_len()
    }

    /// Append one record and charge its device cost.
    pub fn append(&mut self, rec: &WalRecord, tl: &mut Timeline) -> Result<(), WalError> {
        self.frame.clear();
        frame::frame_into(&mut self.frame, |out| {
            out.extend_from_slice(&key::pack_trailer(rec.seq, rec.kind).to_le_bytes());
            varint::put_slice(out, &rec.user_key);
            varint::put_slice(out, &rec.value);
        });
        self.log.append(&self.fault, &self.frame, false)?;
        tl.charge(self.cost.ssd.write(self.frame.len()));
        Ok(())
    }

    /// Durability barrier (group commit point).
    pub fn sync(&mut self, tl: &mut Timeline) -> Result<(), WalError> {
        self.log.sync(&self.fault)?;
        tl.charge(self.cost.ssd.persist);
        Ok(())
    }

    /// Replay a log, returning complete records and stopping at the first
    /// torn or corrupt frame.
    pub fn replay(path: impl AsRef<Path>) -> Result<Vec<WalRecord>, WalError> {
        let raw = std::fs::read(path)?;
        Ok(Frames::new(&raw).map_while(WalRecord::decode).collect())
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("written", &self.bytes_written())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pmblade-wal-{}-{name}", std::process::id()))
    }

    fn rec(seq: u64, k: &str, v: &str) -> WalRecord {
        WalRecord {
            seq,
            kind: KeyKind::Value,
            user_key: k.as_bytes().to_vec(),
            value: v.as_bytes().to_vec(),
        }
    }

    #[test]
    fn append_sync_replay_roundtrip() {
        let path = tmp("roundtrip");
        let mut tl = Timeline::new();
        let records: Vec<WalRecord> = (0..50)
            .map(|i| rec(i + 1, &format!("k{i}"), &format!("v{i}")))
            .collect();
        {
            let mut wal = Wal::create(&path, CostModel::default()).unwrap();
            for r in &records {
                wal.append(r, &mut tl).unwrap();
            }
            wal.sync(&mut tl).unwrap();
        }
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed, records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tombstones_replay() {
        let path = tmp("tombstone");
        let mut tl = Timeline::new();
        {
            let mut wal = Wal::create(&path, CostModel::default()).unwrap();
            wal.append(
                &WalRecord {
                    seq: 7,
                    kind: KeyKind::Delete,
                    user_key: b"gone".to_vec(),
                    value: Vec::new(),
                },
                &mut tl,
            )
            .unwrap();
            wal.sync(&mut tl).unwrap();
        }
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].kind, KeyKind::Delete);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_discarded() {
        let path = tmp("torn");
        let mut tl = Timeline::new();
        {
            let mut wal = Wal::create(&path, CostModel::default()).unwrap();
            wal.append(&rec(1, "a", "1"), &mut tl).unwrap();
            wal.append(&rec(2, "b", "2"), &mut tl).unwrap();
            wal.sync(&mut tl).unwrap();
        }
        // Truncate mid-record.
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 3]).unwrap();
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].user_key, b"a");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_frame_stops_replay() {
        let path = tmp("corrupt");
        let mut tl = Timeline::new();
        {
            let mut wal = Wal::create(&path, CostModel::default()).unwrap();
            wal.append(&rec(1, "a", "1"), &mut tl).unwrap();
            wal.append(&rec(2, "b", "2"), &mut tl).unwrap();
            wal.sync(&mut tl).unwrap();
        }
        let mut raw = std::fs::read(&path).unwrap();
        // Flip a byte inside the first record's payload.
        raw[10] ^= 0xff;
        std::fs::write(&path, &raw).unwrap();
        let replayed = Wal::replay(&path).unwrap();
        assert!(replayed.is_empty(), "nothing before the corruption point");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_truncates_previous_log() {
        let path = tmp("truncate");
        let mut tl = Timeline::new();
        {
            let mut wal = Wal::create(&path, CostModel::default()).unwrap();
            wal.append(&rec(1, "old", "x"), &mut tl).unwrap();
            wal.sync(&mut tl).unwrap();
        }
        {
            let _wal = Wal::create(&path, CostModel::default()).unwrap();
        }
        assert!(Wal::replay(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_injected_append_tears_the_tail() {
        let path = tmp("fault");
        let mut tl = Timeline::new();
        let plan = FaultPlan::armed(1, true, 3);
        {
            let mut wal = Wal::create(&path, CostModel::default()).unwrap();
            wal.set_fault(Some(std::sync::Arc::clone(&plan)));
            wal.append(&rec(1, "a", "1"), &mut tl).unwrap();
            assert!(wal.append(&rec(2, "b", "2"), &mut tl).is_err());
            assert!(plan.tripped());
            // The process is dead: later barriers fail too.
            assert!(wal.sync(&mut tl).is_err());
        }
        // Replay recovers the acknowledged record and drops the torn one.
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].user_key, b"a");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appends_charge_ssd_cost() {
        let path = tmp("cost");
        let mut tl = Timeline::new();
        let mut wal = Wal::create(&path, CostModel::default()).unwrap();
        wal.append(&rec(1, "k", "v"), &mut tl).unwrap();
        assert!(tl.elapsed() >= CostModel::default().ssd.write_base);
        std::fs::remove_file(&path).ok();
    }
}
