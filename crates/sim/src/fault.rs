//! Durable I/O and the crash-injection plans that test it.
//!
//! Bytes become durable in one of two shapes, and both live here:
//!
//! - [`LogFile`]: an append-only log — the WAL segments
//!   (`memtable::Wal`) and the manifest (`pm_blade::manifest`). Each
//!   append and each sync is one durable operation.
//! - [`publish`]: a whole file written to `<path>.tmp`, fsynced and
//!   renamed over `<path>` — PM regions (`PmPool::publish`), SSTable
//!   objects (`SsdWriter::finish`) and the manifest's `CURRENT` pointer
//!   — with [`sweep_tmp`], which the owner's recovery runs to drop what
//!   a crash left half-written.
//!
//! A [`FaultPlan`] models a process that dies at a chosen durable-write
//! boundary; every operation above consults it once, and nothing outside
//! this module can. While the countdown runs the plan allows; on the
//! trip event — and on every durable operation after it, because a dead
//! process issues no more I/O — it denies. The tripping write may
//! optionally be *torn*: a random prefix of its bytes reaches the medium
//! before the crash, exercising the torn-tail handling of every reader.
//!
//! A log only ever appends after its last intact frame: a [`LogFile`]
//! reopened for appends is cut back to the length its replay read as
//! whole frames, and one whose append failed cuts the failed bytes off
//! before its next append — not at the failure, so a crash still leaves
//! the torn tail for recovery to read.
//!
//! Recovery tests keep the `Arc` handle across the simulated crash,
//! [`FaultPlan::disarm`] it, and reopen the database against the same
//! directories — exactly what a restarted process would see.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::rng::Pcg64;

/// Verdict for one durable write or sync boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultDecision {
    /// The operation completes normally.
    Allow,
    /// The process dies at this boundary. `keep_prefix` bytes of the
    /// frame being written survive on the medium (0 for a clean kill or
    /// for syncs, which carry no data).
    Deny { keep_prefix: usize },
}

#[derive(Debug)]
struct PlanState {
    /// Durable operations remaining before the trip; `None` = disarmed.
    remaining: Option<u64>,
    /// Emulate a torn write on the tripping frame.
    torn: bool,
    rng: Pcg64,
}

/// A shared crash schedule, threaded into every durable device.
#[derive(Debug)]
pub struct FaultPlan {
    state: Mutex<PlanState>,
    tripped: AtomicBool,
}

impl FaultPlan {
    /// A plan that trips after `countdown` more durable operations
    /// (0 trips on the very next one). With `torn`, the tripping write
    /// persists a random strict prefix of its frame; `seed` makes the
    /// prefix choice reproducible.
    pub fn armed(countdown: u64, torn: bool, seed: u64) -> Arc<Self> {
        Arc::new(FaultPlan {
            state: Mutex::new(PlanState {
                remaining: Some(countdown),
                torn,
                rng: Pcg64::seeded(seed),
            }),
            tripped: AtomicBool::new(false),
        })
    }

    /// A plan that never fires — handy as a default wiring target.
    pub fn disarmed() -> Arc<Self> {
        Arc::new(FaultPlan {
            state: Mutex::new(PlanState {
                remaining: None,
                torn: false,
                rng: Pcg64::seeded(0),
            }),
            tripped: AtomicBool::new(false),
        })
    }

    /// Consult the plan before persisting a `frame_len`-byte frame (0
    /// for a sync, which carries no bytes and so never tears). Counts one
    /// durable operation when armed.
    fn before_write(&self, frame_len: usize) -> FaultDecision {
        let mut s = self.state.lock().unwrap();
        if self.tripped.load(Ordering::Relaxed) {
            // The process is dead: nothing further reaches the medium.
            return FaultDecision::Deny { keep_prefix: 0 };
        }
        match s.remaining {
            None => FaultDecision::Allow,
            Some(0) => {
                self.tripped.store(true, Ordering::Relaxed);
                s.remaining = None;
                let keep_prefix = if s.torn && frame_len > 1 {
                    s.rng.range(1, frame_len as u64) as usize
                } else {
                    0
                };
                FaultDecision::Deny { keep_prefix }
            }
            Some(n) => {
                s.remaining = Some(n - 1);
                FaultDecision::Allow
            }
        }
    }

    /// (Re-)arm a live plan: trip after `countdown` more durable
    /// operations. Lets tests open a database cleanly first, then
    /// schedule the crash for the workload phase.
    pub fn arm(&self, countdown: u64, torn: bool) {
        let mut s = self.state.lock().unwrap();
        s.remaining = Some(countdown);
        s.torn = torn;
        self.tripped.store(false, Ordering::Relaxed);
    }

    /// Has the plan fired? Check before [`FaultPlan::disarm`] — disarm
    /// clears the flag so the "restarted process" starts clean.
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }

    /// Stop injecting: the "restarted process" performs I/O normally.
    pub fn disarm(&self) {
        self.state.lock().unwrap().remaining = None;
        // A disarmed plan allows everything even if it tripped earlier.
        self.tripped.store(false, Ordering::Relaxed);
    }
}

/// Consult an optional plan; `None` always allows.
fn check_write(plan: &Option<Arc<FaultPlan>>, frame_len: usize) -> FaultDecision {
    plan.as_ref()
        .map_or(FaultDecision::Allow, |p| p.before_write(frame_len))
}

/// What an operation the plan denied fails with.
fn crashed() -> io::Error {
    io::Error::other("crash injected")
}

/// An append-only log file. Every durable operation on it — an append,
/// a sync — takes the crash plan and consults it once.
#[derive(Debug)]
pub struct LogFile {
    file: File,
    /// Bytes of completed appends: where the next append belongs.
    intact: u64,
    /// A failed append may have left bytes past `intact`.
    torn: bool,
}

impl LogFile {
    /// Open `path` (created if missing) for appends after its first
    /// `intact` bytes, cutting off whatever follows them: 0 starts a
    /// fresh log, the length a replay read as whole frames resumes one.
    pub fn open(path: &Path, intact: u64) -> io::Result<LogFile> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        file.set_len(intact)?;
        Ok(LogFile {
            file,
            intact,
            torn: false,
        })
    }

    /// Bytes of completed appends.
    pub fn intact_len(&self) -> u64 {
        self.intact
    }

    /// Append `bytes` — and fsync them when `sync`. A denial leaves the
    /// plan's torn prefix in the file and fails; after any failed append
    /// the next one first cuts the file back to
    /// [`LogFile::intact_len`].
    pub fn append(
        &mut self,
        plan: &Option<Arc<FaultPlan>>,
        bytes: &[u8],
        sync: bool,
    ) -> io::Result<()> {
        if let FaultDecision::Deny { keep_prefix } = check_write(plan, bytes.len()) {
            if keep_prefix > 0 {
                self.torn = true;
                let _ = self.file.write_all(&bytes[..keep_prefix]);
                let _ = self.file.sync_data();
            }
            return Err(crashed());
        }
        if self.torn {
            self.file.set_len(self.intact)?;
        }
        // Until every byte is down, a failure leaves a torn tail.
        self.torn = true;
        self.file.write_all(bytes)?;
        if sync {
            self.file.sync_data()?;
        }
        self.torn = false;
        self.intact += bytes.len() as u64;
        Ok(())
    }

    /// Fsync the file.
    pub fn sync(&self, plan: &Option<Arc<FaultPlan>>) -> io::Result<()> {
        if check_write(plan, 0) != FaultDecision::Allow {
            return Err(crashed());
        }
        self.file.sync_data()
    }
}

/// Publish `parts`, concatenated, as the whole file `path`: written to
/// `<path>.tmp`, fsynced, then renamed over `path`, so a file that
/// exists is complete. One plan consultation; a denial leaves the torn
/// prefix in the `.tmp` file, for [`sweep_tmp`].
pub fn publish(plan: &Option<Arc<FaultPlan>>, path: &Path, parts: &[&[u8]]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let len = parts.iter().map(|part| part.len()).sum();
    if let FaultDecision::Deny { keep_prefix } = check_write(plan, len) {
        if keep_prefix > 0 {
            let _ = fs::write(&tmp, &parts.concat()[..keep_prefix]);
        }
        return Err(crashed());
    }
    let mut f = File::create(&tmp)?;
    for part in parts {
        f.write_all(part)?;
    }
    f.sync_data()?;
    fs::rename(&tmp, path)
}

/// Remove the `.tmp` files in `dir`: publishes a crash cut off before
/// their rename, so nothing in them was ever acknowledged.
pub fn sweep_tmp(dir: &Path) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|ext| ext == "tmp") {
            fs::remove_file(path)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_always_allows() {
        let p = FaultPlan::disarmed();
        for _ in 0..100 {
            assert_eq!(p.before_write(64), FaultDecision::Allow);
        }
        assert!(!p.tripped());
    }

    #[test]
    fn countdown_trips_then_stays_dead() {
        let p = FaultPlan::armed(3, false, 1);
        assert_eq!(p.before_write(10), FaultDecision::Allow);
        assert_eq!(p.before_write(10), FaultDecision::Allow);
        assert_eq!(p.before_write(10), FaultDecision::Allow);
        assert_eq!(p.before_write(10), FaultDecision::Deny { keep_prefix: 0 });
        assert!(p.tripped());
        // Every later operation is denied: the process is gone.
        assert_eq!(p.before_write(10), FaultDecision::Deny { keep_prefix: 0 });
        assert_eq!(p.before_write(0), FaultDecision::Deny { keep_prefix: 0 });
    }

    #[test]
    fn torn_write_keeps_strict_prefix() {
        for seed in 0..32 {
            let p = FaultPlan::armed(0, true, seed);
            match p.before_write(100) {
                FaultDecision::Deny { keep_prefix } => {
                    assert!((1..100).contains(&keep_prefix));
                }
                other => panic!("expected Deny, got {other:?}"),
            }
        }
    }

    #[test]
    fn torn_sync_never_tears() {
        let p = FaultPlan::armed(0, true, 7);
        assert_eq!(p.before_write(0), FaultDecision::Deny { keep_prefix: 0 });
    }

    #[test]
    fn disarm_revives_io() {
        let p = FaultPlan::armed(0, false, 0);
        assert_ne!(p.before_write(8), FaultDecision::Allow);
        assert!(p.tripped());
        p.disarm();
        assert_eq!(p.before_write(8), FaultDecision::Allow);
        assert_eq!(p.before_write(0), FaultDecision::Allow);
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sim-fault-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn a_log_appends_after_its_last_intact_bytes() {
        let dir = scratch("log");
        let path = dir.join("log");
        let plan = Some(FaultPlan::armed(1, true, 5));
        let mut log = LogFile::open(&path, 0).unwrap();
        log.append(&plan, b"aaaa", false).unwrap();
        assert!(log.append(&plan, b"bbbbbbbb", true).is_err());
        // The crash left a torn prefix on the medium, for replay to find.
        let torn = fs::read(&path).unwrap();
        assert!(torn.len() > 4 && torn.len() < 12, "{torn:?}");
        assert!(log.sync(&plan).is_err(), "the process is dead");
        // A live process carries on: the next append cuts the tail off.
        plan.as_ref().unwrap().disarm();
        log.append(&plan, b"cc", false).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"aaaacc");
        assert_eq!(log.intact_len(), 6);
        // Reopening behind a junk tail cuts it off too.
        fs::write(&path, b"aaaaccjunk").unwrap();
        let mut log = LogFile::open(&path, 6).unwrap();
        log.append(&None, b"d", true).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"aaaaccd");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_publish_is_whole_or_tmp_debris() {
        let dir = scratch("publish");
        let path = dir.join("obj");
        let plan = Some(FaultPlan::armed(0, true, 3));
        assert!(publish(&plan, &path, &[b"head", b"tail"]).is_err());
        assert!(!path.exists());
        let torn = fs::read(dir.join("obj.tmp")).unwrap();
        assert!(!torn.is_empty() && b"headtail".starts_with(&torn));
        sweep_tmp(&dir).unwrap();
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        plan.as_ref().unwrap().disarm();
        publish(&plan, &path, &[b"head", b"tail"]).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"headtail");
        let _ = fs::remove_dir_all(&dir);
    }
}
