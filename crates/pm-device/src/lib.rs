//! Simulated persistent memory device.
//!
//! Stands in for the 128 GB Intel Optane DCPMM module in the paper's
//! testbed. A [`PmPool`] is a capacity-limited arena handing out immutable
//! [`PmRegion`]s (PM tables are built once in DRAM, then flushed). Every
//! access is metered against a [`sim::CostModel`], charging virtual time to
//! the caller's [`sim::Timeline`] and bytes to shared [`PmStats`]. An
//! optional directory backing persists regions at `persist()` points so
//! crash-recovery behaviour can be exercised in tests.
//!
//! Why this substitution preserves the paper's behaviour: all of PM-Blade's
//! results derive from (a) PM's byte counters — write amplification, space
//! released by internal compaction — which are exact here, and (b) PM's
//! *relative* latency position between DRAM and SSD, which the cost model
//! reproduces (calibrated against the paper's Table I).

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;
use sim::fault::{self, FaultPlan};
use sim::{CostModel, Counter, Timeline};

/// Shared PM device statistics.
#[derive(Default, Debug)]
pub struct PmStats {
    /// Bytes written to the device (the PM side of write amplification).
    pub bytes_written: Counter,
    /// Bytes read from the device.
    pub bytes_read: Counter,
    /// Random read operations issued.
    pub random_reads: Counter,
    /// Persist (flush) barriers issued.
    pub persists: Counter,
}

/// Errors from pool operations.
#[derive(Debug)]
pub enum PmError {
    /// Allocation would exceed the configured capacity.
    OutOfSpace { requested: usize, available: usize },
    /// Backing-file I/O failed.
    Io(io::Error),
    /// Backing directory contents are corrupt.
    Corrupt(String),
}

impl std::fmt::Display for PmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmError::OutOfSpace {
                requested,
                available,
            } => write!(
                f,
                "pm pool out of space: requested {requested}, available {available}"
            ),
            PmError::Io(e) => write!(f, "pm backing io: {e}"),
            PmError::Corrupt(msg) => write!(f, "pm backing corrupt: {msg}"),
        }
    }
}

impl std::error::Error for PmError {}

impl From<io::Error> for PmError {
    fn from(e: io::Error) -> Self {
        PmError::Io(e)
    }
}

/// Identifier of a region within a pool (stable across recovery).
pub type RegionId = u64;

/// An immutable byte region resident on simulated PM.
///
/// Holds its payload plus a handle to the device stats/cost model so
/// readers can meter their accesses. Cheap to clone (`Arc` inside).
#[derive(Clone)]
pub struct PmRegion {
    inner: Arc<RegionInner>,
}

struct RegionInner {
    id: RegionId,
    data: Vec<u8>,
    stats: Arc<PmStats>,
    cost: CostModel,
}

impl PmRegion {
    pub fn id(&self) -> RegionId {
        self.inner.id
    }

    pub fn len(&self) -> usize {
        self.inner.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.data.is_empty()
    }

    /// Raw payload. Readers that bypass the metering helpers must meter
    /// manually; the table formats in `pmtable` do so.
    pub fn bytes(&self) -> &[u8] {
        &self.inner.data
    }

    /// Meter a random (new-location) read of `len` bytes.
    #[inline]
    pub fn meter_random_read(&self, len: usize, tl: &mut Timeline) {
        self.inner.stats.bytes_read.add(len as u64);
        self.inner.stats.random_reads.incr();
        tl.charge(self.inner.cost.pm.random_read(len));
    }

    /// Meter a sequential read adjacent to a previous access.
    #[inline]
    pub fn meter_sequential_read(&self, len: usize, tl: &mut Timeline) {
        self.inner.stats.bytes_read.add(len as u64);
        tl.charge(self.inner.cost.pm.sequential_read(len));
    }

    /// The cost model of the pool this region was published by.
    pub fn cost_model(&self) -> &CostModel {
        &self.inner.cost
    }

    /// Read with random-access metering.
    pub fn read(&self, offset: usize, len: usize, tl: &mut Timeline) -> &[u8] {
        self.meter_random_read(len, tl);
        &self.inner.data[offset..offset + len]
    }
}

impl std::fmt::Debug for PmRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmRegion")
            .field("id", &self.inner.id)
            .field("len", &self.inner.data.len())
            .finish()
    }
}

struct PoolState {
    regions: BTreeMap<RegionId, PmRegion>,
    used: usize,
    next_id: RegionId,
}

/// A capacity-limited simulated PM pool.
pub struct PmPool {
    capacity: usize,
    cost: CostModel,
    stats: Arc<PmStats>,
    state: Mutex<PoolState>,
    backing: Option<PathBuf>,
    fault: Option<Arc<FaultPlan>>,
}

impl PmPool {
    /// In-memory pool of `capacity` bytes.
    pub fn new(capacity: usize, cost: CostModel) -> Arc<Self> {
        Arc::new(PmPool {
            capacity,
            cost,
            stats: Arc::new(PmStats::default()),
            state: Mutex::new(PoolState {
                regions: BTreeMap::new(),
                used: 0,
                next_id: 1,
            }),
            backing: None,
            fault: None,
        })
    }

    /// Pool persisted under `dir`; previously persisted regions are
    /// recovered eagerly. Durable writes consult an optional
    /// crash-injection plan.
    pub fn with_backing(
        capacity: usize,
        cost: CostModel,
        dir: impl Into<PathBuf>,
        fault: Option<Arc<FaultPlan>>,
    ) -> Result<Arc<Self>, PmError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let pool = PmPool {
            capacity,
            cost,
            stats: Arc::new(PmStats::default()),
            state: Mutex::new(PoolState {
                regions: BTreeMap::new(),
                used: 0,
                next_id: 1,
            }),
            backing: Some(dir),
            fault,
        };
        pool.recover()?;
        Ok(Arc::new(pool))
    }

    fn recover(&self) -> Result<(), PmError> {
        let dir = self.backing.as_ref().expect("recover requires backing");
        let mut state = self.state.lock();
        // Half-written publishes from a crashed process: the rename
        // never happened, so no region there was ever acknowledged.
        fault::sweep_tmp(dir)?;
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(idpart) = name
                .strip_prefix("region-")
                .and_then(|s| s.strip_suffix(".pm"))
            else {
                continue;
            };
            let id: RegionId = idpart
                .parse()
                .map_err(|_| PmError::Corrupt(format!("bad region file {name}")))?;
            // The pool writes only regular files; anything else (a
            // directory where a freed region failed to unlink) holds no
            // region, but its id stays taken so no publish lands on it.
            state.next_id = state.next_id.max(id + 1);
            if !entry.file_type()?.is_file() {
                continue;
            }
            let raw = fs::read(entry.path())?;
            if raw.len() < 4 {
                return Err(PmError::Corrupt(format!("{name} too short")));
            }
            let (payload, tail) = raw.split_at(raw.len() - 4);
            let stored = u32::from_le_bytes(tail.try_into().unwrap());
            if encoding::crc::crc32c(payload) != stored {
                return Err(PmError::Corrupt(format!("{name} checksum mismatch")));
            }
            state.used += payload.len();
            state.regions.insert(
                id,
                PmRegion {
                    inner: Arc::new(RegionInner {
                        id,
                        data: payload.to_vec(),
                        stats: Arc::clone(&self.stats),
                        cost: self.cost,
                    }),
                },
            );
        }
        Ok(())
    }

    /// Write `data` into a new region, metering the write and persist cost.
    /// Fails when the pool lacks space.
    pub fn publish(&self, data: Vec<u8>, tl: &mut Timeline) -> Result<PmRegion, PmError> {
        let len = data.len();
        let mut state = self.state.lock();
        if state.used + len > self.capacity {
            return Err(PmError::OutOfSpace {
                requested: len,
                available: self.capacity - state.used,
            });
        }
        let id = state.next_id;
        if let Some(dir) = &self.backing {
            // The payload and its (unmasked) CRC32C trailer, published
            // whole: a crash mid-write leaves only `.tmp` debris, never
            // a region file with a bad checksum (which recovery treats
            // as real corruption).
            let crc = encoding::crc::crc32c(&data).to_le_bytes();
            let path = dir.join(format!("region-{id}.pm"));
            fault::publish(&self.fault, &path, &[&data, &crc])?;
        }
        state.next_id += 1;
        state.used += len;
        self.stats.bytes_written.add(len as u64);
        self.stats.persists.incr();
        tl.charge(self.cost.pm.write(len));
        tl.charge(self.cost.pm.persist(len));
        let region = PmRegion {
            inner: Arc::new(RegionInner {
                id,
                data,
                stats: Arc::clone(&self.stats),
                cost: self.cost,
            }),
        };
        state.regions.insert(id, region.clone());
        Ok(region)
    }

    /// Release a region's space. Outstanding `PmRegion` clones stay
    /// readable (epoch-style reclamation); the pool accounting drops now,
    /// even when the region's backing file could not be removed (the
    /// error is returned). Freeing an unknown id does nothing.
    pub fn free(&self, id: RegionId) -> Result<(), PmError> {
        let mut state = self.state.lock();
        let Some(region) = state.regions.remove(&id) else {
            return Ok(());
        };
        state.used -= region.len();
        match &self.backing {
            Some(dir) => Ok(fs::remove_file(dir.join(format!("region-{id}.pm")))?),
            None => Ok(()),
        }
    }

    /// Look up a live region.
    pub fn get(&self, id: RegionId) -> Option<PmRegion> {
        self.state.lock().regions.get(&id).cloned()
    }

    /// All live region ids, ascending.
    pub fn region_ids(&self) -> Vec<RegionId> {
        self.state.lock().regions.keys().copied().collect()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn used(&self) -> usize {
        self.state.lock().used
    }

    pub fn available(&self) -> usize {
        self.capacity - self.used()
    }

    pub fn stats(&self) -> &PmStats {
        &self.stats
    }

    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }
}

impl std::fmt::Debug for PmPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmPool")
            .field("capacity", &self.capacity)
            .field("used", &self.used())
            .field("backed", &self.backing.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::SimDuration;

    fn pool(cap: usize) -> Arc<PmPool> {
        PmPool::new(cap, CostModel::default())
    }

    #[test]
    fn publish_and_read_back() {
        let p = pool(1024);
        let mut tl = Timeline::new();
        let r = p.publish(b"hello pm".to_vec(), &mut tl).unwrap();
        assert_eq!(r.bytes(), b"hello pm");
        assert!(tl.elapsed() > SimDuration::ZERO, "write must cost time");
        assert_eq!(p.used(), 8);
        assert_eq!(p.stats().bytes_written.get(), 8);
    }

    #[test]
    fn capacity_is_enforced() {
        let p = pool(10);
        let mut tl = Timeline::new();
        p.publish(vec![0; 6], &mut tl).unwrap();
        let err = p.publish(vec![0; 6], &mut tl).unwrap_err();
        match err {
            PmError::OutOfSpace {
                requested,
                available,
            } => {
                assert_eq!(requested, 6);
                assert_eq!(available, 4);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn free_reclaims_space_but_clones_stay_readable() {
        let p = pool(10);
        let mut tl = Timeline::new();
        let r = p.publish(vec![7; 10], &mut tl).unwrap();
        let id = r.id();
        p.free(id).unwrap();
        assert_eq!(p.used(), 0);
        assert!(p.get(id).is_none());
        // The clone we kept still reads.
        assert_eq!(r.bytes(), &[7; 10]);
        // Space is reusable.
        p.publish(vec![1; 10], &mut tl).unwrap();
    }

    #[test]
    fn double_free_is_idempotent() {
        let p = pool(100);
        let mut tl = Timeline::new();
        let r = p.publish(vec![1; 10], &mut tl).unwrap();
        p.free(r.id()).unwrap();
        p.free(r.id()).unwrap();
        assert_eq!(p.used(), 0);
    }

    #[test]
    fn region_ids_ascend_and_list() {
        let p = pool(1000);
        let mut tl = Timeline::new();
        let a = p.publish(vec![0; 1], &mut tl).unwrap();
        let b = p.publish(vec![0; 1], &mut tl).unwrap();
        assert!(b.id() > a.id());
        assert_eq!(p.region_ids(), vec![a.id(), b.id()]);
    }

    #[test]
    fn metered_reads_charge_time_and_stats() {
        let p = pool(1024);
        let mut tl = Timeline::new();
        let r = p.publish(vec![42; 512], &mut tl).unwrap();
        let before = tl.elapsed();
        let slice = r.read(100, 64, &mut tl);
        assert_eq!(slice, &[42u8; 64][..]);
        assert!(tl.elapsed() > before);
        assert_eq!(p.stats().bytes_read.get(), 64);
        assert_eq!(p.stats().random_reads.get(), 1);
        // Sequential read cheaper than random.
        let mut t_rand = Timeline::new();
        let mut t_seq = Timeline::new();
        r.meter_random_read(64, &mut t_rand);
        r.meter_sequential_read(64, &mut t_seq);
        assert!(t_seq.elapsed() < t_rand.elapsed());
    }

    #[test]
    fn backed_pool_recovers_regions() {
        let dir = std::env::temp_dir().join(format!("pmblade-pm-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cost = CostModel::default();
        let (id_a, id_b);
        {
            let p = PmPool::with_backing(4096, cost, &dir, None).unwrap();
            let mut tl = Timeline::new();
            id_a = p.publish(b"alpha".to_vec(), &mut tl).unwrap().id();
            id_b = p.publish(b"beta".to_vec(), &mut tl).unwrap().id();
            let c = p.publish(b"gone".to_vec(), &mut tl).unwrap();
            p.free(c.id()).unwrap();
        }
        let p2 = PmPool::with_backing(4096, cost, &dir, None).unwrap();
        assert_eq!(p2.region_ids(), vec![id_a, id_b]);
        assert_eq!(p2.get(id_a).unwrap().bytes(), b"alpha");
        assert_eq!(p2.get(id_b).unwrap().bytes(), b"beta");
        assert_eq!(p2.used(), 9);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn free_reports_a_failed_unlink_and_still_drops_the_region() {
        let dir = std::env::temp_dir().join(format!("pmblade-pm-unlink-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let p = PmPool::with_backing(4096, CostModel::default(), &dir, None).unwrap();
        let id = p
            .publish(b"stuck".to_vec(), &mut Timeline::new())
            .unwrap()
            .id();
        // A directory where the region file was: `remove_file` refuses it.
        let path = dir.join(format!("region-{id}.pm"));
        fs::remove_file(&path).unwrap();
        fs::create_dir(&path).unwrap();
        assert!(matches!(p.free(id), Err(PmError::Io(_))));
        assert_eq!(p.used(), 0);
        assert!(p.get(id).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_skips_a_directory_named_like_a_region() {
        let dir = std::env::temp_dir().join(format!("pmblade-pm-dir-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cost = CostModel::default();
        let (id_a, id_b);
        {
            let p = PmPool::with_backing(4096, cost, &dir, None).unwrap();
            let mut tl = Timeline::new();
            id_a = p.publish(b"alpha".to_vec(), &mut tl).unwrap().id();
            id_b = p.publish(b"beta".to_vec(), &mut tl).unwrap().id();
        }
        // Where a freed region could not be unlinked: a directory.
        let stuck = id_b + 5;
        fs::create_dir(dir.join(format!("region-{stuck}.pm"))).unwrap();
        let p2 = PmPool::with_backing(4096, cost, &dir, None).unwrap();
        assert_eq!(p2.region_ids(), vec![id_a, id_b]);
        assert_eq!(p2.get(id_b).unwrap().bytes(), b"beta");
        assert_eq!(p2.used(), 9);
        // The directory's id stays taken: the next publish lands past it.
        let next = p2.publish(b"gamma".to_vec(), &mut Timeline::new()).unwrap();
        assert_eq!(next.id(), stuck + 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_detects_corruption() {
        let dir = std::env::temp_dir().join(format!("pmblade-pm-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cost = CostModel::default();
        {
            let p = PmPool::with_backing(4096, cost, &dir, None).unwrap();
            let mut tl = Timeline::new();
            p.publish(b"payload".to_vec(), &mut tl).unwrap();
        }
        // Flip a payload byte in the backing file.
        let file = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let mut raw = fs::read(&file).unwrap();
        raw[0] ^= 0xff;
        fs::write(&file, raw).unwrap();
        let err = PmPool::with_backing(4096, cost, &dir, None).unwrap_err();
        assert!(matches!(err, PmError::Corrupt(_)), "got {err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_injected_publish_leaves_only_tmp_debris() {
        let dir = std::env::temp_dir().join(format!("pmblade-pm-fault-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cost = CostModel::default();
        let plan = FaultPlan::armed(1, true, 42);
        {
            let p = PmPool::with_backing(4096, cost, &dir, Some(Arc::clone(&plan))).unwrap();
            let mut tl = Timeline::new();
            p.publish(b"survivor".to_vec(), &mut tl).unwrap();
            let err = p
                .publish(b"this publish dies mid-frame".to_vec(), &mut tl)
                .unwrap_err();
            assert!(matches!(err, PmError::Io(_)), "got {err}");
            assert!(plan.tripped());
            assert_eq!(p.region_ids().len(), 1, "dead publish must not register");
        }
        plan.disarm();
        let p2 = PmPool::with_backing(4096, cost, &dir, None).unwrap();
        assert_eq!(p2.region_ids().len(), 1);
        assert_eq!(p2.get(p2.region_ids()[0]).unwrap().bytes(), b"survivor");
        // Recovery swept the torn tmp file.
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                !name.to_string_lossy().ends_with(".tmp"),
                "tmp debris survived recovery: {name:?}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
