//! Simulated SSD device.
//!
//! Stands in for the 1 TB NVMe SSD in the paper's testbed. The device
//! stores named immutable objects (SSTables, manifests). All accesses are
//! metered against a [`sim::CostModel`]:
//!
//! - writes pay `write_base + per_byte` per buffered flush plus an fsync
//!   (`persist`) on `finish()`;
//! - random block reads pay `read_base + per_byte`, reads adjacent to
//!   the one before (a compaction's input) `per_byte` alone;
//! - byte counters feed the write-amplification experiments (Figs 8/11).

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;
use sim::fault::{self, FaultPlan};
use sim::{CostModel, Counter, SimDuration, Timeline};

/// Shared SSD statistics.
#[derive(Default, Debug)]
pub struct SsdStats {
    /// Bytes written (the SSD side of write amplification).
    pub bytes_written: Counter,
    /// Bytes read.
    pub bytes_read: Counter,
    /// Random read operations.
    pub reads: Counter,
    /// Write (flush) operations.
    pub writes: Counter,
    /// fsync barriers.
    pub syncs: Counter,
}

/// Errors from device operations.
#[derive(Debug, PartialEq, Eq)]
pub enum SsdError {
    /// No object with that name.
    NotFound(String),
    /// Read past the end of an object.
    OutOfBounds {
        name: String,
        offset: u64,
        len: usize,
        size: u64,
    },
    /// An object with that name already exists.
    AlreadyExists(String),
    /// Backing-file I/O failed (carries the rendered error so the enum
    /// stays `Eq`-comparable).
    Io(String),
}

impl std::fmt::Display for SsdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SsdError::NotFound(n) => write!(f, "ssd object not found: {n}"),
            SsdError::OutOfBounds {
                name,
                offset,
                len,
                size,
            } => write!(
                f,
                "ssd read out of bounds: {name} offset {offset} len {len} size {size}"
            ),
            SsdError::AlreadyExists(n) => {
                write!(f, "ssd object already exists: {n}")
            }
            SsdError::Io(msg) => write!(f, "ssd backing io: {msg}"),
        }
    }
}

impl std::error::Error for SsdError {}

/// The simulated SSD: a namespace of immutable objects.
pub struct SsdDevice {
    cost: CostModel,
    stats: Arc<SsdStats>,
    objects: Mutex<BTreeMap<String, Arc<Vec<u8>>>>,
    backing: Option<PathBuf>,
    fault: Option<Arc<FaultPlan>>,
}

impl SsdDevice {
    pub fn new(cost: CostModel) -> Arc<Self> {
        Arc::new(SsdDevice {
            cost,
            stats: Arc::new(SsdStats::default()),
            objects: Mutex::new(BTreeMap::new()),
            backing: None,
            fault: None,
        })
    }

    /// Device persisted under `dir`: `finish()` writes each object to a
    /// file via tmp + atomic rename, `delete()` unlinks it, and opening
    /// the device recovers every completed object. Durable writes
    /// consult an optional crash-injection plan.
    pub fn with_backing(
        cost: CostModel,
        dir: impl Into<PathBuf>,
        fault: Option<Arc<FaultPlan>>,
    ) -> Result<Arc<Self>, SsdError> {
        let dir = dir.into();
        let io_err = |e: std::io::Error| SsdError::Io(e.to_string());
        fs::create_dir_all(&dir).map_err(io_err)?;
        // Un-renamed debris from a crashed finish(): no object there
        // was ever acknowledged.
        fault::sweep_tmp(&dir).map_err(io_err)?;
        let mut objects = BTreeMap::new();
        for entry in fs::read_dir(&dir).map_err(io_err)? {
            let entry = entry.map_err(io_err)?;
            // The device writes only regular files; anything else (a
            // directory where a retired object failed to unlink) holds
            // no object.
            if !entry.file_type().map_err(io_err)?.is_file() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            let data = fs::read(entry.path()).map_err(io_err)?;
            objects.insert(name, Arc::new(data));
        }
        Ok(Arc::new(SsdDevice {
            cost,
            stats: Arc::new(SsdStats::default()),
            objects: Mutex::new(objects),
            backing: Some(dir),
            fault,
        }))
    }

    pub fn stats(&self) -> &SsdStats {
        &self.stats
    }

    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Begin writing a new object. The writer buffers in DRAM and meters
    /// device costs per [`SsdWriter::flush`].
    pub fn create(self: &Arc<Self>, name: impl Into<String>) -> Result<SsdWriter, SsdError> {
        let name = name.into();
        let objects = self.objects.lock();
        if objects.contains_key(&name) {
            return Err(SsdError::AlreadyExists(name));
        }
        drop(objects);
        Ok(SsdWriter {
            device: Arc::clone(self),
            name,
            buffer: Vec::new(),
            data: Vec::new(),
            write_time: SimDuration::ZERO,
        })
    }

    /// Open an object for reads.
    pub fn open(self: &Arc<Self>, name: &str) -> Result<SsdFile, SsdError> {
        let objects = self.objects.lock();
        let data = objects
            .get(name)
            .cloned()
            .ok_or_else(|| SsdError::NotFound(name.to_string()))?;
        Ok(SsdFile {
            device: Arc::clone(self),
            name: name.to_string(),
            data,
        })
    }

    /// Delete an object (obsolete SSTable after compaction). The device
    /// forgets it either way; a backing file that could not be removed
    /// is reported as [`SsdError::Io`].
    pub fn delete(&self, name: &str) -> Result<(), SsdError> {
        self.objects
            .lock()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| SsdError::NotFound(name.to_string()))?;
        match &self.backing {
            Some(dir) => fs::remove_file(dir.join(name)).map_err(|e| SsdError::Io(e.to_string())),
            None => Ok(()),
        }
    }

    /// List object names, ascending.
    pub fn list(&self) -> Vec<String> {
        self.objects.lock().keys().cloned().collect()
    }

    /// Total bytes currently stored.
    pub fn used(&self) -> u64 {
        self.objects.lock().values().map(|v| v.len() as u64).sum()
    }

    pub fn exists(&self, name: &str) -> bool {
        self.objects.lock().contains_key(name)
    }
}

impl std::fmt::Debug for SsdDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsdDevice")
            .field("objects", &self.objects.lock().len())
            .field("used", &self.used())
            .finish()
    }
}

/// Buffered writer for one object.
pub struct SsdWriter {
    device: Arc<SsdDevice>,
    name: String,
    buffer: Vec<u8>,
    data: Vec<u8>,
    write_time: SimDuration,
}

impl SsdWriter {
    /// Append bytes to the write buffer (DRAM; free until flushed).
    pub fn append(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
    }

    /// Bytes staged but not yet flushed.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Current object offset (flushed + buffered).
    pub fn offset(&self) -> u64 {
        (self.data.len() + self.buffer.len()) as u64
    }

    /// Flush the buffer to the device, charging one write op.
    pub fn flush(&mut self, tl: &mut Timeline) {
        if self.buffer.is_empty() {
            return;
        }
        let len = self.buffer.len();
        self.device.stats.bytes_written.add(len as u64);
        self.device.stats.writes.incr();
        let cost = self.device.cost.ssd.write(len);
        self.write_time += cost;
        tl.charge(cost);
        self.data.append(&mut self.buffer);
    }

    /// Flush, fsync, and publish the object. Returns its final size.
    pub fn finish(mut self, tl: &mut Timeline) -> Result<u64, SsdError> {
        self.flush(tl);
        self.device.stats.syncs.incr();
        tl.charge(self.device.cost.ssd.persist);
        let size = self.data.len() as u64;
        if let Some(dir) = &self.device.backing {
            // A crash mid-write leaves `.tmp` debris; an object file
            // that exists is complete.
            fault::publish(&self.device.fault, &dir.join(&self.name), &[&self.data])
                .map_err(|e| SsdError::Io(format!("finish of {}: {e}", self.name)))?;
        }
        let mut objects = self.device.objects.lock();
        if objects.contains_key(&self.name) {
            return Err(SsdError::AlreadyExists(self.name));
        }
        objects.insert(self.name, Arc::new(std::mem::take(&mut self.data)));
        Ok(size)
    }

    /// Device time charged by this writer's flushes so far.
    pub fn write_time(&self) -> SimDuration {
        self.write_time
    }
}

/// Read handle over one object.
#[derive(Clone)]
pub struct SsdFile {
    device: Arc<SsdDevice>,
    name: String,
    data: Arc<Vec<u8>>,
}

impl SsdFile {
    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn size(&self) -> u64 {
        self.data.len() as u64
    }

    /// Random block read: charges a full device access.
    pub fn read(&self, offset: u64, len: usize, tl: &mut Timeline) -> Result<&[u8], SsdError> {
        let end = offset + len as u64;
        if end > self.size() {
            return Err(SsdError::OutOfBounds {
                name: self.name.clone(),
                offset,
                len,
                size: self.size(),
            });
        }
        self.device.stats.bytes_read.add(len as u64);
        self.device.stats.reads.incr();
        tl.charge(self.device.cost.ssd.random_read(len));
        Ok(&self.data[offset as usize..end as usize])
    }

    /// Sequential read adjacent to a previous one: skips the seek base.
    /// A compaction reads each block of an input table after the first
    /// this way (`sstable::SsTable::sequential_cursor`).
    pub fn read_sequential(
        &self,
        offset: u64,
        len: usize,
        tl: &mut Timeline,
    ) -> Result<&[u8], SsdError> {
        let end = offset + len as u64;
        if end > self.size() {
            return Err(SsdError::OutOfBounds {
                name: self.name.clone(),
                offset,
                len,
                size: self.size(),
            });
        }
        self.device.stats.bytes_read.add(len as u64);
        tl.charge(self.device.cost.ssd.sequential_read(len));
        Ok(&self.data[offset as usize..end as usize])
    }
}

impl std::fmt::Debug for SsdFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsdFile")
            .field("name", &self.name)
            .field("size", &self.size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Arc<SsdDevice> {
        SsdDevice::new(CostModel::default())
    }

    #[test]
    fn write_read_roundtrip() {
        let d = device();
        let mut tl = Timeline::new();
        let mut w = d.create("t1.sst").unwrap();
        w.append(b"hello ");
        w.append(b"ssd");
        let size = w.finish(&mut tl).unwrap();
        assert_eq!(size, 9);
        let f = d.open("t1.sst").unwrap();
        assert_eq!(f.read(0, 9, &mut tl).unwrap(), b"hello ssd");
        assert_eq!(f.read(6, 3, &mut tl).unwrap(), b"ssd");
    }

    #[test]
    fn buffered_writes_meter_once_per_flush() {
        let d = device();
        let mut tl = Timeline::new();
        let mut w = d.create("x").unwrap();
        w.append(&[0; 100]);
        w.append(&[0; 100]);
        assert_eq!(w.buffered(), 200);
        assert_eq!(d.stats().writes.get(), 0, "nothing flushed yet");
        w.flush(&mut tl);
        assert_eq!(d.stats().writes.get(), 1);
        assert_eq!(d.stats().bytes_written.get(), 200);
        w.flush(&mut tl); // empty flush is a no-op
        assert_eq!(d.stats().writes.get(), 1);
        w.finish(&mut tl).unwrap();
        assert_eq!(d.stats().syncs.get(), 1);
    }

    #[test]
    fn duplicate_create_rejected() {
        let d = device();
        let mut tl = Timeline::new();
        d.create("dup").unwrap().finish(&mut tl).unwrap();
        match d.create("dup") {
            Err(e) => assert_eq!(e, SsdError::AlreadyExists("dup".into())),
            Ok(_) => panic!("duplicate create must fail"),
        }
    }

    #[test]
    fn read_out_of_bounds_rejected() {
        let d = device();
        let mut tl = Timeline::new();
        let mut w = d.create("small").unwrap();
        w.append(&[1, 2, 3]);
        w.finish(&mut tl).unwrap();
        let f = d.open("small").unwrap();
        assert!(matches!(
            f.read(2, 5, &mut tl),
            Err(SsdError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn delete_and_open_semantics() {
        let d = device();
        let mut tl = Timeline::new();
        let mut w = d.create("gone").unwrap();
        w.append(b"x");
        w.finish(&mut tl).unwrap();
        let held = d.open("gone").unwrap();
        d.delete("gone").unwrap();
        assert_eq!(d.delete("gone"), Err(SsdError::NotFound("gone".into())));
        assert!(d.open("gone").is_err());
        // Held handles keep reading (like an open fd after unlink).
        assert_eq!(held.read(0, 1, &mut tl).unwrap(), b"x");
        assert_eq!(d.used(), 0);
    }

    #[test]
    fn sequential_cheaper_than_random() {
        let d = device();
        let mut tl = Timeline::new();
        let mut w = d.create("f").unwrap();
        w.append(&vec![0u8; 8192]);
        w.finish(&mut tl).unwrap();
        let f = d.open("f").unwrap();
        let mut t_rand = Timeline::new();
        let mut t_seq = Timeline::new();
        f.read(0, 4096, &mut t_rand).unwrap();
        f.read_sequential(4096, 4096, &mut t_seq).unwrap();
        assert!(t_seq.elapsed() < t_rand.elapsed());
    }

    #[test]
    fn list_orders_names() {
        let d = device();
        let mut tl = Timeline::new();
        for name in ["b", "a", "c"] {
            d.create(name).unwrap().finish(&mut tl).unwrap();
        }
        assert_eq!(d.list(), vec!["a", "b", "c"]);
        assert!(d.exists("b"));
    }

    #[test]
    fn backed_device_recovers_objects_and_forgets_deleted() {
        let dir = std::env::temp_dir().join(format!("pmblade-ssd-back-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cost = CostModel::default();
        {
            let d = SsdDevice::with_backing(cost, &dir, None).unwrap();
            let mut tl = Timeline::new();
            let mut w = d.create("keep.sst").unwrap();
            w.append(b"payload");
            w.finish(&mut tl).unwrap();
            let mut w = d.create("drop.sst").unwrap();
            w.append(b"x");
            w.finish(&mut tl).unwrap();
            d.delete("drop.sst").unwrap();
        }
        let d2 = SsdDevice::with_backing(cost, &dir, None).unwrap();
        assert_eq!(d2.list(), vec!["keep.sst"]);
        let mut tl = Timeline::new();
        let f = d2.open("keep.sst").unwrap();
        assert_eq!(f.read(0, 7, &mut tl).unwrap(), b"payload");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_skips_a_directory_named_like_an_object() {
        let dir = std::env::temp_dir().join(format!("pmblade-ssd-dir-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cost = CostModel::default();
        {
            let d = SsdDevice::with_backing(cost, &dir, None).unwrap();
            let mut tl = Timeline::new();
            for name in ["a.sst", "b.sst"] {
                let mut w = d.create(name).unwrap();
                w.append(name.as_bytes());
                w.finish(&mut tl).unwrap();
            }
        }
        // Where a retired object could not be unlinked: a directory.
        fs::create_dir(dir.join("000009.sst")).unwrap();
        let d2 = SsdDevice::with_backing(cost, &dir, None).unwrap();
        assert_eq!(d2.list(), vec!["a.sst", "b.sst"]);
        let mut tl = Timeline::new();
        let f = d2.open("b.sst").unwrap();
        assert_eq!(f.read(0, 5, &mut tl).unwrap(), b"b.sst");
        assert!(d2.open("000009.sst").is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_injected_finish_leaves_no_object() {
        let dir = std::env::temp_dir().join(format!("pmblade-ssd-fault-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cost = CostModel::default();
        let plan = FaultPlan::armed(0, true, 9);
        {
            let d = SsdDevice::with_backing(cost, &dir, Some(Arc::clone(&plan))).unwrap();
            let mut tl = Timeline::new();
            let mut w = d.create("dead.sst").unwrap();
            w.append(b"this object never completes");
            let err = w.finish(&mut tl).unwrap_err();
            assert!(matches!(err, SsdError::Io(_)), "got {err}");
            assert!(plan.tripped());
            assert!(!d.exists("dead.sst"));
        }
        plan.disarm();
        let d2 = SsdDevice::with_backing(cost, &dir, None).unwrap();
        assert!(d2.list().is_empty(), "torn tmp must not recover");
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                !name.to_string_lossy().ends_with(".tmp"),
                "tmp debris survived recovery: {name:?}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ssd_read_slower_than_pm_would_be() {
        // Anchor: one 4K SSD block read must dwarf a PM random read,
        // the central premise of the paper.
        let cost = CostModel::default();
        assert!(cost.ssd.random_read(4096).as_nanos() > 10 * cost.pm.random_read(256).as_nanos());
    }
}
