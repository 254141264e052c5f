//! What the harness learns from and about the host: a counting
//! allocator, peak RSS, a host descriptor, and the calibration kernel
//! that turns wall nanoseconds into calibration units.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts calls to and bytes requested from the system allocator, for
/// the whole process (the server thread of `serve_pipelined` included).
pub struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(calls, bytes requested)` since process start.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Peak resident set (`VmHWM`) in KiB, or 0 where `/proc` is missing.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .unwrap_or(0)
}

/// The facts a wall-clock number depends on, recorded beside it.
#[derive(Clone, Debug)]
pub struct HostInfo {
    pub nproc: usize,
    pub kernel: String,
    pub load1: f64,
    /// Filesystem type holding the WAL / manifest / backing files.
    pub work_fs: String,
}

impl HostInfo {
    pub fn probe(work_dir: &Path) -> HostInfo {
        let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: read("/proc/sys/kernel/osrelease").trim().to_string(),
            load1: read("/proc/loadavg")
                .split_whitespace()
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0.0),
            work_fs: fs_type(work_dir),
        }
    }
}

/// Filesystem type of the longest mount point that prefixes `dir`.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// Ops in one calibration slice.
pub const CALIBRATION_SLICE_OPS: u64 = 4_000;
const CALIBRATION_WARM_OPS: u64 = 400_000;
const CALIBRATION_DOMAIN: u64 = 200_000;

/// The calibration kernel. FROZEN: one calibration unit (cu) is the
/// mean time of one of its ops, and every `*_cu*` metric is a multiple
/// of it, so any edit here is a re-baseline of the whole benchmark.
///
/// One op formats a `user{id:010}` key over a 200 000-id domain and
/// alternately inserts a 100 B value into, or looks the key up in, a
/// `BTreeMap<Vec<u8>, Vec<u8>>`: allocation, copying, comparing and
/// pointer chasing in roughly the engine's own mix, so co-tenant noise
/// and frequency changes scale it the way they scale the engine.
pub struct Calibration {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    state: u64,
    op: u64,
    found: u64,
    pub total_ns: u64,
    pub total_ops: u64,
}

impl Calibration {
    pub fn new() -> Calibration {
        let mut c = Calibration {
            map: BTreeMap::new(),
            state: 0x9e37_79b9_7f4a_7c15,
            op: 0,
            found: 0,
            total_ns: 0,
            total_ops: 0,
        };
        c.run(CALIBRATION_WARM_OPS);
        c
    }

    fn run(&mut self, ops: u64) {
        for _ in 0..ops {
            // Fixed LCG (Knuth's MMIX constants): the id stream never
            // depends on `--seed`.
            self.state = self
                .state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let id = (self.state >> 33) % CALIBRATION_DOMAIN;
            let key = format!("user{id:010}").into_bytes();
            if self.op & 1 == 0 {
                self.map.insert(key, vec![self.op as u8; 100]);
            } else if self.map.contains_key(&key) {
                self.found += 1;
            }
            self.op += 1;
        }
        std::hint::black_box(self.found);
    }

    /// Run one timed slice and add it to the run's totals.
    pub fn slice(&mut self) -> u64 {
        let start = Instant::now();
        self.run(CALIBRATION_SLICE_OPS);
        let ns = start.elapsed().as_nanos() as u64;
        self.total_ns += ns;
        self.total_ops += CALIBRATION_SLICE_OPS;
        ns
    }

    /// Nanoseconds per calibration unit over every slice so far.
    pub fn cu_ns(&self) -> f64 {
        self.total_ns as f64 / self.total_ops.max(1) as f64
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::new()
    }
}
