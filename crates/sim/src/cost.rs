//! Calibrated device cost models.
//!
//! The model charges each device access a latency of the form
//! `base + per_byte * bytes`, with separate read and write terms, plus a
//! random-access penalty for reads that jump to a fresh location (cacheline
//! or SSD page granularity). The default constants are calibrated so the
//! paper's Table I microbenchmark reproduces: a binary search over 1 M
//! entries on PM costs ≈3.3 µs, on a cached SSTable ≈2.6 µs, and on an SSD
//! SSTable ≈22 µs.

use crate::time::SimDuration;

/// Which simulated device a cost belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DeviceClass {
    /// DRAM (memtable, caches).
    Dram,
    /// Persistent memory (level-0).
    Pm,
    /// Flash SSD (level-1 and below).
    Ssd,
}

impl DeviceClass {
    pub fn name(self) -> &'static str {
        match self {
            DeviceClass::Dram => "dram",
            DeviceClass::Pm => "pm",
            DeviceClass::Ssd => "ssd",
        }
    }
}

/// Latency parameters for one device.
#[derive(Clone, Copy, Debug)]
pub struct DeviceCost {
    /// Fixed cost of a random read access (cache miss / page fetch).
    pub read_base: SimDuration,
    /// Additional cost per byte sequentially read after the base access.
    pub read_per_byte: SimDuration,
    /// Fixed cost of initiating a write.
    pub write_base: SimDuration,
    /// Additional cost per byte written (inverse bandwidth).
    pub write_per_byte: SimDuration,
    /// Cost of a persist barrier (clwb + sfence on PM, fsync on SSD).
    pub persist: SimDuration,
    /// Access granularity in bytes: reads within the same aligned unit as
    /// the previous access by the same operation do not pay `read_base`
    /// again.
    pub granularity: u32,
}

impl DeviceCost {
    /// Cost of one random read of `bytes` starting a new access unit.
    #[inline]
    pub fn random_read(&self, bytes: usize) -> SimDuration {
        self.read_base + per_byte(self.read_per_byte, bytes)
    }

    /// Cost of reading `bytes` sequentially, adjacent to a previous access.
    #[inline]
    pub fn sequential_read(&self, bytes: usize) -> SimDuration {
        per_byte(self.read_per_byte, bytes)
    }

    /// Cost of writing `bytes`.
    #[inline]
    pub fn write(&self, bytes: usize) -> SimDuration {
        self.write_base + per_byte(self.write_per_byte, bytes)
    }

    /// Cost of a persistence barrier covering `bytes` of dirty data.
    #[inline]
    pub fn persist(&self, bytes: usize) -> SimDuration {
        // Flushing is dominated by the number of dirty cachelines/pages.
        let units = (bytes as u64).div_ceil(self.granularity as u64).max(1);
        self.persist * units
    }
}

#[inline]
fn per_byte(unit: SimDuration, bytes: usize) -> SimDuration {
    SimDuration::from_nanos((unit.as_nanos() as u128 * bytes as u128 / 1024) as u64)
}

/// CPU work costs, charged to timelines for compute-bound table work.
#[derive(Clone, Copy, Debug)]
pub struct CpuCost {
    /// Table/record encode work, per KiB processed.
    pub encode_per_kib: SimDuration,
    /// One key comparison in a search or merge.
    pub key_compare: SimDuration,
    /// Heap/merge bookkeeping per record during compaction sorting.
    pub merge_per_entry: SimDuration,
}

impl CpuCost {
    /// Cost of encoding `bytes` of records.
    #[inline]
    pub fn encode(&self, bytes: usize) -> SimDuration {
        per_byte(self.encode_per_kib, bytes)
    }
}

impl Default for CpuCost {
    fn default() -> Self {
        CpuCost {
            encode_per_kib: SimDuration::from_nanos(220),
            key_compare: SimDuration::from_nanos(8),
            merge_per_entry: SimDuration::from_nanos(45),
        }
    }
}

/// The full machine model: one cost entry per device class.
///
/// `read_per_byte`/`write_per_byte` are expressed per **KiB** to keep the
/// constants readable.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    pub dram: DeviceCost,
    pub pm: DeviceCost,
    pub ssd: DeviceCost,
    pub cpu: CpuCost,
}

impl CostModel {
    #[inline]
    pub fn device(&self, class: DeviceClass) -> &DeviceCost {
        match class {
            DeviceClass::Dram => &self.dram,
            DeviceClass::Pm => &self.pm,
            DeviceClass::Ssd => &self.ssd,
        }
    }
}

impl Default for CostModel {
    /// Calibrated against the paper's Table I and the Optane guide
    /// (Yang et al., "An empirical guide to the behavior and use of
    /// scalable persistent memory"): PM reads ≈3–4× DRAM latency, PM write
    /// bandwidth ≈1/6 of read, SSD random read ≈80 µs at 4 KiB pages.
    fn default() -> Self {
        CostModel {
            dram: DeviceCost {
                read_base: SimDuration::from_nanos(80),
                read_per_byte: SimDuration::from_nanos(25), // ~40 GiB/s
                write_base: SimDuration::from_nanos(80),
                write_per_byte: SimDuration::from_nanos(25),
                persist: SimDuration::ZERO,
                granularity: 64,
            },
            pm: DeviceCost {
                read_base: SimDuration::from_nanos(170),
                read_per_byte: SimDuration::from_nanos(160), // ~6 GiB/s
                write_base: SimDuration::from_nanos(90),
                write_per_byte: SimDuration::from_nanos(450), // ~2 GiB/s
                persist: SimDuration::from_nanos(100),
                granularity: 256, // XPLine granularity
            },
            ssd: DeviceCost {
                read_base: SimDuration::from_micros(18),
                read_per_byte: SimDuration::from_nanos(320), // ~3 GiB/s
                write_base: SimDuration::from_micros(12),
                write_per_byte: SimDuration::from_nanos(650), // ~1.5 GiB/s
                persist: SimDuration::from_micros(20),
                granularity: 4096,
            },
            cpu: CpuCost::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_ordering_matches_hardware() {
        let m = CostModel::default();
        // PM random read slower than DRAM, far faster than SSD.
        let dram = m.dram.random_read(64);
        let pm = m.pm.random_read(64);
        let ssd = m.ssd.random_read(4096);
        assert!(dram < pm, "dram {dram} should be < pm {pm}");
        assert!(pm.as_nanos() * 10 < ssd.as_nanos(), "pm {pm} ssd {ssd}");
        // PM read latency within 2-6x of DRAM per the Optane guide.
        let ratio = pm.as_nanos() as f64 / dram.as_nanos() as f64;
        assert!((2.0..6.0).contains(&ratio), "pm/dram ratio {ratio}");
    }

    #[test]
    fn pm_write_slower_per_byte_than_read() {
        let m = CostModel::default();
        assert!(m.pm.write_per_byte > m.pm.read_per_byte);
    }

    #[test]
    fn table1_binary_search_calibration() {
        // Binary search over 1M entries touches ~20 random locations of
        // ~32B each (key + metadata). The paper reports 3.3us on PM,
        // 2.6us cached, 22.3us on SSD (one 4K block + search).
        let m = CostModel::default();
        let probes = 20u64;
        let pm: SimDuration = (0..probes).map(|_| m.pm.random_read(32)).sum();
        let dram: SimDuration = (0..probes).map(|_| m.dram.random_read(32)).sum();
        let ssd = m.ssd.random_read(4096) + (0..probes).map(|_| m.dram.random_read(32)).sum();
        let pm_us = pm.as_micros_f64();
        let dram_us = dram.as_micros_f64();
        let ssd_us = ssd.as_micros_f64();
        assert!((2.0..6.0).contains(&pm_us), "pm search {pm_us}us");
        assert!((1.0..4.0).contains(&dram_us), "cached search {dram_us}us");
        assert!((15.0..35.0).contains(&ssd_us), "ssd search {ssd_us}us");
        assert!(pm_us > dram_us && ssd_us > 4.0 * pm_us);
    }

    #[test]
    fn sequential_read_skips_base() {
        let m = CostModel::default();
        assert!(m.pm.sequential_read(64) < m.pm.random_read(64));
        assert_eq!(
            m.pm.random_read(64) - m.pm.sequential_read(64),
            m.pm.read_base
        );
    }

    #[test]
    fn persist_scales_with_dirty_units() {
        let m = CostModel::default();
        let one = m.pm.persist(1);
        let line = m.pm.persist(256);
        let two = m.pm.persist(257);
        assert_eq!(one, line, "sub-line flush rounds up to one line");
        assert_eq!(two, line * 2);
    }

    #[test]
    fn zero_byte_ops_cost_only_base() {
        let m = CostModel::default();
        assert_eq!(m.ssd.write(0), m.ssd.write_base);
        assert_eq!(m.pm.sequential_read(0), SimDuration::ZERO);
    }

    #[test]
    fn device_class_lookup() {
        let m = CostModel::default();
        assert_eq!(m.device(DeviceClass::Pm).read_base, m.pm.read_base);
        assert_eq!(DeviceClass::Ssd.name(), "ssd");
    }
}
