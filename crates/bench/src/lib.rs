//! Shared harness support for the table/figure reproduction binaries.
//!
//! Every binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's experiment index). This library holds the
//! common pieces: the scaled system configurations, dataset builders and
//! plain-text table printing.
//!
//! It also holds the code only a figure runs: [`compressed_array`], Fig
//! 6's two snappy-compressed array baselines, over [`szip`], the LZ codec
//! standing in for snappy.
//!
//! ## Scaling
//!
//! The paper ran 200 GB datasets against 80 GB of PM with 64 MB
//! memtables. The harness scales by ~1/1000 while preserving the
//! load-bearing ratios (data:PM = 2.5:1; PM ≫ memtable):
//!
//! | quantity | paper | here |
//! |---|---|---|
//! | dataset        | 200 GB | 20 MB |
//! | PM level-0     | 80 GB  | 8 MB  |
//! | MatrixKV PM    | 8 GB   | 0.8 MB |
//! | memtable       | 64 MB  | 32 KB |

pub mod compressed_array;
pub mod szip;

use pm_blade::{Db, Mode, Options};
use pmtable::OwnedEntry;
use sim::Pcg64;

/// Scaled dataset size standing in for the paper's 200 GB.
pub const DATA_BYTES: usize = 20 << 20;
/// Scaled PM capacity standing in for 80 GB.
pub const PM_BYTES: usize = 8 << 20;
/// Scaled MatrixKV default PM (8 GB in the paper).
pub const MATRIX_PM_BYTES: usize = PM_BYTES / 10;
/// Scaled memtable budget (64 MB in the paper).
pub const MEMTABLE_BYTES: usize = 32 << 10;

/// Options shared by all PM-hosted configurations at harness scale.
fn scaled(mode: Mode, pm: usize) -> Options {
    Options {
        mode,
        memtable_bytes: MEMTABLE_BYTES,
        tau_w: 256 << 10,
        l1_target: 512 << 10,
        max_table_bytes: 512 << 10,
        block_cache_bytes: 2 << 20,
        // Keep every span: `background_time` sums them all.
        event_log_capacity: 1 << 17,
        ..Options::pm_blade(pm)
    }
}

/// Background (flush and compaction) time: the summed duration of
/// every span in `db`'s ring. Panics if the ring evicted any — a
/// truncated sum would flatter whichever system compacts most.
pub fn background_time(db: &Db) -> sim::SimDuration {
    let snap = db.metrics_snapshot();
    assert_eq!(snap.spans_dropped, 0, "the span ring dropped spans");
    snap.spans.iter().map(|s| s.duration()).sum()
}

/// The full PM-Blade configuration.
pub fn pmblade() -> Options {
    scaled(Mode::PmBlade, PM_BYTES)
}

/// "PMBlade-PM": PM level-0, conventional whole-L0 compaction.
pub fn pmblade_pm() -> Options {
    scaled(Mode::PmBladePm, PM_BYTES)
}

/// "PMBlade-SSD" / RocksDB-like configuration.
pub fn rocksdb_like() -> Options {
    scaled(Mode::SsdLevel0, 0).pipe(|mut o| {
        o.pm_capacity = 1; // unused
        o.tau_m = 1;
        o.tau_t = 0;
        o
    })
}

/// MatrixKV at the paper's default 8 GB (scaled).
pub fn matrixkv_8() -> Options {
    scaled(Mode::MatrixKv, MATRIX_PM_BYTES)
}

/// MatrixKV at the 80 GB configuration (scaled).
pub fn matrixkv_80() -> Options {
    scaled(Mode::MatrixKv, PM_BYTES)
}

/// Small helper: method-chaining for plain values.
pub trait Pipe: Sized {
    fn pipe<T>(self, f: impl FnOnce(Self) -> T) -> T {
        f(self)
    }
}

impl<T> Pipe for T {}

/// Build sorted index-table-style entries (120-byte keys like the
/// paper's PM-table microbenchmarks).
pub fn index_entries(n: usize, value_len: usize, seed: u64) -> Vec<OwnedEntry> {
    let mut rng = Pcg64::seeded(seed);
    let mut entries: Vec<OwnedEntry> = (0..n)
        .map(|i| {
            let table = i % 8;
            // ~120-byte index keys: table id + column value + pk +
            // trailing pad, varying early so prefix search stays useful.
            let key = format!(
                "t{:04}:{:012}:{:016}:{:x>80}",
                table,
                i * 31 % 1_000_000_000,
                i,
                ""
            );
            let mut value = vec![0u8; value_len];
            let half = value_len / 2;
            rng.fill_bytes(&mut value[..half]);
            OwnedEntry::value(key.into_bytes(), i as u64 + 1, value)
        })
        .collect();
    entries.sort_by(|a, b| a.internal_cmp(b));
    entries
}

/// Range partitioner for the Meituan relational keyspace: one partition
/// per record table plus one per table's index region (§III — the paper
/// partitions the LSM tree by range so compaction load spreads).
pub fn meituan_partitioner() -> pm_blade::Partitioner {
    let mut boundaries = Vec::new();
    for t in 1..=10u16 {
        boundaries.push(format!("r{:04}:", t).into_bytes());
        boundaries.push(format!("x{:04}:", t).into_bytes());
    }
    boundaries.sort();
    pm_blade::Partitioner(boundaries)
}

/// Print a formatted results table.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells.to_vec());
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        println!("\n== {} ==", self.title);
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{:>w$}", c, w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.header));
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("--")
        );
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }
}

/// Format a virtual duration in microseconds.
pub fn us(d: sim::SimDuration) -> String {
    format!("{:.2}us", d.as_micros_f64())
}

/// Format a virtual duration in milliseconds.
pub fn ms(d: sim::SimDuration) -> String {
    format!("{:.2}ms", d.as_millis_f64())
}

/// Format a ratio as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Format bytes as MiB.
pub fn mib(bytes: u64) -> String {
    format!("{:.1}MiB", bytes as f64 / (1 << 20) as f64)
}

/// Load `total_bytes` of `value_size`-valued data into a database.
///
/// `skew < 0` writes every key exactly once in order (a sequential
/// fill); `skew >= 0` *samples* keys from a Zipfian of that skew with
/// replacement (0 = uniform), matching the paper's update-only loads
/// where even the uniform distribution produces duplicate versions.
pub fn load_data(db: &mut Db, total_bytes: usize, value_size: usize, skew: f64, seed: u64) -> u64 {
    let per_entry = value_size + 14;
    let n = (total_bytes / per_entry).max(1) as u64;
    let mut rng = Pcg64::seeded(seed);
    let dist = workloads::KeyDistribution::zipfian(n, skew.max(0.0));
    let mut value = vec![0u8; value_size];
    for i in 0..n {
        let key_idx = if skew < 0.0 {
            i
        } else {
            dist.sample(&mut rng, n)
        };
        let key = format!("user{:010}", key_idx);
        let half = value_size / 2;
        rng.fill_bytes(&mut value[..half]);
        db.put(key.as_bytes(), &value).expect("load put");
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configurations_have_expected_modes() {
        assert_eq!(pmblade().mode, Mode::PmBlade);
        assert_eq!(pmblade_pm().mode, Mode::PmBladePm);
        assert_eq!(rocksdb_like().mode, Mode::SsdLevel0);
        assert_eq!(matrixkv_8().mode, Mode::MatrixKv);
        // 8 GB vs 80 GB, scaled: a 10x capacity gap (integer division
        // makes it approximate).
        let ratio = matrixkv_80().pm_capacity / matrixkv_8().pm_capacity;
        assert_eq!(ratio, 10);
    }

    #[test]
    fn index_entries_are_sorted_and_sized() {
        let e = index_entries(100, 32, 1);
        assert_eq!(e.len(), 100);
        for w in e.windows(2) {
            assert!(w[0].internal_cmp(&w[1]) != std::cmp::Ordering::Greater);
        }
        assert!(e[0].user_key.len() >= 110, "index keys are ~120B");
    }

    #[test]
    fn table_renders_without_panicking() {
        let mut t = Table::new("test", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        t.print();
    }

    #[test]
    fn load_data_fills_engine() {
        let mut db = Db::open(Options {
            memtable_bytes: 16 << 10,
            tau_m: 3 << 20,
            ..Options::pm_blade(4 << 20)
        })
        .unwrap();
        let n = load_data(&mut db, 256 << 10, 100, 0.0, 7);
        assert!(n > 1000);
        assert!(db.stats().puts.get() == n);
    }
}
