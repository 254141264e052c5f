//! Executes workload streams against the engine, collecting the metrics
//! the paper's evaluation reports: per-class latency distributions and
//! virtual-time throughput.

use pm_blade::{Db, DbError, ScanRequest};
use sim::{Histogram, SimDuration};

use crate::meituan::OrderOp;
use crate::relational::Relational;
use crate::ycsb::YcsbOp;

/// Metrics from one driven phase.
#[derive(Default, Debug)]
pub struct RunMetrics {
    pub reads: Histogram,
    pub writes: Histogram,
    pub scans: Histogram,
    /// Total virtual time spent by foreground operations.
    pub elapsed: SimDuration,
    pub operations: u64,
}

impl RunMetrics {
    /// Operations per virtual second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.operations as f64 / secs
        }
    }

    fn note(&mut self, hist: Which, latency: SimDuration) {
        match hist {
            Which::Read => self.reads.record_duration(latency),
            Which::Write => self.writes.record_duration(latency),
            Which::Scan => self.scans.record_duration(latency),
        }
        self.elapsed += latency;
        self.operations += 1;
    }
}

enum Which {
    Read,
    Write,
    Scan,
}

/// Run a batch of YCSB operations.
pub fn run_ycsb(db: &Db, ops: &[YcsbOp]) -> Result<RunMetrics, DbError> {
    let mut m = RunMetrics::default();
    for op in ops {
        match op {
            YcsbOp::Insert { key, value } | YcsbOp::Update { key, value } => {
                let d = db.put(key, value)?;
                m.note(Which::Write, d);
            }
            YcsbOp::Read { key } => {
                let out = db.get(key)?;
                m.note(Which::Read, out.latency);
            }
            YcsbOp::Scan { start, limit } => {
                let (_, d) = db.scan(ScanRequest::new().start(start.clone()).limit(*limit))?;
                m.note(Which::Scan, d);
            }
            YcsbOp::Rmw { key, value } => {
                let out = db.get(key)?;
                let d = db.put(key, value)?;
                m.note(Which::Write, out.latency + d);
            }
        }
    }
    Ok(m)
}

/// Run a batch of Meituan order operations against the relational layer.
pub fn run_meituan(rel: &Relational, ops: &[OrderOp]) -> Result<RunMetrics, DbError> {
    let mut m = RunMetrics::default();
    for op in ops {
        match op {
            OrderOp::NewOrder { rows } => {
                let mut total = SimDuration::ZERO;
                for (table, row) in rows {
                    total += rel.insert_row(*table, row)?;
                }
                m.note(Which::Write, total);
            }
            OrderOp::StatusUpdate {
                table,
                pk,
                col,
                value,
            } => {
                let d = rel.update_column(*table, pk, *col, value)?;
                m.note(Which::Write, d);
            }
            OrderOp::IndexQuery {
                table,
                col,
                value,
                limit,
            } => {
                let (_, d) = rel.index_query(*table, *col, value, *limit)?;
                m.note(Which::Read, d);
            }
            OrderOp::PointRead { table, pk } => {
                let (_, d) = rel.get_row(*table, pk)?;
                m.note(Which::Read, d);
            }
            OrderOp::RecentScan {
                table,
                start_pk,
                limit,
            } => {
                let (_, d) = rel.scan_rows(*table, start_pk, *limit)?;
                m.note(Which::Scan, d);
            }
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meituan::MeituanWorkload;
    use crate::ycsb::{YcsbKind, YcsbWorkload};
    use pm_blade::{Mode, Options};

    fn small_db(mode: Mode) -> Db {
        Db::open(Options {
            mode,
            pm_capacity: 8 << 20,
            memtable_bytes: 16 << 10,
            tau_m: 6 << 20,
            tau_t: 3 << 20,
            ..Options::default()
        })
        .unwrap()
    }

    #[test]
    fn ycsb_driver_covers_all_op_kinds() {
        let db = small_db(Mode::PmBlade);
        let mut w = YcsbWorkload::new(YcsbKind::E, 300, 64, 5);
        run_ycsb(&db, &w.load_ops()).unwrap();
        let m = run_ycsb(&db, &w.ops(200)).unwrap();
        assert!(m.scans.count() > 0, "workload E is scan-heavy");
        assert!(m.throughput() > 0.0);
        let mut f = YcsbWorkload::new(YcsbKind::F, 300, 64, 6);
        f.assume_loaded();
        let m = run_ycsb(&db, &f.ops(100)).unwrap();
        assert!(m.writes.count() > 0, "RMW counts as a write");
    }

    #[test]
    fn meituan_driver_runs_lifecycle() {
        let db = small_db(Mode::PmBlade);
        let rel = Relational::new(db, MeituanWorkload::schema());
        let mut w = MeituanWorkload::new(400, 0.5, 9);
        let m = run_meituan(&rel, &w.ops(300)).unwrap();
        assert_eq!(m.operations, 300);
        assert!(m.reads.count() > 0);
        assert!(m.writes.count() > 0);
        assert!(w.orders_created() > 0);
    }
}
