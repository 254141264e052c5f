//! YCSB workloads (Cooper et al., SoCC 2010).
//!
//! The seven standard mixes the paper evaluates in Fig 12:
//!
//! | kind | mix |
//! |---|---|
//! | Load | 100% insert |
//! | A | 50% read / 50% update, zipfian |
//! | B | 95% read / 5% update, zipfian |
//! | C | 100% read, zipfian |
//! | D | 95% read / 5% insert, latest |
//! | E | 95% scan / 5% insert, zipfian, scan length ≤ 100 |
//! | F | 50% read / 50% read-modify-write, zipfian |

use sim::Pcg64;

use crate::KeyDistribution;

/// Which YCSB workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum YcsbKind {
    Load,
    A,
    B,
    C,
    D,
    E,
    F,
}

impl YcsbKind {
    pub const ALL: [YcsbKind; 7] = [
        YcsbKind::Load,
        YcsbKind::A,
        YcsbKind::B,
        YcsbKind::C,
        YcsbKind::D,
        YcsbKind::E,
        YcsbKind::F,
    ];

    pub fn name(self) -> &'static str {
        match self {
            YcsbKind::Load => "Load",
            YcsbKind::A => "A",
            YcsbKind::B => "B",
            YcsbKind::C => "C",
            YcsbKind::D => "D",
            YcsbKind::E => "E",
            YcsbKind::F => "F",
        }
    }
}

/// One YCSB operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum YcsbOp {
    Insert {
        key: Vec<u8>,
        value: Vec<u8>,
    },
    Update {
        key: Vec<u8>,
        value: Vec<u8>,
    },
    Read {
        key: Vec<u8>,
    },
    Scan {
        start: Vec<u8>,
        limit: usize,
    },
    /// Read-modify-write (workload F): read then write back.
    Rmw {
        key: Vec<u8>,
        value: Vec<u8>,
    },
}

/// Workload generator.
pub struct YcsbWorkload {
    kind: YcsbKind,
    rng: Pcg64,
    value_rng: Pcg64,
    dist: KeyDistribution,
    value_size: usize,
    record_count: u64,
    inserted: u64,
    scan_rng: Pcg64,
}

impl YcsbWorkload {
    /// `record_count` keys, `value_size`-byte values, standard skew 0.99.
    pub fn new(kind: YcsbKind, record_count: u64, value_size: usize, seed: u64) -> Self {
        let dist = match kind {
            YcsbKind::D => KeyDistribution::latest(record_count, 0.99),
            _ => KeyDistribution::zipfian(record_count, 0.99),
        };
        YcsbWorkload {
            kind,
            rng: Pcg64::seeded(seed),
            value_rng: Pcg64::seeded(seed ^ 0x79c5b),
            dist,
            value_size,
            record_count,
            inserted: 0,
            scan_rng: Pcg64::seeded(seed ^ 0x5ca9),
        }
    }

    pub fn kind(&self) -> YcsbKind {
        self.kind
    }

    fn key(&self, i: u64) -> Vec<u8> {
        format!("user{:010}", i).into_bytes()
    }

    fn value(&mut self) -> Vec<u8> {
        let mut v = vec![0u8; self.value_size];
        let half = v.len() / 2;
        self.value_rng.fill_bytes(&mut v[..half]);
        v
    }

    /// The load phase: `record_count` inserts in key order.
    pub fn load_ops(&mut self) -> Vec<YcsbOp> {
        let ops = (0..self.record_count)
            .map(|i| YcsbOp::Insert {
                key: self.key(i),
                value: self.value(),
            })
            .collect();
        self.inserted = self.record_count;
        ops
    }

    /// Mark records as pre-loaded.
    pub fn assume_loaded(&mut self) {
        self.inserted = self.record_count;
    }

    /// One operation of the run phase.
    pub fn next_op(&mut self) -> YcsbOp {
        let horizon = self.inserted.max(1);
        let pick = |rng: &mut Pcg64, dist: &KeyDistribution| dist.sample(rng, horizon);
        match self.kind {
            YcsbKind::Load => {
                let i = self.inserted.min(self.record_count - 1);
                self.inserted += 1;
                YcsbOp::Insert {
                    key: self.key(i),
                    value: self.value(),
                }
            }
            YcsbKind::A => {
                if self.rng.next_f64() < 0.5 {
                    let i = pick(&mut self.rng, &self.dist);
                    YcsbOp::Read { key: self.key(i) }
                } else {
                    let i = pick(&mut self.rng, &self.dist);
                    let k = self.key(i);
                    YcsbOp::Update {
                        key: k,
                        value: self.value(),
                    }
                }
            }
            YcsbKind::B => {
                if self.rng.next_f64() < 0.95 {
                    let i = pick(&mut self.rng, &self.dist);
                    YcsbOp::Read { key: self.key(i) }
                } else {
                    let i = pick(&mut self.rng, &self.dist);
                    let k = self.key(i);
                    YcsbOp::Update {
                        key: k,
                        value: self.value(),
                    }
                }
            }
            YcsbKind::C => {
                let i = pick(&mut self.rng, &self.dist);
                YcsbOp::Read { key: self.key(i) }
            }
            YcsbKind::D => {
                if self.rng.next_f64() < 0.95 {
                    let i = pick(&mut self.rng, &self.dist);
                    YcsbOp::Read { key: self.key(i) }
                } else {
                    let i = self.inserted;
                    self.inserted += 1;
                    YcsbOp::Insert {
                        key: self.key(i),
                        value: self.value(),
                    }
                }
            }
            YcsbKind::E => {
                if self.rng.next_f64() < 0.95 {
                    let i = pick(&mut self.rng, &self.dist);
                    let start = self.key(i);
                    let limit = 1 + self.scan_rng.next_below(100) as usize;
                    YcsbOp::Scan { start, limit }
                } else {
                    let i = self.inserted;
                    self.inserted += 1;
                    YcsbOp::Insert {
                        key: self.key(i),
                        value: self.value(),
                    }
                }
            }
            YcsbKind::F => {
                if self.rng.next_f64() < 0.5 {
                    let i = pick(&mut self.rng, &self.dist);
                    YcsbOp::Read { key: self.key(i) }
                } else {
                    let i = pick(&mut self.rng, &self.dist);
                    let k = self.key(i);
                    YcsbOp::Rmw {
                        key: k,
                        value: self.value(),
                    }
                }
            }
        }
    }

    pub fn ops(&mut self, n: usize) -> Vec<YcsbOp> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(kind: YcsbKind) -> (usize, usize, usize, usize, usize) {
        let mut w = YcsbWorkload::new(kind, 10_000, 64, 42);
        w.assume_loaded();
        let ops = w.ops(5_000);
        let mut counts = (0, 0, 0, 0, 0);
        for op in ops {
            match op {
                YcsbOp::Insert { .. } => counts.0 += 1,
                YcsbOp::Update { .. } => counts.1 += 1,
                YcsbOp::Read { .. } => counts.2 += 1,
                YcsbOp::Scan { .. } => counts.3 += 1,
                YcsbOp::Rmw { .. } => counts.4 += 1,
            }
        }
        counts
    }

    #[test]
    fn workload_a_is_half_reads_half_updates() {
        let (ins, upd, read, scan, rmw) = mix(YcsbKind::A);
        assert_eq!(ins + scan + rmw, 0);
        assert!((2200..2800).contains(&read), "reads {read}");
        assert!((2200..2800).contains(&upd), "updates {upd}");
    }

    #[test]
    fn workload_b_c_read_heavy() {
        let (_, upd, read, _, _) = mix(YcsbKind::B);
        assert!(read > 4600 && upd < 400);
        let (_, _, read_c, _, _) = mix(YcsbKind::C);
        assert_eq!(read_c, 5000);
    }

    #[test]
    fn workload_d_inserts_and_reads_latest() {
        let (ins, _, read, _, _) = mix(YcsbKind::D);
        assert!(ins > 100 && ins < 500, "inserts {ins}");
        assert!(read > 4500);
        // Latest distribution: reads cluster near the insert horizon.
        let mut w = YcsbWorkload::new(YcsbKind::D, 100_000, 8, 1);
        w.assume_loaded();
        let mut near = 0;
        let mut total = 0;
        for op in w.ops(2000) {
            if let YcsbOp::Read { key } = op {
                let idx: u64 = String::from_utf8_lossy(&key[4..]).parse().unwrap();
                total += 1;
                if idx > 90_000 {
                    near += 1;
                }
            }
        }
        assert!(near * 2 > total, "latest skew: {near}/{total}");
    }

    #[test]
    fn workload_e_scans_dominate() {
        let (ins, _, _, scan, _) = mix(YcsbKind::E);
        assert!(scan > 4500, "scans {scan}");
        assert!(ins > 100);
        // Scan lengths are within [1, 100].
        let mut w = YcsbWorkload::new(YcsbKind::E, 1000, 8, 3);
        w.assume_loaded();
        for op in w.ops(500) {
            if let YcsbOp::Scan { limit, .. } = op {
                assert!((1..=100).contains(&limit));
            }
        }
    }

    #[test]
    fn workload_f_has_rmw() {
        let (_, _, read, _, rmw) = mix(YcsbKind::F);
        assert!(read > 2200 && rmw > 2200);
    }

    #[test]
    fn load_covers_domain() {
        let mut w = YcsbWorkload::new(YcsbKind::Load, 500, 16, 9);
        let ops = w.load_ops();
        assert_eq!(ops.len(), 500);
        assert!(ops.iter().all(|op| matches!(op, YcsbOp::Insert { .. })));
    }

    #[test]
    fn deterministic() {
        let mut a = YcsbWorkload::new(YcsbKind::A, 1000, 16, 7);
        let mut b = YcsbWorkload::new(YcsbKind::A, 1000, 16, 7);
        a.assume_loaded();
        b.assume_loaded();
        assert_eq!(a.ops(200), b.ops(200));
    }
}
