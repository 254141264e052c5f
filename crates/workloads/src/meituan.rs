//! The Meituan online-retail workload (§VI-D of the paper).
//!
//! Modeled on the paper's description of the production workload:
//!
//! - 10 tables of ~10 columns each, 3 secondary indexes per table on
//!   average;
//! - creating an order inserts rows into multiple tables (sequential +
//!   random writes, ~100 KB per order in the paper; scaled here);
//! - as an order progresses its status columns are updated repeatedly
//!   (hot data);
//! - finished orders are queried frequently via secondary indexes — an
//!   index scan to find row ids, then point reads (warm data);
//! - old orders go cold and are rarely touched.
//!
//! The generator drives an order through a lifecycle: `placed → paid →
//! packed → delivering → done`, with reads concentrated on recent orders
//! (a "latest" recency distribution).

use sim::Pcg64;

use crate::relational::{Row, TableDef};
use crate::KeyDistribution;

/// Logical operation against the relational layer.
#[derive(Clone, Debug)]
pub enum OrderOp {
    /// Insert `rows` (one per touched table) for a new order.
    NewOrder { rows: Vec<(u16, Row)> },
    /// Advance an order's status column on its main table.
    StatusUpdate {
        table: u16,
        pk: Vec<u8>,
        col: usize,
        value: Vec<u8>,
    },
    /// Index query: find rows by an indexed column, then point-read.
    IndexQuery {
        table: u16,
        col: usize,
        value: Vec<u8>,
        limit: usize,
    },
    /// Primary-key point read.
    PointRead { table: u16, pk: Vec<u8> },
    /// Short range scan of recent orders on one table.
    RecentScan {
        table: u16,
        start_pk: Vec<u8>,
        limit: usize,
    },
}

/// Configuration and generator state.
pub struct MeituanWorkload {
    rng: Pcg64,
    payload_rng: Pcg64,
    recency: KeyDistribution,
    /// Domain the recency distribution was built for; rebuilt when the
    /// order count outgrows it.
    recency_domain: u64,
    /// Orders created so far.
    orders: u64,
    /// Bytes of payload per order across all tables (scaled from the
    /// paper's ~100 KB).
    pub order_bytes: usize,
    /// Read fraction of the mixed phase.
    pub read_fraction: f64,
    tables: Vec<TableDef>,
}

/// Status progression of an order.
pub const STATUSES: [&str; 5] = ["placed", "paid", "packed", "delivering", "done"];

impl MeituanWorkload {
    /// Standard schema: 10 tables × 10 columns × 3 indexes.
    pub fn schema() -> Vec<TableDef> {
        (0..10u16)
            .map(|id| TableDef::new(id + 1, 10, vec![1, 2, 3]))
            .collect()
    }

    pub fn new(order_bytes: usize, read_fraction: f64, seed: u64) -> Self {
        MeituanWorkload {
            rng: Pcg64::seeded(seed),
            payload_rng: Pcg64::seeded(seed ^ 0x0e7a11),
            recency: KeyDistribution::latest(1024, 0.9),
            recency_domain: 1024,
            orders: 0,
            order_bytes,
            read_fraction,
            tables: Self::schema(),
        }
    }

    pub fn tables(&self) -> &[TableDef] {
        &self.tables
    }

    pub fn orders_created(&self) -> u64 {
        self.orders
    }

    fn order_pk(&self, order: u64) -> Vec<u8> {
        format!("o{:012}", order).into_bytes()
    }

    fn payload(&mut self, len: usize) -> Vec<u8> {
        let mut v = vec![b'.'; len];
        let half = len / 2;
        self.payload_rng.fill_bytes(&mut v[..half]);
        v
    }

    /// Create the next order: rows in 3–5 tables, the paper's mix of
    /// sequential (order table) and random (dimension tables) writes.
    pub fn new_order(&mut self) -> OrderOp {
        let order = self.orders;
        self.orders += 1;
        let pk = self.order_pk(order);
        let touched = 3 + self.rng.next_below(3) as usize;
        let per_table = (self.order_bytes / touched).max(16);
        let mut rows = Vec::with_capacity(touched);
        for t in 0..touched {
            let table = self.tables[t % self.tables.len()].clone();
            let mut row: Row = Vec::with_capacity(table.columns);
            row.push(pk.clone());
            // Indexed columns get low-cardinality values (status, user,
            // merchant); the rest carry payload.
            row.push(STATUSES[0].as_bytes().to_vec());
            row.push(format!("u{:06}", self.rng.next_below(50_000)).into_bytes());
            row.push(format!("m{:05}", self.rng.next_below(5_000)).into_bytes());
            let payload_cols = table.columns - 4;
            let per_col = (per_table / payload_cols.max(1)).max(4);
            for _ in 0..payload_cols {
                let p = self.payload(per_col);
                row.push(p);
            }
            rows.push((table.id, row));
        }
        OrderOp::NewOrder { rows }
    }

    /// Pick a recent order id (hot/warm skew).
    fn recent_order(&mut self) -> u64 {
        if self.orders == 0 {
            return 0;
        }
        if self.orders > self.recency_domain {
            // Rebuild the recency skew for the grown horizon.
            self.recency_domain = (self.recency_domain * 2).max(self.orders);
            self.recency = KeyDistribution::latest(self.recency_domain, 0.9);
        }
        self.recency.sample(&mut self.rng, self.orders)
    }

    /// One operation of the mixed phase.
    pub fn next_op(&mut self) -> OrderOp {
        if self.orders == 0 || self.rng.next_f64() >= self.read_fraction {
            // Writes: 40% new orders, 60% status updates of hot orders.
            if self.orders == 0 || self.rng.next_f64() < 0.4 {
                return self.new_order();
            }
            let order = self.recent_order();
            let stage = 1 + self.rng.next_below(4) as usize;
            return OrderOp::StatusUpdate {
                table: 1,
                pk: self.order_pk(order),
                col: 1,
                value: STATUSES[stage].as_bytes().to_vec(),
            };
        }
        // Reads: "most of the queries are index query" — 60% index
        // queries, 25% point reads, 15% short scans.
        let r = self.rng.next_f64();
        if r < 0.6 {
            let col = 1 + self.rng.next_below(3) as usize;
            let value = match col {
                1 => STATUSES[self.rng.next_below(5) as usize]
                    .as_bytes()
                    .to_vec(),
                2 => format!("u{:06}", self.rng.next_below(50_000)).into_bytes(),
                _ => format!("m{:05}", self.rng.next_below(5_000)).into_bytes(),
            };
            OrderOp::IndexQuery {
                table: 1 + (self.rng.next_below(10) as u16),
                col,
                value,
                limit: 20,
            }
        } else if r < 0.85 {
            let order = self.recent_order();
            OrderOp::PointRead {
                table: 1 + (self.rng.next_below(10) as u16),
                pk: self.order_pk(order),
            }
        } else {
            let order = self.recent_order();
            OrderOp::RecentScan {
                table: 1,
                start_pk: self.order_pk(order),
                limit: 20,
            }
        }
    }

    pub fn ops(&mut self, n: usize) -> Vec<OrderOp> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_matches_paper_shape() {
        let tables = MeituanWorkload::schema();
        assert_eq!(tables.len(), 10);
        for t in &tables {
            assert_eq!(t.columns, 10);
            assert_eq!(t.indexes.len(), 3);
        }
    }

    #[test]
    fn new_order_touches_multiple_tables() {
        let mut w = MeituanWorkload::new(1000, 0.5, 1);
        match w.new_order() {
            OrderOp::NewOrder { rows } => {
                assert!((3..=5).contains(&rows.len()));
                let bytes: usize = rows
                    .iter()
                    .flat_map(|(_, r)| r.iter())
                    .map(|c| c.len())
                    .sum();
                assert!(bytes >= 500, "order payload {bytes}");
                for (_, row) in &rows {
                    assert_eq!(row.len(), 10);
                    assert_eq!(row[1], b"placed");
                }
            }
            _ => panic!("first op is an order"),
        }
        assert_eq!(w.orders_created(), 1);
    }

    #[test]
    fn updates_target_recent_orders() {
        let mut w = MeituanWorkload::new(100, 0.0, 2);
        for _ in 0..500 {
            w.new_order();
        }
        let mut recent = 0;
        let mut total = 0;
        for _ in 0..2000 {
            if let OrderOp::StatusUpdate { pk, .. } = w.next_op() {
                let id: u64 = String::from_utf8_lossy(&pk[1..]).parse().unwrap();
                total += 1;
                if id >= w.orders_created().saturating_sub(100) {
                    recent += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            recent * 3 > total,
            "updates should skew recent: {recent}/{total}"
        );
    }

    #[test]
    fn read_mix_is_index_heavy() {
        let mut w = MeituanWorkload::new(100, 1.0, 3);
        w.new_order();
        let (mut idx, mut point, mut scan) = (0, 0, 0);
        for op in w.ops(2000) {
            match op {
                OrderOp::IndexQuery { .. } => idx += 1,
                OrderOp::PointRead { .. } => point += 1,
                OrderOp::RecentScan { .. } => scan += 1,
                _ => {}
            }
        }
        assert!(idx > point && point > scan, "{idx}/{point}/{scan}");
    }

    #[test]
    fn status_values_stay_in_lifecycle() {
        let mut w = MeituanWorkload::new(100, 0.0, 4);
        w.new_order();
        for op in w.ops(200) {
            if let OrderOp::StatusUpdate { value, col, .. } = op {
                assert_eq!(col, 1);
                assert!(STATUSES.iter().any(|s| s.as_bytes() == value.as_slice()));
            }
        }
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut w = MeituanWorkload::new(100, 0.5, 77);
            let mut sig = Vec::new();
            for op in w.ops(100) {
                sig.push(match op {
                    OrderOp::NewOrder { .. } => 0u8,
                    OrderOp::StatusUpdate { .. } => 1,
                    OrderOp::IndexQuery { .. } => 2,
                    OrderOp::PointRead { .. } => 3,
                    OrderOp::RecentScan { .. } => 4,
                });
            }
            sig
        };
        assert_eq!(run(), run());
    }
}
