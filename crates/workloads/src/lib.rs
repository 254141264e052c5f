//! Workload generators for the PM-Blade evaluation.
//!
//! - [`ycsb`]: the seven standard YCSB workloads (Load + A–F);
//! - [`meituan`]: the order-lifecycle workload modeled on §VI-D — ten
//!   tables, ~ten columns, three secondary indexes per table, hot
//!   updates on recent orders, warm index queries, cold history;
//! - [`relational`]: the record/index-table layer the Meituan workload
//!   runs against.

pub mod driver;
pub mod meituan;
pub mod relational;
pub mod ycsb;

pub use driver::{run_meituan, run_ycsb, RunMetrics};
pub use meituan::{MeituanWorkload, OrderOp};
pub use relational::{Relational, TableDef};
pub use ycsb::{YcsbKind, YcsbOp, YcsbWorkload};
