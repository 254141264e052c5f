//! Workload generators for the PM-Blade evaluation.
//!
//! - [`ycsb`]: the seven standard YCSB workloads (Load + A–F);
//! - [`meituan`]: the order-lifecycle workload modeled on §VI-D — ten
//!   tables, ~ten columns, three secondary indexes per table, hot
//!   updates on recent orders, warm index queries, cold history;
//! - [`relational`]: the record/index-table layer the Meituan workload
//!   runs against;
//! - [`KeyDistribution`]: the uniform, Zipfian and "latest" key
//!   samplers both generators draw from, which the §VI figure binaries
//!   and the integration tests use for their own key streams.

pub mod driver;
pub mod meituan;
pub mod relational;
mod rng;
pub mod ycsb;

pub use driver::{run_meituan, run_ycsb, RunMetrics};
pub use meituan::{MeituanWorkload, OrderOp};
pub use relational::{Relational, TableDef};
pub use rng::KeyDistribution;
pub use ycsb::{YcsbKind, YcsbOp, YcsbWorkload};
