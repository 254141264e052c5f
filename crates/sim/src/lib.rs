//! Simulation substrate for the PM-Blade reproduction.
//!
//! Every experiment in the paper is a function of *device timing* (PM vs
//! DRAM vs SSD latencies, I/O queueing) rather than wall-clock speed of the
//! host machine. This crate provides the pieces that let the rest of the
//! workspace run real data-structure code while charging costs to a
//! **virtual clock**:
//!
//! - [`SimDuration`] / [`Timeline`]: virtual nanoseconds and per-operation
//!   time accumulation.
//! - [`cost`]: calibrated cost models for DRAM, persistent memory and SSD.
//! - [`rng`]: deterministic PCG random generator plus Zipfian/uniform key
//!   distributions (reimplemented so results never drift with `rand`
//!   versions).
//! - [`stats`]: streaming histograms with percentile queries, counters.
//! - [`resource`]: discrete-event resources (CPU cores, an I/O device with
//!   queue-depth-dependent latency) used by the coroutine scheduler.
//! - [`fault`]: the two durable-write shapes (an append-only log file, a
//!   whole-file publish) and the crash-injection plans they consult, for
//!   recovery testing.

pub mod cost;
pub mod fault;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use cost::{CostModel, CpuCost, DeviceClass, DeviceCost};
pub use fault::FaultPlan;
pub use rng::{KeyDistribution, Pcg64, Zipfian};
pub use stats::{Counter, Histogram};
pub use time::{SimDuration, SimInstant, Timeline};
