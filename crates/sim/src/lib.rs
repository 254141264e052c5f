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
//! - [`rng`]: a deterministic PCG random generator (reimplemented so
//!   results never drift with `rand` versions).
//! - [`stats`]: streaming histograms with percentile queries, counters.
//! - [`fault`]: the two durable-write shapes (an append-only log file, a
//!   whole-file publish) and the crash-injection plans they consult, for
//!   recovery testing.
//!
//! Every engine crate links this one, so it holds only what the engine
//! runs. What only the paper's scaffolding runs lives with its caller:
//! the §V scheduler's CPU and I/O resources in `coroutine`, the Zipfian
//! key distributions in `workloads`, the CXL profile and the LZ
//! compression cost terms in `bench`.

pub mod cost;
pub mod fault;
pub mod rng;
pub mod stats;
pub mod time;

pub use cost::{CostModel, CpuCost, DeviceClass, DeviceCost};
pub use fault::FaultPlan;
pub use rng::Pcg64;
pub use stats::{Counter, Histogram};
pub use time::{SimDuration, SimInstant, Timeline};
