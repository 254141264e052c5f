//! The PM-Blade repo benchmark: six workloads, two clocks, host cost in
//! calibration units, and a per-layer ladder. See `README.md`.

pub mod exec;
pub mod gen;
pub mod host;
pub mod json;
pub mod ladder;
pub mod oracle;
pub mod run;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
