//! Coroutine-based compaction scheduling (§V of the paper).
//!
//! Major compaction alternates three stages: **S1** read a block from the
//! input tables (I/O), **S2** merge-sort it (CPU), **S3** write the filled
//! output buffer (I/O). In practice S2 is *fragmented*: duplicate discards
//! make the write buffer fill at unpredictable points, so S3 cuts S2 into
//! erratic clips, and naively parallelized tasks end up blocked on I/O
//! together while the CPU idles.
//!
//! This crate runs compaction task *traces* (stage sequences synthesised
//! by [`trace`] from a few parameters; the engine's own compactions are
//! not replayed here) under three scheduling policies on a deterministic
//! virtual clock:
//!
//! - [`Policy::OsThreads`] — one thread per task, preemptive slicing with
//!   context-switch overhead, every stage blocks its thread;
//! - [`Policy::NaiveCoroutine`] — cooperative switching (cheap), but S3
//!   still blocks the issuing coroutine;
//! - [`Policy::PmBlade`] — a dedicated **flush coroutine** owns every S3;
//!   compaction coroutines hand off filled buffers and continue, and the
//!   flush coroutine only issues writes while the I/O pressure gate
//!   `q_flush = max(q − q_comp − q_cli, 0)` is open.
//!
//! The scheduler reports compaction duration, CPU/I-O utilization and I/O
//! latency — the four panels of the paper's Fig 9 and the rows of
//! Table III. Its two resources, pinned CPU cores and an SSD whose
//! latency rises with queue depth, are a private module: nothing else
//! in the workspace simulates a device queue.

mod resource;
pub mod scheduler;
pub mod trace;

pub use scheduler::{Policy, RunReport, Scheduler, SchedulerConfig};
pub use trace::{CompactionTask, Stage, StageKind, TraceParams};
