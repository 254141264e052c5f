//! The virtual-time scheduler executing compaction traces under the three
//! policies the paper compares.
//!
//! The scheduler is a discrete-event simulation over two resources:
//! `cores` CPU cores and one I/O device with a contention-dependent
//! latency model. It always advances the runnable entity with the
//! smallest local clock, so resource grants are chronological and results
//! are deterministic.

use std::collections::VecDeque;

use sim::{Histogram, SimDuration, SimInstant};

use crate::resource::{CpuCores, IoDevice};
use crate::trace::{CompactionTask, StageKind};

/// Scheduling policy for compaction tasks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Policy {
    /// One OS thread per task: preemptive, context-switch overhead on
    /// every burst, all stages block the thread.
    OsThreads,
    /// Cooperative coroutines: cheap switches, but S3 still blocks the
    /// issuing coroutine.
    NaiveCoroutine,
    /// The paper's design: a flush coroutine owns all S3s and a pressure
    /// gate admits writes only while `q − q_comp − q_cli > 0`.
    PmBlade,
}

/// Scheduler configuration.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    pub policy: Policy,
    /// Worker CPU cores (`c` in the paper).
    pub cores: usize,
    /// Maximum concurrent I/O requests (`q` in the paper, e.g. 8).
    pub max_io: u64,
    /// Concurrent foreground reads on the same device (`q_cli`).
    pub client_io: u64,
    /// Per-concurrent-request I/O service inflation.
    pub io_contention: f64,
    /// Context-switch cost charged per CPU burst under `OsThreads`.
    pub thread_switch: SimDuration,
    /// Cooperative switch cost per CPU burst under the coroutine policies.
    pub coroutine_switch: SimDuration,
    /// Preemption quantum under `OsThreads`: long bursts pay an extra
    /// switch per quantum.
    pub quantum: SimDuration,
    /// Scheduler wakeup latency an OS thread pays after blocking I/O
    /// before it resumes on a core (coroutines resume cooperatively).
    pub thread_wakeup: SimDuration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            policy: Policy::PmBlade,
            cores: 2,
            max_io: 4,
            client_io: 0,
            io_contention: 0.03,
            thread_switch: SimDuration::from_micros(6),
            coroutine_switch: SimDuration::from_nanos(300),
            quantum: SimDuration::from_millis(1),
            thread_wakeup: SimDuration::from_micros(18),
        }
    }
}

/// What one run produced.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Wall-clock (virtual) duration from start to the last write landing.
    pub duration: SimDuration,
    /// Fraction of core capacity used over the run.
    pub cpu_utilization: f64,
    /// Fraction of the run the I/O device was servicing requests.
    pub io_utilization: f64,
    /// Mean I/O request latency (queueing + inflated service).
    pub io_mean_latency: SimDuration,
    /// Latency distribution of individual I/O requests.
    pub io_latency: Histogram,
    /// Completion instant of each task (same order as the input).
    pub task_completions: Vec<SimInstant>,
    /// Number of I/O requests issued.
    pub io_requests: u64,
}

impl RunReport {
    pub fn cpu_idleness(&self) -> f64 {
        1.0 - self.cpu_utilization
    }

    pub fn io_idleness(&self) -> f64 {
        1.0 - self.io_utilization
    }
}

struct TaskState {
    stages: VecDeque<crate::trace::Stage>,
    now: SimInstant,
    done: bool,
}

/// A pending hand-off to the flush coroutine.
struct FlushJob {
    ready: SimInstant,
    service: SimDuration,
}

/// Executes a batch of compaction tasks to completion.
pub struct Scheduler {
    cfg: SchedulerConfig,
}

impl Scheduler {
    pub fn new(cfg: SchedulerConfig) -> Self {
        Scheduler { cfg }
    }

    /// Run `tasks` from time zero; returns the report.
    pub fn run(&self, tasks: &[CompactionTask]) -> RunReport {
        let cfg = self.cfg;
        let mut cpu = CpuCores::new(cfg.cores);
        let mut io = IoDevice::new(cfg.io_contention);
        let mut latency = Histogram::new();
        let mut states: Vec<TaskState> = tasks
            .iter()
            .map(|t| TaskState {
                stages: t.stages.iter().copied().collect(),
                now: SimInstant::ORIGIN,
                done: false,
            })
            .collect();
        let mut completions = vec![SimInstant::ORIGIN; tasks.len()];
        let mut flush_queue: VecDeque<FlushJob> = VecDeque::new();
        // A pressure gate that can never open would deadlock the flush
        // coroutine; clamp standing client pressure below the cap.
        let client_io = cfg.client_io.min(cfg.max_io.saturating_sub(1));
        let mut flush_now = SimInstant::ORIGIN;
        let mut io_requests = 0u64;
        let switch = match cfg.policy {
            Policy::OsThreads => cfg.thread_switch,
            _ => cfg.coroutine_switch,
        };

        loop {
            // Flush coroutine runs whenever it can make progress and is
            // not ahead of every compaction coroutine (chronological
            // order keeps resource grants consistent).
            let next_task = states
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.done)
                .min_by_key(|(_, s)| s.now)
                .map(|(i, s)| (i, s.now));

            let flush_ready = flush_queue.front().map(|j| j.ready.max(flush_now));

            // Decide who advances next: the earliest entity.
            let run_flush = match (flush_ready, next_task) {
                (Some(f), Some((_, t))) => f <= t,
                (Some(_), None) => true,
                (None, _) => false,
            };

            if run_flush {
                let job = flush_queue.front().expect("checked nonempty");
                let mut t = job.ready.max(flush_now);
                // Pressure gate: only issue while fewer than q requests
                // (compaction S1s + client reads) are in flight.
                loop {
                    let depth = io.depth_at(t) as u64 + client_io;
                    if depth < cfg.max_io {
                        break;
                    }
                    // Wait for the device to drain one request.
                    let wake = io.next_available(t);
                    if wake <= t {
                        // Device idle but depth counted in-flight client
                        // reads: model their hold by stepping forward.
                        t += SimDuration::from_micros(50);
                    } else {
                        t = wake;
                    }
                }
                let job = flush_queue.pop_front().expect("still nonempty");
                let rec = io.submit(t, job.service);
                latency.record_duration(rec.latency());
                io_requests += 1;
                flush_now = rec.completed;
                continue;
            }

            let Some((idx, _)) = next_task else {
                break; // all tasks done and flush queue drained
            };
            let state = &mut states[idx];
            let Some(stage) = state.stages.pop_front() else {
                state.done = true;
                completions[idx] = state.now;
                continue;
            };
            match stage.kind {
                StageKind::Sort => {
                    // Context-switch overhead; OS threads also pay a
                    // preemption penalty per quantum of burst length.
                    let mut overhead = switch;
                    if cfg.policy == Policy::OsThreads {
                        let quanta = stage.dur.as_nanos() / cfg.quantum.as_nanos().max(1);
                        overhead += cfg.thread_switch * quanta;
                    }
                    // Workers are pinned: c worker threads on c cores,
                    // k coroutines each (§V-C). A blocked coroutine
                    // idles its own core.
                    let core = idx % cfg.cores.max(1);
                    // Switch/preemption overhead occupies the core but
                    // does not count as utilization.
                    state.now = cpu.run_on(core, state.now, stage.dur, overhead);
                }
                StageKind::Read => {
                    let rec = io.submit(state.now, stage.dur);
                    latency.record_duration(rec.latency());
                    io_requests += 1;
                    state.now = rec.completed;
                    if cfg.policy == Policy::OsThreads {
                        state.now += cfg.thread_wakeup;
                    }
                }
                StageKind::Write => match cfg.policy {
                    Policy::PmBlade => {
                        // Hand off to the flush coroutine; the task keeps
                        // running without blocking.
                        flush_queue.push_back(FlushJob {
                            ready: state.now,
                            service: stage.dur,
                        });
                    }
                    _ => {
                        let rec = io.submit(state.now, stage.dur);
                        latency.record_duration(rec.latency());
                        io_requests += 1;
                        state.now = rec.completed;
                        if cfg.policy == Policy::OsThreads {
                            state.now += cfg.thread_wakeup;
                        }
                    }
                },
            }
        }

        // Compaction finishes when every task is done AND all queued
        // writes have landed (new tables become visible only then).
        let tasks_end = completions
            .iter()
            .copied()
            .max()
            .unwrap_or(SimInstant::ORIGIN);
        let end = tasks_end.max(flush_now);
        let start = SimInstant::ORIGIN;
        RunReport {
            duration: end.duration_since(start),
            cpu_utilization: cpu.utilization(start, end),
            io_utilization: io.utilization(start, end),
            io_mean_latency: io.mean_latency(),
            io_latency: latency,
            task_completions: completions,
            io_requests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{split, TraceParams};

    fn tasks(n: usize, value_size: u32) -> Vec<CompactionTask> {
        split(
            &TraceParams {
                input_bytes: 4 << 20,
                value_size,
                ..TraceParams::default()
            },
            n,
            7,
        )
    }

    fn run(policy: Policy, cores: usize, tasks: &[CompactionTask]) -> RunReport {
        Scheduler::new(SchedulerConfig {
            policy,
            cores,
            ..SchedulerConfig::default()
        })
        .run(tasks)
    }

    #[test]
    fn single_task_runs_to_completion() {
        let ts = tasks(1, 1024);
        let report = run(Policy::OsThreads, 1, &ts);
        assert!(report.duration >= ts[0].cpu_time());
        assert_eq!(report.task_completions.len(), 1);
        assert!(report.io_requests > 0);
    }

    #[test]
    fn empty_batch_is_trivial() {
        let report = run(Policy::PmBlade, 2, &[]);
        assert_eq!(report.duration, SimDuration::ZERO);
        assert_eq!(report.io_requests, 0);
    }

    #[test]
    fn parallel_tasks_overlap_on_multiple_cores() {
        let ts = tasks(4, 256);
        let serial: SimDuration = ts.iter().map(|t| t.serial_time()).sum();
        let report = run(Policy::NaiveCoroutine, 4, &ts);
        assert!(
            report.duration < serial,
            "4 tasks on 4 cores must overlap: {} vs serial {}",
            report.duration,
            serial
        );
    }

    #[test]
    fn table3_shape_speedup_saturates_and_latency_rises() {
        // The paper's Table III: threads on ONE core; speedup saturates
        // near 2x while I/O latency climbs with thread count.
        let base = run(Policy::OsThreads, 1, &tasks(1, 1024));
        let mut last_latency = SimDuration::ZERO;
        let mut speedups = Vec::new();
        for n in [2usize, 3, 4, 5] {
            let ts = tasks(n, 1024);
            let r = run(Policy::OsThreads, 1, &ts);
            // Same total work split n ways.
            let speedup = base.duration.as_nanos() as f64 / r.duration.as_nanos() as f64;
            speedups.push(speedup);
            assert!(
                r.io_mean_latency >= last_latency,
                "latency must not drop as threads rise"
            );
            last_latency = r.io_mean_latency;
        }
        // Speedup > 1 but saturating well below n.
        assert!(speedups[0] > 1.1, "2 threads speedup {:?}", speedups);
        assert!(
            speedups[3] < 3.0,
            "5 threads on one core cannot triple: {:?}",
            speedups
        );
        // Diminishing returns.
        assert!(speedups[3] - speedups[2] < speedups[1] - speedups[0] + 0.5);
    }

    #[test]
    fn cpu_idleness_exists_under_threads() {
        // Table III: CPU idle 30-47% — plenty of idleness under the
        // thread policy on one core.
        let r = run(Policy::OsThreads, 1, &tasks(2, 1024));
        assert!(
            r.cpu_idleness() > 0.1,
            "expected CPU idle time, got {}",
            r.cpu_idleness()
        );
    }

    #[test]
    fn pmblade_beats_naive_beats_threads_on_cpu_utilization() {
        let ts = tasks(4, 256);
        let thread = run(Policy::OsThreads, 2, &ts);
        let naive = run(Policy::NaiveCoroutine, 2, &ts);
        let pmblade = run(Policy::PmBlade, 2, &ts);
        assert!(
            pmblade.cpu_utilization >= naive.cpu_utilization,
            "pmblade {} naive {}",
            pmblade.cpu_utilization,
            naive.cpu_utilization
        );
        assert!(
            naive.cpu_utilization > thread.cpu_utilization,
            "naive {} thread {}",
            naive.cpu_utilization,
            thread.cpu_utilization
        );
    }

    #[test]
    fn pmblade_shortest_duration() {
        let ts = tasks(4, 1024);
        let thread = run(Policy::OsThreads, 2, &ts);
        let naive = run(Policy::NaiveCoroutine, 2, &ts);
        let pmblade = run(Policy::PmBlade, 2, &ts);
        assert!(
            pmblade.duration <= naive.duration,
            "pmblade {} naive {}",
            pmblade.duration,
            naive.duration
        );
        assert!(
            naive.duration <= thread.duration,
            "naive {} thread {}",
            naive.duration,
            thread.duration
        );
    }

    #[test]
    fn pmblade_lowest_io_latency() {
        let ts = tasks(4, 2048);
        let thread = run(Policy::OsThreads, 2, &ts);
        let pmblade = run(Policy::PmBlade, 2, &ts);
        assert!(
            pmblade.io_mean_latency <= thread.io_mean_latency,
            "pmblade {} thread {}",
            pmblade.io_mean_latency,
            thread.io_mean_latency
        );
    }

    #[test]
    fn all_writes_land_before_completion() {
        // PmBlade defers S3s; the run must still account for them.
        let ts = tasks(2, 1024);
        let total_io: u64 = ts
            .iter()
            .flat_map(|t| &t.stages)
            .filter(|s| s.kind != StageKind::Sort)
            .count() as u64;
        let r = run(Policy::PmBlade, 2, &ts);
        assert_eq!(r.io_requests, total_io, "every S1 and S3 must be issued");
    }

    #[test]
    fn pressure_gate_caps_inflight_writes() {
        // With q=1 and client_io=0, writes are serialized: mean latency
        // approaches the uncontended service time.
        let ts = tasks(4, 4096);
        let gated = Scheduler::new(SchedulerConfig {
            policy: Policy::PmBlade,
            cores: 2,
            max_io: 1,
            ..SchedulerConfig::default()
        })
        .run(&ts);
        let ungated = Scheduler::new(SchedulerConfig {
            policy: Policy::PmBlade,
            cores: 2,
            max_io: 64,
            ..SchedulerConfig::default()
        })
        .run(&ts);
        assert!(
            gated.io_mean_latency <= ungated.io_mean_latency,
            "gated {} ungated {}",
            gated.io_mean_latency,
            ungated.io_mean_latency
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        #[test]
        fn prop_scheduler_conserves_work(
            ntasks in 1usize..6,
            cores in 1usize..4,
            value_size in proptest::sample::select(
                vec![64u32, 256, 1024, 4096]),
            policy_idx in 0usize..3,
            seed in 0u64..1000,
        ) {
            let policy = [
                Policy::OsThreads,
                Policy::NaiveCoroutine,
                Policy::PmBlade,
            ][policy_idx];
            let params = crate::trace::TraceParams {
                input_bytes: 1 << 20,
                value_size,
                ..crate::trace::TraceParams::default()
            };
            let tasks = crate::trace::split(&params, ntasks, seed);
            let report = Scheduler::new(SchedulerConfig {
                policy,
                cores,
                ..SchedulerConfig::default()
            })
            .run(&tasks);
            // Every I/O stage is issued exactly once.
            let total_io: u64 = tasks
                .iter()
                .flat_map(|t| &t.stages)
                .filter(|s| s.kind != StageKind::Sort)
                .count() as u64;
            proptest::prop_assert_eq!(report.io_requests, total_io);
            // Duration is bounded below by the critical resource and
            // above by fully-serial execution plus overheads.
            let cpu: SimDuration = tasks.iter().map(|t| t.cpu_time()).sum();
            let io: SimDuration = tasks.iter().map(|t| t.io_time()).sum();
            let lower = (cpu / cores as u64).min(cpu).max(SimDuration::ZERO);
            proptest::prop_assert!(report.duration >= lower.min(io));
            let serial = cpu + io;
            proptest::prop_assert!(
                report.duration.as_nanos()
                    < serial.as_nanos() * 3 + 1_000_000,
                "duration {} vs serial {}",
                report.duration,
                serial
            );
            // Utilizations are proper fractions.
            proptest::prop_assert!((0.0..=1.0).contains(&report.cpu_utilization));
            proptest::prop_assert!((0.0..=1.0).contains(&report.io_utilization));
        }
    }

    #[test]
    fn determinism() {
        let ts = tasks(3, 512);
        let a = run(Policy::PmBlade, 2, &ts);
        let b = run(Policy::PmBlade, 2, &ts);
        assert_eq!(a.duration, b.duration);
        assert_eq!(a.io_requests, b.io_requests);
        assert_eq!(a.task_completions, b.task_completions);
    }

    #[test]
    fn client_io_pressure_still_completes_all_writes() {
        let ts = tasks(2, 1024);
        let total_io: u64 = ts
            .iter()
            .flat_map(|t| &t.stages)
            .filter(|s| s.kind != StageKind::Sort)
            .count() as u64;
        for client in [0u64, 1, 2, 99] {
            let r = Scheduler::new(SchedulerConfig {
                policy: Policy::PmBlade,
                max_io: 2,
                client_io: client,
                ..SchedulerConfig::default()
            })
            .run(&ts);
            assert_eq!(r.io_requests, total_io, "client_io={client}");
            assert!(r.duration > SimDuration::ZERO);
        }
    }
}
