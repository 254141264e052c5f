//! Discrete-event resources of the scheduler.
//!
//! The paper's §V experiments (Table III, Fig 9) are about how CPU cores and
//! the SSD queue behave under different schedulers. We model both as
//! reservable resources on a shared virtual timeline:
//!
//! - [`CpuCores`]: `c` identical cores; a burst on a core starts at the
//!   later of the core's free instant and the task's own time.
//! - [`IoDevice`]: an I/O device with a concurrency-dependent service time —
//!   each additional in-flight request inflates latency (queueing), matching
//!   the paper's observation that I/O latency rises from 3.9 ms at one
//!   thread to 10.9 ms at five (Table III).
//!
//! Both track busy time so utilization can be reported for any window.

use sim::{SimDuration, SimInstant};

/// A pool of identical CPU cores.
#[derive(Debug)]
pub struct CpuCores {
    /// Next instant each core becomes free.
    free_at: Vec<SimInstant>,
    /// Useful work run so far; switch overhead is not counted.
    busy: SimDuration,
}

impl CpuCores {
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        CpuCores {
            free_at: vec![SimInstant::ORIGIN; cores],
            busy: SimDuration::ZERO,
        }
    }

    /// Run a burst of `work` plus `overhead` on one core — worker threads
    /// are pinned to physical cores, so a blocked coroutine leaves its own
    /// core idle even if another core's queue is shorter. The overhead
    /// occupies the core but does not count as busy. Returns the instant
    /// the burst completes.
    pub fn run_on(
        &mut self,
        core: usize,
        now: SimInstant,
        work: SimDuration,
        overhead: SimDuration,
    ) -> SimInstant {
        let start = self.free_at[core].max(now);
        let end = start + work + overhead;
        self.free_at[core] = end;
        self.busy += work;
        end
    }

    /// Fraction of capacity used over `[start, end]`.
    pub fn utilization(&self, start: SimInstant, end: SimInstant) -> f64 {
        let span = end.duration_since(start).as_nanos() as f64 * self.free_at.len() as f64;
        if span == 0.0 {
            return 0.0;
        }
        (self.busy.as_nanos() as f64 / span).min(1.0)
    }
}

/// An I/O request completion record.
#[derive(Clone, Copy, Debug)]
pub struct IoCompletion {
    pub issued: SimInstant,
    pub completed: SimInstant,
}

impl IoCompletion {
    pub fn latency(&self) -> SimDuration {
        self.completed.duration_since(self.issued)
    }
}

/// A single I/O device with queue-depth-dependent latency.
///
/// Service discipline: the device executes one request at a time
/// (serialized channel), so a request issued at `t` with base service time
/// `s` completes at `max(t, device_free) + s * (1 + penalty * (depth - 1))`.
/// The `penalty` term models controller contention beyond pure queueing —
/// firmware-level interference that makes *concurrent* submissions slower
/// than back-to-back ones.
#[derive(Debug)]
pub struct IoDevice {
    free_at: SimInstant,
    busy: SimDuration,
    /// Completion times of requests still counted as in-flight.
    inflight: Vec<SimInstant>,
    /// Extra service-time fraction per concurrent request.
    contention_penalty: f64,
    completions: u64,
    total_latency: SimDuration,
}

impl IoDevice {
    pub fn new(contention_penalty: f64) -> Self {
        IoDevice {
            free_at: SimInstant::ORIGIN,
            busy: SimDuration::ZERO,
            inflight: Vec::new(),
            contention_penalty,
            completions: 0,
            total_latency: SimDuration::ZERO,
        }
    }

    /// Number of requests still in flight at instant `now`.
    pub fn depth_at(&mut self, now: SimInstant) -> usize {
        self.inflight.retain(|&done| done > now);
        self.inflight.len()
    }

    /// Submit a request at `now` with base (uncontended) service time
    /// `service`. Returns the completion record.
    pub fn submit(&mut self, now: SimInstant, service: SimDuration) -> IoCompletion {
        let depth = self.depth_at(now) + 1;
        let inflated = service.mul_f64(1.0 + self.contention_penalty * (depth - 1) as f64);
        let start = self.free_at.max(now);
        let end = start + inflated;
        self.free_at = end;
        self.busy += inflated;
        self.inflight.push(end);
        self.completions += 1;
        let rec = IoCompletion {
            issued: now,
            completed: end,
        };
        self.total_latency += rec.latency();
        rec
    }

    /// Earliest instant the device is idle for a task at `now`.
    pub fn next_available(&self, now: SimInstant) -> SimInstant {
        self.free_at.max(now)
    }

    /// Mean request latency (queueing + service) so far.
    pub fn mean_latency(&self) -> SimDuration {
        if self.completions == 0 {
            SimDuration::ZERO
        } else {
            self.total_latency / self.completions
        }
    }

    /// Fraction of `[start, end]` the device spent servicing requests.
    pub fn utilization(&self, start: SimInstant, end: SimInstant) -> f64 {
        let span = end.duration_since(start).as_nanos() as f64;
        if span == 0.0 {
            return 0.0;
        }
        (self.busy.as_nanos() as f64 / span).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn single_core_serializes_bursts() {
        let mut cpu = CpuCores::new(1);
        let t0 = SimInstant::ORIGIN;
        let e1 = cpu.run_on(0, t0, us(10), SimDuration::ZERO);
        let e2 = cpu.run_on(0, t0, us(10), SimDuration::ZERO);
        assert_eq!(e1.as_nanos(), 10_000);
        assert_eq!(e2.as_nanos(), 20_000, "second burst queues");
        assert_eq!(cpu.busy, us(20));
    }

    #[test]
    fn two_cores_run_in_parallel() {
        let mut cpu = CpuCores::new(2);
        let t0 = SimInstant::ORIGIN;
        let e1 = cpu.run_on(0, t0, us(10), SimDuration::ZERO);
        let e2 = cpu.run_on(1, t0, us(10), SimDuration::ZERO);
        assert_eq!(e1, e2, "bursts overlap on distinct cores");
    }

    #[test]
    fn cpu_utilization_half_loaded() {
        let mut cpu = CpuCores::new(2);
        let t0 = SimInstant::ORIGIN;
        let end = cpu.run_on(0, t0, us(100), SimDuration::ZERO);
        let u = cpu.utilization(t0, end);
        assert!((u - 0.5).abs() < 1e-9, "one of two cores busy: {u}");
    }

    #[test]
    fn cpu_burst_starts_no_earlier_than_caller_time() {
        let mut cpu = CpuCores::new(1);
        let late = SimInstant::from_nanos(1_000_000);
        let end = cpu.run_on(0, late, us(1), SimDuration::ZERO);
        assert_eq!(end.as_nanos(), 1_001_000);
    }

    #[test]
    fn cpu_overhead_occupies_the_core_but_is_not_busy() {
        let mut cpu = CpuCores::new(1);
        let t0 = SimInstant::ORIGIN;
        let end = cpu.run_on(0, t0, us(30), us(10));
        assert_eq!(end.as_nanos(), 40_000);
        assert_eq!(cpu.busy, us(30));
        let u = cpu.utilization(t0, end);
        assert!((u - 0.75).abs() < 1e-9, "30 of 40 us useful: {u}");
    }

    #[test]
    fn io_uncontended_latency_is_service_time() {
        let mut io = IoDevice::new(0.3);
        let rec = io.submit(SimInstant::ORIGIN, us(100));
        assert_eq!(rec.latency(), us(100));
        assert_eq!(io.depth_at(SimInstant::ORIGIN), 1);
    }

    #[test]
    fn io_concurrency_inflates_latency() {
        let mut io = IoDevice::new(0.3);
        let t0 = SimInstant::ORIGIN;
        let r1 = io.submit(t0, us(100));
        let r2 = io.submit(t0, us(100));
        assert_eq!(r1.latency(), us(100));
        // Second request: queued behind r1 AND contention-inflated.
        assert!(r2.latency() > us(200), "latency {}", r2.latency());
        assert_eq!(io.depth_at(t0), 2);
    }

    #[test]
    fn io_spaced_requests_do_not_contend() {
        let mut io = IoDevice::new(0.5);
        let r1 = io.submit(SimInstant::ORIGIN, us(10));
        let r2 = io.submit(r1.completed, us(10));
        assert_eq!(r2.latency(), us(10), "no overlap → base latency");
    }

    #[test]
    fn io_depth_tracks_completions() {
        let mut io = IoDevice::new(0.0);
        let t0 = SimInstant::ORIGIN;
        io.submit(t0, us(100));
        assert_eq!(io.depth_at(t0), 1);
        assert_eq!(io.depth_at(t0 + us(50)), 1);
        assert_eq!(io.depth_at(t0 + us(150)), 0);
    }

    #[test]
    fn io_mean_latency_and_utilization() {
        let mut io = IoDevice::new(0.0);
        let t0 = SimInstant::ORIGIN;
        let r1 = io.submit(t0, us(10));
        let _ = io.submit(r1.completed + us(10), us(10));
        assert_eq!(io.completions, 2);
        assert_eq!(io.mean_latency(), us(10));
        let u = io.utilization(t0, SimInstant::from_nanos(40_000));
        assert!((u - 0.5).abs() < 1e-9, "20us busy of 40us: {u}");
    }

    #[test]
    fn more_threads_raise_io_latency_like_table3() {
        // Reproduce Table III's qualitative trend: issuing N concurrent
        // requests raises mean latency monotonically.
        let mut last = SimDuration::ZERO;
        for n in 1..=5u64 {
            let mut io = IoDevice::new(0.3);
            for _ in 0..n {
                io.submit(SimInstant::ORIGIN, SimDuration::from_millis(4));
            }
            let mean = io.mean_latency();
            assert!(mean > last, "n={n} mean {mean} last {last}");
            last = mean;
        }
    }
}
