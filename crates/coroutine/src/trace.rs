//! Compaction task traces.
//!
//! A [`CompactionTask`] is the stage sequence one compaction subtask will
//! execute: `S1 (read) → S2 (sort) → [S3 (write) when the output buffer
//! fills] → …`. Tests and the §V experiments build them with
//! [`synthesize`], which reproduces the paper's *fragment* phenomenon:
//! duplicate discards make S3 fire at erratic points, clipping S2 into
//! fragments of uneven length.

use sim::{Pcg64, SimDuration};

/// Which pipeline stage a step belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StageKind {
    /// S1: read an input block from the device.
    Read,
    /// S2: CPU merge/sort work.
    Sort,
    /// S3: write a filled output buffer to the device.
    Write,
}

/// One step of a task trace.
#[derive(Clone, Copy, Debug)]
pub struct Stage {
    pub kind: StageKind,
    /// Uncontended duration (service time for I/O, burst for CPU).
    pub dur: SimDuration,
}

impl Stage {
    pub fn read(dur: SimDuration) -> Self {
        Stage {
            kind: StageKind::Read,
            dur,
        }
    }

    pub fn sort(dur: SimDuration) -> Self {
        Stage {
            kind: StageKind::Sort,
            dur,
        }
    }

    pub fn write(dur: SimDuration) -> Self {
        Stage {
            kind: StageKind::Write,
            dur,
        }
    }
}

/// One compaction subtask: an ordered stage list.
#[derive(Clone, Debug, Default)]
pub struct CompactionTask {
    pub stages: Vec<Stage>,
}

impl CompactionTask {
    pub fn new(stages: Vec<Stage>) -> Self {
        CompactionTask { stages }
    }

    /// Total CPU time in the trace.
    pub fn cpu_time(&self) -> SimDuration {
        self.stages
            .iter()
            .filter(|s| s.kind == StageKind::Sort)
            .map(|s| s.dur)
            .sum()
    }

    /// Total uncontended I/O service time in the trace.
    pub fn io_time(&self) -> SimDuration {
        self.stages
            .iter()
            .filter(|s| s.kind != StageKind::Sort)
            .map(|s| s.dur)
            .sum()
    }

    /// Serial (single-resource, no-overlap) duration.
    pub fn serial_time(&self) -> SimDuration {
        self.cpu_time() + self.io_time()
    }
}

/// Parameters for [`synthesize`].
#[derive(Clone, Copy, Debug)]
pub struct TraceParams {
    /// Bytes this subtask must process.
    pub input_bytes: u64,
    /// Value size; smaller values mean more entries per block and thus
    /// more CPU per byte (the paper's Fig 9 x-axis).
    pub value_size: u32,
    /// Read buffer (block) size — sets S1 granularity.
    pub read_block: u32,
    /// Write buffer size — S3 fires when this many *surviving* bytes
    /// accumulate.
    pub write_buffer: u32,
    /// Fraction of entries discarded as duplicates (drives fragmentation).
    pub dup_ratio: f64,
    /// SSD service time per read block.
    pub read_service: SimDuration,
    /// SSD service time per write-buffer flush.
    pub write_service: SimDuration,
    /// CPU cost per entry merged.
    pub cpu_per_entry: SimDuration,
}

impl Default for TraceParams {
    fn default() -> Self {
        TraceParams {
            input_bytes: 8 << 20,
            value_size: 1024,
            read_block: 256 << 10,
            write_buffer: 256 << 10,
            dup_ratio: 0.25,
            read_service: SimDuration::from_micros(180),
            write_service: SimDuration::from_micros(220),
            cpu_per_entry: SimDuration::from_nanos(1_300),
        }
    }
}

/// Build a realistic erratic trace.
///
/// The loop mirrors Fig 5 of the paper: read a block (S1), merge its
/// entries (S2) while surviving entries fill the write buffer, and emit an
/// S3 the moment the buffer fills — splitting the block's S2 into
/// fragments whose lengths depend on where the buffer boundary lands,
/// which in turn depends on the (random) duplicate pattern.
pub fn synthesize(params: &TraceParams, rng: &mut Pcg64) -> CompactionTask {
    let entry_size = (params.value_size + 24).max(1) as u64;
    let entries_per_block = (params.read_block as u64 / entry_size).max(1);
    let total_entries = (params.input_bytes / entry_size).max(1);
    let write_capacity = params.write_buffer as u64;

    let mut stages = Vec::new();
    let mut remaining = total_entries;
    let mut buffered: u64 = 0;
    while remaining > 0 {
        let block_entries = entries_per_block.min(remaining);
        remaining -= block_entries;
        stages.push(Stage::read(params.read_service));
        // Merge the block; survivors land in the write buffer. Process in
        // chunks so S3 can interrupt mid-block.
        let mut left = block_entries;
        while left > 0 {
            // Entries until the buffer would fill, at the *expected*
            // survival rate, jittered by the duplicate pattern.
            let survive = 1.0 - params.dup_ratio;
            let room = write_capacity.saturating_sub(buffered);
            let est = if survive <= 0.0 {
                left
            } else {
                ((room as f64 / (entry_size as f64 * survive)).ceil() as u64).max(1)
            };
            // Jitter ±30%: the duplicate pattern is data-dependent.
            let jitter = 0.7 + 0.6 * rng.next_f64();
            let chunk = ((est as f64 * jitter) as u64).clamp(1, left);
            left -= chunk;
            let survivors = ((chunk as f64) * survive).round() as u64;
            stages.push(Stage::sort(params.cpu_per_entry * chunk));
            buffered += survivors * entry_size;
            if buffered >= write_capacity {
                stages.push(Stage::write(params.write_service));
                buffered = 0;
            }
        }
    }
    if buffered > 0 {
        stages.push(Stage::write(params.write_service));
    }
    CompactionTask::new(stages)
}

/// Split one compaction into `n` balanced subtasks (the paper's compaction
/// task manager divides work across worker threads/coroutines).
pub fn split(params: &TraceParams, n: usize, seed: u64) -> Vec<CompactionTask> {
    assert!(n > 0);
    let mut rng = Pcg64::seeded(seed);
    let share = TraceParams {
        input_bytes: (params.input_bytes / n as u64).max(1),
        ..*params
    };
    (0..n).map(|_| synthesize(&share, &mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_processes_all_input() {
        let params = TraceParams::default();
        let mut rng = Pcg64::seeded(1);
        let t = synthesize(&params, &mut rng);
        let entry = (params.value_size + 24) as u64;
        let expected_entries = params.input_bytes / entry;
        // CPU time accounts for every entry exactly once.
        assert_eq!(t.cpu_time(), params.cpu_per_entry * expected_entries,);
        // Reads cover the input.
        let reads = t
            .stages
            .iter()
            .filter(|s| s.kind == StageKind::Read)
            .count() as u64;
        let per_block = params.read_block as u64 / entry;
        assert_eq!(reads, expected_entries.div_ceil(per_block));
    }

    #[test]
    fn writes_reflect_survivor_volume() {
        let mut rng = Pcg64::seeded(2);
        let no_dup = synthesize(
            &TraceParams {
                dup_ratio: 0.0,
                ..TraceParams::default()
            },
            &mut rng,
        );
        let heavy_dup = synthesize(
            &TraceParams {
                dup_ratio: 0.8,
                ..TraceParams::default()
            },
            &mut rng,
        );
        let count = |t: &CompactionTask| {
            t.stages
                .iter()
                .filter(|s| s.kind == StageKind::Write)
                .count()
        };
        assert!(
            count(&heavy_dup) < count(&no_dup),
            "duplicates shrink output: {} vs {}",
            count(&heavy_dup),
            count(&no_dup)
        );
    }

    #[test]
    fn fragments_exist_with_duplicates() {
        // With dup_ratio > 0 and jitter, S2 clips vary in length — some
        // should be much shorter than the longest.
        let mut rng = Pcg64::seeded(3);
        let t = synthesize(&TraceParams::default(), &mut rng);
        let sorts: Vec<u64> = t
            .stages
            .iter()
            .filter(|s| s.kind == StageKind::Sort)
            .map(|s| s.dur.as_nanos())
            .collect();
        assert!(sorts.len() > 4);
        let max = *sorts.iter().max().unwrap();
        let min = *sorts.iter().min().unwrap();
        assert!(min * 2 < max, "expected fragmentation: min {min} max {max}");
    }

    #[test]
    fn small_values_shift_work_to_cpu() {
        let mut rng = Pcg64::seeded(4);
        let small = synthesize(
            &TraceParams {
                value_size: 32,
                ..TraceParams::default()
            },
            &mut rng,
        );
        let large = synthesize(
            &TraceParams {
                value_size: 4096,
                ..TraceParams::default()
            },
            &mut rng,
        );
        let ratio = |t: &CompactionTask| {
            t.cpu_time().as_nanos() as f64 / t.io_time().as_nanos().max(1) as f64
        };
        assert!(ratio(&small) > 3.0 * ratio(&large));
    }

    #[test]
    fn split_partitions_work() {
        let params = TraceParams::default();
        let parts = split(&params, 4, 9);
        assert_eq!(parts.len(), 4);
        let total_cpu: SimDuration = parts.iter().map(|t| t.cpu_time()).sum();
        let mut rng = Pcg64::seeded(9);
        let whole = synthesize(&params, &mut rng);
        // Shares should approximate the whole (rounding tolerated).
        let a = total_cpu.as_nanos() as f64;
        let b = whole.cpu_time().as_nanos() as f64;
        assert!((a / b - 1.0).abs() < 0.05, "{a} vs {b}");
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let params = TraceParams::default();
        let a = split(&params, 3, 42);
        let b = split(&params, 3, 42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.stages.len(), y.stages.len());
            assert_eq!(x.cpu_time(), y.cpu_time());
        }
    }
}
