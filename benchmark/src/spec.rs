//! What the benchmark declares: its workloads and every metric by
//! name, unit, clock, direction and bound. `BENCHMARK.json` is this
//! module rendered (`run.sh --print-contract`), and a test keeps the
//! committed file equal to it.

use crate::json::Json;

/// Seconds one run is sized for; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 6;
/// Keys preloaded before every workload (`user{id:010}`, 100 B values:
/// 20.5 MB of user data against 8 MiB of PM, the paper's 2.5 : 1).
pub const KEYS: u32 = 180_000;
/// The timed phase is split into this many equal chunks, each preceded
/// by one calibration slice.
pub const CHUNKS: usize = 200;
/// Full set-ups per run; `setup_s` reports their median.
pub const SETUP_ROUNDS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    WriteHeavy,
    ReadCold,
    ReadHot,
    ScanShort,
    MixedRw,
    ServePipelined,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// One line for `BENCHMARK.json` on why the workload exists.
    pub why: &'static str,
    /// Timed ops per second of `--seconds`. The op count, not the
    /// stopwatch, ends a run, so the virtual-clock and counter metrics
    /// repeat exactly for a seed; the rates are sized so the timed phase
    /// takes about `--seconds` on the reference box (2 shared cores).
    pub ops_per_second: u64,
    /// Untimed ops of the same stream issued after preload.
    pub warm_ops: u64,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "write_heavy",
        kind: Kind::WriteHeavy,
        why: "zipf(0.9) overwrites: memtable, pmtable build, flush, internal and major compaction, sstable build; caches and service tier idle; ends with a WAL-on durability probe (reopen, read-back)",
        ops_per_second: 200_000,
        warm_ops: 0,
    },
    Workload {
        name: "read_cold",
        kind: Kind::ReadCold,
        why: "uniform gets over 20 MB, far beyond the 4 MiB group cache and 2 MiB block cache: level-0 filters, pmtable group decode and sstable block reads do the work",
        ops_per_second: 100_000,
        warm_ops: 20_000,
    },
    Workload {
        name: "read_hot",
        kind: Kind::ReadHot,
        why: "gets over a 512-key hot set, spread over keyspace and data age, that fits every cache: the read_cold path with decode and device reads bypassed, so per-call overhead shows",
        ops_per_second: 160_000,
        warm_ops: 20_000,
    },
    Workload {
        name: "scan_short",
        kind: Kind::ScanShort,
        why: "forward 50-row scans from uniform keys: the per-source fetch and merge_dedup path; point-read layers do little",
        ops_per_second: 2_000,
        warm_ops: 400,
    },
    Workload {
        name: "mixed_rw",
        kind: Kind::MixedRw,
        why: "50% get / 50% put zipf(0.9) without WAL: reads against a level-0 that writes keep refilling, so a gain for one side that costs the other shows",
        ops_per_second: 180_000,
        warm_ops: 0,
    },
    Workload {
        name: "serve_pipelined",
        kind: Kind::ServePipelined,
        why: "the mixed_rw op mix over one loopback connection, closed-loop window of 16: minus mixed_rw it is the cost of protocol, server and sockets",
        ops_per_second: 48_000,
        warm_ops: 1_600,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see; reported by untraced runs.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    /// `virt_us` marks the engine's deterministic virtual device clock;
    /// `cu` the host clock in calibration units; `s` plain host seconds.
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Repeats bit for bit for one seed and op count (on the embedded
    /// workloads), so `--compare` demands equality, not a bound. The
    /// allocation counts only nearly do: two runs of one seed differed by
    /// one allocation in 44 million (std's hash tables seed themselves
    /// per process, and whether one grows or rehashes in place follows).
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, exact: bool) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: Better::Lower,
        bound,
        exact,
    }
}

pub const END_TO_END: [EndToEnd; 12] = [
    e2e("setup_s", "s", 0.25, false),
    e2e("host_cu_per_op", "cu", 0.20, false),
    e2e("virt_mean_us", "virt_us", 0.25, true),
    e2e("virt_p50_us", "virt_us", 0.15, true),
    e2e("virt_p99_us", "virt_us", 0.25, true),
    e2e("allocs_per_op", "count", 0.10, false),
    e2e("alloc_kib_per_op", "KiB", 0.15, false),
    e2e("write_amp", "x", 0.15, true),
    e2e("ssd_write_amp", "x", 0.25, true),
    e2e("dev_read_kib_per_op", "KiB", 0.10, true),
    e2e("space_amp", "x", 0.10, true),
    e2e("peak_rss_mib", "MiB", 0.15, false),
];

/// A metric of one layer; reported by traced runs, never bounded.
#[derive(Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 90] = [
    // The harness itself.
    lower("harness.cu_ns", "ns"),
    lower("harness.wall_us_per_op", "us"),
    lower("harness.request_self_cu_per_op", "cu"),
    lower("trace.overhead_share", "share"),
    // Spans around the benchmark's own calls.
    lower("db.put.cu_per_op", "cu"),
    lower("db.put.wall_p50_us", "us"),
    lower("db.put.wall_p99_us", "us"),
    lower("db.put.virt_p999_us", "virt_us"),
    lower("db.get.cu_per_op", "cu"),
    lower("db.get.wall_p50_us", "us"),
    lower("db.get.wall_p99_us", "us"),
    lower("db.get.virt_p999_us", "virt_us"),
    lower("db.scan.cu_per_op", "cu"),
    lower("db.scan.wall_p50_us", "us"),
    lower("db.scan.wall_p99_us", "us"),
    lower("db.scan.virt_p999_us", "virt_us"),
    lower("db.open.wall_ms", "ms"),
    lower("recovery.reopen_wall_ms", "ms"),
    lower("recovery.tables_reopened", "count"),
    lower("recovery.wal_records_replayed", "count"),
    lower("protocol.encode_cu_per_op", "cu"),
    lower("protocol.decode_cu_per_op", "cu"),
    lower("pm-blade-client.socket_write_cu_per_op", "cu"),
    lower("pm-blade-client.wait_read_cu_per_op", "cu"),
    lower("pm-blade-server.rtt_depth1_p50_us", "us"),
    lower("pm-blade-server.ping_rtt_p50_us", "us"),
    lower("pm-blade-server.wire_bytes_per_op", "B"),
    higher("pm-blade-server.requests_total", "count"),
    lower("pm-blade-server.errors_total", "count"),
    lower("pm-blade-server.throttled_total", "count"),
    // Counter deltas over the timed phase, through public accessors.
    lower("memtable.flushes", "count"),
    lower("memtable.wal_appends", "count"),
    lower("memtable.wal_kib_per_op", "KiB"),
    lower("commit.group_commits", "count"),
    higher("commit.writes_per_group", "count"),
    lower("manifest.edits", "count"),
    lower("partition.internal_compactions", "count"),
    lower("partition.major_compactions", "count"),
    lower("partition.minor_virt_ms", "virt_ms"),
    lower("partition.internal_virt_ms", "virt_ms"),
    lower("partition.major_virt_ms", "virt_ms"),
    higher("partition.internal_dropped_records", "count"),
    higher("partition.internal_space_released_kib", "KiB"),
    lower("level0.tables_probed_per_get", "count"),
    lower("level0.unsorted_tables_end", "count"),
    lower("level0.filter_checked_per_get", "count"),
    higher("level0.filter_prune_ratio", "share"),
    higher("groupcache.hit_ratio", "share"),
    lower("groupcache.evictions", "count"),
    higher("sstable.block_cache_hit_ratio", "share"),
    lower("sstable.block_cache_evictions", "count"),
    higher("db.read_share_memtable", "share"),
    higher("db.read_share_pm", "share"),
    lower("db.read_share_ssd", "share"),
    lower("db.write_stalls", "count"),
    lower("db.write_slowdowns", "count"),
    lower("maintenance.jobs_failed", "count"),
    lower("pm-device.write_kib_per_op", "KiB"),
    lower("pm-device.read_kib_per_op", "KiB"),
    lower("pm-device.used_mib_end", "MiB"),
    lower("ssd-device.write_kib_per_op", "KiB"),
    lower("ssd-device.read_kib_per_op", "KiB"),
    lower("ssd-device.used_mib_end", "MiB"),
    // The layer ladder: one layer's public API on standalone structures.
    lower("encoding.bloom_probe_cu", "cu"),
    lower("encoding.crc32c_cu_per_kib", "cu"),
    lower("pmtable.build_cu_per_entry", "cu"),
    lower("pmtable.build_virt_us_per_entry", "virt_us"),
    lower("pmtable.bytes_per_entry", "B"),
    lower("pmtable.get_cu", "cu"),
    lower("pmtable.get_virt_us", "virt_us"),
    lower("pmtable.get_allocs", "count"),
    lower("pmtable.scan_cu_per_row", "cu"),
    lower("memtable.insert_cu", "cu"),
    lower("memtable.get_cu", "cu"),
    lower("memtable.wal_append_cu", "cu"),
    lower("sstable.build_cu_per_entry", "cu"),
    lower("sstable.get_warm_cu", "cu"),
    lower("sstable.get_cold_cu", "cu"),
    lower("sstable.get_cold_virt_us", "virt_us"),
    lower("sstable.scan_cu_per_row", "cu"),
    lower("pm-blade.merge_dedup_cu_per_record", "cu"),
    lower("pm-blade.merge_dedup_allocs_per_record", "count"),
    lower("pm-blade.protocol_roundtrip_cu", "cu"),
    // Traced-run copies of the deterministic end-to-end numbers: they
    // must equal the untraced run's (spans never touch a `Timeline`).
    lower("check.virt_mean_us", "virt_us"),
    lower("check.virt_p50_us", "virt_us"),
    lower("check.virt_p99_us", "virt_us"),
    lower("check.write_amp", "x"),
    lower("check.ssd_write_amp", "x"),
    lower("check.dev_read_kib_per_op", "KiB"),
    lower("check.space_amp", "x"),
];

/// The contract file: exactly the keys the driver reads.
pub fn contract() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let bytes = name.as_bytes();
        !bytes.is_empty()
            && bytes.len() <= 64
            && bytes[0].is_ascii_alphanumeric()
            && bytes
                .iter()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(b))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn declarations_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(contract().render().len() <= 64 << 10);
    }

    #[test]
    fn committed_contract_matches_the_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(
            Json::parse(&text).expect("BENCHMARK.json parses") == contract(),
            "regenerate with: benchmark/run.sh --print-contract > BENCHMARK.json"
        );
    }
}
