//! One run of one workload in this process: generate inputs from the
//! seed, set up, time the chunks between calibration slices, check the
//! sanity floors, and compute every metric.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pm_blade::protocol::{Request, Response};
use pm_blade::telemetry::{MetricsSnapshot, SpanKind};
use pm_blade::{Db, MaintenanceMode, MetricKey, Options, Partitioner};
use pm_blade_server::{Server, ServerOptions};
use pmtable::OwnedEntry;

use crate::exec::{kv_ops, scan_ops, wire_ops, Ledger, Wire, PUT_BIT, WINDOW};
use crate::gen::{
    key_of, striped_permutation, write_value, NoisePool, Rng, Zipf, KEY_LEN, VALUE_LEN,
};
use crate::host::{alloc_counts, peak_rss_kib, Calibration};
use crate::ladder::{self, LADDER_OPS};
use crate::oracle::Oracle;
use crate::spec::{Kind, Workload, CHUNKS, KEYS, SETUP_ROUNDS};
use crate::stats::{median, percentile_sorted};
use crate::trace::{SpanName, Tracer};

/// Numeric range partitions of the engine.
const PARTITIONS: u32 = 8;
/// Keys in the `read_hot` hot set (about 1 MiB of decoded groups).
const HOT_KEYS: u64 = 512;
/// Depth-1 round trips and pings timed after a traced `serve_pipelined`.
const RTT_SAMPLES: usize = 2_000;

/// How much work a run does. `full` is the benchmark; tests shrink it.
#[derive(Clone, Debug)]
pub struct Scale {
    pub keys: u32,
    pub chunks: usize,
    pub ops_per_chunk: usize,
    pub warm_ops: usize,
    pub setup_rounds: usize,
    pub ladder_ops: usize,
    /// Abort when a workload degenerates (the floors are sized for the
    /// full scale, so tiny test runs switch them off).
    pub sanity_floors: bool,
}

impl Scale {
    pub fn full(workload: &Workload, seconds: u64) -> Scale {
        let per_chunk = (workload.ops_per_second * seconds) as usize / CHUNKS;
        let grain = if workload.kind == Kind::ServePipelined {
            WINDOW
        } else {
            1
        };
        Scale {
            keys: KEYS,
            chunks: CHUNKS,
            ops_per_chunk: (per_chunk / grain).max(1) * grain,
            warm_ops: workload.warm_ops as usize,
            setup_rounds: SETUP_ROUNDS,
            ladder_ops: LADDER_OPS,
            sanity_floors: true,
        }
    }

    pub fn timed_ops(&self) -> usize {
        self.chunks * self.ops_per_chunk
    }
}

pub struct RunArgs<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub trace: bool,
    pub scale: Scale,
    /// Directory (inside the checkout) for WAL, manifest and backing
    /// files; the run makes and removes its own subdirectory.
    pub work_dir: PathBuf,
    /// Where a traced run writes its Chrome trace.
    pub out_dir: Option<PathBuf>,
    pub process_start: Instant,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Empty for an untraced run.
    pub per_layer: Vec<(&'static str, f64)>,
}

/// The engine configuration every workload runs against: the `bench`
/// crate's 1/1000 scale of the paper's set-up.
pub fn engine_options(keys: u32, wal_dir: Option<PathBuf>) -> Options {
    let pm = 8 << 20;
    Options {
        memtable_bytes: 32 << 10,
        tau_w: 256 << 10,
        l1_target: 512 << 10,
        max_table_bytes: 512 << 10,
        block_cache_bytes: 2 << 20,
        pm_group_cache_bytes: 4 << 20,
        pm_filter_bits_per_key: 10,
        pm_codec_mode: pmtable::CodecMode::Auto,
        partitioner: Partitioner::numeric("user", keys as u64, PARTITIONS as usize),
        maintenance: MaintenanceMode::Inline,
        trace_sample_every: 0,
        // Keep every flush/compaction span of the run, so the per-kind
        // virtual time is a sum over the whole timed phase.
        event_log_capacity: 1 << 17,
        wal_dir,
        ..Options::pm_blade(pm)
    }
}

/// Everything generated from the seed before the engine exists.
struct Inputs {
    /// Preload order, and the rank → key map that spreads zipf ranks
    /// (and the hot set) over the keyspace.
    perm: Vec<u32>,
    /// Warm-up ops followed by the timed ops.
    ops: Vec<u32>,
    noise_seed: u64,
}

fn generate(kind: Kind, seed: u64, scale: &Scale) -> Inputs {
    let keys = scale.keys as u64;
    let perm = striped_permutation(scale.keys, PARTITIONS, &mut Rng::stream(seed, 1));
    let mut rng = Rng::stream(seed, 2);
    let total = scale.warm_ops + scale.timed_ops();
    let ops = match kind {
        Kind::WriteHeavy => {
            let zipf = Zipf::new(keys, 0.9);
            (0..total)
                .map(|_| perm[zipf.sample(&mut rng) as usize] | PUT_BIT)
                .collect()
        }
        Kind::ReadCold | Kind::ScanShort => (0..total).map(|_| rng.below(keys) as u32).collect(),
        // The hot set strides through the preload order, so it is spread
        // over the keyspace (the order is a permutation) and over data
        // age: its newest keys still sit in PM level-0, its oldest on the
        // SSD levels. Uniform inside the set: under a skew the ten
        // hottest keys take half the gets, and where those ten happened
        // to sit moved every metric by 10-20% from seed to seed.
        Kind::ReadHot => {
            let hot = HOT_KEYS.min(keys);
            let stride = keys / hot;
            (0..total)
                .map(|_| perm[(rng.below(hot) * stride) as usize])
                .collect()
        }
        Kind::MixedRw | Kind::ServePipelined => {
            let zipf = Zipf::new(keys, 0.9);
            (0..total)
                .map(|_| {
                    let id = perm[zipf.sample(&mut rng) as usize];
                    if rng.next_u64() & 1 == 0 {
                        id | PUT_BIT
                    } else {
                        id
                    }
                })
                .collect()
        }
    };
    Inputs {
        perm,
        ops,
        noise_seed: seed ^ 0x6e6f_6973_6521,
    }
}

/// The system under test after one set-up.
struct Fixture {
    db: Arc<Db>,
    server: Option<Server>,
    wire: Option<Wire>,
    ledger: Ledger,
    open_wall_ms: f64,
}

fn issue<const TRACED: bool>(
    kind: Kind,
    fx: &mut Fixture,
    ops: &[u32],
    record: bool,
    first_request: u32,
    tracer: &mut Tracer,
) {
    match kind {
        Kind::ScanShort => {
            scan_ops::<TRACED>(&fx.db, &mut fx.ledger, ops, record, first_request, tracer)
        }
        Kind::ServePipelined => {
            let wire = fx.wire.as_mut().expect("serve_pipelined has a connection");
            wire_ops::<TRACED>(wire, &mut fx.ledger, ops, record, first_request, tracer)
        }
        _ => kv_ops::<TRACED>(&fx.db, &mut fx.ledger, ops, record, first_request, tracer),
    }
}

/// Open, preload every key once in permutation order, warm up.
fn set_up(
    kind: Kind,
    inputs: &Inputs,
    scale: &Scale,
    tracer: &mut Tracer,
) -> Result<Fixture, String> {
    let open_start = Instant::now();
    let db = Db::open(engine_options(scale.keys, None)).map_err(|e| format!("open: {e}"))?;
    let open_wall_ms = open_start.elapsed().as_secs_f64() * 1e3;
    let mut ledger = Ledger::new(
        Oracle::new(scale.keys),
        NoisePool::new(&mut Rng::new(inputs.noise_seed)),
    );
    let preload: Vec<u32> = inputs.perm.iter().map(|&id| id | PUT_BIT).collect();
    kv_ops::<false>(&db, &mut ledger, &preload, false, 0, tracer);
    let mut fx = Fixture {
        db: Arc::new(db),
        server: None,
        wire: None,
        ledger,
        open_wall_ms,
    };
    if kind == Kind::ServePipelined {
        let server = Server::start(Arc::clone(&fx.db), ServerOptions::default())
            .map_err(|e| format!("server: {e}"))?;
        fx.wire = Some(Wire::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?);
        fx.server = Some(server);
    }
    issue::<false>(
        kind,
        &mut fx,
        &inputs.ops[..scale.warm_ops],
        false,
        0,
        tracer,
    );
    if fx.ledger.failed > 0 {
        return Err(format!(
            "set-up failed {} ops; first: {}",
            fx.ledger.failed,
            fx.ledger.first_failure.as_deref().unwrap_or("?")
        ));
    }
    // Set-up ops are not the run's attempts.
    fx.ledger.attempted = 0;
    Ok(fx)
}

impl Fixture {
    /// Hang up, stop the server and wait for its threads.
    fn tear_down(mut self) -> (Arc<Db>, Ledger) {
        drop(self.wire.take());
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        (self.db, self.ledger)
    }
}

/// Wall time, ops and allocations of the chunks of one kind.
#[derive(Default, Clone, Copy)]
struct ChunkTotals {
    ns: u64,
    ops: u64,
    allocs: u64,
    alloc_bytes: u64,
}

impl ChunkTotals {
    fn ns_per_op(&self) -> f64 {
        self.ns as f64 / self.ops.max(1) as f64
    }
}

/// An engine-global counter. (`MetricsSnapshot::counter` sums a name
/// across labels, which counts `group_commits` once globally and once
/// more per partition.)
fn counter(s: &MetricsSnapshot, name: &'static str) -> f64 {
    s.counter_at(&MetricKey::global(name)) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run in a directory of the run's own, removed afterwards.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    // Unique per process and, for tests' sake, per call within one.
    static RUNS: AtomicU32 = AtomicU32::new(0);
    let run_dir = args.work_dir.join(format!(
        "{}-{}-{}",
        args.workload.name,
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = run_in(args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    // Succeeds only when no other run is using the work directory.
    let _ = std::fs::remove_dir(&args.work_dir);
    result
}

/// What the timed phase leaves behind, besides the ledger and tracer.
struct Phase {
    /// Engine metrics before the first and after the last timed op.
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    /// Untraced chunks, traced chunks.
    totals: [ChunkTotals; 2],
    /// Nanoseconds per calibration unit over the run's slices.
    cu_ns: f64,
    ops: f64,
    /// Means over the chunk boundaries: the end of a run falls at a
    /// random point of the compaction sawtooth, the mean over the run
    /// does not. (Write amplification is cumulative since open.)
    space_amp: f64,
    write_amp: f64,
    ssd_write_amp: f64,
}

impl Phase {
    /// Change of an engine-global counter over the phase.
    fn delta(&self, name: &'static str) -> f64 {
        counter(&self.after, name) - counter(&self.before, name)
    }

    /// Hits ÷ lookups over the phase.
    fn hit_ratio(&self, hits: &'static str, misses: &'static str) -> f64 {
        ratio(self.delta(hits), self.delta(hits) + self.delta(misses))
    }
}

/// 200 chunks, a calibration slice before each; in a traced run the odd
/// chunks record spans and the even ones do not.
fn timed_phase(
    args: &RunArgs,
    fx: &mut Fixture,
    timed: &[u32],
    calib: &mut Calibration,
    tracer: &mut Tracer,
) -> Phase {
    let (kind, scale) = (args.workload.kind, &args.scale);
    let live_bytes = scale.keys as f64 * (KEY_LEN + VALUE_LEN) as f64;
    let before = fx.db.metrics_snapshot();
    let mut totals = [ChunkTotals::default(); 2];
    let (mut space_amp, mut write_amp, mut ssd_write_amp) = (0.0, 0.0, 0.0);
    for (c, chunk) in timed.chunks(scale.ops_per_chunk).enumerate() {
        calib.slice();
        let traced = args.trace && c % 2 == 1;
        let first_request = (c / 2 * scale.ops_per_chunk) as u32;
        let (allocs0, bytes0) = alloc_counts();
        let start = Instant::now();
        if traced {
            issue::<true>(kind, fx, chunk, true, first_request, tracer);
        } else {
            issue::<false>(kind, fx, chunk, true, first_request, tracer);
        }
        let ns = start.elapsed().as_nanos() as u64;
        let (allocs1, bytes1) = alloc_counts();
        let t = &mut totals[traced as usize];
        t.ns += ns;
        t.ops += chunk.len() as u64;
        t.allocs += allocs1 - allocs0;
        t.alloc_bytes += bytes1 - bytes0;
        space_amp += (fx.db.pm_used() as u64 + fx.db.ssd().used()) as f64 / live_bytes;
        let wa = fx.db.write_amp();
        write_amp += wa.factor();
        ssd_write_amp += wa.ssd_bytes as f64 / wa.user_bytes.max(1) as f64;
    }
    let chunks = scale.chunks as f64;
    Phase {
        before,
        after: fx.db.metrics_snapshot(),
        totals,
        cu_ns: calib.cu_ns(),
        ops: timed.len() as f64,
        space_amp: space_amp / chunks,
        write_amp: write_amp / chunks,
        ssd_write_amp: ssd_write_amp / chunks,
    }
}

/// A degenerate workload prints no numbers: say why instead.
fn sanity_breach(kind: Kind, phase: &Phase) -> Option<String> {
    let group_hit_ratio = phase.hit_ratio("pm_group_cache_hit_total", "pm_group_cache_miss_total");
    let read_share_ssd = ratio(phase.delta("reads_from_ssd"), phase.delta("gets"));
    // A hot key lives in PM level-0 or on the SSD levels, so "fits every
    // cache" is judged over both caches' lookups together.
    let hits = phase.delta("pm_group_cache_hit_total") + phase.delta("block_cache_hits");
    let misses = phase.delta("pm_group_cache_miss_total") + phase.delta("block_cache_misses");
    let cache_hit_ratio = ratio(hits, hits + misses);
    let (majors, internals) = (
        phase.delta("major_compactions"),
        phase.delta("internal_compactions"),
    );
    match kind {
        Kind::WriteHeavy if majors < 20.0 => Some(format!(
            "{majors} major compactions in the timed phase, need 20 for write amplification \
             to level off"
        )),
        Kind::WriteHeavy if internals < 200.0 => Some(format!(
            "{internals} internal compactions in the timed phase, need 200"
        )),
        Kind::ReadHot if cache_hit_ratio < 0.95 => Some(format!(
            "cache hit ratio {cache_hit_ratio:.3}, the hot set must fit every cache (0.95)"
        )),
        Kind::ReadCold if group_hit_ratio >= 0.7 => Some(format!(
            "group cache hit ratio {group_hit_ratio:.3}, the working set must not fit (below 0.7)"
        )),
        Kind::ReadCold if read_share_ssd <= 0.2 => Some(format!(
            "{read_share_ssd:.3} of reads reached the SSD levels, need above 0.2"
        )),
        _ => None,
    }
}

fn run_in(args: &RunArgs, run_dir: &Path) -> Result<RunResult, String> {
    let kind = args.workload.kind;
    let scale = &args.scale;
    let timed_ops = scale.timed_ops();
    let inputs = generate(kind, args.seed, scale);
    let mut calib = Calibration::new();
    // Every sample buffer exists before the first timed op.
    let mut tracer = Tracer::new(if args.trace { timed_ops } else { 0 });
    let inputs_ready_s = args.process_start.elapsed().as_secs_f64();

    // Set up several times; the run continues on the last fixture.
    let mut round_s = Vec::with_capacity(scale.setup_rounds);
    let mut fixture = None;
    for _ in 0..scale.setup_rounds.max(1) {
        if let Some(previous) = fixture.take() {
            Fixture::tear_down(previous);
        }
        let start = Instant::now();
        fixture = Some(set_up(kind, &inputs, scale, &mut tracer)?);
        round_s.push(start.elapsed().as_secs_f64());
    }
    let mut fx = fixture.expect("at least one set-up round");
    let setup_s = inputs_ready_s + median(&round_s);
    fx.ledger.virt_ns.reserve_exact(timed_ops);

    let timed = &inputs.ops[scale.warm_ops..];
    let phase = timed_phase(args, &mut fx, timed, &mut calib, &mut tracer);
    eprintln!(
        "# {}: inputs ready at {inputs_ready_s:.2} s, set-up rounds {round_s:.2?} s, \
         {timed_ops} timed ops in {:.2} s, 1 cu = {:.1} ns",
        args.workload.name,
        (phase.totals[0].ns + phase.totals[1].ns) as f64 / 1e9,
        phase.cu_ns,
    );

    // Service-tier probes that would disturb the timed phase.
    let mut service = Service::default();
    if let Some(wire) = fx.wire.as_mut() {
        service.wire_bytes = wire.bytes as f64;
        if args.trace {
            (service.rtt_depth1_p50_us, service.ping_rtt_p50_us) =
                round_trip_medians(wire, &inputs, &mut fx.ledger)?;
        }
    }
    let open_wall_ms = fx.open_wall_ms;
    let (db, mut ledger) = fx.tear_down();
    service.served = db.metrics_snapshot();
    let device_used = (db.pm_used() as f64, db.ssd().used() as f64);
    drop(db);

    // write_heavy ends with the durability probe.
    let durable = if kind == Kind::WriteHeavy {
        durability_probe(timed, scale, run_dir, &mut ledger, &mut tracer)?
    } else {
        Durable::default()
    };

    if let Some(why) = sanity_breach(kind, &phase).filter(|_| scale.sanity_floors) {
        return Err(format!("{} degenerated: {why}", args.workload.name));
    }

    let ops = phase.ops;
    let [untraced, traced] = phase.totals;
    let mut virt_sorted = ledger.virt_ns.clone();
    virt_sorted.sort_unstable();
    let virt_us = |q: f64| percentile_sorted(&virt_sorted, q) as f64 / 1e3;
    // Whole run, set-up included, so that it is never 0 on `read_hot`.
    let dev_read_bytes =
        counter(&phase.after, "pm_bytes_read") + counter(&phase.after, "ssd_bytes_read");
    let end_to_end = vec![
        ("setup_s", setup_s),
        (
            "host_cu_per_op",
            (untraced.ns + traced.ns) as f64 / ops / phase.cu_ns,
        ),
        (
            "virt_mean_us",
            ledger.virt_ns.iter().sum::<u64>() as f64 / ops / 1e3,
        ),
        ("virt_p50_us", virt_us(0.5)),
        ("virt_p99_us", virt_us(0.99)),
        (
            "allocs_per_op",
            (untraced.allocs + traced.allocs) as f64 / ops,
        ),
        (
            "alloc_kib_per_op",
            (untraced.alloc_bytes + traced.alloc_bytes) as f64 / 1024.0 / ops,
        ),
        ("write_amp", phase.write_amp),
        ("ssd_write_amp", phase.ssd_write_amp),
        ("dev_read_kib_per_op", dev_read_bytes / 1024.0 / ops),
        ("space_amp", phase.space_amp),
        ("peak_rss_mib", peak_rss_kib() as f64 / 1024.0),
    ];

    let mut per_layer = Vec::new();
    if args.trace {
        // The ladder, on the sampled keys' preload entries.
        let probes = &timed[..scale.ladder_ops.min(timed.len())];
        let probe_ids: Vec<u32> = probes.iter().map(|op| op & !PUT_BIT).collect();
        let rungs = ladder::run(
            &ladder_entries(&inputs, &probe_ids),
            &probe_ids,
            run_dir,
            &mut calib,
        )?;
        let virt = VirtByCall::split(kind, timed, &ledger.virt_ns);
        per_layer = per_layer_metrics(&phase, &tracer, &virt, &durable, &service, &rungs);
        per_layer.extend([
            ("db.open.wall_ms", open_wall_ms),
            ("pm-device.used_mib_end", device_used.0 / (1 << 20) as f64),
            ("ssd-device.used_mib_end", device_used.1 / (1 << 20) as f64),
        ]);
        per_layer.extend(rungs.metrics);
        // The traced run's copies of the deterministic numbers.
        per_layer.extend(CHECKED.iter().map(|&(check, name)| {
            let (_, value) = end_to_end
                .iter()
                .find(|(n, _)| *n == name)
                .expect("declared");
            (check, *value)
        }));
        if let Some(dir) = &args.out_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = dir.join(format!("trace-{}.json", args.workload.name));
            std::fs::write(&path, tracer.chrome_json(args.workload.name))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }

    Ok(RunResult {
        attempted: ledger.attempted,
        failed: ledger.failed,
        first_failure: ledger.first_failure,
        end_to_end,
        per_layer,
    })
}

/// The deterministic end-to-end metrics a traced run repeats under
/// `check.*`, so that the two runs can be held against each other.
pub const CHECKED: [(&str, &str); 7] = [
    ("check.virt_mean_us", "virt_mean_us"),
    ("check.virt_p50_us", "virt_p50_us"),
    ("check.virt_p99_us", "virt_p99_us"),
    ("check.write_amp", "write_amp"),
    ("check.ssd_write_amp", "ssd_write_amp"),
    ("check.dev_read_kib_per_op", "dev_read_kib_per_op"),
    ("check.space_amp", "space_amp"),
];

/// What the service tier reported outside the timed loop.
#[derive(Default)]
struct Service {
    wire_bytes: f64,
    rtt_depth1_p50_us: f64,
    ping_rtt_p50_us: f64,
    /// Engine (and server) metrics after the server shut down.
    served: MetricsSnapshot,
}

/// Sorted virtual latencies of the timed ops, by the call they made.
struct VirtByCall {
    put: Vec<u64>,
    get: Vec<u64>,
    scan: Vec<u64>,
}

impl VirtByCall {
    fn split(kind: Kind, timed: &[u32], virt_ns: &[u64]) -> VirtByCall {
        let mut v = VirtByCall {
            put: Vec::new(),
            get: Vec::new(),
            scan: Vec::new(),
        };
        for (&op, &ns) in timed.iter().zip(virt_ns) {
            match kind {
                Kind::ScanShort => v.scan.push(ns),
                _ if op & PUT_BIT != 0 => v.put.push(ns),
                _ => v.get.push(ns),
            }
        }
        for samples in [&mut v.put, &mut v.get, &mut v.scan] {
            samples.sort_unstable();
        }
        v
    }
}

/// Every per-layer metric that comes from spans or engine counters.
fn per_layer_metrics(
    phase: &Phase,
    tracer: &Tracer,
    virt: &VirtByCall,
    durable: &Durable,
    service: &Service,
    rungs: &ladder::Rungs,
) -> Vec<(&'static str, f64)> {
    let (cu_ns, ops) = (phase.cu_ns, phase.ops);
    let [untraced, traced] = phase.totals;
    let delta = |name| phase.delta(name);
    let mut out = Vec::new();
    let mut put = |name: &'static str, value: f64| out.push((name, value));

    put("harness.cu_ns", cu_ns);
    put("harness.wall_us_per_op", untraced.ns_per_op() / 1e3);
    let request = tracer.agg(SpanName::Request);
    put(
        "harness.request_self_cu_per_op",
        ratio(request.self_ns as f64, request.count as f64) / cu_ns,
    );
    put(
        "trace.overhead_share",
        ratio(traced.ns_per_op(), untraced.ns_per_op()) - 1.0,
    );

    // Spans around the calls. Over the wire the engine call is the
    // server's, but its virtual latency arrives with every reply, so the
    // virtual p99.9 is over every timed op of that kind either way.
    let calls: [(SpanName, [&'static str; 4], &[u64]); 3] = [
        (
            SpanName::DbPut,
            [
                "db.put.cu_per_op",
                "db.put.wall_p50_us",
                "db.put.wall_p99_us",
                "db.put.virt_p999_us",
            ],
            &virt.put,
        ),
        (
            SpanName::DbGet,
            [
                "db.get.cu_per_op",
                "db.get.wall_p50_us",
                "db.get.wall_p99_us",
                "db.get.virt_p999_us",
            ],
            &virt.get,
        ),
        (
            SpanName::DbScan,
            [
                "db.scan.cu_per_op",
                "db.scan.wall_p50_us",
                "db.scan.wall_p99_us",
                "db.scan.virt_p999_us",
            ],
            &virt.scan,
        ),
    ];
    for (span, names, virt) in calls {
        let agg = tracer.agg(span);
        let mut wall = agg.durations.clone();
        wall.sort_unstable();
        put(
            names[0],
            ratio(agg.total_ns as f64, agg.count as f64) / cu_ns,
        );
        put(names[1], percentile_sorted(&wall, 0.5) as f64 / 1e3);
        put(names[2], percentile_sorted(&wall, 0.99) as f64 / 1e3);
        put(names[3], percentile_sorted(virt, 0.999) as f64 / 1e3);
    }
    for (span, name) in [
        (SpanName::Encode, "protocol.encode_cu_per_op"),
        (SpanName::Decode, "protocol.decode_cu_per_op"),
        (
            SpanName::SocketWrite,
            "pm-blade-client.socket_write_cu_per_op",
        ),
        (SpanName::WaitRead, "pm-blade-client.wait_read_cu_per_op"),
    ] {
        put(
            name,
            ratio(tracer.agg(span).total_ns as f64, traced.ops as f64) / cu_ns,
        );
    }

    // The service tier's own numbers.
    put(
        "pm-blade-server.rtt_depth1_p50_us",
        service.rtt_depth1_p50_us,
    );
    put("pm-blade-server.ping_rtt_p50_us", service.ping_rtt_p50_us);
    put(
        "pm-blade-server.wire_bytes_per_op",
        service.wire_bytes / ops,
    );
    let served = |name| counter(&service.served, name);
    put(
        "pm-blade-server.requests_total",
        served("server_ping_total") + served("server_put_total") + served("server_get_total"),
    );
    put(
        "pm-blade-server.errors_total",
        served("server_errors_total"),
    );
    put(
        "pm-blade-server.throttled_total",
        served("server_throttled_total"),
    );

    // The durability probe (write_heavy only).
    put("recovery.reopen_wall_ms", durable.reopen_wall_ms);
    put("recovery.tables_reopened", durable.tables_reopened);
    put(
        "recovery.wal_records_replayed",
        durable.wal_records_replayed,
    );
    put("memtable.wal_appends", durable.wal_appends);
    // The engine exposes no WAL byte counter: its append count times the
    // bytes per record the ladder's standalone `Wal` measured.
    put(
        "memtable.wal_kib_per_op",
        ratio(
            durable.wal_appends * rungs.wal_bytes_per_record / 1024.0,
            durable.ops,
        ),
    );
    put("manifest.edits", durable.manifest_edits);

    // Counter deltas over the timed phase.
    put("memtable.flushes", delta("minor_compactions"));
    put("commit.group_commits", delta("group_commits"));
    put(
        "commit.writes_per_group",
        ratio(delta("grouped_writes"), delta("group_commits")),
    );
    put(
        "partition.internal_compactions",
        delta("internal_compactions"),
    );
    put("partition.major_compactions", delta("major_compactions"));
    let spans = phase.after.delta(&phase.before).spans;
    let virt_ms = |kind: SpanKind| {
        spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.duration().as_millis_f64())
            .sum::<f64>()
    };
    put("partition.minor_virt_ms", virt_ms(SpanKind::Flush));
    put("partition.internal_virt_ms", virt_ms(SpanKind::Internal));
    put("partition.major_virt_ms", virt_ms(SpanKind::Major));
    put(
        "partition.internal_dropped_records",
        delta("internal_dropped_records"),
    );
    put(
        "partition.internal_space_released_kib",
        delta("internal_space_released") / 1024.0,
    );
    let probed = |s: &MetricsSnapshot| {
        s.histograms
            .get(&MetricKey::global("pm_tables_probed_per_get"))
            .map_or((0.0, 0.0), |h| (h.sum_nanos as f64, h.count as f64))
    };
    let (probed0, probed1) = (probed(&phase.before), probed(&phase.after));
    put(
        "level0.tables_probed_per_get",
        ratio(probed1.0 - probed0.0, probed1.1 - probed0.1),
    );
    let unsorted: i64 = phase
        .after
        .gauges
        .iter()
        .filter(|(k, _)| k.name == "l0_unsorted_tables")
        .map(|(_, v)| *v)
        .sum();
    put("level0.unsorted_tables_end", unsorted as f64);
    let (gets, checked) = (delta("gets"), delta("pm_filter_checked_total"));
    put("level0.filter_checked_per_get", ratio(checked, gets));
    put(
        "level0.filter_prune_ratio",
        ratio(delta("pm_filter_useful_total"), checked),
    );
    put(
        "groupcache.hit_ratio",
        phase.hit_ratio("pm_group_cache_hit_total", "pm_group_cache_miss_total"),
    );
    put(
        "groupcache.evictions",
        delta("pm_group_cache_evictions_total"),
    );
    put(
        "sstable.block_cache_hit_ratio",
        phase.hit_ratio("block_cache_hits", "block_cache_misses"),
    );
    put(
        "sstable.block_cache_evictions",
        delta("block_cache_evictions"),
    );
    put(
        "db.read_share_memtable",
        ratio(delta("reads_from_memtable"), gets),
    );
    put("db.read_share_pm", ratio(delta("reads_from_pm"), gets));
    put("db.read_share_ssd", ratio(delta("reads_from_ssd"), gets));
    put("db.write_stalls", delta("write_stalls"));
    put("db.write_slowdowns", delta("write_slowdowns"));
    put("maintenance.jobs_failed", delta("maintenance_jobs_failed"));
    for (name, counter) in [
        ("pm-device.write_kib_per_op", "pm_bytes_written"),
        ("pm-device.read_kib_per_op", "pm_bytes_read"),
        ("ssd-device.write_kib_per_op", "ssd_bytes_written"),
        ("ssd-device.read_kib_per_op", "ssd_bytes_read"),
    ] {
        put(name, delta(counter) / 1024.0 / ops);
    }
    out
}

/// What the durability probe measured (zeros on other workloads).
#[derive(Default)]
struct Durable {
    ops: f64,
    wal_appends: f64,
    manifest_edits: f64,
    reopen_wall_ms: f64,
    tables_reopened: f64,
    wal_records_replayed: f64,
}

/// Puts of the timed stream that the durability probe replays.
const DURABLE_OPS: usize = 20_000;

/// `write_heavy`'s timed phase runs on in-memory devices, because with
/// a `wal_dir` every flush, compaction and manifest edit waits for the
/// box's disk (about 110 us per put on the reference box's ext4, and
/// the contract keeps the benchmark's files inside the checkout, so not
/// on tmpfs). The WAL, manifest and recovery layers get this bounded
/// probe instead: a second engine with WAL and manifest on (no
/// per-write sync, the engine default) takes the first `DURABLE_OPS`
/// puts of the same stream, then `sync_wal()`, drop, `Db::open` on the
/// same directory, and every key written is read back.
fn durability_probe(
    timed: &[u32],
    scale: &Scale,
    run_dir: &Path,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
) -> Result<Durable, String> {
    let dir = run_dir.join("durable");
    let puts = &timed[..DURABLE_OPS.min(timed.len())];
    let db = Db::open(engine_options(scale.keys, Some(dir.clone())))
        .map_err(|e| format!("durable open: {e}"))?;
    kv_ops::<false>(&db, ledger, puts, false, 0, tracer);
    db.sync_wal().map_err(|e| format!("sync_wal: {e}"))?;
    let written = db.metrics_snapshot();
    drop(db);
    let start = Instant::now();
    let reopened =
        Db::open(engine_options(scale.keys, Some(dir))).map_err(|e| format!("reopen: {e}"))?;
    let reopen_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let recovered = reopened.metrics_snapshot();
    // The ledger's oracle holds the newest stamp of every key, probe
    // puts included, and the probe engine holds only the probe's keys.
    let mut keys: Vec<u32> = puts.iter().map(|op| op & !PUT_BIT).collect();
    keys.sort_unstable();
    keys.dedup();
    kv_ops::<false>(&reopened, ledger, &keys, false, 0, tracer);
    Ok(Durable {
        ops: puts.len() as f64,
        wal_appends: counter(&written, "wal_appends"),
        manifest_edits: counter(&written, "manifest_edits_total"),
        reopen_wall_ms,
        tables_reopened: counter(&recovered, "recovery_tables_reopened"),
        wal_records_replayed: counter(&recovered, "recovery_wal_records_replayed"),
    })
}

/// The preload entries of the distinct sampled keys, in key order.
fn ladder_entries(inputs: &Inputs, probe_ids: &[u32]) -> Vec<OwnedEntry> {
    let noise = NoisePool::new(&mut Rng::new(inputs.noise_seed));
    let mut stamp_of = vec![0u64; inputs.perm.len()];
    for (i, &id) in inputs.perm.iter().enumerate() {
        stamp_of[id as usize] = i as u64 + 1;
    }
    let mut ids = probe_ids.to_vec();
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter()
        .map(|id| {
            let stamp = stamp_of[id as usize];
            let mut value = [0u8; VALUE_LEN];
            write_value(&mut value, id, stamp, noise.at(stamp));
            OwnedEntry::value(key_of(id).to_vec(), stamp, value.to_vec())
        })
        .collect()
}

/// Median wall µs of depth-1 get round trips and of pings.
fn round_trip_medians(
    wire: &mut Wire,
    inputs: &Inputs,
    ledger: &mut Ledger,
) -> Result<(f64, f64), String> {
    let mut get_ns = Vec::with_capacity(RTT_SAMPLES);
    let mut ping_ns = Vec::with_capacity(RTT_SAMPLES);
    for i in 0..RTT_SAMPLES {
        let id = inputs.perm[i % inputs.perm.len()];
        let request = Request::Get {
            key: key_of(id).to_vec(),
        };
        let start = Instant::now();
        let reply = wire.round_trip(&request)?;
        get_ns.push(start.elapsed().as_nanos() as u64);
        ledger.attempted += 1;
        match reply {
            Response::Value { value, .. } if ledger.oracle.get_ok(id, value.as_deref()) => {}
            other => ledger.fail(|| format!("depth-1 get user{id:010}: {other:?}")),
        }
        let start = Instant::now();
        let reply = wire.round_trip(&Request::Ping)?;
        ping_ns.push(start.elapsed().as_nanos() as u64);
        if reply != Response::Pong {
            ledger.fail(|| format!("ping: {reply:?}"));
        }
    }
    get_ns.sort_unstable();
    ping_ns.sort_unstable();
    Ok((
        percentile_sorted(&get_ns, 0.5) as f64 / 1e3,
        percentile_sorted(&ping_ns, 0.5) as f64 / 1e3,
    ))
}
