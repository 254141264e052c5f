//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. prefix-group size (8 vs 16) in the PM table;
//! 2. partition count for the same workload;
//! 3. flush coroutine and pressure gate, toggled independently.

use bench::{pct, us, Table};
use coroutine::{Policy, Scheduler, SchedulerConfig, TraceParams};
use pm_blade::{Db, Options, Partitioner};
use pmtable::{DramBuf, MetaExtractor, PmTable, PmTableBuilder, PmTableOptions};
use sim::{CostModel, Pcg64, Timeline};

fn group_size_ablation() {
    let mut table = Table::new(
        "Ablation 1 — PM table group size (64k index entries)",
        &["group", "encoded bytes", "build time", "mean get"],
    );
    let entries = bench::index_entries(64_000, 16, 3);
    let cost = CostModel::default();
    for &group_size in &[4usize, 8, 16, 32, 64] {
        let mut b = PmTableBuilder::new(PmTableOptions {
            group_size,
            extractor: MetaExtractor::Delimiter(b':'),
            filter_bits_per_key: 0,
            codec: pmtable::CodecMode::Prefix,
        });
        for e in &entries {
            b.add(e.clone());
        }
        let mut build = Timeline::new();
        let (bytes, (stats, _)) = b.finish(&cost, &mut build);
        let t = PmTable::open(DramBuf::new(bytes, cost)).unwrap();
        let mut rng = Pcg64::seeded(8);
        let mut read = Timeline::new();
        let probes = 2_000;
        for _ in 0..probes {
            let e = &entries[rng.next_below(entries.len() as u64) as usize];
            t.get(&e.user_key, u64::MAX, &mut read).expect("hit");
        }
        table.row(&[
            group_size.to_string(),
            stats.encoded_bytes.to_string(),
            us(build.elapsed()),
            us(read.elapsed() / probes),
        ]);
    }
    table.print();
    println!(
        "\nlarger groups compress better but scan more per lookup; the \
         paper uses 8-16"
    );
}

fn partition_ablation() {
    let mut table = Table::new(
        "Ablation 2 — partition count (8 MiB updates, skew 0.8)",
        &["partitions", "pm hit", "wa factor", "internal compactions"],
    );
    for &parts in &[1usize, 2, 4, 8, 16] {
        let mut opts: Options = bench::pmblade();
        opts.partitioner = Partitioner::numeric("user", 8_000, parts);
        let mut db = Db::open(opts).unwrap();
        bench::load_data(&mut db, 8 << 20, 1024, 0.0, 91);
        let mut rng = Pcg64::seeded(92);
        let dist = workloads::KeyDistribution::zipfian(8_000, 0.8);
        let value = vec![0u8; 1024];
        for i in 0..12_000 {
            let k = format!("user{:010}", dist.sample(&mut rng, 8_000));
            if i % 2 == 0 {
                db.get(k.as_bytes()).unwrap();
            } else {
                db.put(k.as_bytes(), &value).unwrap();
            }
        }
        let wa = db.write_amp();
        let (pm, ssd, user) = (wa.pm_bytes, wa.ssd_bytes, wa.user_bytes);
        table.row(&[
            parts.to_string(),
            pct(db.stats().pm_hit_ratio()),
            format!("{:.1}x", (pm + ssd) as f64 / user.max(1) as f64),
            db.stats().internal_compactions.get().to_string(),
        ]);
    }
    table.print();
    println!(
        "\nmore partitions let retention keep hot ranges while evicting \
         cold ones"
    );
}

fn scheduler_ablation() {
    let mut table = Table::new(
        "Ablation 3 — flush coroutine and pressure gate",
        &["config", "duration", "cpu util", "io latency"],
    );
    let params = TraceParams {
        input_bytes: 8 << 20,
        value_size: 512,
        dup_ratio: 0.3,
        ..TraceParams::default()
    };
    let tasks = coroutine::trace::split(&params, 4, 17);
    let configs = [
        (
            "naive (no flush coroutine)",
            Policy::NaiveCoroutine,
            4u64,
            0u64,
        ),
        ("flush coroutine, gate off (q=64)", Policy::PmBlade, 64, 0),
        ("flush coroutine + gate (q=4)", Policy::PmBlade, 4, 0),
        // With foreground reads sharing the device, the gate defers
        // compaction writes instead of piling onto the queue.
        ("gate off + client reads", Policy::PmBlade, 64, 3),
        ("gate on  + client reads", Policy::PmBlade, 4, 3),
    ];
    for (name, policy, q, client) in configs {
        let report = Scheduler::new(SchedulerConfig {
            policy,
            cores: 2,
            max_io: q,
            client_io: client,
            ..SchedulerConfig::default()
        })
        .run(&tasks);
        table.row(&[
            name.to_string(),
            bench::ms(report.duration),
            pct(report.cpu_utilization),
            us(report.io_mean_latency),
        ]);
    }
    table.print();
    println!(
        "\nthe flush coroutine removes S2 fragmentation; the gate keeps \
         I/O latency flat"
    );
}

fn main() {
    group_size_ablation();
    partition_ablation();
    scheduler_ablation();
}
