//! The layer ladder: each rung replays a sample of the workload's own
//! key stream against one layer's public API, on standalone structures
//! built from the same preload entries, on both clocks plus
//! allocations. A gap between adjacent rungs names the guilty layer.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use encoding::bloom::BloomFilter;
use memtable::wal::{Wal, WalRecord};
use memtable::MemTable;
use pm_blade::protocol::{Request, Response};
use pmtable::{
    CodecMode, DramBuf, MetaExtractor, NoGroupCache, OwnedEntry, PmTable, PmTableBuilder,
    PmTableOptions,
};
use sim::{CostModel, Timeline};
use sstable::{BlockCache, SsTable, SsTableBuilder, SsTableOptions};

use crate::gen::key_of;
use crate::host::{alloc_counts, Calibration, CALIBRATION_SLICE_OPS};
use crate::oracle::SCAN_LIMIT;
use crate::stats::median;

/// Ops of the workload's stream a rung replays.
pub const LADDER_OPS: usize = 20_000;
/// Scan rungs replay fewer starts: each returns `SCAN_LIMIT` rows.
const LADDER_SCANS: usize = 2_000;
const REPS: usize = 3;

pub struct Rungs {
    pub metrics: Vec<(&'static str, f64)>,
    /// Bytes one record took in the standalone WAL.
    pub wal_bytes_per_record: f64,
}

struct Measured {
    cu_per_op: f64,
    allocs_per_op: f64,
}

/// Time `body` (which returns how many ops it did) `REPS` times, each
/// after a calibration slice of its own, and keep the median ratio.
fn measure(calib: &mut Calibration, mut body: impl FnMut() -> u64) -> Measured {
    let mut ratios = Vec::with_capacity(REPS);
    let mut allocs_per_op = 0.0;
    for rep in 0..REPS {
        let slice_ns = calib.slice();
        let cu_ns = slice_ns as f64 / CALIBRATION_SLICE_OPS as f64;
        let (allocs0, _) = alloc_counts();
        let start = Instant::now();
        let ops = body().max(1);
        let ns = start.elapsed().as_nanos() as f64;
        if rep == 0 {
            allocs_per_op = (alloc_counts().0 - allocs0) as f64 / ops as f64;
        }
        ratios.push(ns / ops as f64 / cu_ns);
    }
    Measured {
        cu_per_op: median(&ratios),
        allocs_per_op,
    }
}

/// Run every rung. `entries` are the preload entries of the sampled
/// keys in internal-key order; `probes` the sampled key ids in stream
/// order; `scratch` a directory the WAL rung may write in.
pub fn run(
    entries: &[OwnedEntry],
    probes: &[u32],
    scratch: &Path,
    calib: &mut Calibration,
) -> Result<Rungs, String> {
    let cost = CostModel::default();
    let n = entries.len() as f64;
    let keys: Vec<[u8; crate::gen::KEY_LEN]> = probes.iter().map(|&id| key_of(id)).collect();
    let scans = &keys[..keys.len().min(LADDER_SCANS)];
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let us = |tl: &Timeline, ops: f64| tl.elapsed().as_micros_f64() / ops.max(1.0);

    // encoding
    let bloom = BloomFilter::build(
        entries.iter().map(|e| e.user_key.as_slice()),
        entries.len(),
        10,
    );
    let m = measure(calib, || {
        let hits = keys.iter().filter(|k| bloom.may_contain(&k[..])).count();
        std::hint::black_box(hits);
        keys.len() as u64
    });
    out.push(("encoding.bloom_probe_cu", m.cu_per_op));
    let block: Vec<u8> = entries
        .iter()
        .flat_map(|e| e.value.iter().copied())
        .take(64 << 10)
        .collect();
    let m = measure(calib, || {
        for _ in 0..64 {
            std::hint::black_box(encoding::crc::crc32c(std::hint::black_box(&block)));
        }
        (64 * block.len() as u64).div_ceil(1024)
    });
    out.push(("encoding.crc32c_cu_per_kib", m.cu_per_op));

    // pmtable
    let table_opts = PmTableOptions {
        group_size: 16,
        extractor: MetaExtractor::None,
        filter_bits_per_key: 10,
        codec: CodecMode::Auto,
    };
    let mut built = None;
    let mut build_tl = Timeline::new();
    let mut inputs: Vec<Vec<OwnedEntry>> = (0..REPS).map(|_| entries.to_vec()).collect();
    let m = measure(calib, || {
        let mut builder = PmTableBuilder::new(table_opts);
        for e in inputs.pop().expect("one input per rep") {
            builder.add(e);
        }
        build_tl = Timeline::new();
        built = Some(builder.finish(&cost, &mut build_tl));
        entries.len() as u64
    });
    let (bytes, _) = built.expect("at least one rep ran");
    out.push(("pmtable.build_cu_per_entry", m.cu_per_op));
    out.push(("pmtable.build_virt_us_per_entry", us(&build_tl, n)));
    out.push(("pmtable.bytes_per_entry", bytes.len() as f64 / n.max(1.0)));
    let table = PmTable::open(DramBuf::new(bytes, cost)).map_err(|e| format!("pmtable: {e}"))?;
    let mut tl = Timeline::new();
    let mut missing = 0u64;
    let m = measure(calib, || {
        tl = Timeline::new();
        for k in &keys {
            if table
                .get_with_cache(&k[..], u64::MAX, &mut tl, &NoGroupCache)
                .is_none()
            {
                missing += 1;
            }
        }
        keys.len() as u64
    });
    out.push(("pmtable.get_cu", m.cu_per_op));
    out.push(("pmtable.get_virt_us", us(&tl, keys.len() as f64)));
    out.push(("pmtable.get_allocs", m.allocs_per_op));
    let m = measure(calib, || {
        let mut rows = 0u64;
        for k in scans {
            rows += table
                .scan_range(&k[..], None, SCAN_LIMIT, &mut Timeline::new())
                .len() as u64;
        }
        rows
    });
    out.push(("pmtable.scan_cu_per_row", m.cu_per_op));

    // memtable: insert in preload (sequence) order, which is a random
    // order of keys, as the engine's memtable sees them.
    let mut by_seq: Vec<&OwnedEntry> = entries.iter().collect();
    by_seq.sort_by_key(|e| e.seq);
    let mut mem = MemTable::new(cost);
    let m = measure(calib, || {
        mem = MemTable::new(cost);
        let mut tl = Timeline::new();
        for e in &by_seq {
            mem.insert(&e.user_key, e.seq, e.kind, &e.value, &mut tl);
        }
        by_seq.len() as u64
    });
    out.push(("memtable.insert_cu", m.cu_per_op));
    let m = measure(calib, || {
        let mut tl = Timeline::new();
        for k in &keys {
            if mem.get(&k[..], u64::MAX, &mut tl).is_none() {
                missing += 1;
            }
        }
        keys.len() as u64
    });
    out.push(("memtable.get_cu", m.cu_per_op));
    let records: Vec<WalRecord> = by_seq
        .iter()
        .map(|e| WalRecord {
            seq: e.seq,
            kind: e.kind,
            user_key: e.user_key.clone(),
            value: e.value.clone(),
        })
        .collect();
    let wal_path = scratch.join("ladder.wal");
    let mut wal_bytes_per_record = 0.0;
    let mut wal_error = None;
    let m = measure(calib, || {
        let mut tl = Timeline::new();
        match Wal::create(&wal_path, cost) {
            Ok(mut wal) => {
                for rec in &records {
                    if let Err(e) = wal.append(rec, &mut tl) {
                        wal_error = Some(e.to_string());
                    }
                }
                wal_bytes_per_record = wal.bytes_written() as f64 / records.len().max(1) as f64;
            }
            Err(e) => wal_error = Some(e.to_string()),
        }
        records.len() as u64
    });
    let _ = std::fs::remove_file(&wal_path);
    if let Some(e) = wal_error {
        return Err(format!("ladder wal: {e}"));
    }
    out.push(("memtable.wal_append_cu", m.cu_per_op));

    // sstable
    let device = ssd_device::SsdDevice::new(cost);
    let mut rep = 0;
    let mut build_error = None;
    let m = measure(calib, || {
        rep += 1;
        let mut tl = Timeline::new();
        let built =
            SsTableBuilder::new(&device, format!("ladder-{rep}"), SsTableOptions::default())
                .and_then(|mut b| {
                    for e in entries {
                        b.add(&e.user_key, e.seq, e.kind, &e.value, &mut tl);
                    }
                    b.finish(&mut tl)
                });
        if let Err(e) = built {
            build_error = Some(e.to_string());
        }
        entries.len() as u64
    });
    if let Some(e) = build_error {
        return Err(format!("ladder sstable: {e}"));
    }
    out.push(("sstable.build_cu_per_entry", m.cu_per_op));
    let open = |cache: BlockCache| {
        SsTable::open(&device, "ladder-1", Arc::new(cache), &mut Timeline::new())
            .map_err(|e| format!("ladder sstable: {e}"))
    };
    let warm = open(BlockCache::new(256 << 20))?;
    warm.scan_all(&mut Timeline::new())
        .map_err(|e| format!("ladder sstable: {e}"))?;
    let mut get_all = |table: &SsTable, tl: &mut Timeline| {
        for k in &keys {
            if !matches!(table.get(&k[..], u64::MAX, tl), Ok(Some(_))) {
                missing += 1;
            }
        }
        keys.len() as u64
    };
    let m = measure(calib, || get_all(&warm, &mut Timeline::new()));
    out.push(("sstable.get_warm_cu", m.cu_per_op));
    let cold = open(BlockCache::disabled())?;
    let mut tl = Timeline::new();
    let m = measure(calib, || {
        tl = Timeline::new();
        get_all(&cold, &mut tl)
    });
    out.push(("sstable.get_cold_cu", m.cu_per_op));
    out.push(("sstable.get_cold_virt_us", us(&tl, keys.len() as f64)));
    let m = measure(calib, || {
        let mut rows = 0u64;
        for k in scans {
            rows += warm
                .scan_range(&k[..], None, SCAN_LIMIT, &mut Timeline::new())
                .map_or(0, |r| r.len() as u64);
        }
        rows
    });
    out.push(("sstable.scan_cu_per_row", m.cu_per_op));

    // pm-blade: the merge behind scans and every compaction. Two runs:
    // the sample, and a newer version of every fourth key.
    let newer: Vec<OwnedEntry> = entries
        .iter()
        .step_by(4)
        .map(|e| OwnedEntry::value(e.user_key.clone(), e.seq + (1 << 40), e.value.clone()))
        .collect();
    let records_in = (entries.len() + newer.len()) as u64;
    let mut merge_inputs: Vec<Vec<Vec<OwnedEntry>>> = (0..REPS)
        .map(|_| vec![newer.clone(), entries.to_vec()])
        .collect();
    let mut merged_len = 0;
    let m = measure(calib, || {
        let sources = merge_inputs.pop().expect("one input per rep");
        merged_len =
            pm_blade::handle::merge_dedup(sources, false, &cost, &mut Timeline::new()).len();
        records_in
    });
    if merged_len != entries.len() {
        return Err(format!(
            "ladder merge_dedup kept {merged_len} of {} keys",
            entries.len()
        ));
    }
    out.push(("pm-blade.merge_dedup_cu_per_record", m.cu_per_op));
    out.push(("pm-blade.merge_dedup_allocs_per_record", m.allocs_per_op));

    // protocol: encode + decode of one request and one response.
    let value = entries.first().map(|e| e.value.clone());
    let mut wire_error = false;
    let m = measure(calib, || {
        for k in &keys {
            let request = Request::Get { key: k.to_vec() }.encode_payload();
            let response = Response::Value {
                value: value.clone(),
                latency_nanos: 1_234,
            }
            .encode_payload();
            wire_error |= Request::decode(&request).is_err() | Response::decode(&response).is_err();
        }
        keys.len() as u64
    });
    if wire_error {
        return Err("ladder protocol round trip failed to decode".into());
    }
    out.push(("pm-blade.protocol_roundtrip_cu", m.cu_per_op));

    if missing > 0 {
        return Err(format!(
            "ladder: {missing} lookups of sampled keys found nothing"
        ));
    }
    Ok(Rungs {
        metrics: out,
        wal_bytes_per_record,
    })
}
