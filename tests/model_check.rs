//! Model checking: the engine must behave exactly like a `BTreeMap`
//! reference model under arbitrary interleavings of writes, deletes,
//! reads, scans, flushes and compactions — in every engine mode.

use std::collections::BTreeMap;

use pm_blade::{CompactionRequest, Db, Mode, Partitioner, ScanRequest};
use pmblade_integration_tests::{pm_unreferenced_bytes, tiny_db, tiny_options, value_for};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Put(u16, u16),
    Delete(u16),
    Get(u16),
    Scan(u16, u8),
    /// A scan of `[start, start + span)` (`span` 0 = no end bound)
    /// keeping at most `limit` rows (0 = no limit), from either end.
    Range {
        start: u16,
        span: u16,
        limit: u8,
        reverse: bool,
    },
    Flush,
    Internal,
    Major,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0u16..300, 0u16..100).prop_map(|(k, v)| Op::Put(k, v)),
        1 => (0u16..300).prop_map(Op::Delete),
        3 => (0u16..300).prop_map(Op::Get),
        1 => (0u16..300, 1u8..30).prop_map(|(k, n)| Op::Scan(k, n)),
        2 => (0u16..300, 0u16..120, 0u8..12, proptest::bool::ANY).prop_map(
            |(start, span, limit, reverse)| Op::Range { start, span, limit, reverse }
        ),
        1 => Just(Op::Flush),
        1 => Just(Op::Internal),
        1 => Just(Op::Major),
    ]
}

fn key(k: u16) -> Vec<u8> {
    format!("key{:05}", k).into_bytes()
}

fn check_mode(mode: Mode, ops: &[Op]) {
    // Two range partitions, so scans (reverse ones above all) cross a
    // partition boundary; `Internal` / `Major` compact the lower one.
    let mut opts = tiny_options(mode);
    opts.partitioner = Partitioner(vec![key(150)]);
    let db = Db::open(opts).unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Put(k, v) => {
                let value = value_for(*k as u64 * 1000 + *v as u64, 48);
                db.put(&key(*k), &value).unwrap();
                model.insert(key(*k), value);
            }
            Op::Delete(k) => {
                db.delete(&key(*k)).unwrap();
                model.remove(&key(*k));
            }
            Op::Get(k) => {
                let got = db.get(&key(*k)).unwrap().value;
                let want = model.get(&key(*k)).cloned();
                assert_eq!(got, want, "step {step}: {mode:?} get({k}) diverged");
            }
            Op::Scan(k, n) => {
                let start = key(*k);
                let (rows, _) = db
                    .scan(ScanRequest::new().start(start.clone()).limit(*n as usize))
                    .unwrap();
                let want: Vec<(Vec<u8>, Vec<u8>)> = model
                    .range(start..)
                    .take(*n as usize)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(rows, want, "step {step}: {mode:?} scan({k},{n}) diverged");
            }
            Op::Range {
                start,
                span,
                limit,
                reverse,
            } => {
                let (start, end) = (key(*start), (*span > 0).then(|| key(start + span)));
                let limit = if *limit == 0 {
                    usize::MAX
                } else {
                    *limit as usize
                };
                let request = ScanRequest::new()
                    .start(start.clone())
                    .end_bound(end.clone())
                    .limit(limit)
                    .reverse(*reverse);
                let (rows, _) = db.scan(request).unwrap();
                let range = match end {
                    Some(end) => model.range(start..end),
                    None => model.range(start..),
                };
                let pairs = range.map(|(k, v)| (k.clone(), v.clone()));
                let want: Vec<(Vec<u8>, Vec<u8>)> = if *reverse {
                    pairs.rev().take(limit).collect()
                } else {
                    pairs.take(limit).collect()
                };
                assert_eq!(rows, want, "step {step}: {mode:?} {op:?} diverged");
            }
            Op::Flush => db.compact(CompactionRequest::FlushAll).unwrap(),
            Op::Internal => db
                .compact(CompactionRequest::Internal { partition: 0 })
                .unwrap(),
            Op::Major => db
                .compact(CompactionRequest::Major { partition: 0 })
                .unwrap(),
        }
    }
    // Final audit: every model key readable, every deleted key absent,
    // and every PM byte in use belongs to level-0.
    for (k, v) in &model {
        assert_eq!(db.get(k).unwrap().value.as_ref(), Some(v));
    }
    assert_eq!(pm_unreferenced_bytes(&db), 0, "{mode:?}");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, ..ProptestConfig::default()
    })]

    #[test]
    fn pmblade_matches_model(
        ops in proptest::collection::vec(op_strategy(), 1..180)
    ) {
        check_mode(Mode::PmBlade, &ops);
    }

    #[test]
    fn pmblade_pm_matches_model(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        check_mode(Mode::PmBladePm, &ops);
    }

    #[test]
    fn ssd_level0_matches_model(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        check_mode(Mode::SsdLevel0, &ops);
    }

    #[test]
    fn matrixkv_matches_model(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        check_mode(Mode::MatrixKv, &ops);
    }
}

/// A targeted regression: interleaving deletes with compactions at every
/// boundary (the classic LSM resurrection bug family).
#[test]
fn delete_resurrection_sweep() {
    for mode in [
        Mode::PmBlade,
        Mode::PmBladePm,
        Mode::SsdLevel0,
        Mode::MatrixKv,
    ] {
        let db = tiny_db(mode);
        db.put(&key(1), b"v1").unwrap();
        db.compact(CompactionRequest::FlushAll).unwrap();
        db.compact(CompactionRequest::Major { partition: 0 })
            .unwrap(); // value at the bottom
        db.delete(&key(1)).unwrap();
        db.compact(CompactionRequest::FlushAll).unwrap(); // tombstone in level-0
        assert_eq!(db.get(&key(1)).unwrap().value, None, "{mode:?} L0");
        db.compact(CompactionRequest::Internal { partition: 0 })
            .unwrap();
        assert_eq!(
            db.get(&key(1)).unwrap().value,
            None,
            "{mode:?} after internal compaction"
        );
        db.compact(CompactionRequest::Major { partition: 0 })
            .unwrap();
        assert_eq!(
            db.get(&key(1)).unwrap().value,
            None,
            "{mode:?} after major compaction"
        );
        // And the key can come back to life legitimately.
        db.put(&key(1), b"v2").unwrap();
        assert_eq!(
            db.get(&key(1)).unwrap().value.as_deref(),
            Some(&b"v2"[..]),
            "{mode:?} rebirth"
        );
    }
}
