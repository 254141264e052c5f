//! Every workload end to end at a tiny scale: the oracle passes, the
//! result line carries exactly the declared metrics, and tracing does
//! not change a deterministic number.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

use pmblade_benchmark::json::Json;
use pmblade_benchmark::run::{run, RunArgs, RunResult, Scale};
use pmblade_benchmark::spec::{Kind, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use pmblade_benchmark::suite::result_line;

fn tiny() -> Scale {
    Scale {
        keys: 4_000,
        chunks: 4,
        ops_per_chunk: 64,
        warm_ops: 32,
        setup_rounds: 1,
        ladder_ops: 200,
        sanity_floors: false,
    }
}

fn tiny_run(workload: &Workload, seed: u64, trace: bool) -> RunResult {
    let work_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.work"));
    let result = run(&RunArgs {
        workload,
        seed,
        trace,
        scale: tiny(),
        work_dir,
        out_dir: None,
        process_start: Instant::now(),
    })
    .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
    assert_eq!(
        result.failed, 0,
        "{}: {:?}",
        workload.name, result.first_failure
    );
    assert!(result.attempted >= 256, "{}", workload.name);
    result
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// One test, so the runs are sequential: the counting allocator sees the
/// whole process, and a run beside another would not repeat its counts.
#[test]
fn tiny_runs() {
    every_workload_emits_every_declared_metric();
    tracing_changes_no_deterministic_number();
}

fn every_workload_emits_every_declared_metric() {
    assert!(WORKLOADS.len() <= 8 && END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    for workload in &WORKLOADS {
        for trace in [false, true] {
            let result = tiny_run(workload, 3, trace);
            let (metrics, declared): (_, BTreeSet<&str>) = if trace {
                (
                    &result.per_layer,
                    PER_LAYER.iter().map(|m| m.name).collect(),
                )
            } else {
                (
                    &result.end_to_end,
                    END_TO_END.iter().map(|m| m.name).collect(),
                )
            };
            let line = result_line(true, result.attempted, result.failed, metrics);
            assert!(!line.contains('\n'));
            let doc = Json::parse(&line).expect("result line is JSON");
            let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let emitted = doc.get("metrics").expect("metrics").fields();
            let names: BTreeSet<&str> = emitted.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                names.len(),
                emitted.len(),
                "{}: a name twice",
                workload.name
            );
            assert_eq!(names, declared, "{} trace={trace}", workload.name);
            for (name, metric) in emitted {
                assert!(name_ok(name), "{name}");
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{name}: {metric:?}");
                assert!(
                    metric
                        .get("unit")
                        .and_then(Json::as_str)
                        .is_some_and(|u| !u.is_empty()),
                    "{name} has no unit"
                );
            }
        }
    }
}

fn tracing_changes_no_deterministic_number() {
    let exact: Vec<&str> = END_TO_END
        .iter()
        .filter(|m| m.exact)
        .map(|m| m.name)
        .collect();
    for workload in WORKLOADS.iter().filter(|w| w.kind != Kind::ServePipelined) {
        let untraced = tiny_run(workload, 5, false);
        let again = tiny_run(workload, 5, false);
        let traced = tiny_run(workload, 5, true);
        let other_seed = tiny_run(workload, 6, false);
        let value = |r: &RunResult, name: &str| {
            r.end_to_end
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        for name in &exact {
            assert_eq!(
                value(&untraced, name),
                value(&traced, name),
                "{} {name} under tracing",
                workload.name
            );
            assert_eq!(
                value(&untraced, name),
                value(&again, name),
                "{} {name} on a repeat",
                workload.name
            );
        }
        assert_ne!(
            value(&untraced, "virt_mean_us"),
            value(&other_seed, "virt_mean_us"),
            "{}: the seed must change the inputs",
            workload.name
        );
        let check = |name: &str| {
            traced
                .per_layer
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(
            check("check.virt_mean_us"),
            value(&untraced, "virt_mean_us")
        );
        assert_eq!(check("check.write_amp"), value(&untraced, "write_amp"));
    }
}
