//! Everything above a single run: the whole-suite document, sets of
//! runs for the repeatability check, and the comparison of two sets.
//! Each run is a child process of its own, so peak RSS and allocation
//! counts belong to one workload.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::host::HostInfo;
use crate::json::Json;
use crate::run::CHECKED;
use crate::spec::{Better, Kind, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::median;

/// The line a single run ends with: the contract's result object, its
/// metrics in declaration order with their declared units.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
) -> String {
    let declared = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
    let metrics = declared.filter_map(|(name, unit)| {
        let (_, value) = metrics.iter().find(|(n, _)| *n == name)?;
        Some((
            name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
        ))
    });
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: u64,
    /// Run only this workload.
    pub only: Option<&'static Workload>,
    pub work_dir: PathBuf,
    pub out_dir: Option<PathBuf>,
}

impl SuiteArgs {
    fn workloads(&self) -> Vec<&'static Workload> {
        match self.only {
            Some(w) => vec![w],
            None => WORKLOADS.iter().collect(),
        }
    }
}

/// Run one workload in a child process and parse its result line.
fn child(args: &SuiteArgs, workload: &Workload, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--work-dir")
        .arg(&args.work_dir);
    if let Some(out) = &args.out_dir {
        cmd.arg("--out").arg(out);
    }
    eprintln!(
        "# {} seed {} {}",
        workload.name,
        args.seed,
        if trace { "traced" } else { "untraced" }
    );
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    let result = Json::parse(last).map_err(|e| format!("{}: {e}", workload.name))?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{} reported incorrect results: {last}",
            workload.name
        ));
    }
    Ok(result)
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every workload once untraced and once traced; one document with
/// every metric by name and unit.
pub fn run_suite(args: &SuiteArgs) -> Result<Json, String> {
    let host = HostInfo::probe(&args.work_dir);
    let mut workloads = Vec::new();
    for w in args.workloads() {
        let untraced = child(args, w, false)?;
        let traced = child(args, w, true)?;
        // Spans never touch a `Timeline`: on the embedded workloads the
        // traced run must repeat the untraced run's numbers exactly.
        if w.kind != Kind::ServePipelined {
            for (check, name) in CHECKED {
                let (a, b) = (metric_value(&untraced, name), metric_value(&traced, check));
                if a != b {
                    return Err(format!(
                        "{}: {name} is {a:?} untraced but {b:?} traced",
                        w.name
                    ));
                }
            }
        }
        let end_to_end = END_TO_END.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    (
                        "value",
                        metric_value(&untraced, m.name).map_or(Json::Null, Json::Num),
                    ),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                    ("bound", Json::Num(m.bound)),
                ]),
            )
        });
        let per_layer = PER_LAYER.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    (
                        "value",
                        metric_value(&traced, m.name).map_or(Json::Null, Json::Num),
                    ),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                ]),
            )
        });
        let field = |r: &Json, key: &str| r.get(key).cloned().unwrap_or(Json::Null);
        workloads.push((
            w.name,
            Json::obj([
                ("why", Json::str(w.why)),
                ("attempted", field(&untraced, "attempted")),
                ("failed", field(&untraced, "failed")),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer)),
            ]),
        ));
    }
    Ok(Json::obj([
        ("benchmark", Json::str("pm-blade")),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("host", host_json(&host)),
        ("policy", policy_json()),
        ("workloads", Json::obj(workloads)),
    ]))
}

fn host_json(host: &HostInfo) -> Json {
    Json::obj([
        ("nproc", Json::Num(host.nproc as f64)),
        ("kernel", Json::str(host.kernel.clone())),
        ("load1_at_start", Json::Num(host.load1)),
        ("work_dir_fs", Json::str(host.work_fs.clone())),
    ])
}

/// The load and durability policy every number was taken under.
fn policy_json() -> Json {
    Json::obj([
        ("load", Json::str("closed loop, one client thread; serve_pipelined adds the server's connection thread and a window of 16")),
        ("wal", Json::str("write_heavy only: WAL and manifest on, no per-write sync (engine default), sync_wal() before reopen; directory inside the checkout")),
        ("maintenance", Json::str("inline")),
    ])
}

/// `sets` sets of `runs` untraced runs per workload, written to
/// `set-<n>.json` under `out`. Returns the paths.
pub fn run_sets(args: &SuiteArgs, sets: usize, runs: usize) -> Result<Vec<PathBuf>, String> {
    let out = args.out_dir.clone().ok_or("--sets needs --out DIR")?;
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut paths = Vec::new();
    for set in 0..sets {
        let mut workloads = Vec::new();
        for w in args.workloads() {
            let mut values: Vec<Vec<Json>> = vec![Vec::new(); END_TO_END.len()];
            for _ in 0..runs {
                let result = child(args, w, false)?;
                for (slot, m) in values.iter_mut().zip(&END_TO_END) {
                    slot.push(metric_value(&result, m.name).map_or(Json::Null, Json::Num));
                }
            }
            let metrics = END_TO_END
                .iter()
                .zip(values)
                .map(|(m, v)| (m.name, Json::Arr(v)));
            workloads.push((w.name, Json::obj(metrics)));
        }
        let doc = Json::obj([
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds as f64)),
            ("runs", Json::Num(runs as f64)),
            ("host", host_json(&HostInfo::probe(&args.work_dir))),
            ("workloads", Json::obj(workloads)),
        ]);
        let path = out.join(format!("set-{}.json", set + 1));
        std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        paths.push(path);
    }
    Ok(paths)
}

fn load_set(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Per-metric medians of one set's runs.
fn set_median(set: &Json, workload: &str, metric: &str) -> Option<f64> {
    let runs = set.get("workloads")?.get(workload)?.get(metric)?.as_arr()?;
    let values: Vec<f64> = runs.iter().filter_map(Json::as_f64).collect();
    (!values.is_empty()).then(|| median(&values))
}

/// How much worse `b` is than `a`, as a share of `a`; negative when
/// better.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let change = if a == 0.0 { b - a } else { (b - a) / a.abs() };
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Compare two sets: print each end-to-end metric × workload with its
/// relative difference and bound; `Ok(false)` on any breach. Two sets of
/// the same code should differ by less than the bound either way, and
/// the exact metrics of the embedded workloads not at all for one seed.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load_set(a_path)?, load_set(b_path)?);
    let same_seed = a.get("seed").is_some() && a.get("seed") == b.get("seed");
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "diff", "bound"
    );
    let mut ok = true;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(ma), Some(mb)) = (
                set_median(&a, w.name, m.name),
                set_median(&b, w.name, m.name),
            ) else {
                continue;
            };
            let diff = worsening(ma, mb, m.better);
            let must_equal = m.exact && same_seed && w.kind != Kind::ServePipelined;
            let verdict = if must_equal && ma != mb {
                "BREACH (must repeat exactly)"
            } else if diff.abs() > m.bound {
                "BREACH"
            } else if must_equal {
                "exact"
            } else {
                "ok"
            };
            ok &= !verdict.starts_with("BREACH");
            println!(
                "{:<16} {:<20} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}%  {verdict}",
                w.name,
                m.name,
                ma,
                mb,
                diff * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
    }

    fn write_set(dir: &Path, name: &str, seed: u64, scale: f64) -> PathBuf {
        let workloads = WORKLOADS.iter().map(|w| {
            let metrics = END_TO_END.iter().map(|m| {
                let runs =
                    [1.0, 3.0, 2.0].map(|v| Json::Num(v * if m.exact { 1.0 } else { scale }));
                (m.name, Json::Arr(runs.to_vec()))
            });
            (w.name, Json::obj(metrics))
        });
        let doc = Json::obj([
            ("seed", Json::Num(seed as f64)),
            ("workloads", Json::obj(workloads)),
        ]);
        let path = dir.join(name);
        std::fs::write(&path, doc.pretty()).unwrap();
        path
    }

    #[test]
    fn compare_takes_set_medians_and_flags_breaches() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = write_set(&dir, "a.json", 1, 1.0);
        let near = write_set(&dir, "near.json", 1, 1.05);
        let far = write_set(&dir, "far.json", 1, 1.5);
        assert_eq!(
            set_median(&load_set(&a).unwrap(), "read_hot", "setup_s"),
            Some(2.0)
        );
        assert_eq!(compare(&a, &a), Ok(true));
        assert_eq!(
            compare(&a, &near),
            Ok(true),
            "5% is inside every inexact bound"
        );
        assert_eq!(compare(&a, &far), Ok(false));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
