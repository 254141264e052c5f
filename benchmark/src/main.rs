//! Command line of the repo benchmark; `run.sh` builds and calls it.
//!
//! - `--workload W --seed N --seconds S --trace 0|1` runs one workload
//!   in this process and ends with the contract's result line;
//! - without `--trace`, every workload (or the one named) runs once
//!   untraced and once traced, each in a child process, and one JSON
//!   document with every metric is printed;
//! - `--sets K --runs R --out DIR` writes K sets of R untraced runs;
//! - `--compare A.json B.json` checks two sets against the bounds;
//! - `--print-contract` prints `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use pmblade_benchmark::run::{self, RunArgs, Scale};
use pmblade_benchmark::spec::{self, RUN_SECONDS};
use pmblade_benchmark::suite::{self, SuiteArgs};

const USAGE: &str = "usage: run.sh [--seed N] [--workload NAME] [--seconds S] [--out DIR]
       run.sh --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
       run.sh --sets K --runs R --out DIR [--seed N] [--workload NAME]
       run.sh --compare A.json B.json
       run.sh --print-contract";

struct Cli {
    workload: Option<&'static spec::Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    out_dir: Option<PathBuf>,
    work_dir: PathBuf,
    sets: Option<usize>,
    runs: usize,
    compare: Option<(PathBuf, PathBuf)>,
    print_contract: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: None,
        out_dir: None,
        work_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.work")),
        sets: None,
        runs: 3,
        compare: None,
        print_contract: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |text: &String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: {text:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(spec::workload(name).ok_or_else(|| {
                    let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => cli.seed = number(value()?)?,
            "--seconds" => {
                cli.seconds = number(value()?)?;
                if !(1..=60).contains(&cli.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--out" => cli.out_dir = Some(PathBuf::from(value()?)),
            "--work-dir" => cli.work_dir = PathBuf::from(value()?),
            "--sets" => cli.sets = Some(number(value()?)? as usize),
            "--runs" => cli.runs = (number(value()?)? as usize).max(1),
            "--compare" => cli.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--print-contract" => cli.print_contract = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn main_inner(process_start: Instant) -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args)?;
    if cli.print_contract {
        print!("{}", spec::contract().pretty());
        return Ok(true);
    }
    if let Some((a, b)) = &cli.compare {
        return suite::compare(a, b);
    }
    let suite_args = SuiteArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        only: cli.workload,
        work_dir: cli.work_dir.clone(),
        out_dir: cli.out_dir.clone(),
    };
    if let Some(sets) = cli.sets {
        for path in suite::run_sets(&suite_args, sets, cli.runs)? {
            println!("{}", path.display());
        }
        return Ok(true);
    }
    let Some(trace) = cli.trace else {
        let doc = suite::run_suite(&suite_args)?;
        if let Some(out) = &cli.out_dir {
            let path = out.join("results.json");
            std::fs::create_dir_all(out)
                .and_then(|()| std::fs::write(&path, doc.pretty()))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        print!("{}", doc.pretty());
        return Ok(true);
    };
    let workload = cli
        .workload
        .ok_or_else(|| format!("--trace needs --workload\n{USAGE}"))?;
    let result = run::run(&RunArgs {
        workload,
        seed: cli.seed,
        trace,
        scale: Scale::full(workload, cli.seconds),
        work_dir: cli.work_dir,
        out_dir: cli.out_dir,
        process_start,
    })?;
    if let Some(first) = &result.first_failure {
        eprintln!(
            "{}: {} of {} ops failed; first: {first}",
            workload.name, result.failed, result.attempted
        );
    }
    let metrics = if trace {
        &result.per_layer
    } else {
        &result.end_to_end
    };
    println!(
        "{}",
        suite::result_line(result.failed == 0, result.attempted, result.failed, metrics)
    );
    Ok(true)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    match main_inner(process_start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
