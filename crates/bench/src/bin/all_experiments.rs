//! Run every table/figure reproduction in sequence (the full §VI sweep).
//!
//! ```sh
//! cargo build --release -p bench --bins
//! target/release/all_experiments | diff crates/bench/all_experiments.txt -
//! ```
//!
//! Each experiment is also available as its own binary (table1, fig2a,
//! table3, fig6, table4, table5, fig7, fig8, fig9, fig10, fig11, fig12,
//! ablations, future_cxl); this runner executes the ones built next to
//! it in paper order. Its output is committed as
//! `crates/bench/all_experiments.txt` and CI diffs every run against it.

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig2a",
    "table3",
    "fig6",
    "table4",
    "table5",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ablations",
    "future_cxl",
];

fn main() {
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("target dir");
    let mut failed = Vec::new();
    for exp in EXPERIMENTS {
        println!("\n########## {exp} ##########");
        let status = Command::new(dir.join(exp))
            .status()
            .unwrap_or_else(|e| panic!("failed to spawn {exp}: {e}"));
        if !status.success() {
            failed.push(*exp);
        }
    }
    if failed.is_empty() {
        println!("\nall {} experiments completed", EXPERIMENTS.len());
    } else {
        eprintln!("\nFAILED: {failed:?}");
        std::process::exit(1);
    }
}
