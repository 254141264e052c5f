#!/usr/bin/env bash
# The repo benchmark's one command: build in release, then run.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--out DIR]
#       every workload (or the one named) once untraced and once traced;
#       prints one JSON document with every metric by name and unit
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the contract's result object
#   benchmark/run.sh --sets 2 --runs 3 --out DIR     write sets of runs
#   benchmark/run.sh --compare A.json B.json         check two sets
#   benchmark/run.sh --print-contract                print BENCHMARK.json
#
# Everything it reads, builds and writes stays inside the checkout:
# build output under $CARGO_TARGET_DIR (default benchmark/target), WAL and
# manifest files under benchmark/.work.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;  # the driver gives a path relative to the checkout
esac
export CARGO_TARGET_DIR="$target"

# The build's messages go to stderr; stdout carries results only.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/pmblade-benchmark" --work-dir "$here/.work" "$@"
