#!/usr/bin/env bash
# The benchmark's exact metrics as one JSON document (ROADMAP item 13).
#
#   scripts/exact.sh RUN...
#
# Each RUN is the saved stdout of one `benchmark/run.sh --workload W
# --seed N --seconds S --trace 0`, named `W-seedN-Ss.txt`; its last line
# is the run's result object. For each run, in argument order, prints
# the workload's seed, seconds and the seven metrics the virtual clock
# decides: they repeat bit for bit at one seed on every machine. CI's
# benchmark-smoke job diffs the output against the committed
# BENCH_exact.json, so a PR that moves one of them commits the new file.
#
# Allocation counts are left out: they depend on the toolchain, and
# tests/alloc_budget.rs gates them per operation.
set -euo pipefail

metrics='virt_mean_us virt_p50_us virt_p99_us write_amp ssd_write_amp dev_read_kib_per_op space_amp'

for run in "$@"; do
    name=$(basename "$run")
    if [[ ! $name =~ ^([a-z_]+)-seed([0-9]+)-([0-9]+)s\.txt$ ]]; then
        echo "exact.sh: $run is not named WORKLOAD-seedN-Ss.txt" >&2
        exit 2
    fi
    tail -n 1 "$run" | jq --arg workload "${BASH_REMATCH[1]}" \
        --argjson seed "${BASH_REMATCH[2]}" --argjson seconds "${BASH_REMATCH[3]}" \
        --arg metrics "$metrics" '
        if .correct != true or .failed != 0 then
            error("\($workload): the run is not correct")
        else . end
        | .metrics as $m
        | {($workload): ({seed: $seed, seconds: $seconds}
            + ([$metrics | splits(" ") | {(.): $m[.].value}] | add))}'
done | jq -s 'add'
