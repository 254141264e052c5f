#!/usr/bin/env bash
# Tier-1 verification: release build + full test suite.
#
# All dependencies are path crates under crates/ (including the local
# stand-ins for proptest, criterion and parking_lot) and cargo
# runs offline (.cargo/config.toml sets net.offline = true). If cargo
# tries to reach crates.io, something added a registry dependency — fix
# the manifest, do not go online.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "+ $*"
    if ! "$@"; then
        status=$?
        echo "verify: '$*' failed (exit $status)" >&2
        echo "verify: note: deps are path crates and cargo is offline;" >&2
        echo "verify: a 'failed to fetch'/'registry' error means a manifest" >&2
        echo "verify: references a crate not under crates/ — add a path dep," >&2
        echo "verify: do not 'cargo add' or enable the network." >&2
        exit "$status"
    fi
}

run cargo build --workspace --release
run cargo test --workspace -q --no-fail-fast
# benchmark/ is a package of its own, so the workspace build never
# compiles it: build it here, or a break of the API it calls by name
# shows up only in the benchmark pipeline.
run cargo build --offline --release --manifest-path benchmark/Cargo.toml
echo "verify: OK"
