#!/usr/bin/env bash
# Net LOC as a number (ROADMAP aim 2).
#
# Per crate: lines of src/**/*.rs up to the file's first `#[cfg(test)]`
# that are neither blank nor start with `//` (so doc comments and test
# modules do not count; a `src/**/tests.rs` file is a test module as a
# whole). Also the non-test `pub fn` count of pm-blade and of
# pm-blade-client (the engine's and the client's surface), the field counts
# of `Options` and `ServerOptions` (the engine's and the service tier's
# knobs), and the largest source file under crates/*/src by the
# same count, and `engine crates`: the summed code lines of every crate
# `pm-blade` links (its normal `cargo tree`). Prints one table; `--max-file N` also exits 1 when that
# largest file has more than N code lines, so a file split for its size
# cannot silently grow back. It always exits 1 when a `#[cfg(test)]`
# line is followed by anything but a `mod`: the count would skip the
# code after that item.
set -euo pipefail
cd "$(dirname "$0")/.."

# Skips a file's lines from its first `#[cfg(test)]` on (a tests.rs
# wholly): the prefix of the awk programs below.
non_test=$(<scripts/non_test.awk)

# code_lines FILE... — the rule above, summed over the files.
code_lines() {
    awk "$non_test"'
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }' "$@" /dev/null
}

# pub_fns FILE... — `pub fn` items in the same non-test lines.
pub_fns() {
    awk "$non_test"'
        /^[[:space:]]*pub fn / { n++ }
        END { print n + 0 }' "$@" /dev/null
}

printf '%-22s %8s\n' crate code_lines
total=0
declare -A lines
for dir in crates/*/; do
    crate=$(basename "$dir")
    mapfile -t files < <(find "$dir/src" -name '*.rs' | sort)
    n=$(code_lines "${files[@]}")
    lines[$crate]=$n
    total=$((total + n))
    printf '%-22s %8d\n' "$crate" "$n"
done
printf '%-22s %8d\n' "all of crates/" "$total"

# Each line of the tree is `name version (path)`, a repeat ending `(*)`.
engine=0
tree=$(cargo tree -p pm-blade -e normal --prefix none --offline)
while read -r dir; do
    engine=$((engine + lines[$(basename "$dir")]))
done < <(awk '{ gsub(/[()]/, "", $3); print $3 }' <<<"$tree" | sort -u)
printf '%-22s %8d\n' "engine crates" "$engine"

mapfile -t engine < <(find crates/pm-blade/src -name '*.rs' | sort)
printf '%-22s %8d\n' "pm-blade pub fn" "$(pub_fns "${engine[@]}")"
mapfile -t client < <(find crates/pm-blade-client/src -name '*.rs' | sort)
printf '%-22s %8d\n' "pm-blade-client pub fn" "$(pub_fns "${client[@]}")"
# fields STRUCT FILE — the `pub` fields of `pub struct STRUCT` in FILE.
fields() {
    awk -v open="pub struct $1 {" '
        $0 == open { inside = 1; next }
        inside && /^\}/ { exit }
        inside && /^    pub [a-z_0-9]+:/ { n++ }
        END { print n + 0 }' "$2"
}
printf '%-22s %8d\n' "Options fields" "$(fields Options crates/pm-blade/src/options.rs)"
printf '%-22s %8d\n' "ServerOptions fields" \
    "$(fields ServerOptions crates/pm-blade-server/src/lib.rs)"

mapfile -t sources < <(find crates/*/src -name '*.rs' | sort)
read -r largest largest_file < <(awk "$non_test"'
    /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { if (++n[FILENAME] > max) { max = n[FILENAME]; at = FILENAME } }
    END { print max + 0, at }' "${sources[@]}")
printf '%-22s %8d  %s\n' "largest file" "$largest" "$largest_file"
if [[ ${1:-} == --max-file ]] && ((largest > $2)); then
    echo "loc: $largest_file has $largest code lines, more than $2" >&2
    exit 1
fi
stray=$(awk '
    after && !/^[[:space:]]*(pub(\([a-z]+\))? )?mod / { print FILENAME ":" FNR }
    { after = /^[[:space:]]*#\[cfg\(test\)\]/ }' "${sources[@]}")
if [[ -n $stray ]]; then
    echo "loc: a #[cfg(test)] item that is not a mod hides the code after it:" >&2
    echo "$stray" >&2
    exit 1
fi
