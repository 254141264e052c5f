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
# cannot silently grow back, and `--max-options N` when `Options` and
# `ServerOptions` together have more than N fields, so a new knob is
# added on purpose, with the raised number in its diff. It always exits 1 when a `#[cfg(test)]`
# line is followed by anything but a `mod`: the count would skip the
# code after that item.
#
# `--base REV` also counts REV — a `git archive REV` extract, by this
# script's rules — and prints its column beside the working tree's and
# the change between them (`scripts/loc.sh --base HEAD^`: parent →
# change). The checks above look at the working tree only.
set -euo pipefail
cd "$(dirname "$0")/.."

max_file='' max_options='' base=''
while (($#)); do
    case $1 in
        --max-file) max_file=$2 ;;
        --max-options) max_options=$2 ;;
        --base) base=$2 ;;
        *) echo "usage: $0 [--max-file N] [--max-options N] [--base REV]" >&2 && exit 2 ;;
    esac
    shift 2
done

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

# fields STRUCT FILE — the `pub` fields of `pub struct STRUCT` in FILE.
fields() {
    awk -v open="pub struct $1 {" '
        $0 == open { inside = 1; next }
        inside && /^\}/ { exit }
        inside && /^    pub [a-z_0-9]+:/ { n++ }
        END { print n + 0 }' "$2"
}

# rows — the table of the tree in the current directory, one
# `label<TAB>count` line per row; the largest file's adds its path.
rows() {
    local dir crate n total=0 engine=0
    local -A lines
    for dir in crates/*/; do
        crate=$(basename "$dir")
        mapfile -t files < <(find "$dir/src" -name '*.rs' | sort)
        n=$(code_lines "${files[@]}")
        lines[$crate]=$n
        total=$((total + n))
        printf '%s\t%d\n' "$crate" "$n"
    done
    printf 'all of crates/\t%d\n' "$total"

    # Each line of the tree is `name version (path)`, a repeat ending `(*)`.
    tree=$(cargo tree -p pm-blade -e normal --prefix none --offline)
    while read -r dir; do
        engine=$((engine + lines[$(basename "$dir")]))
    done < <(awk '{ gsub(/[()]/, "", $3); print $3 }' <<<"$tree" | sort -u)
    printf 'engine crates\t%d\n' "$engine"

    mapfile -t files < <(find crates/pm-blade/src -name '*.rs' | sort)
    printf 'pm-blade pub fn\t%d\n' "$(pub_fns "${files[@]}")"
    mapfile -t files < <(find crates/pm-blade-client/src -name '*.rs' | sort)
    printf 'pm-blade-client pub fn\t%d\n' "$(pub_fns "${files[@]}")"
    printf 'Options fields\t%d\n' "$(fields Options crates/pm-blade/src/options.rs)"
    printf 'ServerOptions fields\t%d\n' \
        "$(fields ServerOptions crates/pm-blade-server/src/lib.rs)"

    mapfile -t files < <(find crates/*/src -name '*.rs' | sort)
    awk "$non_test"'
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { if (++n[FILENAME] > max) { max = n[FILENAME]; at = FILENAME } }
        END { print "largest file\t" max + 0 "\t" at }' "${files[@]}"
}

tree_rows=$(rows)
if [[ -z $base ]]; then
    printf '%-22s %8s\n' crate code_lines
    awk -F'\t' '{ printf "%-22s %8d%s\n", $1, $2, ($3 == "" ? "" : "  " $3) }' <<<"$tree_rows"
else
    extract=$(mktemp -d)
    trap 'rm -rf "$extract"' EXIT
    git archive "$base" | tar -x -C "$extract"
    base_rows=$(cd "$extract" && rows)
    printf '%-22s %8s %8s %8s\n' crate "$base" tree change
    # Rows in the working tree's order; a crate only REV has goes last.
    awk -F'\t' '
        NR == FNR { old[$1] = $2; order[++n] = $1; next }
        { printf "%-22s %8s %8d %+8d\n", $1, ($1 in old ? old[$1] : "-"), $2, $2 - old[$1]
          delete old[$1] }
        END { for (i = 1; i <= n; i++) if (order[i] in old)
                  printf "%-22s %8d %8s %+8d\n", order[i], old[order[i]], "-", -old[order[i]] }
    ' <(printf '%s\n' "$base_rows") <(printf '%s\n' "$tree_rows")
fi

read -r largest largest_file < <(awk -F'\t' '$1 == "largest file" { print $2, $3 }' <<<"$tree_rows")
if [[ -n $max_file ]] && ((largest > max_file)); then
    echo "loc: $largest_file has $largest code lines, more than $max_file" >&2
    exit 1
fi
knobs=$(awk -F'\t' '$1 ~ /^(Server)?Options fields$/ { n += $2 } END { print n + 0 }' <<<"$tree_rows")
if [[ -n $max_options ]] && ((knobs > max_options)); then
    echo "loc: Options and ServerOptions have $knobs fields, more than $max_options" >&2
    exit 1
fi
mapfile -t sources < <(find crates/*/src -name '*.rs' | sort)
stray=$(awk '
    after && !/^[[:space:]]*(pub(\([a-z]+\))? )?mod / { print FILENAME ":" FNR }
    { after = /^[[:space:]]*#\[cfg\(test\)\]/ }' "${sources[@]}")
if [[ -n $stray ]]; then
    echo "loc: a #[cfg(test)] item that is not a mod hides the code after it:" >&2
    echo "$stray" >&2
    exit 1
fi
