#!/usr/bin/env bash
# Discarded results (ROADMAP item 21(c)).
#
#   scripts/discards.sh
#
# Lists every `let _ =`, `.ok();` and `drop(<call>(..))` (a call's
# result handed straight to `drop`; `drop(guard)` is not one) in the
# non-test code (the rule of scripts/loc.sh) of the engine crates — what
# `pm-blade` links, its normal `cargo tree` — and of pm-blade-server,
# and exits 1 when one is not in scripts/discards.allow or an entry
# there matches nothing.
#
# An allowlist entry is one tab-separated line: the file, the line's
# text without its indentation, and a one-line proof that dropping the
# result loses nothing. Each entry admits one line, wherever it moves
# in the file; two identical lines need two entries.
set -euo pipefail
cd "$(dirname "$0")/.."

tree=$(cargo tree -p pm-blade -e normal --prefix none --offline)
mapfile -t dirs < <(awk '{ gsub(/[()]/, "", $3); print $3 }' <<<"$tree" | sort -u)
mapfile -t files < <(find "${dirs[@]/%//src}" crates/pm-blade-server/src -name '*.rs' | sort)
root=$PWD/

awk -F '\t' -v root="$root" "$(<scripts/non_test.awk)"'
    FILENAME == "scripts/discards.allow" {
        if ($0 !~ /^#/ && NF > 0) { allowed[$1 SUBSEP $2]++; entry[$1 SUBSEP $2] = FNR }
        next
    }
    /let _ =|\.ok\(\);|drop\([[:alnum:]_:.&]+\(/ {
        file = FILENAME; sub("^" root, "", file)
        text = $0; sub(/^[[:space:]]+/, "", text)
        if (allowed[file SUBSEP text]-- > 0) next
        printf "%s:%d: a discarded result not in scripts/discards.allow: %s\n", file, FNR, text
        bad = 1
    }
    END {
        for (key in allowed) if (allowed[key] > 0) {
            split(key, part, SUBSEP)
            printf "scripts/discards.allow:%d: matches no line of %s\n", entry[key], part[1]
            bad = 1
        }
        exit bad
    }' scripts/discards.allow "${files[@]}" >&2
