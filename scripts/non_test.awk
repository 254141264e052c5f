# The non-test rule scripts/loc.sh and scripts/discards.sh share, as an
# awk prefix: skip a file's lines from its first `#[cfg(test)]` on, and
# a `src/**/tests.rs` file whole.
FNR == 1 { in_tests = (FILENAME ~ /\/tests\.rs$/) }
/^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
in_tests { next }
