#!/usr/bin/env sh
# Counts code lines per crate: every `.rs` file under `crates/<crate>/src`,
# up to the first `#[cfg(test)]` followed by a `mod` line (the unit
# tests), skipping blank lines and `//` comment lines (doc comments
# included). Prints one line per file, then the crate total.
#
#   scripts/code-lines.sh                      # slim-core, slim-lsh, slim-stream
#   scripts/code-lines.sh slim-cli geocell     # any crates by name
#   QUIET=1 scripts/code-lines.sh              # totals only
set -eu
cd "$(dirname "$0")/.."
[ "$#" -gt 0 ] || set -- slim-core slim-lsh slim-stream
for crate in "$@"; do
    find "crates/$crate/src" -name '*.rs' | sort | while read -r file; do
        awk -v file="$file" '
            pending && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { exit }
            pending { n++; pending = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { pending = 1; next }
            /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
            { n++ }
            END { printf "%6d %s\n", n, file }
        ' "$file"
    done | awk -v crate="$crate" -v quiet="${QUIET:-}" '
        { total += $1; if (quiet == "") print }
        END { printf "%6d %s\n", total, crate }
    '
done
