#!/bin/sh
# Count lines of Rust source, the way ROADMAP.md cites them.
#
# Per crate: the non-test lines of every .rs file under crates/<name>/src,
# each file counted up to its first `#[cfg(test)]` line. crates/compat
# (vendored stand-ins for external crates) is excluded.
#
# Totals: the same non-test count over every crate, and every line of every
# .rs file in the repository (tests, examples and benches included) outside
# crates/compat and the separately built wallbench/ package.
#
# Usage: scripts/nontest-lines.sh   (from anywhere inside the repository)
set -eu
cd "$(dirname "$0")/.."

# Non-test lines of the files named on stdin, one path per line.
nontest() {
    total=0
    while IFS= read -r file; do
        n=$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        total=$((total + n))
    done
    echo "$total"
}

crates_total=0
for dir in crates/*/; do
    name=$(basename "$dir")
    [ "$name" = compat ] && continue
    [ -d "${dir}src" ] || continue
    n=$(find "${dir}src" -name '*.rs' | sort | nontest)
    crates_total=$((crates_total + n))
    printf '%-10s %7d\n' "$name" "$n"
done
printf '%-10s %7d  (non-test lines, all crates above)\n' total "$crates_total"

all=$(find . -name '*.rs' -not -path './crates/compat/*' -not -path './wallbench/*' \
    -not -path '*/target/*' -exec cat {} + | wc -l)
printf '%-10s %7d  (every .rs line outside crates/compat and wallbench)\n' all "$all"
