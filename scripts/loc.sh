#!/usr/bin/env bash
# Non-test Rust lines per crate: every crates/<name>/src/**/*.rs counted up
# to its first `#[cfg(test)]` line, summed per crate; the vendored shims
# and file modules declared `#[cfg(test)] mod <name>;` are excluded.
# `scripts/loc.sh <crate> -v` lists that crate's files.
# This is the rule CHANGES.md "lines removed" figures are quoted by.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { awk '/^#\[cfg\(test\)\]/{exit} {c++} END{print c+0}' "$1"; }

# Paths of the `#[cfg(test)] mod <name>;` file modules (<dir>/<name>.rs).
test_modules=$(find crates/*/src -name '*.rs' -exec awk '
  FNR == 1 { t = 0 }
  /^#\[cfg\(test\)\]/ { t = 1; next }
  t && /^mod [a-z0-9_]+;/ { d = FILENAME; sub(/[^\/]*$/, "", d); m = $2; sub(/;/, "", m); print d m ".rs" }
  { t = 0 }' {} +)

total=0
for dir in crates/*; do
  crate=$(basename "$dir")
  [[ $crate == shims || ! -d $dir/src ]] && continue
  [[ $# -gt 0 && $1 != "$crate" ]] && continue
  sum=0
  while IFS= read -r f; do
    grep -qxF "$f" <<<"$test_modules" && continue
    n=$(count "$f")
    sum=$((sum + n))
    [[ ${2:-} == -v ]] && printf '  %6d  %s\n' "$n" "$f"
  done < <(find "$dir/src" -name '*.rs' | sort)
  printf '%6d  %s\n' "$sum" "$crate"
  total=$((total + sum))
done
printf '%6d  total\n' "$total"
