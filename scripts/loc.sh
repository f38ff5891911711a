#!/usr/bin/env bash
# Non-test Rust lines per crate: every crates/<name>/src/**/*.rs counted up
# to its first `#[cfg(test)]` line, summed per crate; the vendored shims
# are excluded. `scripts/loc.sh <crate> -v` lists that crate's files.
# This is the rule CHANGES.md "lines removed" figures are quoted by.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { awk '/^#\[cfg\(test\)\]/{exit} {c++} END{print c+0}' "$1"; }

total=0
for dir in crates/*; do
  crate=$(basename "$dir")
  [[ $crate == shims || ! -d $dir/src ]] && continue
  [[ $# -gt 0 && $1 != "$crate" ]] && continue
  sum=0
  while IFS= read -r f; do
    n=$(count "$f")
    sum=$((sum + n))
    [[ ${2:-} == -v ]] && printf '  %6d  %s\n' "$n" "$f"
  done < <(find "$dir/src" -name '*.rs' | sort)
  printf '%6d  %s\n' "$sum" "$crate"
  total=$((total + sum))
done
printf '%6d  total\n' "$total"
