#!/usr/bin/env bash
# The repo benchmark's one command. Builds the benchmark (release,
# offline) and then:
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; metrics by name, result JSON as the last
#       line of stdout (this is the form BENCHMARK.json's command takes)
#   run.sh [--seed N] [--smoke] [--save FILE]
#       the suite: every workload untraced, then traced with the layer
#       probes; exits non-zero if any output check failed
#   run.sh repeat N [--seed N] [--smoke] [--save FILE]
#       N untraced runs of every workload, one seed each, into one file
#   run.sh compare A.json B.json
#       medians, quartiles, difference, bound and verdict per workload
#       and end-to-end metric
#
# Run it from the root of the checkout. Everything it writes goes under
# benchmark/out/ and the cargo target directory (CARGO_TARGET_DIR, or
# benchmark/target/).
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
export CARGO_TARGET_DIR="$target"

if [[ "${1:-}" != "compare" ]]; then
    cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
fi

export BENCH_BIN="$target/release/kera-benchmark"
export BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"

for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        exec "$BENCH_BIN" "$@" --out "$here/out"
    fi
done
exec python3 "$here/suite.py" "$@"
