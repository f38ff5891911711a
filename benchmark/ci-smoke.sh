#!/usr/bin/env bash
# Smoke gate for the benchmark itself, for scripts/ci.sh to call: a
# 2-second pass over every workload (untraced and traced), the schema
# test against what it saved, and the crate's unit tests. Under 90 s on
# the 2-core sandbox. Smoke numbers are never compared with anything.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

bash "$here/run.sh" --smoke --save "$here/out/smoke.json"
BENCH_SMOKE_RESULT="$here/out/smoke.json" python3 "$here/test_schema.py"
cargo test --release --offline --manifest-path "$here/Cargo.toml"
