#!/usr/bin/env bash
# Tier-1 gate: build, test, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# Concurrency/robustness analyzer: non-zero exit on any finding.
cargo run -q -p kera-lint

# Non-test lines per crate (no gate): the table "lines removed" figures
# in CHANGES.md are quoted from.
scripts/loc.sh

# Dynamic lock-order checking: the shim's own lockdep suite, then the
# chaos + invariants suites with every lock acquisition instrumented.
# The chaos run arms the flight recorder: a panic or chaos failure dumps
# each node's recent-event ring under results/tmp/flightrec/<run>/.
(cd crates/shims/parking_lot && cargo test -q --features deadlock-detect)
if ! KERA_FLIGHTREC=1 cargo test -q --features deadlock-detect --test chaos --test invariants; then
  echo "chaos/invariants failed — flight recorder dumps:" >&2
  ls results/tmp/flightrec/*/flightrec-*.json >&2 2>/dev/null || echo "  (none recorded)" >&2
  exit 1
fi

# Coordinator failover drills (DESIGN.md §10), run by name so a refactor
# that renames or drops them fails loudly instead of silently shrinking
# the chaos surface: leader killed / frozen / partitioned mid-ingest,
# with the flight recorder armed so a failed election window dumps each
# replica's last moments.
if ! KERA_FLIGHTREC=1 cargo test -q --test chaos -- --exact \
    coordinator_leader_kill_fails_over_without_metadata_loss \
    coordinator_frozen_leader_is_deposed_and_steps_down_on_thaw \
    coordinator_partitioned_leader_abdicates_and_rejoins; then
  echo "coordinator failover drills failed — flight recorder dumps:" >&2
  ls results/tmp/flightrec/*/flightrec-*.json >&2 2>/dev/null || echo "  (none recorded)" >&2
  exit 1
fi

# Overload chaos drills (DESIGN.md §11), run by name for the same
# reason: the 10:1 abusive-tenant storm (polite-throughput floor +
# degradation ladder), the slow-consumer pile-up, and quota flapping
# mid-ingest. Each asserts the bounded-memory gate — the admission
# queue's high-water mark never exceeds `admission_queue_bytes` on any
# broker — plus exactly-once delivery of every acked record. The flight
# recorder is armed so a failed drill dumps per-node quota events
# (QuotaThrottle/QuotaReject/QuotaEvict stages).
if ! KERA_FLIGHTREC=1 cargo test -q --test chaos -- --exact \
    overload_polite_tenants_keep_throughput_floor \
    slow_consumer_pileup_keeps_broker_bounded \
    quota_flapping_mid_ingest_preserves_exactly_once; then
  echo "overload drills failed — flight recorder dumps:" >&2
  ls results/tmp/flightrec/*/flightrec-*.json >&2 2>/dev/null || echo "  (none recorded)" >&2
  exit 1
fi

# Introspection plane smoke (DESIGN.md §13): boot a real 3-broker /
# 3-replica cluster on loopback TCP, scrape every node over the wire
# with the Introspect opcode, and require each one to report health
# (role, term, lag, quota ladder, in-flight). Non-zero exit if any node
# is unreachable — the watchdog chaos drill above already covers the
# stall-dump path.
cargo run -q --release -p kera-inspect -- health --brokers 3 --replicas 3

# Observability overhead smoke check: a quick fig08-style point with
# tracing on must stay within the budget (default 5%) of the same point
# with tracing off. KERA_OBS_TOLERANCE_PCT overrides the budget.
KERA_WARMUP_MS=300 KERA_MEASURE_MS=1200 cargo run -q --release -p kera-harness --bin obs_overhead

# Repo-benchmark smoke: a 2-second pass over every workload of
# BENCHMARK.json (untraced and traced) with its read-back checks (chunk
# CRCs, sequence continuity, consumed == acked), the result-schema test
# and the benchmark crate's unit tests. Smoke numbers are never compared
# with anything; a hot-path regression is judged by `benchmark/run.sh
# repeat` + `compare` against the parent commit.
bash benchmark/ci-smoke.sh
