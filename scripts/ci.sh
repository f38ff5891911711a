#!/usr/bin/env bash
# Tier-1 gate: build, test, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# Concurrency/robustness analyzer: non-zero exit on any finding.
cargo run -q -p kera-lint

# One table of KERA_* variables: crates/common/src/knobs.rs is the only
# file under crates/ that reads the environment for one (the workspace
# pass above ran common/tests/knobs_documented.rs, which holds README.md and the
# other docs to the same table).
if grep -rnE 'env::var(_os)?\("KERA_|env::vars(_os)?\(' crates --include='*.rs' \
    | grep -v '^crates/common/src/knobs.rs:'; then
  echo "KERA_* variables are read through kera_common::knobs only" >&2
  exit 1
fi

# Frames are delivered on arrival: no transport grows a receive call
# back, and no thread is named for moving frames between queues.
if grep -rnE '^ *fn recv\(|"dispatch-' crates/rpc/src; then
  echo "kera-rpc: Transport has no recv and nodes have no dispatch thread" >&2
  exit 1
fi

# The worker that appended ships: no thread class stands between a
# produce worker and the backups, and nothing brings one back.
if grep -rnE '"repl-driver|ReplicationDriver' crates/*/src; then
  echo "kera-vlog: replication rounds run on the produce worker, not a driver thread" >&2
  exit 1
fi

# A reply unparks its waiter: a pending call is a slot, not a channel,
# and each client's requests thread waits in one place, its park. The
# producer's two threads share one queue under one lock: no channel in
# front of the lanes, no wake-up flag beside them, no lock on the routes.
# The broker keeps no per-fetch state nothing reads. Nothing naps on the
# record path at all: not the clients, not the produce handler, not the
# backup's write handler, not a replication round (non-test lines: a
# file counts up to its first `#[cfg(test)]`, as in scripts/loc.sh).
if grep -nE 'thread::sleep|fn idle' crates/client/src/producer.rs crates/client/src/consumer.rs \
    || find crates/broker/src/broker.rs crates/broker/src/backup.rs crates/vlog/src -name '*.rs' \
        -exec awk '/^#\[cfg\(test\)\]/{nextfile} /thread::sleep/{print FILENAME":"FNR": "$0}' {} + \
        | grep . \
    || grep -nE 'crossbeam|listening|RwLock' crates/client/src/producer.rs \
    || grep -n 'bounded(1)' crates/rpc/src/node.rs \
    || grep -rn 'fetch_pos' crates/broker/src; then
  echo "no per-call channel in kera-rpc; no nap, no second wait and no second queue in a client; no nap in broker.rs, backup.rs or kera-vlog; no fetch_pos" >&2
  exit 1
fi

# A node is held at the fabric (FaultPlan::hold), not in its handlers: no
# service carries a drill flag. And every frame a fault plan holds back in
# time sits on the plan's one line, not on a line per injector.
if grep -rnE 'frozen|fn freeze|fn thaw' crates/broker/src \
    || grep -rn 'faults-delay-{' crates/rpc/src; then
  echo "no freeze/thaw hook in a service; one faults-delay line per FaultPlan" >&2
  exit 1
fi

# A figure is declared once, in crates/harness/src/figures.rs, and graded
# by `figure check`: the committed results/ must earn their declared
# verdicts (file-only, instant), and one live short-window pass — fig13,
# 9 points x 3 repeats — must come out of run -> TSV -> check as a
# measurement (a short window proves nothing about the claim, so outside
# results/ only an invalid TSV fails). No script re-derives a figure:
# scripts/ holds no Python and nothing but history (CHANGES.md) names the
# two files that did.
cargo run -q --release -p kera-harness --bin figure -- check
rm -f results/tmp/fig*.tsv
KERA_WARMUP_MS=100 KERA_MEASURE_MS=300 \
  cargo run -q --release -p kera-harness --bin figure -- fig13 >/dev/null
cargo run -q --release -p kera-harness --bin figure -- check results/tmp
if ls scripts/*.py 2>/dev/null \
    || grep -rnE 'summarize_result[s]|fill_experiment[s]' README.md DESIGN.md EXPERIMENTS.md \
        ROADMAP.md .claude scripts crates src tests examples lint; then
  echo "figures are declared in figures.rs and graded by figure check, not by a script" >&2
  exit 1
fi

# Non-test lines per crate (no gate): the table "lines removed" figures
# in CHANGES.md are quoted from.
scripts/loc.sh

# Dynamic lock-order checking: the shim's own lockdep suite, then the
# chaos + invariants suites, the replication-round tests (kera-vlog's
# unit tests, the broker's produce-failure drill) and the producer's
# scripted-broker tests with every lock acquisition instrumented.
# The chaos run arms the flight recorder: a panic or chaos failure dumps
# each node's recent-event ring under results/tmp/flightrec/<run>/.
(cd crates/shims/parking_lot && cargo test -q --features deadlock-detect)
if ! KERA_FLIGHTREC=1 cargo test -q -p kera -p kera-vlog -p kera-broker -p kera-client \
    --features kera/deadlock-detect --test chaos --test invariants --test produce_failure \
    --test lanes --lib; then
  echo "chaos/invariants failed — flight recorder dumps:" >&2
  ls results/tmp/flightrec/*/flightrec-*.json >&2 2>/dev/null || echo "  (none recorded)" >&2
  exit 1
fi

# The seven named drills — coordinator failover (DESIGN.md §10: leader
# killed / held / partitioned mid-ingest), overload (§11: the 10:1
# abusive-tenant storm, the slow-consumer pile-up, quota flapping) and
# the stall drill (§13: a held backup, the watchdog's dump) — ran in the
# workspace pass and again, instrumented and with the recorder armed,
# just above. What is left to guard is a refactor that renames or drops
# one and silently shrinks the chaos surface: each must be listed.
drills=$(cargo test -q --test chaos -- --list)
for drill in \
    coordinator_leader_kill_fails_over_without_metadata_loss \
    coordinator_frozen_leader_is_deposed_and_steps_down_on_thaw \
    coordinator_partitioned_leader_abdicates_and_rejoins \
    overload_polite_tenants_keep_throughput_floor \
    slow_consumer_pileup_keeps_broker_bounded \
    quota_flapping_mid_ingest_preserves_exactly_once \
    held_backup_mid_ingest_triggers_watchdog_dump; do
  if ! grep -q "^$drill: test\$" <<<"$drills"; then
    echo "chaos drill '$drill' no longer exists in tests/chaos.rs" >&2
    exit 1
  fi
done

# Introspection plane smoke (DESIGN.md §13): boot a real 3-broker /
# 3-replica cluster on loopback TCP, scrape every node over the wire
# with the Introspect opcode, and require each one to report health
# (role, term, lag, quota ladder, in-flight). Non-zero exit if any node
# is unreachable — the stall drill above already covers the stall-dump
# path.
cargo run -q --release -p kera-inspect -- health --brokers 3 --replicas 3

# Repo-benchmark smoke: a 2-second pass over every workload of
# BENCHMARK.json (untraced and traced) with its read-back checks (chunk
# CRCs, sequence continuity, consumed == acked), the result-schema test
# and the benchmark crate's unit tests. Smoke numbers are never compared
# with anything; a hot-path regression is judged by `benchmark/run.sh
# repeat` + `compare` against the parent commit.
bash benchmark/ci-smoke.sh
